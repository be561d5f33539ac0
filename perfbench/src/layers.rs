//! The traced side: per-layer metrics.
//!
//! One frame of each workload is replayed from outside by calling the
//! layers in the order a frame runs them: the read (pfs
//! `two_phase_execute`, or formats `read_subvolume` for the chunked
//! layout), decode, `MacrocellGrid::build` and `render_block_with_grid`
//! per block, then `composite_direct_send`. Every call is wrapped in a
//! wall-clock span on a `pvr_obs::Tracer::wall()` for the Perfetto
//! artifact, and timed with `Instant` at the same boundaries. The
//! replay calls one layer at a time from one thread (only
//! `composite_direct_send` fans out internally), so spans never
//! overlap: each leaf span's self time is its duration, and the frame
//! span's self time is what remains. The replayed image must equal the
//! untraced frame's image bit for bit.
//!
//! Layers inside the `sim-4096` world cannot be spanned from outside:
//! that workload reports the world's `SimStats`, the codec timed over
//! the frame's fragments, and the replay of the same configuration.

use std::fs::File;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::time::Instant;

use pvr_compositing::directsend::DirectSendStats;
use pvr_compositing::{composite_direct_send, ImagePartition, SparseSubImage};
use pvr_core::pipeline::{default_view, render_opts, transfer_for};
use pvr_core::{laptop_aggregators, run_frame, run_frame_traced, FrameConfig, IoMode};
use pvr_formats::{read_subvolume, Subvolume};
use pvr_obs::Tracer;
use pvr_pfs::{two_phase_execute, RankRequest};
use pvr_render::raycast::{render_block_with_grid, BlockDomain, RenderStats};
use pvr_render::{Camera, SubImage};
use pvr_volume::{BlockDecomposition, MacrocellGrid, Volume};
use rayon::prelude::*;

use crate::setup::{Inputs, Workload};
use crate::stats::{image_hash, median};
use crate::timed;

/// Every per-layer metric with its unit, in report order.
pub const METRICS: [(&str, &str); 39] = [
    ("pfs.read_MBps", "MB/s"),
    ("pfs.plain_read_MBps", "MB/s"),
    ("pfs.useful_bytes", "bytes"),
    ("pfs.physical_bytes", "bytes"),
    ("pfs.accesses", "count"),
    ("pfs.exchange_bytes", "bytes"),
    ("pfs.data_density", "fraction"),
    ("formats.read_MBps", "MB/s"),
    ("formats.runs", "count"),
    ("volume.macrocell_s", "s"),
    ("render.kernel_s", "s"),
    ("render.samples_per_s", "1/s"),
    ("render.skip_fraction", "fraction"),
    ("render.lane_utilization", "fraction"),
    ("render.samples", "count"),
    ("render.skipped", "count"),
    ("render.packets", "count"),
    ("render.terminated", "count"),
    ("render.stage_1t_s", "s"),
    ("render.thread_speedup", "ratio"),
    ("compositing.blend_s", "s"),
    ("compositing.codec_MBps", "MB/s"),
    ("compositing.messages", "count"),
    ("compositing.bytes", "bytes"),
    ("compositing.dense_bytes", "bytes"),
    ("compositing.sparse_messages", "count"),
    ("mpisim.events_per_s", "1/s"),
    ("mpisim.polls", "count"),
    ("mpisim.messages", "count"),
    ("mpisim.timer_fires", "count"),
    ("mpisim.peak_resident", "count"),
    ("mpisim.virtual_s", "s"),
    ("core.io_s", "s"),
    ("core.render_s", "s"),
    ("core.composite_s", "s"),
    ("core.io_hidden_frac", "fraction"),
    ("rayon.par_op_us", "us"),
    ("rayon.scaling_efficiency", "fraction"),
    ("obs.trace_overhead_frac", "fraction"),
];

/// Result of the traced run: one value per [`METRICS`] entry, plus the
/// correctness tally and human-readable notes.
pub struct LayerReport {
    pub values: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    pub notes: Vec<String>,
}

/// One replayed frame: its image hash, counters, and per-layer seconds.
struct Replay {
    image: u64,
    useful_bytes: u64,
    /// Placed runs over all ranks.
    runs: usize,
    /// The realized plan of a two-phase collective read (`None` for the
    /// chunked layout's independent reads).
    two_phase: Option<TwoPhase>,
    read_s: f64,
    macrocell_s: f64,
    kernel_s: f64,
    blend_s: f64,
    render: RenderStats,
    composite: DirectSendStats,
    /// Wire bytes and seconds of the fragment codec round trip; `None`
    /// if a fragment did not round-trip bit for bit.
    codec: Option<(u64, f64)>,
}

struct TwoPhase {
    physical_bytes: u64,
    accesses: usize,
    exchange_bytes: u64,
}

/// Run `f` inside a span named `name` on track 0 and time it.
fn span<T>(tracer: &Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    tracer.begin(0, name);
    let t = Instant::now();
    let out = f();
    let dt = t.elapsed().as_secs_f64();
    tracer.end(0, name);
    (out, dt)
}

fn decode(bytes: &[u8], sub: &Subvolume, endian: pvr_formats::Endian) -> Volume {
    let data = bytes
        .chunks_exact(4)
        .map(|c| endian.decode([c[0], c[1], c[2], c[3]]))
        .collect();
    Volume::from_data(sub.shape, data)
}

/// Replay one frame layer by layer on the calling thread.
fn replay(cfg: &FrameConfig, path: &Path, tracer: &Tracer) -> io::Result<Replay> {
    let layout = cfg.io.layout(cfg.grid);
    let var = cfg.file_variable();
    let decomp = BlockDecomposition::new(cfg.grid, cfg.nprocs);
    let blocks = decomp.blocks();
    // Gradient shading reads one cell around each sample: two ghost
    // layers, as the pipeline provisions.
    let ghost = if cfg.shading { 2 } else { 1 };
    let stored: Vec<Subvolume> = blocks.iter().map(|b| decomp.with_ghost(b, ghost)).collect();
    let requests: Vec<RankRequest> = stored
        .iter()
        .map(|sub| {
            let mut runs = Vec::new();
            layout.placed_runs(var, sub, &mut |r| runs.push(r));
            RankRequest {
                runs,
                out_elems: sub.num_elements(),
            }
        })
        .collect();
    let useful_bytes = requests.iter().map(RankRequest::useful_bytes).sum();
    let runs = requests.iter().map(|r| r.runs.len()).sum();

    tracer.begin(0, "frame");
    let (volumes, read_s, two_phase) = if layout.collective() {
        let hints = cfg.io.hints(cfg.grid);
        let mut f = File::open(path)?;
        let (res, read_s) = span(tracer, "pfs.two_phase_execute", || {
            two_phase_execute(&mut f, &requests, laptop_aggregators(cfg.nprocs), &hints)
        });
        let res = res?;
        let (volumes, _) = span(tracer, "formats.decode", || {
            res.rank_bytes
                .iter()
                .zip(&stored)
                .map(|(b, sub)| decode(b, sub, layout.endian()))
                .collect::<Vec<_>>()
        });
        let plan = TwoPhase {
            physical_bytes: res.plan.physical_bytes,
            accesses: res.plan.accesses.len(),
            exchange_bytes: res.exchange_bytes,
        };
        (volumes, read_s, Some(plan))
    } else {
        // Independent chunk reads (the chunked layout's reader): one
        // seek and one read per placed run, decoded in place.
        let (volumes, read_s) = span(tracer, "formats.read_subvolume", || {
            stored
                .iter()
                .map(|sub| {
                    let mut f = File::open(path)?;
                    let data = read_subvolume(&mut f, layout.as_ref(), var, sub)?;
                    Ok(Volume::from_data(sub.shape, data))
                })
                .collect::<io::Result<Vec<_>>>()
        });
        (volumes?, read_s, None)
    };

    let camera = Camera::orthographic(cfg.grid, default_view(), cfg.image.0, cfg.image.1);
    let tf = transfer_for(cfg);
    let opts = render_opts(cfg);
    let mut render = RenderStats::default();
    let (mut macrocell_s, mut kernel_s) = (0.0, 0.0);
    let mut subs = Vec::with_capacity(volumes.len());
    for (rank, vol) in volumes.iter().enumerate() {
        let dom = BlockDomain {
            grid: cfg.grid,
            owned: blocks[rank].sub,
            stored: stored[rank],
        };
        let (grid, dt) = span(tracer, "volume.macrocell_build", || {
            opts.fast_path.then(|| MacrocellGrid::build(vol))
        });
        macrocell_s += dt;
        let ((sub, stats), dt) = span(tracer, "render.block_with_grid", || {
            render_block_with_grid(vol, grid.as_ref(), &dom, &camera, &tf, &opts)
        });
        kernel_s += dt;
        render.merge(&stats);
        subs.push(sub);
    }
    let tiles = ImagePartition::new(cfg.image.0, cfg.image.1, cfg.compositors());
    let ((image, composite), blend_s) = span(tracer, "compositing.direct_send", || {
        composite_direct_send(&subs, tiles)
    });
    tracer.end(0, "frame");
    Ok(Replay {
        image: image_hash(&image),
        useful_bytes,
        runs,
        two_phase,
        read_s,
        macrocell_s,
        kernel_s,
        blend_s,
        render,
        composite,
        codec: codec(&subs, tiles),
    })
}

/// Encode and decode every fragment a compositor would receive (each
/// subimage cropped to each tile it overlaps). Returns wire bytes and
/// seconds, or `None` if any fragment fails to round-trip bit for bit.
fn codec(subs: &[SubImage], tiles: ImagePartition) -> Option<(u64, f64)> {
    let frags: Vec<SubImage> = subs
        .iter()
        .flat_map(|s| (0..tiles.m()).filter_map(|c| s.crop(&tiles.tile(c))))
        .collect();
    let t = Instant::now();
    let encoded: Vec<SparseSubImage> = frags.iter().map(SparseSubImage::encode).collect();
    let decoded: Vec<SubImage> = encoded.iter().map(SparseSubImage::decode).collect();
    let secs = t.elapsed().as_secs_f64();
    let bits =
        |s: &SubImage| -> Vec<u32> { s.pixels.iter().flatten().map(|c| c.to_bits()).collect() };
    let exact = frags
        .iter()
        .zip(&decoded)
        .all(|(a, b)| a.rect == b.rect && bits(a) == bits(b));
    exact.then(|| (encoded.iter().map(SparseSubImage::wire_bytes).sum(), secs))
}

/// Sequential read of the whole file in 1 MiB requests: the plain
/// `std::fs` ceiling for the layer read rates. Returns MB/s.
fn plain_read_mbps(path: &Path) -> io::Result<f64> {
    let mut f = File::open(path)?;
    let mut buf = vec![0u8; 1 << 20];
    let t = Instant::now();
    let mut total = 0u64;
    loop {
        let n = f.read(&mut buf)?;
        if n == 0 {
            break;
        }
        total += n as u64;
    }
    Ok(total as f64 / 1e6 / t.elapsed().as_secs_f64())
}

/// Wall time of one empty parallel terminal operation with one item
/// per worker: the shim's per-operation thread spawn cost. Median of
/// 201, in microseconds.
fn par_op_us(threads: usize) -> f64 {
    let v: Vec<f64> = (0..201)
        .map(|_| {
            let t = Instant::now();
            (0..threads).into_par_iter().for_each(|i| {
                std::hint::black_box(i);
            });
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&v)
}

/// Best-case thread scaling (after the gridiron `best_case_scaling`
/// harness): a fixed set of `4 × threads` independent stencil tasks
/// fanned out through `ThreadPool::install` at 1, 2, 4, … and `threads`
/// threads. No shared state, so this is the most scaling the host can
/// give. Returns `(threads, seconds)` points, each the median of three.
fn scaling_curve(threads: usize) -> Vec<(usize, f64)> {
    const N: usize = 64;
    let task = |seed: usize| -> f64 {
        let data: Vec<f64> = (0..N * N).map(|i| (i + seed) as f64).collect();
        let mut out = vec![0.0; N * N];
        for _ in 0..4000 {
            for i in 1..N - 1 {
                for j in 1..N - 1 {
                    let d = |a: usize, b: usize| std::hint::black_box(data[a * N + b]);
                    out[i * N + j] = (d(i + 1, j) - d(i - 1, j)) + (d(i, j + 1) - d(i, j - 1));
                }
            }
        }
        out.iter().sum()
    };
    let tasks = 4 * threads;
    let mut counts: Vec<usize> = std::iter::successors(Some(1), |k| Some(k * 2))
        .take_while(|&k| k < threads)
        .collect();
    counts.push(threads);
    counts
        .into_iter()
        .map(|k| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(k)
                .build()
                .expect("shim pools cannot fail to build");
            let times: Vec<f64> = (0..3)
                .map(|_| {
                    let t = Instant::now();
                    pool.install(|| {
                        let r: Vec<f64> = (0..tasks).into_par_iter().map(task).collect();
                        std::hint::black_box(r);
                    });
                    t.elapsed().as_secs_f64()
                })
                .collect();
            (k, median(&times))
        })
        .collect()
}

/// The frames a workload replays: the one frame of `movie-render` and
/// `sim-4096` (time step 0), every layout of `io-layouts`.
fn replayed(w: Workload, inputs: &Inputs) -> &[(FrameConfig, PathBuf)] {
    match w {
        Workload::IoLayouts => &inputs.frames,
        Workload::MovieRender | Workload::Sim4096 => &inputs.frames[..1],
    }
}

/// Run the traced measurement of `w` for at least `seconds`.
pub fn run(
    w: Workload,
    inputs: &Inputs,
    oracle: &[u64],
    seconds: f64,
    trace_path: &Path,
) -> LayerReport {
    let mut rep = LayerReport {
        values: vec![0.0; METRICS.len()],
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
    };
    let set = |rep: &mut LayerReport, name: &str, v: f64| {
        let i = METRICS
            .iter()
            .position(|(n, _)| *n == name)
            .expect("metric listed in METRICS");
        rep.values[i] = v;
    };
    let fail = |rep: &mut LayerReport, what: String| {
        rep.failed += 1;
        rep.notes.push(format!("FAILED: {what}"));
    };

    // Untraced frames: the images the replay must reproduce, and the
    // stage split.
    let frames = replayed(w, inputs);
    let mut untraced: Vec<Option<u64>> = Vec::new();
    let (mut io_s, mut render_s, mut composite_s) = (Vec::new(), Vec::new(), Vec::new());
    if w == Workload::MovieRender {
        rep.attempted += inputs.frames.len();
        match timed::movie(inputs) {
            Some(anim) => {
                for (t, f) in anim.frames.iter().enumerate() {
                    if image_hash(&f.result.image) != oracle[t] {
                        fail(&mut rep, format!("movie frame {t} differs from the oracle"));
                    }
                    io_s.push(f.result.timing.io);
                    render_s.push(f.result.timing.render);
                    composite_s.push(f.result.timing.composite);
                }
                set(&mut rep, "core.io_hidden_frac", anim.io_hidden_fraction());
                untraced.push(anim.frames.first().map(|f| image_hash(&f.result.image)));
            }
            None => {
                rep.failed += inputs.frames.len();
                untraced.push(None);
            }
        }
    } else {
        for (i, (cfg, path)) in frames.iter().enumerate() {
            rep.attempted += 1;
            let res = if w == Workload::Sim4096 {
                timed::sim_frame(cfg, path).map(|(f, s)| (f, Some(s)))
            } else {
                timed::rayon_frame(cfg, path).map(|f| (f, None))
            };
            let Some((f, sim)) = res else {
                fail(&mut rep, format!("untraced frame {i}"));
                untraced.push(None);
                continue;
            };
            if image_hash(&f.image) != oracle[i] {
                fail(
                    &mut rep,
                    format!("untraced frame {i} differs from the oracle"),
                );
            }
            if let Some(s) = sim {
                let host = s.wall.as_secs_f64();
                set(
                    &mut rep,
                    "mpisim.events_per_s",
                    (s.polls + s.messages) as f64 / host,
                );
                set(&mut rep, "mpisim.polls", s.polls as f64);
                set(&mut rep, "mpisim.messages", s.messages as f64);
                set(&mut rep, "mpisim.timer_fires", s.timer_fires as f64);
                set(&mut rep, "mpisim.peak_resident", s.peak_resident as f64);
                set(&mut rep, "mpisim.virtual_s", s.virtual_time.as_secs_f64());
            }
            io_s.push(f.timing.io);
            render_s.push(f.timing.render);
            composite_s.push(f.timing.composite);
            untraced.push(Some(image_hash(&f.image)));
        }
    }
    set(&mut rep, "core.io_s", median(&io_s));
    set(&mut rep, "core.render_s", median(&render_s));
    set(&mut rep, "core.composite_s", median(&composite_s));

    // Traced replays, repeated for the run's seconds (at least three
    // passes); timings are medians over passes, counts must repeat.
    // Each pass records into a fresh tracer; the first pass's spans are
    // the Perfetto artifact.
    let start = Instant::now();
    let mut passes: Vec<Vec<Replay>> = Vec::new();
    let mut profile = None;
    while passes.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let tracer = Tracer::wall();
        tracer.name_track(0, "replay");
        let mut pass = Vec::new();
        for (i, (cfg, path)) in frames.iter().enumerate() {
            rep.attempted += 1;
            match replay(cfg, path, &tracer) {
                Ok(r) if untraced[i] == Some(r.image) => pass.push(r),
                Ok(_) => {
                    fail(
                        &mut rep,
                        format!("replay of frame {i} differs from the untraced frame"),
                    );
                    return rep;
                }
                Err(e) => {
                    fail(&mut rep, format!("replay of frame {i}: {e}"));
                    return rep;
                }
            }
        }
        passes.push(pass);
        profile.get_or_insert_with(|| tracer.finish());
    }
    let first = &passes[0];
    for pass in &passes[1..] {
        for (a, b) in first.iter().zip(pass) {
            if a.render != b.render || a.composite != b.composite {
                fail(&mut rep, "replay counters changed between passes".into());
            }
        }
    }
    let nf = frames.len() as f64;
    // Per-frame seconds of one layer: the median over passes of the
    // pass's mean over replayed frames.
    let per_frame = |f: &dyn Fn(&Replay) -> f64| -> f64 {
        let v: Vec<f64> = passes
            .iter()
            .map(|p| p.iter().map(f).sum::<f64>() / nf)
            .collect();
        median(&v)
    };
    let over_passes = |i: usize, f: &dyn Fn(&Replay) -> f64| -> f64 {
        median(&passes.iter().map(|p| f(&p[i])).collect::<Vec<_>>())
    };

    // pfs: the untuned netCDF frame where the workload has one (the
    // two-phase path at its worst density), else the first collective.
    let pfs_frame = (0..frames.len())
        .filter(|&i| first[i].two_phase.is_some())
        .min_by_key(|&i| frames[i].0.io != IoMode::NetCdfUntuned);
    if let Some(i) = pfs_frame {
        let r = &first[i];
        let tp = r.two_phase.as_ref().expect("filtered on two_phase");
        let read_s = over_passes(i, &|r| r.read_s);
        set(
            &mut rep,
            "pfs.read_MBps",
            r.useful_bytes as f64 / 1e6 / read_s,
        );
        set(&mut rep, "pfs.useful_bytes", r.useful_bytes as f64);
        set(&mut rep, "pfs.physical_bytes", tp.physical_bytes as f64);
        set(&mut rep, "pfs.accesses", tp.accesses as f64);
        set(&mut rep, "pfs.exchange_bytes", tp.exchange_bytes as f64);
        set(
            &mut rep,
            "pfs.data_density",
            r.useful_bytes as f64 / tp.physical_bytes.max(1) as f64,
        );
        let plain: Vec<f64> = (0..5)
            .filter_map(|_| plain_read_mbps(&frames[i].1).ok())
            .collect();
        set(&mut rep, "pfs.plain_read_MBps", median(&plain));
    }
    if let Some(i) = frames.iter().position(|(c, _)| c.io == IoMode::Hdf5) {
        let read_s = over_passes(i, &|r| r.read_s);
        set(
            &mut rep,
            "formats.read_MBps",
            first[i].useful_bytes as f64 / 1e6 / read_s,
        );
        set(&mut rep, "formats.runs", first[i].runs as f64);
    }

    let macrocell_s = per_frame(&|r| r.macrocell_s);
    let kernel_s = per_frame(&|r| r.kernel_s);
    let rs = first[0].render;
    set(&mut rep, "volume.macrocell_s", macrocell_s);
    set(&mut rep, "render.kernel_s", kernel_s);
    set(
        &mut rep,
        "render.samples_per_s",
        rs.samples as f64 / kernel_s,
    );
    set(
        &mut rep,
        "render.skip_fraction",
        rs.skipped_samples as f64 / rs.samples.max(1) as f64,
    );
    set(
        &mut rep,
        "render.lane_utilization",
        rs.lane_utilization().unwrap_or(0.0),
    );
    set(&mut rep, "render.samples", rs.samples as f64);
    set(&mut rep, "render.skipped", rs.skipped_samples as f64);
    set(&mut rep, "render.packets", rs.packets as f64);
    set(&mut rep, "render.terminated", rs.terminated_rays as f64);
    set(&mut rep, "render.stage_1t_s", macrocell_s + kernel_s);

    let cs = &first[0].composite;
    set(&mut rep, "compositing.blend_s", per_frame(&|r| r.blend_s));
    set(&mut rep, "compositing.messages", cs.messages as f64);
    set(&mut rep, "compositing.bytes", cs.bytes as f64);
    set(&mut rep, "compositing.dense_bytes", cs.dense_bytes as f64);
    set(
        &mut rep,
        "compositing.sparse_messages",
        cs.sparse_messages as f64,
    );
    match passes
        .iter()
        .map(|p| p[0].codec)
        .collect::<Option<Vec<_>>>()
    {
        Some(runs) => {
            let rates: Vec<f64> = runs
                .iter()
                .map(|(bytes, s)| *bytes as f64 / 1e6 / s)
                .collect();
            set(&mut rep, "compositing.codec_MBps", median(&rates));
        }
        None => fail(&mut rep, "sparse codec round trip".into()),
    }

    // Trace overhead and the parallel render stage, both on the rayon
    // executor with the first replayed frame's configuration.
    let (cfg, path) = &frames[0];
    let (mut plain_s, mut traced_s, mut par_render_s) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        let f = run_frame(cfg, Some(path));
        plain_s.push(t.elapsed().as_secs_f64());
        par_render_s.push(f.timing.render);
        let t = Instant::now();
        std::hint::black_box(run_frame_traced(cfg, Some(path), &Tracer::wall()));
        traced_s.push(t.elapsed().as_secs_f64());
    }
    let plain = median(&plain_s);
    set(
        &mut rep,
        "obs.trace_overhead_frac",
        (median(&traced_s) - plain) / plain,
    );
    set(
        &mut rep,
        "render.thread_speedup",
        (macrocell_s + kernel_s) / median(&par_render_s),
    );

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    set(&mut rep, "rayon.par_op_us", par_op_us(threads));
    let curve = scaling_curve(threads);
    let t1 = curve[0].1;
    let points: Vec<String> = curve
        .iter()
        .map(|&(k, t)| format!("{k}t {t:.4}s eff {:.3}", t1 / (k as f64 * t)))
        .collect();
    rep.notes
        .push(format!("best-case scaling: {}", points.join(", ")));
    let (k, tk) = curve[curve.len() - 1];
    set(&mut rep, "rayon.scaling_efficiency", t1 / (k as f64 * tk));

    // The Perfetto artifact must pass the exporter's own validator.
    let json = pvr_obs::perfetto::to_json(&profile.expect("at least one pass"));
    match pvr_obs::perfetto::validate(&json) {
        Ok(n) => match std::fs::write(trace_path, &json) {
            Ok(()) => rep.notes.push(format!(
                "perfetto trace: {} ({n} events)",
                trace_path.display()
            )),
            Err(e) => fail(&mut rep, format!("writing {}: {e}", trace_path.display())),
        },
        Err(e) => fail(&mut rep, format!("perfetto validation: {}", e.0)),
    }
    rep.notes.push(format!(
        "{} replay passes of {} frame(s); replayed images bit-identical to the untraced frames",
        passes.len(),
        frames.len()
    ));
    rep
}

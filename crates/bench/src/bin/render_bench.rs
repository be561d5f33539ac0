//! `render_bench` — the fast-path and ray-packet microbenchmark.
//!
//! Renders one 128³ supernova block (the paper's per-process block size
//! at 1120³ / 8³ processes is comparable) four ways:
//!
//! * **naive** — no macrocells, scalar kernel, no termination;
//! * **fast** — macrocell/LUT empty-space skipping, scalar kernel
//!   (`packet_width: 1`, `Termination::Off`) — the counters pinned in
//!   the trajectory;
//! * **prev-fast** — the previous release's fast path, emulated by
//!   nudging `step` off `1.0` so the unit-step classification stays
//!   cold (`packet_width: 1`, `Termination::Off`). This is the honest
//!   baseline `packet_speedup` is measured against;
//! * **packet** — the 8-wide lockstep packet kernel with the default
//!   bitwise termination gate.
//!
//! All four must produce **bit-identical** images; the packet kernel's
//! deterministic counters (packets launched, lane-utilization
//! numerator/denominator, skips) are exact-gated. Timed comparisons are
//! interleaved round-robin within one process (best-of-N per kernel),
//! the only protocol that yields stable ratios on noisy machines; the
//! ratios still ride wide relative bands and the wall clocks are
//! info-only.
//!
//! A bounded-termination render (`RenderOpts::bounded`) checks the
//! reported per-pixel error bound against the actual deviation from the
//! exact image, and a best-case thread-scaling harness (independent
//! block renders fanned over the shim pool at 1 vs all cores) reports
//! `scaling_efficiency`.
//!
//! It also times `MacrocellGrid::build` on the same block
//! (`macrocell_build_ns_per_voxel`, info-only): the pipeline rebuilds
//! that summary for every block of every frame.
//!
//! Writes `results/BENCH_render.json` and a `render_bench.csv` summary.
//! `--ci` runs a single timed round and exits nonzero if any
//! correctness gate fails; `--packets` prints the packet-kernel detail
//! section.

use std::time::Instant;

use pvr_bench::{check, write_trajectory, CsvOut};
use pvr_core::{run_frame, FrameConfig};
use pvr_obs::bench::Trajectory;
use pvr_obs::Registry;
use pvr_render::raycast::{RenderOpts, RenderStats, Termination};
use pvr_render::{render_block_with_grid, BlockDomain, Camera, Image, TransferFunction, Vec3};
use pvr_volume::{MacrocellGrid, SupernovaField, Volume};
use rayon::ThreadPoolBuilder;

const BLOCK: usize = 128;

fn block_volume() -> Volume {
    // X velocity of the synthetic supernova — the variable and transfer
    // function of the paper's Figure 1.
    let f = SupernovaField::new(1530).variable(2);
    Volume::from_field(&f, [BLOCK; 3])
}

struct Kernel {
    name: &'static str,
    opts: RenderOpts,
    /// Whether the macrocell grid is handed to the kernel.
    grid: bool,
}

struct Measured {
    best: f64,
    stats: RenderStats,
    image: Image,
}

/// Time every kernel interleaved round-robin: one render of each per
/// round, best-of-`iters` per kernel. Interleaving shares any machine
/// slowdown across all kernels, so the *ratios* stay meaningful even
/// when the absolute clocks are noisy.
fn bench_kernels(
    volume: &Volume,
    grid: &MacrocellGrid,
    cam: &Camera,
    tf: &TransferFunction,
    kernels: &[Kernel],
    iters: usize,
) -> Vec<Measured> {
    let dom = BlockDomain::whole(volume.dims());
    let (w, h) = cam.image_size();
    let render = |k: &Kernel| {
        let g = k.grid.then_some(grid);
        let (sub, stats) = render_block_with_grid(volume, g, &dom, cam, tf, &k.opts);
        let mut img = Image::new(w, h);
        img.paste(&sub);
        (img, stats)
    };
    // One warm-up render of each, kept as the reference image/stats.
    let mut out: Vec<Measured> = kernels
        .iter()
        .map(|k| {
            let (image, stats) = render(k);
            Measured {
                best: f64::INFINITY,
                stats,
                image,
            }
        })
        .collect();
    for _ in 0..iters {
        for (k, m) in kernels.iter().zip(&mut out) {
            let t = Instant::now();
            let (img, _) = render(k);
            m.best = m.best.min(t.elapsed().as_secs_f64());
            std::hint::black_box(img);
        }
    }
    out
}

fn bits_equal(a: &Image, b: &Image) -> bool {
    a.pixels()
        .iter()
        .zip(b.pixels())
        .all(|(p, q)| (0..4).all(|c| p[c].to_bits() == q[c].to_bits()))
}

/// Best-case thread scaling: fan `2 × cores` independent copies of the
/// packet-kernel block render over the shim pool at one thread and at
/// all cores. No shared state, no compositing — an upper bound on what
/// thread scaling can ever deliver on this machine, which is exactly
/// what makes shortfalls in the full pipeline attributable.
fn best_case_scaling(
    volume: &Volume,
    grid: &MacrocellGrid,
    cam: &Camera,
    tf: &TransferFunction,
    opts: &RenderOpts,
) -> (usize, f64, f64) {
    use rayon::prelude::*;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dom = BlockDomain::whole(volume.dims());
    let tasks = 2 * threads;
    let run = |cap: usize| {
        let pool = ThreadPoolBuilder::new()
            .num_threads(cap)
            .build()
            .expect("scaling pool");
        let t = Instant::now();
        pool.install(|| {
            (0..tasks).into_par_iter().for_each(|_| {
                let (sub, _) = render_block_with_grid(volume, Some(grid), &dom, cam, tf, opts);
                std::hint::black_box(sub);
            });
        });
        t.elapsed().as_secs_f64()
    };
    // Warm-up (page in everything), then one pass per pool size.
    run(threads);
    let t1 = run(1);
    let tn = run(threads);
    let speedup = t1 / tn.max(1e-12);
    (threads, speedup, speedup / threads as f64)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ci = args.iter().any(|a| a == "--ci");
    let packets_detail = args.iter().any(|a| a == "--packets");
    let iters = if ci { 1 } else { 5 };

    // --- Kernels: one 128^3 block, four ways, interleaved. -----------
    let volume = block_volume();
    let cam = Camera::orthographic([BLOCK; 3], Vec3::new(0.3, -0.2, 0.93), 256, 256);
    let tf = TransferFunction::supernova_velocity();
    let kernels = [
        Kernel {
            name: "naive",
            opts: RenderOpts {
                fast_path: false,
                ..RenderOpts::exact()
            },
            grid: false,
        },
        Kernel {
            name: "fast",
            opts: RenderOpts::exact(),
            grid: true,
        },
        Kernel {
            name: "prev-fast",
            // Nudging `step` off exactly 1.0 keeps the unit-step
            // classification cold: this is the previous release's fast
            // path, re-measured on this machine in this process — the
            // honest packet_speedup baseline.
            opts: RenderOpts {
                step: 1.0 + f64::EPSILON,
                ..RenderOpts::exact()
            },
            grid: true,
        },
        Kernel {
            name: "packet",
            opts: RenderOpts::default(), // width 8, bitwise termination
            grid: true,
        },
    ];

    println!("# render_bench: {BLOCK}^3 supernova block, 256^2 rays, best of {iters} interleaved");
    let grid = MacrocellGrid::build(&volume);
    let build_secs = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(MacrocellGrid::build(std::hint::black_box(&volume)));
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    let build_ns_per_voxel = build_secs * 1e9 / volume.data().len() as f64;
    println!("  macrocell build: {build_ns_per_voxel:.2} ns/voxel (best of {iters})");
    let m = bench_kernels(&volume, &grid, &cam, &tf, &kernels, iters);
    let (naive, fast, prev, packet) = (&m[0], &m[1], &m[2], &m[3]);

    let bit_identical_kernel = bits_equal(&naive.image, &fast.image);
    let bit_identical_packet =
        bits_equal(&naive.image, &packet.image) && bits_equal(&naive.image, &prev.image);
    let samples = naive.stats.samples;
    let skip_fraction = fast.stats.skipped_samples as f64 / fast.stats.samples as f64;
    let naive_rate = samples as f64 / naive.best;
    let fast_rate = samples as f64 / fast.best;
    let speedup = fast_rate / naive_rate.max(1e-12);
    // The tentpole ratio: packet kernel vs the previous fast path, both
    // timed in this process.
    let packet_speedup = prev.best / packet.best.max(1e-12);
    let lane_utilization = packet.stats.lane_utilization().unwrap_or(0.0);

    for (k, mm) in kernels.iter().zip(&m) {
        println!(
            "  {:9}  {:8.2} ms   {:>9} samples  {:>9} skipped",
            k.name,
            mm.best * 1e3,
            mm.stats.samples,
            mm.stats.skipped_samples
        );
    }
    println!("  fast vs naive: {speedup:.2}x   packet vs prev-fast: {packet_speedup:.2}x");

    if packets_detail {
        let s = &packet.stats;
        println!("# packet kernel detail (width 8, bitwise termination)");
        println!("  packets launched     {}", s.packets);
        println!("  rays                 {}", s.rays);
        println!(
            "  eval lanes / slots   {} / {}  (utilization {:.3})",
            s.packet_eval_lanes, s.packet_eval_slots, lane_utilization
        );
        println!("  skipped samples      {}", s.skipped_samples);
        println!("  terminated rays      {}", s.terminated_rays);
    }

    // --- Bounded termination: the reported bound must hold. ----------
    let dom = BlockDomain::whole(volume.dims());
    let bounded_opts = RenderOpts::bounded(0.98);
    let (bsub, bstats) =
        render_block_with_grid(&volume, Some(&grid), &dom, &cam, &tf, &bounded_opts);
    let mut bounded_img = Image::new(256, 256);
    bounded_img.paste(&bsub);
    let bounded_dev = bounded_img.max_abs_diff(&naive.image);
    let bounded_ok = bstats.error_bound > 0.0 && bounded_dev <= bstats.error_bound as f64;

    // --- Best-case thread scaling of the packet kernel. --------------
    let (scaling_threads, scaling_speedup, scaling_efficiency) =
        best_case_scaling(&volume, &grid, &cam, &tf, &RenderOpts::default());
    println!(
        "  best-case scaling: {scaling_speedup:.2}x on {scaling_threads} threads \
         (efficiency {scaling_efficiency:.2})"
    );

    // --- End to end: a small frame, honest sparse exchange bytes. ----
    // The default config now runs the packet kernel with the bitwise
    // gate; the scalar-exact frame must match it bit for bit.
    let mut cfg = FrameConfig::small(64, 192, 8);
    cfg.variable = 2;
    let frame_fast = run_frame(&cfg, None);
    let mut cfg_exact = cfg;
    cfg_exact.packet_width = 1;
    cfg_exact.termination = Termination::Off;
    let frame_exact = run_frame(&cfg_exact, None);
    let mut cfg_naive = cfg;
    cfg_naive.fast_path = false;
    cfg_naive.packet_width = 1;
    cfg_naive.termination = Termination::Off;
    let frame_naive = run_frame(&cfg_naive, None);
    let bit_identical_frame = bits_equal(&frame_naive.image, &frame_fast.image)
        && bits_equal(&frame_naive.image, &frame_exact.image);
    let comp = &frame_fast.composite;

    // A bounded-mode frame must report a nonzero bound that covers its
    // actual deviation from the exact frame. The threshold is low:
    // blocks here are 32^3, so per-block ray segments accumulate far
    // less opacity than the 128^3 kernel bench above.
    let mut cfg_bounded = cfg;
    cfg_bounded.termination = Termination::Bounded { alpha: 0.35 };
    let frame_bounded = run_frame(&cfg_bounded, None);
    let frame_bounded_dev = frame_bounded.image.max_abs_diff(&frame_exact.image);
    let frame_bounded_ok = frame_bounded.render_error_bound > 0.0
        && frame_bounded_dev <= frame_bounded.render_error_bound;

    // --- Metrics through the observability registry. ------------------
    let reg = Registry::new();
    reg.counter_add("render.samples", "block", fast.stats.samples);
    reg.counter_add("render.skip", "block", fast.stats.skipped_samples);
    reg.counter_add("render.packets", "block", packet.stats.packets);
    reg.counter_add("render.eval_lanes", "block", packet.stats.packet_eval_lanes);
    reg.counter_add("render.eval_slots", "block", packet.stats.packet_eval_slots);
    reg.counter_add("render.terminated", "block", packet.stats.terminated_rays);
    reg.counter_add("render.skip", "frame", frame_fast.render_skipped);
    reg.counter_add("render.packets", "frame", frame_fast.render_packets);
    reg.counter_add("composite.sparse_bytes", "frame", comp.bytes);
    reg.counter_add("composite.dense_bytes", "frame", comp.dense_bytes);
    print!("{}", reg.snapshot().to_text());

    let mut csv = CsvOut::create(
        "render_bench",
        "kernel,secs,samples,skipped,samples_per_sec",
    );
    for (k, mm) in kernels.iter().zip(&m) {
        csv.row(&format!(
            "{},{:.6},{},{},{:.0}",
            k.name,
            mm.best,
            mm.stats.samples,
            mm.stats.skipped_samples,
            mm.stats.samples as f64 / mm.best
        ));
    }

    // The trajectory artifact: every deterministic count is an exact
    // gate, in-process timing ratios ride wide relative bands (the same
    // machine run-to-run, not cross-machine), wall-clock is info-only.
    let mut traj = Trajectory::new("render");
    traj.exact("block", BLOCK as f64)
        .exact("samples", samples as f64)
        .exact("skipped_samples", fast.stats.skipped_samples as f64)
        .exact("bit_identical_kernel", bit_identical_kernel as u8 as f64)
        .exact("bit_identical_packet", bit_identical_packet as u8 as f64)
        .exact("bit_identical_frame", bit_identical_frame as u8 as f64)
        .exact("packet_packets", packet.stats.packets as f64)
        .exact("packet_eval_lanes", packet.stats.packet_eval_lanes as f64)
        .exact("packet_eval_slots", packet.stats.packet_eval_slots as f64)
        .exact(
            "packet_skipped_samples",
            packet.stats.skipped_samples as f64,
        )
        .exact(
            "packet_terminated_rays",
            packet.stats.terminated_rays as f64,
        )
        .exact("bounded_error_within_bound", bounded_ok as u8 as f64)
        .exact(
            "frame_bounded_error_within_bound",
            frame_bounded_ok as u8 as f64,
        )
        .exact("frame_render_samples", frame_fast.render_samples as f64)
        .exact("frame_render_skipped", frame_fast.render_skipped as f64)
        .exact("frame_render_packets", frame_fast.render_packets as f64)
        .exact("frame_composite_bytes", comp.bytes as f64)
        .exact("frame_composite_dense_bytes", comp.dense_bytes as f64)
        .exact("frame_sparse_messages", comp.sparse_messages as f64)
        .exact("frame_messages", comp.messages as f64)
        .rel("skip_fraction", skip_fraction, 0.01)
        .rel("lane_utilization", lane_utilization, 0.02)
        .rel("packet_speedup", packet_speedup, 0.5)
        .info("iters", iters as f64)
        .info("naive_secs", naive.best)
        .info("fast_secs", fast.best)
        .info("prev_fast_secs", prev.best)
        .info("packet_secs", packet.best)
        .info("naive_samples_per_sec", naive_rate)
        .info("fast_samples_per_sec", fast_rate)
        .info("speedup", speedup)
        .info("macrocell_build_ns_per_voxel", build_ns_per_voxel)
        .info("bounded_error_bound", bstats.error_bound as f64)
        .info("scaling_threads", scaling_threads as f64)
        .info("scaling_speedup", scaling_speedup)
        .info("scaling_efficiency", scaling_efficiency)
        .table(
            "kernels",
            &["kernel", "secs", "samples", "skipped"],
            kernels
                .iter()
                .zip(&m)
                .map(|(k, mm)| {
                    vec![
                        k.name.into(),
                        format!("{:.6}", mm.best),
                        mm.stats.samples.to_string(),
                        mm.stats.skipped_samples.to_string(),
                    ]
                })
                .collect(),
        );
    write_trajectory(&traj);

    // --- Gates. -------------------------------------------------------
    check(
        "fast path is bit-identical to the naive kernel",
        bit_identical_kernel,
        "256^2 pixels compared bitwise",
    );
    check(
        "packet kernel (width 8, bitwise gate) is bit-identical",
        bit_identical_packet,
        "256^2 pixels compared bitwise, prev-fast included",
    );
    check(
        "fast path is bit-identical end to end (packet, scalar, naive)",
        bit_identical_frame,
        "192^2 pixels compared bitwise",
    );
    check(
        "macrocell/LUT classification skips work",
        skip_fraction > 0.0,
        &format!("{:.1}% of samples skipped", 100.0 * skip_fraction),
    );
    check(
        "packet kernel keeps lanes busy",
        lane_utilization > 0.5,
        &format!("utilization {lane_utilization:.3}"),
    );
    check(
        "bounded termination honors its reported error bound (block)",
        bounded_ok,
        &format!(
            "max deviation {bounded_dev:.3e} <= bound {:.3e}",
            bstats.error_bound
        ),
    );
    check(
        "bounded termination honors its reported error bound (frame)",
        frame_bounded_ok,
        &format!(
            "max deviation {frame_bounded_dev:.3e} <= bound {:.3e}",
            frame_bounded.render_error_bound
        ),
    );
    check(
        "sparse exchange ships fewer bytes than dense",
        comp.bytes < comp.dense_bytes,
        &format!(
            "{} sparse vs {} dense ({} of {} messages sparse)",
            comp.bytes, comp.dense_bytes, comp.sparse_messages, comp.messages
        ),
    );
    // The measured in-process ratio lands around 1.8x on the reference
    // machine (recorded honestly in the trajectory); the hard floor is
    // set below that so machine noise cannot flake the job while a real
    // regression to pre-packet throughput still fails it.
    check(
        "packet kernel beats the previous fast path by 1.4x+",
        packet_speedup >= 1.4,
        &format!("{packet_speedup:.2}x measured (target 2x)"),
    );

    // Correctness gates are hard failures everywhere; the speedup floor
    // gates too (it is an in-process ratio, not a wall clock). Absolute
    // throughput and scaling are machine-dependent and only reported.
    let ok = bit_identical_kernel
        && bit_identical_packet
        && bit_identical_frame
        && skip_fraction > 0.0
        && lane_utilization > 0.5
        && bounded_ok
        && frame_bounded_ok
        && packet_speedup >= 1.4
        && comp.bytes < comp.dense_bytes;
    if !ok {
        std::process::exit(1);
    }
}

//! Real end-to-end execution at laptop scale: the frame entry points and
//! the building blocks the stage executors share.
//!
//! Every frame runs through [`crate::scheduler::drive_frame`]; the five
//! functions here are one-call shorthands for the drivers callers need
//! most:
//!
//! * [`run_frame`] / [`run_frame_traced`] — data-parallel (rayon): ranks
//!   are logical; the two-phase collective read hits a real file, blocks
//!   render in parallel, direct-send compositing reduces the subimages.
//! * [`run_frame_mpi`] / [`run_frame_mpi_sim`] — message-passing
//!   (`pvr-mpisim`): ranks are threads exchanging real byte messages for
//!   both the I/O scatter phase and the compositing fragments. Produces
//!   a bit-identical image to [`run_frame`] (asserted by integration
//!   tests), because both blend the same fragments in the same
//!   visibility order.
//! * [`run_frame_mpi_profiled`] — two message-passing passes, the second
//!   replaying the first's canonical match order, for byte-reproducible
//!   profiles.
//!
//! Fault plans, flight recorders and traced runtime options go straight
//! to [`crate::scheduler::drive_frame`]. This module also keeps the
//! shared geometry, dataset synthesis, read stage, fragment wire format
//! and tags.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rayon::prelude::*;

use pvr_compositing::directsend::DirectSendStats;
use pvr_formats::layout::FileLayout;
use pvr_formats::rw::{read_runs, write_file};
use pvr_formats::{Subvolume, ELEM_SIZE};
use pvr_obs::Tracer;
use pvr_pfs::sieve::per_extent_plan;
use pvr_pfs::twophase::{two_phase_execute_traced, RankRequest};
use pvr_pfs::IoThrottle;
use pvr_render::image::{Image, SubImage};
use pvr_render::math::Vec3;
use pvr_render::raycast::{RenderOpts, RenderStats, Shading};
use pvr_render::TransferFunction;
use pvr_volume::{BlockDecomposition, SupernovaField, Volume};

use crate::config::{FrameConfig, IoMode};
use crate::ft::FtError;
use crate::scheduler::{drive_frame, DriveOutput, Driver, ExecChoice, LinkMode};
use crate::timing::FrameTiming;

/// The default viewing direction for all experiments: a mildly oblique
/// orthographic view so block footprints genuinely straddle compositor
/// tiles (an exactly axis-aligned view would make footprints align with
/// tile boundaries and understate message counts).
pub fn default_view() -> Vec3 {
    Vec3::new(0.25, -0.2, -0.95)
}

/// I/O statistics of one real frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoRunStats {
    pub useful_bytes: u64,
    pub physical_bytes: u64,
    pub accesses: usize,
    pub exchange_bytes: u64,
    /// useful / physical — the paper's data density.
    pub data_density: f64,
    /// Storage retries against faulted servers (fault-tolerant path).
    pub retries: u64,
    /// Extra bytes read from stripe replicas after primary failures.
    pub failover_bytes: u64,
    /// Requested bytes no server could provide (zero-filled in the
    /// output buffers).
    pub unrecovered_bytes: u64,
}

impl Default for IoRunStats {
    fn default() -> Self {
        IoRunStats {
            useful_bytes: 0,
            physical_bytes: 0,
            accesses: 0,
            exchange_bytes: 0,
            data_density: 1.0,
            retries: 0,
            failover_bytes: 0,
            unrecovered_bytes: 0,
        }
    }
}

/// Everything a real frame produces.
#[derive(Debug)]
pub struct FrameResult {
    pub image: Image,
    pub timing: FrameTiming,
    pub io: IoRunStats,
    /// Render-kernel statistics merged over ranks: samples, fast-path
    /// skips, packets and lane utilization, early terminations, and the
    /// largest [`pvr_render::raycast::Termination::Bounded`] error bound.
    pub render: RenderStats,
    pub composite: DirectSendStats,
}

/// Materialize the synthetic supernova dataset at `cfg.grid` resolution
/// in the on-disk format of `cfg.io`. Returns bytes written.
///
/// The file is written under a temporary name in the same directory and
/// renamed into place, so a concurrent reader of `path` sees either no
/// file or the complete one, never a partial write.
pub fn write_dataset(path: &Path, cfg: &FrameConfig) -> std::io::Result<u64> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".{}-{}.partial",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    let written = write_dataset_to(&tmp, cfg).and_then(|n| std::fs::rename(&tmp, path).map(|()| n));
    if written.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    written
}

/// The dataset `cfg` describes, written once per process as `name`
/// under the system temp directory and reused by later calls. Safe from
/// concurrent threads: racing first calls each write a complete file
/// through [`write_dataset`], and the last rename wins.
pub fn shared_dataset(name: &str, cfg: &FrameConfig) -> std::io::Result<PathBuf> {
    let dir = std::env::temp_dir().join(format!("pvr-datasets-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    if !path.exists() {
        write_dataset(&path, cfg)?;
    }
    Ok(path)
}

fn write_dataset_to(path: &Path, cfg: &FrameConfig) -> std::io::Result<u64> {
    let layout = cfg.io.layout(cfg.grid);
    let field = SupernovaField::new(cfg.seed);
    let [nx, ny, nz] = cfg.grid;
    // Raw mode stores the render variable extracted offline; the
    // multivariate formats store all five VH-1 variables.
    let render_var = cfg.variable;
    write_file(path, layout.as_ref(), |var, x, y, z| {
        let v = if cfg.io == IoMode::Raw {
            render_var
        } else {
            var
        };
        field.sample_var(
            v,
            (x as f32 + 0.5) / nx as f32,
            (y as f32 + 0.5) / ny as f32,
            (z as f32 + 0.5) / nz as f32,
        )
    })
}

/// Per-rank read geometry for one frame.
pub(crate) struct RankGeometry {
    /// Stored (ghost-extended) region per rank.
    pub(crate) stored: Vec<Subvolume>,
    /// Owned region per rank.
    pub(crate) owned: Vec<Subvolume>,
}

pub(crate) fn geometry(cfg: &FrameConfig) -> RankGeometry {
    let decomp = BlockDecomposition::new(cfg.grid, cfg.nprocs);
    let blocks = decomp.blocks();
    // Gradient shading probes one cell around each sample, so it needs
    // a second ghost layer for exact serial equivalence.
    let ghost = if cfg.shading { 2 } else { 1 };
    let stored = blocks.iter().map(|b| decomp.with_ghost(b, ghost)).collect();
    let owned = blocks.iter().map(|b| b.sub).collect();
    RankGeometry { stored, owned }
}

pub(crate) fn rank_requests(
    layout: &dyn FileLayout,
    var: usize,
    stored: &[Subvolume],
) -> Vec<RankRequest> {
    stored
        .iter()
        .map(|sub| {
            let mut runs = Vec::new();
            layout.placed_runs(var, sub, &mut |r| runs.push(r));
            RankRequest {
                runs,
                out_elems: sub.num_elements(),
            }
        })
        .collect()
}

/// Decode a rank's raw bytes (on-disk order per placed runs) into a
/// volume over its stored region.
pub(crate) fn decode_volume(bytes: &[u8], sub: &Subvolume, endian: pvr_formats::Endian) -> Volume {
    let mut data = vec![0.0f32; sub.num_elements()];
    for (i, c) in bytes.chunks_exact(4).enumerate() {
        data[i] = endian.decode([c[0], c[1], c[2], c[3]]);
    }
    Volume::from_data(sub.shape, data)
}

/// Aggregator count used by the laptop-scale runs (re-exported from
/// [`crate::roles`], the single home of role-placement formulas).
pub use crate::roles::laptop_aggregators;

/// Run one frame for real (rayon executor). When `path` is `None`, the
/// I/O stage synthesizes block data procedurally instead of reading a
/// file (useful for render/composite-only experiments; I/O stats are
/// then zero).
///
/// Kept as the plain entry point of the paper's first executor; it
/// panics, in the caller's thread, when the dataset cannot be read
/// (`drive_frame` returns that as [`FtError::Io`]).
pub fn run_frame(cfg: &FrameConfig, path: Option<&Path>) -> FrameResult {
    run_frame_traced(cfg, path, &Tracer::disabled())
}

/// [`run_frame`] with wall-clock span tracing. Track `r` is logical
/// rank `r`; the driver's stage structure (`frame` > `io` / `render` /
/// `composite`) lands on track 0, per-window `io.window` spans on the
/// aggregator tracks, per-block `render.block` spans on each renderer's
/// track, and per-tile `composite.tile` spans on each compositor's
/// track. Collect the result with [`Tracer::finish`] and export with
/// [`pvr_obs::perfetto::to_json`]. A disabled tracer makes this
/// identical to [`run_frame`]. Kept because tracing is the rayon
/// executor's own axis and the repository benchmark links against this
/// signature.
pub fn run_frame_traced(cfg: &FrameConfig, path: Option<&Path>, tracer: &Tracer) -> FrameResult {
    let driver = Driver {
        exec: ExecChoice::Rayon { tracer },
        links: LinkMode::Direct,
        flight: pvr_obs::FlightRecorder::disabled(),
    };
    drive_frame(cfg, path, driver)
        .unwrap_or_else(|e| panic!("rayon frame failed: {e}"))
        .frame
}

/// Render options for a config.
pub fn render_opts(cfg: &FrameConfig) -> RenderOpts {
    RenderOpts {
        step: cfg.step,
        shading: cfg.shading.then(Shading::default),
        fast_path: cfg.fast_path,
        packet_width: cfg.packet_width,
        termination: cfg.termination,
    }
}

/// The transfer function for a config's variable.
pub fn transfer_for(cfg: &FrameConfig) -> TransferFunction {
    match cfg.variable {
        0 | 1 => TransferFunction::hot_density(),
        _ => TransferFunction::supernova_velocity(),
    }
}

pub(crate) fn synthesize_stage(cfg: &FrameConfig, geo: &RankGeometry) -> Vec<Volume> {
    let field = SupernovaField::new(cfg.seed).variable(cfg.variable);
    geo.stored
        .par_iter()
        .map(|sub| Volume::from_field_window(&field, cfg.grid, sub.offset, sub.shape))
        .collect()
}

/// I/O statistics of a two-phase collective read.
fn collective_stats(res: &pvr_pfs::twophase::ExecResult) -> IoRunStats {
    IoRunStats {
        useful_bytes: res.plan.useful_bytes,
        physical_bytes: res.plan.physical_bytes,
        accesses: res.plan.accesses.len(),
        exchange_bytes: res.exchange_bytes,
        data_density: res.plan.data_density(),
        ..Default::default()
    }
}

/// Per-rank physical extents and the I/O statistics of HDF5-style
/// independent reads: every rank fetches the whole chunks its block
/// overlaps (no coordination).
fn independent_plan(
    layout: &dyn FileLayout,
    var: usize,
    stored: &[Subvolume],
    requests: &[RankRequest],
) -> (Vec<Vec<pvr_formats::Extent>>, IoRunStats) {
    let per_process: Vec<Vec<pvr_formats::Extent>> = stored
        .iter()
        .map(|sub| layout.physical_extents(var, sub))
        .collect();
    let plan = per_extent_plan(&per_process);
    let useful: u64 = requests.iter().map(|r| r.useful_bytes()).sum();
    let stats = IoRunStats {
        useful_bytes: useful,
        physical_bytes: plan.physical_bytes,
        accesses: plan.accesses.len(),
        exchange_bytes: 0,
        data_density: useful as f64 / plan.physical_bytes.max(1) as f64,
        ..Default::default()
    };
    (per_process, stats)
}

/// Decode per-rank on-disk-order byte buffers into volumes.
pub(crate) fn decode_rank_bytes(
    cfg: &FrameConfig,
    geo: &RankGeometry,
    bytes: &[Vec<u8>],
) -> Vec<Volume> {
    let layout = cfg.io.layout(cfg.grid);
    bytes
        .par_iter()
        .zip(&geo.stored)
        .map(|(b, sub)| decode_volume(b, sub, layout.endian()))
        .collect()
}

pub(crate) fn read_stage(
    cfg: &FrameConfig,
    geo: &RankGeometry,
    path: &Path,
    tracer: &Tracer,
) -> std::io::Result<(Vec<Volume>, IoRunStats)> {
    let layout = cfg.io.layout(cfg.grid);
    let var = cfg.file_variable();
    let requests = rank_requests(layout.as_ref(), var, &geo.stored);

    if layout.collective() {
        let hints = cfg.io.hints(cfg.grid);
        let naggr = laptop_aggregators(cfg.nprocs);
        let mut f = File::open(path)?;
        let res = two_phase_execute_traced(&mut f, &requests, naggr, &hints, tracer)?;
        Ok((
            decode_rank_bytes(cfg, geo, &res.rank_bytes),
            collective_stats(&res),
        ))
    } else {
        let (_, stats) = independent_plan(layout.as_ref(), var, &geo.stored, &requests);
        let volumes = geo
            .stored
            .par_iter()
            .map(|sub| {
                let mut f = File::open(path)?;
                let data = pvr_formats::read_subvolume(&mut f, layout.as_ref(), var, sub)?;
                Ok(Volume::from_data(sub.shape, data))
            })
            .collect::<std::io::Result<Vec<Volume>>>()?;
        Ok((volumes, stats))
    }
}

/// Read one frame's per-rank byte buffers (on-disk order per placed
/// runs) without decoding them into volumes — the form a prefetch
/// thread hands to a later frame. An optional [`IoThrottle`] floors the
/// read at a bandwidth, making I/O genuinely expensive for pipelining
/// experiments.
pub(crate) fn read_frame_bytes(
    cfg: &FrameConfig,
    path: &Path,
    throttle: Option<IoThrottle>,
) -> std::io::Result<(Vec<Vec<u8>>, IoRunStats)> {
    let layout = cfg.io.layout(cfg.grid);
    let var = cfg.file_variable();
    let geo = geometry(cfg);
    let requests = rank_requests(layout.as_ref(), var, &geo.stored);
    let t0 = Instant::now();

    if layout.collective() {
        let hints = cfg.io.hints(cfg.grid);
        let naggr = laptop_aggregators(cfg.nprocs);
        let mut f = File::open(path)?;
        let disabled = Tracer::disabled();
        let res = two_phase_execute_traced(&mut f, &requests, naggr, &hints, &disabled)?;
        let stats = collective_stats(&res);
        if let Some(t) = throttle {
            t.pad(stats.physical_bytes, t0);
        }
        Ok((res.rank_bytes, stats))
    } else {
        let (per_process, stats) = independent_plan(layout.as_ref(), var, &geo.stored, &requests);
        let mut f = File::open(path)?;
        let mut bytes = Vec::with_capacity(requests.len());
        for (rq, extents) in requests.iter().zip(&per_process) {
            let mut out = vec![0u8; rq.out_elems * ELEM_SIZE as usize];
            read_runs(&mut f, &rq.runs, extents, |run, b| {
                out[run.out_start * 4..][..b.len()].copy_from_slice(b)
            })?;
            bytes.push(out);
        }
        if let Some(t) = throttle {
            t.pad(stats.useful_bytes, t0);
        }
        Ok((bytes, stats))
    }
}

// ---------------------------------------------------------------------
// Message-passing executor
// ---------------------------------------------------------------------

/// Tags for the message-passing frame. Public so `pvr-verify`'s tag
/// discipline checks can assert that distinct pipeline stages never
/// share a tag (wildcard receives on one stage must not be able to
/// match another stage's traffic).
pub mod tags {
    pub const IO_SCATTER: u32 = 1;
    pub const FRAGMENT: u32 = 2;
    pub const TILE: u32 = 3;
    /// Ack tags of the fault-tolerant executor (`crate::ft`): each data
    /// stage has a dedicated ack channel so wildcard receives on data
    /// tags can never match acknowledgement traffic.
    pub const IO_ACK: u32 = 4;
    pub const FRAG_ACK: u32 = 5;
    pub const TILE_ACK: u32 = 6;
    /// Recovery-orchestrator tags (`crate::scheduler`): an adoption
    /// request asking a survivor to re-render a dead rank's block, the
    /// late fragment it ships back, the shared ack channel for both,
    /// and the frame-complete broadcast that releases lingering
    /// adopters.
    pub const ADOPT: u32 = 7;
    pub const LATE: u32 = 8;
    pub const REC_ACK: u32 = 9;
    pub const DONE: u32 = 10;

    /// All stage tags, for exhaustive discipline checks.
    pub const ALL: [(u32, &str); 10] = [
        (IO_SCATTER, "io-scatter"),
        (FRAGMENT, "fragment"),
        (TILE, "tile"),
        (IO_ACK, "io-ack"),
        (FRAG_ACK, "fragment-ack"),
        (TILE_ACK, "tile-ack"),
        (ADOPT, "adopt"),
        (LATE, "late"),
        (REC_ACK, "recovery-ack"),
        (DONE, "done"),
    ];
}

/// Serialize a subimage fragment: renderer id, rect, depth, pixels.
/// Fragment wire format tags: dense rows vs run-length sparse spans.
const FRAG_DENSE: u64 = 0;
const FRAG_SPARSE: u64 = 1;

/// Encode a fragment for the message-passing exchange, choosing dense
/// or sparse (run-length spans of non-transparent pixels, see
/// [`pvr_compositing::sparse`]) per fragment by actual encoded size.
/// The sparse body round-trips bit-identically: elided pixels decode to
/// `[0.0; 4]`, which is what they were.
pub(crate) fn encode_fragment(renderer: usize, s: &SubImage) -> Vec<u8> {
    let sparse = pvr_compositing::SparseSubImage::encode(s);
    let dense_body = s.pixels.len() * 16;
    // Real encoded body sizes: per row a span count, per span a start
    // offset + length, per kept pixel four f32s.
    let sparse_body = s.rect.h * 8 + sparse.num_spans() * 16 + sparse.payload_pixels() * 16;

    let mut out = Vec::with_capacity(56 + dense_body.min(sparse_body));
    out.extend((renderer as u64).to_le_bytes());
    out.extend((s.rect.x0 as u64).to_le_bytes());
    out.extend((s.rect.y0 as u64).to_le_bytes());
    out.extend((s.rect.w as u64).to_le_bytes());
    out.extend((s.rect.h as u64).to_le_bytes());
    out.extend(s.depth.to_le_bytes());
    if sparse_body < dense_body {
        out.extend(FRAG_SPARSE.to_le_bytes());
        for row in &sparse.rows {
            out.extend((row.len() as u64).to_le_bytes());
            for span in row {
                out.extend((span.x0 as u64).to_le_bytes());
                out.extend((span.pixels.len() as u64).to_le_bytes());
                for p in &span.pixels {
                    for c in p {
                        out.extend(c.to_le_bytes());
                    }
                }
            }
        }
    } else {
        out.extend(FRAG_DENSE.to_le_bytes());
        for p in &s.pixels {
            for c in p {
                out.extend(c.to_le_bytes());
            }
        }
    }
    out
}

pub(crate) fn decode_fragment(data: &[u8]) -> (usize, SubImage) {
    let u = |i: usize| u64::from_le_bytes(data[i * 8..i * 8 + 8].try_into().unwrap()) as usize;
    let renderer = u(0);
    let rect = pvr_render::image::PixelRect::new(u(1), u(2), u(3), u(4));
    let depth = f64::from_le_bytes(data[40..48].try_into().unwrap());
    let tag = u(6) as u64;
    let body = &data[56..];
    let pix = |q: &[u8]| -> [f32; 4] {
        [
            f32::from_le_bytes(q[0..4].try_into().unwrap()),
            f32::from_le_bytes(q[4..8].try_into().unwrap()),
            f32::from_le_bytes(q[8..12].try_into().unwrap()),
            f32::from_le_bytes(q[12..16].try_into().unwrap()),
        ]
    };
    let pixels = match tag {
        FRAG_DENSE => body.chunks_exact(16).map(pix).collect(),
        FRAG_SPARSE => {
            let mut pixels = vec![[0.0f32; 4]; rect.num_pixels()];
            let mut off = 0usize;
            let word =
                |off: usize| u64::from_le_bytes(body[off..off + 8].try_into().unwrap()) as usize;
            for y in 0..rect.h {
                let nspans = word(off);
                off += 8;
                for _ in 0..nspans {
                    let x0 = word(off);
                    let len = word(off + 8);
                    off += 16;
                    for k in 0..len {
                        pixels[y * rect.w + x0 + k] = pix(&body[off..off + 16]);
                        off += 16;
                    }
                }
            }
            pixels
        }
        t => panic!("unknown fragment format tag {t}"),
    };
    (
        renderer,
        SubImage {
            rect,
            pixels,
            depth,
        },
    )
}

/// A plain frame on the message-passing executor.
fn mpi_frame(
    cfg: &FrameConfig,
    path: &Path,
    opts: pvr_mpisim::RunOptions,
) -> Result<DriveOutput, pvr_mpisim::RunError> {
    let driver = Driver {
        exec: ExecChoice::Mpi { opts },
        links: LinkMode::Direct,
        flight: pvr_obs::FlightRecorder::disabled(),
    };
    drive_frame(cfg, Some(path), driver).map_err(|e| match e {
        FtError::Runtime(e) => e,
        e => unreachable!("plain mpi frames fail only at runtime: {e}"),
    })
}

/// Run one frame over real message passing (one thread per rank).
/// Requires a dataset file. Returns rank 0's result; the image is
/// identical to [`run_frame`]'s. Kept as the plain entry point of the
/// paper's second executor; a runtime failure panics.
pub fn run_frame_mpi(cfg: &FrameConfig, path: &Path) -> FrameResult {
    mpi_frame(cfg, path, pvr_mpisim::RunOptions::default())
        .unwrap_or_else(|e| panic!("mpi frame failed: {e}"))
        .frame
}

/// [`run_frame_mpi`] with explicit runtime options that also surfaces
/// the discrete-event scheduler's counters (polls, messages, timer
/// fires, virtual time, peak resident tasks, wall time) — the scale
/// sweeps and `bench_sim` read these to report events/sec at 32K ranks.
/// Kept because the repository benchmark links against this signature.
pub fn run_frame_mpi_sim(
    cfg: &FrameConfig,
    path: &Path,
    opts: pvr_mpisim::RunOptions,
) -> Result<(FrameResult, Option<pvr_mpisim::SimStats>), pvr_mpisim::RunError> {
    mpi_frame(cfg, path, opts).map(|out| (out.frame, out.sim))
}

/// One fully profiled message-passing frame: the rendered frame, the
/// message trace it ran under, and the span/metric profile derived from
/// that trace.
pub struct ProfiledFrame {
    pub frame: FrameResult,
    pub trace: pvr_mpisim::trace::TraceLog,
    pub profile: pvr_obs::Profile,
}

/// Run one traced frame twice: pass 1 records the actual wildcard match
/// order, pass 2 replays its canonicalized form. The second trace is
/// therefore a deterministic function of the configuration alone —
/// thread scheduling perturbs pass 1 but the canonical replay log maps
/// every schedule in the same equivalence class to one representative,
/// so exporters downstream are byte-for-byte reproducible. An algorithm
/// of its own (two driven frames), not a shorthand.
pub fn run_frame_mpi_profiled(
    cfg: &FrameConfig,
    path: &Path,
) -> Result<ProfiledFrame, pvr_mpisim::RunError> {
    use std::sync::Arc;
    let first = mpi_frame(cfg, path, pvr_mpisim::RunOptions::default().traced())?;
    let replay = Arc::new(pvr_mpisim::trace::ReplayLog::canonical(
        &first.trace.expect("traced run yields a trace"),
    ));
    let out = mpi_frame(
        cfg,
        path,
        pvr_mpisim::RunOptions::default()
            .traced()
            .policy(pvr_mpisim::MatchPolicy::Replay(replay)),
    )?;
    let frame = out.frame;
    let trace = out.trace.expect("traced run yields a trace");
    let profile = pvr_obs::profile_from_trace(&trace);
    Ok(ProfiledFrame {
        frame,
        trace,
        profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompositorPolicy;

    fn tmp(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("pvr-core-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d.join(name)
    }

    #[test]
    fn frame_from_file_matches_synthetic_frame() {
        // Reading the written dataset must give the same image as
        // sampling the field directly (same bytes -> same volumes).
        let mut cfg = FrameConfig::small(24, 32, 8);
        cfg.variable = 2;
        let p = tmp("match.raw");
        write_dataset(&p, &cfg).unwrap();
        let from_file = run_frame(&cfg, Some(&p));
        let synthetic = run_frame(&cfg, None);
        let d = from_file.image.max_abs_diff(&synthetic.image);
        assert!(d < 1e-6, "diff {d}");
        assert!(from_file.io.useful_bytes > 0);
        assert!(
            (from_file.io.data_density - 1.0).abs() < 1e-9,
            "raw density"
        );
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn all_io_modes_produce_the_same_image() {
        let mut base = FrameConfig::small(20, 24, 4);
        base.variable = 2;
        let mut reference: Option<Image> = None;
        for mode in IoMode::ALL {
            let mut cfg = base;
            cfg.io = mode;
            let p = tmp(&format!("mode.{}", mode.name()));
            write_dataset(&p, &cfg).unwrap();
            let res = run_frame(&cfg, Some(&p));
            match &reference {
                None => reference = Some(res.image),
                Some(r) => {
                    // netCDF stores big-endian f32: exact round trip.
                    let d = res.image.max_abs_diff(r);
                    assert!(d < 1e-6, "{}: diff {d}", mode.name());
                }
            }
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn io_mode_densities_are_ordered_like_figure_10() {
        let mut cfg = FrameConfig::small(32, 16, 8);
        cfg.variable = 2;
        let mut density = std::collections::HashMap::new();
        for mode in IoMode::ALL {
            let mut c = cfg;
            c.io = mode;
            let p = tmp(&format!("dens.{}", mode.name()));
            write_dataset(&p, &c).unwrap();
            let res = run_frame(&c, Some(&p));
            density.insert(mode, res.io.data_density);
            std::fs::remove_file(&p).ok();
        }
        // raw ~ 1; untuned netCDF worst; tuned strictly better than
        // untuned; netcdf-64 near raw.
        assert!(density[&IoMode::Raw] > 0.99);
        assert!(density[&IoMode::NetCdf64] > 0.9);
        assert!(density[&IoMode::NetCdfUntuned] < 0.35);
        assert!(density[&IoMode::NetCdfTuned] > density[&IoMode::NetCdfUntuned]);
        assert!(density[&IoMode::Hdf5] < 1.0 && density[&IoMode::Hdf5] > 0.3);
    }

    #[test]
    fn compositor_policy_does_not_change_the_image() {
        let mut cfg = FrameConfig::small(24, 40, 16);
        cfg.variable = 2;
        let a = run_frame(&cfg, None);
        cfg.policy = CompositorPolicy::Fixed(3);
        let b = run_frame(&cfg, None);
        let d = a.image.max_abs_diff(&b.image);
        assert!(d < 1e-5, "diff {d}");
        assert!(b.composite.messages <= a.composite.messages);
    }

    #[test]
    fn mpi_frame_matches_rayon_frame() {
        let mut cfg = FrameConfig::small(20, 24, 8);
        cfg.variable = 2;
        cfg.policy = CompositorPolicy::Fixed(4);
        let p = tmp("mpi.raw");
        write_dataset(&p, &cfg).unwrap();
        let rayon_res = run_frame(&cfg, Some(&p));
        let mpi_res = run_frame_mpi(&cfg, &p);
        let d = mpi_res.image.max_abs_diff(&rayon_res.image);
        assert!(d < 1e-6, "diff {d}");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn mpi_frame_matches_for_netcdf_collective_path() {
        let mut cfg = FrameConfig::small(16, 20, 6);
        cfg.variable = 3;
        cfg.io = IoMode::NetCdfTuned;
        let p = tmp("mpi.nc");
        write_dataset(&p, &cfg).unwrap();
        let rayon_res = run_frame(&cfg, Some(&p));
        let mpi_res = run_frame_mpi(&cfg, &p);
        let d = mpi_res.image.max_abs_diff(&rayon_res.image);
        assert!(d < 1e-6, "diff {d}");
        std::fs::remove_file(&p).ok();
    }

    /// HDF5 reads are independent: on the mpisim executor every rank
    /// reads its own chunk extents (`RankExec::read_runs_audited`).
    /// Edge 18 with 4-element chunks leaves padded edge chunks.
    #[test]
    fn mpi_frame_matches_for_hdf5_independent_path() {
        let mut cfg = FrameConfig::small(18, 20, 6);
        cfg.variable = 2;
        cfg.io = IoMode::Hdf5;
        let p = tmp("mpi.h5");
        write_dataset(&p, &cfg).unwrap();
        let rayon_res = run_frame(&cfg, Some(&p));
        let mpi_res = run_frame_mpi(&cfg, &p);
        assert_eq!(mpi_res.image.pixels(), rayon_res.image.pixels());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn truncated_hdf5_file_is_a_typed_short_read() {
        let mut cfg = FrameConfig::small(16, 16, 4);
        cfg.io = IoMode::Hdf5;
        let p = tmp("trunc.h5");
        let len = write_dataset(&p, &cfg).unwrap();
        // Cut the file inside the render variable's last chunk row.
        let layout = cfg.io.layout(cfg.grid);
        let whole = Subvolume::whole(cfg.grid);
        let last = *layout
            .physical_extents(cfg.file_variable(), &whole)
            .last()
            .unwrap();
        let cut = last.offset + last.len / 2;
        assert!(cut < len);
        std::fs::OpenOptions::new()
            .write(true)
            .open(&p)
            .unwrap()
            .set_len(cut)
            .unwrap();

        let err = read_frame_bytes(&cfg, &p, None).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        let mut f = File::open(&p).unwrap();
        let err = pvr_formats::read_subvolume(&mut f, layout.as_ref(), cfg.file_variable(), &whole)
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        std::fs::remove_file(&p).ok();
    }

    /// The error kind a rayon frame over `p` fails with, healthy and
    /// under a (no-op) fault plan.
    fn rayon_read_error_kinds(cfg: &FrameConfig, p: &Path) -> Vec<std::io::ErrorKind> {
        let policy = pvr_faults::RecoveryPolicy::fast_test();
        let reliable = LinkMode::reliable(
            pvr_faults::FaultPlan::none(),
            policy,
            crate::ft::laptop_store(),
        );
        [LinkMode::Direct, reliable]
            .into_iter()
            .map(|links| {
                let tracer = Tracer::disabled();
                let driver = Driver {
                    exec: ExecChoice::Rayon { tracer: &tracer },
                    links,
                    flight: pvr_obs::FlightRecorder::disabled(),
                };
                match drive_frame(cfg, Some(p), driver) {
                    Err(FtError::Io(e)) => e.kind(),
                    other => panic!("expected a typed read error, got {other:?}"),
                }
            })
            .collect()
    }

    /// Both read paths turn a short or missing dataset into
    /// `FtError::Io` instead of panicking inside a rayon worker: HDF5
    /// through independent chunk reads, netCDF through the two-phase
    /// window reads.
    #[test]
    fn unreadable_dataset_is_a_typed_rayon_frame_error() {
        use std::io::ErrorKind::{NotFound, UnexpectedEof};
        for (mode, name) in [
            (IoMode::Hdf5, "short.h5"),
            (IoMode::NetCdfUntuned, "short.nc"),
        ] {
            let mut cfg = FrameConfig::small(16, 16, 4);
            cfg.io = mode;
            let p = tmp(name);
            write_dataset(&p, &cfg).unwrap();
            let whole = Subvolume::whole(cfg.grid);
            let last = *cfg
                .io
                .layout(cfg.grid)
                .physical_extents(cfg.file_variable(), &whole)
                .last()
                .unwrap();
            std::fs::OpenOptions::new()
                .write(true)
                .open(&p)
                .unwrap()
                .set_len(last.offset + last.len / 2)
                .unwrap();
            assert_eq!(
                rayon_read_error_kinds(&cfg, &p),
                [UnexpectedEof; 2],
                "{name}"
            );
            std::fs::remove_file(&p).unwrap();
            assert_eq!(rayon_read_error_kinds(&cfg, &p), [NotFound; 2], "{name}");
        }
    }

    #[test]
    fn timing_stages_are_populated() {
        let cfg = FrameConfig::small(16, 16, 4);
        let res = run_frame(&cfg, None);
        assert!(res.timing.io >= 0.0);
        assert!(res.timing.render > 0.0);
        assert!(res.timing.composite > 0.0);
        assert!(res.render.samples > 0);
    }

    #[test]
    fn shaded_frame_matches_across_policies() {
        let mut cfg = FrameConfig::small(20, 24, 8);
        cfg.variable = 2;
        cfg.shading = true;
        let a = run_frame(&cfg, None);
        let mut c2 = cfg;
        c2.policy = CompositorPolicy::Fixed(3);
        let b = run_frame(&c2, None);
        let d = a.image.max_abs_diff(&b.image);
        assert!(d < 1e-5, "shaded frames differ across policies: {d}");
        // Shading changes the image versus the unshaded frame.
        let mut c3 = cfg;
        c3.shading = false;
        let c = run_frame(&c3, None);
        assert!(a.image.mean_abs_diff(&c.image) > 1e-4);
    }
}

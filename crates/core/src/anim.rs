//! Time-step animation: many frames through the one scheduler, with
//! optional double-buffered I/O prefetch.
//!
//! The paper's end-to-end data (Table II) shows I/O dominating the
//! frame at scale — ≥95% of the time the science consumer actually
//! waits. Its future-work section points at overlapping time steps:
//! while frame `t` renders and composites, frame `t+1`'s subvolumes can
//! already be streaming off the parallel file system. [`run_animation`]
//! does exactly that, on both executors, reusing the stage graph of
//! [`crate::scheduler::drive_frame`] unchanged:
//!
//! * **rayon** — one background [`Prefetch`] thread reads the next
//!   time step's file through the same two-phase plan
//!   ([`read_frame_bytes`]) while the current frame runs; the frame
//!   then starts from [`FrameInput::Prefetched`] bytes.
//! * **message passing** — *one* `pvr-mpisim` world spans the whole
//!   animation. Each rank walks the frames in order; message tags move
//!   up one [`crate::scheduler::EPOCH_STRIDE`] epoch per time step
//!   ([`FrameTags`]), so in-flight traffic of adjacent frames can never
//!   collide. The [`execute_with`] after-`Read` hook launches the next
//!   frame's window prefetch ([`read_extents`] over
//!   [`RankExec::my_window_extents`]) the moment the current read hands
//!   off — file reads only, no communication, so the protocol is
//!   untouched. The background read itself is unthrottled; the rank
//!   that consumes it pays the throttle on its simulated clock, less
//!   the time it spent since the launch (see
//!   [`PrefetchedWindows::spawned_at`]), so the overlap shows in
//!   [`AnimResult::sim_secs`], the clock that executor models.
//!
//! Memory stays bounded: at most one prefetch is in flight per rank, so
//! the animation holds at most **2×** one time step's subvolumes (the
//! live frame plus the next frame's buffers).
//!
//! Fault plans compose per frame ([`AnimFaults`]): an [`EpochInjector`]
//! routes each epoch's traffic to that frame's own `PlanInjector`, so a
//! crash while frame `t+1` is already prefetched degrades frame `t`
//! only — the prefetched bytes belong to a healthy later epoch.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use pvr_compositing::completeness::CompletenessMap;
use pvr_faults::{FaultPlan, PlanInjector, RecoveryPolicy};
use pvr_mpisim::fault::{FaultInjector, SendFate};
use pvr_obs::{Args, Tracer};
use pvr_pfs::{read_extents, IoThrottle, Prefetch, StripedStore};

use crate::config::FrameConfig;
use crate::ft::FtError;
use crate::pipeline::{read_frame_bytes, write_dataset, FrameResult};
use crate::scheduler::{
    assemble_frame, execute, execute_with, FrameInput, FramePlan, FrameTags, LinkMode,
    PrefetchedWindows, RankExec, RankOut, RayonExec, StageId,
};

/// Which executor runs the animation.
#[derive(Clone)]
pub enum AnimExecutor {
    /// Data-parallel in one address space (optionally span-traced).
    Rayon,
    /// One message-passing world across all frames, with per-frame tag
    /// epochs.
    Mpi(pvr_mpisim::RunOptions),
}

/// Per-frame fault configuration for the message-passing executor.
/// Frame `t` runs under `plans[t]`; missing entries mean a healthy
/// frame. All frames share one recovery policy and storage model.
#[derive(Debug, Clone)]
pub struct AnimFaults {
    pub plans: Vec<FaultPlan>,
    pub policy: RecoveryPolicy,
    pub store: StripedStore,
}

/// How to run an animation. Build with [`AnimOptions::rayon`] or
/// [`AnimOptions::mpi`] and chain the modifiers.
#[derive(Clone)]
pub struct AnimOptions {
    /// Prefetch frame `t+1`'s bytes while frame `t` renders and
    /// composites. Off = strictly sequential frames (the baseline the
    /// `anim_pipeline` bench compares against).
    pub pipelined: bool,
    pub executor: AnimExecutor,
    /// Bandwidth floor applied to every dataset read, live or
    /// prefetched — models the slow store that makes I/O worth hiding.
    pub throttle: Option<IoThrottle>,
    /// Per-frame fault plans (message-passing executor only; frames
    /// run the fault-tolerant link protocol when set).
    pub faults: Option<AnimFaults>,
    /// Wall-clock span tracer (rayon executor only): frame spans per
    /// rank track, prefetch reads on their own track.
    pub tracer: Tracer,
    /// Always-on flight recorder: each frame's SLO verdict, incidents,
    /// and anomaly dumps are mirrored onto it (both executors). The
    /// default disabled recorder costs nothing.
    pub flight: pvr_obs::FlightRecorder,
    /// Worker threads for the in-frame stages (decode, render,
    /// composite) on the rayon executor; `0` means one per available
    /// core. Separate from [`AnimOptions::prefetch_threads`] so the
    /// background read can never steal render cores mid-frame (and
    /// vice versa).
    pub render_threads: usize,
    /// Worker threads available to the background prefetch read on the
    /// rayon executor; `0` means one per available core.
    pub prefetch_threads: usize,
}

impl AnimOptions {
    /// Pipelined rayon animation, untraced, unthrottled.
    pub fn rayon() -> AnimOptions {
        AnimOptions {
            pipelined: true,
            executor: AnimExecutor::Rayon,
            throttle: None,
            faults: None,
            tracer: Tracer::disabled(),
            flight: pvr_obs::FlightRecorder::disabled(),
            render_threads: 0,
            prefetch_threads: 0,
        }
    }

    /// Pipelined message-passing animation with default run options.
    pub fn mpi() -> AnimOptions {
        AnimOptions {
            executor: AnimExecutor::Mpi(pvr_mpisim::RunOptions::default()),
            ..AnimOptions::rayon()
        }
    }

    /// Disable prefetching: frames run strictly back to back.
    pub fn sequential(mut self) -> AnimOptions {
        self.pipelined = false;
        self
    }

    /// Floor every read at `bytes_per_sec`.
    pub fn throttled(mut self, bytes_per_sec: f64) -> AnimOptions {
        self.throttle = Some(IoThrottle::new(bytes_per_sec));
        self
    }

    /// Run the fault-tolerant protocol with per-frame plans.
    pub fn with_faults(mut self, faults: AnimFaults) -> AnimOptions {
        self.faults = Some(faults);
        self
    }

    /// Trace the rayon executor's spans.
    pub fn traced(mut self, tracer: &Tracer) -> AnimOptions {
        self.tracer = tracer.clone();
        self
    }

    /// Mirror per-frame verdicts and anomaly dumps onto `flight`.
    pub fn with_flight(mut self, flight: &pvr_obs::FlightRecorder) -> AnimOptions {
        self.flight = flight.clone();
        self
    }

    /// Give the frame stages and the background prefetch their own
    /// worker-thread budgets (`0` = one per available core). Pool
    /// placement changes wall clock only, never pixels — the pool-split
    /// animation test pins bit-identity against the default pools.
    pub fn pools(mut self, render: usize, prefetch: usize) -> AnimOptions {
        self.render_threads = render;
        self.prefetch_threads = prefetch;
        self
    }
}

/// One finished time step.
#[derive(Debug)]
pub struct AnimFrame {
    pub result: FrameResult,
    /// Per-tile completeness (fault-tolerant runs only).
    pub completeness: Option<CompletenessMap>,
}

/// A finished animation.
#[derive(Debug)]
pub struct AnimResult {
    pub frames: Vec<AnimFrame>,
    /// True wall-clock seconds for the whole animation.
    pub wall: f64,
    /// Message-passing executor only: the latest rank's simulated clock
    /// ([`pvr_mpisim::Comm::time`]) at the end — its compute plus its
    /// virtual-time waits, throttled reads included. On the event core
    /// host wall time is simulator overhead; this is the animation time
    /// the executor models.
    pub sim_secs: Option<f64>,
}

impl AnimResult {
    /// Sum of per-stage busy time across frames — what a strictly
    /// sequential animation's wall clock would be.
    pub fn stage_sum(&self) -> f64 {
        self.frames.iter().map(|f| f.result.timing.total()).sum()
    }

    /// Summed I/O stage time across frames (includes prefetch reads,
    /// charged to the frame they fetched).
    pub fn io_sum(&self) -> f64 {
        self.frames.iter().map(|f| f.result.timing.io).sum()
    }

    /// Frames per second of actual wall clock.
    pub fn fps(&self) -> f64 {
        self.frames.len() as f64 / self.wall.max(1e-12)
    }

    /// Fraction of the summed I/O stage time that never showed up in
    /// the animation's wall clock — hidden under other frames' render
    /// and composite work. 0 for sequential runs (up to timer noise),
    /// approaching 1 when compute fully covers the reads.
    pub fn io_hidden_fraction(&self) -> f64 {
        let io = self.io_sum();
        if io <= 0.0 {
            return 0.0;
        }
        let non_io: f64 = self
            .frames
            .iter()
            .map(|f| f.result.timing.total() - f.result.timing.io)
            .sum();
        let visible_io = (self.wall - non_io).clamp(0.0, io);
        1.0 - visible_io / io
    }
}

/// Write `nframes` time steps of the synthetic dataset to `dir`, one
/// file per step (`step0000.dat`, …), advancing the field's seed per
/// step so the frames genuinely differ.
pub fn write_animation(
    dir: &Path,
    cfg: &FrameConfig,
    nframes: usize,
) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(nframes);
    for t in 0..nframes {
        let mut step = *cfg;
        step.seed = cfg.seed.wrapping_add(t as u64);
        let p = dir.join(format!("step{t:04}.dat"));
        write_dataset(&p, &step)?;
        paths.push(p);
    }
    Ok(paths)
}

/// Render an animation: one frame per path, in order, bit-identical to
/// running [`crate::pipeline::run_frame`] (or the mpi/ft variants) on
/// each file independently — the animation tests pin this. Pipelining
/// changes wall clock, never pixels.
pub fn run_animation(
    cfg: &FrameConfig,
    paths: &[PathBuf],
    opts: &AnimOptions,
) -> Result<AnimResult, FtError> {
    assert!(!paths.is_empty(), "animation needs at least one frame");
    match &opts.executor {
        AnimExecutor::Rayon => {
            assert!(
                opts.faults.is_none(),
                "fault plans need the message-passing executor"
            );
            Ok(run_rayon(cfg, paths, opts))
        }
        AnimExecutor::Mpi(run_opts) => run_mpi(cfg, paths, opts, run_opts.clone()),
    }
}

fn run_rayon(cfg: &FrameConfig, paths: &[PathBuf], opts: &AnimOptions) -> AnimResult {
    let plan = FramePlan::standard();
    let tracer = &opts.tracer;
    let mut frames = Vec::with_capacity(paths.len());
    let t0 = Instant::now();

    // Two pools: in-frame stages draw from `render_pool`, background
    // reads from `prefetch_pool` (installed inside the prefetch thread,
    // where the read actually runs). With both at 0 the split is a
    // no-op; with explicit budgets the two subsystems stop competing
    // for the same cores.
    let render_pool = rayon::ThreadPoolBuilder::new()
        .num_threads(opts.render_threads)
        .thread_name(|i| format!("pvr-render-{i}"))
        .build()
        .expect("render pool");
    let prefetch_pool = Arc::new(
        rayon::ThreadPoolBuilder::new()
            .num_threads(opts.prefetch_threads)
            .thread_name(|i| format!("pvr-prefetch-{i}"))
            .build()
            .expect("prefetch pool"),
    );

    // RayonExec::finish annotates the SLO verdict; the animation loop
    // only mirrors it onto the flight recorder, one frame per tick.
    let record = |result: &FrameResult| {
        opts.flight.begin_frame();
        if let Some(slo) = &result.timing.slo {
            crate::slo::record_frame_flight(&opts.flight, slo, &[], &result.timing.recovery);
        }
    };

    if !opts.pipelined {
        for p in paths {
            let exec = RayonExec::new(cfg, FrameInput::File(p), tracer, opts.throttle);
            let result = render_pool.install(|| pvr_mpisim::block_on_ready(execute(&plan, exec)));
            record(&result);
            frames.push(AnimFrame {
                result,
                completeness: None,
            });
        }
        return AnimResult {
            frames,
            wall: t0.elapsed().as_secs_f64(),
            sim_secs: None,
        };
    }

    // The prefetch thread gets its own trace track, one past the rank
    // tracks, so the overlap is visible in the Perfetto timeline.
    let pf_track = cfg.nprocs as u32;
    if tracer.enabled() {
        tracer.name_track(pf_track, "prefetch");
    }
    let spawn = |t: usize| {
        let cfg = *cfg;
        let path = paths[t].clone();
        let throttle = opts.throttle;
        let tracer = tracer.clone();
        let pool = Arc::clone(&prefetch_pool);
        Prefetch::spawn(move || {
            let started = Instant::now();
            tracer.begin_args(pf_track, "io.read", Args::one("frame", t as u64));
            let out = pool.install(|| read_frame_bytes(&cfg, &path, throttle));
            tracer.end(pf_track, "io.read");
            out.map(|(bytes, io)| (bytes, io, started.elapsed().as_secs_f64()))
        })
    };

    let mut pending = Some(spawn(0));
    for t in 0..paths.len() {
        let (bytes, io, io_secs) = pending
            .take()
            .expect("one prefetch is always in flight")
            .join()
            .expect("animation frame read failed");
        // Launch t+1's read before touching frame t: the whole frame
        // (decode, render, composite) overlaps the next read.
        if t + 1 < paths.len() {
            pending = Some(spawn(t + 1));
        }
        let input = FrameInput::Prefetched { bytes, io, io_secs };
        let exec = RayonExec::new(cfg, input, tracer, None);
        let result = render_pool.install(|| pvr_mpisim::block_on_ready(execute(&plan, exec)));
        record(&result);
        frames.push(AnimFrame {
            result,
            completeness: None,
        });
    }
    AnimResult {
        frames,
        wall: t0.elapsed().as_secs_f64(),
        sim_secs: None,
    }
}

/// Routes each tag epoch's traffic to that frame's own plan injector,
/// so one long-lived world runs per-frame fault plans. Tags outside
/// every configured epoch (later healthy frames) are delivered as-is.
struct EpochInjector {
    frames: Vec<PlanInjector>,
}

impl FaultInjector for EpochInjector {
    fn on_send(&self, src: usize, dst: usize, tag: u32, seq: u64, data: &mut Vec<u8>) -> SendFate {
        if tag == 0 {
            return SendFate::Deliver;
        }
        match self.frames.get(FrameTags::frame_of(tag)) {
            Some(inj) => inj.on_send(src, dst, FrameTags::base_of(tag), seq, data),
            None => SendFate::Deliver,
        }
    }
}

fn run_mpi(
    cfg: &FrameConfig,
    paths: &[PathBuf],
    opts: &AnimOptions,
    run_opts: pvr_mpisim::RunOptions,
) -> Result<AnimResult, FtError> {
    let nf = paths.len();
    let reliable = opts.faults.is_some();

    // One link mode per frame, fault state derived up front.
    let links: Vec<LinkMode> = match &opts.faults {
        None => (0..nf).map(|_| LinkMode::Direct).collect(),
        Some(f) => (0..nf)
            .map(|t| {
                let plan = f.plans.get(t).cloned().unwrap_or_else(FaultPlan::none);
                LinkMode::reliable(plan, f.policy, f.store)
            })
            .collect(),
    };
    let run_opts = match &opts.faults {
        Some(f) => run_opts.with_injector(Arc::new(EpochInjector {
            frames: f.plans.iter().cloned().map(PlanInjector::new).collect(),
        })),
        None => run_opts,
    };
    // Per-frame located incidents from the injected plans, extracted
    // before the link modes move into the world closure.
    let frame_incidents: Vec<Vec<crate::slo::Incident>> = links
        .iter()
        .map(|l| match l {
            LinkMode::Reliable(rc) => {
                crate::slo::incidents_from_plan(cfg.nprocs, &rc.plan, rc.policy.suspicion)
            }
            LinkMode::Direct => Vec::new(),
        })
        .collect();

    let cfg = *cfg;
    let paths = paths.to_vec();
    let plan = FramePlan::standard();
    let pipelined = opts.pipelined;
    let throttle = opts.throttle;
    let t0 = Instant::now();

    // Frame invariants (geometry, scatter plan, schedule) computed once
    // and shared by every rank across every frame of the animation.
    let shared = Arc::new(crate::scheduler::FrameShared::new(&cfg));
    let cfg_ref = &cfg;
    let paths_ref = &paths;
    let links_ref = &links;
    let plan_ref = &plan;
    let shared_ref = &shared;
    let out = pvr_mpisim::World::run_opts(cfg.nprocs, run_opts, move |mut comm| async move {
        let mut outs = Vec::with_capacity(nf);
        // This rank's one in-flight background read: the next frame's
        // window extents (the scatter geometry is frame-invariant).
        let mut pending: Option<Prefetch<PrefetchedWindows>> = None;
        for t in 0..nf {
            let windows = pending.take().and_then(|pf| pf.join().ok());
            let exec = RankExec::new(
                &mut comm,
                cfg_ref,
                &paths_ref[t],
                &links_ref[t],
                FrameTags::for_frame(t),
                !reliable,
                throttle,
                windows,
                Arc::clone(shared_ref),
            );
            let rank_out = execute_with(plan_ref, exec, |e, s| {
                if pipelined && s == StageId::Read && t + 1 < nf {
                    let extents = e.my_window_extents().to_vec();
                    if !extents.is_empty() {
                        let path = paths_ref[t + 1].clone();
                        let spawned_at = e.clock();
                        // Unthrottled: the consuming rank charges the
                        // throttle on its simulated clock.
                        pending = Some(Prefetch::spawn(move || {
                            let started = Instant::now();
                            let bufs = read_extents(&path, &extents, None)?;
                            Ok(PrefetchedWindows {
                                bufs,
                                io_secs: started.elapsed().as_secs_f64(),
                                spawned_at,
                            })
                        }));
                    }
                }
            })
            .await;
            // A crashed rank skips its remaining stages (and never
            // spawns a prefetch), then rejoins at the next epoch's
            // tags with a live read — only its own frame degrades.
            outs.push(rank_out);
            // Reliable frames have no in-frame barriers (a crashed
            // rank might miss one), but between frames every rank —
            // crashed or not — reaches this point, so a resync here is
            // safe. Without it a crashed rank races ahead while its
            // peers wait out frame `t`'s deadlines, and the skew eats
            // into frame `t+1`'s deadline budget.
            if reliable && t + 1 < nf {
                comm.barrier().await;
            }
        }
        (outs, comm.time())
    })
    .map_err(FtError::Runtime)?;

    // Transpose [rank][frame] → per-frame columns and assemble each
    // frame exactly as the single-frame driver would.
    let sim_secs = out.results.iter().map(|(_, t)| *t).fold(0.0, f64::max);
    let mut per_rank: Vec<_> = out
        .results
        .into_iter()
        .map(|(o, _)| o.into_iter())
        .collect();
    let mut frames = Vec::with_capacity(nf);
    for plan_incidents in frame_incidents.iter().take(nf) {
        let col: Vec<RankOut> = per_rank
            .iter_mut()
            .map(|it| it.next().expect("every rank runs every frame"))
            .collect();
        let (result, completeness, incidents) = assemble_frame(&cfg, col, reliable, plan_incidents);
        opts.flight.begin_frame();
        if let Some(slo) = &result.timing.slo {
            crate::slo::record_frame_flight(&opts.flight, slo, &incidents, &result.timing.recovery);
        }
        frames.push(AnimFrame {
            result,
            completeness: if reliable { completeness } else { None },
        });
    }
    Ok(AnimResult {
        frames,
        wall: t0.elapsed().as_secs_f64(),
        sim_secs: Some(sim_secs),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IoMode;

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pvr-anim-{}-{}", std::process::id(), name));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn write_animation_advances_the_seed_per_step() {
        let cfg = FrameConfig::small(8, 16, 4);
        let dir = tmp_dir("seeds");
        let paths = write_animation(&dir, &cfg, 3).unwrap();
        assert_eq!(paths.len(), 3);
        let a = std::fs::read(&paths[0]).unwrap();
        let b = std::fs::read(&paths[1]).unwrap();
        assert_eq!(a.len(), b.len());
        assert_ne!(a, b, "consecutive steps must differ");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Prefetched frames read through `read_frame_bytes`, sequential
    /// ones through the read stage; on HDF5 both take the independent
    /// chunk path (edge 14 with 4-element chunks pads the edge chunks).
    #[test]
    fn rayon_pipelined_matches_sequential_bit_for_bit() {
        for (io, edge) in [(IoMode::Raw, 12), (IoMode::Hdf5, 14)] {
            let mut cfg = FrameConfig::small(edge, 24, 4);
            cfg.io = io;
            let dir = tmp_dir(&format!("rayon-id-{}", io.name()));
            let paths = write_animation(&dir, &cfg, 3).unwrap();
            let seq = run_animation(&cfg, &paths, &AnimOptions::rayon().sequential()).unwrap();
            let pipe = run_animation(&cfg, &paths, &AnimOptions::rayon()).unwrap();
            assert_eq!(seq.frames.len(), 3);
            for (s, p) in seq.frames.iter().zip(&pipe.frames) {
                assert_eq!(s.result.image.pixels(), p.result.image.pixels());
                assert_eq!(s.result.io, p.result.io, "{}", io.name());
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// On the message-passing executor the throttle is simulated time.
    /// At 1 KB/s each aggregator's window read owes seconds, far more
    /// than a frame's compute can cover, so a prefetched read must
    /// still show almost all of its floor on the simulated clock: the
    /// prefetch hides what the rank's frame work overlapped, never the
    /// read itself.
    #[test]
    fn mpi_prefetched_reads_pay_the_throttle_in_simulated_time() {
        let cfg = FrameConfig::small(12, 24, 4);
        let dir = tmp_dir("mpi-throttle");
        let paths = write_animation(&dir, &cfg, 3).unwrap();
        let slow = |o: AnimOptions| o.throttled(1000.0);
        let seq = run_animation(&cfg, &paths, &slow(AnimOptions::mpi()).sequential()).unwrap();
        let pipe = run_animation(&cfg, &paths, &slow(AnimOptions::mpi())).unwrap();
        let (seq_s, pipe_s) = (seq.sim_secs.unwrap(), pipe.sim_secs.unwrap());
        assert!(seq_s > 3.0, "three throttled reads: {seq_s} s");
        assert!(
            pipe_s > 0.99 * seq_s,
            "prefetched reads became free: pipelined {pipe_s} s vs sequential {seq_s} s"
        );
        for (s, p) in seq.frames.iter().zip(&pipe.frames) {
            assert_eq!(s.result.image.pixels(), p.result.image.pixels());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mpi_animation_heals_a_mid_run_crash_bit_identically() {
        use crate::config::CompositorPolicy;
        use crate::ft::laptop_store;
        use pvr_faults::{RankAction, RankFault, Stage};

        let mut cfg = FrameConfig::small(16, 24, 8);
        cfg.variable = 2;
        cfg.policy = CompositorPolicy::Fixed(4);
        let dir = tmp_dir("heal");
        let paths = write_animation(&dir, &cfg, 3).unwrap();
        let plain = run_animation(&cfg, &paths, &AnimOptions::mpi()).unwrap();

        // Rank 5 dies permanently during frame 1's composite stage; the
        // orchestrator adopts its block and the animation carries on.
        let crash = FaultPlan {
            seed: 9,
            ranks: vec![RankFault {
                rank: 5,
                stage: Stage::Composite,
                action: RankAction::Crash,
            }],
            ..FaultPlan::default()
        };
        let faults = AnimFaults {
            plans: vec![FaultPlan::none(), crash, FaultPlan::none()],
            policy: RecoveryPolicy::fast_test(),
            store: laptop_store(),
        };
        let healed = run_animation(&cfg, &paths, &AnimOptions::mpi().with_faults(faults)).unwrap();

        assert_eq!(healed.frames.len(), 3);
        for (t, (s, h)) in plain.frames.iter().zip(&healed.frames).enumerate() {
            assert_eq!(
                s.result.image.pixels(),
                h.result.image.pixels(),
                "frame {t} must heal without a pixel trace"
            );
            let c = h
                .completeness
                .as_ref()
                .expect("ft runs report completeness");
            assert!(c.fully_complete(), "frame {t} completeness");
        }
        let rec = healed.frames[1].result.timing.recovery;
        assert_eq!(rec.crashed_ranks, 1);
        assert!(rec.adopted_blocks >= 1, "frame 1 healed via adoption");
        assert_eq!(healed.frames[0].result.timing.recovery.crashed_ranks, 0);
        assert_eq!(healed.frames[2].result.timing.recovery.crashed_ranks, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn split_pools_are_bit_identical_to_shared_pools() {
        let cfg = FrameConfig::small(12, 24, 4);
        let dir = tmp_dir("pools");
        let paths = write_animation(&dir, &cfg, 2).unwrap();
        let shared = run_animation(&cfg, &paths, &AnimOptions::rayon()).unwrap();
        // Tiny asymmetric budgets force both install paths (render
        // inline on the caller, prefetch capped at 2).
        let split = run_animation(&cfg, &paths, &AnimOptions::rayon().pools(1, 2)).unwrap();
        for (s, p) in shared.frames.iter().zip(&split.frames) {
            assert_eq!(s.result.image.pixels(), p.result.image.pixels());
            assert_eq!(s.result.render_samples, p.result.render_samples);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn io_hidden_fraction_is_zero_without_io() {
        let r = AnimResult {
            frames: Vec::new(),
            wall: 1.0,
            sim_secs: None,
        };
        assert_eq!(r.io_hidden_fraction(), 0.0);
    }
}

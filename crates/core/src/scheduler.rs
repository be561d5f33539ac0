//! The frame scheduler: one driver for every way a frame runs.
//!
//! The pipeline is a small DAG of stages — read → render → composite →
//! gather — with explicit data handoffs ([`FramePlan`]). What used to be
//! six hand-rolled copies of that sequence (`run_frame`,
//! `run_frame_traced`, `run_frame_mpi`, `run_frame_mpi_opts`,
//! `run_frame_mpi_profiled`, `run_frame_mpi_ft`) is now one driver,
//! [`drive_frame`], configured along independent axes:
//!
//! * **Executor** ([`ExecChoice`]): data-parallel rayon
//!   ([`RayonExec`]) or per-rank message passing ([`RankExec`] inside a
//!   `pvr-mpisim` world).
//! * **Link mode** ([`LinkMode`]): plain blocking messages, or the
//!   fault-tolerant protocol (framed acked links, deadline receives,
//!   per-tile completeness) driven by a `FaultPlan`.
//! * **Tracing/profiling**: an [`pvr_obs::Tracer`] for the rayon
//!   executor, `RunOptions::traced()` + replay for the simulator —
//!   orthogonal to everything else.
//! * **Tag epoch** ([`FrameTags`]): which time step's message tags the
//!   frame uses, so the animation driver can keep several frames'
//!   traffic disjoint in one world. Frame 0 equals the legacy
//!   [`crate::pipeline::tags`] constants, which keeps the golden traces
//!   stable.
//!
//! The legacy entry points survive as thin wrappers; the integration
//! tests (bit-identity across executors, byte-golden profiles, fault
//! recovery) pin that the collapse changed nothing observable.

use std::collections::HashMap;
use std::fs::File;
use std::io::{Read as _, Seek, SeekFrom};
use std::ops::ControlFlow;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rayon::prelude::*;

use pvr_compositing::completeness::{CompletenessMap, TileCompleteness};
use pvr_compositing::directsend::DirectSendStats;
use pvr_compositing::{
    blend_fragments, build_schedule, ImagePartition, InsertOutcome, Schedule, TileAssembly,
};
use pvr_faults::{
    FaultPlan, InBox, OutBox, PlanInjector, RankAction, RecoveryCounters, RecoveryPolicy, Stage,
};
use pvr_formats::extent::Extent;
use pvr_formats::{read_runs, ELEM_SIZE};
use pvr_obs::Tracer;
use pvr_pfs::{
    window_fault_audit, IoRecovery, IoThrottle, ScatterPlan, ServerFaults, StripedStore,
};
use pvr_render::image::{Image, SubImage};
use pvr_render::raycast::{render_block, BlockDomain};
use pvr_render::Camera;

use crate::config::FrameConfig;
use crate::ft::FtError;
use crate::perfmodel::PerfModel;
use crate::pipeline::{
    decode_fragment, decode_volume, default_view, encode_fragment, geometry, rank_requests,
    read_frame_bytes, read_stage, render_opts, synthesize_stage, tags, transfer_for, FrameResult,
    IoRunStats,
};
use crate::recovery::{adopter_of, block_cost, render_loads, HealDecision, RecoveryBudget};
use crate::roles::laptop_aggregators;
use crate::timing::{FrameTiming, Stopwatch};

// ---------------------------------------------------------------------
// Stage DAG
// ---------------------------------------------------------------------

/// One stage of the frame pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageId {
    /// Collective (or independent) read of the time step's subvolumes.
    Read,
    /// Local ray-casting of each rank's block.
    Render,
    /// Direct-send fragment exchange and per-tile blending.
    Composite,
    /// Tile gather to rank 0 into the final image.
    Gather,
}

impl StageId {
    pub const ALL: [StageId; 4] = [
        StageId::Read,
        StageId::Render,
        StageId::Composite,
        StageId::Gather,
    ];

    /// Stages whose output this stage consumes.
    pub fn deps(self) -> &'static [StageId] {
        match self {
            StageId::Read => &[],
            StageId::Render => &[StageId::Read],
            StageId::Composite => &[StageId::Render],
            StageId::Gather => &[StageId::Composite],
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            StageId::Read => "read",
            StageId::Render => "render",
            StageId::Composite => "composite",
            StageId::Gather => "gather",
        }
    }

    /// The `FaultPlan` stage a rank fault at this point belongs to.
    /// Gather rides on the composite deadline machinery and has no
    /// fault index of its own — plans written against the old
    /// three-stage executor keep their meaning.
    pub fn fault_stage(self) -> Option<Stage> {
        match self {
            StageId::Read => Some(Stage::Io),
            StageId::Render => Some(Stage::Render),
            StageId::Composite => Some(Stage::Composite),
            StageId::Gather => None,
        }
    }
}

/// A validation failure of a [`FramePlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    Duplicate(StageId),
    Missing(StageId),
    /// `stage` is scheduled before a stage whose output it needs.
    DependencyOrder {
        stage: StageId,
        needs: StageId,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Duplicate(s) => write!(f, "stage {} appears twice", s.name()),
            PlanError::Missing(s) => write!(f, "stage {} is missing", s.name()),
            PlanError::DependencyOrder { stage, needs } => write!(
                f,
                "stage {} runs before its input stage {}",
                stage.name(),
                needs.name()
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// A topological order over the stage DAG: each stage appears exactly
/// once, after every stage it consumes data from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FramePlan {
    order: Vec<StageId>,
}

impl FramePlan {
    /// The full pipeline in its canonical order.
    pub fn standard() -> FramePlan {
        FramePlan {
            order: StageId::ALL.to_vec(),
        }
    }

    /// Build a plan from an explicit stage order, verifying it is a
    /// topological order of the DAG covering every stage.
    pub fn new(order: Vec<StageId>) -> Result<FramePlan, PlanError> {
        let mut seen: Vec<StageId> = Vec::with_capacity(order.len());
        for &s in &order {
            if seen.contains(&s) {
                return Err(PlanError::Duplicate(s));
            }
            for &d in s.deps() {
                if !seen.contains(&d) {
                    return Err(PlanError::DependencyOrder { stage: s, needs: d });
                }
            }
            seen.push(s);
        }
        for s in StageId::ALL {
            if !seen.contains(&s) {
                return Err(PlanError::Missing(s));
            }
        }
        Ok(FramePlan { order })
    }

    pub fn stages(&self) -> &[StageId] {
        &self.order
    }
}

/// One frame's worth of stage execution on some executor. The scheduler
/// owns the sequencing; the executor owns the stage bodies and the data
/// handoffs between them.
pub trait StageExec: Sized {
    type Out;

    /// Called once before the first stage.
    fn begin(&mut self) {}

    /// Run one stage. `Break` aborts the remaining stages (a crashed
    /// rank); [`StageExec::finish`] still runs. Async so the
    /// message-passing executor can await virtual-time events mid-stage;
    /// the rayon executor's stages complete without ever suspending.
    fn stage(&mut self, stage: StageId) -> impl std::future::Future<Output = ControlFlow<()>>;

    /// Consume the executor and produce the frame's output.
    fn finish(self) -> Self::Out;
}

/// Drive an executor through a plan. Futures from executors that never
/// suspend (rayon) resolve in one poll — `pvr_mpisim::block_on_ready`
/// runs them from sync contexts.
pub async fn execute<E: StageExec>(plan: &FramePlan, exec: E) -> E::Out {
    execute_with(plan, exec, |_, _| {}).await
}

/// [`execute`] with a hook after each completed stage — the animation
/// driver uses it to launch the next frame's I/O prefetch as soon as
/// the current frame's read hands off, without owning the stage loop.
pub async fn execute_with<E: StageExec>(
    plan: &FramePlan,
    mut exec: E,
    mut after: impl FnMut(&mut E, StageId),
) -> E::Out {
    exec.begin();
    for &s in plan.stages() {
        match exec.stage(s).await {
            ControlFlow::Continue(()) => after(&mut exec, s),
            ControlFlow::Break(()) => break,
        }
    }
    exec.finish()
}

// ---------------------------------------------------------------------
// Tag epochs
// ---------------------------------------------------------------------

/// Tags advance by this stride per time step; the six stage tags of one
/// frame live in one epoch and can never collide with another frame's.
pub const EPOCH_STRIDE: u32 = 16;

/// The message tags of one time step's frame. Frame 0 is exactly the
/// legacy [`crate::pipeline::tags`] constants, so single-frame runs —
/// including the byte-golden profiled trace — are untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTags {
    pub io_scatter: u32,
    pub fragment: u32,
    pub tile: u32,
    pub io_ack: u32,
    pub frag_ack: u32,
    pub tile_ack: u32,
    /// Recovery orchestrator: adoption requests, the late fragments
    /// they produce, their shared ack channel, and the frame-complete
    /// broadcast.
    pub adopt: u32,
    pub late: u32,
    pub rec_ack: u32,
    pub done: u32,
}

impl FrameTags {
    pub fn for_frame(frame: usize) -> FrameTags {
        let base = EPOCH_STRIDE * frame as u32;
        FrameTags {
            io_scatter: tags::IO_SCATTER + base,
            fragment: tags::FRAGMENT + base,
            tile: tags::TILE + base,
            io_ack: tags::IO_ACK + base,
            frag_ack: tags::FRAG_ACK + base,
            tile_ack: tags::TILE_ACK + base,
            adopt: tags::ADOPT + base,
            late: tags::LATE + base,
            rec_ack: tags::REC_ACK + base,
            done: tags::DONE + base,
        }
    }

    /// The frame-0 stage tag an epoch tag descends from.
    pub fn base_of(tag: u32) -> u32 {
        ((tag - 1) % EPOCH_STRIDE) + 1
    }

    /// Which time step an epoch tag belongs to.
    pub fn frame_of(tag: u32) -> usize {
        ((tag - 1) / EPOCH_STRIDE) as usize
    }

    /// Human name of any epoch tag (`"frame2/fragment"`), or `None`
    /// for tags outside the stage-tag discipline. The model checker's
    /// choice points carry raw `u32` tags; this is how its reports
    /// translate them back into pipeline stages.
    pub fn name_of(tag: u32) -> Option<String> {
        if tag == 0 {
            return None;
        }
        let base = FrameTags::base_of(tag);
        let name = tags::ALL.iter().find(|(t, _)| *t == base)?.1;
        Some(format!("frame{}/{}", FrameTags::frame_of(tag), name))
    }

    /// The tags of this frame that wildcard receives match on — the
    /// data stages, where receive order is scheduler-dependent and
    /// model checking has something to decide. Ack tags are excluded:
    /// acks are received per-source (`recv_from`) or drained after the
    /// stage completes, so they open no choice points.
    pub fn wildcard_streams(&self) -> [(u32, &'static str); 3] {
        [
            (self.io_scatter, "io-scatter"),
            (self.fragment, "fragment"),
            (self.tile, "tile"),
        ]
    }

    /// The full tag table of an animation's first `frames` time steps,
    /// for tag-discipline lint over the multi-frame tag space.
    pub fn table(frames: usize) -> Vec<(u32, String)> {
        let mut out = Vec::with_capacity(frames * tags::ALL.len());
        for t in 0..frames {
            let base = EPOCH_STRIDE * t as u32;
            for (tag, name) in tags::ALL {
                out.push((tag + base, format!("frame{t}/{name}")));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Link modes
// ---------------------------------------------------------------------

/// Everything the fault-tolerant link mode needs, with the derived
/// fault state precomputed once.
#[derive(Debug, Clone)]
pub struct ReliableCfg {
    pub plan: FaultPlan,
    pub policy: RecoveryPolicy,
    pub store: StripedStore,
    faults: ServerFaults,
    rec: IoRecovery,
}

/// How the message-passing executor moves data: plain blocking sends
/// and receives with barriers between stages (the paper's
/// bulk-synchronous frame), or the fault-tolerant protocol — framed
/// acked links, deadline receives, no barriers, per-tile completeness.
#[derive(Debug, Clone)]
pub enum LinkMode {
    Direct,
    Reliable(Box<ReliableCfg>),
}

impl LinkMode {
    pub fn reliable(plan: FaultPlan, policy: RecoveryPolicy, store: StripedStore) -> LinkMode {
        let faults = plan.server_faults(store.servers);
        let rec = policy.io_recovery();
        LinkMode::Reliable(Box::new(ReliableCfg {
            plan,
            policy,
            store,
            faults,
            rec,
        }))
    }
}

// ---------------------------------------------------------------------
// Rayon executor
// ---------------------------------------------------------------------

/// Where a rayon frame's volume data comes from.
pub enum FrameInput<'a> {
    /// Sample the synthetic field procedurally (no I/O).
    Synthetic,
    /// Read the dataset file in the Read stage.
    File(&'a Path),
    /// Bytes already fetched by a prefetch thread: per-rank on-disk-order
    /// buffers, the realized I/O stats, and how long the background read
    /// took (charged to the frame's `io` stage time even though it was
    /// hidden under earlier frames).
    Prefetched {
        bytes: Vec<Vec<u8>>,
        io: IoRunStats,
        io_secs: f64,
    },
}

/// The data-parallel executor: logical ranks, shared address space,
/// rayon inside each stage. One instance runs one frame.
pub struct RayonExec<'a> {
    cfg: &'a FrameConfig,
    tracer: &'a Tracer,
    input: Option<FrameInput<'a>>,
    throttle: Option<IoThrottle>,
    geo: crate::pipeline::RankGeometry,
    camera: Camera,
    t0: Instant,
    sw: Stopwatch,
    timing: FrameTiming,
    io: IoRunStats,
    volumes: Vec<pvr_volume::Volume>,
    subs: Vec<SubImage>,
    render_stats: pvr_render::raycast::RenderStats,
    image: Option<Image>,
    composite: Option<DirectSendStats>,
}

impl<'a> RayonExec<'a> {
    pub fn new(
        cfg: &'a FrameConfig,
        input: FrameInput<'a>,
        tracer: &'a Tracer,
        throttle: Option<IoThrottle>,
    ) -> RayonExec<'a> {
        RayonExec {
            cfg,
            tracer,
            input: Some(input),
            throttle,
            geo: geometry(cfg),
            camera: Camera::orthographic(cfg.grid, default_view(), cfg.image.0, cfg.image.1),
            t0: Instant::now(),
            sw: Stopwatch::start(),
            timing: FrameTiming::default(),
            io: IoRunStats::default(),
            volumes: Vec::new(),
            subs: Vec::new(),
            render_stats: pvr_render::raycast::RenderStats::default(),
            image: None,
            composite: None,
        }
    }
}

impl StageExec for RayonExec<'_> {
    type Out = FrameResult;

    fn begin(&mut self) {
        let cfg = self.cfg;
        if self.tracer.enabled() {
            for r in 0..cfg.nprocs {
                self.tracer.name_track(r as u32, &format!("rank {r}"));
            }
        }
        self.tracer
            .begin_args(0, "frame", pvr_obs::Args::one("ranks", cfg.nprocs as u64));
        self.t0 = Instant::now();
        self.sw = Stopwatch::start();
    }

    async fn stage(&mut self, stage: StageId) -> ControlFlow<()> {
        let cfg = self.cfg;
        match stage {
            StageId::Read => {
                self.timing.starts[0] = self.t0.elapsed().as_secs_f64();
                self.tracer.begin(0, "io");
                let mut io_secs = None;
                (self.volumes, self.io) = match self.input.take().expect("input consumed once") {
                    FrameInput::Synthetic => {
                        (synthesize_stage(cfg, &self.geo), IoRunStats::default())
                    }
                    FrameInput::File(p) => match self.throttle {
                        None => read_stage(cfg, &self.geo, p, self.tracer),
                        Some(t) => {
                            // Throttled reads bypass the per-window span
                            // machinery: the bandwidth floor applies to
                            // the stage as a whole.
                            let (bytes, io) = read_frame_bytes(cfg, p, Some(t)).expect(
                                "dataset file holds every physical extent of the frame's layout",
                            );
                            (decode_rank_bytes(cfg, &self.geo, &bytes), io)
                        }
                    },
                    FrameInput::Prefetched {
                        bytes,
                        io,
                        io_secs: s,
                    } => {
                        io_secs = Some(s);
                        (decode_rank_bytes(cfg, &self.geo, &bytes), io)
                    }
                };
                self.tracer.end_args(
                    0,
                    "io",
                    pvr_obs::Args::one("useful_bytes", self.io.useful_bytes),
                );
                let lap = self.sw.lap();
                // A prefetched frame charges the background read's real
                // duration, not the (near-zero) in-frame decode wait.
                self.timing.io = io_secs.map_or(lap, |s| s + lap);
            }
            StageId::Render => {
                self.timing.starts[1] = self.t0.elapsed().as_secs_f64();
                self.tracer.begin(0, "render");
                let tf = transfer_for(cfg);
                let opts = render_opts(cfg);
                let geo = &self.geo;
                let camera = &self.camera;
                let tracer = self.tracer;
                let rendered: Vec<(SubImage, pvr_render::raycast::RenderStats)> = self
                    .volumes
                    .par_iter()
                    .enumerate()
                    .map(|(rank, vol)| {
                        let dom = BlockDomain {
                            grid: cfg.grid,
                            owned: geo.owned[rank],
                            stored: geo.stored[rank],
                        };
                        pvr_render::raycast::render_block_traced(
                            vol,
                            &dom,
                            camera,
                            &tf,
                            &opts,
                            tracer,
                            rank as u32,
                        )
                    })
                    .collect();
                self.timing.render = self.sw.lap();
                for (_, s) in &rendered {
                    self.render_stats.merge(s);
                }
                let rs = &self.render_stats;
                self.tracer.end_args(
                    0,
                    "render",
                    pvr_obs::Args::three(
                        "samples",
                        rs.samples,
                        "packets",
                        rs.packets,
                        "terminated_rays",
                        rs.terminated_rays,
                    ),
                );
                self.subs = rendered.into_iter().map(|(s, _)| s).collect();
                self.volumes.clear();
            }
            StageId::Composite => {
                self.timing.starts[2] = self.t0.elapsed().as_secs_f64();
                self.tracer.begin(0, "composite");
                let m = cfg.compositors();
                let partition = ImagePartition::new(cfg.image.0, cfg.image.1, m);
                let (image, composite) = pvr_compositing::composite_direct_send_traced(
                    &self.subs,
                    partition,
                    self.tracer,
                );
                self.tracer.end_args(
                    0,
                    "composite",
                    pvr_obs::Args::one("messages", composite.messages as u64),
                );
                self.timing.composite = self.sw.lap();
                self.image = Some(image);
                self.composite = Some(composite);
            }
            // Direct-send already pastes tiles into the final image; the
            // shared-address-space gather is that paste.
            StageId::Gather => {}
        }
        ControlFlow::Continue(())
    }

    fn finish(self) -> FrameResult {
        self.tracer.end(0, "frame");
        let mut timing = self.timing;
        timing.wall = self.t0.elapsed().as_secs_f64();
        // The shared address space has no per-rank stage decomposition
        // and no fault plan: the frame-level stage times alone gate.
        timing.slo = Some(crate::slo::annotate(
            self.cfg,
            &crate::slo::FrameSample {
                stage_secs: [timing.io, timing.render, timing.composite],
                per_rank: &[],
                incidents: &[],
            },
        ));
        let rs = self.render_stats;
        FrameResult {
            image: self.image.expect("composite stage ran"),
            timing,
            io: self.io,
            render_samples: rs.samples,
            render_skipped: rs.skipped_samples,
            render_packets: rs.packets,
            render_eval_lanes: rs.packet_eval_lanes,
            render_eval_slots: rs.packet_eval_slots,
            render_terminated: rs.terminated_rays,
            render_error_bound: rs.error_bound as f64,
            composite: self.composite.expect("composite stage ran"),
        }
    }
}

/// Decode per-rank on-disk-order byte buffers into volumes.
fn decode_rank_bytes(
    cfg: &FrameConfig,
    geo: &crate::pipeline::RankGeometry,
    bytes: &[Vec<u8>],
) -> Vec<pvr_volume::Volume> {
    let layout = cfg.io.layout(cfg.grid);
    bytes
        .par_iter()
        .zip(&geo.stored)
        .map(|(b, sub)| decode_volume(b, sub, layout.endian()))
        .collect()
}

// ---------------------------------------------------------------------
// Frame-invariant shared state
// ---------------------------------------------------------------------

/// Everything about a frame that is a pure function of the
/// configuration, computed once by the driver and shared read-only by
/// every rank. Each rank used to re-derive the full geometry, the
/// per-rank request table, the two-phase scatter plan, and the
/// direct-send schedule — O(n) work and memory per rank, O(n²) for the
/// world — which is what kept the simulated executor from reaching the
/// paper's 32K-rank scale.
pub struct FrameShared {
    pub(crate) stored: Vec<pvr_formats::Subvolume>,
    pub(crate) owned: Vec<pvr_formats::Subvolume>,
    pub(crate) camera: Camera,
    /// Per-rank placed-run read requests (index = rank).
    pub(crate) requests: Vec<pvr_pfs::RankRequest>,
    /// Two-phase scatter plan (collective layouts only).
    pub(crate) scatter: Option<ScatterPlan>,
    /// The direct-send schedule every rank derives identically.
    pub(crate) schedule: Schedule,
    pub(crate) partition: ImagePartition,
}

impl FrameShared {
    pub fn new(cfg: &FrameConfig) -> FrameShared {
        let geo = geometry(cfg);
        let camera = Camera::orthographic(cfg.grid, default_view(), cfg.image.0, cfg.image.1);
        let layout = cfg.io.layout(cfg.grid);
        let requests = rank_requests(layout.as_ref(), cfg.file_variable(), &geo.stored);
        let scatter = layout.collective().then(|| {
            let naggr = laptop_aggregators(cfg.nprocs);
            ScatterPlan::build(&requests, naggr, &cfg.io.hints(cfg.grid))
        });
        let partition = ImagePartition::new(cfg.image.0, cfg.image.1, cfg.compositors());
        let footprints: Vec<pvr_render::image::PixelRect> = (0..cfg.nprocs)
            .map(|r| {
                pvr_render::raycast::footprint(
                    &camera,
                    geo.owned[r].offset,
                    geo.owned[r].end(),
                    cfg.image,
                )
            })
            .collect();
        let schedule = build_schedule(&footprints, partition);
        FrameShared {
            stored: geo.stored,
            owned: geo.owned,
            camera,
            requests,
            scatter,
            schedule,
            partition,
        }
    }
}

// ---------------------------------------------------------------------
// Message-passing executor (one rank's frame)
// ---------------------------------------------------------------------

/// Window bytes a prefetch thread fetched for this rank's aggregator
/// duty: one buffer per window access this rank hosts, in plan order.
#[derive(Debug)]
pub struct PrefetchedWindows {
    pub bufs: Vec<Vec<u8>>,
    /// Wall seconds the background read took — charged to the frame's
    /// `io` stage time. The read is unthrottled: the consuming rank pays
    /// the throttle on its simulated clock (see `spawned_at`).
    pub io_secs: f64,
    /// The rank's [`pvr_mpisim::Comm::time`] when the read was launched.
    /// The rank owes the throttle floor for these bytes less the time
    /// it spent since, which the read overlapped.
    pub spawned_at: f64,
}

/// What each rank hands back to the driver.
#[derive(Debug)]
pub struct RankOut {
    pub image: Option<Image>,
    pub completeness: Option<CompletenessMap>,
    pub timing: FrameTiming,
    /// This rank's render-kernel statistics (samples, skips, packets,
    /// lane utilization, early terminations, bounded-error bound).
    pub render: pvr_render::raycast::RenderStats,
    /// Honest wire bytes this rank sent (per fragment, the cheaper of
    /// the dense and sparse encodings).
    pub sent_bytes: u64,
    /// What the same fragments would have cost shipped dense — the
    /// schedule's prediction.
    pub sent_dense_bytes: u64,
    /// Fragments that went out sparse-encoded.
    pub sparse_messages: usize,
    pub counters: RecoveryCounters,
    pub io_failover_bytes: u64,
    pub io_unrecovered_bytes: u64,
}

impl RankOut {
    pub(crate) fn crashed(timing: FrameTiming) -> Self {
        RankOut {
            image: None,
            completeness: None,
            timing,
            render: pvr_render::raycast::RenderStats::default(),
            sent_bytes: 0,
            sent_dense_bytes: 0,
            sparse_messages: 0,
            counters: RecoveryCounters {
                crashed_ranks: 1,
                ..RecoveryCounters::default()
            },
            io_failover_bytes: 0,
            io_unrecovered_bytes: 0,
        }
    }
}

/// One adopted orphan block: the survivor's re-render (`None` when the
/// budget only allowed a skip) and the I/O quality of the re-read.
struct AdoptedBlock {
    sub: Option<SubImage>,
    quality: f64,
}

/// What the I/O stage hands the rest of the rank's frame.
struct RankIo {
    bytes: Vec<u8>,
    /// Fraction of this rank's requested bytes that arrived intact.
    quality: f64,
    failover_bytes: u64,
    unrecovered_bytes: u64,
    /// Background-read seconds of a prefetched frame (0 when live).
    prefetch_secs: f64,
}

/// One rank's frame on the message-passing executor: the unified body
/// behind both the plain and the fault-tolerant entry points. Link mode
/// selects the protocol per stage; the stage sequence itself lives only
/// in [`execute`].
pub struct RankExec<'a> {
    comm: &'a mut pvr_mpisim::Comm,
    cfg: &'a FrameConfig,
    path: &'a Path,
    links: &'a LinkMode,
    tags: FrameTags,
    /// Barrier between stages (the paper's bulk-synchronous frame).
    /// Direct mode only; the reliable protocol never blocks on a
    /// barrier a crashed rank might miss.
    barriers: bool,
    throttle: Option<IoThrottle>,
    windows: Option<PrefetchedWindows>,
    m: usize,
    // --- per-frame state, built up stage by stage ---
    sw: Stopwatch,
    t0: Instant,
    timing: FrameTiming,
    counters: RecoveryCounters,
    crashed: bool,
    /// Frame-invariant derived state shared by every rank.
    shared: Arc<FrameShared>,
    window_extents: Vec<Extent>,
    volume: Option<pvr_volume::Volume>,
    io: Option<RankIo>,
    sub: Option<SubImage>,
    rstats: pvr_render::raycast::RenderStats,
    sent: u64,
    sent_dense: u64,
    sparse_msgs: usize,
    frag_out: Option<OutBox>,
    frag_in: Option<InBox>,
    /// Direct mode: finished tiles awaiting the gather.
    tiles_direct: Vec<(usize, SubImage)>,
    /// Reliable mode: `(tile, expected_area, arrived_area, pixels)`.
    tile_reliable: Option<(usize, f64, f64, SubImage)>,
    /// Reliable mode: recovery control channel — adoption requests,
    /// the late fragments they produce, the frame-complete broadcast —
    /// all acked on one shared tag.
    rec_out: Option<OutBox>,
    rec_in: Option<InBox>,
    /// Degradation-ladder ledger for this rank's heals.
    budget: RecoveryBudget,
    /// Orphan blocks this rank adopted this frame, keyed by the dead
    /// renderer: one re-render serves every tile that needs a piece.
    adopted: HashMap<usize, AdoptedBlock>,
    /// Image fraction this rank re-rendered at the coarse rung.
    error_bound: f64,
    image: Option<Image>,
    completeness: Option<CompletenessMap>,
}

impl<'a> RankExec<'a> {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        comm: &'a mut pvr_mpisim::Comm,
        cfg: &'a FrameConfig,
        path: &'a Path,
        links: &'a LinkMode,
        tags: FrameTags,
        barriers: bool,
        throttle: Option<IoThrottle>,
        windows: Option<PrefetchedWindows>,
        shared: Arc<FrameShared>,
    ) -> RankExec<'a> {
        let budget = match links {
            LinkMode::Reliable(rc) => RecoveryBudget::for_frame(cfg, &rc.policy),
            LinkMode::Direct => RecoveryBudget::new(None),
        };
        RankExec {
            comm,
            cfg,
            path,
            links,
            tags,
            barriers,
            throttle,
            windows,
            m: cfg.compositors(),
            sw: Stopwatch::start(),
            t0: Instant::now(),
            timing: FrameTiming::default(),
            counters: RecoveryCounters::default(),
            crashed: false,
            shared,
            window_extents: Vec::new(),
            volume: None,
            io: None,
            sub: None,
            rstats: pvr_render::raycast::RenderStats::default(),
            sent: 0,
            sent_dense: 0,
            sparse_msgs: 0,
            frag_out: None,
            frag_in: None,
            tiles_direct: Vec::new(),
            tile_reliable: None,
            rec_out: None,
            rec_in: None,
            budget,
            adopted: HashMap::new(),
            error_bound: 0.0,
            image: None,
            completeness: None,
        }
    }

    /// File extents of the window accesses this rank hosts as an
    /// aggregator — what a prefetch thread should read for the next
    /// frame (the scatter geometry is frame-invariant). Populated by
    /// the Read stage; empty for non-aggregators and independent I/O.
    pub fn my_window_extents(&self) -> &[Extent] {
        &self.window_extents
    }

    /// This rank's simulated clock ([`pvr_mpisim::Comm::time`]) — the
    /// stamp a prefetch launch records in
    /// [`PrefetchedWindows::spawned_at`].
    pub(crate) fn clock(&self) -> f64 {
        self.comm.time()
    }

    /// Park this rank for what the throttle still owes once its reads
    /// are done: the floor for `live_bytes` read since `t_read`, and the
    /// floor for the prefetched windows less the time since their read
    /// was launched. A prefetched read is hidden by the frame work it
    /// overlapped, never made free.
    async fn pay_throttle(&mut self, live_bytes: u64, t_read: Instant) {
        let Some(t) = self.throttle else {
            return;
        };
        let mut rem = t.remaining(live_bytes, t_read.elapsed());
        if let Some(pw) = &self.windows {
            let bytes = self
                .window_extents
                .iter()
                .take(pw.bufs.len())
                .map(|e| e.len)
                .sum();
            let since = Duration::from_secs_f64((self.comm.time() - pw.spawned_at).max(0.0));
            rem = rem.max(t.remaining(bytes, since));
        }
        if rem > Duration::ZERO {
            self.comm.sleep(rem).await;
        }
    }

    /// The compositor→rank placement both executors share.
    fn compositor_rank(&self, c: usize) -> usize {
        crate::roles::compositor_rank(c, self.comm.size(), self.m)
    }

    /// Fault-plan crash/straggle check at a stage boundary (reliable
    /// links only). Returns true when this rank crashes here; the span
    /// bookkeeping of the abandoned frame is already done.
    async fn crash_check(&mut self, stage: StageId, span: &'static str, mark: u64) -> bool {
        let LinkMode::Reliable(rc) = self.links else {
            return false;
        };
        let Some(fs) = stage.fault_stage() else {
            return false;
        };
        let action = rc.plan.rank_fault(self.comm.rank(), fs);
        match action {
            Some(RankAction::Crash) => {
                self.comm.mark_instant("rank.crash", mark);
                self.comm.span_end(span);
                self.comm.span_end("frame");
                if stage == StageId::Read {
                    self.timing.io = self.sw.lap();
                }
                self.crashed = true;
                true
            }
            Some(RankAction::StraggleMs(ms)) => {
                // Straggles cost simulated seconds, not wall clock: the
                // world's virtual timer parks this rank while everyone
                // else runs on.
                self.comm.sleep(Duration::from_millis(ms)).await;
                false
            }
            None => false,
        }
    }

    // --- Read stage ------------------------------------------------

    async fn stage_read(&mut self) -> ControlFlow<()> {
        self.timing.starts[0] = self.t0.elapsed().as_secs_f64();
        self.comm.span_begin("io");
        if self.crash_check(StageId::Read, "io", 0).await {
            return ControlFlow::Break(());
        }
        let layout = self.cfg.io.layout(self.cfg.grid);
        let shared = Arc::clone(&self.shared);
        let io = if let Some(sp) = &shared.scatter {
            self.window_extents = sp
                .accesses_of(self.comm.rank(), self.comm.size())
                .map(|a| a.extent)
                .collect();
            match self.links {
                LinkMode::Direct => self.scatter_direct(sp, &shared.requests).await,
                LinkMode::Reliable(_) => self.scatter_reliable(sp, &shared.requests).await,
            }
        } else {
            self.read_independent().await
        };
        let rank = self.comm.rank();
        self.volume = Some(decode_volume(
            &io.bytes,
            &shared.stored[rank],
            layout.endian(),
        ));
        match self.links {
            LinkMode::Direct => {
                // Close the stage before the barrier: the span then
                // measures this rank's own progress; barrier wait time
                // accrues to the parent span.
                self.comm.span_end("io");
                if self.barriers {
                    self.comm.barrier().await;
                }
                self.timing.io = self.sw.lap() + io.prefetch_secs;
            }
            LinkMode::Reliable(_) => {
                self.timing.io = self.sw.lap() + io.prefetch_secs;
                self.comm.span_end("io");
            }
        }
        self.io = Some(io);
        ControlFlow::Continue(())
    }

    /// One window's bytes: the prefetched buffer when the animation
    /// driver fetched it ahead of time, a live (optionally throttled)
    /// file read otherwise.
    fn window_bytes(
        &mut self,
        idx: usize,
        w: Extent,
        file: &mut Option<File>,
        live_bytes: &mut u64,
    ) -> Vec<u8> {
        if let Some(pw) = &mut self.windows {
            if let Some(buf) = pw.bufs.get_mut(idx) {
                return std::mem::take(buf);
            }
        }
        let f = file.get_or_insert_with(|| File::open(self.path).expect("dataset file"));
        let mut buf = vec![0u8; w.len as usize];
        f.seek(SeekFrom::Start(w.offset)).unwrap();
        f.read_exact(&mut buf).unwrap();
        *live_bytes += w.len;
        buf
    }

    /// Plain two-phase scatter: blocking sends, counted receives. The
    /// per-rank operation order reproduces the original executor
    /// exactly — the byte-golden logical profile depends on it.
    async fn scatter_direct(
        &mut self,
        sp: &ScatterPlan,
        requests: &[pvr_pfs::RankRequest],
    ) -> RankIo {
        let rank = self.comm.rank();
        let t_read = Instant::now();
        let mut live_bytes = 0u64;
        let mut file: Option<File> = None;
        let my = self.window_extents.clone();
        for (i, w) in my.iter().enumerate() {
            self.comm.span_begin_v("io.window", w.len);
            let buf = self.window_bytes(i, *w, &mut file, &mut live_bytes);
            for p in sp.pieces_in(*w) {
                let mut msg = Vec::with_capacity(16 + p.len());
                msg.extend((p.out_byte as u64).to_le_bytes());
                msg.extend((p.len() as u64).to_le_bytes());
                msg.extend(&buf[p.src_lo..p.src_hi]);
                self.comm.send(p.rank, self.tags.io_scatter, msg).await;
            }
            self.comm.span_end("io.window");
        }
        self.pay_throttle(live_bytes, t_read).await;

        let mut out = vec![0u8; requests[rank].out_elems * ELEM_SIZE as usize];
        for _ in 0..sp.piece_counts[rank] {
            let (_, msg) = self.comm.recv_any(self.tags.io_scatter).await;
            let dst = u64::from_le_bytes(msg[0..8].try_into().unwrap()) as usize;
            let nb = u64::from_le_bytes(msg[8..16].try_into().unwrap()) as usize;
            out[dst..dst + nb].copy_from_slice(&msg[16..16 + nb]);
        }
        RankIo {
            bytes: out,
            quality: 1.0,
            failover_bytes: 0,
            unrecovered_bytes: 0,
            prefetch_secs: self.windows.as_ref().map_or(0.0, |w| w.io_secs),
        }
    }

    /// Fault-tolerant two-phase scatter: framed acked sends, deadline
    /// receives, storage faults audited per window, holes zero-filled
    /// and reported in each piece's header.
    async fn scatter_reliable(
        &mut self,
        sp: &ScatterPlan,
        requests: &[pvr_pfs::RankRequest],
    ) -> RankIo {
        let LinkMode::Reliable(rc) = self.links else {
            unreachable!("reliable scatter needs reliable links")
        };
        let rank = self.comm.rank();
        let lp = rc.policy.link_policy();
        let mut io_out = OutBox::new(rank, self.tags.io_ack, lp);
        let mut failover_bytes = 0u64;
        let t_read = Instant::now();
        let mut live_bytes = 0u64;
        let mut file: Option<File> = None;
        let my = self.window_extents.clone();
        for (i, w) in my.iter().enumerate() {
            let audit = window_fault_audit(&rc.store, &rc.faults, &rc.rec, *w);
            self.counters.io_retries += audit.retries;
            self.counters.io_failovers += audit.failovers;
            failover_bytes += audit.failover_bytes;
            let mut buf = self.window_bytes(i, *w, &mut file, &mut live_bytes);
            for lost in &audit.unrecoverable {
                let lo = (lost.offset.max(w.offset) - w.offset) as usize;
                let hi = (lost.end().min(w.end()) - w.offset) as usize;
                if lo < hi {
                    buf[lo..hi].fill(0);
                }
            }
            for p in sp.pieces_in(*w) {
                let hole: u64 = audit
                    .unrecoverable
                    .iter()
                    .map(|e| {
                        let l = e.offset.max(p.file_lo);
                        let h = e.end().min(p.file_hi);
                        h.saturating_sub(l)
                    })
                    .sum();
                let mut msg = Vec::with_capacity(24 + p.len());
                msg.extend((p.out_byte as u64).to_le_bytes());
                msg.extend((p.len() as u64).to_le_bytes());
                msg.extend(hole.to_le_bytes());
                msg.extend(&buf[p.src_lo..p.src_hi]);
                io_out
                    .send(self.comm, p.rank, self.tags.io_scatter, msg)
                    .await;
            }
        }
        self.pay_throttle(live_bytes, t_read).await;

        // Receive my pieces until complete or the stage deadline.
        let mut io_in = InBox::new();
        let mut out = vec![0u8; requests[rank].out_elems * ELEM_SIZE as usize];
        let mut arrived = 0u64;
        let mut holes = 0u64;
        let mut got = 0usize;
        let deadline = self.comm.now() + rc.policy.stage_deadline;
        let suspect_at = self.comm.now() + rc.policy.suspicion;
        while got < sp.piece_counts[rank] && self.comm.now() < deadline {
            io_out.poll(self.comm).await;
            if let Some((src, frame)) = self
                .comm
                .recv_any_timeout(self.tags.io_scatter, rc.policy.poll)
                .await
            {
                if let Some(body) = io_in.accept(self.comm, src, self.tags.io_ack, &frame).await {
                    let dst = u64::from_le_bytes(body[0..8].try_into().unwrap()) as usize;
                    let nb = u64::from_le_bytes(body[8..16].try_into().unwrap()) as usize;
                    let hole = u64::from_le_bytes(body[16..24].try_into().unwrap());
                    out[dst..dst + nb].copy_from_slice(&body[24..24 + nb]);
                    arrived += nb as u64;
                    holes += hole;
                    got += 1;
                }
            }
            // A silent aggregator (crashed mid-scatter) starves this
            // rank's pieces forever. Past the suspicion window, bypass
            // the two-phase exchange entirely: re-read everything this
            // rank needs straight from the file through the same
            // storage-failover audit the aggregators use — bit-identical
            // bytes, a full stage deadline earlier.
            if got < sp.piece_counts[rank] && self.comm.now() >= suspect_at {
                let (bytes, useful, unrec, fo) = self.read_runs_audited(rank);
                out = bytes;
                arrived = useful;
                holes = unrec;
                failover_bytes += fo;
                self.counters.selfheal_bytes += useful;
                self.counters.recovery_bytes += useful;
                self.comm.mark_instant("recover.io_selfheal", useful);
                break;
            }
        }
        let drain_deadline = self.comm.now() + rc.policy.drain;
        io_out.drain(self.comm, drain_deadline).await;
        self.counters.merge(&io_out.counters);
        self.counters.merge(&io_in.counters);

        let expected = sp.piece_bytes[rank];
        let missing = expected.saturating_sub(arrived);
        let quality = if expected == 0 {
            1.0
        } else {
            1.0 - (missing + holes) as f64 / expected as f64
        };
        RankIo {
            bytes: out,
            quality,
            failover_bytes,
            unrecovered_bytes: missing + holes,
            prefetch_secs: self.windows.as_ref().map_or(0.0, |w| w.io_secs),
        }
    }

    /// Read `rank`'s runs straight from the file, one access per
    /// physical extent; reliable links additionally audit storage faults
    /// per run and zero-fill unrecoverable ranges. Returns the subvolume
    /// byte buffer plus `(useful, unrecovered, failover)` byte counts.
    /// Shared between independent I/O, the scatter self-heal, and
    /// orphan-block adoption — all three produce bit-identical bytes to
    /// a fault-free scatter.
    fn read_runs_audited(&mut self, rank: usize) -> (Vec<u8>, u64, u64, u64) {
        let shared = Arc::clone(&self.shared);
        let req = &shared.requests[rank];
        let extents = self
            .cfg
            .io
            .layout(self.cfg.grid)
            .physical_extents(self.cfg.file_variable(), &shared.stored[rank]);
        let mut out = vec![0u8; req.out_elems * ELEM_SIZE as usize];
        let mut unrecovered = 0u64;
        let mut failover_bytes = 0u64;
        let mut useful = 0u64;
        let links = self.links;
        let counters = &mut self.counters;
        // Frames run on complete dataset files (`write_dataset` renames a
        // finished file into place), so every extent of the layout exists.
        let mut file = File::open(self.path).expect("dataset file exists for the whole frame");
        read_runs(&mut file, &req.runs, &extents, |run, bytes| {
            let nb = bytes.len();
            useful += nb as u64;
            let dst = &mut out[run.out_start * 4..][..nb];
            dst.copy_from_slice(bytes);
            if let LinkMode::Reliable(rc) = links {
                let audit = window_fault_audit(
                    &rc.store,
                    &rc.faults,
                    &rc.rec,
                    Extent::new(run.file_offset, nb as u64),
                );
                counters.io_retries += audit.retries;
                counters.io_failovers += audit.failovers;
                failover_bytes += audit.failover_bytes;
                for lost in &audit.unrecoverable {
                    let lo = lost.offset.max(run.file_offset) - run.file_offset;
                    let hi = lost.end().min(run.file_offset + nb as u64) - run.file_offset;
                    if lo < hi {
                        dst[lo as usize..hi as usize].fill(0);
                        unrecovered += hi - lo;
                    }
                }
            }
        })
        .expect("dataset file holds every physical extent of the frame's layout");
        (out, useful, unrecovered, failover_bytes)
    }

    /// Independent (HDF5-like) path: every rank reads its own runs
    /// directly.
    async fn read_independent(&mut self) -> RankIo {
        let rank = self.comm.rank();
        let t_read = Instant::now();
        let (out, useful, unrecovered, failover_bytes) = self.read_runs_audited(rank);
        self.pay_throttle(useful, t_read).await;
        let quality = if useful == 0 {
            1.0
        } else {
            1.0 - unrecovered as f64 / useful as f64
        };
        RankIo {
            bytes: out,
            quality,
            failover_bytes,
            unrecovered_bytes: unrecovered,
            prefetch_secs: 0.0,
        }
    }

    // --- Render stage ----------------------------------------------

    async fn stage_render(&mut self) -> ControlFlow<()> {
        self.timing.starts[1] = self.t0.elapsed().as_secs_f64();
        self.comm.span_begin("render");
        if self.crash_check(StageId::Render, "render", 1).await {
            return ControlFlow::Break(());
        }
        let rank = self.comm.rank();
        let dom = BlockDomain {
            grid: self.cfg.grid,
            owned: self.shared.owned[rank],
            stored: self.shared.stored[rank],
        };
        let tf = transfer_for(self.cfg);
        let ropts = render_opts(self.cfg);
        let volume = self.volume.take().expect("read stage ran");
        let (sub, rstats) = render_block(&volume, &dom, &self.shared.camera, &tf, &ropts);
        self.comm.mark_instant("render.samples", rstats.samples);
        if rstats.packets > 0 {
            self.comm.mark_instant("render.packets", rstats.packets);
        }
        self.rstats = rstats;
        self.sub = Some(sub);
        match self.links {
            LinkMode::Direct => {
                self.comm.span_end("render");
                if self.barriers {
                    self.comm.barrier().await;
                }
                self.timing.render = self.sw.lap();
            }
            LinkMode::Reliable(_) => {
                self.timing.render = self.sw.lap();
                self.comm.span_end("render");
            }
        }
        ControlFlow::Continue(())
    }

    // --- Recovery orchestration ------------------------------------

    /// Adopt `orphan`'s block: charge the degradation ladder, re-read
    /// the dead rank's subvolume through the storage failover path, and
    /// re-render it at the rung the budget allows. Cached — one render
    /// serves every tile that needs a piece of the block.
    fn adopt_block(&mut self, orphan: usize) -> (Option<SubImage>, f64) {
        if let Some(ab) = self.adopted.get(&orphan) {
            return (ab.sub.clone(), ab.quality);
        }
        let LinkMode::Reliable(rc) = self.links else {
            unreachable!("adoption needs reliable links")
        };
        let policy = rc.policy;
        let cfg = self.cfg;
        let shared = Arc::clone(&self.shared);
        let model = PerfModel::default();
        let est = block_cost(cfg, &model, &shared.owned[orphan]);
        let ab = match self.budget.charge(est, policy.coarse_step_factor) {
            HealDecision::Skip => AdoptedBlock {
                sub: None,
                quality: 0.0,
            },
            rung => {
                let layout = cfg.io.layout(cfg.grid);
                let (bytes, useful, unrecovered, _) = self.read_runs_audited(orphan);
                self.counters.recovery_bytes += useful;
                let vol = decode_volume(&bytes, &shared.stored[orphan], layout.endian());
                let dom = BlockDomain {
                    grid: cfg.grid,
                    owned: shared.owned[orphan],
                    stored: shared.stored[orphan],
                };
                let tf = transfer_for(cfg);
                let mut ropts = render_opts(cfg);
                if rung == HealDecision::Coarse {
                    ropts.step *= policy.coarse_step_factor;
                    self.counters.approx_blocks += 1;
                    let fp = pvr_render::raycast::footprint(
                        &shared.camera,
                        shared.owned[orphan].offset,
                        shared.owned[orphan].end(),
                        cfg.image,
                    );
                    self.error_bound +=
                        fp.num_pixels() as f64 / (cfg.image.0 as f64 * cfg.image.1 as f64);
                }
                let (sub, _) = render_block(&vol, &dom, &shared.camera, &tf, &ropts);
                self.counters.adopted_blocks += 1;
                self.comm
                    .mark_instant("recover.adopted_block", orphan as u64);
                let quality = if useful == 0 {
                    1.0
                } else {
                    1.0 - unrecovered as f64 / useful as f64
                };
                AdoptedBlock {
                    sub: Some(sub),
                    quality,
                }
            }
        };
        let out = (ab.sub.clone(), ab.quality);
        self.adopted.insert(orphan, ab);
        out
    }

    /// Ranks guaranteed to be polling the recovery channel: the
    /// compositor ranks (they serve adoption while waiting for their
    /// own fragments and linger until the frame-complete broadcast)
    /// plus rank 0 (it serves through the gather).
    fn adopter_candidates(&self) -> Vec<usize> {
        let mut c: Vec<usize> = (0..self.m).map(|i| self.compositor_rank(i)).collect();
        if !c.contains(&0) {
            c.push(0);
        }
        c
    }

    /// Serve one adoption request `[orphan, tile]`: reply with a late
    /// fragment of the adopted re-render cropped to the requested tile,
    /// or an explicit refusal when the ladder is out of budget.
    async fn serve_adopt(&mut self, src: usize, body: &[u8], partition: ImagePartition) {
        let orphan = u64::from_le_bytes(body[0..8].try_into().unwrap()) as usize;
        let c = u64::from_le_bytes(body[8..16].try_into().unwrap()) as usize;
        let (sub, quality) = self.adopt_block(orphan);
        let frag = sub.and_then(|s| s.crop(&partition.tile(c)));
        let mut reply = Vec::new();
        reply.extend((orphan as u64).to_le_bytes());
        reply.extend((c as u64).to_le_bytes());
        match frag {
            Some(f) => {
                reply.extend(0u64.to_le_bytes());
                reply.extend(quality.to_le_bytes());
                reply.extend(encode_fragment(orphan, &f));
            }
            None => reply.extend(1u64.to_le_bytes()),
        }
        let rec_out = self.rec_out.as_mut().expect("recovery channel open");
        rec_out.send(self.comm, src, self.tags.late, reply).await;
    }

    /// Absorb one late-arrival reply into my open tile.
    fn accept_late(&mut self, body: &[u8], asm: &mut TileAssembly) {
        let orphan = u64::from_le_bytes(body[0..8].try_into().unwrap()) as usize;
        let c = u64::from_le_bytes(body[8..16].try_into().unwrap()) as usize;
        if c != asm.tile() {
            return;
        }
        if u64::from_le_bytes(body[16..24].try_into().unwrap()) != 0 {
            asm.refuse(orphan);
            return;
        }
        let quality = f64::from_le_bytes(body[24..32].try_into().unwrap());
        let (renderer, frag) = decode_fragment(&body[32..]);
        if asm.insert(renderer, quality, frag) == InsertOutcome::Fresh {
            self.counters.late_fragments += 1;
            self.comm
                .mark_instant("recover.late_fragment", renderer as u64);
        }
    }

    /// Drain the recovery channel: serve adoption requests addressed to
    /// me, absorb late replies into my open tile. Stray replies after
    /// the tile sealed are still acked (so the sender stops
    /// retransmitting) and dropped.
    async fn pump_recovery(
        &mut self,
        partition: ImagePartition,
        mut asm: Option<&mut TileAssembly>,
    ) {
        while let Some((src, frame)) = self.comm.try_recv_any(self.tags.adopt) {
            let rec_in = self.rec_in.as_mut().expect("recovery channel open");
            if let Some(body) = rec_in
                .accept(self.comm, src, self.tags.rec_ack, &frame)
                .await
            {
                self.serve_adopt(src, &body, partition).await;
            }
        }
        while let Some((src, frame)) = self.comm.try_recv_any(self.tags.late) {
            let rec_in = self.rec_in.as_mut().expect("recovery channel open");
            if let Some(body) = rec_in
                .accept(self.comm, src, self.tags.rec_ack, &frame)
                .await
            {
                if let Some(asm) = asm.as_deref_mut() {
                    self.accept_late(&body, asm);
                }
            }
        }
    }

    /// A renderer is suspected dead: pick its deterministic adopter
    /// (every requester computes the same seeded load-aware assignment)
    /// and ask for its fragment of my tile. Self-assignments render
    /// locally. A merely-straggling original that arrives later loses
    /// the race harmlessly: first-wins dedup keeps one copy and the
    /// re-render is deterministic, so either copy is the same pixels.
    async fn request_adoption(
        &mut self,
        orphan: usize,
        tile: usize,
        partition: ImagePartition,
        asm: &mut TileAssembly,
    ) {
        let LinkMode::Reliable(rc) = self.links else {
            return;
        };
        let seed = rc.plan.seed;
        let model = PerfModel::default();
        let loads = render_loads(self.cfg, &model, &self.shared.owned);
        let suspects = asm.missing();
        let candidates = self.adopter_candidates();
        let Some(a) = adopter_of(orphan, &suspects, &candidates, seed, &loads) else {
            return;
        };
        self.counters.hedged_renders += 1;
        self.comm
            .mark_instant("recover.adopt_request", orphan as u64);
        if a == self.comm.rank() {
            let (sub, quality) = self.adopt_block(orphan);
            match sub.and_then(|s| s.crop(&partition.tile(tile))) {
                Some(f) => {
                    if asm.insert(orphan, quality, f) == InsertOutcome::Fresh {
                        self.counters.late_fragments += 1;
                    }
                }
                None => asm.refuse(orphan),
            }
        } else {
            let mut body = Vec::with_capacity(16);
            body.extend((orphan as u64).to_le_bytes());
            body.extend((tile as u64).to_le_bytes());
            let rec_out = self.rec_out.as_mut().expect("recovery channel open");
            rec_out.send(self.comm, a, self.tags.adopt, body).await;
        }
    }

    // --- Composite stage -------------------------------------------

    /// Account one outgoing fragment under the paper's wire pricing:
    /// the cheaper of the dense and sparse encodings (mirroring what
    /// `encode_fragment` actually ships), plus the dense cost the
    /// schedule predicts.
    fn account_fragment(&mut self, frag: &SubImage) {
        let (dense, sparse) = pvr_compositing::piece_wire_bytes(frag, &frag.rect);
        self.sent_dense += dense;
        if sparse < dense {
            self.sparse_msgs += 1;
            self.sent += sparse;
        } else {
            self.sent += dense;
        }
    }

    async fn stage_composite(&mut self) -> ControlFlow<()> {
        self.timing.starts[2] = self.t0.elapsed().as_secs_f64();
        self.comm.span_begin("composite");
        if self.crash_check(StageId::Composite, "composite", 2).await {
            return ControlFlow::Break(());
        }
        let rank = self.comm.rank();
        // The schedule and partition are frame invariants computed once
        // by the driver — no per-rank rebuild.
        let shared = Arc::clone(&self.shared);
        let partition = shared.partition;
        let schedule = &shared.schedule;
        let sub = self.sub.take().expect("render stage ran");
        let quality = self.io.as_ref().map_or(1.0, |io| io.quality);

        match self.links {
            LinkMode::Direct => {
                // Send my fragments.
                for msg in schedule.messages.iter().filter(|m| m.renderer == rank) {
                    let tile = partition.tile(msg.compositor);
                    if let Some(frag) = sub.crop(&tile) {
                        let dst = self.compositor_rank(msg.compositor);
                        self.account_fragment(&frag);
                        self.comm
                            .send(dst, self.tags.fragment, encode_fragment(rank, &frag))
                            .await;
                    }
                }
                // Composite the tile I own, if any. With m <= n the map
                // c -> c*n/m is injective, so a rank owns at most one tile.
                let my_tile = (0..self.m).find(|&c| self.compositor_rank(c) == rank);
                if let Some(c) = my_tile {
                    let expected = schedule
                        .messages
                        .iter()
                        .filter(|mm| mm.compositor == c)
                        .count();
                    let tile = partition.tile(c);
                    let mut frags: Vec<(usize, SubImage)> = Vec::with_capacity(expected);
                    while frags.len() < expected {
                        let (_, data) = self.comm.recv_any(self.tags.fragment).await;
                        let (renderer, frag) = decode_fragment(&data);
                        debug_assert_eq!(frag.rect.intersect(&tile), Some(frag.rect));
                        frags.push((renderer, frag));
                    }
                    let buf = blend_fragments(tile, frags);
                    self.tiles_direct.push((c, buf));
                }
            }
            LinkMode::Reliable(rc) => {
                let policy = rc.policy;
                let lp = policy.link_policy();
                let mut frag_out = OutBox::new(rank, self.tags.frag_ack, lp);
                let mut frag_in = InBox::new();
                self.rec_out = Some(OutBox::new(rank, self.tags.rec_ack, lp));
                self.rec_in = Some(InBox::new());
                // Send my fragments through the reliable link, quality
                // attached.
                for msg in schedule.messages.iter().filter(|mm| mm.renderer == rank) {
                    let tile = partition.tile(msg.compositor);
                    if let Some(frag) = sub.crop(&tile) {
                        let dst = self.compositor_rank(msg.compositor);
                        self.account_fragment(&frag);
                        let mut body = Vec::with_capacity(8 + 48 + frag.pixels.len() * 16);
                        body.extend(quality.to_le_bytes());
                        body.extend(encode_fragment(rank, &frag));
                        frag_out
                            .send(self.comm, dst, self.tags.fragment, body)
                            .await;
                    }
                }
                let my_tile = (0..self.m).find(|&c| self.compositor_rank(c) == rank);
                if let Some(c) = my_tile {
                    let expected: Vec<(usize, f64)> = schedule
                        .messages
                        .iter()
                        .filter(|mm| mm.compositor == c)
                        .map(|mm| (mm.renderer, mm.pixels as f64))
                        .collect();
                    let tile = partition.tile(c);
                    let mut asm = TileAssembly::new(c, tile, expected);
                    let deadline = self.comm.now() + policy.stage_deadline;
                    let suspect_at = self.comm.now() + policy.suspicion;
                    let mut requested: Vec<usize> = Vec::new();
                    while !asm.settled() && self.comm.now() < deadline {
                        frag_out.poll(self.comm).await;
                        if let Some(ro) = self.rec_out.as_mut() {
                            ro.poll(self.comm).await;
                        }
                        if let Some((src, frame)) = self
                            .comm
                            .recv_any_timeout(self.tags.fragment, policy.poll)
                            .await
                        {
                            if let Some(body) = frag_in
                                .accept(self.comm, src, self.tags.frag_ack, &frame)
                                .await
                            {
                                let q = f64::from_le_bytes(body[0..8].try_into().unwrap());
                                let (renderer, frag) = decode_fragment(&body[8..]);
                                asm.insert(renderer, q, frag);
                            }
                        }
                        self.pump_recovery(partition, Some(&mut asm)).await;
                        // Past the suspicion window every renderer still
                        // missing gets one adoption request — a hedge if
                        // it is merely straggling (first-wins dedup makes
                        // the race harmless), a heal if it is dead.
                        if self.comm.now() >= suspect_at {
                            for r in asm.missing() {
                                if !requested.contains(&r) {
                                    requested.push(r);
                                    self.request_adoption(r, c, partition, &mut asm).await;
                                }
                            }
                        }
                    }
                    let expected_area = asm.expected_area();
                    let arrived_area = asm.arrived_area();
                    // Canonical blend order keeps recovered runs
                    // bit-identical: a late-adopted fragment re-blends
                    // exactly as the original would have.
                    let buf = asm.seal().clone();
                    self.tile_reliable = Some((c, expected_area, arrived_area, buf));
                }
                self.frag_out = Some(frag_out);
                self.frag_in = Some(frag_in);
            }
        }
        ControlFlow::Continue(())
    }

    // --- Gather stage ----------------------------------------------

    async fn stage_gather(&mut self) -> ControlFlow<()> {
        let rank = self.comm.rank();
        let cfg = self.cfg;
        let shared = Arc::clone(&self.shared);
        let partition = shared.partition;
        match self.links {
            LinkMode::Direct => {
                // Ship finished tiles to rank 0.
                for (c, buf) in &self.tiles_direct {
                    self.comm
                        .send(0, self.tags.tile, encode_fragment(*c, buf))
                        .await;
                }
                if rank == 0 {
                    let mut img = Image::new(cfg.image.0, cfg.image.1);
                    for _ in 0..self.m {
                        let (_, data) = self.comm.recv_any(self.tags.tile).await;
                        let (_, tile_img) = decode_fragment(&data);
                        img.paste(&tile_img);
                    }
                    self.image = Some(img);
                }
                self.comm.span_end("composite");
                if self.barriers {
                    self.comm.barrier().await;
                }
            }
            LinkMode::Reliable(rc) => {
                let policy = rc.policy;
                let lp = policy.link_policy();
                let mut tile_out = OutBox::new(rank, self.tags.tile_ack, lp);
                let mut frag_out = self.frag_out.take().expect("composite stage ran");
                // Ship my finished tile to rank 0 over the reliable link.
                if let Some((c, expected_area, arrived_area, buf)) = &self.tile_reliable {
                    let mut body = Vec::with_capacity(24 + 48 + buf.pixels.len() * 16);
                    body.extend((*c as u64).to_le_bytes());
                    body.extend(expected_area.to_le_bytes());
                    body.extend(arrived_area.to_le_bytes());
                    body.extend(encode_fragment(*c, buf));
                    tile_out.send(self.comm, 0, self.tags.tile, body).await;
                }

                // Rank 0 gathers tiles until the deadline, serving
                // adoption on the side; a tile whose compositor died is
                // rebuilt locally from adopted re-renders rather than
                // written off.
                if rank == 0 {
                    let tile_sources: Vec<Vec<(usize, f64)>> = {
                        let schedule = &shared.schedule;
                        let mut v = vec![Vec::new(); self.m];
                        for msg in &schedule.messages {
                            v[msg.compositor].push((msg.renderer, msg.pixels as f64));
                        }
                        v
                    };
                    let expected_areas: Vec<f64> = tile_sources
                        .iter()
                        .map(|s| s.iter().map(|(_, px)| *px).sum())
                        .collect();
                    let mut tile_in = InBox::new();
                    let mut img = Image::new(cfg.image.0, cfg.image.1);
                    let mut got: Vec<Option<(f64, f64)>> = vec![None; self.m];
                    let mut received = 0usize;
                    let deadline = self.comm.now() + policy.stage_deadline;
                    // The local rebuild waits two suspicion windows: a
                    // missing tile's compositor may itself be mid-
                    // adoption, which needs one suspicion round plus a
                    // re-render to finish.
                    let rebuild_at = self.comm.now() + policy.suspicion * 2;
                    let mut rebuilt = false;
                    while received < self.m && self.comm.now() < deadline {
                        frag_out.poll(self.comm).await;
                        tile_out.poll(self.comm).await;
                        if let Some(ro) = self.rec_out.as_mut() {
                            ro.poll(self.comm).await;
                        }
                        if let Some((src, frame)) = self
                            .comm
                            .recv_any_timeout(self.tags.tile, policy.poll)
                            .await
                        {
                            if let Some(body) = tile_in
                                .accept(self.comm, src, self.tags.tile_ack, &frame)
                                .await
                            {
                                let c = u64::from_le_bytes(body[0..8].try_into().unwrap()) as usize;
                                let expected = f64::from_le_bytes(body[8..16].try_into().unwrap());
                                let arrived = f64::from_le_bytes(body[16..24].try_into().unwrap());
                                let (_, tile_img) = decode_fragment(&body[24..]);
                                // First-wins: a locally rebuilt tile is
                                // already pasted and bit-identical to the
                                // real one; a late real tile is dropped.
                                if got[c].is_none() {
                                    img.paste(&tile_img);
                                    got[c] = Some((expected, arrived));
                                    received += 1;
                                }
                            }
                        }
                        self.pump_recovery(partition, None).await;
                        if !rebuilt && self.comm.now() >= rebuild_at && received < self.m {
                            rebuilt = true;
                            for c in 0..self.m {
                                if got[c].is_some() || expected_areas[c] == 0.0 {
                                    continue;
                                }
                                let tile = partition.tile(c);
                                let mut asm = TileAssembly::new(c, tile, tile_sources[c].clone());
                                for (r, _) in &tile_sources[c] {
                                    let (sub, quality) = self.adopt_block(*r);
                                    match sub.and_then(|s| s.crop(&tile)) {
                                        Some(f) => {
                                            asm.insert(*r, quality, f);
                                        }
                                        None => asm.refuse(*r),
                                    }
                                }
                                let (ea, aa) = (asm.expected_area(), asm.arrived_area());
                                img.paste(asm.seal());
                                got[c] = Some((ea, aa));
                                received += 1;
                                self.counters.adopted_tiles += 1;
                                self.comm.mark_instant("recover.tile_rebuilt", c as u64);
                            }
                        }
                    }
                    let tiles = (0..self.m)
                        .map(|c| {
                            let (expected, arrived) = got[c].unwrap_or_else(|| {
                                if expected_areas[c] > 0.0 {
                                    self.counters.degraded_tiles += 1;
                                }
                                (expected_areas[c], 0.0)
                            });
                            TileCompleteness {
                                tile: c,
                                rect: Some(partition.tile(c)),
                                expected,
                                arrived,
                            }
                        })
                        .collect();
                    self.counters.merge(&tile_in.counters);
                    if self.counters.degraded_tiles > 0 {
                        self.comm
                            .mark_instant("composite.degraded_tiles", self.counters.degraded_tiles);
                    }
                    self.image = Some(img);
                    self.completeness = Some(CompletenessMap { tiles });
                    // Frame complete: release the lingering compositors.
                    let helpers: Vec<usize> = self
                        .adopter_candidates()
                        .into_iter()
                        .filter(|r| *r != 0)
                        .collect();
                    for h in helpers {
                        let rec_out = self.rec_out.as_mut().expect("recovery channel open");
                        rec_out.send(self.comm, h, self.tags.done, Vec::new()).await;
                    }
                } else if self.tile_reliable.is_some() {
                    // Lingering compositor: my tile is shipped, but
                    // another compositor may still need me to adopt an
                    // orphan. Keep serving the recovery channel until
                    // rank 0 declares the frame complete (or the stage
                    // deadline passes — rank 0 may itself be dead).
                    let deadline = self.comm.now() + policy.stage_deadline;
                    let mut done = false;
                    while !done && self.comm.now() < deadline {
                        frag_out.poll(self.comm).await;
                        tile_out.poll(self.comm).await;
                        if let Some(ro) = self.rec_out.as_mut() {
                            ro.poll(self.comm).await;
                        }
                        if let Some((src, frame)) = self
                            .comm
                            .recv_any_timeout(self.tags.done, policy.poll)
                            .await
                        {
                            let rec_in = self.rec_in.as_mut().expect("recovery channel open");
                            if rec_in
                                .accept(self.comm, src, self.tags.rec_ack, &frame)
                                .await
                                .is_some()
                            {
                                done = true;
                            }
                        }
                        self.pump_recovery(partition, None).await;
                    }
                }

                // Grace period: finish delivering whatever is still in
                // flight, then account the casualties.
                let drain_deadline = self.comm.now() + policy.drain;
                frag_out.drain(self.comm, drain_deadline).await;
                tile_out.drain(self.comm, drain_deadline).await;
                self.counters.merge(&frag_out.counters);
                if let Some(frag_in) = &self.frag_in {
                    self.counters.merge(&frag_in.counters);
                }
                self.counters.merge(&tile_out.counters);
                if let Some(mut ro) = self.rec_out.take() {
                    ro.drain(self.comm, drain_deadline).await;
                    self.counters.merge(&ro.counters);
                }
                if let Some(ri) = self.rec_in.take() {
                    self.counters.merge(&ri.counters);
                }
                self.timing.composite = self.sw.lap();
                self.comm.span_end("composite");
            }
        }
        ControlFlow::Continue(())
    }
}

impl StageExec for RankExec<'_> {
    type Out = RankOut;

    fn begin(&mut self) {
        self.sw = Stopwatch::start();
        self.t0 = Instant::now();
        self.comm.span_begin("frame");
    }

    async fn stage(&mut self, stage: StageId) -> ControlFlow<()> {
        match stage {
            StageId::Read => self.stage_read().await,
            StageId::Render => self.stage_render().await,
            StageId::Composite => self.stage_composite().await,
            StageId::Gather => self.stage_gather().await,
        }
    }

    fn finish(mut self) -> RankOut {
        if self.crashed {
            let mut out = RankOut::crashed(self.timing);
            out.counters.merge(&self.counters);
            out.render = self.rstats;
            if let Some(io) = &self.io {
                out.io_failover_bytes = io.failover_bytes;
                out.io_unrecovered_bytes = io.unrecovered_bytes;
            }
            return out;
        }
        if matches!(self.links, LinkMode::Direct) {
            self.comm.span_end("frame");
            self.timing.composite = self.sw.lap();
        } else {
            self.comm.span_end("frame");
        }
        self.timing.error_bound = self.error_bound;
        self.timing.wall = self.t0.elapsed().as_secs_f64();
        RankOut {
            image: self.image,
            completeness: self.completeness,
            timing: self.timing,
            render: self.rstats,
            sent_bytes: self.sent,
            sent_dense_bytes: self.sent_dense,
            sparse_messages: self.sparse_msgs,
            counters: self.counters,
            io_failover_bytes: self.io.as_ref().map_or(0, |io| io.failover_bytes),
            io_unrecovered_bytes: self.io.as_ref().map_or(0, |io| io.unrecovered_bytes),
        }
    }
}

// ---------------------------------------------------------------------
// The one driver
// ---------------------------------------------------------------------

/// Executor choice for [`drive_frame`].
pub enum ExecChoice<'a> {
    /// Data-parallel in one address space, optionally span-traced.
    Rayon { tracer: &'a Tracer },
    /// Message passing: one thread per rank, with the link mode
    /// selecting plain or fault-tolerant transport.
    Mpi {
        opts: pvr_mpisim::RunOptions,
        links: LinkMode,
    },
}

/// One frame, fully configured.
pub struct Driver<'a> {
    pub plan: FramePlan,
    pub exec: ExecChoice<'a>,
    /// Always-on flight recorder the frame's verdict, incidents, and
    /// anomaly dumps are mirrored onto. The disabled recorder costs
    /// nothing; callers that want dumps pass an enabled one and drain
    /// it with [`pvr_obs::FlightRecorder::take_dumps`].
    pub flight: pvr_obs::FlightRecorder,
}

/// Everything [`drive_frame`] produces.
pub struct DriveOutput {
    pub frame: FrameResult,
    /// Per-tile completeness (reliable links only).
    pub completeness: Option<CompletenessMap>,
    /// The message trace (message-passing executor with `opts.trace`).
    pub trace: Option<pvr_mpisim::trace::TraceLog>,
    /// Event-core scheduler counters (message-passing executor on the
    /// event backend; `None` on rayon and the thread oracle).
    pub sim: Option<pvr_mpisim::SimStats>,
}

/// Expected blended area per tile, derivable by any rank (and the
/// driver) from the configuration alone — fault-independent.
pub(crate) fn expected_tile_areas(cfg: &FrameConfig, n: usize, m: usize) -> Vec<f64> {
    let partition = ImagePartition::new(cfg.image.0, cfg.image.1, m);
    let camera = Camera::orthographic(cfg.grid, default_view(), cfg.image.0, cfg.image.1);
    let decomp = pvr_volume::BlockDecomposition::new(cfg.grid, n);
    let blocks = decomp.blocks();
    let footprints: Vec<pvr_render::image::PixelRect> = (0..n)
        .map(|r| {
            pvr_render::raycast::footprint(
                &camera,
                blocks[r].sub.offset,
                blocks[r].sub.end(),
                cfg.image,
            )
        })
        .collect();
    let schedule = build_schedule(&footprints, partition);
    let mut areas = vec![0.0f64; m];
    for msg in &schedule.messages {
        areas[msg.compositor] += msg.pixels as f64;
    }
    areas
}

/// Assemble one frame's driver-side result from the per-rank outputs.
/// `reliable` selects the fault-tolerant accounting (merged recovery
/// counters, completeness, rank-0-crash degradation). `plan_incidents`
/// are the caller's located fault-plan observations (crashes,
/// suspicious straggles); per-rank counter incidents (ladder
/// activations, I/O failovers) are derived here, and the frame's SLO
/// verdict is evaluated against the perfmodel budgets and recorded in
/// the returned timing.
pub(crate) fn assemble_frame(
    cfg: &FrameConfig,
    mut results: Vec<RankOut>,
    reliable: bool,
    plan_incidents: &[crate::slo::Incident],
) -> (
    FrameResult,
    Option<CompletenessMap>,
    Vec<crate::slo::Incident>,
) {
    let m = cfg.compositors();
    let n = cfg.nprocs;
    // Per-rank stage times and located incidents, before rank 0's
    // output is consumed: the SLO gate judges the slowest rank of each
    // stage, not just the root's stopwatch.
    let per_rank: Vec<[f64; 3]> = results
        .iter()
        .map(|r| [r.timing.io, r.timing.render, r.timing.composite])
        .collect();
    let mut incidents = plan_incidents.to_vec();
    for (rank, r) in results.iter().enumerate() {
        crate::slo::counter_incidents(rank, &r.counters, &mut incidents);
    }
    let mut render = pvr_render::raycast::RenderStats::default();
    for r in &results {
        render.merge(&r.render);
    }
    let sent_bytes: u64 = results.iter().map(|r| r.sent_bytes).sum();
    let sent_dense_bytes: u64 = results.iter().map(|r| r.sent_dense_bytes).sum();
    let sparse_messages: usize = results.iter().map(|r| r.sparse_messages).sum();
    let mut recovery = RecoveryCounters::default();
    let mut failover_bytes = 0u64;
    let mut unrecovered_bytes = 0u64;
    let mut error_bound = 0.0f64;
    for r in &results {
        recovery.merge(&r.counters);
        failover_bytes += r.io_failover_bytes;
        unrecovered_bytes += r.io_unrecovered_bytes;
        error_bound += r.timing.error_bound;
    }
    let root = results.remove(0);
    let mut timing = root.timing;
    timing.recovery = recovery;
    // Coarse-rung heals may double-count overlapping footprints; the
    // bound stays a bound when clamped to the whole image.
    timing.error_bound = error_bound.min(1.0);
    timing.slo = Some(crate::slo::annotate(
        cfg,
        &crate::slo::FrameSample {
            stage_secs: [timing.io, timing.render, timing.composite],
            per_rank: &per_rank,
            incidents: &incidents,
        },
    ));

    let (image, completeness) = if reliable {
        // A crashed rank 0 cannot deliver an image: the frame degrades
        // to an empty image with zero completeness on every populated
        // tile.
        match (root.image, root.completeness) {
            (Some(img), Some(map)) => (img, Some(map)),
            _ => {
                let partition = ImagePartition::new(cfg.image.0, cfg.image.1, m);
                let expected = expected_tile_areas(cfg, n, m);
                let tiles = (0..m)
                    .map(|c| TileCompleteness {
                        tile: c,
                        rect: Some(partition.tile(c)),
                        expected: expected[c],
                        arrived: 0.0,
                    })
                    .collect();
                (
                    Image::new(cfg.image.0, cfg.image.1),
                    Some(CompletenessMap { tiles }),
                )
            }
        }
    } else {
        (root.image.expect("rank 0 holds the image"), None)
    };

    let io = if reliable {
        IoRunStats {
            retries: recovery.io_retries,
            failover_bytes,
            unrecovered_bytes,
            ..IoRunStats::default()
        }
    } else {
        IoRunStats::default()
    };

    (
        FrameResult {
            image,
            timing,
            io,
            render_samples: render.samples,
            render_skipped: render.skipped_samples,
            render_packets: render.packets,
            render_eval_lanes: render.packet_eval_lanes,
            render_eval_slots: render.packet_eval_slots,
            render_terminated: render.terminated_rays,
            render_error_bound: render.error_bound as f64,
            composite: DirectSendStats {
                messages: 0,
                bytes: sent_bytes,
                dense_bytes: sent_dense_bytes,
                sparse_messages,
                per_compositor: Vec::new(),
            },
        },
        completeness,
        incidents,
    )
}

/// Run one frame: the single implementation behind every legacy entry
/// point. `path` is required by the message-passing executor; the rayon
/// executor synthesizes block data procedurally when it is `None`.
pub fn drive_frame(
    cfg: &FrameConfig,
    path: Option<&Path>,
    driver: Driver<'_>,
) -> Result<DriveOutput, FtError> {
    let flight = driver.flight;
    flight.begin_frame();
    match driver.exec {
        ExecChoice::Rayon { tracer } => {
            let input = match path {
                Some(p) => FrameInput::File(p),
                None => FrameInput::Synthetic,
            };
            let frame = pvr_mpisim::block_on_ready(execute(
                &driver.plan,
                RayonExec::new(cfg, input, tracer, None),
            ));
            if let Some(slo) = &frame.timing.slo {
                crate::slo::record_frame_flight(&flight, slo, &[], &frame.timing.recovery);
            }
            Ok(DriveOutput {
                frame,
                completeness: None,
                trace: None,
                sim: None,
            })
        }
        ExecChoice::Mpi { opts, links } => {
            let path = path
                .expect("message-passing executor needs a dataset file")
                .to_path_buf();
            let cfg = *cfg;
            let n = cfg.nprocs;
            let reliable = matches!(links, LinkMode::Reliable(_));
            // Located incidents from the injected plan: a crash or
            // suspicious straggle attributes to its injection site
            // even when hedging kept the frame fast.
            let plan_incidents = match &links {
                LinkMode::Reliable(rc) => {
                    crate::slo::incidents_from_plan(n, &rc.plan, rc.policy.suspicion)
                }
                LinkMode::Direct => Vec::new(),
            };
            let opts = if let LinkMode::Reliable(rc) = &links {
                opts.with_injector(PlanInjector::arc(rc.plan.clone()))
            } else {
                opts
            };
            let plan = driver.plan;
            // Frame invariants computed once, shared by all n ranks:
            // without this each rank re-derives O(n) geometry/schedule
            // state and the world is O(n²) — fatal at 32K ranks.
            let shared = Arc::new(FrameShared::new(&cfg));
            let cfg_ref = &cfg;
            let path_ref = &path;
            let links_ref = &links;
            let plan_ref = &plan;
            let shared_ref = &shared;
            let out = pvr_mpisim::World::run_opts(n, opts, move |mut comm| async move {
                let exec = RankExec::new(
                    &mut comm,
                    cfg_ref,
                    path_ref,
                    links_ref,
                    FrameTags::for_frame(0),
                    !reliable,
                    None,
                    None,
                    Arc::clone(shared_ref),
                );
                execute(plan_ref, exec).await
            })
            .map_err(FtError::Runtime)?;
            let (mut frame, completeness, incidents) =
                assemble_frame(&cfg, out.results, reliable, &plan_incidents);
            if let (Some(slo), Some(trace)) = (&mut frame.timing.slo, &out.trace) {
                crate::slo::refine_summary_with_trace(slo, trace);
            }
            if let Some(slo) = &frame.timing.slo {
                crate::slo::record_frame_flight(&flight, slo, &incidents, &frame.timing.recovery);
            }
            Ok(DriveOutput {
                frame,
                completeness,
                trace: out.trace,
                sim: out.sim,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_plan_is_valid_and_orders_stages() {
        let p = FramePlan::standard();
        assert_eq!(
            p.stages(),
            &[
                StageId::Read,
                StageId::Render,
                StageId::Composite,
                StageId::Gather
            ]
        );
        assert_eq!(FramePlan::new(p.stages().to_vec()), Ok(p));
    }

    #[test]
    fn plan_validation_rejects_bad_orders() {
        assert_eq!(
            FramePlan::new(vec![
                StageId::Render,
                StageId::Read,
                StageId::Composite,
                StageId::Gather
            ]),
            Err(PlanError::DependencyOrder {
                stage: StageId::Render,
                needs: StageId::Read
            })
        );
        assert_eq!(
            FramePlan::new(vec![StageId::Read, StageId::Read]),
            Err(PlanError::Duplicate(StageId::Read))
        );
        assert_eq!(
            FramePlan::new(vec![StageId::Read, StageId::Render, StageId::Composite]),
            Err(PlanError::Missing(StageId::Gather))
        );
    }

    #[test]
    fn frame_zero_tags_equal_the_legacy_constants() {
        let t = FrameTags::for_frame(0);
        assert_eq!(t.io_scatter, tags::IO_SCATTER);
        assert_eq!(t.fragment, tags::FRAGMENT);
        assert_eq!(t.tile, tags::TILE);
        assert_eq!(t.io_ack, tags::IO_ACK);
        assert_eq!(t.frag_ack, tags::FRAG_ACK);
        assert_eq!(t.tile_ack, tags::TILE_ACK);
    }

    #[test]
    fn tag_epochs_are_disjoint_and_invertible() {
        let mut seen = std::collections::HashSet::new();
        for frame in 0..32 {
            let t = FrameTags::for_frame(frame);
            for tag in [
                t.io_scatter,
                t.fragment,
                t.tile,
                t.io_ack,
                t.frag_ack,
                t.tile_ack,
                t.adopt,
                t.late,
                t.rec_ack,
                t.done,
            ] {
                assert!(seen.insert(tag), "tag {tag} collides across frames");
                assert_eq!(FrameTags::frame_of(tag), frame);
            }
            assert_eq!(FrameTags::base_of(t.fragment), tags::FRAGMENT);
        }
        let table = FrameTags::table(4);
        assert_eq!(table.len(), 40);
        assert!(table.iter().any(|(_, n)| n == "frame3/tile"));
    }

    #[test]
    fn epoch_tags_name_back_to_pipeline_stages() {
        let t = FrameTags::for_frame(2);
        assert_eq!(FrameTags::name_of(t.fragment).unwrap(), "frame2/fragment");
        assert_eq!(FrameTags::name_of(t.tile_ack).unwrap(), "frame2/tile-ack");
        assert_eq!(
            FrameTags::name_of(tags::IO_SCATTER).unwrap(),
            "frame0/io-scatter"
        );
        assert_eq!(FrameTags::name_of(0), None);
        assert_eq!(FrameTags::name_of(t.adopt).unwrap(), "frame2/adopt");
        assert_eq!(FrameTags::name_of(t.done).unwrap(), "frame2/done");
        // 11..=16 are unassigned slots of epoch 0.
        assert_eq!(FrameTags::name_of(11), None);

        let streams = t.wildcard_streams();
        assert_eq!(streams.len(), 3);
        assert!(streams.iter().all(|(tag, _)| {
            let b = FrameTags::base_of(*tag);
            b == tags::IO_SCATTER || b == tags::FRAGMENT || b == tags::TILE
        }));
    }

    #[test]
    fn fault_stage_mapping_preserves_plan_indices() {
        assert_eq!(StageId::Read.fault_stage(), Some(Stage::Io));
        assert_eq!(StageId::Render.fault_stage(), Some(Stage::Render));
        assert_eq!(StageId::Composite.fault_stage(), Some(Stage::Composite));
        assert_eq!(StageId::Gather.fault_stage(), None);
    }
}

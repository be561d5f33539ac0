//! # pvr-core — the end-to-end parallel volume rendering pipeline
//!
//! This crate is the paper's *application*: the three sequential stages
//! — collective I/O, local ray-casting, direct-send compositing — glued
//! together, instrumented, and runnable two ways:
//!
//! * [`scheduler::drive_frame`] — **real execution** at laptop scale,
//!   the one driver every frame runs through: `n` logical ranks
//!   (threads) read a real file through the two-phase collective
//!   engine, render their blocks, and composite, either data-parallel
//!   or as a pure message-passing world on `pvr-mpisim` that exchanges
//!   real pixel fragments rank-to-rank, healthy or under a fault plan.
//!   Wall-clock timings and images come out; [`pipeline`] holds the
//!   one-call entry points ([`run_frame`], [`run_frame_mpi`], …).
//! * [`perfmodel`] — **simulated execution** at paper scale (64 … 32K
//!   cores, 1120³ … 4480³ grids): the identical schedules (I/O access
//!   plans, direct-send message lists) are generated and priced on the
//!   BG/P machine model. This regenerates Figures 3–7 and Table II.
//!
//! [`config`] defines frame configurations (grid, image, process count,
//! I/O mode, compositor policy); [`timing`] defines the per-stage
//! timing reports both executors share.

pub mod anim;
pub mod config;
pub mod ft;
pub mod perfmodel;
pub mod pipeline;
pub mod recovery;
pub mod roles;
pub mod scheduler;
pub mod slo;
pub mod timing;

pub use anim::{
    run_animation, write_animation, AnimExecutor, AnimFaults, AnimFrame, AnimOptions, AnimResult,
};
pub use config::{CompositorPolicy, FrameConfig, IoMode};
pub use ft::{laptop_store, DegradedFrame, FtError};
pub use perfmodel::{simulate_frame, PerfModel, Placement, SimFrameResult};
pub use pipeline::{
    run_frame, run_frame_mpi, run_frame_mpi_profiled, run_frame_mpi_sim, run_frame_traced,
    shared_dataset, write_dataset, FrameResult, ProfiledFrame,
};
pub use recovery::{
    adopter_of, block_cost, effective_policy, frame_block_costs, render_loads, HealDecision,
    RecoveryBudget,
};
pub use roles::{bgp_io_nodes, compositor_rank, laptop_aggregators};
pub use scheduler::{
    drive_frame, DriveOutput, Driver, ExecChoice, FrameTags, LinkMode, StageId, EPOCH_STRIDE,
};
pub use slo::{stage_budgets, FrameSample, FrameSlo, SloPolicy, Verdict};
pub use timing::FrameTiming;

//! Fault-tolerant end-to-end execution: the storage model, error and
//! degraded-frame types of frames driven under
//! [`LinkMode::Reliable`](crate::scheduler::LinkMode).
//!
//! A fault-tolerant frame is the same stage-graph frame as any other —
//! one driver, [`crate::scheduler::drive_frame`] — configured for a
//! hostile machine. On the message-passing executor every receive has a
//! deadline, every data message travels through the `pvr-faults` link
//! layer (checksummed frames, positive acks, bounded exponential-backoff
//! retransmission, duplicate suppression), storage reads retry and fail
//! over to stripe replicas. On the rayon executor the plan's rank faults
//! apply. Both run the same recovery orchestrator and produce a
//! per-tile [`CompletenessMap`] instead of silently hanging on missing
//! input.
//!
//! The contract, verified by the integration tests and the
//! `fault_sweep` benchmark:
//!
//! * **Transient faults heal exactly.** If every injected fault is
//!   survivable (dropped attempts < retry budget, stragglers < stage
//!   deadline, down servers covered by replicas), the frame is
//!   bit-identical to the fault-free run and completeness is 1.0 —
//!   retransmitted frames carry identical bodies and compositors blend
//!   in a canonical (depth, renderer) order, so recovery leaves no
//!   pixel trace.
//! * **Permanent faults degrade, never hang.** Crashed ranks, dead
//!   links, and unreplicated server loss surface as completeness < 1.0
//!   with the missing area attributed to specific tiles, and the run
//!   terminates within its stage deadlines — no barrier is ever posted
//!   and no receive is untimed, so the mpisim deadlock detector and
//!   watchdog stay quiet.
//! * **Everything replays.** All fault behaviour derives from
//!   `(seed, FaultPlan)`; a run with the same plan and policy produces
//!   the same image and the same completeness map.

use pvr_compositing::completeness::CompletenessMap;
use pvr_faults::RecoveryCounters;
use pvr_pfs::StripedStore;
use pvr_render::image::Image;

use crate::timing::FrameTiming;

/// A striped-store description matched to laptop-scale test files: 8
/// servers with 64 KiB stripes, so even a few-megabyte dataset spreads
/// across every server and per-server faults have distinct footprints.
/// (The default [`StripedStore`] models ANL's 4 MiB stripes, which
/// would put an entire small test file on server 0.)
pub fn laptop_store() -> StripedStore {
    StripedStore {
        servers: 8,
        stripe_unit: 64 << 10,
        server_bw: 370.0e6,
        request_overhead: 0.5e-3,
    }
}

/// A frame that completed but lost content permanently.
#[derive(Debug)]
pub struct DegradedFrame {
    pub image: Image,
    pub completeness: CompletenessMap,
    pub counters: RecoveryCounters,
    pub timing: FrameTiming,
}

/// Why a frame did not produce a pristine image.
#[derive(Debug)]
pub enum FtError {
    /// The world itself failed (deadlock report or watchdog stall) —
    /// under the ft protocol this indicates a bug, and the recovery
    /// proptests assert it never happens.
    Runtime(pvr_mpisim::RunError),
    /// The frame completed with completeness < 1.0 (strict mode only,
    /// see [`DriveOutput::strict`](crate::scheduler::DriveOutput::strict)).
    Degraded(Box<DegradedFrame>),
    /// The rayon executor could not read the dataset: a missing file,
    /// or one shorter than the frame's layout.
    Io(std::io::Error),
}

impl std::fmt::Display for FtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtError::Runtime(e) => write!(f, "runtime failure: {e}"),
            FtError::Degraded(d) => write!(
                f,
                "degraded frame: completeness {:.4}, {} tile(s) incomplete",
                d.completeness.frame_fraction(),
                d.completeness
                    .tiles
                    .iter()
                    .filter(|t| t.fraction() < 1.0)
                    .count()
            ),
            FtError::Io(e) => write!(f, "dataset read failed: {e}"),
        }
    }
}

impl std::error::Error for FtError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CompositorPolicy, FrameConfig, IoMode};
    use crate::pipeline::{run_frame, run_frame_mpi, tags, write_dataset};
    use crate::scheduler::{drive_frame, DriveOutput, Driver, ExecChoice, LinkMode};
    use pvr_faults::{
        FaultPlan, LinkAction, LinkFault, Pat, RankAction, RankFault, RecoveryPolicy, Stage,
    };
    use pvr_obs::{FlightRecorder, Tracer};
    use std::path::Path;

    fn ft_frame(
        exec: ExecChoice<'_>,
        cfg: &FrameConfig,
        path: &Path,
        plan: &FaultPlan,
        policy: &RecoveryPolicy,
    ) -> Result<DriveOutput, FtError> {
        let driver = Driver {
            exec,
            links: LinkMode::reliable(plan.clone(), *policy, laptop_store()),
            flight: FlightRecorder::disabled(),
        };
        drive_frame(cfg, Some(path), driver)
    }

    fn mpi_ft(
        cfg: &FrameConfig,
        path: &Path,
        plan: &FaultPlan,
        policy: &RecoveryPolicy,
    ) -> Result<DriveOutput, FtError> {
        let opts = pvr_mpisim::RunOptions::default();
        ft_frame(ExecChoice::Mpi { opts }, cfg, path, plan, policy)
    }

    fn rayon_ft(
        cfg: &FrameConfig,
        path: &Path,
        plan: &FaultPlan,
        policy: &RecoveryPolicy,
    ) -> Result<DriveOutput, FtError> {
        let tracer = Tracer::disabled();
        ft_frame(
            ExecChoice::Rayon { tracer: &tracer },
            cfg,
            path,
            plan,
            policy,
        )
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("pvr-ft-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d.join(name)
    }

    fn test_cfg() -> FrameConfig {
        let mut cfg = FrameConfig::small(16, 24, 8);
        cfg.variable = 2;
        cfg.policy = CompositorPolicy::Fixed(4);
        cfg
    }

    #[test]
    fn healthy_plan_matches_plain_mpi_bit_for_bit() {
        let cfg = test_cfg();
        let p = tmp("healthy.raw");
        write_dataset(&p, &cfg).unwrap();
        let plain = run_frame_mpi(&cfg, &p);
        let ft = mpi_ft(&cfg, &p, &FaultPlan::none(), &RecoveryPolicy::fast_test()).unwrap();
        assert_eq!(plain.image.pixels(), ft.frame.image.pixels());
        assert!(ft.completeness.as_ref().unwrap().fully_complete());
        // Spurious retransmits can happen under scheduler load (an ack
        // arriving just after its timeout) and are harmless — but
        // nothing may be lost, degraded, or crashed on a healthy plan.
        let rec = ft.frame.timing.recovery;
        assert_eq!(rec.timeouts, 0);
        assert_eq!(rec.corrupt_dropped, 0);
        assert_eq!(rec.degraded_tiles, 0);
        assert_eq!(rec.crashed_ranks, 0);
        assert_eq!(rec.io_retries, 0);
        assert_eq!(rec.io_failovers, 0);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn transient_drops_recover_bit_identically_with_retries() {
        let cfg = test_cfg();
        let p = tmp("transient.raw");
        write_dataset(&p, &cfg).unwrap();
        let plain = run_frame_mpi(&cfg, &p);
        let plan = FaultPlan {
            seed: 5,
            links: vec![
                LinkFault {
                    src: Pat::Is(1),
                    dst: Pat::Any,
                    tag: Some(tags::FRAGMENT),
                    action: LinkAction::DropFirst(2),
                },
                LinkFault {
                    src: Pat::Any,
                    dst: Pat::Is(2),
                    tag: Some(tags::IO_SCATTER),
                    action: LinkAction::DropFirst(1),
                },
            ],
            ranks: vec![RankFault {
                rank: 3,
                stage: Stage::Render,
                action: RankAction::StraggleMs(30),
            }],
            ..FaultPlan::default()
        };
        let ft = mpi_ft(&cfg, &p, &plan, &RecoveryPolicy::fast_test()).unwrap();
        assert_eq!(
            plain.image.pixels(),
            ft.frame.image.pixels(),
            "transient faults must heal without a pixel trace"
        );
        assert!(ft.completeness.as_ref().unwrap().fully_complete());
        assert!(ft.frame.timing.recovery.retries > 0, "recovery did work");
        assert_eq!(ft.frame.timing.recovery.timeouts, 0);
        std::fs::remove_file(&p).ok();
    }

    fn crash_plan(rank: usize, stage: Stage, seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ranks: vec![RankFault {
                rank,
                stage,
                action: RankAction::Crash,
            }],
            ..FaultPlan::default()
        }
    }

    #[test]
    fn crashed_renderer_heals_bit_identically_via_adoption() {
        let cfg = test_cfg();
        let p = tmp("crash.raw");
        write_dataset(&p, &cfg).unwrap();
        let plain = run_frame_mpi(&cfg, &p);
        let plan = crash_plan(5, Stage::Composite, 9);
        let ft = mpi_ft(&cfg, &p, &plan, &RecoveryPolicy::fast_test()).unwrap();
        assert_eq!(
            plain.image.pixels(),
            ft.frame.image.pixels(),
            "a single crashed renderer must heal without a pixel trace"
        );
        assert!(ft.completeness.as_ref().unwrap().fully_complete());
        let rec = ft.frame.timing.recovery;
        assert_eq!(rec.crashed_ranks, 1);
        assert!(rec.adopted_blocks >= 1, "a survivor adopted the block");
        assert!(
            rec.late_fragments >= 1,
            "the heal travelled as late fragments"
        );
        assert!(rec.recovery_bytes > 0);
        assert_eq!(rec.degraded_tiles, 0);
        assert_eq!(ft.frame.timing.error_bound, 0.0, "full heal has no error");
        // Strict mode accepts the healed frame.
        mpi_ft(&cfg, &p, &plan, &RecoveryPolicy::fast_test())
            .and_then(DriveOutput::strict)
            .expect("healed frame passes strict mode");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn crashed_compositor_tile_is_rebuilt_by_rank0() {
        let cfg = test_cfg();
        let p = tmp("crash-comp.raw");
        write_dataset(&p, &cfg).unwrap();
        let plain = run_frame_mpi(&cfg, &p);
        // Rank 6 owns a tile under Fixed(4) on 8 ranks (c*8/4 = 0,2,4,6).
        let plan = crash_plan(6, Stage::Composite, 11);
        let ft = mpi_ft(&cfg, &p, &plan, &RecoveryPolicy::fast_test()).unwrap();
        assert_eq!(
            plain.image.pixels(),
            ft.frame.image.pixels(),
            "a dead compositor's tile is rebuilt at the root, bit-identically"
        );
        assert!(ft.completeness.as_ref().unwrap().fully_complete());
        let rec = ft.frame.timing.recovery;
        assert_eq!(rec.crashed_ranks, 1);
        assert!(rec.adopted_tiles >= 1, "rank 0 rebuilt the orphan tile");
        assert!(rec.adopted_blocks >= 1);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn straggler_is_hedged_and_the_frame_does_not_wait_for_it() {
        let cfg = test_cfg();
        let p = tmp("straggle.raw");
        write_dataset(&p, &cfg).unwrap();
        let plain = run_frame_mpi(&cfg, &p);
        let plan = FaultPlan {
            seed: 4,
            ranks: vec![RankFault {
                rank: 3,
                stage: Stage::Composite,
                action: RankAction::StraggleMs(1200),
            }],
            ..FaultPlan::default()
        };
        let ft = mpi_ft(&cfg, &p, &plan, &RecoveryPolicy::fast_test()).unwrap();
        assert_eq!(
            plain.image.pixels(),
            ft.frame.image.pixels(),
            "hedged duplicate renders are deterministic: the race cannot show"
        );
        assert!(ft.completeness.as_ref().unwrap().fully_complete());
        let rec = ft.frame.timing.recovery;
        assert!(rec.hedged_renders >= 1, "suspicion fired a hedge");
        assert!(
            ft.frame.timing.wall < 1.2,
            "the frame must not wait out the {}s straggle (wall {}s)",
            1.2,
            ft.frame.timing.wall
        );
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn degradation_ladder_steps_coarse_then_skip_on_a_shrinking_budget() {
        let cfg = test_cfg();
        let p = tmp("ladder.raw");
        write_dataset(&p, &cfg).unwrap();
        let plan = crash_plan(5, Stage::Composite, 9);
        let model = crate::perfmodel::PerfModel::default();
        let owned: Vec<_> = crate::pipeline::geometry(&cfg).owned;
        let est = crate::recovery::block_cost(&cfg, &model, &owned[5]);
        assert!(est > 0.0);

        // Budget in (est/4, est): only the coarse rung fits. The frame
        // stays complete but reports an explicit error bound.
        let mut policy = RecoveryPolicy::fast_test();
        policy.frame_budget = Some(est * 0.5);
        let ft = mpi_ft(&cfg, &p, &plan, &policy).unwrap();
        assert!(ft.completeness.as_ref().unwrap().fully_complete());
        let rec = ft.frame.timing.recovery;
        assert!(rec.approx_blocks >= 1, "coarse rung taken");
        assert!(
            ft.frame.timing.error_bound > 0.0,
            "coarse heal reports its error bound"
        );

        // Budget below est/4: the ladder refuses; the hole is explicit
        // in the completeness map and the frame still terminates.
        let mut policy = RecoveryPolicy::fast_test();
        policy.frame_budget = Some(est * 0.1);
        let ft = mpi_ft(&cfg, &p, &plan, &policy).unwrap();
        assert!(!ft.completeness.as_ref().unwrap().fully_complete());
        assert_eq!(ft.frame.timing.recovery.approx_blocks, 0);
        assert_eq!(ft.frame.timing.error_bound, 0.0);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn rayon_ft_heals_crashes_and_walks_the_same_ladder() {
        let cfg = test_cfg();
        let p = tmp("rayon-ft.raw");
        write_dataset(&p, &cfg).unwrap();
        let plain = run_frame_mpi(&cfg, &p);
        let plan = crash_plan(5, Stage::Render, 13);

        // Unbounded budget: full heal, bit-identical.
        let ft = rayon_ft(&cfg, &p, &plan, &RecoveryPolicy::fast_test()).unwrap();
        assert_eq!(plain.image.pixels(), ft.frame.image.pixels());
        assert!(ft.completeness.as_ref().unwrap().fully_complete());
        assert_eq!(ft.frame.timing.recovery.crashed_ranks, 1);
        assert_eq!(ft.frame.timing.recovery.adopted_blocks, 1);

        // Coarse budget: complete with an error bound.
        let model = crate::perfmodel::PerfModel::default();
        let owned: Vec<_> = crate::pipeline::geometry(&cfg).owned;
        let est = crate::recovery::block_cost(&cfg, &model, &owned[5]);
        let mut policy = RecoveryPolicy::fast_test();
        policy.frame_budget = Some(est * 0.5);
        let ft = rayon_ft(&cfg, &p, &plan, &policy).unwrap();
        assert!(ft.completeness.as_ref().unwrap().fully_complete());
        assert_eq!(ft.frame.timing.recovery.approx_blocks, 1);
        assert!(ft.frame.timing.error_bound > 0.0);

        // No budget: the block is skipped and completeness says so.
        policy.frame_budget = Some(0.0);
        let ft = rayon_ft(&cfg, &p, &plan, &policy).unwrap();
        assert!(!ft.completeness.as_ref().unwrap().fully_complete());
        assert_eq!(ft.frame.timing.recovery.adopted_blocks, 0);
        std::fs::remove_file(&p).ok();

        // A healthy plan does the plain frame's work, on every read path.
        for mode in IoMode::ALL {
            let mut cfg = cfg;
            cfg.io = mode;
            let p = tmp(&format!("rayon-ft-healthy.{}", mode.name()));
            write_dataset(&p, &cfg).unwrap();
            let plain = run_frame(&cfg, Some(&p));
            let ft = rayon_ft(&cfg, &p, &FaultPlan::none(), &RecoveryPolicy::fast_test()).unwrap();
            let name = mode.name();
            assert_eq!(plain.image.pixels(), ft.frame.image.pixels(), "{name}");
            assert_eq!(plain.render, ft.frame.render, "{name}");
            let (a, b) = (plain.io, ft.frame.io);
            assert_eq!(
                (
                    a.useful_bytes,
                    a.physical_bytes,
                    a.accesses,
                    a.exchange_bytes
                ),
                (
                    b.useful_bytes,
                    b.physical_bytes,
                    b.accesses,
                    b.exchange_bytes
                ),
                "{name}"
            );
            assert_eq!(a.data_density, b.data_density, "{name}");
            assert_eq!(plain.composite, ft.frame.composite, "{name}");
            let map = ft.completeness.unwrap();
            assert!(map.tiles.iter().all(|t| t.fraction() == 1.0), "{name}");
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn down_server_with_failover_is_invisible_down_without_is_not() {
        let cfg = test_cfg();
        let p = tmp("server.raw");
        write_dataset(&p, &cfg).unwrap();
        let plain = run_frame_mpi(&cfg, &p);
        let plan = FaultPlan {
            seed: 3,
            servers: vec![pvr_faults::ServerFault {
                server: 0,
                action: pvr_faults::ServerAction::Down,
            }],
            ..FaultPlan::default()
        };
        // With failover: bit-identical, replica bytes accounted.
        let ft = mpi_ft(&cfg, &p, &plan, &RecoveryPolicy::fast_test()).unwrap();
        assert_eq!(plain.image.pixels(), ft.frame.image.pixels());
        assert!(ft.completeness.as_ref().unwrap().fully_complete());
        assert!(ft.frame.io.failover_bytes > 0);
        assert!(ft.frame.io.retries > 0);
        assert_eq!(ft.frame.io.unrecovered_bytes, 0);
        // Without failover: data is lost, completeness drops, run ends.
        let mut policy = RecoveryPolicy::fast_test();
        policy.io_failover = false;
        let ft = mpi_ft(&cfg, &p, &plan, &policy).unwrap();
        assert!(ft.frame.io.unrecovered_bytes > 0);
        assert!(!ft.completeness.as_ref().unwrap().fully_complete());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn rank0_crash_yields_empty_frame_with_zero_completeness() {
        let cfg = test_cfg();
        let p = tmp("root.raw");
        write_dataset(&p, &cfg).unwrap();
        let plan = FaultPlan {
            seed: 1,
            ranks: vec![RankFault {
                rank: 0,
                stage: Stage::Io,
                action: RankAction::Crash,
            }],
            ..FaultPlan::default()
        };
        let ft = mpi_ft(&cfg, &p, &plan, &RecoveryPolicy::fast_test()).unwrap();
        assert!(ft.frame.image.pixels().iter().all(|px| *px == [0.0; 4]));
        assert!(ft.completeness.as_ref().unwrap().frame_fraction() < 1.0);
        assert!(ft.frame.timing.recovery.crashed_ranks >= 1);
        std::fs::remove_file(&p).ok();
    }
}

//! End-to-end SLO + flight-recorder acceptance: an injected fault
//! plan must produce a `Violated` verdict attributed to the injection
//! site on BOTH executors, and the anomaly dump of a manual-clock
//! recorder must be byte-identical across runs (pinned by a golden
//! file; regenerate with `PVR_UPDATE_GOLDEN=1`).

use std::path::PathBuf;

use pvr_core::config::CompositorPolicy;
use pvr_core::ft::laptop_store;
use pvr_core::pipeline::write_dataset;
use pvr_core::slo::Cause;
use pvr_core::{drive_frame, DriveOutput, Driver, ExecChoice, FrameConfig, LinkMode, Verdict};
use pvr_faults::{FaultPlan, RankAction, RankFault, RecoveryPolicy, Stage};
use pvr_obs::{FlightRecorder, Tracer};

/// One frame under `plan` with reliable links and the fast-test
/// recovery policy, recording onto `flight`.
fn ft_frame(
    exec: ExecChoice<'_>,
    cfg: &FrameConfig,
    path: &std::path::Path,
    plan: &FaultPlan,
    flight: &FlightRecorder,
) -> DriveOutput {
    let links = LinkMode::reliable(plan.clone(), RecoveryPolicy::fast_test(), laptop_store());
    let driver = Driver {
        exec,
        links,
        flight: flight.clone(),
    };
    drive_frame(cfg, Some(path), driver).unwrap()
}

fn mpi() -> ExecChoice<'static> {
    ExecChoice::Mpi {
        opts: pvr_mpisim::RunOptions::default(),
    }
}

fn tmp(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pvr-slo-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d.join(name)
}

fn test_cfg() -> FrameConfig {
    let mut cfg = FrameConfig::small(16, 24, 8);
    cfg.variable = 2;
    cfg.policy = CompositorPolicy::Fixed(4);
    cfg
}

fn straggle_plan() -> FaultPlan {
    FaultPlan {
        seed: 4,
        ranks: vec![RankFault {
            rank: 3,
            stage: Stage::Composite,
            action: RankAction::StraggleMs(1200),
        }],
        ..FaultPlan::default()
    }
}

fn crash_plan() -> FaultPlan {
    FaultPlan {
        seed: 13,
        ranks: vec![RankFault {
            rank: 5,
            stage: Stage::Render,
            action: RankAction::Crash,
        }],
        ..FaultPlan::default()
    }
}

/// Compare `actual` against `tests/golden/<name>`; regenerate the file
/// when `PVR_UPDATE_GOLDEN=1` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("PVR_UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "golden file {} unreadable ({e}); run with PVR_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "flight dump drifted from {}; if intentional, regenerate with PVR_UPDATE_GOLDEN=1",
        path.display()
    );
}

#[test]
fn mpi_straggler_violates_slo_at_the_injection_site() {
    let cfg = test_cfg();
    let p = tmp("mpi-straggle.raw");
    write_dataset(&p, &cfg).unwrap();
    let flight = FlightRecorder::wall(256);
    let ft = ft_frame(mpi(), &cfg, &p, &straggle_plan(), &flight);
    let slo = ft.frame.timing.slo.expect("ft frames carry a verdict");
    assert_eq!(slo.verdict, Verdict::Violated);
    assert_eq!(
        (slo.stage, slo.rank),
        (Some(2), Some(3)),
        "attribution must name the injected (stage, rank)"
    );
    assert_eq!(slo.cause, Some(Cause::Straggler));
    // The violation dumped the ring.
    let dumps = flight.take_dumps();
    assert_eq!(dumps.len(), 1);
    assert_eq!(dumps[0].reason, "slo-violation");
    assert!(dumps[0].json.contains("\"name\":\"rank.straggle\""));
    assert!(dumps[0].json.contains("\"name\":\"frame.slo\""));
    std::fs::remove_file(&p).ok();
}

#[test]
fn mpi_crash_is_attributed_even_though_recovery_healed_it() {
    let cfg = test_cfg();
    let p = tmp("mpi-crash.raw");
    write_dataset(&p, &cfg).unwrap();
    let flight = FlightRecorder::wall(256);
    let ft = ft_frame(mpi(), &cfg, &p, &crash_plan(), &flight);
    let slo = ft.frame.timing.slo.expect("ft frames carry a verdict");
    assert_eq!(slo.verdict, Verdict::Violated);
    assert_eq!((slo.stage, slo.rank), (Some(1), Some(5)));
    assert_eq!(slo.cause, Some(Cause::Crash));
    let dumps = flight.take_dumps();
    assert_eq!(dumps.len(), 1);
    assert_eq!(dumps[0].reason, "rank-crash");
    assert!(dumps[0].json.contains("\"name\":\"rank.crash\""));
    std::fs::remove_file(&p).ok();
}

#[test]
fn rayon_ft_matches_the_mpi_attribution_for_the_same_plans() {
    let cfg = test_cfg();
    let p = tmp("rayon-attr.raw");
    write_dataset(&p, &cfg).unwrap();

    // Straggler: hedged, so the wall clock never sees the 1.2 s — the
    // located incident must still violate and attribute.
    let ft = ft_frame(
        ExecChoice::Rayon {
            tracer: &Tracer::disabled(),
        },
        &cfg,
        &p,
        &straggle_plan(),
        &FlightRecorder::disabled(),
    );
    let slo = ft.frame.timing.slo.unwrap();
    assert_eq!(slo.verdict, Verdict::Violated);
    assert_eq!((slo.stage, slo.rank), (Some(2), Some(3)));
    assert_eq!(slo.cause, Some(Cause::Straggler));

    // Crash: healed bit-identically, still attributed to rank 5.
    let flight = FlightRecorder::wall(64);
    let ft = ft_frame(
        ExecChoice::Rayon {
            tracer: &Tracer::disabled(),
        },
        &cfg,
        &p,
        &crash_plan(),
        &flight,
    );
    assert!(
        ft.completeness.as_ref().unwrap().fully_complete(),
        "crash healed"
    );
    let slo = ft.frame.timing.slo.unwrap();
    assert_eq!(slo.verdict, Verdict::Violated);
    assert_eq!((slo.stage, slo.rank), (Some(1), Some(5)));
    assert_eq!(slo.cause, Some(Cause::Crash));
    assert_eq!(flight.take_dumps()[0].reason, "rank-crash");
    std::fs::remove_file(&p).ok();
}

#[test]
fn healthy_frames_are_not_anomalies() {
    let cfg = test_cfg();
    let p = tmp("healthy.raw");
    write_dataset(&p, &cfg).unwrap();
    let flight = FlightRecorder::wall(64);
    let ft = ft_frame(
        ExecChoice::Rayon {
            tracer: &Tracer::disabled(),
        },
        &cfg,
        &p,
        &FaultPlan::none(),
        &flight,
    );
    let slo = ft.frame.timing.slo.unwrap();
    // No incidents on a healthy plan; the cause can only be raw time.
    assert_ne!(slo.cause, Some(Cause::Crash));
    assert_ne!(slo.cause, Some(Cause::Straggler));
    assert!(
        flight.events_recorded() > 0,
        "the recorder is always on: verdicts land in the ring"
    );
    std::fs::remove_file(&p).ok();
}

#[test]
fn manual_clock_flight_dump_is_golden() {
    let cfg = test_cfg();
    let p = tmp("golden.raw");
    write_dataset(&p, &cfg).unwrap();
    let run = || {
        let flight = FlightRecorder::manual(64);
        ft_frame(
            ExecChoice::Rayon {
                tracer: &Tracer::disabled(),
            },
            &cfg,
            &p,
            &straggle_plan(),
            &flight,
        );
        let dumps = flight.take_dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].reason, "slo-violation");
        dumps[0].json.clone()
    };
    let a = run();
    assert_eq!(a, run(), "manual-clock dumps must be deterministic");
    assert_golden("flight_dump_straggler.json", &a);
    std::fs::remove_file(&p).ok();
}

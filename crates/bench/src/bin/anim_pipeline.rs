//! Animation pipelining — sequential vs. double-buffered time steps.
//!
//! The paper's Table II shows the frame is ≥95% I/O at scale; its
//! future-work section points at overlapping time steps to hide it.
//! This bench runs a short animation both ways (strictly sequential
//! frames vs. prefetching frame `t+1` while frame `t` renders and
//! composites) on **both** executors, against a throttled store that
//! reproduces the I/O-dominated regime, and reports:
//!
//! * wall clock and frames/second for each mode, plus simulated
//!   seconds on the message-passing executor,
//! * the I/O-hiding fraction (how much of the summed read time never
//!   appeared on the wall clock),
//! * the measured prefetch/compute span overlap from the wall-clock
//!   trace, exported as a Perfetto timeline artifact.
//!
//! Self-checks: pipelining must not be slower than sequential on this
//! I/O-dominated configuration — in host wall time on the rayon
//! executor, in simulated time (`AnimResult::sim_secs`) on the
//! message-passing one, whose throttled reads are virtual-time waits
//! (its host wall is printed as info only) — must hide a nonzero
//! amount of I/O, and every pipelined frame must hash bit-identically
//! to an independent single-frame run of the same file — pipelining
//! changes wall clock, never pixels. `--ci` shrinks to the smoke
//! configuration (8 ranks, 4 frames) the `anim-pipeline` CI job runs.

use pvr_bench::{check, write_artifact, CsvOut};
use pvr_core::{
    run_animation, run_frame, run_frame_mpi, write_animation, AnimOptions, AnimResult,
    CompositorPolicy, FrameConfig,
};
use pvr_obs::{perfetto, span_overlap, Tracer};
use pvr_render::image::Image;

/// FNV-1a over the image's pixel bytes — a stable content hash for
/// bit-identity checks.
fn image_hash(img: &Image) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for px in img.pixels() {
        for c in px {
            for b in c.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        }
    }
    h
}

fn frame_hashes(r: &AnimResult) -> Vec<u64> {
    r.frames
        .iter()
        .map(|f| image_hash(&f.result.image))
        .collect()
}

fn main() {
    let ci = std::env::args().any(|a| a == "--ci");
    // 8 ranks, laptop-scale grid; the throttle floors every read so
    // I/O dominates the frame the way the paper's Table II reports.
    // Image size sets the compute per frame, the throttle sets the I/O
    // per frame; they are balanced so the reads are long enough to be
    // worth hiding and the renders long enough to hide them under.
    let (grid, image, frames, bytes_per_sec) = if ci {
        (16, 256, 4, 400_000.0)
    } else {
        (24, 384, 6, 600_000.0)
    };
    let mut cfg = FrameConfig::small(grid, image, 8);
    cfg.policy = CompositorPolicy::Fixed(4);

    let dir = std::env::temp_dir().join(format!("pvr-anim-pipeline-{}", std::process::id()));
    let paths = write_animation(&dir, &cfg, frames).expect("write animation steps");

    let mut csv = CsvOut::create(
        "anim_pipeline",
        "executor,mode,frames,wall_s,fps,stage_sum_s,io_sum_s,io_hidden_frac,sim_s",
    );
    let mut all = true;
    let mut chk = |name: &str, ok: bool, detail: &str| {
        all &= ok;
        check(name, ok, detail);
    };

    let throttle = |o: AnimOptions| o.throttled(bytes_per_sec);
    let mut emit = |executor: &str, mode: &str, r: &AnimResult| {
        csv.row(&format!(
            "{executor},{mode},{},{:.4},{:.2},{:.4},{:.4},{:.3},{}",
            r.frames.len(),
            r.wall,
            r.fps(),
            r.stage_sum(),
            r.io_sum(),
            r.io_hidden_fraction(),
            r.sim_secs.map_or(String::new(), |s| format!("{s:.4}")),
        ));
    };

    // --- Rayon executor, traced so the overlap is visible. ---
    let seq = run_animation(&cfg, &paths, &throttle(AnimOptions::rayon()).sequential())
        .expect("sequential rayon animation");
    let tracer = Tracer::wall();
    let pipe = run_animation(
        &cfg,
        &paths,
        &throttle(AnimOptions::rayon()).traced(&tracer),
    )
    .expect("pipelined rayon animation");
    emit("rayon", "sequential", &seq);
    emit("rayon", "pipelined", &pipe);

    chk(
        "rayon pipelined not slower",
        pipe.wall <= seq.wall,
        &format!("pipelined {:.3}s vs sequential {:.3}s", pipe.wall, seq.wall),
    );
    chk(
        "rayon hides I/O",
        pipe.io_hidden_fraction() > 0.0,
        &format!("hidden fraction {:.3}", pipe.io_hidden_fraction()),
    );

    // Bit-identity against independent single-frame runs.
    let independent: Vec<u64> = paths
        .iter()
        .enumerate()
        .map(|(t, p)| {
            let mut step = cfg;
            step.seed = cfg.seed.wrapping_add(t as u64);
            image_hash(&run_frame(&step, Some(p)).image)
        })
        .collect();
    chk(
        "rayon pipelined frames bit-identical to independent frames",
        frame_hashes(&pipe) == independent,
        &format!("{} frames", frames),
    );

    // Measured overlap between the prefetch reads and frame compute,
    // from the wall-clock spans; exported for ui.perfetto.dev.
    let profile = tracer.finish();
    let ov = span_overlap(&profile, &["io.read"], &["render", "composite"]);
    chk(
        "prefetch reads overlap compute in the trace",
        ov.both > 0,
        &format!(
            "{} µs of {} µs reads under compute ({:.0}%)",
            ov.both,
            ov.a_total,
            100.0 * ov.a_hidden_fraction()
        ),
    );
    let json = perfetto::to_json(&profile);
    perfetto::validate(&json).expect("trace JSON validates");
    write_artifact("anim_pipeline.trace.json", json.as_bytes());

    // --- Message-passing executor: same comparison, per-rank window
    // prefetch under epoch tags. ---
    let seq_mpi = run_animation(&cfg, &paths, &throttle(AnimOptions::mpi()).sequential())
        .expect("sequential mpi animation");
    let pipe_mpi = run_animation(&cfg, &paths, &throttle(AnimOptions::mpi()))
        .expect("pipelined mpi animation");
    emit("mpi", "sequential", &seq_mpi);
    emit("mpi", "pipelined", &pipe_mpi);

    // On the event core host wall time is simulator overhead: the
    // throttled reads are virtual-time waits. Gate on the simulated
    // clock the executor models; host wall is info only.
    let sim = |r: &AnimResult| r.sim_secs.expect("mpi animations report simulated time");
    chk(
        "mpi pipelined not slower (simulated time)",
        sim(&pipe_mpi) <= sim(&seq_mpi),
        &format!(
            "pipelined {:.3}s vs sequential {:.3}s",
            sim(&pipe_mpi),
            sim(&seq_mpi)
        ),
    );
    println!(
        "# info: mpi host wall: pipelined {:.3}s vs sequential {:.3}s",
        pipe_mpi.wall, seq_mpi.wall
    );
    let independent_mpi: Vec<u64> = paths
        .iter()
        .enumerate()
        .map(|(t, p)| {
            let mut step = cfg;
            step.seed = cfg.seed.wrapping_add(t as u64);
            image_hash(&run_frame_mpi(&step, p).image)
        })
        .collect();
    chk(
        "mpi pipelined frames bit-identical to independent frames",
        frame_hashes(&pipe_mpi) == independent_mpi,
        &format!("{} frames", frames),
    );
    chk(
        "executors agree on every frame",
        frame_hashes(&pipe_mpi) == frame_hashes(&pipe),
        "mpi vs rayon image hashes",
    );

    std::fs::remove_dir_all(&dir).ok();
    if !all {
        std::process::exit(1);
    }
}

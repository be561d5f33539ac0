//! The repository benchmark. See README.md for the workloads, the
//! metrics, and which layer each workload stresses or bypasses.
//!
//! ```text
//! perfbench --workload <movie-render|io-layouts|sim-4096|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that reports the per-layer
//! metrics. Either way every frame's image is hashed against an oracle
//! image computed at set-up on an independent path. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `all` runs each workload in its own process, one after another.
//! Exits 1 if any frame failed or differed from its oracle, 2 on a
//! usage error.

mod layers;
mod setup;
mod stats;
mod timed;

use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

use setup::{RunDir, Workload};

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 3;

const USAGE: &str = "usage: perfbench --workload <movie-render|io-layouts|sim-4096|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    raw: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {val}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match val.as_str() {
                    "all" => None,
                    name => Some(Workload::parse(name).ok_or_else(|| bad("workload"))?),
                })
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        raw,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => match run_one(w, &args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", w.name());
                ExitCode::FAILURE
            }
        },
        None => run_all(&args),
    }
}

/// Run every workload, each in a fresh process of this binary, so each
/// one's peak memory is its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut child_args = args.raw.clone();
        let i = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed --workload");
        child_args[i + 1] = w.name().to_string();
        let status = Command::new(&exe).args(&child_args).status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload; `Ok(false)` when any check failed.
fn run_one(w: Workload, args: &Args) -> std::io::Result<bool> {
    let tag = w.name();
    println!("{}", provenance(w, args));
    let dir = RunDir::create(w)?;

    if args.trace {
        let inputs = setup::generate(w, args.seed, &dir.path().join("inputs"))?;
        let oracle = timed::oracle(w, &inputs).ok_or_else(|| io_err("an oracle frame failed"))?;
        let out_dir = Path::new(".bench_out");
        std::fs::create_dir_all(out_dir)?;
        let trace_path = out_dir.join(format!("{tag}-seed{}.trace.json", args.seed));
        let rep = layers::run(w, &inputs, &oracle, args.seconds, &trace_path);
        for note in &rep.notes {
            println!("[{tag}] {note}");
        }
        let mut metrics = Vec::new();
        for ((name, unit), v) in layers::METRICS.iter().zip(&rep.values) {
            println!("[{tag}] {name:<28} = {v} {unit}");
            metrics.push((*name, *v, *unit));
        }
        let correct = rep.failed == 0;
        println!(
            "{}",
            result_json(correct, rep.attempted, rep.failed, &metrics)
        );
        return Ok(correct);
    }

    // Set up several times; the last set-up's datasets are measured.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for k in 0..SETUPS {
        let sub = dir.path().join(format!("setup{k}"));
        let t = Instant::now();
        let generated = setup::generate(w, args.seed, &sub)?;
        if !timed::warm_up(w, &generated) {
            return Err(io_err("the warm-up frame failed"));
        }
        setup_s.push(t.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            std::fs::remove_dir_all(&sub)?;
        }
        inputs = Some(generated);
    }
    let inputs = inputs.expect("at least one set-up");
    let t = Instant::now();
    let oracle = timed::oracle(w, &inputs).ok_or_else(|| io_err("an oracle frame failed"))?;
    println!(
        "[{tag}] oracle: {} reference frame(s) in {:.3} s",
        oracle.len(),
        t.elapsed().as_secs_f64()
    );

    let run = timed::run(w, &inputs, &oracle, args.seconds);
    let (tail, pct, n) = stats::tail(&run.latencies);
    let metrics = vec![
        ("frames_per_s", stats::median(&run.pass_rates), "1/s"),
        ("frame_p50_s", stats::median(&run.latencies), "s"),
        ("frame_tail_s", tail, "s"),
        ("setup_s", stats::median(&setup_s), "s"),
        ("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0), "MB"),
    ];
    for (name, v, unit) in &metrics {
        println!("[{tag}] {name:<14} = {v} {unit}");
    }
    println!("[{tag}] frame_tail_s is p{pct:.1} of {n} frame latencies");
    println!(
        "[{tag}] error_rate     = {} fraction ({} failed, {} differ from the oracle, of {} frames)",
        run.error_rate(),
        run.failed,
        run.mismatched,
        run.attempted
    );
    let failed = run.failed + run.mismatched;
    let correct = failed == 0 && !run.latencies.is_empty();
    println!("{}", result_json(correct, run.attempted, failed, &metrics));
    Ok(correct)
}

fn io_err(msg: &str) -> std::io::Error {
    std::io::Error::other(msg.to_string())
}

/// Where and how this result was measured, as one JSON line.
fn provenance(w: Workload, args: &Args) -> String {
    let cmd = |prog: &str, a: &[&str]| -> Option<String> {
        let out = Command::new(prog).args(a).output().ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let host_threads = cmd("nproc", &[])
        .and_then(|s| s.parse::<usize>().ok())
        .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
        .unwrap_or(0);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let commit = cmd("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"executor\": \"{}\", \"host_threads\": {host_threads}, \"cpu_model\": \"{}\", \
         \"git_commit\": \"{}\"}}}}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.executor(),
        escape(&cpu),
        escape(&commit)
    )
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            _ => vec![c],
        })
        .collect()
}

/// The result line. Non-finite values (which JSON cannot carry) turn
/// the result incorrect.
fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        correct && finite,
        body.join(", ")
    )
}

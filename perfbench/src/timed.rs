//! The untraced, end-to-end side: the oracle images, the warm-up
//! frame, and the timed loop of each workload.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pvr_core::pipeline::run_frame_mpi_sim;
use pvr_core::{run_animation, run_frame, AnimOptions, AnimResult, FrameConfig, FrameResult};
use pvr_mpisim::SimStats;
use pvr_render::raycast::Termination;

use crate::setup::{Inputs, Workload};
use crate::stats::image_hash;

/// Least work a timed run does whatever `--seconds` says, so every
/// run has at least eleven latency samples (the tail needs ten beyond
/// it) and, on `io-layouts`, whole cycles of the five layouts with at
/// least eleven HDF5 frames (so the tail lands on the slowest layout
/// every time instead of on a boundary between layouts).
fn min_passes(w: Workload) -> usize {
    match w {
        Workload::MovieRender => 3,
        Workload::IoLayouts => 11,
        Workload::Sim4096 => 11,
    }
}

/// One frame of a workload on its own executor.
fn frame(w: Workload, cfg: &FrameConfig, path: &Path) -> Option<FrameResult> {
    match w {
        Workload::MovieRender | Workload::IoLayouts => rayon_frame(cfg, path),
        Workload::Sim4096 => sim_frame(cfg, path).map(|(f, _)| f),
    }
}

/// A rayon frame. That executor signals failure by panicking, so a
/// panic counts as a failed frame.
pub fn rayon_frame(cfg: &FrameConfig, path: &Path) -> Option<FrameResult> {
    catch_unwind(AssertUnwindSafe(|| run_frame(cfg, Some(path)))).ok()
}

/// A frame on the discrete-event message-passing core, with the
/// world's scheduler counters.
pub fn sim_frame(cfg: &FrameConfig, path: &Path) -> Option<(FrameResult, SimStats)> {
    catch_unwind(AssertUnwindSafe(|| {
        run_frame_mpi_sim(cfg, path, pvr_mpisim::RunOptions::default()).ok()
    }))
    .ok()
    .flatten()
    .and_then(|(f, s)| Some((f, s?)))
}

/// Run a whole pipelined movie (`movie-render` only).
pub fn movie(inputs: &Inputs) -> Option<AnimResult> {
    let paths: Vec<PathBuf> = inputs.frames.iter().map(|(_, p)| p.clone()).collect();
    let cfg = &inputs.frames[0].0;
    catch_unwind(AssertUnwindSafe(|| {
        run_animation(cfg, &paths, &AnimOptions::rayon()).ok()
    }))
    .ok()
    .flatten()
}

/// Reference image hash of every frame of one pass, each computed on
/// a path independent of the one timed: the scalar kernel without
/// early termination for the rayon workloads, the rayon executor for
/// `sim-4096`. `None` if an oracle frame fails.
pub fn oracle(w: Workload, inputs: &Inputs) -> Option<Vec<u64>> {
    inputs
        .frames
        .iter()
        .map(|(cfg, path)| {
            let cfg = match w {
                Workload::MovieRender | Workload::IoLayouts => FrameConfig {
                    packet_width: 1,
                    termination: Termination::Off,
                    ..*cfg
                },
                Workload::Sim4096 => *cfg,
            };
            Some(image_hash(&rayon_frame(&cfg, path)?.image))
        })
        .collect()
}

/// The warm-up frame that ends each set-up: the workload's first frame
/// on its own executor, untimed.
pub fn warm_up(w: Workload, inputs: &Inputs) -> bool {
    let (cfg, path) = &inputs.frames[0];
    frame(w, cfg, path).is_some()
}

/// What a timed run measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Frame latencies (s), read start to final image.
    pub latencies: Vec<f64>,
    /// Frames attempted, failed outright, and finished with an image
    /// that differs from the oracle's.
    pub attempted: usize,
    pub failed: usize,
    pub mismatched: usize,
    /// Frames completed per wall second of each pass (a movie, a
    /// cycle of the layouts, or a frame).
    pub pass_rates: Vec<f64>,
}

impl Timed {
    pub fn completed(&self) -> usize {
        self.attempted - self.failed
    }

    /// Failed plus mismatched frames, over frames attempted.
    pub fn error_rate(&self) -> f64 {
        (self.failed + self.mismatched) as f64 / self.attempted.max(1) as f64
    }
}

/// Run `w` for at least `seconds` (and at least [`min_passes`] passes
/// over its frames), hashing every frame against `oracle`.
pub fn run(w: Workload, inputs: &Inputs, oracle: &[u64], seconds: f64) -> Timed {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut out = Timed::default();
    let mut passes = 0;
    while start.elapsed() < budget || passes < min_passes(w) {
        passes += 1;
        let pass = Instant::now();
        let completed = out.completed();
        if w == Workload::MovieRender {
            let res = movie(inputs);
            out.attempted += inputs.frames.len();
            match res {
                Some(anim) if anim.frames.len() == inputs.frames.len() => {
                    out.mismatched += anim
                        .frames
                        .iter()
                        .zip(oracle)
                        .filter(|(f, want)| image_hash(&f.result.image) != **want)
                        .count();
                    out.latencies.extend(pipelined_latencies(&anim));
                }
                _ => out.failed += inputs.frames.len(),
            }
        } else {
            for ((cfg, path), want) in inputs.frames.iter().zip(oracle) {
                let t = Instant::now();
                let res = frame(w, cfg, path);
                let dt = t.elapsed().as_secs_f64();
                out.attempted += 1;
                match res {
                    Some(f) => {
                        out.mismatched += usize::from(image_hash(&f.image) != *want);
                        out.latencies.push(dt);
                    }
                    None => out.failed += 1,
                }
            }
        }
        let frames = (out.completed() - completed) as f64;
        out.pass_rates.push(frames / pass.elapsed().as_secs_f64());
    }
    out
}

/// Per-frame latency of a pipelined movie, from the start of the
/// frame's read to its final image. `run_animation` keeps one read in
/// flight: frame `t`'s read starts as frame `t-1` starts executing,
/// and frame `t` executes once both are done. So
/// `latency(t) = max(exec(t-1), read(t)) + exec(t)`, with
/// `latency(0) = read(0) + exec(0)`, where `exec` is the frame's wall
/// span and `read` its prefetch read (its I/O stage time less the
/// in-frame decode, which runs from the read stage's start to the
/// render stage's start).
fn pipelined_latencies(anim: &AnimResult) -> Vec<f64> {
    let exec: Vec<f64> = anim
        .frames
        .iter()
        .map(|f| f.result.timing.elapsed())
        .collect();
    let read: Vec<f64> = anim
        .frames
        .iter()
        .map(|f| {
            let t = &f.result.timing;
            (t.io - (t.starts[1] - t.starts[0])).max(0.0)
        })
        .collect();
    (0..exec.len())
        .map(|t| {
            let before = if t == 0 {
                read[0]
            } else {
                exec[t - 1].max(read[t])
            };
            before + exec[t]
        })
        .collect()
}

//! Figure 1 — "Visualization of the X component of velocity in a
//! core-collapse supernova."
//!
//! Renders the synthetic supernova's X velocity end to end (write the
//! raw time step, collective-read it back, ray cast, direct-send
//! composite) and writes `results/fig1_velocity_x.ppm`, self-checking
//! the image has the figure's qualitative content: a bipolar
//! (blue/red) velocity structure with a turbulent interior, over a
//! transparent background.

use pvr_bench::{check, write_artifact, CsvOut};
use pvr_core::{run_frame, write_dataset, FrameConfig, IoMode};

fn main() {
    let mut cfg = FrameConfig::small(160, 512, 64);
    cfg.variable = 2; // X velocity
    cfg.io = IoMode::Raw;

    let dir = std::env::temp_dir().join("pvr-fig1");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("step1530.raw");
    let bytes = write_dataset(&path, &cfg).expect("write time step");
    println!(
        "# wrote {:.1} MB raw time step ({}^3)",
        bytes as f64 / 1e6,
        cfg.grid[0]
    );

    let frame = run_frame(&cfg, Some(&path));
    println!("# frame: {}", frame.timing);

    // Fast-path counters: how much sampling work the macrocell/LUT
    // skip culled, and what the sparse subimage exchange actually
    // shipped vs. what the same exchange would have cost dense.
    let skip_frac = frame.render.skipped_samples as f64 / frame.render.samples.max(1) as f64;
    let comp = &frame.composite;
    let mut csv = CsvOut::create(
        "fig1_render",
        "samples,skipped,skip_fraction,composite_bytes,composite_dense_bytes,sparse_messages,messages",
    );
    csv.row(&format!(
        "{},{},{skip_frac:.4},{},{},{},{}",
        frame.render.samples,
        frame.render.skipped_samples,
        comp.bytes,
        comp.dense_bytes,
        comp.sparse_messages,
        comp.messages,
    ));

    // Encode to PPM in memory for the artifact.
    let tmp = dir.join("fig1.ppm");
    frame.image.write_ppm(&tmp, [0.0, 0.0, 0.0]).unwrap();
    let ppm = std::fs::read(&tmp).unwrap();
    write_artifact("fig1_velocity_x.ppm", &ppm);
    std::fs::remove_file(&path).ok();

    // --- Qualitative content checks. ---
    let (w, h) = frame.image.size();
    let mut lit = 0usize;
    let mut red = 0usize;
    let mut blue = 0usize;
    let mut left_red = 0usize;
    let mut right_red = 0usize;
    for y in 0..h {
        for x in 0..w {
            let p = frame.image.get(x, y);
            if p[3] > 0.05 {
                lit += 1;
                if p[0] > p[2] + 0.1 {
                    red += 1;
                    if x < w / 2 {
                        left_red += 1;
                    } else {
                        right_red += 1;
                    }
                }
                if p[2] > p[0] + 0.1 {
                    blue += 1;
                }
            }
        }
    }
    let total = w * h;
    check(
        "the volume is visible over a transparent background",
        lit * 10 > total && lit * 10 < total * 9,
        &format!("{:.0}% of pixels lit", 100.0 * lit as f64 / total as f64),
    );
    check(
        "the X-velocity rendering is bipolar (both infall lobes visible)",
        red * 50 > total && blue * 50 > total,
        &format!(
            "{:.1}% red, {:.1}% blue",
            100.0 * red as f64 / total as f64,
            100.0 * blue as f64 / total as f64
        ),
    );
    check(
        "the lobes are spatially separated (velocity-x changes sign across x)",
        left_red > 3 * right_red || right_red > 3 * left_red,
        &format!("red pixels: {left_red} left vs {right_red} right"),
    );
    check(
        "the macrocell fast path skipped provably transparent samples",
        frame.render.skipped_samples > 0,
        &format!("{:.1}% of samples skipped", 100.0 * skip_frac),
    );
    check(
        "the sparse exchange shipped fewer bytes than dense",
        comp.bytes < comp.dense_bytes,
        &format!("{} sparse vs {} dense bytes", comp.bytes, comp.dense_bytes),
    );
}

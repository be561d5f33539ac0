//! Quickstart: render one frame of the synthetic supernova end to end.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Synthesizes a 96³ volume (no file I/O), renders it with 16 logical
//! ranks, composites with direct-send, and writes `quickstart.ppm`.

use parallel_volume_rendering::core::{run_frame, FrameConfig};

fn main() {
    // 96^3 grid, 256^2 image, 16 ranks — a miniature of the paper's
    // 1120^3 / 1600^2 / 16K-core headline run.
    let mut cfg = FrameConfig::small(96, 256, 16);
    cfg.variable = 2; // X velocity, the variable of the paper's Figure 1

    let result = run_frame(&cfg, None);

    println!("frame rendered: {}", result.timing);
    println!(
        "ray samples: {} across {} ranks ({} compositors, {} messages)",
        result.render.samples,
        cfg.nprocs,
        cfg.policy.compositors(cfg.nprocs),
        result.composite.messages
    );

    let out = std::path::Path::new("quickstart.ppm");
    result
        .image
        .write_ppm(out, [0.0, 0.0, 0.0])
        .expect("write image");
    println!("wrote {}", out.display());
}

//! Figure 5 — total frame time for three data/image sizes.
//!
//! "Total frame time for three data and image sizes on a log-log
//! scale": 1120³/1600², 2240³/2048², 4480³/4096². The paper's point:
//! "even at 2K or 4K cores, any of the problem sizes can be visualized,
//! given enough time."

use pvr_bench::{check, CsvOut, CORE_SWEEP};
use pvr_core::{run_frame, simulate_frame, FrameConfig};

fn main() {
    // The sweep itself is model-driven, but the fast-path counters are
    // measured once on a small real frame: the skip fraction and the
    // sparse/dense payload ratio are properties of the data and the
    // transfer function, not of the core count, so they are carried as
    // run-level columns alongside the modeled totals.
    let mut mcfg = FrameConfig::small(64, 192, 8);
    mcfg.variable = 2; // X velocity, the figure's variable
    let measured = run_frame(&mcfg, None);
    let skip_frac = measured.render.skipped_samples as f64 / measured.render.samples.max(1) as f64;
    let sparse_ratio =
        measured.composite.bytes as f64 / measured.composite.dense_bytes.max(1) as f64;

    let mut csv = CsvOut::create(
        "fig5_overall",
        "cores,total_1120_1600_s,total_2240_2048_s,total_4480_4096_s,\
         render_skip_fraction,composite_sparse_over_dense",
    );

    let mut t1120 = Vec::new();
    let mut t2240 = Vec::new();
    let mut t4480 = Vec::new();
    for &n in &CORE_SWEEP {
        let a = simulate_frame(&FrameConfig::paper_1120(n)).timing.total();
        // The larger sizes do not fit below 2K cores in-core (2 GB/node);
        // the paper plots them from mid-range core counts.
        let b = if n >= 2048 {
            Some(simulate_frame(&FrameConfig::paper_2240(n)).timing.total())
        } else {
            None
        };
        let c = if n >= 4096 {
            Some(simulate_frame(&FrameConfig::paper_4480(n)).timing.total())
        } else {
            None
        };
        csv.row(&format!(
            "{n},{:.2},{},{},{skip_frac:.4},{sparse_ratio:.4}",
            a,
            b.map_or(String::new(), |v| format!("{v:.2}")),
            c.map_or(String::new(), |v| format!("{v:.2}")),
        ));
        t1120.push((n, a));
        if let Some(v) = b {
            t2240.push((n, v));
        }
        if let Some(v) = c {
            t4480.push((n, v));
        }
    }

    // --- Checks. ---
    check(
        "larger problems take longer at every core count",
        t2240
            .iter()
            .all(|(n, t)| *t > t1120.iter().find(|(m, _)| m == n).unwrap().1)
            && t4480
                .iter()
                .all(|(n, t)| *t > t2240.iter().find(|(m, _)| m == n).unwrap().1),
        "1120 < 2240 < 4480 ordering holds",
    );
    let t2240_32k = t2240.last().unwrap().1;
    let t4480_32k = t4480.last().unwrap().1;
    check(
        "Table II scale: 2240^3 frame ~35-52 s, 4480^3 ~220-320 s",
        (30.0..70.0).contains(&t2240_32k) && (150.0..350.0).contains(&t4480_32k),
        &format!("32K cores: 2240^3 {t2240_32k:.1} s, 4480^3 {t4480_32k:.1} s"),
    );
    check(
        "frame time shrinks with more cores for every size",
        t1120.first().unwrap().1 > t1120.last().unwrap().1
            && t2240.first().unwrap().1 > t2240_32k
            && t4480.first().unwrap().1 > t4480_32k,
        "monotone-ish scaling",
    );
    check(
        "measured fast-path counters: skip > 0 and sparse < dense",
        skip_frac > 0.0 && sparse_ratio < 1.0,
        &format!(
            "{:.1}% samples skipped, sparse/dense payload {sparse_ratio:.2}",
            100.0 * skip_frac
        ),
    );
}

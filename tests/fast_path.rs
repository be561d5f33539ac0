//! Property tests pinning the render/composite fast path, bitwise.
//!
//! The macrocell/LUT empty-space skip and the sparse subimage exchange
//! are *conservative* optimizations: they may only elide work whose
//! contribution is provably exactly zero. These tests state that as a
//! bit-identity — across random transfer functions (including ones with
//! exact zero-opacity bands), random views, ghost widths, block
//! decompositions, and both frame executors, the fast path produces the
//! same pixels as the naive dense kernel, bit for bit.

use parallel_volume_rendering::compositing::sparse::SparseSubImage;
use parallel_volume_rendering::core::pipeline::run_frame_mpi;
use parallel_volume_rendering::core::{run_frame, write_dataset, FrameConfig, IoMode};
use parallel_volume_rendering::render::raycast::{
    render_block, BlockDomain, RenderOpts, Shading, Termination,
};
use parallel_volume_rendering::render::{Camera, PixelRect, SubImage, TransferFunction, Vec3};
use parallel_volume_rendering::volume::{BlockDecomposition, SupernovaField, Volume};

use proptest::prelude::*;
use proptest::Rng;

/// A uniform in `[lo, hi)` from the shim RNG.
fn uniform(rng: &mut Rng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * (rng.below(1 << 20) as f64 / (1 << 20) as f64)
}

/// A random transfer function over `(-1, 1)`: one of the built-in maps
/// or a randomized ramp that, half the time, carries an *exactly* zero
/// opacity plateau (both plateau control points have `a = 0.0`) — the
/// structure the macrocell skip exploits.
fn random_tf(rng: &mut Rng) -> TransferFunction {
    match rng.below(4) {
        0 => TransferFunction::supernova_velocity(),
        1 => TransferFunction::grayscale((-1.0, 1.0)),
        _ => {
            let zero_band = rng.below(2) == 0;
            let (b0, b1) = (
                uniform(rng, 0.2, 0.45) as f32,
                uniform(rng, 0.55, 0.8) as f32,
            );
            let mut pts = vec![
                (0.0f32, [1.0, 0.2, 0.1, uniform(rng, 0.0, 0.8) as f32]),
                (1.0f32, [0.1, 0.3, 1.0, uniform(rng, 0.0, 0.8) as f32]),
            ];
            if zero_band {
                pts.push((b0, [0.5, 0.5, 0.5, 0.0]));
                pts.push((b1, [0.5, 0.5, 0.5, 0.0]));
            } else {
                pts.push((b0, [0.5, 0.5, 0.5, uniform(rng, 0.0, 0.3) as f32]));
            }
            TransferFunction::from_points((-1.0, 1.0), &pts)
        }
    }
}

fn assert_subs_bitwise(a: &SubImage, b: &SubImage, what: &str) {
    assert_eq!(a.rect, b.rect, "{what}: rects differ");
    for (i, (pa, pb)) in a.pixels.iter().zip(&b.pixels).enumerate() {
        for c in 0..4 {
            assert_eq!(
                pa[c].to_bits(),
                pb[c].to_bits(),
                "{what}: pixel {i} channel {c}: {} vs {}",
                pa[c],
                pb[c]
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Block renderer: for a random decomposition, ghost width, view,
    /// and transfer function, every block renders bit-identically with
    /// the fast path on and off, and the per-block sample ladder is the
    /// same length (skipping changes `skipped_samples`, nothing else).
    #[test]
    fn block_render_fast_path_is_bit_identical(seed in 0u64..1_000_000) {
        let mut rng = Rng::seeded(seed.wrapping_mul(0x9e37_79b9) | 1);
        let dims = [
            12 + rng.below(24) as usize,
            12 + rng.below(24) as usize,
            12 + rng.below(24) as usize,
        ];
        let field = SupernovaField::new(1500 + seed).variable(rng.below(5) as usize);
        let nprocs = 2 + rng.below(7) as usize;
        // Shading widens the trilinear support, so exact equivalence
        // needs the 2-cell ghost; unshaded runs also exercise ghost 1.
        let ghost = 1 + rng.below(2) as usize;
        let shading = ghost >= 2 && rng.below(2) == 0;
        let view = Vec3::new(
            uniform(&mut rng, -1.0, 1.0),
            uniform(&mut rng, -1.0, 1.0),
            uniform(&mut rng, 0.3, 1.0), // never degenerate
        );
        let tf = random_tf(&mut rng);
        let cam = Camera::orthographic(dims, view, 40, 40);
        let base = RenderOpts {
            step: uniform(&mut rng, 0.6, 1.4),
            shading: shading.then(Shading::default),
            ..Default::default()
        };

        let decomp = BlockDecomposition::new(dims, nprocs);
        let mut total_skipped = 0u64;
        for b in decomp.blocks() {
            let stored = decomp.with_ghost(&b, ghost);
            let vol = Volume::from_field_window(&field, dims, stored.offset, stored.shape);
            let dom = BlockDomain { grid: dims, owned: b.sub, stored };
            let naive = RenderOpts { fast_path: false, ..base };
            let fast = RenderOpts { fast_path: true, ..base };
            let (sub_n, st_n) = render_block(&vol, &dom, &cam, &tf, &naive);
            let (sub_f, st_f) = render_block(&vol, &dom, &cam, &tf, &fast);
            prop_assert_eq!(st_n.samples, st_f.samples, "sample ladders differ");
            prop_assert_eq!(st_n.skipped_samples, 0);
            assert_subs_bitwise(&sub_n, &sub_f, &format!("seed {seed} block {:?}", b.sub.offset));
            total_skipped += st_f.skipped_samples;
        }
        // Not asserted > 0: a fully opaque random TF legitimately
        // degrades to the naive path. The supernova TF cases skip.
        let _ = total_skipped;
    }

    /// Threaded executor: a whole frame (render + sparse direct-send
    /// exchange) with the fast path on equals the naive frame bitwise,
    /// and the sparse exchange never prices above dense.
    #[test]
    fn frame_fast_path_on_off_bit_identical(seed in 0u64..10_000, nprocs in 2usize..=8) {
        let mut cfg = FrameConfig::small(18, 30, nprocs);
        cfg.seed = 2000 + seed;
        cfg.variable = (seed % 5) as usize;
        cfg.shading = seed % 3 == 0;
        let fast = run_frame(&cfg, None);
        cfg.fast_path = false;
        let naive = run_frame(&cfg, None);
        prop_assert_eq!(naive.render.samples, fast.render.samples);
        prop_assert_eq!(naive.render.skipped_samples, 0);
        for (a, b) in naive.image.pixels().iter().zip(fast.image.pixels()) {
            for c in 0..4 {
                prop_assert_eq!(a[c].to_bits(), b[c].to_bits());
            }
        }
        prop_assert!(fast.composite.bytes <= fast.composite.dense_bytes);
    }

    /// Message-passing executor: same statement through the MPI-style
    /// pipeline, reading the dataset from a real file — the sparse
    /// fragment codec on the wire must also be lossless.
    #[test]
    fn mpi_frame_fast_path_on_off_bit_identical(seed in 0u64..10_000, nprocs in 2usize..=6) {
        let mut cfg = FrameConfig::small(16, 24, nprocs);
        cfg.seed = 3000 + seed;
        cfg.variable = 2;
        cfg.io = IoMode::Raw;
        let dir = std::env::temp_dir().join(format!("pvr-fastpath-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("fp-{seed}-{nprocs}.raw"));
        write_dataset(&path, &cfg).unwrap();
        let fast = run_frame_mpi(&cfg, &path);
        cfg.fast_path = false;
        let naive = run_frame_mpi(&cfg, &path);
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(naive.render.samples, fast.render.samples);
        for (a, b) in naive.image.pixels().iter().zip(fast.image.pixels()) {
            for c in 0..4 {
                prop_assert_eq!(a[c].to_bits(), b[c].to_bits());
            }
        }
    }

    /// Packet kernel: for random decompositions, ghost widths, views,
    /// and transfer functions (including exact zero-opacity bands),
    /// marching 4 or 8 rays in lockstep — under both the `Off` and the
    /// bitwise termination gate — produces the same pixels, the same
    /// sample-ladder length, and the same ray count as the scalar
    /// kernel, bit for bit. Random dims make the per-block pixel
    /// footprints ragged, so partially-filled packets (masked lanes)
    /// are exercised on every case.
    #[test]
    fn packet_kernel_matches_scalar_bitwise_in_exact_mode(seed in 0u64..1_000_000) {
        let mut rng = Rng::seeded(seed.wrapping_mul(0x517c_c1b7) | 1);
        let dims = [
            12 + rng.below(24) as usize,
            12 + rng.below(24) as usize,
            12 + rng.below(24) as usize,
        ];
        let field = SupernovaField::new(4200 + seed).variable(rng.below(5) as usize);
        let nprocs = 2 + rng.below(7) as usize;
        let ghost = 1 + rng.below(2) as usize;
        let shading = ghost >= 2 && rng.below(2) == 0;
        let view = Vec3::new(
            uniform(&mut rng, -1.0, 1.0),
            uniform(&mut rng, -1.0, 1.0),
            uniform(&mut rng, 0.3, 1.0),
        );
        let tf = random_tf(&mut rng);
        let cam = Camera::orthographic(dims, view, 48, 48);
        let scalar = RenderOpts {
            step: uniform(&mut rng, 0.6, 1.4),
            shading: shading.then(Shading::default),
            packet_width: 1,
            termination: Termination::Off,
            ..Default::default()
        };

        let decomp = BlockDecomposition::new(dims, nprocs);
        let mut total_packets = 0u64;
        for b in decomp.blocks() {
            let stored = decomp.with_ghost(&b, ghost);
            let vol = Volume::from_field_window(&field, dims, stored.offset, stored.shape);
            let dom = BlockDomain { grid: dims, owned: b.sub, stored };
            let (sub_s, st_s) = render_block(&vol, &dom, &cam, &tf, &scalar);
            for width in [4usize, 8] {
                for term in [Termination::Off, Termination::Bitwise] {
                    let popts = RenderOpts { packet_width: width, termination: term, ..scalar };
                    let (sub_p, st_p) = render_block(&vol, &dom, &cam, &tf, &popts);
                    prop_assert_eq!(st_s.samples, st_p.samples, "sample ladders differ");
                    prop_assert_eq!(st_s.rays, st_p.rays, "ray counts differ");
                    prop_assert_eq!(st_p.error_bound, 0.0, "lossless modes report zero error");
                    assert_subs_bitwise(
                        &sub_s,
                        &sub_p,
                        &format!("seed {seed} block {:?} width {width} {term:?}", b.sub.offset),
                    );
                    total_packets += st_p.packets;
                }
            }
        }
        // Ragged 48x48 footprints over random blocks always leave some
        // rays for the packet path; the shared-field march must have
        // actually engaged, or these cases test nothing.
        prop_assert!(total_packets > 0, "no packets launched across any block");
    }

    /// Bounded termination: whatever the cut threshold, the actual
    /// per-pixel, per-channel deviation from the exact image never
    /// exceeds the bound the kernel reported for the block.
    #[test]
    fn bounded_mode_deviation_is_within_reported_bound(seed in 0u64..1_000_000) {
        let mut rng = Rng::seeded(seed.wrapping_mul(0x2545_f491) | 1);
        let dims = [
            16 + rng.below(20) as usize,
            16 + rng.below(20) as usize,
            16 + rng.below(20) as usize,
        ];
        let field = SupernovaField::new(5200 + seed).variable(rng.below(5) as usize);
        let view = Vec3::new(
            uniform(&mut rng, -1.0, 1.0),
            uniform(&mut rng, -1.0, 1.0),
            uniform(&mut rng, 0.3, 1.0),
        );
        let tf = random_tf(&mut rng);
        let cam = Camera::orthographic(dims, view, 48, 48);
        let vol = Volume::from_field(&field, dims);
        let dom = BlockDomain::whole(dims);
        let width = if rng.below(2) == 0 { 4 } else { 8 };
        let alpha = uniform(&mut rng, 0.2, 0.95) as f32;
        let exact = RenderOpts::exact();
        let bounded = RenderOpts {
            termination: Termination::Bounded { alpha },
            packet_width: width,
            ..Default::default()
        };
        let (sub_e, st_e) = render_block(&vol, &dom, &cam, &tf, &exact);
        let (sub_b, st_b) = render_block(&vol, &dom, &cam, &tf, &bounded);
        prop_assert_eq!(st_e.error_bound, 0.0);
        prop_assert_eq!(sub_e.rect, sub_b.rect);
        let mut dev = 0.0f32;
        for (pe, pb) in sub_e.pixels.iter().zip(&sub_b.pixels) {
            for c in 0..4 {
                dev = dev.max((pe[c] - pb[c]).abs());
            }
        }
        prop_assert!(
            dev <= st_b.error_bound,
            "deviation {} exceeds reported bound {} (alpha {}, width {}, terminated {})",
            dev, st_b.error_bound, alpha, width, st_b.terminated_rays
        );
        // No cut, no error: the bound is zero exactly when nothing
        // terminated at the threshold.
        if st_b.terminated_rays == 0 {
            prop_assert_eq!(st_b.error_bound, 0.0);
            prop_assert_eq!(dev, 0.0);
        }
    }

    /// The sparse wire encoding is lossless: encode → decode returns a
    /// bit-identical pixel buffer for random subimages with random
    /// transparency structure, and its priced cost matches its content.
    #[test]
    fn sparse_encoding_roundtrips_bitwise(seed in 0u64..1_000_000) {
        let mut rng = Rng::seeded(seed | 1);
        let w = 1 + rng.below(40) as usize;
        let h = 1 + rng.below(30) as usize;
        let rect = PixelRect::new(rng.below(8) as usize, rng.below(8) as usize, w, h);
        let mut sub = SubImage::transparent(rect, uniform(&mut rng, 0.0, 100.0));
        let density = rng.below(101) as f64 / 100.0;
        for p in sub.pixels.iter_mut() {
            if uniform(&mut rng, 0.0, 1.0) < density {
                // Premultiplied; an occasional exact-zero channel keeps
                // the "non-transparent means any channel nonzero" edge.
                *p = [
                    uniform(&mut rng, 0.0, 1.0) as f32,
                    uniform(&mut rng, 0.0, 1.0) as f32,
                    0.0,
                    uniform(&mut rng, 0.01, 1.0) as f32,
                ];
            }
        }
        let enc = SparseSubImage::encode(&sub);
        let dec = enc.decode();
        assert_subs_bitwise(&sub, &dec, &format!("roundtrip seed {seed}"));
        prop_assert_eq!(dec.depth.to_bits(), sub.depth.to_bits());
        let payload = sub.pixels.iter().filter(|p| **p != [0.0; 4]).count();
        prop_assert_eq!(enc.payload_pixels(), payload);
        prop_assert!(enc.num_spans() <= payload);
    }
}

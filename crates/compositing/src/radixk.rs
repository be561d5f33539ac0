//! Radix-k compositing — the generalization of binary swap and
//! direct-send that this paper's authors published as follow-on work
//! (Peterka, Goodell, Ross, Shen, Thakur: "A configurable algorithm for
//! parallel image-compositing applications", SC'09). Implemented here
//! as the natural "future work" extension of the paper's compositing
//! study.
//!
//! The `n` processes are factored into rounds `k = [k_1, k_2, ...]`
//! with `k_1 * k_2 * ... = n`. In round `i` the processes split into
//! groups of `k_i` partners; each group divides its current image
//! region into `k_i` pieces and runs a direct-send within the group, so
//! every partner ends the round owning `1/k_i` of its previous region,
//! fully composited within the group.
//!
//! * `k = [n]`       → one round of pure direct-send (m = n)
//! * `k = [2,2,...]` → binary swap
//! * intermediate factorizations trade message count against rounds —
//!   the knob the follow-on paper tunes per interconnect.
//!
//! As everywhere in this crate, processes are relabeled in visibility
//! order first, so each pairwise blend combines contiguous depth groups
//! and associativity of *over* gives the exact serial image.

use pvr_render::image::{over, Image, SubImage};

use crate::serial::visibility_order;
use crate::WIRE_BYTES_PER_PIXEL;

/// Statistics of one radix-k execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RadixKStats {
    /// The factorization actually used.
    pub radices: Vec<usize>,
    pub messages: usize,
    pub bytes: u64,
}

/// Factor `n` into the given radices, checking the product.
fn check_radices(n: usize, radices: &[usize]) -> Result<(), String> {
    let prod: usize = radices.iter().product();
    if prod != n {
        return Err(format!("radices {radices:?} multiply to {prod}, need {n}"));
    }
    if radices.iter().any(|&k| k < 2) {
        return Err("every radix must be >= 2".into());
    }
    Ok(())
}

/// A standard factorization: repeatedly pull the largest prime factor,
/// largest first (good default per the radix-k paper for tori).
pub fn default_radices(n: usize) -> Vec<usize> {
    assert!(n >= 1);
    let mut out = Vec::new();
    let mut m = n;
    let mut p = 2;
    while p * p <= m {
        while m.is_multiple_of(p) {
            out.push(p);
            m /= p;
        }
        p += 1;
    }
    if m > 1 {
        out.push(m);
    }
    out.sort_unstable_by(|a, b| b.cmp(a));
    out
}

/// One message of a radix-k round (no pixel data — for pricing the
/// algorithm on the machine model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundMessage {
    pub from: usize,
    pub to: usize,
    pub bytes: u64,
}

/// The communication schedule of radix-k over an image of
/// `image_pixels`, round by round, computed with the same span
/// arithmetic the real compositor uses. Rank indices are v-ranks.
pub fn radix_k_schedule(
    n: usize,
    image_pixels: usize,
    radices: &[usize],
) -> Vec<Vec<RoundMessage>> {
    check_radices(n, radices).unwrap_or_else(|e| panic!("{e}"));
    let mut spans: Vec<(usize, usize)> = vec![(0, image_pixels); n];
    let mut rounds = Vec::with_capacity(radices.len());
    let mut g_prev = 1usize;
    for &k in radices {
        let g = g_prev * k;
        let mut msgs = Vec::new();
        for (rank, &(s, e)) in spans.iter().enumerate() {
            let within = rank % g;
            let member = within / g_prev;
            let lane_base = rank - within + (within % g_prev);
            let len = e - s;
            for j in 0..k {
                if j == member {
                    continue;
                }
                let p0 = s + len * j / k;
                let p1 = s + len * (j + 1) / k;
                msgs.push(RoundMessage {
                    from: rank,
                    to: lane_base + j * g_prev,
                    bytes: (p1 - p0) as u64 * WIRE_BYTES_PER_PIXEL,
                });
            }
        }
        for (rank, span) in spans.iter_mut().enumerate() {
            let member = (rank % g) / g_prev;
            let (s, e) = *span;
            let len = e - s;
            *span = (s + len * member / k, s + len * (member + 1) / k);
        }
        rounds.push(msgs);
        g_prev = g;
    }
    rounds
}

/// One process's working state.
struct ProcState {
    span: (usize, usize),
    buf: Vec<[f32; 4]>,
}

fn rasterize(sub: &SubImage, span: (usize, usize), width: usize) -> Vec<[f32; 4]> {
    let mut buf = vec![[0.0f32; 4]; span.1 - span.0];
    for y in sub.rect.y0..sub.rect.y1() {
        let row_s = y * width + sub.rect.x0;
        let row_e = row_s + sub.rect.w;
        let lo = row_s.max(span.0);
        let hi = row_e.min(span.1);
        for idx in lo..hi {
            buf[idx - span.0] = sub.get(idx - y * width, y);
        }
    }
    buf
}

/// Composite by radix-k with the given round factorization
/// (`radices.iter().product() == subs.len()`), or the default
/// factorization when `radices` is `None`.
pub fn composite_radix_k(
    subs: &[SubImage],
    width: usize,
    height: usize,
    radices: Option<&[usize]>,
) -> (Image, RadixKStats) {
    let n = subs.len();
    assert!(n >= 1);
    let radices: Vec<usize> = match radices {
        Some(r) => {
            check_radices(n, r).unwrap_or_else(|e| panic!("{e}"));
            r.to_vec()
        }
        None => default_radices(n),
    };
    let total = width * height;

    // Relabel in visibility order (v-rank 0 nearest the viewer).
    let order = visibility_order(subs);
    let mut procs: Vec<ProcState> = order
        .iter()
        .map(|&i| ProcState {
            span: (0, total),
            buf: rasterize(&subs[i], (0, total), width),
        })
        .collect();

    let mut stats = RadixKStats {
        radices: radices.clone(),
        messages: 0,
        bytes: 0,
    };

    // Rounds merge *adjacent* v-rank blocks first (exactly like binary
    // swap's lowest-bit-first pairing): after round i, every process's
    // buffer holds the fully composited content of a contiguous block
    // of g_i = k_1*...*k_i v-ranks, so the next round again blends
    // contiguous depth groups and associativity of `over` suffices.
    let mut g_prev = 1usize;
    for &k in &radices {
        let g = g_prev * k;
        // Collect the pieces to deliver after the whole round's sends
        // are "posted" (direct-send within each group).
        struct Delivery {
            to: usize,
            from_vrank: usize,
            piece: (usize, usize),
            data: Vec<[f32; 4]>,
        }
        let mut deliveries: Vec<Delivery> = Vec::new();

        for (rank, p) in procs.iter().enumerate() {
            let within = rank % g;
            let member = within / g_prev; // 0..k
            let lane_base = rank - within + (within % g_prev);
            let (s, e) = p.span;
            let len = e - s;
            // Partition my current span into k pieces; piece j goes to
            // the partner with member index j (same lane).
            for j in 0..k {
                let p0 = s + len * j / k;
                let p1 = s + len * (j + 1) / k;
                if j == member {
                    continue; // my own piece stays
                }
                let to = lane_base + j * g_prev;
                let data = p.buf[p0 - s..p1 - s].to_vec();
                stats.messages += 1;
                stats.bytes += (p1 - p0) as u64 * WIRE_BYTES_PER_PIXEL;
                deliveries.push(Delivery {
                    to,
                    from_vrank: rank,
                    piece: (p0, p1),
                    data,
                });
            }
        }

        // Shrink every process to its kept piece.
        for (rank, p) in procs.iter_mut().enumerate() {
            let member = (rank % g) / g_prev;
            let (s, e) = p.span;
            let len = e - s;
            let p0 = s + len * member / k;
            let p1 = s + len * (member + 1) / k;
            let kept: Vec<[f32; 4]> = p.buf[p0 - s..p1 - s].to_vec();
            p.span = (p0, p1);
            p.buf = kept;
        }

        // Blend incoming pieces. Within a group, the member with the
        // smaller v-rank is in front; blends must respect that order,
        // so sort deliveries per receiver by sender v-rank and fold
        // with the receiver inserted at its own position.
        let mut per_recv: Vec<Vec<Delivery>> = (0..n).map(|_| Vec::new()).collect();
        for d in deliveries {
            per_recv[d.to].push(d);
        }
        for (rank, mut incoming) in per_recv.into_iter().enumerate() {
            if incoming.is_empty() {
                continue;
            }
            incoming.sort_by_key(|d| d.from_vrank);
            let (s, e) = procs[rank].span;
            debug_assert!(incoming.iter().all(|d| d.piece == (s, e)));
            // Fold front-to-back: senders with v-rank < mine are in
            // front of my buffer; the rest behind.
            let mut acc = vec![[0.0f32; 4]; e - s];
            let mut own_done = false;
            for d in &incoming {
                if !own_done && d.from_vrank > rank {
                    for (a, b) in acc.iter_mut().zip(&procs[rank].buf) {
                        *a = over(*a, *b);
                    }
                    own_done = true;
                }
                for (a, b) in acc.iter_mut().zip(&d.data) {
                    *a = over(*a, *b);
                }
            }
            if !own_done {
                for (a, b) in acc.iter_mut().zip(&procs[rank].buf) {
                    *a = over(*a, *b);
                }
            }
            procs[rank].buf = acc;
        }

        g_prev = g;
    }

    // Gather: all spans are disjoint and cover the image.
    let mut img = Image::new(width, height);
    for p in &procs {
        for (i, &px) in p.buf.iter().enumerate() {
            let idx = p.span.0 + i;
            img.set(idx % width, idx / width, px);
        }
    }
    (img, stats)
}

/// The final row-major pixel span each process owns after all rounds —
/// the "tiles" of radix-k, derived with the same span arithmetic the
/// compositor and [`radix_k_schedule`] use.
pub fn final_spans(n: usize, image_pixels: usize, radices: &[usize]) -> Vec<(usize, usize)> {
    check_radices(n, radices).unwrap_or_else(|e| panic!("{e}"));
    let mut spans: Vec<(usize, usize)> = vec![(0, image_pixels); n];
    let mut g_prev = 1usize;
    for &k in radices {
        let g = g_prev * k;
        for (rank, span) in spans.iter_mut().enumerate() {
            let member = (rank % g) / g_prev;
            let (s, e) = *span;
            let len = e - s;
            *span = (s + len * member / k, s + len * (member + 1) / k);
        }
        g_prev = g;
    }
    spans
}

/// Deadline-mode radix-k: composite with absent processes' fragments
/// treated as fully transparent (a lost input contributes nothing at
/// any round, so every downstream exchange still lines up and the run
/// terminates), reporting per-final-span completeness. `present[i]`
/// refers to renderer `i`'s input subimage, `quality`-weighted as in
/// [`crate::directsend::composite_direct_send_traced`]. With all
/// inputs present at quality 1.0 the image is bit-identical to
/// [`composite_radix_k`].
pub fn composite_radix_k_degraded(
    subs: &[SubImage],
    width: usize,
    height: usize,
    radices: Option<&[usize]>,
    present: &[Option<f64>],
) -> (Image, RadixKStats, crate::completeness::CompletenessMap) {
    use crate::completeness::{span_overlap, CompletenessMap, TileCompleteness};
    assert_eq!(subs.len(), present.len());
    let n = subs.len();
    assert!(n >= 1);
    let radices_v: Vec<usize> = match radices {
        Some(r) => r.to_vec(),
        None => default_radices(n),
    };

    // Absent inputs become transparent placeholders with the same
    // footprint and depth, so the visibility relabeling — and with it
    // the whole round structure — is unchanged from the healthy run.
    let effective: Vec<SubImage> = subs
        .iter()
        .zip(present)
        .map(|(s, p)| {
            if p.is_some() {
                s.clone()
            } else {
                SubImage::transparent(s.rect, s.depth)
            }
        })
        .collect();
    let (img, stats) = composite_radix_k(&effective, width, height, Some(&radices_v));

    // Completeness per final span: every input's footprint overlap with
    // the span is expected; present inputs contribute quality-weighted.
    let spans = final_spans(n, width * height, &radices_v);
    let order = visibility_order(subs);
    let mut map = CompletenessMap::default();
    for (proc_idx, &span) in spans.iter().enumerate() {
        let mut expected = 0.0f64;
        let mut arrived = 0.0f64;
        for &i in &order {
            let area = span_overlap(&subs[i].rect, span, width) as f64;
            expected += area;
            if let Some(q) = present[i] {
                arrived += area * q.clamp(0.0, 1.0);
            }
        }
        map.tiles.push(TileCompleteness {
            tile: proc_idx,
            rect: None,
            expected,
            arrived,
        });
    }
    (img, stats, map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composite_serial;
    use pvr_render::image::PixelRect;

    fn random_subs(seed: u64, n: usize, w: usize, h: usize) -> Vec<SubImage> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = move |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % m.max(1)
        };
        (0..n)
            .map(|_| {
                let x0 = next(w - 2);
                let y0 = next(h - 2);
                let rw = 1 + next(w - x0 - 1);
                let rh = 1 + next(h - y0 - 1);
                let mut s =
                    SubImage::transparent(PixelRect::new(x0, y0, rw, rh), next(1000) as f64);
                for p in s.pixels.iter_mut() {
                    *p = [
                        next(100) as f32 / 250.0,
                        next(100) as f32 / 250.0,
                        next(100) as f32 / 250.0,
                        next(100) as f32 / 170.0,
                    ];
                }
                s
            })
            .collect()
    }

    #[test]
    fn default_factorizations() {
        assert_eq!(default_radices(8), vec![2, 2, 2]);
        assert_eq!(default_radices(12), vec![3, 2, 2]);
        assert_eq!(default_radices(7), vec![7]);
        assert_eq!(default_radices(1), Vec::<usize>::new());
    }

    #[test]
    fn matches_serial_for_default_radices() {
        for n in [1usize, 2, 4, 6, 8, 12, 16, 24, 32] {
            let subs = random_subs(n as u64 + 7, n, 20, 20);
            let reference = composite_serial(&subs, 20, 20);
            let (img, stats) = composite_radix_k(&subs, 20, 20, None);
            let d = img.max_abs_diff(&reference);
            assert!(d < 1e-5, "n={n} radices {:?}: diff {d}", stats.radices);
        }
    }

    #[test]
    fn matches_serial_for_explicit_radices() {
        let subs = random_subs(3, 16, 24, 24);
        let reference = composite_serial(&subs, 24, 24);
        for radices in [
            vec![16],
            vec![4, 4],
            vec![2, 2, 2, 2],
            vec![8, 2],
            vec![2, 8],
        ] {
            let (img, _) = composite_radix_k(&subs, 24, 24, Some(&radices));
            let d = img.max_abs_diff(&reference);
            assert!(d < 1e-5, "radices {radices:?}: diff {d}");
        }
    }

    #[test]
    fn radix_n_is_direct_send_message_count() {
        // One round of radix n: every process sends k-1 = n-1 pieces.
        let n = 8;
        let subs = random_subs(5, n, 16, 16);
        let (_, stats) = composite_radix_k(&subs, 16, 16, Some(&[n]));
        assert_eq!(stats.messages, n * (n - 1));
    }

    #[test]
    fn radix_2_is_binary_swap_message_count() {
        let n = 16;
        let subs = random_subs(9, n, 16, 16);
        let (_, stats) = composite_radix_k(&subs, 16, 16, Some(&[2, 2, 2, 2]));
        // n messages per round, log2(n) rounds — binary swap's count.
        assert_eq!(stats.messages, n * 4);
        let (_, bs) = crate::binaryswap::composite_binary_swap(&subs, 16, 16);
        assert_eq!(stats.messages, bs.messages);
        assert_eq!(stats.bytes, bs.bytes);
    }

    #[test]
    fn intermediate_radices_trade_messages_for_rounds() {
        let n = 16;
        let subs = random_subs(11, n, 32, 32);
        let (_, r2) = composite_radix_k(&subs, 32, 32, Some(&[2, 2, 2, 2]));
        let (_, r4) = composite_radix_k(&subs, 32, 32, Some(&[4, 4]));
        let (_, r16) = composite_radix_k(&subs, 32, 32, Some(&[16]));
        assert!(r2.messages < r4.messages && r4.messages < r16.messages);
        // Fewer rounds = fewer total bytes shipped (each round re-ships
        // a shrinking region).
        assert!(r16.bytes >= r4.bytes && r4.bytes >= r2.bytes * 3 / 4);
    }

    #[test]
    #[should_panic(expected = "multiply to")]
    fn wrong_factorization_panics() {
        let subs = random_subs(1, 8, 8, 8);
        composite_radix_k(&subs, 8, 8, Some(&[3, 3]));
    }

    #[test]
    fn schedule_matches_real_execution() {
        // The bytes-only schedule must agree with what the real
        // compositor actually ships, round totals included.
        let n = 12;
        let subs = random_subs(21, n, 24, 24);
        for radices in [vec![12], vec![3, 4], vec![2, 2, 3]] {
            let (_, stats) = composite_radix_k(&subs, 24, 24, Some(&radices));
            let sched = radix_k_schedule(n, 24 * 24, &radices);
            let sched_msgs: usize = sched.iter().map(|r| r.len()).sum();
            let sched_bytes: u64 = sched.iter().flat_map(|r| r.iter().map(|m| m.bytes)).sum();
            assert_eq!(sched_msgs, stats.messages, "radices {radices:?}");
            assert_eq!(sched_bytes, stats.bytes, "radices {radices:?}");
            assert_eq!(sched.len(), radices.len());
        }
    }

    #[test]
    fn random_radices_match_serial() {
        // Any valid factorization composites correctly.
        use proptest::prelude::*;
        use proptest::strategy::ValueTree;
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let strategy = proptest::collection::vec(2usize..5, 1..4);
        for _ in 0..24 {
            let radices = strategy.new_tree(&mut runner).unwrap().current();
            let n: usize = radices.iter().product();
            if n > 64 {
                continue;
            }
            let subs = random_subs(n as u64 * 31 + 5, n, 16, 16);
            let reference = composite_serial(&subs, 16, 16);
            let (img, stats) = composite_radix_k(&subs, 16, 16, Some(&radices));
            let d = img.max_abs_diff(&reference);
            assert!(d < 1e-5, "radices {radices:?} (n={n}): diff {d}");
            // Message count formula: n * sum(k_i - 1).
            let expect: usize = radices.iter().map(|k| k - 1).sum::<usize>() * n;
            assert_eq!(stats.messages, expect, "radices {radices:?}");
        }
    }

    #[test]
    fn degraded_with_everything_present_is_bit_identical() {
        let subs = random_subs(17, 12, 24, 24);
        let present = vec![Some(1.0); 12];
        let (img, stats) = composite_radix_k(&subs, 24, 24, Some(&[3, 4]));
        let (img_d, stats_d, map) =
            composite_radix_k_degraded(&subs, 24, 24, Some(&[3, 4]), &present);
        assert_eq!(img.pixels(), img_d.pixels(), "must be bit-identical");
        assert_eq!(stats, stats_d);
        assert!(map.fully_complete());
        assert_eq!(map.tiles.len(), 12);
    }

    #[test]
    fn absent_process_reduces_span_completeness_but_terminates() {
        let subs = random_subs(23, 8, 16, 16);
        let mut present = vec![Some(1.0); 8];
        present[3] = None;
        let (img, _, map) = composite_radix_k_degraded(&subs, 16, 16, None, &present);
        assert!(map.frame_fraction() < 1.0);
        assert!(!map.fully_complete());
        // The composite still differs from serial only where the lost
        // input contributed.
        let reference = composite_serial(&subs, 16, 16);
        assert!(img.max_abs_diff(&reference) > 0.0);
        // And spans partition the image.
        let spans = final_spans(8, 256, &default_radices(8));
        let covered: usize = spans.iter().map(|(s, e)| e - s).sum();
        assert_eq!(covered, 256);
    }

    #[test]
    fn schedule_partners_stay_in_groups() {
        let sched = radix_k_schedule(8, 64, &[2, 2, 2]);
        // Round 0: partners differ by 1 within pairs.
        for m in &sched[0] {
            assert_eq!(m.from ^ 1, m.to);
        }
        // Round 1: partners differ by 2.
        for m in &sched[1] {
            assert_eq!(m.from ^ 2, m.to);
        }
        // Round 2: partners differ by 4.
        for m in &sched[2] {
            assert_eq!(m.from ^ 4, m.to);
        }
    }
}

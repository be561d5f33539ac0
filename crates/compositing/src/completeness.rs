//! Per-tile completeness of a degraded composite.
//!
//! When fragments are lost or arrive past the deadline, the deadline
//! compositors ([`crate::directsend::composite_direct_send_traced`],
//! [`crate::radixk::composite_radix_k_degraded`]) blend whatever is
//! there and quantify the damage instead of hanging: each compositor
//! tile reports the fraction of its *expected* blended footprint area
//! that actually arrived (weighted by the sender's own data quality, so
//! an I/O-degraded renderer counts fractionally). A fully healthy run
//! reports 1.0 everywhere — and, by construction, the degraded
//! compositors then produce exactly the fault-free image.

use pvr_render::image::PixelRect;

/// Completeness of one compositor tile (or radix-k final span).
#[derive(Debug, Clone, PartialEq)]
pub struct TileCompleteness {
    /// Tile index (direct-send: partition cell; radix-k: process).
    pub tile: usize,
    /// The tile's pixel rectangle, when it is one (direct-send tiles;
    /// radix-k spans are row-major pixel ranges, reported as `None`).
    pub rect: Option<PixelRect>,
    /// Expected blended footprint area: the sum over *all* scheduled
    /// senders of their overlap with this tile, in pixels.
    pub expected: f64,
    /// The part of `expected` that arrived, each sender's overlap
    /// weighted by its data quality in [0, 1].
    pub arrived: f64,
}

impl TileCompleteness {
    /// Fraction of the expected footprint that was blended (1.0 when
    /// nothing was expected).
    pub fn fraction(&self) -> f64 {
        if self.expected <= 0.0 {
            1.0
        } else {
            (self.arrived / self.expected).clamp(0.0, 1.0)
        }
    }
}

/// Per-tile completeness of one composited frame.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompletenessMap {
    pub tiles: Vec<TileCompleteness>,
}

impl CompletenessMap {
    /// Expected-area-weighted completeness of the whole frame.
    pub fn frame_fraction(&self) -> f64 {
        let expected: f64 = self.tiles.iter().map(|t| t.expected).sum();
        if expected <= 0.0 {
            return 1.0;
        }
        let arrived: f64 = self.tiles.iter().map(|t| t.arrived).sum();
        (arrived / expected).clamp(0.0, 1.0)
    }

    /// The worst tile fraction (1.0 for an empty map).
    pub fn worst(&self) -> f64 {
        self.tiles
            .iter()
            .map(TileCompleteness::fraction)
            .fold(1.0, f64::min)
    }

    /// Tiles below full completeness (with an epsilon for float sums).
    pub fn degraded(&self) -> Vec<&TileCompleteness> {
        self.tiles
            .iter()
            .filter(|t| t.fraction() < 1.0 - 1e-9)
            .collect()
    }

    pub fn fully_complete(&self) -> bool {
        self.degraded().is_empty()
    }
}

/// Overlap, in pixels, of a footprint rectangle with the row-major
/// pixel span `[s, e)` of a `width`-wide image — the tile geometry of
/// radix-k.
pub fn span_overlap(rect: &PixelRect, span: (usize, usize), width: usize) -> usize {
    let (s, e) = span;
    let mut n = 0usize;
    for y in rect.y0..rect.y1() {
        let row_s = y * width + rect.x0;
        let row_e = row_s + rect.w;
        let lo = row_s.max(s);
        let hi = row_e.min(e);
        if lo < hi {
            n += hi - lo;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_and_frame_weighting() {
        let map = CompletenessMap {
            tiles: vec![
                TileCompleteness {
                    tile: 0,
                    rect: None,
                    expected: 100.0,
                    arrived: 100.0,
                },
                TileCompleteness {
                    tile: 1,
                    rect: None,
                    expected: 300.0,
                    arrived: 150.0,
                },
                TileCompleteness {
                    tile: 2,
                    rect: None,
                    expected: 0.0,
                    arrived: 0.0,
                },
            ],
        };
        assert_eq!(map.tiles[0].fraction(), 1.0);
        assert_eq!(map.tiles[1].fraction(), 0.5);
        assert_eq!(map.tiles[2].fraction(), 1.0);
        // (100 + 150) / 400, weighted — not the mean of fractions.
        assert!((map.frame_fraction() - 0.625).abs() < 1e-12);
        assert_eq!(map.worst(), 0.5);
        assert_eq!(map.degraded().len(), 1);
        assert!(!map.fully_complete());
        assert!(CompletenessMap::default().fully_complete());
    }

    #[test]
    fn span_overlap_counts_row_pieces() {
        // A 2x2 rect at (1,1) in a 4-wide image: pixels 5, 6, 9, 10.
        let r = PixelRect::new(1, 1, 2, 2);
        assert_eq!(span_overlap(&r, (0, 16), 4), 4);
        assert_eq!(span_overlap(&r, (0, 6), 4), 1);
        assert_eq!(span_overlap(&r, (6, 10), 4), 2);
        assert_eq!(span_overlap(&r, (11, 16), 4), 0);
    }
}

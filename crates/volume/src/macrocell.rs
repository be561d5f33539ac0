//! Min/max macrocells for conservative empty-space skipping.
//!
//! A [`MacrocellGrid`] summarizes a volume at two granularities: one
//! `(min, max)` pair per 8³-voxel macrocell, and one per 2³-voxel
//! *refined* cell. The render stage rebuilds it for every block of
//! every frame, so [`MacrocellGrid::build`] is one separable pass: per
//! refined z-slab it folds the slab's voxel planes into a plane
//! scratch, the plane's y-windows into a row scratch, and the row's
//! x-windows into refined cells, with contiguous inner loops and two
//! planes plus two rows of scratch; the macrocells fold from the
//! refined cells.
//!
//! The renderer consults the macrocell ranges per sample (scalar
//! kernel) to prove that a trilinear fetch *must* land in a value range
//! the transfer function maps to exactly zero opacity, and skips the
//! fetch, classification, and shading for that sample. The refined
//! ranges serve the ray-packet kernel's shared skip field, whose
//! dilation by the packet's lane spread would be drowned out by 8-voxel
//! quantization.
//!
//! Conservativeness: trilinear interpolation is a convex combination of
//! the eight corner voxels, so the result lies in `[min, max]` of the
//! corners. Each cell's range is taken over the *inclusive* voxel range
//! `[s·c, min(s·c + s, n-1)]` per axis (`s` = cell size) — one voxel of
//! overlap with the next cell — so that for any sample position `p`
//! with `floor(clamp(p)) = x0` inside the cell, both corners `x0` and
//! `x1 = min(x0+1, n-1)` are covered. Clamped out-of-volume positions
//! resolve to boundary voxels, which boundary cells cover.

use crate::grid::Volume;

/// Edge length of a macrocell in voxels.
pub const MACROCELL_SIZE: usize = 8;

/// Edge length of a refined summary cell in voxels. Divides
/// [`MACROCELL_SIZE`], so every macrocell is exactly a 4³ block of
/// refined cells.
pub const REFINED_SIZE: usize = 2;

/// Two-level per-cell min/max summary of a [`Volume`].
#[derive(Debug, Clone)]
pub struct MacrocellGrid {
    cells: [usize; 3],
    /// Row-major (x fastest) `(min, max)` per macrocell.
    minmax: Vec<(f32, f32)>,
    refined_cells: [usize; 3],
    /// Row-major (x fastest) `(min, max)` per refined cell.
    refined: Vec<(f32, f32)>,
}

impl MacrocellGrid {
    /// Build both summaries: the refined ranges in one separable pass
    /// over the volume, the macrocell ranges by folding the refined
    /// cells they tile.
    ///
    /// The refined pass walks one refined z-slab at a time. It folds
    /// the slab's voxel planes (three, or fewer at the far edge)
    /// elementwise into a plane-sized `min` and a plane-sized `max`
    /// scratch, folds each refined y-window of that plane into a row
    /// scratch, and folds each x-window of the row into one refined
    /// cell. Every inner loop is contiguous, and the scratch is two
    /// planes plus two rows. The plane and row folds start from
    /// `(+∞, -∞)` and `f32::min`/`max` drop a NaN operand, so the scratch
    /// never holds a NaN and a cell whose voxels are all NaN keeps
    /// `(+∞, -∞)`. min/max is associative, so each range equals a
    /// direct gather over the cell's inclusive voxel window.
    ///
    /// The macrocell fold covers exactly the macrocell's inclusive voxel
    /// range (the chained one-voxel overlaps line up), and min/max is
    /// insensitive to the repeated boundary voxels, so the macrocell
    /// ranges equal a direct pass too.
    pub fn build(vol: &Volume) -> Self {
        let dims = vol.dims();
        let cells = [
            Self::cells_along(dims[0]),
            Self::cells_along(dims[1]),
            Self::cells_along(dims[2]),
        ];
        let refined_cells = [
            Self::cells_along_size(dims[0], REFINED_SIZE),
            Self::cells_along_size(dims[1], REFINED_SIZE),
            Self::cells_along_size(dims[2], REFINED_SIZE),
        ];
        let (nx, plane_len) = (dims[0], dims[0] * dims[1]);
        let data = vol.data();
        let mut refined =
            Vec::with_capacity(refined_cells[0] * refined_cells[1] * refined_cells[2]);
        let mut plane_lo = vec![f32::INFINITY; plane_len];
        let mut plane_hi = vec![f32::NEG_INFINITY; plane_len];
        // Past `nx` the row scratch stays at the identity: it pads every
        // x-window to three entries, so the last cell's clamped window
        // needs no special case.
        let mut row_lo = vec![f32::INFINITY; REFINED_SIZE * refined_cells[0] + 1];
        let mut row_hi = vec![f32::NEG_INFINITY; REFINED_SIZE * refined_cells[0] + 1];
        for cz in 0..refined_cells[2] {
            let zs = window3(Self::voxel_range_size(cz, dims[2], REFINED_SIZE));
            let planes = zs.map(|z| &data[z * plane_len..(z + 1) * plane_len]);
            fold3(&mut plane_lo, &mut plane_hi, planes, planes);
            for cy in 0..refined_cells[1] {
                let ys = window3(Self::voxel_range_size(cy, dims[1], REFINED_SIZE));
                let rows_lo = ys.map(|y| &plane_lo[y * nx..(y + 1) * nx]);
                let rows_hi = ys.map(|y| &plane_hi[y * nx..(y + 1) * nx]);
                fold3(&mut row_lo[..nx], &mut row_hi[..nx], rows_lo, rows_hi);
                let windows = row_lo
                    .windows(3)
                    .zip(row_hi.windows(3))
                    .step_by(REFINED_SIZE);
                refined.extend(
                    windows.map(|(l, h)| (l[0].min(l[1]).min(l[2]), h[0].max(h[1]).max(h[2]))),
                );
            }
        }
        let fold = MACROCELL_SIZE / REFINED_SIZE;
        let mut minmax = vec![(f32::INFINITY, f32::NEG_INFINITY); cells[0] * cells[1] * cells[2]];
        for cz in 0..cells[2] {
            for cy in 0..cells[1] {
                for cx in 0..cells[0] {
                    let mut lo = f32::INFINITY;
                    let mut hi = f32::NEG_INFINITY;
                    for rz in (cz * fold)..((cz * fold + fold).min(refined_cells[2])) {
                        for ry in (cy * fold)..((cy * fold + fold).min(refined_cells[1])) {
                            let row = (rz * refined_cells[1] + ry) * refined_cells[0];
                            let rx0 = cx * fold;
                            let rx1 = (rx0 + fold).min(refined_cells[0]);
                            for &(rlo, rhi) in &refined[row + rx0..row + rx1] {
                                lo = lo.min(rlo);
                                hi = hi.max(rhi);
                            }
                        }
                    }
                    minmax[(cz * cells[1] + cy) * cells[0] + cx] = (lo, hi);
                }
            }
        }
        MacrocellGrid {
            cells,
            minmax,
            refined_cells,
            refined,
        }
    }

    fn cells_along(n: usize) -> usize {
        Self::cells_along_size(n, MACROCELL_SIZE)
    }

    fn cells_along_size(n: usize, size: usize) -> usize {
        // Cells must cover voxel indices 0..=n-1.
        (n.max(1) - 1) / size + 1
    }

    /// Inclusive voxel range summarized by a size-`size` cell `c`:
    /// `[size·c, min(size·c + size, n-1)]` (one voxel of overlap).
    fn voxel_range_size(c: usize, n: usize, size: usize) -> (usize, usize) {
        let lo = c * size;
        let hi = (lo + size).min(n - 1);
        (lo, hi.max(lo))
    }

    /// Cell counts per axis.
    pub fn cells(&self) -> [usize; 3] {
        self.cells
    }

    pub fn num_cells(&self) -> usize {
        self.minmax.len()
    }

    /// Cell coordinates of the cell holding voxel `(x, y, z)` — the
    /// cell whose range covers the trilinear support of any sample
    /// position that floors (after clamping) to that voxel.
    #[inline]
    pub fn cell_of_voxel(&self, x: usize, y: usize, z: usize) -> [usize; 3] {
        [
            (x / MACROCELL_SIZE).min(self.cells[0] - 1),
            (y / MACROCELL_SIZE).min(self.cells[1] - 1),
            (z / MACROCELL_SIZE).min(self.cells[2] - 1),
        ]
    }

    /// Row-major index of cell `c` (x fastest).
    #[inline]
    pub fn index_of_cell(&self, c: [usize; 3]) -> usize {
        (c[2] * self.cells[1] + c[1]) * self.cells[0] + c[0]
    }

    /// Index of the cell holding voxel `(x, y, z)`; see
    /// [`MacrocellGrid::cell_of_voxel`].
    #[inline]
    pub fn cell_index_of_voxel(&self, x: usize, y: usize, z: usize) -> usize {
        self.index_of_cell(self.cell_of_voxel(x, y, z))
    }

    /// `(min, max)` of cell `i` (row-major, x fastest).
    #[inline]
    pub fn min_max(&self, i: usize) -> (f32, f32) {
        self.minmax[i]
    }

    /// All per-cell ranges (row-major, x fastest) — used to precompute
    /// per-cell verdicts against a transfer function once per render.
    pub fn ranges(&self) -> &[(f32, f32)] {
        &self.minmax
    }

    /// Refined (2³-voxel) cell counts per axis.
    pub fn refined_cells(&self) -> [usize; 3] {
        self.refined_cells
    }

    /// All refined per-cell ranges (row-major, x fastest). Same
    /// conservativeness contract as [`MacrocellGrid::ranges`], at
    /// [`REFINED_SIZE`] granularity.
    pub fn refined_ranges(&self) -> &[(f32, f32)] {
        &self.refined
    }
}

// The folds below take a refined window as `REFINED_SIZE + 1` = 3
// entries per axis.
const _: () = assert!(REFINED_SIZE == 2);

/// The indices of an inclusive window `[lo, hi]` of one to three
/// entries, as exactly three: a shorter window repeats its last index,
/// which min/max ignore.
fn window3((lo, hi): (usize, usize)) -> [usize; 3] {
    [lo, (lo + 1).min(hi), hi]
}

/// Elementwise `lo[i] = min(+∞, a[i], b[i], c[i])` over the three
/// `src_lo` slices and `hi[i] = max(-∞, …)` over the three `src_hi`
/// slices: the contiguous, vectorisable step of
/// [`MacrocellGrid::build`]. Folding from the identity keeps a position
/// whose sources are all NaN at `(+∞, -∞)`: `f32::min`/`max` drop a NaN
/// operand.
fn fold3(lo: &mut [f32], hi: &mut [f32], src_lo: [&[f32]; 3], src_hi: [&[f32]; 3]) {
    let n = lo.len();
    let hi = &mut hi[..n];
    let [a, b, c] = src_lo.map(|s| &s[..n]);
    let [d, e, f] = src_hi.map(|s| &s[..n]);
    for i in 0..n {
        lo[i] = f32::INFINITY.min(a[i]).min(b[i]).min(c[i]);
        hi[i] = f32::NEG_INFINITY.max(d[i]).max(e[i]).max(f[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(dims: [usize; 3]) -> Volume {
        let mut v = Volume::zeros(dims);
        for z in 0..dims[2] {
            for y in 0..dims[1] {
                for x in 0..dims[0] {
                    v.set(x, y, z, (x + 10 * y + 100 * z) as f32);
                }
            }
        }
        v
    }

    #[test]
    fn cell_counts_cover_all_voxels() {
        for n in [1usize, 7, 8, 9, 16, 17, 24, 128] {
            let cells = MacrocellGrid::cells_along(n);
            // Last voxel index n-1 maps into the last cell.
            assert!((n - 1) / MACROCELL_SIZE < cells, "n={n}");
            // No empty trailing cell.
            assert!((cells - 1) * MACROCELL_SIZE < n, "n={n}");
        }
    }

    #[test]
    fn ranges_overlap_by_one_voxel() {
        let v = ramp([17, 9, 9]);
        let g = MacrocellGrid::build(&v);
        assert_eq!(g.cells(), [3, 2, 2]);
        // Cell 0 along x covers voxels 0..=8 (values 0..=8).
        let (lo, hi) = g.min_max(g.cell_index_of_voxel(0, 0, 0));
        assert_eq!(lo, 0.0);
        assert_eq!(hi, 8.0 + 10.0 * 8.0 + 100.0 * 8.0);
    }

    #[test]
    fn every_trilinear_sample_is_inside_its_cell_range() {
        let v = ramp([13, 11, 10]);
        let g = MacrocellGrid::build(&v);
        let dims = v.dims();
        // Probe a lattice of positions, including out-of-volume ones.
        let probe = |t: f32, n: usize| -> f32 { t * (n as f32 + 2.0) - 1.5 };
        for iz in 0..8 {
            for iy in 0..8 {
                for ix in 0..8 {
                    let p = [
                        probe(ix as f32 / 7.0, dims[0]),
                        probe(iy as f32 / 7.0, dims[1]),
                        probe(iz as f32 / 7.0, dims[2]),
                    ];
                    let s = v.sample_trilinear(p);
                    let vx = (p[0].clamp(0.0, (dims[0] - 1) as f32)) as usize;
                    let vy = (p[1].clamp(0.0, (dims[1] - 1) as f32)) as usize;
                    let vz = (p[2].clamp(0.0, (dims[2] - 1) as f32)) as usize;
                    let (lo, hi) = g.min_max(g.cell_index_of_voxel(vx, vy, vz));
                    assert!(s >= lo && s <= hi, "p={p:?} s={s} range=({lo},{hi})");
                }
            }
        }
    }

    #[test]
    fn refined_ranges_cover_trilinear_support() {
        let v = ramp([13, 11, 10]);
        let g = MacrocellGrid::build(&v);
        let dims = v.dims();
        let probe = |t: f32, n: usize| -> f32 { t * (n as f32 + 2.0) - 1.5 };
        let rc = g.refined_cells();
        for iz in 0..8 {
            for iy in 0..8 {
                for ix in 0..8 {
                    let p = [
                        probe(ix as f32 / 7.0, dims[0]),
                        probe(iy as f32 / 7.0, dims[1]),
                        probe(iz as f32 / 7.0, dims[2]),
                    ];
                    let s = v.sample_trilinear(p);
                    let cell = |c: f32, n: usize, rc_n: usize| -> usize {
                        ((c.clamp(0.0, (n - 1) as f32) as usize) / REFINED_SIZE).min(rc_n - 1)
                    };
                    let cx = cell(p[0], dims[0], rc[0]);
                    let cy = cell(p[1], dims[1], rc[1]);
                    let cz = cell(p[2], dims[2], rc[2]);
                    let (lo, hi) = g.refined_ranges()[(cz * rc[1] + cy) * rc[0] + cx];
                    assert!(s >= lo && s <= hi, "p={p:?} s={s} range=({lo},{hi})");
                }
            }
        }
    }

    #[test]
    fn macrocell_ranges_match_direct_fold() {
        // The macrocell ranges folded from refined cells must equal a
        // direct min/max over the macrocell's inclusive voxel range.
        let v = ramp([17, 9, 9]);
        let g = MacrocellGrid::build(&v);
        assert_eq!(g.ranges(), gather_ranges(&v, MACROCELL_SIZE).as_slice());
    }

    /// Direct per-cell gather over each size-`size` cell's inclusive
    /// voxel window, row-major (x fastest): the differential oracle for
    /// [`MacrocellGrid::build`].
    fn gather_ranges(v: &Volume, size: usize) -> Vec<(f32, f32)> {
        let dims = v.dims();
        let n = dims.map(|d| MacrocellGrid::cells_along_size(d, size));
        let mut out = Vec::new();
        for cz in 0..n[2] {
            let (z0, z1) = MacrocellGrid::voxel_range_size(cz, dims[2], size);
            for cy in 0..n[1] {
                let (y0, y1) = MacrocellGrid::voxel_range_size(cy, dims[1], size);
                for cx in 0..n[0] {
                    let (x0, x1) = MacrocellGrid::voxel_range_size(cx, dims[0], size);
                    let mut lo = f32::INFINITY;
                    let mut hi = f32::NEG_INFINITY;
                    for z in z0..=z1 {
                        for y in y0..=y1 {
                            for x in x0..=x1 {
                                lo = lo.min(v.get(x, y, z));
                                hi = hi.max(v.get(x, y, z));
                            }
                        }
                    }
                    out.push((lo, hi));
                }
            }
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// The separable build equals the direct gather on every refined
        /// cell and every macrocell, over odd, non-multiple-of-2/8 and
        /// single-voxel axes, signed zeros, and cells that mix NaN with
        /// numbers or hold only NaN (which must stay `(+∞, -∞)`).
        #[test]
        fn build_matches_direct_gather(
            dims in (1usize..20, 1usize..20, 1usize..20),
            nan_level in 0usize..5,
            seed in 0u64..u64::MAX,
        ) {
            let dims = [dims.0, dims.1, dims.2];
            let nan_per_mille = [0, 100, 500, 900, 1000][nan_level];
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let data = (0..dims[0] * dims[1] * dims[2])
                .map(|_| {
                    let r = next();
                    if r % 1000 < nan_per_mille {
                        f32::NAN
                    } else {
                        [-0.0, 0.0, -2.5, 1.0, 7.0, f32::MAX][(r >> 32) as usize % 6]
                    }
                })
                .collect();
            let v = Volume::from_data(dims, data);
            let g = MacrocellGrid::build(&v);
            let refined = gather_ranges(&v, REFINED_SIZE);
            let macro_ranges = gather_ranges(&v, MACROCELL_SIZE);
            proptest::prop_assert!(g.refined_ranges() == refined.as_slice(), "refined, dims {:?}", dims);
            proptest::prop_assert!(g.ranges() == macro_ranges.as_slice(), "macrocells, dims {:?}", dims);
            if nan_per_mille == 1000 {
                proptest::prop_assert!(g.ranges().iter().all(|&r| r == (f32::INFINITY, f32::NEG_INFINITY)));
            }
        }
    }

    #[test]
    fn single_voxel_volume() {
        let v = Volume::from_data([1, 1, 1], vec![4.5]);
        let g = MacrocellGrid::build(&v);
        assert_eq!(g.num_cells(), 1);
        assert_eq!(g.min_max(0), (4.5, 4.5));
    }
}

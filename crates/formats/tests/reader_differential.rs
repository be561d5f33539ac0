//! Differential test of the extent-batched reader against a naive
//! per-run reader.
//!
//! The oracle below does one seek and one read per placed run.
//! [`read_subvolume`] and [`read_runs`] must return bit-identical data
//! for every layout, variable, subvolume and chunk geometry, while
//! touching the file exactly once per physical extent.

use std::io::{self, Cursor, Read, Seek, SeekFrom};
use std::path::PathBuf;

use proptest::prelude::*;
use pvr_formats::layout::{
    FileLayout, Hdf5LikeLayout, NetCdf64Layout, NetCdfClassicLayout, RawLayout,
};
use pvr_formats::{read_runs, read_subvolume, total_bytes, write_file, Subvolume, ELEM_SIZE};

/// A `Read + Seek` wrapper that counts read calls and bytes read.
struct Counting<R> {
    inner: R,
    reads: usize,
    bytes: u64,
}

impl<R> Counting<R> {
    fn new(inner: R) -> Self {
        Counting {
            inner,
            reads: 0,
            bytes: 0,
        }
    }
}

impl<R: Read> Read for Counting<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.reads += 1;
        self.bytes += n as u64;
        Ok(n)
    }
}

impl<R: Seek> Seek for Counting<R> {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.inner.seek(pos)
    }
}

fn field(var: usize, x: usize, y: usize, z: usize) -> f32 {
    // Distinct, sign-varying values whose bytes differ per element.
    let v = (var * 1_000_003 + z * 10_007 + y * 101 + x) as f32;
    if (x + y + z) & 1 == 0 {
        -v - 0.25
    } else {
        v + 0.5
    }
}

/// The file `layout` describes, written to disk and read back whole.
fn file_bytes(layout: &dyn FileLayout, tag: &str) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("pvr-formats-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join(format!("{tag}.{}", layout.kind().name()));
    write_file(&path, layout, field).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

/// The naive reader: one seek and one read per placed run, raw on-disk
/// bytes in output order.
fn per_run_oracle(file: &[u8], layout: &dyn FileLayout, var: usize, sub: &Subvolume) -> Vec<u8> {
    let mut f = Cursor::new(file);
    let mut out = vec![0u8; sub.num_elements() * ELEM_SIZE as usize];
    layout.placed_runs(var, sub, &mut |r| {
        let at = r.out_start * ELEM_SIZE as usize;
        let nb = r.elems * ELEM_SIZE as usize;
        f.seek(SeekFrom::Start(r.file_offset)).unwrap();
        f.read_exact(&mut out[at..at + nb]).unwrap();
    });
    out
}

/// Check both entry points of the reader against the oracle on every
/// variable of `layout`.
fn check(layout: &dyn FileLayout, sub: &Subvolume, tag: &str) {
    let file = file_bytes(layout, tag);
    let endian = layout.endian();
    for var in 0..layout.num_vars() {
        let expect = per_run_oracle(&file, layout, var, sub);
        let extents = layout.physical_extents(var, sub);
        let what = format!("{} var {var} {sub:?}", layout.kind().name());

        let mut f = Counting::new(Cursor::new(&file[..]));
        let got = read_subvolume(&mut f, layout, var, sub).unwrap();
        let decoded: Vec<u32> = expect
            .chunks_exact(4)
            .map(|c| endian.decode([c[0], c[1], c[2], c[3]]).to_bits())
            .collect();
        let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got_bits, decoded, "read_subvolume differs: {what}");
        assert_eq!(f.reads, extents.len(), "reads != extents: {what}");
        assert_eq!(f.bytes, total_bytes(&extents), "bytes != extents: {what}");

        let mut runs = Vec::new();
        layout.placed_runs(var, sub, &mut |r| runs.push(r));
        let mut raw = vec![0u8; expect.len()];
        let mut f = Counting::new(Cursor::new(&file[..]));
        read_runs(&mut f, &runs, &extents, |r, b| {
            raw[r.out_start * ELEM_SIZE as usize..][..b.len()].copy_from_slice(b)
        })
        .unwrap();
        assert_eq!(raw, expect, "read_runs differs: {what}");
        assert_eq!(f.reads, extents.len(), "reads != extents: {what}");
    }
}

fn layouts(grid: [usize; 3], nvars: usize, chunk: [usize; 3]) -> Vec<Box<dyn FileLayout>> {
    vec![
        Box::new(RawLayout::new(grid)),
        Box::new(NetCdfClassicLayout::new(grid, nvars)),
        Box::new(NetCdf64Layout::new(grid, nvars)),
        Box::new(Hdf5LikeLayout::with_chunk(grid, nvars, chunk)),
    ]
}

/// A grid, an HDF5 chunk shape (edges up to three past the grid, so
/// padded edge chunks and chunks larger than the grid both occur), a
/// variable count and a subvolume inside the grid.
#[allow(clippy::type_complexity)]
fn arb_case() -> impl Strategy<Value = ([usize; 3], [usize; 3], usize, Subvolume)> {
    (1usize..=13, 1usize..=11, 1usize..=9).prop_flat_map(|(gx, gy, gz)| {
        let grid = [gx, gy, gz];
        (
            (1..=gx + 3, 1..=gy + 3, 1..=gz + 3),
            1usize..=3,
            (0..gx, 0..gy, 0..gz),
            (1..=gx, 1..=gy, 1..=gz),
        )
            .prop_map(move |((cx, cy, cz), nvars, (x, y, z), (dx, dy, dz))| {
                let shape = [dx.min(gx - x), dy.min(gy - y), dz.min(gz - z)];
                (grid, [cx, cy, cz], nvars, Subvolume::new([x, y, z], shape))
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn extent_reader_matches_per_run_reader((grid, chunk, nvars, sub) in arb_case()) {
        for layout in layouts(grid, nvars, chunk) {
            check(layout.as_ref(), &sub, "prop");
        }
    }
}

#[test]
fn padded_edge_chunks_and_oversized_chunks_match() {
    let grid = [10, 9, 7];
    for chunk in [[4, 4, 4], [3, 5, 2], [16, 16, 16], [10, 9, 7], [1, 1, 1]] {
        let l = Hdf5LikeLayout::with_chunk(grid, 2, chunk);
        for sub in [
            Subvolume::whole(grid),
            Subvolume::new([3, 2, 1], [6, 5, 5]),
            Subvolume::new([9, 8, 6], [1, 1, 1]),
        ] {
            check(&l, &sub, "edge");
        }
    }
}

#[test]
fn truncated_file_is_unexpected_eof() {
    let l = Hdf5LikeLayout::with_chunk([12, 10, 8], 2, [4, 4, 4]);
    let mut file = file_bytes(&l, "trunc");
    // Cut the last chunk of the last variable in half.
    file.truncate(file.len() - (l.chunk_bytes() / 2) as usize);
    let err = read_subvolume(
        &mut Cursor::new(&file[..]),
        &l,
        1,
        &Subvolume::whole(l.grid()),
    )
    .unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    // Data before the cut still reads.
    let head = Subvolume::new([0, 0, 0], [4, 4, 4]);
    assert!(read_subvolume(&mut Cursor::new(&file[..]), &l, 1, &head).is_ok());
}

#[test]
fn run_outside_the_extents_is_invalid_input() {
    let l = RawLayout::new([8, 8, 8]);
    let sub = Subvolume::new([0, 0, 0], [8, 8, 2]);
    let file = file_bytes(&l, "outside");
    let mut runs = Vec::new();
    l.placed_runs(0, &sub, &mut |r| runs.push(r));
    let short = l.physical_extents(0, &Subvolume::new([0, 0, 0], [8, 8, 1]));
    let err = read_runs(&mut Cursor::new(&file[..]), &runs, &short, |_, _| {}).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
}

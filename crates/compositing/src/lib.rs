//! # pvr-compositing — sort-last image compositing
//!
//! The last stage of the paper's pipeline: reduce the `n` per-block
//! subimages into one final image. The paper's contribution here is the
//! observation that in **direct-send** compositing the number of
//! compositors `m` need not equal the number of renderers `n`: limiting
//! `m` (1K compositors for n ≤ 4K, 2K beyond) keeps per-message payloads
//! large enough to stay on the fat part of the network's
//! bandwidth-vs-message-size curve, cutting 32K-core compositing time
//! ~30x.
//!
//! * [`region`] — image-region ownership: the final image is split into
//!   `m` equal spans of row-major pixels, one per compositor.
//! * [`schedule`] — the direct-send message schedule computed from block
//!   footprints alone (no pixel data), used both to drive the real
//!   exchange and to feed the network simulator at paper scale.
//! * [`directsend`] — the real direct-send compositor (any `m ≤ n`).
//! * [`late`] — late-arrival tile assembly: first-wins dedup and
//!   re-open/re-blend semantics for fragments adopted after a fault.
//! * [`binaryswap`] — the classic binary-swap compositor (power-of-two
//!   `n`), the standard alternative the paper cites (Ma et al.).
//! * [`radixk`] — radix-k compositing, the authors' follow-on algorithm
//!   that generalizes both (direct-send = one round of radix n, binary
//!   swap = rounds of radix 2).
//! * [`serial`] — gather-to-root compositing: the ground truth.
//!
//! All compositors produce the same image (to f32 tolerance) on the same
//! input — the integration tests assert it — because *over* is
//! associative and every algorithm preserves front-to-back order.

pub mod binaryswap;
pub mod completeness;
pub mod directsend;
pub mod late;
pub mod radixk;
pub mod region;
pub mod schedule;
pub mod serial;
pub mod sparse;

pub use completeness::{CompletenessMap, TileCompleteness};
pub use directsend::{blend_fragments, composite_direct_send, composite_direct_send_traced};
pub use late::{InsertOutcome, TileAssembly};
pub use radixk::{composite_radix_k, composite_radix_k_degraded};
pub use region::ImagePartition;
pub use schedule::{build_schedule, CompositeMessage, Schedule};
pub use serial::composite_serial;
pub use sparse::{piece_wire_bytes, SparseSubImage};

/// Bytes per pixel on the compositing wire (RGBA8, as in the paper:
/// a 1600² image over 256 compositors is 40 KB per region message).
pub const WIRE_BYTES_PER_PIXEL: u64 = 4;

/// Sparse encoding: per-row span-count header (one word).
pub const WIRE_BYTES_PER_ROW: u64 = 4;

/// Sparse encoding: per-span header (start offset + length).
pub const WIRE_BYTES_PER_SPAN: u64 = 8;

/// The paper's compositor-count policy: direct-send with `m = n` up to
/// 1K renderers, 1K compositors for 1K < n ≤ 4K, 2K compositors beyond
/// ("we used 1K compositors when the number of renderers is between 1K
/// and 4K and then 2K compositors beyond that").
pub fn improved_compositor_count(renderers: usize) -> usize {
    if renderers <= 1024 {
        renderers
    } else if renderers <= 4096 {
        1024
    } else {
        2048
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compositor_policy_matches_paper() {
        assert_eq!(improved_compositor_count(64), 64);
        assert_eq!(improved_compositor_count(1024), 1024);
        assert_eq!(improved_compositor_count(2048), 1024);
        assert_eq!(improved_compositor_count(4096), 1024);
        assert_eq!(improved_compositor_count(8192), 2048);
        assert_eq!(improved_compositor_count(32768), 2048);
    }
}

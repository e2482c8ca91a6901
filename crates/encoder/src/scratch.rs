//! Reusable per-thread encode buffers.
//!
//! Tile encoding works block by block; before this module existed,
//! every block heap-allocated its original samples, intra reference
//! edges, predictions, residuals, coefficient/level vectors and the
//! reconstruction — a dozen allocations per block, millions per
//! second under the worker pool. [`EncScratch`] owns all of those
//! buffers so a steady-state encode loop performs **zero per-block
//! heap allocations** (verified by the counting-allocator test in
//! `tests/zero_alloc.rs`).
//!
//! [`encode_tile`](crate::encode_tile) keeps one `EncScratch` per
//! thread automatically; [`encode_tile_with_scratch`](crate::encode_tile_with_scratch)
//! threads an explicit instance for callers that manage their own
//! worker state.

use crate::block::ResidualScratch;
use crate::intra::IntraRefs;
use crate::tile::MAX_REFS;
use medvt_motion::MotionVector;
#[cfg(doc)]
use medvt_motion::RefWindow;

/// All reusable buffers one encoding thread needs.
///
/// Buffers only ever grow (to the largest block seen), so after the
/// first block of the first tile the encode loop stops touching the
/// allocator entirely.
#[derive(Debug, Clone, Default)]
pub struct EncScratch {
    /// Residual/transform/quantization intermediates.
    pub(crate) residual: ResidualScratch,
    /// Prediction of the current block when a non-planar intra mode
    /// wins.
    pub(crate) intra_pred: Vec<u8>,
    /// Planar's prediction of the current block, built by the intra
    /// mode-decision pass.
    pub(crate) planar: Vec<u8>,
    /// Gathered reference windows of an edge tile, one per reference
    /// (see [`RefWindow::around`]): at most `(tile.w + 2r)·(tile.h + 2r)`
    /// bytes each, reused by every later edge tile.
    pub(crate) ref_windows: [Vec<u8>; MAX_REFS],
    /// Luma intra reference edges.
    pub(crate) luma_refs: IntraRefs,
    /// Prediction of the current chroma block.
    pub(crate) chroma_pred: Vec<u8>,
    /// Motion vectors of the tile's inter blocks.
    pub(crate) inter_mvs: Vec<MotionVector>,
    /// Median-of-MVs sort buffers.
    pub(crate) mv_xs: Vec<i16>,
    pub(crate) mv_ys: Vec<i16>,
}

impl EncScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

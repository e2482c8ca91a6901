//! # medvt-motion
//!
//! Block-matching motion estimation for the `medvt` reproduction of
//! *"Online Efficient Bio-Medical Video Transcoding on MPSoCs Through
//! Content-Aware Workload Allocation"* (Iranfar et al., DATE 2018).
//!
//! The crate provides:
//!
//! * the classic fast searches the paper surveys (§II-B): three-step,
//!   diamond, cross, one-at-a-time and hexagon-based search, plus
//!   exhaustive [`FullSearch`] and the HM reference [`TzSearch`];
//! * the paper's proposed [`BioMedicalSearch`] policy (§III-C2), which
//!   combines cross / one-at-a-time / rotating- and direction-locked
//!   hexagon search across the frames of a GOP;
//! * [`cost`] — SAD, the one metric every search scores candidates
//!   by, and SATD, on runtime-dispatched SIMD kernels.
//!
//! Per-tile estimation (each block seeded with the previous inter
//! block's vector) and the tile's dominant vector live in the encoder's
//! `encode_tile`, the one block loop that drives these searches.
//!
//! Complexity is measured in *distinct candidates evaluated* (see
//! [`SearchResult::evaluations`]), the standard metric behind the
//! speedup rows of the paper's Table I.
//!
//! # Examples
//!
//! ```
//! use medvt_frame::{Plane, Rect};
//! use medvt_motion::{
//!     CostMetric, DiamondSearch, MotionSearch, MotionVector, SearchContext, SearchWindow,
//! };
//!
//! // Reference: a gradient; current frame: the same content shifted right.
//! let mut reference = Plane::new(64, 64);
//! for row in 0..64 {
//!     for col in 0..64 {
//!         reference.set(col, row, ((col * 7 + row * 3) % 255) as u8);
//!     }
//! }
//! let mut cur = Plane::new(64, 64);
//! for row in 0..64 {
//!     for col in 0..64 {
//!         cur.set(col, row, reference.get_clamped(col as isize - 2, row as isize));
//!     }
//! }
//! let ctx = SearchContext::new(
//!     &cur,
//!     &reference,
//!     Rect::new(24, 24, 16, 16),
//!     SearchWindow::W16,
//!     CostMetric::Sad,
//!     MotionVector::ZERO,
//! );
//! let result = DiamondSearch.search(&ctx);
//! assert_eq!(result.mv, MotionVector::new(-2, 0));
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

pub mod algorithms;
mod biomed;
pub mod cost;
mod mv;
mod search;
#[cfg(test)]
mod testutil;

pub use algorithms::{
    CrossSearch, DiamondSearch, FullSearch, HexOrientation, HexagonSearch, OneAtATimeSearch,
    ThreeStepSearch, TzSearch,
};
pub use biomed::{BioMedicalSearch, GopPhase, MotionLevel};
pub use cost::{sad, sad_upto, satd, CostMetric};
pub use mv::{MotionAxis, MotionVector};
pub use search::{Best, MotionSearch, SearchContext, SearchResult, SearchWindow};

//! [`SearchSpec`]: the one representation of a block-matching search —
//! serialisable, named, and run directly.

use crate::algorithms::{
    cross, diamond, full, hexagon, one_at_a_time, three_step, tz, HexOrientation,
};
use crate::biomed::biomed;
use crate::mv::MotionAxis;
use crate::search::{SearchContext, SearchResult};
use crate::{GopPhase, MotionLevel, MotionVector};
use serde::{Deserialize, Serialize};

/// A motion-search algorithm: the per-tile choice the paper's §III-C2
/// policy makes and its Table I references vary. [`SearchSpec::search`]
/// runs it on one block.
///
/// # Examples
///
/// ```
/// use medvt_motion::{MotionLevel, SearchSpec};
///
/// let first = SearchSpec::biomed_first(MotionLevel::Low);
/// assert_eq!(first.name(), "biomed");
/// assert_eq!(SearchSpec::default().name(), "hexagon-h");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum SearchSpec {
    /// Exhaustive full search.
    Full,
    /// Three-step search.
    ThreeStep,
    /// Diamond search.
    Diamond,
    /// Cross-search.
    Cross,
    /// One-at-a-time search (classic horizontal-first).
    OneAtATime,
    /// Hexagon-based search with fixed orientation policy.
    Hexagon(HexOrientation),
    /// HM Test Zone search — the reference of Table I.
    Tz,
    /// The paper's proposed bio-medical policy.
    BioMedical {
        /// Tile motion level from the analyzer.
        level: MotionLevel,
        /// GOP phase (first frame discovers direction, later frames
        /// inherit it).
        phase: GopPhase,
    },
}

impl SearchSpec {
    /// The proposed policy for the first frame of a GOP.
    pub const fn biomed_first(level: MotionLevel) -> SearchSpec {
        SearchSpec::BioMedical {
            level,
            phase: GopPhase::First,
        }
    }

    /// The proposed policy for later GOP frames.
    pub const fn biomed_subsequent(level: MotionLevel, direction: MotionVector) -> SearchSpec {
        SearchSpec::BioMedical {
            level,
            phase: GopPhase::Subsequent { direction },
        }
    }

    /// This search, by value: a spec is its own searcher.
    // Vestige: `benchmark/src/replay.rs:264` calls
    // `.instantiate().search(&ctx)`; the next `[benchmark]` PR drops it.
    pub fn instantiate(&self) -> SearchSpec {
        *self
    }

    /// Searches one block. Every algorithm stays inside `ctx.window()`
    /// (the context's cost queries guarantee it) and starts from
    /// [`SearchContext::predictor`].
    pub fn search(&self, ctx: &SearchContext<'_>) -> SearchResult {
        match *self {
            SearchSpec::Full => full(ctx),
            SearchSpec::ThreeStep => three_step(ctx),
            SearchSpec::Diamond => diamond(ctx),
            SearchSpec::Cross => cross(ctx),
            SearchSpec::OneAtATime => one_at_a_time(ctx, MotionAxis::Horizontal),
            SearchSpec::Hexagon(orientation) => hexagon(ctx, orientation),
            SearchSpec::Tz => tz(ctx),
            SearchSpec::BioMedical { level, phase } => biomed(ctx, level, phase),
        }
    }

    /// Stable name for reports and LUT keys.
    pub fn name(&self) -> &'static str {
        match self {
            SearchSpec::Full => "full",
            SearchSpec::ThreeStep => "three-step",
            SearchSpec::Diamond => "diamond",
            SearchSpec::Cross => "cross",
            SearchSpec::OneAtATime => "one-at-a-time",
            SearchSpec::Hexagon(HexOrientation::Horizontal) => "hexagon-h",
            SearchSpec::Hexagon(HexOrientation::Vertical) => "hexagon-v",
            SearchSpec::Hexagon(HexOrientation::Rotating) => "hexagon-rot",
            SearchSpec::Tz => "tz",
            SearchSpec::BioMedical { .. } => "biomed",
        }
    }
}

impl Default for SearchSpec {
    fn default() -> Self {
        SearchSpec::Hexagon(HexOrientation::Horizontal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_has_its_stable_distinct_name() {
        let named = [
            (SearchSpec::Full, "full"),
            (SearchSpec::ThreeStep, "three-step"),
            (SearchSpec::Diamond, "diamond"),
            (SearchSpec::Cross, "cross"),
            (SearchSpec::OneAtATime, "one-at-a-time"),
            (SearchSpec::Hexagon(HexOrientation::Horizontal), "hexagon-h"),
            (SearchSpec::Hexagon(HexOrientation::Vertical), "hexagon-v"),
            (SearchSpec::Hexagon(HexOrientation::Rotating), "hexagon-rot"),
            (SearchSpec::Tz, "tz"),
            (SearchSpec::biomed_first(MotionLevel::High), "biomed"),
        ];
        for (i, (spec, name)) in named.iter().enumerate() {
            assert_eq!(spec.name(), *name, "{spec:?}");
            for (other, _) in &named[..i] {
                assert_ne!(spec.name(), other.name(), "{spec:?} vs {other:?}");
            }
        }
        let later = SearchSpec::biomed_subsequent(MotionLevel::Low, MotionVector::new(1, 0));
        assert_eq!(later.name(), "biomed");
    }
}

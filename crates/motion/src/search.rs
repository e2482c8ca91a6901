//! Search framework: windows, contexts, results and the
//! [`MotionSearch`] trait all algorithms implement.

use crate::cost::{sad_upto, CostMetric};
use crate::MotionVector;
use medvt_frame::{Plane, Rect};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};

/// A square search window of `size x size` samples centered on the
/// collocated block, i.e. motion components are clamped to
/// `±size/2` (paper §III-C2 uses sizes 64, 32, 16 and 8).
///
/// # Examples
///
/// ```
/// use medvt_motion::SearchWindow;
///
/// assert_eq!(SearchWindow::W64.radius(), 32);
/// assert_eq!(SearchWindow::W16.size(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SearchWindow {
    radius: i16,
}

impl SearchWindow {
    /// 64x64 window (±32) — the paper's maximum for high-motion tiles.
    pub const W64: SearchWindow = SearchWindow { radius: 32 };
    /// 32x32 window (±16).
    pub const W32: SearchWindow = SearchWindow { radius: 16 };
    /// 16x16 window (±8) — low-motion tiles, first GOP frame.
    pub const W16: SearchWindow = SearchWindow { radius: 8 };
    /// 8x8 window (±4) — low-motion tiles, subsequent GOP frames.
    pub const W8: SearchWindow = SearchWindow { radius: 4 };

    /// The window sizes the paper considers, largest first.
    pub const ALL: [SearchWindow; 4] = [
        SearchWindow::W64,
        SearchWindow::W32,
        SearchWindow::W16,
        SearchWindow::W8,
    ];

    /// Maximum absolute motion component.
    pub const fn radius(&self) -> i16 {
        self.radius
    }

    /// Side length in samples.
    pub const fn size(&self) -> usize {
        (self.radius as usize) * 2
    }

    /// `true` when `mv` lies inside the window.
    pub fn contains(&self, mv: MotionVector) -> bool {
        mv.linf_norm() <= self.radius
    }

    /// The next smaller paper window, if any (64→32→16→8).
    pub fn shrunk(&self) -> Option<SearchWindow> {
        Self::ALL
            .iter()
            .copied()
            .filter(|w| w.radius < self.radius)
            .max_by_key(|w| w.radius)
    }
}

impl Default for SearchWindow {
    fn default() -> Self {
        SearchWindow::W64
    }
}

/// One memoized candidate slot, stamped with the owning context's
/// generation so pooled buffers never need clearing.
#[derive(Debug, Clone, Copy, Default)]
struct MemoSlot {
    gen: u32,
    /// 0 = empty, 1 = lower bound (early-terminated), 2 = exact.
    tag: u8,
    value: u64,
}

const TAG_LOWER: u8 = 1;
const TAG_EXACT: u8 = 2;

/// Flat per-window candidate memo, recycled through a thread-local
/// pool so steady-state block searches allocate nothing.
#[derive(Debug, Default)]
struct MemoBuf {
    gen: u32,
    slots: Vec<MemoSlot>,
}

impl MemoBuf {
    /// Prepares the buffer for a window of side length `side`:
    /// guarantees capacity and invalidates previous entries by bumping
    /// the generation stamp (no O(side²) clear).
    fn begin(&mut self, side: usize) {
        let need = side * side;
        if self.slots.len() < need {
            self.slots.resize(need, MemoSlot::default());
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Generation wrapped: stale stamps could collide, so clear
            // once every 2^32 contexts.
            self.slots.fill(MemoSlot::default());
            self.gen = 1;
        }
    }

    #[inline]
    fn get(&self, idx: usize) -> (u8, u64) {
        let s = self.slots[idx];
        if s.gen == self.gen {
            (s.tag, s.value)
        } else {
            (0, 0)
        }
    }

    #[inline]
    fn set(&mut self, idx: usize, tag: u8, value: u64) {
        self.slots[idx] = MemoSlot {
            gen: self.gen,
            tag,
            value,
        };
    }
}

thread_local! {
    /// Recycled memo buffers; a stack because policy algorithms nest
    /// narrowed contexts inside their parent's lifetime.
    static MEMO_POOL: RefCell<Vec<MemoBuf>> = const { RefCell::new(Vec::new()) };
}

fn memo_acquire(side: usize) -> MemoBuf {
    let mut buf = MEMO_POOL
        .with(|pool| pool.borrow_mut().pop())
        .unwrap_or_default();
    buf.begin(side);
    buf
}

fn memo_release(buf: MemoBuf) {
    // Ignore failures during thread teardown.
    let _ = MEMO_POOL.try_with(|pool| pool.borrow_mut().push(buf));
}

/// Everything an algorithm needs to search one block: the two planes,
/// the block geometry, the window and a starting predictor. Candidates
/// are scored by SAD.
///
/// The context memoizes candidate costs, so the number of *distinct*
/// candidates evaluated — the standard complexity measure for
/// block-matching algorithms — is available as [`SearchContext::evaluations`].
///
/// Memoization uses a flat array indexed by window offset (one slot
/// per candidate, no hashing), recycled through a thread-local pool so
/// constructing a context in a steady-state encode loop does not
/// allocate.
#[derive(Debug)]
pub struct SearchContext<'a> {
    cur: &'a Plane,
    reference: &'a Plane,
    block: Rect,
    window: SearchWindow,
    predictor: MotionVector,
    evaluations: Cell<u64>,
    memo: RefCell<MemoBuf>,
}

impl Drop for SearchContext<'_> {
    fn drop(&mut self) {
        memo_release(std::mem::take(self.memo.get_mut()));
    }
}

impl<'a> SearchContext<'a> {
    /// Creates a search context. `_metric` selects nothing: SAD is the
    /// one search metric (see [`CostMetric`]).
    ///
    /// # Panics
    ///
    /// Panics when `block` is not fully inside `cur`.
    pub fn new(
        cur: &'a Plane,
        reference: &'a Plane,
        block: Rect,
        window: SearchWindow,
        _metric: CostMetric,
        predictor: MotionVector,
    ) -> Self {
        assert!(
            cur.bounds().contains_rect(&block),
            "block {block} outside current plane"
        );
        Self {
            cur,
            reference,
            block,
            window,
            predictor,
            evaluations: Cell::new(0),
            memo: RefCell::new(memo_acquire(window.size() + 1)),
        }
    }

    /// Flat memo index of an in-window candidate.
    #[inline]
    fn slot_index(&self, mv: MotionVector) -> usize {
        let r = self.window.radius() as isize;
        let side = 2 * r as usize + 1;
        (mv.y as isize + r) as usize * side + (mv.x as isize + r) as usize
    }

    /// The block being matched.
    pub fn block(&self) -> Rect {
        self.block
    }

    /// The active search window.
    pub fn window(&self) -> SearchWindow {
        self.window
    }

    /// The starting predictor, clamped into the window.
    pub fn predictor(&self) -> MotionVector {
        self.predictor.clamped(self.window.radius())
    }

    /// Distinct candidates evaluated so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations.get()
    }

    /// A derived context over the same planes/block with a different
    /// window (used by policy algorithms that shrink the window); the
    /// evaluation counter starts at zero.
    pub(crate) fn narrowed(&self, window: SearchWindow) -> SearchContext<'a> {
        self.narrowed_with_predictor(window, self.predictor)
    }

    /// Like [`SearchContext::narrowed`] but replacing the predictor,
    /// used when a policy injects an inherited motion direction.
    pub(crate) fn narrowed_with_predictor(
        &self,
        window: SearchWindow,
        predictor: MotionVector,
    ) -> SearchContext<'a> {
        SearchContext::new(
            self.cur,
            self.reference,
            self.block,
            window,
            CostMetric::Sad,
            predictor,
        )
    }

    /// Cost of candidate `mv`, or `None` when it falls outside the
    /// window. Repeated queries of the same candidate are served from
    /// cache and counted once. With an early-termination `bound` (pass
    /// `u64::MAX` for the exact cost) the metric may stop at a row
    /// boundary once its partial
    /// sum reaches `bound`. The result decides `cost < bound` exactly
    /// like the exact cost would (see [`crate::cost`]), and is exact
    /// whenever it is below `bound` — so search decisions driven by a
    /// monotonically decreasing running best are bit-identical to the
    /// unbounded search, while rejected candidates cost a fraction of
    /// the samples.
    ///
    /// Distinct candidates are still counted exactly once in
    /// [`SearchContext::evaluations`], terminated or not.
    pub(crate) fn try_cost_upto(&self, mv: MotionVector, bound: u64) -> Option<u64> {
        if !self.window.contains(mv) {
            return None;
        }
        let idx = self.slot_index(mv);
        let mut memo = self.memo.borrow_mut();
        let (tag, cached) = memo.get(idx);
        match tag {
            TAG_EXACT => Some(cached),
            // A stored lower bound came from an earlier early exit, so
            // it is >= the bound active then; running bests only
            // decrease, so it also rejects against any later bound it
            // still reaches.
            TAG_LOWER if cached >= bound => Some(cached),
            _ => {
                let c = sad_upto(self.cur, self.reference, &self.block, mv, bound);
                if c < bound {
                    memo.set(idx, TAG_EXACT, c);
                } else {
                    memo.set(idx, TAG_LOWER, c);
                }
                if tag == 0 {
                    self.evaluations.set(self.evaluations.get() + 1);
                }
                Some(c)
            }
        }
    }

    /// Builds the search result once an algorithm settles on `best`.
    pub fn result(&self, best: MotionVector, cost: u64) -> SearchResult {
        SearchResult {
            mv: best,
            cost,
            evaluations: self.evaluations(),
        }
    }
}

/// Running best-candidate tracker.
#[derive(Debug, Clone, Copy)]
pub struct Best {
    /// Best motion vector found so far.
    pub mv: MotionVector,
    /// Its cost.
    pub cost: u64,
}

impl Best {
    /// Seeds the tracker from the first valid candidate among `seeds`.
    ///
    /// # Panics
    ///
    /// Panics when no seed lies inside the window (the zero vector is
    /// always inside, so passing it guarantees success).
    pub fn seeded(ctx: &SearchContext<'_>, seeds: &[MotionVector]) -> Best {
        let mut best: Option<Best> = None;
        for &s in seeds {
            let bound = best.map_or(u64::MAX, |b| b.cost);
            if let Some(c) = ctx.try_cost_upto(s, bound) {
                let better = best.is_none_or(|b| c < b.cost);
                if better {
                    best = Some(Best { mv: s, cost: c });
                }
            }
        }
        best.expect("at least one seed must lie inside the search window")
    }

    /// Evaluates `mv` and keeps it when strictly better. Returns `true`
    /// on improvement.
    ///
    /// The evaluation early-terminates against the running best cost
    /// (decision-equivalent to the exact comparison), so hopeless
    /// candidates stop
    /// after a few rows.
    pub fn try_candidate(&mut self, ctx: &SearchContext<'_>, mv: MotionVector) -> bool {
        match ctx.try_cost_upto(mv, self.cost) {
            Some(c) if c < self.cost => {
                self.mv = mv;
                self.cost = c;
                true
            }
            _ => false,
        }
    }
}

/// Outcome of one block search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchResult {
    /// The selected motion vector.
    pub mv: MotionVector,
    /// Distortion of the selected vector.
    pub cost: u64,
    /// Distinct candidates evaluated — the complexity measure behind
    /// the speedup rows of Table I.
    pub evaluations: u64,
}

/// A block-matching motion search algorithm.
///
/// Implementations must stay inside `ctx.window()` (guaranteed by the
/// context's cost queries) and should start from
/// [`SearchContext::predictor`].
pub trait MotionSearch: std::fmt::Debug {
    /// Human-readable algorithm name used in experiment tables.
    fn name(&self) -> &'static str;

    /// Searches one block.
    fn search(&self, ctx: &SearchContext<'_>) -> SearchResult;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planes() -> (Plane, Plane) {
        crate::testutil::shifted_planes(64, 64, 3, 1)
    }

    #[test]
    fn window_properties() {
        assert_eq!(SearchWindow::W8.size(), 8);
        assert_eq!(SearchWindow::W8.radius(), 4);
        assert!(SearchWindow::W8.contains(MotionVector::new(4, -4)));
        assert!(!SearchWindow::W8.contains(MotionVector::new(5, 0)));
        assert_eq!(SearchWindow::W64.shrunk(), Some(SearchWindow::W32));
        assert_eq!(SearchWindow::W8.shrunk(), None);
        assert_eq!(SearchWindow::default(), SearchWindow::W64);
    }

    #[test]
    fn context_counts_distinct_evaluations() {
        let (cur, reference) = planes();
        let ctx = SearchContext::new(
            &cur,
            &reference,
            Rect::new(16, 16, 8, 8),
            SearchWindow::W16,
            CostMetric::Sad,
            MotionVector::ZERO,
        );
        assert_eq!(ctx.evaluations(), 0);
        ctx.try_cost_upto(MotionVector::ZERO, u64::MAX);
        ctx.try_cost_upto(MotionVector::ZERO, u64::MAX); // cached, not recounted
        ctx.try_cost_upto(MotionVector::new(1, 0), u64::MAX);
        assert_eq!(ctx.evaluations(), 2);
    }

    #[test]
    fn out_of_window_candidates_rejected() {
        let (cur, reference) = planes();
        let ctx = SearchContext::new(
            &cur,
            &reference,
            Rect::new(16, 16, 8, 8),
            SearchWindow::W8,
            CostMetric::Sad,
            MotionVector::ZERO,
        );
        assert!(ctx
            .try_cost_upto(MotionVector::new(9, 0), u64::MAX)
            .is_none());
        assert_eq!(ctx.evaluations(), 0);
    }

    #[test]
    fn predictor_is_clamped() {
        let (cur, reference) = planes();
        let ctx = SearchContext::new(
            &cur,
            &reference,
            Rect::new(16, 16, 8, 8),
            SearchWindow::W8,
            CostMetric::Sad,
            MotionVector::new(100, -100),
        );
        assert_eq!(ctx.predictor(), MotionVector::new(4, -4));
    }

    #[test]
    fn best_tracker_improves_only() {
        let (cur, reference) = planes();
        let ctx = SearchContext::new(
            &cur,
            &reference,
            Rect::new(16, 16, 8, 8),
            SearchWindow::W16,
            CostMetric::Sad,
            MotionVector::ZERO,
        );
        let mut best = Best::seeded(&ctx, &[MotionVector::ZERO]);
        let improved = best.try_candidate(&ctx, MotionVector::new(-3, -1));
        assert!(improved, "true motion candidate must improve on zero");
        assert_eq!(best.mv, MotionVector::new(-3, -1));
        assert_eq!(best.cost, 0);
        assert!(!best.try_candidate(&ctx, MotionVector::new(2, 2)));
    }

    #[test]
    fn bounded_queries_count_once_and_stay_decision_equivalent() {
        let (cur, reference) = planes();
        let make_ctx = || {
            SearchContext::new(
                &cur,
                &reference,
                Rect::new(16, 16, 8, 8),
                SearchWindow::W16,
                CostMetric::Sad,
                MotionVector::ZERO,
            )
        };
        let ctx = make_ctx();
        let exact = ctx
            .try_cost_upto(MotionVector::new(5, 5), u64::MAX)
            .unwrap();
        assert!(exact > 0);

        let ctx2 = make_ctx();
        // Early-terminated: the result still rejects against the bound.
        let lb = ctx2.try_cost_upto(MotionVector::new(5, 5), 1).unwrap();
        assert!(lb >= 1 && lb <= exact);
        assert_eq!(ctx2.evaluations(), 1);
        // Tighter bound later: still rejected straight from the memo.
        let lb2 = ctx2.try_cost_upto(MotionVector::new(5, 5), 1).unwrap();
        assert!(lb2 >= 1);
        assert_eq!(ctx2.evaluations(), 1, "repeat query must not recount");
        // Unbounded re-query upgrades to the exact cost, still one eval.
        assert_eq!(
            ctx2.try_cost_upto(MotionVector::new(5, 5), u64::MAX),
            Some(exact)
        );
        assert_eq!(ctx2.evaluations(), 1);
        // A bound above the cost returns the exact value.
        let ctx3 = make_ctx();
        assert_eq!(
            ctx3.try_cost_upto(MotionVector::new(5, 5), exact + 1),
            Some(exact)
        );
    }

    #[test]
    fn full_search_with_early_termination_matches_unbounded_decisions() {
        let (cur, reference) = planes();
        let block = Rect::new(20, 20, 16, 16);
        let ctx = SearchContext::new(
            &cur,
            &reference,
            block,
            SearchWindow::W16,
            CostMetric::Sad,
            MotionVector::ZERO,
        );
        // Exhaustive sweep through Best (bounded) vs raw exact argmin.
        let mut best = Best::seeded(&ctx, &[MotionVector::ZERO]);
        for dy in -8i16..=8 {
            for dx in -8i16..=8 {
                best.try_candidate(&ctx, MotionVector::new(dx, dy));
            }
        }
        let verify = SearchContext::new(
            &cur,
            &reference,
            block,
            SearchWindow::W16,
            CostMetric::Sad,
            MotionVector::ZERO,
        );
        let mut exact_best = (
            MotionVector::ZERO,
            verify.try_cost_upto(MotionVector::ZERO, u64::MAX).unwrap(),
        );
        for dy in -8i16..=8 {
            for dx in -8i16..=8 {
                let mv = MotionVector::new(dx, dy);
                let c = verify.try_cost_upto(mv, u64::MAX).unwrap();
                if c < exact_best.1 {
                    exact_best = (mv, c);
                }
            }
        }
        assert_eq!(best.mv, exact_best.0);
        assert_eq!(best.cost, exact_best.1);
        assert_eq!(ctx.evaluations(), verify.evaluations());
    }

    #[test]
    fn narrowed_context_shares_geometry() {
        let (cur, reference) = planes();
        let ctx = SearchContext::new(
            &cur,
            &reference,
            Rect::new(16, 16, 8, 8),
            SearchWindow::W64,
            CostMetric::Sad,
            MotionVector::new(2, 1),
        );
        let narrow = ctx.narrowed(SearchWindow::W8);
        assert_eq!(narrow.block(), ctx.block());
        assert_eq!(narrow.window(), SearchWindow::W8);
        assert_eq!(narrow.evaluations(), 0);
    }
}

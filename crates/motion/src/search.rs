//! Search framework: windows, contexts, the running best and results,
//! shared by every algorithm [`crate::SearchSpec`] names.

use crate::cost::simd::{self, DispatchTier};
use crate::cost::{clamped_sad_upto, CostMetric};
use crate::MotionVector;
use medvt_frame::{Plane, Rect};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::fmt;

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

/// The reference samples a search reads: the frame rectangle
/// `[x0, x0 + width) × [y0, y0 + height)`, stored row-major.
///
/// A window is either a whole reference plane ([`RefWindow::plane`],
/// origin 0), whose candidates that reach off the plane read its
/// edge-replicated samples, or a gathered window
/// ([`RefWindow::around`]) that holds the edge-replicated samples of
/// one tile's search range and nothing beyond it.
///
/// # Examples
///
/// ```
/// use medvt_frame::{Plane, Rect};
/// use medvt_motion::{RefWindow, SearchWindow};
///
/// let reference = Plane::filled(64, 48, 9);
/// let w16 = SearchWindow::W16; // ±8
/// let mut buf = Vec::new();
/// // In frame: the window is the plane itself, nothing is copied.
/// let inside = RefWindow::around(&reference, Rect::new(16, 16, 16, 16), w16, &mut buf);
/// assert_eq!(inside.origin(), (0, 0));
/// // At the frame corner: the range `tile ± 8` is gathered once.
/// let corner = RefWindow::around(&reference, Rect::new(0, 0, 16, 16), w16, &mut buf);
/// assert_eq!(corner.origin(), (-8, -8));
/// assert_eq!(corner.size(), (32, 32));
/// ```
#[derive(Clone, Copy)]
pub struct RefWindow<'a> {
    samples: &'a [u8],
    x0: isize,
    y0: isize,
    width: usize,
    height: usize,
    /// The plane itself when the window is a whole reference plane:
    /// candidates beyond it fall back to edge clamping.
    plane: Option<&'a Plane>,
}

impl<'a> RefWindow<'a> {
    /// The whole `reference` plane at origin 0. Candidates that reach
    /// off it read clamped edge samples.
    pub fn plane(reference: &'a Plane) -> Self {
        RefWindow {
            samples: reference.samples(),
            x0: 0,
            y0: 0,
            width: reference.width(),
            height: reference.height(),
            plane: Some(reference),
        }
    }

    /// The window every block of `area` searches within `±r`,
    /// `r = window.radius()`: the frame rectangle `[area.x − r,
    /// area.right() + r) × [area.y − r, area.bottom() + r)`. When that
    /// rectangle lies inside `reference` the window is the plane itself
    /// (no copy); otherwise its edge-replicated samples are gathered
    /// once into `buf`, which grows to `(area.w + 2r)·(area.h + 2r)`
    /// bytes and is reused by the next call.
    pub fn around(
        reference: &'a Plane,
        area: Rect,
        window: SearchWindow,
        buf: &'a mut Vec<u8>,
    ) -> Self {
        let r = window.radius() as usize;
        let (x0, y0) = (area.x as isize - r as isize, area.y as isize - r as isize);
        let (width, height) = (area.w + 2 * r, area.h + 2 * r);
        if x0 >= 0
            && y0 >= 0
            && x0 as usize + width <= reference.width()
            && y0 as usize + height <= reference.height()
        {
            return RefWindow::plane(reference);
        }
        reference.copy_block_clamped_into(x0, y0, width, height, buf);
        RefWindow {
            samples: buf,
            x0,
            y0,
            width,
            height,
            plane: None,
        }
    }

    /// Frame coordinates of the window's first sample.
    pub fn origin(&self) -> (isize, isize) {
        (self.x0, self.y0)
    }

    /// Width and height in samples.
    pub fn size(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// `true` when the window holds every sample of `block` displaced
    /// by up to `±radius`.
    fn covers(&self, block: &Rect, radius: i16) -> bool {
        let r = radius as isize;
        block.x as isize - r >= self.x0
            && block.y as isize - r >= self.y0
            && block.right() as isize + r <= self.x0 + self.width as isize
            && block.bottom() as isize + r <= self.y0 + self.height as isize
    }

    /// The samples of `block` displaced by `mv` as a strided view
    /// `(samples, stride)`: row `i` is `samples[i * stride..][..block.w]`.
    /// `None` when the displaced block is not entirely inside the
    /// window.
    #[inline]
    pub fn span(&self, block: &Rect, mv: MotionVector) -> Option<(&'a [u8], usize)> {
        let x = block.x as isize + mv.x as isize - self.x0;
        let y = block.y as isize + mv.y as isize - self.y0;
        if x >= 0
            && y >= 0
            && x as usize + block.w <= self.width
            && y as usize + block.h <= self.height
        {
            let samples: &'a [u8] = self.samples;
            Some((&samples[y as usize * self.width + x as usize..], self.width))
        } else {
            None
        }
    }
}

impl fmt::Debug for RefWindow<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RefWindow")
            .field("origin", &self.origin())
            .field("size", &self.size())
            .field("whole_plane", &self.plane.is_some())
            .finish()
    }
}

/// Everything an algorithm needs to search one block: the current
/// plane, the reference window, the block geometry, the search window
/// and a starting predictor. Candidates are scored by SAD.
///
/// The context memoizes candidate costs, so the number of *distinct*
/// candidates evaluated — the standard complexity measure for
/// block-matching algorithms — is available as [`SearchContext::evaluations`].
///
/// Memoization uses a flat array indexed by window offset (one slot
/// per candidate, no hashing), recycled through a thread-local pool so
/// constructing a context in a steady-state encode loop does not
/// allocate.
///
/// # The reference window
///
/// Every candidate whose displaced block lies inside the context's
/// [`RefWindow`] costs one strided [`simd::block_sad`] call straight on
/// the window's samples. A gathered window must hold `block ± r`
/// (`r` the search window's radius), so every in-window candidate lies
/// inside it; [`SearchContext::windowed`] panics on one that does not,
/// rather than clamp at the window's own border. Only a whole-plane
/// window — what [`SearchContext::new`] builds — has candidates beyond
/// it; they take the clamped path of [`crate::cost`].
///
/// # One tier per context
///
/// The SIMD tier is resolved once, when the context is built: a
/// [`simd::with_tier`] override in force then governs every candidate
/// of the search, the policy's narrowed contexts included, whatever
/// override is in force while the search runs.
#[derive(Debug)]
pub struct SearchContext<'a> {
    cur: &'a Plane,
    reference: RefWindow<'a>,
    block: Rect,
    window: SearchWindow,
    predictor: MotionVector,
    tier: DispatchTier,
    evaluations: Cell<u64>,
    memo: RefCell<MemoBuf>,
}

impl Drop for SearchContext<'_> {
    fn drop(&mut self) {
        memo_release(std::mem::take(self.memo.get_mut()));
    }
}

impl<'a> SearchContext<'a> {
    /// Creates a search context over the whole `reference` plane.
    /// `_metric` selects nothing: SAD is the one search metric (see
    /// [`CostMetric`]).
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
        Self::windowed(cur, RefWindow::plane(reference), block, window, predictor)
    }

    /// Creates a search context reading the reference through
    /// `reference` (see the type docs).
    ///
    /// # Panics
    ///
    /// Panics when `block` is not fully inside `cur`, and when
    /// `reference` is a gathered window that does not hold `block`
    /// displaced by up to `±window.radius()`.
    pub fn windowed(
        cur: &'a Plane,
        reference: RefWindow<'a>,
        block: Rect,
        window: SearchWindow,
        predictor: MotionVector,
    ) -> Self {
        Self::build(cur, reference, block, window, predictor, simd::tier())
    }

    fn build(
        cur: &'a Plane,
        reference: RefWindow<'a>,
        block: Rect,
        window: SearchWindow,
        predictor: MotionVector,
        tier: DispatchTier,
    ) -> Self {
        assert!(
            cur.bounds().contains_rect(&block),
            "block {block} outside current plane"
        );
        assert!(
            reference.plane.is_some() || reference.covers(&block, window.radius()),
            "reference window {reference:?} does not cover block {block} ± {}",
            window.radius()
        );
        Self {
            cur,
            reference,
            block,
            window,
            predictor,
            tier,
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

    /// A derived context over the same planes, block, reference window
    /// and tier with a different search window (used by policy
    /// algorithms that shrink the window); the evaluation counter
    /// starts at zero.
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
        SearchContext::build(
            self.cur,
            self.reference,
            self.block,
            window,
            predictor,
            self.tier,
        )
    }

    /// SAD of candidate `mv` under the `*_upto` contract of
    /// [`crate::cost`]: one strided kernel call when the displaced
    /// block lies in the reference window, the clamped path otherwise
    /// (reachable only for a whole-plane window, see the type docs).
    #[inline]
    fn sad_upto(&self, mv: MotionVector, bound: u64) -> u64 {
        let b = &self.block;
        if b.is_empty() {
            return 0;
        }
        match self.reference.span(b, mv) {
            Some((reference, stride)) => simd::block_sad(
                self.tier,
                self.cur.span_from(b.x, b.y),
                self.cur.width(),
                reference,
                stride,
                b.w,
                b.h,
                bound,
            ),
            None => {
                let plane = self
                    .reference
                    .plane
                    .expect("a gathered window holds every in-window candidate");
                clamped_sad_upto(self.tier, self.cur, plane, b, mv, bound)
            }
        }
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
    pub fn try_cost_upto(&self, mv: MotionVector, bound: u64) -> Option<u64> {
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
                let c = self.sad_upto(mv, bound);
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

    /// Evaluates `center + offset` for every offset, in order and
    /// without short-circuiting, keeping each strict improvement.
    /// Returns `true` when any candidate improved — one step of a
    /// pattern search.
    pub fn try_pattern(
        &mut self,
        ctx: &SearchContext<'_>,
        center: MotionVector,
        offsets: &[(i16, i16)],
    ) -> bool {
        let mut moved = false;
        for &(dx, dy) in offsets {
            moved |= self.try_candidate(ctx, center + MotionVector::new(dx, dy));
        }
        moved
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

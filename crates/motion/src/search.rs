//! Search framework: windows, contexts, the running best and results,
//! shared by every algorithm [`crate::SearchSpec`] names.

use crate::cost::simd::{self, DispatchTier};
use crate::cost::CostMetric;
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

/// A context's pooled buffers: the flat per-window candidate memo and,
/// for a whole plane that does not hold `block ± r`, that range's
/// edge-replicated samples. Recycled through a thread-local pool so
/// steady-state block searches allocate nothing.
#[derive(Debug, Default)]
struct SearchBuf {
    gen: u32,
    /// Cells, so the context reads and writes its memo through `&self`
    /// without a borrow per candidate.
    slots: Vec<Cell<MemoSlot>>,
    patch: Vec<u8>,
}

impl SearchBuf {
    /// Prepares the memo for a window of side length `side`:
    /// guarantees capacity and invalidates previous entries by bumping
    /// the generation stamp (no O(side²) clear).
    fn begin(&mut self, side: usize) {
        let need = side * side;
        if self.slots.len() < need {
            self.slots.resize(need, Cell::default());
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Generation wrapped: stale stamps could collide, so clear
            // once every 2^32 contexts.
            self.slots.fill(Cell::default());
            self.gen = 1;
        }
    }
}

thread_local! {
    /// Recycled search buffers; a stack because policy algorithms nest
    /// narrowed contexts inside their parent's lifetime.
    static BUF_POOL: RefCell<Vec<SearchBuf>> = const { RefCell::new(Vec::new()) };
}

fn buf_acquire(side: usize) -> SearchBuf {
    let mut buf = BUF_POOL
        .with(|pool| pool.borrow_mut().pop())
        .unwrap_or_default();
    buf.begin(side);
    buf
}

fn buf_release(buf: SearchBuf) {
    // Ignore failures during thread teardown.
    let _ = BUF_POOL.try_with(|pool| pool.borrow_mut().push(buf));
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
        // The window keeps the whole plane (origin 0) rather than a
        // view of the range, so a search may still clamp beyond it.
        if reference.holds_block(x0, y0, width, height) {
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
/// # One candidate path
///
/// Building a context resolves everything a candidate's cost depends
/// on but the candidate: the SAD body for the tier and block width
/// ([`simd::block_sad`]'s, without its checks), and the reference
/// samples of `block ± r` (`r` the search window's radius) as a base
/// and a stride. Every in-window candidate of every [`crate::SearchSpec`]
/// is then one offset from that base and one call of that body.
///
/// A gathered [`RefWindow`] must hold `block ± r`; [`SearchContext::windowed`]
/// panics on one that does not, rather than clamp at the window's own
/// border. A whole-plane window — what [`SearchContext::new`] builds —
/// is read through [`Plane::view_or_gather`]: in place when `block ± r`
/// lies inside the plane; otherwise the context gathers that range's
/// edge-replicated samples once, into a pooled buffer, so candidates
/// off the plane cost what the clamped path of [`crate::cost`] would.
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
    /// The SAD body for `tier` and `block.w`.
    sad: simd::SadBody,
    /// First sample of `block` in `cur`.
    cur_base: *const u8,
    /// Reference sample of candidate `(−r, −r)`, i.e. frame sample
    /// `(block.x − r, block.y − r)`, in `reference`'s samples or in
    /// `buf.patch`; every in-window candidate's block lies within
    /// `stride`-strided rows from it.
    ref_base: *const u8,
    stride: usize,
    evaluations: Cell<u64>,
    buf: SearchBuf,
}

impl Drop for SearchContext<'_> {
    fn drop(&mut self) {
        buf_release(std::mem::take(&mut self.buf));
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
        let r = window.radius() as usize;
        assert!(
            reference.plane.is_some() || reference.covers(&block, window.radius()),
            "reference window {reference:?} does not cover block {block} ± {r}"
        );
        let mut buf = buf_acquire(2 * r + 1);
        let (x, y) = (block.x as isize - r as isize, block.y as isize - r as isize);
        let (ref_base, stride) = match reference.plane {
            Some(plane) => {
                let (samples, stride) =
                    plane.view_or_gather(x, y, block.w + 2 * r, block.h + 2 * r, &mut buf.patch);
                (samples.as_ptr(), stride)
            }
            None => {
                let offset = (y - reference.y0) * reference.width as isize + (x - reference.x0);
                // Pointer arithmetic only: an empty block's base may
                // lie past the samples, and its body reads nothing.
                let base = reference.samples.as_ptr().wrapping_offset(offset);
                (base, reference.width)
            }
        };
        Self {
            cur,
            reference,
            block,
            window,
            predictor,
            tier,
            sad: simd::sad_body(tier, block.w),
            cur_base: cur
                .samples()
                .as_ptr()
                .wrapping_add(block.y * cur.width() + block.x),
            ref_base,
            stride,
            evaluations: Cell::new(0),
            buf,
        }
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
    #[inline]
    pub fn try_cost_upto(&self, mv: MotionVector, bound: u64) -> Option<u64> {
        let r = self.window.radius() as isize;
        let (x, y) = ((mv.x as isize + r) as usize, (mv.y as isize + r) as usize);
        let side = 2 * r as usize + 1;
        // One unsigned compare per axis rejects both sides of the window.
        if x >= side || y >= side {
            return None;
        }
        // SAFETY: `x, y < side`, and `begin` grew the memo to `side²`.
        let slot = unsafe { self.buf.slots.get_unchecked(y * side + x) };
        let MemoSlot { gen, tag, value } = slot.get();
        let tag = if gen == self.buf.gen { tag } else { 0 };
        match tag {
            TAG_EXACT => Some(value),
            // A stored lower bound came from an earlier early exit, so
            // it is >= the bound active then; running bests only
            // decrease, so it also rejects against any later bound it
            // still reaches.
            TAG_LOWER if value >= bound => Some(value),
            _ => {
                // SAFETY: `build` resolved `sad` for this tier and
                // width, and `ref_base` so that the `w x h` block at
                // offset `(x, y)`, `x, y <= 2r`, lies inside the
                // reference samples (see the field docs); `cur_base`
                // starts `block` inside `cur`. The offset is wrapping
                // because an empty block's last row of candidates may
                // start past the samples; its body reads nothing.
                let c = unsafe {
                    (self.sad)(
                        self.cur_base,
                        self.cur.width(),
                        self.ref_base.wrapping_add(y * self.stride + x),
                        self.stride,
                        self.block.w,
                        self.block.h,
                        bound,
                    )
                };
                let tag_now = if c < bound { TAG_EXACT } else { TAG_LOWER };
                slot.set(MemoSlot {
                    gen: self.buf.gen,
                    tag: tag_now,
                    value: c,
                });
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

    /// A zero-height block scores 0 at every candidate — in place, in a
    /// gathered window and in a bare-plane patch — although its last
    /// row of candidates starts past the reference samples.
    #[test]
    fn empty_block_at_the_plane_corner_costs_nothing_everywhere() {
        let (cur, reference) = planes();
        let window = SearchWindow::W8;
        let mut buf = Vec::new();
        let cases = [
            // Plane holds block ± r: read in place.
            (Rect::new(40, 60, 16, 0), RefWindow::plane(&reference)),
            // Bottom-right corner: the range is gathered into the patch.
            (Rect::new(48, 64, 16, 0), RefWindow::plane(&reference)),
            // A gathered tile window around the same corner block.
            (
                Rect::new(48, 64, 16, 0),
                RefWindow::around(&reference, Rect::new(48, 48, 16, 16), window, &mut buf),
            ),
        ];
        for (block, win) in cases {
            let ctx = SearchContext::windowed(&cur, win, block, window, MotionVector::ZERO);
            for dy in -4i16..=4 {
                for dx in -4i16..=4 {
                    let mv = MotionVector::new(dx, dy);
                    assert_eq!(ctx.try_cost_upto(mv, u64::MAX), Some(0), "{block} {mv:?}");
                }
            }
            assert_eq!(ctx.evaluations(), 81);
        }
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

//! The LUT-based workload estimator — paper §III-D1.
//!
//! The re-tiler produces a *limited* number of attainable tile
//! structures and the encoder a limited number of configurations, so
//! per-(structure, configuration) CPU-time histograms converge quickly.
//! The LUT stores those histograms, keeps updating them online, and —
//! because medical images fall into few body-part classes — a LUT
//! warmed on one video seeds estimation for other videos of the same
//! class ([`LutBank`]).

use medvt_analyze::TextureClass;
use medvt_encoder::Qp;
use medvt_frame::{FrameKind, Rect};
use medvt_motion::MotionLevel;
use serde::Serialize;
use std::collections::HashMap;

/// Ring-buffer histogram of observed CPU cycles for one key.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub(crate) struct CycleHistogram {
    samples: Vec<u64>,
    next: usize,
    filled: bool,
    observations: u64,
}

/// Capacity of each histogram's ring buffer.
const HISTOGRAM_CAPACITY: usize = 64;

impl CycleHistogram {
    fn new() -> Self {
        Self {
            samples: Vec::with_capacity(HISTOGRAM_CAPACITY),
            next: 0,
            filled: false,
            observations: 0,
        }
    }

    /// Records one observation.
    pub(crate) fn observe(&mut self, cycles: u64) {
        if self.samples.len() < HISTOGRAM_CAPACITY {
            self.samples.push(cycles);
        } else {
            self.samples[self.next] = cycles;
            self.filled = true;
        }
        self.next = (self.next + 1) % HISTOGRAM_CAPACITY;
        self.observations += 1;
    }

    /// Robust estimate: the median of the retained window.
    pub(crate) fn estimate(&self) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        Some(sorted[sorted.len() / 2])
    }

    /// Total number of observations ever recorded.
    pub(crate) fn observations(&self) -> u64 {
        self.observations
    }
}

/// The discrete key the LUT buckets on: tile geometry, content classes
/// and encoding configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct LutKey {
    /// Tile area in 64x64-sample units (rounded), coarse enough that
    /// re-tilings of similar size share a bucket.
    pub area_units: u32,
    /// Texture class of the tile.
    pub texture: TextureClass,
    /// Motion level of the tile.
    pub motion: MotionLevel,
    /// QP bucket (QP / 5).
    pub qp_bucket: u8,
    /// Search algorithm name.
    pub search: &'static str,
    /// Frame kind letter (I/P/B).
    pub kind: char,
}

impl LutKey {
    /// Builds a key from tile attributes.
    pub fn new(
        rect: &Rect,
        texture: TextureClass,
        motion: MotionLevel,
        qp: Qp,
        search: &'static str,
        kind: FrameKind,
    ) -> Self {
        Self {
            area_units: (rect.area() as f64 / 4096.0).round().max(1.0) as u32,
            texture,
            motion,
            qp_bucket: qp.value() / 5,
            search,
            kind: kind.letter(),
        }
    }
}

/// The workload lookup table: per-key cycle histograms, updated online.
///
/// # Examples
///
/// ```
/// use medvt_sched::{LutKey, WorkloadLut};
/// use medvt_analyze::TextureClass;
/// use medvt_encoder::Qp;
/// use medvt_frame::{FrameKind, Rect};
/// use medvt_motion::MotionLevel;
///
/// let mut lut = WorkloadLut::new();
/// let key = LutKey::new(
///     &Rect::new(0, 0, 128, 128),
///     TextureClass::High,
///     MotionLevel::High,
///     Qp::new(27).expect("valid"),
///     "biomed",
///     FrameKind::BiPredicted,
/// );
/// lut.observe(key, 1_000_000);
/// assert_eq!(lut.estimate(&key), Some(1_000_000));
/// ```
#[derive(Debug, Clone, Default, Serialize)]
pub struct WorkloadLut {
    entries: HashMap<LutKey, CycleHistogram>,
    default_cycles_per_sample: f64,
}

impl WorkloadLut {
    /// Creates an empty LUT with the default cold-start model.
    pub fn new() -> Self {
        Self {
            entries: HashMap::new(),
            // Cold-start guess: ~60 cycles per luma sample, the rough
            // cost of an unoptimized inter tile with a thorough search.
            default_cycles_per_sample: 60.0,
        }
    }

    /// Records a measured tile encode.
    pub fn observe(&mut self, key: LutKey, cycles: u64) {
        self.entries
            .entry(key)
            .or_insert_with(CycleHistogram::new)
            .observe(cycles);
    }

    /// Estimate for an exact key, if observed before.
    pub fn estimate(&self, key: &LutKey) -> Option<u64> {
        self.entries.get(key).and_then(CycleHistogram::estimate)
    }

    /// Estimate with fallbacks: exact key → same key at neighbouring
    /// area buckets (scaled) → cold-start area-proportional model.
    pub fn estimate_or_model(&self, key: &LutKey) -> u64 {
        if let Some(e) = self.estimate(key) {
            return e;
        }
        // Neighbouring area buckets with otherwise identical attributes
        // scale roughly linearly in area.
        let mut best: Option<(u32, u64)> = None;
        for (k, h) in &self.entries {
            if k.texture == key.texture
                && k.motion == key.motion
                && k.qp_bucket == key.qp_bucket
                && k.search == key.search
                && k.kind == key.kind
            {
                if let Some(est) = h.estimate() {
                    let d = k.area_units.abs_diff(key.area_units);
                    if best.is_none_or(|(bd, _)| d < bd.abs_diff(key.area_units)) {
                        best = Some((k.area_units, est));
                    }
                }
            }
        }
        if let Some((units, est)) = best {
            return (est as f64 * key.area_units as f64 / units as f64) as u64;
        }
        (self.default_cycles_per_sample * key.area_units as f64 * 4096.0) as u64
    }

    /// Number of distinct keys observed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total observations across all keys.
    pub fn total_observations(&self) -> u64 {
        self.entries.values().map(|h| h.observations()).sum()
    }

    /// Merges another LUT's histograms into this one (class transfer).
    pub fn absorb(&mut self, other: &WorkloadLut) {
        for (k, h) in &other.entries {
            let entry = self.entries.entry(*k).or_insert_with(CycleHistogram::new);
            for &s in &h.samples {
                entry.observe(s);
            }
        }
    }
}

/// Per-body-part-class LUT bank — the transfer mechanism of §III-D1
/// ("the obtained LUT of one MRI or CT data \[serves\] the rest of the
/// images in the same class").
#[derive(Debug, Clone, Default)]
pub struct LutBank {
    per_class: HashMap<String, WorkloadLut>,
}

impl LutBank {
    /// Creates an empty bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// The LUT for `class`, created empty on first use.
    pub(crate) fn lut_mut(&mut self, class: &str) -> &mut WorkloadLut {
        self.per_class.entry(class.to_string()).or_default()
    }

    /// Read access to a class LUT.
    pub fn lut(&self, class: &str) -> Option<&WorkloadLut> {
        self.per_class.get(class)
    }

    /// Seeds a fresh per-video LUT from the class LUT (cheap clone of
    /// converged histograms).
    pub fn seed_for(&self, class: &str) -> WorkloadLut {
        self.per_class.get(class).cloned().unwrap_or_default()
    }

    /// Folds a finished video's LUT back into its class.
    pub fn learn(&mut self, class: &str, lut: &WorkloadLut) {
        self.lut_mut(class).absorb(lut);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(area_units: u32, qp: u8) -> LutKey {
        LutKey {
            area_units,
            texture: TextureClass::Medium,
            motion: MotionLevel::Low,
            qp_bucket: qp / 5,
            search: "biomed",
            kind: 'B',
        }
    }

    #[test]
    fn histogram_median_is_robust_to_outliers() {
        let mut h = CycleHistogram::new();
        for _ in 0..20 {
            h.observe(1000);
        }
        h.observe(1_000_000); // one outlier
        assert_eq!(h.estimate(), Some(1000));
        assert_eq!(h.observations(), 21);
    }

    #[test]
    fn histogram_window_slides() {
        let mut h = CycleHistogram::new();
        for _ in 0..HISTOGRAM_CAPACITY {
            h.observe(100);
        }
        // Overwrite the window with a new regime.
        for _ in 0..HISTOGRAM_CAPACITY {
            h.observe(900);
        }
        assert_eq!(h.estimate(), Some(900));
    }

    #[test]
    fn empty_histogram_estimates_none() {
        assert_eq!(CycleHistogram::new().estimate(), None);
    }

    #[test]
    fn key_buckets_area_and_qp() {
        let a = LutKey::new(
            &Rect::new(0, 0, 64, 64),
            TextureClass::Low,
            MotionLevel::Low,
            Qp::new(32).unwrap(),
            "tz",
            FrameKind::Intra,
        );
        assert_eq!(a.area_units, 1);
        assert_eq!(a.qp_bucket, 6);
        assert_eq!(a.kind, 'I');
        // Slightly different tile geometry, same bucket.
        let b = LutKey::new(
            &Rect::new(8, 8, 64, 72),
            TextureClass::Low,
            MotionLevel::Low,
            Qp::new(34).unwrap(),
            "tz",
            FrameKind::Intra,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn estimate_converges_to_observed_workload() {
        let mut lut = WorkloadLut::new();
        let k = key(4, 30);
        for i in 0..50 {
            lut.observe(k, 2_000_000 + (i % 5) * 1000);
        }
        let est = lut.estimate(&k).unwrap();
        assert!((est as i64 - 2_002_000).abs() < 5_000);
        // Paper: < 100 µs error once warm. At 3.6 GHz, 100 µs = 360k
        // cycles; our spread is far below that.
        assert!((est as i64 - 2_000_000).unsigned_abs() < 360_000);
    }

    #[test]
    fn area_scaling_fallback() {
        let mut lut = WorkloadLut::new();
        lut.observe(key(2, 30), 1_000_000);
        // Unseen bucket of twice the area: estimate scales ~linearly.
        let est = lut.estimate_or_model(&key(4, 30));
        assert_eq!(est, 2_000_000);
    }

    #[test]
    fn cold_start_uses_area_model() {
        let lut = WorkloadLut::new();
        let est = lut.estimate_or_model(&key(4, 30));
        assert_eq!(est, (60.0 * 4.0 * 4096.0) as u64);
    }

    #[test]
    fn absorb_merges_histograms() {
        let mut a = WorkloadLut::new();
        let mut b = WorkloadLut::new();
        b.observe(key(1, 30), 500);
        b.observe(key(2, 30), 900);
        a.absorb(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.estimate(&key(1, 30)), Some(500));
    }

    #[test]
    fn bank_transfers_class_knowledge() {
        let mut bank = LutBank::new();
        let mut video_lut = WorkloadLut::new();
        video_lut.observe(key(3, 30), 7_000_000);
        bank.learn("brain", &video_lut);
        // A new brain video starts warm…
        let seeded = bank.seed_for("brain");
        assert_eq!(seeded.estimate(&key(3, 30)), Some(7_000_000));
        // …but an unknown class starts cold.
        assert!(bank.seed_for("cardiac").is_empty());
        assert!(bank.lut("brain").is_some());
    }
}

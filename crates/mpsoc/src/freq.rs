//! Operating frequencies and the discrete DVFS ladder.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One operating point, stored in hertz.
///
/// # Examples
///
/// ```
/// use medvt_mpsoc::FreqLevel;
///
/// let f = FreqLevel::from_ghz(3.6);
/// assert_eq!(f.hz(), 3_600_000_000);
/// assert!((f.ghz() - 3.6).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FreqLevel(u64);

impl FreqLevel {
    /// Creates a level from gigahertz.
    ///
    /// # Panics
    ///
    /// Panics when `ghz` is not strictly positive.
    pub fn from_ghz(ghz: f64) -> Self {
        assert!(ghz > 0.0 && ghz.is_finite(), "frequency must be positive");
        Self((ghz * 1e9).round() as u64)
    }

    /// Frequency in hertz.
    pub const fn hz(&self) -> u64 {
        self.0
    }

    /// Frequency in gigahertz.
    pub fn ghz(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Core voltage at this operating point (linear V/f map calibrated
    /// to the Xeon E5-2667 v4 envelope: 2.9 GHz→0.95 V, 3.6 GHz→1.10 V).
    pub(crate) fn voltage(&self) -> f64 {
        let ghz = self.ghz();
        (0.95 + (ghz - 2.9) * (0.15 / 0.7)).clamp(0.7, 1.3)
    }

    /// Seconds to execute work specified in fmax-seconds at this level:
    /// `load_fmax * fmax / self`.
    pub(crate) fn stretch(&self, load_fmax_secs: f64, fmax: FreqLevel) -> f64 {
        load_fmax_secs * fmax.hz() as f64 / self.hz() as f64
    }
}

impl fmt::Display for FreqLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}GHz", self.ghz())
    }
}

/// A sorted ladder of available frequencies.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrequencySet {
    levels: Vec<FreqLevel>,
}

impl FrequencySet {
    /// Builds a set from levels (deduplicated, sorted ascending).
    ///
    /// # Panics
    ///
    /// Panics when no level is given.
    pub fn new(mut levels: Vec<FreqLevel>) -> Self {
        assert!(!levels.is_empty(), "need at least one frequency level");
        levels.sort_unstable();
        levels.dedup();
        Self { levels }
    }

    /// The paper's platform ladder: 2.9, 3.2 and 3.6 GHz (§IV-A).
    pub fn xeon_e5_2667() -> Self {
        Self::new(vec![
            FreqLevel::from_ghz(2.9),
            FreqLevel::from_ghz(3.2),
            FreqLevel::from_ghz(3.6),
        ])
    }

    /// An Arm-style "big" cluster ladder: 1.4, 1.8 and 2.0 GHz.
    pub(crate) fn big_cluster() -> Self {
        Self::new(vec![
            FreqLevel::from_ghz(1.4),
            FreqLevel::from_ghz(1.8),
            FreqLevel::from_ghz(2.0),
        ])
    }

    /// An Arm-style "LITTLE" cluster ladder: 0.6, 1.0 and 1.4 GHz.
    pub fn little_cluster() -> Self {
        Self::new(vec![
            FreqLevel::from_ghz(0.6),
            FreqLevel::from_ghz(1.0),
            FreqLevel::from_ghz(1.4),
        ])
    }

    /// Lowest level.
    pub fn min(&self) -> FreqLevel {
        self.levels[0]
    }

    /// Highest level.
    pub fn max(&self) -> FreqLevel {
        *self.levels.last().expect("non-empty by construction")
    }

    /// All levels, ascending.
    #[cfg(test)]
    pub(crate) fn levels(&self) -> &[FreqLevel] {
        &self.levels
    }

    /// Number of levels.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// `false`; sets are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// The lowest frequency at which `load_fmax_secs` of fmax-work
    /// still finishes within `slot_secs`, or `None` when even the
    /// maximum cannot.
    pub(crate) fn lowest_meeting(&self, load_fmax_secs: f64, slot_secs: f64) -> Option<FreqLevel> {
        let fmax = self.max();
        self.levels
            .iter()
            .copied()
            .find(|f| f.stretch(load_fmax_secs, fmax) <= slot_secs + 1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_round_trip() {
        let f = FreqLevel::from_ghz(2.9);
        assert_eq!(f.hz(), 2_900_000_000);
        assert!((f.ghz() - 2.9).abs() < 1e-12);
        assert_eq!(f.to_string(), "2.9GHz");
    }

    #[test]
    fn voltage_monotone_in_frequency() {
        let ladder = FrequencySet::xeon_e5_2667();
        let vs: Vec<f64> = ladder.levels().iter().map(|f| f.voltage()).collect();
        assert!(vs.windows(2).all(|w| w[0] < w[1]));
        assert!((ladder.max().voltage() - 1.10).abs() < 1e-9);
        assert!((ladder.min().voltage() - 0.95).abs() < 1e-9);
    }

    #[test]
    fn stretch_scales_inversely() {
        let fmax = FreqLevel::from_ghz(3.6);
        let f = FreqLevel::from_ghz(2.9);
        let t = f.stretch(1.0, fmax);
        assert!((t - 3.6 / 2.9).abs() < 1e-12);
        assert_eq!(fmax.stretch(0.5, fmax), 0.5);
    }

    #[test]
    fn xeon_ladder_matches_paper() {
        let set = FrequencySet::xeon_e5_2667();
        assert_eq!(set.len(), 3);
        assert!((set.min().ghz() - 2.9).abs() < 1e-12);
        assert!((set.max().ghz() - 3.6).abs() < 1e-12);
    }

    #[test]
    fn lowest_meeting_picks_minimum_sufficient() {
        let set = FrequencySet::xeon_e5_2667();
        let slot = 1.0 / 24.0;
        // Tiny load: even 2.9 GHz meets the deadline.
        assert_eq!(
            set.lowest_meeting(slot * 0.5, slot),
            Some(FreqLevel::from_ghz(2.9))
        );
        // Load that only fits at full speed.
        assert_eq!(
            set.lowest_meeting(slot * 0.95, slot),
            Some(FreqLevel::from_ghz(3.6))
        );
        // Load needing 3.2 but not 3.6: stretch at 3.2 = load*1.125.
        assert_eq!(
            set.lowest_meeting(slot * 0.85, slot),
            Some(FreqLevel::from_ghz(3.2))
        );
        // Overload: nothing meets.
        assert_eq!(set.lowest_meeting(slot * 1.5, slot), None);
    }

    #[test]
    fn set_sorts_and_dedups() {
        let set = FrequencySet::new(vec![
            FreqLevel::from_ghz(3.6),
            FreqLevel::from_ghz(2.9),
            FreqLevel::from_ghz(3.6),
        ]);
        assert_eq!(set.len(), 2);
        assert!((set.min().ghz() - 2.9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_set_rejected() {
        FrequencySet::new(vec![]);
    }
}

//! Encoder configuration: quantization parameters and the per-tile
//! encoding configuration the content-aware pipeline tunes.

use crate::intra::MAX_SIDE;
use medvt_motion::{SearchSpec, SearchWindow};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// HEVC quantization parameter, valid range `0..=51`.
///
/// The paper's per-tile QP ladder is {42, 37, 32, 27, 22} (§III-C1).
///
/// # Examples
///
/// ```
/// use medvt_encoder::Qp;
///
/// let qp = Qp::new(32).unwrap();
/// assert_eq!(qp.value(), 32);
/// assert!(Qp::new(52).is_none());
/// assert!(qp.step_size() > Qp::new(27).unwrap().step_size());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Qp(u8);

impl Qp {
    /// Lowest representable QP.
    pub const MIN: Qp = Qp(0);
    /// Highest representable QP.
    pub const MAX: Qp = Qp(51);

    /// Creates a QP, returning `None` outside `0..=51`.
    pub const fn new(value: u8) -> Option<Qp> {
        if value <= 51 {
            Some(Qp(value))
        } else {
            None
        }
    }

    /// Creates a QP, clamping into `0..=51`.
    pub(crate) const fn saturating(value: i32) -> Qp {
        if value < 0 {
            Qp(0)
        } else if value > 51 {
            Qp(51)
        } else {
            Qp(value as u8)
        }
    }

    /// The numeric QP value.
    pub const fn value(&self) -> u8 {
        self.0
    }

    /// Number of QP values (`0..=51`): the length of a per-QP table.
    pub(crate) const COUNT: usize = 52;

    /// HEVC quantization step size `2^((QP-4)/6)`: a table look-up,
    /// the table filled on first use from that expression (the residual
    /// coder asks several times per prediction block, and `powf` is a
    /// libm call).
    pub fn step_size(&self) -> f64 {
        static STEPS: OnceLock<[f64; Qp::COUNT]> = OnceLock::new();
        STEPS.get_or_init(|| std::array::from_fn(Qp::step_size_of))[usize::from(self.0)]
    }

    /// `2^((qp-4)/6)`, evaluated.
    fn step_size_of(qp: usize) -> f64 {
        2f64.powf((qp as f64 - 4.0) / 6.0)
    }

    /// The HM-style Lagrange multiplier `0.85 * 2^((QP-12)/3)` used in
    /// mode decisions.
    pub(crate) fn lambda(&self) -> f64 {
        0.85 * 2f64.powf((self.0 as f64 - 12.0) / 3.0)
    }

    /// This QP shifted by `delta`, clamped to the valid range.
    pub fn offset(&self, delta: i32) -> Qp {
        Qp::saturating(self.0 as i32 + delta)
    }
}

impl Default for Qp {
    fn default() -> Self {
        Qp(32)
    }
}

impl fmt::Display for Qp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "QP{}", self.0)
    }
}

/// Per-tile encoding configuration — the knobs the paper tunes per tile
/// (§III-C): QP, search algorithm and search window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TileConfig {
    /// Quantization parameter for the tile.
    pub qp: Qp,
    /// Motion search algorithm.
    pub search: SearchSpec,
    /// Maximum search window for the tile.
    pub window: SearchWindow,
}

impl TileConfig {
    /// A tile configuration with the given QP and defaults elsewhere.
    pub fn with_qp(qp: Qp) -> Self {
        Self {
            qp,
            ..Self::default()
        }
    }
}

impl Default for TileConfig {
    fn default() -> Self {
        Self {
            qp: Qp::default(),
            search: SearchSpec::default(),
            window: SearchWindow::W64,
        }
    }
}

/// Whole-encoder configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EncoderConfig {
    /// Luma coding-block size (chroma uses half), default 16.
    pub block_size: usize,
    /// GOP length for the Random Access structure, default 8 (paper
    /// §III-D2).
    pub gop_size: usize,
    /// Intra period in GOPs: an I-frame opens every `intra_period_gops`
    /// GOPs, default 4.
    pub intra_period_gops: usize,
    /// Encode chroma planes (disable for luma-only experiments).
    pub chroma: bool,
}

impl EncoderConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message when the block size is not a positive multiple
    /// of 8 or is above 64 (HEVC's largest coding block, and the bound
    /// intra prediction's sums are exact under), or when the GOP size
    /// or intra period is zero.
    pub fn validate(&self) -> Result<(), String> {
        if self.block_size == 0 || !self.block_size.is_multiple_of(8) {
            return Err(format!(
                "block size {} must be a positive multiple of 8",
                self.block_size
            ));
        }
        if self.block_size > MAX_SIDE {
            return Err(format!(
                "block size {} is above {MAX_SIDE}",
                self.block_size
            ));
        }
        if self.gop_size == 0 {
            return Err("gop size must be non-zero".into());
        }
        if self.intra_period_gops == 0 {
            return Err("intra period must be non-zero".into());
        }
        Ok(())
    }
}

impl Default for EncoderConfig {
    fn default() -> Self {
        Self {
            block_size: 16,
            gop_size: 8,
            intra_period_gops: 4,
            chroma: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qp_range_enforced() {
        assert!(Qp::new(0).is_some());
        assert!(Qp::new(51).is_some());
        assert!(Qp::new(52).is_none());
        assert_eq!(Qp::saturating(-5), Qp::MIN);
        assert_eq!(Qp::saturating(99), Qp::MAX);
    }

    #[test]
    fn qp_step_doubles_every_six() {
        let a = Qp::new(22).unwrap().step_size();
        let b = Qp::new(28).unwrap().step_size();
        assert!((b / a - 2.0).abs() < 1e-9);
    }

    #[test]
    fn qp4_step_is_one() {
        assert!((Qp::new(4).unwrap().step_size() - 1.0).abs() < 1e-12);
        // The table holds the expression's own values, to the bit.
        for v in 0..=51u8 {
            assert_eq!(
                Qp::new(v).unwrap().step_size().to_bits(),
                2f64.powf((v as f64 - 4.0) / 6.0).to_bits(),
                "qp {v}"
            );
        }
    }

    #[test]
    fn lambda_grows_with_qp() {
        assert!(Qp::new(37).unwrap().lambda() > Qp::new(22).unwrap().lambda());
    }

    #[test]
    fn offset_clamps() {
        let qp = Qp::new(50).unwrap();
        assert_eq!(qp.offset(5), Qp::MAX);
        assert_eq!(qp.offset(-60), Qp::MIN);
        assert_eq!(qp.offset(-5).value(), 45);
    }

    #[test]
    fn encoder_config_validation() {
        assert!(EncoderConfig::default().validate().is_ok());
        let bad = EncoderConfig {
            block_size: 12,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = EncoderConfig {
            block_size: 72,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let largest = EncoderConfig {
            block_size: 64,
            ..Default::default()
        };
        assert!(largest.validate().is_ok());
        let bad = EncoderConfig {
            gop_size: 0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn tile_config_defaults() {
        let tc = TileConfig::default();
        assert_eq!(tc.qp.value(), 32);
        assert_eq!(tc.window, SearchWindow::W64);
        assert_eq!(TileConfig::with_qp(Qp::new(27).unwrap()).qp.value(), 27);
    }

    #[test]
    fn qp_display() {
        assert_eq!(Qp::new(37).unwrap().to_string(), "QP37");
    }
}

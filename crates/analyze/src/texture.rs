//! Texture classification — paper Eq. (1).
//!
//! Texture is measured as the coefficient of variation (CV = σ/μ) of
//! the luma samples in a tile and thresholded into three classes. The
//! class drives both the QP ladder (§III-C1) and the re-tiling
//! decisions (§III-B).

use crate::AnalyzerConfig;
use medvt_frame::{Plane, Rect, RegionStats};
use serde::{Deserialize, Serialize};

/// The three texture classes of Eq. (1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TextureClass {
    /// `CV <= T_th,l`.
    Low,
    /// `T_th,l < CV <= T_th,h`.
    Medium,
    /// `CV > T_th,h`.
    High,
}

impl TextureClass {
    /// Classifies a CV value against the configured thresholds.
    pub(crate) fn from_cv(cv: f64, cfg: &AnalyzerConfig) -> TextureClass {
        if cv <= cfg.texture_low {
            TextureClass::Low
        } else if cv <= cfg.texture_high {
            TextureClass::Medium
        } else {
            TextureClass::High
        }
    }

    /// Short label for reports.
    pub const fn label(&self) -> &'static str {
        match self {
            TextureClass::Low => "low",
            TextureClass::Medium => "medium",
            TextureClass::High => "high",
        }
    }
}

impl std::fmt::Display for TextureClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Texture measurement of one tile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TextureMeasure {
    /// Coefficient of variation of the tile's luma.
    pub cv: f64,
    /// Classified texture.
    pub class: TextureClass,
    /// Mean luma (used to distinguish dark borders from flat bright
    /// regions in diagnostics).
    pub mean: f64,
}

/// Measures and classifies the texture of `rect`.
///
/// Classification follows Eq. (1) on the CV, with one robustness
/// addition: regions whose absolute luma standard deviation is at or
/// below [`AnalyzerConfig::texture_stddev_floor`] are Low regardless of
/// CV (near-black borders have negligible codable energy even when
/// their *relative* variation is noisy).
///
/// # Panics
///
/// Panics when `rect` is empty or outside the plane.
pub fn measure_texture(plane: &Plane, rect: &Rect, cfg: &AnalyzerConfig) -> TextureMeasure {
    let stats = RegionStats::of(plane, rect);
    let cv = stats.cv();
    let class = if stats.stddev <= cfg.texture_stddev_floor {
        TextureClass::Low
    } else {
        TextureClass::from_cv(cv, cfg)
    };
    TextureMeasure {
        cv,
        class,
        mean: stats.mean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medvt_frame::synth::{BodyPart, PhantomVideo};
    use medvt_frame::Resolution;

    fn cfg() -> AnalyzerConfig {
        AnalyzerConfig::default()
    }

    #[test]
    fn thresholds_partition_the_cv_axis() {
        let c = cfg();
        assert_eq!(TextureClass::from_cv(0.0, &c), TextureClass::Low);
        assert_eq!(TextureClass::from_cv(c.texture_low, &c), TextureClass::Low);
        assert_eq!(
            TextureClass::from_cv(c.texture_low + 1e-9, &c),
            TextureClass::Medium
        );
        assert_eq!(
            TextureClass::from_cv(c.texture_high, &c),
            TextureClass::Medium
        );
        assert_eq!(
            TextureClass::from_cv(c.texture_high + 1e-9, &c),
            TextureClass::High
        );
    }

    #[test]
    fn flat_plane_is_low_texture() {
        let p = Plane::filled(32, 32, 120);
        let m = measure_texture(&p, &Rect::frame(32, 32), &cfg());
        assert_eq!(m.class, TextureClass::Low);
        assert_eq!(m.cv, 0.0);
    }

    #[test]
    fn checkerboard_is_high_texture() {
        let mut p = Plane::new(32, 32);
        for row in 0..32 {
            for col in 0..32 {
                p.set(col, row, if (col + row) % 2 == 0 { 30 } else { 220 });
            }
        }
        let m = measure_texture(&p, &Rect::frame(32, 32), &cfg());
        assert_eq!(m.class, TextureClass::High);
        assert!(m.cv > 0.4);
    }

    #[test]
    fn phantom_anatomy_more_textured_than_corner() {
        let v = PhantomVideo::builder(BodyPart::LungChest)
            .resolution(Resolution::new(160, 120))
            .seed(2)
            .build();
        let f = v.render(0);
        let c = cfg();
        let corner = measure_texture(f.y(), &Rect::new(0, 0, 32, 24), &c);
        // The left lung lobe (speckled parenchyma) sits left of center.
        let lobe = measure_texture(f.y(), &Rect::new(48, 48, 32, 24), &c);
        assert_eq!(corner.class, TextureClass::Low, "corner cv={}", corner.cv);
        assert!(
            lobe.class >= TextureClass::Medium,
            "lobe cv={} stddev floor may be too high",
            lobe.cv
        );
    }

    #[test]
    fn ordering_matches_severity() {
        assert!(TextureClass::Low < TextureClass::Medium);
        assert!(TextureClass::Medium < TextureClass::High);
    }

    #[test]
    fn labels() {
        assert_eq!(TextureClass::Low.to_string(), "low");
        assert_eq!(TextureClass::High.label(), "high");
    }
}

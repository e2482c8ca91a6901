//! Per-tile content analysis of a [`Tiling`].

use crate::motion_probe::{probe_motion, MotionScore};
use crate::texture::{measure_texture, TextureMeasure};
use crate::AnalyzerConfig;
use medvt_frame::{Plane, Rect, Tiling};
use medvt_motion::MotionLevel;
use serde::{Deserialize, Serialize};

/// Texture + motion analysis of one tile — the input to re-tiling, QP
/// selection and the ME policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TileAnalysis {
    /// The analyzed tile.
    pub rect: Rect,
    /// Texture measurement (Eq. 1).
    pub texture: TextureMeasure,
    /// Motion probe result (Eqs. 2–3); `None` for the first frame of a
    /// video (no previous frame), which the pipeline treats as low
    /// motion.
    pub motion: Option<MotionScore>,
}

impl TileAnalysis {
    /// The effective motion level (Low when no previous frame exists).
    pub fn motion_level(&self) -> MotionLevel {
        self.motion.map_or(MotionLevel::Low, |m| m.level)
    }
}

/// Analyzes every tile of `tiling` on the current luma plane, probing
/// motion against `prev` when available.
///
/// # Panics
///
/// Panics when plane sizes disagree with the tiling frame.
pub fn analyze_tiling(
    cur: &Plane,
    prev: Option<&Plane>,
    tiling: &Tiling,
    cfg: &AnalyzerConfig,
) -> Vec<TileAnalysis> {
    assert_eq!(
        cur.bounds(),
        tiling.frame(),
        "plane does not match tiling frame"
    );
    tiling
        .iter()
        .map(|rect| TileAnalysis {
            rect: *rect,
            texture: measure_texture(cur, rect, cfg),
            motion: prev.map(|p| probe_motion(cur, p, rect, cfg)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use medvt_frame::synth::{BodyPart, MotionPattern, PhantomVideo};
    use medvt_frame::Resolution;
    use medvt_motion::MotionLevel;

    #[test]
    fn analysis_covers_every_tile() {
        let v = PhantomVideo::builder(BodyPart::Brain)
            .resolution(Resolution::new(160, 120))
            .motion(MotionPattern::Pan { dx: 1.0, dy: 0.0 })
            .seed(6)
            .build();
        let f0 = v.render(0);
        let f1 = v.render(4);
        let tiling = Tiling::uniform(f0.y().bounds(), 4, 3);
        let cfg = AnalyzerConfig::default();
        let analyses = analyze_tiling(f1.y(), Some(f0.y()), &tiling, &cfg);
        assert_eq!(analyses.len(), 12);
        // Center tiles should be busier than corner tiles.
        let corner = &analyses[0];
        let center = &analyses[5];
        assert!(center.texture.cv >= corner.texture.cv);
        assert_eq!(corner.motion_level(), MotionLevel::Low);
    }

    #[test]
    fn first_frame_defaults_to_low_motion() {
        let v = PhantomVideo::builder(BodyPart::Cardiac)
            .resolution(Resolution::new(96, 72))
            .seed(1)
            .build();
        let f0 = v.render(0);
        let tiling = Tiling::uniform(f0.y().bounds(), 2, 2);
        let analyses = analyze_tiling(f0.y(), None, &tiling, &AnalyzerConfig::default());
        assert!(analyses.iter().all(|a| a.motion.is_none()));
        assert!(analyses
            .iter()
            .all(|a| a.motion_level() == MotionLevel::Low));
    }
}

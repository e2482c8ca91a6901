//! Per-tile quality-aware QP adaptation — paper §III-C1, Algorithm 1.
//!
//! Default QPs follow texture (higher QP for flatter tiles): 37 / 32 /
//! 27 for low / medium / high texture, with the extremes 42 (very flat,
//! still above the PSNR constraint) and 22 (extreme texture, needed to
//! meet it). Every frame, each tile's previous PSNR steers the QP:
//! comfortably above the constraint → raise QP (save bits and time),
//! below it → lower QP, otherwise return to the texture default.

use medvt_analyze::TextureClass;
use medvt_encoder::Qp;
use serde::{Deserialize, Serialize};

/// Observation of one tile from the previous frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct TileObservation {
    /// Luma PSNR of the tile, dB.
    pub psnr_db: f64,
}

/// Configuration of the QP controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QpControlConfig {
    /// The PSNR constraint (dB) the service guarantees (Table II floors
    /// around 40 dB).
    pub psnr_constraint_db: f64,
    /// Margin above the constraint before QP may rise (Algorithm 1's
    /// `PSNR_margin`).
    pub psnr_margin_db: f64,
    /// QP adjustment step (`ΔQP`).
    pub delta_qp: i32,
    /// Hard QP bounds — the paper's extreme values 22 and 42.
    pub qp_floor: Qp,
    /// Upper bound, see [`QpControlConfig::qp_floor`].
    pub qp_ceiling: Qp,
}

impl Default for QpControlConfig {
    fn default() -> Self {
        Self {
            psnr_constraint_db: 39.5,
            psnr_margin_db: 3.0,
            delta_qp: 2,
            qp_floor: Qp::new(22).expect("22 is valid"),
            qp_ceiling: Qp::new(42).expect("42 is valid"),
        }
    }
}

/// The texture-default QP of §III-C1.
pub(crate) fn default_qp(texture: TextureClass) -> Qp {
    let v = match texture {
        TextureClass::Low => 37,
        TextureClass::Medium => 32,
        TextureClass::High => 27,
    };
    Qp::new(v).expect("defaults are valid")
}

/// Algorithm 1: stateful per-tile QP adaptation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct QpController {
    config: QpControlConfig,
    /// Current QP per tile index (reset on re-tiling).
    current: Vec<Qp>,
}

impl QpController {
    /// Creates a controller.
    pub(crate) fn new(config: QpControlConfig) -> Self {
        Self {
            config,
            current: Vec::new(),
        }
    }

    /// Resets per-tile state for a new tiling, seeding each tile with
    /// its texture default.
    pub(crate) fn reset(&mut self, textures: &[TextureClass]) {
        self.current = textures.iter().map(|&t| default_qp(t)).collect();
    }

    /// `true` when no tiling has been seeded yet.
    pub(crate) fn is_empty(&self) -> bool {
        self.current.is_empty()
    }

    /// The QP currently assigned to `tile`.
    ///
    /// # Panics
    ///
    /// Panics when `tile` is out of range (call [`QpController::reset`]
    /// first).
    pub(crate) fn qp(&self, tile: usize) -> Qp {
        self.current[tile]
    }

    /// Runs one Algorithm-1 step for `tile` given its texture and the
    /// previous frame's observation, returning the QP for the next
    /// frame.
    ///
    /// # Panics
    ///
    /// Panics when `tile` is out of range.
    pub(crate) fn adapt(
        &mut self,
        tile: usize,
        texture: TextureClass,
        prev: Option<TileObservation>,
    ) -> Qp {
        let cfg = self.config;
        let qp = match prev {
            None => default_qp(texture),
            Some(obs) => {
                let current = self.current[tile];
                if obs.psnr_db > cfg.psnr_constraint_db + cfg.psnr_margin_db {
                    // Line 2–3: comfortably above → coarser quantization.
                    current.offset(cfg.delta_qp)
                } else if obs.psnr_db < cfg.psnr_constraint_db {
                    // Line 4–5: constraint violated → finer quantization.
                    current.offset(-cfg.delta_qp)
                } else {
                    // Line 6–7: inside the band → texture default.
                    default_qp(texture)
                }
            }
        };
        let bounded = clamp_qp(qp, cfg.qp_floor, cfg.qp_ceiling);
        self.current[tile] = bounded;
        bounded
    }
}

/// `qp` held inside `[floor, ceiling]`.
pub(crate) fn clamp_qp(qp: Qp, floor: Qp, ceiling: Qp) -> Qp {
    if qp < floor {
        floor
    } else if qp > ceiling {
        ceiling
    } else {
        qp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> QpController {
        let mut c = QpController::new(QpControlConfig::default());
        c.reset(&[TextureClass::Low, TextureClass::Medium, TextureClass::High]);
        c
    }

    fn obs(psnr: f64) -> Option<TileObservation> {
        Some(TileObservation { psnr_db: psnr })
    }

    #[test]
    fn defaults_match_paper() {
        assert_eq!(default_qp(TextureClass::Low).value(), 37);
        assert_eq!(default_qp(TextureClass::Medium).value(), 32);
        assert_eq!(default_qp(TextureClass::High).value(), 27);
    }

    #[test]
    fn reset_seeds_texture_defaults() {
        let c = controller();
        assert_eq!(c.current.len(), 3);
        assert_eq!(c.qp(0).value(), 37);
        assert_eq!(c.qp(1).value(), 32);
        assert_eq!(c.qp(2).value(), 27);
    }

    #[test]
    fn high_headroom_raises_qp() {
        let mut c = controller();
        // 50 dB >> 39.5 + 3: QP rises by ΔQP.
        let qp = c.adapt(1, TextureClass::Medium, obs(50.0));
        assert_eq!(qp.value(), 34);
        // And keeps rising on repeated headroom, up to the 42 ceiling.
        for _ in 0..10 {
            c.adapt(1, TextureClass::Medium, obs(50.0));
        }
        assert_eq!(c.qp(1).value(), 42);
    }

    #[test]
    fn violation_lowers_qp_to_floor() {
        let mut c = controller();
        for _ in 0..20 {
            c.adapt(2, TextureClass::High, obs(35.0));
        }
        assert_eq!(c.qp(2).value(), 22, "extreme texture hits the 22 floor");
    }

    #[test]
    fn in_band_returns_to_default() {
        let mut c = controller();
        c.adapt(0, TextureClass::Low, obs(50.0)); // pushed up
        assert_ne!(c.qp(0).value(), 37);
        let qp = c.adapt(0, TextureClass::Low, obs(40.5)); // inside band
        assert_eq!(qp.value(), 37);
    }

    #[test]
    fn first_frame_uses_default() {
        let mut c = controller();
        assert_eq!(c.adapt(1, TextureClass::Medium, None).value(), 32);
    }

    #[test]
    fn boundary_conditions_of_band() {
        let mut c = controller();
        let cfg = c.config;
        // Exactly at constraint: in band (not below) → default.
        let qp = c.adapt(1, TextureClass::Medium, obs(cfg.psnr_constraint_db));
        assert_eq!(qp, default_qp(TextureClass::Medium));
        // Exactly at constraint+margin: in band (not above) → default.
        let qp = c.adapt(
            1,
            TextureClass::Medium,
            obs(cfg.psnr_constraint_db + cfg.psnr_margin_db),
        );
        assert_eq!(qp, default_qp(TextureClass::Medium));
    }
}

//! Content-aware re-tiling — paper §III-B.
//!
//! Medical frames concentrate diagnostic content in the center and
//! keep corners/borders dark and still. The re-tiler exploits this by
//! *growing* border tiles (in 25% steps, width before height, while
//! their texture **and** motion stay low) and carving the remaining
//! center into at least four similar-size tiles, more when the center
//! texture is high.
//!
//! Geometry note: the paper grows the four corner tiles individually
//! and then handles border remainders. This reconstruction grows the
//! four *sides* (left/right/top/bottom), which yields the same ring
//! structure on center-weighted medical content while guaranteeing the
//! result is an exact, 8-aligned partition, which `Tiling::new` checks
//! once (ARCHITECTURE.md, "Where things are decided": tile geometry per
//! GOP).

use crate::motion_probe::probe_motion;
use crate::texture::{measure_texture, TextureClass};
use crate::tiling::{analyze_tiling, TileAnalysis};
use crate::AnalyzerConfig;
use medvt_frame::{Plane, Rect, Tiling};
use medvt_motion::MotionLevel;
use serde::{Deserialize, Serialize};

/// How far each border grew before hitting texture or motion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BorderWidths {
    /// Left border width in samples.
    pub left: usize,
    /// Right border width in samples.
    pub right: usize,
    /// Top border height in samples.
    pub top: usize,
    /// Bottom border height in samples.
    pub bottom: usize,
}

/// The re-tiler's product: a validated tiling plus the per-tile
/// analysis that justified it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetileOutcome {
    /// The new tiling.
    pub tiling: Tiling,
    /// Texture/motion analysis of every tile of the new tiling.
    pub analyses: Vec<TileAnalysis>,
    /// The grown border extents.
    pub borders: BorderWidths,
}

/// The content-aware re-tiler.
#[derive(Debug, Clone, Copy)]
pub struct Retiler {
    cfg: AnalyzerConfig,
}

impl Retiler {
    /// Creates a re-tiler.
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error, if any.
    pub fn new(cfg: AnalyzerConfig) -> Result<Self, String> {
        cfg.validate()?;
        Ok(Self { cfg })
    }

    /// The active configuration.
    pub fn config(&self) -> &AnalyzerConfig {
        &self.cfg
    }

    /// Re-tiles a frame based on its content.
    ///
    /// `prev` is the previous frame's luma (motion probing); `None`
    /// treats everything as low motion, as on the first frame.
    ///
    /// # Panics
    ///
    /// Panics when the plane is not 8-aligned or smaller than four
    /// minimum tiles.
    pub fn retile(&self, cur: &Plane, prev: Option<&Plane>) -> RetileOutcome {
        let frame = cur.bounds();
        assert!(
            frame.w.is_multiple_of(8) && frame.h.is_multiple_of(8),
            "frame must be 8-aligned"
        );
        assert!(
            frame.w >= 2 * self.cfg.min_tile_width && frame.h >= 2 * self.cfg.min_tile_height,
            "frame {frame} too small to re-tile"
        );

        // Phase 1 (paper: corner/border growth): grow each side while
        // the newly added strip stays low-texture AND low-motion.
        let max_lr = round_down8(frame.w / 3);
        let max_tb = round_down8(frame.h / 3);
        let left = self.grow_side(cur, prev, Side::Left, max_lr);
        let right = self.grow_side(cur, prev, Side::Right, max_lr);
        let top = self.grow_side(cur, prev, Side::Top, max_tb);
        let bottom = self.grow_side(cur, prev, Side::Bottom, max_tb);
        let borders = BorderWidths {
            left,
            right,
            top,
            bottom,
        };

        // Phase 2: assemble the ring tiles.
        let w = frame.w;
        let h = frame.h;
        let cw = w - left - right; // center width
        let ch = h - top - bottom;
        let mut tiles: Vec<Rect> = Vec::new();
        let mut push = |r: Rect| {
            if !r.is_empty() {
                tiles.push(r);
            }
        };
        push(Rect::new(0, 0, left, top));
        push(Rect::new(w - right, 0, right, top));
        push(Rect::new(0, h - bottom, left, bottom));
        push(Rect::new(w - right, h - bottom, right, bottom));
        push(Rect::new(left, 0, cw, top));
        push(Rect::new(left, h - bottom, cw, bottom));
        push(Rect::new(0, top, left, ch));
        push(Rect::new(w - right, top, right, ch));

        // Phase 3: carve the center. The paper keeps at least 4 tiles
        // there for parallelism, more when texture is high.
        let center = Rect::new(left, top, cw, ch);
        let center_texture = measure_texture(cur, &center, &self.cfg).class;
        let budget = self.cfg.max_tiles.saturating_sub(tiles.len());
        let want = match center_texture {
            TextureClass::High => budget,
            TextureClass::Medium => budget.min(6),
            TextureClass::Low => self.cfg.min_center_tiles,
        }
        .max(self.cfg.min_center_tiles);
        let (cols, rows) = center_grid(
            cw,
            ch,
            want,
            self.cfg.min_center_tiles,
            self.cfg.min_tile_width,
            self.cfg.min_tile_height,
        );
        let center_tiling = Tiling::uniform(center, cols, rows);
        tiles.extend(center_tiling.iter().copied());

        let tiling = Tiling::new(frame, tiles).expect("ring layout partitions the frame");
        let analyses = analyze_tiling(cur, prev, &tiling, &self.cfg);
        RetileOutcome {
            tiling,
            analyses,
            borders,
        }
    }

    /// Grows one side from `min_tile` size in `growth_step` increments
    /// while the *added strip* stays low, returning the final extent
    /// (possibly 0 when even the first strip is busy).
    fn grow_side(&self, cur: &Plane, prev: Option<&Plane>, side: Side, max: usize) -> usize {
        let start = match side {
            Side::Left | Side::Right => self.cfg.min_tile_width,
            Side::Top | Side::Bottom => self.cfg.min_tile_height,
        };
        if start > max || !self.strip_is_low(cur, prev, side, 0, start) {
            return 0;
        }
        let mut extent = start;
        loop {
            let step = round_up8(((extent as f64) * self.cfg.growth_step).max(8.0) as usize);
            if extent + step > max {
                return extent;
            }
            if self.strip_is_low(cur, prev, side, extent, step) {
                extent += step;
            } else {
                return extent;
            }
        }
    }

    /// Tests the strip `[offset, offset + span)` from `side` for low
    /// texture and low motion.
    fn strip_is_low(
        &self,
        cur: &Plane,
        prev: Option<&Plane>,
        side: Side,
        offset: usize,
        span: usize,
    ) -> bool {
        let frame = cur.bounds();
        let rect = match side {
            Side::Left => Rect::new(offset, 0, span, frame.h),
            Side::Right => Rect::new(frame.w - offset - span, 0, span, frame.h),
            Side::Top => Rect::new(0, offset, frame.w, span),
            Side::Bottom => Rect::new(0, frame.h - offset - span, frame.w, span),
        };
        let texture_low = measure_texture(cur, &rect, &self.cfg).class == TextureClass::Low;
        let motion_low = match prev {
            None => true,
            Some(p) => probe_motion(cur, p, &rect, &self.cfg).level == MotionLevel::Low,
        };
        texture_low && motion_low
    }
}

#[derive(Debug, Clone, Copy)]
enum Side {
    Left,
    Right,
    Top,
    Bottom,
}

/// Picks a `cols x rows` grid for the center region: as close to
/// `want` tiles as the minimum tile size allows (never below
/// `min_tiles` unless geometry forbids it), preferring near-square
/// tiles.
fn center_grid(
    w: usize,
    h: usize,
    want: usize,
    min_tiles: usize,
    min_w: usize,
    min_h: usize,
) -> (usize, usize) {
    let cmax = (w / min_w).max(1).min(w / 8);
    let rmax = (h / min_h).max(1).min(h / 8);
    let mut best: Option<(usize, usize, usize, f64)> = None; // cols, rows, count, aspect err
    for cols in 1..=cmax {
        for rows in 1..=rmax {
            let count = cols * rows;
            if count > want && count > min_tiles {
                continue;
            }
            let tile_aspect = (w as f64 / cols as f64) / (h as f64 / rows as f64);
            let err = (tile_aspect.ln()).abs();
            let better = match best {
                None => true,
                Some((_, _, bc, berr)) => count > bc || (count == bc && err < berr),
            };
            if better {
                best = Some((cols, rows, count, err));
            }
        }
    }
    let (cols, rows, _, _) = best.expect("cmax/rmax >= 1 guarantees a candidate");
    (cols, rows)
}

fn round_up8(v: usize) -> usize {
    v.div_ceil(8) * 8
}

fn round_down8(v: usize) -> usize {
    v / 8 * 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use medvt_frame::synth::{BodyPart, MotionPattern, PhantomVideo};
    use medvt_frame::Resolution;

    fn retiler() -> Retiler {
        Retiler::new(AnalyzerConfig {
            min_tile_width: 32,
            min_tile_height: 32,
            ..Default::default()
        })
        .expect("valid config")
    }

    fn phantom_frames() -> (medvt_frame::Frame, medvt_frame::Frame) {
        let v = PhantomVideo::builder(BodyPart::Brain)
            .resolution(Resolution::new(320, 240))
            .motion(MotionPattern::Pan { dx: 1.5, dy: 0.0 })
            .seed(8)
            .build();
        (v.render(0), v.render(4))
    }

    #[test]
    fn phantom_grows_borders_and_partitions() {
        let (f0, f1) = phantom_frames();
        let out = retiler().retile(f1.y(), Some(f0.y()));
        assert!(out.borders.left > 0, "dark left border should grow");
        assert!(out.borders.right > 0);
        assert!(out.borders.top > 0);
        assert!(out.borders.bottom > 0);
        assert_eq!(out.tiling.covered_area(), 320 * 240);
        assert!(out.tiling.len() >= 4 + 4); // ring + center
        assert_eq!(out.analyses.len(), out.tiling.len());
    }

    #[test]
    fn center_has_at_least_four_tiles() {
        let (f0, f1) = phantom_frames();
        let r = retiler();
        let out = r.retile(f1.y(), Some(f0.y()));
        let center_tiles = out
            .tiling
            .iter()
            .filter(|t| {
                t.x >= out.borders.left
                    && t.right() <= 320 - out.borders.right
                    && t.y >= out.borders.top
                    && t.bottom() <= 240 - out.borders.bottom
            })
            .count();
        assert!(center_tiles >= 4, "only {center_tiles} center tiles");
    }

    #[test]
    fn respects_max_tiles() {
        let (f0, f1) = phantom_frames();
        let r = Retiler::new(AnalyzerConfig {
            min_tile_width: 32,
            min_tile_height: 32,
            max_tiles: 12,
            ..Default::default()
        })
        .unwrap();
        let out = r.retile(f1.y(), Some(f0.y()));
        assert!(out.tiling.len() <= 12, "{} tiles", out.tiling.len());
    }

    #[test]
    fn busy_everywhere_content_gets_no_borders() {
        // High-contrast checkerboard over the whole frame.
        let mut p = Plane::new(256, 192);
        for row in 0..192 {
            for col in 0..256 {
                p.set(
                    col,
                    row,
                    if (col / 4 + row / 4) % 2 == 0 {
                        20
                    } else {
                        230
                    },
                );
            }
        }
        let out = retiler().retile(&p, None);
        assert_eq!(out.borders, BorderWidths::default());
        // Falls back to a pure center grid.
        assert!(out.tiling.len() >= 4);
        assert_eq!(out.tiling.covered_area(), 256 * 192);
    }

    #[test]
    fn first_frame_without_prev_works() {
        let (f0, _) = phantom_frames();
        let out = retiler().retile(f0.y(), None);
        assert!(out.tiling.len() >= 4);
        assert!(out.analyses.iter().all(|a| a.motion.is_none()));
    }

    #[test]
    fn determinism() {
        let (f0, f1) = phantom_frames();
        let r = retiler();
        let a = r.retile(f1.y(), Some(f0.y()));
        let b = r.retile(f1.y(), Some(f0.y()));
        assert_eq!(a, b);
    }

    #[test]
    fn high_texture_center_gets_more_tiles_than_low() {
        // Low-texture center: flat bright disc.
        let mut flat = Plane::filled(320, 240, 16);
        flat.fill_rect(&Rect::new(96, 72, 128, 96), 140);
        let out_flat = retiler().retile(&flat, None);
        // High-texture center: checkerboard disc.
        let mut busy = Plane::filled(320, 240, 16);
        for row in 72..168 {
            for col in 96..224 {
                busy.set(col, row, if (col + row) % 2 == 0 { 30 } else { 230 });
            }
        }
        let out_busy = retiler().retile(&busy, None);
        assert!(
            out_busy.tiling.len() >= out_flat.tiling.len(),
            "busy {} vs flat {}",
            out_busy.tiling.len(),
            out_flat.tiling.len()
        );
    }

    #[test]
    fn center_grid_prefers_square_tiles() {
        let (c, r) = center_grid(320, 160, 8, 4, 32, 32);
        assert!(c * r >= 4 && c * r <= 8);
        assert!(c >= r, "wide region should get more columns: {c}x{r}");
    }

    #[test]
    fn center_grid_respects_min_tile_size() {
        // 64x64 region with 32-min tiles: at most 2x2.
        let (c, r) = center_grid(64, 64, 16, 4, 32, 32);
        assert!(c <= 2 && r <= 2);
    }

    #[test]
    fn rejects_invalid_config() {
        let bad = AnalyzerConfig {
            growth_step: 2.0,
            ..Default::default()
        };
        assert!(Retiler::new(bad).is_err());
    }
}

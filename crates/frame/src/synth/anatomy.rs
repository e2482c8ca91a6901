//! Procedural anatomy canvases for phantom videos.
//!
//! Each [`BodyPart`] renders a *canvas* — a static high-resolution luma
//! texture that the motion model later samples with a time-varying
//! transform. The canvases reproduce the content statistics the paper
//! exploits: bright, textured structure concentrated at the center and
//! dark, flat surroundings.

use crate::synth::noise::ValueNoise;
use crate::{par_map, Plane};
use serde::{Deserialize, Serialize};
use std::f64::consts::PI;

/// Anatomical category of a phantom video.
///
/// The paper (§III-D1) notes medical images cluster into a small number
/// of classes by imaged body part, and that workload LUTs transfer
/// within a class. These variants mirror the classes it lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum BodyPart {
    /// Long bones / skeletal X-ray-like content: sharp, high-contrast edges.
    Bones,
    /// Lung & chest CT-like content: two lobes with fine speckle and ribs.
    LungChest,
    /// Brain MRI-like content: smooth gyri-like blobs, medium texture.
    Brain,
    /// Spinal cord: vertically stacked vertebra segments.
    SpinalCord,
    /// Ligament / tendon: fibrous diagonal striation.
    LigamentTendon,
    /// Cardiac ultrasound-like content: chambers with strong speckle.
    Cardiac,
}

impl BodyPart {
    /// All classes, in a stable order used by the experiment harness.
    pub const ALL: [BodyPart; 6] = [
        BodyPart::Bones,
        BodyPart::LungChest,
        BodyPart::Brain,
        BodyPart::SpinalCord,
        BodyPart::LigamentTendon,
        BodyPart::Cardiac,
    ];

    /// Short lowercase label for file names and reports.
    pub const fn label(&self) -> &'static str {
        match self {
            BodyPart::Bones => "bones",
            BodyPart::LungChest => "lung_chest",
            BodyPart::Brain => "brain",
            BodyPart::SpinalCord => "spinal_cord",
            BodyPart::LigamentTendon => "ligament_tendon",
            BodyPart::Cardiac => "cardiac",
        }
    }
}

impl std::fmt::Display for BodyPart {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Renders the static anatomy canvas for `part`.
///
/// The canvas is `width x height` luma samples; structure is centered
/// with semi-axes `(content_rx, content_ry)` and fades to black beyond
/// ~1.35x that radius. `seed` selects a reproducible texture
/// realization; `texture_gain` in `[0, 2]` scales texture contrast.
///
/// Every sample is a pure function of its coordinates, so the canvas is
/// rendered in bands of rows spread over the shared pool's executors
/// ([`par_map`]); the samples do not depend on how the bands were
/// spread.
///
/// A sample is `16 + intensity · falloff`, and the falloff is exactly 0
/// beyond 1.35 normalized radii — most of a phantom's canvas. There the
/// anatomy (up to three octaves of value noise) is not computed: every
/// body part's intensity is finite and at least 0, so `intensity · 0`
/// is ±0 and the sample is the black level 16, to the bit.
///
/// # Panics
///
/// Panics if any dimension or radius is zero.
pub fn render_canvas(
    part: BodyPart,
    width: usize,
    height: usize,
    content_rx: f64,
    content_ry: f64,
    seed: u64,
    texture_gain: f64,
) -> Plane {
    assert!(
        width > 0 && height > 0,
        "canvas dimensions must be non-zero"
    );
    assert!(
        content_rx > 0.0 && content_ry > 0.0,
        "content radii must be positive"
    );
    let noise = ValueNoise::new(seed);
    let cx = width as f64 / 2.0;
    let cy = height as f64 / 2.0;
    let rx = content_rx;
    let ry = content_ry;
    let band = |b: usize| {
        let rows = b * BAND_ROWS..((b + 1) * BAND_ROWS).min(height);
        let mut samples = Vec::with_capacity(rows.len() * width);
        for row in rows {
            for col in 0..width {
                let x = col as f64;
                let y = row as f64;
                let nx = (x - cx) / rx;
                let ny = (y - cy) / ry;
                let r2 = nx * nx + ny * ny;
                // Soft falloff outside the anatomy keeps borders dark & flat.
                let falloff = smoothstep(1.35, 0.95, r2.sqrt());
                if falloff == 0.0 {
                    // `16 + intensity · 0`, without computing the anatomy.
                    samples.push(16);
                    continue;
                }
                let base = intensity(part, nx, ny, r2, x, y, &noise, texture_gain);
                let v = 16.0 + base * falloff;
                samples.push(v.clamp(0.0, 255.0) as u8);
            }
        }
        samples
    };
    let samples = par_map(height.div_ceil(BAND_ROWS), band).concat();
    Plane::from_vec(width, height, samples).expect("bands cover the canvas row by row")
}

/// Canvas rows per [`par_map`] item: enough work to amortize a claim
/// and its boxed job, few enough that the last band does not leave a
/// core idle for long.
const BAND_ROWS: usize = 16;

/// Luma contribution (above black level) of `part` at normalized
/// anatomy coordinates `(nx, ny)` / absolute canvas coordinates `(x, y)`.
///
/// Finite and at least 0 for every part: each branch ends in
/// `.max(0.0)` or is `0.0`. [`render_canvas`] relies on it to skip the
/// samples whose falloff is zero.
#[allow(clippy::too_many_arguments)]
fn intensity(
    part: BodyPart,
    nx: f64,
    ny: f64,
    r2: f64,
    x: f64,
    y: f64,
    noise: &ValueNoise,
    gain: f64,
) -> f64 {
    match part {
        BodyPart::Brain => {
            // Smooth dome with gyri-like low-frequency convolutions.
            let dome = (1.0 - (r2 * 0.55).min(1.0)) * 150.0;
            let gyri = (noise.fractal(x, y, 0.035, 3) - 0.5) * 90.0 * gain;
            // Dark ventricle pair near the center.
            let v1 = gaussian(nx + 0.25, ny, 0.18) * 70.0;
            let v2 = gaussian(nx - 0.25, ny, 0.18) * 70.0;
            (dome + gyri - v1 - v2).max(0.0)
        }
        BodyPart::Bones => {
            // Two bright shafts with crisp edges and a joint gap.
            let shaft1 = capsule(nx, ny, -0.9, -0.25, -0.1, -0.02, 0.16);
            let shaft2 = capsule(nx, ny, 0.1, 0.05, 0.9, 0.3, 0.14);
            let edge = |d: f64| smoothstep(0.03, 0.0, d) * 190.0;
            let trabecular = (noise.fractal(x, y, 0.12, 2) - 0.5) * 55.0 * gain;
            let s = edge(shaft1).max(edge(shaft2));
            if s > 1.0 {
                (s + trabecular).max(0.0)
            } else {
                // Faint soft tissue halo.
                (smoothstep(1.2, 0.3, r2.sqrt()) * 30.0).max(0.0)
            }
        }
        BodyPart::LungChest => {
            // Two lobes of fine-grained parenchyma behind periodic ribs.
            let lobe_l = gaussian(nx + 0.52, ny, 0.42);
            let lobe_r = gaussian(nx - 0.52, ny, 0.42);
            let parenchyma = (lobe_l + lobe_r).min(1.0) * 120.0;
            let speckle = (noise.fractal(x, y, 0.22, 3) - 0.5) * 110.0 * gain;
            let ribs = ((ny * 5.5 + nx * nx * 1.4).sin().abs()).powi(6) * 60.0;
            let mediastinum = gaussian(nx, ny, 0.16) * 80.0;
            (parenchyma + speckle * (lobe_l + lobe_r).min(1.0) + ribs + mediastinum).max(0.0)
        }
        BodyPart::SpinalCord => {
            // Vertical stack of vertebra segments around a bright cord.
            let column = smoothstep(0.30, 0.10, nx.abs()) * 130.0;
            let segments = ((ny * PI * 3.2).sin().abs()).powi(2) * 70.0;
            let cord = smoothstep(0.08, 0.02, nx.abs()) * 60.0;
            let marrow = (noise.fractal(x, y, 0.09, 2) - 0.5) * 45.0 * gain;
            if nx.abs() < 0.5 {
                (column + segments * smoothstep(0.4, 0.1, nx.abs()) + cord + marrow).max(0.0)
            } else {
                0.0
            }
        }
        BodyPart::LigamentTendon => {
            // Fibrous diagonal striation with anisotropic texture.
            let body = smoothstep(1.1, 0.5, r2.sqrt()) * 100.0;
            let fibers = ((nx * 9.0 - ny * 14.0).sin().abs()).powi(3) * 85.0 * gain;
            let undulation = (noise.fractal(x, y * 0.25, 0.05, 2) - 0.5) * 40.0;
            (body + fibers * smoothstep(1.1, 0.6, r2.sqrt()) + undulation).max(0.0)
        }
        BodyPart::Cardiac => {
            // Myocardial ring with two dark chambers and heavy speckle.
            let ring = gaussian(r2.sqrt() - 0.62, 0.0, 0.22) * 150.0;
            let chamber_l = gaussian(nx + 0.22, ny - 0.1, 0.2) * 90.0;
            let chamber_r = gaussian(nx - 0.3, ny + 0.15, 0.17) * 90.0;
            let speckle = (noise.fractal(x, y, 0.3, 3) - 0.5) * 120.0 * gain;
            let muscle = smoothstep(1.0, 0.2, r2.sqrt()) * 95.0;
            (muscle + ring + speckle * smoothstep(1.05, 0.5, r2.sqrt()) - chamber_l - chamber_r)
                .max(0.0)
        }
    }
}

/// Unnormalized Gaussian bump.
fn gaussian(dx: f64, dy: f64, sigma: f64) -> f64 {
    (-(dx * dx + dy * dy) / (2.0 * sigma * sigma)).exp()
}

/// Distance from point to the capsule (thick segment) minus its radius;
/// negative inside.
fn capsule(px: f64, py: f64, ax: f64, ay: f64, bx: f64, by: f64, radius: f64) -> f64 {
    let abx = bx - ax;
    let aby = by - ay;
    let apx = px - ax;
    let apy = py - ay;
    let t = ((apx * abx + apy * aby) / (abx * abx + aby * aby)).clamp(0.0, 1.0);
    let dx = apx - t * abx;
    let dy = apy - t * aby;
    (dx * dx + dy * dy).sqrt() - radius
}

/// Hermite smoothstep from 1 at `edge1` to 0 at `edge0` (note: callers
/// pass `edge0 > edge1` for a falling edge).
fn smoothstep(edge0: f64, edge1: f64, x: f64) -> f64 {
    let t = ((x - edge0) / (edge1 - edge0)).clamp(0.0, 1.0);
    t * t * (3.0 - 2.0 * t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RegionStats;
    use crate::Rect;

    fn canvas(part: BodyPart) -> Plane {
        render_canvas(part, 160, 120, 48.0, 36.0, 7, 1.0)
    }

    #[test]
    fn all_parts_render_nonempty() {
        for part in BodyPart::ALL {
            let c = canvas(part);
            let s = RegionStats::of(&c, &Rect::frame(160, 120));
            assert!(s.max > 60, "{part} canvas too dark (max={})", s.max);
        }
    }

    #[test]
    fn center_brighter_and_more_textured_than_corners() {
        for part in BodyPart::ALL {
            let c = canvas(part);
            let center = RegionStats::of(&c, &Rect::new(60, 45, 40, 30));
            let corner = RegionStats::of(&c, &Rect::new(0, 0, 30, 20));
            assert!(
                center.mean > corner.mean + 10.0,
                "{part}: center {} vs corner {}",
                center.mean,
                corner.mean
            );
            assert!(
                center.stddev > corner.stddev,
                "{part}: center texture should exceed corner texture"
            );
        }
    }

    #[test]
    fn corners_are_near_black_and_flat() {
        for part in BodyPart::ALL {
            let c = canvas(part);
            let corner = RegionStats::of(&c, &Rect::new(0, 0, 24, 18));
            assert!(corner.mean < 40.0, "{part}: corner mean {}", corner.mean);
            assert!(
                corner.stddev < 12.0,
                "{part}: corner stddev {}",
                corner.stddev
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = render_canvas(BodyPart::Brain, 64, 64, 20.0, 20.0, 3, 1.0);
        let b = render_canvas(BodyPart::Brain, 64, 64, 20.0, 20.0, 3, 1.0);
        assert_eq!(a, b);
        let c = render_canvas(BodyPart::Brain, 64, 64, 20.0, 20.0, 4, 1.0);
        assert_ne!(a, c);
    }

    #[test]
    fn texture_gain_increases_variation() {
        let flat = render_canvas(BodyPart::LungChest, 128, 96, 40.0, 30.0, 5, 0.2);
        let rough = render_canvas(BodyPart::LungChest, 128, 96, 40.0, 30.0, 5, 1.8);
        let r = Rect::new(32, 24, 64, 48);
        let s_flat = RegionStats::of(&flat, &r);
        let s_rough = RegionStats::of(&rough, &r);
        assert!(
            s_rough.stddev > s_flat.stddev,
            "gain should raise texture: {} vs {}",
            s_rough.stddev,
            s_flat.stddev
        );
    }

    /// The canvas formula with the anatomy computed at every sample.
    fn every_sample_canvas(
        part: BodyPart,
        (width, height): (usize, usize),
        (rx, ry): (f64, f64),
        seed: u64,
        gain: f64,
    ) -> Vec<u8> {
        let noise = ValueNoise::new(seed);
        let cx = width as f64 / 2.0;
        let cy = height as f64 / 2.0;
        let mut samples = Vec::with_capacity(width * height);
        for row in 0..height {
            for col in 0..width {
                let (x, y) = (col as f64, row as f64);
                let nx = (x - cx) / rx;
                let ny = (y - cy) / ry;
                let r2 = nx * nx + ny * ny;
                let base = intensity(part, nx, ny, r2, x, y, &noise, gain);
                let falloff = smoothstep(1.35, 0.95, r2.sqrt());
                samples.push((16.0 + base * falloff).clamp(0.0, 255.0) as u8);
            }
        }
        samples
    }

    #[test]
    fn skipping_the_zero_falloff_changes_no_sample() {
        // A phantom's 4:3 canvas with its margin (radii 0.26 of the
        // output frame), and an odd canvas of 101 rows (not a whole
        // number of bands) whose anatomy is taller than wide.
        let geometries = [
            ((240, 200), (41.6, 31.2), 2018, 1.0),
            ((150, 101), (30.0, 41.5), 3, 1.7),
        ];
        for (size, radii, seed, gain) in geometries {
            for part in BodyPart::ALL {
                let got = render_canvas(part, size.0, size.1, radii.0, radii.1, seed, gain);
                let want = every_sample_canvas(part, size, radii, seed, gain);
                assert_eq!(got.samples(), &want[..], "{part} at {size:?}");
            }
        }
    }

    #[test]
    fn body_part_labels_are_stable() {
        assert_eq!(BodyPart::Brain.label(), "brain");
        assert_eq!(BodyPart::LungChest.to_string(), "lung_chest");
        assert_eq!(BodyPart::ALL.len(), 6);
    }

    #[test]
    fn bones_have_higher_edge_contrast_than_brain() {
        let bones = canvas(BodyPart::Bones);
        let brain = canvas(BodyPart::Brain);
        let r = Rect::new(40, 30, 80, 60);
        // Bones: crisp shafts → large dynamic range in center region.
        assert!(RegionStats::of(&bones, &r).range() >= RegionStats::of(&brain, &r).range());
    }
}

//! Encoding statistics: the per-tile and per-frame measurements the
//! workload estimator, the thread allocator and the experiment tables
//! consume.

use medvt_frame::Rect;
use serde::{Deserialize, Serialize};

/// Operation counts and outcomes of encoding one tile of one frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct TileStats {
    /// Tile geometry.
    pub rect: Rect,
    /// Bits emitted for this tile.
    pub bits: u64,
    /// Sum of squared reconstruction error over luma samples.
    pub luma_ssd: u64,
    /// Luma samples in the tile.
    pub luma_samples: u64,
    /// Motion-search candidates evaluated x block samples — the number
    /// of SAD sample operations performed.
    pub sad_samples: u64,
    /// Samples presented to the residual coder (elided blocks
    /// included) — the count `CostModel` prices.
    pub transform_samples: u64,
    /// Blocks coded in intra mode.
    pub intra_blocks: u32,
    /// Blocks coded in inter mode.
    pub inter_blocks: u32,
}

impl TileStats {
    /// Creates empty statistics for a tile.
    pub fn new(rect: Rect) -> Self {
        Self {
            rect,
            luma_samples: rect.area() as u64,
            ..Self::default()
        }
    }

    /// Luma PSNR of the reconstructed tile in dB (infinite when
    /// lossless).
    pub fn psnr(&self) -> f64 {
        if self.luma_ssd == 0 || self.luma_samples == 0 {
            f64::INFINITY
        } else {
            let mse = self.luma_ssd as f64 / self.luma_samples as f64;
            10.0 * (255.0f64 * 255.0 / mse).log10()
        }
    }

    /// Merges another tile's numbers into this one (used for frame and
    /// sequence aggregation).
    pub fn absorb(&mut self, other: &TileStats) {
        self.bits += other.bits;
        self.luma_ssd += other.luma_ssd;
        self.luma_samples += other.luma_samples;
        self.sad_samples += other.sad_samples;
        self.transform_samples += other.transform_samples;
        self.intra_blocks += other.intra_blocks;
        self.inter_blocks += other.inter_blocks;
    }
}

/// Statistics of one encoded frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FrameStats {
    /// Display-order index of the frame.
    pub poc: usize,
    /// Per-tile statistics, in tiling order.
    pub tiles: Vec<TileStats>,
}

impl FrameStats {
    /// Sums tile statistics into one aggregate.
    pub fn total(&self) -> TileStats {
        let mut acc = TileStats::default();
        for t in &self.tiles {
            acc.absorb(t);
        }
        acc
    }

    /// Frame luma PSNR in dB.
    pub fn psnr(&self) -> f64 {
        self.total().psnr()
    }

    /// Frame bits.
    pub fn bits(&self) -> u64 {
        self.tiles.iter().map(|t| t.bits).sum()
    }
}

/// Statistics of an encoded sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct SequenceStats {
    /// Per-frame statistics in display order.
    pub frames: Vec<FrameStats>,
    /// Nominal frame rate, for bitrate computation.
    pub fps: f64,
}

impl SequenceStats {
    /// Mean luma PSNR across frames, in dB. Lossless frames saturate at
    /// 99 dB so a single perfect frame does not produce an infinite mean.
    pub fn mean_psnr(&self) -> f64 {
        if self.frames.is_empty() {
            return f64::NAN;
        }
        let sum: f64 = self.frames.iter().map(|f| f.psnr().min(99.0)).sum();
        sum / self.frames.len() as f64
    }

    /// Total bits of the sequence.
    pub fn total_bits(&self) -> u64 {
        self.frames.iter().map(|f| f.bits()).sum()
    }

    /// Average bitrate in bits per second.
    pub(crate) fn bitrate_bps(&self) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        let duration = self.frames.len() as f64 / self.fps;
        self.total_bits() as f64 / duration
    }

    /// Average bitrate in megabits per second (the unit of Table II).
    pub fn bitrate_mbps(&self) -> f64 {
        self.bitrate_bps() / 1e6
    }

    /// Total motion-search sample operations — the ME complexity the
    /// Table I speedups compare.
    pub fn total_sad_samples(&self) -> u64 {
        self.frames.iter().map(|f| f.total().sad_samples).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile(bits: u64, ssd: u64, samples: u64) -> TileStats {
        TileStats {
            rect: Rect::new(0, 0, 8, 8),
            bits,
            luma_ssd: ssd,
            luma_samples: samples,
            sad_samples: 10,
            transform_samples: samples,
            intra_blocks: 1,
            inter_blocks: 2,
        }
    }

    #[test]
    fn psnr_computation() {
        let t = tile(100, 6400, 64); // mse = 100 → 28.13 dB
        assert!((t.psnr() - 28.13).abs() < 0.01);
        let lossless = tile(100, 0, 64);
        assert!(lossless.psnr().is_infinite());
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = tile(100, 50, 64);
        a.absorb(&tile(200, 150, 64));
        assert_eq!(a.bits, 300);
        assert_eq!(a.luma_ssd, 200);
        assert_eq!(a.luma_samples, 128);
        assert_eq!(a.intra_blocks, 2);
        assert_eq!(a.inter_blocks, 4);
    }

    #[test]
    fn frame_aggregation() {
        let f = FrameStats {
            poc: 0,
            tiles: vec![tile(100, 640, 64), tile(50, 640, 64)],
        };
        assert_eq!(f.bits(), 150);
        let total = f.total();
        assert_eq!(total.luma_ssd, 1280);
        // mse = 1280/128 = 10 → psnr ≈ 38.13.
        assert!((f.psnr() - 38.13).abs() < 0.01);
    }

    #[test]
    fn sequence_bitrate() {
        let frame = FrameStats {
            poc: 0,
            tiles: vec![tile(24_000, 100, 64)],
        };
        let seq = SequenceStats {
            frames: vec![frame; 24],
            fps: 24.0,
        };
        // 24 frames x 24k bits over 1 s = 576 kbps.
        assert!((seq.bitrate_bps() - 576_000.0).abs() < 1e-6);
        assert!((seq.bitrate_mbps() - 0.576).abs() < 1e-9);
    }

    #[test]
    fn mean_psnr_saturates_lossless_frames() {
        let lossless = FrameStats {
            poc: 0,
            tiles: vec![tile(10, 0, 64)],
        };
        let seq = SequenceStats {
            frames: vec![lossless],
            fps: 24.0,
        };
        assert_eq!(seq.mean_psnr(), 99.0);
    }

    #[test]
    fn empty_sequence_is_nan_psnr_zero_rate() {
        let seq = SequenceStats {
            frames: vec![],
            fps: 24.0,
        };
        assert!(seq.mean_psnr().is_nan());
        assert_eq!(seq.bitrate_bps(), 0.0);
    }
}

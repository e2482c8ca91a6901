//! # medvt-analyze
//!
//! Content analysis and tiling for the `medvt` reproduction of *"Online
//! Efficient Bio-Medical Video Transcoding on MPSoCs Through
//! Content-Aware Workload Allocation"* (Iranfar et al., DATE 2018).
//!
//! This crate implements the paper's §III-A/§III-B machinery:
//!
//! * [`TextureClass`] / [`measure_texture`] — the coefficient-of-
//!   variation texture classifier of Eq. (1);
//! * [`probe_motion`] — the 6-point motion probe of Eqs. (2)–(3)
//!   (4 corners, center, maximum point; weights α=1, β=3, γ=3,
//!   threshold M_th = 3);
//! * [`analyze_tiling`] — texture and motion of every tile of a
//!   [`medvt_frame::Tiling`], the frame partition this crate produces;
//! * [`Retiler`] — the content-aware re-tiler that grows quiet borders
//!   in 25% steps and carves the busy center into ≥4 tiles;
//! * [`CapacityBalancedTiler`] — the one-tile-per-core baseline of
//!   Khan et al. \[19\], the paper's comparison point.
//!
//! # Examples
//!
//! ```
//! use medvt_analyze::{AnalyzerConfig, Retiler};
//! use medvt_frame::synth::{BodyPart, PhantomVideo};
//! use medvt_frame::Resolution;
//!
//! let video = PhantomVideo::builder(BodyPart::Brain)
//!     .resolution(Resolution::new(320, 240))
//!     .seed(1)
//!     .build();
//! let f0 = video.render(0);
//! let f1 = video.render(4);
//! let retiler = Retiler::new(AnalyzerConfig {
//!     min_tile_width: 32,
//!     min_tile_height: 32,
//!     ..Default::default()
//! })?;
//! let outcome = retiler.retile(f1.y(), Some(f0.y()));
//! assert!(outcome.tiling.len() >= 4);
//! # Ok::<(), String>(())
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

mod baseline;
mod config;
mod motion_probe;
mod retile;
mod texture;
mod tiling;

pub use baseline::CapacityBalancedTiler;
pub use config::AnalyzerConfig;
pub use motion_probe::{probe_motion, MotionScore};
pub use retile::{BorderWidths, RetileOutcome, Retiler};
pub use texture::{measure_texture, TextureClass, TextureMeasure};
pub use tiling::{analyze_tiling, TileAnalysis};

//! # medvt-frame
//!
//! Video-frame primitives and synthetic bio-medical video generation for
//! the `medvt` reproduction of *"Online Efficient Bio-Medical Video
//! Transcoding on MPSoCs Through Content-Aware Workload Allocation"*
//! (Iranfar et al., DATE 2018).
//!
//! This crate is the foundation of the workspace:
//!
//! * [`Plane`], [`Frame`], [`Rect`], [`Resolution`] — raw YUV 4:2:0
//!   pictures and the tile/block geometry every other crate shares;
//! * [`Tiling`] — the validated, 8-aligned exact frame partition that
//!   content analysis produces and the encoder consumes ([`TilingError`]
//!   names the rule a candidate breaks);
//! * [`RegionStats`] — single-pass region statistics (mean, σ, CV)
//!   backing the paper's texture classifier (Eq. 1);
//! * [`quality`] — MSE/PSNR used by the QP controller and the
//!   experiment tables;
//! * [`synth`] — deterministic phantom bio-medical videos substituting
//!   the paper's anonymized clinical material;
//! * [`io`] — Y4M and PGM/PPM interchange;
//! * [`par_map`] — the one scoped fan-out of pure per-index work over
//!   the host's cores (phantom set-up, parallel tile encoding).
//!
//! # Examples
//!
//! Generate phantom brain MRI frames and measure how static the frame
//! corners are:
//!
//! ```
//! use medvt_frame::synth::{BodyPart, PhantomVideo};
//! use medvt_frame::{quality, Rect, Resolution};
//!
//! let video = PhantomVideo::builder(BodyPart::Brain)
//!     .resolution(Resolution::new(128, 96))
//!     .seed(7)
//!     .build();
//! let first = video.render(0);
//! let later = video.render(24);
//! let corner = Rect::new(0, 0, 16, 12);
//! let mse = quality::region_mse(first.y(), later.y(), &corner);
//! assert!(mse < 16.0, "corners barely change: {mse}");
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

mod error;
mod frame;
mod par;
mod plane;
mod rect;
mod tiling;
mod video;

pub mod io {
    //! Image and raw-video interchange (PGM/PPM, Y4M).
    mod pnm;
    mod y4m;

    pub use pnm::{overlay_rects, save_pgm, save_ppm, write_pgm, write_ppm};
    pub use y4m::{load_y4m, read_y4m, save_y4m, write_y4m};
}

pub mod quality;
pub mod stats;
pub mod synth;

pub use error::FrameError;
pub use frame::{Frame, FrameKind, Resolution};
pub use par::par_map;
pub use plane::Plane;
pub use rect::Rect;
pub use stats::RegionStats;
pub use tiling::{Tiling, TilingError};
pub use video::{FrameSource, VideoClip};

//! Synthetic bio-medical video generation.
//!
//! This module substitutes the clinical material the paper evaluated on
//! (ten anonymized 640x480 @ 24 fps diagnostic videos) with
//! deterministic phantoms that preserve the content statistics the
//! method exploits:
//!
//! * bright, textured anatomy concentrated at the frame center,
//! * dark, low-texture borders and corners,
//! * globally coherent motion (pan / rotation about an axis /
//!   periodic breathing), matching the diagnostic-procedure motions
//!   described in paper §I and Fig. 1.
//!
//! # Examples
//!
//! ```
//! use medvt_frame::synth::{BodyPart, PhantomVideo};
//! use medvt_frame::{FrameSource, Resolution};
//!
//! let mut video = PhantomVideo::builder(BodyPart::LungChest)
//!     .resolution(Resolution::new(128, 96))
//!     .frames(48)
//!     .build();
//! let clip = video.capture(8);
//! assert_eq!(clip.len(), 8);
//! ```

mod anatomy;
mod motion;
mod noise;
mod phantom;

pub use anatomy::{render_canvas, BodyPart};
pub use motion::{MotionPattern, ViewTransform};
pub use noise::{speckle, ValueNoise};
pub use phantom::{medical_suite, PhantomConfig, PhantomVideo, PhantomVideoBuilder};

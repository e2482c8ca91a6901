//! The block-matching search algorithms surveyed in paper §II-B plus
//! the references it compares against, one function each; the
//! [`crate::SearchSpec`] variant names which one runs.

mod cross;
mod diamond;
mod full;
mod hexagon;
mod ots;
mod three_step;
mod tz;

pub(crate) use cross::cross;
pub(crate) use diamond::diamond;
pub(crate) use full::full;
pub(crate) use hexagon::hexagon;
pub use hexagon::HexOrientation;
pub(crate) use ots::one_at_a_time;
pub(crate) use three_step::three_step;
pub(crate) use tz::tz;

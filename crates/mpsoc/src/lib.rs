//! # medvt-mpsoc
//!
//! MPSoC platform model for the `medvt` reproduction of *"Online
//! Efficient Bio-Medical Video Transcoding on MPSoCs Through
//! Content-Aware Workload Allocation"* (Iranfar et al., DATE 2018).
//!
//! The paper evaluates on a four-socket Intel Xeon E5-2667 server (32
//! cores, per-core DVFS at {2.9, 3.2, 3.6} GHz, 10 µs transitions) with
//! measured power. This crate substitutes that hardware with a
//! deterministic model:
//!
//! * [`Platform`] — socket/core/frequency geometry as a set of
//!   [`CoreClass`]es replicated per socket
//!   ([`Platform::xeon_e5_2667_quad`] matches §IV-A's homogeneous
//!   server; [`Platform::big_little`] models an Arm-style asymmetric
//!   MPSoC with per-class ladders, power envelopes and speed factors);
//! * [`FreqLevel`] / [`FrequencySet`] — the DVFS ladder with a V/f map;
//! * [`PowerModel`] — `P = P_static + C_eff·V²·f` per core, calibrated
//!   to the E5-2667 envelope, overridable per core class;
//! * [`simulate_slot`] — executes one 1/FPS scheduling interval across
//!   all cores under a [`DvfsPolicy`], producing per-core plans,
//!   deadline slack/misses, DVFS transition-bound flags and energy,
//!   each core planned against its own class.
//!
//! # The core-class model
//!
//! Workload is expressed in **reference fmax-seconds** — CPU time on a
//! speed-1.0 core running at its maximum frequency, matching the
//! `T_fmax` quantity of the paper's Algorithm 2. A [`CoreClass`] with
//! `speed_factor` `s` retires `s` reference fmax-seconds per wall
//! second at its own f_max, so the same tile takes `secs / s` seconds
//! there; frequencies below the class f_max stretch it further along
//! the class's own ladder. Schedulers normalize per-core loads by
//! [`Platform::core_speeds`] so the dynamic-cap placement balances
//! *finish times*, not raw seconds, and admission checks fractional
//! core demand against [`Platform::speed_capacity`].
//!
//! # Examples
//!
//! ```
//! use medvt_mpsoc::{simulate_slot, DvfsPolicy, Platform, PowerModel};
//!
//! let platform = Platform::quad_core();
//! let power = PowerModel::default();
//! let slot = 1.0 / 24.0;
//! let loads = vec![0.0, slot * 0.4, slot * 0.8, 0.0];
//! let prev = vec![platform.fmin(); 4];
//! let report = simulate_slot(
//!     &platform,
//!     &power,
//!     DvfsPolicy::StretchToDeadline,
//!     &loads,
//!     &prev,
//!     slot,
//! );
//! assert_eq!(report.deadline_misses, 0);
//! assert!(report.power_w() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

mod freq;
mod platform;
mod power;
mod slot;

pub use freq::{FreqLevel, FrequencySet};
pub use platform::{CoreClass, Platform};
pub use power::PowerModel;
pub use slot::{plan_core_on, record_slot_events, simulate_slot, CorePlan, DvfsPolicy, SlotReport};

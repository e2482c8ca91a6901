//! # medvt-telemetry
//!
//! Flight-recorder telemetry for the `medvt` serving stack: typed
//! control-plane/worker events, lock-free bounded ring buffers,
//! monotonic counters, log-bucketed latency histograms, and a
//! Chrome/Perfetto `trace_event` exporter.
//!
//! The crate is built around three ideas:
//!
//! * **Static dispatch, zero cost when off.** Instrumented code is
//!   generic over [`Recorder`]; the default [`NoopRecorder`] is a
//!   zero-sized type whose `record` is an inlined no-op and whose
//!   [`Recorder::ENABLED`] constant lets call sites skip event
//!   construction entirely. The counting-allocator test in
//!   `tests/zero_alloc.rs` proves the enabled path allocates nothing
//!   per event either.
//! * **Bounded retention.** [`FlightRecorder`] stores events in
//!   fixed-capacity [`EventRing`]s that overwrite the oldest entry on
//!   wrap, so even a 10⁵-user scale run records with fixed memory.
//!   Dropped-event counts are surfaced in the snapshot rather than
//!   silently discarded.
//! * **Model-time determinism.** Every event carries the modeled slot
//!   index; wall-clock nanoseconds ride along in a separate field that
//!   a [`FlightRecorder::modeled`] recorder never stamps. Sim and
//!   thread-pool backends therefore emit *identical* modeled event
//!   streams on the same trace — the repo's decision-parity invariant
//!   extended to telemetry.
//!
//! Aggregates live in [`Metrics`] (counters keyed by [`CounterId`],
//! base-2 log-bucketed [`Histogram`]s keyed by [`HistId`]) and are
//! captured as a serializable [`TelemetrySnapshot`] with
//! p50/p95/p99/max per histogram.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

mod event;
mod export;
mod metrics;
mod recorder;
mod ring;

pub use event::{Decision, Event, EventKind, CONTROL_TRACK};
pub use export::chrome_trace;
pub use metrics::{
    CounterId, CounterSnapshot, HistId, Histogram, HistogramSnapshot, Metrics, MetricsSnapshot,
};
pub use recorder::{FlightRecorder, NoopRecorder, Recorder, RingStat, TelemetrySnapshot};
pub use ring::EventRing;

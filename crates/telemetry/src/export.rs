//! Event-stream exporter: Chrome/Perfetto `trace_event` JSON.
//!
//! The format is hand-assembled from fixed-shape records (labels are
//! static identifiers, all values numeric/boolean), so no escaping
//! machinery is needed and the output is stable across runs modulo the
//! wall-clock fields.

use crate::event::{Event, EventKind, CONTROL_TRACK};

/// Perfetto/`chrome://tracing` process id for a track.
fn pid(track: u16) -> u32 {
    // Track 0 is a valid shard; keep pids 1-based so the control
    // plane can sit at pid 0 visibly on top.
    if track == CONTROL_TRACK {
        0
    } else {
        1 + u32::from(track)
    }
}

/// Chrome `trace_event` JSON (the "JSON Array Format" with a
/// `traceEvents` wrapper) laid out on the *modeled* timeline:
/// timestamps are `slot x slot_secs` microseconds, durations are the
/// modeled per-core busy time. Open the file directly in
/// <https://ui.perfetto.dev> or `chrome://tracing`.
///
/// Mapping: each shard is a process (`pid = shard + 1`, control plane
/// is `pid 0`), each core a thread; [`EventKind::SlotCore`] becomes a
/// complete ("X") span, admission/control events become instants
/// ("i"), and [`EventKind::QueueDepth`] becomes a counter ("C")
/// series.
pub fn chrome_trace(events: &[Event], slot_secs: f64) -> String {
    let slot_us = slot_secs * 1e6;
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut named: Vec<u16> = Vec::new();
    let emit = |out: &mut String, first: &mut bool, record: String| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&record);
    };
    for e in events {
        if !named.contains(&e.track) {
            named.push(e.track);
            let name = if e.track == CONTROL_TRACK {
                "control-plane".to_string()
            } else {
                format!("shard {}", e.track)
            };
            emit(
                &mut out,
                &mut first,
                format!(
                    "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                    pid(e.track),
                    name
                ),
            );
        }
        let ts = e.slot as f64 * slot_us;
        match e.kind {
            EventKind::SlotCore {
                core,
                busy_ns,
                carry,
                transition_bound,
            } => emit(
                &mut out,
                &mut first,
                format!(
                    "{{\"ph\":\"X\",\"name\":\"slot\",\"cat\":\"core\",\"pid\":{},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"carry\":{},\"transition_bound\":{}}}}}",
                    pid(e.track),
                    core,
                    ts,
                    f64::from(busy_ns) / 1e3,
                    carry,
                    transition_bound
                ),
            ),
            EventKind::QueueDepth { depth } => emit(
                &mut out,
                &mut first,
                format!(
                    "{{\"ph\":\"C\",\"name\":\"queue_depth\",\"pid\":{},\"ts\":{:.3},\"args\":{{\"depth\":{}}}}}",
                    pid(e.track),
                    ts,
                    depth
                ),
            ),
            EventKind::LeaseGranted { segment }
            | EventKind::LeaseExpired { segment }
            | EventKind::LeaseRequeued { segment }
            | EventKind::SegmentReassembled { segment } => emit(
                &mut out,
                &mut first,
                format!(
                    "{{\"ph\":\"i\",\"name\":\"{}\",\"cat\":\"lease\",\"pid\":{},\"tid\":0,\"ts\":{:.3},\"s\":\"p\",\"args\":{{\"segment\":{}}}}}",
                    e.kind.label(),
                    pid(e.track),
                    ts,
                    segment
                ),
            ),
            _ => emit(
                &mut out,
                &mut first,
                format!(
                    "{{\"ph\":\"i\",\"name\":\"{}\",\"cat\":\"control\",\"pid\":{},\"tid\":0,\"ts\":{:.3},\"s\":\"p\"}}",
                    e.kind.label(),
                    pid(e.track),
                    ts
                ),
            ),
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Decision, Event};

    fn sample() -> Vec<Event> {
        vec![
            Event::new(CONTROL_TRACK, 0, EventKind::GopBoundary),
            Event::new(
                CONTROL_TRACK,
                0,
                EventKind::Decision {
                    kind: Decision::Admit,
                    user: 7,
                },
            ),
            Event::new(CONTROL_TRACK, 4, EventKind::QueueDepth { depth: 2 }),
            Event::new(
                1,
                4,
                EventKind::SlotCore {
                    core: 3,
                    busy_ns: 41_666_667,
                    carry: false,
                    transition_bound: false,
                },
            ),
            Event::new(2, 5, EventKind::LeaseGranted { segment: 6 }),
            Event::new(2, 9, EventKind::LeaseExpired { segment: 6 }),
            Event::new(CONTROL_TRACK, 9, EventKind::LeaseRequeued { segment: 6 }),
            Event::new(
                CONTROL_TRACK,
                14,
                EventKind::SegmentReassembled { segment: 6 },
            ),
        ]
    }

    #[test]
    fn chrome_trace_emits_spans_instants_counters_and_metadata() {
        let text = chrome_trace(&sample(), 1.0 / 24.0);
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.ends_with("]}"));
        assert!(text.contains("\"ph\":\"M\""));
        assert!(text.contains("\"name\":\"control-plane\""));
        assert!(text.contains("\"name\":\"shard 1\""));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ph\":\"i\""));
        assert!(text.contains("\"ph\":\"C\""));
        // Slot 4 at 24 fps = 166666.667 us on the modeled timeline.
        assert!(text.contains("\"ts\":166666.667"));
        // 41,666,667 ns busy = 41666.667 us duration.
        assert!(text.contains("\"dur\":41666.667"));
        // No trailing comma / balanced braces — parse sanity by eye:
        assert!(!text.contains(",]"));
    }

    #[test]
    fn chrome_trace_puts_lease_instants_on_the_node_track() {
        let text = chrome_trace(&sample(), 1.0 / 24.0);
        // Lease grant/expiry land on the leasing node's track (track 2
        // -> pid 3), requeue/reassembly on the control plane (pid 0).
        assert!(text.contains(
            "{\"ph\":\"i\",\"name\":\"lease_granted\",\"cat\":\"lease\",\"pid\":3,\"tid\":0,"
        ));
        assert!(text.contains("\"name\":\"lease_expired\",\"cat\":\"lease\",\"pid\":3,"));
        assert!(text.contains("\"name\":\"lease_requeued\",\"cat\":\"lease\",\"pid\":0,"));
        assert!(text.contains("\"name\":\"segment_reassembled\",\"cat\":\"lease\",\"pid\":0,"));
        assert!(text.contains("\"args\":{\"segment\":6}"));
        assert!(text.contains("\"name\":\"shard 2\""));
    }
}

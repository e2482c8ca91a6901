//! The benchmark's own spans: recorded around calls into the layer
//! crates' public functions (never inside them), kept in pre-sized
//! per-thread buffers, written out once when the traced pass ends.

use serde::Value;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::{num, obj, s};

/// "No parent": the span is a root.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    /// The crate the time is booked to.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one ([`ROOT`] for none) — possibly on
    /// another thread.
    pub parent: u32,
    pub tid: u32,
    /// Shared by every span of one operation (one slot's dispatch and
    /// its tile encodes; one segment's lease and service).
    pub op: u64,
    /// What the span worked on, packed by its recorder (a tile's clip,
    /// frame and index; a segment's node).
    pub tag: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Threads that record (serving thread, pool workers) each get a lane;
/// more threads than lanes share the last one.
const LANES: usize = 8;

thread_local! {
    static LANE: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    lanes: Vec<Mutex<Vec<Span>>>,
    next_lane: AtomicUsize,
    next_id: AtomicU32,
}

impl Tracer {
    /// `capacity` spans are reserved per lane up front so recording
    /// does not allocate while the traced pass runs.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            t0: Instant::now(),
            lanes: (0..LANES)
                .map(|_| Mutex::new(Vec::with_capacity(capacity)))
                .collect(),
            next_lane: AtomicUsize::new(0),
            next_id: AtomicU32::new(0),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Reserves an id before the work starts, so children can name
    /// their parent while it is still running.
    pub fn open(&self) -> u32 {
        // A statistic-free id counter: publishes no other data.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn lane(&self) -> usize {
        LANE.with(|l| {
            if l.get() == usize::MAX {
                l.set(
                    self.next_lane
                        .fetch_add(1, Ordering::Relaxed)
                        .min(LANES - 1),
                );
            }
            l.get()
        })
    }

    #[allow(clippy::too_many_arguments)]
    pub fn close(
        &self,
        id: u32,
        name: &'static str,
        layer: &'static str,
        parent: u32,
        op: u64,
        tag: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        let lane = self.lane();
        self.lanes[lane]
            .lock()
            .expect("a recording thread panicked")
            .push(Span {
                id,
                name,
                layer,
                start_ns,
                end_ns,
                parent,
                tid: lane as u32,
                op,
                tag,
            });
    }

    /// All spans, ordered by start.
    pub fn drain(&self) -> Vec<Span> {
        let mut all: Vec<Span> = self
            .lanes
            .iter()
            .flat_map(|l| std::mem::take(&mut *l.lock().expect("a recording thread panicked")))
            .collect();
        all.sort_by_key(|s| (s.start_ns, s.id));
        all
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, lo);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// A span's self time: its duration minus the part of that interval
/// its children cover. Children may overlap each other (two workers
/// encoding at once) — the overlap is subtracted once.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != ROOT) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// One ledger row: where a layer's time went in the traced pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerRow {
    pub spans: usize,
    /// Wall time attributed to the layer: every instant of the pass
    /// goes to the layer of the deepest span active at that instant,
    /// so the rows of one pass sum to its wall time.
    pub wall_ns: u64,
    /// Self time summed over all threads (can exceed `wall_ns` when
    /// the layer runs on several workers at once).
    pub busy_ns: u64,
}

/// Builds the ledger. Spans must form a forest through `parent`.
pub fn ledger(spans: &[Span]) -> BTreeMap<&'static str, LayerRow> {
    let by_id: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let depth_of = |s: &Span| {
        let (mut d, mut p) = (0usize, s.parent);
        while let Some(parent) = by_id.get(&p) {
            d += 1;
            p = parent.parent;
        }
        d
    };
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    let selfs = self_times(spans);
    // Sweep: +1/-1 per (depth, layer) at span edges; each gap between
    // consecutive edges goes to the deepest active layer.
    let mut edges: Vec<(u64, bool, usize, &'static str)> = Vec::with_capacity(spans.len() * 2);
    for s in spans {
        let row = rows.entry(s.layer).or_default();
        row.spans += 1;
        row.busy_ns += selfs[&s.id];
        let d = depth_of(s);
        edges.push((s.start_ns, true, d, s.layer));
        edges.push((s.end_ns, false, d, s.layer));
    }
    // Ends sort before starts at equal time so back-to-back spans do
    // not look concurrent.
    edges.sort_by_key(|&(t, start, d, layer)| (t, start, d, layer));
    let mut active: BTreeMap<(usize, &'static str), usize> = BTreeMap::new();
    let mut last = 0u64;
    for (t, start, d, layer) in edges {
        if let Some((&(_, deepest), _)) = active.iter().next_back() {
            rows.get_mut(deepest).expect("row exists").wall_ns += t - last;
        }
        last = t;
        if start {
            *active.entry((d, layer)).or_insert(0) += 1;
        } else if let Some(n) = active.get_mut(&(d, layer)) {
            *n -= 1;
            if *n == 0 {
                active.remove(&(d, layer));
            }
        }
    }
    rows
}

pub fn ledger_json(rows: &BTreeMap<&'static str, LayerRow>, pass_wall_ns: u64) -> Value {
    let sum: u64 = rows.values().map(|r| r.wall_ns).sum();
    let mut out: Vec<(String, Value)> = rows
        .iter()
        .map(|(layer, r)| {
            (
                layer.to_string(),
                obj([
                    ("spans", Value::U64(r.spans as u64)),
                    ("wall_ms", num(r.wall_ns as f64 / 1e6)),
                    (
                        "wall_share",
                        num(r.wall_ns as f64 / pass_wall_ns.max(1) as f64),
                    ),
                    ("busy_ms", num(r.busy_ns as f64 / 1e6)),
                ]),
            )
        })
        .collect();
    out.push(("rows_sum_ms".into(), num(sum as f64 / 1e6)));
    out.push(("pass_wall_ms".into(), num(pass_wall_ns as f64 / 1e6)));
    Value::Object(out)
}

/// Chrome `trace_event` JSON ("X" complete events, µs timestamps),
/// loadable in Perfetto beside `telemetry::chrome_trace` output.
pub fn chrome_trace(spans: &[Span], process: &str) -> String {
    let mut events = vec![obj([
        ("name", s("process_name")),
        ("ph", s("M")),
        ("pid", Value::U64(1)),
        ("args", obj([("name", s(process))])),
    ])];
    for sp in spans {
        events.push(obj([
            ("name", s(sp.name)),
            ("cat", s(sp.layer)),
            ("ph", s("X")),
            ("ts", num(sp.start_ns as f64 / 1e3)),
            ("dur", num(sp.dur_ns() as f64 / 1e3)),
            ("pid", Value::U64(1)),
            ("tid", Value::U64(u64::from(sp.tid))),
            (
                "args",
                obj([
                    ("id", Value::U64(u64::from(sp.id))),
                    (
                        "parent",
                        if sp.parent == ROOT {
                            Value::Null
                        } else {
                            Value::U64(u64::from(sp.parent))
                        },
                    ),
                    ("op", Value::U64(sp.op)),
                    ("tag", Value::U64(sp.tag)),
                ]),
            ),
        ]));
    }
    crate::json::compact(&obj([("traceEvents", Value::Array(events))]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, layer: &'static str, parent: u32, tid: u32, start: u64, end: u64) -> Span {
        Span {
            id,
            name: "t",
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            tid,
            op: 0,
            tag: 0,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        // A slot [0,100] whose two tile encodes overlap on two workers:
        // [10,60] on tid 1 and [40,90] on tid 2 cover [10,90] = 80.
        let spans = [
            span(0, "runtime", ROOT, 0, 0, 100),
            span(1, "encoder", 0, 1, 10, 60),
            span(2, "encoder", 0, 2, 40, 90),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&0], 20);
        assert_eq!((selfs[&1], selfs[&2]), (50, 50));
        let rows = ledger(&spans);
        assert_eq!(rows["runtime"].wall_ns, 20);
        assert_eq!(rows["encoder"].wall_ns, 80);
        assert_eq!(rows["encoder"].busy_ns, 100, "busy counts both workers");
        let sum: u64 = rows.values().map(|r| r.wall_ns).sum();
        assert_eq!(sum, 100, "rows sum to the root's wall");
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        // A child that outlives its parent only covers the shared part.
        let spans = [
            span(0, "runtime", ROOT, 0, 0, 50),
            span(1, "encoder", 0, 1, 30, 80),
        ];
        assert_eq!(self_times(&spans)[&0], 30);
    }

    #[test]
    fn three_levels_attribute_to_the_deepest_layer() {
        let spans = [
            span(0, "admission", ROOT, 0, 0, 1000),
            span(1, "runtime", 0, 0, 100, 400),
            span(2, "runtime", 0, 0, 400, 900),
            span(3, "encoder", 1, 1, 150, 350),
            span(4, "encoder", 2, 2, 450, 850),
            span(5, "encoder", 2, 1, 500, 700),
        ];
        let rows = ledger(&spans);
        assert_eq!(rows["admission"].wall_ns, 200);
        assert_eq!(rows["runtime"].wall_ns, 100 + 100);
        assert_eq!(rows["encoder"].wall_ns, 200 + 400);
        assert_eq!(rows["encoder"].spans, 3);
    }

    #[test]
    fn tracer_collects_from_several_threads() {
        let tracer = Tracer::new(16);
        let root = tracer.open();
        std::thread::scope(|sc| {
            for _ in 0..2 {
                sc.spawn(|| {
                    let id = tracer.open();
                    let t = tracer.now_ns();
                    tracer.close(id, "tile", "encoder", root, 7, 0, t, t + 5);
                });
            }
        });
        tracer.close(root, "slot", "runtime", ROOT, 7, 0, 0, tracer.now_ns());
        let spans = tracer.drain();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans.iter().filter(|s| s.parent == root).count(), 2);
        let trace = chrome_trace(&spans, "unit");
        let parsed = crate::json::parse(&trace).unwrap();
        let events = crate::json::as_array(crate::json::get(&parsed, "traceEvents").unwrap());
        assert_eq!(events.unwrap().len(), 4);
    }
}

//! Trace capture.
//!
//! [`TraceSink`] is the capture-side buffer for the simulated file systems:
//! the service owns it outright and records one [`IoEvent`] per call into a
//! per-node append buffer — no lock, no shared handle. Each record is stamped
//! with a global sequence number, and [`TraceSink::finish`] merges the
//! per-node buffers back into exact capture order, so the frozen trace is
//! byte-identical to what the old single-buffer capture produced.
//!
//! [`Tracer`] is the legacy shared handle, kept for genuinely multi-threaded
//! capture (the `std::fs` instrumentation shim): it is cheap to clone and
//! every clone feeds one locked buffer.
//!
//! [`Trace`] is the frozen, analysis-side product: an ordered event list plus
//! metadata. All reductions, tables, and figures are computed from a `Trace`.

use crate::event::{IoEvent, IoOp, Ns};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Metadata describing a captured trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// Human-readable label ("escat", "render", "htf-pscf", ...).
    pub label: String,
    /// Number of nodes that participated in the run.
    pub nodes: u32,
    /// Wall-clock (simulated) end time of the run, nanoseconds.
    pub wall_ns: Ns,
}

/// A frozen, analyzable trace: events in capture order plus metadata.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    meta: TraceMeta,
    events: Vec<IoEvent>,
}

impl Trace {
    /// Build a trace directly from parts (used by decoders and tests).
    pub fn from_parts(meta: TraceMeta, events: Vec<IoEvent>) -> Trace {
        Trace { meta, events }
    }

    /// Trace metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// All events, in capture order.
    pub fn events(&self) -> &[IoEvent] {
        &self.events
    }

    /// Number of captured events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events of one operation kind.
    pub fn of_op(&self, op: IoOp) -> impl Iterator<Item = &IoEvent> {
        self.events.iter().filter(move |e| e.op == op)
    }

    /// Total bytes moved by data operations (reads + writes).
    pub fn data_volume(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| e.op.is_data())
            .map(|e| e.bytes)
            .sum()
    }

    /// Sum of event durations across all nodes ("node time" in the paper's
    /// tables: concurrent operations on different nodes both count in full).
    pub fn node_time(&self) -> Ns {
        self.events.iter().map(|e| e.duration()).sum()
    }

    /// Merge several traces (e.g. the three HTF programs) into one, keeping
    /// event order by start time. The label of the merged trace is given by
    /// the caller; `nodes` is the max of the parts and `wall_ns` the sum
    /// (the HTF programs run as a sequential pipeline).
    pub fn concat_pipeline(label: &str, parts: &[&Trace]) -> Trace {
        let mut events = Vec::with_capacity(parts.iter().map(|t| t.len()).sum());
        let mut shift: Ns = 0;
        let mut nodes = 0;
        for part in parts {
            for ev in part.events() {
                let mut ev = *ev;
                ev.start += shift;
                ev.end += shift;
                events.push(ev);
            }
            shift += part.meta.wall_ns;
            nodes = nodes.max(part.meta.nodes);
        }
        Trace {
            meta: TraceMeta {
                label: label.to_string(),
                nodes,
                wall_ns: shift,
            },
            events,
        }
    }

    /// Validate every event.
    pub fn validate(&self) -> crate::Result<()> {
        for ev in &self.events {
            ev.validate()?;
        }
        Ok(())
    }
}

/// Owned, lock-free capture buffer for single-threaded (simulated) runs.
///
/// Events append to a per-node lane; a global sequence number preserves the
/// exact interleaving across lanes. The hot path is one `Vec::push` — no
/// lock, no refcount — and the drain path moves the buffers out instead of
/// cloning them.
#[derive(Debug, Default)]
pub struct TraceSink {
    meta: TraceMeta,
    /// Per-node append buffers of (global capture seq, event).
    lanes: Vec<Vec<(u64, IoEvent)>>,
    next_seq: u64,
}

impl TraceSink {
    /// New, empty sink.
    pub fn new(label: &str) -> TraceSink {
        TraceSink {
            meta: TraceMeta {
                label: label.to_string(),
                ..TraceMeta::default()
            },
            ..TraceSink::default()
        }
    }

    /// Record one event into its node's lane.
    pub fn record(&mut self, event: IoEvent) {
        let lane = event.node as usize;
        if lane >= self.lanes.len() {
            self.lanes.resize_with(lane + 1, Vec::new);
        }
        self.lanes[lane].push((self.next_seq, event));
        self.next_seq += 1;
    }

    /// Number of events captured so far.
    pub fn len(&self) -> usize {
        self.next_seq as usize
    }

    /// Whether nothing has been captured yet.
    pub fn is_empty(&self) -> bool {
        self.next_seq == 0
    }

    /// Approximate in-memory size of the captured events, in bytes.
    pub fn buffered_bytes(&self) -> u64 {
        self.next_seq * std::mem::size_of::<(u64, IoEvent)>() as u64
    }

    /// Set run-level metadata (node count, wall time).
    pub fn set_run_info(&mut self, nodes: u32, wall_ns: Ns) {
        self.meta.nodes = nodes;
        self.meta.wall_ns = wall_ns;
    }

    /// Freeze into an analyzable [`Trace`], merging the per-node lanes back
    /// into capture order. Every sequence number in `0..next_seq` was issued
    /// exactly once, so the merge is a linear scatter by sequence number —
    /// deterministic regardless of how events spread across lanes.
    pub fn finish(self) -> Trace {
        let total = self.next_seq as usize;
        let mut slots: Vec<Option<IoEvent>> = vec![None; total];
        for lane in self.lanes {
            for (seq, ev) in lane {
                debug_assert!(slots[seq as usize].is_none(), "duplicate capture seq");
                slots[seq as usize] = Some(ev);
            }
        }
        let events = slots
            .into_iter()
            .map(|s| s.expect("capture seq gap"))
            .collect();
        Trace {
            meta: self.meta,
            events,
        }
    }
}

#[derive(Debug, Default)]
struct TraceInner {
    meta: TraceMeta,
    events: Vec<IoEvent>,
}

/// Capture-side handle. Cheap to clone; all clones feed one trace.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<Mutex<TraceInner>>,
}

impl Tracer {
    /// New, empty tracer.
    pub fn new(label: &str) -> Tracer {
        Tracer {
            inner: Arc::new(Mutex::new(TraceInner {
                meta: TraceMeta {
                    label: label.to_string(),
                    ..TraceMeta::default()
                },
                events: Vec::new(),
            })),
        }
    }

    /// Record one event.
    pub fn record(&self, event: IoEvent) {
        self.inner.lock().events.push(event);
    }

    /// Number of events captured so far.
    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    /// Whether nothing has been captured yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Set run-level metadata (node count, wall time).
    pub fn set_run_info(&self, nodes: u32, wall_ns: Ns) {
        let mut inner = self.inner.lock();
        inner.meta.nodes = nodes;
        inner.meta.wall_ns = wall_ns;
    }

    /// Freeze into an analyzable [`Trace`]. Other clones of this tracer keep
    /// working but feed a now-empty buffer; `finish` is intended to be called
    /// once, after the run completes.
    pub fn finish(self) -> Trace {
        let mut inner = self.inner.lock();
        Trace {
            meta: std::mem::take(&mut inner.meta),
            events: std::mem::take(&mut inner.events),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::IoOp;

    fn ev(op: IoOp, start: Ns, end: Ns, bytes: u64) -> IoEvent {
        IoEvent::new(1, 2, op).span(start, end).extent(0, bytes)
    }

    #[test]
    fn capture_and_freeze() {
        let t = Tracer::new("t");
        t.record(ev(IoOp::Read, 0, 10, 100));
        t.record(ev(IoOp::Write, 10, 30, 50));
        t.set_run_info(4, 30);
        let trace = t.finish();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.meta().nodes, 4);
        assert_eq!(trace.data_volume(), 150);
        assert_eq!(trace.node_time(), 30);
    }

    #[test]
    fn sink_preserves_capture_order_across_lanes() {
        // Interleave records from several nodes; the frozen trace must come
        // back in exact capture order, not lane order.
        let mut s = TraceSink::new("s");
        let mut expect = Vec::new();
        for i in 0..20u64 {
            let node = (i * 7 % 5) as u32;
            let e = IoEvent::new(node, 1, IoOp::Read)
                .span(i, i + 1)
                .extent(0, i);
            s.record(e);
            expect.push(e);
        }
        s.set_run_info(5, 21);
        assert_eq!(s.len(), 20);
        assert!(s.buffered_bytes() > 0);
        let trace = s.finish();
        assert_eq!(trace.meta().nodes, 5);
        assert_eq!(trace.events(), expect.as_slice());
    }

    #[test]
    fn sink_matches_tracer_output() {
        // The sink is a drop-in replacement for the locked tracer: same
        // records in, identical frozen trace out.
        let events: Vec<IoEvent> = (0..10)
            .map(|i| {
                IoEvent::new(i % 3, 2, IoOp::Write)
                    .span(i as Ns, i as Ns + 5)
                    .extent(i as u64 * 8, 8)
            })
            .collect();
        let t = Tracer::new("same");
        let mut s = TraceSink::new("same");
        for e in &events {
            t.record(*e);
            s.record(*e);
        }
        t.set_run_info(3, 15);
        s.set_run_info(3, 15);
        assert_eq!(t.finish(), s.finish());
    }

    #[test]
    fn sink_empty() {
        let s = TraceSink::new("e");
        assert!(s.is_empty());
        assert!(s.finish().is_empty());
    }

    #[test]
    fn clones_share_buffer() {
        let t = Tracer::new("t");
        let t2 = t.clone();
        t.record(ev(IoOp::Read, 0, 1, 1));
        t2.record(ev(IoOp::Write, 1, 2, 1));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn of_op_filters() {
        let t = Tracer::new("t");
        t.record(ev(IoOp::Read, 0, 1, 1));
        t.record(ev(IoOp::Write, 1, 2, 1));
        t.record(ev(IoOp::Read, 2, 3, 1));
        let trace = t.finish();
        assert_eq!(trace.of_op(IoOp::Read).count(), 2);
        assert_eq!(trace.of_op(IoOp::Seek).count(), 0);
    }

    #[test]
    fn pipeline_concat_shifts_times() {
        let a = Trace::from_parts(
            TraceMeta {
                label: "a".into(),
                nodes: 2,
                wall_ns: 100,
            },
            vec![ev(IoOp::Read, 0, 10, 5)],
        );
        let b = Trace::from_parts(
            TraceMeta {
                label: "b".into(),
                nodes: 8,
                wall_ns: 50,
            },
            vec![ev(IoOp::Write, 5, 9, 7)],
        );
        let merged = Trace::concat_pipeline("ab", &[&a, &b]);
        assert_eq!(merged.meta().label, "ab");
        assert_eq!(merged.meta().nodes, 8);
        assert_eq!(merged.meta().wall_ns, 150);
        assert_eq!(merged.events()[1].start, 105);
        assert_eq!(merged.events()[1].end, 109);
    }

    #[test]
    fn empty_trace_queries() {
        let trace = Tracer::new("e").finish();
        assert!(trace.is_empty());
        assert_eq!(trace.node_time(), 0);
    }
}

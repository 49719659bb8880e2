//! Trace capture.
//!
//! [`TraceSink`] is the one capture buffer: recording an [`IoEvent`] appends
//! it to a single `Vec`, so record order is capture order. The simulated
//! file systems own a sink outright, with no lock and no shared handle.
//!
//! [`Tracer`] is a shared handle over a `TraceSink`, for capture from several
//! threads (the `std::fs` instrumentation shim): it is cheap to clone and
//! every clone records into the same locked sink.
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

/// Owned, lock-free capture buffer: one append-only `Vec` of events.
#[derive(Debug, Default)]
pub struct TraceSink {
    meta: TraceMeta,
    events: Vec<IoEvent>,
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

    /// Record one event.
    pub fn record(&mut self, event: IoEvent) {
        self.events.push(event);
    }

    /// Number of events captured so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been captured yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Approximate in-memory size of the captured events, in bytes.
    pub fn buffered_bytes(&self) -> u64 {
        (self.events.len() * std::mem::size_of::<IoEvent>()) as u64
    }

    /// Set run-level metadata (node count, wall time).
    pub fn set_run_info(&mut self, nodes: u32, wall_ns: Ns) {
        self.meta.nodes = nodes;
        self.meta.wall_ns = wall_ns;
    }

    /// Freeze into an analyzable [`Trace`], moving the buffer out.
    pub fn finish(mut self) -> Trace {
        // Drop the doubling slack: the frozen trace outlives the run, and
        // the spare capacity (up to half the buffer) is live memory that
        // would otherwise add to peak RSS.
        self.events.shrink_to_fit();
        Trace {
            meta: self.meta,
            events: self.events,
        }
    }
}

/// Shared capture handle over one [`TraceSink`]. Cheap to clone; all clones
/// record into the same sink.
#[derive(Debug, Clone)]
pub struct Tracer {
    sink: Arc<Mutex<TraceSink>>,
}

impl Tracer {
    /// New, empty tracer.
    pub fn new(label: &str) -> Tracer {
        Tracer {
            sink: Arc::new(Mutex::new(TraceSink::new(label))),
        }
    }

    /// Record one event.
    pub fn record(&self, event: IoEvent) {
        self.sink.lock().record(event);
    }

    /// Number of events captured so far.
    pub fn len(&self) -> usize {
        self.sink.lock().len()
    }

    /// Whether nothing has been captured yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Set run-level metadata (node count, wall time).
    pub fn set_run_info(&self, nodes: u32, wall_ns: Ns) {
        self.sink.lock().set_run_info(nodes, wall_ns);
    }

    /// Freeze into an analyzable [`Trace`]. Other clones of this tracer keep
    /// working but feed a now-empty sink; `finish` is intended to be called
    /// once, after the run completes.
    pub fn finish(self) -> Trace {
        std::mem::take(&mut *self.sink.lock()).finish()
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
    fn sink_preserves_record_order() {
        // Interleave records from several nodes; the frozen trace must come
        // back in exact record order, not grouped by node.
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
        assert_eq!(
            s.buffered_bytes(),
            20 * std::mem::size_of::<IoEvent>() as u64
        );
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
    fn tracer_clones_capture_across_threads() {
        // Four threads record through their own clones; the frozen trace
        // holds every event, and each thread's events keep their order.
        let t = Tracer::new("mt");
        let handles: Vec<_> = (0..4u32)
            .map(|node| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        t.record(
                            IoEvent::new(node, 1, IoOp::Write)
                                .span(i, i + 1)
                                .extent(i, 1),
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let trace = t.finish();
        assert_eq!(trace.len(), 400);
        for node in 0..4u32 {
            let offsets: Vec<u64> = trace
                .events()
                .iter()
                .filter(|e| e.node == node)
                .map(|e| e.offset)
                .collect();
            assert_eq!(offsets, (0..100).collect::<Vec<u64>>());
        }
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

//! Application-visible interval tracing and completion plumbing.

use paragon_sim::engine::Sched;
use paragon_sim::program::{IoFault, IoResult, IoToken};
use paragon_sim::{NodeId, SimDuration, SimTime};
use sio_core::event::{IoEvent, IoOp};
use sio_core::trace::{Trace, TraceSink};

use crate::request::Member;

/// Records every application-visible interval into a Pablo-style
/// [`TraceSink`] and owns the record + acknowledge boilerplate every verb
/// handler otherwise repeats: span the interval, attach an extent when the
/// verb has one, and complete the engine token with the service time.
#[derive(Debug)]
pub struct TraceRecorder {
    sink: TraceSink,
}

impl TraceRecorder {
    /// Wrap a sink.
    pub fn new(sink: TraceSink) -> TraceRecorder {
        TraceRecorder { sink }
    }

    /// Record one raw event.
    pub fn record(&mut self, ev: IoEvent) {
        self.sink.record(ev);
    }

    /// Direct sink access (run-info stamping, backend-specific events).
    pub fn sink_mut(&mut self) -> &mut TraceSink {
        &mut self.sink
    }

    /// Finalize into the merged trace.
    pub fn finish(self) -> Trace {
        self.sink.finish()
    }

    /// Record a blocked interval from the engine's `on_iowait` hook.
    pub fn iowait(&mut self, node: NodeId, file: u32, wait_start: SimTime, wait_end: SimTime) {
        self.record(
            IoEvent::new(node, file, IoOp::IoWait).span(wait_start.nanos(), wait_end.nanos()),
        );
    }

    /// Record a completed operation spanning `start..done` (plus an optional
    /// `(offset, length)` extent) and acknowledge its token with `bytes` and
    /// a fault-free result. This is the shared shape of every metadata verb
    /// (`Open`/`Close`/`Seek`/`Flush`/`Lsize`) in every backend.
    #[allow(clippy::too_many_arguments)]
    pub fn complete_op(
        &mut self,
        sched: &mut Sched,
        token: IoToken,
        node: NodeId,
        file: u32,
        op: IoOp,
        start: SimTime,
        done: SimTime,
        extent: Option<(u64, u64)>,
        bytes: u64,
    ) {
        let mut ev = IoEvent::new(node, file, op).span(start.nanos(), done.nanos());
        if let Some((offset, len)) = extent {
            ev = ev.extent(offset, len);
        }
        self.record(ev);
        sched.complete_io(
            token,
            done,
            IoResult {
                bytes,
                queued: SimDuration::ZERO,
                service: done.since(start),
                fault: None,
            },
        );
    }

    /// Complete one application data op at `done` with `bytes` and
    /// `fault`: trace its blocking interval `issued..done` at
    /// `(offset, bytes)` — unless it is asynchronous, whose issue was traced
    /// at submit and whose wait the engine's `on_iowait` hook traces — then
    /// acknowledge its token.
    #[allow(clippy::too_many_arguments)]
    pub fn complete_data(
        &mut self,
        sched: &mut Sched,
        file: u32,
        write: bool,
        m: &Member,
        done: SimTime,
        bytes: u64,
        fault: Option<IoFault>,
    ) {
        if !m.is_async {
            let op = if write { IoOp::Write } else { IoOp::Read };
            self.record(
                IoEvent::new(m.node, file, op)
                    .span(m.issued.nanos(), done.nanos())
                    .extent(m.offset, bytes),
            );
        }
        sched.complete_io(
            m.token,
            done,
            IoResult {
                bytes,
                queued: SimDuration::ZERO,
                service: done.since(m.issued),
                fault,
            },
        );
    }

    /// Record and acknowledge a *failed* operation: the interval spans the
    /// whole attempt (issue through the final exhausted retry) and the
    /// token completes with zero bytes and the typed `fault`. This is how a
    /// metadata RPC that rode out a full outage surfaces
    /// [`IoFault::Unavailable`] instead of hanging.
    #[allow(clippy::too_many_arguments)]
    pub fn fail_op(
        &mut self,
        sched: &mut Sched,
        token: IoToken,
        node: NodeId,
        file: u32,
        op: IoOp,
        start: SimTime,
        done: SimTime,
        fault: IoFault,
    ) {
        self.record(IoEvent::new(node, file, op).span(start.nanos(), done.nanos()));
        sched.complete_io(
            token,
            done,
            IoResult {
                bytes: 0,
                queued: SimDuration::ZERO,
                service: done.since(start),
                fault: Some(fault),
            },
        );
    }

    /// Record and acknowledge a drained `Sync` commit: the flush cost is
    /// paid after the file drains at `now`, the traced interval spans the
    /// full `issued..done` commit latency, and `fault` reports durability
    /// loss (a commit that "succeeded" against a redundancy-exhausted array
    /// must not claim durability).
    #[allow(clippy::too_many_arguments)]
    pub fn complete_commit(
        &mut self,
        sched: &mut Sched,
        token: IoToken,
        node: NodeId,
        file: u32,
        issued: SimTime,
        now: SimTime,
        flush_cost: SimDuration,
        fault: Option<IoFault>,
    ) {
        let done = now + flush_cost;
        self.record(IoEvent::new(node, file, IoOp::Flush).span(issued.nanos(), done.nanos()));
        sched.complete_io(
            token,
            done,
            IoResult {
                bytes: 0,
                queued: SimDuration::ZERO,
                service: done.since(issued),
                fault,
            },
        );
    }
}

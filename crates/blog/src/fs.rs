//! The discrete-event burst-log tier: [`Blog`] wraps any [`DrainBackend`]
//! and absorbs independent-pointer writes into a per-compute-node append
//! log simulated at [`LogDeviceParams`] speed, acknowledging them as soon
//! as the frame is on local durable media. A per-node drainer coalesces
//! contiguous records into large extents and pushes them into the wrapped
//! backend through its ordinary fault-tolerant write path
//! ([`DrainBackend::submit_drain`]), overlapping application compute.
//!
//! ## Contracts preserved for the wrapped backend
//!
//! * **Trace shape.** Absorbed blocking writes trace one `Write` event
//!   spanning submit → log-commit with their exact extent; absorbed async
//!   writes trace the issue interval (`AsyncRead`, the direct backends'
//!   convention). Metadata verbs (`Open`/`Close`/`Seek`/`Flush`/`Lsize`)
//!   forward verbatim and are traced exactly once by the inner backend.
//!   Drain traffic is deliberately invisible in the application trace — it
//!   shows up only in the inner pump's per-I/O-node accounting.
//! * **Sync durability.** `Sync` acknowledges once every acknowledged
//!   write of the file is on durable media (log or array): it waits out
//!   appends parked on a full log, then completes at the local flush cost,
//!   tracing exactly one `Flush` with nonzero duration. A drain fault or
//!   inner data loss surfaces as a typed [`IoFault`] on the next `Sync` —
//!   a commit must not claim durability the tier cannot deliver.
//! * **Read-your-writes.** Reads and `Lsize` on a file with undrained
//!   records park until the drainer catches up, then forward with a
//!   resolved offset, so the inner backend always serves fully-drained
//!   data.
//!
//! Shared-pointer and fixed-record modes (`M_LOG`/`M_SYNC`/`M_GLOBAL`/
//! `M_RECORD`) bypass the log entirely: their offset resolution is
//! coordination state owned by the inner backend, and splitting it across
//! tiers would change semantics. Writes larger than the whole log also
//! bypass it (a burst buffer smaller than one write is a misconfiguration,
//! not a deadlock).

use paragon_sim::calibration::{log_device_params, LogDeviceParams};
use paragon_sim::engine::{IoService, Sched};
use paragon_sim::program::{IoFault, IoRequest, IoResult, IoToken, IoVerb};
use paragon_sim::time::transfer_time;
use paragon_sim::{NodeId, SimDuration, SimTime};
use sio_core::event::{IoEvent, IoOp};
use sio_core::hash::FastMap;
use sio_core::trace::TraceSink;
use sio_fskit::mode::AccessMode;
use std::collections::VecDeque;

/// First token value the drainer uses for its synthetic inner-backend
/// writes. Engine tokens count up from 1; the tiers meet only if a run
/// issues 2^62 operations.
pub const DRAIN_TOKEN_BASE: IoToken = 1 << 62;

/// Tag bit marking a timer id as belonging to the blog tier (inner-backend
/// timer ids are small counters and forward verbatim).
const BLOG_TIMER_BIT: u64 = 1 << 62;

/// A backend that can accept coalesced drain extents from the log tier.
///
/// `submit_drain` must eventually complete `token` through the given
/// [`Sched`] exactly like a write submitted by a node — including typed
/// faults, retries, failover, and crash replay — but without tracing an
/// application-visible event (drain traffic is host-side background I/O).
pub trait DrainBackend: IoService {
    /// Submit one coalesced extent (`offset..offset+bytes` of `file`) as a
    /// background write on behalf of `node`.
    #[allow(clippy::too_many_arguments)]
    fn submit_drain(
        &mut self,
        node: NodeId,
        now: SimTime,
        file: u32,
        offset: u64,
        bytes: u64,
        token: IoToken,
        sched: &mut Sched,
    );

    /// The trace sink application-visible events are recorded into (the
    /// log tier traces its absorbed writes here so the run yields one
    /// merged trace).
    fn drain_sink(&mut self) -> &mut TraceSink;

    /// Whether any write the backend accepted was lost to exhausted
    /// redundancy (surfaced as `DataLoss` on the next `Sync`).
    fn any_data_lost(&self) -> bool;
}

/// Tunables of the log tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlogParams {
    /// Per-node log capacity in bytes (payload + framing). Appends that
    /// would overflow park until the drainer frees space.
    pub log_bytes: u64,
    /// Drain read-back bandwidth from the log device, bytes/second (the
    /// knob the X7 sweep turns).
    pub drain_rate: f64,
    /// Largest coalesced extent one drain transfer carries.
    pub drain_chunk: u64,
    /// Append-side device timing.
    pub device: LogDeviceParams,
}

impl BlogParams {
    /// Parameters from the repro-CLI units: log capacity in MB, drain
    /// bandwidth in MB/s.
    pub fn new(log_mb: u64, drain_mbps: f64) -> BlogParams {
        BlogParams {
            log_bytes: log_mb << 20,
            drain_rate: drain_mbps * 1.0e6,
            drain_chunk: 1 << 20,
            device: log_device_params(),
        }
    }
}

impl Default for BlogParams {
    fn default() -> Self {
        BlogParams::new(64, 8.0)
    }
}

/// Drain-health counters harvested after a run (crashed runs freeze them
/// at the kill instant — `pending_bytes` is the crash exposure the
/// recovery replay must re-drain).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlogStats {
    /// Payload bytes acknowledged into the log.
    pub appended_bytes: u64,
    /// Payload bytes whose drain transfer completed cleanly.
    pub drained_bytes: u64,
    /// Framed bytes still occupying the logs (undrained) at harvest.
    pub pending_bytes: u64,
    /// Records appended.
    pub records: u64,
    /// Drain transfers completed.
    pub drain_ops: u64,
    /// Highest framed occupancy any node's log reached.
    pub occupancy_peak: u64,
    /// Total time appends spent parked on a full log, nanoseconds.
    pub stall_ns: u64,
}

/// One appended, not-yet-drained record.
#[derive(Debug, Clone, Copy)]
struct Rec {
    file: u32,
    offset: u64,
    bytes: u64,
}

/// An append parked on a full log.
#[derive(Debug, Clone, Copy)]
struct Parked {
    token: IoToken,
    node: NodeId,
    file: u32,
    offset: u64,
    bytes: u64,
    issued: SimTime,
    is_async: bool,
}

/// A read/lsize parked until its file drains.
#[derive(Debug, Clone, Copy)]
struct Waiter {
    token: IoToken,
    node: NodeId,
    req: IoRequest,
    is_async: bool,
}

/// A `Sync` parked until the file's parked appends reach the log.
#[derive(Debug, Clone, Copy)]
struct SyncParked {
    token: IoToken,
    node: NodeId,
    file: u32,
    issued: SimTime,
}

/// Per-node log-device state.
#[derive(Debug, Default)]
struct NodeLog {
    /// Append head busy until this instant.
    busy_until: SimTime,
    /// Framed bytes currently in the log.
    occupied: u64,
    /// High-water mark of `occupied`.
    hwm: u64,
    /// Appended records awaiting drain, in append order.
    queue: VecDeque<Rec>,
    /// Appends parked on a full log, in arrival order.
    parked: VecDeque<Parked>,
    /// In-flight drain transfer, if any (one per node).
    draining: Option<IoToken>,
    /// Drain read head busy until this instant (paces `drain_rate`).
    drain_ready: SimTime,
    /// Accumulated full-log stall time, ns.
    stall_ns: u64,
}

/// Per-file absorption state.
#[derive(Debug, Default)]
struct FileState {
    /// Whether writes to this file go through the log.
    absorb: bool,
    /// Records appended but not yet drained (any node).
    pending_records: u64,
    /// Appends parked on a full log (any node).
    parked_appends: u64,
    /// Completion instant of the file's latest append.
    last_append_done: SimTime,
}

/// Blog-private timer payloads.
#[derive(Debug)]
enum TimerEvent {
    /// An inner drain completion, re-armed to fire at its completion time.
    InnerDone(IoToken, IoResult),
    /// The drain read-back finished; hand the extent to the inner backend.
    DrainSubmit(NodeId),
    /// Try to start the next drain on this node.
    Kick(NodeId),
}

/// An in-flight drain transfer.
#[derive(Debug, Clone, Copy)]
struct Drain {
    node: NodeId,
    file: u32,
    offset: u64,
    bytes: u64,
    records: u64,
    framed: u64,
}

/// The burst-log tier in front of an inner backend.
#[derive(Debug)]
pub struct Blog<I> {
    inner: I,
    params: BlogParams,
    files: FastMap<u32, FileState>,
    nodes: FastMap<NodeId, NodeLog>,
    /// Per-(node, file) pointer for absorbed independent-pointer files.
    pos: FastMap<(NodeId, u32), u64>,
    timers: FastMap<u64, TimerEvent>,
    drains: FastMap<IoToken, Drain>,
    /// The one scheduling buffer handed to the inner backend; drained in
    /// place by `forward_with`.
    inner_sched: Sched,
    read_waiters: Vec<Waiter>,
    sync_waiters: Vec<SyncParked>,
    /// First drain fault not yet surfaced through a `Sync`.
    sticky_fault: Option<IoFault>,
    next_timer: u64,
    next_drain_token: u64,
    appended_bytes: u64,
    drained_bytes: u64,
    records: u64,
    drain_ops: u64,
}

impl<I: DrainBackend> Blog<I> {
    /// Wrap `inner` with a log tier.
    pub fn new(inner: I, params: BlogParams) -> Blog<I> {
        Blog {
            inner,
            params,
            files: FastMap::default(),
            nodes: FastMap::default(),
            pos: FastMap::default(),
            timers: FastMap::default(),
            drains: FastMap::default(),
            inner_sched: Sched::new(),
            read_waiters: Vec::new(),
            sync_waiters: Vec::new(),
            sticky_fault: None,
            next_timer: 0,
            next_drain_token: 0,
            appended_bytes: 0,
            drained_bytes: 0,
            records: 0,
            drain_ops: 0,
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// The wrapped backend, mutably.
    pub fn inner_mut(&mut self) -> &mut I {
        &mut self.inner
    }

    /// Unwrap into the inner backend (trace finalization).
    pub fn into_inner(self) -> I {
        self.inner
    }

    /// Drain-health counters as of now.
    pub fn stats(&self) -> BlogStats {
        BlogStats {
            appended_bytes: self.appended_bytes,
            drained_bytes: self.drained_bytes,
            pending_bytes: self.nodes.values().map(|n| n.occupied).sum(),
            records: self.records,
            drain_ops: self.drain_ops,
            occupancy_peak: self.nodes.values().map(|n| n.hwm).max().unwrap_or(0),
            stall_ns: self.nodes.values().map(|n| n.stall_ns).sum(),
        }
    }

    /// Allocate a blog-private timer id carrying `ev`.
    fn arm(&mut self, ev: TimerEvent) -> u64 {
        self.next_timer += 1;
        let id = BLOG_TIMER_BIT | self.next_timer;
        self.timers.insert(id, ev);
        id
    }

    /// Make one `call` on the inner backend and forward everything it
    /// scheduled, intercepting drain completions: they carry synthetic
    /// tokens the engine never issued, so they are re-armed as blog timers
    /// at their completion instant instead of reaching the engine.
    fn forward_with(&mut self, sched: &mut Sched, call: impl FnOnce(&mut I, &mut Sched)) {
        let mut inner_sched = std::mem::take(&mut self.inner_sched);
        call(&mut self.inner, &mut inner_sched);
        for (tok, at, res) in inner_sched.take_completions() {
            if tok >= DRAIN_TOKEN_BASE {
                let id = self.arm(TimerEvent::InnerDone(tok, res));
                sched.timer(at, id);
            } else {
                sched.complete_io(tok, at, res);
            }
        }
        for (at, t) in inner_sched.take_timers() {
            sched.timer(at, t);
        }
        self.inner_sched = inner_sched;
    }

    /// Submit a request to the inner backend and filter its schedule.
    fn forward(
        &mut self,
        node: NodeId,
        now: SimTime,
        req: IoRequest,
        token: IoToken,
        is_async: bool,
        sched: &mut Sched,
    ) {
        self.forward_with(sched, |inner, s| {
            inner.submit(node, now, req, token, is_async, s)
        });
    }

    /// Whether `file` has absorbed writes not yet drained into the inner
    /// backend (in the log, in flight, or parked).
    fn file_pending(&self, file: u32) -> bool {
        self.files
            .get(&file)
            .is_some_and(|f| f.pending_records > 0 || f.parked_appends > 0)
    }

    /// Absorb one write: append to the node's log (or park on overflow).
    #[allow(clippy::too_many_arguments)]
    fn append_write(
        &mut self,
        node: NodeId,
        now: SimTime,
        req: IoRequest,
        token: IoToken,
        is_async: bool,
        sched: &mut Sched,
    ) {
        let file = req.file;
        let pos = self.pos.entry((node, file)).or_insert(0);
        let offset = req.offset.unwrap_or(*pos);
        *pos = offset + req.bytes;
        let framed = req.bytes + self.params.device.frame_bytes;
        if framed > self.params.log_bytes {
            // Oversized for the whole log: bypass straight to the backend
            // (which traces and completes it like any direct write).
            let direct = IoRequest {
                offset: Some(offset),
                ..req
            };
            self.forward(node, now, direct, token, is_async, sched);
            return;
        }
        if is_async {
            // Trace the issue interval, mirroring the direct backends'
            // convention for asynchronous operations.
            let issue_end = now + self.inner.issue_cost(node, &req);
            self.inner.drain_sink().record(
                IoEvent::new(node, file, IoOp::AsyncRead)
                    .span(now.nanos(), issue_end.nanos())
                    .extent(offset, req.bytes),
            );
        }
        let nl = self.nodes.entry(node).or_default();
        if nl.occupied + framed > self.params.log_bytes {
            nl.parked.push_back(Parked {
                token,
                node,
                file,
                offset,
                bytes: req.bytes,
                issued: now,
                is_async,
            });
            self.files.entry(file).or_default().parked_appends += 1;
            return;
        }
        self.do_append(
            node, now, now, file, offset, req.bytes, token, is_async, sched,
        );
    }

    /// Commit one record to the node's log device and acknowledge it.
    #[allow(clippy::too_many_arguments)]
    fn do_append(
        &mut self,
        node: NodeId,
        arrive: SimTime,
        issued: SimTime,
        file: u32,
        offset: u64,
        bytes: u64,
        token: IoToken,
        is_async: bool,
        sched: &mut Sched,
    ) {
        let dev = self.params.device;
        let framed = bytes + dev.frame_bytes;
        let nl = self.nodes.entry(node).or_default();
        let start = arrive.max(nl.busy_until);
        let done = start + dev.append_latency + transfer_time(bytes, dev.append_rate);
        nl.busy_until = done;
        nl.occupied += framed;
        nl.hwm = nl.hwm.max(nl.occupied);
        nl.queue.push_back(Rec {
            file,
            offset,
            bytes,
        });
        let fs = self.files.entry(file).or_default();
        fs.pending_records += 1;
        fs.last_append_done = fs.last_append_done.max(done);
        self.appended_bytes += bytes;
        self.records += 1;
        if !is_async {
            self.inner.drain_sink().record(
                IoEvent::new(node, file, IoOp::Write)
                    .span(issued.nanos(), done.nanos())
                    .extent(offset, bytes),
            );
        }
        sched.complete_io(
            token,
            done,
            IoResult {
                bytes,
                queued: start.since(issued),
                service: done.since(start),
                fault: None,
            },
        );
        let id = self.arm(TimerEvent::Kick(node));
        sched.timer(done, id);
    }

    /// Try to start the next drain transfer on `node`.
    fn kick(&mut self, node: NodeId, now: SimTime, sched: &mut Sched) {
        let chunk = self.params.drain_chunk;
        let frame = self.params.device.frame_bytes;
        let rate = self.params.drain_rate;
        let nl = self.nodes.entry(node).or_default();
        if nl.draining.is_some() || nl.queue.is_empty() {
            return;
        }
        if nl.drain_ready > now {
            let at = nl.drain_ready;
            let id = self.arm(TimerEvent::Kick(node));
            sched.timer(at, id);
            return;
        }
        // Coalesce contiguous same-file records into one extent.
        let first = nl.queue.pop_front().expect("non-empty queue");
        let mut bytes = first.bytes;
        let mut records = 1u64;
        while let Some(next) = nl.queue.front() {
            if next.file == first.file
                && next.offset == first.offset + bytes
                && bytes + next.bytes <= chunk
            {
                bytes += next.bytes;
                records += 1;
                nl.queue.pop_front();
            } else {
                break;
            }
        }
        self.next_drain_token += 1;
        let token = DRAIN_TOKEN_BASE + self.next_drain_token;
        nl.draining = Some(token);
        let read_done = now + transfer_time(bytes, rate);
        nl.drain_ready = read_done;
        self.drains.insert(
            token,
            Drain {
                node,
                file: first.file,
                offset: first.offset,
                bytes,
                records,
                framed: bytes + records * frame,
            },
        );
        let id = self.arm(TimerEvent::DrainSubmit(node));
        sched.timer(read_done, id);
    }

    /// The drain read-back finished: hand the extent to the inner backend.
    fn drain_submit(&mut self, node: NodeId, now: SimTime, sched: &mut Sched) {
        let token = self
            .nodes
            .get(&node)
            .and_then(|n| n.draining)
            .expect("drain submit without in-flight drain");
        let d = *self.drains.get(&token).expect("known drain");
        self.forward_with(sched, |inner, s| {
            inner.submit_drain(node, now, d.file, d.offset, d.bytes, token, s)
        });
    }

    /// A drain transfer completed in the inner backend.
    fn inner_done(&mut self, token: IoToken, result: IoResult, now: SimTime, sched: &mut Sched) {
        let d = self.drains.remove(&token).expect("known drain");
        self.drain_ops += 1;
        if let Some(f) = result.fault {
            self.sticky_fault.get_or_insert(f);
        } else {
            self.drained_bytes += d.bytes;
        }
        let nl = self.nodes.entry(d.node).or_default();
        nl.draining = None;
        nl.occupied = nl.occupied.saturating_sub(d.framed);
        let fs = self.files.entry(d.file).or_default();
        fs.pending_records = fs.pending_records.saturating_sub(d.records);
        // Unpark appends that now fit, oldest first.
        let cap = self.params.log_bytes;
        let frame = self.params.device.frame_bytes;
        let mut unparked = Vec::new();
        {
            let nl = self.nodes.entry(d.node).or_default();
            while let Some(p) = nl.parked.front().copied() {
                if nl.occupied + p.bytes + frame <= cap {
                    nl.parked.pop_front();
                    nl.stall_ns += now.since(p.issued).nanos();
                    // Reserve immediately so the loop sees the new occupancy.
                    nl.occupied += p.bytes + frame;
                    unparked.push(p);
                } else {
                    break;
                }
            }
            // `do_append` re-adds the reservation; give it back first.
            for p in &unparked {
                nl.occupied -= p.bytes + frame;
            }
        }
        for p in unparked {
            self.files.entry(p.file).or_default().parked_appends -= 1;
            self.do_append(
                p.node, now, p.issued, p.file, p.offset, p.bytes, p.token, p.is_async, sched,
            );
        }
        self.release_waiters(now, sched);
        self.kick(d.node, now, sched);
    }

    /// Release reads/lsizes whose file fully drained and syncs whose
    /// parked appends all reached the log.
    fn release_waiters(&mut self, now: SimTime, sched: &mut Sched) {
        let mut i = 0;
        while i < self.read_waiters.len() {
            if !self.file_pending(self.read_waiters[i].req.file) {
                let w = self.read_waiters.swap_remove(i);
                let req = self.resolve_read(w.node, w.req);
                self.forward(w.node, now, req, w.token, w.is_async, sched);
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < self.sync_waiters.len() {
            let file = self.sync_waiters[i].file;
            let parked = self.files.get(&file).map(|f| f.parked_appends).unwrap_or(0);
            if parked == 0 {
                let s = self.sync_waiters.swap_remove(i);
                self.complete_sync(s.token, s.node, s.file, s.issued, now, sched);
            } else {
                i += 1;
            }
        }
    }

    /// Resolve an absorbed-file read/lsize against the blog's pointer.
    fn resolve_read(&mut self, node: NodeId, req: IoRequest) -> IoRequest {
        if req.verb != IoVerb::Read {
            return req;
        }
        let pos = self.pos.entry((node, req.file)).or_insert(0);
        let offset = req.offset.unwrap_or(*pos);
        *pos = offset + req.bytes;
        IoRequest {
            offset: Some(offset),
            ..req
        }
    }

    /// Acknowledge a `Sync`: one `Flush` at local log-flush cost, carrying
    /// any pending durability fault.
    fn complete_sync(
        &mut self,
        token: IoToken,
        node: NodeId,
        file: u32,
        issued: SimTime,
        now: SimTime,
        sched: &mut Sched,
    ) {
        let at = now.max(
            self.files
                .get(&file)
                .map(|f| f.last_append_done)
                .unwrap_or(SimTime::ZERO),
        );
        let done = at + self.params.device.append_latency;
        self.inner
            .drain_sink()
            .record(IoEvent::new(node, file, IoOp::Flush).span(issued.nanos(), done.nanos()));
        let fault = self.sticky_fault.take().or({
            if self.inner.any_data_lost() {
                Some(IoFault::DataLoss)
            } else {
                None
            }
        });
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

impl<I: DrainBackend> IoService for Blog<I> {
    fn submit(
        &mut self,
        node: NodeId,
        now: SimTime,
        req: IoRequest,
        token: IoToken,
        is_async: bool,
        sched: &mut Sched,
    ) {
        let absorb = self.files.get(&req.file).map(|f| f.absorb).unwrap_or(false);
        match req.verb {
            IoVerb::Open => {
                if let Some(mode) = AccessMode::from_code(req.hint) {
                    let fs = self.files.entry(req.file).or_default();
                    fs.absorb = matches!(mode, AccessMode::MUnix | AccessMode::MAsync);
                }
                self.forward(node, now, req, token, is_async, sched);
            }
            IoVerb::Seek if absorb => {
                self.pos.insert((node, req.file), req.offset.unwrap_or(0));
                self.forward(node, now, req, token, is_async, sched);
            }
            IoVerb::Write if absorb => {
                self.append_write(node, now, req, token, is_async, sched);
            }
            IoVerb::Read | IoVerb::Lsize if absorb => {
                if self.file_pending(req.file) {
                    self.read_waiters.push(Waiter {
                        token,
                        node,
                        req,
                        is_async,
                    });
                } else {
                    let req = self.resolve_read(node, req);
                    self.forward(node, now, req, token, is_async, sched);
                }
            }
            IoVerb::Sync if absorb => {
                let parked = self
                    .files
                    .get(&req.file)
                    .map(|f| f.parked_appends)
                    .unwrap_or(0);
                if parked > 0 {
                    self.sync_waiters.push(SyncParked {
                        token,
                        node,
                        file: req.file,
                        issued: now,
                    });
                } else {
                    self.complete_sync(token, node, req.file, now, now, sched);
                }
            }
            _ => self.forward(node, now, req, token, is_async, sched),
        }
    }

    fn on_timer(&mut self, now: SimTime, timer: u64, sched: &mut Sched) {
        if timer & BLOG_TIMER_BIT != 0 {
            match self.timers.remove(&timer).expect("unknown blog timer") {
                TimerEvent::Kick(node) => self.kick(node, now, sched),
                TimerEvent::DrainSubmit(node) => self.drain_submit(node, now, sched),
                TimerEvent::InnerDone(token, result) => self.inner_done(token, result, now, sched),
            }
        } else {
            self.forward_with(sched, |inner, s| inner.on_timer(now, timer, s));
        }
    }

    fn on_start(&mut self, sched: &mut Sched) {
        self.forward_with(sched, |inner, s| inner.on_start(s));
    }

    fn issue_cost(&self, node: NodeId, req: &IoRequest) -> SimDuration {
        self.inner.issue_cost(node, req)
    }

    fn on_iowait(&mut self, node: NodeId, file: u32, wait_start: SimTime, wait_end: SimTime) {
        self.inner.on_iowait(node, file, wait_start, wait_end);
    }

    fn on_run_end(&mut self, now: SimTime) {
        self.inner.on_run_end(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    /// Inner backend double: completes plain submits after 1 ms, drain
    /// transfers after `drain_delay`, and records every drain extent.
    struct Mock {
        sink: TraceSink,
        drain_delay: SimDuration,
        drains: Vec<(NodeId, u32, u64, u64)>,
        submits: Vec<IoRequest>,
        fail_drains: bool,
        lost: bool,
    }

    impl Mock {
        fn new() -> Mock {
            Mock {
                sink: TraceSink::new("mock"),
                drain_delay: SimDuration::from_millis(10),
                drains: Vec::new(),
                submits: Vec::new(),
                fail_drains: false,
                lost: false,
            }
        }
    }

    impl IoService for Mock {
        fn submit(
            &mut self,
            _node: NodeId,
            now: SimTime,
            req: IoRequest,
            token: IoToken,
            _is_async: bool,
            sched: &mut Sched,
        ) {
            self.submits.push(req);
            sched.complete_io(
                token,
                now + SimDuration::from_millis(1),
                IoResult {
                    bytes: req.bytes,
                    ..IoResult::default()
                },
            );
        }

        fn on_timer(&mut self, _now: SimTime, timer: u64, _sched: &mut Sched) {
            panic!("mock has no timers (got {timer})");
        }

        fn issue_cost(&self, _node: NodeId, _req: &IoRequest) -> SimDuration {
            SimDuration::from_micros(100)
        }
    }

    impl DrainBackend for Mock {
        fn submit_drain(
            &mut self,
            node: NodeId,
            now: SimTime,
            file: u32,
            offset: u64,
            bytes: u64,
            token: IoToken,
            sched: &mut Sched,
        ) {
            self.drains.push((node, file, offset, bytes));
            let fault = self.fail_drains.then_some(IoFault::Unavailable);
            sched.complete_io(
                token,
                now + self.drain_delay,
                IoResult {
                    bytes,
                    fault,
                    ..IoResult::default()
                },
            );
        }

        fn drain_sink(&mut self) -> &mut TraceSink {
            &mut self.sink
        }

        fn any_data_lost(&self) -> bool {
            self.lost
        }
    }

    /// Minimal event loop: runs blog timers in time order, collecting
    /// engine-visible completions.
    struct Loop {
        blog: Blog<Mock>,
        heap: BinaryHeap<std::cmp::Reverse<(SimTime, u64, u64)>>,
        seq: u64,
        sched: Sched,
        completions: Vec<(IoToken, SimTime, IoResult)>,
    }

    impl Loop {
        fn new(params: BlogParams) -> Loop {
            Loop {
                blog: Blog::new(Mock::new(), params),
                heap: BinaryHeap::new(),
                seq: 0,
                sched: Sched::new(),
                completions: Vec::new(),
            }
        }

        /// Move what the blog scheduled into the loop, leaving `sched`
        /// empty for the next call.
        fn absorb_sched(&mut self) {
            self.completions.extend(self.sched.take_completions());
            for (at, t) in self.sched.take_timers() {
                self.seq += 1;
                self.heap.push(std::cmp::Reverse((at, self.seq, t)));
            }
        }

        fn submit(&mut self, node: NodeId, now: SimTime, req: IoRequest, token: IoToken) {
            self.blog
                .submit(node, now, req, token, false, &mut self.sched);
            self.absorb_sched();
        }

        fn run(&mut self) {
            while let Some(std::cmp::Reverse((at, _, timer))) = self.heap.pop() {
                self.blog.on_timer(at, timer, &mut self.sched);
                self.absorb_sched();
            }
        }

        fn completion(&self, token: IoToken) -> Option<&(IoToken, SimTime, IoResult)> {
            self.completions.iter().find(|(t, _, _)| *t == token)
        }
    }

    fn open(file: u32, mode: AccessMode) -> IoRequest {
        IoRequest::open(file, mode.code())
    }

    #[test]
    fn absorbed_write_acks_at_log_speed_then_drains() {
        let mut l = Loop::new(BlogParams::new(64, 8.0));
        l.submit(0, SimTime::ZERO, open(1, AccessMode::MUnix), 1);
        l.submit(0, SimTime(1_000_000), IoRequest::write(1, 100_000), 2);
        l.run();
        // Ack = append latency + 100 KB at 30 MB/s ≈ 0.5 ms + 3.3 ms.
        let (_, at, res) = l.completion(2).expect("write acked");
        assert!(res.fault.is_none());
        assert_eq!(res.bytes, 100_000);
        let latency = at.since(SimTime(1_000_000));
        assert!(
            latency < SimDuration::from_millis(5),
            "log ack took {latency:?}"
        );
        // The record drained into the inner backend with its exact extent.
        assert_eq!(l.blog.inner().drains, vec![(0, 1, 0, 100_000)]);
        let s = l.blog.stats();
        assert_eq!(s.appended_bytes, 100_000);
        assert_eq!(s.drained_bytes, 100_000);
        assert_eq!(s.pending_bytes, 0);
        assert!(s.occupancy_peak > 100_000);
    }

    #[test]
    fn drainer_coalesces_contiguous_records() {
        let mut l = Loop::new(BlogParams::new(64, 1000.0));
        l.submit(0, SimTime::ZERO, open(1, AccessMode::MUnix), 1);
        // Three back-to-back 4 KB records at the same instant: the device
        // serializes the appends, so all three are queued before the first
        // drain kick fires.
        for (i, tok) in [(0u64, 2u64), (1, 3), (2, 4)] {
            l.submit(
                0,
                SimTime::ZERO,
                IoRequest {
                    offset: Some(i * 4096),
                    ..IoRequest::write(1, 4096)
                },
                tok,
            );
        }
        l.run();
        // One coalesced 12 KB drain, not three.
        assert_eq!(l.blog.inner().drains, vec![(0, 1, 0, 3 * 4096)]);
        assert_eq!(l.blog.stats().drain_ops, 1);
    }

    #[test]
    fn full_log_parks_appends_and_accounts_stall() {
        // Log fits ~ one 4 KB record (+ framing); second write must wait
        // for the drain to free space.
        let mut params = BlogParams::new(64, 8.0);
        params.log_bytes = 5000;
        let mut l = Loop::new(params);
        l.submit(0, SimTime::ZERO, open(1, AccessMode::MUnix), 1);
        l.submit(0, SimTime::ZERO, IoRequest::write(1, 4096), 2);
        l.submit(0, SimTime::ZERO, IoRequest::write(1, 4096), 3);
        l.run();
        let (_, first_at, _) = *l.completion(2).expect("first acked");
        let (_, second_at, _) = *l.completion(3).expect("second acked");
        assert!(second_at > first_at);
        let s = l.blog.stats();
        assert!(s.stall_ns > 0, "no stall recorded");
        assert_eq!(s.drained_bytes, 2 * 4096);
    }

    #[test]
    fn sync_flushes_fast_and_surfaces_drain_faults() {
        let mut l = Loop::new(BlogParams::new(64, 8.0));
        l.blog.inner_mut().fail_drains = true;
        l.submit(0, SimTime::ZERO, open(1, AccessMode::MUnix), 1);
        l.submit(0, SimTime::ZERO, IoRequest::write(1, 4096), 2);
        l.run();
        // Write itself acked cleanly (it reached the log).
        assert!(l.completion(2).unwrap().2.fault.is_none());
        // Sync after the failed drain carries the typed fault.
        l.submit(0, SimTime(1_000_000_000), IoRequest::sync(1), 3);
        l.run();
        let (_, at, res) = *l.completion(3).expect("sync acked");
        assert_eq!(res.fault, Some(IoFault::Unavailable));
        // The flush interval is short (local log flush) but nonzero.
        let d = at.since(SimTime(1_000_000_000));
        assert!(d.nanos() > 0 && d < SimDuration::from_millis(5));
        // The fault is sticky exactly once.
        l.blog.inner_mut().fail_drains = false;
        l.submit(0, SimTime(2_000_000_000), IoRequest::sync(1), 4);
        l.run();
        assert_eq!(l.completion(4).unwrap().2.fault, None);
    }

    #[test]
    fn reads_park_until_their_file_drains() {
        let mut l = Loop::new(BlogParams::new(64, 8.0));
        l.submit(0, SimTime::ZERO, open(1, AccessMode::MUnix), 1);
        l.submit(0, SimTime::ZERO, IoRequest::write(1, 65536), 2);
        // Read-back from offset 0 while the record is still undrained.
        l.submit(
            0,
            SimTime(1),
            IoRequest {
                offset: Some(0),
                ..IoRequest::read(1, 65536)
            },
            3,
        );
        l.run();
        let (_, read_at, res) = *l.completion(3).expect("read completed");
        assert_eq!(res.bytes, 65536);
        // The read was forwarded only after the drain transfer finished.
        assert!(!l.blog.inner().drains.is_empty());
        let (_, write_at, _) = *l.completion(2).unwrap();
        assert!(read_at > write_at);
        // The forwarded read reached the inner backend with its offset
        // resolved.
        let fwd = l
            .blog
            .inner()
            .submits
            .iter()
            .find(|r| r.verb == IoVerb::Read)
            .expect("read forwarded");
        assert_eq!(fwd.offset, Some(0));
    }

    #[test]
    fn shared_pointer_modes_bypass_the_log() {
        let mut l = Loop::new(BlogParams::new(64, 8.0));
        l.submit(0, SimTime::ZERO, open(1, AccessMode::MRecord), 1);
        l.submit(0, SimTime::ZERO, IoRequest::write(1, 4096), 2);
        l.run();
        // The write went straight to the inner backend, nothing logged.
        assert!(l.blog.inner().drains.is_empty());
        assert!(l
            .blog
            .inner()
            .submits
            .iter()
            .any(|r| r.verb == IoVerb::Write));
        assert_eq!(l.blog.stats().records, 0);
    }

    #[test]
    fn oversized_writes_bypass_the_log() {
        let mut params = BlogParams::new(64, 8.0);
        params.log_bytes = 1000;
        let mut l = Loop::new(params);
        l.submit(0, SimTime::ZERO, open(1, AccessMode::MUnix), 1);
        l.submit(0, SimTime::ZERO, IoRequest::write(1, 50_000), 2);
        l.run();
        assert!(l.completion(2).is_some());
        assert!(l
            .blog
            .inner()
            .submits
            .iter()
            .any(|r| r.verb == IoVerb::Write && r.offset == Some(0)));
        assert_eq!(l.blog.stats().appended_bytes, 0);
    }

    #[test]
    fn inner_data_loss_surfaces_on_sync() {
        let mut l = Loop::new(BlogParams::new(64, 8.0));
        l.blog.inner_mut().lost = true;
        l.submit(0, SimTime::ZERO, open(1, AccessMode::MUnix), 1);
        l.submit(0, SimTime(1), IoRequest::sync(1), 2);
        l.run();
        assert_eq!(l.completion(2).unwrap().2.fault, Some(IoFault::DataLoss));
    }
}

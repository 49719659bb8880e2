//! The PFS model: a [`paragon_sim::IoService`] implementation.
//!
//! `Pfs` interprets every [`IoVerb`] with the semantics of §3.2:
//!
//! * **metadata path** — opens, creates, closes, and `lsize` serialize
//!   through the replicated metadata server; *seeks on shared files*
//!   serialize at the file's metadata owner, which is what makes ESCAT's
//!   128-node synchronized seeks so expensive (Table 1); seeks on
//!   single-opener files are a cheap local pointer update (HTF `pscf`,
//!   Table 5). All of this is [`FsCore`]'s, shared with CIO;
//! * **data path** — the access mode resolves the request's offset
//!   (per-node pointer, shared pointer with token serialization, record
//!   interleaving, or collective coalescing), then the request is staged and
//!   pushed through the shared segment pump under the buddy-failover
//!   policy, and completes when its last segment does plus the client copy
//!   cost;
//! * **tracing** — every application-visible call is recorded; asynchronous
//!   reads record their issue cost, and the engine's `on_iowait` hook
//!   records the un-overlapped wait, exactly the two rows RENDER's Table 3
//!   reports.
//!
//! Everything mode-agnostic lives in the embedded [`FsCore`]; this module
//! is the PFS *policy* over that substrate: access-mode resolution,
//! request completion, and the typed failure of a request whose segments
//! no server will take.

use paragon_sim::engine::{IoService, Sched};
use paragon_sim::fault::FaultSchedule;
use paragon_sim::ionode::SegmentReq;
use paragon_sim::program::{IoFault, IoRequest, IoResult, IoToken, IoVerb};
use paragon_sim::{MachineConfig, NodeId, SimDuration, SimTime};
use sio_core::event::{IoEvent, IoOp};
use sio_core::hash::FastMap;
use sio_core::trace::TraceSink;
use sio_fskit::mode::AccessMode;
use sio_fskit::pump::{FailoverPolicy, NodeTick};
use sio_fskit::recorder::data_op_kind;
use sio_fskit::FsCore;
use std::collections::BTreeMap;

#[derive(Debug)]
struct Pending {
    file: u32,
    write: bool,
    is_async: bool,
    offset: u64,
    bytes: u64,
    issued: SimTime,
    node: NodeId,
    segs_left: u32,
    /// Segment ids issued for this request (cleanup on early failure).
    seg_ids: Vec<u64>,
    /// First fault observed on any segment of this request.
    fault: Option<IoFault>,
    /// Extra completers for M_GLOBAL collectives: (token, node, issued).
    collective: Vec<(IoToken, NodeId, SimTime)>,
}

#[derive(Debug, Clone, Copy)]
struct Deferred {
    token: IoToken,
    node: NodeId,
    file: u32,
    write: bool,
    is_async: bool,
    offset: u64,
    bytes: u64,
    issued: SimTime,
}

#[derive(Debug, Clone, Copy)]
struct ParkedSync {
    token: IoToken,
    write: bool,
    bytes: u64,
    issued: SimTime,
    is_async: bool,
}

/// The Intel PFS model.
pub struct Pfs {
    /// The shared substrate: file table, segment pump (buddy-failover
    /// policy), metadata server, faults, `Sync` ledger, trace.
    pub core: FsCore,
    pending: FastMap<IoToken, Pending>,
    /// Data operations waiting for a serialized token or RPC (timer id →
    /// operation).
    deferred: FastMap<u64, Deferred>,
    /// M_GLOBAL coalescing: file -> waiting participants.
    #[allow(clippy::type_complexity)]
    global_waiting: FastMap<u32, Vec<(IoToken, NodeId, SimTime, bool, u64)>>,
    /// M_SYNC parking: file -> node -> parked request.
    sync_parked: FastMap<u32, BTreeMap<NodeId, ParkedSync>>,
    /// Armed per-request deadline timers (timer id -> request token).
    timeout_timers: FastMap<u64, IoToken>,
}

/// Whether `file` still has in-flight (dispatched or deferred) writes — the
/// data a `Sync` commit must wait out. PFS is write-through, so once these
/// land the bytes are on the arrays.
fn writes_in_flight(
    pending: &FastMap<IoToken, Pending>,
    deferred: &FastMap<u64, Deferred>,
    file: u32,
) -> bool {
    pending.values().any(|p| p.file == file && p.write)
        || deferred.values().any(|d| d.file == file && d.write)
}

impl Pfs {
    /// Build a PFS over the given machine, tracing into `sink` (owned; take
    /// the frozen trace back with [`FsCore::finish_trace`] after the run).
    pub fn new(machine: &MachineConfig, sink: TraceSink) -> Pfs {
        Pfs::with_faults(machine, sink, FaultSchedule::new())
    }

    /// Build a PFS with an injected fault schedule. An empty schedule is
    /// exactly [`Pfs::new`]: the fault machinery arms no timers and the run
    /// is bit-identical to a healthy one.
    pub fn with_faults(machine: &MachineConfig, sink: TraceSink, schedule: FaultSchedule) -> Pfs {
        let failover = FailoverPolicy::Buddy {
            max_retries: machine.fault.max_retries,
        };
        Pfs {
            core: FsCore::new(machine, sink, schedule, failover, 0),
            pending: FastMap::default(),
            deferred: FastMap::default(),
            global_waiting: FastMap::default(),
            sync_parked: FastMap::default(),
            timeout_timers: FastMap::default(),
        }
    }

    /// Accept one coalesced burst-log drain extent as a background write:
    /// the full dispatch path (staging, backoff, buddy failover, fault
    /// typing, timeouts) with no application-visible trace event — the
    /// caller owns `token` and hears the completion through `sched`.
    #[allow(clippy::too_many_arguments)]
    pub fn submit_drain(
        &mut self,
        node: NodeId,
        now: SimTime,
        file: u32,
        offset: u64,
        bytes: u64,
        token: IoToken,
        sched: &mut Sched,
    ) {
        self.dispatch(
            now,
            token,
            node,
            file,
            true,
            offset,
            bytes,
            now,
            true,
            Vec::new(),
            sched,
        );
    }

    /// Dispatch a resolved data operation to the I/O nodes.
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &mut self,
        now: SimTime,
        token: IoToken,
        node: NodeId,
        file: u32,
        write: bool,
        offset: u64,
        bytes: u64,
        issued: SimTime,
        is_async: bool,
        collective: Vec<(IoToken, NodeId, SimTime)>,
        sched: &mut Sched,
    ) {
        let eff_bytes = {
            let st = self.core.files.state(file);
            if write {
                st.extend_to(offset + bytes);
                bytes
            } else {
                bytes.min(st.len.saturating_sub(offset))
            }
        };
        let mut p = Pending {
            file,
            write,
            is_async,
            offset,
            bytes: eff_bytes,
            issued,
            node,
            segs_left: 0,
            seg_ids: Vec::new(),
            fault: None,
            collective,
        };
        if eff_bytes == 0 {
            // Nothing to move: a short software path only.
            let done = now + SimDuration::from_micros(200);
            self.finish(p, token, done, sched);
            return;
        }
        let core = &mut self.core;
        let staged = core.pump.stage_extent(
            &core.cfg.layout,
            core.files.slot_base(file),
            core.cfg.array_capacity,
            offset,
            eff_bytes,
            write,
            token,
        );
        let reqs = match staged {
            Ok((reqs, seg_ids)) => {
                p.segs_left = reqs.len() as u32;
                p.seg_ids = seg_ids;
                reqs
            }
            Err(fault) => {
                // The request overflows its allocator slot: a typed
                // data-path failure on this request, not a crash of the run.
                self.pending.insert(token, p);
                self.core.stats.unavailable += 1;
                self.fail_token(token, fault, now, sched);
                return;
            }
        };
        // The request must be pending before any segment is submitted: a
        // rejection chain (both primary and buddy down) can fail the whole
        // token mid-loop.
        self.pending.insert(token, p);
        for (io, req) in reqs {
            self.submit_or_fail(now, io, req, 0, sched);
        }
        if self.core.faults.enabled() && self.pending.contains_key(&token) {
            // Hard per-request deadline: no request hangs forever under a
            // fault schedule with no recovery.
            let id = self.core.timers.alloc();
            self.timeout_timers.insert(id, token);
            sched.timer(now + self.core.fault_params.request_timeout, id);
        }
    }

    /// Run a data operation once a serialized acquisition completes at `at`.
    fn defer(&mut self, at: SimTime, d: Deferred, sched: &mut Sched) {
        let id = self.core.timers.alloc();
        self.deferred.insert(id, d);
        sched.timer(at, id);
    }

    /// Push one segment through the pump; when both the primary and its
    /// buddy refuse it, fail the owning request as unavailable.
    fn submit_or_fail(
        &mut self,
        now: SimTime,
        io: u32,
        req: SegmentReq,
        attempt: u32,
        sched: &mut Sched,
    ) {
        if let Some(token) =
            self.core
                .pump
                .submit_seg(now, io, req, attempt, &mut self.core.timers, sched)
        {
            self.core.stats.unavailable += 1;
            self.fail_token(token, IoFault::Unavailable, now, sched);
        }
    }

    /// Release the `Sync` waiters on `file` if its last in-flight write
    /// just finished.
    fn drain_syncs(&mut self, file: u32, now: SimTime, sched: &mut Sched) {
        let (pending, deferred) = (&self.pending, &self.deferred);
        self.core.drain_sync_waiters(file, now, sched, || {
            writes_in_flight(pending, deferred, file)
        });
    }

    /// Fail a pending request (and its collective participants) with a typed
    /// fault instead of data.
    fn fail_token(&mut self, token: IoToken, fault: IoFault, now: SimTime, sched: &mut Sched) {
        let Some(p) = self.pending.remove(&token) else {
            return;
        };
        for id in &p.seg_ids {
            self.core.pump.forget(*id);
        }
        let op = data_op_kind(p.write, p.is_async);
        let result = IoResult {
            bytes: 0,
            queued: SimDuration::ZERO,
            service: now.since(p.issued),
            fault: Some(fault),
        };
        let lead = (token, p.node, p.issued);
        for (tok, node, issued) in std::iter::once(lead).chain(p.collective) {
            if !p.is_async {
                self.core.recorder.record(
                    IoEvent::new(node, p.file, op)
                        .span(issued.nanos(), now.nanos())
                        .extent(p.offset, 0),
                );
            }
            sched.complete_io(tok, now, result);
        }
        self.drain_syncs(p.file, now, sched);
    }

    /// Complete a data request: charge the client copy cost, trace, complete
    /// every participating token.
    fn finish(&mut self, p: Pending, token: IoToken, now: SimTime, sched: &mut Sched) {
        let core = &mut self.core;
        let rate = core.cfg.io_sw.client_byte_rate;
        let mut done = core.client.copy_done(p.node, now, p.bytes, rate);
        if !p.collective.is_empty() {
            // M_GLOBAL: one physical I/O, then an internal broadcast to the
            // participant group.
            let n = (p.collective.len() + 1) as u32;
            done +=
                core.cfg
                    .mesh
                    .broadcast_time_via(&core.cfg.comm, core.links.worst(), n, p.bytes);
        }
        let op = data_op_kind(p.write, p.is_async);
        let result = IoResult {
            bytes: p.bytes,
            queued: SimDuration::ZERO,
            service: done.since(p.issued),
            fault: p.fault,
        };
        // Async issue events are traced at submit; sync ops trace here with
        // their full blocking interval.
        let lead = (token, p.node, p.issued);
        for (tok, node, issued) in std::iter::once(lead).chain(p.collective) {
            if !p.is_async {
                core.recorder.record(
                    IoEvent::new(node, p.file, op)
                        .span(issued.nanos(), done.nanos())
                        .extent(p.offset, p.bytes),
                );
            }
            sched.complete_io(tok, done, result);
        }
        self.drain_syncs(p.file, now, sched);
    }

    /// Resolve and dispatch a data operation according to the file's mode.
    #[allow(clippy::too_many_arguments)]
    fn data_op(
        &mut self,
        now: SimTime,
        token: IoToken,
        node: NodeId,
        req: IoRequest,
        write: bool,
        is_async: bool,
        sched: &mut Sched,
    ) {
        let file = req.file;
        let files = &mut self.core.files;
        let mode = files.get(file).mode.unwrap_or_else(|| {
            panic!(
                "data op on closed file {} by node {node}",
                files.get(file).spec.name
            )
        });
        // Trace the async issue itself (the paper's "AsynchRead" row), with
        // the offset the request will resolve to under the file's mode.
        if is_async {
            let resolved = match mode {
                AccessMode::MUnix | AccessMode::MAsync => req
                    .offset
                    .unwrap_or_else(|| files.get(file).pos.get(&node).copied().unwrap_or(0)),
                AccessMode::MLog | AccessMode::MSync | AccessMode::MGlobal => {
                    files.get(file).shared_pos
                }
                AccessMode::MRecord => {
                    let st = files.state(file);
                    let rs = st.record_size.unwrap_or(req.bytes);
                    let n = st.participants().len() as u64;
                    let rank = st.rank_of(node);
                    let k = st.op_count.get(&node).copied().unwrap_or(0);
                    (k * n + rank) * rs
                }
            };
            let issue_end = now + self.core.cfg.io_sw.async_issue;
            self.core.recorder.record(
                IoEvent::new(node, file, IoOp::AsyncRead)
                    .span(now.nanos(), issue_end.nanos())
                    .extent(resolved, req.bytes),
            );
        }
        let deferred = |offset: u64| Deferred {
            token,
            node,
            file,
            write,
            is_async,
            offset,
            bytes: req.bytes,
            issued: now,
        };
        match mode {
            AccessMode::MUnix | AccessMode::MAsync => {
                let st = self.core.files.state(file);
                let shared = st.opener_count() > 1;
                let pos = st.pos.entry(node).or_insert(0);
                let offset = req.offset.unwrap_or(*pos);
                *pos = offset + req.bytes;
                // M_UNIX preserves operation atomicity: concurrent writers
                // to a shared file serialize at the file's metadata owner.
                // M_ASYNC explicitly waives atomicity and skips this.
                if write && shared && mode == AccessMode::MUnix {
                    let rpc = self.core.cfg.io_sw.atomic_write_rpc;
                    let acquire = self.core.owner_rpc(file, now, rpc);
                    self.defer(acquire, deferred(offset), sched);
                } else {
                    self.dispatch(
                        now,
                        token,
                        node,
                        file,
                        write,
                        offset,
                        req.bytes,
                        now,
                        is_async,
                        Vec::new(),
                        sched,
                    );
                }
            }
            AccessMode::MRecord => {
                let st = self.core.files.state(file);
                let rs = *st.record_size.get_or_insert(req.bytes);
                assert_eq!(
                    req.bytes, rs,
                    "M_RECORD requires fixed-size records ({rs} B) on {}",
                    st.spec.name
                );
                let n = st.participants().len() as u64;
                let rank = st.rank_of(node);
                let k = st.op_count.entry(node).or_insert(0);
                let record_index = *k * n + rank;
                *k += 1;
                let offset = record_index * rs;
                self.dispatch(
                    now,
                    token,
                    node,
                    file,
                    write,
                    offset,
                    req.bytes,
                    now,
                    is_async,
                    Vec::new(),
                    sched,
                );
            }
            AccessMode::MLog => {
                // Acquire the shared pointer token (serialized), then run.
                let token_cost = self.core.cfg.io_sw.pointer_token;
                let st = self.core.files.state(file);
                let acquire = st.token_free.max(now) + token_cost;
                st.token_free = acquire;
                let offset = st.shared_pos;
                st.shared_pos += req.bytes;
                if acquire > now {
                    self.defer(acquire, deferred(offset), sched);
                } else {
                    self.dispatch(
                        now,
                        token,
                        node,
                        file,
                        write,
                        offset,
                        req.bytes,
                        now,
                        is_async,
                        Vec::new(),
                        sched,
                    );
                }
            }
            AccessMode::MSync => {
                let parked = self.sync_parked.entry(file).or_default();
                let prev = parked.insert(
                    node,
                    ParkedSync {
                        token,
                        write,
                        bytes: req.bytes,
                        issued: now,
                        is_async,
                    },
                );
                assert!(prev.is_none(), "node {node} issued overlapping M_SYNC ops");
                self.drain_sync(now, file, sched);
            }
            AccessMode::MGlobal => {
                let n = self.core.files.state(file).participants().len();
                let waiting = self.global_waiting.entry(file).or_default();
                waiting.push((token, node, now, is_async, req.bytes));
                if waiting.len() == n {
                    // `waiting` came from this entry two statements ago; if
                    // the map has lost it, the collective state is corrupt —
                    // fail the op as unavailable rather than panic the run.
                    let Some(slot) = self.global_waiting.get_mut(&file) else {
                        debug_assert!(false, "M_GLOBAL wait group vanished for file {file}");
                        self.core.stats.unavailable += 1;
                        sched.complete_io(
                            token,
                            now,
                            IoResult {
                                bytes: 0,
                                queued: SimDuration::ZERO,
                                service: SimDuration::ZERO,
                                fault: Some(IoFault::Unavailable),
                            },
                        );
                        return;
                    };
                    let group = std::mem::take(slot);
                    let bytes = group[0].4;
                    debug_assert!(group.iter().all(|g| g.4 == bytes));
                    let st = self.core.files.state(file);
                    let offset = st.shared_pos;
                    st.shared_pos += bytes;
                    let (lead_tok, lead_node, lead_issued, lead_async, _) = group[0];
                    let collective: Vec<(IoToken, NodeId, SimTime)> = group[1..]
                        .iter()
                        .map(|&(t, nd, iss, _, _)| (t, nd, iss))
                        .collect();
                    self.dispatch(
                        now,
                        lead_tok,
                        lead_node,
                        file,
                        write,
                        offset,
                        bytes,
                        lead_issued,
                        lead_async,
                        collective,
                        sched,
                    );
                }
            }
        }
    }

    /// Run every parked M_SYNC request whose turn has come.
    fn drain_sync(&mut self, now: SimTime, file: u32, sched: &mut Sched) {
        loop {
            let next = {
                let st = self.core.files.state(file);
                let parts = st.participants().to_vec();
                let expected = parts[(st.turn % parts.len() as u64) as usize];
                let parked = self.sync_parked.entry(file).or_default();
                match parked.remove(&expected) {
                    Some(p) => {
                        let st = self.core.files.state(file);
                        st.turn += 1;
                        let offset = st.shared_pos;
                        st.shared_pos += p.bytes;
                        Some((expected, p, offset))
                    }
                    None => None,
                }
            };
            match next {
                Some((node, p, offset)) => {
                    self.dispatch(
                        now,
                        p.token,
                        node,
                        file,
                        p.write,
                        offset,
                        p.bytes,
                        p.issued,
                        p.is_async,
                        Vec::new(),
                        sched,
                    );
                }
                None => break,
            }
        }
    }
}

impl IoService for Pfs {
    fn submit(
        &mut self,
        node: NodeId,
        now: SimTime,
        req: IoRequest,
        token: IoToken,
        is_async: bool,
        sched: &mut Sched,
    ) {
        let file = req.file;
        match req.verb {
            IoVerb::Open => {
                let mode = AccessMode::from_code(req.hint)
                    .unwrap_or_else(|| panic!("bad access-mode code {}", req.hint));
                self.core.open(now, token, node, file, mode, sched);
            }
            IoVerb::Close => self.core.close(now, token, node, file, sched),
            IoVerb::Seek => {
                let target = req.offset.expect("seek needs an offset");
                self.core.seek(now, token, node, file, target, sched);
            }
            IoVerb::Flush => self.core.flush(now, token, node, file, sched),
            IoVerb::Lsize => self.core.lsize(now, token, node, file, sched),
            IoVerb::Sync => {
                // Commit: acknowledge once every in-flight write on the file
                // has reached the arrays (write-through: that is the durable
                // point).
                let busy = writes_in_flight(&self.pending, &self.deferred, file);
                self.core.sync(now, token, node, file, busy, sched);
            }
            IoVerb::Read => self.data_op(now, token, node, req, false, is_async, sched),
            IoVerb::Write => self.data_op(now, token, node, req, true, is_async, sched),
        }
    }

    fn on_start(&mut self, sched: &mut Sched) {
        self.core.faults.arm_all(&mut self.core.timers, sched);
    }

    fn on_timer(&mut self, now: SimTime, timer: u64, sched: &mut Sched) {
        if self.core.timers.is_node_timer(timer) {
            // An I/O node finished its in-service work. Stale timers happen
            // only under faults (a stall postponed the completion, or a
            // crash voided it); orphaned segments mean the owning request
            // already failed (timeout/unavailable).
            let faults = self.core.faults.enabled();
            match self.core.pump.node_tick(now, timer, sched) {
                NodeTick::Stale => debug_assert!(faults, "stale i/o-node timer on a healthy run"),
                // Background rebuild traffic: no request to complete.
                NodeTick::Rebuild => {}
                NodeTick::Orphan => debug_assert!(faults, "segment with no owner"),
                NodeTick::Seg {
                    owner: token,
                    data_lost,
                } => {
                    let Some(p) = self.pending.get_mut(&token) else {
                        debug_assert!(faults, "pending missing");
                        return;
                    };
                    if data_lost {
                        self.core.stats.data_loss_segments += 1;
                        p.fault = Some(IoFault::DataLoss);
                    }
                    p.segs_left -= 1;
                    if p.segs_left == 0 {
                        // `get_mut` above proved the entry exists; a failed
                        // remove means the pending map is corrupt. Degrade
                        // to a typed fault on the token instead of panicking
                        // the worker.
                        let Some(p) = self.pending.remove(&token) else {
                            debug_assert!(false, "pending entry vanished for token {token}");
                            self.fail_token(token, IoFault::Unavailable, now, sched);
                            return;
                        };
                        self.finish(p, token, now, sched);
                    }
                }
            }
        } else if let Some(ev) = self.core.faults.take(timer) {
            // Only a node crash hands back segments: they take the buddy
            // failover chain, and a request no server accepts fails typed.
            for req in self.core.apply_fault(now, ev, sched) {
                if let Some(token) = self.core.reject_lost(now, ev.io_node, req, sched) {
                    self.core.stats.unavailable += 1;
                    self.fail_token(token, IoFault::Unavailable, now, sched);
                }
            }
        } else if let Some(r) = self.core.pump.take_retry(timer) {
            // Retry only while the owning request is still alive.
            if self.core.pump.owns(r.req.id) {
                self.submit_or_fail(now, r.io, r.req, r.attempt, sched);
            }
        } else if let Some(token) = self.timeout_timers.remove(&timer) {
            if self.pending.contains_key(&token) {
                self.core.stats.timeouts += 1;
                self.fail_token(token, IoFault::Timeout, now, sched);
            }
        } else if !self.core.retry_meta(now, timer, sched) {
            // Deferred dispatch (M_LOG pointer token, M_UNIX atomic write).
            let d = self.deferred.remove(&timer).expect("unknown deferred op");
            self.dispatch(
                now,
                d.token,
                d.node,
                d.file,
                d.write,
                d.offset,
                d.bytes,
                d.issued,
                d.is_async,
                Vec::new(),
                sched,
            );
        }
    }

    fn issue_cost(&self, _node: NodeId, _req: &IoRequest) -> SimDuration {
        self.core.cfg.io_sw.async_issue
    }

    fn on_iowait(&mut self, node: NodeId, file: u32, wait_start: SimTime, wait_end: SimTime) {
        self.core.recorder.iowait(node, file, wait_start, wait_end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_sim::mesh::Mesh;
    use paragon_sim::program::{NodeProgram, ScriptOp, ScriptProgram};
    use paragon_sim::Engine;
    use sio_core::trace::Trace;
    use sio_fskit::file::FileSpec;

    fn run_scripts(
        machine: &MachineConfig,
        files: Vec<FileSpec>,
        scripts: Vec<Vec<ScriptOp>>,
    ) -> (Trace, paragon_sim::EngineReport) {
        let mut pfs = Pfs::new(machine, TraceSink::new("test"));
        for f in files {
            pfs.core.register(f);
        }
        let programs: Vec<Box<dyn NodeProgram>> = scripts
            .into_iter()
            .map(|s| Box::new(ScriptProgram::new(s)) as Box<dyn NodeProgram>)
            .collect();
        let mesh = Mesh::for_nodes(machine.compute_nodes, machine.io_nodes);
        let mut engine = Engine::new(mesh, machine.comm, programs, pfs);
        engine.set_default_watchdog();
        let report = engine.run();
        assert!(report.clean(), "blocked nodes: {:?}", report.blocked);
        let mut pfs = engine.into_service();
        pfs.core
            .sink_mut()
            .set_run_info(machine.compute_nodes, report.wall.nanos());
        (pfs.core.finish_trace(), report)
    }

    fn machine() -> MachineConfig {
        MachineConfig::tiny(4, 2)
    }

    fn open(file: u32, mode: AccessMode) -> ScriptOp {
        ScriptOp::Io(IoRequest::open(file, mode.code()))
    }

    #[test]
    fn open_write_read_close_roundtrip() {
        let script = vec![
            open(0, AccessMode::MUnix),
            ScriptOp::Io(IoRequest::write(0, 100_000)),
            ScriptOp::Io(IoRequest::seek(0, 0)),
            ScriptOp::Io(IoRequest::read(0, 100_000)),
            ScriptOp::Io(IoRequest::close(0)),
        ];
        let (trace, report) = run_scripts(&machine(), vec![FileSpec::output("f")], vec![script]);
        assert_eq!(trace.of_op(IoOp::Write).count(), 1);
        assert_eq!(trace.of_op(IoOp::Read).count(), 1);
        assert_eq!(trace.of_op(IoOp::Seek).count(), 1);
        assert_eq!(trace.of_op(IoOp::Open).count(), 1);
        assert_eq!(trace.of_op(IoOp::Close).count(), 1);
        // Read returns what was written.
        let rd = trace.of_op(IoOp::Read).next().unwrap();
        assert_eq!(rd.bytes, 100_000);
        assert!(report.wall > SimTime::ZERO);
    }

    #[test]
    fn munix_pointer_advances_per_node() {
        // Two nodes write 1000 B each twice into their own regions.
        let mk = |node: u32| {
            vec![
                open(0, AccessMode::MUnix),
                ScriptOp::Io(IoRequest::seek(0, node as u64 * 10_000)),
                ScriptOp::Io(IoRequest::write(0, 1000)),
                ScriptOp::Io(IoRequest::write(0, 1000)),
                ScriptOp::Io(IoRequest::close(0)),
            ]
        };
        let (trace, _) = run_scripts(&machine(), vec![FileSpec::output("f")], vec![mk(0), mk(1)]);
        let mut writes: Vec<(u32, u64)> = trace
            .of_op(IoOp::Write)
            .map(|e| (e.node, e.offset))
            .collect();
        writes.sort_unstable();
        assert_eq!(writes, vec![(0, 0), (0, 1000), (1, 10_000), (1, 11_000)]);
    }

    #[test]
    fn reads_clamp_to_eof() {
        let script = vec![
            open(0, AccessMode::MUnix),
            ScriptOp::Io(IoRequest::write(0, 500)),
            ScriptOp::Io(IoRequest::seek(0, 0)),
            ScriptOp::Io(IoRequest::read(0, 10_000)),
            ScriptOp::Io(IoRequest::read(0, 10_000)), // past EOF: 0 bytes
        ];
        let (trace, _) = run_scripts(&machine(), vec![FileSpec::output("f")], vec![script]);
        let sizes: Vec<u64> = trace.of_op(IoOp::Read).map(|e| e.bytes).collect();
        assert_eq!(sizes, vec![500, 0]);
    }

    #[test]
    fn input_files_are_readable_without_writes() {
        let script = vec![
            open(0, AccessMode::MUnix),
            ScriptOp::Io(IoRequest::read(0, 4096)),
        ];
        let (trace, _) = run_scripts(
            &machine(),
            vec![FileSpec::input("in", 1 << 20)],
            vec![script],
        );
        assert_eq!(trace.of_op(IoOp::Read).next().unwrap().bytes, 4096);
    }

    #[test]
    fn mrecord_interleaves_records_in_node_order() {
        let mk = |_node: u32| {
            vec![
                open(0, AccessMode::MRecord),
                ScriptOp::Barrier(0),
                ScriptOp::Io(IoRequest::write(0, 2048)),
                ScriptOp::Io(IoRequest::write(0, 2048)),
            ]
        };
        let (trace, _) = run_scripts(
            &MachineConfig::tiny(3, 2),
            vec![FileSpec::output("rec")],
            vec![mk(0), mk(1), mk(2)],
        );
        // Node n's k-th record lands at (k*3 + n) * 2048.
        let mut offs: Vec<(u32, u64)> = trace
            .of_op(IoOp::Write)
            .map(|e| (e.node, e.offset))
            .collect();
        offs.sort_unstable();
        assert_eq!(
            offs,
            vec![
                (0, 0),
                (0, 3 * 2048),
                (1, 2048),
                (1, 4 * 2048),
                (2, 2 * 2048),
                (2, 5 * 2048)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "fixed-size records")]
    fn mrecord_rejects_variable_sizes() {
        let script = vec![
            open(0, AccessMode::MRecord),
            ScriptOp::Io(IoRequest::write(0, 2048)),
            ScriptOp::Io(IoRequest::write(0, 1024)),
        ];
        let _ = run_scripts(&machine(), vec![FileSpec::output("rec")], vec![script]);
    }

    #[test]
    fn mlog_shared_pointer_packs_variable_records() {
        let mk = |bytes: u64| {
            vec![
                open(0, AccessMode::MLog),
                ScriptOp::Barrier(0),
                ScriptOp::Io(IoRequest::write(0, bytes)),
            ]
        };
        let (trace, _) = run_scripts(
            &MachineConfig::tiny(3, 2),
            vec![FileSpec::output("log")],
            vec![mk(100), mk(200), mk(300)],
        );
        let mut extents: Vec<(u64, u64)> = trace
            .of_op(IoOp::Write)
            .map(|e| (e.offset, e.bytes))
            .collect();
        extents.sort_unstable();
        // Records are contiguous, non-overlapping, total 600.
        let mut expect_off = 0;
        for (off, bytes) in extents {
            assert_eq!(off, expect_off);
            expect_off += bytes;
        }
        assert_eq!(expect_off, 600);
    }

    #[test]
    fn msync_enforces_node_order() {
        // Node 2 issues first (no compute delay); nodes 0 and 1 delayed.
        // The shared pointer must still assign offsets in node order.
        let mk = |node: u32| {
            let delay = SimDuration::from_millis(10 * (2 - node) as u64);
            vec![
                open(0, AccessMode::MSync),
                ScriptOp::Barrier(0),
                ScriptOp::Compute(delay),
                ScriptOp::Io(IoRequest::write(0, 1000)),
            ]
        };
        let (trace, _) = run_scripts(
            &MachineConfig::tiny(3, 2),
            vec![FileSpec::output("sync")],
            vec![mk(0), mk(1), mk(2)],
        );
        let mut by_node: Vec<(u32, u64)> = trace
            .of_op(IoOp::Write)
            .map(|e| (e.node, e.offset))
            .collect();
        by_node.sort_unstable();
        assert_eq!(by_node, vec![(0, 0), (1, 1000), (2, 2000)]);
    }

    #[test]
    fn mglobal_coalesces_into_one_physical_read() {
        let mk = || {
            vec![
                open(0, AccessMode::MGlobal),
                ScriptOp::Barrier(0),
                ScriptOp::Io(IoRequest::read(0, 8192)),
                ScriptOp::Io(IoRequest::read(0, 8192)),
            ]
        };
        let m = MachineConfig::tiny(4, 2);
        let mut pfs = Pfs::new(&m, TraceSink::new("g"));
        pfs.core.register(FileSpec::input("shared", 1 << 20));
        let programs: Vec<Box<dyn NodeProgram>> = (0..4)
            .map(|_| Box::new(ScriptProgram::new(mk())) as Box<dyn NodeProgram>)
            .collect();
        let mesh = Mesh::for_nodes(4, 2);
        let mut engine = Engine::new(mesh, m.comm, programs, pfs);
        engine.set_default_watchdog();
        let report = engine.run();
        assert!(report.clean());
        // All four nodes see both reads traced...
        let segments = engine.service().core.pump.segments_completed();
        let trace = engine.into_service().core.finish_trace();
        assert_eq!(trace.of_op(IoOp::Read).count(), 8);
        // ...at exactly two distinct offsets (shared pointer advanced twice).
        let mut offs: Vec<u64> = trace.of_op(IoOp::Read).map(|e| e.offset).collect();
        offs.sort_unstable();
        offs.dedup();
        assert_eq!(offs, vec![0, 8192]);
        // ...but the disks served only one request's worth of segments per
        // coalesced read: 8192 B fits one 64 KB unit = 1 segment, × 2 reads.
        assert_eq!(segments, 2);
    }

    #[test]
    fn shared_seeks_serialize_and_cost_more() {
        // Two nodes sharing a file seek simultaneously; durations reflect
        // serialization at the metadata owner.
        let mk = |node: u32| {
            vec![
                open(0, AccessMode::MUnix),
                ScriptOp::Barrier(0),
                ScriptOp::Io(IoRequest::seek(0, node as u64 * 4096)),
            ]
        };
        let (trace, _) = run_scripts(
            &machine(),
            vec![FileSpec::output("shared")],
            vec![mk(0), mk(1)],
        );
        let mut durations: Vec<u64> = trace.of_op(IoOp::Seek).map(|e| e.duration()).collect();
        durations.sort_unstable();
        let rpc = MachineConfig::tiny(4, 2).io_sw.seek_shared_rpc.nanos();
        assert!(durations[0] >= rpc);
        assert!(
            durations[1] >= 2 * rpc,
            "second seek must queue: {durations:?}"
        );

        // A single-opener file seeks locally and cheaply.
        let solo = vec![
            open(0, AccessMode::MUnix),
            ScriptOp::Io(IoRequest::seek(0, 4096)),
        ];
        let (strace, _) = run_scripts(&machine(), vec![FileSpec::output("solo")], vec![solo]);
        let local = MachineConfig::tiny(4, 2).io_sw.seek_local.nanos();
        assert_eq!(strace.of_op(IoOp::Seek).next().unwrap().duration(), local);
    }

    #[test]
    fn seek_records_distance() {
        let script = vec![
            open(0, AccessMode::MUnix),
            ScriptOp::Io(IoRequest::seek(0, 10_000)),
            ScriptOp::Io(IoRequest::seek(0, 4_000)),
        ];
        let (trace, _) = run_scripts(&machine(), vec![FileSpec::output("f")], vec![script]);
        let dists: Vec<u64> = trace.of_op(IoOp::Seek).map(|e| e.bytes).collect();
        assert_eq!(dists, vec![10_000, 6_000]);
    }

    #[test]
    fn async_read_traces_issue_and_iowait() {
        let script = vec![
            open(0, AccessMode::MUnix),
            ScriptOp::IoAsync(IoRequest::read(0, 1 << 20)),
            ScriptOp::WaitOldest,
            ScriptOp::Io(IoRequest::close(0)),
        ];
        let (trace, _) = run_scripts(
            &machine(),
            vec![FileSpec::input("data", 4 << 20)],
            vec![script],
        );
        assert_eq!(trace.of_op(IoOp::AsyncRead).count(), 1);
        assert_eq!(trace.of_op(IoOp::IoWait).count(), 1);
        assert_eq!(trace.of_op(IoOp::Read).count(), 0);
        // The issue event is short; the iowait carries the real latency.
        let issue = trace.of_op(IoOp::AsyncRead).next().unwrap().duration();
        let wait = trace.of_op(IoOp::IoWait).next().unwrap().duration();
        assert!(issue < wait, "issue {issue} !< wait {wait}");
    }

    #[test]
    fn create_costs_more_than_open() {
        let script = vec![
            open(0, AccessMode::MUnix), // create
            ScriptOp::Io(IoRequest::close(0)),
            open(0, AccessMode::MUnix), // plain open
        ];
        let (trace, _) = run_scripts(&machine(), vec![FileSpec::output("f")], vec![script]);
        let opens: Vec<u64> = trace.of_op(IoOp::Open).map(|e| e.duration()).collect();
        assert!(
            opens[0] > opens[1],
            "create {} !> open {}",
            opens[0],
            opens[1]
        );
    }

    #[test]
    fn flush_and_lsize_trace() {
        let script = vec![
            open(0, AccessMode::MUnix),
            ScriptOp::Io(IoRequest::write(0, 100)),
            ScriptOp::Io(IoRequest::flush(0)),
            ScriptOp::Io(IoRequest::lsize(0)),
        ];
        let (trace, _) = run_scripts(&machine(), vec![FileSpec::output("f")], vec![script]);
        assert_eq!(trace.of_op(IoOp::Flush).count(), 1);
        assert_eq!(trace.of_op(IoOp::Lsize).count(), 1);
    }

    #[test]
    fn concurrent_bursts_queue_at_io_nodes() {
        // 4 nodes write 64 KB each simultaneously through 1 I/O node: the
        // last writer's latency must exceed the first's (queueing).
        let mk = || {
            vec![
                open(0, AccessMode::MUnix),
                ScriptOp::Barrier(0),
                ScriptOp::Io(IoRequest::write(0, 65536)),
            ]
        };
        let m = MachineConfig::tiny(4, 1);
        let (trace, _) = run_scripts(
            &m,
            vec![FileSpec::output("hot")],
            vec![mk(), mk(), mk(), mk()],
        );
        let mut durs: Vec<u64> = trace.of_op(IoOp::Write).map(|e| e.duration()).collect();
        durs.sort_unstable();
        assert!(durs[3] > durs[0] * 2, "queueing invisible: {durs:?}");
    }

    #[test]
    fn degraded_array_slows_reads() {
        let script = || {
            vec![
                open(0, AccessMode::MUnix),
                ScriptOp::Io(IoRequest::read(0, 64 * 1024)),
            ]
        };
        let m = MachineConfig::tiny(1, 1);
        let run = |fail: bool| {
            let mut pfs = Pfs::new(&m, TraceSink::new("d"));
            pfs.core.register(FileSpec::input("data", 1 << 20));
            if fail {
                pfs.core.fail_disk(0, 0).unwrap();
            }
            let programs: Vec<Box<dyn NodeProgram>> = vec![Box::new(ScriptProgram::new(script()))];
            let mut engine = Engine::new(Mesh::for_nodes(1, 1), m.comm, programs, pfs);
            engine.set_default_watchdog();
            engine.run();
            let trace = engine.into_service().core.finish_trace();
            let dur = trace.of_op(IoOp::Read).next().unwrap().duration();
            dur
        };
        assert!(run(true) > run(false));
    }
}

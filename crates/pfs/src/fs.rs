//! The PFS model: a [`paragon_sim::IoService`] implementation.
//!
//! `Pfs` interprets every [`IoVerb`] with the semantics of §3.2:
//!
//! * **metadata path** — opens, creates, closes, and `lsize` serialize
//!   through one metadata server ([`MetaServer`]); *seeks on shared files*
//!   serialize at the file's metadata owner (per-file `seek_free`), which is
//!   what makes ESCAT's 128-node synchronized seeks so expensive (Table 1);
//!   seeks on single-opener files are a cheap local pointer update (HTF
//!   `pscf`, Table 5);
//! * **data path** — the access mode resolves the request's offset
//!   (per-node pointer, shared pointer with token serialization, record
//!   interleaving, or collective coalescing), then the request is staged and
//!   pushed through the shared [`SegmentPump`] under the buddy-failover
//!   policy, and completes when its last segment does plus the client copy
//!   cost;
//! * **tracing** — every application-visible call is recorded through the
//!   shared [`TraceRecorder`]; asynchronous reads record their issue cost,
//!   and the engine's `on_iowait` hook records the un-overlapped wait,
//!   exactly the two rows RENDER's Table 3 reports.
//!
//! Everything mode-agnostic — file table, stripe layout, segment pump,
//! fault routing, sync parking, trace recording — lives in `sio-fskit`;
//! this module is the PFS *policy* over that substrate.

use paragon_sim::calibration::FaultParams;
use paragon_sim::engine::{IoService, Sched};
use paragon_sim::fault::{FaultEvent, FaultKind, FaultSchedule};
use paragon_sim::ionode::{RejectReason, SegmentReq};
use paragon_sim::program::{IoFault, IoRequest, IoResult, IoToken, IoVerb};
use paragon_sim::raid::RaidError;
use paragon_sim::{LinkQuality, LinkState};
use paragon_sim::{MachineConfig, NodeId, SimDuration, SimTime};
use sio_core::event::{IoEvent, IoOp};
use sio_core::hash::FastMap;
use sio_core::trace::{Trace, TraceSink};
use sio_fskit::file::{FileSpec, FileState};
use sio_fskit::mode::AccessMode;
use sio_fskit::pump::{backoff_delay, FailoverPolicy, NodeLoad, NodeTick, SegmentPump};
use sio_fskit::table::{MetaStats, MetaVerdict};
use sio_fskit::{
    FaultRouter, FileTable, MetaServer, SyncLedger, SyncWaiter, TimerLanes, TraceRecorder,
};
use std::collections::BTreeMap;

pub use sio_fskit::client::ClientPath;
pub use sio_fskit::config::{FsConfig as PfsConfig, DEFAULT_FILE_SLOT};

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

/// Counters for the fault-handling machinery (all zero on a healthy run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Segment re-submissions scheduled with backoff.
    pub retries: u64,
    /// Segments failed over to the buddy node.
    pub failovers: u64,
    /// Segments lost to node crashes (in service or queued).
    pub lost_segments: u64,
    /// Segments served from an array with exhausted redundancy.
    pub data_loss_segments: u64,
    /// Requests failed by the hard deadline.
    pub timeouts: u64,
    /// Requests failed because no server would accept them.
    pub unavailable: u64,
    /// Second-failure events that exhausted an array's redundancy.
    pub data_loss_events: u64,
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

/// A metadata RPC parked by a full metadata outage, awaiting a backoff
/// retry probe.
#[derive(Debug, Clone, Copy)]
struct ParkedMeta {
    token: IoToken,
    node: NodeId,
    file: u32,
    op: IoOp,
    cost: SimDuration,
    /// Result bytes on success (file length for `Lsize`, 0 otherwise).
    bytes: u64,
    issued: SimTime,
    /// Retry probes already made.
    attempt: u32,
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
    cfg: PfsConfig,
    /// Segment pump over the I/O nodes (buddy-failover policy).
    pump: SegmentPump,
    files: FileTable,
    recorder: TraceRecorder,
    /// Global metadata server (replicated; buddy failover under faults).
    meta: MetaServer,
    /// Metadata RPCs parked by a full outage (timer id -> parked RPC).
    parked_meta: FastMap<u64, ParkedMeta>,
    /// Interconnect link quality per I/O-node region (collective costs).
    links: LinkState,
    /// Per-file metadata-owner queues for shared-file seeks.
    seek_free: Vec<SimTime>,
    pending: FastMap<IoToken, Pending>,
    deferred: FastMap<u64, Deferred>,
    /// Timer-id lanes: per-I/O-node completion timers plus the dynamic
    /// lane for deferred completions, retries, deadlines, and faults.
    timers: TimerLanes,
    /// M_GLOBAL coalescing: file -> waiting participants.
    #[allow(clippy::type_complexity)]
    global_waiting: FastMap<u32, Vec<(IoToken, NodeId, SimTime, bool, u64)>>,
    /// M_SYNC parking: file -> node -> parked request.
    sync_parked: FastMap<u32, BTreeMap<NodeId, ParkedSync>>,
    /// `Sync` commits parked until their file has no in-flight writes.
    syncs: SyncLedger,
    /// Per-node serial client copy path.
    client: ClientPath,
    /// Fault-handling calibration (backoff, failover, deadline).
    fault_params: FaultParams,
    /// Scheduled fault delivery; inert on a healthy run.
    faults: FaultRouter,
    /// Armed per-request deadline timers (timer id -> request token).
    timeout_timers: FastMap<u64, IoToken>,
    /// Backend-local counters; pump counters merge in at the getter.
    fault_stats: FaultStats,
}

impl Pfs {
    /// Build a PFS over the given machine, tracing into `sink` (owned; take
    /// the frozen trace back with [`Pfs::finish_trace`] after the run).
    pub fn new(machine: &MachineConfig, sink: TraceSink) -> Pfs {
        Pfs::with_faults(machine, sink, FaultSchedule::new())
    }

    /// Build a PFS with an injected fault schedule. An empty schedule is
    /// exactly [`Pfs::new`]: the fault machinery arms no timers and the run
    /// is bit-identical to a healthy one.
    pub fn with_faults(machine: &MachineConfig, sink: TraceSink, schedule: FaultSchedule) -> Pfs {
        let cfg = PfsConfig::from_machine(machine);
        let ionodes = machine.build_io_nodes();
        let faults = FaultRouter::new(schedule, ionodes.len());
        let timers = TimerLanes::new(ionodes.len());
        let links = LinkState::healthy(ionodes.len());
        let pump = SegmentPump::new(
            ionodes,
            FailoverPolicy::Buddy {
                max_retries: machine.fault.max_retries,
            },
            machine.fault.retry_base,
        );
        let files = FileTable::new(cfg.file_slot, cfg.array_capacity);
        Pfs {
            cfg,
            pump,
            files,
            recorder: TraceRecorder::new(sink),
            meta: MetaServer::new(),
            parked_meta: FastMap::default(),
            links,
            seek_free: Vec::new(),
            pending: FastMap::default(),
            deferred: FastMap::default(),
            timers,
            global_waiting: FastMap::default(),
            sync_parked: FastMap::default(),
            syncs: SyncLedger::new(),
            client: ClientPath::new(),
            fault_params: machine.fault,
            faults,
            timeout_timers: FastMap::default(),
            fault_stats: FaultStats::default(),
        }
    }

    /// Whether a fault schedule is in play (arms deadlines and lenient
    /// completion paths; a healthy run keeps the strict invariants).
    fn faults_enabled(&self) -> bool {
        self.faults.enabled()
    }

    /// Register a file; returns its id (used in [`IoRequest::file`]).
    /// Panics when the fixed-slot allocator is exhausted — use
    /// [`Pfs::try_register`] for a typed error.
    pub fn register(&mut self, spec: FileSpec) -> u32 {
        let id = self.files.register(spec);
        self.seek_free.push(SimTime::ZERO);
        id
    }

    /// Register a file, returning [`IoFault::Unavailable`] when the
    /// fixed-slot allocator is exhausted.
    pub fn try_register(&mut self, spec: FileSpec) -> Result<u32, IoFault> {
        let id = self.files.try_register(spec)?;
        self.seek_free.push(SimTime::ZERO);
        Ok(id)
    }

    /// Current length of a registered file.
    pub fn file_len(&self, file: u32) -> u64 {
        self.files.len_of(file)
    }

    /// Mutable access to the trace sink (e.g. to set run metadata).
    pub fn sink_mut(&mut self) -> &mut TraceSink {
        self.recorder.sink_mut()
    }

    /// Consume the file system, freezing its captured trace.
    pub fn finish_trace(self) -> Trace {
        self.recorder.finish()
    }

    /// Inject a disk failure into one I/O node's array (experiment A4 and
    /// the X4 fault suite). A second failure on the same array is a typed
    /// error, not a panic.
    pub fn fail_disk(&mut self, io_node: u32, disk: u32) -> Result<(), RaidError> {
        self.pump.node_mut(io_node).array_mut().fail_disk(disk)
    }

    /// Metadata fault-machinery counters (all zero on a healthy run).
    pub fn meta_stats(&self) -> MetaStats {
        self.meta.stats()
    }

    /// Fault-machinery counters (all zero on a healthy run).
    pub fn fault_stats(&self) -> FaultStats {
        let mut s = self.fault_stats;
        let p = self.pump.stats();
        s.retries += p.retries;
        s.failovers += p.failovers;
        s
    }

    /// Rebuild chunks completed across all I/O nodes.
    pub fn rebuild_chunks_total(&self) -> u64 {
        self.pump.rebuild_chunks_total()
    }

    /// Member bytes rebuilt across all I/O nodes.
    pub fn rebuilt_bytes_total(&self) -> u64 {
        self.pump.rebuilt_bytes_total()
    }

    /// I/O nodes whose arrays are still degraded.
    pub fn degraded_nodes(&self) -> u32 {
        self.pump.degraded_nodes()
    }

    /// Sum of queueing delay accumulated across all I/O nodes.
    pub fn total_queueing(&self) -> SimDuration {
        self.pump.total_queueing()
    }

    /// Total stripe segments completed across all I/O nodes.
    pub fn segments_completed(&self) -> u64 {
        self.pump.segments_completed()
    }

    /// Accepted-request accounting per I/O node.
    pub fn node_loads(&self) -> &[NodeLoad] {
        self.pump.node_loads()
    }

    /// Whether any accepted write was lost to exhausted redundancy.
    pub fn any_data_lost(&self) -> bool {
        self.pump.any_data_lost()
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

    fn state(&mut self, file: u32) -> &mut FileState {
        self.files.state(file)
    }

    fn record(&mut self, ev: IoEvent) {
        self.recorder.record(ev);
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
            let st = self.state(file);
            if write {
                st.extend_to(offset + bytes);
                bytes
            } else {
                bytes.min(st.len.saturating_sub(offset))
            }
        };
        if eff_bytes == 0 {
            // Nothing to move: a short software path only.
            let done = now + SimDuration::from_micros(200);
            self.finish(
                Pending {
                    file,
                    write,
                    is_async,
                    offset,
                    bytes: 0,
                    issued,
                    node,
                    segs_left: 0,
                    seg_ids: Vec::new(),
                    fault: None,
                    collective,
                },
                token,
                done,
                sched,
            );
            return;
        }
        let slot_base = self.files.slot_base(file);
        let staged = self.pump.stage_extent(
            &self.cfg.layout,
            slot_base,
            self.cfg.array_capacity,
            offset,
            eff_bytes,
            write,
            token,
        );
        let (reqs, seg_ids) = match staged {
            Ok(v) => v,
            Err(fault) => {
                // The request overflows its allocator slot: a typed
                // data-path failure on this request, not a crash of the run.
                self.pending.insert(
                    token,
                    Pending {
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
                    },
                );
                self.fault_stats.unavailable += 1;
                self.fail_token(token, fault, now, sched);
                return;
            }
        };
        // The request must be pending before any segment is submitted: a
        // rejection chain (both primary and buddy down) can fail the whole
        // token mid-loop.
        self.pending.insert(
            token,
            Pending {
                file,
                write,
                is_async,
                offset,
                bytes: eff_bytes,
                issued,
                node,
                segs_left: reqs.len() as u32,
                seg_ids,
                fault: None,
                collective,
            },
        );
        for (io, req) in reqs {
            self.submit_or_fail(now, io, req, 0, sched);
        }
        if self.faults_enabled() && self.pending.contains_key(&token) {
            // Hard per-request deadline: no request hangs forever under a
            // fault schedule with no recovery.
            let id = self.timers.alloc();
            self.timeout_timers.insert(id, token);
            sched.timer(now + self.fault_params.request_timeout, id);
        }
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
        if let Some(token) = self
            .pump
            .submit_seg(now, io, req, attempt, &mut self.timers, sched)
        {
            self.fault_stats.unavailable += 1;
            self.fail_token(token, IoFault::Unavailable, now, sched);
        }
    }

    /// Whether `file` still has in-flight (dispatched or deferred) writes —
    /// the data a `Sync` commit must wait out. PFS is write-through, so
    /// once these land the bytes are on the arrays.
    fn has_outstanding_writes(&self, file: u32) -> bool {
        self.pending.values().any(|p| p.file == file && p.write)
            || self.deferred.values().any(|d| d.file == file && d.write)
    }

    /// Acknowledge a commit: the software flush cost, plus a typed
    /// `DataLoss` fault if any array holding the file's stripes has
    /// exhausted its redundancy (durable ≠ healthy).
    fn complete_sync(
        &mut self,
        token: IoToken,
        node: NodeId,
        file: u32,
        now: SimTime,
        issued: SimTime,
        sched: &mut Sched,
    ) {
        let fault = if self.pump.any_data_lost() {
            Some(IoFault::DataLoss)
        } else {
            None
        };
        self.recorder.complete_commit(
            sched,
            token,
            node,
            file,
            issued,
            now,
            self.cfg.io_sw.flush,
            fault,
        );
    }

    /// Release every `Sync` waiter on `file` once its last in-flight write
    /// has finished (or failed — a typed write fault still unblocks the
    /// commit; the caller sees the failure on the write itself).
    fn drain_sync_waiters(&mut self, file: u32, now: SimTime, sched: &mut Sched) {
        if self.syncs.is_empty() || self.has_outstanding_writes(file) {
            return;
        }
        for w in self.syncs.take_for(file) {
            self.complete_sync(w.token, w.node, w.file, now, w.issued, sched);
        }
    }

    /// Fail a pending request (and its collective participants) with a typed
    /// fault instead of data.
    fn fail_token(&mut self, token: IoToken, fault: IoFault, now: SimTime, sched: &mut Sched) {
        let Some(p) = self.pending.remove(&token) else {
            return;
        };
        let failed_file = p.file;
        for id in &p.seg_ids {
            self.pump.forget(*id);
        }
        let op = match (p.write, p.is_async) {
            (true, _) => IoOp::Write,
            (false, false) => IoOp::Read,
            (false, true) => IoOp::AsyncRead,
        };
        let result = IoResult {
            bytes: 0,
            queued: SimDuration::ZERO,
            service: now.since(p.issued),
            fault: Some(fault),
        };
        if !p.is_async {
            self.record(
                IoEvent::new(p.node, p.file, op)
                    .span(p.issued.nanos(), now.nanos())
                    .extent(p.offset, 0),
            );
        }
        sched.complete_io(token, now, result);
        for (tok, node, issued) in p.collective {
            if !p.is_async {
                self.record(
                    IoEvent::new(node, p.file, op)
                        .span(issued.nanos(), now.nanos())
                        .extent(p.offset, 0),
                );
            }
            sched.complete_io(tok, now, result);
        }
        self.drain_sync_waiters(failed_file, now, sched);
    }

    /// Apply one scheduled fault event.
    fn apply_fault(&mut self, now: SimTime, ev: FaultEvent, sched: &mut Sched) {
        match ev.kind {
            FaultKind::DiskFail { disk } => {
                if self.pump.apply_disk_fail(ev.io_node, disk) {
                    self.fault_stats.data_loss_events += 1;
                }
            }
            FaultKind::DiskRepair => self.pump.apply_disk_repair(now, ev.io_node, sched),
            FaultKind::NodeStall { for_dur } => {
                self.pump.apply_stall(now, ev.io_node, for_dur, sched)
            }
            FaultKind::NodeCrash => {
                let lost = self.pump.crash(ev.io_node);
                self.fault_stats.lost_segments += lost.len() as u64;
                for req in lost {
                    if self.pump.owns(req.id) {
                        if let Some(token) = self.pump.handle_rejection(
                            now,
                            ev.io_node,
                            req,
                            0,
                            RejectReason::Down,
                            &mut self.timers,
                            sched,
                        ) {
                            self.fault_stats.unavailable += 1;
                            self.fail_token(token, IoFault::Unavailable, now, sched);
                        }
                    }
                }
            }
            FaultKind::NodeRecover => self.pump.recover(now, ev.io_node, sched),
            FaultKind::LinkDegrade { bw_div, lat_mult } => {
                // Data-path segments into the region's I/O node stretch by
                // the bandwidth divisor; collective costs consult the
                // region's quality through the link state.
                self.pump.apply_link_degrade(ev.io_node, bw_div);
                self.links
                    .degrade(ev.io_node, LinkQuality { bw_div, lat_mult });
            }
            FaultKind::LinkHeal => {
                self.pump.apply_link_heal(ev.io_node);
                self.links.heal(ev.io_node);
            }
            FaultKind::MetaStall { for_dur } => self.meta.stall(now, ev.io_node, for_dur),
            FaultKind::MetaCrash => self.meta.crash(ev.io_node),
            FaultKind::MetaRecover => self.meta.recover(ev.io_node),
        }
    }

    /// Serve a metadata RPC through the replicated server, parking it with
    /// bounded backoff retries when both replicas are down. A healthy run
    /// never parks, so this is bit-identical to the historical direct path.
    #[allow(clippy::too_many_arguments)]
    fn meta_op(
        &mut self,
        now: SimTime,
        token: IoToken,
        node: NodeId,
        file: u32,
        op: IoOp,
        cost: SimDuration,
        bytes: u64,
        sched: &mut Sched,
    ) {
        match self.meta.try_op(now, cost) {
            MetaVerdict::Done(done) => {
                self.recorder
                    .complete_op(sched, token, node, file, op, now, done, None, bytes);
            }
            MetaVerdict::Outage => {
                let parked = ParkedMeta {
                    token,
                    node,
                    file,
                    op,
                    cost,
                    bytes,
                    issued: now,
                    attempt: 0,
                };
                self.park_meta(now, parked, sched);
            }
        }
    }

    /// Arm one backoff retry probe for a parked metadata RPC.
    fn park_meta(&mut self, now: SimTime, parked: ParkedMeta, sched: &mut Sched) {
        self.meta.note_retry();
        let id = self.timers.alloc();
        self.parked_meta.insert(id, parked);
        sched.timer(
            now + backoff_delay(self.fault_params.retry_base, parked.attempt),
            id,
        );
    }

    /// A parked metadata RPC's retry timer fired: re-probe the replicas,
    /// park again while the retry budget lasts, then surface the outage as
    /// a typed [`IoFault::Unavailable`] — never hang.
    fn retry_meta(&mut self, now: SimTime, mut parked: ParkedMeta, sched: &mut Sched) {
        match self.meta.try_op(now, parked.cost) {
            MetaVerdict::Done(done) => {
                self.recorder.complete_op(
                    sched,
                    parked.token,
                    parked.node,
                    parked.file,
                    parked.op,
                    parked.issued,
                    done,
                    None,
                    parked.bytes,
                );
            }
            MetaVerdict::Outage => {
                if parked.attempt < self.fault_params.max_retries {
                    parked.attempt += 1;
                    self.park_meta(now, parked, sched);
                } else {
                    self.meta.note_unavailable();
                    self.fault_stats.unavailable += 1;
                    self.recorder.fail_op(
                        sched,
                        parked.token,
                        parked.node,
                        parked.file,
                        parked.op,
                        parked.issued,
                        now,
                        IoFault::Unavailable,
                    );
                }
            }
        }
    }

    /// Complete a data request: charge the client copy cost, trace, complete
    /// every participating token.
    fn finish(&mut self, p: Pending, token: IoToken, now: SimTime, sched: &mut Sched) {
        let finished_file = p.file;
        let rate = self.cfg.io_sw.client_byte_rate;
        let mut done = self.client.copy_done(p.node, now, p.bytes, rate);
        if !p.collective.is_empty() {
            // M_GLOBAL: one physical I/O, then an internal broadcast to the
            // participant group.
            let n = (p.collective.len() + 1) as u32;
            done +=
                self.cfg
                    .mesh
                    .broadcast_time_via(&self.cfg.comm, self.links.worst(), n, p.bytes);
        }
        let op = match (p.write, p.is_async) {
            (true, _) => IoOp::Write,
            (false, false) => IoOp::Read,
            (false, true) => IoOp::AsyncRead,
        };
        let result = IoResult {
            bytes: p.bytes,
            queued: SimDuration::ZERO,
            service: done.since(p.issued),
            fault: p.fault,
        };
        // Async issue events are traced at submit; sync ops trace here with
        // their full blocking interval.
        if !p.is_async {
            self.record(
                IoEvent::new(p.node, p.file, op)
                    .span(p.issued.nanos(), done.nanos())
                    .extent(p.offset, p.bytes),
            );
        }
        sched.complete_io(token, done, result);
        for (tok, node, issued) in p.collective {
            if !p.is_async {
                self.record(
                    IoEvent::new(node, p.file, op)
                        .span(issued.nanos(), done.nanos())
                        .extent(p.offset, p.bytes),
                );
            }
            sched.complete_io(tok, done, result);
        }
        self.drain_sync_waiters(finished_file, now, sched);
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
        let mode = self.state(file).mode.unwrap_or_else(|| {
            panic!(
                "data op on closed file {} by node {node}",
                self.files.get(file).spec.name
            )
        });
        // Trace the async issue itself (the paper's "AsynchRead" row), with
        // the offset the request will resolve to under the file's mode.
        if is_async {
            let resolved = match mode {
                AccessMode::MUnix | AccessMode::MAsync => req
                    .offset
                    .unwrap_or_else(|| self.files.get(file).pos.get(&node).copied().unwrap_or(0)),
                AccessMode::MLog | AccessMode::MSync | AccessMode::MGlobal => {
                    self.files.get(file).shared_pos
                }
                AccessMode::MRecord => {
                    let st = self.state(file);
                    let rs = st.record_size.unwrap_or(req.bytes);
                    let n = st.participants().len() as u64;
                    let rank = st.rank_of(node);
                    let k = st.op_count.get(&node).copied().unwrap_or(0);
                    (k * n + rank) * rs
                }
            };
            let issue_end = now + self.cfg.io_sw.async_issue;
            self.record(
                IoEvent::new(node, file, IoOp::AsyncRead)
                    .span(now.nanos(), issue_end.nanos())
                    .extent(resolved, req.bytes),
            );
        }
        match mode {
            AccessMode::MUnix | AccessMode::MAsync => {
                let shared = self.state(file).opener_count() > 1;
                let st = self.state(file);
                let pos = st.pos.entry(node).or_insert(0);
                let offset = req.offset.unwrap_or(*pos);
                *pos = offset + req.bytes;
                // M_UNIX preserves operation atomicity: concurrent writers
                // to a shared file serialize at the file's metadata owner.
                // M_ASYNC explicitly waives atomicity and skips this.
                if write && shared && mode == AccessMode::MUnix {
                    let rpc = self.cfg.io_sw.atomic_write_rpc;
                    let free = &mut self.seek_free[file as usize];
                    let acquire = (*free).max(now) + rpc;
                    *free = acquire;
                    let id = self.timers.alloc();
                    self.deferred.insert(
                        id,
                        Deferred {
                            token,
                            node,
                            file,
                            write,
                            is_async,
                            offset,
                            bytes: req.bytes,
                            issued: now,
                        },
                    );
                    sched.timer(acquire, id);
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
                let st = self.state(file);
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
                let token_cost = self.cfg.io_sw.pointer_token;
                let st = self.state(file);
                let acquire = st.token_free.max(now) + token_cost;
                st.token_free = acquire;
                let offset = st.shared_pos;
                st.shared_pos += req.bytes;
                if acquire > now {
                    let id = self.timers.alloc();
                    self.deferred.insert(
                        id,
                        Deferred {
                            token,
                            node,
                            file,
                            write,
                            is_async,
                            offset,
                            bytes: req.bytes,
                            issued: now,
                        },
                    );
                    sched.timer(acquire, id);
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
                let n = {
                    let st = self.state(file);
                    st.participants().len()
                };
                let waiting = self.global_waiting.entry(file).or_default();
                waiting.push((token, node, now, is_async, req.bytes));
                if waiting.len() == n {
                    // `waiting` came from this entry two statements ago; if
                    // the map has lost it, the collective state is corrupt —
                    // fail the op as unavailable rather than panic the run.
                    let Some(slot) = self.global_waiting.get_mut(&file) else {
                        debug_assert!(false, "M_GLOBAL wait group vanished for file {file}");
                        self.fault_stats.unavailable += 1;
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
                    let st = self.state(file);
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
                let st = self.state(file);
                let parts = st.participants().to_vec();
                let expected = parts[(st.turn % parts.len() as u64) as usize];
                let parked = self.sync_parked.entry(file).or_default();
                match parked.remove(&expected) {
                    Some(p) => {
                        let st = self.state(file);
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
        match req.verb {
            IoVerb::Open => {
                let mode = AccessMode::from_code(req.hint)
                    .unwrap_or_else(|| panic!("bad access-mode code {}", req.hint));
                let create = self.state(req.file).open(node, mode);
                let cost = if create {
                    self.cfg.io_sw.create
                } else {
                    self.cfg.io_sw.open
                };
                self.meta_op(now, token, node, req.file, IoOp::Open, cost, 0, sched);
            }
            IoVerb::Close => {
                self.state(req.file).close(node);
                let cost = self.cfg.io_sw.close;
                self.meta_op(now, token, node, req.file, IoOp::Close, cost, 0, sched);
            }
            IoVerb::Seek => {
                let target = req.offset.expect("seek needs an offset");
                let shared = self.state(req.file).opener_count() > 1;
                let (done, distance) = if shared {
                    // Serialized at the file's metadata owner.
                    let cost = self.cfg.io_sw.seek_shared_rpc;
                    let free = &mut self.seek_free[req.file as usize];
                    let start = (*free).max(now);
                    let done = start + cost;
                    *free = done;
                    let st = self.state(req.file);
                    let pos = st.pos.entry(node).or_insert(0);
                    let distance = pos.abs_diff(target);
                    *pos = target;
                    (done, distance)
                } else {
                    let st = self.state(req.file);
                    let pos = st.pos.entry(node).or_insert(0);
                    let distance = pos.abs_diff(target);
                    *pos = target;
                    (now + self.cfg.io_sw.seek_local, distance)
                };
                self.recorder.complete_op(
                    sched,
                    token,
                    node,
                    req.file,
                    IoOp::Seek,
                    now,
                    done,
                    Some((target, distance)),
                    0,
                );
            }
            IoVerb::Flush => {
                let done = now + self.cfg.io_sw.flush;
                self.recorder.complete_op(
                    sched,
                    token,
                    node,
                    req.file,
                    IoOp::Flush,
                    now,
                    done,
                    None,
                    0,
                );
            }
            IoVerb::Lsize => {
                let cost = self.cfg.io_sw.lsize;
                let len = self.file_len(req.file);
                self.meta_op(now, token, node, req.file, IoOp::Lsize, cost, len, sched);
            }
            IoVerb::Sync => {
                // Commit: acknowledge only after every in-flight write on
                // the file has reached the arrays. PFS is write-through, so
                // "no outstanding writes" is the durable point; the commit
                // still reports `DataLoss` if redundancy is exhausted.
                // Traced as Forflush — the paper's vocabulary has no
                // separate commit row.
                if self.has_outstanding_writes(req.file) {
                    self.syncs.park(SyncWaiter {
                        token,
                        node,
                        file: req.file,
                        issued: now,
                    });
                } else {
                    self.complete_sync(token, node, req.file, now, now, sched);
                }
            }
            IoVerb::Read => self.data_op(now, token, node, req, false, is_async, sched),
            IoVerb::Write => self.data_op(now, token, node, req, true, is_async, sched),
        }
    }

    fn on_start(&mut self, sched: &mut Sched) {
        // Arm one absolute-time timer per scheduled fault event. Empty
        // schedule (the healthy case): no timers, bit-identical runs.
        self.faults.arm_all(&mut self.timers, sched);
    }

    fn on_timer(&mut self, now: SimTime, timer: u64, sched: &mut Sched) {
        if self.timers.is_node_timer(timer) {
            // An I/O node finished its in-service work. Stale timers happen
            // only under faults (a stall postponed the completion, or a
            // crash voided it); orphaned segments mean the owning request
            // already failed (timeout/unavailable).
            match self.pump.node_tick(now, timer, sched) {
                NodeTick::Stale => debug_assert!(
                    self.faults_enabled(),
                    "stale i/o-node timer on a healthy run"
                ),
                // Background rebuild traffic: no request to complete.
                NodeTick::Rebuild => {}
                NodeTick::Orphan => {
                    debug_assert!(self.faults_enabled(), "segment with no owner")
                }
                NodeTick::Seg {
                    owner: token,
                    data_lost,
                } => {
                    let Some(p) = self.pending.get_mut(&token) else {
                        debug_assert!(self.faults.enabled(), "pending missing");
                        return;
                    };
                    if data_lost {
                        self.fault_stats.data_loss_segments += 1;
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
        } else if let Some(ev) = self.faults.take(timer) {
            self.apply_fault(now, ev, sched);
        } else if let Some(r) = self.pump.take_retry(timer) {
            // Retry only while the owning request is still alive.
            if self.pump.owns(r.req.id) {
                self.submit_or_fail(now, r.io, r.req, r.attempt, sched);
            }
        } else if let Some(token) = self.timeout_timers.remove(&timer) {
            if self.pending.contains_key(&token) {
                self.fault_stats.timeouts += 1;
                self.fail_token(token, IoFault::Timeout, now, sched);
            }
        } else if let Some(parked) = self.parked_meta.remove(&timer) {
            self.retry_meta(now, parked, sched);
        } else {
            // Deferred dispatch (M_LOG pointer-token acquisition).
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
        self.cfg.io_sw.async_issue
    }

    fn on_iowait(&mut self, node: NodeId, file: u32, wait_start: SimTime, wait_end: SimTime) {
        self.recorder.iowait(node, file, wait_start, wait_end);
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use paragon_sim::mesh::Mesh;
    use paragon_sim::program::{NodeProgram, ScriptOp, ScriptProgram};
    use paragon_sim::Engine;
    use sio_core::trace::Trace;

    fn run_scripts(
        machine: &MachineConfig,
        files: Vec<FileSpec>,
        scripts: Vec<Vec<ScriptOp>>,
    ) -> (Trace, paragon_sim::EngineReport) {
        let mut pfs = Pfs::new(machine, TraceSink::new("test"));
        for f in files {
            pfs.register(f);
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
        pfs.sink_mut()
            .set_run_info(machine.compute_nodes, report.wall.nanos());
        (pfs.finish_trace(), report)
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
        pfs.register(FileSpec::input("shared", 1 << 20));
        let programs: Vec<Box<dyn NodeProgram>> = (0..4)
            .map(|_| Box::new(ScriptProgram::new(mk())) as Box<dyn NodeProgram>)
            .collect();
        let mesh = Mesh::for_nodes(4, 2);
        let mut engine = Engine::new(mesh, m.comm, programs, pfs);
        engine.set_default_watchdog();
        let report = engine.run();
        assert!(report.clean());
        // All four nodes see both reads traced...
        let segments = engine.service().segments_completed();
        let trace = engine.into_service().finish_trace();
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
            pfs.register(FileSpec::input("data", 1 << 20));
            if fail {
                pfs.fail_disk(0, 0).unwrap();
            }
            let programs: Vec<Box<dyn NodeProgram>> = vec![Box::new(ScriptProgram::new(script()))];
            let mut engine = Engine::new(Mesh::for_nodes(1, 1), m.comm, programs, pfs);
            engine.set_default_watchdog();
            engine.run();
            let trace = engine.into_service().finish_trace();
            let dur = trace.of_op(IoOp::Read).next().unwrap().duration();
            dur
        };
        assert!(run(true) > run(false));
    }
}

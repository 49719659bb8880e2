//! [`FsCore`]: the substrate state and mechanisms every backend embeds.
//!
//! PFS, PPFS and CIO run on the same machine and the same I/O nodes and
//! differ only in client policy. `FsCore` holds what they share, once:
//!
//! * the machine-derived [`FsConfig`], the [`SegmentPump`] over the I/O
//!   nodes, the [`FileTable`], the [`TraceRecorder`], the per-node
//!   [`ClientPath`], the interconnect [`LinkState`] and the backend's
//!   [`TimerLanes`];
//! * metadata RPCs (`Open`, `Close`, `Lsize`) through the replicated
//!   [`MetaServer`], with outage parking, bounded backoff retry and a typed
//!   [`IoFault::Unavailable`] when the retry budget runs out;
//! * `Flush`, and the shared-file seek that PFS and CIO serialize at the
//!   file's metadata owner;
//! * `Sync` commits: park while the file has writes in flight, drain once
//!   the last one lands, report [`IoFault::DataLoss`] when an array has
//!   exhausted its redundancy;
//! * delivery of a [`FaultSchedule`], including sending the segments a
//!   crashed node loses down the pump's failover policy;
//! * the buddy-failover data-request lifecycle ([`crate::request`]):
//!   staging, tracking, give-up, deadlines and the typed fan-out of a
//!   failure to every member;
//! * one timer entry point, [`FsCore::on_timer`], for node-completion
//!   ticks, fault deliveries, pump retries, request deadlines and metadata
//!   probes;
//! * one [`FaultStats`] record.
//!
//! A backend passes in only what it alone knows: the parsed access mode of
//! an `Open`, which writes it still holds back from the I/O nodes, and what
//! a finished request means for its members.

use paragon_sim::calibration::FaultParams;
use paragon_sim::engine::Sched;
use paragon_sim::fault::{FaultEvent, FaultKind, FaultSchedule};
use paragon_sim::ionode::{RejectReason, SegmentReq};
use paragon_sim::program::{IoFault, IoToken};
use paragon_sim::raid::RaidError;
use paragon_sim::{LinkQuality, LinkState, MachineConfig, NodeId, SimDuration, SimTime};
use sio_core::event::IoOp;
use sio_core::hash::FastMap;
use sio_core::trace::{Trace, TraceSink};

use crate::client::ClientPath;
use crate::config::FsConfig;
use crate::fault::{FaultRouter, FaultStats};
use crate::file::FileSpec;
use crate::lanes::TimerLanes;
use crate::mode::AccessMode;
use crate::pump::{backoff_delay, FailoverPolicy, NodeLoad, NodeTick, SegmentPump};
use crate::recorder::TraceRecorder;
use crate::request::{Fired, Held, Request};
use crate::sync::{SyncLedger, SyncWaiter};
use crate::table::{FileTable, MetaServer, MetaStats, MetaVerdict};

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

/// The substrate one backend instance runs on. See the module docs.
///
/// Determinism contract: every timer armed on a backend's behalf — fault
/// deliveries, metadata retry probes, the pump's backoff retries — and
/// every timer the backend arms itself draws its id from the one
/// [`TimerLanes`] in `timers`, so ids are handed out in arm order across
/// all of them.
pub struct FsCore {
    /// Machine-derived configuration (stripe map, software costs).
    pub cfg: FsConfig,
    /// Segment pump over the I/O nodes, under the backend's failover policy.
    pub pump: SegmentPump,
    /// File registry and fixed-slot allocator.
    pub files: FileTable,
    /// Application-visible interval tracing.
    pub recorder: TraceRecorder,
    /// Interconnect link quality per I/O-node region.
    pub links: LinkState,
    /// The backend's timer-id allocator.
    pub timers: TimerLanes,
    /// Per-node serial client copy path.
    pub client: ClientPath,
    /// Fault-handling calibration (backoff, retry budget, deadline).
    pub fault_params: FaultParams,
    /// Scheduled fault delivery; inert on a healthy run.
    pub faults: FaultRouter,
    /// Fault counters the backend keeps itself; the pump's retry and
    /// failover counts merge in at [`FsCore::fault_stats`].
    pub stats: FaultStats,
    /// Replicated metadata server.
    meta: MetaServer,
    /// Metadata RPCs parked by a full outage (timer id → parked RPC).
    parked_meta: FastMap<u64, ParkedMeta>,
    /// Per-file next-free time of the metadata owner (shared-file seeks and
    /// PFS's atomic-write RPC), one entry per registered file.
    owner_free: Vec<SimTime>,
    /// `Sync` commits parked until their file has no writes in flight.
    syncs: SyncLedger,
    /// Tracked data requests (request id → request).
    pub(crate) requests: FastMap<u64, Request>,
    pub(crate) next_request: u64,
    /// Armed request deadlines (timer id → request id).
    pub(crate) deadlines: FastMap<u64, u64>,
}

impl FsCore {
    /// Build the substrate over `machine`, tracing into `sink`, with an
    /// injected fault schedule (empty = healthy run, no timers armed). The
    /// pump runs under `failover`; `reserved_timers` backend-owned singleton
    /// ids sit between the per-I/O-node and dynamic timer lanes.
    pub fn new(
        machine: &MachineConfig,
        sink: TraceSink,
        schedule: FaultSchedule,
        failover: FailoverPolicy,
        reserved_timers: u64,
    ) -> FsCore {
        let cfg = FsConfig::from_machine(machine);
        let ionodes = machine.build_io_nodes();
        let n = ionodes.len();
        FsCore {
            pump: SegmentPump::new(ionodes, failover, machine.fault.retry_base),
            files: FileTable::new(cfg.file_slot, cfg.array_capacity),
            recorder: TraceRecorder::new(sink),
            links: LinkState::healthy(n),
            timers: TimerLanes::with_reserved(n, reserved_timers),
            client: ClientPath::new(),
            fault_params: machine.fault,
            faults: FaultRouter::new(schedule, n),
            stats: FaultStats::default(),
            meta: MetaServer::new(),
            parked_meta: FastMap::default(),
            owner_free: Vec::new(),
            syncs: SyncLedger::new(),
            requests: FastMap::default(),
            next_request: 0,
            deadlines: FastMap::default(),
            cfg,
        }
    }

    // -- registration, trace and counters -----------------------------------

    /// Register a file; returns its id (used in `IoRequest::file`). Panics
    /// when the fixed-slot allocator is exhausted.
    pub fn register(&mut self, spec: FileSpec) -> u32 {
        let id = self.files.register(spec);
        self.owner_free.push(SimTime::ZERO);
        id
    }

    /// Current length of a registered file.
    pub fn file_len(&self, file: u32) -> u64 {
        self.files.len_of(file)
    }

    /// Mutable access to the trace sink (e.g. to set run metadata).
    pub fn sink_mut(&mut self) -> &mut TraceSink {
        self.recorder.sink_mut()
    }

    /// Consume the substrate, freezing its captured trace.
    pub fn finish_trace(self) -> Trace {
        self.recorder.finish()
    }

    /// Fail one member disk of an I/O node's array directly, before or
    /// outside a fault schedule. A second failure on the same array is a
    /// typed error, not a panic.
    pub fn fail_disk(&mut self, io_node: u32, disk: u32) -> Result<(), RaidError> {
        self.pump.node_mut(io_node).array_mut().fail_disk(disk)
    }

    /// Metadata fault-machinery counters (all zero on a healthy run).
    pub fn meta_stats(&self) -> MetaStats {
        self.meta.stats()
    }

    /// Fault-machinery counters (all zero on a healthy run): the backend's
    /// own counts plus the pump's retries and failovers.
    pub fn fault_stats(&self) -> FaultStats {
        let mut s = self.stats;
        let p = self.pump.stats();
        s.retries += p.retries;
        s.failovers += p.failovers;
        s
    }

    /// RAID rebuild work done across all I/O nodes: (chunks, member bytes).
    pub fn rebuild_totals(&self) -> (u64, u64) {
        (
            self.pump.rebuild_chunks_total(),
            self.pump.rebuilt_bytes_total(),
        )
    }

    /// I/O nodes whose arrays are still degraded.
    pub fn degraded_nodes(&self) -> u32 {
        self.pump.degraded_nodes()
    }

    /// Accepted-request accounting per I/O node.
    pub fn node_loads(&self) -> &[NodeLoad] {
        self.pump.node_loads()
    }

    /// Whether any array has exhausted its redundancy: acknowledged data
    /// may be gone.
    pub fn any_data_lost(&self) -> bool {
        self.pump.any_data_lost()
    }

    // -- metadata verbs -----------------------------------------------------

    /// Open `file` for `node` in `mode` and serve the open (or, on the first
    /// open of a new file, create) RPC.
    pub fn open(
        &mut self,
        now: SimTime,
        token: IoToken,
        node: NodeId,
        file: u32,
        mode: AccessMode,
        sched: &mut Sched,
    ) {
        let create = self.files.state(file).open(node, mode);
        let cost = if create {
            self.cfg.io_sw.create
        } else {
            self.cfg.io_sw.open
        };
        self.meta_op(now, token, node, file, IoOp::Open, cost, 0, sched);
    }

    /// Drop `node` from `file`'s openers and serve the close RPC.
    pub fn close(
        &mut self,
        now: SimTime,
        token: IoToken,
        node: NodeId,
        file: u32,
        sched: &mut Sched,
    ) {
        self.files.state(file).close(node);
        let cost = self.cfg.io_sw.close;
        self.meta_op(now, token, node, file, IoOp::Close, cost, 0, sched);
    }

    /// Serve an `Lsize` RPC; it returns the file length as its byte count.
    pub fn lsize(
        &mut self,
        now: SimTime,
        token: IoToken,
        node: NodeId,
        file: u32,
        sched: &mut Sched,
    ) {
        let cost = self.cfg.io_sw.lsize;
        let len = self.file_len(file);
        self.meta_op(now, token, node, file, IoOp::Lsize, cost, len, sched);
    }

    /// Complete a `Flush` at the software flush cost.
    pub fn flush(
        &mut self,
        now: SimTime,
        token: IoToken,
        node: NodeId,
        file: u32,
        sched: &mut Sched,
    ) {
        let done = now + self.cfg.io_sw.flush;
        self.recorder
            .complete_op(sched, token, node, file, IoOp::Flush, now, done, None, 0);
    }

    /// Serialize one RPC of `cost` at `file`'s metadata owner; returns when
    /// it completes.
    pub fn owner_rpc(&mut self, file: u32, now: SimTime, cost: SimDuration) -> SimTime {
        let free = &mut self.owner_free[file as usize];
        *free = (*free).max(now) + cost;
        *free
    }

    /// A seek with PFS semantics: on a shared file it serializes at the
    /// file's metadata owner, which is what makes ESCAT's 128-node
    /// synchronized seeks so expensive (Table 1); on a single-opener file it
    /// is a cheap local pointer update.
    pub fn seek(
        &mut self,
        now: SimTime,
        token: IoToken,
        node: NodeId,
        file: u32,
        target: u64,
        sched: &mut Sched,
    ) {
        let done = if self.files.get(file).opener_count() > 1 {
            let cost = self.cfg.io_sw.seek_shared_rpc;
            self.owner_rpc(file, now, cost)
        } else {
            now + self.cfg.io_sw.seek_local
        };
        self.seek_to(now, token, node, file, target, done, sched);
    }

    /// Move `node`'s pointer on `file` to `target` and complete the seek at
    /// `done`, tracing the target and the distance moved.
    #[allow(clippy::too_many_arguments)]
    pub fn seek_to(
        &mut self,
        now: SimTime,
        token: IoToken,
        node: NodeId,
        file: u32,
        target: u64,
        done: SimTime,
        sched: &mut Sched,
    ) {
        let pos = self.files.state(file).pointer_mut(node);
        let distance = pos.abs_diff(target);
        *pos = target;
        self.recorder.complete_op(
            sched,
            token,
            node,
            file,
            IoOp::Seek,
            now,
            done,
            Some((target, distance)),
            0,
        );
    }

    /// Serve a metadata RPC through the replicated server, parking it with
    /// bounded backoff retries when both replicas are down. A healthy run
    /// never parks, so this is bit-identical to a direct serialized queue.
    #[allow(clippy::too_many_arguments)]
    pub fn meta_op(
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

    /// If `timer` is a parked metadata RPC's retry probe, re-probe the
    /// replicas and return `true`: the RPC completes, parks again while the
    /// retry budget lasts, or surfaces the outage as a typed
    /// [`IoFault::Unavailable`] — it never hangs.
    fn retry_meta(&mut self, now: SimTime, timer: u64, sched: &mut Sched) -> bool {
        let Some(mut parked) = self.parked_meta.remove(&timer) else {
            return false;
        };
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
                    self.stats.unavailable += 1;
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
        true
    }

    // -- `Sync` commits -----------------------------------------------------

    /// Commit `file`: park while a tracked write request on it is in
    /// flight or the backend still `held` writes on it, else acknowledge
    /// now. Traced as Forflush — the paper's vocabulary has no separate
    /// commit row.
    pub fn sync(
        &mut self,
        now: SimTime,
        token: IoToken,
        node: NodeId,
        file: u32,
        held: bool,
        sched: &mut Sched,
    ) {
        if held || self.writes_in_flight(file) {
            self.syncs.park(SyncWaiter {
                token,
                node,
                file,
                issued: now,
            });
        } else {
            self.complete_sync(token, node, file, now, now, sched);
        }
    }

    /// Release every `Sync` waiter on `file` once no write on it is in
    /// flight: no tracked write request, and none the backend `held` (a
    /// failed write also unblocks the commit; the caller sees the failure
    /// on the write itself). The ledger is checked first, so the scans run
    /// only while a commit is parked.
    pub fn drain_syncs(&mut self, file: u32, now: SimTime, sched: &mut Sched, held: Held) {
        if self.syncs.is_empty() || self.writes_in_flight(file) || held(file) {
            return;
        }
        for w in self.syncs.take_for(file) {
            self.complete_sync(w.token, w.node, w.file, now, w.issued, sched);
        }
    }

    /// Acknowledge a commit: the software flush cost, plus a typed
    /// `DataLoss` fault if any array has exhausted its redundancy (durable
    /// is not healthy).
    fn complete_sync(
        &mut self,
        token: IoToken,
        node: NodeId,
        file: u32,
        now: SimTime,
        issued: SimTime,
        sched: &mut Sched,
    ) {
        let fault = self.pump.any_data_lost().then_some(IoFault::DataLoss);
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

    // -- timers, faults and the pump ----------------------------------------

    /// Arm the fault schedule's deliveries at run start.
    pub fn on_start(&mut self, sched: &mut Sched) {
        self.faults.arm_all(&mut self.timers, sched);
    }

    /// The backend's timer entry point. The core claims I/O-node completion
    /// ticks (counting tracked requests' segments home), fault deliveries,
    /// pump retries, request deadlines and metadata probes, and hands back
    /// only what the backend must decide — see [`Fired`]. `held` is the
    /// backend's view of the writes it still holds, for releasing `Sync`s
    /// when a request fails.
    pub fn on_timer(&mut self, now: SimTime, timer: u64, sched: &mut Sched, held: Held) -> Fired {
        if self.timers.is_node_timer(timer) {
            let faults = self.faults.enabled();
            // Stale ticks happen only under faults (a stall postponed the
            // completion, or a crash voided it); orphaned segments mean the
            // owning request already failed.
            match self.pump.node_tick(now, timer, sched) {
                NodeTick::Stale => debug_assert!(faults, "stale i/o-node timer on a healthy run"),
                // Background rebuild traffic: no owner to advance.
                NodeTick::Rebuild => {}
                NodeTick::Orphan => debug_assert!(faults, "segment with no owner"),
                // Stripe-pinned backends track their own transfers.
                NodeTick::Seg { owner, data_lost }
                    if self.pump.policy() == FailoverPolicy::StripePinned =>
                {
                    return Fired::Segment { owner, data_lost };
                }
                NodeTick::Seg { owner, data_lost } => match self.requests.get_mut(&owner) {
                    Some(req) => {
                        if data_lost {
                            self.stats.data_loss_segments += 1;
                        }
                        if req.segment_landed(data_lost) {
                            if let Some(req) = self.requests.remove(&owner) {
                                return Fired::Finished(req);
                            }
                        }
                    }
                    None => debug_assert!(faults, "request missing"),
                },
            }
        } else if let Some(ev) = self.faults.take(timer) {
            let lost = self.apply_fault(now, ev, sched);
            for seg in &lost {
                if let Some(owner) = self.reject_lost(now, ev.io_node, *seg, sched) {
                    self.give_up(owner, now, sched, held);
                }
            }
            if !lost.is_empty() {
                return Fired::Lost(lost);
            }
        } else if let Some(r) = self.pump.take_retry(timer) {
            // Retry only while the owning request is still alive.
            if self.pump.owns(r.req.id) {
                self.submit_or_fail(now, r.io, r.req, r.attempt, sched, held);
            }
        } else if let Some(id) = self.deadlines.remove(&timer) {
            if let Some(req) = self.requests.remove(&id) {
                self.stats.timeouts += 1;
                self.fail(req, IoFault::Timeout, now, sched, held);
            }
        } else if !self.retry_meta(now, timer, sched) {
            return Fired::Foreign;
        }
        Fired::Handled
    }

    /// Apply one scheduled fault event. A `NodeCrash` returns the segments
    /// it lost (counted in `lost_segments`); other kinds return nothing.
    fn apply_fault(&mut self, now: SimTime, ev: FaultEvent, sched: &mut Sched) -> Vec<SegmentReq> {
        let io = ev.io_node;
        match ev.kind {
            FaultKind::DiskFail { disk } => {
                if self.pump.apply_disk_fail(io, disk) {
                    self.stats.data_loss_events += 1;
                }
            }
            FaultKind::DiskRepair => self.pump.apply_disk_repair(now, io, sched),
            FaultKind::NodeStall { for_dur } => self.pump.apply_stall(now, io, for_dur, sched),
            FaultKind::NodeCrash => {
                let lost = self.pump.crash(io);
                self.stats.lost_segments += lost.len() as u64;
                return lost;
            }
            FaultKind::NodeRecover => {
                self.pump.recover(now, io, sched);
                // Only the stripe-pinned policy ever parks replays.
                self.pump.resubmit_replays(now, io, &mut self.timers, sched);
            }
            FaultKind::LinkDegrade { bw_div, lat_mult } => {
                // Data-path segments into the region's I/O node stretch by
                // the bandwidth divisor; mesh-collective costs (PFS M_GLOBAL
                // broadcast, CIO exchange) consult the region's quality
                // through the link state. PPFS has no mesh-collective
                // phase, so it feels the degrade only through the pump.
                self.pump.apply_link_degrade(io, bw_div);
                self.links.degrade(io, LinkQuality { bw_div, lat_mult });
            }
            FaultKind::LinkHeal => {
                self.pump.apply_link_heal(io);
                self.links.heal(io);
            }
            FaultKind::MetaStall { for_dur } => self.meta.stall(now, io, for_dur),
            FaultKind::MetaCrash => self.meta.crash(io),
            FaultKind::MetaRecover => self.meta.recover(io),
        }
        Vec::new()
    }

    /// Send a segment lost in a crash of node `io` down the failover
    /// policy — buddy retry or a replay park — if its owner is still alive;
    /// returns the owner to fail when no server will take it.
    fn reject_lost(
        &mut self,
        now: SimTime,
        io: u32,
        req: SegmentReq,
        sched: &mut Sched,
    ) -> Option<u64> {
        if !self.pump.owns(req.id) {
            return None;
        }
        self.pump
            .handle_rejection(now, io, req, 0, RejectReason::Down, &mut self.timers, sched)
    }
}

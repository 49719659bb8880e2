//! The collective two-phase I/O model: a [`paragon_sim::IoService`].
//!
//! `Cio` keeps PFS's metadata semantics — opens, creates, closes, and
//! `lsize` serialize through one [`MetaServer`]; seeks on shared files
//! serialize at the file's metadata owner; `Sync` commits park until the
//! file drains — and replaces the *data path* with two-phase collective
//! transfers:
//!
//! * **gather** — a data operation on a shared file does not go to the
//!   I/O nodes; it parks in the file's gather bucket. When every current
//!   opener has contributed an operation in the same direction, the group
//!   forms a collective. Single-opener files degenerate to singleton
//!   collectives that dispatch immediately (no exchange, no extra cost).
//! * **phase 1: extent exchange** — the participants allgather 64-byte
//!   extent descriptors over the 2-D mesh (a log₂-stage broadcast tree),
//!   compute the conforming partition ([`crate::partition`]) of the
//!   aggregate request into stripe-aligned file domains, and shuffle member
//!   data to one elected aggregator per touched I/O node (cost: the
//!   longest member→aggregator mesh message). The whole phase is a real
//!   simulated delay, traced as an `I/O Wait` interval on the lead node.
//! * **phase 2: aggregated dispatch** — each aggregator issues *one large
//!   sequential transfer per file domain* through the shared
//!   [`SegmentPump`] under the buddy-failover policy, so retry, failover,
//!   crash, and timeout behavior is exactly the substrate's. When the last
//!   domain lands, every member completes with its own byte count and
//!   client copy cost; a typed [`IoFault`] on the collective propagates to
//!   every participant.
//!
//! Mode semantics under collectives: `M_UNIX`/`M_ASYNC` resolve per-node
//! pointers at issue time (the conforming partition supplies the atomicity
//! `M_UNIX` otherwise buys with a serialized RPC); `M_LOG` advances the
//! shared pointer at issue time (the exchange orders the group, replacing
//! pointer-token serialization); `M_RECORD` uses the record-interleaving
//! formula; `M_SYNC` assigns shared-pointer offsets in node-rank order at
//! collective formation; `M_GLOBAL` reads one shared offset for the whole
//! group.
//!
//! Contract: on a shared file, every opener participates in every
//! collective round between synchronization points (the shape of every
//! shipped workload). A `Close` shrinks the membership a collective waits
//! for, and a `Sync` force-flushes the file's write gather, so partial
//! groups cannot park a commit forever; a genuinely absent participant
//! surfaces as the engine's blocked-node report, not a silent hang.

use paragon_sim::calibration::FaultParams;
use paragon_sim::engine::{IoService, Sched};
use paragon_sim::fault::{FaultEvent, FaultKind, FaultSchedule};
use paragon_sim::ionode::{RejectReason, SegmentReq};
use paragon_sim::program::{IoFault, IoRequest, IoResult, IoToken, IoVerb};
use paragon_sim::{LinkQuality, LinkState, MachineConfig, NodeId, SimDuration, SimTime};
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

use crate::partition::{self, Domain, Extent};

pub use sio_fskit::client::ClientPath;
pub use sio_fskit::config::{FsConfig as CioConfig, DEFAULT_FILE_SLOT};

/// Assumed wire size of one extent descriptor in the phase-1 allgather.
const DESCRIPTOR_BYTES: u64 = 64;

/// How a gathered member's file offset is resolved at collective formation.
#[derive(Debug, Clone, Copy)]
enum OffsetSpec {
    /// Already resolved at issue time (M_UNIX, M_ASYNC, M_RECORD, M_LOG).
    At(u64),
    /// Shared pointer, assigned in node-rank order at formation (M_SYNC).
    Ordered,
    /// Shared pointer, one offset for the whole group (M_GLOBAL).
    Same,
}

/// One gathered (not yet dispatched) data operation.
#[derive(Debug, Clone, Copy)]
struct Member {
    token: IoToken,
    node: NodeId,
    issued: SimTime,
    is_async: bool,
    bytes: u64,
    spec: OffsetSpec,
}

/// A member with its offset resolved and its byte count clamped.
#[derive(Debug, Clone, Copy)]
struct RMember {
    token: IoToken,
    node: NodeId,
    issued: SimTime,
    is_async: bool,
    offset: u64,
    bytes: u64,
}

/// Per-file gather buckets, one per transfer direction (a collective is
/// same-direction by construction).
#[derive(Debug, Default)]
struct Bucket {
    writes: Vec<Member>,
    reads: Vec<Member>,
}

/// A formed collective waiting out its phase-1 exchange delay.
#[derive(Debug)]
struct PendingExchange {
    file: u32,
    write: bool,
    members: Vec<RMember>,
    domains: Vec<Domain>,
}

/// A dispatched collective: aggregated segments in flight.
#[derive(Debug)]
struct Collective {
    file: u32,
    write: bool,
    members: Vec<RMember>,
    segs_left: u32,
    seg_ids: Vec<u64>,
    /// First fault observed on any aggregated segment.
    fault: Option<IoFault>,
}

/// Collective-machinery counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CioStats {
    /// Multi-member collective dispatches.
    pub collectives: u64,
    /// Single-member dispatches (solo opener: no exchange, no delay).
    pub singletons: u64,
    /// Member operations aggregated into multi-member collectives.
    pub members: u64,
    /// Aggregated per-I/O-node transfers issued (phase 2).
    pub aggregated_extents: u64,
    /// Summed phase-1 delay (descriptor allgather + data shuffle).
    pub exchange: SimDuration,
    /// Collectives force-flushed with partial membership (`Sync`/`Close`).
    pub flushed_partial: u64,
}

/// Counters for the fault-handling machinery (all zero on a healthy run);
/// the same shape as PFS's, since both ride the buddy-failover pump.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CioFaultStats {
    /// Segment re-submissions scheduled with backoff.
    pub retries: u64,
    /// Segments failed over to the buddy node.
    pub failovers: u64,
    /// Segments lost to node crashes (in service or queued).
    pub lost_segments: u64,
    /// Segments served from an array with exhausted redundancy.
    pub data_loss_segments: u64,
    /// Collectives failed by the hard deadline.
    pub timeouts: u64,
    /// Member requests failed because no server would accept them.
    pub unavailable: u64,
    /// Second-failure events that exhausted an array's redundancy.
    pub data_loss_events: u64,
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

/// The collective two-phase I/O model.
pub struct Cio {
    cfg: CioConfig,
    /// Segment pump over the I/O nodes (buddy-failover policy).
    pump: SegmentPump,
    files: FileTable,
    recorder: TraceRecorder,
    /// Global metadata server (replicated; buddy failover under faults).
    meta: MetaServer,
    /// Metadata RPCs parked by a full outage (timer id → parked RPC).
    parked_meta: FastMap<u64, ParkedMeta>,
    /// Interconnect link quality per I/O-node region (exchange-phase costs).
    links: LinkState,
    /// Per-file metadata-owner queues for shared-file seeks.
    seek_free: Vec<SimTime>,
    /// Per-file gather buckets.
    gather: FastMap<u32, Bucket>,
    /// Collectives waiting out their exchange delay (timer id → group).
    exchange: FastMap<u64, PendingExchange>,
    /// Dispatched collectives (collective id → state).
    collectives: FastMap<u64, Collective>,
    next_coll: u64,
    /// Timer-id lanes: per-I/O-node completion timers plus the dynamic
    /// lane (faults, retries, timeouts, exchanges).
    timers: TimerLanes,
    /// `Sync` commits parked until their file has no in-flight writes.
    syncs: SyncLedger,
    /// Per-node serial client copy path.
    client: ClientPath,
    /// Fault-handling calibration (backoff, failover, deadline).
    fault_params: FaultParams,
    /// Scheduled fault delivery; inert on a healthy run.
    faults: FaultRouter,
    /// Armed per-collective deadline timers (timer id → collective id).
    timeout_timers: FastMap<u64, u64>,
    fault_stats: CioFaultStats,
    stats: CioStats,
}

impl Cio {
    /// Build a CIO over the given machine, tracing into `sink`.
    pub fn new(machine: &MachineConfig, sink: TraceSink) -> Cio {
        Cio::with_faults(machine, sink, FaultSchedule::new())
    }

    /// Build a CIO with an injected fault schedule. An empty schedule is
    /// exactly [`Cio::new`]: no timers armed, bit-identical healthy runs.
    pub fn with_faults(machine: &MachineConfig, sink: TraceSink, schedule: FaultSchedule) -> Cio {
        let cfg = CioConfig::from_machine(machine);
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
        Cio {
            cfg,
            pump,
            files,
            recorder: TraceRecorder::new(sink),
            meta: MetaServer::new(),
            parked_meta: FastMap::default(),
            links,
            seek_free: Vec::new(),
            gather: FastMap::default(),
            exchange: FastMap::default(),
            collectives: FastMap::default(),
            next_coll: 0,
            timers,
            syncs: SyncLedger::new(),
            client: ClientPath::new(),
            fault_params: machine.fault,
            faults,
            timeout_timers: FastMap::default(),
            fault_stats: CioFaultStats::default(),
            stats: CioStats::default(),
        }
    }

    fn faults_enabled(&self) -> bool {
        self.faults.enabled()
    }

    /// Register a file; returns its id (used in [`IoRequest::file`]).
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

    /// Collective-machinery counters.
    pub fn cio_stats(&self) -> CioStats {
        self.stats
    }

    /// Metadata fault-machinery counters (all zero on a healthy run).
    pub fn meta_stats(&self) -> MetaStats {
        self.meta.stats()
    }

    /// Fault-machinery counters (all zero on a healthy run).
    pub fn fault_stats(&self) -> CioFaultStats {
        let mut s = self.fault_stats;
        let p = self.pump.stats();
        s.retries += p.retries;
        s.failovers += p.failovers;
        s
    }

    /// Accepted-request accounting per I/O node.
    pub fn node_loads(&self) -> &[NodeLoad] {
        self.pump.node_loads()
    }

    /// Rebuild chunks completed across all I/O nodes.
    pub fn rebuild_chunks_total(&self) -> u64 {
        self.pump.rebuild_chunks_total()
    }

    /// Whether any accepted write was served by an array with exhausted
    /// redundancy (acknowledged data is gone).
    pub fn any_data_lost(&self) -> bool {
        self.pump.any_data_lost()
    }

    /// Submit a burst-log drain extent: a singleton asynchronous write
    /// collective dispatched straight through the phase-2 path, so drains
    /// inherit the conforming partition, pump staging, backoff/failover,
    /// and the hard deadline — but record no application-visible trace
    /// event (the member is `is_async`) and are not counted in the
    /// application-collective stats.
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
        self.state(file).extend_to(offset + bytes);
        if bytes == 0 {
            sched.complete_io(
                token,
                now,
                IoResult {
                    bytes: 0,
                    queued: SimDuration::ZERO,
                    service: SimDuration::ZERO,
                    fault: None,
                },
            );
            return;
        }
        let members = vec![RMember {
            token,
            node,
            issued: now,
            is_async: true,
            offset,
            bytes,
        }];
        let extents = [Extent { offset, bytes }];
        let domains = partition::partition(&self.cfg.layout, &extents);
        self.dispatch_collective(
            now,
            PendingExchange {
                file,
                write: true,
                members,
                domains,
            },
            sched,
        );
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

    fn state(&mut self, file: u32) -> &mut FileState {
        self.files.state(file)
    }

    fn record(&mut self, ev: IoEvent) {
        self.recorder.record(ev);
    }

    /// Whether `file` still has in-flight write traffic a `Sync` must wait
    /// out: a gathered write member, a write collective in its exchange
    /// phase, or aggregated write segments on the I/O nodes.
    fn has_outstanding_writes(&self, file: u32) -> bool {
        self.collectives.values().any(|c| c.file == file && c.write)
            || self.exchange.values().any(|x| x.file == file && x.write)
            || self.gather.get(&file).is_some_and(|b| !b.writes.is_empty())
    }

    /// Acknowledge a commit (flush cost plus a typed `DataLoss` fault when
    /// redundancy is exhausted somewhere under the file).
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
    /// has finished (or failed).
    fn drain_sync_waiters(&mut self, file: u32, now: SimTime, sched: &mut Sched) {
        if self.syncs.is_empty() || self.has_outstanding_writes(file) {
            return;
        }
        for w in self.syncs.take_for(file) {
            self.complete_sync(w.token, w.node, w.file, now, w.issued, sched);
        }
    }

    /// The trace/result op kind of a member.
    fn op_of(write: bool, is_async: bool) -> IoOp {
        match (write, is_async) {
            (true, _) => IoOp::Write,
            (false, false) => IoOp::Read,
            (false, true) => IoOp::AsyncRead,
        }
    }

    /// Complete one member with a zero-byte short software path (nothing
    /// to move: a zero-length write or a read at/past EOF).
    fn complete_empty_member(
        &mut self,
        file: u32,
        write: bool,
        m: RMember,
        now: SimTime,
        sched: &mut Sched,
    ) {
        let done = now + SimDuration::from_micros(200);
        let op = Cio::op_of(write, m.is_async);
        if !m.is_async {
            self.record(
                IoEvent::new(m.node, file, op)
                    .span(m.issued.nanos(), done.nanos())
                    .extent(m.offset, 0),
            );
        }
        sched.complete_io(
            m.token,
            done,
            IoResult {
                bytes: 0,
                queued: SimDuration::ZERO,
                service: done.since(m.issued),
                fault: None,
            },
        );
    }

    /// Fail every member of a collective with a typed fault.
    fn fail_collective(&mut self, cid: u64, fault: IoFault, now: SimTime, sched: &mut Sched) {
        let Some(c) = self.collectives.remove(&cid) else {
            return;
        };
        for id in &c.seg_ids {
            self.pump.forget(*id);
        }
        let op = Cio::op_of(c.write, false);
        for m in &c.members {
            if !m.is_async {
                self.record(
                    IoEvent::new(m.node, c.file, op)
                        .span(m.issued.nanos(), now.nanos())
                        .extent(m.offset, 0),
                );
            }
            sched.complete_io(
                m.token,
                now,
                IoResult {
                    bytes: 0,
                    queued: SimDuration::ZERO,
                    service: now.since(m.issued),
                    fault: Some(fault),
                },
            );
        }
        self.drain_sync_waiters(c.file, now, sched);
    }

    /// Complete a finished collective: every member pays its own client
    /// copy cost and reports its own byte count; a collective-level fault
    /// (redundancy-exhausted array) reaches every member.
    fn finish_collective(&mut self, c: Collective, now: SimTime, sched: &mut Sched) {
        let rate = self.cfg.io_sw.client_byte_rate;
        let op = Cio::op_of(c.write, false);
        for m in &c.members {
            let done = self.client.copy_done(m.node, now, m.bytes, rate);
            if !m.is_async {
                self.record(
                    IoEvent::new(m.node, c.file, op)
                        .span(m.issued.nanos(), done.nanos())
                        .extent(m.offset, m.bytes),
                );
            }
            sched.complete_io(
                m.token,
                done,
                IoResult {
                    bytes: m.bytes,
                    queued: SimDuration::ZERO,
                    service: done.since(m.issued),
                    fault: c.fault,
                },
            );
        }
        self.drain_sync_waiters(c.file, now, sched);
    }

    /// Push one aggregated segment through the pump; when both the primary
    /// and its buddy refuse it, fail the owning collective as unavailable.
    fn submit_or_fail(
        &mut self,
        now: SimTime,
        io: u32,
        req: SegmentReq,
        attempt: u32,
        sched: &mut Sched,
    ) {
        if let Some(cid) = self
            .pump
            .submit_seg(now, io, req, attempt, &mut self.timers, sched)
        {
            let members = self
                .collectives
                .get(&cid)
                .map_or(1, |c| c.members.len() as u64);
            self.fault_stats.unavailable += members;
            self.fail_collective(cid, IoFault::Unavailable, now, sched);
        }
    }

    /// Phase 2: issue one aggregated sequential transfer per file domain.
    fn dispatch_collective(&mut self, now: SimTime, x: PendingExchange, sched: &mut Sched) {
        let PendingExchange {
            file,
            write,
            members,
            domains,
        } = x;
        let slot_base = self.files.slot_base(file);
        if domains
            .iter()
            .any(|d| slot_base + d.local_offset + d.bytes > self.cfg.array_capacity)
        {
            // The aggregate overflows its allocator slot: a typed data-path
            // failure on every member, not a crash of the run.
            self.fault_stats.unavailable += members.len() as u64;
            let op = Cio::op_of(write, false);
            for m in &members {
                if !m.is_async {
                    self.record(
                        IoEvent::new(m.node, file, op)
                            .span(m.issued.nanos(), now.nanos())
                            .extent(m.offset, 0),
                    );
                }
                sched.complete_io(
                    m.token,
                    now,
                    IoResult {
                        bytes: 0,
                        queued: SimDuration::ZERO,
                        service: now.since(m.issued),
                        fault: Some(IoFault::Unavailable),
                    },
                );
            }
            self.drain_sync_waiters(file, now, sched);
            return;
        }
        let cid = self.next_coll;
        self.next_coll += 1;
        let mut reqs = Vec::with_capacity(domains.len());
        let mut seg_ids = Vec::with_capacity(domains.len());
        for d in &domains {
            let req = self
                .pump
                .stage_seg(slot_base + d.local_offset, d.bytes, write, cid);
            seg_ids.push(req.id);
            reqs.push((d.io_node, req));
        }
        self.stats.aggregated_extents += reqs.len() as u64;
        self.collectives.insert(
            cid,
            Collective {
                file,
                write,
                members,
                segs_left: reqs.len() as u32,
                seg_ids,
                fault: None,
            },
        );
        for (io, req) in reqs {
            self.submit_or_fail(now, io, req, 0, sched);
        }
        if self.faults_enabled() && self.collectives.contains_key(&cid) {
            // Hard deadline: no collective hangs forever under a fault
            // schedule with no recovery.
            let id = self.timers.alloc();
            self.timeout_timers.insert(id, cid);
            sched.timer(now + self.fault_params.request_timeout, id);
        }
    }

    /// Form a collective from gathered members: resolve offsets, clamp
    /// byte counts, compute the conforming partition, charge the phase-1
    /// exchange, and dispatch (immediately for singletons, after the
    /// exchange delay otherwise).
    fn form_collective(
        &mut self,
        file: u32,
        write: bool,
        members: Vec<Member>,
        forced: bool,
        now: SimTime,
        sched: &mut Sched,
    ) {
        // Distinct participating nodes, sorted: the aggregator electorate.
        let mut parts: Vec<NodeId> = members.iter().map(|m| m.node).collect();
        parts.sort_unstable();
        parts.dedup();
        let p = parts.len();
        if forced && p < self.files.get(file).opener_count() {
            self.stats.flushed_partial += 1;
        }

        // Resolve offsets. `Ordered` assigns the shared pointer in
        // node-rank order; `Same` advances it once for the whole group.
        let mut resolved: Vec<RMember> = Vec::with_capacity(members.len());
        match members[0].spec {
            OffsetSpec::At(_) => {
                for m in &members {
                    let OffsetSpec::At(offset) = m.spec else {
                        unreachable!("mixed offset specs in one bucket")
                    };
                    resolved.push(RMember {
                        token: m.token,
                        node: m.node,
                        issued: m.issued,
                        is_async: m.is_async,
                        offset,
                        bytes: m.bytes,
                    });
                }
            }
            OffsetSpec::Ordered => {
                let st = self.state(file);
                st.participants();
                let mut ordered = members.clone();
                let st = self.state(file);
                ordered.sort_by_key(|m| st.rank_of(m.node));
                for m in ordered {
                    let st = self.state(file);
                    let offset = st.shared_pos;
                    st.shared_pos += m.bytes;
                    resolved.push(RMember {
                        token: m.token,
                        node: m.node,
                        issued: m.issued,
                        is_async: m.is_async,
                        offset,
                        bytes: m.bytes,
                    });
                }
            }
            OffsetSpec::Same => {
                let bytes = members[0].bytes;
                debug_assert!(members.iter().all(|m| m.bytes == bytes));
                let st = self.state(file);
                let offset = st.shared_pos;
                st.shared_pos += bytes;
                for m in &members {
                    resolved.push(RMember {
                        token: m.token,
                        node: m.node,
                        issued: m.issued,
                        is_async: m.is_async,
                        offset,
                        bytes: m.bytes,
                    });
                }
            }
        }

        // Clamp: writes extend the file, reads clamp to EOF. Members left
        // with nothing to move complete on the short software path.
        let mut live: Vec<RMember> = Vec::with_capacity(resolved.len());
        for mut m in resolved {
            if write {
                self.state(file).extend_to(m.offset + m.bytes);
            } else {
                m.bytes = m
                    .bytes
                    .min(self.files.len_of(file).saturating_sub(m.offset));
            }
            if m.bytes == 0 {
                self.complete_empty_member(file, write, m, now, sched);
            } else {
                live.push(m);
            }
        }
        if live.is_empty() {
            self.drain_sync_waiters(file, now, sched);
            return;
        }

        // The conforming partition of the aggregate request.
        let extents: Vec<Extent> = live
            .iter()
            .map(|m| Extent {
                offset: m.offset,
                bytes: m.bytes,
            })
            .collect();
        let domains = partition::partition(&self.cfg.layout, &extents);

        if p <= 1 {
            // Solo opener: a singleton collective has nothing to exchange.
            self.stats.singletons += 1;
            self.dispatch_collective(
                now,
                PendingExchange {
                    file,
                    write,
                    members: live,
                    domains,
                },
                sched,
            );
            return;
        }

        // Phase 1: descriptor allgather over the mesh, then the data
        // shuffle — every member ships its overlap with each domain to
        // that domain's aggregator (writes) or receives it (reads); the
        // phase ends when the longest member↔aggregator message lands.
        // Descriptor allgather touches every region, so it pays the worst
        // link quality in force; a healthy link state is bit-identical to
        // the plain broadcast.
        let descriptors = self.cfg.mesh.broadcast_time_via(
            &self.cfg.comm,
            self.links.worst(),
            p as u32,
            DESCRIPTOR_BYTES * members.len() as u64,
        );
        let mut shuffle = SimDuration::ZERO;
        for d in &domains {
            let aggregator = parts[d.io_node as usize % p];
            for m in &live {
                if m.node == aggregator {
                    continue;
                }
                let ov = d.overlap(Extent {
                    offset: m.offset,
                    bytes: m.bytes,
                });
                if ov > 0 {
                    let hops = self.cfg.mesh.compute_hops(m.node, aggregator);
                    // The shuffle message lands in the domain's I/O-node
                    // region: it pays that region's link quality.
                    let q = self.links.region(d.io_node);
                    shuffle = shuffle.max(self.cfg.mesh.msg_time_via(&self.cfg.comm, q, hops, ov));
                }
            }
        }
        let exchange = descriptors + shuffle;
        let ready = now + exchange;
        self.stats.collectives += 1;
        self.stats.members += live.len() as u64;
        self.stats.exchange += exchange;

        // The exchange is a real interval on the mesh: trace it on the
        // lead (lowest-numbered) participant, spanning formation → ready,
        // with the aggregate extent.
        let union_lo = domains
            .iter()
            .flat_map(|d| d.pieces.first())
            .map(|e| e.offset)
            .min()
            .unwrap_or(0);
        let total: u64 = domains.iter().map(|d| d.bytes).sum();
        self.record(
            IoEvent::new(parts[0], file, IoOp::IoWait)
                .span(now.nanos(), ready.nanos())
                .extent(union_lo, total),
        );

        let pending = PendingExchange {
            file,
            write,
            members: live,
            domains,
        };
        if ready > now {
            let id = self.timers.alloc();
            self.exchange.insert(id, pending);
            sched.timer(ready, id);
        } else {
            self.dispatch_collective(now, pending, sched);
        }
    }

    /// Trigger check: when every current opener has contributed to the
    /// bucket (or `forced`), take it and form the collective.
    fn try_trigger(
        &mut self,
        file: u32,
        write: bool,
        forced: bool,
        now: SimTime,
        sched: &mut Sched,
    ) {
        let openers = self.files.get(file).opener_count();
        let Some(bucket) = self.gather.get_mut(&file) else {
            return;
        };
        let members = if write {
            &mut bucket.writes
        } else {
            &mut bucket.reads
        };
        if members.is_empty() {
            return;
        }
        if !forced {
            let mut nodes: Vec<NodeId> = members.iter().map(|m| m.node).collect();
            nodes.sort_unstable();
            nodes.dedup();
            if nodes.len() < openers {
                return;
            }
        }
        let taken = std::mem::take(members);
        self.form_collective(file, write, taken, forced, now, sched);
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
                        if let Some(cid) = self.pump.handle_rejection(
                            now,
                            ev.io_node,
                            req,
                            0,
                            RejectReason::Down,
                            &mut self.timers,
                            sched,
                        ) {
                            let members = self
                                .collectives
                                .get(&cid)
                                .map_or(1, |c| c.members.len() as u64);
                            self.fault_stats.unavailable += members;
                            self.fail_collective(cid, IoFault::Unavailable, now, sched);
                        }
                    }
                }
            }
            FaultKind::NodeRecover => self.pump.recover(now, ev.io_node, sched),
            FaultKind::LinkDegrade { bw_div, lat_mult } => {
                // Data-path segments into the region's I/O node stretch by
                // the bandwidth divisor; the exchange phase consults the
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

    /// Gather a data operation according to the file's mode, then check
    /// the collective trigger.
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
        let mode = self.files.get(file).mode.unwrap_or_else(|| {
            panic!(
                "data op on closed file {} by node {node}",
                self.files.get(file).spec.name
            )
        });
        let spec = match mode {
            AccessMode::MUnix | AccessMode::MAsync => {
                let st = self.state(file);
                let pos = st.pos.entry(node).or_insert(0);
                let offset = req.offset.unwrap_or(*pos);
                *pos = offset + req.bytes;
                // No atomic-write RPC: the conforming partition itself
                // guarantees M_UNIX's non-interleaving of concurrent
                // writers.
                OffsetSpec::At(offset)
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
                OffsetSpec::At(record_index * rs)
            }
            AccessMode::MLog => {
                // The exchange orders the group; the shared pointer
                // advances in arrival order with no token serialization.
                let st = self.state(file);
                let offset = st.shared_pos;
                st.shared_pos += req.bytes;
                OffsetSpec::At(offset)
            }
            AccessMode::MSync => OffsetSpec::Ordered,
            AccessMode::MGlobal => OffsetSpec::Same,
        };
        // Trace the async issue itself, with the offset the request
        // resolved to (shared-pointer specs resolve at formation; the
        // issue event reports the current shared position).
        if is_async {
            let resolved = match spec {
                OffsetSpec::At(o) => o,
                OffsetSpec::Ordered | OffsetSpec::Same => self.files.get(file).shared_pos,
            };
            let issue_end = now + self.cfg.io_sw.async_issue;
            self.record(
                IoEvent::new(node, file, IoOp::AsyncRead)
                    .span(now.nanos(), issue_end.nanos())
                    .extent(resolved, req.bytes),
            );
        }
        let bucket = self.gather.entry(file).or_default();
        let members = if write {
            &mut bucket.writes
        } else {
            &mut bucket.reads
        };
        members.push(Member {
            token,
            node,
            issued: now,
            is_async,
            bytes: req.bytes,
            spec,
        });
        self.try_trigger(file, write, false, now, sched);
    }
}

impl IoService for Cio {
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
                // The membership a collective waits for just shrank: a
                // bucket the remaining openers have all contributed to can
                // now go.
                self.try_trigger(req.file, true, false, now, sched);
                self.try_trigger(req.file, false, false, now, sched);
                let cost = self.cfg.io_sw.close;
                self.meta_op(now, token, node, req.file, IoOp::Close, cost, 0, sched);
            }
            IoVerb::Seek => {
                let target = req.offset.expect("seek needs an offset");
                let shared = self.state(req.file).opener_count() > 1;
                let (done, distance) = if shared {
                    // Serialized at the file's metadata owner (PFS
                    // semantics: collective I/O does not change the
                    // metadata path).
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
                // A commit must not park behind members that will never
                // trigger: force-flush the file's write gather first, then
                // wait out whatever is actually in flight.
                self.try_trigger(req.file, true, true, now, sched);
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
        self.faults.arm_all(&mut self.timers, sched);
    }

    fn on_timer(&mut self, now: SimTime, timer: u64, sched: &mut Sched) {
        if self.timers.is_node_timer(timer) {
            match self.pump.node_tick(now, timer, sched) {
                NodeTick::Stale => debug_assert!(
                    self.faults_enabled(),
                    "stale i/o-node timer on a healthy run"
                ),
                NodeTick::Rebuild => {}
                NodeTick::Orphan => {
                    debug_assert!(self.faults_enabled(), "segment with no owner")
                }
                NodeTick::Seg {
                    owner: cid,
                    data_lost,
                } => {
                    let Some(c) = self.collectives.get_mut(&cid) else {
                        debug_assert!(self.faults_enabled(), "collective missing");
                        return;
                    };
                    if data_lost {
                        self.fault_stats.data_loss_segments += 1;
                        c.fault = Some(IoFault::DataLoss);
                    }
                    c.segs_left -= 1;
                    if c.segs_left == 0 {
                        let Some(c) = self.collectives.remove(&cid) else {
                            debug_assert!(false, "collective vanished: {cid}");
                            return;
                        };
                        self.finish_collective(c, now, sched);
                    }
                }
            }
        } else if let Some(ev) = self.faults.take(timer) {
            self.apply_fault(now, ev, sched);
        } else if let Some(r) = self.pump.take_retry(timer) {
            // Retry only while the owning collective is still alive.
            if self.pump.owns(r.req.id) {
                self.submit_or_fail(now, r.io, r.req, r.attempt, sched);
            }
        } else if let Some(cid) = self.timeout_timers.remove(&timer) {
            if self.collectives.contains_key(&cid) {
                self.fault_stats.timeouts += 1;
                self.fail_collective(cid, IoFault::Timeout, now, sched);
            }
        } else if let Some(parked) = self.parked_meta.remove(&timer) {
            self.retry_meta(now, parked, sched);
        } else {
            // Phase-1 exchange complete: dispatch the collective.
            let x = self.exchange.remove(&timer).expect("unknown timer");
            self.dispatch_collective(now, x, sched);
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

    fn run_engine(
        machine: &MachineConfig,
        files: Vec<FileSpec>,
        scripts: Vec<Vec<ScriptOp>>,
    ) -> (Engine<Cio>, paragon_sim::EngineReport) {
        let mut cio = Cio::new(machine, TraceSink::new("test"));
        for f in files {
            cio.register(f);
        }
        let programs: Vec<Box<dyn NodeProgram>> = scripts
            .into_iter()
            .map(|s| Box::new(ScriptProgram::new(s)) as Box<dyn NodeProgram>)
            .collect();
        let mesh = Mesh::for_nodes(machine.compute_nodes, machine.io_nodes);
        let mut engine = Engine::new(mesh, machine.comm, programs, cio);
        engine.set_default_watchdog();
        let report = engine.run();
        assert!(report.clean(), "blocked nodes: {:?}", report.blocked);
        (engine, report)
    }

    fn run_scripts(
        machine: &MachineConfig,
        files: Vec<FileSpec>,
        scripts: Vec<Vec<ScriptOp>>,
    ) -> (Trace, paragon_sim::EngineReport) {
        let (engine, report) = run_engine(machine, files, scripts);
        let mut cio = engine.into_service();
        cio.sink_mut()
            .set_run_info(machine.compute_nodes, report.wall.nanos());
        (cio.finish_trace(), report)
    }

    fn machine() -> MachineConfig {
        MachineConfig::tiny(4, 2)
    }

    fn open(file: u32, mode: AccessMode) -> ScriptOp {
        ScriptOp::Io(IoRequest::open(file, mode.code()))
    }

    #[test]
    fn solo_roundtrip_is_all_singletons() {
        let script = vec![
            open(0, AccessMode::MUnix),
            ScriptOp::Io(IoRequest::write(0, 100_000)),
            ScriptOp::Io(IoRequest::seek(0, 0)),
            ScriptOp::Io(IoRequest::read(0, 100_000)),
            ScriptOp::Io(IoRequest::close(0)),
        ];
        let (engine, report) = run_engine(&machine(), vec![FileSpec::output("f")], vec![script]);
        let stats = engine.service().cio_stats();
        assert_eq!(stats.singletons, 2);
        assert_eq!(stats.collectives, 0);
        assert_eq!(stats.exchange, SimDuration::ZERO);
        let trace = engine.into_service().finish_trace();
        assert_eq!(trace.of_op(IoOp::Write).count(), 1);
        assert_eq!(trace.of_op(IoOp::Read).next().unwrap().bytes, 100_000);
        // Solo collectives have nothing to exchange: no I/O-wait interval.
        assert_eq!(trace.of_op(IoOp::IoWait).count(), 0);
        assert!(report.wall > SimTime::ZERO);
    }

    #[test]
    fn interleaved_writers_aggregate_to_one_transfer_per_io_node() {
        // 4 nodes write 32 KB each at interleaved offsets covering
        // [0, 128 KB): two 64 KB stripe units, one per I/O node. The
        // collective must move the whole region as ONE aggregated
        // sequential transfer per I/O node.
        let mk = |node: u64| {
            vec![
                open(0, AccessMode::MUnix),
                ScriptOp::Barrier(0),
                ScriptOp::Io(IoRequest::seek(0, node * 32 * 1024)),
                ScriptOp::Io(IoRequest::write(0, 32 * 1024)),
            ]
        };
        let (engine, _) = run_engine(
            &machine(),
            vec![FileSpec::output("stage")],
            (0..4).map(mk).collect(),
        );
        let stats = engine.service().cio_stats();
        assert_eq!(stats.collectives, 1);
        assert_eq!(stats.members, 4);
        assert_eq!(stats.aggregated_extents, 2);
        assert!(stats.exchange > SimDuration::ZERO);
        assert_eq!(engine.service().segments_completed(), 2);
        let loads = engine.service().node_loads();
        assert_eq!(loads.len(), 2);
        for l in loads {
            assert_eq!(l.write_reqs, 1, "one aggregated request per node");
            assert_eq!(l.write_bytes, 64 * 1024);
        }
        let trace = engine.into_service().finish_trace();
        // Every member still sees its own 32 KB write at its own offset.
        let mut writes: Vec<(u64, u64)> = trace
            .of_op(IoOp::Write)
            .map(|e| (e.offset, e.bytes))
            .collect();
        writes.sort_unstable();
        let expect: Vec<(u64, u64)> = (0..4u64).map(|n| (n * 32 * 1024, 32 * 1024)).collect();
        assert_eq!(writes, expect);
        // All members complete at the same instant (same aggregate, same
        // client copy size).
        let ends: Vec<u64> = trace.of_op(IoOp::Write).map(|e| e.end).collect();
        assert!(ends.iter().all(|&e| e == ends[0]), "{ends:?}");
    }

    #[test]
    fn exchange_is_traced_as_iowait_on_the_lead_node() {
        let mk = |node: u64| {
            vec![
                open(0, AccessMode::MUnix),
                ScriptOp::Barrier(0),
                ScriptOp::Io(IoRequest::seek(0, node * 8192)),
                ScriptOp::Io(IoRequest::write(0, 8192)),
            ]
        };
        let (engine, _) = run_engine(
            &machine(),
            vec![FileSpec::output("x")],
            (0..4).map(mk).collect(),
        );
        let exchange = engine.service().cio_stats().exchange;
        let trace = engine.into_service().finish_trace();
        let waits: Vec<_> = trace.of_op(IoOp::IoWait).collect();
        assert_eq!(waits.len(), 1);
        assert_eq!(waits[0].node, 0, "exchange traced on the lead member");
        assert_eq!(waits[0].duration(), exchange.nanos());
        assert_eq!(waits[0].bytes, 4 * 8192, "aggregate extent");
    }

    #[test]
    fn close_shrinks_the_membership_a_collective_waits_for() {
        // Node 1's write gathers while node 0 still has the file open;
        // node 0's close must release it as a singleton.
        let s0 = vec![
            open(0, AccessMode::MUnix),
            ScriptOp::Compute(SimDuration::from_millis(10)),
            ScriptOp::Io(IoRequest::close(0)),
        ];
        let s1 = vec![
            open(0, AccessMode::MUnix),
            ScriptOp::Io(IoRequest::write(0, 1000)),
        ];
        let (trace, _) = run_scripts(&machine(), vec![FileSpec::output("f")], vec![s0, s1]);
        let wr = trace.of_op(IoOp::Write).next().unwrap();
        assert_eq!((wr.node, wr.bytes), (1, 1000));
        assert!(
            wr.duration() >= SimDuration::from_millis(10).nanos(),
            "write must have waited for the close: {}",
            wr.duration()
        );
    }

    #[test]
    fn sync_force_flushes_a_partial_write_gather() {
        // Node 0 syncs while its async write sits in a gather the second
        // opener will never contribute to; the commit must not park
        // forever.
        let s0 = vec![
            open(0, AccessMode::MUnix),
            ScriptOp::IoAsync(IoRequest::write(0, 4096)),
            ScriptOp::Io(IoRequest::sync(0)),
            ScriptOp::WaitOldest,
            ScriptOp::Io(IoRequest::close(0)),
        ];
        let s1 = vec![
            open(0, AccessMode::MUnix),
            ScriptOp::Compute(SimDuration::from_millis(50)),
            ScriptOp::Io(IoRequest::close(0)),
        ];
        let (engine, _) = run_engine(&machine(), vec![FileSpec::output("f")], vec![s0, s1]);
        assert_eq!(engine.service().cio_stats().flushed_partial, 1);
        assert_eq!(engine.service().file_len(0), 4096);
        let trace = engine.into_service().finish_trace();
        // The commit interval is traced and spans the flushed write.
        assert_eq!(trace.of_op(IoOp::Flush).count(), 1);
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
        let mut expect_off = 0;
        for (off, bytes) in extents {
            assert_eq!(off, expect_off);
            expect_off += bytes;
        }
        assert_eq!(expect_off, 600);
    }

    #[test]
    fn msync_assigns_shared_pointer_in_node_order() {
        // Node 2 issues first; offsets must still come out in rank order.
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
        let (engine, _) = run_engine(
            &machine(),
            vec![FileSpec::input("shared", 1 << 20)],
            (0..4).map(|_| mk()).collect(),
        );
        let segments = engine.service().segments_completed();
        let trace = engine.into_service().finish_trace();
        assert_eq!(trace.of_op(IoOp::Read).count(), 8);
        let mut offs: Vec<u64> = trace.of_op(IoOp::Read).map(|e| e.offset).collect();
        offs.sort_unstable();
        offs.dedup();
        assert_eq!(offs, vec![0, 8192]);
        // One aggregated segment per coalesced read.
        assert_eq!(segments, 2);
    }

    #[test]
    fn shared_seeks_still_serialize_at_the_metadata_owner() {
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
        let rpc = machine().io_sw.seek_shared_rpc.nanos();
        assert!(durations[0] >= rpc);
        assert!(
            durations[1] >= 2 * rpc,
            "second seek must queue: {durations:?}"
        );
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
        let issue = trace.of_op(IoOp::AsyncRead).next().unwrap().duration();
        let wait = trace.of_op(IoOp::IoWait).next().unwrap().duration();
        assert!(issue < wait, "issue {issue} !< wait {wait}");
    }

    #[test]
    fn metadata_verbs_match_pfs_semantics() {
        let script = vec![
            open(0, AccessMode::MUnix), // create
            ScriptOp::Io(IoRequest::write(0, 100)),
            ScriptOp::Io(IoRequest::flush(0)),
            ScriptOp::Io(IoRequest::lsize(0)),
            ScriptOp::Io(IoRequest::close(0)),
            open(0, AccessMode::MUnix), // plain open
        ];
        let (trace, _) = run_scripts(&machine(), vec![FileSpec::output("f")], vec![script]);
        assert_eq!(trace.of_op(IoOp::Flush).count(), 1);
        assert_eq!(trace.of_op(IoOp::Lsize).count(), 1);
        let opens: Vec<u64> = trace.of_op(IoOp::Open).map(|e| e.duration()).collect();
        assert!(
            opens[0] > opens[1],
            "create {} !> open {}",
            opens[0],
            opens[1]
        );
    }
}

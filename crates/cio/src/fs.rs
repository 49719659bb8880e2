//! The collective two-phase I/O model: a [`paragon_sim::IoService`].
//!
//! `Cio` keeps PFS's metadata semantics — opens, creates, closes, `lsize`,
//! shared-file seeks and `Sync` commits are the embedded [`FsCore`]'s, the
//! same code PFS runs — and replaces the *data path* with two-phase
//! collective transfers:
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
//!   segment pump under the buddy-failover policy, so retry, failover,
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

use crate::partition::{self, Domain, Extent};

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

/// The collective two-phase I/O model.
pub struct Cio {
    /// The shared substrate: file table, segment pump (buddy-failover
    /// policy), metadata server, link state for the exchange phase, faults,
    /// `Sync` ledger, trace.
    pub core: FsCore,
    /// Per-file gather buckets.
    gather: FastMap<u32, Bucket>,
    /// Collectives waiting out their exchange delay (timer id → group).
    exchange: FastMap<u64, PendingExchange>,
    /// Dispatched collectives (collective id → state).
    collectives: FastMap<u64, Collective>,
    next_coll: u64,
    /// Armed per-collective deadline timers (timer id → collective id).
    timeout_timers: FastMap<u64, u64>,
    stats: CioStats,
}

/// Whether `file` still has in-flight write traffic a `Sync` must wait
/// out: a gathered write member, a write collective in its exchange phase,
/// or aggregated write segments on the I/O nodes.
fn writes_in_flight(
    collectives: &FastMap<u64, Collective>,
    exchange: &FastMap<u64, PendingExchange>,
    gather: &FastMap<u32, Bucket>,
    file: u32,
) -> bool {
    collectives.values().any(|c| c.file == file && c.write)
        || exchange.values().any(|x| x.file == file && x.write)
        || gather.get(&file).is_some_and(|b| !b.writes.is_empty())
}

impl Cio {
    /// Build a CIO over the given machine, tracing into `sink`.
    pub fn new(machine: &MachineConfig, sink: TraceSink) -> Cio {
        Cio::with_faults(machine, sink, FaultSchedule::new())
    }

    /// Build a CIO with an injected fault schedule. An empty schedule is
    /// exactly [`Cio::new`]: no timers armed, bit-identical healthy runs.
    pub fn with_faults(machine: &MachineConfig, sink: TraceSink, schedule: FaultSchedule) -> Cio {
        let failover = FailoverPolicy::Buddy {
            max_retries: machine.fault.max_retries,
        };
        Cio {
            core: FsCore::new(machine, sink, schedule, failover, 0),
            gather: FastMap::default(),
            exchange: FastMap::default(),
            collectives: FastMap::default(),
            next_coll: 0,
            timeout_timers: FastMap::default(),
            stats: CioStats::default(),
        }
    }

    /// Collective-machinery counters.
    pub fn cio_stats(&self) -> CioStats {
        self.stats
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
        self.core.files.state(file).extend_to(offset + bytes);
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
        let domains = partition::partition(&self.core.cfg.layout, &extents);
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
        let op = data_op_kind(write, m.is_async);
        if !m.is_async {
            self.core.recorder.record(
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

    /// Release the `Sync` waiters on `file` if its last in-flight write
    /// just finished.
    fn drain_syncs(&mut self, file: u32, now: SimTime, sched: &mut Sched) {
        let (collectives, exchange, gather) = (&self.collectives, &self.exchange, &self.gather);
        self.core.drain_sync_waiters(file, now, sched, || {
            writes_in_flight(collectives, exchange, gather, file)
        });
    }

    /// Fail every member of a collective with a typed fault.
    fn fail_collective(&mut self, cid: u64, fault: IoFault, now: SimTime, sched: &mut Sched) {
        let Some(c) = self.collectives.remove(&cid) else {
            return;
        };
        for id in &c.seg_ids {
            self.core.pump.forget(*id);
        }
        let op = data_op_kind(c.write, false);
        for m in &c.members {
            if !m.is_async {
                self.core.recorder.record(
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
        self.drain_syncs(c.file, now, sched);
    }

    /// Complete a finished collective: every member pays its own client
    /// copy cost and reports its own byte count; a collective-level fault
    /// (redundancy-exhausted array) reaches every member.
    fn finish_collective(&mut self, c: Collective, now: SimTime, sched: &mut Sched) {
        let rate = self.core.cfg.io_sw.client_byte_rate;
        let op = data_op_kind(c.write, false);
        for m in &c.members {
            let done = self.core.client.copy_done(m.node, now, m.bytes, rate);
            if !m.is_async {
                self.core.recorder.record(
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
        self.drain_syncs(c.file, now, sched);
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
        if let Some(cid) =
            self.core
                .pump
                .submit_seg(now, io, req, attempt, &mut self.core.timers, sched)
        {
            let members = self
                .collectives
                .get(&cid)
                .map_or(1, |c| c.members.len() as u64);
            self.core.stats.unavailable += members;
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
        let slot_base = self.core.files.slot_base(file);
        let capacity = self.core.cfg.array_capacity;
        if domains
            .iter()
            .any(|d| slot_base + d.local_offset + d.bytes > capacity)
        {
            // The aggregate overflows its allocator slot: a typed data-path
            // failure on every member, not a crash of the run.
            self.core.stats.unavailable += members.len() as u64;
            let op = data_op_kind(write, false);
            for m in &members {
                if !m.is_async {
                    self.core.recorder.record(
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
            self.drain_syncs(file, now, sched);
            return;
        }
        let cid = self.next_coll;
        self.next_coll += 1;
        let mut reqs = Vec::with_capacity(domains.len());
        let mut seg_ids = Vec::with_capacity(domains.len());
        for d in &domains {
            let req = self
                .core
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
        if self.core.faults.enabled() && self.collectives.contains_key(&cid) {
            // Hard deadline: no collective hangs forever under a fault
            // schedule with no recovery.
            let id = self.core.timers.alloc();
            self.timeout_timers.insert(id, cid);
            sched.timer(now + self.core.fault_params.request_timeout, id);
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
        if forced && p < self.core.files.get(file).opener_count() {
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
                let st = self.core.files.state(file);
                st.participants();
                let mut ordered = members.clone();
                let st = self.core.files.state(file);
                ordered.sort_by_key(|m| st.rank_of(m.node));
                for m in ordered {
                    let st = self.core.files.state(file);
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
                let st = self.core.files.state(file);
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
                self.core.files.state(file).extend_to(m.offset + m.bytes);
            } else {
                m.bytes = m
                    .bytes
                    .min(self.core.files.len_of(file).saturating_sub(m.offset));
            }
            if m.bytes == 0 {
                self.complete_empty_member(file, write, m, now, sched);
            } else {
                live.push(m);
            }
        }
        if live.is_empty() {
            self.drain_syncs(file, now, sched);
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
        let domains = partition::partition(&self.core.cfg.layout, &extents);

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
        let cfg = &self.core.cfg;
        let links = &self.core.links;
        let descriptors = cfg.mesh.broadcast_time_via(
            &cfg.comm,
            links.worst(),
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
                    let hops = cfg.mesh.compute_hops(m.node, aggregator);
                    // The shuffle message lands in the domain's I/O-node
                    // region: it pays that region's link quality.
                    let q = links.region(d.io_node);
                    shuffle = shuffle.max(cfg.mesh.msg_time_via(&cfg.comm, q, hops, ov));
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
        self.core.recorder.record(
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
            let id = self.core.timers.alloc();
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
        let openers = self.core.files.get(file).opener_count();
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
        let files = &self.core.files;
        let mode = files.get(file).mode.unwrap_or_else(|| {
            panic!(
                "data op on closed file {} by node {node}",
                files.get(file).spec.name
            )
        });
        let spec = match mode {
            AccessMode::MUnix | AccessMode::MAsync => {
                let st = self.core.files.state(file);
                let pos = st.pos.entry(node).or_insert(0);
                let offset = req.offset.unwrap_or(*pos);
                *pos = offset + req.bytes;
                // No atomic-write RPC: the conforming partition itself
                // guarantees M_UNIX's non-interleaving of concurrent
                // writers.
                OffsetSpec::At(offset)
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
                OffsetSpec::At(record_index * rs)
            }
            AccessMode::MLog => {
                // The exchange orders the group; the shared pointer
                // advances in arrival order with no token serialization.
                let st = self.core.files.state(file);
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
                OffsetSpec::Ordered | OffsetSpec::Same => self.core.files.get(file).shared_pos,
            };
            let issue_end = now + self.core.cfg.io_sw.async_issue;
            self.core.recorder.record(
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
        let file = req.file;
        match req.verb {
            IoVerb::Open => {
                let mode = AccessMode::from_code(req.hint)
                    .unwrap_or_else(|| panic!("bad access-mode code {}", req.hint));
                self.core.open(now, token, node, file, mode, sched);
            }
            IoVerb::Close => {
                self.core.files.state(file).close(node);
                // The membership a collective waits for just shrank: a
                // bucket the remaining openers have all contributed to can
                // now go.
                self.try_trigger(file, true, false, now, sched);
                self.try_trigger(file, false, false, now, sched);
                let cost = self.core.cfg.io_sw.close;
                self.core
                    .meta_op(now, token, node, file, IoOp::Close, cost, 0, sched);
            }
            IoVerb::Seek => {
                // Collective I/O does not change the metadata path: shared
                // seeks serialize at the file's metadata owner, as on PFS.
                let target = req.offset.expect("seek needs an offset");
                self.core.seek(now, token, node, file, target, sched);
            }
            IoVerb::Flush => self.core.flush(now, token, node, file, sched),
            IoVerb::Lsize => self.core.lsize(now, token, node, file, sched),
            IoVerb::Sync => {
                // A commit must not park behind members that will never
                // trigger: force-flush the file's write gather first, then
                // wait out whatever is actually in flight.
                self.try_trigger(file, true, true, now, sched);
                let busy = writes_in_flight(&self.collectives, &self.exchange, &self.gather, file);
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
            let faults = self.core.faults.enabled();
            match self.core.pump.node_tick(now, timer, sched) {
                NodeTick::Stale => debug_assert!(faults, "stale i/o-node timer on a healthy run"),
                NodeTick::Rebuild => {}
                NodeTick::Orphan => debug_assert!(faults, "segment with no owner"),
                NodeTick::Seg {
                    owner: cid,
                    data_lost,
                } => {
                    let Some(c) = self.collectives.get_mut(&cid) else {
                        debug_assert!(faults, "collective missing");
                        return;
                    };
                    if data_lost {
                        self.core.stats.data_loss_segments += 1;
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
        } else if let Some(ev) = self.core.faults.take(timer) {
            // Only a node crash hands back segments: they take the buddy
            // failover chain, and a collective no server accepts fails
            // typed on every member.
            for req in self.core.apply_fault(now, ev, sched) {
                if let Some(cid) = self.core.reject_lost(now, ev.io_node, req, sched) {
                    let members = self
                        .collectives
                        .get(&cid)
                        .map_or(1, |c| c.members.len() as u64);
                    self.core.stats.unavailable += members;
                    self.fail_collective(cid, IoFault::Unavailable, now, sched);
                }
            }
        } else if let Some(r) = self.core.pump.take_retry(timer) {
            // Retry only while the owning collective is still alive.
            if self.core.pump.owns(r.req.id) {
                self.submit_or_fail(now, r.io, r.req, r.attempt, sched);
            }
        } else if let Some(cid) = self.timeout_timers.remove(&timer) {
            if self.collectives.contains_key(&cid) {
                self.core.stats.timeouts += 1;
                self.fail_collective(cid, IoFault::Timeout, now, sched);
            }
        } else if !self.core.retry_meta(now, timer, sched) {
            // Phase-1 exchange complete: dispatch the collective.
            let x = self.exchange.remove(&timer).expect("unknown timer");
            self.dispatch_collective(now, x, sched);
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

    fn run_engine(
        machine: &MachineConfig,
        files: Vec<FileSpec>,
        scripts: Vec<Vec<ScriptOp>>,
    ) -> (Engine<Cio>, paragon_sim::EngineReport) {
        let mut cio = Cio::new(machine, TraceSink::new("test"));
        for f in files {
            cio.core.register(f);
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
        cio.core
            .sink_mut()
            .set_run_info(machine.compute_nodes, report.wall.nanos());
        (cio.core.finish_trace(), report)
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
        let trace = engine.into_service().core.finish_trace();
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
        assert_eq!(engine.service().core.pump.segments_completed(), 2);
        let loads = engine.service().core.node_loads();
        assert_eq!(loads.len(), 2);
        for l in loads {
            assert_eq!(l.write_reqs, 1, "one aggregated request per node");
            assert_eq!(l.write_bytes, 64 * 1024);
        }
        let trace = engine.into_service().core.finish_trace();
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
        let trace = engine.into_service().core.finish_trace();
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
        assert_eq!(engine.service().core.file_len(0), 4096);
        let trace = engine.into_service().core.finish_trace();
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
        let segments = engine.service().core.pump.segments_completed();
        let trace = engine.into_service().core.finish_trace();
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

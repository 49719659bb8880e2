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
//!   sequential transfer per file domain*; the whole collective is one
//!   [`Request`] under the core's buddy-failover lifecycle, the one PFS
//!   uses, so retry, failover, crash, timeout, and the typed fan-out of a
//!   failure to every participant are exactly the substrate's. When the
//!   last domain lands, every member completes with its own byte count and
//!   client copy cost.
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
use paragon_sim::program::{IoRequest, IoToken, IoVerb};
use paragon_sim::{MachineConfig, NodeId, SimDuration, SimTime};
use sio_core::event::{IoEvent, IoOp};
use sio_core::hash::FastMap;
use sio_core::trace::TraceSink;
use sio_fskit::layout::Segment;
use sio_fskit::mode::AccessMode;
use sio_fskit::pump::FailoverPolicy;
use sio_fskit::{Fired, FsCore, Member, Members, Request, Staging, SHORT_PATH};

use crate::partition::{self, Domain, Extent};

/// Assumed wire size of one extent descriptor in the phase-1 allgather.
const DESCRIPTOR_BYTES: u64 = 64;

/// How a gathered member's file offset is fixed.
#[derive(Debug, Clone, Copy)]
enum OffsetSpec {
    /// Resolved at issue time (M_UNIX, M_ASYNC, M_RECORD, M_LOG).
    At,
    /// Shared pointer, assigned in node-rank order at formation (M_SYNC).
    Ordered,
    /// Shared pointer, one offset for the whole group (M_GLOBAL).
    Same,
}

/// Per-file gather buckets, one per transfer direction (a collective is
/// same-direction by construction).
#[derive(Debug, Default)]
struct Bucket {
    writes: Gather,
    reads: Gather,
}

/// Members gathered in one direction, with the count of distinct nodes
/// among them kept current so the trigger check is O(1) per arrival.
#[derive(Debug, Default)]
struct Gather {
    members: Vec<(OffsetSpec, Member)>,
    /// Bit per node with a member here.
    seen: Vec<u64>,
    /// Distinct nodes among `members`.
    nodes: usize,
}

impl Gather {
    fn push(&mut self, spec: OffsetSpec, m: Member) {
        let (word, bit) = (m.node as usize / 64, 1u64 << (m.node % 64));
        if word >= self.seen.len() {
            self.seen.resize(word + 1, 0);
        }
        if self.seen[word] & bit == 0 {
            self.seen[word] |= bit;
            self.nodes += 1;
        }
        self.members.push((spec, m));
    }

    /// Take every member, leaving the gather empty.
    fn take(&mut self) -> Vec<(OffsetSpec, Member)> {
        self.seen.fill(0);
        self.nodes = 0;
        std::mem::take(&mut self.members)
    }
}

/// A formed collective waiting out its phase-1 exchange delay.
#[derive(Debug)]
struct Formed {
    file: u32,
    write: bool,
    members: Vec<Member>,
    domains: Vec<Domain>,
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
    /// policy), request lifecycle, metadata server, link state for the
    /// exchange phase, faults, `Sync` ledger, trace.
    pub core: FsCore,
    /// Per-file gather buckets.
    gather: FastMap<u32, Bucket>,
    /// Collectives waiting out their exchange delay (timer id → group).
    exchange: FastMap<u64, Formed>,
    stats: CioStats,
}

/// Whether `file` has write traffic not yet dispatched: a gathered write
/// member, or a write collective in its exchange phase. A `Sync` waits for
/// it as for aggregated write segments on the I/O nodes.
fn held_writes(exchange: &FastMap<u64, Formed>, gather: &FastMap<u32, Bucket>, file: u32) -> bool {
    exchange.values().any(|x| x.file == file && x.write)
        || gather
            .get(&file)
            .is_some_and(|b| !b.writes.members.is_empty())
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
        let m = Member {
            token,
            node,
            issued: now,
            is_async: true,
            offset,
            bytes,
        };
        if bytes == 0 {
            self.core
                .recorder
                .complete_data(sched, file, true, &m, now, 0, None);
            return;
        }
        let domains = partition::partition(&self.core.cfg.layout, &[Extent { offset, bytes }]);
        let x = Formed {
            file,
            write: true,
            members: vec![m],
            domains,
        };
        self.dispatch_collective(now, x, sched);
    }

    /// Phase 2: issue the collective as one request, one aggregated
    /// sequential transfer per file domain.
    fn dispatch_collective(&mut self, now: SimTime, x: Formed, sched: &mut Sched) {
        let runs: Vec<Segment> = x
            .domains
            .iter()
            .map(|d| Segment {
                io_node: d.io_node,
                local_offset: d.local_offset,
                bytes: d.bytes,
            })
            .collect();
        let req = Request::new(x.file, x.write, Members::Many(x.members));
        let (exchange, gather) = (&self.exchange, &self.gather);
        let held = |f| held_writes(exchange, gather, f);
        if self
            .core
            .issue(now, req, Staging::Runs(&runs), sched, &held)
        {
            self.stats.aggregated_extents += runs.len() as u64;
        }
    }

    /// Complete a finished collective: every member pays its own client
    /// copy cost and reports its own byte count; a collective-level fault
    /// (redundancy-exhausted array) reaches every member.
    fn finish_collective(&mut self, req: Request, now: SimTime, sched: &mut Sched) {
        let core = &mut self.core;
        let rate = core.cfg.io_sw.client_byte_rate;
        for m in req.members.iter() {
            let done = core.client.copy_done(m.node, now, m.bytes, rate);
            core.recorder
                .complete_data(sched, req.file, req.write, m, done, m.bytes, req.fault);
        }
        self.drain_syncs(req.file, now, sched);
    }

    /// Release the `Sync` waiters on `file` if its last in-flight write
    /// just finished.
    fn drain_syncs(&mut self, file: u32, now: SimTime, sched: &mut Sched) {
        let (exchange, gather) = (&self.exchange, &self.gather);
        self.core
            .drain_syncs(file, now, sched, &|f| held_writes(exchange, gather, f));
    }

    /// Form a collective from gathered members: resolve offsets, clamp
    /// byte counts, compute the conforming partition, charge the phase-1
    /// exchange, and dispatch (immediately for singletons, after the
    /// exchange delay otherwise).
    fn form_collective(
        &mut self,
        file: u32,
        write: bool,
        gathered: Vec<(OffsetSpec, Member)>,
        forced: bool,
        now: SimTime,
        sched: &mut Sched,
    ) {
        // Distinct participating nodes, sorted: the aggregator electorate.
        let mut parts: Vec<NodeId> = gathered.iter().map(|(_, m)| m.node).collect();
        parts.sort_unstable();
        parts.dedup();
        let p = parts.len();
        if forced && p < self.core.files.get(file).opener_count() {
            self.stats.flushed_partial += 1;
        }

        // Resolve offsets. `Ordered` assigns the shared pointer in
        // node-rank order; `Same` advances it once for the whole group.
        let spec = gathered[0].0;
        let count = gathered.len() as u64;
        let mut members: Vec<Member> = gathered.into_iter().map(|(_, m)| m).collect();
        let st = self.core.files.state(file);
        match spec {
            OffsetSpec::At => {}
            OffsetSpec::Ordered => {
                members.sort_by_key(|m| st.rank_of(m.node));
                for m in &mut members {
                    m.offset = st.shared_pos;
                    st.shared_pos += m.bytes;
                }
            }
            OffsetSpec::Same => {
                let bytes = members[0].bytes;
                debug_assert!(members.iter().all(|m| m.bytes == bytes));
                for m in &mut members {
                    m.offset = st.shared_pos;
                }
                st.shared_pos += bytes;
            }
        }

        // Clamp: writes extend the file, reads clamp to EOF. Members left
        // with nothing to move complete on the short software path.
        let mut live: Vec<Member> = Vec::with_capacity(members.len());
        for mut m in members {
            let st = self.core.files.state(file);
            if write {
                st.extend_to(m.offset + m.bytes);
            } else {
                m.bytes = m.bytes.min(st.len.saturating_sub(m.offset));
            }
            if m.bytes == 0 {
                let done = now + SHORT_PATH;
                self.core
                    .recorder
                    .complete_data(sched, file, write, &m, done, 0, None);
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
        let pending = Formed {
            file,
            write,
            members: live,
            domains,
        };

        if p <= 1 {
            // Solo opener: a singleton collective has nothing to exchange.
            self.stats.singletons += 1;
            self.dispatch_collective(now, pending, sched);
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
            DESCRIPTOR_BYTES * count,
        );
        let mut shuffle = SimDuration::ZERO;
        for d in &pending.domains {
            let aggregator = parts[d.io_node as usize % p];
            for m in &pending.members {
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
        self.stats.members += pending.members.len() as u64;
        self.stats.exchange += exchange;

        // The exchange is a real interval on the mesh: trace it on the
        // lead (lowest-numbered) participant, spanning formation → ready,
        // with the aggregate extent.
        let union_lo = pending
            .domains
            .iter()
            .flat_map(|d| d.pieces.first())
            .map(|e| e.offset)
            .min()
            .unwrap_or(0);
        let total: u64 = pending.domains.iter().map(|d| d.bytes).sum();
        self.core.recorder.record(
            IoEvent::new(parts[0], file, IoOp::IoWait)
                .span(now.nanos(), ready.nanos())
                .extent(union_lo, total),
        );

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
        let gather = if write {
            &mut bucket.writes
        } else {
            &mut bucket.reads
        };
        if gather.members.is_empty() || (!forced && gather.nodes < openers) {
            return;
        }
        let taken = gather.take();
        self.form_collective(file, write, taken, forced, now, sched);
    }

    /// Gather a data operation according to the file's mode, then check
    /// the collective trigger. Offsets resolve at issue (no atomic-write
    /// RPC: the conforming partition itself guarantees M_UNIX's
    /// non-interleaving of concurrent writers; M_LOG's shared pointer
    /// advances in arrival order with no token serialization, the exchange
    /// orders the group), except M_SYNC's and M_GLOBAL's, which resolve at
    /// formation.
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
        let (mode, at) = self.core.resolve_offset(now, node, &req, is_async);
        let spec = match (mode, at) {
            (_, Some(_)) => OffsetSpec::At,
            (AccessMode::MSync, None) => OffsetSpec::Ordered,
            (_, None) => OffsetSpec::Same,
        };
        let m = Member {
            token,
            node,
            issued: now,
            is_async,
            offset: at.unwrap_or(0),
            bytes: req.bytes,
        };
        let bucket = self.gather.entry(file).or_default();
        let gather = if write {
            &mut bucket.writes
        } else {
            &mut bucket.reads
        };
        gather.push(spec, m);
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
                let held = held_writes(&self.exchange, &self.gather, file);
                self.core.sync(now, token, node, file, held, sched);
            }
            IoVerb::Read => self.data_op(now, token, node, req, false, is_async, sched),
            IoVerb::Write => self.data_op(now, token, node, req, true, is_async, sched),
        }
    }

    fn on_start(&mut self, sched: &mut Sched) {
        self.core.on_start(sched);
    }

    fn on_timer(&mut self, now: SimTime, timer: u64, sched: &mut Sched) {
        let (exchange, gather) = (&self.exchange, &self.gather);
        let held = |f| held_writes(exchange, gather, f);
        match self.core.on_timer(now, timer, sched, &held) {
            Fired::Finished(req) => self.finish_collective(req, now, sched),
            Fired::Foreign => {
                // Phase-1 exchange complete: dispatch the collective.
                let x = self.exchange.remove(&timer).expect("unknown timer");
                self.dispatch_collective(now, x, sched);
            }
            Fired::Handled | Fired::Segment { .. } | Fired::Lost(_) => {}
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
    fn repeated_members_from_one_node_do_not_form_a_collective_early() {
        // Node 0 gathers two async writes before node 1 arrives: two
        // members, one distinct node, so the collective must wait for node
        // 1 and then carry all three members.
        let s0 = vec![
            open(0, AccessMode::MUnix),
            ScriptOp::Barrier(0),
            ScriptOp::IoAsync(IoRequest::write(0, 4096)),
            ScriptOp::IoAsync(IoRequest::write(0, 4096)),
            ScriptOp::WaitAll,
        ];
        let s1 = vec![
            open(0, AccessMode::MUnix),
            ScriptOp::Barrier(0),
            ScriptOp::Compute(SimDuration::from_millis(20)),
            ScriptOp::Io(IoRequest::seek(0, 8192)),
            ScriptOp::Io(IoRequest::write(0, 4096)),
        ];
        let (engine, _) = run_engine(&machine(), vec![FileSpec::output("f")], vec![s0, s1]);
        let stats = engine.service().cio_stats();
        assert_eq!((stats.collectives, stats.members), (1, 3));
        assert_eq!(stats.singletons, 0);
        let trace = engine.into_service().core.finish_trace();
        // Node 0 (the lead) carries its two async waits and the exchange.
        let waits: Vec<_> = trace.of_op(IoOp::IoWait).filter(|e| e.node == 0).collect();
        assert_eq!(waits.len(), 3);
        for w in waits {
            assert!(
                w.end >= SimDuration::from_millis(20).nanos(),
                "node 0's write completed before node 1 arrived: {w:?}"
            );
        }
    }

    #[test]
    fn forced_flush_resets_the_gather_for_the_next_round() {
        // Node 0's async write is force-flushed by its own `Sync` while node
        // 1 computes. Its next write opens a fresh gather that must wait
        // for node 1 again rather than count node 0 as already present.
        let s0 = vec![
            open(0, AccessMode::MUnix),
            ScriptOp::IoAsync(IoRequest::write(0, 4096)),
            ScriptOp::Io(IoRequest::sync(0)),
            ScriptOp::WaitOldest,
            ScriptOp::Io(IoRequest::write(0, 4096)),
        ];
        let s1 = vec![
            open(0, AccessMode::MUnix),
            ScriptOp::Compute(SimDuration::from_millis(50)),
            ScriptOp::Io(IoRequest::seek(0, 8192)),
            ScriptOp::Io(IoRequest::write(0, 4096)),
        ];
        let (engine, _) = run_engine(&machine(), vec![FileSpec::output("f")], vec![s0, s1]);
        let stats = engine.service().cio_stats();
        assert_eq!(stats.flushed_partial, 1);
        assert_eq!(stats.singletons, 1, "only the forced flush runs solo");
        assert_eq!((stats.collectives, stats.members), (1, 2));
        let trace = engine.into_service().core.finish_trace();
        let second = trace
            .of_op(IoOp::Write)
            .filter(|e| e.node == 0)
            .max_by_key(|e| e.start)
            .unwrap();
        assert!(
            second.end >= SimDuration::from_millis(50).nanos(),
            "node 0's second write did not wait for node 1: {second:?}"
        );
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

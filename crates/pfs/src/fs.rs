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
//!   interleaving, or collective coalescing), then the op goes to the
//!   I/O nodes as one [`Request`] under the core's buddy-failover
//!   lifecycle, and completes when its last segment does plus the client
//!   copy cost;
//! * **tracing** — every application-visible call is recorded; asynchronous
//!   reads record their issue cost, and the engine's `on_iowait` hook
//!   records the un-overlapped wait, exactly the two rows RENDER's Table 3
//!   reports.
//!
//! Everything mode-agnostic lives in the embedded [`FsCore`]; this module
//! is the PFS *policy* over that substrate: the serialized acquisitions of
//! `M_UNIX` writes and `M_LOG`, `M_SYNC` turn order, `M_GLOBAL` coalescing,
//! and request completion — one client copy, plus a broadcast to an
//! `M_GLOBAL` group.

use paragon_sim::engine::{IoService, Sched};
use paragon_sim::fault::FaultSchedule;
use paragon_sim::program::{IoRequest, IoToken, IoVerb};
use paragon_sim::{MachineConfig, NodeId, SimDuration, SimTime};
use sio_core::hash::FastMap;
use sio_core::trace::TraceSink;
use sio_fskit::mode::AccessMode;
use sio_fskit::pump::FailoverPolicy;
use sio_fskit::{Fired, FsCore, Member, Members, Request, Staging, SHORT_PATH};
use std::collections::BTreeMap;

/// A data op waiting its turn: a serialized acquisition, or an `M_SYNC`
/// slot.
#[derive(Debug, Clone, Copy)]
struct Op {
    file: u32,
    write: bool,
    m: Member,
}

/// The Intel PFS model.
pub struct Pfs {
    /// The shared substrate: file table, segment pump (buddy-failover
    /// policy), request lifecycle, metadata server, faults, `Sync` ledger,
    /// trace.
    pub core: FsCore,
    /// Data ops waiting for a serialized token or RPC (timer id → op).
    deferred: FastMap<u64, Op>,
    /// M_GLOBAL coalescing: file → waiting participants.
    global_waiting: FastMap<u32, Vec<Member>>,
    /// M_SYNC parking: file → node → parked op.
    sync_parked: FastMap<u32, BTreeMap<NodeId, Op>>,
}

/// Whether `file` has a write still waiting out a serialized acquisition:
/// a `Sync` waits for it as for a write in flight.
fn deferred_writes(deferred: &FastMap<u64, Op>, file: u32) -> bool {
    deferred.values().any(|d| d.file == file && d.write)
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
            deferred: FastMap::default(),
            global_waiting: FastMap::default(),
            sync_parked: FastMap::default(),
        }
    }

    /// Accept one coalesced burst-log drain extent as a background write:
    /// the full request lifecycle (staging, backoff, buddy failover, fault
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
        let m = Member {
            token,
            node,
            issued: now,
            is_async: true,
            offset,
            bytes,
        };
        self.dispatch(now, file, true, Members::One(m), sched);
    }

    /// Send a resolved data op — or a coalesced `M_GLOBAL` group, whose
    /// members share one extent — to the I/O nodes.
    fn dispatch(
        &mut self,
        now: SimTime,
        file: u32,
        write: bool,
        mut members: Members,
        sched: &mut Sched,
    ) {
        let Member { offset, bytes, .. } = members[0];
        let st = self.core.files.state(file);
        let bytes = if write {
            st.extend_to(offset + bytes);
            bytes
        } else {
            bytes.min(st.len.saturating_sub(offset))
        };
        for m in members.iter_mut() {
            m.bytes = bytes;
        }
        let req = Request::new(file, write, members);
        if bytes == 0 {
            // Nothing to move: a short software path only.
            self.finish(req, now + SHORT_PATH, sched);
            return;
        }
        let deferred = &self.deferred;
        let staging = Staging::Extent { offset, bytes };
        self.core
            .issue(now, req, staging, sched, &|f| deferred_writes(deferred, f));
    }

    /// Run a data op once a serialized acquisition completes at `at`.
    fn defer(&mut self, at: SimTime, op: Op, sched: &mut Sched) {
        let id = self.core.timers.alloc();
        self.deferred.insert(id, op);
        sched.timer(at, id);
    }

    /// Complete a request: one client copy on the lead node, broadcast to
    /// an `M_GLOBAL` group, and every member completes at once.
    fn finish(&mut self, req: Request, now: SimTime, sched: &mut Sched) {
        let core = &mut self.core;
        let Member { node, bytes, .. } = req.members[0];
        let rate = core.cfg.io_sw.client_byte_rate;
        let mut done = core.client.copy_done(node, now, bytes, rate);
        let n = req.members.len() as u32;
        if n > 1 {
            // M_GLOBAL: one physical I/O, then an internal broadcast to the
            // participant group.
            let (mesh, comm) = (&core.cfg.mesh, &core.cfg.comm);
            done += mesh.broadcast_time_via(comm, core.links.worst(), n, bytes);
        }
        for m in req.members.iter() {
            core.recorder
                .complete_data(sched, req.file, req.write, m, done, m.bytes, req.fault);
        }
        let deferred = &self.deferred;
        self.core
            .drain_syncs(req.file, now, sched, &|f| deferred_writes(deferred, f));
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
        let (mode, at) = self.core.resolve_offset(now, node, &req, is_async);
        let m = Member {
            token,
            node,
            issued: now,
            is_async,
            offset: at.unwrap_or(0),
            bytes: req.bytes,
        };
        match mode {
            // M_UNIX preserves operation atomicity: concurrent writers to a
            // shared file serialize at the file's metadata owner. M_ASYNC
            // explicitly waives atomicity and skips this.
            AccessMode::MUnix if write && self.core.files.get(file).opener_count() > 1 => {
                let rpc = self.core.cfg.io_sw.atomic_write_rpc;
                let acquire = self.core.owner_rpc(file, now, rpc);
                self.defer(acquire, Op { file, write, m }, sched);
            }
            AccessMode::MUnix | AccessMode::MAsync | AccessMode::MRecord => {
                self.dispatch(now, file, write, Members::One(m), sched);
            }
            AccessMode::MLog => {
                // The shared pointer moved at issue; the op runs once it
                // holds the pointer token (serialized).
                let token_cost = self.core.cfg.io_sw.pointer_token;
                let st = self.core.files.state(file);
                let acquire = st.token_free.max(now) + token_cost;
                st.token_free = acquire;
                if acquire > now {
                    self.defer(acquire, Op { file, write, m }, sched);
                } else {
                    self.dispatch(now, file, write, Members::One(m), sched);
                }
            }
            AccessMode::MSync => {
                let parked = self.sync_parked.entry(file).or_default();
                let prev = parked.insert(node, Op { file, write, m });
                assert!(prev.is_none(), "node {node} issued overlapping M_SYNC ops");
                self.drain_sync(now, file, sched);
            }
            AccessMode::MGlobal => {
                let n = self.core.files.state(file).participants().len();
                let waiting = self.global_waiting.entry(file).or_default();
                waiting.push(m);
                if waiting.len() == n {
                    let mut group = std::mem::take(waiting);
                    let bytes = group[0].bytes;
                    debug_assert!(group.iter().all(|g| g.bytes == bytes));
                    let st = self.core.files.state(file);
                    let offset = st.shared_pos;
                    st.shared_pos += bytes;
                    for g in &mut group {
                        g.offset = offset;
                    }
                    self.dispatch(now, file, write, Members::Many(group), sched);
                }
            }
        }
    }

    /// Run every parked M_SYNC request whose turn has come.
    fn drain_sync(&mut self, now: SimTime, file: u32, sched: &mut Sched) {
        loop {
            let st = self.core.files.state(file);
            let turn = st.turn;
            let parts = st.participants();
            let expected = parts[(turn % parts.len() as u64) as usize];
            let parked = self.sync_parked.entry(file).or_default();
            let Some(Op { write, mut m, .. }) = parked.remove(&expected) else {
                break;
            };
            let st = self.core.files.state(file);
            st.turn += 1;
            m.offset = st.shared_pos;
            st.shared_pos += m.bytes;
            self.dispatch(now, file, write, Members::One(m), sched);
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
                let held = deferred_writes(&self.deferred, file);
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
        let deferred = &self.deferred;
        match self
            .core
            .on_timer(now, timer, sched, &|f| deferred_writes(deferred, f))
        {
            Fired::Finished(req) => self.finish(req, now, sched),
            Fired::Foreign => {
                // Deferred dispatch (M_LOG pointer token, M_UNIX atomic
                // write).
                let op = self.deferred.remove(&timer).expect("unknown deferred op");
                self.dispatch(now, op.file, op.write, Members::One(op.m), sched);
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
    use sio_core::event::IoOp;
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

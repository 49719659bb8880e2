//! Fault-injection integration tests (the X4 subsystem, whole stack).
//!
//! The contract under test, end to end:
//! * any canned single-fault schedule runs to completion with zero panics —
//!   failures surface as typed `IoFault` results, never as crashes;
//! * the fault machinery is fully dormant on healthy runs (`None` and an
//!   empty schedule are bit-identical to `run_workload`);
//! * degraded arrays are slower, rebuilds take real simulated time at the
//!   member spindle rate, and crashes are survived by retry + failover
//!   (PFS) or replay (PPFS write-behind) — all explicitly accounted.

use std::cell::RefCell;
use std::rc::Rc;

use sio::apps::workload::{
    parallel_write_kernel, run_workload, run_workload_with_faults, sequential_read_kernel, Backend,
    Workload,
};
use sio::apps::{BackendSpec, EscatParams};
use sio::core::event::IoOp;
use sio::core::sddf;
use sio::core::trace::TraceSink;
use sio::paragon::mesh::Mesh;
use sio::paragon::program::{
    IoFault, IoRequest, IoResult, NodeProgram, Resume, ScriptOp, ScriptProgram, Step,
};
use sio::paragon::{Engine, FaultSchedule, MachineConfig, NodeId, SimDuration, SimTime};
use sio::pfs::{AccessMode, FileSpec};
use sio::ppfs::PolicyConfig;

fn m() -> MachineConfig {
    MachineConfig::tiny(8, 4)
}

fn secs(s: u64) -> SimTime {
    SimTime(s * 1_000_000_000)
}

#[test]
fn none_and_empty_schedule_are_bit_identical_to_run_workload() {
    let machine = m();
    let w = EscatParams::small(8, 6).workload();
    for backend in [
        Backend::Pfs,
        Backend::Ppfs(PolicyConfig::escat_tuned()),
        Backend::Cio,
    ] {
        let plain = run_workload(&machine, &w, &backend);
        let none = run_workload_with_faults(&machine, &w, &backend, None);
        let empty = FaultSchedule::new();
        let with_empty = run_workload_with_faults(&machine, &w, &backend, Some(&empty));
        let fp = |t: &sio::core::Trace| sddf::fingerprint(t);
        assert_eq!(
            fp(&plain.trace),
            fp(&none.trace),
            "{backend:?}: None diverged"
        );
        assert_eq!(
            fp(&plain.trace),
            fp(&with_empty.trace),
            "{backend:?}: empty schedule diverged"
        );
        assert_eq!(plain.report.wall, none.report.wall);
        assert_eq!(plain.report.wall, with_empty.report.wall);
    }
}

/// Every canned single-fault schedule (and the double-failure data-loss
/// case) must complete cleanly: typed results, no panics. PPFS crash
/// schedules include the recovery event — write-behind replay needs the
/// node back (PFS instead fails over to the buddy, tested below).
#[test]
fn single_fault_schedules_never_panic() {
    let machine = m();
    let n = machine.io_nodes;
    let mut schedules: Vec<(String, FaultSchedule)> = Vec::new();
    for io in 0..n {
        let mut s = FaultSchedule::new();
        s.disk_fail(secs(1), io, 0);
        schedules.push((format!("disk-fail-{io}"), s));

        let mut s = FaultSchedule::new();
        s.disk_fail(SimTime::ZERO, io, 0).disk_repair(secs(1), io);
        schedules.push((format!("disk-repair-{io}"), s));

        let mut s = FaultSchedule::new();
        s.node_stall(secs(1), io, SimDuration::from_secs(2));
        schedules.push((format!("stall-{io}"), s));

        let mut s = FaultSchedule::new();
        s.node_crash(secs(1), io).node_recover(secs(4), io);
        schedules.push((format!("crash-recover-{io}"), s));
    }
    // Second failure on the same array: data loss, reported, not a panic.
    let mut s = FaultSchedule::new();
    s.disk_fail(SimTime::ZERO, 0, 0).disk_fail(secs(1), 0, 1);
    schedules.push(("double-failure".to_string(), s));

    let w = EscatParams::small(8, 6).workload();
    for (name, schedule) in &schedules {
        for backend in [
            Backend::Pfs,
            Backend::Ppfs(PolicyConfig::escat_tuned()),
            Backend::Cio,
        ] {
            let out = run_workload_with_faults(&machine, &w, &backend, Some(schedule));
            assert!(out.report.clean(), "{name} on {backend:?} did not finish");
        }
    }
}

#[test]
fn degraded_arrays_slow_reads_end_to_end() {
    let machine = m();
    let w = sequential_read_kernel(48, 262_144, AccessMode::MUnix);
    let healthy = run_workload(&machine, &w, &Backend::Pfs);
    let degraded_sched = FaultSchedule::all_disks_fail(SimTime::ZERO, machine.io_nodes, 0);
    let degraded = run_workload_with_faults(&machine, &w, &Backend::Pfs, Some(&degraded_sched));
    let read_ns = |out: &sio::apps::workload::RunOutput| -> u64 {
        out.trace
            .of_op(sio::core::event::IoOp::Read)
            .map(|e| e.duration())
            .sum()
    };
    assert!(
        read_ns(&degraded) > read_ns(&healthy),
        "degraded reads not slower: {} !> {}",
        read_ns(&degraded),
        read_ns(&healthy)
    );
    assert_eq!(degraded.degraded_nodes, machine.io_nodes);
}

#[test]
fn rebuild_takes_member_capacity_over_spindle_rate() {
    let machine = m();
    let w = sequential_read_kernel(16, 65_536, AccessMode::MUnix);
    let mut s = FaultSchedule::all_disks_fail(SimTime::ZERO, machine.io_nodes, 0);
    for io in 0..machine.io_nodes {
        s.disk_repair(secs(1), io);
    }
    let out = run_workload_with_faults(&machine, &w, &Backend::Pfs, Some(&s));
    assert!(out.report.clean());
    // Every array healed, and actually moved the member's data.
    assert_eq!(out.degraded_nodes, 0);
    let (chunks, bytes) = out.rebuild;
    assert!(chunks > 0, "no rebuild chunks serviced");
    assert_eq!(bytes, machine.io_nodes as u64 * machine.disk.capacity);
    // Timed, not instantaneous: the machine stays busy until roughly
    // member capacity / spindle rate (~545 s for the calibrated disk).
    let heal_floor = machine.disk.capacity as f64 / machine.disk.transfer_rate;
    assert!(
        out.wall_secs() > heal_floor,
        "rebuild finished impossibly fast: {:.0}s < {:.0}s",
        out.wall_secs(),
        heal_floor
    );
}

/// A crashed node's segments are retried with backoff and then failed over
/// to the buddy node — explicit backpressure, no silent drops, and the
/// application still gets all of its data.
#[test]
fn pfs_crash_without_recovery_fails_over_and_serves_all_data() {
    let machine = m();
    let reads = 32u32;
    let w = sequential_read_kernel(reads, 262_144, AccessMode::MUnix);
    let mut s = FaultSchedule::new();
    s.node_crash(SimTime::ZERO, 0);
    let out = run_workload_with_faults(&machine, &w, &Backend::Pfs, Some(&s));
    assert!(out.report.clean());
    let pf = out.pfs_faults.expect("pfs fault stats");
    assert!(pf.retries > 0, "rejections were not retried");
    assert!(pf.failovers > 0, "no failover happened");
    assert_eq!(pf.unavailable, 0);
    // Every read completed and returned its bytes (no faulted results).
    let read_events = out
        .trace
        .of_op(sio::core::event::IoOp::Read)
        .collect::<Vec<_>>();
    assert_eq!(read_events.len(), reads as usize);
    assert!(read_events.iter().all(|e| e.bytes == 262_144));
}

/// `nodes` readers of one shared input file, `reads` reads of `bytes` each,
/// in `mode`: one request per read under PFS `M_UNIX`, one per round for
/// an `M_GLOBAL` group or a CIO collective.
fn shared_read_workload(nodes: u32, reads: u32, bytes: u64, mode: AccessMode) -> Workload {
    let scripts = (0..nodes)
        .map(|_| {
            let mut ops = vec![
                ScriptOp::Io(IoRequest::open(0, mode.code())),
                ScriptOp::Barrier(0),
            ];
            ops.extend((0..reads).map(|_| ScriptOp::Io(IoRequest::read(0, bytes))));
            ops.push(ScriptOp::Io(IoRequest::close(0)));
            ops
        })
        .collect();
    Workload {
        label: format!("shared-read-{nodes}x{reads}-{mode}"),
        files: vec![FileSpec::input("data", (nodes * reads) as u64 * bytes)],
        scripts,
        groups: Vec::new(),
    }
}

/// The buddy-failover backends and modes whose failures fan out: per-op
/// requests (PFS `M_UNIX`), a coalesced group (PFS `M_GLOBAL`), and
/// collectives (CIO). Each with its requests per read round of 4 nodes.
const FANOUT_CASES: [(&str, AccessMode, u64); 4] = [
    ("pfs", AccessMode::MUnix, 4),
    ("pfs", AccessMode::MGlobal, 1),
    ("cio", AccessMode::MUnix, 1),
    ("cio", AccessMode::MGlobal, 1),
];

/// With every node down, requests fail with a typed `Unavailable` result
/// (zero bytes) instead of hanging or panicking — on every participant of
/// a group or collective, each counted once.
#[test]
fn all_nodes_down_yields_typed_unavailable_results() {
    let machine = MachineConfig::tiny(4, 2);
    let mut s = FaultSchedule::new();
    for io in 0..machine.io_nodes {
        s.node_crash(SimTime::ZERO, io);
    }
    for (name, mode, _) in FANOUT_CASES {
        let w = shared_read_workload(4, 4, 65_536, mode);
        let backend = BackendSpec::parse(name).expect("shipped backend");
        let out = run_workload_with_faults(&machine, &w, &backend, Some(&s));
        assert!(
            out.report.clean(),
            "{name} {mode}: typed failure must not deadlock the app"
        );
        let reads: Vec<_> = out.trace.of_op(IoOp::Read).collect();
        assert_eq!(reads.len(), 16, "{name} {mode}");
        assert!(reads.iter().all(|e| e.bytes == 0), "{name} {mode}");
        let pf = out.pfs_faults.expect("fault stats");
        assert_eq!(pf.unavailable, 16, "{name} {mode}: one per member: {pf:?}");
        assert_eq!(pf.timeouts, 0, "{name} {mode}: {pf:?}");
    }
}

/// A stall longer than the request deadline trips the per-request timeout:
/// every participant's read completes with zero bytes, and the deadline
/// counts once per request or collective.
#[test]
fn long_stall_trips_request_timeout() {
    let machine = MachineConfig::tiny(4, 2);
    let mut s = FaultSchedule::new();
    for io in 0..machine.io_nodes {
        s.node_stall(SimTime::ZERO, io, SimDuration::from_secs(700));
    }
    for (name, mode, requests) in FANOUT_CASES {
        let w = shared_read_workload(4, 1, 65_536, mode);
        let backend = BackendSpec::parse(name).expect("shipped backend");
        let out = run_workload_with_faults(&machine, &w, &backend, Some(&s));
        assert!(out.report.clean(), "{name} {mode}");
        let reads: Vec<_> = out.trace.of_op(IoOp::Read).collect();
        assert_eq!(reads.len(), 4, "{name} {mode}");
        assert!(reads.iter().all(|e| e.bytes == 0), "{name} {mode}");
        let pf = out.pfs_faults.expect("fault stats");
        assert_eq!(pf.timeouts, requests, "{name} {mode}: {pf:?}");
        assert_eq!(pf.unavailable, 0, "{name} {mode}: {pf:?}");
    }
}

/// PPFS write-behind under a crash: dirty flush segments at the crashed
/// node are lost (accounted) and replayed after recovery; the run still
/// drains every buffered byte.
#[test]
fn ppfs_crash_loses_then_replays_write_behind_data() {
    let machine = m();
    let w = parallel_write_kernel(8, 48, 65_536, AccessMode::MUnix);
    // Land the crash while close-time flush traffic is in flight: 3/4 of
    // the way through the healthy run, with recovery after it would have
    // ended. Self-calibrating, so service-time retuning won't miss the
    // window.
    let healthy = run_workload(&machine, &w, &Backend::Ppfs(PolicyConfig::escat_tuned()));
    let wall = healthy.report.wall.nanos();
    let mut s = FaultSchedule::new();
    s.node_crash(SimTime(wall * 3 / 4), 0)
        .node_recover(SimTime(wall * 2), 0);
    let out = run_workload_with_faults(
        &machine,
        &w,
        &Backend::Ppfs(PolicyConfig::escat_tuned()),
        Some(&s),
    );
    assert!(out.report.clean());
    let stats = out.ppfs_stats.expect("ppfs stats");
    assert!(
        stats.dirty_bytes_lost > 0,
        "crash caught no in-flight write-behind data"
    );
    assert!(
        stats.replayed_segments > 0,
        "lost segments were not replayed on recovery"
    );
}

/// Interleaved collective writers on one shared file, finishing with a
/// `Sync` — the shape whose aggregated transfers land on every I/O node,
/// so an aggregator-side crash hits a collective mid-flight.
fn collective_write_workload(nodes: u64, rounds: u64, chunk: u64) -> Workload {
    let scripts = (0..nodes)
        .map(|node| {
            let mut ops = vec![
                ScriptOp::Io(IoRequest::open(0, AccessMode::MUnix.code())),
                ScriptOp::Barrier(0),
            ];
            for k in 0..rounds {
                let mut req = IoRequest::write(0, chunk);
                req.offset = Some((k * nodes + node) * chunk);
                ops.push(ScriptOp::Io(req));
            }
            ops.push(ScriptOp::Io(IoRequest::sync(0)));
            ops.push(ScriptOp::Io(IoRequest::close(0)));
            ops
        })
        .collect();
    Workload {
        label: "cio-collective-crash".to_string(),
        files: vec![FileSpec::output("f")],
        scripts,
        groups: Vec::new(),
    }
}

/// Killing every aggregator target mid-collective must propagate one typed
/// `Unavailable` fault to *all* participants of the collective — every
/// member's write completes with zero bytes, the trailing `Sync` does not
/// park forever, and the run drains to a clean finish.
#[test]
fn cio_aggregator_crash_propagates_typed_fault_to_all_members() {
    let machine = MachineConfig::tiny(4, 2);
    let w = collective_write_workload(4, 3, 48 * 1024);
    let mut s = FaultSchedule::new();
    for io in 0..machine.io_nodes {
        s.node_crash(SimTime::ZERO, io);
    }
    let out = run_workload_with_faults(&machine, &w, &Backend::Cio, Some(&s));
    assert!(out.report.clean(), "typed failure must not hang the app");
    // Every member of every collective observed the fault: all 12 writes
    // completed with zero bytes, none were silently dropped.
    let writes: Vec<_> = out.trace.of_op(IoOp::Write).collect();
    assert_eq!(writes.len(), 12);
    assert!(
        writes.iter().all(|e| e.bytes == 0),
        "some members did not see the fault"
    );
    let pf = out.pfs_faults.expect("cio reports fault counters");
    // Unavailable is counted once per affected member, so whole
    // collectives' worth of results are typed — at least one full
    // 4-member collective failed together.
    assert!(pf.unavailable >= 4, "fault not fanned out: {pf:?}");
    // The Sync still committed (an empty durability interval, not a hang).
    assert_eq!(out.trace.of_op(IoOp::Flush).count(), 4);
}

/// With a single aggregator target down and no recovery, the shared pump's
/// retry + buddy failover must drain every aggregated transfer: all bytes
/// served, failovers accounted, no typed failures, and the trailing `Sync`
/// released on every node.
#[test]
fn cio_aggregator_crash_fails_over_and_drains_cleanly() {
    let machine = MachineConfig::tiny(4, 2);
    let w = collective_write_workload(4, 3, 48 * 1024);
    let mut s = FaultSchedule::new();
    s.node_crash(SimTime::ZERO, 0);
    let out = run_workload_with_faults(&machine, &w, &Backend::Cio, Some(&s));
    assert!(out.report.clean(), "failover did not drain");
    let pf = out.pfs_faults.expect("cio reports fault counters");
    assert!(pf.retries > 0, "rejections were not retried");
    assert!(pf.failovers > 0, "no buddy failover happened");
    assert_eq!(pf.unavailable, 0, "failover path leaked typed failures");
    // Every member's write still carries its full payload.
    let writes: Vec<_> = out.trace.of_op(IoOp::Write).collect();
    assert_eq!(writes.len(), 12);
    assert!(writes.iter().all(|e| e.bytes == 48 * 1024));
    // And the Sync parked + released on all four nodes (no hung waiters).
    assert_eq!(out.trace.of_op(IoOp::Flush).count(), 4);
}

/// A script that keeps the result of every blocking I/O call it makes.
struct Recording {
    script: ScriptProgram,
    results: Rc<RefCell<Vec<IoResult>>>,
}

impl NodeProgram for Recording {
    fn step(&mut self, node: NodeId, resume: Resume) -> Step {
        if let Resume::IoDone(r) = resume {
            self.results.borrow_mut().push(r);
        }
        self.script.step(node, resume)
    }
}

/// A `Sync` is a durability claim, so it must not report success once an
/// array under the file has lost data: two disk failures on I/O node 0
/// before the write to that node's first stripe exhaust its RAID-3
/// redundancy, and the commit then completes with `DataLoss` on PFS, PPFS
/// (write-behind) and CIO alike. The healthy run of the same script commits
/// cleanly.
#[test]
fn sync_reports_data_loss_once_redundancy_is_exhausted() {
    let machine = MachineConfig::tiny(4, 2);
    let script = vec![
        ScriptOp::Io(IoRequest::open(0, AccessMode::MUnix.code())),
        ScriptOp::Io(IoRequest::write(0, 64 * 1024)),
        ScriptOp::Io(IoRequest::sync(0)),
        ScriptOp::Io(IoRequest::close(0)),
    ];
    let mut lossy = FaultSchedule::new();
    lossy
        .disk_fail(SimTime::ZERO, 0, 0)
        .disk_fail(SimTime::ZERO, 0, 1);
    for name in ["pfs", "ppfs", "cio"] {
        let spec = BackendSpec::parse(name).expect("shipped backend");
        for (schedule, expect) in [
            (FaultSchedule::new(), None),
            (lossy.clone(), Some(IoFault::DataLoss)),
        ] {
            let mut fs = spec.build(&machine, TraceSink::new(name), schedule);
            fs.register_file(FileSpec::output("f"));
            let results = Rc::new(RefCell::new(Vec::new()));
            let program = Recording {
                script: ScriptProgram::new(script.clone()),
                results: results.clone(),
            };
            let mesh = Mesh::for_nodes(machine.compute_nodes, machine.io_nodes);
            let mut engine = Engine::new(mesh, machine.comm, vec![Box::new(program)], fs);
            engine.set_default_watchdog();
            let report = engine.run();
            assert!(report.clean(), "{name}: blocked {:?}", report.blocked);
            let results = results.borrow();
            assert_eq!(results.len(), 4, "{name}: open, write, sync, close");
            assert_eq!(results[2].fault, expect, "{name}: sync result");
        }
    }
}

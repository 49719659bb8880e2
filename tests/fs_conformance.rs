//! Backend conformance: every pluggable file-system backend, driven through
//! the same `IoService` runner, must honor the same *contract* on shared
//! scenarios — metadata verbs are traced once per call, `Sync` commits are
//! traced as a durability interval, scheduled faults reach the arrays, a
//! crash/recover cycle drains by retry (PFS buddy failover), replay (PPFS
//! stripe-pinned resubmission), or collective failover (CIO aggregated
//! retries) to a clean finish, interleaved writers tile a shared file with
//! no duplicate physical submissions, and per-I/O-node request accounting
//! conserves the logical byte volume.
//!
//! Timing may differ per backend, and backends may add *internal* traffic
//! (write-behind flushes, prefetch reads, collective exchange waits); the
//! application-visible traced shape and the byte conservation laws may not
//! differ. The suite enumerates `BackendSpec::BUILTIN` — a new backend
//! gets every case for free the moment it is named there, with no
//! per-backend carve-outs.

use std::cell::RefCell;
use std::rc::Rc;

use sio::apps::workload::{run_workload, run_workload_with_faults, Backend, Workload};
use sio::apps::BackendSpec;
use sio::core::event::IoOp;
use sio::core::trace::TraceSink;
use sio::paragon::mesh::Mesh;
use sio::paragon::program::{
    IoFault, IoRequest, IoResult, NodeProgram, Resume, ScriptOp, ScriptProgram, Step,
};
use sio::paragon::{Engine, FaultSchedule, MachineConfig, NodeId, SimTime};
use sio::pfs::{AccessMode, FileSpec};

fn m() -> MachineConfig {
    MachineConfig::tiny(4, 2)
}

/// Every shipped backend, resolved through the single naming entry point.
/// Conformance cases iterate this — never a hard-coded subset — so naming
/// a backend in `BackendSpec::BUILTIN` opts it into the whole suite.
fn conformance_backends() -> Vec<(&'static str, Backend)> {
    BackendSpec::BUILTIN
        .into_iter()
        .map(|name| {
            (
                name,
                BackendSpec::parse(name).expect("registered backend name parses"),
            )
        })
        .collect()
}

/// Counts of the application-visible verbs only. Backend-internal traffic
/// (AsyncRead issues, IoWait exchange intervals, Flush commits) is allowed
/// to differ across backends; what the application *asked for* is not.
const LOGICAL_OPS: [IoOp; 6] = [
    IoOp::Read,
    IoOp::Write,
    IoOp::Seek,
    IoOp::Open,
    IoOp::Close,
    IoOp::Lsize,
];

fn logical_op_counts(trace: &sio::core::Trace) -> Vec<(IoOp, usize)> {
    LOGICAL_OPS
        .into_iter()
        .map(|op| (op, trace.of_op(op).count()))
        .collect()
}

/// Total bytes covered by the union of the traced extents of `op` — the
/// distinct file bytes the application actually touched, independent of
/// how many requests touched them.
fn union_bytes(trace: &sio::core::Trace, op: IoOp) -> u64 {
    let mut extents: Vec<(u64, u64)> = trace
        .of_op(op)
        .filter(|e| e.bytes > 0)
        .map(|e| (e.offset, e.offset + e.bytes))
        .collect();
    extents.sort_unstable();
    let mut total = 0;
    let mut hi = 0u64;
    for (lo, end) in extents {
        let lo = lo.max(hi);
        if end > lo {
            total += end - lo;
            hi = end;
        }
        hi = hi.max(end);
    }
    total
}

/// Open, probe the size, seek, write, re-probe, close — the metadata verbs
/// every backend must trace exactly once per call.
fn meta_workload() -> Workload {
    let ops = vec![
        ScriptOp::Io(IoRequest::open(0, AccessMode::MUnix.code())),
        ScriptOp::Io(IoRequest::lsize(0)),
        ScriptOp::Io(IoRequest::seek(0, 128 * 1024)),
        ScriptOp::Io(IoRequest::write(0, 64 * 1024)),
        ScriptOp::Io(IoRequest::lsize(0)),
        ScriptOp::Io(IoRequest::close(0)),
    ];
    Workload {
        label: "conformance-meta".to_string(),
        files: vec![FileSpec::output("f")],
        scripts: vec![ops],
        groups: Vec::new(),
    }
}

#[test]
fn metadata_verbs_trace_identically_across_backends() {
    let w = meta_workload();
    let runs: Vec<_> = conformance_backends()
        .into_iter()
        .map(|(name, b)| (name, run_workload(&m(), &w, &b)))
        .collect();
    for (name, out) in &runs {
        assert_eq!(out.trace.of_op(IoOp::Open).count(), 1, "{name}");
        assert_eq!(out.trace.of_op(IoOp::Seek).count(), 1, "{name}");
        assert_eq!(out.trace.of_op(IoOp::Lsize).count(), 2, "{name}");
        assert_eq!(out.trace.of_op(IoOp::Write).count(), 1, "{name}");
        assert_eq!(out.trace.of_op(IoOp::Close).count(), 1, "{name}");
        // The write landed at the seeked extent on every backend.
        let ev = out.trace.of_op(IoOp::Write).next().unwrap();
        assert_eq!((ev.offset, ev.bytes), (128 * 1024, 64 * 1024), "{name}");
    }
    // Identical logical shape: every backend traces the same counts for
    // the application-visible verbs.
    let (first_name, first) = &runs[0];
    for (name, out) in &runs[1..] {
        assert_eq!(
            logical_op_counts(&first.trace),
            logical_op_counts(&out.trace),
            "{first_name} vs {name}"
        );
    }
}

/// A `Sync` commit must be traced as a Flush interval spanning issue →
/// durability, after the file's write traffic has drained.
#[test]
fn sync_commits_trace_a_durability_interval() {
    let ops = vec![
        ScriptOp::Io(IoRequest::open(0, AccessMode::MUnix.code())),
        ScriptOp::Io(IoRequest::write(0, 256 * 1024)),
        ScriptOp::Io(IoRequest::sync(0)),
        ScriptOp::Io(IoRequest::close(0)),
    ];
    let w = Workload {
        label: "conformance-sync".to_string(),
        files: vec![FileSpec::output("f")],
        scripts: vec![ops],
        groups: Vec::new(),
    };
    for (name, b) in conformance_backends() {
        let out = run_workload(&m(), &w, &b);
        assert!(out.report.clean(), "{name} did not finish");
        // Exactly one commit: the Sync. All write traffic is durable by
        // then, so close flushes nothing extra on any backend.
        let flushes: Vec<_> = out.trace.of_op(IoOp::Flush).collect();
        assert_eq!(flushes.len(), 1, "{name}: {flushes:?}");
        assert!(flushes[0].duration() > 0, "{name}: zero-width commit");
    }
}

/// A scheduled disk failure must reach the backend's arrays: the run ends
/// with a degraded I/O node, whichever backend served it.
#[test]
fn fault_delivery_degrades_the_array_on_every_backend() {
    let mut schedule = FaultSchedule::new();
    schedule.disk_fail(SimTime::ZERO, 0, 0);
    let ops = vec![
        ScriptOp::Io(IoRequest::open(0, AccessMode::MUnix.code())),
        ScriptOp::Io(IoRequest::read(0, 512 * 1024)),
        ScriptOp::Io(IoRequest::close(0)),
    ];
    let w = Workload {
        label: "conformance-fault".to_string(),
        files: vec![FileSpec::input("in", 1 << 20)],
        scripts: vec![ops],
        groups: Vec::new(),
    };
    for (name, b) in conformance_backends() {
        let out = run_workload_with_faults(&m(), &w, &b, Some(&schedule));
        assert!(out.report.clean(), "{name} did not finish");
        assert!(out.degraded_nodes >= 1, "{name}: fault never delivered");
    }
}

/// A full metadata outage (both replicas crashed at t=0, never recovered)
/// must surface as *typed* `IoFault::Unavailable` completions on every
/// backend — the parked-retry machinery probes with bounded backoff, gives
/// up, and the run still terminates watchdog-clean. No backend may panic,
/// hang, or silently drop the metadata verbs: failed calls are traced like
/// successful ones.
#[test]
fn meta_outage_fails_typed_and_terminates_on_every_backend() {
    let mut schedule = FaultSchedule::new();
    schedule
        .meta_crash(SimTime::ZERO, 0)
        .meta_crash(SimTime::ZERO, 1);
    let w = meta_workload();
    for (name, b) in conformance_backends() {
        let out = run_workload_with_faults(&m(), &w, &b, Some(&schedule));
        assert!(out.report.clean(), "{name} did not terminate cleanly");
        let meta = out.meta.unwrap_or_else(|| panic!("{name}: no meta stats"));
        assert!(
            meta.unavailable > 0,
            "{name}: outage produced no typed Unavailable completion"
        );
        assert!(meta.retries > 0, "{name}: no parked-retry probes");
        // Every metadata verb the program issued is in the trace, failed
        // or not — one Open, two Lsize, one Close.
        assert_eq!(out.trace.of_op(IoOp::Open).count(), 1, "{name}");
        assert_eq!(out.trace.of_op(IoOp::Lsize).count(), 2, "{name}");
        assert_eq!(out.trace.of_op(IoOp::Close).count(), 1, "{name}");
    }
}

/// A metadata outage that heals inside the retry budget must be invisible
/// to the application on every backend: both replicas crash at t=0 and the
/// primary recovers at 0.5 s, well inside the ~2.35 s the parked RPC's
/// backoff probes cover (50 ms doubling to an 800 ms cap, five retries).
/// The parked Open completes on a re-probe, no call surfaces
/// `Unavailable`, and every verb runs and is traced once.
#[test]
fn healed_meta_outage_completes_every_verb_on_every_backend() {
    let mut schedule = FaultSchedule::new();
    schedule
        .meta_crash(SimTime::ZERO, 0)
        .meta_crash(SimTime::ZERO, 1)
        .meta_recover(SimTime(500_000_000), 0);
    let w = meta_workload();
    for (name, b) in conformance_backends() {
        let out = run_workload_with_faults(&m(), &w, &b, Some(&schedule));
        assert!(out.report.clean(), "{name} did not terminate cleanly");
        let meta = out.meta.unwrap_or_else(|| panic!("{name}: no meta stats"));
        assert!(meta.retries > 0, "{name}: the outage parked nothing");
        assert_eq!(meta.unavailable, 0, "{name}: a healed outage failed a call");
        assert_eq!(out.trace.of_op(IoOp::Open).count(), 1, "{name}");
        assert_eq!(out.trace.of_op(IoOp::Lsize).count(), 2, "{name}");
        assert_eq!(out.trace.of_op(IoOp::Close).count(), 1, "{name}");
        // The Open waited out the outage, and the data verbs behind it ran.
        let open = out.trace.of_op(IoOp::Open).next().unwrap();
        assert!(open.end >= 500_000_000, "{name}: open beat the recovery");
        let ev = out.trace.of_op(IoOp::Write).next().unwrap();
        assert_eq!((ev.offset, ev.bytes), (128 * 1024, 64 * 1024), "{name}");
    }
}

/// Link congestion moves no user data: a run with every mesh region
/// degraded from t=0 (quarter bandwidth, doubled hop latency) must finish
/// clean on every backend, accept exactly the same per-I/O-node byte
/// volume as the healthy run, and never finish faster than it.
#[test]
fn link_degraded_runs_conserve_bytes_on_every_backend() {
    let machine = m();
    let mut schedule = FaultSchedule::new();
    for region in 0..machine.io_nodes {
        schedule.link_degrade(SimTime::ZERO, region, 4.0, 2.0);
    }
    let scripts = (0..2u64)
        .map(|node| {
            vec![
                ScriptOp::Io(IoRequest::open(0, AccessMode::MUnix.code())),
                ScriptOp::Io(IoRequest::seek(0, node * 512 * 1024)),
                ScriptOp::Io(IoRequest::write(0, 512 * 1024)),
                ScriptOp::Io(IoRequest::close(0)),
            ]
        })
        .collect();
    let w = Workload {
        label: "conformance-link".to_string(),
        files: vec![FileSpec::output("f")],
        scripts,
        groups: Vec::new(),
    };
    for (name, b) in conformance_backends() {
        let healthy = run_workload(&machine, &w, &b);
        let out = run_workload_with_faults(&machine, &w, &b, Some(&schedule));
        assert!(out.report.clean(), "{name} did not finish degraded");
        assert_eq!(
            out.node_loads, healthy.node_loads,
            "{name}: congestion changed per-node byte accounting"
        );
        assert!(
            out.report.wall >= healthy.report.wall,
            "{name}: degraded run beat the healthy wall"
        );
    }
}

/// A crash/recover cycle must drain to a clean finish on every backend, via
/// that backend's own failover policy: PFS and CIO retry with backoff (then
/// buddy failover), PPFS parks stripe-pinned segments and replays them on
/// recovery. Nothing may be silently dropped.
#[test]
fn crash_recover_drains_by_retry_or_replay() {
    let mut schedule = FaultSchedule::new();
    schedule
        .node_crash(SimTime::ZERO, 0)
        .node_recover(SimTime(2_000_000_000), 0);
    let scripts = (0..2u64)
        .map(|node| {
            let mut ops = vec![ScriptOp::Io(IoRequest::open(0, AccessMode::MUnix.code()))];
            for k in 0..4u64 {
                ops.push(ScriptOp::Io(IoRequest::seek(
                    0,
                    (node * 4 + k) * 256 * 1024,
                )));
                ops.push(ScriptOp::Io(IoRequest::write(0, 256 * 1024)));
            }
            ops.push(ScriptOp::Io(IoRequest::close(0)));
            ops
        })
        .collect();
    let w = Workload {
        label: "conformance-crash".to_string(),
        files: vec![FileSpec::output("f")],
        scripts,
        groups: Vec::new(),
    };
    for (name, b) in conformance_backends() {
        let out = run_workload_with_faults(&m(), &w, &b, Some(&schedule));
        assert!(out.report.clean(), "{name} did not drain after recovery");
        // All 8 writes completed and are traced despite the crash window.
        assert_eq!(out.trace.of_op(IoOp::Write).count(), 8, "{name}");
        // The drain did real recovery work, through whichever machinery the
        // backend keeps: pump retries/failovers or parked-segment replay.
        let retried = out
            .pfs_faults
            .as_ref()
            .is_some_and(|f| f.retries + f.failovers > 0);
        let replayed = out
            .ppfs_stats
            .as_ref()
            .is_some_and(|s| s.replayed_segments > 0);
        assert!(
            retried || replayed,
            "{name}: no retry/failover/replay signal after crash"
        );
    }
}

/// N writers filling a shared file with disjoint record-interleaved extents
/// must produce a byte-complete file on every backend — and must never
/// submit the same byte twice: the physical write volume accepted across
/// the I/O nodes equals the distinct logical bytes exactly.
#[test]
fn interleaved_writers_tile_the_file_without_duplicate_submissions() {
    const NODES: u64 = 4;
    const ROUNDS: u64 = 3;
    const CHUNK: u64 = 48 * 1024;
    const TOTAL: u64 = NODES * ROUNDS * CHUNK;
    let scripts = (0..NODES)
        .map(|node| {
            let mut ops = vec![
                ScriptOp::Io(IoRequest::open(0, AccessMode::MUnix.code())),
                ScriptOp::Barrier(0),
            ];
            for k in 0..ROUNDS {
                let mut req = IoRequest::write(0, CHUNK);
                req.offset = Some((k * NODES + node) * CHUNK);
                ops.push(ScriptOp::Io(req));
            }
            // Everyone reads the finished file back in full; short reads
            // clamp to EOF, so a full-length result proves completeness.
            ops.push(ScriptOp::Barrier(0));
            let mut readback = IoRequest::read(0, TOTAL);
            readback.offset = Some(0);
            ops.push(ScriptOp::Io(readback));
            ops.push(ScriptOp::Io(IoRequest::close(0)));
            ops
        })
        .collect();
    let w = Workload {
        label: "conformance-interleave".to_string(),
        files: vec![FileSpec::output("f")],
        scripts,
        groups: Vec::new(),
    };
    for (name, b) in conformance_backends() {
        let out = run_workload(&m(), &w, &b);
        assert!(out.report.clean(), "{name} did not finish");
        // Every writer's extents are traced where the script put them, and
        // together they tile [0, TOTAL) exactly.
        assert_eq!(
            out.trace.of_op(IoOp::Write).count() as u64,
            NODES * ROUNDS,
            "{name}"
        );
        assert_eq!(union_bytes(&out.trace, IoOp::Write), TOTAL, "{name}");
        let write_sum: u64 = out.trace.of_op(IoOp::Write).map(|e| e.bytes).sum();
        assert_eq!(write_sum, TOTAL, "{name}: writers overlapped");
        // Byte-complete: every node's full-length readback came back whole.
        for ev in out.trace.of_op(IoOp::Read) {
            assert_eq!(ev.bytes, TOTAL, "{name}: short readback");
        }
        // No duplicate physical submissions: the I/O nodes accepted exactly
        // the distinct logical write volume.
        let physical_writes: u64 = out.node_loads.iter().map(|l| l.write_bytes).sum();
        assert_eq!(physical_writes, TOTAL, "{name}: duplicate submissions");
    }
}

/// Per-I/O-node request accounting must conserve bytes on every backend:
/// physical writes accepted equal the distinct logical write volume, cold
/// physical reads cover at least the distinct logical read volume (caching
/// may overfetch, collectives may deduplicate — neither may conjure bytes
/// that were never read), and the load spreads across every I/O node of
/// the stripe. The read pass targets a pre-existing input file the run
/// never wrote, so no backend can serve it from a write cache.
#[test]
fn request_accounting_conserves_bytes_per_io_node() {
    const NODES: u64 = 4;
    const ROUNDS: u64 = 4;
    const CHUNK: u64 = 32 * 1024;
    const TOTAL: u64 = NODES * ROUNDS * CHUNK;
    let scripts = (0..NODES)
        .map(|node| {
            let mut ops = vec![
                ScriptOp::Io(IoRequest::open(0, AccessMode::MUnix.code())),
                ScriptOp::Io(IoRequest::open(1, AccessMode::MUnix.code())),
                ScriptOp::Barrier(0),
            ];
            for k in 0..ROUNDS {
                let mut req = IoRequest::write(0, CHUNK);
                req.offset = Some((k * NODES + node) * CHUNK);
                ops.push(ScriptOp::Io(req));
            }
            ops.push(ScriptOp::Barrier(0));
            // Each node reads its own records of the input — disjoint
            // across nodes, so the logical read union is the whole file.
            for k in 0..ROUNDS {
                let mut req = IoRequest::read(1, CHUNK);
                req.offset = Some((k * NODES + node) * CHUNK);
                ops.push(ScriptOp::Io(req));
            }
            ops.push(ScriptOp::Io(IoRequest::close(0)));
            ops.push(ScriptOp::Io(IoRequest::close(1)));
            ops
        })
        .collect();
    let w = Workload {
        label: "conformance-accounting".to_string(),
        files: vec![FileSpec::output("f"), FileSpec::input("in", TOTAL)],
        scripts,
        groups: Vec::new(),
    };
    for (name, b) in conformance_backends() {
        let out = run_workload(&m(), &w, &b);
        assert!(out.report.clean(), "{name} did not finish");
        let loads = &out.node_loads;
        assert_eq!(loads.len(), m().io_nodes as usize, "{name}");
        let physical_writes: u64 = loads.iter().map(|l| l.write_bytes).sum();
        let physical_reads: u64 = loads.iter().map(|l| l.read_bytes).sum();
        assert_eq!(
            physical_writes,
            union_bytes(&out.trace, IoOp::Write),
            "{name}: write volume not conserved"
        );
        assert!(
            physical_reads >= union_bytes(&out.trace, IoOp::Read),
            "{name}: under-read ({physical_reads} < {})",
            union_bytes(&out.trace, IoOp::Read)
        );
        // Round-robin striping spreads a whole-file pass over every I/O
        // node, whatever the backend's request shaping did.
        for (io, l) in loads.iter().enumerate() {
            assert!(l.write_reqs > 0, "{name}: io node {io} got no writes");
            assert!(l.write_bytes > 0, "{name}: io node {io} got no bytes");
            // Requests are never empty, so counts are bounded by bytes.
            assert!(l.write_reqs <= l.write_bytes, "{name}: io node {io}");
        }
        assert_eq!(union_bytes(&out.trace, IoOp::Write), TOTAL, "{name}");
    }
}

/// The burst-log wrapper's durability contract, for every inner backend in
/// the registry: a `Sync` commits at log speed (its Flush interval is far
/// shorter than the direct backend's), but by the end of a clean run every
/// acknowledged byte must have drained into the inner tier — the log holds
/// nothing, and the inner I/O nodes accepted exactly the logical volume.
/// Backends outside the log tier must report no drain-health counters.
#[test]
fn blog_sync_commits_fast_but_drains_fully_by_run_end() {
    const NODES: u64 = 2;
    const ROUNDS: u64 = 3;
    const CHUNK: u64 = 64 * 1024;
    const TOTAL: u64 = NODES * ROUNDS * CHUNK;
    let scripts = (0..NODES)
        .map(|node| {
            let mut ops = vec![
                ScriptOp::Io(IoRequest::open(0, AccessMode::MUnix.code())),
                ScriptOp::Barrier(0),
            ];
            for k in 0..ROUNDS {
                let mut req = IoRequest::write(0, CHUNK);
                req.offset = Some((k * NODES + node) * CHUNK);
                ops.push(ScriptOp::Io(req));
                ops.push(ScriptOp::Io(IoRequest::sync(0)));
            }
            ops.push(ScriptOp::Io(IoRequest::close(0)));
            ops
        })
        .collect();
    let w = Workload {
        label: "conformance-blog-drain".to_string(),
        files: vec![FileSpec::output("f")],
        scripts,
        groups: Vec::new(),
    };
    for (name, b) in conformance_backends() {
        let out = run_workload(&m(), &w, &b);
        assert!(out.report.clean(), "{name} did not finish");
        let flush_mean_ns = {
            let flushes: Vec<_> = out.trace.of_op(IoOp::Flush).collect();
            assert_eq!(flushes.len(), (NODES * ROUNDS) as usize, "{name}");
            flushes.iter().map(|e| e.duration()).sum::<u64>() / flushes.len() as u64
        };
        let physical_writes: u64 = out.node_loads.iter().map(|l| l.write_bytes).sum();
        match out.blog {
            Some(stats) => {
                // Every acknowledged byte reached the log, then the inner
                // tier; the log is empty at run end.
                assert_eq!(stats.appended_bytes, TOTAL, "{name}");
                assert_eq!(stats.drained_bytes, TOTAL, "{name}");
                assert_eq!(stats.pending_bytes, 0, "{name}: bytes stranded");
                assert_eq!(physical_writes, TOTAL, "{name}: drain volume");
                // Sync commits at local-log latency, well under the inner
                // backends' software flush path.
                assert!(
                    flush_mean_ns < 5_000_000,
                    "{name}: slow commit ({flush_mean_ns} ns)"
                );
            }
            None => {
                assert!(!name.starts_with("blog"), "{name}: missing blog stats");
                assert!(
                    flush_mean_ns >= 5_000_000,
                    "{name}: direct flush implausibly fast ({flush_mean_ns} ns)"
                );
            }
        }
    }
}

/// A zero-length write is a short software path on every backend, whatever
/// its write policy: it completes with zero bytes, and the `Sync` behind it
/// finds nothing in flight and commits.
#[test]
fn zero_length_write_completes_and_commits_on_every_backend() {
    let ops = vec![
        ScriptOp::Io(IoRequest::open(0, AccessMode::MUnix.code())),
        ScriptOp::Io(IoRequest::write(0, 0)),
        ScriptOp::Io(IoRequest::sync(0)),
        ScriptOp::Io(IoRequest::close(0)),
    ];
    let w = Workload {
        label: "conformance-zero-write".to_string(),
        files: vec![FileSpec::output("f")],
        scripts: vec![ops],
        groups: Vec::new(),
    };
    for (name, b) in conformance_backends() {
        let out = run_workload(&m(), &w, &b);
        assert!(out.report.clean(), "{name}: {:?}", out.report.hang);
        let writes: Vec<_> = out.trace.of_op(IoOp::Write).collect();
        assert_eq!(writes.len(), 1, "{name}");
        assert_eq!(writes[0].bytes, 0, "{name}");
        assert_eq!(out.trace.of_op(IoOp::Flush).count(), 1, "{name}");
    }
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

/// A write past the end of the I/O nodes' arrays is a typed failure at
/// issue on every backend that writes to them directly: zero bytes and
/// `Unavailable`, under write-through and write-behind alike. (The log
/// tier acknowledges at log speed; its drain fails later, typed.)
#[test]
fn write_beyond_array_capacity_fails_typed() {
    let machine = m();
    let mut write = IoRequest::write(0, 64 * 1024);
    write.offset = Some(1 << 38);
    let script = vec![
        ScriptOp::Io(IoRequest::open(0, AccessMode::MUnix.code())),
        ScriptOp::Io(write),
        ScriptOp::Io(IoRequest::close(0)),
    ];
    let direct = conformance_backends()
        .into_iter()
        .filter(|(name, _)| !name.starts_with("blog+"));
    for (name, spec) in direct {
        let mut fs = spec.build(&machine, TraceSink::new(name), FaultSchedule::new());
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
        assert_eq!(results.len(), 3, "{name}: open, write, close");
        assert_eq!(results[1].bytes, 0, "{name}: write result");
        assert_eq!(results[1].fault, Some(IoFault::Unavailable), "{name}");
    }
}

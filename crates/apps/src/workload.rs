//! Shared workload machinery: the runner and synthetic kernels.
//!
//! A [`Workload`] bundles everything a run needs — file specs, one script
//! per node, extra node groups — and [`run_workload`] executes it against
//! either file system backend, returning the captured trace. The synthetic
//! kernels at the bottom are the "simple synthetic kernels often used to
//! evaluate new file system ideas" the paper warns about (§8); here they
//! drive the access-mode and policy ablations (DESIGN.md A1/A2), not
//! whole-application conclusions.

use paragon_sim::engine::IoService;
use paragon_sim::mesh::Mesh;
use paragon_sim::program::{IoRequest, NodeProgram, ScriptOp, ScriptProgram};
use paragon_sim::{
    Engine, EnginePerf, EngineReport, FaultSchedule, MachineConfig, NodeId, SimDuration, SimTime,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sio_blog::BlogStats;
use sio_cio::CioStats;
use sio_core::perf;
use sio_core::trace::{Trace, TraceSink};
use sio_fskit::FaultStats;
pub use sio_fskit::{MetaStats, NodeLoad};
use sio_pfs::{AccessMode, FileSpec};
use sio_ppfs::PpfsStats;

pub use crate::backend::{Backend, BackendSpec, FsBackend};

/// A complete, backend-independent workload description.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Display label (becomes the trace label).
    pub label: String,
    /// Files, registered in order (index = file id).
    pub files: Vec<FileSpec>,
    /// One script per node; `scripts.len()` nodes run.
    pub scripts: Vec<Vec<ScriptOp>>,
    /// Extra node groups (group 0 = all nodes is implicit; these become
    /// groups 1, 2, ...).
    pub groups: Vec<Vec<NodeId>>,
}

/// Result of a workload run.
#[derive(Debug)]
pub struct RunOutput {
    /// The captured application-level I/O trace.
    pub trace: Trace,
    /// Engine statistics (wall time, events, clean finish).
    pub report: EngineReport,
    /// PPFS statistics when the PPFS backend ran.
    pub ppfs_stats: Option<PpfsStats>,
    /// PFS fault-machinery counters when the PFS backend ran (all zero on a
    /// healthy run).
    pub pfs_faults: Option<FaultStats>,
    /// RAID rebuild work done across all I/O nodes: (chunks, member bytes).
    pub rebuild: (u64, u64),
    /// I/O nodes whose arrays were still degraded at run end.
    pub degraded_nodes: u32,
    /// Accepted-request accounting per I/O node (Fig. 4 / X6: request counts
    /// and byte volumes by direction). Empty for backends off the shared
    /// segment pump.
    pub node_loads: Vec<NodeLoad>,
    /// Collective-I/O machinery counters when the CIO backend ran.
    pub cio: Option<CioStats>,
    /// Burst-log drain-health counters when the log tier wrapped the run.
    pub blog: Option<BlogStats>,
    /// Metadata-server fault counters (failovers, parked-RPC retries, typed
    /// unavailability) for backends on the replicated metadata service.
    pub meta: Option<MetaStats>,
}

impl RunOutput {
    /// Simulated wall-clock seconds.
    pub fn wall_secs(&self) -> f64 {
        self.report.wall.as_secs_f64()
    }
}

/// Default liveness-watchdog deadline for every workload run: 10⁷ simulated
/// seconds. The longest legitimate suite run is ~2 × 10⁴ s, three orders of
/// magnitude below; a livelocked retry loop blows past this in bounded host
/// time and surfaces as a typed `HangReport` instead of hanging CI.
pub const WATCHDOG_DEADLINE: SimTime = paragon_sim::DEFAULT_WATCHDOG;

fn run_engine<S: IoService>(
    machine: &MachineConfig,
    workload: &Workload,
    service: S,
    stop_at: Option<SimTime>,
) -> (EngineReport, S, EnginePerf) {
    assert!(
        workload.scripts.len() as u32 <= machine.compute_nodes,
        "workload needs {} nodes, machine has {}",
        workload.scripts.len(),
        machine.compute_nodes
    );
    let mesh = Mesh::for_nodes(machine.compute_nodes, machine.io_nodes);
    let programs: Vec<Box<dyn NodeProgram>> = workload
        .scripts
        .iter()
        .map(|s| Box::new(ScriptProgram::new(s.clone())) as Box<dyn NodeProgram>)
        .collect();
    let mut engine = Engine::new(mesh, machine.comm, programs, service);
    engine.set_watchdog(WATCHDOG_DEADLINE);
    for g in &workload.groups {
        engine.add_group(g.clone());
    }
    let phase = perf::phase("engine");
    let report = match stop_at {
        // A crashed run legitimately ends with blocked nodes: they died.
        Some(t) => engine.run_until(t),
        None => {
            let report = engine.run();
            assert!(
                report.clean(),
                "workload '{}' stuck; blocked nodes: {:?}; watchdog: {:?}",
                workload.label,
                report.blocked,
                report.hang
            );
            report
        }
    };
    drop(phase);
    let engine_perf = engine.perf();
    (report, engine.into_service(), engine_perf)
}

/// Publish one run's hot-path totals to the global perf aggregate (a no-op
/// unless collection was enabled, e.g. by `repro --perf`).
fn submit_perf(engine_perf: EnginePerf, sink: &TraceSink, blog: Option<BlogStats>) {
    perf::submit(perf::RunPerf {
        events: engine_perf.events,
        heap_peak: engine_perf.heap_peak,
        channel_peak: engine_perf.channel_peak,
        trace_events: sink.len() as u64,
        trace_bytes: sink.buffered_bytes(),
        log_occ_peak: blog.map_or(0, |b| b.occupancy_peak),
        log_stall_ns: blog.map_or(0, |b| b.stall_ns),
    });
}

/// Run a workload on a machine with the chosen backend.
pub fn run_workload(machine: &MachineConfig, workload: &Workload, backend: &Backend) -> RunOutput {
    run_workload_with_faults(machine, workload, backend, None)
}

/// Run a workload with an optional injected fault schedule (the X4 fault
/// suite). `None` (or an empty schedule) is exactly [`run_workload`]: the
/// fault machinery stays dormant and the run is bit-identical to a healthy
/// one.
pub fn run_workload_with_faults(
    machine: &MachineConfig,
    workload: &Workload,
    backend: &Backend,
    faults: Option<&FaultSchedule>,
) -> RunOutput {
    run_workload_crashable(machine, workload, backend, faults, None, &[])
}

/// Run a workload that may be cut short by an application crash.
///
/// `stop_at` halts the simulation at that instant without requiring a clean
/// finish — the surviving state (trace, wall, filesystem counters) is exactly
/// what a post-mortem would see. `covered` lists file ids whose write-behind
/// dirty data is protected by application checkpoints, so PPFS can split
/// crash losses into "lost but checkpointed" vs "lost work". With
/// `stop_at = None` and empty `covered` this is bit-identical to
/// [`run_workload_with_faults`].
pub fn run_workload_crashable(
    machine: &MachineConfig,
    workload: &Workload,
    backend: &Backend,
    faults: Option<&FaultSchedule>,
    stop_at: Option<SimTime>,
    covered: &[u32],
) -> RunOutput {
    let schedule = faults.cloned().unwrap_or_default();
    let nodes = workload.scripts.len() as u32;
    let mut fs = backend.build(machine, TraceSink::new(&workload.label), schedule);
    for f in &workload.files {
        fs.register_file(f.clone());
    }
    for &file in covered {
        fs.mark_checkpoint_covered(file);
    }
    let (report, mut fs, engine_perf) = run_engine(machine, workload, fs, stop_at);
    let blog = fs.blog_stats();
    fs.sink_mut().set_run_info(nodes, report.wall.nanos());
    submit_perf(engine_perf, fs.sink_mut(), blog);
    let ppfs_stats = fs.ppfs_stats();
    let pfs_faults = fs.pfs_fault_stats();
    let rebuild = fs.rebuild_totals();
    let degraded_nodes = fs.degraded_nodes();
    let node_loads = fs.node_loads();
    let cio = fs.cio_stats();
    let meta = fs.meta_stats();
    RunOutput {
        trace: fs.finish_trace(),
        report,
        ppfs_stats,
        pfs_faults,
        rebuild,
        degraded_nodes,
        node_loads,
        cio,
        blog,
        meta,
    }
}

/// Open helper: `ScriptOp::Io(open)` with a mode.
pub fn op_open(file: u32, mode: AccessMode) -> ScriptOp {
    ScriptOp::Io(IoRequest::open(file, mode.code()))
}

/// Compute helper from fractional seconds.
pub fn op_compute(secs: f64) -> ScriptOp {
    ScriptOp::Compute(SimDuration::from_secs_f64(secs))
}

// ---------------------------------------------------------------------------
// Synthetic kernels (ablations A1/A2).
// ---------------------------------------------------------------------------

/// A single-node sequential scan: `count` reads of `bytes` from file 0.
pub fn sequential_read_kernel(count: u32, bytes: u64, mode: AccessMode) -> Workload {
    let mut ops = vec![op_open(0, mode)];
    for _ in 0..count {
        ops.push(ScriptOp::Io(IoRequest::read(0, bytes)));
    }
    ops.push(ScriptOp::Io(IoRequest::close(0)));
    Workload {
        label: format!("seq-read-{}x{}-{}", count, bytes, mode),
        files: vec![FileSpec::input("data", count as u64 * bytes)],
        scripts: vec![ops],
        groups: Vec::new(),
    }
}

/// `nodes` synchronized writers appending fixed records through a mode —
/// the kernel for the access-mode ablation (A1).
pub fn parallel_write_kernel(nodes: u32, per_node: u32, bytes: u64, mode: AccessMode) -> Workload {
    let scripts = (0..nodes)
        .map(|node| {
            let mut ops = vec![op_open(0, mode)];
            ops.push(ScriptOp::Barrier(0));
            for k in 0..per_node {
                if mode == AccessMode::MUnix || mode == AccessMode::MAsync {
                    // Independent pointers need explicit placement.
                    let off = (node as u64 * per_node as u64 + k as u64) * bytes;
                    ops.push(ScriptOp::Io(IoRequest::seek(0, off)));
                }
                ops.push(ScriptOp::Io(IoRequest::write(0, bytes)));
            }
            ops.push(ScriptOp::Io(IoRequest::close(0)));
            ops
        })
        .collect();
    Workload {
        label: format!("par-write-{}n-{}x{}-{}", nodes, per_node, bytes, mode),
        files: vec![FileSpec::output("shared")],
        scripts,
        groups: Vec::new(),
    }
}

/// A single-node strided read kernel (fixed stride larger than the record).
pub fn strided_read_kernel(count: u32, bytes: u64, stride: u64) -> Workload {
    assert!(stride >= bytes);
    let mut ops = vec![op_open(0, AccessMode::MUnix)];
    for k in 0..count as u64 {
        ops.push(ScriptOp::Io(IoRequest::seek(0, k * stride)));
        ops.push(ScriptOp::Io(IoRequest::read(0, bytes)));
    }
    Workload {
        label: format!("strided-read-{count}x{bytes}+{stride}"),
        files: vec![FileSpec::input("data", count as u64 * stride)],
        scripts: vec![ops],
        groups: Vec::new(),
    }
}

/// A single-node uniformly random read kernel (seeded).
pub fn random_read_kernel(count: u32, bytes: u64, file_len: u64, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = vec![op_open(0, AccessMode::MUnix)];
    for _ in 0..count {
        let max = (file_len.saturating_sub(bytes)).max(1);
        let off = rng.random_range(0..max);
        ops.push(ScriptOp::Io(IoRequest::seek(0, off)));
        ops.push(ScriptOp::Io(IoRequest::read(0, bytes)));
    }
    Workload {
        label: format!("random-read-{count}x{bytes}"),
        files: vec![FileSpec::input("data", file_len)],
        scripts: vec![ops],
        groups: Vec::new(),
    }
}

/// Cyclic multi-pass scan kernel (HTF-pscf-like), single node.
pub fn cyclic_read_kernel(passes: u32, reads_per_pass: u32, bytes: u64) -> Workload {
    let mut ops = vec![op_open(0, AccessMode::MUnix)];
    for _ in 0..passes {
        ops.push(ScriptOp::Io(IoRequest::seek(0, 0)));
        for _ in 0..reads_per_pass {
            ops.push(ScriptOp::Io(IoRequest::read(0, bytes)));
        }
    }
    Workload {
        label: format!("cyclic-read-{passes}x{reads_per_pass}x{bytes}"),
        files: vec![FileSpec::input("data", reads_per_pass as u64 * bytes)],
        scripts: vec![ops],
        groups: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sio_core::event::IoOp;
    use sio_ppfs::PolicyConfig;

    fn tiny() -> MachineConfig {
        MachineConfig::tiny(4, 2)
    }

    #[test]
    fn sequential_kernel_runs_on_both_backends() {
        let w = sequential_read_kernel(8, 65536, AccessMode::MUnix);
        let pfs = run_workload(&tiny(), &w, &Backend::Pfs);
        let ppfs = run_workload(&tiny(), &w, &Backend::Ppfs(PolicyConfig::readahead(4)));
        assert_eq!(pfs.trace.of_op(IoOp::Read).count(), 8);
        assert_eq!(ppfs.trace.of_op(IoOp::Read).count(), 8);
        assert!(ppfs.ppfs_stats.is_some());
        assert!(pfs.ppfs_stats.is_none());
        // Same logical volume on both backends.
        assert_eq!(pfs.trace.data_volume(), ppfs.trace.data_volume());
    }

    #[test]
    fn parallel_write_kernel_counts() {
        let w = parallel_write_kernel(4, 5, 2048, AccessMode::MUnix);
        let out = run_workload(&tiny(), &w, &Backend::Pfs);
        assert_eq!(out.trace.of_op(IoOp::Write).count(), 20);
        assert_eq!(out.trace.of_op(IoOp::Seek).count(), 20);
        assert_eq!(out.trace.of_op(IoOp::Open).count(), 4);
        // Disjoint extents: every write offset unique.
        let mut offs: Vec<u64> = out.trace.of_op(IoOp::Write).map(|e| e.offset).collect();
        offs.sort_unstable();
        offs.dedup();
        assert_eq!(offs.len(), 20);
    }

    #[test]
    fn mode_kernels_run_for_every_mode() {
        for mode in AccessMode::ALL {
            let w = parallel_write_kernel(3, 2, 1024, mode);
            if mode == AccessMode::MGlobal {
                // M_GLOBAL writes replicate the same data; kernel is
                // read-oriented for that mode — skip.
                continue;
            }
            let out = run_workload(&tiny(), &w, &Backend::Pfs);
            assert_eq!(out.trace.of_op(IoOp::Write).count(), 6, "{mode}");
        }
    }

    #[test]
    fn random_kernel_is_deterministic() {
        let a = random_read_kernel(10, 4096, 1 << 20, 7);
        let b = random_read_kernel(10, 4096, 1 << 20, 7);
        let ta = run_workload(&tiny(), &a, &Backend::Pfs);
        let tb = run_workload(&tiny(), &b, &Backend::Pfs);
        assert_eq!(ta.trace.events(), tb.trace.events());
        let c = random_read_kernel(10, 4096, 1 << 20, 8);
        let tc = run_workload(&tiny(), &c, &Backend::Pfs);
        assert_ne!(ta.trace.events(), tc.trace.events());
    }

    #[test]
    fn cyclic_kernel_rewinds() {
        let w = cyclic_read_kernel(3, 4, 8192);
        let out = run_workload(&tiny(), &w, &Backend::Pfs);
        assert_eq!(out.trace.of_op(IoOp::Read).count(), 12);
        assert_eq!(out.trace.of_op(IoOp::Seek).count(), 3);
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn too_many_scripts_panics() {
        let w = parallel_write_kernel(64, 1, 1024, AccessMode::MUnix);
        let _ = run_workload(&tiny(), &w, &Backend::Pfs);
    }
}

//! The benchmark's one point of contact with the simulator's run plumbing.
//!
//! Everything that reads a backend's stats structs, or builds and drives an
//! [`Engine`] by hand, lives here, so a change to those surfaces (merging
//! the per-backend stats into one record, reshaping the engine) is a change
//! to this file alone. The suites themselves are reached through their
//! public entry points in `workloads.rs`.

use paragon_sim::engine::IoService;
use paragon_sim::mesh::Mesh;
use paragon_sim::program::{NodeProgram, ScriptProgram};
use paragon_sim::{Engine, EnginePerf, EngineReport, FaultSchedule, MachineConfig, SimTime};
use sio_apps::workload::{run_workload_crashable, BackendSpec, FsBackend, WATCHDOG_DEADLINE};
use sio_apps::{RunOutput, Workload};
use sio_core::sddf;
use sio_core::trace::TraceSink;
use std::time::Instant;

/// One simulated run: a workload on a backend, with an optional fault
/// schedule, crash instant and checkpoint-covered files — the arguments of
/// [`run_workload_crashable`].
pub struct Cell<'a> {
    pub machine: &'a MachineConfig,
    /// Registry name of the backend (`pfs`, `blog+cio`, ...).
    pub backend: &'static str,
    pub spec: BackendSpec,
    pub workload: &'a Workload,
    pub schedule: Option<FaultSchedule>,
    pub stop_at: Option<SimTime>,
    pub covered: &'a [u32],
}

impl Cell<'_> {
    /// Run through the public entry point the suites use.
    pub fn run(&self) -> RunOutput {
        run_workload_crashable(
            self.machine,
            self.workload,
            &self.spec,
            self.schedule.as_ref(),
            self.stop_at,
            self.covered,
        )
    }
}

/// Simulated-work counts of one run, read from the stats structs. They are
/// deterministic: a change that only makes the simulator faster must leave
/// every one of them unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimCounts {
    pub fskit_requests: u64,
    pub fskit_bytes: u64,
    pub ppfs_reads_hit: u64,
    pub ppfs_reads: u64,
    pub cio_members: u64,
    pub cio_collectives: u64,
    pub blog_drain_ops: u64,
    pub blog_stall_ns: u64,
    pub fault_retries: u64,
    pub fault_failovers: u64,
    pub meta_failovers: u64,
    pub raid_rebuild_chunks: u64,
}

impl SimCounts {
    pub fn of(out: &RunOutput) -> SimCounts {
        let ppfs = out.ppfs_stats.unwrap_or_default();
        let cio = out.cio.unwrap_or_default();
        let blog = out.blog.unwrap_or_default();
        let faults = out.pfs_faults.unwrap_or_default();
        let meta = out.meta.unwrap_or_default();
        SimCounts {
            fskit_requests: out
                .node_loads
                .iter()
                .map(|l| l.read_reqs + l.write_reqs)
                .sum(),
            fskit_bytes: out
                .node_loads
                .iter()
                .map(|l| l.read_bytes + l.write_bytes)
                .sum(),
            ppfs_reads_hit: ppfs.reads_hit,
            ppfs_reads: ppfs.reads_hit + ppfs.reads_missed,
            cio_members: cio.members,
            cio_collectives: cio.collectives,
            blog_drain_ops: blog.drain_ops,
            blog_stall_ns: blog.stall_ns,
            fault_retries: faults.retries,
            fault_failovers: faults.failovers,
            meta_failovers: meta.failovers,
            raid_rebuild_chunks: out.rebuild.0,
        }
    }

    pub fn add(&mut self, o: &SimCounts) {
        self.fskit_requests += o.fskit_requests;
        self.fskit_bytes += o.fskit_bytes;
        self.ppfs_reads_hit += o.ppfs_reads_hit;
        self.ppfs_reads += o.ppfs_reads;
        self.cio_members += o.cio_members;
        self.cio_collectives += o.cio_collectives;
        self.blog_drain_ops += o.blog_drain_ops;
        self.blog_stall_ns += o.blog_stall_ns;
        self.fault_retries += o.fault_retries;
        self.fault_failovers += o.fault_failovers;
        self.meta_failovers += o.meta_failovers;
        self.raid_rebuild_chunks += o.raid_rebuild_chunks;
    }
}

/// Digest of everything a run produced: the SDDF fingerprint of its trace,
/// the engine report, and every stats struct. Two runs with equal digests
/// are byte-identical as far as any caller can observe.
pub fn output_digest(out: &RunOutput) -> u64 {
    let text = format!(
        "{:016x} {:?} {:?} {:?} {:?} {} {:?} {:?} {:?} {:?}",
        sddf::fingerprint(&out.trace),
        out.report,
        out.ppfs_stats,
        out.pfs_faults,
        out.rebuild,
        out.degraded_nodes,
        out.node_loads,
        out.cio,
        out.blog,
        out.meta,
    );
    sddf::fingerprint_bytes(text.as_bytes())
}

/// Host time one traced run spent in each layer, plus the engine's and the
/// trace sink's own counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunLayers {
    /// `Engine::run` / `run_until`, everything included.
    pub run_ns: u64,
    /// Inside the backend's `IoService` methods (fskit pump and the
    /// ionode/disk/RAID/mesh models included).
    pub service_ns: u64,
    pub service_calls: u64,
    /// Inside `NodeProgram::step`.
    pub program_ns: u64,
    pub steps: u64,
    pub engine: EnginePerf,
    pub trace_events: u64,
    pub trace_bytes: u64,
    /// `FsBackend::finish_trace`.
    pub finish_ns: u64,
}

/// [`IoService`] wrapper that times every call into the backend.
struct TimedService {
    inner: Box<dyn FsBackend>,
    ns: u64,
    calls: u64,
    issue: std::cell::Cell<(u64, u64)>,
}

impl TimedService {
    fn time<R>(&mut self, f: impl FnOnce(&mut Box<dyn FsBackend>) -> R) -> R {
        let t = Instant::now();
        let r = f(&mut self.inner);
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        r
    }
}

impl IoService for TimedService {
    fn submit(
        &mut self,
        node: paragon_sim::NodeId,
        now: SimTime,
        req: paragon_sim::IoRequest,
        token: paragon_sim::program::IoToken,
        is_async: bool,
        sched: &mut paragon_sim::engine::Sched,
    ) {
        self.time(|s| s.submit(node, now, req, token, is_async, sched))
    }

    fn on_timer(&mut self, now: SimTime, timer: u64, sched: &mut paragon_sim::engine::Sched) {
        self.time(|s| s.on_timer(now, timer, sched))
    }

    fn on_start(&mut self, sched: &mut paragon_sim::engine::Sched) {
        self.time(|s| s.on_start(sched))
    }

    fn issue_cost(
        &self,
        node: paragon_sim::NodeId,
        req: &paragon_sim::IoRequest,
    ) -> paragon_sim::SimDuration {
        let t = Instant::now();
        let cost = self.inner.issue_cost(node, req);
        let (ns, calls) = self.issue.get();
        self.issue
            .set((ns + t.elapsed().as_nanos() as u64, calls + 1));
        cost
    }

    fn on_iowait(&mut self, node: paragon_sim::NodeId, file: u32, from: SimTime, to: SimTime) {
        self.time(|s| s.on_iowait(node, file, from, to))
    }

    fn on_run_end(&mut self, now: SimTime) {
        self.time(|s| s.on_run_end(now))
    }
}

/// Program time and step count of one run, shared by its node programs.
#[derive(Default)]
struct ProgramClock {
    ns: std::cell::Cell<u64>,
    steps: std::cell::Cell<u64>,
}

/// [`NodeProgram`] wrapper that times every `step` of a script.
struct TimedProgram {
    inner: ScriptProgram,
    clock: std::rc::Rc<ProgramClock>,
}

impl NodeProgram for TimedProgram {
    fn step(
        &mut self,
        node: paragon_sim::NodeId,
        resume: paragon_sim::Resume,
    ) -> paragon_sim::Step {
        let t = Instant::now();
        let step = self.inner.step(node, resume);
        let c = &self.clock;
        c.ns.set(c.ns.get() + t.elapsed().as_nanos() as u64);
        c.steps.set(c.steps.get() + 1);
        step
    }
}

impl Cell<'_> {
    /// The same run as [`Cell::run`], driven step for step as
    /// `run_workload_crashable` drives it, with the backend and every node
    /// program inside timing wrappers. The wrappers only forward, so the
    /// output is byte-identical to the untraced run's.
    pub fn run_traced(&self) -> (RunOutput, RunLayers) {
        let machine = self.machine;
        let w = self.workload;
        let schedule = self.schedule.clone().unwrap_or_default();
        let mut fs = self.spec.build(machine, TraceSink::new(&w.label), schedule);
        for f in &w.files {
            fs.register_file(f.clone());
        }
        for &file in self.covered {
            fs.mark_checkpoint_covered(file);
        }
        let clock = std::rc::Rc::new(ProgramClock::default());
        let programs: Vec<Box<dyn NodeProgram>> = w
            .scripts
            .iter()
            .map(|s| {
                Box::new(TimedProgram {
                    inner: ScriptProgram::new(s.clone()),
                    clock: clock.clone(),
                }) as Box<dyn NodeProgram>
            })
            .collect();
        let service = TimedService {
            inner: fs,
            ns: 0,
            calls: 0,
            issue: Default::default(),
        };
        let mesh = Mesh::for_nodes(machine.compute_nodes, machine.io_nodes);
        let mut engine = Engine::new(mesh, machine.comm, programs, service);
        engine.set_watchdog(WATCHDOG_DEADLINE);
        for g in &w.groups {
            engine.add_group(g.clone());
        }
        let t = Instant::now();
        let report: EngineReport = match self.stop_at {
            Some(at) => engine.run_until(at),
            None => engine.run(),
        };
        let run_ns = t.elapsed().as_nanos() as u64;
        let perf = engine.perf();
        let service = engine.into_service();
        let (issue_ns, issue_calls) = service.issue.get();
        let mut fs = service.inner;

        let blog = fs.blog_stats();
        fs.sink_mut()
            .set_run_info(w.scripts.len() as u32, report.wall.nanos());
        let trace_events = fs.sink_mut().len() as u64;
        let trace_bytes = fs.sink_mut().buffered_bytes();
        let ppfs_stats = fs.ppfs_stats();
        let pfs_faults = fs.pfs_fault_stats();
        let rebuild = fs.rebuild_totals();
        let degraded_nodes = fs.degraded_nodes();
        let node_loads = fs.node_loads();
        let cio = fs.cio_stats();
        let meta = fs.meta_stats();
        let t = Instant::now();
        let trace = fs.finish_trace();
        let finish_ns = t.elapsed().as_nanos() as u64;

        let layers = RunLayers {
            run_ns,
            service_ns: service.ns + issue_ns,
            service_calls: service.calls + issue_calls,
            program_ns: clock.ns.get(),
            steps: clock.steps.get(),
            engine: perf,
            trace_events,
            trace_bytes,
            finish_ns,
        };
        let out = RunOutput {
            trace,
            report,
            ppfs_stats,
            pfs_faults,
            rebuild,
            degraded_nodes,
            node_loads,
            cio,
            blog,
            meta,
        };
        (out, layers)
    }
}

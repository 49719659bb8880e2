//! Pluggable file-system backends: the [`FsBackend`] trait every backend
//! implements, and the [`BackendSpec`] naming/factory enum with the list
//! of shipped backend names, [`BackendSpec::BUILTIN`].
//!
//! The workload runner ([`crate::workload::run_workload`] and friends) is
//! generic over `Box<dyn FsBackend>`: it registers files, runs the engine,
//! stamps the trace, and harvests counters without knowing which file system
//! served the run. Adding a backend means embedding a [`FsCore`], handing it
//! out through [`FsBackend::core`], and naming it in [`BackendSpec`] — the
//! runner, analysis experiments, and `repro` pick it up unchanged.

use paragon_sim::engine::{IoService, Sched};
use paragon_sim::program::{IoRequest, IoToken};
use paragon_sim::{FaultSchedule, MachineConfig, NodeId, SimDuration, SimTime};
use sio_blog::{Blog, BlogParams, BlogStats, DrainBackend};
use sio_cio::{Cio, CioStats};
use sio_core::trace::{Trace, TraceSink};
use sio_fskit::{FaultStats, FsCore, MetaStats, NodeLoad};
use sio_pfs::{FileSpec, Pfs};
use sio_ppfs::{PolicyConfig, Ppfs, PpfsStats};

/// What the workload runner needs from a file-system backend beyond the
/// engine's [`IoService`] hooks: file registration, trace plumbing, and the
/// counters the experiment suites harvest after a run.
///
/// Every backend embeds one [`FsCore`]; the provided methods read the
/// shared state through it. The policy-specific getters default to `None`
/// so a backend only surfaces the counter families it actually keeps.
pub trait FsBackend: IoService {
    /// The substrate this backend runs on (a wrapper tier hands out its
    /// inner backend's).
    fn core(&self) -> &FsCore;

    /// Mutable access to the substrate.
    fn core_mut(&mut self) -> &mut FsCore;

    /// Consume the backend into its substrate.
    fn into_core(self: Box<Self>) -> FsCore;

    /// Register a file; returns its id (registration order = file id).
    fn register_file(&mut self, spec: FileSpec) -> u32 {
        self.core_mut().register(spec)
    }

    /// Declare a file's contents reconstructible from a durable checkpoint
    /// (crash-loss accounting). Default: no-op for backends without
    /// write-behind exposure.
    fn mark_checkpoint_covered(&mut self, file: u32) {
        let _ = file;
    }

    /// Mutable access to the trace sink (run-info stamping, perf events).
    fn sink_mut(&mut self) -> &mut TraceSink {
        self.core_mut().sink_mut()
    }

    /// Consume the backend, freezing its captured trace.
    fn finish_trace(self: Box<Self>) -> Trace {
        self.into_core().finish_trace()
    }

    /// RAID rebuild work done across all I/O nodes: (chunks, member bytes).
    fn rebuild_totals(&self) -> (u64, u64) {
        self.core().rebuild_totals()
    }

    /// I/O nodes whose arrays are still degraded.
    fn degraded_nodes(&self) -> u32 {
        self.core().degraded_nodes()
    }

    /// PPFS policy counters, when this backend keeps them.
    fn ppfs_stats(&self) -> Option<PpfsStats> {
        None
    }

    /// PFS fault-machinery counters, when this backend keeps them.
    fn pfs_fault_stats(&self) -> Option<FaultStats> {
        None
    }

    /// Metadata-server fault counters (replica failovers, parked-RPC
    /// retries, typed unavailability) of the replicated
    /// [`sio_fskit::MetaServer`].
    fn meta_stats(&self) -> Option<MetaStats> {
        Some(self.core().meta_stats())
    }

    /// Accepted-request accounting per I/O node (request counts and byte
    /// volumes, split by direction).
    fn node_loads(&self) -> Vec<NodeLoad> {
        self.core().node_loads().to_vec()
    }

    /// Collective-I/O machinery counters, when this backend keeps them.
    fn cio_stats(&self) -> Option<CioStats> {
        None
    }

    /// Burst-log drain-health counters, when this backend is wrapped by the
    /// log tier.
    fn blog_stats(&self) -> Option<BlogStats> {
        None
    }

    /// Accept a coalesced burst-log drain extent as background write
    /// traffic (no application-visible trace event). Only backends that
    /// ride the shared segment pump support drains; the log tier refuses to
    /// wrap anything else at parse time, so reaching the default is a bug.
    #[allow(clippy::too_many_arguments)]
    fn submit_drain(
        &mut self,
        node: NodeId,
        now: SimTime,
        file: u32,
        offset: u64,
        bytes: u64,
        token: IoToken,
        sched: &mut Sched,
    ) {
        let _ = (node, now, file, offset, bytes, token, sched);
        panic!("backend does not support drain traffic");
    }

    /// Whether acknowledged data was lost to exhausted redundancy
    /// (surfaced by the log tier as `DataLoss` on the next `Sync`).
    fn any_data_lost(&self) -> bool {
        self.core().any_data_lost()
    }
}

/// A boxed backend can serve as the inner tier under the burst log: drains
/// route through [`FsBackend::submit_drain`], and the log tier traces its
/// absorbed writes into the same sink as the inner backend.
impl DrainBackend for Box<dyn FsBackend> {
    fn submit_drain(
        &mut self,
        node: NodeId,
        now: SimTime,
        file: u32,
        offset: u64,
        bytes: u64,
        token: IoToken,
        sched: &mut Sched,
    ) {
        (**self).submit_drain(node, now, file, offset, bytes, token, sched)
    }

    fn drain_sink(&mut self) -> &mut TraceSink {
        (**self).sink_mut()
    }

    fn any_data_lost(&self) -> bool {
        (**self).any_data_lost()
    }
}

/// A boxed backend is itself an [`IoService`], so the engine can run any
/// registered backend without monomorphizing per concrete type.
impl IoService for Box<dyn FsBackend> {
    fn submit(
        &mut self,
        node: NodeId,
        now: SimTime,
        req: IoRequest,
        token: IoToken,
        is_async: bool,
        sched: &mut Sched,
    ) {
        (**self).submit(node, now, req, token, is_async, sched)
    }

    fn on_timer(&mut self, now: SimTime, timer: u64, sched: &mut Sched) {
        (**self).on_timer(now, timer, sched)
    }

    fn on_start(&mut self, sched: &mut Sched) {
        (**self).on_start(sched)
    }

    fn issue_cost(&self, node: NodeId, req: &IoRequest) -> SimDuration {
        (**self).issue_cost(node, req)
    }

    fn on_iowait(&mut self, node: NodeId, file: u32, wait_start: SimTime, wait_end: SimTime) {
        (**self).on_iowait(node, file, wait_start, wait_end)
    }

    fn on_run_end(&mut self, now: SimTime) {
        (**self).on_run_end(now)
    }
}

impl FsBackend for Pfs {
    fn core(&self) -> &FsCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut FsCore {
        &mut self.core
    }

    fn into_core(self: Box<Self>) -> FsCore {
        self.core
    }

    fn pfs_fault_stats(&self) -> Option<FaultStats> {
        Some(self.core.fault_stats())
    }

    fn submit_drain(
        &mut self,
        node: NodeId,
        now: SimTime,
        file: u32,
        offset: u64,
        bytes: u64,
        token: IoToken,
        sched: &mut Sched,
    ) {
        Pfs::submit_drain(self, node, now, file, offset, bytes, token, sched)
    }
}

impl FsBackend for Ppfs {
    fn core(&self) -> &FsCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut FsCore {
        &mut self.core
    }

    fn into_core(self: Box<Self>) -> FsCore {
        self.core
    }

    fn mark_checkpoint_covered(&mut self, file: u32) {
        Ppfs::mark_checkpoint_covered(self, file)
    }

    fn ppfs_stats(&self) -> Option<PpfsStats> {
        Some(self.stats())
    }

    fn submit_drain(
        &mut self,
        node: NodeId,
        now: SimTime,
        file: u32,
        offset: u64,
        bytes: u64,
        token: IoToken,
        sched: &mut Sched,
    ) {
        Ppfs::submit_drain(self, node, now, file, offset, bytes, token, sched)
    }
}

impl FsBackend for Cio {
    fn core(&self) -> &FsCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut FsCore {
        &mut self.core
    }

    fn into_core(self: Box<Self>) -> FsCore {
        self.core
    }

    /// CIO's fault machinery is PFS's (both ride the buddy-failover pump),
    /// so its counters surface through the same getter and every
    /// fault/recovery harness reads them unchanged.
    fn pfs_fault_stats(&self) -> Option<FaultStats> {
        Some(self.core.fault_stats())
    }

    fn cio_stats(&self) -> Option<CioStats> {
        Some(Cio::cio_stats(self))
    }

    fn submit_drain(
        &mut self,
        node: NodeId,
        now: SimTime,
        file: u32,
        offset: u64,
        bytes: u64,
        token: IoToken,
        sched: &mut Sched,
    ) {
        Cio::submit_drain(self, node, now, file, offset, bytes, token, sched)
    }
}

/// The log tier over any boxed inner backend is itself a backend: the
/// substrate, counters, and fault surfaces are the inner tier's; the
/// wrapper adds its own drain-health counters.
impl FsBackend for Blog<Box<dyn FsBackend>> {
    fn core(&self) -> &FsCore {
        self.inner().core()
    }

    fn core_mut(&mut self) -> &mut FsCore {
        self.inner_mut().core_mut()
    }

    fn into_core(self: Box<Self>) -> FsCore {
        (*self).into_inner().into_core()
    }

    fn mark_checkpoint_covered(&mut self, file: u32) {
        self.inner_mut().mark_checkpoint_covered(file)
    }

    fn ppfs_stats(&self) -> Option<PpfsStats> {
        self.inner().ppfs_stats()
    }

    fn pfs_fault_stats(&self) -> Option<FaultStats> {
        self.inner().pfs_fault_stats()
    }

    fn cio_stats(&self) -> Option<CioStats> {
        self.inner().cio_stats()
    }

    fn blog_stats(&self) -> Option<BlogStats> {
        Some(self.stats())
    }
}

/// Which file system serves a workload. This is the *specification* — a
/// cheap, comparable value; [`BackendSpec::build`] turns it into a live
/// [`FsBackend`].
#[derive(Debug, Clone, PartialEq)]
pub enum BackendSpec {
    /// The Intel PFS model (`sio-pfs`).
    Pfs,
    /// The PPFS policy engine with the given configuration (`sio-ppfs`).
    Ppfs(PolicyConfig),
    /// The collective two-phase I/O backend (`sio-cio`).
    Cio,
    /// The host-side burst-log tier (`sio-blog`) in front of an inner
    /// backend. Never nests: `parse` rejects `blog+blog+…`.
    Blog(Box<BackendSpec>, BlogParams),
}

/// The historical name of [`BackendSpec`]; existing call sites construct
/// `Backend::Pfs` / `Backend::Ppfs(policy)` through this alias.
pub type Backend = BackendSpec;

impl BackendSpec {
    /// The shipped backend names, each one [`BackendSpec::parse`] accepts:
    /// PFS, the tuned PPFS variants, CIO, and the log tier over each of the
    /// three. Tools and tests that enumerate backends iterate this instead
    /// of hard-coding a subset; build one with
    /// `BackendSpec::parse(name)?.build(..)`.
    pub const BUILTIN: [&'static str; 9] = [
        "pfs",
        "ppfs",
        "ppfs-escat",
        "ppfs-pargos",
        "ppfs-wt",
        "cio",
        "blog+pfs",
        "blog+ppfs",
        "blog+cio",
    ];

    /// Parse a backend name — the one place backend names are interpreted.
    /// `ppfs` defaults to the ESCAT-tuned policy; suffixed variants pick the
    /// other calibrated policies.
    pub fn parse(name: &str) -> Option<BackendSpec> {
        if let Some(inner) = name.strip_prefix("blog+") {
            // The log tier wraps a concrete backend, never itself.
            if inner.starts_with("blog") {
                return None;
            }
            let spec = BackendSpec::parse(inner)?;
            return Some(BackendSpec::Blog(Box::new(spec), BlogParams::default()));
        }
        match name {
            "pfs" => Some(BackendSpec::Pfs),
            "ppfs" | "ppfs-escat" => Some(BackendSpec::Ppfs(PolicyConfig::escat_tuned())),
            "ppfs-pargos" => Some(BackendSpec::Ppfs(PolicyConfig::pargos_tuned())),
            "ppfs-wt" => Some(BackendSpec::Ppfs(PolicyConfig::write_through())),
            "cio" => Some(BackendSpec::Cio),
            _ => None,
        }
    }

    /// The backend family name (inverse of [`BackendSpec::parse`] up to
    /// policy details).
    pub fn name(&self) -> &'static str {
        match self {
            BackendSpec::Pfs => "pfs",
            BackendSpec::Ppfs(_) => "ppfs",
            BackendSpec::Cio => "cio",
            BackendSpec::Blog(..) => "blog",
        }
    }

    /// Build a live backend over `machine`, tracing into `sink`, with an
    /// injected fault schedule (empty = healthy run).
    pub fn build(
        &self,
        machine: &MachineConfig,
        sink: TraceSink,
        schedule: FaultSchedule,
    ) -> Box<dyn FsBackend> {
        match self {
            BackendSpec::Pfs => Box::new(Pfs::with_faults(machine, sink, schedule)),
            BackendSpec::Ppfs(policy) => {
                Box::new(Ppfs::with_faults(machine, *policy, sink, schedule))
            }
            BackendSpec::Cio => Box::new(Cio::with_faults(machine, sink, schedule)),
            BackendSpec::Blog(inner, params) => {
                Box::new(Blog::new(inner.build(machine, sink, schedule), *params))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_knows_every_builtin_name() {
        for name in BackendSpec::BUILTIN {
            assert!(BackendSpec::parse(name).is_some(), "unparsed: {name}");
        }
        assert_eq!(BackendSpec::parse("pfs"), Some(BackendSpec::Pfs));
        assert_eq!(BackendSpec::parse("nfs"), None);
        assert_eq!(BackendSpec::Pfs.name(), "pfs");
        assert_eq!(
            BackendSpec::Ppfs(PolicyConfig::escat_tuned()).name(),
            "ppfs"
        );
    }

    #[test]
    fn blog_wraps_any_inner_but_never_itself() {
        let wrapped = BackendSpec::parse("blog+pfs").expect("blog+pfs parses");
        assert_eq!(wrapped.name(), "blog");
        assert_eq!(
            wrapped,
            BackendSpec::Blog(Box::new(BackendSpec::Pfs), BlogParams::default())
        );
        assert!(BackendSpec::parse("blog+cio").is_some());
        assert!(BackendSpec::parse("blog+ppfs-pargos").is_some());
        // No nesting, no unknown inner, no bare prefix.
        assert_eq!(BackendSpec::parse("blog+blog+pfs"), None);
        assert_eq!(BackendSpec::parse("blog+nfs"), None);
        assert_eq!(BackendSpec::parse("blog+"), None);
        assert_eq!(BackendSpec::parse("blog"), None);
    }

    #[test]
    fn builtin_names_build_each_backend() {
        let m = MachineConfig::tiny(2, 2);
        for name in BackendSpec::BUILTIN {
            let spec = BackendSpec::parse(name).expect("builtin name parses");
            let fs = spec.build(&m, TraceSink::new("t"), FaultSchedule::new());
            // Every backend reports healthy arrays at birth.
            assert_eq!(fs.degraded_nodes(), 0, "{name}");
        }
    }
}

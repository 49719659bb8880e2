//! X8: chaos campaign engine — seeded randomized fault sweeps across every
//! registered backend, with per-cell invariant checking.
//!
//! The X4 fault suite measures a handful of *canned* scenarios; this module
//! asks the opposite question: does the stack stay well-behaved under
//! schedules nobody hand-picked? A campaign is a seeded sequence of
//! **cells**: each cell pairs one checkpointed application skeleton (ESCAT,
//! RENDER, HTF-pargos) with one backend from [`BackendSpec::BUILTIN`]
//! and a randomly composed [`FaultSchedule`] drawing from all four fault
//! domains — disk (member failures and rebuilds), node (stalls and
//! recovered crashes), link (mesh congestion), and metadata (replica stalls
//! and full outages). A fraction of cells is additionally crash-cut
//! mid-run, exercising the durable-cut recovery analysis under compound
//! faults.
//!
//! Every cell checks the same invariants, whatever the draw:
//!
//! * **liveness** — the run terminates and the engine watchdog stayed
//!   silent ([`sio_apps::workload::WATCHDOG_DEADLINE`] is armed on every
//!   run); a cell that is not crash-cut must finish *clean* (every node
//!   done, nothing blocked);
//! * **typed faults only** — lost operations surface as typed
//!   [`paragon_sim::IoFault`] completions, counted by the backend
//!   (`FaultStats`, `MetaStats`), and only the fault classes the schedule
//!   can produce appear: a schedule with no metadata outage must report
//!   zero `Unavailable` RPCs, recovered single-node crashes must never
//!   time out (the 600 s request deadline dwarfs every recovery window),
//!   and single-member disk failures must never exhaust redundancy;
//! * **byte conservation** — cells whose faults are *lossless* (link
//!   congestion and metadata trouble move no user data) must accept
//!   exactly the healthy baseline's byte volume on every I/O node;
//! * **durable-cut correctness** — crash-cut cells derive a durable
//!   checkpoint epoch from the surviving trace
//!   ([`crate::recovery::durable_cut`], or the log-aware
//!   [`crate::recovery::durable_cut_logged`] for `blog+*` backends) that
//!   never exceeds the plan's epoch count;
//! * **trace well-formedness** — every surviving trace event validates.
//!
//! Cell specs are generated up front from the campaign seed by
//! [`chaos_specs`] — a pure function, so the campaign is reproducible and
//! worker-count invariant — and the runs fan out over
//! [`runner::par_map_jobs`]. Paper-scale digests live in
//! `results/golden_chaos.txt`.

use crate::cells::{durable_cut_for, run_checkpointed, Apps, Stage};
use crate::runner;
use paragon_sim::fault::{FaultDomain, FaultSchedule};
use paragon_sim::{MachineConfig, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sio_apps::workload::{Backend, RunOutput};
use sio_apps::{BackendSpec, EscatParams, HtfParams, RenderParams};
use sio_core::event::{IoOp, NS_PER_SEC};
use sio_core::Trace;

/// The application skeletons a campaign draws from (all three have
/// checkpointed variants, so every cell can be crash-cut).
pub const CHAOS_WORKLOADS: [&str; 3] = ["escat", "render", "htf-pargos"];

/// One randomly drawn fault, with times as *fractions of the healthy
/// wall* — the spec is generated before any simulation runs, and converted
/// to an absolute [`FaultSchedule`] once the cell's baseline wall is known.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpecFault {
    /// One member disk fails; optionally a hot spare starts a rebuild.
    DiskFail {
        /// Failure instant, fraction of the healthy wall.
        frac: f64,
        /// Target I/O node.
        io: u32,
        /// Rebuild start, fraction of the healthy wall (`None` = stays
        /// degraded).
        repair_frac: Option<f64>,
    },
    /// The I/O node stops making progress for `secs`.
    NodeStall {
        /// Stall instant, fraction of the healthy wall.
        frac: f64,
        /// Target I/O node.
        io: u32,
        /// Stall length, seconds.
        secs: f64,
    },
    /// The I/O node crashes and later recovers. The generator always pairs
    /// the recovery: a single crashed node drains through buddy failover,
    /// so a paired crash must finish with zero timeouts.
    NodeCrash {
        /// Crash instant, fraction of the healthy wall.
        frac: f64,
        /// Target I/O node.
        io: u32,
        /// Recovery instant, fraction of the healthy wall.
        recover_frac: f64,
    },
    /// Mesh congestion on one link region, optionally healing later.
    LinkDegrade {
        /// Degradation instant, fraction of the healthy wall.
        frac: f64,
        /// Target link region (one per I/O node's edge links).
        region: u32,
        /// Bandwidth divisor.
        bw_div: f64,
        /// Hop-latency multiplier.
        lat_mult: f64,
        /// Heal instant (`None` = stays congested to the end).
        heal_frac: Option<f64>,
    },
    /// One metadata replica stalls for `secs`; the buddy keeps serving.
    MetaStall {
        /// Stall instant, fraction of the healthy wall.
        frac: f64,
        /// Replica index (0 = primary, 1 = buddy).
        replica: u32,
        /// Stall length, seconds.
        secs: f64,
    },
    /// Both metadata replicas crash — a full outage. RPCs issued during
    /// the outage park with bounded retry and either complete after the
    /// recovery or surface `IoFault::Unavailable`.
    MetaOutage {
        /// Outage instant, fraction of the healthy wall.
        frac: f64,
        /// Recovery instant for both replicas (`None` = outage persists,
        /// every later metadata RPC fails typed).
        recover_frac: Option<f64>,
    },
}

impl SpecFault {
    /// The fault domain this draw strikes.
    pub fn domain(&self) -> FaultDomain {
        match self {
            SpecFault::DiskFail { .. } => FaultDomain::Disk,
            SpecFault::NodeStall { .. } | SpecFault::NodeCrash { .. } => FaultDomain::Node,
            SpecFault::LinkDegrade { .. } => FaultDomain::Link,
            SpecFault::MetaStall { .. } | SpecFault::MetaOutage { .. } => FaultDomain::Meta,
        }
    }

    /// Number of [`paragon_sim::fault::FaultEvent`]s this draw schedules.
    fn event_count(&self) -> u32 {
        match self {
            SpecFault::DiskFail { repair_frac, .. } => 1 + repair_frac.is_some() as u32,
            SpecFault::NodeStall { .. } | SpecFault::MetaStall { .. } => 1,
            SpecFault::NodeCrash { .. } => 2,
            SpecFault::LinkDegrade { heal_frac, .. } => 1 + heal_frac.is_some() as u32,
            SpecFault::MetaOutage { recover_frac, .. } => 2 + 2 * recover_frac.is_some() as u32,
        }
    }

    /// Whether this fault can move or lose user data. Link congestion and
    /// metadata trouble only delay (or typed-fail) operations, so the
    /// per-I/O-node byte accounting must match the healthy baseline
    /// exactly when every fault in a cell is lossless.
    fn lossless(&self) -> bool {
        matches!(
            self,
            SpecFault::LinkDegrade { .. }
                | SpecFault::MetaStall { .. }
                | SpecFault::MetaOutage { .. }
        )
    }
}

/// One cell of a chaos campaign: workload × backend × fault draws
/// (× optional crash cut), all chosen by the campaign seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Cell index within the campaign.
    pub cell: u32,
    /// Workload label (one of [`CHAOS_WORKLOADS`]).
    pub workload: &'static str,
    /// Backend name (one of [`BackendSpec::BUILTIN`]).
    pub backend: &'static str,
    /// The drawn faults, at most one group per domain.
    pub faults: Vec<SpecFault>,
    /// Crash-cut instant as a fraction of the healthy wall (`None` = the
    /// cell runs to completion).
    pub crash_frac: Option<f64>,
}

impl ChaosSpec {
    /// Distinct domains struck, in [`FaultDomain`] declaration order.
    pub fn domains(&self) -> Vec<FaultDomain> {
        let all = [
            FaultDomain::Disk,
            FaultDomain::Node,
            FaultDomain::Link,
            FaultDomain::Meta,
        ];
        all.into_iter()
            .filter(|d| self.faults.iter().any(|f| f.domain() == *d))
            .collect()
    }

    /// Stable `disk+node+…` label for reports and digests.
    pub fn domains_label(&self) -> String {
        self.domains()
            .iter()
            .map(|d| d.label())
            .collect::<Vec<_>>()
            .join("+")
    }

    /// Total scheduled fault events.
    pub fn event_count(&self) -> u32 {
        self.faults.iter().map(|f| f.event_count()).sum()
    }

    /// Whether the cell includes a full metadata outage (the only
    /// generated source of typed `Unavailable` completions).
    pub fn has_meta_outage(&self) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, SpecFault::MetaOutage { .. }))
    }

    /// Whether every fault in the cell is lossless (byte conservation
    /// against the healthy baseline applies).
    pub fn lossless(&self) -> bool {
        self.faults.iter().all(|f| f.lossless())
    }

    /// Convert the fractional spec into an absolute schedule over the
    /// cell's healthy wall time.
    pub fn schedule(&self, healthy_wall: SimTime) -> FaultSchedule {
        let wall = healthy_wall.nanos().max(1) as f64;
        let t = |frac: f64| SimTime((wall * frac) as u64);
        let mut s = FaultSchedule::new();
        for f in &self.faults {
            match *f {
                SpecFault::DiskFail {
                    frac,
                    io,
                    repair_frac,
                } => {
                    s.disk_fail(t(frac), io, 0);
                    if let Some(rf) = repair_frac {
                        s.disk_repair(t(rf), io);
                    }
                }
                SpecFault::NodeStall { frac, io, secs } => {
                    s.node_stall(t(frac), io, SimDuration::from_secs_f64(secs));
                }
                SpecFault::NodeCrash {
                    frac,
                    io,
                    recover_frac,
                } => {
                    s.node_crash(t(frac), io);
                    s.node_recover(t(recover_frac), io);
                }
                SpecFault::LinkDegrade {
                    frac,
                    region,
                    bw_div,
                    lat_mult,
                    heal_frac,
                } => {
                    s.link_degrade(t(frac), region, bw_div, lat_mult);
                    if let Some(hf) = heal_frac {
                        s.link_heal(t(hf), region);
                    }
                }
                SpecFault::MetaStall {
                    frac,
                    replica,
                    secs,
                } => {
                    s.meta_stall(t(frac), replica, SimDuration::from_secs_f64(secs));
                }
                SpecFault::MetaOutage { frac, recover_frac } => {
                    s.meta_crash(t(frac), 0);
                    s.meta_crash(t(frac), 1);
                    if let Some(rf) = recover_frac {
                        s.meta_recover(t(rf), 0);
                        s.meta_recover(t(rf), 1);
                    }
                }
            }
        }
        s
    }
}

/// Generate a campaign's cell specs — a pure function of `(seed, cells,
/// io_nodes)`, independent of worker count and of any simulation result.
///
/// Workloads and backends rotate deterministically so any campaign of at
/// least nine cells covers every registered backend; the fault draws (1–3
/// domains per cell, 1–8 scheduled events) and the crash cut of every
/// fifth cell come from the seeded generator. Constraints the invariant
/// checks rely on are enforced here: at most one node crash per cell
/// (always paired with a recovery, so buddy failover must drain it), at
/// most one member failure per array (redundancy is never exhausted), and
/// stalls far below the request deadline.
pub fn chaos_specs(seed: u64, cells: u32, io_nodes: u32) -> Vec<ChaosSpec> {
    assert!(cells > 0, "chaos campaign needs at least one cell");
    assert!(io_nodes > 0, "chaos campaign needs at least one i/o node");
    let backends = BackendSpec::BUILTIN;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..cells)
        .map(|i| {
            let backend = backends[i as usize % backends.len()];
            let workload = CHAOS_WORKLOADS[(i as usize / backends.len()) % CHAOS_WORKLOADS.len()];
            // Draw 1–3 distinct domains via a partial shuffle.
            let mut domains = [
                FaultDomain::Disk,
                FaultDomain::Node,
                FaultDomain::Link,
                FaultDomain::Meta,
            ];
            let k = rng.random_range(1usize..=3);
            for j in 0..k {
                let pick = rng.random_range(j..domains.len());
                domains.swap(j, pick);
            }
            let mut faults = Vec::new();
            for d in &domains[..k] {
                let frac = rng.random_range(0.05..0.70);
                match d {
                    FaultDomain::Disk => {
                        let io = rng.random_range(0..io_nodes);
                        let repair_frac = (rng.random_range(0u32..2) == 0)
                            .then(|| frac + rng.random_range(0.02..0.10));
                        faults.push(SpecFault::DiskFail {
                            frac,
                            io,
                            repair_frac,
                        });
                    }
                    FaultDomain::Node => {
                        let io = rng.random_range(0..io_nodes);
                        if rng.random_range(0u32..2) == 0 {
                            faults.push(SpecFault::NodeStall {
                                frac,
                                io,
                                secs: rng.random_range(0.5..2.0),
                            });
                        } else {
                            faults.push(SpecFault::NodeCrash {
                                frac,
                                io,
                                recover_frac: frac + rng.random_range(0.05..0.25),
                            });
                        }
                    }
                    FaultDomain::Link => {
                        let region = rng.random_range(0..io_nodes);
                        let bw_div = [2.0, 4.0, 8.0][rng.random_range(0usize..3)];
                        let lat_mult = [1.0, 2.0, 4.0][rng.random_range(0usize..3)];
                        let heal_frac = (rng.random_range(0u32..4) != 0)
                            .then(|| frac + rng.random_range(0.05..0.25));
                        faults.push(SpecFault::LinkDegrade {
                            frac,
                            region,
                            bw_div,
                            lat_mult,
                            heal_frac,
                        });
                    }
                    FaultDomain::Meta => {
                        if rng.random_range(0u32..2) == 0 {
                            faults.push(SpecFault::MetaStall {
                                frac,
                                replica: rng.random_range(0u32..2),
                                secs: rng.random_range(0.2..1.5),
                            });
                        } else {
                            let recover_frac = (rng.random_range(0u32..2) == 0)
                                .then(|| frac + rng.random_range(0.02..0.20));
                            faults.push(SpecFault::MetaOutage { frac, recover_frac });
                        }
                    }
                }
            }
            let crash_frac = (i % 5 == 4).then(|| rng.random_range(0.30..0.80));
            ChaosSpec {
                cell: i,
                workload,
                backend,
                faults,
                crash_frac,
            }
        })
        .collect()
}

/// One campaign cell's measured outcome plus its invariant verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRow {
    /// Cell index within the campaign.
    pub cell: u32,
    /// Workload label.
    pub workload: String,
    /// Backend name.
    pub backend: String,
    /// Struck domains, `disk+node+…`.
    pub domains: String,
    /// Scheduled fault events.
    pub events: u32,
    /// Crash-cut fraction (0 = ran to completion).
    pub crash_frac: f64,
    /// Healthy (fault-free) wall of this workload × backend, seconds.
    pub healthy_wall_secs: f64,
    /// Faulted wall, seconds.
    pub wall_secs: f64,
    /// `wall / healthy_wall` — degradation cost (crash-cut cells end
    /// early, so theirs is below the cut fraction).
    pub slowdown: f64,
    /// Application-visible operations traced (everything but the internal
    /// `IoWait` / `AsyncRead` traffic).
    pub ops: u64,
    /// Operations that completed with a typed fault.
    pub faulted: u64,
    /// `1 − faulted/ops` — per-cell op availability.
    pub availability: f64,
    /// 99th-percentile application-visible op latency, milliseconds.
    pub p99_ms: f64,
    /// Backoff retries: pump segment re-submissions + parked metadata
    /// RPC probes.
    pub retries: u64,
    /// Failovers: pump buddy failovers + metadata replica failovers.
    pub failovers: u64,
    /// Typed `Unavailable` completions (metadata retry budget exhausted).
    pub unavailable: u64,
    /// Typed `Timeout` completions (must stay zero: every generated
    /// schedule recovers well inside the request deadline).
    pub timeouts: u64,
    /// Durable checkpoint epoch recovered from a crash-cut cell's trace.
    pub durable_epoch: u32,
    /// Epoch boundaries in the full plan.
    pub epochs: u32,
    /// Liveness: no watchdog hang, and a clean finish unless crash-cut.
    pub hang_clean: bool,
    /// Typed-fault accounting matched what the schedule can produce.
    pub typed_ok: bool,
    /// Byte conservation held (vacuously true when not applicable).
    pub conserved: bool,
    /// Durable cut within bounds (vacuously true for uncut cells).
    pub cut_ok: bool,
    /// Every surviving trace event validated.
    pub trace_ok: bool,
}

impl ChaosRow {
    /// All five invariants held for this cell.
    pub fn invariants_ok(&self) -> bool {
        self.hang_clean && self.typed_ok && self.conserved && self.cut_ok && self.trace_ok
    }
}

/// Per-domain aggregate over a campaign: every cell whose schedule struck
/// the domain contributes.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainSummary {
    /// Domain label (`disk`/`node`/`link`/`meta`).
    pub domain: &'static str,
    /// Cells that struck this domain.
    pub cells: u32,
    /// Mean per-cell op availability.
    pub availability: f64,
    /// Mean per-cell p99 op latency, milliseconds.
    pub mean_p99_ms: f64,
    /// Typed faults across the domain's cells.
    pub faulted: u64,
    /// Cells whose invariants all held.
    pub cells_ok: u32,
}

/// Aggregate campaign rows per fault domain (a cell striking two domains
/// counts toward both).
pub fn domain_summary(rows: &[ChaosRow]) -> Vec<DomainSummary> {
    [
        FaultDomain::Disk,
        FaultDomain::Node,
        FaultDomain::Link,
        FaultDomain::Meta,
    ]
    .into_iter()
    .map(|d| {
        let label = d.label();
        let hit: Vec<&ChaosRow> = rows
            .iter()
            .filter(|r| r.domains.split('+').any(|l| l == label))
            .collect();
        let n = hit.len().max(1) as f64;
        DomainSummary {
            domain: label,
            cells: hit.len() as u32,
            availability: hit.iter().map(|r| r.availability).sum::<f64>() / n,
            mean_p99_ms: hit.iter().map(|r| r.p99_ms).sum::<f64>() / n,
            faulted: hit.iter().map(|r| r.faulted).sum(),
            cells_ok: hit.iter().filter(|r| r.invariants_ok()).count() as u32,
        }
    })
    .collect()
}

/// Application-visible trace events: everything the program asked for.
/// `IoWait` intervals and `AsyncRead` issues are backend-internal overlap
/// machinery and excluded from op counting and latency percentiles.
fn visible_ops(trace: &Trace) -> impl Iterator<Item = &sio_core::event::IoEvent> {
    trace
        .events()
        .iter()
        .filter(|e| !matches!(e.op, IoOp::IoWait | IoOp::AsyncRead))
}

/// 99th-percentile duration of the application-visible ops, milliseconds.
fn p99_ms(trace: &Trace) -> f64 {
    let mut durs: Vec<u64> = visible_ops(trace).map(|e| e.duration()).collect();
    if durs.is_empty() {
        return 0.0;
    }
    durs.sort_unstable();
    let idx = ((durs.len() as f64 * 0.99).ceil() as usize).clamp(1, durs.len()) - 1;
    durs[idx] as f64 / 1e6
}

/// Typed-fault completions a run reported, summed across the layers
/// without double counting: `MetaStats::unavailable` counts exhausted
/// metadata RPCs on every backend; PFS/CIO mirror those same failures
/// into `FaultStats::unavailable`, so only the *excess* (a genuine
/// data-path rejection) adds on top; timeouts are data-path only.
fn typed_faults(out: &RunOutput) -> (u64, u64, u64) {
    let pf = out.pfs_faults.unwrap_or_default();
    let meta = out.meta.unwrap_or_default();
    let unavailable = meta.unavailable + pf.unavailable.saturating_sub(meta.unavailable);
    (unavailable, pf.timeouts, pf.data_loss_events)
}

/// Run the X8 chaos campaign on `jobs` workers. Two fan-out phases —
/// healthy baselines (one per distinct workload × backend in the campaign),
/// then every cell with its schedule scaled to the baseline wall — so rows
/// come back in cell order and are worker-count invariant.
pub fn chaos_suite_jobs(
    machine: &MachineConfig,
    escat: &EscatParams,
    render: &RenderParams,
    htf: &HtfParams,
    seed: u64,
    cells: u32,
    jobs: usize,
) -> Vec<ChaosRow> {
    let specs = chaos_specs(seed, cells, machine.io_nodes);
    let apps = Apps { escat, render, htf };
    let backend_of = |bname: &str| -> Backend { Backend::parse(bname).expect("registered name") };
    let fresh = |wname: &str| apps.checkpointed(wname, apps.interval(wname), 0);

    // Phase 1: healthy baselines, one per distinct (workload, backend).
    let baselines = Stage::run(
        jobs,
        specs.iter().map(|s| (s.workload, s.backend)),
        |(w, b)| {
            let out = run_checkpointed(machine, &fresh(w), &backend_of(b), None, None);
            (out.report.wall, out.node_loads)
        },
    );

    // Phase 2: the cells.
    runner::par_map_jobs(jobs, specs, |_, spec| {
        let (healthy_wall, healthy_loads) = baselines.get(&(spec.workload, spec.backend));
        let schedule = spec.schedule(*healthy_wall);
        let stop_at = spec
            .crash_frac
            .map(|f| SimTime((healthy_wall.nanos() as f64 * f) as u64));
        let cw = fresh(spec.workload);
        let backend = backend_of(spec.backend);
        let out = run_checkpointed(machine, &cw, &backend, Some(&schedule), stop_at);

        let (unavailable, timeouts, data_loss) = typed_faults(&out);
        let faulted = unavailable + timeouts + data_loss;
        let ops = visible_ops(&out.trace).count() as u64;
        let pf = out.pfs_faults.unwrap_or_default();
        let meta = out.meta.unwrap_or_default();

        // Invariant: liveness — the watchdog stayed silent, and an uncut
        // cell finished clean.
        let hang_clean =
            out.report.hang.is_none() && (spec.crash_frac.is_some() || out.report.clean());
        // Invariant: only the fault classes the schedule can produce.
        let typed_ok =
            timeouts == 0 && data_loss == 0 && (spec.has_meta_outage() || unavailable == 0);
        // Invariant: lossless faults conserve per-I/O-node byte volume.
        let conserved = if spec.lossless() && spec.crash_frac.is_none() {
            out.node_loads.len() == healthy_loads.len()
                && out
                    .node_loads
                    .iter()
                    .zip(healthy_loads.iter())
                    .all(|(a, b)| a.read_bytes == b.read_bytes && a.write_bytes == b.write_bytes)
        } else {
            true
        };
        // Invariant: crash-cut cells recover a durable epoch within the
        // plan, through the backend-appropriate cut analysis.
        let (durable_epoch, cut_ok) = match stop_at {
            Some(t) => {
                let units = apps.units(spec.workload);
                let cut = durable_cut_for(&backend, &out.trace, &cw.plan, &units, t);
                (cut.epoch, cut.epoch <= cw.plan.epochs)
            }
            None => (0, true),
        };
        let trace_ok = out.trace.validate().is_ok();

        let healthy_secs = healthy_wall.nanos() as f64 / NS_PER_SEC;
        let wall_secs = out.report.wall.nanos() as f64 / NS_PER_SEC;
        ChaosRow {
            cell: spec.cell,
            workload: spec.workload.to_string(),
            backend: spec.backend.to_string(),
            domains: spec.domains_label(),
            events: spec.event_count(),
            crash_frac: spec.crash_frac.unwrap_or(0.0),
            healthy_wall_secs: healthy_secs,
            wall_secs,
            slowdown: wall_secs / healthy_secs.max(f64::EPSILON),
            ops,
            faulted,
            availability: 1.0 - faulted as f64 / ops.max(1) as f64,
            p99_ms: p99_ms(&out.trace),
            retries: pf.retries + meta.retries,
            failovers: pf.failovers + meta.failovers,
            unavailable,
            timeouts,
            durable_epoch,
            epochs: cw.plan.epochs,
            hang_clean,
            typed_ok,
            conserved,
            cut_ok,
            trace_ok,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MachineConfig {
        MachineConfig::tiny(4, 2)
    }

    fn small_suite(seed: u64, cells: u32, jobs: usize) -> Vec<ChaosRow> {
        chaos_suite_jobs(
            &tiny(),
            &EscatParams::small(4, 6),
            &RenderParams::small(4, 3),
            &HtfParams::small(4),
            seed,
            cells,
            jobs,
        )
    }

    #[test]
    fn specs_are_seed_deterministic_and_in_bounds() {
        let a = chaos_specs(7, 40, 4);
        let b = chaos_specs(7, 40, 4);
        assert_eq!(a, b, "same seed must give the same campaign");
        assert_ne!(a, chaos_specs(8, 40, 4), "seed must matter");
        let backends = BackendSpec::BUILTIN;
        for (i, s) in a.iter().enumerate() {
            assert_eq!(s.cell as usize, i);
            assert_eq!(s.backend, backends[i % backends.len()]);
            assert!(CHAOS_WORKLOADS.contains(&s.workload));
            let n = s.event_count();
            assert!((1..=8).contains(&n), "cell {i}: {n} events");
            assert!(!s.domains().is_empty() && s.domains().len() <= 3);
            // At most one draw per domain keeps the invariants decidable:
            // a single recovered crash must drain, a single member failure
            // must never exhaust redundancy.
            let doms = s.domains();
            assert_eq!(doms.len(), s.faults.len(), "one draw per domain");
            if let Some(f) = s.crash_frac {
                assert!((0.30..0.80).contains(&f));
            }
            assert_eq!(s.crash_frac.is_some(), i % 5 == 4);
        }
        // Nine-plus cells cover the whole registry.
        let seen: std::collections::BTreeSet<&str> = a.iter().map(|s| s.backend).collect();
        assert_eq!(seen.len(), backends.len(), "registry not covered");
    }

    #[test]
    fn small_campaign_holds_every_invariant() {
        let rows = small_suite(42, 12, 2);
        assert_eq!(rows.len(), 12);
        for r in &rows {
            assert!(
                r.invariants_ok(),
                "cell {} ({} on {}, {}): hang_clean={} typed_ok={} conserved={} cut_ok={} trace_ok={}",
                r.cell,
                r.workload,
                r.backend,
                r.domains,
                r.hang_clean,
                r.typed_ok,
                r.conserved,
                r.cut_ok,
                r.trace_ok
            );
            assert!(r.ops > 0, "cell {}: empty trace", r.cell);
            assert!(
                (0.0..=1.0).contains(&r.availability),
                "cell {}: availability {}",
                r.cell,
                r.availability
            );
            assert!(r.p99_ms >= 0.0);
        }
        // The campaign struck at least one domain somewhere, and the
        // domain summary partitions the cells it saw.
        let summary = domain_summary(&rows);
        assert_eq!(summary.len(), 4);
        assert!(summary.iter().any(|s| s.cells > 0));
        for s in &summary {
            assert_eq!(s.cells_ok, s.cells, "{}: invariant violations", s.domain);
        }
    }

    #[test]
    fn suite_rows_are_worker_count_invariant() {
        assert_eq!(small_suite(42, 10, 1), small_suite(42, 10, 8));
    }
}

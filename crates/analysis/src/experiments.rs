//! Experiment drivers — one per entry in DESIGN.md's experiment index.
//!
//! Each driver runs the workload(s), derives the paper artifact(s), and
//! returns everything the `repro` binary, the integration tests, and the
//! benches need: tables, figures, paper-vs-measured checks, and shape
//! checks.
//!
//! Every multi-run sweep fans out over [`crate::runner`]: each simulation
//! is an independent pure function of its configuration, so the worker
//! count (`--jobs` / `SIO_JOBS`) affects wall time only — rows come back
//! in input order and are bit-identical to the serial path
//! (`tests/golden_traces.rs`). Each sweep has one entry point, its `*_jobs`
//! function, which takes the worker count; callers that follow `--jobs`
//! pass [`runner::configured_jobs`].

use crate::cells::{Apps, Stage};
use crate::compare::{self, Check, ShapeCheck};
use crate::figures::{self, FigureSet};
use crate::optable::OpTable;
use crate::runner;
use crate::sizetable::SizeTable;
use paragon_sim::ionode::QueueDiscipline;
use paragon_sim::{FaultSchedule, MachineConfig, SimDuration, SimTime};
use sio_apps::workload::{
    cyclic_read_kernel, parallel_write_kernel, random_read_kernel, run_workload,
    run_workload_with_faults, sequential_read_kernel, strided_read_kernel, Backend, RunOutput,
};
use sio_apps::{EscatParams, HtfParams, RenderParams};
use sio_core::event::{IoOp, NS_PER_SEC};
use sio_pfs::AccessMode;
use sio_ppfs::PolicyConfig;

/// T1/T2/F2–F5: the ESCAT characterization.
pub struct EscatArtifacts {
    /// The run.
    pub out: RunOutput,
    /// Table 1.
    pub table1: OpTable,
    /// Table 2.
    pub table2: SizeTable,
    /// Figures 2–5.
    pub figures: FigureSet,
    /// Write-burst gaps (Figure 4 spacing analysis).
    pub gaps: Vec<f64>,
    /// Paper-vs-measured count/volume checks.
    pub checks: Vec<Check>,
    /// Qualitative shape checks.
    pub shapes: Vec<ShapeCheck>,
}

/// Run the ESCAT experiment (T1, T2, F2–F5).
pub fn escat(machine: &MachineConfig, params: &EscatParams) -> EscatArtifacts {
    let out = run_workload(machine, &params.workload(), &Backend::Pfs);
    let table1 = OpTable::from_trace(&out.trace);
    let table2 = SizeTable::from_trace(&out.trace);
    // Phase 1 ends when the first staging write begins.
    let init_end = out
        .trace
        .of_op(IoOp::Write)
        .map(|e| e.start)
        .min()
        .unwrap_or(0) as f64
        / NS_PER_SEC;
    let figures = FigureSet::escat(&out.trace, init_end);
    let (_, gaps) = figures::write_burst_gaps(&out.trace, 20.0);
    let checks = [
        compare::escat_table1_checks(&table1),
        compare::escat_table2_checks(&table2),
    ]
    .concat();
    let shapes = compare::escat_shape(&table1, &gaps);
    EscatArtifacts {
        out,
        table1,
        table2,
        figures,
        gaps,
        checks,
        shapes,
    }
}

/// T3/T4/F6–F8: the RENDER characterization.
pub struct RenderArtifacts {
    /// The run.
    pub out: RunOutput,
    /// Table 3.
    pub table3: OpTable,
    /// Table 4.
    pub table4: SizeTable,
    /// Figures 6–8.
    pub figures: FigureSet,
    /// End of the initialization phase (first frame write), seconds.
    pub init_end_secs: f64,
    /// Paper-vs-measured checks.
    pub checks: Vec<Check>,
    /// Shape checks.
    pub shapes: Vec<ShapeCheck>,
}

/// Run the RENDER experiment (T3, T4, F6–F8, X2).
pub fn render(machine: &MachineConfig, params: &RenderParams) -> RenderArtifacts {
    let out = run_workload(machine, &params.workload(), &Backend::Pfs);
    let table3 = OpTable::from_trace(&out.trace);
    let table4 = SizeTable::from_trace(&out.trace);
    let init_end_secs = out
        .trace
        .of_op(IoOp::Write)
        .map(|e| e.start)
        .min()
        .unwrap_or(0) as f64
        / NS_PER_SEC;
    let figures = FigureSet::render(&out.trace);
    let checks = compare::render_table3_checks(&table3);
    let shapes = compare::render_shape(&table3, out.wall_secs(), init_end_secs);
    RenderArtifacts {
        out,
        table3,
        table4,
        figures,
        init_end_secs,
        checks,
        shapes,
    }
}

/// T5/T6/F9–F17: the HTF pipeline characterization.
pub struct HtfArtifacts {
    /// psetup run.
    pub psetup: RunOutput,
    /// pargos run.
    pub pargos: RunOutput,
    /// pscf run.
    pub pscf: RunOutput,
    /// Table 5 (one operation table per phase).
    pub table5: [OpTable; 3],
    /// Table 6 (one size table per phase).
    pub table6: [SizeTable; 3],
    /// Figures 9–17.
    pub figures: FigureSet,
    /// Paper-vs-measured checks.
    pub checks: Vec<Check>,
    /// Shape checks.
    pub shapes: Vec<ShapeCheck>,
}

/// Run the HTF pipeline experiment (T5, T6, F9–F17). The three pipeline
/// programs are characterized independently in the paper, so they run as
/// three parallel jobs.
pub fn htf(machine: &MachineConfig, params: &HtfParams) -> HtfArtifacts {
    let phases = vec![
        params.psetup_workload(),
        params.pargos_workload(),
        params.pscf_workload(),
    ];
    let mut outs = runner::par_map(phases, |_, w| run_workload(machine, &w, &Backend::Pfs));
    let pscf = outs.pop().expect("pscf run");
    let pargos = outs.pop().expect("pargos run");
    let psetup = outs.pop().expect("psetup run");
    let table5 = [
        OpTable::from_trace(&psetup.trace),
        OpTable::from_trace(&pargos.trace),
        OpTable::from_trace(&pscf.trace),
    ];
    let table6 = [
        SizeTable::from_trace(&psetup.trace),
        SizeTable::from_trace(&pargos.trace),
        SizeTable::from_trace(&pscf.trace),
    ];
    let figures = FigureSet::htf(&psetup.trace, &pargos.trace, &pscf.trace);
    let checks = [
        compare::htf_table5_checks(&table5[0], &table5[1], &table5[2]),
        compare::htf_table6_checks(&table6[0], &table6[1], &table6[2]),
    ]
    .concat();
    let shapes = compare::htf_shape(&table5[1], &table5[2]);
    HtfArtifacts {
        psetup,
        pargos,
        pscf,
        table5,
        table6,
        figures,
        checks,
        shapes,
    }
}

/// X1: the §5.2 PPFS experiment — ESCAT on PFS vs PPFS with write-behind +
/// global aggregation.
pub struct PpfsAblation {
    /// ESCAT on the PFS baseline.
    pub pfs: RunOutput,
    /// ESCAT on PPFS (write-behind + aggregation).
    pub ppfs: RunOutput,
    /// Seek + write node time on PFS, seconds.
    pub pfs_write_seek_secs: f64,
    /// Seek + write node time on PPFS, seconds.
    pub ppfs_write_seek_secs: f64,
    /// Improvement factor (PFS / PPFS).
    pub speedup: f64,
    /// Dirty extents the PPFS flush path wrote back.
    pub flush_extents: u64,
    /// Application writes absorbed by the buffer.
    pub writes_buffered: u64,
}

/// Run the PPFS ablation (X1). The baseline and tuned runs are
/// independent, so they fan out as two parallel jobs.
pub fn ppfs_ablation(machine: &MachineConfig, params: &EscatParams) -> PpfsAblation {
    let backends = vec![Backend::Pfs, Backend::Ppfs(PolicyConfig::escat_tuned())];
    let mut outs = runner::par_map(backends, |_, b| {
        run_workload(machine, &params.workload(), &b)
    });
    let ppfs = outs.pop().expect("ppfs run");
    let pfs = outs.pop().expect("pfs run");
    let ws = |out: &RunOutput| -> f64 {
        let t = OpTable::from_trace(&out.trace);
        t.secs(IoOp::Write) + t.secs(IoOp::Seek)
    };
    let pfs_ws = ws(&pfs);
    let ppfs_ws = ws(&ppfs);
    let stats = ppfs.ppfs_stats.expect("ppfs stats");
    PpfsAblation {
        pfs_write_seek_secs: pfs_ws,
        ppfs_write_seek_secs: ppfs_ws,
        speedup: pfs_ws / ppfs_ws.max(1e-9),
        flush_extents: stats.flush_extents,
        writes_buffered: stats.writes_buffered,
        pfs,
        ppfs,
    }
}

/// X3: the §7.2 read-vs-recompute crossover model.
///
/// Reading a precomputed two-electron integral beats recomputing it when
/// `integral_bytes / io_rate < flops_per_integral / flop_rate`. The paper
/// states the break-even at roughly 5–10 MB/s per node for ~500 flops per
/// integral.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossoverRow {
    /// Per-node sustained I/O rate, MB/s.
    pub io_rate_mb_s: f64,
    /// Time to read one integral, microseconds.
    pub read_us: f64,
    /// Time to recompute one integral, microseconds.
    pub compute_us: f64,
    /// Whether reading wins at this rate.
    pub io_preferred: bool,
}

/// Per-node I/O rates `rates_mb_s` against the read-vs-recompute
/// crossover (X3): one closed-form row per rate, in input order.
pub fn htf_crossover(
    integral_bytes: f64,
    flops_per_integral: f64,
    flop_rate: f64,
    rates_mb_s: &[f64],
) -> impl Iterator<Item = CrossoverRow> + '_ {
    let compute_us = flops_per_integral / flop_rate * 1e6;
    rates_mb_s.iter().map(move |&r| {
        let read_us = integral_bytes / (r * 1e6) * 1e6;
        CrossoverRow {
            io_rate_mb_s: r,
            read_us,
            compute_us,
            io_preferred: read_us < compute_us,
        }
    })
}

/// The paper's crossover sweep: ~100-byte integrals, 500 flops each, a
/// 20 MFLOPS sustained node.
pub fn htf_crossover_paper() -> Vec<CrossoverRow> {
    htf_crossover(
        100.0,
        500.0,
        20.0e6,
        &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0],
    )
    .collect()
}

/// A1: access-mode cost ablation row.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeRow {
    /// The mode.
    pub mode: AccessMode,
    /// Total write node time, seconds.
    pub write_secs: f64,
    /// Wall time, seconds.
    pub wall_secs: f64,
}

/// Run the access-mode ablation (A1): synchronized parallel writers under
/// every non-collective mode, one parallel job per mode.
pub fn mode_ablation_jobs(
    machine: &MachineConfig,
    nodes: u32,
    per_node: u32,
    bytes: u64,
    jobs: usize,
) -> Vec<ModeRow> {
    let modes: Vec<AccessMode> = AccessMode::ALL
        .into_iter()
        .filter(|m| *m != AccessMode::MGlobal) // M_GLOBAL is read-collective
        .collect();
    runner::par_map_jobs(jobs, modes, |_, mode| {
        let w = parallel_write_kernel(nodes, per_node, bytes, mode);
        let out = run_workload(machine, &w, &Backend::Pfs);
        let t = OpTable::from_trace(&out.trace);
        ModeRow {
            mode,
            write_secs: t.secs(IoOp::Write),
            wall_secs: out.wall_secs(),
        }
    })
}

/// A2: cache/prefetch policy-matrix row.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRow {
    /// Workload kernel name.
    pub kernel: &'static str,
    /// Policy name.
    pub policy: &'static str,
    /// Total read node time, seconds.
    pub read_secs: f64,
    /// Whole-read cache-hit count.
    pub reads_hit: u64,
}

/// Run the policy matrix (A2): four access patterns × three policies, one
/// parallel job per cell. The paper's thesis (§8/§10): no single policy
/// wins everywhere.
pub fn policy_matrix_jobs(machine: &MachineConfig, jobs: usize) -> Vec<PolicyRow> {
    let kernels: Vec<(&'static str, sio_apps::Workload)> = vec![
        (
            "sequential",
            sequential_read_kernel(64, 65536, AccessMode::MUnix),
        ),
        ("strided", strided_read_kernel(64, 4096, 262_144)),
        ("random", random_read_kernel(64, 4096, 32 << 20, 11)),
        ("cyclic", cyclic_read_kernel(4, 16, 65536)),
    ];
    let policies: Vec<(&'static str, PolicyConfig)> = vec![
        ("none", PolicyConfig::write_through()),
        ("readahead4", PolicyConfig::readahead(4)),
        ("adaptive4", PolicyConfig::adaptive(4)),
    ];
    let cells: Vec<(&'static str, sio_apps::Workload, &'static str, PolicyConfig)> = kernels
        .iter()
        .flat_map(|(kname, kernel)| {
            policies
                .iter()
                .map(|(pname, policy)| (*kname, kernel.clone(), *pname, *policy))
        })
        .collect();
    runner::par_map_jobs(jobs, cells, |_, (kernel, workload, policy, config)| {
        let out = run_workload(machine, &workload, &Backend::Ppfs(config));
        let t = OpTable::from_trace(&out.trace);
        PolicyRow {
            kernel,
            policy,
            read_secs: t.secs(IoOp::Read),
            reads_hit: out.ppfs_stats.unwrap().reads_hit,
        }
    })
}

/// A3: disk queue-discipline ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueRow {
    /// Discipline.
    pub discipline: QueueDiscipline,
    /// Total read node time, seconds.
    pub read_secs: f64,
    /// Wall seconds.
    pub wall_secs: f64,
}

/// Run the queue-discipline ablation (A3): an offset-scattered concurrent
/// read burst under FIFO vs C-SCAN.
///
/// The kernel issues explicit-offset reads (no seek calls, so nothing
/// throttles the burst) from many nodes against a machine with only two I/O
/// nodes — deep queues are exactly where the discipline matters. One job
/// per discipline.
pub fn queue_discipline_jobs(machine: &MachineConfig, nodes: u32, jobs: usize) -> Vec<QueueRow> {
    use paragon_sim::program::{IoRequest, ScriptOp};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sio_pfs::FileSpec;

    let file_len: u64 = 512 << 20;
    let build = || -> sio_apps::Workload {
        let scripts = (0..nodes)
            .map(|node| {
                let mut rng = StdRng::seed_from_u64(1000 + node as u64);
                let mut ops = vec![
                    ScriptOp::Io(IoRequest::open(0, AccessMode::MUnix.code())),
                    ScriptOp::Barrier(0),
                ];
                for _ in 0..24 {
                    let mut req = IoRequest::read(0, 65536);
                    req.offset = Some(rng.random_range(0..file_len - 65536));
                    ops.push(ScriptOp::Io(req));
                }
                ops
            })
            .collect();
        sio_apps::Workload {
            label: "queue-discipline".to_string(),
            files: vec![FileSpec::input("hot", file_len)],
            scripts,
            groups: Vec::new(),
        }
    };
    let disciplines = vec![
        QueueDiscipline::Fifo,
        QueueDiscipline::CScan,
        QueueDiscipline::Sstf,
    ];
    runner::par_map_jobs(jobs, disciplines, |_, d| {
        let mut m = machine.clone().with_discipline(d);
        m.io_nodes = 2;
        let out = run_workload(&m, &build(), &Backend::Pfs);
        let t = OpTable::from_trace(&out.trace);
        QueueRow {
            discipline: d,
            read_secs: t.secs(IoOp::Read),
            wall_secs: out.wall_secs(),
        }
    })
}

/// S1: ESCAT weak scaling — same per-node quadrature work, growing node
/// counts on the fixed 16-I/O-node machine. The serialized shared-file
/// operations make I/O node-time grow superlinearly: the paper's framing
/// that "input/output is emerging as a major performance bottleneck" for
/// scalable applications.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleRow {
    /// Compute nodes.
    pub nodes: u32,
    /// Total I/O node time, seconds.
    pub io_secs: f64,
    /// Wall time, seconds.
    pub wall_secs: f64,
    /// I/O share of aggregate node time (io_secs / (wall × nodes)).
    pub io_fraction: f64,
}

/// Run the ESCAT weak-scaling sweep (S1), one parallel job per node count.
pub fn escat_scaling_jobs(
    machine: &MachineConfig,
    node_counts: &[u32],
    jobs: usize,
) -> Vec<ScaleRow> {
    runner::par_map_jobs(jobs, node_counts.to_vec(), |_, nodes| {
        let mut params = EscatParams::paper();
        params.nodes = nodes;
        let mut m = machine.clone();
        m.compute_nodes = m.compute_nodes.max(nodes);
        let out = run_workload(&m, &params.workload(), &Backend::Pfs);
        let io_secs = out.trace.node_time() as f64 / 1e9;
        let wall_secs = out.wall_secs();
        ScaleRow {
            nodes,
            io_secs,
            wall_secs,
            io_fraction: io_secs / (wall_secs * nodes as f64),
        }
    })
}

/// S2: quadrature-data growth. §5.2: the quadrature volume grows as
/// O(N³) in the number of scattering outcomes; the developers' target
/// (N ≈ 50) means two orders of magnitude more data, at which point
/// "research practice and the behavior of this code would change
/// dramatically were higher performance input/output possible". We scale
/// the number of quadrature records at fixed *total* compute, isolating
/// the I/O growth, and watch the I/O share of the run take over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrowthRow {
    /// Multiplier on the quadrature record count.
    pub scale: u32,
    /// Total bytes written.
    pub write_volume: u64,
    /// I/O share of aggregate node time.
    pub io_fraction: f64,
    /// Wall seconds.
    pub wall_secs: f64,
}

/// Run the quadrature-growth sweep (S2), one parallel job per scale.
pub fn escat_growth_jobs(
    machine: &MachineConfig,
    params: &EscatParams,
    scales: &[u32],
    jobs: usize,
) -> Vec<GrowthRow> {
    runner::par_map_jobs(jobs, scales.to_vec(), |_, scale| {
        let mut p = params.clone();
        // More integrals: more records per node, same record size.
        p.iters = params.iters * scale;
        p.seek_iters = params.seek_iters * scale;
        // Total compute held fixed (what-if isolating the I/O term).
        p.compute_start = params.compute_start / scale as f64;
        p.compute_end = params.compute_end / scale as f64;
        let out = run_workload(machine, &p.workload(), &Backend::Pfs);
        let t = OpTable::from_trace(&out.trace);
        let io_secs = out.trace.node_time() as f64 / 1e9;
        let wall_secs = out.wall_secs();
        GrowthRow {
            scale,
            write_volume: t.volume(IoOp::Write),
            io_fraction: io_secs / (wall_secs * p.nodes as f64),
            wall_secs,
        }
    })
}

/// M1: application-mix interference (paper §8) — one application's I/O
/// time inflates when another shares the I/O nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct MixRow {
    /// Application label.
    pub app: String,
    /// I/O nodes in this configuration.
    pub io_nodes: u32,
    /// Total I/O node time running alone, seconds.
    pub isolated_io_secs: f64,
    /// Total I/O node time in the mix, seconds.
    pub mixed_io_secs: f64,
}

impl MixRow {
    /// mixed / isolated.
    pub fn inflation(&self) -> f64 {
        self.mixed_io_secs / self.isolated_io_secs.max(1e-9)
    }
}

/// Which simulation a mix job runs.
#[derive(Debug, Clone, Copy)]
enum MixTask {
    IsoEscat,
    IsoPscf,
    Mixed,
}

/// Run the workload-mix experiment (M1): ESCAT and HTF-pscf side by side,
/// sharing the metadata server and I/O nodes, on machines with the full and
/// a constrained I/O-node count. At the CCSF configuration (16 I/O nodes)
/// the arrays have headroom and interference is mild; constraining the I/O
/// nodes puts the mix into the contention regime. The two I/O-node
/// configurations × (two isolated runs + one mixed run) flatten into six
/// independent jobs.
pub fn workload_mix_jobs(
    machine: &MachineConfig,
    escat_params: &EscatParams,
    htf_params: &HtfParams,
    jobs: usize,
) -> Vec<MixRow> {
    use sio_apps::mix;
    let w_escat = escat_params.workload();
    let w_pscf = htf_params.pscf_workload();

    let io_secs = |events: &[sio_core::IoEvent]| -> f64 {
        events.iter().map(|e| e.duration()).sum::<u64>() as f64 / 1e9
    };

    let configs = [machine.io_nodes, (machine.io_nodes / 4).max(1)];
    let tasks: Vec<(u32, MixTask)> = configs
        .iter()
        .flat_map(|&io_nodes| {
            [MixTask::IsoEscat, MixTask::IsoPscf, MixTask::Mixed]
                .into_iter()
                .map(move |t| (io_nodes, t))
        })
        .collect();
    let outs = runner::par_map_jobs(jobs, tasks, |_, (io_nodes, task)| {
        let mut m = machine.clone();
        m.io_nodes = io_nodes;
        match task {
            MixTask::IsoEscat => run_workload(&m, &w_escat, &Backend::Pfs),
            MixTask::IsoPscf => run_workload(&m, &w_pscf, &Backend::Pfs),
            MixTask::Mixed => {
                let mixed_w = mix::combine("escat+pscf", &[&w_escat, &w_pscf]);
                let mut big = m.clone();
                big.compute_nodes = big.compute_nodes.max(mixed_w.scripts.len() as u32);
                run_workload(&big, &mixed_w, &Backend::Pfs)
            }
        }
    });

    let mut rows = Vec::new();
    for (c, chunk) in outs.chunks_exact(3).enumerate() {
        let (iso_escat, iso_pscf, mixed) = (&chunk[0], &chunk[1], &chunk[2]);
        let io_nodes = configs[c];
        let parts = [&w_escat, &w_pscf];
        let r_escat = mix::node_range(&parts, 0);
        let r_pscf = mix::node_range(&parts, 1);
        let in_range = |r: &std::ops::Range<u32>| -> Vec<sio_core::IoEvent> {
            mixed
                .trace
                .events()
                .iter()
                .filter(|e| r.contains(&e.node))
                .copied()
                .collect()
        };
        rows.push(MixRow {
            app: "escat".to_string(),
            io_nodes,
            isolated_io_secs: io_secs(iso_escat.trace.events()),
            mixed_io_secs: io_secs(&in_range(&r_escat)),
        });
        rows.push(MixRow {
            app: "htf-pscf".to_string(),
            io_nodes,
            isolated_io_secs: io_secs(iso_pscf.trace.events()),
            mixed_io_secs: io_secs(&in_range(&r_pscf)),
        });
    }
    rows
}

/// B1: two-level buffering (paper §8) — N nodes stream the same file in
/// turn; the server cache at the I/O nodes serves every node after the
/// first from memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoLevelRow {
    /// Server cache blocks per I/O node (0 = client-only baseline).
    pub server_blocks: u32,
    /// Total read node time, seconds.
    pub read_secs: f64,
    /// Server-cache block hits.
    pub server_hits: u64,
}

/// Run the two-level buffering experiment (B1), one job per server-cache
/// configuration.
pub fn two_level_buffering_jobs(
    machine: &MachineConfig,
    nodes: u32,
    jobs: usize,
) -> Vec<TwoLevelRow> {
    use paragon_sim::program::{IoRequest, ScriptOp};
    use paragon_sim::SimDuration;
    use sio_pfs::FileSpec;

    let reads_per_node = 16u32;
    let bytes = 65_536u64;
    let build = || -> sio_apps::Workload {
        let scripts = (0..nodes)
            .map(|node| {
                // Stagger the nodes so later readers find warm server caches.
                let mut ops = vec![
                    ScriptOp::Io(IoRequest::open(0, AccessMode::MUnix.code())),
                    ScriptOp::Compute(SimDuration::from_millis(1500 * node as u64)),
                ];
                for _ in 0..reads_per_node {
                    ops.push(ScriptOp::Io(IoRequest::read(0, bytes)));
                }
                ops
            })
            .collect();
        sio_apps::Workload {
            label: "two-level".to_string(),
            files: vec![FileSpec::input("shared", reads_per_node as u64 * bytes)],
            scripts,
            groups: Vec::new(),
        }
    };
    runner::par_map_jobs(jobs, vec![0u32, 256], |_, server_blocks| {
        let policy = if server_blocks == 0 {
            PolicyConfig::write_through()
        } else {
            PolicyConfig::two_level(64, server_blocks)
        };
        let out = run_workload(machine, &build(), &Backend::Ppfs(policy));
        let t = OpTable::from_trace(&out.trace);
        let stats = out.ppfs_stats.unwrap();
        TwoLevelRow {
            server_blocks,
            read_secs: t.secs(IoOp::Read),
            server_hits: stats.server_hits,
        }
    })
}

/// A4: RAID-3 degraded-mode read penalty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaidRow {
    /// Whether a data disk was failed before the run.
    pub degraded: bool,
    /// Total read node time, seconds.
    pub read_secs: f64,
}

/// Run the RAID degraded-mode experiment (A4), healthy and degraded runs
/// in parallel.
pub fn raid_degraded_jobs(machine: &MachineConfig, jobs: usize) -> Vec<RaidRow> {
    use paragon_sim::mesh::Mesh;
    use paragon_sim::program::{NodeProgram, ScriptProgram};
    use paragon_sim::Engine;
    use sio_core::trace::TraceSink;
    use sio_pfs::Pfs;

    runner::par_map_jobs(jobs, vec![false, true], |_, degraded| {
        let w = sequential_read_kernel(64, 262_144, AccessMode::MUnix);
        let mut fs = Pfs::new(machine, TraceSink::new("raid"));
        for f in &w.files {
            fs.core.register(f.clone());
        }
        if degraded {
            for io in 0..machine.io_nodes {
                fs.core
                    .fail_disk(io, 0)
                    .expect("first failure on a healthy array");
            }
        }
        let programs: Vec<Box<dyn NodeProgram>> = w
            .scripts
            .iter()
            .map(|s| Box::new(ScriptProgram::new(s.clone())) as Box<dyn NodeProgram>)
            .collect();
        let mut engine = Engine::new(
            Mesh::for_nodes(machine.compute_nodes, machine.io_nodes),
            machine.comm,
            programs,
            fs,
        );
        engine.set_default_watchdog();
        let report = engine.run();
        assert!(report.clean());
        let trace = engine.into_service().core.finish_trace();
        let read_ns: u64 = trace.of_op(IoOp::Read).map(|e| e.duration()).sum();
        RaidRow {
            degraded,
            read_secs: read_ns as f64 / NS_PER_SEC,
        }
    })
}

/// X4: one cell of the fault-injection suite (workload × fault scenario).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRow {
    /// Workload label (`escat`, `render`, `htf-pscf`, `escat-wb`).
    pub workload: String,
    /// Fault scenario (`healthy`, `degraded`, `rebuild`, `stalls`, `crash`).
    pub scenario: String,
    /// Simulated wall seconds (includes any rebuild tail: the run is over
    /// when the machine is quiet, not when the programs exit).
    pub wall_secs: f64,
    /// Total read node time, seconds.
    pub read_secs: f64,
    /// Total write node time, seconds.
    pub write_secs: f64,
    /// Backoff retries after explicit rejections (PFS path).
    pub retries: u64,
    /// Segments failed over to the buddy node (PFS path).
    pub failovers: u64,
    /// Segments lost to node crashes.
    pub lost_segments: u64,
    /// Requests failed by the per-request deadline.
    pub timeouts: u64,
    /// Background rebuild chunks serviced.
    pub rebuild_chunks: u64,
    /// Member bytes rebuilt, MB.
    pub rebuilt_mb: f64,
    /// Arrays still degraded when the run ended.
    pub degraded_at_end: u32,
    /// Write-behind bytes exposed to an I/O-node crash (PPFS path).
    pub dirty_bytes_lost: u64,
    /// Segments replayed after node recovery (PPFS path).
    pub replayed_segments: u64,
}

/// The canned fault schedule for one X4 scenario (`None` = healthy run,
/// keeping the fault machinery fully dormant). Time-relative scenarios
/// (`stalls`, `crash`) are scaled to `healthy_wall` — the workload's
/// fault-free wall time — so the fault window always overlaps the
/// workload's actual I/O, whatever its scale. Events landing after the
/// faulted run finishes are deterministic no-ops.
pub fn fault_scenario_schedule(
    name: &str,
    io_nodes: u32,
    seed: u64,
    healthy_wall: SimTime,
) -> Option<FaultSchedule> {
    let wall = healthy_wall.nanos().max(1);
    let mut s = FaultSchedule::new();
    match name {
        "healthy" => return None,
        // Every array loses one member before the first request: the whole
        // run pays the degraded-read reconstruction penalty.
        "degraded" => s = FaultSchedule::all_disks_fail(SimTime::ZERO, io_nodes, 0),
        // As above, but a hot spare arrives at t=1s: background rebuild
        // traffic competes with foreground requests at member spindle rate
        // until every array heals (~546 s of member time per array).
        "rebuild" => {
            s = FaultSchedule::all_disks_fail(SimTime::ZERO, io_nodes, 0);
            for io in 0..io_nodes {
                s.disk_repair(SimTime(1_000_000_000), io);
            }
        }
        // Seeded background flakiness: 24 two-second server stalls scattered
        // over the whole (healthy) duration of the run.
        "stalls" => {
            s = FaultSchedule::scattered_stalls(
                seed,
                io_nodes,
                24,
                SimDuration(wall),
                SimDuration::from_secs(2),
            );
        }
        // I/O node 0 crashes a quarter of the way into the run and returns
        // at the halfway mark: in-flight segments are lost, PFS retries
        // then fails over to the buddy node, PPFS parks write-behind
        // segments for replay.
        "crash" => {
            s.node_crash(SimTime(wall / 4), 0);
            s.node_recover(SimTime(wall / 2), 0);
        }
        // Write-behind exposure: the node goes down three quarters of the
        // way in and stays down past the healthy end of the run, so the
        // close-driven flush tail finds it dead — dirty segments park and
        // replay on recovery instead of completing in place.
        "wb-crash" => {
            s.node_crash(SimTime(wall * 3 / 4), 0);
            s.node_recover(SimTime(wall * 3 / 2), 0);
        }
        other => panic!("unknown fault scenario '{other}'"),
    }
    Some(s)
}

/// Run the fault-injection suite (X4) on `jobs` workers: ESCAT, RENDER, and
/// HTF-pscf on PFS under every canned scenario, plus ESCAT on PPFS
/// write-behind under a crash (the dirty-data exposure case). One job per
/// cell; rows come back in canonical order and are worker-count invariant.
///
/// Two fan-out phases: the healthy baselines run first (they are the
/// suite's `healthy` rows *and* supply each workload's wall time), then
/// every faulted cell runs with its schedule scaled to that wall, so the
/// crash and stall windows always land inside the run they perturb.
pub fn fault_suite_jobs(
    machine: &MachineConfig,
    escat: &EscatParams,
    render: &RenderParams,
    htf: &HtfParams,
    jobs: usize,
) -> Vec<FaultRow> {
    const WORKLOADS: [&str; 4] = ["escat", "render", "htf-pscf", "escat-wb"];
    const PFS_FAULTED: [&str; 4] = ["degraded", "rebuild", "stalls", "crash"];

    let apps = Apps { escat, render, htf };
    let run_cell = |wname: &str, scenario: &str, schedule: Option<&FaultSchedule>| {
        let (app, backend) = match wname {
            "escat-wb" => ("escat", Backend::Ppfs(PolicyConfig::escat_tuned())),
            app => (app, Backend::Pfs),
        };
        let out = run_workload_with_faults(machine, &apps.plain(app), &backend, schedule);
        let t = OpTable::from_trace(&out.trace);
        let pf = out.pfs_faults.unwrap_or_default();
        let ps = out.ppfs_stats.unwrap_or_default();
        let row = FaultRow {
            workload: wname.to_string(),
            scenario: scenario.to_string(),
            wall_secs: out.wall_secs(),
            read_secs: t.secs(IoOp::Read),
            write_secs: t.secs(IoOp::Write),
            retries: pf.retries,
            failovers: pf.failovers,
            lost_segments: pf.lost_segments,
            timeouts: pf.timeouts,
            rebuild_chunks: out.rebuild.0,
            rebuilt_mb: out.rebuild.1 as f64 / 1e6,
            degraded_at_end: out.degraded_nodes,
            dirty_bytes_lost: ps.dirty_bytes_lost,
            replayed_segments: ps.replayed_segments,
        };
        (row, out.report.wall)
    };

    // Phase 1: healthy baselines.
    let healthy = Stage::run(jobs, WORKLOADS, |wname| run_cell(wname, "healthy", None));

    // Phase 2: faulted cells, schedules scaled to the healthy wall.
    let mut cases: Vec<(&str, &str)> = Vec::new();
    for w in ["escat", "render", "htf-pscf"] {
        for s in PFS_FAULTED {
            cases.push((w, s));
        }
    }
    cases.push(("escat-wb", "crash"));
    let faulted = runner::par_map_jobs(jobs, cases.clone(), |_, (wname, scenario)| {
        // The write-behind cell needs the crash to overlap its flush tail.
        let sname = if wname == "escat-wb" {
            "wb-crash"
        } else {
            scenario
        };
        let schedule =
            fault_scenario_schedule(sname, machine.io_nodes, machine.seed, healthy.get(&wname).1);
        run_cell(wname, scenario, schedule.as_ref()).0
    });

    // Canonical order: per workload, healthy first, then the faulted
    // scenarios in schedule order.
    let mut by_case: std::collections::HashMap<(&str, &str), FaultRow> =
        cases.iter().copied().zip(faulted).collect();
    let mut rows = Vec::with_capacity(WORKLOADS.len() + by_case.len());
    for wname in WORKLOADS {
        rows.push(healthy.get(&wname).0.clone());
        let scenarios: &[&str] = if wname == "escat-wb" {
            &["crash"]
        } else {
            &PFS_FAULTED
        };
        for s in scenarios {
            rows.push(by_case.remove(&(wname, *s)).expect("cell ran"));
        }
    }
    rows
}

/// X6: one cell of the collective-I/O comparison (workload × scale ×
/// backend).
#[derive(Debug, Clone, PartialEq)]
pub struct CioRow {
    /// Workload label (`escat`, `render`, `htf-pint`).
    pub workload: String,
    /// Backend name (`pfs`, `ppfs`, `cio`).
    pub backend: String,
    /// Compute nodes the workload ran on.
    pub nodes: u32,
    /// Simulated end-to-end wall seconds.
    pub wall_secs: f64,
    /// Mean accepted write requests per I/O node.
    pub write_reqs_per_io: f64,
    /// Mean accepted write-request size, KB.
    pub mean_write_kb: f64,
    /// Mean accepted read requests per I/O node.
    pub read_reqs_per_io: f64,
    /// Mean accepted read-request size, KB.
    pub mean_read_kb: f64,
    /// Summed extent-exchange delay, seconds (CIO only; 0 elsewhere).
    pub exchange_secs: f64,
    /// Multi-member collectives dispatched (CIO only; 0 elsewhere).
    pub collectives: u64,
}

/// The X6 cell grid: workloads × scales × backends, in canonical order.
fn cio_cases(scales: &[u32]) -> Vec<(&'static str, u32, &'static str)> {
    let mut cases = Vec::new();
    for w in ["escat", "render", "htf-pint"] {
        for &n in scales {
            for b in ["pfs", "ppfs", "cio"] {
                cases.push((w, n, b));
            }
        }
    }
    cases
}

/// Run the collective-I/O comparison (X6): ESCAT, RENDER, and the HTF
/// shared-integrals phase on PFS, PPFS, and CIO at each node scale,
/// reporting per-I/O-node request counts, mean accepted request sizes, and
/// end-to-end time. The interleaved shared-file write phases (ESCAT
/// staging, HTF pint) are where two-phase aggregation pays; RENDER's
/// gateway-funneled I/O is the control — its singleton collectives buy
/// nothing.
///
/// One job per cell; rows come back in canonical order and are
/// worker-count invariant. Each scale reuses the given params with the node
/// count overridden, so the per-node work shape stays fixed while
/// membership grows.
pub fn cio_suite_jobs(
    machine: &MachineConfig,
    escat: &EscatParams,
    render: &RenderParams,
    htf: &HtfParams,
    scales: &[u32],
    jobs: usize,
) -> Vec<CioRow> {
    let cases = cio_cases(scales);
    runner::par_map_jobs(jobs, cases, |_, (wname, nodes, bname)| {
        let workload = match wname {
            "escat" => EscatParams {
                nodes,
                ..escat.clone()
            }
            .interleaved_workload(),
            "render" => RenderParams {
                nodes,
                ..render.clone()
            }
            .workload(),
            "htf-pint" => HtfParams {
                nodes,
                ..htf.clone()
            }
            .pint_workload(),
            other => panic!("unknown cio workload '{other}'"),
        };
        let backend = Backend::parse(bname).expect("known backend");
        let out = run_workload(machine, &workload, &backend);
        let io_nodes = out.node_loads.len().max(1) as f64;
        let (wr, wb, rr, rb) = out.node_loads.iter().fold((0, 0, 0, 0), |acc, l| {
            (
                acc.0 + l.write_reqs,
                acc.1 + l.write_bytes,
                acc.2 + l.read_reqs,
                acc.3 + l.read_bytes,
            )
        });
        let cs = out.cio.unwrap_or_default();
        CioRow {
            workload: wname.to_string(),
            backend: bname.to_string(),
            nodes,
            wall_secs: out.wall_secs(),
            write_reqs_per_io: wr as f64 / io_nodes,
            mean_write_kb: wb as f64 / wr.max(1) as f64 / 1024.0,
            read_reqs_per_io: rr as f64 / io_nodes,
            mean_read_kb: rb as f64 / rr.max(1) as f64 / 1024.0,
            exchange_secs: cs.exchange.as_secs_f64(),
            collectives: cs.collectives,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MachineConfig {
        MachineConfig::tiny(4, 2)
    }

    #[test]
    fn escat_small_end_to_end() {
        let a = escat(&tiny(), &EscatParams::small(4, 6));
        assert_eq!(a.table1.count(IoOp::Write), 54); // 4*6*2 + 6
        assert_eq!(a.figures.figures.len(), 4);
        assert!(!a.checks.is_empty());
        // Small run: counts differ from paper, checks may fail — but the
        // write/seek dominance shape should already hold.
        assert!(a.shapes.iter().any(|s| s.claim.contains("dominate")));
    }

    #[test]
    fn render_small_end_to_end() {
        let a = render(&tiny(), &RenderParams::small(4, 3));
        assert_eq!(a.figures.figures.len(), 3);
        assert!(a.init_end_secs > 0.0);
        assert_eq!(
            a.table3.count(IoOp::IoWait),
            a.table3.count(IoOp::AsyncRead)
        );
    }

    #[test]
    fn htf_small_end_to_end() {
        let a = htf(&tiny(), &HtfParams::small(4));
        assert_eq!(a.figures.figures.len(), 9);
        // pargos writes more than it reads; pscf the reverse.
        assert!(a.table5[1].volume(IoOp::Write) > a.table5[1].volume(IoOp::Read));
        assert!(a.table5[2].volume(IoOp::Read) > a.table5[2].volume(IoOp::Write));
    }

    #[test]
    fn ppfs_ablation_improves_write_seek_time() {
        let r = ppfs_ablation(&tiny(), &EscatParams::small(4, 8));
        assert!(
            r.speedup > 2.0,
            "write-behind+aggregation speedup only {:.2}x ({} -> {} s)",
            r.speedup,
            r.pfs_write_seek_secs,
            r.ppfs_write_seek_secs
        );
        assert!(r.writes_buffered > 0);
        assert!(r.flush_extents > 0);
    }

    #[test]
    fn crossover_lands_in_papers_band() {
        let rows = htf_crossover_paper();
        // Find the lowest rate where reading wins.
        let first_win = rows.iter().find(|r| r.io_preferred).unwrap();
        assert!(
            (2.0..=10.0).contains(&first_win.io_rate_mb_s),
            "crossover at {} MB/s",
            first_win.io_rate_mb_s
        );
        // Below the crossover, recomputation is preferred.
        assert!(!rows[0].io_preferred);
        assert!(rows.last().unwrap().io_preferred);
    }

    #[test]
    fn mode_ablation_ranks_coordination_costs() {
        let rows = mode_ablation_jobs(&tiny(), 4, 4, 2048, runner::configured_jobs());
        assert_eq!(rows.len(), 5);
        let get = |m: AccessMode| rows.iter().find(|r| r.mode == m).unwrap().write_secs;
        // M_SYNC writes block for their node-order turn, so their measured
        // durations exceed the uncoordinated M_ASYNC writes.
        assert!(get(AccessMode::MAsync) <= get(AccessMode::MSync));
        // M_LOG serializes on the shared-pointer token: at least as slow as
        // M_ASYNC too.
        assert!(get(AccessMode::MAsync) <= get(AccessMode::MLog) * 1.01);
    }

    #[test]
    fn policy_matrix_shows_no_single_winner() {
        let rows = policy_matrix_jobs(&tiny(), runner::configured_jobs());
        assert_eq!(rows.len(), 12);
        let time = |k: &str, p: &str| {
            rows.iter()
                .find(|r| r.kernel == k && r.policy == p)
                .unwrap()
                .read_secs
        };
        // Readahead helps sequential...
        assert!(time("sequential", "readahead4") < time("sequential", "none"));
        // ...but is not helpful (or harmful) for random: adaptive matches
        // or beats readahead there by staying quiet.
        assert!(time("random", "adaptive4") <= time("random", "readahead4") * 1.05);
    }

    #[test]
    fn queue_discipline_cscan_and_sstf_not_worse() {
        let rows = queue_discipline_jobs(&tiny(), 4, runner::configured_jobs());
        assert_eq!(rows.len(), 3);
        assert!(rows[1].wall_secs <= rows[0].wall_secs * 1.02, "cscan");
        assert!(rows[2].wall_secs <= rows[0].wall_secs * 1.02, "sstf");
    }

    #[test]
    fn escat_scaling_io_grows_superlinearly() {
        let mut m = tiny();
        m.compute_nodes = 16;
        let rows = escat_scaling_jobs(&m, &[4, 16], runner::configured_jobs());
        assert_eq!(rows.len(), 2);
        // 4x the nodes, same per-node work: I/O node time grows by more
        // than 4x (serialized shared-file operations).
        let ratio = rows[1].io_secs / rows[0].io_secs;
        assert!(ratio > 4.0, "io time ratio {ratio}");
    }

    #[test]
    fn escat_growth_shifts_share_to_io() {
        let rows = escat_growth_jobs(
            &tiny(),
            &EscatParams::small(4, 5),
            &[1, 16],
            runner::configured_jobs(),
        );
        assert_eq!(rows.len(), 2);
        assert!(rows[1].write_volume > rows[0].write_volume * 10);
        assert!(
            rows[1].io_fraction > rows[0].io_fraction,
            "io share did not grow: {rows:?}"
        );
    }

    #[test]
    fn workload_mix_shows_interference() {
        let rows = workload_mix_jobs(
            &tiny(),
            &EscatParams::small(4, 5),
            &HtfParams::small(4),
            runner::configured_jobs(),
        );
        assert_eq!(rows.len(), 4);
        // At least one application pays for the contention.
        assert!(
            rows.iter().any(|r| r.inflation() > 1.01),
            "no interference: {rows:?}"
        );
    }

    #[test]
    fn two_level_buffering_helps_later_readers() {
        let rows = two_level_buffering_jobs(&tiny(), 4, runner::configured_jobs());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].server_hits, 0);
        assert!(rows[1].server_hits >= 16, "hits {}", rows[1].server_hits);
        assert!(
            rows[1].read_secs < rows[0].read_secs,
            "two-level {} !< baseline {}",
            rows[1].read_secs,
            rows[0].read_secs
        );
    }

    #[test]
    fn fault_suite_small_is_clean_and_ordered() {
        let rows = fault_suite_jobs(
            &tiny(),
            &EscatParams::small(4, 4),
            &RenderParams::small(4, 2),
            &HtfParams::small(4),
            runner::configured_jobs(),
        );
        assert_eq!(rows.len(), 17);
        let get = |w: &str, s: &str| -> &FaultRow {
            rows.iter()
                .find(|r| r.workload == w && r.scenario == s)
                .expect("row present")
        };
        // Healthy rows keep the fault machinery fully dormant.
        for w in ["escat", "render", "htf-pscf"] {
            let h = get(w, "healthy");
            assert_eq!(h.retries + h.failovers + h.lost_segments + h.timeouts, 0);
            assert_eq!(h.rebuild_chunks, 0);
            assert_eq!(h.degraded_at_end, 0);
        }
        // Degraded arrays slow the read-heavy pipeline phase down.
        assert!(get("htf-pscf", "degraded").read_secs > get("htf-pscf", "healthy").read_secs);
        assert_eq!(get("htf-pscf", "degraded").degraded_at_end, 2);
        // The rebuild scenario actually rebuilds — timed, not instantaneous:
        // the wall extends to the member-capacity / spindle-rate heal time.
        let reb = get("escat", "rebuild");
        assert!(reb.rebuild_chunks > 0);
        assert_eq!(reb.degraded_at_end, 0);
        assert!(
            reb.wall_secs > 500.0,
            "rebuild tail missing: {}",
            reb.wall_secs
        );
    }

    #[test]
    fn raid_degraded_costs_more() {
        let rows = raid_degraded_jobs(&tiny(), runner::configured_jobs());
        assert!(rows[1].read_secs > rows[0].read_secs);
    }

    #[test]
    fn cio_suite_small_shows_aggregation_on_interleaved_writes() {
        let m = MachineConfig::tiny(8, 4);
        let rows = cio_suite_jobs(
            &m,
            &EscatParams::small(8, 4),
            &RenderParams::small(8, 2),
            &HtfParams::small(8),
            &[4, 8],
            runner::configured_jobs(),
        );
        // 3 workloads x 2 scales x 3 backends, canonical order.
        assert_eq!(rows.len(), 18);
        let get = |w: &str, n: u32, b: &str| -> &CioRow {
            rows.iter()
                .find(|r| r.workload == w && r.nodes == n && r.backend == b)
                .expect("row present")
        };
        assert_eq!(
            (
                rows[0].workload.as_str(),
                rows[0].nodes,
                rows[0].backend.as_str()
            ),
            ("escat", 4, "pfs")
        );
        // Two-phase aggregation pays on the interleaved shared-file write
        // phases: fewer, larger accepted requests per I/O node.
        for w in ["escat", "htf-pint"] {
            let pfs = get(w, 8, "pfs");
            let cio = get(w, 8, "cio");
            assert!(
                cio.mean_write_kb >= 4.0 * pfs.mean_write_kb,
                "{w}: cio {} KB vs pfs {} KB",
                cio.mean_write_kb,
                pfs.mean_write_kb
            );
            assert!(cio.write_reqs_per_io < pfs.write_reqs_per_io);
            assert!(cio.exchange_secs > 0.0);
            assert!(cio.collectives > 0);
        }
        // RENDER funnels I/O through gateways, so its collectives are all
        // singletons: no exchange delay, request shape unchanged vs PFS.
        let rc = get("render", 8, "cio");
        assert_eq!(rc.collectives, 0);
        assert_eq!(rc.exchange_secs, 0.0);
        // Non-CIO backends report no collective machinery at all.
        for r in rows.iter().filter(|r| r.backend != "cio") {
            assert_eq!(r.collectives, 0);
            assert_eq!(r.exchange_secs, 0.0);
        }
    }
}

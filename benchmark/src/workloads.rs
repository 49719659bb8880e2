//! The three workloads: their inputs, the untraced pass through the suite
//! entry points `repro` calls, the traced pass that re-drives the same
//! cells through the timing wrappers, and the correctness gate.

use crate::adapter::{output_digest, Cell, RunLayers, SimCounts};
use paragon_sim::{MachineConfig, SimTime};
use sio_analysis::chaos::{self, ChaosRow, ChaosSpec};
use sio_analysis::characterize::Characterization;
use sio_analysis::compare::{self, Check, ShapeCheck};
use sio_analysis::experiments::{self, EscatArtifacts, FaultRow, HtfArtifacts, RenderArtifacts};
use sio_analysis::figures::{self, FigureSet};
use sio_analysis::recovery::{durable_cut, durable_cut_logged};
use sio_analysis::{report, runner, OpTable, SizeTable};
use sio_apps::workload::{run_workload, BackendSpec};
use sio_apps::{CheckpointedWorkload, EscatParams, HtfParams, RenderParams, RunOutput, Workload};
use sio_core::event::{IoOp, NS_PER_SEC};
use sio_core::sddf::fingerprint_bytes;
use std::collections::BTreeMap;
use std::time::Instant;

/// Cells of the chaos campaign.
pub const CHAOS_CELLS: u32 = 100;

/// Default machine seed (the Caltech preset's).
const MACHINE_SEED: u64 = 0x51_0995;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    PaperHealthy,
    FaultedDeep,
    ChaosSweep,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::PaperHealthy, Kind::FaultedDeep, Kind::ChaosSweep];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperHealthy => "paper-healthy",
            Kind::FaultedDeep => "faulted-deep",
            Kind::ChaosSweep => "chaos-sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The golden seed: the machine seed for the first two workloads, the
    /// campaign seed for the chaos sweep.
    pub fn default_seed(self) -> u64 {
        match self {
            Kind::ChaosSweep => 42,
            _ => MACHINE_SEED,
        }
    }

    /// Simulated runs one pass attempts (the gate's denominator).
    pub fn runs_per_pass(self) -> u64 {
        match self {
            Kind::PaperHealthy => 15,
            Kind::FaultedDeep => 17,
            Kind::ChaosSweep => CHAOS_CELLS as u64,
        }
    }
}

/// A checkpointed chaos skeleton with its per-writer unit counts.
pub struct Skeleton {
    pub name: &'static str,
    pub cw: CheckpointedWorkload,
    pub units: Vec<u32>,
}

/// Everything generated from the seed before the first simulated event.
pub struct Inputs {
    pub kind: Kind,
    pub machine: MachineConfig,
    pub escat: EscatParams,
    pub render: RenderParams,
    pub htf: HtfParams,
    /// Application workloads by label, in run order.
    pub apps: Vec<(&'static str, Workload)>,
    /// Chaos campaign cells and the skeletons they draw from.
    pub specs: Vec<ChaosSpec>,
    pub skeletons: Vec<Skeleton>,
    pub campaign_seed: u64,
}

pub fn setup(kind: Kind, seed: u64) -> Inputs {
    let machine_seed = if kind == Kind::ChaosSweep {
        MACHINE_SEED
    } else {
        seed
    };
    let machine = MachineConfig::paragon_128().with_seed(machine_seed);
    let (escat, render, htf) = (
        EscatParams::paper(),
        RenderParams::paper(),
        HtfParams::paper(),
    );
    let mut apps = Vec::new();
    let mut specs = Vec::new();
    let mut skeletons = Vec::new();
    match kind {
        Kind::PaperHealthy => {
            apps.push(("escat", escat.workload()));
            apps.push(("render", render.workload()));
            apps.push(("htf-psetup", htf.psetup_workload()));
            apps.push(("htf-pargos", htf.pargos_workload()));
            apps.push(("htf-pscf", htf.pscf_workload()));
        }
        Kind::FaultedDeep => {
            apps.push(("escat", escat.workload()));
            apps.push(("render", render.workload()));
            apps.push(("htf-pscf", htf.pscf_workload()));
        }
        Kind::ChaosSweep => {
            specs = chaos::chaos_specs(seed, CHAOS_CELLS, machine.io_nodes);
            // The suite's checkpoint geometry: a third of each skeleton's
            // units per epoch.
            for name in chaos::CHAOS_WORKLOADS {
                let units: Vec<u32> = match name {
                    "escat" => vec![escat.iters; escat.nodes as usize],
                    "render" => vec![render.frames],
                    _ => (0..htf.nodes).map(|n| htf.records_of(n)).collect(),
                };
                let interval = units[0].div_ceil(3).max(1);
                let cw = match name {
                    "escat" => escat.workload_checkpointed(interval, 0),
                    "render" => render.workload_checkpointed(interval, 0),
                    _ => htf.pargos_workload_checkpointed(interval, 0),
                };
                skeletons.push(Skeleton { name, cw, units });
            }
        }
    }
    Inputs {
        kind,
        machine,
        escat,
        render,
        htf,
        apps,
        specs,
        skeletons,
        campaign_seed: seed,
    }
}

impl Inputs {
    fn app(&self, label: &str) -> &Workload {
        &self
            .apps
            .iter()
            .find(|(l, _)| *l == label)
            .expect("app built")
            .1
    }

    fn skeleton(&self, name: &str) -> &Skeleton {
        self.skeletons
            .iter()
            .find(|s| s.name == name)
            .expect("skeleton built")
    }

    fn cell<'a>(&'a self, backend: &'static str, workload: &'a Workload) -> Cell<'a> {
        Cell {
            machine: &self.machine,
            backend,
            spec: BackendSpec::parse(backend).expect("registered backend"),
            workload,
            schedule: None,
            stop_at: None,
            covered: &[],
        }
    }
}

/// One of the ppfs/cio re-runs of a paper workload, with its analysis.
pub struct AltRun {
    pub label: String,
    pub out: RunOutput,
    pub character: Characterization,
    pub ops: OpTable,
    pub sizes: SizeTable,
}

impl AltRun {
    fn analyze(label: String, out: RunOutput) -> AltRun {
        AltRun {
            label,
            character: Characterization::from_trace(&out.trace),
            ops: OpTable::from_trace(&out.trace),
            sizes: SizeTable::from_trace(&out.trace),
            out,
        }
    }
}

/// The backends the paper workloads re-run on.
const ALT_BACKENDS: [&str; 2] = ["ppfs", "cio"];

/// What one pass produced.
pub enum SuiteOutput {
    Paper {
        escat: Box<EscatArtifacts>,
        render: Box<RenderArtifacts>,
        htf: Box<HtfArtifacts>,
        alt: Vec<AltRun>,
    },
    Faults(Vec<FaultRow>),
    Chaos(Vec<ChaosRow>),
}

/// One untraced pass through the suite entry points `repro` calls.
pub fn run_suite(inp: &Inputs, workers: usize) -> SuiteOutput {
    let (m, e, r, h) = (&inp.machine, &inp.escat, &inp.render, &inp.htf);
    match inp.kind {
        Kind::PaperHealthy => {
            runner::set_jobs(workers);
            let escat = Box::new(experiments::escat(m, e));
            let render = Box::new(experiments::render(m, r));
            let htf = Box::new(experiments::htf(m, h));
            let mut alt = Vec::new();
            for b in ALT_BACKENDS {
                let spec = BackendSpec::parse(b).expect("registered backend");
                for (label, w) in &inp.apps {
                    let out = run_workload(m, w, &spec);
                    alt.push(AltRun::analyze(format!("{label}/{b}"), out));
                }
            }
            SuiteOutput::Paper {
                escat,
                render,
                htf,
                alt,
            }
        }
        Kind::FaultedDeep => {
            SuiteOutput::Faults(experiments::fault_suite_jobs(m, e, r, h, workers))
        }
        Kind::ChaosSweep => SuiteOutput::Chaos(chaos::chaos_suite_jobs(
            m,
            e,
            r,
            h,
            inp.campaign_seed,
            CHAOS_CELLS,
            workers,
        )),
    }
}

/// Verdict of the correctness gate on one pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    pub runs: u64,
    pub failed: u64,
    pub digest: u64,
}

fn all_pass(checks: &[Check], want: usize) -> bool {
    checks.len() == want && checks.iter().all(Check::pass)
}

fn all_hold(shapes: &[ShapeCheck], want: usize) -> bool {
    shapes.len() == want && shapes.iter().all(|s| s.pass)
}

fn figures_text(set: &FigureSet) -> String {
    set.figures.iter().map(|f| f.to_csv()).collect()
}

impl SuiteOutput {
    /// Gate every run of the pass and digest everything it produced.
    pub fn verify(&self, io_nodes: u32) -> Verdict {
        let mut failed = 0u64;
        let mut runs = 0u64;
        let mut text = String::new();
        let mut gate = |ok: bool, n: u64| {
            runs += n;
            if !ok {
                failed += n;
            }
        };
        match self {
            SuiteOutput::Paper {
                escat,
                render,
                htf,
                alt,
            } => {
                let a = escat;
                gate(
                    a.out.report.clean() && all_pass(&a.checks, 13) && all_hold(&a.shapes, 4),
                    1,
                );
                text += &format!(
                    "{:x}\n{}{}{}{:?}\n{}{}",
                    output_digest(&a.out),
                    a.table1.render(),
                    a.table2.render(),
                    figures_text(&a.figures),
                    a.gaps,
                    report::render_checks(&a.checks),
                    report::render_shapes(&a.shapes)
                );
                let a = render;
                gate(
                    a.out.report.clean() && all_pass(&a.checks, 10) && all_hold(&a.shapes, 4),
                    1,
                );
                text += &format!(
                    "{:x}\n{}{}{}{:?}\n{}{}",
                    output_digest(&a.out),
                    a.table3.render(),
                    a.table4.render(),
                    figures_text(&a.figures),
                    a.init_end_secs,
                    report::render_checks(&a.checks),
                    report::render_shapes(&a.shapes)
                );
                let a = htf;
                let outs = [&a.psetup, &a.pargos, &a.pscf];
                gate(
                    outs.iter().all(|o| o.report.clean())
                        && all_pass(&a.checks, 40)
                        && all_hold(&a.shapes, 4),
                    3,
                );
                for (o, (t5, t6)) in outs.iter().zip(a.table5.iter().zip(&a.table6)) {
                    text += &format!("{:x}\n{}{}", output_digest(o), t5.render(), t6.render());
                }
                text += &figures_text(&a.figures);
                text += &report::render_checks(&a.checks);
                text += &report::render_shapes(&a.shapes);
                for r in alt {
                    gate(r.out.report.clean() && !r.out.trace.is_empty(), 1);
                    text += &format!(
                        "{}\n{:x}\n{}{}{}",
                        r.label,
                        output_digest(&r.out),
                        r.character.render(),
                        r.ops.render(),
                        r.sizes.render()
                    );
                }
            }
            SuiteOutput::Faults(rows) => {
                gate(rows.len() == 17, 17 - rows.len().min(17) as u64);
                for r in rows {
                    // The X4 schedules recover well inside the request
                    // deadline, and only the `degraded` cells leave arrays
                    // degraded at the end.
                    let degraded = if r.scenario == "degraded" {
                        io_nodes
                    } else {
                        0
                    };
                    gate(
                        r.wall_secs.is_finite()
                            && r.wall_secs > 0.0
                            && r.timeouts == 0
                            && r.degraded_at_end == degraded,
                        1,
                    );
                    text += &format!("{r:?}\n");
                }
            }
            SuiteOutput::Chaos(rows) => {
                let want = CHAOS_CELLS as usize;
                gate(rows.len() == want, (want - rows.len().min(want)) as u64);
                for r in rows {
                    gate(r.invariants_ok(), 1);
                    text += &format!("{r:?}\n");
                }
            }
        }
        Verdict {
            runs,
            failed,
            digest: fingerprint_bytes(text.as_bytes()),
        }
    }
}

/// Per-layer host time and counts of one traced pass.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub run: RunLayers,
    pub heap_peak: u64,
    /// Per backend registry name: (calls, ns).
    pub service: BTreeMap<&'static str, (u64, u64)>,
    pub counts: SimCounts,
    pub tables_ns: u64,
    pub recovery_ns: u64,
    /// Per stage: (wall ns, summed busy ns).
    pub stages: [(u64, u64); 2],
    pub workers: usize,
    /// Host time of each untraced simulated run.
    pub run_ns: Vec<u64>,
    pub untraced_ns: u64,
    pub traced_ns: u64,
    pub runs: u64,
    pub failed: u64,
}

impl Layers {
    /// Fold in one driven cell; it fails unless its traced output equals
    /// the untraced one and `ok` (the workload's own cross-check) holds.
    fn add(&mut self, d: &Driven, ok: bool) {
        let l = &d.layers;
        let r = &mut self.run;
        r.run_ns += l.run_ns;
        r.service_ns += l.service_ns;
        r.program_ns += l.program_ns;
        r.steps += l.steps;
        r.engine.events += l.engine.events;
        r.trace_events += l.trace_events;
        r.trace_bytes += l.trace_bytes;
        r.finish_ns += l.finish_ns;
        self.heap_peak = self.heap_peak.max(l.engine.heap_peak);
        let s = self.service.entry(d.backend).or_default();
        s.0 += l.service_calls;
        s.1 += l.service_ns;
        self.counts.add(&SimCounts::of(&d.out));
        self.run_ns.push(d.untraced_ns);
        self.untraced_ns += d.untraced_ns;
        self.traced_ns += d.traced_ns;
        self.runs += 1;
        if !(d.same && ok) {
            self.failed += 1;
        }
    }
}

/// One cell run twice: untraced through the public entry point, then
/// traced through the wrappers.
pub struct Driven {
    pub backend: &'static str,
    pub out: RunOutput,
    pub layers: RunLayers,
    pub untraced_ns: u64,
    pub traced_ns: u64,
    /// The traced output equals the untraced one byte for byte.
    pub same: bool,
}

fn drive(cell: &Cell) -> Driven {
    let t = Instant::now();
    let plain = cell.run();
    let untraced_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let (out, layers) = cell.run_traced();
    let traced_ns = t.elapsed().as_nanos() as u64;
    Driven {
        backend: cell.backend,
        same: output_digest(&plain) == output_digest(&out),
        out,
        layers,
        untraced_ns,
        traced_ns,
    }
}

/// Fan `items` out over the sweep runner as one stage, recording the
/// stage's wall time and its workers' summed busy time.
fn stage<T: Send + Sync, R: Send>(
    layers: &mut Layers,
    index: usize,
    items: Vec<T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let t = Instant::now();
    let done = runner::par_map_jobs(layers.workers, items, |_, item| {
        let t = Instant::now();
        let r = f(item);
        (r, t.elapsed().as_nanos() as u64)
    });
    let wall = t.elapsed().as_nanos() as u64;
    let busy: u64 = done.iter().map(|(_, b)| b).sum();
    layers.stages[index] = (wall, busy);
    done.into_iter().map(|(r, _)| r).collect()
}

fn timed<R>(ns: &mut u64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *ns += t.elapsed().as_nanos() as u64;
    r
}

/// One traced pass: the same cells as [`run_suite`], each run untraced and
/// traced, with every traced output checked against its untraced twin and
/// against `suite` (the untraced pass's result).
pub fn traced_pass(inp: &Inputs, workers: usize, suite: &SuiteOutput) -> Layers {
    let mut layers = Layers {
        workers,
        ..Layers::default()
    };
    match (inp.kind, suite) {
        (Kind::PaperHealthy, SuiteOutput::Paper { .. }) => traced_paper(inp, suite, &mut layers),
        (Kind::FaultedDeep, SuiteOutput::Faults(rows)) => traced_faults(inp, rows, &mut layers),
        (Kind::ChaosSweep, SuiteOutput::Chaos(rows)) => traced_chaos(inp, rows, &mut layers),
        _ => unreachable!("suite output matches its workload"),
    }
    layers
}

fn traced_paper(inp: &Inputs, suite: &SuiteOutput, layers: &mut Layers) {
    let pfs: Vec<Cell> = inp.apps.iter().map(|(_, w)| inp.cell("pfs", w)).collect();
    let mut outs: Vec<RunOutput> = stage(layers, 0, pfs, |c| drive(&c))
        .into_iter()
        .map(|d| {
            layers.add(&d, true);
            d.out
        })
        .collect();
    let alt_cells: Vec<(String, Cell)> = ALT_BACKENDS
        .iter()
        .flat_map(|b| {
            inp.apps
                .iter()
                .map(move |(l, w)| (format!("{l}/{b}"), inp.cell(b, w)))
        })
        .collect();
    let alt_driven = stage(layers, 1, alt_cells, |(label, c)| (label, drive(&c)));

    // The analysis the suite entry points run, re-driven on traced outputs.
    let mut tables_ns = 0;
    let mut alt = Vec::new();
    for (label, d) in alt_driven {
        layers.add(&d, true);
        alt.push(timed(&mut tables_ns, || AltRun::analyze(label, d.out)));
    }
    let pscf = outs.pop().expect("pscf");
    let pargos = outs.pop().expect("pargos");
    let psetup = outs.pop().expect("psetup");
    let render = outs.pop().expect("render");
    let escat = outs.pop().expect("escat");
    let traced = timed(&mut tables_ns, || SuiteOutput::Paper {
        escat: Box::new(escat_artifacts(escat)),
        render: Box::new(render_artifacts(render)),
        htf: Box::new(htf_artifacts(psetup, pargos, pscf)),
        alt,
    });
    layers.tables_ns = tables_ns;
    // The traced pass must reproduce the untraced pass's tables, figures
    // and checks byte for byte.
    let io = inp.machine.io_nodes;
    if traced.verify(io) != suite.verify(io) {
        layers.failed = layers.runs;
    }
}

/// `experiments::escat`'s analysis of an existing run.
fn escat_artifacts(out: RunOutput) -> EscatArtifacts {
    let table1 = OpTable::from_trace(&out.trace);
    let table2 = SizeTable::from_trace(&out.trace);
    let init_end = first_write_secs(&out);
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

/// `experiments::render`'s analysis of an existing run.
fn render_artifacts(out: RunOutput) -> RenderArtifacts {
    let table3 = OpTable::from_trace(&out.trace);
    let table4 = SizeTable::from_trace(&out.trace);
    let init_end_secs = first_write_secs(&out);
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

/// `experiments::htf`'s analysis of existing runs.
fn htf_artifacts(psetup: RunOutput, pargos: RunOutput, pscf: RunOutput) -> HtfArtifacts {
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

fn first_write_secs(out: &RunOutput) -> f64 {
    out.trace
        .of_op(IoOp::Write)
        .map(|e| e.start)
        .min()
        .unwrap_or(0) as f64
        / NS_PER_SEC
}

/// The X4 suite's cells: workload label, scenario, backend.
const FAULT_HEALTHY: [(&str, &str); 4] = [
    ("escat", "pfs"),
    ("render", "pfs"),
    ("htf-pscf", "pfs"),
    ("escat-wb", "ppfs"),
];
const FAULT_SCENARIOS: [&str; 4] = ["degraded", "rebuild", "stalls", "crash"];

fn traced_faults(inp: &Inputs, rows: &[FaultRow], layers: &mut Layers) {
    let workload_of = |w: &str| inp.app(if w == "escat-wb" { "escat" } else { w });
    let mut tables_ns = 0;
    let mut check = |layers: &mut Layers, d: Driven, w: &str, scenario: &str| {
        let t = timed(&mut tables_ns, || OpTable::from_trace(&d.out.trace));
        let row = rows
            .iter()
            .find(|r| r.workload == w && r.scenario == scenario);
        let pf = d.out.pfs_faults.unwrap_or_default();
        let ok = row.is_some_and(|r| {
            r.wall_secs == d.out.wall_secs()
                && r.write_secs == t.secs(IoOp::Write)
                && r.retries == pf.retries
                && r.failovers == pf.failovers
                && r.rebuild_chunks == d.out.rebuild.0
        });
        layers.add(&d, ok);
    };

    let healthy = FAULT_HEALTHY
        .iter()
        .map(|&(w, b)| inp.cell(b, workload_of(w)))
        .collect();
    let healthy = stage(layers, 0, healthy, |c| drive(&c));
    let mut walls = Vec::new();
    for (d, &(w, _)) in healthy.into_iter().zip(&FAULT_HEALTHY) {
        walls.push(d.out.report.wall);
        check(layers, d, w, "healthy");
    }

    let mut faulted = Vec::new();
    for (&(w, b), &wall) in FAULT_HEALTHY.iter().zip(&walls) {
        let scenarios: &[&str] = if w == "escat-wb" {
            &["crash"]
        } else {
            &FAULT_SCENARIOS
        };
        for &s in scenarios {
            // The write-behind cell's crash overlaps its flush tail.
            let sname = if w == "escat-wb" { "wb-crash" } else { s };
            let mut cell = inp.cell(b, workload_of(w));
            cell.schedule = experiments::fault_scenario_schedule(
                sname,
                inp.machine.io_nodes,
                inp.machine.seed,
                wall,
            );
            faulted.push((w, s, cell));
        }
    }
    let faulted = stage(layers, 1, faulted, |(w, s, c)| (w, s, drive(&c)));
    for (w, s, d) in faulted {
        check(layers, d, w, s);
    }
    layers.tables_ns = tables_ns;
}

fn traced_chaos(inp: &Inputs, rows: &[ChaosRow], layers: &mut Layers) {
    let skeleton_cell = |w: &str, b: &'static str| {
        let sk = inp.skeleton(w);
        let mut c = inp.cell(b, &sk.cw.workload);
        c.covered = &sk.cw.plan.covered;
        c
    };
    let mut combos: Vec<(&str, &'static str)> =
        inp.specs.iter().map(|s| (s.workload, s.backend)).collect();
    combos.sort_unstable();
    combos.dedup();
    let baselines = stage(
        layers,
        0,
        combos.iter().map(|&(w, b)| skeleton_cell(w, b)).collect(),
        |c| drive(&c),
    );
    let mut walls = Vec::new();
    for d in &baselines {
        layers.add(d, d.out.report.clean());
        walls.push(d.out.report.wall);
    }
    drop(baselines);
    let wall_of = |w: &str, b: &str| walls[combos.iter().position(|c| *c == (w, b)).unwrap()];

    let cells: Vec<(&ChaosSpec, Cell)> = inp
        .specs
        .iter()
        .map(|spec| {
            let healthy = wall_of(spec.workload, spec.backend);
            let mut c = skeleton_cell(spec.workload, spec.backend);
            c.schedule = Some(spec.schedule(healthy));
            c.stop_at = spec
                .crash_frac
                .map(|f| SimTime((healthy.nanos() as f64 * f) as u64));
            (spec, c)
        })
        .collect();
    // Each cell's analysis runs on its worker, next to the run, as in the
    // suite: trace validation, and the durable cut of crash-cut cells.
    let done = stage(layers, 1, cells, |(spec, c)| {
        let d = drive(&c);
        let (mut tables_ns, mut recovery_ns) = (0, 0);
        let valid = timed(&mut tables_ns, || d.out.trace.validate().is_ok());
        let epoch = c.stop_at.map(|at| {
            let sk = inp.skeleton(spec.workload);
            timed(&mut recovery_ns, || {
                if spec.backend.starts_with("blog+") {
                    durable_cut_logged(&d.out.trace, &sk.cw.plan, &sk.units, at).epoch
                } else {
                    durable_cut(&d.out.trace, &sk.cw.plan, &sk.units, at).epoch
                }
            })
        });
        let healthy = wall_of(spec.workload, spec.backend);
        let row_ok = rows.get(spec.cell as usize).is_some_and(|r| {
            r.cell == spec.cell
                && r.wall_secs == d.out.report.wall.nanos() as f64 / NS_PER_SEC
                && r.healthy_wall_secs == healthy.nanos() as f64 / NS_PER_SEC
                && r.durable_epoch == epoch.unwrap_or(0)
                && r.trace_ok == valid
        });
        (d, row_ok, tables_ns, recovery_ns)
    });
    for (d, row_ok, tables_ns, recovery_ns) in done {
        layers.add(&d, row_ok);
        layers.tables_ns += tables_ns;
        layers.recovery_ns += recovery_ns;
    }
}

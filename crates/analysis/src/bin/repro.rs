//! `repro` — regenerate every table and figure of the paper.
//!
//! `repro [OPTIONS] [SUITE|all]...` runs the named suites in order (`all`,
//! the default, runs every one). `repro --help` prints the usage line,
//! which is generated from [`SUITES`] — the one place suite names are
//! written — so it always lists every suite and option.
//!
//! Paper-scale runs (`escat`, `render`, `htf`) use the 128-node Caltech
//! Paragon partition and the `paper()` parameters; `--fast` substitutes the
//! scaled-down parameters (for smoke tests). Outputs land in `results/`
//! (override with `--out`): one `.txt` report per suite and one `.csv` per
//! figure or sweep. `--crash-frac`, `--log-mb` and `--drain-mbps` override
//! the `recover`/`blog` scenarios; `--chaos-seed` and `--cells` set the
//! `chaos` campaign.
//!
//! `--jobs N` (or the `SIO_JOBS` environment variable) bounds the worker
//! pool every sweep fans out over; the default is the host's available
//! parallelism. Each simulation is deterministic, so the worker count only
//! changes wall time, never output.
//!
//! `--perf` enables the process-wide performance counters
//! (`sio_core::perf`) and appends a `== perf counters ==` block after the
//! experiments finish: engine events, heap/channel peaks, trace volume, and
//! per-suite wall times (one phase per suite, named as in [`SUITES`]). The
//! counters aggregate with sums and maxima only, so they are identical for
//! any `--jobs` value; the phase wall times measure the host and are the
//! one non-deterministic line.

use paragon_sim::MachineConfig;
use sio_analysis::burst;
use sio_analysis::chaos;
use sio_analysis::characterize::Characterization;
use sio_analysis::experiments;
use sio_analysis::figures;
use sio_analysis::recovery;
use sio_analysis::report;
use sio_analysis::runner;
use sio_apps::{EscatParams, HtfParams, RenderParams};
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

/// A suite: its name (also its `--perf` phase name) and its driver.
type Suite = (&'static str, fn(&Cli));

/// Every suite, in `repro all` order.
const SUITES: [Suite; 12] = [
    ("escat", run_escat),
    ("render", run_render),
    ("htf", run_htf),
    ("ppfs-ablation", run_ppfs_ablation),
    ("crossover", run_crossover),
    ("ablations", run_ablations),
    ("scaling", run_scaling),
    ("faults", run_faults),
    ("recover", run_recover),
    ("cio", run_cio),
    ("blog", run_blog),
    ("chaos", run_chaos),
];

/// Every name `repro` accepts: the suites in table order, then `all`.
fn names() -> Vec<&'static str> {
    SUITES
        .iter()
        .map(|(name, _)| *name)
        .chain(["all"])
        .collect()
}

/// The usage line `--help` and every rejected argument list print.
fn usage() -> String {
    format!(
        "usage: repro [--fast] [--perf] [--jobs N] [--out DIR] [--crash-frac F] \
         [--log-mb MB] [--drain-mbps R] [--chaos-seed N] [--cells N] [{}]...",
        names().join("|")
    )
}

/// Why an argument list was rejected. A typed error rather than a bare
/// message: tests assert on the failure class and the offending option,
/// and `main` renders every class through one `Display` path.
#[derive(Debug, PartialEq)]
enum CliError {
    /// An option that takes a value appeared last on the command line.
    MissingValue {
        option: &'static str,
        expected: &'static str,
    },
    /// An option's value failed validation — out of range, wrong type, or
    /// non-finite. Nothing is silently clamped into range.
    InvalidValue {
        option: &'static str,
        expected: &'static str,
        got: String,
    },
    UnknownOption(String),
    UnknownExperiment(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingValue { option, expected } => {
                write!(f, "{option} requires {expected}")
            }
            CliError::InvalidValue {
                option,
                expected,
                got,
            } => write!(f, "{option} requires {expected}, got '{got}'"),
            CliError::UnknownOption(o) => write!(f, "unknown option '{o}'"),
            CliError::UnknownExperiment(e) => write!(
                f,
                "unknown experiment '{}' (expected one of: {})",
                e,
                names().join(", ")
            ),
        }
    }
}

#[derive(Debug, PartialEq)]
struct Cli {
    fast: bool,
    /// Collect and print `sio_core::perf` counters.
    perf: bool,
    help: bool,
    out: PathBuf,
    jobs: Option<usize>,
    /// Custom crash fraction for the `recover` and `blog` suites (replaces
    /// the canned scenarios with a single `crash@F` cell; `1` crashes at
    /// the healthy wall, i.e. at the last possible instant).
    crash_frac: Option<f64>,
    /// Per-node burst-log capacity override for the `blog` suite, MB.
    log_mb: Option<u64>,
    /// Burst-log drain bandwidth override for the `blog` suite, MB/s.
    drain_mbps: Option<f64>,
    /// Campaign seed for the `chaos` suite (default 42 — the golden seed).
    chaos_seed: Option<u64>,
    /// Campaign size for the `chaos` suite (default 50 cells). Zero-cell
    /// campaigns are rejected at parse time: a sweep that runs nothing
    /// would "pass" its invariants vacuously.
    cells: Option<u32>,
    what: Vec<String>,
}

/// Take the value of `option` from `args` and parse it as a `T` that
/// satisfies `ok`. A missing, unparsable or rejected value is a typed
/// error quoting `expected`.
fn parse_opt<T: FromStr>(
    args: &mut impl Iterator<Item = String>,
    option: &'static str,
    expected: &'static str,
    ok: impl Fn(&T) -> bool,
) -> Result<T, CliError> {
    let got = args
        .next()
        .ok_or(CliError::MissingValue { option, expected })?;
    match got.parse::<T>() {
        Ok(v) if ok(&v) => Ok(v),
        _ => Err(CliError::InvalidValue {
            option,
            expected,
            got,
        }),
    }
}

/// Parse and validate an argument list. Every rejection is a typed
/// [`CliError`] naming the bad argument and what would be accepted; the
/// caller prints it and exits non-zero.
fn parse_args_from(argv: impl IntoIterator<Item = String>) -> Result<Cli, CliError> {
    let mut cli = Cli {
        fast: false,
        perf: false,
        help: false,
        out: PathBuf::from("results"),
        jobs: None,
        crash_frac: None,
        log_mb: None,
        drain_mbps: None,
        chaos_seed: None,
        cells: None,
        what: Vec::new(),
    };
    let args = &mut argv.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--fast" => cli.fast = true,
            "--perf" => cli.perf = true,
            "-h" | "--help" => cli.help = true,
            "--jobs" => {
                let n = parse_opt::<usize>(args, "--jobs", "a positive integer", |&n| n > 0)?;
                cli.jobs = Some(n);
            }
            "--out" => cli.out = parse_opt(args, "--out", "a directory argument", |_| true)?,
            "--crash-frac" => {
                let expected = "a fraction in (0, 1]";
                let f = parse_opt::<f64>(args, "--crash-frac", expected, |&f| f > 0.0 && f <= 1.0)?;
                cli.crash_frac = Some(f);
            }
            "--log-mb" => {
                let expected = "a positive whole number of megabytes";
                cli.log_mb = Some(parse_opt::<u64>(args, "--log-mb", expected, |&n| n > 0)?);
            }
            "--drain-mbps" => {
                let expected = "a positive finite MB/s rate";
                let r = parse_opt::<f64>(args, "--drain-mbps", expected, |&r| {
                    r > 0.0 && r.is_finite()
                })?;
                cli.drain_mbps = Some(r);
            }
            "--chaos-seed" => {
                let expected = "a 64-bit unsigned integer";
                cli.chaos_seed = Some(parse_opt::<u64>(args, "--chaos-seed", expected, |_| true)?);
            }
            "--cells" => {
                let expected = "a positive cell count";
                cli.cells = Some(parse_opt::<u32>(args, "--cells", expected, |&n| n > 0)?);
            }
            other if other.starts_with('-') => {
                return Err(CliError::UnknownOption(other.to_string()));
            }
            other => {
                if !names().contains(&other) {
                    return Err(CliError::UnknownExperiment(other.to_string()));
                }
                cli.what.push(other.to_string());
            }
        }
    }
    if cli.what.is_empty() {
        cli.what.push("all".to_string());
    }
    Ok(cli)
}

fn parse_args() -> Cli {
    match parse_args_from(std::env::args().skip(1)) {
        Ok(cli) => {
            if cli.help {
                eprintln!("{}", usage());
                std::process::exit(0);
            }
            if let Some(n) = cli.jobs {
                runner::set_jobs(n);
            }
            if cli.perf {
                sio_core::perf::enable();
            }
            cli
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    }
}

fn machine(fast: bool) -> MachineConfig {
    if fast {
        MachineConfig::tiny(8, 4)
    } else {
        MachineConfig::paragon_128()
    }
}

/// The three applications' parameters: paper scale, or the scaled-down
/// `--fast` set.
fn app_params(fast: bool) -> (EscatParams, RenderParams, HtfParams) {
    if fast {
        (
            EscatParams::small(8, 8),
            RenderParams::small(8, 4),
            HtfParams::small(8),
        )
    } else {
        (
            EscatParams::paper(),
            RenderParams::paper(),
            HtfParams::paper(),
        )
    }
}

/// A fresh report body, opened with the `--fast` caveat when the run uses
/// scaled-down parameters.
fn report_body(cli: &Cli) -> String {
    if cli.fast {
        "NOTE: --fast uses scaled-down parameters; paper-vs-measured checks are expected to deviate.\n\n"
            .to_string()
    } else {
        String::new()
    }
}

/// Write a suite's report to `<out>/<file>.txt` and print it.
fn emit(cli: &Cli, file: &str, body: &str) {
    report::write_text(&cli.out, file, body).expect("write report");
    println!("{body}");
}

/// Write `<out>/<name>.csv`: the header line, then one line per row.
fn write_csv(cli: &Cli, name: &str, header: &str, rows: impl Iterator<Item = String>) {
    let rows: Vec<String> = rows.collect();
    report::write_csv(&cli.out, name, header, &rows).expect("write csv");
}

/// Run one suite under its `--perf` phase timer.
fn run(cli: &Cli, (name, suite): Suite) {
    let _phase = sio_core::perf::phase(name);
    suite(cli);
}

fn run_escat(cli: &Cli) {
    let (params, _, _) = app_params(cli.fast);
    eprintln!(
        "[repro] escat: {} nodes, {} iterations...",
        params.nodes, params.iters
    );
    let a = experiments::escat(&machine(cli.fast), &params);
    let mut body = report_body(cli);
    body.push_str(&report::section(
        "Table 1 — ESCAT I/O operations",
        &a.table1.render(),
    ));
    body.push_str(&report::section(
        "Table 2 — ESCAT request sizes",
        &a.table2.render(),
    ));
    body.push_str(&report::section(
        "Paper vs measured",
        &report::render_checks(&a.checks),
    ));
    body.push_str(&report::section(
        "Shape checks",
        &report::render_shapes(&a.shapes),
    ));
    body.push_str(&report::section(
        "Figure 4 burst spacing (s)",
        &format!("{:.1?}\n(wall {:.0}s)", a.gaps, a.out.wall_secs()),
    ));
    body.push_str(&report::section(
        "Qualitative characterization (paper §8)",
        &Characterization::from_trace(&a.out.trace).render(),
    ));
    for f in &a.figures.figures {
        body.push_str(&f.to_ascii());
        body.push('\n');
    }
    a.figures.write_all(&cli.out).expect("write figures");
    // Reduction-derived artifacts: windowed intensity and the staging
    // file's spatial (region) profile.
    let win = figures::window_series(&a.out.trace, 10.0);
    figures::write_window_csv(&win, &cli.out, "escat-window-10s").expect("window csv");
    let region = figures::region_series(&a.out.trace, 7, 64 * 1024);
    figures::write_region_csv(&region, &cli.out, "escat-staging-regions").expect("region csv");
    emit(cli, "escat", &body);
}

fn run_render(cli: &Cli) {
    let (_, params, _) = app_params(cli.fast);
    eprintln!(
        "[repro] render: {} nodes, {} frames...",
        params.nodes, params.frames
    );
    let a = experiments::render(&machine(cli.fast), &params);
    let mut body = report_body(cli);
    body.push_str(&report::section(
        "Table 3 — RENDER I/O operations",
        &a.table3.render(),
    ));
    body.push_str(&report::section(
        "Table 4 — RENDER request sizes",
        &a.table4.render(),
    ));
    body.push_str(&report::section(
        "Paper vs measured",
        &report::render_checks(&a.checks),
    ));
    body.push_str(&report::section(
        "Shape checks",
        &report::render_shapes(&a.shapes),
    ));
    body.push_str(&format!(
        "init phase ends at {:.0}s; wall {:.0}s\n",
        a.init_end_secs,
        a.out.wall_secs()
    ));
    body.push_str(&report::section(
        "Qualitative characterization (paper §8)",
        &Characterization::from_trace(&a.out.trace).render(),
    ));
    for f in &a.figures.figures {
        body.push_str(&f.to_ascii());
        body.push('\n');
    }
    a.figures.write_all(&cli.out).expect("write figures");
    let win = figures::window_series(&a.out.trace, 5.0);
    figures::write_window_csv(&win, &cli.out, "render-window-5s").expect("window csv");
    emit(cli, "render", &body);
}

fn run_htf(cli: &Cli) {
    let (_, _, params) = app_params(cli.fast);
    eprintln!("[repro] htf: {} nodes, 3-program pipeline...", params.nodes);
    let a = experiments::htf(&machine(cli.fast), &params);
    let mut body = report_body(cli);
    for (name, table, sizes, out) in [
        (
            "HTF Initialization (psetup)",
            &a.table5[0],
            &a.table6[0],
            &a.psetup,
        ),
        (
            "HTF Integral Calculation (pargos)",
            &a.table5[1],
            &a.table6[1],
            &a.pargos,
        ),
        (
            "HTF Self-Consistent Field (pscf)",
            &a.table5[2],
            &a.table6[2],
            &a.pscf,
        ),
    ] {
        body.push_str(&report::section(
            &format!("Table 5 — {name}"),
            &format!("{}\n(wall {:.0}s)", table.render(), out.wall_secs()),
        ));
        body.push_str(&report::section(
            &format!("Table 6 — {name} sizes"),
            &sizes.render(),
        ));
    }
    body.push_str(&report::section(
        "Paper vs measured",
        &report::render_checks(&a.checks),
    ));
    body.push_str(&report::section(
        "Shape checks",
        &report::render_shapes(&a.shapes),
    ));
    let pipeline = sio_core::Trace::concat_pipeline(
        "htf-pipeline",
        &[&a.psetup.trace, &a.pargos.trace, &a.pscf.trace],
    );
    body.push_str(&report::section(
        "Qualitative characterization (paper §8, whole pipeline)",
        &Characterization::from_trace(&pipeline).render(),
    ));
    for f in &a.figures.figures {
        body.push_str(&f.to_ascii());
        body.push('\n');
    }
    a.figures.write_all(&cli.out).expect("write figures");
    for (trace, name) in [
        (&a.psetup.trace, "htf-psetup-window-5s"),
        (&a.pargos.trace, "htf-pargos-window-10s"),
        (&a.pscf.trace, "htf-pscf-window-10s"),
    ] {
        let width = if name.ends_with("5s") { 5.0 } else { 10.0 };
        let win = figures::window_series(trace, width);
        figures::write_window_csv(&win, &cli.out, name).expect("window csv");
    }
    emit(cli, "htf", &body);
}

fn run_ppfs_ablation(cli: &Cli) {
    let (params, _, _) = app_params(cli.fast);
    eprintln!("[repro] ppfs ablation (ESCAT on PFS vs PPFS)...");
    let r = experiments::ppfs_ablation(&machine(cli.fast), &params);
    let body = report_body(cli)
        + &report::section(
            "X1 — §5.2 PPFS write-behind + aggregation on ESCAT",
            &format!(
                "PFS  write+seek node time: {:>12.1} s\n\
             PPFS write+seek node time: {:>12.1} s\n\
             improvement:               {:>12.1} x\n\
             application writes buffered: {}\n\
             flush extents written back:  {}\n",
                r.pfs_write_seek_secs,
                r.ppfs_write_seek_secs,
                r.speedup,
                r.writes_buffered,
                r.flush_extents,
            ),
        );
    emit(cli, "ppfs_ablation", &body);
}

fn run_crossover(cli: &Cli) {
    eprintln!("[repro] htf read-vs-recompute crossover...");
    let rows = experiments::htf_crossover_paper();
    let mut b = String::new();
    b.push_str("rate(MB/s)  read(us)  recompute(us)  preferred\n");
    for r in &rows {
        b.push_str(&format!(
            "{:>9.1} {:>9.2} {:>14.2}  {}\n",
            r.io_rate_mb_s,
            r.read_us,
            r.compute_us,
            if r.io_preferred { "read" } else { "recompute" }
        ));
    }
    let body = report::section("X3 — §7.2 integral read vs recompute crossover", &b);
    write_csv(
        cli,
        "htf_crossover",
        "rate_mb_s,read_us,compute_us,io_preferred",
        rows.iter().map(|r| {
            format!(
                "{},{},{},{}",
                r.io_rate_mb_s, r.read_us, r.compute_us, r.io_preferred
            )
        }),
    );
    emit(cli, "htf_crossover", &body);
}

fn run_scaling(cli: &Cli) {
    eprintln!("[repro] scaling studies (S1 weak scaling, S2 data growth)...");
    let mut body = report_body(cli);

    let big_machine = if cli.fast {
        MachineConfig::tiny(16, 4)
    } else {
        MachineConfig::caltech_paragon()
    };
    let counts: &[u32] = if cli.fast {
        &[4, 8, 16]
    } else {
        &[32, 64, 128, 256, 512]
    };
    let rows = experiments::escat_scaling_jobs(&big_machine, counts, runner::configured_jobs());
    let mut b = String::new();
    b.push_str("nodes   io node-time(s)   wall(s)   io share of node-time\n");
    for r in &rows {
        b.push_str(&format!(
            "{:>5} {:>17.1} {:>9.0} {:>10.2}%\n",
            r.nodes,
            r.io_secs,
            r.wall_secs,
            r.io_fraction * 100.0
        ));
    }
    body.push_str(&report::section(
        "S1 — ESCAT weak scaling (same per-node work, 16 I/O nodes)",
        &b,
    ));
    write_csv(
        cli,
        "escat_scaling",
        "nodes,io_secs,wall_secs,io_fraction",
        rows.iter().map(|r| {
            format!(
                "{},{},{},{}",
                r.nodes, r.io_secs, r.wall_secs, r.io_fraction
            )
        }),
    );

    let params = if cli.fast {
        EscatParams::small(8, 6)
    } else {
        EscatParams::paper()
    };
    let scales: &[u32] = if cli.fast { &[1, 8] } else { &[1, 4, 16] };
    let rows = experiments::escat_growth_jobs(
        &machine(cli.fast),
        &params,
        scales,
        runner::configured_jobs(),
    );
    let mut b = String::new();
    b.push_str("scale   write volume(B)   io share   wall(s)\n");
    for r in &rows {
        b.push_str(&format!(
            "{:>5}x {:>17} {:>9.2}% {:>9.0}\n",
            r.scale,
            r.write_volume,
            r.io_fraction * 100.0,
            r.wall_secs
        ));
    }
    body.push_str(&report::section(
        "S2 — ESCAT quadrature growth (S5.2: O(N^3) data at fixed compute)",
        &b,
    ));
    write_csv(
        cli,
        "escat_growth",
        "scale,write_volume,io_fraction,wall_secs",
        rows.iter().map(|r| {
            format!(
                "{},{},{},{}",
                r.scale, r.write_volume, r.io_fraction, r.wall_secs
            )
        }),
    );

    emit(cli, "scaling", &body);
}

fn run_faults(cli: &Cli) {
    let m = machine(cli.fast);
    let (ep, rp, hp) = app_params(cli.fast);
    eprintln!("[repro] fault suite (X4: degraded / rebuild / stalls / crash)...");
    let rows = experiments::fault_suite_jobs(&m, &ep, &rp, &hp, runner::configured_jobs());
    let mut body = report_body(cli);
    let mut b = String::new();
    b.push_str(
        "workload   scenario    wall(s)   read(s)  write(s)  retry  failover  lost  timeout  rebuild(MB)  degraded  dirty(KB)  replayed\n",
    );
    for r in &rows {
        b.push_str(&format!(
            "{:<10} {:<9} {:>9.1} {:>9.2} {:>9.2} {:>6} {:>9} {:>5} {:>8} {:>12.1} {:>9} {:>10.1} {:>9}\n",
            r.workload,
            r.scenario,
            r.wall_secs,
            r.read_secs,
            r.write_secs,
            r.retries,
            r.failovers,
            r.lost_segments,
            r.timeouts,
            r.rebuilt_mb,
            r.degraded_at_end,
            r.dirty_bytes_lost as f64 / 1024.0,
            r.replayed_segments,
        ));
    }
    body.push_str(&report::section(
        "X4 — fault-injection suite (timed RAID rebuild, stalls, crash + failover)",
        &b,
    ));
    write_csv(
        cli,
        "faults",
        "workload,scenario,wall_secs,read_secs,write_secs,retries,failovers,lost_segments,timeouts,rebuilt_mb,degraded_at_end,dirty_bytes_lost,replayed_segments",
        rows.iter().map(|r| {
            format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{}",
                r.workload,
                r.scenario,
                r.wall_secs,
                r.read_secs,
                r.write_secs,
                r.retries,
                r.failovers,
                r.lost_segments,
                r.timeouts,
                r.rebuilt_mb,
                r.degraded_at_end,
                r.dirty_bytes_lost,
                r.replayed_segments
            )
        }),
    );
    emit(cli, "faults", &body);
}

fn run_cio(cli: &Cli) {
    let m = machine(cli.fast);
    let (ep, rp, hp) = app_params(cli.fast);
    let scales: &[u32] = if cli.fast { &[4, 8] } else { &[64, 128] };
    eprintln!("[repro] collective I/O suite (X6: PFS vs PPFS vs CIO)...");
    let rows = experiments::cio_suite_jobs(&m, &ep, &rp, &hp, scales, runner::configured_jobs());
    let mut body = report_body(cli);
    let mut b = String::new();
    b.push_str(
        "workload         backend  nodes   wall(s)  wreq/io  wmean(KB)  rreq/io  rmean(KB)  exch(s)  collectives\n",
    );
    for r in &rows {
        b.push_str(&format!(
            "{:<16} {:<8} {:>5} {:>9.1} {:>8.1} {:>10.2} {:>8.1} {:>10.2} {:>8.3} {:>12}\n",
            r.workload,
            r.backend,
            r.nodes,
            r.wall_secs,
            r.write_reqs_per_io,
            r.mean_write_kb,
            r.read_reqs_per_io,
            r.mean_read_kb,
            r.exchange_secs,
            r.collectives,
        ));
    }
    body.push_str(&report::section(
        "X6 — collective two-phase I/O (request shape per I/O node, exchange cost)",
        &b,
    ));
    write_csv(
        cli,
        "cio",
        "workload,backend,nodes,wall_secs,write_reqs_per_io,mean_write_kb,read_reqs_per_io,mean_read_kb,exchange_secs,collectives",
        rows.iter().map(|r| {
            format!(
                "{},{},{},{},{},{},{},{},{},{}",
                r.workload,
                r.backend,
                r.nodes,
                r.wall_secs,
                r.write_reqs_per_io,
                r.mean_write_kb,
                r.read_reqs_per_io,
                r.mean_read_kb,
                r.exchange_secs,
                r.collectives
            )
        }),
    );
    emit(cli, "cio", &body);
}

fn run_recover(cli: &Cli) {
    let m = machine(cli.fast);
    let (ep, rp, hp) = app_params(cli.fast);
    eprintln!("[repro] recovery suite (X5: checkpoint interval x crash scenario)...");
    let rows = recovery::recover_suite_scenarios_jobs(
        &m,
        &ep,
        &rp,
        &hp,
        cli.crash_frac,
        runner::configured_jobs(),
    );
    let mut body = report_body(cli);
    let mut b = String::new();
    b.push_str(
        "workload    iv scenario        epoch  ckpt(s)  ovh(%)  crash(s)  recov(s)  ttr(s)  rerun(s)  saved(s)  lost(MB)  torn  dirty_ck(KB)\n",
    );
    for r in &rows {
        b.push_str(&format!(
            "{:<11} {:>2} {:<14} {:>2}/{:<2} {:>8.1} {:>7.2} {:>9.1} {:>9.1} {:>7.1} {:>9.1} {:>9.1} {:>9.3} {:>5} {:>13.1}\n",
            r.workload,
            r.interval,
            r.scenario,
            r.durable_epoch,
            r.epochs,
            r.ckpt_wall_secs,
            r.overhead_pct,
            r.crash_secs,
            r.recovery_secs,
            r.total_secs,
            r.rerun_secs,
            r.saved_secs,
            r.lost_work_mb,
            r.commits_torn,
            r.dirty_lost_ckpt as f64 / 1024.0,
        ));
    }
    body.push_str(&report::section(
        "X5 — crash/recovery suite (checkpoint commit protocol, restart from last durable epoch)",
        &b,
    ));
    write_csv(
        cli,
        "recover",
        "workload,interval,scenario,durable_epoch,epochs,commits_valid,commits_torn,ckpt_wall_secs,overhead_pct,crash_secs,recovery_secs,total_secs,rerun_secs,saved_secs,lost_work_mb",
        rows.iter().map(|r| {
            format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                r.workload,
                r.interval,
                r.scenario,
                r.durable_epoch,
                r.epochs,
                r.commits_valid,
                r.commits_torn,
                r.ckpt_wall_secs,
                r.overhead_pct,
                r.crash_secs,
                r.recovery_secs,
                r.total_secs,
                r.rerun_secs,
                r.saved_secs,
                r.lost_work_mb
            )
        }),
    );
    emit(cli, "recover", &body);
}

fn run_blog(cli: &Cli) {
    let m = machine(cli.fast);
    let (ep, rp, hp) = app_params(cli.fast);
    eprintln!("[repro] burst-buffer suite (X7: log tier over pfs/ppfs/cio)...");
    let rows = burst::blog_suite_overrides_jobs(
        &m,
        &ep,
        &rp,
        &hp,
        cli.log_mb,
        cli.drain_mbps,
        runner::configured_jobs(),
    );
    let mut body = report_body(cli);
    let mut b = String::new();
    b.push_str(
        "workload    inner  log(MB)  drain(MB/s)  crash  commit(ms)  direct(ms)  speedup  epoch  pend(MB)  replay(s)  ttr(s)  dttr(s)  lost(MB)  occ(MB)  stall(s)\n",
    );
    for r in &rows {
        b.push_str(&format!(
            "{:<11} {:<6} {:>7} {:>12.1} {:>6.2} {:>11.3} {:>11.3} {:>7.1}x {:>3}/{:<2} {:>8.1} {:>10.1} {:>7.1} {:>8.1} {:>9.3} {:>8.1} {:>8.3}\n",
            r.workload,
            r.inner,
            r.log_mb,
            r.drain_mbps,
            r.crash_frac,
            r.commit_ms,
            r.direct_commit_ms,
            r.commit_speedup,
            r.durable_epoch,
            r.epochs,
            r.pending_mb,
            r.replay_secs,
            r.ttr_secs,
            r.direct_ttr_secs,
            r.lost_mb,
            r.occ_peak_mb,
            r.stall_secs,
        ));
    }
    body.push_str(&report::section(
        "X7 — burst-buffer tier (log-speed commits, crash-consistent drain, recovery replay)",
        &b,
    ));
    write_csv(
        cli,
        "blog",
        "workload,inner,log_mb,drain_mbps,crash_frac,commit_ms,direct_commit_ms,commit_speedup,wall_secs,direct_wall_secs,durable_epoch,direct_epoch,epochs,pending_mb,replay_secs,ttr_secs,direct_ttr_secs,lost_mb,direct_lost_mb,occ_peak_mb,stall_secs",
        rows.iter().map(|r| {
            format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                r.workload,
                r.inner,
                r.log_mb,
                r.drain_mbps,
                r.crash_frac,
                r.commit_ms,
                r.direct_commit_ms,
                r.commit_speedup,
                r.wall_secs,
                r.direct_wall_secs,
                r.durable_epoch,
                r.direct_epoch,
                r.epochs,
                r.pending_mb,
                r.replay_secs,
                r.ttr_secs,
                r.direct_ttr_secs,
                r.lost_mb,
                r.direct_lost_mb,
                r.occ_peak_mb,
                r.stall_secs
            )
        }),
    );
    emit(cli, "blog", &body);
}

fn run_chaos(cli: &Cli) {
    let m = machine(cli.fast);
    let (ep, rp, hp) = app_params(cli.fast);
    let seed = cli.chaos_seed.unwrap_or(42);
    let cells = cli.cells.unwrap_or(50);
    eprintln!(
        "[repro] chaos campaign (X8: seed {seed}, {cells} cells over every backend x fault domain)..."
    );
    let rows = chaos::chaos_suite_jobs(&m, &ep, &rp, &hp, seed, cells, runner::configured_jobs());
    let violations = rows.iter().filter(|r| !r.invariants_ok()).count();

    let mut body = report_body(cli);
    let mut b = String::new();
    b.push_str(&format!("campaign seed {seed}, {cells} cells\n"));
    b.push_str(
        "cell  workload    backend     domains          ev  crash  wall(s)    slow   ops    fault  avail   p99(ms)  retry  fo  unavail  epoch  ok\n",
    );
    for r in &rows {
        b.push_str(&format!(
            "{:>4}  {:<10} {:<11} {:<16} {:>3} {:>6.2} {:>9.2} {:>7.2}x {:>6} {:>6} {:>6.3} {:>9.3} {:>6} {:>3} {:>8} {:>3}/{:<2} {:>3}\n",
            r.cell,
            r.workload,
            r.backend,
            r.domains,
            r.events,
            r.crash_frac,
            r.wall_secs,
            r.slowdown,
            r.ops,
            r.faulted,
            r.availability,
            r.p99_ms,
            r.retries,
            r.failovers,
            r.unavailable,
            r.durable_epoch,
            r.epochs,
            if r.invariants_ok() { "yes" } else { "NO" },
        ));
    }
    body.push_str(&report::section(
        "X8 — chaos campaign (randomized fault sweeps, per-cell invariants)",
        &b,
    ));

    let summary = chaos::domain_summary(&rows);
    let mut b = String::new();
    b.push_str("domain  cells  avail    p99(ms)   fault  ok\n");
    for s in &summary {
        b.push_str(&format!(
            "{:<7} {:>5} {:>6.3} {:>10.3} {:>7} {:>3}/{}\n",
            s.domain, s.cells, s.availability, s.mean_p99_ms, s.faulted, s.cells_ok, s.cells
        ));
    }
    b.push_str(&format!(
        "\ninvariant violations: {violations} of {} cells\n",
        rows.len()
    ));
    body.push_str(&report::section("X8 — per-domain summary", &b));

    write_csv(
        cli,
        "chaos",
        "cell,workload,backend,domains,events,crash_frac,healthy_wall_secs,wall_secs,slowdown,ops,faulted,availability,p99_ms,retries,failovers,unavailable,timeouts,durable_epoch,epochs,hang_clean,typed_ok,conserved,cut_ok",
        rows.iter().map(|r| {
            format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                r.cell,
                r.workload,
                r.backend,
                r.domains,
                r.events,
                r.crash_frac,
                r.healthy_wall_secs,
                r.wall_secs,
                r.slowdown,
                r.ops,
                r.faulted,
                r.availability,
                r.p99_ms,
                r.retries,
                r.failovers,
                r.unavailable,
                r.timeouts,
                r.durable_epoch,
                r.epochs,
                r.hang_clean,
                r.typed_ok,
                r.conserved,
                r.cut_ok
            )
        }),
    );
    emit(cli, "chaos", &body);
    assert_eq!(violations, 0, "chaos campaign found invariant violations");
}

fn run_ablations(cli: &Cli) {
    let m = machine(cli.fast);
    eprintln!("[repro] ablations (A1 modes, A2 policies, A3 queue, A4 raid)...");
    let mut body = report_body(cli);

    let (nodes, per_node) = if cli.fast { (4, 4) } else { (32, 16) };
    let rows =
        experiments::mode_ablation_jobs(&m, nodes, per_node, 2048, runner::configured_jobs());
    let mut b = String::new();
    for r in &rows {
        b.push_str(&format!(
            "{:<9} write {:>9.2} s   wall {:>8.2} s\n",
            r.mode.name(),
            r.write_secs,
            r.wall_secs
        ));
    }
    body.push_str(&report::section(
        "A1 — access-mode costs (synchronized writers)",
        &b,
    ));

    let rows = experiments::policy_matrix_jobs(&m, runner::configured_jobs());
    let mut b = String::new();
    for r in &rows {
        b.push_str(&format!(
            "{:<11} {:<11} read {:>9.3} s   hits {:>5}\n",
            r.kernel, r.policy, r.read_secs, r.reads_hit
        ));
    }
    body.push_str(&report::section(
        "A2 — policy matrix (pattern x policy)",
        &b,
    ));

    let rows = experiments::queue_discipline_jobs(
        &m,
        if cli.fast { 4 } else { 16 },
        runner::configured_jobs(),
    );
    let mut b = String::new();
    for r in &rows {
        b.push_str(&format!(
            "{:<7?} read {:>9.2} s   wall {:>8.2} s\n",
            r.discipline, r.read_secs, r.wall_secs
        ));
    }
    body.push_str(&report::section("A3 — I/O-node queue discipline", &b));

    let rows = experiments::raid_degraded_jobs(&m, runner::configured_jobs());
    let mut b = String::new();
    for r in &rows {
        b.push_str(&format!(
            "degraded={:<5} read {:>9.3} s\n",
            r.degraded, r.read_secs
        ));
    }
    body.push_str(&report::section("A4 — RAID-3 degraded-mode reads", &b));

    let rows = experiments::two_level_buffering_jobs(
        &m,
        if cli.fast { 4 } else { 8 },
        runner::configured_jobs(),
    );
    let mut b = String::new();
    for r in &rows {
        b.push_str(&format!(
            "server cache {:>4} blocks: read {:>9.3} s   server hits {:>5}\n",
            r.server_blocks, r.read_secs, r.server_hits
        ));
    }
    body.push_str(&report::section(
        "B1 — two-level buffering (paper §8: compute-node + I/O-node caches)",
        &b,
    ));

    let (ep, hp) = if cli.fast {
        (EscatParams::small(4, 5), HtfParams::small(4))
    } else {
        (EscatParams::paper(), HtfParams::paper())
    };
    let rows = experiments::workload_mix_jobs(&m, &ep, &hp, runner::configured_jobs());
    let mut b = String::new();
    for r in &rows {
        b.push_str(&format!(
            "{:<10} ({:>2} I/O nodes) isolated {:>10.1} s   mixed {:>10.1} s   inflation {:>5.2}x\n",
            r.app,
            r.io_nodes,
            r.isolated_io_secs,
            r.mixed_io_secs,
            r.inflation()
        ));
    }
    body.push_str(&report::section(
        "M1 — application-mix interference (paper §8: workload mixes)",
        &b,
    ));

    emit(cli, "ablations", &body);
}

fn main() {
    let cli = parse_args();
    for what in &cli.what {
        if what == "all" {
            // Independent suites fan out over the sweep runner; each
            // simulation is single-threaded and deterministic, so
            // parallelism changes nothing but wall time.
            runner::par_map_jobs(runner::configured_jobs(), SUITES.to_vec(), |_, suite| {
                run(&cli, suite)
            });
        } else {
            let suite = SUITES.iter().find(|(name, _)| name == what);
            run(
                &cli,
                *suite.expect("suite names are validated in parse_args"),
            );
        }
    }
    if cli.perf {
        print!("{}", sio_core::perf::snapshot().render());
    }
    eprintln!("[repro] artifacts written to {}", cli.out.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn parse(args: &[&str]) -> Result<Cli, CliError> {
        parse_args_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_to_all_experiments() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.what, vec!["all"]);
        assert!(!cli.fast);
        assert!(!cli.perf);
        assert_eq!(cli.out, PathBuf::from("results"));
        assert_eq!(cli.jobs, None);
        assert_eq!(cli.crash_frac, None);
    }

    #[test]
    fn accepts_known_experiments_and_flags() {
        let cli = parse(&[
            "--fast",
            "--perf",
            "--jobs",
            "4",
            "--out",
            "tmp",
            "--crash-frac",
            "0.4",
            "recover",
            "faults",
        ])
        .unwrap();
        assert!(cli.fast);
        assert!(cli.perf);
        assert_eq!(cli.jobs, Some(4));
        assert_eq!(cli.out, PathBuf::from("tmp"));
        assert_eq!(cli.crash_frac, Some(0.4));
        assert_eq!(cli.what, vec!["recover", "faults"]);
    }

    #[test]
    fn rejects_unknown_experiment_with_suggestions() {
        let err = parse(&["recoverr"]).unwrap_err();
        assert_eq!(err, CliError::UnknownExperiment("recoverr".to_string()));
        let msg = err.to_string();
        assert!(msg.contains("unknown experiment 'recoverr'"), "{msg}");
        assert!(msg.contains("recover"), "{msg}");
        assert!(msg.contains("blog"), "{msg}");
    }

    #[test]
    fn rejects_unknown_option() {
        let err = parse(&["--job", "4"]).unwrap_err();
        assert_eq!(err, CliError::UnknownOption("--job".to_string()));
        assert!(err.to_string().contains("unknown option '--job'"), "{err}");
        // The intra-run sharding flag is gone; a stale script that still
        // passes it fails loudly instead of being silently ignored. Spelled
        // in two parts so the removed flag's name appears nowhere as a live
        // option in the source tree.
        let stale = concat!("--", "shards");
        assert_eq!(
            parse(&[stale, "2"]).unwrap_err(),
            CliError::UnknownOption(stale.to_string())
        );
    }

    #[test]
    fn rejects_bad_jobs_values() {
        assert!(matches!(
            parse(&["--jobs"]).unwrap_err(),
            CliError::MissingValue {
                option: "--jobs",
                ..
            }
        ));
        for bad in ["0", "many"] {
            let err = parse(&["--jobs", bad]).unwrap_err();
            assert_eq!(
                err,
                CliError::InvalidValue {
                    option: "--jobs",
                    expected: "a positive integer",
                    got: bad.to_string(),
                }
            );
        }
    }

    #[test]
    fn accepts_crash_frac_up_to_one() {
        // The interval is half-open: crashing exactly at the healthy wall
        // (the last possible instant) is meaningful, crashing at 0 is not.
        assert_eq!(parse(&["--crash-frac", "1"]).unwrap().crash_frac, Some(1.0));
        assert_eq!(
            parse(&["--crash-frac", "0.5"]).unwrap().crash_frac,
            Some(0.5)
        );
    }

    #[test]
    fn rejects_malformed_crash_frac() {
        assert!(matches!(
            parse(&["--crash-frac"]).unwrap_err(),
            CliError::MissingValue {
                option: "--crash-frac",
                ..
            }
        ));
        for bad in ["0", "1.5", "-0.2", "half", "NaN"] {
            let err = parse(&["--crash-frac", bad]).unwrap_err();
            assert_eq!(
                err,
                CliError::InvalidValue {
                    option: "--crash-frac",
                    expected: "a fraction in (0, 1]",
                    got: bad.to_string(),
                },
                "'{bad}' must be rejected, not clamped"
            );
        }
    }

    #[test]
    fn accepts_and_validates_blog_knobs() {
        let cli = parse(&["--log-mb", "128", "--drain-mbps", "12.5", "blog"]).unwrap();
        assert_eq!(cli.log_mb, Some(128));
        assert_eq!(cli.drain_mbps, Some(12.5));
        assert_eq!(cli.what, vec!["blog"]);

        assert!(matches!(
            parse(&["--log-mb"]).unwrap_err(),
            CliError::MissingValue {
                option: "--log-mb",
                ..
            }
        ));
        for bad in ["0", "-4", "64.5", "big"] {
            assert!(matches!(
                parse(&["--log-mb", bad]).unwrap_err(),
                CliError::InvalidValue {
                    option: "--log-mb",
                    ..
                }
            ));
        }
        assert!(matches!(
            parse(&["--drain-mbps"]).unwrap_err(),
            CliError::MissingValue {
                option: "--drain-mbps",
                ..
            }
        ));
        for bad in ["0", "-8", "inf", "NaN", "slow"] {
            assert!(matches!(
                parse(&["--drain-mbps", bad]).unwrap_err(),
                CliError::InvalidValue {
                    option: "--drain-mbps",
                    ..
                }
            ));
        }
    }

    #[test]
    fn accepts_and_validates_chaos_knobs() {
        let cli = parse(&["--chaos-seed", "7", "--cells", "12", "chaos"]).unwrap();
        assert_eq!(cli.chaos_seed, Some(7));
        assert_eq!(cli.cells, Some(12));
        assert_eq!(cli.what, vec!["chaos"]);

        assert!(matches!(
            parse(&["--chaos-seed"]).unwrap_err(),
            CliError::MissingValue {
                option: "--chaos-seed",
                ..
            }
        ));
        for bad in ["-1", "7.5", "lucky"] {
            assert!(matches!(
                parse(&["--chaos-seed", bad]).unwrap_err(),
                CliError::InvalidValue {
                    option: "--chaos-seed",
                    ..
                }
            ));
        }
        assert!(matches!(
            parse(&["--cells"]).unwrap_err(),
            CliError::MissingValue {
                option: "--cells",
                ..
            }
        ));
        // A zero-cell campaign passes every invariant vacuously — reject
        // it rather than report a hollow success.
        for bad in ["0", "-3", "4.5", "some"] {
            let err = parse(&["--cells", bad]).unwrap_err();
            assert_eq!(
                err,
                CliError::InvalidValue {
                    option: "--cells",
                    expected: "a positive cell count",
                    got: bad.to_string(),
                },
                "'{bad}' must be rejected, not clamped"
            );
        }
    }

    #[test]
    fn rejects_missing_out_dir() {
        assert!(matches!(
            parse(&["--out"]).unwrap_err(),
            CliError::MissingValue {
                option: "--out",
                ..
            }
        ));
    }

    #[test]
    fn suite_table_names_every_experiment_once() {
        let names = names();
        let suites: Vec<&str> = SUITES.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, [suites.as_slice(), &["all"]].concat(), "table order");
        let distinct: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(distinct.len(), names.len(), "a name is listed twice");
        for name in &names {
            assert_eq!(parse(&[name]).unwrap().what, vec![*name]);
        }
        // The usage line's experiment list and the unknown-experiment
        // message both name every one, in table order.
        let usage = usage();
        let listed = usage.rsplit('[').next().unwrap().trim_end_matches("]...");
        assert_eq!(listed.split('|').collect::<Vec<_>>(), names, "{usage}");
        let err = CliError::UnknownExperiment("x".to_string()).to_string();
        let listed = err.split("expected one of: ").nth(1).unwrap();
        let listed = listed.trim_end_matches(')');
        assert_eq!(listed.split(", ").collect::<Vec<_>>(), names, "{err}");
    }

    #[test]
    fn usage_lists_every_option_the_parser_accepts() {
        // Every option literal in the parser's source appears in the usage
        // line (`--help` prints that line, so it needs no entry of its
        // own), and every option the usage line names parses.
        let src = include_str!("repro.rs");
        let start = src.find("fn parse_args_from").unwrap();
        let end = start + src[start..].find("\nfn ").unwrap();
        let accepted: BTreeSet<&str> = src[start..end]
            .split('"')
            .filter(|s| s.starts_with("--") && *s != "--help")
            .collect();
        assert_eq!(accepted.len(), 9, "{accepted:?}");
        let usage = usage();
        for option in accepted {
            assert!(usage.contains(&format!("[{option}")), "{option}: {usage}");
        }
        for named in usage.split("[--").skip(1) {
            let option = format!("--{}", named.split([' ', ']']).next().unwrap());
            assert!(
                !matches!(parse(&[&option]), Err(CliError::UnknownOption(_))),
                "usage names {option}, which the parser rejects"
            );
        }
    }
}

//! Host-time benchmark of the simulator.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <paper-healthy|faulted-deep|chaos-sweep> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: untraced passes through the
//! suite entry points `repro` calls, repeated for `--seconds` over several
//! processes of this program. Each pass is gated for correctness, and its
//! time is scaled by a reference kernel timed right after it (see
//! `reference.rs`). `--trace 1` measures the per-layer metrics: the same
//! cells re-driven through timing wrappers (see `adapter.rs`), each traced
//! output checked against its untraced twin. Every metric is printed by
//! name with its unit; the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

mod adapter;
mod reference;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Inputs, Kind, Layers, SuiteOutput, Verdict};

/// Set-ups timed per process; `setup_s` is the median over all of them.
const SETUP_REPS: usize = 41;
/// Fewest measured passes per process, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// The end-to-end run is split over this many processes, one after
/// another, and the passes of all of them pooled. On a shared host one
/// process can run persistently faster or slower than the next; pooling
/// keeps one process from setting the run's medians.
const PROCESSES: usize = 4;

/// Output digests of one untraced pass, recorded at the parent commit:
/// `<workload> <seed> <digest>` per line.
const REFERENCE_DIGESTS: &str = include_str!("../reference_digests.txt");

/// Registry names of the backends the per-layer service metrics cover.
const BACKENDS: [&str; 9] = [
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

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set on the processes an end-to-end run starts.
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut child = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload '{value}' (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds '{value}'"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            "--child" => child = value == "1",
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        seed: seed.unwrap_or(kind.default_seed()),
        seconds,
        trace,
        child,
    })
}

/// One metric as printed: name, unit, value.
type Metric = (String, &'static str, f64);

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    let kind = args.kind;
    let (host_cpus, workers) = host_and_workers(kind);
    if !args.child {
        println!(
            "workload {} seed {} host_cpus {host_cpus} workers {workers} trace {}",
            kind.name(),
            args.seed,
            u8::from(args.trace)
        );
    }
    if !args.trace && !args.child {
        return end_to_end(&args);
    }

    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        inputs = Some(std::hint::black_box(workloads::setup(kind, args.seed)));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");

    // The first pass warms caches and fixes the digest every later pass
    // must reproduce; it is gated but not timed.
    let reference = reference_digest(kind, args.seed);
    let first = untraced_pass(&inputs, workers);
    let verdict = gate(&inputs, first.as_ref(), reference);
    let mut samples = Samples {
        digest: verdict.digest,
        attempted: verdict.runs,
        failed: verdict.failed,
        setup: setup_s,
        ..Samples::default()
    };
    if args.trace {
        println!(
            "first pass digest {:016x} reference {}",
            verdict.digest,
            reference.map_or("none".into(), |d| format!("{d:016x}"))
        );
    }
    match (first, args.trace) {
        (None, true) => finish(Vec::new(), &samples),
        (Some(first), true) => {
            let metrics = per_layer(&args, &inputs, workers, &first, &mut samples);
            finish(metrics, &samples)
        }
        (first, false) => {
            if first.is_some() {
                let expected = reference.unwrap_or(verdict.digest);
                measure(&args, &inputs, workers, expected, &mut samples);
            }
            println!("{}", samples.encode());
            ExitCode::SUCCESS
        }
    }
}

/// Cores seen, and the sweep workers a workload uses: only the chaos sweep
/// fans out, and never past the host's cores.
fn host_and_workers(kind: Kind) -> (usize, usize) {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    match kind {
        Kind::ChaosSweep => (host_cpus, host_cpus),
        _ => (host_cpus, 1),
    }
}

fn reference_digest(kind: Kind, seed: u64) -> Option<u64> {
    REFERENCE_DIGESTS.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f[..] {
            [name, s, digest] if name == kind.name() && s == seed.to_string() => {
                u64::from_str_radix(digest, 16).ok()
            }
            _ => None,
        }
    })
}

/// One untraced pass; `None` if the program panicked.
fn untraced_pass(inputs: &Inputs, workers: usize) -> Option<SuiteOutput> {
    catch_unwind(AssertUnwindSafe(|| workloads::run_suite(inputs, workers))).ok()
}

/// Gate a pass; every run fails if it panicked or its digest differs from
/// the one it must reproduce.
fn gate(inputs: &Inputs, suite: Option<&SuiteOutput>, expected: Option<u64>) -> Verdict {
    let runs = inputs.kind.runs_per_pass();
    match suite {
        None => Verdict {
            runs,
            failed: runs,
            digest: 0,
        },
        Some(s) => {
            let mut v = s.verify(inputs.machine.io_nodes);
            if expected.is_some_and(|d| d != v.digest) {
                v.failed = v.runs;
            }
            v
        }
    }
}

/// Untraced passes for `--seconds`, each gated against `expected`.
fn measure(args: &Args, inputs: &Inputs, workers: usize, expected: u64, samples: &mut Samples) {
    let start = Instant::now();
    while samples.wall.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let (c, t) = (process_cpu_s(), Instant::now());
        let suite = untraced_pass(inputs, workers);
        samples.wall.push(t.elapsed().as_secs_f64());
        samples.cpu.push(process_cpu_s() - c);
        let v = gate(inputs, suite.as_ref(), Some(expected));
        samples.attempted += v.runs;
        samples.failed += v.failed;
        // The passes are identical, so the peak is reached by now; read it
        // before the reference kernel's own memory can raise it.
        if samples.reference.is_empty() {
            samples.rss_mb = peak_rss_mb();
        }
        samples.reference.push(reference::wall(workers));
    }
}

/// What one end-to-end process measured.
#[derive(Default)]
struct Samples {
    digest: u64,
    attempted: u64,
    failed: u64,
    rss_mb: f64,
    setup: Vec<f64>,
    wall: Vec<f64>,
    cpu: Vec<f64>,
    /// Reference-kernel wall time right after each pass.
    reference: Vec<f64>,
}

impl Samples {
    const TAG: &'static str = "process-samples";

    /// One line: tag, digest, attempted, failed, peak RSS, then the set-up,
    /// wall, CPU and reference samples as comma-separated lists.
    fn encode(&self) -> String {
        let list = |v: &[f64]| {
            let s: Vec<String> = v.iter().map(|x| x.to_string()).collect();
            format!("[{}]", s.join(","))
        };
        format!(
            "{} {:016x} {} {} {} {} {} {} {}",
            Self::TAG,
            self.digest,
            self.attempted,
            self.failed,
            self.rss_mb,
            list(&self.setup),
            list(&self.wall),
            list(&self.cpu),
            list(&self.reference)
        )
    }

    fn decode(line: &str) -> Option<Samples> {
        let f: Vec<&str> = line.split_whitespace().collect();
        let [tag, digest, attempted, failed, rss, setup, wall, cpu, reference] = f[..] else {
            return None;
        };
        let list = |s: &str| -> Option<Vec<f64>> {
            let inner = s.strip_prefix('[')?.strip_suffix(']')?;
            inner
                .split(',')
                .filter(|x| !x.is_empty())
                .map(|x| x.parse().ok())
                .collect()
        };
        (tag == Self::TAG).then_some(())?;
        Some(Samples {
            digest: u64::from_str_radix(digest, 16).ok()?,
            attempted: attempted.parse().ok()?,
            failed: failed.parse().ok()?,
            rss_mb: rss.parse().ok()?,
            setup: list(setup)?,
            wall: list(wall)?,
            cpu: list(cpu)?,
            reference: list(reference)?,
        })
    }
}

/// The end-to-end run: [`PROCESSES`] processes of this program, one after
/// another, each measuring for its share of `--seconds`. The times are
/// scaled by the reference kernel (see `reference.rs`): each pass by the
/// kernel run right after it, each set-up by its process's median kernel
/// time. The metrics are medians over the samples of all processes.
fn end_to_end(args: &Args) -> ExitCode {
    let kind = args.kind;
    let mut pooled = Samples::default();
    let mut scaled = Samples::default();
    let mut rss = Vec::new();
    let mut digests = Vec::new();
    let exe = std::env::current_exe();
    for i in 0..PROCESSES {
        let child = exe.as_ref().ok().and_then(|exe| {
            Command::new(exe)
                .args(["--workload", kind.name(), "--trace", "0", "--child", "1"])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &(args.seconds / PROCESSES as f64).to_string()])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .ok()
        });
        let samples = child.and_then(|out| {
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            out.status
                .success()
                .then(|| Samples::decode(line))
                .flatten()
        });
        let Some(s) = samples else {
            eprintln!("process {i} failed to report");
            pooled.attempted += kind.runs_per_pass();
            pooled.failed += kind.runs_per_pass();
            continue;
        };
        let walls: Vec<String> = s.wall.iter().map(|w| format!("{w:.4}")).collect();
        let reference = median(&s.reference);
        println!(
            "process {i}: digest {:016x} failed {}/{} peak_rss_mb {} reference_s {reference:.4} \
             wall_s per pass: {}",
            s.digest,
            s.failed,
            s.attempted,
            s.rss_mb,
            walls.join(" ")
        );
        let scale = |t: &f64, r: &f64| t / r * reference::NOMINAL_S;
        scaled
            .wall
            .extend(s.wall.iter().zip(&s.reference).map(|(t, r)| scale(t, r)));
        scaled
            .cpu
            .extend(s.cpu.iter().zip(&s.reference).map(|(t, r)| scale(t, r)));
        scaled
            .setup
            .extend(s.setup.iter().map(|t| scale(t, &reference)));
        pooled.attempted += s.attempted;
        pooled.failed += s.failed;
        pooled.setup.extend(&s.setup);
        pooled.wall.extend(&s.wall);
        pooled.cpu.extend(&s.cpu);
        pooled.reference.extend(&s.reference);
        rss.push(s.rss_mb);
        digests.push(s.digest);
    }
    // Every process computes the same outputs.
    if digests.windows(2).any(|w| w[0] != w[1]) {
        eprintln!("processes disagree on the output digest");
        pooled.failed = pooled.attempted;
    }
    println!(
        "passes {} failed_frac {}",
        pooled.wall.len(),
        pooled.failed as f64 / pooled.attempted.max(1) as f64
    );
    println!(
        "unscaled medians: wall_s {} cpu_s {} setup_s {} reference_s {}",
        median(&pooled.wall),
        median(&pooled.cpu),
        median(&pooled.setup),
        median(&pooled.reference)
    );
    let metrics = if scaled.wall.is_empty() {
        Vec::new()
    } else {
        vec![
            ("wall_s".into(), "s", median(&scaled.wall)),
            ("cpu_s".into(), "s", median(&scaled.cpu)),
            ("peak_rss_mb".into(), "MB", median(&rss)),
            ("setup_s".into(), "s", median(&scaled.setup)),
        ]
    };
    finish(metrics, &pooled)
}

fn per_layer(
    args: &Args,
    inputs: &Inputs,
    workers: usize,
    suite: &SuiteOutput,
    samples: &mut Samples,
) -> Vec<Metric> {
    let mut passes: Vec<Vec<Metric>> = Vec::new();
    let start = Instant::now();
    let mut tries = 0;
    while tries < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        tries += 1;
        match catch_unwind(AssertUnwindSafe(|| {
            workloads::traced_pass(inputs, workers, suite)
        })) {
            Ok(layers) => {
                samples.attempted += layers.runs;
                samples.failed += layers.failed;
                passes.push(layer_metrics(&layers));
            }
            Err(_) => {
                let runs = inputs.kind.runs_per_pass();
                samples.attempted += runs;
                samples.failed += runs;
            }
        }
    }
    println!("passes {}", passes.len());
    let Some(names) = passes.first() else {
        return Vec::new();
    };
    // Simulated work is deterministic: every count repeats exactly.
    let repeats = names.iter().enumerate().all(|(i, (name, unit, value))| {
        let simulated = matches!(*unit, "count" | "B" | "ns")
            || name == "ppfs.read_hit_ratio"
            || name == "cio.members_per_collective";
        !simulated || passes.iter().all(|p| p[i].2 == *value)
    });
    if !repeats {
        eprintln!("simulated-work counts differ between traced passes");
        samples.failed = samples.attempted;
    }
    // Each metric is the median over passes.
    let mut metrics: Vec<Metric> = names
        .iter()
        .enumerate()
        .map(|(i, (name, unit, _))| {
            let values: Vec<f64> = passes.iter().map(|p| p[i].2).collect();
            (name.clone(), *unit, median(&values))
        })
        .collect();
    metrics.push(("apps.build_ms".into(), "ms", median(&samples.setup) * 1e3));
    metrics.push((
        "failed_frac".into(),
        "ratio",
        samples.failed as f64 / samples.attempted as f64,
    ));
    metrics.push((
        "host_cpus".into(),
        "count",
        host_and_workers(inputs.kind).0 as f64,
    ));
    metrics
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics of one traced pass.
fn layer_metrics(l: &Layers) -> Vec<Metric> {
    let r = &l.run;
    let engine_ns = r.run_ns.saturating_sub(r.service_ns + r.program_ns);
    let c = &l.counts;
    let mut m: Vec<Metric> = vec![
        ("engine.self_ms".into(), "ms", engine_ns as f64 / 1e6),
        (
            "engine.ns_per_event".into(),
            "ns/event",
            ratio(engine_ns, r.engine.events),
        ),
        ("engine.events".into(), "count", r.engine.events as f64),
        ("engine.heap_peak".into(), "count", l.heap_peak as f64),
        ("program.steps".into(), "count", r.steps as f64),
        ("program.self_ms".into(), "ms", r.program_ns as f64 / 1e6),
    ];
    for b in BACKENDS {
        let (calls, ns) = l.service.get(b).copied().unwrap_or_default();
        let name = b.replace('+', "-");
        m.push((format!("service.{name}.calls"), "count", calls as f64));
        m.push((format!("service.{name}.self_ms"), "ms", ns as f64 / 1e6));
        m.push((
            format!("service.{name}.ns_per_call"),
            "ns/call",
            ratio(ns, calls),
        ));
    }
    let (wall, busy): (u64, u64) = l.stages.iter().fold((0, 0), |(w, b), s| (w + s.0, b + s.1));
    let workers = l.workers as u64;
    let idle = |s: (u64, u64)| (workers * s.0).saturating_sub(s.1) as f64 / 1e6;
    m.extend([
        ("fskit.requests".into(), "count", c.fskit_requests as f64),
        ("fskit.bytes".into(), "B", c.fskit_bytes as f64),
        (
            "ppfs.read_hit_ratio".into(),
            "ratio",
            ratio(c.ppfs_reads_hit, c.ppfs_reads),
        ),
        (
            "cio.members_per_collective".into(),
            "ratio",
            ratio(c.cio_members, c.cio_collectives),
        ),
        ("blog.drain_ops".into(), "count", c.blog_drain_ops as f64),
        ("blog.stall_ns".into(), "ns", c.blog_stall_ns as f64),
        ("fault.retries".into(), "count", c.fault_retries as f64),
        ("fault.failovers".into(), "count", c.fault_failovers as f64),
        ("meta.failovers".into(), "count", c.meta_failovers as f64),
        (
            "raid.rebuild_chunks".into(),
            "count",
            c.raid_rebuild_chunks as f64,
        ),
        ("trace.events".into(), "count", r.trace_events as f64),
        ("trace.bytes".into(), "B", r.trace_bytes as f64),
        ("trace.finish_ms".into(), "ms", r.finish_ns as f64 / 1e6),
        ("analysis.tables_ms".into(), "ms", l.tables_ns as f64 / 1e6),
        (
            "analysis.recovery_ms".into(),
            "ms",
            l.recovery_ns as f64 / 1e6,
        ),
        (
            "runner.busy_frac".into(),
            "ratio",
            ratio(busy, workers * wall),
        ),
        ("runner.stage1.idle_ms".into(), "ms", idle(l.stages[0])),
        ("runner.stage2.idle_ms".into(), "ms", idle(l.stages[1])),
        ("runner.workers".into(), "count", l.workers as f64),
        ("run_ms_p50".into(), "ms", percentile(&l.run_ns, 0.5) / 1e6),
        ("run_ms_p90".into(), "ms", percentile(&l.run_ns, 0.9) / 1e6),
        ("run_ms_samples".into(), "count", l.run_ns.len() as f64),
        (
            "tracing.overhead_frac".into(),
            "ratio",
            l.traced_ns as f64 / l.untraced_ns.max(1) as f64 - 1.0,
        ),
    ]);
    m
}

/// Nearest-rank percentile of integer samples.
fn percentile(samples: &[u64], q: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_unstable();
    match s.len() {
        0 => 0.0,
        n => s[((n as f64 * q).ceil() as usize).clamp(1, n) - 1] as f64,
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Print every metric by name with its unit, then the result line.
fn finish(metrics: Vec<Metric>, tally: &Samples) -> ExitCode {
    for (name, unit, value) in &metrics {
        println!("{name:<34} {value:>18} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = tally.failed == 0 && !metrics.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    if metrics.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU time of the whole process, exited threads
/// included, in seconds.
fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call, and the clock
    // id is one the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

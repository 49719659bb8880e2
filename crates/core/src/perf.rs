//! Zero-cost-when-disabled performance counters.
//!
//! The hot paths (engine event loop, trace capture) maintain plain integer
//! counters on state they already touch — that always runs and costs nothing
//! measurable. This module is the *publishing* side: once per simulated run
//! the driver submits those per-run totals ([`submit`]) and they aggregate
//! into process-wide atomics. When disabled — the default — [`submit`]
//! returns immediately and nothing is recorded, so instrumented and
//! uninstrumented runs are byte-identical (the paper's Pablo standard:
//! capture must not perturb the thing measured).
//!
//! Aggregation uses only sums and maxima, which commute, so totals are
//! identical no matter how a sweep's runs are spread across worker threads
//! (`SIO_JOBS=1` and `SIO_JOBS=8` report the same counters). Phase wall
//! times ([`phase`]) are the one intentionally non-deterministic output —
//! they measure the host, not the simulation.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

static RUNS: AtomicU64 = AtomicU64::new(0);
static EVENTS: AtomicU64 = AtomicU64::new(0);
static HEAP_PEAK: AtomicU64 = AtomicU64::new(0);
static CHANNEL_PEAK: AtomicU64 = AtomicU64::new(0);
static TRACE_EVENTS: AtomicU64 = AtomicU64::new(0);
static TRACE_BYTES: AtomicU64 = AtomicU64::new(0);
static LOG_OCC_PEAK: AtomicU64 = AtomicU64::new(0);
static LOG_STALL_NS: AtomicU64 = AtomicU64::new(0);

static PHASES: Mutex<Vec<(String, u64)>> = Mutex::new(Vec::new());

/// Turn collection on (e.g. from `repro --perf`).
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn collection off.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether collection is on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Hot-path totals for one simulated run, submitted once at run end.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RunPerf {
    /// Events the engine processed.
    pub events: u64,
    /// Peak pending events in the engine queue (all lanes).
    pub heap_peak: u64,
    /// Peak buffered eager messages.
    pub channel_peak: u64,
    /// Trace events captured.
    pub trace_events: u64,
    /// In-memory bytes of the captured trace.
    pub trace_bytes: u64,
    /// Highest burst-log occupancy any node reached (0 without the tier).
    pub log_occ_peak: u64,
    /// Time appends spent parked on a full burst log, ns.
    pub log_stall_ns: u64,
}

/// Fold one run's totals into the process-wide aggregate. No-op (one relaxed
/// load) when collection is disabled.
pub fn submit(run: RunPerf) {
    if !enabled() {
        return;
    }
    RUNS.fetch_add(1, Ordering::Relaxed);
    EVENTS.fetch_add(run.events, Ordering::Relaxed);
    HEAP_PEAK.fetch_max(run.heap_peak, Ordering::Relaxed);
    CHANNEL_PEAK.fetch_max(run.channel_peak, Ordering::Relaxed);
    TRACE_EVENTS.fetch_add(run.trace_events, Ordering::Relaxed);
    TRACE_BYTES.fetch_add(run.trace_bytes, Ordering::Relaxed);
    LOG_OCC_PEAK.fetch_max(run.log_occ_peak, Ordering::Relaxed);
    LOG_STALL_NS.fetch_add(run.log_stall_ns, Ordering::Relaxed);
}

/// Times a named phase from creation to drop; records nothing when
/// collection is disabled. Phases with the same name accumulate.
pub struct PhaseGuard {
    name: String,
    start: Option<Instant>,
}

/// Start timing a phase (e.g. one `repro` experiment).
pub fn phase(name: &str) -> PhaseGuard {
    PhaseGuard {
        name: name.to_string(),
        start: enabled().then(Instant::now),
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = start.elapsed().as_nanos() as u64;
            PHASES
                .lock()
                .unwrap()
                .push((std::mem::take(&mut self.name), ns));
        }
    }
}

/// A point-in-time copy of the aggregate counters.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PerfSnapshot {
    /// Simulated runs submitted.
    pub runs: u64,
    /// Engine events across all runs.
    pub events: u64,
    /// Max pending events in the engine queue across all runs.
    pub heap_peak: u64,
    /// Max buffered eager messages across all runs.
    pub channel_peak: u64,
    /// Trace events captured across all runs.
    pub trace_events: u64,
    /// In-memory trace bytes across all runs.
    pub trace_bytes: u64,
    /// Max burst-log occupancy across all runs (0 without the log tier).
    pub log_occ_peak: u64,
    /// Burst-log full-log stall time across all runs, ns.
    pub log_stall_ns: u64,
    /// (phase name, wall ns), merged by name and sorted by name.
    pub phases: Vec<(String, u64)>,
}

impl PerfSnapshot {
    /// The deterministic part of the snapshot: everything except host wall
    /// times. Two sweeps of the same work must agree on this exactly,
    /// whatever the worker count.
    pub fn counters(&self) -> (u64, u64, u64, u64, u64, u64, u64, u64) {
        (
            self.runs,
            self.events,
            self.heap_peak,
            self.channel_peak,
            self.trace_events,
            self.trace_bytes,
            self.log_occ_peak,
            self.log_stall_ns,
        )
    }

    /// Human-readable stats block (the `repro --perf` output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== perf counters ==\n");
        out.push_str(&format!("{:<24} {}\n", "simulated runs", self.runs));
        out.push_str(&format!("{:<24} {}\n", "engine events", self.events));
        out.push_str(&format!("{:<24} {}\n", "event heap peak", self.heap_peak));
        out.push_str(&format!(
            "{:<24} {}\n",
            "channel buffer peak", self.channel_peak
        ));
        out.push_str(&format!("{:<24} {}\n", "trace events", self.trace_events));
        out.push_str(&format!("{:<24} {}\n", "trace bytes", self.trace_bytes));
        if self.log_occ_peak > 0 || self.log_stall_ns > 0 {
            out.push_str(&format!("{:<24} {}\n", "burst-log peak", self.log_occ_peak));
            out.push_str(&format!(
                "{:<24} {:.1} ms\n",
                "burst-log stall",
                self.log_stall_ns as f64 / 1e6
            ));
        }
        if !self.phases.is_empty() {
            out.push_str("phase wall times:\n");
            for (name, ns) in &self.phases {
                out.push_str(&format!("  {:<22} {:>10.1} ms\n", name, *ns as f64 / 1e6));
            }
        }
        out
    }
}

/// Copy out the current aggregate.
pub fn snapshot() -> PerfSnapshot {
    let mut phases: Vec<(String, u64)> = Vec::new();
    for (name, ns) in PHASES.lock().unwrap().iter() {
        match phases.iter_mut().find(|(n, _)| n == name) {
            Some((_, total)) => *total += ns,
            None => phases.push((name.clone(), *ns)),
        }
    }
    phases.sort();
    PerfSnapshot {
        runs: RUNS.load(Ordering::Relaxed),
        events: EVENTS.load(Ordering::Relaxed),
        heap_peak: HEAP_PEAK.load(Ordering::Relaxed),
        channel_peak: CHANNEL_PEAK.load(Ordering::Relaxed),
        trace_events: TRACE_EVENTS.load(Ordering::Relaxed),
        trace_bytes: TRACE_BYTES.load(Ordering::Relaxed),
        log_occ_peak: LOG_OCC_PEAK.load(Ordering::Relaxed),
        log_stall_ns: LOG_STALL_NS.load(Ordering::Relaxed),
        phases,
    }
}

/// Zero every counter and drop recorded phases (collection state is kept).
pub fn reset() {
    RUNS.store(0, Ordering::SeqCst);
    EVENTS.store(0, Ordering::SeqCst);
    HEAP_PEAK.store(0, Ordering::SeqCst);
    CHANNEL_PEAK.store(0, Ordering::SeqCst);
    TRACE_EVENTS.store(0, Ordering::SeqCst);
    TRACE_BYTES.store(0, Ordering::SeqCst);
    LOG_OCC_PEAK.store(0, Ordering::SeqCst);
    LOG_STALL_NS.store(0, Ordering::SeqCst);
    PHASES.lock().unwrap().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    // Counter state is process-global; exercise everything in one test to
    // avoid cross-test interference under the parallel test runner.
    #[test]
    fn lifecycle_submit_snapshot_reset() {
        reset();
        // Disabled: submissions vanish.
        disable();
        submit(RunPerf {
            events: 100,
            ..RunPerf::default()
        });
        assert_eq!(snapshot().runs, 0);

        enable();
        submit(RunPerf {
            events: 10,
            heap_peak: 4,
            channel_peak: 2,
            trace_events: 3,
            trace_bytes: 96,
            log_occ_peak: 70,
            log_stall_ns: 400,
        });
        submit(RunPerf {
            events: 5,
            heap_peak: 9,
            channel_peak: 1,
            trace_events: 2,
            trace_bytes: 64,
            log_occ_peak: 30,
            log_stall_ns: 100,
        });
        {
            let _g = phase("demo");
        }
        {
            let _g = phase("demo");
        }
        let snap = snapshot();
        // Sums for additive counters, maxima for the peaks.
        assert_eq!(snap.counters(), (2, 15, 9, 2, 5, 160, 70, 500));
        assert_eq!(snap.phases.len(), 1, "same-name phases merge");
        assert_eq!(snap.phases[0].0, "demo");
        let text = snap.render();
        assert!(text.contains("engine events"));
        assert!(text.contains("15"));
        assert!(text.contains("demo"));

        // Disabled phases record nothing.
        disable();
        {
            let _g = phase("ghost");
        }
        assert_eq!(snapshot().phases.len(), 1);

        reset();
        assert_eq!(snapshot(), PerfSnapshot::default());
    }
}

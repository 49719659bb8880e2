//! X7: burst-buffer checkpoint sweep — the host-side log-structured tier
//! (`sio-blog`) in front of each shipped backend, on the checkpointed
//! application workloads.
//!
//! Per cell (workload × inner backend × log size × drain bandwidth ×
//! crash instant) the suite measures what the tier buys and what it
//! costs:
//!
//! * **checkpoint-commit latency** — mean issue → durable interval of a
//!   checkpoint commit (the slot `Write` through its paired `Sync`
//!   `Flush`), on the log tier vs the direct backend. Commits on the tier
//!   land at local-log speed; the drain moves the data later.
//! * **time-to-recovery** — log replay (undrained frames pumped into the
//!   backend at the drain bandwidth) plus the resumed run from the
//!   log-aware durable cut ([`crate::recovery::durable_cut_logged`]), vs the
//!   direct backend's resume from its sync-paired cut.
//! * **lost work** — covered-file bytes written after each cut.
//!
//! Everything is a pure function of the configuration; rows come back in
//! canonical case order whatever the worker count, and the paper-scale
//! digests live in `results/golden_blog.txt`.

use crate::cells::{run_checkpointed, Apps, Stage};
use crate::recovery::commit_events;
use crate::runner;
use paragon_sim::{MachineConfig, SimTime};
use sio_apps::checkpoint::CheckpointPlan;
use sio_apps::workload::Backend;
use sio_apps::{BlogParams, EscatParams, HtfParams, RenderParams};
use sio_core::event::NS_PER_SEC;
use sio_core::Trace;

/// One cell of the X7 burst-buffer sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BlogRow {
    /// Workload label (`escat`, `render`, `htf-pargos`).
    pub workload: String,
    /// Inner backend under the log tier (`pfs`, `ppfs`, `cio`).
    pub inner: String,
    /// Per-node log capacity, MB.
    pub log_mb: u64,
    /// Drain bandwidth, MB/s.
    pub drain_mbps: f64,
    /// Crash instant as a fraction of the healthy checkpointed wall.
    pub crash_frac: f64,
    /// Mean checkpoint-commit latency on the log tier, milliseconds.
    pub commit_ms: f64,
    /// Mean checkpoint-commit latency on the direct backend, milliseconds.
    pub direct_commit_ms: f64,
    /// `direct_commit_ms / commit_ms` — the headline latency drop.
    pub commit_speedup: f64,
    /// Healthy checkpointed wall on the log tier, seconds.
    pub wall_secs: f64,
    /// Healthy checkpointed wall on the direct backend, seconds.
    pub direct_wall_secs: f64,
    /// Durable epoch recovered from the crashed log-tier run.
    pub durable_epoch: u32,
    /// Durable epoch recovered from the crashed direct run.
    pub direct_epoch: u32,
    /// Epoch boundaries in a full run.
    pub epochs: u32,
    /// Framed bytes still undrained at the crash, MB (the replay exposure).
    pub pending_mb: f64,
    /// Log-replay time: undrained frames pumped at the drain bandwidth, s.
    pub replay_secs: f64,
    /// Time-to-recovery on the log tier: replay + resumed wall, seconds.
    pub ttr_secs: f64,
    /// Time-to-recovery on the direct backend: resumed wall, seconds.
    pub direct_ttr_secs: f64,
    /// Covered-file bytes written after the log-aware cut, MB.
    pub lost_mb: f64,
    /// Covered-file bytes written after the direct cut, MB.
    pub direct_lost_mb: f64,
    /// Highest framed occupancy any node's log reached, MB.
    pub occ_peak_mb: f64,
    /// Time appends spent parked on a full log, seconds.
    pub stall_secs: f64,
}

const WORKLOADS: [&str; 3] = ["escat", "render", "htf-pargos"];
const INNERS: [&str; 3] = ["pfs", "ppfs", "cio"];
const BASE_LOG_MB: u64 = 64;
const BASE_DRAIN_MBPS: f64 = 8.0;
const BASE_CRASH: f64 = 0.5;

/// The X7 cell grid in canonical order: every workload × inner at the base
/// point, then the escat×pfs axis sweeps — log size, drain bandwidth, and
/// crash instant each varied alone.
fn blog_cases() -> Vec<(&'static str, &'static str, u64, f64, f64)> {
    let mut cases = Vec::new();
    for w in WORKLOADS {
        for i in INNERS {
            cases.push((w, i, BASE_LOG_MB, BASE_DRAIN_MBPS, BASE_CRASH));
        }
    }
    for log_mb in [16, 256] {
        cases.push(("escat", "pfs", log_mb, BASE_DRAIN_MBPS, BASE_CRASH));
    }
    for drain in [4.0, 16.0] {
        cases.push(("escat", "pfs", BASE_LOG_MB, drain, BASE_CRASH));
    }
    for crash in [0.3, 0.7] {
        cases.push(("escat", "pfs", BASE_LOG_MB, BASE_DRAIN_MBPS, crash));
    }
    cases
}

/// Mean issue → durable latency of the checkpoint commits in a healthy
/// run's trace, nanoseconds: per writer, the `j`-th slot `Write`'s start
/// through the `j`-th commit `Flush`'s end.
fn mean_commit_ns(trace: &Trace, plan: &CheckpointPlan) -> f64 {
    let (mut sum, mut n) = (0u128, 0u64);
    for node in 0..plan.nodes {
        let (writes, syncs) = commit_events(trace, plan, node);
        for (w, s) in writes.iter().zip(syncs.iter()) {
            sum += (s.end - w.start) as u128;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

/// Run the X7 burst-buffer sweep on `jobs` workers.
///
/// When a log size or drain bandwidth override is given (`repro blog
/// --log-mb/--drain-mbps`), the grid collapses to the workload × inner
/// cells at that point — sweeping an axis the user just pinned would be
/// noise. Three fan-out phases — healthy walls on the tier, healthy walls
/// direct, then the crash / replay / resume cells — with each shared
/// baseline run once, so rows are worker-count invariant and come back in
/// canonical case order.
pub fn blog_suite_overrides_jobs(
    machine: &MachineConfig,
    escat: &EscatParams,
    render: &RenderParams,
    htf: &HtfParams,
    log_mb: Option<u64>,
    drain_mbps: Option<f64>,
    jobs: usize,
) -> Vec<BlogRow> {
    let cases = if log_mb.is_none() && drain_mbps.is_none() {
        blog_cases()
    } else {
        let (l, d) = (
            log_mb.unwrap_or(BASE_LOG_MB),
            drain_mbps.unwrap_or(BASE_DRAIN_MBPS),
        );
        let mut cases = Vec::new();
        for w in WORKLOADS {
            for i in INNERS {
                cases.push((w, i, l, d, BASE_CRASH));
            }
        }
        cases
    };
    let apps = Apps { escat, render, htf };
    let direct_of = |iname: &str| -> Backend { Backend::parse(iname).expect("known inner") };
    let blog_of = |iname: &str, log_mb: u64, drain_mbps: f64| -> Backend {
        Backend::Blog(
            Box::new(direct_of(iname)),
            BlogParams::new(log_mb, drain_mbps),
        )
    };
    // Healthy checkpointed wall and mean commit latency.
    let healthy = |wname: &str, backend: &Backend| -> (SimTime, f64) {
        let cw = apps.checkpointed(wname, apps.interval(wname), 0);
        let out = run_checkpointed(machine, &cw, backend, None, None);
        (out.report.wall, mean_commit_ns(&out.trace, &cw.plan))
    };

    // Phase 1: the log-tier baselines, one per (workload, inner, log,
    // drain) configuration.
    let blog_base = Stage::run(
        jobs,
        cases.iter().map(|&(w, i, l, d, _)| (w, i, l, d)),
        |(w, i, l, d)| healthy(w, &blog_of(i, l, d)),
    );
    // Phase 2: the direct baselines, one per (workload, inner).
    let direct_base = Stage::run(jobs, cases.iter().map(|&(w, i, ..)| (w, i)), |(w, i)| {
        healthy(w, &direct_of(i))
    });

    // Phase 3: crash each cell on both tiers, derive both cuts, resume.
    runner::par_map_jobs(
        jobs,
        cases,
        |_, (wname, iname, log_mb, drain_mbps, frac)| {
            let iv = apps.interval(wname);
            let &(blog_wall, blog_commit_ns) = blog_base.get(&(wname, iname, log_mb, drain_mbps));
            let &(direct_wall, direct_commit_ns) = direct_base.get(&(wname, iname));
            let crash_at = |wall: SimTime| SimTime((wall.nanos() as f64 * frac) as u64);

            let logged = apps.crash_and_resume(
                machine,
                wname,
                iv,
                &blog_of(iname, log_mb, drain_mbps),
                None,
                crash_at(blog_wall),
            );
            let stats = logged.crashed.blog.expect("log tier ran");
            let replay_secs = stats.pending_bytes as f64 / (drain_mbps * 1.0e6);
            let direct = apps.crash_and_resume(
                machine,
                wname,
                iv,
                &direct_of(iname),
                None,
                crash_at(direct_wall),
            );

            let commit_ms = blog_commit_ns / 1e6;
            let direct_commit_ms = direct_commit_ns / 1e6;
            BlogRow {
                workload: wname.to_string(),
                inner: iname.to_string(),
                log_mb,
                drain_mbps,
                crash_frac: frac,
                commit_ms,
                direct_commit_ms,
                commit_speedup: direct_commit_ms / commit_ms.max(f64::EPSILON),
                wall_secs: blog_wall.nanos() as f64 / NS_PER_SEC,
                direct_wall_secs: direct_wall.nanos() as f64 / NS_PER_SEC,
                durable_epoch: logged.cut.epoch,
                direct_epoch: direct.cut.epoch,
                epochs: logged.epochs,
                pending_mb: stats.pending_bytes as f64 / 1e6,
                replay_secs,
                ttr_secs: replay_secs + logged.resumed.report.wall.nanos() as f64 / NS_PER_SEC,
                direct_ttr_secs: direct.resumed.report.wall.nanos() as f64 / NS_PER_SEC,
                lost_mb: logged.lost_bytes as f64 / 1e6,
                direct_lost_mb: direct.lost_bytes as f64 / 1e6,
                occ_peak_mb: stats.occupancy_peak as f64 / 1e6,
                stall_secs: stats.stall_ns as f64 / NS_PER_SEC,
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MachineConfig {
        MachineConfig::tiny(4, 2)
    }

    fn small_suite(jobs: usize) -> Vec<BlogRow> {
        blog_suite_overrides_jobs(
            &tiny(),
            &EscatParams::small(4, 6),
            &RenderParams::small(4, 3),
            &HtfParams::small(4),
            None,
            None,
            jobs,
        )
    }

    #[test]
    fn suite_headline_claims_hold_at_small_scale() {
        let rows = small_suite(2);
        assert_eq!(rows.len(), 15, "grid shape changed");
        for r in &rows {
            // The tier's contract: commits land at local-log speed — at
            // least 4x below the direct software path — while recovery
            // stays within 2x of the direct baseline.
            assert!(
                r.commit_speedup >= 4.0,
                "{}+{}: commit speedup only {:.1}x ({:.3} vs {:.3} ms)",
                r.workload,
                r.inner,
                r.commit_speedup,
                r.direct_commit_ms,
                r.commit_ms
            );
            assert!(
                r.ttr_secs <= 2.0 * r.direct_ttr_secs,
                "{}+{}: TTR {:.1}s vs direct {:.1}s",
                r.workload,
                r.inner,
                r.ttr_secs,
                r.direct_ttr_secs
            );
            assert!(r.epochs > 0);
            assert!(r.durable_epoch <= r.epochs && r.direct_epoch <= r.epochs);
        }
    }

    #[test]
    fn suite_rows_are_worker_count_invariant() {
        assert_eq!(small_suite(1), small_suite(8));
    }
}

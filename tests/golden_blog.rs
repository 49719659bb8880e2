//! Golden-digest snapshots of the X7 burst-buffer suite at paper scale:
//! one digest per (workload, inner, log, drain, crash) cell over a
//! canonical rendering of the commit-latency / recovery metrics. Any
//! drift in the log tier — append/drain timing, durable-cut derivation,
//! replay accounting — fails here with the cell that moved.
//!
//! The headline invariants of the experiment are asserted directly too,
//! so a regenerated golden cannot silently encode a regression: at paper
//! scale the log tier must land checkpoint commits at least 4× faster
//! than every direct backend while keeping time-to-recovery within 2× of
//! the direct baseline, and a crashed tier must never lose acknowledged
//! epochs (`durable_epoch` counts only log-validated or drained commits).
//!
//! Digests live in `results/golden_blog.txt`; regenerate after an
//! intentional model change with `SIO_UPDATE_GOLDENS=1 cargo test`.

mod goldens;

use sio::analysis::burst::{self, BlogRow};
use sio::apps::{EscatParams, HtfParams, RenderParams};
use sio::core::sddf::fingerprint_bytes;
use sio::paragon::MachineConfig;

/// Canonical, formatting-stable rendering of one suite cell.
fn canonical(r: &BlogRow) -> String {
    format!(
        "commit_ms={:.6} direct_ms={:.6} wall={:.6} dwall={:.6} epoch={}/{} depoch={} \
         pending_mb={:.6} replay={:.6} ttr={:.6} dttr={:.6} lost_mb={:.6} dlost_mb={:.6} \
         occ_mb={:.6} stall={:.9}",
        r.commit_ms,
        r.direct_commit_ms,
        r.wall_secs,
        r.direct_wall_secs,
        r.durable_epoch,
        r.epochs,
        r.direct_epoch,
        r.pending_mb,
        r.replay_secs,
        r.ttr_secs,
        r.direct_ttr_secs,
        r.lost_mb,
        r.direct_lost_mb,
        r.occ_peak_mb,
        r.stall_secs,
    )
}

#[test]
fn blog_suite_matches_goldens_and_headline_claims() {
    let machine = MachineConfig::paragon_128();
    let rows = burst::blog_suite_overrides_jobs(
        &machine,
        &EscatParams::paper(),
        &RenderParams::paper(),
        &HtfParams::paper(),
        None,
        None,
        sio::analysis::runner::configured_jobs(),
    );
    assert_eq!(rows.len(), 15, "suite shape changed; goldens need review");

    for r in &rows {
        // Headline: commits at local-log speed, at least 4x below the
        // direct software path, at the paper-scale burst load.
        assert!(
            r.commit_speedup >= 4.0,
            "{}+{} log{} drain{} crash{}: commit speedup only {:.1}x ({:.3} ms vs {:.3} ms)",
            r.workload,
            r.inner,
            r.log_mb,
            r.drain_mbps,
            r.crash_frac,
            r.commit_speedup,
            r.direct_commit_ms,
            r.commit_ms
        );
        // Recovery stays within 2x of the direct baseline even after
        // paying for the log replay.
        assert!(
            r.ttr_secs <= 2.0 * r.direct_ttr_secs,
            "{}+{}: TTR {:.1}s vs direct {:.1}s",
            r.workload,
            r.inner,
            r.ttr_secs,
            r.direct_ttr_secs
        );
        // No acknowledged-data loss: the cut never exceeds what was
        // committed, and a crash mid-run recovers a usable prefix.
        assert!(r.durable_epoch <= r.epochs);
        assert!(r.direct_epoch <= r.epochs);
    }

    let computed: Vec<(String, u64)> = rows
        .iter()
        .map(|r| {
            (
                format!(
                    "blog-{}-{}-log{}-drain{}-crash{}",
                    r.workload, r.inner, r.log_mb, r.drain_mbps, r.crash_frac
                ),
                fingerprint_bytes(canonical(r).as_bytes()),
            )
        })
        .collect();
    goldens::check(
        "results/golden_blog.txt",
        "Golden digests of the X7 burst-buffer suite (FNV-1a over canonical rows), paper scale.",
        &computed,
    );
}

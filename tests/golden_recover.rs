//! Golden-digest snapshots of the X5 crash/recovery suite at full
//! 128-node scale: one digest per (workload, interval, scenario) cell over
//! a canonical rendering of every field in the row. Any drift in the
//! checkpoint commit protocol, durable-cut derivation, resume construction,
//! or lost-work accounting fails here with the cell that moved.
//!
//! Digests live in `results/golden_recover.txt`; regenerate after an
//! intentional model change with `SIO_UPDATE_GOLDENS=1 cargo test`.

mod goldens;

use sio::analysis::recovery::{self, RecoverRow};
use sio::apps::{EscatParams, HtfParams, RenderParams};
use sio::core::sddf::fingerprint_bytes;
use sio::paragon::MachineConfig;

/// Canonical, formatting-stable rendering of one suite cell.
fn canonical(r: &RecoverRow) -> String {
    format!(
        "epoch={}/{} valid={} torn={} ckpt={:.6} ovh={:.4} crash={:.6} \
         recov={:.6} ttr={:.6} rerun={:.6} saved={:.6} lost_mb={:.6} \
         dirty_ck={}",
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
        r.lost_work_mb,
        r.dirty_lost_ckpt,
    )
}

#[test]
fn recover_suite_matches_goldens() {
    let machine = MachineConfig::paragon_128();
    let rows = recovery::recover_suite_scenarios_jobs(
        &machine,
        &EscatParams::paper(),
        &RenderParams::paper(),
        &HtfParams::paper(),
        None,
        sio::analysis::runner::configured_jobs(),
    );
    assert_eq!(rows.len(), 15, "suite shape changed; goldens need review");
    let computed: Vec<(String, u64)> = rows
        .iter()
        .map(|r| {
            (
                format!("recover-{}-iv{}-{}", r.workload, r.interval, r.scenario),
                fingerprint_bytes(canonical(r).as_bytes()),
            )
        })
        .collect();
    goldens::check(
        "results/golden_recover.txt",
        "Golden digests of the X5 recovery suite (FNV-1a over canonical rows), paper scale.",
        &computed,
    );
}

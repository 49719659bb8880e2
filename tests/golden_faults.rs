//! Golden-digest snapshots of the X4 fault-injection suite at full
//! 128-node scale: one digest per (workload, scenario) cell over a
//! canonical rendering of every counter in the row. Any drift in fault
//! handling — retry counts, failover routing, rebuild pacing, write-behind
//! loss accounting — fails here with the cell that moved.
//!
//! Digests live in `results/golden_faults.txt`; regenerate after an
//! intentional model change with `SIO_UPDATE_GOLDENS=1 cargo test`.

mod goldens;

use sio::analysis::experiments::{self, FaultRow};
use sio::apps::{EscatParams, HtfParams, RenderParams};
use sio::core::sddf::fingerprint_bytes;
use sio::paragon::MachineConfig;

/// Canonical, formatting-stable rendering of one suite cell.
fn canonical(r: &FaultRow) -> String {
    format!(
        "wall={:.6} read={:.6} write={:.6} retries={} failovers={} lost={} \
         timeouts={} rebuild_chunks={} rebuilt_mb={:.3} degraded={} \
         dirty_lost={} replayed={}",
        r.wall_secs,
        r.read_secs,
        r.write_secs,
        r.retries,
        r.failovers,
        r.lost_segments,
        r.timeouts,
        r.rebuild_chunks,
        r.rebuilt_mb,
        r.degraded_at_end,
        r.dirty_bytes_lost,
        r.replayed_segments,
    )
}

#[test]
fn fault_suite_matches_goldens() {
    let machine = MachineConfig::paragon_128();
    let rows = experiments::fault_suite_jobs(
        &machine,
        &EscatParams::paper(),
        &RenderParams::paper(),
        &HtfParams::paper(),
        sio::analysis::runner::configured_jobs(),
    );
    assert_eq!(rows.len(), 17, "suite shape changed; goldens need review");
    let computed: Vec<(String, u64)> = rows
        .iter()
        .map(|r| {
            (
                format!("faults-{}-{}", r.workload, r.scenario),
                fingerprint_bytes(canonical(r).as_bytes()),
            )
        })
        .collect();
    goldens::check(
        "results/golden_faults.txt",
        "Golden digests of the X4 fault suite (FNV-1a over canonical rows), paper scale.",
        &computed,
    );
}

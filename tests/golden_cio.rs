//! Golden-digest snapshots of the X6 collective-I/O suite at paper scale:
//! one digest per (workload, nodes, backend) cell over a canonical
//! rendering of the request-shape metrics. Any drift in the two-phase
//! pipeline — extent exchange cost, conforming-partition shape, aggregate
//! request accounting — fails here with the cell that moved.
//!
//! The headline invariants of the experiment are asserted directly too, so
//! a regenerated golden cannot silently encode a regression: collective
//! aggregation must keep buying ≥ 4× larger mean write requests per I/O
//! node than PFS on the interleaved ESCAT/HTF write phases, with the
//! extent-exchange cost visible, while RENDER (gateway-funneled, solo
//! openers) stays byte-identical to PFS in request shape.
//!
//! Digests live in `results/golden_cio.txt`; regenerate after an
//! intentional model change with `SIO_UPDATE_GOLDENS=1 cargo test`.

mod goldens;

use sio::analysis::experiments::{self, CioRow};
use sio::apps::{EscatParams, HtfParams, RenderParams};
use sio::core::sddf::fingerprint_bytes;
use sio::paragon::MachineConfig;

/// Canonical, formatting-stable rendering of one suite cell.
fn canonical(r: &CioRow) -> String {
    format!(
        "wall={:.6} wreq_io={:.6} wmean_kb={:.6} rreq_io={:.6} rmean_kb={:.6} \
         exchange={:.9} collectives={}",
        r.wall_secs,
        r.write_reqs_per_io,
        r.mean_write_kb,
        r.read_reqs_per_io,
        r.mean_read_kb,
        r.exchange_secs,
        r.collectives,
    )
}

#[test]
fn cio_suite_matches_goldens_and_headline_claims() {
    let machine = MachineConfig::paragon_128();
    let rows = experiments::cio_suite_jobs(
        &machine,
        &EscatParams::paper(),
        &RenderParams::paper(),
        &HtfParams::paper(),
        &[64, 128],
        sio::analysis::runner::configured_jobs(),
    );
    assert_eq!(rows.len(), 18, "suite shape changed; goldens need review");

    let get = |w: &str, n: u32, b: &str| -> &CioRow {
        rows.iter()
            .find(|r| r.workload == w && r.nodes == n && r.backend == b)
            .expect("row present")
    };

    // Aggregation headline: on the interleaved shared-file write phases the
    // conforming partition turns each round's per-node records into one
    // large run per I/O node.
    for w in ["escat", "htf-pint"] {
        for n in [64, 128] {
            let pfs = get(w, n, "pfs");
            let cio = get(w, n, "cio");
            assert!(
                cio.mean_write_kb >= 4.0 * pfs.mean_write_kb,
                "{w}@{n}: cio {:.2} KB vs pfs {:.2} KB",
                cio.mean_write_kb,
                pfs.mean_write_kb
            );
            assert!(cio.write_reqs_per_io < pfs.write_reqs_per_io);
            // The exchange is not free — its mesh cost must be visible.
            assert!(cio.exchange_secs > 0.0, "{w}@{n}: no exchange cost");
            assert!(cio.collectives > 0);
        }
    }

    // Control: RENDER funnels all I/O through gateway solo openers, so its
    // collectives are all singletons — no exchange, PFS-identical shape.
    for n in [64, 128] {
        let pfs = get("render", n, "pfs");
        let cio = get("render", n, "cio");
        assert_eq!(cio.collectives, 0);
        assert_eq!(cio.exchange_secs, 0.0);
        assert_eq!(cio.write_reqs_per_io, pfs.write_reqs_per_io);
        assert_eq!(cio.mean_write_kb, pfs.mean_write_kb);
    }

    let computed: Vec<(String, u64)> = rows
        .iter()
        .map(|r| {
            (
                format!("cio-{}-{}-{}", r.workload, r.nodes, r.backend),
                fingerprint_bytes(canonical(r).as_bytes()),
            )
        })
        .collect();
    goldens::check(
        "results/golden_cio.txt",
        "Golden digests of the X6 collective-I/O suite (FNV-1a over canonical rows), paper scale.",
        &computed,
    );
}

//! Application-mix interference (§8's "workload mixes").
//!
//! Runs ESCAT and the HTF self-consistent-field phase side by side on one
//! machine — disjoint compute nodes, shared metadata server, I/O nodes, and
//! disks — and compares each application's I/O time against its isolated
//! run, at the full CCSF I/O configuration and at a constrained one.
//!
//! Run with: `cargo run --release --example workload_mix`

use sio::analysis::experiments::workload_mix_jobs;
use sio::analysis::runner;
use sio::apps::{EscatParams, HtfParams};
use sio::paragon::MachineConfig;

fn main() {
    let machine = MachineConfig::paragon_128();
    println!("mixing ESCAT (128 nodes) with HTF-pscf (128 nodes) on shared I/O nodes...\n");
    let rows = workload_mix_jobs(
        &machine,
        &EscatParams::paper(),
        &HtfParams::paper(),
        runner::configured_jobs(),
    );
    println!(
        "{:<10} {:>10} {:>14} {:>12} {:>10}",
        "app", "I/O nodes", "isolated (s)", "mixed (s)", "inflation"
    );
    for r in &rows {
        println!(
            "{:<10} {:>10} {:>14.1} {:>12.1} {:>9.2}x",
            r.app,
            r.io_nodes,
            r.isolated_io_secs,
            r.mixed_io_secs,
            r.inflation()
        );
    }
    println!(
        "\nAt the CCSF configuration the arrays have headroom; constraining the\n\
         I/O nodes pushes the mix into the contention regime — the paper's point\n\
         that evaluating file systems needs application mixes, not just kernels."
    );
}

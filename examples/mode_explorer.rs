//! Explore the six PFS access modes (§3.2) on one workload.
//!
//! Sixteen synchronized nodes append 2 KB records through each mode; the
//! table shows how the coordination semantics translate into cost — the
//! trade-offs behind the design decisions §5.2 and §6.2 discuss (ESCAT
//! choosing M_UNIX + computed seeks; RENDER rejecting M_RECORD).
//!
//! Run with: `cargo run --release --example mode_explorer`

use sio::analysis::experiments::mode_ablation_jobs;
use sio::analysis::runner;
use sio::apps::workload::{run_workload, sequential_read_kernel, Backend};
use sio::paragon::MachineConfig;
use sio::pfs::AccessMode;

fn main() {
    let machine = MachineConfig::tiny(16, 4);

    println!("16 synchronized writers, 8 x 2 KB records each:\n");
    println!(
        "{:<10} {:>14} {:>12}   semantics",
        "mode", "write time", "wall"
    );
    for row in mode_ablation_jobs(&machine, 16, 8, 2048, runner::configured_jobs()) {
        let semantics = match row.mode {
            AccessMode::MUnix => "independent ptr; atomic writes serialize",
            AccessMode::MLog => "shared ptr, FCFS token",
            AccessMode::MSync => "shared ptr, node-number order",
            AccessMode::MRecord => "fixed records, node-order layout",
            AccessMode::MGlobal => "collective (read-oriented)",
            AccessMode::MAsync => "independent, no atomicity: cheapest",
        };
        println!(
            "{:<10} {:>13.2}s {:>11.2}s   {}",
            row.mode.name(),
            row.write_secs,
            row.wall_secs,
            semantics
        );
    }

    // M_GLOBAL: all nodes reading the same data becomes ONE physical I/O.
    println!("\nM_GLOBAL collective read (16 nodes each read the same 4 x 1 MB):");
    for mode in [AccessMode::MUnix, AccessMode::MGlobal] {
        let mut w = sequential_read_kernel(4, 1 << 20, mode);
        let script = w.scripts[0].clone();
        w.scripts = (0..16).map(|_| script.clone()).collect();
        let out = run_workload(&machine, &w, &Backend::Pfs);
        println!(
            "  {:<9} wall {:.3}s  ({} logical reads traced)",
            mode.name(),
            out.wall_secs(),
            out.trace.of_op(sio::core::IoOp::Read).count()
        );
    }
    println!("(M_GLOBAL coalesces each wave of sixteen reads into one disk access + broadcast)");
}

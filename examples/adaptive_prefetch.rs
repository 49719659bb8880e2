//! The paper's closing direction (§10): adaptive prefetching that learns
//! access patterns. This example runs four access patterns — sequential,
//! strided, random, cyclic — against three PPFS policies and shows that
//! (a) no fixed policy wins everywhere, and (b) the classifier-driven
//! adaptive policy tracks the best fixed policy on each pattern.
//!
//! Run with: `cargo run --release --example adaptive_prefetch`

use sio::analysis::experiments::policy_matrix_jobs;
use sio::analysis::runner;
use sio::apps::workload::{run_workload, sequential_read_kernel, Backend};
use sio::paragon::MachineConfig;
use sio::pfs::AccessMode;
use sio::ppfs::PolicyConfig;

fn main() {
    let machine = MachineConfig::tiny(8, 4);

    println!("pattern x policy matrix (total read node time, lower is better):\n");
    let rows = policy_matrix_jobs(&machine, runner::configured_jobs());
    println!(
        "{:<12} {:>12} {:>12} {:>12}",
        "pattern", "none", "readahead4", "adaptive4"
    );
    for kernel in ["sequential", "strided", "random", "cyclic"] {
        let t = |p: &str| {
            rows.iter()
                .find(|r| r.kernel == kernel && r.policy == p)
                .map(|r| r.read_secs)
                .unwrap_or(f64::NAN)
        };
        println!(
            "{:<12} {:>11.3}s {:>11.3}s {:>11.3}s",
            kernel,
            t("none"),
            t("readahead4"),
            t("adaptive4")
        );
    }

    // Peek inside the adaptive prefetcher: what did it infer?
    println!("\nclassifier-driven prefetch on a sequential scan:");
    let w = sequential_read_kernel(32, 65536, AccessMode::MUnix);
    let out = run_workload(&machine, &w, &Backend::Ppfs(PolicyConfig::adaptive(4)));
    let stats = out.ppfs_stats.unwrap();
    println!(
        "  {} reads: {} whole-read cache hits, {} blocks prefetched",
        32, stats.reads_hit, stats.prefetched_blocks
    );
    println!("  (prefetch engages only after the warm-up window classifies the stream)");
}

//! # sio-bench — benchmark harness
//!
//! Criterion benchmarks, one group per reproduced artifact plus micro
//! benchmarks of the hot substrate paths. Four targets:
//!
//! * `tables` — regenerates each paper table at full 128-node scale per
//!   iteration (T1/T2, T3/T4, T5/T6) and checks the headline counts;
//! * `ablations` — the experiment-index ablations (X1 PPFS, A1 modes,
//!   A2 policy matrix, A3 queue discipline, A4 RAID degraded mode);
//! * `micro` — engine event throughput, stripe mapping, block cache,
//!   write-behind buffer, classifier/predictor, and SDDF codec.
//! * `reference` — a fixed discrete-event kernel that uses no simulator
//!   crate: the host-speed yardstick `scripts/bench_sim.sh` scales the
//!   engine number by.
//!
//! Run with `cargo bench --workspace`.

use paragon_sim::MachineConfig;

/// Apply the `SIO_JOBS` sweep-worker knob before benching and return the
/// resulting worker count. Criterion owns the CLI, so the environment
/// variable is the bench-side equivalent of `repro --jobs N`; every bench
/// `main` calls this once so all experiment sweeps fan out over the same
/// bounded pool ([`sio_analysis::runner`]). Worker count changes wall time
/// only — sweep output is deterministic.
pub fn configure_sweep_jobs() -> usize {
    let jobs = sio_analysis::runner::default_jobs();
    sio_analysis::runner::set_jobs(jobs);
    eprintln!("[sio-bench] sweep workers: {jobs} (override with SIO_JOBS=N)");
    jobs
}

/// The machine every table bench runs on (the paper's 128-node partition).
pub fn bench_machine() -> MachineConfig {
    MachineConfig::paragon_128()
}

/// A smaller machine for ablation benches.
pub fn small_machine() -> MachineConfig {
    MachineConfig::tiny(16, 4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machines_build() {
        assert_eq!(bench_machine().compute_nodes, 128);
        assert_eq!(small_machine().compute_nodes, 16);
    }
}

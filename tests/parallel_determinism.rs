//! The parallel sweep executor must be invisible in the output: every sweep
//! yields identical rows for 1, 2, and 8 workers, and concurrent
//! `run_workload` calls never cross-contaminate each other's traces (each
//! run owns its own `Tracer`; the shared-buffer `Mutex` is per-run).

use sio::analysis::{experiments, recovery, runner};
use sio::apps::workload::{run_workload, Backend, Workload};
use sio::apps::{EscatParams, HtfParams, RenderParams};
use sio::core::sddf;
use sio::paragon::MachineConfig;

fn m() -> MachineConfig {
    MachineConfig::tiny(8, 4)
}

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Run `sweep` at 1/2/8 workers and require identical rows.
fn assert_jobs_invariant<R: PartialEq + std::fmt::Debug>(
    name: &str,
    sweep: impl Fn(usize) -> Vec<R>,
) {
    let baseline = sweep(1);
    for jobs in &WORKER_COUNTS[1..] {
        assert_eq!(
            sweep(*jobs),
            baseline,
            "{name}: jobs={jobs} diverged from serial"
        );
    }
}

#[test]
fn scaling_sweeps_are_worker_count_invariant() {
    let machine = m();
    assert_jobs_invariant("escat_scaling", |jobs| {
        experiments::escat_scaling_jobs(&machine, &[4, 8, 16], jobs)
    });
    let params = EscatParams::small(8, 6);
    assert_jobs_invariant("escat_growth", |jobs| {
        experiments::escat_growth_jobs(&machine, &params, &[1, 2, 4], jobs)
    });
}

#[test]
fn ablation_sweeps_are_worker_count_invariant() {
    let machine = m();
    assert_jobs_invariant("mode_ablation", |jobs| {
        experiments::mode_ablation_jobs(&machine, 4, 4, 2048, jobs)
    });
    assert_jobs_invariant("policy_matrix", |jobs| {
        experiments::policy_matrix_jobs(&machine, jobs)
    });
    assert_jobs_invariant("queue_discipline", |jobs| {
        experiments::queue_discipline_jobs(&machine, 4, jobs)
    });
    assert_jobs_invariant("two_level_buffering", |jobs| {
        experiments::two_level_buffering_jobs(&machine, 4, jobs)
    });
    assert_jobs_invariant("raid_degraded", |jobs| {
        experiments::raid_degraded_jobs(&machine, jobs)
    });
}

#[test]
fn workload_mix_is_worker_count_invariant() {
    let machine = m();
    let ep = EscatParams::small(4, 5);
    let hp = HtfParams::small(4);
    assert_jobs_invariant("workload_mix", |jobs| {
        experiments::workload_mix_jobs(&machine, &ep, &hp, jobs)
    });
}

/// The X4 fault suite fans its 17 scenario cells out through the same
/// executor; injected faults (timed rebuilds, stalls, crash replay) must
/// not introduce any worker-count dependence.
#[test]
fn fault_suite_is_worker_count_invariant() {
    let machine = m();
    let ep = EscatParams::small(4, 4);
    let rp = RenderParams::small(4, 2);
    let hp = HtfParams::small(4);
    assert_jobs_invariant("fault_suite", |jobs| {
        experiments::fault_suite_jobs(&machine, &ep, &rp, &hp, jobs)
    });
}

/// The X6 collective-I/O suite fans its workload × scale × backend grid
/// out through the same executor; the two-phase exchange and aggregated
/// dispatch must not introduce any worker-count dependence.
#[test]
fn cio_suite_is_worker_count_invariant() {
    let machine = m();
    let ep = EscatParams::small(8, 4);
    let rp = RenderParams::small(8, 2);
    let hp = HtfParams::small(8);
    assert_jobs_invariant("cio_suite", |jobs| {
        experiments::cio_suite_jobs(&machine, &ep, &rp, &hp, &[4, 8], jobs)
    });
}

/// The X5 recovery suite layers crash/resume pairs and a derived durable
/// cut on top of the executor; the three fan-out phases must stay
/// worker-count invariant end to end.
#[test]
fn recover_suite_is_worker_count_invariant() {
    let machine = m();
    let ep = EscatParams::small(4, 4);
    let rp = RenderParams::small(4, 2);
    let hp = HtfParams::small(4);
    assert_jobs_invariant("recover_suite", |jobs| {
        recovery::recover_suite_scenarios_jobs(&machine, &ep, &rp, &hp, None, jobs)
    });
}

/// Interleave many concurrent `run_workload` calls for *different*
/// configurations and require each to match its isolated serial run —
/// concurrent runs must never leak events into each other's trace buffers.
#[test]
fn interleaved_runs_never_cross_contaminate() {
    let machine = m();
    let configs: Vec<(&'static str, Workload, Backend)> = vec![
        ("escat", EscatParams::small(8, 6).workload(), Backend::Pfs),
        ("render", RenderParams::small(8, 4).workload(), Backend::Pfs),
        (
            "htf-pscf",
            HtfParams::small(8).pscf_workload(),
            Backend::Pfs,
        ),
        (
            "htf-pargos",
            HtfParams::small(8).pargos_workload(),
            Backend::Pfs,
        ),
    ];

    // Isolated baselines, one run at a time.
    let baselines: Vec<(u64, usize)> = configs
        .iter()
        .map(|(_, w, b)| {
            let out = run_workload(&machine, w, b);
            (sddf::fingerprint(&out.trace), out.trace.len())
        })
        .collect();

    // Now run three interleaved copies of every config at once.
    let jobs: Vec<usize> = (0..configs.len() * 3).collect();
    let outs = runner::par_map_jobs(8, jobs, |_, slot| {
        let (_, w, b) = &configs[slot % configs.len()];
        let out = run_workload(&machine, w, b);
        (sddf::fingerprint(&out.trace), out.trace.len())
    });

    for (slot, got) in outs.iter().enumerate() {
        let idx = slot % configs.len();
        assert_eq!(
            *got, baselines[idx],
            "concurrent run of {} (slot {slot}) diverged from its isolated baseline",
            configs[idx].0
        );
    }
}

//! End-to-end crash/recovery: a checkpointed application killed mid-run
//! restarts from its last durable checkpoint inside the same deterministic
//! simulation, and the restart beats rerunning from scratch whenever any
//! epoch was durable at the crash.

use sio::analysis::recovery::{self, durable_cut, lost_work_bytes};
use sio::apps::workload::{parallel_write_kernel, run_workload, run_workload_crashable, Backend};
use sio::apps::{EscatParams, HtfParams, RenderParams};
use sio::core::IoOp;
use sio::paragon::{FaultSchedule, MachineConfig, SimTime};
use sio::ppfs::PolicyConfig;

/// A crashed paper-scale HTF (pargos) run restarts from its last durable
/// checkpoint, and crash-instant + resumed wall is strictly less than
/// crash-instant + full rerun — the checkpoint bought real time.
#[test]
fn crashed_htf_run_restarts_from_last_durable_checkpoint() {
    let machine = MachineConfig::paragon_128();
    let htf = HtfParams::paper();
    let backend = Backend::Ppfs(PolicyConfig::pargos_tuned());
    let interval = htf.records_of(0).div_ceil(6).max(1);

    let cw = htf.pargos_workload_checkpointed(interval, 0);
    let healthy = run_workload_crashable(
        &machine,
        &cw.workload,
        &backend,
        None,
        None,
        &cw.plan.covered,
    );
    let wall = healthy.report.wall;
    assert!(healthy.report.clean());

    // Crash at 70% of the healthy checkpointed wall.
    let t_crash = SimTime(wall.nanos() * 7 / 10);
    let crashed = run_workload_crashable(
        &machine,
        &cw.workload,
        &backend,
        None,
        Some(t_crash),
        &cw.plan.covered,
    );

    let units: Vec<u32> = (0..htf.nodes).map(|n| htf.records_of(n)).collect();
    let cut = durable_cut(&crashed.trace, &cw.plan, &units, t_crash);
    assert!(
        cut.epoch > 0 && cut.epoch < cw.plan.epochs,
        "crash at 70% should land between the first and last epoch, got {}/{}",
        cut.epoch,
        cw.plan.epochs
    );
    assert!(cut.commits_valid > 0);

    // Restart from the durable cut: the resumed run redoes only the tail.
    let resumed = htf.pargos_workload_checkpointed(interval, cut.epoch);
    let out = run_workload_crashable(
        &machine,
        &resumed.workload,
        &backend,
        None,
        None,
        &resumed.plan.covered,
    );
    assert!(out.report.clean());

    let ttr = t_crash.nanos() + out.report.wall.nanos();
    let rerun = t_crash.nanos() + wall.nanos();
    assert!(
        ttr < rerun,
        "time-to-recovery {ttr} must beat restart-from-scratch {rerun}"
    );

    // The resumed run skips the recovered records: it writes strictly fewer
    // covered-file bytes than the full run.
    let covered_write_bytes = |tr: &sio::core::Trace| -> u64 {
        tr.events()
            .iter()
            .filter(|e| e.op == IoOp::Write && cw.plan.covered.contains(&e.file))
            .map(|e| e.bytes)
            .sum()
    };
    assert!(
        covered_write_bytes(&out.trace) < covered_write_bytes(&healthy.trace),
        "resumed run should redo only the post-checkpoint tail"
    );
}

/// Same end-to-end shape for ESCAT on PFS: crash, derive the cut, resume,
/// and the lost-work accounting stays within the crashed run's write volume.
#[test]
fn crashed_escat_run_recovers_on_pfs() {
    let machine = MachineConfig::tiny(8, 4);
    let p = EscatParams::small(8, 8);
    let cw = p.workload_checkpointed(2, 0);
    let healthy = run_workload_crashable(
        &machine,
        &cw.workload,
        &Backend::Pfs,
        None,
        None,
        &cw.plan.covered,
    );
    let wall = healthy.report.wall;

    let t_crash = SimTime(wall.nanos() * 7 / 10);
    let crashed = run_workload_crashable(
        &machine,
        &cw.workload,
        &Backend::Pfs,
        None,
        Some(t_crash),
        &cw.plan.covered,
    );
    let units = vec![p.iters; p.nodes as usize];
    let cut = durable_cut(&crashed.trace, &cw.plan, &units, t_crash);
    assert!(cut.epoch > 0, "no durable epoch at 70% of the wall");

    let lost = lost_work_bytes(&crashed.trace, &cw.plan, &units, cut.epoch);
    let total_covered: u64 = crashed
        .trace
        .events()
        .iter()
        .filter(|e| e.op == IoOp::Write && cw.plan.covered.contains(&e.file))
        .map(|e| e.bytes)
        .sum();
    assert!(lost <= total_covered, "lost work exceeds written volume");

    let resumed = p.workload_checkpointed(2, cut.epoch);
    let out = run_workload_crashable(
        &machine,
        &resumed.workload,
        &Backend::Pfs,
        None,
        None,
        &resumed.plan.covered,
    );
    assert!(out.report.clean());
    assert!(
        out.report.wall < wall,
        "resume from epoch {} should be shorter than the full run",
        cut.epoch
    );
}

/// Suite-level invariants at paper scale: epochs bounded, recovery never
/// loses to rerun, and a durable epoch strictly beats rerunning.
#[test]
fn recover_suite_rows_are_internally_consistent() {
    let machine = MachineConfig::paragon_128();
    let rows = recovery::recover_suite_scenarios_jobs(
        &machine,
        &EscatParams::paper(),
        &RenderParams::paper(),
        &HtfParams::paper(),
        None,
        4,
    );
    assert_eq!(rows.len(), 15, "suite shape changed");
    let mut some_epoch = false;
    for r in &rows {
        assert!(
            r.durable_epoch <= r.epochs,
            "{}: cut past the end",
            r.scenario
        );
        assert!(
            r.total_secs <= r.rerun_secs + 1e-9,
            "{} {} iv={}: recovery lost to rerun",
            r.workload,
            r.scenario,
            r.interval
        );
        if r.durable_epoch > 0 {
            some_epoch = true;
            assert!(
                r.saved_secs > 0.0,
                "{} {} iv={}: durable epoch {} saved nothing",
                r.workload,
                r.scenario,
                r.interval,
                r.durable_epoch
            );
        }
    }
    assert!(
        some_epoch,
        "no cell recovered any epoch — scenarios mistuned"
    );
}

/// The PPFS dirty-loss split: write-behind data lost to an I/O-node crash
/// on a checkpoint-covered file counts in both `dirty_bytes_lost` and
/// `dirty_bytes_lost_checkpointed`; with no coverage the split stays zero.
#[test]
fn dirty_loss_split_tracks_checkpoint_coverage() {
    let machine = MachineConfig::tiny(8, 4);
    let w = parallel_write_kernel(8, 48, 65_536, sio::pfs::AccessMode::MUnix);
    let policy = PolicyConfig::escat_tuned();
    let healthy = run_workload(&machine, &w, &Backend::Ppfs(policy));
    let wall = healthy.report.wall.nanos();
    let mut s = FaultSchedule::new();
    s.node_crash(SimTime(wall * 3 / 4), 0)
        .node_recover(SimTime(wall * 2), 0);

    // Kernel writes go to file 0. Covered: the split matches the total.
    let covered =
        run_workload_crashable(&machine, &w, &Backend::Ppfs(policy), Some(&s), None, &[0]);
    let cs = covered.ppfs_stats.expect("ppfs stats");
    assert!(cs.dirty_bytes_lost > 0, "crash caught no write-behind data");
    assert_eq!(
        cs.dirty_bytes_lost_checkpointed, cs.dirty_bytes_lost,
        "every lost byte was on the covered file"
    );

    // Uncovered: same loss, empty split.
    let plain = run_workload_crashable(&machine, &w, &Backend::Ppfs(policy), Some(&s), None, &[]);
    let ps = plain.ppfs_stats.expect("ppfs stats");
    assert_eq!(ps.dirty_bytes_lost, cs.dirty_bytes_lost);
    assert_eq!(ps.dirty_bytes_lost_checkpointed, 0);
}

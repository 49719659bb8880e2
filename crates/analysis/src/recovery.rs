//! X5: crash/recovery orchestration — restart a crashed application from
//! its last durable checkpoint inside the same deterministic simulation.
//!
//! The orchestrator runs a checkpointed workload, kills it at a chosen
//! instant (`Engine::run_until`), derives the **durable epoch** from the
//! crashed run's trace by replaying every checkpoint commit through
//! `CheckpointStore::try_commit` (a commit whose `sync` had not completed
//! leaves a torn slot whose prefix fails validation), builds the resumed
//! workload from that epoch, and runs it to completion. Reported per cell:
//! time-to-recovery vs rerunning from scratch, lost-work bytes, and the
//! checkpoint overhead against the uncheckpointed wall.
//!
//! Everything is a pure function of the configuration: the suite is
//! worker-count invariant and golden-digested (`results/golden_recover.txt`).

use crate::cells::{run_checkpointed, Apps, Stage};
use crate::runner;
use paragon_sim::{FaultSchedule, MachineConfig, SimTime};
use sio_apps::checkpoint::CheckpointPlan;
use sio_apps::workload::{run_workload, Backend};
use sio_apps::{EscatParams, HtfParams, RenderParams};
use sio_core::checkpoint::CheckpointStore;
use sio_core::event::NS_PER_SEC;
use sio_core::{IoEvent, IoOp, Trace};
use sio_ppfs::PolicyConfig;

/// What the post-crash analysis recovered from the checkpoint file.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableCut {
    /// Last epoch boundary durable on every participating writer (0 = no
    /// usable checkpoint; the resumed run starts from scratch).
    pub epoch: u32,
    /// Commits that validated and advanced a slot.
    pub commits_valid: u32,
    /// Torn commits rejected by checksum/length validation.
    pub commits_torn: u32,
}

/// Checkpoint commits of one writer, in commit order: the `j`-th completed
/// checkpoint-file write pairs with the `j`-th completed checkpoint-file
/// sync. A write past the sync count was still unsynced at the crash.
pub(crate) fn commit_events<'a>(
    trace: &'a Trace,
    plan: &CheckpointPlan,
    node: u32,
) -> (Vec<&'a IoEvent>, Vec<&'a IoEvent>) {
    let mut writes: Vec<&IoEvent> = trace
        .events()
        .iter()
        .filter(|e| e.file == plan.file && e.node == node && e.op == IoOp::Write)
        .collect();
    writes.sort_by_key(|e| (e.start, e.offset));
    let mut syncs: Vec<&IoEvent> = trace
        .events()
        .iter()
        .filter(|e| e.file == plan.file && e.node == node && e.op == IoOp::Flush)
        .collect();
    syncs.sort_by_key(|e| e.start);
    (writes, syncs)
}

/// Final boundary epoch of a writer with `units` work units: the writer
/// stops checkpointing once its own work is covered, so a fully-committed
/// short writer never caps the global cut.
fn final_boundary(units: u32, interval: u32) -> u32 {
    units.div_ceil(interval)
}

/// Derive the durable epoch from a crashed run's trace.
///
/// Per writer, each completed checkpoint-file write is reconstructed
/// (`plan.image(..).encode()`) and fed through [`CheckpointStore`]: synced
/// commits arrive whole and advance the slot; a commit whose sync was still
/// outstanding at `crash` leaves a torn slot — its on-media prefix is
/// modeled as the elapsed fraction of a nominal persistence window of twice
/// the write's span, and validation rejects it. The global cut is the
/// minimum committed epoch across writers, with writers that committed
/// their own final boundary treated as complete.
pub fn durable_cut(
    trace: &Trace,
    plan: &CheckpointPlan,
    units: &[u32],
    crash: SimTime,
) -> DurableCut {
    walk_commits(trace, plan, units, |w, synced, full| {
        if synced {
            return Some(full);
        }
        // Unsynced: the write-behind path may have persisted only a
        // prefix by the crash instant.
        let span = (w.end - w.start).max(1);
        let elapsed = crash.nanos().saturating_sub(w.start);
        let len = ((full.len() as u64).saturating_mul(elapsed) / (2 * span))
            .min(full.len() as u64 - 1) as usize;
        Some(full[..len].to_vec())
    })
}

/// Derive the durable epoch from a crashed run under the **burst-log
/// tier** (DESIGN.md §5): a checkpoint record is durable iff its log frame
/// validates — the append completed by the crash, and the log device
/// commits whole checksummed frames, so in-flight appends never reach the
/// trace and traced appends never tear — **or** its drain into the wrapped
/// backend completed. Drained records were necessarily appended first, so
/// the traced-append test subsumes the union; unlike [`durable_cut`], a
/// commit does not need its `Sync` to have completed (the byte-level
/// frame-validation rule is exercised directly by the
/// `checkpoint_atomicity` proptests over the blog crate's `BurstLog`).
pub fn durable_cut_logged(
    trace: &Trace,
    plan: &CheckpointPlan,
    units: &[u32],
    crash: SimTime,
) -> DurableCut {
    // Appends that completed by the crash are whole frames; a crashed
    // engine abandons later completions, so anything else never made the
    // trace.
    walk_commits(trace, plan, units, |w, _, full| {
        (w.end <= crash.nanos()).then_some(full)
    })
}

/// The durable-cut walk both cut rules share. Per writer, every completed
/// checkpoint-file write is reconstructed as its encoded image and handed
/// to `on_media` with whether its sync completed; what that returns is
/// committed to the writer's slot (`None` = nothing reached the media, a
/// torn commit). The global cut is the minimum committed epoch across
/// writers, with writers that committed their own final boundary treated
/// as complete.
fn walk_commits(
    trace: &Trace,
    plan: &CheckpointPlan,
    units: &[u32],
    on_media: impl Fn(&IoEvent, bool, Vec<u8>) -> Option<Vec<u8>>,
) -> DurableCut {
    assert_eq!(
        units.len(),
        plan.nodes as usize,
        "one unit count per writer"
    );
    let mut store = CheckpointStore::new();
    let slots = plan.slot_names();
    let (mut valid, mut torn) = (0u32, 0u32);
    let mut committed = vec![0u32; plan.nodes as usize];
    for n in 0..plan.nodes {
        let (writes, syncs) = commit_events(trace, plan, n);
        for (j, w) in writes.iter().enumerate() {
            let slot_idx = w.offset / plan.record_bytes;
            let epoch = ((slot_idx - n as u64) / plan.nodes as u64) as u32 + 1;
            let full = plan.image(n, epoch).encode();
            let Some(bytes) = on_media(w, j < syncs.len(), full) else {
                torn += 1;
                continue;
            };
            match store.try_commit(&slots[n as usize], &bytes) {
                Ok(e) => {
                    committed[n as usize] = e;
                    valid += 1;
                }
                Err(_) => torn += 1,
            }
        }
    }
    let epoch = (0..plan.nodes as usize)
        .map(|n| {
            if committed[n] >= final_boundary(units[n], plan.interval) {
                plan.epochs
            } else {
                committed[n]
            }
        })
        .min()
        .unwrap_or(0);
    DurableCut {
        epoch,
        commits_valid: valid,
        commits_torn: torn,
    }
}

/// Bytes of covered-file writes that landed after the durable cut: work
/// the resumed run has to redo. Counted per writer from the instant its
/// own cut-boundary sync completed (completed writes only — data still in
/// flight at the crash never reached the trace, so this is a lower bound).
pub fn lost_work_bytes(trace: &Trace, plan: &CheckpointPlan, units: &[u32], cut: u32) -> u64 {
    let mut lost = 0u64;
    for n in 0..plan.nodes {
        let (_, syncs) = commit_events(trace, plan, n);
        let eff = cut.min(final_boundary(units[n as usize], plan.interval));
        let t_n = if eff == 0 {
            0
        } else {
            syncs.get(eff as usize - 1).map(|s| s.end).unwrap_or(0)
        };
        lost += trace
            .events()
            .iter()
            .filter(|e| {
                e.node == n
                    && e.op == IoOp::Write
                    && plan.covered.contains(&e.file)
                    && e.start >= t_n
            })
            .map(|e| e.bytes)
            .sum::<u64>();
    }
    lost
}

/// One cell of the X5 recovery suite.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoverRow {
    /// Workload label (`escat`, `htf-pargos`, `render`).
    pub workload: String,
    /// Checkpoint interval, work units per epoch.
    pub interval: u32,
    /// Crash scenario (`crash30`, `crash70`, `crash50-ionode`).
    pub scenario: String,
    /// Durable epoch recovered from the crashed run's checkpoint file.
    pub durable_epoch: u32,
    /// Epoch boundaries in a full run.
    pub epochs: u32,
    /// Commits that validated in the post-crash replay.
    pub commits_valid: u32,
    /// Torn commits rejected by validation.
    pub commits_torn: u32,
    /// Healthy wall of the checkpointed run, seconds.
    pub ckpt_wall_secs: f64,
    /// Checkpoint overhead vs the uncheckpointed healthy wall, percent.
    pub overhead_pct: f64,
    /// Crash instant, seconds into the run.
    pub crash_secs: f64,
    /// Wall of the resumed run, seconds.
    pub recovery_secs: f64,
    /// Time-to-recovery: crash instant + resumed wall, seconds.
    pub total_secs: f64,
    /// Restart-from-scratch baseline: crash instant + full checkpointed
    /// wall, seconds.
    pub rerun_secs: f64,
    /// `rerun_secs - total_secs`: what the checkpoints bought, seconds.
    pub saved_secs: f64,
    /// Covered-file bytes written after the durable cut (redone work), MB.
    pub lost_work_mb: f64,
    /// Write-behind bytes lost to an I/O-node crash that checkpoints had
    /// already made redundant (PPFS cells only).
    pub dirty_lost_ckpt: u64,
}

const WORKLOADS: [&str; 3] = ["escat", "htf-pargos", "render"];
const SCENARIOS: [&str; 3] = ["crash30", "crash70", "crash50-ionode"];

/// Crash fraction and optional I/O-node fault schedule for a scenario.
/// Times are relative to the healthy checkpointed wall so the windows land
/// inside the run at any scale. `crash@F` (0 < F < 1) crashes at a custom
/// fraction with healthy I/O nodes.
pub fn recover_scenario(name: &str, ckpt_wall: SimTime) -> (f64, Option<FaultSchedule>) {
    let wall = ckpt_wall.nanos().max(1);
    match name {
        "crash30" => (0.30, None),
        "crash70" => (0.70, None),
        // I/O node 0 dies at 35 % and comes back at 45 %; the application
        // itself crashes at 50 %. Write-behind data caught in flight is
        // lost — the dirty-loss accounting splits it into "covered by a
        // checkpoint" vs genuinely lost work.
        "crash50-ionode" => {
            let mut s = FaultSchedule::new();
            s.node_crash(SimTime(wall * 35 / 100), 0);
            s.node_recover(SimTime(wall * 45 / 100), 0);
            (0.50, Some(s))
        }
        other => {
            if let Some(f) = other
                .strip_prefix("crash@")
                .and_then(|s| s.parse::<f64>().ok())
            {
                // Half-open (0, 1]: crashing exactly at the healthy wall is
                // a legal boundary case (nothing is lost, recovery is pure
                // detection + replay), crashing at or before 0 is not.
                if f > 0.0 && f <= 1.0 {
                    return (f, None);
                }
            }
            panic!("unknown recover scenario '{other}'")
        }
    }
}

/// Checkpoint intervals swept per workload, derived from the work-unit
/// count so the suite keeps a sensible epoch count at any scale.
fn intervals_for(units: u32, wname: &str) -> Vec<u32> {
    if wname == "render" {
        vec![units.div_ceil(4).max(1)]
    } else {
        vec![units.div_ceil(6).max(1), units.div_ceil(3).max(1)]
    }
}

/// Run the X5 recovery suite on `jobs` workers. `crash_frac` replaces the
/// canned scenarios with one `crash@F` cell (`repro recover --crash-frac`).
///
/// Three fan-out phases: plain healthy walls (the overhead baseline),
/// checkpointed healthy walls (the crash-fraction basis and rerun
/// baseline), then every crash-and-resume cell. Rows come back in
/// canonical order — workload × interval × scenario — and are worker-count
/// invariant.
pub fn recover_suite_scenarios_jobs(
    machine: &MachineConfig,
    escat: &EscatParams,
    render: &RenderParams,
    htf: &HtfParams,
    crash_frac: Option<f64>,
    jobs: usize,
) -> Vec<RecoverRow> {
    let apps = Apps { escat, render, htf };
    let scenarios: Vec<String> = match crash_frac {
        Some(f) => vec![format!("crash@{f}")],
        None => SCENARIOS.iter().map(|s| s.to_string()).collect(),
    };
    let backend_of = |wname: &str| -> Backend {
        match wname {
            "htf-pargos" => Backend::Ppfs(PolicyConfig::pargos_tuned()),
            _ => Backend::Pfs,
        }
    };

    let mut cells: Vec<(&str, u32)> = Vec::new();
    for w in WORKLOADS {
        for iv in intervals_for(apps.units(w)[0], w) {
            cells.push((w, iv));
        }
    }

    // Phase 1: uncheckpointed healthy walls (overhead baseline).
    let plain_walls = Stage::run(jobs, WORKLOADS, |wname| {
        run_workload(machine, &apps.plain(wname), &backend_of(wname)).wall_secs()
    });

    // Phase 2: checkpointed healthy walls per (workload, interval) cell.
    let ckpt_walls = Stage::run(jobs, cells.iter().copied(), |(wname, iv)| {
        let cw = apps.checkpointed(wname, iv, 0);
        run_checkpointed(machine, &cw, &backend_of(wname), None, None)
            .report
            .wall
    });

    // Phase 3: crash, derive the durable cut, resume.
    let mut cases: Vec<((&str, u32), String)> = Vec::new();
    for &cell in &cells {
        for s in &scenarios {
            cases.push((cell, s.clone()));
        }
    }
    runner::par_map_jobs(jobs, cases, |_, ((wname, iv), scenario)| {
        let wall = *ckpt_walls.get(&(wname, iv));
        let (frac, io_faults) = recover_scenario(&scenario, wall);
        let t_crash = SimTime((wall.nanos() as f64 * frac) as u64);
        let run = apps.crash_and_resume(
            machine,
            wname,
            iv,
            &backend_of(wname),
            io_faults.as_ref(),
            t_crash,
        );

        let ckpt_secs = wall.nanos() as f64 / NS_PER_SEC;
        let crash_secs = t_crash.nanos() as f64 / NS_PER_SEC;
        let recovery_secs = run.resumed.report.wall.nanos() as f64 / NS_PER_SEC;
        let plain = *plain_walls.get(&wname);
        RecoverRow {
            workload: wname.to_string(),
            interval: iv,
            scenario,
            durable_epoch: run.cut.epoch,
            epochs: run.epochs,
            commits_valid: run.cut.commits_valid,
            commits_torn: run.cut.commits_torn,
            ckpt_wall_secs: ckpt_secs,
            overhead_pct: (ckpt_secs - plain) / plain.max(f64::EPSILON) * 100.0,
            crash_secs,
            recovery_secs,
            total_secs: crash_secs + recovery_secs,
            rerun_secs: crash_secs + ckpt_secs,
            saved_secs: ckpt_secs - recovery_secs,
            lost_work_mb: run.lost_bytes as f64 / 1e6,
            dirty_lost_ckpt: run
                .crashed
                .ppfs_stats
                .map(|s| s.dirty_bytes_lost_checkpointed)
                .unwrap_or(0),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_sim::MachineConfig;
    use sio_apps::workload::run_workload_crashable;

    #[test]
    fn durable_cut_of_healthy_full_run_is_final_epoch() {
        let p = EscatParams::small(4, 6);
        let cw = p.workload_checkpointed(2, 0);
        let out = run_workload_crashable(
            &MachineConfig::tiny(4, 2),
            &cw.workload,
            &Backend::Pfs,
            None,
            None,
            &cw.plan.covered,
        );
        let units = vec![p.iters; p.nodes as usize];
        let cut = durable_cut(&out.trace, &cw.plan, &units, out.report.wall);
        assert_eq!(cut.epoch, cw.plan.epochs);
        assert_eq!(cut.commits_torn, 0);
        assert_eq!(cut.commits_valid, cw.plan.epochs * p.nodes);
        assert_eq!(lost_work_bytes(&out.trace, &cw.plan, &units, cut.epoch), 0);
    }

    #[test]
    fn crash_before_first_commit_recovers_nothing() {
        let p = EscatParams::small(4, 6);
        let cw = p.workload_checkpointed(3, 0);
        let t = SimTime(1_000_000); // 1 ms: inside phase 1
        let out = run_workload_crashable(
            &MachineConfig::tiny(4, 2),
            &cw.workload,
            &Backend::Pfs,
            None,
            Some(t),
            &cw.plan.covered,
        );
        let units = vec![p.iters; p.nodes as usize];
        let cut = durable_cut(&out.trace, &cw.plan, &units, t);
        assert_eq!(cut.epoch, 0);
        assert_eq!(cut.commits_valid, 0);
    }

    #[test]
    fn ragged_writers_do_not_cap_the_cut() {
        // 4 writers: units 10,10,10,3, interval 4. The short writer's final
        // boundary is epoch 1; once it commits that, epoch 2 can still be
        // globally durable.
        let plan = {
            let mut p = CheckpointPlan::new(9, 5, 4, 4, 10);
            p.covered = vec![1];
            p
        };
        let units = [10u32, 10, 10, 3];
        let tracer = sio_core::Tracer::new("synthetic");
        let mut t = 0u64;
        let commit = |node: u32, epoch: u32, now: &mut u64| {
            let off = plan.slot_offset(epoch, node);
            tracer.record(
                IoEvent::new(node, plan.file, IoOp::Write)
                    .extent(off, plan.record_bytes)
                    .span(*now, *now + 10),
            );
            tracer.record(IoEvent::new(node, plan.file, IoOp::Flush).span(*now + 10, *now + 20));
            *now += 30;
        };
        for node in 0..4u32 {
            commit(node, 1, &mut t);
        }
        for node in 0..3u32 {
            commit(node, 2, &mut t);
        }
        let tr = tracer.finish();
        let cut = durable_cut(&tr, &plan, &units, SimTime(t));
        assert_eq!(cut.epoch, 2);
    }

    #[test]
    fn unsynced_commit_is_torn_and_rejected() {
        let plan = CheckpointPlan::new(9, 5, 1, 4, 8);
        let units = [8u32];
        let tracer = sio_core::Tracer::new("synthetic");
        // Epoch 1: write + sync. Epoch 2: write completed, sync never did.
        tracer.record(
            IoEvent::new(0, 9, IoOp::Write)
                .extent(plan.slot_offset(1, 0), plan.record_bytes)
                .span(0, 10),
        );
        tracer.record(IoEvent::new(0, 9, IoOp::Flush).span(10, 20));
        tracer.record(
            IoEvent::new(0, 9, IoOp::Write)
                .extent(plan.slot_offset(2, 0), plan.record_bytes)
                .span(100, 110),
        );
        let tr = tracer.finish();
        let cut = durable_cut(&tr, &plan, &units, SimTime(112));
        assert_eq!(cut.epoch, 1);
        assert_eq!(cut.commits_valid, 1);
        assert_eq!(cut.commits_torn, 1);
    }
}

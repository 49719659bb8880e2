//! The crash suites' shared cell machinery.
//!
//! X4 (faults), X5 (recover), X7 (blog) and X8 (chaos) ask one question of
//! the paper's applications: what does a run lose to a fault or a crash,
//! and how fast does it come back? Each runs healthy baselines first and
//! then its faulted or crashed cells, scaled to those baselines; the three
//! checkpointed suites derive a durable cut from every crashed run. This
//! module holds the one copy of each of those pieces, so a suite keeps only
//! its own grid and its row assembly:
//!
//! * [`Apps`] — the app catalogue: an app name to its plain or
//!   checkpointed workload, its per-writer work units and its default
//!   checkpoint interval;
//! * [`Stage`] — one baseline stage: each distinct key runs once, in
//!   first-occurrence order, over [`runner::par_map_jobs`], and results are
//!   looked up by key;
//! * [`Apps::crash_and_resume`] — crash a checkpointed run, derive its
//!   durable cut by the rule its backend needs ([`durable_cut_for`]),
//!   count the lost work and resume from the cut.

use crate::recovery::{durable_cut, durable_cut_logged, lost_work_bytes, DurableCut};
use crate::runner;
use paragon_sim::{FaultSchedule, MachineConfig, SimTime};
use sio_apps::checkpoint::CheckpointPlan;
use sio_apps::workload::{run_workload_crashable, Backend, RunOutput};
use sio_apps::{CheckpointedWorkload, EscatParams, HtfParams, RenderParams, Workload};
use sio_core::Trace;

/// The paper's applications at the parameters of one suite run.
#[derive(Clone, Copy)]
pub(crate) struct Apps<'a> {
    pub escat: &'a EscatParams,
    pub render: &'a RenderParams,
    pub htf: &'a HtfParams,
}

impl Apps<'_> {
    /// The uncheckpointed workload of `app` (`escat`, `render`,
    /// `htf-pargos` or `htf-pscf`).
    pub fn plain(&self, app: &str) -> Workload {
        match app {
            "escat" => self.escat.workload(),
            "render" => self.render.workload(),
            "htf-pargos" => self.htf.pargos_workload(),
            "htf-pscf" => self.htf.pscf_workload(),
            other => panic!("unknown app '{other}'"),
        }
    }

    /// `app` committing a checkpoint every `interval` work units, resumed
    /// from `epoch` (0 = a fresh run). Checkpointed variants exist for
    /// `escat`, `render` and `htf-pargos`.
    pub fn checkpointed(&self, app: &str, interval: u32, epoch: u32) -> CheckpointedWorkload {
        match app {
            "escat" => self.escat.workload_checkpointed(interval, epoch),
            "render" => self.render.workload_checkpointed(interval, epoch),
            "htf-pargos" => self.htf.pargos_workload_checkpointed(interval, epoch),
            other => panic!("unknown checkpointed app '{other}'"),
        }
    }

    /// Work units of each checkpoint writer of `app`.
    pub fn units(&self, app: &str) -> Vec<u32> {
        match app {
            "escat" => vec![self.escat.iters; self.escat.nodes as usize],
            "render" => vec![self.render.frames],
            "htf-pargos" => (0..self.htf.nodes)
                .map(|n| self.htf.records_of(n))
                .collect(),
            other => panic!("unknown checkpointed app '{other}'"),
        }
    }

    /// The default checkpoint interval: three epochs over the first
    /// writer's work.
    pub fn interval(&self, app: &str) -> u32 {
        self.units(app)[0].div_ceil(3).max(1)
    }

    /// Crash `app` (checkpoint interval `interval`) on `backend` at
    /// `t_crash`, under `faults` if any; derive the durable cut from the
    /// crashed trace, count the work written after it, and run the resumed
    /// workload from the cut to completion on the same backend.
    pub fn crash_and_resume(
        &self,
        machine: &MachineConfig,
        app: &str,
        interval: u32,
        backend: &Backend,
        faults: Option<&FaultSchedule>,
        t_crash: SimTime,
    ) -> CrashResume {
        let cw = self.checkpointed(app, interval, 0);
        let units = self.units(app);
        let crashed = run_checkpointed(machine, &cw, backend, faults, Some(t_crash));
        let cut = durable_cut_for(backend, &crashed.trace, &cw.plan, &units, t_crash);
        let lost_bytes = lost_work_bytes(&crashed.trace, &cw.plan, &units, cut.epoch);
        let resumed = self.checkpointed(app, interval, cut.epoch);
        CrashResume {
            resumed: run_checkpointed(machine, &resumed, backend, None, None),
            epochs: cw.plan.epochs,
            crashed,
            cut,
            lost_bytes,
        }
    }
}

/// One crash → durable cut → resume of a checkpointed run.
pub(crate) struct CrashResume {
    /// The run cut short at the crash instant.
    pub crashed: RunOutput,
    /// The durable cut derived from the crashed run's trace.
    pub cut: DurableCut,
    /// Covered-file bytes written after the cut: work the resume redoes.
    pub lost_bytes: u64,
    /// The run resumed from the cut, to completion.
    pub resumed: RunOutput,
    /// Epoch boundaries in the full plan.
    pub epochs: u32,
}

/// Run a checkpointed workload, optionally faulted and optionally stopped
/// at `stop_at`, with its checkpoint-covered files marked.
pub(crate) fn run_checkpointed(
    machine: &MachineConfig,
    cw: &CheckpointedWorkload,
    backend: &Backend,
    faults: Option<&FaultSchedule>,
    stop_at: Option<SimTime>,
) -> RunOutput {
    run_workload_crashable(
        machine,
        &cw.workload,
        backend,
        faults,
        stop_at,
        &cw.plan.covered,
    )
}

/// The durable cut of a run crashed at `crash`, by the rule its backend
/// needs: on the burst-log tier a commit is durable once its log append
/// completed ([`durable_cut_logged`]); everywhere else it needs its sync
/// ([`durable_cut`]).
pub(crate) fn durable_cut_for(
    backend: &Backend,
    trace: &Trace,
    plan: &CheckpointPlan,
    units: &[u32],
    crash: SimTime,
) -> DurableCut {
    match backend {
        Backend::Blog(..) => durable_cut_logged(trace, plan, units, crash),
        _ => durable_cut(trace, plan, units, crash),
    }
}

/// One baseline stage: results of a function run once per distinct key.
pub(crate) struct Stage<K, R> {
    keys: Vec<K>,
    results: Vec<R>,
}

impl<K: Clone + PartialEq + Send, R: Send> Stage<K, R> {
    /// Run `f` once per distinct key of `keys` on up to `jobs` workers.
    /// Keys are deduplicated by first occurrence, so a repeated key never
    /// runs twice and the run order does not depend on the worker count.
    pub fn run(jobs: usize, keys: impl IntoIterator<Item = K>, f: impl Fn(K) -> R + Sync) -> Self {
        let mut distinct: Vec<K> = Vec::new();
        for k in keys {
            if !distinct.contains(&k) {
                distinct.push(k);
            }
        }
        let results = runner::par_map_jobs(jobs, distinct.clone(), |_, k| f(k));
        Stage {
            keys: distinct,
            results,
        }
    }

    /// The result for `key`. Panics if `key` was not among the stage's
    /// keys.
    pub fn get(&self, key: &K) -> &R {
        let i = self
            .keys
            .iter()
            .position(|k| k == key)
            .expect("key ran in this stage");
        &self.results[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn stage_runs_each_distinct_key_once_in_first_occurrence_order() {
        // Non-adjacent repeats, and `-0.0 == 0.0`: the key that ran is the
        // first occurrence, so `(1, -0.0)` reads the result of `(1, 0.0)`.
        let keys = [(1u32, 0.0f64), (2, 1.0), (1, -0.0), (3, 2.0), (2, 1.0)];
        let run = |jobs| {
            let calls = AtomicUsize::new(0);
            let stage = Stage::run(jobs, keys, |(n, x)| {
                calls.fetch_add(1, Ordering::Relaxed);
                format!("{n}:{x}")
            });
            let got: Vec<String> = keys.iter().map(|k| stage.get(k).clone()).collect();
            (calls.into_inner(), got)
        };
        let (calls, got) = run(1);
        assert_eq!(calls, 3);
        assert_eq!(got, ["1:0", "2:1", "1:0", "3:2", "2:1"]);
        assert_eq!(run(8), (calls, got));
    }
}

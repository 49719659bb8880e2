//! Parallel sweep executor for deterministic simulations.
//!
//! Every experiment sweep in [`crate::experiments`] runs a set of
//! *independent, deterministic* simulations — each `run_workload` call is a
//! pure function of its configuration (`tests/determinism.rs`), so fanning
//! the sweep out across a bounded worker pool changes nothing but wall
//! time. This module is the one place that fan-out happens:
//!
//! * [`par_map`] / [`par_map_jobs`] — map a function over a job list on a
//!   bounded pool of scoped worker threads, returning results **in input
//!   order** regardless of completion order;
//! * [`try_par_map_jobs`] — same, but a panicking job surfaces as a
//!   [`JobPanic`] error instead of tearing down the process, without
//!   poisoning or deadlocking the pool;
//! * [`set_jobs`] / [`configured_jobs`] — the process-wide worker-count
//!   knob, fed by `--jobs N` on the `repro` binary or the `SIO_JOBS`
//!   environment variable (default: available hardware parallelism).
//!
//! Determinism contract: the pool only controls *where* a job executes.
//! Job `i` always receives index `i` and its own input, results are stored
//! by index, and no state is shared between jobs, so the output of
//! `par_map_jobs(n, items, f)` is bit-identical for every `n ≥ 1`
//! (`tests/parallel_determinism.rs` and `tests/golden_traces.rs` pin this).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A job panicked during a parallel sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Input-order index of the first panicking job.
    pub index: usize,
    /// Rendered panic payload.
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sweep job {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Result alias for fallible sweeps.
pub type Result<T> = std::result::Result<T, JobPanic>;

/// Process-wide worker-count override; 0 means "unset, use the default".
static CONFIGURED_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Default worker count: `SIO_JOBS` if set to a positive integer, else the
/// host's available parallelism.
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var("SIO_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
        eprintln!("[runner] ignoring invalid SIO_JOBS={v:?} (want a positive integer)");
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Set the process-wide worker count (the `repro --jobs N` knob).
/// `0` clears the override back to [`default_jobs`].
pub fn set_jobs(jobs: usize) {
    CONFIGURED_JOBS.store(jobs, Ordering::Relaxed);
}

/// Worker count sweeps use when none is passed explicitly.
pub fn configured_jobs() -> usize {
    match CONFIGURED_JOBS.load(Ordering::Relaxed) {
        0 => default_jobs(),
        n => n,
    }
}

/// Map `f` over `items` on up to [`configured_jobs`] workers; results in
/// input order. Panics if a job panics (see [`try_par_map_jobs`] to handle
/// that as an error).
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    par_map_jobs(configured_jobs(), items, f)
}

/// Map `f` over `items` on up to `jobs` workers; results in input order.
/// Panics with the first job's panic message if any job panics.
pub fn par_map_jobs<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    match try_par_map_jobs(jobs, items, f) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// Map `f` over `items` on a bounded pool of `jobs` scoped worker threads.
///
/// * Results are returned in **input order**, regardless of which worker
///   finishes first: worker threads claim indices from a shared cursor and
///   store each result in its input slot.
/// * `jobs` is clamped to `1..=items.len()`; `jobs <= 1` (and the
///   single-item case) runs on the calling thread with identical
///   semantics, including panic capture.
/// * A panicking job is caught on its worker; the remaining jobs still
///   run, the pool joins cleanly (no deadlock, no poisoned locks — item
///   and result locks are never held across `f`), and the error reports
///   the **first panicking index in input order** with its payload.
/// * A worker-thread *spawn* failure (OS resource exhaustion) is not
///   fatal: the pool degrades to however many workers did spawn — serial
///   on the calling thread at worst — with a logged warning. The calling
///   thread always participates, so the sweep completes even when every
///   spawn fails; an error return is reserved for panicking jobs.
pub fn try_par_map_jobs<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Result<Vec<R>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let jobs = jobs.clamp(1, n.max(1));
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<std::thread::Result<R>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    let worker = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        // Take the item and drop the slot lock *before* running the job,
        // so a panic inside `f` can never poison shared state.
        let item = slots[i]
            .lock()
            .expect("item slot lock")
            .take()
            .expect("each index is claimed exactly once");
        let outcome = catch_unwind(AssertUnwindSafe(|| f(i, item)));
        *results[i].lock().expect("result slot lock") = Some(outcome);
    };

    if jobs == 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            // Spawn `jobs - 1` helpers; the calling thread is the last
            // worker. If the OS refuses a thread (fd/memory exhaustion),
            // degrade to the workers already running instead of killing
            // the whole sweep — correctness never depends on pool width,
            // only wall time does.
            for w in 1..jobs {
                if let Err(e) = spawn_scoped_worker(scope, w, &worker) {
                    eprintln!(
                        "[runner] worker spawn failed ({e}); \
                         degrading sweep to {w} of {jobs} workers"
                    );
                    break;
                }
            }
            worker();
        });
    }

    let mut out = Vec::with_capacity(n);
    let mut first_panic: Option<JobPanic> = None;
    for (index, cell) in results.into_iter().enumerate() {
        let outcome = cell
            .into_inner()
            .expect("result slot lock")
            .expect("every index was executed");
        match outcome {
            Ok(r) => out.push(r),
            Err(payload) => {
                if first_panic.is_none() {
                    first_panic = Some(JobPanic {
                        index,
                        message: panic_message(payload.as_ref()),
                    });
                }
            }
        }
    }
    match first_panic {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Spawn one pool worker on a scoped thread, reporting OS failure as a
/// typed `io::Error` instead of panicking (the `Scope::spawn` default).
/// Tests inject failures through [`FORCED_SPAWN_FAILURES`] to pin the
/// degradation path.
fn spawn_scoped_worker<'scope, F>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    index: usize,
    worker: &'scope F,
) -> std::io::Result<()>
where
    F: Fn() + Sync,
{
    if take_forced_spawn_failure() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::WouldBlock,
            "forced spawn failure (test hook)",
        ));
    }
    std::thread::Builder::new()
        .name(format!("sweep-{index}"))
        .spawn_scoped(scope, worker)
        .map(|_| ())
}

/// Remaining forced spawn failures (test hook; always zero in production).
static FORCED_SPAWN_FAILURES: AtomicUsize = AtomicUsize::new(0);

/// Make the next `n` worker spawns fail as if the OS were out of threads.
#[doc(hidden)]
pub fn force_spawn_failures(n: usize) {
    FORCED_SPAWN_FAILURES.store(n, Ordering::Relaxed);
}

fn take_forced_spawn_failure() -> bool {
    FORCED_SPAWN_FAILURES
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
        .is_ok()
}

/// Render a panic payload the way the default hook would.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Silence the default panic hook while intentionally panicking jobs
    /// run (worker threads are not output-captured by the test harness);
    /// restores default printing on drop. Swaps are serialized.
    fn quiet_panics() -> impl Drop {
        use std::sync::MutexGuard;
        static HOOK: Mutex<()> = Mutex::new(());
        struct Restore(Option<MutexGuard<'static, ()>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let _ = std::panic::take_hook();
                self.0.take();
            }
        }
        let guard = HOOK.lock().unwrap_or_else(|e| e.into_inner());
        std::panic::set_hook(Box::new(|_| {}));
        Restore(Some(guard))
    }

    #[test]
    fn maps_in_input_order() {
        for jobs in [1, 2, 3, 8, 64] {
            let out = par_map_jobs(jobs, (0..50u64).collect(), |i, x| {
                assert_eq!(i as u64, x);
                x * x
            });
            assert_eq!(
                out,
                (0..50u64).map(|x| x * x).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = par_map_jobs(8, Vec::<u32>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_jobs_clamps_to_serial() {
        let out = par_map_jobs(0, vec![1, 2, 3], |_, x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn panic_surfaces_as_error_with_first_index() {
        let _quiet = quiet_panics();
        let err = try_par_map_jobs(4, (0..20).collect::<Vec<u32>>(), |_, x| {
            if x % 7 == 3 {
                panic!("boom at {x}");
            }
            x
        })
        .unwrap_err();
        assert_eq!(err.index, 3);
        assert!(err.message.contains("boom at 3"), "{}", err.message);
    }

    #[test]
    fn pool_survives_panics_and_completes_other_jobs() {
        // A panicking job must not prevent later jobs from running.
        let _quiet = quiet_panics();
        let done = AtomicUsize::new(0);
        let err = try_par_map_jobs(2, (0..10).collect::<Vec<u32>>(), |_, x| {
            if x == 0 {
                panic!("first job dies");
            }
            done.fetch_add(1, Ordering::Relaxed);
            x
        })
        .unwrap_err();
        assert_eq!(err.index, 0);
        assert_eq!(done.load(Ordering::Relaxed), 9);
    }

    /// Serializes the tests that poke the process-global forced-failure
    /// counter, so the parallel test harness cannot interleave them.
    static FORCE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn spawn_failure_degrades_to_fewer_workers() {
        let _serial = FORCE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // First spawn attempt fails: the pool proceeds with the calling
        // thread plus whatever spawned (here: calling thread only), and
        // the sweep still completes with bit-identical results.
        force_spawn_failures(1);
        let out = par_map_jobs(4, (0..40u64).collect(), |i, x| {
            assert_eq!(i as u64, x);
            x * 3
        });
        assert_eq!(out, (0..40u64).map(|x| x * 3).collect::<Vec<_>>());
        assert_eq!(FORCED_SPAWN_FAILURES.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn total_spawn_failure_still_completes_serially() {
        let _serial = FORCE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Every spawn fails: serial execution on the calling thread, and
        // job panics still surface as the typed error, not a process kill.
        let _quiet = quiet_panics();
        force_spawn_failures(usize::MAX);
        let out = par_map_jobs(8, (0..10u32).collect(), |_, x| x + 1);
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
        let err = try_par_map_jobs(8, (0..10u32).collect(), |_, x| {
            if x == 4 {
                panic!("job blew up");
            }
            x
        })
        .unwrap_err();
        assert_eq!(err.index, 4);
        force_spawn_failures(0);
    }

    #[test]
    fn configured_jobs_round_trips() {
        // Serialized via the env-var-free path: set, read, clear.
        set_jobs(3);
        assert_eq!(configured_jobs(), 3);
        set_jobs(0);
        assert!(configured_jobs() >= 1);
    }
}

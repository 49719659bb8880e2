//! Perf-counter contract (`sio::core::perf`): counters must be invisible
//! when disabled, must not perturb simulation output when enabled, and must
//! aggregate to identical totals whatever the sweep worker count.
//!
//! The counters are process-global atomics, so every assertion on them
//! lives in one `#[test]` — the default parallel test runner would otherwise
//! interleave submissions from concurrently running tests. This file is its
//! own test binary, so no other harness shares the process; the one other
//! test here reads a single engine's counters and never submits.

use sio::analysis::{burst, chaos, experiments, recovery};
use sio::apps::workload::{run_workload, Backend, BackendSpec, Workload, WATCHDOG_DEADLINE};
use sio::apps::{EscatParams, HtfParams, RenderParams};
use sio::core::trace::TraceSink;
use sio::core::{perf, sddf};
use sio::paragon::mesh::Mesh;
use sio::paragon::program::{NodeProgram, ScriptProgram};
use sio::paragon::{Engine, EnginePerf, FaultSchedule, MachineConfig, SimTime};

#[test]
fn counters_are_silent_when_disabled_inert_when_enabled_and_jobs_invariant() {
    let machine = MachineConfig::tiny(8, 4);
    let ep = EscatParams::small(4, 4);
    let rp = RenderParams::small(4, 2);
    let hp = HtfParams::small(4);
    let sweep = |jobs| experiments::fault_suite_jobs(&machine, &ep, &rp, &hp, jobs);

    // Disabled (the default): runs submit nothing.
    perf::reset();
    assert!(!perf::enabled());
    let rows_off = sweep(2);
    assert_eq!(
        perf::snapshot(),
        perf::PerfSnapshot::default(),
        "disabled counters must record nothing"
    );

    // Enabled: simulation output is byte-identical — capture must not
    // perturb the thing measured.
    perf::enable();
    let rows_on = sweep(2);
    assert_eq!(rows_off, rows_on, "enabling counters changed sweep results");
    let out_off = {
        perf::disable();
        run_workload(&machine, &ep.workload(), &Backend::Pfs)
    };
    let out_on = {
        perf::enable();
        run_workload(&machine, &ep.workload(), &Backend::Pfs)
    };
    assert_eq!(
        sddf::fingerprint(&out_off.trace),
        sddf::fingerprint(&out_on.trace),
        "enabling counters changed the trace"
    );
    assert_eq!(out_off.report, out_on.report);

    // Worker-count invariance: sums and maxima commute, so a 1-worker and
    // an 8-worker sweep of the same cells must agree on every counter.
    perf::reset();
    sweep(1);
    let serial = perf::snapshot().counters();
    perf::reset();
    sweep(8);
    let parallel = perf::snapshot().counters();
    assert_eq!(serial, parallel, "counters diverged across SIO_JOBS");
    let (runs, events, heap_peak, ..) = serial;
    assert!(runs > 0, "sweep submitted no runs");
    assert!(events > 0, "engine counted no events");
    assert!(heap_peak > 0, "heap peak never observed");

    // Every simulated run counts once, so each crash suite's run count is
    // pinned: a shared baseline that runs twice, or a cell that stops
    // running, moves it.
    let runs_of = |sweep: &dyn Fn()| {
        perf::reset();
        sweep();
        perf::snapshot().counters().0
    };
    let faults = runs_of(&|| {
        sweep(2);
    });
    let recover = runs_of(&|| {
        recovery::recover_suite_scenarios_jobs(&machine, &ep, &rp, &hp, None, 2);
    });
    let blog = runs_of(&|| {
        burst::blog_suite_overrides_jobs(&machine, &ep, &rp, &hp, None, None, 2);
    });
    let chaos = runs_of(&|| {
        chaos::chaos_suite_jobs(&machine, &ep, &rp, &hp, 42, 12, 2);
    });
    // faults: 4 healthy baselines + 13 faulted cells. recover: 3 plain
    // walls + 5 checkpointed walls + 15 crash-and-resume cells x 2 runs.
    // blog: 13 log-tier + 9 direct baselines + 15 cells x 4 runs. chaos:
    // 12 distinct workload x backend baselines + 12 cells.
    assert_eq!(
        (faults, recover, blog, chaos),
        (17, 38, 82, 24),
        "simulated runs per suite (faults, recover, blog, chaos)"
    );

    perf::disable();
    perf::reset();
}

/// Drive one workload through the engine by hand, as `run_workload_crashable`
/// does, and return the engine's own counters. Going around `run_workload`
/// keeps this test off the process-global aggregate the test above owns.
fn engine_perf(
    machine: &MachineConfig,
    workload: &Workload,
    backend: &BackendSpec,
    schedule: FaultSchedule,
) -> EnginePerf {
    let mut fs = backend.build(machine, TraceSink::new(&workload.label), schedule);
    for f in &workload.files {
        fs.register_file(f.clone());
    }
    let programs: Vec<Box<dyn NodeProgram>> = workload
        .scripts
        .iter()
        .map(|s| Box::new(ScriptProgram::new(s.clone())) as Box<dyn NodeProgram>)
        .collect();
    let mesh = Mesh::for_nodes(machine.compute_nodes, machine.io_nodes);
    let mut engine = Engine::new(mesh, machine.comm, programs, fs);
    engine.set_watchdog(WATCHDOG_DEADLINE);
    for g in &workload.groups {
        engine.add_group(g.clone());
    }
    assert!(engine.run().clean(), "{} did not finish", workload.label);
    engine.perf()
}

/// Pins the engine's queue bookkeeping. The golden digests pin traces, not
/// these counters, so this is what guards a rewrite of the event queue: the
/// values were recorded from the engine before its heap was last reworked.
#[test]
fn engine_counters_are_pinned() {
    let machine = MachineConfig::tiny(64, 4);
    let hp = HtfParams::small(64);
    let degraded = FaultSchedule::all_disks_fail(SimTime::ZERO, machine.io_nodes, 0);
    let pscf = engine_perf(&machine, &hp.pscf_workload(), &BackendSpec::Pfs, degraded);
    let escat = engine_perf(
        &machine,
        &EscatParams::small(64, 4).workload(),
        &BackendSpec::Pfs,
        FaultSchedule::new(),
    );
    assert_eq!(
        pscf,
        EnginePerf {
            events: 3033,
            heap_peak: 402,
            channel_peak: 0,
        }
    );
    assert_eq!(
        escat,
        EnginePerf {
            events: 4706,
            heap_peak: 64,
            channel_peak: 60,
        }
    );
}

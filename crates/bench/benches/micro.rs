//! Micro benchmarks of the substrate hot paths: engine event dispatch (a
//! shallow barrier fan-out and a deep queue of pending deadlines), stripe
//! mapping, block cache, write-behind buffer, access-pattern
//! classification/prediction, and the SDDF trace codec.

use criterion::{criterion_group, Criterion, Throughput};
use paragon_sim::mesh::{CommCosts, Mesh};
use paragon_sim::program::{NodeProgram, ScriptOp, ScriptProgram};
use paragon_sim::{Engine, IoService, MachineConfig, Sched, SimDuration, SimTime};
use sio_core::classify::PatternClassifier;
use sio_core::event::{IoEvent, IoOp};
use sio_core::predict::{MarkovPredictor, Predictor};
use sio_core::sddf;
use sio_core::trace::{Trace, TraceMeta};
use sio_pfs::StripeLayout;
use sio_ppfs::cache::{BlockCache, BlockState};
use sio_ppfs::write_behind::DirtyBuffer;
use sio_ppfs::Eviction;
use std::hint::black_box;

/// A no-cost service: isolates pure engine dispatch overhead.
struct NullService;

impl IoService for NullService {
    fn submit(
        &mut self,
        _node: u32,
        now: paragon_sim::SimTime,
        req: paragon_sim::IoRequest,
        token: u64,
        _is_async: bool,
        sched: &mut paragon_sim::Sched,
    ) {
        sched.complete_io(
            token,
            now + SimDuration(1000),
            paragon_sim::IoResult {
                bytes: req.bytes,
                queued: SimDuration::ZERO,
                service: SimDuration(1000),
                fault: None,
            },
        );
    }

    fn on_timer(&mut self, _: paragon_sim::SimTime, _: u64, _: &mut paragon_sim::Sched) {}
}

/// Completes each I/O after 1 µs like [`NullService`], and also arms a
/// no-op timer 600 s out, as the fskit request deadline does under a fault
/// schedule: every request leaves an event pending until the run's end.
struct DeadlineService;

impl IoService for DeadlineService {
    fn submit(
        &mut self,
        node: u32,
        now: SimTime,
        req: paragon_sim::IoRequest,
        token: u64,
        is_async: bool,
        sched: &mut Sched,
    ) {
        NullService.submit(node, now, req, token, is_async, sched);
        sched.timer(now + SimDuration::from_secs(600), token);
    }

    fn on_timer(&mut self, _: SimTime, _: u64, _: &mut Sched) {}
}

fn engine_dispatch(c: &mut Criterion) {
    // 64 nodes × (1000 computes + barriers): ~130k events per iteration.
    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(64 * 2 * 1000));
    group.bench_function("dispatch_128k_events", |b| {
        b.iter(|| {
            let programs: Vec<Box<dyn NodeProgram>> = (0..64)
                .map(|_| {
                    let mut ops = Vec::with_capacity(2000);
                    for _ in 0..1000 {
                        ops.push(ScriptOp::Compute(SimDuration(10_000)));
                        ops.push(ScriptOp::Barrier(0));
                    }
                    Box::new(ScriptProgram::new(ops)) as Box<dyn NodeProgram>
                })
                .collect();
            let mesh = Mesh::for_nodes(64, 4);
            let mut engine = Engine::new(mesh, CommCosts::default(), programs, NullService);
            let report = engine.run();
            assert!(report.clean());
            black_box(report.events)
        })
    });
    // 64 nodes × 500 (compute + sync read): per read a compute resume, the
    // completion, the I/O-done resume and the deadline, which stays pending
    // until the end — 32k deep, as on the faulted paper suite.
    group.throughput(Throughput::Elements(64 * 500 * 4));
    group.bench_function("deadline_heavy", |b| {
        b.iter(|| {
            let programs: Vec<Box<dyn NodeProgram>> = (0..64)
                .map(|_| {
                    let mut ops = Vec::with_capacity(1000);
                    for _ in 0..500 {
                        ops.push(ScriptOp::Compute(SimDuration(10_000)));
                        ops.push(ScriptOp::Io(paragon_sim::IoRequest::read(1, 4096)));
                    }
                    Box::new(ScriptProgram::new(ops)) as Box<dyn NodeProgram>
                })
                .collect();
            let mesh = Mesh::for_nodes(64, 4);
            let mut engine = Engine::new(mesh, CommCosts::default(), programs, DeadlineService);
            let report = engine.run();
            assert!(report.clean());
            assert!(engine.perf().heap_peak >= 64 * 500);
            black_box(report.events)
        })
    });
    group.finish();
}

fn stripe_mapping(c: &mut Criterion) {
    let layout = StripeLayout::pfs(16);
    let mut group = c.benchmark_group("stripe");
    group.throughput(Throughput::Elements(1000));
    group.bench_function("segment_1000_3mb_requests", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for k in 0..1000u64 {
                let segs = layout.segments(k * 1_000_003, 3_000_000);
                total += segs.len() as u64;
            }
            black_box(total)
        })
    });
    group.finish();
}

fn block_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("lru_100k_mixed_ops", |b| {
        b.iter(|| {
            let mut cache = BlockCache::new(1024, Eviction::Lru, 7);
            for i in 0..100_000u64 {
                let key = (0u32, (i * 31) % 4096);
                if cache.lookup(key).is_none() {
                    cache.insert(key, BlockState::Present);
                }
            }
            black_box(cache.stats())
        })
    });
    group.finish();
}

fn dirty_buffer(c: &mut Criterion) {
    let mut group = c.benchmark_group("write_behind");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("aggregate_10k_strided_writes", |b| {
        b.iter(|| {
            let mut buf = DirtyBuffer::new();
            for i in 0..10_000u64 {
                buf.add((i % 128) * 131_072 + (i / 128) * 2_000, 2_000);
            }
            black_box(buf.drain(true, 65_536).len())
        })
    });
    group.finish();
}

fn classifier_and_predictor(c: &mut Criterion) {
    let mut group = c.benchmark_group("adaptive");
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("classify_100k_accesses", |b| {
        b.iter(|| {
            let mut cl = PatternClassifier::new();
            for i in 0..100_000u64 {
                cl.observe(i * 4096, 4096);
            }
            black_box(cl.classify())
        })
    });
    group.bench_function("markov_predict_100k", |b| {
        b.iter(|| {
            let mut p = MarkovPredictor::new();
            for i in 0..100_000u64 {
                p.observe((i % 2) * 100 + i * 1000, 512);
            }
            black_box(p.predict())
        })
    });
    group.finish();
}

fn sddf_codec(c: &mut Criterion) {
    let events: Vec<IoEvent> = (0..100_000u64)
        .map(|i| {
            IoEvent::new((i % 128) as u32, (i % 12) as u32, IoOp::Write)
                .span(i * 1000, i * 1000 + 500)
                .extent(i * 2048, 2048)
        })
        .collect();
    let trace = Trace::from_parts(TraceMeta::default(), events);
    let encoded = sddf::to_bytes(&trace);
    let mut group = c.benchmark_group("sddf");
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("encode_100k_events", |b| {
        b.iter(|| black_box(sddf::to_bytes(black_box(&trace)).len()))
    });
    group.bench_function("decode_100k_events", |b| {
        b.iter(|| black_box(sddf::from_bytes(black_box(&encoded)).unwrap().len()))
    });
    group.finish();
}

fn full_machine_escat_small(c: &mut Criterion) {
    // A small end-to-end run through the whole stack per iteration.
    use sio_apps::workload::{run_workload, Backend};
    use sio_apps::EscatParams;
    let machine = MachineConfig::tiny(8, 4);
    let params = EscatParams::small(8, 8);
    c.bench_function("stack_escat_small_end_to_end", |b| {
        b.iter(|| {
            let out = run_workload(black_box(&machine), &params.workload(), &Backend::Pfs);
            black_box(out.trace.len())
        })
    });
}

fn replay_reconstruction(c: &mut Criterion) {
    use sio_apps::replay::{workload_from_trace, ReplayOptions};
    use sio_apps::workload::{run_workload, Backend};
    use sio_apps::EscatParams;
    let machine = MachineConfig::tiny(8, 4);
    let original = run_workload(
        &machine,
        &EscatParams::small(8, 8).workload(),
        &Backend::Pfs,
    );
    let mut group = c.benchmark_group("replay");
    group.throughput(Throughput::Elements(original.trace.len() as u64));
    group.bench_function("reconstruct_workload_from_trace", |b| {
        b.iter(|| {
            let w = workload_from_trace(black_box(&original.trace), ReplayOptions::default());
            black_box(w.scripts.len())
        })
    });
    group.finish();
}

fn mix_combination(c: &mut Criterion) {
    use sio_apps::mix::combine;
    use sio_apps::{EscatParams, HtfParams};
    let a = EscatParams::small(8, 8).workload();
    let b_ = HtfParams::small(8).pscf_workload();
    c.bench_function("mix_combine_two_apps", |b| {
        b.iter(|| {
            let parts = [black_box(&a), black_box(&b_)];
            black_box(combine("mix", &parts).scripts.len())
        })
    });
}

fn server_cache_two_level(c: &mut Criterion) {
    use paragon_sim::program::{IoRequest, ScriptOp};
    use sio_apps::workload::{run_workload, Backend, Workload};
    use sio_pfs::{AccessMode, FileSpec};
    use sio_ppfs::PolicyConfig;
    let machine = MachineConfig::tiny(8, 4);
    let build = || -> Workload {
        let scripts = (0..8u32)
            .map(|node| {
                let mut ops = vec![
                    ScriptOp::Io(IoRequest::open(0, AccessMode::MUnix.code())),
                    ScriptOp::Compute(SimDuration::from_millis(500 * node as u64)),
                ];
                for _ in 0..16 {
                    ops.push(ScriptOp::Io(IoRequest::read(0, 65536)));
                }
                ops
            })
            .collect();
        Workload {
            label: "b1".to_string(),
            files: vec![FileSpec::input("shared", 16 * 65536)],
            scripts,
            groups: Vec::new(),
        }
    };
    c.bench_function("b1_two_level_buffering_run", |b| {
        b.iter(|| {
            let out = run_workload(
                black_box(&machine),
                &build(),
                &Backend::Ppfs(PolicyConfig::two_level(64, 256)),
            );
            assert!(out.ppfs_stats.unwrap().server_hits > 0);
            black_box(out.trace.len())
        })
    });
}

fn burst_log_drain(c: &mut Criterion) {
    use sio_blog::{BurstLog, LogRecord};
    // The drainer's host-side hot loop: append framed records, reclaim the
    // drained prefix in pump-sized batches, replay the survivors (the
    // recovery path walks the same frames).
    let mut group = c.benchmark_group("blog");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("drain_cycle_10k_frames", |b| {
        let payload = vec![0xA5u8; 4096];
        b.iter(|| {
            let mut log = BurstLog::new();
            for i in 0..10_000u32 {
                log.append(&LogRecord {
                    epoch: i / 100 + 1,
                    file: 7,
                    offset: i as u64 * 4096,
                    payload: payload.clone(),
                });
            }
            // Drain-and-GC in 256-record batches, like the pump does.
            for _ in 0..(10_000 / 256) {
                log.gc(256);
            }
            let survivors = BurstLog::replay(log.as_bytes());
            assert_eq!(survivors.len(), 10_000 - 256 * (10_000 / 256));
            black_box(survivors.len())
        })
    });
    group.finish();
}

criterion_group!(
    micro,
    engine_dispatch,
    stripe_mapping,
    block_cache,
    dirty_buffer,
    classifier_and_predictor,
    sddf_codec,
    full_machine_escat_small,
    replay_reconstruction,
    mix_combination,
    server_cache_two_level,
    burst_log_drain
);
fn main() {
    sio_bench::configure_sweep_jobs();
    micro();
}

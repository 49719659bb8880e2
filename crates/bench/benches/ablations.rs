//! Ablation benchmarks — the experiment-index entries X1 and A1–A4.
//!
//! Each bench both *times* the experiment and asserts its qualitative
//! outcome (the PPFS ablation must improve ESCAT; C-SCAN must not lose to
//! FIFO; degraded RAID reads must cost more), so `cargo bench` doubles as a
//! coarse regression gate on the reproduced claims.

use criterion::{criterion_group, Criterion};
use sio_analysis::experiments;
use sio_analysis::runner::configured_jobs;
use sio_apps::EscatParams;
use sio_bench::{bench_machine, small_machine};
use std::hint::black_box;

fn x1_ppfs_escat(c: &mut Criterion) {
    let machine = bench_machine();
    let params = EscatParams::paper();
    let mut group = c.benchmark_group("x1_ppfs_ablation");
    group.sample_size(10);
    group.bench_function("escat_pfs_vs_ppfs", |b| {
        b.iter(|| {
            let r = experiments::ppfs_ablation(black_box(&machine), black_box(&params));
            assert!(r.speedup > 100.0);
            black_box(r.speedup)
        })
    });
    group.finish();
}

fn a1_modes(c: &mut Criterion) {
    let machine = small_machine();
    c.bench_function("a1_access_mode_matrix", |b| {
        b.iter(|| {
            let rows = experiments::mode_ablation_jobs(
                black_box(&machine),
                16,
                8,
                2048,
                configured_jobs(),
            );
            assert_eq!(rows.len(), 5);
            black_box(rows.iter().map(|r| r.wall_secs).sum::<f64>())
        })
    });
}

fn a2_policy_matrix(c: &mut Criterion) {
    let machine = small_machine();
    c.bench_function("a2_policy_matrix", |b| {
        b.iter(|| {
            let rows = experiments::policy_matrix_jobs(black_box(&machine), configured_jobs());
            assert_eq!(rows.len(), 12);
            black_box(rows.iter().map(|r| r.read_secs).sum::<f64>())
        })
    });
}

fn a3_queue_discipline(c: &mut Criterion) {
    let machine = small_machine();
    c.bench_function("a3_queue_discipline", |b| {
        b.iter(|| {
            let rows =
                experiments::queue_discipline_jobs(black_box(&machine), 16, configured_jobs());
            assert!(rows[1].wall_secs <= rows[0].wall_secs * 1.02);
            black_box(rows[0].wall_secs)
        })
    });
}

fn a4_raid_degraded(c: &mut Criterion) {
    let machine = small_machine();
    c.bench_function("a4_raid_degraded", |b| {
        b.iter(|| {
            let rows = experiments::raid_degraded_jobs(black_box(&machine), configured_jobs());
            assert!(rows[1].read_secs > rows[0].read_secs);
            black_box(rows[1].read_secs)
        })
    });
}

criterion_group!(
    ablations,
    x1_ppfs_escat,
    a1_modes,
    a2_policy_matrix,
    a3_queue_discipline,
    a4_raid_degraded
);
fn main() {
    sio_bench::configure_sweep_jobs();
    ablations();
}

//! A fixed host-speed reference: a small discrete-event loop (an event
//! heap, a per-node state slab, a hash table and an append-only log, the
//! shape of the simulator's hot path) that uses no simulator crate, so no
//! change to the simulator can move it.
//!
//! `scripts/bench_sim.sh` times it next to `engine/dispatch_128k_events`.
//! The product of engine throughput and reference time per iteration is
//! then a host-independent figure: a slower (or busier) host lowers the
//! first and raises the second by the same factor.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;

/// Events dispatched per iteration.
const EVENTS: u64 = 50_000;

/// The kernel's state, allocated once and reused by every run, so a run
/// is CPU and cache work only (no page faults).
struct Kernel {
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    state: Vec<u64>,
    table: HashMap<u64, u64>,
    log: Vec<(u64, u64)>,
}

impl Kernel {
    fn new() -> Kernel {
        let nodes = 4096;
        Kernel {
            heap: BinaryHeap::with_capacity(nodes),
            state: vec![0; nodes],
            table: HashMap::with_capacity(1 << 15),
            log: Vec::with_capacity(EVENTS as usize),
        }
    }

    /// One run; the result only keeps the work alive.
    fn run(&mut self) -> u64 {
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        self.heap.clear();
        self.state.fill(0);
        self.table.clear();
        self.log.clear();
        for node in 0..self.state.len() {
            self.heap.push(Reverse((rand() % 1000, node)));
        }
        for _ in 0..EVENTS {
            let Reverse((t, node)) = self.heap.pop().expect("every pop pushes again");
            let s = &mut self.state[node];
            *s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(t);
            *self.table.entry(*s % 30_000).or_default() += t;
            self.log.push((t, *s));
            self.heap.push(Reverse((t + 1 + rand() % 1000, node)));
        }
        self.log
            .iter()
            .fold(self.table.len() as u64, |acc, e| acc ^ e.1)
    }
}

fn host_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("reference");
    group.throughput(Throughput::Elements(EVENTS));
    group.bench_function("host_kernel_50k_events", |b| {
        let mut kernel = Kernel::new();
        b.iter(|| black_box(kernel.run()))
    });
    group.finish();
}

criterion_group!(reference, host_kernel);
criterion_main!(reference);

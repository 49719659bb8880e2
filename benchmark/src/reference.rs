//! A fixed reference workload timed next to every measured pass.
//!
//! The host this benchmark runs on is shared: its speed drifts by tens of
//! percent over minutes, far more than a change to the simulator moves. The
//! reference kernel is a small discrete-event loop of its own (an event heap,
//! a state slab, a hash table and an append-only log, like the simulator's
//! hot path) that no change to the simulator can touch. Timing it right
//! after each pass measures how fast the host is running at that moment, and
//! dividing by it takes the drift out of the end-to-end times.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// Reference-kernel wall time that the scaled times are expressed at: a
/// scaled second is a host second on a host that runs the kernel in 50 ms.
pub const NOMINAL_S: f64 = 0.05;

/// One run of the kernel; the result only keeps the work from being
/// optimised away.
fn kernel() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let nodes = 4096;
    let mut heap = BinaryHeap::with_capacity(nodes);
    let mut state = vec![0u64; nodes];
    let mut table: HashMap<u64, u64> = HashMap::with_capacity(1 << 15);
    let mut log: Vec<(u64, u64)> = Vec::new();
    for node in 0..nodes {
        heap.push(Reverse((next() % 1000, node)));
    }
    for _ in 0..300_000 {
        let Reverse((t, node)) = heap.pop().expect("the heap never drains");
        let s = &mut state[node];
        *s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(t);
        *table.entry(*s % 30_000).or_default() += t;
        log.push((t, *s));
        heap.push(Reverse((t + 1 + next() % 1000, node)));
    }
    log.iter().fold(table.len() as u64, |acc, e| acc ^ e.1)
}

/// Wall seconds for `threads` copies of the kernel run side by side, so
/// the reference loads the host as the pass it follows did.
pub fn wall(threads: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        let copies: Vec<_> = (0..threads).map(|_| s.spawn(kernel)).collect();
        for c in copies {
            std::hint::black_box(c.join().expect("reference kernel panicked"));
        }
    });
    t.elapsed().as_secs_f64()
}

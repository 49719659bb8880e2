//! The engine's event queue: global `(time, seq)` order from three lanes.
//!
//! Every pending event is a payload slot ordered by its time and a globally
//! unique push sequence number. Most pushes fall into one of two shapes that
//! need no sifting, so the queue keeps three lanes, each sorted by
//! `(time, seq)`:
//!
//! * the **same-instant FIFO** takes events pushed at exactly the current
//!   clock (a sync-I/O completion's resume, a receive whose message already
//!   arrived), in push order;
//! * the **monotone lane** takes any other push whose time is at or after
//!   the lane's back (fixed-timeout deadlines, barrier releases);
//! * the **heap** takes everything else.
//!
//! Pop takes the heap/monotone minimum if its time is the current clock,
//! else the FIFO front, else that minimum. This is exactly global
//! `(time, seq)` order: an entry in the heap or monotone lane at time `now`
//! was pushed before the clock reached `now`, so its `seq` is lower than any
//! FIFO entry's; and the FIFO is empty whenever the clock advances, because
//! its entries sit at the clock and nothing pending is earlier.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// One timed entry: `(time, seq, slot)`. `seq` is unique, so `slot` never
/// breaks a tie.
type Entry = (SimTime, u64, u32);

pub(crate) struct EventQueue {
    /// Time of the last pop: the engine's clock.
    now: SimTime,
    /// Next push sequence number.
    seq: u64,
    /// Slots pushed at exactly `now`, in push order.
    fifo: VecDeque<u32>,
    /// Entries pushed at or after the lane's back, so already sorted.
    monotone: VecDeque<Entry>,
    heap: BinaryHeap<Reverse<Entry>>,
    /// Peak number of pending events across all lanes.
    peak: usize,
}

impl EventQueue {
    /// An empty queue at time zero, with room for `cap` timed entries in
    /// each of the monotone lane and the heap before either reallocates.
    pub(crate) fn with_capacity(cap: usize) -> EventQueue {
        EventQueue {
            now: SimTime::ZERO,
            seq: 0,
            fifo: VecDeque::new(),
            monotone: VecDeque::with_capacity(cap),
            heap: BinaryHeap::with_capacity(cap),
            peak: 0,
        }
    }

    /// Schedule payload `slot` at `at`, which must not precede the clock.
    pub(crate) fn push(&mut self, at: SimTime, slot: u32) {
        debug_assert!(at >= self.now, "scheduling into the past");
        let seq = self.seq;
        self.seq += 1;
        if at == self.now {
            self.fifo.push_back(slot);
        } else if self.monotone.back().is_none_or(|&(back, _, _)| at >= back) {
            self.monotone.push_back((at, seq, slot));
        } else {
            self.heap.push(Reverse((at, seq, slot)));
        }
        self.peak = self.peak.max(self.len());
    }

    /// The earliest timed entry across the heap and the monotone lane, and
    /// whether it is the heap's.
    fn timed_min(&self) -> Option<(SimTime, bool)> {
        match (self.heap.peek(), self.monotone.front()) {
            (Some(&Reverse((ht, hs, _))), Some(&(mt, ms, _))) => Some(if (ht, hs) < (mt, ms) {
                (ht, true)
            } else {
                (mt, false)
            }),
            (Some(&Reverse((ht, _, _))), None) => Some((ht, true)),
            (None, Some(&(mt, _, _))) => Some((mt, false)),
            (None, None) => None,
        }
    }

    /// The clock: the time of the last pop.
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Time of the next event to pop, if any.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        if self.fifo.is_empty() {
            self.timed_min().map(|(t, _)| t)
        } else {
            Some(self.now)
        }
    }

    /// Remove the next event in `(time, seq)` order, advancing the clock to
    /// its time.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, u32)> {
        match self.timed_min() {
            Some((t, from_heap)) if t == self.now || self.fifo.is_empty() => {
                let (t, _, slot) = if from_heap {
                    self.heap.pop().map(|Reverse(e)| e)
                } else {
                    self.monotone.pop_front()
                }
                .expect("peeked lane is non-empty");
                debug_assert!(t >= self.now, "time went backwards");
                self.now = t;
                Some((t, slot))
            }
            _ => self.fifo.pop_front().map(|slot| (self.now, slot)),
        }
    }

    /// Pending events across all lanes.
    pub(crate) fn len(&self) -> usize {
        self.fifo.len() + self.monotone.len() + self.heap.len()
    }

    /// True when every lane is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.fifo.is_empty() && self.monotone.is_empty() && self.heap.is_empty()
    }

    /// Peak of [`EventQueue::len`] over the queue's life.
    pub(crate) fn peak(&self) -> usize {
        self.peak
    }

    /// Pending events per lane: `(fifo, monotone, heap)`.
    #[cfg(test)]
    pub(crate) fn lane_lens(&self) -> (usize, usize, usize) {
        (self.fifo.len(), self.monotone.len(), self.heap.len())
    }

    /// Payload slots of every pending event, in no particular order.
    pub(crate) fn slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.fifo
            .iter()
            .copied()
            .chain(self.monotone.iter().map(|&(_, _, slot)| slot))
            .chain(self.heap.iter().map(|&Reverse((_, _, slot))| slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The fixed timeout of the monotone-timer op, as a request deadline.
    const TIMEOUT: u64 = 600;

    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Push this many events at the current clock.
        Burst(u16),
        /// Push one event at `now + TIMEOUT`.
        Timer,
        /// Push one event at `now + d`.
        Future(u16),
        /// Pop up to this many events.
        Pop(u16),
    }

    impl Op {
        /// Decode one sampled `(kind, arg)` pair.
        fn decode((kind, arg): (u8, u16)) -> Op {
            match kind {
                0 => Op::Burst(1 + arg % 5),
                1 => Op::Timer,
                2 => Op::Future(arg),
                _ => Op::Pop(1 + arg % 7),
            }
        }
    }

    /// The oracle: one plain binary heap over `(time, seq)`, the engine's
    /// queue before it had lanes.
    #[derive(Default)]
    struct Reference {
        now: SimTime,
        seq: u64,
        heap: BinaryHeap<Reverse<(SimTime, u64)>>,
        peak: usize,
    }

    impl Reference {
        fn push(&mut self, at: SimTime) -> u32 {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Reverse((at, seq)));
            self.peak = self.peak.max(self.heap.len());
            seq as u32
        }

        fn pop(&mut self) -> Option<(SimTime, u32)> {
            let Reverse((t, seq)) = self.heap.pop()?;
            self.now = t;
            Some((t, seq as u32))
        }
    }

    /// Apply `ops` to both queues, checking every pop; then cut at
    /// `now + cut` the way a crash does and compare what is left.
    fn run_script(ops: &[(u8, u16)], cut: u64) -> Result<(), TestCaseError> {
        let mut q = EventQueue::with_capacity(4);
        let mut r = Reference::default();
        let push = |q: &mut EventQueue, r: &mut Reference, at: SimTime| {
            let slot = r.push(at);
            q.push(at, slot);
        };
        for &op in ops {
            let now = r.now;
            match Op::decode(op) {
                Op::Burst(k) => {
                    for _ in 0..k {
                        push(&mut q, &mut r, now);
                    }
                }
                Op::Timer => push(&mut q, &mut r, SimTime(now.0 + TIMEOUT)),
                Op::Future(d) => push(&mut q, &mut r, SimTime(now.0 + d as u64)),
                Op::Pop(k) => {
                    for _ in 0..k {
                        let before = r.now;
                        prop_assert_eq!(q.peek_time(), r.heap.peek().map(|e| e.0 .0));
                        let (got, want) = (q.pop(), r.pop());
                        prop_assert_eq!(got, want);
                        prop_assert!(r.now >= before, "clock went backwards");
                    }
                }
            }
            prop_assert_eq!(q.len(), r.heap.len());
            prop_assert_eq!(q.is_empty(), r.heap.is_empty());
        }
        prop_assert_eq!(q.peak(), r.peak);

        let stop = SimTime(r.now.0 + cut);
        while let Some(t) = r.heap.peek().map(|e| e.0 .0) {
            if t > stop {
                break;
            }
            prop_assert_eq!(q.peek_time(), Some(t));
            prop_assert_eq!(q.pop(), r.pop());
        }
        prop_assert!(q.peek_time().is_none_or(|t| t > stop));
        let mut left: Vec<u32> = q.slots().collect();
        left.sort_unstable();
        let mut want: Vec<u32> = r.heap.iter().map(|e| e.0 .1 as u32).collect();
        want.sort_unstable();
        prop_assert_eq!(left, want);
        Ok(())
    }

    proptest! {
        #[test]
        fn pops_in_reference_order(
            ops in proptest::collection::vec((0u8..4, 0u16..1000), 0..200),
            cut in 0u64..800,
        ) {
            run_script(&ops, cut)?;
        }
    }

    #[test]
    fn lanes_take_their_shapes() {
        let mut q = EventQueue::with_capacity(4);
        q.push(SimTime(0), 0); // same instant
        q.push(SimTime(600), 1); // monotone
        q.push(SimTime(700), 2); // monotone
        q.push(SimTime(5), 3); // heap
        assert_eq!(q.lane_lens(), (1, 2, 1));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, s)| s)).collect();
        assert_eq!(order, vec![0, 3, 1, 2]);
        assert_eq!(q.peak(), 4);
    }

    #[test]
    fn earlier_timed_entries_at_the_clock_precede_the_fifo() {
        let mut q = EventQueue::with_capacity(4);
        q.push(SimTime(10), 0); // monotone, seq 0
        q.push(SimTime(10), 1); // monotone, seq 1
        assert_eq!(q.pop(), Some((SimTime(10), 0)));
        q.push(SimTime(10), 2); // same instant: after slot 1
        assert_eq!(q.pop(), Some((SimTime(10), 1)));
        assert_eq!(q.pop(), Some((SimTime(10), 2)));
        assert_eq!(q.pop(), None);
    }
}

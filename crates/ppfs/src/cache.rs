//! Block cache with pluggable eviction.
//!
//! One cache per compute node, shared across that node's files. A block is
//! keyed by (file, block index) and is either *present* or *in flight*
//! (fetch issued, arriving at a known time). In-flight blocks are pinned:
//! they cannot be evicted until they arrive, because readers may already be
//! counting on them.
//!
//! Blocks live in a slab of nodes threaded on one intrusive doubly-linked
//! recency list (head = least recent, tail = most recent), found through a
//! hashed key index. Lookup, insert and re-insert are O(1): a use moves the
//! block's node to the tail. The LRU victim is the first present block from
//! the head, the MRU victim the first from the tail, and the random victim
//! the k-th present block in head-to-tail order, k drawn uniformly over the
//! present blocks (counted incrementally). Pinned (in-flight) blocks are
//! skipped during victim search.

use crate::policy::Eviction;
use paragon_sim::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sio_core::hash::FastMap;

/// Cache block key: (file id, block index).
pub type BlockKey = (u32, u64);

/// State of a cached block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// Data present in the cache.
    Present,
    /// Fetch outstanding; data arrives at the given time.
    InFlight(SimTime),
}

/// Link value for "no neighbour" (list ends, empty list).
const NIL: u32 = u32::MAX;

/// One cached block: a slab slot on the recency list.
#[derive(Debug, Clone, Copy)]
struct Node {
    key: BlockKey,
    state: BlockState,
    /// Neighbour toward the head (less recently used).
    prev: u32,
    /// Neighbour toward the tail (more recently used).
    next: u32,
}

/// A fixed-capacity block cache.
#[derive(Debug)]
pub struct BlockCache {
    capacity: usize,
    eviction: Eviction,
    /// Key → slab slot of the block's node.
    index: FastMap<BlockKey, u32>,
    /// Node slab; slots freed by eviction are reused through `free`.
    slab: Vec<Node>,
    free: Vec<u32>,
    /// Least recently used block (`NIL` when empty).
    head: u32,
    /// Most recently used block (`NIL` when empty).
    tail: u32,
    /// Blocks in state `Present`: the random victim's draw range.
    present: usize,
    rng: StdRng,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl BlockCache {
    /// New cache with the given capacity in blocks.
    pub fn new(capacity: u32, eviction: Eviction, seed: u64) -> BlockCache {
        assert!(capacity > 0, "cache needs at least one block");
        let slots = capacity as usize + 1;
        BlockCache {
            capacity: capacity as usize,
            eviction,
            index: FastMap::with_capacity_and_hasher(slots, Default::default()),
            slab: Vec::with_capacity(slots),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            present: 0,
            rng: StdRng::seed_from_u64(seed),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.slab[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.slab[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n as usize].prev = prev,
        }
    }

    fn push_tail(&mut self, slot: u32) {
        let node = &mut self.slab[slot as usize];
        node.prev = self.tail;
        node.next = NIL;
        match self.tail {
            NIL => self.head = slot,
            t => self.slab[t as usize].next = slot,
        }
        self.tail = slot;
    }

    /// Make `slot` the most recently used block.
    fn touch(&mut self, slot: u32) {
        if self.tail != slot {
            self.unlink(slot);
            self.push_tail(slot);
        }
    }

    /// Slots of present (evictable) blocks, from the head (`forward`) or
    /// from the tail.
    fn present_slots(&self, forward: bool) -> impl Iterator<Item = u32> + '_ {
        let start = if forward { self.head } else { self.tail };
        std::iter::successors((start != NIL).then_some(start), move |&s| {
            let node = &self.slab[s as usize];
            let next = if forward { node.next } else { node.prev };
            (next != NIL).then_some(next)
        })
        .filter(|&s| self.slab[s as usize].state == BlockState::Present)
    }

    /// Look up a block, counting hit/miss statistics and refreshing
    /// recency. In-flight blocks count as hits (the fetch is already paid
    /// for).
    pub fn lookup(&mut self, key: BlockKey) -> Option<BlockState> {
        match self.index.get(&key) {
            Some(&slot) => {
                self.hits += 1;
                self.touch(slot);
                Some(self.slab[slot as usize].state)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Peek without statistics or recency update.
    pub fn peek(&self, key: BlockKey) -> Option<BlockState> {
        self.index.get(&key).map(|&s| self.slab[s as usize].state)
    }

    /// Insert a block (evicting if full). In-flight blocks are pinned and
    /// never chosen for eviction. Re-inserting a tracked block replaces its
    /// state and makes it the most recently used.
    pub fn insert(&mut self, key: BlockKey, state: BlockState) {
        let present = usize::from(state == BlockState::Present);
        if let Some(&slot) = self.index.get(&key) {
            let node = &mut self.slab[slot as usize];
            self.present = self.present + present - usize::from(node.state == BlockState::Present);
            node.state = state;
            self.touch(slot);
            return;
        }
        if self.index.len() >= self.capacity {
            self.evict_one();
        }
        let node = Node {
            key,
            state,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = node;
                s
            }
            None => {
                self.slab.push(node);
                (self.slab.len() - 1) as u32
            }
        };
        self.index.insert(key, slot);
        self.present += present;
        self.push_tail(slot);
    }

    /// Mark an in-flight block as arrived.
    pub fn mark_present(&mut self, key: BlockKey) {
        if let Some(&slot) = self.index.get(&key) {
            let node = &mut self.slab[slot as usize];
            if node.state != BlockState::Present {
                node.state = BlockState::Present;
                self.present += 1;
            }
        }
    }

    fn evict_one(&mut self) {
        let victim = match self.eviction {
            Eviction::Lru => self.present_slots(true).next(),
            Eviction::Mru => self.present_slots(false).next(),
            Eviction::Random if self.present == 0 => None,
            Eviction::Random => {
                let k = self.rng.random_range(0..self.present);
                self.present_slots(true).nth(k)
            }
        };
        if let Some(slot) = victim {
            self.unlink(slot);
            self.index.remove(&self.slab[slot as usize].key);
            self.free.push(slot);
            self.present -= 1;
            self.evictions += 1;
        }
        // If everything is pinned in flight, the cache transiently exceeds
        // capacity; this is bounded by the prefetch depth.
    }

    /// Blocks currently tracked (present + in flight).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// (hits, misses, evictions).
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }
}

#[cfg(test)]
mod oracle {
    //! The cache as it was before the slab/list rewrite — a `HashMap` of
    //! entries plus a `BTreeMap` recency index keyed by a use tick — kept
    //! as the reference the rewrite must match decision for decision.

    use super::{BlockKey, BlockState};
    use crate::policy::Eviction;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeMap, HashMap};

    #[derive(Debug, Clone, Copy)]
    struct Entry {
        state: BlockState,
        last_use: u64,
    }

    #[derive(Debug)]
    pub struct OracleCache {
        capacity: usize,
        eviction: Eviction,
        entries: HashMap<BlockKey, Entry>,
        order: BTreeMap<u64, BlockKey>,
        tick: u64,
        rng: StdRng,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl OracleCache {
        pub fn new(capacity: u32, eviction: Eviction, seed: u64) -> OracleCache {
            OracleCache {
                capacity: capacity as usize,
                eviction,
                entries: HashMap::new(),
                order: BTreeMap::new(),
                tick: 0,
                rng: StdRng::seed_from_u64(seed),
                hits: 0,
                misses: 0,
                evictions: 0,
            }
        }

        fn touch(&mut self, key: BlockKey) {
            self.tick += 1;
            if let Some(e) = self.entries.get_mut(&key) {
                self.order.remove(&e.last_use);
                e.last_use = self.tick;
                self.order.insert(self.tick, key);
            }
        }

        pub fn lookup(&mut self, key: BlockKey) -> Option<BlockState> {
            let state = self.entries.get(&key).map(|e| e.state);
            match state {
                Some(s) => {
                    self.hits += 1;
                    self.touch(key);
                    Some(s)
                }
                None => {
                    self.misses += 1;
                    None
                }
            }
        }

        pub fn peek(&self, key: BlockKey) -> Option<BlockState> {
            self.entries.get(&key).map(|e| e.state)
        }

        pub fn insert(&mut self, key: BlockKey, state: BlockState) {
            self.tick += 1;
            if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
                self.evict_one();
            }
            let tick = self.tick;
            let entry = Entry {
                state,
                last_use: tick,
            };
            if let Some(old) = self.entries.insert(key, entry) {
                self.order.remove(&old.last_use);
            }
            self.order.insert(tick, key);
        }

        pub fn mark_present(&mut self, key: BlockKey) {
            if let Some(e) = self.entries.get_mut(&key) {
                e.state = BlockState::Present;
            }
        }

        fn evict_one(&mut self) {
            let present = |k: &BlockKey| self.entries[k].state == BlockState::Present;
            let victim: Option<BlockKey> = match self.eviction {
                Eviction::Lru => self.order.values().copied().find(present),
                Eviction::Mru => self.order.values().rev().copied().find(present),
                Eviction::Random => {
                    let keys: Vec<BlockKey> =
                        self.order.values().copied().filter(present).collect();
                    if keys.is_empty() {
                        None
                    } else {
                        Some(keys[self.rng.random_range(0..keys.len())])
                    }
                }
            };
            if let Some(k) = victim {
                if let Some(e) = self.entries.remove(&k) {
                    self.order.remove(&e.last_use);
                }
                self.evictions += 1;
            }
        }

        pub fn len(&self) -> usize {
            self.entries.len()
        }

        pub fn stats(&self) -> (u64, u64, u64) {
            (self.hits, self.misses, self.evictions)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::OracleCache;
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn cache(cap: u32, ev: Eviction) -> BlockCache {
        BlockCache::new(cap, ev, 42)
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut c = cache(4, Eviction::Lru);
        assert_eq!(c.lookup((0, 0)), None);
        c.insert((0, 0), BlockState::Present);
        assert_eq!(c.lookup((0, 0)), Some(BlockState::Present));
        let (h, m, _) = c.stats();
        assert_eq!((h, m), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = cache(2, Eviction::Lru);
        c.insert((0, 1), BlockState::Present);
        c.insert((0, 2), BlockState::Present);
        c.lookup((0, 1)); // refresh block 1
        c.insert((0, 3), BlockState::Present); // evicts block 2
        assert!(c.peek((0, 1)).is_some());
        assert!(c.peek((0, 2)).is_none());
        assert!(c.peek((0, 3)).is_some());
    }

    #[test]
    fn mru_evicts_most_recent() {
        let mut c = cache(2, Eviction::Mru);
        c.insert((0, 1), BlockState::Present);
        c.insert((0, 2), BlockState::Present);
        c.lookup((0, 1));
        c.insert((0, 3), BlockState::Present); // evicts block 1 (most recent)
        assert!(c.peek((0, 1)).is_none());
        assert!(c.peek((0, 2)).is_some());
    }

    #[test]
    fn mru_wins_on_cyclic_scans_larger_than_cache() {
        // Scan blocks 0..10 cyclically with an 8-block cache: LRU always
        // evicts the block about to be reused; MRU retains a stable prefix.
        let run = |ev: Eviction| {
            let mut c = cache(8, ev);
            let mut hits = 0;
            for _pass in 0..5 {
                for b in 0..10u64 {
                    if c.lookup((0, b)).is_some() {
                        hits += 1;
                    } else {
                        c.insert((0, b), BlockState::Present);
                    }
                }
            }
            hits
        };
        assert!(run(Eviction::Mru) > run(Eviction::Lru));
    }

    #[test]
    fn inflight_blocks_are_pinned() {
        let mut c = cache(2, Eviction::Lru);
        c.insert((0, 1), BlockState::InFlight(SimTime(100)));
        c.insert((0, 2), BlockState::InFlight(SimTime(100)));
        // Nothing evictable: insert still succeeds (transient overflow).
        c.insert((0, 3), BlockState::Present);
        assert_eq!(c.len(), 3);
        assert!(c.peek((0, 1)).is_some());
        c.mark_present((0, 1));
        c.insert((0, 4), BlockState::Present); // now block 1 or 3 can go
        let (_, _, ev) = c.stats();
        assert!(ev >= 1);
    }

    #[test]
    fn mark_present_transitions_state() {
        let mut c = cache(2, Eviction::Lru);
        c.insert((7, 9), BlockState::InFlight(SimTime(5)));
        c.mark_present((7, 9));
        assert_eq!(c.peek((7, 9)), Some(BlockState::Present));
        // marking a missing block is a no-op
        c.mark_present((9, 9));
        assert!(c.peek((9, 9)).is_none());
    }

    #[test]
    fn random_eviction_stays_within_capacity() {
        let mut c = cache(8, Eviction::Random);
        for b in 0..100u64 {
            c.insert((0, b), BlockState::Present);
        }
        assert!(c.len() <= 8);
    }

    #[test]
    fn reinsert_same_key_does_not_grow_or_corrupt_order() {
        let mut c = cache(4, Eviction::Lru);
        for _ in 0..10 {
            c.insert((0, 1), BlockState::Present);
        }
        assert_eq!(c.len(), 1);
        // Index and entries stay consistent under heavy churn.
        for b in 0..100u64 {
            c.insert((0, b % 6), BlockState::Present);
            if let Some(s) = c.lookup((0, b % 3)) {
                assert_eq!(s, BlockState::Present);
            }
        }
        assert!(c.len() <= 4);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_capacity_panics() {
        let _ = cache(0, Eviction::Lru);
    }

    /// One cache operation over a small key space (3 files × 12 blocks),
    /// so hits, re-inserts and evictions are all frequent.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Lookup(BlockKey),
        Peek(BlockKey),
        Insert(BlockKey, BlockState),
        MarkPresent(BlockKey),
        /// Re-insert the i-th (mod count) live key, in key order.
        Reinsert(usize, BlockState),
    }

    /// Raw draw for one op: (kind, file, block, state, live-key index).
    type RawOp = (u8, u32, u64, u64, usize);

    fn raw_ops(max: usize) -> impl Strategy<Value = Vec<RawOp>> {
        vec(
            (0u8..10, 0u32..3, 0u64..12, 0u64..1_000, 0usize..64),
            1..max,
        )
    }

    fn decode(raw: &[RawOp]) -> Vec<Op> {
        raw.iter()
            .map(|&(kind, file, block, t, i)| {
                let key = (file, block);
                let state = if t % 2 == 0 {
                    BlockState::Present
                } else {
                    BlockState::InFlight(SimTime(t))
                };
                match kind {
                    0..=2 => Op::Lookup(key),
                    3 => Op::Peek(key),
                    4..=6 => Op::Insert(key, state),
                    7 | 8 => Op::MarkPresent(key),
                    _ => Op::Reinsert(i, state),
                }
            })
            .collect()
    }

    /// Drive the cache and the oracle with the same ops under every
    /// eviction policy at the same seed; every return value, `stats()` and
    /// `len()` must agree after every op. With `pin_all`, every insert is
    /// in flight and nothing ever arrives, so the caches run past capacity
    /// with no evictable block.
    fn check_against_oracle(capacity: u32, seed: u64, ops: &[Op], pin_all: bool) {
        let pin = |s: BlockState| match s {
            BlockState::Present if pin_all => BlockState::InFlight(SimTime(1)),
            s => s,
        };
        for ev in [Eviction::Lru, Eviction::Mru, Eviction::Random] {
            let mut c = BlockCache::new(capacity, ev, seed);
            let mut o = OracleCache::new(capacity, ev, seed);
            let mut seen: Vec<BlockKey> = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    Op::Lookup(k) => assert_eq!(c.lookup(k), o.lookup(k), "{ev:?} op {i}"),
                    Op::Peek(k) => assert_eq!(c.peek(k), o.peek(k), "{ev:?} op {i}"),
                    Op::Insert(k, s) => {
                        c.insert(k, pin(s));
                        o.insert(k, pin(s));
                        seen.push(k);
                    }
                    Op::MarkPresent(k) if !pin_all => {
                        c.mark_present(k);
                        o.mark_present(k);
                    }
                    Op::MarkPresent(_) => {}
                    Op::Reinsert(n, s) => {
                        seen.sort_unstable();
                        seen.dedup();
                        let live: Vec<BlockKey> = seen
                            .iter()
                            .copied()
                            .filter(|&k| o.peek(k).is_some())
                            .collect();
                        if let Some(&k) = live.get(n % live.len().max(1)) {
                            c.insert(k, pin(s));
                            o.insert(k, pin(s));
                        }
                    }
                }
                assert_eq!(c.stats(), o.stats(), "{ev:?} op {i} stats");
                assert_eq!(c.len(), o.len(), "{ev:?} op {i} len");
                assert_eq!(c.is_empty(), o.len() == 0);
                assert_eq!(c.present, c.present_slots(true).count());
            }
            for f in 0..3 {
                for b in 0..12 {
                    assert_eq!(c.peek((f, b)), o.peek((f, b)), "{ev:?} final ({f}, {b})");
                }
            }
        }
    }

    proptest! {
        /// The slab/list cache makes exactly the oracle's hit, miss and
        /// eviction decisions under LRU, MRU and seeded random eviction.
        #[test]
        fn matches_the_btree_oracle(capacity in 1u32..17, seed in any::<u64>(), raw in raw_ops(300)) {
            check_against_oracle(capacity, seed, &decode(&raw), false);
        }

        /// Same, with every block pinned in flight: no victim exists, the
        /// cache overflows transiently, and the random draw never fires.
        #[test]
        fn matches_the_oracle_when_everything_is_pinned(
            capacity in 1u32..17,
            seed in any::<u64>(),
            raw in raw_ops(200),
        ) {
            check_against_oracle(capacity, seed, &decode(&raw), true);
        }
    }
}

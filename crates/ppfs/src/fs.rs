//! The PPFS model: a policy-driven [`IoService`] over the same I/O-node
//! substrate as `sio-pfs`.
//!
//! Differences from PFS, all policy-driven and all directly comparable on
//! identical workloads:
//!
//! * **client-side pointers** — seeks are a local bookkeeping update, never
//!   a metadata RPC;
//! * **block cache** per node with configurable eviction; reads are served
//!   block-wise, hitting the cache, joining in-flight fetches, or fetching;
//! * **prefetching** — fixed readahead or adaptive (classification-driven)
//!   background fetches;
//! * **write-behind + aggregation** — writes complete into a dirty buffer
//!   that drains in the background as few large sequential requests (§5.2's
//!   policy pair).
//!
//! The shared mechanics — file registry, stripe segment pump with
//! stripe-pinned retry/replay, metadata RPCs, fault delivery, `Sync`
//! parking, and interval tracing — are the embedded [`FsCore`]'s; this
//! module is the PPFS policy layer (caching, prefetch, write-behind,
//! transfer routing, the fate of dirty data a crash loses) on top.
//!
//! Tracing matches PFS: the application-visible interval of every call is
//! recorded, so the paper's tables can be regenerated for either file
//! system and compared (DESIGN.md experiment X1).

use crate::advice::FileAdvice;
use crate::cache::{BlockCache, BlockState};
use crate::policy::PolicyConfig;
use crate::prefetch::StreamPrefetcher;
use crate::write_behind::{DirtyBuffer, Extent};
use paragon_sim::engine::{IoService, Sched};
use paragon_sim::fault::FaultSchedule;
use paragon_sim::program::{IoFault, IoRequest, IoToken, IoVerb};
use paragon_sim::{MachineConfig, NodeId, SimDuration, SimTime};
use sio_core::hash::{FastMap, FastSet};
use sio_core::trace::TraceSink;
use sio_fskit::mode::AccessMode;
use sio_fskit::pump::FailoverPolicy;
use sio_fskit::{Fired, FsCore, Member, SHORT_PATH};

/// Running statistics of a PPFS instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PpfsStats {
    /// Application reads served entirely from cache.
    pub reads_hit: u64,
    /// Application reads that had to fetch at least one block.
    pub reads_missed: u64,
    /// Blocks fetched on behalf of prefetch suggestions.
    pub prefetched_blocks: u64,
    /// Application writes absorbed by the write-behind buffer.
    pub writes_buffered: u64,
    /// Extents written back by flushes.
    pub flush_extents: u64,
    /// Bytes written back by flushes.
    pub flushed_bytes: u64,
    /// Stripe segments submitted to I/O nodes (all causes).
    pub segments: u64,
    /// Blocks served from an I/O-node server cache (two-level buffering).
    pub server_hits: u64,
    /// Blocks that had to go to disk despite the server cache.
    pub server_misses: u64,
    /// Write-behind bytes that were in flight or queued at an I/O node when
    /// it crashed (exposure of buffered dirty data to failures).
    pub dirty_bytes_lost: u64,
    /// Segments resubmitted after a crashed node recovered (replay-based
    /// recovery of lost write-behind data).
    pub replayed_segments: u64,
    /// Segments completed by an array that had lost redundancy (a second
    /// member failure): the returned data could not be reconstructed.
    pub data_loss_segments: u64,
    /// The subset of `dirty_bytes_lost` on files covered by a durable
    /// checkpoint ([`Ppfs::mark_checkpoint_covered`]): data the application
    /// can regenerate by restarting from its last committed epoch, as
    /// opposed to genuinely lost work.
    pub dirty_bytes_lost_checkpointed: u64,
}

#[derive(Debug)]
enum Transfer {
    /// Block fetch into `node`'s cache (demand or prefetch).
    Fetch {
        node: NodeId,
        file: u32,
        blocks: Vec<u64>,
    },
    /// A write that completes one op: an application write-through
    /// (write-behind disabled), or a burst-log drain extent owned by the
    /// log tier (synthetic asynchronous token: no trace event).
    Write { file: u32, m: Member },
    /// Background write-back of dirty extents.
    Flush { file: u32 },
}

impl Transfer {
    fn file(&self) -> u32 {
        match self {
            Transfer::Fetch { file, .. }
            | Transfer::Write { file, .. }
            | Transfer::Flush { file } => *file,
        }
    }
}

/// An application read waiting for its blocks.
#[derive(Debug)]
struct ReadPending {
    file: u32,
    m: Member,
    blocks_left: u32,
}

/// The PPFS file system.
pub struct Ppfs {
    /// The shared substrate. Its pump is stripe-pinned: a down node parks
    /// segments for replay, a full queue retries forever with capped
    /// backoff. Timer ids: per-I/O-node completions, the reserved flush
    /// timer, then the dynamic lane (server hits, faults, retries).
    pub core: FsCore,
    policy: PolicyConfig,
    seed: u64,
    caches: FastMap<NodeId, BlockCache>,
    prefetchers: FastMap<(NodeId, u32), StreamPrefetcher>,
    dirty: FastMap<(NodeId, u32), DirtyBuffer>,
    /// In-flight transfers: id → (segments left, transfer).
    transfers: FastMap<u64, (u32, Transfer)>,
    next_transfer: u64,
    reads: FastMap<u64, ReadPending>,
    next_read: u64,
    /// (node, file, block) -> read ids waiting for the block.
    block_waiters: FastMap<(NodeId, u32, u64), Vec<u64>>,
    flush_timer_armed: bool,
    stats: PpfsStats,
    /// Per-I/O-node server caches (empty when disabled).
    server_caches: Vec<BlockCache>,
    /// Pending server-cache hit deliveries: timer id -> (node, file, blocks).
    fetch_hits: FastMap<u64, (NodeId, u32, Vec<u64>)>,
    /// Per-file policy advice (paper §10: advertised access patterns).
    advice: FastMap<u32, FileAdvice>,
    /// Files whose contents are reconstructible from a durable checkpoint
    /// (splits the dirty-loss accounting into checkpointed vs lost work).
    checkpoint_covered: FastSet<u32>,
}

impl Ppfs {
    /// Build a PPFS over the machine with the given policy, tracing into
    /// `sink` (owned; take the frozen trace back with
    /// [`FsCore::finish_trace`] after the run).
    pub fn new(machine: &MachineConfig, policy: PolicyConfig, sink: TraceSink) -> Ppfs {
        Ppfs::with_faults(machine, policy, sink, FaultSchedule::new())
    }

    /// Build a PPFS with an injected fault schedule. An empty schedule is
    /// exactly [`Ppfs::new`]: no fault timers are armed and the run is
    /// bit-identical to a healthy one.
    pub fn with_faults(
        machine: &MachineConfig,
        policy: PolicyConfig,
        sink: TraceSink,
        schedule: FaultSchedule,
    ) -> Ppfs {
        // One reserved timer id: the periodic write-behind flush.
        let core = FsCore::new(machine, sink, schedule, FailoverPolicy::StripePinned, 1);
        let server_caches: Vec<BlockCache> = if policy.server_cache_blocks > 0 {
            (0..core.pump.len())
                .map(|i| {
                    BlockCache::new(
                        policy.server_cache_blocks,
                        policy.eviction,
                        machine.seed ^ (0xA5A5_0000 + i as u64),
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        Ppfs {
            core,
            policy,
            seed: machine.seed,
            caches: FastMap::default(),
            prefetchers: FastMap::default(),
            dirty: FastMap::default(),
            transfers: FastMap::default(),
            next_transfer: 0,
            reads: FastMap::default(),
            next_read: 0,
            block_waiters: FastMap::default(),
            flush_timer_armed: false,
            stats: PpfsStats::default(),
            server_caches,
            fetch_hits: FastMap::default(),
            advice: FastMap::default(),
            checkpoint_covered: FastSet::default(),
        }
    }

    /// Declare `file` reconstructible from a durable checkpoint: dirty
    /// write-behind bytes of this file lost to a node crash are counted in
    /// `dirty_bytes_lost_checkpointed` as well as the `dirty_bytes_lost`
    /// total.
    pub fn mark_checkpoint_covered(&mut self, file: u32) {
        self.checkpoint_covered.insert(file);
    }

    /// Advertise expected access behavior for one file (paper §10). The
    /// advice overrides the matching pieces of the global policy for that
    /// file only.
    pub fn advise(&mut self, file: u32, advice: FileAdvice) {
        self.advice.insert(file, advice);
    }

    /// The effective policy for one file (global policy with any advice
    /// applied).
    pub fn policy_for(&self, file: u32) -> PolicyConfig {
        match self.advice.get(&file) {
            Some(a) => a.apply(&self.policy),
            None => self.policy,
        }
    }

    /// Running statistics (backend counters merged with the shared pump's).
    pub fn stats(&self) -> PpfsStats {
        let mut s = self.stats;
        let p = self.core.pump.stats();
        s.segments += p.segments;
        s.replayed_segments += p.replayed;
        s
    }

    /// Accept one coalesced burst-log drain extent as a background write
    /// through the stripe-pinned pump (capped backoff, park/replay on
    /// crash). The caller owns `token`; no application event is traced.
    #[allow(clippy::too_many_arguments)]
    pub fn submit_drain(
        &mut self,
        node: NodeId,
        now: SimTime,
        file: u32,
        offset: u64,
        bytes: u64,
        token: IoToken,
        sched: &mut Sched,
    ) {
        self.core.files.state(file).extend_to(offset + bytes);
        let m = Member {
            token,
            node,
            issued: now,
            is_async: true,
            offset,
            bytes,
        };
        if bytes == 0 {
            // Degenerate extent: nothing to stage, complete immediately.
            self.core
                .recorder
                .complete_data(sched, file, true, &m, now, 0, None);
            return;
        }
        self.start_transfer(now, Transfer::Write { file, m }, offset, bytes, true, sched);
    }

    /// The pattern the adaptive prefetcher has inferred for a stream, if the
    /// stream exists.
    pub fn inferred_pattern(
        &self,
        node: NodeId,
        file: u32,
    ) -> Option<sio_core::classify::AccessPattern> {
        self.prefetchers.get(&(node, file)).map(|p| p.pattern())
    }

    fn timer_flush_id(&self) -> u64 {
        self.core.pump.len() as u64
    }

    fn cache_for(&mut self, node: NodeId) -> &mut BlockCache {
        let policy = self.policy;
        let seed = self.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(node as u64 + 1));
        self.caches
            .entry(node)
            .or_insert_with(|| BlockCache::new(policy.cache_blocks, policy.eviction, seed))
    }

    /// Start transfer `t` over `[offset, offset + bytes)` of its file:
    /// stage the extent through the stripe-pinned pump and submit every
    /// segment (retried or parked for replay, never given up). An extent
    /// with nothing to stage completes at once — with a typed fault when it
    /// lies beyond the arrays, which writes are checked against at issue.
    fn start_transfer(
        &mut self,
        now: SimTime,
        t: Transfer,
        offset: u64,
        bytes: u64,
        write: bool,
        sched: &mut Sched,
    ) {
        let tid = self.next_transfer;
        self.next_transfer += 1;
        let core = &mut self.core;
        let slot_base = core.files.slot_base(t.file());
        let capacity = core.cfg.array_capacity;
        let layout = &core.cfg.layout;
        let (segs, fault) = match core
            .pump
            .stage_extent(layout, slot_base, capacity, offset, bytes, write, tid)
        {
            Ok(segs) => (segs, None),
            Err(fault) => (Vec::new(), Some(fault)),
        };
        for &(io, seg) in &segs {
            let gave_up = core
                .pump
                .submit_seg(now, io, seg, 0, &mut core.timers, sched);
            debug_assert!(gave_up.is_none(), "stripe-pinned submission cannot give up");
        }
        if segs.is_empty() {
            self.finish_transfer(now, t, fault, sched);
        } else {
            self.transfers.insert(tid, (segs.len() as u32, t));
        }
    }

    /// I/O node owning a file block (block start decides for blocks that
    /// straddle stripe units).
    fn block_owner(&self, block: u64) -> usize {
        self.core
            .cfg
            .layout
            .io_node_of(block * self.policy.block_size) as usize
    }

    /// Fetch a run of blocks of `file` into `node`'s cache. Blocks resident
    /// in a server cache are satisfied at server latency without touching
    /// the disk queue (two-level buffering, §8).
    fn fetch_blocks(
        &mut self,
        now: SimTime,
        node: NodeId,
        file: u32,
        blocks: Vec<u64>,
        prefetch: bool,
        sched: &mut Sched,
    ) {
        debug_assert!(!blocks.is_empty());
        let bs = self.policy.block_size;
        // Mark everything in flight first.
        for &b in &blocks {
            self.cache_for(node)
                .insert((file, b), BlockState::InFlight(now));
        }
        if prefetch {
            self.stats.prefetched_blocks += blocks.len() as u64;
        }
        // Split into server-cache hits and disk blocks.
        let mut disk_blocks: Vec<u64> = Vec::new();
        let mut hit_blocks: Vec<u64> = Vec::new();
        if self.server_caches.is_empty() {
            disk_blocks = blocks;
        } else {
            for b in blocks {
                let owner = self.block_owner(b);
                if self.server_caches[owner].lookup((file, b)).is_some() {
                    hit_blocks.push(b);
                } else {
                    disk_blocks.push(b);
                }
            }
        }
        if !hit_blocks.is_empty() {
            self.stats.server_hits += hit_blocks.len() as u64;
            let timer = self.core.timers.alloc();
            let at = now + self.core.cfg.io_sw.server_per_request;
            self.fetch_hits.insert(timer, (node, file, hit_blocks));
            sched.timer(at, timer);
        }
        if disk_blocks.is_empty() {
            return;
        }
        self.stats.server_misses += disk_blocks.len() as u64;
        // Fetch contiguous disk runs; server-cache filtering may have
        // fragmented the original run.
        let mut run: Vec<u64> = Vec::new();
        let submit_run = |this: &mut Ppfs, run: Vec<u64>, sched: &mut Sched| {
            if run.is_empty() {
                return;
            }
            let offset = run[0] * bs;
            let bytes = run.len() as u64 * bs;
            let t = Transfer::Fetch {
                node,
                file,
                blocks: run,
            };
            this.start_transfer(now, t, offset, bytes, false, sched);
        };
        for b in disk_blocks {
            if run.last().is_some_and(|&p| p + 1 != b) {
                let r = std::mem::take(&mut run);
                submit_run(self, r, sched);
            }
            run.push(b);
        }
        submit_run(self, run, sched);
    }

    /// Blocks arrived for `node`: mark present (client + server caches) and
    /// complete any reads that were waiting on them.
    fn complete_blocks(
        &mut self,
        now: SimTime,
        node: NodeId,
        file: u32,
        blocks: Vec<u64>,
        install_server: bool,
        sched: &mut Sched,
    ) {
        let hit_cost = SimDuration::from_secs_f64(self.policy.hit_cost_secs);
        for b in blocks {
            self.cache_for(node).mark_present((file, b));
            if install_server && !self.server_caches.is_empty() {
                let owner = self.block_owner(b);
                self.server_caches[owner].insert((file, b), BlockState::Present);
            }
            let Some(waiters) = self.block_waiters.remove(&(node, file, b)) else {
                continue;
            };
            for rid in waiters {
                let ready = {
                    let Some(r) = self.reads.get_mut(&rid) else {
                        continue;
                    };
                    r.blocks_left -= 1;
                    r.blocks_left == 0
                };
                if ready {
                    let r = self.reads.remove(&rid).unwrap();
                    let rate = self.core.cfg.io_sw.client_byte_rate;
                    let (m, core) = (r.m, &mut self.core);
                    let done = core.client.copy_done(m.node, now + hit_cost, m.bytes, rate);
                    core.recorder
                        .complete_data(sched, r.file, false, &m, done, m.bytes, None);
                }
            }
        }
    }

    /// Flush one (node, file) dirty buffer to the I/O nodes.
    fn flush_dirty(&mut self, now: SimTime, node: NodeId, file: u32, sched: &mut Sched) {
        let Some(buf) = self.dirty.get_mut(&(node, file)) else {
            return;
        };
        if buf.is_empty() {
            return;
        }
        let aggregation = self.policy_for(file).aggregation;
        let extents = {
            let buf = self.dirty.get_mut(&(node, file)).unwrap();
            buf.drain(aggregation, self.policy.block_size)
        };
        for Extent { offset, bytes } in extents {
            self.start_transfer(now, Transfer::Flush { file }, offset, bytes, true, sched);
            self.stats.flush_extents += 1;
            self.stats.flushed_bytes += bytes;
        }
    }

    fn flush_all(&mut self, now: SimTime, sched: &mut Sched) {
        // Sorted, not map order: with several dirty buffers the flush order
        // decides segment submission order, and map order varies per
        // process (seeded `RandomState`), which would break bit-for-bit
        // reproducibility.
        let mut keys: Vec<(NodeId, u32)> = self
            .dirty
            .iter()
            .filter(|(_, b)| !b.is_empty())
            .map(|(k, _)| *k)
            .collect();
        keys.sort_unstable();
        for (node, file) in keys {
            self.flush_dirty(now, node, file, sched);
        }
    }

    fn arm_flush_timer(&mut self, now: SimTime, sched: &mut Sched) {
        if !self.flush_timer_armed && self.policy.write_behind {
            self.flush_timer_armed = true;
            let at = now + SimDuration::from_secs_f64(self.policy.flush_interval_secs);
            sched.timer(at, self.timer_flush_id());
        }
    }

    /// Handle an application read.
    #[allow(clippy::too_many_arguments)]
    fn read_op(
        &mut self,
        now: SimTime,
        token: IoToken,
        node: NodeId,
        file: u32,
        offset: u64,
        bytes: u64,
        is_async: bool,
        sched: &mut Sched,
    ) {
        let eff = bytes.min(self.core.files.len_of(file).saturating_sub(offset));
        let hit_cost = SimDuration::from_secs_f64(self.policy.hit_cost_secs);
        let rate = self.core.cfg.io_sw.client_byte_rate;
        let m = Member {
            token,
            node,
            issued: now,
            is_async,
            offset,
            bytes: eff,
        };
        if eff == 0 {
            let done = now + hit_cost;
            self.core
                .recorder
                .complete_data(sched, file, false, &m, done, 0, None);
            return;
        }
        let bs = self.policy.block_size;
        let first = offset / bs;
        let last = (offset + eff - 1) / bs;
        let mut missing: Vec<u64> = Vec::new();
        let mut waiting: Vec<u64> = Vec::new();
        for b in first..=last {
            match self.cache_for(node).lookup((file, b)) {
                Some(BlockState::Present) => {}
                Some(BlockState::InFlight(_)) => waiting.push(b),
                None => missing.push(b),
            }
        }
        let blocks_left = (missing.len() + waiting.len()) as u32;
        if blocks_left == 0 {
            self.stats.reads_hit += 1;
            let done = self.core.client.copy_done(node, now + hit_cost, eff, rate);
            self.core
                .recorder
                .complete_data(sched, file, false, &m, done, eff, None);
        } else {
            self.stats.reads_missed += 1;
            let read_id = self.next_read;
            self.next_read += 1;
            // Pending before any fetch starts: a fetch with nothing to
            // stage completes its blocks at once.
            let r = ReadPending {
                file,
                m,
                blocks_left,
            };
            self.reads.insert(read_id, r);
            for &b in waiting.iter().chain(missing.iter()) {
                self.block_waiters
                    .entry((node, file, b))
                    .or_default()
                    .push(read_id);
            }
            // Fetch contiguous runs of missing blocks together.
            let mut run: Vec<u64> = Vec::new();
            for &b in &missing {
                if run.last().is_some_and(|&p| p + 1 != b) {
                    let r = std::mem::take(&mut run);
                    self.fetch_blocks(now, node, file, r, false, sched);
                }
                run.push(b);
            }
            if !run.is_empty() {
                self.fetch_blocks(now, node, file, run, false, sched);
            }
        }
        // Prefetch suggestions, bounded by the file length. The prefetch
        // policy may be overridden per file by advice.
        let suggestions = {
            let policy = self.policy_for(file).prefetch;
            let pf = self
                .prefetchers
                .entry((node, file))
                .or_insert_with(|| StreamPrefetcher::new(policy, bs));
            pf.on_access(offset, eff)
        };
        let file_len = self.core.files.len_of(file);
        for ext in suggestions {
            if ext.offset >= file_len {
                continue;
            }
            let pf_first = ext.offset / bs;
            let pf_last = (ext.offset + ext.bytes - 1).min(file_len - 1) / bs;
            let mut run: Vec<u64> = Vec::new();
            for b in pf_first..=pf_last {
                if self.cache_for(node).peek((file, b)).is_none() {
                    if run.last().is_some_and(|&p| p + 1 != b) {
                        let r = std::mem::take(&mut run);
                        self.fetch_blocks(now, node, file, r, true, sched);
                    }
                    run.push(b);
                }
            }
            if !run.is_empty() {
                self.fetch_blocks(now, node, file, run, true, sched);
            }
        }
    }

    /// Handle an application write.
    #[allow(clippy::too_many_arguments)]
    fn write_op(
        &mut self,
        now: SimTime,
        token: IoToken,
        node: NodeId,
        file: u32,
        offset: u64,
        bytes: u64,
        sched: &mut Sched,
    ) {
        let m = Member {
            token,
            node,
            issued: now,
            is_async: false,
            offset,
            bytes,
        };
        if !self.core.fits(file, offset, bytes) {
            // Beyond the arrays: a typed failure at issue, as on PFS and
            // CIO, never buffered or staged.
            self.core.stats.unavailable += 1;
            let fault = Some(IoFault::Unavailable);
            self.core
                .recorder
                .complete_data(sched, file, true, &m, now, 0, fault);
            return;
        }
        self.core.files.state(file).extend_to(offset + bytes);
        let rate = self.core.cfg.io_sw.client_byte_rate;
        if self.policy_for(file).write_behind {
            // Complete into the dirty buffer at copy cost.
            let ready = now + SimDuration::from_secs_f64(self.policy.hit_cost_secs);
            let done = self.core.client.copy_done(node, ready, bytes, rate);
            self.core
                .recorder
                .complete_data(sched, file, true, &m, done, bytes, None);
            self.dirty
                .entry((node, file))
                .or_default()
                .add(offset, bytes);
            self.stats.writes_buffered += 1;
            if self.dirty[&(node, file)].bytes() >= self.policy.high_water_bytes {
                self.flush_dirty(now, node, file, sched);
            }
            self.arm_flush_timer(now, sched);
        } else if bytes == 0 {
            // Nothing to move: a short software path only.
            let done = now + SHORT_PATH;
            self.core
                .recorder
                .complete_data(sched, file, true, &m, done, 0, None);
        } else {
            self.start_transfer(now, Transfer::Write { file, m }, offset, bytes, true, sched);
        }
        // Writes invalidate any cached copy of the blocks they touch.
        let bs = self.policy.block_size;
        if bytes > 0 {
            for b in offset / bs..=(offset + bytes - 1) / bs {
                // Re-inserting as Present models write-allocate caching.
                self.cache_for(node).insert((file, b), BlockState::Present);
                // The write passes through the owning server: write-allocate
                // there too (two-level buffering).
                if !self.server_caches.is_empty() {
                    let owner = self.block_owner(b);
                    self.server_caches[owner].insert((file, b), BlockState::Present);
                }
            }
        }
    }

    /// One segment of transfer `tid` landed.
    fn transfer_done(&mut self, now: SimTime, tid: u64, sched: &mut Sched) {
        let (left, _) = self.transfers.get_mut(&tid).expect("unknown transfer");
        *left -= 1;
        if *left == 0 {
            let (_, t) = self.transfers.remove(&tid).unwrap();
            self.finish_transfer(now, t, None, sched);
        }
    }

    /// A transfer's last segment landed (or it had nothing to stage, with
    /// `fault` when it lay beyond the arrays).
    fn finish_transfer(
        &mut self,
        now: SimTime,
        t: Transfer,
        fault: Option<IoFault>,
        sched: &mut Sched,
    ) {
        match t {
            Transfer::Fetch { node, file, blocks } => {
                self.complete_blocks(now, node, file, blocks, true, sched);
            }
            Transfer::Write { file, m } => {
                let bytes = if fault.is_some() { 0 } else { m.bytes };
                let rate = self.core.cfg.io_sw.client_byte_rate;
                let done = self.core.client.copy_done(m.node, now, bytes, rate);
                self.core
                    .recorder
                    .complete_data(sched, file, true, &m, done, bytes, fault);
                self.drain_syncs(file, now, sched);
            }
            Transfer::Flush { file } => self.drain_syncs(file, now, sched),
        }
    }

    /// Release the `Sync` waiters on `file` if its last write-back
    /// transfer just landed on the arrays.
    fn drain_syncs(&mut self, file: u32, now: SimTime, sched: &mut Sched) {
        let transfers = &self.transfers;
        self.core
            .drain_syncs(file, now, sched, &|f| writes_in_flight(transfers, f));
    }
}

/// Whether `file` still has write-back traffic in flight: flush transfers
/// (including segments parked at a crashed node awaiting replay — parked
/// dirty data is *not* durable), write-through application writes, or
/// log-tier drains.
fn writes_in_flight(transfers: &FastMap<u64, (u32, Transfer)>, file: u32) -> bool {
    transfers.values().any(|(_, t)| {
        matches!(t,
            Transfer::Flush { file: f } | Transfer::Write { file: f, .. } if *f == file)
    })
}

impl IoService for Ppfs {
    fn submit(
        &mut self,
        node: NodeId,
        now: SimTime,
        req: IoRequest,
        token: IoToken,
        is_async: bool,
        sched: &mut Sched,
    ) {
        let file = req.file;
        match req.verb {
            IoVerb::Open => {
                let mode = AccessMode::from_code(req.hint).unwrap_or(AccessMode::MUnix);
                self.core.open(now, token, node, file, mode, sched);
            }
            IoVerb::Close => {
                self.flush_dirty(now, node, file, sched);
                self.core.close(now, token, node, file, sched);
            }
            IoVerb::Seek => {
                // Client-managed pointers: always local, always cheap.
                let target = req.offset.expect("seek needs an offset");
                let done = now + SimDuration::from_micros(200);
                self.core
                    .seek_to(now, token, node, file, target, done, sched);
            }
            IoVerb::Flush => {
                self.flush_dirty(now, node, file, sched);
                self.core.flush(now, token, node, file, sched);
            }
            IoVerb::Sync => {
                // Commit: push every node's dirty write-behind data for
                // this file to the I/O nodes, then acknowledge only once
                // all of the file's write-back traffic (flushes and
                // write-through writes, including crash-parked segments
                // awaiting replay) has landed on the arrays. This is the
                // durability gap `Flush` leaves open — a flush returns at
                // software cost while its extents are still in flight.
                let mut keys: Vec<(NodeId, u32)> = self
                    .dirty
                    .iter()
                    .filter(|((_, f), b)| *f == file && !b.is_empty())
                    .map(|(k, _)| *k)
                    .collect();
                keys.sort_unstable();
                for (n, f) in keys {
                    self.flush_dirty(now, n, f, sched);
                }
                let busy = writes_in_flight(&self.transfers, file);
                self.core.sync(now, token, node, file, busy, sched);
            }
            IoVerb::Lsize => self.core.lsize(now, token, node, file, sched),
            IoVerb::Read | IoVerb::Write => {
                let st = self.core.files.state(file);
                let offset = st.advance_pointer(node, req.offset, req.bytes);
                if is_async {
                    self.core.trace_issue(now, node, file, offset, req.bytes);
                }
                if req.verb == IoVerb::Read {
                    self.read_op(now, token, node, file, offset, req.bytes, is_async, sched);
                } else {
                    self.write_op(now, token, node, file, offset, req.bytes, sched);
                }
            }
        }
    }

    fn on_start(&mut self, sched: &mut Sched) {
        self.core.on_start(sched);
    }

    fn on_timer(&mut self, now: SimTime, timer: u64, sched: &mut Sched) {
        // PPFS tracks its own transfers: the core never fails a request
        // here, so it never asks which writes PPFS holds.
        match self.core.on_timer(now, timer, sched, &|_| false) {
            Fired::Segment { owner, data_lost } => {
                if data_lost {
                    self.stats.data_loss_segments += 1;
                }
                self.transfer_done(now, owner, sched);
            }
            Fired::Lost(lost) => {
                // The core parked every lost segment for replay on
                // recovery. Flush segments carry write-behind data whose
                // application writes already completed — that is the
                // dirty-data exposure the X4 suite measures.
                for seg in lost {
                    let t = self
                        .core
                        .pump
                        .owner_of(seg.id)
                        .and_then(|tid| self.transfers.get(&tid));
                    if let Some((_, Transfer::Flush { file })) = t {
                        self.stats.dirty_bytes_lost += seg.bytes;
                        if self.checkpoint_covered.contains(file) {
                            self.stats.dirty_bytes_lost_checkpointed += seg.bytes;
                        }
                    }
                }
            }
            Fired::Foreign if timer == self.timer_flush_id() => {
                self.flush_timer_armed = false;
                self.flush_all(now, sched);
                // Re-arm while dirty data may still arrive (cheap: only when
                // something was flushed or remains buffered).
                if self.dirty.values().any(|b| !b.is_empty()) {
                    self.arm_flush_timer(now, sched);
                }
            }
            Fired::Foreign => {
                // Server-cache hit delivery: no server install (they came
                // from there).
                let (node, file, blocks) = self
                    .fetch_hits
                    .remove(&timer)
                    .unwrap_or_else(|| panic!("unknown timer {timer}"));
                self.complete_blocks(now, node, file, blocks, false, sched);
            }
            Fired::Handled | Fired::Finished(_) => {}
        }
    }

    fn issue_cost(&self, _node: NodeId, _req: &IoRequest) -> SimDuration {
        self.core.cfg.io_sw.async_issue
    }

    fn on_iowait(&mut self, node: NodeId, file: u32, wait_start: SimTime, wait_end: SimTime) {
        self.core.recorder.iowait(node, file, wait_start, wait_end);
    }

    fn on_run_end(&mut self, _now: SimTime) {
        // Account (but no longer time) any data still buffered: it would
        // reach disk during program teardown. Today this only accumulates
        // sums (order-independent), but drain in sorted order anyway so a
        // future per-extent effect cannot inherit map iteration order.
        let mut remaining: Vec<(NodeId, u32)> = self.dirty.keys().copied().collect();
        remaining.sort_unstable();
        for key in remaining {
            let aggregation = self.policy_for(key.1).aggregation;
            let block_size = self.policy.block_size;
            let buf = self.dirty.get_mut(&key).unwrap();
            if !buf.is_empty() {
                let extents = buf.drain(aggregation, block_size);
                for e in &extents {
                    self.stats.flushed_bytes += e.bytes;
                }
                self.stats.flush_extents += extents.len() as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Eviction;
    use paragon_sim::mesh::Mesh;
    use paragon_sim::program::{NodeProgram, ScriptOp, ScriptProgram};
    use paragon_sim::time::transfer_time;
    use paragon_sim::Engine;
    use sio_core::event::IoOp;
    use sio_core::trace::Trace;
    use sio_fskit::file::FileSpec;

    fn machine() -> MachineConfig {
        MachineConfig::tiny(4, 2)
    }

    fn open(file: u32) -> ScriptOp {
        ScriptOp::Io(IoRequest::open(file, AccessMode::MUnix.code()))
    }

    fn run(
        m: &MachineConfig,
        policy: PolicyConfig,
        files: Vec<FileSpec>,
        scripts: Vec<Vec<ScriptOp>>,
    ) -> (Trace, PpfsStats) {
        let mut fs = Ppfs::new(m, policy, TraceSink::new("ppfs-test"));
        for f in files {
            fs.core.register(f);
        }
        let programs: Vec<Box<dyn NodeProgram>> = scripts
            .into_iter()
            .map(|s| Box::new(ScriptProgram::new(s)) as Box<dyn NodeProgram>)
            .collect();
        let mut engine = Engine::new(
            Mesh::for_nodes(m.compute_nodes, m.io_nodes),
            m.comm,
            programs,
            fs,
        );
        engine.set_default_watchdog();
        let report = engine.run();
        assert!(report.clean(), "blocked: {:?}", report.blocked);
        let mut fs = engine.into_service();
        let stats = fs.stats();
        fs.core
            .sink_mut()
            .set_run_info(m.compute_nodes, report.wall.nanos());
        (fs.core.finish_trace(), stats)
    }

    #[test]
    fn cached_reread_is_fast() {
        let script = vec![
            open(0),
            ScriptOp::Io(IoRequest::read(0, 65536)),
            ScriptOp::Io(IoRequest::seek(0, 0)),
            ScriptOp::Io(IoRequest::read(0, 65536)),
        ];
        let (trace, stats) = run(
            &machine(),
            PolicyConfig::write_through(),
            vec![FileSpec::input("in", 1 << 20)],
            vec![script],
        );
        let durs: Vec<u64> = trace.of_op(IoOp::Read).map(|e| e.duration()).collect();
        assert_eq!(durs.len(), 2);
        // The cached reread pays only hit cost + client copy (~6.4 ms at the
        // calibrated 10.5 MB/s copy rate); the first read adds disk + queue.
        assert!(durs[1] * 4 < durs[0], "reread not cached: {durs:?}");
        let copy_ns = transfer_time(65536, 10.5e6).nanos();
        assert!(
            durs[1] < copy_ns * 2,
            "reread slower than copy bound: {durs:?}"
        );
        assert_eq!(stats.reads_hit, 1);
        assert_eq!(stats.reads_missed, 1);
    }

    #[test]
    fn write_behind_makes_small_writes_cheap() {
        let script = |wb: bool| {
            let mut ops = vec![open(0)];
            for i in 0..16u64 {
                ops.push(ScriptOp::Io(IoRequest::seek(0, i * 2048)));
                ops.push(ScriptOp::Io(IoRequest::write(0, 2048)));
            }
            let _ = wb;
            ops
        };
        let base = PolicyConfig::write_through();
        let (t_wt, _) = run(
            &machine(),
            base,
            vec![FileSpec::output("f")],
            vec![script(false)],
        );
        let (t_wb, stats) = run(
            &machine(),
            PolicyConfig::escat_tuned(),
            vec![FileSpec::output("f")],
            vec![script(true)],
        );
        let sum = |t: &Trace| -> u64 { t.of_op(IoOp::Write).map(|e| e.duration()).sum() };
        assert!(
            sum(&t_wb) * 5 < sum(&t_wt),
            "write-behind did not help: {} vs {}",
            sum(&t_wb),
            sum(&t_wt)
        );
        assert_eq!(stats.writes_buffered, 16);
        // Aggregation merged the contiguous region into few extents.
        assert!(stats.flush_extents <= 2, "extents: {}", stats.flush_extents);
        assert_eq!(stats.flushed_bytes, 16 * 2048);
    }

    #[test]
    fn aggregation_reduces_flush_extents() {
        // Strided dirty data: aggregation merges per contiguous run.
        let script = || {
            let mut ops = vec![open(0)];
            for i in 0..8u64 {
                ops.push(ScriptOp::Io(IoRequest::seek(0, i * 100_000)));
                ops.push(ScriptOp::Io(IoRequest::write(0, 2048)));
            }
            ops
        };
        let mut agg = PolicyConfig::escat_tuned();
        agg.high_water_bytes = u64::MAX; // flush only via timer/run-end
        let mut no_agg = agg;
        no_agg.aggregation = false;
        let (_, s_agg) = run(&machine(), agg, vec![FileSpec::output("f")], vec![script()]);
        let (_, s_no) = run(
            &machine(),
            no_agg,
            vec![FileSpec::output("f")],
            vec![script()],
        );
        // Disjoint strided extents: both have 8 extents, but with adjacent
        // writes aggregation shines; verify at least not worse here and
        // byte totals identical.
        assert!(s_agg.flush_extents <= s_no.flush_extents);
        assert_eq!(s_agg.flushed_bytes, s_no.flushed_bytes);
    }

    #[test]
    fn readahead_accelerates_sequential_scan() {
        let script = || {
            let mut ops = vec![open(0)];
            for _ in 0..32 {
                ops.push(ScriptOp::Io(IoRequest::read(0, 65536)));
            }
            ops
        };
        let (t_none, _) = run(
            &machine(),
            PolicyConfig::write_through(),
            vec![FileSpec::input("in", 4 << 20)],
            vec![script()],
        );
        let (t_ra, stats) = run(
            &machine(),
            PolicyConfig::readahead(4),
            vec![FileSpec::input("in", 4 << 20)],
            vec![script()],
        );
        let total = |t: &Trace| -> u64 { t.of_op(IoOp::Read).map(|e| e.duration()).sum() };
        assert!(
            total(&t_ra) < total(&t_none),
            "readahead did not help: {} vs {}",
            total(&t_ra),
            total(&t_none)
        );
        assert!(stats.prefetched_blocks > 0);
    }

    #[test]
    fn adaptive_matches_readahead_on_sequential_and_stays_quiet_on_random() {
        let seq_script = || {
            let mut ops = vec![open(0)];
            for _ in 0..32 {
                ops.push(ScriptOp::Io(IoRequest::read(0, 65536)));
            }
            ops
        };
        let (_, s_seq) = run(
            &machine(),
            PolicyConfig::adaptive(4),
            vec![FileSpec::input("in", 4 << 20)],
            vec![seq_script()],
        );
        assert!(s_seq.prefetched_blocks > 0);

        // Random offsets: adaptive must not waste fetches.
        let rnd_script = || {
            let offs = [31u64, 3, 47, 11, 59, 23, 7, 41, 17, 53];
            let mut ops = vec![open(0)];
            for &o in &offs {
                ops.push(ScriptOp::Io(IoRequest::seek(0, o * 65536)));
                ops.push(ScriptOp::Io(IoRequest::read(0, 4096)));
            }
            ops
        };
        let (_, s_rnd) = run(
            &machine(),
            PolicyConfig::adaptive(4),
            vec![FileSpec::input("in", 8 << 20)],
            vec![rnd_script()],
        );
        assert_eq!(s_rnd.prefetched_blocks, 0);
    }

    #[test]
    fn seeks_are_always_local() {
        let script = |n: u32| {
            vec![
                open(0),
                ScriptOp::Barrier(0),
                ScriptOp::Io(IoRequest::seek(0, n as u64 * 4096)),
            ]
        };
        let (trace, _) = run(
            &machine(),
            PolicyConfig::write_through(),
            vec![FileSpec::output("f")],
            (0..4).map(script).collect(),
        );
        for ev in trace.of_op(IoOp::Seek) {
            assert!(
                ev.duration() < 1_000_000,
                "seek too slow: {}",
                ev.duration()
            );
        }
    }

    #[test]
    fn mru_cache_policy_applies() {
        // Cyclic scan over 12 blocks with an 8-block cache.
        let script = || {
            let mut ops = vec![open(0)];
            for _pass in 0..4 {
                ops.push(ScriptOp::Io(IoRequest::seek(0, 0)));
                for _ in 0..12 {
                    ops.push(ScriptOp::Io(IoRequest::read(0, 65536)));
                }
            }
            ops
        };
        let file = || vec![FileSpec::input("in", 12 * 65536)];
        let lru = PolicyConfig::write_through().with_cache(8, Eviction::Lru);
        let mru = PolicyConfig::write_through().with_cache(8, Eviction::Mru);
        let (_, s_lru) = run(&machine(), lru, file(), vec![script()]);
        let (_, s_mru) = run(&machine(), mru, file(), vec![script()]);
        assert!(
            s_mru.reads_hit > s_lru.reads_hit,
            "mru {} !> lru {}",
            s_mru.reads_hit,
            s_lru.reads_hit
        );
    }

    #[test]
    fn concurrent_readers_have_independent_caches() {
        let script = || {
            vec![
                open(0),
                ScriptOp::Io(IoRequest::read(0, 65536)),
                ScriptOp::Io(IoRequest::seek(0, 0)),
                ScriptOp::Io(IoRequest::read(0, 65536)),
            ]
        };
        let (_, stats) = run(
            &machine(),
            PolicyConfig::write_through(),
            vec![FileSpec::input("in", 1 << 20)],
            vec![script(), script()],
        );
        // Each node misses once and hits once.
        assert_eq!(stats.reads_missed, 2);
        assert_eq!(stats.reads_hit, 2);
    }

    #[test]
    fn inferred_pattern_exposed() {
        let m = machine();
        let mut fs = Ppfs::new(&m, PolicyConfig::adaptive(2), TraceSink::new("p"));
        fs.core.register(FileSpec::input("in", 4 << 20));
        let mut ops = vec![open(0)];
        for _ in 0..8 {
            ops.push(ScriptOp::Io(IoRequest::read(0, 65536)));
        }
        let programs: Vec<Box<dyn NodeProgram>> = vec![Box::new(ScriptProgram::new(ops))];
        let mut engine = Engine::new(Mesh::for_nodes(4, 2), m.comm, programs, fs);
        engine.set_default_watchdog();
        engine.run();
        use sio_core::classify::AccessPattern;
        assert_eq!(
            engine.service().inferred_pattern(0, 0),
            Some(AccessPattern::Sequential)
        );
        assert_eq!(engine.service().inferred_pattern(3, 0), None);
    }

    #[test]
    fn server_cache_serves_second_node_without_disk() {
        // Node 0 streams the file (cold), node 1 reads it afterwards: with a
        // server cache, node 1's blocks come from the I/O nodes' memory.
        let script = |delay_ms: u64| {
            let mut ops = vec![
                open(0),
                ScriptOp::Compute(SimDuration::from_millis(delay_ms)),
            ];
            for _ in 0..16 {
                ops.push(ScriptOp::Io(IoRequest::read(0, 65536)));
            }
            ops
        };
        let file = || vec![FileSpec::input("in", 16 * 65536)];
        let run_with =
            |policy: PolicyConfig| run(&machine(), policy, file(), vec![script(0), script(2000)]);
        let (t_two, s_two) = run_with(PolicyConfig::two_level(64, 256));
        let (t_one, s_one) = run_with(PolicyConfig::write_through());
        assert!(s_two.server_hits >= 16, "hits {}", s_two.server_hits);
        assert_eq!(s_one.server_hits, 0);
        // Node 1's reads are faster with the server cache.
        let node1 = |t: &Trace| -> u64 {
            t.of_op(IoOp::Read)
                .filter(|e| e.node == 1)
                .map(|e| e.duration())
                .sum()
        };
        assert!(
            node1(&t_two) < node1(&t_one),
            "two-level {} !< one-level {}",
            node1(&t_two),
            node1(&t_one)
        );
    }

    #[test]
    fn server_cache_write_allocate() {
        // A writer populates the server cache; a later reader on another
        // node hits it.
        let writer = vec![
            open(0),
            ScriptOp::Io(IoRequest::write(0, 65536)),
            ScriptOp::Send {
                to: 1,
                bytes: 1,
                tag: 1,
            },
        ];
        let reader = vec![
            open(0),
            ScriptOp::Recv { from: 0, tag: 1 },
            ScriptOp::Io(IoRequest::seek(0, 0)),
            ScriptOp::Io(IoRequest::read(0, 65536)),
        ];
        let (_, stats) = run(
            &machine(),
            PolicyConfig::two_level(64, 256),
            vec![FileSpec::output("f")],
            vec![writer, reader],
        );
        assert_eq!(stats.server_hits, 1);
        assert_eq!(stats.server_misses, 0);
    }

    #[test]
    fn per_file_advice_overrides_global_policy() {
        // Global policy: write-through. File 0 advised as staging
        // (write-behind + aggregation); file 1 inherits write-through.
        let m = machine();
        let mut fs = Ppfs::new(&m, PolicyConfig::write_through(), TraceSink::new("advice"));
        fs.core.register(FileSpec::output("staging"));
        fs.core.register(FileSpec::output("plain"));
        fs.advise(0, crate::advice::FileAdvice::staging());
        let mut ops = vec![open(0), open(1)];
        for i in 0..8u64 {
            ops.push(ScriptOp::Io(IoRequest::seek(0, i * 2048)));
            ops.push(ScriptOp::Io(IoRequest::write(0, 2048)));
            ops.push(ScriptOp::Io(IoRequest::seek(1, i * 2048)));
            ops.push(ScriptOp::Io(IoRequest::write(1, 2048)));
        }
        let programs: Vec<Box<dyn NodeProgram>> = vec![Box::new(ScriptProgram::new(ops))];
        let mut engine = Engine::new(Mesh::for_nodes(4, 2), m.comm, programs, fs);
        engine.set_default_watchdog();
        let report = engine.run();
        assert!(report.clean());
        let stats = engine.service().stats();
        // Only the advised file's writes were buffered.
        assert_eq!(stats.writes_buffered, 8);
        let trace = engine.into_service().core.finish_trace();
        let wtime = |file: u32| -> u64 {
            trace
                .of_op(IoOp::Write)
                .filter(|e| e.file == file)
                .map(|e| e.duration())
                .sum()
        };
        assert!(
            wtime(0) * 3 < wtime(1),
            "advised {} !<< plain {}",
            wtime(0),
            wtime(1)
        );
    }

    #[test]
    fn run_end_accounts_unflushed_data() {
        let m = machine();
        let mut policy = PolicyConfig::escat_tuned();
        policy.high_water_bytes = u64::MAX;
        policy.flush_interval_secs = 1e9; // never fires
        let mut fs = Ppfs::new(&m, policy, TraceSink::new("e"));
        fs.core.register(FileSpec::output("f"));
        let ops = vec![open(0), ScriptOp::Io(IoRequest::write(0, 2048))];
        let programs: Vec<Box<dyn NodeProgram>> = vec![Box::new(ScriptProgram::new(ops))];
        let mut engine = Engine::new(Mesh::for_nodes(4, 2), m.comm, programs, fs);
        engine.set_default_watchdog();
        engine.run();
        assert_eq!(engine.service().stats().flushed_bytes, 2048);
    }
}

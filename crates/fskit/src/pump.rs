//! The segment pump: the submit → backoff/retry → completion state machine
//! over the I/O-node queues.
//!
//! Every backend pushes stripe segments through [`paragon_sim::ionode::IoNodeSim`]
//! queues and must handle explicit backpressure ([`SubmitOutcome::Rejected`])
//! without ever silently dropping a segment. What differs is the *failover
//! policy*:
//!
//! * [`FailoverPolicy::Buddy`] (PFS, CIO) — bounded backoff retries against the
//!   target node, then reconstruct from redundancy on the buddy node
//!   `(io + 1) % n`, and only if the buddy also refuses give the owning
//!   request up (the pump reports the owner; the core fails the request);
//! * [`FailoverPolicy::StripePinned`] (PPFS) — segments target a fixed
//!   stripe position, so a down node parks the segment for replay on
//!   recovery, and a full queue retries forever with capped backoff
//!   (write-behind data has nowhere else to go).
//!
//! Timer ids are drawn from the backend's [`TimerLanes`] allocator so the
//! id sequence — and the engine's FIFO tie-breaking on it — is
//! byte-identical to a hand-inlined implementation.

use paragon_sim::engine::Sched;
use paragon_sim::ionode::{Completion, IoNodeSim, RejectReason, SegmentReq, SubmitOutcome};
use paragon_sim::raid::RaidError;
use paragon_sim::{SimDuration, SimTime};
use sio_core::hash::FastMap;

use crate::lanes::TimerLanes;
use crate::layout::{Segment, StripeLayout};
use paragon_sim::program::IoFault;

/// Shared exponential-backoff computation: `retry_base × 2^min(attempt, 4)`.
/// The cap keeps the worst-case delay at 16× the base (800 ms on the
/// calibrated 50 ms base) however many attempts a policy allows.
pub fn backoff_delay(retry_base: SimDuration, attempt: u32) -> SimDuration {
    retry_base.times(1u64 << attempt.min(4))
}

/// How the pump reacts once a target node refuses a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailoverPolicy {
    /// Bounded retries, then buddy-node failover, then give up (PFS).
    Buddy {
        /// Backoff attempts against one node before failing over.
        max_retries: u32,
    },
    /// Stripe-pinned: park on node-down for replay at recovery, retry
    /// forever with capped backoff on queue-full (PPFS).
    StripePinned,
}

/// Per-I/O-node request accounting, counted when a segment is *accepted*
/// (started or queued) by the node: the request counts and mean request
/// sizes the paper's Fig. 4 analysis — and X6's backend comparison — are
/// about. Rejections don't count; a segment accepted after backoff counts
/// once, at acceptance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeLoad {
    /// Read requests accepted.
    pub read_reqs: u64,
    /// Read bytes accepted.
    pub read_bytes: u64,
    /// Write requests accepted.
    pub write_reqs: u64,
    /// Write bytes accepted.
    pub write_bytes: u64,
}

/// Pump counters (all zero on a healthy run except `segments`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpStats {
    /// Segment re-submissions scheduled with backoff.
    pub retries: u64,
    /// Segments failed over to the buddy node (Buddy policy only).
    pub failovers: u64,
    /// Stripe segments submitted to the I/O nodes (all causes).
    pub segments: u64,
    /// Segments resubmitted after a crashed node recovered.
    pub replayed: u64,
}

/// A rejected or lost segment awaiting re-submission.
#[derive(Debug, Clone, Copy)]
pub struct RetrySeg {
    /// Target I/O node of the next attempt.
    pub io: u32,
    /// The segment request.
    pub req: SegmentReq,
    /// Attempts already made against the current target.
    pub attempt: u32,
}

/// What an I/O-node completion timer delivered.
#[derive(Debug, Clone, Copy)]
pub enum NodeTick {
    /// The timer was stale (a stall postponed the completion or a crash
    /// voided it); the re-armed timer covers the real time.
    Stale,
    /// Background rebuild traffic: no owner to advance.
    Rebuild,
    /// The completed segment has no registered owner (the owning request
    /// already failed).
    Orphan,
    /// An application segment completed for `owner`.
    Seg {
        /// The owner recorded at submission (request token or transfer id).
        owner: u64,
        /// Whether the serving array had exhausted its redundancy.
        data_lost: bool,
    },
}

/// A staged (not yet submitted) request: its per-node segment requests in
/// dispatch order, with consecutive segment ids.
pub type StagedExtent = Vec<(u32, SegmentReq)>;

/// Whether any run, placed at `slot_base` in node-local space, ends past
/// the array capacity.
fn overflows(runs: &[Segment], slot_base: u64, capacity: u64) -> bool {
    runs.iter()
        .any(|s| slot_base + s.local_offset + s.bytes > capacity)
}

/// The segment pump over a machine's I/O nodes.
pub struct SegmentPump {
    ionodes: Vec<IoNodeSim>,
    policy: FailoverPolicy,
    retry_base: SimDuration,
    /// Completed-segment routing: segment id → owner (the core's request
    /// id for PFS and CIO, the transfer id for PPFS — both are `u64`).
    seg_owner: FastMap<u64, u64>,
    next_seg: u64,
    /// Reused stripe-decomposition buffer (hot path: one per request
    /// otherwise).
    seg_scratch: Vec<Segment>,
    /// Armed backoff retries: timer id → segment.
    retry_timers: FastMap<u64, RetrySeg>,
    /// Segments parked at a crashed node, resubmitted on recovery.
    replay: Vec<(u32, SegmentReq)>,
    stats: PumpStats,
    /// Accepted-request accounting, indexed by I/O node.
    loads: Vec<NodeLoad>,
}

impl SegmentPump {
    /// New pump over the given I/O nodes.
    pub fn new(
        ionodes: Vec<IoNodeSim>,
        policy: FailoverPolicy,
        retry_base: SimDuration,
    ) -> SegmentPump {
        let loads = vec![NodeLoad::default(); ionodes.len()];
        SegmentPump {
            ionodes,
            policy,
            retry_base,
            seg_owner: FastMap::default(),
            next_seg: 0,
            seg_scratch: Vec::new(),
            retry_timers: FastMap::default(),
            replay: Vec::new(),
            stats: PumpStats::default(),
            loads,
        }
    }

    /// Number of I/O nodes (timer ids below this are node timers).
    pub fn len(&self) -> usize {
        self.ionodes.len()
    }

    /// Whether the pump drives any I/O nodes at all.
    pub fn is_empty(&self) -> bool {
        self.ionodes.is_empty()
    }

    /// One I/O node (read-only).
    pub fn node(&self, io: u32) -> &IoNodeSim {
        &self.ionodes[io as usize]
    }

    /// Mutable access to one I/O node (fault injection, tuning).
    pub fn node_mut(&mut self, io: u32) -> &mut IoNodeSim {
        &mut self.ionodes[io as usize]
    }

    /// Pump counters.
    pub fn stats(&self) -> PumpStats {
        self.stats
    }

    /// Accepted-request accounting per I/O node.
    pub fn node_loads(&self) -> &[NodeLoad] {
        &self.loads
    }

    fn note_load(&mut self, io: u32, req: &SegmentReq) {
        let l = &mut self.loads[io as usize];
        if req.write {
            l.write_reqs += 1;
            l.write_bytes += req.bytes;
        } else {
            l.read_reqs += 1;
            l.read_bytes += req.bytes;
        }
    }

    /// The failover policy the pump runs under.
    pub fn policy(&self) -> FailoverPolicy {
        self.policy
    }

    /// Decompose `[offset, offset + bytes)` into the reused scratch buffer;
    /// the caller hands the buffer back through `seg_scratch`.
    fn decompose(&mut self, layout: &StripeLayout, offset: u64, bytes: u64) -> Vec<Segment> {
        let mut segments = std::mem::take(&mut self.seg_scratch);
        segments.clear();
        layout.segments_into(offset, bytes, &mut segments);
        segments
    }

    /// Whether `[offset, offset + bytes)` of a file whose allocator slot
    /// starts at `slot_base` lies within the arrays — the capacity check
    /// [`SegmentPump::stage_extent`] applies — without staging anything.
    pub fn fits(
        &mut self,
        layout: &StripeLayout,
        slot_base: u64,
        capacity: u64,
        offset: u64,
        bytes: u64,
    ) -> bool {
        let segments = self.decompose(layout, offset, bytes);
        let fits = !overflows(&segments, slot_base, capacity);
        self.seg_scratch = segments;
        fits
    }

    /// Stage an extent: decompose it into stripe segments (one per touched
    /// I/O node) and stage those with [`SegmentPump::stage_runs`]. This is
    /// the one place a file extent becomes segment requests.
    #[allow(clippy::too_many_arguments)]
    pub fn stage_extent(
        &mut self,
        layout: &StripeLayout,
        slot_base: u64,
        capacity: u64,
        offset: u64,
        bytes: u64,
        write: bool,
        owner: u64,
    ) -> Result<StagedExtent, IoFault> {
        let segments = self.decompose(layout, offset, bytes);
        let staged = self.stage_runs(&segments, slot_base, capacity, write, false, owner);
        self.seg_scratch = segments;
        staged
    }

    /// Stage per-I/O-node runs of a file's node-local space (from
    /// [`SegmentPump::stage_extent`], or the two-phase collective's
    /// pre-aggregated file domains, which stream `sequential`ly on the
    /// array): allocate consecutive segment ids, register `owner`, count
    /// them — without submitting anything. The caller tracks its request,
    /// then submits the segments one by one, so a rejection chain observed
    /// mid-loop can fail the whole owner.
    ///
    /// A run overflowing the array capacity is a typed
    /// [`IoFault::Unavailable`] (checked before any id is allocated), not a
    /// debug assertion.
    pub fn stage_runs(
        &mut self,
        runs: &[Segment],
        slot_base: u64,
        capacity: u64,
        write: bool,
        sequential: bool,
        owner: u64,
    ) -> Result<StagedExtent, IoFault> {
        if overflows(runs, slot_base, capacity) {
            return Err(IoFault::Unavailable);
        }
        let mut staged = Vec::with_capacity(runs.len());
        for run in runs {
            let id = self.next_seg;
            self.next_seg += 1;
            self.seg_owner.insert(id, owner);
            self.stats.segments += 1;
            staged.push((
                run.io_node,
                SegmentReq {
                    id,
                    offset: slot_base + run.local_offset,
                    bytes: run.bytes,
                    write,
                    sequential,
                    failover: false,
                },
            ));
        }
        Ok(staged)
    }

    /// Submit one segment to an I/O node, handling explicit backpressure
    /// under the pump's failover policy. Returns the owner of the segment
    /// when the request must be given up (primary and buddy both refused —
    /// Buddy policy only): the caller fails the owning request at exactly
    /// this point in the call sequence.
    pub fn submit_seg(
        &mut self,
        now: SimTime,
        io: u32,
        req: SegmentReq,
        attempt: u32,
        timers: &mut TimerLanes,
        sched: &mut Sched,
    ) -> Option<u64> {
        match self.ionodes[io as usize].submit(now, req) {
            SubmitOutcome::Started => {
                // Invariant (see `IoNodeSim::submit`): `Started` is only
                // returned after the request is parked as the in-service
                // work, so `next_done()` is `Some`.
                let t = self.ionodes[io as usize]
                    .next_done()
                    .expect("submit returned Started with no in-service work");
                sched.timer(t, io as u64);
                self.note_load(io, &req);
                None
            }
            SubmitOutcome::Queued => {
                self.note_load(io, &req);
                None
            }
            SubmitOutcome::Rejected(reason) => {
                self.handle_rejection(now, io, req, attempt, reason, timers, sched)
            }
        }
    }

    /// A segment was rejected (or lost to a crash): back off and retry,
    /// fail over, park for replay, or report the owner for give-up,
    /// according to the failover policy.
    #[allow(clippy::too_many_arguments)]
    pub fn handle_rejection(
        &mut self,
        now: SimTime,
        io: u32,
        req: SegmentReq,
        attempt: u32,
        reason: RejectReason,
        timers: &mut TimerLanes,
        sched: &mut Sched,
    ) -> Option<u64> {
        match self.policy {
            FailoverPolicy::Buddy { max_retries } => match reason {
                // A full queue is congestion, not failure: a large
                // aggregated segment from a single submitter can keep a
                // healthy node's queue at its limit, and burning the
                // bounded failover budget on it ends in a spurious
                // give-up against two healthy-but-busy nodes. Retry
                // forever with capped backoff; the backlog drains.
                RejectReason::QueueFull => {
                    self.arm_retry(now, io, req, attempt, (attempt + 1).min(4), timers, sched);
                    None
                }
                RejectReason::Down => {
                    if attempt < max_retries {
                        self.arm_retry(now, io, req, attempt, attempt + 1, timers, sched);
                        None
                    } else if !req.failover {
                        // This node is unreachable: reconstruct from
                        // redundancy on the buddy node (at the degraded
                        // penalty).
                        self.stats.failovers += 1;
                        let buddy = (io + 1) % self.ionodes.len() as u32;
                        let mut r = req;
                        r.failover = true;
                        self.submit_seg(now, buddy, r, 0, timers, sched)
                    } else {
                        // Primary and buddy both refused: the request
                        // cannot be served.
                        self.seg_owner.get(&req.id).copied()
                    }
                }
            },
            FailoverPolicy::StripePinned => {
                match reason {
                    RejectReason::Down => self.replay.push((io, req)),
                    // Unbounded retries with capped backoff: write-behind
                    // data has nowhere else to go.
                    RejectReason::QueueFull => {
                        self.arm_retry(now, io, req, attempt, (attempt + 1).min(4), timers, sched)
                    }
                }
                None
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn arm_retry(
        &mut self,
        now: SimTime,
        io: u32,
        req: SegmentReq,
        attempt: u32,
        next_attempt: u32,
        timers: &mut TimerLanes,
        sched: &mut Sched,
    ) {
        self.stats.retries += 1;
        let delay = backoff_delay(self.retry_base, attempt);
        let id = timers.alloc();
        self.retry_timers.insert(
            id,
            RetrySeg {
                io,
                req,
                attempt: next_attempt,
            },
        );
        sched.timer(now + delay, id);
    }

    /// Claim a retry timer, if `timer` is one.
    pub fn take_retry(&mut self, timer: u64) -> Option<RetrySeg> {
        self.retry_timers.remove(&timer)
    }

    /// Whether a segment still has a registered owner (a retry is only
    /// worth making while the owning request is alive).
    pub fn owns(&self, seg_id: u64) -> bool {
        self.seg_owner.contains_key(&seg_id)
    }

    /// The owner registered for a segment.
    pub fn owner_of(&self, seg_id: u64) -> Option<u64> {
        self.seg_owner.get(&seg_id).copied()
    }

    /// Drop a segment's owner registration (cleanup when the owning request
    /// fails early).
    pub fn forget(&mut self, seg_id: u64) {
        self.seg_owner.remove(&seg_id);
    }

    /// Service an I/O-node completion timer: check it is due, complete the
    /// head-of-queue work, re-arm for the next completion, and route the
    /// finished segment to its owner.
    pub fn node_tick(&mut self, now: SimTime, timer: u64, sched: &mut Sched) -> NodeTick {
        let io = timer as usize;
        let due = matches!(self.ionodes[io].next_done(), Some(t) if t <= now);
        if !due {
            return NodeTick::Stale;
        }
        let completion = self.ionodes[io].complete_head(now);
        if let Some(t) = self.ionodes[io].next_done() {
            sched.timer(t, timer);
        }
        match completion {
            Completion::App { id, data_lost } => match self.seg_owner.remove(&id) {
                Some(owner) => NodeTick::Seg { owner, data_lost },
                None => NodeTick::Orphan,
            },
            Completion::Rebuild { .. } => NodeTick::Rebuild,
        }
    }

    // -- fault application helpers (one per FaultKind arm) ------------------

    /// Fail one member disk; returns whether this was a second failure that
    /// exhausted the array's redundancy (a data-loss event). A malformed
    /// event (bad index) is a reportable no-op.
    pub fn apply_disk_fail(&mut self, io: u32, disk: u32) -> bool {
        match self.ionodes[io as usize].array_mut().fail_disk(disk) {
            Ok(()) => false,
            Err(RaidError::DoubleFailure { .. }) => {
                self.ionodes[io as usize].array_mut().mark_data_lost();
                true
            }
            Err(_) => false,
        }
    }

    /// A hot spare arrived: start the timed background rebuild.
    pub fn apply_disk_repair(&mut self, now: SimTime, io: u32, sched: &mut Sched) {
        if self.ionodes[io as usize]
            .array_mut()
            .start_rebuild()
            .is_ok()
        {
            if let Some(t) = self.ionodes[io as usize].maybe_start_rebuild(now) {
                sched.timer(t, io as u64);
            }
        }
    }

    /// Stall one node's service for a duration.
    pub fn apply_stall(&mut self, now: SimTime, io: u32, for_dur: SimDuration, sched: &mut Sched) {
        if let Some(t) = self.ionodes[io as usize].stall(now, for_dur) {
            sched.timer(t, io as u64);
        }
    }

    /// Crash one node, returning the in-service and queued segments it
    /// loses. The backend decides their fate (retry chain or replay park).
    pub fn crash(&mut self, io: u32) -> Vec<SegmentReq> {
        self.ionodes[io as usize].crash()
    }

    /// Recover a crashed node (and resume any interrupted rebuild).
    pub fn recover(&mut self, now: SimTime, io: u32, sched: &mut Sched) {
        self.ionodes[io as usize].recover();
        if let Some(t) = self.ionodes[io as usize].maybe_start_rebuild(now) {
            sched.timer(t, io as u64);
        }
    }

    /// Degrade the edge link into one I/O node: newly started segments'
    /// transfer times stretch by `mult` until [`SegmentPump::apply_link_heal`]
    /// (in-flight segments keep their committed service times). Repeated
    /// degrades compose by keeping the worse multiplier.
    pub fn apply_link_degrade(&mut self, io: u32, mult: f64) {
        let node = &mut self.ionodes[io as usize];
        let mult = node.link_mult().max(mult);
        node.set_link_mult(mult);
    }

    /// Heal the edge link into one I/O node back to full bandwidth.
    pub fn apply_link_heal(&mut self, io: u32) {
        self.ionodes[io as usize].set_link_mult(1.0);
    }

    /// Resubmit every segment parked against a recovered node.
    pub fn resubmit_replays(
        &mut self,
        now: SimTime,
        io: u32,
        timers: &mut TimerLanes,
        sched: &mut Sched,
    ) {
        let mine: Vec<(u32, SegmentReq)>;
        (mine, self.replay) = std::mem::take(&mut self.replay)
            .into_iter()
            .partition(|(n, _)| *n == io);
        for (n, req) in mine {
            self.stats.replayed += 1;
            let gave_up = self.submit_seg(now, n, req, 0, timers, sched);
            debug_assert!(gave_up.is_none(), "replay resubmission cannot give up");
        }
    }

    // -- whole-pump aggregates ---------------------------------------------

    /// Rebuild chunks completed across all I/O nodes.
    pub fn rebuild_chunks_total(&self) -> u64 {
        self.ionodes.iter().map(|n| n.rebuild_chunks()).sum()
    }

    /// Member bytes rebuilt across all I/O nodes.
    pub fn rebuilt_bytes_total(&self) -> u64 {
        self.ionodes.iter().map(|n| n.rebuilt_bytes()).sum()
    }

    /// I/O nodes whose arrays are still degraded.
    pub fn degraded_nodes(&self) -> u32 {
        self.ionodes.iter().filter(|n| n.array().degraded()).count() as u32
    }

    /// Sum of queueing delay accumulated across all I/O nodes.
    pub fn total_queueing(&self) -> SimDuration {
        self.ionodes
            .iter()
            .map(|n| n.queued_total())
            .fold(SimDuration::ZERO, |a, b| a + b)
    }

    /// Total stripe segments completed across all I/O nodes.
    pub fn segments_completed(&self) -> u64 {
        self.ionodes.iter().map(|n| n.completed()).sum()
    }

    /// Whether any array has exhausted its redundancy (durable ≠ healthy).
    pub fn any_data_lost(&self) -> bool {
        self.ionodes.iter().any(|n| n.array().data_lost())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_caps_at_four() {
        let base = SimDuration::from_millis(50);
        // Exponential up to attempt 4...
        assert_eq!(backoff_delay(base, 0), base.times(1));
        assert_eq!(backoff_delay(base, 1), base.times(2));
        assert_eq!(backoff_delay(base, 2), base.times(4));
        assert_eq!(backoff_delay(base, 3), base.times(8));
        assert_eq!(backoff_delay(base, 4), base.times(16));
        // ...then flat: the cap bounds the worst-case delay at 16× base.
        for attempt in [5, 6, 16, 17, 63, u32::MAX] {
            assert_eq!(backoff_delay(base, attempt), base.times(16));
        }
    }

    #[test]
    fn backoff_never_overflows_the_shift() {
        // min(attempt, 4) keeps the shift far from 64 even for absurd
        // attempt counts (the stripe-pinned policy retries forever).
        let base = SimDuration::from_millis(1);
        assert_eq!(backoff_delay(base, 1000), base.times(16));
    }

    /// The CIO shape: one submitter, maximum-slot-size aggregated segments,
    /// a capacity-limited queue. Queue-full backpressure under the buddy
    /// policy must never burn the failover budget (the node is busy, not
    /// broken): every rejection re-arms a capped-backoff retry, the attempt
    /// counter stays ≤ 4, and the segment goes through once the node drains.
    #[test]
    fn buddy_queue_full_backs_off_without_burning_failover_budget() {
        use crate::config::DEFAULT_FILE_SLOT;
        use paragon_sim::MachineConfig;

        let m = MachineConfig::tiny(2, 2);
        let mut ionodes = m.build_io_nodes();
        for n in &mut ionodes {
            n.set_queue_limit(0); // busy node rejects everything
        }
        let base = SimDuration::from_millis(50);
        let mut pump = SegmentPump::new(ionodes, FailoverPolicy::Buddy { max_retries: 2 }, base);
        let mut timers = TimerLanes::new(pump.len());
        let mut sched = Sched::default();

        // A max-slot-size aggregated segment occupies node 0...
        let big = DEFAULT_FILE_SLOT;
        let mut stage = |local_offset: u64, owner: u64| {
            let run = Segment {
                io_node: 0,
                local_offset,
                bytes: big,
            };
            pump.stage_runs(&[run], 0, u64::MAX, true, true, owner)
                .unwrap()[0]
                .1
        };
        let first = stage(0, 1);
        let mut req = stage(big, 2);
        assert!(pump
            .submit_seg(SimTime::ZERO, 0, first, 0, &mut timers, &mut sched)
            .is_none());

        // ...so an equally large follow-up bounces QueueFull well past
        // `max_retries`. It must neither fail over nor give up.
        let mut now = SimTime::ZERO;
        let mut attempt = 0;
        for round in 0..12u32 {
            // Dynamic-lane ids are allocated in submit order, one per round.
            let armed = pump.len() as u64 + u64::from(round);
            let gave_up = pump.submit_seg(now, 0, req, attempt, &mut timers, &mut sched);
            assert!(gave_up.is_none(), "round {round}: gave up on a busy node");
            let r = pump
                .take_retry(armed)
                .unwrap_or_else(|| panic!("round {round}: no retry armed"));
            assert_eq!(r.io, 0, "round {round}: retry wandered off-node");
            assert!(r.attempt <= 4, "round {round}: attempt counter uncapped");
            now += backoff_delay(base, attempt);
            req = r.req;
            attempt = r.attempt;
        }
        assert_eq!(pump.stats().failovers, 0);
        assert_eq!(pump.stats().retries, 12);

        // Drain the node; the parked segment goes through on the next try.
        let done = pump.node(0).next_done().expect("segment in service");
        let t = now.max(done);
        match pump.node_tick(t, 0, &mut sched) {
            NodeTick::Seg { owner, .. } => assert_eq!(owner, 1),
            other => panic!("expected the first segment to complete, got {other:?}"),
        }
        assert!(pump
            .submit_seg(t, 0, req, attempt, &mut timers, &mut sched)
            .is_none());
        assert_eq!(pump.owner_of(req.id), Some(2));

        // Accepted-request accounting saw exactly the two acceptances.
        let l = pump.node_loads()[0];
        assert_eq!((l.write_reqs, l.write_bytes), (2, 2 * big));
    }
}

//! I/O node request-queue model.
//!
//! Each I/O node serves stripe-segment requests against its RAID-3 array,
//! one at a time, from a queue with a configurable discipline. The file
//! system (sio-pfs / sio-ppfs) splits application requests into segments,
//! submits them here, and arms a timer for [`IoNodeSim::next_done`]; on each
//! timer it calls [`IoNodeSim::complete_head`] and re-arms. This exposes the
//! one machine behavior the paper's time columns hinge on: queueing delay
//! when 128 synchronized clients burst onto 16 servers.
//!
//! Fault semantics (driven by [`crate::fault::FaultSchedule`] through the
//! file-system layers):
//! - [`IoNodeSim::submit`] returns a [`SubmitOutcome`] — queue-full and
//!   node-down rejections are explicit, never silently dropped;
//! - [`IoNodeSim::stall`] delays the in-service segment and blocks new
//!   starts for a while (transient server hiccup);
//! - [`IoNodeSim::crash`] loses the in-service and queued segments and
//!   rejects submissions until [`IoNodeSim::recover`];
//! - after [`crate::raid::Raid3::start_rebuild`], the node interleaves
//!   background rebuild chunks with foreground segments
//!   ([`IoNodeSim::maybe_start_rebuild`]): foreground has priority, rebuild
//!   fills idle gaps, and each in-flight chunk delays queued foreground work
//!   behind it.

use crate::raid::Raid3;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Queue discipline for pending segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueueDiscipline {
    /// First-come-first-served (the PFS default; our baseline).
    Fifo,
    /// Circular SCAN: serve pending segments in ascending disk-offset order
    /// from the current head position, wrapping at the end — an ablation for
    /// DESIGN.md experiment A3.
    CScan,
    /// Shortest-seek-time-first: serve the pending segment closest to the
    /// current head position. Minimizes per-step seek cost at the risk of
    /// starving distant requests (which is why real systems prefer C-SCAN).
    Sstf,
}

/// One stripe-segment request at an I/O node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentReq {
    /// Caller-chosen id, returned on completion.
    pub id: u64,
    /// Byte offset on this I/O node's array.
    pub offset: u64,
    /// Segment length.
    pub bytes: u64,
    /// True for writes.
    pub write: bool,
    /// Skip the mechanical seek/rotation component (the segment is known to
    /// continue the previous one — used by aggregated sequential runs).
    pub sequential: bool,
    /// The segment was failed over from a crashed node and is served here by
    /// reconstructing from redundancy, at the degraded-read penalty.
    pub failover: bool,
}

/// Result of [`IoNodeSim::submit`]. `Started` means the node was idle and
/// the caller must (re-)arm its completion timer; `Queued` means an armed
/// timer already covers the in-service work; `Rejected` is explicit
/// backpressure the caller must handle (requeue, retry, or error) — never
/// ignore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "rejections are explicit backpressure; handle or propagate them"]
pub enum SubmitOutcome {
    /// Accepted and started immediately; arm a timer at
    /// [`IoNodeSim::next_done`].
    Started,
    /// Accepted and queued behind the in-service work.
    Queued,
    /// Not accepted; the segment is NOT enqueued.
    Rejected(RejectReason),
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The node has crashed and not yet recovered.
    Down,
    /// The pending queue is at its configured limit.
    QueueFull,
}

/// What the node is currently servicing.
#[derive(Debug, Clone, Copy)]
enum Served {
    /// A foreground stripe segment.
    App(SegmentReq),
    /// A background rebuild chunk of this many member-disk bytes.
    Rebuild { bytes: u64 },
}

/// Result of [`IoNodeSim::complete_head`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// A foreground segment finished.
    App {
        /// The caller-chosen id from [`SegmentReq::id`].
        id: u64,
        /// The array has lost redundancy (second member failure): the data
        /// for this segment could not actually be reconstructed.
        data_lost: bool,
    },
    /// A background rebuild chunk finished.
    Rebuild {
        /// Member bytes still to rebuild (0 = array healthy again).
        remaining: u64,
    },
}

/// An I/O node: a request queue over one RAID-3 array.
#[derive(Debug)]
pub struct IoNodeSim {
    array: Raid3,
    discipline: QueueDiscipline,
    /// Server CPU cost charged per segment.
    per_request: SimDuration,
    /// Currently serviced work and its completion time.
    busy: Option<(SimTime, Served)>,
    /// Queued segments with their arrival times.
    pending: VecDeque<(SegmentReq, SimTime)>,
    /// Completed-segment count (statistics).
    completed: u64,
    /// Sum of queueing delays (statistics).
    queued_total: SimDuration,
    /// Disk-head position after the most recently started segment.
    head: u64,
    /// Max queued segments before [`RejectReason::QueueFull`].
    queue_limit: usize,
    /// Max member bytes serviced per background rebuild chunk.
    rebuild_chunk: u64,
    /// Crashed and not yet recovered.
    down: bool,
    /// No new work starts before this time (transient stall).
    stalled_until: SimTime,
    /// Link-congestion multiplier on segment transfer time (1.0 = healthy
    /// links into this node; `LinkDegrade` fault events raise it).
    link_mult: f64,
    /// Rebuild bytes completed (statistics).
    rebuilt_bytes: u64,
    /// Rebuild chunks completed (statistics).
    rebuild_chunks: u64,
}

impl IoNodeSim {
    /// New idle I/O node.
    pub fn new(array: Raid3, discipline: QueueDiscipline, per_request: SimDuration) -> IoNodeSim {
        IoNodeSim {
            array,
            discipline,
            per_request,
            busy: None,
            pending: VecDeque::new(),
            completed: 0,
            queued_total: SimDuration::ZERO,
            head: 0,
            queue_limit: usize::MAX,
            rebuild_chunk: crate::calibration::fault_params().rebuild_chunk,
            down: false,
            stalled_until: SimTime::ZERO,
            link_mult: 1.0,
            rebuilt_bytes: 0,
            rebuild_chunks: 0,
        }
    }

    /// Set the link-congestion multiplier for traffic into this node
    /// (`1.0` restores healthy links). Applies to segments started after
    /// the call; in-flight work is unaffected, like a stall's tail.
    pub fn set_link_mult(&mut self, mult: f64) {
        assert!(
            mult >= 1.0 && mult.is_finite(),
            "link multiplier must be ≥ 1"
        );
        self.link_mult = mult;
    }

    /// Current link-congestion multiplier.
    pub fn link_mult(&self) -> f64 {
        self.link_mult
    }

    /// Mutable access to the underlying array (fault injection).
    pub fn array_mut(&mut self) -> &mut Raid3 {
        &mut self.array
    }

    /// Shared access to the underlying array.
    pub fn array(&self) -> &Raid3 {
        &self.array
    }

    /// Cap the pending queue; further submissions get
    /// [`RejectReason::QueueFull`].
    pub fn set_queue_limit(&mut self, limit: usize) {
        self.queue_limit = limit;
    }

    /// Set the background rebuild chunk size (member bytes per chunk).
    pub fn set_rebuild_chunk(&mut self, bytes: u64) {
        self.rebuild_chunk = bytes.max(1);
    }

    /// Submit a segment at time `now`.
    ///
    /// Contract: when this returns [`SubmitOutcome::Started`], the request
    /// has been parked as the in-service work and [`IoNodeSim::next_done`]
    /// reports its completion time — callers (e.g. `fskit`'s segment pump)
    /// rely on that pairing to arm their completion timers immediately
    /// after a `Started` return.
    pub fn submit(&mut self, now: SimTime, req: SegmentReq) -> SubmitOutcome {
        if self.down {
            return SubmitOutcome::Rejected(RejectReason::Down);
        }
        if self.busy.is_none() {
            self.start(now, req, now);
            SubmitOutcome::Started
        } else if self.pending.len() >= self.queue_limit {
            SubmitOutcome::Rejected(RejectReason::QueueFull)
        } else {
            self.pending.push_back((req, now));
            SubmitOutcome::Queued
        }
    }

    fn start(&mut self, now: SimTime, req: SegmentReq, arrived: SimTime) {
        self.queued_total += now.since(arrived);
        let mut mech = if req.sequential {
            if req.write {
                self.array.write_sequential(req.offset, req.bytes)
            } else {
                // Sequential read continuation: pure transfer.
                self.array.write_sequential(req.offset, req.bytes)
            }
        } else if req.write {
            self.array.write(req.offset, req.bytes)
        } else {
            self.array.read(req.offset, req.bytes)
        };
        if req.failover {
            // Served from redundancy on behalf of a crashed peer: pay the
            // reconstruction penalty regardless of direction.
            mech = mech.mul_f64(crate::calibration::raid_params().degraded_read_penalty);
        }
        if self.link_mult != 1.0 {
            // Congested edge links: delivery into the node is the binding
            // constraint, so the segment's service stretches by the link
            // multiplier. Healthy links (exactly 1.0) skip the float path.
            mech = mech.mul_f64(self.link_mult);
        }
        let begin = now.max(self.stalled_until);
        let done = begin + self.per_request + mech;
        self.head = req.offset + req.bytes;
        self.busy = Some((done, Served::App(req)));
    }

    /// Completion time of the in-service work (segment or rebuild chunk).
    pub fn next_done(&self) -> Option<SimTime> {
        self.busy.map(|(t, _)| t)
    }

    /// Complete the in-service work (must be called at its `next_done` time)
    /// and start the next pending segment per the discipline — or, with a
    /// rebuild armed and no foreground work, the next rebuild chunk.
    ///
    /// # Panics
    /// If the node is idle.
    pub fn complete_head(&mut self, now: SimTime) -> Completion {
        let (done, served) = self.busy.take().expect("complete_head on idle i/o node");
        debug_assert!(now >= done, "completing before service finished");
        let completion = match served {
            Served::App(req) => {
                self.completed += 1;
                Completion::App {
                    id: req.id,
                    data_lost: self.array.data_lost(),
                }
            }
            Served::Rebuild { bytes } => {
                self.rebuilt_bytes += bytes;
                self.rebuild_chunks += 1;
                self.array.rebuild_chunk_done();
                Completion::Rebuild {
                    remaining: self.array.rebuild_remaining(),
                }
            }
        };
        // Foreground first; rebuild traffic only fills idle gaps.
        match self
            .pick_next(self.head)
            .and_then(|i| self.pending.remove(i))
        {
            Some((next, arrived)) => self.start(now, next, arrived),
            None => self.start_rebuild_chunk(now),
        }
        completion
    }

    /// If the node is idle (and up), start a background rebuild chunk and
    /// return its completion time so the caller can arm a timer. No-op when
    /// no rebuild is pending.
    pub fn maybe_start_rebuild(&mut self, now: SimTime) -> Option<SimTime> {
        if self.down || self.busy.is_some() {
            return None;
        }
        self.start_rebuild_chunk(now);
        self.next_done()
    }

    fn start_rebuild_chunk(&mut self, now: SimTime) {
        if self.down {
            return;
        }
        if let Some((bytes, mech)) = self.array.rebuild_take_chunk(self.rebuild_chunk) {
            let begin = now.max(self.stalled_until);
            let done = begin + self.per_request + mech;
            self.busy = Some((done, Served::Rebuild { bytes }));
        }
    }

    /// Stall the node for `for_dur` starting at `now`: the in-service work
    /// finishes `for_dur` late and nothing new starts before the stall ends.
    /// Returns the delayed completion time (so the caller re-arms its timer)
    /// when work was in service.
    pub fn stall(&mut self, now: SimTime, for_dur: SimDuration) -> Option<SimTime> {
        self.stalled_until = self.stalled_until.max(now + for_dur);
        match &mut self.busy {
            Some((done, _)) => {
                *done += for_dur;
                Some(*done)
            }
            None => None,
        }
    }

    /// Crash the node: the in-service segment and everything queued are
    /// lost and returned to the caller (for retry / failover / loss
    /// accounting); an in-flight rebuild chunk is aborted back to the pool;
    /// submissions are rejected until [`IoNodeSim::recover`].
    pub fn crash(&mut self) -> Vec<SegmentReq> {
        self.down = true;
        let mut lost = Vec::new();
        match self.busy.take() {
            Some((_, Served::App(req))) => lost.push(req),
            Some((_, Served::Rebuild { bytes })) => self.array.rebuild_abort_chunk(bytes),
            None => {}
        }
        lost.extend(self.pending.drain(..).map(|(r, _)| r));
        lost
    }

    /// Bring a crashed node back up (empty queues; array state survives).
    pub fn recover(&mut self) {
        self.down = false;
    }

    /// Whether the node has crashed and not yet recovered.
    pub fn is_down(&self) -> bool {
        self.down
    }

    fn pick_next(&self, head_offset: u64) -> Option<usize> {
        if self.pending.is_empty() {
            return None;
        }
        match self.discipline {
            QueueDiscipline::Fifo => Some(0),
            QueueDiscipline::CScan => {
                // Smallest offset >= head, else wrap to smallest overall.
                let mut best_ge: Option<(u64, usize)> = None;
                let mut best_any: Option<(u64, usize)> = None;
                for (i, (r, _)) in self.pending.iter().enumerate() {
                    if best_any.is_none_or(|(o, _)| r.offset < o) {
                        best_any = Some((r.offset, i));
                    }
                    if r.offset >= head_offset && best_ge.is_none_or(|(o, _)| r.offset < o) {
                        best_ge = Some((r.offset, i));
                    }
                }
                best_ge.or(best_any).map(|(_, i)| i)
            }
            QueueDiscipline::Sstf => self
                .pending
                .iter()
                .enumerate()
                .min_by_key(|(_, (r, _))| r.offset.abs_diff(head_offset))
                .map(|(i, _)| i),
        }
    }

    /// Number of segments waiting (not counting the one in service).
    pub fn queue_depth(&self) -> usize {
        self.pending.len()
    }

    /// Whether work is in service.
    pub fn busy(&self) -> bool {
        self.busy.is_some()
    }

    /// Segments completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Total queueing delay accumulated by started segments.
    pub fn queued_total(&self) -> SimDuration {
        self.queued_total
    }

    /// Member bytes rebuilt so far (statistics).
    pub fn rebuilt_bytes(&self) -> u64 {
        self.rebuilt_bytes
    }

    /// Rebuild chunks completed so far (statistics).
    pub fn rebuild_chunks(&self) -> u64 {
        self.rebuild_chunks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskParams;
    use crate::raid::RaidParams;

    fn node(discipline: QueueDiscipline) -> IoNodeSim {
        IoNodeSim::new(
            Raid3::new(DiskParams::default(), RaidParams::default(), 3),
            discipline,
            SimDuration::from_millis(1),
        )
    }

    fn seg(id: u64, offset: u64, bytes: u64) -> SegmentReq {
        SegmentReq {
            id,
            offset,
            bytes,
            write: false,
            sequential: false,
            failover: false,
        }
    }

    fn complete_id(n: &mut IoNodeSim, now: SimTime) -> u64 {
        match n.complete_head(now) {
            Completion::App { id, .. } => id,
            other => panic!("expected app completion, got {other:?}"),
        }
    }

    #[test]
    fn idle_submit_starts_immediately() {
        let mut n = node(QueueDiscipline::Fifo);
        assert_eq!(
            n.submit(SimTime(0), seg(1, 0, 4096)),
            SubmitOutcome::Started
        );
        assert!(n.busy());
        let done = n.next_done().unwrap();
        assert!(done > SimTime(0));
        assert_eq!(complete_id(&mut n, done), 1);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut n = node(QueueDiscipline::Fifo);
        assert_eq!(
            n.submit(SimTime(0), seg(1, 500 << 20, 4096)),
            SubmitOutcome::Started
        );
        assert_eq!(
            n.submit(SimTime(0), seg(2, 100 << 20, 4096)),
            SubmitOutcome::Queued
        );
        assert_eq!(
            n.submit(SimTime(0), seg(3, 900 << 20, 4096)),
            SubmitOutcome::Queued
        );
        let mut order = Vec::new();
        while let Some(t) = n.next_done() {
            order.push(complete_id(&mut n, t));
        }
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(n.completed(), 3);
        assert_eq!(n.queue_depth(), 0);
    }

    #[test]
    fn cscan_orders_by_offset_from_head() {
        let mut n = node(QueueDiscipline::CScan);
        let _ = n.submit(SimTime(0), seg(1, 500 << 20, 4096));
        let _ = n.submit(SimTime(0), seg(2, 100 << 20, 4096));
        let _ = n.submit(SimTime(0), seg(3, 900 << 20, 4096));
        let _ = n.submit(SimTime(0), seg(4, 600 << 20, 4096));
        let mut order = Vec::new();
        while let Some(t) = n.next_done() {
            order.push(complete_id(&mut n, t));
        }
        // Head ends segment 1 around 500 MB: ascending from there (600, 900),
        // then wrap to 100.
        assert_eq!(order, vec![1, 4, 3, 2]);
    }

    #[test]
    fn cscan_beats_fifo_on_scattered_bursts() {
        // A burst of offset-scattered segments: C-SCAN should finish no later
        // than FIFO (usually strictly earlier thanks to shorter seeks).
        let offs: Vec<u64> = (0..32).map(|i| ((i * 37) % 64) << 24).collect();
        let run = |d| {
            let mut n = node(d);
            for (i, &o) in offs.iter().enumerate() {
                let _ = n.submit(SimTime(0), seg(i as u64, o, 65536));
            }
            let mut last = SimTime(0);
            while let Some(t) = n.next_done() {
                n.complete_head(t);
                last = t;
            }
            last
        };
        let fifo = run(QueueDiscipline::Fifo);
        let cscan = run(QueueDiscipline::CScan);
        assert!(cscan <= fifo, "cscan {cscan} vs fifo {fifo}");
    }

    #[test]
    fn sstf_picks_nearest_offset() {
        let mut n = node(QueueDiscipline::Sstf);
        let _ = n.submit(SimTime(0), seg(1, 500 << 20, 4096));
        let _ = n.submit(SimTime(0), seg(2, 100 << 20, 4096));
        let _ = n.submit(SimTime(0), seg(3, 490 << 20, 4096));
        let _ = n.submit(SimTime(0), seg(4, 900 << 20, 4096));
        let mut order = Vec::new();
        while let Some(t) = n.next_done() {
            order.push(complete_id(&mut n, t));
        }
        // Head ends near 500 MB: nearest is 490, then 900 vs 100 -> 900
        // (410 MB away vs 390... 490->100 is 390, 490->900 is 410): 100 next.
        assert_eq!(order[0], 1);
        assert_eq!(order[1], 3);
        assert_eq!(order, vec![1, 3, 2, 4]);
    }

    #[test]
    fn queueing_delay_accounted() {
        let mut n = node(QueueDiscipline::Fifo);
        let _ = n.submit(SimTime(0), seg(1, 0, 1 << 20));
        let _ = n.submit(SimTime(0), seg(2, 0, 1 << 20));
        let t1 = n.next_done().unwrap();
        n.complete_head(t1);
        assert_eq!(n.queued_total(), t1.since(SimTime(0)));
    }

    #[test]
    #[should_panic(expected = "idle")]
    fn complete_on_idle_panics() {
        let mut n = node(QueueDiscipline::Fifo);
        n.complete_head(SimTime(0));
    }

    #[test]
    fn queue_limit_rejections_are_explicit() {
        let mut n = node(QueueDiscipline::Fifo);
        n.set_queue_limit(1);
        assert_eq!(
            n.submit(SimTime(0), seg(1, 0, 4096)),
            SubmitOutcome::Started
        );
        assert_eq!(n.submit(SimTime(0), seg(2, 0, 4096)), SubmitOutcome::Queued);
        assert_eq!(
            n.submit(SimTime(0), seg(3, 0, 4096)),
            SubmitOutcome::Rejected(RejectReason::QueueFull)
        );
        // The rejected segment was not enqueued.
        assert_eq!(n.queue_depth(), 1);
    }

    #[test]
    fn crash_loses_inflight_and_queued_then_recover_accepts() {
        let mut n = node(QueueDiscipline::Fifo);
        let _ = n.submit(SimTime(0), seg(1, 0, 4096));
        let _ = n.submit(SimTime(0), seg(2, 0, 4096));
        let lost = n.crash();
        assert_eq!(lost.iter().map(|r| r.id).collect::<Vec<_>>(), vec![1, 2]);
        assert!(n.is_down());
        assert!(!n.busy());
        assert_eq!(n.next_done(), None);
        assert_eq!(
            n.submit(SimTime(10), seg(3, 0, 4096)),
            SubmitOutcome::Rejected(RejectReason::Down)
        );
        n.recover();
        assert_eq!(
            n.submit(SimTime(20), seg(3, 0, 4096)),
            SubmitOutcome::Started
        );
    }

    #[test]
    fn stall_delays_completion_and_next_start() {
        let mut n = node(QueueDiscipline::Fifo);
        let _ = n.submit(SimTime(0), seg(1, 0, 4096));
        let before = n.next_done().unwrap();
        let delay = SimDuration::from_millis(40);
        let after = n.stall(SimTime(0), delay).unwrap();
        assert_eq!(after, before + delay);
        assert_eq!(n.next_done(), Some(after));
        // A stale timer at the original time must see nothing due.
        assert!(n.next_done().unwrap() > before);
        n.complete_head(after);
        // An idle-node stall blocks the next start until it expires.
        let mut m = node(QueueDiscipline::Fifo);
        assert_eq!(m.stall(SimTime(0), delay), None);
        let _ = m.submit(SimTime(0), seg(9, 0, 4096));
        assert!(m.next_done().unwrap() >= SimTime(0) + delay);
    }

    #[test]
    fn rebuild_fills_idle_gaps_and_yields_to_foreground() {
        let mut n = node(QueueDiscipline::Fifo);
        n.set_rebuild_chunk(256 << 20);
        n.array_mut().fail_disk(0).unwrap();
        n.array_mut().start_rebuild().unwrap();
        let t0 = n.maybe_start_rebuild(SimTime(0)).unwrap();
        assert!(n.busy());
        // Foreground work queues behind the in-flight chunk...
        assert_eq!(n.submit(SimTime(0), seg(1, 0, 4096)), SubmitOutcome::Queued);
        // ...and preempts further rebuild chunks at the next completion.
        match n.complete_head(t0) {
            Completion::Rebuild { remaining } => assert!(remaining > 0),
            other => panic!("expected rebuild completion, got {other:?}"),
        }
        let t1 = n.next_done().unwrap();
        assert_eq!(
            n.complete_head(t1),
            Completion::App {
                id: 1,
                data_lost: false
            }
        );
        // Idle again: the next completion is rebuild traffic.
        assert!(n.busy(), "rebuild resumes in the idle gap");
        let mut chunks = n.rebuild_chunks();
        while n.array().degraded() {
            let t = n.next_done().unwrap();
            n.complete_head(t);
            chunks += 1;
        }
        assert_eq!(n.rebuild_chunks(), chunks);
        assert_eq!(n.rebuilt_bytes(), DiskParams::default().capacity);
        assert!(!n.array().degraded(), "rebuild completion heals the array");
    }

    #[test]
    fn failover_segments_pay_reconstruction_penalty() {
        let mut a = node(QueueDiscipline::Fifo);
        let mut b = node(QueueDiscipline::Fifo);
        let _ = a.submit(SimTime(0), seg(1, 0, 1 << 20));
        let mut fo = seg(1, 0, 1 << 20);
        fo.failover = true;
        let _ = b.submit(SimTime(0), fo);
        assert!(b.next_done().unwrap() > a.next_done().unwrap());
    }

    #[test]
    fn link_congestion_stretches_new_segments_only() {
        let mut a = node(QueueDiscipline::Fifo);
        let mut b = node(QueueDiscipline::Fifo);
        b.set_link_mult(4.0);
        let _ = a.submit(SimTime(0), seg(1, 0, 1 << 20));
        let _ = b.submit(SimTime(0), seg(1, 0, 1 << 20));
        assert!(b.next_done().unwrap() > a.next_done().unwrap());
        // In-flight work is unaffected by a multiplier change...
        let mut c = node(QueueDiscipline::Fifo);
        let _ = c.submit(SimTime(0), seg(1, 0, 1 << 20));
        let before = c.next_done().unwrap();
        c.set_link_mult(8.0);
        assert_eq!(c.next_done().unwrap(), before);
        // ...and healing restores healthy service exactly.
        c.complete_head(before);
        c.set_link_mult(1.0);
        let _ = c.submit(before, seg(2, 1 << 20, 1 << 20));
        let healthy = {
            let mut d = node(QueueDiscipline::Fifo);
            let _ = d.submit(SimTime(0), seg(1, 0, 1 << 20));
            let t = d.next_done().unwrap();
            d.complete_head(t);
            let _ = d.submit(t, seg(2, 1 << 20, 1 << 20));
            d.next_done().unwrap().since(t)
        };
        assert_eq!(c.next_done().unwrap().since(before), healthy);
    }

    #[test]
    #[should_panic(expected = "link multiplier")]
    fn link_mult_rejects_sub_unity() {
        node(QueueDiscipline::Fifo).set_link_mult(0.5);
    }
}

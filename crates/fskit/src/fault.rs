//! Timer-based delivery of a [`FaultSchedule`], and the fault counters
//! every backend keeps.

use paragon_sim::engine::Sched;
use paragon_sim::fault::{FaultDomain, FaultEvent, FaultSchedule, META_REPLICAS};
use sio_core::hash::FastMap;

use crate::lanes::TimerLanes;

/// Delivers a deterministic [`FaultSchedule`] to a backend: each event is
/// armed as one absolute-time timer at run start, and [`FaultRouter::take`]
/// claims a fired timer back into its event. An empty schedule arms nothing,
/// so a healthy run is bit-identical to one built without fault support.
#[derive(Debug)]
pub struct FaultRouter {
    schedule: FaultSchedule,
    /// Armed events: timer id → event.
    timers: FastMap<u64, FaultEvent>,
}

impl FaultRouter {
    /// New router over a schedule. Panics if any event targets an index its
    /// fault domain does not have — I/O node for disk/node faults, link
    /// region for link faults (one region per I/O node column), metadata
    /// replica for meta faults. A malformed schedule is a caller bug, not a
    /// simulated fault.
    pub fn new(schedule: FaultSchedule, io_nodes: usize) -> FaultRouter {
        for e in schedule.events() {
            let bound = match e.kind.domain() {
                FaultDomain::Disk | FaultDomain::Node | FaultDomain::Link => io_nodes,
                FaultDomain::Meta => META_REPLICAS as usize,
            };
            assert!(
                (e.io_node as usize) < bound,
                "fault schedule targets index {} outside the {} domain (bound {})",
                e.io_node,
                e.kind.domain().label(),
                bound
            );
        }
        FaultRouter {
            schedule,
            timers: FastMap::default(),
        }
    }

    /// Whether a fault schedule is in play (backends arm deadlines and use
    /// lenient owner checks only when it is).
    pub fn enabled(&self) -> bool {
        !self.schedule.is_empty()
    }

    /// Arm one timer per scheduled event, allocating ids from the backend's
    /// timer allocator in schedule order.
    pub fn arm_all(&mut self, timers: &mut TimerLanes, sched: &mut Sched) {
        for ev in self.schedule.clone().events() {
            let id = timers.alloc();
            self.timers.insert(id, *ev);
            sched.timer(ev.at, id);
        }
    }

    /// Claim a fault timer, if `timer` is one.
    pub fn take(&mut self, timer: u64) -> Option<FaultEvent> {
        self.timers.remove(&timer)
    }
}

/// Counters for the fault-handling machinery (all zero on a healthy run).
///
/// One rule on every backend that rides the core's request lifecycle:
/// `timeouts` counts requests — a PFS op, a PFS `M_GLOBAL` group, a CIO
/// collective — and `unavailable` counts member operations, so a failed
/// group or collective adds one per participant (plus one per metadata RPC
/// that exhausted its retries). PPFS keeps the record but reports its own
/// counters instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Segment re-submissions scheduled with backoff.
    pub retries: u64,
    /// Segments failed over to the buddy node.
    pub failovers: u64,
    /// Segments lost to node crashes (in service or queued).
    pub lost_segments: u64,
    /// Segments served from an array with exhausted redundancy.
    pub data_loss_segments: u64,
    /// Requests (ops, groups or collectives) failed by the hard deadline.
    pub timeouts: u64,
    /// Member operations failed because no server would accept them.
    pub unavailable: u64,
    /// Second-failure events that exhausted an array's redundancy.
    pub data_loss_events: u64,
}

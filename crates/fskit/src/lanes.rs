//! Timer-id lanes: a backend's timer-id space, split into fixed
//! per-I/O-node ids, optional reserved singletons, and a dynamic lane.
//!
//! * **Node lane** — ids `0..node_lanes`, one per I/O node: completion
//!   ticks for node `io` always fire as timer `io`.
//! * **Reserved lane** — `node_lanes..node_lanes + reserved`, backend-owned
//!   singletons fixed at construction (PPFS parks its periodic flush timer
//!   here).
//! * **Dynamic lane** — everything above, handed out by
//!   [`TimerLanes::alloc`] in arm order: fault deliveries, backoff retries,
//!   metadata deadlines, deferred completions.
//!
//! Contract: dynamic ids are allocated in arm order, one apart — the same
//! sequence a plain `let id = n; n += 1` counter produces. The `blog` tier
//! allocates its own timers from a disjoint high-bit namespace
//! (`BLOG_TIMER_BIT | id`) on top of its inner backend's ids.

/// The timer-id allocator for one backend instance. See the module docs
/// for the lane layout.
#[derive(Debug, Clone)]
pub struct TimerLanes {
    /// Ids below this are per-I/O-node completion timers.
    node_lanes: u64,
    /// Next dynamic id to hand out.
    next: u64,
}

impl TimerLanes {
    /// Lanes over `node_lanes` I/O nodes with no reserved singletons:
    /// dynamic ids start at `node_lanes`.
    pub fn new(node_lanes: usize) -> TimerLanes {
        TimerLanes::with_reserved(node_lanes, 0)
    }

    /// Lanes with `reserved` backend-owned singleton ids between the node
    /// lane and the dynamic lane. The backend addresses its singletons as
    /// `node_lanes + k` for `k < reserved`; dynamic ids start above them.
    pub fn with_reserved(node_lanes: usize, reserved: u64) -> TimerLanes {
        TimerLanes {
            node_lanes: node_lanes as u64,
            next: node_lanes as u64 + reserved,
        }
    }

    /// Whether `id` is a per-I/O-node completion timer (the node index is
    /// then `id` itself).
    pub fn is_node_timer(&self, id: u64) -> bool {
        id < self.node_lanes
    }

    /// Allocate the next dynamic timer id.
    pub fn alloc(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_lanes_allocate_above_the_node_lane() {
        let mut lanes = TimerLanes::new(16);
        for io in 0..16 {
            assert!(lanes.is_node_timer(io));
        }
        assert!(!lanes.is_node_timer(16));
        assert_eq!(lanes.alloc(), 16);
        assert_eq!(lanes.alloc(), 17);
        assert!(!lanes.is_node_timer(17));
    }

    #[test]
    fn reserved_ids_sit_between_node_and_dynamic_lanes() {
        let mut lanes = TimerLanes::with_reserved(8, 1);
        assert!(lanes.is_node_timer(7));
        // Id 8 is the backend's reserved singleton: not a node timer, and
        // never handed out dynamically.
        assert!(!lanes.is_node_timer(8));
        assert_eq!(lanes.alloc(), 9);
        assert_eq!(lanes.alloc(), 10);
    }

    #[test]
    fn zero_node_lanes_still_allocates() {
        let mut lanes = TimerLanes::new(0);
        assert!(!lanes.is_node_timer(0));
        assert_eq!(lanes.alloc(), 0);
    }
}

//! Parking/drain bookkeeping for `Sync` commits.

use paragon_sim::program::IoToken;
use paragon_sim::{NodeId, SimTime};

/// A `Sync` call parked until every in-flight write on its file has reached
/// the arrays.
#[derive(Debug, Clone, Copy)]
pub struct SyncWaiter {
    /// The engine token to acknowledge.
    pub token: IoToken,
    /// Issuing compute node.
    pub node: NodeId,
    /// The synced file.
    pub file: u32,
    /// When the call was issued (commit latency spans issue → drain).
    pub issued: SimTime,
}

/// The parked-`Sync` ledger: commits wait here while their file still has
/// outstanding write traffic, and drain — in parking order — once the last
/// write lands. The backend decides what "outstanding" means (in-flight
/// segments for write-through PFS, dirty cache blocks for write-behind PPFS).
#[derive(Debug, Default)]
pub struct SyncLedger {
    waiters: Vec<SyncWaiter>,
}

impl SyncLedger {
    /// New, empty ledger.
    pub fn new() -> SyncLedger {
        SyncLedger::default()
    }

    /// Park a commit until its file drains.
    pub fn park(&mut self, waiter: SyncWaiter) {
        self.waiters.push(waiter);
    }

    /// Whether any commit is parked (cheap guard before drain checks).
    pub fn is_empty(&self) -> bool {
        self.waiters.is_empty()
    }

    /// Remove and return every waiter parked on `file`, preserving parking
    /// order.
    pub fn take_for(&mut self, file: u32) -> Vec<SyncWaiter> {
        let mut ready = Vec::new();
        let mut i = 0;
        while i < self.waiters.len() {
            if self.waiters[i].file == file {
                ready.push(self.waiters.remove(i));
            } else {
                i += 1;
            }
        }
        ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_for_preserves_parking_order_and_leaves_other_files() {
        let mut ledger = SyncLedger::new();
        for (token, file) in [(1u64, 0u32), (2, 1), (3, 0), (4, 0)] {
            ledger.park(SyncWaiter {
                token,
                node: 0,
                file,
                issued: SimTime::ZERO,
            });
        }
        let drained: Vec<u64> = ledger.take_for(0).iter().map(|w| w.token).collect();
        assert_eq!(drained, vec![1, 3, 4]);
        assert!(!ledger.is_empty());
        assert_eq!(ledger.take_for(1).len(), 1);
        assert!(ledger.is_empty());
    }
}

//! File registry with the fixed-slot allocator, and the metadata server.

use crate::file::{FileSpec, FileState};
use paragon_sim::program::IoFault;
use paragon_sim::{SimDuration, SimTime};

/// The file registry every backend shares: specs, runtime state, and the
/// fixed-slot per-I/O-node allocator (file `f`'s node-local space starts at
/// `f × file_slot`, bounded by the array capacity).
#[derive(Debug)]
pub struct FileTable {
    files: Vec<FileState>,
    file_slot: u64,
    array_capacity: u64,
}

impl FileTable {
    /// New table over the given allocator geometry.
    pub fn new(file_slot: u64, array_capacity: u64) -> FileTable {
        assert!(file_slot > 0, "file slot must be nonzero");
        FileTable {
            files: Vec::new(),
            file_slot,
            array_capacity,
        }
    }

    /// Slots the allocator can hand out before exhausting the arrays.
    pub fn max_slots(&self) -> u64 {
        self.array_capacity / self.file_slot
    }

    /// Register a file, returning its id, or a typed
    /// [`IoFault::Unavailable`] when the fixed-slot allocator is exhausted —
    /// capacity exhaustion is an explicit failure, not a debug assertion.
    pub fn try_register(&mut self, spec: FileSpec) -> Result<u32, IoFault> {
        let id = self.files.len() as u32;
        if (id as u64) >= self.max_slots() {
            return Err(IoFault::Unavailable);
        }
        self.files.push(FileState::new(spec));
        Ok(id)
    }

    /// [`FileTable::try_register`], panicking on allocator exhaustion (the
    /// pre-run registration path, where exhaustion is a workload bug).
    pub fn register(&mut self, spec: FileSpec) -> u32 {
        let slots = self.max_slots();
        self.try_register(spec)
            .unwrap_or_else(|_| panic!("file slot allocator exhausted ({slots} slots)"))
    }

    /// Node-local base offset of a file's allocator slot.
    pub fn slot_base(&self, file: u32) -> u64 {
        file as u64 * self.file_slot
    }

    /// Current length of a registered file.
    pub fn len_of(&self, file: u32) -> u64 {
        self.files[file as usize].len
    }

    /// Number of registered files.
    pub fn count(&self) -> usize {
        self.files.len()
    }

    /// Mutable runtime state of one file.
    pub fn state(&mut self, file: u32) -> &mut FileState {
        &mut self.files[file as usize]
    }

    /// Shared runtime state of one file.
    pub fn get(&self, file: u32) -> &FileState {
        &self.files[file as usize]
    }
}

/// Outcome of offering a metadata operation to the replicated server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaVerdict {
    /// Serialized on a live replica; completes at this time.
    Done(SimTime),
    /// Both replicas are down: the caller must park the RPC and retry with
    /// bounded backoff (surfacing `IoFault::Unavailable` on exhaustion).
    Outage,
}

/// Counters of the metadata fault machinery (all zero on a healthy run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetaStats {
    /// RPCs served by the buddy because the primary was down.
    pub failovers: u64,
    /// Parked RPC retries during a full outage.
    pub retries: u64,
    /// RPCs that exhausted their retries and surfaced
    /// `IoFault::Unavailable`.
    pub unavailable: u64,
}

/// The replicated metadata service: opens, creates, closes, and `lsize`
/// queue through the primary replica's next-free time, with a buddy replica
/// for failover. The chaos layer's `MetaStall`/`MetaCrash`/`MetaRecover`
/// fault events target replicas by index (0 = primary, 1 = buddy,
/// `paragon_sim::META_REPLICAS` total):
///
/// * a **stalled** replica serves nothing new until the stall expires —
///   queued RPCs complete late but never fail;
/// * a **crashed** primary fails RPCs over to the buddy (counted in
///   [`MetaStats::failovers`]);
/// * with **both replicas down** the verdict is [`MetaVerdict::Outage`] and
///   the backend parks the RPC with bounded retry.
///
/// Healthy-path bit-identity: with no meta fault events the buddy is never
/// consulted and [`MetaServer::try_op`] reduces exactly to the historical
/// single-queue serialization.
#[derive(Debug, Default)]
pub struct MetaServer {
    /// Next-free time per replica (index 0 = primary, 1 = buddy).
    free: [SimTime; 2],
    /// Crashed replicas.
    down: [bool; 2],
    /// No RPC starts on the replica before this time (transient stall).
    stalled_until: [SimTime; 2],
    stats: MetaStats,
}

impl MetaServer {
    /// New, idle server (both replicas healthy).
    pub fn new() -> MetaServer {
        MetaServer::default()
    }

    /// Offer a metadata operation: serialize it on the primary, fail over to
    /// the buddy when the primary is down, or report a full outage.
    pub fn try_op(&mut self, now: SimTime, cost: SimDuration) -> MetaVerdict {
        let replica = if !self.down[0] {
            0
        } else if !self.down[1] {
            self.stats.failovers += 1;
            1
        } else {
            return MetaVerdict::Outage;
        };
        let start = self.free[replica].max(now).max(self.stalled_until[replica]);
        let done = start + cost;
        self.free[replica] = done;
        MetaVerdict::Done(done)
    }

    /// Stall `replica`: nothing new starts on it before `now + for_dur`.
    pub fn stall(&mut self, now: SimTime, replica: u32, for_dur: SimDuration) {
        let s = &mut self.stalled_until[replica as usize];
        *s = (*s).max(now + for_dur);
    }

    /// Crash `replica`: it serves nothing until [`MetaServer::recover`].
    pub fn crash(&mut self, replica: u32) {
        self.down[replica as usize] = true;
    }

    /// Recover `replica`.
    pub fn recover(&mut self, replica: u32) {
        self.down[replica as usize] = false;
    }

    /// Whether both replicas are down (RPCs must park).
    pub fn outage(&self) -> bool {
        self.down[0] && self.down[1]
    }

    /// Count one parked-RPC retry attempt.
    pub fn note_retry(&mut self) {
        self.stats.retries += 1;
    }

    /// Count one RPC that exhausted its retries during an outage.
    pub fn note_unavailable(&mut self) {
        self.stats.unavailable += 1;
    }

    /// Fault-machinery counters.
    pub fn stats(&self) -> MetaStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_returns_unavailable_on_slot_exhaustion() {
        // 4096-byte arrays with 1024-byte slots: exactly 4 slots.
        let mut t = FileTable::new(1024, 4096);
        for i in 0..4 {
            assert_eq!(t.try_register(FileSpec::output(&format!("f{i}"))), Ok(i));
        }
        assert_eq!(
            t.try_register(FileSpec::output("overflow")),
            Err(IoFault::Unavailable)
        );
        // The failed registration did not corrupt the table.
        assert_eq!(t.count(), 4);
        assert_eq!(t.slot_base(3), 3 * 1024);
    }

    #[test]
    #[should_panic(expected = "slot allocator exhausted")]
    fn panicking_register_reports_slots() {
        let mut t = FileTable::new(1024, 1024);
        t.register(FileSpec::output("a"));
        t.register(FileSpec::output("b"));
    }

    #[test]
    fn meta_server_serializes() {
        let mut m = MetaServer::new();
        let c = SimDuration::from_millis(10);
        let d1 = SimTime::ZERO + c;
        assert_eq!(m.try_op(SimTime::ZERO, c), MetaVerdict::Done(d1));
        assert_eq!(m.try_op(SimTime::ZERO, c), MetaVerdict::Done(d1 + c));
        // An op arriving after the queue drains starts immediately.
        let later = d1 + c + SimDuration::from_millis(5);
        assert_eq!(m.try_op(later, c), MetaVerdict::Done(later + c));
        // A healthy run never touches the buddy or the fault counters.
        assert_eq!(m.stats(), MetaStats::default());
    }

    #[test]
    fn meta_server_fails_over_and_reports_outage() {
        let mut m = MetaServer::new();
        let c = SimDuration::from_millis(10);
        // Prime the primary queue, then crash it: the buddy starts fresh.
        assert_eq!(m.try_op(SimTime::ZERO, c), MetaVerdict::Done(SimTime(c.0)));
        m.crash(0);
        assert_eq!(m.try_op(SimTime::ZERO, c), MetaVerdict::Done(SimTime(c.0)));
        assert_eq!(m.stats().failovers, 1);
        // Both down: outage until one recovers.
        m.crash(1);
        assert!(m.outage());
        assert_eq!(m.try_op(SimTime::ZERO, c), MetaVerdict::Outage);
        m.recover(0);
        assert!(!m.outage());
        // The recovered primary resumes from its own queue tail.
        assert_eq!(
            m.try_op(SimTime::ZERO, c),
            MetaVerdict::Done(SimTime(2 * c.0))
        );
    }

    #[test]
    fn meta_server_stall_defers_start_without_failing() {
        let mut m = MetaServer::new();
        let c = SimDuration::from_millis(10);
        let stall = SimDuration::from_millis(50);
        m.stall(SimTime::ZERO, 0, stall);
        // The RPC completes late — stall start + cost — but never fails.
        assert_eq!(
            m.try_op(SimTime::ZERO, c),
            MetaVerdict::Done(SimTime(stall.0 + c.0))
        );
        // Overlapping stalls extend, never shrink, the quiet window.
        m.stall(SimTime::ZERO, 0, SimDuration::from_millis(20));
        assert_eq!(
            m.try_op(SimTime::ZERO, c),
            MetaVerdict::Done(SimTime(stall.0 + 2 * c.0))
        );
    }
}

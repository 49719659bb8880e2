//! File registration and runtime state.
//!
//! Files are registered with the file system before the run (the simulator
//! has no path namespace — applications refer to files by id, matching the
//! file-identifier axis of the paper's file-access timelines). A
//! [`FileSpec`] describes the file's provenance: pre-existing input files
//! carry an initial size; output files start empty and pay a creation cost
//! on first open.

use crate::mode::AccessMode;
use paragon_sim::{NodeId, SimTime};
use serde::{Deserialize, Serialize};

/// Static description of a registered file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FileSpec {
    /// Human-readable name (reports only).
    pub name: String,
    /// Initial length; nonzero for pre-existing input data sets.
    pub initial_len: u64,
    /// Whether the file exists before the run (true ⇒ first open is a plain
    /// open; false ⇒ first open pays the creation cost).
    pub exists: bool,
}

impl FileSpec {
    /// A pre-existing input file of the given length.
    pub fn input(name: &str, len: u64) -> FileSpec {
        FileSpec {
            name: name.to_string(),
            initial_len: len,
            exists: true,
        }
    }

    /// An output file created by the application.
    pub fn output(name: &str) -> FileSpec {
        FileSpec {
            name: name.to_string(),
            initial_len: 0,
            exists: false,
        }
    }
}

/// `ranks` entry of a node outside the participant snapshot.
const NO_RANK: u32 = u32::MAX;

/// `v[node]`, growing `v` with defaults to cover `node`.
fn slot<T: Copy + Default>(v: &mut Vec<T>, node: NodeId) -> &mut T {
    let i = node as usize;
    if i >= v.len() {
        v.resize(i + 1, T::default());
    }
    &mut v[i]
}

/// Runtime state of one file. Per-node state is held in vectors indexed by
/// node id.
#[derive(Debug)]
pub struct FileState {
    /// Static spec.
    pub spec: FileSpec,
    /// Current length.
    pub len: u64,
    /// Whether creation has happened (first open of a non-existing file).
    pub created: bool,
    /// Access mode fixed by the current open wave (`None` when closed
    /// everywhere).
    pub mode: Option<AccessMode>,
    /// Whether each node currently holds the file open.
    openers: Vec<bool>,
    /// Number of `true` entries in `openers`.
    opener_count: usize,
    /// Per-node file pointers (independent-pointer modes).
    pos: Vec<u64>,
    /// Shared file pointer (shared-pointer modes).
    pub shared_pos: u64,
    /// Next-free time of the shared-pointer token (M_LOG serialization).
    pub token_free: SimTime,
    /// Fixed record size (M_RECORD), locked by the first data access.
    pub record_size: Option<u64>,
    /// Per-node operation counters (M_RECORD record indexing).
    op_count: Vec<u64>,
    /// Participant snapshot for ordered/collective modes (sorted node ids),
    /// taken at the first data access after an open wave.
    participants: Option<Vec<NodeId>>,
    /// Each node's index in `participants` (`NO_RANK` if absent), built
    /// with the snapshot.
    ranks: Vec<u32>,
    /// M_SYNC: index into `participants` whose turn is next.
    pub turn: u64,
}

impl FileState {
    /// Fresh state from a spec.
    pub fn new(spec: FileSpec) -> FileState {
        let len = spec.initial_len;
        FileState {
            spec,
            len,
            created: false,
            mode: None,
            openers: Vec::new(),
            opener_count: 0,
            pos: Vec::new(),
            shared_pos: 0,
            token_free: SimTime::ZERO,
            record_size: None,
            op_count: Vec::new(),
            participants: None,
            ranks: Vec::new(),
            turn: 0,
        }
    }

    /// Record an open by `node` with `mode`. Returns whether this open must
    /// pay the creation cost.
    pub fn open(&mut self, node: NodeId, mode: AccessMode) -> bool {
        let create = !self.spec.exists && !self.created;
        self.created |= create;
        match self.mode {
            None => self.mode = Some(mode),
            Some(m) => assert_eq!(
                m, mode,
                "file {} opened with conflicting modes {m} vs {mode}",
                self.spec.name
            ),
        }
        let open = slot(&mut self.openers, node);
        if !*open {
            *open = true;
            self.opener_count += 1;
        }
        create
    }

    /// Record a close by `node`. When the last opener leaves, pointer state
    /// resets so the file can be reopened in a different mode (ESCAT's
    /// staging files are written with M_UNIX and reread with M_RECORD).
    pub fn close(&mut self, node: NodeId) {
        if let Some(open) = self.openers.get_mut(node as usize) {
            if *open {
                *open = false;
                self.opener_count -= 1;
            }
        }
        if self.opener_count == 0 {
            self.mode = None;
            self.pos.clear();
            self.shared_pos = 0;
            self.record_size = None;
            self.op_count.clear();
            self.participants = None;
            self.ranks.clear();
            self.turn = 0;
        }
    }

    /// Number of nodes currently holding the file open.
    pub fn opener_count(&self) -> usize {
        self.opener_count
    }

    /// Snapshot participants (sorted openers) and their rank table if not
    /// yet snapshotted, and return them.
    pub fn participants(&mut self) -> &[NodeId] {
        if self.participants.is_none() {
            let parts: Vec<NodeId> = (0..self.openers.len() as NodeId)
                .filter(|&n| self.openers[n as usize])
                .collect();
            self.ranks = vec![NO_RANK; self.openers.len()];
            for (rank, &n) in parts.iter().enumerate() {
                self.ranks[n as usize] = rank as u32;
            }
            self.participants = Some(parts);
        }
        self.participants.as_deref().unwrap()
    }

    /// Rank of a node among the participants.
    pub fn rank_of(&mut self, node: NodeId) -> u64 {
        self.participants();
        match self.ranks.get(node as usize) {
            Some(&rank) if rank != NO_RANK => rank as u64,
            _ => panic!("node {node} not a participant of {}", self.spec.name),
        }
    }

    /// `node`'s file pointer (independent-pointer modes), 0 until moved.
    pub fn pointer_mut(&mut self, node: NodeId) -> &mut u64 {
        slot(&mut self.pos, node)
    }

    /// M_UNIX/M_ASYNC (and PPFS's client pointers): the op's offset —
    /// explicit, else `node`'s pointer — with the pointer moved past it.
    pub fn advance_pointer(&mut self, node: NodeId, explicit: Option<u64>, bytes: u64) -> u64 {
        let pos = self.pointer_mut(node);
        let offset = explicit.unwrap_or(*pos);
        *pos = offset + bytes;
        offset
    }

    /// M_RECORD: the offset of `node`'s next fixed-size record — its
    /// `k`-th record among `n` participants lands at `(k·n+rank)·rs` — and
    /// count it. The first access fixes the record size `rs`; panics on a
    /// different one.
    pub fn next_record(&mut self, node: NodeId, bytes: u64) -> u64 {
        let rs = *self.record_size.get_or_insert(bytes);
        assert_eq!(
            bytes, rs,
            "M_RECORD requires fixed-size records ({rs} B) on {}",
            self.spec.name
        );
        let n = self.participants().len() as u64;
        let rank = self.rank_of(node);
        let k = slot(&mut self.op_count, node);
        let offset = (*k * n + rank) * rs;
        *k += 1;
        offset
    }

    /// Extend length after a write ending at `end`.
    pub fn extend_to(&mut self, end: u64) {
        self.len = self.len.max(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_only_on_first_open_of_output() {
        let mut f = FileState::new(FileSpec::output("out"));
        assert!(f.open(0, AccessMode::MUnix));
        assert!(!f.open(1, AccessMode::MUnix));
        let mut g = FileState::new(FileSpec::input("in", 100));
        assert!(!g.open(0, AccessMode::MUnix));
        assert_eq!(g.len, 100);
    }

    #[test]
    #[should_panic(expected = "conflicting modes")]
    fn conflicting_modes_panic() {
        let mut f = FileState::new(FileSpec::output("out"));
        f.open(0, AccessMode::MUnix);
        f.open(1, AccessMode::MLog);
    }

    #[test]
    fn reopen_after_full_close_allows_new_mode() {
        let mut f = FileState::new(FileSpec::output("staging"));
        f.open(0, AccessMode::MUnix);
        f.extend_to(1000);
        f.close(0);
        assert_eq!(f.opener_count(), 0);
        // Data persists; pointer state reset; new mode accepted.
        f.open(0, AccessMode::MRecord);
        assert_eq!(f.len, 1000);
        assert_eq!(f.mode, Some(AccessMode::MRecord));
        // Reopening does not pay creation again.
        let mut g = FileState::new(FileSpec::output("o"));
        assert!(g.open(0, AccessMode::MUnix));
        g.close(0);
        assert!(!g.open(0, AccessMode::MUnix));
    }

    #[test]
    fn participants_snapshot_and_rank() {
        let mut f = FileState::new(FileSpec::output("s"));
        f.open(5, AccessMode::MRecord);
        f.open(2, AccessMode::MRecord);
        f.open(9, AccessMode::MRecord);
        assert_eq!(f.participants(), &[2, 5, 9]);
        assert_eq!(f.rank_of(2), 0);
        assert_eq!(f.rank_of(5), 1);
        assert_eq!(f.rank_of(9), 2);
        // Snapshot is stable even if another node opens later.
        f.open(1, AccessMode::MRecord);
        assert_eq!(f.participants(), &[2, 5, 9]);
    }

    #[test]
    fn full_close_resets_the_snapshot_and_record_counters() {
        let mut f = FileState::new(FileSpec::output("r"));
        f.open(3, AccessMode::MRecord);
        f.open(1, AccessMode::MRecord);
        assert_eq!(f.next_record(3, 10), 10);
        assert_eq!(f.next_record(3, 10), 30);
        f.close(3);
        f.close(3); // closing twice is a no-op
        assert_eq!(f.opener_count(), 1);
        f.close(1);
        f.open(3, AccessMode::MRecord);
        assert_eq!(f.participants(), &[3]);
        assert_eq!(f.rank_of(3), 0);
        assert_eq!(f.next_record(3, 20), 0, "counters and record size reset");
        assert_eq!(*f.pointer_mut(1), 0);
    }

    #[test]
    #[should_panic(expected = "not a participant")]
    fn rank_of_a_late_opener_panics() {
        let mut f = FileState::new(FileSpec::output("s"));
        f.open(0, AccessMode::MRecord);
        f.participants();
        f.open(7, AccessMode::MRecord);
        f.rank_of(7);
    }

    #[test]
    fn extend_only_grows() {
        let mut f = FileState::new(FileSpec::input("i", 50));
        f.extend_to(10);
        assert_eq!(f.len, 50);
        f.extend_to(99);
        assert_eq!(f.len, 99);
    }
}

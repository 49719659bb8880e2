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
use std::collections::BTreeMap;

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

/// Runtime state of one file.
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
    /// Nodes currently holding the file open, with their open order.
    pub openers: BTreeMap<NodeId, ()>,
    /// Per-node file pointers (independent-pointer modes).
    pub pos: BTreeMap<NodeId, u64>,
    /// Shared file pointer (shared-pointer modes).
    pub shared_pos: u64,
    /// Next-free time of the shared-pointer token (M_LOG serialization).
    pub token_free: SimTime,
    /// Fixed record size (M_RECORD), locked by the first data access.
    pub record_size: Option<u64>,
    /// Per-node operation counters (M_RECORD record indexing).
    pub op_count: BTreeMap<NodeId, u64>,
    /// Participant snapshot for ordered/collective modes (sorted node ids),
    /// taken at the first data access after an open wave.
    pub participants: Option<Vec<NodeId>>,
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
            openers: BTreeMap::new(),
            pos: BTreeMap::new(),
            shared_pos: 0,
            token_free: SimTime::ZERO,
            record_size: None,
            op_count: BTreeMap::new(),
            participants: None,
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
        self.openers.insert(node, ());
        self.pos.entry(node).or_insert(0);
        create
    }

    /// Record a close by `node`. When the last opener leaves, pointer state
    /// resets so the file can be reopened in a different mode (ESCAT's
    /// staging files are written with M_UNIX and reread with M_RECORD).
    pub fn close(&mut self, node: NodeId) {
        self.openers.remove(&node);
        if self.openers.is_empty() {
            self.mode = None;
            self.pos.clear();
            self.shared_pos = 0;
            self.record_size = None;
            self.op_count.clear();
            self.participants = None;
            self.turn = 0;
        }
    }

    /// Number of nodes currently holding the file open.
    pub fn opener_count(&self) -> usize {
        self.openers.len()
    }

    /// Snapshot participants (sorted openers) if not yet snapshotted, and
    /// return them.
    pub fn participants(&mut self) -> &[NodeId] {
        if self.participants.is_none() {
            self.participants = Some(self.openers.keys().copied().collect());
        }
        self.participants.as_deref().unwrap()
    }

    /// Rank of a node among the participants.
    pub fn rank_of(&mut self, node: NodeId) -> u64 {
        let parts = self.participants();
        parts
            .iter()
            .position(|&n| n == node)
            .unwrap_or_else(|| panic!("node {node} not a participant of {}", self.spec.name))
            as u64
    }

    /// M_UNIX/M_ASYNC (and PPFS's client pointers): the op's offset —
    /// explicit, else `node`'s pointer — with the pointer moved past it.
    pub fn advance_pointer(&mut self, node: NodeId, explicit: Option<u64>, bytes: u64) -> u64 {
        let pos = self.pos.entry(node).or_insert(0);
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
        let k = self.op_count.entry(node).or_insert(0);
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
    fn extend_only_grows() {
        let mut f = FileState::new(FileSpec::input("i", 50));
        f.extend_to(10);
        assert_eq!(f.len, 50);
        f.extend_to(99);
        assert_eq!(f.len, 99);
    }
}

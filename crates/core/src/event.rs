//! Application-level I/O event model.
//!
//! An [`IoEvent`] corresponds to one invocation of an I/O routine on one
//! node: the operation kind, the file it touched, the byte extent involved,
//! and the (simulated or real) wall-clock interval the call occupied. This is
//! the unit of data the Pablo instrumentation captured per call (§3.1 of the
//! paper); every reduction and statistic in this crate consumes streams of
//! these events.

use serde::{Deserialize, Serialize};

/// Identifier of a (compute) node. Matches the Paragon's logical node number.
pub type NodeId = u32;

/// Identifier of a file, as reported in the paper's file-access timelines
/// (e.g. ESCAT's files 3, 4, 5, 7, 8, 9, 10, 11 in Figure 5).
pub type FileId = u32;

/// A timestamp or duration in nanoseconds.
///
/// The characterization core is agnostic about where time comes from: the
/// Paragon simulator feeds it simulated nanoseconds; a `std::fs` shim would
/// feed it monotonic clock readings.
pub type Ns = u64;

/// Nanoseconds per second, as an `f64` for report formatting.
pub const NS_PER_SEC: f64 = 1.0e9;

/// The kinds of I/O operation the instrumentation distinguishes.
///
/// The set mirrors the operation rows of Tables 1, 3, and 5 of the paper:
/// reads, writes, seeks, opens, and closes, plus the asynchronous read /
/// I/O-wait pair observed in RENDER (Table 3) and the Fortran `lsize` /
/// `forflush` calls observed in HTF (Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[repr(u8)]
pub enum IoOp {
    /// Synchronous (blocking) read.
    Read = 0,
    /// Synchronous write.
    Write = 1,
    /// Explicit file-pointer seek. For seeks, [`IoEvent::bytes`] records the
    /// *seek distance* (the paper's Table 5 reports a byte "volume" for the
    /// seeks of the self-consistent-field phase).
    Seek = 2,
    /// File open (or create).
    Open = 3,
    /// File close.
    Close = 4,
    /// Asynchronous read issue (`iread` on the Paragon). The event interval
    /// covers only the *issue* cost; the data arrives later.
    AsyncRead = 5,
    /// Wait for an outstanding asynchronous operation (`iowait`). The event
    /// interval is the blocked time not hidden by overlap.
    IoWait = 6,
    /// Buffer flush (`forflush` in the HTF Fortran runtime).
    Flush = 7,
    /// File-size query (`lsize`).
    Lsize = 8,
}

impl IoOp {
    /// All operation kinds, in table-row order.
    pub const ALL: [IoOp; 9] = [
        IoOp::Read,
        IoOp::Write,
        IoOp::Seek,
        IoOp::Open,
        IoOp::Close,
        IoOp::AsyncRead,
        IoOp::IoWait,
        IoOp::Flush,
        IoOp::Lsize,
    ];

    /// Whether the operation moves user data (reads and writes, sync or not).
    pub fn is_data(self) -> bool {
        matches!(self, IoOp::Read | IoOp::Write | IoOp::AsyncRead)
    }

    /// Whether the operation reads user data.
    pub fn is_read(self) -> bool {
        matches!(self, IoOp::Read | IoOp::AsyncRead)
    }

    /// Whether the operation writes user data.
    pub fn is_write(self) -> bool {
        self == IoOp::Write
    }

    /// Human-readable label used in reports (matches the paper's tables).
    pub fn label(self) -> &'static str {
        match self {
            IoOp::Read => "Read",
            IoOp::Write => "Write",
            IoOp::Seek => "Seek",
            IoOp::Open => "Open",
            IoOp::Close => "Close",
            IoOp::AsyncRead => "AsynchRead",
            IoOp::IoWait => "I/O Wait",
            IoOp::Flush => "Forflush",
            IoOp::Lsize => "Lsize",
        }
    }

    /// Inverse of the `repr(u8)` discriminant, for trace decoding.
    pub fn from_u8(v: u8) -> Option<IoOp> {
        IoOp::ALL.into_iter().find(|op| *op as u8 == v)
    }
}

/// One instrumented I/O call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoEvent {
    /// Node that issued the call.
    pub node: NodeId,
    /// File the call addressed. Events that do not address a file (e.g. a
    /// pure `iowait`) use the file id of the operation they complete.
    pub file: FileId,
    /// Operation kind.
    pub op: IoOp,
    /// Starting byte offset of the access (0 when not meaningful).
    pub offset: u64,
    /// Bytes transferred; for [`IoOp::Seek`] the absolute seek distance.
    pub bytes: u64,
    /// Call start, in nanoseconds.
    pub start: Ns,
    /// Call end (completion of the blocking portion), in nanoseconds.
    pub end: Ns,
}

impl IoEvent {
    /// Create an event with zero extent and zero-length interval; chain with
    /// [`IoEvent::span`] and [`IoEvent::extent`] to fill it in.
    pub fn new(node: NodeId, file: FileId, op: IoOp) -> IoEvent {
        IoEvent {
            node,
            file,
            op,
            offset: 0,
            bytes: 0,
            start: 0,
            end: 0,
        }
    }

    /// Set the time interval `[start, end]` of the call.
    #[must_use]
    pub fn span(mut self, start: Ns, end: Ns) -> IoEvent {
        self.start = start;
        self.end = end;
        self
    }

    /// Set the byte extent `[offset, offset + bytes)` the call addressed.
    #[must_use]
    pub fn extent(mut self, offset: u64, bytes: u64) -> IoEvent {
        self.offset = offset;
        self.bytes = bytes;
        self
    }

    /// Duration of the blocking portion of the call.
    pub fn duration(&self) -> Ns {
        self.end.saturating_sub(self.start)
    }

    /// Validate internal consistency (`end >= start`).
    pub fn validate(&self) -> crate::Result<()> {
        if self.end < self.start {
            return Err(crate::Error::InvalidEvent(format!(
                "event ends before it starts: {self:?}"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_roundtrips_through_u8() {
        for op in IoOp::ALL {
            assert_eq!(IoOp::from_u8(op as u8), Some(op));
        }
        assert_eq!(IoOp::from_u8(200), None);
    }

    #[test]
    fn op_classification() {
        assert!(IoOp::Read.is_data());
        assert!(IoOp::AsyncRead.is_data());
        assert!(IoOp::Write.is_data());
        assert!(!IoOp::Seek.is_data());
        assert!(IoOp::Read.is_read());
        assert!(IoOp::AsyncRead.is_read());
        assert!(!IoOp::Write.is_read());
        assert!(IoOp::Write.is_write());
        assert!(!IoOp::IoWait.is_write());
    }

    #[test]
    fn event_builder_and_duration() {
        let ev = IoEvent::new(3, 9, IoOp::Write).span(10, 35).extent(100, 8);
        assert_eq!(ev.node, 3);
        assert_eq!(ev.file, 9);
        assert_eq!(ev.duration(), 25);
        assert_eq!(ev.offset, 100);
        assert_eq!(ev.bytes, 8);
        ev.validate().unwrap();
    }

    #[test]
    fn invalid_event_rejected() {
        let ev = IoEvent::new(0, 0, IoOp::Read).span(10, 5);
        assert!(ev.validate().is_err());
        // saturating: duration never underflows
        assert_eq!(ev.duration(), 0);
    }

    #[test]
    fn labels_match_paper_tables() {
        assert_eq!(IoOp::AsyncRead.label(), "AsynchRead");
        assert_eq!(IoOp::IoWait.label(), "I/O Wait");
        assert_eq!(IoOp::Flush.label(), "Forflush");
    }
}

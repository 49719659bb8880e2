//! File-lifetime summaries.
//!
//! Pablo's file-lifetime reduction recorded, per file, "the number and total
//! duration of file reads, writes, seeks, opens, and closes, as well as the
//! number of bytes accessed for each file, and the total time each file was
//! open" (§3.1). [`LifetimeReducer`] computes exactly that, per file, with
//! open time tracked per (node, file) open interval.

use super::{OpAgg, Reducer};
use crate::event::{FileId, IoEvent, IoOp, NodeId, Ns};
use std::collections::BTreeMap;

/// Lifetime summary for one file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FileLifetime {
    /// Per-operation aggregates, indexed by `IoOp as u8`.
    ops: [OpAgg; IoOp::ALL.len()],
    /// Bytes read from the file (sync + async reads).
    pub bytes_read: u64,
    /// Bytes written to the file.
    pub bytes_written: u64,
    /// Sum over all (node, open-interval) pairs of time the file was open.
    pub open_time_ns: Ns,
    /// Number of nodes currently holding the file open (transient; useful
    /// when the reduction is consulted mid-run).
    pub open_handles: u32,
    /// First time the file was touched.
    pub first_access_ns: Option<Ns>,
    /// Last time the file was touched.
    pub last_access_ns: Option<Ns>,
}

impl FileLifetime {
    /// Aggregate for one operation kind.
    pub fn op(&self, op: IoOp) -> &OpAgg {
        &self.ops[op as usize]
    }

    /// Total number of operations of any kind.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().map(|a| a.count).sum()
    }

    /// Total blocking time across all operation kinds.
    pub fn total_time_ns(&self) -> Ns {
        self.ops.iter().map(|a| a.time_ns).sum()
    }
}

/// Per-file lifetime reduction.
#[derive(Debug, Default)]
pub struct LifetimeReducer {
    files: BTreeMap<FileId, FileLifetime>,
    /// Open timestamps per (node, file), to charge open intervals.
    open_since: BTreeMap<(NodeId, FileId), Ns>,
}

impl LifetimeReducer {
    /// Empty reduction.
    pub fn new() -> LifetimeReducer {
        LifetimeReducer::default()
    }

    /// Summary for one file, if it was ever touched.
    pub fn file(&self, file: FileId) -> Option<&FileLifetime> {
        self.files.get(&file)
    }

    /// All (file, summary) pairs, ordered by file id.
    pub fn files(&self) -> impl Iterator<Item = (FileId, &FileLifetime)> {
        self.files.iter().map(|(k, v)| (*k, v))
    }

    /// Close out any still-open handles at time `now`, charging their open
    /// time. Call at end of run for programs that never close some files
    /// (RENDER leaves its data files open).
    pub fn finish(&mut self, now: Ns) {
        let open = std::mem::take(&mut self.open_since);
        for ((_, file), since) in open {
            let entry = self.files.entry(file).or_default();
            entry.open_time_ns += now.saturating_sub(since);
            entry.open_handles = entry.open_handles.saturating_sub(1);
        }
    }
}

impl Reducer for LifetimeReducer {
    fn observe(&mut self, ev: &IoEvent) {
        let entry = self.files.entry(ev.file).or_default();
        entry.ops[ev.op as usize].add(ev);
        if ev.op.is_read() {
            entry.bytes_read += ev.bytes;
        }
        if ev.op.is_write() {
            entry.bytes_written += ev.bytes;
        }
        entry.first_access_ns = Some(entry.first_access_ns.map_or(ev.start, |t| t.min(ev.start)));
        entry.last_access_ns = Some(entry.last_access_ns.map_or(ev.end, |t| t.max(ev.end)));
        match ev.op {
            IoOp::Open => {
                entry.open_handles += 1;
                self.open_since.insert((ev.node, ev.file), ev.end);
            }
            IoOp::Close => {
                if let Some(since) = self.open_since.remove(&(ev.node, ev.file)) {
                    entry.open_time_ns += ev.start.saturating_sub(since);
                }
                entry.open_handles = entry.open_handles.saturating_sub(1);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(node: NodeId, file: FileId, op: IoOp, start: Ns, end: Ns, bytes: u64) -> IoEvent {
        IoEvent::new(node, file, op)
            .span(start, end)
            .extent(0, bytes)
    }

    #[test]
    fn per_file_counts_and_bytes() {
        let mut r = LifetimeReducer::new();
        r.observe(&ev(0, 7, IoOp::Open, 0, 10, 0));
        r.observe(&ev(0, 7, IoOp::Write, 10, 30, 2048));
        r.observe(&ev(0, 7, IoOp::Read, 30, 40, 1024));
        r.observe(&ev(0, 7, IoOp::AsyncRead, 40, 41, 512));
        r.observe(&ev(0, 7, IoOp::Close, 50, 55, 0));
        r.observe(&ev(1, 8, IoOp::Write, 0, 5, 9));

        let f7 = r.file(7).unwrap();
        assert_eq!(f7.op(IoOp::Write).count, 1);
        assert_eq!(f7.op(IoOp::Read).count, 1);
        assert_eq!(f7.bytes_written, 2048);
        assert_eq!(f7.bytes_read, 1024 + 512);
        assert_eq!(f7.open_time_ns, 40); // open end 10 -> close start 50
        assert_eq!(f7.open_handles, 0);
        assert_eq!(f7.total_ops(), 5);
        assert_eq!(f7.first_access_ns, Some(0));
        assert_eq!(f7.last_access_ns, Some(55));

        assert_eq!(r.file(8).unwrap().bytes_written, 9);
        assert!(r.file(99).is_none());
    }

    #[test]
    fn open_time_per_node_handle() {
        // Two nodes holding the same file open concurrently both accrue time.
        let mut r = LifetimeReducer::new();
        r.observe(&ev(0, 1, IoOp::Open, 0, 1, 0));
        r.observe(&ev(1, 1, IoOp::Open, 0, 1, 0));
        r.observe(&ev(0, 1, IoOp::Close, 11, 12, 0));
        r.observe(&ev(1, 1, IoOp::Close, 21, 22, 0));
        assert_eq!(r.file(1).unwrap().open_time_ns, 10 + 20);
    }

    #[test]
    fn finish_closes_dangling_handles() {
        let mut r = LifetimeReducer::new();
        r.observe(&ev(0, 1, IoOp::Open, 0, 2, 0));
        assert_eq!(r.file(1).unwrap().open_handles, 1);
        r.finish(100);
        let f = r.file(1).unwrap();
        assert_eq!(f.open_time_ns, 98);
        assert_eq!(f.open_handles, 0);
    }

    #[test]
    fn close_without_open_is_tolerated() {
        let mut r = LifetimeReducer::new();
        r.observe(&ev(0, 1, IoOp::Close, 5, 6, 0));
        let f = r.file(1).unwrap();
        assert_eq!(f.open_time_ns, 0);
        assert_eq!(f.open_handles, 0);
        assert_eq!(f.op(IoOp::Close).count, 1);
    }

    #[test]
    fn seek_distance_counts_as_bytes_but_not_volume() {
        let mut r = LifetimeReducer::new();
        r.observe(&ev(0, 1, IoOp::Seek, 0, 1, 4096));
        let f = r.file(1).unwrap();
        assert_eq!(f.op(IoOp::Seek).bytes, 4096);
        assert_eq!(f.bytes_read, 0);
        assert_eq!(f.bytes_written, 0);
    }
}

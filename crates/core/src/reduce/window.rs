//! Time-window summaries.
//!
//! Pablo's time-window reduction aggregates operation data per fixed-width
//! window of run time, "defin\[ing\] the granularity at which data is
//! summarized" (§3.1). This drives the temporal analyses of the paper:
//! the ESCAT write-burst spacing of Figure 4, the RENDER phase transition at
//! ~210 s (Figures 6–7), and the HTF phase intensities (Figures 9–14) all
//! show up directly in windowed aggregates.

use super::{OpAgg, Reducer};
use crate::event::{IoEvent, IoOp, Ns};

/// Aggregates for one time window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowAgg {
    /// Per-operation aggregates, indexed by `IoOp as u8`.
    ops: [OpAgg; IoOp::ALL.len()],
}

impl WindowAgg {
    /// Aggregate for one operation kind.
    pub fn op(&self, op: IoOp) -> &OpAgg {
        &self.ops[op as usize]
    }

    /// Total operations of any kind in the window.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().map(|a| a.count).sum()
    }

    /// Bytes read in the window.
    pub fn bytes_read(&self) -> u64 {
        self.ops[IoOp::Read as usize].bytes + self.ops[IoOp::AsyncRead as usize].bytes
    }

    /// Bytes written in the window.
    pub fn bytes_written(&self) -> u64 {
        self.ops[IoOp::Write as usize].bytes
    }
}

/// Fixed-width time-window reduction. Events are binned by *start* time.
#[derive(Debug)]
pub struct WindowReducer {
    width_ns: Ns,
    windows: Vec<WindowAgg>,
}

impl WindowReducer {
    /// New reduction with the given window width (must be nonzero).
    pub fn new(width_ns: Ns) -> WindowReducer {
        assert!(width_ns > 0, "window width must be nonzero");
        WindowReducer {
            width_ns,
            windows: Vec::new(),
        }
    }

    /// Window width in nanoseconds.
    pub fn width_ns(&self) -> Ns {
        self.width_ns
    }

    /// All windows from t=0, in order. Trailing windows with no events exist
    /// only up to the last event seen.
    pub fn windows(&self) -> &[WindowAgg] {
        &self.windows
    }

    /// The window covering time `t`, if any events created it.
    pub fn at(&self, t: Ns) -> Option<&WindowAgg> {
        self.windows.get((t / self.width_ns) as usize)
    }
}

impl Reducer for WindowReducer {
    fn observe(&mut self, ev: &IoEvent) {
        let idx = (ev.start / self.width_ns) as usize;
        if self.windows.len() <= idx {
            self.windows.resize_with(idx + 1, WindowAgg::default);
        }
        self.windows[idx].ops[ev.op as usize].add(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(op: IoOp, start: Ns, bytes: u64) -> IoEvent {
        IoEvent::new(0, 1, op)
            .span(start, start + 5)
            .extent(0, bytes)
    }

    #[test]
    fn events_bin_by_start_time() {
        let mut r = WindowReducer::new(100);
        r.observe(&ev(IoOp::Read, 0, 10));
        r.observe(&ev(IoOp::Read, 99, 10));
        r.observe(&ev(IoOp::Write, 100, 20));
        r.observe(&ev(IoOp::Write, 250, 20));
        assert_eq!(r.windows().len(), 3);
        assert_eq!(r.windows()[0].op(IoOp::Read).count, 2);
        assert_eq!(r.windows()[1].op(IoOp::Write).count, 1);
        assert_eq!(r.windows()[2].op(IoOp::Write).count, 1);
        assert_eq!(r.windows()[0].bytes_read(), 20);
        assert_eq!(r.windows()[1].bytes_written(), 20);
        assert_eq!(r.at(150).unwrap().total_ops(), 1);
        assert!(r.at(10_000).is_none());
    }

    #[test]
    fn async_reads_count_as_read_bytes() {
        let mut r = WindowReducer::new(10);
        r.observe(&ev(IoOp::AsyncRead, 0, 64));
        assert_eq!(r.windows()[0].bytes_read(), 64);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_width_panics() {
        let _ = WindowReducer::new(0);
    }
}

//! The buddy-failover data-request lifecycle, shared by PFS and CIO.
//!
//! A [`Request`] is one physical transfer: a file, a direction, and the
//! application [`Member`]s it completes — one for a PFS data op, the whole
//! group for a PFS `M_GLOBAL` read or a CIO collective. [`FsCore::issue`]
//! stages its bytes into stripe segments, tracks it, submits each segment
//! through the pump and arms its hard deadline; [`FsCore::on_timer`] counts
//! the segments home and hands the finished request back. On the way a
//! request can fail — the pump gives a segment up after buddy failover, a
//! crashed node's segment finds no server, the deadline fires, or staging
//! overflows the arrays — and then one typed fault reaches every member.
//!
//! What stays with the backend is policy: how offsets resolve, which ops
//! form one request, and how a finished request completes its members.
//!
//! Counting rule ([`crate::FaultStats`]): `timeouts` counts requests,
//! `unavailable` counts member operations.

use std::ops::{Deref, DerefMut, Range};

use paragon_sim::engine::Sched;
use paragon_sim::ionode::SegmentReq;
use paragon_sim::program::{IoFault, IoRequest, IoToken};
use paragon_sim::{NodeId, SimDuration, SimTime};
use sio_core::event::{IoEvent, IoOp};

use crate::fscore::FsCore;
use crate::layout::Segment;
use crate::mode::AccessMode;

/// Software cost of a data op with nothing to move (a zero-length write, a
/// read at or past EOF).
pub const SHORT_PATH: SimDuration = SimDuration(200_000);

/// Reports whether the backend still holds writes on a file that are not
/// yet tracked requests (deferred, gathered, or in an exchange phase): a
/// `Sync` waits for those as for writes in flight.
pub type Held<'a> = &'a dyn Fn(u32) -> bool;

/// One application data operation a request completes.
#[derive(Debug, Clone, Copy)]
pub struct Member {
    /// Engine token to acknowledge.
    pub token: IoToken,
    /// Issuing compute node.
    pub node: NodeId,
    /// Issue time: the traced interval starts here.
    pub issued: SimTime,
    /// Whether the op is asynchronous (traced at issue, not completion).
    pub is_async: bool,
    /// Resolved file offset.
    pub offset: u64,
    /// Bytes the op moves.
    pub bytes: u64,
}

/// A request's members: one op (no heap allocation) or a group.
#[derive(Debug)]
pub enum Members {
    /// A single op.
    One(Member),
    /// A collective group, in completion order.
    Many(Vec<Member>),
}

impl Deref for Members {
    type Target = [Member];

    fn deref(&self) -> &[Member] {
        match self {
            Members::One(m) => std::slice::from_ref(m),
            Members::Many(v) => v,
        }
    }
}

impl DerefMut for Members {
    fn deref_mut(&mut self) -> &mut [Member] {
        match self {
            Members::One(m) => std::slice::from_mut(m),
            Members::Many(v) => v,
        }
    }
}

/// How a request's bytes become stripe segments.
#[derive(Debug, Clone, Copy)]
pub enum Staging<'a> {
    /// One file extent, decomposed along the stripe map (PFS).
    Extent {
        /// First byte.
        offset: u64,
        /// Length in bytes.
        bytes: u64,
    },
    /// Pre-aggregated runs of the file's node-local space, each moved as
    /// one sequential transfer (CIO's file domains).
    Runs(&'a [Segment]),
}

/// A tracked data request.
#[derive(Debug)]
pub struct Request {
    /// The file transferred.
    pub file: u32,
    /// Direction.
    pub write: bool,
    /// The application ops this transfer completes.
    pub members: Members,
    /// First fault a segment reported (a redundancy-exhausted array); it
    /// reaches every member along with the data.
    pub fault: Option<IoFault>,
    segs_left: u32,
    /// Segment ids, allocated consecutively at staging.
    seg_ids: Range<u64>,
}

impl Request {
    /// A request over `members`, not yet staged.
    pub fn new(file: u32, write: bool, members: Members) -> Request {
        Request {
            file,
            write,
            members,
            fault: None,
            segs_left: 0,
            seg_ids: 0..0,
        }
    }

    /// Count one landed segment; returns whether it was the last.
    pub(crate) fn segment_landed(&mut self, data_lost: bool) -> bool {
        if data_lost {
            self.fault = Some(IoFault::DataLoss);
        }
        self.segs_left -= 1;
        self.segs_left == 0
    }
}

/// What [`FsCore::on_timer`] leaves to the backend.
#[derive(Debug)]
pub enum Fired {
    /// A core timer, fully handled.
    Handled,
    /// The last segment of a tracked request landed: the backend completes
    /// its members.
    Finished(Request),
    /// A segment of a transfer the backend tracks itself landed (the
    /// stripe-pinned PPFS keeps its own transfers).
    Segment {
        /// The owner registered at staging.
        owner: u64,
        /// Whether the serving array had exhausted its redundancy.
        data_lost: bool,
    },
    /// Segments a node crash lost, for the backend's loss accounting. The
    /// core already sent each down the pump's failover policy: buddy
    /// retry (failing a request no server takes) or a replay park.
    Lost(Vec<SegmentReq>),
    /// Not a core timer: the backend's own.
    Foreign,
}

impl FsCore {
    /// Issue a data request: allocate its segment ids, track it, submit
    /// each segment (a segment no server takes fails the request), then,
    /// under a fault schedule, arm its hard deadline — the order that fixes
    /// the timer- and segment-id sequence. A request overflowing the arrays
    /// fails typed `Unavailable` instead. Returns whether it was staged.
    pub fn issue(
        &mut self,
        now: SimTime,
        req: Request,
        staging: Staging,
        sched: &mut Sched,
        held: Held,
    ) -> bool {
        let id = self.next_request;
        self.next_request += 1;
        let slot_base = self.files.slot_base(req.file);
        let capacity = self.cfg.array_capacity;
        let staged = match staging {
            Staging::Extent { offset, bytes } => self.pump.stage_extent(
                &self.cfg.layout,
                slot_base,
                capacity,
                offset,
                bytes,
                req.write,
                id,
            ),
            Staging::Runs(runs) => self
                .pump
                .stage_runs(runs, slot_base, capacity, req.write, true, id),
        };
        let Ok(segs) = staged else {
            self.reject(req, now, sched, held);
            return false;
        };
        debug_assert!(!segs.is_empty(), "a request must move bytes");
        let first = segs.first().map_or(0, |(_, s)| s.id);
        let n = segs.len();
        self.requests.insert(
            id,
            Request {
                segs_left: n as u32,
                seg_ids: first..first + n as u64,
                ..req
            },
        );
        for (io, seg) in segs {
            self.submit_or_fail(now, io, seg, 0, sched, held);
        }
        if self.faults.enabled() && self.requests.contains_key(&id) {
            // Hard deadline: no request hangs forever under a fault
            // schedule with no recovery.
            let timer = self.timers.alloc();
            self.deadlines.insert(timer, id);
            sched.timer(now + self.fault_params.request_timeout, timer);
        }
        true
    }

    /// Push one segment through the pump; when the primary and its buddy
    /// both refuse it, fail the owning request as unavailable.
    pub(crate) fn submit_or_fail(
        &mut self,
        now: SimTime,
        io: u32,
        seg: SegmentReq,
        attempt: u32,
        sched: &mut Sched,
        held: Held,
    ) {
        let gave_up = self
            .pump
            .submit_seg(now, io, seg, attempt, &mut self.timers, sched);
        if let Some(owner) = gave_up {
            self.give_up(owner, now, sched, held);
        }
    }

    /// Fail tracked request `owner`, if still live, as unavailable.
    pub(crate) fn give_up(&mut self, owner: u64, now: SimTime, sched: &mut Sched, held: Held) {
        if let Some(req) = self.requests.remove(&owner) {
            self.reject(req, now, sched, held);
        }
    }

    /// Fail a request no server will take: one `Unavailable` per member.
    fn reject(&mut self, req: Request, now: SimTime, sched: &mut Sched, held: Held) {
        self.stats.unavailable += req.members.len() as u64;
        self.fail(req, IoFault::Unavailable, now, sched, held);
    }

    /// Fan one typed fault out to every member (zero bytes, traced over the
    /// whole attempt), drop the request's segment ownership so stragglers
    /// are ignored, and release any `Sync` its writes held.
    pub(crate) fn fail(
        &mut self,
        req: Request,
        fault: IoFault,
        now: SimTime,
        sched: &mut Sched,
        held: Held,
    ) {
        for id in req.seg_ids.clone() {
            self.pump.forget(id);
        }
        for m in req.members.iter() {
            self.recorder
                .complete_data(sched, req.file, req.write, m, now, 0, Some(fault));
        }
        self.drain_syncs(req.file, now, sched, held);
    }

    /// Whether a tracked write request on `file` is in flight.
    pub fn writes_in_flight(&self, file: u32) -> bool {
        self.requests.values().any(|r| r.file == file && r.write)
    }

    /// Whether `[offset, offset + bytes)` of `file` lies within the arrays
    /// (the check staging applies).
    pub fn fits(&mut self, file: u32, offset: u64, bytes: u64) -> bool {
        let slot_base = self.files.slot_base(file);
        let capacity = self.cfg.array_capacity;
        self.pump
            .fits(&self.cfg.layout, slot_base, capacity, offset, bytes)
    }

    /// Resolve a data op's offset at issue under its file's access mode,
    /// and trace an asynchronous issue at it. `M_UNIX` and `M_ASYNC` take
    /// the node's pointer, `M_RECORD` its next record slot, `M_LOG` the
    /// shared pointer, each moved past the op. `M_SYNC` and `M_GLOBAL`
    /// return `None`: their offsets are fixed when the group forms, and an
    /// asynchronous issue is traced at the current shared pointer. Panics
    /// on a data op against a closed file.
    pub fn resolve_offset(
        &mut self,
        now: SimTime,
        node: NodeId,
        req: &IoRequest,
        is_async: bool,
    ) -> (AccessMode, Option<u64>) {
        let st = self.files.state(req.file);
        let Some(mode) = st.mode else {
            panic!("data op on closed file {} by node {node}", st.spec.name)
        };
        let at = match mode {
            AccessMode::MUnix | AccessMode::MAsync => {
                Some(st.advance_pointer(node, req.offset, req.bytes))
            }
            AccessMode::MRecord => Some(st.next_record(node, req.bytes)),
            AccessMode::MLog => {
                let offset = st.shared_pos;
                st.shared_pos += req.bytes;
                Some(offset)
            }
            AccessMode::MSync | AccessMode::MGlobal => None,
        };
        if is_async {
            let offset = at.unwrap_or(st.shared_pos);
            self.trace_issue(now, node, req.file, offset, req.bytes);
        }
        (mode, at)
    }

    /// Trace an asynchronous data op's issue: the paper's "AsynchRead" row,
    /// spanning the issue cost only.
    pub fn trace_issue(&mut self, now: SimTime, node: NodeId, file: u32, offset: u64, bytes: u64) {
        let end = now + self.cfg.io_sw.async_issue;
        self.recorder.record(
            IoEvent::new(node, file, IoOp::AsyncRead)
                .span(now.nanos(), end.nanos())
                .extent(offset, bytes),
        );
    }
}

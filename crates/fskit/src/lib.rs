//! # sio-fskit — the shared client-side file-system substrate
//!
//! Both simulator backends — `sio-pfs` (the Intel PFS model) and `sio-ppfs`
//! (the policy-driven portable parallel file system) — are *policies over
//! the same substrate*: they register files in a fixed-slot allocator,
//! decompose requests into stripe segments, push those segments through the
//! I/O-node queues with backoff/retry on backpressure, deliver scheduled
//! fault events, park `Sync` commits until write traffic drains, and record
//! every application-visible interval into a Pablo-style trace. This crate
//! holds that substrate once, so a backend is only the semantics it adds on
//! top:
//!
//! * [`config`] — [`FsConfig`], the machine-derived substrate configuration
//!   (stripe map, software costs, fixed-slot allocator geometry);
//! * [`layout`] — the 64 KB round-robin stripe map from file offsets to
//!   (I/O node, array offset) segments;
//! * [`mode`] — the six PFS parallel access modes and their semantics;
//! * [`file`](mod@file) — file registration specs and runtime state;
//! * [`table`] — [`FileTable`], the FileSpec/FileState registry plus the
//!   fixed-slot per-I/O-node allocator (typed `IoFault::Unavailable` on
//!   exhaustion), and [`MetaServer`], the serialized metadata queue;
//! * [`client`] — [`ClientPath`], the per-node serial client copy path;
//! * [`pump`] — [`SegmentPump`], the submit → queue-full backoff/retry →
//!   completion state machine over the I/O nodes, with a per-backend
//!   [`FailoverPolicy`] (buddy-node failover for PFS, stripe-pinned
//!   retry/replay for PPFS);
//! * [`fault`] — [`FaultRouter`], timer-based delivery of a
//!   [`paragon_sim::FaultSchedule`];
//! * [`lanes`] — [`TimerLanes`], the backend's timer-id allocator;
//! * [`sync`] — [`SyncLedger`], parking/drain bookkeeping for `Sync`
//!   commits;
//! * [`recorder`] — [`TraceRecorder`], application-visible interval tracing
//!   and completion plumbing shared by every verb handler.
//!
//! Determinism contract: every method that arms a timer takes the backend's
//! [`TimerLanes`] allocator, which hands out ids in arm order, so id
//! allocation order — and with it the engine's FIFO tie-breaking — is
//! exactly what a hand-inlined implementation would produce. The
//! golden-trace suites pin this down byte-for-byte.

pub mod client;
pub mod config;
pub mod fault;
pub mod file;
pub mod lanes;
pub mod layout;
pub mod mode;
pub mod pump;
pub mod recorder;
pub mod sync;
pub mod table;

pub use client::ClientPath;
pub use config::{FsConfig, DEFAULT_FILE_SLOT};
pub use fault::FaultRouter;
pub use file::{FileSpec, FileState};
pub use lanes::TimerLanes;
pub use layout::{Segment, StripeLayout};
pub use mode::AccessMode;
pub use pump::{FailoverPolicy, NodeLoad, NodeTick, PumpStats, RetrySeg, SegmentPump};
pub use recorder::TraceRecorder;
pub use sync::{SyncLedger, SyncWaiter};
pub use table::{FileTable, MetaServer, MetaStats, MetaVerdict};

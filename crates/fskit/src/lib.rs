//! # sio-fskit — the shared client-side file-system substrate
//!
//! The three simulator backends — `sio-pfs` (the Intel PFS model),
//! `sio-ppfs` (the policy-driven portable parallel file system) and `sio-cio`
//! (collective two-phase I/O) — are *policies over the same substrate*, as
//! PFS and PPFS are in the paper: the same machine and the same I/O nodes,
//! different client policy. Each embeds one [`FsCore`], which owns the
//! shared state and mechanisms once: file registration in a fixed-slot
//! allocator, the stripe-segment pump with backoff/retry on backpressure,
//! metadata RPCs with outage parking, fault delivery, `Sync` parking and
//! completion, fault counters, and Pablo-style trace recording. A backend
//! is only the semantics it adds on top. The building blocks:
//!
//! * [`fscore`] — [`FsCore`], the embedded substrate, and the one copy of
//!   metadata routing, `Sync` completion, fault application and timer
//!   routing ([`FsCore::on_timer`]);
//! * [`request`] — the buddy-failover data-request lifecycle PFS and CIO
//!   share: a [`Request`] of one or more [`Member`] ops, staged, tracked,
//!   given up, timed out and failed typed to every member by the core;
//! * [`config`] — [`FsConfig`], the machine-derived substrate configuration
//!   (stripe map, software costs, fixed-slot allocator geometry);
//! * [`layout`] — the 64 KB round-robin stripe map from file offsets to
//!   (I/O node, array offset) segments;
//! * [`mode`] — the six PFS parallel access modes and their semantics;
//! * [`file`](mod@file) — file registration specs and runtime state;
//! * [`table`] — [`FileTable`], the FileSpec/FileState registry plus the
//!   fixed-slot per-I/O-node allocator (typed `IoFault::Unavailable` on
//!   exhaustion), and [`MetaServer`], the replicated metadata queue;
//! * [`client`] — [`ClientPath`], the per-node serial client copy path;
//! * [`pump`] — [`SegmentPump`], the submit → queue-full backoff/retry →
//!   completion state machine over the I/O nodes, with a per-backend
//!   [`FailoverPolicy`] (buddy-node failover for PFS and CIO,
//!   stripe-pinned retry/replay for PPFS);
//! * [`fault`] — [`FaultRouter`], timer-based delivery of a
//!   [`paragon_sim::FaultSchedule`], and [`FaultStats`];
//! * [`lanes`] — [`TimerLanes`], the backend's timer-id allocator;
//! * [`sync`] — [`SyncLedger`], parking/drain bookkeeping for `Sync`
//!   commits;
//! * [`recorder`] — [`TraceRecorder`], application-visible interval tracing
//!   and completion plumbing shared by every verb handler.
//!
//! Determinism contract: every timer id comes from the one [`TimerLanes`]
//! in a backend's [`FsCore`] — the core's own timers, the pump's, and the
//! backend's — which hands out ids in arm order, so id allocation order,
//! and with it the engine's FIFO tie-breaking, is exactly what a
//! hand-inlined implementation would produce. The golden-trace suites pin
//! this down byte-for-byte.

pub mod client;
pub mod config;
pub mod fault;
pub mod file;
pub mod fscore;
pub mod lanes;
pub mod layout;
pub mod mode;
pub mod pump;
pub mod recorder;
pub mod request;
pub mod sync;
pub mod table;

pub use client::ClientPath;
pub use config::{FsConfig, DEFAULT_FILE_SLOT};
pub use fault::{FaultRouter, FaultStats};
pub use file::{FileSpec, FileState};
pub use fscore::FsCore;
pub use lanes::TimerLanes;
pub use layout::{Segment, StripeLayout};
pub use mode::AccessMode;
pub use pump::{FailoverPolicy, NodeLoad, NodeTick, PumpStats, RetrySeg, SegmentPump};
pub use recorder::TraceRecorder;
pub use request::{Fired, Member, Members, Request, Staging, SHORT_PATH};
pub use sync::{SyncLedger, SyncWaiter};
pub use table::{FileTable, MetaServer, MetaStats, MetaVerdict};

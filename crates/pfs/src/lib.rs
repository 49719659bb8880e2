//! # sio-pfs — a model of the Intel Paragon Parallel File System (PFS)
//!
//! PFS "stripes files across the I/O nodes in units of 64 KB, with standard
//! RAID-3 striping on each disk array" and offers six parallel access modes
//! (§3.2 of the paper). This crate is the PFS *policy* over the shared
//! `sio-fskit` substrate:
//!
//! * [`layout`] (re-exported from `sio-fskit`) — the 64 KB round-robin
//!   stripe map from file offsets to (I/O node, array offset) segments,
//!   with per-I/O-node merging of contiguous units;
//! * [`mode`] (re-exported from `sio-fskit`) — the six access modes
//!   (`M_UNIX`, `M_LOG`, `M_SYNC`, `M_RECORD`, `M_GLOBAL`, `M_ASYNC`) and
//!   their pointer/coordination semantics;
//! * [`file`](mod@file) (re-exported from `sio-fskit`) — file registration
//!   and runtime state (length, openers, pointers, record bookkeeping);
//! * [`fs`] — [`fs::Pfs`], the [`paragon_sim::IoService`] implementation:
//!   per-mode coordination (pointer tokens, `M_SYNC` turns, `M_GLOBAL`
//!   coalescing) and request completion, over the embedded
//!   `sio_fskit::FsCore`, which resolves offsets, runs each data request's
//!   buddy-failover lifecycle, and serves the metadata verbs, shared-file
//!   seeks, `Sync` commits, timers and fault delivery.
//!
//! Every application-visible operation is recorded by `FsCore`'s
//! `TraceRecorder` into a [`sio_core::TraceSink`], producing the traces the
//! analysis crate turns into the paper's tables and figures.

pub use sio_fskit::{file, layout, mode};

pub mod fs;

pub use file::FileSpec;
pub use fs::Pfs;
pub use layout::StripeLayout;
pub use mode::AccessMode;

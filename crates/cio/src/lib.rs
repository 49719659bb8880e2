//! # sio-cio — a collective two-phase I/O backend
//!
//! The paper's central pathology (Fig. 4) is many compute nodes issuing
//! synchronized bursts of small interleaved requests: each I/O node sees
//! its file region as hundreds of tiny, seek-separated accesses. PFS passes
//! the requests through as issued; PPFS absorbs them in write-behind
//! caches. This crate models the third classic mechanism — *two-phase
//! collective I/O*: before any data touches the I/O nodes, the
//! participating compute nodes exchange extent descriptors over the 2-D
//! mesh, compute a *conforming partition* of the aggregate request into
//! stripe-aligned file domains, and elect one aggregator per touched I/O
//! node to issue a single large sequential transfer for its domain.
//!
//! * [`partition`] — the pure conforming-partition computation: member
//!   extents → sorted disjoint union → per-I/O-node aggregated domains
//!   (maximal runs contiguous in node-local array space), independent of
//!   extent arrival order;
//! * [`fs`] — [`fs::Cio`], the [`paragon_sim::IoService`] implementation:
//!   PFS's metadata semantics from the embedded `sio_fskit::FsCore` (the
//!   same code PFS runs), a per-file gather that triggers when every opener has
//!   contributed, a timed extent-exchange phase (real mesh message costs),
//!   and phase-2 dispatch of the collective as one [`Request`] under the
//!   core's buddy-failover lifecycle, the one PFS requests run.
//!
//! [`Request`]: sio_fskit::Request

pub use sio_fskit::{file, layout, mode};

pub mod fs;
pub mod partition;

pub use file::FileSpec;
pub use fs::{Cio, CioStats};
pub use layout::StripeLayout;
pub use mode::AccessMode;
pub use partition::{Domain, Extent};

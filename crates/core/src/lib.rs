//! # sio-core — Pablo-style I/O instrumentation and characterization
//!
//! This crate is the analog of the Pablo I/O instrumentation and analysis
//! environment described in §3.1 of *Input/Output Characteristics of Scalable
//! Parallel Applications* (Crandall, Aydt, Chien, Reed — SC '95). It provides:
//!
//! * an event model for application-level I/O operations ([`event`]),
//! * timestamped trace capture with a self-describing on-disk format
//!   ([`trace`], [`sddf`]),
//! * the paper's three real-time reductions — file-lifetime, time-window, and
//!   file-region summaries ([`reduce`]),
//! * off-line statistics: summary statistics, request-size distributions with
//!   the paper's bins (< 4 KB, < 64 KB, < 256 KB, ≥ 256 KB), and timeline
//!   extraction ([`stats`], [`timeline`]),
//! * access-pattern classification and adaptive next-access prediction
//!   ([`classify`], [`predict`]) — the paper's §10 "future work" direction.
//!
//! The crate is deliberately independent of any particular machine or file
//! system model: timestamps are plain nanosecond counts, and the tracer is fed
//! by whichever I/O layer is being characterized (the PFS model in `sio-pfs`,
//! the policy-driven file system in `sio-ppfs`, or a real `std::fs` shim).
//!
//! ## Quick start
//!
//! ```
//! use sio_core::event::{IoEvent, IoOp};
//! use sio_core::trace::TraceSink;
//! use sio_core::reduce::lifetime::LifetimeReducer;
//! use sio_core::reduce::Reducer;
//!
//! let mut sink = TraceSink::new("demo");
//! sink.record(IoEvent::new(0, 7, IoOp::Write).span(1_000, 5_000).extent(0, 2048));
//! sink.record(IoEvent::new(0, 7, IoOp::Read).span(6_000, 9_000).extent(2048, 4096));
//! let trace = sink.finish();
//!
//! let mut lifetimes = LifetimeReducer::new();
//! for ev in trace.events() {
//!     lifetimes.observe(ev);
//! }
//! let summary = lifetimes.file(7).unwrap();
//! assert_eq!(summary.bytes_written, 2048);
//! assert_eq!(summary.bytes_read, 4096);
//! ```

pub mod checkpoint;
pub mod classify;
pub mod event;
pub mod hash;
pub mod instrument;
pub mod perf;
pub mod predict;
pub mod reduce;
pub mod sddf;
pub mod stats;
pub mod timeline;
pub mod trace;

pub use event::{FileId, IoEvent, IoOp, NodeId, Ns};
pub use trace::{Trace, TraceMeta, TraceSink, Tracer};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced while encoding, decoding, or validating traces.
#[derive(Debug)]
pub enum Error {
    /// Trace decode failed: the buffer did not contain a valid encoded trace.
    Decode(String),
    /// An event failed validation (e.g. `end < start`).
    InvalidEvent(String),
    /// Underlying I/O error while reading or writing a trace file.
    Io(std::io::Error),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Decode(m) => write!(f, "trace decode error: {m}"),
            Error::InvalidEvent(m) => write!(f, "invalid event: {m}"),
            Error::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

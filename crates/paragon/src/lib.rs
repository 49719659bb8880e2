//! # paragon-sim — a discrete-event model of the Intel Paragon XP/S
//!
//! The paper measured its applications on the Intel Paragon XP/S at the
//! Caltech Concurrent Supercomputing Facility: 512 compute nodes and 16 I/O
//! nodes, each I/O node hosting a RAID-3 array of five 1.2 GB disks, with
//! Intel's PFS striping files in 64 KB units across the I/O nodes (§3.2). We
//! have no Paragon; this crate is its substitute — a deterministic
//! discrete-event simulator of exactly the machine features the paper's
//! observations depend on:
//!
//! * an [`engine`] that executes *node programs* ([`program`]) — state
//!   machines yielding compute, I/O, barrier, message, and collective steps —
//!   in global simulated-time order;
//! * a 2-D [`mesh`] interconnect cost model (hop latency + bandwidth);
//! * a mechanical [`disk`] model (seek distance, rotational latency,
//!   transfer time) and a [`raid`] level-3 array model with parity and
//!   degraded-mode reconstruction;
//! * an [`ionode`] request-queue model (FIFO or C-SCAN) over one array;
//! * [`machine`] configurations, including the Caltech system preset, with
//!   every tunable documented in [`calibration`].
//!
//! The file-system semantics (striping, access modes, file pointers) are NOT
//! here — they live in `sio-pfs`, which implements this crate's
//! [`engine::IoService`] trait. The layering mirrors the real system: this
//! crate is the hardware plus message-passing kernel; `sio-pfs` is PFS.
//!
//! Determinism: the engine orders events by `(time, sequence)`; programs and
//! services may use randomness only through seeded generators. The same
//! configuration always yields bit-identical traces.

pub mod calibration;
pub mod disk;
pub mod engine;
pub mod fault;
pub mod ionode;
pub mod machine;
pub mod mesh;
pub mod program;
mod queue;
pub mod raid;
pub mod time;

pub use engine::{
    Engine, EnginePerf, EngineReport, HangReason, HangReport, IoService, Sched, DEFAULT_WATCHDOG,
};
pub use fault::{FaultDomain, FaultEvent, FaultKind, FaultSchedule, META_REPLICAS};
pub use machine::MachineConfig;
pub use mesh::{LinkQuality, LinkState};
pub use program::{GroupId, IoFault, IoRequest, IoResult, IoVerb, NodeProgram, Resume, Step};
pub use time::{SimDuration, SimTime};

/// Node identifier within a machine (compute nodes are `0..compute_nodes`).
pub type NodeId = u32;

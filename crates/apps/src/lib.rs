//! # sio-apps — I/O skeletons of the paper's application suite
//!
//! The paper characterizes three scalable parallel applications on the
//! Paragon (§4). We do not have the original codes (proprietary physics
//! codes with production data sets); following the substitution rule in
//! DESIGN.md, this crate provides *application skeletons* — the construct
//! the paper itself advocates building (§8: "the development of larger
//! application skeletons and workload mixes are an essential part of
//! developing high performance input/output systems"). Each skeleton
//! reproduces its application's phase structure, file population, request
//! sizes, synchronization, and communication; the physics is replaced by
//! calibrated compute delays.
//!
//! * [`escat`] — electron scattering (Schwinger multichannel): compulsory
//!   read + broadcast, synchronized compute/seek/write quadrature cycles
//!   into two staging files, staged reload, gather + final output.
//! * [`render`] — terrain rendering: gateway reads a ~880 MB data set with
//!   deep asynchronous prefetch, broadcasts to the renderer group, then a
//!   read-render-write frame loop.
//! * [`htf`] — Hartree-Fock: a three-program pipeline (`psetup`, `pargos`,
//!   `pscf`) with per-node integral files, write-intensive integral
//!   calculation and read-intensive repeated-pass SCF solve.
//! * [`workload`] — the shared backend-generic runner plus synthetic
//!   kernels (sequential / strided / random) for the mode and policy
//!   ablations.
//! * [`backend`] — the pluggable-backend layer: the [`FsBackend`] trait
//!   and the [`BackendSpec`] naming/factory enum, whose
//!   [`BackendSpec::BUILTIN`] lists the shipped backends.
//!
//! Every `*Params::paper()` constructor reproduces the operation counts and
//! byte volumes of the paper's Tables 1–6 (see `sio-analysis` for the
//! side-by-side comparison).

pub mod backend;
pub mod checkpoint;
pub mod escat;
pub mod htf;
pub mod mix;
pub mod render;
pub mod replay;
pub mod workload;

pub use backend::{BackendSpec, FsBackend};
pub use checkpoint::{CheckpointPlan, CheckpointedWorkload};
pub use escat::EscatParams;
pub use htf::HtfParams;
pub use render::RenderParams;
pub use sio_blog::{BlogParams, BlogStats};
pub use workload::{run_workload, Backend, RunOutput, Workload};

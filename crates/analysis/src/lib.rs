//! # sio-analysis — regenerating the paper's tables and figures
//!
//! Everything the paper's evaluation reports is reproduced here from
//! simulated traces:
//!
//! * [`optable`] — operation-summary tables (count / volume / node time /
//!   % I/O time): Tables 1, 3, and 5;
//! * [`sizetable`] — request-size histograms with the paper's bins: Tables
//!   2, 4, and 6;
//! * [`figures`] — timeline series (CSV + ASCII): Figures 2–17;
//! * [`compare`] — the paper's reference numbers and shape checks
//!   (who dominates, by roughly what factor);
//! * [`experiments`] — one driver per experiment in DESIGN.md's index,
//!   used by the `repro` binary, the integration tests, and the benches;
//! * [`recovery`] — the X5 crash/recovery orchestration and durable-cut
//!   analysis, and [`burst`] — the X7 burst-buffer sweep putting the
//!   `sio-blog` log tier in front of each backend and measuring commit
//!   latency, time-to-recovery, and lost work against going direct;
//! * [`chaos`] — the X8 chaos campaign engine: seeded randomized fault
//!   sweeps composing disk, node, link, and metadata faults across every
//!   registered backend, with per-cell liveness, typed-fault,
//!   byte-conservation, durable-cut, and trace invariants;
//! * `cells` (private) — what the crash suites share: the app catalogue,
//!   the first-occurrence baseline stage, and the one crash → durable cut
//!   → resume path;
//! * [`runner`] — the parallel sweep executor: every experiment sweep
//!   fans its independent, deterministic simulations out over a bounded
//!   worker pool (`--jobs N` / `SIO_JOBS`), with results in input order;
//! * [`report`] — plain-text table rendering and CSV writers.
//!
//! The `repro` binary (`cargo run -p sio-analysis --bin repro --release`)
//! regenerates every artifact into `results/`.

pub mod burst;
mod cells;
pub mod chaos;
pub mod characterize;
pub mod compare;
pub mod experiments;
pub mod figures;
pub mod optable;
pub mod recovery;
pub mod report;
pub mod runner;
pub mod sizetable;

pub use optable::OpTable;
pub use sizetable::SizeTable;

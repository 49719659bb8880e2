//! ESCAT — the electron scattering (Schwinger multichannel) skeleton.
//!
//! Phase structure (§4.1, §5.1 of the paper), 128 nodes:
//!
//! 1. **Compulsory input** — node 0 reads the problem definition from three
//!    files (ids 9, 10, 11) with a bimodal request mix, then broadcasts to
//!    the other nodes (the developers measured this to beat parallel reads,
//!    §5.2).
//! 2. **Quadrature** — repeated compute / synchronize / write cycles: every
//!    node seeks to a computed offset ("dependent on the node number,
//!    iteration, and PFS stripe size") in two staging files (ids 7, 8) and
//!    writes a 2 KB record, M_UNIX mode. Each node's region is padded to a
//!    stripe-unit multiple so its data stays contiguous. The compute time
//!    per cycle shrinks as the phase proceeds — the Figure 4 burst spacing
//!    (~160 s down to ~80 s).
//! 3. **Reload** — each node rereads exactly the quadrature data it wrote,
//!    one large contiguous read per staging file.
//! 4. **Output** — all nodes gather their linear-system pieces to node 0,
//!    which writes three output files (ids 3, 4, 5).
//!
//! `EscatParams::paper()` reproduces Table 1 operation counts and volumes
//! and the Table 2 size bins exactly (see EXPERIMENTS.md for the residuals).

use crate::checkpoint::{CheckpointPlan, CheckpointedWorkload};
use crate::workload::{op_compute, op_open, Workload};
use paragon_sim::program::{IoRequest, ScriptOp};
use serde::{Deserialize, Serialize};
use sio_pfs::{AccessMode, FileSpec};

/// ESCAT workload parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EscatParams {
    /// Compute nodes.
    pub nodes: u32,
    /// Quadrature iterations (each writes one record per staging file per
    /// node).
    pub iters: u32,
    /// Iterations that issue an explicit seek before the write (the
    /// remainder append at the already-correct pointer).
    pub seek_iters: u32,
    /// Quadrature record size, bytes.
    pub quad_bytes: u64,
    /// Stripe unit used for region padding (PFS: 64 KB).
    pub stripe_unit: u64,
    /// Initial-read counts and sizes (by node 0, spread over files 9–11).
    pub init_small_reads: u32,
    /// Size of each small initial read.
    pub init_small_bytes: u64,
    /// Medium initial reads.
    pub init_medium_reads: u32,
    /// Size of each medium initial read.
    pub init_medium_bytes: u64,
    /// Large initial reads.
    pub init_large_reads: u32,
    /// Size of each large initial read.
    pub init_large_bytes: u64,
    /// Final output writes (by node 0, spread over files 3–5).
    pub output_writes: u32,
    /// Size of each output write.
    pub output_bytes: u64,
    /// Compute seconds per quadrature iteration at the start of the phase.
    pub compute_start: f64,
    /// Compute seconds per iteration at the end of the phase.
    pub compute_end: f64,
    /// Compute seconds for the energy-dependent phase (before reload).
    pub energy_compute: f64,
}

/// ESCAT file ids, matching the identifiers in the paper's Figure 5.
pub mod files {
    /// Final output files.
    pub const OUTPUT: [u32; 3] = [3, 4, 5];
    /// Checkpoint file (one of the ids unused by the paper's run).
    pub const CHECKPOINT: u32 = 6;
    /// Quadrature staging files.
    pub const STAGING: [u32; 2] = [7, 8];
    /// Initial input files.
    pub const INPUT: [u32; 3] = [9, 10, 11];
}

impl EscatParams {
    /// The paper's run: 128 nodes, ~1.75 h execution, Tables 1–2.
    pub fn paper() -> EscatParams {
        EscatParams {
            nodes: 128,
            iters: 52,
            seek_iters: 47,
            quad_bytes: 2_000,
            stripe_unit: 64 * 1024,
            init_small_reads: 297,
            init_small_bytes: 2_048,
            init_medium_reads: 3,
            init_medium_bytes: 32_768,
            init_large_reads: 4,
            init_large_bytes: 245_760,
            output_writes: 18,
            output_bytes: 3_800,
            compute_start: 150.0,
            compute_end: 70.0,
            energy_compute: 60.0,
        }
    }

    /// A scaled-down variant for tests and quick examples: `nodes` nodes,
    /// `iters` iterations, compute shrunk by 1000×.
    pub fn small(nodes: u32, iters: u32) -> EscatParams {
        EscatParams {
            nodes,
            iters,
            seek_iters: iters.saturating_sub(1),
            init_small_reads: 9,
            init_medium_reads: 3,
            init_large_reads: 3,
            output_writes: 6,
            compute_start: 0.15,
            compute_end: 0.07,
            energy_compute: 0.06,
            ..EscatParams::paper()
        }
    }

    /// Per-node staging region stride: the written bytes rounded up to a
    /// stripe-unit multiple.
    pub fn region_stride(&self) -> u64 {
        let data = self.iters as u64 * self.quad_bytes;
        data.div_ceil(self.stripe_unit) * self.stripe_unit
    }

    /// Byte offset of node `i`'s staging region.
    pub fn region_base(&self, node: u32) -> u64 {
        node as u64 * self.region_stride()
    }

    /// Compute seconds for quadrature iteration `j` (linear ramp down).
    pub fn iter_compute(&self, j: u32) -> f64 {
        if self.iters <= 1 {
            return self.compute_start;
        }
        let frac = j as f64 / (self.iters - 1) as f64;
        self.compute_start + frac * (self.compute_end - self.compute_start)
    }

    /// Total volume of the initial input, bytes.
    pub fn init_volume(&self) -> u64 {
        self.init_small_reads as u64 * self.init_small_bytes
            + self.init_medium_reads as u64 * self.init_medium_bytes
            + self.init_large_reads as u64 * self.init_large_bytes
    }

    /// Build the runnable workload.
    pub fn workload(&self) -> Workload {
        self.build("escat", false, None)
    }

    /// The staging phase with a record-cyclic layout instead of contiguous
    /// per-node regions: staging files open in `M_RECORD` mode, so
    /// iteration `j`'s quadrature records from all nodes land adjacent in
    /// the file (`(j*nodes + rank) * quad_bytes`). The energy-phase reload
    /// reads the records back one at a time through the same mode. This is
    /// the layout where collective two-phase I/O pays: each round's writes
    /// coalesce into one contiguous run per I/O node.
    pub fn interleaved_workload(&self) -> Workload {
        self.build("escat-interleaved", true, None)
    }

    /// Build the checkpointed workload: every `interval` quadrature
    /// iterations each node commits an epoch boundary — sync both staging
    /// files, write its checkpoint record into file
    /// [`files::CHECKPOINT`], sync the checkpoint file. With
    /// `resume_epoch > 0` the run restarts from that boundary: phase 1 is
    /// redone (the restart cost of reloading the problem), the iterations
    /// covered by the checkpoint are skipped, and the staging/checkpoint
    /// files pre-exist holding the recovered data.
    pub fn workload_checkpointed(&self, interval: u32, resume_epoch: u32) -> CheckpointedWorkload {
        let mut plan = CheckpointPlan::new(files::CHECKPOINT, 1, self.nodes, interval, self.iters)
            .resumed(resume_epoch);
        plan.covered = files::STAGING.to_vec();
        CheckpointedWorkload {
            workload: self.build(&plan.label("escat"), false, Some(&plan)),
            plan,
        }
    }

    /// The one script builder. `ckpt` weaves the plan's commits into the
    /// quadrature loop and, on a resumed plan, skips the covered
    /// iterations; everything else is the same program.
    fn build(&self, label: &str, interleaved: bool, ckpt: Option<&CheckpointPlan>) -> Workload {
        let skip = ckpt.map_or(0, |plan| plan.units_at(plan.start_epoch, self.iters));
        let mut specs: Vec<FileSpec> = Vec::new();
        for id in 0..12u32 {
            let spec = if files::INPUT.contains(&id) {
                FileSpec::input(
                    &format!("escat-input-{id}"),
                    self.init_volume() / 3 + (1 << 20),
                )
            } else if files::STAGING.contains(&id) {
                let name = format!("escat-staging-{id}");
                if skip > 0 {
                    let len = self.region_base(self.nodes - 1) + skip as u64 * self.quad_bytes;
                    FileSpec::input(&name, len)
                } else {
                    FileSpec::output(&name)
                }
            } else if files::OUTPUT.contains(&id) {
                FileSpec::output(&format!("escat-output-{id}"))
            } else if let (Some(plan), files::CHECKPOINT) = (ckpt, id) {
                plan.file_spec("escat-ckpt")
            } else {
                FileSpec::input("unused", 0)
            };
            specs.push(spec);
        }

        let mut scripts: Vec<Vec<ScriptOp>> = Vec::with_capacity(self.nodes as usize);
        let gather_bytes = 2 * self.iters as u64 * self.quad_bytes;

        for node in 0..self.nodes {
            let mut ops: Vec<ScriptOp> = Vec::new();

            // --- Phase 1: compulsory input (node 0) + broadcast; a
            // restarted run pays this cost again ---
            if node == 0 {
                for f in files::INPUT {
                    ops.push(op_open(f, AccessMode::MUnix));
                }
                for k in 0..self.init_small_reads {
                    let f = files::INPUT[(k % 3) as usize];
                    ops.push(ScriptOp::Io(IoRequest::read(f, self.init_small_bytes)));
                }
                for k in 0..self.init_medium_reads {
                    let f = files::INPUT[(k % 3) as usize];
                    ops.push(ScriptOp::Io(IoRequest::read(f, self.init_medium_bytes)));
                }
                for k in 0..self.init_large_reads {
                    let f = files::INPUT[(k % 3) as usize];
                    ops.push(ScriptOp::Io(IoRequest::read(f, self.init_large_bytes)));
                }
                for f in files::INPUT {
                    ops.push(ScriptOp::Io(IoRequest::close(f)));
                }
            }
            ops.push(ScriptOp::Broadcast {
                root: 0,
                bytes: self.init_volume(),
                group: 0,
            });

            // --- Phase 2: quadrature compute/seek/write cycles, with an
            // epoch commit every `interval` iterations when checkpointing ---
            let stage_mode = if interleaved {
                AccessMode::MRecord
            } else {
                AccessMode::MUnix
            };
            for f in files::STAGING {
                ops.push(op_open(f, stage_mode));
            }
            if let Some(plan) = ckpt {
                ops.push(op_open(plan.file, AccessMode::MUnix));
            }
            let base = self.region_base(node);
            for j in skip..self.iters {
                ops.push(op_compute(self.iter_compute(j)));
                ops.push(ScriptOp::Barrier(0));
                for f in files::STAGING {
                    // A resumed run must reposition explicitly on its first
                    // iteration even past the seek/append switchover.
                    if !interleaved && (j < self.seek_iters || (skip > 0 && j == skip)) {
                        ops.push(ScriptOp::Io(IoRequest::seek(
                            f,
                            base + j as u64 * self.quad_bytes,
                        )));
                    }
                    ops.push(ScriptOp::Io(IoRequest::write(f, self.quad_bytes)));
                }
                if let Some(plan) = ckpt {
                    if let Some(epoch) = plan.boundary(j + 1, self.iters) {
                        ops.extend(plan.commit_ops(node, epoch, &files::STAGING));
                    }
                }
            }
            if let Some(plan) = ckpt {
                ops.push(ScriptOp::Io(IoRequest::close(plan.file)));
            }

            // --- Phase 3: energy-dependent calculation + reload ---
            ops.push(op_compute(self.energy_compute));
            ops.push(ScriptOp::Barrier(0));
            if interleaved {
                // Record mode's cursor is already past the written data, so
                // the reload reopens the staging files in plain M_UNIX mode
                // and reads this node's own records back by explicit offset,
                // one read per quadrature record.
                for f in files::STAGING {
                    ops.push(ScriptOp::Io(IoRequest::close(f)));
                }
                for f in files::STAGING {
                    ops.push(op_open(f, AccessMode::MUnix));
                }
                ops.push(ScriptOp::Barrier(0));
                for f in files::STAGING {
                    for j in 0..self.iters {
                        let mut req = IoRequest::read(f, self.quad_bytes);
                        req.offset =
                            Some((j as u64 * self.nodes as u64 + node as u64) * self.quad_bytes);
                        ops.push(ScriptOp::Io(req));
                    }
                }
            } else {
                for f in files::STAGING {
                    // One large contiguous read of exactly the region this
                    // node wrote (M_RECORD-equivalent fixed records in node
                    // order).
                    let mut req = IoRequest::read(f, self.region_stride());
                    req.offset = Some(base);
                    ops.push(ScriptOp::Io(req));
                }
            }
            for f in files::STAGING {
                ops.push(ScriptOp::Io(IoRequest::close(f)));
            }

            // --- Phase 4: gather to node 0 + final output ---
            if node == 0 {
                for sender in 1..self.nodes {
                    ops.push(ScriptOp::Recv {
                        from: sender,
                        tag: 900,
                    });
                }
                for f in files::OUTPUT {
                    ops.push(op_open(f, AccessMode::MUnix));
                }
                // The two stray seeks of Table 1.
                ops.push(ScriptOp::Io(IoRequest::seek(files::OUTPUT[0], 0)));
                ops.push(ScriptOp::Io(IoRequest::seek(files::OUTPUT[1], 0)));
                for k in 0..self.output_writes {
                    let f = files::OUTPUT[(k % 3) as usize];
                    ops.push(ScriptOp::Io(IoRequest::write(f, self.output_bytes)));
                }
                for f in files::OUTPUT {
                    ops.push(ScriptOp::Io(IoRequest::close(f)));
                }
            } else {
                ops.push(ScriptOp::Send {
                    to: 0,
                    bytes: gather_bytes,
                    tag: 900,
                });
            }

            scripts.push(ops);
        }

        Workload {
            label: label.to_string(),
            files: specs,
            scripts,
            groups: Vec::new(),
        }
    }

    /// Expected operation counts: (reads, writes, seeks, opens, closes) —
    /// the Table 1 count column.
    pub fn expected_counts(&self) -> (u64, u64, u64, u64, u64) {
        let reads = (self.init_small_reads + self.init_medium_reads + self.init_large_reads) as u64
            + 2 * self.nodes as u64;
        let writes = 2 * self.iters as u64 * self.nodes as u64 + self.output_writes as u64;
        let seeks = 2 * self.seek_iters as u64 * self.nodes as u64 + 2;
        let opens = 3 + 2 * self.nodes as u64 + 3;
        let closes = opens;
        (reads, writes, seeks, opens, closes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{run_workload, Backend};
    use paragon_sim::MachineConfig;
    use sio_core::event::IoOp;

    #[test]
    fn paper_counts_match_table1() {
        let p = EscatParams::paper();
        let (reads, writes, seeks, opens, closes) = p.expected_counts();
        assert_eq!(reads, 560);
        assert_eq!(writes, 13_330);
        assert_eq!(seeks, 12_034);
        assert_eq!(opens, 262);
        assert_eq!(closes, 262);
    }

    #[test]
    fn paper_write_volume_matches_table1() {
        let p = EscatParams::paper();
        let write_vol = 2 * p.iters as u64 * p.quad_bytes * p.nodes as u64
            + p.output_writes as u64 * p.output_bytes;
        // Paper: 26,757,088 bytes. Within 0.5 %.
        let rel = (write_vol as f64 - 26_757_088.0).abs() / 26_757_088.0;
        assert!(rel < 0.005, "write volume {write_vol} off by {rel}");
    }

    #[test]
    fn region_geometry_is_stripe_padded() {
        let p = EscatParams::paper();
        assert_eq!(p.region_stride(), 131_072); // 104 KB of data → 2 units
        assert_eq!(p.region_base(1), 131_072);
        assert_eq!(p.region_base(127) % p.stripe_unit, 0);
    }

    #[test]
    fn iteration_compute_ramps_down() {
        let p = EscatParams::paper();
        assert!((p.iter_compute(0) - 150.0).abs() < 1e-9);
        assert!((p.iter_compute(51) - 70.0).abs() < 1e-9);
        assert!(p.iter_compute(25) < p.iter_compute(0));
        assert!(p.iter_compute(25) > p.iter_compute(51));
    }

    #[test]
    fn small_run_produces_expected_counts() {
        let p = EscatParams::small(4, 6);
        let w = p.workload();
        let m = MachineConfig::tiny(4, 2);
        let out = run_workload(&m, &w, &Backend::Pfs);
        let (reads, writes, seeks, opens, closes) = p.expected_counts();
        assert_eq!(out.trace.of_op(IoOp::Read).count() as u64, reads);
        assert_eq!(out.trace.of_op(IoOp::Write).count() as u64, writes);
        assert_eq!(out.trace.of_op(IoOp::Seek).count() as u64, seeks);
        assert_eq!(out.trace.of_op(IoOp::Open).count() as u64, opens);
        assert_eq!(out.trace.of_op(IoOp::Close).count() as u64, closes);
    }

    #[test]
    fn small_run_reload_reads_what_was_written() {
        let p = EscatParams::small(4, 6);
        let out = run_workload(&MachineConfig::tiny(4, 2), &p.workload(), &Backend::Pfs);
        // Reload reads: the last 2*nodes reads; each node rereads its own
        // region (offset == region_base) and gets all its data back.
        let reloads: Vec<_> = out
            .trace
            .of_op(IoOp::Read)
            .filter(|e| super::files::STAGING.contains(&e.file))
            .collect();
        assert_eq!(reloads.len(), 8);
        for ev in reloads {
            assert_eq!(ev.offset, p.region_base(ev.node));
            assert!(ev.bytes >= p.iters as u64 * p.quad_bytes);
        }
    }

    #[test]
    fn small_run_works_on_ppfs_backend() {
        let p = EscatParams::small(4, 4);
        let out = run_workload(
            &MachineConfig::tiny(4, 2),
            &p.workload(),
            &Backend::Ppfs(sio_ppfs::PolicyConfig::escat_tuned()),
        );
        assert!(out.ppfs_stats.unwrap().writes_buffered > 0);
    }
}

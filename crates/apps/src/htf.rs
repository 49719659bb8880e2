//! HTF — the Hartree-Fock quantum chemistry pipeline skeleton.
//!
//! Three programs run as a logical pipeline (§4.3, §7 of the paper), each a
//! separate run whose traces the analysis concatenates:
//!
//! * **psetup** (initialization) — serial: node 0 reads the small problem
//!   input and writes transformed setup files; many small (< 4 KB) and
//!   medium (< 64 KB) requests.
//! * **pargos** (integral calculation) — write-intensive: every node
//!   creates its *own* integral file and appends ~82 KB integral records,
//!   flushing after each (the `forflush` row of Table 5), finishing with an
//!   `lsize`. The 128 simultaneous file creates are what make the Open row
//!   so expensive (4,057 s).
//! * **pscf** (self-consistent field) — read-intensive: the integral files
//!   "are too large to retain in memory", so every node makes repeated
//!   sequential passes (six, for this data set) over its file, rewinding
//!   between passes — 98 % of the phase's I/O time is reads.
//!
//! `HtfParams::paper()` reproduces the per-phase rows of Tables 5–6,
//! including the seek *distance* volume of pscf (3.495 GB of rewinds).

use crate::checkpoint::{CheckpointPlan, CheckpointedWorkload};
use crate::workload::{op_compute, op_open, Workload};
use paragon_sim::program::{IoRequest, ScriptOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use sio_pfs::{AccessMode, FileSpec};

/// Parameters for the three-program HTF pipeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HtfParams {
    /// Compute nodes (pargos, pscf; psetup is serial).
    pub nodes: u32,
    /// Integral record size, bytes (~82 KB).
    pub integral_bytes: u64,
    /// Total integral records across all nodes (8,532 in the paper; the
    /// remainder after division is spread one-extra-per-node from node 0).
    pub integral_records: u32,
    /// Sequential passes pscf makes over each integral file.
    pub scf_passes: u32,
    /// Extra large reads in pscf beyond `passes × records` (33 in the
    /// paper: a partial seventh pass by the first nodes).
    pub scf_extra_reads: u32,

    // --- psetup ---
    /// Small reads / size.
    pub setup_small_reads: u32,
    /// Size of small psetup requests.
    pub setup_small_bytes: u64,
    /// Medium reads.
    pub setup_medium_reads: u32,
    /// Size of medium psetup reads.
    pub setup_medium_read_bytes: u64,
    /// Small writes.
    pub setup_small_writes: u32,
    /// Medium writes.
    pub setup_medium_writes: u32,
    /// Size of medium psetup writes.
    pub setup_medium_write_bytes: u64,
    /// Total psetup compute, seconds (wall target ≈ 127 s).
    pub setup_compute: f64,

    // --- pargos ---
    /// Mean compute seconds per integral record (±20 % jitter, seeded).
    pub integral_compute: f64,
    /// Small reads by node 0 (problem broadcast data).
    pub pargos_small_reads: u32,
    /// Size of those reads.
    pub pargos_small_read_bytes: u64,
    /// Medium reads by node 0.
    pub pargos_medium_reads: u32,
    /// Size of medium pargos reads.
    pub pargos_medium_read_bytes: u64,

    // --- pscf ---
    /// Compute seconds between integral reads.
    pub scf_compute: f64,
    /// Auxiliary open/access/close cycles by node 0 (checkpoint, matrix
    /// files) — the paper's "repeated patterns of file open, access, and
    /// close".
    pub scf_aux_cycles: u32,
    /// Aux small reads total.
    pub scf_aux_small_reads: u32,
    /// Aux medium reads total.
    pub scf_aux_medium_reads: u32,
    /// Aux writes: (small, medium, large) counts.
    pub scf_aux_writes: (u32, u32, u32),
    /// Aux write sizes: (small, medium, large).
    pub scf_aux_write_bytes: (u64, u64, u64),
    /// Aux seeks and their distance.
    pub scf_aux_seeks: u32,
    /// Distance of each aux seek.
    pub scf_aux_seek_bytes: u64,
}

impl HtfParams {
    /// The paper's 16-atom run on 128 nodes — Tables 5–6.
    pub fn paper() -> HtfParams {
        HtfParams {
            nodes: 128,
            integral_bytes: 81_916,
            integral_records: 8_532,
            scf_passes: 6,
            scf_extra_reads: 33,
            setup_small_reads: 151,
            setup_small_bytes: 1_024,
            setup_medium_reads: 220,
            setup_medium_read_bytes: 15_308,
            setup_small_writes: 218,
            setup_medium_writes: 234,
            setup_medium_write_bytes: 15_050,
            setup_compute: 105.0,
            integral_compute: 16.0,
            pargos_small_reads: 143,
            pargos_small_read_bytes: 178,
            pargos_medium_reads: 2,
            pargos_medium_read_bytes: 4_475,
            scf_compute: 2.3,
            scf_aux_cycles: 29,
            scf_aux_small_reads: 165,
            scf_aux_medium_reads: 109,
            scf_aux_writes: (43, 158, 6),
            scf_aux_write_bytes: (1_000, 20_000, 100_000),
            scf_aux_seeks: 45,
            scf_aux_seek_bytes: 14_716,
        }
    }

    /// Scaled-down variant for tests.
    pub fn small(nodes: u32) -> HtfParams {
        HtfParams {
            nodes,
            integral_records: nodes * 3 + 1,
            scf_passes: 2,
            scf_extra_reads: 1,
            setup_small_reads: 5,
            setup_medium_reads: 4,
            setup_small_writes: 5,
            setup_medium_writes: 4,
            setup_compute: 0.05,
            integral_compute: 0.01,
            pargos_small_reads: 3,
            pargos_medium_reads: 1,
            scf_compute: 0.005,
            scf_aux_cycles: 3,
            scf_aux_small_reads: 4,
            scf_aux_medium_reads: 2,
            scf_aux_writes: (3, 2, 1),
            scf_aux_seeks: 3,
            ..HtfParams::paper()
        }
    }

    /// Integral records written by `node` (remainder spread from node 0).
    pub fn records_of(&self, node: u32) -> u32 {
        let base = self.integral_records / self.nodes;
        base + u32::from(node < self.integral_records % self.nodes)
    }

    // ------------------------------------------------------------------
    // psetup
    // ------------------------------------------------------------------

    /// Build the psetup (initialization) workload: serial, 4 files.
    pub fn psetup_workload(&self) -> Workload {
        let input_len = self.setup_small_reads as u64 * self.setup_small_bytes
            + self.setup_medium_reads as u64 * self.setup_medium_read_bytes;
        let files = vec![
            FileSpec::input("htf-input", input_len + 4096),
            FileSpec::output("htf-setup-a"),
            FileSpec::output("htf-setup-b"),
            FileSpec::output("htf-setup-c"),
        ];
        let mut ops: Vec<ScriptOp> = Vec::new();
        for f in 0..4 {
            ops.push(op_open(f, AccessMode::MUnix));
        }
        // Interleave reads (from file 0) and writes (round-robin files 1-3)
        // with compute slices, as a transformation pass would.
        let total_ops = (self.setup_small_reads
            + self.setup_medium_reads
            + self.setup_small_writes
            + self.setup_medium_writes) as f64;
        let slice = self.setup_compute / total_ops.max(1.0);
        let mut w = 0u32;
        let mut push_write = |ops: &mut Vec<ScriptOp>, bytes: u64| {
            ops.push(ScriptOp::Io(IoRequest::write(1 + w % 3, bytes)));
            w += 1;
        };
        for k in 0..self.setup_small_reads.max(self.setup_small_writes) {
            if k < self.setup_small_reads {
                ops.push(op_compute(slice));
                ops.push(ScriptOp::Io(IoRequest::read(0, self.setup_small_bytes)));
            }
            if k < self.setup_small_writes {
                ops.push(op_compute(slice));
                push_write(&mut ops, self.setup_small_bytes);
            }
        }
        // The two seeks of Table 5: rewind the input before the medium pass.
        ops.push(ScriptOp::Io(IoRequest::seek(0, 0)));
        for k in 0..self.setup_medium_reads.max(self.setup_medium_writes) {
            if k < self.setup_medium_reads {
                ops.push(op_compute(slice));
                ops.push(ScriptOp::Io(IoRequest::read(
                    0,
                    self.setup_medium_read_bytes,
                )));
            }
            if k < self.setup_medium_writes {
                ops.push(op_compute(slice));
                push_write(&mut ops, self.setup_medium_write_bytes);
            }
        }
        ops.push(ScriptOp::Io(IoRequest::seek(0, 0)));
        // Close 3 of the 4 files (Table 5: 4 opens, 3 closes).
        for f in 0..3 {
            ops.push(ScriptOp::Io(IoRequest::close(f)));
        }
        Workload {
            label: "htf-psetup".to_string(),
            files,
            scripts: vec![ops],
            groups: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // pargos
    // ------------------------------------------------------------------

    /// File id of node `n`'s integral file (both pargos and pscf).
    pub fn integral_file(&self, node: u32) -> u32 {
        2 + node
    }

    /// Build the pargos (integral calculation) workload.
    pub fn pargos_workload(&self) -> Workload {
        self.build_pargos("htf-pargos", None)
    }

    /// File id of the pargos checkpoint file (first id past the integral
    /// files).
    pub fn pargos_checkpoint_file(&self) -> u32 {
        2 + self.nodes
    }

    /// Build the checkpointed pargos workload: every `interval` integral
    /// records a node syncs its integral file (forcing PPFS write-behind
    /// buffers to disk), writes its checkpoint record, and syncs the
    /// checkpoint file. Nodes have ragged record counts, so a node stops
    /// checkpointing once its own records are covered. With
    /// `resume_epoch > 0` the integral files pre-exist holding the
    /// recovered records and each node appends from its resume point.
    pub fn pargos_workload_checkpointed(
        &self,
        interval: u32,
        resume_epoch: u32,
    ) -> CheckpointedWorkload {
        let mut plan = CheckpointPlan::new(
            self.pargos_checkpoint_file(),
            3,
            self.nodes,
            interval,
            self.records_of(0),
        )
        .resumed(resume_epoch);
        plan.covered = (0..self.nodes).map(|n| self.integral_file(n)).collect();
        CheckpointedWorkload {
            workload: self.build_pargos(&plan.label("htf-pargos"), Some(&plan)),
            plan,
        }
    }

    /// The one pargos script builder. `ckpt` adds each node's commits to
    /// its record loop and, on a resumed plan, skips the records the
    /// checkpoint covers; everything else is the same program.
    fn build_pargos(&self, label: &str, ckpt: Option<&CheckpointPlan>) -> Workload {
        let skip_of =
            |records: u32| ckpt.map_or(0, |plan| plan.units_at(plan.start_epoch, records));
        let resumed = ckpt.is_some_and(|plan| plan.start_epoch > 0);
        let mut files = vec![
            FileSpec::input(
                "htf-setup-out",
                self.pargos_small_reads as u64 * self.pargos_small_read_bytes
                    + self.pargos_medium_reads as u64 * self.pargos_medium_read_bytes
                    + 4096,
            ),
            if resumed {
                FileSpec::input("htf-pargos-aux", 50_000)
            } else {
                FileSpec::output("htf-pargos-aux")
            },
        ];
        for n in 0..self.nodes {
            let name = format!("integrals-{n:03}");
            let skip = skip_of(self.records_of(n));
            files.push(if skip > 0 {
                FileSpec::input(&name, skip as u64 * self.integral_bytes)
            } else {
                FileSpec::output(&name)
            });
        }
        if let Some(plan) = ckpt {
            files.push(plan.file_spec("htf-pargos-ckpt"));
        }
        let mut rng = StdRng::seed_from_u64(0x4854_4601);
        let mut scripts: Vec<Vec<ScriptOp>> = Vec::with_capacity(self.nodes as usize);
        for node in 0..self.nodes {
            let records = self.records_of(node);
            let skip = skip_of(records);
            let mut ops: Vec<ScriptOp> = Vec::new();
            if node == 0 {
                // Node 0 reads the setup output and re-broadcasts it.
                ops.push(op_open(0, AccessMode::MUnix));
                for _ in 0..self.pargos_small_reads {
                    ops.push(ScriptOp::Io(IoRequest::read(
                        0,
                        self.pargos_small_read_bytes,
                    )));
                }
                for _ in 0..self.pargos_medium_reads {
                    ops.push(ScriptOp::Io(IoRequest::read(
                        0,
                        self.pargos_medium_read_bytes,
                    )));
                }
                ops.push(ScriptOp::Io(IoRequest::seek(0, 0)));
                ops.push(ScriptOp::Io(IoRequest::close(0)));
                // Aux file with the three stray writes of Table 6.
                ops.push(op_open(1, AccessMode::MUnix));
                ops.push(ScriptOp::Io(IoRequest::seek(1, 0)));
                ops.push(ScriptOp::Io(IoRequest::write(1, 1_000)));
                ops.push(ScriptOp::Io(IoRequest::write(1, 1_000)));
                ops.push(ScriptOp::Io(IoRequest::write(1, 48_000)));
            }
            ops.push(ScriptOp::Broadcast {
                root: 0,
                bytes: 34_400,
                group: 0,
            });
            let f = self.integral_file(node);
            ops.push(op_open(f, AccessMode::MUnix));
            ops.push(ScriptOp::Io(IoRequest::seek(
                f,
                skip as u64 * self.integral_bytes,
            )));
            if let Some(plan) = ckpt {
                ops.push(op_open(plan.file, AccessMode::MUnix));
            }
            // Jittered compute desynchronizes the writers, as integral
            // screening does in the real code. Every record draws its
            // jitter, so a resumed run replays the same compute times for
            // the records it still has to do.
            for r in 0..records {
                let jitter = rng.random_range(0.8..1.2);
                if r < skip {
                    continue;
                }
                ops.push(op_compute(self.integral_compute * jitter));
                ops.push(ScriptOp::Io(IoRequest::write(f, self.integral_bytes)));
                ops.push(ScriptOp::Io(IoRequest::flush(f)));
                if let Some(plan) = ckpt {
                    if let Some(epoch) = plan.boundary(r + 1, records) {
                        ops.extend(plan.commit_ops(node, epoch, &[f]));
                    }
                }
            }
            if let Some(plan) = ckpt {
                ops.push(ScriptOp::Io(IoRequest::close(plan.file)));
            }
            ops.push(ScriptOp::Io(IoRequest::flush(f)));
            ops.push(ScriptOp::Io(IoRequest::lsize(f)));
            ops.push(ScriptOp::Io(IoRequest::close(f)));
            scripts.push(ops);
        }
        Workload {
            label: label.to_string(),
            files,
            scripts,
            groups: Vec::new(),
        }
    }

    /// Synchronized integral rounds every node completes in the shared-file
    /// variant (the ragged remainder is dropped so membership stays full).
    pub fn pint_rounds(&self) -> u32 {
        self.integral_records / self.nodes
    }

    /// Build the shared-file integral-calculation variant ("pint"): instead
    /// of 128 private integral files, every node writes its ~82 KB records
    /// *record-interleaved into one shared file* — node `n`'s round-`r`
    /// record at `(r × nodes + n) × integral_bytes`. Each I/O node then sees
    /// the file as small seek-separated slices under PFS, while a collective
    /// backend can aggregate every round into one large sequential transfer
    /// per I/O node: the X6 shared-write phase for HTF.
    ///
    /// Rounds self-synchronize after the initial barrier: jittered compute
    /// staggers the writers within a round, but no node can issue round
    /// `r + 1` before its round-`r` write completes.
    pub fn pint_workload(&self) -> Workload {
        let rounds = self.pint_rounds();
        let files = vec![FileSpec::output("integrals-shared")];
        let mut rng = StdRng::seed_from_u64(0x4854_4602);
        let mut scripts: Vec<Vec<ScriptOp>> = Vec::with_capacity(self.nodes as usize);
        for node in 0..self.nodes {
            let mut ops: Vec<ScriptOp> = vec![op_open(0, AccessMode::MUnix)];
            ops.push(ScriptOp::Barrier(0));
            for r in 0..rounds as u64 {
                let jitter = rng.random_range(0.8..1.2);
                ops.push(op_compute(self.integral_compute * jitter));
                let mut req = IoRequest::write(0, self.integral_bytes);
                req.offset = Some((r * self.nodes as u64 + node as u64) * self.integral_bytes);
                ops.push(ScriptOp::Io(req));
            }
            ops.push(ScriptOp::Io(IoRequest::close(0)));
            scripts.push(ops);
        }
        Workload {
            label: "htf-pint".to_string(),
            files,
            scripts,
            groups: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // pscf
    // ------------------------------------------------------------------

    /// Build the pscf (self-consistent field) workload. The integral files
    /// are inputs here, sized exactly as pargos wrote them.
    pub fn pscf_workload(&self) -> Workload {
        let mut files = vec![
            // Checkpoint/matrix files carry state from earlier SCF runs, so
            // they pre-exist and are large enough for the aux read cycles.
            FileSpec::input("htf-checkpoint", 4 << 20),
            FileSpec::input("htf-matrices", 4 << 20),
        ];
        for n in 0..self.nodes {
            files.push(FileSpec::input(
                &format!("integrals-{n:03}"),
                self.records_of(n) as u64 * self.integral_bytes,
            ));
        }
        let split = |total: u32, parts: u32, k: u32| total / parts + u32::from(k < total % parts);

        let mut scripts: Vec<Vec<ScriptOp>> = Vec::with_capacity(self.nodes as usize);
        for node in 0..self.nodes {
            let mut ops: Vec<ScriptOp> = Vec::new();
            let f = self.integral_file(node);
            ops.push(op_open(f, AccessMode::MUnix));
            // Stagger pass starts slightly so 128 nodes do not convoy.
            ops.push(op_compute(0.05 * node as f64));
            let records = self.records_of(node);
            for _pass in 0..self.scf_passes {
                // Rewind before every pass: distance 0 the first time, the
                // whole file afterwards — Table 5's 3.495 GB of seek volume.
                ops.push(ScriptOp::Io(IoRequest::seek(f, 0)));
                for _ in 0..records {
                    ops.push(op_compute(self.scf_compute));
                    ops.push(ScriptOp::Io(IoRequest::read(f, self.integral_bytes)));
                }
            }
            if node == 0 {
                // Extra partial-pass reads (Table 6's 33 surplus large reads).
                ops.push(ScriptOp::Io(IoRequest::seek(f, 0)));
                for _ in 0..self.scf_extra_reads {
                    let mut req = IoRequest::read(f, self.integral_bytes);
                    req.offset = Some(0);
                    ops.push(ScriptOp::Io(req));
                }
            }
            ops.push(ScriptOp::Io(IoRequest::close(f)));

            if node == 0 {
                // Aux open/access/close cycles on checkpoint + matrix files.
                let c = self.scf_aux_cycles;
                let (ws, wm, wl) = self.scf_aux_writes;
                let (bs, bm, bl) = self.scf_aux_write_bytes;
                // Seeks beyond the per-pass rewinds: 45 in the paper; one
                // rewind per cycle is already counted there, so aux cycles
                // carry the remainder.
                let extra_seeks = self.scf_aux_seeks;
                for k in 0..c {
                    let aux = k % 2; // alternate checkpoint / matrices
                    ops.push(op_open(aux, AccessMode::MUnix));
                    for _ in 0..split(self.scf_aux_small_reads, c, k) {
                        ops.push(ScriptOp::Io(IoRequest::read(aux, 200)));
                    }
                    for _ in 0..split(self.scf_aux_medium_reads, c, k) {
                        ops.push(ScriptOp::Io(IoRequest::read(aux, 15_000)));
                    }
                    for _ in 0..split(ws, c, k) {
                        ops.push(ScriptOp::Io(IoRequest::write(aux, bs)));
                    }
                    for _ in 0..split(wm, c, k) {
                        ops.push(ScriptOp::Io(IoRequest::write(aux, bm)));
                    }
                    for _ in 0..split(wl, c, k) {
                        ops.push(ScriptOp::Io(IoRequest::write(aux, bl)));
                    }
                    for s in 0..split(extra_seeks, c, k) {
                        ops.push(ScriptOp::Io(IoRequest::seek(
                            aux,
                            (s as u64 + 1) * self.scf_aux_seek_bytes,
                        )));
                    }
                    if k + 1 < c {
                        ops.push(ScriptOp::Io(IoRequest::close(aux)));
                    }
                }
            }
            scripts.push(ops);
        }
        Workload {
            label: "htf-pscf".to_string(),
            files,
            scripts,
            groups: Vec::new(),
        }
    }

    /// Expected pargos counts `(reads, writes, seeks, opens, closes, lsize,
    /// flush)` — Table 5's integral-calculation rows.
    pub fn pargos_expected(&self) -> (u64, u64, u64, u64, u64, u64, u64) {
        let reads = (self.pargos_small_reads + self.pargos_medium_reads) as u64;
        let writes = self.integral_records as u64 + 3;
        let seeks = self.nodes as u64 + 2;
        let opens = self.nodes as u64 + 2;
        let closes = self.nodes as u64 + 1;
        let lsize = self.nodes as u64;
        let flush = self.integral_records as u64 + self.nodes as u64;
        (reads, writes, seeks, opens, closes, lsize, flush)
    }

    /// Expected pscf counts `(reads, writes, seeks, opens, closes)` —
    /// Table 5's self-consistent-field rows.
    pub fn pscf_expected(&self) -> (u64, u64, u64, u64, u64) {
        let big_reads =
            self.scf_passes as u64 * self.integral_records as u64 + self.scf_extra_reads as u64;
        let aux_reads = (self.scf_aux_small_reads + self.scf_aux_medium_reads) as u64;
        let reads = big_reads + aux_reads;
        let (ws, wm, wl) = self.scf_aux_writes;
        let writes = (ws + wm + wl) as u64;
        let seeks = self.scf_passes as u64 * self.nodes as u64 + 1 + self.scf_aux_seeks as u64;
        let opens = self.nodes as u64 + self.scf_aux_cycles as u64;
        let closes = self.nodes as u64 + self.scf_aux_cycles as u64 - 1;
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
    fn paper_pargos_counts_match_table5() {
        let p = HtfParams::paper();
        let (reads, writes, seeks, opens, closes, lsize, flush) = p.pargos_expected();
        assert_eq!(reads, 145);
        assert_eq!(writes, 8_535);
        assert_eq!(seeks, 130);
        assert_eq!(opens, 130);
        assert_eq!(closes, 129);
        assert_eq!(lsize, 128);
        // Paper: 8,657 forflush; ours 8,660 (one final flush per node).
        assert!((flush as i64 - 8_657).unsigned_abs() <= 3, "{flush}");
        // Volume: 8,532 × 81,916 + stray writes ≈ 698,958,109 B.
        let vol = p.integral_records as u64 * p.integral_bytes + 2 * 1_000 + 48_000;
        assert!(
            (vol as f64 - 698_958_109.0).abs() / 698_958_109.0 < 0.001,
            "{vol}"
        );
    }

    #[test]
    fn paper_pscf_counts_match_table5() {
        let p = HtfParams::paper();
        let (reads, writes, seeks, opens, closes) = p.pscf_expected();
        assert_eq!(reads, 51_499);
        assert_eq!(writes, 207);
        assert_eq!(seeks, 814); // paper: 813 (one extra first-pass rewind)
        assert_eq!(opens, 157);
        assert_eq!(closes, 156);
        // Seek distance volume: 5 rewinds × total integral bytes + aux.
        let rewind = (p.scf_passes as u64 - 1) * p.integral_records as u64 * p.integral_bytes;
        let aux: u64 = (0..p.scf_aux_cycles)
            .map(|k| {
                let n = p.scf_aux_seeks / p.scf_aux_cycles
                    + u32::from(k < p.scf_aux_seeks % p.scf_aux_cycles);
                // distances within a cycle: first seek from 0 to 1×d, the
                // rest step by d
                n as u64 * p.scf_aux_seek_bytes
            })
            .sum();
        let total = rewind + aux;
        assert!(
            (total as f64 - 3_495_198_798.0).abs() / 3_495_198_798.0 < 0.01,
            "seek volume {total}"
        );
    }

    #[test]
    fn record_distribution_sums() {
        let p = HtfParams::paper();
        let total: u32 = (0..p.nodes).map(|n| p.records_of(n)).sum();
        assert_eq!(total, p.integral_records);
        assert_eq!(p.records_of(0), 67);
        assert_eq!(p.records_of(127), 66);
    }

    #[test]
    fn small_psetup_runs_and_counts() {
        let p = HtfParams::small(4);
        let out = run_workload(
            &MachineConfig::tiny(4, 2),
            &p.psetup_workload(),
            &Backend::Pfs,
        );
        assert_eq!(
            out.trace.of_op(IoOp::Read).count() as u32,
            p.setup_small_reads + p.setup_medium_reads
        );
        assert_eq!(
            out.trace.of_op(IoOp::Write).count() as u32,
            p.setup_small_writes + p.setup_medium_writes
        );
        assert_eq!(out.trace.of_op(IoOp::Seek).count(), 2);
        assert_eq!(out.trace.of_op(IoOp::Open).count(), 4);
        assert_eq!(out.trace.of_op(IoOp::Close).count(), 3);
    }

    #[test]
    fn small_pargos_runs_and_counts() {
        let p = HtfParams::small(4);
        let out = run_workload(
            &MachineConfig::tiny(4, 2),
            &p.pargos_workload(),
            &Backend::Pfs,
        );
        let (reads, writes, seeks, opens, closes, lsize, flush) = p.pargos_expected();
        assert_eq!(out.trace.of_op(IoOp::Read).count() as u64, reads);
        assert_eq!(out.trace.of_op(IoOp::Write).count() as u64, writes);
        assert_eq!(out.trace.of_op(IoOp::Seek).count() as u64, seeks);
        assert_eq!(out.trace.of_op(IoOp::Open).count() as u64, opens);
        assert_eq!(out.trace.of_op(IoOp::Close).count() as u64, closes);
        assert_eq!(out.trace.of_op(IoOp::Lsize).count() as u64, lsize);
        assert_eq!(out.trace.of_op(IoOp::Flush).count() as u64, flush);
    }

    #[test]
    fn small_pscf_runs_and_counts() {
        let p = HtfParams::small(4);
        let out = run_workload(
            &MachineConfig::tiny(4, 2),
            &p.pscf_workload(),
            &Backend::Pfs,
        );
        let (reads, writes, seeks, opens, closes) = p.pscf_expected();
        assert_eq!(out.trace.of_op(IoOp::Read).count() as u64, reads);
        assert_eq!(out.trace.of_op(IoOp::Write).count() as u64, writes);
        assert_eq!(out.trace.of_op(IoOp::Seek).count() as u64, seeks);
        assert_eq!(out.trace.of_op(IoOp::Open).count() as u64, opens);
        assert_eq!(out.trace.of_op(IoOp::Close).count() as u64, closes);
    }

    #[test]
    fn pscf_reads_are_read_intensive() {
        let p = HtfParams::small(4);
        let out = run_workload(
            &MachineConfig::tiny(4, 2),
            &p.pscf_workload(),
            &Backend::Pfs,
        );
        let read_time: u64 = out.trace.of_op(IoOp::Read).map(|e| e.duration()).sum();
        let write_time: u64 = out.trace.of_op(IoOp::Write).map(|e| e.duration()).sum();
        assert!(
            read_time > write_time * 5,
            "read {read_time} write {write_time}"
        );
    }

    #[test]
    fn pargos_integral_files_are_per_node() {
        let p = HtfParams::small(4);
        let out = run_workload(
            &MachineConfig::tiny(4, 2),
            &p.pargos_workload(),
            &Backend::Pfs,
        );
        for ev in out.trace.of_op(IoOp::Write) {
            if ev.bytes == p.integral_bytes {
                assert_eq!(ev.file, p.integral_file(ev.node));
            }
        }
    }

    #[test]
    fn pint_interleaves_one_shared_file_and_cio_aggregates_it() {
        let p = HtfParams::small(8);
        let m = MachineConfig::tiny(8, 4);
        let w = p.pint_workload();
        let rounds = p.pint_rounds() as u64;
        assert!(rounds >= 2);

        let pfs = run_workload(&m, &w, &Backend::Pfs);
        let cio = run_workload(&m, &w, &Backend::Cio);
        for out in [&pfs, &cio] {
            assert_eq!(out.trace.of_op(IoOp::Write).count() as u64, rounds * 8);
            // Every record lands at its interleaved slot of the one file.
            for ev in out.trace.of_op(IoOp::Write) {
                assert_eq!(ev.file, 0);
                assert_eq!(ev.offset % p.integral_bytes, 0);
                assert_eq!(ev.bytes, p.integral_bytes);
            }
        }

        // One collective per synchronized round, every node a member.
        let stats = cio.cio.expect("cio stats");
        assert_eq!(stats.collectives, rounds);
        assert_eq!(stats.members, rounds * 8);
        assert!(stats.exchange > paragon_sim::SimDuration::ZERO);

        // The aggregation headline: CIO's mean per-I/O-node write request is
        // at least 4× PFS's on the same interleaved workload.
        let mean = |loads: &[sio_fskit::NodeLoad]| {
            let reqs: u64 = loads.iter().map(|l| l.write_reqs).sum();
            let bytes: u64 = loads.iter().map(|l| l.write_bytes).sum();
            bytes as f64 / reqs.max(1) as f64
        };
        let (mp, mc) = (mean(&pfs.node_loads), mean(&cio.node_loads));
        assert!(
            mc >= 4.0 * mp,
            "cio mean {mc:.0} B !>= 4x pfs mean {mp:.0} B"
        );
    }

    #[test]
    fn pipeline_phases_have_distinct_signatures() {
        // pargos: write volume >> read volume; pscf: the reverse.
        let p = HtfParams::small(4);
        let m = MachineConfig::tiny(4, 2);
        let pargos = run_workload(&m, &p.pargos_workload(), &Backend::Pfs);
        let pscf = run_workload(&m, &p.pscf_workload(), &Backend::Pfs);
        let wv = |t: &sio_core::Trace| -> u64 { t.of_op(IoOp::Write).map(|e| e.bytes).sum() };
        let rv = |t: &sio_core::Trace| -> u64 {
            t.events()
                .iter()
                .filter(|e| e.op.is_read())
                .map(|e| e.bytes)
                .sum()
        };
        assert!(wv(&pargos.trace) > 10 * rv(&pargos.trace));
        assert!(rv(&pscf.trace) > 10 * wv(&pscf.trace));
    }
}

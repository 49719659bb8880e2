//! Application checkpoint plans: periodic epoch snapshots written through
//! the active filesystem, plus the resume bookkeeping.
//!
//! A **checkpoint plan** describes how an application protects its progress:
//! every `interval` work units (quadrature iterations, integral records,
//! frames) each participating node commits an epoch boundary by
//!
//! 1. `sync`ing the data files the epoch's work went to (flushing
//!    write-behind buffers; the commit is only as durable as the data it
//!    describes),
//! 2. seeking to its private slot in the shared checkpoint file and writing
//!    one fixed-size [`CheckpointImage`] record (header + checksummed
//!    payload, see `sio_core::checkpoint`),
//! 3. `sync`ing the checkpoint file itself.
//!
//! Records are laid out epoch-major — epoch `k` (1-based) of node `n` lives
//! at byte `((k-1)·nodes + n)·record_bytes` — so a crashed run's checkpoint
//! file is a clean prefix of commit attempts and the recovery analysis can
//! replay it through `CheckpointStore::try_commit` byte-for-byte.
//!
//! `resume_epoch > 0` builds the *restarted* run: completed work units are
//! skipped, data files written before the crash become pre-existing inputs,
//! and the first resumed operation explicitly seeks past the recovered
//! region.

use paragon_sim::program::{IoRequest, ScriptOp};
use sio_core::checkpoint::{progress_payload, CheckpointImage, HEADER_LEN};
use sio_pfs::FileSpec;

use crate::workload::Workload;

/// Fixed on-disk size of one checkpoint record (header + payload).
pub const RECORD_BYTES: u64 = 4_096;

/// How an application checkpoints itself, and where a resumed run starts.
#[derive(Debug, Clone)]
pub struct CheckpointPlan {
    /// File id of the shared checkpoint file.
    pub file: u32,
    /// Application id baked into every record's header.
    pub app_id: u32,
    /// Participating writer nodes (RENDER checkpoints from the gateway
    /// only, so this can be smaller than the machine's node count).
    pub nodes: u32,
    /// Work units (iterations / records / frames) per epoch.
    pub interval: u32,
    /// Bytes of one checkpoint record (encoded image length).
    pub record_bytes: u64,
    /// Epoch boundaries in a full run: `ceil(units / interval)`.
    pub epochs: u32,
    /// Epoch the run starts from: 0 for a fresh run, `k` to skip the work
    /// covered by boundary `k`.
    pub start_epoch: u32,
    /// Data files whose contents the checkpoints protect (fed to PPFS
    /// dirty-loss accounting via `mark_checkpoint_covered`).
    pub covered: Vec<u32>,
}

impl CheckpointPlan {
    /// A fresh-run plan over `units` work units.
    pub fn new(file: u32, app_id: u32, nodes: u32, interval: u32, units: u32) -> CheckpointPlan {
        assert!(interval > 0, "checkpoint interval must be positive");
        CheckpointPlan {
            file,
            app_id,
            nodes,
            interval,
            record_bytes: RECORD_BYTES,
            epochs: units.div_ceil(interval),
            start_epoch: 0,
            covered: Vec::new(),
        }
    }

    /// The same plan, resumed from epoch boundary `epoch`.
    pub fn resumed(mut self, epoch: u32) -> CheckpointPlan {
        assert!(epoch <= self.epochs, "resume epoch beyond plan");
        self.start_epoch = epoch;
        self
    }

    /// Work units covered by (completed strictly before) boundary `epoch`,
    /// out of `units` total for one writer.
    pub fn units_at(&self, epoch: u32, units: u32) -> u32 {
        units.min(epoch.saturating_mul(self.interval))
    }

    /// The boundary a writer with `units` work units commits once `done`
    /// of them are complete: every `interval` units, plus a final partial
    /// epoch at its last unit. `None` between boundaries.
    pub fn boundary(&self, done: u32, units: u32) -> Option<u32> {
        (done.is_multiple_of(self.interval) || done == units).then(|| done.div_ceil(self.interval))
    }

    /// Workload label of the checkpointed `app`: `<app>-ckpt` for a fresh
    /// run, `<app>-ckpt-resume<k>` for one resumed from boundary `k`.
    pub fn label(&self, app: &str) -> String {
        match self.start_epoch {
            0 => format!("{app}-ckpt"),
            k => format!("{app}-ckpt-resume{k}"),
        }
    }

    /// Byte offset of node `node`'s record for boundary `epoch` (1-based).
    pub fn slot_offset(&self, epoch: u32, node: u32) -> u64 {
        ((epoch as u64 - 1) * self.nodes as u64 + node as u64) * self.record_bytes
    }

    /// The checkpoint image node `node` writes at boundary `epoch`.
    pub fn image(&self, node: u32, epoch: u32) -> CheckpointImage {
        let payload_len = self.record_bytes as usize - HEADER_LEN;
        CheckpointImage {
            app_id: self.app_id,
            node,
            epoch,
            payload: progress_payload(self.app_id, node, epoch, payload_len),
        }
    }

    /// Script ops for one commit: sync the epoch's data files, write the
    /// record into this node's slot, sync the checkpoint file.
    pub fn commit_ops(&self, node: u32, epoch: u32, data_files: &[u32]) -> Vec<ScriptOp> {
        let mut ops = Vec::with_capacity(data_files.len() + 3);
        for &f in data_files {
            ops.push(ScriptOp::Io(IoRequest::sync(f)));
        }
        ops.push(ScriptOp::Io(IoRequest::seek(
            self.file,
            self.slot_offset(epoch, node),
        )));
        ops.push(ScriptOp::Io(IoRequest::write(self.file, self.record_bytes)));
        ops.push(ScriptOp::Io(IoRequest::sync(self.file)));
        ops
    }

    /// FileSpec for the checkpoint file: fresh output on a first run, a
    /// pre-existing input (sized to the recovered epochs) on resume.
    pub fn file_spec(&self, name: &str) -> FileSpec {
        if self.start_epoch == 0 {
            FileSpec::output(name)
        } else {
            FileSpec::input(
                name,
                self.start_epoch as u64 * self.nodes as u64 * self.record_bytes,
            )
        }
    }

    /// Slot names for `CheckpointStore`, one per writer node.
    pub fn slot_names(&self) -> Vec<String> {
        (0..self.nodes).map(|n| format!("node-{n:03}")).collect()
    }
}

/// A workload plus the checkpoint plan that produced it — everything the
/// recovery orchestrator needs to crash it, read back its checkpoint file,
/// and build the resumed run.
#[derive(Debug, Clone)]
pub struct CheckpointedWorkload {
    /// The runnable workload (scripts already contain the commit ops).
    pub workload: Workload,
    /// The plan describing the checkpoint geometry.
    pub plan: CheckpointPlan,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EscatParams, HtfParams, RenderParams};
    use paragon_sim::program::IoVerb;
    use sio_core::checkpoint::CheckpointStore;

    #[test]
    fn slots_are_epoch_major_and_disjoint() {
        let p = CheckpointPlan::new(6, 1, 4, 8, 52);
        assert_eq!(p.epochs, 7);
        assert_eq!(p.slot_offset(1, 0), 0);
        assert_eq!(p.slot_offset(1, 3), 3 * RECORD_BYTES);
        assert_eq!(p.slot_offset(2, 0), 4 * RECORD_BYTES);
        let mut seen = std::collections::HashSet::new();
        for k in 1..=p.epochs {
            for n in 0..p.nodes {
                assert!(seen.insert(p.slot_offset(k, n)));
            }
        }
    }

    #[test]
    fn units_and_boundaries_cover_ragged_work() {
        // 4 nodes, 10 units each except the last with 3, interval 4.
        let p = CheckpointPlan::new(6, 1, 4, 4, 10);
        assert_eq!(p.epochs, 3);
        assert_eq!(p.units_at(1, 10), 4);
        assert_eq!(p.units_at(3, 10), 10);
        // The short writer commits its only boundary at its last unit.
        assert_eq!(p.boundary(3, 3), Some(1));
        assert_eq!((1..3).find_map(|d| p.boundary(d, 3)), None);
        // A full writer commits at 4, 8 and its ragged end.
        let full: Vec<_> = (1..=10).filter_map(|d| p.boundary(d, 10)).collect();
        assert_eq!(full, vec![1, 2, 3]);
        assert_eq!(p.boundary(8, 10), Some(2));
        assert_eq!(p.boundary(10, 10), Some(3));
    }

    #[test]
    fn labels_name_the_resume_epoch() {
        let p = CheckpointPlan::new(6, 1, 4, 4, 10);
        assert_eq!(p.label("escat"), "escat-ckpt");
        assert_eq!(p.resumed(2).label("htf-pargos"), "htf-pargos-ckpt-resume2");
    }

    /// A fresh checkpointed run is its app's plain run plus the plan's
    /// commits: stripping every `Sync` and every op on the checkpoint file
    /// leaves the plain scripts op for op, and the file tables differ only
    /// in the checkpoint file. `writer_units` are the work units of each
    /// checkpointing node, which commit `ceil(units / interval)` records.
    fn assert_only_adds(plain: &Workload, cw: &CheckpointedWorkload, writer_units: &[u32]) {
        let (w, ck) = (&cw.workload, cw.plan.file);
        let added = |op: &ScriptOp| match op {
            ScriptOp::Io(r) | ScriptOp::IoAsync(r) => r.verb == IoVerb::Sync || r.file == ck,
            _ => false,
        };
        let stripped: Vec<Vec<ScriptOp>> = w
            .scripts
            .iter()
            .map(|s| s.iter().filter(|op| !added(op)).copied().collect())
            .collect();
        assert_eq!(stripped, plain.scripts, "{}", w.label);

        let others = |w: &Workload| -> Vec<String> {
            w.files
                .iter()
                .enumerate()
                .filter(|&(id, _)| id as u32 != ck)
                .map(|(_, spec)| format!("{spec:?}"))
                .collect()
        };
        assert_eq!(others(w), others(plain), "{}", w.label);

        let is_record = |op: &&ScriptOp| matches!(op, ScriptOp::Io(r) if r.verb == IoVerb::Write && r.file == ck);
        let records = w.scripts.iter().flatten().filter(is_record).count() as u32;
        let expected: u32 = writer_units
            .iter()
            .map(|u| u.div_ceil(cw.plan.interval))
            .sum();
        assert_eq!(records, expected, "{}", w.label);
    }

    #[test]
    fn checkpointing_only_adds_ops() {
        for p in [EscatParams::small(8, 8), EscatParams::small(4, 5)] {
            let (plain, units) = (p.workload(), vec![p.iters; p.nodes as usize]);
            for interval in 1..=p.iters {
                assert_only_adds(&plain, &p.workload_checkpointed(interval, 0), &units);
            }
        }
        for p in [RenderParams::small(8, 4), RenderParams::small(3, 7)] {
            let plain = p.workload();
            for interval in 1..=p.frames {
                assert_only_adds(&plain, &p.workload_checkpointed(interval, 0), &[p.frames]);
            }
        }
        for p in [HtfParams::small(8), HtfParams::small(3)] {
            let plain = p.pargos_workload();
            let units: Vec<u32> = (0..p.nodes).map(|n| p.records_of(n)).collect();
            for interval in 1..=p.records_of(0) {
                let cw = p.pargos_workload_checkpointed(interval, 0);
                assert_only_adds(&plain, &cw, &units);
            }
        }
    }

    #[test]
    fn images_validate_and_commit_in_order() {
        let p = CheckpointPlan::new(6, 7, 2, 4, 8);
        let mut store = CheckpointStore::new();
        for k in 1..=p.epochs {
            for n in 0..p.nodes {
                let bytes = p.image(n, k).encode();
                assert_eq!(bytes.len() as u64, p.record_bytes);
                store
                    .try_commit(&p.slot_names()[n as usize], &bytes)
                    .unwrap();
            }
        }
        assert_eq!(store.consistent_epoch(&p.slot_names()), Some(p.epochs));
    }

    #[test]
    fn commit_ops_sync_data_then_write_then_sync() {
        let p = CheckpointPlan::new(6, 1, 4, 8, 52);
        let ops = p.commit_ops(2, 3, &[7, 8]);
        let verbs: Vec<_> = ops
            .iter()
            .map(|op| match op {
                ScriptOp::Io(r) => (r.verb, r.file),
                _ => panic!("non-io op in commit"),
            })
            .collect();
        assert_eq!(
            verbs,
            vec![
                (IoVerb::Sync, 7),
                (IoVerb::Sync, 8),
                (IoVerb::Seek, 6),
                (IoVerb::Write, 6),
                (IoVerb::Sync, 6),
            ]
        );
    }
}

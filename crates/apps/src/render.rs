//! RENDER — the terrain rendering (virtual flyby) skeleton.
//!
//! Structure (§4.2, §6.1 of the paper): a hybrid control/data parallel code
//! with a single **gateway** node (node 0) managing a pool of renderers.
//!
//! 1. **Initialization** — the gateway reads the ~880 MB terrain data set
//!    (four files) with explicit asynchronous prefetch: requests of 3 MB,
//!    later 1.5 MB, a window of outstanding `iread`s, and `iowait` for the
//!    un-overlapped remainder. The data is broadcast to the renderer pool
//!    (the developers rejected M_RECORD because "not all nodes need to
//!    participate", §6.2). Achieved throughput ≈ 9.5 MB/s — limited by the
//!    gateway's copy path, not the arrays.
//! 2. **Rendering** — per frame: the gateway reads a ~70-byte view record
//!    from a control file, broadcasts it, the renderers compute, partial
//!    images return to the gateway, which writes one ~1 MB frame (plus two
//!    tiny header/footer records) to a fresh output file — the staircase of
//!    Figure 8. (In production these writes go to a HiPPi frame buffer; on
//!    our simulated machine, as in the paper's measured runs, they go to
//!    the file system.)
//!
//! `RenderParams::paper()` reproduces Tables 3–4.

use crate::checkpoint::{CheckpointPlan, CheckpointedWorkload};
use crate::workload::{op_compute, op_open, Workload};
use paragon_sim::program::{IoRequest, ScriptOp};
use serde::{Deserialize, Serialize};
use sio_pfs::{AccessMode, FileSpec};

/// RENDER workload parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RenderParams {
    /// Total nodes: gateway (node 0) + renderers, so at least 2.
    pub nodes: u32,
    /// Terrain data files.
    pub data_files: u32,
    /// Large async reads of `big_bytes`, spread over the data files.
    pub reads_big: u32,
    /// Size of the early large reads (3 MB in the paper).
    pub big_bytes: u64,
    /// Async reads of `half_bytes` after the large ones.
    pub reads_half: u32,
    /// Size of the later reads (1.5 MB).
    pub half_bytes: u64,
    /// Outstanding-async window depth during initialization.
    pub prefetch_depth: u32,
    /// Frames rendered.
    pub frames: u32,
    /// Frame size (640 × 512 × 24-bit = 983,040 bytes).
    pub frame_bytes: u64,
    /// Extra small writes per frame (header + footer).
    pub frame_small_writes: u32,
    /// Size of the small frame writes.
    pub frame_small_bytes: u64,
    /// View-coordinate record size.
    pub view_bytes: u64,
    /// View records read during initialization (camera path preload).
    pub init_view_reads: u32,
    /// Renderer compute seconds per frame.
    pub render_compute: f64,
    /// Gateway decode/distribution compute per completed prefetch read,
    /// seconds. Zero in the paper preset: the gateway's copy path and its
    /// CPU are the same resource, so modeling decode as separate compute
    /// would let copies drain for free and destroy the measured iowait
    /// share. Nonzero values support what-if studies.
    pub decode_compute: f64,
}

impl RenderParams {
    /// The paper's abbreviated production run: Mars Viking data, 100 frames,
    /// ~470 s — Tables 3–4.
    pub fn paper() -> RenderParams {
        RenderParams {
            nodes: 128,
            data_files: 4,
            reads_big: 151,
            big_bytes: 3_000_000,
            reads_half: 285,
            half_bytes: 1_500_000,
            prefetch_depth: 8,
            frames: 100,
            frame_bytes: 983_040,
            frame_small_writes: 2,
            frame_small_bytes: 7,
            view_bytes: 70,
            init_view_reads: 21,
            render_compute: 2.2,
            decode_compute: 0.0,
        }
    }

    /// Scaled-down variant for tests.
    pub fn small(nodes: u32, frames: u32) -> RenderParams {
        RenderParams {
            nodes,
            frames,
            data_files: 2,
            reads_big: 4,
            big_bytes: 1_500_000,
            reads_half: 4,
            half_bytes: 750_000,
            prefetch_depth: 2,
            init_view_reads: 2,
            render_compute: 0.02,
            decode_compute: 0.002,
            ..RenderParams::paper()
        }
    }

    /// File id of data file `k` (0-based).
    pub fn data_file(&self, k: u32) -> u32 {
        k
    }

    /// File id of the view-coordinate control file.
    pub fn control_file(&self) -> u32 {
        self.data_files
    }

    /// File id of the output file for frame `i`.
    pub fn frame_file(&self, i: u32) -> u32 {
        self.data_files + 1 + i
    }

    /// Per-data-file async read counts `(big, half)` for file `k`: the
    /// totals are distributed round-robin so that they sum exactly.
    pub fn file_reads(&self, k: u32) -> (u32, u32) {
        let d = self.data_files;
        let big = self.reads_big / d + u32::from(k < self.reads_big % d);
        let half = self.reads_half / d + u32::from(k < self.reads_half % d);
        (big, half)
    }

    /// Total data-set volume (Table 3 AsynchRead volume).
    pub fn data_volume(&self) -> u64 {
        self.reads_big as u64 * self.big_bytes + self.reads_half as u64 * self.half_bytes
    }

    /// Build the runnable workload.
    pub fn workload(&self) -> Workload {
        self.build("render", None)
    }

    /// File id of the gateway's checkpoint file (first id past the frame
    /// files).
    pub fn checkpoint_file(&self) -> u32 {
        self.data_files + 1 + self.frames
    }

    /// Build the checkpointed workload: the gateway alone commits an epoch
    /// boundary every `interval` frames — frames are already durable when
    /// their file closes (one file per frame), so the commit is a sync of
    /// the last frame file followed by the checkpoint record write + sync.
    /// With `resume_epoch > 0` initialization is redone (the terrain
    /// data set must be re-read and re-broadcast — the dominant restart
    /// cost) and the frame loop starts past the recovered frames.
    pub fn workload_checkpointed(&self, interval: u32, resume_epoch: u32) -> CheckpointedWorkload {
        let mut plan = CheckpointPlan::new(self.checkpoint_file(), 2, 1, interval, self.frames)
            .resumed(resume_epoch);
        plan.covered = (0..self.frames).map(|i| self.frame_file(i)).collect();
        CheckpointedWorkload {
            workload: self.build(&plan.label("render"), Some(&plan)),
            plan,
        }
    }

    /// The one script builder. `ckpt` adds the gateway's commits to the
    /// frame loop and, on a resumed plan, starts every node's loop past the
    /// recovered frames; everything else is the same program.
    fn build(&self, label: &str, ckpt: Option<&CheckpointPlan>) -> Workload {
        assert!(
            self.nodes >= 2,
            "RENDER needs at least 2 nodes (one gateway and at least one renderer), got {}",
            self.nodes
        );
        let skip = ckpt.map_or(0, |plan| plan.units_at(plan.start_epoch, self.frames));
        let mut specs: Vec<FileSpec> = Vec::new();
        for k in 0..self.data_files {
            let (big, half) = self.file_reads(k);
            let len = big as u64 * self.big_bytes + half as u64 * self.half_bytes;
            specs.push(FileSpec::input(&format!("terrain-{k}"), len));
        }
        specs.push(FileSpec::input(
            "views",
            (self.init_view_reads + self.frames) as u64 * self.view_bytes,
        ));
        for i in 0..self.frames {
            specs.push(FileSpec::output(&format!("frame-{i:04}")));
        }
        if let Some(plan) = ckpt {
            specs.push(plan.file_spec("render-ckpt"));
        }

        let mut scripts: Vec<Vec<ScriptOp>> = Vec::with_capacity(self.nodes as usize);
        let renderers = self.nodes - 1;
        let partial_bytes = self.frame_bytes / renderers as u64;

        for node in 0..self.nodes {
            let mut ops: Vec<ScriptOp> = Vec::new();
            if node == 0 {
                // ---- Gateway: initialization (a restarted gateway re-reads
                // and re-broadcasts the terrain data) ----
                let ctl = self.control_file();
                ops.push(op_open(ctl, AccessMode::MUnix));
                for _ in 0..self.init_view_reads {
                    ops.push(ScriptOp::Io(IoRequest::read(ctl, self.view_bytes)));
                }
                ops.push(ScriptOp::Io(IoRequest::close(ctl)));
                for k in 0..self.data_files {
                    let f = self.data_file(k);
                    ops.push(op_open(f, AccessMode::MUnix));
                    ops.push(ScriptOp::Io(IoRequest::seek(f, 0)));
                    let (big, half) = self.file_reads(k);
                    let mut issued = 0u32;
                    let total = big + half;
                    let mut outstanding = 0u32;
                    while issued < total {
                        if outstanding == self.prefetch_depth {
                            ops.push(ScriptOp::WaitOldest);
                            ops.push(op_compute(self.decode_compute));
                            outstanding -= 1;
                        }
                        let bytes = if issued < big {
                            self.big_bytes
                        } else {
                            self.half_bytes
                        };
                        ops.push(ScriptOp::IoAsync(IoRequest::read(f, bytes)));
                        issued += 1;
                        outstanding += 1;
                    }
                    for _ in 0..outstanding {
                        ops.push(ScriptOp::WaitOldest);
                        ops.push(op_compute(self.decode_compute));
                    }
                }
                ops.push(ScriptOp::Broadcast {
                    root: 0,
                    bytes: self.data_volume(),
                    group: 0,
                });
                // ---- Gateway: frame loop ----
                ops.push(op_open(ctl, AccessMode::MUnix));
                if skip > 0 {
                    // Skip the view records of recovered frames.
                    ops.push(ScriptOp::Io(IoRequest::seek(
                        ctl,
                        (self.init_view_reads + skip) as u64 * self.view_bytes,
                    )));
                }
                if let Some(plan) = ckpt {
                    ops.push(op_open(plan.file, AccessMode::MUnix));
                }
                for i in skip..self.frames {
                    ops.push(ScriptOp::Io(IoRequest::read(ctl, self.view_bytes)));
                    ops.push(ScriptOp::Broadcast {
                        root: 0,
                        bytes: self.view_bytes,
                        group: 0,
                    });
                    for sender in 1..self.nodes {
                        ops.push(ScriptOp::Recv {
                            from: sender,
                            tag: 1000 + i,
                        });
                    }
                    let out = self.frame_file(i);
                    ops.push(op_open(out, AccessMode::MUnix));
                    // Header record(s), the 1 MB image, then the remaining
                    // small record(s) — header/footer framing.
                    let head = self.frame_small_writes / 2 + self.frame_small_writes % 2;
                    for _ in 0..head {
                        ops.push(ScriptOp::Io(IoRequest::write(out, self.frame_small_bytes)));
                    }
                    ops.push(ScriptOp::Io(IoRequest::write(out, self.frame_bytes)));
                    for _ in head..self.frame_small_writes {
                        ops.push(ScriptOp::Io(IoRequest::write(out, self.frame_small_bytes)));
                    }
                    let epoch = ckpt.and_then(|plan| plan.boundary(i + 1, self.frames));
                    if epoch.is_some() {
                        // The frame's data must be durable before it closes
                        // and the boundary record commits.
                        ops.push(ScriptOp::Io(IoRequest::sync(out)));
                    }
                    ops.push(ScriptOp::Io(IoRequest::close(out)));
                    if let (Some(plan), Some(epoch)) = (ckpt, epoch) {
                        ops.extend(plan.commit_ops(0, epoch, &[]));
                    }
                }
                if let Some(plan) = ckpt {
                    ops.push(ScriptOp::Io(IoRequest::close(plan.file)));
                }
            } else {
                // ---- Renderer ----
                ops.push(ScriptOp::Broadcast {
                    root: 0,
                    bytes: self.data_volume(),
                    group: 0,
                });
                for i in skip..self.frames {
                    ops.push(ScriptOp::Broadcast {
                        root: 0,
                        bytes: self.view_bytes,
                        group: 0,
                    });
                    ops.push(op_compute(self.render_compute));
                    ops.push(ScriptOp::Send {
                        to: 0,
                        bytes: partial_bytes,
                        tag: 1000 + i,
                    });
                }
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

    /// Expected counts `(reads, async_reads, writes, seeks, opens, closes)`
    /// — the Table 3 count column.
    pub fn expected_counts(&self) -> (u64, u64, u64, u64, u64, u64) {
        let reads = (self.init_view_reads + self.frames) as u64;
        let async_reads = (self.reads_big + self.reads_half) as u64;
        let writes = self.frames as u64 * (1 + self.frame_small_writes as u64);
        let seeks = self.data_files as u64;
        let opens = self.data_files as u64 + 2 + self.frames as u64;
        let closes = 1 + self.frames as u64;
        (reads, async_reads, writes, seeks, opens, closes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{run_workload, Backend};
    use paragon_sim::MachineConfig;
    use sio_core::event::IoOp;

    #[test]
    fn paper_counts_match_table3() {
        let p = RenderParams::paper();
        let (reads, async_reads, writes, seeks, opens, closes) = p.expected_counts();
        assert_eq!(reads, 121);
        assert_eq!(async_reads, 436);
        assert_eq!(writes, 300);
        assert_eq!(seeks, 4);
        assert_eq!(opens, 106);
        assert_eq!(closes, 101);
    }

    #[test]
    fn paper_volumes_match_table3() {
        let p = RenderParams::paper();
        // AsynchRead volume: paper 880,849,125 B; ours within 0.1 %.
        let av = p.data_volume() as f64;
        assert!((av - 880_849_125.0).abs() / 880_849_125.0 < 0.001, "{av}");
        // Write volume: paper 98,305,400 B exactly.
        let wv = p.frames as u64 * (p.frame_bytes + 2 * p.frame_small_bytes);
        assert_eq!(wv, 98_305_400);
        // Read volume: paper 8,457 B; ours 121 × 70 = 8,470.
        let rv = 121u64 * p.view_bytes;
        assert!((rv as f64 - 8_457.0).abs() < 50.0);
    }

    #[test]
    fn file_read_distribution_sums() {
        let p = RenderParams::paper();
        let (big, half): (u32, u32) = (0..p.data_files)
            .map(|k| p.file_reads(k))
            .fold((0, 0), |(a, b), (x, y)| (a + x, b + y));
        assert_eq!(big, p.reads_big);
        assert_eq!(half, p.reads_half);
    }

    #[test]
    fn small_run_counts_and_phases() {
        let p = RenderParams::small(4, 3);
        let out = run_workload(&MachineConfig::tiny(4, 2), &p.workload(), &Backend::Pfs);
        let (reads, async_reads, writes, seeks, opens, closes) = p.expected_counts();
        assert_eq!(out.trace.of_op(IoOp::Read).count() as u64, reads);
        assert_eq!(out.trace.of_op(IoOp::AsyncRead).count() as u64, async_reads);
        assert_eq!(out.trace.of_op(IoOp::Write).count() as u64, writes);
        assert_eq!(out.trace.of_op(IoOp::Seek).count() as u64, seeks);
        assert_eq!(out.trace.of_op(IoOp::Open).count() as u64, opens);
        assert_eq!(out.trace.of_op(IoOp::Close).count() as u64, closes);
        // Every async read has a matching iowait.
        assert_eq!(
            out.trace.of_op(IoOp::IoWait).count(),
            out.trace.of_op(IoOp::AsyncRead).count()
        );
    }

    #[test]
    fn frame_writes_are_one_per_file() {
        let p = RenderParams::small(4, 3);
        let out = run_workload(&MachineConfig::tiny(4, 2), &p.workload(), &Backend::Pfs);
        for i in 0..3 {
            let f = p.frame_file(i);
            let big_writes = out
                .trace
                .of_op(IoOp::Write)
                .filter(|e| e.file == f && e.bytes == p.frame_bytes)
                .count();
            assert_eq!(big_writes, 1, "frame {i}");
        }
    }

    #[test]
    #[should_panic(expected = "one gateway and at least one renderer")]
    fn single_node_run_is_rejected() {
        let _ = RenderParams::small(1, 2).workload();
    }

    #[test]
    #[should_panic(expected = "one gateway and at least one renderer")]
    fn single_node_checkpointed_run_is_rejected() {
        let _ = RenderParams::small(1, 2).workload_checkpointed(1, 0);
    }

    #[test]
    fn init_phase_precedes_render_phase() {
        let p = RenderParams::small(4, 3);
        let out = run_workload(&MachineConfig::tiny(4, 2), &p.workload(), &Backend::Pfs);
        let last_async = out
            .trace
            .of_op(IoOp::AsyncRead)
            .map(|e| e.start)
            .max()
            .unwrap();
        let first_write = out.trace.of_op(IoOp::Write).map(|e| e.start).min().unwrap();
        assert!(last_async < first_write, "phases interleaved");
    }
}

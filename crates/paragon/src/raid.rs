//! RAID-3 disk array model.
//!
//! Each Paragon I/O node at the CCSF hosted a RAID-3 array of five 1.2 GB
//! disks (§3.2): four data disks plus one parity disk, byte-striped with
//! spindle synchronization. RAID-3's defining property is that *every*
//! transfer engages all data disks in lockstep, so the array behaves like a
//! single disk with 4× the media rate — which is exactly how we model the
//! common case. Parity gives single-disk fault tolerance: with one failed
//! disk the array still serves reads by reconstructing from the survivors
//! (at a reconstruction penalty) and serves writes at full geometry.
//!
//! Fault model: [`Raid3::fail_disk`] degrades the array; a second failure is
//! a typed [`RaidError::DoubleFailure`] (callers decide whether that means
//! data loss — see [`Raid3::mark_data_lost`]). Recovery is *timed*: a
//! [`Raid3::start_rebuild`] call arms a background rebuild of the whole
//! failed member, driven in chunks by the owning I/O node
//! ([`crate::ionode::IoNodeSim`]) so rebuild traffic competes with
//! foreground requests; the array stays degraded until the last chunk
//! completes.

use crate::disk::{Disk, DiskParams};
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// RAID-3 array parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RaidParams {
    /// Data disks (the CCSF arrays had 4).
    pub data_disks: u32,
    /// Multiplier on service time when reconstructing reads in degraded mode
    /// (XOR of survivors; > 1.0).
    pub degraded_read_penalty: f64,
}

impl RaidParams {
    /// Validate the parameter set; every constructor goes through this.
    pub fn validate(&self) -> Result<(), RaidError> {
        if self.data_disks < 1 {
            return Err(RaidError::InvalidParams {
                reason: "need at least one data disk",
            });
        }
        if self.degraded_read_penalty.is_nan() || self.degraded_read_penalty < 1.0 {
            return Err(RaidError::InvalidParams {
                reason: "degraded_read_penalty must be >= 1",
            });
        }
        Ok(())
    }
}

impl Default for RaidParams {
    fn default() -> Self {
        crate::calibration::raid_params()
    }
}

/// Typed RAID fault-handling errors (reportable, not process-fatal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaidError {
    /// Parameter validation failed.
    InvalidParams {
        /// What was wrong.
        reason: &'static str,
    },
    /// Disk index outside `0..=data_disks`.
    DiskIndexOutOfRange {
        /// Offending index.
        index: u32,
        /// Largest valid index (the parity member).
        max: u32,
    },
    /// A member has already failed; RAID-3 cannot survive a second failure.
    DoubleFailure {
        /// The member already down.
        already_failed: u32,
        /// The member that just failed.
        index: u32,
    },
    /// Rebuild requested on a healthy array.
    NotDegraded,
}

impl fmt::Display for RaidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaidError::InvalidParams { reason } => write!(f, "invalid RAID parameters: {reason}"),
            RaidError::DiskIndexOutOfRange { index, max } => {
                write!(f, "disk index {index} out of range (0..={max})")
            }
            RaidError::DoubleFailure {
                already_failed,
                index,
            } => write!(
                f,
                "second disk failure (member {index}; member {already_failed} already down) — \
                 RAID-3 cannot survive it"
            ),
            RaidError::NotDegraded => write!(f, "rebuild requested on a healthy array"),
        }
    }
}

impl std::error::Error for RaidError {}

/// A RAID-3 array: one logical spindle-synchronized disk of
/// `data_disks × capacity` with `data_disks × transfer_rate`.
#[derive(Debug, Clone)]
pub struct Raid3 {
    raid: RaidParams,
    /// Member-disk media rate (bytes/s), the rebuild bottleneck: the
    /// replacement member can be written no faster than one spindle.
    member_rate: f64,
    /// Member-disk capacity: the amount of data a full rebuild re-writes.
    member_capacity: u64,
    /// The synchronized spindle set, modeled as one disk with scaled rate.
    logical: Disk,
    /// Index of the failed disk, if any (0-based over data+parity).
    failed: Option<u32>,
    /// Bytes of the failed member not yet rebuilt (0 = no rebuild armed).
    rebuild_remaining: u64,
    /// A second member failed while degraded: reads are unrecoverable.
    data_lost: bool,
}

impl Raid3 {
    /// Build an array from member-disk parameters.
    ///
    /// # Panics
    /// On invalid `raid` parameters; use [`Raid3::try_new`] for a typed
    /// error.
    pub fn new(disk: DiskParams, raid: RaidParams, seed: u64) -> Raid3 {
        Raid3::try_new(disk, raid, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build an array, validating `raid` parameters.
    pub fn try_new(disk: DiskParams, raid: RaidParams, seed: u64) -> Result<Raid3, RaidError> {
        raid.validate()?;
        let logical = DiskParams {
            capacity: disk.capacity * raid.data_disks as u64,
            // Byte striping spreads every cylinder across the set, so the
            // logical cylinder holds data_disks × the member cylinder.
            cylinder_bytes: disk.cylinder_bytes * raid.data_disks as u64,
            transfer_rate: disk.transfer_rate * raid.data_disks as f64,
            ..disk
        };
        Ok(Raid3 {
            raid,
            member_rate: disk.transfer_rate,
            member_capacity: disk.capacity,
            logical: Disk::new(logical, seed),
            failed: None,
            rebuild_remaining: 0,
            data_lost: false,
        })
    }

    /// Usable capacity (parity excluded).
    pub fn capacity(&self) -> u64 {
        self.logical.params().capacity
    }

    /// Fail one member disk (data or parity). RAID-3 tolerates exactly one;
    /// an out-of-range index or a second failure is a typed error and leaves
    /// the array state unchanged.
    pub fn fail_disk(&mut self, index: u32) -> Result<(), RaidError> {
        if index > self.raid.data_disks {
            return Err(RaidError::DiskIndexOutOfRange {
                index,
                max: self.raid.data_disks,
            });
        }
        if let Some(already_failed) = self.failed {
            return Err(RaidError::DoubleFailure {
                already_failed,
                index,
            });
        }
        self.failed = Some(index);
        self.rebuild_remaining = 0;
        Ok(())
    }

    /// Record that redundancy is exhausted (a second member failed): reads
    /// can no longer be reconstructed. The caller decides when a
    /// [`RaidError::DoubleFailure`] means this.
    pub fn mark_data_lost(&mut self) {
        self.data_lost = true;
    }

    /// Whether a second failure has made reads unrecoverable.
    pub fn data_lost(&self) -> bool {
        self.data_lost
    }

    /// Whether the array is running degraded.
    pub fn degraded(&self) -> bool {
        self.failed.is_some()
    }

    /// Arm a timed rebuild of the failed member: the whole member capacity
    /// must be re-written (from survivor XOR) before the array leaves
    /// degraded mode. The owning I/O node drives the traffic via
    /// [`Raid3::rebuild_take_chunk`] / [`Raid3::rebuild_chunk_done`].
    pub fn start_rebuild(&mut self) -> Result<(), RaidError> {
        if self.failed.is_none() {
            return Err(RaidError::NotDegraded);
        }
        self.rebuild_remaining = self.member_capacity;
        Ok(())
    }

    /// Bytes of the failed member still to rebuild (0 = none armed/left).
    pub fn rebuild_remaining(&self) -> u64 {
        self.rebuild_remaining
    }

    /// Claim the next rebuild chunk of at most `max_bytes`, returning the
    /// chunk size and its service time: survivors are read and the
    /// replacement written in lockstep, so a member chunk moves at the
    /// single-spindle media rate. Returns `None` when no rebuild is pending.
    pub fn rebuild_take_chunk(&mut self, max_bytes: u64) -> Option<(u64, SimDuration)> {
        let bytes = self.rebuild_remaining.min(max_bytes);
        if bytes == 0 {
            return None;
        }
        self.rebuild_remaining -= bytes;
        Some((bytes, crate::time::transfer_time(bytes, self.member_rate)))
    }

    /// The chunk claimed by [`Raid3::rebuild_take_chunk`] finished. When the
    /// whole member has been re-written the array leaves degraded mode.
    pub fn rebuild_chunk_done(&mut self) {
        if self.rebuild_remaining == 0 && self.failed.is_some() {
            self.failed = None;
        }
    }

    /// Abort an in-flight chunk (node crash mid-rebuild): the bytes go back
    /// to the remaining pool so recovery re-services them.
    pub fn rebuild_abort_chunk(&mut self, bytes: u64) {
        if self.failed.is_some() {
            self.rebuild_remaining += bytes;
        }
    }

    /// Service a read at the array level.
    pub fn read(&mut self, offset: u64, bytes: u64) -> SimDuration {
        let base = self.logical.service(offset, bytes);
        match self.failed {
            // Parity-disk failure does not slow reads.
            Some(i) if i < self.raid.data_disks => base.mul_f64(self.raid.degraded_read_penalty),
            _ => base,
        }
    }

    /// Service a write at the array level. RAID-3 computes parity on the fly
    /// across the synchronized stripe, so writes run at full speed — even
    /// degraded (the lost disk's data is implied by parity).
    pub fn write(&mut self, offset: u64, bytes: u64) -> SimDuration {
        self.logical.service(offset, bytes)
    }

    /// Sequential-continuation write (no seek/rotation), for aggregated runs.
    pub fn write_sequential(&mut self, offset: u64, bytes: u64) -> SimDuration {
        self.logical.service_sequential(offset, bytes)
    }

    /// XOR-reconstruct a lost member's block from the survivors — the data
    /// path RAID-3 uses in degraded mode. Exposed (and property-tested) to
    /// keep the model honest about *why* degraded reads still return data.
    pub fn reconstruct(survivors: &[&[u8]]) -> Vec<u8> {
        let len = survivors.iter().map(|s| s.len()).max().unwrap_or(0);
        let mut out = vec![0u8; len];
        for s in survivors {
            for (o, b) in out.iter_mut().zip(s.iter()) {
                *o ^= *b;
            }
        }
        out
    }

    /// Parity block over a stripe of member blocks.
    pub fn parity(blocks: &[&[u8]]) -> Vec<u8> {
        Raid3::reconstruct(blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> Raid3 {
        Raid3::new(DiskParams::default(), RaidParams::default(), 7)
    }

    #[test]
    fn capacity_and_rate_scale_with_data_disks() {
        let d = DiskParams::default();
        let a = array();
        assert_eq!(
            a.capacity(),
            d.capacity * RaidParams::default().data_disks as u64
        );
    }

    #[test]
    fn invalid_params_are_typed_errors() {
        let bad_disks = RaidParams {
            data_disks: 0,
            degraded_read_penalty: 1.3,
        };
        assert!(matches!(
            Raid3::try_new(DiskParams::default(), bad_disks, 1),
            Err(RaidError::InvalidParams { .. })
        ));
        let bad_penalty = RaidParams {
            data_disks: 4,
            degraded_read_penalty: 0.5,
        };
        assert!(matches!(
            Raid3::try_new(DiskParams::default(), bad_penalty, 1),
            Err(RaidError::InvalidParams { .. })
        ));
        let nan_penalty = RaidParams {
            data_disks: 4,
            degraded_read_penalty: f64::NAN,
        };
        assert!(nan_penalty.validate().is_err());
    }

    #[test]
    fn degraded_reads_slower_healthy_writes_unchanged() {
        let mut healthy = array();
        let mut degraded = array();
        degraded.fail_disk(0).unwrap();
        assert!(degraded.degraded());
        let mut hr = 0u64;
        let mut dr = 0u64;
        let mut hw = 0u64;
        let mut dw = 0u64;
        for i in 0..40u64 {
            let off = ((i * 131) % 4000) << 20;
            hr += healthy.read(off, 65536).nanos();
            dr += degraded.read(off, 65536).nanos();
            hw += healthy.write(off, 65536).nanos();
            dw += degraded.write(off, 65536).nanos();
        }
        assert!(dr > hr, "degraded reads must cost more");
        assert_eq!(dw, hw, "RAID-3 writes are unaffected by a failed member");
    }

    #[test]
    fn parity_disk_failure_does_not_slow_reads() {
        let mut a = array();
        let mut b = array();
        b.fail_disk(RaidParams::default().data_disks).unwrap(); // parity member
        for i in 0..20u64 {
            let off = ((i * 977) % 1000) << 20;
            assert_eq!(a.read(off, 4096), b.read(off, 4096));
        }
    }

    #[test]
    fn second_failure_is_a_typed_error_not_a_panic() {
        let mut a = array();
        a.fail_disk(0).unwrap();
        assert_eq!(
            a.fail_disk(1),
            Err(RaidError::DoubleFailure {
                already_failed: 0,
                index: 1
            })
        );
        // State unchanged: still singly degraded, no data loss until the
        // caller says so.
        assert!(a.degraded());
        assert!(!a.data_lost());
        a.mark_data_lost();
        assert!(a.data_lost());
    }

    #[test]
    fn out_of_range_index_is_rejected() {
        let mut a = array();
        let max = RaidParams::default().data_disks;
        assert_eq!(
            a.fail_disk(max + 1),
            Err(RaidError::DiskIndexOutOfRange {
                index: max + 1,
                max
            })
        );
        assert!(!a.degraded());
    }

    #[test]
    fn rebuild_is_timed_and_restores_full_speed() {
        let mut a = array();
        a.fail_disk(1).unwrap();
        assert_eq!(a.start_rebuild(), Ok(()));
        let member = DiskParams::default().capacity;
        assert_eq!(a.rebuild_remaining(), member);

        // Drain the rebuild in 64 MB chunks: the array must stay degraded
        // until the *last* chunk completes, and total rebuild time must be
        // the member capacity at single-spindle rate.
        let chunk = 64 << 20;
        let mut total = SimDuration::ZERO;
        while let Some((bytes, dt)) = a.rebuild_take_chunk(chunk) {
            assert!(bytes <= chunk);
            total += dt;
            a.rebuild_chunk_done();
            if a.rebuild_remaining() > 0 {
                assert!(a.degraded(), "degraded until rebuild finishes");
            }
        }
        assert!(!a.degraded(), "rebuild completion clears the failure");
        let expect = member as f64 / DiskParams::default().transfer_rate;
        let got = total.as_secs_f64();
        assert!(
            (got - expect).abs() / expect < 1e-6,
            "rebuild time {got}s != member capacity at spindle rate {expect}s"
        );
    }

    #[test]
    fn rebuild_on_healthy_array_is_an_error() {
        let mut a = array();
        assert_eq!(a.start_rebuild(), Err(RaidError::NotDegraded));
    }

    #[test]
    fn aborted_chunk_returns_to_pool() {
        let mut a = array();
        a.fail_disk(0).unwrap();
        a.start_rebuild().unwrap();
        let before = a.rebuild_remaining();
        let (bytes, _) = a.rebuild_take_chunk(1 << 20).unwrap();
        a.rebuild_abort_chunk(bytes);
        assert_eq!(a.rebuild_remaining(), before);
    }

    #[test]
    fn xor_reconstruction_recovers_lost_block() {
        let d0 = [1u8, 2, 3, 4];
        let d1 = [9u8, 9, 9, 9];
        let d2 = [0u8, 255, 0, 255];
        let d3 = [7u8, 0, 7, 0];
        let p = Raid3::parity(&[&d0, &d1, &d2, &d3]);
        // Lose d2; reconstruct from the rest + parity.
        let rebuilt = Raid3::reconstruct(&[&d0, &d1, &d3, &p]);
        assert_eq!(rebuilt, d2.to_vec());
    }

    #[test]
    fn parity_of_empty_is_empty() {
        assert!(Raid3::parity(&[]).is_empty());
    }
}

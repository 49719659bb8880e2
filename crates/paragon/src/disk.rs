//! Mechanical disk model.
//!
//! Commodity disks of the Paragon era (the CCSF system used 1.2 GB drives)
//! are modeled with the classic three-component service time: seek (affine in
//! cylinder distance), rotational latency (half a revolution on average; we
//! use a deterministic seeded draw to avoid systematic bias), and media
//! transfer (bytes / sustained rate). The paper's §1 observation — "the
//! commodity disk market favors low cost, low power consumption and high
//! capacity over high data rates" — is why these constants are small.

use crate::time::{transfer_time, SimDuration};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Disk mechanism parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DiskParams {
    /// Usable capacity, bytes.
    pub capacity: u64,
    /// Bytes per cylinder (defines the seek-distance metric).
    pub cylinder_bytes: u64,
    /// Fixed seek overhead once the arm moves at all, ns.
    pub seek_base: SimDuration,
    /// Additional seek time per cylinder traveled, ns.
    pub seek_per_cyl: SimDuration,
    /// Full-revolution time, ns (rotational latency averages half of this).
    pub revolution: SimDuration,
    /// Sustained media transfer rate, bytes/second.
    pub transfer_rate: f64,
}

impl Default for DiskParams {
    fn default() -> Self {
        crate::calibration::disk_params()
    }
}

/// One disk with a head position and a deterministic rotational-latency
/// stream.
#[derive(Debug, Clone)]
pub struct Disk {
    params: DiskParams,
    head_cylinder: u64,
    rng: StdRng,
}

impl Disk {
    /// New disk with the head parked at cylinder 0. `seed` fixes the
    /// rotational-latency stream (same seed ⇒ same service times).
    pub fn new(params: DiskParams, seed: u64) -> Disk {
        Disk {
            params,
            head_cylinder: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Parameters in use.
    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// Cylinder containing a byte offset.
    pub fn cylinder_of(&self, offset: u64) -> u64 {
        offset / self.params.cylinder_bytes.max(1)
    }

    /// Current head cylinder.
    pub fn head_cylinder(&self) -> u64 {
        self.head_cylinder
    }

    /// Service one request at `offset` for `bytes`; moves the head. Returns
    /// total service time (seek + rotation + transfer).
    pub fn service(&mut self, offset: u64, bytes: u64) -> SimDuration {
        let target = self.cylinder_of(offset);
        let distance = target.abs_diff(self.head_cylinder);
        let seek = if distance == 0 {
            SimDuration::ZERO
        } else {
            self.params.seek_base + self.params.seek_per_cyl.times(distance)
        };
        // Deterministic uniform rotational delay in [0, revolution).
        let rot = SimDuration(
            self.rng
                .random_range(0..self.params.revolution.nanos().max(1)),
        );
        let xfer = transfer_time(bytes, self.params.transfer_rate);
        self.head_cylinder = self.cylinder_of(offset + bytes.saturating_sub(1));
        seek + rot + xfer
    }

    /// Service time for a request that continues exactly where the head
    /// stands (no seek, no rotational loss) — used for aggregated sequential
    /// runs.
    pub fn service_sequential(&mut self, offset: u64, bytes: u64) -> SimDuration {
        self.head_cylinder = self.cylinder_of(offset + bytes.saturating_sub(1));
        transfer_time(bytes, self.params.transfer_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_params() -> DiskParams {
        DiskParams {
            capacity: 1_200_000_000,
            cylinder_bytes: 1 << 20,
            seek_base: SimDuration::from_millis(4),
            seek_per_cyl: SimDuration::from_micros(10),
            revolution: SimDuration::from_millis(11), // ~5400 rpm
            transfer_rate: 2.0e6,
        }
    }

    #[test]
    fn zero_distance_skips_seek() {
        let mut d = Disk::new(test_params(), 1);
        // First access at cylinder 0: no seek component.
        let t = d.service(0, 4096);
        let max_no_seek = test_params().revolution + transfer_time(4096, 2.0e6);
        assert!(t <= max_no_seek, "{t:?} > {max_no_seek:?}");
    }

    #[test]
    fn longer_seeks_cost_more() {
        // Compare average over the rotational stream by fixing the seed.
        let far: u64 = 500 << 20;
        let near: u64 = 2 << 20;
        let mut total_far = 0u64;
        let mut total_near = 0u64;
        for seed in 0..20 {
            let mut d1 = Disk::new(test_params(), seed);
            total_far += d1.service(far, 4096).nanos();
            let mut d2 = Disk::new(test_params(), seed);
            total_near += d2.service(near, 4096).nanos();
        }
        assert!(total_far > total_near);
    }

    #[test]
    fn head_moves_to_request_end() {
        let mut d = Disk::new(test_params(), 1);
        d.service(10 << 20, 2 << 20);
        assert_eq!(d.head_cylinder(), d.cylinder_of((12 << 20) - 1));
    }

    #[test]
    fn sequential_service_is_pure_transfer() {
        let mut d = Disk::new(test_params(), 1);
        let t = d.service_sequential(0, 2_000_000);
        assert_eq!(t, transfer_time(2_000_000, 2.0e6));
    }

    #[test]
    fn deterministic_with_same_seed() {
        let mut a = Disk::new(test_params(), 42);
        let mut b = Disk::new(test_params(), 42);
        for i in 0..50u64 {
            let off = ((i * 37) % 1000) << 20;
            assert_eq!(a.service(off, 8192), b.service(off, 8192));
        }
    }

    #[test]
    fn transfer_dominates_large_requests() {
        let mut d = Disk::new(test_params(), 1);
        let t = d.service(0, 20_000_000); // 10 s of transfer at 2 MB/s
        assert!(t.as_secs_f64() > 9.9);
    }
}

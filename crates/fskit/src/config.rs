//! Machine-derived substrate configuration shared by every backend.

use crate::layout::StripeLayout;
use paragon_sim::calibration::IoSwCosts;
use paragon_sim::mesh::{CommCosts, Mesh};
use paragon_sim::MachineConfig;

/// Per-I/O-node bytes reserved for each registered file (a fixed-slot
/// allocator: file `f`'s node-local space starts at `f × file_slot`).
pub const DEFAULT_FILE_SLOT: u64 = 32 << 20;

/// Substrate configuration, derived from a [`MachineConfig`]; every backend
/// shares it through its [`crate::FsCore`].
#[derive(Debug, Clone)]
pub struct FsConfig {
    /// Stripe map.
    pub layout: StripeLayout,
    /// Software-path costs.
    pub io_sw: IoSwCosts,
    /// Mesh geometry (M_GLOBAL broadcast costs).
    pub mesh: Mesh,
    /// Interconnect costs.
    pub comm: CommCosts,
    /// Per-I/O-node slot size of the file allocator.
    pub file_slot: u64,
    /// Array capacity per I/O node (slot allocator bound).
    pub array_capacity: u64,
}

impl FsConfig {
    /// Derive from a machine configuration (64 KB PFS striping).
    pub fn from_machine(m: &MachineConfig) -> FsConfig {
        FsConfig {
            layout: StripeLayout::pfs(m.io_nodes),
            io_sw: m.io_sw,
            mesh: m.mesh(),
            comm: m.comm,
            file_slot: DEFAULT_FILE_SLOT,
            array_capacity: m.disk.capacity * m.raid.data_disks as u64,
        }
    }
}

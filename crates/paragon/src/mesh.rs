//! 2-D mesh interconnect model.
//!
//! The Paragon XP/S connects nodes in a 2-D mesh with wormhole routing. For
//! characterization purposes the salient costs are per-message software
//! overhead, per-hop latency, and link bandwidth; contention inside the mesh
//! is second-order next to I/O-node queueing and is not modeled (documented
//! substitution — see DESIGN.md).
//!
//! Compute nodes occupy the mesh row-major; I/O nodes sit in an extra column
//! on the right edge, matching the Paragon practice of dedicating edge
//! partitions to I/O.

use crate::time::{transfer_time, SimDuration};
use crate::NodeId;
use serde::{Deserialize, Serialize};

/// Interconnect cost parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CommCosts {
    /// Per-message software (setup) overhead, ns.
    pub sw_overhead: SimDuration,
    /// Per-hop wire/router latency, ns.
    pub hop_latency: SimDuration,
    /// Link bandwidth, bytes/second.
    pub bandwidth: f64,
    /// Fixed cost of a barrier stage (one level of the reduction tree).
    pub barrier_stage: SimDuration,
}

impl Default for CommCosts {
    fn default() -> Self {
        crate::calibration::comm_costs()
    }
}

/// Health of one link region: multipliers applied on top of the healthy
/// [`CommCosts`]. A region covers the edge links serving one I/O node —
/// the granularity at which the chaos layer's `LinkDegrade`/`LinkHeal`
/// fault events strike.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkQuality {
    /// Bandwidth divisor, ≥ 1 (1 = healthy).
    pub bw_div: f64,
    /// Hop-latency multiplier, ≥ 1 (1 = healthy).
    pub lat_mult: f64,
}

impl LinkQuality {
    /// Healthy links: both multipliers exactly 1.
    pub const HEALTHY: LinkQuality = LinkQuality {
        bw_div: 1.0,
        lat_mult: 1.0,
    };

    /// Whether either multiplier departs from healthy.
    pub fn degraded(&self) -> bool {
        self.bw_div != 1.0 || self.lat_mult != 1.0
    }

    /// Compose two degradations: the worse multiplier wins on each axis.
    pub fn worse(self, other: LinkQuality) -> LinkQuality {
        LinkQuality {
            bw_div: self.bw_div.max(other.bw_div),
            lat_mult: self.lat_mult.max(other.lat_mult),
        }
    }
}

/// Per-region link health for a whole machine: one [`LinkQuality`] per I/O
/// node's edge-link region, mutated by `LinkDegrade`/`LinkHeal` fault
/// events as a run progresses.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkState {
    regions: Vec<LinkQuality>,
}

impl LinkState {
    /// All regions healthy.
    pub fn healthy(regions: usize) -> LinkState {
        LinkState {
            regions: vec![LinkQuality::HEALTHY; regions],
        }
    }

    /// Degrade `region`, composing with any degradation already in force
    /// (the worse multiplier wins on each axis).
    pub fn degrade(&mut self, region: u32, q: LinkQuality) {
        let slot = &mut self.regions[region as usize];
        *slot = slot.worse(q);
    }

    /// Restore `region` to healthy.
    pub fn heal(&mut self, region: u32) {
        self.regions[region as usize] = LinkQuality::HEALTHY;
    }

    /// The quality of one region.
    pub fn region(&self, region: u32) -> LinkQuality {
        self.regions[region as usize]
    }

    /// The worst quality across all regions — what a broadcast touching
    /// every region experiences.
    pub fn worst(&self) -> LinkQuality {
        self.regions
            .iter()
            .fold(LinkQuality::HEALTHY, |acc, &q| acc.worse(q))
    }

    /// Whether any region is degraded.
    pub fn any_degraded(&self) -> bool {
        self.regions.iter().any(|q| q.degraded())
    }
}

/// 2-D mesh geometry with compute nodes in the body and I/O nodes on the
/// right edge column.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Mesh {
    /// Mesh rows.
    pub rows: u32,
    /// Mesh columns occupied by compute nodes.
    pub cols: u32,
    /// Number of compute nodes (≤ rows × cols).
    pub compute_nodes: u32,
    /// Number of I/O nodes (placed on column `cols`, spread over rows).
    pub io_nodes: u32,
}

impl Mesh {
    /// Build a mesh for the given node counts; columns are chosen near the
    /// square root of the node count, as the Paragon's partitions were.
    pub fn for_nodes(compute_nodes: u32, io_nodes: u32) -> Mesh {
        assert!(compute_nodes > 0, "need at least one compute node");
        let cols = (compute_nodes as f64).sqrt().ceil() as u32;
        let rows = compute_nodes.div_ceil(cols).max(io_nodes.max(1));
        Mesh {
            rows,
            cols,
            compute_nodes,
            io_nodes,
        }
    }

    /// (row, col) of a compute node.
    pub fn compute_pos(&self, node: NodeId) -> (u32, u32) {
        assert!(node < self.compute_nodes, "node {node} out of range");
        (node / self.cols, node % self.cols)
    }

    /// (row, col) of an I/O node, spread evenly down the extra edge column.
    pub fn io_pos(&self, io_node: u32) -> (u32, u32) {
        assert!(io_node < self.io_nodes, "i/o node {io_node} out of range");
        let row = if self.io_nodes <= 1 {
            0
        } else {
            io_node * (self.rows - 1) / (self.io_nodes - 1)
        };
        (row, self.cols)
    }

    /// Manhattan hop count between two mesh positions.
    pub fn hops(a: (u32, u32), b: (u32, u32)) -> u32 {
        a.0.abs_diff(b.0) + a.1.abs_diff(b.1)
    }

    /// Hop count between two compute nodes.
    pub fn compute_hops(&self, a: NodeId, b: NodeId) -> u32 {
        Mesh::hops(self.compute_pos(a), self.compute_pos(b))
    }

    /// One-way message time for `bytes` over `hops` hops.
    pub fn msg_time(&self, costs: &CommCosts, hops: u32, bytes: u64) -> SimDuration {
        costs.sw_overhead
            + costs.hop_latency.times(hops as u64)
            + transfer_time(bytes, costs.bandwidth)
    }

    /// Barrier completion cost for a group of `n` nodes: a log₂ reduction
    /// tree of barrier stages.
    pub fn barrier_time(&self, costs: &CommCosts, n: u32) -> SimDuration {
        if n <= 1 {
            return SimDuration::ZERO;
        }
        let stages = 32 - (n - 1).leading_zeros(); // ceil(log2(n))
        costs.barrier_stage.times(stages as u64 * 2) // reduce + release
    }

    /// Broadcast completion cost: log₂(n) stages, each forwarding the
    /// payload one tree level down.
    pub fn broadcast_time(&self, costs: &CommCosts, n: u32, bytes: u64) -> SimDuration {
        if n <= 1 {
            return SimDuration::ZERO;
        }
        let stages = 32 - (n - 1).leading_zeros();
        let per_stage = costs.sw_overhead
            + costs.hop_latency.times(2) // average tree-edge length
            + transfer_time(bytes, costs.bandwidth);
        per_stage.times(stages as u64)
    }

    /// [`Mesh::msg_time`] over links of quality `q`. Healthy quality takes
    /// the exact healthy path, so runs without link faults are bit-identical
    /// to runs that never consult a [`LinkState`].
    pub fn msg_time_via(
        &self,
        costs: &CommCosts,
        q: LinkQuality,
        hops: u32,
        bytes: u64,
    ) -> SimDuration {
        if !q.degraded() {
            return self.msg_time(costs, hops, bytes);
        }
        costs.sw_overhead
            + costs.hop_latency.times(hops as u64).mul_f64(q.lat_mult)
            + transfer_time(bytes, costs.bandwidth / q.bw_div)
    }

    /// [`Mesh::broadcast_time`] over links of quality `q` (same healthy-path
    /// bit-identity guarantee as [`Mesh::msg_time_via`]).
    pub fn broadcast_time_via(
        &self,
        costs: &CommCosts,
        q: LinkQuality,
        n: u32,
        bytes: u64,
    ) -> SimDuration {
        if !q.degraded() {
            return self.broadcast_time(costs, n, bytes);
        }
        if n <= 1 {
            return SimDuration::ZERO;
        }
        let stages = 32 - (n - 1).leading_zeros();
        let per_stage = costs.sw_overhead
            + costs.hop_latency.times(2).mul_f64(q.lat_mult)
            + transfer_time(bytes, costs.bandwidth / q.bw_div);
        per_stage.times(stages as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_row_major() {
        let m = Mesh::for_nodes(128, 16);
        assert_eq!(m.compute_pos(0), (0, 0));
        assert_eq!(m.compute_pos(1), (0, 1));
        assert_eq!(m.compute_pos(m.cols), (1, 0));
        assert!(m.rows * m.cols >= 128);
    }

    #[test]
    fn io_nodes_on_edge_column() {
        let m = Mesh::for_nodes(128, 16);
        for io in 0..16 {
            let (r, c) = m.io_pos(io);
            assert_eq!(c, m.cols);
            assert!(r < m.rows);
        }
        // Spread: first at top, last at bottom.
        assert_eq!(m.io_pos(0).0, 0);
        assert_eq!(m.io_pos(15).0, m.rows - 1);
    }

    #[test]
    fn single_io_node_at_top() {
        let m = Mesh::for_nodes(4, 1);
        assert_eq!(m.io_pos(0), (0, m.cols));
    }

    #[test]
    fn hops_manhattan() {
        assert_eq!(Mesh::hops((0, 0), (3, 4)), 7);
        assert_eq!(Mesh::hops((2, 2), (2, 2)), 0);
        let m = Mesh::for_nodes(16, 2);
        assert_eq!(m.compute_hops(0, 0), 0);
    }

    #[test]
    fn msg_time_monotone_in_bytes_and_hops() {
        let m = Mesh::for_nodes(16, 2);
        let c = CommCosts {
            sw_overhead: SimDuration(1000),
            hop_latency: SimDuration(20),
            bandwidth: 200.0e6,
            barrier_stage: SimDuration(5000),
        };
        let t_small = m.msg_time(&c, 2, 100);
        let t_big = m.msg_time(&c, 2, 1_000_000);
        let t_far = m.msg_time(&c, 10, 100);
        assert!(t_big > t_small);
        assert!(t_far > t_small);
        assert_eq!(m.msg_time(&c, 0, 0), c.sw_overhead);
    }

    #[test]
    fn barrier_and_broadcast_scale_logarithmically() {
        let m = Mesh::for_nodes(128, 16);
        let c = CommCosts::default();
        assert_eq!(m.barrier_time(&c, 1), SimDuration::ZERO);
        let b2 = m.barrier_time(&c, 2);
        let b128 = m.barrier_time(&c, 128);
        assert_eq!(b128.nanos(), b2.nanos() * 7); // log2(128)=7 stages
        assert_eq!(m.broadcast_time(&c, 1, 1 << 20), SimDuration::ZERO);
        let bc2 = m.broadcast_time(&c, 2, 1 << 20);
        let bc128 = m.broadcast_time(&c, 128, 1 << 20);
        assert_eq!(bc128.nanos(), bc2.nanos() * 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_node_panics() {
        let m = Mesh::for_nodes(4, 1);
        let _ = m.compute_pos(4);
    }

    #[test]
    fn healthy_link_quality_is_bit_identical() {
        let m = Mesh::for_nodes(128, 16);
        let c = CommCosts::default();
        for (hops, bytes) in [(1, 0u64), (3, 64), (9, 1 << 20), (17, 123_456)] {
            assert_eq!(
                m.msg_time_via(&c, LinkQuality::HEALTHY, hops, bytes),
                m.msg_time(&c, hops, bytes)
            );
            assert_eq!(
                m.broadcast_time_via(&c, LinkQuality::HEALTHY, hops, bytes),
                m.broadcast_time(&c, hops, bytes)
            );
        }
    }

    #[test]
    fn degraded_links_cost_more_and_compose_worse() {
        let m = Mesh::for_nodes(128, 16);
        let c = CommCosts::default();
        let q = LinkQuality {
            bw_div: 4.0,
            lat_mult: 2.0,
        };
        assert!(m.msg_time_via(&c, q, 5, 1 << 20) > m.msg_time(&c, 5, 1 << 20));
        assert!(m.broadcast_time_via(&c, q, 64, 4096) > m.broadcast_time(&c, 64, 4096));

        let mut state = LinkState::healthy(4);
        assert!(!state.any_degraded());
        state.degrade(
            2,
            LinkQuality {
                bw_div: 2.0,
                lat_mult: 8.0,
            },
        );
        state.degrade(2, q);
        // Composition takes the worse multiplier per axis.
        assert_eq!(
            state.region(2),
            LinkQuality {
                bw_div: 4.0,
                lat_mult: 8.0
            }
        );
        assert_eq!(state.worst(), state.region(2));
        assert!(state.any_degraded());
        state.heal(2);
        assert!(!state.any_degraded());
        assert_eq!(state.worst(), LinkQuality::HEALTHY);
    }
}

//! Phase-1 arithmetic: the conforming partition of a collective request.
//!
//! Participating nodes contribute byte extents; the partition merges them
//! into their disjoint union and decomposes that union along the stripe
//! grid into *file domains*: per-I/O-node [`Segment`]s, each a maximal run
//! contiguous in the owning node's local array space, so the aggregator
//! can move it in one large sequential transfer. A node owns one domain per
//! local-contiguous run of the union, so a gapped union can give it several.
//!
//! Everything here is closed-form stripe arithmetic over sorted extents
//! into caller-owned buffers: the result depends only on the *set* of input
//! extents, never on the order the extent descriptors arrived in (the
//! property tests pin this down, and check it against a unit-by-unit piece
//! walk).

use sio_fskit::layout::{Segment, StripeLayout};

/// A half-open byte extent `[offset, offset + bytes)` of one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Extent {
    /// First byte.
    pub offset: u64,
    /// Length in bytes.
    pub bytes: u64,
}

impl Extent {
    /// One past the last byte.
    pub fn end(&self) -> u64 {
        self.offset + self.bytes
    }
}

/// Merge `extents` in place into their sorted disjoint union (zero-length
/// inputs vanish; adjacent extents coalesce).
pub fn union(extents: &mut Vec<Extent>) {
    extents.retain(|e| e.bytes > 0);
    extents.sort_unstable();
    extents.dedup_by(|next, last| {
        let merge = next.offset <= last.end();
        if merge {
            last.bytes = last.end().max(next.end()) - last.offset;
        }
        merge
    });
}

/// Decompose a disjoint sorted union (from [`union`]) into file domains in
/// `out`, ascending by `(io_node, local_offset)`: each union extent's
/// per-node segments, sorted once, with local-contiguous neighbours merged.
pub fn domains(layout: &StripeLayout, union: &[Extent], out: &mut Vec<Segment>) {
    out.clear();
    for e in union {
        layout.segments_into(e.offset, e.bytes, out);
    }
    // Disjoint extents map to disjoint local runs: the keys are distinct.
    out.sort_unstable_by_key(|s| (s.io_node, s.local_offset));
    out.dedup_by(|next, last| {
        let merge =
            next.io_node == last.io_node && last.local_offset + last.bytes == next.local_offset;
        if merge {
            last.bytes += next.bytes;
        }
        merge
    });
}

/// [`union`] (in place) + [`domains`] (into `out`): the full conforming
/// partition of a set of member extents.
pub fn partition(layout: &StripeLayout, extents: &mut Vec<Extent>, out: &mut Vec<Segment>) {
    union(extents);
    domains(layout, extents, out);
}

/// Call `each(domain, bytes)` for every domain (from [`domains`]) that
/// holds some of `member`'s bytes: the data the member ships to, or
/// receives from, that domain's aggregator. The member's node-local run on
/// each node it touches is binary-searched into the sorted domains, so only
/// nonzero shares are visited. `runs` is scratch.
pub fn shares(
    layout: &StripeLayout,
    domains: &[Segment],
    member: Extent,
    runs: &mut Vec<Segment>,
    mut each: impl FnMut(&Segment, u64),
) {
    runs.clear();
    layout.segments_into(member.offset, member.bytes, runs);
    for r in runs.iter() {
        let end = r.local_offset + r.bytes;
        let first = domains.partition_point(|d| {
            (d.io_node, d.local_offset + d.bytes) <= (r.io_node, r.local_offset)
        });
        for d in domains[first..]
            .iter()
            .take_while(|d| d.io_node == r.io_node && d.local_offset < end)
        {
            each(
                d,
                (d.local_offset + d.bytes).min(end) - d.local_offset.max(r.local_offset),
            );
        }
    }
}

/// The unit-by-unit piece walk the closed form replaced: the reference the
/// property tests and the exchange-cost test check against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::Extent;
    use sio_fskit::layout::StripeLayout;

    /// A file domain with the file-space pieces composing it, ascending;
    /// each piece lies within a single stripe unit of the owning node.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Domain {
        pub io_node: u32,
        pub local_offset: u64,
        pub bytes: u64,
        pub pieces: Vec<Extent>,
    }

    impl Domain {
        /// Bytes of `e` covered by this domain's pieces.
        pub fn overlap(&self, e: Extent) -> u64 {
            self.pieces
                .iter()
                .map(|p| p.end().min(e.end()).saturating_sub(p.offset.max(e.offset)))
                .sum()
        }
    }

    /// Cut every union extent into stripe-unit pieces, sort them by
    /// `(io_node, local_offset)`, and merge local-contiguous neighbours.
    pub fn domains(layout: &StripeLayout, union_extents: &[Extent]) -> Vec<Domain> {
        let mut pieces: Vec<(u32, u64, Extent)> = Vec::new();
        for e in union_extents {
            let mut pos = e.offset;
            while pos < e.end() {
                let stop = ((pos / layout.unit + 1) * layout.unit).min(e.end());
                pieces.push((
                    layout.io_node_of(pos),
                    layout.local_offset_of(pos),
                    Extent {
                        offset: pos,
                        bytes: stop - pos,
                    },
                ));
                pos = stop;
            }
        }
        pieces.sort_by_key(|&(io, local, _)| (io, local));
        let mut out: Vec<Domain> = Vec::new();
        for (io, local, pc) in pieces {
            match out.last_mut() {
                Some(d) if d.io_node == io && d.local_offset + d.bytes == local => {
                    d.bytes += pc.bytes;
                    d.pieces.push(pc);
                }
                _ => out.push(Domain {
                    io_node: io,
                    local_offset: local,
                    bytes: pc.bytes,
                    pieces: vec![pc],
                }),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn ext(offset: u64, bytes: u64) -> Extent {
        Extent { offset, bytes }
    }

    fn to_extents(raw: &[(u64, u64)]) -> Vec<Extent> {
        raw.iter()
            .map(|&(offset, bytes)| ext(offset, bytes))
            .collect()
    }

    fn union_of(extents: &[Extent]) -> Vec<Extent> {
        let mut v = extents.to_vec();
        union(&mut v);
        v
    }

    fn partition_of(l: &StripeLayout, extents: &[Extent]) -> Vec<Segment> {
        let (mut v, mut out) = (extents.to_vec(), Vec::new());
        partition(l, &mut v, &mut out);
        out
    }

    /// Every nonzero share of `member`, keyed by domain index.
    fn shares_of(l: &StripeLayout, doms: &[Segment], member: Extent) -> BTreeMap<usize, u64> {
        let mut out = BTreeMap::new();
        shares(l, doms, member, &mut Vec::new(), |d, bytes| {
            let i = doms.iter().position(|x| x == d).unwrap();
            assert!(out.insert(i, bytes).is_none(), "domain {i} visited twice");
        });
        out
    }

    /// Every byte of `extents` keyed by where it lives:
    /// `(io_node, local_offset)`.
    fn local_map(l: &StripeLayout, extents: &[Extent]) -> BTreeMap<(u32, u64), u64> {
        extents
            .iter()
            .flat_map(|e| e.offset..e.end())
            .map(|b| ((l.io_node_of(b), l.local_offset_of(b)), b))
            .collect()
    }

    #[test]
    fn union_merges_overlap_and_adjacency() {
        let u = union_of(&[
            ext(10, 10),
            ext(0, 5),
            ext(5, 5),
            ext(15, 10),
            ext(40, 0),
            ext(50, 1),
        ]);
        assert_eq!(u, vec![ext(0, 25), ext(50, 1)]);
    }

    /// The paper's interleaved-writer shape: N nodes each writing one
    /// region-strided record per iteration aggregates to exactly one
    /// domain per I/O node, each a single contiguous local run.
    #[test]
    fn interleaved_full_cover_aggregates_to_one_domain_per_node() {
        let l = StripeLayout::new(64 * 1024, 4);
        // 8 writers × 4 units each, covering [0, 2 MB) exactly.
        let extents: Vec<Extent> = (0..8u64).map(|n| ext(n * 256 * 1024, 256 * 1024)).collect();
        let doms = partition_of(&l, &extents);
        assert_eq!(doms.len(), 4);
        for (i, d) in doms.iter().enumerate() {
            assert_eq!(d.io_node as usize, i);
            assert_eq!(d.local_offset, 0);
            assert_eq!(d.bytes, 512 * 1024); // 8 units of 64 KB per node
        }
    }

    /// A node owns one domain per local-contiguous run, not one per node:
    /// units 0 and 32 of a 16-node layout both land on node 0, at local
    /// units 0 and 2, with local unit 1 (file unit 16) outside the union.
    #[test]
    fn gapped_union_splits_a_node_into_two_domains() {
        let unit = 64 * 1024;
        let l = StripeLayout::pfs(16);
        let run = |local, units| Segment {
            io_node: 0,
            local_offset: local * unit,
            bytes: units * unit,
        };
        let doms = partition_of(&l, &[ext(0, unit), ext(32 * unit, unit)]);
        assert_eq!(doms, vec![run(0, 1), run(2, 1)]);
        // Filling the gap merges them into one run.
        let doms = partition_of(
            &l,
            &[ext(0, unit), ext(16 * unit, unit), ext(32 * unit, unit)],
        );
        assert_eq!(doms, vec![run(0, 3)]);
    }

    #[test]
    fn shares_count_member_bytes_inside_each_domain() {
        let l = StripeLayout::new(1000, 2);
        let doms = partition_of(&l, &[ext(500, 2000)]);
        // Units 0 and 2 belong to node 0 (local [500, 1500)); unit 1 to
        // node 1 (local [0, 1000)).
        let seg = |io_node, local_offset, bytes| Segment {
            io_node,
            local_offset,
            bytes,
        };
        assert_eq!(doms, vec![seg(0, 500, 1000), seg(1, 0, 1000)]);
        let all = shares_of(&l, &doms, ext(500, 2000));
        assert_eq!(all.values().sum::<u64>(), 2000);
        assert_eq!(
            shares_of(&l, &doms, ext(0, 1000)),
            BTreeMap::from([(0, 500)])
        );
    }

    proptest! {
        /// The union is sorted, disjoint, non-adjacent, and covers exactly
        /// the bytes of the inputs.
        #[test]
        fn union_is_the_exact_disjoint_cover(raw in vec((0u64..6_000, 0u64..1_500), 1..24)) {
            let extents = to_extents(&raw);
            let u = union_of(&extents);
            for w in u.windows(2) {
                prop_assert!(w[0].end() < w[1].offset, "not disjoint/sorted: {:?}", w);
            }
            prop_assert!(u.iter().all(|e| e.bytes > 0));
            let byte_set = |v: &[Extent]| -> BTreeSet<u64> {
                v.iter().flat_map(|e| e.offset..e.end()).collect()
            };
            prop_assert_eq!(byte_set(&u), byte_set(&extents));
        }

        /// The closed-form domains are the piece walk's, and each member's
        /// shares are exactly the walk's nonzero overlaps, summing to the
        /// member's bytes.
        #[test]
        fn closed_form_matches_the_piece_walk(
            raw in vec((0u64..6_000, 0u64..1_500), 1..24),
            unit in 1u64..700,
            io_nodes in 1u32..7,
        ) {
            let extents = to_extents(&raw);
            let l = StripeLayout::new(unit, io_nodes);
            let doms = partition_of(&l, &extents);
            let walk = oracle::domains(&l, &union_of(&extents));
            prop_assert_eq!(
                doms.iter().map(|d| (d.io_node, d.local_offset, d.bytes)).collect::<Vec<_>>(),
                walk.iter().map(|d| (d.io_node, d.local_offset, d.bytes)).collect::<Vec<_>>()
            );
            for &m in &extents {
                let got = shares_of(&l, &doms, m);
                let want: BTreeMap<usize, u64> = walk
                    .iter()
                    .map(|d| d.overlap(m))
                    .enumerate()
                    .filter(|&(_, ov)| ov > 0)
                    .collect();
                prop_assert_eq!(&got, &want, "member {:?}", m);
                prop_assert_eq!(got.values().sum::<u64>(), m.bytes);
            }
        }

        /// The domains exactly cover the union with no overlap and are
        /// stripe-conforming: mapped back to file bytes, each domain's run
        /// is full, owned by its I/O node and contiguous in node-local
        /// array space; runs are sorted and never touch (they would have
        /// merged).
        #[test]
        fn domains_exactly_cover_and_conform(
            raw in vec((0u64..6_000, 0u64..1_500), 1..24),
            unit in 1u64..700,
            io_nodes in 1u32..7,
        ) {
            let extents = to_extents(&raw);
            let l = StripeLayout::new(unit, io_nodes);
            let doms = partition_of(&l, &extents);
            let map = local_map(&l, &union_of(&extents));
            let mut covered: BTreeSet<u64> = BTreeSet::new();
            for d in &doms {
                prop_assert!(d.bytes > 0);
                // The file bytes mapping into the run, in local order.
                let run = (d.io_node, d.local_offset)..(d.io_node, d.local_offset + d.bytes);
                let bytes: Vec<u64> = map.range(run).map(|(_, &b)| b).collect();
                prop_assert_eq!(bytes.len() as u64, d.bytes, "run {:?} not full", d);
                for (k, &b) in bytes.iter().enumerate() {
                    prop_assert_eq!(l.io_node_of(b), d.io_node);
                    prop_assert_eq!(l.local_offset_of(b), d.local_offset + k as u64);
                    prop_assert!(covered.insert(b), "byte {} covered twice", b);
                }
            }
            for w in doms.windows(2) {
                prop_assert!(
                    (w[0].io_node, w[0].local_offset + w[0].bytes) < (w[1].io_node, w[1].local_offset),
                    "not sorted, disjoint and maximal: {:?}", w
                );
            }
            prop_assert_eq!(covered, map.into_values().collect::<BTreeSet<u64>>());
        }

        /// The partition is independent of extent-exchange arrival order:
        /// any permutation of the inputs yields identical domains.
        #[test]
        fn partition_is_arrival_order_independent(
            raw in vec((0u64..6_000, 0u64..1_500), 1..24),
            seed in any::<u64>(),
            unit in 1u64..700,
            io_nodes in 1u32..7,
        ) {
            let extents = to_extents(&raw);
            let l = StripeLayout::new(unit, io_nodes);
            let baseline = partition_of(&l, &extents);
            // Deterministic pseudo-shuffle of the arrival order.
            let mut shuffled = extents.clone();
            let mut s = seed | 1;
            for i in (1..shuffled.len()).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                shuffled.swap(i, (s >> 33) as usize % (i + 1));
            }
            prop_assert_eq!(partition_of(&l, &shuffled), baseline);
        }
    }
}

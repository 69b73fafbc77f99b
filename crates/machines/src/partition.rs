//! Partition geometries: cuboids of midplanes in canonical form.
//!
//! The paper always reports partition dimensions in sorted order, treating
//! geometries that are identical up to rotation as one; [`PartitionGeometry`]
//! enforces that canonical representation. The geometry determines
//! everything the analysis needs: node count, node-level torus dimensions,
//! and — via the edge-isoperimetric results — the internal bisection
//! bandwidth.

use crate::midplane::{self, NODES_PER_MIDPLANE};
use netpart_topology::Torus;

/// A cuboid of midplanes, stored as four midplane-level extents in
/// descending order (the canonical representation of Section 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PartitionGeometry {
    dims: [usize; 4],
}

impl PartitionGeometry {
    /// Create a geometry from midplane-level extents (any order).
    ///
    /// # Panics
    /// Panics if any extent is zero.
    pub fn new(dims: [usize; 4]) -> Self {
        assert!(
            dims.iter().all(|&d| d >= 1),
            "partition extents must be >= 1"
        );
        let mut sorted = dims;
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        Self { dims: sorted }
    }

    /// Midplane-level extents in descending order.
    pub fn dims(&self) -> [usize; 4] {
        self.dims
    }

    /// Longest midplane-level dimension.
    pub fn longest_dim(&self) -> usize {
        self.dims[0]
    }

    /// Number of midplanes in the partition.
    pub fn num_midplanes(&self) -> usize {
        self.dims.iter().product()
    }

    /// Number of compute nodes (512 per midplane).
    pub fn num_nodes(&self) -> usize {
        self.num_midplanes() * NODES_PER_MIDPLANE
    }

    /// Node-level torus dimensions of the partition (including the internal
    /// length-2 dimension).
    pub fn node_dims(&self) -> [usize; 5] {
        midplane::node_dims(&self.dims)
    }

    /// The partition's network as a standalone torus (Blue Gene/Q partitions
    /// have their own wrap-around links).
    pub fn torus(&self) -> Torus {
        Torus::new(self.node_dims().to_vec())
    }

    /// Normalized internal bisection bandwidth in links (each link = 1 unit),
    /// exactly the quantity plotted in the paper's Figures 1, 2 and 7.
    pub fn bisection_links(&self) -> u64 {
        netpart_iso::torus_bisection_links(&self.node_dims())
    }

    /// Internal bisection bandwidth in GB/s per direction, using the
    /// Blue Gene/Q link bandwidth of 2 GB/s.
    pub fn bisection_bandwidth_gbs(&self) -> f64 {
        self.bisection_links() as f64 * midplane::LINK_BANDWIDTH_GB_PER_S
    }

    /// Whether this geometry fits inside a machine with the given
    /// midplane-level dimensions (sorted or not). Because both sides are
    /// compared after sorting in descending order, this is exactly the
    /// existence of an injective assignment of partition axes to machine axes.
    pub fn fits_in(&self, machine_dims: [usize; 4]) -> bool {
        let mut machine = machine_dims;
        machine.sort_unstable_by(|a, b| b.cmp(a));
        self.dims.iter().zip(machine.iter()).all(|(p, m)| p <= m)
    }

    /// Whether this geometry is a ring (all but one dimension of length 1),
    /// the shape responsible for the "spiking drops" in Figure 2.
    pub fn is_ring(&self) -> bool {
        self.dims[1] == 1 && self.dims[0] > 1
    }

    /// Corollary 3.4: a geometry with the same midplane count and a strictly
    /// smaller longest dimension has strictly greater internal bisection
    /// bandwidth.
    pub fn dominates(&self, other: &PartitionGeometry) -> bool {
        self.num_midplanes() == other.num_midplanes() && self.longest_dim() < other.longest_dim()
    }

    /// Predicted speedup of a perfectly contention-bound workload when moving
    /// from `self` to `better` (the ratio of bisection bandwidths).
    pub fn contention_speedup_to(&self, better: &PartitionGeometry) -> f64 {
        better.bisection_links() as f64 / self.bisection_links() as f64
    }
}

impl std::fmt::Display for PartitionGeometry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} x {} x {} x {}",
            self.dims[0], self.dims[1], self.dims[2], self.dims[3]
        )
    }
}

/// All canonical partition geometries with exactly `midplanes` midplanes that
/// fit inside a machine with the given midplane-level dimensions.
pub fn enumerate_geometries(machine_dims: [usize; 4], midplanes: usize) -> Vec<PartitionGeometry> {
    assert!(midplanes >= 1, "a partition needs at least one midplane");
    let mut machine = machine_dims;
    machine.sort_unstable_by(|a, b| b.cmp(a));
    let mut out = Vec::new();
    // Enumerate descending factorizations a >= b >= c >= d with a*b*c*d = midplanes.
    let max_a = machine[0].min(midplanes);
    for a in 1..=max_a {
        if !midplanes.is_multiple_of(a) {
            continue;
        }
        let rest_a = midplanes / a;
        for b in 1..=a.min(machine[1]).min(rest_a) {
            if !rest_a.is_multiple_of(b) {
                continue;
            }
            let rest_b = rest_a / b;
            for c in 1..=b.min(machine[2]).min(rest_b) {
                if !rest_b.is_multiple_of(c) {
                    continue;
                }
                let d = rest_b / c;
                if d <= c && d <= machine[3] {
                    let geometry = PartitionGeometry::new([a, b, c, d]);
                    if geometry.fits_in(machine_dims) && !out.contains(&geometry) {
                        out.push(geometry);
                    }
                }
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalization_sorts_descending() {
        let g = PartitionGeometry::new([1, 3, 2, 2]);
        assert_eq!(g.dims(), [3, 2, 2, 1]);
        assert_eq!(g.to_string(), "3 x 2 x 2 x 1");
        assert_eq!(g, PartitionGeometry::new([2, 2, 1, 3]));
    }

    #[test]
    fn node_counts_and_dims() {
        let g = PartitionGeometry::new([2, 2, 1, 1]);
        assert_eq!(g.num_midplanes(), 4);
        assert_eq!(g.num_nodes(), 2048);
        assert_eq!(g.node_dims(), [8, 8, 4, 4, 2]);
    }

    #[test]
    fn table_bisection_values() {
        // Table 6 and Table 7 rows.
        let cases = [
            ([1, 1, 1, 1], 256u64),
            ([2, 1, 1, 1], 256),
            ([4, 1, 1, 1], 256),
            ([2, 2, 1, 1], 512),
            ([4, 2, 1, 1], 512),
            ([2, 2, 2, 1], 1024),
            ([4, 4, 1, 1], 1024),
            ([2, 2, 2, 2], 2048),
            ([4, 3, 2, 1], 1536),
            ([3, 2, 2, 2], 2048),
            ([4, 4, 3, 2], 6144),
            ([7, 2, 2, 2], 2048),
            ([3, 3, 3, 2], 4608),
            ([3, 3, 3, 1], 2304),
            ([5, 1, 1, 1], 256),
            ([6, 2, 2, 1], 1024),
        ];
        for (dims, expected) in cases {
            let g = PartitionGeometry::new(dims);
            assert_eq!(g.bisection_links(), expected, "geometry {g}");
        }
    }

    #[test]
    fn fit_test_matches_brute_force_permutations() {
        // The sorted comparison must be equivalent to trying all axis
        // assignments explicitly.
        let machines = [[4, 4, 3, 2], [7, 2, 2, 2], [4, 3, 2, 2]];
        let partitions = [
            [4, 1, 1, 1],
            [2, 2, 2, 2],
            [3, 3, 1, 1],
            [5, 1, 1, 1],
            [4, 4, 3, 2],
            [7, 2, 2, 1],
            [3, 2, 2, 2],
            [4, 4, 4, 1],
        ];
        for machine in machines {
            for p in partitions {
                let geometry = PartitionGeometry::new(p);
                let brute = permutations(&p)
                    .into_iter()
                    .any(|perm| perm.iter().zip(machine.iter()).all(|(a, m)| a <= m));
                assert_eq!(
                    geometry.fits_in(machine),
                    brute,
                    "partition {p:?} in machine {machine:?}"
                );
            }
        }
    }

    fn permutations(v: &[usize; 4]) -> Vec<[usize; 4]> {
        let mut out = Vec::new();
        let mut v = *v;
        heap_permute(&mut v, 4, &mut out);
        out
    }

    fn heap_permute(v: &mut [usize; 4], n: usize, out: &mut Vec<[usize; 4]>) {
        if n == 1 {
            out.push(*v);
            return;
        }
        for i in 0..n {
            heap_permute(v, n - 1, out);
            if n.is_multiple_of(2) {
                v.swap(i, n - 1);
            } else {
                v.swap(0, n - 1);
            }
        }
    }

    #[test]
    fn enumeration_on_juqueen_sizes() {
        let juqueen = [7, 2, 2, 2];
        // 4 midplanes: 4x1x1x1 does NOT fit (no dim of length >= 4 besides 7),
        // wait -- 4 <= 7, so it does fit. Geometries: 4x1x1x1, 2x2x1x1.
        let geos = enumerate_geometries(juqueen, 4);
        assert_eq!(geos.len(), 2);
        assert!(geos.contains(&PartitionGeometry::new([4, 1, 1, 1])));
        assert!(geos.contains(&PartitionGeometry::new([2, 2, 1, 1])));
        // 5 midplanes: only the ring 5x1x1x1.
        let geos = enumerate_geometries(juqueen, 5);
        assert_eq!(geos, vec![PartitionGeometry::new([5, 1, 1, 1])]);
        // 9 midplanes: 3x3x1x1 does not fit in 7x2x2x2 (only one dim >= 3).
        assert!(enumerate_geometries(juqueen, 9).is_empty());
        // 56 midplanes: only the full machine.
        let geos = enumerate_geometries(juqueen, 56);
        assert_eq!(geos, vec![PartitionGeometry::new([7, 2, 2, 2])]);
    }

    #[test]
    fn enumeration_on_mira_sizes() {
        let mira = [4, 4, 3, 2];
        let geos = enumerate_geometries(mira, 16);
        // 16 = 4x4x1x1, 4x2x2x1, 2x2x2x2, 4x4x2x... (4*4*2*... no: 4*4*1*1,
        // 4*2*2*1, 2*2*2*2). 8x2x1x1 and 16x1x1x1 do not fit.
        assert_eq!(geos.len(), 3);
        for g in &geos {
            assert_eq!(g.num_midplanes(), 16);
            assert!(g.fits_in(mira));
        }
        // 96 midplanes: the full machine only.
        assert_eq!(
            enumerate_geometries(mira, 96),
            vec![PartitionGeometry::new([4, 4, 3, 2])]
        );
    }

    #[test]
    fn corollary_3_4_dominance() {
        let current = PartitionGeometry::new([4, 1, 1, 1]);
        let proposed = PartitionGeometry::new([2, 2, 1, 1]);
        assert!(proposed.dominates(&current));
        assert!(!current.dominates(&proposed));
        assert!(proposed.bisection_links() > current.bisection_links());
        assert!((current.contention_speedup_to(&proposed) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ring_detection() {
        assert!(PartitionGeometry::new([5, 1, 1, 1]).is_ring());
        assert!(!PartitionGeometry::new([1, 1, 1, 1]).is_ring());
        assert!(!PartitionGeometry::new([2, 2, 1, 1]).is_ring());
    }

    #[test]
    fn bisection_bandwidth_in_gbs_uses_link_speed() {
        let g = PartitionGeometry::new([1, 1, 1, 1]);
        assert!((g.bisection_bandwidth_gbs() - 512.0).abs() < 1e-9);
    }
}

//! Multidimensional torus networks.
//!
//! The torus is the central topology of the paper: Blue Gene/Q machines are
//! 5-D tori, and their partitions are sub-tori (the hardware provides
//! wrap-around links inside a partition even when the partition does not
//! cover the full dimension). Besides the generic [`crate::Topology`]
//! behaviour, [`Torus`] offers cuboid subset helpers and the exact cut-size
//! formula for axis-aligned cuboids used throughout the isoperimetric
//! analysis.

use crate::coord::{coord_of, index_of, volume, wrap_displacement};
use crate::Topology;

/// A `D`-dimensional torus with arbitrary (per-dimension) extents.
///
/// A dimension of length 1 contributes no links; a dimension of length 2
/// contributes *two parallel links* between the two coordinates (the `+1`
/// and `-1` wrap-around cables coincide on the same node pair but are
/// physically distinct). This matches the real Blue Gene/Q hardware, where
/// every node has 10 links, and it is the convention under which the
/// Bollobás–Leader counting and the paper's Theorem 3.1 hold verbatim.
#[derive(Debug, Clone, PartialEq)]
pub struct Torus {
    dims: Vec<usize>,
    /// Per-dimension link capacity (normalized). Defaults to 1.0 everywhere;
    /// weighted tori (e.g. Cray XK7-style 3-D tori with heterogeneous cables)
    /// can override individual dimensions.
    capacities: Vec<f64>,
}

/// An axis-aligned cuboid subset of a torus, given by an origin corner and
/// per-dimension extents. The cuboid wraps around dimensions where
/// `origin[i] + extent[i] > dims[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cuboid {
    /// Lowest corner of the cuboid in each dimension.
    pub origin: Vec<usize>,
    /// Extent (number of covered coordinates) in each dimension.
    pub extent: Vec<usize>,
}

impl Cuboid {
    /// Cuboid anchored at the origin with the given extents.
    pub fn at_origin(extent: Vec<usize>) -> Self {
        let origin = vec![0usize; extent.len()];
        Self { origin, extent }
    }

    /// Number of nodes covered by the cuboid.
    pub fn volume(&self) -> usize {
        self.extent.iter().product()
    }
}

impl Torus {
    /// Create a torus with the given extents and unit link capacities.
    ///
    /// # Panics
    /// Panics if `dims` is empty or any extent is zero.
    pub fn new(dims: Vec<usize>) -> Self {
        assert!(!dims.is_empty(), "torus must have at least one dimension");
        assert!(dims.iter().all(|&a| a >= 1), "torus extents must be >= 1");
        let capacities = vec![1.0; dims.len()];
        Self { dims, capacities }
    }

    /// Create a torus with per-dimension link capacities.
    ///
    /// # Panics
    /// Panics if lengths differ, any extent is zero, or any capacity is not
    /// strictly positive.
    pub fn with_capacities(dims: Vec<usize>, capacities: Vec<f64>) -> Self {
        assert_eq!(
            dims.len(),
            capacities.len(),
            "dims/capacities length mismatch"
        );
        assert!(!dims.is_empty(), "torus must have at least one dimension");
        assert!(dims.iter().all(|&a| a >= 1), "torus extents must be >= 1");
        assert!(
            capacities.iter().all(|&c| c > 0.0),
            "link capacities must be positive"
        );
        Self { dims, capacities }
    }

    /// Per-dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Per-dimension link capacities.
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Whether all dimensions have equal length (a cubic torus).
    pub fn is_cubic(&self) -> bool {
        self.dims.windows(2).all(|w| w[0] == w[1])
    }

    /// Dense index of a coordinate.
    pub fn index_of(&self, coord: &[usize]) -> usize {
        index_of(&self.dims, coord)
    }

    /// Coordinate of a dense index.
    pub fn coord_of(&self, idx: usize) -> Vec<usize> {
        coord_of(&self.dims, idx)
    }

    /// Wrap-around (shortest-path) hop distance between two nodes.
    pub fn distance(&self, a: usize, b: usize) -> usize {
        let ca = self.coord_of(a);
        let cb = self.coord_of(b);
        ca.iter()
            .zip(cb.iter())
            .zip(self.dims.iter())
            .map(|((&x, &y), &len)| wrap_displacement(x, y, len).unsigned_abs())
            .sum()
    }

    /// Network diameter in hops (sum over dimensions of `floor(a_i / 2)`).
    pub fn diameter(&self) -> usize {
        self.dims.iter().map(|&a| a / 2).sum()
    }

    /// The node diametrically opposite `v` (used by the furthest-node
    /// bisection-pairing benchmark of Section 4.1).
    pub fn antipode(&self, v: usize) -> usize {
        let mut c = self.coord_of(v);
        for (ci, &ai) in c.iter_mut().zip(self.dims.iter()) {
            *ci = (*ci + ai / 2) % ai;
        }
        self.index_of(&c)
    }

    /// Number of links contributed by dimension `d` for the full torus.
    fn links_in_dim(&self, d: usize) -> usize {
        let a = self.dims[d];
        let others: usize = volume(&self.dims) / a;
        // A cycle of length `a` has `a` links per column; length 2 keeps both
        // (parallel) wrap-around links; length 1 has none.
        if a == 1 {
            0
        } else {
            a * others
        }
    }

    /// Dense node indices covered by a cuboid.
    pub fn cuboid_nodes(&self, cuboid: &Cuboid) -> Vec<usize> {
        assert_eq!(cuboid.origin.len(), self.ndim());
        assert_eq!(cuboid.extent.len(), self.ndim());
        for (i, (&e, &a)) in cuboid.extent.iter().zip(self.dims.iter()).enumerate() {
            assert!(
                e >= 1 && e <= a,
                "cuboid extent {e} in dim {i} exceeds torus extent {a}"
            );
        }
        let mut nodes = Vec::with_capacity(cuboid.volume());
        let mut cursor = vec![0usize; self.ndim()];
        loop {
            let coord: Vec<usize> = cursor
                .iter()
                .zip(cuboid.origin.iter())
                .zip(self.dims.iter())
                .map(|((&c, &o), &a)| (o + c) % a)
                .collect();
            nodes.push(self.index_of(&coord));
            // Odometer increment over the cuboid extents.
            let mut d = self.ndim();
            loop {
                if d == 0 {
                    return nodes;
                }
                d -= 1;
                cursor[d] += 1;
                if cursor[d] < cuboid.extent[d] {
                    break;
                }
                cursor[d] = 0;
            }
        }
    }

    /// Exact number of torus links with exactly one endpoint inside an
    /// axis-aligned cuboid of the given extents (weighted by per-dimension
    /// capacity).
    ///
    /// For each dimension `i` the cuboid either covers the whole dimension
    /// (`c_i == a_i`, contributing nothing) or is a proper segment of the
    /// cycle, contributing two boundary links (the two wrap-around
    /// directions) on each cross-section ("column"). Dimensions of length 1
    /// contribute nothing.
    pub fn cuboid_cut_capacity(&self, extent: &[usize]) -> f64 {
        assert_eq!(extent.len(), self.ndim());
        let mut total = 0.0;
        for (i, (&c, &a)) in extent.iter().zip(self.dims.iter()).enumerate() {
            assert!(
                c >= 1 && c <= a,
                "cuboid extent {c} in dim {i} exceeds torus extent {a}"
            );
            if c == a || a == 1 {
                continue;
            }
            let columns: usize = extent
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &e)| e)
                .product();
            total += 2.0 * columns as f64 * self.capacities[i];
        }
        total
    }

    /// Unweighted version of [`Torus::cuboid_cut_capacity`] (all capacities 1).
    pub fn cuboid_cut_size(&self, extent: &[usize]) -> u64 {
        let mut total = 0u64;
        for (i, (&c, &a)) in extent.iter().zip(self.dims.iter()).enumerate() {
            assert!(
                c >= 1 && c <= a,
                "cuboid extent {c} in dim {i} exceeds torus extent {a}"
            );
            if c == a || a == 1 {
                continue;
            }
            let columns: u64 = extent
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &e)| e as u64)
                .product();
            total += 2 * columns;
        }
        total
    }

    /// The sub-torus induced by a partition of the given extents.
    ///
    /// Blue Gene/Q partitions have their own wrap-around links, so a
    /// partition of extents `e` behaves exactly like a standalone torus with
    /// dims `e`; this constructor documents that modelling decision.
    pub fn partition(&self, extent: &[usize]) -> Torus {
        assert_eq!(extent.len(), self.ndim());
        for (i, (&e, &a)) in extent.iter().zip(self.dims.iter()).enumerate() {
            assert!(
                e >= 1 && e <= a,
                "partition extent {e} in dim {i} exceeds torus extent {a}"
            );
        }
        Torus::with_capacities(extent.to_vec(), self.capacities.clone())
    }
}

impl Topology for Torus {
    fn num_nodes(&self) -> usize {
        volume(&self.dims)
    }

    fn neighbor_links(&self, v: usize) -> Vec<(usize, f64)> {
        let coord = self.coord_of(v);
        let mut out = Vec::with_capacity(2 * self.ndim());
        for (d, &a) in self.dims.iter().enumerate() {
            if a == 1 {
                continue;
            }
            let cap = self.capacities[d];
            let mut plus = coord.clone();
            plus[d] = (coord[d] + 1) % a;
            let plus_idx = self.index_of(&plus);
            let mut minus = coord.clone();
            minus[d] = (coord[d] + a - 1) % a;
            let minus_idx = self.index_of(&minus);
            // For a == 2 the +1 and -1 neighbours coincide; both entries are
            // kept because they represent two physically distinct cables.
            out.push((plus_idx, cap));
            out.push((minus_idx, cap));
        }
        out
    }

    fn name(&self) -> String {
        let dims: Vec<String> = self.dims.iter().map(|d| d.to_string()).collect();
        format!("torus({})", dims.join("x"))
    }

    fn num_links(&self) -> usize {
        (0..self.ndim()).map(|d| self.links_in_dim(d)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indicator;

    #[test]
    fn node_and_link_counts() {
        let t = Torus::new(vec![4, 4, 4, 4, 2]);
        assert_eq!(t.num_nodes(), 512);
        // Each dimension of length a >= 2 contributes a * (N/a) = N links,
        // so a midplane has 5 * 512 = 2560 links and every node has 10.
        assert_eq!(t.num_links(), 5 * 512);
        assert_eq!(t.num_links(), t.links().len());
        assert_eq!(t.degree(0), 10);
    }

    #[test]
    fn degree_accounts_for_short_dimensions() {
        let t = Torus::new(vec![4, 2, 1]);
        // dim 4 -> 2 links, dim 2 -> 2 parallel links, dim 1 -> 0 links.
        assert_eq!(t.degree(0), 4);
        assert!(t.is_regular());
    }

    #[test]
    fn ring_topology_matches_expectations() {
        let ring = Torus::new(vec![6]);
        assert_eq!(ring.num_nodes(), 6);
        assert_eq!(ring.num_links(), 6);
        assert_eq!(ring.distance(0, 3), 3);
        assert_eq!(ring.distance(0, 5), 1);
        assert_eq!(ring.diameter(), 3);
        assert_eq!(ring.antipode(1), 4);
    }

    #[test]
    fn cuboid_cut_size_matches_brute_force() {
        let t = Torus::new(vec![4, 3, 2]);
        for extent in [[2, 3, 2], [2, 2, 1], [1, 1, 1], [4, 3, 1], [3, 2, 2]] {
            let cuboid = Cuboid::at_origin(extent.to_vec());
            let nodes = t.cuboid_nodes(&cuboid);
            let ind = indicator(t.num_nodes(), &nodes);
            let brute = t.cut_size(&ind) as u64;
            assert_eq!(
                t.cuboid_cut_size(&extent),
                brute,
                "extent {extent:?}: formula vs brute force"
            );
        }
    }

    #[test]
    fn cuboid_cut_is_translation_invariant() {
        let t = Torus::new(vec![5, 4, 3]);
        let extent = vec![3, 2, 2];
        let base = {
            let nodes = t.cuboid_nodes(&Cuboid::at_origin(extent.clone()));
            t.cut_size(&indicator(t.num_nodes(), &nodes))
        };
        for origin in [[1, 0, 0], [4, 3, 2], [2, 2, 1]] {
            let nodes = t.cuboid_nodes(&Cuboid {
                origin: origin.to_vec(),
                extent: extent.clone(),
            });
            let cut = t.cut_size(&indicator(t.num_nodes(), &nodes));
            assert_eq!(cut, base, "cut must not depend on cuboid origin");
        }
    }

    #[test]
    fn weighted_capacities_scale_cut() {
        let t = Torus::with_capacities(vec![4, 4], vec![1.0, 3.0]);
        // A 2x4 slab cuts only dimension 0: 2 boundary links per column * 4 columns * cap 1.
        assert!((t.cuboid_cut_capacity(&[2, 4]) - 8.0).abs() < 1e-12);
        // A 4x2 slab cuts only dimension 1 with capacity 3.
        assert!((t.cuboid_cut_capacity(&[4, 2]) - 24.0).abs() < 1e-12);
    }

    #[test]
    fn bgq_bisection_formula_from_cuboid_cut() {
        // Half of a Blue Gene/Q midplane torus cut across the longest dim:
        // 2 * N / L links.
        let t = Torus::new(vec![16, 16, 12, 8, 2]);
        let half = [8, 16, 12, 8, 2];
        let n = t.num_nodes() as u64;
        assert_eq!(t.cuboid_cut_size(&half), 2 * n / 16);
    }

    #[test]
    fn partition_behaves_like_standalone_torus() {
        let machine = Torus::new(vec![16, 16, 12, 8, 2]);
        let part = machine.partition(&[8, 8, 4, 4, 2]);
        assert_eq!(part.num_nodes(), 2048);
        assert_eq!(part.dims(), &[8, 8, 4, 4, 2]);
        assert!(part.is_regular());
    }

    #[test]
    fn antipode_is_at_diameter_distance() {
        let t = Torus::new(vec![8, 4, 2]);
        for v in 0..t.num_nodes() {
            assert_eq!(t.distance(v, t.antipode(v)), t.diameter());
        }
    }

    #[test]
    #[should_panic(expected = "exceeds torus extent")]
    fn cuboid_cut_rejects_oversized_extent() {
        let t = Torus::new(vec![4, 4]);
        let _ = t.cuboid_cut_size(&[5, 1]);
    }
}

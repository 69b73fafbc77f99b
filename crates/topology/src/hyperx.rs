//! HyperX networks — Cartesian products of cliques.
//!
//! A HyperX network is the Cartesian product `K_{a_1} x ... x K_{a_D}`: nodes
//! are coordinate tuples and two nodes are adjacent when they differ in
//! exactly one coordinate. Each dimension may have its own link capacity; a
//! HyperX with uniform capacity is called *regular*, and for regular HyperX
//! the edge-isoperimetric problem is solved by Lindsey's theorem (see
//! `netpart-iso`).

use crate::coord::{coord_of, index_of, volume};
use crate::Topology;

/// A HyperX network `K_{a_1} x ... x K_{a_D}` with per-dimension capacities.
#[derive(Debug, Clone, PartialEq)]
pub struct HyperX {
    dims: Vec<usize>,
    capacities: Vec<f64>,
}

impl HyperX {
    /// A regular HyperX (all link capacities 1.0).
    ///
    /// # Panics
    /// Panics if `dims` is empty or any clique has fewer than one vertex.
    pub fn regular(dims: Vec<usize>) -> Self {
        let capacities = vec![1.0; dims.len()];
        Self::with_capacities(dims, capacities)
    }

    /// A HyperX with per-dimension link capacities.
    ///
    /// # Panics
    /// Panics on length mismatch, empty dimensions or non-positive capacities.
    pub fn with_capacities(dims: Vec<usize>, capacities: Vec<f64>) -> Self {
        assert!(!dims.is_empty(), "HyperX must have at least one dimension");
        assert_eq!(
            dims.len(),
            capacities.len(),
            "dims/capacities length mismatch"
        );
        assert!(dims.iter().all(|&a| a >= 1), "clique sizes must be >= 1");
        assert!(
            capacities.iter().all(|&c| c > 0.0),
            "capacities must be positive"
        );
        Self { dims, capacities }
    }

    /// Clique sizes per dimension.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Per-dimension link capacities.
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }

    /// Whether all link capacities are equal (the *regular* case).
    pub fn is_capacity_regular(&self) -> bool {
        self.capacities
            .windows(2)
            .all(|w| (w[0] - w[1]).abs() < 1e-12)
    }

    /// Dense index of a coordinate.
    pub fn index_of(&self, coord: &[usize]) -> usize {
        index_of(&self.dims, coord)
    }

    /// Coordinate of a dense index.
    pub fn coord_of(&self, idx: usize) -> Vec<usize> {
        coord_of(&self.dims, idx)
    }

    /// Hop distance: number of coordinates in which the nodes differ
    /// (each differing coordinate is one clique hop).
    pub fn distance(&self, a: usize, b: usize) -> usize {
        self.coord_of(a)
            .iter()
            .zip(self.coord_of(b).iter())
            .filter(|(x, y)| x != y)
            .count()
    }
}

impl Topology for HyperX {
    fn num_nodes(&self) -> usize {
        volume(&self.dims)
    }

    fn neighbor_links(&self, v: usize) -> Vec<(usize, f64)> {
        let coord = self.coord_of(v);
        let mut out = Vec::new();
        for (d, &a) in self.dims.iter().enumerate() {
            let cap = self.capacities[d];
            for other in 0..a {
                if other == coord[d] {
                    continue;
                }
                let mut c = coord.clone();
                c[d] = other;
                out.push((self.index_of(&c), cap));
            }
        }
        out
    }

    fn name(&self) -> String {
        let dims: Vec<String> = self.dims.iter().map(|d| format!("K{d}")).collect();
        format!("hyperx({})", dims.join("x"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Hypercube;

    #[test]
    fn node_and_link_counts() {
        let hx = HyperX::regular(vec![4, 3]);
        assert_eq!(hx.num_nodes(), 12);
        // Per node: 3 neighbors in K4 + 2 in K3 = 5; 12*5/2 = 30 links.
        assert_eq!(hx.degree(0), 5);
        assert_eq!(hx.num_links(), 30);
        assert!(hx.is_regular());
    }

    #[test]
    fn all_twos_hyperx_is_a_hypercube() {
        let hx = HyperX::regular(vec![2, 2, 2]);
        let q = Hypercube::new(3);
        assert_eq!(hx.num_nodes(), q.num_nodes());
        assert_eq!(hx.num_links(), q.num_links());
    }

    #[test]
    fn distance_counts_differing_coordinates() {
        let hx = HyperX::regular(vec![5, 5, 5]);
        let a = hx.index_of(&[0, 0, 0]);
        let b = hx.index_of(&[4, 0, 3]);
        assert_eq!(hx.distance(a, b), 2);
        // Diameter of a HyperX equals its dimension count.
        assert_eq!(hx.distance(a, hx.index_of(&[1, 2, 3])), 3);
    }

    #[test]
    fn weighted_dimensions_carry_their_capacity() {
        let hx = HyperX::with_capacities(vec![16, 6], vec![1.0, 3.0]);
        assert!(!hx.is_capacity_regular());
        let caps: Vec<f64> = hx.neighbor_links(0).into_iter().map(|(_, c)| c).collect();
        let ones = caps.iter().filter(|&&c| (c - 1.0).abs() < 1e-12).count();
        let threes = caps.iter().filter(|&&c| (c - 3.0).abs() < 1e-12).count();
        assert_eq!(ones, 15);
        assert_eq!(threes, 5);
    }
}

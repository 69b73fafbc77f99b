//! Hypercube networks.
//!
//! Hypercube-based supercomputers (e.g. Pleiades) are one of the topologies
//! for which the paper's method applies directly, because the
//! edge-isoperimetric problem on the hypercube was solved exactly by Harper
//! (1964). The exact solver lives in `netpart-iso`; this module provides the
//! graph model.

use crate::Topology;

/// The `d`-dimensional hypercube `Q_d` with `2^d` nodes and unit capacities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hypercube {
    dim: u32,
}

impl Hypercube {
    /// Create `Q_d`.
    ///
    /// # Panics
    /// Panics if `dim` exceeds 30 (node indices no longer fit comfortably).
    pub fn new(dim: u32) -> Self {
        assert!(dim <= 30, "hypercube dimension {dim} too large");
        Self { dim }
    }

    /// Dimension `d`.
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Hamming distance between two node labels.
    pub fn distance(&self, a: usize, b: usize) -> u32 {
        ((a ^ b) as u64).count_ones()
    }
}

impl Topology for Hypercube {
    fn num_nodes(&self) -> usize {
        1usize << self.dim
    }

    fn neighbor_links(&self, v: usize) -> Vec<(usize, f64)> {
        (0..self.dim).map(|b| (v ^ (1usize << b), 1.0)).collect()
    }

    fn name(&self) -> String {
        format!("hypercube(Q{})", self.dim)
    }

    fn num_links(&self) -> usize {
        (self.dim as usize) << (self.dim.saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Torus;

    #[test]
    fn q3_counts() {
        let q3 = Hypercube::new(3);
        assert_eq!(q3.num_nodes(), 8);
        assert_eq!(q3.num_links(), 12);
        assert_eq!(q3.links().len(), 12);
        assert!(q3.is_regular());
        assert_eq!(q3.degree(0), 3);
    }

    #[test]
    fn q0_is_a_single_node() {
        let q0 = Hypercube::new(0);
        assert_eq!(q0.num_nodes(), 1);
        assert_eq!(q0.num_links(), 0);
    }

    #[test]
    fn hypercube_is_the_all_twos_torus_up_to_parallel_links() {
        // Q_d has the same vertex set and adjacency as the torus [2]^d under
        // the identity labelling; the torus carries each adjacency twice
        // (parallel wrap-around cables), the hypercube once.
        let q = Hypercube::new(4);
        let t = Torus::new(vec![2; 4]);
        assert_eq!(q.num_nodes(), t.num_nodes());
        assert_eq!(2 * q.num_links(), t.num_links());
        for v in 0..q.num_nodes() {
            let mut qn: Vec<usize> = q.neighbor_links(v).into_iter().map(|(n, _)| n).collect();
            let mut tn: Vec<usize> = t.neighbor_links(v).into_iter().map(|(n, _)| n).collect();
            qn.sort_unstable();
            tn.sort_unstable();
            tn.dedup();
            assert_eq!(qn, tn, "neighbourhood of {v}");
        }
    }

    #[test]
    fn hamming_distance() {
        let q = Hypercube::new(5);
        assert_eq!(q.distance(0b00000, 0b10101), 3);
        assert_eq!(q.distance(7, 7), 0);
    }
}

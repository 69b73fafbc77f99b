//! Multidimensional mesh (grid) networks — tori without wrap-around links.
//!
//! Meshes appear in the paper's related-work discussion (the 2-D mesh
//! edge-isoperimetric problem of Ahlswede–Bezrukov) and serve as a baseline
//! against which the benefit of wrap-around links can be quantified.

use crate::coord::{coord_of, index_of, volume};
use crate::Topology;

/// A `D`-dimensional mesh with per-dimension extents and unit link capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mesh {
    dims: Vec<usize>,
}

impl Mesh {
    /// Create a mesh with the given extents.
    ///
    /// # Panics
    /// Panics if `dims` is empty or any extent is zero.
    pub fn new(dims: Vec<usize>) -> Self {
        assert!(!dims.is_empty(), "mesh must have at least one dimension");
        assert!(dims.iter().all(|&a| a >= 1), "mesh extents must be >= 1");
        Self { dims }
    }

    /// Per-dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Dense index of a coordinate.
    pub fn index_of(&self, coord: &[usize]) -> usize {
        index_of(&self.dims, coord)
    }

    /// Coordinate of a dense index.
    pub fn coord_of(&self, idx: usize) -> Vec<usize> {
        coord_of(&self.dims, idx)
    }

    /// Manhattan distance between two nodes (no wrap-around).
    pub fn distance(&self, a: usize, b: usize) -> usize {
        self.coord_of(a)
            .iter()
            .zip(self.coord_of(b).iter())
            .map(|(&x, &y)| x.abs_diff(y))
            .sum()
    }
}

impl Topology for Mesh {
    fn num_nodes(&self) -> usize {
        volume(&self.dims)
    }

    fn neighbor_links(&self, v: usize) -> Vec<(usize, f64)> {
        let coord = self.coord_of(v);
        let mut out = Vec::with_capacity(2 * self.dims.len());
        for (d, &a) in self.dims.iter().enumerate() {
            if coord[d] + 1 < a {
                let mut c = coord.clone();
                c[d] += 1;
                out.push((self.index_of(&c), 1.0));
            }
            if coord[d] > 0 {
                let mut c = coord.clone();
                c[d] -= 1;
                out.push((self.index_of(&c), 1.0));
            }
        }
        out
    }

    fn name(&self) -> String {
        let dims: Vec<String> = self.dims.iter().map(|d| d.to_string()).collect();
        format!("mesh({})", dims.join("x"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Torus;

    #[test]
    fn mesh_has_fewer_links_than_torus() {
        let mesh = Mesh::new(vec![4, 4]);
        let torus = Torus::new(vec![4, 4]);
        assert_eq!(mesh.num_nodes(), torus.num_nodes());
        // 4x4 mesh: 2 * 4 * 3 = 24 links; torus: 32.
        assert_eq!(mesh.num_links(), 24);
        assert!(mesh.num_links() < torus.num_links());
    }

    #[test]
    fn corner_and_interior_degrees_differ() {
        let mesh = Mesh::new(vec![3, 3]);
        assert_eq!(mesh.degree(mesh.index_of(&[0, 0])), 2);
        assert_eq!(mesh.degree(mesh.index_of(&[1, 1])), 4);
        assert!(!mesh.is_regular());
    }

    #[test]
    fn distance_has_no_wraparound() {
        let mesh = Mesh::new(vec![8]);
        assert_eq!(mesh.distance(0, 7), 7);
    }

    #[test]
    fn degenerate_dimension_is_allowed() {
        let mesh = Mesh::new(vec![5, 1]);
        assert_eq!(mesh.num_nodes(), 5);
        assert_eq!(mesh.num_links(), 4);
    }
}

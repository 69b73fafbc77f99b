//! ToFu (torus fusion) interconnect model.
//!
//! Section 5 of the paper notes that "the ToFu interconnect used by the
//! K Computer is a high-dimensional torus with certain similarities to
//! Blue Gene/Q", to which the isoperimetric analysis applies directly. ToFu
//! is a six-dimensional network: three system-scale dimensions `X × Y × Z`
//! plus a fixed `2 × 3 × 2` local group (the `A × B × C` dimensions) attached
//! to every `XYZ` coordinate. We model it as a 6-D torus with unit link
//! capacities, which preserves exactly the geometric quantities the analysis
//! consumes (dimension lengths, cuboid cuts, bisection).

use crate::{Topology, Torus};

/// The fixed lengths of ToFu's local `A × B × C` dimensions.
pub const TOFU_LOCAL_DIMS: [usize; 3] = [2, 3, 2];

/// A ToFu network with system dimensions `X × Y × Z` and the fixed
/// `2 × 3 × 2` local group per coordinate.
#[derive(Debug, Clone, PartialEq)]
pub struct Tofu {
    system_dims: [usize; 3],
    torus: Torus,
}

impl Tofu {
    /// Create a ToFu network with the given system (`X`, `Y`, `Z`) extents.
    ///
    /// # Panics
    /// Panics if any system dimension is zero.
    pub fn new(x: usize, y: usize, z: usize) -> Self {
        assert!(
            x >= 1 && y >= 1 && z >= 1,
            "system dimensions must be positive"
        );
        let dims = vec![
            x,
            y,
            z,
            TOFU_LOCAL_DIMS[0],
            TOFU_LOCAL_DIMS[1],
            TOFU_LOCAL_DIMS[2],
        ];
        Self {
            system_dims: [x, y, z],
            torus: Torus::new(dims),
        }
    }

    /// The K computer's production configuration (24 × 18 × 17 system
    /// dimensions, 82,944 nodes).
    pub fn k_computer() -> Self {
        Self::new(24, 18, 17)
    }

    /// System-scale dimensions `X × Y × Z`.
    pub fn system_dims(&self) -> [usize; 3] {
        self.system_dims
    }

    /// All six torus dimension lengths (`X, Y, Z, A, B, C`).
    pub fn dims(&self) -> &[usize] {
        self.torus.dims()
    }

    /// Number of nodes per local `A × B × C` group.
    pub fn nodes_per_group(&self) -> usize {
        TOFU_LOCAL_DIMS.iter().product()
    }

    /// The underlying 6-D torus (for the isoperimetric and simulation tools).
    pub fn torus(&self) -> &Torus {
        &self.torus
    }
}

impl Topology for Tofu {
    fn num_nodes(&self) -> usize {
        self.torus.num_nodes()
    }

    fn neighbor_links(&self, v: usize) -> Vec<(usize, f64)> {
        self.torus.neighbor_links(v)
    }

    fn name(&self) -> String {
        format!(
            "tofu({}x{}x{} x 2x3x2)",
            self.system_dims[0], self.system_dims[1], self.system_dims[2]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The iso crate depends on this crate, so the bisection cross-checks live
    // in the workspace-root `tests/`; here we only verify the graph model.

    #[test]
    fn node_count_and_group_size() {
        let tofu = Tofu::new(4, 3, 2);
        assert_eq!(tofu.nodes_per_group(), 12);
        assert_eq!(tofu.num_nodes(), 4 * 3 * 2 * 12);
        assert_eq!(tofu.dims(), &[4, 3, 2, 2, 3, 2]);
    }

    #[test]
    fn degree_matches_six_dimensional_torus() {
        // Dimensions of length 2 contribute two parallel links, length 3
        // contributes 2 distinct neighbours, length >= 3 likewise.
        let tofu = Tofu::new(4, 4, 4);
        assert!(tofu.is_regular());
        assert_eq!(tofu.degree(0), 12);
    }

    #[test]
    fn k_computer_scale() {
        let k = Tofu::k_computer();
        assert_eq!(k.num_nodes(), 24 * 18 * 17 * 12);
        assert_eq!(k.system_dims(), [24, 18, 17]);
    }

    #[test]
    fn small_system_dimensions_are_allowed() {
        let tofu = Tofu::new(1, 1, 1);
        assert_eq!(tofu.num_nodes(), 12);
        assert!(tofu.to_graph().is_connected());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_dimension_rejected() {
        let _ = Tofu::new(0, 3, 2);
    }
}

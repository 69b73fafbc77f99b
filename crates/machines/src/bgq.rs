//! Blue Gene/Q machine models.
//!
//! A machine is a 4-dimensional torus of midplanes (Section 2). The model
//! keeps only what the analysis needs: the midplane-level geometry, derived
//! node-level dimensions, and the machine-wide bisection bandwidth.

use crate::midplane::{self, NODES_PER_MIDPLANE};
use crate::partition::{enumerate_geometries, PartitionGeometry};
use netpart_topology::Torus;

/// A Blue Gene/Q machine: a named torus of midplanes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlueGeneQ {
    name: String,
    midplane_dims: [usize; 4],
}

impl BlueGeneQ {
    /// Create a machine with the given midplane-level dimensions.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn new(name: impl Into<String>, midplane_dims: [usize; 4]) -> Self {
        assert!(
            midplane_dims.iter().all(|&d| d >= 1),
            "machine dimensions must be >= 1"
        );
        let mut sorted = midplane_dims;
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        Self {
            name: name.into(),
            midplane_dims: sorted,
        }
    }

    /// Machine name (e.g. "Mira").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Midplane-level dimensions in descending order.
    pub fn midplane_dims(&self) -> [usize; 4] {
        self.midplane_dims
    }

    /// Total number of midplanes.
    pub fn num_midplanes(&self) -> usize {
        self.midplane_dims.iter().product()
    }

    /// Total number of compute nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_midplanes() * NODES_PER_MIDPLANE
    }

    /// Node-level network dimensions (including the internal length-2
    /// dimension).
    pub fn node_dims(&self) -> [usize; 5] {
        midplane::node_dims(&self.midplane_dims)
    }

    /// The machine's full network as a torus.
    pub fn torus(&self) -> Torus {
        Torus::new(self.node_dims().to_vec())
    }

    /// Machine-wide bisection bandwidth in links (the `2·N/L` formula).
    pub fn bisection_links(&self) -> u64 {
        netpart_iso::torus_bisection_links(&self.node_dims())
    }

    /// The full machine viewed as a partition geometry.
    pub fn as_partition(&self) -> PartitionGeometry {
        PartitionGeometry::new(self.midplane_dims)
    }

    /// Whether a partition geometry fits in this machine.
    pub fn admits(&self, geometry: &PartitionGeometry) -> bool {
        geometry.fits_in(self.midplane_dims)
    }

    /// Every canonical partition geometry of the given midplane count that
    /// fits in this machine.
    pub fn geometries(&self, midplanes: usize) -> Vec<PartitionGeometry> {
        enumerate_geometries(self.midplane_dims, midplanes)
    }

    /// Midplane counts for which at least one cuboid partition exists,
    /// in increasing order (1 up to the full machine).
    pub fn feasible_sizes(&self) -> Vec<usize> {
        (1..=self.num_midplanes())
            .filter(|&m| !self.geometries(m).is_empty())
            .collect()
    }
}

impl std::fmt::Display for BlueGeneQ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let d = self.midplane_dims;
        write!(
            f,
            "{} ({} x {} x {} x {} midplanes, {} nodes)",
            self.name,
            d[0],
            d[1],
            d[2],
            d[3],
            self.num_nodes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_counts_match_paper() {
        let mira = BlueGeneQ::new("Mira", [4, 4, 3, 2]);
        assert_eq!(mira.num_midplanes(), 96);
        assert_eq!(mira.num_nodes(), 49152);
        assert_eq!(mira.node_dims(), [16, 16, 12, 8, 2]);
        assert_eq!(mira.bisection_links(), 6144);

        let juqueen = BlueGeneQ::new("JUQUEEN", [7, 2, 2, 2]);
        assert_eq!(juqueen.num_midplanes(), 56);
        assert_eq!(juqueen.num_nodes(), 28672);
        assert_eq!(juqueen.bisection_links(), 2048);
    }

    #[test]
    fn admits_checks_geometry_fit() {
        let juqueen = BlueGeneQ::new("JUQUEEN", [7, 2, 2, 2]);
        assert!(juqueen.admits(&PartitionGeometry::new([7, 2, 2, 2])));
        assert!(juqueen.admits(&PartitionGeometry::new([3, 2, 1, 1])));
        assert!(!juqueen.admits(&PartitionGeometry::new([3, 3, 1, 1])));
        assert!(!juqueen.admits(&PartitionGeometry::new([8, 1, 1, 1])));
    }

    #[test]
    fn feasible_sizes_exclude_unrepresentable_counts() {
        let juqueen = BlueGeneQ::new("JUQUEEN", [7, 2, 2, 2]);
        let sizes = juqueen.feasible_sizes();
        // Table 7 lists exactly these counts.
        assert_eq!(
            sizes,
            vec![1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40, 48, 56]
        );
    }

    #[test]
    fn dimensions_are_canonicalized() {
        let m = BlueGeneQ::new("test", [2, 4, 3, 4]);
        assert_eq!(m.midplane_dims(), [4, 4, 3, 2]);
    }

    #[test]
    fn full_machine_is_its_own_partition() {
        let mira = BlueGeneQ::new("Mira", [4, 4, 3, 2]);
        let full = mira.as_partition();
        assert_eq!(full.num_midplanes(), mira.num_midplanes());
        assert_eq!(full.bisection_links(), mira.bisection_links());
    }
}

//! Midplane occupancy tracking and cuboid placement.
//!
//! The scheduler simulator needs to know not only *which* geometry a job
//! should get but whether a free axis-aligned cuboid of midplanes with that
//! geometry currently exists in the machine. Blue Gene/Q wires wrap-around
//! links into partitions even when they do not span a dimension, so any
//! offset (with modular wrap) is a legal anchor; a placement is therefore an
//! anchor plus an assignment of the geometry's sorted dimensions to machine
//! axes.

use netpart_machines::{BlueGeneQ, PartitionGeometry};

/// A concrete placement of a partition inside the midplane grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Anchor midplane coordinate (per machine axis).
    pub offset: [usize; 4],
    /// Extent along each machine axis (an axis assignment of the geometry).
    pub extent: [usize; 4],
}

impl Placement {
    /// Number of midplanes covered.
    pub fn num_midplanes(&self) -> usize {
        self.extent.iter().product()
    }

    /// The canonical geometry (sorted extent) of this placement.
    pub fn geometry(&self) -> PartitionGeometry {
        PartitionGeometry::new(self.extent)
    }

    /// Midplane coordinates covered by this placement (with wrap).
    pub fn covered(&self, machine_dims: [usize; 4]) -> Vec<[usize; 4]> {
        let mut cells = Vec::with_capacity(self.num_midplanes());
        for a in 0..self.extent[0] {
            for b in 0..self.extent[1] {
                for c in 0..self.extent[2] {
                    for d in 0..self.extent[3] {
                        cells.push([
                            (self.offset[0] + a) % machine_dims[0],
                            (self.offset[1] + b) % machine_dims[1],
                            (self.offset[2] + c) % machine_dims[2],
                            (self.offset[3] + d) % machine_dims[3],
                        ]);
                    }
                }
            }
        }
        cells
    }
}

/// Occupancy state of a machine's midplane grid.
#[derive(Debug, Clone)]
pub struct OccupancyGrid {
    machine_dims: [usize; 4],
    /// `true` = midplane is currently allocated to some job.
    busy: Vec<bool>,
}

impl OccupancyGrid {
    /// An empty (fully free) grid for a machine.
    pub fn new(machine: &BlueGeneQ) -> Self {
        let dims = machine.midplane_dims();
        Self {
            machine_dims: dims,
            busy: vec![false; dims.iter().product()],
        }
    }

    /// The machine's midplane dimensions.
    pub fn machine_dims(&self) -> [usize; 4] {
        self.machine_dims
    }

    /// Total midplanes in the machine.
    pub fn total_midplanes(&self) -> usize {
        self.busy.len()
    }

    /// Currently allocated midplanes.
    pub fn busy_midplanes(&self) -> usize {
        self.busy.iter().filter(|&&b| b).count()
    }

    /// Currently free midplanes.
    pub fn free_midplanes(&self) -> usize {
        self.total_midplanes() - self.busy_midplanes()
    }

    /// Fraction of the machine currently allocated.
    pub fn utilization(&self) -> f64 {
        self.busy_midplanes() as f64 / self.total_midplanes() as f64
    }

    fn index(&self, cell: [usize; 4]) -> usize {
        ((cell[0] * self.machine_dims[1] + cell[1]) * self.machine_dims[2] + cell[2])
            * self.machine_dims[3]
            + cell[3]
    }

    /// Whether every midplane covered by `placement` is currently free.
    pub fn fits(&self, placement: &Placement) -> bool {
        placement
            .covered(self.machine_dims)
            .iter()
            .all(|&cell| !self.busy[self.index(cell)])
    }

    /// All axis assignments (extent vectors) of a geometry that fit inside
    /// the machine dimensions, ignoring occupancy.
    fn axis_assignments(&self, geometry: &PartitionGeometry) -> Vec<[usize; 4]> {
        let dims = geometry.dims();
        let mut assignments = Vec::new();
        let mut perm = [0usize; 4];
        let mut used = [false; 4];
        fn recurse(
            dims: &[usize; 4],
            machine: &[usize; 4],
            perm: &mut [usize; 4],
            used: &mut [bool; 4],
            depth: usize,
            out: &mut Vec<[usize; 4]>,
        ) {
            if depth == 4 {
                let extent = [dims[perm[0]], dims[perm[1]], dims[perm[2]], dims[perm[3]]];
                if extent.iter().zip(machine).all(|(e, m)| e <= m) && !out.contains(&extent) {
                    out.push(extent);
                }
                return;
            }
            for i in 0..4 {
                if !used[i] {
                    used[i] = true;
                    perm[depth] = i;
                    recurse(dims, machine, perm, used, depth + 1, out);
                    used[i] = false;
                }
            }
        }
        recurse(
            &dims,
            &self.machine_dims,
            &mut perm,
            &mut used,
            0,
            &mut assignments,
        );
        assignments
    }

    /// Find a free placement of `geometry`, scanning axis assignments and
    /// anchors in deterministic order. Returns `None` when no free placement
    /// exists right now.
    pub fn find_placement(&self, geometry: &PartitionGeometry) -> Option<Placement> {
        for extent in self.axis_assignments(geometry) {
            for a in 0..self.machine_dims[0] {
                for b in 0..self.machine_dims[1] {
                    for c in 0..self.machine_dims[2] {
                        for d in 0..self.machine_dims[3] {
                            let placement = Placement {
                                offset: [a, b, c, d],
                                extent,
                            };
                            if self.fits(&placement) {
                                return Some(placement);
                            }
                        }
                    }
                }
            }
        }
        None
    }

    /// Mark a placement as allocated.
    ///
    /// # Panics
    /// Panics if any covered midplane is already busy (double allocation).
    pub fn allocate(&mut self, placement: &Placement) {
        for cell in placement.covered(self.machine_dims) {
            let idx = self.index(cell);
            assert!(!self.busy[idx], "midplane {cell:?} is already allocated");
            self.busy[idx] = true;
        }
    }

    /// Release a placement.
    ///
    /// # Panics
    /// Panics if any covered midplane is not currently busy.
    pub fn release(&mut self, placement: &Placement) {
        for cell in placement.covered(self.machine_dims) {
            let idx = self.index(cell);
            assert!(self.busy[idx], "midplane {cell:?} is not allocated");
            self.busy[idx] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_machines::known;

    #[test]
    fn empty_machine_fits_every_admissible_geometry() {
        let mira = known::mira();
        let grid = OccupancyGrid::new(&mira);
        for midplanes in mira.feasible_sizes() {
            for geometry in mira.geometries(midplanes) {
                assert!(
                    grid.find_placement(&geometry).is_some(),
                    "geometry {:?} should fit an empty machine",
                    geometry.dims()
                );
            }
        }
    }

    #[test]
    fn placement_covers_the_right_number_of_midplanes() {
        let juqueen = known::juqueen();
        let grid = OccupancyGrid::new(&juqueen);
        let geometry = PartitionGeometry::new([3, 2, 2, 1]);
        let placement = grid.find_placement(&geometry).unwrap();
        assert_eq!(placement.num_midplanes(), 12);
        assert_eq!(placement.covered(grid.machine_dims()).len(), 12);
        assert_eq!(placement.geometry().dims(), geometry.dims());
    }

    #[test]
    fn allocate_release_round_trip_restores_free_count() {
        let mira = known::mira();
        let mut grid = OccupancyGrid::new(&mira);
        let geometry = PartitionGeometry::new([2, 2, 2, 2]);
        let placement = grid.find_placement(&geometry).unwrap();
        grid.allocate(&placement);
        assert_eq!(grid.busy_midplanes(), 16);
        assert!((grid.utilization() - 16.0 / 96.0).abs() < 1e-12);
        grid.release(&placement);
        assert_eq!(grid.busy_midplanes(), 0);
    }

    #[test]
    fn allocations_never_overlap() {
        let juqueen = known::juqueen();
        let mut grid = OccupancyGrid::new(&juqueen);
        let geometry = PartitionGeometry::new([2, 2, 2, 1]);
        let mut placements = Vec::new();
        // JUQUEEN has 56 midplanes; seven disjoint 8-midplane blocks fit.
        for _ in 0..7 {
            let placement = grid.find_placement(&geometry).expect("block should fit");
            grid.allocate(&placement);
            placements.push(placement);
        }
        assert_eq!(grid.busy_midplanes(), 56);
        assert!(grid.find_placement(&geometry).is_none());
        let mut seen = std::collections::HashSet::new();
        for p in &placements {
            for cell in p.covered(grid.machine_dims()) {
                assert!(seen.insert(cell), "cell {cell:?} allocated twice");
            }
        }
    }

    #[test]
    fn full_machine_rejects_further_placements() {
        let mira = known::mira();
        let mut grid = OccupancyGrid::new(&mira);
        let full = PartitionGeometry::new(mira.midplane_dims());
        let placement = grid.find_placement(&full).unwrap();
        grid.allocate(&placement);
        assert_eq!(grid.free_midplanes(), 0);
        assert!(grid
            .find_placement(&PartitionGeometry::new([1, 1, 1, 1]))
            .is_none());
    }

    #[test]
    fn oversized_geometry_has_no_placement() {
        let juqueen = known::juqueen(); // 7 x 2 x 2 x 2
        let grid = OccupancyGrid::new(&juqueen);
        assert!(grid
            .find_placement(&PartitionGeometry::new([3, 3, 1, 1]))
            .is_none());
    }

    #[test]
    #[should_panic(expected = "already allocated")]
    fn double_allocation_panics() {
        let mira = known::mira();
        let mut grid = OccupancyGrid::new(&mira);
        let placement = grid
            .find_placement(&PartitionGeometry::new([2, 1, 1, 1]))
            .unwrap();
        grid.allocate(&placement);
        grid.allocate(&placement);
    }
}

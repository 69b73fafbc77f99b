//! Optimal and worst-case partition geometries.
//!
//! Section 3.2 of the paper applies Lemma 3.3 to find, for every partition
//! size a machine supports, the cuboid geometry with the greatest internal
//! bisection bandwidth (and, for flexible schedulers, the worst one a
//! size-only request may receive). By Corollary 3.4 the best geometry is the
//! one minimizing the longest dimension; we nevertheless rank by the actual
//! bisection value so the code remains correct for any future machine shape.

use netpart_machines::{BlueGeneQ, PartitionGeometry};

/// The best- and worst-bisection geometries of a given size on a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeometryExtremes {
    /// Requested partition size in midplanes.
    pub midplanes: usize,
    /// Geometry with maximal internal bisection bandwidth.
    pub best: PartitionGeometry,
    /// Geometry with minimal internal bisection bandwidth.
    pub worst: PartitionGeometry,
}

impl GeometryExtremes {
    /// Ratio of best to worst bisection bandwidth (the potential speedup of a
    /// perfectly contention-bound workload).
    pub fn potential_speedup(&self) -> f64 {
        self.best.bisection_links() as f64 / self.worst.bisection_links() as f64
    }

    /// Whether geometry choice matters at all for this size.
    pub fn has_spread(&self) -> bool {
        self.best.bisection_links() != self.worst.bisection_links()
    }
}

/// The geometry of the given size with maximal internal bisection bandwidth,
/// or `None` if the size is not representable as a cuboid on this machine.
///
/// Ties are broken towards the lexicographically smallest canonical geometry
/// so results are deterministic.
pub fn best_geometry(machine: &BlueGeneQ, midplanes: usize) -> Option<PartitionGeometry> {
    machine.geometries(midplanes).into_iter().max_by(|a, b| {
        a.bisection_links()
            .cmp(&b.bisection_links())
            .then_with(|| b.cmp(a))
    })
}

/// The geometry of the given size with minimal internal bisection bandwidth.
pub fn worst_geometry(machine: &BlueGeneQ, midplanes: usize) -> Option<PartitionGeometry> {
    machine.geometries(midplanes).into_iter().min_by(|a, b| {
        a.bisection_links()
            .cmp(&b.bisection_links())
            .then_with(|| a.cmp(b))
    })
}

/// Best and worst geometries together.
pub fn extremes(machine: &BlueGeneQ, midplanes: usize) -> Option<GeometryExtremes> {
    Some(GeometryExtremes {
        midplanes,
        best: best_geometry(machine, midplanes)?,
        worst: worst_geometry(machine, midplanes)?,
    })
}

/// An improvement proposal for a specific currently-used geometry: the best
/// same-size geometry and the predicted contention-bound speedup, or `None`
/// if the current geometry is already optimal.
pub fn propose_improvement(
    machine: &BlueGeneQ,
    current: &PartitionGeometry,
) -> Option<(PartitionGeometry, f64)> {
    let best = best_geometry(machine, current.num_midplanes())?;
    if best.bisection_links() > current.bisection_links() {
        Some((best, current.contention_speedup_to(&best)))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_machines::known;

    #[test]
    fn juqueen_table2_extremes() {
        let juqueen = known::juqueen();
        let cases = [
            (4usize, [2, 2, 1, 1], [4, 1, 1, 1]),
            (6, [3, 2, 1, 1], [6, 1, 1, 1]),
            (8, [2, 2, 2, 1], [4, 2, 1, 1]),
            (12, [3, 2, 2, 1], [6, 2, 1, 1]),
            (16, [2, 2, 2, 2], [4, 2, 2, 1]),
            (24, [3, 2, 2, 2], [6, 2, 2, 1]),
        ];
        for (m, best, worst) in cases {
            let e = extremes(&juqueen, m).unwrap();
            assert_eq!(e.best, PartitionGeometry::new(best), "{m} midplanes best");
            assert_eq!(
                e.worst,
                PartitionGeometry::new(worst),
                "{m} midplanes worst"
            );
        }
    }

    #[test]
    fn potential_speedup_is_two_for_improvable_sizes() {
        let juqueen = known::juqueen();
        for m in [4usize, 6, 8, 12, 16, 24] {
            let e = extremes(&juqueen, m).unwrap();
            assert!((e.potential_speedup() - 2.0).abs() < 1e-12, "{m} midplanes");
            assert!(e.has_spread());
        }
        // Ring-only sizes have no spread.
        for m in [5usize, 7, 14] {
            let e = extremes(&juqueen, m).unwrap();
            assert!(!e.has_spread(), "{m} midplanes");
        }
    }

    #[test]
    fn mira_proposals_match_table1() {
        let mira = known::mira();
        let current: std::collections::BTreeMap<usize, PartitionGeometry> =
            known::mira_scheduler_partitions().into_iter().collect();
        let expected: std::collections::BTreeMap<usize, PartitionGeometry> =
            known::mira_proposed_partitions().into_iter().collect();
        for (&size, cur) in &current {
            match propose_improvement(&mira, cur) {
                Some((best, speedup)) => {
                    let want = expected
                        .get(&size)
                        .unwrap_or_else(|| panic!("unexpected improvement for size {size}"));
                    assert_eq!(
                        best.bisection_links(),
                        want.bisection_links(),
                        "size {size}"
                    );
                    assert!(speedup > 1.0);
                }
                None => {
                    assert!(
                        !expected.contains_key(&size),
                        "size {size} should have an improvement"
                    );
                }
            }
        }
    }

    #[test]
    fn sequoia_supports_both_optimal_and_suboptimal_partitions() {
        // Section 5: Sequoia's flexible scheduler admits sub-optimal
        // geometries for certain midplane counts.
        let sequoia = known::sequoia();
        let e = extremes(&sequoia, 16).unwrap();
        assert!(e.has_spread());
        assert_eq!(e.best, PartitionGeometry::new([2, 2, 2, 2]));
    }

    #[test]
    fn unrepresentable_sizes_yield_none() {
        let juqueen = known::juqueen();
        assert!(best_geometry(&juqueen, 9).is_none());
        assert!(extremes(&juqueen, 11).is_none());
    }

    #[test]
    fn best_geometry_minimizes_longest_dimension() {
        // Corollary 3.4 cross-check: on every feasible Mira size the best
        // geometry also has the smallest longest-dimension.
        let mira = known::mira();
        for m in mira.feasible_sizes() {
            let best = best_geometry(&mira, m).unwrap();
            let min_longest = mira
                .geometries(m)
                .into_iter()
                .map(|g| g.longest_dim())
                .min()
                .unwrap();
            assert_eq!(best.longest_dim(), min_longest, "{m} midplanes");
        }
    }
}

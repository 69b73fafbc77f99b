//! Allocation-policy analysis: the paper's primary contribution as an API.
//!
//! Given a machine and its allocation policy, [`analyze_policy`] produces the
//! full picture Section 3.2 derives for Mira and JUQUEEN: for every
//! supported partition size, the geometry the policy hands out, the optimal
//! geometry, the bisection bandwidths of both, and the predicted speedup for
//! contention-bound workloads. This is the entry point a system operator (or
//! a scheduler) would call to decide whether a policy change is worthwhile.

use netpart_alloc::{best_geometry, ComparisonRow};
use netpart_machines::{AllocationSystem, BlueGeneQ, PartitionGeometry};

/// The analysis of one allocation policy.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyAnalysis {
    /// Machine name.
    pub machine: String,
    /// Per-size comparison of the policy's geometry against the optimum.
    pub rows: Vec<ComparisonRow>,
}

impl PolicyAnalysis {
    /// Sizes (in midplanes) whose bisection bandwidth the policy leaves on
    /// the table.
    pub fn improvable_sizes(&self) -> Vec<usize> {
        self.rows
            .iter()
            .filter(|r| r.improved.is_some())
            .map(|r| r.midplanes)
            .collect()
    }

    /// The largest contention-bound speedup available from a geometry change.
    pub fn max_speedup(&self) -> f64 {
        self.rows.iter().map(|r| r.speedup()).fold(1.0, f64::max)
    }

    /// Whether the policy is already optimal at every supported size.
    pub fn is_optimal(&self) -> bool {
        self.rows.iter().all(|r| r.improved.is_none())
    }
}

/// Analyse an allocation system: for every supported size, compare the
/// geometry a size-only request receives in the worst case against the best
/// geometry the machine admits.
pub fn analyze_policy(system: &AllocationSystem) -> PolicyAnalysis {
    PolicyAnalysis {
        machine: system.machine().name().to_string(),
        rows: netpart_alloc::current_vs_proposed(system),
    }
}

/// A single-size recommendation: what geometry to request and what it buys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recommendation {
    /// Requested size in midplanes.
    pub midplanes: usize,
    /// The geometry to ask the scheduler for.
    pub geometry: PartitionGeometry,
    /// Its internal bisection bandwidth in links.
    pub bisection_links: u64,
    /// Speedup over the worst geometry of the same size for a perfectly
    /// contention-bound workload.
    pub speedup_over_worst: f64,
}

/// Recommend a geometry for a job of the given size on a machine, or `None`
/// when the size is not allocatable as a cuboid of midplanes.
pub fn recommend(machine: &BlueGeneQ, midplanes: usize) -> Option<Recommendation> {
    let extremes = netpart_alloc::extremes(machine, midplanes)?;
    Some(Recommendation {
        midplanes,
        geometry: extremes.best,
        bisection_links: extremes.best.bisection_links(),
        speedup_over_worst: extremes.potential_speedup(),
    })
}

/// The predicted contention-bound speedup of running on `better` instead of
/// `worse` (the bisection-bandwidth ratio, Corollary 3.4's quantitative
/// consequence).
pub fn predicted_speedup(worse: &PartitionGeometry, better: &PartitionGeometry) -> f64 {
    worse.contention_speedup_to(better)
}

/// Convenience: the two production policies the paper analyses, ready for
/// [`analyze_policy`].
pub fn paper_systems() -> Vec<AllocationSystem> {
    vec![
        AllocationSystem::mira_production(),
        AllocationSystem::juqueen_production(),
    ]
}

/// Extension of the analysis to other machines with flexible policies: the
/// best geometry for every feasible size (used for Sequoia and the
/// hypothetical machines of Section 5).
pub fn best_geometry_catalog(machine: &BlueGeneQ) -> Vec<(usize, PartitionGeometry)> {
    machine
        .feasible_sizes()
        .into_iter()
        .filter_map(|m| best_geometry(machine, m).map(|g| (m, g)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_machines::known;

    #[test]
    fn mira_production_policy_is_improvable() {
        let analysis = analyze_policy(&AllocationSystem::mira_production());
        assert_eq!(analysis.machine, "Mira");
        assert!(!analysis.is_optimal());
        assert_eq!(analysis.improvable_sizes(), vec![4, 8, 16, 24]);
        assert!((analysis.max_speedup() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mira_proposed_policy_is_optimal() {
        let analysis = analyze_policy(&AllocationSystem::mira_proposed());
        assert!(analysis.is_optimal());
        assert!((analysis.max_speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recommendation_for_the_paper_example() {
        let rec = recommend(&known::mira(), 4).unwrap();
        assert_eq!(rec.geometry, PartitionGeometry::new([2, 2, 1, 1]));
        assert_eq!(rec.bisection_links, 512);
        assert!((rec.speedup_over_worst - 2.0).abs() < 1e-12);
        assert!(recommend(&known::juqueen(), 9).is_none());
    }

    #[test]
    fn predicted_speedups_match_table1_ratios() {
        let cases = [
            ([4, 1, 1, 1], [2, 2, 1, 1], 2.0),
            ([4, 2, 1, 1], [2, 2, 2, 1], 2.0),
            ([4, 4, 1, 1], [2, 2, 2, 2], 2.0),
            ([4, 3, 2, 1], [3, 2, 2, 2], 4.0 / 3.0),
        ];
        for (worse, better, expected) in cases {
            let s = predicted_speedup(
                &PartitionGeometry::new(worse),
                &PartitionGeometry::new(better),
            );
            assert!((s - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn catalogs_cover_all_feasible_sizes() {
        let catalog = best_geometry_catalog(&known::juqueen_54());
        assert_eq!(catalog.len(), known::juqueen_54().feasible_sizes().len());
        assert!(catalog
            .iter()
            .any(|&(m, g)| m == 27 && g == PartitionGeometry::new([3, 3, 3, 1])));
    }

    #[test]
    fn paper_systems_are_the_two_production_machines() {
        let systems = paper_systems();
        assert_eq!(systems.len(), 2);
        assert_eq!(systems[0].machine().name(), "Mira");
        assert_eq!(systems[1].machine().name(), "JUQUEEN");
    }
}

//! The strong-scaling experiment (Section 4.3, Table 4, Figure 6).
//!
//! The experiment runs the same fast matrix multiplication (dimension 9408)
//! on 2, 4 and 8 midplanes and asks whether the communication cost scales
//! down linearly. The answer depends on the partition geometry: with the
//! proposed geometries it does, with the current geometries it appears not
//! to — which is exactly the "false scaling conclusion" hazard the paper
//! warns about.

use crate::caps::{run_caps, CapsConfig, CapsRunResult};
use netpart_machines::PartitionGeometry;
use netpart_mpi::MappingStrategy;

/// One row of Table 4: the configuration used at a given midplane count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Partition size in midplanes.
    pub midplanes: usize,
    /// CAPS configuration (rank count, matrix dimension, cores per node).
    pub config: CapsConfig,
    /// The currently-defined scheduler geometry at this size.
    pub current: PartitionGeometry,
    /// The proposed geometry at this size.
    pub proposed: PartitionGeometry,
}

/// The Table 4 experiment plan: matrix dimension 9408 on 2, 4 and 8
/// midplanes with `7^4`, `2·7^4` and `4·7^4` ranks.
pub fn mira_table4_plan() -> Vec<ScalingPoint> {
    vec![
        ScalingPoint {
            midplanes: 2,
            config: CapsConfig::new(9408, 2401, 4, 4),
            current: PartitionGeometry::new([2, 1, 1, 1]),
            proposed: PartitionGeometry::new([2, 1, 1, 1]),
        },
        ScalingPoint {
            midplanes: 4,
            config: CapsConfig::new(9408, 4802, 4, 4),
            current: PartitionGeometry::new([4, 1, 1, 1]),
            proposed: PartitionGeometry::new([2, 2, 1, 1]),
        },
        ScalingPoint {
            midplanes: 8,
            config: CapsConfig::new(9408, 9604, 4, 4),
            current: PartitionGeometry::new([4, 2, 1, 1]),
            proposed: PartitionGeometry::new([2, 2, 2, 1]),
        },
    ]
}

/// Results for one midplane count: the same computation on the current and
/// the proposed geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingResult {
    /// Partition size in midplanes.
    pub midplanes: usize,
    /// Run on the currently-defined geometry.
    pub current: CapsRunResult,
    /// Run on the proposed geometry.
    pub proposed: CapsRunResult,
}

/// Run the full strong-scaling sweep.
pub fn run_strong_scaling(plan: &[ScalingPoint]) -> Vec<ScalingResult> {
    plan.iter()
        .map(|point| ScalingResult {
            midplanes: point.midplanes,
            current: run_caps(&point.config, &point.current, MappingStrategy::Balanced),
            proposed: run_caps(&point.config, &point.proposed, MappingStrategy::Balanced),
        })
        .collect()
}

/// Parallel-efficiency style summary: communication time at the base point
/// divided by (scale factor × communication time at the scaled point); 1.0
/// means perfect linear scaling of communication cost.
pub fn communication_scaling_efficiency(
    results: &[ScalingResult],
    proposed: bool,
) -> Vec<(usize, f64)> {
    let Some(base) = results.first() else {
        return Vec::new();
    };
    let base_time = |r: &ScalingResult| {
        if proposed {
            r.proposed.communication_seconds
        } else {
            r.current.communication_seconds
        }
    };
    let t0 = base_time(base);
    let m0 = base.midplanes as f64;
    results
        .iter()
        .map(|r| {
            let scale = r.midplanes as f64 / m0;
            (r.midplanes, t0 / (scale * base_time(r)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_plan_matches_the_paper() {
        let plan = mira_table4_plan();
        assert_eq!(plan.len(), 3);
        assert_eq!(plan[0].config.ranks, 2401);
        assert_eq!(plan[1].config.ranks, 4802);
        assert_eq!(plan[2].config.ranks, 9604);
        assert!(plan.iter().all(|p| p.config.matrix_dim == 9408));
        // Bisection bandwidths of Table 4.
        assert_eq!(plan[0].current.bisection_links(), 256);
        assert_eq!(plan[1].current.bisection_links(), 256);
        assert_eq!(plan[1].proposed.bisection_links(), 512);
        assert_eq!(plan[2].current.bisection_links(), 512);
        assert_eq!(plan[2].proposed.bisection_links(), 1024);
        // The 2-midplane point allows only one geometry.
        assert_eq!(plan[0].current, plan[0].proposed);
    }

    #[test]
    fn proposed_geometries_scale_communication_better() {
        // Scaled-down version of Figure 6 (smaller matrix and rank counts so
        // the test stays fast): communication time on the proposed
        // geometries drops faster from 2 to 8 midplanes than on the current
        // geometries.
        let plan: Vec<ScalingPoint> = mira_table4_plan()
            .into_iter()
            .map(|mut p| {
                p.config.matrix_dim = 4704;
                p.config.ranks /= 7; // 343, 686, 1372 ranks
                p.config.bfs_steps = 3; // 7^3 divides every reduced rank count
                p
            })
            .collect();
        let results = run_strong_scaling(&plan);
        let current_drop =
            results[0].current.communication_seconds / results[2].current.communication_seconds;
        let proposed_drop =
            results[0].proposed.communication_seconds / results[2].proposed.communication_seconds;
        assert!(
            proposed_drop > current_drop,
            "proposed geometries should scale better: {proposed_drop} vs {current_drop}"
        );
        // At 8 midplanes the proposed geometry is strictly faster.
        assert!(
            results[2].proposed.communication_seconds < results[2].current.communication_seconds
        );
        // The 2-midplane point is identical by construction.
        assert!(
            (results[0].current.communication_seconds - results[0].proposed.communication_seconds)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn efficiency_of_the_base_point_is_one() {
        let plan: Vec<ScalingPoint> = mira_table4_plan()
            .into_iter()
            .take(1)
            .map(|mut p| {
                p.config.matrix_dim = 2352;
                p.config.ranks = 343;
                p.config.bfs_steps = 3;
                p
            })
            .collect();
        let results = run_strong_scaling(&plan);
        let eff = communication_scaling_efficiency(&results, true);
        assert_eq!(eff.len(), 1);
        assert!((eff[0].1 - 1.0).abs() < 1e-12);
    }
}

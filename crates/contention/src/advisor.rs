//! Kernel-aware partition advice for real allocation policies.
//!
//! This module connects the contention lower bounds to the machine models:
//! given a kernel, a Blue Gene/Q system and a requested size in midplanes, it
//! reports how much of the runtime lower bound is contention, which geometry
//! the policy would be best advised to hand out, and the predicted payoff of
//! doing so. This is the quantitative form of the paper's closing suggestion
//! that "processor allocation policy decisions of job schedulers can be
//! improved if they are informed whether a given computation is expected to
//! be network-bound or not".

use crate::bounds::{
    runtime_breakdown, ContentionModel, NodeModel, RuntimeBreakdown, RuntimeRegime,
};
use netpart_machines::{BlueGeneQ, PartitionGeometry};

/// Kernel-aware assessment of one partition size on one machine.
#[derive(Debug, Clone)]
pub struct KernelAdvice {
    /// Requested size in midplanes.
    pub midplanes: usize,
    /// Geometry with the worst internal bisection among admissible ones.
    pub worst_geometry: PartitionGeometry,
    /// Geometry with the best internal bisection among admissible ones.
    pub best_geometry: PartitionGeometry,
    /// Runtime lower-bound breakdown on the worst geometry.
    pub worst_breakdown: RuntimeBreakdown,
    /// Runtime lower-bound breakdown on the best geometry.
    pub best_breakdown: RuntimeBreakdown,
}

impl KernelAdvice {
    /// Predicted wall-clock speedup of taking the best geometry instead of
    /// the worst, from the runtime lower bounds (1.0 when the kernel is not
    /// contention-bound on this size).
    pub fn predicted_speedup(&self) -> f64 {
        let worst = self.worst_breakdown.lower_bound_seconds();
        let best = self.best_breakdown.lower_bound_seconds();
        if best <= 0.0 {
            1.0
        } else {
            worst / best
        }
    }

    /// The regime the kernel lands in on the worst admissible geometry.
    pub fn regime(&self) -> RuntimeRegime {
        self.worst_breakdown.regime()
    }

    /// Whether the scheduler should bother waiting for (or carving out) the
    /// better geometry: true when the kernel is contention-bound and the
    /// better geometry buys a non-trivial speedup.
    pub fn geometry_matters(&self) -> bool {
        self.regime() == RuntimeRegime::ContentionBound && self.predicted_speedup() > 1.05
    }
}

/// Assess a kernel on every admissible geometry of `midplanes` midplanes of a
/// machine. Returns `None` if the machine cannot host that many midplanes.
pub fn advise_kernel(
    machine: &BlueGeneQ,
    model: &ContentionModel,
    node: &NodeModel,
    midplanes: usize,
) -> Option<KernelAdvice> {
    let geometries = machine.geometries(midplanes);
    if geometries.is_empty() {
        return None;
    }
    let worst = geometries
        .iter()
        .min_by_key(|g| g.bisection_links())
        .cloned()
        .expect("non-empty geometry list");
    let best = geometries
        .iter()
        .max_by_key(|g| g.bisection_links())
        .cloned()
        .expect("non-empty geometry list");
    let worst_dims: Vec<usize> = worst.node_dims().to_vec();
    let best_dims: Vec<usize> = best.node_dims().to_vec();
    Some(KernelAdvice {
        midplanes,
        worst_geometry: worst,
        best_geometry: best,
        worst_breakdown: runtime_breakdown(model, node, &worst_dims),
        best_breakdown: runtime_breakdown(model, node, &best_dims),
    })
}

/// Assess a kernel across all sizes supported by a machine's midplane grid,
/// returning only the sizes where geometry actually matters for this kernel.
pub fn sizes_where_geometry_matters(
    machine: &BlueGeneQ,
    model: &ContentionModel,
    node: &NodeModel,
) -> Vec<KernelAdvice> {
    machine
        .feasible_sizes()
        .into_iter()
        .filter(|&m| m >= 2)
        .filter_map(|m| advise_kernel(machine, model, node, m))
        .filter(KernelAdvice::geometry_matters)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::Kernel;
    use netpart_machines::known;

    fn pairing_like_kernel() -> ContentionModel {
        // A pure-communication kernel similar to the paper's bisection-pairing
        // benchmark: 2 GB per rank, negligible compute.
        ContentionModel::bgq(Kernel::Custom {
            words_per_proc: 2e9 / 8.0,
            flops_per_proc: 1.0,
        })
    }

    #[test]
    fn pairing_kernel_sees_factor_two_on_improvable_mira_sizes() {
        let mira = known::mira();
        let node = NodeModel::bgq();
        let model = pairing_like_kernel();
        for midplanes in [4usize, 8, 16] {
            let advice = advise_kernel(&mira, &model, &node, midplanes).unwrap();
            assert_eq!(advice.regime(), RuntimeRegime::ContentionBound);
            assert!(
                (advice.predicted_speedup() - 2.0).abs() < 1e-9,
                "{midplanes} midplanes"
            );
            assert!(advice.geometry_matters());
        }
        // 24 midplanes: 1536 -> 2048 links, predicted x1.33.
        let advice = advise_kernel(&mira, &model, &node, 24).unwrap();
        assert!((advice.predicted_speedup() - 2048.0 / 1536.0).abs() < 1e-6);
    }

    #[test]
    fn compute_heavy_kernel_does_not_care_about_geometry() {
        let mira = known::mira();
        let node = NodeModel::bgq();
        let model = ContentionModel::bgq(Kernel::Custom {
            words_per_proc: 1.0,
            flops_per_proc: 1e15,
        });
        let advice = advise_kernel(&mira, &model, &node, 4).unwrap();
        assert_eq!(advice.regime(), RuntimeRegime::ComputeBound);
        assert!(!advice.geometry_matters());
        assert!((advice.predicted_speedup() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unsupported_size_yields_none() {
        let mira = known::mira();
        let node = NodeModel::bgq();
        let model = pairing_like_kernel();
        assert!(advise_kernel(&mira, &model, &node, 1000).is_none());
    }

    #[test]
    fn geometry_sensitive_sizes_are_the_tables_improvable_rows() {
        // For a pure-communication kernel on JUQUEEN the sizes where geometry
        // matters are exactly the sizes of Table 2 (best and worst differ).
        let juqueen = known::juqueen();
        let node = NodeModel::bgq();
        let model = pairing_like_kernel();
        let advices = sizes_where_geometry_matters(&juqueen, &model, &node);
        let sizes: Vec<usize> = advices.iter().map(|a| a.midplanes).collect();
        for expected in [4usize, 6, 8, 12, 16, 24] {
            assert!(
                sizes.contains(&expected),
                "size {expected} missing from {sizes:?}"
            );
        }
        // Sizes whose only geometry is a ring (e.g. 5 or 7 midplanes) cannot
        // be improved and must not be reported.
        assert!(!sizes.contains(&5));
        assert!(!sizes.contains(&7));
    }

    #[test]
    fn best_geometry_has_at_least_the_worst_bisection() {
        let mira = known::mira();
        let node = NodeModel::bgq();
        let model = pairing_like_kernel();
        for midplanes in mira.feasible_sizes() {
            if midplanes < 2 {
                continue;
            }
            if let Some(advice) = advise_kernel(&mira, &model, &node, midplanes) {
                assert!(
                    advice.best_geometry.bisection_links()
                        >= advice.worst_geometry.bisection_links()
                );
                assert!(advice.predicted_speedup() >= 1.0 - 1e-12);
            }
        }
    }
}

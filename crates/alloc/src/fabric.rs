//! Fabric-generic allocation ranking.
//!
//! [`crate::optimize`] answers "which geometry of this size is best?" with
//! the torus closed forms (`bisection_links`), which only exist for
//! standalone Blue Gene/Q partitions. This module answers the same question
//! for *explicit node sets on any fabric* — dragonfly groups, fat-tree pods,
//! Slim Fly neighbourhoods, expander samples — by ranking candidates on
//! their sweep-cut bisection capacity
//! ([`netpart_contention::sweep_bisection_gbs`]).
//!
//! The torus closed forms stay the production path for the Blue Gene/Q
//! machines (they are exact and need no fabric materialization); this module
//! is their generic counterpart, ranking by the *internal* (allocation-
//! induced) bisection capacity — the isolated-subnetwork view a Blue Gene/Q
//! partition gets physically, generalized to any fabric.

use netpart_contention::internal_bisection_gbs;
use netpart_engine::Fabric;

/// One ranked candidate allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedAllocation {
    /// Index into the caller's candidate list.
    pub index: usize,
    /// Candidate label (from the caller).
    pub label: String,
    /// Internal sweep-cut bisection capacity in GB/s (larger = better
    /// connected).
    pub bisection_gbs: f64,
}

/// Rank candidate node sets on a fabric by internal bisection capacity,
/// best first (ties broken towards the earlier candidate, so results are
/// deterministic). Candidates with fewer than 2 nodes are skipped — they
/// have no bisection to rank.
pub fn rank_allocations(
    fabric: &Fabric,
    candidates: &[(String, Vec<usize>)],
) -> Vec<RankedAllocation> {
    let mut ranked: Vec<RankedAllocation> = candidates
        .iter()
        .enumerate()
        .filter(|(_, (_, nodes))| nodes.len() >= 2)
        .map(|(index, (label, nodes))| RankedAllocation {
            index,
            label: label.clone(),
            bisection_gbs: internal_bisection_gbs(fabric, nodes),
        })
        .collect();
    ranked.sort_by(|a, b| {
        b.bisection_gbs
            .total_cmp(&a.bisection_gbs)
            .then_with(|| a.index.cmp(&b.index))
    });
    ranked
}

/// The best- and worst-connected candidates, or `None` when fewer than one
/// candidate has 2+ nodes.
pub fn allocation_extremes(
    fabric: &Fabric,
    candidates: &[(String, Vec<usize>)],
) -> Option<(RankedAllocation, RankedAllocation)> {
    let ranked = rank_allocations(fabric, candidates);
    let best = ranked.first()?.clone();
    let worst = ranked.last()?.clone();
    Some((best, worst))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_topology::{Dragonfly, GlobalArrangement, Torus};

    #[test]
    fn compact_blocks_outrank_scattered_samples_on_a_torus() {
        let fabric = Fabric::from_torus(Torus::new(vec![8, 8]), 2.0);
        let square: Vec<usize> = (0..4)
            .flat_map(|x| (0..4).map(move |y| x * 8 + y))
            .collect();
        // Even-coordinate nodes: pairwise non-adjacent, zero internal cut.
        let scattered: Vec<usize> = (0..4)
            .flat_map(|r| (0..4).map(move |c| (2 * r) * 8 + 2 * c))
            .collect();
        let candidates = vec![
            ("scattered".to_string(), scattered),
            ("square".to_string(), square),
        ];
        let ranked = rank_allocations(&fabric, &candidates);
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].label, "square");
        assert!(ranked[0].bisection_gbs > ranked[1].bisection_gbs);
        assert_eq!(ranked[1].bisection_gbs, 0.0);
    }

    #[test]
    fn a_group_block_outranks_a_one_router_per_group_scatter_on_a_dragonfly() {
        let df = Dragonfly::new(4, 4, 2, 1.0, 1.0, 1.0, 1, GlobalArrangement::Relative);
        let fabric = Fabric::from_topology(&df, 2.0);
        // Four routers of group 0 (rows 0-1 x cols 0-1: a connected block).
        let block: Vec<usize> = (0..4).collect();
        // One router per group at pairwise-distinct local positions: no
        // intra-group links (single routers) and no mirror global links
        // (globals join equal local positions), so internally disconnected.
        let scatter: Vec<usize> = (0..4).map(|g| g * 8 + g).collect();
        let (best, worst) = allocation_extremes(
            &fabric,
            &[
                ("scatter".to_string(), scatter),
                ("block".to_string(), block),
            ],
        )
        .unwrap();
        assert_eq!(best.label, "block", "worst was {}", worst.label);
        assert_eq!(worst.bisection_gbs, 0.0);
    }

    #[test]
    fn tiny_candidates_are_skipped() {
        let fabric = Fabric::from_torus(Torus::new(vec![4, 4]), 2.0);
        let candidates = vec![
            ("empty".to_string(), vec![]),
            ("single".to_string(), vec![3]),
        ];
        assert!(rank_allocations(&fabric, &candidates).is_empty());
        assert!(allocation_extremes(&fabric, &candidates).is_none());
    }
}

//! Traffic-pattern generators for message-passing collectives.
//!
//! The simulated MPI layer does not execute user code; it translates
//! communication operations into the [`Flow`] sets they would inject into the
//! network, organised into *phases* (flows within a phase are concurrent,
//! phases are executed back to back). Ranks co-located on the same node
//! exchange data through shared memory, which the fluid model represents as a
//! zero-length flow (it completes instantly).

use crate::mapping::RankMapping;
use netpart_engine::Flow;

/// A sequence of communication phases; each phase is a set of concurrent
/// point-to-point flows (node-level).
pub type Phases = Vec<Vec<Flow>>;

/// Pairwise exchange: every `(a, b)` rank pair exchanges `gigabytes` in both
/// directions simultaneously (a single phase).
pub fn rank_pairwise_exchange(
    mapping: &RankMapping,
    pairs: &[(usize, usize)],
    gigabytes: f64,
) -> Phases {
    let flows = pairs
        .iter()
        .flat_map(|&(a, b)| {
            let (na, nb) = (mapping.node_of(a), mapping.node_of(b));
            [
                Flow {
                    src: na,
                    dst: nb,
                    gigabytes,
                },
                Flow {
                    src: nb,
                    dst: na,
                    gigabytes,
                },
            ]
        })
        .collect();
    vec![flows]
}

/// Flat broadcast from `root`: one phase in which the root sends the message
/// to every other rank (an intentionally contention-heavy baseline).
pub fn flat_broadcast(mapping: &RankMapping, root: usize, gigabytes: f64) -> Phases {
    let root_node = mapping.node_of(root);
    let flows = (0..mapping.num_ranks())
        .filter(|&r| r != root)
        .map(|r| Flow {
            src: root_node,
            dst: mapping.node_of(r),
            gigabytes,
        })
        .collect();
    vec![flows]
}

/// Binomial-tree broadcast from `root`: `ceil(log2(P))` phases; in phase `k`
/// every rank that already holds the data (root-relative rank `< 2^k`)
/// forwards it to the rank `2^k` positions away, doubling the holder set.
pub fn binomial_broadcast(mapping: &RankMapping, root: usize, gigabytes: f64) -> Phases {
    let p = mapping.num_ranks();
    let mut phases = Vec::new();
    let mut stride = 1usize;
    while stride < p {
        let mut phase = Vec::new();
        // Root-relative ranks 0..stride hold the data and forward it.
        for rel in 0..stride {
            let target_rel = rel + stride;
            if target_rel < p {
                let sender = (rel + root) % p;
                let target = (target_rel + root) % p;
                phase.push(Flow {
                    src: mapping.node_of(sender),
                    dst: mapping.node_of(target),
                    gigabytes,
                });
            }
        }
        if !phase.is_empty() {
            phases.push(phase);
        }
        stride *= 2;
    }
    phases
}

/// Ring allgather: `P - 1` phases; in each phase every rank forwards the
/// block it most recently received (of size `block_gigabytes`) to its
/// successor on the ring.
pub fn ring_allgather(mapping: &RankMapping, block_gigabytes: f64) -> Phases {
    let p = mapping.num_ranks();
    if p <= 1 {
        return Vec::new();
    }
    (0..p - 1)
        .map(|_| {
            (0..p)
                .map(|r| Flow {
                    src: mapping.node_of(r),
                    dst: mapping.node_of((r + 1) % p),
                    gigabytes: block_gigabytes,
                })
                .collect()
        })
        .collect()
}

/// Ring reduce-scatter: same traffic pattern as [`ring_allgather`] (the
/// reduction happens locally), provided separately for readability at call
/// sites.
pub fn ring_reduce_scatter(mapping: &RankMapping, block_gigabytes: f64) -> Phases {
    ring_allgather(mapping, block_gigabytes)
}

/// Ring allreduce of a buffer of `gigabytes` per rank: reduce-scatter followed
/// by allgather, each moving `gigabytes / P` blocks per phase.
pub fn ring_allreduce(mapping: &RankMapping, gigabytes: f64) -> Phases {
    let p = mapping.num_ranks();
    if p <= 1 {
        return Vec::new();
    }
    let block = gigabytes / p as f64;
    let mut phases = ring_reduce_scatter(mapping, block);
    phases.extend(ring_allgather(mapping, block));
    phases
}

/// Full all-to-all (personalised exchange): `P - 1` phases following the
/// standard shift schedule; in phase `k` rank `r` sends its block for rank
/// `r XOR-shift k` — here implemented as `(r + k) mod P` — of size
/// `block_gigabytes`.
pub fn all_to_all(mapping: &RankMapping, block_gigabytes: f64) -> Phases {
    let p = mapping.num_ranks();
    (1..p)
        .map(|shift| {
            (0..p)
                .map(|r| Flow {
                    src: mapping.node_of(r),
                    dst: mapping.node_of((r + shift) % p),
                    gigabytes: block_gigabytes,
                })
                .collect()
        })
        .collect()
}

/// Group-counterpart exchange: ranks are divided into `groups` equal
/// contiguous groups; every rank exchanges `gigabytes` with the rank holding
/// the same position in every other group (a single phase). This is the
/// dominant communication pattern of a CAPS BFS step.
pub fn group_counterpart_exchange(mapping: &RankMapping, groups: usize, gigabytes: f64) -> Phases {
    let p = mapping.num_ranks();
    assert!(
        groups >= 1 && p.is_multiple_of(groups),
        "rank count must divide into equal groups"
    );
    let group_size = p / groups;
    let mut flows = Vec::new();
    for rank in 0..p {
        let position = rank % group_size;
        let my_group = rank / group_size;
        for other_group in 0..groups {
            if other_group == my_group {
                continue;
            }
            let counterpart = other_group * group_size + position;
            flows.push(Flow {
                src: mapping.node_of(rank),
                dst: mapping.node_of(counterpart),
                gigabytes,
            });
        }
    }
    vec![flows]
}

/// Merge flows that share the same (source, destination) pair into a single
/// flow carrying the summed volume, dropping zero-byte and intra-node
/// traffic. Rank-level traffic generators use this to produce one node-level
/// flow per node pair, which keeps the fluid simulation small without
/// changing per-channel loads.
pub fn aggregate_flows(flows: &[Flow]) -> Vec<Flow> {
    let mut by_pair: std::collections::HashMap<(usize, usize), f64> =
        std::collections::HashMap::new();
    for f in flows {
        if f.src != f.dst && f.gigabytes > 0.0 {
            *by_pair.entry((f.src, f.dst)).or_insert(0.0) += f.gigabytes;
        }
    }
    let mut out: Vec<Flow> = by_pair
        .into_iter()
        .map(|((src, dst), gigabytes)| Flow {
            src,
            dst,
            gigabytes,
        })
        .collect();
    out.sort_by_key(|f| (f.src, f.dst));
    out
}

/// Total gigabytes injected by a phase list (counting every flow once,
/// including intra-node flows).
pub fn total_volume(phases: &Phases) -> f64 {
    phases
        .iter()
        .flat_map(|phase| phase.iter().map(|f| f.gigabytes))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapping(ranks: usize, nodes: usize) -> RankMapping {
        RankMapping::new(
            ranks,
            nodes,
            ranks.div_ceil(nodes),
            crate::mapping::MappingStrategy::Linear,
        )
    }

    #[test]
    fn binomial_broadcast_reaches_everyone_in_log_phases() {
        let m = mapping(16, 16);
        let phases = binomial_broadcast(&m, 0, 1.0);
        assert_eq!(phases.len(), 4);
        let total_messages: usize = phases.iter().map(|p| p.len()).sum();
        assert_eq!(
            total_messages, 15,
            "every non-root rank receives exactly once"
        );
        // Non-power-of-two and non-zero root still reach everyone.
        let m = mapping(10, 10);
        let phases = binomial_broadcast(&m, 3, 1.0);
        let total: usize = phases.iter().map(|p| p.len()).sum();
        assert_eq!(total, 9);
    }

    #[test]
    fn flat_broadcast_is_one_phase() {
        let m = mapping(8, 8);
        let phases = flat_broadcast(&m, 2, 0.5);
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].len(), 7);
        assert!(phases[0].iter().all(|f| f.src == 2));
    }

    #[test]
    fn ring_allgather_volume_matches_closed_form() {
        let m = mapping(8, 8);
        let phases = ring_allgather(&m, 0.25);
        assert_eq!(phases.len(), 7);
        // Total volume: P * (P-1) * block.
        assert!((total_volume(&phases) - 8.0 * 7.0 * 0.25).abs() < 1e-12);
    }

    #[test]
    fn allreduce_is_reduce_scatter_plus_allgather() {
        let m = mapping(4, 4);
        let phases = ring_allreduce(&m, 1.0);
        assert_eq!(phases.len(), 2 * 3);
        // Each phase moves P blocks of size 1/P: volume 1.0 per phase.
        for phase in &phases {
            let v: f64 = phase.iter().map(|f| f.gigabytes).sum();
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn all_to_all_sends_every_pair_exactly_once() {
        let m = mapping(6, 6);
        let phases = all_to_all(&m, 1.0);
        assert_eq!(phases.len(), 5);
        let mut pair_count = std::collections::HashMap::new();
        for phase in &phases {
            for f in phase {
                *pair_count.entry((f.src, f.dst)).or_insert(0usize) += 1;
            }
        }
        assert_eq!(pair_count.len(), 30);
        assert!(pair_count.values().all(|&c| c == 1));
    }

    #[test]
    fn group_counterpart_exchange_pairs_same_positions() {
        let m = mapping(14, 14);
        let phases = group_counterpart_exchange(&m, 7, 0.1);
        assert_eq!(phases.len(), 1);
        // 14 ranks, 7 groups of 2: every rank talks to 6 counterparts.
        assert_eq!(phases[0].len(), 14 * 6);
        for f in &phases[0] {
            // Counterparts share the same position within their group.
            assert_eq!(f.src % 2, f.dst % 2);
        }
    }

    #[test]
    fn colocated_ranks_produce_intranode_flows() {
        // 8 ranks on 4 nodes: ranks 0 and 1 share node 0, so their exchange
        // is an intra-node (zero-cost) flow.
        let m = mapping(8, 4);
        let phases = rank_pairwise_exchange(&m, &[(0, 1)], 1.0);
        assert_eq!(phases[0].len(), 2);
        assert!(phases[0].iter().all(|f| f.src == f.dst));
    }

    #[test]
    #[should_panic(expected = "equal groups")]
    fn group_exchange_requires_divisible_rank_count() {
        let m = mapping(10, 10);
        let _ = group_counterpart_exchange(&m, 7, 1.0);
    }
}

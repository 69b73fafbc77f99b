//! Rank-to-node task mapping.
//!
//! The experiments run one or more MPI ranks per compute node (Table 3 uses
//! up to 16 ranks per node to reach the `f · 7^k` rank counts CAPS requires).
//! A [`RankMapping`] assigns every rank to a node of the partition; the
//! mapping strategy is an ablation axis because topology-aware mappings are
//! one of the classical contention-mitigation techniques the paper contrasts
//! with its own approach.

use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Strategy for placing ranks on nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MappingStrategy {
    /// Rank `r` runs on node `r / ranks_per_node` (ABCDE-order fill, the
    /// Blue Gene/Q default). When the rank count is not a multiple of the
    /// node count the last nodes receive no ranks.
    #[default]
    Linear,
    /// Contiguous rank blocks spread as evenly as possible over *all* nodes
    /// (the first `ranks mod nodes` nodes receive one extra rank). This is
    /// the placement the paper describes for the matmul experiments, where
    /// the `f · 7^k` rank count never divides the node count exactly and the
    /// imbalance is minimised by hand.
    Balanced,
    /// Ranks are assigned to nodes round-robin: rank `r` runs on node
    /// `r mod nodes`.
    RoundRobin,
    /// A seeded random permutation of the linear mapping.
    Random(u64),
}

/// A concrete assignment of ranks to nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankMapping {
    node_of_rank: Vec<usize>,
    num_nodes: usize,
}

impl RankMapping {
    /// Build a mapping of `num_ranks` ranks onto `num_nodes` nodes.
    ///
    /// # Panics
    /// Panics if there are zero nodes, zero ranks, or the implied
    /// ranks-per-node exceeds `max_ranks_per_node`.
    pub fn new(
        num_ranks: usize,
        num_nodes: usize,
        max_ranks_per_node: usize,
        strategy: MappingStrategy,
    ) -> Self {
        assert!(num_nodes > 0, "mapping needs at least one node");
        assert!(num_ranks > 0, "mapping needs at least one rank");
        let per_node = num_ranks.div_ceil(num_nodes);
        assert!(
            per_node <= max_ranks_per_node,
            "{num_ranks} ranks on {num_nodes} nodes needs {per_node} ranks/node, \
             exceeding the limit of {max_ranks_per_node}"
        );
        let node_of_rank: Vec<usize> = match strategy {
            MappingStrategy::Linear => (0..num_ranks).map(|r| r / per_node).collect(),
            MappingStrategy::Balanced => {
                // First `extra` nodes host `base + 1` ranks, the rest `base`.
                let base = num_ranks / num_nodes;
                let extra = num_ranks % num_nodes;
                let mut node_of_rank = Vec::with_capacity(num_ranks);
                for node in 0..num_nodes {
                    let count = base + usize::from(node < extra);
                    node_of_rank.extend(std::iter::repeat_n(node, count));
                }
                node_of_rank
            }
            MappingStrategy::RoundRobin => (0..num_ranks).map(|r| r % num_nodes).collect(),
            MappingStrategy::Random(seed) => {
                let mut base: Vec<usize> = (0..num_ranks).map(|r| r / per_node).collect();
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                base.shuffle(&mut rng);
                base
            }
        };
        Self {
            node_of_rank,
            num_nodes,
        }
    }

    /// One rank per node, linearly (the default for the bisection-pairing
    /// benchmark).
    pub fn one_rank_per_node(num_nodes: usize) -> Self {
        Self::new(num_nodes, num_nodes, 1, MappingStrategy::Linear)
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.node_of_rank.len()
    }

    /// Number of nodes in the partition.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The node hosting `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        self.node_of_rank[rank]
    }

    /// Largest number of ranks sharing one node.
    pub fn max_ranks_per_node(&self) -> usize {
        let mut counts = vec![0usize; self.num_nodes];
        for &n in &self.node_of_rank {
            counts[n] += 1;
        }
        counts.into_iter().max().unwrap_or(0)
    }

    /// Average number of ranks per *occupied* node (the "avg cores per proc"
    /// column of Table 3).
    pub fn avg_ranks_per_occupied_node(&self) -> f64 {
        let mut counts = vec![0usize; self.num_nodes];
        for &n in &self.node_of_rank {
            counts[n] += 1;
        }
        let occupied = counts.iter().filter(|&&c| c > 0).count();
        self.num_ranks() as f64 / occupied as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_mapping_packs_ranks_contiguously() {
        let m = RankMapping::new(8, 4, 2, MappingStrategy::Linear);
        assert_eq!(m.node_of(0), 0);
        assert_eq!(m.node_of(1), 0);
        assert_eq!(m.node_of(2), 1);
        assert_eq!(m.node_of(7), 3);
        assert_eq!(m.max_ranks_per_node(), 2);
    }

    #[test]
    fn round_robin_spreads_ranks() {
        let m = RankMapping::new(8, 4, 2, MappingStrategy::RoundRobin);
        assert_eq!(m.node_of(0), 0);
        assert_eq!(m.node_of(1), 1);
        assert_eq!(m.node_of(5), 1);
        assert_eq!(m.max_ranks_per_node(), 2);
    }

    #[test]
    fn random_mapping_is_deterministic_per_seed() {
        let a = RankMapping::new(100, 32, 4, MappingStrategy::Random(1));
        let b = RankMapping::new(100, 32, 4, MappingStrategy::Random(1));
        let c = RankMapping::new(100, 32, 4, MappingStrategy::Random(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.max_ranks_per_node() <= 100);
    }

    #[test]
    fn balanced_mapping_occupies_every_node() {
        let m = RankMapping::new(2401, 2048, 2, MappingStrategy::Balanced);
        assert_eq!(m.num_ranks(), 2401);
        let mut counts = vec![0usize; 2048];
        for r in 0..2401 {
            counts[m.node_of(r)] += 1;
        }
        assert!(
            counts.iter().all(|&c| c == 1 || c == 2),
            "counts must be 1 or 2"
        );
        assert_eq!(counts.iter().filter(|&&c| c == 2).count(), 2401 - 2048);
        assert_eq!(m.max_ranks_per_node(), 2);
        assert!((m.avg_ranks_per_occupied_node() - 2401.0 / 2048.0).abs() < 1e-12);
        // Ranks remain contiguous per node (locality-preserving).
        assert_eq!(m.node_of(0), 0);
        assert_eq!(m.node_of(1), 0);
        assert_eq!(m.node_of(2), 1);
    }

    #[test]
    fn table3_style_rank_counts_fit() {
        // 31213 = 13 * 7^4 / ... actually 31213 = 31213; the paper uses
        // f * 7^k ranks; 31213 = 13 * 2401 = 13*7^4. On 8 midplanes (4096
        // nodes) this needs 8 ranks per node.
        let m = RankMapping::new(31213, 4096, 8, MappingStrategy::Linear);
        assert_eq!(m.max_ranks_per_node(), 8);
        assert!(m.avg_ranks_per_occupied_node() > 7.0);
    }

    #[test]
    #[should_panic(expected = "exceeding the limit")]
    fn overcommitting_nodes_panics() {
        let _ = RankMapping::new(100, 10, 4, MappingStrategy::Linear);
    }

    #[test]
    fn one_rank_per_node_is_identity() {
        let m = RankMapping::one_rank_per_node(16);
        for r in 0..16 {
            assert_eq!(m.node_of(r), r);
        }
        assert!((m.avg_ranks_per_occupied_node() - 1.0).abs() < 1e-12);
    }
}

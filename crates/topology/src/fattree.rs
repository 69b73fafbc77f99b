//! Three-level k-ary fat-tree networks.
//!
//! Fat-trees are discussed in the paper as a topology where isoperimetric
//! analysis is harder to exploit (allocation policies either share links
//! between jobs or are too constrained for geometry changes to matter). We
//! model the standard 3-level k-ary fat-tree so the analysis tooling can
//! still compute cut capacities and bisection bandwidth for comparison.
//!
//! For even `k`, the network has `k` pods; each pod has `k/2` edge switches
//! and `k/2` aggregation switches; there are `(k/2)^2` core switches and
//! `k^3/4` hosts. All links have unit capacity.

use crate::Topology;

/// A 3-level k-ary fat-tree. Node indices enumerate hosts first, then edge
/// switches, then aggregation switches, then core switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FatTree {
    k: usize,
}

/// The role of a node in the fat-tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FatTreeNode {
    /// A compute host attached to an edge switch.
    Host {
        /// Pod index.
        pod: usize,
        /// Edge switch index within the pod.
        edge: usize,
        /// Host index under that edge switch.
        slot: usize,
    },
    /// An edge (top-of-rack) switch.
    Edge {
        /// Pod index.
        pod: usize,
        /// Edge switch index within the pod.
        index: usize,
    },
    /// An aggregation switch.
    Aggregation {
        /// Pod index.
        pod: usize,
        /// Aggregation switch index within the pod.
        index: usize,
    },
    /// A core switch.
    Core {
        /// Core switch index.
        index: usize,
    },
}

impl FatTree {
    /// Create a k-ary fat-tree.
    ///
    /// # Panics
    /// Panics unless `k` is even and at least 2.
    pub fn new(k: usize) -> Self {
        assert!(
            k >= 2 && k.is_multiple_of(2),
            "fat-tree arity must be even and >= 2"
        );
        Self { k }
    }

    /// Switch arity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of compute hosts (`k^3 / 4`).
    pub fn num_hosts(&self) -> usize {
        self.k * self.k * self.k / 4
    }

    fn hosts_per_edge(&self) -> usize {
        self.k / 2
    }

    fn edges_per_pod(&self) -> usize {
        self.k / 2
    }

    fn aggs_per_pod(&self) -> usize {
        self.k / 2
    }

    fn num_edge_switches(&self) -> usize {
        self.k * self.edges_per_pod()
    }

    fn num_agg_switches(&self) -> usize {
        self.k * self.aggs_per_pod()
    }

    fn num_core_switches(&self) -> usize {
        (self.k / 2) * (self.k / 2)
    }

    /// Classify a node index.
    pub fn classify(&self, v: usize) -> FatTreeNode {
        let hosts = self.num_hosts();
        let edges = self.num_edge_switches();
        let aggs = self.num_agg_switches();
        if v < hosts {
            let per_pod = self.edges_per_pod() * self.hosts_per_edge();
            let pod = v / per_pod;
            let rest = v % per_pod;
            FatTreeNode::Host {
                pod,
                edge: rest / self.hosts_per_edge(),
                slot: rest % self.hosts_per_edge(),
            }
        } else if v < hosts + edges {
            let e = v - hosts;
            FatTreeNode::Edge {
                pod: e / self.edges_per_pod(),
                index: e % self.edges_per_pod(),
            }
        } else if v < hosts + edges + aggs {
            let a = v - hosts - edges;
            FatTreeNode::Aggregation {
                pod: a / self.aggs_per_pod(),
                index: a % self.aggs_per_pod(),
            }
        } else {
            FatTreeNode::Core {
                index: v - hosts - edges - aggs,
            }
        }
    }

    /// Node index of a host.
    pub fn host(&self, pod: usize, edge: usize, slot: usize) -> usize {
        pod * self.edges_per_pod() * self.hosts_per_edge() + edge * self.hosts_per_edge() + slot
    }

    /// Node index of an edge switch.
    pub fn edge_switch(&self, pod: usize, index: usize) -> usize {
        self.num_hosts() + pod * self.edges_per_pod() + index
    }

    /// Node index of an aggregation switch.
    pub fn agg_switch(&self, pod: usize, index: usize) -> usize {
        self.num_hosts() + self.num_edge_switches() + pod * self.aggs_per_pod() + index
    }

    /// Node index of a core switch.
    pub fn core_switch(&self, index: usize) -> usize {
        self.num_hosts() + self.num_edge_switches() + self.num_agg_switches() + index
    }
}

impl Topology for FatTree {
    fn num_nodes(&self) -> usize {
        self.num_hosts()
            + self.num_edge_switches()
            + self.num_agg_switches()
            + self.num_core_switches()
    }

    fn neighbor_links(&self, v: usize) -> Vec<(usize, f64)> {
        let half = self.k / 2;
        match self.classify(v) {
            FatTreeNode::Host { pod, edge, .. } => vec![(self.edge_switch(pod, edge), 1.0)],
            FatTreeNode::Edge { pod, index } => {
                let mut out: Vec<(usize, f64)> = (0..half)
                    .map(|slot| (self.host(pod, index, slot), 1.0))
                    .collect();
                out.extend((0..half).map(|a| (self.agg_switch(pod, a), 1.0)));
                out
            }
            FatTreeNode::Aggregation { pod, index } => {
                let mut out: Vec<(usize, f64)> =
                    (0..half).map(|e| (self.edge_switch(pod, e), 1.0)).collect();
                // Aggregation switch `index` connects to core switches
                // index*half .. index*half+half-1.
                out.extend((0..half).map(|c| (self.core_switch(index * half + c), 1.0)));
                out
            }
            FatTreeNode::Core { index } => {
                let agg_index = index / half;
                (0..self.k)
                    .map(|pod| (self.agg_switch(pod, agg_index), 1.0))
                    .collect()
            }
        }
    }

    fn name(&self) -> String {
        format!("fat-tree(k={})", self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k4_counts() {
        let ft = FatTree::new(4);
        assert_eq!(ft.num_hosts(), 16);
        assert_eq!(ft.num_nodes(), 16 + 8 + 8 + 4);
        // Links: 16 host-edge + 8 edge * 2 agg = 16 edge-agg + 8 agg * 2 core = 16 agg-core.
        assert_eq!(ft.num_links(), 16 + 16 + 16);
    }

    #[test]
    fn adjacency_is_symmetric() {
        let ft = FatTree::new(4);
        for u in 0..ft.num_nodes() {
            for (v, _) in ft.neighbor_links(u) {
                assert!(
                    ft.neighbor_links(v).iter().any(|&(n, _)| n == u),
                    "asymmetric link {u}-{v}"
                );
            }
        }
    }

    #[test]
    fn classification_roundtrip() {
        let ft = FatTree::new(6);
        for v in 0..ft.num_nodes() {
            let back = match ft.classify(v) {
                FatTreeNode::Host { pod, edge, slot } => ft.host(pod, edge, slot),
                FatTreeNode::Edge { pod, index } => ft.edge_switch(pod, index),
                FatTreeNode::Aggregation { pod, index } => ft.agg_switch(pod, index),
                FatTreeNode::Core { index } => ft.core_switch(index),
            };
            assert_eq!(back, v);
        }
    }

    #[test]
    fn hosts_have_degree_one_switches_have_degree_k() {
        let ft = FatTree::new(4);
        assert_eq!(ft.degree(ft.host(0, 0, 0)), 1);
        assert_eq!(ft.degree(ft.edge_switch(0, 0)), 4);
        assert_eq!(ft.degree(ft.agg_switch(0, 0)), 4);
        assert_eq!(ft.degree(ft.core_switch(0)), 4);
    }

    #[test]
    fn full_bisection_at_core_level() {
        let ft = FatTree::new(4);
        let g = ft.to_graph();
        assert!(g.is_connected());
    }
}

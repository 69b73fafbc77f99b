//! Flat link-level graph representation.
//!
//! [`LinkGraph`] is a compact adjacency structure with explicit link
//! identifiers and capacities. It is the exchange format between topology
//! models, the isoperimetric analysis (which needs cut capacities) and the
//! flow-level network simulator (which needs stable per-link identifiers to
//! accumulate load).

/// Dense node identifier.
pub type NodeId = usize;
/// Dense link identifier (index into [`LinkGraph::links`]).
pub type LinkId = usize;

/// Typed errors for link-graph lookups, so analysis sweeps can skip a bad
/// query instead of aborting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphError {
    /// The queried node is not an endpoint of the link.
    NotAnEndpoint {
        /// The queried node.
        node: NodeId,
        /// The link's first endpoint.
        u: NodeId,
        /// The link's second endpoint.
        v: NodeId,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NotAnEndpoint { node, u, v } => {
                write!(f, "node {node} is not an endpoint of link ({u}, {v})")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// An undirected link with a normalized capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// First endpoint (always `< v` when produced by [`crate::Topology::links`]).
    pub u: NodeId,
    /// Second endpoint.
    pub v: NodeId,
    /// Normalized capacity (1.0 = one standard bidirectional link).
    pub capacity: f64,
}

impl Link {
    /// The endpoint of the link that is not `from`, as a typed result:
    /// `Err` when `from` is not an endpoint of this link.
    pub fn try_other(&self, from: NodeId) -> Result<NodeId, GraphError> {
        if from == self.u {
            Ok(self.v)
        } else if from == self.v {
            Ok(self.u)
        } else {
            Err(GraphError::NotAnEndpoint {
                node: from,
                u: self.u,
                v: self.v,
            })
        }
    }

    /// Panicking convenience wrapper around [`Link::try_other`] for callers
    /// that know `from` is an endpoint (e.g. walking an adjacency list).
    ///
    /// # Panics
    /// Panics with the [`GraphError`] message if `from` is not an endpoint.
    pub fn other(&self, from: NodeId) -> NodeId {
        self.try_other(from).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Compact undirected graph with link capacities and O(1) neighbor access.
#[derive(Debug, Clone)]
pub struct LinkGraph {
    num_nodes: usize,
    links: Vec<Link>,
    /// CSR offsets into `adjacency`: neighbors of node `v` live at
    /// `adjacency[offsets[v]..offsets[v+1]]`.
    offsets: Vec<usize>,
    /// `(neighbor, link id)` pairs.
    adjacency: Vec<(NodeId, LinkId)>,
}

impl LinkGraph {
    /// Build a graph from an explicit link list.
    ///
    /// # Panics
    /// Panics on self-loops or endpoints `>= num_nodes`.
    pub fn from_topology_links(num_nodes: usize, links: &[Link]) -> Self {
        let mut degree = vec![0usize; num_nodes];
        for l in links {
            assert!(
                l.u < num_nodes && l.v < num_nodes,
                "link endpoint out of range"
            );
            assert_ne!(l.u, l.v, "self-loops are not supported");
            degree[l.u] += 1;
            degree[l.v] += 1;
        }
        let mut offsets = vec![0usize; num_nodes + 1];
        for v in 0..num_nodes {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let mut cursor = offsets.clone();
        let mut adjacency = vec![(0usize, 0usize); offsets[num_nodes]];
        for (id, l) in links.iter().enumerate() {
            adjacency[cursor[l.u]] = (l.v, id);
            cursor[l.u] += 1;
            adjacency[cursor[l.v]] = (l.u, id);
            cursor[l.v] += 1;
        }
        Self {
            num_nodes,
            links: links.to_vec(),
            offsets,
            adjacency,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of undirected links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// All links, indexed by [`LinkId`].
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The link with the given identifier.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id]
    }

    /// `(neighbor, link id)` pairs for node `v`.
    pub fn neighbors(&self, v: NodeId) -> &[(NodeId, LinkId)] {
        &self.adjacency[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of node `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The link id connecting `u` and `v`, if any.
    pub fn link_between(&self, u: NodeId, v: NodeId) -> Option<LinkId> {
        self.neighbors(u)
            .iter()
            .find(|&&(n, _)| n == v)
            .map(|&(_, id)| id)
    }

    /// Total capacity of links with exactly one endpoint in `set`.
    pub fn cut_capacity(&self, set: &[bool]) -> f64 {
        assert_eq!(set.len(), self.num_nodes);
        self.links
            .iter()
            .filter(|l| set[l.u] != set[l.v])
            .map(|l| l.capacity)
            .sum()
    }

    /// Number of links with exactly one endpoint in `set`.
    pub fn cut_size(&self, set: &[bool]) -> usize {
        assert_eq!(set.len(), self.num_nodes);
        self.links.iter().filter(|l| set[l.u] != set[l.v]).count()
    }

    /// Whether the graph is connected (empty graphs count as connected).
    pub fn is_connected(&self) -> bool {
        if self.num_nodes == 0 {
            return true;
        }
        let mut seen = vec![false; self.num_nodes];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(v) = stack.pop() {
            for &(n, _) in self.neighbors(v) {
                if !seen[n] {
                    seen[n] = true;
                    count += 1;
                    stack.push(n);
                }
            }
        }
        count == self.num_nodes
    }

    /// Breadth-first hop distances from `src` (capacities ignored).
    ///
    /// Unreachable nodes get `usize::MAX`.
    pub fn bfs_distances(&self, src: NodeId) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.num_nodes];
        let mut queue = std::collections::VecDeque::new();
        dist[src] = 0;
        queue.push_back(src);
        while let Some(v) = queue.pop_front() {
            for &(n, _) in self.neighbors(v) {
                if dist[n] == usize::MAX {
                    dist[n] = dist[v] + 1;
                    queue.push_back(n);
                }
            }
        }
        dist
    }

    /// Graph diameter in hops (maximum over all pairs of shortest paths).
    ///
    /// O(V·E); intended for analysis of modest-size graphs, not the full
    /// machine at node granularity.
    pub fn diameter(&self) -> usize {
        (0..self.num_nodes)
            .map(|v| {
                self.bfs_distances(v)
                    .into_iter()
                    .filter(|&d| d != usize::MAX)
                    .max()
                    .unwrap_or(0)
            })
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> LinkGraph {
        LinkGraph::from_topology_links(
            3,
            &[
                Link {
                    u: 0,
                    v: 1,
                    capacity: 1.0,
                },
                Link {
                    u: 1,
                    v: 2,
                    capacity: 2.0,
                },
                Link {
                    u: 0,
                    v: 2,
                    capacity: 3.0,
                },
            ],
        )
    }

    #[test]
    fn adjacency_and_degrees() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_links(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.link_between(0, 2), Some(2));
        assert_eq!(g.link_between(1, 1), None);
    }

    #[test]
    fn cut_capacity_counts_weighted_boundary() {
        let g = triangle();
        let cut = g.cut_capacity(&[true, false, false]);
        assert!((cut - 4.0).abs() < 1e-12); // links 0-1 (1.0) and 0-2 (3.0)
        assert_eq!(g.cut_size(&[true, false, false]), 2);
    }

    #[test]
    fn connectivity_and_bfs() {
        let g = triangle();
        assert!(g.is_connected());
        assert_eq!(g.bfs_distances(0), vec![0, 1, 1]);
        assert_eq!(g.diameter(), 1);

        let disconnected = LinkGraph::from_topology_links(
            4,
            &[
                Link {
                    u: 0,
                    v: 1,
                    capacity: 1.0,
                },
                Link {
                    u: 2,
                    v: 3,
                    capacity: 1.0,
                },
            ],
        );
        assert!(!disconnected.is_connected());
    }

    #[test]
    fn link_other_endpoint() {
        let l = Link {
            u: 3,
            v: 7,
            capacity: 1.0,
        };
        assert_eq!(l.other(3), 7);
        assert_eq!(l.other(7), 3);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn link_other_panics_for_non_endpoint() {
        let l = Link {
            u: 3,
            v: 7,
            capacity: 1.0,
        };
        let _ = l.other(5);
    }

    #[test]
    fn link_try_other_reports_a_typed_error() {
        let l = Link {
            u: 3,
            v: 7,
            capacity: 1.0,
        };
        assert_eq!(l.try_other(3), Ok(7));
        assert_eq!(
            l.try_other(5),
            Err(GraphError::NotAnEndpoint {
                node: 5,
                u: 3,
                v: 7
            })
        );
    }
}

//! Topology-generic directed-channel networks.
//!
//! [`Fabric`] turns any [`Topology`] into the representation the flow
//! machinery needs: a flat set of *directed channels* with bandwidths plus
//! O(1) per-node outgoing-channel access. Every undirected link contributes
//! two channels, one per direction, each with the full per-direction
//! bandwidth — traffic flowing in opposite directions over one cable does
//! not contend, exactly as on Blue Gene/Q hardware.
//!
//! Channels are stored struct-of-arrays: parallel `srcs` / `dsts` / capacity
//! vectors indexed by [`ChannelId`], with `u32` endpoints. A million-node
//! 3-D torus carries six million directed channels; the SoA split means the
//! solver streams only the 8-byte capacity lane and BFS streams only the
//! 4-byte destination lane, instead of dragging 24-byte `Channel` records
//! through the cache. Constructors check the node and channel counts against
//! the `u32` id budget *before* allocating and fail with
//! [`EngineError::IdSpaceExceeded`] — a `2^33`-node request errors instead of
//! OOMing or truncating ids.
//!
//! [`Fabric::from_torus`] additionally enumerates channels in a fixed
//! order (node-major, then dimension, then `+`/`-`) and keeps the
//! hop-lookup table dimension-ordered routing needs
//! ([`Fabric::hop_channel`]).

use crate::error::EngineError;
use crate::maxmin::ChannelId;
use netpart_topology::{coord, Topology, Torus};

/// Sentinel in the torus hop table for length-1 dimensions.
const NO_CHANNEL: u32 = u32::MAX;

/// A materialized view of one directed channel (see [`Fabric::channel`]).
///
/// The fabric itself stores channels struct-of-arrays; this gather type
/// exists for callers that want one channel's endpoints and bandwidth
/// together.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Channel {
    /// Source node of the channel.
    pub from: usize,
    /// Destination node of the channel.
    pub to: usize,
    /// Bandwidth in GB/s.
    pub bandwidth_gbs: f64,
}

/// One link adjustment of a [`FabricPatch`]: every directed channel between
/// `a` and `b` (both directions, parallel cables included) has its bandwidth
/// multiplied by `scale`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkPatch {
    /// One endpoint of the link.
    pub a: usize,
    /// The other endpoint.
    pub b: usize,
    /// Capacity multiplier (finite and `> 0`).
    pub scale: f64,
}

/// One node adjustment of a [`FabricPatch`]: every channel incident to
/// `node` (both directions) has its bandwidth multiplied by `scale`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodePatch {
    /// The drained / degraded node.
    pub node: usize,
    /// Capacity multiplier (finite and `> 0`).
    pub scale: f64,
}

/// A capacity delta against a fabric: degraded or upgraded links and
/// drained nodes, expressed as per-channel bandwidth multipliers (routing is
/// capacity-blind, so a patch never changes paths — only rates).
///
/// Scales must be finite and strictly positive: a capacity of exactly zero
/// would leave flows routed over the channel unable to finish (completion
/// time is undefined), so "failed" links are modeled as deeply degraded
/// (e.g. `1e-3`), not absolute zero. Entries compose multiplicatively when
/// they overlap (a drained node containing a degraded link scales that
/// link's channels by both factors).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FabricPatch {
    /// Link-level capacity scales.
    pub links: Vec<LinkPatch>,
    /// Node-level capacity scales.
    pub nodes: Vec<NodePatch>,
}

impl FabricPatch {
    /// Whether the patch adjusts anything at all.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty() && self.nodes.is_empty()
    }
}

/// A directed-channel network over an arbitrary topology, stored
/// struct-of-arrays with compact `u32` ids.
///
/// The channel set is assumed symmetric (for every channel `u -> v` there is
/// a channel `v -> u`), which holds for every constructor in this crate.
#[derive(Debug, Clone)]
pub struct Fabric {
    name: String,
    num_nodes: usize,
    /// Source node per channel (SoA lane, indexed by [`ChannelId`]).
    srcs: Vec<u32>,
    /// Destination node per channel (SoA lane, indexed by [`ChannelId`]).
    dsts: Vec<u32>,
    /// Per-channel bandwidths in channel order — the SoA capacity lane and
    /// simultaneously the capacity vector the fluid hot path consumes.
    capacities: Vec<f64>,
    /// CSR offsets: outgoing channels of node `v` live at
    /// `out_adjacency[out_offsets[v]..out_offsets[v + 1]]`.
    out_offsets: Vec<usize>,
    out_adjacency: Vec<ChannelId>,
    /// Present when built via [`Fabric::from_torus`].
    torus: Option<Torus>,
    /// Torus hop lookup (`node * ndim * 2 + dim * 2 + dir_bit`), empty for
    /// non-torus fabrics; [`NO_CHANNEL`] marks length-1 dimensions.
    hop_channel: Vec<u32>,
}

/// Check an entity count against the `u32` id budget before any
/// proportional allocation happens.
fn check_budget(entity: &str, count: u64) -> Result<(), EngineError> {
    if count > u32::MAX as u64 {
        Err(EngineError::IdSpaceExceeded {
            entity: entity.to_string(),
            count,
            limit: u32::MAX as u64,
        })
    } else {
        Ok(())
    }
}

impl Fabric {
    /// Build a fabric from any topology, giving every channel `bandwidth_gbs`
    /// scaled by its link's capacity. Channels are numbered link-major:
    /// link `l = {u, v}` (with `u < v`) yields channel `2l` for `u -> v` and
    /// `2l + 1` for `v -> u`.
    ///
    /// # Panics
    /// Panics if `bandwidth_gbs` is not positive, or if the topology exceeds
    /// the `u32` id budget (use [`Fabric::try_from_topology`] to handle that
    /// as a value).
    pub fn from_topology<T: Topology + ?Sized>(topology: &T, bandwidth_gbs: f64) -> Self {
        Self::try_from_topology(topology, bandwidth_gbs).unwrap()
    }

    /// Fallible form of [`Fabric::from_topology`]: returns
    /// [`EngineError::IdSpaceExceeded`] (before allocating anything
    /// proportional to the request) if the node or channel count does not
    /// fit the `u32` id space.
    ///
    /// # Panics
    /// Panics if `bandwidth_gbs` is not positive.
    pub fn try_from_topology<T: Topology + ?Sized>(
        topology: &T,
        bandwidth_gbs: f64,
    ) -> Result<Self, EngineError> {
        assert!(bandwidth_gbs > 0.0, "bandwidth must be positive");
        let num_nodes = topology.num_nodes();
        check_budget("nodes", num_nodes as u64)?;
        check_budget("channels", 2u64.saturating_mul(topology.num_links() as u64))?;
        let mut srcs = Vec::new();
        let mut dsts = Vec::new();
        let mut capacities = Vec::new();
        for link in topology.links() {
            let bw = bandwidth_gbs * link.capacity;
            srcs.push(link.u as u32);
            dsts.push(link.v as u32);
            capacities.push(bw);
            srcs.push(link.v as u32);
            dsts.push(link.u as u32);
            capacities.push(bw);
        }
        Ok(Self::assemble(
            topology.name(),
            num_nodes,
            srcs,
            dsts,
            capacities,
            None,
            Vec::new(),
        ))
    }

    /// Build the fabric of a torus with channels numbered node-major, then
    /// by dimension, then by the `+1` / `-1` direction, skipping length-1
    /// dimensions. A Blue Gene/Q partition is
    /// `Fabric::from_torus(Torus::new(node_dims), 2.0)`: 2 GB/s per link
    /// and direction. Channel
    /// bandwidths are `bandwidth_gbs` scaled by the torus' per-dimension
    /// capacities.
    ///
    /// # Panics
    /// Panics if `bandwidth_gbs` is not positive, or if the torus exceeds
    /// the `u32` id budget (use [`Fabric::try_from_torus`] to handle that
    /// as a value).
    pub fn from_torus(torus: Torus, bandwidth_gbs: f64) -> Self {
        Self::try_from_torus(torus, bandwidth_gbs).unwrap()
    }

    /// Fallible form of [`Fabric::from_torus`]: returns
    /// [`EngineError::IdSpaceExceeded`] (before allocating anything
    /// proportional to the request) if the node or channel count does not
    /// fit the `u32` id space.
    ///
    /// # Panics
    /// Panics if `bandwidth_gbs` is not positive.
    pub fn try_from_torus(torus: Torus, bandwidth_gbs: f64) -> Result<Self, EngineError> {
        assert!(bandwidth_gbs > 0.0, "bandwidth must be positive");
        let ndim = torus.ndim();
        let dims = torus.dims().to_vec();
        let strides = coord::strides(&dims);
        // Checked volume: `coord::volume` itself could overflow usize for
        // absurd requests, so fold in u64 with saturation first.
        let n_u64 = dims
            .iter()
            .fold(1u64, |acc, &a| acc.saturating_mul(a as u64));
        check_budget("nodes", n_u64)?;
        // Directed channels per node: two per non-degenerate dimension.
        let per_node = 2 * dims.iter().filter(|&&a| a >= 2).count();
        check_budget("channels", n_u64.saturating_mul(per_node as u64))?;
        let n = coord::volume(&dims);
        let mut srcs = Vec::with_capacity(n * per_node);
        let mut dsts = Vec::with_capacity(n * per_node);
        let mut capacities = Vec::with_capacity(n * per_node);
        let mut hop_channel = vec![NO_CHANNEL; n * ndim * 2];
        // The node coordinate is tracked as an incremental mixed-radix
        // counter and neighbours are reached by stride arithmetic — this
        // constructor is on the scenario hot path (one fabric per spec), so
        // it must not allocate per node or per channel.
        let mut node_coord = vec![0usize; ndim];
        for node in 0..n {
            for (d, &a) in dims.iter().enumerate() {
                if a < 2 {
                    continue;
                }
                let c = node_coord[d];
                let bandwidth = bandwidth_gbs * torus.capacities()[d];
                for (dir_bit, step) in [(0usize, 1usize), (1, a - 1)] {
                    let next_c = (c + step) % a;
                    let to = node + next_c * strides[d] - c * strides[d];
                    let id = srcs.len() as u32;
                    srcs.push(node as u32);
                    dsts.push(to as u32);
                    capacities.push(bandwidth);
                    hop_channel[node * ndim * 2 + d * 2 + dir_bit] = id;
                }
            }
            // Advance the row-major counter (last dimension varies fastest).
            for i in (0..ndim).rev() {
                node_coord[i] += 1;
                if node_coord[i] == dims[i] {
                    node_coord[i] = 0;
                } else {
                    break;
                }
            }
        }
        let name = format!("torus{dims:?}");
        Ok(Self::assemble(
            name,
            n,
            srcs,
            dsts,
            capacities,
            Some(torus),
            hop_channel,
        ))
    }

    fn assemble(
        name: String,
        num_nodes: usize,
        srcs: Vec<u32>,
        dsts: Vec<u32>,
        capacities: Vec<f64>,
        torus: Option<Torus>,
        hop_channel: Vec<u32>,
    ) -> Self {
        debug_assert_eq!(srcs.len(), dsts.len());
        debug_assert_eq!(srcs.len(), capacities.len());
        let mut degree = vec![0usize; num_nodes];
        for (&s, &d) in srcs.iter().zip(&dsts) {
            assert!(
                (s as usize) < num_nodes && (d as usize) < num_nodes,
                "endpoint range"
            );
            degree[s as usize] += 1;
        }
        let mut out_offsets = vec![0usize; num_nodes + 1];
        for v in 0..num_nodes {
            out_offsets[v + 1] = out_offsets[v] + degree[v];
        }
        let mut cursor = out_offsets.clone();
        let mut out_adjacency = vec![0 as ChannelId; srcs.len()];
        for (id, &s) in srcs.iter().enumerate() {
            out_adjacency[cursor[s as usize]] = id as ChannelId;
            cursor[s as usize] += 1;
        }
        Self {
            name,
            num_nodes,
            srcs,
            dsts,
            capacities,
            out_offsets,
            out_adjacency,
            torus,
            hop_channel,
        }
    }

    /// Human-readable fabric name (from the topology).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed channels.
    pub fn num_channels(&self) -> usize {
        self.srcs.len()
    }

    /// Gather one channel's endpoints and bandwidth into a [`Channel`] view.
    ///
    /// Prefer the single-lane accessors ([`Fabric::channel_src`],
    /// [`Fabric::channel_dst`], [`Fabric::channel_bandwidth`]) on hot paths —
    /// they touch one SoA lane instead of three.
    pub fn channel(&self, c: ChannelId) -> Channel {
        Channel {
            from: self.srcs[c as usize] as usize,
            to: self.dsts[c as usize] as usize,
            bandwidth_gbs: self.capacities[c as usize],
        }
    }

    /// Source node of channel `c`.
    #[inline]
    pub fn channel_src(&self, c: ChannelId) -> usize {
        self.srcs[c as usize] as usize
    }

    /// Destination node of channel `c`.
    #[inline]
    pub fn channel_dst(&self, c: ChannelId) -> usize {
        self.dsts[c as usize] as usize
    }

    /// Bandwidth (GB/s) of channel `c`.
    #[inline]
    pub fn channel_bandwidth(&self, c: ChannelId) -> f64 {
        self.capacities[c as usize]
    }

    /// Per-channel bandwidths (GB/s), in channel order — the capacity vector
    /// the fluid simulation consumes (a borrow of the SoA lane, no copy).
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }

    /// Outgoing channels of node `v`, in ascending channel order.
    pub fn out_channels(&self, v: usize) -> &[ChannelId] {
        &self.out_adjacency[self.out_offsets[v]..self.out_offsets[v + 1]]
    }

    /// The underlying torus, when built via [`Fabric::from_torus`].
    pub fn torus(&self) -> Option<&Torus> {
        self.torus.as_ref()
    }

    /// The channel taken when leaving `node` along torus dimension `dim` in
    /// `direction` (`+1` or `-1`). Errors on non-torus fabrics, degenerate
    /// dimensions and invalid directions instead of panicking.
    pub fn hop_channel(
        &self,
        node: usize,
        dim: usize,
        direction: i8,
    ) -> Result<ChannelId, EngineError> {
        let torus = self.torus.as_ref().ok_or(EngineError::NotATorus)?;
        let dir_bit = match direction {
            1 => 0,
            -1 => 1,
            other => return Err(EngineError::InvalidDirection { direction: other }),
        };
        if node >= self.num_nodes {
            return Err(EngineError::NodeOutOfRange {
                node,
                num_nodes: self.num_nodes,
            });
        }
        let ndim = torus.ndim();
        let id = self.hop_channel[node * ndim * 2 + dim * 2 + dir_bit];
        if id == NO_CHANNEL {
            return Err(EngineError::DegenerateDimension { dim });
        }
        Ok(id)
    }

    /// Hop distances from every node *to* `dst` along directed channels
    /// (equal to distances from `dst` because channel sets are symmetric).
    /// Unreachable nodes get `usize::MAX`. One breadth-first search over the
    /// whole fabric: the minimal routers run it once per distinct
    /// destination of a flow list and walk every flow to that destination
    /// down the same table.
    pub fn distances_to(&self, dst: usize) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.num_nodes];
        let mut queue = std::collections::VecDeque::new();
        dist[dst] = 0;
        queue.push_back(dst);
        while let Some(v) = queue.pop_front() {
            for &c in self.out_channels(v) {
                let n = self.dsts[c as usize] as usize;
                if dist[n] == usize::MAX {
                    dist[n] = dist[v] + 1;
                    queue.push_back(n);
                }
            }
        }
        dist
    }

    /// Apply a [`FabricPatch`] and return the patched fabric together with
    /// the sorted, deduplicated list of channels whose capacity changed.
    /// Everything except the capacity lane — node set, channel numbering,
    /// adjacency, torus metadata — is shared structure, so routers produce
    /// identical paths on the patched fabric.
    ///
    /// Fails typed on out-of-range nodes, self-links, links between nodes
    /// that share no channel, and non-finite or non-positive scales (see
    /// [`FabricPatch`] for why zero is rejected).
    pub fn patched(&self, patch: &FabricPatch) -> Result<(Fabric, Vec<ChannelId>), EngineError> {
        let check_scale = |scale: f64, what: &str| {
            if scale.is_finite() && scale > 0.0 {
                Ok(())
            } else {
                Err(EngineError::InvalidPatch {
                    message: format!("{what} scale must be finite and > 0, got {scale}"),
                })
            }
        };
        let mut out = self.clone();
        let mut changed: Vec<ChannelId> = Vec::new();
        // Per-entry channel set, deduplicated before applying, so one entry
        // never scales a channel twice (entries still compose across the
        // patch: a link inside a drained node picks up both factors).
        let mut touched: Vec<ChannelId> = Vec::new();
        for link in &patch.links {
            self.check_node(link.a)?;
            self.check_node(link.b)?;
            check_scale(link.scale, "link")?;
            if link.a == link.b {
                return Err(EngineError::InvalidPatch {
                    message: format!("link patch endpoints must differ, got {0}-{0}", link.a),
                });
            }
            touched.clear();
            for &(u, v) in &[(link.a, link.b), (link.b, link.a)] {
                for &c in self.out_channels(u) {
                    if self.dsts[c as usize] as usize == v {
                        touched.push(c);
                    }
                }
            }
            if touched.is_empty() {
                return Err(EngineError::InvalidPatch {
                    message: format!("no channel between nodes {} and {}", link.a, link.b),
                });
            }
            touched.sort_unstable();
            touched.dedup();
            for &c in &touched {
                out.capacities[c as usize] *= link.scale;
            }
            changed.extend_from_slice(&touched);
        }
        for node in &patch.nodes {
            self.check_node(node.node)?;
            check_scale(node.scale, "node")?;
            touched.clear();
            for &c in self.out_channels(node.node) {
                touched.push(c);
                // The reverse direction: channels into the node, found among
                // the neighbour's outgoing channels (symmetric channel sets).
                let neighbour = self.dsts[c as usize] as usize;
                for &r in self.out_channels(neighbour) {
                    if self.dsts[r as usize] as usize == node.node {
                        touched.push(r);
                    }
                }
            }
            touched.sort_unstable();
            touched.dedup();
            for &c in &touched {
                out.capacities[c as usize] *= node.scale;
            }
            changed.extend_from_slice(&touched);
        }
        changed.sort_unstable();
        changed.dedup();
        Ok((out, changed))
    }

    /// Validate that `node` is a legal index.
    pub fn check_node(&self, node: usize) -> Result<(), EngineError> {
        if node < self.num_nodes {
            Ok(())
        } else {
            Err(EngineError::NodeOutOfRange {
                node,
                num_nodes: self.num_nodes,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_topology::{Hypercube, Topology};

    #[test]
    fn topology_fabric_has_two_channels_per_link() {
        let cube = Hypercube::new(4);
        let fabric = Fabric::from_topology(&cube, 2.0);
        assert_eq!(fabric.num_nodes(), 16);
        assert_eq!(fabric.num_channels(), 2 * cube.num_links());
        // Link-major numbering: channel 2l+1 reverses channel 2l.
        for l in 0..cube.num_links() {
            let fwd = fabric.channel(2 * l as ChannelId);
            let rev = fabric.channel(2 * l as ChannelId + 1);
            assert_eq!((fwd.from, fwd.to), (rev.to, rev.from));
            assert_eq!(fwd.bandwidth_gbs, 2.0);
        }
    }

    #[test]
    fn out_channels_leave_from_their_node() {
        let fabric = Fabric::from_topology(&Hypercube::new(3), 1.0);
        for v in 0..fabric.num_nodes() {
            let out = fabric.out_channels(v);
            assert_eq!(out.len(), 3, "hypercube degree");
            for &c in out {
                assert_eq!(fabric.channel_src(c), v);
            }
        }
    }

    #[test]
    fn torus_fabric_matches_hand_counted_channels() {
        let fabric = Fabric::from_torus(Torus::new(vec![4, 2]), 2.0);
        // 4x2 torus: dimension 0 contributes 8 links, the length-2 dimension
        // contributes two parallel cables per node pair: 8 links; 16 links,
        // 32 directed channels.
        assert_eq!(fabric.num_channels(), 32);
        assert!(fabric.torus().is_some());
        let plus = fabric.hop_channel(0, 1, 1).unwrap();
        let minus = fabric.hop_channel(0, 1, -1).unwrap();
        assert_ne!(plus, minus, "parallel cables are distinct");
        assert_eq!(fabric.channel_dst(plus), fabric.channel_dst(minus));
    }

    #[test]
    fn channel_counts_match_link_counts() {
        // Each undirected torus link yields exactly two directed channels.
        for dims in [vec![4, 4], vec![4, 2, 2], vec![4, 4, 4, 4, 2]] {
            let torus = Torus::new(dims.clone());
            let links = torus.num_links();
            let fabric = Fabric::from_torus(torus, 2.0);
            assert_eq!(fabric.num_channels(), 2 * links, "dims {dims:?}");
        }
    }

    #[test]
    fn hop_lookup_is_consistent_with_channel_endpoints() {
        let torus = Torus::new(vec![4, 4, 2]);
        let fabric = Fabric::from_torus(torus.clone(), 2.0);
        for node in 0..fabric.num_nodes() {
            for dim in 0..3 {
                for dir in [1i8, -1] {
                    let c = fabric.hop_channel(node, dim, dir).unwrap();
                    assert_eq!(fabric.channel_src(c), node);
                    let mut coord = torus.coord_of(node);
                    let a = torus.dims()[dim];
                    coord[dim] = (coord[dim] + if dir == 1 { 1 } else { a - 1 }) % a;
                    assert_eq!(fabric.channel_dst(c), torus.index_of(&coord));
                }
            }
        }
    }

    #[test]
    fn hop_channel_errors_are_typed() {
        let torus_fabric = Fabric::from_torus(Torus::new(vec![4, 1]), 2.0);
        assert_eq!(
            torus_fabric.hop_channel(0, 1, 1),
            Err(EngineError::DegenerateDimension { dim: 1 })
        );
        assert_eq!(
            torus_fabric.hop_channel(0, 0, 2),
            Err(EngineError::InvalidDirection { direction: 2 })
        );
        let generic = Fabric::from_topology(&Hypercube::new(2), 1.0);
        assert_eq!(generic.hop_channel(0, 0, 1), Err(EngineError::NotATorus));
    }

    #[test]
    fn oversized_torus_fails_typed_before_allocating() {
        // 2^17 x 2^16 = 2^33 nodes: over the u32 budget. The check must run
        // before the per-node hop table (which would be 32 GiB here) is
        // allocated, so this test passing *at all* is part of the assertion.
        let torus = Torus::new(vec![1 << 17, 1 << 16]);
        match Fabric::try_from_torus(torus, 1.0) {
            Err(EngineError::IdSpaceExceeded { entity, count, .. }) => {
                assert_eq!(entity, "nodes");
                assert_eq!(count, 1u64 << 33);
            }
            other => panic!("expected IdSpaceExceeded, got {other:?}"),
        }
        // Node count inside budget, channel count outside: 2^31 nodes in a
        // 3-D torus would need 3 * 2^32 directed channels.
        let wide = Torus::new(vec![1 << 21, 1 << 5, 1 << 5]);
        match Fabric::try_from_torus(wide, 1.0) {
            Err(EngineError::IdSpaceExceeded { entity, count, .. }) => {
                assert_eq!(entity, "channels");
                assert_eq!(count, 6u64 << 31);
            }
            other => panic!("expected IdSpaceExceeded, got {other:?}"),
        }
    }

    #[test]
    fn patched_scales_exactly_the_named_channels() {
        let fabric = Fabric::from_torus(Torus::new(vec![4, 4]), 2.0);
        let neighbour = fabric.channel_dst(fabric.out_channels(0)[0]);
        let patch = FabricPatch {
            links: vec![LinkPatch {
                a: 0,
                b: neighbour,
                scale: 0.5,
            }],
            nodes: vec![],
        };
        let (patched, changed) = fabric.patched(&patch).unwrap();
        assert_eq!(changed.len(), 2, "one link, both directions");
        for c in 0..fabric.num_channels() as ChannelId {
            let expected = if changed.binary_search(&c).is_ok() {
                1.0
            } else {
                2.0
            };
            assert_eq!(patched.channel_bandwidth(c), expected, "channel {c}");
        }
        // Structure is untouched: same adjacency, same torus metadata.
        assert_eq!(patched.num_channels(), fabric.num_channels());
        assert_eq!(patched.out_channels(0), fabric.out_channels(0));
        assert!(patched.torus().is_some());
    }

    #[test]
    fn drained_node_scales_every_incident_channel_once() {
        let fabric = Fabric::from_topology(&Hypercube::new(3), 1.0);
        let patch = FabricPatch {
            links: vec![],
            nodes: vec![NodePatch {
                node: 5,
                scale: 0.25,
            }],
        };
        let (patched, changed) = fabric.patched(&patch).unwrap();
        // Degree 3, both directions.
        assert_eq!(changed.len(), 6);
        for &c in &changed {
            assert!(fabric.channel_src(c) == 5 || fabric.channel_dst(c) == 5);
            assert_eq!(patched.channel_bandwidth(c), 0.25);
        }
    }

    #[test]
    fn overlapping_patch_entries_compose_multiplicatively() {
        let fabric = Fabric::from_topology(&Hypercube::new(2), 1.0);
        let neighbour = fabric.channel_dst(fabric.out_channels(0)[0]);
        let patch = FabricPatch {
            links: vec![LinkPatch {
                a: 0,
                b: neighbour,
                scale: 0.5,
            }],
            nodes: vec![NodePatch {
                node: 0,
                scale: 0.5,
            }],
        };
        let (patched, _) = fabric.patched(&patch).unwrap();
        let link_channel = fabric
            .out_channels(0)
            .iter()
            .copied()
            .find(|&c| fabric.channel_dst(c) == neighbour)
            .unwrap();
        assert_eq!(patched.channel_bandwidth(link_channel), 0.25);
    }

    #[test]
    fn invalid_patches_fail_typed() {
        let fabric = Fabric::from_topology(&Hypercube::new(2), 1.0);
        let invalid = |patch: FabricPatch| match fabric.patched(&patch) {
            Err(EngineError::InvalidPatch { .. }) | Err(EngineError::NodeOutOfRange { .. }) => {}
            other => panic!("expected a typed patch failure, got {other:?}"),
        };
        // Zero, negative and non-finite scales.
        for scale in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            invalid(FabricPatch {
                links: vec![LinkPatch { a: 0, b: 1, scale }],
                nodes: vec![],
            });
        }
        // Self-link, absent link, out-of-range endpoints.
        invalid(FabricPatch {
            links: vec![LinkPatch {
                a: 0,
                b: 0,
                scale: 0.5,
            }],
            nodes: vec![],
        });
        invalid(FabricPatch {
            links: vec![LinkPatch {
                a: 0,
                b: 3,
                scale: 0.5,
            }],
            nodes: vec![],
        });
        invalid(FabricPatch {
            links: vec![],
            nodes: vec![NodePatch {
                node: 99,
                scale: 0.5,
            }],
        });
        // An empty patch is legal and changes nothing.
        let (same, changed) = fabric.patched(&FabricPatch::default()).unwrap();
        assert!(changed.is_empty());
        assert_eq!(same.capacities(), fabric.capacities());
    }

    #[test]
    fn distances_match_bfs_expectations() {
        let fabric = Fabric::from_topology(&Hypercube::new(4), 1.0);
        let dist = fabric.distances_to(0);
        for (v, &d) in dist.iter().enumerate() {
            assert_eq!(d, v.count_ones() as usize, "node {v}");
        }
    }
}

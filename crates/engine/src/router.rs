//! Routing algorithms over [`Fabric`]s.
//!
//! Every router produces, deterministically, the channel sequence a message
//! from `src` to `dst` traverses. Three families cover the topology zoo:
//!
//! * [`DimensionOrdered`] — the Blue Gene/Q hardware routing, valid only on
//!   fabrics built with [`Fabric::from_torus`]. It takes the shorter
//!   wrap-around direction per dimension; the [`TieBreak`] rule for
//!   half-way displacements matters because it is the effect the paper
//!   observes on the 24-midplane Mira partition (some links of the size-3
//!   dimension are used in one direction only).
//! * [`ShortestPath`] / [`Ecmp`] — minimal routing on arbitrary fabrics;
//!   `ShortestPath` always takes the lowest-numbered minimal channel, `Ecmp`
//!   hash-spreads over all minimal next hops. Both route a flow list with
//!   one breadth-first search per distinct destination.
//! * [`Valiant`] — two-phase randomized routing (src → pseudo-random
//!   intermediate → dst) for adversarial patterns on low-diameter networks.
//!   A flow list routes as two grouped minimal routings, one per leg.
//!
//! All routers are pure: equal inputs give equal paths, so simulations are
//! reproducible.

use crate::error::EngineError;
use crate::fabric::Fabric;
use crate::flowsim::Flow;
use crate::maxmin::ChannelId;
use netpart_topology::coord::{self, wrap_displacement};

/// Torus dimensionality up to which [`DimensionOrdered`] keeps coordinates
/// in stack buffers (every machine in the workspace is 5-D or less).
const MAX_INLINE_DIMS: usize = 16;

/// A deterministic routing algorithm over a [`Fabric`].
///
/// A router routes one pair, appended onto a buffer ([`Router::route_into`])
/// or as its own vector ([`Router::route`]), or a whole flow list into CSR
/// buffers ([`Router::route_flows_into`]); all three give the same path for
/// a pair. The flow-list form is where a router shares work across flows:
/// the minimal routers search each distinct destination once, and so does
/// each of Valiant's two legs.
pub trait Router {
    /// Append the channel path from `src` to `dst` onto `out` (nothing when
    /// `src == dst`), without a per-flow allocation: this is what keeps
    /// repeated candidate-allocation scoring allocation-free. On error `out`
    /// may hold a partial path — callers rebuild their buffers on failure.
    fn route_into(
        &self,
        fabric: &Fabric,
        src: usize,
        dst: usize,
        out: &mut Vec<ChannelId>,
    ) -> Result<(), EngineError>;

    /// The sequence of channels a packet from `src` to `dst` traverses
    /// (empty when `src == dst`): [`Router::route_into`] into a fresh
    /// vector.
    fn route(
        &self,
        fabric: &Fabric,
        src: usize,
        dst: usize,
    ) -> Result<Vec<ChannelId>, EngineError> {
        let mut path = Vec::new();
        self.route_into(fabric, src, dst, &mut path)?;
        Ok(path)
    }

    /// Route every flow into CSR buffers: flow `i` traverses
    /// `data[offsets[i]..offsets[i + 1]]`, each path identical to
    /// [`Router::route`]'s. The default routes flow by flow with
    /// [`Router::route_into`]; [`ShortestPath`] and [`Ecmp`] override it to
    /// search each distinct destination once, and [`Valiant`] to search each
    /// distinct intermediate and destination once. On error the buffers hold a
    /// partial build, and the error is the flow-by-flow loop's: that of the
    /// first failing flow.
    fn route_flows_into(
        &self,
        fabric: &Fabric,
        flows: &[Flow],
        offsets: &mut Vec<usize>,
        data: &mut Vec<ChannelId>,
    ) -> Result<(), EngineError> {
        offsets.clear();
        data.clear();
        offsets.push(0);
        for f in flows {
            self.route_into(fabric, f.src, f.dst, data)?;
            offsets.push(data.len());
        }
        Ok(())
    }

    /// Short label for reports.
    fn label(&self) -> String;
}

/// How [`DimensionOrdered`] resolves the direction when both wrap-around
/// directions are equally short (displacement exactly half the dimension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TieBreak {
    /// Always travel in the `+1` direction (the hardware default; leaves
    /// the `-1` channels idle for antipodal traffic).
    #[default]
    Positive,
    /// Choose by the parity of the source coordinate in that dimension,
    /// spreading antipodal traffic over both directions.
    SourceParity,
    /// Choose by the parity of the source node index (a cheap
    /// pseudo-random spreading rule).
    NodeParity,
}

/// Dimension-ordered routing on torus fabrics; the default is the
/// hardware's (first-to-last dimension order, positive tie-break).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DimensionOrdered {
    /// Tie-breaking rule for half-way displacements.
    pub tie_break: TieBreak,
    /// Route dimensions from the last to the first instead of first to last.
    pub reverse_dimension_order: bool,
}

impl Router for DimensionOrdered {
    fn route_into(
        &self,
        fabric: &Fabric,
        src: usize,
        dst: usize,
        path: &mut Vec<ChannelId>,
    ) -> Result<(), EngineError> {
        fabric.check_node(src)?;
        fabric.check_node(dst)?;
        let torus = fabric.torus().ok_or(EngineError::NotATorus)?;
        let ndim = torus.ndim();
        // Coordinates live in stack buffers (heap only beyond 16 dims): this
        // route runs once per flow of every candidate-allocation scoring
        // round, so it must not allocate per flow.
        let mut src_buf = [0usize; MAX_INLINE_DIMS];
        let mut dst_buf = [0usize; MAX_INLINE_DIMS];
        let (src_heap, dst_heap);
        let (src_coord, dst_coord): (&[usize], &[usize]) = if ndim <= MAX_INLINE_DIMS {
            coord::coord_into(torus.dims(), src, &mut src_buf);
            coord::coord_into(torus.dims(), dst, &mut dst_buf);
            (&src_buf[..ndim], &dst_buf[..ndim])
        } else {
            src_heap = torus.coord_of(src);
            dst_heap = torus.coord_of(dst);
            (&src_heap, &dst_heap)
        };
        // Per-dimension displacements up front, so the path vector can be
        // sized exactly (this route runs once per flow on the hot path — no
        // per-hop allocations).
        let mut hops = 0usize;
        for d in 0..ndim {
            let a = torus.dims()[d];
            if a >= 2 {
                hops += wrap_displacement(src_coord[d], dst_coord[d], a).unsigned_abs() as usize;
            }
        }
        path.reserve(hops);
        let mut node = src;
        for i in 0..ndim {
            let d = if self.reverse_dimension_order {
                ndim - 1 - i
            } else {
                i
            };
            let a = torus.dims()[d];
            if a < 2 {
                continue;
            }
            // Dimensions are corrected one at a time, so when dimension `d`
            // is reached the current coordinate there still equals the
            // source's.
            let disp = wrap_displacement(src_coord[d], dst_coord[d], a);
            if disp == 0 {
                continue;
            }
            let is_tie = a % 2 == 0 && disp.unsigned_abs() == a / 2;
            let direction: i8 = if is_tie {
                match self.tie_break {
                    TieBreak::Positive => 1,
                    TieBreak::SourceParity => {
                        if src_coord[d] % 2 == 0 {
                            1
                        } else {
                            -1
                        }
                    }
                    TieBreak::NodeParity => {
                        if src.is_multiple_of(2) {
                            1
                        } else {
                            -1
                        }
                    }
                }
            } else if disp > 0 {
                1
            } else {
                -1
            };
            for _ in 0..disp.unsigned_abs() {
                let channel = fabric.hop_channel(node, d, direction)?;
                path.push(channel);
                node = fabric.channel_dst(channel);
            }
        }
        debug_assert_eq!(node, dst, "route must terminate at the destination");
        Ok(())
    }

    fn label(&self) -> String {
        "dimension-ordered".to_string()
    }
}

/// Deterministic minimal routing: at every node take the lowest-numbered
/// channel that reduces the hop distance to the destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShortestPath;

impl Router for ShortestPath {
    fn route_into(
        &self,
        fabric: &Fabric,
        src: usize,
        dst: usize,
        out: &mut Vec<ChannelId>,
    ) -> Result<(), EngineError> {
        minimal_route_into(fabric, src, dst, |_, _| 0, out)
    }

    fn route_flows_into(
        &self,
        fabric: &Fabric,
        flows: &[Flow],
        offsets: &mut Vec<usize>,
        data: &mut Vec<ChannelId>,
    ) -> Result<(), EngineError> {
        route_flows_minimally(fabric, flows, |_, _| |_, _| 0, offsets, data)
    }

    fn label(&self) -> String {
        "shortest-path".to_string()
    }
}

/// Equal-cost multi-path minimal routing: at every node choose among all
/// distance-reducing channels by a deterministic hash of (flow endpoints,
/// current node, salt), spreading load over the minimal DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ecmp {
    /// Hash salt; different salts give different (still deterministic)
    /// spreadings.
    pub salt: u64,
}

impl Router for Ecmp {
    fn route_into(
        &self,
        fabric: &Fabric,
        src: usize,
        dst: usize,
        out: &mut Vec<ChannelId>,
    ) -> Result<(), EngineError> {
        minimal_route_into(fabric, src, dst, self.pick(src, dst), out)
    }

    fn route_flows_into(
        &self,
        fabric: &Fabric,
        flows: &[Flow],
        offsets: &mut Vec<usize>,
        data: &mut Vec<ChannelId>,
    ) -> Result<(), EngineError> {
        route_flows_minimally(fabric, flows, |src, dst| self.pick(src, dst), offsets, data)
    }

    fn label(&self) -> String {
        format!("ecmp(salt={})", self.salt)
    }
}

impl Ecmp {
    /// The hop choice of the flow `src -> dst`: `(node, k)` to the index of
    /// the distance-reducing channel it takes at `node` among `k`.
    fn pick(&self, src: usize, dst: usize) -> impl Fn(usize, usize) -> usize {
        let key = splitmix64(self.salt ^ ((src as u64) << 32) ^ dst as u64);
        move |node, k| (splitmix64(key ^ node as u64) % k as u64) as usize
    }
}

/// Valiant load-balanced routing: minimal to a pseudo-random intermediate
/// node, then minimal to the destination. Trades path length for load
/// spreading on adversarial patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Valiant {
    /// Seed for the deterministic intermediate-node choice.
    pub seed: u64,
}

impl Router for Valiant {
    fn route_into(
        &self,
        fabric: &Fabric,
        src: usize,
        dst: usize,
        out: &mut Vec<ChannelId>,
    ) -> Result<(), EngineError> {
        fabric.check_node(src)?;
        fabric.check_node(dst)?;
        if src == dst {
            return Ok(());
        }
        let w = self.intermediate(fabric, src, dst);
        minimal_route_into(fabric, src, w, |_, _| 0, out)?;
        minimal_route_into(fabric, w, dst, |_, _| 0, out)
    }

    /// Both legs of every flow as two grouped minimal routings: leg 1
    /// (`src -> w`) searches each distinct intermediate once, leg 2
    /// (`w -> dst`) each distinct destination once, and each flow's path is
    /// its leg 1 followed by its leg 2. The error is the per-flow loop's:
    /// that of the first flow that fails, on its first failing leg.
    fn route_flows_into(
        &self,
        fabric: &Fabric,
        flows: &[Flow],
        offsets: &mut Vec<usize>,
        data: &mut Vec<ChannelId>,
    ) -> Result<(), EngineError> {
        offsets.clear();
        data.clear();
        let (routable, range) = in_range_prefix(fabric, flows);
        // A self-flow's legs are self-pairs, whose paths are empty.
        let (to_w, from_w): (Vec<Flow>, Vec<Flow>) = routable
            .iter()
            .map(|&f| {
                if f.src == f.dst {
                    return (f, f);
                }
                let w = self.intermediate(fabric, f.src, f.dst);
                (Flow { dst: w, ..f }, Flow { src: w, ..f })
            })
            .unzip();
        let shortest = |_, _| |_, _| 0;
        let (mut offsets_1, mut data_1) = (Vec::new(), Vec::new());
        let failed_1 = minimal_route_flows(fabric, &to_w, shortest, &mut offsets_1, &mut data_1);
        let (mut offsets_2, mut data_2) = (Vec::new(), Vec::new());
        let failed_2 = minimal_route_flows(fabric, &from_w, shortest, &mut offsets_2, &mut data_2);
        match (failed_1, failed_2) {
            (Err(i), Err(j)) if j < i => return Err(unreachable(&from_w[j])),
            (Err(i), _) => return Err(unreachable(&to_w[i])),
            (Ok(()), Err(j)) => return Err(unreachable(&from_w[j])),
            (Ok(()), Ok(())) => {}
        }
        range?;
        offsets.reserve(flows.len() + 1);
        offsets.push(0);
        data.reserve(data_1.len() + data_2.len());
        for (leg_1, leg_2) in offsets_1.windows(2).zip(offsets_2.windows(2)) {
            data.extend_from_slice(&data_1[leg_1[0]..leg_1[1]]);
            data.extend_from_slice(&data_2[leg_2[0]..leg_2[1]]);
            offsets.push(data.len());
        }
        Ok(())
    }

    fn label(&self) -> String {
        format!("valiant(seed={})", self.seed)
    }
}

impl Valiant {
    /// The pseudo-random intermediate node of the flow `src -> dst`.
    fn intermediate(&self, fabric: &Fabric, src: usize, dst: usize) -> usize {
        let n = fabric.num_nodes() as u64;
        (splitmix64(self.seed ^ ((src as u64) << 32) ^ dst as u64) % n) as usize
    }
}

/// Walk a minimal path from `src` to `dst`, appending onto a caller-owned
/// path buffer and calling `pick(node, k)` to select among the `k`
/// distance-reducing channels at each node (must return `< k`).
fn minimal_route_into(
    fabric: &Fabric,
    src: usize,
    dst: usize,
    pick: impl Fn(usize, usize) -> usize,
    path: &mut Vec<ChannelId>,
) -> Result<(), EngineError> {
    fabric.check_node(src)?;
    fabric.check_node(dst)?;
    if src == dst {
        return Ok(());
    }
    let dist = fabric.distances_to(dst);
    if dist[src] == usize::MAX {
        return Err(EngineError::Unreachable { src, dst });
    }
    path.reserve(dist[src]);
    minimal_walk(fabric, &dist, src, pick, path);
    Ok(())
}

/// The flows before the first one naming an out-of-range node, and that
/// node's error (`Ok` when every node is in range).
fn in_range_prefix<'a>(
    fabric: &Fabric,
    flows: &'a [Flow],
) -> (&'a [Flow], Result<(), EngineError>) {
    for (i, f) in flows.iter().enumerate() {
        if let Err(e) = fabric
            .check_node(f.src)
            .and_then(|()| fabric.check_node(f.dst))
        {
            return (&flows[..i], Err(e));
        }
    }
    (flows, Ok(()))
}

/// The error of a flow whose destination its source cannot reach.
fn unreachable(f: &Flow) -> EngineError {
    EngineError::Unreachable {
        src: f.src,
        dst: f.dst,
    }
}

/// [`Router::route_flows_into`] for the minimal routers: the flows before
/// the first out-of-range node go through [`minimal_route_flows`], and the
/// error is the flow-by-flow loop's (an unreachable flow ahead of that node
/// reports first).
fn route_flows_minimally<P: Fn(usize, usize) -> usize>(
    fabric: &Fabric,
    flows: &[Flow],
    pick_for: impl Fn(usize, usize) -> P,
    offsets: &mut Vec<usize>,
    data: &mut Vec<ChannelId>,
) -> Result<(), EngineError> {
    let (routable, range) = in_range_prefix(fabric, flows);
    minimal_route_flows(fabric, routable, pick_for, offsets, data)
        .map_err(|i| unreachable(&routable[i]))?;
    range
}

/// Route `flows`, whose nodes must all be in range, minimally into CSR
/// buffers (as [`Router::route_flows_into`] lays them out) with one
/// [`Fabric::distances_to`] search per distinct destination.
/// `pick_for(src, dst)` gives a flow's hop choice as [`minimal_route_into`]
/// takes it, so every path equals the single-pair route.
///
/// Flows are walked grouped by destination (flow order within a group) and
/// written back in flow order. On failure the buffers are left empty and
/// the error is the index of the first flow whose destination is
/// unreachable from its source.
fn minimal_route_flows<P: Fn(usize, usize) -> usize>(
    fabric: &Fabric,
    flows: &[Flow],
    pick_for: impl Fn(usize, usize) -> P,
    offsets: &mut Vec<usize>,
    data: &mut Vec<ChannelId>,
) -> Result<(), usize> {
    offsets.clear();
    data.clear();
    // Self-flows have empty paths and need no search.
    let mut order: Vec<usize> = (0..flows.len())
        .filter(|&i| flows[i].src != flows[i].dst)
        .collect();
    order.sort_by_key(|&i| flows[i].dst);
    let mut walks = Vec::new();
    let mut spans = vec![(0, 0); flows.len()];
    let mut unreachable: Option<usize> = None;
    for group in order.chunk_by(|&a, &b| flows[a].dst == flows[b].dst) {
        let dst = flows[group[0]].dst;
        let dist = fabric.distances_to(dst);
        for &i in group {
            let src = flows[i].src;
            if dist[src] == usize::MAX {
                unreachable = Some(unreachable.map_or(i, |u| u.min(i)));
                continue;
            }
            let start = walks.len();
            minimal_walk(fabric, &dist, src, pick_for(src, dst), &mut walks);
            spans[i] = (start, walks.len());
        }
    }
    if let Some(i) = unreachable {
        return Err(i);
    }
    offsets.reserve(flows.len() + 1);
    offsets.push(0);
    data.reserve(walks.len());
    for (start, end) in spans {
        data.extend_from_slice(&walks[start..end]);
        offsets.push(data.len());
    }
    Ok(())
}

/// Append the minimal walk from `src` down `dist`, the distance table of the
/// walk's destination (`dist[src]` must be finite). At each node it takes
/// the `pick(node, k)`-th of the `k` distance-reducing channels in
/// out-channel order; `pick` is only asked when there is a choice.
fn minimal_walk(
    fabric: &Fabric,
    dist: &[usize],
    src: usize,
    pick: impl Fn(usize, usize) -> usize,
    path: &mut Vec<ChannelId>,
) {
    let mut node = src;
    while dist[node] != 0 {
        let next = dist[node] - 1;
        let reducing = || {
            fabric
                .out_channels(node)
                .iter()
                .copied()
                .filter(move |&c| dist[fabric.channel_dst(c)] == next)
        };
        let k = reducing().count();
        let i = if k > 1 { pick(node, k) } else { 0 };
        let chosen = reducing().nth(i).expect("BFS distance admits a next hop");
        path.push(chosen);
        node = fabric.channel_dst(chosen);
    }
}

/// The splitmix64 mixing function: cheap, deterministic, well-spread.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_topology::{Hypercube, SlimFly, Torus};

    fn walk_is_valid(fabric: &Fabric, src: usize, dst: usize, path: &[ChannelId]) {
        let mut node = src;
        for &c in path {
            assert_eq!(fabric.channel_src(c), node, "disconnected walk");
            node = fabric.channel_dst(c);
        }
        assert_eq!(node, dst, "walk must end at the destination");
    }

    #[test]
    fn shortest_path_routes_are_minimal_walks() {
        let cube = Hypercube::new(4);
        let fabric = Fabric::from_topology(&cube, 1.0);
        let router = ShortestPath;
        for src in 0..16 {
            for dst in 0..16usize {
                let path = router.route(&fabric, src, dst).unwrap();
                walk_is_valid(&fabric, src, dst, &path);
                assert_eq!(path.len(), (src ^ dst).count_ones() as usize);
            }
        }
    }

    #[test]
    fn ecmp_routes_are_minimal_and_salt_sensitive() {
        // A hypercube has distance! many shortest paths per pair — real ECMP
        // diversity.
        let fabric = Fabric::from_topology(&Hypercube::new(4), 1.0);
        let a = Ecmp { salt: 1 };
        let b = Ecmp { salt: 2 };
        let shortest = ShortestPath;
        let mut differed = false;
        for src in 0..fabric.num_nodes() {
            for dst in 0..fabric.num_nodes() {
                let pa = a.route(&fabric, src, dst).unwrap();
                let pb = b.route(&fabric, src, dst).unwrap();
                let ps = shortest.route(&fabric, src, dst).unwrap();
                walk_is_valid(&fabric, src, dst, &pa);
                walk_is_valid(&fabric, src, dst, &pb);
                assert_eq!(pa.len(), ps.len(), "ECMP paths stay minimal");
                assert_eq!(pb.len(), ps.len());
                differed |= pa != pb;
            }
        }
        assert!(differed, "different salts should spread differently");
    }

    #[test]
    fn ecmp_is_minimal_on_slim_flies_too() {
        let fabric = Fabric::from_topology(&SlimFly::new(5), 1.0);
        let router = Ecmp { salt: 4 };
        let shortest = ShortestPath;
        for src in 0..fabric.num_nodes() {
            let dst = (src + 7) % fabric.num_nodes();
            let path = router.route(&fabric, src, dst).unwrap();
            walk_is_valid(&fabric, src, dst, &path);
            assert_eq!(path.len(), shortest.route(&fabric, src, dst).unwrap().len());
        }
    }

    #[test]
    fn valiant_routes_are_valid_but_may_detour() {
        // Note: for antipodal hypercube pairs every node lies on a minimal
        // path, so use nearby pairs where a random intermediate is a detour.
        let fabric = Fabric::from_topology(&Hypercube::new(5), 1.0);
        let router = Valiant { seed: 9 };
        let mut total_detour = 0usize;
        for src in 0..32usize {
            let dst = (src + 1) % 32;
            let path = router.route(&fabric, src, dst).unwrap();
            walk_is_valid(&fabric, src, dst, &path);
            let minimal = ((src ^ dst) as u32).count_ones() as usize;
            assert!(path.len() >= minimal);
            total_detour += path.len() - minimal;
        }
        assert!(total_detour > 0, "Valiant should detour at least sometimes");
    }

    #[test]
    fn dimension_ordered_requires_a_torus_fabric() {
        let generic = Fabric::from_topology(&Hypercube::new(3), 1.0);
        assert_eq!(
            DimensionOrdered::default().route(&generic, 0, 5),
            Err(EngineError::NotATorus)
        );
    }

    #[test]
    fn dimension_ordered_matches_torus_distance() {
        let torus = Torus::new(vec![8, 4, 2]);
        let fabric = Fabric::from_torus(torus.clone(), 2.0);
        let router = DimensionOrdered::default();
        for src in 0..fabric.num_nodes() {
            for dst in [0usize, 5, 17, 63] {
                let path = router.route(&fabric, src, dst).unwrap();
                walk_is_valid(&fabric, src, dst, &path);
                assert_eq!(path.len(), torus.distance(src, dst));
            }
        }
    }

    /// The direction (`+1` or `-1`) in which torus channel `c` travels
    /// along `dim`.
    fn direction_of(fabric: &Fabric, c: ChannelId, dim: usize) -> i8 {
        let node = fabric.channel_src(c);
        if fabric.hop_channel(node, dim, 1) == Ok(c) {
            1
        } else {
            assert_eq!(fabric.hop_channel(node, dim, -1), Ok(c));
            -1
        }
    }

    #[test]
    fn shorter_wrap_direction_is_taken() {
        let fabric = Fabric::from_torus(Torus::new(vec![8]), 2.0);
        // 0 -> 6 is 2 hops in the -1 direction, not 6 hops in +1.
        let path = DimensionOrdered::default().route(&fabric, 0, 6).unwrap();
        assert_eq!(path.len(), 2);
        assert!(path.iter().all(|&c| direction_of(&fabric, c, 0) == -1));
    }

    #[test]
    fn positive_tie_break_uses_only_plus_channels() {
        let fabric = Fabric::from_torus(Torus::new(vec![8]), 2.0);
        let router = DimensionOrdered {
            tie_break: TieBreak::Positive,
            reverse_dimension_order: false,
        };
        for src in 0..8 {
            let path = router.route(&fabric, src, (src + 4) % 8).unwrap();
            assert_eq!(path.len(), 4);
            assert!(path.iter().all(|&c| direction_of(&fabric, c, 0) == 1));
        }
    }

    #[test]
    fn parity_tie_break_uses_both_directions() {
        let fabric = Fabric::from_torus(Torus::new(vec![8]), 2.0);
        let router = DimensionOrdered {
            tie_break: TieBreak::SourceParity,
            reverse_dimension_order: false,
        };
        let dirs: std::collections::HashSet<i8> = (0..8)
            .map(|src| {
                let path = router.route(&fabric, src, (src + 4) % 8).unwrap();
                direction_of(&fabric, path[0], 0)
            })
            .collect();
        assert_eq!(
            dirs.len(),
            2,
            "antipodal traffic should use both directions"
        );
    }

    #[test]
    fn reverse_dimension_order_still_reaches_destination() {
        let fabric = Fabric::from_torus(Torus::new(vec![4, 4, 4]), 2.0);
        let forward = DimensionOrdered::default().route(&fabric, 3, 42).unwrap();
        let reverse = DimensionOrdered {
            tie_break: TieBreak::Positive,
            reverse_dimension_order: true,
        }
        .route(&fabric, 3, 42)
        .unwrap();
        walk_is_valid(&fabric, 3, 42, &reverse);
        assert_eq!(forward.len(), reverse.len());
        assert_ne!(
            forward, reverse,
            "different dimension orders use different channels"
        );
    }

    #[test]
    fn self_routes_are_empty_everywhere() {
        let fabric = Fabric::from_topology(&Hypercube::new(3), 1.0);
        for router in [
            &ShortestPath as &dyn Router,
            &Ecmp { salt: 3 },
            &Valiant { seed: 3 },
        ] {
            assert!(router.route(&fabric, 4, 4).unwrap().is_empty());
        }
    }

    #[test]
    fn out_of_range_nodes_error() {
        let fabric = Fabric::from_topology(&Hypercube::new(2), 1.0);
        assert!(matches!(
            ShortestPath.route(&fabric, 0, 99),
            Err(EngineError::NodeOutOfRange { .. })
        ));
    }
}

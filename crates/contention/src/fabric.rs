//! Fabric-generic contention lower bounds.
//!
//! [`ContentionModel::contention_bound`] answers the contention question for
//! one shape only: a standalone torus, via the paper's closed-form cuboid
//! isoperimetry. This module asks the same question about *any* allocation —
//! an explicit node set on any [`Fabric`] — so the advisor can rank candidate
//! allocations on dragonflies, fat-trees, Slim Flies and expanders with the
//! same machinery it uses on Blue Gene/Q partitions.
//!
//! The generic bound keeps the uniform-spread crossing model of
//! [`crate::bounds`]: every set `S` of `t` allocation nodes must exchange
//! `Q(t) = W · t · (P − t) / P` words with the rest of the allocation, and all
//! of it leaves `S` through the directed channels out of `S` — counted in the
//! *whole fabric*, because traffic between allocation nodes is free to route
//! through nodes outside the allocation. Evaluating `Q(t) / cap(S_t)` over the
//! prefixes `S_t` of a deterministic locality sweep (and over `t ≤ P/2`)
//! yields a valid lower bound: any specific set's escape capacity is at least
//! the minimal one, so the ratio can only under-estimate the true bound.
//!
//! Two pinned guarantees tie this to the legacy analysis:
//!
//! * **Fast path** — on a uniform-capacity torus fabric whose allocation is
//!   the *entire* machine, [`ContentionModel::fabric_bound`] delegates to the
//!   closed-form [`ContentionModel::contention_bound`] and converts losslessly,
//!   so legacy torus advice is bit-identical (`tests/advice_parity.rs`).
//! * **Soundness** — the sweep bound never exceeds the closed form on tori
//!   (it optimizes over fewer sets), which the same parity suite asserts on
//!   random geometries and kernels.

use crate::bounds::{ContentionModel, BYTES_PER_WORD};
use netpart_engine::Fabric;

/// A contention lower bound for one kernel on one fabric allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricContentionBound {
    /// The contention time lower bound in seconds.
    pub seconds: f64,
    /// Escape capacity (GB/s over directed channels leaving the critical
    /// set) at the critical scale.
    pub cut_gbs: f64,
    /// The set size `t` attaining the bound.
    pub critical_scale: u64,
    /// Whether the critical scale is the allocation bisection `P/2`.
    pub attained_at_bisection: bool,
    /// True when the torus closed form produced the bound (full-machine
    /// allocations of uniform-capacity torus fabrics); false for the generic
    /// sweep.
    pub closed_form: bool,
}

/// Whether `nodes` is exactly the full node set of `fabric` (every index
/// present once).
pub fn is_full_node_set(fabric: &Fabric, nodes: &[usize]) -> bool {
    if nodes.len() != fabric.num_nodes() {
        return false;
    }
    let mut seen = vec![false; fabric.num_nodes()];
    for &v in nodes {
        if v >= fabric.num_nodes() || seen[v] {
            return false;
        }
        seen[v] = true;
    }
    true
}

/// The locality sweep order of an allocation: a breadth-first traversal of
/// the whole fabric seeded at the smallest allocation node, collecting
/// allocation nodes in visit order (restarting at the smallest unvisited
/// allocation node when the allocation spans several components). BFS may
/// pass *through* non-allocation nodes — on a fat-tree the hosts of one edge
/// switch are neighbours at distance two — so the order reflects network
/// locality, not index adjacency.
///
/// # Panics
/// Panics if a node index is out of range or duplicated.
pub fn locality_order(fabric: &Fabric, nodes: &[usize]) -> Vec<usize> {
    let n = fabric.num_nodes();
    let mut in_alloc = vec![false; n];
    for &v in nodes {
        assert!(v < n, "allocation node {v} out of range 0..{n}");
        assert!(!in_alloc[v], "allocation node {v} listed twice");
        in_alloc[v] = true;
    }
    let mut sorted: Vec<usize> = nodes.to_vec();
    sorted.sort_unstable();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(nodes.len());
    let mut queue = std::collections::VecDeque::new();
    for &seed in &sorted {
        if visited[seed] {
            continue;
        }
        visited[seed] = true;
        queue.push_back(seed);
        while let Some(v) = queue.pop_front() {
            if in_alloc[v] {
                order.push(v);
            }
            for &c in fabric.out_channels(v) {
                let next = fabric.channel_dst(c);
                if !visited[next] {
                    visited[next] = true;
                    queue.push_back(next);
                }
            }
        }
    }
    debug_assert_eq!(order.len(), nodes.len());
    order
}

/// Escape capacity (GB/s) of every prefix of `order`: entry `t - 1` is the
/// total bandwidth of directed channels leaving the first `t` nodes, counted
/// in the whole fabric. Incremental: adding node `v` gains `v`'s outgoing
/// channels to non-members and retires the channels members already aimed at
/// `v` (channel sets are symmetric, so those mirror `v`'s own out-channels).
pub fn prefix_cut_gbs(fabric: &Fabric, order: &[usize]) -> Vec<f64> {
    let mut member = vec![false; fabric.num_nodes()];
    let mut cuts = Vec::with_capacity(order.len());
    let mut cut = 0.0f64;
    for &v in order {
        member[v] = true;
        for &c in fabric.out_channels(v) {
            let ch = fabric.channel(c);
            if member[ch.to] {
                // The mirror channel `ch.to -> v` was part of the cut and now
                // points inside; same bandwidth by fabric symmetry.
                cut -= ch.bandwidth_gbs;
            } else {
                cut += ch.bandwidth_gbs;
            }
        }
        cuts.push(cut);
    }
    cuts
}

/// Internal capacity (GB/s) of every prefix of `order`, counting only
/// channels whose *both* endpoints belong to the allocation — the cut of the
/// allocation-induced subgraph, i.e. the partition viewed as an isolated
/// subnetwork (the Blue Gene/Q convention). Always at most the escape cut of
/// [`prefix_cut_gbs`]; zero when the prefix has no direct channels into the
/// rest of the allocation.
pub fn prefix_internal_cut_gbs(fabric: &Fabric, order: &[usize], allocation: &[usize]) -> Vec<f64> {
    let mut in_alloc = vec![false; fabric.num_nodes()];
    for &v in allocation {
        in_alloc[v] = true;
    }
    let mut member = vec![false; fabric.num_nodes()];
    let mut cuts = Vec::with_capacity(order.len());
    let mut cut = 0.0f64;
    for &v in order {
        member[v] = true;
        for &c in fabric.out_channels(v) {
            let ch = fabric.channel(c);
            if !in_alloc[ch.to] {
                continue;
            }
            if member[ch.to] {
                cut -= ch.bandwidth_gbs;
            } else {
                cut += ch.bandwidth_gbs;
            }
        }
        cuts.push(cut);
    }
    cuts
}

/// The two deterministic sweep orders of an allocation — the BFS locality
/// order and the sorted index order — computed once and shared by every
/// cut profile that needs them. Candidate scoring builds one `SweepOrders`
/// per candidate instead of re-running the fabric-wide BFS for the bound
/// and again for the internal bisection.
#[derive(Debug, Clone)]
pub struct SweepOrders {
    locality: Vec<usize>,
    sorted: Vec<usize>,
}

impl SweepOrders {
    /// Compute both orders of an allocation.
    ///
    /// # Panics
    /// Panics on invalid or duplicate node indices.
    pub fn new(fabric: &Fabric, nodes: &[usize]) -> Self {
        let mut sorted = nodes.to_vec();
        sorted.sort_unstable();
        Self {
            locality: locality_order(fabric, nodes),
            sorted,
        }
    }

    /// The orders, for iteration.
    fn both(&self) -> [&[usize]; 2] {
        [&self.locality, &self.sorted]
    }
}

/// Escape capacity (GB/s) of the sweep bisection of an allocation: the
/// smaller of the `⌊P/2⌋`-prefix cuts over the locality and index orders.
///
/// # Panics
/// Panics on allocations of fewer than 2 nodes or invalid node indices.
pub fn sweep_bisection_gbs(fabric: &Fabric, nodes: &[usize]) -> f64 {
    assert!(
        nodes.len() >= 2,
        "an allocation of {} node(s) has no bisection",
        nodes.len()
    );
    let half = nodes.len() / 2;
    let orders = SweepOrders::new(fabric, nodes);
    orders
        .both()
        .map(|order| prefix_cut_gbs(fabric, order)[half - 1])
        .into_iter()
        .fold(f64::INFINITY, f64::min)
}

/// Internal bisection capacity (GB/s) of an allocation: like
/// [`sweep_bisection_gbs`] but over the allocation-induced subgraph. This is
/// the generic stand-in for a partition's `bisection_links` — larger means a
/// better-connected allocation — and it is what the fabric-generic allocation
/// ranking in `netpart-alloc` sorts by. A scattered allocation with no direct
/// internal channels scores 0.
///
/// # Panics
/// Panics on allocations of fewer than 2 nodes or invalid node indices.
pub fn internal_bisection_gbs(fabric: &Fabric, nodes: &[usize]) -> f64 {
    internal_bisection_gbs_with(fabric, nodes, &SweepOrders::new(fabric, nodes))
}

/// [`internal_bisection_gbs`] with precomputed [`SweepOrders`].
///
/// # Panics
/// Panics on allocations of fewer than 2 nodes or invalid node indices.
pub fn internal_bisection_gbs_with(fabric: &Fabric, nodes: &[usize], orders: &SweepOrders) -> f64 {
    assert!(
        nodes.len() >= 2,
        "an allocation of {} node(s) has no bisection",
        nodes.len()
    );
    let half = nodes.len() / 2;
    orders
        .both()
        .map(|order| prefix_internal_cut_gbs(fabric, order, nodes)[half - 1])
        .into_iter()
        .fold(f64::INFINITY, f64::min)
}

impl ContentionModel {
    /// Contention lower bound of this kernel on an explicit allocation of a
    /// fabric, via the locality-sweep escape cuts (never the closed form).
    ///
    /// # Panics
    /// Panics if the allocation has fewer than 2 nodes, or contains invalid
    /// or duplicate node indices.
    pub fn sweep_bound(&self, fabric: &Fabric, nodes: &[usize]) -> FabricContentionBound {
        self.sweep_bound_with(fabric, nodes, &SweepOrders::new(fabric, nodes))
    }

    /// [`ContentionModel::sweep_bound`] with precomputed [`SweepOrders`].
    ///
    /// # Panics
    /// Panics if the allocation has fewer than 2 nodes.
    pub fn sweep_bound_with(
        &self,
        fabric: &Fabric,
        nodes: &[usize],
        orders: &SweepOrders,
    ) -> FabricContentionBound {
        let p = nodes.len() as u64;
        assert!(
            p >= 2,
            "an allocation of {p} node(s) has no internal traffic to contend for"
        );
        let words = self.kernel.words_per_proc(p);
        let mut best = FabricContentionBound {
            seconds: 0.0,
            cut_gbs: 0.0,
            critical_scale: p / 2,
            attained_at_bisection: true,
            closed_form: false,
        };
        let mut best_words_per_gbs = 0.0f64;
        for order in orders.both() {
            for (idx, &cut) in prefix_cut_gbs(fabric, order).iter().enumerate() {
                let t = idx as u64 + 1;
                if t > p / 2 || cut <= 0.0 {
                    continue;
                }
                // Uniform-spread crossing volume Q(t) = W · t · (P - t) / P,
                // all of which must leave S_t through `cut` GB/s.
                let crossing = words * t as f64 * (p - t) as f64 / p as f64;
                let per_gbs = crossing / cut;
                if per_gbs > best_words_per_gbs {
                    best_words_per_gbs = per_gbs;
                    best.cut_gbs = cut;
                    best.critical_scale = t;
                    best.attained_at_bisection = t == p / 2;
                }
            }
        }
        best.seconds = best_words_per_gbs * BYTES_PER_WORD / 1e9;
        best
    }

    /// Contention lower bound of this kernel on an allocation of a fabric,
    /// taking the torus closed form when it applies.
    ///
    /// The closed form is used exactly when the allocation is the *entire*
    /// fabric, the fabric was built from a torus, that torus has uniform
    /// unit link capacities, and every channel of the fabric runs at this
    /// model's `link_bandwidth_gbs` — the standalone-partition case the
    /// paper's Lemma 3.3 analysis covers, at the bandwidth the closed form
    /// assumes (a fabric built at a different rate must not inherit a bound
    /// computed at this one). The conversion is lossless, so the result is
    /// bit-identical to [`ContentionModel::contention_bound`] there (pinned
    /// by the `advice_parity` proptest suite). Everything else goes through
    /// [`ContentionModel::sweep_bound`], which reads the fabric's actual
    /// channel capacities.
    ///
    /// # Panics
    /// Panics if the allocation has fewer than 2 nodes, or contains invalid
    /// or duplicate node indices.
    pub fn fabric_bound(&self, fabric: &Fabric, nodes: &[usize]) -> FabricContentionBound {
        match self.closed_form_bound(fabric, nodes) {
            Some(bound) => bound,
            None => self.sweep_bound(fabric, nodes),
        }
    }

    /// [`ContentionModel::fabric_bound`] with precomputed [`SweepOrders`]
    /// (the orders are only consulted when the closed form does not apply).
    ///
    /// # Panics
    /// Panics if the allocation has fewer than 2 nodes, or contains invalid
    /// or duplicate node indices.
    pub fn fabric_bound_with(
        &self,
        fabric: &Fabric,
        nodes: &[usize],
        orders: &SweepOrders,
    ) -> FabricContentionBound {
        match self.closed_form_bound(fabric, nodes) {
            Some(bound) => bound,
            None => self.sweep_bound_with(fabric, nodes, orders),
        }
    }

    /// The closed-form fast path, when its preconditions hold (see
    /// [`ContentionModel::fabric_bound`]).
    fn closed_form_bound(&self, fabric: &Fabric, nodes: &[usize]) -> Option<FabricContentionBound> {
        let torus = fabric.torus()?;
        let uniform = torus.capacities().iter().all(|&c| c == 1.0)
            && fabric
                .capacities()
                .iter()
                .all(|&bw| bw == self.link_bandwidth_gbs);
        if !uniform || !is_full_node_set(fabric, nodes) {
            return None;
        }
        let closed = self.contention_bound(torus.dims());
        Some(FabricContentionBound {
            seconds: closed.seconds,
            cut_gbs: closed.cut_links as f64 * self.link_bandwidth_gbs,
            critical_scale: closed.critical_scale,
            attained_at_bisection: closed.attained_at_bisection,
            closed_form: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::Kernel;
    use netpart_topology::{FatTree, Torus};

    fn pairing_model() -> ContentionModel {
        ContentionModel::bgq(Kernel::Custom {
            words_per_proc: 2e9 / 8.0,
            flops_per_proc: 1.0,
        })
    }

    #[test]
    fn full_torus_fast_path_matches_the_closed_form_exactly() {
        let model = pairing_model();
        for dims in [vec![8, 4, 4], vec![16, 4, 4, 4, 2], vec![6, 6, 2]] {
            let fabric = Fabric::from_torus(Torus::new(dims.clone()), 2.0);
            let nodes: Vec<usize> = (0..fabric.num_nodes()).collect();
            let generic = model.fabric_bound(&fabric, &nodes);
            let closed = model.contention_bound(&dims);
            assert!(generic.closed_form, "{dims:?}");
            assert_eq!(generic.seconds.to_bits(), closed.seconds.to_bits());
            assert_eq!(generic.critical_scale, closed.critical_scale);
            assert_eq!(generic.attained_at_bisection, closed.attained_at_bisection);
        }
    }

    #[test]
    fn sweep_bound_never_exceeds_the_closed_form_on_tori() {
        // The sweep optimizes over fewer candidate sets, so as a lower bound
        // it can only be weaker (smaller).
        let model = pairing_model();
        for dims in [vec![8, 4, 4], vec![4, 4, 4, 2], vec![12, 2, 2]] {
            let fabric = Fabric::from_torus(Torus::new(dims.clone()), 2.0);
            let nodes: Vec<usize> = (0..fabric.num_nodes()).collect();
            let sweep = model.sweep_bound(&fabric, &nodes);
            let closed = model.contention_bound(&dims);
            assert!(
                sweep.seconds <= closed.seconds * (1.0 + 1e-12),
                "{dims:?}: sweep {} > closed {}",
                sweep.seconds,
                closed.seconds
            );
            assert!(sweep.seconds > 0.0);
            assert!(!sweep.closed_form);
        }
    }

    #[test]
    fn mismatched_channel_bandwidth_disables_the_closed_form() {
        // A model calibrated at 2 GB/s must not hand its closed-form bound
        // to a fabric whose channels run at 4 GB/s — the faster fabric gets
        // the sweep bound, computed from its actual capacities, and it is
        // strictly smaller (more capacity, weaker bound).
        let model = pairing_model();
        let slow = Fabric::from_torus(Torus::new(vec![8, 4, 4]), 2.0);
        let fast = Fabric::from_torus(Torus::new(vec![8, 4, 4]), 4.0);
        let nodes: Vec<usize> = (0..slow.num_nodes()).collect();
        let slow_bound = model.fabric_bound(&slow, &nodes);
        let fast_bound = model.fabric_bound(&fast, &nodes);
        assert!(slow_bound.closed_form);
        assert!(!fast_bound.closed_form);
        assert!(
            fast_bound.seconds < slow_bound.seconds,
            "4 GB/s bound {} must undercut the 2 GB/s bound {}",
            fast_bound.seconds,
            slow_bound.seconds
        );
    }

    #[test]
    fn precomputed_orders_reproduce_the_direct_results() {
        let model = pairing_model();
        let fabric = Fabric::from_torus(Torus::new(vec![8, 8]), 2.0);
        let block: Vec<usize> = (0..4)
            .flat_map(|x| (0..4).map(move |y| x * 8 + y))
            .collect();
        let orders = SweepOrders::new(&fabric, &block);
        assert_eq!(
            model.sweep_bound(&fabric, &block),
            model.sweep_bound_with(&fabric, &block, &orders)
        );
        assert_eq!(
            model.fabric_bound(&fabric, &block),
            model.fabric_bound_with(&fabric, &block, &orders)
        );
        assert_eq!(
            internal_bisection_gbs(&fabric, &block),
            internal_bisection_gbs_with(&fabric, &block, &orders)
        );
    }

    #[test]
    fn partial_allocations_take_the_sweep_path() {
        let model = pairing_model();
        let fabric = Fabric::from_torus(Torus::new(vec![8, 8]), 2.0);
        let block: Vec<usize> = (0..4)
            .flat_map(|x| (0..4).map(move |y| x * 8 + y))
            .collect();
        let bound = model.fabric_bound(&fabric, &block);
        assert!(!bound.closed_form);
        assert!(bound.seconds > 0.0);
        assert!(bound.critical_scale >= 1 && bound.critical_scale <= 8);
    }

    #[test]
    fn compact_allocations_bound_higher_than_scattered_ones() {
        // A compact set has a small escape boundary, so the same crossing
        // volume squeezes through less capacity: a larger (tighter) bound.
        let model = pairing_model();
        let fabric = Fabric::from_torus(Torus::new(vec![8, 8]), 2.0);
        let compact: Vec<usize> = (0..4)
            .flat_map(|x| (0..4).map(move |y| x * 8 + y))
            .collect();
        let scattered: Vec<usize> = (0..16).map(|i| (i * 4 + i / 8) % 64).collect();
        let c = model.fabric_bound(&fabric, &compact);
        let s = model.fabric_bound(&fabric, &scattered);
        assert!(
            c.seconds >= s.seconds,
            "compact {} < scattered {}",
            c.seconds,
            s.seconds
        );
    }

    #[test]
    fn locality_order_crosses_intermediate_switch_nodes() {
        // On a fat-tree, two hosts of the same edge switch are only
        // connected *through* the switch (distance 2); the sweep order must
        // still discover that locality by traversing non-allocation nodes.
        let fabric = Fabric::from_topology(&FatTree::new(4), 2.0);
        let hosts: Vec<usize> = (0..8).collect(); // pods 0-1's hosts
        let order = locality_order(&fabric, &hosts);
        assert_eq!(order.len(), 8);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, hosts);
        // Hosts sharing an edge switch are adjacent in the sweep order even
        // though no fabric channel joins them directly.
        assert_eq!(&order[..2], &[0, 1]);
    }

    #[test]
    fn prefix_cuts_are_consistent_with_a_direct_count() {
        let fabric = Fabric::from_torus(Torus::new(vec![4, 4]), 2.0);
        let order: Vec<usize> = vec![0, 1, 4, 5];
        let cuts = prefix_cut_gbs(&fabric, &order);
        for (t, &cut) in cuts.iter().enumerate() {
            let members: std::collections::HashSet<usize> = order[..=t].iter().copied().collect();
            let direct: f64 = (0..fabric.num_channels() as netpart_engine::ChannelId)
                .map(|c| fabric.channel(c))
                .filter(|ch| members.contains(&ch.from) && !members.contains(&ch.to))
                .map(|ch| ch.bandwidth_gbs)
                .sum();
            assert!((cut - direct).abs() < 1e-9, "prefix {t}: {cut} vs {direct}");
        }
    }

    #[test]
    fn internal_cuts_never_exceed_escape_cuts() {
        let fabric = Fabric::from_torus(Torus::new(vec![8, 8]), 2.0);
        let square: Vec<usize> = (0..4)
            .flat_map(|x| (0..4).map(move |y| x * 8 + y))
            .collect();
        let order = locality_order(&fabric, &square);
        let escape = prefix_cut_gbs(&fabric, &order);
        let internal = prefix_internal_cut_gbs(&fabric, &order, &square);
        for (e, i) in escape.iter().zip(&internal) {
            assert!(i <= e, "internal {i} > escape {e}");
        }
        assert!(sweep_bisection_gbs(&fabric, &square) > 0.0);
        assert!(internal_bisection_gbs(&fabric, &square) > 0.0);
    }

    #[test]
    fn scattered_allocations_have_zero_internal_bisection() {
        // The even-coordinate nodes of an 8x8 torus are pairwise
        // non-adjacent: the induced subgraph has no channels at all.
        let fabric = Fabric::from_torus(Torus::new(vec![8, 8]), 2.0);
        let scattered: Vec<usize> = (0..4)
            .flat_map(|r| (0..4).map(move |c| (2 * r) * 8 + 2 * c))
            .collect();
        let square: Vec<usize> = (0..4)
            .flat_map(|x| (0..4).map(move |y| x * 8 + y))
            .collect();
        assert_eq!(internal_bisection_gbs(&fabric, &scattered), 0.0);
        assert!(internal_bisection_gbs(&fabric, &square) > 0.0);
        // The escape bisection tells the opposite story — scattered sets have
        // enormous boundary capacity — which is exactly why ranking uses the
        // internal cut while the lower bound uses the escape cut.
        assert!(sweep_bisection_gbs(&fabric, &scattered) > sweep_bisection_gbs(&fabric, &square));
    }

    #[test]
    #[should_panic(expected = "no internal traffic")]
    fn single_node_allocation_is_rejected() {
        let fabric = Fabric::from_torus(Torus::new(vec![4, 4]), 2.0);
        let _ = pairing_model().sweep_bound(&fabric, &[3]);
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn duplicate_nodes_are_rejected() {
        let fabric = Fabric::from_torus(Torus::new(vec![4, 4]), 2.0);
        let _ = pairing_model().sweep_bound(&fabric, &[1, 1]);
    }
}

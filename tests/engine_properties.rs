//! Property-based tests for the engine's routers and flow scenarios:
//! randomized topologies, endpoints and flow sets must respect the walk and
//! lower-bound invariants the subsystem is built on.

use netpart::engine::{
    route_flows, route_flows_csr, simulate_flows, DimensionOrdered, Ecmp, Fabric, Flow, Router,
    ShortestPath, Valiant,
};
use netpart::topology::{
    Circulant, Dragonfly, FatTree, GlobalArrangement, HyperX, Hypercube, SlimFly, Topology, Torus,
};
use proptest::prelude::*;

/// Random torus dimensions of 2 to 4 axes, each 2 to 5 long, at most ~200
/// nodes.
fn small_torus_dims() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(2usize..=5, 2..=4).prop_filter("keep the node count small", |dims| {
        dims.iter().product::<usize>() <= 200
    })
}

/// Build the `i`-th catalog fabric (a fixed zoo of non-torus topologies).
fn catalog_fabric(i: usize) -> Fabric {
    match i % 6 {
        0 => Fabric::from_topology(&Hypercube::new(5), 2.0),
        1 => Fabric::from_topology(&HyperX::regular(vec![4, 6]), 2.0),
        2 => Fabric::from_topology(
            &Dragonfly::new(4, 3, 3, 1.0, 1.0, 1.0, 1, GlobalArrangement::Circulant),
            2.0,
        ),
        3 => Fabric::from_topology(&FatTree::new(4), 2.0),
        4 => Fabric::from_topology(&SlimFly::new(5), 2.0),
        _ => Fabric::from_topology(&Circulant::new(40, vec![1, 7, 16]), 2.0),
    }
}

/// Assert that `path` is a connected walk from `src` to `dst` in `fabric`.
fn assert_valid_walk(fabric: &Fabric, src: usize, dst: usize, path: &[netpart::engine::ChannelId]) {
    let mut node = src;
    for &c in path {
        assert_eq!(fabric.channel_src(c), node, "walk disconnects");
        node = fabric.channel_dst(c);
    }
    assert_eq!(node, dst, "walk must end at the destination");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every router produces valid walks that reach their destination on
    /// every topology family in the catalog.
    #[test]
    fn router_paths_are_valid_walks_on_every_topology(
        fabric_idx in 0usize..6,
        src_raw in 0usize..10_000,
        dst_raw in 0usize..10_000,
        salt in 0u64..1000,
    ) {
        let fabric = catalog_fabric(fabric_idx);
        let n = fabric.num_nodes();
        let (src, dst) = (src_raw % n, dst_raw % n);
        for router in [
            &ShortestPath as &dyn Router,
            &Ecmp { salt },
            &Valiant { seed: salt },
        ] {
            let path = router.route(&fabric, src, dst).expect("catalog fabrics are connected");
            assert_valid_walk(&fabric, src, dst, &path);
            if src == dst {
                prop_assert!(path.is_empty(), "{}", router.label());
            }
        }
    }

    /// Dimension-ordered routing on random torus fabrics produces valid
    /// walks of exactly the wrap-around distance.
    #[test]
    fn dimension_ordered_walks_are_distance_optimal(
        dims in small_torus_dims(),
        src_raw in 0usize..10_000,
        dst_raw in 0usize..10_000,
    ) {
        let torus = Torus::new(dims);
        let n = torus.num_nodes();
        let fabric = Fabric::from_torus(torus.clone(), 2.0);
        let (src, dst) = (src_raw % n, dst_raw % n);
        let path = DimensionOrdered::default().route(&fabric, src, dst).expect("valid hop");
        assert_valid_walk(&fabric, src, dst, &path);
        prop_assert_eq!(path.len(), torus.distance(src, dst));
    }

    /// On every catalog fabric, simulated makespans respect the bottleneck
    /// lower bound and each flow takes at least its serial time.
    #[test]
    fn makespan_respects_lower_bounds_on_every_topology(
        fabric_idx in 0usize..6,
        endpoints in proptest::collection::vec((0usize..10_000, 0usize..10_000, 1u32..40), 1..30),
    ) {
        let fabric = catalog_fabric(fabric_idx);
        let n = fabric.num_nodes();
        let flows: Vec<Flow> = endpoints
            .iter()
            .map(|&(s, d, gb)| Flow { src: s % n, dst: d % n, gigabytes: gb as f64 / 8.0 })
            .collect();
        let outcome = simulate_flows(&fabric, &ShortestPath, &flows).expect("connected");
        prop_assert!(outcome.makespan >= outcome.bottleneck_lower_bound - 1e-9);
        for (flow, done) in flows.iter().zip(&outcome.completion) {
            if flow.src != flow.dst {
                let fastest = fabric.capacities().iter().copied().fold(0.0, f64::max);
                prop_assert!(*done >= flow.gigabytes / fastest - 1e-9);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(64))]

    /// Routing a flow list into CSR buffers gives, flow for flow, the path
    /// of a per-flow `Router::route` call, on lists whose destinations
    /// repeat (where the minimal routers search each destination once),
    /// with self-flows and an optional out-of-range node anywhere. On a
    /// failing list the error is the per-flow loop's first: the disconnected
    /// circulant (even and odd nodes never meet) makes unreachable pairs.
    #[test]
    fn flow_list_routing_matches_per_flow_routing(
        fabric_idx in 0usize..7,
        pool in proptest::collection::vec(0usize..10_000, 1..=4),
        picks in proptest::collection::vec((0usize..10_000, 0usize..4, 0u8..6), 1..40),
        out_of_range in proptest::option::of((0usize..10_000, 0usize..3, any::<bool>())),
        salt in 0u64..1000,
    ) {
        let fabric = if fabric_idx == 6 {
            Fabric::from_topology(&Circulant::new(40, vec![2]), 2.0)
        } else {
            catalog_fabric(fabric_idx)
        };
        let n = fabric.num_nodes();
        let mut flows: Vec<Flow> = picks
            .iter()
            .map(|&(src, slot, kind)| {
                let src = src % n;
                // One flow in six is a self-flow; the rest share the pool's
                // few destinations.
                let dst = if kind == 0 { src } else { pool[slot % pool.len()] % n };
                Flow { src, dst, gigabytes: 1.0 }
            })
            .collect();
        if let Some((pos, beyond, as_src)) = out_of_range {
            let (inside, outside) = (pos % n, n + beyond);
            let (src, dst) = if as_src { (outside, inside) } else { (inside, outside) };
            flows.insert(pos % (flows.len() + 1), Flow { src, dst, gigabytes: 1.0 });
        }
        for router in [
            &ShortestPath as &dyn Router,
            &Ecmp { salt },
            &Valiant { seed: salt },
        ] {
            // Stale contents: the call must clear the buffers.
            let (mut offsets, mut data) = (vec![7], vec![3]);
            let got = route_flows_csr(&fabric, router, &flows, &mut offsets, &mut data);
            match route_flows(&fabric, router, &flows) {
                Ok(paths) => {
                    prop_assert_eq!(got, Ok(()), "{}", router.label());
                    prop_assert_eq!(offsets.len(), flows.len() + 1);
                    for (i, path) in paths.iter().enumerate() {
                        prop_assert_eq!(
                            &data[offsets[i]..offsets[i + 1]],
                            path.as_slice(),
                            "{} flow {}",
                            router.label(),
                            i
                        );
                    }
                }
                Err(first) => prop_assert_eq!(got, Err(first), "{}", router.label()),
            }
        }
    }
}

/// A deterministic pseudo-random flow set over `n` nodes.
fn flow_set(n: usize, count: usize, seed: u64) -> Vec<Flow> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..count)
        .map(|_| Flow {
            src: (next() % n as u64) as usize,
            dst: (next() % n as u64) as usize,
            gigabytes: 0.1 + (next() % 64) as f64 / 16.0,
        })
        .collect()
}

#[test]
fn engine_flow_sim_covers_non_torus_topologies_end_to_end() {
    let fabrics = [
        Fabric::from_topology(&Hypercube::new(6), 2.0),
        Fabric::from_topology(
            &Dragonfly::new(4, 4, 4, 1.0, 1.0, 1.0, 1, GlobalArrangement::Relative),
            2.0,
        ),
        Fabric::from_topology(&FatTree::new(4), 2.0),
        Fabric::from_topology(&SlimFly::new(5), 2.0),
        Fabric::from_topology(&Circulant::new(64, vec![1, 9, 23]), 2.0),
    ];
    for fabric in &fabrics {
        let n = fabric.num_nodes();
        let flows = flow_set(n, n, 17);
        let outcome = simulate_flows(fabric, &ShortestPath, &flows).expect("connected fabric");
        assert!(outcome.makespan >= outcome.bottleneck_lower_bound - 1e-9);
        assert!(outcome.completion.len() == n);
    }
}

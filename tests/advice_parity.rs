//! Parity guards for the fabric-generic allocation-advice column.
//!
//! This PR generalized the contention analysis from standalone tori to
//! arbitrary `engine::Fabric` allocations. These tests pin the
//! generalization to the legacy closed forms:
//!
//! * On any uniform-capacity torus fabric whose allocation is the whole
//!   machine, `ContentionModel::fabric_bound` must reproduce the legacy
//!   `contention_bound` closed form **bit-identically** (random geometries ×
//!   random kernels).
//! * The generic locality-sweep bound optimizes over fewer candidate sets
//!   than the closed-form cuboid search, so as a lower bound it must never
//!   exceed the closed form on tori.
//! * The legacy `advise` wire answer — the service response the paper's
//!   machines have always received — is pinned to its exact pre-refactor
//!   rendering.
//! * Bound and simulation must agree on the ordering of the torus reference
//!   geometry pairs (the paper's worst-vs-best question, node-granularity
//!   scaled).
//! * The closed form's one-pass min-cut profile must reproduce the per-scale
//!   cuboid search it replaced bit for bit: that search is kept below as the
//!   reference model, on random tori and on every Blue Gene/Q partition
//!   geometry the paper's machines admit.

use netpart::contention::{ContentionBound, ContentionModel, Kernel, BYTES_PER_WORD};
use netpart::engine::{Exec, Fabric, SolverMode};
use netpart::iso::cuboid::min_cut_cuboid;
use netpart::machines::known::all_machines;
use netpart::scenario::{
    run_advice, AdviceSpec, AllocationSpec, RoutingSpec as ScenarioRouting, TopologySpec,
};
use netpart::service::handlers::{handle, handle_with};
use netpart::service::protocol::Request;
use netpart::topology::Torus;
use proptest::prelude::*;

/// Random torus extents with bounded volume (every dimension ≥ 1, at least
/// one ≥ 2 so the torus has links).
fn dims_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..7, 2..5).prop_filter("needs >= 4 nodes", |dims| {
        let volume: usize = dims.iter().product();
        (4..=512).contains(&volume) && dims.iter().any(|&a| a >= 2)
    })
}

fn kernel_strategy() -> BoxedStrategy<Kernel> {
    prop_oneof![
        (256u64..65_536).prop_map(|n| Kernel::ClassicalMatmul { n }),
        (256u64..65_536).prop_map(|n| Kernel::StrassenMatmul { n }),
        (1u64 << 12..1 << 22).prop_map(|bodies| Kernel::DirectNBody { bodies }),
        (1u64 << 12..1 << 24).prop_map(|n| Kernel::Fft { n }),
        (1.0f64..1e9).prop_map(|words_per_proc| Kernel::Custom {
            words_per_proc,
            flops_per_proc: 1.0,
        }),
    ]
    .boxed()
}

/// The per-scale search the closed form used before the lattice pass: every
/// distinct cuboid volume `1 ≤ t ≤ P/2` achievable inside `dims`, ascending,
/// each with its [`min_cut_cuboid`] cut.
fn per_scale_cuts(dims: &[usize]) -> Vec<(u64, u64)> {
    let total: u64 = dims.iter().map(|&a| a as u64).product();
    let mut volumes = vec![1u64];
    for &a in dims {
        let mut next = Vec::new();
        for d in 1..=a as u64 {
            for &v in &volumes {
                next.push(v * d);
            }
        }
        next.sort_unstable();
        next.dedup();
        volumes = next;
    }
    volumes.retain(|&v| v >= 1 && v <= total / 2);
    volumes
        .into_iter()
        .filter_map(|t| min_cut_cuboid(dims, t).map(|(_, cut)| (t, cut)))
        .collect()
}

/// The reference bound over `per_scale_cuts(dims)`, with the closed form's
/// arithmetic and its strict `>`.
fn reference_bound(
    model: &ContentionModel,
    dims: &[usize],
    cuts: &[(u64, u64)],
) -> ContentionBound {
    let p: u64 = dims.iter().map(|&a| a as u64).product();
    let words = model.kernel.words_per_proc(p);
    let mut best = ContentionBound {
        words_on_busiest_link: 0.0,
        seconds: 0.0,
        critical_scale: p / 2,
        cut_links: 0,
        attained_at_bisection: true,
    };
    for &(t, cut) in cuts {
        if cut == 0 {
            continue;
        }
        let crossing = words * t as f64 * (p - t) as f64 / p as f64;
        let per_link = crossing / cut as f64;
        if per_link > best.words_on_busiest_link {
            best.words_on_busiest_link = per_link;
            best.critical_scale = t;
            best.cut_links = cut;
            best.attained_at_bisection = t == p / 2;
        }
    }
    best.seconds = best.words_on_busiest_link * BYTES_PER_WORD / (model.link_bandwidth_gbs * 1e9);
    best
}

/// Every field of two bounds, floats by their bits.
fn assert_same_bound(dims: &[usize], got: &ContentionBound, want: &ContentionBound) {
    assert_eq!(
        got.words_on_busiest_link.to_bits(),
        want.words_on_busiest_link.to_bits(),
        "{dims:?}: words {} vs {}",
        got.words_on_busiest_link,
        want.words_on_busiest_link
    );
    assert_eq!(got.seconds.to_bits(), want.seconds.to_bits(), "{dims:?}");
    assert_eq!(got.critical_scale, want.critical_scale, "{dims:?}");
    assert_eq!(got.cut_links, want.cut_links, "{dims:?}");
    assert_eq!(
        got.attained_at_bisection, want.attained_at_bisection,
        "{dims:?}"
    );
}

/// Every node-level geometry of every partition size of the five machines,
/// under several kernels, against the per-scale reference.
#[test]
fn closed_form_matches_the_per_scale_search_on_every_bgq_geometry() {
    let mut dim_sets: Vec<Vec<usize>> = all_machines()
        .iter()
        .flat_map(|machine| {
            machine
                .feasible_sizes()
                .into_iter()
                .flat_map(|size| machine.geometries(size))
                .map(|g| g.node_dims().to_vec())
                .collect::<Vec<_>>()
        })
        .collect();
    dim_sets.sort();
    dim_sets.dedup();
    assert_eq!(
        dim_sets.len(),
        46,
        "the paper's machines admit 46 geometries"
    );
    let models = [
        ContentionModel::bgq(Kernel::ClassicalMatmul { n: 8192 }),
        ContentionModel::bgq(Kernel::Fft { n: 1 << 26 }),
        ContentionModel::bgq(Kernel::Custom {
            words_per_proc: 2e9 / 8.0,
            flops_per_proc: 1.0,
        }),
    ];
    for dims in &dim_sets {
        let cuts = per_scale_cuts(dims);
        for model in &models {
            let got = model.contention_bound(dims);
            assert_same_bound(dims, &got, &reference_bound(model, dims, &cuts));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(64))]

    #[test]
    fn closed_form_matches_the_per_scale_search(
        dims in dims_strategy(),
        kernel in kernel_strategy(),
    ) {
        let model = ContentionModel::bgq(kernel);
        let want = reference_bound(&model, &dims, &per_scale_cuts(&dims));
        assert_same_bound(&dims, &model.contention_bound(&dims), &want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn full_torus_fabric_bound_is_bit_identical_to_the_closed_form(
        dims in dims_strategy(),
        kernel in kernel_strategy(),
    ) {
        let model = ContentionModel::bgq(kernel);
        let fabric = Fabric::from_torus(Torus::new(dims.clone()), 2.0);
        let nodes: Vec<usize> = (0..fabric.num_nodes()).collect();
        let generic = model.fabric_bound(&fabric, &nodes);
        let closed = model.contention_bound(&dims);
        prop_assert!(generic.closed_form, "{dims:?} must take the fast path");
        prop_assert_eq!(
            generic.seconds.to_bits(),
            closed.seconds.to_bits(),
            "{:?}: {} vs {}",
            dims,
            generic.seconds,
            closed.seconds
        );
        prop_assert_eq!(generic.critical_scale, closed.critical_scale);
        prop_assert_eq!(generic.attained_at_bisection, closed.attained_at_bisection);
        prop_assert_eq!(
            generic.cut_gbs.to_bits(),
            (closed.cut_links as f64 * model.link_bandwidth_gbs).to_bits()
        );
    }

    #[test]
    fn sweep_bound_never_exceeds_the_closed_form_on_tori(
        dims in dims_strategy(),
        kernel in kernel_strategy(),
    ) {
        // The sweep bound optimizes over prefix sets of two fixed orders;
        // the closed form optimizes over all cuboids. Both are lower
        // bounds, and the sweep can only be weaker.
        let model = ContentionModel::bgq(kernel);
        let fabric = Fabric::from_torus(Torus::new(dims.clone()), 2.0);
        let nodes: Vec<usize> = (0..fabric.num_nodes()).collect();
        let sweep = model.sweep_bound(&fabric, &nodes);
        let closed = model.contention_bound(&dims);
        prop_assert!(!sweep.closed_form);
        prop_assert!(
            sweep.seconds <= closed.seconds * (1.0 + 1e-12),
            "{:?}: sweep {} > closed {}",
            dims,
            sweep.seconds,
            closed.seconds
        );
    }

    #[test]
    fn sub_block_sweep_bounds_are_valid_and_scale_free(
        dims in proptest::collection::vec(2usize..7, 2..4),
        kernel in kernel_strategy(),
    ) {
        // A half-machine slab allocation: the sweep bound must stay finite,
        // positive, and attained at a scale no larger than the bisection.
        let model = ContentionModel::bgq(kernel);
        let fabric = Fabric::from_torus(Torus::new(dims.clone()), 2.0);
        let volume: usize = dims.iter().product();
        let block: Vec<usize> = (0..volume / 2).collect();
        prop_assume!(block.len() >= 2);
        let bound = model.sweep_bound(&fabric, &block);
        prop_assert!(bound.seconds.is_finite() && bound.seconds >= 0.0);
        prop_assert!(bound.critical_scale >= 1);
        prop_assert!(bound.critical_scale <= (block.len() / 2) as u64);
    }
}

/// The legacy torus advise answer, pinned byte-for-byte: this is the exact
/// canonical wire line the `advise` endpoint produced before the refactor
/// (Mira, 16 midplanes, default pairing kernel — the paper's Table 1 row).
#[test]
fn legacy_advise_wire_output_is_bit_identical_to_pre_refactor() {
    let response = handle(&Request::Advise {
        machine: "mira".into(),
        size: 16,
        kernel: None,
    });
    assert_eq!(
        response.encode(),
        "{\"best_dims\":[8,8,8,8,2],\"best_links\":2048,\"geometry_matters\":true,\
         \"machine\":\"mira\",\"predicted_speedup\":2,\"regime\":\"contention_bound\",\
         \"size\":16,\"type\":\"advice\",\"worst_dims\":[16,8,8,4,2],\"worst_links\":1024}"
    );
}

/// The solver mode is a server-side execution knob, not part of the request
/// or the answer: every solver-backed endpoint must render byte-identical
/// responses whether the incremental solver is enabled or not. (This is
/// what makes it safe to flip `--solver incremental` on a running fleet
/// without invalidating caches or changing any client-visible bytes.)
#[test]
fn solver_mode_never_changes_a_single_response_byte() {
    use netpart::service::protocol as wire;
    let requests = vec![
        Request::AdviseFabric {
            spec: wire::AdviceSpec {
                topology: wire::TopologySpec::Dragonfly(4, 4, 2),
                routing: wire::RoutingSpec::ShortestPath,
                nodes: 8,
                gigabytes: 0.25,
                candidates: vec![
                    wire::AllocationSpec::Blocked,
                    wire::AllocationSpec::Greedy,
                    wire::AllocationSpec::Random { samples: 2 },
                ],
                seed: 7,
            },
        },
        Request::AllocationSweep {
            specs: netpart::scenario::standard_allocation_sweep(),
        },
        Request::Readvise {
            spec: wire::AdviceSpec {
                topology: wire::TopologySpec::Torus(vec![4, 4]),
                routing: wire::RoutingSpec::DimensionOrdered,
                nodes: 4,
                gigabytes: 0.25,
                candidates: vec![
                    wire::AllocationSpec::TorusBlocks,
                    wire::AllocationSpec::Blocked,
                ],
                seed: 3,
            },
            patch: wire::FabricPatch {
                links: vec![wire::LinkPatch {
                    a: 0,
                    b: 1,
                    scale: 1e-3,
                }],
                nodes: vec![wire::NodePatch {
                    node: 5,
                    scale: 0.5,
                }],
            },
        },
        Request::ClusterSim {
            topology: wire::TopologySpec::Torus(vec![4, 4]),
            jobs: 6,
            max_nodes: 4,
            mean_gap: 50.0,
            gigabytes: 0.25,
            allocator: wire::AllocatorSpec::Compact,
        },
    ];
    for request in &requests {
        let batch = handle_with(request, Exec::default()).encode();
        let incremental = handle_with(
            request,
            Exec {
                solver: SolverMode::Incremental,
                ..Exec::default()
            },
        )
        .encode();
        assert_eq!(batch, incremental, "request {request:?}");
        // The default entry point is the batch path.
        assert_eq!(handle(request).encode(), batch);
    }
}

#[test]
fn bound_and_simulation_rank_the_reference_geometry_pairs_identically() {
    // The paper's Mira/JUQUEEN question at node granularity: for each
    // same-volume (worse, better) full-machine pair, both the closed-form
    // bound and the simulated all-to-all must prefer the better geometry.
    let advise_full = |dims: Vec<usize>| {
        let nodes = dims.iter().product();
        let result = run_advice(&AdviceSpec {
            topology: TopologySpec::Torus(dims),
            routing: ScenarioRouting::DimensionOrdered,
            nodes,
            gigabytes: 0.25,
            candidates: vec![AllocationSpec::TorusBlocks],
            seed: 0,
        })
        .unwrap();
        result
            .candidates
            .iter()
            .find(|c| c.nodes.len() == nodes)
            .expect("full machine block")
            .clone()
    };
    for (worse, better) in [
        (vec![8, 2, 2], vec![4, 4, 2]),
        (vec![16, 2, 2], vec![4, 4, 4]),
        (vec![16, 4, 4], vec![8, 8, 4]),
    ] {
        let w = advise_full(worse.clone());
        let b = advise_full(better.clone());
        assert!(w.closed_form && b.closed_form);
        assert!(
            w.bound_seconds > b.bound_seconds,
            "{worse:?} bound {} !> {better:?} bound {}",
            w.bound_seconds,
            b.bound_seconds
        );
        assert!(
            w.simulated_seconds > b.simulated_seconds,
            "{worse:?} sim {} !> {better:?} sim {}",
            w.simulated_seconds,
            b.simulated_seconds
        );
        assert!(w.gap >= 1.0 - 1e-9 && b.gap >= 1.0 - 1e-9);
    }
}

//! Differential parity suite for the advice sweep's scoring.
//!
//! The advice sweep does not re-route and re-arm a simulation per
//! candidate: duplicate candidates collapse onto one simulation, the
//! distinct sets are cut into fixed shards in first-appearance order, and
//! each shard scores its candidates through one reused `FluidSim` over a
//! spec-scoped route cache. That is a pure execution optimization — these
//! tests pin it:
//!
//! * Shard-scored sweeps must be **bit-identical** to the reset-per-
//!   candidate batch path, across random fabrics (torus / dragonfly /
//!   fat-tree / expander), random candidate sets in either order, and
//!   worker thread caps 1 / 2 / 8 (via the vendored
//!   `rayon::with_max_threads`, scoped to the calling test) — and to the
//!   reset path under the incremental solver mode. One fixed sweep at the
//!   service's cap of 64 candidates fills all eight shards.
//! * Fabric-delta re-advice (`run_readvise`) patching a cached base sweep
//!   must be bit-identical to a full recompute on the patched fabric, for
//!   random link/node capacity patches, again at any thread cap.
//!
//! Debug builds double the coverage for free: `run_advice`/`run_readvise`
//! shadow every sweep with the reset scorer and assert bitwise agreement
//! inline.

use netpart::engine::{
    Allocator, DimensionOrdered, Exec, Fabric, FabricPatch, LinkPatch, NodePatch, RandomAllocator,
    Router, ScatterAllocator, ShortestPath, SolverMode, Telemetry,
};
use netpart::scenario::{
    build_fabric, run_advice, run_readvise, score_candidates, score_candidates_reset, AdviceResult,
    AdviceSpec, AllocationSpec, RoutingSpec, TopologySpec, MAX_ADVICE_CANDIDATES,
};
use netpart::topology::Torus;
use netpart_bench::strategies::small_fabric;
use proptest::prelude::*;
use std::collections::HashSet;

/// The fabric's natural router: dimension-ordered on tori, shortest-path
/// elsewhere (the same choice the service makes).
fn natural_router(fabric: &Fabric) -> Box<dyn Router> {
    if fabric.torus().is_some() {
        Box::new(DimensionOrdered::default())
    } else {
        Box::new(ShortestPath)
    }
}

/// Reduce raw index material into sorted duplicate-free candidate node
/// sets, dropping any that collapse below two nodes.
fn reduce_candidates(raw: &[Vec<usize>], nodes: usize) -> Vec<Vec<usize>> {
    raw.iter()
        .map(|set| {
            let mut ids: Vec<usize> = set.iter().map(|i| i % nodes).collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        })
        .filter(|c| c.len() >= 2)
        .collect()
}

/// A random advice question on a small torus: shortest-path routing so the
/// spec is valid for every shape, the four generator families mixed.
fn advice_spec_strategy() -> BoxedStrategy<AdviceSpec> {
    (
        proptest::collection::vec(2usize..=4, 2..=3),
        2usize..=8,
        (5u64..200).prop_map(|g| g as f64 / 100.0),
        0u64..1 << 32,
    )
        .prop_map(|(dims, nodes, gigabytes, seed)| {
            let volume: usize = dims.iter().product();
            AdviceSpec {
                topology: TopologySpec::Torus(dims),
                routing: RoutingSpec::ShortestPath,
                nodes: nodes.clamp(2, volume),
                gigabytes,
                candidates: vec![
                    AllocationSpec::Blocked,
                    AllocationSpec::Greedy,
                    AllocationSpec::Scatter { stride: 3 },
                    AllocationSpec::Random { samples: 2 },
                ],
                seed,
            }
        })
        .boxed()
}

/// Raw material for a fabric patch: link entries as (channel index, scale)
/// and node entries as (node index, scale), reduced against the actual
/// fabric in the test body so every entry is valid.
type RawPatch = (Vec<(usize, f64)>, Vec<(usize, f64)>);

fn raw_patch_strategy() -> BoxedStrategy<RawPatch> {
    let entry = (0usize..1 << 16, (1u64..300).prop_map(|s| s as f64 / 200.0));
    (
        proptest::collection::vec(entry.clone(), 0..=3),
        proptest::collection::vec(entry, 0..=2),
    )
        .boxed()
}

/// Materialize raw patch entries against `fabric`: channel indices become
/// the endpoints of real channels, node indices are reduced into range.
fn reduce_patch(raw: &RawPatch, fabric: &Fabric) -> FabricPatch {
    let links = raw
        .0
        .iter()
        .map(|&(idx, scale)| {
            let channel = fabric.channel((idx % fabric.num_channels()) as u32);
            LinkPatch {
                a: channel.from,
                b: channel.to,
                scale,
            }
        })
        .collect();
    let nodes = raw
        .1
        .iter()
        .map(|&(idx, scale)| NodePatch {
            node: idx % fabric.num_nodes(),
            scale,
        })
        .collect();
    FabricPatch { links, nodes }
}

/// Bitwise equality of two ranked advice results: every float compared by
/// its bit pattern, every discrete field exactly.
fn assert_results_bit_identical(a: &AdviceResult, b: &AdviceResult, context: &str) {
    prop_assert_eq!(&a.label, &b.label, "label ({})", context);
    prop_assert_eq!(&a.fabric, &b.fabric, "fabric ({})", context);
    prop_assert_eq!(a.nodes, b.nodes, "nodes ({})", context);
    prop_assert_eq!(a.truncated, b.truncated, "truncated ({})", context);
    prop_assert_eq!(
        a.ordering_agreement.to_bits(),
        b.ordering_agreement.to_bits(),
        "ordering_agreement ({})",
        context
    );
    prop_assert_eq!(
        a.candidates.len(),
        b.candidates.len(),
        "candidate count ({})",
        context
    );
    for (x, y) in a.candidates.iter().zip(&b.candidates) {
        prop_assert_eq!(&x.label, &y.label, "candidate label ({})", context);
        prop_assert_eq!(&x.nodes, &y.nodes, "candidate nodes ({})", context);
        prop_assert_eq!(x.closed_form, y.closed_form, "closed_form ({})", context);
        prop_assert_eq!(x.solves, y.solves, "solves ({})", context);
        for (name, xf, yf) in [
            ("bound_seconds", x.bound_seconds, y.bound_seconds),
            (
                "simulated_seconds",
                x.simulated_seconds,
                y.simulated_seconds,
            ),
            ("gap", x.gap, y.gap),
            ("cut_gbs", x.cut_gbs, y.cut_gbs),
            (
                "internal_bisection_gbs",
                x.internal_bisection_gbs,
                y.internal_bisection_gbs,
            ),
        ] {
            prop_assert_eq!(
                xf.to_bits(),
                yf.to_bits(),
                "{} of '{}': {} vs {} ({})",
                name,
                x.label,
                xf,
                yf,
                context
            );
        }
    }
}

#[test]
fn a_sweep_at_the_candidate_cap_fills_every_shard_and_matches_reset_scoring() {
    let fabric = Fabric::from_torus(Torus::new(vec![8, 8, 4]), 2.0);
    let router = DimensionOrdered::default();
    let free = vec![true; fabric.num_nodes()];
    let mut candidates: Vec<Vec<usize>> = Vec::with_capacity(MAX_ADVICE_CANDIDATES);
    for i in 0..MAX_ADVICE_CANDIDATES {
        // Every sixteenth candidate repeats an earlier one, so duplicates
        // collapse across shards too.
        let set = if i % 16 == 15 {
            candidates[i - 8].clone()
        } else {
            let nodes = 4 + i % 3;
            let set = if i % 4 == 0 {
                ScatterAllocator { stride: 3 + i }.allocate(&fabric, &free, nodes)
            } else {
                RandomAllocator { seed: i as u64 }.allocate(&fabric, &free, nodes)
            };
            set.expect("the candidate fits the fabric")
        };
        candidates.push(set);
    }
    // Eight shards of eight hold 57 to 64 distinct sets.
    let distinct: HashSet<&Vec<usize>> = candidates.iter().collect();
    assert!(distinct.len() >= 57, "{} distinct sets", distinct.len());
    let gigabytes = 0.25;
    let reference =
        score_candidates_reset(&fabric, &router, &candidates, gigabytes, Exec::default())
            .expect("candidates route");
    for cap in [1usize, 2, 8] {
        let scores = rayon::with_max_threads(cap, || {
            score_candidates(
                &fabric,
                &router,
                &candidates,
                gigabytes,
                &Telemetry::disabled(),
            )
        })
        .expect("candidates route");
        assert_eq!(scores.len(), reference.len());
        for (i, (score, r)) in scores.iter().zip(&reference).enumerate() {
            assert_eq!(
                score.simulated_seconds.to_bits(),
                r.simulated_seconds.to_bits(),
                "candidate {i} diverged at thread cap {cap}: {} vs {}",
                score.simulated_seconds,
                r.simulated_seconds
            );
            assert_eq!(
                score.solves, r.solves,
                "solves of candidate {i} at cap {cap}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(24))]

    #[test]
    fn delta_scoring_is_bit_identical_to_reset_scoring_at_any_thread_cap(
        fabric in small_fabric(),
        // Up to 19 candidates, so a list spans up to three shards of eight
        // and reversing it moves candidates between shards.
        raw in proptest::collection::vec(
            proptest::collection::vec(0usize..1 << 16, 2..10),
            1..20,
        ),
        gigabytes in (5u64..200).prop_map(|g| g as f64 / 100.0),
    ) {
        let candidates = reduce_candidates(&raw, fabric.num_nodes());
        prop_assume!(!candidates.is_empty());
        let router = natural_router(&fabric);
        let telemetry = Telemetry::disabled();
        let reference = score_candidates_reset(
            &fabric, router.as_ref(), &candidates, gigabytes, Exec::default(),
        ).expect("strategy emits only routable candidates");
        // The reset path is also mode-stable; the shard path must match
        // both faces of it.
        let incremental = score_candidates_reset(
            &fabric, router.as_ref(), &candidates, gigabytes,
            Exec { solver: SolverMode::Incremental, ..Exec::default() },
        ).expect("routable");
        for (r, i) in reference.iter().zip(&incremental) {
            prop_assert_eq!(
                r.simulated_seconds.to_bits(), i.simulated_seconds.to_bits()
            );
            prop_assert_eq!(r.solves, i.solves);
        }
        // Candidate order decides which shard a candidate lands in and
        // which candidates it follows there; the reversed list must score
        // every candidate identically.
        let reversed: Vec<Vec<usize>> = candidates.iter().rev().cloned().collect();
        let reversed_reference: Vec<_> = reference.iter().rev().copied().collect();
        for (order, sets, expected) in [
            ("input", &candidates, &reference),
            ("reversed", &reversed, &reversed_reference),
        ] {
            for cap in [1usize, 2, 8] {
                let scores = rayon::with_max_threads(cap, || score_candidates(
                    &fabric, router.as_ref(), sets, gigabytes, &telemetry,
                )).expect("routable");
                prop_assert_eq!(scores.len(), expected.len());
                for (i, (score, r)) in scores.iter().zip(expected).enumerate() {
                    prop_assert_eq!(
                        score.simulated_seconds.to_bits(),
                        r.simulated_seconds.to_bits(),
                        "candidate {} ({} order) diverged at thread cap {}: {} vs {}",
                        i, order, cap, score.simulated_seconds, r.simulated_seconds
                    );
                    prop_assert_eq!(
                        score.solves, r.solves,
                        "solve count of candidate {} ({} order) diverged at cap {}",
                        i, order, cap
                    );
                }
            }
        }
    }

    #[test]
    fn readvise_from_a_cached_base_matches_a_full_recompute_bitwise(
        spec in advice_spec_strategy(),
        raw_patch in raw_patch_strategy(),
    ) {
        let fabric = build_fabric(&spec.topology).expect("strategy emits valid tori");
        let patch = reduce_patch(&raw_patch, &fabric);
        let base = run_advice(&spec).expect("advice runs on the unpatched fabric");
        // No base: full recompute on the patched fabric — the ground truth.
        let full = run_readvise(&spec, &patch, None).expect("patched advice runs");
        for cap in [1usize, 8] {
            let carried = rayon::with_max_threads(cap, || run_readvise(&spec, &patch, Some(&base)))
                .expect("patched advice runs with a base");
            assert_results_bit_identical(&full, &carried, &format!("thread cap {cap}"));
        }
    }
}

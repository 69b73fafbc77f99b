//! Property tests: the wire protocol round-trips arbitrary requests and
//! responses through encode → decode, and the canonical form is stable.

use netpart_service::protocol::{
    AdviceResult, AdviceSpec, AdviceSweepLine, AllocationSpec, AllocatorSpec, CandidateResult,
    ErrorCode, FlowSpec, KernelSpec, PolicySpec, Request, Response, RoutingSpec, ScenarioSpec,
    StatsSnapshot, SweepLine, TopologySpec, TrafficSpec,
};
use proptest::prelude::*;

/// Strings that survive JSON round-trips byte-for-byte (arbitrary unicode
/// does too, but the generator here sticks to identifier-ish names since
/// that is what the fields carry).
fn name_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..36, 1..12).prop_map(|chars| {
        chars
            .into_iter()
            .map(|c| b"abcdefghijklmnopqrstuvwxyz0123456789"[c] as char)
            .collect()
    })
}

fn dims_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..64, 1..5)
}

fn topology_strategy() -> BoxedStrategy<TopologySpec> {
    prop_oneof![
        dims_strategy().prop_map(TopologySpec::Torus),
        (1usize..14).prop_map(|d| TopologySpec::Hypercube(d as u32)),
        (1usize..9, 1usize..9, 1usize..9).prop_map(|(g, a, p)| TopologySpec::Dragonfly(g, a, p)),
        (2usize..17).prop_map(TopologySpec::FatTree),
        dims_strategy().prop_map(TopologySpec::HyperX),
        (2usize..32).prop_map(TopologySpec::SlimFly),
        (3usize..64, dims_strategy()).prop_map(|(n, skips)| TopologySpec::Expander(n, skips)),
    ]
    .boxed()
}

fn routing_strategy() -> BoxedStrategy<RoutingSpec> {
    prop_oneof![
        Just(RoutingSpec::DimensionOrdered),
        Just(RoutingSpec::ShortestPath),
        (0usize..1_000_000).prop_map(|salt| RoutingSpec::Ecmp {
            // Spread over the full u64 range (beyond 2^53) to pin the exact
            // string-based wire encoding.
            salt: (salt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        }),
        (0usize..1_000_000).prop_map(|seed| RoutingSpec::Valiant {
            seed: (seed as u64).wrapping_mul(0xd1b5_4a32_d192_ed03),
        }),
    ]
    .boxed()
}

fn traffic_strategy() -> BoxedStrategy<TrafficSpec> {
    prop_oneof![
        (2usize..64, 0usize..1, 0.01f64..8.0).prop_map(|(rounds, warmup, gb)| {
            TrafficSpec::BisectionPairing {
                rounds,
                warmup_rounds: warmup,
                round_gigabytes: gb,
            }
        }),
        (0.01f64..8.0).prop_map(|gigabytes| TrafficSpec::AllToAll { gigabytes }),
        (0.01f64..8.0).prop_map(|gigabytes| TrafficSpec::RandomPermutation { gigabytes }),
        (
            1usize..64,
            2usize..32,
            0.1f64..1e4,
            0.01f64..16.0,
            prop_oneof![
                Just(AllocatorSpec::Compact),
                (1usize..16).prop_map(AllocatorSpec::Scatter),
            ],
        )
            .prop_map(|(jobs, max_nodes, mean_gap, gigabytes, allocator)| {
                TrafficSpec::JobTrace {
                    jobs,
                    max_nodes,
                    mean_gap,
                    gigabytes,
                    allocator,
                }
            }),
        (
            name_strategy(),
            1usize..128,
            prop_oneof![
                Just(PolicySpec::Worst),
                Just(PolicySpec::Best),
                (0.0f64..1.0).prop_map(PolicySpec::HintAware),
            ],
        )
            .prop_map(|(machine, jobs, policy)| TrafficSpec::SchedulerTrace {
                machine,
                jobs,
                policy,
            }),
    ]
    .boxed()
}

fn scenario_strategy() -> BoxedStrategy<ScenarioSpec> {
    (
        topology_strategy(),
        routing_strategy(),
        traffic_strategy(),
        0usize..1_000_000,
    )
        .prop_map(|(topology, routing, traffic, seed)| ScenarioSpec {
            topology,
            routing,
            traffic,
            seed: (seed as u64).wrapping_mul(0x2545_f491_4f6c_dd1d),
        })
        .boxed()
}

fn allocation_candidate_strategy() -> BoxedStrategy<AllocationSpec> {
    prop_oneof![
        Just(AllocationSpec::TorusBlocks),
        Just(AllocationSpec::Blocked),
        Just(AllocationSpec::Greedy),
        (1usize..32).prop_map(|stride| AllocationSpec::Scatter { stride }),
        (1usize..16).prop_map(|samples| AllocationSpec::Random { samples }),
    ]
    .boxed()
}

fn advice_spec_strategy() -> BoxedStrategy<AdviceSpec> {
    (
        topology_strategy(),
        routing_strategy(),
        2usize..256,
        0.01f64..8.0,
        proptest::collection::vec(allocation_candidate_strategy(), 1..5),
        0usize..1_000_000,
    )
        .prop_map(
            |(topology, routing, nodes, gigabytes, candidates, seed)| AdviceSpec {
                topology,
                routing,
                nodes,
                gigabytes,
                candidates,
                seed: (seed as u64).wrapping_mul(0x2545_f491_4f6c_dd1d),
            },
        )
        .boxed()
}

fn candidate_result_strategy() -> BoxedStrategy<CandidateResult> {
    (
        name_strategy(),
        proptest::collection::vec(0usize..4096, 2..16),
        0.01f64..1e4,
        1.0f64..4.0,
        0.5f64..1e3,
        0usize..128,
    )
        .prop_map(
            |(label, nodes, bound_seconds, gap, cut_gbs, solves)| CandidateResult {
                label,
                nodes,
                bound_seconds,
                simulated_seconds: bound_seconds * gap,
                gap,
                cut_gbs,
                internal_bisection_gbs: cut_gbs / 2.0,
                closed_form: solves % 2 == 0,
                solves,
            },
        )
        .boxed()
}

fn advice_result_strategy() -> BoxedStrategy<AdviceResult> {
    (
        name_strategy(),
        name_strategy(),
        2usize..256,
        proptest::collection::vec(candidate_result_strategy(), 0..5),
        0.0f64..1.0,
    )
        .prop_map(
            |(label, fabric, nodes, candidates, ordering_agreement)| AdviceResult {
                label,
                fabric,
                nodes,
                truncated: candidates.len() > 3,
                candidates,
                ordering_agreement,
            },
        )
        .boxed()
}

fn advice_sweep_line_strategy() -> BoxedStrategy<AdviceSweepLine> {
    (
        name_strategy(),
        name_strategy(),
        0usize..64,
        0.0f64..1.0,
        proptest::option::of(name_strategy()),
    )
        .prop_map(
            |(label, best_candidate, candidates, agreement, error)| match error {
                None => AdviceSweepLine {
                    label,
                    best_candidate,
                    candidates,
                    ordering_agreement: agreement,
                    error: None,
                },
                some_error => AdviceSweepLine {
                    label,
                    best_candidate: String::new(),
                    candidates: 0,
                    ordering_agreement: 0.0,
                    error: some_error,
                },
            },
        )
        .boxed()
}

fn kernel_strategy() -> BoxedStrategy<KernelSpec> {
    prop_oneof![
        (1usize..1_000_000).prop_map(|n| KernelSpec::ClassicalMatmul(n as u64)),
        (1usize..1_000_000).prop_map(|n| KernelSpec::StrassenMatmul(n as u64)),
        (1usize..1_000_000).prop_map(|n| KernelSpec::DirectNBody(n as u64)),
        (1usize..1_000_000).prop_map(|n| KernelSpec::Fft(n as u64)),
        (0.5f64..1e9, 0.5f64..1e9).prop_map(|(w, f)| KernelSpec::Custom(w, f)),
    ]
    .boxed()
}

fn flows_strategy() -> impl Strategy<Value = Vec<FlowSpec>> {
    proptest::collection::vec(
        (0usize..256, 0usize..256, 0.01f64..8.0).prop_map(|(src, dst, gigabytes)| FlowSpec {
            src,
            dst,
            gigabytes,
        }),
        0..12,
    )
}

fn request_strategy() -> BoxedStrategy<Request> {
    prop_oneof![
        (
            name_strategy(),
            1usize..64,
            proptest::option::of(kernel_strategy())
        )
            .prop_map(|(machine, size, kernel)| Request::Advise {
                machine,
                size,
                kernel,
            }),
        (name_strategy(), dims_strategy())
            .prop_map(|(topology, dims)| Request::Bisection { topology, dims }),
        (topology_strategy(), flows_strategy())
            .prop_map(|(topology, flows)| { Request::SimulateFlows { topology, flows } }),
        (
            topology_strategy(),
            1usize..64,
            2usize..32,
            0.1f64..1e4,
            0.01f64..16.0,
            prop_oneof![
                Just(AllocatorSpec::Compact),
                (1usize..16).prop_map(AllocatorSpec::Scatter),
            ],
        )
            .prop_map(
                |(topology, jobs, max_nodes, mean_gap, gigabytes, allocator)| {
                    Request::ClusterSim {
                        topology,
                        jobs,
                        max_nodes,
                        mean_gap,
                        gigabytes,
                        allocator,
                    }
                }
            ),
        (
            name_strategy(),
            1usize..512,
            0usize..1_000_000,
            prop_oneof![
                Just(PolicySpec::Worst),
                Just(PolicySpec::Best),
                (0.0f64..1.0).prop_map(PolicySpec::HintAware),
            ],
        )
            .prop_map(|(machine, jobs, seed, policy)| Request::PolicySim {
                machine,
                jobs,
                // Spread seeds over the full u64 range (beyond 2^53) to pin
                // the exact string-based wire encoding.
                seed: (seed as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                policy,
            }),
        proptest::collection::vec(scenario_strategy(), 0..6)
            .prop_map(|scenarios| Request::Sweep { scenarios }),
        advice_spec_strategy().prop_map(|spec| Request::AdviseFabric { spec }),
        proptest::collection::vec(advice_spec_strategy(), 0..4)
            .prop_map(|specs| Request::AllocationSweep { specs }),
        Just(Request::Health),
        Just(Request::Stats),
        Just(Request::Shutdown),
    ]
    .boxed()
}

fn response_strategy() -> BoxedStrategy<Response> {
    prop_oneof![
        (
            name_strategy(),
            1usize..64,
            dims_strategy(),
            dims_strategy(),
            1usize..100_000,
            1usize..100_000,
            1.0f64..16.0,
        )
            .prop_map(
                |(machine, size, worst_dims, best_dims, worst, best, speedup)| {
                    Response::Advice {
                        machine,
                        size,
                        worst_dims,
                        best_dims,
                        worst_links: worst as u64,
                        best_links: best as u64,
                        predicted_speedup: speedup,
                        regime: "contention_bound".into(),
                        geometry_matters: speedup > 1.05,
                    }
                }
            ),
        (0.5f64..1e6).prop_map(|links| Response::Bisection { links }),
        (0usize..10_000, 0.0f64..1e5, 0.0f64..1e5).prop_map(
            |(flows, makespan, mean_completion)| Response::FlowSummary {
                flows,
                makespan,
                mean_completion,
            }
        ),
        (name_strategy(), 1usize..100, 1.0f64..8.0).prop_map(|(fabric, jobs, penalty)| {
            Response::ClusterSummary {
                fabric,
                allocator: "compact".into(),
                jobs,
                makespan: penalty * 100.0,
                mean_penalty: penalty,
                avoidable_fraction: 0.5,
                mean_wait: 12.5,
            }
        }),
        (0.0f64..1e4).prop_map(|uptime_seconds| Response::Health {
            uptime_seconds,
            workers: 8,
        }),
        (0usize..1_000_000, 0usize..1_000_000, 0usize..4096).prop_map(|(hits, misses, entries)| {
            Response::Stats(StatsSnapshot {
                uptime_seconds: 1.5,
                requests_total: (hits + misses) as u64,
                requests_by_kind: vec![("advise".into(), hits as u64)],
                cache_hits: hits as u64,
                cache_misses: misses as u64,
                cache_entries: entries,
                cache_hits_by_kind: vec![("advise".into(), hits as u64)],
                cache_misses_by_kind: vec![("sweep".into(), misses as u64)],
                coalesced: 3,
                latency_p50_us: 8.0,
                latency_p99_us: 64.0,
                solver_repairs: hits as u64 / 2,
                solver_full_solves: 1,
                solver_rounds: misses as u64,
                advice_reused_flows: hits as u64 / 3,
                advice_total_flows: (hits + misses) as u64,
            })
        }),
        proptest::collection::vec(
            (
                name_strategy(),
                0.0f64..1e5,
                0usize..10_000,
                0usize..64,
                proptest::option::of(name_strategy()),
            )
                .prop_map(|(label, makespan, units, solves, error)| match error {
                    None => SweepLine {
                        label,
                        makespan,
                        units,
                        solves,
                        error: None,
                    },
                    some_error => SweepLine {
                        label,
                        makespan: 0.0,
                        units: 0,
                        solves: 0,
                        error: some_error,
                    },
                }),
            0..6,
        )
        .prop_map(|results| Response::SweepSummary { results }),
        advice_result_strategy().prop_map(Response::FabricAdvice),
        proptest::collection::vec(advice_sweep_line_strategy(), 0..6)
            .prop_map(|results| Response::AllocationSweepSummary { results }),
        Just(Response::Ok),
        (name_strategy()).prop_map(|message| Response::Error {
            code: ErrorCode::Unsupported,
            message,
        }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn requests_round_trip(request in request_strategy()) {
        let line = request.encode();
        let decoded = Request::decode(&line);
        prop_assert_eq!(decoded.as_ref(), Ok(&request), "wire line: {}", line);
        // Canonical form is a fixed point: encoding the decoded value is
        // byte-identical (this is what makes cache keys reliable).
        prop_assert_eq!(decoded.unwrap().encode(), line);
    }

    #[test]
    fn responses_round_trip(response in response_strategy()) {
        let line = response.encode();
        let decoded = Response::decode(&line);
        prop_assert_eq!(decoded.as_ref(), Ok(&response), "wire line: {}", line);
        prop_assert_eq!(decoded.unwrap().encode(), line);
    }

    #[test]
    fn decode_never_panics_on_arbitrary_ascii(line in proptest::collection::vec(32u8..127, 0..200)) {
        let line = String::from_utf8(line).expect("printable ASCII");
        // Outcome may be Ok or Err, but it must be an outcome.
        let _ = Request::decode(&line);
        let _ = Response::decode(&line);
    }
}

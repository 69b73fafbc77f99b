//! Wire corpus: the exact bytes of the protocol.
//!
//! Three tables pin the codec from outside:
//!
//! * typed value → canonical line, for every `Request` and `Response`
//!   variant and every optional shape (the line is also the cache key);
//! * lenient input → decoded value (numeric seeds, omitted defaults,
//!   `null` options, groups absent on older servers);
//! * malformed line → the exact `bad_request` line the server answers
//!   with (or, for responses, the client's decode error), which pins which
//!   fault is reported first when a line has several.
//!
//! The expected lines are literal. A codec rewrite must reproduce them
//! byte for byte; edit them only for a deliberate wire change.

use netpart_service::protocol::{
    AdviceResult, AdviceSpec, AdviceSweepLine, AllocationSpec, AllocatorSpec, CandidateResult,
    ErrorCode, FabricPatch, FlowSpec, KernelSpec, LinkPatch, NodePatch, PolicySpec, Request,
    Response, RoutingSpec, ScenarioSpec, StatsSnapshot, SweepLine, TopologySpec, TrafficSpec,
};

/// Quotes, backslashes, control characters (short and `\u` escapes)
/// and non-ASCII text up to a supplementary-plane character.
const AWKWARD: &str = "q\"uote \\ back/slash\nnl\rcr\ttab\u{1}\u{1f} é ∑ 😀";

fn advice_spec() -> AdviceSpec {
    AdviceSpec {
        topology: TopologySpec::Torus(vec![4, 4, 2]),
        routing: RoutingSpec::DimensionOrdered,
        nodes: 8,
        gigabytes: 0.25,
        candidates: vec![
            AllocationSpec::TorusBlocks,
            AllocationSpec::Blocked,
            AllocationSpec::Greedy,
            AllocationSpec::Scatter { stride: 3 },
            AllocationSpec::Random { samples: 2 },
        ],
        seed: u64::MAX,
    }
}

fn small_spec(topology: TopologySpec, routing: RoutingSpec, seed: u64) -> AdviceSpec {
    AdviceSpec {
        topology,
        routing,
        nodes: 16,
        gigabytes: 1.5,
        candidates: vec![AllocationSpec::Greedy],
        seed,
    }
}

fn scenario(topology: TopologySpec, routing: RoutingSpec, traffic: TrafficSpec) -> ScenarioSpec {
    ScenarioSpec {
        topology,
        routing,
        traffic,
        seed: 7,
    }
}

fn stats() -> StatsSnapshot {
    StatsSnapshot {
        uptime_seconds: 12.75,
        requests_total: 41,
        requests_by_kind: vec![
            ("advise".into(), 20),
            ("readvise".into(), 9),
            ("stats".into(), 12),
        ],
        cache_hits: 3,
        cache_misses: 26,
        cache_entries: 26,
        cache_hits_by_kind: vec![("advise".into(), 3)],
        cache_misses_by_kind: vec![("advise".into(), 17), ("readvise".into(), 9)],
        coalesced: 2,
        latency_p50_us: 110.5,
        latency_p99_us: 9000.0,
        solver_repairs: 12,
        solver_full_solves: 1,
        solver_rounds: 88,
        advice_reused_flows: 1800,
        advice_total_flows: 2048,
    }
}

fn request_corpus() -> Vec<(Request, &'static str)> {
    vec![
        (
            Request::Advise {
                machine: "mira".into(),
                size: 16,
                kernel: None,
            },
            r#"{"machine":"mira","size":16,"type":"advise"}"#,
        ),
        (
            Request::Advise {
                machine: "juqueen".into(),
                size: 8,
                kernel: Some(KernelSpec::ClassicalMatmul(4096)),
            },
            r#"{"kernel":{"n":4096,"name":"classical_matmul"},"machine":"juqueen","size":8,"type":"advise"}"#,
        ),
        (
            Request::Advise {
                machine: "mira".into(),
                size: 4,
                kernel: Some(KernelSpec::StrassenMatmul(1 << 40)),
            },
            r#"{"kernel":{"n":1099511627776,"name":"strassen_matmul"},"machine":"mira","size":4,"type":"advise"}"#,
        ),
        (
            Request::Advise {
                machine: "sequoia".into(),
                size: 32,
                kernel: Some(KernelSpec::DirectNBody(100_000)),
            },
            r#"{"kernel":{"n":100000,"name":"direct_nbody"},"machine":"sequoia","size":32,"type":"advise"}"#,
        ),
        (
            Request::Advise {
                machine: "juqueen_48".into(),
                size: 2,
                kernel: Some(KernelSpec::Fft(1 << 20)),
            },
            r#"{"kernel":{"n":1048576,"name":"fft"},"machine":"juqueen_48","size":2,"type":"advise"}"#,
        ),
        (
            Request::Advise {
                machine: AWKWARD.into(),
                size: 1,
                kernel: Some(KernelSpec::Custom(2.5e8, 0.125)),
            },
            r#"{"kernel":{"flops_per_proc":0.125,"name":"custom","words_per_proc":250000000},"machine":"q\"uote \\ back/slash\nnl\rcr\ttab\u0001\u001f é ∑ 😀","size":1,"type":"advise"}"#,
        ),
        (
            Request::Bisection {
                topology: "torus".into(),
                dims: vec![8, 4, 4],
            },
            r#"{"dims":[8,4,4],"topology":"torus","type":"bisection"}"#,
        ),
        (
            Request::Bisection {
                topology: "bgq".into(),
                dims: vec![],
            },
            r#"{"dims":[],"topology":"bgq","type":"bisection"}"#,
        ),
        (
            Request::SimulateFlows {
                topology: TopologySpec::Hypercube(5),
                flows: vec![
                    FlowSpec {
                        src: 0,
                        dst: 17,
                        gigabytes: 0.5,
                    },
                    FlowSpec {
                        src: 31,
                        dst: 2,
                        gigabytes: 1e-3,
                    },
                ],
            },
            r#"{"flows":[{"dst":17,"gigabytes":0.5,"src":0},{"dst":2,"gigabytes":0.001,"src":31}],"topology":{"dims":[5],"family":"hypercube"},"type":"simulate_flows"}"#,
        ),
        (
            Request::SimulateFlows {
                topology: TopologySpec::FatTree(4),
                flows: vec![],
            },
            r#"{"flows":[],"topology":{"dims":[4],"family":"fattree"},"type":"simulate_flows"}"#,
        ),
        (
            Request::ClusterSim {
                topology: TopologySpec::Torus(vec![4, 4, 4]),
                jobs: 20,
                max_nodes: 16,
                mean_gap: 30.0,
                gigabytes: 0.25,
                allocator: AllocatorSpec::Compact,
            },
            r#"{"allocator":"compact","gigabytes":0.25,"jobs":20,"max_nodes":16,"mean_gap":30,"topology":{"dims":[4,4,4],"family":"torus"},"type":"cluster_sim"}"#,
        ),
        (
            Request::ClusterSim {
                topology: TopologySpec::Dragonfly(4, 4, 2),
                jobs: 8,
                max_nodes: 8,
                mean_gap: 12.5,
                gigabytes: 2.0,
                allocator: AllocatorSpec::Scatter(5),
            },
            r#"{"allocator":"scatter","gigabytes":2,"jobs":8,"max_nodes":8,"mean_gap":12.5,"stride":5,"topology":{"dims":[4,4,2],"family":"dragonfly"},"type":"cluster_sim"}"#,
        ),
        (
            Request::PolicySim {
                machine: "juqueen".into(),
                jobs: 50,
                seed: u64::MAX,
                policy: PolicySpec::Worst,
            },
            r#"{"jobs":50,"machine":"juqueen","policy":"worst","seed":"18446744073709551615","type":"policy_sim"}"#,
        ),
        (
            Request::PolicySim {
                machine: "mira".into(),
                jobs: 10,
                seed: 0,
                policy: PolicySpec::Best,
            },
            r#"{"jobs":10,"machine":"mira","policy":"best","seed":"0","type":"policy_sim"}"#,
        ),
        (
            Request::PolicySim {
                machine: "mira".into(),
                jobs: 10,
                seed: 42,
                policy: PolicySpec::HintAware(0.99),
            },
            r#"{"jobs":10,"machine":"mira","policy":"hint_aware","seed":"42","tolerance":0.99,"type":"policy_sim"}"#,
        ),
        (
            Request::Sweep {
                scenarios: vec![
                    ScenarioSpec {
                        topology: TopologySpec::Torus(vec![4, 4, 2]),
                        routing: RoutingSpec::DimensionOrdered,
                        traffic: TrafficSpec::BisectionPairing {
                            rounds: 8,
                            warmup_rounds: 2,
                            round_gigabytes: 0.5,
                        },
                        seed: u64::MAX,
                    },
                    scenario(
                        TopologySpec::Hypercube(4),
                        RoutingSpec::ShortestPath,
                        TrafficSpec::AllToAll { gigabytes: 1.0 },
                    ),
                    scenario(
                        TopologySpec::Dragonfly(3, 2, 2),
                        RoutingSpec::Ecmp { salt: u64::MAX - 1 },
                        TrafficSpec::RandomPermutation { gigabytes: 0.75 },
                    ),
                    scenario(
                        TopologySpec::FatTree(4),
                        RoutingSpec::Valiant { seed: 1 << 60 },
                        TrafficSpec::JobTrace {
                            jobs: 6,
                            max_nodes: 4,
                            mean_gap: 30.0,
                            gigabytes: 0.25,
                            allocator: AllocatorSpec::Compact,
                        },
                    ),
                    scenario(
                        TopologySpec::HyperX(vec![4, 3]),
                        RoutingSpec::ShortestPath,
                        TrafficSpec::JobTrace {
                            jobs: 8,
                            max_nodes: 8,
                            mean_gap: 1e4,
                            gigabytes: 16.0,
                            allocator: AllocatorSpec::Scatter(3),
                        },
                    ),
                    scenario(
                        TopologySpec::SlimFly(5),
                        RoutingSpec::ShortestPath,
                        TrafficSpec::SchedulerTrace {
                            machine: "mira".into(),
                            jobs: 10,
                            policy: PolicySpec::Worst,
                        },
                    ),
                    scenario(
                        TopologySpec::Expander(40, vec![1, 7, 16]),
                        RoutingSpec::ShortestPath,
                        TrafficSpec::SchedulerTrace {
                            machine: "juqueen".into(),
                            jobs: 12,
                            policy: PolicySpec::HintAware(0.75),
                        },
                    ),
                    scenario(
                        TopologySpec::Torus(vec![8]),
                        RoutingSpec::DimensionOrdered,
                        TrafficSpec::SchedulerTrace {
                            machine: "sequoia".into(),
                            jobs: 3,
                            policy: PolicySpec::Best,
                        },
                    ),
                ],
            },
            r#"{"scenarios":[{"routing":{"kind":"dor"},"seed":"18446744073709551615","topology":{"dims":[4,4,2],"family":"torus"},"traffic":{"kind":"pairing","round_gigabytes":0.5,"rounds":8,"warmup_rounds":2}},{"routing":{"kind":"shortest"},"seed":"7","topology":{"dims":[4],"family":"hypercube"},"traffic":{"gigabytes":1,"kind":"all_to_all"}},{"routing":{"kind":"ecmp","salt":"18446744073709551614"},"seed":"7","topology":{"dims":[3,2,2],"family":"dragonfly"},"traffic":{"gigabytes":0.75,"kind":"permutation"}},{"routing":{"kind":"valiant","seed":"1152921504606846976"},"seed":"7","topology":{"dims":[4],"family":"fattree"},"traffic":{"allocator":"compact","gigabytes":0.25,"jobs":6,"kind":"job_trace","max_nodes":4,"mean_gap":30}},{"routing":{"kind":"shortest"},"seed":"7","topology":{"dims":[4,3],"family":"hyperx"},"traffic":{"allocator":"scatter","gigabytes":16,"jobs":8,"kind":"job_trace","max_nodes":8,"mean_gap":10000,"stride":3}},{"routing":{"kind":"shortest"},"seed":"7","topology":{"dims":[5],"family":"slimfly"},"traffic":{"jobs":10,"kind":"sched_trace","machine":"mira","policy":"worst"}},{"routing":{"kind":"shortest"},"seed":"7","topology":{"dims":[40,1,7,16],"family":"expander"},"traffic":{"jobs":12,"kind":"sched_trace","machine":"juqueen","policy":"hint_aware","tolerance":0.75}},{"routing":{"kind":"dor"},"seed":"7","topology":{"dims":[8],"family":"torus"},"traffic":{"jobs":3,"kind":"sched_trace","machine":"sequoia","policy":"best"}}],"type":"sweep"}"#,
        ),
        (
            Request::Sweep { scenarios: vec![] },
            r#"{"scenarios":[],"type":"sweep"}"#,
        ),
        (
            Request::AdviseFabric {
                spec: advice_spec(),
            },
            r#"{"candidates":[{"kind":"torus_blocks"},{"kind":"blocked"},{"kind":"greedy"},{"kind":"scatter","stride":3},{"kind":"random","samples":2}],"gigabytes":0.25,"nodes":8,"routing":{"kind":"dor"},"seed":"18446744073709551615","topology":{"dims":[4,4,2],"family":"torus"},"type":"advise_fabric"}"#,
        ),
        (
            Request::AllocationSweep {
                specs: vec![
                    small_spec(
                        TopologySpec::Dragonfly(4, 4, 4),
                        RoutingSpec::ShortestPath,
                        0,
                    ),
                    small_spec(
                        TopologySpec::SlimFly(5),
                        RoutingSpec::Valiant { seed: 3 },
                        u64::MAX,
                    ),
                ],
            },
            r#"{"specs":[{"candidates":[{"kind":"greedy"}],"gigabytes":1.5,"nodes":16,"routing":{"kind":"shortest"},"seed":"0","topology":{"dims":[4,4,4],"family":"dragonfly"}},{"candidates":[{"kind":"greedy"}],"gigabytes":1.5,"nodes":16,"routing":{"kind":"valiant","seed":"3"},"seed":"18446744073709551615","topology":{"dims":[5],"family":"slimfly"}}],"type":"allocation_sweep"}"#,
        ),
        (
            Request::AllocationSweep { specs: vec![] },
            r#"{"specs":[],"type":"allocation_sweep"}"#,
        ),
        (
            Request::Readvise {
                spec: advice_spec(),
                patch: FabricPatch {
                    links: vec![
                        LinkPatch {
                            a: 0,
                            b: 1,
                            scale: 1e-3,
                        },
                        LinkPatch {
                            a: 5,
                            b: 4,
                            scale: 0.0,
                        },
                    ],
                    nodes: vec![NodePatch {
                        node: 3,
                        scale: 0.5,
                    }],
                },
            },
            r#"{"candidates":[{"kind":"torus_blocks"},{"kind":"blocked"},{"kind":"greedy"},{"kind":"scatter","stride":3},{"kind":"random","samples":2}],"gigabytes":0.25,"nodes":8,"patch":{"links":[{"a":0,"b":1,"scale":0.001},{"a":5,"b":4,"scale":0}],"nodes":[{"node":3,"scale":0.5}]},"routing":{"kind":"dor"},"seed":"18446744073709551615","topology":{"dims":[4,4,2],"family":"torus"},"type":"readvise"}"#,
        ),
        (
            Request::Readvise {
                spec: small_spec(
                    TopologySpec::Torus(vec![4, 4]),
                    RoutingSpec::ShortestPath,
                    9,
                ),
                patch: FabricPatch {
                    links: vec![],
                    nodes: vec![],
                },
            },
            r#"{"candidates":[{"kind":"greedy"}],"gigabytes":1.5,"nodes":16,"patch":{"links":[],"nodes":[]},"routing":{"kind":"shortest"},"seed":"9","topology":{"dims":[4,4],"family":"torus"},"type":"readvise"}"#,
        ),
        (Request::Health, r#"{"type":"health"}"#),
        (Request::Stats, r#"{"type":"stats"}"#),
        (Request::Shutdown, r#"{"type":"shutdown"}"#),
    ]
}

fn response_corpus() -> Vec<(Response, &'static str)> {
    vec![
        (
            Response::Advice {
                machine: "mira".into(),
                size: 16,
                worst_dims: vec![16, 4, 4, 4, 2],
                best_dims: vec![8, 8, 4, 4, 2],
                worst_links: 256,
                best_links: 512,
                predicted_speedup: 2.0,
                regime: "contention_bound".into(),
                geometry_matters: true,
            },
            r#"{"best_dims":[8,8,4,4,2],"best_links":512,"geometry_matters":true,"machine":"mira","predicted_speedup":2,"regime":"contention_bound","size":16,"type":"advice","worst_dims":[16,4,4,4,2],"worst_links":256}"#,
        ),
        (
            Response::Advice {
                machine: "juqueen".into(),
                size: 1,
                worst_dims: vec![4, 4, 4, 4, 2],
                best_dims: vec![4, 4, 4, 4, 2],
                worst_links: 128,
                best_links: 128,
                predicted_speedup: 1.0,
                regime: "compute_bound".into(),
                geometry_matters: false,
            },
            r#"{"best_dims":[4,4,4,4,2],"best_links":128,"geometry_matters":false,"machine":"juqueen","predicted_speedup":1,"regime":"compute_bound","size":1,"type":"advice","worst_dims":[4,4,4,4,2],"worst_links":128}"#,
        ),
        (
            Response::Bisection { links: 32.0 },
            r#"{"links":32,"type":"bisection"}"#,
        ),
        (
            Response::FlowSummary {
                flows: 16,
                makespan: 0.1875,
                mean_completion: 0.09375,
            },
            r#"{"flows":16,"makespan":0.1875,"mean_completion":0.09375,"type":"flow_summary"}"#,
        ),
        (
            Response::ClusterSummary {
                fabric: "torus[4,4,4]".into(),
                allocator: "scatter(5)".into(),
                jobs: 20,
                makespan: 612.25,
                mean_penalty: 1.375,
                avoidable_fraction: 0.45,
                mean_wait: 3.5,
            },
            r#"{"allocator":"scatter(5)","avoidable_fraction":0.45,"fabric":"torus[4,4,4]","jobs":20,"makespan":612.25,"mean_penalty":1.375,"mean_wait":3.5,"type":"cluster_summary"}"#,
        ),
        (
            Response::PolicySummary {
                policy: "hint-aware(0.99)".into(),
                jobs: 50,
                mean_wait: 120.5,
                mean_slowdown: 1.25,
                mean_contention_penalty: 1.0625,
                optimal_geometry_fraction: 0.8,
            },
            r#"{"jobs":50,"mean_contention_penalty":1.0625,"mean_slowdown":1.25,"mean_wait":120.5,"optimal_geometry_fraction":0.8,"policy":"hint-aware(0.99)","type":"policy_summary"}"#,
        ),
        (
            Response::SweepSummary {
                results: vec![
                    SweepLine {
                        label: "torus[4,4]/dor/pairing(6x0.5GB)/s42".into(),
                        makespan: 12.5,
                        units: 16,
                        solves: 3,
                        error: None,
                    },
                    SweepLine {
                        label: "hypercube[4]/dor/all-to-all(1GB)/s0".into(),
                        makespan: 0.0,
                        units: 0,
                        solves: 0,
                        error: Some(AWKWARD.into()),
                    },
                ],
            },
            r#"{"ok":1,"results":[{"label":"torus[4,4]/dor/pairing(6x0.5GB)/s42","makespan":12.5,"solves":3,"status":"ok","units":16},{"label":"hypercube[4]/dor/all-to-all(1GB)/s0","message":"q\"uote \\ back/slash\nnl\rcr\ttab\u0001\u001f é ∑ 😀","status":"error"}],"total":2,"type":"sweep_summary"}"#,
        ),
        (
            Response::SweepSummary { results: vec![] },
            r#"{"ok":0,"results":[],"total":0,"type":"sweep_summary"}"#,
        ),
        (
            Response::FabricAdvice(AdviceResult {
                label: "advise:torus[4,4,2]/dor/n8/s18446744073709551615".into(),
                fabric: "torus[4,4,2]".into(),
                nodes: 8,
                candidates: vec![
                    CandidateResult {
                        label: "block[2,2,2]".into(),
                        nodes: vec![0, 1, 4, 5, 16, 17, 20, 21],
                        bound_seconds: 0.5,
                        simulated_seconds: 0.625,
                        gap: 1.25,
                        cut_gbs: 32.0,
                        internal_bisection_gbs: 16.0,
                        closed_form: true,
                        solves: 4,
                    },
                    CandidateResult {
                        label: "scatter(3)".into(),
                        nodes: vec![0, 3, 6, 9, 12, 15, 18, 21],
                        bound_seconds: 0.75,
                        simulated_seconds: 1.5,
                        gap: 2.0,
                        cut_gbs: 16.5,
                        internal_bisection_gbs: 4.25,
                        closed_form: false,
                        solves: 7,
                    },
                ],
                ordering_agreement: 1.0,
                truncated: false,
            }),
            r#"{"candidates":[{"bound_seconds":0.5,"closed_form":true,"cut_gbs":32,"gap":1.25,"internal_bisection_gbs":16,"label":"block[2,2,2]","nodes":[0,1,4,5,16,17,20,21],"simulated_seconds":0.625,"solves":4},{"bound_seconds":0.75,"closed_form":false,"cut_gbs":16.5,"gap":2,"internal_bisection_gbs":4.25,"label":"scatter(3)","nodes":[0,3,6,9,12,15,18,21],"simulated_seconds":1.5,"solves":7}],"fabric":"torus[4,4,2]","label":"advise:torus[4,4,2]/dor/n8/s18446744073709551615","nodes":8,"ordering_agreement":1,"truncated":false,"type":"fabric_advice"}"#,
        ),
        (
            Response::FabricAdvice(AdviceResult {
                label: "advise:fattree[4]/shortest/n2/s0".into(),
                fabric: "fattree[4]".into(),
                nodes: 2,
                candidates: vec![],
                ordering_agreement: 0.5,
                truncated: true,
            }),
            r#"{"candidates":[],"fabric":"fattree[4]","label":"advise:fattree[4]/shortest/n2/s0","nodes":2,"ordering_agreement":0.5,"truncated":true,"type":"fabric_advice"}"#,
        ),
        (
            Response::AllocationSweepSummary {
                results: vec![
                    AdviceSweepLine {
                        label: "advise:dragonfly[4,4,4]/shortest/n16/s0".into(),
                        best_candidate: "greedy".into(),
                        candidates: 3,
                        ordering_agreement: 0.6666666666666666,
                        error: None,
                    },
                    AdviceSweepLine {
                        label: "advise:hypercube[4]/dor/n8/s0".into(),
                        best_candidate: String::new(),
                        candidates: 0,
                        ordering_agreement: 0.0,
                        error: Some("invalid spec: dimension-ordered routing needs a torus".into()),
                    },
                ],
            },
            r#"{"ok":1,"results":[{"best_candidate":"greedy","candidates":3,"label":"advise:dragonfly[4,4,4]/shortest/n16/s0","ordering_agreement":0.6666666666666666,"status":"ok"},{"label":"advise:hypercube[4]/dor/n8/s0","message":"invalid spec: dimension-ordered routing needs a torus","status":"error"}],"total":2,"type":"allocation_sweep_summary"}"#,
        ),
        (
            Response::AllocationSweepSummary { results: vec![] },
            r#"{"ok":0,"results":[],"total":0,"type":"allocation_sweep_summary"}"#,
        ),
        (
            Response::Health {
                uptime_seconds: 3.25,
                workers: 8,
            },
            r#"{"status":"ok","type":"health","uptime_seconds":3.25,"workers":8}"#,
        ),
        (
            Response::Stats(stats()),
            r#"{"advice":{"reuse_rate":0.87890625,"reused_flows":1800,"total_flows":2048},"cache":{"entries":26,"hit_rate":0.10344827586206896,"hits":3,"hits_by_kind":{"advise":3},"misses":26,"misses_by_kind":{"advise":17,"readvise":9}},"coalesced":2,"latency_us":{"p50":110.5,"p99":9000},"requests_by_kind":{"advise":20,"readvise":9,"stats":12},"requests_total":41,"solver":{"full_solves":1,"repairs":12,"rounds":88},"type":"stats","uptime_seconds":12.75}"#,
        ),
        (
            Response::Stats(StatsSnapshot {
                uptime_seconds: 0.0,
                requests_total: 0,
                requests_by_kind: vec![],
                cache_hits: 0,
                cache_misses: 0,
                cache_entries: 0,
                cache_hits_by_kind: vec![],
                cache_misses_by_kind: vec![],
                coalesced: 0,
                latency_p50_us: 0.0,
                latency_p99_us: 0.0,
                solver_repairs: 0,
                solver_full_solves: 0,
                solver_rounds: 0,
                advice_reused_flows: 0,
                advice_total_flows: 0,
            }),
            r#"{"advice":{"reuse_rate":0,"reused_flows":0,"total_flows":0},"cache":{"entries":0,"hit_rate":0,"hits":0,"hits_by_kind":{},"misses":0,"misses_by_kind":{}},"coalesced":0,"latency_us":{"p50":0,"p99":0},"requests_by_kind":{},"requests_total":0,"solver":{"full_solves":0,"repairs":0,"rounds":0},"type":"stats","uptime_seconds":0}"#,
        ),
        (Response::Ok, r#"{"type":"ok"}"#),
        (
            Response::error(ErrorCode::BadRequest, "missing or invalid field 'size'"),
            r#"{"code":"bad_request","message":"missing or invalid field 'size'","type":"error"}"#,
        ),
        (
            Response::error(ErrorCode::Unsupported, AWKWARD),
            r#"{"code":"unsupported","message":"q\"uote \\ back/slash\nnl\rcr\ttab\u0001\u001f é ∑ 😀","type":"error"}"#,
        ),
        (
            Response::error(ErrorCode::Internal, ""),
            r#"{"code":"internal","message":"","type":"error"}"#,
        ),
    ]
}

/// Values JSON cannot carry: the writer renders them as `null`, so they
/// encode but do not decode (see `malformed_response_corpus`).
fn non_finite_corpus() -> Vec<(Response, &'static str)> {
    vec![
        (
            Response::FlowSummary {
                flows: 4,
                makespan: f64::INFINITY,
                mean_completion: f64::NAN,
            },
            r#"{"flows":4,"makespan":null,"mean_completion":null,"type":"flow_summary"}"#,
        ),
        (
            Response::Bisection {
                links: f64::NEG_INFINITY,
            },
            r#"{"links":null,"type":"bisection"}"#,
        ),
    ]
}

/// Input a client may send that is not canonical but decodes.
fn lenient_request_corpus() -> Vec<(&'static str, Request)> {
    vec![
        // Key order and whitespace do not matter.
        (
            r#" { "size" : 8 , "machine" : "mira" , "type" : "advise" } "#,
            Request::Advise {
                machine: "mira".into(),
                size: 8,
                kernel: None,
            },
        ),
        // An explicit null kernel is the default kernel.
        (
            r#"{"type":"advise","machine":"mira","size":16,"kernel":null}"#,
            Request::Advise {
                machine: "mira".into(),
                size: 16,
                kernel: None,
            },
        ),
        // Integral floats are integers; unknown members are ignored.
        (
            r#"{"type":"advise","machine":"mira","size":16.0,"extra":[1,{}]}"#,
            Request::Advise {
                machine: "mira".into(),
                size: 16,
                kernel: None,
            },
        ),
        // Seeds and salts may be integer-exact JSON numbers.
        (
            r#"{"type":"policy_sim","machine":"mira","jobs":10,"seed":42,"policy":"best"}"#,
            Request::PolicySim {
                machine: "mira".into(),
                jobs: 10,
                seed: 42,
                policy: PolicySpec::Best,
            },
        ),
        (
            r#"{"type":"policy_sim","machine":"mira","jobs":10,"seed":9007199254740992,"policy":"worst"}"#,
            Request::PolicySim {
                machine: "mira".into(),
                jobs: 10,
                seed: 1 << 53,
                policy: PolicySpec::Worst,
            },
        ),
        (
            r#"{"type":"sweep","scenarios":[{"topology":{"family":"torus","dims":[4,4]},"routing":{"kind":"ecmp","salt":5},"traffic":{"kind":"all_to_all","gigabytes":1},"seed":3}]}"#,
            Request::Sweep {
                scenarios: vec![ScenarioSpec {
                    topology: TopologySpec::Torus(vec![4, 4]),
                    routing: RoutingSpec::Ecmp { salt: 5 },
                    traffic: TrafficSpec::AllToAll { gigabytes: 1.0 },
                    seed: 3,
                }],
            },
        ),
        // A scatter allocator without a stride takes 7.
        (
            r#"{"type":"cluster_sim","topology":{"family":"torus","dims":[4,4,4]},"jobs":4,"max_nodes":8,"mean_gap":30,"gigabytes":0.25,"allocator":"scatter"}"#,
            Request::ClusterSim {
                topology: TopologySpec::Torus(vec![4, 4, 4]),
                jobs: 4,
                max_nodes: 8,
                mean_gap: 30.0,
                gigabytes: 0.25,
                allocator: AllocatorSpec::Scatter(7),
            },
        ),
        (
            r#"{"type":"sweep","scenarios":[{"topology":{"family":"hypercube","dims":[3]},"routing":{"kind":"shortest"},"traffic":{"kind":"job_trace","jobs":2,"max_nodes":4,"mean_gap":1,"gigabytes":1,"allocator":"scatter"},"seed":"0"}]}"#,
            Request::Sweep {
                scenarios: vec![ScenarioSpec {
                    topology: TopologySpec::Hypercube(3),
                    routing: RoutingSpec::ShortestPath,
                    traffic: TrafficSpec::JobTrace {
                        jobs: 2,
                        max_nodes: 4,
                        mean_gap: 1.0,
                        gigabytes: 1.0,
                        allocator: AllocatorSpec::Scatter(7),
                    },
                    seed: 0,
                }],
            },
        ),
        // A compact allocator ignores a stray stride.
        (
            r#"{"type":"cluster_sim","topology":{"family":"torus","dims":[4,4]},"jobs":4,"max_nodes":8,"mean_gap":30,"gigabytes":0.25,"allocator":"compact","stride":"x"}"#,
            Request::ClusterSim {
                topology: TopologySpec::Torus(vec![4, 4]),
                jobs: 4,
                max_nodes: 8,
                mean_gap: 30.0,
                gigabytes: 0.25,
                allocator: AllocatorSpec::Compact,
            },
        ),
        // Either patch list may be omitted.
        (
            r#"{"type":"readvise","topology":{"family":"torus","dims":[4,4]},"routing":{"kind":"shortest"},"nodes":16,"gigabytes":1.5,"candidates":[{"kind":"greedy"}],"seed":"9","patch":{}}"#,
            Request::Readvise {
                spec: small_spec(
                    TopologySpec::Torus(vec![4, 4]),
                    RoutingSpec::ShortestPath,
                    9,
                ),
                patch: FabricPatch {
                    links: vec![],
                    nodes: vec![],
                },
            },
        ),
        (
            r#"{"type":"readvise","topology":{"family":"torus","dims":[4,4]},"routing":{"kind":"shortest"},"nodes":16,"gigabytes":1.5,"candidates":[{"kind":"greedy"}],"seed":9,"patch":{"nodes":[{"node":2,"scale":0}]}}"#,
            Request::Readvise {
                spec: small_spec(
                    TopologySpec::Torus(vec![4, 4]),
                    RoutingSpec::ShortestPath,
                    9,
                ),
                patch: FabricPatch {
                    links: vec![],
                    nodes: vec![NodePatch {
                        node: 2,
                        scale: 0.0,
                    }],
                },
            },
        ),
        // A health probe carrying a constant member.
        (r#"{"type":"health","status":"ok"}"#, Request::Health),
    ]
}

/// Response lines from older servers, and non-canonical ones, that decode.
fn lenient_response_corpus() -> Vec<(&'static str, Response)> {
    let mut old = stats();
    old.cache_hits_by_kind.clear();
    old.cache_misses_by_kind.clear();
    old.solver_repairs = 0;
    old.solver_full_solves = 0;
    old.solver_rounds = 0;
    old.advice_reused_flows = 0;
    old.advice_total_flows = 0;
    vec![
        // A snapshot from a server predating the per-kind cache counters
        // and the solver and advice groups; derived rates are not read.
        (
            r#"{"type":"stats","uptime_seconds":12.75,"requests_total":41,"requests_by_kind":{"advise":20,"readvise":9,"stats":12},"cache":{"hits":3,"misses":26,"entries":26},"coalesced":2,"latency_us":{"p50":110.5,"p99":9000}}"#,
            Response::Stats(old),
        ),
        // Health without its constant status member.
        (
            r#"{"type":"health","uptime_seconds":1,"workers":2}"#,
            Response::Health {
                uptime_seconds: 1.0,
                workers: 2,
            },
        ),
        // Sweep summaries: the derived counts are not read back.
        (
            r#"{"type":"sweep_summary","results":[{"label":"x","status":"error","message":"m","makespan":"junk"}]}"#,
            Response::SweepSummary {
                results: vec![SweepLine {
                    label: "x".into(),
                    makespan: 0.0,
                    units: 0,
                    solves: 0,
                    error: Some("m".into()),
                }],
            },
        ),
        (
            r#"{"type":"allocation_sweep_summary","total":9,"ok":9,"results":[]}"#,
            Response::AllocationSweepSummary { results: vec![] },
        ),
    ]
}

/// Request lines the server refuses, with the exact line it answers.
fn malformed_request_corpus() -> Vec<(&'static str, &'static str)> {
    vec![
        // Not JSON, or not an object.
        (
            "not json",
            r#"{"code":"bad_request","message":"invalid JSON: invalid literal (expected 'null') at byte 0","type":"error"}"#,
        ),
        (
            "",
            r#"{"code":"bad_request","message":"invalid JSON: unexpected end of input at byte 0","type":"error"}"#,
        ),
        (
            r#"{"type":"advise""#,
            r#"{"code":"bad_request","message":"invalid JSON: expected ',' or '}' in object at byte 16","type":"error"}"#,
        ),
        (
            r#""unterminated"#,
            r#"{"code":"bad_request","message":"invalid JSON: unterminated string at byte 13","type":"error"}"#,
        ),
        (
            "[1,2,3]",
            r#"{"code":"bad_request","message":"request must be a JSON object","type":"error"}"#,
        ),
        (
            "null",
            r#"{"code":"bad_request","message":"request must be a JSON object","type":"error"}"#,
        ),
        (
            r#""advise""#,
            r#"{"code":"bad_request","message":"request must be a JSON object","type":"error"}"#,
        ),
        (
            "{}",
            r#"{"code":"bad_request","message":"missing or invalid field 'type'","type":"error"}"#,
        ),
        (
            r#"{"type":7}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'type'","type":"error"}"#,
        ),
        // Unknown tags, one per tagged type.
        (
            r#"{"type":"frobnicate"}"#,
            r#"{"code":"bad_request","message":"unknown request type 'frobnicate'","type":"error"}"#,
        ),
        (
            r#"{"type":"advise","machine":"mira","size":16,"kernel":{"name":"lu"}}"#,
            r#"{"code":"bad_request","message":"unknown kernel 'lu'","type":"error"}"#,
        ),
        (
            r#"{"type":"simulate_flows","flows":[],"topology":{"family":"mesh","dims":[4]}}"#,
            r#"{"code":"bad_request","message":"unknown topology family 'mesh'","type":"error"}"#,
        ),
        (
            r#"{"type":"cluster_sim","topology":{"family":"torus","dims":[4,4]},"jobs":4,"max_nodes":8,"mean_gap":30,"gigabytes":0.25,"allocator":"buddy"}"#,
            r#"{"code":"bad_request","message":"unknown allocator 'buddy'","type":"error"}"#,
        ),
        (
            r#"{"type":"policy_sim","machine":"mira","jobs":10,"seed":"1","policy":"fifo"}"#,
            r#"{"code":"bad_request","message":"unknown policy 'fifo'","type":"error"}"#,
        ),
        (
            r#"{"type":"sweep","scenarios":[{"topology":{"family":"torus","dims":[4]},"routing":{"kind":"adaptive"},"traffic":{"kind":"all_to_all","gigabytes":1},"seed":"0"}]}"#,
            r#"{"code":"bad_request","message":"unknown routing kind 'adaptive'","type":"error"}"#,
        ),
        (
            r#"{"type":"sweep","scenarios":[{"topology":{"family":"torus","dims":[4]},"routing":{"kind":"dor"},"traffic":{"kind":"incast","gigabytes":1},"seed":"0"}]}"#,
            r#"{"code":"bad_request","message":"unknown traffic kind 'incast'","type":"error"}"#,
        ),
        (
            r#"{"type":"advise_fabric","topology":{"family":"torus","dims":[4,4]},"routing":{"kind":"dor"},"nodes":4,"gigabytes":1,"candidates":[{"kind":"spiral"}],"seed":"0"}"#,
            r#"{"code":"bad_request","message":"unknown candidate generator 'spiral'","type":"error"}"#,
        ),
        // One line per request type missing two fields: the first in decode
        // order is reported.
        (
            r#"{"type":"advise"}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'machine'","type":"error"}"#,
        ),
        (
            r#"{"type":"bisection"}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'topology'","type":"error"}"#,
        ),
        (
            r#"{"type":"simulate_flows"}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'flows'","type":"error"}"#,
        ),
        (
            r#"{"type":"cluster_sim","topology":{"family":"torus","dims":[4,4]},"jobs":4,"max_nodes":8,"gigabytes":0.25}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'mean_gap'","type":"error"}"#,
        ),
        (
            r#"{"type":"policy_sim","machine":"mira","seed":"1"}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'jobs'","type":"error"}"#,
        ),
        (
            r#"{"type":"sweep"}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'scenarios'","type":"error"}"#,
        ),
        (
            r#"{"type":"sweep","scenarios":[{"topology":{"family":"torus","dims":[4]},"traffic":{"kind":"all_to_all","gigabytes":1}}]}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'routing'","type":"error"}"#,
        ),
        (
            r#"{"type":"advise_fabric","routing":{"kind":"dor"},"nodes":4,"gigabytes":1,"seed":"0"}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'candidates'","type":"error"}"#,
        ),
        (
            r#"{"type":"allocation_sweep"}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'specs'","type":"error"}"#,
        ),
        (
            r#"{"type":"allocation_sweep","specs":[{"topology":{"family":"torus","dims":[4,4]},"nodes":4,"gigabytes":1,"candidates":[{"kind":"greedy"}]}]}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'routing'","type":"error"}"#,
        ),
        (
            r#"{"type":"readvise","topology":{"family":"torus","dims":[4,4]},"routing":{"kind":"dor"},"nodes":4,"gigabytes":1,"candidates":[{"kind":"greedy"}]}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'seed'","type":"error"}"#,
        ),
        (
            r#"{"type":"readvise","topology":{"family":"torus","dims":[4,4]},"routing":{"kind":"dor"},"nodes":4,"gigabytes":1,"seed":"0"}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'candidates'","type":"error"}"#,
        ),
        // Shapes, ranges and types.
        (
            r#"{"type":"advise","machine":"mira"}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'size'","type":"error"}"#,
        ),
        (
            r#"{"type":"advise","machine":"mira","size":-3}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'size'","type":"error"}"#,
        ),
        (
            r#"{"type":"advise","machine":"mira","size":1.5}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'size'","type":"error"}"#,
        ),
        (
            r#"{"type":"advise","machine":5,"size":1}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'machine'","type":"error"}"#,
        ),
        (
            r#"{"type":"advise","machine":"mira","size":16,"kernel":5}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'name'","type":"error"}"#,
        ),
        (
            r#"{"type":"advise","machine":"mira","size":16,"kernel":{"name":"fft","n":-1}}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'n'","type":"error"}"#,
        ),
        (
            r#"{"type":"advise","machine":"mira","size":16,"kernel":{"name":"custom","words_per_proc":1e400,"flops_per_proc":1}}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'words_per_proc'","type":"error"}"#,
        ),
        (
            r#"{"type":"advise","machine":"mira","size":16,"kernel":{"name":"custom","flops_per_proc":1}}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'words_per_proc'","type":"error"}"#,
        ),
        (
            r#"{"type":"bisection","topology":"torus","dims":[4,-4]}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'dims'","type":"error"}"#,
        ),
        (
            r#"{"type":"bisection","topology":"torus","dims":4}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'dims'","type":"error"}"#,
        ),
        (
            r#"{"type":"simulate_flows","topology":"torus","flows":[]}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'family'","type":"error"}"#,
        ),
        (
            r#"{"type":"simulate_flows","topology":{"family":"torus","dims":[4]},"flows":{}}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'flows'","type":"error"}"#,
        ),
        (
            r#"{"type":"simulate_flows","topology":{"family":"torus","dims":[4]},"flows":[{"src":0,"dst":1,"gigabytes":1},7]}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'src'","type":"error"}"#,
        ),
        (
            r#"{"type":"simulate_flows","topology":{"family":"torus","dims":[4]},"flows":[{"src":0,"dst":1,"gigabytes":null}]}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'gigabytes'","type":"error"}"#,
        ),
        (
            r#"{"type":"simulate_flows","topology":{"family":"torus","dims":[]},"flows":[]}"#,
            r#"{"code":"bad_request","message":"torus dims must be non-empty and positive","type":"error"}"#,
        ),
        (
            r#"{"type":"simulate_flows","topology":{"family":"torus","dims":[4,0]},"flows":[]}"#,
            r#"{"code":"bad_request","message":"torus dims must be non-empty and positive","type":"error"}"#,
        ),
        (
            r#"{"type":"simulate_flows","topology":{"family":"hyperx","dims":[]},"flows":[]}"#,
            r#"{"code":"bad_request","message":"hyperx dims must be non-empty and positive","type":"error"}"#,
        ),
        (
            r#"{"type":"simulate_flows","topology":{"family":"hypercube","dims":[4,4]},"flows":[]}"#,
            r#"{"code":"bad_request","message":"family 'hypercube' expects 1 dims, got 2","type":"error"}"#,
        ),
        (
            r#"{"type":"simulate_flows","topology":{"family":"hypercube","dims":[4294967296]},"flows":[]}"#,
            r#"{"code":"bad_request","message":"hypercube dimension out of range","type":"error"}"#,
        ),
        (
            r#"{"type":"simulate_flows","topology":{"family":"dragonfly","dims":[4,4]},"flows":[]}"#,
            r#"{"code":"bad_request","message":"family 'dragonfly' expects 3 dims, got 2","type":"error"}"#,
        ),
        (
            r#"{"type":"simulate_flows","topology":{"family":"fattree","dims":[]},"flows":[]}"#,
            r#"{"code":"bad_request","message":"family 'fattree' expects 1 dims, got 0","type":"error"}"#,
        ),
        (
            r#"{"type":"simulate_flows","topology":{"family":"slimfly","dims":[5,5]},"flows":[]}"#,
            r#"{"code":"bad_request","message":"family 'slimfly' expects 1 dims, got 2","type":"error"}"#,
        ),
        (
            r#"{"type":"simulate_flows","topology":{"family":"expander","dims":[40]},"flows":[]}"#,
            r#"{"code":"bad_request","message":"expander expects dims = [nodes, skip...]","type":"error"}"#,
        ),
        (
            r#"{"type":"simulate_flows","topology":{"dims":[4]},"flows":[]}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'family'","type":"error"}"#,
        ),
        (
            r#"{"type":"cluster_sim","topology":{"family":"torus","dims":[4,4]},"jobs":4,"max_nodes":8,"mean_gap":30,"gigabytes":0.25,"allocator":"scatter","stride":null}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'stride'","type":"error"}"#,
        ),
        (
            r#"{"type":"cluster_sim","topology":{"family":"torus","dims":[4,4]},"jobs":4,"max_nodes":8,"mean_gap":30,"gigabytes":0.25}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'allocator'","type":"error"}"#,
        ),
        (
            r#"{"type":"policy_sim","machine":"mira","jobs":10,"seed":"-1","policy":"best"}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'seed'","type":"error"}"#,
        ),
        (
            r#"{"type":"policy_sim","machine":"mira","jobs":10,"seed":"18446744073709551616","policy":"best"}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'seed'","type":"error"}"#,
        ),
        (
            r#"{"type":"policy_sim","machine":"mira","jobs":10,"seed":9007199254740994,"policy":"best"}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'seed'","type":"error"}"#,
        ),
        (
            r#"{"type":"policy_sim","machine":"mira","jobs":10,"seed":1.5,"policy":"best"}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'seed'","type":"error"}"#,
        ),
        (
            r#"{"type":"policy_sim","machine":"mira","jobs":10,"seed":null,"policy":"best"}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'seed'","type":"error"}"#,
        ),
        (
            r#"{"type":"policy_sim","machine":"mira","jobs":10,"seed":"1","policy":"hint_aware"}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'tolerance'","type":"error"}"#,
        ),
        (
            r#"{"type":"sweep","scenarios":[{"topology":{"family":"torus","dims":[4]},"routing":{"kind":"valiant","seed":"x"},"traffic":{"kind":"all_to_all","gigabytes":1},"seed":"0"}]}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'seed'","type":"error"}"#,
        ),
        (
            r#"{"type":"sweep","scenarios":[{"topology":{"family":"torus","dims":[4]},"routing":{"kind":"dor"},"traffic":{"kind":"pairing","rounds":2},"seed":"0"}]}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'warmup_rounds'","type":"error"}"#,
        ),
        (
            r#"{"type":"sweep","scenarios":[{"topology":{"family":"torus","dims":[4]},"routing":{"kind":"dor"},"traffic":{"kind":"sched_trace","machine":"mira","jobs":2},"seed":"0"}]}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'policy'","type":"error"}"#,
        ),
        (
            r#"{"type":"sweep","scenarios":[5]}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'topology'","type":"error"}"#,
        ),
        (
            r#"{"type":"advise_fabric","topology":{"family":"torus","dims":[4,4]},"routing":{"kind":"dor"},"nodes":4,"gigabytes":1,"candidates":[{"kind":"scatter"}],"seed":"0"}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'stride'","type":"error"}"#,
        ),
        (
            r#"{"type":"advise_fabric","topology":{"family":"torus","dims":[4,4]},"routing":{"kind":"dor"},"nodes":4,"gigabytes":1,"candidates":"greedy","seed":"0"}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'candidates'","type":"error"}"#,
        ),
        // A patch that is not an object is refused, not read as empty.
        (
            r#"{"type":"readvise","topology":{"family":"torus","dims":[4,4]},"routing":{"kind":"shortest"},"nodes":16,"gigabytes":1.5,"candidates":[{"kind":"greedy"}],"seed":"9","patch":null}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'patch'","type":"error"}"#,
        ),
        (
            r#"{"type":"readvise","topology":{"family":"torus","dims":[4,4]},"routing":{"kind":"dor"},"nodes":4,"gigabytes":1,"candidates":[{"kind":"greedy"}],"seed":"0","patch":{"links":5}}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'links'","type":"error"}"#,
        ),
        (
            r#"{"type":"readvise","topology":{"family":"torus","dims":[4,4]},"routing":{"kind":"dor"},"nodes":4,"gigabytes":1,"candidates":[{"kind":"greedy"}],"seed":"0","patch":{"links":[{"a":0,"scale":1}]}}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'b'","type":"error"}"#,
        ),
        (
            r#"{"type":"readvise","topology":{"family":"torus","dims":[4,4]},"routing":{"kind":"dor"},"nodes":4,"gigabytes":1,"candidates":[{"kind":"greedy"}],"seed":"0","patch":{"nodes":[{"node":1}]}}"#,
            r#"{"code":"bad_request","message":"missing or invalid field 'scale'","type":"error"}"#,
        ),
    ]
}

/// Response lines a client cannot decode, with the client's error.
fn malformed_response_corpus() -> Vec<(&'static str, &'static str)> {
    vec![
        ("[]", r#"missing or invalid field 'type'"#),
        (
            r#"{"type":"verdict"}"#,
            r#"unknown response type 'verdict'"#,
        ),
        (
            r#"{"type":"error","code":"teapot","message":"m"}"#,
            r#"unknown error code 'teapot'"#,
        ),
        (
            r#"{"type":"error","message":"m"}"#,
            r#"missing or invalid field 'code'"#,
        ),
        (
            r#"{"type":"sweep_summary","results":[{"label":"x","status":"skipped"}]}"#,
            r#"unknown sweep status 'skipped'"#,
        ),
        (
            r#"{"type":"allocation_sweep_summary","results":[{"label":"x","status":"skipped"}]}"#,
            r#"unknown allocation-sweep status 'skipped'"#,
        ),
        (
            r#"{"type":"sweep_summary","results":[{"status":"ok"}]}"#,
            r#"missing or invalid field 'label'"#,
        ),
        (
            r#"{"type":"sweep_summary","results":[{"label":"x","status":"ok","makespan":1,"units":2}]}"#,
            r#"missing or invalid field 'solves'"#,
        ),
        (
            r#"{"type":"allocation_sweep_summary","results":[{"label":"x","status":"error"}]}"#,
            r#"missing or invalid field 'message'"#,
        ),
        (
            r#"{"type":"flow_summary","flows":4,"makespan":null,"mean_completion":null}"#,
            r#"missing or invalid field 'makespan'"#,
        ),
        (
            r#"{"type":"advice","machine":"mira","worst_dims":[4],"best_dims":[4],"worst_links":1,"best_links":1,"predicted_speedup":1,"geometry_matters":true}"#,
            r#"missing or invalid field 'size'"#,
        ),
        (
            r#"{"type":"advice","machine":"mira","size":1,"worst_dims":[4],"best_dims":[4],"worst_links":-1,"best_links":1,"predicted_speedup":1,"regime":"r","geometry_matters":true}"#,
            r#"missing or invalid field 'worst_links'"#,
        ),
        (
            r#"{"type":"fabric_advice","fabric":"f","nodes":2,"ordering_agreement":1,"truncated":false}"#,
            r#"missing or invalid field 'candidates'"#,
        ),
        (
            r#"{"type":"fabric_advice","label":"l","fabric":"f","nodes":2,"candidates":[{"label":"c","nodes":[0,1],"bound_seconds":1,"simulated_seconds":1,"gap":1,"cut_gbs":1,"internal_bisection_gbs":1,"closed_form":1,"solves":1}],"ordering_agreement":1,"truncated":false}"#,
            r#"missing or invalid field 'closed_form'"#,
        ),
        (
            r#"{"type":"stats","uptime_seconds":1,"requests_total":1,"requests_by_kind":{},"coalesced":0}"#,
            r#"missing or invalid field 'cache'"#,
        ),
        (
            r#"{"type":"stats","uptime_seconds":1,"requests_total":1,"cache":{"hits":0,"misses":0,"entries":0},"coalesced":0}"#,
            r#"missing or invalid field 'latency_us'"#,
        ),
        (
            r#"{"type":"stats","uptime_seconds":1,"requests_total":1,"requests_by_kind":{"advise":-1},"cache":{"hits":0,"misses":0,"entries":0},"coalesced":0,"latency_us":{"p50":1,"p99":1}}"#,
            r#"missing or invalid field 'requests_by_kind'"#,
        ),
        (
            r#"{"type":"stats","uptime_seconds":1,"requests_total":1,"requests_by_kind":{},"cache":{"hits":0,"misses":0,"entries":0,"hits_by_kind":[]},"coalesced":0,"latency_us":{"p50":1,"p99":1}}"#,
            r#"missing or invalid field 'hits_by_kind'"#,
        ),
        (
            r#"{"type":"stats","uptime_seconds":1,"requests_total":1,"requests_by_kind":{},"cache":{"hits":0,"misses":0,"entries":0},"coalesced":0,"latency_us":{"p50":1,"p99":1},"solver":null}"#,
            r#"missing or invalid field 'repairs'"#,
        ),
        (
            r#"{"type":"stats","uptime_seconds":1,"requests_total":1,"requests_by_kind":{},"cache":{"hits":0,"misses":0,"entries":0},"coalesced":0,"latency_us":{"p50":1,"p99":1},"advice":{"reused_flows":1}}"#,
            r#"missing or invalid field 'total_flows'"#,
        ),
    ]
}

#[test]
fn every_request_variant_encodes_to_its_canonical_line() {
    for (request, line) in request_corpus() {
        assert_eq!(request.encode(), line, "{request:?}");
        assert_eq!(request.cache_key(), line);
        assert_eq!(Request::decode(line), Ok(request), "{line}");
    }
}

#[test]
fn every_response_variant_encodes_to_its_canonical_line() {
    for (response, line) in response_corpus() {
        assert_eq!(response.encode(), line, "{response:?}");
        assert_eq!(Response::decode(line), Ok(response), "{line}");
    }
    for (response, line) in non_finite_corpus() {
        assert_eq!(response.encode(), line, "{response:?}");
    }
}

#[test]
fn lenient_input_decodes_to_the_pinned_value() {
    for (line, request) in lenient_request_corpus() {
        assert_eq!(Request::decode(line), Ok(request), "{line}");
    }
    for (line, response) in lenient_response_corpus() {
        assert_eq!(Response::decode(line), Ok(response), "{line}");
    }
}

#[test]
fn malformed_requests_get_the_pinned_bad_request_line() {
    for (line, expected) in malformed_request_corpus() {
        let error = Request::decode(line).expect_err(line);
        let reply = Response::error(ErrorCode::BadRequest, error.to_string()).encode();
        assert_eq!(reply, expected, "{line}");
    }
}

#[test]
fn malformed_responses_get_the_pinned_client_error() {
    for (line, expected) in malformed_response_corpus() {
        let error = Response::decode(line).expect_err(line);
        assert_eq!(error.to_string(), expected, "{line}");
    }
}

//! End-to-end tests: boot the server on an ephemeral port and talk to it
//! over real sockets, covering every request variant, malformed input, the
//! cache, coalescing and graceful shutdown.

use netpart_service::client::ServiceClient;
use netpart_service::protocol::{
    AdviceSpec, AllocationSpec, AllocatorSpec, ErrorCode, FlowSpec, PolicySpec, Request, Response,
    RoutingSpec, TopologySpec,
};
use netpart_service::server::{serve, ServerConfig};

fn boot(workers: usize) -> netpart_service::server::ServerHandle {
    serve(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
}

#[test]
fn every_request_variant_gets_its_response_type() {
    let handle = boot(2);
    let mut client = ServiceClient::connect(handle.local_addr()).unwrap();

    let advice = client
        .request(&Request::Advise {
            machine: "mira".into(),
            size: 16,
            kernel: None,
        })
        .unwrap();
    assert!(matches!(advice, Response::Advice { .. }), "{advice:?}");

    let bisection = client
        .request(&Request::Bisection {
            topology: "torus".into(),
            dims: vec![8, 4, 4],
        })
        .unwrap();
    // 2·N/L with N = 128, L = 8 (Chen et al. formula via the slab bound).
    assert_eq!(bisection, Response::Bisection { links: 32.0 });

    let flows = client
        .request(&Request::SimulateFlows {
            topology: TopologySpec::Hypercube(4),
            flows: (0..16)
                .map(|src| FlowSpec {
                    src,
                    dst: 15 - src,
                    gigabytes: 0.25,
                })
                .collect(),
        })
        .unwrap();
    assert!(
        matches!(flows, Response::FlowSummary { flows: 16, .. }),
        "{flows:?}"
    );

    let cluster = client
        .request(&Request::ClusterSim {
            topology: TopologySpec::Torus(vec![4, 4]),
            jobs: 6,
            max_nodes: 4,
            mean_gap: 50.0,
            gigabytes: 0.25,
            allocator: AllocatorSpec::Compact,
        })
        .unwrap();
    assert!(
        matches!(cluster, Response::ClusterSummary { .. }),
        "{cluster:?}"
    );

    let policy = client
        .request(&Request::PolicySim {
            machine: "mira".into(),
            jobs: 10,
            seed: 3,
            policy: PolicySpec::Best,
        })
        .unwrap();
    assert!(
        matches!(policy, Response::PolicySummary { .. }),
        "{policy:?}"
    );

    let sweep = client
        .request(&Request::Sweep {
            scenarios: netpart_scenario::standard_sweep(),
        })
        .unwrap();
    match &sweep {
        Response::SweepSummary { results } => {
            assert!(results.len() >= 24, "{} scenarios", results.len());
            assert!(
                results
                    .iter()
                    .all(netpart_service::protocol::SweepLine::is_ok),
                "{results:?}"
            );
        }
        other => panic!("expected sweep summary, got {other:?}"),
    }

    let advice = client
        .request(&Request::AdviseFabric {
            spec: advice_spec(TopologySpec::Dragonfly(4, 4, 2), RoutingSpec::ShortestPath),
        })
        .unwrap();
    assert!(matches!(advice, Response::FabricAdvice(_)), "{advice:?}");

    let allocation_sweep = client
        .request(&Request::AllocationSweep {
            specs: netpart_scenario::standard_allocation_sweep(),
        })
        .unwrap();
    match &allocation_sweep {
        Response::AllocationSweepSummary { results } => {
            assert!(results.len() >= 5, "{} advice specs", results.len());
            assert!(
                results
                    .iter()
                    .all(netpart_service::protocol::AdviceSweepLine::is_ok),
                "{results:?}"
            );
        }
        other => panic!("expected allocation sweep summary, got {other:?}"),
    }

    let health = client.health().unwrap();
    assert!(
        matches!(health, Response::Health { workers: 2, .. }),
        "{health:?}"
    );

    let stats = client.stats().unwrap();
    assert!(stats.requests_total >= 8);

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn malformed_lines_get_typed_errors_and_the_connection_survives() {
    let handle = boot(2);
    let mut client = ServiceClient::connect(handle.local_addr()).unwrap();

    for bad in [
        "this is not json",
        "{\"type\":\"advise\"}",        // missing fields
        "{\"type\":\"no_such_thing\"}", // unknown type
        "[1,2,3]",                      // not an object
        "{\"type\":\"advise\",\"machine\":\"mira\",\"size\":\"huge\"}", // wrong type
        "\u{7b}\"unterminated\": ",     // truncated JSON
    ] {
        let response = client.send_line(bad).expect("server must answer, not drop");
        assert!(
            matches!(
                response,
                Response::Error {
                    code: ErrorCode::BadRequest,
                    ..
                }
            ),
            "line {bad:?} produced {response:?}"
        );
    }

    // Domain errors are 'unsupported', not connection drops either.
    let response = client
        .request(&Request::Advise {
            machine: "not-a-machine".into(),
            size: 4,
            kernel: None,
        })
        .unwrap();
    assert!(matches!(
        response,
        Response::Error {
            code: ErrorCode::Unsupported,
            ..
        }
    ));

    // The same connection still serves good requests afterwards.
    let health = client.health().unwrap();
    assert!(matches!(health, Response::Health { .. }));

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn repeated_queries_hit_the_cache() {
    let handle = boot(2);
    let mut client = ServiceClient::connect(handle.local_addr()).unwrap();
    let request = Request::Advise {
        machine: "juqueen".into(),
        size: 8,
        kernel: None,
    };
    let first = client.request(&request).unwrap();
    for _ in 0..9 {
        assert_eq!(client.request(&request).unwrap(), first);
    }
    // Key order must not matter for caching: send a reordered raw form.
    let reordered = "{\"size\":8,\"machine\":\"juqueen\",\"type\":\"advise\"}";
    assert_eq!(client.send_line(reordered).unwrap(), first);

    let stats = client.stats().unwrap();
    assert_eq!(stats.cache_misses, 1, "one computation");
    assert_eq!(stats.cache_hits, 10, "everything else from cache");
    assert!(stats.hit_rate() > 0.9);
    assert_eq!(stats.cache_entries, 1);

    client.shutdown().unwrap();
    handle.join();
}

fn advice_spec(topology: TopologySpec, routing: RoutingSpec) -> AdviceSpec {
    AdviceSpec {
        topology,
        routing,
        nodes: 8,
        gigabytes: 0.25,
        candidates: vec![
            AllocationSpec::Blocked,
            AllocationSpec::Greedy,
            AllocationSpec::Scatter { stride: 5 },
            AllocationSpec::Random { samples: 1 },
        ],
        seed: 3,
    }
}

#[test]
fn advise_fabric_ranks_candidates_on_every_non_torus_family() {
    let handle = boot(2);
    let mut client = ServiceClient::connect(handle.local_addr()).unwrap();
    for (topology, routing) in [
        (TopologySpec::Dragonfly(4, 4, 2), RoutingSpec::ShortestPath),
        (TopologySpec::FatTree(4), RoutingSpec::Ecmp { salt: 1 }),
        (
            TopologySpec::Expander(40, vec![1, 7, 16]),
            RoutingSpec::ShortestPath,
        ),
    ] {
        let request = Request::AdviseFabric {
            spec: advice_spec(topology.clone(), routing),
        };
        let response = client.request(&request).unwrap();
        let Response::FabricAdvice(result) = response else {
            panic!("expected fabric advice for {topology:?}, got {response:?}");
        };
        assert_eq!(result.nodes, 8);
        assert_eq!(result.candidates.len(), 4, "{}", result.label);
        for pair in result.candidates.windows(2) {
            assert!(
                pair[0].simulated_seconds <= pair[1].simulated_seconds,
                "{} is not ranked",
                result.label
            );
        }
        for c in &result.candidates {
            assert_eq!(c.nodes.len(), 8);
            assert!(c.simulated_seconds > 0.0);
            assert!(c.bound_seconds <= c.simulated_seconds * (1.0 + 1e-9));
        }
    }
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn advise_fabric_rejects_bad_specs_and_malformed_payloads() {
    let handle = boot(2);
    let mut client = ServiceClient::connect(handle.local_addr()).unwrap();

    // Well-formed but unanswerable: torus blocks need a torus fabric.
    let response = client
        .request(&Request::AdviseFabric {
            spec: AdviceSpec {
                candidates: vec![AllocationSpec::TorusBlocks],
                ..advice_spec(TopologySpec::Hypercube(4), RoutingSpec::ShortestPath)
            },
        })
        .unwrap();
    assert!(
        matches!(
            response,
            Response::Error {
                code: ErrorCode::Unsupported,
                ..
            }
        ),
        "{response:?}"
    );

    // Malformed advice payloads are bad requests, not dropped connections.
    for bad in [
        r#"{"type":"advise_fabric"}"#,
        r#"{"type":"advise_fabric","topology":{"family":"torus","dims":[4,4]},"routing":{"kind":"dor"},"nodes":8,"gigabytes":0.5,"candidates":[{"kind":"frobnicate"}],"seed":"1"}"#,
        r#"{"type":"advise_fabric","topology":{"family":"torus","dims":[4,4]},"routing":{"kind":"dor"},"nodes":8,"gigabytes":"lots","candidates":[{"kind":"greedy"}],"seed":"1"}"#,
        r#"{"type":"allocation_sweep","specs":[{}]}"#,
        r#"{"type":"allocation_sweep"}"#,
    ] {
        let response = client.send_line(bad).expect("server must answer");
        assert!(
            matches!(
                response,
                Response::Error {
                    code: ErrorCode::BadRequest,
                    ..
                }
            ),
            "line {bad:?} produced {response:?}"
        );
    }

    // Empty sweeps are refused as unsupported.
    let response = client
        .request(&Request::AllocationSweep { specs: vec![] })
        .unwrap();
    assert!(matches!(
        response,
        Response::Error {
            code: ErrorCode::Unsupported,
            ..
        }
    ));

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn allocation_sweep_isolates_per_spec_failures_and_caches() {
    let handle = boot(2);
    let mut client = ServiceClient::connect(handle.local_addr()).unwrap();
    let good = advice_spec(TopologySpec::SlimFly(5), RoutingSpec::Ecmp { salt: 1 });
    let bad = AdviceSpec {
        nodes: 100_000,
        ..good.clone()
    };
    let request = Request::AllocationSweep {
        specs: vec![good, bad],
    };
    let first = client.request(&request).unwrap();
    let Response::AllocationSweepSummary { results } = &first else {
        panic!("expected allocation sweep summary, got {first:?}");
    };
    assert_eq!(results.len(), 2);
    assert!(results[0].is_ok(), "{:?}", results[0]);
    assert!(!results[0].best_candidate.is_empty());
    assert!(results[0].candidates >= 4);
    assert!(!results[1].is_ok());

    // Identical sweeps come from the cache.
    assert_eq!(client.request(&request).unwrap(), first);
    let stats = client.stats().unwrap();
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_hits, 1);

    client.shutdown().unwrap();
    handle.join();
}

/// Boot one server per solver mode and drive both through the same request
/// sequence: every response — including the cache-hit replays — must be
/// byte-identical. The solver mode is a server-side execution knob, never
/// part of the wire contract or the cache key.
#[test]
fn solver_modes_serve_byte_identical_responses_from_cache_and_compute() {
    use netpart_engine::{QueueKind, SolverMode};
    use netpart_service::protocol::{ScenarioSpec, TrafficSpec};
    let batch = boot(2);
    // The other face of every execution choice: incremental repairs on the
    // heap queue.
    let incremental = serve(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        solver: SolverMode::Incremental,
        queue: QueueKind::Heap,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let mut batch_client = ServiceClient::connect(batch.local_addr()).unwrap();
    let mut incremental_client = ServiceClient::connect(incremental.local_addr()).unwrap();

    let requests = [
        Request::AdviseFabric {
            spec: advice_spec(TopologySpec::Dragonfly(4, 4, 2), RoutingSpec::ShortestPath),
        },
        Request::AdviseFabric {
            spec: advice_spec(TopologySpec::FatTree(4), RoutingSpec::Ecmp { salt: 1 }),
        },
        Request::ClusterSim {
            topology: TopologySpec::Torus(vec![4, 4]),
            jobs: 6,
            max_nodes: 4,
            mean_gap: 50.0,
            gigabytes: 0.25,
            allocator: AllocatorSpec::Compact,
        },
        Request::PolicySim {
            machine: "juqueen".into(),
            jobs: 40,
            seed: 5,
            policy: PolicySpec::HintAware(0.9),
        },
        Request::SimulateFlows {
            topology: TopologySpec::Torus(vec![4, 4]),
            flows: (0..16)
                .map(|src| FlowSpec {
                    src,
                    dst: (src * 5 + 3) % 16,
                    gigabytes: 0.25 * (1 + src % 3) as f64,
                })
                .collect(),
        },
        Request::Sweep {
            scenarios: vec![
                ScenarioSpec {
                    topology: TopologySpec::Torus(vec![4, 4]),
                    routing: RoutingSpec::ShortestPath,
                    traffic: TrafficSpec::JobTrace {
                        jobs: 6,
                        max_nodes: 4,
                        mean_gap: 50.0,
                        gigabytes: 0.25,
                        allocator: AllocatorSpec::Scatter(3),
                    },
                    seed: 2,
                },
                ScenarioSpec {
                    topology: TopologySpec::Torus(vec![4, 4, 2]),
                    routing: RoutingSpec::DimensionOrdered,
                    traffic: TrafficSpec::paper_pairing(),
                    seed: 2,
                },
            ],
        },
    ];
    for request in &requests {
        let repairs_before = incremental_client.stats().unwrap().solver_repairs;
        // First ask computes; the replay must come from the cache.
        let computed_b = batch_client.request(request).unwrap();
        let computed_i = incremental_client.request(request).unwrap();
        if matches!(
            request,
            Request::SimulateFlows { .. } | Request::Sweep { .. }
        ) {
            assert!(
                incremental_client.stats().unwrap().solver_repairs > repairs_before,
                "{} did not run on the incremental solver",
                request.kind()
            );
        }
        assert_eq!(
            computed_b.encode(),
            computed_i.encode(),
            "computed responses differ for {request:?}"
        );
        let cached_b = batch_client.request(request).unwrap();
        let cached_i = incremental_client.request(request).unwrap();
        assert_eq!(cached_b.encode(), computed_b.encode());
        assert_eq!(
            cached_b.encode(),
            cached_i.encode(),
            "cache-hit responses differ for {request:?}"
        );
    }
    // Confirm the replays really were cache hits on both servers.
    for client in [&mut batch_client, &mut incremental_client] {
        let stats = client.stats().unwrap();
        assert_eq!(stats.cache_misses, requests.len() as u64);
        assert_eq!(stats.cache_hits, requests.len() as u64);
    }

    batch_client.shutdown().unwrap();
    incremental_client.shutdown().unwrap();
    batch.join();
    incremental.join();
}

#[test]
fn serving_on_the_heap_queue_leaves_other_simulations_alone() {
    use netpart_engine::{QueueKind, Simulation};
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue: QueueKind::Heap,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    // The server's queue choice travels with its requests; a simulation
    // built anywhere else in the process keeps the default core.
    assert_eq!(Simulation::<()>::new().queue_kind(), QueueKind::Calendar);
    handle.shutdown();
    handle.join();
}

#[test]
fn concurrent_clients_are_served_in_parallel() {
    let handle = boot(4);
    let addr = handle.local_addr();
    std::thread::scope(|s| {
        for t in 0..8 {
            s.spawn(move || {
                let mut client = ServiceClient::connect(addr).unwrap();
                for i in 0..20 {
                    let response = client
                        .request(&Request::Bisection {
                            topology: "hypercube".into(),
                            dims: vec![1 + (t + i) % 10],
                        })
                        .unwrap();
                    assert!(matches!(response, Response::Bisection { .. }));
                }
            });
        }
    });
    let mut client = ServiceClient::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.requests_total, 161,
        "8*20 bisections + this stats call"
    );
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn shutdown_via_handle_unblocks_everything() {
    let handle = boot(2);
    let addr = handle.local_addr();
    let mut client = ServiceClient::connect(addr).unwrap();
    assert!(matches!(client.health().unwrap(), Response::Health { .. }));
    handle.shutdown();
    handle.join();
    // New connections are refused (or at least never answered).
    let survives = ServiceClient::connect(addr)
        .and_then(|mut c| c.health())
        .is_ok();
    assert!(!survives, "server must be gone after join()");
}

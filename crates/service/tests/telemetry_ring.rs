//! Socket-level telemetry test: boot a server with a file-backed ring,
//! drive real requests over TCP, then read the ring from this process (a
//! different "process" than the worker threads as far as the mapping is
//! concerned — the reader path is the same read-only mmap `telemetry_tail`
//! uses) and check the request-lifecycle and solver events landed.

use netpart_engine::{Flow, SolverMode};
use netpart_service::client::ServiceClient;
use netpart_service::protocol::{
    AdviceSpec, AllocationSpec, Request, Response, RoutingSpec, ScenarioSpec, TopologySpec,
    TrafficSpec,
};
use netpart_service::server::{serve, ServerConfig};
use netpart_telemetry::trace::{snapshot, TraceForest};
use netpart_telemetry::{ReadOutcome, RingReader, TelemetryEvent};

/// Drain every record currently in the ring, decoded.
fn drain(reader: &RingReader) -> Vec<TelemetryEvent> {
    let mut events = Vec::new();
    for seq in reader.oldest()..reader.cursor() {
        match reader.read(seq) {
            ReadOutcome::Record(words) => {
                let (_, event) = TelemetryEvent::decode(&words).expect("known kind");
                events.push(event);
            }
            other => panic!("record {seq} unreadable: {other:?}"),
        }
    }
    events
}

#[test]
fn sweep_over_a_socket_lands_request_and_solver_events_in_the_ring() {
    let ring_path = std::env::temp_dir().join(format!(
        "netpart_service_telemetry_{}.ring",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&ring_path);
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        // Incremental mode so cluster_sim exercises the repair path and the
        // ring sees SolverRepair records, not just rounds.
        solver: SolverMode::Incremental,
        telemetry_ring: Some(ring_path.clone()),
        telemetry_ring_capacity: 1 << 16,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port with telemetry ring");
    let mut client = ServiceClient::connect(handle.local_addr()).unwrap();

    let scenarios = vec![
        ScenarioSpec {
            topology: TopologySpec::Torus(vec![4, 4]),
            routing: RoutingSpec::DimensionOrdered,
            traffic: TrafficSpec::BisectionPairing {
                rounds: 4,
                warmup_rounds: 1,
                round_gigabytes: 0.5,
            },
            seed: 1,
        },
        // Invalid on purpose: dimension-ordered routing off a torus. The
        // spec must still get its own SweepSpecDone record, with ok=false.
        ScenarioSpec {
            topology: TopologySpec::Hypercube(4),
            routing: RoutingSpec::DimensionOrdered,
            traffic: TrafficSpec::AllToAll { gigabytes: 0.5 },
            seed: 1,
        },
    ];
    let response = client.request(&Request::Sweep { scenarios }).unwrap();
    assert!(
        matches!(response, Response::SweepSummary { .. }),
        "{response:?}"
    );

    // A cluster simulation in incremental mode: the repair path proper.
    let response = client
        .request(&Request::ClusterSim {
            topology: TopologySpec::Torus(vec![4, 4]),
            jobs: 8,
            max_nodes: 4,
            mean_gap: 10.0,
            gigabytes: 0.25,
            allocator: netpart_service::protocol::AllocatorSpec::Compact,
        })
        .unwrap();
    assert!(
        matches!(response, Response::ClusterSummary { .. }),
        "{response:?}"
    );

    // The stats endpoint must agree with the ring's aggregates.
    let stats = client.stats().unwrap();
    assert!(stats.solver_rounds > 0, "no rounds in {stats:?}");
    assert!(
        stats.solver_repairs + stats.solver_full_solves > 0,
        "no repairs in {stats:?}"
    );
    assert!(stats
        .cache_misses_by_kind
        .iter()
        .any(|(k, n)| k == "sweep" && *n == 1));

    client.shutdown().unwrap();
    handle.join();

    let reader = RingReader::open(&ring_path).expect("ring file readable");
    let events = drain(&reader);
    let mut sweep_specs_done = Vec::new();
    let mut request_kinds = Vec::new();
    let mut solver_rounds = 0u64;
    let mut solver_repairs = 0u64;
    for event in &events {
        match event {
            TelemetryEvent::SweepSpecDone { spec_idx, ok, .. } => {
                sweep_specs_done.push((*spec_idx, *ok));
            }
            TelemetryEvent::RequestDone { kind, .. } => {
                request_kinds.push(kind.as_str().to_string());
            }
            TelemetryEvent::SolverRound { .. } => solver_rounds += 1,
            TelemetryEvent::SolverRepair { .. } => solver_repairs += 1,
            _ => {}
        }
    }
    sweep_specs_done.sort();
    assert_eq!(
        sweep_specs_done,
        vec![(0, true), (1, false)],
        "one SweepSpecDone per spec in {events:?}"
    );
    for expected in ["sweep", "cluster_sim", "stats", "shutdown"] {
        assert!(
            request_kinds.iter().any(|k| k == expected),
            "no RequestDone for '{expected}' in {request_kinds:?}"
        );
    }
    assert!(solver_rounds > 0, "no SolverRound records");
    assert!(solver_repairs > 0, "no SolverRepair records");

    let _ = std::fs::remove_file(&ring_path);
}

fn advice_spec() -> AdviceSpec {
    AdviceSpec {
        topology: TopologySpec::Torus(vec![4, 4]),
        routing: RoutingSpec::ShortestPath,
        nodes: 8,
        gigabytes: 0.25,
        candidates: vec![
            AllocationSpec::Blocked,
            AllocationSpec::Greedy,
            AllocationSpec::Scatter { stride: 5 },
            AllocationSpec::Random { samples: 2 },
        ],
        seed: 7,
    }
}

/// Labels of the span `id` and every span below it.
fn subtree_labels(forest: &TraceForest, id: u64) -> std::collections::BTreeSet<String> {
    let mut labels = std::collections::BTreeSet::new();
    let mut stack = vec![id];
    while let Some(id) = stack.pop() {
        let node = forest.span(id).unwrap();
        labels.insert(node.label.as_str().to_string());
        stack.extend(&node.children);
    }
    labels
}

#[test]
fn compute_requests_reconstruct_to_covering_span_trees() {
    // One computing request per row, each with the spans its computation
    // must record under `compute`.
    let table: [(Request, &str, &[&str]); 2] = [
        (
            Request::AdviseFabric {
                spec: advice_spec(),
            },
            "advise_fabric",
            &[
                "generate_cands",
                "score_cands",
                "route",
                // The sharded sweep: each shard's first candidate, then the
                // rest, each simulated by a reused FluidSim whose spans nest
                // under them.
                "cand_full",
                "cand_delta",
                "csr_build",
                "fluid_solve",
            ],
        ),
        (
            Request::SimulateFlows {
                topology: TopologySpec::Torus(vec![4, 4]),
                flows: (0..16)
                    .map(|src| Flow {
                        src,
                        dst: (src * 5 + 3) % 16,
                        gigabytes: 0.25 * (1 + src % 3) as f64,
                    })
                    .collect(),
            },
            "simulate_flows",
            &["route", "csr_build", "fluid_solve"],
        ),
    ];
    let ring_path =
        std::env::temp_dir().join(format!("netpart_service_spans_{}.ring", std::process::id()));
    let _ = std::fs::remove_file(&ring_path);
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        solver: SolverMode::Incremental,
        telemetry_ring: Some(ring_path.clone()),
        telemetry_ring_capacity: 1 << 16,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port with telemetry ring");
    let mut client = ServiceClient::connect(handle.local_addr()).unwrap();
    for (request, _, _) in &table {
        let response = client.request(request).unwrap();
        assert!(!matches!(response, Response::Error { .. }), "{response:?}");
    }
    client.shutdown().unwrap();
    handle.join();

    let reader = RingReader::open(&ring_path).expect("ring file readable");
    let records = snapshot(&reader);
    let forest = TraceForest::from_records(&records);

    for (_, kind, computed) in &table {
        let request = forest
            .requests()
            .iter()
            .find(|r| {
                matches!(
                    r.event,
                    TelemetryEvent::RequestDone { kind: k, trace_id, .. }
                        if k.as_str() == *kind && trace_id != 0
                )
            })
            .copied()
            .unwrap_or_else(|| panic!("a {kind} RequestDone with a trace id"));
        let TelemetryEvent::RequestDone { trace_id, .. } = request.event else {
            unreachable!()
        };

        // The reconstructed span tree accounts for at least 95% of the
        // latency the service itself reported.
        let coverage = forest.coverage(&request).expect("closed root span");
        assert!(
            coverage >= 0.95,
            "{kind}: span tree covers {coverage:.3} < 0.95"
        );

        // The root is the request span; the phases hang off it, and the
        // computation's spans hang off `compute`.
        let roots = forest.trace_roots(trace_id);
        assert_eq!(roots.len(), 1, "{kind}: one root span, got {roots:?}");
        let root = forest.span(roots[0]).unwrap();
        assert_eq!(root.label.as_str(), "request");
        let phases = subtree_labels(&forest, roots[0]);
        for expected in ["request", "parse", "cache_lookup", "compute", "respond"] {
            assert!(
                phases.contains(expected),
                "{kind}: no '{expected}' span in {phases:?}"
            );
        }
        let compute = root
            .children
            .iter()
            .copied()
            .find(|&id| forest.span(id).unwrap().label.as_str() == "compute")
            .expect("a compute span under the request");
        let labels = subtree_labels(&forest, compute);
        for expected in *computed {
            assert!(
                labels.contains(*expected),
                "{kind}: no '{expected}' span under compute in {labels:?}"
            );
        }
    }

    let _ = std::fs::remove_file(&ring_path);
}

#[test]
fn flight_recorder_dumps_slow_request_traces() {
    let ring_path = std::env::temp_dir().join(format!(
        "netpart_service_flight_{}.ring",
        std::process::id()
    ));
    let trace_dir = std::env::temp_dir().join(format!(
        "netpart_service_flight_{}.traces",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&ring_path);
    let _ = std::fs::remove_dir_all(&trace_dir);
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        telemetry_ring: Some(ring_path.clone()),
        telemetry_ring_capacity: 1 << 14,
        // Threshold 0: every traced request counts as slow.
        trace_slow_ms: Some(0),
        trace_dir: Some(trace_dir.clone()),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port with flight recorder");
    let mut client = ServiceClient::connect(handle.local_addr()).unwrap();
    let response = client
        .request(&Request::AdviseFabric {
            spec: advice_spec(),
        })
        .unwrap();
    assert!(
        matches!(response, Response::FabricAdvice(_)),
        "{response:?}"
    );
    client.shutdown().unwrap();
    handle.join();

    let dump = trace_dir.join("slow-0.json");
    let json = std::fs::read_to_string(&dump).expect("flight-recorder dump exists");
    assert!(
        json.trim_start().starts_with('['),
        "not a JSON array: {json}"
    );
    assert!(json.contains("\"request\""), "no request span in {json}");
    assert!(
        json.contains("\"ph\":\"X\""),
        "no complete events in {json}"
    );

    // The recorder must also refuse to arm without a ring to read back.
    match serve(ServerConfig {
        addr: "127.0.0.1:0".into(),
        trace_slow_ms: Some(5),
        ..ServerConfig::default()
    }) {
        Ok(_) => panic!("trace_slow_ms without telemetry_ring must be rejected"),
        Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput),
    }

    let _ = std::fs::remove_file(&ring_path);
    let _ = std::fs::remove_dir_all(&trace_dir);
}

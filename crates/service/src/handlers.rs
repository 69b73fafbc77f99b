//! Request handlers: the bridge from the wire protocol into the analysis
//! and simulation crates (`netpart-contention`, `netpart-iso`,
//! `netpart-engine`, `netpart-scenario`, `netpart-sched`).
//!
//! Every handler is a total function from request to [`Response`] — domain
//! errors (unknown machine, unsupported shape, simulation failure) come
//! back as typed [`Response::Error`]s, never as panics.

use crate::protocol::{
    AdviceResult, AdviceSpec, AdviceSweepLine, AllocatorSpec, ErrorCode, FabricPatch, FlowSpec,
    KernelSpec, PolicySpec, Request, Response, ScenarioSpec, SweepLine, TopologySpec,
};
use netpart_contention::{advise_kernel, ContentionModel, Kernel, NodeModel};
use netpart_engine::{
    simulate_cluster_with, simulate_flows_with, DimensionOrdered, EngineError, Exec, Fabric,
    Router, ShortestPath,
};
use netpart_iso::{harper, lindsey, weighted};
use netpart_scenario::{
    check_max_nodes, machine_by_name, run_allocation_sweep_with, run_sweep_with,
    MAX_FABRIC_CHANNELS, MAX_FABRIC_NODES, MAX_FLOWS, MAX_JOBS,
};
use netpart_sched::{generate_trace, simulate_events_with, TraceConfig};
use netpart_topology::{Dragonfly, GlobalArrangement};

/// Upper bound on scenarios per `sweep` request (each scenario already has
/// its own fabric/flow/job budgets from `netpart-scenario`).
const MAX_SWEEP: usize = 256;

/// Upper bound on specs per `allocation_sweep` request (each spec scores up
/// to `MAX_ADVICE_CANDIDATES` flow simulations).
const MAX_ALLOCATION_SWEEP: usize = 32;

fn unsupported(message: impl Into<String>) -> Response {
    Response::error(ErrorCode::Unsupported, message)
}

fn kernel_from_spec(spec: &Option<KernelSpec>) -> Kernel {
    match spec {
        // The paper's pure-communication pairing benchmark: 2 GB per rank.
        None => Kernel::Custom {
            words_per_proc: 2e9 / 8.0,
            flops_per_proc: 1.0,
        },
        Some(KernelSpec::ClassicalMatmul(n)) => Kernel::ClassicalMatmul { n: *n },
        Some(KernelSpec::StrassenMatmul(n)) => Kernel::StrassenMatmul { n: *n },
        Some(KernelSpec::DirectNBody(b)) => Kernel::DirectNBody { bodies: *b },
        Some(KernelSpec::Fft(n)) => Kernel::Fft { n: *n },
        Some(KernelSpec::Custom(words, flops)) => Kernel::Custom {
            words_per_proc: *words,
            flops_per_proc: *flops,
        },
    }
}

/// Build the fabric and its natural router from a spec. Construction and
/// the node/channel budgets live in `netpart-scenario` (the single place a
/// spec becomes a fabric); the error is boxed so the happy path does not
/// pay for the error response's size.
pub fn build_fabric(spec: &TopologySpec) -> Result<(Fabric, Box<dyn Router>), Box<Response>> {
    let fabric =
        netpart_scenario::build_fabric(spec).map_err(|e| Box::new(unsupported(e.to_string())))?;
    let router: Box<dyn Router> = if fabric.torus().is_some() {
        Box::new(DimensionOrdered::default())
    } else {
        Box::new(ShortestPath)
    };
    Ok((fabric, router))
}

fn handle_advise(machine: &str, size: usize, kernel: &Option<KernelSpec>) -> Response {
    let Some(bgq) = machine_by_name(machine) else {
        return unsupported(format!(
            "unknown machine '{machine}' (expected mira, juqueen, juqueen_48, juqueen_54 or sequoia)"
        ));
    };
    let model = ContentionModel::bgq(kernel_from_spec(kernel));
    let node = NodeModel::bgq();
    let Some(advice) = advise_kernel(&bgq, &model, &node, size) else {
        return unsupported(format!("{machine} cannot host {size} midplanes"));
    };
    let predicted_speedup = advice.predicted_speedup();
    if !predicted_speedup.is_finite() {
        return unsupported("the predicted speedup is not finite; kernel costs are too large");
    }
    let regime = match advice.regime() {
        netpart_contention::RuntimeRegime::ContentionBound => "contention_bound",
        netpart_contention::RuntimeRegime::BandwidthBound => "bandwidth_bound",
        netpart_contention::RuntimeRegime::ComputeBound => "compute_bound",
    };
    Response::Advice {
        machine: machine.to_string(),
        size,
        worst_dims: advice.worst_geometry.node_dims().to_vec(),
        best_dims: advice.best_geometry.node_dims().to_vec(),
        worst_links: advice.worst_geometry.bisection_links(),
        best_links: advice.best_geometry.bisection_links(),
        predicted_speedup,
        regime: regime.to_string(),
        geometry_matters: advice.geometry_matters(),
    }
}

/// Node count of a `dims` allocation, or `None` when it overflows the `u64`
/// the closed forms compute in.
fn node_count(dims: &[usize]) -> Option<u64> {
    dims.iter().try_fold(1u64, |n, &a| n.checked_mul(a as u64))
}

fn handle_bisection(topology: &str, dims: &[usize]) -> Response {
    let overflow = || unsupported(format!("{topology} dims {dims:?} overflow the link count"));
    let links = match topology {
        "torus" => {
            if dims.is_empty() || dims.contains(&0) {
                return unsupported("torus dims must be non-empty and positive");
            }
            if !dims.iter().any(|&d| d >= 2 && d % 2 == 0) {
                return unsupported(
                    "torus has no even dimension; no axis-aligned bisection exists",
                );
            }
            // The cut `2·N/a` over an even `a` is at most `N`.
            if node_count(dims).is_none() {
                return overflow();
            }
            netpart_iso::torus_bisection_links(dims) as f64
        }
        "hypercube" => match dims {
            [d] if *d <= 62 => harper::hypercube_bisection(*d as u32) as f64,
            _ => return unsupported("hypercube expects dims = [subcube_dimension <= 62]"),
        },
        "dragonfly" => match dims {
            [groups, ports] if *groups >= 2 && *ports >= 1 => {
                // Cray XC groups hold 16 × 6 routers, and the cut walks every
                // router's links, which grow with its global ports: bound both
                // by the budgets a fabric built from a spec gets.
                let routers = groups.checked_mul(16 * 6);
                let within_budget = routers.is_some_and(|r| {
                    r <= MAX_FABRIC_NODES
                        && r.checked_mul(*ports).is_some_and(|p| p <= MAX_FABRIC_CHANNELS)
                });
                if !within_budget {
                    return unsupported(format!(
                        "dragonfly outside the budget (groups x 96 routers <= {MAX_FABRIC_NODES}, \
                         routers x global ports <= {MAX_FABRIC_CHANNELS})"
                    ));
                }
                let df = Dragonfly::cray_xc(*groups, *ports, GlobalArrangement::Relative);
                weighted::dragonfly_group_bisection(&df)
            }
            _ => {
                return unsupported(
                    "dragonfly expects dims = [groups >= 2, global_ports_per_router >= 1]",
                )
            }
        },
        "hyperx" => {
            if dims.is_empty() || dims.contains(&0) {
                return unsupported("hyperx dims must be non-empty and positive");
            }
            // Each dimension's cut `⌊a/2⌋·⌈a/2⌉·(N/a)` must fit as well.
            let fits = node_count(dims).is_some_and(|n| {
                dims.iter().all(|&a| {
                    let a = a as u64;
                    (a / 2)
                        .checked_mul(a - a / 2)
                        .and_then(|c| c.checked_mul(n / a))
                        .is_some()
                })
            });
            if !fits {
                return overflow();
            }
            lindsey::hyperx_bisection(dims, &vec![1.0; dims.len()])
        }
        "bgq" => {
            let longest = dims.iter().copied().max().unwrap_or(0);
            if dims.is_empty() || longest < 4 || longest % 2 != 0 {
                return unsupported(
                    "bgq formula requires node dims with an even longest dimension >= 4",
                );
            }
            // The formula computes `2·N` before dividing by the longest dim.
            if node_count(dims).and_then(|n| n.checked_mul(2)).is_none() {
                return overflow();
            }
            netpart_iso::bgq_bisection_links(dims) as f64
        }
        other => {
            return unsupported(format!(
                "unknown bisection topology '{other}' (expected torus, hypercube, dragonfly, hyperx or bgq)"
            ))
        }
    };
    Response::Bisection { links }
}

fn handle_simulate_flows(topology: &TopologySpec, flows: &[FlowSpec], exec: Exec) -> Response {
    if flows.len() > MAX_FLOWS {
        return unsupported(format!("more than {MAX_FLOWS} flows in one request"));
    }
    let (fabric, router) = match build_fabric(topology) {
        Ok(pair) => pair,
        Err(resp) => return *resp,
    };
    let n = fabric.num_nodes();
    if let Some(bad) = flows.iter().find(|f| f.src >= n || f.dst >= n) {
        return unsupported(format!(
            "flow endpoint out of range: {} -> {} on a {n}-node fabric",
            bad.src, bad.dst
        ));
    }
    if flows
        .iter()
        .any(|f| f.gigabytes.is_nan() || f.gigabytes < 0.0)
    {
        return unsupported("flow volumes must be non-negative");
    }
    let outcome = match simulate_flows_with(&fabric, router.as_ref(), flows, exec) {
        Ok(outcome) => outcome,
        Err(e @ EngineError::NonFiniteTime { .. }) => return unsupported(e.to_string()),
        Err(e) => return Response::error(ErrorCode::Internal, format!("simulation failed: {e}")),
    };
    let mean_completion = outcome.mean_completion();
    if !(outcome.makespan.is_finite() && mean_completion.is_finite()) {
        return unsupported("flow completion times are not finite; flow volumes are too large");
    }
    Response::FlowSummary {
        flows: flows.len(),
        makespan: outcome.makespan,
        mean_completion,
    }
}

fn handle_cluster_sim(
    topology: &TopologySpec,
    jobs: usize,
    max_nodes: usize,
    mean_gap: f64,
    gigabytes: f64,
    allocator: AllocatorSpec,
    exec: Exec,
) -> Response {
    if jobs == 0 || jobs > MAX_JOBS {
        return unsupported(format!("jobs must be in 1..={MAX_JOBS}"));
    }
    if !mean_gap.is_finite() || mean_gap <= 0.0 || !gigabytes.is_finite() || gigabytes <= 0.0 {
        return unsupported("mean_gap and gigabytes must be positive");
    }
    let (fabric, router) = match build_fabric(topology) {
        Ok(pair) => pair,
        Err(resp) => return *resp,
    };
    if let Err(message) = check_max_nodes(fabric.num_nodes(), max_nodes) {
        return unsupported(message);
    }
    let stream = netpart_engine::synthetic_job_stream(jobs, max_nodes, mean_gap, gigabytes);
    match simulate_cluster_with(&fabric, router, allocator.build(), &stream, exec) {
        Ok(metrics) => Response::ClusterSummary {
            fabric: metrics.fabric.clone(),
            allocator: metrics.allocator.clone(),
            jobs: metrics.outcomes.len(),
            makespan: metrics.makespan,
            mean_penalty: metrics.mean_penalty(),
            avoidable_fraction: metrics.avoidable_fraction(1.05),
            mean_wait: metrics.mean_wait(),
        },
        Err(e @ EngineError::NonFiniteTime { .. }) => unsupported(e.to_string()),
        Err(e) => Response::error(
            ErrorCode::Internal,
            format!("cluster simulation failed: {e}"),
        ),
    }
}

fn handle_policy_sim(
    machine: &str,
    jobs: usize,
    seed: u64,
    policy: PolicySpec,
    exec: Exec,
) -> Response {
    let Some(bgq) = machine_by_name(machine) else {
        return unsupported(format!("unknown machine '{machine}'"));
    };
    if jobs == 0 || jobs > MAX_JOBS {
        return unsupported(format!("jobs must be in 1..={MAX_JOBS}"));
    }
    let sched_policy = match policy.build() {
        Ok(policy) => policy,
        Err(message) => return unsupported(message),
    };
    let trace = generate_trace(&TraceConfig::default_for(&bgq, jobs, seed));
    let metrics = simulate_events_with(&bgq, sched_policy, &trace, exec);
    Response::PolicySummary {
        policy: sched_policy.label(),
        jobs: metrics.outcomes.len(),
        mean_wait: metrics.mean_wait(),
        mean_slowdown: metrics.mean_slowdown(),
        mean_contention_penalty: metrics.mean_contention_penalty(),
        optimal_geometry_fraction: metrics.optimal_geometry_fraction(),
    }
}

/// Fan a batch of scenarios out through the parallel sweep runner. Each
/// scenario succeeds or fails on its own; a bad spec never fails the batch.
fn handle_sweep(scenarios: &[ScenarioSpec], exec: Exec) -> Response {
    if scenarios.is_empty() {
        return unsupported("sweep needs at least one scenario");
    }
    if scenarios.len() > MAX_SWEEP {
        return unsupported(format!("more than {MAX_SWEEP} scenarios in one sweep"));
    }
    let results = run_sweep_with(scenarios, exec)
        .into_iter()
        .zip(scenarios)
        .map(|(result, spec)| match result {
            Ok(r) => SweepLine {
                label: r.label,
                makespan: r.makespan,
                units: r.units,
                solves: r.solves,
                error: None,
            },
            Err(e) => SweepLine {
                label: spec.label(),
                makespan: 0.0,
                units: 0,
                solves: 0,
                error: Some(e.to_string()),
            },
        })
        .collect();
    Response::SweepSummary { results }
}

/// Fabric-generic allocation advice: one advice spec, scored and ranked by
/// `netpart-scenario` (bounds + flow simulation on any topology family).
fn handle_advise_fabric(spec: &AdviceSpec, exec: Exec) -> Response {
    match netpart_scenario::run_advice_with(spec, exec) {
        Ok(result) => Response::FabricAdvice(result),
        Err(e) => unsupported(e.to_string()),
    }
}

/// Re-advise after a fabric delta: score the same advice question on the
/// patched fabric, carrying over every cached candidate score whose routes
/// avoid the patched channels. `base` is the server's cached
/// [`Request::AdviseFabric`] answer for the unpatched spec, when it has one;
/// `None` degrades to a full sweep on the patched fabric — same bytes,
/// no reuse.
pub fn handle_readvise(
    spec: &AdviceSpec,
    patch: &FabricPatch,
    base: Option<&AdviceResult>,
    exec: Exec,
) -> Response {
    match netpart_scenario::run_readvise_with(spec, patch, base, exec) {
        Ok(result) => Response::FabricAdvice(result),
        Err(e) => unsupported(e.to_string()),
    }
}

/// Fan a batch of advice specs out through the parallel advice runner. Each
/// spec succeeds or fails on its own; a bad spec never fails the batch.
fn handle_allocation_sweep(specs: &[AdviceSpec], exec: Exec) -> Response {
    if specs.is_empty() {
        return unsupported("allocation_sweep needs at least one spec");
    }
    if specs.len() > MAX_ALLOCATION_SWEEP {
        return unsupported(format!(
            "more than {MAX_ALLOCATION_SWEEP} specs in one allocation sweep"
        ));
    }
    let results = run_allocation_sweep_with(specs, exec)
        .into_iter()
        .zip(specs)
        .map(|(result, spec)| match result {
            Ok(r) => AdviceSweepLine {
                label: r.label.clone(),
                best_candidate: r.best().map(|c| c.label.clone()).unwrap_or_default(),
                candidates: r.candidates.len(),
                ordering_agreement: r.ordering_agreement,
                error: None,
            },
            Err(e) => AdviceSweepLine {
                label: spec.label(),
                best_candidate: String::new(),
                candidates: 0,
                ordering_agreement: 0.0,
                error: Some(e.to_string()),
            },
        })
        .collect();
    Response::AllocationSweepSummary { results }
}

/// Dispatch one cacheable request to its handler. Control-plane requests
/// (`Health`, `Stats`, `Shutdown`) are answered by the server itself, not
/// here; routing them to this function is a server bug surfaced as an
/// internal error rather than a panic.
pub fn handle(request: &Request) -> Response {
    handle_with(request, Exec::default())
}

/// [`handle`] under explicit execution choices (solver mode, queue core,
/// telemetry sink) for the simulation-backed handlers. The choices are
/// server-side, never on the wire: responses are byte-identical under all
/// of them (pinned by the service integration tests), so a cached response
/// is valid whatever it was computed under.
pub fn handle_with(request: &Request, exec: impl Into<Exec>) -> Response {
    let exec = exec.into();
    match request {
        Request::Advise {
            machine,
            size,
            kernel,
        } => handle_advise(machine, *size, kernel),
        Request::Bisection { topology, dims } => handle_bisection(topology, dims),
        Request::SimulateFlows { topology, flows } => handle_simulate_flows(topology, flows, exec),
        Request::ClusterSim {
            topology,
            jobs,
            max_nodes,
            mean_gap,
            gigabytes,
            allocator,
        } => handle_cluster_sim(
            topology, *jobs, *max_nodes, *mean_gap, *gigabytes, *allocator, exec,
        ),
        Request::PolicySim {
            machine,
            jobs,
            seed,
            policy,
        } => handle_policy_sim(machine, *jobs, *seed, *policy, exec),
        Request::Sweep { scenarios } => handle_sweep(scenarios, exec),
        Request::AdviseFabric { spec } => handle_advise_fabric(spec, exec),
        // Without server state there is no cached base to patch; the server's
        // dispatcher calls `handle_readvise` directly with its cache peek.
        Request::Readvise { spec, patch } => handle_readvise(spec, patch, None, exec),
        Request::AllocationSweep { specs } => handle_allocation_sweep(specs, exec),
        Request::Health | Request::Stats | Request::Shutdown => Response::error(
            ErrorCode::Internal,
            "control-plane request routed to the compute dispatcher",
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advise_matches_direct_library_call() {
        let resp = handle(&Request::Advise {
            machine: "mira".into(),
            size: 16,
            kernel: None,
        });
        match resp {
            Response::Advice {
                predicted_speedup,
                geometry_matters,
                regime,
                worst_links,
                best_links,
                ..
            } => {
                assert!((predicted_speedup - 2.0).abs() < 1e-9);
                assert!(geometry_matters);
                assert_eq!(regime, "contention_bound");
                assert_eq!(best_links, 2 * worst_links);
            }
            other => panic!("expected advice, got {other:?}"),
        }
    }

    #[test]
    fn unknown_machine_is_unsupported_not_panic() {
        let resp = handle(&Request::Advise {
            machine: "summit".into(),
            size: 4,
            kernel: None,
        });
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::Unsupported,
                ..
            }
        ));
    }

    #[test]
    fn bisection_families_agree_with_the_library() {
        let resp = handle(&Request::Bisection {
            topology: "torus".into(),
            dims: vec![8, 4, 4],
        });
        assert_eq!(
            resp,
            Response::Bisection {
                links: netpart_iso::torus_bisection_links(&[8, 4, 4]) as f64
            }
        );
        let resp = handle(&Request::Bisection {
            topology: "hypercube".into(),
            dims: vec![10],
        });
        assert_eq!(resp, Response::Bisection { links: 512.0 });
    }

    #[test]
    fn odd_torus_bisection_is_a_typed_error() {
        let resp = handle(&Request::Bisection {
            topology: "torus".into(),
            dims: vec![3, 5, 7],
        });
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::Unsupported,
                ..
            }
        ));
    }

    fn bisection(topology: &str, dims: Vec<usize>) -> Response {
        handle(&Request::Bisection {
            topology: topology.into(),
            dims,
        })
    }

    fn is_unsupported(resp: &Response) -> bool {
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::Unsupported,
                ..
            }
        )
    }

    #[test]
    fn bisection_link_counts_that_overflow_are_refused() {
        // 2^65 nodes wrap the node count and 2^63 BG/Q nodes wrap its `2·N`.
        // The hyperx `[2^31, 2^31]` has 2^62 nodes, but its cut
        // `⌊a/2⌋·⌈a/2⌉·(N/a)` is 2^91.
        for (topology, dims) in [
            ("torus", vec![1 << 32, 1 << 32, 2]),
            ("bgq", vec![1 << 32, 1 << 32, 2]),
            ("bgq", vec![1 << 31, 1 << 31, 2]),
            ("hyperx", vec![1 << 32, 1 << 32, 3]),
            ("hyperx", vec![1 << 31, 1 << 31]),
        ] {
            let resp = bisection(topology, dims.clone());
            assert!(is_unsupported(&resp), "{topology} {dims:?}: {resp:?}");
        }
        // Just inside: 2^63 torus nodes, and 2^62 BG/Q nodes whose `2·N` fits.
        assert_eq!(
            bisection("torus", vec![1 << 31, 1 << 31, 2]),
            Response::Bisection {
                links: (1u64 << 33) as f64
            }
        );
        assert_eq!(
            bisection("bgq", vec![1 << 30, 1 << 31, 2]),
            Response::Bisection {
                links: (1u64 << 32) as f64
            }
        );
    }

    #[test]
    fn dragonfly_bisection_stays_within_the_fabric_budgets() {
        assert_eq!(
            bisection("dragonfly", vec![170, 4]),
            Response::Bisection { links: 124_248.0 }
        );
        // 171 groups hold 16,416 routers (> 2^14); 170 groups' 16,320
        // routers with 65 global ports each make 1,060,800 ports (> 2^20).
        for dims in [
            vec![171, 4],
            vec![170, 65],
            vec![usize::MAX, 1],
            vec![2, usize::MAX],
        ] {
            let resp = bisection("dragonfly", dims.clone());
            assert!(is_unsupported(&resp), "{dims:?}: {resp:?}");
        }
    }

    #[test]
    fn simulate_flows_runs_a_small_shuffle() {
        let flows: Vec<FlowSpec> = (0..16)
            .map(|src| FlowSpec {
                src,
                dst: (src + 9) % 16,
                gigabytes: 0.5,
            })
            .collect();
        let resp = handle(&Request::SimulateFlows {
            topology: TopologySpec::Torus(vec![4, 4]),
            flows,
        });
        match resp {
            Response::FlowSummary {
                flows, makespan, ..
            } => {
                assert_eq!(flows, 16);
                assert!(makespan > 0.0);
            }
            other => panic!("expected flow summary, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_flow_is_rejected() {
        let resp = handle(&Request::SimulateFlows {
            topology: TopologySpec::Torus(vec![2, 2]),
            flows: vec![FlowSpec {
                src: 0,
                dst: 99,
                gigabytes: 1.0,
            }],
        });
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::Unsupported,
                ..
            }
        ));
    }

    #[test]
    fn cluster_sim_scatter_pays_at_least_compact_penalty() {
        let run = |allocator| match handle(&Request::ClusterSim {
            topology: TopologySpec::Torus(vec![4, 4, 4]),
            jobs: 12,
            max_nodes: 8,
            mean_gap: 40.0,
            gigabytes: 0.25,
            allocator,
        }) {
            Response::ClusterSummary { mean_penalty, .. } => mean_penalty,
            other => panic!("expected cluster summary, got {other:?}"),
        };
        let compact = run(AllocatorSpec::Compact);
        let scatter = run(AllocatorSpec::Scatter(7));
        assert!(compact >= 1.0 && scatter >= 1.0);
        assert!(
            scatter >= compact - 1e-9,
            "scatter ({scatter}) should not beat compact ({compact})"
        );
    }

    #[test]
    fn cluster_sim_beyond_the_penalty_flow_budget_is_refused() {
        let run = |dims: Vec<usize>, max_nodes| {
            handle(&Request::ClusterSim {
                topology: TopologySpec::Torus(dims),
                jobs: 1,
                max_nodes,
                mean_gap: 40.0,
                gigabytes: 0.25,
                allocator: AllocatorSpec::Compact,
            })
        };
        let refused = |resp: Response| {
            matches!(
                resp,
                Response::Error {
                    code: ErrorCode::Unsupported,
                    ..
                }
            )
        };
        // 16,384 nodes, jobs of up to all of them: the first job's exchange
        // alone is 120.9M flows, refused before any is built.
        assert!(refused(run(vec![32, 32, 16], 16_384)));
        // The bound is inclusive: 4,096 nodes · 16 = MAX_FLOWS.
        assert!(matches!(
            run(vec![16, 16, 16], 17),
            Response::ClusterSummary { jobs: 1, .. }
        ));
        assert!(refused(run(vec![16, 16, 16], 18)));
    }

    #[test]
    fn policy_sim_best_beats_worst_on_contention_penalty() {
        let run = |policy| match handle(&Request::PolicySim {
            machine: "mira".into(),
            jobs: 40,
            seed: 7,
            policy,
        }) {
            Response::PolicySummary {
                mean_contention_penalty,
                ..
            } => mean_contention_penalty,
            other => panic!("expected policy summary, got {other:?}"),
        };
        let worst = run(PolicySpec::Worst);
        let best = run(PolicySpec::Best);
        assert!(
            best <= worst + 1e-9,
            "best policy penalty {best} should not exceed worst {worst}"
        );
    }

    #[test]
    fn sweep_mixes_successes_and_per_scenario_failures() {
        use crate::protocol::{RoutingSpec, TrafficSpec};
        let scenarios = vec![
            ScenarioSpec {
                topology: TopologySpec::Torus(vec![4, 4]),
                routing: RoutingSpec::DimensionOrdered,
                traffic: TrafficSpec::BisectionPairing {
                    rounds: 6,
                    warmup_rounds: 2,
                    round_gigabytes: 0.5,
                },
                seed: 1,
            },
            // Invalid: dimension-ordered routing off a torus.
            ScenarioSpec {
                topology: TopologySpec::Hypercube(4),
                routing: RoutingSpec::DimensionOrdered,
                traffic: TrafficSpec::AllToAll { gigabytes: 0.5 },
                seed: 1,
            },
        ];
        match handle(&Request::Sweep { scenarios }) {
            Response::SweepSummary { results } => {
                assert_eq!(results.len(), 2);
                assert!(results[0].is_ok(), "{:?}", results[0]);
                assert!(results[0].makespan > 0.0);
                assert!(!results[1].is_ok());
            }
            other => panic!("expected sweep summary, got {other:?}"),
        }
        // Empty and oversized batches are refused outright.
        assert!(matches!(
            handle(&Request::Sweep { scenarios: vec![] }),
            Response::Error {
                code: ErrorCode::Unsupported,
                ..
            }
        ));
    }

    #[test]
    fn standard_sweep_is_all_ok_through_the_handler() {
        // The CI smoke contract: every scenario of the standard >= 24-combo
        // sweep must come back Ok.
        let scenarios = netpart_scenario::standard_sweep();
        assert!(scenarios.len() >= 24);
        match handle(&Request::Sweep { scenarios }) {
            Response::SweepSummary { results } => {
                for line in &results {
                    assert!(line.is_ok(), "scenario failed: {line:?}");
                }
            }
            other => panic!("expected sweep summary, got {other:?}"),
        }
    }

    #[test]
    fn oversized_fabric_is_refused() {
        let refused = |topology: TopologySpec| {
            let resp = handle(&Request::SimulateFlows {
                topology,
                flows: vec![],
            });
            matches!(
                resp,
                Response::Error {
                    code: ErrorCode::Unsupported,
                    ..
                }
            )
        };
        assert!(refused(TopologySpec::Torus(vec![1024, 1024])));
        // Overflow-crafted: 274177 * 67280421310721 * 1 == 2^64 + 1, which
        // wraps to 1 node under unchecked multiplication.
        assert!(refused(TopologySpec::Dragonfly(
            274_177,
            67_280_421_310_721,
            1
        )));
        // Within the node budget but quadratically many channels (complete
        // graph): must trip the channel budget.
        assert!(refused(TopologySpec::HyperX(vec![16_000])));
        // Nearby legitimate shapes still build.
        assert!(!refused(TopologySpec::HyperX(vec![8, 8])));
        assert!(!refused(TopologySpec::Dragonfly(4, 4, 4)));
    }

    #[test]
    fn answers_json_cannot_carry_are_refused() {
        // Each request is within budget, but its answer overflows to a
        // non-finite number, which the JSON writer could only send as null.
        use crate::protocol::{AllocationSpec, RoutingSpec, ScenarioSpec, TrafficSpec};
        let torus = TopologySpec::Torus(vec![4, 4]);
        let spec = AdviceSpec {
            topology: torus.clone(),
            routing: RoutingSpec::ShortestPath,
            nodes: 8,
            gigabytes: 1e308,
            candidates: vec![AllocationSpec::Blocked, AllocationSpec::Greedy],
            seed: 0,
        };
        let requests = [
            Request::Advise {
                machine: "mira".into(),
                size: 16,
                kernel: Some(KernelSpec::Custom(1e308, 1e308)),
            },
            Request::SimulateFlows {
                topology: torus.clone(),
                flows: (0..4)
                    .map(|src| FlowSpec {
                        src,
                        dst: 15 - src,
                        gigabytes: 1e308,
                    })
                    .collect(),
            },
            Request::AdviseFabric { spec: spec.clone() },
            Request::Readvise {
                spec: spec.clone(),
                patch: FabricPatch::default(),
            },
        ];
        for request in &requests {
            let reply = Response::decode(&handle(request).encode());
            assert!(
                matches!(
                    reply,
                    Ok(Response::Error {
                        code: ErrorCode::Unsupported,
                        ..
                    })
                ),
                "{request:?}: {reply:?}"
            );
        }
        let sweep = handle(&Request::AllocationSweep { specs: vec![spec] });
        match Response::decode(&sweep.encode()) {
            Ok(Response::AllocationSweepSummary { results }) => {
                assert!(results.iter().all(|line| !line.is_ok()), "{results:?}");
            }
            other => panic!("expected an allocation-sweep summary, got {other:?}"),
        }
        // Each round's makespan is finite; scaled by 2^53 measured rounds
        // it is not.
        let pairing = ScenarioSpec {
            topology: torus,
            routing: RoutingSpec::ShortestPath,
            traffic: TrafficSpec::BisectionPairing {
                rounds: 1 << 53,
                warmup_rounds: 0,
                round_gigabytes: 1e300,
            },
            seed: 0,
        };
        let sweep = handle(&Request::Sweep {
            scenarios: vec![pairing],
        });
        match Response::decode(&sweep.encode()) {
            Ok(Response::SweepSummary { results }) => {
                assert!(results.iter().all(|line| !line.is_ok()), "{results:?}");
            }
            other => panic!("expected a sweep summary, got {other:?}"),
        }
    }

    #[test]
    fn runs_whose_times_would_overflow_are_refused_before_simulating() {
        // Each request is within budget, but a simulated time would
        // overflow f64 before the run could finish (an arrival, an
        // exchange or a completion round). The engine used to panic on
        // these, which the server answered as `internal`.
        use crate::protocol::{AllocationSpec, RoutingSpec, ScenarioSpec, TrafficSpec};
        let cube = TopologySpec::Torus(vec![4, 4, 4]);
        let cluster = |mean_gap, gigabytes| Request::ClusterSim {
            topology: cube.clone(),
            jobs: 16,
            max_nodes: 8,
            mean_gap,
            gigabytes,
            allocator: AllocatorSpec::Compact,
        };
        // Five copies of one flow share its channel at 0.4 GB/s each.
        let shared = Request::SimulateFlows {
            topology: TopologySpec::Torus(vec![4, 4]),
            flows: vec![
                FlowSpec {
                    src: 0,
                    dst: 1,
                    gigabytes: 1e308,
                };
                5
            ],
        };
        // A 12-node all-to-all at 1e308 GB per pair: each candidate's
        // exchange would overflow the clock while it runs.
        let advice = AdviceSpec {
            topology: TopologySpec::Torus(vec![4, 4]),
            routing: RoutingSpec::ShortestPath,
            nodes: 12,
            gigabytes: 1e308,
            candidates: vec![
                AllocationSpec::Blocked,
                AllocationSpec::Greedy,
                AllocationSpec::Scatter { stride: 3 },
            ],
            seed: 0,
        };
        let requests = [
            cluster(1e308, 1.0),
            cluster(40.0, 1e308),
            shared,
            Request::AdviseFabric {
                spec: advice.clone(),
            },
            Request::Readvise {
                spec: advice.clone(),
                patch: FabricPatch::default(),
            },
        ];
        for request in requests {
            let reply = Response::decode(&handle(&request).encode());
            assert!(
                matches!(
                    reply,
                    Ok(Response::Error {
                        code: ErrorCode::Unsupported,
                        ..
                    })
                ),
                "{request:?}: {reply:?}"
            );
        }
        let scenarios = vec![
            ScenarioSpec {
                topology: cube,
                routing: RoutingSpec::ShortestPath,
                traffic: TrafficSpec::JobTrace {
                    jobs: 16,
                    max_nodes: 8,
                    mean_gap: 40.0,
                    gigabytes: 1e308,
                    allocator: AllocatorSpec::Compact,
                },
                seed: 0,
            },
            ScenarioSpec {
                topology: TopologySpec::Torus(vec![4, 4]),
                routing: RoutingSpec::DimensionOrdered,
                traffic: TrafficSpec::AllToAll { gigabytes: 1e308 },
                seed: 0,
            },
        ];
        let sweep = handle(&Request::Sweep { scenarios });
        match Response::decode(&sweep.encode()) {
            Ok(Response::SweepSummary { results }) => {
                assert_eq!(results.len(), 2);
                assert!(results.iter().all(|line| !line.is_ok()), "{results:?}");
            }
            other => panic!("expected a sweep summary, got {other:?}"),
        }
        let sweep = handle(&Request::AllocationSweep {
            specs: vec![advice],
        });
        match Response::decode(&sweep.encode()) {
            Ok(Response::AllocationSweepSummary { results }) => {
                assert_eq!(results.len(), 1);
                assert!(results.iter().all(|line| !line.is_ok()), "{results:?}");
            }
            other => panic!("expected an allocation-sweep summary, got {other:?}"),
        }
    }

    #[test]
    fn unroutable_requests_name_the_first_failing_pair() {
        // A circulant with the single skip 2 splits into even and odd
        // nodes, so pairs across the split have no path. Each reply names
        // the first pair, in the order the request lists its flows, that
        // fails to route, whichever router runs.
        use crate::protocol::{AllocationSpec, RoutingSpec, ScenarioSpec, TrafficSpec};
        let split = TopologySpec::Expander(40, vec![2]);
        let advise = |routing, candidates| {
            handle(&Request::AdviseFabric {
                spec: AdviceSpec {
                    topology: split.clone(),
                    routing,
                    nodes: 16,
                    gigabytes: 0.25,
                    candidates,
                    seed: 3,
                },
            })
            .encode()
        };
        let unreachable = |src, dst| {
            format!(
                r#"{{"code":"unsupported","message":"engine: no path from node {src} to node {dst}","type":"error"}}"#
            )
        };
        let random = AllocationSpec::Random { samples: 4 };
        assert_eq!(
            advise(RoutingSpec::ShortestPath, vec![AllocationSpec::Blocked]),
            unreachable(0, 1)
        );
        assert_eq!(
            advise(RoutingSpec::ShortestPath, vec![random]),
            unreachable(1, 4)
        );
        assert_eq!(
            advise(RoutingSpec::Ecmp { salt: 1 }, vec![random]),
            unreachable(1, 4)
        );
        let scenario = |routing, traffic| ScenarioSpec {
            topology: split.clone(),
            routing,
            traffic,
            seed: 3,
        };
        let scenarios = vec![
            scenario(
                RoutingSpec::ShortestPath,
                TrafficSpec::AllToAll { gigabytes: 1.0 },
            ),
            scenario(
                RoutingSpec::Valiant { seed: 3 },
                TrafficSpec::RandomPermutation { gigabytes: 1.0 },
            ),
        ];
        match handle(&Request::Sweep { scenarios }) {
            Response::SweepSummary { results } => {
                let errors: Vec<_> = results.iter().map(|line| line.error.as_deref()).collect();
                assert_eq!(
                    errors,
                    [
                        Some("engine: no path from node 0 to node 1"),
                        Some("engine: no path from node 0 to node 21"),
                    ]
                );
            }
            other => panic!("expected a sweep summary, got {other:?}"),
        }
    }
}

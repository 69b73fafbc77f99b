//! Executing scenario specs: one entry point, canonical results, and a
//! rayon-parallel sweep runner.

use crate::spec::{
    build_fabric, check_max_nodes, machine_by_name, FabricError, PolicySpec, RoutingSpec,
    ScenarioSpec, TrafficSpec, MAX_FLOWS, MAX_JOBS,
};
use netpart_engine::{
    pairing_flows, simulate_cluster_with, simulate_flows_with, EngineError, Exec, Fabric, Flow,
    Router, TelemetryEvent,
};
use netpart_sched::{generate_trace, simulate_events_with, TraceConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;

/// Why a scenario could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The fabric could not be built (budget or shape).
    Fabric(FabricError),
    /// The spec combination is invalid (e.g. dimension-ordered routing on a
    /// non-torus fabric, zero jobs, non-finite volumes).
    InvalidSpec(String),
    /// The engine failed while simulating.
    Engine(EngineError),
    /// A scheduler trace named a machine the workspace does not model.
    UnknownMachine(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Fabric(e) => write!(f, "fabric: {e}"),
            ScenarioError::InvalidSpec(m) => write!(f, "invalid spec: {m}"),
            ScenarioError::Engine(e) => write!(f, "engine: {e}"),
            ScenarioError::UnknownMachine(m) => write!(
                f,
                "unknown machine '{m}' (expected mira, juqueen, juqueen_48, juqueen_54 or sequoia)"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<FabricError> for ScenarioError {
    fn from(e: FabricError) -> Self {
        ScenarioError::Fabric(e)
    }
}

impl From<EngineError> for ScenarioError {
    fn from(e: EngineError) -> Self {
        ScenarioError::Engine(e)
    }
}

fn invalid(message: impl Into<String>) -> ScenarioError {
    ScenarioError::InvalidSpec(message.into())
}

/// Pattern-specific detail of a [`ScenarioResult`].
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioDetail {
    /// A static flow pattern run to completion.
    Flows {
        /// `max_channel load / bandwidth`: the best any schedule could do.
        bottleneck_lower_bound: f64,
        /// Total volume moved (GB), all flows.
        total_gigabytes: f64,
    },
    /// A dynamic job stream (cluster scenario).
    Cluster {
        /// Mean contention penalty (1.0 = nothing avoidable).
        mean_penalty: f64,
        /// Fraction of jobs with penalty above 1.05.
        avoidable_fraction: f64,
        /// Mean queue wait (seconds).
        mean_wait: f64,
    },
    /// A Blue Gene/Q scheduler-policy replay.
    Scheduler {
        /// Policy label.
        policy: String,
        /// Mean queue wait (seconds).
        mean_wait: f64,
        /// Mean bounded slowdown.
        mean_slowdown: f64,
        /// Mean contention penalty.
        mean_contention_penalty: f64,
        /// Fraction of jobs that received an optimal geometry.
        optimal_geometry_fraction: f64,
        /// Machine utilization over the makespan.
        utilization: f64,
    },
}

/// Canonical outcome of one scenario, whatever its traffic pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// The spec's canonical label.
    pub label: String,
    /// Fabric name (empty for machine-defined scheduler traces).
    pub fabric: String,
    /// Nodes simulated.
    pub nodes: usize,
    /// Directed channels of the fabric (0 for scheduler traces).
    pub channels: usize,
    /// Flows or jobs simulated.
    pub units: usize,
    /// Completion time of the last flow/job (seconds; for bisection pairing
    /// this is the measured-rounds total, as the paper reports it).
    pub makespan: f64,
    /// Mean flow/job completion time (seconds), scaled like `makespan`.
    pub mean_completion: f64,
    /// Max–min rate solves (fluid completion rounds) the run needed.
    pub solves: usize,
    /// Pattern-specific detail.
    pub detail: ScenarioDetail,
}

/// All ordered pairs of distinct nodes. The budget is checked *before* the
/// vector is materialized: an in-budget fabric can still have quadratically
/// more ordered pairs than [`MAX_FLOWS`], and allocating them first would
/// let one request balloon to gigabytes before the rejection.
fn all_to_all_flows(fabric: &Fabric, gigabytes: f64) -> Result<Vec<Flow>, ScenarioError> {
    let n = fabric.num_nodes();
    let count = n.saturating_mul(n.saturating_sub(1));
    if count > MAX_FLOWS {
        return Err(invalid(format!(
            "all-to-all on {n} nodes is {count} flows, exceeding the per-scenario \
             budget of {MAX_FLOWS}"
        )));
    }
    let mut flows = Vec::with_capacity(count);
    for src in 0..n {
        for dst in 0..n {
            if src != dst {
                flows.push(Flow {
                    src,
                    dst,
                    gigabytes,
                });
            }
        }
    }
    Ok(flows)
}

fn permutation_flows(fabric: &Fabric, gigabytes: f64, seed: u64) -> Vec<Flow> {
    let mut destinations: Vec<usize> = (0..fabric.num_nodes()).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    destinations.shuffle(&mut rng);
    destinations
        .into_iter()
        .enumerate()
        .map(|(src, dst)| Flow {
            src,
            dst,
            gigabytes,
        })
        .collect()
}

/// Simulate a flow set to completion ([`simulate_flows_with`]) and render
/// it as a scenario result, scaling times by `scale` (1 for single-shot
/// patterns, the measured-round count for the pairing benchmark). A volume
/// or round count so large that a time overflows is refused: JSON cannot
/// carry a non-finite number, so no client could read that answer.
fn run_flow_pattern(
    spec: &ScenarioSpec,
    fabric: &Fabric,
    router: &dyn Router,
    flows: Vec<Flow>,
    scale: f64,
    exec: Exec,
) -> Result<ScenarioResult, ScenarioError> {
    if flows.len() > MAX_FLOWS {
        return Err(invalid(format!(
            "{} flows exceed the per-scenario budget of {MAX_FLOWS}",
            flows.len()
        )));
    }
    if flows
        .iter()
        .any(|f| !f.gigabytes.is_finite() || f.gigabytes < 0.0)
    {
        return Err(invalid("flow volumes must be finite and non-negative"));
    }
    let outcome = simulate_flows_with(fabric, router, &flows, exec)?;
    let makespan = outcome.makespan * scale;
    let mean_completion = outcome.mean_completion() * scale;
    if !(makespan.is_finite() && mean_completion.is_finite()) {
        return Err(invalid(
            "completion times are not finite; the volume is too large for this fabric",
        ));
    }
    Ok(ScenarioResult {
        label: spec.label(),
        fabric: fabric.name().to_string(),
        nodes: fabric.num_nodes(),
        channels: fabric.num_channels(),
        units: flows.len(),
        makespan,
        mean_completion,
        solves: outcome.rounds,
        detail: ScenarioDetail::Flows {
            bottleneck_lower_bound: outcome.bottleneck_lower_bound * scale,
            total_gigabytes: flows.iter().map(|f| f.gigabytes).sum::<f64>() * scale,
        },
    })
}

/// Mean of `completions` (0 for an empty set) — the job-outcome summary
/// shared by the cluster and scheduler arms.
fn mean_of(completions: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = completions.len();
    if n == 0 {
        0.0
    } else {
        completions.sum::<f64>() / n as f64
    }
}

/// Run one scenario to completion.
pub fn run_scenario(spec: &ScenarioSpec) -> Result<ScenarioResult, ScenarioError> {
    run_scenario_with(spec, Exec::default())
}

/// [`run_scenario`] under explicit execution choices: every fluid
/// simulation the scenario builds runs `exec.solver`, every event loop runs
/// on `exec.queue`, and both emit their spans and events (per-round,
/// per-repair, engine-progress) through `exec.telemetry`. No choice changes
/// the result.
pub fn run_scenario_with(
    spec: &ScenarioSpec,
    exec: impl Into<Exec>,
) -> Result<ScenarioResult, ScenarioError> {
    let exec = exec.into();
    // Scheduler traces are machine-defined: no fabric to build.
    if let TrafficSpec::SchedulerTrace {
        machine,
        jobs,
        policy,
    } = &spec.traffic
    {
        return run_scheduler_trace(spec, machine, *jobs, *policy, exec);
    }

    let fabric = build_fabric(&spec.topology)?;
    if matches!(spec.routing, RoutingSpec::DimensionOrdered) && fabric.torus().is_none() {
        return Err(invalid(format!(
            "dimension-ordered routing needs a torus fabric, got {}",
            fabric.name()
        )));
    }
    let router = spec.routing.build();

    match &spec.traffic {
        TrafficSpec::BisectionPairing {
            rounds,
            warmup_rounds,
            round_gigabytes,
        } => {
            if warmup_rounds >= rounds {
                return Err(invalid("warmup_rounds must be below rounds"));
            }
            if !round_gigabytes.is_finite() || *round_gigabytes <= 0.0 {
                return Err(invalid("round_gigabytes must be positive"));
            }
            let flows = pairing_flows(&fabric, *round_gigabytes);
            let measured = (rounds - warmup_rounds) as f64;
            run_flow_pattern(spec, &fabric, router.as_ref(), flows, measured, exec)
        }
        TrafficSpec::AllToAll { gigabytes } => {
            let flows = all_to_all_flows(&fabric, *gigabytes)?;
            run_flow_pattern(spec, &fabric, router.as_ref(), flows, 1.0, exec)
        }
        TrafficSpec::RandomPermutation { gigabytes } => {
            let flows = permutation_flows(&fabric, *gigabytes, spec.seed);
            run_flow_pattern(spec, &fabric, router.as_ref(), flows, 1.0, exec)
        }
        TrafficSpec::JobTrace {
            jobs,
            max_nodes,
            mean_gap,
            gigabytes,
            allocator,
        } => {
            if *jobs == 0 || *jobs > MAX_JOBS {
                return Err(invalid(format!("jobs must be in 1..={MAX_JOBS}")));
            }
            if !mean_gap.is_finite()
                || *mean_gap <= 0.0
                || !gigabytes.is_finite()
                || *gigabytes <= 0.0
            {
                return Err(invalid("mean_gap and gigabytes must be positive"));
            }
            check_max_nodes(fabric.num_nodes(), *max_nodes).map_err(invalid)?;
            let stream =
                netpart_engine::synthetic_job_stream(*jobs, *max_nodes, *mean_gap, *gigabytes);
            let metrics = simulate_cluster_with(&fabric, router, allocator.build(), &stream, exec)?;
            let mean_completion = mean_of(metrics.outcomes.iter().map(|o| o.completion));
            Ok(ScenarioResult {
                label: spec.label(),
                fabric: metrics.fabric.clone(),
                nodes: fabric.num_nodes(),
                channels: fabric.num_channels(),
                units: metrics.outcomes.len(),
                makespan: metrics.makespan,
                mean_completion,
                // One fluid run per started job; each run's internal round
                // count is not surfaced by the cluster metrics.
                solves: metrics.outcomes.len(),
                detail: ScenarioDetail::Cluster {
                    mean_penalty: metrics.mean_penalty(),
                    avoidable_fraction: metrics.avoidable_fraction(1.05),
                    mean_wait: metrics.mean_wait(),
                },
            })
        }
        TrafficSpec::SchedulerTrace { .. } => unreachable!("handled above"),
    }
}

fn run_scheduler_trace(
    spec: &ScenarioSpec,
    machine: &str,
    jobs: usize,
    policy: PolicySpec,
    exec: Exec,
) -> Result<ScenarioResult, ScenarioError> {
    let Some(bgq) = machine_by_name(machine) else {
        return Err(ScenarioError::UnknownMachine(machine.to_string()));
    };
    if jobs == 0 || jobs > MAX_JOBS {
        return Err(invalid(format!("jobs must be in 1..={MAX_JOBS}")));
    }
    let sched_policy = policy.build().map_err(invalid)?;
    let trace = generate_trace(&TraceConfig::default_for(&bgq, jobs, spec.seed));
    let metrics = simulate_events_with(&bgq, sched_policy, &trace, exec);
    let mean_completion = mean_of(metrics.outcomes.iter().map(|o| o.completion));
    Ok(ScenarioResult {
        label: spec.label(),
        fabric: format!("bgq:{machine}"),
        nodes: bgq.num_midplanes(),
        channels: 0,
        units: metrics.outcomes.len(),
        makespan: metrics.makespan,
        mean_completion,
        solves: 0,
        detail: ScenarioDetail::Scheduler {
            policy: metrics.policy.clone(),
            mean_wait: metrics.mean_wait(),
            mean_slowdown: metrics.mean_slowdown(),
            mean_contention_penalty: metrics.mean_contention_penalty(),
            optimal_geometry_fraction: metrics.optimal_geometry_fraction(),
            utilization: metrics.utilization,
        },
    })
}

/// Run a batch of scenarios in parallel (rayon), preserving input order.
/// Each scenario succeeds or fails independently — a bad spec never aborts
/// the sweep.
pub fn run_sweep(specs: &[ScenarioSpec]) -> Vec<Result<ScenarioResult, ScenarioError>> {
    run_sweep_with(specs, Exec::default())
}

/// [`run_sweep`] under explicit execution choices: every scenario runs
/// as [`run_scenario_with`] runs it, and `exec.telemetry` receives one
/// [`TelemetryEvent::SweepSpecDone`] per spec (index, success, wall-clock
/// microseconds). The handle is shared across rayon workers — the ring
/// write path is wait-free.
pub fn run_sweep_with(
    specs: &[ScenarioSpec],
    exec: impl Into<Exec>,
) -> Vec<Result<ScenarioResult, ScenarioError>> {
    let exec = exec.into();
    let telemetry = &exec.telemetry;
    (0..specs.len())
        .into_par_iter()
        .map(|idx| {
            let started = std::time::Instant::now();
            // One causal span per spec; the scenario's own phase spans
            // (route, csr_build, fluid_solve, …) nest under it.
            let span = telemetry.span("spec");
            let result = run_scenario_with(&specs[idx], exec.with_telemetry(span.telemetry()));
            drop(span);
            telemetry.emit(TelemetryEvent::SweepSpecDone {
                spec_idx: idx as u64,
                ok: result.is_ok(),
                micros: started.elapsed().as_micros() as u64,
            });
            result
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AllocatorSpec, TopologySpec};
    use netpart_engine::Telemetry;

    fn pairing_spec(topology: TopologySpec, routing: RoutingSpec) -> ScenarioSpec {
        ScenarioSpec {
            topology,
            routing,
            traffic: TrafficSpec::paper_pairing(),
            seed: 1,
        }
    }

    #[test]
    fn pairing_on_a_torus_matches_the_paper_scaling() {
        // The headline claim: the proposed 4-midplane geometry halves the
        // pairing time of the current one (node-granularity scale-down).
        let current = run_scenario(&pairing_spec(
            TopologySpec::Torus(vec![16, 4, 4, 4, 2]),
            RoutingSpec::DimensionOrdered,
        ))
        .unwrap();
        let proposed = run_scenario(&pairing_spec(
            TopologySpec::Torus(vec![8, 8, 4, 4, 2]),
            RoutingSpec::DimensionOrdered,
        ))
        .unwrap();
        let ratio = current.makespan / proposed.makespan;
        assert!((ratio - 2.0).abs() < 0.15, "expected ~2x, got {ratio}");
        assert!(current.solves >= 1);
    }

    #[test]
    fn every_traffic_pattern_runs_on_a_small_fabric() {
        let traffics = [
            TrafficSpec::paper_pairing(),
            TrafficSpec::AllToAll { gigabytes: 0.25 },
            TrafficSpec::RandomPermutation { gigabytes: 0.5 },
            TrafficSpec::JobTrace {
                jobs: 8,
                max_nodes: 8,
                mean_gap: 60.0,
                gigabytes: 0.25,
                allocator: AllocatorSpec::Compact,
            },
        ];
        for traffic in traffics {
            let spec = ScenarioSpec {
                topology: TopologySpec::Hypercube(5),
                routing: RoutingSpec::ShortestPath,
                traffic,
                seed: 3,
            };
            let result = run_scenario(&spec).unwrap_or_else(|e| panic!("{}: {e}", spec.label()));
            assert!(result.makespan > 0.0, "{}", result.label);
            assert!(result.units > 0);
        }
    }

    #[test]
    fn scheduler_trace_runs_without_a_fabric() {
        let spec = ScenarioSpec {
            topology: TopologySpec::Torus(vec![16, 16, 12, 8, 2]),
            routing: RoutingSpec::DimensionOrdered,
            traffic: TrafficSpec::SchedulerTrace {
                machine: "mira".into(),
                jobs: 20,
                policy: PolicySpec::Best,
            },
            seed: 5,
        };
        let result = run_scenario(&spec).unwrap();
        assert_eq!(result.units, 20);
        assert!(matches!(result.detail, ScenarioDetail::Scheduler { .. }));
    }

    #[test]
    fn job_traces_whose_penalties_exceed_the_flow_budget_are_rejected() {
        let job_trace = |dims: Vec<usize>, max_nodes| ScenarioSpec {
            topology: TopologySpec::Torus(dims),
            routing: RoutingSpec::DimensionOrdered,
            traffic: TrafficSpec::JobTrace {
                jobs: 1,
                max_nodes,
                mean_gap: 60.0,
                gigabytes: 0.25,
                allocator: AllocatorSpec::Compact,
            },
            seed: 1,
        };
        // An in-budget fabric whose first job alone would hold 10,995
        // nodes: 120.9M flows, refused before any is built.
        assert!(matches!(
            run_scenario(&job_trace(vec![32, 32, 16], 16_384)),
            Err(ScenarioError::InvalidSpec(_))
        ));
        // The bound is inclusive: 4,096 nodes · 16 = MAX_FLOWS.
        assert!(run_scenario(&job_trace(vec![16, 16, 16], 17)).is_ok());
        assert!(matches!(
            run_scenario(&job_trace(vec![16, 16, 16], 18)),
            Err(ScenarioError::InvalidSpec(_))
        ));
    }

    #[test]
    fn invalid_combinations_fail_without_aborting_a_sweep() {
        let bad_routing = ScenarioSpec {
            topology: TopologySpec::Hypercube(4),
            routing: RoutingSpec::DimensionOrdered,
            traffic: TrafficSpec::AllToAll { gigabytes: 1.0 },
            seed: 0,
        };
        let good = pairing_spec(
            TopologySpec::Torus(vec![4, 4]),
            RoutingSpec::DimensionOrdered,
        );
        let results = run_sweep(&[bad_routing, good]);
        assert!(matches!(results[0], Err(ScenarioError::InvalidSpec(_))));
        assert!(results[1].is_ok());
    }

    #[test]
    fn observed_sweep_emits_one_done_event_per_spec() {
        use netpart_telemetry::{ReadOutcome, RingReader};

        let ring = std::env::temp_dir().join(format!(
            "netpart-sweep-observed-{}.ring",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&ring);
        let telemetry = Telemetry::to_ring(&ring, 4096).unwrap();
        let bad = ScenarioSpec {
            topology: TopologySpec::Hypercube(4),
            routing: RoutingSpec::DimensionOrdered,
            traffic: TrafficSpec::AllToAll { gigabytes: 1.0 },
            seed: 0,
        };
        let good = pairing_spec(
            TopologySpec::Torus(vec![4, 4]),
            RoutingSpec::DimensionOrdered,
        );
        let results = run_sweep_with(
            &[bad, good],
            Exec {
                telemetry,
                ..Exec::default()
            },
        );
        assert!(results[0].is_err() && results[1].is_ok());

        let reader = RingReader::open(&ring).unwrap();
        let mut done = Vec::new();
        let mut rounds = 0usize;
        for seq in 0..reader.cursor() {
            let ReadOutcome::Record(words) = reader.read(seq) else {
                panic!("record {seq} should be readable");
            };
            match TelemetryEvent::decode(&words).unwrap().1 {
                TelemetryEvent::SweepSpecDone {
                    spec_idx,
                    ok,
                    micros: _,
                } => done.push((spec_idx, ok)),
                TelemetryEvent::SolverRound { .. } => rounds += 1,
                _ => {}
            }
        }
        done.sort_unstable();
        assert_eq!(done, vec![(0, false), (1, true)]);
        assert!(rounds >= 1, "the good spec's fluid rounds must be observed");
        std::fs::remove_file(&ring).unwrap();
    }

    #[test]
    fn permutations_are_seed_deterministic() {
        let spec = |seed| ScenarioSpec {
            topology: TopologySpec::SlimFly(5),
            routing: RoutingSpec::Ecmp { salt: 2 },
            traffic: TrafficSpec::RandomPermutation { gigabytes: 0.5 },
            seed,
        };
        let a = run_scenario(&spec(9)).unwrap();
        let b = run_scenario(&spec(9)).unwrap();
        let c = run_scenario(&spec(10)).unwrap();
        assert_eq!(a, b, "same seed, same result");
        assert!(a.makespan > 0.0 && c.makespan > 0.0);
    }
}

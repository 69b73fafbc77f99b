//! Parity regression guards for the engine consolidation.
//!
//! The scheduler replay and the torus flow experiments run on the engine
//! event loop and fabric. These tests pin them to the pre-consolidation
//! semantics:
//!
//! * [`reference_simulate`] is a verbatim copy of the legacy FCFS replay
//!   loop (the deleted `sched::simulator` body), kept here as an executable
//!   model. Random traces across machines and policies must produce
//!   bit-identical `JobOutcome`s and metrics through the engine path.
//! * The event-driven torus flow simulation (`engine::simulate_flows`) is
//!   compared flow-for-flow against a hand-driven `Fabric` + `FluidSim`
//!   composition on random geometries and flow sets.
//! * The bisection-pairing scenario is one simulated round scaled by the
//!   measured-round count.
//!
//! Everything asserts *exact* equality — the consolidation is a refactor,
//! not a remodel.

use netpart::engine::{self, Fabric, Flow, FluidSim};
use netpart::machines::{known, BlueGeneQ, PartitionGeometry};
use netpart::scenario::{run_scenario, RoutingSpec, ScenarioSpec, TopologySpec, TrafficSpec};
use netpart::sched::{
    generate_trace, simulate_events, Job, JobOutcome, OccupancyGrid, Placement, RunMetrics,
    SchedPolicy, TraceConfig,
};
use netpart::topology::Torus;
use proptest::prelude::*;
use std::collections::VecDeque;

// ---------------------------------------------------------------------------
// The legacy scheduler loop, kept verbatim as the reference model.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Running {
    completion: f64,
    placement: Placement,
    outcome: JobOutcome,
}

/// The pre-PR-4 `sched::simulator::simulate` body: a bespoke FCFS replay
/// loop advancing from one event time to the next.
fn reference_simulate(machine: &BlueGeneQ, policy: SchedPolicy, trace: &[Job]) -> RunMetrics {
    let mut grid = OccupancyGrid::new(machine);
    let mut queue: VecDeque<Job> = VecDeque::new();
    let mut running: Vec<Running> = Vec::new();
    let mut outcomes: Vec<JobOutcome> = Vec::new();
    let mut arrivals: VecDeque<Job> = trace
        .iter()
        .filter(|j| !machine.geometries(j.midplanes).is_empty())
        .cloned()
        .collect();
    let mut now = 0.0f64;
    let mut busy_midplane_seconds = 0.0;
    let mut last_event = 0.0f64;

    loop {
        busy_midplane_seconds += grid.busy_midplanes() as f64 * (now - last_event);
        last_event = now;

        let mut finished: Vec<usize> = running
            .iter()
            .enumerate()
            .filter(|(_, r)| r.completion <= now + 1e-9)
            .map(|(i, _)| i)
            .collect();
        finished.sort_unstable_by(|a, b| b.cmp(a));
        for idx in finished {
            let done = running.swap_remove(idx);
            grid.release(&done.placement);
            outcomes.push(done.outcome);
        }

        while arrivals
            .front()
            .map(|j| j.arrival <= now + 1e-9)
            .unwrap_or(false)
        {
            queue.push_back(arrivals.pop_front().expect("front checked"));
        }

        while let Some(job) = queue.front() {
            match policy.choose_placement(machine, &grid, job) {
                Some(placement) => {
                    let job = queue.pop_front().expect("front checked");
                    let geometry = placement.geometry();
                    let best_links = machine
                        .geometries(job.midplanes)
                        .iter()
                        .map(PartitionGeometry::bisection_links)
                        .max()
                        .expect("size was checked feasible");
                    let runtime = job.runtime_on(geometry.bisection_links(), best_links);
                    grid.allocate(&placement);
                    running.push(Running {
                        completion: now + runtime,
                        outcome: JobOutcome {
                            job_id: job.id,
                            arrival: job.arrival,
                            start: now,
                            completion: now + runtime,
                            runtime,
                            runtime_on_optimal: job.runtime_on_optimal,
                            geometry,
                            bisection_links: placement.geometry().bisection_links(),
                            optimal_bisection_links: best_links,
                        },
                        placement,
                    });
                }
                None => break,
            }
        }

        let next_completion = running
            .iter()
            .map(|r| r.completion)
            .fold(f64::INFINITY, f64::min);
        let next_arrival = arrivals.front().map(|j| j.arrival).unwrap_or(f64::INFINITY);
        let next = next_completion.min(next_arrival);
        if !next.is_finite() {
            break;
        }
        now = next.max(now);
    }

    outcomes.sort_by(|a, b| a.completion.total_cmp(&b.completion));
    let makespan = outcomes.last().map(|o| o.completion).unwrap_or(0.0);
    let capacity = machine.num_midplanes() as f64 * makespan;
    RunMetrics {
        policy: policy.label(),
        outcomes,
        makespan,
        utilization: if capacity > 0.0 {
            busy_midplane_seconds / capacity
        } else {
            0.0
        },
    }
}

fn assert_metrics_identical(a: &RunMetrics, b: &RunMetrics) {
    assert_eq!(a.policy, b.policy);
    assert_eq!(a.makespan, b.makespan, "makespan");
    assert_eq!(a.utilization, b.utilization, "utilization");
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.job_id, y.job_id);
        assert_eq!(x.arrival, y.arrival);
        assert_eq!(x.start, y.start, "job {}", x.job_id);
        assert_eq!(x.completion, y.completion, "job {}", x.job_id);
        assert_eq!(x.runtime, y.runtime);
        assert_eq!(x.runtime_on_optimal, y.runtime_on_optimal);
        assert_eq!(x.geometry.dims(), y.geometry.dims());
        assert_eq!(x.bisection_links, y.bisection_links);
        assert_eq!(x.optimal_bisection_links, y.optimal_bisection_links);
    }
}

fn machine_by_index(i: usize) -> BlueGeneQ {
    match i % 4 {
        0 => known::mira(),
        1 => known::juqueen(),
        2 => known::juqueen_48(),
        _ => known::juqueen_54(),
    }
}

fn policy_by_index(i: usize) -> SchedPolicy {
    match i % 3 {
        0 => SchedPolicy::WorstAvailableBisection,
        1 => SchedPolicy::BestAvailableBisection,
        _ => SchedPolicy::HintAware { tolerance: 0.99 },
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
            gigabytes: 0.05 + (next() % 64) as f64 / 16.0,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random traces across machines and policies replay bit-identically
    /// through the engine event loop.
    #[test]
    fn scheduler_delegation_matches_the_legacy_loop(
        machine_idx in 0usize..4,
        policy_idx in 0usize..3,
        jobs in 1usize..120,
        seed in 0u64..1_000_000,
        interarrival in 20.0f64..400.0,
        bound_fraction in 0.0f64..1.0,
    ) {
        let machine = machine_by_index(machine_idx);
        let policy = policy_by_index(policy_idx);
        let mut config = TraceConfig::default_for(&machine, jobs, seed);
        config.mean_interarrival = interarrival;
        config.contention_bound_fraction = bound_fraction;
        let trace = generate_trace(&config);
        let reference = reference_simulate(&machine, policy, &trace);
        assert_metrics_identical(&reference, &simulate_events(&machine, policy, &trace));
    }

    /// The event-driven torus flow simulation produces bit-identical
    /// outcomes to driving the fluid core by hand over the same `Fabric`.
    #[test]
    fn torus_flow_path_matches_hand_driven_fabric(
        dims in proptest::collection::vec(2usize..=6, 1..=4)
            .prop_filter("keep the node count small", |d| d.iter().product::<usize>() <= 256),
        count in 1usize..64,
        seed in 0u64..1_000_000,
    ) {
        let fabric = Fabric::from_torus(Torus::new(dims.clone()), 2.0);
        let flows = flow_set(fabric.num_nodes(), count, seed);
        let router = engine::DimensionOrdered::default();

        let event_driven = engine::simulate_flows(&fabric, &router, &flows)
            .expect("torus fabrics route everything");

        let paths = engine::route_flows(&fabric, &router, &flows)
            .expect("torus fabrics route everything");
        let sizes: Vec<f64> = flows.iter().map(|f| f.gigabytes).collect();
        let mut fluid = FluidSim::new(&paths, fabric.capacities(), &sizes);
        fluid.run_to_completion();
        let direct = fluid.into_outcome();

        prop_assert_eq!(event_driven.makespan, direct.makespan);
        prop_assert_eq!(event_driven.completion, direct.completion);
        prop_assert_eq!(event_driven.channel_load_gb, direct.channel_load_gb);
        prop_assert_eq!(event_driven.bottleneck_lower_bound, direct.bottleneck_lower_bound);
        prop_assert_eq!(event_driven.rounds, direct.rounds);
    }

    /// The bisection-pairing scenario is exactly "one simulated round
    /// scaled by the measured-round count".
    #[test]
    fn bisection_pairing_is_round_scaled(
        dims in proptest::collection::vec(2usize..=6, 1..=4)
            .prop_filter("keep the node count small", |d| d.iter().product::<usize>() <= 256),
        rounds in 5usize..40,
        gigabytes in 0.25f64..4.0,
    ) {
        let spec = ScenarioSpec {
            topology: TopologySpec::Torus(dims.clone()),
            routing: RoutingSpec::DimensionOrdered,
            traffic: TrafficSpec::BisectionPairing {
                rounds,
                warmup_rounds: 4,
                round_gigabytes: gigabytes,
            },
            seed: 0,
        };
        let result = run_scenario(&spec).expect("pairing runs on every small torus");
        let fabric = Fabric::from_torus(Torus::new(dims.clone()), 2.0);
        let flows = engine::pairing_flows(&fabric, gigabytes);
        let round = engine::simulate_flows(&fabric, &engine::DimensionOrdered::default(), &flows)
            .expect("torus fabrics route everything");
        prop_assert_eq!(result.units, flows.len());
        prop_assert_eq!(result.makespan, round.makespan * (rounds - 4) as f64);
    }
}

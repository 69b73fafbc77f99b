//! Property-based and invariant tests of the scheduler simulator.
//!
//! These run the discrete-event scheduler on randomized traces and machines
//! and check the invariants that must hold regardless of policy or load:
//! conservation of jobs, causality of timestamps, bounded utilization, and
//! the structural guarantees of the hint-aware policy.

use netpart::machines::known;
use netpart::machines::PartitionGeometry;
use netpart::sched::{generate_trace, simulate_events, OccupancyGrid, SchedPolicy, TraceConfig};
use proptest::prelude::*;

fn arbitrary_policy() -> impl Strategy<Value = SchedPolicy> {
    prop_oneof![
        Just(SchedPolicy::WorstAvailableBisection),
        Just(SchedPolicy::BestAvailableBisection),
        (0.5f64..1.0).prop_map(|tolerance| SchedPolicy::HintAware { tolerance }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the policy, load level and contention mix, every feasible job
    /// completes exactly once, timestamps are causal, slowdowns are at least
    /// one and utilization stays within [0, 1].
    #[test]
    fn simulator_invariants_hold_for_random_traces(
        policy in arbitrary_policy(),
        seed in 0u64..1_000,
        num_jobs in 10usize..60,
        interarrival in 50f64..1_000.0,
        bound_fraction in 0f64..=1.0,
        juqueen_not_mira in any::<bool>(),
    ) {
        let machine = if juqueen_not_mira { known::juqueen() } else { known::mira() };
        let mut config = TraceConfig::default_for(&machine, num_jobs, seed);
        config.mean_interarrival = interarrival;
        config.contention_bound_fraction = bound_fraction;
        let trace = generate_trace(&config);
        let metrics = simulate_events(&machine, policy, &trace);

        prop_assert_eq!(metrics.outcomes.len(), trace.len());
        let mut ids: Vec<usize> = metrics.outcomes.iter().map(|o| o.job_id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), trace.len());

        for outcome in &metrics.outcomes {
            prop_assert!(outcome.start >= outcome.arrival - 1e-9);
            prop_assert!(outcome.completion > outcome.start);
            prop_assert!(outcome.slowdown() >= 1.0);
            prop_assert!(outcome.bisection_links <= outcome.optimal_bisection_links);
            prop_assert!(outcome.runtime >= outcome.runtime_on_optimal - 1e-9);
        }
        prop_assert!(metrics.utilization >= 0.0 && metrics.utilization <= 1.0 + 1e-9);
        prop_assert!(metrics.makespan >= trace.last().map(|j| j.arrival).unwrap_or(0.0) - 1e-9
            || metrics.outcomes.is_empty());
    }

    /// The hint-aware policy with a tolerance of ~1 never hands a
    /// contention-bound job a sub-optimal geometry, under any load.
    #[test]
    fn hint_aware_never_degrades_bound_jobs(
        seed in 0u64..1_000,
        interarrival in 20f64..500.0,
    ) {
        let machine = known::juqueen();
        let mut config = TraceConfig::default_for(&machine, 40, seed);
        config.mean_interarrival = interarrival;
        config.contention_bound_fraction = 1.0;
        let trace = generate_trace(&config);
        let metrics = simulate_events(&machine, SchedPolicy::HintAware { tolerance: 0.999 }, &trace);
        for outcome in &metrics.outcomes {
            prop_assert_eq!(outcome.bisection_links, outcome.optimal_bisection_links);
            prop_assert!((outcome.runtime - outcome.runtime_on_optimal).abs() < 1e-9);
        }
    }

    /// Placement bookkeeping: any sequence of allocate/release pairs leaves
    /// the grid exactly as free as it started, and never allocates more
    /// midplanes than the machine has.
    #[test]
    fn occupancy_grid_allocate_release_is_balanced(
        sizes in proptest::collection::vec(1usize..16, 1..8),
    ) {
        let machine = known::mira();
        let mut grid = OccupancyGrid::new(&machine);
        let mut placements = Vec::new();
        for midplanes in sizes {
            let geometries = machine.geometries(midplanes);
            if let Some(geometry) = geometries.first() {
                if let Some(placement) = grid.find_placement(geometry) {
                    grid.allocate(&placement);
                    placements.push(placement);
                }
            }
            prop_assert!(grid.busy_midplanes() <= grid.total_midplanes());
        }
        let busy_at_peak = grid.busy_midplanes();
        let covered: usize = placements.iter().map(|p| p.num_midplanes()).sum();
        prop_assert_eq!(busy_at_peak, covered);
        for placement in &placements {
            grid.release(placement);
        }
        prop_assert_eq!(grid.busy_midplanes(), 0);
    }
}

/// Deterministic regression: the best-bisection policy on an overloaded
/// machine still respects capacity (never more midplanes busy than exist)
/// throughout the run, reflected in a utilization at most 1.
#[test]
fn overload_does_not_oversubscribe_the_machine() {
    let machine = known::juqueen();
    let mut config = TraceConfig::default_for(&machine, 150, 5);
    config.mean_interarrival = 10.0; // heavy overload
    config.mean_runtime = 5000.0;
    let trace = generate_trace(&config);
    let metrics = simulate_events(&machine, SchedPolicy::BestAvailableBisection, &trace);
    assert_eq!(metrics.outcomes.len(), trace.len());
    assert!(metrics.utilization <= 1.0 + 1e-9);
    // Under heavy load the machine should be busy most of the time.
    assert!(
        metrics.utilization > 0.5,
        "utilization {}",
        metrics.utilization
    );
}

/// A geometry whose size exceeds the whole machine is rejected by the
/// placement layer, not silently truncated.
#[test]
fn oversized_geometry_is_never_placed() {
    let machine = known::juqueen();
    let grid = OccupancyGrid::new(&machine);
    assert!(grid
        .find_placement(&PartitionGeometry::new([7, 2, 2, 4]))
        .is_none());
}

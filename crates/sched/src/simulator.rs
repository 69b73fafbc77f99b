//! Scheduler-simulation metrics and policy comparison.
//!
//! The simulator replays a job trace against one machine and one
//! [`SchedPolicy`], tracking for every job when
//! it started, which geometry it received, and how long it ran given the
//! contention model of [`Job::runtime_on`](crate::trace::Job::runtime_on).
//! Queueing is FCFS with backfilling disabled (jobs are only considered in
//! arrival order), which keeps policy comparisons about *geometry*, not about
//! backfilling cleverness.
//!
//! The replay itself is [`crate::engine_sim::simulate_events`], the one
//! event loop in the workspace (`netpart-engine`). The bespoke replay loop
//! this module used to carry was proven bit-identical and deleted;
//! `tests/stack_parity.rs` keeps it as an executable reference model.

use crate::engine_sim::simulate_events;
use crate::policy::SchedPolicy;
use crate::trace::Job;
use netpart_machines::{BlueGeneQ, PartitionGeometry};

/// Outcome of one job in a simulation run.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job id from the trace.
    pub job_id: usize,
    /// Arrival time (seconds).
    pub arrival: f64,
    /// Start time (seconds).
    pub start: f64,
    /// Completion time (seconds).
    pub completion: f64,
    /// Run time actually experienced (seconds).
    pub runtime: f64,
    /// Run time the job would have had on an optimal geometry (seconds).
    pub runtime_on_optimal: f64,
    /// Geometry the job received.
    pub geometry: PartitionGeometry,
    /// Bisection links of the received geometry.
    pub bisection_links: u64,
    /// Bisection links of the optimal geometry of that size.
    pub optimal_bisection_links: u64,
}

impl JobOutcome {
    /// Waiting time in the queue (seconds).
    pub fn wait(&self) -> f64 {
        self.start - self.arrival
    }

    /// Bounded slowdown relative to running immediately on an optimal
    /// geometry: `(wait + runtime) / runtime_on_optimal`, never below 1.
    pub fn slowdown(&self) -> f64 {
        ((self.wait() + self.runtime) / self.runtime_on_optimal).max(1.0)
    }

    /// Contention penalty actually paid: `runtime / runtime_on_optimal`.
    pub fn contention_penalty(&self) -> f64 {
        self.runtime / self.runtime_on_optimal
    }
}

/// Aggregate metrics of a simulation run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Policy label.
    pub policy: String,
    /// Per-job outcomes, in completion order.
    pub outcomes: Vec<JobOutcome>,
    /// Time the last job completed (seconds).
    pub makespan: f64,
    /// Midplane-seconds allocated divided by midplane-seconds available up to
    /// the makespan.
    pub utilization: f64,
}

impl RunMetrics {
    /// Mean waiting time over all jobs (seconds).
    pub fn mean_wait(&self) -> f64 {
        average(self.outcomes.iter().map(JobOutcome::wait))
    }

    /// Mean bounded slowdown over all jobs.
    pub fn mean_slowdown(&self) -> f64 {
        average(self.outcomes.iter().map(|o| o.slowdown()))
    }

    /// Mean contention penalty (1.0 = every job got an optimal geometry).
    pub fn mean_contention_penalty(&self) -> f64 {
        average(self.outcomes.iter().map(|o| o.contention_penalty()))
    }

    /// Fraction of jobs that received a geometry with the optimal bisection
    /// for their size.
    pub fn optimal_geometry_fraction(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 1.0;
        }
        self.outcomes
            .iter()
            .filter(|o| o.bisection_links == o.optimal_bisection_links)
            .count() as f64
            / self.outcomes.len() as f64
    }
}

fn average(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for v in values {
        sum += v;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Run the same trace under several policies for side-by-side comparison.
pub fn compare_policies(
    machine: &BlueGeneQ,
    policies: &[SchedPolicy],
    trace: &[Job],
) -> Vec<RunMetrics> {
    policies
        .iter()
        .map(|&p| simulate_events(machine, p, trace))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{generate_trace, TraceConfig};
    use netpart_alloc::scheduler::ContentionHint;
    use netpart_machines::known;

    fn hand_trace() -> Vec<Job> {
        // Two simultaneous contention-bound 4-midplane jobs on JUQUEEN plus a
        // late compute-bound one.
        vec![
            Job {
                id: 0,
                arrival: 0.0,
                midplanes: 4,
                runtime_on_optimal: 100.0,
                hint: ContentionHint::ContentionBound,
            },
            Job {
                id: 1,
                arrival: 0.0,
                midplanes: 4,
                runtime_on_optimal: 100.0,
                hint: ContentionHint::ContentionBound,
            },
            Job {
                id: 2,
                arrival: 10.0,
                midplanes: 2,
                runtime_on_optimal: 50.0,
                hint: ContentionHint::ComputeBound,
            },
        ]
    }

    #[test]
    fn all_feasible_jobs_complete_exactly_once() {
        let juqueen = known::juqueen();
        let trace = generate_trace(&TraceConfig::default_for(&juqueen, 60, 3));
        for policy in [
            SchedPolicy::WorstAvailableBisection,
            SchedPolicy::BestAvailableBisection,
            SchedPolicy::HintAware { tolerance: 0.99 },
        ] {
            let metrics = simulate_events(&juqueen, policy, &trace);
            assert_eq!(metrics.outcomes.len(), trace.len(), "{}", policy.label());
            let mut ids: Vec<usize> = metrics.outcomes.iter().map(|o| o.job_id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), trace.len());
            for o in &metrics.outcomes {
                assert!(o.start >= o.arrival - 1e-9);
                assert!(o.completion > o.start);
                assert!(o.slowdown() >= 1.0);
            }
            assert!(metrics.utilization > 0.0 && metrics.utilization <= 1.0);
        }
    }

    #[test]
    fn optimal_geometry_fraction_is_higher_under_geometry_aware_policies() {
        let juqueen = known::juqueen();
        let mut config = TraceConfig::default_for(&juqueen, 120, 17);
        config.contention_bound_fraction = 1.0;
        config.mean_interarrival = 100.0; // keep the machine busy
        let trace = generate_trace(&config);
        let results = compare_policies(
            &juqueen,
            &[
                SchedPolicy::WorstAvailableBisection,
                SchedPolicy::BestAvailableBisection,
                SchedPolicy::HintAware { tolerance: 0.99 },
            ],
            &trace,
        );
        let first = &results[0];
        let best = &results[1];
        let hint = &results[2];
        assert!(
            best.optimal_geometry_fraction() >= first.optimal_geometry_fraction(),
            "best {} vs first {}",
            best.optimal_geometry_fraction(),
            first.optimal_geometry_fraction()
        );
        // The hint-aware policy guarantees optimal geometries for bound jobs.
        assert!((hint.optimal_geometry_fraction() - 1.0).abs() < 1e-12);
        // And therefore the lowest contention penalty of the three (a small
        // slack absorbs packing-dynamics differences between runs).
        assert!(hint.mean_contention_penalty() <= best.mean_contention_penalty() + 1e-9);
        assert!(best.mean_contention_penalty() <= first.mean_contention_penalty() * 1.05 + 1e-9);
    }

    #[test]
    fn hint_aware_trades_wait_for_geometry() {
        let juqueen = known::juqueen();
        let mut config = TraceConfig::default_for(&juqueen, 80, 23);
        config.contention_bound_fraction = 1.0;
        config.mean_interarrival = 50.0;
        let trace = generate_trace(&config);
        let first = simulate_events(&juqueen, SchedPolicy::WorstAvailableBisection, &trace);
        let hint = simulate_events(&juqueen, SchedPolicy::HintAware { tolerance: 0.99 }, &trace);
        // Strictly better geometries...
        assert!(hint.mean_contention_penalty() <= first.mean_contention_penalty());
        // ...generally at the cost of queueing (not asserted strictly — the
        // better geometries also finish sooner, which can offset the wait).
        assert!(hint.mean_wait() >= 0.0);
    }

    #[test]
    fn deterministic_hand_trace_produces_expected_timeline() {
        let juqueen = known::juqueen();
        let metrics = simulate_events(&juqueen, SchedPolicy::BestAvailableBisection, &hand_trace());
        assert_eq!(metrics.outcomes.len(), 3);
        // Both 4-midplane jobs fit simultaneously (JUQUEEN has 56 midplanes),
        // both get the optimal 2x2x1x1 geometry, so both run 100 s.
        for o in metrics.outcomes.iter().filter(|o| o.job_id <= 1) {
            assert_eq!(o.start, 0.0);
            assert_eq!(o.geometry.dims(), [2, 2, 1, 1]);
            assert!((o.runtime - 100.0).abs() < 1e-9);
        }
        // The compute-bound job starts on arrival.
        let late = metrics.outcomes.iter().find(|o| o.job_id == 2).unwrap();
        assert!((late.start - 10.0).abs() < 1e-9);
        assert!((late.runtime - 50.0).abs() < 1e-9);
        assert!((metrics.makespan - 100.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_sizes_are_skipped_not_stuck() {
        let juqueen = known::juqueen();
        let mut trace = hand_trace();
        trace.push(Job {
            id: 3,
            arrival: 0.0,
            midplanes: 9, // 3x3 does not fit in 7x2x2x2
            runtime_on_optimal: 100.0,
            hint: ContentionHint::ComputeBound,
        });
        let metrics = simulate_events(&juqueen, SchedPolicy::WorstAvailableBisection, &trace);
        assert_eq!(metrics.outcomes.len(), 3);
        assert!(metrics.outcomes.iter().all(|o| o.job_id != 3));
    }

    #[test]
    fn empty_trace_produces_empty_metrics() {
        let juqueen = known::juqueen();
        let metrics = simulate_events(&juqueen, SchedPolicy::WorstAvailableBisection, &[]);
        assert!(metrics.outcomes.is_empty());
        assert_eq!(metrics.makespan, 0.0);
        assert_eq!(metrics.mean_wait(), 0.0);
    }
}

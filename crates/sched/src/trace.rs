//! Synthetic job traces for the scheduler simulator.
//!
//! Real Blue Gene/Q accounting logs are not public, so the simulator runs on
//! synthetic traces whose knobs — size mix, arrival intensity, runtime
//! distribution and contention-hint mix — are explicit. A trace is just a
//! vector of [`Job`]s sorted by arrival time; tests and benches construct
//! either hand-written traces (for exact assertions) or seeded random traces
//! (for statistical comparisons between policies).

use netpart_alloc::scheduler::ContentionHint;
use netpart_machines::BlueGeneQ;
use rand::prelude::*;

/// One job submission.
#[derive(Debug, Clone)]
pub struct Job {
    /// Unique job identifier (dense, assigned by the trace generator).
    pub id: usize,
    /// Arrival (submission) time in seconds.
    pub arrival: f64,
    /// Requested size in midplanes.
    pub midplanes: usize,
    /// Run time in seconds if executed on a geometry with optimal internal
    /// bisection for its size.
    pub runtime_on_optimal: f64,
    /// The user's contention hint.
    pub hint: ContentionHint,
}

impl Job {
    /// Run time of this job on a geometry whose bisection is
    /// `geometry_links`, when the optimal geometry of the same size has
    /// `best_links`: the contention-bound fraction inflates by the bisection
    /// ratio (the paper's speedup model run in reverse).
    pub fn runtime_on(&self, geometry_links: u64, best_links: u64) -> f64 {
        let f = self.hint.bound_fraction();
        let ratio = best_links as f64 / geometry_links as f64;
        self.runtime_on_optimal * ((1.0 - f) + f * ratio)
    }
}

/// Parameters of the synthetic trace generator.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Number of jobs to generate.
    pub num_jobs: usize,
    /// Mean inter-arrival time in seconds (exponential distribution).
    pub mean_interarrival: f64,
    /// Mean job run time on an optimal geometry, in seconds (exponential).
    pub mean_runtime: f64,
    /// Fraction of jobs that are contention-bound (the rest are
    /// compute-bound); drawn independently per job.
    pub contention_bound_fraction: f64,
    /// Candidate job sizes in midplanes, sampled uniformly.
    pub sizes: Vec<usize>,
    /// Seed for the deterministic generator.
    pub seed: u64,
}

impl TraceConfig {
    /// A moderate default mix for a machine: sizes drawn from the machine's
    /// scheduler-relevant range (2–16 midplanes), half the jobs
    /// contention-bound.
    pub fn default_for(machine: &BlueGeneQ, num_jobs: usize, seed: u64) -> Self {
        let sizes: Vec<usize> = machine
            .feasible_sizes()
            .into_iter()
            .filter(|&m| (2..=16).contains(&m))
            .collect();
        Self {
            num_jobs,
            mean_interarrival: 400.0,
            mean_runtime: 1800.0,
            contention_bound_fraction: 0.5,
            sizes,
            seed,
        }
    }
}

/// Generate a synthetic trace. Jobs are returned sorted by arrival time with
/// dense ids in arrival order.
///
/// # Panics
/// Panics if the size list is empty or `num_jobs` is zero.
pub fn generate_trace(config: &TraceConfig) -> Vec<Job> {
    assert!(
        !config.sizes.is_empty(),
        "trace needs at least one candidate size"
    );
    assert!(config.num_jobs > 0, "trace needs at least one job");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut arrival = 0.0;
    let mut jobs = Vec::with_capacity(config.num_jobs);
    for id in 0..config.num_jobs {
        // Exponential inter-arrival and runtime via inverse CDF.
        let u: f64 = rng.gen_range(1e-12..1.0);
        arrival += -config.mean_interarrival * u.ln();
        let v: f64 = rng.gen_range(1e-12..1.0);
        let runtime = (-config.mean_runtime * v.ln()).max(1.0);
        let midplanes = *config.sizes.choose(&mut rng).expect("non-empty sizes");
        let hint = if rng.gen_bool(config.contention_bound_fraction) {
            ContentionHint::ContentionBound
        } else {
            ContentionHint::ComputeBound
        };
        jobs.push(Job {
            id,
            arrival,
            midplanes,
            runtime_on_optimal: runtime,
            hint,
        });
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_machines::known;

    #[test]
    fn trace_is_sorted_and_sized_correctly() {
        let config = TraceConfig::default_for(&known::juqueen(), 50, 7);
        let trace = generate_trace(&config);
        assert_eq!(trace.len(), 50);
        for w in trace.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        for job in &trace {
            assert!(config.sizes.contains(&job.midplanes));
            assert!(job.runtime_on_optimal >= 1.0);
        }
    }

    #[test]
    fn trace_generation_is_deterministic_per_seed() {
        let config = TraceConfig::default_for(&known::mira(), 20, 42);
        let a = generate_trace(&config);
        let b = generate_trace(&config);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.midplanes, y.midplanes);
        }
        let mut other = config.clone();
        other.seed = 43;
        let c = generate_trace(&other);
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| x.midplanes != y.midplanes || x.arrival != y.arrival));
    }

    #[test]
    fn contention_mix_matches_request_roughly() {
        let mut config = TraceConfig::default_for(&known::mira(), 400, 11);
        config.contention_bound_fraction = 0.75;
        let trace = generate_trace(&config);
        let bound = trace
            .iter()
            .filter(|j| j.hint == ContentionHint::ContentionBound)
            .count();
        let fraction = bound as f64 / trace.len() as f64;
        assert!(
            (fraction - 0.75).abs() < 0.1,
            "observed fraction {fraction}"
        );
    }

    #[test]
    fn runtime_model_inflates_contention_bound_jobs_only() {
        let job = Job {
            id: 0,
            arrival: 0.0,
            midplanes: 4,
            runtime_on_optimal: 100.0,
            hint: ContentionHint::ContentionBound,
        };
        assert_eq!(job.runtime_on(256, 512), 200.0);
        assert_eq!(job.runtime_on(512, 512), 100.0);
        let compute = Job {
            hint: ContentionHint::ComputeBound,
            ..job.clone()
        };
        assert_eq!(compute.runtime_on(256, 512), 100.0);
        let half = Job {
            hint: ContentionHint::PartiallyBound(0.5),
            ..job
        };
        assert_eq!(half.runtime_on(256, 512), 150.0);
    }

    #[test]
    #[should_panic(expected = "at least one candidate size")]
    fn empty_size_list_rejected() {
        let config = TraceConfig {
            num_jobs: 1,
            mean_interarrival: 1.0,
            mean_runtime: 1.0,
            contention_bound_fraction: 0.0,
            sizes: vec![],
            seed: 0,
        };
        let _ = generate_trace(&config);
    }
}

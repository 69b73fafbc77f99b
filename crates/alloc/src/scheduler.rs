//! A contention-aware allocation advisor.
//!
//! The paper's future-work section suggests that job schedulers could use a
//! user-provided hint — "this job is contention-bound" — to decide whether to
//! hand out a currently-free sub-optimal partition immediately or to wait for
//! a partition with better internal bisection bandwidth. This module
//! implements that decision rule: it weighs the predicted contention slowdown
//! of the sub-optimal geometry against the expected queueing delay.

use crate::optimize::best_geometry;
use netpart_machines::{BlueGeneQ, PartitionGeometry};

/// How sensitive a job is to network contention.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ContentionHint {
    /// Run time is dominated by bisection traffic (e.g. all-to-all, FFT,
    /// fast matrix multiplication at scale): slowdown scales with the full
    /// bisection-bandwidth ratio.
    ContentionBound,
    /// Only the given fraction (0.0–1.0) of the run time is bisection-bound
    /// communication; the rest is unaffected by partition geometry.
    PartiallyBound(f64),
    /// Compute-bound: partition geometry does not matter.
    ComputeBound,
}

impl ContentionHint {
    /// Fraction of run time affected by bisection bandwidth.
    pub fn bound_fraction(&self) -> f64 {
        match *self {
            ContentionHint::ContentionBound => 1.0,
            ContentionHint::PartiallyBound(f) => f.clamp(0.0, 1.0),
            ContentionHint::ComputeBound => 0.0,
        }
    }
}

/// A job waiting to be scheduled.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Requested size in midplanes.
    pub midplanes: usize,
    /// Estimated run time on an optimal partition, in seconds.
    pub runtime_on_optimal: f64,
    /// The user's contention hint.
    pub hint: ContentionHint,
}

/// The advisor's recommendation.
#[derive(Debug, Clone, PartialEq)]
pub enum Advice {
    /// Take the offered partition now.
    AllocateNow {
        /// Predicted run time on the offered geometry, in seconds.
        predicted_runtime: f64,
    },
    /// Wait for an optimal partition.
    WaitForBetter {
        /// Predicted run time on an optimal geometry, in seconds.
        predicted_runtime: f64,
        /// Time wasted (relative to waiting) if the job ran now instead.
        predicted_loss_if_run_now: f64,
    },
    /// The requested size cannot be allocated on this machine at all.
    Infeasible,
}

/// Predicted run time of a job on a specific geometry, given its run time on
/// the optimal geometry of the same size: the contention-bound fraction is
/// scaled by the bisection-bandwidth ratio (Amdahl-style).
pub fn predicted_runtime(
    machine: &BlueGeneQ,
    job: &JobRequest,
    geometry: &PartitionGeometry,
) -> Option<f64> {
    let best = best_geometry(machine, job.midplanes)?;
    let ratio = best.bisection_links() as f64 / geometry.bisection_links() as f64;
    let f = job.hint.bound_fraction();
    Some(job.runtime_on_optimal * ((1.0 - f) + f * ratio))
}

/// Decide whether to accept an offered geometry now or wait
/// `expected_wait_seconds` for an optimal one.
pub fn advise(
    machine: &BlueGeneQ,
    job: &JobRequest,
    offered: &PartitionGeometry,
    expected_wait_seconds: f64,
) -> Advice {
    let Some(best) = best_geometry(machine, job.midplanes) else {
        return Advice::Infeasible;
    };
    if offered.num_midplanes() != job.midplanes || !machine.admits(offered) {
        return Advice::Infeasible;
    }
    let run_now = predicted_runtime(machine, job, offered).expect("size feasible");
    let run_best = predicted_runtime(machine, job, &best).expect("size feasible");
    let finish_now = run_now;
    let finish_later = expected_wait_seconds + run_best;
    if finish_now <= finish_later {
        Advice::AllocateNow {
            predicted_runtime: run_now,
        }
    } else {
        Advice::WaitForBetter {
            predicted_runtime: run_best,
            predicted_loss_if_run_now: finish_now - finish_later,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_machines::known;

    fn job(hint: ContentionHint) -> JobRequest {
        JobRequest {
            midplanes: 8,
            runtime_on_optimal: 1000.0,
            hint,
        }
    }

    #[test]
    fn contention_bound_jobs_should_wait_for_short_queues() {
        let juqueen = known::juqueen();
        let offered = PartitionGeometry::new([4, 2, 1, 1]); // 512 links, best is 1024

        // Running now costs 2000 s; waiting 300 s then running costs 1300 s.
        let advice = advise(
            &juqueen,
            &job(ContentionHint::ContentionBound),
            &offered,
            300.0,
        );
        match advice {
            Advice::WaitForBetter {
                predicted_runtime,
                predicted_loss_if_run_now,
            } => {
                assert!((predicted_runtime - 1000.0).abs() < 1e-9);
                assert!((predicted_loss_if_run_now - 700.0).abs() < 1e-9);
            }
            other => panic!("expected WaitForBetter, got {other:?}"),
        }
    }

    #[test]
    fn compute_bound_jobs_always_run_now() {
        let juqueen = known::juqueen();
        let offered = PartitionGeometry::new([4, 2, 1, 1]);
        let advice = advise(&juqueen, &job(ContentionHint::ComputeBound), &offered, 10.0);
        assert!(matches!(advice, Advice::AllocateNow { .. }));
    }

    #[test]
    fn long_queues_flip_the_decision() {
        let juqueen = known::juqueen();
        let offered = PartitionGeometry::new([4, 2, 1, 1]);
        let advice = advise(
            &juqueen,
            &job(ContentionHint::ContentionBound),
            &offered,
            5000.0,
        );
        match advice {
            Advice::AllocateNow { predicted_runtime } => {
                assert!((predicted_runtime - 2000.0).abs() < 1e-9);
            }
            other => panic!("expected AllocateNow, got {other:?}"),
        }
    }

    #[test]
    fn partially_bound_jobs_interpolate() {
        let juqueen = known::juqueen();
        let offered = PartitionGeometry::new([4, 2, 1, 1]);
        let j = job(ContentionHint::PartiallyBound(0.5));
        let rt = predicted_runtime(&juqueen, &j, &offered).unwrap();
        // Half the time doubles, half stays: 1.5x.
        assert!((rt - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn optimal_offer_is_always_accepted() {
        let juqueen = known::juqueen();
        let offered = PartitionGeometry::new([2, 2, 2, 1]);
        let advice = advise(
            &juqueen,
            &job(ContentionHint::ContentionBound),
            &offered,
            1.0,
        );
        assert!(matches!(advice, Advice::AllocateNow { .. }));
    }

    #[test]
    fn infeasible_requests_are_reported() {
        let juqueen = known::juqueen();
        let mut j = job(ContentionHint::ContentionBound);
        j.midplanes = 9;
        let offered = PartitionGeometry::new([3, 3, 1, 1]);
        assert_eq!(advise(&juqueen, &j, &offered, 0.0), Advice::Infeasible);
    }
}

//! Prediction vs simulation cross-validation.
//!
//! The paper's central quantitative claim is that the bisection-bandwidth
//! ratio of two equal-sized partition geometries predicts the speedup of
//! contention-bound workloads (×2.00 predicted, ×1.92 measured in the
//! bisection-pairing experiment). This module makes that comparison a
//! first-class object so the reproduction can report "predicted vs measured"
//! for every experiment, exactly as EXPERIMENTS.md tabulates.

use netpart_machines::PartitionGeometry;

/// A predicted-vs-measured comparison for one pair of geometries.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionCheck {
    /// Workload / experiment label.
    pub label: String,
    /// The baseline geometry.
    pub baseline: PartitionGeometry,
    /// The improved geometry.
    pub improved: PartitionGeometry,
    /// Speedup predicted from the bisection-bandwidth ratio.
    pub predicted_speedup: f64,
    /// Speedup observed in the simulation (baseline time / improved time).
    pub measured_speedup: f64,
}

impl PredictionCheck {
    /// Build a check from the two geometries and their measured times.
    pub fn new(
        label: impl Into<String>,
        baseline: PartitionGeometry,
        improved: PartitionGeometry,
        baseline_seconds: f64,
        improved_seconds: f64,
    ) -> Self {
        Self {
            label: label.into(),
            baseline,
            improved,
            predicted_speedup: baseline.contention_speedup_to(&improved),
            measured_speedup: baseline_seconds / improved_seconds,
        }
    }

    /// Relative deviation of the measured from the predicted speedup
    /// (0.0 = perfect agreement; the paper reports 4% for bisection pairing).
    pub fn relative_error(&self) -> f64 {
        (self.measured_speedup - self.predicted_speedup).abs() / self.predicted_speedup
    }

    /// Whether the measurement agrees with the prediction within `tol`
    /// relative error.
    pub fn agrees_within(&self, tol: f64) -> bool {
        self.relative_error() <= tol
    }

    /// Whether the measurement at least confirms the *direction* of the
    /// prediction (the improved geometry is no slower). Workloads that are
    /// only partially contention-bound (like the matmul experiment) satisfy
    /// this even when the full ratio is not reached.
    pub fn direction_confirmed(&self) -> bool {
        (self.predicted_speedup >= 1.0) == (self.measured_speedup >= 1.0 - 1e-9)
    }
}

/// Fraction of a workload's time that must be bisection-bound to explain a
/// measured speedup, assuming the rest is unaffected by geometry
/// (inverse-Amdahl estimate). Returns a value in `[0, 1]` when the measured
/// speedup lies between 1 and the predicted speedup.
pub fn implied_contention_fraction(predicted: f64, measured: f64) -> f64 {
    if (predicted - 1.0).abs() < 1e-12 || measured <= 0.0 {
        return 0.0;
    }
    // total_base = f + (1-f); total_improved = f/predicted + (1-f)
    // measured = 1 / (1 - f (1 - 1/predicted))  =>
    let f = (1.0 - 1.0 / measured) / (1.0 - 1.0 / predicted);
    f.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_headline_numbers_agree() {
        // Bisection pairing on Mira, 4 midplanes: predicted 2.00, measured 1.92.
        let check = PredictionCheck::new(
            "bisection pairing, 4 midplanes",
            PartitionGeometry::new([4, 1, 1, 1]),
            PartitionGeometry::new([2, 2, 1, 1]),
            192.0,
            100.0,
        );
        assert!((check.predicted_speedup - 2.0).abs() < 1e-12);
        assert!((check.measured_speedup - 1.92).abs() < 1e-12);
        assert!(check.agrees_within(0.05));
        assert!(check.direction_confirmed());
    }

    #[test]
    fn twenty_four_midplane_case_has_smaller_prediction() {
        let check = PredictionCheck::new(
            "bisection pairing, 24 midplanes",
            PartitionGeometry::new([4, 3, 2, 1]),
            PartitionGeometry::new([3, 2, 2, 2]),
            144.0,
            100.0,
        );
        assert!((check.predicted_speedup - 4.0 / 3.0).abs() < 1e-12);
        assert!(check.agrees_within(0.09));
    }

    #[test]
    fn matmul_measurements_confirm_direction_only() {
        // Communication ratio 1.37 against a predicted 2.0: direction holds,
        // exact agreement does not (computation/local traffic dilutes it).
        let check = PredictionCheck::new(
            "CAPS matmul, 4 midplanes",
            PartitionGeometry::new([4, 1, 1, 1]),
            PartitionGeometry::new([2, 2, 1, 1]),
            0.37,
            0.27,
        );
        assert!(check.direction_confirmed());
        assert!(!check.agrees_within(0.05));
    }

    #[test]
    fn implied_fraction_recovers_amdahl() {
        // If 60% of the time is bisection-bound and the bandwidth doubles,
        // the speedup is 1 / (0.4 + 0.3) = 1.4286; inverting recovers 0.6.
        let measured = 1.0 / (0.4 + 0.3);
        let f = implied_contention_fraction(2.0, measured);
        assert!((f - 0.6).abs() < 1e-9);
        // Fully contention-bound workloads imply fraction 1.
        assert!((implied_contention_fraction(2.0, 2.0) - 1.0).abs() < 1e-12);
        // No predicted speedup implies nothing.
        assert_eq!(implied_contention_fraction(1.0, 1.3), 0.0);
    }
}

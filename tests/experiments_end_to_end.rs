//! Scaled-down end-to-end runs of the paper's experiments, checking that the
//! simulated results agree with the analytic predictions the way the paper's
//! measurements do.

use netpart::core::experiments::{bisection_pairing_experiment, pairing_speedups};
use netpart::core::predict::PredictionCheck;
use netpart::machines::PartitionGeometry;

#[test]
fn pairing_experiment_matches_prediction_within_ten_percent() {
    // One-midplane-per-dimension versions of the Figure 3/4 geometries.
    let cases = [
        (4usize, "Current", PartitionGeometry::new([4, 1, 1, 1])),
        (4, "Proposed", PartitionGeometry::new([2, 2, 1, 1])),
        (8, "Current", PartitionGeometry::new([4, 2, 1, 1])),
        (8, "Proposed", PartitionGeometry::new([2, 2, 2, 1])),
    ];
    let measurements = bisection_pairing_experiment(&cases);
    for (midplanes, speedup) in pairing_speedups(&measurements, "Current", "Proposed") {
        let current = measurements
            .iter()
            .find(|m| m.midplanes == midplanes && m.label == "Current")
            .unwrap();
        let proposed = measurements
            .iter()
            .find(|m| m.midplanes == midplanes && m.label == "Proposed")
            .unwrap();
        let check = PredictionCheck::new(
            format!("pairing {midplanes} midplanes"),
            current.geometry,
            proposed.geometry,
            current.seconds,
            proposed.seconds,
        );
        assert!(
            check.agrees_within(0.10),
            "{midplanes} midplanes: predicted {:.2}, simulated {speedup:.2}",
            check.predicted_speedup
        );
    }
}

#[test]
fn pairing_times_grow_with_partition_size_at_fixed_bisection() {
    // The paper's explanation for the 16 -> 24 midplane increase on the
    // proposed geometries: node count grows 1.5x while the bisection stays
    // at 2048 links, so the time grows ~1.5x. Reproduce the effect at
    // midplane scale with geometries one quarter the size.
    let cases = [
        (16usize, "Proposed", PartitionGeometry::new([2, 2, 2, 2])),
        (24, "Proposed", PartitionGeometry::new([3, 2, 2, 2])),
    ];
    let measurements = bisection_pairing_experiment(&cases);
    assert_eq!(
        measurements[0].bisection_links, measurements[1].bisection_links,
        "both geometries have 2048 links"
    );
    let ratio = measurements[1].seconds / measurements[0].seconds;
    assert!(
        (ratio - 1.5).abs() < 0.2,
        "expected ~1.5x from the extra nodes, got {ratio:.2}"
    );
}

#[test]
fn prediction_bookkeeping_matches_paper_accounting() {
    // The implied contention fraction of the paper's matmul measurement
    // (communication ratio ~1.45 against a predicted 2.0) is below 1: the
    // workload is only partially bisection-bound, which is exactly how the
    // paper explains the gap.
    let f = netpart::core::implied_contention_fraction(2.0, 1.45);
    assert!(f > 0.5 && f < 1.0, "implied fraction {f}");
}

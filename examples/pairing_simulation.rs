//! Simulate the paper's bisection-pairing benchmark on two geometries of the
//! same 4-midplane allocation and compare with the analytic prediction.
//!
//! Run with `cargo run --release --example pairing_simulation`.

use netpart::core::experiments::bisection_pairing_experiment;
use netpart::core::predict::PredictionCheck;
use netpart::machines::PartitionGeometry;

fn main() {
    let current = PartitionGeometry::new([4, 1, 1, 1]);
    let proposed = PartitionGeometry::new([2, 2, 1, 1]);
    let cases = [(4, "Current", current), (4, "Proposed", proposed)];

    println!("Bisection-pairing benchmark, 2048 nodes, 26 measured rounds of 2 GB per pair:\n");
    let measurements = bisection_pairing_experiment(&cases);
    for m in &measurements {
        println!(
            "  geometry {}: {:>7.1} s  ({} bisection links)",
            m.geometry, m.seconds, m.bisection_links
        );
    }
    let check = PredictionCheck::new(
        "bisection pairing, 4 midplanes",
        current,
        proposed,
        measurements[0].seconds,
        measurements[1].seconds,
    );
    println!(
        "\npredicted speedup x{:.2}, simulated x{:.2} (paper: predicted 2.00, measured 1.92)",
        check.predicted_speedup, check.measured_speedup
    );
}

//! Figure 3: the bisection-pairing experiment on Mira (simulated).
//!
//! Full scale (up to 12,288 nodes); run with `--release`.

use netpart_alloc::report::render_table;
use netpart_bench::{emit, header, secs};
use netpart_core::experiments::{bisection_pairing_experiment, mira_fig3_cases, pairing_speedups};

fn main() {
    let cases = mira_fig3_cases();
    let measurements = bisection_pairing_experiment(&cases);
    let headers = [
        "Midplanes",
        "Geometry family",
        "Geometry",
        "Bisection links",
        "Time (s)",
    ];
    let body: Vec<Vec<String>> = measurements
        .iter()
        .map(|m| {
            vec![
                m.midplanes.to_string(),
                m.label.clone(),
                m.geometry.to_string(),
                m.bisection_links.to_string(),
                secs(m.seconds),
            ]
        })
        .collect();
    let mut out = header(
        "Mira: bisection pairing experiment (26 measured rounds, 2 GB per pair per round)",
        "Figure 3",
    );
    out.push_str(&render_table(&headers, &body));
    out.push_str("\nSpeedup of proposed over current (paper predicts 2.00 / 1.50 for 24 mp, measures >= 1.92 / 1.44):\n");
    for (m, s) in pairing_speedups(&measurements, "Current", "Proposed") {
        out.push_str(&format!("  {m} midplanes: x{s:.2}\n"));
    }
    emit("fig3_mira_pairing", &out);
}

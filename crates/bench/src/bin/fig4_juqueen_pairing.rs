//! Figure 4: the bisection-pairing experiment on JUQUEEN (simulated).

use netpart_alloc::report::render_table;
use netpart_bench::{emit, header, secs};
use netpart_core::experiments::{
    bisection_pairing_experiment, juqueen_fig4_cases, pairing_speedups,
};

fn main() {
    let cases = juqueen_fig4_cases();
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
        "JUQUEEN: bisection pairing experiment (26 measured rounds, 2 GB per pair per round)",
        "Figure 4",
    );
    out.push_str(&render_table(&headers, &body));
    out.push_str("\nSpeedup of proposed over worst-case (sizes 4/8/12/16 predict 2.00; 6 midplanes predicts 2.00 with half the per-node bisection):\n");
    for (m, s) in pairing_speedups(&measurements, "Worst-case", "Proposed") {
        out.push_str(&format!("  {m} midplanes: x{s:.2}\n"));
    }
    emit("fig4_juqueen_pairing", &out);
}

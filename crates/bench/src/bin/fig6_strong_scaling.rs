//! Figure 6: the strong-scaling experiment on Mira (simulated).

use netpart_alloc::report::render_table;
use netpart_bench::{emit, header, secs};
use netpart_strassen::scaling::{
    communication_scaling_efficiency, mira_table4_plan, run_strong_scaling,
};

fn main() {
    let plan = mira_table4_plan();
    let results = run_strong_scaling(&plan);
    let headers = [
        "Midplanes",
        "Computation (s)",
        "Communication current (s)",
        "Communication proposed (s)",
    ];
    let body: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.midplanes.to_string(),
                secs(r.current.computation_seconds),
                secs(r.current.communication_seconds),
                secs(r.proposed.communication_seconds),
            ]
        })
        .collect();
    let mut out = header(
        "Mira: strong-scaling experiment (matrix dimension 9408; the 2-midplane point allows only one geometry)",
        "Figure 6 / Table 4",
    );
    out.push_str(&render_table(&headers, &body));
    out.push_str("\nCommunication scaling efficiency relative to 2 midplanes (1.0 = linear):\n");
    for ((m, cur), (_, prop)) in communication_scaling_efficiency(&results, false)
        .into_iter()
        .zip(communication_scaling_efficiency(&results, true))
    {
        out.push_str(&format!(
            "  {m} midplanes: current {cur:.2}, proposed {prop:.2}\n"
        ));
    }
    emit("fig6_strong_scaling", &out);
}

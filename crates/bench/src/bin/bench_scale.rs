//! Million-node scale benchmark: event-queue throughput and one-shot
//! max–min solves across four orders of magnitude.
//!
//! ```text
//! bench_scale [--nodes N] [--check-regression R] [--force]
//! ```
//!
//! For each scale (10³ … 10⁶ nodes) the benchmark measures:
//!
//! * **Queue hold model** — `N` pending events, then `E` hold operations
//!   (pop the minimum, push a replacement a pseudorandom delay later), the
//!   classic priority-queue workload. Run twice, once per [`QueueKind`], so
//!   the committed baseline records the calendar queue's speedup over the
//!   binary-heap reference core at every scale.
//! * **Fabric incast solve** — a torus at that node count, a strided incast
//!   flow set routed dimension-ordered, and one batch `max_min_rates_csr`
//!   solve over the resulting CSR. Peak RSS (`VmHWM`) is recorded after
//!   each solve.
//!
//! A full run (no `--nodes` filter) writes `results/bench_scale.json`
//! (kept unless `--force`, like every committed baseline).
//! `--nodes N` restricts to one scale and skips the baseline write — the CI
//! `scale-smoke` job uses `--nodes 1000000 --check-regression 20` to prove
//! a million-node run completes and its calendar throughput has not fallen
//! more than 20× below the committed baseline (a deliberately loose bound:
//! shared runners are noisy, order-of-magnitude collapses are not).

use netpart_bench::{emit_json_baseline, peak_rss_bytes, results_dir};
use netpart_engine::{
    max_min_rates_csr, route_flows_csr, DimensionOrdered, EventQueue, Fabric, Flow, MaxMinScratch,
    QueueKind,
};
use netpart_topology::Torus;
use std::time::Instant;

/// The scale ladder: node count and the near-cubic torus that realises it.
const SCALES: [(u64, [usize; 3]); 4] = [
    (1_000, [10, 10, 10]),
    (10_000, [25, 20, 20]),
    (100_000, [50, 50, 40]),
    (1_000_000, [100, 100, 100]),
];

/// splitmix64: cheap deterministic delays for the hold model.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A delay in [0.5, 1.5): keeps the pending set's time span stable, the
/// regime calendar queues are built for.
fn hold_delay(state: &mut u64) -> f64 {
    0.5 + (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Run the hold model: `n` pending events, `holds` pop+push operations.
/// Returns (events per second, checksum) — the checksum pins both queue
/// kinds to the identical pop sequence.
fn hold_model(kind: QueueKind, n: usize, holds: usize) -> (f64, u64) {
    let mut queue: EventQueue<usize> = EventQueue::with_kind(kind);
    let mut rng = 0x6e65_7470_6172_7453u64;
    for i in 0..n {
        queue.push(hold_delay(&mut rng) * 100.0, 0, 0, i);
    }
    let mut checksum = 0u64;
    let start = Instant::now();
    for _ in 0..holds {
        let ev = queue.pop().expect("hold model never drains");
        checksum = checksum
            .rotate_left(7)
            .wrapping_add(ev.time.to_bits() ^ ev.payload as u64);
        queue.push(ev.time + hold_delay(&mut rng), 0, 0, ev.payload);
    }
    let secs = start.elapsed().as_secs_f64();
    (holds as f64 / secs, checksum)
}

/// One measured scale.
struct ScaleResult {
    nodes: u64,
    hold_events: usize,
    heap_eps: f64,
    calendar_eps: f64,
    flows: usize,
    channels: usize,
    solve_ms: f64,
    peak_rss_bytes: u64,
}

/// Strided incast (everyone sends toward node 0) solved once through the
/// batch kernel; returns (flows, channels, solve milliseconds).
fn incast_solve(dims: &[usize; 3]) -> (usize, usize, f64) {
    let n: usize = dims.iter().product();
    let fabric = Fabric::from_torus(Torus::new(dims.to_vec()), 2.0);
    // Cap the flow set so routing memory stays flat while the channel arena
    // (and with it the solver's scan) still grows with the fabric.
    let stride = (n / 50_000).max(1);
    let flows: Vec<Flow> = (1..n)
        .step_by(stride)
        .map(|src| Flow {
            src,
            dst: 0,
            gigabytes: 1.0,
        })
        .collect();
    let router = DimensionOrdered::default();
    let mut offsets = Vec::new();
    let mut data = Vec::new();
    route_flows_csr(&fabric, &router, &flows, &mut offsets, &mut data).expect("torus routes");
    let active: Vec<usize> = (0..flows.len()).collect();
    let mut rates = vec![0.0f64; flows.len()];
    let mut scratch = MaxMinScratch::new();
    let start = Instant::now();
    max_min_rates_csr(
        &active,
        &offsets,
        &data,
        fabric.capacities(),
        &mut scratch,
        &mut rates,
    );
    let solve_ms = start.elapsed().as_secs_f64() * 1_000.0;
    std::hint::black_box(&rates);
    (flows.len(), fabric.num_channels(), solve_ms)
}

fn measure(nodes: u64, dims: &[usize; 3]) -> ScaleResult {
    let n = nodes as usize;
    let holds = (2 * n).clamp(100_000, 1_000_000);
    let (heap_eps, heap_sum) = hold_model(QueueKind::Heap, n, holds);
    let (calendar_eps, calendar_sum) = hold_model(QueueKind::Calendar, n, holds);
    assert_eq!(
        heap_sum, calendar_sum,
        "queue kinds diverged on the hold model at {nodes} nodes"
    );
    let (flows, channels, solve_ms) = incast_solve(dims);
    ScaleResult {
        nodes,
        hold_events: holds,
        heap_eps,
        calendar_eps,
        flows,
        channels,
        solve_ms,
        peak_rss_bytes: peak_rss_bytes().unwrap_or(0),
    }
}

/// One scale as a single JSON line, so the regression check (and a human
/// diff) can treat the committed baseline line-by-line.
fn json_line(r: &ScaleResult) -> String {
    format!(
        "    {{\"nodes\": {}, \"hold_events\": {}, \"heap_events_per_sec\": {:.0}, \
         \"calendar_events_per_sec\": {:.0}, \"queue_speedup\": {:.2}, \"flows\": {}, \
         \"channels\": {}, \"solve_ms\": {:.2}, \"peak_rss_bytes\": {}}}",
        r.nodes,
        r.hold_events,
        r.heap_eps,
        r.calendar_eps,
        r.calendar_eps / r.heap_eps,
        r.flows,
        r.channels,
        r.solve_ms,
        r.peak_rss_bytes,
    )
}

/// Extract `"calendar_events_per_sec": <value>` from the committed baseline
/// line for `nodes`, without a JSON parser (the vendored serde shim has no
/// deserializer for ad-hoc documents).
fn baseline_calendar_eps(baseline: &str, nodes: u64) -> Option<f64> {
    let line = baseline
        .lines()
        .find(|l| l.contains(&format!("\"nodes\": {nodes},")))?;
    let field = "\"calendar_events_per_sec\": ";
    let at = line.find(field)? + field.len();
    let rest = &line[at..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

fn usage() -> ! {
    eprintln!("usage: bench_scale [--nodes N] [--check-regression R] [--force]");
    std::process::exit(2);
}

fn main() {
    let mut only_nodes: Option<u64> = None;
    let mut check_regression: Option<f64> = None;
    let mut force = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--nodes" => only_nodes = Some(value().parse().unwrap_or_else(|_| usage())),
            "--check-regression" => {
                check_regression = Some(value().parse().unwrap_or_else(|_| usage()));
            }
            "--force" => force = true,
            _ => usage(),
        }
    }

    let mut results: Vec<ScaleResult> = Vec::new();
    for (nodes, dims) in &SCALES {
        if only_nodes.is_some_and(|n| n != *nodes) {
            continue;
        }
        eprintln!("bench_scale: measuring {nodes} nodes ...");
        let r = measure(*nodes, dims);
        println!(
            "{:>9} nodes: heap {:>10.0} ev/s, calendar {:>10.0} ev/s ({:.2}x), \
             solve {:>8.2} ms over {} flows / {} channels, peak RSS {} MiB",
            r.nodes,
            r.heap_eps,
            r.calendar_eps,
            r.calendar_eps / r.heap_eps,
            r.solve_ms,
            r.flows,
            r.channels,
            r.peak_rss_bytes >> 20,
        );
        results.push(r);
    }
    if results.is_empty() {
        eprintln!("bench_scale: --nodes matched no scale (valid: 1000, 10000, 100000, 1000000)");
        std::process::exit(2);
    }

    if let Some(ratio) = check_regression {
        let baseline = std::fs::read_to_string(results_dir().join("bench_scale.json"));
        match baseline {
            Err(e) => eprintln!("bench_scale: no committed baseline to check against ({e})"),
            Ok(baseline) => {
                for r in &results {
                    let Some(reference) = baseline_calendar_eps(&baseline, r.nodes) else {
                        eprintln!("bench_scale: baseline has no entry for {} nodes", r.nodes);
                        continue;
                    };
                    if r.calendar_eps * ratio < reference {
                        eprintln!(
                            "bench_scale: REGRESSION at {} nodes: calendar {:.0} ev/s is more \
                             than {ratio}x below the committed {reference:.0} ev/s",
                            r.nodes, r.calendar_eps,
                        );
                        std::process::exit(1);
                    }
                    eprintln!(
                        "bench_scale: {} nodes within {ratio}x of the committed baseline",
                        r.nodes
                    );
                }
            }
        }
    }

    // Only a full ladder refreshes the committed baseline; a filtered run is
    // a smoke test, not a trajectory point.
    if only_nodes.is_none() {
        let mut json =
            String::from("{\n  \"schema\": \"netpart-bench-scale/v1\",\n  \"scales\": [\n");
        for (i, r) in results.iter().enumerate() {
            json.push_str(&json_line(r));
            json.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
        }
        json.push_str("  ]\n}\n");
        emit_json_baseline("bench_scale", &json, force);
    }
}

//! Telemetry overhead benchmark: the standard scenario sweep with the
//! telemetry spine off vs. writing every event to a file-backed ring.
//!
//! The ring's whole design brief is "cheap enough to leave on": a disabled
//! handle is one branch, an enabled one is a few relaxed atomic stores into
//! a shared mapping. This binary measures that claim on the same >= 24-combo
//! sweep the CI smoke runs and prints the result as one JSON line (the
//! socket benchmark `perfbench` reports the same figure as
//! `telemetry.overhead_pct`).
//!
//! ```text
//! bench_telemetry [--iterations N] [--check-overhead [PCT]]
//! ```
//!
//! `--check-overhead` exits non-zero when the best-of-N observed sweep is
//! more than PCT percent (default 5) slower than the best-of-N plain sweep —
//! the CI regression gate for the telemetry hot path.

use netpart_scenario::{run_sweep, run_sweep_with, standard_sweep, Exec, Telemetry};
use serde::json::Value;
use std::time::Instant;

struct Args {
    iterations: usize,
    check_overhead: Option<f64>,
}

fn usage() -> ! {
    eprintln!("usage: bench_telemetry [--iterations N] [--check-overhead [PCT]]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut parsed = Args {
        iterations: 5,
        check_overhead: None,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--iterations" => {
                parsed.iterations = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--check-overhead" => {
                // Optional threshold: `--check-overhead 3` or bare (5%).
                let pct = match args.peek().and_then(|v| v.parse::<f64>().ok()) {
                    Some(pct) => {
                        args.next();
                        pct
                    }
                    None => 5.0,
                };
                parsed.check_overhead = Some(pct);
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if parsed.iterations == 0 {
        usage();
    }
    parsed
}

fn main() {
    let args = parse_args();
    let specs = standard_sweep();
    let ring_path =
        std::env::temp_dir().join(format!("bench_telemetry_{}.ring", std::process::id()));
    let telemetry = Telemetry::to_ring(&ring_path, 1 << 20).unwrap_or_else(|e| {
        eprintln!(
            "bench_telemetry: cannot create ring {}: {e}",
            ring_path.display()
        );
        std::process::exit(1);
    });
    let observed = Exec {
        telemetry,
        ..Exec::default()
    };

    // Warm-up: populate allocator pools, page in the ring, spin up rayon.
    assert!(run_sweep(&specs).iter().all(Result::is_ok));
    assert!(run_sweep_with(&specs, observed.clone())
        .iter()
        .all(Result::is_ok));

    // Interleave off/on so drift (thermal, scheduler) hits both evenly;
    // best-of-N is the standard defense against one-off noise.
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    for _ in 0..args.iterations {
        let started = Instant::now();
        let results = run_sweep(&specs);
        best_off = best_off.min(started.elapsed().as_secs_f64());
        assert!(results.iter().all(Result::is_ok));

        let started = Instant::now();
        let results = run_sweep_with(&specs, observed.clone());
        best_on = best_on.min(started.elapsed().as_secs_f64());
        assert!(results.iter().all(Result::is_ok));
    }
    let overhead_pct = (best_on - best_off) / best_off * 100.0;
    let events = observed.telemetry.ring_cursor().unwrap_or(0);
    let _ = std::fs::remove_file(&ring_path);

    let report = Value::obj([
        ("benchmark", Value::from("bench_telemetry")),
        ("specs", Value::from(specs.len())),
        ("iterations", Value::from(args.iterations)),
        ("off_seconds", Value::from(best_off)),
        ("on_seconds", Value::from(best_on)),
        ("overhead_pct", Value::from(overhead_pct)),
        ("events_recorded", Value::from(events)),
    ]);
    println!("{report}");
    eprintln!(
        "{} specs, best of {}: off {best_off:.3}s, on {best_on:.3}s ({overhead_pct:+.2}%), \
         {events} events",
        specs.len(),
        args.iterations
    );

    if let Some(threshold) = args.check_overhead {
        if overhead_pct > threshold {
            eprintln!(
                "bench_telemetry: telemetry overhead {overhead_pct:.2}% exceeds {threshold:.2}%"
            );
            std::process::exit(1);
        }
    }
}

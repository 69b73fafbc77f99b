//! Closed-loop load generator for `netpart-service`.
//!
//! Drives N client threads against a server (an external `--addr`, or an
//! in-process one on an ephemeral port when omitted), each sending requests
//! back-to-back, and reports throughput and latency percentiles: a summary
//! line on stderr and the machine-readable report as one JSON line on
//! stdout. The benchmark of record is `perfbench`, whose `cached_mix`
//! workload measures the same cache-hit path.
//!
//! ```text
//! service_loadgen [--addr HOST:PORT] [--requests N] [--threads N]
//!                 [--mix cached|mixed]
//! ```
//!
//! The default `cached` mix repeats one advice query, measuring the
//! cache-hit fast path (the paper's advice is deterministic, so this is the
//! steady state a scheduler integration would see). `mixed` rotates over
//! advice, bisection and small flow-simulation queries.

use netpart_service::client::ServiceClient;
use netpart_service::protocol::{FlowSpec, Request, Response, TopologySpec};
use netpart_service::server::{serve, ServerConfig};
use serde::json::Value;
use std::time::Instant;

struct Args {
    addr: Option<String>,
    requests: usize,
    threads: usize,
    mix: Mix,
}

#[derive(Clone, Copy, PartialEq)]
enum Mix {
    Cached,
    Mixed,
}

fn usage() -> ! {
    eprintln!(
        "usage: service_loadgen [--addr HOST:PORT] [--requests N] [--threads N] \
         [--mix cached|mixed]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut parsed = Args {
        addr: None,
        requests: 50_000,
        threads: 8,
        mix: Mix::Cached,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => parsed.addr = Some(value()),
            "--requests" => parsed.requests = value().parse().unwrap_or_else(|_| usage()),
            "--threads" => parsed.threads = value().parse().unwrap_or_else(|_| usage()),
            "--mix" => {
                parsed.mix = match value().as_str() {
                    "cached" => Mix::Cached,
                    "mixed" => Mix::Mixed,
                    _ => usage(),
                }
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if parsed.requests == 0 || parsed.threads == 0 {
        usage();
    }
    parsed
}

/// The request each iteration sends; `slot` rotates over the mixed set.
fn request_for(mix: Mix, slot: usize) -> Request {
    let cached_advice = Request::Advise {
        machine: "mira".into(),
        size: 16,
        kernel: None,
    };
    match mix {
        Mix::Cached => cached_advice,
        Mix::Mixed => match slot % 4 {
            0 => cached_advice,
            1 => Request::Advise {
                machine: "juqueen".into(),
                size: 8,
                kernel: None,
            },
            2 => Request::Bisection {
                topology: "torus".into(),
                dims: vec![8, 4, 4],
            },
            _ => Request::SimulateFlows {
                topology: TopologySpec::Torus(vec![4, 4]),
                flows: (0..16)
                    .map(|src| FlowSpec {
                        src,
                        dst: (src + 9) % 16,
                        gigabytes: 0.5,
                    })
                    .collect(),
            },
        },
    }
}

fn percentile_us(sorted_nanos: &[u64], q: f64) -> f64 {
    if sorted_nanos.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted_nanos.len() as f64).ceil() as usize).clamp(1, sorted_nanos.len());
    sorted_nanos[rank - 1] as f64 / 1_000.0
}

fn main() {
    let args = parse_args();

    // External server, or an in-process one on an ephemeral port. The
    // in-process server gets one worker per client thread: each worker owns
    // one connection until EOF, so fewer workers than clients would leave
    // whole connections queued and the latency samples would measure
    // connection scheduling instead of the serving path.
    let in_process = match &args.addr {
        Some(_) => None,
        None => Some(
            serve(ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: args.threads,
                ..ServerConfig::default()
            })
            .unwrap_or_else(|e| {
                eprintln!("service_loadgen: failed to start in-process server: {e}");
                std::process::exit(1);
            }),
        ),
    };
    let addr = args.addr.clone().unwrap_or_else(|| {
        in_process
            .as_ref()
            .expect("spawned above")
            .local_addr()
            .to_string()
    });

    let per_thread = args.requests.div_ceil(args.threads);
    let total = per_thread * args.threads;
    let started = Instant::now();
    let mut latencies: Vec<u64> = Vec::with_capacity(total);
    let lat_chunks: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..args.threads)
            .map(|t| {
                let addr = addr.clone();
                s.spawn(move || {
                    let mut client = ServiceClient::connect(&*addr).unwrap_or_else(|e| {
                        eprintln!("service_loadgen: connect failed: {e}");
                        std::process::exit(1);
                    });
                    let mut nanos = Vec::with_capacity(per_thread);
                    for i in 0..per_thread {
                        let request = request_for(args.mix, t + i);
                        let sent = Instant::now();
                        match client.request(&request) {
                            Ok(Response::Error { code, message }) => {
                                eprintln!(
                                    "service_loadgen: server error {}: {message}",
                                    code.as_str()
                                );
                                std::process::exit(1);
                            }
                            Ok(_) => nanos.push(sent.elapsed().as_nanos() as u64),
                            Err(e) => {
                                eprintln!("service_loadgen: request failed: {e}");
                                std::process::exit(1);
                            }
                        }
                    }
                    nanos
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    for chunk in lat_chunks {
        latencies.extend(chunk);
    }
    latencies.sort_unstable();

    let throughput = total as f64 / wall;
    let p50 = percentile_us(&latencies, 0.50);
    let p99 = percentile_us(&latencies, 0.99);
    let mean = latencies.iter().sum::<u64>() as f64 / latencies.len() as f64 / 1_000.0;

    // Cache statistics and the server's own latency view (its log2-bucket
    // histogram measures the serving path without client-side socket time).
    let stats = ServiceClient::connect(&*addr)
        .and_then(|mut c| c.stats())
        .ok();
    let (hits, misses, hit_rate, coalesced) = stats
        .as_ref()
        .map(|s| (s.cache_hits, s.cache_misses, s.hit_rate(), s.coalesced))
        .unwrap_or((0, 0, 0.0, 0));
    let (server_p50, server_p99) = stats
        .as_ref()
        .map(|s| (s.latency_p50_us, s.latency_p99_us))
        .unwrap_or((0.0, 0.0));

    if let Some(handle) = in_process {
        handle.shutdown();
        handle.join();
    }

    let mix = match args.mix {
        Mix::Cached => "cached",
        Mix::Mixed => "mixed",
    };
    let report = Value::obj([
        ("benchmark", Value::from("service_loadgen")),
        ("mix", Value::from(mix)),
        ("requests", Value::from(total)),
        ("threads", Value::from(args.threads)),
        ("wall_seconds", Value::from(wall)),
        ("throughput_rps", Value::from(throughput)),
        (
            "latency_us",
            Value::obj([
                ("p50", Value::from(p50)),
                ("p99", Value::from(p99)),
                ("mean", Value::from(mean)),
            ]),
        ),
        (
            "server_latency_us",
            Value::obj([
                ("p50", Value::from(server_p50)),
                ("p99", Value::from(server_p99)),
            ]),
        ),
        (
            "cache",
            Value::obj([
                ("hits", Value::from(hits)),
                ("misses", Value::from(misses)),
                ("hit_rate", Value::from(hit_rate)),
                ("coalesced", Value::from(coalesced)),
            ]),
        ),
    ]);
    println!("{report}");
    eprintln!(
        "{total} requests over {} threads in {wall:.3}s: {throughput:.0} req/s, \
         p50 {p50:.1}us, p99 {p99:.1}us (server-side p50 {server_p50:.1}us, \
         p99 {server_p99:.1}us), cache hit rate {:.1}%",
        args.threads,
        hit_rate * 100.0
    );
}

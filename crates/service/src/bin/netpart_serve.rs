//! Run the allocation-advisor daemon.
//!
//! ```text
//! netpart_serve [--addr HOST:PORT] [--workers N] [--cache-capacity N]
//!               [--solver batch|incremental] [--queue heap|calendar]
//!               [--telemetry-ring PATH] [--telemetry-ring-capacity N]
//!               [--trace-slow-ms N] [--trace-dir DIR]
//! ```
//!
//! Prints one `listening on <addr>` line once the socket is bound, then
//! serves until a client sends `{"type":"shutdown"}`.
//!
//! `--solver` and `--queue` choose the max–min solver and the event-queue
//! core of the simulations each request runs (flow sets, cluster
//! penalties, sweeps, policy replays; advice scores on batch in release
//! builds). They travel
//! with the request in the server's execution context rather than as
//! process-wide defaults, and every choice answers byte-identically.
//!
//! With `--telemetry-ring`, every request and solver milestone — plus the
//! causal span tree of every request — is appended to a file-backed ring
//! that `telemetry_tail` / `telemetry_trace` (from `netpart-telemetry`) can
//! follow or reconstruct from another process. Event loops add an
//! `EngineProgress` heartbeat every 4096 events.
//!
//! `--trace-slow-ms N` (requires `--telemetry-ring`) arms the slow-request
//! flight recorder: any request slower than N ms gets its span tree dumped
//! as Chrome trace JSON into `--trace-dir` (default: the ring path with a
//! `.traces` extension), rotating through a bounded set of slot files.

use netpart_engine::{QueueKind, SolverMode};
use netpart_service::server::{serve, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: netpart_serve [--addr HOST:PORT] [--workers N] [--cache-capacity N] \
         [--solver batch|incremental] [--queue heap|calendar] [--telemetry-ring PATH] \
         [--telemetry-ring-capacity N] [--trace-slow-ms N] [--trace-dir DIR]"
    );
    std::process::exit(2);
}

fn main() {
    let mut config = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => config.addr = value(),
            "--workers" => {
                config.workers = value().parse().unwrap_or_else(|_| usage());
            }
            "--cache-capacity" => {
                config.cache_capacity = value().parse().unwrap_or_else(|_| usage());
            }
            "--solver" => {
                config.solver = SolverMode::from_label(&value()).unwrap_or_else(|| usage());
            }
            "--queue" => {
                config.queue = QueueKind::from_label(&value()).unwrap_or_else(|| usage());
            }
            "--telemetry-ring" => {
                config.telemetry_ring = Some(std::path::PathBuf::from(value()));
            }
            "--telemetry-ring-capacity" => {
                config.telemetry_ring_capacity = value().parse().unwrap_or_else(|_| usage());
            }
            "--trace-slow-ms" => {
                config.trace_slow_ms = Some(value().parse().unwrap_or_else(|_| usage()));
            }
            "--trace-dir" => {
                config.trace_dir = Some(std::path::PathBuf::from(value()));
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    match serve(config) {
        Ok(handle) => {
            println!("netpart-service listening on {}", handle.local_addr());
            handle.join();
            println!("netpart-service stopped");
        }
        Err(e) => {
            eprintln!("netpart_serve: {e}");
            std::process::exit(1);
        }
    }
}

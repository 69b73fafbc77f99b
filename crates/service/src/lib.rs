//! # netpart-service — the allocation-advisor daemon
//!
//! Everything else in this workspace is a one-shot computation: build a
//! model, answer one question, exit. This crate turns the paper's
//! avoidable-contention advice into a long-running service so a scheduler
//! (or a load generator) can ask the same questions over a socket and get
//! amortized answers:
//!
//! * **Protocol** ([`protocol`]): JSON-lines over TCP — one request object
//!   per line, one response per line, all typed enums rendered canonically
//!   by the vendored `serde::json` module.
//! * **Server** ([`server`]): `std`-only thread pool (acceptor + workers +
//!   bounded hand-off channel) with graceful shutdown via a `shutdown`
//!   request or [`server::ServerHandle::shutdown`].
//! * **Caching** ([`cache`]): a sharded LRU keyed on the canonicalized
//!   request, so repeated advice/bisection queries are O(1) lookups.
//! * **Batching** ([`batch`]): identical in-flight simulations coalesce
//!   onto one computation (single-flight).
//! * **Metrics** ([`metrics`]): request counters and log₂ latency
//!   histograms, served by the `stats` endpoint.
//! * **Client** ([`client`]): a small blocking client used by the tests,
//!   the example session, the `service_loadgen` load generator and
//!   perfbench.
//!
//! ## Binaries
//!
//! * `netpart_serve` — run the daemon: `cargo run --release --bin
//!   netpart_serve -- --addr 127.0.0.1:7878`
//! * `service_loadgen` — closed-loop load generator reporting throughput
//!   and p50/p99 latency (the CI load smoke; the benchmark of record is
//!   `perfbench/` at the repository root).
//! * `bench_telemetry` — the standard sweep with the telemetry ring off
//!   and on; `--check-overhead 5` is the CI gate on recording cost.
//!
//! ## A one-minute session
//!
//! ```
//! use netpart_service::client::ServiceClient;
//! use netpart_service::protocol::{Request, Response};
//! use netpart_service::server::{serve, ServerConfig};
//!
//! let handle = serve(ServerConfig {
//!     addr: "127.0.0.1:0".into(), // ephemeral port
//!     ..ServerConfig::default()
//! })
//! .unwrap();
//! let mut client = ServiceClient::connect(handle.local_addr()).unwrap();
//! let advice = client
//!     .request(&Request::Advise {
//!         machine: "mira".into(),
//!         size: 16,
//!         kernel: None,
//!     })
//!     .unwrap();
//! match advice {
//!     Response::Advice { predicted_speedup, .. } => {
//!         assert!((predicted_speedup - 2.0).abs() < 1e-9)
//!     }
//!     other => panic!("unexpected response {other:?}"),
//! }
//! client.shutdown().unwrap();
//! handle.join();
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod client;
pub mod handlers;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use client::{ClientError, ServiceClient};
pub use protocol::{Request, Response};
pub use server::{serve, ServerConfig, ServerHandle};

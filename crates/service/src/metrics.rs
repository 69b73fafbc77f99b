//! In-process metrics: request counters and latency histograms.
//!
//! Everything is lock-free (`AtomicU64`) so the hot path costs a few
//! fetch-adds. Latencies go into a log₂-bucketed histogram (one bucket per
//! power of two nanoseconds), from which quantiles are answered with at
//! most 2× relative error — ample for the p50/p99 the `Stats` endpoint
//! reports.

use crate::protocol::StatsSnapshot;
use netpart_telemetry::CounterSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Request kinds tracked separately (wire names from
/// [`Request::kind`](crate::protocol::Request::kind), plus the synthetic
/// `invalid` kind for lines that never decoded to a request).
///
/// `invalid` must stay last: [`Metrics::count_request`] folds unknown kinds
/// into the final slot.
pub const KINDS: [&str; 13] = [
    "advise",
    "bisection",
    "simulate_flows",
    "cluster_sim",
    "policy_sim",
    "sweep",
    "advise_fabric",
    "readvise",
    "allocation_sweep",
    "health",
    "stats",
    "shutdown",
    "invalid",
];

/// Index of `kind` in [`KINDS`]; unknown kinds land on the `invalid` slot.
fn kind_index(kind: &str) -> usize {
    KINDS
        .iter()
        .position(|&k| k == kind)
        .unwrap_or(KINDS.len() - 1)
}

/// Number of log₂ latency buckets: bucket `i` holds samples in
/// `[2^i, 2^(i+1))` nanoseconds; 48 buckets cover ~3 days.
const BUCKETS: usize = 48;

/// A log₂ latency histogram.
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl LatencyHistogram {
    fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one sample.
    pub fn record_nanos(&self, nanos: u64) {
        let bucket = (63 - nanos.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// The `q`-quantile (`0 < q <= 1`) in microseconds, taken as the upper
    /// edge of the bucket containing the quantile rank. 0 when empty.
    pub fn quantile_us(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 2f64.powi(i as i32 + 1) / 1_000.0;
            }
        }
        2f64.powi(BUCKETS as i32) / 1_000.0
    }
}

/// The service's metrics registry.
pub struct Metrics {
    started: Instant,
    requests: [AtomicU64; KINDS.len()],
    cache_hits: [AtomicU64; KINDS.len()],
    cache_misses: [AtomicU64; KINDS.len()],
    /// Requests coalesced onto an identical in-flight computation.
    pub coalesced: AtomicU64,
    latency: LatencyHistogram,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// A fresh registry; the uptime clock starts now.
    pub fn new() -> Self {
        Metrics {
            started: Instant::now(),
            requests: std::array::from_fn(|_| AtomicU64::new(0)),
            cache_hits: std::array::from_fn(|_| AtomicU64::new(0)),
            cache_misses: std::array::from_fn(|_| AtomicU64::new(0)),
            coalesced: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
        }
    }

    /// Count one request of `kind` (an unknown kind counts as `invalid`).
    pub fn count_request(&self, kind: &str) {
        self.requests[kind_index(kind)].fetch_add(1, Ordering::Relaxed);
    }

    /// Count one response-cache hit for `kind`.
    pub fn count_cache_hit(&self, kind: &str) {
        self.cache_hits[kind_index(kind)].fetch_add(1, Ordering::Relaxed);
    }

    /// Count one response-cache miss for `kind`.
    pub fn count_cache_miss(&self, kind: &str) {
        self.cache_misses[kind_index(kind)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one request latency.
    pub fn record_latency_nanos(&self, nanos: u64) {
        self.latency.record_nanos(nanos);
    }

    /// Seconds since the registry was created.
    pub fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Assemble the `Stats` payload, folding in the cache's entry count and
    /// the solver's telemetry aggregates (`None` when the server runs
    /// without a telemetry handle). The cache totals are the sums of the
    /// per-kind counts.
    pub fn snapshot(&self, cache_entries: usize, solver: Option<CounterSnapshot>) -> StatsSnapshot {
        // Sorted by kind name, matching the canonical (sorted-key) wire
        // form so a snapshot equals its own encode/decode round trip.
        let sorted_nonzero = |counters: &[AtomicU64; KINDS.len()]| -> Vec<(String, u64)> {
            let mut pairs: Vec<(String, u64)> = KINDS
                .iter()
                .zip(counters)
                .map(|(k, n)| (k.to_string(), n.load(Ordering::Relaxed)))
                .filter(|(_, n)| *n > 0)
                .collect();
            pairs.sort();
            pairs
        };
        let total = |by_kind: &[(String, u64)]| by_kind.iter().map(|(_, n)| n).sum();
        let by_kind = sorted_nonzero(&self.requests);
        let hits_by_kind = sorted_nonzero(&self.cache_hits);
        let misses_by_kind = sorted_nonzero(&self.cache_misses);
        let solver = solver.unwrap_or_default();
        StatsSnapshot {
            uptime_seconds: self.uptime_seconds(),
            requests_total: total(&by_kind),
            requests_by_kind: by_kind,
            cache_hits: total(&hits_by_kind),
            cache_misses: total(&misses_by_kind),
            cache_entries,
            cache_hits_by_kind: hits_by_kind,
            cache_misses_by_kind: misses_by_kind,
            coalesced: self.coalesced.load(Ordering::Relaxed),
            latency_p50_us: self.latency.quantile_us(0.5),
            latency_p99_us: self.latency.quantile_us(0.99),
            solver_repairs: solver.solver_repairs,
            solver_full_solves: solver.solver_full_solves,
            solver_rounds: solver.solver_rounds,
            advice_reused_flows: solver.advice_reused_flows,
            advice_total_flows: solver.advice_total_flows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bound_samples() {
        let h = LatencyHistogram::new();
        for us in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 10_000] {
            h.record_nanos(us * 1_000);
        }
        let p50 = h.quantile_us(0.5);
        // True median 50us; log2 bucket upper edge gives at most 2x error.
        assert!((32.0..=128.0).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile_us(0.99);
        assert!(p99 >= 10_000.0, "p99 = {p99} must reach the outlier bucket");
        assert_eq!(LatencyHistogram::new().quantile_us(0.5), 0.0);
    }

    #[test]
    fn snapshot_aggregates_counts() {
        let m = Metrics::new();
        m.count_request("advise");
        m.count_request("advise");
        m.count_request("stats");
        m.count_request("no-such-kind");
        m.count_cache_hit("advise");
        m.count_cache_hit("advise");
        m.count_cache_hit("sweep");
        m.count_cache_miss("sweep");
        m.record_latency_nanos(5_000);
        let s = m.snapshot(2, None);
        assert_eq!(s.requests_total, 4);
        assert!(s.requests_by_kind.contains(&("advise".to_string(), 2)));
        assert!(s.requests_by_kind.contains(&("invalid".to_string(), 1)));
        // The cache totals are the per-kind counts summed.
        assert_eq!(s.cache_hits, 3);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_entries, 2);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert!(s.latency_p50_us > 0.0);
        assert_eq!(s.solver_repairs, 0);
    }

    #[test]
    fn snapshot_reports_per_kind_cache_traffic_and_solver_aggregates() {
        let m = Metrics::new();
        m.count_cache_hit("advise");
        m.count_cache_hit("advise");
        m.count_cache_hit("sweep");
        m.count_cache_miss("sweep");
        let s = m.snapshot(
            2,
            Some(CounterSnapshot {
                solver_repairs: 7,
                solver_full_solves: 2,
                solver_rounds: 40,
                advice_reused_flows: 90,
                advice_total_flows: 120,
            }),
        );
        // Sorted by kind, zero-count kinds omitted.
        assert_eq!(
            s.cache_hits_by_kind,
            vec![("advise".to_string(), 2), ("sweep".to_string(), 1)]
        );
        assert_eq!(s.cache_misses_by_kind, vec![("sweep".to_string(), 1)]);
        assert_eq!(s.solver_repairs, 7);
        assert_eq!(s.solver_full_solves, 2);
        assert_eq!(s.solver_rounds, 40);
        assert_eq!(s.advice_reused_flows, 90);
        assert_eq!(s.advice_total_flows, 120);
        assert!((s.advice_reuse_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn concurrent_cache_traffic_is_counted_once_per_lookup() {
        // The request path counts each response-cache lookup once, by kind,
        // from every worker at once; the totals lose nothing.
        let m = Metrics::new();
        std::thread::scope(|s| {
            for t in 0..8 {
                let m = &m;
                s.spawn(move || {
                    for i in 0..500 {
                        let kind = KINDS[(t * 31 + i) % KINDS.len()];
                        if i % 3 == 0 {
                            m.count_cache_miss(kind);
                        } else {
                            m.count_cache_hit(kind);
                        }
                    }
                });
            }
        });
        let s = m.snapshot(0, None);
        assert_eq!(s.cache_misses, 8 * 167);
        assert_eq!(s.cache_hits + s.cache_misses, 8 * 500);
        let summed = |by_kind: &[(String, u64)]| by_kind.iter().map(|(_, n)| n).sum::<u64>();
        assert_eq!(summed(&s.cache_hits_by_kind), s.cache_hits);
        assert_eq!(summed(&s.cache_misses_by_kind), s.cache_misses);
    }

    #[test]
    fn kinds_covers_every_request_kind() {
        use crate::protocol::Request;
        // One sample per variant. The match below has no wildcard, so adding
        // a `Request` variant fails compilation here until a sample (and its
        // wire name in `KINDS`) is added.
        let samples = vec![
            Request::Advise {
                machine: "mira".into(),
                size: 16,
                kernel: None,
            },
            Request::Bisection {
                topology: "torus".into(),
                dims: vec![4, 4],
            },
            Request::SimulateFlows {
                topology: crate::protocol::TopologySpec::Torus(vec![2, 2]),
                flows: vec![],
            },
            Request::ClusterSim {
                topology: crate::protocol::TopologySpec::Torus(vec![2, 2]),
                jobs: 1,
                max_nodes: 2,
                mean_gap: 1.0,
                gigabytes: 1.0,
                allocator: crate::protocol::AllocatorSpec::Compact,
            },
            Request::PolicySim {
                machine: "mira".into(),
                jobs: 1,
                seed: 0,
                policy: crate::protocol::PolicySpec::Best,
            },
            Request::Sweep { scenarios: vec![] },
            Request::AdviseFabric {
                spec: crate::protocol::AdviceSpec {
                    topology: crate::protocol::TopologySpec::Torus(vec![2, 2]),
                    routing: crate::protocol::RoutingSpec::ShortestPath,
                    nodes: 2,
                    gigabytes: 1.0,
                    candidates: vec![],
                    seed: 0,
                },
            },
            Request::Readvise {
                spec: crate::protocol::AdviceSpec {
                    topology: crate::protocol::TopologySpec::Torus(vec![2, 2]),
                    routing: crate::protocol::RoutingSpec::ShortestPath,
                    nodes: 2,
                    gigabytes: 1.0,
                    candidates: vec![],
                    seed: 0,
                },
                patch: crate::protocol::FabricPatch {
                    links: vec![],
                    nodes: vec![],
                },
            },
            Request::AllocationSweep { specs: vec![] },
            Request::Health,
            Request::Stats,
            Request::Shutdown,
        ];
        for request in &samples {
            match request {
                Request::Advise { .. }
                | Request::Bisection { .. }
                | Request::SimulateFlows { .. }
                | Request::ClusterSim { .. }
                | Request::PolicySim { .. }
                | Request::Sweep { .. }
                | Request::AdviseFabric { .. }
                | Request::Readvise { .. }
                | Request::AllocationSweep { .. }
                | Request::Health
                | Request::Stats
                | Request::Shutdown => {}
            }
            assert!(
                KINDS.contains(&request.kind()),
                "KINDS is missing wire kind '{}'",
                request.kind()
            );
        }
        // Every variant plus the synthetic `invalid` kind, which must stay
        // last (count_request folds unknown kinds into the final slot).
        assert_eq!(KINDS.len(), samples.len() + 1);
        assert_eq!(KINDS.last(), Some(&"invalid"));
    }
}

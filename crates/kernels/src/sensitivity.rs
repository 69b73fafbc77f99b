//! Bisection sensitivity of machine benchmarks.
//!
//! The paper's future-work section proposes "testing bisection sensitivity of
//! machine benchmarks … by comparing the score of equal-sized partitions with
//! different bisection bandwidths". This module is that harness: it runs a
//! kernel workload on two partition geometries of identical node count and
//! reports how much of the bisection-bandwidth difference shows up in the
//! benchmark score. A sensitivity of 1 means the benchmark time scales
//! exactly with the inverse bisection (fully contention-bound, like the
//! bisection-pairing benchmark); a sensitivity of 0 means the benchmark does
//! not notice the geometry at all (nearest-neighbour traffic or compute-bound
//! workloads).

use crate::fft::{run_fft, FftConfig};
use crate::nbody::{run_nbody_step, NBodyConfig};
use crate::summa::{run_summa, SummaConfig};
use netpart_engine::{pairing_flows, Fabric};
use netpart_iso::bisection::torus_bisection_links;
use netpart_mpi::{phase_seconds, RankMapping};
use netpart_topology::Torus;

/// A benchmark workload whose communication can be replayed on any partition.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// The paper's bisection-pairing ping-pong: antipodal pairs exchange
    /// `gigabytes` each (a single round).
    BisectionPairing {
        /// Message size per pair and direction (GB).
        gigabytes: f64,
    },
    /// One direct N-body time step (systolic ring).
    NBody(NBodyConfig),
    /// Distributed FFT transposes.
    Fft(FftConfig),
    /// SUMMA classical matrix multiplication.
    Summa(SummaConfig),
}

impl Workload {
    /// Human-readable workload name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::BisectionPairing { .. } => "bisection pairing",
            Workload::NBody(_) => "direct N-body",
            Workload::Fft(_) => "FFT",
            Workload::Summa(_) => "SUMMA matmul",
        }
    }

    /// Communication time of this workload on a partition with the given
    /// node-level torus dimensions (one rank per node for the kernel
    /// workloads).
    ///
    /// # Panics
    /// Panics if a kernel workload's rank count does not equal the node count
    /// of the partition.
    pub fn comm_seconds(&self, node_dims: &[usize]) -> f64 {
        let fabric = Fabric::from_torus(Torus::new(node_dims.to_vec()), 2.0);
        let mapping = || RankMapping::one_rank_per_node(fabric.num_nodes());
        match *self {
            Workload::BisectionPairing { gigabytes } => {
                phase_seconds(&fabric, &pairing_flows(&fabric, gigabytes))
            }
            Workload::NBody(config) => run_nbody_step(&fabric, &mapping(), &config).comm_seconds,
            Workload::Fft(config) => run_fft(&fabric, &mapping(), &config).comm_seconds,
            Workload::Summa(config) => {
                run_summa(&fabric, &mapping(), &config, Some(1)).comm_seconds
            }
        }
    }
}

/// Outcome of a bisection-sensitivity comparison between two equal-sized
/// partition geometries.
#[derive(Debug, Clone)]
pub struct SensitivityReport {
    /// Node-level dimensions of the lower-bisection geometry.
    pub low_dims: Vec<usize>,
    /// Node-level dimensions of the higher-bisection geometry.
    pub high_dims: Vec<usize>,
    /// Bisection links of the lower-bisection geometry.
    pub low_bisection: u64,
    /// Bisection links of the higher-bisection geometry.
    pub high_bisection: u64,
    /// Benchmark communication time on the lower-bisection geometry (s).
    pub low_seconds: f64,
    /// Benchmark communication time on the higher-bisection geometry (s).
    pub high_seconds: f64,
}

impl SensitivityReport {
    /// Speedup the benchmark observes from the better geometry.
    pub fn observed_speedup(&self) -> f64 {
        if self.high_seconds <= 0.0 {
            1.0
        } else {
            self.low_seconds / self.high_seconds
        }
    }

    /// Ratio of the bisection bandwidths (the speedup a fully contention-bound
    /// benchmark would observe).
    pub fn bisection_ratio(&self) -> f64 {
        self.high_bisection as f64 / self.low_bisection as f64
    }

    /// Bisection sensitivity in `[0, 1]`: the elasticity of the benchmark
    /// time with respect to the bisection bandwidth,
    /// `log(observed speedup) / log(bisection ratio)`. Values can slightly
    /// exceed 1 when secondary effects (path diversity) compound the
    /// bisection effect; values near 0 mean the benchmark cannot detect the
    /// geometry difference.
    pub fn sensitivity(&self) -> f64 {
        let ratio = self.bisection_ratio();
        if (ratio - 1.0).abs() < 1e-12 {
            return 0.0;
        }
        self.observed_speedup().ln() / ratio.ln()
    }
}

/// Run a workload on two equal-sized partition geometries and report its
/// bisection sensitivity. The geometry with the smaller bisection is reported
/// as `low`.
///
/// # Panics
/// Panics if the two geometries have different node counts.
pub fn bisection_sensitivity(
    workload: &Workload,
    dims_a: &[usize],
    dims_b: &[usize],
) -> SensitivityReport {
    let nodes_a: usize = dims_a.iter().product();
    let nodes_b: usize = dims_b.iter().product();
    assert_eq!(
        nodes_a, nodes_b,
        "sensitivity comparison requires equal node counts"
    );
    let bisection_a = torus_bisection_links(dims_a);
    let bisection_b = torus_bisection_links(dims_b);
    let ((low_dims, low_bisection), (high_dims, high_bisection)) = if bisection_a <= bisection_b {
        ((dims_a, bisection_a), (dims_b, bisection_b))
    } else {
        ((dims_b, bisection_b), (dims_a, bisection_a))
    };
    SensitivityReport {
        low_dims: low_dims.to_vec(),
        high_dims: high_dims.to_vec(),
        low_bisection,
        high_bisection,
        low_seconds: workload.comm_seconds(low_dims),
        high_seconds: workload.comm_seconds(high_dims),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Two 128-node partitions with a x2 bisection difference, small enough to
    // simulate quickly: 8x4x2x2 (32 links) vs 4x4x4x2 (64 links).
    const LOW: [usize; 4] = [8, 4, 2, 2];
    const HIGH: [usize; 4] = [4, 4, 4, 2];

    #[test]
    fn pairing_benchmark_is_fully_bisection_sensitive() {
        let workload = Workload::BisectionPairing { gigabytes: 0.5 };
        let report = bisection_sensitivity(&workload, &LOW, &HIGH);
        assert_eq!(report.low_bisection, 32);
        assert_eq!(report.high_bisection, 64);
        assert!((report.bisection_ratio() - 2.0).abs() < 1e-12);
        assert!(
            report.sensitivity() > 0.85,
            "pairing sensitivity {}",
            report.sensitivity()
        );
    }

    #[test]
    fn nearest_neighbour_ring_is_bisection_insensitive() {
        let workload = Workload::NBody(NBodyConfig {
            bodies: 1 << 18,
            ranks: 128,
        });
        let report = bisection_sensitivity(&workload, &LOW, &HIGH);
        assert!(
            report.sensitivity().abs() < 0.35,
            "N-body ring sensitivity {}",
            report.sensitivity()
        );
    }

    #[test]
    fn all_to_all_fft_sits_between_the_extremes() {
        // The FFT all-to-all touches the bisection but spreads load over every
        // link, so its sensitivity lands strictly between the ring (≈0) and
        // the pairing benchmark (≈1).
        let fft = bisection_sensitivity(
            &Workload::Fft(FftConfig::four_step(1 << 22, 128)),
            &LOW,
            &HIGH,
        );
        let ring = bisection_sensitivity(
            &Workload::NBody(NBodyConfig {
                bodies: 1 << 18,
                ranks: 128,
            }),
            &LOW,
            &HIGH,
        );
        let s_fft = fft.sensitivity();
        let s_ring = ring.sensitivity();
        assert!(s_fft > s_ring, "FFT {s_fft} should exceed ring {s_ring}");
        assert!(s_fft > 0.05, "FFT sensitivity {s_fft} unexpectedly low");
        assert!(s_fft < 1.05, "FFT sensitivity {s_fft} unexpectedly high");
        assert!(fft.observed_speedup() >= 1.0);
    }

    #[test]
    fn report_orients_low_and_high_consistently() {
        let workload = Workload::BisectionPairing { gigabytes: 0.1 };
        let forward = bisection_sensitivity(&workload, &LOW, &HIGH);
        let reversed = bisection_sensitivity(&workload, &HIGH, &LOW);
        assert_eq!(forward.low_dims, reversed.low_dims);
        assert_eq!(forward.high_bisection, reversed.high_bisection);
    }

    #[test]
    fn equal_geometries_have_zero_sensitivity() {
        let workload = Workload::BisectionPairing { gigabytes: 0.1 };
        let report = bisection_sensitivity(&workload, &HIGH, &HIGH);
        assert_eq!(report.sensitivity(), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal node counts")]
    fn unequal_sizes_rejected() {
        let workload = Workload::BisectionPairing { gigabytes: 0.1 };
        let _ = bisection_sensitivity(&workload, &[4, 4, 2], &[4, 4, 4]);
    }
}

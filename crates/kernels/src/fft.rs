//! Parallel FFT (transpose algorithm) communication model.
//!
//! The paper's future-work section lists high-performance FFT among the
//! kernels whose better hardware utilisation would make the partition
//! geometry effect *more* visible (less time hidden behind computation).
//! The dominant communication of a distributed FFT is the global transpose:
//! each of the `P` ranks exchanges a personalised block of `n / P²` complex
//! values with every other rank — an all-to-all. The standard two-pass
//! (four-step) algorithm performs this transpose twice (once before and once
//! after the local FFT stages), with an optional third transpose when the
//! output must be returned in natural order.

use netpart_engine::Fabric;
use netpart_mpi::collectives::{self, Phases};
use netpart_mpi::{phase_seconds, RankMapping};

/// Bytes per complex double-precision value.
pub const BYTES_PER_COMPLEX: f64 = 16.0;

/// Configuration of a distributed FFT.
#[derive(Debug, Clone, Copy)]
pub struct FftConfig {
    /// Transform length (number of complex points).
    pub points: u64,
    /// Number of ranks.
    pub ranks: usize,
    /// Number of global transposes performed (2 for the classic four-step
    /// algorithm, 3 when natural output ordering is required).
    pub transposes: usize,
}

impl FftConfig {
    /// Classic four-step FFT: two transposes.
    pub fn four_step(points: u64, ranks: usize) -> Self {
        Self {
            points,
            ranks,
            transposes: 2,
        }
    }

    /// Gigabytes of the personalised block each rank sends to each other rank
    /// during one transpose.
    pub fn block_gigabytes(&self) -> f64 {
        self.points as f64 / (self.ranks as f64 * self.ranks as f64) * BYTES_PER_COMPLEX / 1e9
    }

    /// Total gigabytes injected per transpose.
    pub fn transpose_volume_gb(&self) -> f64 {
        self.block_gigabytes() * (self.ranks * (self.ranks - 1)) as f64
    }
}

/// The phases of one global transpose (a full personalised all-to-all).
pub fn transpose_phases(mapping: &RankMapping, config: &FftConfig) -> Phases {
    assert_eq!(
        mapping.num_ranks(),
        config.ranks,
        "mapping rank count must match the FFT configuration"
    );
    collectives::all_to_all(mapping, config.block_gigabytes())
}

/// Result of simulating the communication of a distributed FFT.
#[derive(Debug, Clone, Copy)]
pub struct FftResult {
    /// Communication time of a single transpose (seconds).
    pub transpose_seconds: f64,
    /// Communication time of the whole FFT (all transposes, seconds).
    pub comm_seconds: f64,
    /// Total volume injected (GB).
    pub volume_gb: f64,
}

/// Simulate the transposes of a distributed FFT on a torus partition
/// fabric (see [`phase_seconds`]).
pub fn run_fft(fabric: &Fabric, mapping: &RankMapping, config: &FftConfig) -> FftResult {
    let phases = transpose_phases(mapping, config);
    let mut transpose_seconds = 0.0;
    for flows in &phases {
        transpose_seconds += phase_seconds(fabric, flows);
    }
    FftResult {
        transpose_seconds,
        comm_seconds: transpose_seconds * config.transposes as f64,
        volume_gb: config.transpose_volume_gb() * config.transposes as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_mpi::collectives::total_volume;
    use netpart_topology::Torus;

    #[test]
    fn four_step_configuration_uses_two_transposes() {
        let config = FftConfig::four_step(1 << 20, 64);
        assert_eq!(config.transposes, 2);
        let expected_block = (1u64 << 20) as f64 / (64.0 * 64.0) * 16.0 / 1e9;
        assert!((config.block_gigabytes() - expected_block).abs() < 1e-18);
    }

    #[test]
    fn transpose_volume_matches_phase_list() {
        let config = FftConfig::four_step(1 << 18, 16);
        let mapping = RankMapping::one_rank_per_node(16);
        let phases = transpose_phases(&mapping, &config);
        // all_to_all produces P - 1 phases of P flows each.
        assert_eq!(phases.len(), 15);
        assert!(phases.iter().all(|p| p.len() == 16));
        assert!((total_volume(&phases) - config.transpose_volume_gb()).abs() < 1e-12);
    }

    #[test]
    fn fft_time_scales_with_transform_length() {
        let dims = [4usize, 2, 2];
        let fabric = Fabric::from_torus(Torus::new(dims.to_vec()), 2.0);
        let mapping = RankMapping::one_rank_per_node(16);
        let small = run_fft(&fabric, &mapping, &FftConfig::four_step(1 << 20, 16));
        let large = run_fft(&fabric, &mapping, &FftConfig::four_step(1 << 22, 16));
        assert!((large.comm_seconds / small.comm_seconds - 4.0).abs() < 1e-6);
    }

    #[test]
    fn comm_time_counts_every_transpose() {
        let dims = [4usize, 2, 2];
        let fabric = Fabric::from_torus(Torus::new(dims.to_vec()), 2.0);
        let mapping = RankMapping::one_rank_per_node(16);
        let mut config = FftConfig::four_step(1 << 20, 16);
        config.transposes = 3;
        let result = run_fft(&fabric, &mapping, &config);
        assert!((result.comm_seconds - result.transpose_seconds * 3.0).abs() < 1e-12);
        assert!(result.volume_gb > 0.0);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_mapping_rejected() {
        let config = FftConfig::four_step(1024, 8);
        let mapping = RankMapping::one_rank_per_node(4);
        let _ = transpose_phases(&mapping, &config);
    }
}

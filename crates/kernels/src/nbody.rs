//! Direct (all-pairs) N-body communication model.
//!
//! The future-work section of the paper singles out direct N-body simulation
//! as the kernel whose contention lower bound exceeds fast matrix
//! multiplication's, making partition geometry matter even more. The
//! standard communication pattern of the all-pairs force computation is a
//! systolic ring: each rank holds a block of `n / P` particles and, in each
//! of `P − 1` steps, forwards the visiting block to its ring successor while
//! computing forces against it. Every step injects identical traffic, so the
//! harness simulates one representative step and extrapolates — the
//! approximation is exact in the fluid model because the steps are separated
//! by a barrier (the force computation).

use netpart_engine::{Fabric, Flow};
use netpart_mpi::collectives::Phases;
use netpart_mpi::{phase_seconds, RankMapping};

/// Bytes per particle: position (3 doubles) plus mass.
pub const BYTES_PER_PARTICLE: f64 = 32.0;

/// Configuration of one direct N-body time step.
#[derive(Debug, Clone, Copy)]
pub struct NBodyConfig {
    /// Total number of particles.
    pub bodies: u64,
    /// Number of ranks participating in the ring.
    pub ranks: usize,
}

impl NBodyConfig {
    /// Gigabytes of particle data each rank forwards per ring step.
    pub fn block_gigabytes(&self) -> f64 {
        (self.bodies as f64 / self.ranks as f64) * BYTES_PER_PARTICLE / 1e9
    }

    /// Number of ring steps in one time step of the simulation.
    pub fn ring_steps(&self) -> usize {
        self.ranks.saturating_sub(1)
    }

    /// Total gigabytes injected into the network per time step.
    pub fn total_volume_gb(&self) -> f64 {
        self.block_gigabytes() * self.ranks as f64 * self.ring_steps() as f64
    }
}

/// The single-phase traffic of one systolic ring step: every rank sends its
/// visiting particle block to its ring successor.
pub fn ring_step_phase(mapping: &RankMapping, config: &NBodyConfig) -> Phases {
    assert_eq!(
        mapping.num_ranks(),
        config.ranks,
        "mapping rank count must match the N-body configuration"
    );
    let p = config.ranks;
    let block = config.block_gigabytes();
    let flows: Vec<Flow> = (0..p)
        .map(|r| Flow {
            src: mapping.node_of(r),
            dst: mapping.node_of((r + 1) % p),
            gigabytes: block,
        })
        .collect();
    vec![flows]
}

/// Result of simulating one N-body time step on a partition.
#[derive(Debug, Clone, Copy)]
pub struct NBodyStepResult {
    /// Communication time of one ring step (seconds).
    pub ring_step_seconds: f64,
    /// Extrapolated communication time of the whole time step
    /// (`ring_step_seconds × (P − 1)`).
    pub comm_seconds: f64,
    /// Total volume injected per time step (GB).
    pub volume_gb: f64,
}

/// Simulate the communication of one N-body time step on a torus partition
/// fabric (see [`phase_seconds`]).
pub fn run_nbody_step(
    fabric: &Fabric,
    mapping: &RankMapping,
    config: &NBodyConfig,
) -> NBodyStepResult {
    let phases = ring_step_phase(mapping, config);
    let ring_step_seconds = phase_seconds(fabric, &phases[0]);
    NBodyStepResult {
        ring_step_seconds,
        comm_seconds: ring_step_seconds * config.ring_steps() as f64,
        volume_gb: config.total_volume_gb(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_mpi::collectives::total_volume;
    use netpart_topology::Torus;

    #[test]
    fn block_size_and_volume_are_consistent() {
        let config = NBodyConfig {
            bodies: 1 << 20,
            ranks: 64,
        };
        let expected_block = (1u64 << 20) as f64 / 64.0 * 32.0 / 1e9;
        assert!((config.block_gigabytes() - expected_block).abs() < 1e-15);
        assert_eq!(config.ring_steps(), 63);
        assert!((config.total_volume_gb() - expected_block * 64.0 * 63.0).abs() < 1e-12);
    }

    #[test]
    fn ring_step_injects_one_flow_per_rank() {
        let config = NBodyConfig {
            bodies: 4096,
            ranks: 32,
        };
        let mapping = RankMapping::one_rank_per_node(32);
        let phases = ring_step_phase(&mapping, &config);
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].len(), 32);
        let per_step = total_volume(&phases);
        assert!((per_step * config.ring_steps() as f64 - config.total_volume_gb()).abs() < 1e-12);
    }

    #[test]
    fn ring_traffic_is_nearly_contention_free_on_linear_mapping() {
        // Consecutive ranks sit on adjacent nodes, so the ring is almost
        // entirely nearest-neighbour traffic: the step time stays close to
        // the uncontended block transfer time.
        let dims = [4usize, 4, 2];
        let fabric = Fabric::from_torus(Torus::new(dims.to_vec()), 2.0);
        let config = NBodyConfig {
            bodies: 1 << 18,
            ranks: 32,
        };
        let mapping = RankMapping::one_rank_per_node(32);
        let result = run_nbody_step(&fabric, &mapping, &config);
        let uncontended = config.block_gigabytes() / 2.0; // 2 GB/s links
        assert!(result.ring_step_seconds >= uncontended - 1e-12);
        assert!(
            result.ring_step_seconds <= 4.0 * uncontended,
            "ring step {} vs uncontended {}",
            result.ring_step_seconds,
            uncontended
        );
    }

    #[test]
    fn comm_time_is_per_step_times_ring_length() {
        let dims = [4usize, 2, 2];
        let fabric = Fabric::from_torus(Torus::new(dims.to_vec()), 2.0);
        let config = NBodyConfig {
            bodies: 16_384,
            ranks: 16,
        };
        let mapping = RankMapping::one_rank_per_node(16);
        let result = run_nbody_step(&fabric, &mapping, &config);
        assert!((result.comm_seconds - result.ring_step_seconds * 15.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_mapping_rejected() {
        let config = NBodyConfig {
            bodies: 1024,
            ranks: 8,
        };
        let mapping = RankMapping::one_rank_per_node(16);
        let _ = ring_step_phase(&mapping, &config);
    }
}

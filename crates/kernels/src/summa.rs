//! SUMMA classical matrix multiplication communication model.
//!
//! The paper's future-work section mentions classical matrix multiplication
//! as a kernel whose highly tuned implementations leave less computation to
//! hide communication behind, increasing the visible impact of the partition
//! geometry. SUMMA on a `√P × √P` process grid proceeds in `√P` outer steps:
//! in step `k`, the ranks of grid column `k` broadcast their `A` panel along
//! their grid row and the ranks of grid row `k` broadcast their `B` panel
//! along their grid column. Each panel is an `(n/√P) × (n/√P)` block of
//! doubles.

use netpart_engine::{Fabric, Flow};
use netpart_mpi::collectives::Phases;
use netpart_mpi::{phase_seconds, RankMapping};

/// Configuration of a SUMMA execution.
#[derive(Debug, Clone, Copy)]
pub struct SummaConfig {
    /// Matrix dimension `n` (matrices are `n × n` doubles).
    pub matrix_dim: u64,
    /// Number of ranks; must be a perfect square.
    pub ranks: usize,
}

impl SummaConfig {
    /// Create a configuration, validating that `ranks` is a perfect square.
    ///
    /// # Panics
    /// Panics if `ranks` is not a positive perfect square.
    pub fn new(matrix_dim: u64, ranks: usize) -> Self {
        let side = (ranks as f64).sqrt().round() as usize;
        assert!(
            side >= 1 && side * side == ranks,
            "SUMMA requires a square process grid; {ranks} ranks is not a perfect square"
        );
        Self { matrix_dim, ranks }
    }

    /// Side length of the process grid (`√P`).
    pub fn grid_side(&self) -> usize {
        (self.ranks as f64).sqrt().round() as usize
    }

    /// Gigabytes of one broadcast panel (`(n/√P)²` doubles).
    pub fn panel_gigabytes(&self) -> f64 {
        let block = self.matrix_dim as f64 / self.grid_side() as f64;
        block * block * 8.0 / 1e9
    }

    /// Number of outer steps (`√P`).
    pub fn steps(&self) -> usize {
        self.grid_side()
    }

    /// Total gigabytes injected over the whole multiplication.
    pub fn total_volume_gb(&self) -> f64 {
        // Per step: 2 panels broadcast to (√P - 1) receivers in each of √P
        // rows/columns.
        let side = self.grid_side() as f64;
        2.0 * side * (side - 1.0) * self.panel_gigabytes() * self.steps() as f64
    }

    /// Grid coordinates `(row, col)` of a rank (row-major).
    pub fn grid_coords(&self, rank: usize) -> (usize, usize) {
        let side = self.grid_side();
        (rank / side, rank % side)
    }

    /// Rank at grid coordinates `(row, col)`.
    pub fn rank_at(&self, row: usize, col: usize) -> usize {
        row * self.grid_side() + col
    }
}

/// The single-phase traffic of SUMMA outer step `k`: row broadcasts of the
/// `A` panels held by grid column `k`, and column broadcasts of the `B`
/// panels held by grid row `k` (both modelled as direct sends from the
/// owner, the way most SUMMA implementations pipeline their broadcasts).
///
/// # Panics
/// Panics if `step ≥ √P` or the mapping size does not match.
pub fn step_phase(mapping: &RankMapping, config: &SummaConfig, step: usize) -> Phases {
    assert_eq!(
        mapping.num_ranks(),
        config.ranks,
        "mapping rank count must match the SUMMA configuration"
    );
    let side = config.grid_side();
    assert!(step < side, "step {step} out of range 0..{side}");
    let panel = config.panel_gigabytes();
    let mut flows = Vec::with_capacity(2 * side * (side - 1));
    for row in 0..side {
        // A panel owner: (row, step) broadcasts along its row.
        let owner = config.rank_at(row, step);
        for col in 0..side {
            if col != step {
                flows.push(Flow {
                    src: mapping.node_of(owner),
                    dst: mapping.node_of(config.rank_at(row, col)),
                    gigabytes: panel,
                });
            }
        }
    }
    for col in 0..side {
        // B panel owner: (step, col) broadcasts along its column.
        let owner = config.rank_at(step, col);
        for row in 0..side {
            if row != step {
                flows.push(Flow {
                    src: mapping.node_of(owner),
                    dst: mapping.node_of(config.rank_at(row, col)),
                    gigabytes: panel,
                });
            }
        }
    }
    vec![flows]
}

/// Result of simulating SUMMA communication on a partition.
#[derive(Debug, Clone, Copy)]
pub struct SummaResult {
    /// Mean communication time per outer step (seconds).
    pub mean_step_seconds: f64,
    /// Total communication time across all `√P` steps (seconds).
    pub comm_seconds: f64,
    /// Total injected volume (GB).
    pub volume_gb: f64,
}

/// Simulate SUMMA communication on a torus partition fabric (see
/// [`phase_seconds`]). `sampled_steps` limits how many of the `√P` outer
/// steps are actually simulated (the remainder is extrapolated from their
/// mean); passing `None` simulates every step.
pub fn run_summa(
    fabric: &Fabric,
    mapping: &RankMapping,
    config: &SummaConfig,
    sampled_steps: Option<usize>,
) -> SummaResult {
    let total_steps = config.steps();
    let sample = sampled_steps.unwrap_or(total_steps).clamp(1, total_steps);
    let mut sampled_time = 0.0;
    for step in 0..sample {
        let phases = step_phase(mapping, config, step);
        for flows in &phases {
            sampled_time += phase_seconds(fabric, flows);
        }
    }
    let mean_step_seconds = sampled_time / sample as f64;
    SummaResult {
        mean_step_seconds,
        comm_seconds: mean_step_seconds * total_steps as f64,
        volume_gb: config.total_volume_gb(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_mpi::collectives::total_volume;
    use netpart_topology::Torus;

    #[test]
    fn grid_geometry_round_trips() {
        let config = SummaConfig::new(1024, 16);
        assert_eq!(config.grid_side(), 4);
        for rank in 0..16 {
            let (r, c) = config.grid_coords(rank);
            assert_eq!(config.rank_at(r, c), rank);
        }
    }

    #[test]
    #[should_panic(expected = "perfect square")]
    fn non_square_rank_count_rejected() {
        let _ = SummaConfig::new(1024, 12);
    }

    #[test]
    fn step_flow_count_and_volume_are_correct() {
        let config = SummaConfig::new(4096, 16);
        let mapping = RankMapping::one_rank_per_node(16);
        let phases = step_phase(&mapping, &config, 0);
        assert_eq!(phases.len(), 1);
        // 2 broadcasts × 4 rows/cols × 3 receivers.
        assert_eq!(phases[0].len(), 24);
        let per_step = total_volume(&phases);
        assert!((per_step * config.steps() as f64 - config.total_volume_gb()).abs() < 1e-9);
    }

    #[test]
    fn every_step_injects_the_same_volume() {
        let config = SummaConfig::new(2048, 16);
        let mapping = RankMapping::one_rank_per_node(16);
        let v0 = total_volume(&step_phase(&mapping, &config, 0));
        for step in 1..config.steps() {
            let v = total_volume(&step_phase(&mapping, &config, step));
            assert!((v - v0).abs() < 1e-15, "step {step}");
        }
    }

    #[test]
    fn sampled_run_extrapolates_to_all_steps() {
        let dims = [4usize, 2, 2];
        let fabric = Fabric::from_torus(Torus::new(dims.to_vec()), 2.0);
        let config = SummaConfig::new(8192, 16);
        let mapping = RankMapping::one_rank_per_node(16);
        let sampled = run_summa(&fabric, &mapping, &config, Some(1));
        let full = run_summa(&fabric, &mapping, &config, None);
        assert!((sampled.comm_seconds - sampled.mean_step_seconds * 4.0).abs() < 1e-12);
        // The extrapolation is close to the full simulation because the steps
        // are symmetric up to torus translation.
        let rel = (sampled.comm_seconds - full.comm_seconds).abs() / full.comm_seconds;
        assert!(rel < 0.25, "relative extrapolation error {rel}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_step_rejected() {
        let config = SummaConfig::new(1024, 16);
        let mapping = RankMapping::one_rank_per_node(16);
        let _ = step_phase(&mapping, &config, 4);
    }
}

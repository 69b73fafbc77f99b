//! Drivers for the paper's three experiments (Section 4).
//!
//! Each driver takes explicit partition geometries so the same code serves
//! the full-scale reproduction (the `netpart-bench` binaries) and scaled-down
//! smoke tests. Results carry both the simulated times and the analytic
//! prediction (the bisection-bandwidth ratio) so the agreement the paper
//! reports can be checked programmatically.

use netpart_machines::{known, PartitionGeometry};
use netpart_mpi::MappingStrategy;
use netpart_scenario::{run_sweep, RoutingSpec, ScenarioSpec, TopologySpec, TrafficSpec};
use netpart_strassen::caps::{mira_table3_configs, run_caps, CapsConfig, CapsRunResult};

/// One measurement of the bisection-pairing experiment (Figures 3 and 4).
#[derive(Debug, Clone, PartialEq)]
pub struct PairingMeasurement {
    /// Partition size in midplanes.
    pub midplanes: usize,
    /// Label of the geometry family ("Current", "Proposed", "Worst-case"...).
    pub label: String,
    /// The geometry used.
    pub geometry: PartitionGeometry,
    /// Simulated benchmark time in seconds (26 measured rounds).
    pub seconds: f64,
    /// The geometry's internal bisection bandwidth in links.
    pub bisection_links: u64,
}

/// The scenario spec of one labelled pairing case: a thin builder — the
/// geometry becomes a torus topology running the paper's pairing plan
/// ([`TrafficSpec::paper_pairing`]: 30 rounds, 4 of them warm-up, 2 GB per
/// pair and round).
pub fn pairing_spec(geometry: &PartitionGeometry) -> ScenarioSpec {
    ScenarioSpec {
        topology: TopologySpec::Torus(geometry.node_dims().to_vec()),
        routing: RoutingSpec::DimensionOrdered,
        traffic: TrafficSpec::paper_pairing(),
        seed: 0,
    }
}

/// Run the bisection-pairing benchmark on a list of labelled geometries.
///
/// The driver is a spec builder: each case becomes a [`ScenarioSpec`] and
/// the whole list fans out through the scenario sweep runner.
///
/// # Panics
/// Panics when a geometry cannot run as a scenario — in particular when it
/// exceeds the scenario layer's fabric budget
/// (`netpart_scenario::MAX_FABRIC_NODES`, 16384 nodes — 32 midplanes; the
/// paper's figures top out at 24).
pub fn bisection_pairing_experiment(
    cases: &[(usize, &str, PartitionGeometry)],
) -> Vec<PairingMeasurement> {
    let specs: Vec<ScenarioSpec> = cases
        .iter()
        .map(|(_, _, geometry)| pairing_spec(geometry))
        .collect();
    run_sweep(&specs)
        .into_iter()
        .zip(cases)
        .map(|(result, &(midplanes, label, geometry))| {
            let result = result
                .unwrap_or_else(|e| panic!("pairing scenario for geometry {geometry} failed: {e}"));
            PairingMeasurement {
                midplanes,
                label: label.to_string(),
                geometry,
                seconds: result.makespan,
                bisection_links: geometry.bisection_links(),
            }
        })
        .collect()
}

/// The Figure 3 case list: Mira's current vs proposed geometries at 4, 8, 16
/// and 24 midplanes.
pub fn mira_fig3_cases() -> Vec<(usize, &'static str, PartitionGeometry)> {
    let current: std::collections::BTreeMap<usize, PartitionGeometry> =
        known::mira_scheduler_partitions().into_iter().collect();
    let proposed: std::collections::BTreeMap<usize, PartitionGeometry> =
        known::mira_proposed_partitions().into_iter().collect();
    [4usize, 8, 16, 24]
        .into_iter()
        .flat_map(|m| [(m, "Current", current[&m]), (m, "Proposed", proposed[&m])])
        .collect()
}

/// The Figure 4 case list: JUQUEEN's worst-case vs proposed geometries at 4,
/// 6, 8, 12 and 16 midplanes.
pub fn juqueen_fig4_cases() -> Vec<(usize, &'static str, PartitionGeometry)> {
    let juqueen = known::juqueen();
    [4usize, 6, 8, 12, 16]
        .into_iter()
        .flat_map(|m| {
            let worst = netpart_alloc::worst_geometry(&juqueen, m).expect("feasible size");
            let best = netpart_alloc::best_geometry(&juqueen, m).expect("feasible size");
            [(m, "Worst-case", worst), (m, "Proposed", best)]
        })
        .collect()
}

/// Speedup of the second label over the first at every size present in both.
pub fn pairing_speedups(
    measurements: &[PairingMeasurement],
    baseline: &str,
    improved: &str,
) -> Vec<(usize, f64)> {
    let mut sizes: Vec<usize> = measurements.iter().map(|m| m.midplanes).collect();
    sizes.sort_unstable();
    sizes.dedup();
    sizes
        .into_iter()
        .filter_map(|size| {
            let base = measurements
                .iter()
                .find(|m| m.midplanes == size && m.label == baseline)?;
            let imp = measurements
                .iter()
                .find(|m| m.midplanes == size && m.label == improved)?;
            Some((size, base.seconds / imp.seconds))
        })
        .collect()
}

/// One row of the matrix-multiplication experiment (Figure 5): the same CAPS
/// configuration run on the current and the proposed geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct MatmulMeasurement {
    /// Partition size in midplanes.
    pub midplanes: usize,
    /// Configuration used (rank count, matrix dimension, cores).
    pub config: CapsConfig,
    /// Run on the current scheduler geometry.
    pub current: CapsRunResult,
    /// Run on the proposed geometry.
    pub proposed: CapsRunResult,
}

impl MatmulMeasurement {
    /// Communication-time ratio (current / proposed), the quantity the paper
    /// reports as x1.37–x1.52.
    pub fn communication_ratio(&self) -> f64 {
        self.current.communication_seconds / self.proposed.communication_seconds
    }

    /// Wall-clock ratio including the (geometry-independent) computation.
    pub fn wallclock_ratio(&self) -> f64 {
        self.current.total_seconds() / self.proposed.total_seconds()
    }
}

/// Run the Figure 5 experiment for the given `(midplanes, config)` list,
/// using Mira's current and proposed geometries at each size.
pub fn mira_matmul_experiment(configs: &[(usize, CapsConfig)]) -> Vec<MatmulMeasurement> {
    let current: std::collections::BTreeMap<usize, PartitionGeometry> =
        known::mira_scheduler_partitions().into_iter().collect();
    let proposed: std::collections::BTreeMap<usize, PartitionGeometry> =
        known::mira_proposed_partitions().into_iter().collect();
    configs
        .iter()
        .map(|&(midplanes, config)| MatmulMeasurement {
            midplanes,
            config,
            current: run_caps(&config, &current[&midplanes], MappingStrategy::Balanced),
            proposed: run_caps(&config, &proposed[&midplanes], MappingStrategy::Balanced),
        })
        .collect()
}

/// The full-scale Figure 5 configuration list (Table 3).
pub fn mira_fig5_configs() -> Vec<(usize, CapsConfig)> {
    mira_table3_configs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_and_fig4_case_lists_match_the_paper() {
        let fig3 = mira_fig3_cases();
        assert_eq!(fig3.len(), 8);
        assert!(fig3.contains(&(24, "Proposed", PartitionGeometry::new([3, 2, 2, 2]))));
        let fig4 = juqueen_fig4_cases();
        assert_eq!(fig4.len(), 10);
        assert!(fig4.contains(&(12, "Worst-case", PartitionGeometry::new([6, 2, 1, 1]))));
        assert!(fig4.contains(&(12, "Proposed", PartitionGeometry::new([3, 2, 2, 1]))));
        // 16 midplanes on JUQUEEN: worst 4x2x2x1, best 2x2x2x2.
        assert!(fig4.contains(&(16, "Worst-case", PartitionGeometry::new([4, 2, 2, 1]))));
        assert!(fig4.contains(&(16, "Proposed", PartitionGeometry::new([2, 2, 2, 2]))));
    }

    #[test]
    fn pairing_experiment_reproduces_the_factor_two() {
        // Scaled-down version of Figure 3 (single-midplane-per-dimension
        // geometries) so the test runs quickly: the current 4x1x1x1 vs
        // proposed 2x2x1x1 shapes at node granularity.
        let cases = [
            (4usize, "Current", PartitionGeometry::new([4, 1, 1, 1])),
            (4, "Proposed", PartitionGeometry::new([2, 2, 1, 1])),
        ];
        let measurements = bisection_pairing_experiment(&cases);
        let speedups = pairing_speedups(&measurements, "Current", "Proposed");
        assert_eq!(speedups.len(), 1);
        let (_, speedup) = speedups[0];
        assert!(
            (speedup - 2.0).abs() < 0.2,
            "predicted factor 2.00, paper measured 1.92; simulator gives {speedup}"
        );
        // The measured times are attributed to the right geometries.
        assert!(measurements[0].seconds > measurements[1].seconds);
        assert_eq!(measurements[0].bisection_links, 256);
        assert_eq!(measurements[1].bisection_links, 512);
    }

    #[test]
    fn matmul_experiment_shows_intermediate_ratios() {
        // Scaled-down Figure 5 restricted to the machine-spanning BFS step
        // (the component the geometry change accelerates): the communication
        // ratio must exceed 1 but stay at or below the bisection factor of 2.
        // The full four-step, full-rank-count run is produced by the
        // `fig5_mira_matmul` binary.
        let configs = vec![(4usize, CapsConfig::new(9604, 2401, 1, 2))];
        let results = mira_matmul_experiment(&configs);
        assert_eq!(results.len(), 1);
        let ratio = results[0].communication_ratio();
        assert!(ratio > 1.1 && ratio < 2.5, "communication ratio {ratio}");
        assert!(results[0].wallclock_ratio() >= 1.0);
        assert!(results[0].wallclock_ratio() <= ratio + 1e-9);
    }
}

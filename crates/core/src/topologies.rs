//! Applying the method to non-torus topologies (Section 5).
//!
//! The paper sketches how the isoperimetric-analysis recipe carries over to
//! other interconnects. This module turns those sketches into runnable
//! analysis: for each topology family it computes the quantity an allocation
//! policy would need — the bisection (or small-set expansion proxy) of a
//! sub-allocation — using the exact solvers from `netpart-iso`.

use netpart_engine::{simulate_flows, DimensionOrdered, Fabric, Flow, Router, ShortestPath};
use netpart_iso::{harper, lindsey, weighted};
use netpart_topology::{Dragonfly, FatTree, GlobalArrangement, HyperX, Hypercube, Torus};

/// The bisection bandwidth (in unit links) available to a `2^d`-node
/// hypercube sub-allocation (a subcube), via Harper's theorem: a subcube of
/// dimension `d` has bisection `2^(d-1)`.
pub fn hypercube_partition_bisection(subcube_dim: u32) -> u64 {
    harper::hypercube_bisection(subcube_dim)
}

/// The bisection capacity of a (possibly non-regular) HyperX allocation
/// covering the given clique sizes with per-dimension capacities
/// (Lindsey / Ahn et al.).
pub fn hyperx_partition_bisection(dims: &[usize], capacities: &[f64]) -> f64 {
    lindsey::hyperx_bisection(dims, capacities)
}

/// The group-level bisection capacity of a Dragonfly allocation of
/// `groups` groups under a given global-link arrangement, using the Cray XC
/// per-link capacities (K16 links 1, K6 links 3, global links 4).
pub fn dragonfly_partition_bisection(
    groups: usize,
    global_ports_per_router: usize,
    arrangement: GlobalArrangement,
) -> f64 {
    let df = Dragonfly::cray_xc(groups, global_ports_per_router, arrangement);
    weighted::dragonfly_group_bisection(&df)
}

/// The bisection capacity of a weighted low-dimensional torus allocation
/// (Cray XK7-style), exposing the weighted slab formula.
pub fn weighted_torus_partition_bisection(dims: &[usize], capacities: &[f64]) -> f64 {
    weighted::weighted_torus_bisection(dims, capacities)
}

/// Summary row comparing how much an allocation's shape matters on each
/// topology family, produced by [`topology_applicability_report`].
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyCase {
    /// Topology family name.
    pub family: String,
    /// Description of the two allocations compared.
    pub comparison: String,
    /// Bisection of the worse allocation.
    pub worse: f64,
    /// Bisection of the better allocation.
    pub better: f64,
}

impl TopologyCase {
    /// Potential contention-bound speedup from choosing the better shape.
    pub fn potential_speedup(&self) -> f64 {
        self.better / self.worse
    }
}

/// Worked examples of the Section 5 discussion, one per topology family.
pub fn topology_applicability_report() -> Vec<TopologyCase> {
    vec![
        TopologyCase {
            family: "Hypercube (Pleiades-like)".into(),
            comparison:
                "same node count as one 10-subcube vs two disjoint 9-subcubes used as one job"
                    .into(),
            // Two 9-subcubes glued by the scheduler have the internal bisection
            // of a 9-subcube (the job straddles them with only the links of
            // one dimension...); the single 10-subcube has 512.
            worse: hypercube_partition_bisection(9) as f64,
            better: hypercube_partition_bisection(10) as f64,
        },
        TopologyCase {
            family: "Regular HyperX".into(),
            comparison: "K8 x K2 allocation vs K4 x K4 allocation of 16 routers".into(),
            worse: hyperx_partition_bisection(&[8, 2], &[1.0, 1.0]),
            better: hyperx_partition_bisection(&[4, 4], &[1.0, 1.0]),
        },
        TopologyCase {
            family: "Dragonfly (Cray XC)".into(),
            comparison: "4-group allocation, relative vs circulant global arrangement".into(),
            worse: dragonfly_partition_bisection(4, 1, GlobalArrangement::Relative).min(
                dragonfly_partition_bisection(4, 1, GlobalArrangement::Circulant),
            ),
            better: dragonfly_partition_bisection(4, 1, GlobalArrangement::Relative).max(
                dragonfly_partition_bisection(4, 1, GlobalArrangement::Circulant),
            ),
        },
        TopologyCase {
            family: "Weighted 3-D torus (Cray XK7-like)".into(),
            comparison: "16x8x8 allocation vs 8x8x16 with a fat first dimension".into(),
            worse: weighted_torus_partition_bisection(&[8, 8, 16], &[4.0, 1.0, 1.0]),
            better: weighted_torus_partition_bisection(&[16, 8, 8], &[4.0, 1.0, 1.0]),
        },
    ]
}

/// A small representative fabric of each Section 5 topology family, paired
/// with its natural router — the catalog the engine-based experiments sweep.
pub fn fabric_catalog() -> Vec<(Fabric, Box<dyn Router>)> {
    vec![
        (
            Fabric::from_torus(Torus::new(vec![4, 4, 4]), 2.0),
            Box::new(DimensionOrdered::default()),
        ),
        (
            Fabric::from_topology(&Hypercube::new(6), 2.0),
            Box::new(ShortestPath),
        ),
        (
            Fabric::from_topology(&HyperX::regular(vec![8, 8]), 2.0),
            Box::new(ShortestPath),
        ),
        (
            Fabric::from_topology(
                &Dragonfly::new(4, 4, 4, 1.0, 1.0, 1.0, 1, GlobalArrangement::Relative),
                2.0,
            ),
            Box::new(ShortestPath),
        ),
        (
            Fabric::from_topology(&FatTree::new(4), 2.0),
            Box::new(ShortestPath),
        ),
    ]
}

/// One row of [`cross_topology_contention`]: the same shuffle workload on one
/// topology family.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionRow {
    /// Fabric name.
    pub fabric: String,
    /// Router label.
    pub router: String,
    /// Number of nodes.
    pub nodes: usize,
    /// Simulated makespan of the shuffle (seconds).
    pub makespan: f64,
    /// The bottleneck-channel lower bound (seconds).
    pub lower_bound: f64,
    /// `makespan / lower_bound` — how far routing + sharing are from the
    /// best any schedule could do on these routes.
    pub contention_factor: f64,
}

/// Run the same per-node shuffle (every node sends `gigabytes` to the node
/// `num_nodes / 2 + 1` positions ahead) across the whole
/// [`fabric_catalog`], asking the paper's avoidable-contention question —
/// how much does the interconnect's structure inflate a fixed workload? —
/// on every family at once.
pub fn cross_topology_contention(gigabytes: f64) -> Vec<ContentionRow> {
    fabric_catalog()
        .into_iter()
        .map(|(fabric, router)| {
            let n = fabric.num_nodes();
            let flows: Vec<Flow> = (0..n)
                .map(|src| Flow {
                    src,
                    dst: (src + n / 2 + 1) % n,
                    gigabytes,
                })
                .collect();
            let outcome = simulate_flows(&fabric, router.as_ref(), &flows)
                .expect("catalog fabrics are connected");
            ContentionRow {
                fabric: fabric.name().to_string(),
                router: router.label(),
                nodes: n,
                makespan: outcome.makespan,
                lower_bound: outcome.bottleneck_lower_bound,
                contention_factor: if outcome.bottleneck_lower_bound > 0.0 {
                    outcome.makespan / outcome.bottleneck_lower_bound
                } else {
                    1.0
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypercube_bisection_doubles_per_dimension() {
        assert_eq!(hypercube_partition_bisection(9), 256);
        assert_eq!(hypercube_partition_bisection(10), 512);
    }

    #[test]
    fn hyperx_square_beats_elongated() {
        let elongated = hyperx_partition_bisection(&[8, 2], &[1.0, 1.0]);
        let square = hyperx_partition_bisection(&[4, 4], &[1.0, 1.0]);
        assert!(square > elongated);
        assert_eq!(square, 16.0);
        assert_eq!(elongated, 8.0);
    }

    #[test]
    fn dragonfly_bisection_is_positive_for_all_arrangements() {
        for arrangement in [
            GlobalArrangement::Absolute,
            GlobalArrangement::Relative,
            GlobalArrangement::Circulant,
        ] {
            assert!(dragonfly_partition_bisection(4, 1, arrangement) > 0.0);
        }
    }

    #[test]
    fn weighted_torus_prefers_cutting_cheap_dimensions() {
        // A fat (capacity 4) long dimension: cutting across it is expensive,
        // so its presence raises the bisection relative to thin dimensions.
        let with_fat_long = weighted_torus_partition_bisection(&[16, 8, 8], &[4.0, 1.0, 1.0]);
        let uniform = weighted_torus_partition_bisection(&[16, 8, 8], &[1.0, 1.0, 1.0]);
        assert!(with_fat_long >= uniform);
    }

    #[test]
    fn report_cases_all_show_real_spreads() {
        for case in topology_applicability_report() {
            assert!(case.worse > 0.0);
            assert!(case.potential_speedup() >= 1.0, "{}", case.family);
        }
    }

    #[test]
    fn cross_topology_contention_covers_the_catalog() {
        let rows = cross_topology_contention(0.25);
        assert_eq!(rows.len(), fabric_catalog().len());
        for row in &rows {
            assert!(row.makespan > 0.0, "{}", row.fabric);
            assert!(
                row.contention_factor >= 1.0 - 1e-9,
                "{}: factor {}",
                row.fabric,
                row.contention_factor
            );
        }
        // The catalog spans genuinely different families.
        let mut names: Vec<&str> = rows.iter().map(|r| r.fabric.as_str()).collect();
        names.dedup();
        assert_eq!(names.len(), rows.len());
    }
}

//! Property-based invariants of the flow-level simulator and the simulated
//! message-passing layer.

use netpart::engine::{pairing_flows, route_flows, simulate_flows, DimensionOrdered, Fabric, Flow};
use netpart::mpi::{aggregate_flows, collectives, MappingStrategy, RankMapping};
use netpart::topology::Torus;
use proptest::prelude::*;

fn small_dims() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(2usize..5, 2..4)
}

/// A Blue Gene/Q-style torus fabric: 2 GB/s per link and direction.
fn bgq_fabric(dims: &[usize]) -> Fabric {
    Fabric::from_torus(Torus::new(dims.to_vec()), 2.0)
}

/// Simulate `flows` under the hardware's dimension-ordered routing.
fn simulate(fabric: &Fabric, flows: &[Flow]) -> netpart::engine::FluidOutcome {
    simulate_flows(fabric, &DimensionOrdered::default(), flows).expect("torus routes every flow")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Makespan respects both lower bounds: the bottleneck channel and every
    /// flow's serial transfer time.
    #[test]
    fn makespan_respects_lower_bounds(dims in small_dims(), seed in 0u64..1000) {
        let fabric = bgq_fabric(&dims);
        let n = fabric.num_nodes();
        let flows: Vec<Flow> = (0..n)
            .map(|src| Flow { src, dst: (src * 7 + seed as usize) % n, gigabytes: 0.5 + (src % 3) as f64 * 0.25 })
            .filter(|f| f.src != f.dst)
            .collect();
        let result = simulate(&fabric, &flows);
        prop_assert!(result.makespan + 1e-9 >= result.bottleneck_lower_bound);
        for (flow, completion) in flows.iter().zip(&result.completion) {
            prop_assert!(*completion + 1e-9 >= flow.gigabytes / 2.0, "flow below serial time");
            prop_assert!(*completion <= result.makespan + 1e-9);
        }
    }

    /// Scaling every message size scales every completion time linearly.
    #[test]
    fn completion_times_scale_linearly_with_volume(dims in small_dims(), factor in 2u32..5) {
        let fabric = bgq_fabric(&dims);
        let base = simulate(&fabric, &pairing_flows(&fabric, 1.0));
        let scaled = simulate(&fabric, &pairing_flows(&fabric, factor as f64));
        prop_assert!((scaled.makespan - factor as f64 * base.makespan).abs() < 1e-6 * scaled.makespan.max(1.0));
    }

    /// Channel loads are conserved: total carried GB equals the sum over
    /// flows of size x path length.
    #[test]
    fn channel_load_conservation(dims in small_dims(), seed in 0u64..1000) {
        let fabric = bgq_fabric(&dims);
        let n = fabric.num_nodes();
        let flows: Vec<Flow> = (0..n / 2)
            .map(|i| Flow { src: i, dst: (i + 1 + seed as usize % (n - 1)) % n, gigabytes: 1.0 })
            .filter(|f| f.src != f.dst)
            .collect();
        let paths = route_flows(&fabric, &DimensionOrdered::default(), &flows)
            .expect("torus routes every flow");
        let result = simulate(&fabric, &flows);
        let expected: f64 = flows.iter().zip(&paths).map(|(f, p)| f.gigabytes * p.len() as f64).sum();
        let actual: f64 = result.channel_load_gb.iter().sum();
        prop_assert!((expected - actual).abs() < 1e-6);
    }

    /// Collective generators only produce flows between mapped nodes, and
    /// aggregate volume is preserved by node-level aggregation.
    #[test]
    fn collective_flows_stay_in_range(ranks in 2usize..40, nodes in 2usize..40) {
        prop_assume!(ranks >= nodes);
        let mapping = RankMapping::new(ranks, nodes, ranks.div_ceil(nodes), MappingStrategy::Balanced);
        let phases = collectives::ring_allreduce(&mapping, 1.0);
        for phase in &phases {
            for f in phase {
                prop_assert!(f.src < nodes && f.dst < nodes);
            }
            let raw: f64 = phase.iter().map(|f| f.gigabytes).sum();
            let aggregated = aggregate_flows(phase);
            let agg: f64 = aggregated.iter().map(|f| f.gigabytes).sum();
            // Aggregation only drops intra-node traffic.
            let intra: f64 = phase.iter().filter(|f| f.src == f.dst).map(|f| f.gigabytes).sum();
            prop_assert!((raw - intra - agg).abs() < 1e-9);
        }
    }
}

#[test]
fn antipodal_traffic_is_limited_by_the_longest_dimension() {
    // The per-round time of the pairing benchmark equals
    // (pairs per longest-dimension ring / 2) x message / link bandwidth,
    // i.e. it is set entirely by the longest dimension.
    let fabric = bgq_fabric(&[8, 4, 4, 2]);
    let result = simulate(&fabric, &pairing_flows(&fabric, 2.0));
    // Ring of 8: each + channel carries 4 antipodal flows at 2 GB each over
    // 2 GB/s -> 4 seconds.
    assert!((result.makespan - 4.0).abs() < 1e-6);
}

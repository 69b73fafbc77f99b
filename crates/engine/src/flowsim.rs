//! The flow-simulation scenario: fluid flows on any fabric.
//!
//! Route a flow set with any [`Router`], then run the [`FluidSim`] to
//! completion: [`simulate_flows_with`] is the one body, under explicit
//! execution choices ([`Exec`]), and [`simulate_flows`] its default form.
//! The paper's torus experiments (kernels, CAPS, bisection pairing) all run
//! through it with [`DimensionOrdered`](crate::DimensionOrdered) routing on
//! [`Fabric::from_torus`] fabrics; [`pairing_flows`] generates the
//! bisection-pairing traffic.

use crate::error::EngineError;
use crate::exec::Exec;
use crate::fabric::Fabric;
use crate::fluid::{FluidOutcome, FluidSim};
use crate::maxmin::ChannelId;
use crate::router::Router;

/// A point-to-point message to be delivered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flow {
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Message size in gigabytes.
    pub gigabytes: f64,
}

/// Flows of one bisection-pairing round (the benchmark of Section 4.1):
/// every node is paired with its torus antipode (the furthest-node scheme
/// of Chen et al.) on a torus fabric, or with its index mirror on other
/// fabrics (both cross every axis-aligned bisection of the generated
/// families). Each unordered pair exchanges `gigabytes` in both
/// directions; pairs are listed by ascending first endpoint, `a → b`
/// before `b → a`.
pub fn pairing_flows(fabric: &Fabric, gigabytes: f64) -> Vec<Flow> {
    let n = fabric.num_nodes();
    let mut flows = Vec::with_capacity(n);
    for a in 0..n {
        let b = match fabric.torus() {
            Some(torus) => torus.antipode(a),
            None => n - 1 - a,
        };
        if a < b {
            flows.push(Flow {
                src: a,
                dst: b,
                gigabytes,
            });
            flows.push(Flow {
                src: b,
                dst: a,
                gigabytes,
            });
        }
    }
    flows
}

/// Route every flow with `router` (pure; errors abort the whole set so a
/// sweep can skip the case rather than crash), one [`Router::route`] call
/// per flow: the per-flow reference [`route_flows_csr`] is checked against.
pub fn route_flows(
    fabric: &Fabric,
    router: &dyn Router,
    flows: &[Flow],
) -> Result<Vec<Vec<ChannelId>>, EngineError> {
    flows
        .iter()
        .map(|f| router.route(fabric, f.src, f.dst))
        .collect()
}

/// Route every flow straight into caller-owned CSR buffers (flow `i`
/// traverses `path_data[path_offsets[i]..path_offsets[i + 1]]`), reusing
/// their capacity across calls. Delegates to
/// [`Router::route_flows_into`], so minimal routers search each distinct
/// destination once; the paths equal [`route_flows`]'s, and an error is
/// that of the first failing flow. On error the buffers hold a partial
/// build and must not be consumed.
pub fn route_flows_csr(
    fabric: &Fabric,
    router: &dyn Router,
    flows: &[Flow],
    path_offsets: &mut Vec<usize>,
    path_data: &mut Vec<ChannelId>,
) -> Result<(), EngineError> {
    router.route_flows_into(fabric, flows, path_offsets, path_data)
}

/// Simulate `flows` on `fabric` under `router` to completion with max–min
/// fair sharing.
pub fn simulate_flows(
    fabric: &Fabric,
    router: &dyn Router,
    flows: &[Flow],
) -> Result<FluidOutcome, EngineError> {
    simulate_flows_with(fabric, router, flows, Exec::default())
}

/// [`simulate_flows`] under explicit execution choices: the routing runs
/// under a `route` span, and the [`FluidSim`] runs `exec.solver` and records
/// its `csr_build` and `fluid_solve` spans and per-round (and per-repair)
/// events through `exec.telemetry`. No choice changes the outcome. A flow
/// set whose clock could overflow is refused with
/// [`EngineError::NonFiniteTime`] before it runs.
pub fn simulate_flows_with(
    fabric: &Fabric,
    router: &dyn Router,
    flows: &[Flow],
    exec: impl Into<Exec>,
) -> Result<FluidOutcome, EngineError> {
    let exec = exec.into();
    let route_span = exec.telemetry.span("route");
    let (mut offsets, mut data) = (Vec::with_capacity(flows.len() + 1), Vec::new());
    route_flows_csr(fabric, router, flows, &mut offsets, &mut data)?;
    drop(route_span);
    let sizes: Vec<f64> = flows.iter().map(|f| f.gigabytes).collect();
    // The telemetry goes on before the CSR build, so `csr_build` fires.
    let mut fluid = FluidSim::empty_with_mode(exec.solver);
    fluid.set_telemetry(exec.telemetry);
    fluid.reset_csr(&offsets, &data, fabric.capacities(), &sizes);
    fluid.makespan_bound()?;
    fluid.run_to_completion();
    Ok(fluid.into_outcome())
}

/// The static contention estimate (ablation baseline): the makespan is the
/// bottleneck channel's serial time given the routes.
pub fn static_estimate(
    fabric: &Fabric,
    router: &dyn Router,
    flows: &[Flow],
) -> Result<f64, EngineError> {
    let (mut offsets, mut data) = (Vec::new(), Vec::new());
    route_flows_csr(fabric, router, flows, &mut offsets, &mut data)?;
    let mut load = vec![0.0f64; fabric.num_channels()];
    for (i, flow) in flows.iter().enumerate() {
        for &c in &data[offsets[i]..offsets[i + 1]] {
            load[c as usize] += flow.gigabytes;
        }
    }
    Ok(load
        .iter()
        .zip(fabric.capacities())
        .map(|(gb, bw)| gb / bw)
        .fold(0.0, f64::max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{DimensionOrdered, Ecmp, ShortestPath, Valiant};
    use netpart_topology::{Dragonfly, FatTree, GlobalArrangement, Hypercube, Torus};

    #[test]
    fn single_flow_takes_serial_time_on_any_fabric() {
        let fabric = Fabric::from_topology(&Hypercube::new(4), 2.0);
        let flows = [Flow {
            src: 0,
            dst: 3,
            gigabytes: 4.0,
        }];
        let out = simulate_flows(&fabric, &ShortestPath, &flows).unwrap();
        // 4 GB at 2 GB/s, no contention: 2 seconds regardless of hop count.
        assert!((out.makespan - 2.0).abs() < 1e-9);
        assert_eq!(out.rounds, 1);
    }

    #[test]
    fn flow_sim_runs_on_non_torus_topologies() {
        let fabrics = [
            Fabric::from_topology(&Dragonfly::cray_xc(4, 1, GlobalArrangement::Relative), 2.0),
            Fabric::from_topology(&FatTree::new(4), 2.0),
            Fabric::from_topology(&Hypercube::new(5), 2.0),
        ];
        for fabric in &fabrics {
            let n = fabric.num_nodes();
            let flows: Vec<Flow> = (0..n)
                .map(|src| Flow {
                    src,
                    dst: (src + n / 2) % n,
                    gigabytes: 0.25,
                })
                .collect();
            for router in [
                &ShortestPath as &dyn Router,
                &Ecmp { salt: 11 },
                &Valiant { seed: 11 },
            ] {
                let out = simulate_flows(fabric, router, &flows).unwrap();
                assert!(
                    out.makespan >= out.bottleneck_lower_bound - 1e-9,
                    "{} / {}",
                    fabric.name(),
                    router.label()
                );
                assert!(out.makespan > 0.0);
                let est = static_estimate(fabric, router, &flows).unwrap();
                assert!(est <= out.makespan + 1e-9);
            }
        }
    }

    #[test]
    fn two_flows_sharing_a_channel_halve_their_rate() {
        let fabric = Fabric::from_torus(Torus::new(vec![8]), 2.0);
        // Both flows start on channel 0 -> 1; the first continues to node 2.
        let flows = [
            Flow {
                src: 0,
                dst: 2,
                gigabytes: 2.0,
            },
            Flow {
                src: 0,
                dst: 1,
                gigabytes: 2.0,
            },
        ];
        let out = simulate_flows(&fabric, &DimensionOrdered::default(), &flows).unwrap();
        // Each gets 1 GB/s on the shared hop; the longer flow's second hop
        // does not lift that limit, so both finish together at 2 s.
        assert!((out.completion[0] - 2.0).abs() < 1e-9);
        assert!((out.completion[1] - 2.0).abs() < 1e-9);
        assert!((out.makespan - 2.0).abs() < 1e-9);
    }

    #[test]
    fn opposite_directions_do_not_contend() {
        let fabric = Fabric::from_torus(Torus::new(vec![8]), 2.0);
        let flows = [
            Flow {
                src: 0,
                dst: 1,
                gigabytes: 2.0,
            },
            Flow {
                src: 1,
                dst: 0,
                gigabytes: 2.0,
            },
        ];
        let out = simulate_flows(&fabric, &DimensionOrdered::default(), &flows).unwrap();
        assert!((out.makespan - 1.0).abs() < 1e-9, "full 2 GB/s each way");
    }

    #[test]
    fn bisection_pairs_cover_every_node_once() {
        let torus = Torus::new(vec![4, 4, 2]);
        let fabric = Fabric::from_torus(torus.clone(), 2.0);
        let flows = pairing_flows(&fabric, 1.0);
        assert_eq!(flows.len(), fabric.num_nodes());
        let mut seen = vec![false; fabric.num_nodes()];
        for pair in flows.chunks(2) {
            let (a, b) = (pair[0].src, pair[0].dst);
            assert_eq!((pair[1].src, pair[1].dst), (b, a), "both directions");
            assert!(!seen[a] && !seen[b]);
            seen[a] = true;
            seen[b] = true;
            assert_eq!(torus.distance(a, b), torus.diameter());
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn intra_node_flows_complete_instantly() {
        let fabric = Fabric::from_topology(&Hypercube::new(3), 1.0);
        let flows = [Flow {
            src: 2,
            dst: 2,
            gigabytes: 7.0,
        }];
        let out = simulate_flows(&fabric, &ShortestPath, &flows).unwrap();
        assert_eq!(out.makespan, 0.0);
        assert_eq!(out.completion[0], 0.0);
    }

    #[test]
    fn csr_routing_matches_per_flow_routing_for_every_router() {
        let fabrics = [
            Fabric::from_torus(Torus::new(vec![4, 4, 2]), 2.0),
            Fabric::from_topology(&Hypercube::new(5), 2.0),
        ];
        for fabric in &fabrics {
            let n = fabric.num_nodes();
            // A permutation (one flow per destination) and an all-to-all
            // over every third node, self-flows included (each destination
            // shared by many flows, so the minimal routers walk grouped).
            let permutation: Vec<Flow> = (0..n)
                .map(|src| Flow {
                    src,
                    dst: (src * 7 + 3) % n,
                    gigabytes: 0.5,
                })
                .collect();
            let subset: Vec<usize> = (0..n).step_by(3).collect();
            let all_to_all: Vec<Flow> = subset
                .iter()
                .flat_map(|&src| {
                    subset.iter().map(move |&dst| Flow {
                        src,
                        dst,
                        gigabytes: 0.5,
                    })
                })
                .collect();
            let routers: Vec<Box<dyn Router>> = if fabric.torus().is_some() {
                vec![
                    Box::new(DimensionOrdered::default()),
                    Box::new(Ecmp { salt: 5 }),
                    Box::new(Valiant { seed: 5 }),
                ]
            } else {
                vec![
                    Box::new(ShortestPath),
                    Box::new(Ecmp { salt: 5 }),
                    Box::new(Valiant { seed: 5 }),
                ]
            };
            for (router, flows) in routers
                .iter()
                .flat_map(|r| [(r, &permutation), (r, &all_to_all)])
            {
                let per_flow = route_flows(fabric, router.as_ref(), flows).unwrap();
                let mut offsets = Vec::new();
                let mut data = Vec::new();
                route_flows_csr(fabric, router.as_ref(), flows, &mut offsets, &mut data).unwrap();
                assert_eq!(offsets.len(), flows.len() + 1);
                for (i, path) in per_flow.iter().enumerate() {
                    assert_eq!(
                        &data[offsets[i]..offsets[i + 1]],
                        path.as_slice(),
                        "{} flow {i}",
                        router.label()
                    );
                }
            }
        }
    }

    #[test]
    fn ecmp_spreads_no_worse_than_single_path_on_fat_trees() {
        // A fat-tree has massive path diversity; hash-spreading across it
        // should not lengthen the makespan of a shuffle.
        let fabric = Fabric::from_topology(&FatTree::new(4), 1.0);
        let n = fabric.num_nodes();
        let flows: Vec<Flow> = (0..n)
            .map(|src| Flow {
                src,
                dst: (src * 5 + 3) % n,
                gigabytes: 1.0,
            })
            .collect();
        let single = simulate_flows(&fabric, &ShortestPath, &flows).unwrap();
        let spread = simulate_flows(&fabric, &Ecmp { salt: 1 }, &flows).unwrap();
        assert!(spread.makespan <= single.makespan * 1.5 + 1e-9);
    }
}

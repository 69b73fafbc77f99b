//! The max–min kernel pinned bitwise to a serial full-scan reference.
//!
//! [`reference_rates`] is plain progressive filling: every round scans
//! every channel still carrying unfixed flows for the argmin of
//! `(remaining / unfixed, channel)` — the share ordered by `total_cmp`, ties
//! to the smaller channel id — fixes that channel's unfixed flows at the
//! share, and retires their demand everywhere with the same
//! `(rem - r).max(0.0)` update the kernel uses. The engine ran exactly this
//! scan on its wide rounds until the lazy-deletion heap alone measured
//! faster at every served size; it stays here as the executable model.
//!
//! [`reference_fluid`] drives the reference through `FluidSim`'s round
//! arithmetic (earliest completion, the `> 2000`-flow lookahead, the
//! retirement epsilon) over every fabric channel, so whole simulations are
//! compared too, not only single solves: completion times, per-channel
//! loads and the bottleneck bound, and the completion times of runs that
//! stop once a prefix of the flows is done. Every comparison is on the
//! bits of the `f64`s.
//!
//! [`max_min_rates_warm`] is pinned the same way: after a cold solve, each
//! step of a random retirement script takes flows out (a random subset, a
//! first-step flow, last-step flows only, nothing, or every flow on one
//! channel) and the warm re-solve must equal a reference solve of the flows
//! left.
//!
//! The CI `queue-parity` job runs this suite with an elevated case count
//! (`PROPTEST_CASES=512`); locally it defaults to a fast 48 per property.

use netpart::engine::{
    max_min_rates_csr, max_min_rates_warm, route_flows_csr, ChannelId, DimensionOrdered, Fabric,
    Flow, FluidOutcome, FluidSim, MaxMinScratch, Router, ShortestPath, SolverMode,
};
use netpart::scenario::{build_fabric, TopologySpec};
use netpart::topology::Torus;
use netpart_bench::shuffle_flows;
use netpart_bench::strategies::small_fabric;
use proptest::prelude::*;

/// Max–min rates by serial full scan: the reference for
/// [`max_min_rates_csr`]. Same contract — flow `i` traverses
/// `path_data[path_offsets[i]..path_offsets[i + 1]]`, only `active`
/// entries of `rate` are written, and flows no channel constrains get
/// `f64::MAX`. Returns the flows each bottleneck step fixed, in step order.
fn reference_rates(
    active: &[usize],
    path_offsets: &[usize],
    path_data: &[ChannelId],
    capacities: &[f64],
    rate: &mut [f64],
) -> Vec<Vec<usize>> {
    let path = |i: usize| &path_data[path_offsets[i]..path_offsets[i + 1]];
    let mut remaining = capacities.to_vec();
    let mut unfixed = vec![0u32; capacities.len()];
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); capacities.len()];
    for &i in active {
        rate[i] = 0.0;
        for &c in path(i) {
            unfixed[c as usize] += 1;
            members[c as usize].push(i);
        }
    }
    let mut fixed = vec![false; rate.len()];
    let mut fixed_count = 0usize;
    let mut steps = Vec::new();
    let mut live: Vec<usize> = (0..capacities.len()).filter(|&c| unfixed[c] > 0).collect();
    while fixed_count < active.len() {
        live.retain(|&c| unfixed[c] > 0);
        let bottleneck = live
            .iter()
            .map(|&c| (remaining[c] / unfixed[c] as f64, c))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let Some((share, c)) = bottleneck else {
            for &i in active {
                if !fixed[i] {
                    rate[i] = f64::MAX;
                }
            }
            break;
        };
        let mut step = Vec::new();
        for &i in &members[c] {
            if fixed[i] {
                continue;
            }
            fixed[i] = true;
            fixed_count += 1;
            rate[i] = share;
            step.push(i);
            for &d in path(i) {
                remaining[d as usize] = (remaining[d as usize] - share).max(0.0);
                unfixed[d as usize] -= 1;
            }
        }
        steps.push(step);
    }
    steps
}

/// A fluid run to completion on [`reference_rates`], with `FluidSim`'s
/// round arithmetic; channel loads are summed per fabric channel in flow
/// order.
fn reference_fluid(
    path_offsets: &[usize],
    path_data: &[ChannelId],
    capacities: &[f64],
    sizes: &[f64],
) -> FluidOutcome {
    let n = sizes.len();
    let mut channel_load_gb = vec![0.0f64; capacities.len()];
    for (i, gb) in sizes.iter().enumerate() {
        for &c in &path_data[path_offsets[i]..path_offsets[i + 1]] {
            channel_load_gb[c as usize] += gb;
        }
    }
    let bottleneck_lower_bound = channel_load_gb
        .iter()
        .zip(capacities)
        .map(|(gb, cap)| gb / cap)
        .fold(0.0, f64::max);
    let mut active: Vec<usize> = (0..n)
        .filter(|&i| sizes[i] > 0.0 && path_offsets[i + 1] > path_offsets[i])
        .collect();
    let mut remaining = sizes.to_vec();
    let mut completion = vec![0.0f64; n];
    let mut rates = vec![0.0f64; n];
    let mut time = 0.0f64;
    let mut rounds = 0usize;
    while !active.is_empty() {
        rounds += 1;
        reference_rates(&active, path_offsets, path_data, capacities, &mut rates);
        let mut dt = active
            .iter()
            .map(|&i| remaining[i] / rates[i])
            .fold(f64::INFINITY, f64::min);
        if active.len() > 2000 {
            dt *= 1.05;
        }
        time += dt;
        active.retain(|&i| {
            remaining[i] -= rates[i] * dt;
            if remaining[i] <= 1e-9 * sizes[i].max(1e-9) {
                completion[i] = time;
                false
            } else {
                true
            }
        });
    }
    FluidOutcome {
        makespan: time,
        completion,
        channel_load_gb,
        bottleneck_lower_bound,
        rounds,
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Assert the kernel's rates for `active` equal the reference's to the bit.
fn assert_solve_matches(
    active: &[usize],
    offsets: &[usize],
    data: &[ChannelId],
    capacities: &[f64],
) {
    let flows = offsets.len() - 1;
    let mut expected = vec![0.0f64; flows];
    reference_rates(active, offsets, data, capacities, &mut expected);
    let mut rates = vec![0.0f64; flows];
    let mut scratch = MaxMinScratch::new();
    max_min_rates_csr(active, offsets, data, capacities, &mut scratch, &mut rates);
    assert_eq!(
        bits(&rates),
        bits(&expected),
        "rates diverge from the reference"
    );
}

/// Assert a `FluidSim` run under `mode` equals the reference fluid run to
/// the bit: makespan, every completion time, the round count, every
/// channel's load and the bottleneck bound. Runs stopped once the first `k`
/// flows are done (a cluster penalty's early stop) must report those flows'
/// reference completion times, for a few prefixes `k`.
fn assert_fluid_matches(
    offsets: &[usize],
    data: &[ChannelId],
    capacities: &[f64],
    sizes: &[f64],
    mode: SolverMode,
) {
    let reference = reference_fluid(offsets, data, capacities, sizes);
    let armed = || {
        let mut sim = FluidSim::empty_with_mode(mode);
        sim.reset_csr(offsets, data, capacities, sizes);
        sim
    };
    let mut sim = armed();
    sim.run_to_completion();
    let outcome = sim.into_outcome();
    assert_eq!(outcome.rounds, reference.rounds, "round count ({mode:?})");
    assert_eq!(
        outcome.makespan.to_bits(),
        reference.makespan.to_bits(),
        "makespan ({mode:?})"
    );
    assert_eq!(
        bits(&outcome.completion),
        bits(&reference.completion),
        "completion times ({mode:?})"
    );
    assert_eq!(
        bits(&outcome.channel_load_gb),
        bits(&reference.channel_load_gb),
        "channel loads ({mode:?})"
    );
    assert_eq!(
        outcome.bottleneck_lower_bound.to_bits(),
        reference.bottleneck_lower_bound.to_bits(),
        "bottleneck bound ({mode:?})"
    );

    let n = sizes.len();
    let mut prefixes = vec![1.min(n), n / 3, n / 2, n.saturating_sub(1)];
    prefixes.sort_unstable();
    prefixes.dedup();
    for k in prefixes {
        let mut early = armed();
        early.run_until_first_done(k);
        assert!(early.rounds() <= reference.rounds);
        assert_eq!(
            bits(&early.completion_times()[..k]),
            bits(&reference.completion[..k]),
            "first {k} completion times ({mode:?})"
        );
    }
}

/// The flows one step of a retirement script takes out of `active`, given
/// the reference's bottleneck steps for `active`. `kind` picks the shape:
/// 0. a random subset (bit `k % 64` of `pick` keeps the `k`-th flow);
/// 1. one flow of the first step, so the warm re-solve replays nothing;
/// 2. flows of the last step only, so it replays every earlier step;
/// 3. nothing, so it replays the whole record;
/// 4. every active flow crossing one channel, which empties that channel.
fn retirement(
    kind: u8,
    pick: u64,
    active: &[usize],
    steps: &[Vec<usize>],
    offsets: &[usize],
    data: &[ChannelId],
) -> Vec<usize> {
    let path = |i: usize| &data[offsets[i]..offsets[i + 1]];
    let subset = |flows: &[usize]| -> Vec<usize> {
        let mut chosen: Vec<usize> = (0..flows.len())
            .filter(|k| pick >> (k % 64) & 1 == 1)
            .map(|k| flows[k])
            .collect();
        if chosen.is_empty() && !flows.is_empty() {
            chosen.push(flows[pick as usize % flows.len()]);
        }
        chosen
    };
    match kind {
        0 => subset(active),
        1 => steps
            .first()
            .map_or(Vec::new(), |s| vec![s[pick as usize % s.len()]]),
        2 => steps.last().map_or(Vec::new(), |s| subset(s)),
        3 => Vec::new(),
        _ => {
            let routed: Vec<usize> = active
                .iter()
                .copied()
                .filter(|&i| !path(i).is_empty())
                .collect();
            let Some(&flow) = routed.get(pick as usize % routed.len().max(1)) else {
                return Vec::new();
            };
            let channel = path(flow)[0];
            routed
                .into_iter()
                .filter(|&i| path(i).contains(&channel))
                .collect()
        }
    }
}

fn route(fabric: &Fabric, router: &dyn Router, flows: &[Flow]) -> (Vec<usize>, Vec<ChannelId>) {
    let mut offsets = Vec::new();
    let mut data = Vec::new();
    route_flows_csr(fabric, router, flows, &mut offsets, &mut data).expect("flows route");
    (offsets, data)
}

#[test]
fn shuffle_on_32x32x4_matches_the_reference_bitwise() {
    // 4,096 nodes and 24,576 directed channels, one shuffle flow per node:
    // the first rounds see tens of thousands of live channels.
    let fabric = Fabric::from_torus(Torus::new(vec![32, 32, 4]), 2.0);
    let flows = shuffle_flows(&fabric);
    let (offsets, data) = route(&fabric, &DimensionOrdered::default(), &flows);
    let active: Vec<usize> = (0..flows.len()).collect();
    assert_solve_matches(&active, &offsets, &data, fabric.capacities());
    let sizes: Vec<f64> = flows.iter().map(|f| f.gigabytes).collect();
    assert_fluid_matches(
        &offsets,
        &data,
        fabric.capacities(),
        &sizes,
        SolverMode::Batch,
    );
}

#[test]
fn paper_pairing_on_8x8x4x4x2_matches_the_reference_bitwise() {
    // The proposed Fig. 3 geometry at node granularity, as the service
    // builds it: 2,048 nodes, 20,480 channels, every node paired with its
    // antipode in both directions.
    let fabric = build_fabric(&TopologySpec::Torus(vec![8, 8, 4, 4, 2])).expect("in budget");
    assert_eq!(fabric.num_channels(), 20_480);
    let torus = fabric.torus().expect("torus fabric").clone();
    let mut flows = Vec::new();
    for a in 0..fabric.num_nodes() {
        let b = torus.antipode(a);
        if a < b {
            for (src, dst) in [(a, b), (b, a)] {
                flows.push(Flow {
                    src,
                    dst,
                    gigabytes: 2.0,
                });
            }
        }
    }
    let (offsets, data) = route(&fabric, &DimensionOrdered::default(), &flows);
    let active: Vec<usize> = (0..flows.len()).collect();
    assert_solve_matches(&active, &offsets, &data, fabric.capacities());
    let sizes: Vec<f64> = flows.iter().map(|f| f.gigabytes).collect();
    assert_fluid_matches(
        &offsets,
        &data,
        fabric.capacities(),
        &sizes,
        SolverMode::Batch,
    );
}

#[test]
fn sparse_flows_on_32x32x4_match_the_reference_bitwise() {
    // A dozen flows over 24,576 channels: the set-local view holds a few
    // dozen of them. The zero-volume flow is alone on some of its channels,
    // which enter the view with no load and must read 0 per fabric channel.
    let fabric = Fabric::from_torus(Torus::new(vec![32, 32, 4]), 2.0);
    assert_eq!(fabric.num_channels(), 24_576);
    let flows: Vec<Flow> = [
        (0, 9, 1.0),
        (1, 9, 2.0),
        (2, 40, 0.5),
        (0, 64, 1.5),
        (9, 0, 1.0),
        (33, 1, 0.75),
        (64, 2, 1.25),
        (5, 100, 3.0),
        (100, 5, 0.25),
        (40, 41, 1.0),
        (41, 40, 2.5),
        (3000, 3003, 0.0),
    ]
    .into_iter()
    .map(|(src, dst, gigabytes)| Flow {
        src,
        dst,
        gigabytes,
    })
    .collect();
    let (offsets, data) = route(&fabric, &DimensionOrdered::default(), &flows);
    let zero = flows.len() - 1;
    let zero_path = &data[offsets[zero]..offsets[zero + 1]];
    assert!(
        zero_path
            .iter()
            .any(|c| data[..offsets[zero]].iter().all(|d| d != c)),
        "the zero-volume flow has a channel of its own"
    );
    let sizes: Vec<f64> = flows.iter().map(|f| f.gigabytes).collect();
    for mode in [SolverMode::Batch, SolverMode::Incremental] {
        assert_fluid_matches(&offsets, &data, fabric.capacities(), &sizes, mode);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(48))]

    #[test]
    fn random_flow_sets_match_the_reference_bitwise(
        fabric in small_fabric(),
        raw_flows in proptest::collection::vec((0usize..1 << 16, 0usize..1 << 16, 0.05f64..4.0), 0..40),
        scales in proptest::collection::vec(1u8..=8, 1..12),
        active_mask in any::<u64>(),
    ) {
        // Endpoints reduce into the fabric (src == dst stays possible: an
        // empty path, which no channel constrains). One scale leaves the
        // fabric's uniform capacities tie-heavy; several make them uneven,
        // and the division by 3 leaves shares off the dyadic grid.
        let nodes = fabric.num_nodes();
        let flows: Vec<Flow> = raw_flows
            .iter()
            .map(|&(s, d, gigabytes)| Flow { src: s % nodes, dst: d % nodes, gigabytes })
            .collect();
        let capacities: Vec<f64> = fabric
            .capacities()
            .iter()
            .enumerate()
            .map(|(c, cap)| cap * f64::from(scales[c % scales.len()]) / 3.0)
            .collect();
        let router: Box<dyn Router> = if fabric.torus().is_some() {
            Box::new(DimensionOrdered::default())
        } else {
            Box::new(ShortestPath)
        };
        let (offsets, data) = route(&fabric, router.as_ref(), &flows);
        let active: Vec<usize> = (0..flows.len())
            .filter(|&i| active_mask >> (i % 64) & 1 == 1)
            .collect();
        assert_solve_matches(&active, &offsets, &data, &capacities);
        let sizes: Vec<f64> = flows.iter().map(|f| f.gigabytes).collect();
        for mode in [SolverMode::Batch, SolverMode::Incremental] {
            assert_fluid_matches(&offsets, &data, &capacities, &sizes, mode);
        }
    }

    #[test]
    fn warm_re_solves_match_the_reference_after_any_retirement(
        fabric in small_fabric(),
        raw_flows in proptest::collection::vec((0usize..1 << 16, 0usize..1 << 16), 1..40),
        scales in proptest::collection::vec(1u8..=8, 1..12),
        script in proptest::collection::vec((0u8..5, any::<u64>()), 1..16),
    ) {
        // One cold solve, then one warm re-solve per script step, each
        // after the step's retirements (not only those completion order
        // would produce), checked against a cold reference solve.
        let nodes = fabric.num_nodes();
        let flows: Vec<Flow> = raw_flows
            .iter()
            .map(|&(s, d)| Flow { src: s % nodes, dst: d % nodes, gigabytes: 1.0 })
            .collect();
        let capacities: Vec<f64> = fabric
            .capacities()
            .iter()
            .enumerate()
            .map(|(c, cap)| cap * f64::from(scales[c % scales.len()]) / 3.0)
            .collect();
        let router: Box<dyn Router> = if fabric.torus().is_some() {
            Box::new(DimensionOrdered::default())
        } else {
            Box::new(ShortestPath)
        };
        let (offsets, data) = route(&fabric, router.as_ref(), &flows);
        let mut active: Vec<usize> = (0..flows.len()).collect();
        let mut scratch = MaxMinScratch::new();
        let mut rates = vec![0.0f64; flows.len()];
        let mut expected = vec![0.0f64; flows.len()];
        max_min_rates_csr(&active, &offsets, &data, &capacities, &mut scratch, &mut rates);
        let mut steps = reference_rates(&active, &offsets, &data, &capacities, &mut expected);
        for (kind, pick) in script {
            let retired = retirement(kind, pick, &active, &steps, &offsets, &data);
            active.retain(|i| !retired.contains(i));
            max_min_rates_warm(
                &active, &retired, &offsets, &data, &capacities, &mut scratch, &mut rates,
            );
            steps = reference_rates(&active, &offsets, &data, &capacities, &mut expected);
            let bits_of = |r: &[f64]| active.iter().map(|&i| r[i].to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits_of(&rates),
                bits_of(&expected),
                "warm re-solve after retiring {retired:?} (kind {kind})"
            );
        }
    }
}

//! Ablation bench: allocation-policy comparison in the scheduler simulator.
//!
//! Measures the simulation throughput of each policy on identical traces —
//! the quantity that matters if the advisor were embedded in a production
//! scheduler's allocation loop — and doubles as the regeneration point for
//! the policy-comparison numbers quoted in EXPERIMENTS.md.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use netpart_machines::known;
use netpart_sched::{generate_trace, simulate_events, SchedPolicy, TraceConfig};
use std::time::Duration;

fn bench_policies(c: &mut Criterion) {
    let juqueen = known::juqueen();
    let mut config = TraceConfig::default_for(&juqueen, 150, 99);
    config.contention_bound_fraction = 0.6;
    config.mean_interarrival = 200.0;
    let trace = generate_trace(&config);

    let mut group = c.benchmark_group("scheduler_policy");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(10));
    for policy in [
        SchedPolicy::WorstAvailableBisection,
        SchedPolicy::BestAvailableBisection,
        SchedPolicy::HintAware { tolerance: 0.99 },
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(policy.label()),
            &policy,
            |b, &policy| b.iter(|| simulate_events(black_box(&juqueen), policy, black_box(&trace))),
        );
    }
    group.finish();
}

fn bench_placement_search(c: &mut Criterion) {
    let mira = known::mira();
    let mut group = c.benchmark_group("placement");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    group.bench_function("empty_machine_16_midplanes", |b| {
        let grid = netpart_sched::OccupancyGrid::new(&mira);
        let geometry = netpart_machines::PartitionGeometry::new([2, 2, 2, 2]);
        b.iter(|| grid.find_placement(black_box(&geometry)))
    });
    group.finish();
}

criterion_group!(benches, bench_policies, bench_placement_search);
criterion_main!(benches);

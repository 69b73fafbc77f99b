//! Ablation: rank-to-node mapping strategy for the CAPS exchange pattern.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use netpart_engine::Fabric;
use netpart_mpi::{aggregate_flows, collectives, phase_seconds, MappingStrategy, RankMapping};
use netpart_topology::Torus;

fn bench_mappings(c: &mut Criterion) {
    let mut group = c.benchmark_group("caps_exchange_by_mapping");
    group.sample_size(10);
    let fabric = Fabric::from_torus(Torus::new(vec![16, 4, 4, 4, 2]), 2.0);
    for (label, strategy) in [
        ("balanced", MappingStrategy::Balanced),
        ("round_robin", MappingStrategy::RoundRobin),
        ("random", MappingStrategy::Random(7)),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &strategy, |b, &s| {
            let mapping = RankMapping::new(2401, fabric.num_nodes(), 2, s);
            let phases = collectives::group_counterpart_exchange(&mapping, 7, 0.01);
            let flows = aggregate_flows(&phases[0]);
            b.iter(|| phase_seconds(black_box(&fabric), black_box(&flows)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mappings);
criterion_main!(benches);

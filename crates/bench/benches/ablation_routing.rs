//! Ablation: how the routing tie-break affects the bisection-pairing time.
//!
//! The tie-breaking rule for antipodal traffic (`netpart_engine::TieBreak`)
//! is a modelling choice; this bench quantifies it (the geometry effect the
//! paper reports survives every rule).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use netpart_engine::{pairing_flows, simulate_flows, DimensionOrdered, Fabric, TieBreak};
use netpart_topology::Torus;

fn bench_tie_breaks(c: &mut Criterion) {
    let mut group = c.benchmark_group("pairing_by_tie_break");
    group.sample_size(10);
    let fabric = Fabric::from_torus(Torus::new(vec![16, 4, 4, 4, 2]), 2.0);
    let flows = pairing_flows(&fabric, 2.0);
    for (label, tie_break) in [
        ("positive", TieBreak::Positive),
        ("source_parity", TieBreak::SourceParity),
        ("node_parity", TieBreak::NodeParity),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &tie_break, |b, &tb| {
            let router = DimensionOrdered {
                tie_break: tb,
                reverse_dimension_order: false,
            };
            b.iter(|| {
                simulate_flows(black_box(&fabric), &router, black_box(&flows))
                    .expect("torus fabrics route everything")
                    .makespan
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tie_breaks);
criterion_main!(benches);

//! Ablation: max-min fair fluid simulation vs the static bottleneck bound.
//!
//! Both models preserve the geometry effect (the paper's x2); the fluid model
//! additionally captures path diversity. This bench measures their cost gap.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use netpart_engine::{pairing_flows, simulate_flows, static_estimate, DimensionOrdered, Fabric};
use netpart_topology::Torus;

fn bench_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("contention_model");
    group.sample_size(10);
    let fabric = Fabric::from_torus(Torus::new(vec![16, 4, 4, 4, 2]), 2.0);
    let flows = pairing_flows(&fabric, 2.0);
    let router = DimensionOrdered::default();
    group.bench_with_input(BenchmarkId::from_parameter("maxmin_fluid"), &(), |b, ()| {
        b.iter(|| {
            simulate_flows(black_box(&fabric), &router, black_box(&flows))
                .expect("torus fabrics route everything")
                .makespan
        })
    });
    group.bench_with_input(
        BenchmarkId::from_parameter("static_bottleneck"),
        &(),
        |b, ()| {
            b.iter(|| {
                static_estimate(black_box(&fabric), &router, black_box(&flows))
                    .expect("torus fabrics route everything")
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_models);
criterion_main!(benches);

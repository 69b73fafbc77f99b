//! Benchmarks of the discrete-event engine: raw event-queue throughput,
//! component dispatch, dimension-ordered routing throughput, and the
//! topology-generic fabric flow simulation.
//!
//! The workloads are defined once in `netpart_bench::engine_workloads` and
//! shared with the `bench_engine_baseline` bin, so these timings and the
//! committed `results/bench_engine.json` always measure the same thing.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use netpart_bench::engine_workloads::{
    dispatch_chain, fabric_cases, queue_push_drain, shuffle_flows,
};
use netpart_engine::{pairing_flows, route_flows_csr, simulate_flows, DimensionOrdered, Fabric};
use netpart_topology::Torus;

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    for &n in &[10_000usize, 100_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| queue_push_drain(black_box(n)))
        });
    }
    group.finish();
}

fn bench_dispatch(c: &mut Criterion) {
    c.bench_function("dispatch_chain_100k_events", |b| {
        b.iter(|| dispatch_chain(black_box(100_000)))
    });
}

fn bench_routing_throughput(c: &mut Criterion) {
    c.bench_function("route_all_antipodal_pairs_2048_nodes", |b| {
        let fabric = Fabric::from_torus(Torus::new(vec![16, 4, 4, 4, 2]), 2.0);
        let flows = pairing_flows(&fabric, 1.0);
        let router = DimensionOrdered::default();
        let (mut offsets, mut data) = (Vec::new(), Vec::new());
        b.iter(|| {
            route_flows_csr(
                black_box(&fabric),
                &router,
                black_box(&flows),
                &mut offsets,
                &mut data,
            )
            .expect("torus fabrics route everything");
            data.len()
        })
    });
}

fn bench_fabric_flow(c: &mut Criterion) {
    let mut group = c.benchmark_group("fabric_flow_shuffle");
    group.sample_size(10);
    for (label, fabric, router) in &fabric_cases() {
        group.bench_with_input(BenchmarkId::from_parameter(label), fabric, |b, fabric| {
            let flows = shuffle_flows(fabric);
            b.iter(|| {
                simulate_flows(black_box(fabric), router.as_ref(), black_box(&flows))
                    .expect("connected")
                    .makespan
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_dispatch,
    bench_routing_throughput,
    bench_fabric_flow
);
criterion_main!(benches);

//! Benchmark: chase variant scaling — naive full re-enumeration vs
//! semi-naive delta rounds, swept over instance size and dependency
//! count on the recursive (multi-round) workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rde_bench::workloads;
use rde_chase::{chase, ChaseOptions, ChaseVariant};
use rde_model::Vocabulary;

fn bench_chase_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("chase_scaling");
    for nodes in [16usize, 32, 64] {
        for extra_deps in [0usize, 4] {
            let mut vocab = Vocabulary::new();
            let deps = workloads::recursive_deps(&mut vocab, extra_deps);
            let instance = workloads::random_graph(&mut vocab, nodes, nodes, 11);
            group.throughput(Throughput::Elements(instance.len() as u64));
            for (name, variant) in
                [("naive", ChaseVariant::Naive), ("semi_naive", ChaseVariant::SemiNaive)]
            {
                let id = BenchmarkId::new(name, format!("n{nodes}_d{}", deps.len()));
                group.bench_with_input(id, &instance, |b, inst| {
                    let options = ChaseOptions::for_variant(variant);
                    b.iter(|| {
                        let mut v = vocab.clone();
                        chase(inst, &deps, &mut v, &options).unwrap()
                    })
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_chase_scaling);
criterion_main!(benches);

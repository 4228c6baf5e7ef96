//! Ablation: chase firing discipline (oblivious vs satisfaction-checking)
//! and disjunctive-chase subsumption pruning (DESIGN.md §7, ablations
//! 2–3). Reports the size trade-off through the benchmark ids.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rde_bench::workloads;
use rde_chase::{
    chase_mapping, disjunctive_chase, ChaseOptions, ChaseVariant, DisjunctiveChaseOptions,
};
use rde_model::Vocabulary;

fn bench_chase_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_chase_mode");
    for size in [64usize, 256] {
        let mut vocab = Vocabulary::new();
        let w = workloads::two_step(&mut vocab);
        // Skewed instances (few distinct endpoints) make many triggers
        // already satisfied: satisfaction checking pays off in facts.
        let instance = workloads::source_instance(&mut vocab, &w.mapping, size, 6, 2, 0.2, 31);
        for (name, variant) in
            [("oblivious", ChaseVariant::SemiNaive), ("standard", ChaseVariant::Restricted)]
        {
            let opts = ChaseOptions::for_variant(variant);
            group.bench_with_input(BenchmarkId::new(name, size), &instance, |b, inst| {
                b.iter(|| {
                    let mut v = vocab.clone();
                    chase_mapping(inst, &w.mapping, &mut v, &opts).unwrap()
                })
            });
        }
    }
    group.finish();
}

fn bench_subsumption_pruning(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_disjunctive_pruning");
    group.sample_size(10);
    for facts in [4usize, 6] {
        let mut vocab = Vocabulary::new();
        let w = workloads::union_k(&mut vocab, 2);
        let src = workloads::source_instance(&mut vocab, &w.mapping, facts, facts + 1, 0, 0.0, 37);
        let u = chase_mapping(&src, &w.mapping, &mut vocab, &ChaseOptions::default()).unwrap();
        for (name, prune) in [("raw_leaves", false), ("pruned_leaves", true)] {
            let opts = DisjunctiveChaseOptions { prune_subsumed: prune, ..Default::default() };
            group.bench_with_input(BenchmarkId::new(name, facts), &u, |b, u| {
                b.iter(|| {
                    let mut v = vocab.clone();
                    disjunctive_chase(u, &w.reverse.dependencies, &mut v, &opts).unwrap()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_chase_modes, bench_subsumption_pruning);
criterion_main!(benches);

//! Chase variant scaling experiment: measures the naive, semi-naive and
//! restricted variants on the recursive null-chord workload. Writes `BENCH_chase.json` (repo root,
//! or the path given as the first argument) as the recorded baseline.
//!
//! Pass `--quick` to shrink the sweep for CI smoke runs.

use std::time::Instant;

use rde_bench::workloads;
use rde_chase::{chase, ChaseOptions, ChaseResult, ChaseVariant};
use rde_model::{Instance, Vocabulary};

/// Mean wall-clock seconds per run (few repetitions; the chase runs
/// are long enough that warm-up noise is small).
fn time_chase(
    vocab: &Vocabulary,
    instance: &Instance,
    deps: &[rde_deps::Dependency],
    options: &ChaseOptions,
    reps: usize,
) -> (f64, ChaseResult) {
    let mut result = None;
    let start = Instant::now();
    for _ in 0..reps {
        let mut v = vocab.clone();
        result = Some(chase(instance, deps, &mut v, options).unwrap());
    }
    (start.elapsed().as_secs_f64() / reps as f64, result.unwrap())
}

/// Cumulative `chase.round.us` histogram sum, for differencing around
/// a timed run to attribute round time to it.
fn round_us() -> u64 {
    rde_obs::snapshot().histogram("chase.round.us").map_or(0, |h| h.sum)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_chase.json".to_string());
    let mut rows = Vec::new();
    println!(
        "{:>6} {:>5} {:>7} {:>10} {:>10} {:>10} {:>10} {:>11}",
        "nodes", "deps", "facts", "naive_ms", "semi_ms", "restr_ms", "round_us", "hom_nodes"
    );
    let sizes: &[usize] = if quick { &[16] } else { &[16, 32, 64, 128] };
    for &nodes in sizes {
        for extra_deps in [0usize, 4] {
            let mut vocab = Vocabulary::new();
            let deps = workloads::triangle_deps(&mut vocab, extra_deps);
            let instance = workloads::random_graph_nulls(&mut vocab, nodes, nodes / 2, 11);
            let reps = if nodes >= 64 { 2 } else { 5 };
            let naive = ChaseOptions::for_variant(ChaseVariant::Naive);
            let semi = ChaseOptions::for_variant(ChaseVariant::SemiNaive);
            let restricted = ChaseOptions::for_variant(ChaseVariant::Restricted);
            let (t_naive, r_naive) = time_chase(&vocab, &instance, &deps, &naive, reps);
            let us0 = round_us();
            let (t_semi, r_semi) = time_chase(&vocab, &instance, &deps, &semi, reps);
            let us1 = round_us();
            let (t_res, r_res) = time_chase(&vocab, &instance, &deps, &restricted, reps);
            assert_eq!(
                r_naive.instance, r_semi.instance,
                "naive and semi-naive must agree exactly"
            );
            assert!(
                r_res.instance.len() <= r_semi.instance.len(),
                "the restricted chase never mints facts the oblivious one skipped"
            );
            let speedup = t_naive / t_semi;
            let semi_round_us = (us1 - us0) / reps as u64;
            println!(
                "{:>6} {:>5} {:>7} {:>10.3} {:>10.3} {:>10.3} {:>10} {:>11}",
                nodes,
                deps.len(),
                r_semi.instance.len(),
                t_naive * 1e3,
                t_semi * 1e3,
                t_res * 1e3,
                semi_round_us,
                r_semi.hom.nodes
            );
            rows.push(format!(
                concat!(
                    "    {{\"nodes\": {}, \"deps\": {}, \"rounds\": {}, \"fired\": {}, ",
                    "\"result_facts\": {}, \"naive_ms\": {:.3}, \"semi_naive_ms\": {:.3}, ",
                    "\"restricted_ms\": {:.3}, ",
                    "\"restricted_fired\": {}, \"restricted_facts\": {}, ",
                    "\"speedup_semi_vs_naive\": {:.2}, ",
                    "\"round_us\": {}, \"hom_nodes\": {}}}"
                ),
                nodes,
                deps.len(),
                r_naive.rounds,
                r_naive.fired,
                r_naive.instance.len(),
                t_naive * 1e3,
                t_semi * 1e3,
                t_res * 1e3,
                r_res.fired,
                r_res.instance.len(),
                speedup,
                semi_round_us,
                r_semi.hom.nodes
            ));
        }
    }
    // Embed the process-wide metrics registry: chase round/trigger
    // counters and delta/latency histograms across every run above.
    let metrics = rde_obs::snapshot().to_json();
    let json = format!(
        concat!(
            "{{\n  \"benchmark\": \"chase_scaling\",\n",
            "  \"workload\": \"cycle graph + labeled-null chords; copy E into T, linear closure ",
            "T(x,y) & E(y,z) -> T(x,z), triangle rule with a fully bound premise atom, ",
            "plus side-output rules\",\n",
            "  \"modes\": [\"naive\", \"semi_naive\", \"restricted\"],\n",
            "  \"results\": [\n{}\n  ],\n",
            "  \"metrics\": {}\n}}\n"
        ),
        rows.join(",\n"),
        metrics
    );
    rde_bench::write_baseline(&out_path, &json);
}

//! Chase variant scaling experiment: measures the naive, semi-naive and
//! restricted variants on the recursive null-chord workload. Writes `BENCH_chase.json` (repo root,
//! or the path given as the first argument) as the recorded baseline:
//! per cell the median of [`RUNS`] runs of each variant, its
//! `[min, max]` spread, and the restricted/semi-naive ratio of the
//! medians.
//!
//! Pass `--quick` to shrink the sweep for CI smoke runs.

use std::time::Instant;

use rde_bench::workloads;
use rde_chase::{chase, ChaseOptions, ChaseResult, ChaseVariant};
use rde_model::{Instance, Vocabulary};

/// Runs per cell. The variants alternate within each run, so drift on
/// a shared host lands on all three alike.
const RUNS: usize = 3;

/// Mean wall-clock seconds per chase over `reps` back-to-back chases
/// (the chase runs are long enough that warm-up noise is small).
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

/// One variant's per-run timings in one cell, in milliseconds.
#[derive(Default)]
struct Timings(Vec<f64>);

impl Timings {
    fn median(&self) -> f64 {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[sorted.len() / 2]
    }

    /// `[min, max]` as a JSON array.
    fn spread(&self) -> String {
        let min = self.0.iter().copied().fold(f64::INFINITY, f64::min);
        let max = self.0.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        format!("[{min:.3}, {max:.3}]")
    }
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
        "{:>6} {:>5} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10} {:>11}",
        "nodes",
        "deps",
        "facts",
        "naive_ms",
        "semi_ms",
        "restr_ms",
        "restr/semi",
        "round_us",
        "hom_nodes"
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
            let (mut t_naive, mut t_semi, mut t_res) =
                (Timings::default(), Timings::default(), Timings::default());
            let mut semi_round_us: Vec<u64> = Vec::new();
            let mut results = None;
            for _ in 0..RUNS {
                let (t, r_naive) = time_chase(&vocab, &instance, &deps, &naive, reps);
                t_naive.0.push(t * 1e3);
                let us0 = round_us();
                let (t, r_semi) = time_chase(&vocab, &instance, &deps, &semi, reps);
                t_semi.0.push(t * 1e3);
                semi_round_us.push((round_us() - us0) / reps as u64);
                let (t, r_res) = time_chase(&vocab, &instance, &deps, &restricted, reps);
                t_res.0.push(t * 1e3);
                results = Some((r_naive, r_semi, r_res));
            }
            let (r_naive, r_semi, r_res) = results.unwrap();
            assert_eq!(
                r_naive.instance, r_semi.instance,
                "naive and semi-naive must agree exactly"
            );
            assert!(
                r_res.instance.len() <= r_semi.instance.len(),
                "the restricted chase never mints facts the oblivious one skipped"
            );
            semi_round_us.sort_unstable();
            let round_us = semi_round_us[RUNS / 2];
            let (naive_ms, semi_ms, res_ms) = (t_naive.median(), t_semi.median(), t_res.median());
            let ratio = res_ms / semi_ms;
            println!(
                "{:>6} {:>5} {:>7} {:>10.3} {:>10.3} {:>10.3} {:>10.2} {:>10} {:>11}",
                nodes,
                deps.len(),
                r_semi.instance.len(),
                naive_ms,
                semi_ms,
                res_ms,
                ratio,
                round_us,
                r_semi.hom.nodes
            );
            rows.push(format!(
                concat!(
                    "    {{\"nodes\": {}, \"deps\": {}, \"rounds\": {}, \"fired\": {}, ",
                    "\"result_facts\": {}, \"naive_ms\": {:.3}, \"semi_naive_ms\": {:.3}, ",
                    "\"restricted_ms\": {:.3}, ",
                    "\"restricted_fired\": {}, \"restricted_facts\": {}, ",
                    "\"speedup_semi_vs_naive\": {:.2}, \"restricted_vs_semi\": {:.2}, ",
                    "\"round_us\": {}, \"hom_nodes\": {}, ",
                    "\"spread_naive_ms\": {}, \"spread_semi_naive_ms\": {}, ",
                    "\"spread_restricted_ms\": {}}}"
                ),
                nodes,
                deps.len(),
                r_naive.rounds,
                r_naive.fired,
                r_naive.instance.len(),
                naive_ms,
                semi_ms,
                res_ms,
                r_res.fired,
                r_res.instance.len(),
                naive_ms / semi_ms,
                ratio,
                round_us,
                r_semi.hom.nodes,
                t_naive.spread(),
                t_semi.spread(),
                t_res.spread()
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
            "  \"statistic\": \"median of {} runs per cell; spread_*_ms are [min, max]; ",
            "speedup_semi_vs_naive and restricted_vs_semi are ratios of the medians; ",
            "round_us is the median over the semi-naive runs; metrics cover every run\",\n",
            "  \"results\": [\n{}\n  ],\n",
            "  \"metrics\": {}\n}}\n"
        ),
        RUNS,
        rows.join(",\n"),
        metrics
    );
    rde_bench::write_baseline(&out_path, &json);
}

//! Homomorphism-layer baseline: measures the incremental core
//! minimizer against the quadratic rebuild-per-candidate reference, and
//! pairwise arrow queries with and without the fingerprint-classed,
//! core-memoized [`ArrowMCache`]. Writes `BENCH_hom.json` (repo root,
//! or the path given as the first argument) as the recorded baseline.
//!
//! Pass `--quick` (after the optional path) to shrink the sweep for CI
//! smoke runs.

use std::time::Instant;

use rde_bench::workloads;
use rde_chase::{chase_mapping, ChaseOptions};
use rde_core::arrow::{ArrowMCache, CachePolicy};
use rde_core::Universe;
use rde_hom::{core_of, core_of_quadratic, exists_hom, hom_equivalent, HomConfig, HomStats};
use rde_model::parse::parse_instance;
use rde_model::{Instance, Vocabulary};

/// Mean wall-clock seconds of `f` over `reps` runs.
fn time<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut out = None;
    let start = Instant::now();
    for _ in 0..reps {
        out = Some(f());
    }
    (start.elapsed().as_secs_f64() / reps as f64, out.unwrap())
}

/// A bloated instance whose core is a tiny ground kernel: a `k`-fact
/// ground chain plus `pad` null-carrying facts that all fold into it.
fn bloated(vocab: &mut Vocabulary, k: usize, pad: usize) -> Instance {
    let mut text = String::new();
    for i in 0..k {
        text.push_str(&format!("P(c{i}, c{})\n", i + 1));
    }
    for i in 0..pad {
        // Each padded fact maps onto some ground edge by sending its
        // null to that edge's endpoint.
        text.push_str(&format!("P(c{}, ?n{i})\n", i % k));
    }
    parse_instance(vocab, &text).unwrap()
}

fn core_rows(quick: bool, rows: &mut Vec<String>) {
    let sizes: &[(usize, usize)] =
        if quick { &[(4, 12)] } else { &[(4, 32), (8, 64), (8, 128), (8, 256)] };
    println!(
        "{:>7} {:>5} {:>14} {:>14} {:>9}",
        "facts", "core", "quadratic_ms", "incremental_ms", "speedup"
    );
    for &(k, pad) in sizes {
        let mut v = Vocabulary::new();
        let inst = bloated(&mut v, k, pad);
        let reps = if quick { 2 } else { 10 };
        let (t_quad, r_quad) = time(reps, || core_of_quadratic(&inst));
        let unbounded = HomConfig::default();
        let (t_inc, r_inc) = time(reps, || core_of(&inst, &unbounded).result);
        assert_eq!(r_quad.core.len(), r_inc.core.len(), "minimizers must agree on core size");
        let equivalent = hom_equivalent(&inst, &r_inc.core, &unbounded, &mut HomStats::default());
        assert!(equivalent.holds(), "core must stay hom-equivalent");
        let speedup = t_quad / t_inc;
        println!(
            "{:>7} {:>5} {:>14.3} {:>14.3} {:>8.2}x",
            inst.len(),
            r_inc.core.len(),
            t_quad * 1e3,
            t_inc * 1e3,
            speedup
        );
        rows.push(format!(
            concat!(
                "    {{\"experiment\": \"core_minimize\", \"facts\": {}, \"core_facts\": {}, ",
                "\"quadratic_ms\": {:.3}, \"incremental_ms\": {:.3}, \"speedup\": {:.2}}}"
            ),
            inst.len(),
            r_inc.core.len(),
            t_quad * 1e3,
            t_inc * 1e3,
            speedup
        ));
    }
}

fn arrow_rows(quick: bool, rows: &mut Vec<String>) {
    let universes: &[(usize, usize, usize)] =
        if quick { &[(2, 1, 1)] } else { &[(2, 1, 1), (2, 1, 2)] };
    println!(
        "{:>9} {:>7} {:>12} {:>12} {:>9}",
        "instances", "classes", "uncached_ms", "cached_ms", "speedup"
    );
    for &(consts, nulls, facts) in universes {
        let mut v = Vocabulary::new();
        let mapping = workloads::two_step(&mut v);
        let u = Universe::new(&mut v, consts, nulls, facts);
        let family = u.collect_instances(&v, &mapping.source).unwrap();
        // The checkers (invertibility, lossiness comparison, loss
        // census) each sweep the pair grid; model that repetition.
        let sweeps = 3u64;
        let unbounded = HomConfig::default();
        // Uncached baseline: chase once per instance (that much any
        // implementation shares), then decide every pair directly.
        let (t_plain, hits_plain) = time(1, || {
            let chased: Vec<Instance> = family
                .iter()
                .map(|i| {
                    chase_mapping(i, &mapping, &mut v.clone(), &ChaseOptions::default()).unwrap()
                })
                .collect();
            let (mut hits, mut stats) = (0u64, HomStats::default());
            for _ in 0..sweeps {
                for a in &chased {
                    for b in &chased {
                        if exists_hom(a, b, &unbounded, &mut stats).holds() {
                            hits += 1;
                        }
                    }
                }
            }
            hits
        });
        // Cached: class the family by chased-core fingerprint and memo
        // per class pair. Construction cost included; repeat sweeps are
        // pure memo hits.
        let (t_cached, (hits_cached, classes)) = time(1, || {
            let mut vc = v.clone();
            let policy = CachePolicy::default();
            let cache =
                ArrowMCache::with_policy(&mapping, &family, &mut vc, &unbounded, policy).unwrap();
            let mut hits = 0u64;
            for _ in 0..sweeps {
                for a in 0..family.len() {
                    for b in 0..family.len() {
                        if cache.arrow(a, b, &unbounded).holds() {
                            hits += 1;
                        }
                    }
                }
            }
            (hits, cache.stats().classes)
        });
        assert_eq!(hits_plain, hits_cached, "cache must not change any verdict");
        let speedup = t_plain / t_cached;
        println!(
            "{:>9} {:>7} {:>12.3} {:>12.3} {:>8.2}x",
            family.len(),
            classes,
            t_plain * 1e3,
            t_cached * 1e3,
            speedup
        );
        rows.push(format!(
            concat!(
                "    {{\"experiment\": \"arrow_sweep\", \"instances\": {}, \"classes\": {}, ",
                "\"arrow_pairs\": {}, \"uncached_ms\": {:.3}, \"cached_ms\": {:.3}, ",
                "\"speedup\": {:.2}}}"
            ),
            family.len(),
            classes,
            hits_cached,
            t_plain * 1e3,
            t_cached * 1e3,
            speedup
        ));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_hom.json".to_string());
    let mut rows = Vec::new();
    core_rows(quick, &mut rows);
    arrow_rows(quick, &mut rows);
    // Embed the process-wide metrics registry: hom/arrow counters and
    // histograms accumulated across every run above.
    let metrics = rde_obs::snapshot().to_json();
    let json = format!(
        concat!(
            "{{\n  \"benchmark\": \"hom_baseline\",\n",
            "  \"experiments\": [\"core_minimize (quadratic reference vs incremental)\", ",
            "\"arrow_sweep (direct pairwise vs fingerprint-classed core-memoized cache)\"],\n",
            "  \"workloads\": [\"ground chain + foldable null padding\", ",
            "\"two_step mapping over a bounded source universe\"],\n",
            "  \"results\": [\n{}\n  ],\n",
            "  \"metrics\": {}\n}}\n"
        ),
        rows.join(",\n"),
        metrics
    );
    rde_bench::write_baseline(&out_path, &json);
}

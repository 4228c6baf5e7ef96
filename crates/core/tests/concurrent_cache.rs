//! The shared-cache concurrency contract (the daemon's load-bearing
//! assumption): one [`ArrowMCache`] serving many threads, each request
//! carrying its **own** `ExecContext`.
//!
//! Two properties must hold:
//!
//! 1. **No cancellation bleed.** A request whose token is already
//!    cancelled may get `Unknown(Cancelled)` — or a definite verdict
//!    straight from the memo — but it must never poison the cache:
//!    neighbours with live contexts, and every later request, still
//!    get definite answers.
//! 2. **Warm == cold.** Every verdict produced through the shared,
//!    concurrently-hammered cache is identical to what a cold cache
//!    (and the uncached reference) computes for the same pair.

use std::sync::Arc;

use rde_core::arrow::{arrow_m, ArrowMCache, CachePolicy};
use rde_core::invertibility::{check_homomorphism_property_cached, BoundedVerdict};
use rde_core::Universe;
use rde_deps::parse_mapping;
use rde_faults::{CancelToken, ExecContext};
use rde_hom::{Exhausted, HomConfig, HomStats, Verdict};
use rde_model::{Instance, Vocabulary};

/// The union mapping (not invertible: it forgets which of A/B held) —
/// small enough to scan exhaustively, rich enough to have both YES and
/// NO arrow pairs.
fn setup() -> (Vocabulary, rde_deps::SchemaMapping, Vec<Instance>) {
    let mut vocab = Vocabulary::new();
    let mapping =
        parse_mapping(&mut vocab, "source: A/1, B/1\ntarget: T/1\nA(x) -> T(x)\nB(x) -> T(x)\n")
            .unwrap();
    let universe = Universe::new(&mut vocab, 2, 1, 2);
    let family = universe.collect_instances(&vocab, &mapping.source).unwrap();
    assert!(family.len() >= 8, "need a real family to scan, got {}", family.len());
    (vocab, mapping, family)
}

/// A config whose token is already cancelled when the request starts.
fn cancelled_config() -> HomConfig {
    let token = CancelToken::new();
    token.cancel();
    HomConfig { ctx: ExecContext::default().with_cancel(token), ..HomConfig::default() }
}

#[test]
fn cancelled_requests_do_not_bleed_into_neighbours() {
    let (mut vocab, mapping, family) = setup();
    // Cold reference verdict, computed before any sharing.
    let reference = {
        let cache = ArrowMCache::with_policy(
            &mapping,
            &family,
            &mut vocab.clone(),
            &HomConfig::default(),
            CachePolicy::default(),
        )
        .unwrap();
        check_homomorphism_property_cached(
            &cache,
            &family,
            &HomConfig::default(),
            &mut HomStats::default(),
        )
    };
    assert!(
        matches!(reference, BoundedVerdict::Counterexample { .. }),
        "the union mapping must fail the homomorphism property: {reference:?}"
    );

    let cache = Arc::new(
        ArrowMCache::with_policy(
            &mapping,
            &family,
            &mut vocab,
            &HomConfig::default(),
            CachePolicy::default(),
        )
        .unwrap(),
    );
    let family = Arc::new(family);
    let workers: Vec<_> = (0..8)
        .map(|i| {
            let cache = Arc::clone(&cache);
            let family = Arc::clone(&family);
            let reference = reference.clone();
            std::thread::spawn(move || {
                for _ in 0..4 {
                    let mut stats = HomStats::default();
                    if i % 2 == 0 {
                        // Live context: always the reference verdict.
                        let got = check_homomorphism_property_cached(
                            &cache,
                            &family,
                            &HomConfig::default(),
                            &mut stats,
                        );
                        assert_eq!(got, reference, "live thread {i} must match the cold run");
                    } else {
                        // Dead-on-arrival context: an honest
                        // Unknown(Cancelled), or a definite verdict the
                        // memo already held — never a wrong answer.
                        let got = check_homomorphism_property_cached(
                            &cache,
                            &family,
                            &cancelled_config(),
                            &mut stats,
                        );
                        match got {
                            BoundedVerdict::Unknown { budget: Exhausted::Cancelled } => {}
                            ref defin if *defin == reference => {}
                            other => panic!(
                                "cancelled thread {i} saw a verdict that is neither \
                                 Cancelled nor the reference: {other:?}"
                            ),
                        }
                    }
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().unwrap();
    }

    // The cache must not have memoized any cancellation: a fresh
    // context still gets the exact reference verdict.
    let after = check_homomorphism_property_cached(
        &cache,
        &family,
        &HomConfig::default(),
        &mut HomStats::default(),
    );
    assert_eq!(after, reference, "a cancelled request must never poison the memo");
}

#[test]
fn shared_cache_verdicts_match_cold_and_uncached_runs() {
    let (mut vocab, mapping, family) = setup();
    // Uncached ground truth for every pair.
    let truth: Vec<Vec<bool>> = (0..family.len())
        .map(|a| {
            (0..family.len())
                .map(|b| arrow_m(&mapping, &family[a], &family[b], &mut vocab.clone()).unwrap())
                .collect()
        })
        .collect();

    let cache = Arc::new(
        ArrowMCache::with_policy(
            &mapping,
            &family,
            &mut vocab,
            &HomConfig::default(),
            CachePolicy::bounded(1 << 12, 256),
        )
        .unwrap(),
    );
    let n = family.len();
    let workers: Vec<_> = (0..8)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let truth = truth.clone();
            std::thread::spawn(move || {
                // Each thread sweeps the matrix from a different offset
                // so memo writes and reads interleave across threads.
                for step in 0..2 * n * n {
                    let k = (step + t * 7) % (n * n);
                    let (a, b) = (k / n, k % n);
                    match cache.arrow(a, b, &HomConfig::default()) {
                        Verdict::Holds => assert!(truth[a][b], "({a},{b}) holds but truth says no"),
                        Verdict::Fails => {
                            assert!(!truth[a][b], "({a},{b}) fails but truth says yes");
                        }
                        Verdict::Unknown { budget } => {
                            panic!("unbudgeted sweep cannot be unknown: {budget}")
                        }
                    }
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().unwrap();
    }
    let stats = cache.stats();
    assert!(stats.hits > 0, "concurrent sweeps must actually share the memo: {stats:?}");
}

//! Context-isolation suite.
//!
//! The point of [`ExecContext`] is that cancellation and fault
//! injection are *scoped*: a context that is cancelled and saturated
//! with faults must not perturb a sibling context running concurrently
//! on another thread — not its results, not its campaign counters.
//! These tests run a poisoned context and a clean context side by side
//! through the real engines (chase, arrow cache, information loss) and
//! assert the clean side is bit-identical to a reference run, across
//! 100 consecutive stress iterations.
//!
//! The clean context carries a **counting** campaign (hits recorded,
//! zero fire probability): its report proves the engines consulted
//! *this* context's injector — so had the sibling's campaign leaked
//! over, the fires would be visible here — and its zero fired count is
//! the isolation assertion itself.
#![cfg(feature = "fault-inject")]

use std::panic::{catch_unwind, AssertUnwindSafe};

use rde_chase::ChaseOptions;
use rde_core::arrow::{ArrowMCache, CachePolicy};
use rde_core::loss::{information_loss, LossReport};
use rde_core::Universe;
use rde_deps::{parse_mapping, SchemaMapping};
use rde_faults::{ExecContext, FaultConfig, FaultInjector};
use rde_hom::{HomConfig, HomStats};
use rde_model::{Instance, Vocabulary};

const MAPPING: &str = "source: P/1, Q/1\ntarget: R/1\nP(x) -> R(x)\nQ(x) -> R(x)";

/// A context that can only misbehave: every injection point fires on
/// every hit, and the cancel token is already tripped.
fn poisoned_context() -> ExecContext {
    let ctx = ExecContext::cancellable()
        .with_injector(FaultInjector::new(FaultConfig::always(7, "")))
        .with_scope("poisoned");
    ctx.cancel.cancel();
    ctx
}

/// A live but harmless context: the campaign counts every consultation
/// and never fires.
fn counting_context(seed: u64) -> ExecContext {
    ExecContext::default()
        .with_injector(FaultInjector::new(FaultConfig::counting(seed)))
        .with_scope("clean")
}

fn setup(vocab: &mut Vocabulary) -> (SchemaMapping, Vec<Instance>, Universe) {
    let mapping = parse_mapping(vocab, MAPPING).unwrap();
    let universe = Universe::new(vocab, 2, 1, 1);
    let family = universe.collect_instances(vocab, &mapping.source).unwrap();
    (mapping, family, universe)
}

/// Everything the clean side computes, for bit-exact comparison.
#[derive(PartialEq, Debug)]
struct Answers {
    chased: Instance,
    arrows: Vec<Vec<bool>>,
    loss: (usize, usize, usize, usize),
}

/// Run chase + arrow census + loss census under `ctx` in a fresh
/// vocabulary. Deterministic: two calls with non-firing contexts must
/// return identical `Answers`.
fn run_engines(ctx: &ExecContext) -> Result<Answers, String> {
    let mut vocab = Vocabulary::new();
    let (mapping, family, universe) = setup(&mut vocab);

    let config = HomConfig { ctx: ctx.clone(), ..HomConfig::default() };
    let options = ChaseOptions { hom: config.clone(), ..ChaseOptions::default() };
    let chased = rde_chase::chase(&family[1], &mapping.dependencies, &mut vocab, &options)
        .map_err(|e| format!("chase: {e}"))?
        .instance;

    let cache =
        ArrowMCache::with_policy(&mapping, &family, &mut vocab, &config, CachePolicy::default())
            .map_err(|e| format!("arrow: {e}"))?;
    let n = cache.len();
    let arrows =
        (0..n).map(|a| (0..n).map(|b| cache.arrow(a, b, &config).holds()).collect()).collect();

    let mut stats = HomStats::default();
    let report: LossReport =
        information_loss(&mapping, &universe, &mut vocab, 4, &config, &mut stats)
            .map_err(|e| format!("loss: {e}"))?;
    Ok(Answers {
        chased,
        arrows,
        loss: (report.universe_size, report.arrow_m_pairs, report.hom_pairs, report.lost_pairs),
    })
}

fn reference_answers() -> Answers {
    run_engines(&ExecContext::default()).expect("inert context never fails")
}

/// One poisoned + one clean context on concurrent threads, 100
/// consecutive iterations: the clean side is bit-identical to the
/// reference every time, its campaign never fires, and the poisoned
/// side only ever fails with typed errors.
#[test]
fn poisoned_sibling_cannot_perturb_a_clean_context() {
    let reference = reference_answers();
    for iteration in 0..100u64 {
        let poisoned = poisoned_context();
        let clean = counting_context(iteration);
        let (bad, good) = std::thread::scope(|scope| {
            let bad = scope.spawn(|| {
                catch_unwind(AssertUnwindSafe(|| run_engines(&poisoned)))
                    .unwrap_or_else(|_| panic!("iteration {iteration}: poisoned side panicked"))
            });
            let good = scope.spawn(|| {
                catch_unwind(AssertUnwindSafe(|| run_engines(&clean)))
                    .unwrap_or_else(|_| panic!("iteration {iteration}: clean side panicked"))
            });
            (bad.join().unwrap(), good.join().unwrap())
        });

        // The poisoned context fails typed — an always-fire campaign
        // plus a tripped token cannot produce a clean pass.
        let err = bad.expect_err("a poisoned context cannot complete the engine suite");
        assert!(
            err.starts_with("chase:") || err.starts_with("arrow:") || err.starts_with("loss:"),
            "iteration {iteration}: untyped failure {err}"
        );
        assert!(
            poisoned.fault_report().total_fired() > 0 || poisoned.is_cancelled(),
            "iteration {iteration}: the poisoned campaign never acted"
        );

        // The clean context is untouched: identical results, a consulted
        // campaign, zero fires.
        let answers =
            good.unwrap_or_else(|e| panic!("iteration {iteration}: clean side failed: {e}"));
        assert_eq!(answers, reference, "iteration {iteration}: clean side diverged");
        let report = clean.fault_report();
        assert!(report.total_hits() > 0, "iteration {iteration}: clean campaign never consulted");
        assert_eq!(
            report.total_fired(),
            0,
            "iteration {iteration}: a sibling's faults leaked into the clean campaign"
        );
    }
}

/// The poisoned context's campaign counters are its own: the clean
/// sibling's hits never appear in it, and vice versa. Campaign state is
/// per-`FaultInjector`, shared only through clones.
#[test]
fn campaign_counters_stay_per_context() {
    let a = poisoned_context();
    let b = counting_context(3);
    let _ = run_engines(&a);
    let before_b = b.fault_report().total_hits();
    assert_eq!(before_b, 0, "running A must not touch B's campaign");
    let _ = run_engines(&b);
    assert!(b.fault_report().total_hits() > 0);
    let a_hits = a.fault_report().total_hits();
    let _ = run_engines(&b);
    assert_eq!(a.fault_report().total_hits(), a_hits, "running B must not touch A's campaign");
}

/// Dropping a context leaves no residue: a fresh default-context run
/// afterwards is clean and bit-identical to the reference, and a fresh
/// counting campaign observes zero fires.
#[test]
fn dropped_context_leaves_no_residue() {
    let reference = reference_answers();
    {
        let poisoned = poisoned_context();
        let _ = run_engines(&poisoned);
        // `poisoned` — token, campaign, counters — drops here.
    }
    let probe = counting_context(11);
    let answers = run_engines(&probe).expect("fresh context must be clean");
    assert_eq!(answers, reference, "residue changed engine results");
    assert_eq!(probe.fault_report().total_fired(), 0, "residue fired into a fresh campaign");
    assert!(!probe.is_cancelled(), "residue tripped a fresh token");
}

//! Exact-equality properties of the chase variants.
//!
//! Every variant must equal a small reference chase bit for bit: same
//! facts in the same insertion order, same fresh-null ids, and the same
//! `fired`/`rounds` counters. The oblivious variants (naive and the
//! delta-driven semi-naive) equal the oblivious reference; the
//! restricted variant equals the reference with satisfaction checks.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rde_chase::{chase, ChaseOptions, ChaseResult, ChaseVariant, DependencyPlan};
use rde_deps::{parse_dependency, Dependency};
use rde_hom::{HomConfig, HomStats};
use rde_model::fx::FxHashSet;
use rde_model::{Fact, Instance, Value, Vocabulary};

/// Same-schema dependency pool: recursive rules, existentials, guards,
/// and inequalities, so multi-round delta behaviour is exercised. The
/// `A` and `B` rules are the only writers of their relations and name
/// every premise variable, so the restricted chase skips their
/// satisfaction checks unless the input holds `A` facts; the `R` and
/// `U` rules just miss that rule (`R` has two writers, `U(x)` omits
/// `y`), so their checks run and can succeed.
const DEP_POOL: &[&str] = &[
    "E(x, y) -> T(x, y)",
    "T(x, y) & T(y, z) -> T(x, z)",
    "T(x, y) -> exists w . S(y, w)",
    "E(x, y) & E(y, x) -> exists u . T(x, u)",
    "S(x, y) & Constant(x) -> T(x, x)",
    "E(x, y) & x != y -> T(y, x)",
    "T(x, y) -> A(x, y)",
    "T(x, y) -> exists w . B(x, y, w)",
    "E(x, y) -> R(x, y) & R(y, x)",
    "T(x, y) -> U(x)",
];

/// A generated input fact: over `A` when the flag is set, else over
/// `E`, with two `(is_null, index)` argument codes.
type GenFact = (bool, (bool, u8, bool, u8));

/// The vocabulary with every pool rule parsed, so every run interns
/// identical ids.
fn pool() -> (Vocabulary, Vec<Dependency>) {
    let mut vocab = Vocabulary::new();
    let all = DEP_POOL.iter().map(|d| parse_dependency(&mut vocab, d).unwrap()).collect();
    (vocab, all)
}

fn setup(picks: &[bool], facts: &[GenFact]) -> (Vocabulary, Vec<Dependency>, Instance) {
    // Keep the picked subset of the pool (always at least the first
    // rule).
    let (mut vocab, all) = pool();
    let deps: Vec<Dependency> = all
        .into_iter()
        .enumerate()
        .filter(|(i, _)| *i == 0 || picks.get(*i).copied().unwrap_or(false))
        .map(|(_, d)| d)
        .collect();
    let (e, a) = (vocab.find_relation("E").unwrap(), vocab.find_relation("A").unwrap());
    let value = |vocab: &mut Vocabulary, is_null: bool, i: u8| {
        if is_null {
            vocab.null_value(&format!("n{i}"))
        } else {
            vocab.const_value(&format!("c{i}"))
        }
    };
    let instance: Instance = facts
        .iter()
        .map(|&(over_a, (n1, i, n2, j))| {
            let v1 = value(&mut vocab, n1, i);
            let v2 = value(&mut vocab, n2, j);
            Fact::new(if over_a { a } else { e }, vec![v1, v2])
        })
        .collect();
    (vocab, deps, instance)
}

fn run(picks: &[bool], facts: &[GenFact], variant: ChaseVariant) -> ChaseResult {
    let (mut vocab, deps, instance) = setup(picks, facts);
    chase(&instance, &deps, &mut vocab, &ChaseOptions::for_variant(variant)).unwrap()
}

/// The reference chase, `(instance, fired, rounds)`: each round
/// re-enumerates every premise against the full instance and keeps the
/// matches no earlier round saw; with `restricted`, a trigger is dropped
/// when its conclusion already holds at the start of the round (the
/// pre-check) or just before it would fire (the recheck). Triggers fire
/// in canonical `(dependency, assignment)` order, so fresh nulls are
/// numbered the way the engine numbers them.
fn reference_chase(
    instance: &Instance,
    deps: &[Dependency],
    vocab: &mut Vocabulary,
    restricted: bool,
) -> (Instance, u64, u64) {
    let plans: Vec<DependencyPlan> = deps.iter().map(DependencyPlan::compile).collect();
    let holds = |plan: &DependencyPlan, at: &Instance, vals: &[Value]| {
        restricted
            && plan.witnessed(at, vals, &HomConfig::default(), &mut HomStats::default()).holds()
    };
    let mut current = instance.clone();
    let mut seen: FxHashSet<(usize, Vec<Value>)> = FxHashSet::default();
    let (mut fired, mut rounds) = (0, 0);
    loop {
        let mut pending: Vec<(usize, Vec<Value>)> = Vec::new();
        for (di, plan) in plans.iter().enumerate() {
            plan.premise().for_each_match(&current, &HomConfig::default(), |vals| {
                if seen.insert((di, vals.to_vec())) && !holds(plan, &current, vals) {
                    pending.push((di, vals.to_vec()));
                }
                true
            });
        }
        if pending.is_empty() {
            return (current, fired, rounds);
        }
        rounds += 1;
        pending.sort();
        for (di, vals) in pending {
            if holds(&plans[di], &current, &vals) {
                continue;
            }
            let template = &plans[di].templates()[0];
            let fresh: Vec<Value> =
                (0..template.num_existentials()).map(|_| Value::Null(vocab.fresh_null())).collect();
            template.instantiate_into(&vals, &fresh, &mut Vec::new(), |rel, args| {
                current.insert_args(rel, args);
                true
            });
            fired += 1;
        }
    }
}

/// Chase under `variant` and under the matching reference; assert they
/// agree exactly.
fn assert_equals_reference(
    vocab: &Vocabulary,
    deps: &[Dependency],
    instance: &Instance,
    variant: ChaseVariant,
) -> Result<(), TestCaseError> {
    let mut v = vocab.clone();
    let r = chase(instance, deps, &mut v, &ChaseOptions::for_variant(variant)).unwrap();
    let mut v_ref = vocab.clone();
    let restricted = variant == ChaseVariant::Restricted;
    let (expected, fired, rounds) = reference_chase(instance, deps, &mut v_ref, restricted);
    let facts: Vec<Fact> = r.instance.facts().collect();
    prop_assert_eq!(facts, expected.facts().collect::<Vec<Fact>>(), "{}", variant);
    prop_assert_eq!(r.fired, fired, "{}", variant);
    prop_assert_eq!(r.rounds, rounds, "{}", variant);
    prop_assert_eq!(v.null_count(), v_ref.null_count(), "{}", variant);
    Ok(())
}

/// Up to `max` input facts, about one in five over `A`.
fn abstract_facts(max: usize) -> impl Strategy<Value = Vec<GenFact>> {
    let codes = (any::<bool>(), 0u8..4, any::<bool>(), 0u8..4);
    prop::collection::vec(((0u8..5).prop_map(|r| r == 0), codes), 0..=max)
}

fn dep_picks() -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(any::<bool>(), DEP_POOL.len())
}

#[test]
fn strategies_produce_equal_instances() {
    // A multi-round recursive chase exercising the delta rounds.
    let mut vocab = Vocabulary::new();
    let deps: Vec<Dependency> =
        ["E(x,y) -> T(x,y)", "T(x,y) & T(y,z) -> T(x,z)", "T(x,y) -> exists w . S(y, w)"]
            .iter()
            .map(|d| parse_dependency(&mut vocab, d).unwrap())
            .collect();
    let instance =
        rde_model::parse::parse_instance(&mut vocab, "E(a,b)\nE(b,c)\nE(c,d)\nE(d,e)").unwrap();
    for variant in ChaseVariant::ALL {
        assert_equals_reference(&vocab, &deps, &instance, variant).unwrap();
    }
}

#[test]
fn skipped_checks_equal_the_reference() {
    // Each case breaks one condition of the skip for one rule, so a
    // skip taken without that condition fires a trigger the reference
    // finds satisfied: `U(a)` is witnessed by the first `T(a, ·)`
    // firing, `R(b, a)` by the firing of `E(a, b)`, and `A(a, b)` by
    // the input.
    let cases = [
        (&[0, 9][..], "E(a, b)\nE(a, c)"),
        (&[8][..], "E(a, b)\nE(b, a)"),
        (&[0, 6, 7][..], "E(a, b)\nE(a, c)\nA(a, b)"),
        (&[0, 1, 6, 7, 8, 9][..], "E(a, b)\nE(b, a)\nE(b, c)\nA(?n, a)"),
    ];
    for (picks, input) in cases {
        let (mut vocab, all) = pool();
        let deps: Vec<Dependency> = picks.iter().map(|&i| all[i].clone()).collect();
        let instance = rde_model::parse::parse_instance(&mut vocab, input).unwrap();
        for variant in ChaseVariant::ALL {
            assert_equals_reference(&vocab, &deps, &instance, variant).unwrap();
        }
    }
}

#[test]
fn resumed_restricted_run_skips_the_same_checks() {
    // Every pool rule over a chain that also carries an `A` fact, so
    // the `A` rule is checked and the `B` rule is not. Late rounds fire
    // `B` keys that share their first value with earlier `B` facts,
    // where a check would scan a posting list: a resumed run that
    // decided the skip on its snapshot (which holds `B` facts) would
    // spend hom nodes the uninterrupted run does not.
    let (mut vocab, deps) = pool();
    let instance =
        rde_model::parse::parse_instance(&mut vocab, "E(a, b)\nE(b, c)\nE(c, d)\nA(a, b)").unwrap();
    let options =
        ChaseOptions { trace: true, ..ChaseOptions::for_variant(ChaseVariant::Restricted) };
    let mut v_straight = vocab.clone();
    let straight = chase(&instance, &deps, &mut v_straight, &options).unwrap();
    assert!(straight.rounds >= 3, "need a multi-round chase to crash mid-run");

    let path = std::env::temp_dir().join(format!("rde-skip-resume-{}.ckpt", std::process::id()));
    let crash = ChaseOptions {
        max_facts: straight.instance.len() - 1,
        checkpoint: Some(rde_chase::CheckpointPolicy::new(&path, 1)),
        ..options.clone()
    };
    let mut v = vocab.clone();
    assert!(chase(&instance, &deps, &mut v, &crash).is_err());
    let resume = ChaseOptions { resume_from: Some(path.clone()), ..options };
    let resumed = chase(&instance, &deps, &mut v, &resume).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(resumed.instance, straight.instance);
    assert_eq!(resumed.fired, straight.fired);
    assert_eq!(resumed.rounds, straight.rounds);
    assert_eq!(resumed.round_stats, straight.round_stats);
    assert_eq!(resumed.hom, straight.hom);
    assert_eq!(resumed.provenance, straight.provenance);
    assert_eq!(v.null_count(), v_straight.null_count());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every variant equals its reference chase exactly — instance
    /// (same facts, order and null ids), fired, rounds.
    #[test]
    fn variants_equal_the_reference_chase(picks in dep_picks(), facts in abstract_facts(6)) {
        let (vocab, deps, instance) = setup(&picks, &facts);
        for variant in ChaseVariant::ALL {
            assert_equals_reference(&vocab, &deps, &instance, variant)?;
        }
    }

    /// The per-round stats are themselves schedule-invariant where they
    /// must be: naive and semi-naive fire the same triggers per round.
    #[test]
    fn round_firing_schedules_agree(picks in dep_picks(), facts in abstract_facts(5)) {
        let naive = run(&picks, &facts, ChaseVariant::Naive);
        let semi = run(&picks, &facts, ChaseVariant::SemiNaive);
        prop_assert_eq!(naive.round_stats.len(), semi.round_stats.len());
        for (a, b) in naive.round_stats.iter().zip(&semi.round_stats) {
            prop_assert_eq!(a.triggers, b.triggers);
            prop_assert_eq!(a.fired, b.fired);
            prop_assert_eq!(a.inserted, b.inserted);
        }
    }
}

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
/// and inequalities, so multi-round delta behaviour is exercised.
const DEP_POOL: &[&str] = &[
    "E(x, y) -> T(x, y)",
    "T(x, y) & T(y, z) -> T(x, z)",
    "T(x, y) -> exists w . S(y, w)",
    "E(x, y) & E(y, x) -> exists u . T(x, u)",
    "S(x, y) & Constant(x) -> T(x, x)",
    "E(x, y) & x != y -> T(y, x)",
];

fn setup(
    picks: &[bool],
    facts: &[(bool, u8, bool, u8)],
) -> (Vocabulary, Vec<Dependency>, Instance) {
    let mut vocab = Vocabulary::new();
    // Parse the full pool first so every run interns identical ids,
    // then keep the picked subset (always at least the first rule).
    let all: Vec<Dependency> =
        DEP_POOL.iter().map(|d| parse_dependency(&mut vocab, d).unwrap()).collect();
    let deps: Vec<Dependency> = all
        .into_iter()
        .enumerate()
        .filter(|(i, _)| *i == 0 || picks.get(*i).copied().unwrap_or(false))
        .map(|(_, d)| d)
        .collect();
    let e = vocab.find_relation("E").unwrap();
    let value = |vocab: &mut Vocabulary, is_null: bool, i: u8| {
        if is_null {
            vocab.null_value(&format!("n{i}"))
        } else {
            vocab.const_value(&format!("c{i}"))
        }
    };
    let instance: Instance = facts
        .iter()
        .map(|&(n1, a, n2, b)| {
            let v1 = value(&mut vocab, n1, a);
            let v2 = value(&mut vocab, n2, b);
            Fact::new(e, vec![v1, v2])
        })
        .collect();
    (vocab, deps, instance)
}

fn run(picks: &[bool], facts: &[(bool, u8, bool, u8)], variant: ChaseVariant) -> ChaseResult {
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
            template.instantiate(&vals, &fresh, |fact| {
                current.insert(fact);
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

fn abstract_facts(max: usize) -> impl Strategy<Value = Vec<(bool, u8, bool, u8)>> {
    prop::collection::vec((any::<bool>(), 0u8..4, any::<bool>(), 0u8..4), 0..=max)
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

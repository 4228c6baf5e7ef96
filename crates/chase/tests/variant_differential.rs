//! Cross-variant differential properties.
//!
//! The three chase variants — naive, semi-naive, restricted — are
//! different *procedures* for the same semantics: on weakly-acyclic
//! dependencies every variant must terminate with a universal solution
//! for the same input, so all three results are hom-equivalent and
//! their cores are identical up to a renaming of the labeled nulls
//! (instance isomorphism). The naive/semi-naive pair is even exactly
//! equal (same facts, same fresh-null ids): semi-naive is a pure
//! delta-driven optimization of the same oblivious firing order.
//!
//! Three generated mapping families, each certified weakly acyclic by
//! the static analyzer before any chase runs.

use proptest::prelude::*;
use rde_chase::{chase, ChaseOptions, ChaseResult, ChaseVariant, RoundStats};
use rde_deps::{analyze_dependencies, parse_dependency, Dependency, TerminationVerdict};
use rde_hom::{core_of, find_iso, hom_equivalent, HomConfig, HomStats};
use rde_model::{Fact, Instance, Vocabulary};

/// A generated mapping family: a dependency pool (the first rule is
/// always kept; proptest picks a subset of the rest) plus the base
/// relation that seed facts are inserted into.
struct Family {
    pool: &'static [&'static str],
    base: &'static str,
    base_arity: usize,
}

/// Family 1 — "split": source-to-target shape, existential chains,
/// inequality and Constant guards. Rank 1, nothing recursive.
const SPLIT: Family = Family {
    pool: &[
        "P(x, y) -> exists z . Q(x, z) & Q(z, y)",
        "P(x, y) -> R(x, y)",
        "R(x, y) & x != y -> exists w . Q(y, w)",
        "R(x, y) & Constant(x) -> Q(x, y)",
    ],
    base: "P",
    base_arity: 2,
};

/// Family 2 — "closure": recursive full tgds (transitive closure) with
/// existentials only on the frontier, so the special edges never feed
/// back into a cycle. Weakly acyclic despite the recursion.
const CLOSURE: Family = Family {
    pool: &[
        "E(x, y) -> T(x, y)",
        "T(x, y) & T(y, z) -> T(x, z)",
        "T(x, y) -> exists w . S(y, w)",
        "S(x, y) & Constant(x) -> T(x, x)",
        "E(x, y) & E(y, x) -> exists u . T(x, u)",
        "E(x, y) & x != y -> T(y, x)",
    ],
    base: "E",
    base_arity: 2,
};

/// Family 3 — "paint": a rank-2 existential chain (`A -> C -> D`) next
/// to a symmetric full-tgd cycle on `B` and a guarded bridge back into
/// the chain.
const PAINT: Family = Family {
    pool: &[
        "A(x) -> exists u . C(x, u)",
        "C(x, y) -> exists v . D(y, v)",
        "A(x) & A(y) & x != y -> B(x, y)",
        "B(x, y) -> B(y, x)",
        "B(x, y) & Constant(x) -> exists w . C(y, w)",
    ],
    base: "A",
    base_arity: 1,
};

fn setup(
    family: &Family,
    picks: &[bool],
    facts: &[(bool, u8, bool, u8)],
) -> (Vocabulary, Vec<Dependency>, Instance) {
    let mut vocab = Vocabulary::new();
    // Parse the full pool first so every run interns identical ids,
    // then keep the picked subset (always at least the first rule).
    let all: Vec<Dependency> =
        family.pool.iter().map(|d| parse_dependency(&mut vocab, d).unwrap()).collect();
    let deps: Vec<Dependency> = all
        .into_iter()
        .enumerate()
        .filter(|(i, _)| *i == 0 || picks.get(*i).copied().unwrap_or(false))
        .map(|(_, d)| d)
        .collect();
    let base = vocab.find_relation(family.base).unwrap();
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
            let args = if family.base_arity == 1 {
                vec![v1]
            } else {
                let v2 = value(&mut vocab, n2, b);
                vec![v1, v2]
            };
            Fact::new(base, args)
        })
        .collect();
    (vocab, deps, instance)
}

fn fact_seq(i: &Instance) -> Vec<Fact> {
    i.facts().collect()
}

/// Chase one family input under every variant and check the
/// differential properties.
fn check_family(family: &Family, picks: &[bool], facts: &[(bool, u8, bool, u8)]) {
    // The premise of the whole test: every family (full pool — the
    // picked subset only removes edges) is statically weakly acyclic,
    // so each variant is guaranteed to terminate unbudgeted.
    {
        let (_, all, _) = setup(family, &vec![true; family.pool.len()], &[]);
        let report = analyze_dependencies(&all, &rde_faults::ExecContext::new()).unwrap();
        assert!(
            matches!(report.verdict, TerminationVerdict::WeaklyAcyclic { .. }),
            "family must be weakly acyclic: {:?}",
            report.verdict
        );
    }
    let run = |variant: ChaseVariant| -> ChaseResult {
        let (mut vocab, deps, instance) = setup(family, picks, facts);
        let options = ChaseOptions::for_variant(variant);
        chase(&instance, &deps, &mut vocab, &options).unwrap()
    };
    let naive = run(ChaseVariant::Naive);
    let semi = run(ChaseVariant::SemiNaive);
    let restricted = run(ChaseVariant::Restricted);

    // Semi-naive is a pure optimization of the same firing order:
    // exact equality, null ids and all.
    assert_eq!(fact_seq(&naive.instance), fact_seq(&semi.instance));
    assert_eq!(naive.fired, semi.fired);

    // The restricted chase may fire fewer triggers (skipping those
    // whose conclusion is already satisfied) and mint different
    // nulls, but the result must be a universal solution for the
    // same input: hom-equivalent to both oblivious runs.
    let (cfg, mut stats) = (HomConfig::default(), HomStats::default());
    assert!(
        hom_equivalent(&naive.instance, &restricted.instance, &cfg, &mut stats).holds(),
        "naive and restricted must be hom-equivalent"
    );
    assert!(
        hom_equivalent(&semi.instance, &restricted.instance, &cfg, &mut stats).holds(),
        "semi-naive and restricted must be hom-equivalent"
    );

    // Hom-equivalent instances have isomorphic cores: identical up
    // to renumbering the labeled nulls.
    let naive_core = core_of(&naive.instance, &cfg).result.core;
    let restricted_core = core_of(&restricted.instance, &cfg).result.core;
    assert_eq!(naive_core.len(), restricted_core.len());
    assert!(
        find_iso(&naive_core, &restricted_core, &cfg, &mut stats).unwrap().is_some(),
        "cores must agree up to null renumbering"
    );
}

fn abstract_facts(max: usize) -> impl Strategy<Value = Vec<(bool, u8, bool, u8)>> {
    prop::collection::vec((any::<bool>(), 0u8..4, any::<bool>(), 0u8..4), 0..=max)
}

fn dep_picks(n: usize) -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(any::<bool>(), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn split_family_variants_agree(
        picks in dep_picks(SPLIT.pool.len()),
        facts in abstract_facts(6),
    ) {
        check_family(&SPLIT, &picks, &facts);
    }

    #[test]
    fn closure_family_variants_agree(
        picks in dep_picks(CLOSURE.pool.len()),
        facts in abstract_facts(5),
    ) {
        check_family(&CLOSURE, &picks, &facts);
    }

    #[test]
    fn paint_family_variants_agree(
        picks in dep_picks(PAINT.pool.len()),
        facts in abstract_facts(6),
    ) {
        check_family(&PAINT, &picks, &facts);
    }
}

/// The benchmark's `triangle_deps(extra = 2)`: copy `E` into `T`,
/// close `T` along `E`, copy `T` twice, and list triangles whose third
/// premise atom arrives fully bound.
const TRIANGLE: &[&str] = &[
    "E(x, y) -> T(x, y)",
    "T(x, y) & E(y, z) -> T(x, z)",
    "T(x, y) -> A0(x, y)",
    "T(x, y) -> A1(x, y)",
    "T(x, y) & E(y, z) & T(x, z) -> W(x, y, z)",
];

/// A 6-cycle over constants plus three chords to labeled nulls and one
/// constant chord, so the closure meets some pairs along two paths.
fn null_chord_graph() -> (Vocabulary, Vec<Dependency>, Instance) {
    let mut vocab = Vocabulary::new();
    let deps: Vec<Dependency> =
        TRIANGLE.iter().map(|d| parse_dependency(&mut vocab, d).unwrap()).collect();
    let e = vocab.find_relation("E").unwrap();
    let mut edges: Vec<(String, String)> =
        (0..6).map(|i| (format!("v{i}"), format!("v{}", (i + 1) % 6))).collect();
    edges.extend(
        [("v1", "?u0"), ("?u1", "v3"), ("v4", "?u2"), ("v0", "v2")]
            .map(|(a, b)| (a.to_owned(), b.to_owned())),
    );
    let instance = edges
        .iter()
        .map(|(a, b)| {
            let mut value = |name: &str| match name.strip_prefix('?') {
                Some(null) => vocab.null_value(null),
                None => vocab.const_value(name),
            };
            let args = vec![value(a), value(b)];
            Fact::new(e, args)
        })
        .collect();
    (vocab, deps, instance)
}

/// The restricted chase records each trigger key as it collects it, so
/// a key met twice in one round (two delta facts in one triangle) is a
/// duplicate and a key fired in an earlier round is never collected
/// again. Every counter of every round is pinned.
#[test]
fn restricted_triangle_round_stats_are_pinned() {
    let (mut vocab, deps, instance) = null_chord_graph();
    let options = ChaseOptions::for_variant(ChaseVariant::Restricted);
    let result = chase(&instance, &deps, &mut vocab, &options).unwrap();
    // [delta, matches, duplicates, satisfied, triggers, fired, inserted,
    //  hom nodes, hom backtracks, hom found] per round.
    let expected: Vec<RoundStats> = [
        [10, 10, 0, 0, 10, 10, 10, 10, 0, 10],
        [10, 33, 1, 1, 31, 31, 31, 35, 0, 34],
        [31, 44, 1, 1, 42, 42, 42, 50, 0, 45],
        [42, 47, 1, 1, 45, 45, 45, 51, 0, 48],
        [45, 47, 1, 1, 45, 45, 45, 51, 0, 48],
        [45, 60, 2, 11, 47, 47, 47, 77, 0, 71],
        [47, 13, 0, 2, 11, 11, 11, 14, 0, 15],
    ]
    .map(|[delta, matches, duplicates, satisfied, triggers, fired, inserted, nodes, backtracks, found]| {
        RoundStats {
            delta: delta as usize,
            matches,
            duplicates,
            satisfied,
            triggers: triggers as usize,
            fired,
            inserted: inserted as usize,
            hom: HomStats { nodes, backtracks, found },
        }
    })
    .to_vec();
    assert_eq!(result.round_stats, expected);
    assert_eq!((result.fired, result.instance.len()), (231, 241));
    assert_eq!(result.hom, HomStats { nodes: 288, backtracks: 0, found: 271 });
}

/// A budget cut mid-collection, after some keys were recorded, leaves
/// nothing behind: every budget below the run's largest search fails
/// with `MatchBudgetExhausted`, and every budget from there on returns
/// the unbounded run's facts, null ids and counters.
#[test]
fn budget_cut_restricted_runs_leak_no_recorded_keys() {
    let run = |node_budget: Option<u64>| {
        let (mut vocab, deps, instance) = null_chord_graph();
        let mut options = ChaseOptions::for_variant(ChaseVariant::Restricted);
        options.hom.node_budget = node_budget;
        chase(&instance, &deps, &mut vocab, &options)
    };
    let unbounded = run(None).unwrap();
    let mut budget = 0;
    let bounded = loop {
        match run(Some(budget)) {
            Ok(result) => break result,
            Err(rde_chase::ChaseError::MatchBudgetExhausted { .. }) => budget += 1,
            Err(e) => panic!("budget {budget}: unexpected error {e}"),
        }
    };
    // Round 0 enumerates `E`'s 10 facts in one search, so a budget of
    // 9 cuts it after recording 9 keys.
    assert_eq!(budget, 10);
    for result in [bounded, run(Some(budget + 1)).unwrap()] {
        assert_eq!(fact_seq(&result.instance), fact_seq(&unbounded.instance));
        assert_eq!(result.fired, unbounded.fired);
        assert_eq!(result.round_stats, unbounded.round_stats);
        assert_eq!(result.hom, unbounded.hom);
    }
}

//! Sound budgeted verdicts: a budget may leave a question open, but it
//! never answers it wrongly. Raising the hom-search node budget along
//! `0, 1, 2, 4, …` and then lifting it must never flip one definite
//! verdict into the other, and the unbounded verdict is the boolean
//! check's.

use proptest::prelude::*;
use rde_chase::chase_mapping_default;
use rde_core::semantics::{satisfies, satisfies_budgeted};
use rde_deps::{parse_mapping, SchemaMapping};
use rde_hom::{HomConfig, HomStats, Verdict};
use rde_model::{Fact, Instance, Value, Vocabulary};

/// Dependency pool from source `P/2, R/1` to target `Q/2, T/1`: joins,
/// existentials, constants, both guards, and a disjunction.
const DEP_POOL: &[&str] = &[
    "P(x, y) -> Q(x, y)",
    "P(x, y) -> exists z . Q(x, z) & Q(z, y)",
    "P(x, y) & P(y, z) -> Q(x, z)",
    "R(x) & Constant(x) -> T(x)",
    "P(x, y) & x != y -> exists z . Q(y, z)",
    "R(x) -> T(x) | exists z . Q(x, z)",
    "P(x, 'c0') -> T(x)",
];

fn mapping(vocab: &mut Vocabulary, picks: &[bool]) -> SchemaMapping {
    let mut text = String::from("source: P/2, R/1\ntarget: Q/2, T/1\n");
    for (dep, _) in DEP_POOL.iter().zip(picks).filter(|(_, &on)| on) {
        text.push_str(dep);
        text.push('\n');
    }
    parse_mapping(vocab, &text).unwrap()
}

/// A generated fact: which of two relations, then two argument codes
/// (`(is_null, index)` each; the second is ignored at arity 1).
type GenFact = (bool, (bool, u8, bool, u8));

/// Facts over `rels` (name, arity) with constants `c0..c2` and nulls
/// `n0..n2`.
fn instance(vocab: &mut Vocabulary, rels: [(&str, usize); 2], facts: &[GenFact]) -> Instance {
    facts
        .iter()
        .map(|&(second, (n1, a, n2, b))| {
            let (name, arity) = rels[usize::from(second)];
            let rel = vocab.find_relation(name).unwrap();
            let args: Vec<Value> = [(n1, a), (n2, b)][..arity]
                .iter()
                .map(|&(null, i)| {
                    if null {
                        vocab.null_value(&format!("n{i}"))
                    } else {
                        vocab.const_value(&format!("c{i}"))
                    }
                })
                .collect();
            Fact::new(rel, args)
        })
        .collect()
}

fn facts(max: usize) -> impl Strategy<Value = Vec<GenFact>> {
    prop::collection::vec((any::<bool>(), (any::<bool>(), 0u8..3, any::<bool>(), 0u8..3)), 0..=max)
}

fn verdict_at(
    source: &Instance,
    target: &Instance,
    m: &SchemaMapping,
    node_budget: Option<u64>,
) -> Verdict {
    let config = HomConfig { node_budget, ..HomConfig::default() };
    satisfies_budgeted(source, target, m, &config, &mut HomStats::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn raising_the_node_budget_never_flips_a_verdict(
        picks in prop::collection::vec(any::<bool>(), DEP_POOL.len()),
        source in facts(6),
        target in facts(6),
        complete in any::<bool>(),
    ) {
        let mut vocab = Vocabulary::new();
        let m = mapping(&mut vocab, &picks);
        let i = instance(&mut vocab, [("P", 2), ("R", 1)], &source);
        let mut j = instance(&mut vocab, [("Q", 2), ("T", 1)], &target);
        // Half the targets contain a universal solution (when the
        // mapping has no disjunction to chase), so both verdicts occur.
        if complete {
            if let Ok(solution) = chase_mapping_default(&i, &m, &mut vocab) {
                j = j.union(&solution);
            }
        }
        let truth = satisfies(&i, &j, &m);
        let unbounded = verdict_at(&i, &j, &m, None);
        prop_assert!(!unbounded.is_unknown(), "unbounded search cannot run out");
        prop_assert_eq!(unbounded.holds(), truth);
        let mut definite: Option<bool> = None;
        for budget in std::iter::once(0).chain((0..12).map(|k| 1u64 << k)) {
            let v = verdict_at(&i, &j, &m, Some(budget));
            if v.is_unknown() {
                continue;
            }
            prop_assert_eq!(v.holds(), truth, "budget {} decided wrongly: {:?}", budget, v);
            prop_assert!(
                definite.is_none_or(|d| d == v.holds()),
                "budget {} flipped a definite verdict",
                budget
            );
            definite = Some(v.holds());
        }
    }
}

#[test]
fn the_ladder_runs_from_unknown_to_both_verdicts() {
    let mut vocab = Vocabulary::new();
    let m = parse_mapping(
        &mut vocab,
        "source: P/2, R/1\ntarget: Q/2, T/1\nP(x, y) -> exists z . Q(x, z) & Q(z, y)",
    )
    .unwrap();
    let i = rde_model::parse::parse_instance(&mut vocab, "P(a, b)\nP(b, c)").unwrap();
    let good = rde_model::parse::parse_instance(&mut vocab, "Q(a, ?m)\nQ(?m, b)\nQ(b, c)\nQ(c, c)")
        .unwrap();
    let bad = rde_model::parse::parse_instance(&mut vocab, "Q(a, ?m)\nQ(?m, b)").unwrap();
    for (target, truth) in [(&good, true), (&bad, false)] {
        assert!(verdict_at(&i, target, &m, Some(0)).is_unknown());
        assert_eq!(verdict_at(&i, target, &m, None).holds(), truth);
    }
}

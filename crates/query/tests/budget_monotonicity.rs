//! Sound budgeted reverse certain answers (Theorem 6.5): a node budget
//! may stop the forward or the disjunctive chase, but it never yields a
//! wrong answer set. Along `0, 1, 2, 4, …` every run either reports
//! `MatchBudgetExhausted` or returns exactly the unbounded answers, and
//! once a budget answers, every larger one does too. The recoveries
//! cover a union (disjunction), a decomposition (existentials) and a
//! recursive disjunctive set.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rde_chase::{chase_mapping, ChaseError, ChaseOptions, DisjunctiveChaseOptions};
use rde_deps::{parse_mapping, SchemaMapping};
use rde_hom::HomConfig;
use rde_model::{Fact, Instance, Value, Vocabulary};
use rde_query::{
    reverse_certain_answers, reverse_certain_answers_from_target, AnswerSet, ConjunctiveQuery,
};

/// A mapping, a maximum extended recovery of it, and source queries.
struct Workload {
    mapping: &'static str,
    recovery: &'static str,
    queries: &'static [&'static str],
}

const UNION: Workload = Workload {
    mapping: "source: A/1, B/1\ntarget: R/1\nA(x) -> R(x)\nB(x) -> R(x)",
    recovery: "source: R/1\ntarget: A/1, B/1\nR(x) -> A(x) | B(x)",
    queries: &["qa(x) :- A(x)", "qb(x) :- B(x)", "both() :- A(x) & B(y)"],
};

/// Example 1.1's decomposition and its natural reverse mapping.
const DECOMPOSITION: Workload = Workload {
    mapping: "source: P/3\ntarget: Q/2, R/2\nP(x, y, z) -> Q(x, y) & R(y, z)",
    recovery: "source: Q/2, R/2\ntarget: P/3\n\
               Q(x, y) -> exists z . P(x, y, z)\nR(y, z) -> exists x . P(x, y, z)",
    queries: &[
        "xy(x, y) :- P(x, y, z)",
        "xz(x, z) :- P(x, y, z)",
        "chain(x) :- P(x, y, z) & P(y, u, w)",
    ],
};

/// A recursive disjunctive recovery: its last rule reads `A` and `E`,
/// which it and the rule before it write, so a firing re-opens premise
/// matches of earlier dependencies.
const RECURSIVE: Workload = Workload {
    mapping: "source: A/1, E/2\ntarget: R/1, G/2\nA(x) -> R(x)\nE(x, y) -> G(x, y)",
    recovery: "source: R/1, G/2, A/1, E/2\ntarget: A/1, E/2\n\
               G(x, y) -> E(x, y)\nR(x) -> A(x) | E(x, x)\n\
               A(x) & E(x, y) -> A(y) | E(y, y)",
    queries: &["qa(x) :- A(x)", "loop(x) :- E(x, x)", "reach(y) :- A(x) & E(x, y)"],
};

/// A generated source fact: which relation (for the union), then three
/// `(is_null, index)` argument codes (extra ones are ignored).
type GenFact = (bool, ((bool, u8), (bool, u8), (bool, u8)));

fn source(vocab: &mut Vocabulary, m: &SchemaMapping, facts: &[GenFact]) -> Instance {
    let rels = m.source.relations();
    facts
        .iter()
        .map(|&(second, (a, b, c))| {
            let rel = rels[usize::from(second) % rels.len()];
            let arity = vocab.arity(rel);
            let vals: Vec<Value> = [a, b, c][..arity]
                .iter()
                .map(|&(null, i)| {
                    if null {
                        vocab.null_value(&format!("n{i}"))
                    } else {
                        vocab.const_value(&format!("c{i}"))
                    }
                })
                .collect();
            Fact::new(rel, vals)
        })
        .collect()
}

/// Where a run starts: at the source instance, so both the forward and
/// the disjunctive chase run under the budget, or at the materialized
/// target `chase_M(I)`, so the disjunctive chase runs under it alone.
#[derive(Clone, Copy)]
enum Start<'a> {
    Source(&'a Instance),
    Target(&'a Instance),
}

fn answers_at(
    q: &ConjunctiveQuery,
    start: Start<'_>,
    m: &SchemaMapping,
    rec: &SchemaMapping,
    vocab: &Vocabulary,
    node_budget: Option<u64>,
) -> Result<AnswerSet, ChaseError> {
    let hom = HomConfig { node_budget, ..HomConfig::default() };
    let options = DisjunctiveChaseOptions { hom, ..DisjunctiveChaseOptions::default() };
    let vocab = &mut vocab.clone();
    match start {
        Start::Source(i) => reverse_certain_answers(q, i, m, rec, vocab, &options),
        Start::Target(u) => reverse_certain_answers_from_target(q, u, m, rec, vocab, &options),
    }
}

fn check(workload: &Workload, facts: &[GenFact]) -> Result<(), TestCaseError> {
    let mut vocab = Vocabulary::new();
    let m = parse_mapping(&mut vocab, workload.mapping).unwrap();
    let rec = parse_mapping(&mut vocab, workload.recovery).unwrap();
    let i = source(&mut vocab, &m, facts);
    let queries: Vec<ConjunctiveQuery> =
        workload.queries.iter().map(|t| ConjunctiveQuery::parse(&mut vocab, t).unwrap()).collect();
    // Runs from the target mint fresh nulls past the target's own.
    let mut target_vocab = vocab.clone();
    let u = chase_mapping(&i, &m, &mut target_vocab, &ChaseOptions::default()).unwrap();
    for (q, text) in queries.iter().zip(workload.queries) {
        let truth = answers_at(q, Start::Source(&i), &m, &rec, &vocab, None).unwrap();
        for (start, vocab) in [(Start::Source(&i), &vocab), (Start::Target(&u), &target_vocab)] {
            let mut answered = false;
            for budget in std::iter::once(0).chain((0..14).map(|k| 1u64 << k)) {
                match answers_at(q, start, &m, &rec, vocab, Some(budget)) {
                    Ok(got) => {
                        prop_assert_eq!(&got, &truth, "{} at budget {}", text, budget);
                        answered = true;
                    }
                    Err(ChaseError::MatchBudgetExhausted { .. }) => {
                        prop_assert!(
                            !answered,
                            "{}: budget {} stopped after a smaller answered",
                            text,
                            budget
                        );
                    }
                    Err(e) => prop_assert!(false, "{} at budget {}: {}", text, budget, e),
                }
            }
            prop_assert!(answered, "{}: no budget up to 2^13 answered", text);
        }
    }
    Ok(())
}

fn facts() -> impl Strategy<Value = Vec<GenFact>> {
    let arg = || (any::<bool>(), 0u8..3);
    prop::collection::vec((any::<bool>(), (arg(), arg(), arg())), 0..=6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn union_answers_are_exact_or_cut(facts in facts()) {
        check(&UNION, &facts)?;
    }

    #[test]
    fn decomposition_answers_are_exact_or_cut(facts in facts()) {
        check(&DECOMPOSITION, &facts)?;
    }

    #[test]
    fn recursive_disjunctive_answers_are_exact_or_cut(facts in facts()) {
        check(&RECURSIVE, &facts)?;
    }
}

#[test]
fn the_ladder_runs_from_cut_to_the_exact_answers() {
    let mut vocab = Vocabulary::new();
    let m = parse_mapping(&mut vocab, UNION.mapping).unwrap();
    let rec = parse_mapping(&mut vocab, UNION.recovery).unwrap();
    let i = rde_model::parse::parse_instance(&mut vocab, "A(a)\nB(b)\nA(c)").unwrap();
    let q = ConjunctiveQuery::parse(&mut vocab, "q() :- A(x) & B(y)").unwrap();
    assert!(matches!(
        answers_at(&q, Start::Source(&i), &m, &rec, &vocab, Some(0)),
        Err(ChaseError::MatchBudgetExhausted { .. })
    ));
    let truth = answers_at(&q, Start::Source(&i), &m, &rec, &vocab, None).unwrap();
    assert!(truth.is_empty(), "some leaf puts every R fact in A");
    assert_eq!(answers_at(&q, Start::Source(&i), &m, &rec, &vocab, Some(1 << 10)).unwrap(), truth);
}

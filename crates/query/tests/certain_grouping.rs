//! Grouped certain answers against the naive per-instance pipeline.
//!
//! `certain_answers_over` evaluates the query once per group of
//! instances that agree on its body relations and intersects in place;
//! `reverse_certain_answers_from_target` evaluates on the unrestricted
//! leaves. Both must equal `drop_nulls(intersect_all(evaluate(q, K)…))`
//! over the (source-restricted) instances, for every query shape:
//! queries over the relations a disjunction chose between (whose
//! groups must not collapse), a body relation outside the source
//! schema, Boolean queries, and the empty family.

use proptest::prelude::*;
use rde_chase::{chase_mapping_default, disjunctive_chase, DisjunctiveChaseOptions};
use rde_deps::parse_mapping;
use rde_model::{Fact, Instance, Value, Vocabulary};
use rde_query::{
    certain_answers_over, drop_nulls, evaluate, intersect_all, reverse_certain_answers_from_target,
    AnswerSet, ConjunctiveQuery,
};

const QUERIES: &[&str] = &[
    "qa(x) :- A(x)",
    "qb(x) :- B(x)",
    "p(x, y) :- P(x, y)",
    "loop(x) :- P(x, x)",
    "pa(x) :- P(x, y) & A(y)",
    "pb(x, z) :- P(x, y) & P(y, z) & B(z)",
    "ab() :- A(x) & B(x)",
    "any() :- P(x, y)",
];

/// The specification: evaluate every instance, intersect, drop nulls.
fn naive<'a>(q: &ConjunctiveQuery, family: impl IntoIterator<Item = &'a Instance>) -> AnswerSet {
    drop_nulls(&intersect_all(family.into_iter().map(|k| evaluate(q, k))))
}

fn value(vocab: &mut Vocabulary, code: u8) -> Value {
    match code {
        0..3 => vocab.const_value(&format!("c{code}")),
        _ => vocab.null_value(&format!("n{}", code - 3)),
    }
}

/// A generated fact: relation code (`0` = `P/2`, `1` = `A/1`, `2` =
/// `B/1`) and two value codes (`0..3` constants, `3..5` nulls).
type GenFact = (u8, u8, u8);

fn fact(vocab: &mut Vocabulary, (rel, a, b): GenFact) -> Fact {
    let args = match rel {
        0 => vec![value(vocab, a), value(vocab, b)],
        _ => vec![value(vocab, a)],
    };
    let name = ["P", "A", "B"][usize::from(rel)];
    Fact::new(vocab.find_relation(name).unwrap(), args)
}

fn vocabulary() -> Vocabulary {
    let mut vocab = Vocabulary::new();
    for (name, arity) in [("P", 2), ("A", 1), ("B", 1)] {
        vocab.relation(name, arity).unwrap();
    }
    vocab
}

/// A family of instances sharing a common part, so that some agree on
/// a query's body relations and others do not.
fn family(vocab: &mut Vocabulary, common: &[GenFact], members: &[Vec<GenFact>]) -> Vec<Instance> {
    members.iter().map(|own| common.iter().chain(own).map(|&f| fact(vocab, f)).collect()).collect()
}

fn gen_fact() -> impl Strategy<Value = GenFact> {
    (0u8..3, 0u8..5, 0u8..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn grouped_certain_answers_equal_the_naive_intersection(
        common in prop::collection::vec(gen_fact(), 0..=6),
        members in prop::collection::vec(prop::collection::vec(gen_fact(), 0..=2), 0..=6),
        qi in 0..QUERIES.len(),
    ) {
        let mut vocab = vocabulary();
        let instances = family(&mut vocab, &common, &members);
        let q = ConjunctiveQuery::parse(&mut vocab, QUERIES[qi]).unwrap();
        prop_assert_eq!(certain_answers_over(&q, &instances), naive(&q, &instances));
    }

    /// The union mapping's recovery branches every `R` fact into `A` or
    /// `B`: its leaves differ exactly in the relations the queries read.
    #[test]
    fn reverse_certain_answers_equal_the_restricted_leaf_pipeline(
        facts in prop::collection::vec((0u8..3, 0u8..5), 0..=4),
        qi in 0..QUERIES.len(),
    ) {
        let mut vocab = vocabulary();
        let m = parse_mapping(
            &mut vocab,
            "source: P/2, A/1, B/1\ntarget: S/2, R/1\n\
             P(x, y) -> S(x, y)\nA(x) -> R(x)\nB(x) -> R(x)",
        )
        .unwrap();
        let rec = parse_mapping(
            &mut vocab,
            "source: S/2, R/1\ntarget: P/2, A/1, B/1\nS(x, y) -> P(x, y)\nR(x) -> A(x) | B(x)",
        )
        .unwrap();
        let source: Instance = facts
            .iter()
            .map(|&(rel, code)| fact(&mut vocab, (rel, code, code / 2)))
            .collect();
        let u = chase_mapping_default(&source, &m, &mut vocab).unwrap();
        let options = DisjunctiveChaseOptions::default();
        let text = QUERIES[qi];
        // Source queries, plus one over the target relation R, which
        // no restricted leaf holds.
        for text in [text, "r(x) :- R(x)"] {
            let q = ConjunctiveQuery::parse(&mut vocab, text).unwrap();
            let leaves =
                disjunctive_chase(&u, &rec.dependencies, &mut vocab.clone(), &options).unwrap().leaves;
            let worlds: Vec<Instance> = leaves.iter().map(|l| l.restrict_to(&m.source)).collect();
            let expected = naive(&q, &worlds);
            let got =
                reverse_certain_answers_from_target(&q, &u, &m, &rec, &mut vocab.clone(), &options)
                    .unwrap();
            prop_assert_eq!(&got, &expected, "{}", text);
            prop_assert_eq!(certain_answers_over(&q, &worlds), expected, "{}", text);
        }
    }
}

#[test]
fn groups_that_differ_on_a_body_relation_stay_apart() {
    let mut vocab = vocabulary();
    // Same P facts, different A facts: one group for `p`, two for `pa`
    // (read on the first instance alone, `pa` would answer c0).
    let members = vec![vec![(1, 1, 0)], vec![(1, 0, 0)]];
    let instances = family(&mut vocab, &[(0, 0, 1), (0, 0, 2)], &members);
    let c = |vocab: &mut Vocabulary, i: u8| value(vocab, i);
    let p = ConjunctiveQuery::parse(&mut vocab, "p(x, y) :- P(x, y)").unwrap();
    let pa = ConjunctiveQuery::parse(&mut vocab, "pa(x) :- P(x, y) & A(y)").unwrap();
    let (c0, c1, c2) = (c(&mut vocab, 0), c(&mut vocab, 1), c(&mut vocab, 2));
    assert_eq!(certain_answers_over(&p, &instances), AnswerSet::from([vec![c0, c1], vec![c0, c2]]));
    assert!(certain_answers_over(&pa, &instances).is_empty(), "A(c1) and A(c0) disagree");
    assert_eq!(naive(&pa, &instances), AnswerSet::new());
}

#[test]
fn boolean_queries_and_the_empty_family() {
    let mut vocab = vocabulary();
    let q = ConjunctiveQuery::parse(&mut vocab, "any() :- P(x, y)").unwrap();
    let both = family(&mut vocab, &[(0, 0, 3)], &[vec![], vec![(1, 0, 0)]]);
    assert_eq!(certain_answers_over(&q, &both), AnswerSet::from([vec![]]), "true everywhere");
    let one = family(&mut vocab, &[], &[vec![(0, 0, 0)], vec![(1, 0, 0)]]);
    assert!(certain_answers_over(&q, &one).is_empty(), "false in the second instance");
    assert!(certain_answers_over(&q, &Vec::<Instance>::new()).is_empty());
    assert_eq!(naive(&q, &Vec::<Instance>::new()), AnswerSet::new());
}

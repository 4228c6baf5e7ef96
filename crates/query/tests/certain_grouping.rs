//! Grouped and sliced certain answers against the naive pipeline.
//!
//! `certain_answers_over` evaluates the query once per group of
//! instances that agree on its body relations and intersects in place.
//! It must equal `drop_nulls(intersect_all(evaluate(q, K)…))` for every
//! query shape: queries over the relations a disjunction chose between
//! (whose groups must not collapse), Boolean queries, and the empty
//! family.
//!
//! `reverse_certain_answers{,_from_target}` chase only the query's
//! slice of the mapping and the recovery, and evaluate on unrestricted
//! leaves. Over random mappings, random recoveries (1–3 disjuncts,
//! existentials, `Constant` and `!=` guards, shared conclusion
//! relations, premises that read source relations) and random queries,
//! (a) their answers equal the unsliced `disjunctive_chase` →
//! `restrict_to` → naive intersection, under node budgets too, and (b)
//! restricted to the slice's relations, the sliced chases' leaves are
//! the full chases' leaves up to renaming of nulls.

use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRng};
use rde_chase::{
    chase, chase_mapping, disjunctive_chase, ChaseError, ChaseOptions, DisjunctiveChaseOptions,
};
use rde_deps::{parse_dependency, Dependency, SchemaMapping};
use rde_hom::{find_iso, HomConfig, HomStats};
use rde_model::{Fact, Instance, RelId, Schema, Value, Vocabulary};
use rde_query::{
    certain_answers_over, drop_nulls, evaluate, intersect_all, reverse_certain_answers,
    reverse_certain_answers_from_target, AnswerSet, ConjunctiveQuery,
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

/// The query slice, compiled from the library's own source: the
/// differential checks below compare it with the full chase.
#[path = "../src/slice.rs"]
mod slice;

/// The random section's relations: the source schema `P, A, B, C`, then
/// the target schema `S, T, U`.
const RELS: [(&str, usize); 7] =
    [("P", 2), ("A", 1), ("B", 1), ("C", 1), ("S", 2), ("T", 1), ("U", 1)];
const SOURCE_RELS: std::ops::Range<usize> = 0..4;
const TARGET_RELS: std::ops::Range<usize> = 4..7;
const VARS: [&str; 3] = ["x", "y", "z"];
const EXISTENTIALS: [&str; 2] = ["u", "w"];

/// Every generated mapping starts with these copy rules, so that `U`
/// is rarely empty; `T` merges `A` and `C`, as the union mapping does.
const BASE_MAPPING: [&str; 4] =
    ["P(x, y) -> S(x, y)", "A(x) -> T(x)", "C(x) -> T(x)", "B(x) -> U(x)"];

/// Budgets that stop the recursive recoveries that do not terminate.
fn limits() -> DisjunctiveChaseOptions {
    DisjunctiveChaseOptions {
        max_branches: 256,
        max_facts: 400,
        max_steps: 2_000,
        ..DisjunctiveChaseOptions::default()
    }
}

/// A generated atom: an index into [`RELS`] and two argument codes
/// (only the first `arity` are used).
type GenAtom = (usize, [u8; 2]);

#[derive(Debug, Clone)]
struct GenDep {
    /// Argument codes `0..3` are `x, y, z`, `3` the constant `'c0'`.
    premise: Vec<GenAtom>,
    inequality: bool,
    constant: bool,
    /// Argument codes index the premise's variables, then `u, w`, then
    /// the constant `'c1'` (modulo that pool's size).
    disjuncts: Vec<Vec<GenAtom>>,
}

fn render_atom(rel: usize, args: [u8; 2], mut term: impl FnMut(u8) -> String) -> String {
    let (name, arity) = RELS[rel];
    let args: Vec<String> = args[..arity].iter().map(|&a| term(a)).collect();
    format!("{name}({})", args.join(", "))
}

fn render(dep: &GenDep) -> String {
    let mut premise_vars: Vec<&str> = Vec::new();
    let mut atoms: Vec<String> = Vec::new();
    for &(r, args) in &dep.premise {
        atoms.push(render_atom(r, args, |a| match VARS.get(usize::from(a)) {
            Some(&v) => {
                if !premise_vars.contains(&v) {
                    premise_vars.push(v);
                }
                v.to_owned()
            }
            None => "'c0'".to_owned(),
        }));
    }
    if dep.inequality && premise_vars.len() >= 2 {
        atoms.push(format!("{} != {}", premise_vars[0], premise_vars[1]));
    }
    if dep.constant && !premise_vars.is_empty() {
        atoms.push(format!("Constant({})", premise_vars[premise_vars.len() - 1]));
    }
    let pool: Vec<&str> =
        premise_vars.iter().copied().chain(EXISTENTIALS).chain(["'c1'"]).collect();
    let disjuncts: Vec<String> = dep
        .disjuncts
        .iter()
        .map(|conj| {
            let mut used: Vec<&str> = Vec::new();
            let atoms: Vec<String> = conj
                .iter()
                .map(|&(r, args)| {
                    render_atom(r, args, |a| {
                        let term = pool[usize::from(a) % pool.len()];
                        if EXISTENTIALS.contains(&term) && !used.contains(&term) {
                            used.push(term);
                        }
                        term.to_owned()
                    })
                })
                .collect();
            let body = atoms.join(" & ");
            if used.is_empty() {
                body
            } else {
                format!("exists {} . {body}", used.join(", "))
            }
        })
        .collect();
    format!("{} -> {}", atoms.join(" & "), disjuncts.join(" | "))
}

fn gen_atom(rels: impl Strategy<Value = usize>, codes: u8) -> impl Strategy<Value = GenAtom> {
    (rels, 0..codes, 0..codes).prop_map(|(r, a, b)| (r, [a, b]))
}

/// An s-t tgd beyond the copy rules: source premise, one target
/// conclusion, no guards.
fn gen_tgd() -> impl Strategy<Value = GenDep> {
    (
        prop::collection::vec(gen_atom(SOURCE_RELS, 4), 1..=2),
        prop::collection::vec(gen_atom(TARGET_RELS, 6), 1..=2),
    )
        .prop_map(|(premise, conclusion)| GenDep {
            premise,
            inequality: false,
            constant: false,
            disjuncts: vec![conclusion],
        })
}

/// Recovery rules that undo the copy rules, one of them sharing `A`
/// with the union's disjunction: drawn twice as often as random rules,
/// so that queries often have certain answers.
const INVERSE_RULES: [&str; 4] =
    ["S(x, y) -> P(x, y)", "T(x) -> A(x) | C(x)", "U(x) -> B(x)", "T(x) -> P(x, x) | A(x)"];

#[derive(Debug, Clone)]
enum RecoveryDep {
    Inverse(&'static str),
    Random(GenDep),
}

/// A recovery dependency: one of [`INVERSE_RULES`], or a random one
/// with a premise mostly over the target schema but sometimes reading
/// a source relation (so the recovery may be recursive), guards, and
/// 1–3 disjuncts over the source schema. With four source relations,
/// dependencies often share conclusion relations.
fn gen_recovery_dep() -> impl Strategy<Value = RecoveryDep> {
    // One premise atom in four reads a source relation.
    let premise_rel = (0usize..16).prop_map(|k| if k < 4 { k } else { 4 + k % 3 });
    let random = (
        prop::collection::vec(gen_atom(premise_rel, 4), 1..=2),
        any::<bool>(),
        any::<bool>(),
        prop::collection::vec(prop::collection::vec(gen_atom(SOURCE_RELS, 6), 1..=2), 1..=3),
    )
        .prop_map(|(premise, inequality, constant, disjuncts)| GenDep {
            premise,
            inequality,
            constant,
            disjuncts,
        });
    (0..INVERSE_RULES.len() + 2, random).prop_map(|(k, random)| match INVERSE_RULES.get(k) {
        Some(rule) => RecoveryDep::Inverse(rule),
        None => RecoveryDep::Random(random),
    })
}

/// A query: atoms mostly over the source schema (a target atom makes
/// it answer nothing), and a bit mask choosing its head variables.
type GenQuery = (Vec<GenAtom>, u8);

fn render_query(&(ref atoms, head): &GenQuery) -> String {
    let mut vars: Vec<&str> = Vec::new();
    let body: Vec<String> = atoms
        .iter()
        .map(|&(r, args)| {
            render_atom(r, args, |a| {
                let v = VARS[usize::from(a)];
                if !vars.contains(&v) {
                    vars.push(v);
                }
                v.to_owned()
            })
        })
        .collect();
    let head: Vec<&str> =
        vars.iter().enumerate().filter(|(i, _)| head & (1 << i) != 0).map(|(_, &v)| v).collect();
    format!("q({}) :- {}", head.join(", "), body.join(" & "))
}

#[derive(Debug, Clone)]
struct Case {
    mapping: Vec<GenDep>,
    recovery: Vec<RecoveryDep>,
    query: GenQuery,
    /// Source facts: a source relation and two value codes (`0..3` the
    /// constants `c0..c2`, `3` the null `n0`).
    facts: Vec<GenAtom>,
    node_budget: Option<u64>,
}

fn gen_case() -> impl Strategy<Value = Case> {
    // One query atom in eight reads a target relation; `P` and `B`,
    // which the inverse rules recover without a disjunction, come up
    // twice as often as `A` and `C`.
    let query_rel =
        (0usize..24).prop_map(|k| if k < 3 { 4 + k } else { [0, 1, 2, 3, 0, 2][k % 6] });
    let budget = (0usize..5).prop_map(|i| [None, Some(0), Some(2), Some(8), Some(64)][i]);
    (
        prop::collection::vec(gen_tgd(), 0..=2),
        prop::collection::vec(gen_recovery_dep(), 2..=5),
        (prop::collection::vec(gen_atom(query_rel, 3), 1..=2), 0u8..8),
        prop::collection::vec(gen_atom(SOURCE_RELS, 4), 1..=10),
        budget,
    )
        .prop_map(|(mapping, recovery, query, facts, node_budget)| Case {
            mapping,
            recovery,
            query,
            facts,
            node_budget,
        })
}

/// A built case: the mapping, its recovery, the query, the source
/// instance and `U = chase_M(I)`.
struct Built {
    vocab: Vocabulary,
    mapping: SchemaMapping,
    recovery: SchemaMapping,
    query: ConjunctiveQuery,
    source: Instance,
    target: Instance,
}

fn build(case: &Case) -> Built {
    let mut vocab = Vocabulary::new();
    let rels: Vec<RelId> =
        RELS.iter().map(|&(name, arity)| vocab.relation(name, arity).unwrap()).collect();
    let source_schema = Schema::from_relations(rels[SOURCE_RELS].iter().copied());
    let target_schema = Schema::from_relations(rels[TARGET_RELS].iter().copied());
    let mut parse = |text: &str| parse_dependency(&mut vocab, text).unwrap();
    let mut forward: Vec<Dependency> = BASE_MAPPING.iter().map(|&d| parse(d)).collect();
    forward.extend(case.mapping.iter().map(|d| parse(&render(d))));
    let recovery = case
        .recovery
        .iter()
        .map(|d| match d {
            RecoveryDep::Inverse(rule) => parse(rule),
            RecoveryDep::Random(d) => parse(&render(d)),
        })
        .collect();
    let mapping = SchemaMapping::new(source_schema.clone(), target_schema.clone(), forward);
    let recovery = SchemaMapping::new(target_schema, source_schema, recovery);
    let query = ConjunctiveQuery::parse(&mut vocab, &render_query(&case.query)).unwrap();
    let source: Instance = case
        .facts
        .iter()
        .map(|&(r, codes)| {
            let args: Vec<Value> =
                codes[..RELS[r].1].iter().map(|&c| value(&mut vocab, c)).collect();
            Fact::new(rels[r], args)
        })
        .collect();
    let target = chase_mapping(&source, &mapping, &mut vocab, &ChaseOptions::default()).unwrap();
    Built { vocab, mapping, recovery, query, source, target }
}

fn body_rels(q: &ConjunctiveQuery) -> Vec<RelId> {
    q.as_dependency().premise.atoms.iter().map(|a| a.rel).collect()
}

fn isomorphic(a: &Instance, b: &Instance) -> bool {
    find_iso(a, b, &HomConfig::default(), &mut HomStats::default()).unwrap().is_some()
}

/// Every instance of `a` is isomorphic to one of `b`, and conversely.
fn same_up_to_renaming(a: &[Instance], b: &[Instance]) -> bool {
    let covered =
        |xs: &[Instance], ys: &[Instance]| xs.iter().all(|x| ys.iter().any(|y| isomorphic(x, y)));
    covered(a, b) && covered(b, a)
}

/// How a compared case went, for the coverage test.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Seen {
    /// The full chase stayed within [`limits`].
    compared: bool,
    /// The slice dropped a dependency the full chase used.
    dropped: bool,
    /// The full chase branched.
    branched: bool,
    /// The certain answers were non-empty.
    answered: bool,
}

/// Property (a): the sliced entry points answer what the unsliced
/// pipeline `disjunctive_chase` → `restrict_to` → naive intersection
/// answers, from `U` and from `I`. Under a node budget each either
/// answers exactly that or stops with a budget error, and it answers
/// wherever the unsliced pipeline does under the same budget.
fn check_answers(case: &Case) -> Result<Seen, TestCaseError> {
    let b = build(case);
    let (q, m, rec) = (&b.query, &b.mapping, &b.recovery);
    let full = disjunctive_chase(&b.target, &rec.dependencies, &mut b.vocab.clone(), &limits());
    let Ok(full) = full else {
        return Ok(Seen::default());
    };
    let worlds: Vec<Instance> = full.leaves.iter().map(|l| l.restrict_to(&m.source)).collect();
    let expected = naive(q, &worlds);
    let from_u =
        reverse_certain_answers_from_target(q, &b.target, m, rec, &mut b.vocab.clone(), &limits());
    prop_assert_eq!(from_u.as_ref(), Ok(&expected), "from U");
    let from_i = reverse_certain_answers(q, &b.source, m, rec, &mut b.vocab.clone(), &limits());
    prop_assert_eq!(from_i.as_ref(), Ok(&expected), "from I");

    let budgeted = DisjunctiveChaseOptions {
        hom: HomConfig { node_budget: case.node_budget, ..HomConfig::default() },
        ..limits()
    };
    let full_u = disjunctive_chase(&b.target, &rec.dependencies, &mut b.vocab.clone(), &budgeted);
    let got_u =
        reverse_certain_answers_from_target(q, &b.target, m, rec, &mut b.vocab.clone(), &budgeted);
    let forward = ChaseOptions { hom: budgeted.hom.clone(), ..ChaseOptions::default() };
    let mut v = b.vocab.clone();
    let full_i = chase_mapping(&b.source, m, &mut v, &forward)
        .and_then(|u| disjunctive_chase(&u, &rec.dependencies, &mut v, &budgeted));
    let got_i = reverse_certain_answers(q, &b.source, m, rec, &mut b.vocab.clone(), &budgeted);
    for (label, full, got) in [("U", full_u.is_ok(), got_u), ("I", full_i.is_ok(), got_i)] {
        match got {
            Ok(answers) => prop_assert_eq!(&answers, &expected, "budgeted from {}", label),
            Err(ChaseError::MatchBudgetExhausted { .. }) => {
                prop_assert!(!full, "budgeted from {label}: the unsliced chase answered")
            }
            Err(e) => return Err(TestCaseError(format!("budgeted from {label}: {e}"))),
        }
    }
    let (kept, _) = slice::slice(&rec.dependencies, &body_rels(q));
    Ok(Seen {
        compared: true,
        dropped: kept.len() < rec.dependencies.len() && full.steps > 0,
        branched: full.leaves.len() > 1,
        answered: !expected.is_empty(),
    })
}

/// Property (b): restricted to the slice's relations, the leaves of the
/// sliced disjunctive chase are the full chase's leaves up to renaming
/// of nulls; so is the sliced forward chase on its own slice.
fn check_leaves(case: &Case) -> Result<(), TestCaseError> {
    let b = build(case);
    let rec = &b.recovery;
    let (kept, relations) = slice::slice(&rec.dependencies, &body_rels(&b.query));
    let on_slice = Schema::from_relations(relations.iter().copied());
    let restricted = |leaves: &[Instance]| -> Vec<Instance> {
        leaves.iter().map(|l| l.restrict_to(&on_slice)).collect()
    };
    if let Ok(full) =
        disjunctive_chase(&b.target, &rec.dependencies, &mut b.vocab.clone(), &limits())
    {
        let sliced = disjunctive_chase(&b.target, &kept, &mut b.vocab.clone(), &limits());
        let sliced = sliced.map_err(|e| TestCaseError(format!("sliced chase: {e}")))?;
        prop_assert!(
            same_up_to_renaming(&restricted(&full.leaves), &restricted(&sliced.leaves)),
            "recovery slice {:?} of {} dependencies",
            kept.iter().map(|d| rec.dependencies.iter().position(|e| e == d)).collect::<Vec<_>>(),
            rec.dependencies.len()
        );
    }
    let (forward, forward_relations) = slice::slice(&b.mapping.dependencies, &relations);
    let on_forward = Schema::from_relations(forward_relations);
    let full =
        chase(&b.source, &b.mapping.dependencies, &mut b.vocab.clone(), &ChaseOptions::default());
    let sliced = chase(&b.source, &forward, &mut b.vocab.clone(), &ChaseOptions::default());
    prop_assert!(isomorphic(
        &full.unwrap().instance.restrict_to(&on_forward),
        &sliced.unwrap().instance.restrict_to(&on_forward),
    ));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reverse_certain_answers_equal_the_restricted_leaf_pipeline(case in gen_case()) {
        check_answers(&case)?;
    }

    #[test]
    fn sliced_leaves_equal_the_full_leaves_on_the_slice(case in gen_case()) {
        check_leaves(&case)?;
    }
}

/// The generator is not vacuous: many cases stay within the limits, and
/// among them the slice drops a dependency the full chase fired, the
/// full chase branches, and the answers are non-empty.
#[test]
fn generated_cases_slice_branching_recoveries() {
    let mut rng = TestRng::new(0x5EED);
    let strategy = gen_case();
    let mut seen: Vec<Seen> = Vec::new();
    for _ in 0..256 {
        let case = strategy.generate(&mut rng);
        seen.push(check_answers(&case).unwrap());
    }
    let count = |f: fn(&Seen) -> bool| seen.iter().filter(|s| f(s)).count();
    // On seed 0x5EED: 254 compared, 88 dropped and branched, 19
    // dropped and answered.
    assert!(count(|s| s.compared) >= 224);
    assert!(count(|s| s.dropped && s.branched) >= 48);
    assert!(count(|s| s.dropped && s.answered) >= 10);
}

/// The closure at work: a rule over `A` alone is kept because a kept
/// rule writes `A`, and the rule that feeds a kept premise is kept too.
#[test]
fn the_slice_closes_over_shared_conclusions_and_premises() {
    let mut vocab = Vocabulary::new();
    for (name, arity) in RELS {
        vocab.relation(name, arity).unwrap();
    }
    let deps: Vec<Dependency> = [
        "T(x) -> A(x) | B(x)",
        "T(x) -> P(x, x) | A(x)",
        "S(x, y) -> C(x)",
        "C(x) -> P(x, x)",
        "S(x, y) -> U(y)",
    ]
    .iter()
    .map(|d| parse_dependency(&mut vocab, d).unwrap())
    .collect();
    let p = vocab.find_relation("P").unwrap();
    let (kept, relations) = slice::slice(&deps, &[p]);
    assert_eq!(kept, deps[..4]);
    let mut expected: Vec<RelId> =
        ["T", "S", "P", "A", "B", "C"].iter().map(|r| vocab.find_relation(r).unwrap()).collect();
    expected.sort_unstable();
    assert_eq!(relations, expected);
    // Under a query over `C` only, `C(x) -> P(x, x)` still stays out.
    let c = vocab.find_relation("C").unwrap();
    assert_eq!(slice::slice(&deps, &[c]).0, deps[2..3]);
}

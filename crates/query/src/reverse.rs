//! Certain answers and reverse query answering (Section 6.2).

use rde_chase::{
    chase, chase_mapping, disjunctive_chase, ChaseError, ChaseOptions, DisjunctiveChaseOptions,
};
use rde_deps::{Dependency, SchemaMapping};
use rde_model::fx::FxHashMap;
use rde_model::{Instance, RelId, RowSet, Vocabulary};

use crate::answers::AnswerSet;
use crate::cq::{answer_set, evaluate_plan, null_free_plan, ConjunctiveQuery};
use crate::slice::slice;

/// `(⋂_K q(K))↓` over a family of instances — the right-hand side of
/// Theorem 6.5. Empty for an empty family.
///
/// `q(K)` reads only the query's body relations, so instances that
/// agree on them (the leaves of a disjunctive chase typically differ
/// only in the relations a disjunction chose between) are evaluated
/// once: they are grouped by a fingerprint of those facts, confirmed by
/// set equality. `↓` runs inside the join: the query is compiled with
/// its head variables constant-only, so a match that would bind one to
/// a null is cut where it binds it. The answers stay in flat row sets;
/// the intersection shrinks in place, stops at the first empty one,
/// and becomes an [`AnswerSet`] once, at the end.
pub fn certain_answers_over<'a>(
    q: &ConjunctiveQuery,
    instances: impl IntoIterator<Item = &'a Instance>,
) -> AnswerSet {
    let plan = null_free_plan(q);
    let body = body_relations(q);
    let mut evaluated: FxHashMap<u64, Vec<&Instance>> = FxHashMap::default();
    let mut certain: Option<RowSet> = None;
    for k in instances {
        let group = evaluated.entry(k.fingerprint_over(&body)).or_default();
        if group.iter().any(|seen| seen.same_facts_over(k, &body)) {
            continue;
        }
        group.push(k);
        let answers = evaluate_plan(&plan, q.arity(), k);
        match certain.as_mut() {
            None => certain = Some(answers),
            // Backwards, so the row `swap_remove` moves into a freed id
            // has already been kept.
            Some(acc) => {
                for id in (0..acc.len() as u32).rev() {
                    if answers.find(acc.row(id)).is_none() {
                        acc.swap_remove(id);
                    }
                }
            }
        }
        if certain.as_ref().is_some_and(RowSet::is_empty) {
            break;
        }
    }
    certain.as_ref().map(answer_set).unwrap_or_default()
}

/// The relations the query's body reads, sorted and deduplicated.
fn body_relations(q: &ConjunctiveQuery) -> Vec<RelId> {
    let mut rels: Vec<RelId> = q.as_dependency().premise.atoms.iter().map(|a| a.rel).collect();
    rels.sort_unstable();
    rels.dedup();
    rels
}

/// Classic ("direct") certain answers of a conjunctive query over the
/// **target** schema: `certain_M(q, I) = q(chase_M(I))↓` for mappings
/// specified by s-t tgds (Fagin–Kolaitis–Miller–Popa; the universal
/// solution computes certain answers of CQs).
pub fn forward_certain_answers(
    q: &ConjunctiveQuery,
    source: &Instance,
    mapping: &SchemaMapping,
    vocab: &mut Vocabulary,
) -> Result<AnswerSet, ChaseError> {
    let u = chase_mapping(source, mapping, vocab, &ChaseOptions::default())?;
    Ok(crate::cq::evaluate_null_free(q, &u))
}

/// Reverse query answering by the procedure of Theorem 6.5.
///
/// Given a mapping `M` specified by s-t tgds, a maximum extended
/// recovery `M′` of `M` specified by disjunctive tgds, a **source**
/// query `q`, and the original source instance `I` (used only to compute
/// `U = chase_M(I)`, which is what survives after the exchange):
/// compute `K = chase_{M′}(U)` by the disjunctive chase, restrict every
/// leaf to the source schema, and return `(⋂_{K} q(K))↓` (computed on
/// the leaves themselves, which agree with their restrictions on every
/// relation a source query reads).
///
/// By Theorem 6.5 this equals `certain_{e(M) ∘ e(M′)}(q, I)`; by
/// Theorem 6.4, when `M′` is an extended *inverse* it equals `q(I)↓`.
///
/// Only the query's slice is chased: the dependencies of `M′` whose
/// output `q` can see, closed under the relations they read, and the
/// dependencies of `M` that write those relations, closed the same way.
/// On the relations `q` reads, every leaf of the sliced chase is a leaf
/// of the full one up to renaming of nulls, and conversely, so the
/// answers are the full procedure's. A body relation outside `M`'s
/// source schema answers the empty set before either chase runs.
///
/// Both chases run under `options`: a budget that cuts either one short
/// returns an error, never a partial answer set. The sliced chases make
/// a subset of the full chases' steps, branches and searches, so under
/// any budget the call returns exactly the unbounded answers or a
/// budget error. It may answer where the full chase would have hit a
/// `max_*` limit or a node budget, never the reverse.
pub fn reverse_certain_answers(
    q: &ConjunctiveQuery,
    source: &Instance,
    mapping: &SchemaMapping,
    recovery: &SchemaMapping,
    vocab: &mut Vocabulary,
    options: &DisjunctiveChaseOptions,
) -> Result<AnswerSet, ChaseError> {
    let Some((recovery_slice, relations)) = query_slice(q, mapping, recovery) else {
        return Ok(AnswerSet::new());
    };
    let (mapping_slice, _) = slice(&mapping.dependencies, &relations);
    let forward = ChaseOptions { hom: options.hom.clone(), ..ChaseOptions::default() };
    let u = chase(source, &mapping_slice, vocab, &forward)?.instance.restrict_to(&mapping.target);
    certain_over_leaves(q, &u, &recovery_slice, vocab, options)
}

/// Like [`reverse_certain_answers`] but starting from the materialized
/// target instance `U` (the realistic situation: the source is gone).
/// Only the recovery is sliced.
pub fn reverse_certain_answers_from_target(
    q: &ConjunctiveQuery,
    target: &Instance,
    mapping: &SchemaMapping,
    recovery: &SchemaMapping,
    vocab: &mut Vocabulary,
    options: &DisjunctiveChaseOptions,
) -> Result<AnswerSet, ChaseError> {
    let Some((recovery_slice, _)) = query_slice(q, mapping, recovery) else {
        return Ok(AnswerSet::new());
    };
    certain_over_leaves(q, target, &recovery_slice, vocab, options)
}

/// The recovery's dependencies that `q` can see and the relations they
/// touch, or `None` when a body relation lies outside the source
/// schema: that relation is empty in every source restriction, so
/// nothing is certain and nothing needs chasing. Counts the recovery's
/// dependencies into `query.certain.deps_kept` and
/// `query.certain.deps_sliced`.
fn query_slice(
    q: &ConjunctiveQuery,
    mapping: &SchemaMapping,
    recovery: &SchemaMapping,
) -> Option<(Vec<Dependency>, Vec<RelId>)> {
    let body = body_relations(q);
    let sliced = body
        .iter()
        .all(|&r| mapping.source.contains(r))
        .then(|| slice(&recovery.dependencies, &body));
    let kept = sliced.as_ref().map_or(0, |(deps, _)| deps.len());
    rde_obs::counter!("query.certain.deps_kept").add(kept as u64);
    rde_obs::counter!("query.certain.deps_sliced").add((recovery.dependencies.len() - kept) as u64);
    sliced
}

/// `(⋂_K q(K))↓` over the leaves of the disjunctive chase of `target`.
/// The query reads only its body relations, and on the source schema's
/// relations every leaf agrees with its source restriction, so the
/// leaves are evaluated as they are.
fn certain_over_leaves(
    q: &ConjunctiveQuery,
    target: &Instance,
    dependencies: &[Dependency],
    vocab: &mut Vocabulary,
    options: &DisjunctiveChaseOptions,
) -> Result<AnswerSet, ChaseError> {
    let result = disjunctive_chase(target, dependencies, vocab, options)?;
    Ok(certain_answers_over(q, &result.leaves))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rde_deps::parse_mapping;
    use rde_model::parse::parse_instance;

    /// Example 3.18's extended-invertible mapping: reverse certain
    /// answers recover q(I)↓ exactly (Theorem 6.4).
    #[test]
    fn extended_inverse_recovers_q_of_i() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(
            &mut v,
            "source: P/2\ntarget: Q/2\nP(x, y) -> exists z . Q(x, z) & Q(z, y)",
        )
        .unwrap();
        let minv = parse_mapping(&mut v, "source: Q/2\ntarget: P/2\nQ(x, z) & Q(z, y) -> P(x, y)")
            .unwrap();
        let i = parse_instance(&mut v, "P(a, b)\nP(b, c)\nP(a, ?w)").unwrap();
        let q = ConjunctiveQuery::parse(&mut v, "q(x, y) :- P(x, y)").unwrap();
        let expected = crate::cq::evaluate_null_free(&q, &i);
        let got =
            reverse_certain_answers(&q, &i, &m, &minv, &mut v, &DisjunctiveChaseOptions::default())
                .unwrap();
        assert_eq!(got, expected);
        // And a join query over the source.
        let qj = ConjunctiveQuery::parse(&mut v, "j(x, z) :- P(x, y) & P(y, z)").unwrap();
        let expected = crate::cq::evaluate_null_free(&qj, &i);
        let got = reverse_certain_answers(
            &qj,
            &i,
            &m,
            &minv,
            &mut v,
            &DisjunctiveChaseOptions::default(),
        )
        .unwrap();
        assert_eq!(got, expected);
    }

    /// The union mapping: certain answers through the disjunctive
    /// recovery keep only what every branch agrees on.
    #[test]
    fn union_mapping_certain_answers_are_conservative() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/1, Q/1\ntarget: R/1\nP(x) -> R(x)\nQ(x) -> R(x)")
            .unwrap();
        let rec =
            parse_mapping(&mut v, "source: R/1\ntarget: P/1, Q/1\nR(x) -> P(x) | Q(x)").unwrap();
        let i = parse_instance(&mut v, "P(a)").unwrap();
        // q(x) :- P(x): branch {Q(a)} does not satisfy it → no certain answer.
        let qp = ConjunctiveQuery::parse(&mut v, "q(x) :- P(x)").unwrap();
        let got =
            reverse_certain_answers(&qp, &i, &m, &rec, &mut v, &DisjunctiveChaseOptions::default())
                .unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn both_chases_run_under_the_callers_budget() {
        // The forward chase joins P with itself; the reverse chase only
        // scans T, so a budget can stop the first and not the second.
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/2\ntarget: T/2\nP(x, y) & P(y, z) -> T(x, z)")
            .unwrap();
        let rec = parse_mapping(
            &mut v,
            "source: T/2\ntarget: P/2\nT(x, z) -> exists y . P(x, y) & P(y, z)",
        )
        .unwrap();
        let i = parse_instance(&mut v, "P(a, b)\nP(b, c)\nP(c, d)").unwrap();
        let q = ConjunctiveQuery::parse(&mut v, "q(x) :- P(x, y)").unwrap();
        let u = chase_mapping(&i, &m, &mut v, &ChaseOptions::default()).unwrap();
        let hom = rde_hom::HomConfig { node_budget: Some(2), ..Default::default() };
        let options = DisjunctiveChaseOptions { hom, ..DisjunctiveChaseOptions::default() };
        let from_u = reverse_certain_answers_from_target(&q, &u, &m, &rec, &mut v, &options);
        let (a, b) = (v.const_value("a"), v.const_value("b"));
        assert_eq!(from_u.unwrap().into_iter().collect::<Vec<_>>(), vec![vec![a], vec![b]]);
        let from_i = reverse_certain_answers(&q, &i, &m, &rec, &mut v, &options);
        assert!(matches!(from_i, Err(ChaseError::MatchBudgetExhausted { .. })), "{from_i:?}");
    }

    /// A body relation outside the source schema is certain to answer
    /// nothing, so it answers before any chase a budget could stop.
    #[test]
    fn out_of_schema_queries_answer_empty_under_any_budget() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/1, Q/1\ntarget: R/1\nP(x) -> R(x)\nQ(x) -> R(x)")
            .unwrap();
        let rec =
            parse_mapping(&mut v, "source: R/1\ntarget: P/1, Q/1\nR(x) -> P(x) | Q(x)").unwrap();
        let i = parse_instance(&mut v, "P(a)\nQ(b)").unwrap();
        let u = chase_mapping(&i, &m, &mut v, &ChaseOptions::default()).unwrap();
        let q = ConjunctiveQuery::parse(&mut v, "q(x) :- P(x) & R(x)").unwrap();
        let hom = rde_hom::HomConfig { node_budget: Some(0), ..Default::default() };
        let options = DisjunctiveChaseOptions { hom, ..DisjunctiveChaseOptions::default() };
        let from_u = reverse_certain_answers_from_target(&q, &u, &m, &rec, &mut v, &options);
        assert_eq!(from_u.unwrap(), AnswerSet::new());
        let from_i = reverse_certain_answers(&q, &i, &m, &rec, &mut v, &options);
        assert_eq!(from_i.unwrap(), AnswerSet::new());
        // A source query under the same budget still stops honestly.
        let qp = ConjunctiveQuery::parse(&mut v, "q(x) :- P(x)").unwrap();
        let cut = reverse_certain_answers_from_target(&qp, &u, &m, &rec, &mut v, &options);
        assert!(matches!(cut, Err(ChaseError::MatchBudgetExhausted { .. })), "{cut:?}");
    }

    /// A rule none of whose conclusions the query can see is not
    /// chased, so its branches count against no budget.
    #[test]
    fn rules_the_query_cannot_see_are_not_chased() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(
            &mut v,
            "source: P/2, A/1, B/1\ntarget: S/2, T/1\nP(x, y) -> S(x, y)\nA(x) -> T(x)\nB(x) -> T(x)",
        )
        .unwrap();
        let rec = parse_mapping(
            &mut v,
            "source: S/2, T/1\ntarget: P/2, A/1, B/1\nS(x, y) -> P(x, y)\nT(x) -> A(x) | B(x)",
        )
        .unwrap();
        let q = ConjunctiveQuery::parse(&mut v, "q(x) :- P(x, y)").unwrap();
        let (kept, relations) = query_slice(&q, &m, &rec).unwrap();
        assert_eq!(kept, rec.dependencies[..1]);
        let (s, p) = (v.find_relation("S").unwrap(), v.find_relation("P").unwrap());
        let mut expected = vec![s, p];
        expected.sort_unstable();
        assert_eq!(relations, expected);
        // Eight A facts branch the full chase 256 ways, past a budget
        // of two branches; the sliced chase has one leaf.
        let facts: Vec<String> = (0..8).map(|i| format!("A(a{i})")).collect();
        let i = parse_instance(&mut v, &format!("P(c, d)\n{}", facts.join("\n"))).unwrap();
        let options = DisjunctiveChaseOptions { max_branches: 2, ..Default::default() };
        let u = chase_mapping(&i, &m, &mut v, &ChaseOptions::default()).unwrap();
        let full = disjunctive_chase(&u, &rec.dependencies, &mut v, &options);
        assert!(matches!(full, Err(ChaseError::BranchBudgetExhausted { .. })), "{full:?}");
        let got = reverse_certain_answers(&q, &i, &m, &rec, &mut v, &options).unwrap();
        assert_eq!(got.into_iter().collect::<Vec<_>>(), vec![vec![v.const_value("c")]]);
    }

    #[test]
    fn forward_certain_answers_use_the_universal_solution() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(
            &mut v,
            "source: P/2\ntarget: Q/2\nP(x, y) -> exists z . Q(x, z) & Q(z, y)",
        )
        .unwrap();
        let i = parse_instance(&mut v, "P(a, b)").unwrap();
        // Endpoint pairs connected by a 2-path: only (a, b) is certain.
        let q = ConjunctiveQuery::parse(&mut v, "q(x, y) :- Q(x, z) & Q(z, y)").unwrap();
        let got = forward_certain_answers(&q, &i, &m, &mut v).unwrap();
        let (a, b) = (v.const_value("a"), v.const_value("b"));
        assert_eq!(got.into_iter().collect::<Vec<_>>(), vec![vec![a, b]]);
        // Single-edge endpoints involve the null z: no certain answers.
        let q1 = ConjunctiveQuery::parse(&mut v, "q(x, y) :- Q(x, y)").unwrap();
        assert!(forward_certain_answers(&q1, &i, &m, &mut v).unwrap().is_empty());
    }

    #[test]
    fn certain_answers_over_explicit_family() {
        let mut v = Vocabulary::new();
        let k1 = parse_instance(&mut v, "P(a)\nP(b)").unwrap();
        let k2 = parse_instance(&mut v, "P(a)\nP(c)").unwrap();
        let q = ConjunctiveQuery::parse(&mut v, "q(x) :- P(x)").unwrap();
        let got = certain_answers_over(&q, [&k1, &k2]);
        assert_eq!(got.into_iter().collect::<Vec<_>>(), vec![vec![v.const_value("a")]]);
    }
}

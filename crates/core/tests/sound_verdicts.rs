//! Sound budgeted verdicts: a budget may leave a question open, but it
//! never answers it wrongly. Raising the hom-search node budget along
//! `0, 1, 2, 4, …` and then lifting it must never flip one definite
//! verdict into the other, and the unbounded verdict is the boolean
//! check's. The first property covers satisfaction; the second runs
//! the same ladder over a table of every mapping-level checker.

use proptest::prelude::*;
use rde_chase::chase_mapping_default;
use rde_core::arrow::arrow_m;
use rde_core::compare::{compare_lossiness, Comparison};
use rde_core::invertibility::{check_homomorphism_property_budgeted, BoundedVerdict};
use rde_core::recovery::{
    check_maximum_extended_recovery, find_extended_recovery_counterexample, MaxRecoveryVerdict,
};
use rde_core::semantics::{satisfies, satisfies_budgeted};
use rde_core::{chase_inverse, extended, faithful, loss, CoreError, Universe};
use rde_deps::{parse_mapping, SchemaMapping};
use rde_faults::ExecContext;
use rde_hom::{exists_hom, Exhausted, HomConfig, HomStats, Verdict};
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

/// Guard-free tgds from `P/2, R/1` to `Q/2, T/1`: the forward mappings
/// of the checker table (joins, existentials, a null-inventing hop).
const FORWARD_POOL: &[&str] = &[
    "P(x, y) -> Q(x, y)",
    "P(x, y) -> exists z . Q(x, z) & Q(z, y)",
    "P(x, y) & P(y, z) -> Q(x, z)",
    "R(x) -> T(x)",
    "R(x) -> exists z . Q(x, z)",
    "P(x, y) -> T(y)",
];

/// Reverse dependencies from `Q/2, T/1` back to `P/2, R/1`; the last one
/// is disjunctive, so only the recovery checkers see it.
const REVERSE_POOL: &[&str] = &[
    "Q(x, y) -> P(x, y)",
    "Q(x, z) & Q(z, y) -> P(x, y)",
    "T(x) -> R(x)",
    "Q(x, y) -> exists z . P(x, z)",
    "T(x) -> R(x) | exists z . P(x, z)",
];

fn pick(header: &str, pool: &[&str], picks: &[bool]) -> String {
    let mut text = String::from(header);
    for (dep, _) in pool.iter().zip(picks).filter(|(_, &on)| on) {
        text.push_str(dep);
        text.push('\n');
    }
    text
}

/// One random input of the checker table: two forward mappings over the
/// same source schema, a reverse mapping (with and without its
/// disjunction), a tiny universe for the universal checkers, and a
/// source and a target instance from a larger one for the pointwise
/// checkers.
struct Case {
    vocab: Vocabulary,
    m: SchemaMapping,
    m2: SchemaMapping,
    rev: SchemaMapping,
    rev_tgd: SchemaMapping,
    i: Instance,
    j: Instance,
    universe: Universe,
    pointwise: Universe,
}

impl Case {
    fn new(forward: &[bool], second: &[bool], reverse: &[bool], i: usize, j: usize) -> Self {
        let mut vocab = Vocabulary::new();
        let header = "source: P/2, R/1\ntarget: Q/2, T/1\n";
        let m = parse_mapping(&mut vocab, &pick(header, FORWARD_POOL, forward)).unwrap();
        let m2 = parse_mapping(&mut vocab, &pick(header, FORWARD_POOL, second)).unwrap();
        let header = "source: Q/2, T/1\ntarget: P/2, R/1\n";
        let rev = parse_mapping(&mut vocab, &pick(header, REVERSE_POOL, reverse)).unwrap();
        let tgds = &REVERSE_POOL[..REVERSE_POOL.len() - 1];
        let rev_tgd = parse_mapping(&mut vocab, &pick(header, tgds, reverse)).unwrap();
        let universe = Universe::new(&mut vocab, 1, 1, 1);
        let pointwise = Universe::new(&mut vocab, 1, 1, 3);
        let sources = pointwise.collect_instances(&vocab, &m.source).unwrap();
        let targets = pointwise.collect_instances(&vocab, &m.target).unwrap();
        let (i, j) = (sources[i % sources.len()].clone(), targets[j % targets.len()].clone());
        Case { vocab, m, m2, rev, rev_tgd, i, j, universe, pointwise }
    }

    fn family(&self) -> Vec<Instance> {
        self.universe.collect_instances(&self.vocab, &self.m.source).unwrap()
    }
}

/// A checker's answer reduced to what must not change with the budget:
/// `Ok(label)` when definite, `Err(budget)` when a search was cut.
/// Counterexamples reduce to "fails": a cut pair may be skipped, so a
/// budgeted run can find another, equally genuine, one.
type Answer = Result<String, Exhausted>;

fn from_verdict(v: Verdict) -> Answer {
    match v {
        Verdict::Unknown { budget } => Err(budget),
        v => Ok(v.to_string()),
    }
}

fn from_bounded(v: BoundedVerdict) -> Answer {
    match v {
        BoundedVerdict::HoldsWithinBound => Ok("holds".into()),
        BoundedVerdict::Counterexample { .. } => Ok("fails".into()),
        BoundedVerdict::Unknown { budget } => Err(budget),
    }
}

type Check = fn(&mut Case, &HomConfig, &mut HomStats) -> Result<Answer, CoreError>;

/// Every mapping-level checker, each reduced to an [`Answer`].
const CHECKERS: &[(&str, Check)] = &[
    ("extended solution", |c, cfg, st| {
        let v = extended::is_extended_solution(&c.i, &c.j, &c.m, &mut c.vocab, cfg, st)?;
        Ok(from_verdict(v))
    }),
    ("extended universal solution", |c, cfg, st| {
        let v = extended::is_extended_universal_solution(&c.i, &c.j, &c.m, &mut c.vocab, cfg, st)?;
        Ok(from_verdict(v))
    }),
    ("homomorphism property", |c, cfg, st| {
        let v = check_homomorphism_property_budgeted(&c.m, &c.universe, &mut c.vocab, cfg, st)?;
        Ok(from_bounded(v))
    }),
    ("chase-inverse", |c, cfg, st| {
        let family = c.family();
        let (m, rev) = (&c.m, &c.rev_tgd);
        let v = chase_inverse::find_chase_inverse_counterexample(
            m,
            rev,
            family.iter(),
            &mut c.vocab,
            cfg,
            st,
        )?;
        Ok(from_bounded(v))
    }),
    ("extended recovery", |c, cfg, st| {
        let family = c.family();
        let v = find_extended_recovery_counterexample(
            &c.m,
            &c.rev,
            family.iter(),
            &mut c.vocab,
            cfg,
            st,
        )?;
        Ok(from_bounded(v))
    }),
    ("maximum extended recovery", |c, cfg, st| {
        let v = check_maximum_extended_recovery(&c.m, &c.rev, &c.universe, &mut c.vocab, cfg, st)?;
        Ok(match v {
            MaxRecoveryVerdict::HoldsWithinBound => Ok("holds".into()),
            MaxRecoveryVerdict::Unknown { budget } => Err(budget),
            _ => Ok("fails".into()),
        })
    }),
    ("compare", |c, cfg, st| {
        Ok(match compare_lossiness(&c.m, &c.m2, &c.universe, &mut c.vocab, cfg, st)? {
            Comparison::Unknown { budget } => Err(budget),
            Comparison::Incomparable { .. } => Ok("incomparable".into()),
            definite => Ok(format!("{definite:?}")),
        })
    }),
    ("information loss", |c, cfg, st| {
        let r = loss::information_loss(&c.m, &c.universe, &mut c.vocab, 0, cfg, st)?;
        Ok(match r.unsettled {
            Some(budget) => Err(budget),
            None => Ok(format!("{} {} {}", r.arrow_m_pairs, r.hom_pairs, r.lost_pairs)),
        })
    }),
    ("universal faithfulness", |c, cfg, st| {
        let v =
            faithful::check_universal_faithful(&c.m, &c.rev, &c.universe, &mut c.vocab, cfg, st)?;
        Ok(from_verdict(v.map_or(Verdict::Holds, |(_, report)| report.verdict())))
    }),
];

/// The definition-level reference answer of a checker, where one
/// exists.
fn reference(name: &str, c: &mut Case) -> Option<String> {
    let family = c.family();
    // `→_M` through the unbudgeted reference, `→` by a plain scan.
    let mut arrows = Vec::new();
    for a in &family {
        for b in &family {
            arrows.push((arrow_m(&c.m, a, b, &mut c.vocab).unwrap(), exists_hom(a, b)));
        }
    }
    match name {
        // Exact when the middle pair (I, chase_M(I)) lies in the
        // universe: a full mapping whose chase fits the fact bound.
        "extended solution" => {
            let chased = chase_mapping_default(&c.i, &c.m, &mut c.vocab).unwrap();
            let targets = c.pointwise.collect_instances(&c.vocab, &c.m.target).unwrap();
            (c.m.is_full_tgd_mapping() && targets.contains(&chased)).then(|| {
                let (i, j, m) = (&c.i, &c.j, &c.m);
                let holds = extended::is_extended_solution_bounded(i, j, m, &c.pointwise, &c.vocab)
                    .unwrap();
                Verdict::from_bool(holds).to_string()
            })
        }
        "homomorphism property" => {
            let lossy = arrows.iter().any(|&(arrow, hom)| arrow && !hom);
            Some(if lossy { "fails" } else { "holds" }.into())
        }
        "information loss" => {
            let arrow_m_pairs = arrows.iter().filter(|&&(arrow, _)| arrow).count();
            let hom_pairs = arrows.iter().filter(|&&(_, hom)| hom).count();
            Some(format!("{arrow_m_pairs} {hom_pairs} {}", arrow_m_pairs - hom_pairs))
        }
        _ => None,
    }
}

/// The node budgets of the ladder: `0, 1, 2, 4, …, 4096`, then none.
fn ladder() -> impl Iterator<Item = Option<u64>> {
    std::iter::once(Some(0)).chain((0..13).map(|k| Some(1u64 << k))).chain(std::iter::once(None))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_checker_is_monotone_in_the_node_budget(
        forward in prop::collection::vec(any::<bool>(), FORWARD_POOL.len()),
        second in prop::collection::vec(any::<bool>(), FORWARD_POOL.len()),
        reverse in prop::collection::vec(any::<bool>(), REVERSE_POOL.len()),
        i in 0usize..64,
        j in 0usize..64,
    ) {
        let mut case = Case::new(&forward, &second, &reverse, i, j);
        for &(name, check) in CHECKERS {
            let answers: Vec<Answer> = ladder()
                .map(|node_budget| {
                    let config = HomConfig { node_budget, ..HomConfig::default() };
                    check(&mut case, &config, &mut HomStats::default()).unwrap()
                })
                .collect();
            let truth = answers.last().unwrap().clone();
            prop_assert!(truth.is_ok(), "{}: the unbounded run cannot run out", name);
            for (step, answer) in answers.iter().enumerate() {
                if answer.is_ok() {
                    prop_assert_eq!(answer, &truth, "{}: step {} decided otherwise", name, step);
                    prop_assert!(
                        answers[step..].iter().all(Result::is_ok),
                        "{}: a larger budget than step {} turned a definite answer Unknown",
                        name,
                        step
                    );
                }
            }
            if let Some(expected) = reference(name, &mut case) {
                prop_assert_eq!(truth.unwrap(), expected, "{}: disagrees with the reference", name);
            }
        }
    }
}

/// A context cancelled before the call stops every checker: it
/// answers `Unknown(Cancelled)` or fails with `CoreError::Cancelled`,
/// never a definite verdict.
#[test]
fn a_cancelled_context_stops_every_checker() {
    let all = [true; 6];
    let mut case = Case::new(&all, &all[..3], &all, 5, 0);
    let ctx = ExecContext::cancellable();
    ctx.cancel.cancel();
    let config = HomConfig { ctx, ..HomConfig::default() };
    for &(name, check) in CHECKERS {
        match check(&mut case, &config, &mut HomStats::default()) {
            Ok(Err(Exhausted::Cancelled)) | Err(CoreError::Cancelled) => {}
            other => panic!("{name}: a cancelled context answered {other:?}"),
        }
    }
}

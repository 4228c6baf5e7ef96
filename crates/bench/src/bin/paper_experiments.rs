//! Reproduction harness for every checkable claim of *Reverse Data
//! Exchange: Coping with Nulls* (PODS 2009).
//!
//! The paper is pure theory — it has no tables or figures — so this
//! binary reproduces each numbered example, proposition and theorem as
//! an executable experiment and prints a PASS/FAIL row per claim.
//! `EXPERIMENTS.md` records the expected-vs-observed outcomes.
//!
//! Usage: `cargo run -p rde-bench --bin paper_experiments [e1 e2 …]`

use rde_chase::{chase_mapping, disjunctive_chase, ChaseOptions, DisjunctiveChaseOptions};
use rde_core::chase_inverse::{find_chase_inverse_counterexample, roundtrip_recovers};
use rde_core::compare::{check_less_lossy_via_recoveries, compare_lossiness};
use rde_core::compose::in_composition;
use rde_core::extended::{is_extended_solution, is_extended_universal_solution};
use rde_core::faithful::check_universal_faithful;
use rde_core::ground::check_inverse;
use rde_core::invertibility::BoundedVerdict;
use rde_core::loss::information_loss;
use rde_core::quasi_inverse::maximum_extended_recovery_full;
use rde_core::recovery::{check_maximum_extended_recovery, MaxRecoveryVerdict};
use rde_core::Universe;
use rde_deps::{parse_mapping, Conjunct, Dependency, SchemaMapping};
use rde_hom::{hom_equivalent, HomConfig, HomStats};
use rde_model::parse::parse_instance;
use rde_model::{display, Instance, Vocabulary};
use rde_query::{evaluate_null_free, reverse_certain_answers, ConjunctiveQuery};

struct Outcome {
    id: &'static str,
    claim: &'static str,
    observed: String,
    pass: bool,
}

type Experiment = (&'static str, fn() -> Outcome);

fn main() {
    let filter: Vec<String> = std::env::args().skip(1).map(|s| s.to_lowercase()).collect();
    let experiments: Vec<Experiment> = vec![
        ("e1", e1),
        ("e2", e2),
        ("e3", e3),
        ("e4", e4),
        ("e5", e5),
        ("e6", e6),
        ("e7", e7),
        ("e8", e8),
        ("e9", e9),
        ("e10", e10),
        ("e11", e11),
        ("e12", e12),
        ("e13", e13),
        ("e14", e14),
    ];
    let mut failures = 0;
    println!("{:-<100}", "");
    println!("{:<5} {:<42} {:<44} verdict", "exp", "claim", "observed");
    println!("{:-<100}", "");
    for (id, f) in experiments {
        if !filter.is_empty() && !filter.iter().any(|x| x == id) {
            continue;
        }
        let o = f();
        println!(
            "{:<5} {:<42} {:<44} {}",
            o.id,
            o.claim,
            o.observed,
            if o.pass { "PASS" } else { "FAIL" }
        );
        if !o.pass {
            failures += 1;
        }
    }
    println!("{:-<100}", "");
    if failures > 0 {
        eprintln!("{failures} experiment(s) FAILED");
        std::process::exit(1);
    }
}

fn decomposition(v: &mut Vocabulary) -> SchemaMapping {
    parse_mapping(v, "source: P/3\ntarget: Q/2, R/2\nP(x,y,z) -> Q(x,y) & R(y,z)").unwrap()
}

fn decomposition_reverse(v: &mut Vocabulary) -> SchemaMapping {
    parse_mapping(
        v,
        "source: Q/2, R/2\ntarget: P/3\nQ(x,y) -> exists z . P(x,y,z)\nR(y,z) -> exists x . P(x,y,z)",
    )
    .unwrap()
}

fn two_step(v: &mut Vocabulary) -> SchemaMapping {
    parse_mapping(v, "source: P/2\ntarget: Q/2\nP(x,y) -> exists z . Q(x,z) & Q(z,y)").unwrap()
}

fn union(v: &mut Vocabulary) -> SchemaMapping {
    parse_mapping(v, "source: A/1, B/1\ntarget: R/1\nA(x) -> R(x)\nB(x) -> R(x)").unwrap()
}

/// E1 — Example 1.1: the canonical reverse exchange is non-ground.
/// No budget: every experiment runs its checks to completion.
fn unbounded() -> (HomConfig, HomStats) {
    (HomConfig::default(), HomStats::default())
}

fn e1() -> Outcome {
    let mut v = Vocabulary::new();
    let m = decomposition(&mut v);
    let rev = decomposition_reverse(&mut v);
    let i = parse_instance(&mut v, "P(a,b,c)").unwrap();
    let u = chase_mapping(&i, &m, &mut v, &ChaseOptions::default()).unwrap();
    let expected_u = parse_instance(&mut v, "Q(a,b)\nR(b,c)").unwrap();
    let vi = chase_mapping(&u, &rev, &mut v, &ChaseOptions::default()).unwrap();
    let paper_v = parse_instance(&mut v, "P(a,b,?zz)\nP(?xx,b,c)").unwrap();
    let pass = u == expected_u && !vi.is_ground() && hom_equivalent(&vi, &paper_v);
    Outcome {
        id: "E1",
        claim: "Ex 1.1: V = {P(a,b,Z), P(X,b,c)} non-ground",
        observed: format!("U ok; V = {}", display::instance_inline(&v, &vi)),
        pass,
    }
}

/// E2 — Example 3.3 / Prop 3.4: extended vs plain solutions.
fn e2() -> Outcome {
    let mut v = Vocabulary::new();
    let (cfg, mut st) = unbounded();
    let m = decomposition(&mut v);
    let vi = parse_instance(&mut v, "P(a,b,?z)\nP(?x,b,c)").unwrap();
    let u = parse_instance(&mut v, "Q(a,b)\nR(b,c)").unwrap();
    let not_sol = !rde_core::semantics::is_solution(&vi, &u, &m);
    let is_esol = is_extended_solution(&vi, &u, &m, &mut v, &cfg, &mut st).unwrap().holds();
    // Prop 3.4: ground sources have eSol = Sol on a bounded target universe.
    let i = parse_instance(&mut v, "P(a,b,c)").unwrap();
    let universe = Universe::new(&mut v, 3, 1, 2);
    let mut prop34 = true;
    for j in universe.instances(&v, &m.target).unwrap() {
        if rde_core::semantics::is_solution(&i, &j, &m)
            != is_extended_solution(&i, &j, &m, &mut v, &cfg, &mut st).unwrap().holds()
        {
            prop34 = false;
            break;
        }
    }
    Outcome {
        id: "E2",
        claim: "Ex 3.3/Prop 3.4: eSol vs Sol",
        observed: format!("U: sol={}, eSol={}; ground eSol=Sol: {}", !not_sol, is_esol, prop34),
        pass: not_sol && is_esol && prop34,
    }
}

/// E3 — Prop 3.11: chase_M(I) is an extended universal solution.
fn e3() -> Outcome {
    let mut v = Vocabulary::new();
    let (cfg, mut st) = unbounded();
    let m = two_step(&mut v);
    let universe = Universe::new(&mut v, 2, 2, 2);
    let family = universe.collect_instances(&v, &m.source).unwrap();
    let mut pass = true;
    for i in &family {
        let u = chase_mapping(i, &m, &mut v, &ChaseOptions::default()).unwrap();
        if !is_extended_universal_solution(i, &u, &m, &mut v, &cfg, &mut st).unwrap().holds() {
            pass = false;
            break;
        }
    }
    Outcome {
        id: "E3",
        claim: "Prop 3.11: chase is ext. universal solution",
        observed: format!("verified on {} sources", family.len()),
        pass,
    }
}

/// E4 — Example 3.14 / Thm 3.13: the union mapping fails the
/// homomorphism property.
fn e4() -> Outcome {
    let mut v = Vocabulary::new();
    let m = union(&mut v);
    let universe = Universe::new(&mut v, 1, 0, 1);
    let verdict =
        rde_core::invertibility::check_homomorphism_property(&m, &universe, &mut v).unwrap();
    match verdict {
        BoundedVerdict::Counterexample { i1, i2 } => Outcome {
            id: "E4",
            claim: "Ex 3.14: union mapping not ext-invertible",
            observed: format!(
                "cex: {} vs {}",
                display::instance_inline(&v, &i1),
                display::instance_inline(&v, &i2)
            ),
            pass: true,
        },
        other => Outcome {
            id: "E4",
            claim: "Ex 3.14: union mapping not ext-invertible",
            observed: format!("no counterexample found ({other:?})"),
            pass: false,
        },
    }
}

/// E5 — Thm 3.15(2): invertible but not extended-invertible.
fn e5() -> Outcome {
    let mut v = Vocabulary::new();
    let (cfg, mut st) = unbounded();
    let m = parse_mapping(
        &mut v,
        "source: P/1, Q/1\ntarget: R/2\nP(x) -> exists y . R(x, y)\nQ(y) -> exists x . R(x, y)",
    )
    .unwrap();
    let minv = parse_mapping(
        &mut v,
        "source: R/2\ntarget: P/1, Q/1\nR(x, y) & Constant(x) -> P(x)\nR(x, y) & Constant(y) -> Q(y)",
    )
    .unwrap();
    let universe = Universe::new(&mut v, 2, 1, 1);
    let inverse_ok = check_inverse(&m, &minv, &universe, &mut v, &cfg, &mut st).unwrap().holds();
    let ext = rde_core::invertibility::check_homomorphism_property(&m, &universe, &mut v).unwrap();
    let needs_nulls = match &ext {
        BoundedVerdict::Counterexample { i1, i2 } => !i1.is_ground() || !i2.is_ground(),
        BoundedVerdict::HoldsWithinBound | BoundedVerdict::Unknown { .. } => false,
    };
    Outcome {
        id: "E5",
        claim: "Thm 3.15(2): invertible, not ext-invertible",
        observed: format!("inverse ok: {inverse_ok}; null cex found: {needs_nulls}"),
        pass: inverse_ok && needs_nulls,
    }
}

/// E6 — Thm 3.15(3) / Ex 3.18 / Ex 3.19: extended inverse ≠ inverse.
fn e6() -> Outcome {
    let mut v = Vocabulary::new();
    let (cfg, mut st) = unbounded();
    let m = two_step(&mut v);
    let m1 = parse_mapping(&mut v, "source: Q/2\ntarget: P/2\nQ(x,z) & Q(z,y) -> P(x,y)").unwrap();
    let m2 = parse_mapping(
        &mut v,
        "source: Q/2\ntarget: P/2\nQ(x,z) & Q(z,y) & Constant(x) & Constant(y) -> P(x,y)",
    )
    .unwrap();
    let universe = Universe::new(&mut v, 2, 1, 2);
    let family = universe.collect_instances(&v, &m.source).unwrap();
    let m1_chase_inverse =
        find_chase_inverse_counterexample(&m, &m1, &family, &mut v, &cfg, &mut st).unwrap().holds();
    let null_i = parse_instance(&mut v, "P(?w, ?z)").unwrap();
    let m2_fails = !roundtrip_recovers(&m, &m2, &null_i, &mut v, &cfg, &mut st).unwrap().holds();
    let small = Universe::new(&mut v, 2, 0, 1);
    let m2_is_inverse = check_inverse(&m, &m2, &small, &mut v, &cfg, &mut st).unwrap().holds();
    Outcome {
        id: "E6",
        claim: "Ex 3.18/3.19: chase-inverse vs inverse",
        observed: format!(
            "M' chase-inv: {m1_chase_inverse} ({} srcs); M'' fails@nulls: {m2_fails}, inverse: {m2_is_inverse}",
            family.len()
        ),
        pass: m1_chase_inverse && m2_fails && m2_is_inverse,
    }
}

/// E7 — Prop 4.2: no witness solution for I = {P(0,1), P(1,0)} once
/// sources may be non-ground — the paper's four-case analysis.
fn e7() -> Outcome {
    let mut v = Vocabulary::new();
    let m = two_step(&mut v);
    let i = parse_instance(&mut v, "P(0, 1)\nP(1, 0)").unwrap();
    // Candidate family of sources used to refute witnesses. Crucially
    // it may contain NON-GROUND instances — including instances that
    // mention a candidate J's own nulls. That is exactly what breaks
    // witnesses once sources with nulls are allowed (case 2 of the
    // paper's analysis is refuted by I′ = {P(X, Y)}).
    let base = [
        "P(0, 0)",
        "P(1, 1)",
        "P(0, 1)",
        "P(1, 0)",
        "P(0, 1)\nP(1, 0)",
        "P(0, ?nx)\nP(?nx, 1)\nP(1, ?ny)\nP(?ny, 0)",
    ];

    // The paper's case analysis on J ⊇ {Q(0,X), Q(X,1), Q(1,Y), Q(Y,0)}:
    // (1) X = Y (null); (2) X ≠ Y, one of them not 0/1; (3) X=0, Y=1;
    // (4) X=1, Y=0 (cases 3 and 4 yield the same fact set).
    let cases = [
        "Q(0,?s)\nQ(?s,1)\nQ(1,?s)\nQ(?s,0)",
        "Q(0,?s)\nQ(?s,1)\nQ(1,?t)\nQ(?t,0)",
        "Q(0,0)\nQ(0,1)\nQ(1,1)\nQ(1,0)",
        "Q(0,1)\nQ(1,1)\nQ(1,0)\nQ(0,0)",
    ];
    let mut refuted = 0;
    for c in cases {
        let j = parse_instance(&mut v, c).unwrap();
        let mut family: Vec<Instance> =
            base.iter().map(|t| parse_instance(&mut v, t).unwrap()).collect();
        // Probe sources over J's own active domain (single P-facts).
        let p = v.find_relation("P").unwrap();
        for &a in &j.active_domain() {
            for &b in &j.active_domain() {
                family.push([rde_model::Fact::new(p, vec![a, b])].into_iter().collect());
            }
        }
        // A witness solution must be a solution AND a witness; every
        // shape fails within the candidate family.
        if !rde_core::ground::is_witness_solution(&m, &j, &i, &family, &mut v).unwrap() {
            refuted += 1;
        }
    }
    Outcome {
        id: "E7",
        claim: "Prop 4.2: no witness solution with nulls",
        observed: format!("{refuted}/4 candidate shapes refuted"),
        pass: refuted == 4,
    }
}

/// E8 — Thm 4.10 / Lemma 4.12 / Thm 4.13: e(M) ∘ e(M′) = →_M for a
/// maximum extended recovery.
fn e8() -> Outcome {
    let mut v = Vocabulary::new();
    let (cfg, mut st) = unbounded();
    let m = decomposition(&mut v);
    let rev = decomposition_reverse(&mut v);
    let universe = Universe::new(&mut v, 2, 1, 1);
    let verdict =
        check_maximum_extended_recovery(&m, &rev, &universe, &mut v, &cfg, &mut st).unwrap();
    let n = universe.size(&v, &m.source).unwrap();
    Outcome {
        id: "E8",
        claim: "Thm 4.13: e(M)∘e(M') = →_M (bounded)",
        observed: format!(
            "checked {n}² pairs: {}",
            if verdict.holds() { "equal" } else { "differ" }
        ),
        pass: verdict.holds(),
    }
}

/// E9 — Cor 4.14/4.15: information-loss censuses.
fn e9() -> Outcome {
    let mut rows = Vec::new();
    let mut pass = true;
    for (name, text, expect_lossless) in [
        ("copy", "source: P/2\ntarget: Pp/2\nP(x,y) -> Pp(x,y)", true),
        ("union", "source: A/1, B/1\ntarget: R/1\nA(x) -> R(x)\nB(x) -> R(x)", false),
        ("projection", "source: P/2\ntarget: Q/1\nP(x,y) -> Q(x)", false),
    ] {
        let mut v = Vocabulary::new();
        let (cfg, mut st) = unbounded();
        let m = parse_mapping(&mut v, text).unwrap();
        let universe = Universe::new(&mut v, 2, 1, 1);
        let report = information_loss(&m, &universe, &mut v, 0, &cfg, &mut st).unwrap();
        let hp = rde_core::invertibility::check_homomorphism_property(&m, &universe, &mut v)
            .unwrap()
            .holds();
        if report.is_lossless_within_bound() != expect_lossless
            || report.is_lossless_within_bound() != hp
        {
            pass = false;
        }
        rows.push(format!("{name}:{}", report.lost_pairs));
    }
    Outcome {
        id: "E9",
        claim: "Cor 4.15: loss = 0 iff ext-invertible",
        observed: format!("lost pairs {}", rows.join(" ")),
        pass,
    }
}

/// E10 — Thm 5.1 / Thm 5.2: the quasi-inverse algorithm output and the
/// necessity of disjunction and inequalities.
fn e10() -> Outcome {
    let mut v = Vocabulary::new();
    let (cfg, mut st) = unbounded();
    let m =
        parse_mapping(&mut v, "source: P/2, T/1\ntarget: Pp/2\nP(x,y) -> Pp(x,y)\nT(x) -> Pp(x,x)")
            .unwrap();
    let rec = maximum_extended_recovery_full(&m, &mut v, &cfg).unwrap();
    let universe = Universe::new(&mut v, 2, 1, 1);
    let good = check_maximum_extended_recovery(&m, &rec, &universe, &mut v, &cfg, &mut st)
        .unwrap()
        .holds();

    // Necessity of inequalities: strip them and the check must fail.
    let stripped: Vec<Dependency> = rec
        .dependencies
        .iter()
        .map(|d| {
            let mut premise = d.premise.clone();
            premise.inequalities.clear();
            Dependency::new(
                (0..d.var_count())
                    .map(|i| d.var_name(rde_deps::VarId(i as u32)).to_owned())
                    .collect(),
                premise,
                d.disjuncts.clone(),
            )
        })
        .collect();
    let no_ineq = SchemaMapping::new(rec.source.clone(), rec.target.clone(), stripped);
    let ineq_needed =
        !check_maximum_extended_recovery(&m, &no_ineq, &universe, &mut v, &cfg, &mut st)
            .unwrap()
            .holds();

    // Necessity of disjunction: keep only the first disjunct per rule.
    let truncated: Vec<Dependency> = rec
        .dependencies
        .iter()
        .map(|d| {
            let first: Vec<Conjunct> = d.disjuncts.iter().take(1).cloned().collect();
            Dependency::new(
                (0..d.var_count())
                    .map(|i| d.var_name(rde_deps::VarId(i as u32)).to_owned())
                    .collect(),
                d.premise.clone(),
                first,
            )
        })
        .collect();
    let no_disj = SchemaMapping::new(rec.source.clone(), rec.target.clone(), truncated);
    let disj_needed =
        !check_maximum_extended_recovery(&m, &no_disj, &universe, &mut v, &cfg, &mut st)
            .unwrap()
            .holds();

    Outcome {
        id: "E10",
        claim: "Thm 5.1/5.2: synthesis + language necessity",
        observed: format!(
            "{} rules ok:{good}; need != : {ineq_needed}; need |: {disj_needed}",
            rec.dependencies.len()
        ),
        pass: good && ineq_needed && disj_needed,
    }
}

/// E11 — Thm 6.2 / Def 6.1: maximum extended recoveries specified by
/// (inequality-free) disjunctive tgds are universal-faithful; a lossy
/// reverse is not; and — a fidelity point the experiment records —
/// Definition 6.1's hypothesis "disjunctive tgds" (no inequalities)
/// matters: Theorem 5.2's recovery NEEDS inequalities and is a maximum
/// extended recovery yet fails the raw leaf-set conditions, because
/// inequality triggers are not preserved under null collapses.
fn e11() -> Outcome {
    let mut pass = true;
    let mut notes = Vec::new();
    // Inequality-free recoveries (Thm 6.2's hypothesis): faithful.
    for (text, rec_text) in [
        (
            "source: A/1, B/1\ntarget: R/1\nA(x) -> R(x)\nB(x) -> R(x)",
            "source: R/1\ntarget: A/1, B/1\nR(x) -> A(x) | B(x)",
        ),
        (
            "source: A/1, B/1, C/1\ntarget: R/1\nA(x) -> R(x)\nB(x) -> R(x)\nC(x) -> R(x)",
            "source: R/1\ntarget: A/1, B/1, C/1\nR(x) -> A(x) | B(x) | C(x)",
        ),
    ] {
        let mut v = Vocabulary::new();
        let (cfg, mut st) = unbounded();
        let m = parse_mapping(&mut v, text).unwrap();
        let rec = parse_mapping(&mut v, rec_text).unwrap();
        let universe = Universe::new(&mut v, 1, 1, 2);
        let failure = check_universal_faithful(&m, &rec, &universe, &mut v, &cfg, &mut st).unwrap();
        if failure.is_some() {
            pass = false;
            notes.push("unexpected faithfulness failure".to_string());
        }
    }
    // Negative control: the A-only reverse of the union mapping.
    let mut v = Vocabulary::new();
    let (cfg, mut st) = unbounded();
    let m = union(&mut v);
    let bad = parse_mapping(&mut v, "source: R/1\ntarget: A/1, B/1\nR(x) -> A(x)").unwrap();
    let universe = Universe::new(&mut v, 1, 0, 1);
    let bad_fails =
        check_universal_faithful(&m, &bad, &universe, &mut v, &cfg, &mut st).unwrap().is_some();
    if !bad_fails {
        pass = false;
    }
    // Boundary of Def 6.1: Thm 5.2's inequality recovery is a maximum
    // extended recovery (E10) but fails the raw leaf conditions.
    let mut v = Vocabulary::new();
    let (cfg, mut st) = unbounded();
    let m =
        parse_mapping(&mut v, "source: P/2, T/1\ntarget: Pp/2\nP(x,y) -> Pp(x,y)\nT(x) -> Pp(x,x)")
            .unwrap();
    let rec = maximum_extended_recovery_full(&m, &mut v, &cfg).unwrap();
    let universe = Universe::new(&mut v, 1, 1, 2);
    let ineq_boundary =
        check_universal_faithful(&m, &rec, &universe, &mut v, &cfg, &mut st).unwrap().is_some();
    Outcome {
        id: "E11",
        claim: "Thm 6.2: max recoveries are universal-faithful",
        observed: format!(
            "disj-tgd recs faithful; lossy fails: {bad_fails}; != boundary: {ineq_boundary} {}",
            notes.join(";")
        ),
        pass: pass && ineq_boundary,
    }
}

/// E12 — Thm 6.4 / 6.5: reverse certain answers.
fn e12() -> Outcome {
    let mut v = Vocabulary::new();
    let m = two_step(&mut v);
    let minv =
        parse_mapping(&mut v, "source: Q/2\ntarget: P/2\nQ(x,z) & Q(z,y) -> P(x,y)").unwrap();
    let i = parse_instance(&mut v, "P(a,b)\nP(b,c)\nP(a,?w)").unwrap();
    let q = ConjunctiveQuery::parse(&mut v, "ans(x, y) :- P(x, y)").unwrap();
    let direct = evaluate_null_free(&q, &i);
    let reversed =
        reverse_certain_answers(&q, &i, &m, &minv, &mut v, &DisjunctiveChaseOptions::default())
            .unwrap();
    let thm64 = direct == reversed;

    // Thm 6.5 with a genuinely disjunctive recovery: equality with the
    // per-world intersection (computed independently).
    let mut v = Vocabulary::new();
    let m = union(&mut v);
    let rec = parse_mapping(&mut v, "source: R/1\ntarget: A/1, B/1\nR(x) -> A(x) | B(x)").unwrap();
    let i = parse_instance(&mut v, "A(p)\nB(q)").unwrap();
    let q = ConjunctiveQuery::parse(&mut v, "ans(x) :- A(x)").unwrap();
    let via_theorem =
        reverse_certain_answers(&q, &i, &m, &rec, &mut v, &DisjunctiveChaseOptions::default())
            .unwrap();
    let u = chase_mapping(&i, &m, &mut v, &ChaseOptions::default()).unwrap();
    let leaves =
        disjunctive_chase(&u, &rec.dependencies, &mut v, &DisjunctiveChaseOptions::default())
            .unwrap()
            .leaves;
    let worlds: Vec<Instance> = leaves.iter().map(|l| l.restrict_to(&m.source)).collect();
    let manual = rde_query::certain_answers_over(&q, worlds.iter());
    let thm65 = via_theorem == manual && via_theorem.is_empty();

    Outcome {
        id: "E12",
        claim: "Thm 6.4/6.5: reverse certain answers",
        observed: format!("ext-inv: q(I)↓ match {thm64}; disjunctive: {thm65}"),
        pass: thm64 && thm65,
    }
}

/// E13 — Example 6.7 / Thm 6.8: comparing schema mappings.
fn e13() -> Outcome {
    let mut v = Vocabulary::new();
    let (cfg, mut st) = unbounded();
    let m1 = parse_mapping(&mut v, "source: P/2\ntarget: Pp/2\nP(x,y) -> Pp(x,y)").unwrap();
    let m2 = parse_mapping(
        &mut v,
        "source: P/2\ntarget: Pp/2\nP(x,y) -> exists z . Pp(x,z)\nP(x,y) -> exists u . Pp(u,y)",
    )
    .unwrap();
    let universe = Universe::new(&mut v, 2, 1, 2);
    let cmp = compare_lossiness(&m1, &m2, &universe, &mut v, &cfg, &mut st).unwrap();
    let strictly = cmp == rde_core::compare::Comparison::StrictlyLessLossy;
    // Thm 6.8's procedural criterion with the shared recovery.
    let rec = parse_mapping(&mut v, "source: Pp/2\ntarget: P/2\nPp(x,y) -> P(x,y)").unwrap();
    let family = universe.collect_instances(&v, &m1.source).unwrap();
    let fwd_ok =
        check_less_lossy_via_recoveries(&m1, &rec, &m2, &rec, &family, &mut v, &cfg, &mut st)
            .unwrap()
            .holds();
    let bwd_fails =
        !check_less_lossy_via_recoveries(&m2, &rec, &m1, &rec, &family, &mut v, &cfg, &mut st)
            .unwrap()
            .holds();
    Outcome {
        id: "E13",
        claim: "Ex 6.7/Thm 6.8: M1 strictly less lossy",
        observed: format!("census: strict={strictly}; Thm6.8: fwd={fwd_ok}, bwd fails={bwd_fails}"),
        pass: strictly && fwd_ok && bwd_fails,
    }
}

/// E14 — §1's motivation: composition + inverse analyze schema
/// evolution. Compose two full-tgd evolution steps syntactically
/// (unfolding), cross-check the composition semantically on a bounded
/// universe, then synthesize and verify a maximum extended recovery of
/// the composed mapping.
fn e14() -> Outcome {
    let mut v = Vocabulary::new();
    let (cfg, mut st) = unbounded();
    let m12 = parse_mapping(
        &mut v,
        "source: Emp/2\ntarget: Staff/1, InDept/2\nEmp(n, d) -> Staff(n) & InDept(n, d)",
    )
    .unwrap();
    let m23 = parse_mapping(
        &mut v,
        "source: Staff/1, InDept/2\ntarget: Person/1, Unit/1\nStaff(n) -> Person(n)\nInDept(n, d) -> Unit(d)",
    )
    .unwrap();
    let composed = rde_core::unfold::compose_mappings(&m12, &m23, &v).unwrap();
    // Semantic cross-check of the unfolding on all bounded pairs.
    let universe = Universe::new(&mut v, 2, 1, 1);
    let sources = universe.collect_instances(&v, &m12.source).unwrap();
    let targets = universe.collect_instances(&v, &m23.target).unwrap();
    let mut agree = true;
    'outer: for i in &sources {
        for k in &targets {
            let semantic = in_composition(&m12, &m23, i, k, &mut v, &cfg, &mut st).unwrap().holds();
            let syntactic = rde_core::semantics::satisfies(i, k, &composed);
            if semantic != syntactic {
                agree = false;
                break 'outer;
            }
        }
    }
    // The composed mapping is full: synthesize + verify its recovery.
    let rec = maximum_extended_recovery_full(&composed, &mut v, &cfg).unwrap();
    let verdict =
        check_maximum_extended_recovery(&composed, &rec, &universe, &mut v, &cfg, &mut st).unwrap();
    Outcome {
        id: "E14",
        claim: "§1: composition + inverse (evolution)",
        observed: format!(
            "unfolded {} deps; semantics agree: {agree}; recovery: {}",
            composed.dependencies.len(),
            verdict.holds()
        ),
        pass: agree && verdict.holds(),
    }
}

// Silence the unused-import lint for MaxRecoveryVerdict used in type
// position through the helper calls above.
#[allow(dead_code)]
fn _verdict_is_public(v: MaxRecoveryVerdict) -> bool {
    v.holds()
}

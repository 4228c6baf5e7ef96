//! Theorem grid: the paper's main results verified across a matrix of
//! mapping families on bounded universes. One test per theorem, looping
//! over the families — broad, uniform coverage that complements the
//! example-specific unit tests.

use rde_chase::{chase_mapping, ChaseOptions};
use rde_core::arrow::{ArrowMCache, CachePolicy};
use rde_core::invertibility::check_homomorphism_property;
use rde_core::loss::information_loss;
use rde_core::quasi_inverse::maximum_extended_recovery_full;
use rde_core::recovery::check_maximum_extended_recovery;
use rde_core::Universe;
use rde_deps::{parse_mapping, printer, SchemaMapping};
use rde_hom::{exists_hom, HomConfig, HomStats};
use rde_model::Vocabulary;

/// The mapping families of the grid. `full` marks eligibility for the
/// quasi-inverse synthesizer.
const FAMILIES: &[(&str, &str, bool)] = &[
    ("copy", "source: P/2\ntarget: Pp/2\nP(x,y) -> Pp(x,y)", true),
    ("swap", "source: P/2\ntarget: Pp/2\nP(x,y) -> Pp(y,x)", true),
    ("union", "source: A/1, B/1\ntarget: R/1\nA(x) -> R(x)\nB(x) -> R(x)", true),
    (
        "union3",
        "source: A/1, B/1, C/1\ntarget: R/1\nA(x) -> R(x)\nB(x) -> R(x)\nC(x) -> R(x)",
        true,
    ),
    ("projection", "source: P/2\ntarget: Q/1\nP(x,y) -> Q(x)", true),
    ("diagonal", "source: P/2, T/1\ntarget: Pp/2\nP(x,y) -> Pp(x,y)\nT(x) -> Pp(x,x)", true),
    (
        "join-export",
        "source: S/2\ntarget: T/2, U/1\nS(x,y) -> T(x,y)\nS(x,y) & S(y,x) -> U(x)",
        true,
    ),
    ("two-step", "source: P/2\ntarget: Q/2\nP(x,y) -> exists z . Q(x,z) & Q(z,y)", false),
    ("decomposition", "source: P/3\ntarget: Q/2, R/2\nP(x,y,z) -> Q(x,y) & R(y,z)", true),
];

fn load(text: &str) -> (Vocabulary, SchemaMapping) {
    let mut v = Vocabulary::new();
    let m = parse_mapping(&mut v, text).unwrap();
    (v, m)
}

/// Corollary 4.15 across the grid: zero information loss on the bounded
/// universe iff the homomorphism property holds there.
#[test]
fn corollary_4_15_grid() {
    for &(name, text, _) in FAMILIES {
        let (mut v, m) = load(text);
        let u = Universe::new(&mut v, 2, 1, 1);
        let report =
            information_loss(&m, &u, &mut v, 0, &HomConfig::default(), &mut HomStats::default())
                .unwrap();
        let hp = check_homomorphism_property(&m, &u, &mut v).unwrap().holds();
        assert_eq!(report.is_lossless_within_bound(), hp, "family {name}");
    }
}

/// Proposition 3.11 across the grid: the chase is an extended universal
/// solution for every bounded source.
#[test]
fn proposition_3_11_grid() {
    for &(name, text, _) in FAMILIES {
        let (mut v, m) = load(text);
        let u = Universe::new(&mut v, 2, 1, 1);
        for i in u.instances(&v, &m.source).unwrap() {
            let chased = chase_mapping(&i, &m, &mut v, &ChaseOptions::default()).unwrap();
            assert!(
                rde_core::extended::is_extended_universal_solution(
                    &i,
                    &chased,
                    &m,
                    &mut v,
                    &HomConfig::default(),
                    &mut HomStats::default()
                )
                .unwrap()
                .holds(),
                "family {name}, source {i:?}"
            );
        }
    }
}

/// Proposition 4.11's ingredients across the grid: `→ ⊆ →_M` and `→_M`
/// is a preorder on the bounded universe.
#[test]
fn proposition_4_11_grid() {
    for &(name, text, _) in FAMILIES {
        let (mut v, m) = load(text);
        let u = Universe::new(&mut v, 2, 1, 1);
        let family = u.collect_instances(&v, &m.source).unwrap();
        let cache = ArrowMCache::with_policy(
            &m,
            &family,
            &mut v,
            &HomConfig::default(),
            CachePolicy::default(),
        )
        .unwrap();
        let n = family.len();
        for a in 0..n {
            assert!(cache.arrow(a, a, &HomConfig::default()).holds(), "family {name}: reflexivity");
            for b in 0..n {
                let mut stats = HomStats::default();
                if exists_hom(&family[a], &family[b], &HomConfig::default(), &mut stats).holds() {
                    assert!(
                        cache.arrow(a, b, &HomConfig::default()).holds(),
                        "family {name}: → ⊆ →_M"
                    );
                }
                for c in 0..n {
                    if cache.arrow(a, b, &HomConfig::default()).holds()
                        && cache.arrow(b, c, &HomConfig::default()).holds()
                    {
                        assert!(
                            cache.arrow(a, c, &HomConfig::default()).holds(),
                            "family {name}: transitivity"
                        );
                    }
                }
            }
        }
    }
}

/// Theorem 5.1 + Theorem 4.13 across every full family: synthesis
/// succeeds and the output verifies as a maximum extended recovery.
#[test]
fn theorem_5_1_grid() {
    for &(name, text, full) in FAMILIES {
        if !full {
            continue;
        }
        let (mut v, m) = load(text);
        let rec = maximum_extended_recovery_full(&m, &mut v, &HomConfig::default())
            .unwrap_or_else(|e| panic!("family {name}: synthesis failed: {e}"));
        assert!(!rec.uses_constant_guards(), "family {name}: Thm 5.1 language");
        let u = Universe::new(&mut v, 1, 1, 2);
        let verdict = check_maximum_extended_recovery(
            &m,
            &rec,
            &u,
            &mut v,
            &HomConfig::default(),
            &mut HomStats::default(),
        )
        .unwrap();
        assert!(
            verdict.holds(),
            "family {name}: {verdict:?}\nrecovery:\n{}",
            printer::mapping(&v, &rec)
        );
    }
}

/// Lemma 4.12 across the grid: `e(M) ∘ e(M*) = →_M` for the canonical
/// recovery, on the bounded universe.
#[test]
fn lemma_4_12_grid() {
    for &(name, text, _) in FAMILIES {
        let (mut v, m) = load(text);
        let u = Universe::new(&mut v, 2, 1, 1);
        assert!(
            rde_core::mstar::check_lemma_4_12(
                &m,
                &u,
                &mut v,
                &HomConfig::default(),
                &mut HomStats::default()
            )
            .unwrap()
            .holds(),
            "family {name}"
        );
    }
}

/// Theorem 6.4 forward direction across extended-invertible families:
/// reverse certain answers through a chase-inverse equal `q(I)↓`.
#[test]
fn theorem_6_4_grid() {
    // (mapping, chase-inverse, source query) triples for the
    // extended-invertible members of the grid.
    let cases = [
        (
            "source: P/2\ntarget: Pp/2\nP(x,y) -> Pp(x,y)",
            "source: Pp/2\ntarget: P/2\nPp(x,y) -> P(x,y)",
            "q(x, y) :- P(x, y)",
        ),
        (
            "source: P/2\ntarget: Pp/2\nP(x,y) -> Pp(y,x)",
            "source: Pp/2\ntarget: P/2\nPp(x,y) -> P(y,x)",
            "q(x) :- P(x, y)",
        ),
        (
            "source: P/2\ntarget: Q/2\nP(x,y) -> exists z . Q(x,z) & Q(z,y)",
            "source: Q/2\ntarget: P/2\nQ(x,z) & Q(z,y) -> P(x,y)",
            "q(x, z) :- P(x, y) & P(y, z)",
        ),
    ];
    for (m_text, rev_text, q_text) in cases {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, m_text).unwrap();
        let rev = parse_mapping(&mut v, rev_text).unwrap();
        let q = rde_query::ConjunctiveQuery::parse(&mut v, q_text).unwrap();
        let u = Universe::new(&mut v, 2, 1, 2);
        for i in u.instances(&v, &m.source).unwrap() {
            let direct = rde_query::evaluate_null_free(&q, &i);
            let reversed = rde_query::reverse_certain_answers(
                &q,
                &i,
                &m,
                &rev,
                &mut v,
                &rde_chase::DisjunctiveChaseOptions::default(),
            )
            .unwrap();
            assert_eq!(direct, reversed, "mapping {m_text}, source {i:?}");
        }
    }
}

/// The less-lossy order of Section 6.3 is consistent with the loss
/// censuses across comparable grid members (same source schema).
#[test]
fn section_6_3_order_is_consistent_with_censuses() {
    let comparable = [
        (
            "source: P/2\ntarget: Pp/2\nP(x,y) -> Pp(x,y)",
            "source: P/2\ntarget: Q/1\nP(x,y) -> Q(x)",
        ),
        (
            "source: A/1, B/1\ntarget: R/1, TA/1, TB/1\nA(x) -> R(x) & TA(x)\nB(x) -> R(x) & TB(x)",
            "source: A/1, B/1\ntarget: R/1\nA(x) -> R(x)\nB(x) -> R(x)",
        ),
    ];
    for (less_text, more_text) in comparable {
        let mut v = Vocabulary::new();
        let m_less = parse_mapping(&mut v, less_text).unwrap();
        let m_more = parse_mapping(&mut v, more_text).unwrap();
        let u = Universe::new(&mut v, 2, 1, 1);
        let cmp = rde_core::compare::compare_lossiness(
            &m_less,
            &m_more,
            &u,
            &mut v,
            &HomConfig::default(),
            &mut HomStats::default(),
        )
        .unwrap();
        assert_eq!(cmp, rde_core::compare::Comparison::StrictlyLessLossy, "{less_text}");
        let loss_less = information_loss(
            &m_less,
            &u,
            &mut v,
            0,
            &HomConfig::default(),
            &mut HomStats::default(),
        )
        .unwrap()
        .lost_pairs;
        let loss_more = information_loss(
            &m_more,
            &u,
            &mut v,
            0,
            &HomConfig::default(),
            &mut HomStats::default(),
        )
        .unwrap()
        .lost_pairs;
        assert!(loss_less < loss_more, "census order must agree ({loss_less} < {loss_more})");
    }
}

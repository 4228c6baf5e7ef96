//! Ground baselines vs extended notions, side by side — the paper's
//! central narrative (Sections 1, 3.1, 4.2) as executable comparisons.

use rde_chase::{chase_mapping, ChaseOptions};
use rde_core::ground::{check_subset_property, ground_information_loss, is_witness_solution};
use rde_core::invertibility::{check_homomorphism_property, BoundedVerdict};
use rde_core::loss::information_loss;
use rde_core::Universe;
use rde_deps::{parse_mapping, SchemaMapping};
use rde_hom::{HomConfig, HomStats};
use rde_model::{Instance, Vocabulary};

const FAMILIES: &[(&str, &str)] = &[
    ("copy", "source: P/2\ntarget: Pp/2\nP(x,y) -> Pp(x,y)"),
    ("union", "source: A/1, B/1\ntarget: R/1\nA(x) -> R(x)\nB(x) -> R(x)"),
    ("projection", "source: P/2\ntarget: Q/1\nP(x,y) -> Q(x)"),
    ("two-step", "source: P/2\ntarget: Q/2\nP(x,y) -> exists z . Q(x,z) & Q(z,y)"),
    (
        "cross-null",
        "source: P/1, Q/1\ntarget: R/2\nP(x) -> exists y . R(x, y)\nQ(y) -> exists x . R(x, y)",
    ),
];

/// No budget: every check below runs to completion.
fn unbounded() -> (HomConfig, HomStats) {
    (HomConfig::default(), HomStats::default())
}

fn load(text: &str) -> (Vocabulary, SchemaMapping) {
    let mut v = Vocabulary::new();
    let m = parse_mapping(&mut v, text).unwrap();
    (v, m)
}

/// Theorem 3.15(1), observed: the homomorphism property (extended
/// invertibility) implies the subset property (invertibility) — on
/// every family, if the extended check passes so does the ground one,
/// and any family failing the ground check also fails the extended one.
#[test]
fn homomorphism_property_implies_subset_property() {
    for &(name, text) in FAMILIES {
        let (mut v, m) = load(text);
        let (config, mut stats) = unbounded();
        let u = Universe::new(&mut v, 2, 1, 2);
        let extended_ok = check_homomorphism_property(&m, &u, &mut v).unwrap().holds();
        let ground_ok = check_subset_property(&m, &u, &mut v, &config, &mut stats).unwrap().holds();
        if extended_ok {
            assert!(ground_ok, "family {name}: Thm 3.15(1) violated within bound");
        }
        if !ground_ok {
            assert!(!extended_ok, "family {name}: contrapositive violated");
        }
    }
}

/// The gap between the two notions is real and located exactly where
/// the paper says: the cross-null family passes the ground check but
/// fails the extended one.
#[test]
fn cross_null_family_separates_the_notions() {
    let (mut v, m) = load(FAMILIES[4].1);
    let (config, mut stats) = unbounded();
    let u = Universe::new(&mut v, 2, 1, 2);
    assert!(check_subset_property(&m, &u, &mut v, &config, &mut stats).unwrap().holds());
    assert!(!check_homomorphism_property(&m, &u, &mut v).unwrap().holds());
}

/// Ground information loss is bounded by the all-instance loss on
/// matching universes: every ground lost pair is also an extended lost
/// pair (`Id ⊆ →` and `→_{M,g} ⊆ →_M` on ground instances).
#[test]
fn ground_loss_embeds_into_extended_loss() {
    for &(name, text) in FAMILIES {
        let (mut v, m) = load(text);
        let (config, mut stats) = unbounded();
        let u = Universe::new(&mut v, 2, 1, 1);
        let ground =
            ground_information_loss(&m, &u, &mut v, usize::MAX, &config, &mut stats).unwrap();
        let extended = information_loss(&m, &u, &mut v, usize::MAX, &config, &mut stats).unwrap();
        assert!(
            ground.lost_pairs <= extended.lost_pairs,
            "family {name}: ground loss {} > extended loss {}",
            ground.lost_pairs,
            extended.lost_pairs
        );
        // Each ground example reappears among the extended examples.
        for pair in &ground.examples {
            assert!(
                extended.examples.contains(pair),
                "family {name}: ground lost pair missing from extended census"
            );
        }
    }
}

/// Witness solutions: on ground candidate families the chase is a
/// witness solution for the copy mapping; adding null candidates kills
/// witnesses for the two-step mapping (Prop 4.2's phenomenon) while the
/// copy mapping's witnesses survive.
#[test]
fn witnesses_die_with_nulls_where_the_paper_says() {
    // Copy: witnesses survive nulls.
    let (mut v, copy) = load(FAMILIES[0].1);
    let u = Universe::new(&mut v, 2, 1, 2);
    let candidates: Vec<Instance> = u.collect_instances(&v, &copy.source).unwrap();
    let source = candidates.iter().find(|i| i.is_ground() && i.len() == 1).unwrap().clone();
    let chase = chase_mapping(&source, &copy, &mut v, &ChaseOptions::default()).unwrap();
    let (cfg, mut st) = (HomConfig::default(), HomStats::default());
    assert!(is_witness_solution(&copy, &chase, &source, &candidates, &mut v, &cfg, &mut st)
        .unwrap()
        .holds());

    // Two-step: the chase of the paper's instance is NOT a witness once
    // sources with its nulls are admitted as candidates.
    let (mut v, two_step) = load(FAMILIES[3].1);
    let source = rde_model::parse::parse_instance(&mut v, "P(0, 1)\nP(1, 0)").unwrap();
    let chase = chase_mapping(&source, &two_step, &mut v, &ChaseOptions::default()).unwrap();
    // Ground-only candidates: the chase IS a witness solution.
    let ground_univ = Universe::new(&mut v, 2, 0, 2);
    let mut ground_candidates: Vec<Instance> =
        ground_univ.ground_instances(&v, &two_step.source).unwrap().collect();
    ground_candidates.push(source.clone());
    assert!(
        is_witness_solution(&two_step, &chase, &source, &ground_candidates, &mut v, &cfg, &mut st)
            .unwrap()
            .holds(),
        "ground candidates cannot refute the chase"
    );
    // Add candidates over the chase's own nulls: witness refuted.
    let p = v.find_relation("P").unwrap();
    let mut null_candidates = ground_candidates.clone();
    let adom = chase.active_domain();
    for &a in &adom {
        for &b in &adom {
            null_candidates.push([rde_model::Fact::new(p, vec![a, b])].into_iter().collect());
        }
    }
    assert!(
        is_witness_solution(&two_step, &chase, &source, &null_candidates, &mut v, &cfg, &mut st)
            .unwrap()
            .fails(),
        "null-mentioning candidates must refute the witness (Prop 4.2)"
    );
}

/// Maximum extended recoveries exist for every family (Theorem 4.10's
/// promise, realized syntactically where the synthesizer applies and
/// semantically via M* everywhere): Lemma 4.12 holds on every family.
#[test]
fn lemma_4_12_holds_on_every_family() {
    for &(name, text) in FAMILIES {
        let (mut v, m) = load(text);
        let u = Universe::new(&mut v, 2, 1, 1);
        let (config, mut stats) = unbounded();
        let verdict = rde_core::mstar::check_lemma_4_12(&m, &u, &mut v, &config, &mut stats);
        assert!(verdict.unwrap().holds(), "family {name}");
    }
}

/// The semantic extended-inverse check agrees with the chase-inverse
/// characterization on the two-step family (Theorem 3.17 meets
/// Proposition 4.16).
#[test]
fn semantic_and_chase_characterizations_agree() {
    let (mut v, m) = load(FAMILIES[3].1);
    let minv =
        parse_mapping(&mut v, "source: Q/2\ntarget: P/2\nQ(x,z) & Q(z,y) -> P(x,y)").unwrap();
    let u = Universe::new(&mut v, 1, 1, 1);
    // Chase-inverse on the universe...
    let family = u.collect_instances(&v, &m.source).unwrap();
    let (config, mut stats) = unbounded();
    let cex = rde_core::chase_inverse::find_chase_inverse_counterexample(
        &m,
        &minv,
        family.iter(),
        &mut v,
        &config,
        &mut stats,
    )
    .unwrap();
    assert_eq!(cex, BoundedVerdict::HoldsWithinBound);
    // ...and semantically an extended inverse on the same universe.
    let verdict = rde_core::recovery::check_extended_inverse_semantically(
        &m, &minv, &u, &mut v, &config, &mut stats,
    )
    .unwrap();
    assert!(verdict.holds());
}

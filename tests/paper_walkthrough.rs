//! Integration test: the paper's running examples exercised end to end
//! across all crates (model → deps → chase → hom → core → query).

use rde_chase::{ChaseOptions, DisjunctiveChaseOptions};
use rde_hom::{HomConfig, HomStats};
use rde_model::parse::parse_instance;
use rde_model::{Instance, Vocabulary};
use rde_query::{evaluate_null_free, reverse_certain_answers, ConjunctiveQuery};
use reverse_data_exchange::core::invertibility::BoundedVerdict;
use reverse_data_exchange::core::quasi_inverse::maximum_extended_recovery_full;
use reverse_data_exchange::core::Universe;
use reverse_data_exchange::prelude::*;

/// Example 1.1 precisely: I = {P(a,b,c)}, U = {Q(a,b), R(b,c)},
/// V = {P(a,b,Z), P(X,b,c)} with Z, X nulls.
#[test]
fn example_1_1_full_pipeline() {
    let mut vocab = Vocabulary::new();
    let m = parse_mapping(&mut vocab, "source: P/3\ntarget: Q/2, R/2\nP(x,y,z) -> Q(x,y) & R(y,z)")
        .unwrap();
    let m_prime = parse_mapping(
        &mut vocab,
        "source: Q/2, R/2\ntarget: P/3\nQ(x,y) -> exists z . P(x,y,z)\nR(y,z) -> exists x . P(x,y,z)",
    )
    .unwrap();
    let i = parse_instance(&mut vocab, "P(a,b,c)").unwrap();
    let u = chase(&i, &m.dependencies, &mut vocab, &ChaseOptions::default())
        .unwrap()
        .instance
        .restrict_to(&m.target);
    let expected_u = parse_instance(&mut vocab, "Q(a,b)\nR(b,c)").unwrap();
    assert_eq!(u, expected_u);

    let v = chase(&u, &m_prime.dependencies, &mut vocab, &ChaseOptions::default())
        .unwrap()
        .instance
        .restrict_to(&m.source);
    assert_eq!(v.len(), 2);
    assert_eq!(v.nulls().len(), 2);
    // V is hom-equivalent to the instance the paper writes down.
    let paper_v = parse_instance(&mut vocab, "P(a, b, ?zz)\nP(?xx, b, c)").unwrap();
    assert!(hom_equivalent(&v, &paper_v));

    // Example 3.3 layered on top: U is an extended solution for V but
    // not a solution.
    assert!(!reverse_data_exchange::core::semantics::is_solution(&v, &u, &m));
    assert!(reverse_data_exchange::core::extended::is_extended_solution(
        &v,
        &u,
        &m,
        &mut vocab,
        &HomConfig::default(),
        &mut HomStats::default()
    )
    .unwrap()
    .holds());
}

/// The union mapping across the stack: invertibility refutation,
/// synthesized recovery, reverse exchange, certain answers.
#[test]
fn union_mapping_full_pipeline() {
    let mut vocab = Vocabulary::new();
    let m = parse_mapping(&mut vocab, "source: P/1, Q/1\ntarget: R/1\nP(x) -> R(x)\nQ(x) -> R(x)")
        .unwrap();

    // Not extended-invertible.
    let universe = Universe::new(&mut vocab, 1, 1, 2);
    let verdict = reverse_data_exchange::core::invertibility::check_homomorphism_property(
        &m, &universe, &mut vocab,
    )
    .unwrap();
    assert!(matches!(verdict, BoundedVerdict::Counterexample { .. }));

    // Synthesize the maximum extended recovery and verify Thm 4.13.
    let rec = maximum_extended_recovery_full(&m, &mut vocab, &HomConfig::default()).unwrap();
    assert_eq!(rec.dependencies.len(), 1);
    assert_eq!(rec.dependencies[0].disjuncts.len(), 2);
    let verdict = reverse_data_exchange::core::recovery::check_maximum_extended_recovery(
        &m,
        &rec,
        &universe,
        &mut vocab,
        &HomConfig::default(),
        &mut HomStats::default(),
    )
    .unwrap();
    assert!(verdict.holds());

    // Reverse exchange branches into the two explanations.
    let i = parse_instance(&mut vocab, "P(alice)").unwrap();
    let u = chase(&i, &m.dependencies, &mut vocab, &ChaseOptions::default())
        .unwrap()
        .instance
        .restrict_to(&m.target);
    let leaves =
        disjunctive_chase(&u, &rec.dependencies, &mut vocab, &DisjunctiveChaseOptions::default())
            .unwrap()
            .leaves;
    let sources: Vec<Instance> = leaves.iter().map(|l| l.restrict_to(&m.source)).collect();
    assert_eq!(sources.len(), 2);

    // Certain answers agree with intersection semantics: only the
    // Contacts-level knowledge survives.
    let q = ConjunctiveQuery::parse(&mut vocab, "q(x) :- P(x)").unwrap();
    let certain =
        reverse_certain_answers(&q, &i, &m, &rec, &mut vocab, &DisjunctiveChaseOptions::default())
            .unwrap();
    assert!(certain.is_empty(), "P-membership is not certain after the union");
}

/// Theorem 3.15(2) across the stack: invertible (ground baseline) but
/// not extended-invertible.
#[test]
fn theorem_3_15_part_2_pipeline() {
    let mut vocab = Vocabulary::new();
    let m = parse_mapping(
        &mut vocab,
        "source: P/1, Q/1\ntarget: R/2\nP(x) -> exists y . R(x, y)\nQ(y) -> exists x . R(x, y)",
    )
    .unwrap();
    let m_inv = parse_mapping(
        &mut vocab,
        "source: R/2\ntarget: P/1, Q/1\nR(x, y) & Constant(x) -> P(x)\nR(x, y) & Constant(y) -> Q(y)",
    )
    .unwrap();
    // Classical inverse: M ∘ M′ = Id on ground instances.
    let universe = Universe::new(&mut vocab, 2, 1, 1);
    let verdict = reverse_data_exchange::core::ground::check_inverse(
        &m,
        &m_inv,
        &universe,
        &mut vocab,
        &HomConfig::default(),
        &mut HomStats::default(),
    )
    .unwrap();
    assert!(verdict.holds(), "M′ is an inverse on ground instances: {verdict:?}");
    // But not extended-invertible (null counterexample exists).
    let verdict = reverse_data_exchange::core::invertibility::check_homomorphism_property(
        &m, &universe, &mut vocab,
    )
    .unwrap();
    assert!(!verdict.holds());
}

/// Reverse query answering with a synthesized recovery: Theorem 6.5's
/// procedure cross-checked against per-world evaluation.
#[test]
fn theorem_6_5_with_synthesized_recovery() {
    let mut vocab = Vocabulary::new();
    let m = parse_mapping(
        &mut vocab,
        "source: Customer/1, Supplier/1\ntarget: Contacts/1\n\
         Customer(x) -> Contacts(x)\nSupplier(x) -> Contacts(x)",
    )
    .unwrap();
    let rec = maximum_extended_recovery_full(&m, &mut vocab, &HomConfig::default()).unwrap();
    let i = parse_instance(&mut vocab, "Customer(acme)\nSupplier(acme)\nCustomer(globex)").unwrap();

    // A query every recovered world satisfies: is acme a contact at all
    // (customer or supplier)? Expressible on the source only via both
    // worlds — test the intersection logic with the Customer query.
    let q = ConjunctiveQuery::parse(&mut vocab, "q(x) :- Customer(x)").unwrap();
    let certain =
        reverse_certain_answers(&q, &i, &m, &rec, &mut vocab, &DisjunctiveChaseOptions::default())
            .unwrap();
    // Manual cross-check: intersect q over all recovered worlds.
    let u = chase(&i, &m.dependencies, &mut vocab, &ChaseOptions::default())
        .unwrap()
        .instance
        .restrict_to(&m.target);
    let leaves =
        disjunctive_chase(&u, &rec.dependencies, &mut vocab, &DisjunctiveChaseOptions::default())
            .unwrap()
            .leaves;
    let worlds: Vec<Instance> = leaves.iter().map(|l| l.restrict_to(&m.source)).collect();
    let manual = rde_query::certain_answers_over(&q, worlds.iter());
    assert_eq!(certain, manual);
    // And no Customer fact is certain (each could have been a Supplier).
    assert!(certain.is_empty());

    // Sanity: on the original instance the query does have answers.
    assert_eq!(evaluate_null_free(&q, &i).len(), 2);
}

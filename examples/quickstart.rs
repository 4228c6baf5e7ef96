//! Quickstart: the paper's Example 1.1, end to end.
//!
//! A source relation `P(emp, dept, mgr)` is decomposed into
//! `Q(emp, dept)` and `R(dept, mgr)`. We perform the forward exchange
//! with the chase, lose the source, then perform *reverse* data
//! exchange with the natural reverse mapping — and land on a source
//! instance containing labeled nulls, exactly the situation the PODS
//! 2009 framework is built for. Finally we verify, using the library's
//! bounded checkers, that the reverse mapping is a maximum extended
//! recovery (Theorem 4.13).
//!
//! Run with: `cargo run --example quickstart`

use rde_chase::{ChaseOptions, DisjunctiveChaseOptions};
use rde_hom::{HomConfig, HomStats};
use rde_model::{display, parse::parse_instance};
use reverse_data_exchange::core::recovery::check_maximum_extended_recovery;
use reverse_data_exchange::core::Universe;
use reverse_data_exchange::prelude::*;

fn main() {
    let mut vocab = Vocabulary::new();

    // M: P(x, y, z) -> Q(x, y) & R(y, z)      (Example 1.1)
    let mapping =
        parse_mapping(&mut vocab, "source: P/3\ntarget: Q/2, R/2\nP(x, y, z) -> Q(x, y) & R(y, z)")
            .expect("valid mapping");

    // M': Q(x, y) -> ∃z P(x, y, z);  R(y, z) -> ∃x P(x, y, z)
    let reverse = parse_mapping(
        &mut vocab,
        "source: Q/2, R/2\ntarget: P/3\n\
         Q(x, y) -> exists z . P(x, y, z)\n\
         R(y, z) -> exists x . P(x, y, z)",
    )
    .expect("valid reverse mapping");

    let source = parse_instance(&mut vocab, "P(ada, eng, grace)").expect("valid instance");
    println!("source I:\n{}", display::instance(&vocab, &source));

    // Forward exchange: U = chase_M(I) = {Q(ada, eng), R(eng, grace)}.
    let u = chase(&source, &mapping.dependencies, &mut vocab, &ChaseOptions::default())
        .expect("chase terminates")
        .instance
        .restrict_to(&mapping.target);
    println!("exchanged U = chase_M(I):\n{}", display::instance(&vocab, &u));

    // Reverse exchange: V = chase_M'(U) — the canonical recovered
    // source. It is NOT ground: V = {P(ada, eng, Z), P(X, eng, grace)}.
    let v = chase(&u, &reverse.dependencies, &mut vocab, &ChaseOptions::default())
        .expect("reverse chase terminates")
        .instance
        .restrict_to(&mapping.source);
    println!("recovered V = chase_M'(U):\n{}", display::instance(&vocab, &v));
    assert!(!v.is_ground(), "reverse exchange produces labeled nulls (the paper's point)");

    // The recovered instance is a sound approximation: V → I.
    assert!(exists_hom(&v, &source), "V maps homomorphically into the original source");
    // It is not equivalent — the decomposition lost the join.
    assert!(!hom_equivalent(&v, &source));

    // The disjunctive-chase view (trivial here: no disjunctions, 1 leaf).
    let leaves = disjunctive_chase(
        &u,
        &reverse.dependencies,
        &mut vocab,
        &DisjunctiveChaseOptions::default(),
    )
    .expect("disjunctive chase terminates")
    .leaves;
    assert_eq!(leaves.len(), 1);

    // M' is a maximum extended recovery of M: e(M) ∘ e(M') = →_M,
    // verified exhaustively on a bounded universe (Theorem 4.13).
    let universe = Universe::new(&mut vocab, 2, 1, 1);
    let verdict = check_maximum_extended_recovery(
        &mapping,
        &reverse,
        &universe,
        &mut vocab,
        &HomConfig::default(),
        &mut HomStats::default(),
    )
    .expect("check runs");
    assert!(verdict.holds(), "M' is a maximum extended recovery: {verdict:?}");
    println!("verified: M' is a maximum extended recovery of M (bounded, Thm 4.13)");
}

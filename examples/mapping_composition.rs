//! Composition + inverse: the schema-evolution workflow of Section 1.
//!
//! A ticketing system evolves twice:
//!
//!   v1: Ticket(id, assignee)
//!   v2: Open(id), Owner(id, assignee)       (split into two relations)
//!   v3: Work(id, assignee), Audit(id)       (recombined + audit trail)
//!
//! Instead of reversing hop by hop, we **compose** the two evolution
//! mappings syntactically (unfolding — sound because the steps are full
//! tgds), then **invert** the composite with the quasi-inverse
//! algorithm, obtaining a single verified maximum extended recovery
//! from v3 straight back to v1. This is exactly the combination of the
//! composition and inverse operators the paper's introduction says
//! "attain even greater power" together.
//!
//! Run with: `cargo run --example mapping_composition`

use rde_chase::{ChaseOptions, DisjunctiveChaseOptions};
use rde_deps::printer;
use rde_model::{display, parse::parse_instance};
use reverse_data_exchange::core::quasi_inverse::maximum_extended_recovery_full;
use reverse_data_exchange::core::recovery::check_maximum_extended_recovery;
use reverse_data_exchange::core::unfold::compose_mappings;
use reverse_data_exchange::core::Universe;
use reverse_data_exchange::prelude::*;

fn main() {
    let mut vocab = Vocabulary::new();
    let m12 = parse_mapping(
        &mut vocab,
        "source: Ticket/2\ntarget: Open/1, Owner/2\n\
         Ticket(id, who) -> Open(id) & Owner(id, who)",
    )
    .unwrap();
    let m23 = parse_mapping(
        &mut vocab,
        "source: Open/1, Owner/2\ntarget: Work/2, Audit/1\n\
         Owner(id, who) -> Work(id, who)\n\
         Open(id) -> Audit(id)",
    )
    .unwrap();

    // 1. Compose syntactically: one mapping from v1 to v3.
    let m13 = compose_mappings(&m12, &m23, &vocab).unwrap();
    println!("composed v1 → v3 mapping:\n{}", printer::mapping(&vocab, &m13));

    // 2. Invert the composite: one maximum extended recovery v3 → v1.
    let recovery = maximum_extended_recovery_full(&m13, &mut vocab, &HomConfig::default()).unwrap();
    println!("synthesized v3 → v1 recovery:\n{}", printer::mapping(&vocab, &recovery));

    // 3. Verify it (Theorem 4.13 criterion, bounded).
    let universe = Universe::new(&mut vocab, 2, 1, 1);
    let verdict = check_maximum_extended_recovery(
        &m13,
        &recovery,
        &universe,
        &mut vocab,
        &HomConfig::default(),
        &mut HomStats::default(),
    )
    .unwrap();
    assert!(verdict.holds(), "recovery must verify: {verdict:?}");
    println!("verified: maximum extended recovery of the composite (Thm 4.13, bounded)\n");

    // 4. Drive actual data through the evolution and back.
    let v1 = parse_instance(&mut vocab, "Ticket(t1, ada)\nTicket(t2, ?unassigned)").unwrap();
    println!("v1 tickets:\n{}", display::instance(&vocab, &v1));
    let v3 = chase(&v1, &m13.dependencies, &mut vocab, &ChaseOptions::default())
        .unwrap()
        .instance
        .restrict_to(&m13.target);
    println!("v3 after two evolutions (via the composite):\n{}", display::instance(&vocab, &v3));

    // No budget: every check runs to completion.
    let (unbounded, mut stats) = (HomConfig::default(), HomStats::default());
    let leaves = disjunctive_chase(
        &v3,
        &recovery.dependencies,
        &mut vocab,
        &DisjunctiveChaseOptions::default(),
    )
    .unwrap()
    .leaves;
    println!("recovered v1 candidates: {} world(s)", leaves.len());
    for leaf in &leaves {
        let world = leaf.restrict_to(&m13.source);
        // Every recovered world is a sound approximation of v1.
        assert!(
            exists_hom(&world, &v1, &unbounded, &mut stats).holds()
                || reverse_data_exchange::core::arrow::arrow_m(&m13, &world, &v1, &mut vocab)
                    .unwrap()
        );
    }
    let first = leaves[0].restrict_to(&m13.source);
    println!("one recovered world:\n{}", display::instance(&vocab, &first));
    assert!(
        hom_equivalent(&first, &v1, &unbounded, &mut stats).holds(),
        "this evolution is lossless: recovery is exact up to hom-equivalence"
    );
    println!("roundtrip: v1 recovered up to homomorphic equivalence ✓");
}

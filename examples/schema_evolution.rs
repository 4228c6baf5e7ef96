//! Schema evolution: chaining exchanges through instances with nulls.
//!
//! The introduction of the paper motivates the framework with schema
//! evolution: "the target instance of one data exchange can be used as
//! the source instance of another". That is exactly what the ground
//! restriction of earlier work forbade — after one exchange the data
//! contains nulls. Here a product catalog evolves through two schema
//! versions and is then recovered back across *both* hops with
//! extended inverses.
//!
//!   v1: Item(id, name, price)
//!   v2: Prod(id, name), Price(id, price)        (decomposition)
//!   v3: ProdInfo(id, name, price_tag)           (re-join, tag may be null)
//!
//! Run with: `cargo run --example schema_evolution`

use rde_chase::ChaseOptions;
use rde_hom::HomConfig;
use rde_model::{display, parse::parse_instance};
use reverse_data_exchange::core::chase_inverse::roundtrip;
use reverse_data_exchange::prelude::*;

fn main() {
    let mut vocab = Vocabulary::new();
    // No budget: every check runs to completion.
    let unbounded = HomConfig::default();

    // Hop 1: v1 → v2 (vertical decomposition).
    let m12 = parse_mapping(
        &mut vocab,
        "source: Item/3\ntarget: Prod/2, Price/2\n\
         Item(id, name, price) -> Prod(id, name) & Price(id, price)",
    )
    .unwrap();
    // Hop 2: v2 → v3 (re-join; unmatched parts get nulls).
    let m23 = parse_mapping(
        &mut vocab,
        "source: Prod/2, Price/2\ntarget: ProdInfo/3\n\
         Prod(id, name) -> exists p . ProdInfo(id, name, p)\n\
         Price(id, price) -> exists n . ProdInfo(id, n, price)",
    )
    .unwrap();

    let v1 = parse_instance(&mut vocab, "Item(i1, anvil, 99)\nItem(i2, rocket, 450)").unwrap();
    println!("v1 catalog:\n{}", display::instance(&vocab, &v1));

    // Exchange v1 → v2. The result is ground here...
    let v2 = chase(&v1, &m12.dependencies, &mut vocab, &ChaseOptions::default())
        .unwrap()
        .instance
        .restrict_to(&m12.target);
    println!("v2 catalog:\n{}", display::instance(&vocab, &v2));

    // ...but exchange v2 → v3 manufactures nulls, and v3 is the SOURCE
    // of any further step: the ground-source assumption is untenable.
    let v3 = chase(&v2, &m23.dependencies, &mut vocab, &ChaseOptions::default())
        .unwrap()
        .instance
        .restrict_to(&m23.target);
    println!("v3 catalog (nulls appear):\n{}", display::instance(&vocab, &v3));
    assert!(!v3.is_ground());

    // Reverse hop 2: v3 → v2, with the natural extended inverse of m23.
    let m32 = parse_mapping(
        &mut vocab,
        "source: ProdInfo/3\ntarget: Prod/2, Price/2\n\
         ProdInfo(id, name, price) -> Prod(id, name) & Price(id, price)",
    )
    .unwrap();
    let v2_recovered = roundtrip(&m23, &m32, &v2, &mut vocab, &unbounded).unwrap();
    assert!(
        hom_equivalent(&v2, &v2_recovered),
        "hop-2 roundtrip recovers v2 up to homomorphic equivalence"
    );
    println!("hop-2 roundtrip: v2 recovered up to hom-equivalence ✓");

    // Reverse hop 1: v2 → v1.
    let m21 = parse_mapping(
        &mut vocab,
        "source: Prod/2, Price/2\ntarget: Item/3\n\
         Prod(id, name) -> exists p . Item(id, name, p)\n\
         Price(id, price) -> exists n . Item(id, n, price)",
    )
    .unwrap();
    let v1_recovered = roundtrip(&m12, &m21, &v1, &mut vocab, &unbounded).unwrap();
    println!("v1 recovered from v2:\n{}", display::instance(&vocab, &v1_recovered));
    // The decomposition loses the name↔price join: recovery is sound
    // (maps into the original) but not equivalent.
    assert!(exists_hom(&v1_recovered, &v1));
    assert!(!hom_equivalent(&v1_recovered, &v1));
    println!("hop-1 recovery is sound but lossy (the id-join was split) — as the theory predicts");

    // Full two-hop recovery: start from v3 only and walk back to v1.
    let back_to_v2 = chase(&v3, &m32.dependencies, &mut vocab, &ChaseOptions::default())
        .unwrap()
        .instance
        .restrict_to(&m32.target);
    let back_to_v1 = chase(&back_to_v2, &m21.dependencies, &mut vocab, &ChaseOptions::default())
        .unwrap()
        .instance
        .restrict_to(&m21.target);
    println!("v1 recovered across both hops:\n{}", display::instance(&vocab, &back_to_v1));
    assert!(exists_hom(&back_to_v1, &v1), "two-hop recovery is still sound");
}

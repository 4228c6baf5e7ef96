//! Extended inverses vs classical inverses (Examples 3.18 and 3.19).
//!
//! The mapping `M: P(x, y) → ∃z (Q(x, z) ∧ Q(z, y))` rewrites every
//! direct flight into a two-hop itinerary through a fresh hub. Two
//! candidate ways to undo it:
//!
//! * `M′: Q(x, z) ∧ Q(z, y) → P(x, y)` — a *chase-inverse*, hence an
//!   extended inverse (Theorem 3.17), but **not** an inverse in the
//!   classical ground sense;
//! * `M″: … ∧ Constant(x) ∧ Constant(y) → P(x, y)` — a classical
//!   inverse, but **not** an extended inverse: it loses every fact
//!   whose endpoints are nulls.
//!
//! Run with: `cargo run --example decomposition_roundtrip`

use rde_model::{display, parse::parse_instance};
use reverse_data_exchange::core::chase_inverse::{roundtrip, roundtrip_recovers};
use reverse_data_exchange::core::Universe;
use reverse_data_exchange::prelude::*;

fn main() {
    let mut vocab = Vocabulary::new();
    // No budget: every check runs to completion.
    let (unbounded, mut stats) = (HomConfig::default(), HomStats::default());
    let m = parse_mapping(
        &mut vocab,
        "source: P/2\ntarget: Q/2\nP(x, y) -> exists z . Q(x, z) & Q(z, y)",
    )
    .unwrap();
    let m_prime =
        parse_mapping(&mut vocab, "source: Q/2\ntarget: P/2\nQ(x, z) & Q(z, y) -> P(x, y)")
            .unwrap();
    let m_dprime = parse_mapping(
        &mut vocab,
        "source: Q/2\ntarget: P/2\n\
         Q(x, z) & Q(z, y) & Constant(x) & Constant(y) -> P(x, y)",
    )
    .unwrap();

    // A flight table where one endpoint is already unknown — e.g. the
    // output of an earlier data exchange.
    let flights = parse_instance(&mut vocab, "P(sfo, jfk)\nP(jfk, ?onward)").unwrap();
    println!("original flights:\n{}", display::instance(&vocab, &flights));

    // Round trip through the chase-inverse M′: recovers the original up
    // to homomorphic equivalence (Theorem 3.17)...
    let via_prime = roundtrip(&m, &m_prime, &flights, &mut vocab, &unbounded).unwrap();
    println!("recovered via M′:\n{}", display::instance(&vocab, &via_prime));
    let recovered = hom_equivalent(&flights, &via_prime, &unbounded, &mut stats);
    assert!(recovered.holds(), "M′ recovers up to hom-equivalence");
    // ...including the paper's fine structure: I ⊆ V and V → I.
    assert!(flights.is_subset_of(&via_prime));

    // Round trip through the classical inverse M″: the null-endpoint
    // flight evaporates (its hub never produces constant endpoints).
    let via_dprime = roundtrip(&m, &m_dprime, &flights, &mut vocab, &unbounded).unwrap();
    println!("recovered via M″:\n{}", display::instance(&vocab, &via_dprime));
    let verdict = roundtrip_recovers(&m, &m_dprime, &flights, &mut vocab, &unbounded, &mut stats);
    assert!(verdict.unwrap().fails());
    assert!(via_dprime.len() < flights.len(), "M″ drops the null-endpoint fact");

    // On all-null sources M″ recovers nothing at all (Example 3.19).
    let anonymous = parse_instance(&mut vocab, "P(?w, ?z)").unwrap();
    let lost = roundtrip(&m, &m_dprime, &anonymous, &mut vocab, &unbounded).unwrap();
    assert!(lost.is_empty());
    println!("M″ on an all-null source recovers: (nothing)");

    // M′ is a chase-inverse across a whole bounded universe of sources.
    let universe = Universe::new(&mut vocab, 2, 1, 2);
    let family = universe.collect_instances(&vocab, &m.source).unwrap();
    let cex = reverse_data_exchange::core::chase_inverse::find_chase_inverse_counterexample(
        &m,
        &m_prime,
        family.iter(),
        &mut vocab,
        &unbounded,
        &mut stats,
    )
    .unwrap();
    assert!(cex.holds(), "M′ is a chase-inverse on the whole bounded universe");
    println!(
        "verified: M′ is a chase-inverse (= extended inverse) over {} bounded sources",
        family.len()
    );
}

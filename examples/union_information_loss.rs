//! Information loss and synthesized recoveries (Sections 4–5).
//!
//! A CRM consolidation folds `Customers` and `Suppliers` into a single
//! `Contacts` relation — the paper's union mapping (Example 3.14). The
//! mapping is not extended-invertible: once merged, `Customer(c)` and
//! `Supplier(c)` are indistinguishable. This example
//!
//! 1. finds the invertibility counterexample automatically,
//! 2. quantifies the loss (`→_M \ →` census, Corollary 4.14),
//! 3. synthesizes the maximum extended recovery
//!    `Contacts(x) → Customer(x) ∨ Supplier(x)` with the quasi-inverse
//!    algorithm (Theorem 5.1), and verifies it (Theorem 4.13),
//! 4. compares the union design against a tagged design that keeps the
//!    provenance, confirming the tagged one is strictly less lossy
//!    (Definition 6.6).
//!
//! Run with: `cargo run --example union_information_loss`

use rde_deps::printer;
use rde_hom::{HomConfig, HomStats};
use rde_model::display;
use reverse_data_exchange::core::compare::{compare_lossiness, Comparison};
use reverse_data_exchange::core::invertibility::{check_homomorphism_property, BoundedVerdict};
use reverse_data_exchange::core::loss::information_loss;
use reverse_data_exchange::core::quasi_inverse::maximum_extended_recovery_full;
use reverse_data_exchange::core::recovery::check_maximum_extended_recovery;
use reverse_data_exchange::core::Universe;
use reverse_data_exchange::prelude::*;

fn main() {
    let mut vocab = Vocabulary::new();
    let (cfg, mut st) = (HomConfig::default(), HomStats::default()); // no budget
    let union = parse_mapping(
        &mut vocab,
        "source: Customer/1, Supplier/1\ntarget: Contacts/1\n\
         Customer(x) -> Contacts(x)\n\
         Supplier(x) -> Contacts(x)",
    )
    .unwrap();

    // 1. Not extended-invertible — the checker produces the witness.
    let universe = Universe::new(&mut vocab, 1, 1, 2);
    match check_homomorphism_property(&union, &universe, &mut vocab).unwrap() {
        BoundedVerdict::Counterexample { i1, i2 } => {
            println!(
                "not extended-invertible: {} →_M {} but no homomorphism",
                display::instance_inline(&vocab, &i1),
                display::instance_inline(&vocab, &i2)
            );
        }
        other => unreachable!("the union mapping must fail, got {other:?}"),
    }

    // 2. Quantify the loss.
    let report = information_loss(&union, &universe, &mut vocab, 3, &cfg, &mut st).unwrap();
    println!(
        "information loss census: {} lost pair(s) out of {}² instances ({:.1}%)",
        report.lost_pairs,
        report.universe_size,
        100.0 * report.loss_fraction()
    );
    assert!(report.lost_pairs > 0);

    // 3. Synthesize and verify the maximum extended recovery.
    let recovery = maximum_extended_recovery_full(&union, &mut vocab, &cfg).unwrap();
    println!("synthesized maximum extended recovery:\n{}", printer::mapping(&vocab, &recovery));
    let verdict =
        check_maximum_extended_recovery(&union, &recovery, &universe, &mut vocab, &cfg, &mut st)
            .unwrap();
    assert!(verdict.holds(), "synthesized recovery must verify: {verdict:?}");
    println!("verified: e(M) ∘ e(M') = →_M on the bounded universe (Thm 4.13)");

    // 4. The provenance-preserving design is strictly less lossy.
    let tagged = parse_mapping(
        &mut vocab,
        "source: Customer/1, Supplier/1\ntarget: Contacts/1, IsCust/1, IsSupp/1\n\
         Customer(x) -> Contacts(x) & IsCust(x)\n\
         Supplier(x) -> Contacts(x) & IsSupp(x)",
    )
    .unwrap();
    let cmp = compare_lossiness(&tagged, &union, &universe, &mut vocab, &cfg, &mut st).unwrap();
    assert_eq!(cmp, Comparison::StrictlyLessLossy);
    println!("design comparison: the tagged mapping is strictly less lossy than the union mapping");
    let tagged_loss = information_loss(&tagged, &universe, &mut vocab, 0, &cfg, &mut st).unwrap();
    println!(
        "tagged design loss: {} lost pair(s) (lossless within bound: {})",
        tagged_loss.lost_pairs,
        tagged_loss.is_lossless_within_bound()
    );
}

//! Quantitative information-loss census (Section 4 of the paper).
//!
//! The paper's headline application of maximum extended recoveries is
//! measuring "the amount of information loss embodied in a schema
//! mapping" as the relation `→_M \ →` (Definition 4.5, Corollary 4.14).
//! This binary regenerates that measurement as a table: for each
//! canonical mapping family and bounded universe, the number of
//! instance pairs `M` can no longer distinguish, absolutely and as a
//! fraction of all pairs. The ordering of the rows (copy < tagged-union
//! < decomposition < union < projection, roughly) is the quantitative
//! shadow of the "less lossy" order of Section 6.3.
//!
//! Usage: `cargo run -p rde-bench --bin loss_census`

use rde_core::loss::information_loss;
use rde_core::Universe;
use rde_deps::parse_mapping;
use rde_model::Vocabulary;

struct FamilySpec {
    name: &'static str,
    text: &'static str,
}

const FAMILIES: &[FamilySpec] = &[
    FamilySpec { name: "copy", text: "source: P/2\ntarget: Pp/2\nP(x,y) -> Pp(x,y)" },
    FamilySpec {
        name: "tagged-union",
        text:
            "source: A/1, B/1\ntarget: R/1, TA/1, TB/1\nA(x) -> R(x) & TA(x)\nB(x) -> R(x) & TB(x)",
    },
    FamilySpec {
        name: "two-step",
        text: "source: P/2\ntarget: Q/2\nP(x,y) -> exists z . Q(x,z) & Q(z,y)",
    },
    FamilySpec {
        name: "componentwise",
        text:
            "source: P/2\ntarget: Pp/2\nP(x,y) -> exists z . Pp(x,z)\nP(x,y) -> exists u . Pp(u,y)",
    },
    FamilySpec { name: "union", text: "source: A/1, B/1\ntarget: R/1\nA(x) -> R(x)\nB(x) -> R(x)" },
    FamilySpec { name: "projection", text: "source: P/2\ntarget: Q/1\nP(x,y) -> Q(x)" },
];

fn main() {
    println!("information loss census: →_M \\ →  (Definition 4.5 / Corollary 4.14)");
    println!("{:-<86}", "");
    println!(
        "{:<14} {:<18} {:>9} {:>10} {:>9} {:>9} {:>10}",
        "mapping", "universe", "instances", "→_M pairs", "→ pairs", "lost", "loss %"
    );
    println!("{:-<86}", "");
    for (consts, nulls, facts) in [(2usize, 1usize, 1usize), (2, 1, 2), (3, 1, 2)] {
        for family in FAMILIES {
            let mut vocab = Vocabulary::new();
            let mapping = parse_mapping(&mut vocab, family.text).expect("valid family mapping");
            let universe = Universe::new(&mut vocab, consts, nulls, facts);
            let report = match information_loss(&mapping, &universe, &mut vocab, 0) {
                Ok(r) => r,
                Err(e) => {
                    println!(
                        "{:<14} {:<18} (skipped: {e})",
                        family.name,
                        format!("{consts}c/{nulls}n/≤{facts}f")
                    );
                    continue;
                }
            };
            println!(
                "{:<14} {:<18} {:>9} {:>10} {:>9} {:>9} {:>9.2}%",
                family.name,
                format!("{consts}c/{nulls}n/≤{facts}f"),
                report.universe_size,
                report.arrow_m_pairs,
                report.hom_pairs,
                report.lost_pairs,
                100.0 * report.loss_fraction(),
            );
        }
        println!("{:-<86}", "");
    }
    println!(
        "lost = pairs (I1, I2) with chase(I1) → chase(I2) but I1 ↛ I2; 0 ⟺ extended-invertible"
    );
    println!("(exact within each bounded universe; counterexamples are unconditionally valid)");
}

//! Chase-inverses (Definition 3.16) and their equivalence with extended
//! inverses for tgd-specified reverse mappings (Theorem 3.17).

use rde_chase::chase;
use rde_deps::SchemaMapping;
use rde_hom::{hom_equivalent_budgeted, HomConfig, HomStats, Verdict};
use rde_model::{Instance, Vocabulary};

use crate::invertibility::BoundedVerdict;
use crate::{chase_options, CoreError};

/// One round trip of reverse data exchange:
/// `chase_{M′}(chase_M(I))`, restricted to the source schema. Both
/// chases run under `config`'s time budget and context.
///
/// `M′` may be specified by tgds or tgds with constants/inequalities
/// (the extension discussed after Theorem 3.17); it must not be
/// disjunctive — use the disjunctive chase for recoveries.
pub fn roundtrip(
    mapping: &SchemaMapping,
    reverse: &SchemaMapping,
    source: &Instance,
    vocab: &mut Vocabulary,
    config: &HomConfig,
) -> Result<Instance, CoreError> {
    let opts = chase_options(config);
    let u = rde_chase::chase_mapping(source, mapping, vocab, &opts)?;
    let back = chase(&u, &reverse.dependencies, vocab, &opts)?;
    Ok(back.instance.restrict_to(&mapping.source))
}

/// Does the round trip through `(M, M′)` recover `I` up to homomorphic
/// equivalence (the chase-inverse condition at one instance)?
pub fn roundtrip_recovers(
    mapping: &SchemaMapping,
    reverse: &SchemaMapping,
    source: &Instance,
    vocab: &mut Vocabulary,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<Verdict, CoreError> {
    let recovered = roundtrip(mapping, reverse, source, vocab, config)?;
    Ok(hom_equivalent_budgeted(source, &recovered, config, stats))
}

/// Is `M′` a chase-inverse of `M` over the given family of source
/// instances (Definition 3.16 quantifies over *all* sources; a
/// counterexample refutes unconditionally, passing the family is
/// bounded evidence)? A counterexample is the first failing source
/// paired with what its round trip recovered.
///
/// By Theorem 3.17, for `M` and `M′` specified by s-t tgds this is
/// exactly the extended-inverse condition; the extension to `M′` with
/// `Constant` guards is the one used in Example 3.19.
pub fn find_chase_inverse_counterexample<'a>(
    mapping: &SchemaMapping,
    reverse: &SchemaMapping,
    sources: impl IntoIterator<Item = &'a Instance>,
    vocab: &mut Vocabulary,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<BoundedVerdict, CoreError> {
    let mut verdict = BoundedVerdict::HoldsWithinBound;
    for i in sources {
        let recovered = roundtrip(mapping, reverse, i, vocab, config)?;
        if verdict.absorb(hom_equivalent_budgeted(i, &recovered, config, stats)) {
            return Ok(BoundedVerdict::Counterexample { i1: i.clone(), i2: recovered });
        }
    }
    Ok(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;
    use rde_deps::parse_mapping;
    use rde_model::parse::parse_instance;

    fn recovers(m: &SchemaMapping, rev: &SchemaMapping, i: &Instance, v: &mut Vocabulary) -> bool {
        let (config, mut stats) = (HomConfig::default(), HomStats::default());
        roundtrip_recovers(m, rev, i, v, &config, &mut stats).unwrap().holds()
    }

    fn counterexample<'a>(
        m: &SchemaMapping,
        rev: &SchemaMapping,
        family: impl IntoIterator<Item = &'a Instance>,
        v: &mut Vocabulary,
    ) -> BoundedVerdict {
        let (config, mut stats) = (HomConfig::default(), HomStats::default());
        find_chase_inverse_counterexample(m, rev, family, v, &config, &mut stats).unwrap()
    }

    fn two_step(v: &mut Vocabulary) -> SchemaMapping {
        parse_mapping(v, "source: P/2\ntarget: Q/2\nP(x,y) -> exists z . Q(x,z) & Q(z,y)").unwrap()
    }

    /// Example 3.18: M′ : Q(x,z) ∧ Q(z,y) → P(x,y) is a chase-inverse
    /// of P(x,y) → ∃z(Q(x,z) ∧ Q(z,y)) — hence an extended inverse.
    #[test]
    fn example_3_18_chase_inverse() {
        let mut v = Vocabulary::new();
        let m = two_step(&mut v);
        let minv =
            parse_mapping(&mut v, "source: Q/2\ntarget: P/2\nQ(x,z) & Q(z,y) -> P(x,y)").unwrap();
        // The paper's own walkthrough instance plus a bounded family.
        let i = parse_instance(&mut v, "P(a,b)\nP(b,c)\nP(a,a)").unwrap();
        assert!(recovers(&m, &minv, &i, &mut v));
        let u = Universe::new(&mut v, 2, 1, 2);
        let family = u.collect_instances(&v, &m.source).unwrap();
        let cex = counterexample(&m, &minv, family.iter(), &mut v);
        assert!(cex.holds(), "{cex:?}");
    }

    /// Example 3.18's fine structure: I ⊆ V and V → I.
    #[test]
    fn example_3_18_containment_and_retraction() {
        let mut v = Vocabulary::new();
        let m = two_step(&mut v);
        let minv =
            parse_mapping(&mut v, "source: Q/2\ntarget: P/2\nQ(x,z) & Q(z,y) -> P(x,y)").unwrap();
        let i = parse_instance(&mut v, "P(a,b)\nP(b,c)").unwrap();
        let recovered = roundtrip(&m, &minv, &i, &mut v, &HomConfig::default()).unwrap();
        assert!(i.is_subset_of(&recovered), "I ⊆ chase_M′(chase_M(I))");
        // The extra facts are of the form P(Z_ab, Z_bc) — nulls only.
        for f in recovered.facts() {
            if !i.contains(&f) {
                assert!(f.args().iter().all(|a| a.is_null()), "extra fact {f:?} must be all-null");
            }
        }
        assert!(rde_hom::exists_hom(&recovered, &i));
    }

    /// Example 3.19: the Constant-guarded inverse M″ is NOT a
    /// chase-inverse — it fails on I = {P(W, Z)} with nulls.
    #[test]
    fn example_3_19_constant_inverse_fails() {
        let mut v = Vocabulary::new();
        let m = two_step(&mut v);
        let minv2 = parse_mapping(
            &mut v,
            "source: Q/2\ntarget: P/2\nQ(x,z) & Q(z,y) & Constant(x) & Constant(y) -> P(x,y)",
        )
        .unwrap();
        let i = parse_instance(&mut v, "P(?w, ?z)").unwrap();
        let recovered = roundtrip(&m, &minv2, &i, &mut v, &HomConfig::default()).unwrap();
        assert!(recovered.is_empty(), "no constants in U ⇒ empty reverse chase");
        assert!(!recovers(&m, &minv2, &i, &mut v));
        // On ground instances M″ does recover (it is an inverse).
        let ground = parse_instance(&mut v, "P(a, b)").unwrap();
        assert!(recovers(&m, &minv2, &ground, &mut v));
    }

    /// A wrong reverse mapping is caught by the counterexample search.
    #[test]
    fn wrong_reverse_mapping_is_refuted() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/2\ntarget: Q/2\nP(x,y) -> Q(x,y)").unwrap();
        let bad = parse_mapping(&mut v, "source: Q/2\ntarget: P/2\nQ(x,y) -> P(y,x)").unwrap();
        let u = Universe::new(&mut v, 2, 0, 1);
        let family = u.collect_instances(&v, &m.source).unwrap();
        let cex = counterexample(&m, &bad, family.iter(), &mut v);
        assert!(matches!(cex, BoundedVerdict::Counterexample { .. }));
    }

    /// The copy mapping with its transposed copy-back is a chase-inverse.
    #[test]
    fn copy_mapping_roundtrip() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/2\ntarget: Pp/2\nP(x,y) -> Pp(x,y)").unwrap();
        let back = parse_mapping(&mut v, "source: Pp/2\ntarget: P/2\nPp(x,y) -> P(x,y)").unwrap();
        let u = Universe::small(&mut v);
        let family = u.collect_instances(&v, &m.source).unwrap();
        let cex = counterexample(&m, &back, family.iter(), &mut v);
        assert!(cex.holds(), "{cex:?}");
    }
}

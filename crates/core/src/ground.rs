//! Ground-instance baselines: the notions the paper generalizes.
//!
//! * the identity schema mapping `Id` and inverses `M ∘ M′ = Id`
//!   (Fagin, TODS 2007; Section 2 of the paper);
//! * the subset property characterizing invertibility (Fagin, Kolaitis,
//!   Popa, Tan, TODS 2008);
//! * witness solutions and maximum recoveries on ground instances
//!   (Arenas, Pérez, Riveros, PODS 2008; Section 4.2 of the paper),
//!   including `→_{M,g}` and the ground information loss
//!   (Definition 4.17, Proposition 4.19).
//!
//! All instances here are ground (constants only); the paper's central
//! observation is that these notions lose their good properties once
//! nulls enter the sources, which the tests of this module and
//! Proposition 4.2's experiment demonstrate side by side with the
//! extended notions.

use rde_chase::{chase_mapping, ChaseOptions};
use rde_deps::SchemaMapping;
use rde_hom::{HomConfig, HomStats, Verdict};
use rde_model::{Instance, Vocabulary};

use crate::arrow::{ArrowMCache, CachePolicy};
use crate::compose::in_composition;
use crate::invertibility::BoundedVerdict;
use crate::loss::{census, LossReport};
use crate::{CoreError, Universe};

/// The ground instances of `universe` over `mapping`'s source schema.
fn ground_family(
    mapping: &SchemaMapping,
    universe: &Universe,
    vocab: &Vocabulary,
) -> Result<Vec<Instance>, CoreError> {
    Ok(universe
        .ground_instances(vocab, &mapping.source)
        .map_err(|_| CoreError::UnsupportedMapping { required: "an enumerable source schema" })?
        .collect())
}

/// `(I₁, I₂) ∈ Id` for ground instances: `I₁ ⊆ I₂` (with the replica
/// schema identified with the source schema, as the paper does for
/// notational simplicity).
pub fn in_identity(i1: &Instance, i2: &Instance) -> bool {
    debug_assert!(i1.is_ground() && i2.is_ground(), "Id is a mapping on ground instances");
    i1.is_subset_of(i2)
}

/// Bounded inverse check (Fagin 2007): `M′` is an inverse of `M` iff
/// `M ∘ M′ = Id` as sets of pairs of **ground** instances. Verifies the
/// biconditional on every ground pair of the universe under `config`;
/// a returned pair is a genuine counterexample.
pub fn check_inverse(
    mapping: &SchemaMapping,
    reverse: &SchemaMapping,
    universe: &Universe,
    vocab: &mut Vocabulary,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<BoundedVerdict, CoreError> {
    let family = ground_family(mapping, universe, vocab)?;
    let mut verdict = BoundedVerdict::HoldsWithinBound;
    for i1 in &family {
        for i2 in &family {
            let lhs = in_composition(mapping, reverse, i1, i2, vocab, config, stats)?;
            if verdict.absorb(if in_identity(i1, i2) { lhs } else { !lhs }) {
                return Ok(BoundedVerdict::Counterexample { i1: i1.clone(), i2: i2.clone() });
            }
        }
    }
    Ok(verdict)
}

/// Bounded **subset property** check (FKPT 2008): for all ground
/// `I₁, I₂`, if `chase_M(I₁) → chase_M(I₂)` then `I₁ ⊆ I₂`. The
/// property characterizes invertibility of tgd mappings on ground
/// instances; it is the ground shadow of the homomorphism property
/// (Theorem 3.15(1) follows from the implication between them).
pub fn check_subset_property(
    mapping: &SchemaMapping,
    universe: &Universe,
    vocab: &mut Vocabulary,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<BoundedVerdict, CoreError> {
    let family = ground_family(mapping, universe, vocab)?;
    let cache = ArrowMCache::with_policy(mapping, &family, vocab, config, CachePolicy::default())?;
    let mut verdict = BoundedVerdict::HoldsWithinBound;
    'scan: for a in 0..family.len() {
        for b in 0..family.len() {
            if !family[a].is_subset_of(&family[b]) && verdict.absorb(!cache.arrow(a, b, config)) {
                let (i1, i2) = (family[a].clone(), family[b].clone());
                verdict = BoundedVerdict::Counterexample { i1, i2 };
                break 'scan;
            }
        }
    }
    *stats += cache.stats().hom;
    Ok(verdict)
}

/// Is `J` a **witness** for `I` under `M` within a family of candidate
/// sources (Arenas–Pérez–Riveros, used in Proposition 4.2): for every
/// `I′` in the family, `J ∈ Sol_M(I′)` implies `Sol_M(I) ⊆ Sol_M(I′)`.
///
/// The family may contain non-ground instances — that is exactly the
/// regime of Proposition 4.2, and the reason witnesses die there: a
/// source instance may mention `J`'s own nulls, which standard
/// satisfaction treats as rigid values.
///
/// `J ∈ Sol_M(I′)` is direct model checking. `Sol_M(I) ⊆ Sol_M(I′)`
/// reduces to `chase_M(I) ∈ Sol_M(I′)`: the chase is itself a solution
/// for `I` and maps into every solution of `I` by an
/// active-domain-preserving homomorphism, so if it is a solution for
/// `I′` then so is every solution of `I` (chase-invented nulls are
/// globally fresh, hence disjoint from `adom(I′)`).
pub fn is_witness_for(
    mapping: &SchemaMapping,
    target: &Instance,
    source: &Instance,
    candidates: &[Instance],
    vocab: &mut Vocabulary,
) -> Result<bool, CoreError> {
    let chase_i = chase_mapping(source, mapping, vocab, &ChaseOptions::default())?;
    for i_prime in candidates {
        if crate::semantics::is_solution(i_prime, target, mapping)
            && !crate::semantics::is_solution(i_prime, &chase_i, mapping)
        {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Is `J` a **witness solution** for `I` (a witness that is also a
/// solution)?
pub fn is_witness_solution(
    mapping: &SchemaMapping,
    target: &Instance,
    source: &Instance,
    candidates: &[Instance],
    vocab: &mut Vocabulary,
) -> Result<bool, CoreError> {
    if !crate::semantics::is_solution(source, target, mapping) {
        return Ok(false);
    }
    is_witness_for(mapping, target, source, candidates, vocab)
}

/// Ground information-loss census (Definition 4.17 / Proposition 4.19):
/// the pairs in `→_{M,g} \ Id` over the ground instances of the
/// universe, under `config`. On ground instances `Id` is `⊆`, and `→`
/// coincides with `⊆`.
pub fn ground_information_loss(
    mapping: &SchemaMapping,
    universe: &Universe,
    vocab: &mut Vocabulary,
    max_examples: usize,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<LossReport, CoreError> {
    let family = ground_family(mapping, universe, vocab)?;
    census(mapping, &family, vocab, max_examples, config, stats, |i1, i2, _, _| {
        Verdict::from_bool(i1.is_subset_of(i2))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rde_deps::parse_mapping;
    use rde_model::parse::parse_instance;

    /// The copy mapping's copy-back is an inverse.
    #[test]
    fn copy_back_is_an_inverse() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/2\ntarget: Pp/2\nP(x,y) -> Pp(x,y)").unwrap();
        let back = parse_mapping(&mut v, "source: Pp/2\ntarget: P/2\nPp(x,y) -> P(x,y)").unwrap();
        let u = Universe::new(&mut v, 2, 0, 1);
        let verdict =
            check_inverse(&m, &back, &u, &mut v, &HomConfig::default(), &mut HomStats::default())
                .unwrap();
        assert!(verdict.holds(), "{verdict:?}");
    }

    /// The union mapping fails the subset property (hence is not
    /// invertible), already on ground instances.
    #[test]
    fn union_mapping_fails_subset_property() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/1, Q/1\ntarget: R/1\nP(x) -> R(x)\nQ(x) -> R(x)")
            .unwrap();
        let u = Universe::new(&mut v, 1, 0, 1);
        let verdict =
            check_subset_property(&m, &u, &mut v, &HomConfig::default(), &mut HomStats::default())
                .unwrap();
        assert!(!verdict.holds());
    }

    /// Theorem 3.15(2)'s mapping passes the subset property on ground
    /// instances (it is invertible) — the extended counterexample needs
    /// nulls.
    #[test]
    fn theorem_3_15_mapping_passes_subset_property() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(
            &mut v,
            "source: P/1, Q/1\ntarget: R/2\nP(x) -> exists y . R(x, y)\nQ(y) -> exists x . R(x, y)",
        )
        .unwrap();
        let u = Universe::new(&mut v, 2, 0, 2);
        assert!(check_subset_property(
            &m,
            &u,
            &mut v,
            &HomConfig::default(),
            &mut HomStats::default()
        )
        .unwrap()
        .holds());
    }

    /// Witness solutions: for the copy mapping, the canonical chase is a
    /// witness solution for its source.
    #[test]
    fn chase_is_a_witness_solution_for_copy() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/1\ntarget: Q/1\nP(x) -> Q(x)").unwrap();
        let u = Universe::new(&mut v, 2, 1, 2);
        let candidates = u.collect_instances(&v, &m.source).unwrap();
        let i = parse_instance(&mut v, "P(u0)").unwrap();
        let j = parse_instance(&mut v, "Q(u0)").unwrap();
        assert!(is_witness_solution(&m, &j, &i, &candidates, &mut v).unwrap());
        // An overly large target is a solution but not a witness: it is
        // also a solution for bigger sources.
        let too_big = parse_instance(&mut v, "Q(u0)\nQ(u1)").unwrap();
        assert!(crate::semantics::is_solution(&i, &too_big, &m));
        assert!(!is_witness_solution(&m, &too_big, &i, &candidates, &mut v).unwrap());
    }

    /// Ground information loss of the projection mapping is nonempty and
    /// matches Proposition 4.19's characterization →_{M,g} \ Id.
    #[test]
    fn ground_loss_of_projection() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/2\ntarget: Q/1\nP(x,y) -> Q(x)").unwrap();
        let u = Universe::new(&mut v, 2, 0, 1);
        let report = ground_information_loss(
            &m,
            &u,
            &mut v,
            10,
            &HomConfig::default(),
            &mut HomStats::default(),
        )
        .unwrap();
        assert!(report.lost_pairs > 0);
        for (i1, i2) in &report.examples {
            assert!(i1.is_ground() && i2.is_ground());
            assert!(!i1.is_subset_of(i2));
            assert!(crate::arrow::arrow_m(&m, i1, i2, &mut v).unwrap());
        }
    }

    /// The copy mapping has empty ground loss.
    #[test]
    fn copy_mapping_has_no_ground_loss() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/2\ntarget: Pp/2\nP(x,y) -> Pp(x,y)").unwrap();
        let u = Universe::new(&mut v, 2, 0, 2);
        let report = ground_information_loss(
            &m,
            &u,
            &mut v,
            1,
            &HomConfig::default(),
            &mut HomStats::default(),
        )
        .unwrap();
        assert_eq!(report.lost_pairs, 0);
    }
}

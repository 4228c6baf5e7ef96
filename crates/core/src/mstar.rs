//! The canonical strong maximum extended recovery
//! `M* = {(chase_M(I), I) : I a source instance}` (Theorem 4.10) and
//! the lemmas around it.
//!
//! `M*` is a *semantic* mapping — it is not given by dependencies — but
//! its pointwise membership is decidable, which is all the theory
//! needs: Lemma 4.9 says `M* ⊆ e(M′)` for every extended recovery
//! `M′`; Lemma 4.12 says `e(M) ∘ e(M*) = →_M`; Theorem 4.10 concludes
//! that `M*` is a strong maximum extended recovery. This module decides
//! membership in `M*` and in `e(M*)`, and provides bounded checkers for
//! the lemmas.

use rde_chase::chase_mapping;
use rde_deps::SchemaMapping;
use rde_hom::{exists_hom, find_iso, HomConfig, HomStats, Verdict};
use rde_model::{Instance, Vocabulary};

use crate::arrow::{ArrowMCache, CachePolicy};
use crate::compose::leaf_maps_into;
use crate::invertibility::BoundedVerdict;
use crate::{chase_options, source_family, CoreError, Universe};

/// `(J, I) ∈ M*`: is `J` *the* canonical universal solution
/// `chase_M(I)`? The chase is deterministic only up to the choice of
/// fresh nulls, so equality is taken up to isomorphism — except on the
/// nulls of `I` itself, which must be preserved; we therefore check
/// isomorphism of the combined pairs `(I, J)` vs `(I, chase_M(I))`,
/// which pins `I`'s values in place. The isomorphism search obeys
/// `config`.
pub fn in_m_star(
    mapping: &SchemaMapping,
    target: &Instance,
    source: &Instance,
    vocab: &mut Vocabulary,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<Verdict, CoreError> {
    let canonical = chase_mapping(source, mapping, vocab, &chase_options(config))?;
    Ok(match find_iso(&source.union(target), &source.union(&canonical), config, stats) {
        Ok(iso) => Verdict::from_bool(iso.is_some()),
        Err(budget) => Verdict::Unknown { budget },
    })
}

/// `(J, I₂) ∈ e(M*) = → ∘ M* ∘ →`: there are `J′`, `I` with `J → J′`,
/// `J′ = chase_M(I)` and `I → I₂`.
///
/// By chase monotonicity the witnesses can be normalized: the pair
/// `(chase_M(I₂), I₂)` is in `M*`, and `J → chase_M(I₂)` implies
/// membership with `I = I₂`. Conversely `J → chase_M(I)` and
/// `I → I₂` give `chase_M(I) → chase_M(I₂)` (Prop 4.7), hence
/// `J → chase_M(I₂)`. So: `(J, I₂) ∈ e(M*)` iff `J → chase_M(I₂)`,
/// decided under `config`.
pub fn in_e_m_star(
    mapping: &SchemaMapping,
    target: &Instance,
    i2: &Instance,
    vocab: &mut Vocabulary,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<Verdict, CoreError> {
    let canonical = chase_mapping(i2, mapping, vocab, &chase_options(config))?;
    Ok(exists_hom(target, &canonical, config, stats))
}

/// Bounded check of Lemma 4.9: for every source `I` of the universe,
/// `(chase_M(I), I) ∈ e(M′)` — i.e. `e(M*) ⊆ e(M′)` on the canonical
/// generators. A counterexample is the first failing pair
/// `(chase_M(I), I)`; holding means `M′` passes the *strong* maximum
/// condition within the bound.
///
/// `M′` must be guard-free (tgds or disjunctive tgds), so pointwise
/// `e(M′)` membership is a single disjunctive chase.
pub fn check_lemma_4_9(
    mapping: &SchemaMapping,
    reverse: &SchemaMapping,
    universe: &Universe,
    vocab: &mut Vocabulary,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<BoundedVerdict, CoreError> {
    if !reverse.is_disjunctive_tgd_mapping() {
        return Err(CoreError::UnsupportedMapping {
            required: "a guard-free (disjunctive) tgd reverse mapping",
        });
    }
    let mut verdict = BoundedVerdict::HoldsWithinBound;
    for i in &source_family(mapping, universe, vocab)? {
        let u = chase_mapping(i, mapping, vocab, &chase_options(config))?;
        // (U, I) ∈ e(M′) iff some disjunctive-chase leaf of U maps into I.
        if verdict.absorb(leaf_maps_into(&u, reverse, i, vocab, config, stats)?) {
            return Ok(BoundedVerdict::Counterexample { i1: u, i2: i.clone() });
        }
    }
    Ok(verdict)
}

/// Bounded check of Lemma 4.12: `e(M) ∘ e(M*) = →_M` on every pair of
/// the universe, under `config`. Both sides are computed independently —
/// `(I₁, I₂) ∈ e(M) ∘ e(M*)` iff ∃ `J` with `chase(I₁) → J` and
/// `(J, I₂) ∈ e(M*)`; normalizing `J = chase(I₁)` is sound because
/// `e(M*)` is down-closed under `→` on its first argument. The sides
/// combine by Kleene logic: a definite disagreement is `Fails`.
pub fn check_lemma_4_12(
    mapping: &SchemaMapping,
    universe: &Universe,
    vocab: &mut Vocabulary,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<Verdict, CoreError> {
    let family = source_family(mapping, universe, vocab)?;
    let cache = ArrowMCache::with_policy(mapping, &family, vocab, config, CachePolicy::default())?;
    let mut verdict = Verdict::Holds;
    'scan: for a in 0..family.len() {
        for (b, i2) in family.iter().enumerate() {
            let lhs = in_e_m_star(mapping, cache.chased(a), i2, vocab, config, stats)?;
            let rhs = cache.arrow(a, b, config);
            // Kleene biconditional: (lhs → rhs) ∧ (rhs → lhs).
            verdict = verdict.and((!lhs).or(rhs)).and((!rhs).or(lhs));
            if verdict.fails() {
                break 'scan;
            }
        }
    }
    *stats += cache.stats().hom;
    Ok(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rde_chase::ChaseOptions;
    use rde_deps::parse_mapping;
    use rde_model::parse::parse_instance;

    fn member(m: &SchemaMapping, j: &Instance, i: &Instance, v: &mut Vocabulary) -> Verdict {
        in_m_star(m, j, i, v, &HomConfig::default(), &mut HomStats::default()).unwrap()
    }

    fn two_step(v: &mut Vocabulary) -> SchemaMapping {
        parse_mapping(v, "source: P/2\ntarget: Q/2\nP(x,y) -> exists z . Q(x,z) & Q(z,y)").unwrap()
    }

    #[test]
    fn m_star_membership_is_iso_invariant() {
        let mut v = Vocabulary::new();
        let m = two_step(&mut v);
        let i = parse_instance(&mut v, "P(a, b)").unwrap();
        let canonical = chase_mapping(&i, &m, &mut v, &ChaseOptions::default()).unwrap();
        assert!(member(&m, &canonical, &i, &mut v).holds());
        // A re-run invents different nulls; still in M*.
        let rerun = chase_mapping(&i, &m, &mut v, &ChaseOptions::default()).unwrap();
        assert!(member(&m, &rerun, &i, &mut v).holds());
        // A ground completion is a solution but NOT the canonical one.
        let ground = parse_instance(&mut v, "Q(a, c)\nQ(c, b)").unwrap();
        assert!(member(&m, &ground, &i, &mut v).fails());
    }

    #[test]
    fn m_star_preserves_source_nulls() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/1\ntarget: Q/1\nP(x) -> Q(x)").unwrap();
        let i = parse_instance(&mut v, "P(?w)").unwrap();
        let good = parse_instance(&mut v, "Q(?w)").unwrap();
        let bad = parse_instance(&mut v, "Q(?other)").unwrap();
        assert!(member(&m, &good, &i, &mut v).holds());
        // Q over a different null is NOT chase_M(I): the source's null
        // is pinned by the combined-pair isomorphism.
        assert!(member(&m, &bad, &i, &mut v).fails());
    }

    #[test]
    fn e_m_star_is_the_chase_hom_relation() {
        let mut v = Vocabulary::new();
        let m = two_step(&mut v);
        let i1 = parse_instance(&mut v, "P(a, b)").unwrap();
        let i2 = parse_instance(&mut v, "P(a, b)\nP(b, a)").unwrap();
        let u1 = chase_mapping(&i1, &m, &mut v, &ChaseOptions::default()).unwrap();
        let (config, mut stats) = (HomConfig::default(), HomStats::default());
        assert!(in_e_m_star(&m, &u1, &i2, &mut v, &config, &mut stats).unwrap().holds());
        let u2 = chase_mapping(&i2, &m, &mut v, &ChaseOptions::default()).unwrap();
        assert!(in_e_m_star(&m, &u2, &i1, &mut v, &config, &mut stats).unwrap().fails());
    }

    /// Lemma 4.9 in action: every extended recovery contains M*'s
    /// generators; a non-recovery does not.
    #[test]
    fn lemma_4_9_bounded() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: A/1, B/1\ntarget: R/1\nA(x) -> R(x)\nB(x) -> R(x)")
            .unwrap();
        let rec =
            parse_mapping(&mut v, "source: R/1\ntarget: A/1, B/1\nR(x) -> A(x) | B(x)").unwrap();
        let u = Universe::new(&mut v, 1, 1, 2);
        let (opts, mut st) = (HomConfig::default(), HomStats::default());
        assert!(check_lemma_4_9(&m, &rec, &u, &mut v, &opts, &mut st).unwrap().holds());
        // The A-only reverse is not an extended recovery; Lemma 4.9's
        // conclusion fails at a B-source.
        let bad = parse_mapping(&mut v, "source: R/1\ntarget: A/1, B/1\nR(x) -> A(x)").unwrap();
        let cex = check_lemma_4_9(&m, &bad, &u, &mut v, &opts, &mut st).unwrap();
        assert!(matches!(cex, BoundedVerdict::Counterexample { .. }));
    }

    #[test]
    fn lemma_4_12_bounded() {
        let mut v = Vocabulary::new();
        let m = two_step(&mut v);
        let u = Universe::new(&mut v, 2, 1, 1);
        assert!(check_lemma_4_12(&m, &u, &mut v, &HomConfig::default(), &mut HomStats::default())
            .unwrap()
            .holds());
        // Also on a lossy mapping — the lemma is unconditional on M.
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/2\ntarget: Q/1\nP(x,y) -> Q(x)").unwrap();
        let u = Universe::new(&mut v, 2, 1, 1);
        assert!(check_lemma_4_12(&m, &u, &mut v, &HomConfig::default(), &mut HomStats::default())
            .unwrap()
            .holds());
    }
}

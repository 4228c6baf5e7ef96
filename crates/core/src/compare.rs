//! Comparing schema mappings by information loss (Section 6.3).

use rde_chase::{chase_mapping, disjunctive_chase};
use rde_deps::SchemaMapping;
use rde_hom::{Exhausted, HomConfig, HomStats, Verdict};
use rde_model::{Instance, Vocabulary};

use crate::arrow::{ArrowMCache, CachePolicy};
use crate::invertibility::BoundedVerdict;
use crate::{
    chase_options, disjunctive_options, some_maps_into, source_family, CoreError, Universe,
};

/// Result of comparing `→_{M₁}` and `→_{M₂}` over a bounded universe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Comparison {
    /// `→_{M₁} = →_{M₂}` on the universe.
    EquallyLossy,
    /// `→_{M₁} ⊊ →_{M₂}` on the universe (`M₁` strictly less lossy).
    StrictlyLessLossy,
    /// `→_{M₂} ⊊ →_{M₁}` on the universe (`M₂` strictly less lossy).
    StrictlyMoreLossy,
    /// Neither contains the other on the universe.
    Incomparable {
        /// A pair in `→_{M₁} \ →_{M₂}`.
        only_in_m1: (Instance, Instance),
        /// A pair in `→_{M₂} \ →_{M₁}`.
        only_in_m2: (Instance, Instance),
    },
    /// A budgeted run could not settle enough pairs to classify the
    /// mappings; retry with a larger budget.
    Unknown {
        /// The first budget that ran out.
        budget: Exhausted,
    },
}

/// Compare two mappings over the **same source schema** (Definition 6.6)
/// by enumerating `→_{M₁}` vs `→_{M₂}` on the universe. A strict or
/// incomparable verdict is witnessed by genuine pairs; equality and
/// containment are bounded evidence.
///
/// Arrow queries run under `config`, their work accumulates into
/// `stats`. Verdicts that assert the *absence* of pairs (equality,
/// strict containment) require every pair settled; if some were cut and
/// no incomparability witness pair was completed, the honest answer is
/// [`Comparison::Unknown`].
pub fn compare_lossiness(
    m1: &SchemaMapping,
    m2: &SchemaMapping,
    universe: &Universe,
    vocab: &mut Vocabulary,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<Comparison, CoreError> {
    if m1.source != m2.source {
        return Err(CoreError::UnsupportedMapping {
            required: "two mappings over the same source schema",
        });
    }
    let family = source_family(m1, universe, vocab)?;
    let c1 = ArrowMCache::with_policy(m1, &family, vocab, config, CachePolicy::default())?;
    let c2 = ArrowMCache::with_policy(m2, &family, vocab, config, CachePolicy::default())?;
    let mut only1: Option<(Instance, Instance)> = None;
    let mut only2: Option<(Instance, Instance)> = None;
    let mut unsettled: Option<Exhausted> = None;
    for a in 0..family.len() {
        for b in 0..family.len() {
            let v1 = c1.arrow(a, b, config);
            let v2 = c2.arrow(a, b, config);
            if let (Verdict::Unknown { budget }, _) | (_, Verdict::Unknown { budget }) = (v1, v2) {
                unsettled = unsettled.or(Some(budget));
                continue;
            }
            match (v1.holds(), v2.holds()) {
                (true, false) if only1.is_none() => {
                    only1 = Some((family[a].clone(), family[b].clone()));
                }
                (false, true) if only2.is_none() => {
                    only2 = Some((family[a].clone(), family[b].clone()));
                }
                _ => {}
            }
        }
    }
    *stats += c1.stats().hom;
    *stats += c2.stats().hom;
    Ok(match (only1, only2, unsettled) {
        // Witnessed on both sides: definite even with unsettled pairs.
        (Some(p1), Some(p2), _) => Comparison::Incomparable { only_in_m1: p1, only_in_m2: p2 },
        (_, _, Some(budget)) => Comparison::Unknown { budget },
        (None, None, None) => Comparison::EquallyLossy,
        (None, Some(_), None) => Comparison::StrictlyLessLossy,
        (Some(_), None, None) => Comparison::StrictlyMoreLossy,
    })
}

/// The procedural criterion of Theorem 6.8: given maximum extended
/// recoveries `M₁′`, `M₂′` specified by disjunctive tgds,
/// `→_{M₁} ⊆ →_{M₂}` iff for every source `I` and every leaf `V₁` of
/// `chase_{M₁′}(chase_{M₁}(I))` there is a leaf `V₂` of
/// `chase_{M₂′}(chase_{M₂}(I))` with `V₂ → V₁`.
///
/// Checks the right-hand side over a family of sources under `config`;
/// a counterexample is the first `(I, V₁)` with no covering `V₂`.
#[allow(clippy::too_many_arguments)]
pub fn check_less_lossy_via_recoveries<'a>(
    m1: &SchemaMapping,
    rec1: &SchemaMapping,
    m2: &SchemaMapping,
    rec2: &SchemaMapping,
    sources: impl IntoIterator<Item = &'a Instance>,
    vocab: &mut Vocabulary,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<BoundedVerdict, CoreError> {
    let (copts, dopts) = (chase_options(config), disjunctive_options(config));
    let mut verdict = BoundedVerdict::HoldsWithinBound;
    for i in sources {
        let u1 = chase_mapping(i, m1, vocab, &copts)?;
        let k1 = disjunctive_chase(&u1, &rec1.dependencies, vocab, &dopts)?;
        let u2 = chase_mapping(i, m2, vocab, &copts)?;
        let k2 = disjunctive_chase(&u2, &rec2.dependencies, vocab, &dopts)?;
        let leaves2: Vec<Instance> = k2.leaves.iter().map(|l| l.restrict_to(&m2.source)).collect();
        for v1 in &k1.leaves {
            let v1s = v1.restrict_to(&m1.source);
            if verdict.absorb(some_maps_into(&leaves2, &v1s, config, stats)) {
                return Ok(BoundedVerdict::Counterexample { i1: i.clone(), i2: v1s });
            }
        }
    }
    Ok(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rde_deps::parse_mapping;

    /// Example 6.7: the copy mapping M₁ is strictly less lossy than the
    /// componentwise copy M₂.
    #[test]
    fn example_6_7_copy_vs_componentwise() {
        let mut v = Vocabulary::new();
        let m1 = parse_mapping(&mut v, "source: P/2\ntarget: Pp/2\nP(x,y) -> Pp(x,y)").unwrap();
        let m2 = parse_mapping(
            &mut v,
            "source: P/2\ntarget: Pp/2\nP(x,y) -> exists z . Pp(x,z)\nP(x,y) -> exists u . Pp(u,y)",
        )
        .unwrap();
        let u = Universe::new(&mut v, 2, 1, 2);
        let cmp = compare_lossiness(
            &m1,
            &m2,
            &u,
            &mut v,
            &HomConfig::default(),
            &mut HomStats::default(),
        )
        .unwrap();
        assert_eq!(cmp, Comparison::StrictlyLessLossy);
        // And symmetrically.
        let cmp = compare_lossiness(
            &m2,
            &m1,
            &u,
            &mut v,
            &HomConfig::default(),
            &mut HomStats::default(),
        )
        .unwrap();
        assert_eq!(cmp, Comparison::StrictlyMoreLossy);
    }

    #[test]
    fn a_mapping_is_as_lossy_as_itself() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/2\ntarget: Q/1\nP(x,y) -> Q(x)").unwrap();
        let u = Universe::new(&mut v, 2, 1, 1);
        assert_eq!(
            compare_lossiness(&m, &m, &u, &mut v, &HomConfig::default(), &mut HomStats::default())
                .unwrap(),
            Comparison::EquallyLossy
        );
    }

    #[test]
    fn incomparable_projections() {
        let mut v = Vocabulary::new();
        // Project to the first vs to the second column: neither refines
        // the other.
        let m1 = parse_mapping(&mut v, "source: P/2\ntarget: Q/1\nP(x,y) -> Q(x)").unwrap();
        let m2 = parse_mapping(&mut v, "source: P/2\ntarget: Q/1\nP(x,y) -> Q(y)").unwrap();
        let u = Universe::new(&mut v, 2, 0, 1);
        let cmp = compare_lossiness(
            &m1,
            &m2,
            &u,
            &mut v,
            &HomConfig::default(),
            &mut HomStats::default(),
        )
        .unwrap();
        assert!(matches!(cmp, Comparison::Incomparable { .. }), "got {cmp:?}");
    }

    #[test]
    fn different_source_schemas_are_rejected() {
        let mut v = Vocabulary::new();
        let m1 = parse_mapping(&mut v, "source: P/1\ntarget: Q/1\nP(x) -> Q(x)").unwrap();
        let m2 = parse_mapping(&mut v, "source: R/1\ntarget: Q/1\nR(x) -> Q(x)").unwrap();
        let u = Universe::small(&mut v);
        assert!(compare_lossiness(
            &m1,
            &m2,
            &u,
            &mut v,
            &HomConfig::default(),
            &mut HomStats::default()
        )
        .is_err());
    }

    /// Theorem 6.8 in action (the paper's closing example): with the
    /// shared recovery P′(x,y) → P(x,y), every leaf of M₂'s round trip
    /// is covered by M₁'s — M₁ is less lossy than M₂... note the paper
    /// states the criterion with the roles as here: for →_{M₁} ⊆ →_{M₂},
    /// every V₁-leaf is covered by a V₂-leaf.
    #[test]
    fn theorem_6_8_criterion_on_example_6_7() {
        let mut v = Vocabulary::new();
        let m1 = parse_mapping(&mut v, "source: P/2\ntarget: Pp/2\nP(x,y) -> Pp(x,y)").unwrap();
        let m2 = parse_mapping(
            &mut v,
            "source: P/2\ntarget: Pp/2\nP(x,y) -> exists z . Pp(x,z)\nP(x,y) -> exists u . Pp(u,y)",
        )
        .unwrap();
        let rec = parse_mapping(&mut v, "source: Pp/2\ntarget: P/2\nPp(x,y) -> P(x,y)").unwrap();
        let u = Universe::new(&mut v, 2, 1, 2);
        let family = u.collect_instances(&v, &m1.source).unwrap();
        let (config, mut st) = (HomConfig::default(), HomStats::default());
        // →_{M₁} ⊆ →_{M₂}: criterion holds.
        let cex = check_less_lossy_via_recoveries(
            &m1,
            &rec,
            &m2,
            &rec,
            family.iter(),
            &mut v,
            &config,
            &mut st,
        )
        .unwrap();
        assert!(cex.holds(), "{cex:?}");
        // →_{M₂} ⊆ →_{M₁} fails: some leaf of M₂'s roundtrip is not
        // covered by M₁'s.
        let cex = check_less_lossy_via_recoveries(
            &m2,
            &rec,
            &m1,
            &rec,
            family.iter(),
            &mut v,
            &config,
            &mut st,
        )
        .unwrap();
        assert!(matches!(cex, BoundedVerdict::Counterexample { .. }));
    }
}

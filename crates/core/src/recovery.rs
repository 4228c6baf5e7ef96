//! Extended recoveries and maximum extended recoveries (Section 4).

use rde_deps::SchemaMapping;
use rde_hom::{exists_hom, Exhausted, HomConfig, HomStats, Verdict};
use rde_model::{Instance, Vocabulary};

use crate::arrow::{ArrowMCache, CachePolicy};
use crate::compose::{composition_leaves, in_e_composition};
use crate::invertibility::BoundedVerdict;
use crate::{some_maps_into, source_family, CoreError, Universe};

/// Is `(I, I) ∈ e(M) ∘ e(M′)` — the extended-recovery condition at one
/// source instance (Definition 4.3)?
pub fn recovers(
    mapping: &SchemaMapping,
    reverse: &SchemaMapping,
    source: &Instance,
    vocab: &mut Vocabulary,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<Verdict, CoreError> {
    in_e_composition(mapping, reverse, source, source, vocab, config, stats)
}

/// Is `M′` an extended recovery of `M` over a family of sources? A
/// counterexample is the first pair `(I, I) ∉ e(M) ∘ e(M′)` — a genuine
/// refutation; holding is bounded evidence.
pub fn find_extended_recovery_counterexample<'a>(
    mapping: &SchemaMapping,
    reverse: &SchemaMapping,
    sources: impl IntoIterator<Item = &'a Instance>,
    vocab: &mut Vocabulary,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<BoundedVerdict, CoreError> {
    let mut verdict = BoundedVerdict::HoldsWithinBound;
    for i in sources {
        if verdict.absorb(recovers(mapping, reverse, i, vocab, config, stats)?) {
            return Ok(BoundedVerdict::Counterexample { i1: i.clone(), i2: i.clone() });
        }
    }
    Ok(verdict)
}

/// Verdict of the bounded maximum-extended-recovery check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaxRecoveryVerdict {
    /// `e(M) ∘ e(M′) = →_M` on every pair of the universe (bounded
    /// evidence for Theorem 4.13's criterion).
    HoldsWithinBound,
    /// A pair in `e(M) ∘ e(M′)` but not in `→_M`: `M′` recovers too
    /// little structure somewhere — it is not even an extended recovery,
    /// or the composition leaks (genuine refutation).
    NotContainedInArrowM {
        /// Witnessing pair.
        i1: Instance,
        /// Second component.
        i2: Instance,
    },
    /// A pair in `→_M` missing from `e(M) ∘ e(M′)`: `M′` is not
    /// maximum (genuine refutation, given Theorem 4.13).
    MissesArrowMPair {
        /// Witnessing pair.
        i1: Instance,
        /// Second component.
        i2: Instance,
    },
    /// A budgeted run left some `→_M` queries unsettled and found no
    /// definite refutation; retry with a larger budget.
    Unknown {
        /// The first budget that ran out.
        budget: Exhausted,
    },
}

impl MaxRecoveryVerdict {
    /// Did the check pass?
    pub fn holds(&self) -> bool {
        matches!(self, MaxRecoveryVerdict::HoldsWithinBound)
    }
}

/// Bounded check of Theorem 4.13: `M′` is a maximum extended recovery
/// of `M` iff `e(M) ∘ e(M′) = →_M`. Verifies the equality on every
/// pair of source instances in the universe. Both sides run under
/// `config`; unsettled pairs degrade the verdict to
/// [`MaxRecoveryVerdict::Unknown`] unless a definite refutation is
/// found first. Search work accumulates into `stats`.
pub fn check_maximum_extended_recovery(
    mapping: &SchemaMapping,
    reverse: &SchemaMapping,
    universe: &Universe,
    vocab: &mut Vocabulary,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<MaxRecoveryVerdict, CoreError> {
    let family = source_family(mapping, universe, vocab)?;
    let cache = ArrowMCache::with_policy(mapping, &family, vocab, config, CachePolicy::default())?;
    let verdict = composition_equals(mapping, reverse, &family, Some(&cache), vocab, config, stats);
    *stats += cache.stats().hom;
    verdict
}

/// Proposition 4.16 (bounded form): for an extended-invertible
/// tgd-specified `M`, being a maximum extended recovery and being an
/// extended inverse coincide; concretely, check that
/// `e(M) ∘ e(M′) = e(Id) = →` on the universe, under `config`.
pub fn check_extended_inverse_semantically(
    mapping: &SchemaMapping,
    reverse: &SchemaMapping,
    universe: &Universe,
    vocab: &mut Vocabulary,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<MaxRecoveryVerdict, CoreError> {
    let family = source_family(mapping, universe, vocab)?;
    composition_equals(mapping, reverse, &family, None, vocab, config, stats)
}

/// The scan behind both checks: compare `e(M) ∘ e(M′)` with `→_M`
/// (answered by `arrow`) or, without a cache, with `→` on every pair of
/// `family`. The right-hand side is decided first; a pair it leaves
/// unsettled is skipped. For a guard-free `M′` the left-hand side reads
/// the row's composition leaves, chased once per row on the first pair
/// that needs them.
fn composition_equals(
    mapping: &SchemaMapping,
    reverse: &SchemaMapping,
    family: &[Instance],
    arrow: Option<&ArrowMCache>,
    vocab: &mut Vocabulary,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<MaxRecoveryVerdict, CoreError> {
    let leaves_per_row = mapping.is_tgd_mapping() && reverse.is_disjunctive_tgd_mapping();
    let mut unsettled: Option<Exhausted> = None;
    for (a, i1) in family.iter().enumerate() {
        let mut row_leaves: Option<Vec<Instance>> = None;
        for (b, i2) in family.iter().enumerate() {
            let rhs = match arrow {
                Some(cache) => cache.arrow(a, b, config),
                None => exists_hom(i1, i2, config, stats),
            };
            let lhs = match rhs {
                Verdict::Unknown { budget } => Verdict::Unknown { budget },
                _ if leaves_per_row => {
                    if row_leaves.is_none() {
                        row_leaves = Some(composition_leaves(mapping, reverse, i1, vocab, config)?);
                    }
                    some_maps_into(row_leaves.as_deref().unwrap_or_default(), i2, config, stats)
                }
                _ => in_e_composition(mapping, reverse, i1, i2, vocab, config, stats)?,
            };
            match (lhs, rhs) {
                (Verdict::Unknown { budget }, _) => unsettled = unsettled.or(Some(budget)),
                (Verdict::Holds, Verdict::Fails) => {
                    return Ok(MaxRecoveryVerdict::NotContainedInArrowM {
                        i1: i1.clone(),
                        i2: i2.clone(),
                    })
                }
                (Verdict::Fails, Verdict::Holds) => {
                    return Ok(MaxRecoveryVerdict::MissesArrowMPair {
                        i1: i1.clone(),
                        i2: i2.clone(),
                    })
                }
                _ => {}
            }
        }
    }
    Ok(match unsettled {
        Some(budget) => MaxRecoveryVerdict::Unknown { budget },
        None => MaxRecoveryVerdict::HoldsWithinBound,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rde_deps::parse_mapping;
    use rde_model::parse::parse_instance;

    /// Example 1.1's natural reverse mapping is a maximum extended
    /// recovery of the decomposition mapping (bounded check of the
    /// Theorem 4.13 criterion on a small universe).
    #[test]
    fn example_1_1_reverse_is_maximum_extended_recovery() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/3\ntarget: Q/2, R/2\nP(x,y,z) -> Q(x,y) & R(y,z)")
            .unwrap();
        let rev = parse_mapping(
            &mut v,
            "source: Q/2, R/2\ntarget: P/3\nQ(x,y) -> exists z . P(x,y,z)\nR(y,z) -> exists x . P(x,y,z)",
        )
        .unwrap();
        let u = Universe::new(&mut v, 2, 1, 1);
        let verdict = check_maximum_extended_recovery(
            &m,
            &rev,
            &u,
            &mut v,
            &HomConfig::default(),
            &mut HomStats::default(),
        )
        .unwrap();
        assert!(verdict.holds(), "verdict: {verdict:?}");
    }

    /// The union mapping with its disjunctive reverse R(x) → P(x) ∨ Q(x)
    /// is a maximum extended recovery; the *conjunctive* reverse
    /// R(x) → P(x) ∧ Q(x) is not even an extended recovery.
    #[test]
    fn union_mapping_recoveries() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/1, Q/1\ntarget: R/1\nP(x) -> R(x)\nQ(x) -> R(x)")
            .unwrap();
        let disj =
            parse_mapping(&mut v, "source: R/1\ntarget: P/1, Q/1\nR(x) -> P(x) | Q(x)").unwrap();
        let conj =
            parse_mapping(&mut v, "source: R/1\ntarget: P/1, Q/1\nR(x) -> P(x) & Q(x)").unwrap();
        let u = Universe::new(&mut v, 1, 1, 2);
        let (opts, mut st) = (HomConfig::default(), HomStats::default());
        let verdict =
            check_maximum_extended_recovery(&m, &disj, &u, &mut v, &opts, &mut st).unwrap();
        assert!(verdict.holds(), "verdict: {verdict:?}");
        // The conjunctive reverse asserts facts that may be absent:
        // (I, I) ∉ e(M) ∘ e(conj) for I = {P(c)} (since Q(c) ∉ I and the
        // leaf {P(c), Q(c)} has no hom into I on constants).
        let family = u.collect_instances(&v, &m.source).unwrap();
        let cex =
            find_extended_recovery_counterexample(&m, &conj, family.iter(), &mut v, &opts, &mut st)
                .unwrap();
        assert!(matches!(cex, BoundedVerdict::Counterexample { .. }));
    }

    /// Extended recovery vs maximum: the trivial "recover nothing"
    /// reverse (empty dependency set) IS an extended recovery but not a
    /// maximum one.
    #[test]
    fn empty_reverse_is_a_non_maximum_recovery() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/1\ntarget: R/1\nP(x) -> R(x)").unwrap();
        let empty_rev = SchemaMapping::new(m.target.clone(), m.source.clone(), vec![]);
        let u = Universe::new(&mut v, 1, 1, 1);
        let family = u.collect_instances(&v, &m.source).unwrap();
        let (opts, mut st) = (HomConfig::default(), HomStats::default());
        // (I, I) ∈ e(M) ∘ e(M′) always: the empty leaf maps into everything.
        let cex = find_extended_recovery_counterexample(
            &m,
            &empty_rev,
            family.iter(),
            &mut v,
            &opts,
            &mut st,
        )
        .unwrap();
        assert!(cex.holds(), "{cex:?}");
        // ...but e(M) ∘ e(M′) is ALL pairs, strictly above →_M:
        let verdict =
            check_maximum_extended_recovery(&m, &empty_rev, &u, &mut v, &opts, &mut st).unwrap();
        assert!(matches!(verdict, MaxRecoveryVerdict::NotContainedInArrowM { .. }));
    }

    /// Example 3.18 as a semantic extended-inverse check:
    /// e(M) ∘ e(M′) = → on the universe.
    #[test]
    fn example_3_18_semantic_extended_inverse() {
        let mut v = Vocabulary::new();
        let m =
            parse_mapping(&mut v, "source: P/2\ntarget: Q/2\nP(x,y) -> exists z . Q(x,z) & Q(z,y)")
                .unwrap();
        let minv =
            parse_mapping(&mut v, "source: Q/2\ntarget: P/2\nQ(x,z) & Q(z,y) -> P(x,y)").unwrap();
        let u = Universe::new(&mut v, 1, 1, 1);
        let verdict = check_extended_inverse_semantically(
            &m,
            &minv,
            &u,
            &mut v,
            &HomConfig::default(),
            &mut HomStats::default(),
        )
        .unwrap();
        assert!(verdict.holds(), "verdict: {verdict:?}");
    }

    /// A reverse mapping that over-recovers (asserts facts not implied)
    /// fails containment in →_M.
    #[test]
    fn over_eager_reverse_fails() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/1\ntarget: R/1\nP(x) -> R(x)").unwrap();
        // Reverse invents an unrelated constant fact.
        let rev = parse_mapping(&mut v, "source: R/1\ntarget: P/1\nR(x) -> P('ghost')").unwrap();
        let i1 = parse_instance(&mut v, "P(a)").unwrap();
        let ghost = parse_instance(&mut v, "P(ghost)").unwrap();
        let (opts, mut st) = (HomConfig::default(), HomStats::default());
        // (I1, ghost) ∈ e(M) ∘ e(rev): leaf {P(ghost)} → ghost. But
        // chase(I1) = {R(a)} does not map into chase(ghost) = {R(ghost)}.
        assert!(in_e_composition(&m, &rev, &i1, &ghost, &mut v, &opts, &mut st).unwrap().holds());
        assert!(!crate::arrow::arrow_m(&m, &i1, &ghost, &mut v).unwrap());
        // And (I1, I1) fails: the leaf insists on P(ghost) → I1? P(ghost)
        // is a constant fact, no hom into {P(a)}: not a recovery either.
        assert!(recovers(&m, &rev, &i1, &mut v, &opts, &mut st).unwrap().fails());
    }
}

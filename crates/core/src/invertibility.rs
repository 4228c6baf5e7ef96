//! Extended invertibility: capturing functions and the homomorphism
//! property (Definitions 3.8–3.12, Theorems 3.10 and 3.13).

use rde_chase::chase_mapping;
use rde_deps::SchemaMapping;
use rde_hom::{exists_hom, Exhausted, HomConfig, HomStats, Verdict};
use rde_model::{Instance, Vocabulary};

use crate::arrow::{ArrowMCache, CachePolicy};
use crate::extended::is_extended_solution;
use crate::{chase_options, source_family, CoreError, Universe};

/// Outcome of a bounded universal check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundedVerdict {
    /// No counterexample exists within the universe. Evidence, not
    /// proof, outside the bound.
    HoldsWithinBound,
    /// A genuine counterexample (valid unconditionally).
    Counterexample {
        /// The witnessing pair's first component.
        i1: Instance,
        /// Second component.
        i2: Instance,
    },
    /// A budgeted run could not settle every pair: no counterexample was
    /// found, but some search was cut short, so "holds within bound"
    /// cannot be claimed. Retry with a larger budget.
    Unknown {
        /// The first budget that ran out.
        budget: Exhausted,
    },
}

impl BoundedVerdict {
    /// Did the property survive the bounded check?
    pub fn holds(&self) -> bool {
        matches!(self, BoundedVerdict::HoldsWithinBound)
    }

    /// Fold one check into a scan that has found no counterexample
    /// yet: the first cut search makes the scan `Unknown`. Returns
    /// whether the check definitely failed.
    pub(crate) fn absorb(&mut self, check: Verdict) -> bool {
        if let (BoundedVerdict::HoldsWithinBound, Verdict::Unknown { budget }) = (&*self, check) {
            *self = BoundedVerdict::Unknown { budget };
        }
        check.fails()
    }
}

/// [`check_homomorphism_property_budgeted`] without a budget. The
/// benchmark (`perfbench`) uses it as its reference answer.
pub fn check_homomorphism_property(
    mapping: &SchemaMapping,
    universe: &Universe,
    vocab: &mut Vocabulary,
) -> Result<BoundedVerdict, CoreError> {
    check_homomorphism_property_budgeted(
        mapping,
        universe,
        vocab,
        &HomConfig::default(),
        &mut HomStats::default(),
    )
}

/// Search the universe for a violation of the **homomorphism property**
/// (Definition 3.12): instances with `chase_M(I₁) → chase_M(I₂)` but
/// not `I₁ → I₂`. By Theorem 3.13 a counterexample refutes extended
/// invertibility outright; for tgd-specified mappings extended
/// invertibility and the homomorphism property coincide.
///
/// Every homomorphism search obeys `config`, and search work (including
/// the arrow cache's) accumulates into `stats`. A counterexample needs
/// both sides settled, so a run with cut searches that finds none
/// returns [`BoundedVerdict::Unknown`] instead of claiming the property
/// holds.
pub fn check_homomorphism_property_budgeted(
    mapping: &SchemaMapping,
    universe: &Universe,
    vocab: &mut Vocabulary,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<BoundedVerdict, CoreError> {
    let family = source_family(mapping, universe, vocab)?;
    let cache = ArrowMCache::with_policy(mapping, &family, vocab, config, CachePolicy::default())?;
    let verdict = check_homomorphism_property_cached(&cache, &family, config, stats);
    *stats += cache.stats().hom;
    Ok(verdict)
}

/// The scan of [`check_homomorphism_property_budgeted`] against a
/// **prebuilt** arrow cache over `family`. This is the repeated-query
/// entry point: a long-lived service builds the cache once per mapping
/// and answers every later check from the memo table, each request
/// under its own `config` (budgets and a scoped cancel token — a
/// cancelled request reports `Unknown(Cancelled)` without touching any
/// other request sharing the cache).
pub fn check_homomorphism_property_cached(
    cache: &ArrowMCache,
    family: &[Instance],
    config: &HomConfig,
    stats: &mut HomStats,
) -> BoundedVerdict {
    let mut unsettled: Option<Exhausted> = None;
    let mut verdict = BoundedVerdict::HoldsWithinBound;
    'scan: for a in 0..family.len() {
        for b in 0..family.len() {
            match cache.arrow(a, b, config) {
                Verdict::Fails => {}
                Verdict::Unknown { budget } => unsettled = unsettled.or(Some(budget)),
                Verdict::Holds => match exists_hom(&family[a], &family[b], config, stats) {
                    Verdict::Holds => {}
                    Verdict::Unknown { budget } => unsettled = unsettled.or(Some(budget)),
                    Verdict::Fails => {
                        verdict = BoundedVerdict::Counterexample {
                            i1: family[a].clone(),
                            i2: family[b].clone(),
                        };
                        break 'scan;
                    }
                },
            }
        }
    }
    match (verdict, unsettled) {
        (BoundedVerdict::HoldsWithinBound, Some(budget)) => BoundedVerdict::Unknown { budget },
        (v, _) => v,
    }
}

/// Does `J` **capture** `I` for `M` within the universe (Definition
/// 3.9)? Condition (a) — `J ∈ eSol_M(I)` — is exact (chase-based);
/// condition (b) — every `K` with `J ∈ eSol_M(K)` has `K → I` —
/// quantifies `K` over the universe. The two combine by Kleene logic,
/// so a definite failure of either dominates a cut search.
pub fn captures_bounded(
    mapping: &SchemaMapping,
    target: &Instance,
    source: &Instance,
    universe: &Universe,
    vocab: &mut Vocabulary,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<Verdict, CoreError> {
    let mut verdict = is_extended_solution(source, target, mapping, vocab, config, stats)?;
    for k in &source_family(mapping, universe, vocab)? {
        if verdict.fails() {
            break;
        }
        let solution = is_extended_solution(k, target, mapping, vocab, config, stats)?;
        if solution.fails() {
            continue;
        }
        let maps = exists_hom(k, source, config, stats);
        verdict = verdict.and(!solution.and(!maps));
    }
    Ok(verdict)
}

/// Theorem 3.13(3): when `M` is extended-invertible, `F(I) = chase_M(I)`
/// is a capturing function. Checks that property for every source in
/// the universe; a counterexample is the first source `I` whose chase
/// fails to capture it, paired with that chase `F(I)` (a refutation of
/// extended invertibility within the bound).
pub fn check_chase_is_capturing(
    mapping: &SchemaMapping,
    universe: &Universe,
    vocab: &mut Vocabulary,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<BoundedVerdict, CoreError> {
    let mut verdict = BoundedVerdict::HoldsWithinBound;
    for i in &source_family(mapping, universe, vocab)? {
        let chased = chase_mapping(i, mapping, vocab, &chase_options(config))?;
        if verdict.absorb(captures_bounded(mapping, &chased, i, universe, vocab, config, stats)?) {
            return Ok(BoundedVerdict::Counterexample { i1: i.clone(), i2: chased });
        }
    }
    Ok(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rde_deps::parse_mapping;
    use rde_model::parse::parse_instance;

    fn unbounded() -> (HomConfig, HomStats) {
        (HomConfig::default(), HomStats::default())
    }

    /// Example 3.14: the union mapping is not extended-invertible, with
    /// the paper's exact counterexample shape ({P(c)}, {Q(c)}).
    #[test]
    fn example_3_14_union_mapping() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/1, Q/1\ntarget: R/1\nP(x) -> R(x)\nQ(x) -> R(x)")
            .unwrap();
        let u = Universe::new(&mut v, 1, 0, 1);
        let verdict = check_homomorphism_property(&m, &u, &mut v).unwrap();
        match verdict {
            BoundedVerdict::Counterexample { i1, i2 } => {
                assert_eq!(i1.len(), 1);
                assert_eq!(i2.len(), 1);
                let (cfg, mut st) = unbounded();
                assert!(exists_hom(&i1, &i2, &cfg, &mut st).fails());
            }
            other => panic!("union mapping must fail, got {other:?}"),
        }
    }

    /// The copy mapping is extended-invertible: the homomorphism
    /// property holds on the whole bounded universe, and the chase is a
    /// capturing function.
    #[test]
    fn copy_mapping_is_extended_invertible_within_bound() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/2\ntarget: Pp/2\nP(x,y) -> Pp(x,y)").unwrap();
        let u = Universe::small(&mut v);
        assert!(check_homomorphism_property(&m, &u, &mut v).unwrap().holds());
        let (config, mut stats) = unbounded();
        let capturing = check_chase_is_capturing(&m, &u, &mut v, &config, &mut stats).unwrap();
        assert!(capturing.holds());
    }

    /// Theorem 3.15(2): P(x) → ∃y R(x,y), Q(y) → ∃x R(x,y) fails the
    /// homomorphism property on null sources ({P(n₁)} vs {Q(n₂)}), and
    /// the counterexample requires nulls (the ground fragment passes).
    #[test]
    fn theorem_3_15_part_2_needs_nulls() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(
            &mut v,
            "source: P/1, Q/1\ntarget: R/2\nP(x) -> exists y . R(x, y)\nQ(y) -> exists x . R(x, y)",
        )
        .unwrap();
        // With nulls: counterexample found.
        let with_nulls = Universe::new(&mut v, 1, 1, 1);
        let verdict = check_homomorphism_property(&m, &with_nulls, &mut v).unwrap();
        let BoundedVerdict::Counterexample { i1, i2 } = verdict else {
            panic!("expected a null counterexample");
        };
        assert!(!i1.is_ground() || !i2.is_ground(), "counterexample must involve nulls");
        // Ground-only universe: the homomorphism property holds there
        // (the mapping IS invertible in the ground sense).
        let ground_only = Universe::new(&mut v, 2, 0, 2);
        assert!(check_homomorphism_property(&m, &ground_only, &mut v).unwrap().holds());
    }

    /// A starved budget cannot settle the pairs: the checker says
    /// Unknown instead of claiming the property holds (or inventing a
    /// counterexample).
    #[test]
    fn budgeted_check_degrades_to_unknown() {
        let mut v = Vocabulary::new();
        let m =
            parse_mapping(&mut v, "source: P/2\ntarget: Q/2\nP(x,y) -> exists z . Q(x,z) & Q(z,y)")
                .unwrap();
        let u = Universe::new(&mut v, 2, 1, 2);
        let tight = HomConfig { node_budget: Some(1), ..HomConfig::default() };
        let mut stats = HomStats::default();
        let verdict =
            check_homomorphism_property_budgeted(&m, &u, &mut v, &tight, &mut stats).unwrap();
        // The property holds for this mapping, so a definite
        // counterexample is impossible; with cut searches the only
        // honest answer is Unknown.
        assert!(matches!(verdict, BoundedVerdict::Unknown { .. }), "got {verdict:?}");
        assert!(stats.nodes > 0, "the aggregated stats must reflect the work");
        // An adequate budget restores the unbounded answer.
        let mut stats = HomStats::default();
        let verdict =
            check_homomorphism_property_budgeted(&m, &u, &mut v, &HomConfig::default(), &mut stats)
                .unwrap();
        assert!(verdict.holds());
    }

    /// Example 3.18's mapping P(x,y) → ∃z(Q(x,z) ∧ Q(z,y)) is
    /// extended-invertible (bounded evidence).
    #[test]
    fn two_step_decomposition_is_extended_invertible_within_bound() {
        let mut v = Vocabulary::new();
        let m =
            parse_mapping(&mut v, "source: P/2\ntarget: Q/2\nP(x,y) -> exists z . Q(x,z) & Q(z,y)")
                .unwrap();
        let u = Universe::new(&mut v, 2, 1, 2);
        assert!(check_homomorphism_property(&m, &u, &mut v).unwrap().holds());
    }

    #[test]
    fn capture_requires_extended_solutionhood() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/1\ntarget: Q/1\nP(x) -> Q(x)").unwrap();
        let u = Universe::new(&mut v, 1, 1, 1);
        let i = parse_instance(&mut v, "P(u0)").unwrap();
        let not_a_solution = Instance::new();
        let (config, mut stats) = unbounded();
        let captures = captures_bounded(&m, &not_a_solution, &i, &u, &mut v, &config, &mut stats);
        assert!(captures.unwrap().fails());
        let j = parse_instance(&mut v, "Q(u0)").unwrap();
        assert!(captures_bounded(&m, &j, &i, &u, &mut v, &config, &mut stats).unwrap().holds());
    }

    /// The union mapping's chase fails to capture: {R(c)} is an
    /// extended solution for both {P(c)} and {Q(c)}.
    #[test]
    fn union_chase_fails_to_capture() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/1, Q/1\ntarget: R/1\nP(x) -> R(x)\nQ(x) -> R(x)")
            .unwrap();
        let u = Universe::new(&mut v, 1, 0, 1);
        let (config, mut stats) = unbounded();
        let failing = check_chase_is_capturing(&m, &u, &mut v, &config, &mut stats).unwrap();
        assert!(matches!(failing, BoundedVerdict::Counterexample { .. }), "got {failing:?}");
    }
}

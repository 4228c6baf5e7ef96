//! Universal-faithful reverse mappings (Definition 6.1, Theorem 6.2).

use rde_chase::{chase_mapping, disjunctive_chase};
use rde_deps::SchemaMapping;
use rde_hom::{exists_hom, HomConfig, HomStats, Verdict};
use rde_model::fx::FxHashSet;
use rde_model::{Instance, Vocabulary};

use crate::compose::{enumerate_collapses, MAX_COLLAPSES};
use crate::{
    chase_options, disjunctive_options, some_maps_into, source_family, CoreError, Universe,
};

/// The three conditions of Definition 6.1 evaluated at one source
/// instance `I`, over the leaf set
/// `{V₁, …, Vₖ} = chase_{M′}(chase_M(I))` (restricted to the source
/// schema). A condition whose searches were cut reads
/// [`Verdict::Unknown`].
#[derive(Debug, Clone)]
pub struct FaithfulReport {
    /// The leaves, restricted to the source schema.
    pub leaves: Vec<Instance>,
    /// Condition (1): every leaf satisfies `I →_M Vₗ`.
    pub every_leaf_exports_at_least: Verdict,
    /// Condition (2): some leaf satisfies `Vᵢ →_M I`.
    pub some_leaf_exports_at_most: Verdict,
    /// Condition (3): for every `I′` in the probe family with
    /// `I →_M I′`, some leaf maps homomorphically into `I′`.
    pub universality_within_bound: Verdict,
    /// First `I′` violating condition (3), if any.
    pub universality_counterexample: Option<Instance>,
}

impl FaithfulReport {
    /// All three conditions (condition 3 within the probe bound), by
    /// Kleene conjunction.
    pub fn verdict(&self) -> Verdict {
        self.every_leaf_exports_at_least
            .and(self.some_leaf_exports_at_most)
            .and(self.universality_within_bound)
    }
}

/// `chase_M(I)` of every instance of `family`.
fn chase_each(
    mapping: &SchemaMapping,
    family: &[Instance],
    vocab: &mut Vocabulary,
    config: &HomConfig,
) -> Result<Vec<Instance>, CoreError> {
    family.iter().map(|i| Ok(chase_mapping(i, mapping, vocab, &chase_options(config))?)).collect()
}

/// Evaluate Definition 6.1 at one source instance under `config`. `M`
/// must be tgd-specified, `M′` disjunctive-tgd-specified (the theorem's
/// hypotheses); condition (3) quantifies `I′` over `probe_family`.
pub fn faithfulness_at(
    mapping: &SchemaMapping,
    reverse: &SchemaMapping,
    source: &Instance,
    probe_family: &[Instance],
    vocab: &mut Vocabulary,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<FaithfulReport, CoreError> {
    let probes = (probe_family, &chase_each(mapping, probe_family, vocab, config)?[..]);
    let u = chase_mapping(source, mapping, vocab, &chase_options(config))?;
    let leaves = reverse_leaves(mapping, reverse, &u, vocab, config)?;
    conditions(mapping, &u, leaves, probes, vocab, config, stats)
}

/// Like [`faithfulness_at`], but with the leaf set closed under
/// homomorphic collapses of `chase_M(I)` before chasing:
/// `⋃_h chase_{M′}(h(chase_M(I)))`.
///
/// This is the right procedural reading for recoveries whose premises
/// carry **inequalities** (the output language of Theorem 5.1):
/// inequality triggers are not preserved under null collapses, so the
/// raw leaf set of Definition 6.1 — stated for inequality-free
/// disjunctive tgds — misses recovered worlds in which distinct nulls
/// of the exchanged instance denote the same value. Closing under
/// collapses restores exactly the worlds that `e(M) ∘ e(M′)` sees (see
/// `crate::compose`). For inequality-free recoveries the identity
/// collapse subsumes the rest and this agrees with [`faithfulness_at`]
/// on all three conditions.
pub fn faithfulness_at_with_collapses(
    mapping: &SchemaMapping,
    reverse: &SchemaMapping,
    source: &Instance,
    probe_family: &[Instance],
    vocab: &mut Vocabulary,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<FaithfulReport, CoreError> {
    let probes = (probe_family, &chase_each(mapping, probe_family, vocab, config)?[..]);
    let u = chase_mapping(source, mapping, vocab, &chase_options(config))?;
    let collapses = enumerate_collapses(
        &u,
        reverse,
        &Instance::new(),
        &FxHashSet::default(),
        vocab,
        MAX_COLLAPSES,
    )?;
    let mut leaves: Vec<Instance> = Vec::new();
    for h in collapses {
        for leaf in reverse_leaves(mapping, reverse, &h.apply_instance(&u), vocab, config)? {
            if !leaves.contains(&leaf) {
                leaves.push(leaf);
            }
        }
    }
    conditions(mapping, &u, leaves, probes, vocab, config, stats)
}

/// The leaves of `chase_{M′}(middle)`, restricted to the source schema.
fn reverse_leaves(
    mapping: &SchemaMapping,
    reverse: &SchemaMapping,
    middle: &Instance,
    vocab: &mut Vocabulary,
    config: &HomConfig,
) -> Result<Vec<Instance>, CoreError> {
    let result =
        disjunctive_chase(middle, &reverse.dependencies, vocab, &disjunctive_options(config))?;
    Ok(result.leaves.iter().map(|l| l.restrict_to(&mapping.source)).collect())
}

/// The three conditions of Definition 6.1 over `leaves`, where
/// `u = chase_M(I)` and `probes` pairs the probe family with its chases.
/// By Proposition 4.7 `A →_M B` is `chase_M(A) → chase_M(B)`, so each
/// leaf is chased once and `u` serves every arrow from or to `I`.
fn conditions(
    mapping: &SchemaMapping,
    u: &Instance,
    leaves: Vec<Instance>,
    (probes, probe_chases): (&[Instance], &[Instance]),
    vocab: &mut Vocabulary,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<FaithfulReport, CoreError> {
    let chased_leaves = chase_each(mapping, &leaves, vocab, config)?;
    let mut every_leaf_exports_at_least = Verdict::Holds;
    for c in &chased_leaves {
        every_leaf_exports_at_least =
            every_leaf_exports_at_least.and(exists_hom(u, c, config, stats));
        if every_leaf_exports_at_least.fails() {
            break;
        }
    }
    let some_leaf_exports_at_most = some_maps_into(&chased_leaves, u, config, stats);
    let mut universality_within_bound = Verdict::Holds;
    let mut universality_counterexample = None;
    for (i_prime, chased) in probes.iter().zip(probe_chases) {
        let reached = exists_hom(u, chased, config, stats);
        if reached.fails() {
            continue;
        }
        let covered = some_maps_into(&leaves, i_prime, config, stats);
        universality_within_bound = universality_within_bound.and(!reached.and(!covered));
        if universality_within_bound.fails() {
            universality_counterexample = Some(i_prime.clone());
            break;
        }
    }
    Ok(FaithfulReport {
        leaves,
        every_leaf_exports_at_least,
        some_leaf_exports_at_most,
        universality_within_bound,
        universality_counterexample,
    })
}

/// Check universal-faithfulness of `M′` for `M` over every source of a
/// universe under `config` (conditions 1–2 are exact per source;
/// condition 3 is probed against the same universe). Returns the first
/// source whose report definitely fails; failing that, the first one
/// left `Unknown` by a cut search; `None` when every source holds.
pub fn check_universal_faithful(
    mapping: &SchemaMapping,
    reverse: &SchemaMapping,
    universe: &Universe,
    vocab: &mut Vocabulary,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<Option<(Instance, FaithfulReport)>, CoreError> {
    let family = source_family(mapping, universe, vocab)?;
    let chased = chase_each(mapping, &family, vocab, config)?;
    let mut unsettled = None;
    for (i, u) in family.iter().zip(&chased) {
        let leaves = reverse_leaves(mapping, reverse, u, vocab, config)?;
        let report = conditions(mapping, u, leaves, (&family, &chased), vocab, config, stats)?;
        match report.verdict() {
            Verdict::Holds => {}
            Verdict::Fails => return Ok(Some((i.clone(), report))),
            Verdict::Unknown { .. } => {
                unsettled.get_or_insert((i.clone(), report));
            }
        }
    }
    Ok(unsettled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rde_deps::parse_mapping;
    use rde_model::parse::parse_instance;

    fn unbounded() -> (HomConfig, HomStats) {
        (HomConfig::default(), HomStats::default())
    }

    /// The union mapping's disjunctive reverse is universal-faithful
    /// (Theorem 6.2: it is a maximum extended recovery).
    #[test]
    fn union_disjunctive_reverse_is_universal_faithful() {
        let mut v = Vocabulary::new();
        let (config, mut stats) = unbounded();
        let m = parse_mapping(&mut v, "source: P/1, Q/1\ntarget: R/1\nP(x) -> R(x)\nQ(x) -> R(x)")
            .unwrap();
        let rev =
            parse_mapping(&mut v, "source: R/1\ntarget: P/1, Q/1\nR(x) -> P(x) | Q(x)").unwrap();
        let u = Universe::new(&mut v, 1, 1, 2);
        let failure = check_universal_faithful(&m, &rev, &u, &mut v, &config, &mut stats).unwrap();
        assert!(failure.is_none(), "failure: {failure:?}");
    }

    /// Dropping the Q-disjunct breaks universality: the branch family
    /// can no longer reach sources that used Q.
    #[test]
    fn non_disjunctive_reverse_of_union_fails_universality() {
        let mut v = Vocabulary::new();
        let (config, mut stats) = unbounded();
        let m = parse_mapping(&mut v, "source: P/1, Q/1\ntarget: R/1\nP(x) -> R(x)\nQ(x) -> R(x)")
            .unwrap();
        let rev = parse_mapping(&mut v, "source: R/1\ntarget: P/1, Q/1\nR(x) -> P(x)").unwrap();
        let u = Universe::new(&mut v, 1, 0, 1);
        let failure = check_universal_faithful(&m, &rev, &u, &mut v, &config, &mut stats).unwrap();
        let (_source, report) = failure.expect("must fail");
        // The leaves only ever assert P-facts; a Q-source I′ exporting
        // the same R-fact is reachable by →_M but covered by no leaf.
        assert!(report.every_leaf_exports_at_least.holds());
        assert!(report.some_leaf_exports_at_most.holds());
        assert!(report.universality_within_bound.fails());
        let q = v.find_relation("Q").unwrap();
        let cex = report.universality_counterexample.expect("condition 3 witness");
        assert!(cex.relation(q).is_some(), "the unreachable probe uses Q: {cex:?}");
    }

    /// Example 3.18's tgd inverse is universal-faithful with a single
    /// leaf per instance (no disjunction ⇒ `k = 1`).
    #[test]
    fn chase_inverse_is_universal_faithful_with_one_leaf() {
        let mut v = Vocabulary::new();
        let (config, mut stats) = unbounded();
        let m =
            parse_mapping(&mut v, "source: P/2\ntarget: Q/2\nP(x,y) -> exists z . Q(x,z) & Q(z,y)")
                .unwrap();
        let rev =
            parse_mapping(&mut v, "source: Q/2\ntarget: P/2\nQ(x,z) & Q(z,y) -> P(x,y)").unwrap();
        let i = parse_instance(&mut v, "P(a,b)").unwrap();
        let probe = vec![i.clone(), parse_instance(&mut v, "P(a,b)\nP(b,a)").unwrap()];
        let report = faithfulness_at(&m, &rev, &i, &probe, &mut v, &config, &mut stats).unwrap();
        assert!(report.verdict().holds());
        assert_eq!(report.leaves.len(), 1);
    }

    /// Theorem 5.2's inequality recovery fails the raw Definition 6.1
    /// conditions (it is outside the definition's language), but passes
    /// the collapse-closed variant — matching its verified status as a
    /// maximum extended recovery.
    #[test]
    fn inequality_recovery_passes_collapse_closed_faithfulness() {
        let mut v = Vocabulary::new();
        let (config, mut stats) = unbounded();
        let m = parse_mapping(
            &mut v,
            "source: P/2, T/1\ntarget: Pp/2\nP(x,y) -> Pp(x,y)\nT(x) -> Pp(x,x)",
        )
        .unwrap();
        let rec =
            crate::quasi_inverse::maximum_extended_recovery_full(&m, &mut v, &config).unwrap();
        let universe = crate::Universe::new(&mut v, 1, 1, 2);
        let family = universe.collect_instances(&v, &m.source).unwrap();
        let mut raw_fails = false;
        for i in &family {
            let raw = faithfulness_at(&m, &rec, i, &family, &mut v, &config, &mut stats).unwrap();
            if !raw.verdict().holds() {
                raw_fails = true;
            }
            let closed =
                faithfulness_at_with_collapses(&m, &rec, i, &family, &mut v, &config, &mut stats)
                    .unwrap();
            assert!(
                closed.verdict().holds(),
                "collapse-closed faithfulness must hold at {i:?}: (1)={} (2)={} (3)={}",
                closed.every_leaf_exports_at_least,
                closed.some_leaf_exports_at_most,
                closed.universality_within_bound
            );
        }
        assert!(raw_fails, "the raw conditions must fail somewhere (the Def 6.1 boundary)");
    }

    /// For inequality-free recoveries the collapse-closed variant agrees
    /// with the raw conditions.
    #[test]
    fn collapse_closed_agrees_on_disjunctive_tgds() {
        let mut v = Vocabulary::new();
        let (config, mut stats) = unbounded();
        let m = parse_mapping(&mut v, "source: P/1, Q/1\ntarget: R/1\nP(x) -> R(x)\nQ(x) -> R(x)")
            .unwrap();
        let rev =
            parse_mapping(&mut v, "source: R/1\ntarget: P/1, Q/1\nR(x) -> P(x) | Q(x)").unwrap();
        let universe = crate::Universe::new(&mut v, 1, 1, 1);
        let family = universe.collect_instances(&v, &m.source).unwrap();
        for i in &family {
            let raw = faithfulness_at(&m, &rev, i, &family, &mut v, &config, &mut stats).unwrap();
            let closed =
                faithfulness_at_with_collapses(&m, &rev, i, &family, &mut v, &config, &mut stats)
                    .unwrap();
            assert_eq!(raw.verdict().holds(), closed.verdict().holds(), "at {i:?}");
        }
    }

    /// A reverse mapping violating condition (1): it recovers less than
    /// the original exports.
    #[test]
    fn lossy_reverse_fails_condition_one() {
        let mut v = Vocabulary::new();
        let (config, mut stats) = unbounded();
        let m = parse_mapping(&mut v, "source: P/2\ntarget: Q/2\nP(x,y) -> Q(x,y)").unwrap();
        // Recover only the first column (second existential): the leaf
        // exports Q(x, Z) which does not cover Q(a, b).
        let rev =
            parse_mapping(&mut v, "source: Q/2\ntarget: P/2\nQ(x,y) -> exists u . P(x,u)").unwrap();
        let i = parse_instance(&mut v, "P(a,b)").unwrap();
        let report =
            faithfulness_at(&m, &rev, &i, std::slice::from_ref(&i), &mut v, &config, &mut stats)
                .unwrap();
        assert!(report.every_leaf_exports_at_least.fails());
        assert!(!report.verdict().holds());
    }
}

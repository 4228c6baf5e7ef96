//! Information loss (Definition 4.5, Corollaries 4.14–4.15).
//!
//! For `M` specified by s-t tgds, the information loss is the relation
//! `→_M \ →`: pairs of source instances that `M` can no longer tell
//! apart (the second exports everything the first does) although no
//! homomorphism relates them. It is empty iff `M` is extended-invertible
//! (Corollary 4.15). On a bounded universe the loss is a finite set we
//! can enumerate and count — a quantitative, comparable measure.

use rde_deps::SchemaMapping;
use rde_hom::{exists_hom_budgeted, Exhausted, HomConfig, HomStats, Verdict};
use rde_model::{Instance, Vocabulary};

use crate::arrow::{ArrowMCache, CachePolicy};
use crate::{source_family, CoreError, Universe};

/// A census of `→_M \ →` over a bounded universe.
#[derive(Debug, Clone)]
pub struct LossReport {
    /// Number of instances enumerated.
    pub universe_size: usize,
    /// Number of pairs in `→_M`.
    pub arrow_m_pairs: usize,
    /// Number of pairs in `→` (the extended identity).
    pub hom_pairs: usize,
    /// Number of lost pairs (`→_M \ →`); equals
    /// `arrow_m_pairs - hom_pairs` because `→ ⊆ →_M`.
    pub lost_pairs: usize,
    /// Up to `max_examples` witnessing lost pairs.
    pub examples: Vec<(Instance, Instance)>,
    /// The first budget that cut a pair's search. Such a pair counts as
    /// neither lost nor kept, so with `Some` the counts are lower
    /// bounds and the census is undetermined.
    pub unsettled: Option<Exhausted>,
}

impl LossReport {
    /// Corollary 4.15: no information loss within the bound?
    pub fn is_lossless_within_bound(&self) -> bool {
        self.lost_pairs == 0
    }

    /// Loss as a fraction of all enumerated pairs.
    pub fn loss_fraction(&self) -> f64 {
        let total = (self.universe_size as f64) * (self.universe_size as f64);
        if total == 0.0 {
            0.0
        } else {
            self.lost_pairs as f64 / total
        }
    }
}

/// Enumerate and count the information loss of `M` over the universe.
/// Every search obeys `config` and its work accumulates into `stats`;
/// the cancel token of `config.ctx` is also polled between census rows
/// (aborting with [`CoreError::Cancelled`] instead of finishing the
/// `n²` sweep).
pub fn information_loss(
    mapping: &SchemaMapping,
    universe: &Universe,
    vocab: &mut Vocabulary,
    max_examples: usize,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<LossReport, CoreError> {
    let family = source_family(mapping, universe, vocab)?;
    census(mapping, &family, vocab, max_examples, config, stats, exists_hom_budgeted)
}

/// The `n²` census behind [`information_loss`] and its ground
/// counterpart: a pair is kept when `kept` holds (the baseline relation
/// is contained in `→_M`, so the arrow is not asked), lost when it
/// fails and `→_M` holds.
pub(crate) fn census(
    mapping: &SchemaMapping,
    family: &[Instance],
    vocab: &mut Vocabulary,
    max_examples: usize,
    config: &HomConfig,
    stats: &mut HomStats,
    kept: impl Fn(&Instance, &Instance, &HomConfig, &mut HomStats) -> Verdict,
) -> Result<LossReport, CoreError> {
    let cache = ArrowMCache::with_policy(mapping, family, vocab, config, CachePolicy::default())?;
    let span = rde_obs::span("core.loss.census", &[("universe", family.len().into())]);
    let journal_on = rde_obs::journal::enabled();
    let mut arrow_m_pairs = 0usize;
    let mut hom_pairs = 0usize;
    let mut lost_pairs = 0usize;
    let mut examples = Vec::new();
    let mut unsettled = None;
    for a in 0..family.len() {
        if config.ctx.is_cancelled() {
            return Err(CoreError::Cancelled);
        }
        let lost_before = lost_pairs;
        for b in 0..family.len() {
            let lost = match kept(&family[a], &family[b], config, stats) {
                Verdict::Holds => {
                    hom_pairs += 1;
                    arrow_m_pairs += 1; // → ⊆ →_M (Prop 4.11)
                    debug_assert!(
                        !cache.arrow(a, b, config).fails(),
                        "hom pair must be an →_M pair"
                    );
                    continue;
                }
                Verdict::Fails => cache.arrow(a, b, config),
                unknown => unknown,
            };
            match lost {
                Verdict::Holds => {
                    arrow_m_pairs += 1;
                    lost_pairs += 1;
                    if examples.len() < max_examples {
                        examples.push((family[a].clone(), family[b].clone()));
                    }
                }
                Verdict::Fails => {}
                Verdict::Unknown { budget } => {
                    unsettled.get_or_insert(budget);
                }
            }
        }
        rde_obs::counter!("core.loss.rows").inc();
        if journal_on {
            // Progress marker: one row of the n² census finished.
            rde_obs::event(
                "core.loss.row",
                &[
                    ("row", a.into()),
                    ("of", family.len().into()),
                    ("lost", (lost_pairs - lost_before).into()),
                ],
            );
        }
    }
    span.close_with(&[
        ("arrow_m_pairs", arrow_m_pairs.into()),
        ("hom_pairs", hom_pairs.into()),
        ("lost_pairs", lost_pairs.into()),
    ]);
    *stats += cache.stats().hom;
    Ok(LossReport {
        universe_size: family.len(),
        arrow_m_pairs,
        hom_pairs,
        lost_pairs,
        examples,
        unsettled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rde_deps::parse_mapping;

    #[test]
    fn copy_mapping_is_lossless() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/2\ntarget: Pp/2\nP(x,y) -> Pp(x,y)").unwrap();
        let u = Universe::small(&mut v);
        let report =
            information_loss(&m, &u, &mut v, 4, &HomConfig::default(), &mut HomStats::default())
                .unwrap();
        assert!(report.is_lossless_within_bound());
        assert_eq!(report.arrow_m_pairs, report.hom_pairs);
        assert_eq!(report.loss_fraction(), 0.0);
    }

    #[test]
    fn union_mapping_loses_p_vs_q() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/1, Q/1\ntarget: R/1\nP(x) -> R(x)\nQ(x) -> R(x)")
            .unwrap();
        let u = Universe::new(&mut v, 2, 1, 1);
        let report =
            information_loss(&m, &u, &mut v, 100, &HomConfig::default(), &mut HomStats::default())
                .unwrap();
        assert!(!report.is_lossless_within_bound());
        assert!(report.lost_pairs > 0);
        assert_eq!(report.lost_pairs, report.arrow_m_pairs - report.hom_pairs);
        // Every example is a genuine →_M \ → pair.
        for (i1, i2) in &report.examples {
            assert!(crate::arrow::arrow_m(&m, i1, i2, &mut v).unwrap());
            assert!(!rde_hom::exists_hom(i1, i2));
        }
    }

    /// Cor 4.15 cross-check: lossless-within-bound agrees with the
    /// homomorphism-property check on the same universe.
    #[test]
    fn losslessness_agrees_with_homomorphism_property() {
        for text in [
            "source: P/2\ntarget: Pp/2\nP(x,y) -> Pp(x,y)",
            "source: P/1, Q/1\ntarget: R/1\nP(x) -> R(x)\nQ(x) -> R(x)",
            "source: P/2\ntarget: Q/1\nP(x,y) -> Q(x)",
        ] {
            let mut v = Vocabulary::new();
            let m = parse_mapping(&mut v, text).unwrap();
            let u = Universe::new(&mut v, 2, 1, 1);
            let report = information_loss(
                &m,
                &u,
                &mut v,
                0,
                &HomConfig::default(),
                &mut HomStats::default(),
            )
            .unwrap();
            let hp = crate::invertibility::check_homomorphism_property(&m, &u, &mut v).unwrap();
            assert_eq!(report.is_lossless_within_bound(), hp.holds(), "mapping: {text}");
        }
    }

    #[test]
    fn projection_mapping_loses_the_projected_column() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/2\ntarget: Q/1\nP(x,y) -> Q(x)").unwrap();
        let u = Universe::new(&mut v, 2, 0, 1);
        let report =
            information_loss(&m, &u, &mut v, 10, &HomConfig::default(), &mut HomStats::default())
                .unwrap();
        // {P(a,a)} and {P(a,b)} export the same Q(a).
        assert!(report.lost_pairs > 0);
    }
}

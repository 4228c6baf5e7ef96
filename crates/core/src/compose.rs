//! Exact pointwise membership in compositions of schema mappings.
//!
//! The paper's operators are compositions of binary relations on
//! instances: `M ∘ M′` (inverses, Section 2), `e(M) ∘ e(M′)` (extended
//! inverses and recoveries, Sections 3–4). Deciding membership requires
//! eliminating the existentially quantified *middle* instance. Two
//! observations make this effective for `M` specified by s-t tgds:
//!
//! 1. `Sol_M(I) = { J : chase_M(I) → J }`, so the middle instance can
//!    be taken to be a **homomorphic collapse** `h(chase_M(I))` — any
//!    larger `J` only adds premise matches for the reverse mapping, and
//!    the relevant collapses form a finite set: each null of the chase
//!    maps into the active domains involved, the constants mentioned by
//!    the reverse dependencies, or a fresh constant (one per null
//!    suffices, since only the equality pattern and const/null kind of
//!    an image can matter to guards and joins).
//!
//! 2. For a fixed middle instance `J`, "∃ I′ : (J, I′) ⊨ Σ′ ∧ I′ → I₂"
//!    is decided by the **disjunctive chase**: its leaf set is
//!    universal, so the condition holds iff some leaf (restricted to
//!    the reverse mapping's target schema) maps into `I₂`.
//!
//! When the reverse mapping is **guard-free** (plain or disjunctive
//! tgds — the paper's own language for recoveries), triggers transfer
//! along homomorphisms and the identity collapse subsumes all others;
//! [`in_e_composition`] then needs a single disjunctive chase. With
//! `Constant`/inequality guards (e.g. `M″` of Example 3.19) the
//! collapses are enumerated explicitly.

use rde_chase::{chase_mapping, disjunctive_chase};
use rde_deps::{SchemaMapping, Term};
use rde_hom::{HomConfig, HomStats, Verdict};
use rde_model::fx::FxHashSet;
use rde_model::{Instance, NullId, Substitution, Value, Vocabulary};

use crate::semantics::satisfies_budgeted;
use crate::{chase_options, disjunctive_options, some_maps_into, CoreError};

/// Maximum number of collapse substitutions the composition checks
/// enumerate before giving up with [`CoreError::SearchLimitExceeded`].
pub const MAX_COLLAPSES: usize = 250_000;

/// Constants literally occurring in a mapping's dependencies.
fn dependency_constants(mapping: &SchemaMapping) -> Vec<Value> {
    let mut seen = FxHashSet::default();
    let mut out = Vec::new();
    for dep in &mapping.dependencies {
        let atoms =
            dep.premise.atoms.iter().chain(dep.disjuncts.iter().flat_map(|d| d.atoms.iter()));
        for atom in atoms {
            for t in &atom.args {
                if let Term::Const(c) = *t {
                    let v = Value::Const(c);
                    if seen.insert(v) {
                        out.push(v);
                    }
                }
            }
        }
    }
    out
}

/// Enumerate the homomorphic collapses of `middle` that are complete for
/// deciding "(∃ J ⊇ h(middle)) …" against `reverse` and `other_side`:
/// every null **except those in `rigid`** maps into `adom(middle) ∪
/// consts(reverse) ∪ consts(adom(other_side)) ∪ {fresh constants}` (one
/// fresh constant per null).
///
/// `rigid` carries the nulls that standard (non-extended) satisfaction
/// treats as fixed values — for `M ∘ M′` these are the nulls of the
/// source instance, whose images in `chase_M(I)` must stay put; for
/// `e(M) ∘ e(M′)` the set is empty (the extended semantics is the whole
/// point of erasing that rigidity).
pub fn enumerate_collapses(
    middle: &Instance,
    reverse: &SchemaMapping,
    other_side: &Instance,
    rigid: &FxHashSet<NullId>,
    vocab: &mut Vocabulary,
    max_collapses: usize,
) -> Result<Vec<Substitution>, CoreError> {
    let nulls: Vec<NullId> = middle.nulls().into_iter().filter(|n| !rigid.contains(n)).collect();
    let mut pool: Vec<Value> = middle.active_domain();
    for v in dependency_constants(reverse) {
        if !pool.contains(&v) {
            pool.push(v);
        }
    }
    for v in other_side.active_domain() {
        if v.is_const() && !pool.contains(&v) {
            pool.push(v);
        }
    }
    for i in 0..nulls.len() {
        pool.push(vocab.const_value(&format!("__collapse{i}")));
    }
    // Count check before materializing.
    let mut count: u128 = 1;
    for _ in &nulls {
        count = count.saturating_mul(pool.len() as u128);
        if count > max_collapses as u128 {
            return Err(CoreError::SearchLimitExceeded {
                what: "collapse enumeration",
                limit: max_collapses,
            });
        }
    }
    let mut out = Vec::with_capacity(count as usize);
    let mut idx = vec![0usize; nulls.len()];
    loop {
        let sub: Substitution = nulls.iter().zip(&idx).map(|(&n, &i)| (n, pool[i])).collect();
        out.push(sub);
        let mut pos = nulls.len();
        loop {
            if pos == 0 {
                return Ok(out);
            }
            pos -= 1;
            idx[pos] += 1;
            if idx[pos] < pool.len() {
                break;
            }
            idx[pos] = 0;
        }
    }
}

/// `(I, K) ∈ M ∘ M′` for `M` specified by (possibly guarded,
/// non-disjunctive) s-t tgds and `M′` an arbitrary dependency set from
/// `M`'s target schema: ∃ J with `(I, J) ⊨ Σ` and `(J, K) ⊨ Σ′`.
///
/// Decided exactly by collapse enumeration (observation 1 above): the
/// candidate middles are the homomorphic collapses of `chase_M(I)`.
/// Satisfaction checks obey `config`; the answer is the Kleene
/// disjunction over the collapses.
pub fn in_composition(
    mapping: &SchemaMapping,
    reverse: &SchemaMapping,
    source: &Instance,
    other: &Instance,
    vocab: &mut Vocabulary,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<Verdict, CoreError> {
    let u = chase_mapping(source, mapping, vocab, &chase_options(config))?;
    // Standard satisfaction treats the source's nulls as rigid values:
    // only the chase-invented nulls may collapse.
    let rigid: FxHashSet<NullId> = source.nulls().into_iter().collect();
    let mut verdict = Verdict::Fails;
    for h in enumerate_collapses(&u, reverse, other, &rigid, vocab, MAX_COLLAPSES)? {
        let j = h.apply_instance(&u);
        verdict = verdict.or(satisfies_budgeted(&j, other, reverse, config, stats));
        if verdict.holds() {
            break;
        }
    }
    Ok(verdict)
}

/// `(I₁, I₂) ∈ e(M) ∘ e(M′)` for `M` specified by **guard-free** s-t
/// tgds and `M′` by arbitrary dependencies from `M`'s target schema.
///
/// Fast path (guard-free `M′`): some leaf of
/// `disjChase_{M′}(chase_M(I₁))`, restricted to `M′`'s target schema,
/// maps homomorphically into `I₂`. General path (guards in `M′`): the
/// same test over every homomorphic collapse of the chase. Every chase
/// and search runs under `config`.
pub fn in_e_composition(
    mapping: &SchemaMapping,
    reverse: &SchemaMapping,
    i1: &Instance,
    i2: &Instance,
    vocab: &mut Vocabulary,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<Verdict, CoreError> {
    if !mapping.is_tgd_mapping() {
        return Err(CoreError::UnsupportedMapping {
            required: "a guard-free tgd-specified forward mapping",
        });
    }
    if reverse.is_disjunctive_tgd_mapping() {
        let leaves = composition_leaves(mapping, reverse, i1, vocab, config)?;
        return Ok(some_maps_into(&leaves, i2, config, stats));
    }
    let u = chase_mapping(i1, mapping, vocab, &chase_options(config))?;
    let mut verdict = Verdict::Fails;
    for h in enumerate_collapses(&u, reverse, i2, &FxHashSet::default(), vocab, MAX_COLLAPSES)? {
        let j = h.apply_instance(&u);
        verdict = verdict.or(leaf_maps_into(&j, reverse, i2, vocab, config, stats)?);
        if verdict.holds() {
            break;
        }
    }
    Ok(verdict)
}

/// The leaves `in_e_composition`'s fast path tests for `I₁`: those of
/// `disjChase_{M′}(chase_M(I₁))`, restricted to `M′`'s target schema.
/// For a guard-free `M′`, `(I₁, I₂) ∈ e(M) ∘ e(M′)` iff one of them maps
/// into `I₂`, so a caller testing many `I₂` can chase once.
pub(crate) fn composition_leaves(
    mapping: &SchemaMapping,
    reverse: &SchemaMapping,
    i1: &Instance,
    vocab: &mut Vocabulary,
    config: &HomConfig,
) -> Result<Vec<Instance>, CoreError> {
    let u = chase_mapping(i1, mapping, vocab, &chase_options(config))?;
    let result = disjunctive_chase(&u, &reverse.dependencies, vocab, &disjunctive_options(config))?;
    Ok(result.leaves.iter().map(|leaf| leaf.restrict_to(&reverse.target)).collect())
}

/// Does some leaf of the disjunctive chase of `middle` with `reverse`,
/// restricted to `reverse.target`, map homomorphically into `i2`?
pub(crate) fn leaf_maps_into(
    middle: &Instance,
    reverse: &SchemaMapping,
    i2: &Instance,
    vocab: &mut Vocabulary,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<Verdict, CoreError> {
    let result =
        disjunctive_chase(middle, &reverse.dependencies, vocab, &disjunctive_options(config))?;
    let leaves = result.leaves.iter().map(|leaf| leaf.restrict_to(&reverse.target));
    Ok(some_maps_into(leaves, i2, config, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;
    use rde_chase::ChaseOptions;
    use rde_deps::parse_mapping;
    use rde_hom::exists_hom;
    use rde_model::parse::parse_instance;

    type Membership = fn(
        &SchemaMapping,
        &SchemaMapping,
        &Instance,
        &Instance,
        &mut Vocabulary,
        &HomConfig,
        &mut HomStats,
    ) -> Result<Verdict, CoreError>;

    /// An unbudgeted membership test, as a plain yes or no.
    fn member(
        test: Membership,
        m: &SchemaMapping,
        rev: &SchemaMapping,
        i1: &Instance,
        i2: &Instance,
        v: &mut Vocabulary,
    ) -> bool {
        let verdict = test(m, rev, i1, i2, v, &HomConfig::default(), &mut HomStats::default());
        verdict.unwrap().holds()
    }

    /// Thm 3.15(2): M′ with Constant guards IS an inverse of
    /// P(x) → ∃y R(x,y), Q(y) → ∃x R(x,y): M ∘ M′ = Id on ground pairs.
    #[test]
    fn constant_guard_inverse_composition_is_identity_on_ground() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(
            &mut v,
            "source: P/1, Q/1\ntarget: R/2\nP(x) -> exists y . R(x, y)\nQ(y) -> exists x . R(x, y)",
        )
        .unwrap();
        let minv = parse_mapping(
            &mut v,
            "source: R/2\ntarget: P/1, Q/1\nR(x, y) & Constant(x) -> P(x)\nR(x, y) & Constant(y) -> Q(y)",
        )
        .unwrap();
        let u = Universe::new(&mut v, 2, 0, 2);
        let sources = u.ground_instances(&v, &m.source).unwrap().collect::<Vec<_>>();
        for i1 in &sources {
            for i2 in &sources {
                let in_comp = member(in_composition, &m, &minv, i1, i2, &mut v);
                let in_id = i1.is_subset_of(i2);
                assert_eq!(in_comp, in_id, "composition must be Id on ({i1:?}, {i2:?})");
            }
        }
    }

    /// The same middle-collapse machinery sees that the plain copy-back
    /// of the union mapping is NOT an inverse.
    #[test]
    fn union_mapping_copyback_is_not_an_inverse() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/1, Q/1\ntarget: R/1\nP(x) -> R(x)\nQ(x) -> R(x)")
            .unwrap();
        let back =
            parse_mapping(&mut v, "source: R/1\ntarget: P/1, Q/1\nR(x) -> P(x) & Q(x)").unwrap();
        let i1 = parse_instance(&mut v, "P(u0)").unwrap();
        let i2 = parse_instance(&mut v, "P(u0)").unwrap();
        // (I1, I1) ∈ M ∘ M″? The middle {R(u0)} forces P(u0) AND Q(u0) ⊆ I2.
        assert!(!member(in_composition, &m, &back, &i1, &i2, &mut v));
    }

    /// e-composition fast path vs collapse path agree on guard-free
    /// reverse mappings (cross-validation of the two algorithms).
    #[test]
    fn fast_and_slow_e_composition_agree_when_guard_free() {
        let mut v = Vocabulary::new();
        let m =
            parse_mapping(&mut v, "source: P/2\ntarget: Q/2\nP(x,y) -> exists z . Q(x,z) & Q(z,y)")
                .unwrap();
        let rev =
            parse_mapping(&mut v, "source: Q/2\ntarget: P/2\nQ(x,z) & Q(z,y) -> P(x,y)").unwrap();
        let u = Universe::new(&mut v, 1, 1, 1);
        let family = u.collect_instances(&v, &m.source).unwrap();
        for i1 in &family {
            for i2 in &family {
                let fast = member(in_e_composition, &m, &rev, i1, i2, &mut v);
                // Force the slow path by running collapse enumeration.
                let uu = chase_mapping(i1, &m, &mut v, &ChaseOptions::default()).unwrap();
                let mut slow = false;
                for h in
                    enumerate_collapses(&uu, &rev, i2, &FxHashSet::default(), &mut v, MAX_COLLAPSES)
                        .unwrap()
                {
                    let j = h.apply_instance(&uu);
                    let config = HomConfig::default();
                    if leaf_maps_into(&j, &rev, i2, &mut v, &config, &mut HomStats::default())
                        .unwrap()
                        .holds()
                    {
                        slow = true;
                        break;
                    }
                }
                assert_eq!(fast, slow, "disagreement on ({i1:?}, {i2:?})");
            }
        }
    }

    /// Example 3.19's guarded M″ is **not an extended inverse**:
    /// `e(M) ∘ e(M″)` leaks the pair `({P(W, Z)}, ∅)` — on all-null
    /// sources M″ may recover nothing (the middle instance can collapse
    /// away every constant guard) although `{P(W, Z)} ↛ ∅`. The
    /// guard-free M′ of Example 3.18 does not leak that pair.
    #[test]
    fn guarded_inverse_is_not_an_extended_inverse() {
        let mut v = Vocabulary::new();
        let m =
            parse_mapping(&mut v, "source: P/2\ntarget: Q/2\nP(x,y) -> exists z . Q(x,z) & Q(z,y)")
                .unwrap();
        let m2 = parse_mapping(
            &mut v,
            "source: Q/2\ntarget: P/2\nQ(x,z) & Q(z,y) & Constant(x) & Constant(y) -> P(x,y)",
        )
        .unwrap();
        let i = parse_instance(&mut v, "P(?w, ?z)").unwrap();
        let empty = Instance::new();
        assert!(member(in_e_composition, &m, &m2, &i, &empty, &mut v));
        let (cfg, mut st) = (HomConfig::default(), HomStats::default());
        assert!(exists_hom(&i, &empty, &cfg, &mut st).fails(), "the leaked pair is outside e(Id)");
        // (I, I) itself still holds — M″ is an extended *recovery*, the
        // failure is maximality/inversehood, matching Example 3.19's
        // chase-inverse refutation.
        assert!(member(in_e_composition, &m, &m2, &i, &i, &mut v));
        // The guard-free M′ does not leak (I, ∅).
        let m1 =
            parse_mapping(&mut v, "source: Q/2\ntarget: P/2\nQ(x,z) & Q(z,y) -> P(x,y)").unwrap();
        assert!(!member(in_e_composition, &m, &m1, &i, &empty, &mut v));
        assert!(member(in_e_composition, &m, &m1, &i, &i, &mut v));
    }

    #[test]
    fn collapse_enumeration_respects_limits() {
        let mut v = Vocabulary::new();
        let m =
            parse_mapping(&mut v, "source: P/2\ntarget: Q/2\nP(x,y) -> exists z . Q(x,z) & Q(z,y)")
                .unwrap();
        let rev = parse_mapping(&mut v, "source: Q/2\ntarget: P/2\nQ(x,y) -> P(x,y)").unwrap();
        let i = parse_instance(&mut v, "P(a,b)\nP(b,c)\nP(c,d)").unwrap();
        let u = chase_mapping(&i, &m, &mut v, &ChaseOptions::default()).unwrap();
        let err = enumerate_collapses(&u, &rev, &i, &FxHashSet::default(), &mut v, 10).unwrap_err();
        assert!(matches!(err, CoreError::SearchLimitExceeded { .. }));
    }

    #[test]
    fn collapse_pool_includes_fresh_constants() {
        let mut v = Vocabulary::new();
        let rev = parse_mapping(&mut v, "source: Q/1\ntarget: P/1\nQ(x) -> P(x)").unwrap();
        let i = parse_instance(&mut v, "Q(?n)").unwrap();
        let subs =
            enumerate_collapses(&i, &rev, &Instance::new(), &FxHashSet::default(), &mut v, 1000)
                .unwrap();
        // Pool: {?n (self), one fresh constant} → 2 collapses.
        assert_eq!(subs.len(), 2);
        assert!(subs.iter().any(|s| s.iter().all(|(_, img)| img.is_const())));
    }
}

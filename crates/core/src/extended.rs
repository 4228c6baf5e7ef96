//! Extended solutions and the homomorphic extension `e(M)` (Section 3).

use rde_chase::chase_mapping;
use rde_deps::SchemaMapping;
use rde_hom::{
    exists_hom, exists_hom_budgeted, hom_equivalent_budgeted, HomConfig, HomStats, Verdict,
};
use rde_model::{Instance, Vocabulary};

use crate::semantics::satisfies;
use crate::{chase_options, CoreError, Universe};

/// The extended identity: `(I₁, I₂) ∈ e(Id)` iff `I₁ → I₂`
/// (Definition 3.7 — `e(Id)` *is* the homomorphism relation).
pub fn in_extended_identity(i1: &Instance, i2: &Instance) -> bool {
    exists_hom(i1, i2)
}

/// Is `J` an extended solution for `I` w.r.t. a **tgd-specified** `M`
/// (Definition 3.2)?
///
/// Computed via Proposition 3.11: `chase_M(I)` is an extended universal
/// solution, so `J ∈ eSol_M(I)` iff `chase_M(I) → J`. (Soundness:
/// `(I, chase_M(I)) ∈ M` and `chase_M(I) → J` exhibit the middle pair;
/// completeness: from `I → I′`, `(I′, J′) ⊨ Σ`, `J′ → J` follows
/// `chase_M(I) → chase_M(I′) → J′ → J` by chase monotonicity and
/// universality.) The NP-hard `chase_M(I) → J` search obeys `config`
/// and degrades to [`Verdict::Unknown`].
pub fn is_extended_solution(
    source: &Instance,
    target: &Instance,
    mapping: &SchemaMapping,
    vocab: &mut Vocabulary,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<Verdict, CoreError> {
    let canonical = chase_mapping(source, mapping, vocab, &chase_options(config))?;
    Ok(exists_hom_budgeted(&canonical, target, config, stats))
}

/// Is `J` an extended **universal** solution for `I` (Definition 3.5):
/// an extended solution with `J → J′` for every extended solution `J′`?
///
/// Since `chase_M(I)` is one (Prop 3.11) and extended solutions are
/// up-closed under `→`, this holds iff `J ∈ eSol_M(I)` and
/// `J → chase_M(I)` — i.e. `J` is hom-equivalent to the chase. The two
/// searches combine by Kleene conjunction, so a definite failure on
/// either side dominates a cut search on the other.
pub fn is_extended_universal_solution(
    source: &Instance,
    target: &Instance,
    mapping: &SchemaMapping,
    vocab: &mut Vocabulary,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<Verdict, CoreError> {
    let canonical = chase_mapping(source, mapping, vocab, &chase_options(config))?;
    Ok(hom_equivalent_budgeted(&canonical, target, config, stats))
}

/// Definition-level extended-solution check for **arbitrary**
/// dependencies, quantifying the middle pair `(I′, J′)` over a bounded
/// universe: `∃ I′, J′ : I → I′, (I′, J′) ⊨ Σ, J′ → J`.
///
/// Exact within the bound; use [`is_extended_solution`] (chase-based,
/// exact) for tgd mappings. Exposed for cross-validation tests and for
/// mappings with guards, where the chase shortcut is unsound.
pub fn is_extended_solution_bounded(
    source: &Instance,
    target: &Instance,
    mapping: &SchemaMapping,
    universe: &Universe,
    vocab: &Vocabulary,
) -> Result<bool, CoreError> {
    let sources = universe.collect_instances(vocab, &mapping.source).map_err(invalid)?;
    let targets = universe.collect_instances(vocab, &mapping.target).map_err(invalid)?;
    for i_prime in &sources {
        if !exists_hom(source, i_prime) {
            continue;
        }
        for j_prime in &targets {
            if satisfies(i_prime, j_prime, mapping) && exists_hom(j_prime, target) {
                return Ok(true);
            }
        }
    }
    Ok(false)
}

fn invalid(e: rde_model::ModelError) -> CoreError {
    // Universe construction errors indicate an unusable request, not a
    // chase failure; surface them as unsupported.
    let _ = e;
    CoreError::UnsupportedMapping { required: "a non-empty schema for universe enumeration" }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rde_chase::ChaseOptions;
    use rde_deps::parse_mapping;
    use rde_model::parse::parse_instance;

    fn esol(i: &Instance, j: &Instance, m: &SchemaMapping, v: &mut Vocabulary) -> bool {
        is_extended_solution(i, j, m, v, &HomConfig::default(), &mut HomStats::default())
            .unwrap()
            .holds()
    }

    fn universal(i: &Instance, j: &Instance, m: &SchemaMapping, v: &mut Vocabulary) -> bool {
        is_extended_universal_solution(i, j, m, v, &HomConfig::default(), &mut HomStats::default())
            .unwrap()
            .holds()
    }

    fn decomposition(v: &mut Vocabulary) -> SchemaMapping {
        parse_mapping(v, "source: P/3\ntarget: Q/2, R/2\nP(x,y,z) -> Q(x,y) & R(y,z)").unwrap()
    }

    /// Example 3.3: U is an extended solution for V although not a
    /// solution.
    #[test]
    fn example_3_3_extended_solution() {
        let mut v = Vocabulary::new();
        let m = decomposition(&mut v);
        let vi = parse_instance(&mut v, "P(a, b, ?z)\nP(?x, b, c)").unwrap();
        let u = parse_instance(&mut v, "Q(a,b)\nR(b,c)").unwrap();
        assert!(!crate::semantics::is_solution(&vi, &u, &m));
        assert!(esol(&vi, &u, &m, &mut v));
    }

    /// Proposition 3.4: for ground `I` and tgd-specified `M`,
    /// `eSol_M(I) = Sol_M(I)` — verified exhaustively on a bounded
    /// universe of targets.
    #[test]
    fn proposition_3_4_ground_esol_equals_sol() {
        let mut v = Vocabulary::new();
        let m = decomposition(&mut v);
        let i = parse_instance(&mut v, "P(a, b, c)").unwrap();
        let universe = Universe::new(&mut v, 3, 1, 3);
        for j in universe.instances(&v, &m.target).unwrap() {
            let sol = crate::semantics::is_solution(&i, &j, &m);
            let esol = esol(&i, &j, &m, &mut v);
            assert_eq!(sol, esol, "disagreement on {j:?}");
        }
    }

    /// On non-ground sources the two notions genuinely differ.
    #[test]
    fn esol_strictly_contains_sol_on_null_sources() {
        let mut v = Vocabulary::new();
        let m = decomposition(&mut v);
        let i = parse_instance(&mut v, "P(?x, b, c)").unwrap();
        let u = parse_instance(&mut v, "Q(d, b)\nR(b, c)").unwrap();
        assert!(!crate::semantics::is_solution(&i, &u, &m));
        assert!(esol(&i, &u, &m, &mut v));
    }

    #[test]
    fn chase_is_an_extended_universal_solution() {
        let mut v = Vocabulary::new();
        let m = decomposition(&mut v);
        let i = parse_instance(&mut v, "P(a, b, ?z)\nP(c, d, e)").unwrap();
        let u = rde_chase::chase_mapping(&i, &m, &mut v, &ChaseOptions::default()).unwrap();
        assert!(universal(&i, &u, &m, &mut v));
        // A strictly more specific solution is extended but not universal.
        let ground = parse_instance(&mut v, "Q(a,b)\nR(b,a)\nQ(c,d)\nR(d,e)").unwrap();
        assert!(esol(&i, &ground, &m, &mut v));
        assert!(!universal(&i, &ground, &m, &mut v));
    }

    /// The chase shortcut agrees with the definition-level bounded check
    /// on a small universe (cross-validation of Prop 3.11).
    #[test]
    fn chase_shortcut_agrees_with_definition() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/1\ntarget: Q/1\nP(x) -> Q(x)").unwrap();
        let universe = Universe::new(&mut v, 1, 1, 1);
        let sources = universe.collect_instances(&v, &m.source).unwrap();
        let targets = universe.collect_instances(&v, &m.target).unwrap();
        for i in &sources {
            for j in &targets {
                let fast = esol(i, j, &m, &mut v);
                let slow = is_extended_solution_bounded(i, j, &m, &universe, &v).unwrap();
                assert_eq!(fast, slow, "disagree on I={i:?} J={j:?}");
            }
        }
    }

    #[test]
    fn extended_identity_is_the_hom_relation() {
        let mut v = Vocabulary::new();
        let a = parse_instance(&mut v, "P(?x)").unwrap();
        let b = parse_instance(&mut v, "P(k)").unwrap();
        assert!(in_extended_identity(&a, &b));
        assert!(!in_extended_identity(&b, &a));
    }
}

//! Isomorphism of instances: a null-renaming bijection.
//!
//! Two instances are isomorphic when some bijective renaming of nulls
//! (constants fixed) maps one exactly onto the other. This is the
//! "equality" under which chase results are canonical: the chase is
//! deterministic only up to the choice of fresh nulls, and cores of
//! hom-equivalent instances are unique up to isomorphism. The engines
//! use isomorphism to compare canonical artifacts without depending on
//! null identities.

use rde_model::fx::FxHashSet;
use rde_model::{Instance, Substitution, Value};

use crate::search::{for_each_hom, HomConfig, HomStats};
use crate::verdict::Exhausted;

/// Find an isomorphism from `a` onto `b`, if one exists: an injective
/// homomorphism whose image is exactly `b`. The enumeration runs under
/// `config`'s budgets and accumulates its work into `stats`.
///
/// `Ok(Some(iso))` — a witness; `Ok(None)` — the instances are not
/// isomorphic; `Err(budget)` — the budget ran out before either.
///
/// Strategy: enumerate homomorphisms `a → b` and keep the first that is
/// injective on nulls and maps `a` onto all of `b`. Since `a → b`
/// injectively-onto forces `|a| = |b|`, we reject early on size or
/// active-domain mismatch.
pub fn find_iso(
    a: &Instance,
    b: &Instance,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<Option<Substitution>, Exhausted> {
    if a.len() != b.len() {
        return Ok(None);
    }
    let a_dom = a.active_domain();
    let b_dom = b.active_domain();
    if a_dom.len() != b_dom.len() {
        return Ok(None);
    }
    // Same constants on both sides (constants are fixed points).
    let a_consts: FxHashSet<Value> = a_dom.iter().copied().filter(|v| v.is_const()).collect();
    let b_consts: FxHashSet<Value> = b_dom.iter().copied().filter(|v| v.is_const()).collect();
    if a_consts != b_consts {
        return Ok(None);
    }
    let mut found = None;
    let report = for_each_hom(a, b, &Substitution::new(), config, |sub| {
        // Injective on nulls?
        let mut images = FxHashSet::default();
        let injective = sub.iter().all(|(_, img)| images.insert(img));
        if !injective {
            return true;
        }
        // Surjective on facts? (|a| = |b| and injectivity make the
        // image exactly |b| facts iff no two facts collide, which
        // injectivity on values guarantees.)
        let image = sub.apply_instance(a);
        if image == *b {
            found = Some(sub.clone());
            return false;
        }
        true
    });
    stats.merge(report.stats);
    match (found, report.exhausted) {
        (None, Some(budget)) => Err(budget),
        (found, _) => Ok(found),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rde_model::{ConstId, Fact, NullId, RelId};

    fn c(i: u32) -> Value {
        Value::Const(ConstId(i))
    }
    fn n(i: u32) -> Value {
        Value::Null(NullId(i))
    }
    fn inst(facts: &[(u32, &[Value])]) -> Instance {
        facts.iter().map(|(r, args)| Fact::new(RelId(*r), args.to_vec())).collect()
    }
    fn iso(a: &Instance, b: &Instance) -> Option<Substitution> {
        find_iso(a, b, &HomConfig::default(), &mut HomStats::default()).unwrap()
    }
    fn isomorphic(a: &Instance, b: &Instance) -> bool {
        iso(a, b).is_some()
    }

    #[test]
    fn equal_instances_are_isomorphic() {
        let a = inst(&[(0, &[c(0), n(0)]), (1, &[n(0)])]);
        assert!(isomorphic(&a, &a));
        let id = iso(&a, &a).unwrap();
        // The identity (or some automorphism) maps a onto a.
        assert_eq!(id.apply_instance(&a), a);
    }

    #[test]
    fn null_renaming_is_isomorphic() {
        let a = inst(&[(0, &[n(0), n(1)]), (0, &[n(1), n(0)])]);
        let b = inst(&[(0, &[n(7), n(9)]), (0, &[n(9), n(7)])]);
        let iso = iso(&a, &b).unwrap();
        assert_eq!(iso.apply_instance(&a), b);
    }

    #[test]
    fn hom_equivalent_but_not_isomorphic() {
        // {P(a,a)} vs {P(a,a), P(a,X)}: hom-equivalent, different sizes.
        let a = inst(&[(0, &[c(0), c(0)])]);
        let b = inst(&[(0, &[c(0), c(0)]), (0, &[c(0), n(0)])]);
        assert!(
            crate::hom_equivalent(&a, &b, &HomConfig::default(), &mut HomStats::default()).holds()
        );
        assert!(!isomorphic(&a, &b));
    }

    #[test]
    fn folding_is_not_an_isomorphism() {
        // Same size, but the only homs fold two nulls together.
        let a = inst(&[(0, &[n(0), n(1)])]);
        let b = inst(&[(0, &[n(5), n(5)])]);
        assert!(crate::exists_hom(&a, &b, &HomConfig::default(), &mut HomStats::default()).holds());
        assert!(!isomorphic(&a, &b));
        // And in the other direction the hom is injective but not onto
        // the two distinct-null positions... sizes match, domains don't.
        assert!(!isomorphic(&b, &a));
    }

    #[test]
    fn constants_must_match_exactly() {
        let a = inst(&[(0, &[c(0)])]);
        let b = inst(&[(0, &[c(1)])]);
        assert!(!isomorphic(&a, &b));
        let b2 = inst(&[(0, &[n(0)])]);
        assert!(!isomorphic(&a, &b2), "a constant cannot be renamed to a null");
    }

    #[test]
    fn empty_instances_are_isomorphic() {
        assert!(isomorphic(&Instance::new(), &Instance::new()));
    }

    #[test]
    fn chase_style_outputs_compare_up_to_fresh_null_choice() {
        // Two runs inventing different nulls: Q(a,Z1),Q(Z1,b) vs
        // Q(a,Z9),Q(Z9,b).
        let run1 = inst(&[(0, &[c(0), n(1)]), (0, &[n(1), c(1)])]);
        let run2 = inst(&[(0, &[c(0), n(9)]), (0, &[n(9), c(1)])]);
        assert!(isomorphic(&run1, &run2));
    }

    #[test]
    fn a_cut_enumeration_is_not_a_refutation() {
        // Equal-sized, same domains: the size checks pass, so only the
        // enumeration can decide, and a zero budget cuts it.
        let a = inst(&[(0, &[n(0), n(1)]), (0, &[n(1), n(0)])]);
        let b = inst(&[(0, &[n(7), n(9)]), (0, &[n(9), n(7)])]);
        let cfg = HomConfig { node_budget: Some(0), ..HomConfig::default() };
        let mut stats = HomStats::default();
        assert_eq!(find_iso(&a, &b, &cfg, &mut stats), Err(Exhausted::Nodes(0)));
        assert_eq!(stats.nodes, 1, "the cut attempt is accounted");
        // A size mismatch is decided before any search, at any budget.
        let smaller = inst(&[(0, &[n(7), n(9)])]);
        assert_eq!(find_iso(&a, &smaller, &cfg, &mut stats), Ok(None));
    }
}

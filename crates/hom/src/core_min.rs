//! Cores: minimum retracts of instances.
//!
//! The **core** of an instance `I` is a minimal sub-instance `C ⊆ I`
//! with `I → C`. Cores are unique up to isomorphism and give canonical
//! representatives of homomorphic-equivalence classes — the natural
//! normal form for the paper's framework, where chase-inverses recover
//! sources only up to homomorphic equivalence (Theorem 3.17) and
//! extended universal solutions are compared by `→` (Definition 3.5).
//!
//! The algorithm repeatedly looks for a homomorphism from `I` into
//! `I ∖ {f}` for some fact `f`; if one exists, the image is a strictly
//! smaller hom-equivalent sub-instance and we recurse. When no single
//! fact can be dropped, no proper sub-instance admits a homomorphism at
//! all (any such sub-instance is contained in some `I ∖ {f}`), so the
//! result is the core.
//!
//! **Implementation.** [`core_of`] works on a single mutable copy of the
//! input: per round it compiles the current instance into a
//! [`CompiledPattern`] once, and per candidate fact `f` it removes `f`
//! in place ([`Instance::remove_fact`], O(arity)), matches the pattern —
//! which still contains `f`'s atom — against the reduced instance
//! (exactly the `I → I ∖ {f}` test), and either reinserts `f` on
//! failure or drops the non-image facts in place on success. This
//! replaces the two quadratic steps of the textbook loop (a full
//! `without_fact` rebuild per candidate and a full `apply_instance`
//! rebuild per fold), which survives as [`core_of_quadratic`] for
//! differential tests and the `BENCH_hom` baseline.

use rde_model::fx::FxHashSet;
use rde_model::{Fact, Instance, Substitution};

use crate::search::{find_hom, instance_pattern, HomConfig, HomStats};
use crate::verdict::Exhausted;

/// A core and a retraction onto it.
#[derive(Debug, Clone)]
pub struct CoreResult {
    /// The core: a sub-instance of the input, hom-equivalent to it.
    pub core: Instance,
    /// A homomorphism from the input onto the core (the composition of
    /// the folding steps). Identity on the core's own values.
    pub retraction: Substitution,
}

/// Result of [`core_of`]: the (possibly partial) minimization, the
/// aggregated search work, and the budget that cut a fold test, if any.
#[derive(Debug, Clone)]
pub struct CoreOutcome {
    /// The minimized instance and retraction. When [`Self::exhausted`]
    /// is set this is still a sound retract of the input (hom-equivalent
    /// sub-instance), just not necessarily minimal.
    pub result: CoreResult,
    /// Aggregated homomorphism-search counters over all fold tests.
    pub stats: HomStats,
    /// `Some` when a budget cut a fold test short (the first such cut),
    /// as on [`SearchReport`](crate::SearchReport); `None` means the
    /// result really is the core.
    pub exhausted: Option<Exhausted>,
}

/// Compute the core of `instance` under per-search budgets.
///
/// Worst-case exponential (it performs homomorphism searches), but fast
/// on chase results, whose redundancy is shallow. A fold test cut short
/// by the budget is conservatively treated as "cannot fold" — the
/// returned instance is then a hom-equivalent retract of the input but
/// possibly not minimal, and [`CoreOutcome::exhausted`] names the cut.
/// Folding steps preserve hom-equivalence individually, so partial
/// minimization is still sound wherever only the equivalence class
/// matters (e.g. the arrow cache).
pub fn core_of(instance: &Instance, config: &HomConfig) -> CoreOutcome {
    let span = rde_obs::span("hom.core_min", &[("facts_in", instance.len().into())]);
    let mut current = instance.clone();
    let mut retraction = Substitution::new();
    let mut stats = HomStats::default();
    let mut exhausted = None;
    let mut attempts: u64 = 0;
    let mut folds: u64 = 0;
    'outer: loop {
        // Only facts containing nulls can ever be folded away: an
        // all-constant fact must map to itself. The pattern is compiled
        // once per round; within a round failed candidates are
        // reinserted, so it stays an exact picture of `current`.
        let round_facts: Vec<Fact> = current.facts().collect();
        let (pattern, var_nulls) = instance_pattern(&current);
        let candidates: Vec<&Fact> = round_facts.iter().filter(|f| f.has_null()).collect();
        for f in candidates {
            attempts += 1;
            current.remove_fact(f);
            let mut witness: Option<Vec<Option<rde_model::Value>>> = None;
            let report = pattern.for_each_match(&current, &[], config, |assignment| {
                witness = Some(assignment.to_vec());
                false
            });
            stats += report.stats;
            if let Some(assignment) = witness {
                let h: Substitution = var_nulls
                    .iter()
                    .zip(&assignment)
                    .map(|(&n, v)| (n, v.expect("full match binds every null")))
                    .collect();
                // The image h(I) ⊆ I ∖ {f}: drop everything outside it
                // in place instead of rebuilding the instance.
                let image: FxHashSet<Fact> =
                    round_facts.iter().map(|g| g.map_values(|v| h.apply(v))).collect();
                for g in &round_facts {
                    if !image.contains(g) {
                        current.remove_fact(g);
                    }
                }
                retraction = retraction.then(&h);
                folds += 1;
                continue 'outer;
            }
            exhausted = exhausted.or(report.exhausted);
            current.insert(f.clone());
        }
        rde_obs::counter!("hom.core.fold_attempts").add(attempts);
        rde_obs::counter!("hom.core.folds").add(folds);
        span.close_with(&[
            ("facts_out", current.len().into()),
            ("attempts", attempts.into()),
            ("folds", folds.into()),
            ("nodes", stats.nodes.into()),
            ("complete", exhausted.is_none().into()),
        ]);
        let result = CoreResult { core: current, retraction };
        return CoreOutcome { result, stats, exhausted };
    }
}

/// Reference implementation of [`core_of`]: the textbook loop that
/// rebuilds `I ∖ {f}` per candidate and `h(I)` per fold. Kept for
/// differential testing and as the "before" side of the `BENCH_hom`
/// core-minimization baseline; use [`core_of`] everywhere else.
pub fn core_of_quadratic(instance: &Instance) -> CoreResult {
    let mut current = instance.clone();
    let mut retraction = Substitution::new();
    'outer: loop {
        let candidates: Vec<_> = current.facts().filter(|f| f.has_null()).collect();
        for f in candidates {
            let smaller = current.without_fact(&f);
            let (cfg, mut stats) = (HomConfig::default(), HomStats::default());
            if let Ok(Some(h)) =
                find_hom(&current, &smaller, &Substitution::new(), &cfg, &mut stats)
            {
                current = h.apply_instance(&current);
                retraction = retraction.then(&h);
                continue 'outer;
            }
        }
        return CoreResult { core: current, retraction };
    }
}

/// Is `instance` its own core (no homomorphism into a proper
/// sub-instance)?
pub fn is_core(instance: &Instance) -> bool {
    let (pattern, _) = instance_pattern(instance);
    let mut current = instance.clone();
    let candidates: Vec<Fact> = instance.facts().filter(|f| f.has_null()).collect();
    for f in candidates {
        current.remove_fact(&f);
        let mut found = false;
        pattern.for_each_match(&current, &[], &HomConfig::default(), |_| {
            found = true;
            false
        });
        current.insert(f);
        if found {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{find_iso, hom_equivalent};
    use rde_model::{ConstId, Fact, NullId, RelId, Value};

    fn c(i: u32) -> Value {
        Value::Const(ConstId(i))
    }
    fn n(i: u32) -> Value {
        Value::Null(NullId(i))
    }
    fn inst(facts: &[(u32, &[Value])]) -> Instance {
        facts.iter().map(|(r, args)| Fact::new(RelId(*r), args.to_vec())).collect()
    }
    fn core(i: &Instance) -> CoreResult {
        core_of(i, &HomConfig::default()).result
    }
    fn equivalent(a: &Instance, b: &Instance) -> bool {
        hom_equivalent(a, b, &HomConfig::default(), &mut HomStats::default()).holds()
    }

    #[test]
    fn ground_instances_are_their_own_core() {
        let i = inst(&[(0, &[c(0), c(1)]), (1, &[c(2)])]);
        assert!(is_core(&i));
        let r = core(&i);
        assert_eq!(r.core, i);
        assert!(r.retraction.is_empty());
    }

    #[test]
    fn redundant_null_fact_is_folded() {
        // {P(a,b), P(a,X)} has core {P(a,b)}.
        let i = inst(&[(0, &[c(0), c(1)]), (0, &[c(0), n(0)])]);
        assert!(!is_core(&i));
        let r = core(&i);
        assert_eq!(r.core, inst(&[(0, &[c(0), c(1)])]));
        assert_eq!(r.retraction.apply(n(0)), c(1));
        assert!(equivalent(&i, &r.core));
    }

    #[test]
    fn non_redundant_nulls_survive() {
        // {Q(a,X), Q(X,b)} is a core: dropping either fact loses structure.
        let i = inst(&[(0, &[c(0), n(0)]), (0, &[n(0), c(1)])]);
        assert!(is_core(&i));
        assert_eq!(core(&i).core, i);
    }

    #[test]
    fn null_chain_folds_onto_constant_cycle() {
        // Edges with fresh nulls alongside a constant loop: everything
        // folds onto the loop.
        let i =
            inst(&[(0, &[c(0), c(0)]), (0, &[n(0), n(1)]), (0, &[n(1), n(2)]), (0, &[n(2), n(0)])]);
        let r = core(&i);
        assert_eq!(r.core, inst(&[(0, &[c(0), c(0)])]));
        assert!(equivalent(&i, &r.core));
    }

    #[test]
    fn retraction_maps_input_onto_core() {
        let i =
            inst(&[(0, &[c(0), n(0)]), (0, &[c(0), c(1)]), (1, &[n(0), n(1)]), (1, &[c(1), n(2)])]);
        let r = core(&i);
        assert!(is_core(&r.core));
        assert!(equivalent(&i, &r.core));
        assert_eq!(r.retraction.apply_instance(&i), r.core);
        assert!(r.core.is_subset_of(&i));
    }

    #[test]
    fn all_null_clique_has_singleton_loop_core() {
        // Complete directed graph on two nulls including self-loops:
        // core is a single loop on one null.
        let i =
            inst(&[(0, &[n(0), n(0)]), (0, &[n(0), n(1)]), (0, &[n(1), n(0)]), (0, &[n(1), n(1)])]);
        let r = core(&i);
        assert_eq!(r.core.len(), 1);
        assert!(equivalent(&i, &r.core));
    }

    #[test]
    fn empty_instance_core() {
        let r = core(&Instance::new());
        assert!(r.core.is_empty());
        assert!(is_core(&Instance::new()));
    }

    #[test]
    fn incremental_agrees_with_quadratic_reference() {
        // Cores are unique up to isomorphism; the two implementations
        // may pick different (isomorphic) sub-instances.
        let cases = [
            inst(&[(0, &[c(0), c(1)]), (0, &[c(0), n(0)])]),
            inst(&[(0, &[c(0), n(0)]), (0, &[n(0), c(1)])]),
            inst(&[(0, &[c(0), c(0)]), (0, &[n(0), n(1)]), (0, &[n(1), n(2)]), (0, &[n(2), n(0)])]),
            inst(&[(0, &[n(0), n(0)]), (0, &[n(0), n(1)]), (0, &[n(1), n(0)]), (0, &[n(1), n(1)])]),
            inst(&[(0, &[c(0), n(0)]), (0, &[c(0), c(1)]), (1, &[n(0), n(1)]), (1, &[c(1), n(2)])]),
            Instance::new(),
        ];
        for i in &cases {
            let fast = core(i);
            let slow = core_of_quadratic(i);
            let iso =
                find_iso(&fast.core, &slow.core, &HomConfig::default(), &mut HomStats::default());
            assert!(iso.unwrap().is_some(), "{i:?}");
            assert_eq!(slow.retraction.apply_instance(i), slow.core);
            assert_eq!(fast.retraction.apply_instance(i), fast.core);
        }
    }

    #[test]
    fn budgeted_core_degrades_to_a_sound_retract() {
        let i =
            inst(&[(0, &[c(0), c(0)]), (0, &[n(0), n(1)]), (0, &[n(1), n(2)]), (0, &[n(2), n(0)])]);
        // Unbounded: complete, minimal.
        let full = core_of(&i, &HomConfig::default());
        assert_eq!(full.exhausted, None);
        assert!(full.stats.nodes > 0);
        assert!(is_core(&full.result.core));
        // Budget 0: nothing can be tested, so nothing folds — but the
        // result is still a sound (here: trivial) retract.
        let cfg = HomConfig { node_budget: Some(0), ..HomConfig::default() };
        let cut = core_of(&i, &cfg);
        assert_eq!(cut.exhausted, Some(Exhausted::Nodes(0)));
        assert_eq!(cut.result.core, i);
        assert!(equivalent(&i, &cut.result.core));
    }
}

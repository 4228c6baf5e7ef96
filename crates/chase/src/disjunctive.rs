//! The disjunctive chase (Section 6 of the paper).
//!
//! Chasing with a disjunctive tgd "branches out several instances, each
//! satisfying one of the disjuncts of the dependency that is applied";
//! the result is a *set* of instances. When the dependencies go from the
//! target schema back to the source schema — the maximum extended
//! recoveries of Theorem 5.1 — the leaf set
//! `chase_M′(chase_M(I)) = {V₁, …, Vₖ}` is exactly the object that
//! universal-faithfulness (Definition 6.1) and reverse certain answers
//! (Theorem 6.5) are stated about.

use rde_deps::Dependency;
use rde_faults::ExecContext;
use rde_hom::{HomConfig, HomStats};
use rde_model::fx::FxHashSet;
use rde_model::{Instance, Value, Vocabulary};

use crate::plan::DependencyPlan;
use crate::ChaseError;

/// Budgets and pruning switches for the disjunctive chase.
#[derive(Debug, Clone)]
pub struct DisjunctiveChaseOptions {
    /// Maximum simultaneous branches (the frontier). The number of
    /// leaves is exponential in the number of disjunctive triggers, so
    /// this is the main safety valve.
    pub max_branches: usize,
    /// Maximum facts per branch.
    pub max_facts: usize,
    /// Maximum chase steps (trigger firings across all branches).
    pub max_steps: u64,
    /// Drop a leaf `V` when another kept leaf `W` satisfies `W → V`:
    /// such a `V` is redundant for the universality condition (3) of
    /// Definition 6.1 (any `I′` it reaches, `W` reaches through it) and
    /// harmless to conditions (1)–(2). Off by default because
    /// Definition 6.1 is stated on the raw leaf set.
    pub prune_subsumed: bool,
    /// Scoped execution context. Its cancel token is polled once per
    /// branch popped off the work list (the reverse chase branches
    /// exponentially, so per-branch granularity bounds the overshoot);
    /// its fault injector drives the `chase.disj.branch` injection
    /// point. A cancelled run returns [`ChaseError::Cancelled`]. Inert
    /// by default.
    pub ctx: ExecContext,
}

impl Default for DisjunctiveChaseOptions {
    fn default() -> Self {
        DisjunctiveChaseOptions {
            max_branches: 65_536,
            max_facts: 1_000_000,
            max_steps: 1_000_000,
            prune_subsumed: false,
            ctx: ExecContext::default(),
        }
    }
}

/// Result of a disjunctive chase.
#[derive(Debug, Clone)]
pub struct DisjunctiveChaseResult {
    /// The leaf instances `{V₁, …, Vₖ}` over the combined schema
    /// (input facts plus generated facts), exact duplicates removed.
    pub leaves: Vec<Instance>,
    /// Total trigger firings.
    pub steps: u64,
    /// Leaves dropped by subsumption pruning (0 unless enabled).
    pub pruned: usize,
}

struct Branch {
    instance: Instance,
    fired: FxHashSet<(usize, Vec<Value>)>,
}

/// Run the disjunctive chase of `instance` with `dependencies`.
///
/// A trigger (dependency + premise match whose guards hold) *needs
/// firing* in a branch when no disjunct's conclusion is already
/// witnessed there; firing replaces the branch by one child per
/// disjunct. Deterministic: triggers are processed in dependency order,
/// then premise-match order.
pub fn disjunctive_chase(
    instance: &Instance,
    dependencies: &[Dependency],
    vocab: &mut Vocabulary,
    options: &DisjunctiveChaseOptions,
) -> Result<DisjunctiveChaseResult, ChaseError> {
    // Compiled once and shared by every branch.
    let plans: Vec<DependencyPlan> = dependencies.iter().map(DependencyPlan::compile).collect();
    let mut steps: u64 = 0;
    let mut work = vec![Branch { instance: instance.clone(), fired: FxHashSet::default() }];
    let mut leaves: Vec<Instance> = Vec::new();

    while let Some(branch) = work.pop() {
        // Per-branch cancellation and fault injection: the branching
        // loop is the disjunctive chase's hot loop, mirroring the
        // standard chase's per-round check.
        if options.ctx.should_inject("chase.disj.branch") || options.ctx.is_cancelled() {
            rde_obs::counter!("chase.disj.cancelled").inc();
            rde_obs::event("chase.disj.cancelled", &[("steps", steps.into())]);
            return Err(ChaseError::Cancelled);
        }
        match next_trigger(&branch, &plans) {
            None => leaves.push(branch.instance),
            Some((di, vals)) => {
                steps += 1;
                if steps > options.max_steps {
                    return Err(ChaseError::RoundBudgetExhausted { rounds: options.max_steps });
                }
                let key = (di, vals.clone());
                for template in plans[di].templates() {
                    let fresh: Vec<Value> = (0..template.num_existentials())
                        .map(|_| Value::Null(vocab.fresh_null()))
                        .collect();
                    let mut child_instance = branch.instance.clone();
                    template.instantiate(&vals, &fresh, |fact| {
                        child_instance.insert(fact);
                    });
                    if child_instance.len() > options.max_facts {
                        return Err(ChaseError::FactBudgetExhausted { facts: options.max_facts });
                    }
                    let mut child_fired = branch.fired.clone();
                    child_fired.insert(key.clone());
                    work.push(Branch { instance: child_instance, fired: child_fired });
                    if work.len() + leaves.len() > options.max_branches {
                        return Err(ChaseError::BranchBudgetExhausted {
                            branches: options.max_branches,
                        });
                    }
                }
            }
        }
    }

    // Exact-duplicate removal (set semantics of the leaf set).
    let mut seen: FxHashSet<Instance> = FxHashSet::default();
    let mut unique: Vec<Instance> = Vec::new();
    for leaf in leaves {
        if seen.insert(leaf.clone()) {
            unique.push(leaf);
        }
    }

    let mut pruned = 0;
    if options.prune_subsumed {
        let mut kept: Vec<Instance> = Vec::new();
        'next: for (i, v) in unique.iter().enumerate() {
            for (j, w) in unique.iter().enumerate() {
                if i != j && rde_hom::exists_hom(w, v) {
                    // Keep the hom-smaller one; break ties by index to
                    // keep exactly one of a mutually-equivalent pair.
                    let mutually = rde_hom::exists_hom(v, w);
                    if !mutually || j < i {
                        pruned += 1;
                        continue 'next;
                    }
                }
            }
            kept.push(v.clone());
        }
        unique = kept;
    }

    Ok(DisjunctiveChaseResult { leaves: unique, steps, pruned })
}

/// First unfired, unsatisfied trigger of one dependency in a branch.
fn first_trigger(di: usize, plan: &DependencyPlan, branch: &Branch) -> Option<Vec<Value>> {
    let mut found: Option<Vec<Value>> = None;
    plan.premise().for_each_match(&branch.instance, |vals| {
        if branch.fired.contains(&(di, vals.to_vec())) {
            return true;
        }
        // Satisfaction check: skip if some disjunct already holds.
        let mut stats = HomStats::default();
        if plan.witnessed(&branch.instance, vals, &HomConfig::default(), &mut stats).holds() {
            return true;
        }
        found = Some(vals.to_vec());
        false
    });
    found
}

/// Find the first unfired, unsatisfied trigger in a branch:
/// lowest dependency index, then premise-match order.
fn next_trigger(branch: &Branch, plans: &[DependencyPlan]) -> Option<(usize, Vec<Value>)> {
    plans.iter().enumerate().find_map(|(di, p)| first_trigger(di, p, branch).map(|vals| (di, vals)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rde_chase_test_util::*;
    use rde_deps::{parse_dependency, parse_mapping};
    use rde_model::parse::parse_instance;

    /// Tiny local helpers (kept in a module so the name is explicit).
    mod rde_chase_test_util {
        pub use rde_hom::hom_equivalent;
    }

    fn run(
        deps: &[&str],
        instance: &str,
        options: &DisjunctiveChaseOptions,
    ) -> (Vocabulary, Vec<Instance>) {
        let mut v = Vocabulary::new();
        let parsed: Vec<Dependency> =
            deps.iter().map(|d| parse_dependency(&mut v, d).unwrap()).collect();
        let i = parse_instance(&mut v, instance).unwrap();
        let r = disjunctive_chase(&i, &parsed, &mut v, options).unwrap();
        (v, r.leaves)
    }

    #[test]
    fn non_disjunctive_dependencies_give_one_leaf() {
        let (_, leaves) =
            run(&["Q(x, y) -> P(x, y)"], "Q(a, b)\nQ(b, c)", &DisjunctiveChaseOptions::default());
        assert_eq!(leaves.len(), 1);
        assert_eq!(leaves[0].len(), 4);
    }

    #[test]
    fn union_recovery_branches_per_fact() {
        // R(x) -> P(x) | Q(x): with two R facts, 4 leaves.
        let (_, leaves) =
            run(&["R(x) -> P(x) | Q(x)"], "R(a)\nR(b)", &DisjunctiveChaseOptions::default());
        assert_eq!(leaves.len(), 4);
        for leaf in &leaves {
            // Every leaf keeps the input and adds one choice per R fact.
            assert_eq!(leaf.len(), 4);
        }
    }

    #[test]
    fn satisfaction_check_prunes_redundant_branching() {
        // If P(a) is already present, the trigger for R(a) is satisfied:
        // no branching happens at all.
        let (_, leaves) =
            run(&["R(x) -> P(x) | Q(x)"], "R(a)\nP(a)", &DisjunctiveChaseOptions::default());
        assert_eq!(leaves.len(), 1);
        assert_eq!(leaves[0].len(), 2);
    }

    #[test]
    fn existentials_in_disjuncts_get_fresh_nulls() {
        let (_, leaves) = run(
            &["R(x) -> exists y . P(x, y) | exists z . Q(z, x)"],
            "R(a)",
            &DisjunctiveChaseOptions::default(),
        );
        assert_eq!(leaves.len(), 2);
        assert!(leaves.iter().all(|l| l.nulls().len() == 1));
    }

    #[test]
    fn theorem_5_2_recovery_chase() {
        // Σ* from Theorem 5.2:
        //   P'(x, y) & x != y -> P(x, y)
        //   P'(x, x) -> T(x) | P(x, x)
        // Chasing U = {P'(a,a), P'(a,b)}:
        //   deterministic part adds P(a,b); the loop branches T(a) | P(a,a).
        let (v, leaves) = run(
            &["Pp(x, y) & x != y -> P(x, y)", "Pp(x, x) -> T(x) | P(x, x)"],
            "Pp(a, a)\nPp(a, b)",
            &DisjunctiveChaseOptions::default(),
        );
        assert_eq!(leaves.len(), 2);
        let p = v.find_relation("P").unwrap();
        let t = v.find_relation("T").unwrap();
        let has = |i: &Instance, r, n: usize| i.relation(r).map_or(0, |d| d.len()) == n;
        assert!(leaves.iter().any(|l| has(l, t, 1) && has(l, p, 1)));
        assert!(leaves.iter().any(|l| has(l, t, 0) && has(l, p, 2)));
    }

    #[test]
    fn duplicate_leaves_are_merged() {
        // Both disjuncts produce the same instance.
        let (_, leaves) =
            run(&["R(x) -> P(x) | P(x)"], "R(a)", &DisjunctiveChaseOptions::default());
        assert_eq!(leaves.len(), 1);
    }

    #[test]
    fn subsumption_pruning_keeps_general_leaves() {
        // R(x) -> P(x,x) | exists y . P(x,y):
        // leaf {P(a,a)} is reached by leaf {P(a,Y)} via Y ↦ a.
        let opts = DisjunctiveChaseOptions { prune_subsumed: true, ..Default::default() };
        let (v, leaves) = run(&["R(x) -> P(x, x) | exists y . P(x, y)"], "R(a)", &opts);
        assert_eq!(leaves.len(), 1);
        let p = v.find_relation("P").unwrap();
        let args: Vec<_> = leaves[0].relation(p).unwrap().tuples().next().unwrap().to_vec();
        assert!(args[1].is_null(), "the general (null) leaf must be the survivor");
    }

    #[test]
    fn branch_budget_is_enforced() {
        let opts = DisjunctiveChaseOptions { max_branches: 3, ..Default::default() };
        let mut v = Vocabulary::new();
        let d = parse_dependency(&mut v, "R(x) -> P(x) | Q(x)").unwrap();
        let i = parse_instance(&mut v, "R(a)\nR(b)\nR(c)").unwrap();
        let err = disjunctive_chase(&i, &[d], &mut v, &opts).unwrap_err();
        assert_eq!(err, ChaseError::BranchBudgetExhausted { branches: 3 });
    }

    #[test]
    fn reverse_exchange_leaves_restrict_to_source() {
        // End-to-end shape: forward chase with M, then disjunctive
        // reverse chase, restricting leaves to the source schema.
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/1, Q/1\ntarget: R/1\nP(x) -> R(x)\nQ(x) -> R(x)")
            .unwrap();
        let i = parse_instance(&mut v, "P(a)").unwrap();
        let u = crate::chase_mapping(&i, &m, &mut v, &crate::ChaseOptions::default()).unwrap();
        let rec = parse_dependency(&mut v, "R(x) -> P(x) | Q(x)").unwrap();
        let r = disjunctive_chase(&u, &[rec], &mut v, &DisjunctiveChaseOptions::default()).unwrap();
        let leaves: Vec<Instance> = r.leaves.iter().map(|l| l.restrict_to(&m.source)).collect();
        assert_eq!(leaves.len(), 2);
        let expected_p = parse_instance(&mut v, "P(a)").unwrap();
        let expected_q = parse_instance(&mut v, "Q(a)").unwrap();
        assert!(leaves.contains(&expected_p));
        assert!(leaves.contains(&expected_q));
        assert!(hom_equivalent(&leaves[0], &leaves[0]));
    }
}

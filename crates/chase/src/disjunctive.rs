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

use std::hash::{Hash, Hasher};
use std::rc::Rc;

use rde_deps::Dependency;
use rde_hom::{Exhausted, HomConfig, HomStats, Verdict};
use rde_model::fx::{FxHashMap, FxHasher};
use rde_model::{Instance, RelId, RowSet, Substitution, Value, Vocabulary};

use crate::plan::{never_witnessed, DependencyPlan, FiringTemplate};
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
    /// Budgets and execution context for every homomorphism search the
    /// run makes: premise enumeration, the satisfaction test that
    /// decides whether a trigger needs firing, and subsumption pruning.
    /// A search cut short returns [`ChaseError::MatchBudgetExhausted`]:
    /// an undecided satisfaction test is never read as "unwitnessed",
    /// which would branch unsoundly. The context's cancel token is also
    /// polled once per branch popped off the work list (the reverse
    /// chase branches exponentially, so per-branch granularity bounds
    /// the overshoot), and its fault injector drives the
    /// `chase.disj.branch` and `hom.search.exhaust` injection points. A
    /// cancelled run returns [`ChaseError::Cancelled`]. Unbounded and
    /// inert by default.
    pub hom: HomConfig,
}

impl Default for DisjunctiveChaseOptions {
    fn default() -> Self {
        DisjunctiveChaseOptions {
            max_branches: 65_536,
            max_facts: 1_000_000,
            max_steps: 1_000_000,
            prune_subsumed: false,
            hom: HomConfig::default(),
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

/// One dependency's premise matches in a branch, in enumeration
/// order, minus the triggers already fired there. Shared (behind an
/// `Rc`) by every descendant branch until a firing adds a fact to one
/// of the dependency's premise relations.
struct Matches {
    /// Slot assignments, `width` values each, back to back.
    vals: Vec<Value>,
    width: usize,
    len: usize,
    /// The budget that cut the enumeration after the listed matches:
    /// the list is a valid but incomplete prefix.
    cut: Option<Exhausted>,
}

impl Matches {
    /// Enumerate `plan`'s premise matches in `instance`, skipping the
    /// triggers in `fired`.
    fn enumerate(
        plan: &DependencyPlan,
        instance: &Instance,
        fired: &RowSet,
        config: &HomConfig,
    ) -> Self {
        let mut vals = Vec::new();
        let mut len = 0;
        let report = plan.premise().for_each_match(instance, config, |m| {
            if fired.find(m).is_none() {
                vals.extend_from_slice(m);
                len += 1;
            }
            true
        });
        Matches { vals, width: plan.premise().num_vars(), len, cut: report.exhausted }
    }

    fn get(&self, i: usize) -> &[Value] {
        &self.vals[i * self.width..(i + 1) * self.width]
    }
}

/// A dependency's trigger state in one branch: its matches (`None`
/// until enumerated, and again once a firing adds a fact to a premise
/// relation) and a cursor. Every match before the cursor is fired or
/// witnessed in the branch; both are monotone as the branch grows, so
/// the cursor never moves back.
#[derive(Clone, Default)]
struct TriggerCursor {
    matches: Option<Rc<Matches>>,
    next: usize,
}

#[derive(Clone)]
struct Branch {
    instance: Instance,
    /// Fired triggers per dependency, keyed by premise slot assignment.
    fired: Vec<RowSet>,
    cursors: Vec<TriggerCursor>,
}

impl Branch {
    /// Copy the first unfired, unwitnessed trigger of dependency `di`
    /// into `trigger` (`Ok(false)` if there is none), or return the
    /// budget that cut a search before the answer was known. The same
    /// trigger a fresh enumeration of the branch would find: premise
    /// enumeration order depends only on the premise relations' data,
    /// and the matches are re-enumerated whenever that data grows.
    /// Unless `checked`, every witness check of the dependency provably
    /// fails ([`never_witnessed`]): the trigger at the cursor is taken
    /// without one, and the skipped check counted in `skipped`.
    fn first_trigger(
        &mut self,
        di: usize,
        plan: &DependencyPlan,
        checked: bool,
        config: &HomConfig,
        trigger: &mut Vec<Value>,
        skipped: &mut u64,
    ) -> Result<bool, Exhausted> {
        let cursor = &mut self.cursors[di];
        let matches = match &cursor.matches {
            Some(m) => Rc::clone(m),
            None => {
                let m = Rc::new(Matches::enumerate(plan, &self.instance, &self.fired[di], config));
                *cursor = TriggerCursor { matches: Some(Rc::clone(&m)), next: 0 };
                m
            }
        };
        let mut stats = HomStats::default();
        // Node budgets are per search, and a witness search over a grown
        // branch may need more nodes than the one that first found the
        // witness. The rescanning chase re-ran those searches at every
        // step, so under a node budget they are re-run here too: a cut
        // re-check stays the error it always was. (An unchecked
        // dependency has none: it passes only the triggers it fires.)
        if checked && config.node_budget.is_some() {
            let fired = &self.fired[di];
            for vals in (0..cursor.next).map(|i| matches.get(i)).filter(|v| fired.find(v).is_none())
            {
                if let Verdict::Unknown { budget } =
                    plan.witnessed(&self.instance, vals, config, &mut stats)
                {
                    return Err(budget);
                }
            }
        }
        // Matches at or past the cursor are unfired: the list was
        // filtered when enumerated, and this dependency fires only the
        // match at its cursor.
        while cursor.next < matches.len {
            let vals = matches.get(cursor.next);
            let verdict = if checked {
                plan.witnessed(&self.instance, vals, config, &mut stats)
            } else {
                *skipped += 1;
                Verdict::Fails
            };
            match verdict {
                Verdict::Holds => cursor.next += 1,
                Verdict::Fails => {
                    trigger.clear();
                    trigger.extend_from_slice(vals);
                    return Ok(true);
                }
                Verdict::Unknown { budget } => return Err(budget),
            }
        }
        match matches.cut {
            Some(budget) => Err(budget),
            None => Ok(false),
        }
    }

    /// Find the first unfired, unwitnessed trigger in the branch:
    /// lowest dependency index, then premise-match order. Its dependency
    /// is returned and its key copied into `trigger`. `checked[di]`:
    /// does dependency `di` run its witness checks?
    fn next_trigger(
        &mut self,
        plans: &[DependencyPlan],
        checked: &[bool],
        config: &HomConfig,
        trigger: &mut Vec<Value>,
        skipped: &mut u64,
    ) -> Result<Option<usize>, Exhausted> {
        for (di, plan) in plans.iter().enumerate() {
            if self.first_trigger(di, plan, checked[di], config, trigger, skipped)? {
                return Ok(Some(di));
            }
        }
        Ok(None)
    }

    /// Insert the fact `rel(args)`; a new one stales the matches of
    /// every dependency whose premise reads its relation.
    fn insert(&mut self, rel: RelId, args: &[Value], readers: &FxHashMap<RelId, Vec<usize>>) {
        if self.instance.insert_args(rel, args) {
            for &di in readers.get(&rel).into_iter().flatten() {
                self.cursors[di].matches = None;
            }
        }
    }
}

/// Run the disjunctive chase of `instance` with `dependencies`.
///
/// A trigger (dependency + premise match whose guards hold) *needs
/// firing* in a branch when no disjunct's conclusion is already
/// witnessed there; firing replaces the branch by one child per
/// disjunct. Deterministic: triggers are processed in dependency order,
/// then premise-match order. A dependency whose witness checks provably
/// fail fires its triggers without them (DESIGN.md §17), and the
/// `chase.disj.checks_skipped` counter counts the checks skipped.
///
/// Each branch keeps one trigger cursor per dependency, so a step
/// resumes where the previous one stopped instead of re-enumerating
/// every premise; the last child of a step takes the parent branch by
/// move, so a single-disjunct step copies nothing.
pub fn disjunctive_chase(
    instance: &Instance,
    dependencies: &[Dependency],
    vocab: &mut Vocabulary,
    options: &DisjunctiveChaseOptions,
) -> Result<DisjunctiveChaseResult, ChaseError> {
    // Compiled once and shared by every branch.
    let plans: Vec<DependencyPlan> = dependencies.iter().map(DependencyPlan::compile).collect();
    // Per dependency: do its triggers need a witness check? Not where
    // every check provably fails (DESIGN.md §17).
    let checked: Vec<bool> =
        never_witnessed(dependencies, instance).into_iter().map(|never| !never).collect();
    let mut checks_skipped = 0;
    let branched = branch_out(instance, &plans, &checked, vocab, options, &mut checks_skipped);
    if checks_skipped > 0 {
        rde_obs::counter!("chase.disj.checks_skipped").add(checks_skipped);
    }
    let (leaves, steps) = branched?;

    // Exact-duplicate removal (set semantics of the leaf set), keeping
    // first occurrences: leaves sharing a fingerprint are compared on
    // their indexes.
    let mut by_fingerprint: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
    let mut unique: Vec<Instance> = Vec::with_capacity(leaves.len());
    for leaf in leaves {
        let mut h = FxHasher::default();
        leaf.hash(&mut h);
        let same = by_fingerprint.entry(h.finish()).or_default();
        if !same.iter().any(|&i| unique[i] == leaf) {
            same.push(unique.len());
            unique.push(leaf);
        }
    }

    let mut pruned = 0;
    if options.prune_subsumed {
        let mut stats = HomStats::default();
        let mut arrow = |from: &Instance, to: &Instance| {
            rde_hom::find_hom(from, to, &Substitution::new(), &options.hom, &mut stats)
                .map(|hom| hom.is_some())
                .map_err(|budget| cut(budget, steps))
        };
        let mut kept: Vec<Instance> = Vec::new();
        'next: for (i, v) in unique.iter().enumerate() {
            for (j, w) in unique.iter().enumerate() {
                if i != j && arrow(w, v)? {
                    // Keep the hom-smaller one; break ties by index to
                    // keep exactly one of a mutually-equivalent pair.
                    let mutually = arrow(v, w)?;
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

/// Chase every branch to a leaf: the leaves in the order they are
/// reached, and the steps taken. Witness checks skipped for the
/// dependencies that are not `checked` add to `checks_skipped`, also
/// when the run fails.
fn branch_out(
    instance: &Instance,
    plans: &[DependencyPlan],
    checked: &[bool],
    vocab: &mut Vocabulary,
    options: &DisjunctiveChaseOptions,
    checks_skipped: &mut u64,
) -> Result<(Vec<Instance>, u64), ChaseError> {
    // The dependencies whose premise reads each relation: a new fact
    // there stales their matches.
    let mut readers: FxHashMap<RelId, Vec<usize>> = FxHashMap::default();
    for (di, plan) in plans.iter().enumerate() {
        let premise = plan.premise();
        for i in 0..premise.num_atoms() {
            readers.entry(premise.atom_rel(i)).or_default().push(di);
        }
    }
    let mut steps: u64 = 0;
    let mut work = vec![Branch {
        instance: instance.clone(),
        fired: plans.iter().map(|p| RowSet::new(p.premise().num_vars())).collect(),
        cursors: vec![TriggerCursor::default(); plans.len()],
    }];
    let mut leaves: Vec<Instance> = Vec::new();
    // Reused by every step: the trigger key, its fresh nulls and the
    // conclusion atom being inserted.
    let mut vals: Vec<Value> = Vec::new();
    let mut fresh: Vec<Value> = Vec::new();
    let mut atom_buf: Vec<Value> = Vec::new();

    while let Some(mut branch) = work.pop() {
        // Per-branch cancellation and fault injection: the branching
        // loop is the disjunctive chase's hot loop, mirroring the
        // standard chase's per-round check.
        let ctx = &options.hom.ctx;
        if ctx.should_inject("chase.disj.branch") || ctx.is_cancelled() {
            return Err(cut(Exhausted::Cancelled, steps));
        }
        let Some(di) = branch
            .next_trigger(plans, checked, &options.hom, &mut vals, checks_skipped)
            .map_err(|b| cut(b, steps))?
        else {
            leaves.push(branch.instance);
            continue;
        };
        steps += 1;
        if steps > options.max_steps {
            return Err(ChaseError::RoundBudgetExhausted { rounds: options.max_steps });
        }
        // Every child fires the trigger, so record it before they split.
        branch.cursors[di].next += 1;
        branch.fired[di].insert(&vals);
        // One child per disjunct, pushed (and allocating fresh nulls) in
        // disjunct order; the last takes the parent instead of a copy.
        let mut spawn = |mut child: Branch, template: &FiringTemplate| {
            fresh.clear();
            fresh.extend((0..template.num_existentials()).map(|_| Value::Null(vocab.fresh_null())));
            template.instantiate_into(&vals, &fresh, &mut atom_buf, |rel, args| {
                child.insert(rel, args, &readers);
                true
            });
            if child.instance.len() > options.max_facts {
                return Err(ChaseError::FactBudgetExhausted { facts: options.max_facts });
            }
            work.push(child);
            if work.len() + leaves.len() > options.max_branches {
                return Err(ChaseError::BranchBudgetExhausted { branches: options.max_branches });
            }
            Ok(())
        };
        if let Some((last, rest)) = plans[di].templates().split_last() {
            for template in rest {
                spawn(branch.clone(), template)?;
            }
            spawn(branch, last)?;
        }
    }
    Ok((leaves, steps))
}

/// The error a search cut short ends the run with: a cancelled search
/// is the cancellation it reports, any other budget a match-budget
/// error.
fn cut(budget: Exhausted, steps: u64) -> ChaseError {
    match budget {
        Exhausted::Cancelled => {
            rde_obs::counter!("chase.disj.cancelled").inc();
            rde_obs::event("chase.disj.cancelled", &[("steps", steps.into())]);
            ChaseError::Cancelled
        }
        budget => ChaseError::MatchBudgetExhausted { budget },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rde_deps::{parse_dependency, parse_mapping};
    use rde_model::parse::parse_instance;

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
        let (mut v, leaves) = run(&["R(x) -> P(x, x) | exists y . P(x, y)"], "R(a)", &opts);
        assert_eq!(leaves.len(), 1);
        let p = v.find_relation("P").unwrap();
        let args: Vec<_> = leaves[0].relation(p).unwrap().tuples().next().unwrap().to_vec();
        assert!(args[1].is_null(), "the general (null) leaf must be the survivor");
        // The pruning searches run under the options' budget too: one
        // node decides every trigger here but no leaf-to-leaf search.
        let hom = HomConfig { node_budget: Some(1), ..HomConfig::default() };
        let tight = DisjunctiveChaseOptions { hom, ..opts };
        let d = parse_dependency(&mut v, "R(x) -> P(x, x) | exists y . P(x, y)").unwrap();
        let i = parse_instance(&mut v, "R(a)").unwrap();
        let unpruned = DisjunctiveChaseOptions { prune_subsumed: false, ..tight.clone() };
        let chased = disjunctive_chase(&i, std::slice::from_ref(&d), &mut v, &unpruned).unwrap();
        assert_eq!(chased.leaves.len(), 2);
        assert_eq!(
            disjunctive_chase(&i, &[d], &mut v, &tight).unwrap_err(),
            ChaseError::MatchBudgetExhausted { budget: Exhausted::Nodes(1) }
        );
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
    fn hom_budgets_and_context_reach_every_search() {
        let mut v = Vocabulary::new();
        let d = parse_dependency(&mut v, "R(x) -> P(x) | exists y . Q(x, y)").unwrap();
        let i = parse_instance(&mut v, "R(a)\nR(b)").unwrap();
        let run = |v: &Vocabulary, hom: HomConfig| {
            let options = DisjunctiveChaseOptions { hom, ..Default::default() };
            disjunctive_chase(&i, std::slice::from_ref(&d), &mut v.clone(), &options)
        };
        let nodes = |n| HomConfig { node_budget: Some(n), ..HomConfig::default() };
        assert_eq!(
            run(&v, nodes(0)).unwrap_err(),
            ChaseError::MatchBudgetExhausted { budget: Exhausted::Nodes(0) }
        );
        let cancelled = rde_faults::ExecContext::cancellable();
        cancelled.cancel.cancel();
        let err = run(&v, HomConfig { ctx: cancelled, ..HomConfig::default() }).unwrap_err();
        assert_eq!(err, ChaseError::Cancelled);
        // A budget that no search exhausts yields the unbounded run's
        // leaves, null ids included.
        let unbounded = run(&v, HomConfig::default()).unwrap();
        assert_eq!(unbounded.leaves.len(), 4);
        assert_eq!(run(&v, nodes(1 << 20)).unwrap().leaves, unbounded.leaves);
    }

    #[test]
    fn a_cut_satisfaction_test_is_an_error_not_a_branch() {
        // The premise match R(a) costs one node; the witness search for
        // S(a, y) & U(y) needs more, so under a budget of one the
        // trigger is undecided: branching on it would be unsound.
        let mut v = Vocabulary::new();
        let d = parse_dependency(&mut v, "R(x) -> exists y . S(x, y) & U(y) | T(x)").unwrap();
        let i = parse_instance(&mut v, "R(a)\nS(a, b)\nS(a, c)\nU(c)").unwrap();
        let run = |n| {
            let hom = HomConfig { node_budget: Some(n), ..HomConfig::default() };
            let options = DisjunctiveChaseOptions { hom, ..Default::default() };
            disjunctive_chase(&i, std::slice::from_ref(&d), &mut v.clone(), &options)
        };
        assert_eq!(
            run(1).unwrap_err(),
            ChaseError::MatchBudgetExhausted { budget: Exhausted::Nodes(1) }
        );
        let decided = run(8).unwrap();
        assert_eq!(decided.leaves, vec![i.clone()], "the trigger is witnessed: no branching");
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
        let (cfg, mut stats) = (HomConfig::default(), HomStats::default());
        assert!(rde_hom::hom_equivalent(&leaves[0], &leaves[0], &cfg, &mut stats).holds());
    }
}

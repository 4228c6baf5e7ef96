//! Differential check of the disjunctive chase against the
//! rescan-and-clone procedure it replaced.
//!
//! [`reference`] re-enumerates every dependency's premise from scratch
//! after every step, tests `fired` with a freshly allocated key per
//! match, runs every witness check, copies the branch for every child,
//! and deduplicates leaves through a set of copies. The engine keeps
//! per-branch trigger cursors, moves the parent into its last child,
//! and skips the witness checks that provably fail; it must be the same
//! function. Over random dependency sets — recursive ones (conclusion
//! relations read by premises), multi-atom premises, `Constant` and
//! `!=` guards, existentials, 1–3 disjuncts — and recovery-shaped ones
//! (2–3 dependencies writing one relation with existentials at
//! complementary positions), under random budgets, both give the same
//! leaves (facts in the same row order, same null ids), steps, pruned
//! count and fresh-null counter, or the same error. A skipped check is
//! a search not run, so where the reference stops on a node budget the
//! engine may instead finish: it must then return the reference's
//! unbudgeted result.

use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRng};
use rde_chase::plan::never_witnessed;
use rde_chase::{disjunctive_chase, ChaseError, DisjunctiveChaseOptions, DisjunctiveChaseResult};
use rde_deps::{parse_dependency, Dependency};
use rde_hom::HomConfig;
use rde_model::{Fact, Instance, Value, Vocabulary};

/// The disjunctive chase as it was before trigger cursors and branch
/// moves, kept verbatim (minus metrics) as the specification.
mod reference {
    use rde_chase::{ChaseError, DependencyPlan, DisjunctiveChaseOptions, DisjunctiveChaseResult};
    use rde_deps::Dependency;
    use rde_hom::{Exhausted, HomConfig, HomStats, Verdict};
    use rde_model::fx::FxHashSet;
    use rde_model::{Instance, Substitution, Value, Vocabulary};

    struct Branch {
        instance: Instance,
        fired: FxHashSet<(usize, Vec<Value>)>,
    }

    pub fn disjunctive_chase(
        instance: &Instance,
        dependencies: &[Dependency],
        vocab: &mut Vocabulary,
        options: &DisjunctiveChaseOptions,
    ) -> Result<DisjunctiveChaseResult, ChaseError> {
        let plans: Vec<DependencyPlan> = dependencies.iter().map(DependencyPlan::compile).collect();
        let mut steps: u64 = 0;
        let mut work = vec![Branch { instance: instance.clone(), fired: FxHashSet::default() }];
        let mut leaves: Vec<Instance> = Vec::new();

        while let Some(branch) = work.pop() {
            let ctx = &options.hom.ctx;
            if ctx.should_inject("chase.disj.branch") || ctx.is_cancelled() {
                return Err(cut(Exhausted::Cancelled));
            }
            match next_trigger(&branch, &plans, &options.hom).map_err(cut)? {
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
                        template.instantiate_into(&vals, &fresh, &mut Vec::new(), |rel, args| {
                            child_instance.insert_args(rel, args);
                            true
                        });
                        if child_instance.len() > options.max_facts {
                            return Err(ChaseError::FactBudgetExhausted {
                                facts: options.max_facts,
                            });
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

        let mut seen: FxHashSet<Instance> = FxHashSet::default();
        let mut unique: Vec<Instance> = Vec::new();
        for leaf in leaves {
            if seen.insert(leaf.clone()) {
                unique.push(leaf);
            }
        }

        let mut pruned = 0;
        if options.prune_subsumed {
            let mut stats = HomStats::default();
            let mut arrow = |from: &Instance, to: &Instance| {
                rde_hom::find_hom(from, to, &Substitution::new(), &options.hom, &mut stats)
                    .map(|hom| hom.is_some())
                    .map_err(cut)
            };
            let mut kept: Vec<Instance> = Vec::new();
            'next: for (i, v) in unique.iter().enumerate() {
                for (j, w) in unique.iter().enumerate() {
                    if i != j && arrow(w, v)? {
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

    fn cut(budget: Exhausted) -> ChaseError {
        match budget {
            Exhausted::Cancelled => ChaseError::Cancelled,
            budget => ChaseError::MatchBudgetExhausted { budget },
        }
    }

    fn first_trigger(
        di: usize,
        plan: &DependencyPlan,
        branch: &Branch,
        config: &HomConfig,
    ) -> Result<Option<Vec<Value>>, Exhausted> {
        let mut found: Option<Vec<Value>> = None;
        let mut undecided: Option<Exhausted> = None;
        let mut stats = HomStats::default();
        let report = plan.premise().for_each_match(&branch.instance, config, |vals| {
            if branch.fired.contains(&(di, vals.to_vec())) {
                return true;
            }
            match plan.witnessed(&branch.instance, vals, config, &mut stats) {
                Verdict::Holds => true,
                Verdict::Fails => {
                    found = Some(vals.to_vec());
                    false
                }
                Verdict::Unknown { budget } => {
                    undecided = Some(budget);
                    false
                }
            }
        });
        match undecided.or(report.exhausted) {
            Some(budget) => Err(budget),
            None => Ok(found),
        }
    }

    fn next_trigger(
        branch: &Branch,
        plans: &[DependencyPlan],
        config: &HomConfig,
    ) -> Result<Option<(usize, Vec<Value>)>, Exhausted> {
        for (di, plan) in plans.iter().enumerate() {
            if let Some(vals) = first_trigger(di, plan, branch, config)? {
                return Ok(Some((di, vals)));
            }
        }
        Ok(None)
    }
}

/// Relations every generated dependency draws from, so conclusions
/// feed premises (recursion) as often as not.
const RELS: [(&str, usize); 4] = [("A", 1), ("B", 1), ("E", 2), ("F", 2)];
const VARS: [&str; 3] = ["x", "y", "z"];
const EXISTENTIALS: [&str; 2] = ["u", "w"];

/// A generated atom: a relation index and two argument codes (only the
/// first `arity` are used).
type GenAtom = (usize, [u8; 2]);

#[derive(Debug, Clone)]
struct GenDep {
    /// Argument codes `0..3` are `x, y, z`, `3` the constant `'c0'`.
    premise: Vec<GenAtom>,
    inequality: bool,
    constant: bool,
    /// Argument codes index the premise's variables, then `u, w`, then
    /// the constant `'c1'` (modulo that pool's size).
    disjuncts: Vec<Vec<GenAtom>>,
}

fn render(dep: &GenDep) -> String {
    let mut premise_vars: Vec<&str> = Vec::new();
    let mut atoms: Vec<String> = Vec::new();
    for &(r, args) in &dep.premise {
        let (name, arity) = RELS[r];
        let rendered: Vec<&str> = args[..arity]
            .iter()
            .map(|&a| match VARS.get(usize::from(a)) {
                Some(&v) => {
                    if !premise_vars.contains(&v) {
                        premise_vars.push(v);
                    }
                    v
                }
                None => "'c0'",
            })
            .collect();
        atoms.push(format!("{name}({})", rendered.join(", ")));
    }
    if dep.inequality && premise_vars.len() >= 2 {
        atoms.push(format!("{} != {}", premise_vars[0], premise_vars[1]));
    }
    if dep.constant && !premise_vars.is_empty() {
        atoms.push(format!("Constant({})", premise_vars[premise_vars.len() - 1]));
    }
    let pool: Vec<&str> =
        premise_vars.iter().copied().chain(EXISTENTIALS).chain(["'c1'"]).collect();
    let disjuncts: Vec<String> = dep
        .disjuncts
        .iter()
        .map(|conj| {
            let mut used: Vec<&str> = Vec::new();
            let atoms: Vec<String> = conj
                .iter()
                .map(|&(r, args)| {
                    let (name, arity) = RELS[r];
                    let rendered: Vec<&str> = args[..arity]
                        .iter()
                        .map(|&a| {
                            let term = pool[usize::from(a) % pool.len()];
                            if EXISTENTIALS.contains(&term) && !used.contains(&term) {
                                used.push(term);
                            }
                            term
                        })
                        .collect();
                    format!("{name}({})", rendered.join(", "))
                })
                .collect();
            let body = atoms.join(" & ");
            if used.is_empty() {
                body
            } else {
                format!("exists {} . {body}", used.join(", "))
            }
        })
        .collect();
    format!("{} -> {}", atoms.join(" & "), disjuncts.join(" | "))
}

fn gen_atom(arg_codes: u8) -> impl Strategy<Value = GenAtom> {
    (0..RELS.len(), 0..arg_codes, 0..arg_codes).prop_map(|(r, a, b)| (r, [a, b]))
}

/// One of `choices`, uniformly.
fn select<T: Clone + 'static>(choices: &'static [T]) -> impl Strategy<Value = T> {
    (0..choices.len()).prop_map(move |i| choices[i].clone())
}

fn gen_dep() -> impl Strategy<Value = GenDep> {
    (
        prop::collection::vec(gen_atom(4), 1..=2),
        any::<bool>(),
        any::<bool>(),
        prop::collection::vec(prop::collection::vec(gen_atom(6), 1..=2), 1..=3),
    )
        .prop_map(|(premise, inequality, constant, disjuncts)| GenDep {
            premise,
            inequality,
            constant,
            disjuncts,
        })
}

/// The relations of the recovery shape: three binary input relations
/// and the ternary relation every recovery dependency writes.
const REC_RELS: [(&str, usize); 4] = [("Q", 2), ("R", 2), ("S", 2), ("P", 3)];

/// Writer `k` of the recovery shape: it reads input relation `k` and
/// writes `P` with an existential where the other writers hold a
/// premise variable, as `Q(x, y) -> ∃z P(x, y, z)` and
/// `R(y, z) -> ∃x P(x, y, z)` recover a decomposition of `P`.
const WRITERS: [&str; 3] = [
    "Q(x, y) -> exists z . P(x, y, z)",
    "R(y, z) -> exists x . P(x, y, z)",
    "S(x, z) -> exists y . P(x, y, z)",
];

/// A recovery-shaped dependency set, with variations that take some
/// writers out of the skip.
#[derive(Debug, Clone)]
struct GenRecovery {
    /// The first 2 or 3 of [`WRITERS`].
    writers: usize,
    /// Per writer, a second disjunct `A(x)`, `A(y)` or `A(x)` that does
    /// not name every premise variable.
    second_disjunct: [bool; 3],
    /// Also chase `P(x, y, z) -> Q(x, y)`: `Q` is then written, so the
    /// first writer's variables may bind the other writers' fresh nulls,
    /// and its checks can succeed (`P(n, y, z)` written by the second
    /// writer feeds back `Q(n, y)`, whose trigger it witnesses).
    feedback: bool,
}

impl GenRecovery {
    fn render(&self) -> Vec<String> {
        let mut deps: Vec<String> = WRITERS[..self.writers]
            .iter()
            .zip(self.second_disjunct)
            .map(|(w, second)| {
                let var = if w.starts_with('R') { "y" } else { "x" };
                if second {
                    format!("{w} | A({var})")
                } else {
                    (*w).to_owned()
                }
            })
            .collect();
        if self.feedback {
            deps.push("P(x, y, z) -> Q(x, y)".to_owned());
        }
        deps
    }
}

#[derive(Debug, Clone)]
enum GenDeps {
    /// Random dependencies over [`RELS`].
    Random(Vec<GenDep>),
    /// A recovery shape over [`REC_RELS`] (and `A`).
    Recovery(GenRecovery),
}

/// A generated fact: a relation code and three value codes (`0..3` the
/// constants `c0..c2`, `3..5` the nulls `n0, n1`; only the first
/// `arity` are used). Over [`RELS`] the relation is `code % 4`; over
/// [`REC_RELS`] it is `P` for code 9 and else `code % 3`, so most
/// recovery inputs hold no `P` fact.
type GenFact = (u8, [u8; 3]);

#[derive(Debug, Clone)]
struct Case {
    deps: GenDeps,
    facts: Vec<GenFact>,
    max_steps: u64,
    max_branches: usize,
    max_facts: usize,
    node_budget: Option<u64>,
    prune_subsumed: bool,
}

fn gen_deps() -> impl Strategy<Value = GenDeps> {
    let recovery = (2usize..4, (any::<bool>(), any::<bool>(), any::<bool>()), any::<bool>())
        .prop_map(|(writers, (a, b, c), feedback)| GenRecovery {
            writers,
            second_disjunct: [a, b, c],
            feedback,
        });
    // One case in three is recovery-shaped.
    (0u8..3, prop::collection::vec(gen_dep(), 1..=3), recovery).prop_map(
        |(shape, random, recovery)| {
            if shape == 0 {
                GenDeps::Recovery(recovery)
            } else {
                GenDeps::Random(random)
            }
        },
    )
}

fn gen_case() -> impl Strategy<Value = Case> {
    let fact = (0u8..10, 0u8..5, 0u8..5, 0u8..5).prop_map(|(r, a, b, c)| (r, [a, b, c]));
    let limits = (select(&[3u64, 24, 120]), select(&[4usize, 16, 64]), select(&[8usize, 32, 200]));
    let budget = select(&[None, Some(0), Some(1), Some(2), Some(3), Some(6), Some(64)]);
    (gen_deps(), prop::collection::vec(fact, 0..=6), limits, budget, any::<bool>()).prop_map(
        |(deps, facts, (max_steps, max_branches, max_facts), node_budget, prune)| Case {
            deps,
            facts,
            max_steps,
            max_branches,
            max_facts,
            node_budget,
            prune_subsumed: prune,
        },
    )
}

/// How a compared run ended, for the coverage tally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Leaves {
        branched: bool,
        pruned: bool,
    },
    MatchBudget,
    /// The reference stopped on a node budget and the engine, skipping
    /// checks, finished with the reference's unbudgeted result.
    PastMatchBudget,
    Steps,
    Facts,
    Branches,
}

/// A result reduced to what must agree bit for bit: per leaf, its
/// facts in relation then row order (null ids included).
type Observed = Result<(Vec<Vec<Fact>>, u64, usize), ChaseError>;

fn observe(result: Result<DisjunctiveChaseResult, ChaseError>) -> Observed {
    result.map(|r| {
        let leaves = r.leaves.iter().map(|l| l.facts().collect()).collect();
        (leaves, r.steps, r.pruned)
    })
}

/// A case's vocabulary, dependencies and input instance.
fn build(case: &Case) -> (Vocabulary, Vec<Dependency>, Instance) {
    let mut vocab = Vocabulary::new();
    for (name, arity) in RELS.into_iter().chain(REC_RELS) {
        vocab.relation(name, arity).unwrap();
    }
    let (texts, recovery) = match &case.deps {
        GenDeps::Random(deps) => (deps.iter().map(render).collect::<Vec<_>>(), false),
        GenDeps::Recovery(shape) => (shape.render(), true),
    };
    let deps: Vec<Dependency> =
        texts.iter().map(|d| parse_dependency(&mut vocab, d).unwrap()).collect();
    let instance: Instance = case
        .facts
        .iter()
        .map(|&(code, values)| {
            let (name, arity) = match (recovery, code) {
                (false, _) => RELS[usize::from(code) % RELS.len()],
                (true, 9) => REC_RELS[3],
                (true, _) => REC_RELS[usize::from(code) % 3],
            };
            let args: Vec<Value> = values[..arity]
                .iter()
                .map(|&c| match c {
                    0..3 => vocab.const_value(&format!("c{c}")),
                    _ => vocab.null_value(&format!("n{}", c - 3)),
                })
                .collect();
            Fact::new(vocab.find_relation(name).unwrap(), args)
        })
        .collect();
    (vocab, deps, instance)
}

fn check(case: &Case) -> Result<Outcome, TestCaseError> {
    let (vocab, deps, instance) = build(case);
    let options = DisjunctiveChaseOptions {
        max_branches: case.max_branches,
        max_facts: case.max_facts,
        max_steps: case.max_steps,
        prune_subsumed: case.prune_subsumed,
        hom: HomConfig { node_budget: case.node_budget, ..HomConfig::default() },
    };
    let (mut v_ref, mut v_new) = (vocab.clone(), vocab.clone());
    let expected = observe(reference::disjunctive_chase(&instance, &deps, &mut v_ref, &options));
    let got = observe(disjunctive_chase(&instance, &deps, &mut v_new, &options));
    let node_budget_hit = matches!(expected, Err(ChaseError::MatchBudgetExhausted { .. }));
    if node_budget_hit && got != expected {
        // The engine skipped the check the reference stopped on.
        let unbudgeted = DisjunctiveChaseOptions { hom: HomConfig::default(), ..options };
        let mut v_free = vocab;
        let free =
            observe(reference::disjunctive_chase(&instance, &deps, &mut v_free, &unbudgeted));
        prop_assert_eq!(&got, &free, "the reference stopped on a node budget: {:?}", expected);
        prop_assert_eq!(v_new.fresh_null(), v_free.fresh_null(), "fresh-null counters differ");
        return Ok(Outcome::PastMatchBudget);
    }
    prop_assert_eq!(&got, &expected);
    if !node_budget_hit {
        // Past a skipped check the engine may run further before its
        // own node budget stops it, inventing more nulls.
        prop_assert_eq!(v_new.fresh_null(), v_ref.fresh_null(), "fresh-null counters differ");
    }
    Ok(match expected {
        Ok((leaves, _, pruned)) => {
            Outcome::Leaves { branched: leaves.len() > 1, pruned: pruned > 0 }
        }
        Err(ChaseError::MatchBudgetExhausted { .. }) => Outcome::MatchBudget,
        Err(ChaseError::RoundBudgetExhausted { .. }) => Outcome::Steps,
        Err(ChaseError::FactBudgetExhausted { .. }) => Outcome::Facts,
        Err(ChaseError::BranchBudgetExhausted { .. }) => Outcome::Branches,
        Err(e) => return Err(TestCaseError(format!("unexpected error {e}"))),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn cursor_chase_matches_the_rescanning_reference(case in gen_case()) {
        check(&case)?;
    }
}

/// The generator reaches every outcome the comparison is meant to
/// cover: branching leaf sets, pruning, and each kind of error. (A run
/// that finishes past a node budget the reference stopped on needs
/// larger inputs: see
/// `a_skipped_check_answers_past_the_reference_node_budget`.) It also
/// reports the share of cases with a dependency whose witness checks
/// the engine skips, recovery-shaped or not.
#[test]
fn generated_cases_cover_every_outcome() {
    let mut rng = TestRng::new(0x5EED);
    let strategy = gen_case();
    let mut seen: Vec<Outcome> = Vec::new();
    let (mut skipping, mut recovery_skipping, mut recovery) = (0, 0, 0);
    const CASES: usize = 1000;
    for _ in 0..CASES {
        let case = strategy.generate(&mut rng);
        let outcome = check(&case).unwrap_or_else(|e| panic!("{}\n{case:#?}", e.0));
        if !seen.contains(&outcome) {
            seen.push(outcome);
        }
        let (_, deps, instance) = build(&case);
        let skips = never_witnessed(&deps, &instance).contains(&true);
        skipping += usize::from(skips);
        if matches!(case.deps, GenDeps::Recovery(_)) {
            recovery += 1;
            recovery_skipping += usize::from(skips);
        }
    }
    eprintln!(
        "{skipping} of {CASES} cases skip some witness checks \
         ({recovery_skipping} of {recovery} recovery-shaped)"
    );
    assert!(skipping * 5 >= CASES, "too few cases skip checks: {skipping} of {CASES}");
    assert!(recovery_skipping < recovery, "every recovery-shaped case skips");
    for wanted in [
        Outcome::Leaves { branched: true, pruned: false },
        Outcome::Leaves { branched: true, pruned: true },
        Outcome::MatchBudget,
        Outcome::Steps,
        Outcome::Facts,
        Outcome::Branches,
    ] {
        assert!(seen.contains(&wanted), "no generated case ended in {wanted:?}; saw {seen:?}");
    }
}

/// A witness found within a node budget can need more nodes once the
/// branch has grown (the searcher orders atoms by candidate counts),
/// and re-deciding it is where the rescanning chase ran out. The
/// cursor chase re-runs those checks under node budgets, so it fails
/// at the same step with the same error.
#[test]
fn a_witness_that_outgrows_the_node_budget_fails_as_before() {
    let mut vocab = Vocabulary::new();
    let deps: Vec<Dependency> = ["R(x) -> exists y . S(x, y) & U(y) | T(x)", "V(z) -> U(z)"]
        .iter()
        .map(|d| parse_dependency(&mut vocab, d).unwrap())
        .collect();
    let instance =
        rde_model::parse::parse_instance(&mut vocab, "R(a)\nS(a, b)\nS(a, c)\nU(c)\nV(d)\nV(e)")
            .unwrap();
    let run = |node_budget| {
        let hom = HomConfig { node_budget, ..HomConfig::default() };
        let options = DisjunctiveChaseOptions { hom, ..DisjunctiveChaseOptions::default() };
        let new = observe(disjunctive_chase(&instance, &deps, &mut vocab.clone(), &options));
        let old =
            observe(reference::disjunctive_chase(&instance, &deps, &mut vocab.clone(), &options));
        (new, old)
    };
    let (new, old) = run(Some(2));
    assert_eq!(new, old);
    assert!(
        matches!(old, Err(ChaseError::MatchBudgetExhausted { .. })),
        "the re-check of R(a)'s witness needs 3 nodes once U has grown: {old:?}"
    );
    let (new, old) = run(None);
    assert_eq!(new, old);
    assert!(old.is_ok());
}

/// The recovery writers' witness checks all fail, and the last `S`
/// trigger's needs four nodes: `P` holds four rows with its `x` (three
/// from `Q`, one from `S`) and four with its `z` (three from `R`, one
/// from `S`). Under a budget of three the reference stops there; the
/// engine skips the check, its premise enumerations fit the budget,
/// and it finishes with the unbudgeted result.
#[test]
fn a_skipped_check_answers_past_the_reference_node_budget() {
    let mut vocab = Vocabulary::new();
    let deps: Vec<Dependency> =
        WRITERS.iter().map(|d| parse_dependency(&mut vocab, d).unwrap()).collect();
    let input = "Q(a, b1)\nQ(a, b2)\nQ(a, b3)\nR(d1, c)\nR(d2, c)\nR(d3, c)\n\
                 S(a, e)\nS(f, c)\nS(a, c)";
    let instance = rde_model::parse::parse_instance(&mut vocab, input).unwrap();
    assert_eq!(never_witnessed(&deps, &instance), [true, true, true]);
    let run = |node_budget, engine: bool| {
        let hom = HomConfig { node_budget, ..HomConfig::default() };
        let options = DisjunctiveChaseOptions { hom, ..DisjunctiveChaseOptions::default() };
        let mut v = vocab.clone();
        let result = if engine {
            disjunctive_chase(&instance, &deps, &mut v, &options)
        } else {
            reference::disjunctive_chase(&instance, &deps, &mut v, &options)
        };
        (observe(result), v.fresh_null())
    };
    let (stopped, _) = run(Some(3), false);
    assert!(
        matches!(stopped, Err(ChaseError::MatchBudgetExhausted { .. })),
        "the reference needs four nodes for the last check: {stopped:?}"
    );
    assert!(run(Some(4), false).0.is_ok());
    let unbudgeted = run(None, false);
    assert!(unbudgeted.0.is_ok());
    assert_eq!(run(Some(3), true), unbudgeted);
}

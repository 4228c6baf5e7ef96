//! Differential check of the disjunctive chase against the
//! rescan-and-clone procedure it replaced.
//!
//! [`reference`] re-enumerates every dependency's premise from scratch
//! after every step, tests `fired` with a freshly allocated key per
//! match, copies the branch for every child, and deduplicates leaves
//! through a set of copies. The engine keeps per-branch trigger cursors
//! and moves the parent into its last child instead; it must be the
//! same function. Over random dependency sets — recursive ones
//! (conclusion relations read by premises), multi-atom premises,
//! `Constant` and `!=` guards, existentials, 1–3 disjuncts — and random
//! budgets, both give the same leaves (facts in the same row order,
//! same null ids), steps, pruned count and fresh-null counter, or the
//! same error.

use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRng};
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

/// A generated fact: a relation index and two value codes (`0..3` the
/// constants `c0..c2`, `3..5` the nulls `n0, n1`).
type GenFact = (usize, [u8; 2]);

#[derive(Debug, Clone)]
struct Case {
    deps: Vec<GenDep>,
    facts: Vec<GenFact>,
    max_steps: u64,
    max_branches: usize,
    max_facts: usize,
    node_budget: Option<u64>,
    prune_subsumed: bool,
}

fn gen_case() -> impl Strategy<Value = Case> {
    let fact = (0..RELS.len(), 0u8..5, 0u8..5).prop_map(|(r, a, b)| (r, [a, b]));
    let limits = (select(&[3u64, 24, 120]), select(&[4usize, 16, 64]), select(&[8usize, 32, 200]));
    let budget = select(&[None, Some(0), Some(1), Some(2), Some(3), Some(6), Some(64)]);
    (
        prop::collection::vec(gen_dep(), 1..=3),
        prop::collection::vec(fact, 0..=6),
        limits,
        budget,
        any::<bool>(),
    )
        .prop_map(|(deps, facts, (max_steps, max_branches, max_facts), node_budget, prune)| {
            Case {
                deps,
                facts,
                max_steps,
                max_branches,
                max_facts,
                node_budget,
                prune_subsumed: prune,
            }
        })
}

/// How a compared run ended, for the coverage tally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Leaves { branched: bool, pruned: bool },
    MatchBudget,
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

fn check(case: &Case) -> Result<Outcome, TestCaseError> {
    let mut vocab = Vocabulary::new();
    for (name, arity) in RELS {
        vocab.relation(name, arity).unwrap();
    }
    let deps: Vec<Dependency> =
        case.deps.iter().map(|d| parse_dependency(&mut vocab, &render(d)).unwrap()).collect();
    let instance: Instance = case
        .facts
        .iter()
        .map(|&(r, codes)| {
            let (name, arity) = RELS[r];
            let args: Vec<Value> = codes[..arity]
                .iter()
                .map(|&c| match c {
                    0..3 => vocab.const_value(&format!("c{c}")),
                    _ => vocab.null_value(&format!("n{}", c - 3)),
                })
                .collect();
            Fact::new(vocab.find_relation(name).unwrap(), args)
        })
        .collect();
    let options = DisjunctiveChaseOptions {
        max_branches: case.max_branches,
        max_facts: case.max_facts,
        max_steps: case.max_steps,
        prune_subsumed: case.prune_subsumed,
        hom: HomConfig { node_budget: case.node_budget, ..HomConfig::default() },
    };
    let (mut v_ref, mut v_new) = (vocab.clone(), vocab);
    let expected = observe(reference::disjunctive_chase(&instance, &deps, &mut v_ref, &options));
    let got = observe(disjunctive_chase(&instance, &deps, &mut v_new, &options));
    prop_assert_eq!(&got, &expected);
    prop_assert_eq!(v_new.fresh_null(), v_ref.fresh_null(), "fresh-null counters differ");
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
/// cover: branching leaf sets, pruning, and each kind of error.
#[test]
fn generated_cases_cover_every_outcome() {
    let mut rng = TestRng::new(0x5EED);
    let strategy = gen_case();
    let mut seen: Vec<Outcome> = Vec::new();
    for _ in 0..400 {
        let case = strategy.generate(&mut rng);
        let outcome = check(&case).unwrap_or_else(|e| panic!("{}\n{case:#?}", e.0));
        if !seen.contains(&outcome) {
            seen.push(outcome);
        }
    }
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

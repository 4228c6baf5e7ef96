//! Compiled dependency plans: the one matcher behind the chase,
//! solution checks and CQ evaluation.
//!
//! Every consumer that matches a dependency into an instance goes
//! through a [`DependencyPlan`], compiled once per call:
//!
//! * a [`PremisePlan`] — the premise atoms over dense variable slots
//!   (a [`CompiledPattern`]) plus the guard checks, supporting both
//!   full enumeration and delta-seeded enumeration for the semi-naive
//!   rounds;
//! * one [`SatisfactionPlan`] per conclusion disjunct, sharing the
//!   premise's slot space (the restricted chase's pre-check, the
//!   disjunctive chase's branch test, and `(I, J) ⊨ Σ`);
//! * one [`FiringTemplate`] per conclusion disjunct — the conclusion
//!   atoms as value/slot instructions, so firing a trigger (or
//!   building a CQ answer from the query head) is a direct copy with no
//!   hash lookups.
//!
//! Slots are assigned in first-appearance order over the premise
//! atoms, i.e. exactly `Dependency::universal_vars()` order — a full
//! slot assignment `[Value]` therefore doubles as the canonical
//! trigger key.
//!
//! Slots are pattern-local, so they never collide with the target's
//! nulls. All enumeration funnels through [`CompiledPattern`], so the
//! plans share the hom searcher's posting lists and its one-probe
//! handling of fully bound atoms (DESIGN.md §8).

use rde_deps::{Atom, Conjunct, Dependency, Premise, Term, VarId};
use rde_hom::{CompiledPattern, Exhausted, HomConfig, HomStats, PatArg, PatternAtom, Verdict};
use rde_model::fx::{FxHashMap, FxHashSet};
use rde_model::{ConstId, Instance, RelId, Value};

/// Outcome of one (possibly budgeted) premise enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchReport {
    /// Matches enumerated: those that pass the `Constant` guards, which
    /// the search applies as it binds (before the inequality guards).
    pub matches: u64,
    /// Homomorphism-search work this enumeration performed.
    pub stats: HomStats,
    /// `Some` when the configured budget cut the enumeration short —
    /// the matches reported so far are valid but incomplete.
    pub exhausted: Option<Exhausted>,
}

/// A dependency compiled for matching: its premise plan plus, per
/// conclusion disjunct (in order), a satisfaction check and a firing
/// template over the premise's slots. The standard chase reads
/// disjunct 0, the disjunctive chase all of them, solution checks the
/// satisfaction checks, and CQ evaluation the head's template.
/// The parts are private: each conclusion plan is only meaningful over
/// the slot space of the premise plan it was compiled against.
#[derive(Debug, Clone)]
pub struct DependencyPlan {
    premise: PremisePlan,
    satisfaction: Vec<SatisfactionPlan>,
    templates: Vec<FiringTemplate>,
}

impl DependencyPlan {
    /// Compile a dependency. Validated dependencies guarantee that every
    /// guard and conclusion variable is a premise-atom variable or an
    /// existential of its disjunct.
    pub fn compile(dep: &Dependency) -> Self {
        let premise = PremisePlan::compile(&dep.premise);
        let satisfaction =
            dep.disjuncts.iter().map(|c| SatisfactionPlan::compile(&premise, c)).collect();
        let templates =
            dep.disjuncts.iter().map(|c| FiringTemplate::compile(&premise, c)).collect();
        DependencyPlan { premise, satisfaction, templates }
    }

    /// The premise: atoms over slots plus guards.
    pub fn premise(&self) -> &PremisePlan {
        &self.premise
    }

    /// The satisfaction checks, one per disjunct.
    pub fn satisfaction(&self) -> &[SatisfactionPlan] {
        &self.satisfaction
    }

    /// The firing templates, one per disjunct.
    pub fn templates(&self) -> &[FiringTemplate] {
        &self.templates
    }

    /// Is some disjunct witnessed in `instance` under the trigger
    /// `premise_vals`? Kleene disjunction over the disjuncts in order:
    /// [`Verdict::Holds`] at the first witnessed one, else
    /// [`Verdict::Unknown`] with the first cut search's budget, else
    /// [`Verdict::Fails`]. Search work accumulates into `stats`.
    pub fn witnessed(
        &self,
        instance: &Instance,
        premise_vals: &[Value],
        config: &HomConfig,
        stats: &mut HomStats,
    ) -> Verdict {
        let mut unknown: Option<Exhausted> = None;
        for sat in &self.satisfaction {
            match sat.satisfiable_budgeted(instance, premise_vals, config, stats) {
                Verdict::Holds => return Verdict::Holds,
                Verdict::Fails => {}
                Verdict::Unknown { budget } => {
                    unknown.get_or_insert(budget);
                }
            }
        }
        match unknown {
            Some(budget) => Verdict::Unknown { budget },
            None => Verdict::Fails,
        }
    }
}

/// A compiled premise: atoms over dense slots plus guards. A
/// `Constant(x)` guard marks `x`'s slot constant-only in the pattern,
/// so the search never binds it to a null; inequalities are checked on
/// each full match.
#[derive(Debug, Clone)]
pub struct PremisePlan {
    pattern: CompiledPattern,
    /// Slot `i` holds the value of `vars[i]`; this is the premise's
    /// variable list in first-appearance (= `universal_vars`) order.
    vars: Vec<VarId>,
    /// Slot pairs that must be bound to distinct values.
    inequality_slots: Vec<(u32, u32)>,
}

impl PremisePlan {
    /// Compile a premise. Guard variables are resolved to slots here;
    /// validated dependencies guarantee they occur in premise atoms.
    pub(crate) fn compile(premise: &Premise) -> Self {
        let mut slots: FxHashMap<VarId, u32> = FxHashMap::default();
        let mut vars: Vec<VarId> = Vec::new();
        let slot_of = |v: VarId, vars: &mut Vec<VarId>, slots: &mut FxHashMap<VarId, u32>| {
            *slots.entry(v).or_insert_with(|| {
                vars.push(v);
                (vars.len() - 1) as u32
            })
        };
        let atoms: Vec<PatternAtom> = premise
            .atoms
            .iter()
            .map(|a| PatternAtom {
                rel: a.rel,
                args: a
                    .args
                    .iter()
                    .map(|t| match *t {
                        Term::Var(v) => PatArg::Var(slot_of(v, &mut vars, &mut slots)),
                        Term::Const(c) => PatArg::Fixed(Value::Const(c)),
                    })
                    .collect(),
            })
            .collect();
        let pattern = CompiledPattern::new(atoms)
            .with_constant_slots(premise.constant_vars.iter().map(|v| slots[v]));
        let inequality_slots =
            premise.inequalities.iter().map(|&(a, b)| (slots[&a], slots[&b])).collect();
        PremisePlan { pattern, vars, inequality_slots }
    }

    /// The premise variables in slot order (`universal_vars` order).
    pub fn vars(&self) -> &[VarId] {
        &self.vars
    }

    /// Number of variable slots.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of premise atoms.
    pub fn num_atoms(&self) -> usize {
        self.pattern.atoms().len()
    }

    /// Relation symbol of premise atom `i`.
    pub fn atom_rel(&self, i: usize) -> RelId {
        self.pattern.atoms()[i].rel
    }

    /// The slot map of the premise (for building conclusion plans).
    fn slot_map(&self) -> FxHashMap<VarId, u32> {
        self.vars.iter().enumerate().map(|(i, &v)| (v, i as u32)).collect()
    }

    fn inequalities_hold(&self, vals: &[Value]) -> bool {
        self.inequality_slots.iter().all(|&(a, b)| vals[a as usize] != vals[b as usize])
    }

    /// Unify premise atom `atom_idx` with a fact's argument tuple,
    /// writing the slot seed into `seed` (cleared first, one entry per
    /// slot); `false` if they don't unify or the fact puts a null on a
    /// `Constant`-guarded slot (relation mismatch is the caller's job —
    /// it has `atom_rel`).
    pub fn seed_from_fact(
        &self,
        atom_idx: usize,
        fact_args: &[Value],
        seed: &mut Vec<Option<Value>>,
    ) -> bool {
        let atom = &self.pattern.atoms()[atom_idx];
        if atom.args.len() != fact_args.len() {
            return false;
        }
        seed.clear();
        seed.resize(self.num_vars(), None);
        for (arg, &fv) in atom.args.iter().zip(fact_args) {
            match *arg {
                PatArg::Fixed(v) => {
                    if v != fv {
                        return false;
                    }
                }
                PatArg::Var(s) => match seed[s as usize] {
                    Some(v) if v != fv => return false,
                    None if fv.is_null() && self.pattern.is_constant_only(s) => return false,
                    _ => seed[s as usize] = Some(fv),
                },
            }
        }
        true
    }

    /// Enumerate all premise matches (guards filtered) in `instance`
    /// under `config`'s budgets and context. The callback gets the full
    /// slot assignment and returns `false` to stop; check
    /// [`MatchReport::exhausted`] for completeness.
    pub fn for_each_match(
        &self,
        instance: &Instance,
        config: &HomConfig,
        on_match: impl FnMut(&[Value]) -> bool,
    ) -> MatchReport {
        self.enumerate(None, instance, &[], config, on_match)
    }

    /// Enumerate premise matches where atom `atom_idx` is mapped onto
    /// the (already inserted) fact that produced `seed` — the
    /// semi-naive delta step — under `config`'s budgets and context.
    /// `seed` must come from [`Self::seed_from_fact`] for that atom.
    pub fn for_each_match_seeded(
        &self,
        atom_idx: usize,
        seed: &[Option<Value>],
        instance: &Instance,
        config: &HomConfig,
        on_match: impl FnMut(&[Value]) -> bool,
    ) -> MatchReport {
        self.enumerate(Some(atom_idx), instance, seed, config, on_match)
    }

    fn enumerate(
        &self,
        skip: Option<usize>,
        instance: &Instance,
        seed: &[Option<Value>],
        config: &HomConfig,
        mut on_match: impl FnMut(&[Value]) -> bool,
    ) -> MatchReport {
        // The assignment lives on the stack for up to
        // `SEED_STACK_SLOTS` slots: this runs once per premise search.
        let mut stack = [Value::Const(ConstId(0)); SEED_STACK_SLOTS];
        let mut heap: Vec<Value> = Vec::new();
        let n = self.num_vars();
        let vals: &mut [Value] = if n <= SEED_STACK_SLOTS {
            &mut stack[..n]
        } else {
            heap.resize(n, Value::Const(ConstId(0)));
            &mut heap
        };
        let report =
            self.pattern.for_each_match_excluding(skip, instance, seed, config, |assignment| {
                // Invariant: `for_each_match_excluding` only yields
                // complete assignments — every slot is `Some`.
                for (slot, v) in vals.iter_mut().zip(assignment) {
                    #[allow(clippy::expect_used)]
                    let value = v.expect("full match binds every slot");
                    *slot = value;
                }
                if self.inequalities_hold(vals) {
                    on_match(vals)
                } else {
                    true
                }
            });
        MatchReport {
            matches: report.stats.found,
            stats: report.stats,
            exhausted: report.exhausted,
        }
    }
}

/// A conclusion-satisfaction pattern: the conclusion atoms over the
/// premise's slot space, existentials in fresh slots above it.
#[derive(Debug, Clone)]
pub struct SatisfactionPlan {
    pattern: CompiledPattern,
    /// Premise slot count: a trigger's slot assignment seeds the first
    /// `n_premise` slots; existential slots stay free.
    n_premise: usize,
}

impl SatisfactionPlan {
    /// Compile the satisfaction check for one conclusion disjunct.
    pub(crate) fn compile(premise_plan: &PremisePlan, conclusion: &Conjunct) -> Self {
        let mut slots = premise_plan.slot_map();
        let mut next = premise_plan.num_vars() as u32;
        for &ev in &conclusion.existentials {
            slots.entry(ev).or_insert_with(|| {
                let s = next;
                next += 1;
                s
            });
        }
        let atoms: Vec<PatternAtom> = conclusion
            .atoms
            .iter()
            .map(|a| PatternAtom {
                rel: a.rel,
                args: a
                    .args
                    .iter()
                    .map(|t| match *t {
                        Term::Var(v) => PatArg::Var(slots[&v]),
                        Term::Const(c) => PatArg::Fixed(Value::Const(c)),
                    })
                    .collect(),
            })
            .collect();
        SatisfactionPlan {
            pattern: CompiledPattern::new(atoms),
            n_premise: premise_plan.num_vars(),
        }
    }

    /// Does some extension of the trigger's assignment (existentials
    /// free) satisfy the conclusion in `instance`? Three-valued under
    /// `config`'s budgets; search work accumulates into `stats`.
    pub fn satisfiable_budgeted(
        &self,
        instance: &Instance,
        premise_vals: &[Value],
        config: &HomConfig,
        stats: &mut HomStats,
    ) -> Verdict {
        debug_assert_eq!(premise_vals.len(), self.n_premise);
        // The seed lives on the stack: this check runs once or twice per
        // restricted-chase trigger, and for a full tgd it is a single
        // membership probe that allocates nothing else.
        let mut stack = [None; SEED_STACK_SLOTS];
        let heap: Vec<Option<Value>>;
        let seed: &[Option<Value>] = if premise_vals.len() <= SEED_STACK_SLOTS {
            for (slot, &v) in stack.iter_mut().zip(premise_vals) {
                *slot = Some(v);
            }
            &stack[..premise_vals.len()]
        } else {
            heap = premise_vals.iter().map(|&v| Some(v)).collect();
            &heap
        };
        let mut found = false;
        let report = self.pattern.for_each_match(instance, seed, config, |_| {
            found = true;
            false
        });
        *stats += report.stats;
        match (found, report.exhausted) {
            (true, _) => Verdict::Holds,
            (false, None) => Verdict::Fails,
            (false, Some(budget)) => Verdict::Unknown { budget },
        }
    }
}

/// Per dependency, whether every witness check of its triggers provably
/// fails, so a chase may fire them unchecked: the restricted chase's
/// pre-check and recheck, and the disjunctive chase's branch test. A
/// dependency qualifies when every disjunct has a conclusion atom `A`
/// that
///
/// 1. names every premise variable,
/// 2. has a relation of which `input` holds no fact, and
/// 3. is told apart from every other conclusion atom `B` over its
///    relation, of this dependency or any other: at some position `A`
///    holds a premise variable `v` whose every premise atom is over a
///    relation no dependency writes, and `B` holds an existential.
///
/// A fact of `A`'s relation is then either written by `A` under some
/// trigger key, carrying that key at the premise variables' positions,
/// or written by some `B`, carrying a fresh null where `A` needs `v`'s
/// value — an input value, since `v` matches only input facts. So a
/// witness of `A` under key `k` can only be the fact that firing `k`
/// itself wrote, and a chase fires each key at most once (per branch),
/// so no check of an unfired trigger can succeed. With no `B` at all,
/// (3) holds vacuously: `A` is its relation's only writer. (2) reads
/// the chase's input, never a resumed snapshot's instance, so a resumed
/// run skips the same checks as an uninterrupted one (DESIGN.md §17).
pub fn never_witnessed(deps: &[Dependency], input: &Instance) -> Vec<bool> {
    let conclusion_atoms: Vec<(&Atom, &Conjunct)> = deps
        .iter()
        .flat_map(|d| &d.disjuncts)
        .flat_map(|c| c.atoms.iter().map(move |a| (a, c)))
        .collect();
    let written: FxHashSet<RelId> = conclusion_atoms.iter().map(|(a, _)| a.rel).collect();
    deps.iter()
        .map(|d| {
            let premise_vars = d.premise.atom_vars();
            let input_only = |v: VarId| {
                d.premise
                    .atoms
                    .iter()
                    .filter(|p| p.args.contains(&Term::Var(v)))
                    .all(|p| !written.contains(&p.rel))
            };
            let apart = |a: &Atom, (b, c): &(&Atom, &Conjunct)| {
                a.args.iter().zip(&b.args).any(|(ta, tb)| {
                    matches!(*ta, Term::Var(v) if premise_vars.contains(&v) && input_only(v))
                        && matches!(*tb, Term::Var(e) if c.existentials.contains(&e))
                })
            };
            let unwitnessable = |a: &Atom| {
                premise_vars.iter().all(|&v| a.args.contains(&Term::Var(v)))
                    && input.relation(a.rel).is_none_or(|r| r.is_empty())
                    && conclusion_atoms
                        .iter()
                        .filter(|(b, _)| b.rel == a.rel && !std::ptr::eq(*b, a))
                        .all(|other| apart(a, other))
            };
            d.disjuncts.iter().all(|c| c.atoms.iter().any(unwitnessable))
        })
        .collect()
}

/// Premise slot count up to which a satisfaction check seeds its search,
/// and a premise enumeration builds its assignment, in a stack array
/// instead of a heap vector.
const SEED_STACK_SLOTS: usize = 16;

/// One argument of a conclusion atom, resolved for direct instantiation.
#[derive(Debug, Clone, Copy)]
enum OutArg {
    /// A constant literal.
    Fixed(Value),
    /// Copy from premise slot `i` of the trigger assignment.
    Premise(u32),
    /// Copy fresh null `i` of this firing.
    Exist(u32),
}

/// A compiled conclusion disjunct: firing a trigger is one fresh-null
/// allocation per existential plus straight copies — no `VarId` hash
/// lookups, no panic-on-unbound path.
#[derive(Debug, Clone)]
pub struct FiringTemplate {
    atoms: Vec<(RelId, Vec<OutArg>)>,
    n_existentials: usize,
}

impl FiringTemplate {
    /// Compile one conclusion disjunct against a premise plan.
    /// Validated dependencies guarantee every conclusion variable is
    /// either universal (a premise slot) or existential.
    pub(crate) fn compile(premise_plan: &PremisePlan, conclusion: &Conjunct) -> Self {
        let premise_slots = premise_plan.slot_map();
        let exist_slots: FxHashMap<VarId, u32> =
            conclusion.existentials.iter().enumerate().map(|(i, &v)| (v, i as u32)).collect();
        let atoms = conclusion
            .atoms
            .iter()
            .map(|a| {
                let args = a
                    .args
                    .iter()
                    .map(|t| match *t {
                        Term::Const(c) => OutArg::Fixed(Value::Const(c)),
                        Term::Var(v) => match premise_slots.get(&v) {
                            Some(&s) => OutArg::Premise(s),
                            None => OutArg::Exist(exist_slots[&v]),
                        },
                    })
                    .collect();
                (a.rel, args)
            })
            .collect();
        FiringTemplate { atoms, n_existentials: conclusion.existentials.len() }
    }

    /// Number of fresh nulls one firing allocates (one per existential
    /// variable of the disjunct, in declaration order).
    pub fn num_existentials(&self) -> usize {
        self.n_existentials
    }

    /// Instantiate the conclusion atoms in order into the reused `buf`,
    /// handing each to `on_atom` as a relation and argument slice (the
    /// engines insert it with [`Instance::insert_args`], so a firing
    /// builds no [`Fact`](rde_model::Fact)). `fresh[i]` is the value for existential
    /// `i`; must have length [`Self::num_existentials`]. `on_atom`
    /// returns `false` to stop; the result is `false` when it did.
    pub fn instantiate_into(
        &self,
        premise_vals: &[Value],
        fresh: &[Value],
        buf: &mut Vec<Value>,
        mut on_atom: impl FnMut(RelId, &[Value]) -> bool,
    ) -> bool {
        debug_assert_eq!(fresh.len(), self.n_existentials);
        self.atoms.iter().all(|(rel, args)| {
            buf.clear();
            buf.extend(args.iter().map(|a| match *a {
                OutArg::Fixed(v) => v,
                OutArg::Premise(s) => premise_vals[s as usize],
                OutArg::Exist(e) => fresh[e as usize],
            }));
            on_atom(*rel, buf)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rde_deps::parse_dependency;
    use rde_hom::for_each_hom;
    use rde_model::{Fact, NullId, Substitution, Vocabulary};

    /// The reference matcher the compiled plans are checked against:
    /// matching a conjunction into `instance` is finding a homomorphism
    /// from its frozen instance (variable `v` becomes a null past every
    /// null of `instance` and `seed`) into `instance`. Returns, per
    /// match extending `seed`, the values of `vars` in enumeration order.
    fn reference_matches(
        atoms: &[Atom],
        instance: &Instance,
        seed: &FxHashMap<VarId, Value>,
        vars: &[VarId],
    ) -> Vec<Vec<Value>> {
        let offset = seed
            .values()
            .filter_map(|v| match v {
                Value::Null(n) => Some(n.0 + 1),
                Value::Const(_) => None,
            })
            .fold(instance.null_offset(), u32::max);
        let frozen_var = |v: VarId| Value::Null(NullId(offset + v.0));
        let frozen: Instance = atoms.iter().map(|a| a.instantiate(&frozen_var)).collect();
        let seed_sub: Substitution =
            seed.iter().map(|(&v, &val)| (NullId(offset + v.0), val)).collect();
        let mut out = Vec::new();
        for_each_hom(&frozen, instance, &seed_sub, &HomConfig::default(), |sub| {
            let mut assignment = seed.clone();
            for v in atoms.iter().flat_map(Atom::vars) {
                assignment.insert(v, sub.apply(frozen_var(v)));
            }
            out.push(vars.iter().map(|v| assignment[v]).collect());
            true
        });
        out
    }

    /// Reference premise matching: [`reference_matches`] over the
    /// premise atoms, filtered by the guards, keyed in slot order.
    fn reference_premise_matches(
        premise: &Premise,
        instance: &Instance,
        seed: &FxHashMap<VarId, Value>,
    ) -> Vec<Vec<Value>> {
        let vars = premise.atom_vars();
        let slot = |v: &VarId| vars.iter().position(|u| u == v).unwrap();
        let mut keys = reference_matches(&premise.atoms, instance, seed, &vars);
        keys.retain(|key| {
            premise.constant_vars.iter().all(|v| key[slot(v)].is_const())
                && premise.inequalities.iter().all(|(a, b)| key[slot(a)] != key[slot(b)])
        });
        keys
    }

    fn plan_matches(plan: &PremisePlan, instance: &Instance) -> Vec<Vec<Value>> {
        let mut keys = Vec::new();
        plan.for_each_match(instance, &HomConfig::default(), |vals| {
            keys.push(vals.to_vec());
            true
        });
        keys
    }

    fn sorted(mut keys: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        keys.sort();
        keys
    }

    fn satisfiable(sat: &SatisfactionPlan, instance: &Instance, vals: &[Value]) -> bool {
        let mut stats = HomStats::default();
        sat.satisfiable_budgeted(instance, vals, &HomConfig::default(), &mut stats).holds()
    }

    #[test]
    fn slot_order_matches_universal_vars() {
        let mut v = Vocabulary::new();
        let d = parse_dependency(&mut v, "P(y, x) & Q(x, z) -> R(z, y)").unwrap();
        let plan = PremisePlan::compile(&d.premise);
        assert_eq!(plan.vars(), d.universal_vars().as_slice());
        assert_eq!(plan.num_atoms(), 2);
    }

    #[test]
    fn full_enumeration_agrees_with_matching() {
        let mut v = Vocabulary::new();
        let i = rde_model::parse::parse_instance(&mut v, "P(a, b)\nP(b, c)\nP(a, ?x)\n").unwrap();
        let d = parse_dependency(&mut v, "P(x, y) & P(y, z) -> P(x, z)").unwrap();
        let plan = PremisePlan::compile(&d.premise);
        let keys = plan_matches(&plan, &i);
        // Only a→b→c joins: no fact starts with the null.
        let (a, b, c) = (v.const_value("a"), v.const_value("b"), v.const_value("c"));
        assert_eq!(keys, vec![vec![a, b, c]]);
        let reference = reference_premise_matches(&d.premise, &i, &FxHashMap::default());
        assert_eq!(sorted(keys), sorted(reference));
    }

    #[test]
    fn guards_filter_plan_matches() {
        let mut v = Vocabulary::new();
        let i = rde_model::parse::parse_instance(&mut v, "R(a, a)\nR(a, b)\nR(?n, b)").unwrap();
        let count = |v: &mut Vocabulary, text: &str| {
            let d = parse_dependency(v, text).unwrap();
            plan_matches(&PremisePlan::compile(&d.premise), &i).len()
        };
        assert_eq!(count(&mut v, "R(x, y) & x != y -> R(y, x)"), 2);
        assert_eq!(count(&mut v, "R(x, y) & Constant(x) -> R(y, x)"), 2);
        // Only R(a, b) passes both guards.
        assert_eq!(count(&mut v, "R(x, y) & Constant(x) & x != y -> R(y, x)"), 1);
    }

    #[test]
    fn nulls_match_like_values() {
        let mut v = Vocabulary::new();
        for _ in 0..10 {
            v.fresh_null();
        }
        // A high null id next to constants: slots never collide with it.
        let i =
            rde_model::parse::parse_instance(&mut v, "P(a, b)\nP(a, ?x)\nP(?big, ?big)").unwrap();
        let d = parse_dependency(&mut v, "P(x, y) -> P(y, x)").unwrap();
        let keys = plan_matches(&PremisePlan::compile(&d.premise), &i);
        assert_eq!(keys.len(), 3, "every fact matches, nulls included");
        let big = v.null_value("big");
        assert!(keys.contains(&vec![big, big]));
    }

    #[test]
    fn empty_conjunction_matches_once() {
        let plan = PremisePlan::compile(&Premise::default());
        assert_eq!(plan_matches(&plan, &Instance::new()), vec![Vec::<Value>::new()]);
        let sat = SatisfactionPlan::compile(&plan, &Conjunct::full(Vec::new()));
        assert!(satisfiable(&sat, &Instance::new(), &[]));
    }

    #[test]
    fn seeding_restricts_to_matches_through_the_fact() {
        let mut v = Vocabulary::new();
        let i = rde_model::parse::parse_instance(&mut v, "E(a, b)\nE(b, c)\nE(c, d)").unwrap();
        let d = parse_dependency(&mut v, "E(x, y) & E(y, z) -> E(x, z)").unwrap();
        let plan = PremisePlan::compile(&d.premise);
        let e = v.find_relation("E").unwrap();
        let (b, c) = (v.const_value("b"), v.const_value("c"));
        // Seed atom 0 := E(b, c): only the match (b, c, d).
        let mut seed = Vec::new();
        assert!(plan.seed_from_fact(0, &[b, c], &mut seed));
        let mut keys = Vec::new();
        plan.for_each_match_seeded(0, &seed, &i, &HomConfig::default(), |vals| {
            keys.push(vals.to_vec());
            true
        });
        assert_eq!(keys, vec![vec![b, c, v.const_value("d")]]);
        // Seed atom 1 := E(b, c): only the match (a, b, c).
        assert!(plan.seed_from_fact(1, &[b, c], &mut seed));
        keys.clear();
        plan.for_each_match_seeded(1, &seed, &i, &HomConfig::default(), |vals| {
            keys.push(vals.to_vec());
            true
        });
        assert_eq!(keys, vec![vec![v.const_value("a"), b, c]]);
        assert_eq!(plan.atom_rel(0), e);
    }

    #[test]
    fn seed_rejects_non_unifying_facts() {
        let mut v = Vocabulary::new();
        let d = parse_dependency(&mut v, "P(x, x) -> Q(x)").unwrap();
        let plan = PremisePlan::compile(&d.premise);
        let (a, b) = (v.const_value("a"), v.const_value("b"));
        let mut seed = Vec::new();
        assert!(!plan.seed_from_fact(0, &[a, b], &mut seed), "P(x,x) cannot unify with P(a,b)");
        assert!(plan.seed_from_fact(0, &[a, a], &mut seed));
        assert_eq!(seed, vec![Some(a)]);
        // A null on a `Constant`-guarded slot does not unify either.
        let d = parse_dependency(&mut v, "P(x, y) & Constant(y) -> Q(x)").unwrap();
        let guarded = PremisePlan::compile(&d.premise);
        let n = v.null_value("n");
        assert!(!guarded.seed_from_fact(0, &[a, n], &mut seed));
        assert!(guarded.seed_from_fact(0, &[n, a], &mut seed));
    }

    #[test]
    fn satisfaction_plan_leaves_existentials_free() {
        let mut v = Vocabulary::new();
        let d = parse_dependency(&mut v, "P(x, y) -> exists z . Q(y, z)").unwrap();
        let plan = PremisePlan::compile(&d.premise);
        let sat = SatisfactionPlan::compile(&plan, &d.disjuncts[0]);
        let i = rde_model::parse::parse_instance(&mut v, "Q(a, ?w)").unwrap();
        let (a, b) = (v.const_value("a"), v.const_value("b"));
        // Trigger (x=b, y=a): Q(a, ·) exists.
        assert!(satisfiable(&sat, &i, &[b, a]));
        // Trigger (x=a, y=b): no Q(b, ·).
        assert!(!satisfiable(&sat, &i, &[a, b]));
    }

    #[test]
    fn witnessed_is_a_kleene_disjunction() {
        let mut v = Vocabulary::new();
        let d = parse_dependency(&mut v, "R(x) -> P(x) | exists y . Q(x, y)").unwrap();
        let plan = DependencyPlan::compile(&d);
        let i = rde_model::parse::parse_instance(&mut v, "Q(a, ?n)").unwrap();
        let (a, b) = (v.const_value("a"), v.const_value("b"));
        let cfg = HomConfig::default();
        let mut stats = HomStats::default();
        assert!(plan.witnessed(&i, &[a], &cfg, &mut stats).holds(), "second disjunct");
        assert!(plan.witnessed(&i, &[b], &cfg, &mut stats).fails());
        // A zero budget cuts the second disjunct's search: no definite
        // verdict.
        let tight = HomConfig { node_budget: Some(0), ..HomConfig::default() };
        assert!(plan.witnessed(&i, &[a], &tight, &mut stats).is_unknown());
    }

    #[test]
    fn firing_template_instantiates_with_fresh_nulls() {
        let mut v = Vocabulary::new();
        let d = parse_dependency(&mut v, "P(x, y) -> exists z . Q(x, z) & Q(z, y)").unwrap();
        let plan = PremisePlan::compile(&d.premise);
        let tpl = FiringTemplate::compile(&plan, &d.disjuncts[0]);
        assert_eq!(tpl.num_existentials(), 1);
        let (a, b) = (v.const_value("a"), v.const_value("b"));
        let z = Value::Null(NullId(7));
        let mut facts = Vec::new();
        let completed = tpl.instantiate_into(&[a, b], &[z], &mut Vec::new(), |rel, args| {
            facts.push(Fact::new(rel, args));
            true
        });
        assert!(completed);
        let q = v.find_relation("Q").unwrap();
        assert_eq!(facts, vec![Fact::new(q, vec![a, z]), Fact::new(q, vec![z, b])]);
    }

    #[test]
    fn never_witnessed_needs_all_three_conditions() {
        let mut v = Vocabulary::new();
        let mut marks = |rules: &[&str], input: &str| {
            let deps: Vec<Dependency> =
                rules.iter().map(|d| parse_dependency(&mut v, d).unwrap()).collect();
            let input = rde_model::parse::parse_instance(&mut v, input).unwrap();
            never_witnessed(&deps, &input)
        };
        // All three hold: one atom names x and y, is A's only writer, and
        // the input has no A (an existential atom qualifies alike).
        assert_eq!(marks(&["T(x, y) -> A(x, y)"], "T(a, b)"), [true]);
        assert_eq!(marks(&["T(x, y) -> exists w . B(x, y, w)"], "T(a, b)"), [true]);
        assert_eq!(marks(&["T(x, y) -> exists w . C(w) & D(y, w, x)"], ""), [true]);
        // The recovery pair of Theorem 6.5's decomposition: each writer
        // puts a fresh null where the other holds a value read from an
        // unwritten relation.
        let recovery = ["Q(x, y) -> exists z . P(x, y, z)", "R(y, z) -> exists x . P(x, y, z)"];
        assert_eq!(marks(&recovery, "Q(a, b)\nR(b, c)"), [true, true]);
        // 1 fails: the atom omits a premise variable.
        assert_eq!(marks(&["T(x, y) -> U(x)"], "T(a, b)"), [false]);
        assert_eq!(marks(&["T(x, y) & E(y, z) -> A(x, z)"], ""), [false]);
        // 2 fails: the input already holds a fact of the relation.
        assert_eq!(marks(&["T(x, y) -> A(x, y)"], "T(a, b)\nA(c, d)"), [false]);
        assert_eq!(marks(&recovery, "Q(a, b)\nP(a, b, c)"), [false, false]);
        // 3 fails: another conclusion atom writes the relation with no
        // existential where this one reads an input value, in the same
        // dependency or in another one.
        assert_eq!(marks(&["E(x, y) -> R(x, y) & R(y, x)"], "E(a, b)"), [false]);
        assert_eq!(marks(&["T(x, y) -> A(x, y)", "E(x, y) -> A(y, x)"], ""), [false, false]);
        assert_eq!(
            marks(&["E(x, y) -> T(x, y)", "T(x, y) & T(y, z) -> T(x, z)"], ""),
            [false, false]
        );
        // ... `v` also occurs in a written relation, so it may bind a
        // fresh null: `W` is written by the third rule.
        assert_eq!(
            marks(
                &[
                    "Q(x, y) & W(x) -> exists z . P(x, y, z)",
                    "R(y, z) -> exists x . P(x, y, z)",
                    "R(y, z) -> exists w . W(w)"
                ],
                ""
            ),
            [false, true, false]
        );
        // ... the other writer has a premise variable at that position
        // (the second rule is still told apart by the first's `z`).
        assert_eq!(
            marks(&["Q(x, y) -> exists z . P(x, y, z)", "R(y, z) -> P(z, y, z)"], ""),
            [false, true]
        );
        // A disjunctive dependency qualifies only when every disjunct
        // has such an atom: `S(x, y)` has no existential apart from the
        // other `S` writer's, until that writer gets one.
        let second = "Q(x, y) -> exists z . P(x, y, z) | S(x, y)";
        assert_eq!(marks(&[second, "R(x, y) -> S(x, y)"], ""), [false, false]);
        assert_eq!(marks(&[second, "R(x, y) -> exists w . S(w, y)"], ""), [true, false]);
        assert_eq!(marks(&["G(x) -> H(x) | K(x)"], ""), [true]);
        // Each dependency is marked on its own.
        assert_eq!(
            marks(
                &["E(x, y) -> T(x, y)", "T(x, y) -> A(x, y)", "T(x, y) -> U(x)"],
                "E(a, b)\nT(c, c)"
            ),
            [false, true, false]
        );
    }

    const RELS: [(&str, usize); 3] = [("P", 2), ("Q", 2), ("R", 1)];

    /// A generated atom: a relation index and two term codes (the
    /// second is ignored for `R/1`).
    type GenAtom = (usize, (u8, u8));

    fn gen_atom() -> impl Strategy<Value = GenAtom> {
        (0..RELS.len(), (0u8..10, 0u8..10))
    }

    /// Render a generated dependency. Premise codes `0..8` are the
    /// variables `x0..x3`, the rest the constant `c0`; conclusion codes
    /// `0..5` are variables, `5..8` the existentials `e0`, `e1`, the
    /// rest `c0`. A guard or conclusion variable missing from the
    /// premise atoms is renamed to one that occurs (or to `c0`), so
    /// every case is a valid dependency.
    fn render(premise: &[GenAtom], guards: (u8, (u8, u8)), conclusion: &[GenAtom]) -> String {
        let terms = |&(rel, (a, b)): &GenAtom| [a, b].into_iter().take(RELS[rel].1);
        let bound: Vec<u8> =
            premise.iter().flat_map(terms).filter(|&c| c < 8).map(|c| c % 4).collect();
        let var = |i: u8| {
            if bound.contains(&i) {
                Some(format!("x{i}"))
            } else {
                bound.get(usize::from(i) % bound.len().max(1)).map(|j| format!("x{j}"))
            }
        };
        let atom = |a: &GenAtom, code: &dyn Fn(u8) -> String| {
            let args: Vec<String> = terms(a).map(code).collect();
            format!("{}({})", RELS[a.0].0, args.join(", "))
        };
        let mut lhs: Vec<String> = premise
            .iter()
            .map(|a| atom(a, &|c| if c < 8 { format!("x{}", c % 4) } else { "'c0'".into() }))
            .collect();
        let (constant, (left, right)) = guards;
        if let Some(x) = var(constant).filter(|_| constant < 4) {
            lhs.push(format!("Constant({x})"));
        }
        if let (Some(x), Some(y)) = (var(left % 4), var(right % 4)) {
            if left < 4 && x != y {
                lhs.push(format!("{x} != {y}"));
            }
        }
        let mut exists: Vec<String> = Vec::new();
        let rhs: Vec<String> = conclusion
            .iter()
            .map(|a| {
                atom(a, &|c| match c {
                    0..=4 => var(c % 4).unwrap_or_else(|| "'c0'".into()),
                    5..=7 => format!("e{}", c % 2),
                    _ => "'c0'".into(),
                })
            })
            .collect();
        for e in ["e0", "e1"] {
            if rhs.iter().any(|a| a.contains(e)) {
                exists.push(e.to_owned());
            }
        }
        let quantifier = if exists.is_empty() {
            String::new()
        } else {
            format!("exists {} . ", exists.join(", "))
        };
        format!("{} -> {quantifier}{}", lhs.join(" & "), rhs.join(" & "))
    }

    /// A generated fact: a relation index and two `(is_null, index)`
    /// argument codes (the second is ignored for `R/1`).
    type GenFact = (usize, (bool, u8, bool, u8));

    /// Random instance over P/2, Q/2, R/1 with constants `c0..c2` and
    /// nulls `n0..n2`.
    fn build_instance(v: &mut Vocabulary, facts: &[GenFact]) -> Instance {
        facts
            .iter()
            .map(|&(rel, (n1, a, n2, b))| {
                let (name, arity) = RELS[rel];
                let r = v.find_relation(name).unwrap();
                let vals: Vec<Value> = [(n1, a), (n2, b)][..arity]
                    .iter()
                    .map(|&(null, i)| {
                        if null {
                            v.null_value(&format!("n{i}"))
                        } else {
                            v.const_value(&format!("c{i}"))
                        }
                    })
                    .collect();
                Fact::new(r, vals)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The compiled plans against the reference matcher: full
        /// premise enumeration, delta-seeded enumeration through every
        /// unifying fact, and satisfaction of every trigger with the
        /// existentials free — as multisets, so a duplicate or a
        /// missing match fails alike.
        #[test]
        fn plans_agree_with_the_reference_matcher(
            premise in prop::collection::vec(gen_atom(), 1..=3),
            guards in (0u8..8, (0u8..8, 0u8..8)),
            conclusion in prop::collection::vec(gen_atom(), 1..=2),
            facts in prop::collection::vec(
                (0..RELS.len(), (any::<bool>(), 0u8..3, any::<bool>(), 0u8..3)),
                0..=10,
            ),
        ) {
            let text = render(&premise, guards, &conclusion);
            let mut v = Vocabulary::new();
            for (name, arity) in RELS {
                v.relation(name, arity).unwrap();
            }
            let d = parse_dependency(&mut v, &text).unwrap();
            let i = build_instance(&mut v, &facts);
            let plan = DependencyPlan::compile(&d);
            let none = FxHashMap::default();

            let keys = plan_matches(plan.premise(), &i);
            let reference = reference_premise_matches(&d.premise, &i, &none);
            prop_assert_eq!(sorted(keys.clone()), sorted(reference), "{}", text);

            for atom_idx in 0..plan.premise().num_atoms() {
                let rel = plan.premise().atom_rel(atom_idx);
                let mut seed = Vec::new();
                for fact in i.facts().filter(|f| f.relation() == rel) {
                    if !plan.premise().seed_from_fact(atom_idx, fact.args(), &mut seed) {
                        continue;
                    }
                    let mut seeded = Vec::new();
                    let cfg = HomConfig::default();
                    plan.premise().for_each_match_seeded(atom_idx, &seed, &i, &cfg, |vals| {
                        seeded.push(vals.to_vec());
                        true
                    });
                    let seed_map: FxHashMap<VarId, Value> = plan
                        .premise
                        .vars()
                        .iter()
                        .zip(&seed)
                        .filter_map(|(&var, val)| val.map(|val| (var, val)))
                        .collect();
                    let reference = reference_premise_matches(&d.premise, &i, &seed_map);
                    prop_assert_eq!(sorted(seeded), sorted(reference), "{} via {:?}", text, fact);
                }
            }

            let sat = &plan.satisfaction()[0];
            for key in &keys {
                let seed: FxHashMap<VarId, Value> =
                    plan.premise().vars().iter().copied().zip(key.iter().copied()).collect();
                let expected =
                    !reference_matches(&d.disjuncts[0].atoms, &i, &seed, &[]).is_empty();
                prop_assert_eq!(satisfiable(sat, &i, key), expected, "{} at {:?}", text, key);
            }
        }
    }
}

//! Compiled dependency plans for the chase hot path.
//!
//! [`matching`](crate::matching) freezes a premise into a throwaway
//! `Instance` on *every* enumeration call, which in turn forces a scan
//! over the target's nulls to pick a collision-free offset. A chase
//! evaluates the same premises against a growing instance thousands of
//! times, so this module compiles each dependency **once** into:
//!
//! * a [`PremisePlan`] — the premise atoms over dense variable slots
//!   (a [`CompiledPattern`]) plus the guard checks, supporting both
//!   full enumeration and delta-seeded enumeration for the semi-naive
//!   rounds;
//! * a conclusion satisfaction pattern (for [`ChaseMode::Standard`]
//!   pre-checks), sharing the premise's slot space;
//! * a [`FiringTemplate`] — the conclusion atoms as value/slot
//!   instructions, so firing a trigger is a direct copy with no hash
//!   lookups.
//!
//! Slots are assigned in first-appearance order over the premise
//! atoms, i.e. exactly `Dependency::universal_vars()` order — a full
//! slot assignment `[Value]` therefore doubles as the canonical
//! trigger key.
//!
//! All premise enumeration funnels through [`CompiledPattern`], so the
//! plans share the hom searcher's posting lists and its one-probe
//! handling of fully bound atoms (DESIGN.md §8) with no change here.
//!
//! [`ChaseMode::Standard`]: crate::ChaseMode::Standard

use rde_deps::{Conjunct, Premise, Term, VarId};
use rde_hom::{CompiledPattern, Exhausted, HomConfig, HomStats, PatArg, PatternAtom, Verdict};
use rde_model::fx::FxHashMap;
use rde_model::{Fact, Instance, RelId, Value};

/// Outcome of one (possibly budgeted) premise enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchReport {
    /// Matches enumerated (pre-guard).
    pub matches: u64,
    /// Homomorphism-search work this enumeration performed.
    pub stats: HomStats,
    /// `Some` when the configured budget cut the enumeration short —
    /// the matches reported so far are valid but incomplete.
    pub exhausted: Option<Exhausted>,
}

/// A compiled premise: atoms over dense slots plus guards.
#[derive(Debug, Clone)]
pub struct PremisePlan {
    pattern: CompiledPattern,
    /// Slot `i` holds the value of `vars[i]`; this is the premise's
    /// variable list in first-appearance (= `universal_vars`) order.
    vars: Vec<VarId>,
    /// Slots guarded by `Constant(·)`.
    constant_slots: Vec<u32>,
    /// Slot pairs that must be bound to distinct values.
    inequality_slots: Vec<(u32, u32)>,
}

impl PremisePlan {
    /// Compile a premise. Guard variables are resolved to slots here;
    /// validated dependencies guarantee they occur in premise atoms.
    pub fn compile(premise: &Premise) -> Self {
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
        let constant_slots = premise.constant_vars.iter().map(|v| slots[v]).collect();
        let inequality_slots =
            premise.inequalities.iter().map(|&(a, b)| (slots[&a], slots[&b])).collect();
        PremisePlan { pattern: CompiledPattern::new(atoms), vars, constant_slots, inequality_slots }
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

    fn guards_hold(&self, vals: &[Value]) -> bool {
        self.constant_slots.iter().all(|&s| vals[s as usize].is_const())
            && self.inequality_slots.iter().all(|&(a, b)| vals[a as usize] != vals[b as usize])
    }

    /// Unify premise atom `atom_idx` with a fact's argument tuple,
    /// producing a slot seed, or `None` if they don't unify (relation
    /// mismatch is the caller's job — it has `atom_rel`).
    pub fn seed_from_fact(
        &self,
        atom_idx: usize,
        fact_args: &[Value],
    ) -> Option<Vec<Option<Value>>> {
        let atom = &self.pattern.atoms()[atom_idx];
        if atom.args.len() != fact_args.len() {
            return None;
        }
        let mut seed: Vec<Option<Value>> = vec![None; self.num_vars()];
        for (arg, &fv) in atom.args.iter().zip(fact_args) {
            match *arg {
                PatArg::Fixed(v) => {
                    if v != fv {
                        return None;
                    }
                }
                PatArg::Var(s) => match seed[s as usize] {
                    Some(v) if v != fv => return None,
                    _ => seed[s as usize] = Some(fv),
                },
            }
        }
        Some(seed)
    }

    /// Enumerate all premise matches (guards filtered) in `instance`,
    /// unbounded. The callback gets the full slot assignment and
    /// returns `false` to stop. Returns the number of matches
    /// enumerated (pre-guard).
    pub fn for_each_match(
        &self,
        instance: &Instance,
        on_match: impl FnMut(&[Value]) -> bool,
    ) -> u64 {
        self.enumerate(None, instance, &[], &HomConfig::default(), on_match).matches
    }

    /// Like [`Self::for_each_match`] but honouring `config`'s budgets;
    /// check [`MatchReport::exhausted`] for completeness.
    pub fn for_each_match_budgeted(
        &self,
        instance: &Instance,
        config: &HomConfig,
        on_match: impl FnMut(&[Value]) -> bool,
    ) -> MatchReport {
        self.enumerate(None, instance, &[], config, on_match)
    }

    /// Enumerate premise matches where atom `atom_idx` is mapped onto
    /// the (already inserted) fact that produced `seed` — the
    /// semi-naive delta step. `seed` must come from
    /// [`Self::seed_from_fact`] for that atom. Unbounded.
    pub fn for_each_match_seeded(
        &self,
        atom_idx: usize,
        seed: &[Option<Value>],
        instance: &Instance,
        on_match: impl FnMut(&[Value]) -> bool,
    ) -> u64 {
        self.enumerate(Some(atom_idx), instance, seed, &HomConfig::default(), on_match).matches
    }

    /// Like [`Self::for_each_match_seeded`] but honouring `config`'s
    /// budgets.
    pub fn for_each_match_seeded_budgeted(
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
        let mut vals: Vec<Value> = Vec::with_capacity(self.num_vars());
        let report =
            self.pattern.for_each_match_excluding(skip, instance, seed, config, |assignment| {
                vals.clear();
                // Invariant: `for_each_match_excluding` only yields
                // complete assignments — every slot is `Some`.
                #[allow(clippy::expect_used)]
                vals.extend(assignment.iter().map(|v| v.expect("full match binds every slot")));
                if self.guards_hold(&vals) {
                    on_match(&vals)
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
    pub fn compile(premise_plan: &PremisePlan, conclusion: &Conjunct) -> Self {
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
    /// free) satisfy the conclusion in `instance`? Unbounded.
    pub fn satisfiable(&self, instance: &Instance, premise_vals: &[Value]) -> bool {
        let mut stats = HomStats::default();
        self.satisfiable_budgeted(instance, premise_vals, &HomConfig::default(), &mut stats).holds()
    }

    /// Three-valued satisfiability under `config`'s budgets,
    /// accumulating search work into `stats`.
    pub fn satisfiable_budgeted(
        &self,
        instance: &Instance,
        premise_vals: &[Value],
        config: &HomConfig,
        stats: &mut HomStats,
    ) -> Verdict {
        debug_assert_eq!(premise_vals.len(), self.n_premise);
        let seed: Vec<Option<Value>> = premise_vals.iter().map(|&v| Some(v)).collect();
        let mut found = false;
        let report = self.pattern.for_each_match(instance, &seed, config, |_| {
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
    pub fn compile(premise_plan: &PremisePlan, conclusion: &Conjunct) -> Self {
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
    /// variable of the disjunct, in declaration order — matching the
    /// order the interpreted chase allocated them).
    pub fn num_existentials(&self) -> usize {
        self.n_existentials
    }

    /// Instantiate the conclusion atoms. `fresh[i]` is the value for
    /// existential `i`; must have length [`Self::num_existentials`].
    pub fn instantiate(
        &self,
        premise_vals: &[Value],
        fresh: &[Value],
        mut on_fact: impl FnMut(Fact),
    ) {
        debug_assert_eq!(fresh.len(), self.n_existentials);
        for (rel, args) in &self.atoms {
            let values: Vec<Value> = args
                .iter()
                .map(|a| match *a {
                    OutArg::Fixed(v) => v,
                    OutArg::Premise(s) => premise_vals[s as usize],
                    OutArg::Exist(e) => fresh[e as usize],
                })
                .collect();
            on_fact(Fact::new(*rel, values));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rde_deps::parse_dependency;
    use rde_model::{NullId, Vocabulary};

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
        let mut keys: Vec<Vec<Value>> = Vec::new();
        plan.for_each_match(&i, |vals| {
            keys.push(vals.to_vec());
            true
        });
        let universal = d.universal_vars();
        let mut legacy: Vec<Vec<Value>> = Vec::new();
        crate::matching::for_each_premise_match(&d.premise, &i, |a| {
            legacy.push(crate::matching::trigger_key(&universal, a));
            true
        });
        keys.sort();
        legacy.sort();
        assert_eq!(keys, legacy);
    }

    #[test]
    fn guards_filter_plan_matches() {
        let mut v = Vocabulary::new();
        let i = rde_model::parse::parse_instance(&mut v, "R(a, a)\nR(a, b)\nR(?n, b)").unwrap();
        let d = parse_dependency(&mut v, "R(x, y) & Constant(x) & x != y -> R(y, x)").unwrap();
        let plan = PremisePlan::compile(&d.premise);
        let mut count = 0;
        plan.for_each_match(&i, |vals| {
            assert!(vals[0].is_const());
            assert_ne!(vals[0], vals[1]);
            count += 1;
            true
        });
        assert_eq!(count, 1); // only R(a, b)
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
        let seed = plan.seed_from_fact(0, &[b, c]).unwrap();
        let mut keys = Vec::new();
        plan.for_each_match_seeded(0, &seed, &i, |vals| {
            keys.push(vals.to_vec());
            true
        });
        assert_eq!(keys, vec![vec![b, c, v.const_value("d")]]);
        // Seed atom 1 := E(b, c): only the match (a, b, c).
        let seed = plan.seed_from_fact(1, &[b, c]).unwrap();
        keys.clear();
        plan.for_each_match_seeded(1, &seed, &i, |vals| {
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
        assert!(plan.seed_from_fact(0, &[a, b]).is_none(), "P(x,x) cannot unify with P(a,b)");
        assert!(plan.seed_from_fact(0, &[a, a]).is_some());
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
        assert!(sat.satisfiable(&i, &[b, a]));
        // Trigger (x=a, y=b): no Q(b, ·).
        assert!(!sat.satisfiable(&i, &[a, b]));
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
        tpl.instantiate(&[a, b], &[z], |f| facts.push(f));
        let q = v.find_relation("Q").unwrap();
        assert_eq!(facts, vec![Fact::new(q, vec![a, z]), Fact::new(q, vec![z, b])]);
    }
}

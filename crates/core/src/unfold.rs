//! Syntactic composition of schema mappings by unfolding.
//!
//! The paper's introduction motivates combining **composition** and
//! **inverse** to analyze schema evolution. Composition of schema
//! mappings is not always first-order definable, but when the first
//! mapping is specified by **full** s-t tgds and the second by
//! arbitrary s-t tgds, the composition `M₁₂ ∘ M₂₃` is definable by
//! s-t tgds, obtained by *unfolding*: every premise atom of a
//! `Σ₂₃`-dependency is resolved against a conclusion atom of a
//! `Σ₁₂`-dependency, the two are unified, and the `Σ₁₂` premises are
//! substituted in (Fagin–Kolaitis–Popa–Tan, *Composing Schema
//! Mappings*, and Madhavan–Halevy).
//!
//! Correctness hinges on `Σ₁₂` being full: then `chase_{Σ₁₂}(I)` has
//! no invented nulls, `Sol_{Σ₁₂}(I)` is the up-set `{J ⊇
//! chase_{Σ₁₂}(I)}`, and `(I, K) ∈ M₁₂ ∘ M₂₃ ⟺ (chase_{Σ₁₂}(I), K) ⊨
//! Σ₂₃` — which the unfolded dependencies express directly over `I`.
//! Premise guards of `Σ₂₃` (inequalities, `Constant`) are carried
//! through the unifier; statically decidable guard instances are
//! simplified away.

use rde_deps::{Atom, Conjunct, Dependency, Premise, SchemaMapping, Term, VarId};
use rde_model::fx::FxHashMap;
use rde_model::Vocabulary;

use crate::CoreError;

/// Maximum unfolded dependencies produced overall (the combination
/// count is `Πᵢ (conclusion atoms matching premise atom i)` per
/// dependency).
pub const MAX_DEPENDENCIES: usize = 10_000;

/// Compose `m12 ∘ m23` syntactically. Requires `m12` full-tgd-specified
/// and `m23` (possibly guarded, possibly disjunctive) tgd-specified,
/// with `m12.target == m23.source`.
pub fn compose_mappings(
    m12: &SchemaMapping,
    m23: &SchemaMapping,
    vocab: &Vocabulary,
) -> Result<SchemaMapping, CoreError> {
    if !m12.is_full_tgd_mapping() {
        return Err(CoreError::UnsupportedMapping { required: "a full-tgd first mapping" });
    }
    if m12.target != m23.source {
        return Err(CoreError::UnsupportedMapping {
            required: "m12.target = m23.source (composable mappings)",
        });
    }
    let mut out: Vec<Dependency> = Vec::new();
    for d23 in &m23.dependencies {
        unfold_dependency(m12, d23, vocab, &mut out)?;
    }
    Ok(SchemaMapping::new(m12.source.clone(), m23.target.clone(), out))
}

/// A term environment for one unfolding: variables of the combined
/// namespace, with a union-find-ish binding map.
struct Unifier {
    /// Binding of variable → term (resolved transitively).
    bindings: FxHashMap<VarId, Term>,
}

impl Unifier {
    fn new() -> Self {
        Unifier { bindings: FxHashMap::default() }
    }

    fn resolve(&self, t: Term) -> Term {
        let mut current = t;
        let mut guard = 0;
        while let Term::Var(v) = current {
            match self.bindings.get(&v) {
                Some(&next) => {
                    current = next;
                    guard += 1;
                    debug_assert!(guard <= self.bindings.len() + 1, "binding cycle");
                }
                None => break,
            }
        }
        current
    }

    fn unify(&mut self, a: Term, b: Term) -> bool {
        let ra = self.resolve(a);
        let rb = self.resolve(b);
        match (ra, rb) {
            (Term::Const(x), Term::Const(y)) => x == y,
            (Term::Var(v), other) => {
                if Term::Var(v) != other {
                    self.bindings.insert(v, other);
                }
                true
            }
            (other, Term::Var(v)) => {
                self.bindings.insert(v, other);
                true
            }
        }
    }

    fn apply_atom(&self, a: &Atom) -> Atom {
        Atom { rel: a.rel, args: a.args.iter().map(|&t| self.resolve(t)).collect() }
    }
}

/// Rename a dependency's variables into a shared namespace starting at
/// `offset`, returning the renamed premise/disjuncts and the new offset.
fn shift_dependency(dep: &Dependency, offset: u32) -> (Premise, Vec<Conjunct>, u32) {
    let shift = |t: &Term| match *t {
        Term::Var(v) => Term::Var(VarId(v.0 + offset)),
        c => c,
    };
    let shift_atom = |a: &Atom| Atom { rel: a.rel, args: a.args.iter().map(shift).collect() };
    let premise = Premise {
        atoms: dep.premise.atoms.iter().map(shift_atom).collect(),
        constant_vars: dep.premise.constant_vars.iter().map(|v| VarId(v.0 + offset)).collect(),
        inequalities: dep
            .premise
            .inequalities
            .iter()
            .map(|&(a, b)| (VarId(a.0 + offset), VarId(b.0 + offset)))
            .collect(),
    };
    let disjuncts = dep
        .disjuncts
        .iter()
        .map(|c| Conjunct {
            existentials: c.existentials.iter().map(|v| VarId(v.0 + offset)).collect(),
            atoms: c.atoms.iter().map(shift_atom).collect(),
        })
        .collect();
    (premise, disjuncts, offset + dep.var_count() as u32)
}

fn unfold_dependency(
    m12: &SchemaMapping,
    d23: &Dependency,
    vocab: &Vocabulary,
    out: &mut Vec<Dependency>,
) -> Result<(), CoreError> {
    // Combined namespace: d23's variables first.
    let (premise23, disjuncts23, mut next_var) = shift_dependency(d23, 0);

    // For each premise atom of d23, the candidate (renamed Σ12 premise,
    // conclusion atom) resolutions.
    struct Resolution {
        premise12: Vec<Atom>,
        conclusion_atom: Atom,
    }
    let mut candidates: Vec<Vec<Resolution>> = Vec::new();
    for atom in &premise23.atoms {
        let mut options_for_atom = Vec::new();
        for d12 in &m12.dependencies {
            // Fresh copy of d12 per (atom, d12) pair.
            let (p12, c12, nv) = shift_dependency(d12, next_var);
            next_var = nv;
            for b in &c12[0].atoms {
                if b.rel == atom.rel {
                    options_for_atom.push(Resolution {
                        premise12: p12.atoms.clone(),
                        conclusion_atom: b.clone(),
                    });
                }
            }
        }
        candidates.push(options_for_atom);
    }
    if candidates.iter().any(Vec::is_empty) {
        // Some premise atom can never be produced by Σ12: the unfolded
        // dependency is vacuous (its premise is unsatisfiable over
        // chase results) — emit nothing.
        return Ok(());
    }

    // Cartesian product of resolutions.
    let mut idx = vec![0usize; candidates.len()];
    loop {
        let mut unifier = Unifier::new();
        let mut ok = true;
        let mut premise_atoms: Vec<Atom> = Vec::new();
        for (i, atom) in premise23.atoms.iter().enumerate() {
            let res = &candidates[i][idx[i]];
            debug_assert_eq!(atom.args.len(), res.conclusion_atom.args.len());
            for (a, b) in atom.args.iter().zip(&res.conclusion_atom.args) {
                if !unifier.unify(*a, *b) {
                    ok = false;
                    break;
                }
            }
            if !ok {
                break;
            }
            premise_atoms.extend(res.premise12.iter().cloned());
        }
        if ok {
            if let Some(dep) =
                finish_unfolding(&unifier, premise_atoms, &premise23, &disjuncts23, next_var)
            {
                // α-dedup via the validated printer-independent route:
                // compare rendered forms.
                if dep.validate(vocab).is_ok() && !out.contains(&dep) {
                    out.push(dep);
                    if out.len() > MAX_DEPENDENCIES {
                        return Err(CoreError::SearchLimitExceeded {
                            what: "unfolded dependencies",
                            limit: MAX_DEPENDENCIES,
                        });
                    }
                }
            }
        }
        // Odometer.
        let mut pos = candidates.len();
        loop {
            if pos == 0 {
                return Ok(());
            }
            pos -= 1;
            idx[pos] += 1;
            if idx[pos] < candidates[pos].len() {
                break;
            }
            idx[pos] = 0;
        }
    }
}

/// Apply the unifier, simplify guards, and assemble the dependency.
/// Returns `None` when a guard is statically false.
fn finish_unfolding(
    unifier: &Unifier,
    premise_atoms: Vec<Atom>,
    premise23: &Premise,
    disjuncts23: &[Conjunct],
    var_count: u32,
) -> Option<Dependency> {
    let premise_atoms: Vec<Atom> = {
        let mut atoms: Vec<Atom> = premise_atoms.iter().map(|a| unifier.apply_atom(a)).collect();
        atoms.dedup();
        atoms
    };
    // Guards under the unifier.
    let mut constant_vars = Vec::new();
    for &v in &premise23.constant_vars {
        match unifier.resolve(Term::Var(v)) {
            Term::Const(_) => {} // statically true
            Term::Var(w) => {
                if !constant_vars.contains(&w) {
                    constant_vars.push(w);
                }
            }
        }
    }
    let mut inequalities = Vec::new();
    for &(a, b) in &premise23.inequalities {
        match (unifier.resolve(Term::Var(a)), unifier.resolve(Term::Var(b))) {
            (Term::Const(x), Term::Const(y)) => {
                if x == y {
                    return None; // statically false
                }
            }
            (Term::Var(x), Term::Var(y)) if x == y => return None,
            (Term::Var(x), Term::Var(y)) => inequalities.push((x, y)),
            // var vs const: keep as inequality? The language only has
            // var ≠ var; encode by keeping the ORIGINAL variables —
            // but one side resolved to a constant means the premise
            // match pins it; a var≠const guard is expressible by
            // introducing... we conservatively keep the unresolved
            // variable pair only when both sides stay variables, and
            // otherwise drop the guard, which *weakens* the premise.
            // Weakening is unsound for composition, so reject instead.
            _ => return None,
        }
    }
    let disjuncts: Vec<Conjunct> = disjuncts23
        .iter()
        .map(|c| Conjunct {
            existentials: c
                .existentials
                .iter()
                .filter(|&&e| matches!(unifier.resolve(Term::Var(e)), Term::Var(w) if w == e))
                .copied()
                .collect(),
            atoms: c.atoms.iter().map(|a| unifier.apply_atom(a)).collect(),
        })
        .collect();
    let var_names: Vec<String> = (0..var_count).map(|i| format!("v{i}")).collect();
    Some(Dependency::new(
        var_names,
        Premise { atoms: premise_atoms, constant_vars, inequalities },
        disjuncts,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::in_composition;
    use crate::semantics::satisfies;
    use crate::Universe;
    use rde_deps::parse_mapping;
    use rde_hom::{HomConfig, HomStats};

    /// Semantic cross-check: (I, K) ⊨ composed ⟺ (I, K) ∈ M12 ∘ M23
    /// on every bounded pair.
    fn assert_composition_correct(
        m12_text: &str,
        m23_text: &str,
        consts: usize,
        nulls: usize,
        facts: usize,
    ) {
        let mut v = Vocabulary::new();
        let m12 = parse_mapping(&mut v, m12_text).unwrap();
        let m23 = parse_mapping(&mut v, m23_text).unwrap();
        let composed = compose_mappings(&m12, &m23, &v).unwrap();
        composed.validate(&v).unwrap();
        assert_eq!(composed.source, m12.source);
        assert_eq!(composed.target, m23.target);
        let universe = Universe::new(&mut v, consts, nulls, facts);
        let sources = universe.collect_instances(&v, &m12.source).unwrap();
        let targets = universe.collect_instances(&v, &m23.target).unwrap();
        let (config, mut stats) = (HomConfig::default(), HomStats::default());
        for i in &sources {
            for k in &targets {
                let semantic =
                    in_composition(&m12, &m23, i, k, &mut v, &config, &mut stats).unwrap().holds();
                let syntactic = satisfies(i, k, &composed);
                assert_eq!(
                    semantic,
                    syntactic,
                    "disagreement on I={i:?} K={k:?}\ncomposed:\n{}",
                    rde_deps::printer::mapping(&v, &composed)
                );
            }
        }
    }

    #[test]
    fn copy_then_copy_composes_to_copy() {
        assert_composition_correct(
            "source: A/2\ntarget: B/2\nA(x,y) -> B(x,y)",
            "source: B/2\ntarget: C/2\nB(x,y) -> C(y,x)",
            2,
            1,
            1,
        );
    }

    #[test]
    fn decomposition_then_rejoin() {
        assert_composition_correct(
            "source: P/3\ntarget: Q/2, R/2\nP(x,y,z) -> Q(x,y) & R(y,z)",
            "source: Q/2, R/2\ntarget: J/3\nQ(x,y) & R(y,z) -> J(x,y,z)",
            2,
            1,
            1,
        );
    }

    #[test]
    fn union_then_projection() {
        assert_composition_correct(
            "source: A/1, B/1\ntarget: R/2\nA(x) -> R(x,x)\nB(x) -> R(x,x)",
            "source: R/2\ntarget: S/1\nR(x,y) -> S(x)",
            2,
            1,
            1,
        );
    }

    #[test]
    fn existentials_in_the_second_mapping_survive() {
        assert_composition_correct(
            "source: A/1\ntarget: B/1\nA(x) -> B(x)",
            "source: B/1\ntarget: C/2\nB(x) -> exists w . C(x, w)",
            2,
            1,
            1,
        );
    }

    #[test]
    fn constants_unify_or_prune() {
        // Σ12 produces B(x, 'tag'); Σ23 matches B(u, 'tag') and
        // B(u, 'other') — the latter unfolds to nothing.
        assert_composition_correct(
            "source: A/1\ntarget: B/2\nA(x) -> B(x, 'tag')",
            "source: B/2\ntarget: C/1, D/1\nB(u, 'tag') -> C(u)\nB(u, 'other') -> D(u)",
            2,
            1,
            1,
        );
        // And the D-rule really is vacuous in the composition.
        let mut v = Vocabulary::new();
        let m12 = parse_mapping(&mut v, "source: A/1\ntarget: B/2\nA(x) -> B(x, 'tag')").unwrap();
        let m23 = parse_mapping(
            &mut v,
            "source: B/2\ntarget: C/1, D/1\nB(u, 'tag') -> C(u)\nB(u, 'other') -> D(u)",
        )
        .unwrap();
        let composed = compose_mappings(&m12, &m23, &v).unwrap();
        let d = v.find_relation("D").unwrap();
        assert!(
            composed
                .dependencies
                .iter()
                .all(|dep| dep.disjuncts.iter().all(|c| c.atoms.iter().all(|a| a.rel != d))),
            "no unfolded rule may conclude D"
        );
    }

    #[test]
    fn join_premise_resolves_against_multiple_tgds() {
        assert_composition_correct(
            "source: A/2, B/2\ntarget: E/2\nA(x,y) -> E(x,y)\nB(x,y) -> E(x,y)",
            "source: E/2\ntarget: T/2\nE(x,y) & E(y,z) -> T(x,z)",
            2,
            0,
            2,
        );
    }

    #[test]
    fn disjunctive_second_mapping_unfolds() {
        assert_composition_correct(
            "source: A/1\ntarget: R/1\nA(x) -> R(x)",
            "source: R/1\ntarget: P/1, Q/1\nR(x) -> P(x) | Q(x)",
            1,
            1,
            1,
        );
    }

    #[test]
    fn non_full_first_mapping_is_rejected() {
        let mut v = Vocabulary::new();
        let m12 =
            parse_mapping(&mut v, "source: A/1\ntarget: B/2\nA(x) -> exists y . B(x, y)").unwrap();
        let m23 = parse_mapping(&mut v, "source: B/2\ntarget: C/1\nB(x,y) -> C(x)").unwrap();
        let err = compose_mappings(&m12, &m23, &v).unwrap_err();
        assert!(matches!(err, CoreError::UnsupportedMapping { .. }));
    }

    #[test]
    fn mismatched_schemas_are_rejected() {
        let mut v = Vocabulary::new();
        let m12 = parse_mapping(&mut v, "source: A/1\ntarget: B/1\nA(x) -> B(x)").unwrap();
        let m23 = parse_mapping(&mut v, "source: X/1\ntarget: C/1\nX(x) -> C(x)").unwrap();
        let err = compose_mappings(&m12, &m23, &v).unwrap_err();
        assert!(matches!(err, CoreError::UnsupportedMapping { .. }));
    }
}

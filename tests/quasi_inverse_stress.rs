//! Stress test: the quasi-inverse algorithm on *randomly generated*
//! full-tgd mappings, each synthesized recovery verified against the
//! Theorem 4.13 criterion (`e(M) ∘ e(M′) = →_M`) on a bounded universe.
//!
//! This is the strongest correctness amplifier in the repository: the
//! synthesizer is a reconstruction of the FKPT quasi-inverse algorithm,
//! and every random mapping it handles correctly is independent
//! evidence for the reconstruction.

use proptest::prelude::*;

use rde_deps::{printer, Atom, Conjunct, Dependency, Premise, SchemaMapping, Term, VarId};
use rde_hom::{HomConfig, HomStats};
use rde_model::{Schema, Vocabulary};
use reverse_data_exchange::core::quasi_inverse::maximum_extended_recovery_full;
use reverse_data_exchange::core::recovery::{
    check_maximum_extended_recovery, find_extended_recovery_counterexample,
};
use reverse_data_exchange::core::Universe;

/// Abstract full tgd: premise atoms and conclusion atoms as
/// (relation, variable indices) pairs. Variables range over 0..3.
type AbstractDep = (Vec<(u8, Vec<u8>)>, Vec<(u8, Vec<u8>)>);

fn abstract_mapping() -> impl Strategy<Value = Vec<AbstractDep>> {
    let premise = prop::collection::vec((0u8..2, prop::collection::vec(0u8..3, 1..3)), 1..3);
    let conclusion = prop::collection::vec((0u8..2, prop::collection::vec(0u8..3, 1..3)), 1..3);
    prop::collection::vec((premise, conclusion), 1..3)
}

/// Materialize into a valid full-tgd mapping: source relations
/// `S0/1, S1/2`, target relations `T0/1, T1/2` (the relation index
/// picks the family, the arity comes from the family).
fn materialize(vocab: &mut Vocabulary, spec: &[AbstractDep]) -> Option<SchemaMapping> {
    let s = [vocab.relation("S0", 1).unwrap(), vocab.relation("S1", 2).unwrap()];
    let t = [vocab.relation("T0", 1).unwrap(), vocab.relation("T1", 2).unwrap()];
    let source = Schema::from_relations(s);
    let target = Schema::from_relations(t);
    let mut deps = Vec::new();
    for (premise_spec, conclusion_spec) in spec {
        let atom = |rels: &[rde_model::RelId], r: u8, vars: &[u8]| {
            let rel = rels[(r % 2) as usize];
            let arity = if r.is_multiple_of(2) { 1 } else { 2 };
            let args: Vec<Term> =
                (0..arity).map(|i| Term::Var(VarId(u32::from(vars[i % vars.len()]) % 3))).collect();
            Atom { rel, args }
        };
        let premise_atoms: Vec<Atom> =
            premise_spec.iter().map(|(r, vars)| atom(&s, *r, vars)).collect();
        let conclusion_atoms: Vec<Atom> =
            conclusion_spec.iter().map(|(r, vars)| atom(&t, *r, vars)).collect();
        let dep = Dependency::new(
            vec!["x0".into(), "x1".into(), "x2".into()],
            Premise { atoms: premise_atoms, constant_vars: vec![], inequalities: vec![] },
            vec![Conjunct::full(conclusion_atoms)],
        );
        if dep.validate(vocab).is_err() {
            return None; // e.g. a conclusion variable missing from the premise
        }
        deps.push(dep);
    }
    let mapping = SchemaMapping::new(source, target, deps);
    mapping.validate(vocab).ok()?;
    Some(mapping)
}

/// Abstract wide full tgd: a premise as in [`abstract_mapping`], then per
/// conclusion atom `Wi(x)` (up to 6) the premise variable it reads and
/// whether the side tgd `Ui(x) -> Wi(x)` explains it on its own.
type AbstractWide = (Vec<(u8, Vec<u8>)>, Vec<(u8, bool)>);

fn abstract_wide() -> impl Strategy<Value = AbstractWide> {
    let premise = prop::collection::vec((0u8..2, prop::collection::vec(0u8..3, 1..3)), 1..3);
    // A side tgd is drawn 7 times in 8, so most wide conclusions have
    // every side tgd and with it a cover of as many blocks as atoms.
    let side = (0u8..8).prop_map(|r| r > 0);
    (premise, prop::collection::vec((0u8..3, side), 1..=6))
}

/// Materialize a wide mapping: source `S0/1, S1/2, U1/1, …`, target
/// `W1/1, …`, one per conclusion atom. The main tgd's premise is built
/// as in [`materialize`]; conclusion atom `i` is `Wi(v)` for a premise
/// variable `v`. With every side tgd drawn, the pattern `{W1(a), …,
/// Wk(a)}` has a minimal cover of k blocks (all `Ui(a)`).
fn materialize_wide(vocab: &mut Vocabulary, spec: &AbstractWide) -> SchemaMapping {
    let (premise_spec, wide) = spec;
    let s = [vocab.relation("S0", 1).unwrap(), vocab.relation("S1", 2).unwrap()];
    let u: Vec<_> =
        (1..=wide.len()).map(|i| vocab.relation(&format!("U{i}"), 1).unwrap()).collect();
    let w: Vec<_> =
        (1..=wide.len()).map(|i| vocab.relation(&format!("W{i}"), 1).unwrap()).collect();
    let premise_atoms: Vec<Atom> = premise_spec
        .iter()
        .map(|(r, vars)| {
            let arity = if r.is_multiple_of(2) { 1 } else { 2 };
            let args =
                (0..arity).map(|i| Term::Var(VarId(u32::from(vars[i % vars.len()]) % 3))).collect();
            Atom { rel: s[usize::from(r % 2)], args }
        })
        .collect();
    let mut premise_vars: Vec<VarId> = premise_atoms.iter().flat_map(|a| a.vars()).collect();
    premise_vars.sort_unstable();
    premise_vars.dedup();
    let names = vec!["x0".into(), "x1".into(), "x2".into()];
    let conclusion: Vec<Atom> = wide
        .iter()
        .zip(&w)
        .map(|(&(v, _), &rel)| {
            let var = premise_vars[usize::from(v) % premise_vars.len()];
            Atom { rel, args: vec![Term::Var(var)] }
        })
        .collect();
    let premise = Premise { atoms: premise_atoms, constant_vars: vec![], inequalities: vec![] };
    let mut deps = vec![Dependency::new(names.clone(), premise, vec![Conjunct::full(conclusion)])];
    for (i, _) in wide.iter().enumerate().filter(|(_, &(_, side))| side) {
        let x = || vec![Term::Var(VarId(0))];
        let premise = Premise {
            atoms: vec![Atom { rel: u[i], args: x() }],
            constant_vars: vec![],
            inequalities: vec![],
        };
        deps.push(Dependency::new(
            names.clone(),
            premise,
            vec![Conjunct::full(vec![Atom { rel: w[i], args: x() }])],
        ));
    }
    let source = Schema::from_relations(s.iter().chain(&u).copied());
    let mapping = SchemaMapping::new(source, Schema::from_relations(w), deps);
    mapping.validate(vocab).unwrap_or_else(|e| panic!("generated mapping is invalid: {e}"));
    mapping
}

proptest! {
    // Each case runs a synthesis + an O(n²) bounded verification; keep
    // the count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every synthesizable random full-tgd mapping yields a verified
    /// maximum extended recovery on a small universe.
    #[test]
    fn synthesized_recoveries_verify(spec in abstract_mapping()) {
        let mut vocab = Vocabulary::new();
        let Some(mapping) = materialize(&mut vocab, &spec) else {
            return Ok(()); // unsafe shape — skip
        };
        let recovery =
            maximum_extended_recovery_full(&mapping, &mut vocab, &HomConfig::default())
                .unwrap_or_else(|e| panic!(
                    "synthesis failed for\n{}\n: {e}",
                    printer::mapping(&vocab, &mapping)
                ));
        let universe = Universe::new(&mut vocab, 1, 1, 2);
        let (opts, mut stats) = (HomConfig::default(), HomStats::default());
        let verdict =
            check_maximum_extended_recovery(&mapping, &recovery, &universe, &mut vocab, &opts, &mut stats)
                .unwrap();
        prop_assert!(
            verdict.holds(),
            "verification failed: {verdict:?}\nmapping:\n{}\nrecovery:\n{}",
            printer::mapping(&vocab, &mapping),
            printer::mapping(&vocab, &recovery)
        );
    }

    /// The synthesized recovery is in particular an extended recovery
    /// on a slightly larger universe (cheaper than the full pair check,
    /// so we can afford more instances).
    #[test]
    fn synthesized_recoveries_recover(spec in abstract_mapping()) {
        let mut vocab = Vocabulary::new();
        let Some(mapping) = materialize(&mut vocab, &spec) else {
            return Ok(());
        };
        let recovery =
            maximum_extended_recovery_full(&mapping, &mut vocab, &HomConfig::default())
                .unwrap();
        let universe = Universe::new(&mut vocab, 2, 1, 2);
        let family = universe.collect_instances(&vocab, &mapping.source).unwrap();
        let (opts, mut stats) = (HomConfig::default(), HomStats::default());
        let cex = find_extended_recovery_counterexample(
            &mapping,
            &recovery,
            family.iter(),
            &mut vocab,
            &opts,
            &mut stats,
        )
        .unwrap();
        prop_assert!(
            cex.holds(),
            "not an extended recovery at {cex:?}\nmapping:\n{}\nrecovery:\n{}",
            printer::mapping(&vocab, &mapping),
            printer::mapping(&vocab, &recovery)
        );
    }

    /// Wide conclusions with one-atom side explanations: the recovery
    /// keeps every minimal cover, however many blocks it takes, and is
    /// verified on one constant and as many facts as the widest cover.
    #[test]
    fn wide_conclusions_verify(spec in abstract_wide()) {
        let mut vocab = Vocabulary::new();
        let mapping = materialize_wide(&mut vocab, &spec);
        let recovery =
            maximum_extended_recovery_full(&mapping, &mut vocab, &HomConfig::default())
                .unwrap_or_else(|e| panic!(
                    "synthesis failed for\n{}\n: {e}",
                    printer::mapping(&vocab, &mapping)
                ));
        let universe = Universe::new(&mut vocab, 1, 0, spec.1.len());
        let (opts, mut stats) = (HomConfig::default(), HomStats::default());
        let verdict =
            check_maximum_extended_recovery(&mapping, &recovery, &universe, &mut vocab, &opts, &mut stats)
                .unwrap();
        prop_assert!(
            verdict.holds(),
            "verification failed: {verdict:?}\nmapping:\n{}\nrecovery:\n{}",
            printer::mapping(&vocab, &mapping),
            printer::mapping(&vocab, &recovery)
        );
    }
}

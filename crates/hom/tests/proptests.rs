//! Property-based tests for the homomorphism engine.

use proptest::prelude::*;
use rde_hom::{
    core_of, exists_hom, find_hom, hom_equivalent, is_core, is_isomorphic, CompiledPattern,
    HomConfig, PatArg, PatternAtom,
};
use rde_model::{Fact, Instance, Substitution, Value, Vocabulary};

fn abstract_facts(max: usize) -> impl Strategy<Value = Vec<Vec<(bool, u8)>>> {
    prop::collection::vec(prop::collection::vec((any::<bool>(), 0u8..4), 2), 0..=max)
}

fn materialize(vocab: &mut Vocabulary, facts: &[Vec<(bool, u8)>]) -> Instance {
    let rel = vocab.relation("E", 2).unwrap();
    facts
        .iter()
        .map(|args| {
            let vals: Vec<Value> = args
                .iter()
                .map(|&(is_null, i)| {
                    if is_null {
                        vocab.null_value(&format!("n{i}"))
                    } else {
                        vocab.const_value(&format!("c{i}"))
                    }
                })
                .collect();
            Fact::new(rel, vals)
        })
        .collect()
}

/// Abstract target facts: relation choice (`E/2` or `F/3`) and value
/// indexes into [`value_pool`].
fn abstract_target(max: usize) -> impl Strategy<Value = Vec<(bool, Vec<u8>)>> {
    prop::collection::vec((any::<bool>(), prop::collection::vec(0u8..7, 3)), 0..=max)
}

/// Abstract pattern atoms: relation choice, a "ground" flag, and per
/// argument a (kind, index) pair — kind 0 is a `Fixed` pool value,
/// kind 1 a seeded slot, kind 2 a free slot (a seeded one when the atom
/// is flagged ground, so it is fully bound once the seed is applied).
type AbstractAtom = (bool, bool, Vec<(u8, u8)>);

fn abstract_pattern(max: usize) -> impl Strategy<Value = Vec<AbstractAtom>> {
    prop::collection::vec(
        (any::<bool>(), any::<bool>(), prop::collection::vec((0u8..3, 0u8..7), 3)),
        1..=max,
    )
}

/// Constants `c0..c3` then nulls `n4..n6`.
fn value_pool(vocab: &mut Vocabulary) -> Vec<Value> {
    (0..7)
        .map(|i| {
            if i < 4 {
                vocab.const_value(&format!("c{i}"))
            } else {
                vocab.null_value(&format!("n{i}"))
            }
        })
        .collect()
}

/// Seeded slots are 0 and 1; free slots 2..=4. Seed entries of 7 or
/// more leave the slot free.
fn materialize_pattern(
    vocab: &mut Vocabulary,
    atoms: &[AbstractAtom],
    seed: &[u8],
) -> (CompiledPattern, Vec<Option<Value>>) {
    let pool = value_pool(vocab);
    let rels = [vocab.relation("E", 2).unwrap(), vocab.relation("F", 3).unwrap()];
    let atoms = atoms
        .iter()
        .map(|(is_f, ground, args)| {
            let arity = if *is_f { 3 } else { 2 };
            let args = args[..arity]
                .iter()
                .map(|&(kind, i)| match (kind, ground) {
                    (0, _) => PatArg::Fixed(pool[usize::from(i)]),
                    (1, _) | (_, true) => PatArg::Var(u32::from(i % 2)),
                    _ => PatArg::Var(2 + u32::from(i % 3)),
                })
                .collect();
            PatternAtom { rel: rels[usize::from(*is_f)], args }
        })
        .collect();
    let seed = seed.iter().map(|&i| pool.get(usize::from(i)).copied()).collect();
    (CompiledPattern::new(atoms), seed)
}

fn materialize_target(vocab: &mut Vocabulary, facts: &[(bool, Vec<u8>)]) -> Instance {
    let pool = value_pool(vocab);
    let rels = [vocab.relation("E", 2).unwrap(), vocab.relation("F", 3).unwrap()];
    facts
        .iter()
        .map(|(is_f, vals)| {
            let arity = if *is_f { 3 } else { 2 };
            Fact::new(
                rels[usize::from(*is_f)],
                vals[..arity].iter().map(|&i| pool[usize::from(i)]).collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// Every match in emission order, plus the reported `found` count.
fn matches(
    pattern: &CompiledPattern,
    target: &Instance,
    seed: &[Option<Value>],
    config: &HomConfig,
) -> (Vec<Vec<Option<Value>>>, u64) {
    let mut seq = Vec::new();
    let report = pattern.for_each_match(target, seed, config, |vals| {
        seq.push(vals.to_vec());
        true
    });
    assert!(report.complete(), "unbudgeted searches run to completion");
    (seq, report.stats.found)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Fully bound atoms (through `Fixed` arguments or seeded slots)
    /// are membership probes: the match set equals the full-scan,
    /// fixed-order reference, every `found` count agrees, and under the
    /// same fixed order the indexed search emits the reference's exact
    /// sequence (posting lists and probes only drop rows that cannot
    /// unify, and keep the rest in ascending order).
    #[test]
    fn bound_atom_probes_match_the_scan_reference(
        target in abstract_target(14),
        atoms in abstract_pattern(4),
        seed in prop::collection::vec(0u8..9, 2),
    ) {
        let mut vocab = Vocabulary::new();
        let (pattern, seed) = materialize_pattern(&mut vocab, &atoms, &seed);
        let target = materialize_target(&mut vocab, &target);
        let scan = HomConfig { use_index: false, dynamic_order: false, ..HomConfig::default() };
        let (reference, ref_found) = matches(&pattern, &target, &seed, &scan);
        prop_assert_eq!(ref_found, reference.len() as u64);
        let fixed = HomConfig { dynamic_order: false, ..HomConfig::default() };
        let (fixed_seq, fixed_found) = matches(&pattern, &target, &seed, &fixed);
        prop_assert_eq!(&fixed_seq, &reference, "same order, same emission sequence");
        prop_assert_eq!(fixed_found, ref_found);
        let (seq, found) = matches(&pattern, &target, &seed, &HomConfig::default());
        prop_assert_eq!(found, ref_found);
        let mut set = seq;
        set.sort();
        let mut reference = reference;
        reference.sort();
        prop_assert_eq!(set, reference);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// → is reflexive; witnesses actually map facts into the target.
    #[test]
    fn hom_is_reflexive_and_witnessed(facts in abstract_facts(8)) {
        let mut vocab = Vocabulary::new();
        let i = materialize(&mut vocab, &facts);
        let h = find_hom(&i, &i).expect("identity works");
        prop_assert!(h.apply_instance(&i).is_subset_of(&i));
    }

    /// Transitivity through explicit witnesses.
    #[test]
    fn hom_witnesses_compose(f1 in abstract_facts(5), f2 in abstract_facts(5), f3 in abstract_facts(5)) {
        let mut vocab = Vocabulary::new();
        let a = materialize(&mut vocab, &f1);
        let b = materialize(&mut vocab, &f2);
        let c = materialize(&mut vocab, &f3);
        if let (Some(h1), Some(h2)) = (find_hom(&a, &b), find_hom(&b, &c)) {
            let composed = h1.then(&h2);
            prop_assert!(composed.apply_instance(&a).is_subset_of(&c));
            prop_assert!(exists_hom(&a, &c));
        }
    }

    /// For ground sources, → coincides with ⊆ (paper, Section 1).
    #[test]
    fn ground_hom_is_subset(f1 in abstract_facts(6), f2 in abstract_facts(6)) {
        let mut vocab = Vocabulary::new();
        let mut ground = |facts: &[Vec<(bool, u8)>]| {
            let grounded: Vec<Vec<(bool, u8)>> =
                facts.iter().map(|args| args.iter().map(|&(_, i)| (false, i)).collect()).collect();
            materialize(&mut vocab, &grounded)
        };
        let a = ground(&f1);
        let b = ground(&f2);
        prop_assert_eq!(exists_hom(&a, &b), a.is_subset_of(&b));
    }

    /// Renaming nulls bijectively yields an isomorphic instance, which
    /// is in particular hom-equivalent.
    #[test]
    fn bijective_renaming_is_isomorphism(facts in abstract_facts(8)) {
        let mut vocab = Vocabulary::new();
        let i = materialize(&mut vocab, &facts);
        let mut rename = Substitution::new();
        for n in i.nulls() {
            rename.bind(n, Value::Null(vocab.fresh_null()));
        }
        let j = rename.apply_instance(&i);
        prop_assert!(is_isomorphic(&i, &j));
        prop_assert!(hom_equivalent(&i, &j));
    }

    /// Collapsing all nulls to one constant gives a hom target.
    #[test]
    fn collapse_is_a_hom_target(facts in abstract_facts(8)) {
        let mut vocab = Vocabulary::new();
        let i = materialize(&mut vocab, &facts);
        let sink = vocab.const_value("sink");
        let j = i.map_values(|v| if v.is_null() { sink } else { v });
        prop_assert!(exists_hom(&i, &j));
    }

    /// Core properties: sub-instance, equivalent, minimal, idempotent,
    /// and isomorphism-invariant across null renamings.
    #[test]
    fn core_properties(facts in abstract_facts(7)) {
        let mut vocab = Vocabulary::new();
        let i = materialize(&mut vocab, &facts);
        let r = core_of(&i);
        prop_assert!(r.core.is_subset_of(&i));
        prop_assert!(hom_equivalent(&i, &r.core));
        prop_assert!(is_core(&r.core));
        // Cores of isomorphic instances are isomorphic.
        let mut rename = Substitution::new();
        for n in i.nulls() {
            rename.bind(n, Value::Null(vocab.fresh_null()));
        }
        let j = rename.apply_instance(&i);
        let rj = core_of(&j);
        prop_assert!(is_isomorphic(&r.core, &rj.core));
    }

    /// The minimizer's substitution is a true retraction: its image is
    /// exactly the core, it is the identity on the core's own values,
    /// and hence applying it twice is the same as applying it once.
    #[test]
    fn core_retraction_is_a_true_retraction(facts in abstract_facts(7)) {
        let mut vocab = Vocabulary::new();
        let i = materialize(&mut vocab, &facts);
        let r = core_of(&i);
        prop_assert_eq!(r.retraction.apply_instance(&i), r.core.clone());
        for v in r.core.active_domain() {
            prop_assert_eq!(r.retraction.apply(v), v, "retraction must fix core value {v:?}");
        }
        prop_assert_eq!(r.retraction.apply_instance(&r.core), r.core.clone());
        // Idempotence as a substitution law, not just on this instance.
        let twice = r.retraction.then(&r.retraction);
        prop_assert_eq!(twice.apply_instance(&i), r.core);
    }

    /// Adding facts can only help the target side and hurt the source
    /// side (monotonicity of →).
    #[test]
    fn hom_is_monotone(f1 in abstract_facts(5), f2 in abstract_facts(5), extra in abstract_facts(3)) {
        let mut vocab = Vocabulary::new();
        let a = materialize(&mut vocab, &f1);
        let b = materialize(&mut vocab, &f2);
        let e = materialize(&mut vocab, &extra);
        if exists_hom(&a, &b) {
            prop_assert!(exists_hom(&a, &b.union(&e)), "bigger targets stay reachable");
        }
        if !exists_hom(&a, &b) {
            prop_assert!(!exists_hom(&a.union(&e), &b), "bigger sources stay unreachable");
        }
    }
}

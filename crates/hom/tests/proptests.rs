//! Property-based tests for the homomorphism engine.

use proptest::prelude::*;
use rde_hom::{
    core_of, count_homs, exists_hom, find_hom, find_iso, hom_equivalent, is_core, CompiledPattern,
    CoreResult, HomConfig, HomStats, PatArg, PatternAtom, SearchReport, Verdict,
};
use rde_model::{Fact, Instance, Substitution, Value, Vocabulary};

/// The unbudgeted deciders, as the booleans the properties compare.
fn hom(a: &Instance, b: &Instance) -> bool {
    exists_hom(a, b, &HomConfig::default(), &mut HomStats::default()).holds()
}
fn find(a: &Instance, b: &Instance) -> Option<Substitution> {
    find_hom(a, b, &Substitution::new(), &HomConfig::default(), &mut HomStats::default()).unwrap()
}
fn equivalent(a: &Instance, b: &Instance) -> bool {
    hom_equivalent(a, b, &HomConfig::default(), &mut HomStats::default()).holds()
}
fn isomorphic(a: &Instance, b: &Instance) -> bool {
    find_iso(a, b, &HomConfig::default(), &mut HomStats::default()).unwrap().is_some()
}
fn core(i: &Instance) -> CoreResult {
    core_of(i, &HomConfig::default()).result
}

/// A decider under test, closed over its inputs.
type Decide<'a> = &'a dyn Fn(&HomConfig, &mut HomStats) -> Verdict;

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

/// Abstract fully bound atoms: relation choice and per argument a
/// (`Fixed`?, index) pair — a `Fixed` pool value, or seeded slot
/// `index % 3`.
fn bound_pattern(max: usize) -> impl Strategy<Value = Vec<(bool, Vec<(bool, u8)>)>> {
    prop::collection::vec(
        (any::<bool>(), prop::collection::vec((any::<bool>(), 0u8..7), 3)),
        0..=max,
    )
}

/// Every match in emission order plus the report, through the
/// probe-only path when it applies or through the searcher alone.
fn run_excluding(
    pattern: &CompiledPattern,
    skip: Option<usize>,
    target: &Instance,
    seed: &[Option<Value>],
    config: &HomConfig,
    via_searcher: bool,
) -> (Vec<Vec<Option<Value>>>, SearchReport) {
    let mut seq = Vec::new();
    let on_found = |vals: &[Option<Value>]| {
        seq.push(vals.to_vec());
        true
    };
    let report = if via_searcher {
        pattern.for_each_match_excluding_via_searcher(skip, target, seed, config, on_found)
    } else {
        pattern.for_each_match_excluding(skip, target, seed, config, on_found)
    };
    (seq, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A search with nothing left to choose is answered without the
    /// searcher: every remaining atom is ground under the seed (or none
    /// remains), so it is a chain of membership probes. Its matches,
    /// `HomStats` and completion status equal the searcher's under
    /// either atom order and any node budget, and its match set equals
    /// the full-scan reference's.
    #[test]
    fn probe_only_searches_match_the_searcher(
        target in abstract_target(10),
        atoms in bound_pattern(4),
        seed in prop::collection::vec(0u8..7, 3),
        skip in 0usize..6,
        dynamic_order in any::<bool>(),
        budget in 0u64..6,
    ) {
        let mut vocab = Vocabulary::new();
        let pool = value_pool(&mut vocab);
        let rels = [vocab.relation("E", 2).unwrap(), vocab.relation("F", 3).unwrap()];
        let atoms: Vec<PatternAtom> = atoms
            .iter()
            .map(|(is_f, args)| {
                let arity = if *is_f { 3 } else { 2 };
                let args = args[..arity]
                    .iter()
                    .map(|&(fixed, i)| {
                        if fixed {
                            PatArg::Fixed(pool[usize::from(i)])
                        } else {
                            PatArg::Var(u32::from(i % 3))
                        }
                    })
                    .collect();
                PatternAtom { rel: rels[usize::from(*is_f)], args }
            })
            .collect();
        // Skip an atom (as the delta-seeded chase does) on some cases.
        let skip = (skip < atoms.len()).then_some(skip);
        let pattern = CompiledPattern::new(atoms);
        let seed: Vec<Option<Value>> = seed.iter().map(|&i| Some(pool[usize::from(i)])).collect();
        let target = materialize_target(&mut vocab, &target);
        // Budgets 0..=3 cut some chains of probe hits; 4 and 5 are none.
        let node_budget = (budget < 4).then_some(budget);
        let config = HomConfig { node_budget, dynamic_order, ..HomConfig::default() };
        let (seq, report) = run_excluding(&pattern, skip, &target, &seed, &config, false);
        let (reference, ref_report) = run_excluding(&pattern, skip, &target, &seed, &config, true);
        prop_assert_eq!(&seq, &reference);
        prop_assert_eq!(report, ref_report);
        let scan = HomConfig { use_index: false, ..config };
        let (scanned, scan_report) = run_excluding(&pattern, skip, &target, &seed, &scan, false);
        if node_budget.is_none() {
            prop_assert!(scan_report.complete());
            prop_assert_eq!(&seq, &scanned, "at most one match, so sets equal sequences");
            prop_assert_eq!(report.stats.found, scan_report.stats.found);
        }
    }
}

/// `seq` minus the matches that bind a slot of `marked` to a null.
fn without_null_marks(seq: &[Vec<Option<Value>>], marked: &[u32]) -> Vec<Vec<Option<Value>>> {
    seq.iter()
        .filter(|vals| {
            marked
                .iter()
                .all(|&s| !vals.get(s as usize).copied().flatten().is_some_and(|v| v.is_null()))
        })
        .cloned()
        .collect()
}

/// Unify `atom` with a target tuple on top of `seed` (one entry per
/// slot), as the delta-seeded chase seeds a search through the atom it
/// skips; `None` when they do not unify.
fn seed_through(
    atom: &PatternAtom,
    tuple: &[Value],
    seed: &[Option<Value>],
) -> Option<Vec<Option<Value>>> {
    let mut seed = seed.to_vec();
    for (&arg, &tv) in atom.args.iter().zip(tuple) {
        match arg {
            PatArg::Fixed(v) if v != tv => return None,
            PatArg::Fixed(_) => {}
            PatArg::Var(x) => match seed[x as usize] {
                Some(v) if v != tv => return None,
                _ => seed[x as usize] = Some(tv),
            },
        }
    }
    Some(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Constant-only slots drop exactly the matches that bind one to a
    /// null and keep the rest in the unmarked search's order: on the
    /// full search, on delta-seeded searches through every atom and
    /// every target tuple it unifies with (a seed may itself put a null
    /// on a marked slot), and on the probe-only path those seeds often
    /// take, which is also compared against the searcher alone. Every
    /// `found` count is the number of matches reported.
    #[test]
    fn constant_only_slots_drop_exactly_the_null_bindings(
        target in abstract_target(12),
        atoms in abstract_pattern(3),
        seed in prop::collection::vec(0u8..9, 2),
        marks in prop::collection::vec(any::<bool>(), 5),
        dynamic_order in any::<bool>(),
        use_index in any::<bool>(),
    ) {
        let mut vocab = Vocabulary::new();
        let (pattern, seed) = materialize_pattern(&mut vocab, &atoms, &seed);
        let target = materialize_target(&mut vocab, &target);
        let marked_slots: Vec<u32> = (0..5).filter(|&s| marks[s as usize]).collect();
        let marked = pattern.clone().with_constant_slots(marked_slots.iter().copied());
        for slot in 0..pattern.num_vars() as u32 {
            prop_assert_eq!(marked.is_constant_only(slot), marked_slots.contains(&slot));
            prop_assert!(!pattern.is_constant_only(slot));
        }
        let config = HomConfig { dynamic_order, use_index, ..HomConfig::default() };
        let mut seed = seed;
        seed.resize(5, None);
        let compare = |skip: Option<usize>, seed: &[Option<Value>]| {
            let (all, _) = run_excluding(&pattern, skip, &target, seed, &config, false);
            let expected = without_null_marks(&all, &marked_slots);
            for via_searcher in [false, true] {
                let (got, report) =
                    run_excluding(&marked, skip, &target, seed, &config, via_searcher);
                prop_assert!(report.complete());
                prop_assert_eq!(&got, &expected, "skip {:?}, via searcher {}", skip, via_searcher);
                prop_assert_eq!(report.stats.found, got.len() as u64);
            }
            Ok(())
        };
        compare(None, &seed)?;
        for (skip, atom) in pattern.atoms().iter().enumerate() {
            let Some(data) = target.relation(atom.rel) else { continue };
            for tuple in data.tuples() {
                if let Some(delta_seed) = seed_through(atom, tuple, &seed) {
                    compare(Some(skip), &delta_seed)?;
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// → is reflexive; witnesses actually map facts into the target.
    #[test]
    fn hom_is_reflexive_and_witnessed(facts in abstract_facts(8)) {
        let mut vocab = Vocabulary::new();
        let i = materialize(&mut vocab, &facts);
        let h = find(&i, &i).expect("identity works");
        prop_assert!(h.apply_instance(&i).is_subset_of(&i));
    }

    /// Transitivity through explicit witnesses.
    #[test]
    fn hom_witnesses_compose(f1 in abstract_facts(5), f2 in abstract_facts(5), f3 in abstract_facts(5)) {
        let mut vocab = Vocabulary::new();
        let a = materialize(&mut vocab, &f1);
        let b = materialize(&mut vocab, &f2);
        let c = materialize(&mut vocab, &f3);
        if let (Some(h1), Some(h2)) = (find(&a, &b), find(&b, &c)) {
            let composed = h1.then(&h2);
            prop_assert!(composed.apply_instance(&a).is_subset_of(&c));
            prop_assert!(hom(&a, &c));
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
        prop_assert_eq!(hom(&a, &b), a.is_subset_of(&b));
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
        prop_assert!(isomorphic(&i, &j));
        prop_assert!(equivalent(&i, &j));
    }

    /// Collapsing all nulls to one constant gives a hom target.
    #[test]
    fn collapse_is_a_hom_target(facts in abstract_facts(8)) {
        let mut vocab = Vocabulary::new();
        let i = materialize(&mut vocab, &facts);
        let sink = vocab.const_value("sink");
        let j = i.map_values(|v| if v.is_null() { sink } else { v });
        prop_assert!(hom(&i, &j));
    }

    /// Core properties: sub-instance, equivalent, minimal, idempotent,
    /// and isomorphism-invariant across null renamings.
    #[test]
    fn core_properties(facts in abstract_facts(7)) {
        let mut vocab = Vocabulary::new();
        let i = materialize(&mut vocab, &facts);
        let r = core(&i);
        prop_assert!(r.core.is_subset_of(&i));
        prop_assert!(equivalent(&i, &r.core));
        prop_assert!(is_core(&r.core));
        // Cores of isomorphic instances are isomorphic.
        let mut rename = Substitution::new();
        for n in i.nulls() {
            rename.bind(n, Value::Null(vocab.fresh_null()));
        }
        let j = rename.apply_instance(&i);
        let rj = core(&j);
        prop_assert!(isomorphic(&r.core, &rj.core));
    }

    /// The minimizer's substitution is a true retraction: its image is
    /// exactly the core, it is the identity on the core's own values,
    /// and hence applying it twice is the same as applying it once.
    #[test]
    fn core_retraction_is_a_true_retraction(facts in abstract_facts(7)) {
        let mut vocab = Vocabulary::new();
        let i = materialize(&mut vocab, &facts);
        let r = core(&i);
        prop_assert_eq!(r.retraction.apply_instance(&i), r.core.clone());
        for v in r.core.active_domain() {
            prop_assert_eq!(r.retraction.apply(v), v, "retraction must fix core value {v:?}");
        }
        prop_assert_eq!(r.retraction.apply_instance(&r.core), r.core.clone());
        // Idempotence as a substitution law, not just on this instance.
        let twice = r.retraction.then(&r.retraction);
        prop_assert_eq!(twice.apply_instance(&i), r.core);
    }

    /// Budgeted minimization is sound at every node budget: the outcome
    /// is a hom-equivalent sub-instance that its retraction maps the
    /// input onto, an uncut outcome is the core (up to isomorphism), and
    /// the unbounded run is never cut.
    #[test]
    fn budgeted_core_is_a_sound_retract_at_every_budget(facts in abstract_facts(8)) {
        let mut vocab = Vocabulary::new();
        let i = materialize(&mut vocab, &facts);
        let core = core(&i).core;
        // Budgets 0, 1, 2, 4, …, 4096, then unbounded.
        let budgets = std::iter::once(0).chain((0..=12).map(|k| 1u64 << k)).map(Some);
        for node_budget in budgets.chain([None]) {
            let config = HomConfig { node_budget, ..HomConfig::default() };
            let out = core_of(&i, &config);
            let r = &out.result;
            prop_assert!(r.core.is_subset_of(&i), "budget {node_budget:?}");
            prop_assert!(equivalent(&i, &r.core), "budget {node_budget:?}");
            prop_assert_eq!(&r.retraction.apply_instance(&i), &r.core, "budget {node_budget:?}");
            if out.exhausted.is_none() {
                prop_assert!(isomorphic(&r.core, &core), "budget {node_budget:?}");
            }
            if node_budget.is_none() {
                prop_assert_eq!(out.exhausted, None, "an unbounded run is never cut");
            }
        }
    }

    /// Adding facts can only help the target side and hurt the source
    /// side (monotonicity of →).
    #[test]
    fn hom_is_monotone(f1 in abstract_facts(5), f2 in abstract_facts(5), extra in abstract_facts(3)) {
        let mut vocab = Vocabulary::new();
        let a = materialize(&mut vocab, &f1);
        let b = materialize(&mut vocab, &f2);
        let e = materialize(&mut vocab, &extra);
        if hom(&a, &b) {
            prop_assert!(hom(&a, &b.union(&e)), "bigger targets stay reachable");
        }
        if !hom(&a, &b) {
            prop_assert!(!hom(&a.union(&e), &b), "bigger sources stay unreachable");
        }
    }

    /// Budget monotonicity of the three deciders: under the node budgets
    /// 0, 1, 2, 4, …, 1024 every definite verdict equals the unbudgeted
    /// one, which is always definite. The unbudgeted answers match the
    /// `count_homs` oracle, and an isomorphism is checked by hand: its
    /// image is exactly the target, and a bijective renaming of the
    /// source (half the cases) always has one.
    #[test]
    fn raising_the_node_budget_never_flips_a_definite_verdict(
        f1 in abstract_facts(6),
        f2 in abstract_facts(6),
        rename_source in any::<bool>(),
    ) {
        let mut vocab = Vocabulary::new();
        let a = materialize(&mut vocab, &f1);
        let b = if rename_source {
            let mut rename = Substitution::new();
            for n in a.nulls() {
                rename.bind(n, Value::Null(vocab.fresh_null()));
            }
            rename.apply_instance(&a)
        } else {
            materialize(&mut vocab, &f2)
        };
        let iso = |cfg: &HomConfig, st: &mut HomStats| match find_iso(&a, &b, cfg, st) {
            Ok(found) => Verdict::from_bool(found.is_some()),
            Err(budget) => Verdict::Unknown { budget },
        };
        let deciders: [(&str, Decide); 3] = [
            ("exists_hom", &|cfg, st| exists_hom(&a, &b, cfg, st)),
            ("hom_equivalent", &|cfg, st| hom_equivalent(&a, &b, cfg, st)),
            ("find_iso", &iso),
        ];
        let (fwd, bwd) = (count_homs(&a, &b) > 0, count_homs(&b, &a) > 0);
        let oracles = [Some(fwd), Some(fwd && bwd), rename_source.then_some(true)];
        for ((name, decide), oracle) in deciders.iter().zip(oracles) {
            let unbudgeted = decide(&HomConfig::default(), &mut HomStats::default());
            prop_assert!(!unbudgeted.is_unknown(), "{name}: nothing cuts an unbudgeted search");
            if let Some(expected) = oracle {
                prop_assert_eq!(unbudgeted, Verdict::from_bool(expected), "{}", name);
            }
            let budgets = std::iter::once(0).chain((0..=10).map(|k| 1u64 << k));
            for node_budget in budgets {
                let cfg = HomConfig { node_budget: Some(node_budget), ..HomConfig::default() };
                let v = decide(&cfg, &mut HomStats::default());
                prop_assert!(v.is_unknown() || v == unbudgeted, "{name} at {node_budget}: {v}");
            }
        }
        let witness = find_iso(&a, &b, &HomConfig::default(), &mut HomStats::default()).unwrap();
        if let Some(iso) = witness {
            prop_assert_eq!(iso.apply_instance(&a), b.clone());
            prop_assert!(fwd && bwd, "isomorphic instances are hom-equivalent");
        }
    }
}

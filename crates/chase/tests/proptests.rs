//! Property-based tests for the chase engines.

use proptest::prelude::*;
use rde_chase::{
    chase_mapping, core_chase_mapping, disjunctive_chase, ChaseError, ChaseOptions, ChaseVariant,
    CheckpointPolicy, DisjunctiveChaseOptions,
};
use rde_deps::parse_mapping;
use rde_hom::{core_of, exists_hom, find_iso, hom_equivalent, HomConfig, HomStats};
use rde_model::{Fact, Instance, Value, Vocabulary};

fn hom(a: &Instance, b: &Instance) -> bool {
    exists_hom(a, b, &HomConfig::default(), &mut HomStats::default()).holds()
}
fn equivalent(a: &Instance, b: &Instance) -> bool {
    hom_equivalent(a, b, &HomConfig::default(), &mut HomStats::default()).holds()
}

fn abstract_facts(max: usize) -> impl Strategy<Value = Vec<Vec<(bool, u8)>>> {
    prop::collection::vec(prop::collection::vec((any::<bool>(), 0u8..4), 2), 0..=max)
}

fn p_instance(vocab: &mut Vocabulary, facts: &[Vec<(bool, u8)>]) -> Instance {
    let rel = vocab.find_relation("P").unwrap();
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

fn two_step(vocab: &mut Vocabulary) -> rde_deps::SchemaMapping {
    parse_mapping(vocab, "source: P/2\ntarget: Q/2\nP(x,y) -> exists z . Q(x,z) & Q(z,y)").unwrap()
}

/// A recursive, multi-round dependency set (transitive closure plus a
/// null-inventing side relation) for exercising checkpoint/resume.
fn recursive_deps(vocab: &mut Vocabulary) -> Vec<rde_deps::Dependency> {
    ["E(x,y) -> T(x,y)", "T(x,y) & T(y,z) -> T(x,z)", "T(x,y) -> exists w . S(y, w)"]
        .iter()
        .map(|d| rde_deps::parse_dependency(vocab, d).unwrap())
        .collect()
}

fn e_instance(vocab: &mut Vocabulary, facts: &[Vec<(bool, u8)>]) -> Instance {
    let rel = vocab.find_relation("E").unwrap();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Oblivious and standard chase agree up to homomorphic equivalence.
    #[test]
    fn chase_modes_are_hom_equivalent(facts in abstract_facts(6)) {
        let mut vocab = Vocabulary::new();
        let m = two_step(&mut vocab);
        let i = p_instance(&mut vocab, &facts);
        let oblivious = chase_mapping(&i, &m, &mut vocab, &ChaseOptions::default()).unwrap();
        let std_opts = ChaseOptions::for_variant(ChaseVariant::Restricted);
        let standard = chase_mapping(&i, &m, &mut vocab, &std_opts).unwrap();
        prop_assert!(equivalent(&oblivious, &standard));
        prop_assert!(standard.len() <= oblivious.len());
    }

    /// Chase is monotone: I ⊆ J implies chase(I) → chase(J).
    #[test]
    fn chase_is_monotone(f1 in abstract_facts(5), f2 in abstract_facts(3)) {
        let mut vocab = Vocabulary::new();
        let m = two_step(&mut vocab);
        let i = p_instance(&mut vocab, &f1);
        let j = i.union(&p_instance(&mut vocab, &f2));
        let ci = chase_mapping(&i, &m, &mut vocab, &ChaseOptions::default()).unwrap();
        let cj = chase_mapping(&j, &m, &mut vocab, &ChaseOptions::default()).unwrap();
        prop_assert!(hom(&ci, &cj));
    }

    /// The core chase is a hom-equivalent sub-solution of the chase.
    #[test]
    fn core_chase_is_equivalent(facts in abstract_facts(5)) {
        let mut vocab = Vocabulary::new();
        let m = two_step(&mut vocab);
        let i = p_instance(&mut vocab, &facts);
        let chased = chase_mapping(&i, &m, &mut vocab, &ChaseOptions::default()).unwrap();
        let core = core_chase_mapping(&i, &m, &mut vocab, &ChaseOptions::default()).unwrap().instance;
        // The two runs invent different fresh nulls, so compare up to
        // homomorphic equivalence and against a same-run core.
        prop_assert!(equivalent(&chased, &core));
        let same_run = core_of(&chased, &HomConfig::default()).result.core;
        prop_assert!(same_run.is_subset_of(&chased));
        let iso = find_iso(&core, &same_run, &HomConfig::default(), &mut HomStats::default());
        prop_assert!(iso.unwrap().is_some());
    }

    /// For non-disjunctive dependency sets the disjunctive chase has
    /// exactly one leaf, hom-equivalent to the standard chase result.
    #[test]
    fn disjunctive_chase_degenerates_to_standard(facts in abstract_facts(4)) {
        let mut vocab = Vocabulary::new();
        let m = two_step(&mut vocab);
        let i = p_instance(&mut vocab, &facts);
        let u = chase_mapping(&i, &m, &mut vocab, &ChaseOptions::default()).unwrap();
        // Reverse (tgd, no disjunction).
        let rev = parse_mapping(&mut vocab, "source: Q/2\ntarget: P/2\nQ(x,z) & Q(z,y) -> P(x,y)")
            .unwrap();
        let leaves =
            disjunctive_chase(&u, &rev.dependencies, &mut vocab, &DisjunctiveChaseOptions::default())
                .unwrap()
                .leaves;
        prop_assert_eq!(leaves.len(), 1);
        let back = leaves[0].restrict_to(&rev.target);
        // Thm 3.17: the roundtrip is hom-equivalent to I.
        prop_assert!(equivalent(&back, &i));
    }

    /// Killing the chase at any round and resuming from the checkpoint
    /// yields a bit-identical `ChaseResult` — same instance (down to
    /// fresh-null ids and row order), same counters, same provenance.
    #[test]
    fn checkpoint_resume_is_bit_identical(facts in abstract_facts(5)) {
        let straight = {
            let mut vocab = Vocabulary::new();
            let deps = recursive_deps(&mut vocab);
            let i = e_instance(&mut vocab, &facts);
            let opts = ChaseOptions { trace: true, ..ChaseOptions::default() };
            rde_chase::chase(&i, &deps, &mut vocab, &opts).unwrap()
        };
        let path = std::env::temp_dir()
            .join(format!("rde-prop-ckpt-{}.ckpt", std::process::id()));
        for k in 1..straight.rounds {
            // Kill at round k: a round budget of k aborts right after
            // the round-k checkpoint was written.
            let mut vocab = Vocabulary::new();
            let deps = recursive_deps(&mut vocab);
            let i = e_instance(&mut vocab, &facts);
            let kill = ChaseOptions {
                trace: true,
                max_rounds: k,
                checkpoint: Some(CheckpointPolicy::new(&path, 1)),
                ..ChaseOptions::default()
            };
            let err = rde_chase::chase(&i, &deps, &mut vocab, &kill).unwrap_err();
            prop_assert_eq!(err, ChaseError::RoundBudgetExhausted { rounds: k });

            // Resume in a fresh "process": fresh vocabulary, all round
            // state from disk.
            let mut vocab2 = Vocabulary::new();
            let deps2 = recursive_deps(&mut vocab2);
            let i2 = e_instance(&mut vocab2, &facts);
            let resume = ChaseOptions {
                trace: true,
                resume_from: Some(path.clone()),
                ..ChaseOptions::default()
            };
            let resumed = rde_chase::chase(&i2, &deps2, &mut vocab2, &resume).unwrap();
            prop_assert_eq!(&resumed.instance, &straight.instance);
            prop_assert_eq!(resumed.fired, straight.fired);
            prop_assert_eq!(resumed.rounds, straight.rounds);
            prop_assert_eq!(&resumed.round_stats, &straight.round_stats);
            prop_assert_eq!(resumed.hom, straight.hom);
            prop_assert_eq!(&resumed.provenance, &straight.provenance);
        }
        std::fs::remove_file(&path).ok();
    }

    /// Fresh nulls never collide: chase outputs of disjoint runs share
    /// no invented nulls.
    #[test]
    fn fresh_nulls_are_globally_fresh(facts in abstract_facts(4)) {
        let mut vocab = Vocabulary::new();
        let m = two_step(&mut vocab);
        let i = p_instance(&mut vocab, &facts);
        let before: std::collections::HashSet<_> = i.nulls().into_iter().collect();
        let c1 = chase_mapping(&i, &m, &mut vocab, &ChaseOptions::default()).unwrap();
        let c2 = chase_mapping(&i, &m, &mut vocab, &ChaseOptions::default()).unwrap();
        let n1: std::collections::HashSet<_> =
            c1.nulls().into_iter().filter(|n| !before.contains(n)).collect();
        let n2: std::collections::HashSet<_> =
            c2.nulls().into_iter().filter(|n| !before.contains(n)).collect();
        prop_assert!(n1.is_disjoint(&n2));
    }
}

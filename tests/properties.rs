//! Property-based integration tests: the paper's invariants under
//! randomly generated instances (proptest).

use proptest::prelude::*;

use rde_chase::{ChaseOptions, DisjunctiveChaseOptions};
use rde_hom::{core_of, is_core, CoreResult};
use rde_model::{Fact, Instance, Vocabulary};
use reverse_data_exchange::prelude::*;

/// The unbudgeted deciders, as the booleans the properties compare.
fn hom(a: &Instance, b: &Instance) -> bool {
    exists_hom(a, b, &HomConfig::default(), &mut HomStats::default()).holds()
}
fn equivalent(a: &Instance, b: &Instance) -> bool {
    hom_equivalent(a, b, &HomConfig::default(), &mut HomStats::default()).holds()
}
fn core(i: &Instance) -> CoreResult {
    core_of(i, &HomConfig::default()).result
}

/// Build the shared vocabulary + mapping suite once per case.
struct World {
    vocab: Vocabulary,
    /// P(x,y) -> ∃z (Q(x,z) ∧ Q(z,y)) — extended-invertible.
    two_step: SchemaMapping,
    /// Its chase-inverse.
    two_step_inv: SchemaMapping,
    /// Union mapping P,Q → R.
    union: SchemaMapping,
    /// Disjunctive recovery of the union mapping.
    union_rec: SchemaMapping,
}

impl World {
    fn new() -> Self {
        let mut vocab = Vocabulary::new();
        let two_step = parse_mapping(
            &mut vocab,
            "source: P/2\ntarget: Q/2\nP(x,y) -> exists z . Q(x,z) & Q(z,y)",
        )
        .unwrap();
        let two_step_inv =
            parse_mapping(&mut vocab, "source: Q/2\ntarget: P/2\nQ(x,z) & Q(z,y) -> P(x,y)")
                .unwrap();
        let union =
            parse_mapping(&mut vocab, "source: A/1, B/1\ntarget: R/1\nA(x) -> R(x)\nB(x) -> R(x)")
                .unwrap();
        let union_rec =
            parse_mapping(&mut vocab, "source: R/1\ntarget: A/1, B/1\nR(x) -> A(x) | B(x)")
                .unwrap();
        World { vocab, two_step, two_step_inv, union, union_rec }
    }

    /// Decode a fact list over relation `name` from (is_null, index)
    /// pairs per argument.
    fn instance(&mut self, name: &str, facts: &[Vec<(bool, u8)>]) -> Instance {
        let rel = self.vocab.find_relation(name).unwrap();
        let mut out = Instance::new();
        for args in facts {
            let vals: Vec<_> = args
                .iter()
                .map(|&(is_null, idx)| {
                    if is_null {
                        self.vocab.null_value(&format!("n{}", idx % 4))
                    } else {
                        self.vocab.const_value(&format!("c{}", idx % 4))
                    }
                })
                .collect();
            out.insert(Fact::new(rel, vals));
        }
        out
    }
}

/// Strategy: up to `max` facts of the given arity as (is_null, idx) args.
fn facts(arity: usize, max: usize) -> impl Strategy<Value = Vec<Vec<(bool, u8)>>> {
    prop::collection::vec(prop::collection::vec((any::<bool>(), 0u8..4), arity), 0..=max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// chase_M(I) is a solution, an extended universal solution, and
    /// chasing is monotone w.r.t. → (the engine-level heart of Prop
    /// 3.11 / Prop 4.7).
    #[test]
    fn chase_properties(f1 in facts(2, 4), f2 in facts(2, 4)) {
        let mut w = World::new();
        let i1 = w.instance("P", &f1);
        let i2 = w.instance("P", &f2);
        let m = w.two_step.clone();
        let u1 = rde_chase::chase_mapping(&i1, &m, &mut w.vocab, &ChaseOptions::default()).unwrap();
        prop_assert!(reverse_data_exchange::core::semantics::satisfies(&i1, &u1, &m));
        prop_assert!(reverse_data_exchange::core::extended::is_extended_universal_solution(
            &i1, &u1, &m, &mut w.vocab, &HomConfig::default(), &mut HomStats::default()).unwrap().holds());
        // Monotonicity: I1 → I2 implies chase(I1) → chase(I2).
        if hom(&i1, &i2) {
            let u2 = rde_chase::chase_mapping(&i2, &m, &mut w.vocab, &ChaseOptions::default()).unwrap();
            prop_assert!(hom(&u1, &u2));
        }
    }

    /// The chase-inverse of the two-step decomposition recovers every
    /// source up to homomorphic equivalence (Theorem 3.17 instance-wise).
    #[test]
    fn chase_inverse_roundtrip(f in facts(2, 4)) {
        let mut w = World::new();
        let i = w.instance("P", &f);
        let (m, minv) = (w.two_step.clone(), w.two_step_inv.clone());
        let recovered = reverse_data_exchange::core::chase_inverse::roundtrip(
            &m, &minv, &i, &mut w.vocab, &HomConfig::default()).unwrap();
        prop_assert!(equivalent(&i, &recovered));
        prop_assert!(i.is_subset_of(&recovered), "Example 3.18: I ⊆ V");
    }

    /// Core computation: hom-equivalent, a sub-instance, idempotent.
    #[test]
    fn core_invariants(f in facts(2, 5)) {
        let mut w = World::new();
        let i = w.instance("P", &f);
        let r = core(&i);
        prop_assert!(equivalent(&i, &r.core));
        prop_assert!(r.core.is_subset_of(&i));
        prop_assert!(is_core(&r.core));
        prop_assert_eq!(core(&r.core).core, r.core.clone());
        prop_assert_eq!(r.retraction.apply_instance(&i), r.core);
    }

    /// Universal-faithfulness conditions (1)–(2) of the union recovery
    /// hold at every random source (Definition 6.1 / Theorem 6.2).
    #[test]
    fn union_recovery_faithfulness(fa in facts(1, 3), fb in facts(1, 3)) {
        let mut w = World::new();
        let ia = w.instance("A", &fa);
        let ib = w.instance("B", &fb);
        let i = ia.union(&ib);
        let (m, rec) = (w.union.clone(), w.union_rec.clone());
        let report = reverse_data_exchange::core::faithful::faithfulness_at(
            &m, &rec, &i, std::slice::from_ref(&i), &mut w.vocab,
            &HomConfig::default(), &mut HomStats::default()).unwrap();
        prop_assert!(report.every_leaf_exports_at_least.holds(), "condition (1)");
        prop_assert!(report.some_leaf_exports_at_most.holds(), "condition (2)");
        // Condition (3) with probe I' = I: some leaf maps into I itself.
        prop_assert!(report.universality_within_bound.holds(), "condition (3) at I' = I");
    }

    /// Extended recovery at every random source: (I, I) ∈ e(M) ∘ e(M′)
    /// for the union mapping with its disjunctive recovery.
    #[test]
    fn union_recovery_recovers(fa in facts(1, 2), fb in facts(1, 2)) {
        let mut w = World::new();
        let i = w.instance("A", &fa).union(&w.instance("B", &fb));
        let (m, rec) = (w.union.clone(), w.union_rec.clone());
        prop_assert!(reverse_data_exchange::core::recovery::recovers(
            &m, &rec, &i, &mut w.vocab,
            &HomConfig::default(), &mut HomStats::default()).unwrap().holds());
    }

    /// Theorem 6.4 instance-wise: reverse certain answers through the
    /// extended inverse equal q(I)↓ for a source CQ.
    #[test]
    fn reverse_certain_answers_equal_direct(f in facts(2, 4)) {
        let mut w = World::new();
        let i = w.instance("P", &f);
        let (m, minv) = (w.two_step.clone(), w.two_step_inv.clone());
        let q = rde_query::ConjunctiveQuery::parse(&mut w.vocab, "ans(x, y) :- P(x, y)").unwrap();
        let direct = rde_query::evaluate_null_free(&q, &i);
        let reversed = rde_query::reverse_certain_answers(
            &q, &i, &m, &minv, &mut w.vocab, &DisjunctiveChaseOptions::default()).unwrap();
        prop_assert_eq!(direct, reversed);
    }

    /// →_M is reflexive and contains → (Prop 4.11's ingredients) on
    /// random instance pairs.
    #[test]
    fn arrow_m_contains_hom(f1 in facts(2, 3), f2 in facts(2, 3)) {
        let mut w = World::new();
        let i1 = w.instance("P", &f1);
        let i2 = w.instance("P", &f2);
        let m = w.two_step.clone();
        prop_assert!(reverse_data_exchange::core::arrow::arrow_m(&m, &i1, &i1, &mut w.vocab).unwrap());
        if hom(&i1, &i2) {
            prop_assert!(reverse_data_exchange::core::arrow::arrow_m(&m, &i1, &i2, &mut w.vocab).unwrap());
        }
    }
}

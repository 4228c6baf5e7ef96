//! Property-based tests for the data model.

use proptest::prelude::*;
use rde_model::{display, parse::parse_instance, Fact, Instance, Substitution, Value, Vocabulary};

type AbstractFact = (u8, Vec<(bool, u8)>);

/// Strategy: one abstract fact over 3 relations (arities 1, 2, 3), with
/// arguments drawn from 4 constants and 4 named nulls.
fn abstract_fact() -> impl Strategy<Value = AbstractFact> {
    (0u8..3).prop_flat_map(|rel| {
        let arity = match rel {
            0 => 1,
            1 => 2,
            _ => 3,
        };
        (Just(rel), prop::collection::vec((any::<bool>(), 0u8..4), arity))
    })
}

fn abstract_facts() -> impl Strategy<Value = Vec<AbstractFact>> {
    prop::collection::vec(abstract_fact(), 0..12)
}

/// Strategy: an interleaved insert/remove script. Each step is
/// `(remove?, pick, fact)`: an insert adds `fact`; a remove takes the
/// `pick`-th earlier insert (mod their number), so most removes hit a
/// present tuple and force a swap-remove repair, and some miss.
fn abstract_script() -> impl Strategy<Value = Vec<(bool, u8, AbstractFact)>> {
    prop::collection::vec((any::<bool>(), 0u8..64, abstract_fact()), 0..24)
}

fn materialize_fact(vocab: &mut Vocabulary, (rel, args): &AbstractFact) -> Fact {
    let rels = [
        vocab.relation("Ra", 1).unwrap(),
        vocab.relation("Rb", 2).unwrap(),
        vocab.relation("Rc", 3).unwrap(),
    ];
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
    Fact::new(rels[*rel as usize], vals)
}

fn materialize(vocab: &mut Vocabulary, facts: &[AbstractFact]) -> Instance {
    facts.iter().map(|f| materialize_fact(vocab, f)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rendered instances re-parse to equal instances (named nulls are
    /// preserved by the renderer, so equality is on the nose).
    #[test]
    fn display_parse_roundtrip(facts in abstract_facts()) {
        let mut vocab = Vocabulary::new();
        let i = materialize(&mut vocab, &facts);
        let text = display::instance(&vocab, &i).to_string();
        let j = parse_instance(&mut vocab, &text).unwrap();
        prop_assert_eq!(i, j);
    }

    /// Set-algebra laws of instances.
    #[test]
    fn union_laws(f1 in abstract_facts(), f2 in abstract_facts()) {
        let mut vocab = Vocabulary::new();
        let a = materialize(&mut vocab, &f1);
        let b = materialize(&mut vocab, &f2);
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.union(&a), a.clone());
        prop_assert!(a.is_subset_of(&a.union(&b)));
        prop_assert!(b.is_subset_of(&a.union(&b)));
        prop_assert_eq!(a.union(&b).len() <= a.len() + b.len(), true);
    }

    /// `canonical_facts` is a sorted, duplicate-free listing of exactly
    /// the instance's facts.
    #[test]
    fn canonical_facts_is_sound(facts in abstract_facts()) {
        let mut vocab = Vocabulary::new();
        let i = materialize(&mut vocab, &facts);
        let canon = i.canonical_facts();
        prop_assert_eq!(canon.len(), i.len());
        prop_assert!(canon.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(canon.iter().all(|f| i.contains(f)));
    }

    /// Substitution composition agrees with sequential application.
    #[test]
    fn substitution_composition(
        facts in abstract_facts(),
        bind1 in prop::collection::vec((0u8..4, any::<bool>(), 0u8..4), 0..4),
        bind2 in prop::collection::vec((0u8..4, any::<bool>(), 0u8..4), 0..4),
    ) {
        let mut vocab = Vocabulary::new();
        let i = materialize(&mut vocab, &facts);
        let mk = |vocab: &mut Vocabulary, binds: &[(u8, bool, u8)]| {
            let mut s = Substitution::new();
            for &(src, is_null, dst) in binds {
                let from = vocab.named_null(&format!("n{src}"));
                let to = if is_null {
                    vocab.null_value(&format!("n{dst}"))
                } else {
                    vocab.const_value(&format!("c{dst}"))
                };
                s.bind(from, to);
            }
            s
        };
        let s = mk(&mut vocab, &bind1);
        let t = mk(&mut vocab, &bind2);
        let composed = s.then(&t).apply_instance(&i);
        let sequential = t.apply_instance(&s.apply_instance(&i));
        prop_assert_eq!(composed, sequential);
    }

    /// `then` is associative — both as composed maps and under
    /// application.
    #[test]
    fn substitution_composition_is_associative(
        facts in abstract_facts(),
        bind1 in prop::collection::vec((0u8..4, any::<bool>(), 0u8..4), 0..4),
        bind2 in prop::collection::vec((0u8..4, any::<bool>(), 0u8..4), 0..4),
        bind3 in prop::collection::vec((0u8..4, any::<bool>(), 0u8..4), 0..4),
    ) {
        let mut vocab = Vocabulary::new();
        let i = materialize(&mut vocab, &facts);
        let mk = |vocab: &mut Vocabulary, binds: &[(u8, bool, u8)]| {
            let mut s = Substitution::new();
            for &(src, is_null, dst) in binds {
                let from = vocab.named_null(&format!("n{src}"));
                let to = if is_null {
                    vocab.null_value(&format!("n{dst}"))
                } else {
                    vocab.const_value(&format!("c{dst}"))
                };
                s.bind(from, to);
            }
            s
        };
        let s = mk(&mut vocab, &bind1);
        let t = mk(&mut vocab, &bind2);
        let u = mk(&mut vocab, &bind3);
        let left = s.then(&t).then(&u);
        let right = s.then(&t.then(&u));
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(left.apply_instance(&i), right.apply_instance(&i));
    }

    /// The active domain is exactly the set of values in facts.
    #[test]
    fn active_domain_is_exact(facts in abstract_facts()) {
        let mut vocab = Vocabulary::new();
        let i = materialize(&mut vocab, &facts);
        let dom = i.active_domain();
        // Sorted and duplicate-free.
        prop_assert!(dom.windows(2).all(|w| w[0] < w[1]));
        for f in i.facts() {
            for v in f.args() {
                prop_assert!(dom.contains(v));
            }
        }
        let total: usize = i.facts().map(|f| f.arity()).sum();
        prop_assert!(dom.len() <= total.max(1));
    }

    /// Column indexes return exactly the rows holding the value through
    /// any interleaving of inserts and removes: after every step the
    /// instance's size and membership match a reference fact set, the
    /// surviving tuples are exactly that set, and every posting list
    /// equals the ascending row ids of an index rebuilt from the
    /// surviving tuples — removed values included, whose lists must be
    /// empty.
    #[test]
    fn posting_lists_are_exact(script in abstract_script()) {
        let mut vocab = Vocabulary::new();
        let mut inst = Instance::new();
        let mut inserted: Vec<Fact> = Vec::new();
        let mut alive: Vec<Fact> = Vec::new();
        for (is_remove, pick, fact) in &script {
            if *is_remove && !inserted.is_empty() {
                let f = inserted[usize::from(*pick) % inserted.len()].clone();
                prop_assert_eq!(inst.remove_fact(&f), alive.contains(&f));
                alive.retain(|g| g != &f);
            } else {
                let f = materialize_fact(&mut vocab, fact);
                let new = !alive.contains(&f);
                prop_assert_eq!(inst.insert(f.clone()), new);
                if new {
                    alive.push(f.clone());
                }
                inserted.push(f);
            }
            prop_assert_eq!(inst.len(), alive.len());
            for f in &inserted {
                prop_assert_eq!(inst.contains(f), alive.contains(f));
            }
            let survivors = inst.canonical_facts();
            let mut expected = alive.clone();
            expected.sort();
            prop_assert_eq!(survivors, expected);
            let domain: Vec<Value> = inserted.iter().flat_map(|f| f.args().to_vec()).collect();
            for (_, data) in inst.relations() {
                let tuples: Vec<&[Value]> = data.tuples().collect();
                prop_assert_eq!(data.len(), tuples.len());
                for (r, t) in tuples.iter().enumerate() {
                    prop_assert_eq!(data.row_slice(r as u32), *t);
                }
                for col in 0..data.arity() {
                    for v in &domain {
                        let rebuilt: Vec<u32> = (0..tuples.len() as u32)
                            .filter(|&r| tuples[r as usize][col] == *v)
                            .collect();
                        prop_assert_eq!(data.rows_with(col, v), &rebuilt[..], "col {} {:?}", col, v);
                    }
                }
            }
        }
    }
}

//! Answer sets: ordered sets of value tuples.

use std::collections::BTreeSet;

use rde_model::Value;

/// A set of answer tuples, ordered for deterministic iteration and
/// display.
pub type AnswerSet = BTreeSet<Vec<Value>>;

/// `S↓`: the tuples containing no nulls (Section 6.2 — answers built
/// from labeled nulls carry no certain information).
pub fn drop_nulls(answers: &AnswerSet) -> AnswerSet {
    answers.iter().filter(|t| t.iter().all(|v| v.is_const())).cloned().collect()
}

/// Intersection of a family of answer sets, shrinking the first in
/// place. An empty family is the identity for intersection only with a
/// universe, which we do not have; we follow the convention of the
/// paper's usage sites (the family is never empty there — the
/// disjunctive chase of any instance has at least one leaf) and return
/// the empty set for an empty family.
pub fn intersect_all<I>(sets: I) -> AnswerSet
where
    I: IntoIterator<Item = AnswerSet>,
{
    let mut iter = sets.into_iter();
    let Some(first) = iter.next() else {
        return AnswerSet::new();
    };
    iter.fold(first, |mut acc, s| {
        // `retain` visits `acc` in ascending order: merge-walk `s`
        // alongside it instead of building a new set per member.
        let mut other = s.iter().peekable();
        acc.retain(|t| {
            while other.next_if(|o| *o < t).is_some() {}
            other.next_if_eq(&t).is_some()
        });
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rde_model::{ConstId, NullId};

    fn c(i: u32) -> Value {
        Value::Const(ConstId(i))
    }
    fn n(i: u32) -> Value {
        Value::Null(NullId(i))
    }

    #[test]
    fn drop_nulls_filters_tuples_with_any_null() {
        let mut s = AnswerSet::new();
        s.insert(vec![c(0), c(1)]);
        s.insert(vec![c(0), n(0)]);
        s.insert(vec![n(0), n(1)]);
        let d = drop_nulls(&s);
        assert_eq!(d.len(), 1);
        assert!(d.contains(&vec![c(0), c(1)]));
    }

    #[test]
    fn intersection_of_sets() {
        let mk = |vals: &[u32]| -> AnswerSet { vals.iter().map(|&v| vec![c(v)]).collect() };
        let out = intersect_all(vec![mk(&[0, 1, 2]), mk(&[1, 2, 3]), mk(&[2, 1])]);
        assert_eq!(out, mk(&[1, 2]));
        assert!(intersect_all(Vec::<AnswerSet>::new()).is_empty());
        let single = intersect_all(vec![mk(&[5])]);
        assert_eq!(single, mk(&[5]));
    }
}

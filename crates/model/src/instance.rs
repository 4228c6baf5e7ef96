//! Instances: deduplicated, column-indexed fact sets.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use crate::fact::Fact;
use crate::fx::{FxHashMap, FxHashSet, FxHasher};
use crate::schema::{RelId, Schema};
use crate::value::Value;
use crate::vocab::Vocabulary;
use crate::ModelError;

/// The tuples of one relation: boxed `[Value]` rows plus per-column
/// posting lists.
///
/// Tuples are kept in insertion order (deterministic iteration) and
/// deduplicated (set semantics, as in the paper). Each column maintains
/// a posting list `value → sorted row ids`, which makes homomorphism
/// search and chase premise matching sub-linear: a partially bound atom
/// only visits the shortest posting list among its bound columns, and a
/// fully bound one is a single [`Self::contains`] probe.
///
/// Row ids are dense `0..len()`: inserting appends, and removing
/// swap-moves the last row into the freed slot and repairs every index,
/// so posting lists always hold ascending row ids.
#[derive(Debug, Clone, Default)]
pub struct RelationData {
    tuples: Vec<Box<[Value]>>,
    dedup: FxHashMap<Box<[Value]>, u32>,
    /// `index[col][value]` = sorted row ids with `value` in column `col`.
    index: Vec<FxHashMap<Value, Vec<u32>>>,
}

impl RelationData {
    /// An empty relation with the given number of columns.
    fn with_arity(arity: usize) -> Self {
        RelationData {
            tuples: Vec::new(),
            dedup: FxHashMap::default(),
            index: vec![FxHashMap::default(); arity],
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.index.len()
    }

    /// All tuples, in insertion order.
    pub fn tuples(&self) -> impl ExactSizeIterator<Item = &[Value]> + '_ {
        self.tuples.iter().map(|t| &**t)
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Row ids whose column `col` holds `value`, ascending (empty slice
    /// if none, including on an empty relation that has no column
    /// indexes yet).
    #[inline]
    pub fn rows_with(&self, col: usize, value: &Value) -> &[u32] {
        self.index.get(col).and_then(|m| m.get(value)).map_or(&[], |v| &v[..])
    }

    /// The tuple at a row id (from [`Self::rows_with`]).
    #[inline]
    pub fn row_slice(&self, row: u32) -> &[Value] {
        &self.tuples[row as usize]
    }

    /// Does the relation contain this exact tuple?
    pub fn contains(&self, tuple: &[Value]) -> bool {
        self.dedup.contains_key(tuple)
    }

    /// Insert a tuple; `true` if it was new.
    fn insert(&mut self, tuple: &[Value]) -> bool {
        if self.dedup.contains_key(tuple) {
            return false;
        }
        let row = u32::try_from(self.tuples.len()).expect("relation too large");
        for (col, &v) in tuple.iter().enumerate() {
            self.index[col].entry(v).or_default().push(row);
        }
        let boxed: Box<[Value]> = tuple.into();
        self.dedup.insert(boxed.clone(), row);
        self.tuples.push(boxed);
        true
    }

    /// Remove a tuple in place, if present; returns `true` when removed.
    /// The last row is swap-moved into the freed slot (row ids obtained
    /// earlier from [`Self::rows_with`] are invalidated) and every index
    /// is repaired.
    fn remove(&mut self, tuple: &[Value]) -> bool {
        let Some(row) = self.dedup.remove(tuple) else {
            return false;
        };
        for (col, &v) in tuple.iter().enumerate() {
            let col_index = &mut self.index[col];
            let rows = col_index.get_mut(&v).expect("removed tuple is indexed");
            let pos = rows.binary_search(&row).expect("removed row is listed");
            rows.remove(pos);
            if rows.is_empty() {
                col_index.remove(&v);
            }
        }
        let last = u32::try_from(self.tuples.len() - 1).expect("relation too large");
        self.tuples.swap_remove(row as usize);
        if row != last {
            // The previous last tuple now lives at `row`: renumber its
            // posting-list entries and its dedup slot.
            let moved = &self.tuples[row as usize];
            for (col, &v) in moved.iter().enumerate() {
                let rows = self.index[col].get_mut(&v).expect("moved tuple is indexed");
                let pos = rows.binary_search(&last).expect("moved row is listed");
                rows.remove(pos);
                let ins = rows.binary_search(&row).expect_err("freed row id is unused");
                rows.insert(ins, row);
            }
            *self.dedup.get_mut(&**moved).expect("moved tuple is deduped") = row;
        }
        true
    }
}

/// An instance: for each relation symbol, a finite set of tuples over
/// `Const ∪ Var` (Section 2 of the paper).
///
/// Instances are schema-agnostic fact sets — the relation ids tie them
/// to a [`Vocabulary`]; use [`Instance::conforms_to`] to check
/// membership in a particular [`Schema`]. Relations are kept in a
/// `BTreeMap` so that all iteration is deterministic.
#[derive(Debug, Clone, Default)]
pub struct Instance {
    relations: BTreeMap<RelId, RelationData>,
    fact_count: usize,
    /// Exclusive upper bound on null ids occurring in inserted facts
    /// (`max null id + 1`, 0 when ground). Maintained incrementally so
    /// hot paths (chase premise matching) never rescan the instance.
    null_offset: u32,
}

impl Instance {
    /// The empty instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build an instance from facts, validating arities against `vocab`.
    pub fn from_facts(
        vocab: &Vocabulary,
        facts: impl IntoIterator<Item = Fact>,
    ) -> Result<Self, ModelError> {
        let mut inst = Instance::new();
        for f in facts {
            inst.insert_checked(vocab, f)?;
        }
        Ok(inst)
    }

    /// Insert a fact after validating its arity against the vocabulary.
    pub fn insert_checked(&mut self, vocab: &Vocabulary, fact: Fact) -> Result<bool, ModelError> {
        let expected = vocab.arity(fact.relation());
        if fact.arity() != expected {
            return Err(ModelError::ArityMismatch {
                relation: vocab.relation_name(fact.relation()).to_owned(),
                expected,
                got: fact.arity(),
            });
        }
        Ok(self.insert(fact))
    }

    /// Insert a fact (no arity validation — for internal engine use where
    /// facts are constructed from already-validated syntax).
    ///
    /// Returns `true` if the fact was new.
    pub fn insert(&mut self, fact: Fact) -> bool {
        let arity = fact.arity();
        let data = self
            .relations
            .entry(fact.relation())
            .or_insert_with(|| RelationData::with_arity(arity));
        debug_assert_eq!(
            data.arity(),
            arity,
            "inconsistent arity for relation {:?}",
            fact.relation()
        );
        let added = data.insert(fact.args());
        if added {
            self.fact_count += 1;
            for &v in fact.args() {
                if let Value::Null(n) = v {
                    self.null_offset = self.null_offset.max(n.0 + 1);
                }
            }
        }
        added
    }

    /// An exclusive upper bound on the null ids in the instance: one
    /// past the largest [`crate::NullId`] inserted so far (0 if the
    /// instance is ground). O(1) — maintained by [`Instance::insert`],
    /// which every constructor funnels through — replacing the
    /// full-instance null scans that premise matching used to pay per
    /// call for fresh-variable offsets.
    pub fn null_offset(&self) -> u32 {
        self.null_offset
    }

    /// Does the instance contain this fact?
    pub fn contains(&self, fact: &Fact) -> bool {
        self.relations.get(&fact.relation()).is_some_and(|d| d.contains(fact.args()))
    }

    /// Total number of facts.
    pub fn len(&self) -> usize {
        self.fact_count
    }

    /// Is the instance empty?
    pub fn is_empty(&self) -> bool {
        self.fact_count == 0
    }

    /// The relations that have at least one tuple, in id order.
    pub fn relations(&self) -> impl Iterator<Item = (RelId, &RelationData)> {
        self.relations.iter().filter(|(_, d)| !d.is_empty()).map(|(&r, d)| (r, d))
    }

    /// The data for one relation, if present.
    pub fn relation(&self, rel: RelId) -> Option<&RelationData> {
        self.relations.get(&rel).filter(|d| !d.is_empty())
    }

    /// Iterate over all facts, in (relation id, insertion) order.
    pub fn facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.relations().flat_map(|(r, d)| d.tuples().map(move |t| Fact::new(r, t.to_vec())))
    }

    /// All facts sorted structurally — a canonical listing for equality,
    /// hashing and stable display.
    pub fn canonical_facts(&self) -> Vec<Fact> {
        let mut fs: Vec<Fact> = self.facts().collect();
        fs.sort();
        fs
    }

    /// The active domain: every value occurring in some fact (dedup'd,
    /// deterministic order: constants first, then nulls, each sorted).
    pub fn active_domain(&self) -> Vec<Value> {
        let mut seen = FxHashSet::default();
        let mut out = Vec::new();
        for (_, d) in self.relations() {
            for t in d.tuples() {
                for &v in t.iter() {
                    if seen.insert(v) {
                        out.push(v);
                    }
                }
            }
        }
        out.sort();
        out
    }

    /// The nulls occurring in the instance, sorted.
    pub fn nulls(&self) -> Vec<crate::NullId> {
        self.active_domain().into_iter().filter_map(Value::as_null).collect()
    }

    /// Is the instance ground (constants only)?
    pub fn is_ground(&self) -> bool {
        self.relations().all(|(_, d)| d.tuples().all(|t| t.iter().all(|v| v.is_const())))
    }

    /// Do all facts belong to relations of `schema`?
    pub fn conforms_to(&self, schema: &Schema) -> bool {
        self.relations().all(|(r, _)| schema.contains(r))
    }

    /// The sub-instance of facts over `schema`'s relations.
    pub fn restrict_to(&self, schema: &Schema) -> Instance {
        let mut out = Instance::new();
        for f in self.facts() {
            if schema.contains(f.relation()) {
                out.insert(f);
            }
        }
        out
    }

    /// Apply a value mapping to every fact (e.g. a homomorphism or a
    /// null-renaming), producing a new instance.
    pub fn map_values(&self, mut f: impl FnMut(Value) -> Value) -> Instance {
        let mut out = Instance::new();
        for fact in self.facts() {
            out.insert(fact.map_values(&mut f));
        }
        out
    }

    /// Set union of two instances.
    pub fn union(&self, other: &Instance) -> Instance {
        let mut out = self.clone();
        for f in other.facts() {
            out.insert(f);
        }
        out
    }

    /// Set intersection of two instances.
    pub fn intersection(&self, other: &Instance) -> Instance {
        let mut out = Instance::new();
        for f in self.facts() {
            if other.contains(&f) {
                out.insert(f);
            }
        }
        out
    }

    /// Set difference `self ∖ other`.
    pub fn difference(&self, other: &Instance) -> Instance {
        let mut out = Instance::new();
        for f in self.facts() {
            if !other.contains(&f) {
                out.insert(f);
            }
        }
        out
    }

    /// Is every fact of `self` a fact of `other`?
    pub fn is_subset_of(&self, other: &Instance) -> bool {
        self.facts().all(|f| other.contains(&f))
    }

    /// Remove one fact in place, if present; returns `true` when removed.
    ///
    /// The mutating complement of [`Instance::without_fact`]: O(arity)
    /// posting-list repairs instead of an O(n) rebuild, which is what
    /// makes core minimization's remove/search/reinsert inner loop cheap.
    ///
    /// After a removal, [`Instance::null_offset`] remains a valid *upper
    /// bound* on the null ids present but is not recomputed (tightening
    /// it would cost a full scan); every engine use of the offset only
    /// needs an upper bound. Rebuilding constructors such as
    /// [`Instance::without_fact`] still recompute it exactly.
    pub fn remove_fact(&mut self, fact: &Fact) -> bool {
        let Some(data) = self.relations.get_mut(&fact.relation()) else {
            return false;
        };
        let removed = data.remove(fact.args());
        if removed {
            self.fact_count -= 1;
        }
        removed
    }

    /// The instance with one fact removed (copy; instances are immutable
    /// fact *sets* and the engines rely on persistent snapshots).
    pub fn without_fact(&self, fact: &Fact) -> Instance {
        let mut out = Instance::new();
        for f in self.facts() {
            if &f != fact {
                out.insert(f);
            }
        }
        out
    }

    /// The sub-instance of facts that do **not** mention any value in
    /// `values` (used by core computation to drop a null's facts).
    pub fn without_values(&self, values: &FxHashSet<Value>) -> Instance {
        let mut out = Instance::new();
        for f in self.facts() {
            if !f.args().iter().any(|v| values.contains(v)) {
                out.insert(f);
            }
        }
        out
    }
}

impl PartialEq for Instance {
    /// Set equality of facts.
    fn eq(&self, other: &Self) -> bool {
        self.fact_count == other.fact_count && self.is_subset_of(other)
    }
}

impl Eq for Instance {}

impl Hash for Instance {
    /// Order-independent hash (sum of per-fact hashes), consistent with
    /// the set-equality `PartialEq`.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let mut acc: u64 = 0;
        for f in self.facts() {
            let mut h = FxHasher::default();
            f.hash(&mut h);
            acc = acc.wrapping_add(h.finish());
        }
        state.write_u64(acc);
        state.write_usize(self.fact_count);
    }
}

impl FromIterator<Fact> for Instance {
    fn from_iter<T: IntoIterator<Item = Fact>>(iter: T) -> Self {
        let mut inst = Instance::new();
        for f in iter {
            inst.insert(f);
        }
        inst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{ConstId, NullId};

    fn c(i: u32) -> Value {
        Value::Const(ConstId(i))
    }
    fn n(i: u32) -> Value {
        Value::Null(NullId(i))
    }
    fn fact(r: u32, args: &[Value]) -> Fact {
        Fact::new(RelId(r), args.to_vec())
    }

    #[test]
    fn insert_dedups_and_counts() {
        let mut i = Instance::new();
        assert!(i.insert(fact(0, &[c(0), c(1)])));
        assert!(!i.insert(fact(0, &[c(0), c(1)])));
        assert!(i.insert(fact(0, &[c(1), c(0)])));
        assert_eq!(i.len(), 2);
        assert!(i.contains(&fact(0, &[c(0), c(1)])));
        assert!(!i.contains(&fact(1, &[c(0), c(1)])));
    }

    #[test]
    fn checked_insert_validates_arity() {
        let mut v = Vocabulary::new();
        let p = v.relation("P", 2).unwrap();
        let mut i = Instance::new();
        assert!(i.insert_checked(&v, Fact::new(p, vec![c(0), c(1)])).unwrap());
        let err = i.insert_checked(&v, Fact::new(p, vec![c(0)])).unwrap_err();
        assert!(matches!(err, ModelError::ArityMismatch { .. }));
    }

    #[test]
    fn column_index_finds_rows() {
        let mut i = Instance::new();
        i.insert(fact(0, &[c(0), c(1)]));
        i.insert(fact(0, &[c(0), c(2)]));
        i.insert(fact(0, &[c(3), c(1)]));
        let d = i.relation(RelId(0)).unwrap();
        assert_eq!(d.rows_with(0, &c(0)).len(), 2);
        assert_eq!(d.rows_with(1, &c(1)).len(), 2);
        assert_eq!(d.rows_with(1, &c(9)).len(), 0);
        for &row in d.rows_with(0, &c(0)) {
            assert_eq!(d.row_slice(row)[0], c(0));
        }
    }

    #[test]
    fn active_domain_and_groundness() {
        let mut i = Instance::new();
        i.insert(fact(0, &[c(0), n(0)]));
        i.insert(fact(1, &[c(1)]));
        assert_eq!(i.active_domain(), vec![c(0), c(1), n(0)]);
        assert_eq!(i.nulls(), vec![NullId(0)]);
        assert!(!i.is_ground());
        assert!(i.without_fact(&fact(0, &[c(0), n(0)])).is_ground());
    }

    #[test]
    fn set_equality_and_hash_ignore_insertion_order() {
        use std::collections::hash_map::DefaultHasher;
        let mut a = Instance::new();
        a.insert(fact(0, &[c(0)]));
        a.insert(fact(0, &[c(1)]));
        let mut b = Instance::new();
        b.insert(fact(0, &[c(1)]));
        b.insert(fact(0, &[c(0)]));
        assert_eq!(a, b);
        let h = |i: &Instance| {
            let mut s = DefaultHasher::new();
            i.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&a), h(&b));
        b.insert(fact(0, &[c(2)]));
        assert_ne!(a, b);
    }

    #[test]
    fn union_subset_restrict() {
        let mut a = Instance::new();
        a.insert(fact(0, &[c(0)]));
        let mut b = Instance::new();
        b.insert(fact(1, &[c(1)]));
        let u = a.union(&b);
        assert_eq!(u.len(), 2);
        assert!(a.is_subset_of(&u));
        assert!(b.is_subset_of(&u));
        assert!(!u.is_subset_of(&a));
        let s = Schema::from_relations([RelId(0)]);
        assert_eq!(u.restrict_to(&s), a);
        assert!(a.conforms_to(&s));
        assert!(!u.conforms_to(&s));
    }

    #[test]
    fn intersection_and_difference() {
        let a: Instance =
            vec![fact(0, &[c(0)]), fact(0, &[c(1)]), fact(1, &[c(2)])].into_iter().collect();
        let b: Instance = vec![fact(0, &[c(1)]), fact(1, &[c(3)])].into_iter().collect();
        let inter = a.intersection(&b);
        assert_eq!(inter.len(), 1);
        assert!(inter.contains(&fact(0, &[c(1)])));
        let diff = a.difference(&b);
        assert_eq!(diff.len(), 2);
        assert!(diff.contains(&fact(0, &[c(0)])) && diff.contains(&fact(1, &[c(2)])));
        // Laws: A = (A ∩ B) ∪ (A ∖ B); A ∖ A = ∅.
        assert_eq!(inter.union(&diff), a);
        assert!(a.difference(&a).is_empty());
    }

    #[test]
    fn map_values_renames() {
        let mut a = Instance::new();
        a.insert(fact(0, &[n(0), n(1)]));
        let b = a.map_values(|v| if v == n(0) { c(5) } else { v });
        assert!(b.contains(&fact(0, &[c(5), n(1)])));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn map_values_can_collapse_facts() {
        let mut a = Instance::new();
        a.insert(fact(0, &[n(0)]));
        a.insert(fact(0, &[n(1)]));
        let b = a.map_values(|_| c(0));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn without_values_drops_incident_facts() {
        let mut a = Instance::new();
        a.insert(fact(0, &[n(0), c(0)]));
        a.insert(fact(0, &[c(1), c(0)]));
        let mut kill = FxHashSet::default();
        kill.insert(n(0));
        let b = a.without_values(&kill);
        assert_eq!(b.len(), 1);
        assert!(b.contains(&fact(0, &[c(1), c(0)])));
    }

    #[test]
    fn null_offset_tracks_inserts() {
        let mut i = Instance::new();
        assert_eq!(i.null_offset(), 0);
        i.insert(fact(0, &[c(0), c(1)]));
        assert_eq!(i.null_offset(), 0, "ground facts leave the offset at 0");
        i.insert(fact(0, &[c(0), n(4)]));
        assert_eq!(i.null_offset(), 5);
        i.insert(fact(1, &[n(2)]));
        assert_eq!(i.null_offset(), 5, "smaller nulls do not lower the bound");
        // Duplicate inserts change nothing; derived instances recompute
        // exactly because they are rebuilt through insert.
        i.insert(fact(0, &[c(0), n(4)]));
        assert_eq!(i.null_offset(), 5);
        let smaller = i.without_fact(&fact(0, &[c(0), n(4)]));
        assert_eq!(smaller.null_offset(), 3);
        assert_eq!(i.clone().null_offset(), 5);
    }

    #[test]
    fn remove_fact_is_the_inverse_of_insert() {
        let mut i = Instance::new();
        i.insert(fact(0, &[c(0), c(1)]));
        i.insert(fact(0, &[c(1), c(2)]));
        i.insert(fact(0, &[c(2), c(0)]));
        let before = i.clone();
        assert!(i.remove_fact(&fact(0, &[c(1), c(2)])));
        assert_eq!(i.len(), 2);
        assert!(!i.contains(&fact(0, &[c(1), c(2)])));
        assert!(!i.remove_fact(&fact(0, &[c(1), c(2)])), "already gone");
        assert!(!i.remove_fact(&fact(7, &[c(0), c(0)])), "unknown relation");
        i.insert(fact(0, &[c(1), c(2)]));
        assert_eq!(i, before, "remove + reinsert is a set-level no-op");
    }

    #[test]
    fn remove_fact_repairs_posting_lists() {
        // Removing a middle row swap-moves the last row into its slot;
        // every index lookup must stay consistent afterwards.
        let mut i = Instance::new();
        i.insert(fact(0, &[c(0), c(1)]));
        i.insert(fact(0, &[c(0), c(2)]));
        i.insert(fact(0, &[c(0), c(1)])); // duplicate, ignored
        i.insert(fact(0, &[c(3), c(1)]));
        assert!(i.remove_fact(&fact(0, &[c(0), c(2)])));
        let d = i.relation(RelId(0)).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.row_slice(1), &[c(3), c(1)], "the last row moved into the freed slot");
        for (col, v, want) in [
            (0, c(0), vec![vec![c(0), c(1)]]),
            (0, c(3), vec![vec![c(3), c(1)]]),
            (1, c(1), vec![vec![c(0), c(1)], vec![c(3), c(1)]]),
            (1, c(2), vec![]),
        ] {
            let mut got: Vec<Vec<Value>> =
                d.rows_with(col, &v).iter().map(|&r| d.row_slice(r).to_vec()).collect();
            got.sort();
            assert_eq!(got, want, "col {col} value {v:?}");
            let rows = d.rows_with(col, &v);
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "posting list stays sorted");
        }
    }

    #[test]
    fn remove_fact_keeps_null_offset_an_upper_bound() {
        let mut i = Instance::new();
        i.insert(fact(0, &[c(0), n(4)]));
        i.insert(fact(1, &[n(1)]));
        assert_eq!(i.null_offset(), 5);
        i.remove_fact(&fact(0, &[c(0), n(4)]));
        // Not recomputed — but still a sound upper bound.
        assert!(i.null_offset() >= 2);
        i.insert(fact(0, &[c(0), n(7)]));
        assert_eq!(i.null_offset(), 8, "later inserts still raise the bound");
    }

    #[test]
    fn zero_arity_relations_work() {
        let mut d = RelationData::with_arity(0);
        assert!(d.insert(&[]));
        assert!(!d.insert(&[]));
        assert_eq!(d.len(), 1);
        assert!(d.contains(&[]));
        assert!(d.remove(&[]));
        assert!(d.is_empty());
    }

    #[test]
    fn from_iterator_collects() {
        let i: Instance =
            vec![fact(0, &[c(0)]), fact(0, &[c(0)]), fact(1, &[c(1)])].into_iter().collect();
        assert_eq!(i.len(), 2);
    }
}

//! Instances: deduplicated fact sets, column-indexed on demand.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

use crate::fact::Fact;
use crate::fx::{FxHashMap, FxHashSet, FxHasher};
use crate::rowset::RowSet;
use crate::schema::{RelId, Schema};
use crate::value::Value;
use crate::vocab::Vocabulary;
use crate::ModelError;

/// One column's posting list: `value → ascending row ids`.
type ColumnIndex = FxHashMap<Value, Vec<u32>>;

/// The tuples of one relation: a [`RowSet`] plus per-column posting
/// lists, each built on its first probe.
///
/// Tuples are kept in insertion order (deterministic iteration) and
/// deduplicated (set semantics, as in the paper), each stored once in
/// the row set. A column's posting list `value → sorted row ids` makes
/// homomorphism search and chase premise matching sub-linear: a
/// partially bound atom only visits the shortest posting list among its
/// bound columns, and a fully bound one is a single [`Self::contains`]
/// probe that needs no posting list at all.
///
/// A column is indexed only once [`Self::rows_with`] asks for it: the
/// first call builds that column from the rows, and from then on
/// inserts and removals keep it current. Columns nobody probes cost
/// nothing to insert into or to clone (DESIGN.md §13.1).
///
/// Row ids are dense `0..len()`: inserting appends, and removing
/// swap-moves the last row into the freed slot and repairs every built
/// index, so posting lists always hold ascending row ids.
#[derive(Debug, Clone, Default)]
pub struct RelationData {
    rows: RowSet,
    /// `index[col]`, once built, maps a value to the sorted row ids with
    /// that value in column `col`.
    index: Vec<OnceLock<ColumnIndex>>,
}

impl RelationData {
    /// An empty relation with the given number of columns.
    fn with_arity(arity: usize) -> Self {
        RelationData { rows: RowSet::new(arity), index: vec![OnceLock::new(); arity] }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.rows.width()
    }

    /// All tuples, in insertion order.
    pub fn tuples(&self) -> impl ExactSizeIterator<Item = &[Value]> + '_ {
        self.rows.rows()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Row ids whose column `col` holds `value`, ascending (empty slice
    /// if none, or if `col` is out of range). The first call for a
    /// column builds its posting lists from the rows.
    #[inline]
    pub fn rows_with(&self, col: usize, value: &Value) -> &[u32] {
        self.index
            .get(col)
            .and_then(|cell| cell.get_or_init(|| self.build_column(col)).get(value))
            .map_or(&[], |v| &v[..])
    }

    /// Column `col`'s posting lists, from the rows in id order.
    fn build_column(&self, col: usize) -> ColumnIndex {
        let mut column = ColumnIndex::default();
        for (row, t) in (0u32..).zip(self.tuples()) {
            column.entry(t[col]).or_default().push(row);
        }
        column
    }

    /// The tuple at a row id (from [`Self::rows_with`]).
    #[inline]
    pub fn row_slice(&self, row: u32) -> &[Value] {
        self.rows.row(row)
    }

    /// Does the relation contain this exact tuple?
    pub fn contains(&self, tuple: &[Value]) -> bool {
        self.rows.find(tuple).is_some()
    }

    /// Set equality of the tuples (insertion order ignored).
    fn same_tuples(&self, other: &RelationData) -> bool {
        self.len() == other.len() && self.tuples().all(|t| other.contains(t))
    }

    /// One past the largest null id in the relation (0 when ground).
    fn null_offset(&self) -> u32 {
        self.tuples().flatten().filter_map(|v| v.as_null()).map(|n| n.0 + 1).max().unwrap_or(0)
    }

    /// Order-independent hash of the facts `rel(t)`: the wrapping sum of
    /// each fact's own hash, as [`Fact`]'s `Hash` computes it.
    fn fact_hash_sum(&self, rel: RelId) -> u64 {
        self.tuples().fold(0u64, |acc, t| {
            let mut h = FxHasher::default();
            rel.hash(&mut h);
            t.hash(&mut h);
            acc.wrapping_add(h.finish())
        })
    }

    /// Insert a tuple; `true` if it was new.
    fn insert(&mut self, tuple: &[Value]) -> bool {
        let (row, new) = self.rows.insert(tuple);
        if new {
            for (cell, &v) in self.index.iter_mut().zip(tuple) {
                if let Some(column) = cell.get_mut() {
                    column.entry(v).or_default().push(row);
                }
            }
        }
        new
    }

    /// Remove a tuple in place, if present; returns `true` when removed.
    /// The last row is swap-moved into the freed slot (row ids obtained
    /// earlier from [`Self::rows_with`] are invalidated) and every built
    /// index is repaired.
    fn remove(&mut self, tuple: &[Value]) -> bool {
        let Some(row) = self.rows.find(tuple) else {
            return false;
        };
        let last = u32::try_from(self.len() - 1).expect("relation too large");
        // Split the borrow: the moved tuple is read while indexes change.
        let RelationData { rows, index } = self;
        let moved = rows.row(last);
        for (col, cell) in index.iter_mut().enumerate() {
            let Some(column) = cell.get_mut() else { continue };
            let ids = column.get_mut(&tuple[col]).expect("removed tuple is indexed");
            let pos = ids.binary_search(&row).expect("removed row is listed");
            ids.remove(pos);
            if ids.is_empty() {
                column.remove(&tuple[col]);
            }
            if row != last {
                // The last tuple moves to `row`: renumber its entry
                // before the row set moves it.
                let ids = column.get_mut(&moved[col]).expect("moved tuple is indexed");
                let pos = ids.binary_search(&last).expect("moved row is listed");
                ids.remove(pos);
                let ins = ids.binary_search(&row).expect_err("freed row id is unused");
                ids.insert(ins, row);
            }
        }
        rows.swap_remove(row);
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
        self.insert_args(fact.relation(), fact.args())
    }

    /// Insert the fact `rel(args)` without building a [`Fact`] (no arity
    /// validation). Returns `true` if the fact was new.
    pub fn insert_args(&mut self, rel: RelId, args: &[Value]) -> bool {
        let data =
            self.relations.entry(rel).or_insert_with(|| RelationData::with_arity(args.len()));
        debug_assert_eq!(data.arity(), args.len(), "inconsistent arity for relation {rel:?}");
        let added = data.insert(args);
        if added {
            self.fact_count += 1;
            for &v in args {
                if let Value::Null(n) = v {
                    self.null_offset = self.null_offset.max(n.0 + 1);
                }
            }
        }
        added
    }

    /// Insert every row of `data` that `keep` accepts, as `rel` facts.
    fn extend_rows(
        &mut self,
        rel: RelId,
        data: &RelationData,
        mut keep: impl FnMut(&[Value]) -> bool,
    ) {
        for t in data.tuples() {
            if keep(t) {
                self.insert_args(rel, t);
            }
        }
    }

    /// An exclusive upper bound on the null ids in the instance: one
    /// past the largest [`crate::NullId`] inserted so far (0 if the
    /// instance is ground). O(1) — maintained by
    /// [`Instance::insert_args`], which every constructor but
    /// [`Instance::restrict_to`] funnels through (that one recomputes it
    /// from the kept rows) — replacing the full-instance null scans that
    /// premise matching used to pay per call for fresh-variable offsets.
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

    /// The sub-instance of facts over `schema`'s relations. Each kept
    /// relation is copied whole, rows and built indexes alike.
    pub fn restrict_to(&self, schema: &Schema) -> Instance {
        let mut out = Instance::new();
        for (rel, data) in self.relations().filter(|&(r, _)| schema.contains(r)) {
            out.fact_count += data.len();
            out.null_offset = out.null_offset.max(data.null_offset());
            out.relations.insert(rel, data.clone());
        }
        out
    }

    /// Apply a value mapping to every fact (e.g. a homomorphism or a
    /// null-renaming), producing a new instance.
    pub fn map_values(&self, mut f: impl FnMut(Value) -> Value) -> Instance {
        let mut out = Instance::new();
        let mut buf: Vec<Value> = Vec::new();
        for (rel, data) in self.relations() {
            for t in data.tuples() {
                buf.clear();
                buf.extend(t.iter().map(|&v| f(v)));
                out.insert_args(rel, &buf);
            }
        }
        out
    }

    /// Set union of two instances.
    pub fn union(&self, other: &Instance) -> Instance {
        let mut out = self.clone();
        for (rel, data) in other.relations() {
            out.extend_rows(rel, data, |_| true);
        }
        out
    }

    /// Set intersection of two instances.
    pub fn intersection(&self, other: &Instance) -> Instance {
        let mut out = Instance::new();
        for (rel, data) in self.relations() {
            if let Some(o) = other.relation(rel) {
                out.extend_rows(rel, data, |t| o.contains(t));
            }
        }
        out
    }

    /// Set difference `self ∖ other`.
    pub fn difference(&self, other: &Instance) -> Instance {
        let mut out = Instance::new();
        for (rel, data) in self.relations() {
            let o = other.relation(rel);
            out.extend_rows(rel, data, |t| !o.is_some_and(|o| o.contains(t)));
        }
        out
    }

    /// Is every fact of `self` a fact of `other`?
    pub fn is_subset_of(&self, other: &Instance) -> bool {
        self.relations().all(|(rel, data)| {
            other.relation(rel).is_some_and(|o| data.tuples().all(|t| o.contains(t)))
        })
    }

    /// An order-independent hash of the facts over `rels`, consistent
    /// with [`Instance::same_facts_over`]: instances that agree on those
    /// relations get equal fingerprints. Used to group instances that a
    /// query reading only `rels` cannot tell apart.
    pub fn fingerprint_over(&self, rels: &[RelId]) -> u64 {
        rels.iter()
            .filter_map(|&r| self.relation(r).map(|d| d.fact_hash_sum(r)))
            .fold(0u64, u64::wrapping_add)
    }

    /// Do `self` and `other` hold the same facts over `rels`? Compared
    /// relation by relation on the dedup indexes, without copying facts.
    pub fn same_facts_over(&self, other: &Instance, rels: &[RelId]) -> bool {
        rels.iter().all(|&r| match (self.relation(r), other.relation(r)) {
            (None, None) => true,
            (Some(a), Some(b)) => a.same_tuples(b),
            _ => false,
        })
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
        for (rel, data) in self.relations() {
            out.extend_rows(rel, data, |t| rel != fact.relation() || t != fact.args());
        }
        out
    }

    /// The sub-instance of facts that do **not** mention any value in
    /// `values` (used by core computation to drop a null's facts).
    pub fn without_values(&self, values: &FxHashSet<Value>) -> Instance {
        let mut out = Instance::new();
        for (rel, data) in self.relations() {
            out.extend_rows(rel, data, |t| !t.iter().any(|v| values.contains(v)));
        }
        out
    }
}

impl PartialEq for Instance {
    /// Set equality of facts.
    fn eq(&self, other: &Self) -> bool {
        // Equal counts and every non-empty relation of `self` equal in
        // `other` leave `other` no room for further facts.
        self.fact_count == other.fact_count
            && self.relations().all(|(r, d)| other.relation(r).is_some_and(|o| d.same_tuples(o)))
    }
}

impl Eq for Instance {}

impl Hash for Instance {
    /// Order-independent hash (sum of per-fact hashes), consistent with
    /// the set-equality `PartialEq`.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let acc = self.relations().fold(0u64, |acc, (r, d)| acc.wrapping_add(d.fact_hash_sum(r)));
        state.write_u64(acc);
        state.write_usize(self.fact_count);
    }
}

impl FromIterator<Fact> for Instance {
    fn from_iter<T: IntoIterator<Item = Fact>>(iter: T) -> Self {
        let mut inst = Instance::new();
        for f in iter {
            inst.insert_args(f.relation(), f.args());
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
        // A relation emptied by removal is no relation at all.
        b.remove_fact(&fact(0, &[c(2)]));
        b.insert(fact(1, &[c(0)]));
        b.remove_fact(&fact(1, &[c(0)]));
        assert_eq!(a, b);
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn facts_over_a_relation_subset_compare_and_fingerprint_alike() {
        let mut a = Instance::new();
        a.insert(fact(0, &[c(0), n(0)]));
        a.insert(fact(0, &[c(1), c(1)]));
        a.insert(fact(1, &[c(5)]));
        let mut b = Instance::new();
        b.insert(fact(0, &[c(1), c(1)]));
        b.insert(fact(0, &[c(0), n(0)]));
        b.insert(fact(2, &[c(7)]));
        let r0 = [RelId(0)];
        assert!(a.same_facts_over(&b, &r0));
        assert_eq!(a.fingerprint_over(&r0), b.fingerprint_over(&r0));
        let r01 = [RelId(0), RelId(1)];
        assert!(!a.same_facts_over(&b, &r01), "R1 is empty in b");
        assert!(a.same_facts_over(&b, &[RelId(3)]), "both empty");
        assert!(a.same_facts_over(&b, &[]));
        b.insert(fact(0, &[c(2), c(2)]));
        assert!(!a.same_facts_over(&b, &r0));
        // Over every relation, the fingerprint is the instance hash's
        // fact sum, so `Hash` and the subset fingerprint agree.
        let all = [RelId(0), RelId(1), RelId(2)];
        let sum = a.facts().fold(0u64, |acc, f| {
            let mut h = FxHasher::default();
            f.hash(&mut h);
            acc.wrapping_add(h.finish())
        });
        assert_eq!(a.fingerprint_over(&all), sum);
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

    /// Rebuild fact by fact, the way every copy used to be made.
    fn rebuild<'a>(facts: impl IntoIterator<Item = &'a Fact>) -> Instance {
        let mut out = Instance::new();
        for f in facts {
            out.insert(f.clone());
        }
        out
    }

    /// Same relations, same rows in the same order, same indexes and the
    /// same null offset.
    fn assert_same_layout(got: &Instance, want: &Instance, what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: fact count");
        assert_eq!(got.null_offset(), want.null_offset(), "{what}: null offset");
        let rels = |i: &Instance| i.relations().map(|(r, _)| r).collect::<Vec<_>>();
        assert_eq!(rels(got), rels(want), "{what}: relations");
        for (rel, w) in want.relations() {
            let g = got.relation(rel).unwrap();
            assert!(g.tuples().eq(w.tuples()), "{what}: row order of {rel:?}");
            for col in 0..w.arity() {
                for t in w.tuples() {
                    assert_eq!(g.rows_with(col, &t[col]), w.rows_with(col, &t[col]), "{what}");
                }
            }
        }
    }

    #[test]
    fn row_copies_equal_fact_by_fact_rebuilds() {
        let mut a = Instance::new();
        for f in [
            fact(0, &[c(0), n(3)]),
            fact(0, &[c(1), c(2)]),
            fact(1, &[n(7)]),
            fact(0, &[n(1), c(0)]),
            fact(2, &[c(4), c(4), n(2)]),
            fact(1, &[c(5)]),
            fact(0, &[c(2), c(2)]),
        ] {
            a.insert(f);
        }
        // A removal reorders rows: copies must keep the current order.
        a.remove_fact(&fact(0, &[c(1), c(2)]));
        let mut b = Instance::new();
        b.insert(fact(0, &[c(2), c(2)]));
        b.insert(fact(1, &[n(7)]));
        b.insert(fact(2, &[c(9), c(9), c(9)]));
        let facts: Vec<Fact> = a.facts().collect();
        let schema = Schema::from_relations([RelId(0), RelId(2)]);
        let gone = fact(1, &[n(7)]);
        let mut kill = FxHashSet::default();
        kill.insert(n(3));
        let rename = |v: Value| if v == n(1) { c(0) } else { v };
        let cases = [
            (
                "restrict_to",
                a.restrict_to(&schema),
                rebuild(facts.iter().filter(|f| schema.contains(f.relation()))),
            ),
            ("intersection", a.intersection(&b), rebuild(facts.iter().filter(|f| b.contains(f)))),
            ("difference", a.difference(&b), rebuild(facts.iter().filter(|f| !b.contains(f)))),
            ("without_fact", a.without_fact(&gone), rebuild(facts.iter().filter(|f| **f != gone))),
            (
                "without_values",
                a.without_values(&kill),
                rebuild(facts.iter().filter(|f| !f.args().iter().any(|v| kill.contains(v)))),
            ),
            (
                "map_values",
                a.map_values(rename),
                rebuild(&facts.iter().map(|f| f.map_values(rename)).collect::<Vec<_>>()),
            ),
            ("from_iter", facts.iter().cloned().collect(), rebuild(&facts)),
            (
                "union",
                a.union(&b),
                rebuild(facts.iter().chain(b.facts().collect::<Vec<_>>().iter())),
            ),
        ];
        for (what, got, want) in &cases {
            assert_same_layout(got, want, what);
        }
        assert_eq!(a.restrict_to(&schema).null_offset(), 4, "recomputed on the kept rows");
        assert!(a.intersection(&b).is_subset_of(&b) && !a.is_subset_of(&b));
    }

    #[test]
    fn from_iterator_collects() {
        let i: Instance =
            vec![fact(0, &[c(0)]), fact(0, &[c(0)]), fact(1, &[c(1)])].into_iter().collect();
        assert_eq!(i.len(), 2);
    }
}

//! Flat, deduplicated row storage.

use std::hash::Hasher;

use crate::fx::FxHasher;
use crate::value::Value;

/// An empty table slot.
const EMPTY: u32 = u32::MAX;

/// A set of rows of one fixed width, stored back to back in a single
/// `Vec<Value>` and deduplicated by an open-addressing table of `u32`
/// row ids (linear probing, homed by the high bits of the row's hash).
///
/// Row ids are dense `0..len()` in insertion order: inserting appends,
/// and [`Self::swap_remove`] moves the last row into the freed id. A
/// row is stored once — the table holds ids, not copies — so inserting
/// a new row costs no allocation beyond amortized growth of the two
/// vectors. Relations store their tuples here, and the chase its
/// trigger keys (DESIGN.md §13.1).
#[derive(Debug, Clone, Default)]
pub struct RowSet {
    width: usize,
    len: u32,
    values: Vec<Value>,
    /// Row ids by slot; `EMPTY` marks a free slot. The length is zero or
    /// a power of two at least twice `len`.
    table: Vec<u32>,
}

impl RowSet {
    /// An empty set of rows with `width` values each.
    pub fn new(width: usize) -> Self {
        RowSet { width, ..RowSet::default() }
    }

    /// Values per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The row with id `id` (`id < len()`).
    #[inline]
    pub fn row(&self, id: u32) -> &[Value] {
        let start = id as usize * self.width;
        &self.values[start..start + self.width]
    }

    /// All rows, in id order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Value]> + '_ {
        (0..self.len).map(|id| self.row(id))
    }

    /// The id of `row`, if present.
    pub fn find(&self, row: &[Value]) -> Option<u32> {
        if row.len() != self.width {
            return None;
        }
        self.probe(row).ok().map(|slot| self.table[slot])
    }

    /// Insert `row`: its id, and whether it was new. Panics if the row's
    /// width is not the set's.
    pub fn insert(&mut self, row: &[Value]) -> (u32, bool) {
        assert_eq!(row.len(), self.width, "row width differs from the set's");
        let slot = match self.probe(row) {
            Ok(slot) => return (self.table[slot], false),
            Err(slot) if (self.len() + 1) * 2 <= self.table.len() => slot,
            Err(_) => {
                self.grow();
                self.free_slot(row)
            }
        };
        let id = self.len;
        assert!(id < EMPTY, "row set too large");
        self.values.extend_from_slice(row);
        self.table[slot] = id;
        self.len += 1;
        (id, true)
    }

    /// Remove row `id`; the last row takes its id. Panics if `id` is out
    /// of range.
    pub fn swap_remove(&mut self, id: u32) {
        assert!(id < self.len, "row id out of range");
        let slot = self.slot_of(id);
        self.delete_slot(slot);
        let last = self.len - 1;
        if id != last {
            let moved = self.slot_of(last);
            self.table[moved] = id;
            let w = self.width;
            let from = last as usize * w;
            self.values.copy_within(from..from + w, id as usize * w);
        }
        self.values.truncate(last as usize * self.width);
        self.len = last;
    }

    /// The home slot of a row: the high bits of its hash, which the
    /// hasher's final multiplication mixes best.
    #[inline]
    fn home(&self, row: &[Value]) -> usize {
        let mut h = FxHasher::default();
        for &v in row {
            h.write_u64(match v {
                Value::Const(c) => u64::from(c.0),
                Value::Null(n) => (1 << 32) | u64::from(n.0),
            });
        }
        let bits = self.table.len().trailing_zeros();
        (h.finish() >> (64 - bits)) as usize
    }

    #[inline]
    fn mask(&self) -> usize {
        self.table.len() - 1
    }

    /// `Ok(slot)` holding `row`, or `Err(slot)`: the free slot that ends
    /// its probe chain (`Err(0)` on an empty table).
    fn probe(&self, row: &[Value]) -> Result<usize, usize> {
        if self.table.is_empty() {
            return Err(0);
        }
        let mut slot = self.home(row);
        loop {
            match self.table[slot] {
                EMPTY => return Err(slot),
                id if self.row(id) == row => return Ok(slot),
                _ => slot = (slot + 1) & self.mask(),
            }
        }
    }

    /// The first free slot on `row`'s probe chain.
    fn free_slot(&self, row: &[Value]) -> usize {
        let mut slot = self.home(row);
        while self.table[slot] != EMPTY {
            slot = (slot + 1) & self.mask();
        }
        slot
    }

    /// The slot holding row id `id`.
    fn slot_of(&self, id: u32) -> usize {
        let mut slot = self.home(self.row(id));
        while self.table[slot] != id {
            slot = (slot + 1) & self.mask();
        }
        slot
    }

    /// Free `hole` by backward-shift deletion: every later entry of the
    /// probe run that may legally sit at the hole moves into it, so no
    /// chain is broken and no tombstone is needed.
    fn delete_slot(&mut self, mut hole: usize) {
        let mask = self.mask();
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let id = self.table[j];
            if id == EMPTY {
                break;
            }
            // The entry stays unless the hole lies cyclically between
            // its home and `j`: distances are taken modulo the table.
            let home = self.home(self.row(id));
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.table[hole] = id;
                hole = j;
            }
        }
        self.table[hole] = EMPTY;
    }

    /// Double the table (at least 8 slots) and re-place every row.
    fn grow(&mut self) {
        let capacity = (self.table.len() * 2).max(8);
        self.table.clear();
        self.table.resize(capacity, EMPTY);
        for id in 0..self.len {
            let slot = self.free_slot(self.row(id));
            self.table[slot] = id;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{ConstId, NullId};

    fn c(i: u32) -> Value {
        Value::Const(ConstId(i))
    }

    #[test]
    fn insert_find_and_dedup() {
        let mut s = RowSet::new(2);
        assert_eq!(s.find(&[c(0), c(1)]), None);
        assert_eq!(s.insert(&[c(0), c(1)]), (0, true));
        assert_eq!(s.insert(&[c(1), c(0)]), (1, true));
        assert_eq!(s.insert(&[c(0), c(1)]), (0, false));
        assert_eq!(s.len(), 2);
        assert_eq!(s.find(&[c(1), c(0)]), Some(1));
        assert_eq!(s.find(&[c(1)]), None, "a row of another width is absent");
        assert_eq!(s.row(1), &[c(1), c(0)]);
        let rows: Vec<&[Value]> = s.rows().collect();
        assert_eq!(rows, vec![&[c(0), c(1)][..], &[c(1), c(0)][..]]);
    }

    #[test]
    fn growth_keeps_every_row_findable() {
        let mut s = RowSet::new(1);
        for i in 0..1000 {
            assert_eq!(s.insert(&[c(i)]), (i, true));
        }
        for i in 0..1000 {
            assert_eq!(s.find(&[c(i)]), Some(i));
        }
        assert_eq!(s.find(&[Value::Null(NullId(0))]), None);
    }

    #[test]
    fn swap_remove_moves_the_last_row() {
        let mut s = RowSet::new(1);
        for i in 0..5 {
            s.insert(&[c(i)]);
        }
        s.swap_remove(1);
        assert_eq!(s.len(), 4);
        assert_eq!(s.row(1), &[c(4)]);
        assert_eq!(s.find(&[c(4)]), Some(1));
        assert_eq!(s.find(&[c(1)]), None);
        s.swap_remove(3);
        assert_eq!(s.find(&[c(3)]), None);
        for i in [0, 2, 4] {
            assert!(s.find(&[c(i)]).is_some());
        }
    }

    #[test]
    fn zero_width_holds_one_row() {
        let mut s = RowSet::new(0);
        assert_eq!(s.insert(&[]), (0, true));
        assert_eq!(s.insert(&[]), (0, false));
        assert_eq!(s.find(&[]), Some(0));
        s.swap_remove(0);
        assert!(s.is_empty());
        assert_eq!(s.find(&[]), None);
    }
}

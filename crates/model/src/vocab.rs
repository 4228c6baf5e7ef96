//! The vocabulary: interned constants, nulls, and relation symbols.

use std::sync::Arc;

use crate::fx::FxHashMap;
use crate::schema::RelId;
use crate::value::{ConstId, NullId, Value};
use crate::ModelError;

/// Symbol table shared by everything in a reverse-data-exchange session.
///
/// Relation symbols are interned *globally* (across source and target
/// schemas); a [`crate::Schema`] is a subset of them. This mirrors the
/// paper's convention of working over the combined schema `S ∪ T` during
/// the chase, and makes the replica-schema `Ŝ` construction (Section 2) a
/// plain second batch of relation symbols.
///
/// Fresh nulls are drawn from this table too, so the chase receives
/// `&mut Vocabulary` and null identity is consistent session-wide.
///
/// Each interned name is stored once: the id table and the name index
/// share one `Arc<str>`, so interning a new name allocates once and
/// cloning a vocabulary copies the tables but no name.
#[derive(Debug, Default, Clone)]
pub struct Vocabulary {
    constants: Vec<Arc<str>>,
    constant_ids: FxHashMap<Arc<str>, ConstId>,
    /// Null display names; `None` for anonymous (chase-invented) nulls.
    nulls: Vec<Option<Arc<str>>>,
    null_ids: FxHashMap<Arc<str>, NullId>,
    relations: Vec<RelationInfo>,
    relation_ids: FxHashMap<Arc<str>, RelId>,
}

#[derive(Debug, Clone)]
struct RelationInfo {
    name: Arc<str>,
    arity: usize,
}

impl Vocabulary {
    /// An empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a constant by name, returning its id (idempotent).
    pub fn constant(&mut self, name: &str) -> ConstId {
        if let Some(&id) = self.constant_ids.get(name) {
            return id;
        }
        let id = ConstId(u32::try_from(self.constants.len()).expect("constant table overflow"));
        let name: Arc<str> = Arc::from(name);
        self.constants.push(Arc::clone(&name));
        self.constant_ids.insert(name, id);
        id
    }

    /// Intern a constant and wrap it as a [`Value`].
    pub fn const_value(&mut self, name: &str) -> Value {
        Value::Const(self.constant(name))
    }

    /// Intern a *named* null (used by the parser for `?x` tokens).
    pub fn named_null(&mut self, name: &str) -> NullId {
        if let Some(&id) = self.null_ids.get(name) {
            return id;
        }
        let id = NullId(u32::try_from(self.nulls.len()).expect("null table overflow"));
        let name: Arc<str> = Arc::from(name);
        self.nulls.push(Some(Arc::clone(&name)));
        self.null_ids.insert(name, id);
        id
    }

    /// Intern a named null and wrap it as a [`Value`].
    pub fn null_value(&mut self, name: &str) -> Value {
        Value::Null(self.named_null(name))
    }

    /// Create a fresh anonymous null, distinct from every existing one.
    ///
    /// The chase calls this for each existential variable of each firing.
    pub fn fresh_null(&mut self) -> NullId {
        let id = NullId(u32::try_from(self.nulls.len()).expect("null table overflow"));
        self.nulls.push(None);
        id
    }

    /// Declare (or look up) a relation symbol with the given arity.
    ///
    /// Returns an error if the name is already interned with a different
    /// arity — relation symbols have fixed arity (Section 2).
    pub fn relation(&mut self, name: &str, arity: usize) -> Result<RelId, ModelError> {
        if let Some(&id) = self.relation_ids.get(name) {
            let existing = self.relations[id.0 as usize].arity;
            if existing != arity {
                return Err(ModelError::ArityConflict {
                    name: name.to_owned(),
                    existing,
                    requested: arity,
                });
            }
            return Ok(id);
        }
        let id = RelId(u32::try_from(self.relations.len()).expect("relation table overflow"));
        let name: Arc<str> = Arc::from(name);
        self.relations.push(RelationInfo { name: Arc::clone(&name), arity });
        self.relation_ids.insert(name, id);
        Ok(id)
    }

    /// Look up a relation symbol by name.
    pub fn find_relation(&self, name: &str) -> Option<RelId> {
        self.relation_ids.get(name).copied()
    }

    /// Look up a constant by name without interning.
    pub fn find_constant(&self, name: &str) -> Option<ConstId> {
        self.constant_ids.get(name).copied()
    }

    /// The arity of a relation symbol.
    pub fn arity(&self, rel: RelId) -> usize {
        self.relations[rel.0 as usize].arity
    }

    /// The name of a relation symbol.
    pub fn relation_name(&self, rel: RelId) -> &str {
        &self.relations[rel.0 as usize].name
    }

    /// The name of a constant.
    pub fn constant_name(&self, c: ConstId) -> &str {
        &self.constants[c.0 as usize]
    }

    /// The display name of a null: its parse name if any, else `?n<id>`.
    pub fn null_name(&self, n: NullId) -> String {
        match self.nulls.get(n.0 as usize) {
            Some(Some(name)) => format!("?{name}"),
            _ => format!("?n{}", n.0),
        }
    }

    /// A null's parse name without the `?`, if it has one.
    pub(crate) fn null_label(&self, n: NullId) -> Option<&str> {
        self.nulls.get(n.0 as usize)?.as_deref()
    }

    /// Render any value using this vocabulary's names, as the instance
    /// text writes it ([`crate::display::value`]): a constant that
    /// would not parse back bare is quoted.
    pub fn value_name(&self, v: Value) -> String {
        crate::display::value(self, v).to_string()
    }

    /// Number of interned relation symbols.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Number of interned constants.
    pub fn constant_count(&self) -> usize {
        self.constants.len()
    }

    /// Number of nulls created so far (named and anonymous).
    pub fn null_count(&self) -> usize {
        self.nulls.len()
    }

    /// Resynchronize the anonymous-null high-water mark to `count`,
    /// for resuming a chase from a checkpoint: a crashed run may have
    /// invented fresh nulls past the snapshot (roll them back), or a
    /// fresh process may not have invented them yet (roll forward).
    ///
    /// Returns `false` without changing anything if rolling back would
    /// drop a *named* null — named nulls are interned from user input
    /// and carry identity a checkpoint cannot recreate.
    pub fn resync_null_count(&mut self, count: usize) -> bool {
        if self.nulls.len() > count {
            if self.nulls[count..].iter().any(Option::is_some) {
                return false;
            }
            self.nulls.truncate(count);
        } else {
            self.nulls.resize(count, None);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_interned_idempotently() {
        let mut v = Vocabulary::new();
        let a1 = v.constant("a");
        let a2 = v.constant("a");
        let b = v.constant("b");
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(v.constant_name(a1), "a");
        assert_eq!(v.constant_count(), 2);
    }

    #[test]
    fn named_nulls_are_interned_and_fresh_nulls_are_distinct() {
        let mut v = Vocabulary::new();
        let x1 = v.named_null("x");
        let x2 = v.named_null("x");
        assert_eq!(x1, x2);
        let f1 = v.fresh_null();
        let f2 = v.fresh_null();
        assert_ne!(f1, f2);
        assert_ne!(f1, x1);
        assert_eq!(v.null_name(x1), "?x");
        assert_eq!(v.null_name(f1), format!("?n{}", f1.0));
        assert_eq!(v.null_count(), 3);
    }

    #[test]
    fn relation_arity_is_enforced() {
        let mut v = Vocabulary::new();
        let p = v.relation("P", 2).unwrap();
        assert_eq!(v.relation("P", 2).unwrap(), p);
        let err = v.relation("P", 3).unwrap_err();
        assert!(matches!(err, ModelError::ArityConflict { .. }));
        assert_eq!(v.arity(p), 2);
        assert_eq!(v.relation_name(p), "P");
        assert_eq!(v.find_relation("P"), Some(p));
        assert_eq!(v.find_relation("Q"), None);
    }

    #[test]
    fn value_name_uses_table() {
        let mut v = Vocabulary::new();
        let a = v.const_value("alice");
        let x = v.null_value("x");
        assert_eq!(v.value_name(a), "alice");
        assert_eq!(v.value_name(x), "?x");
    }
}

//! Vocabulary-aware rendering of values, facts and instances.
//!
//! The renderings round-trip through [`crate::parse`]: for any instance
//! `I`, `parse_instance(&render(I))` rebuilds `I` (up to null identity for
//! anonymous nulls, which are printed as `?n<id>` and re-interned by
//! name). A constant is written bare when it parses back bare, and in
//! single quotes otherwise (`'a, b'`); a name holding a quote or a
//! newline has no text form.

use std::fmt::{self, Write};

use crate::fact::Fact;
use crate::instance::Instance;
use crate::parse;
use crate::schema::RelId;
use crate::value::Value;
use crate::vocab::Vocabulary;

/// Displays a [`Value`] with its vocabulary name.
pub struct ValueDisplay<'a> {
    vocab: &'a Vocabulary,
    value: Value,
}

impl fmt::Display for ValueDisplay<'_> {
    /// The name of [`Vocabulary::value_name`], written straight into the
    /// formatter.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.value {
            Value::Const(c) => {
                let name = self.vocab.constant_name(c);
                if parse::is_bare_constant(name) {
                    f.write_str(name)
                } else {
                    write!(f, "'{name}'")
                }
            }
            Value::Null(n) => match self.vocab.null_label(n) {
                Some(name) => write!(f, "?{name}"),
                None => write!(f, "?n{}", n.0),
            },
        }
    }
}

/// Displays the fact `rel(args)` as `R(v₁, …, vₖ)`.
struct RowDisplay<'a> {
    vocab: &'a Vocabulary,
    rel: RelId,
    args: &'a [Value],
}

impl fmt::Display for RowDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.vocab.relation_name(self.rel))?;
        f.write_char('(')?;
        for (i, &v) in self.args.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            value(self.vocab, v).fmt(f)?;
        }
        f.write_char(')')
    }
}

/// Displays a [`Fact`] as `R(v₁, …, vₖ)`.
pub struct FactDisplay<'a> {
    vocab: &'a Vocabulary,
    fact: &'a Fact,
}

impl fmt::Display for FactDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        row(self.vocab, self.fact.relation(), self.fact.args()).fmt(f)
    }
}

/// Displays an [`Instance`] as one fact per line, in canonical order.
pub struct InstanceDisplay<'a> {
    vocab: &'a Vocabulary,
    instance: &'a Instance,
}

impl fmt::Display for InstanceDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (rel, args) in canonical_rows(self.instance) {
            writeln!(f, "{}", row(self.vocab, rel, args))?;
        }
        Ok(())
    }
}

fn row<'a>(vocab: &'a Vocabulary, rel: RelId, args: &'a [Value]) -> RowDisplay<'a> {
    RowDisplay { vocab, rel, args }
}

/// Every fact of `inst` as `(relation, tuple)` in canonical order — the
/// order of [`Instance::canonical_facts`] (relations by id, tuples
/// sorted within each) — read in place, one row-id vector per relation.
fn canonical_rows(inst: &Instance) -> impl Iterator<Item = (RelId, &[Value])> {
    inst.relations().flat_map(|(rel, data)| {
        let len = u32::try_from(data.len()).expect("relation too large");
        let mut ids: Vec<u32> = (0..len).collect();
        ids.sort_unstable_by(|&a, &b| data.row_slice(a).cmp(data.row_slice(b)));
        ids.into_iter().map(move |id| (rel, data.row_slice(id)))
    })
}

/// Render a value.
pub fn value<'a>(vocab: &'a Vocabulary, v: Value) -> ValueDisplay<'a> {
    ValueDisplay { vocab, value: v }
}

/// Render a fact.
pub fn fact<'a>(vocab: &'a Vocabulary, fact: &'a Fact) -> FactDisplay<'a> {
    FactDisplay { vocab, fact }
}

/// Render an instance (one fact per line, canonical order).
pub fn instance<'a>(vocab: &'a Vocabulary, instance: &'a Instance) -> InstanceDisplay<'a> {
    InstanceDisplay { vocab, instance }
}

/// The lines [`instance`] renders, one `String` per fact: each is
/// written into one reused buffer and copied out at its exact length.
pub fn fact_lines(vocab: &Vocabulary, inst: &Instance) -> Vec<String> {
    let mut lines = Vec::with_capacity(inst.len());
    let mut buf = String::new();
    for (rel, args) in canonical_rows(inst) {
        buf.clear();
        write!(buf, "{}", row(vocab, rel, args)).expect("writing to a String cannot fail");
        lines.push(buf.clone());
    }
    lines
}

/// Render an instance inline as `{f₁, f₂, …}` — convenient for messages.
pub fn instance_inline(vocab: &Vocabulary, inst: &Instance) -> String {
    let mut out = String::from("{");
    for (i, (rel, args)) in canonical_rows(inst).enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(out, "{}", row(vocab, rel, args)).expect("writing to a String cannot fail");
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    #[test]
    fn renders_facts_and_instances() {
        let mut v = Vocabulary::new();
        let s = Schema::declare(&mut v, &[("P", 2), ("Q", 1)]).unwrap();
        let p = s.relations()[0];
        let q = s.relations()[1];
        let a = v.const_value("a");
        let x = v.null_value("x");
        let f1 = Fact::new(p, vec![a, x]);
        let f2 = Fact::new(q, vec![a]);
        assert_eq!(fact(&v, &f1).to_string(), "P(a, ?x)");
        let mut i = Instance::new();
        i.insert(f1);
        i.insert(f2);
        let text = instance(&v, &i).to_string();
        assert!(text.contains("P(a, ?x)"));
        assert!(text.contains("Q(a)"));
        assert_eq!(instance_inline(&v, &i), "{P(a, ?x), Q(a)}");
    }

    #[test]
    fn anonymous_nulls_render_by_id() {
        let mut v = Vocabulary::new();
        let n = v.fresh_null();
        assert_eq!(value(&v, Value::Null(n)).to_string(), format!("?n{}", n.0));
    }

    #[test]
    fn empty_instance_renders_empty() {
        let v = Vocabulary::new();
        let i = Instance::new();
        assert_eq!(instance(&v, &i).to_string(), "");
        assert_eq!(instance_inline(&v, &i), "{}");
    }
}

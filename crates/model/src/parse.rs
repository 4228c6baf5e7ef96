//! Parsing the instance text format.
//!
//! Grammar (line oriented; `#` starts a comment; blank lines ignored):
//!
//! ```text
//! instance   := { fact-line }
//! fact-line  := relname "(" [ value { "," value } ] ")"
//! relname    := ident starting with a letter
//! value      := constant | null
//! constant   := ident | number | "'" chars "'"
//! null       := "?" ident
//! ```
//!
//! Relations must already be declared in the vocabulary **or** are
//! declared on first use with the arity observed (subsequent uses are
//! arity-checked). Constants and named nulls are interned on sight.

use crate::fact::Fact;
use crate::instance::Instance;
use crate::schema::RelId;
use crate::value::Value;
use crate::vocab::Vocabulary;
use crate::ModelError;

/// Parse an instance from its text form, interning symbols into `vocab`.
///
/// Each line's arguments are parsed into one reused buffer and inserted
/// with [`Instance::insert_args`]: no [`Fact`] and no per-line vector.
pub fn parse_instance(vocab: &mut Vocabulary, text: &str) -> Result<Instance, ModelError> {
    let mut instance = Instance::new();
    let mut args = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let rel = parse_fact_line(vocab, line, lineno + 1, &mut args)?;
        instance.insert_args(rel, &args);
    }
    Ok(instance)
}

/// Parse a single fact like `P(a, ?x, 'hello world')`.
pub fn parse_fact(vocab: &mut Vocabulary, line: &str) -> Result<Fact, ModelError> {
    let mut args = Vec::new();
    let rel = parse_fact_line(vocab, strip_comment(line).trim(), 1, &mut args)?;
    Ok(Fact::new(rel, args))
}

/// `#` starts a comment — but only outside quoted constants.
fn strip_comment(line: &str) -> &str {
    let mut in_quote = false;
    for (i, c) in line.char_indices() {
        match c {
            '\'' => in_quote = !in_quote,
            '#' if !in_quote => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parse one fact line into its relation and `args` (cleared first).
fn parse_fact_line(
    vocab: &mut Vocabulary,
    line: &str,
    lineno: usize,
    args: &mut Vec<Value>,
) -> Result<RelId, ModelError> {
    let err = |message: String| ModelError::Parse { line: lineno, message };
    let open = line.find('(').ok_or_else(|| err("expected `(` after relation name".into()))?;
    let name = line[..open].trim();
    if !name.chars().next().is_some_and(char::is_alphabetic) {
        return Err(err(format!("invalid relation name `{name}`")));
    }
    if !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return Err(err(format!("invalid relation name `{name}`")));
    }
    let rest = line[open + 1..].trim_end();
    let close = rest.rfind(')').ok_or_else(|| err("expected closing `)`".into()))?;
    if !rest[close + 1..].trim().is_empty() {
        return Err(err(format!("unexpected trailing input `{}`", &rest[close + 1..])));
    }
    let args_src = rest[..close].trim();
    args.clear();
    if !args_src.is_empty() {
        for part in split_args(args_src) {
            args.push(parse_value(vocab, part.trim(), lineno)?);
        }
    }
    vocab.relation(name, args.len()).map_err(|e| match e {
        ModelError::ArityConflict { name, existing, requested } => ModelError::Parse {
            line: lineno,
            message: format!(
                "relation `{name}` has arity {existing}, found {requested} argument(s)"
            ),
        },
        other => other,
    })
}

/// The pieces of `src` between commas that are not inside single
/// quotes.
fn split_args(src: &str) -> impl Iterator<Item = &str> {
    let mut rest = Some(src);
    std::iter::from_fn(move || {
        let s = rest?;
        let mut in_quote = false;
        for (i, ch) in s.char_indices() {
            match ch {
                '\'' => in_quote = !in_quote,
                ',' if !in_quote => {
                    rest = Some(&s[i + 1..]);
                    return Some(&s[..i]);
                }
                _ => {}
            }
        }
        rest = None;
        Some(s)
    })
}

/// Parse one value token: `?x` (null), `'quoted constant'`, or a bare
/// identifier/number constant.
pub fn parse_value(
    vocab: &mut Vocabulary,
    token: &str,
    lineno: usize,
) -> Result<Value, ModelError> {
    let err = |message: String| ModelError::Parse { line: lineno, message };
    if token.is_empty() {
        return Err(err("empty value".into()));
    }
    if let Some(name) = token.strip_prefix('?') {
        if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
            return Err(err(format!("invalid null name `{token}`")));
        }
        return Ok(Value::Null(vocab.named_null(name)));
    }
    if let Some(stripped) = token.strip_prefix('\'') {
        let inner = stripped
            .strip_suffix('\'')
            .ok_or_else(|| err(format!("unterminated quote in `{token}`")))?;
        // The comma/comment scanners toggle on every `'`, so a quote
        // inside the quotes (as in `'''`) is always mismatched nesting.
        if inner.contains('\'') {
            return Err(err(format!("stray quote in `{token}`")));
        }
        return Ok(Value::Const(vocab.constant(inner)));
    }
    if is_bare_constant(token) {
        return Ok(Value::Const(vocab.constant(token)));
    }
    Err(err(format!("invalid value token `{token}`")))
}

/// Does `name` parse back, unquoted, as the constant `name`? The
/// renderer quotes every constant name that does not.
pub(crate) fn is_bare_constant(name: &str) -> bool {
    !name.is_empty() && name.chars().all(|c| c.is_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::display;

    #[test]
    fn parses_a_small_instance() {
        let mut v = Vocabulary::new();
        let text = "\n# the running example\nP(a, b, c)\nQ(a, ?x)\nQ(b, ?x)  # shared null\n";
        let i = parse_instance(&mut v, text).unwrap();
        assert_eq!(i.len(), 3);
        let p = v.find_relation("P").unwrap();
        assert_eq!(v.arity(p), 3);
        // The two Q facts share the same named null.
        assert_eq!(i.nulls().len(), 1);
    }

    #[test]
    fn quoted_constants_may_contain_commas_and_spaces() {
        let mut v = Vocabulary::new();
        let i = parse_instance(&mut v, "R('hello, world', plain)").unwrap();
        assert_eq!(i.len(), 1);
        assert!(v.find_constant("hello, world").is_some());
        assert!(v.find_constant("plain").is_some());
    }

    #[test]
    fn zero_arity_facts_parse() {
        let mut v = Vocabulary::new();
        let i = parse_instance(&mut v, "Flag()").unwrap();
        assert_eq!(i.len(), 1);
        assert_eq!(v.arity(v.find_relation("Flag").unwrap()), 0);
    }

    #[test]
    fn arity_conflicts_are_reported_with_line_numbers() {
        let mut v = Vocabulary::new();
        let err = parse_instance(&mut v, "P(a)\nP(a, b)").unwrap_err();
        match err {
            ModelError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("arity"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        let mut v = Vocabulary::new();
        assert!(parse_instance(&mut v, "P(a").is_err());
        assert!(parse_instance(&mut v, "P a)").is_err());
        assert!(parse_instance(&mut v, "P(a) extra").is_err());
        assert!(parse_instance(&mut v, "1P(a)").is_err());
        assert!(parse_instance(&mut v, "P(?)").is_err());
        assert!(parse_instance(&mut v, "P('oops)").is_err());
        assert!(parse_instance(&mut v, "P(a-b)").is_err());
    }

    #[test]
    fn display_roundtrip() {
        let mut v = Vocabulary::new();
        let text = "P(a, ?x)\nP(?x, b)\nQ(c)\n";
        let i = parse_instance(&mut v, text).unwrap();
        let rendered = display::instance(&v, &i).to_string();
        let mut v2 = Vocabulary::new();
        let j = parse_instance(&mut v2, &rendered).unwrap();
        assert_eq!(j.len(), i.len());
        // Same canonical shape after re-parse in a fresh vocabulary.
        assert_eq!(display::instance(&v2, &j).to_string(), rendered);
    }
}

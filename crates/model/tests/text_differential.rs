//! Differential tests of the instance text path against small
//! reference implementations kept here as oracles: the renderer against
//! one `Fact` per fact from `canonical_facts` and one `String` per value
//! (a constant quoted unless it is a bare token), and the parser against
//! one that splits each line into a `Vec` of argument strings and builds
//! a `Fact` per line.

use proptest::prelude::*;
use rde_model::parse::{parse_instance, parse_value};
use rde_model::{display, Fact, Instance, ModelError, Value, Vocabulary};

/// The reference rendering: canonical facts, a constant's name quoted
/// unless it is a bare token, nulls through `value_name`.
fn render_oracle(vocab: &Vocabulary, inst: &Instance) -> Vec<String> {
    let name = |v: Value| match v {
        Value::Const(c) => {
            let name = vocab.constant_name(c);
            if !name.is_empty() && name.chars().all(|c| c.is_alphanumeric() || c == '_') {
                name.to_owned()
            } else {
                format!("'{name}'")
            }
        }
        Value::Null(_) => vocab.value_name(v),
    };
    inst.canonical_facts()
        .iter()
        .map(|f| {
            let args: Vec<String> = f.args().iter().map(|&v| name(v)).collect();
            format!("{}({})", vocab.relation_name(f.relation()), args.join(", "))
        })
        .collect()
}

/// The reference parser: a `split_args` vector and a `Fact` per line.
fn parse_oracle(vocab: &mut Vocabulary, text: &str) -> Result<Instance, ModelError> {
    let mut instance = Instance::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if !line.is_empty() {
            instance.insert(parse_fact_line(vocab, line, lineno + 1)?);
        }
    }
    Ok(instance)
}

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

fn parse_fact_line(vocab: &mut Vocabulary, line: &str, lineno: usize) -> Result<Fact, ModelError> {
    let err = |message: String| ModelError::Parse { line: lineno, message };
    let open = line.find('(').ok_or_else(|| err("expected `(` after relation name".into()))?;
    let name = line[..open].trim();
    if !name.chars().next().is_some_and(char::is_alphabetic)
        || !name.chars().all(|c| c.is_alphanumeric() || c == '_')
    {
        return Err(err(format!("invalid relation name `{name}`")));
    }
    let rest = line[open + 1..].trim_end();
    let close = rest.rfind(')').ok_or_else(|| err("expected closing `)`".into()))?;
    if !rest[close + 1..].trim().is_empty() {
        return Err(err(format!("unexpected trailing input `{}`", &rest[close + 1..])));
    }
    let args_src = rest[..close].trim();
    let mut args = Vec::new();
    if !args_src.is_empty() {
        for part in split_args(args_src) {
            args.push(parse_value(vocab, part.trim(), lineno)?);
        }
    }
    let rel = vocab.relation(name, args.len()).map_err(|e| match e {
        ModelError::ArityConflict { name, existing, requested } => ModelError::Parse {
            line: lineno,
            message: format!(
                "relation `{name}` has arity {existing}, found {requested} argument(s)"
            ),
        },
        other => other,
    })?;
    Ok(Fact::new(rel, args))
}

fn split_args(src: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_quote = false;
    for (i, ch) in src.char_indices() {
        match ch {
            '\'' => in_quote = !in_quote,
            ',' if !in_quote => {
                parts.push(&src[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&src[start..]);
    parts
}

/// A generated fact: relation (arities 1, 2, 3, 0) and argument codes.
/// Code `0..4` is a constant, `4..8` a named null, `8..10` an anonymous
/// (chase-style) null, `10..14` a constant that must be quoted (`NEEDS_QUOTES`).
type GenFact = (u8, Vec<u8>);

fn gen_facts() -> impl Strategy<Value = Vec<GenFact>> {
    let fact = (0u8..4).prop_flat_map(|rel| {
        let arity = [1, 2, 3, 0][usize::from(rel)];
        (Just(rel), prop::collection::vec(0u8..14, arity))
    });
    prop::collection::vec(fact, 0..16)
}

/// Constant names that do not parse back bare: a comma, a space, the
/// empty name, and a comment sign, parentheses and padding.
const NEEDS_QUOTES: [&str; 4] = ["a, b", "a b", "", " f(x) #1 "];

fn build(vocab: &mut Vocabulary, facts: &[GenFact]) -> Instance {
    let rels = ["Ra", "Rb", "Rc", "Flag"]
        .iter()
        .zip([1, 2, 3, 0])
        .map(|(name, arity)| vocab.relation(name, arity).unwrap())
        .collect::<Vec<_>>();
    let anonymous: Vec<Value> = (0..2).map(|_| Value::Null(vocab.fresh_null())).collect();
    let mut inst = Instance::new();
    for (rel, codes) in facts {
        let args: Vec<Value> = codes
            .iter()
            .map(|&c| match c {
                0..=3 => vocab.const_value(&format!("c{c}")),
                4..=7 => vocab.null_value(&format!("x{c}")),
                8 | 9 => anonymous[usize::from(c - 8)],
                _ => vocab.const_value(NEEDS_QUOTES[usize::from(c - 10)]),
            })
            .collect();
        inst.insert(Fact::new(rels[usize::from(*rel)], args));
    }
    inst
}

/// Lines built from fragments of valid and broken syntax.
fn gen_text() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(0u8..FRAGMENTS.len() as u8, 0..10), 0..6)
}

const FRAGMENTS: &[&str] = &[
    "P", "Q", "(", ")", ", ", ",", " ", "a", "b1", "?x", "?", "'q, r'", "'", "#", "-", "P(a)",
    "Q(a, ?y)", "()", "_z",
];

fn text_of(lines: &[Vec<u8>]) -> String {
    let lines: Vec<String> = lines
        .iter()
        .map(|line| line.iter().map(|&k| FRAGMENTS[usize::from(k)]).collect())
        .collect();
    lines.join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `display::instance`, `fact_lines` and `instance_inline` render
    /// exactly what the reference renders, and the text re-parses to
    /// the same instance up to the renaming of anonymous nulls.
    #[test]
    fn rendering_matches_the_reference(facts in gen_facts()) {
        let mut vocab = Vocabulary::new();
        let inst = build(&mut vocab, &facts);
        let want = render_oracle(&vocab, &inst);
        let text = display::instance(&vocab, &inst).to_string();
        let expected: String = want.iter().map(|l| format!("{l}\n")).collect();
        prop_assert_eq!(&text, &expected);
        prop_assert_eq!(display::fact_lines(&vocab, &inst), want.clone());
        prop_assert_eq!(display::instance_inline(&vocab, &inst), format!("{{{}}}", want.join(", ")));
        for f in inst.facts() {
            let args: Vec<String> = f.args().iter().map(|&v| display::value(&vocab, v).to_string()).collect();
            let names: Vec<String> = f.args().iter().map(|&v| vocab.value_name(v)).collect();
            prop_assert_eq!(args, names);
        }
        // parse(render(I)): named nulls keep their names and anonymous
        // ones come back as named nulls `?n<id>`, so a fresh vocabulary
        // renders the same lines (in its own id order), and the instance
        // is equal once no anonymous null occurs. Constants that need
        // quotes are written quoted, so they round-trip too.
        let has = |code: &dyn Fn(u8) -> bool| facts.iter().any(|(_, cs)| cs.iter().any(|&c| code(c)));
        let mut fresh = Vocabulary::new();
        let reparsed = parse_instance(&mut fresh, &text).unwrap();
        let sorted = |lines: Vec<String>| {
            let mut lines = lines;
            lines.sort();
            lines
        };
        prop_assert_eq!(sorted(display::fact_lines(&fresh, &reparsed)), sorted(want));
        let again = parse_instance(&mut vocab, &text).unwrap();
        if !has(&|c| matches!(c, 8 | 9)) {
            prop_assert_eq!(again, inst);
        }
    }

    /// The parser accepts and rejects what the reference does, with the
    /// same instance, the same interned symbols and the same error text
    /// and line number.
    #[test]
    fn parsing_matches_the_reference(lines in gen_text()) {
        let text = text_of(&lines);
        let (mut v1, mut v2) = (Vocabulary::new(), Vocabulary::new());
        let got = parse_instance(&mut v1, &text);
        let want = parse_oracle(&mut v2, &text);
        match (&got, &want) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "{:?}", text),
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string(), "{:?}", text),
            _ => prop_assert!(false, "{:?}: parser {:?}, reference {:?}", text, got, want),
        }
        prop_assert_eq!(v1.relation_count(), v2.relation_count());
        prop_assert_eq!(v1.constant_count(), v2.constant_count());
        prop_assert_eq!(v1.null_count(), v2.null_count());
    }
}

/// Every line of the malformed-input corpus fails with the reference's
/// exact message.
#[test]
fn parse_errors_match_the_reference_verbatim() {
    for input in [
        "P(a",
        "P a)",
        "P(a))",
        "P(a) trailing",
        "(a, b)",
        "1P(a)",
        "Ok(a)\nP(",
        "P(a,)",
        "P(,a)",
        "P(?)",
        "P(??x)",
        "P('unterminated)",
        "P(a-b)",
        "P(a b)",
        "P(a)\nP(a, b)",
        "P(''')",
    ] {
        let got = parse_instance(&mut Vocabulary::new(), input).unwrap_err().to_string();
        let want = parse_oracle(&mut Vocabulary::new(), input).unwrap_err().to_string();
        assert_eq!(got, want, "{input:?}");
    }
}

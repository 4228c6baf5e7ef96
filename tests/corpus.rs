//! Golden corpus: the paper's worked examples as fixtures with pinned
//! verdicts, run by one data-driven test.
//!
//! Every `tests/corpus/*.corpus` file names a check, a bounded
//! universe, one or two mappings, and the expected verdict (with exact
//! numeric pins where the check produces counts). The single test
//! below loads the whole directory and replays each fixture against
//! the real engines, so a behavioural regression in the chase, the
//! homomorphism search, the quasi-inverse algorithm, or the census
//! shows up as a named fixture diff — not as a silent drift.
//!
//! Fixture grammar (line-oriented):
//!
//! ```text
//! # comment
//! check: loss | homomorphism-property | max-extended-recovery
//!        | ground-inverse | compare | analyze
//! universe: CONSTS NULLS FACTS
//! expect: VERDICT [key=value ...]
//! mapping:
//! <mapping text>
//! end
//! mapping2:          (required by ground-inverse and compare)
//! <mapping text>
//! end
//! ```

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use rde_hom::{HomConfig, HomStats};
use rde_model::Vocabulary;
use reverse_data_exchange::core::invertibility::{check_homomorphism_property, BoundedVerdict};
use reverse_data_exchange::core::quasi_inverse::maximum_extended_recovery_full;
use reverse_data_exchange::core::{compare, ground, loss, recovery, Universe};
use reverse_data_exchange::prelude::*;

/// One parsed fixture.
struct Fixture {
    name: String,
    check: String,
    universe: (usize, usize, usize),
    verdict: String,
    pins: BTreeMap<String, u64>,
    mapping: String,
    mapping2: Option<String>,
}

fn parse_fixture(path: &Path) -> Fixture {
    let name = path.file_stem().unwrap().to_string_lossy().into_owned();
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut check = None;
    let mut universe = None;
    let mut expect = None;
    let mut blocks: BTreeMap<String, String> = BTreeMap::new();
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(block) = line.strip_suffix(':').filter(|b| b.starts_with("mapping")) {
            let mut body = String::new();
            loop {
                let inner = lines.next().unwrap_or_else(|| panic!("{name}: unterminated {block}"));
                if inner.trim() == "end" {
                    break;
                }
                body.push_str(inner);
                body.push('\n');
            }
            blocks.insert(block.to_owned(), body);
        } else if let Some(v) = line.strip_prefix("check:") {
            check = Some(v.trim().to_owned());
        } else if let Some(v) = line.strip_prefix("universe:") {
            let dims: Vec<usize> = v.split_whitespace().map(|n| n.parse().unwrap()).collect();
            assert_eq!(dims.len(), 3, "{name}: universe wants CONSTS NULLS FACTS");
            universe = Some((dims[0], dims[1], dims[2]));
        } else if let Some(v) = line.strip_prefix("expect:") {
            expect = Some(v.trim().to_owned());
        } else {
            panic!("{name}: unrecognised line {line:?}");
        }
    }
    let expect = expect.unwrap_or_else(|| panic!("{name}: missing expect:"));
    let mut tokens = expect.split_whitespace();
    let verdict = tokens.next().unwrap_or_else(|| panic!("{name}: empty expect:")).to_owned();
    let mut pins = BTreeMap::new();
    for token in tokens {
        let (key, value) = token
            .split_once('=')
            .unwrap_or_else(|| panic!("{name}: expect token {token:?} is not key=value"));
        pins.insert(key.to_owned(), value.parse().unwrap());
    }
    Fixture {
        check: check.unwrap_or_else(|| panic!("{name}: missing check:")),
        universe: universe.unwrap_or_else(|| panic!("{name}: missing universe:")),
        verdict,
        pins,
        mapping: blocks.remove("mapping").unwrap_or_else(|| panic!("{name}: missing mapping:")),
        mapping2: blocks.remove("mapping2"),
        name,
    }
}

impl Fixture {
    fn pin(&self, key: &str, actual: u64) {
        if let Some(&expected) = self.pins.get(key) {
            assert_eq!(actual, expected, "{}: pinned {key} diverged", self.name);
        }
    }

    fn second_mapping(&self, vocab: &mut Vocabulary) -> SchemaMapping {
        let text = self
            .mapping2
            .as_deref()
            .unwrap_or_else(|| panic!("{}: check {} needs mapping2:", self.name, self.check));
        parse_mapping(vocab, text).unwrap_or_else(|e| panic!("{}: mapping2: {e}", self.name))
    }

    /// The teeth behind an `unproven` analyze verdict: actually chase
    /// the mapping, under every variant, on a one-fact-per-source-
    /// relation seed, and demand the typed round-budget error — fast.
    /// A hang here (instead of `RoundBudgetExhausted`) is exactly the
    /// bug the static analyzer exists to keep out of `rde serve`.
    fn nonterminating_chase_is_typed(&self, m: &SchemaMapping, vocab: &mut Vocabulary) {
        use reverse_data_exchange::chase::{chase, ChaseError, ChaseOptions, ChaseVariant};
        let seed: Instance = m
            .source
            .relations()
            .to_vec()
            .iter()
            .enumerate()
            .map(|(i, &rel)| {
                let args: Vec<Value> = (0..vocab.arity(rel))
                    .map(|j| vocab.const_value(&format!("c{i}_{j}")))
                    .collect();
                Fact::new(rel, args)
            })
            .collect();
        let start = std::time::Instant::now();
        for variant in ChaseVariant::ALL {
            let options = ChaseOptions { max_rounds: 6, ..ChaseOptions::for_variant(variant) };
            let err = chase(&seed, &m.dependencies, vocab, &options).unwrap_err();
            assert!(
                matches!(err, ChaseError::RoundBudgetExhausted { rounds: 6 }),
                "{}: {} chase must hit the round budget typed, got {err:?}",
                self.name,
                variant.name(),
            );
        }
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "{}: budgeted chases of a non-terminating mapping must return promptly",
            self.name
        );
    }

    fn run(&self) {
        let mut vocab = Vocabulary::new();
        let m = parse_mapping(&mut vocab, &self.mapping)
            .unwrap_or_else(|e| panic!("{}: mapping: {e}", self.name));
        let (consts, nulls, facts) = self.universe;
        let universe = Universe::new(&mut vocab, consts, nulls, facts);
        match self.check.as_str() {
            "loss" => {
                let report = loss::information_loss(
                    &m,
                    &universe,
                    &mut vocab,
                    0,
                    &HomConfig::default(),
                    &mut HomStats::default(),
                )
                .unwrap_or_else(|e| panic!("{}: {e}", self.name));
                let word = if report.lost_pairs == 0 { "lossless" } else { "lossy" };
                assert_eq!(word, self.verdict, "{}: loss verdict", self.name);
                self.pin("lost_pairs", report.lost_pairs as u64);
                self.pin("arrow_m", report.arrow_m_pairs as u64);
                self.pin("hom", report.hom_pairs as u64);
                self.pin("universe_size", report.universe_size as u64);
            }
            "homomorphism-property" => {
                let verdict = check_homomorphism_property(&m, &universe, &mut vocab)
                    .unwrap_or_else(|e| panic!("{}: {e}", self.name));
                let word = match verdict {
                    BoundedVerdict::HoldsWithinBound => "holds",
                    BoundedVerdict::Counterexample { .. } => "counterexample",
                    other => panic!("{}: unbudgeted check returned {other:?}", self.name),
                };
                assert_eq!(word, self.verdict, "{}: invertibility verdict", self.name);
            }
            "max-extended-recovery" => {
                let rec = maximum_extended_recovery_full(&m, &mut vocab, &HomConfig::default())
                    .unwrap_or_else(|e| panic!("{}: {e}", self.name));
                self.pin("rules", rec.dependencies.len() as u64);
                let disjuncts: usize = rec.dependencies.iter().map(|d| d.disjuncts.len()).sum();
                self.pin("disjuncts", disjuncts as u64);
                let verdict = recovery::check_maximum_extended_recovery(
                    &m,
                    &rec,
                    &universe,
                    &mut vocab,
                    &HomConfig::default(),
                    &mut HomStats::default(),
                )
                .unwrap_or_else(|e| panic!("{}: {e}", self.name));
                assert_eq!(self.verdict, "holds", "{}: only `holds` is expressible", self.name);
                assert!(verdict.holds(), "{}: Theorem 4.13 refuted: {verdict:?}", self.name);
            }
            "ground-inverse" => {
                let m2 = self.second_mapping(&mut vocab);
                let verdict = ground::check_inverse(
                    &m,
                    &m2,
                    &universe,
                    &mut vocab,
                    &HomConfig::default(),
                    &mut HomStats::default(),
                )
                .unwrap_or_else(|e| panic!("{}: {e}", self.name));
                let word = if verdict.holds() { "holds" } else { "counterexample" };
                assert_eq!(word, self.verdict, "{}: ground inverse verdict", self.name);
            }
            "compare" => {
                let m2 = self.second_mapping(&mut vocab);
                let verdict = compare::compare_lossiness(
                    &m,
                    &m2,
                    &universe,
                    &mut vocab,
                    &HomConfig::default(),
                    &mut HomStats::default(),
                )
                .unwrap_or_else(|e| panic!("{}: {e}", self.name));
                let word = match verdict {
                    compare::Comparison::EquallyLossy => "equally-lossy",
                    compare::Comparison::StrictlyLessLossy => "less-lossy",
                    compare::Comparison::StrictlyMoreLossy => "more-lossy",
                    compare::Comparison::Incomparable { .. } => "incomparable",
                    other => panic!("{}: unbudgeted compare returned {other:?}", self.name),
                };
                assert_eq!(word, self.verdict, "{}: comparison verdict", self.name);
            }
            "analyze" => {
                let ctx = reverse_data_exchange::faults::ExecContext::new();
                let report = reverse_data_exchange::deps::analyze_mapping(&m, &ctx)
                    .unwrap_or_else(|e| panic!("{}: {e}", self.name));
                assert_eq!(report.verdict.name(), self.verdict, "{}: verdict", self.name);
                self.pin("positions", report.positions as u64);
                self.pin("ordinary", report.ordinary_edges as u64);
                self.pin("special", report.special_edges as u64);
                use reverse_data_exchange::deps::TerminationVerdict;
                match report.verdict {
                    TerminationVerdict::WeaklyAcyclic { rank } => self.pin("rank", rank as u64),
                    TerminationVerdict::Stratified { strata, rank } => {
                        self.pin("strata", strata as u64);
                        self.pin("rank", rank as u64);
                    }
                    TerminationVerdict::Unproven { .. } => {
                        self.nonterminating_chase_is_typed(&m, &mut vocab)
                    }
                }
            }
            other => panic!("{}: unknown check kind {other:?}", self.name),
        }
    }
}

/// Load every fixture under `tests/corpus/` and replay it. A fixture
/// that fails names itself in the panic message; an empty or shrunken
/// corpus fails loudly instead of passing vacuously.
#[test]
fn golden_corpus_matches_pinned_verdicts() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "corpus"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 10, "corpus shrank: only {} fixtures found", paths.len());
    for path in paths {
        let fixture = parse_fixture(&path);
        fixture.run();
    }
}

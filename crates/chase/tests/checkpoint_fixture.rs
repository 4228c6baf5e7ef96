//! Snapshots written by an earlier build still resume.
//!
//! `fixtures/restricted_partway.ckpt` is a v1 snapshot written after
//! round 3 of the restricted chase below by the build that kept relation
//! tuples boxed, trigger keys in hash sets of vectors and the delta as a
//! list of facts. Resumed on the flat row store, it must land on the
//! uninterrupted run's exact facts, in order, with the same null ids,
//! counters and provenance.

use std::path::{Path, PathBuf};

use rde_chase::{chase, ChaseError, ChaseOptions, ChaseResult, ChaseVariant};
use rde_deps::{parse_dependency, Dependency};
use rde_model::parse::parse_instance;
use rde_model::{Fact, Instance, Vocabulary};

const DEPS: &[&str] = &[
    "E(x, y) -> T(x, y)",
    "T(x, y) & E(y, z) -> T(x, z)",
    "T(x, y) -> exists w . S(y, w)",
    "S(x, w) & E(x, y) -> exists u . R(w, u)",
];
const INSTANCE: &str =
    "E(a, b)\nE(b, c)\nE(c, d)\nE(d, e)\nE(e, f)\nE(f, ?n)\nE(?m, a)\nS(c, ?k)\n";

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/restricted_partway.ckpt")
}

fn setup() -> (Vocabulary, Vec<Dependency>, Instance) {
    let mut v = Vocabulary::new();
    let deps = DEPS.iter().map(|d| parse_dependency(&mut v, d).unwrap()).collect();
    let i = parse_instance(&mut v, INSTANCE).unwrap();
    (v, deps, i)
}

fn options(resume_from: Option<PathBuf>) -> ChaseOptions {
    ChaseOptions { trace: true, resume_from, ..ChaseOptions::for_variant(ChaseVariant::Restricted) }
}

/// Resume from `path`; the result and the vocabulary's null count.
fn resume(path: &Path) -> Result<(ChaseResult, usize), ChaseError> {
    let (mut v, deps, i) = setup();
    let r = chase(&i, &deps, &mut v, &options(Some(path.to_owned())))?;
    Ok((r, v.null_count()))
}

/// Write the fixture with `edit` applied to a scratch path.
fn edited(name: &str, edit: impl Fn(&str) -> String) -> PathBuf {
    let text = std::fs::read_to_string(fixture()).unwrap();
    let path = std::env::temp_dir().join(format!("rde-fixture-{}-{name}.ckpt", std::process::id()));
    std::fs::write(&path, edit(&text)).unwrap();
    path
}

fn assert_resumes_straight(path: &Path) {
    let (mut v, deps, i) = setup();
    let straight = chase(&i, &deps, &mut v, &options(None)).unwrap();
    let (resumed, nulls) = resume(path).unwrap();
    assert!(resumed.rounds > 3, "the snapshot is from partway through the run");
    let facts = |r: &ChaseResult| r.instance.facts().collect::<Vec<Fact>>();
    assert_eq!(facts(&resumed), facts(&straight), "fact sequence and null ids");
    assert_eq!(resumed.fired, straight.fired);
    assert_eq!(resumed.rounds, straight.rounds);
    assert_eq!(resumed.round_stats, straight.round_stats);
    assert_eq!(resumed.provenance, straight.provenance);
    assert_eq!(nulls, v.null_count());
}

#[test]
fn an_earlier_builds_snapshot_resumes_bit_identical() {
    assert_resumes_straight(&fixture());
}

#[test]
fn a_delta_listed_with_relations_interleaved_resumes_alike() {
    let path = edited("interleaved", |t| {
        let from = "fact 1 2 n1 c2\nfact 3 2 n9 n10\n";
        assert!(t.contains(from));
        t.replace(from, "fact 3 2 n9 n10\nfact 1 2 n1 c2\n")
    });
    assert_resumes_straight(&path);
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_phantom_delta_fact_or_a_short_key_is_a_checkpoint_error() {
    for (name, from, to) in [
        ("phantom", "fact 3 2 n7 n14\n", "fact 3 2 n7 n15\n"),
        ("short-key", "key 3 c0 c1 c2\n", "key 2 c0 c1\n"),
    ] {
        let path = edited(name, |t| {
            assert!(t.contains(from), "{name}");
            t.replace(from, to)
        });
        let err = resume(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, ChaseError::Checkpoint { .. }), "{name}: {err:?}");
    }
}

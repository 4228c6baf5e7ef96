//! End-to-end tests driving the built `rde` binary against the shipped
//! example data files (`examples/data/`).

use std::path::PathBuf;
use std::process::Command;

fn data(file: &str) -> String {
    // crates/cli → workspace root → examples/data.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("examples");
    p.push("data");
    p.push(file);
    assert!(p.exists(), "missing example data file {p:?}");
    p.to_string_lossy().into_owned()
}

fn rde(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rde")).args(args).output().expect("binary runs");
    let text =
        format!("{}{}", String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    (out.status.success(), text)
}

#[test]
fn chase_example_1_1_data() {
    let (ok, out) = rde(&["chase", &data("decomposition.map"), &data("employees.inst")]);
    assert!(ok, "{out}");
    assert!(out.contains("Q(ada, eng)"), "{out}");
    assert!(out.contains("R(eng, grace)"), "{out}");
    assert!(out.contains("R(math, ?unknown_mgr)"), "{out}");
}

#[test]
fn reverse_exchange_produces_nulls() {
    let (ok, out) = rde(&[
        "reverse",
        &data("decomposition.map"),
        &data("decomposition_reverse.map"),
        &data("employees.inst"),
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("# 1 leaf instance(s)"), "{out}");
    assert!(out.contains("?n"), "reverse exchange must invent nulls: {out}");
}

#[test]
fn invert_union_mapping_data() {
    let (ok, out) = rde(&["invert", &data("union.map")]);
    assert!(ok, "{out}");
    assert!(out.contains('|'), "the recovery must be disjunctive: {out}");
    assert!(out.contains("Customer"), "{out}");
    assert!(out.contains("Supplier"), "{out}");
}

#[test]
fn invertibility_verdicts_data() {
    let (ok, out) = rde(&["invertible", &data("union.map"), "--consts", "1", "--nulls", "0"]);
    assert!(ok, "{out}");
    assert!(out.contains("NOT extended-invertible"), "{out}");
    let (ok, out) = rde(&["invertible", &data("two_step.map"), "--consts", "2", "--nulls", "1"]);
    assert!(ok, "{out}");
    assert!(out.contains("HOLDS within bound"), "{out}");
}

#[test]
fn check_chase_inverse_data() {
    let (ok, out) = rde(&[
        "check-chase-inverse",
        &data("two_step.map"),
        &data("two_step_inverse.map"),
        "--consts",
        "2",
        "--nulls",
        "1",
        "--facts",
        "2",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("HOLDS within bound"), "{out}");
}

#[test]
fn certain_answers_data() {
    let (ok, out) = rde(&[
        "certain",
        &data("two_step.map"),
        &data("two_step_inverse.map"),
        &data("flights.inst"),
        "q(x, y) :- P(x, y)",
    ]);
    assert!(ok, "{out}");
    // Only the all-constant flight is certain.
    assert!(out.contains("# 1 certain answer(s)"), "{out}");
    assert!(out.contains("(sfo, jfk)"), "{out}");
}

#[test]
fn loss_report_data() {
    let (ok, out) =
        rde(&["loss", &data("union.map"), "--consts", "1", "--nulls", "1", "--facts", "1"]);
    assert!(ok, "{out}");
    assert!(out.contains("lost pairs:"), "{out}");
    assert!(!out.contains("lost pairs:       0 "), "the union mapping must lose pairs: {out}");
}

#[test]
fn reverse_and_certain_chase_forward_with_the_chosen_variant() {
    let dir = std::env::temp_dir().join(format!("rde-cli-variant-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.to_string_lossy().into_owned()
    };
    let map = write("m.map", "source: P/2\ntarget: Q/2\nP(x, y) -> exists z . Q(x, z)\n");
    let rev = write("m.rev", "source: Q/2\ntarget: P/2\nQ(x, z) -> exists y . P(x, y)\n");
    let inst = write("i.inst", "P(a, b)\nP(a, c)\n");
    // The oblivious forward chase invents Q(a, ?n0) and Q(a, ?n1), so
    // the reverse chase's one firing mints ?n2; the restricted chase
    // stops at Q(a, ?n0), so it mints ?n1.
    for (variant, leaf) in [(None, "P(a, ?n2)"), (Some("restricted"), "P(a, ?n1)")] {
        let mut args = vec!["reverse", &map, &rev, &inst];
        args.extend(variant.iter().flat_map(|v| ["--variant", v]));
        let (ok, out) = rde(&args);
        assert!(ok, "{out}");
        assert!(out.contains("# 1 leaf instance(s)"), "{out}");
        assert!(out.contains(leaf), "--variant {variant:?}: expected {leaf}\n{out}");
    }
    let (ok, out) =
        rde(&["certain", &map, &rev, &inst, "q(x) :- P(x, y)", "--variant", "restricted"]);
    assert!(ok, "{out}");
    assert!(out.contains("# 1 certain answer(s)\n(a)"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The pattern `Q1(x), …, Q5(x)` has a five-block minimal cover (all
/// five `Si(x)`): `invert` must keep it as a disjunct, so that `reverse`
/// on `{S1(a), …, S5(a)}` gets `S`-facts back and `check-recovery`
/// accepts the recovery on both counts.
#[test]
fn invert_keeps_a_five_block_explanation() {
    let map = data("wide_conclusion.map");
    let (ok, rev_text) = rde(&["invert", &map]);
    assert!(ok, "{rev_text}");
    assert!(
        rev_text.contains("-> P(x0) | S1(x0) & S2(x0) & S3(x0) & S4(x0) & S5(x0)"),
        "{rev_text}"
    );
    let dir = std::env::temp_dir().join(format!("rde-cli-wide-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let rev = dir.join("wide.rev");
    std::fs::write(&rev, &rev_text).unwrap();
    let inst = dir.join("s.inst");
    std::fs::write(&inst, "S1(a)\nS2(a)\nS3(a)\nS4(a)\nS5(a)\n").unwrap();
    let (rev, inst) = (rev.to_string_lossy().into_owned(), inst.to_string_lossy().into_owned());
    let (ok, out) = rde(&["reverse", &map, &rev, &inst]);
    assert!(ok, "{out}");
    assert!(out.contains("S5(a)"), "some leaf must give the S-facts back: {out}");
    let (ok, out) =
        rde(&["check-recovery", &map, &rev, "--consts", "1", "--nulls", "0", "--facts", "5"]);
    assert!(ok, "{out}");
    assert_eq!(out.matches("HOLDS within bound").count(), 2, "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

//! Termination-gated admission and per-request chase variants, e2e:
//! `require_terminating` must reject unproven catalog entries at bind
//! time with a typed error, reject them at reload time while keeping
//! the old generation serving, and keep admitting weakly-acyclic
//! catalogs — and a `variant` request header must select the chase
//! variant of `CHASE` and of `CERTAIN`'s forward chase (or fail typed
//! on garbage) without changing any answer.

use std::path::{Path, PathBuf};

use rde_serve::protocol::Reply;
use rde_serve::{spawn, Client, Request, ServeError, ServeOptions, UniverseDims};

/// Weakly acyclic: one s-t tgd with an existential, rank 1.
const SPLIT: &str = "source: P/2\ntarget: Q/2, R/2\nP(x,y) -> exists z . Q(x,z) & R(z,y)\n";
/// Not weakly acyclic (and not stratified): `E` lives in both schemas
/// so its tgd feeds a fresh null back into its own premise, and the
/// chase on a single edge never terminates.
const LOOPY: &str = "source: S/1, E/2\ntarget: E/2\nS(x) -> E(x,x)\nE(x,y) -> exists z . E(y,z)\n";

fn catalog(tag: &str, entries: &[(&str, &str)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rde-serve-term-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, text) in entries {
        std::fs::write(dir.join(format!("{name}.map")), text).unwrap();
    }
    dir
}

fn options(dir: &Path) -> ServeOptions {
    ServeOptions {
        catalog: dir.to_path_buf(),
        dims: UniverseDims { consts: 1, nulls: 1, facts: 1 },
        require_terminating: true,
        ..ServeOptions::default()
    }
}

/// The acceptance pair in one test: a weakly-acyclic catalog serves
/// under `--require-terminating`, and every chase variant a client can
/// name returns the same answer over the wire.
#[test]
fn weakly_acyclic_catalog_serves_under_every_variant() {
    let dir = catalog("ok", &[("split", SPLIT)]);
    let (addr, shutdown, handle) = spawn(options(&dir)).unwrap();
    let mut client = Client::connect(addr).unwrap();

    let expected = Reply::Ok(vec!["Q(a, ?n0)".into(), "R(?n0, b)".into()]);
    // No header: the build default variant.
    let bare = client.request(&Request::on("CHASE", "split").body_text("P(a, b)\n")).unwrap();
    assert_eq!(bare, expected, "default variant");
    for variant in ["naive", "semi-naive", "restricted"] {
        let reply = client
            .request(
                &Request::on("CHASE", "split").header("variant", variant).body_text("P(a, b)\n"),
            )
            .unwrap();
        assert_eq!(reply, expected, "variant {variant} must not change the answer");
    }

    // Garbage in the header is a typed protocol-level error, not a hang
    // or a silent fallback to the default.
    let reply = client
        .request(
            &Request::on("CHASE", "split").header("variant", "oblivious").body_text("P(a, b)\n"),
        )
        .unwrap();
    assert!(
        matches!(reply, Reply::Err(ref m) if m.starts_with("variant:") && m.contains("oblivious")),
        "bad variant must fail typed: {reply:?}"
    );

    shutdown.cancel();
    handle.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Projects `P` onto its first column: the oblivious chase of
/// `P(a, b), P(a, c)` mints a null per fact, the restricted one only one.
const PROJECT: &str = "source: P/2\ntarget: Q/2\nP(x,y) -> exists z . Q(x,z)\n";
const PROJECT_REV: &str = "source: Q/2\ntarget: P/2\nQ(x,z) -> exists y . P(x,y)\n";

/// `CERTAIN` honours the `variant` header for its forward chase: every
/// variant gives the same answers, and garbage fails typed.
#[test]
fn certain_runs_the_requested_variant() {
    let dir = catalog("certain", &[("project", PROJECT)]);
    std::fs::write(dir.join("project.rev"), PROJECT_REV).unwrap();
    let (addr, shutdown, handle) = spawn(options(&dir)).unwrap();
    let mut client = Client::connect(addr).unwrap();
    let certain = || {
        Request::on("CERTAIN", "project")
            .header("query", "q(x) :- P(x, y)")
            .body_text("P(a, b)\nP(a, c)\n")
    };
    let expected = Reply::Ok(vec!["(a)".into()]);
    assert_eq!(client.request(&certain()).unwrap(), expected, "default variant");
    for variant in ["naive", "semi-naive", "restricted"] {
        let reply = client.request(&certain().header("variant", variant)).unwrap();
        assert_eq!(reply, expected, "variant {variant} must not change the answers");
    }
    let reply = client.request(&certain().header("variant", "oblivious")).unwrap();
    assert!(
        matches!(reply, Reply::Err(ref m) if m.starts_with("variant:") && m.contains("oblivious")),
        "bad variant must fail typed: {reply:?}"
    );

    shutdown.cancel();
    handle.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A catalog with an unproven entry must not come up at all when
/// termination is required: bind fails with the typed catalog error
/// naming the offending mapping.
#[test]
fn unproven_entry_is_rejected_at_bind() {
    let dir = catalog("bind", &[("split", SPLIT), ("loopy", LOOPY)]);
    match spawn(options(&dir)) {
        Err(ServeError::Catalog(m)) => {
            assert!(m.contains("`loopy`"), "error names the entry: {m}");
            assert!(m.contains("termination unproven"), "{m}");
        }
        Err(other) => panic!("expected ServeError::Catalog, got {other:?}"),
        Ok(_) => panic!("unproven catalog must not bind"),
    }
    // Without the flag the same catalog binds fine (budgets still
    // protect each request): the gate is opt-in.
    let opts = ServeOptions { require_terminating: false, ..options(&dir) };
    let (_, shutdown, handle) = spawn(opts).unwrap();
    shutdown.cancel();
    handle.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Swapping an unproven mapping in via RELOAD must be rejected while
/// the previous generation keeps answering, and fixing the file makes
/// the next reload go through.
#[test]
fn unproven_reload_is_rejected_and_old_generation_keeps_serving() {
    let dir = catalog("reload", &[("split", SPLIT)]);
    let (addr, shutdown, handle) = spawn(options(&dir)).unwrap();
    let mut client = Client::connect(addr).unwrap();

    std::fs::write(dir.join("split.map"), LOOPY).unwrap();
    let reply = client.request(&Request::bare("RELOAD")).unwrap();
    assert!(
        matches!(reply, Reply::Err(ref m)
            if m.contains("reload rejected") && m.contains("termination unproven")),
        "unproven reload must not swap: {reply:?}"
    );

    // The old weakly-acyclic generation still answers bit-identically.
    let chase = client.request(&Request::on("CHASE", "split").body_text("P(a, b)\n")).unwrap();
    assert_eq!(chase, Reply::Ok(vec!["Q(a, ?n0)".into(), "R(?n0, b)".into()]));
    let Reply::Ok(stats) = client.request(&Request::bare("STATS")).unwrap() else {
        panic!("STATS failed")
    };
    assert!(stats.iter().any(|l| l == "reload generation=1 ok=0 rejected=1"), "{stats:?}");

    std::fs::write(dir.join("split.map"), SPLIT).unwrap();
    let Reply::Ok(lines) = client.request(&Request::bare("RELOAD")).unwrap() else {
        panic!("fixed reload must swap")
    };
    assert_eq!(lines[0], "generation 2", "{lines:?}");

    shutdown.cancel();
    handle.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

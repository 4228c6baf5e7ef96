//! The seed-sweep resilience suite.
//!
//! Injection families — spurious search exhaustion + round
//! cancellation in the standard chase (every chase variant), poisoned
//! locks in the arrow cache, I/O errors in the journal sink, branch
//! cancellation + search exhaustion in the disjunctive chase,
//! aborted quasi-inverse construction, stranded checkpoint writes,
//! spurious satisfaction-check exhaustion in the restricted chase,
//! and aborted termination analysis — each swept across 24
//! deterministic seeds. The invariant under every seed: engines
//! return typed `Err`s or correct `Ok`s, never panic, and the
//! observability layer stays internally consistent (valid JSONL,
//! write counters that add up).
//!
//! Every campaign is **scoped**: an [`ExecContext`] carries its own
//! [`FaultInjector`], whose hit/fire counters are read back per
//! context — no ambient install/uninstall, no cross-test serialization
//! for the injector itself. Every decision is a pure function of
//! `(seed, point, hit)`: a failing seed reported by the harness
//! replays exactly.
#![cfg(feature = "fault-inject")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::RwLock;

use rde_chase::{
    disjunctive_chase, ChaseError, ChaseOptions, ChaseVariant, DisjunctiveChaseOptions,
};
use rde_core::arrow::{ArrowMCache, CachePolicy};
use rde_core::quasi_inverse::maximum_extended_recovery_full;
use rde_core::{CoreError, Universe};
use rde_deps::{parse_dependency, parse_mapping, printer, Dependency};
use rde_faults::{ExecContext, FaultConfig, FaultInjector};
use rde_hom::HomConfig;
use rde_model::{Fact, Instance, Value, Vocabulary};
use rde_obs::journal::{self, Sink};

/// Seeds per family; 5 families × 24 = 120 injection campaigns.
const SEEDS: u64 = 24;

/// The journal sink is the one process-wide resource left: while the
/// journal family has a sink attached, any event another family emits
/// would land in its file and skew the exact write counters. The
/// journal family takes the write side; everyone else shares the read
/// side (injection campaigns themselves are fully scoped and need no
/// serialization at all).
static JOURNAL_GATE: RwLock<()> = RwLock::new(());

fn shared() -> std::sync::RwLockReadGuard<'static, ()> {
    JOURNAL_GATE.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn exclusive() -> std::sync::RwLockWriteGuard<'static, ()> {
    JOURNAL_GATE.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Transitive closure plus a null-inventing side relation: a genuinely
/// multi-round chase, so round-level injection points get many hits.
fn recursive_deps(vocab: &mut Vocabulary) -> Vec<Dependency> {
    ["E(x,y) -> T(x,y)", "T(x,y) & T(y,z) -> T(x,z)", "T(x,y) -> exists w . S(y, w)"]
        .iter()
        .map(|d| parse_dependency(vocab, d).unwrap())
        .collect()
}

fn chain(vocab: &mut Vocabulary, n: usize) -> Instance {
    let rel = vocab.find_relation("E").unwrap();
    (0..n)
        .map(|i| {
            let vals: Vec<Value> = vec![
                vocab.const_value(&format!("c{i}")),
                vocab.const_value(&format!("c{}", i + 1)),
            ];
            Fact::new(rel, vals)
        })
        .collect()
}

/// Family 1: the standard chase under spurious hom-search exhaustion
/// (`hom.search.exhaust`) and round cancellation (`chase.round`),
/// under every chase variant. Every outcome must be an `Ok` or one of
/// the two typed errors those points map to (the restricted variant's
/// `chase.restricted.check` point maps to the second) — never a panic,
/// never a mystery variant.
#[test]
fn chase_survives_injected_exhaustion_and_cancellation() {
    let _g = shared();
    let mut outcomes = [0u64; 3]; // ok, cancelled, exhausted
    let mut injector_evaluated = 0u64;
    for seed in 0..SEEDS {
        for variant in ChaseVariant::ALL {
            let mut vocab = Vocabulary::new();
            let deps = recursive_deps(&mut vocab);
            let input = chain(&mut vocab, 4);
            // Sweep the fire rate from 1/1 (every hit) down to
            // 1/1024 (mostly clean): a multi-round chase evaluates
            // dozens of points, so a fixed rate would hit an error
            // on every run and never cover the clean-recovery path.
            let ctx = ExecContext::default().with_injector(FaultInjector::new(FaultConfig::ratio(
                seed,
                1,
                1 << (seed % 11),
                None,
            )));
            let options = ChaseOptions {
                hom: HomConfig { ctx: ctx.clone(), ..HomConfig::default() },
                ..ChaseOptions::for_variant(variant)
            };
            let result = catch_unwind(AssertUnwindSafe(|| {
                rde_chase::chase(&input, &deps, &mut vocab, &options)
            }));
            let report = ctx.fault_report();
            let result = result.unwrap_or_else(|_| {
                panic!("seed {seed}, variant {variant}: chase panicked under injection")
            });
            match result {
                Ok(r) => {
                    assert!(!r.instance.is_empty());
                    outcomes[0] += 1;
                }
                Err(ChaseError::Cancelled) => outcomes[1] += 1,
                Err(ChaseError::MatchBudgetExhausted { .. }) => outcomes[2] += 1,
                Err(other) => panic!("seed {seed}, variant {variant}: unexpected error {other}"),
            }
            // Per-context accounting: the campaign saw this run's
            // decisions and nothing else.
            let round_hits = report.point("chase.round").map_or(0, |c| c.hits);
            assert!(round_hits >= 1, "every run consults chase.round at least once");
            for (name, count) in &report.points {
                assert!(count.fired <= count.hits, "{name}: fired > hits");
            }
            injector_evaluated += report.total_hits();
        }
    }
    // Ratio sweep over 72 runs: both error families and at least one
    // clean run must all occur, or the sweep isn't exercising anything.
    assert!(outcomes.iter().all(|&n| n > 0), "sweep too one-sided: {outcomes:?}");
    assert!(injector_evaluated > 0, "campaigns must actually be consulted");
}

/// Family 2: every `arrow()` query under `core.arrow.poison` — the
/// answers must match a cleanly-built reference cache exactly, because
/// lock recovery (`PoisonError::into_inner`) preserves the memo's
/// integrity rather than wedging or corrupting it. The injector rides
/// in through each query's config context and is read back from it per
/// seed.
#[test]
fn arrow_cache_matches_clean_reference_under_poisoned_locks() {
    let _g = shared();
    let mut vocab = Vocabulary::new();
    let mapping =
        parse_mapping(&mut vocab, "source: P/1, Q/1\ntarget: R/1\nP(x) -> R(x)\nQ(x) -> R(x)")
            .unwrap();
    let universe = Universe::new(&mut vocab, 2, 1, 1);
    let family = universe.collect_instances(&vocab, &mapping.source).unwrap();
    let n = family.len();
    assert!(n >= 4, "universe too small to be interesting");

    let unbounded = HomConfig::default();
    let reference =
        ArrowMCache::with_policy(&mapping, &family, &mut vocab, &unbounded, CachePolicy::default())
            .unwrap();
    let expected: Vec<Vec<bool>> = (0..n)
        .map(|a| (0..n).map(|b| reference.arrow(a, b, &unbounded).holds()).collect())
        .collect();

    let mut total_fired = 0u64;
    for seed in 0..SEEDS {
        // A fresh cache per seed: its memo starts empty, so poisoned
        // locks hit both the search path and the memoized path.
        let ctx = ExecContext::default().with_injector(FaultInjector::new(FaultConfig::ratio(
            seed,
            1,
            2,
            Some("core.arrow"),
        )));
        let config = HomConfig { ctx: ctx.clone(), ..HomConfig::default() };
        let cache = ArrowMCache::with_policy(
            &mapping,
            &family,
            &mut vocab,
            &config,
            CachePolicy::default(),
        )
        .unwrap();
        let answers = catch_unwind(AssertUnwindSafe(|| {
            (0..n)
                .map(|a| (0..n).map(|b| cache.arrow(a, b, &config).holds()).collect())
                .collect::<Vec<Vec<bool>>>()
        }));
        let report = ctx.fault_report();
        let answers =
            answers.unwrap_or_else(|_| panic!("seed {seed}: arrow query panicked under poison"));
        assert_eq!(answers, expected, "seed {seed}: poisoned cache disagrees with reference");
        let point = report.point("core.arrow.poison").expect("poison point evaluated");
        assert_eq!(point.hits, (n * n) as u64, "every query consults this context's injector");
        total_fired += point.fired;
    }
    assert!(total_fired > 0, "ratio 1/2 across {SEEDS} seeds must poison at least once");
}

/// Family 3: the file journal under `obs.journal.write` I/O faults,
/// injected through the **scoped** attach: the campaign belongs to the
/// attaching context and its fire count must equal the sink's error
/// count exactly. Whole records are dropped, never split: the file must
/// hold exactly `written - io_errors` lines, each one valid JSON.
#[test]
fn journal_stays_valid_jsonl_under_injected_write_errors() {
    let _g = exclusive();
    let path = std::env::temp_dir().join(format!("rde-sweep-journal-{}.jsonl", std::process::id()));
    let mut total_markers = 0u64;
    for seed in 0..SEEDS {
        let injector = FaultInjector::new(FaultConfig::ratio(seed, 1, 4, Some("obs.journal")));
        journal::attach_scoped(Sink::File(path.clone()), 1 << 16, injector.clone())
            .expect("file sink attaches");
        let events = 40u64;
        {
            let root = rde_obs::span("sweep.root", &[("seed", seed.into())]);
            for i in 0..events {
                rde_obs::event("sweep.tick", &[("i", i.into())]);
            }
            root.close_with(&[("events", events.into())]);
        }
        let summary = journal::detach().expect("journal was attached");
        let report = injector.report();

        assert_eq!(summary.dropped, 0);
        let hits = report.point("obs.journal.write").map_or(0, |c| c.hits);
        assert_eq!(hits, summary.written as u64, "every write consults the scoped injector");
        assert_eq!(report.total_fired(), summary.io_errors, "fires and io_errors must agree");

        let text = std::fs::read_to_string(&path).expect("journal file readable");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines.len() as u64,
            summary.written as u64 - summary.io_errors,
            "seed {seed}: lines must equal written - io_errors"
        );
        let mut opens = 0u64;
        let mut closes = 0u64;
        for line in &lines {
            assert!(rde_obs::json::is_valid(line), "seed {seed}: malformed JSONL: {line}");
            if line.contains("\"kind\":\"span_open\"") {
                opens += 1;
            }
            if line.contains("\"kind\":\"span_close\"") {
                closes += 1;
            }
        }
        if summary.io_errors == 0 {
            assert_eq!((opens, closes), (1, 1), "seed {seed}: spans must balance");
        }
        // A failed write is not a silent hole: it best-effort appends a
        // `journal.io_drop` marker (which may itself fail — hence at
        // most one marker per error, and none without errors).
        let markers =
            lines.iter().filter(|l| l.contains("\"name\":\"journal.io_drop\"")).count() as u64;
        assert!(
            markers <= summary.io_errors,
            "seed {seed}: {markers} markers cannot exceed {} errors",
            summary.io_errors
        );
        if summary.io_errors == 0 {
            assert_eq!(markers, 0, "seed {seed}: no spurious io_drop markers");
        }
        for line in lines.iter().filter(|l| l.contains("\"name\":\"journal.io_drop\"")) {
            assert!(line.contains("\"lost\":1"), "seed {seed}: marker counts its loss: {line}");
        }
        // Every failed original write spawns exactly one marker
        // attempt: `io_errors` counts failed originals plus failed
        // markers, surviving markers are the difference, so the
        // original count is recoverable — and `written` must equal
        // the emitted records plus those marker attempts.
        assert_eq!((summary.io_errors + markers) % 2, 0, "seed {seed}: marker parity");
        let failed_originals = (summary.io_errors + markers) / 2;
        assert_eq!(
            summary.written as u64,
            events + 2 + failed_originals,
            "seed {seed}: root open + close + events + io_drop marker attempts"
        );
        total_markers += markers;
    }
    assert!(total_markers > 0, "a 1-in-4 fault ratio across {SEEDS} seeds must land markers");
    std::fs::remove_file(&path).ok();
}

/// Family 4: the disjunctive chase under `chase.disj.branch` and
/// `hom.search.exhaust`, both driven by the context in
/// `DisjunctiveChaseOptions::hom`. A branch fire is a typed
/// [`ChaseError::Cancelled`]; an exhaust fire cuts a premise or
/// satisfaction search and must end in
/// [`ChaseError::MatchBudgetExhausted`], never in a branch fired on an
/// undecided trigger. A campaign that never fired must leave the leaf
/// set bit-identical to a clean reference run.
#[test]
fn disjunctive_chase_survives_injected_branch_cancellation_and_exhaustion() {
    let _g = shared();
    let mut vocab = Vocabulary::new();
    let deps = vec![
        parse_dependency(&mut vocab, "R(x) -> A(x) | B(x)").unwrap(),
        parse_dependency(&mut vocab, "A(x) -> C(x) | D(x)").unwrap(),
    ];
    let rel = vocab.find_relation("R").unwrap();
    let input: Instance = [vocab.const_value("a"), vocab.const_value("b")]
        .into_iter()
        .map(|v| Fact::new(rel, vec![v]))
        .collect();
    let reference =
        disjunctive_chase(&input, &deps, &mut vocab, &DisjunctiveChaseOptions::default()).unwrap();
    assert!(reference.leaves.len() > 2, "needs genuine branching to be interesting");

    let mut outcomes = [0u64; 3]; // clean, cancelled, exhausted
    for seed in 0..SEEDS {
        // Every branch makes several searches, so the fire rate sweeps
        // from 1/1 down to 1/1024 to leave room for clean runs.
        let ctx = ExecContext::default().with_injector(FaultInjector::new(FaultConfig::ratio(
            seed,
            1,
            1 << (seed % 11),
            None,
        )));
        let options = DisjunctiveChaseOptions {
            hom: HomConfig { ctx: ctx.clone(), ..HomConfig::default() },
            ..Default::default()
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            disjunctive_chase(&input, &deps, &mut vocab, &options)
        }))
        .unwrap_or_else(|_| panic!("seed {seed}: disjunctive chase panicked under injection"));
        let report = ctx.fault_report();
        let fired = |name| report.point(name).map_or(0, |c| c.fired);
        let branch = report.point("chase.disj.branch").expect("branch point evaluated");
        assert!(branch.hits >= 1, "every run consults the branch point");
        match result {
            Ok(r) => {
                assert_eq!(
                    report.total_fired(),
                    0,
                    "seed {seed}: an Ok run must be injection-free"
                );
                assert_eq!(
                    r.leaves, reference.leaves,
                    "seed {seed}: clean run must match the reference leaf set"
                );
                outcomes[0] += 1;
            }
            Err(ChaseError::Cancelled) => {
                assert!(branch.fired > 0, "seed {seed}: Cancelled requires a branch fire");
                outcomes[1] += 1;
            }
            Err(ChaseError::MatchBudgetExhausted { .. }) => {
                assert!(
                    fired("hom.search.exhaust") > 0,
                    "seed {seed}: exhaustion requires a search fire"
                );
                outcomes[2] += 1;
            }
            Err(other) => panic!("seed {seed}: unexpected error {other}"),
        }
    }
    assert!(outcomes.iter().all(|&n| n > 0), "sweep too one-sided: {outcomes:?}");
}

/// Family 6: checkpoint writes under `chase.checkpoint.write`. The
/// point sits **between** the tmp create and the rename, so every fire
/// strands a `<path>.tmp` next to the last complete snapshot — exactly
/// the residue a crash in that window leaves. A later run over the
/// same policy (and a resume from the surviving snapshot, when one
/// exists) must sweep the stale tmp on startup and converge to the
/// clean reference result.
#[test]
fn checkpoint_write_faults_strand_a_tmp_that_startup_sweeps() {
    let _g = shared();
    let mut vocab = Vocabulary::new();
    let deps = recursive_deps(&mut vocab);
    let input = chain(&mut vocab, 4);
    let reference = {
        let mut v = vocab.clone();
        rde_chase::chase(&input, &deps, &mut v, &ChaseOptions::default()).unwrap()
    };

    let mut faulted = 0u64;
    let mut clean = 0u64;
    for seed in 0..SEEDS {
        let path =
            std::env::temp_dir().join(format!("rde-sweep-ckpt-{}-{seed}", std::process::id()));
        let tmp = path.with_extension("tmp");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&tmp).ok();

        let ctx = ExecContext::default().with_injector(FaultInjector::new(FaultConfig::ratio(
            seed,
            1,
            1 << (seed % 4),
            Some("chase.checkpoint"),
        )));
        let options = ChaseOptions {
            checkpoint: Some(rde_chase::CheckpointPolicy::new(&path, 1)),
            hom: HomConfig { ctx: ctx.clone(), ..HomConfig::default() },
            ..ChaseOptions::default()
        };
        let mut v = vocab.clone();
        let result =
            catch_unwind(AssertUnwindSafe(|| rde_chase::chase(&input, &deps, &mut v, &options)))
                .unwrap_or_else(|_| {
                    panic!("seed {seed}: chase panicked under checkpoint injection")
                });
        let report = ctx.fault_report();
        let point = report.point("chase.checkpoint.write").expect("write point evaluated");
        assert!(point.hits >= 1, "every checkpointing run consults the write point");
        match result {
            Ok(r) => {
                assert_eq!(point.fired, 0, "seed {seed}: an Ok run must be injection-free");
                assert_eq!(r.instance, reference.instance, "seed {seed}: clean run must match");
                assert!(!tmp.exists(), "seed {seed}: a clean run leaves no tmp behind");
                clean += 1;
            }
            Err(ChaseError::Checkpoint { .. }) => {
                assert!(point.fired > 0, "seed {seed}: Checkpoint error requires a fire");
                assert!(tmp.exists(), "seed {seed}: a fired write must strand the tmp");
                faulted += 1;

                // A fresh run over the same policy sweeps the stale tmp
                // at startup and completes cleanly.
                let mut v2 = vocab.clone();
                let rerun = rde_chase::chase(
                    &input,
                    &deps,
                    &mut v2,
                    &ChaseOptions {
                        checkpoint: Some(rde_chase::CheckpointPolicy::new(&path, 1)),
                        ..ChaseOptions::default()
                    },
                )
                .unwrap_or_else(|e| panic!("seed {seed}: clean rerun failed: {e}"));
                assert_eq!(rerun.instance, reference.instance);
                assert!(!tmp.exists(), "seed {seed}: rerun must sweep the stranded tmp");

                // When a complete snapshot survived earlier rounds,
                // resuming from it must also sweep and still land on
                // the bit-identical final instance.
                if path.exists() {
                    std::fs::write(&tmp, b"stale partial write").unwrap();
                    let mut v3 = vocab.clone();
                    let resumed = rde_chase::chase(
                        &input,
                        &deps,
                        &mut v3,
                        &ChaseOptions {
                            resume_from: Some(path.clone()),
                            ..ChaseOptions::default()
                        },
                    )
                    .unwrap_or_else(|e| panic!("seed {seed}: resume failed: {e}"));
                    assert_eq!(resumed.instance, reference.instance);
                    assert!(!tmp.exists(), "seed {seed}: resume must sweep the stranded tmp");
                }
            }
            Err(other) => panic!("seed {seed}: unexpected error {other}"),
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&tmp).ok();
    }
    assert!(faulted > 0 && clean > 0, "sweep too one-sided: {faulted} / {clean}");
}

/// Family 7: the restricted chase under `chase.restricted.check` —
/// the injection point sits on the restricted satisfaction check,
/// so a fire looks exactly like the satisfaction search running out of
/// nodes. A fire must surface as the typed
/// [`ChaseError::MatchBudgetExhausted`] (never an unsoundly-pruned
/// `Ok`), and a campaign that never fired must land bit-identical to
/// the clean restricted reference run.
#[test]
fn restricted_chase_survives_injected_satisfaction_exhaustion() {
    let _g = shared();
    let mut vocab = Vocabulary::new();
    let deps = recursive_deps(&mut vocab);
    let input = chain(&mut vocab, 4);
    let reference = {
        let mut v = vocab.clone();
        let options = ChaseOptions::for_variant(rde_chase::ChaseVariant::Restricted);
        rde_chase::chase(&input, &deps, &mut v, &options).unwrap()
    };

    let mut exhausted = 0u64;
    let mut clean = 0u64;
    for seed in 0..SEEDS {
        let ctx = ExecContext::default().with_injector(FaultInjector::new(FaultConfig::ratio(
            seed,
            1,
            1 << (seed % 8),
            Some("chase.restricted"),
        )));
        let options = ChaseOptions {
            hom: HomConfig { ctx: ctx.clone(), ..HomConfig::default() },
            ..ChaseOptions::for_variant(rde_chase::ChaseVariant::Restricted)
        };
        let mut v = vocab.clone();
        let result =
            catch_unwind(AssertUnwindSafe(|| rde_chase::chase(&input, &deps, &mut v, &options)))
                .unwrap_or_else(|_| {
                    panic!("seed {seed}: restricted chase panicked under injection")
                });
        let report = ctx.fault_report();
        let point = report.point("chase.restricted.check").expect("check point evaluated");
        assert!(point.hits >= 1, "every restricted run consults the satisfaction check point");
        match result {
            Ok(r) => {
                assert_eq!(point.fired, 0, "seed {seed}: an Ok run must be injection-free");
                assert_eq!(
                    r.instance, reference.instance,
                    "seed {seed}: clean run must match the restricted reference"
                );
                clean += 1;
            }
            Err(ChaseError::MatchBudgetExhausted { .. }) => {
                assert!(point.fired > 0, "seed {seed}: exhaustion requires a fire");
                exhausted += 1;
            }
            Err(other) => panic!("seed {seed}: unexpected error {other}"),
        }
    }
    assert!(exhausted > 0 && clean > 0, "sweep too one-sided: {exhausted} / {clean}");
}

/// Family 8: static termination analysis under `analyze.graph`. A fire
/// is the typed [`rde_deps::AnalyzeError::Graph`]; a campaign that
/// never fired must reproduce the clean reference verdict exactly.
#[test]
fn termination_analysis_survives_injected_graph_faults() {
    let _g = shared();
    let mut vocab = Vocabulary::new();
    let deps = recursive_deps(&mut vocab);
    let reference =
        rde_deps::analyze_dependencies(&deps, &ExecContext::new()).expect("clean analysis");

    let mut faulted = 0u64;
    let mut clean = 0u64;
    for seed in 0..SEEDS {
        let ctx = ExecContext::default().with_injector(FaultInjector::new(FaultConfig::ratio(
            seed,
            1,
            1 << (seed % 2),
            Some("analyze"),
        )));
        let result = catch_unwind(AssertUnwindSafe(|| rde_deps::analyze_dependencies(&deps, &ctx)))
            .unwrap_or_else(|_| panic!("seed {seed}: analysis panicked under injection"));
        let report = ctx.fault_report();
        let point = report.point("analyze.graph").expect("graph point evaluated");
        assert!(point.hits >= 1, "every analysis consults the graph point");
        match result {
            Ok(r) => {
                assert_eq!(point.fired, 0, "seed {seed}: an Ok run must be injection-free");
                assert_eq!(
                    r.verdict, reference.verdict,
                    "seed {seed}: clean run must reproduce the reference verdict"
                );
                clean += 1;
            }
            Err(rde_deps::AnalyzeError::Graph { .. }) => {
                assert!(point.fired > 0, "seed {seed}: a Graph error requires a fire");
                faulted += 1;
            }
            Err(other) => panic!("seed {seed}: unexpected error {other}"),
        }
    }
    assert!(faulted > 0 && clean > 0, "sweep too one-sided: {faulted} / {clean}");
}

/// Family 5: quasi-inverse construction under `core.quasi.construct`.
/// The per-(tgd, equality type) poll turns a fire into a typed
/// [`CoreError::Cancelled`]; a campaign that never fired must produce
/// the same recovery mapping as a clean reference run.
#[test]
fn quasi_inverse_survives_injected_construction_aborts() {
    let _g = shared();
    let mut vocab = Vocabulary::new();
    let mapping = parse_mapping(
        &mut vocab,
        "source: P/2, T/1\ntarget: Pp/2\nP(x,y) -> Pp(x,y)\nT(x) -> Pp(x,x)",
    )
    .unwrap();
    let reference =
        maximum_extended_recovery_full(&mapping, &mut vocab, &HomConfig::default()).unwrap();
    let reference_text = printer::mapping(&vocab, &reference);

    let mut cancelled = 0u64;
    let mut clean = 0u64;
    for seed in 0..SEEDS {
        let ctx = ExecContext::default().with_injector(FaultInjector::new(FaultConfig::ratio(
            seed,
            1,
            1 << (seed % 4),
            Some("core.quasi"),
        )));
        let config = HomConfig { ctx: ctx.clone(), ..HomConfig::default() };
        let result = catch_unwind(AssertUnwindSafe(|| {
            maximum_extended_recovery_full(&mapping, &mut vocab, &config)
        }))
        .unwrap_or_else(|_| panic!("seed {seed}: quasi-inverse panicked under injection"));
        let report = ctx.fault_report();
        let point = report.point("core.quasi.construct").expect("construct point evaluated");
        assert!(point.hits >= 1, "every run consults the construct point");
        match result {
            Ok(rec) => {
                assert_eq!(point.fired, 0, "seed {seed}: an Ok run must be injection-free");
                assert_eq!(
                    printer::mapping(&vocab, &rec),
                    reference_text,
                    "seed {seed}: clean run must reproduce the reference recovery"
                );
                clean += 1;
            }
            Err(CoreError::Cancelled) => {
                assert!(point.fired > 0, "seed {seed}: Cancelled requires a fire");
                cancelled += 1;
            }
            Err(other) => panic!("seed {seed}: unexpected error {other}"),
        }
    }
    assert!(cancelled > 0 && clean > 0, "sweep too one-sided: {cancelled} / {clean}");
}

//! The standard chase with (non-disjunctive) dependencies.
//!
//! The engine compiles every dependency once (a [`DependencyPlan`]:
//! premise plan, satisfaction check, firing template) and then runs
//! rounds in two phases:
//!
//! 1. **Collect** — enumerate premise matches per dependency, in
//!    dependency order. The semi-naive and restricted variants
//!    enumerate, after round 0, only matches that use at least one fact
//!    inserted in the previous round (seed each premise atom in turn
//!    from the delta and match the rest against the full instance);
//!    every match over older facts was enumerated in the round where
//!    its newest fact was delta and is recorded in `fired_keys`.
//! 2. **Fire** — sort the new triggers by `(dependency, assignment)`
//!    and fire them in that order. Fresh nulls are allocated in firing
//!    order, so the canonical sort makes the naive and semi-naive
//!    variants produce **equal** instances, not merely hom-equivalent
//!    ones.

use std::path::PathBuf;
use std::time::Instant;

use rde_deps::{Dependency, SchemaMapping};
use rde_hom::{Exhausted, HomConfig, HomStats, Verdict};
use rde_model::{Fact, Instance, RelId, RowSet, Value, Vocabulary};

use crate::checkpoint::{self, CheckpointPolicy, SnapshotRef};
use crate::plan::{never_witnessed, DependencyPlan};
use crate::ChaseError;

/// A named point in the Grahne–Onet chase design space, and the one
/// chase selector: the CLI (`--variant`), the serve `variant` request
/// header, [`ChaseOptions::variant`] and the per-variant round metrics
/// all speak it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaseVariant {
    /// Oblivious firing (every trigger fires once, always inventing
    /// fresh nulls), re-enumerating every premise against the full
    /// instance each round. For s-t tgds this produces the canonical
    /// universal solution of Fagin–Kolaitis–Miller–Popa, which the
    /// paper's examples (1.1, 3.18, 3.19) compute. Kept as the
    /// reference the delta rounds are tested against.
    Naive,
    /// Oblivious firing with delta-driven rounds: after round 0, only
    /// matches using at least one fact inserted in the previous round
    /// are enumerated. Equal results to [`ChaseVariant::Naive`].
    SemiNaive,
    /// The restricted (non-oblivious, "standard") chase with delta
    /// rounds: a trigger whose conclusion is already satisfied in the
    /// live instance is skipped, checked with the compiled
    /// [`SatisfactionPlan`](crate::SatisfactionPlan)s, except where the
    /// check provably fails (DESIGN.md §17). Hom-equivalent to
    /// the oblivious variants on terminating inputs, with smaller
    /// results; terminates on strictly more inputs.
    Restricted,
}

impl Default for ChaseVariant {
    /// [`ChaseVariant::SemiNaive`].
    fn default() -> Self {
        ChaseVariant::SemiNaive
    }
}

impl ChaseVariant {
    /// Every variant, in CLI order. Differential tests sweep this.
    pub const ALL: [ChaseVariant; 3] =
        [ChaseVariant::Naive, ChaseVariant::SemiNaive, ChaseVariant::Restricted];

    /// The wire/CLI name, also used as the `variant` metric label.
    pub fn name(self) -> &'static str {
        match self {
            ChaseVariant::Naive => "naive",
            ChaseVariant::SemiNaive => "semi-naive",
            ChaseVariant::Restricted => "restricted",
        }
    }
}

impl std::fmt::Display for ChaseVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ChaseVariant {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "naive" => Ok(ChaseVariant::Naive),
            "semi-naive" => Ok(ChaseVariant::SemiNaive),
            "restricted" => Ok(ChaseVariant::Restricted),
            other => Err(format!(
                "unknown chase variant {other:?} (expected 'naive', 'semi-naive', or 'restricted')"
            )),
        }
    }
}

/// Variant and budgets for the standard chase.
#[derive(Debug, Clone)]
pub struct ChaseOptions {
    /// Which chase to run.
    pub variant: ChaseVariant,
    /// Maximum number of rounds. Source-to-target tgds always finish in
    /// one round plus one quiescence check.
    pub max_rounds: u64,
    /// Maximum total facts in the chased instance.
    pub max_facts: usize,
    /// Record a [`FiringRecord`] per trigger (provenance: which
    /// dependency, under which assignment, produced which facts).
    /// Off by default — tracing costs memory proportional to the chase.
    pub trace: bool,
    /// Budgets and execution context for the whole run. The budgets
    /// bound each homomorphism search behind premise matching and the
    /// restricted chase's satisfaction checks; when one cuts a search
    /// short the chase returns [`ChaseError::MatchBudgetExhausted`]
    /// rather than an unsound result. The context's cancel token is
    /// checked at the top of every round and inside every search (a
    /// cancelled run returns [`ChaseError::Cancelled`]); its fault
    /// injector drives the `chase.round`, `chase.restricted.check`,
    /// `chase.checkpoint.write` and `hom.search.exhaust` injection
    /// points; its scope label rides on the `chase.run` span.
    /// Unbounded and inert by default.
    pub hom: HomConfig,
    /// Write a resumable snapshot of the round state every N completed
    /// rounds (see [`CheckpointPolicy`]). Off by default.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Resume from a snapshot written by a previous run *of the same
    /// chase* (same input, dependencies, and options). The resumed run
    /// is bit-identical to an uninterrupted one.
    pub resume_from: Option<PathBuf>,
}

impl Default for ChaseOptions {
    fn default() -> Self {
        ChaseOptions::for_variant(ChaseVariant::default())
    }
}

impl ChaseOptions {
    /// Default budgets on a named variant.
    pub fn for_variant(variant: ChaseVariant) -> ChaseOptions {
        ChaseOptions {
            variant,
            max_rounds: 256,
            max_facts: 1_000_000,
            trace: false,
            hom: HomConfig::default(),
            checkpoint: None,
            resume_from: None,
        }
    }
}

/// Provenance of one trigger firing (recorded when
/// [`ChaseOptions::trace`] is set).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiringRecord {
    /// Index of the dependency in the chased set.
    pub dependency: usize,
    /// The universal-variable assignment, as sorted `(var, value)` pairs.
    pub assignment: Vec<(rde_deps::VarId, Value)>,
    /// The conclusion facts this firing produced (after existential
    /// instantiation; some may have existed already).
    pub produced: Vec<rde_model::Fact>,
}

/// Work counters for one executed chase round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Facts that drove this round's matching: the previous round's
    /// insertions under the delta-driven variants (the input size for
    /// round 0), the whole instance under [`ChaseVariant::Naive`].
    pub delta: usize,
    /// Premise matches enumerated during collection: those that pass
    /// the `Constant` guards, which the search applies as it binds
    /// slots, counted before the inequality guards.
    pub matches: u64,
    /// Matches dropped as already fired or already seen this round.
    pub duplicates: u64,
    /// Triggers skipped by the restricted chase's pre-check.
    pub satisfied: u64,
    /// New triggers pending after the merge.
    pub triggers: usize,
    /// Triggers actually fired (restricted rechecks can skip more).
    pub fired: u64,
    /// Facts newly inserted by this round's firings.
    pub inserted: usize,
    /// Homomorphism-search work done this round (premise matching plus
    /// the restricted chase's satisfaction checks and rechecks).
    pub hom: HomStats,
}

/// Result of a chase run.
#[derive(Debug, Clone)]
pub struct ChaseResult {
    /// The chased instance: the input plus all generated facts (an
    /// instance over the combined schema, `(I, J)` in the paper's
    /// notation).
    pub instance: Instance,
    /// Number of triggers fired.
    pub fired: u64,
    /// Number of rounds executed (excluding the final quiescent check).
    pub rounds: u64,
    /// Per-round work counters (one entry per executed round).
    pub round_stats: Vec<RoundStats>,
    /// Total homomorphism-search work across all rounds, including the
    /// final quiescence check (whose round is otherwise not recorded).
    pub hom: HomStats,
    /// Firing provenance (empty unless [`ChaseOptions::trace`]).
    pub provenance: Vec<FiringRecord>,
}

/// Candidate triggers of one dependency collected in one round.
#[derive(Default)]
struct DepCandidates {
    /// New triggers the restricted pre-check found already witnessed.
    satisfied: u64,
    matches: u64,
    duplicates: u64,
    hom: HomStats,
}

/// A round's delta: per relation that grew, the rows `start..end` its
/// firings appended, in relation order. Rows are only ever appended
/// during a chase, so the range holds exactly the round's new facts of
/// that relation, in insertion order.
pub(crate) type Delta = Vec<(RelId, u32, u32)>;

/// Enumerate one dependency's new triggers against `current`, which it
/// only reads. Each new trigger key goes straight into `fired`, the
/// dependency's key arena, so a key met again later in the same round
/// counts as a duplicate; collection is sequential (DESIGN.md §13.2),
/// so nothing else reads `fired` meanwhile. The ids of the new keys
/// that need firing are appended to `pending`. `delta` is `None` for a
/// full enumeration (round 0 / naive) and `Some(ranges)` for a delta
/// round; `check` runs the restricted chase's satisfaction pre-check on
/// each new trigger. Fails with [`ChaseError::MatchBudgetExhausted`] when a
/// search hits `hom`'s budget: a truncated enumeration could silently
/// miss triggers, so the chase refuses to continue from it (and drops
/// `fired` with the rest of the run's state).
fn collect_dep(
    plan: &DependencyPlan,
    current: &Instance,
    fired: &mut RowSet,
    pending: &mut Vec<u32>,
    delta: Option<&[(RelId, u32, u32)]>,
    check: bool,
    hom: &HomConfig,
) -> Result<DepCandidates, ChaseError> {
    let mut out = DepCandidates::default();
    // Shared with the match callback (which stops the enumeration when a
    // satisfaction check runs out of budget) — hence a `Cell`, not a
    // mutable borrow the callback would hold across calls.
    let exhausted: std::cell::Cell<Option<Exhausted>> = std::cell::Cell::new(None);
    {
        let mut stats = HomStats::default();
        let mut on_match = |vals: &[Value]| {
            let (id, new) = fired.insert(vals);
            if !new {
                out.duplicates += 1;
                return true;
            }
            // Deterministic chaos: a campaign firing here models the
            // restricted-chase satisfaction check dying mid-search (a
            // torn index, a poisoned backend). It must surface exactly
            // like a genuine budget cut — a typed error, never a
            // silently unsound skip-or-fire decision.
            if check && hom.ctx.should_inject("chase.restricted.check") {
                exhausted.set(Some(Exhausted::Nodes(0)));
                return false;
            }
            let satisfied = check
                && match plan.satisfaction()[0].satisfiable_budgeted(current, vals, hom, &mut stats)
                {
                    Verdict::Holds => true,
                    Verdict::Fails => false,
                    Verdict::Unknown { budget } => {
                        exhausted.set(Some(budget));
                        return false;
                    }
                };
            if satisfied {
                out.satisfied += 1;
            } else {
                pending.push(id);
            }
            true
        };
        match delta {
            None => {
                let report = plan.premise().for_each_match(current, hom, &mut on_match);
                out.matches += report.matches;
                out.hom += report.stats;
                if exhausted.get().is_none() {
                    exhausted.set(report.exhausted);
                }
            }
            Some(ranges) => {
                let mut seed: Vec<Option<Value>> = Vec::with_capacity(plan.premise().num_vars());
                'atoms: for atom_idx in 0..plan.premise().num_atoms() {
                    let rel = plan.premise().atom_rel(atom_idx);
                    let Some(&(_, start, end)) = ranges.iter().find(|r| r.0 == rel) else {
                        continue;
                    };
                    let Some(data) = current.relation(rel) else {
                        continue;
                    };
                    for row in start..end {
                        if !plan.premise().seed_from_fact(atom_idx, data.row_slice(row), &mut seed)
                        {
                            continue;
                        }
                        let report = plan.premise().for_each_match_seeded(
                            atom_idx,
                            &seed,
                            current,
                            hom,
                            &mut on_match,
                        );
                        out.matches += report.matches;
                        out.hom += report.stats;
                        if exhausted.get().is_none() {
                            exhausted.set(report.exhausted);
                        }
                        if exhausted.get().is_some() {
                            break 'atoms;
                        }
                    }
                }
            }
        }
        out.hom += stats;
    }
    match exhausted.get() {
        Some(budget) => Err(ChaseError::MatchBudgetExhausted { budget }),
        None => Ok(out),
    }
}

/// The rows each relation gained since `before` (the relation lengths
/// at the start of the round), as delta ranges in relation order.
fn grown_rows(current: &Instance, before: &[(RelId, u32)]) -> Delta {
    let mut before = before.iter().peekable();
    let mut delta = Delta::new();
    for (rel, data) in current.relations() {
        while before.next_if(|&&(r, _)| r < rel).is_some() {}
        let start = before.next_if(|&&(r, _)| r == rel).map_or(0, |&(_, len)| len);
        let end = data.len() as u32;
        if end > start {
            delta.push((rel, start, end));
        }
    }
    delta
}

/// Number of facts in a delta.
fn delta_len(delta: &[(RelId, u32, u32)]) -> usize {
    delta.iter().map(|&(_, start, end)| (end - start) as usize).sum()
}

/// Chase `instance` with `dependencies` (each must have exactly one
/// disjunct; guards in premises are honoured).
///
/// Returns the full chased instance over the combined schema. Use
/// [`chase_mapping`] to get the target restriction `chase_M(I)`.
pub fn chase(
    instance: &Instance,
    dependencies: &[Dependency],
    vocab: &mut Vocabulary,
    options: &ChaseOptions,
) -> Result<ChaseResult, ChaseError> {
    for d in dependencies {
        if d.is_disjunctive() {
            return Err(ChaseError::DisjunctionUnsupported);
        }
    }
    // Compile every dependency once: premise variables, guard slots,
    // satisfaction patterns, and conclusion templates all leave the
    // per-round path.
    let plans: Vec<DependencyPlan> = dependencies.iter().map(DependencyPlan::compile).collect();

    // The context's scope label rides on the run span, so one journal
    // shared by many contexts can be demultiplexed per context.
    let run_span = match options.hom.ctx.scope.as_deref() {
        Some(scope) => rde_obs::span(
            "chase.run",
            &[
                ("deps", plans.len().into()),
                ("facts_in", instance.len().into()),
                ("scope", scope.into()),
            ],
        ),
        None => rde_obs::span(
            "chase.run",
            &[("deps", plans.len().into()), ("facts_in", instance.len().into())],
        ),
    };
    let mut current = instance.clone();
    // One key arena per dependency: every trigger key, stored once.
    let mut fired_keys: Vec<RowSet> =
        plans.iter().map(|p| RowSet::new(p.premise().num_vars())).collect();
    // Per dependency, the ids of this round's keys that need firing.
    let mut pending: Vec<Vec<u32>> = vec![Vec::new(); plans.len()];
    let mut fired: u64 = 0;
    let mut rounds: u64 = 0;
    let mut round_stats: Vec<RoundStats> = Vec::new();
    let mut hom_total = HomStats::default();
    let mut provenance: Vec<FiringRecord> = Vec::new();
    // Previous round's insertions; `None` = enumerate everything (the
    // first round, and every round of the naive variant).
    let mut delta: Option<Delta> = None;
    let semi_naive = options.variant != ChaseVariant::Naive;
    let restricted = options.variant == ChaseVariant::Restricted;
    // Per dependency: does the chase run its triggers' satisfaction
    // checks? Only the restricted variant does, and not where they
    // provably fail.
    let checked: Vec<bool> = if restricted {
        never_witnessed(dependencies, instance).into_iter().map(|never| !never).collect()
    } else {
        vec![false; plans.len()]
    };
    // A previous run that crashed (or took an injected fault) between a
    // checkpoint's create and rename strands `<path>.tmp` next to the
    // last complete snapshot. Sweep it before writing or resuming —
    // stale tmp files otherwise accumulate across fault campaigns and a
    // later partial write could be mistaken for in-progress state.
    if let Some(policy) = &options.checkpoint {
        checkpoint::sweep_stale_tmp(&policy.path);
    }
    if let Some(path) = &options.resume_from {
        checkpoint::sweep_stale_tmp(path);
        let widths: Vec<usize> = plans.iter().map(|p| p.premise().num_vars()).collect();
        let snap = checkpoint::load(path, &widths)?;
        if !vocab.resync_null_count(snap.null_count) {
            return Err(ChaseError::Checkpoint {
                message: "snapshot null count conflicts with named nulls".to_owned(),
            });
        }
        current = snap.instance;
        fired_keys = snap.fired_keys;
        fired = snap.fired;
        rounds = snap.rounds;
        round_stats = snap.round_stats;
        hom_total = snap.hom_total;
        provenance = snap.provenance;
        delta = snap.delta;
        rde_obs::event(
            "chase.resumed",
            &[("round", rounds.into()), ("facts", current.len().into())],
        );
    }
    // Reused by every firing: fresh nulls and the conclusion atom being
    // inserted.
    let mut fresh: Vec<Value> = Vec::new();
    let mut atom_buf: Vec<Value> = Vec::new();
    loop {
        if options.hom.ctx.should_inject("chase.round") || options.hom.ctx.is_cancelled() {
            rde_obs::counter!("chase.cancelled").inc();
            rde_obs::event("chase.cancelled", &[("round", rounds.into())]);
            return Err(ChaseError::Cancelled);
        }
        if rounds >= options.max_rounds {
            rde_obs::counter!("chase.budget.rounds_exhausted").inc();
            rde_obs::event("chase.budget_exhausted", &[("kind", "rounds".into())]);
            return Err(ChaseError::RoundBudgetExhausted { rounds: options.max_rounds });
        }
        let delta_facts = delta.as_deref().map_or(current.len(), delta_len);
        let round_span = rde_obs::span(
            "chase.round",
            &[("round", rounds.into()), ("delta", delta_facts.into())],
        );
        let round_start = Instant::now();
        // Phase 1: collect this round's new triggers against the
        // *current* state, in dependency order.
        let collected: Result<Vec<DepCandidates>, ChaseError> = plans
            .iter()
            .zip(&checked)
            .zip(&mut fired_keys)
            .zip(&mut pending)
            .map(|(((p, &check), fired), pending)| {
                pending.clear();
                collect_dep(p, &current, fired, pending, delta.as_deref(), check, &options.hom)
            })
            .collect();
        let per_dep = match collected {
            Ok(per_dep) => per_dep,
            // A search cancelled mid-round surfaces as a match-budget
            // error with a `Cancelled` cause; report it as the
            // cancellation it is.
            Err(ChaseError::MatchBudgetExhausted { budget: Exhausted::Cancelled }) => {
                rde_obs::counter!("chase.cancelled").inc();
                rde_obs::event("chase.cancelled", &[("round", rounds.into())]);
                return Err(ChaseError::Cancelled);
            }
            Err(e) => {
                rde_obs::counter!("chase.budget.match_exhausted").inc();
                rde_obs::event("chase.budget_exhausted", &[("kind", "match".into())]);
                return Err(e);
            }
        };

        // Tally the unsatisfied triggers (collection recorded every key).
        let mut stats = RoundStats { delta: delta_facts, ..RoundStats::default() };
        // Every new trigger of a restricted dependency that runs no
        // checks fires, skipping both its pre-check and its recheck.
        let mut checks_skipped: u64 = 0;
        let journal_on = rde_obs::journal::enabled();
        for (di, cands) in per_dep.into_iter().enumerate() {
            stats.matches += cands.matches;
            stats.duplicates += cands.duplicates;
            stats.hom += cands.hom;
            stats.triggers += pending[di].len();
            if restricted && !checked[di] {
                checks_skipped += 2 * pending[di].len() as u64;
            }
            let triggers = pending[di].len() + cands.satisfied as usize;
            if journal_on && (cands.matches > 0 || triggers > 0) {
                // Per-dependency attribution: which dependency produced
                // how many triggers.
                rde_obs::event(
                    "chase.dep",
                    &[
                        ("round", rounds.into()),
                        ("dep", di.into()),
                        ("matches", cands.matches.into()),
                        ("triggers", triggers.into()),
                    ],
                );
            }
            stats.satisfied += cands.satisfied;
        }
        if stats.triggers == 0 {
            // The quiescence check's search work still counts toward the
            // run total even though no round is recorded for it.
            hom_total += stats.hom;
            round_span.close_with(&[("quiescent", true.into())]);
            run_span.close_with(&[
                ("rounds", rounds.into()),
                ("fired", fired.into()),
                ("facts_out", current.len().into()),
            ]);
            return Ok(ChaseResult {
                instance: current,
                fired,
                rounds,
                round_stats,
                hom: hom_total,
                provenance,
            });
        }
        rounds += 1;

        // Phase 2: fire in canonical order. Sorting by
        // `(dependency, assignment)` pins the fresh-null allocation
        // order, so the naive and semi-naive variants yield the same
        // instance. Keys are read in place from the arenas.
        let before: Vec<(RelId, u32)> = if semi_naive {
            current.relations().map(|(r, d)| (r, d.len() as u32)).collect()
        } else {
            Vec::new()
        };
        for (di, (plan, keys)) in plans.iter().zip(&fired_keys).enumerate() {
            pending[di].sort_unstable_by(|&a, &b| keys.row(a).cmp(keys.row(b)));
            for &id in &pending[di] {
                let vals = keys.row(id);
                if checked[di] {
                    // Same chaos point as the collection-phase pre-check:
                    // the re-check can die too, and must fail just as
                    // loudly.
                    if options.hom.ctx.should_inject("chase.restricted.check") {
                        rde_obs::counter!("chase.budget.match_exhausted").inc();
                        rde_obs::event("chase.budget_exhausted", &[("kind", "recheck".into())]);
                        return Err(ChaseError::MatchBudgetExhausted {
                            budget: Exhausted::Nodes(0),
                        });
                    }
                    // An earlier firing in this round may have satisfied
                    // this trigger already.
                    match plan.satisfaction()[0].satisfiable_budgeted(
                        &current,
                        vals,
                        &options.hom,
                        &mut stats.hom,
                    ) {
                        Verdict::Holds => continue,
                        Verdict::Fails => {}
                        Verdict::Unknown { budget: Exhausted::Cancelled } => {
                            rde_obs::counter!("chase.cancelled").inc();
                            rde_obs::event("chase.cancelled", &[("round", rounds.into())]);
                            return Err(ChaseError::Cancelled);
                        }
                        Verdict::Unknown { budget } => {
                            rde_obs::counter!("chase.budget.match_exhausted").inc();
                            rde_obs::event("chase.budget_exhausted", &[("kind", "recheck".into())]);
                            return Err(ChaseError::MatchBudgetExhausted { budget });
                        }
                    }
                }
                let template = &plan.templates()[0];
                fresh.clear();
                fresh.extend(
                    (0..template.num_existentials()).map(|_| Value::Null(vocab.fresh_null())),
                );
                let mut produced: Vec<Fact> = Vec::new();
                let completed =
                    template.instantiate_into(vals, &fresh, &mut atom_buf, |rel, args| {
                        if options.trace {
                            produced.push(Fact::new(rel, args));
                        }
                        if current.insert_args(rel, args) {
                            stats.inserted += 1;
                        }
                        current.len() <= options.max_facts
                    });
                if !completed {
                    rde_obs::counter!("chase.budget.facts_exhausted").inc();
                    rde_obs::event("chase.budget_exhausted", &[("kind", "facts".into())]);
                    return Err(ChaseError::FactBudgetExhausted { facts: options.max_facts });
                }
                if options.trace {
                    let mut pairs: Vec<(rde_deps::VarId, Value)> =
                        plan.premise().vars().iter().copied().zip(vals.iter().copied()).collect();
                    pairs.sort();
                    provenance.push(FiringRecord { dependency: di, assignment: pairs, produced });
                }
                stats.fired += 1;
                fired += 1;
            }
        }
        hom_total += stats.hom;
        // Metrics are always on (no `trace` feature needed): per-round
        // wall time plus cumulative trigger/fact counters. Each round
        // also lands on a per-variant labeled series so naive /
        // semi-naive / restricted runs are separable in one registry.
        let variant_label = [("variant", options.variant.name())];
        rde_obs::counter!("chase.rounds").inc();
        rde_obs::labeled_counter("chase.rounds", &variant_label).inc();
        rde_obs::counter!("chase.matches").add(stats.matches);
        rde_obs::counter!("chase.triggers.fired").add(stats.fired);
        rde_obs::labeled_counter("chase.triggers.fired", &variant_label).add(stats.fired);
        rde_obs::counter!("chase.facts.inserted").add(stats.inserted as u64);
        if restricted {
            rde_obs::counter!("chase.restricted.checks_skipped").add(checks_skipped);
        }
        rde_obs::histogram!("chase.round.delta").record(stats.delta as u64);
        let round_us = u64::try_from(round_start.elapsed().as_micros()).unwrap_or(u64::MAX);
        rde_obs::histogram!("chase.round.us").record(round_us);
        rde_obs::labeled_histogram("chase.round.us", &variant_label).record(round_us);
        round_span.close_with(&[
            ("matches", stats.matches.into()),
            ("duplicates", stats.duplicates.into()),
            ("triggers", stats.triggers.into()),
            ("fired", stats.fired.into()),
            ("inserted", stats.inserted.into()),
        ]);
        round_stats.push(stats);
        delta = semi_naive.then(|| grown_rows(&current, &before));
        if let Some(policy) = &options.checkpoint {
            if policy.every > 0 && rounds.is_multiple_of(policy.every) {
                checkpoint::save(
                    &policy.path,
                    &options.hom.ctx.injector,
                    &SnapshotRef {
                        rounds,
                        fired,
                        null_count: vocab.null_count(),
                        hom_total,
                        instance: &current,
                        delta: delta.as_deref(),
                        fired_keys: &fired_keys,
                        round_stats: &round_stats,
                        provenance: &provenance,
                    },
                )?;
                rde_obs::counter!("chase.checkpoints").inc();
                rde_obs::event("chase.checkpoint", &[("round", rounds.into())]);
            }
        }
    }
}

/// `chase_M(I)`: chase a source instance with a schema mapping and
/// return the **target restriction** — the canonical (extended)
/// universal solution for `I` w.r.t. `M` (Prop 3.11).
pub fn chase_mapping(
    instance: &Instance,
    mapping: &SchemaMapping,
    vocab: &mut Vocabulary,
    options: &ChaseOptions,
) -> Result<Instance, ChaseError> {
    let result = chase(instance, &mapping.dependencies, vocab, options)?;
    Ok(result.instance.restrict_to(&mapping.target))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rde_deps::parse_mapping;
    use rde_faults::ExecContext;
    use rde_model::parse::parse_instance;

    fn equivalent(a: &Instance, b: &Instance) -> bool {
        rde_hom::hom_equivalent(a, b, &HomConfig::default(), &mut HomStats::default()).holds()
    }

    fn chase_text(mapping_text: &str, instance_text: &str) -> (Vocabulary, Instance) {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, mapping_text).unwrap();
        let i = parse_instance(&mut v, instance_text).unwrap();
        let j = chase_mapping(&i, &m, &mut v, &ChaseOptions::default()).unwrap();
        (v, j)
    }

    #[test]
    fn example_1_1_forward() {
        // P(x,y,z) -> Q(x,y) & R(y,z) on {P(a,b,c)} gives {Q(a,b), R(b,c)}.
        let (mut v, j) =
            chase_text("source: P/3\ntarget: Q/2, R/2\nP(x,y,z) -> Q(x,y) & R(y,z)", "P(a,b,c)");
        let expected = parse_instance(&mut v, "Q(a,b)\nR(b,c)").unwrap();
        assert_eq!(j, expected);
    }

    #[test]
    fn example_1_1_reverse() {
        // Reverse tgds on U = {Q(a,b), R(b,c)} give {P(a,b,Z), P(X,b,c)}.
        let mut v = Vocabulary::new();
        let m = parse_mapping(
            &mut v,
            "source: Q/2, R/2\ntarget: P/3\nQ(x,y) -> exists z . P(x,y,z)\nR(y,z) -> exists x . P(x,y,z)",
        )
        .unwrap();
        let u = parse_instance(&mut v, "Q(a,b)\nR(b,c)").unwrap();
        let vres = chase_mapping(&u, &m, &mut v, &ChaseOptions::default()).unwrap();
        assert_eq!(vres.len(), 2);
        assert!(!vres.is_ground());
        let p = v.find_relation("P").unwrap();
        let (a, b, c) = (v.const_value("a"), v.const_value("b"), v.const_value("c"));
        let facts: Vec<_> = vres.canonical_facts();
        // One fact P(a, b, Z), one fact P(X, b, c), Z and X fresh nulls.
        assert!(facts.iter().any(|f| f.relation() == p
            && f.args()[0] == a
            && f.args()[1] == b
            && f.args()[2].is_null()));
        assert!(facts.iter().any(|f| f.relation() == p
            && f.args()[0].is_null()
            && f.args()[1] == b
            && f.args()[2] == c));
    }

    #[test]
    fn existentials_get_distinct_fresh_nulls_per_firing() {
        let (_, j) =
            chase_text("source: P/1\ntarget: Q/2\nP(x) -> exists y . Q(x, y)", "P(a)\nP(b)");
        let nulls = j.nulls();
        assert_eq!(j.len(), 2);
        assert_eq!(nulls.len(), 2, "each firing must invent its own null");
    }

    #[test]
    fn shared_existential_within_one_firing() {
        let (_, j) = chase_text(
            "source: P/1\ntarget: Q/2, R/2\nP(x) -> exists y . Q(x, y) & R(y, x)",
            "P(a)",
        );
        assert_eq!(j.len(), 2);
        assert_eq!(j.nulls().len(), 1, "the two conclusion atoms share one null");
    }

    #[test]
    fn oblivious_fires_once_per_trigger() {
        // Even with repeated chasing rounds, each trigger fires once.
        let (_, j) = chase_text("source: P/1\ntarget: Q/1\nP(x) -> Q(x)", "P(a)");
        assert_eq!(j.len(), 1);
    }

    #[test]
    fn standard_mode_skips_satisfied_triggers() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/2\ntarget: Q/2\nP(x, y) -> exists z . Q(x, z)")
            .unwrap();
        let i = parse_instance(&mut v, "P(a, b)\nP(a, c)").unwrap();
        // This test is *about* the oblivious/standard contrast, so both
        // sides name their variant.
        let oblivious =
            chase_mapping(&i, &m, &mut v, &ChaseOptions::for_variant(ChaseVariant::SemiNaive))
                .unwrap();
        assert_eq!(oblivious.len(), 2);
        let opts = ChaseOptions::for_variant(ChaseVariant::Restricted);
        let standard = chase_mapping(&i, &m, &mut v, &opts).unwrap();
        // Second trigger (a, c) is satisfied by the first firing's Q(a, Z).
        assert_eq!(standard.len(), 1);
        assert!(equivalent(&oblivious, &standard));
    }

    #[test]
    fn guards_restrict_firing() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(
            &mut v,
            "source: R/2\ntarget: P/1\nR(x, y) & Constant(x) & x != y -> P(x)",
        )
        .unwrap();
        let i = parse_instance(&mut v, "R(a, a)\nR(a, b)\nR(?n, b)").unwrap();
        let j = chase_mapping(&i, &m, &mut v, &ChaseOptions::default()).unwrap();
        // Only R(a, b) passes both guards.
        let expected = parse_instance(&mut v, "P(a)").unwrap();
        assert_eq!(j, expected);
    }

    #[test]
    fn null_source_values_propagate() {
        // Sources with nulls chase like any other value (the point of the paper).
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/2\ntarget: Q/2\nP(x,y) -> Q(y,x)").unwrap();
        let i = parse_instance(&mut v, "P(?w, ?z)").unwrap();
        let j = chase_mapping(&i, &m, &mut v, &ChaseOptions::default()).unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(j.nulls().len(), 2);
    }

    #[test]
    fn same_schema_chase_reaches_fixpoint() {
        // Transitivity over a small chain, restricted chase.
        let mut v = Vocabulary::new();
        let e = v.relation("E", 2).unwrap();
        let dep = rde_deps::parse_dependency(&mut v, "E(x, y) & E(y, z) -> E(x, z)").unwrap();
        let i = parse_instance(&mut v, "E(a,b)\nE(b,c)\nE(c,d)").unwrap();
        let opts = ChaseOptions::for_variant(ChaseVariant::Restricted);
        let r = chase(&i, &[dep], &mut v, &opts).unwrap();
        assert_eq!(r.instance.relation(e).unwrap().len(), 6); // transitive closure of a 4-chain
    }

    #[test]
    fn round_budget_is_enforced() {
        // E(x,y) -> exists z . E(y,z) diverges under the oblivious chase.
        let mut v = Vocabulary::new();
        let dep = rde_deps::parse_dependency(&mut v, "E(x, y) -> exists z . E(y, z)").unwrap();
        let i = parse_instance(&mut v, "E(a,b)").unwrap();
        let opts = ChaseOptions { max_rounds: 10, ..ChaseOptions::default() };
        let err = chase(&i, &[dep], &mut v, &opts).unwrap_err();
        assert_eq!(err, ChaseError::RoundBudgetExhausted { rounds: 10 });
    }

    #[test]
    fn fact_budget_is_enforced() {
        let mut v = Vocabulary::new();
        let dep = rde_deps::parse_dependency(&mut v, "P(x) -> Q(x, x)").unwrap();
        let i = parse_instance(&mut v, "P(a)\nP(b)\nP(c)").unwrap();
        let opts = ChaseOptions { max_facts: 4, ..ChaseOptions::default() };
        let err = chase(&i, &[dep], &mut v, &opts).unwrap_err();
        assert_eq!(err, ChaseError::FactBudgetExhausted { facts: 4 });
    }

    #[test]
    fn provenance_explains_every_generated_fact() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(
            &mut v,
            "source: P/2\ntarget: Q/2, R/1\nP(x, y) -> exists z . Q(x, z)\nP(x, y) -> R(y)",
        )
        .unwrap();
        let i = parse_instance(&mut v, "P(a, b)\nP(b, c)").unwrap();
        let opts = ChaseOptions { trace: true, ..ChaseOptions::default() };
        let r = chase(&i, &m.dependencies, &mut v, &opts).unwrap();
        assert_eq!(r.provenance.len() as u64, r.fired);
        // Every generated (non-input) fact appears in some record, and
        // every recorded fact is in the result.
        let generated = r.instance.difference(&i);
        for f in generated.facts() {
            assert!(
                r.provenance.iter().any(|rec| rec.produced.contains(&f)),
                "unexplained fact {f:?}"
            );
        }
        for rec in &r.provenance {
            assert!(rec.dependency < m.dependencies.len());
            assert!(!rec.assignment.is_empty());
            for f in &rec.produced {
                assert!(r.instance.contains(f));
            }
        }
        // Tracing off by default: no records.
        let r2 = chase(&i, &m.dependencies, &mut v, &ChaseOptions::default()).unwrap();
        assert!(r2.provenance.is_empty());
    }

    #[test]
    fn disjunctive_dependency_is_rejected() {
        let mut v = Vocabulary::new();
        let dep = rde_deps::parse_dependency(&mut v, "P(x) -> Q(x) | R(x)").unwrap();
        let err = chase(&Instance::new(), &[dep], &mut v, &ChaseOptions::default()).unwrap_err();
        assert_eq!(err, ChaseError::DisjunctionUnsupported);
    }

    #[test]
    fn chase_result_is_a_solution() {
        // The chased pair (I, J) satisfies Σ: re-chasing is quiescent.
        let mut v = Vocabulary::new();
        let m =
            parse_mapping(&mut v, "source: P/2\ntarget: Q/2\nP(x,y) -> exists z . Q(x,z) & Q(z,y)")
                .unwrap();
        let i = parse_instance(&mut v, "P(a,b)\nP(b,a)").unwrap();
        let r1 = chase(&i, &m.dependencies, &mut v, &ChaseOptions::default()).unwrap();
        // A satisfaction-checking re-chase is quiescent: (I, J) ⊨ Σ.
        let opts = ChaseOptions::for_variant(ChaseVariant::Restricted);
        let r2 = chase(&r1.instance, &m.dependencies, &mut v, &opts).unwrap();
        assert_eq!(r1.instance, r2.instance);
        assert_eq!(r2.fired, 0, "every trigger is already satisfied");
    }

    #[test]
    fn hom_budget_exhaustion_is_an_error_not_a_panic() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/2\ntarget: Q/2\nP(x,y) -> Q(x,y)").unwrap();
        let i = parse_instance(&mut v, "P(a,b)\nP(b,c)").unwrap();
        // A zero node budget cuts the very first premise-match search:
        // the chase reports it as an error instead of a wrong result.
        let opts = ChaseOptions {
            hom: HomConfig { node_budget: Some(0), ..HomConfig::default() },
            ..ChaseOptions::default()
        };
        let err = chase(&i, &m.dependencies, &mut v, &opts).unwrap_err();
        assert!(matches!(err, ChaseError::MatchBudgetExhausted { budget: Exhausted::Nodes(0) }));
        // An adequate budget completes normally.
        let opts = ChaseOptions {
            hom: HomConfig { node_budget: Some(1_000_000), ..HomConfig::default() },
            ..ChaseOptions::default()
        };
        let r = chase(&i, &m.dependencies, &mut v, &opts).unwrap();
        assert_eq!(r.instance.len(), 4);
        assert!(r.hom.nodes > 0);
    }

    #[test]
    fn standard_mode_recheck_respects_the_budget() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/2\ntarget: Q/2\nP(x, y) -> exists z . Q(x, z)")
            .unwrap();
        let i = parse_instance(&mut v, "P(a, b)\nP(a, c)").unwrap();
        let opts = ChaseOptions {
            hom: HomConfig { node_budget: Some(1), ..HomConfig::default() },
            ..ChaseOptions::for_variant(ChaseVariant::Restricted)
        };
        // Budget 1 lets round 0's trivially-failing pre-checks through
        // but cannot complete every later satisfaction search; the run
        // must end in Ok (quiescent) or MatchBudgetExhausted — never a
        // panic or a silently wrong instance.
        match chase(&i, &m.dependencies, &mut v, &opts) {
            Ok(r) => assert!(equivalent(
                &r.instance.restrict_to(&m.target),
                &chase_mapping(&i, &m, &mut v, &ChaseOptions::default()).unwrap()
            )),
            Err(e) => assert!(matches!(e, ChaseError::MatchBudgetExhausted { .. })),
        }
    }

    #[test]
    fn chase_result_aggregates_hom_stats() {
        let mut v = Vocabulary::new();
        let dep = rde_deps::parse_dependency(&mut v, "T(x,y) & T(y,z) -> T(x,z)").unwrap();
        let i = parse_instance(&mut v, "T(a,b)\nT(b,c)\nT(c,d)").unwrap();
        // Naive variant: the final quiescence check re-enumerates the
        // full instance, so its work is visible in the total.
        let opts = ChaseOptions::for_variant(ChaseVariant::Naive);
        let r = chase(&i, &[dep], &mut v, &opts).unwrap();
        let per_round: u64 = r.round_stats.iter().map(|s| s.hom.nodes).sum();
        assert!(per_round > 0, "premise matching does search work");
        // The total includes the final quiescence check on top of the
        // recorded rounds.
        assert!(r.hom.nodes > per_round);
    }

    #[test]
    fn cancelled_token_stops_the_chase_with_a_typed_error() {
        let mut v = Vocabulary::new();
        // Divergent without a budget: cancellation is the only way out.
        let dep = rde_deps::parse_dependency(&mut v, "E(x, y) -> exists z . E(y, z)").unwrap();
        let i = parse_instance(&mut v, "E(a,b)").unwrap();
        let under = |cancel: rde_faults::CancelToken| ChaseOptions {
            hom: HomConfig {
                ctx: ExecContext::default().with_cancel(cancel),
                ..HomConfig::default()
            },
            max_rounds: u64::MAX,
            ..ChaseOptions::default()
        };
        let token = rde_faults::CancelToken::new();
        token.cancel();
        assert_eq!(
            chase(&i, std::slice::from_ref(&dep), &mut v, &under(token)).unwrap_err(),
            ChaseError::Cancelled
        );
        // An already-expired deadline cancels at the first round check.
        let expired = rde_faults::CancelToken::with_deadline(std::time::Duration::ZERO);
        assert_eq!(
            chase(&i, std::slice::from_ref(&dep), &mut v, &under(expired)).unwrap_err(),
            ChaseError::Cancelled
        );
        // A live but uncancelled token does not disturb a normal run.
        let copy = rde_deps::parse_dependency(&mut v, "E(x, y) -> F(x, y)").unwrap();
        let r = chase(&i, &[copy], &mut v, &under(rde_faults::CancelToken::new())).unwrap();
        assert_eq!(r.fired, 1);
    }

    #[test]
    fn resume_rolls_back_nulls_invented_after_the_checkpoint() {
        let mut v = Vocabulary::new();
        let deps: Vec<Dependency> = ["T(x,y) & T(y,z) -> T(x,z)", "T(x,y) -> exists w . S(y, w)"]
            .iter()
            .map(|d| rde_deps::parse_dependency(&mut v, d).unwrap())
            .collect();
        let i = parse_instance(&mut v, "T(a,b)\nT(b,c)\nT(c,d)\nT(d,e)").unwrap();
        let mut v_ref = v.clone();
        let trace_opts = ChaseOptions { trace: true, ..ChaseOptions::default() };
        let straight = chase(&i, &deps, &mut v_ref, &trace_opts).unwrap();
        assert!(straight.rounds >= 2, "need a multi-round chase to crash mid-run");

        // Crash mid-round via the fact budget: by then the run has
        // checkpointed every completed round but also invented fresh
        // nulls the snapshot does not know about.
        let path = std::env::temp_dir().join(format!("rde-resync-{}.ckpt", std::process::id()));
        let kill = ChaseOptions {
            trace: true,
            max_facts: straight.instance.len() - 1,
            checkpoint: Some(crate::CheckpointPolicy::new(&path, 1)),
            ..ChaseOptions::default()
        };
        let err = chase(&i, &deps, &mut v, &kill).unwrap_err();
        assert!(matches!(err, ChaseError::FactBudgetExhausted { .. }));

        // Resume with the *same* (dirty) vocabulary: resync truncates
        // the anonymous nulls past the snapshot, so the resumed run
        // re-invents them with the same ids and lands on the straight
        // run's exact instance and provenance.
        let resume = ChaseOptions {
            trace: true,
            resume_from: Some(path.clone()),
            ..ChaseOptions::default()
        };
        let resumed = chase(&i, &deps, &mut v, &resume).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(resumed.instance, straight.instance);
        assert_eq!(resumed.fired, straight.fired);
        assert_eq!(resumed.rounds, straight.rounds);
        assert_eq!(resumed.round_stats, straight.round_stats);
        assert_eq!(resumed.provenance, straight.provenance);
        assert_eq!(v.null_count(), v_ref.null_count());
    }

    #[test]
    fn resume_rejects_a_snapshot_for_a_different_dependency_set() {
        let mut v = Vocabulary::new();
        let dep = rde_deps::parse_dependency(&mut v, "T(x,y) & T(y,z) -> T(x,z)").unwrap();
        let i = parse_instance(&mut v, "T(a,b)\nT(b,c)\nT(c,d)").unwrap();
        let path = std::env::temp_dir().join(format!("rde-mismatch-{}.ckpt", std::process::id()));
        let opts = ChaseOptions {
            checkpoint: Some(crate::CheckpointPolicy::new(&path, 1)),
            ..ChaseOptions::default()
        };
        chase(&i, std::slice::from_ref(&dep), &mut v, &opts).unwrap();
        // One dependency in the snapshot, two in the resumed chase.
        let extra = rde_deps::parse_dependency(&mut v, "T(x,y) -> U(x)").unwrap();
        let resume = ChaseOptions { resume_from: Some(path.clone()), ..ChaseOptions::default() };
        let err = chase(&i, &[dep, extra], &mut v, &resume).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, ChaseError::Checkpoint { .. }));
    }

    #[test]
    fn variant_names_round_trip() {
        for v in ChaseVariant::ALL {
            assert_eq!(ChaseOptions::for_variant(v).variant, v);
            assert_eq!(v.name().parse::<ChaseVariant>().unwrap(), v);
        }
        assert_eq!(ChaseOptions::default().variant, ChaseVariant::default());
        assert!("oblivious".parse::<ChaseVariant>().is_err());
    }

    #[test]
    fn restricted_variant_matches_standard_mode_results() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/2\ntarget: Q/2\nP(x, y) -> exists z . Q(x, z)")
            .unwrap();
        let i = parse_instance(&mut v, "P(a, b)\nP(a, c)\nP(b, c)").unwrap();
        let restricted =
            chase_mapping(&i, &m, &mut v, &ChaseOptions::for_variant(ChaseVariant::Restricted))
                .unwrap();
        assert_eq!(restricted.len(), 2, "one Q per distinct first component");
        let naive =
            chase_mapping(&i, &m, &mut v, &ChaseOptions::for_variant(ChaseVariant::Naive)).unwrap();
        assert!(equivalent(&naive, &restricted));
    }

    #[test]
    fn round_stats_account_for_the_work() {
        let mut v = Vocabulary::new();
        let dep = rde_deps::parse_dependency(&mut v, "T(x,y) & T(y,z) -> T(x,z)").unwrap();
        let i = parse_instance(&mut v, "T(a,b)\nT(b,c)\nT(c,d)").unwrap();
        let r = chase(&i, &[dep], &mut v, &ChaseOptions::default()).unwrap();
        assert_eq!(r.round_stats.len() as u64, r.rounds);
        assert_eq!(r.round_stats.iter().map(|s| s.fired).sum::<u64>(), r.fired);
        assert_eq!(r.round_stats[0].delta, 3, "round 0 is driven by the input");
        let total_inserted: usize = r.round_stats.iter().map(|s| s.inserted).sum();
        assert_eq!(i.len() + total_inserted, r.instance.len());
        // Later rounds are delta-driven: their delta is the previous
        // round's insertions.
        for w in r.round_stats.windows(2) {
            assert_eq!(w[1].delta, w[0].inserted);
        }
    }
}

//! The standard chase with (non-disjunctive) dependencies.
//!
//! The engine compiles every dependency once (a [`PremisePlan`] +
//! [`SatisfactionPlan`] + [`FiringTemplate`]) and then runs rounds in
//! two phases:
//!
//! 1. **Collect** — enumerate premise matches per dependency. The
//!    default [`ChaseStrategy::SemiNaive`] strategy enumerates, after
//!    round 0, only matches that use at least one fact inserted in the
//!    previous round (seed each premise atom in turn from the delta and
//!    match the rest against the full instance); every match over older
//!    facts was enumerated in the round where its newest fact was delta
//!    and is recorded in `fired_keys`. Collection is read-only, so it
//!    fans out over [`ChaseOptions::threads`] scoped worker threads,
//!    and the per-dependency candidate lists are merged in dependency
//!    order — bit-identical results at any thread count.
//! 2. **Fire** — sort the new triggers by `(dependency, assignment)`
//!    and fire them sequentially. Fresh nulls are allocated in firing
//!    order, so the canonical sort makes naive, semi-naive, and
//!    parallel runs produce **equal** instances, not merely
//!    hom-equivalent ones.

use std::path::PathBuf;
use std::time::Instant;

use rde_deps::{Dependency, SchemaMapping};
use rde_faults::ExecContext;
use rde_hom::{Exhausted, HomConfig, HomStats, Verdict};
use rde_model::fx::{FxHashMap, FxHashSet};
use rde_model::{Fact, Instance, RelId, Value, Vocabulary};

use crate::checkpoint::{self, CheckpointPolicy, SnapshotRef};
use crate::plan::{FiringTemplate, PremisePlan, SatisfactionPlan};
use crate::ChaseError;

/// Trigger-firing discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChaseMode {
    /// Fire every trigger exactly once, always inventing fresh nulls
    /// (the *naive/oblivious* chase). For s-t tgds this produces the
    /// canonical universal solution of Fagin–Kolaitis–Miller–Popa, which
    /// the paper's examples (1.1, 3.18, 3.19) compute; it is the default.
    #[default]
    Oblivious,
    /// Fire a trigger only if no extension of its assignment already
    /// satisfies the conclusion (the *standard/restricted* chase).
    /// Produces smaller, hom-equivalent results; useful when chasing
    /// with same-schema dependency sets.
    Standard,
}

/// Trigger-enumeration strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChaseStrategy {
    /// Re-enumerate every premise against the full instance each round.
    /// Kept for ablation; the results are identical to
    /// [`ChaseStrategy::SemiNaive`].
    Naive,
    /// Delta-driven rounds: after round 0, only enumerate matches using
    /// at least one fact inserted in the previous round.
    #[default]
    SemiNaive,
}

/// A named point in the Grahne–Onet chase design space: the selector
/// the CLI (`--variant`), the serve `variant` request header, and the
/// per-variant round metrics all speak. Each variant resolves to a
/// ([`ChaseMode`], [`ChaseStrategy`]) pair on [`ChaseOptions`]; the two
/// axes stay independently settable for ablation, and
/// [`ChaseOptions::variant`] maps any combination back to its name
/// (every Standard-mode run reports as `restricted`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaseVariant {
    /// Oblivious firing, full re-enumeration every round
    /// ([`ChaseMode::Oblivious`] + [`ChaseStrategy::Naive`]).
    Naive,
    /// Oblivious firing, delta-driven rounds
    /// ([`ChaseMode::Oblivious`] + [`ChaseStrategy::SemiNaive`]).
    SemiNaive,
    /// The restricted (non-oblivious) chase: a trigger whose conclusion
    /// is already satisfied in the live instance is skipped, checked
    /// with the compiled [`SatisfactionPlan`]s
    /// ([`ChaseMode::Standard`] + [`ChaseStrategy::SemiNaive`]).
    /// Hom-equivalent to the oblivious variants on terminating inputs,
    /// with smaller results; terminates on strictly more inputs.
    Restricted,
}

impl Default for ChaseVariant {
    /// [`ChaseVariant::SemiNaive`] normally. The `restricted-default`
    /// cargo feature flips it to [`ChaseVariant::Restricted`] so the
    /// whole test suite replays under the restricted chase; tests about
    /// a *specific* variant's semantics must name it explicitly.
    fn default() -> Self {
        if cfg!(feature = "restricted-default") {
            ChaseVariant::Restricted
        } else {
            ChaseVariant::SemiNaive
        }
    }
}

impl ChaseVariant {
    /// Every variant, in CLI order. Differential tests sweep this.
    pub const ALL: [ChaseVariant; 3] =
        [ChaseVariant::Naive, ChaseVariant::SemiNaive, ChaseVariant::Restricted];

    /// The firing discipline this variant resolves to.
    pub fn mode(self) -> ChaseMode {
        match self {
            ChaseVariant::Naive | ChaseVariant::SemiNaive => ChaseMode::Oblivious,
            ChaseVariant::Restricted => ChaseMode::Standard,
        }
    }

    /// The trigger-enumeration strategy this variant resolves to.
    pub fn strategy(self) -> ChaseStrategy {
        match self {
            ChaseVariant::Naive => ChaseStrategy::Naive,
            ChaseVariant::SemiNaive | ChaseVariant::Restricted => ChaseStrategy::SemiNaive,
        }
    }

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

/// Budgets, mode, and strategy for the standard chase.
#[derive(Debug, Clone)]
pub struct ChaseOptions {
    /// Firing discipline.
    pub mode: ChaseMode,
    /// Trigger-enumeration strategy.
    pub strategy: ChaseStrategy,
    /// Worker threads for the collection phase: `1` = in-place, `0` =
    /// all available parallelism. Results do not depend on this value.
    pub threads: usize,
    /// Maximum number of parallel rounds. Source-to-target tgds always
    /// finish in one round plus one quiescence check.
    pub max_rounds: u64,
    /// Maximum total facts in the chased instance.
    pub max_facts: usize,
    /// Record a [`FiringRecord`] per trigger (provenance: which
    /// dependency, under which assignment, produced which facts).
    /// Off by default — tracing costs memory proportional to the chase.
    pub trace: bool,
    /// Budgets for the homomorphism searches behind premise matching and
    /// Standard-mode satisfaction checks. Unbounded by default; when a
    /// budget cuts a search short the chase returns
    /// [`ChaseError::MatchBudgetExhausted`] rather than an unsound
    /// result.
    pub hom: HomConfig,
    /// Scoped execution context for this chase. Its cancel token is
    /// checked at the top of every round and propagated into the
    /// round's homomorphism searches (unless [`ChaseOptions::hom`]
    /// already carries its own live context); its fault injector
    /// drives the `chase.round` and `chase.checkpoint.write` injection
    /// points. A cancelled run returns [`ChaseError::Cancelled`].
    /// Inert by default.
    pub ctx: ExecContext,
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
        let variant = ChaseVariant::default();
        ChaseOptions {
            mode: variant.mode(),
            strategy: variant.strategy(),
            threads: 1,
            max_rounds: 256,
            max_facts: 1_000_000,
            trace: false,
            hom: HomConfig::default(),
            ctx: ExecContext::default(),
            checkpoint: None,
            resume_from: None,
        }
    }
}

impl ChaseOptions {
    /// Default options resolved for a named variant.
    pub fn for_variant(variant: ChaseVariant) -> ChaseOptions {
        ChaseOptions::default().with_variant(variant)
    }

    /// Set the (mode, strategy) pair from a named variant.
    #[must_use]
    pub fn with_variant(mut self, variant: ChaseVariant) -> ChaseOptions {
        self.mode = variant.mode();
        self.strategy = variant.strategy();
        self
    }

    /// The named variant these options occupy. The Standard firing
    /// discipline defines the restricted chase, so any Standard-mode
    /// combination reports as [`ChaseVariant::Restricted`] regardless
    /// of enumeration strategy.
    pub fn variant(&self) -> ChaseVariant {
        match (self.mode, self.strategy) {
            (ChaseMode::Standard, _) => ChaseVariant::Restricted,
            (ChaseMode::Oblivious, ChaseStrategy::Naive) => ChaseVariant::Naive,
            (ChaseMode::Oblivious, ChaseStrategy::SemiNaive) => ChaseVariant::SemiNaive,
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
    /// insertions under [`ChaseStrategy::SemiNaive`] (the input size
    /// for round 0), the whole instance under [`ChaseStrategy::Naive`].
    pub delta: usize,
    /// Premise matches enumerated during collection (pre-guard).
    pub matches: u64,
    /// Matches dropped as already fired or already seen this round.
    pub duplicates: u64,
    /// Triggers skipped by the [`ChaseMode::Standard`] pre-check.
    pub satisfied: u64,
    /// New triggers pending after the merge.
    pub triggers: usize,
    /// Triggers actually fired (Standard-mode rechecks can skip more).
    pub fired: u64,
    /// Facts newly inserted by this round's firings.
    pub inserted: usize,
    /// Homomorphism-search work done this round (premise matching plus
    /// Standard-mode satisfaction checks and rechecks).
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

/// A dependency compiled for the chase hot path: premise plan,
/// Standard-mode satisfaction check, and firing template, plus the
/// hoisted universal-variable list (slot order).
struct DepPlan {
    premise: PremisePlan,
    satisfaction: SatisfactionPlan,
    template: FiringTemplate,
}

/// Candidate triggers of one dependency collected in one round.
#[derive(Default)]
struct DepCandidates {
    /// `(assignment, satisfied)`: slot-ordered values, and whether the
    /// Standard pre-check found the conclusion already witnessed.
    list: Vec<(Vec<Value>, bool)>,
    matches: u64,
    duplicates: u64,
    hom: HomStats,
}

/// A round's delta facts grouped by relation, built once per round and
/// shared (read-only) by every dependency's collection: seeding atom `k`
/// touches only the delta facts of atom `k`'s relation instead of
/// filtering the full delta per atom.
/// Per-relation order is the delta's insertion order, so the seeded
/// enumeration visits exactly the facts the ungrouped scan would have,
/// in the same order — required for bit-identical trigger order.
struct DeltaBuckets<'a> {
    facts: &'a [Fact],
    by_rel: FxHashMap<RelId, Vec<u32>>,
}

impl<'a> DeltaBuckets<'a> {
    fn new(facts: &'a [Fact]) -> Self {
        let mut by_rel: FxHashMap<RelId, Vec<u32>> = FxHashMap::default();
        for (i, f) in facts.iter().enumerate() {
            by_rel.entry(f.relation()).or_default().push(i as u32);
        }
        DeltaBuckets { facts, by_rel }
    }

    fn for_rel(&self, rel: RelId) -> impl Iterator<Item = &'a Fact> + '_ {
        self.by_rel.get(&rel).into_iter().flatten().map(|&i| &self.facts[i as usize])
    }
}

/// Enumerate one dependency's new triggers against `current`,
/// read-only. `delta` is `None` for a full enumeration (round 0 /
/// naive) and `Some(buckets)` for a semi-naive delta round. Fails with
/// [`ChaseError::MatchBudgetExhausted`] when a search hits `hom`'s
/// budget: a truncated enumeration could silently miss triggers, so the
/// chase refuses to continue from it.
fn collect_dep(
    di: usize,
    plan: &DepPlan,
    current: &Instance,
    fired_keys: &[FxHashSet<Vec<Value>>],
    delta: Option<&DeltaBuckets<'_>>,
    mode: ChaseMode,
    hom: &HomConfig,
) -> Result<DepCandidates, ChaseError> {
    let mut out = DepCandidates::default();
    let mut local: FxHashSet<Vec<Value>> = FxHashSet::default();
    let fired = &fired_keys[di];
    // Shared with the match callback (which stops the enumeration when a
    // satisfaction check runs out of budget) — hence a `Cell`, not a
    // mutable borrow the callback would hold across calls.
    let exhausted: std::cell::Cell<Option<Exhausted>> = std::cell::Cell::new(None);
    {
        let mut stats = HomStats::default();
        let mut on_match = |vals: &[Value]| {
            if fired.contains(vals) || !local.insert(vals.to_vec()) {
                out.duplicates += 1;
                return true;
            }
            // Deterministic chaos: a campaign firing here models the
            // restricted-chase satisfaction check dying mid-search (a
            // torn index, a poisoned backend). It must surface exactly
            // like a genuine budget cut — a typed error, never a
            // silently unsound skip-or-fire decision.
            if mode == ChaseMode::Standard && hom.ctx.should_inject("chase.restricted.check") {
                exhausted.set(Some(Exhausted::Nodes(0)));
                return false;
            }
            let satisfied = mode == ChaseMode::Standard
                && match plan.satisfaction.satisfiable_budgeted(current, vals, hom, &mut stats) {
                    Verdict::Holds => true,
                    Verdict::Fails => false,
                    Verdict::Unknown { budget } => {
                        exhausted.set(Some(budget));
                        return false;
                    }
                };
            out.list.push((vals.to_vec(), satisfied));
            true
        };
        match delta {
            None => {
                let report = plan.premise.for_each_match_budgeted(current, hom, &mut on_match);
                out.matches += report.matches;
                out.hom += report.stats;
                if exhausted.get().is_none() {
                    exhausted.set(report.exhausted);
                }
            }
            Some(db) => {
                'atoms: for atom_idx in 0..plan.premise.num_atoms() {
                    let rel = plan.premise.atom_rel(atom_idx);
                    for fact in db.for_rel(rel) {
                        if let Some(seed) = plan.premise.seed_from_fact(atom_idx, fact.args()) {
                            let report = plan.premise.for_each_match_seeded_budgeted(
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
        }
        out.hom += stats;
    }
    match exhausted.get() {
        Some(budget) => Err(ChaseError::MatchBudgetExhausted { budget }),
        None => Ok(out),
    }
}

pub(crate) fn effective_threads(requested: usize, n_deps: usize) -> usize {
    let t = if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    };
    t.min(n_deps.max(1))
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
    let plans: Vec<DepPlan> = dependencies
        .iter()
        .map(|d| {
            let premise = PremisePlan::compile(&d.premise);
            let satisfaction = SatisfactionPlan::compile(&premise, &d.disjuncts[0]);
            let template = FiringTemplate::compile(&premise, &d.disjuncts[0]);
            DepPlan { premise, satisfaction, template }
        })
        .collect();

    // The context's scope label rides on the run span, so one journal
    // shared by many contexts can be demultiplexed per context.
    let run_span = match options.ctx.scope.as_deref() {
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
    let mut fired_keys: Vec<FxHashSet<Vec<Value>>> = vec![FxHashSet::default(); plans.len()];
    let mut fired: u64 = 0;
    let mut rounds: u64 = 0;
    let mut round_stats: Vec<RoundStats> = Vec::new();
    let mut hom_total = HomStats::default();
    let mut provenance: Vec<FiringRecord> = Vec::new();
    // Previous round's insertions; `None` = enumerate everything (the
    // first round, and every round under the naive strategy).
    let mut delta: Option<Vec<Fact>> = None;
    let semi_naive = options.strategy == ChaseStrategy::SemiNaive;
    // The round's hom searches inherit the chase's context, so
    // cancellation also cuts *within* a round at node-stride
    // granularity and the scoped injector reaches the
    // `hom.search.exhaust` point. An explicit context on `options.hom`
    // wins.
    let hom_cfg = if options.hom.ctx.is_inert() {
        HomConfig { ctx: options.ctx.clone(), ..options.hom.clone() }
    } else {
        options.hom.clone()
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
        let snap = checkpoint::load(path)?;
        if snap.fired_keys.len() != plans.len() {
            return Err(ChaseError::Checkpoint {
                message: format!(
                    "snapshot has {} dependencies, the chase has {}",
                    snap.fired_keys.len(),
                    plans.len()
                ),
            });
        }
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
    loop {
        if options.ctx.should_inject("chase.round") || options.ctx.is_cancelled() {
            rde_obs::counter!("chase.cancelled").inc();
            rde_obs::event("chase.cancelled", &[("round", rounds.into())]);
            return Err(ChaseError::Cancelled);
        }
        if rounds >= options.max_rounds {
            rde_obs::counter!("chase.budget.rounds_exhausted").inc();
            rde_obs::event("chase.budget_exhausted", &[("kind", "rounds".into())]);
            return Err(ChaseError::RoundBudgetExhausted { rounds: options.max_rounds });
        }
        let round_span = rde_obs::span(
            "chase.round",
            &[
                ("round", rounds.into()),
                ("delta", delta.as_deref().map_or(current.len(), <[Fact]>::len).into()),
            ],
        );
        let round_start = Instant::now();
        // Phase 1: collect this round's new triggers against the
        // *current* state. Read-only, so dependencies fan out across
        // worker threads; merging in dependency index order keeps the
        // outcome independent of the thread count.
        let delta_slice = delta.as_deref();
        let delta_buckets = delta_slice.map(DeltaBuckets::new);
        let db = delta_buckets.as_ref();
        let threads = effective_threads(options.threads, plans.len());
        let chunk = plans.len().div_ceil(threads).max(1);
        let collected: Result<Vec<DepCandidates>, ChaseError> = if threads <= 1 {
            plans
                .iter()
                .enumerate()
                .map(|(di, p)| {
                    collect_dep(di, p, &current, &fired_keys, db, options.mode, &hom_cfg)
                })
                .collect()
        } else {
            let n = plans.len();
            let mut partials: Vec<Vec<Result<DepCandidates, ChaseError>>> = Vec::new();
            // Journal attribution: worker threads start with no ambient
            // request id, so re-install the owning request's id (from
            // the context, else whatever is ambient on this thread) or
            // their `chase.dep` events would come out unstamped.
            let req_id = match options.ctx.request_id {
                0 => rde_obs::request::current(),
                id => id,
            };
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for t in 0..threads {
                    let lo = t * chunk;
                    let hi = ((t + 1) * chunk).min(n);
                    let plans = &plans;
                    let current = &current;
                    let fired_keys = &fired_keys;
                    let hom = &hom_cfg;
                    handles.push(scope.spawn(move || {
                        let _req = rde_obs::request::enter(req_id);
                        (lo..hi)
                            .map(|di| {
                                collect_dep(
                                    di,
                                    &plans[di],
                                    current,
                                    fired_keys,
                                    db,
                                    options.mode,
                                    hom,
                                )
                            })
                            .collect::<Vec<_>>()
                    }));
                }
                let mut panicked = false;
                for h in handles {
                    match h.join() {
                        Ok(part) => partials.push(part),
                        Err(_) => panicked = true,
                    }
                }
                if panicked {
                    partials.clear();
                    partials.push(vec![Err(ChaseError::WorkerPanic)]);
                }
            });
            partials.into_iter().flatten().collect()
        };
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

        // Merge in dependency order: record every enumerated key and
        // queue the unsatisfied ones.
        let mut stats = RoundStats {
            delta: delta_slice.map_or(current.len(), <[Fact]>::len),
            ..RoundStats::default()
        };
        let journal_on = rde_obs::journal::enabled();
        let mut pending: Vec<(usize, Vec<Value>)> = Vec::new();
        for (di, cands) in per_dep.into_iter().enumerate() {
            stats.matches += cands.matches;
            stats.duplicates += cands.duplicates;
            stats.hom += cands.hom;
            if journal_on && (cands.matches > 0 || !cands.list.is_empty()) {
                // Per-dependency attribution: which dependency produced
                // how many triggers, and which collection worker ran it
                // (deps are chunked contiguously across workers).
                rde_obs::event(
                    "chase.dep",
                    &[
                        ("round", rounds.into()),
                        ("dep", di.into()),
                        ("worker", (if threads <= 1 { 0 } else { di / chunk }).into()),
                        ("matches", cands.matches.into()),
                        ("triggers", cands.list.len().into()),
                    ],
                );
            }
            for (vals, satisfied) in cands.list {
                if satisfied {
                    stats.satisfied += 1;
                    fired_keys[di].insert(vals);
                } else {
                    fired_keys[di].insert(vals.clone());
                    pending.push((di, vals));
                }
            }
        }
        if pending.is_empty() {
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
        stats.triggers = pending.len();

        // Phase 2: fire sequentially in canonical order. Sorting by
        // `(dependency, assignment)` pins the fresh-null allocation
        // order, so every strategy/thread-count combination yields the
        // same instance.
        pending.sort_unstable();
        let mut new_delta: Vec<Fact> = Vec::new();
        let mut fact_buf: Vec<Fact> = Vec::new();
        for (di, vals) in pending {
            let plan = &plans[di];
            if options.mode == ChaseMode::Standard {
                // Same chaos point as the collection-phase pre-check:
                // the sequential re-check can die too, and must fail
                // just as loudly.
                if options.ctx.should_inject("chase.restricted.check") {
                    rde_obs::counter!("chase.budget.match_exhausted").inc();
                    rde_obs::event("chase.budget_exhausted", &[("kind", "recheck".into())]);
                    return Err(ChaseError::MatchBudgetExhausted { budget: Exhausted::Nodes(0) });
                }
                // Sequential semantics: an earlier firing in this round
                // may have satisfied this trigger already.
                match plan.satisfaction.satisfiable_budgeted(
                    &current,
                    &vals,
                    &hom_cfg,
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
            let fresh: Vec<Value> = (0..plan.template.num_existentials())
                .map(|_| Value::Null(vocab.fresh_null()))
                .collect();
            fact_buf.clear();
            plan.template.instantiate(&vals, &fresh, |f| fact_buf.push(f));
            if options.trace {
                let mut pairs: Vec<(rde_deps::VarId, Value)> =
                    plan.premise.vars().iter().copied().zip(vals.iter().copied()).collect();
                pairs.sort();
                provenance.push(FiringRecord {
                    dependency: di,
                    assignment: pairs,
                    produced: fact_buf.clone(),
                });
            }
            for fact in fact_buf.drain(..) {
                let is_new = if semi_naive {
                    let is_new = current.insert(fact.clone());
                    if is_new {
                        new_delta.push(fact);
                    }
                    is_new
                } else {
                    current.insert(fact)
                };
                if is_new {
                    stats.inserted += 1;
                }
                if current.len() > options.max_facts {
                    rde_obs::counter!("chase.budget.facts_exhausted").inc();
                    rde_obs::event("chase.budget_exhausted", &[("kind", "facts".into())]);
                    return Err(ChaseError::FactBudgetExhausted { facts: options.max_facts });
                }
            }
            stats.fired += 1;
            fired += 1;
        }
        hom_total += stats.hom;
        // Metrics are always on (no `trace` feature needed): per-round
        // wall time plus cumulative trigger/fact counters. Each round
        // also lands on a per-variant labeled series so naive /
        // semi-naive / restricted runs are separable in one registry.
        let variant_label = [("variant", options.variant().name())];
        rde_obs::counter!("chase.rounds").inc();
        rde_obs::labeled_counter("chase.rounds", &variant_label).inc();
        rde_obs::counter!("chase.matches").add(stats.matches);
        rde_obs::counter!("chase.triggers.fired").add(stats.fired);
        rde_obs::labeled_counter("chase.triggers.fired", &variant_label).add(stats.fired);
        rde_obs::counter!("chase.facts.inserted").add(stats.inserted as u64);
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
        delta = if semi_naive { Some(new_delta) } else { None };
        if let Some(policy) = &options.checkpoint {
            if policy.every > 0 && rounds.is_multiple_of(policy.every) {
                checkpoint::save(
                    &policy.path,
                    &options.ctx.injector,
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

/// Convenience used pervasively by `rde-core`: oblivious chase of the
/// mapping with default budgets.
pub fn chase_mapping_default(
    instance: &Instance,
    mapping: &SchemaMapping,
    vocab: &mut Vocabulary,
) -> Result<Instance, ChaseError> {
    chase_mapping(instance, mapping, vocab, &ChaseOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rde_deps::parse_mapping;
    use rde_model::parse::parse_instance;

    fn chase_text(mapping_text: &str, instance_text: &str) -> (Vocabulary, Instance) {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, mapping_text).unwrap();
        let i = parse_instance(&mut v, instance_text).unwrap();
        let j = chase_mapping_default(&i, &m, &mut v).unwrap();
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
        let vres = chase_mapping_default(&u, &m, &mut v).unwrap();
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
        // sides name their variant (the build-wide default may be
        // flipped by the restricted-default feature).
        let oblivious =
            chase_mapping(&i, &m, &mut v, &ChaseOptions::for_variant(ChaseVariant::SemiNaive))
                .unwrap();
        assert_eq!(oblivious.len(), 2);
        let opts = ChaseOptions { mode: ChaseMode::Standard, ..ChaseOptions::default() };
        let standard = chase_mapping(&i, &m, &mut v, &opts).unwrap();
        // Second trigger (a, c) is satisfied by the first firing's Q(a, Z).
        assert_eq!(standard.len(), 1);
        assert!(rde_hom::hom_equivalent(&oblivious, &standard));
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
        let j = chase_mapping_default(&i, &m, &mut v).unwrap();
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
        let j = chase_mapping_default(&i, &m, &mut v).unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(j.nulls().len(), 2);
    }

    #[test]
    fn same_schema_chase_reaches_fixpoint() {
        // Transitivity over a small chain, standard mode.
        let mut v = Vocabulary::new();
        let e = v.relation("E", 2).unwrap();
        let dep = rde_deps::parse_dependency(&mut v, "E(x, y) & E(y, z) -> E(x, z)").unwrap();
        let i = parse_instance(&mut v, "E(a,b)\nE(b,c)\nE(c,d)").unwrap();
        let opts = ChaseOptions { mode: ChaseMode::Standard, ..ChaseOptions::default() };
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
        let opts = ChaseOptions { mode: ChaseMode::Standard, ..ChaseOptions::default() };
        let r2 = chase(&r1.instance, &m.dependencies, &mut v, &opts).unwrap();
        assert_eq!(r1.instance, r2.instance);
        assert_eq!(r2.fired, 0, "every trigger is already satisfied");
    }

    /// Run one dependency set under both strategies and a parallel
    /// variant, returning the three results.
    fn all_strategies(deps: &[&str], instance_text: &str, mode: ChaseMode) -> Vec<ChaseResult> {
        [
            ChaseOptions { mode, strategy: ChaseStrategy::Naive, ..ChaseOptions::default() },
            ChaseOptions { mode, strategy: ChaseStrategy::SemiNaive, ..ChaseOptions::default() },
            ChaseOptions {
                mode,
                strategy: ChaseStrategy::SemiNaive,
                threads: 4,
                ..ChaseOptions::default()
            },
        ]
        .iter()
        .map(|opts| {
            let mut v = Vocabulary::new();
            let parsed: Vec<Dependency> =
                deps.iter().map(|d| rde_deps::parse_dependency(&mut v, d).unwrap()).collect();
            let i = parse_instance(&mut v, instance_text).unwrap();
            chase(&i, &parsed, &mut v, opts).unwrap()
        })
        .collect()
    }

    #[test]
    fn strategies_produce_equal_instances() {
        // A multi-round recursive chase exercising the delta rounds.
        let deps =
            &["E(x,y) -> T(x,y)", "T(x,y) & T(y,z) -> T(x,z)", "T(x,y) -> exists w . S(y, w)"];
        let inst = "E(a,b)\nE(b,c)\nE(c,d)\nE(d,e)";
        for mode in [ChaseMode::Oblivious, ChaseMode::Standard] {
            let rs = all_strategies(deps, inst, mode);
            for r in &rs[1..] {
                assert_eq!(r.instance, rs[0].instance, "{mode:?}");
                assert_eq!(r.fired, rs[0].fired, "{mode:?}");
                assert_eq!(r.rounds, rs[0].rounds, "{mode:?}");
            }
        }
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
        // The same holds on the parallel collection path.
        let opts = ChaseOptions { threads: 4, ..opts };
        let err = chase(&i, &m.dependencies, &mut v, &opts).unwrap_err();
        assert!(matches!(err, ChaseError::MatchBudgetExhausted { .. }));
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
            mode: ChaseMode::Standard,
            hom: HomConfig { node_budget: Some(1), ..HomConfig::default() },
            ..ChaseOptions::default()
        };
        // Budget 1 lets round 0's trivially-failing pre-checks through
        // but cannot complete every later satisfaction search; the run
        // must end in Ok (quiescent) or MatchBudgetExhausted — never a
        // panic or a silently wrong instance.
        match chase(&i, &m.dependencies, &mut v, &opts) {
            Ok(r) => assert!(rde_hom::hom_equivalent(
                &r.instance.restrict_to(&m.target),
                &chase_mapping_default(&i, &m, &mut v).unwrap()
            )),
            Err(e) => assert!(matches!(e, ChaseError::MatchBudgetExhausted { .. })),
        }
    }

    #[test]
    fn chase_result_aggregates_hom_stats() {
        let mut v = Vocabulary::new();
        let dep = rde_deps::parse_dependency(&mut v, "T(x,y) & T(y,z) -> T(x,z)").unwrap();
        let i = parse_instance(&mut v, "T(a,b)\nT(b,c)\nT(c,d)").unwrap();
        // Naive strategy: the final quiescence check re-enumerates the
        // full instance, so its work is visible in the total.
        let opts = ChaseOptions { strategy: ChaseStrategy::Naive, ..ChaseOptions::default() };
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
        let ctx = ExecContext::cancellable();
        ctx.cancel.cancel();
        let opts = ChaseOptions { ctx, max_rounds: u64::MAX, ..ChaseOptions::default() };
        assert_eq!(
            chase(&i, std::slice::from_ref(&dep), &mut v, &opts).unwrap_err(),
            ChaseError::Cancelled
        );
        // An already-expired deadline cancels at the first round check.
        let opts = ChaseOptions {
            ctx: ExecContext::default()
                .with_cancel(rde_faults::CancelToken::with_deadline(std::time::Duration::ZERO)),
            max_rounds: u64::MAX,
            ..ChaseOptions::default()
        };
        assert_eq!(
            chase(&i, std::slice::from_ref(&dep), &mut v, &opts).unwrap_err(),
            ChaseError::Cancelled
        );
        // A live but uncancelled token does not disturb a normal run.
        let copy = rde_deps::parse_dependency(&mut v, "E(x, y) -> F(x, y)").unwrap();
        let opts = ChaseOptions { ctx: ExecContext::cancellable(), ..ChaseOptions::default() };
        let r = chase(&i, &[copy], &mut v, &opts).unwrap();
        assert_eq!(r.fired, 1);
    }

    #[test]
    fn chase_context_reaches_the_hom_searches() {
        // The chase clones its context into the effective hom config,
        // so cancellation cuts *inside* a round too. A token cancelled
        // after N stride-checks is hard to time deterministically, so
        // instead verify the plumbing: an explicit hom-level context
        // wins over the chase-level one, and the chase-level context
        // is used when the hom config's is inert.
        let mut v = Vocabulary::new();
        let dep = rde_deps::parse_dependency(&mut v, "E(x, y) -> F(x, y)").unwrap();
        let i = parse_instance(&mut v, "E(a,b)").unwrap();
        let hom_ctx = ExecContext::cancellable();
        hom_ctx.cancel.cancel();
        // Cancelled hom context: the first premise search reports
        // Exhausted::Cancelled, which the chase maps to Cancelled.
        let opts = ChaseOptions {
            hom: HomConfig { ctx: hom_ctx, ..HomConfig::default() },
            ..ChaseOptions::default()
        };
        assert_eq!(chase(&i, &[dep], &mut v, &opts).unwrap_err(), ChaseError::Cancelled);
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
    fn variants_resolve_to_their_mode_strategy_pairs() {
        assert_eq!(ChaseVariant::Naive.mode(), ChaseMode::Oblivious);
        assert_eq!(ChaseVariant::Naive.strategy(), ChaseStrategy::Naive);
        assert_eq!(ChaseVariant::SemiNaive.mode(), ChaseMode::Oblivious);
        assert_eq!(ChaseVariant::SemiNaive.strategy(), ChaseStrategy::SemiNaive);
        assert_eq!(ChaseVariant::Restricted.mode(), ChaseMode::Standard);
        assert_eq!(ChaseVariant::Restricted.strategy(), ChaseStrategy::SemiNaive);
        // Round-trip: options built from a variant report that variant.
        for v in ChaseVariant::ALL {
            assert_eq!(ChaseOptions::for_variant(v).variant(), v);
            assert_eq!(v.name().parse::<ChaseVariant>().unwrap(), v);
        }
        // A Standard-mode ablation combo still reports as restricted.
        let odd = ChaseOptions {
            mode: ChaseMode::Standard,
            strategy: ChaseStrategy::Naive,
            ..ChaseOptions::default()
        };
        assert_eq!(odd.variant(), ChaseVariant::Restricted);
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
        assert!(rde_hom::hom_equivalent(&naive, &restricted));
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

//! Backtracking homomorphism search.
//!
//! A homomorphism from `I₁` to `I₂` (Definition 3.1) fixes constants and
//! maps nulls so that every fact of `I₁` lands in `I₂`. We treat the
//! nulls of `I₁` as CSP variables and the facts of `I₁` as constraints,
//! and solve fact-at-a-time: pick an uncovered source fact, enumerate the
//! target tuples it can map onto (via the column posting lists of the
//! bound positions), unify, recurse.
//!
//! Every search runs under [`HomConfig`]'s (optional) node and
//! wall-clock budgets and its cancel token. Exhausting a budget is not
//! an error: it is a completion status on the returned
//! [`SearchReport`], and the deciders ([`exists_hom`], [`find_hom`])
//! fold it into a three-valued [`Verdict`] or an [`Exhausted`] error.
//! Under `HomConfig::default()` nothing can cut a search, so the
//! answer is always definite. [`count_homs`] is the unbudgeted oracle
//! the tests hold the deciders to.

use std::time::{Duration, Instant};

use rde_faults::ExecContext;
use rde_model::fx::FxHashMap;
use rde_model::{Instance, NullId, RelationData, Substitution, Value};

use crate::verdict::{Exhausted, Verdict};

/// How many nodes pass between wall-clock checks: `Instant::now()` is
/// much more expensive than a unification attempt, so the deadline is
/// polled on a stride. Time budgets are therefore enforced with a
/// granularity of `TIME_CHECK_STRIDE` nodes.
const TIME_CHECK_STRIDE: u64 = 256;

/// Search configuration. The default is complete (no budgets) and fully
/// optimized; the two optimization flags are the reference settings of
/// the differential tests.
#[derive(Debug, Clone)]
pub struct HomConfig {
    /// Node budget: the maximum number of candidate-tuple unification
    /// attempts. `None` = run to completion. A fully bound atom's
    /// membership probe counts as one node on a hit and none on a miss
    /// (it has at most one candidate and nothing to unify).
    ///
    /// **Semantics (exact):** the counter is incremented *before* each
    /// attempt and the search stops when `nodes > budget`, so
    /// `node_budget = Some(N)` permits **exactly N** unification
    /// attempts; the (N+1)-th attempt is cut before it unifies. In
    /// particular `Some(0)` stops before the first attempt, and a search
    /// whose complete run needs exactly N nodes finishes untruncated
    /// under `Some(N)`. On exhaustion the reported
    /// [`HomStats::nodes`] reads `N + 1` (the aborted attempt was
    /// counted, not performed). Boundary tests pin this down so the
    /// semantics cannot drift as budgets thread through chase and core.
    pub node_budget: Option<u64>,
    /// Wall-clock budget for one search. `None` = no deadline. Checked
    /// every [`TIME_CHECK_STRIDE`] nodes, so very short searches may
    /// finish before the first check.
    pub time_budget: Option<Duration>,
    /// Use per-column posting lists to enumerate candidate tuples, and
    /// match a fully bound atom with one membership probe instead of a
    /// row enumeration (`false` = scan the whole target relation per
    /// fact, probe included). Not a tuning knob: no caller outside the
    /// tests turns it off. `false` is the full-scan reference that the
    /// differential tests (`bound_atom_probes_match_the_scan_reference`,
    /// `probe_only_searches_match_the_searcher`) hold the indexed
    /// search to.
    pub use_index: bool,
    /// Dynamically pick the next source fact with the fewest candidates
    /// (`false` = fixed left-to-right order). Not a tuning knob either:
    /// `false` is the fixed-order reference of the same differential
    /// tests, under which the indexed search must emit the scan's exact
    /// match sequence.
    pub dynamic_order: bool,
    /// Scoped execution context: its cancel token is polled at search
    /// entry and then every [`TIME_CHECK_STRIDE`] nodes alongside the
    /// deadline check (a cancelled search reports
    /// [`Exhausted::Cancelled`]), and its fault injector drives the
    /// `hom.search.exhaust` injection point. The default context is
    /// inert and costs one pointer-sized check per poll.
    pub ctx: ExecContext,
}

impl Default for HomConfig {
    fn default() -> Self {
        HomConfig {
            node_budget: None,
            time_budget: None,
            use_index: true,
            dynamic_order: true,
            ctx: ExecContext::default(),
        }
    }
}

/// Search counters, reported by [`for_each_hom`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HomStats {
    /// Candidate tuple unification attempts (a membership probe hit
    /// counts as one, a miss as none).
    pub nodes: u64,
    /// Failed unifications (a proxy for backtracking work).
    pub backtracks: u64,
    /// Homomorphisms reported to the callback (a pattern's
    /// constant-only slots cut the matches that would bind one to a
    /// null before they are found).
    pub found: u64,
}

impl HomStats {
    /// Accumulate another search's counters (used by the chase and the
    /// core checkers to aggregate per-top-level-check totals).
    pub fn merge(&mut self, other: HomStats) {
        self.nodes += other.nodes;
        self.backtracks += other.backtracks;
        self.found += other.found;
    }
}

impl std::ops::AddAssign for HomStats {
    fn add_assign(&mut self, other: HomStats) {
        self.merge(other);
    }
}

/// What a search did and whether it ran to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchReport {
    /// Work counters for this search.
    pub stats: HomStats,
    /// `Some` when a budget cut the enumeration short: any matches
    /// reported before the cut are valid, but the enumeration is
    /// incomplete (absence of a match proves nothing). `None` means the
    /// search ran to completion (or was stopped by the callback, which
    /// is a *caller* decision, not a budget one).
    pub exhausted: Option<Exhausted>,
}

impl SearchReport {
    /// Did the search run to completion (no budget cut)?
    pub fn complete(&self) -> bool {
        self.exhausted.is_none()
    }
}

/// One argument of a pattern atom: already-fixed value or variable slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatArg {
    /// A value that must match exactly (a constant, or a pre-resolved
    /// null of the *target*).
    Fixed(Value),
    /// A pattern variable, identified by its dense slot index.
    Var(u32),
}

/// One atom `R(a₁, …, aₖ)` of a [`CompiledPattern`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternAtom {
    /// Relation symbol to match in the target.
    pub rel: rde_model::RelId,
    /// Argument pattern.
    pub args: Vec<PatArg>,
}

/// A conjunction of atoms over dense variable slots, compiled once and
/// matched against many (growing) targets.
///
/// This is the allocation-free core the chase builds its premise plans
/// on: compiling replaces the freeze-into-`Instance` + null-offset
/// dance [`for_each_hom`] needs, because slots are pattern-local —
/// they can never collide with target nulls, so no per-call offset
/// scan exists at all.
///
/// A slot may be marked *constant-only* ([`Self::with_constant_slots`]):
/// a match never binds it to a null. The check runs where the slot gets
/// bound, so a branch that would bind one to a null is cut at that row
/// instead of being enumerated and filtered afterwards; the matches
/// that remain come in the unmarked search's order.
#[derive(Debug, Clone)]
pub struct CompiledPattern {
    atoms: Vec<PatternAtom>,
    n_vars: u32,
    /// `constant_only[v]`: slot `v` binds only constants. Empty when no
    /// slot is marked, so the check is one length test.
    constant_only: Vec<bool>,
}

impl CompiledPattern {
    /// Compile a pattern. Slot indices may be sparse; the variable
    /// space is sized by the largest index used.
    pub fn new(atoms: Vec<PatternAtom>) -> Self {
        let n_vars = atoms
            .iter()
            .flat_map(|a| &a.args)
            .filter_map(|a| match *a {
                PatArg::Var(v) => Some(v + 1),
                PatArg::Fixed(_) => None,
            })
            .max()
            .unwrap_or(0);
        CompiledPattern { atoms, n_vars, constant_only: Vec::new() }
    }

    /// Mark `slots` constant-only: every match binds them to constants.
    /// A slot no atom uses is never bound, so marking it changes
    /// nothing.
    pub fn with_constant_slots(mut self, slots: impl IntoIterator<Item = u32>) -> Self {
        for slot in slots {
            if slot < self.n_vars {
                self.constant_only.resize(self.n_vars as usize, false);
                self.constant_only[slot as usize] = true;
            }
        }
        self
    }

    /// May slot `slot` bind only a constant?
    #[inline]
    pub fn is_constant_only(&self, slot: u32) -> bool {
        self.constant_only.get(slot as usize).copied().unwrap_or(false)
    }

    /// Does the seed bind a constant-only slot to a null? Such a seed
    /// extends to no match.
    fn seed_breaks_marks(&self, seed: &[Option<Value>]) -> bool {
        !self.constant_only.is_empty()
            && seed
                .iter()
                .zip(&self.constant_only)
                .any(|(v, &marked)| marked && v.is_some_and(|v| v.is_null()))
    }

    /// Number of variable slots (one past the largest used index).
    pub fn num_vars(&self) -> usize {
        self.n_vars as usize
    }

    /// The compiled atoms.
    pub fn atoms(&self) -> &[PatternAtom] {
        &self.atoms
    }

    /// Enumerate matches of the pattern into `target` extending `seed`
    /// (`seed[v]` pre-binds slot `v`; missing/`None` entries are free).
    /// The callback sees the full slot assignment and returns `false`
    /// to stop. Returns the search report (stats + completion status).
    pub fn for_each_match(
        &self,
        target: &Instance,
        seed: &[Option<Value>],
        config: &HomConfig,
        on_found: impl FnMut(&[Option<Value>]) -> bool,
    ) -> SearchReport {
        self.for_each_match_excluding(None, target, seed, config, on_found)
    }

    /// Like [`Self::for_each_match`], but atom `skip` (if any) is taken
    /// as already matched: the search covers only the remaining atoms.
    /// The caller must have seeded every variable of the skipped atom —
    /// this is the semi-naive chase's delta seeding, where one atom is
    /// unified with a delta fact and the rest are matched against the
    /// full instance.
    ///
    /// A search with nothing left to choose — every remaining atom fully
    /// bound by constants and the seed, or no atom left at all — is
    /// answered by direct membership probes without building the
    /// backtracking searcher; its report, callback and metrics are the
    /// searcher's (DESIGN.md §8).
    pub fn for_each_match_excluding(
        &self,
        skip: Option<usize>,
        target: &Instance,
        seed: &[Option<Value>],
        config: &HomConfig,
        on_found: impl FnMut(&[Option<Value>]) -> bool,
    ) -> SearchReport {
        self.run(skip, target, seed, config, true, on_found)
    }

    /// [`Self::for_each_match_excluding`] with the probe-only answer
    /// turned off: every search builds the backtracking searcher. The
    /// reference the probe-only path is tested against; not for
    /// production use.
    #[doc(hidden)]
    pub fn for_each_match_excluding_via_searcher(
        &self,
        skip: Option<usize>,
        target: &Instance,
        seed: &[Option<Value>],
        config: &HomConfig,
        on_found: impl FnMut(&[Option<Value>]) -> bool,
    ) -> SearchReport {
        self.run(skip, target, seed, config, false, on_found)
    }

    fn run(
        &self,
        skip: Option<usize>,
        target: &Instance,
        seed: &[Option<Value>],
        config: &HomConfig,
        allow_probe_only: bool,
        on_found: impl FnMut(&[Option<Value>]) -> bool,
    ) -> SearchReport {
        let mut meter = Meter::new(config);
        // Entry checks give cancellation a per-*search* granularity even
        // when every individual search is far shorter than one node
        // stride (the chase fires thousands of tiny premise matches).
        // The injection point simulates spurious budget exhaustion for
        // the resilience suite; both paths still flush metrics below.
        if config.ctx.should_inject("hom.search.exhaust") {
            meter.exhausted = Some(Exhausted::Nodes(0));
        } else if config.ctx.is_cancelled() {
            meter.exhausted = Some(Exhausted::Cancelled);
        } else if self.seed_breaks_marks(seed) {
            // A null seeded on a constant-only slot: nothing to search.
        } else if allow_probe_only && self.fully_bound(skip, seed, config) {
            self.probe_only(skip, target, &seed[..self.n_vars as usize], &mut meter, on_found);
        } else {
            meter = self.search(skip, target, seed, meter, on_found);
        }
        meter.finish()
    }

    /// Is every remaining atom fully bound by `Fixed` args and the seed
    /// (vacuously so when no atom remains)? Only then does the search
    /// have nothing to choose. The seed must cover every slot, so the
    /// callback can be handed the seed itself, and each atom must fit
    /// the stack probe tuple.
    fn fully_bound(&self, skip: Option<usize>, seed: &[Option<Value>], config: &HomConfig) -> bool {
        config.use_index
            && seed.len() >= self.n_vars as usize
            && self.atoms.iter().enumerate().filter(|&(i, _)| Some(i) != skip).all(|(_, a)| {
                a.args.len() <= PROBE_ARITY
                    && a.args.iter().all(|&arg| match arg {
                        PatArg::Fixed(_) => true,
                        PatArg::Var(x) => seed[x as usize].is_some(),
                    })
            })
    }

    /// Answer a fully bound search with one membership probe per
    /// remaining atom, in the order the searcher's `pick` visits them:
    /// under dynamic ordering an atom over an empty relation first (a
    /// forward-check prune), else the first atom and then the rest from
    /// the back; under fixed ordering from the back. A hit charges one
    /// node, a miss ends the search at no cost, and the match is
    /// reported once every probe hit. `vals` is the seed, one entry per
    /// slot.
    fn probe_only(
        &self,
        skip: Option<usize>,
        target: &Instance,
        vals: &[Option<Value>],
        meter: &mut Meter<'_>,
        mut on_found: impl FnMut(&[Option<Value>]) -> bool,
    ) {
        let probe = |atom: &PatternAtom| -> Option<bool> {
            let mut tuple = [Value::Const(rde_model::ConstId(0)); PROBE_ARITY];
            for (slot, &arg) in tuple.iter_mut().zip(&atom.args) {
                *slot = match arg {
                    PatArg::Fixed(v) => v,
                    PatArg::Var(x) => vals[x as usize]?,
                };
            }
            let data = target.relation(atom.rel)?;
            Some(data.contains(&tuple[..atom.args.len()]))
        };
        let mut remaining =
            self.atoms.iter().enumerate().filter(|&(i, _)| Some(i) != skip).map(|(_, a)| a);
        let dynamic = meter.config.dynamic_order;
        if dynamic && remaining.clone().any(|a| target.relation(a.rel).is_none()) {
            meter.prunes += 1;
            rde_obs::histogram!("chase.match.candidates").record(0);
            return;
        }
        let first = if dynamic { remaining.next() } else { None };
        let all_hit = first.into_iter().chain(remaining.rev()).all(|atom| {
            let hit = probe(atom) == Some(true);
            rde_obs::histogram!("chase.match.candidates").record(u64::from(hit));
            hit && !meter.charge_node()
        });
        if all_hit {
            meter.stats.found += 1;
            on_found(vals);
        }
    }

    /// Run the backtracking searcher, charging `meter`.
    fn search<'a>(
        &'a self,
        skip: Option<usize>,
        target: &'a Instance,
        seed: &[Option<Value>],
        meter: Meter<'a>,
        on_found: impl FnMut(&[Option<Value>]) -> bool,
    ) -> Meter<'a> {
        static EMPTY: std::sync::OnceLock<RelationData> = std::sync::OnceLock::new();
        let empty = EMPTY.get_or_init(RelationData::default);
        let facts: Vec<PatternFact<'_>> = self
            .atoms
            .iter()
            .enumerate()
            .filter(|&(i, _)| Some(i) != skip)
            .map(|(_, a)| PatternFact {
                rel_data: target.relation(a.rel).unwrap_or(empty),
                args: &a.args,
            })
            .collect();
        let Scratch { mut vals, mut trail, mut probe_tuple, mut remaining } =
            SCRATCH.take().unwrap_or_default();
        vals.clear();
        vals.resize(self.n_vars as usize, None);
        for (slot, &v) in seed.iter().enumerate().take(vals.len()) {
            vals[slot] = v;
        }
        trail.clear();
        probe_tuple.clear();
        remaining.clear();
        remaining.extend(0..facts.len());
        let mut searcher = Searcher {
            facts,
            vals,
            constant_only: &self.constant_only,
            meter,
            trail,
            probe_tuple,
            on_found,
        };
        searcher.solve(&mut remaining);
        let Searcher { vals, meter, trail, probe_tuple, .. } = searcher;
        SCRATCH.set(Some(Scratch { vals, trail, probe_tuple, remaining }));
        meter
    }
}

/// The searcher's reusable vectors. A search takes them from its
/// thread's slot and puts them back when done, so back-to-back searches
/// (the chase runs tens of thousands per call) allocate none of them. A
/// search nested inside another's callback finds the slot empty and
/// allocates its own.
#[derive(Default)]
struct Scratch {
    vals: Vec<Option<Value>>,
    trail: Vec<u32>,
    probe_tuple: Vec<Value>,
    remaining: Vec<usize>,
}

thread_local! {
    static SCRATCH: std::cell::Cell<Option<Scratch>> = const { std::cell::Cell::new(None) };
}

/// Widest atom the probe-only path assembles on the stack; wider fully
/// bound atoms go through the searcher, whose probe tuple is a `Vec`.
const PROBE_ARITY: usize = 16;

/// One search's budget accounting, shared by the searcher and the
/// probe-only path so both charge nodes and flush metrics alike.
struct Meter<'a> {
    config: &'a HomConfig,
    /// Wall-clock cutoff derived from [`HomConfig::time_budget`].
    deadline: Option<Instant>,
    stats: HomStats,
    /// Forward-check prunes: picks where some remaining fact already
    /// had zero candidate rows, cutting the branch without expanding
    /// it. Flushed to the `hom.search.prunes` metric (deliberately not
    /// part of [`HomStats`], whose layout is pinned by boundary tests).
    prunes: u64,
    /// Set when a budget cut the search short.
    exhausted: Option<Exhausted>,
}

impl<'a> Meter<'a> {
    fn new(config: &'a HomConfig) -> Self {
        Meter {
            config,
            deadline: config.time_budget.map(|d| Instant::now() + d),
            stats: HomStats::default(),
            prunes: 0,
            exhausted: None,
        }
    }

    /// Count one node against the budgets. Returns `true` when a budget
    /// ran out (recorded in [`Self::exhausted`]).
    fn charge_node(&mut self) -> bool {
        // Increment first, then compare, so a budget of N permits
        // exactly N nodes (see [`HomConfig::node_budget`]).
        self.stats.nodes += 1;
        if let Some(budget) = self.config.node_budget {
            if self.stats.nodes > budget {
                self.exhausted = Some(Exhausted::Nodes(budget));
                return true;
            }
        }
        if self.stats.nodes.is_multiple_of(TIME_CHECK_STRIDE) {
            if let Some(deadline) = self.deadline {
                if Instant::now() >= deadline {
                    let budget = self.config.time_budget.unwrap_or_default();
                    self.exhausted = Some(Exhausted::Time(budget));
                    return true;
                }
            }
            if self.config.ctx.is_cancelled() {
                self.exhausted = Some(Exhausted::Cancelled);
                return true;
            }
        }
        false
    }

    /// Flush the search's counters to the metrics and report it.
    fn finish(self) -> SearchReport {
        // Every homomorphism search in the system (chase premise
        // matching, hom deciders, core minimization) funnels through
        // here, so this is the single metrics flush point for the
        // engine. One relaxed atomic add per *non-zero* counter per
        // search, not per node: most searches are a handful of probes,
        // so the zero counters would otherwise dominate the flush.
        rde_obs::counter!("hom.search.searches").inc();
        for (n, counter) in [
            (self.stats.nodes, rde_obs::counter!("hom.search.nodes")),
            (self.stats.backtracks, rde_obs::counter!("hom.search.backtracks")),
            (self.stats.found, rde_obs::counter!("hom.search.found")),
            (self.prunes, rde_obs::counter!("hom.search.prunes")),
            (u64::from(self.exhausted.is_some()), rde_obs::counter!("hom.search.exhausted")),
        ] {
            if n != 0 {
                counter.add(n);
            }
        }
        SearchReport { stats: self.stats, exhausted: self.exhausted }
    }
}

struct PatternFact<'a> {
    rel_data: &'a RelationData,
    args: &'a [PatArg],
}

struct Searcher<'a, F: FnMut(&[Option<Value>]) -> bool> {
    facts: Vec<PatternFact<'a>>,
    /// Variable assignment: `vals[v]` is the image of slot `v`.
    vals: Vec<Option<Value>>,
    /// The pattern's constant-only marks (empty when none).
    constant_only: &'a [bool],
    /// Budgets, counters and completion status.
    meter: Meter<'a>,
    /// Scratch undo stack of bound slots, shared across the whole
    /// search: each node records a mark and truncates back to it,
    /// instead of allocating a fresh trail per candidate row.
    trail: Vec<u32>,
    /// Scratch tuple for membership probes of fully bound atoms, reused
    /// across the whole search.
    probe_tuple: Vec<Value>,
    /// Callback; returns `false` to stop enumerating.
    on_found: F,
}

impl<'a, F: FnMut(&[Option<Value>]) -> bool> Searcher<'a, F> {
    /// Returns `true` if enumeration should stop (callback said stop,
    /// or a budget was exhausted — see [`Meter::exhausted`]).
    fn solve(&mut self, remaining: &mut Vec<usize>) -> bool {
        let Some(slot) = self.pick(remaining) else {
            // All facts covered: report the match.
            self.meter.stats.found += 1;
            return !(self.on_found)(&self.vals);
        };
        let fact_idx = remaining.swap_remove(slot);
        let rows = self.candidate_rows(fact_idx);
        let stopped = self.try_rows(fact_idx, rows, remaining);
        remaining.push(fact_idx);
        let last = remaining.len() - 1;
        remaining.swap(slot, last);
        stopped
    }

    fn try_rows(&mut self, fact_idx: usize, rows: Rows<'a>, remaining: &mut Vec<usize>) -> bool {
        let rows: &[u32] = match rows {
            Rows::All(n) => {
                rde_obs::histogram!("chase.match.candidates").record(n as u64);
                for row in 0..n as u32 {
                    if self.try_row(fact_idx, row, remaining) {
                        return true;
                    }
                }
                return false;
            }
            // A fully bound atom binds nothing, so a hit is one node with
            // nothing to unify and a miss is no node at all.
            Rows::Probe(hit) => {
                rde_obs::histogram!("chase.match.candidates").record(u64::from(hit));
                return hit && (self.meter.charge_node() || self.solve(remaining));
            }
            Rows::List(rows) => rows,
        };
        rde_obs::histogram!("chase.match.candidates").record(rows.len() as u64);
        rows.iter().any(|&row| self.try_row(fact_idx, row, remaining))
    }

    /// One node: unify fact `fact_idx` with target row `row` and
    /// recurse. Returns `true` if enumeration should stop.
    fn try_row(&mut self, fact_idx: usize, row: u32, remaining: &mut Vec<usize>) -> bool {
        if self.meter.charge_node() {
            return true;
        }
        let mark = self.trail.len();
        if self.unify(fact_idx, row) {
            let stopped = self.solve(remaining);
            self.undo_to(mark);
            stopped
        } else {
            self.meter.stats.backtracks += 1;
            self.undo_to(mark);
            false
        }
    }

    /// Unbind every slot recorded past `mark` and truncate the trail.
    fn undo_to(&mut self, mark: usize) {
        for &v in &self.trail[mark..] {
            self.vals[v as usize] = None;
        }
        self.trail.truncate(mark);
    }

    /// Pick the next remaining fact (slot index into `remaining`).
    fn pick(&mut self, remaining: &[usize]) -> Option<usize> {
        if remaining.is_empty() {
            return None;
        }
        if !self.meter.config.dynamic_order {
            return Some(remaining.len() - 1);
        }
        let mut best_slot = 0;
        let mut best_cost = u64::MAX;
        for (slot, &fi) in remaining.iter().enumerate() {
            let cost = self.estimate(fi);
            if cost < best_cost {
                best_cost = cost;
                best_slot = slot;
                if cost == 0 {
                    break;
                }
            }
        }
        if best_cost == 0 {
            // Forward check: a remaining fact has no candidates, so
            // picking it fails every row immediately and cuts the
            // branch here rather than after expanding siblings.
            self.meter.prunes += 1;
        }
        Some(best_slot)
    }

    /// Cheap upper bound on the number of candidate rows for a fact. A
    /// fully bound atom is a membership probe: at most one candidate,
    /// rated without touching a posting list so it is checked first.
    fn estimate(&self, fact_idx: usize) -> u64 {
        let f = &self.facts[fact_idx];
        let mut best = f.rel_data.len() as u64;
        if self.meter.config.use_index && f.args.iter().all(|&arg| self.arg_value(arg).is_some()) {
            return best.min(1);
        }
        for (col, arg) in f.args.iter().enumerate() {
            if let Some(v) = self.arg_value(*arg) {
                let n = f.rel_data.rows_with(col, &v).len() as u64;
                best = best.min(n);
            }
        }
        best
    }

    fn arg_value(&self, arg: PatArg) -> Option<Value> {
        match arg {
            PatArg::Fixed(v) => Some(v),
            PatArg::Var(x) => self.vals[x as usize],
        }
    }

    /// Candidate target rows for a fact under the current assignment:
    /// one membership probe when every argument is bound, else the
    /// cheapest bound column's posting list, else the whole relation.
    /// Every path yields rows in ascending order, so match emission
    /// order — and therefore everything downstream: trigger order,
    /// fresh-null numbering, checkpoint bytes — is deterministic.
    fn candidate_rows(&mut self, fact_idx: usize) -> Rows<'a> {
        let f = &self.facts[fact_idx];
        let (data, args) = (f.rel_data, f.args);
        if self.meter.config.use_index {
            if let Some(hit) = self.probe(data, args) {
                return Rows::Probe(hit);
            }
            let mut best: Option<&'a [u32]> = None;
            for (col, arg) in args.iter().enumerate() {
                if let Some(v) = self.arg_value(*arg) {
                    let rows = data.rows_with(col, &v);
                    if best.is_none_or(|b| rows.len() < b.len()) {
                        best = Some(rows);
                    }
                }
            }
            if let Some(rows) = best {
                return Rows::List(rows);
            }
        }
        // No bound column (or indexes disabled): scan the relation.
        Rows::All(data.len())
    }

    /// Membership of a fully bound atom's tuple, assembled in the
    /// reused scratch tuple (`None` while some argument is unbound).
    fn probe(&mut self, data: &RelationData, args: &[PatArg]) -> Option<bool> {
        self.probe_tuple.clear();
        for &arg in args {
            let v = self.arg_value(arg)?;
            self.probe_tuple.push(v);
        }
        Some(data.contains(&self.probe_tuple))
    }

    /// Check one pattern argument against one target value, binding a
    /// fresh variable (recorded on the shared trail) as needed. A
    /// constant-only slot refuses a null.
    #[inline]
    fn bind(&mut self, arg: PatArg, tv: Value) -> bool {
        match arg {
            PatArg::Fixed(v) => v == tv,
            PatArg::Var(x) => match self.vals[x as usize] {
                Some(v) => v == tv,
                None if tv.is_null() && self.constant_only.get(x as usize) == Some(&true) => false,
                None => {
                    self.vals[x as usize] = Some(tv);
                    self.trail.push(x);
                    true
                }
            },
        }
    }

    /// Try to map fact `fact_idx` onto target row `row`, binding
    /// variables as needed; new bindings are pushed on the shared trail.
    fn unify(&mut self, fact_idx: usize, row: u32) -> bool {
        let f = &self.facts[fact_idx];
        let tuple = f.rel_data.row_slice(row);
        f.args.iter().zip(tuple).all(|(&arg, &tv)| self.bind(arg, tv))
    }
}

enum Rows<'a> {
    /// All rows `0..n` of the relation.
    All(usize),
    /// A posting list, borrowed from the target's column index.
    List(&'a [u32]),
    /// A fully bound atom's membership probe: `true` on a hit.
    Probe(bool),
}

/// Compile the facts of `source` into a [`CompiledPattern`] whose
/// variable slots are the source's nulls, in first-occurrence order.
/// Returns the pattern plus the slot → null mapping for reading matches
/// back as [`Substitution`]s. Core minimization compiles its instance
/// once per fold round and re-matches it against shrinking targets.
pub fn instance_pattern(source: &Instance) -> (CompiledPattern, Vec<NullId>) {
    let mut var_ids: FxHashMap<NullId, u32> = FxHashMap::default();
    let mut var_nulls: Vec<NullId> = Vec::new();
    let mut atoms: Vec<PatternAtom> = Vec::new();

    for (rel, data) in source.relations() {
        for tuple in data.tuples() {
            let args = tuple
                .iter()
                .map(|&v| match v {
                    Value::Const(_) => PatArg::Fixed(v),
                    Value::Null(n) => {
                        let next = var_nulls.len() as u32;
                        let idx = *var_ids.entry(n).or_insert_with(|| {
                            var_nulls.push(n);
                            next
                        });
                        PatArg::Var(idx)
                    }
                })
                .collect();
            atoms.push(PatternAtom { rel, args });
        }
    }
    (CompiledPattern::new(atoms), var_nulls)
}

/// Enumerate homomorphisms from `source` to `target`, invoking `on_found`
/// for each; the callback returns `false` to stop early. `seed` pre-binds
/// source nulls (bindings to values *not necessarily in the target's
/// active domain* are permitted only if those nulls appear in no source
/// fact; otherwise unification simply fails).
///
/// Returns the search report; when `config` carries a budget, check
/// [`SearchReport::exhausted`] before trusting a non-match.
pub fn for_each_hom(
    source: &Instance,
    target: &Instance,
    seed: &Substitution,
    config: &HomConfig,
    mut on_found: impl FnMut(&Substitution) -> bool,
) -> SearchReport {
    let (pattern, var_nulls) = instance_pattern(source);
    let mut vals: Vec<Option<Value>> = vec![None; var_nulls.len()];
    if !seed.is_empty() {
        let var_ids: FxHashMap<NullId, u32> =
            var_nulls.iter().enumerate().map(|(i, &n)| (n, i as u32)).collect();
        for (n, v) in seed.iter() {
            if let Some(&idx) = var_ids.get(&n) {
                vals[idx as usize] = Some(v);
            }
        }
    }

    let span = rde_obs::span(
        "hom.search",
        &[("source_facts", source.len().into()), ("vars", var_nulls.len().into())],
    );
    let report = pattern.for_each_match(target, &vals, config, |assignment| {
        let sub: Substitution = var_nulls
            .iter()
            .zip(assignment)
            .map(|(&n, v)| (n, v.expect("all variables bound when all facts covered")))
            .collect();
        on_found(&sub)
    });
    span.close_with(&[
        ("nodes", report.stats.nodes.into()),
        ("backtracks", report.stats.backtracks.into()),
        ("found", report.stats.found.into()),
        ("complete", report.complete().into()),
    ]);
    report
}

/// Decide `source → target` (Definition 3.1's relation) under
/// `config`'s budgets, accumulating the search work into `stats`.
/// Returns [`Verdict::Unknown`] when a budget ran out before a witness
/// was found or the space was exhausted.
pub fn exists_hom(
    source: &Instance,
    target: &Instance,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Verdict {
    match find_hom(source, target, &Substitution::new(), config, stats) {
        Ok(Some(_)) => Verdict::Holds,
        Ok(None) => Verdict::Fails,
        Err(budget) => Verdict::Unknown { budget },
    }
}

/// Find one homomorphism `source → target` extending `seed` under
/// `config`'s budgets, accumulating the search work into `stats`.
///
/// `Ok(Some(h))` — a witness; `Ok(None)` — a complete refutation;
/// `Err(budget)` — the budget ran out before either.
pub fn find_hom(
    source: &Instance,
    target: &Instance,
    seed: &Substitution,
    config: &HomConfig,
    stats: &mut HomStats,
) -> Result<Option<Substitution>, Exhausted> {
    let mut result = None;
    let report = for_each_hom(source, target, seed, config, |sub| {
        result = Some(sub.clone());
        false
    });
    stats.merge(report.stats);
    match (result, report.exhausted) {
        (Some(h), _) => Ok(Some(h)),
        (None, None) => Ok(None),
        (None, Some(budget)) => Err(budget),
    }
}

/// Count all homomorphisms from `source` to `target`.
///
/// The count is exponential in the worst case; intended for tests and
/// small instances.
pub fn count_homs(source: &Instance, target: &Instance) -> u64 {
    for_each_hom(source, target, &Substitution::new(), &HomConfig::default(), |_| true).stats.found
}

#[cfg(test)]
mod tests {
    use super::*;
    use rde_model::{Fact, RelId};

    fn c(i: u32) -> Value {
        Value::Const(rde_model::ConstId(i))
    }
    fn n(i: u32) -> Value {
        Value::Null(NullId(i))
    }
    fn inst(facts: &[(u32, &[Value])]) -> Instance {
        facts.iter().map(|(r, args)| Fact::new(RelId(*r), args.to_vec())).collect()
    }
    fn hom(source: &Instance, target: &Instance) -> bool {
        exists_hom(source, target, &HomConfig::default(), &mut HomStats::default()).holds()
    }
    fn find(source: &Instance, target: &Instance, seed: &Substitution) -> Option<Substitution> {
        find_hom(source, target, seed, &HomConfig::default(), &mut HomStats::default()).unwrap()
    }

    #[test]
    fn empty_source_maps_anywhere() {
        let empty = Instance::new();
        let target = inst(&[(0, &[c(0)])]);
        assert!(hom(&empty, &target));
        assert!(hom(&empty, &empty));
    }

    #[test]
    fn nonempty_source_needs_matching_relation() {
        let source = inst(&[(0, &[n(0)])]);
        let target = inst(&[(1, &[c(0)])]);
        assert!(!hom(&source, &target));
    }

    #[test]
    fn constants_are_fixed() {
        let source = inst(&[(0, &[c(0)])]);
        let target = inst(&[(0, &[c(1)])]);
        assert!(!hom(&source, &target));
        assert!(hom(&source, &inst(&[(0, &[c(0)]), (0, &[c(1)])])));
    }

    #[test]
    fn nulls_map_to_constants_or_nulls() {
        let source = inst(&[(0, &[n(0), n(1)])]);
        let target = inst(&[(0, &[c(0), n(5)])]);
        let h = find(&source, &target, &Substitution::new()).unwrap();
        assert_eq!(h.apply(n(0)), c(0));
        assert_eq!(h.apply(n(1)), n(5));
    }

    #[test]
    fn shared_nulls_must_agree() {
        // P(x, x) cannot map into P(a, b).
        let source = inst(&[(0, &[n(0), n(0)])]);
        assert!(!hom(&source, &inst(&[(0, &[c(0), c(1)])])));
        assert!(hom(&source, &inst(&[(0, &[c(0), c(0)])])));
    }

    #[test]
    fn paths_fold_into_shorter_paths() {
        // Path of nulls x→y→z maps onto edge a→b by folding.
        let source = inst(&[(0, &[n(0), n(1)]), (0, &[n(1), n(2)])]);
        let target = inst(&[(0, &[c(0), c(1)]), (0, &[c(1), c(0)])]);
        assert!(hom(&source, &target));
        // ...but not into a single non-loop edge.
        let single = inst(&[(0, &[c(0), c(1)])]);
        assert!(!hom(&source, &single));
        // A loop absorbs everything.
        let loop_ = inst(&[(0, &[c(0), c(0)])]);
        assert!(hom(&source, &loop_));
    }

    #[test]
    fn ground_source_hom_iff_subset() {
        // For ground I₁: I₁ → I₂ iff I₁ ⊆ I₂ (paper, Section 1).
        let i1 = inst(&[(0, &[c(0), c(1)]), (1, &[c(2)])]);
        let i2 = inst(&[(0, &[c(0), c(1)]), (1, &[c(2)]), (1, &[c(3)])]);
        assert!(hom(&i1, &i2));
        assert!(i1.is_subset_of(&i2));
        let i3 = inst(&[(0, &[c(0), c(1)])]);
        assert!(!hom(&i1, &i3));
        assert!(!i1.is_subset_of(&i3));
    }

    #[test]
    fn cross_fact_consistency() {
        // P(x), Q(x) needs a value in both unary relations.
        let source = inst(&[(0, &[n(0)]), (1, &[n(0)])]);
        let t1 = inst(&[(0, &[c(0)]), (1, &[c(1)])]);
        assert!(!hom(&source, &t1));
        let t2 = inst(&[(0, &[c(0)]), (1, &[c(0)])]);
        assert!(hom(&source, &t2));
    }

    #[test]
    fn seeded_search_respects_seed() {
        let source = inst(&[(0, &[n(0)])]);
        let target = inst(&[(0, &[c(0)]), (0, &[c(1)])]);
        let mut seed = Substitution::new();
        seed.bind(NullId(0), c(1));
        let h = find(&source, &target, &seed).unwrap();
        assert_eq!(h.apply(n(0)), c(1));
        seed.bind(NullId(0), c(7)); // not in target
        assert!(find(&source, &target, &seed).is_none());
    }

    #[test]
    fn hom_composition_witnesses_transitivity() {
        let a = inst(&[(0, &[n(0), n(1)])]);
        let b = inst(&[(0, &[n(2), c(0)])]);
        let c_ = inst(&[(0, &[c(1), c(0)])]);
        let h1 = find(&a, &b, &Substitution::new()).unwrap();
        let h2 = find(&b, &c_, &Substitution::new()).unwrap();
        let composed = h1.then(&h2);
        assert_eq!(composed.apply_instance(&a), c_);
    }

    #[test]
    fn counting_homs() {
        // P(x) into {P(a), P(b)}: two homs.
        let source = inst(&[(0, &[n(0)])]);
        let target = inst(&[(0, &[c(0)]), (0, &[c(1)])]);
        assert_eq!(count_homs(&source, &target), 2);
        // P(x), P(y) into the same: four homs.
        let source2 = inst(&[(0, &[n(0)]), (0, &[n(1)])]);
        assert_eq!(count_homs(&source2, &target), 4);
        // Identity on the empty instance: exactly one (the empty hom).
        assert_eq!(count_homs(&Instance::new(), &Instance::new()), 1);
    }

    #[test]
    fn node_budget_exhaustion_is_a_status_not_a_panic() {
        // A mismatch that requires search: k² attempts for a miss.
        let source = inst(&[(0, &[n(0), n(1)]), (0, &[n(1), n(0)]), (1, &[n(0)])]);
        let target =
            inst(&[(0, &[c(0), c(1)]), (0, &[c(1), c(2)]), (0, &[c(2), c(0)]), (1, &[c(9)])]);
        let cfg = HomConfig { node_budget: Some(0), ..HomConfig::default() };
        let report = for_each_hom(&source, &target, &Substitution::new(), &cfg, |_| true);
        assert_eq!(report.exhausted, Some(Exhausted::Nodes(0)));
        assert!(!report.complete());
        let mut stats = HomStats::default();
        let verdict = exists_hom(&source, &target, &cfg, &mut stats);
        assert_eq!(verdict, Verdict::Unknown { budget: Exhausted::Nodes(0) });
        // The unbounded decision is definite.
        let mut stats = HomStats::default();
        let v = exists_hom(&source, &target, &HomConfig::default(), &mut stats);
        assert_eq!(v, Verdict::Fails);
        assert!(stats.nodes > 0);
    }

    #[test]
    fn node_budget_boundaries_permit_exactly_n_attempts() {
        // budget = N permits exactly N unification attempts: measure the
        // exact need of a complete search, then probe need and need - 1.
        let source = inst(&[(0, &[n(0), n(1)]), (0, &[n(1), n(2)]), (1, &[n(2)])]);
        let target = inst(&[(0, &[c(0), c(1)]), (0, &[c(1), c(2)]), (1, &[c(2)])]);
        let find_first = |cfg: &HomConfig| {
            let mut hit = false;
            let report = for_each_hom(&source, &target, &Substitution::new(), cfg, |_| {
                hit = true;
                false
            });
            (hit, report)
        };
        let (hit, unbounded) = find_first(&HomConfig::default());
        assert!(hit);
        let need = unbounded.stats.nodes;
        assert!(need >= 3, "three facts need at least three attempts");

        // budget = 0: cut before the very first attempt.
        let cfg0 = HomConfig { node_budget: Some(0), ..HomConfig::default() };
        let (hit, report) = find_first(&cfg0);
        assert!(!hit);
        assert_eq!(report.exhausted, Some(Exhausted::Nodes(0)));
        assert_eq!(report.stats.nodes, 1, "the aborted attempt is counted, not performed");

        // budget = 1: exactly one attempt happens, then the cut.
        let cfg1 = HomConfig { node_budget: Some(1), ..HomConfig::default() };
        let (hit, report) = find_first(&cfg1);
        assert!(!hit, "one attempt cannot cover three facts");
        assert_eq!(report.exhausted, Some(Exhausted::Nodes(1)));
        assert_eq!(report.stats.nodes, 2);

        // budget = exact need: the search finishes untruncated.
        let cfg_exact = HomConfig { node_budget: Some(need), ..HomConfig::default() };
        let (hit, report) = find_first(&cfg_exact);
        assert!(hit);
        assert!(report.complete());
        assert_eq!(report.stats.nodes, need);

        // budget = need - 1: cut on the final attempt.
        let cfg_short = HomConfig { node_budget: Some(need - 1), ..HomConfig::default() };
        let (hit, report) = find_first(&cfg_short);
        assert!(!hit);
        assert_eq!(report.exhausted, Some(Exhausted::Nodes(need - 1)));
    }

    #[test]
    fn time_budget_cuts_long_searches() {
        // K₅ on nulls into K₄: no hom, and refuting it takes far more
        // than one deadline stride of nodes.
        let mut source = Vec::new();
        for i in 0..5u32 {
            for j in 0..5u32 {
                if i != j {
                    source.push(Fact::new(RelId(0), vec![n(i), n(j)]));
                }
            }
        }
        let source: Instance = source.into_iter().collect();
        let mut target = Vec::new();
        for i in 0..4u32 {
            for j in 0..4u32 {
                if i != j {
                    target.push(Fact::new(RelId(0), vec![c(i), c(j)]));
                }
            }
        }
        let target: Instance = target.into_iter().collect();
        let cfg = HomConfig { time_budget: Some(Duration::ZERO), ..HomConfig::default() };
        let mut stats = HomStats::default();
        let verdict = exists_hom(&source, &target, &cfg, &mut stats);
        assert!(matches!(verdict, Verdict::Unknown { budget: Exhausted::Time(_) }));
        assert!(stats.nodes >= TIME_CHECK_STRIDE, "cut at the first deadline poll");
    }

    #[test]
    fn naive_config_agrees_with_optimized() {
        // Same decision with all optimizations off.
        let source = inst(&[(0, &[n(0), n(1)]), (0, &[n(1), n(2)]), (1, &[n(2)])]);
        let yes = inst(&[(0, &[c(0), c(1)]), (0, &[c(1), c(2)]), (1, &[c(2)])]);
        let no = inst(&[(0, &[c(0), c(1)]), (1, &[c(0)])]);
        let naive = HomConfig { use_index: false, dynamic_order: false, ..HomConfig::default() };
        for (target, expected) in [(&yes, true), (&no, false)] {
            let mut found = false;
            let report = for_each_hom(&source, target, &Substitution::new(), &naive, |_| {
                found = true;
                false
            });
            assert!(report.complete());
            assert_eq!(found, expected);
        }
    }

    #[test]
    fn stats_reflect_work() {
        let source = inst(&[(0, &[n(0)])]);
        let target = inst(&[(0, &[c(0)]), (0, &[c(1)])]);
        let report =
            for_each_hom(&source, &target, &Substitution::new(), &HomConfig::default(), |_| true);
        assert_eq!(report.stats.found, 2);
        assert!(report.stats.nodes >= 2);
        assert!(report.complete());
    }

    #[test]
    fn stats_are_exact_on_a_pinned_search() {
        // Regression guard for the shared-trail refactor: the counters
        // are defined by the search tree, not by allocation strategy.
        // P(x) over {P(a), P(b)}: two candidate rows, two matches, no
        // failed unifications.
        let source = inst(&[(0, &[n(0)])]);
        let target = inst(&[(0, &[c(0)]), (0, &[c(1)])]);
        let report =
            for_each_hom(&source, &target, &Substitution::new(), &HomConfig::default(), |_| true);
        assert_eq!(report.stats, HomStats { nodes: 2, backtracks: 0, found: 2 });
        // P(x,x) over {P(a,b)}: one attempt, one failed unification.
        let miss = for_each_hom(
            &inst(&[(0, &[n(0), n(0)])]),
            &inst(&[(0, &[c(0), c(1)])]),
            &Substitution::new(),
            &HomConfig::default(),
            |_| true,
        );
        assert_eq!(miss.stats, HomStats { nodes: 1, backtracks: 1, found: 0 });
    }

    /// A ground source is a pure membership test: P(a, b) against a
    /// target where `a` and `b` each head several rows.
    fn ground_probe(target_has_it: bool) -> (Instance, Instance) {
        let source = inst(&[(0, &[c(0), c(1)])]);
        let mut target =
            inst(&[(0, &[c(0), c(2)]), (0, &[c(0), c(3)]), (0, &[c(4), c(1)]), (0, &[n(0), c(1)])]);
        if target_has_it {
            target.insert(Fact::new(RelId(0), vec![c(0), c(1)]));
        }
        (source, target)
    }

    #[test]
    fn fully_bound_atom_is_one_probe() {
        let all = |source: &Instance, target: &Instance| {
            for_each_hom(source, target, &Substitution::new(), &HomConfig::default(), |_| true)
        };
        // A hit is exactly one node, whatever the posting lists hold.
        let (source, target) = ground_probe(true);
        let hit = all(&source, &target);
        assert_eq!(hit.stats, HomStats { nodes: 1, backtracks: 0, found: 1 });
        assert!(hit.complete());
        // A miss costs no node at all.
        let (source, target) = ground_probe(false);
        let miss = all(&source, &target);
        assert_eq!(miss.stats, HomStats { nodes: 0, backtracks: 0, found: 0 });
        assert!(miss.complete());
        // The scan reference agrees on the answer, at full price.
        let scan = HomConfig { use_index: false, ..HomConfig::default() };
        let (source, target) = ground_probe(true);
        let r = for_each_hom(&source, &target, &Substitution::new(), &scan, |_| true);
        assert_eq!(r.stats.found, 1);
        assert_eq!(r.stats.nodes, 5, "the scan tries every row");
    }

    #[test]
    fn probe_hits_obey_the_node_budget() {
        let (source, target) = ground_probe(true);
        let run = |budget: u64| {
            let cfg = HomConfig { node_budget: Some(budget), ..HomConfig::default() };
            for_each_hom(&source, &target, &Substitution::new(), &cfg, |_| true)
        };
        let cut = run(0);
        assert_eq!(cut.exhausted, Some(Exhausted::Nodes(0)));
        assert_eq!(cut.stats, HomStats { nodes: 1, backtracks: 0, found: 0 });
        let mut stats = HomStats::default();
        let cfg0 = HomConfig { node_budget: Some(0), ..HomConfig::default() };
        assert_eq!(
            exists_hom(&source, &target, &cfg0, &mut stats),
            Verdict::Unknown { budget: Exhausted::Nodes(0) }
        );
        let done = run(1);
        assert!(done.complete());
        assert_eq!(done.stats, HomStats { nodes: 1, backtracks: 0, found: 1 });
        // A miss needs no budget: it is a definite refutation even at 0.
        let (source, target) = ground_probe(false);
        let mut stats = HomStats::default();
        assert_eq!(exists_hom(&source, &target, &cfg0, &mut stats), Verdict::Fails);
    }

    #[test]
    fn pre_cancelled_ground_search_reports_cancelled() {
        let (source, target) = ground_probe(true);
        let token = rde_faults::CancelToken::new();
        token.cancel();
        let cfg =
            HomConfig { ctx: ExecContext::default().with_cancel(token), ..HomConfig::default() };
        let report = for_each_hom(&source, &target, &Substitution::new(), &cfg, |_| true);
        assert_eq!(report.exhausted, Some(Exhausted::Cancelled));
        assert_eq!(report.stats, HomStats::default());
    }

    #[test]
    fn seeded_slots_make_an_atom_a_probe() {
        // T(x, z) with x and z seeded is the triangle rule's third atom.
        let pattern = CompiledPattern::new(vec![PatternAtom {
            rel: RelId(0),
            args: vec![PatArg::Var(0), PatArg::Var(1)],
        }]);
        let target = inst(&[(0, &[c(0), c(1)]), (0, &[c(0), c(2)]), (0, &[c(3), c(1)])]);
        let seeded = |x, z| {
            pattern
                .for_each_match(&target, &[Some(x), Some(z)], &HomConfig::default(), |_| true)
                .stats
        };
        assert_eq!(seeded(c(0), c(1)), HomStats { nodes: 1, backtracks: 0, found: 1 });
        assert_eq!(seeded(c(3), c(2)), HomStats { nodes: 0, backtracks: 0, found: 0 });
    }

    #[test]
    fn constant_only_slots_cut_null_bindings_where_they_bind() {
        // E(x, y) & F(y) with y constant-only. Under fixed order F(y)
        // is searched first: binding y to n0 fails right there (one
        // node, one backtrack), so E is never searched under it.
        let pattern = CompiledPattern::new(vec![
            PatternAtom { rel: RelId(0), args: vec![PatArg::Var(0), PatArg::Var(1)] },
            PatternAtom { rel: RelId(1), args: vec![PatArg::Var(1)] },
        ]);
        let marked = pattern.clone().with_constant_slots([1, 7]);
        assert!(marked.is_constant_only(1) && !marked.is_constant_only(0));
        assert!(!marked.is_constant_only(7), "a slot no atom uses stays unmarked");
        let target = inst(&[(0, &[c(0), n(0)]), (0, &[c(0), c(1)]), (1, &[n(0)]), (1, &[c(1)])]);
        let fixed = HomConfig { dynamic_order: false, ..HomConfig::default() };
        let run = |p: &CompiledPattern, seed: &[Option<Value>]| {
            let mut seen = Vec::new();
            let report = p.for_each_match(&target, seed, &fixed, |vals| {
                seen.push(vals.to_vec());
                true
            });
            (seen, report.stats)
        };
        let (all, stats) = run(&pattern, &[]);
        assert_eq!(all, vec![vec![Some(c(0)), Some(n(0))], vec![Some(c(0)), Some(c(1))]]);
        assert_eq!(stats, HomStats { nodes: 4, backtracks: 0, found: 2 });
        let (constant, stats) = run(&marked, &[]);
        assert_eq!(constant, vec![vec![Some(c(0)), Some(c(1))]]);
        assert_eq!(stats, HomStats { nodes: 3, backtracks: 1, found: 1 });
        // A null seeded on the marked slot extends to no match, on the
        // probe-only path and through the searcher alike, at no cost.
        for seed in [&[Some(c(0)), Some(n(0))][..], &[None, Some(n(0))]] {
            assert_eq!(run(&marked, seed), (Vec::new(), HomStats::default()));
        }
    }

    /// `E(x, c1)` and `F(c2, y)` over seeded slots `x` and `y`.
    fn seeded_pair() -> CompiledPattern {
        CompiledPattern::new(vec![
            PatternAtom { rel: RelId(0), args: vec![PatArg::Var(0), PatArg::Fixed(c(1))] },
            PatternAtom { rel: RelId(1), args: vec![PatArg::Fixed(c(2)), PatArg::Var(1)] },
        ])
    }

    /// The report of a search through the probe-only path, checked
    /// against the searcher's report of the same search.
    fn probe_only(
        pattern: &CompiledPattern,
        skip: Option<usize>,
        target: &Instance,
        seed: &[Option<Value>],
        cfg: &HomConfig,
    ) -> SearchReport {
        let mut seen = Vec::new();
        let report = pattern.for_each_match_excluding(skip, target, seed, cfg, |vals| {
            seen.push(vals.to_vec());
            true
        });
        let mut expected = Vec::new();
        let reference =
            pattern.for_each_match_excluding_via_searcher(skip, target, seed, cfg, |vals| {
                expected.push(vals.to_vec());
                true
            });
        assert_eq!(report, reference);
        assert_eq!(seen, expected);
        report
    }

    #[test]
    fn probe_only_single_atom_hit_and_miss() {
        let pattern = CompiledPattern::new(vec![PatternAtom {
            rel: RelId(0),
            args: vec![PatArg::Var(0), PatArg::Fixed(c(1))],
        }]);
        let target = inst(&[(0, &[c(0), c(1)]), (0, &[c(0), c(2)]), (0, &[c(3), c(1)])]);
        let cfg = HomConfig::default();
        let hit = probe_only(&pattern, None, &target, &[Some(c(0))], &cfg);
        assert_eq!(hit.stats, HomStats { nodes: 1, backtracks: 0, found: 1 });
        assert!(hit.complete());
        let miss = probe_only(&pattern, None, &target, &[Some(c(2))], &cfg);
        assert_eq!(miss.stats, HomStats { nodes: 0, backtracks: 0, found: 0 });
        assert!(miss.complete());
    }

    #[test]
    fn probe_only_stops_at_the_first_miss_in_pick_order() {
        // Two ground atoms; only the first is in the target. Dynamic
        // order probes atom 0 (a hit, one node) and then misses on
        // atom 1; fixed order starts from the back and misses at once.
        let pattern = seeded_pair();
        let target = inst(&[(0, &[c(0), c(1)]), (1, &[c(2), c(5)])]);
        let seed = [Some(c(0)), Some(c(6))];
        let dynamic = probe_only(&pattern, None, &target, &seed, &HomConfig::default());
        assert_eq!(dynamic.stats, HomStats { nodes: 1, backtracks: 0, found: 0 });
        let fixed = HomConfig { dynamic_order: false, ..HomConfig::default() };
        let fixed = probe_only(&pattern, None, &target, &seed, &fixed);
        assert_eq!(fixed.stats, HomStats { nodes: 0, backtracks: 0, found: 0 });
        // Both hit: two nodes, one match.
        let both =
            probe_only(&pattern, None, &target, &[Some(c(0)), Some(c(5))], &HomConfig::default());
        assert_eq!(both.stats, HomStats { nodes: 2, backtracks: 0, found: 1 });
        // An atom over an absent relation is a forward-check prune: no
        // node even though the other atom would hit.
        let no_f = inst(&[(0, &[c(0), c(1)])]);
        let pruned = probe_only(&pattern, None, &no_f, &seed, &HomConfig::default());
        assert_eq!(pruned.stats, HomStats::default());
    }

    #[test]
    fn probe_only_zero_atom_remainder_is_one_match() {
        // The delta-seeded premise `T(x, y)` with its only atom skipped.
        let pattern = CompiledPattern::new(vec![PatternAtom {
            rel: RelId(0),
            args: vec![PatArg::Var(0), PatArg::Var(1)],
        }]);
        let seed = [Some(c(0)), Some(c(1))];
        let report = probe_only(&pattern, Some(0), &Instance::new(), &seed, &HomConfig::default());
        assert_eq!(report.stats, HomStats { nodes: 0, backtracks: 0, found: 1 });
        let mut got = Vec::new();
        pattern.for_each_match_excluding(
            Some(0),
            &Instance::new(),
            &seed,
            &HomConfig::default(),
            |v| {
                got.push(v.to_vec());
                true
            },
        );
        assert_eq!(got, vec![seed.to_vec()], "the callback sees the seed");
        // A zero-atom budget never runs out: nothing is charged.
        let cfg0 = HomConfig { node_budget: Some(0), ..HomConfig::default() };
        let report = probe_only(&pattern, Some(0), &Instance::new(), &seed, &cfg0);
        assert!(report.complete());
        assert_eq!(report.stats.found, 1);
    }

    #[test]
    fn probe_only_hits_obey_the_node_budget() {
        let pattern = seeded_pair();
        let target = inst(&[(0, &[c(0), c(1)]), (1, &[c(2), c(5)])]);
        let seed = [Some(c(0)), Some(c(5))];
        let run = |budget: u64| {
            let cfg = HomConfig { node_budget: Some(budget), ..HomConfig::default() };
            probe_only(&pattern, None, &target, &seed, &cfg)
        };
        let cut = run(0);
        assert_eq!(cut.exhausted, Some(Exhausted::Nodes(0)));
        assert_eq!(cut.stats, HomStats { nodes: 1, backtracks: 0, found: 0 });
        let cut = run(1);
        assert_eq!(cut.exhausted, Some(Exhausted::Nodes(1)));
        assert_eq!(cut.stats, HomStats { nodes: 2, backtracks: 0, found: 0 });
        let done = run(2);
        assert!(done.complete());
        assert_eq!(done.stats, HomStats { nodes: 2, backtracks: 0, found: 1 });
        // One atom: `Some(0)` is `Unknown { Nodes(0) }`, `Some(1)` completes.
        let (source, target) = ground_probe(true);
        let mut stats = HomStats::default();
        let cfg0 = HomConfig { node_budget: Some(0), ..HomConfig::default() };
        assert_eq!(
            exists_hom(&source, &target, &cfg0, &mut stats),
            Verdict::Unknown { budget: Exhausted::Nodes(0) }
        );
        let cfg1 = HomConfig { node_budget: Some(1), ..HomConfig::default() };
        assert_eq!(exists_hom(&source, &target, &cfg1, &mut stats), Verdict::Holds);
    }

    #[test]
    fn probe_only_pre_cancelled_search_reports_cancelled() {
        let pattern = seeded_pair();
        let target = inst(&[(0, &[c(0), c(1)]), (1, &[c(2), c(5)])]);
        let token = rde_faults::CancelToken::new();
        token.cancel();
        let cfg =
            HomConfig { ctx: ExecContext::default().with_cancel(token), ..HomConfig::default() };
        let report = probe_only(&pattern, None, &target, &[Some(c(0)), Some(c(5))], &cfg);
        assert_eq!(report.exhausted, Some(Exhausted::Cancelled));
        assert_eq!(report.stats, HomStats::default());
    }

    #[test]
    fn stats_merge_adds_counters() {
        let mut a = HomStats { nodes: 1, backtracks: 2, found: 3 };
        a += HomStats { nodes: 10, backtracks: 20, found: 30 };
        assert_eq!(a, HomStats { nodes: 11, backtracks: 22, found: 33 });
    }
}

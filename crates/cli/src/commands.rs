//! Subcommand implementations for the `rde` CLI.

use std::fs;
use std::time::Duration;

use rde_chase::{
    chase_mapping, disjunctive_chase, ChaseOptions, CheckpointPolicy, DisjunctiveChaseOptions,
};
use rde_core::chase_inverse::find_chase_inverse_counterexample;
use rde_core::compare::{compare_lossiness, Comparison};
use rde_core::faithful::check_universal_faithful;
use rde_core::invertibility::{check_homomorphism_property_budgeted, BoundedVerdict};
use rde_core::loss::information_loss;
use rde_core::quasi_inverse::maximum_extended_recovery_full;
use rde_core::recovery::{
    check_maximum_extended_recovery, find_extended_recovery_counterexample, MaxRecoveryVerdict,
};
use rde_core::retry::{retry_budgeted, RetryPolicy};
use rde_core::{CoreError, Universe};
use rde_deps::{parse_mapping, printer, SchemaMapping};
use rde_faults::{CancelToken, ExecContext};
use rde_hom::{Exhausted, HomConfig, HomStats, Verdict};
use rde_model::{display, parse::parse_instance, Instance, Vocabulary};
use rde_obs::{journal, Record, Sink};
use rde_query::ConjunctiveQuery;

use crate::options::Options;

/// How a command line failed.
///
/// Cancellation (an elapsed `--deadline-ms` or a Ctrl-C) is kept apart
/// from ordinary errors so `main` can exit with a distinct status and
/// scripts can tell "wrong input" from "ran out of time".
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// An ordinary failure, rendered to stderr.
    Message(String),
    /// The command was cooperatively cancelled before it finished.
    Cancelled,
    /// The server declined the work (`SHED` reply — overload or the
    /// request's server-side deadline) or could not settle it within
    /// its budgets (`UNKNOWN` reply). The work may succeed on retry,
    /// so scripts get a status distinct from both "wrong input" (1)
    /// and "this client ran out of time" (3).
    Shed(String),
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Message(message)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Message(m) | CliError::Shed(m) => f.write_str(m),
            CliError::Cancelled => f.write_str("cancelled (deadline elapsed or interrupted)"),
        }
    }
}

/// The execution context for one command invocation: a live cancel
/// token watching the process interrupt flag and carrying the
/// `--deadline-ms` budget when one was given. The CLI never installs a
/// fault injector — injection campaigns are a test-harness concern and
/// stay scoped to the contexts that opt in.
fn exec_context(opts: &Options) -> ExecContext {
    rde_faults::install_interrupt_handler();
    let token = match opts.deadline_ms {
        Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
        None => CancelToken::new(),
    };
    ExecContext::default().with_cancel(token.watching_interrupt())
}

fn chase_err(e: rde_chase::ChaseError) -> CliError {
    match e {
        rde_chase::ChaseError::Cancelled => CliError::Cancelled,
        e => CliError::Message(e.to_string()),
    }
}

fn core_err(e: CoreError) -> CliError {
    match e {
        CoreError::Cancelled => CliError::Cancelled,
        e => CliError::Message(e.to_string()),
    }
}

/// Record bound for `--trace-out` journals and `profile` runs: large
/// enough for real scenarios, small enough that a runaway chase cannot
/// exhaust memory (the journal reports what it drops).
const JOURNAL_CAPACITY: usize = 1 << 20;

const USAGE: &str = "\
rde — reverse data exchange with nulls (Fagin, Kolaitis, Popa, Tan; PODS 2009)

USAGE:
    rde <command> [args] [--consts N] [--nulls N] [--facts N] [--examples N]
                  [--node-budget N] [--time-budget-ms N] [--retries N]
                  [--deadline-ms N] [--stats] [--metrics] [--trace-out PATH]
                  [--checkpoint PATH] [--checkpoint-every N] [--resume PATH]
                  [--variant naive|semi-naive|restricted]

COMMANDS:
    chase    <mapping> <instance>             canonical universal solution chase_M(I)
    reverse  <mapping> <reverse> <instance>   reverse exchange: leaves of chase_M'(chase_M(I))
    invert   <mapping>                        maximum extended recovery of a full-tgd mapping
    check-chase-inverse <mapping> <reverse>   chase-inverse counterexample search (Thm 3.17)
    check-recovery <mapping> <reverse>        extended / maximum extended recovery check (Thm 4.13)
    invertible <mapping>                      homomorphism-property check (Thm 3.13)
    loss     <mapping>                        information-loss census (Cor 4.14)
    compare  <mapping1> <mapping2>            less-lossy comparison (Def 6.6)
    certain  <mapping> <reverse> <instance> <query>
                                              reverse certain answers (Thm 6.5);
                                              query syntax: 'q(x) :- P(x, y)'
    core     <mapping> <instance>             core universal solution (minimal chase)
    hom      <instance1> <instance2>          decide I1 -> I2, equivalence, isomorphism
    eval     <instance> <query>               q(I) and q(I)↓
    minimize-query <query>                    CQ minimization (core of the query)
    normalize <mapping>                       tgd normal form (split conclusions)
    analyze  <mapping>                        static chase-termination analysis: weak
                                              acyclicity / stratification verdict, the
                                              offending cycle if unproven, and suggested
                                              round/node budgets (exit 1 when unproven)
    compose  <mapping12> <mapping23>          syntactic composition (m12 full tgds)
    faithful <mapping> <reverse>              universal-faithfulness check (Def 6.1)
    profile  <mapping> <instance>             chase under tracing; print the span-tree
                                              time breakdown (µs per subsystem) and
                                              per-span p50/p99 latency quantiles
    profile  <workload> <args…>               same, for another command's engine run;
                                              workload ∈ chase|invertible|compare|loss
    profile  <journal.jsonl> --request-id N   span breakdown of one request extracted
                                              from an interleaved journal file
    serve    <catalog-dir>                    daemon: serve every NAME.map (+ optional
                                              NAME.rev) in the directory over TCP
                                              [--addr HOST:PORT] [--max-inflight N]
                                              [--cache-memo N] [--cache-classes N]
                                              [--access-log PATH] [--trace-slow-ms N]
                                              [--tenant-quota NAME=rps[:burst]]…
                                              [--conn-idle-ms N] [--max-strikes N]
                                              [--require-terminating]
    call     <addr> <op> [args…]              one request against a running daemon;
                                              op ∈ ping|list|stats|metrics|reload
                                              | invertible <mapping>
                                              | chase <mapping> <instance>
                                              | arrow <mapping> <inst1> <inst2>
                                              | certain <mapping> <instance> <query>
                                              [--retries N] [--tenant NAME]
    top      <addr>                           live per-mapping request table polled
                                              from the daemon's METRICS op
                                              [--interval-ms N] [--iterations N]
    help                                      this message

The --consts/--nulls/--facts flags size the bounded universe used by the
checking commands (defaults: 2/1/2). Counterexamples found are genuine;
a pass is exact within the bound.

--node-budget N caps every homomorphism search at N nodes, and
--time-budget-ms N caps it in wall-clock time: the checkers (invertible,
compare, check-recovery, check-chase-inverse, loss, faithful, hom) then
answer UNKNOWN instead of searching without bound (counterexamples
reported under a budget are still genuine); chase, core, reverse and
certain stop with an error instead. --retries N reruns an UNKNOWN check
up to N more times with exponentially escalated budgets. --stats prints
search-work counters after the answer (chase, core and the checkers).

--deadline-ms N caps the whole command in wall-clock time: the engines
cancel cooperatively at the next round/search boundary and the process
exits with status 3 instead of printing a partial answer. Ctrl-C
cancels the same way (a second Ctrl-C kills the process).

--trace-out PATH streams the structured JSONL event journal (spans,
chase rounds, tgd firings, budget exhaustions) to PATH; --metrics
prints the process-wide metrics registry snapshot at exit.

--checkpoint PATH makes `chase` and `core` write a resumable snapshot
of the chase round state to PATH (atomically, every
--checkpoint-every N completed rounds; default 1). --resume PATH
restarts an interrupted run from such a snapshot; the resumed result
is bit-identical to an uninterrupted run.

--variant {naive,semi-naive,restricted} picks the chase variant for
every chase the command runs. naive and semi-naive are oblivious (every
trigger fires; semi-naive only re-matches against each round's delta);
restricted skips a trigger whose conclusion is already satisfied in the
live instance, trading a satisfaction check per trigger for a smaller
result. All three produce hom-equivalent results with identical cores.
For `call`, the flag is forwarded as the `variant` request header.

`analyze MAPPING` proves chase termination statically when it can:
weakly-acyclic (no position-graph cycle through a null-inventing
special edge), else stratified (every firing-graph stratum weakly
acyclic on its own, with Constant guards breaking null-fed cycles),
else unproven — then the offending cycle is printed and the exit
status is 1. Suggested --max-rounds/--node-budget caps scale with the
proven rank. `serve --require-terminating` runs the same analysis at
catalog load and rejects unproven entries with a typed error.

`serve` prints `listening on HOST:PORT` once ready (`--addr` port 0
picks a free port) and runs until Ctrl-C, then drains in-flight
requests and exits 0. Each mapping gets a warm arrow cache bounded by
--cache-memo/--cache-classes; past --max-inflight concurrent requests
the daemon answers SHED instead of queueing without bound.

Serve hardening: SIGHUP or the RELOAD op re-scans the catalog and
atomically swaps a new generation in (in-flight requests finish on the
old one; unchanged mappings keep their warm caches; a broken catalog
rejects the swap and the old generation keeps serving). Repeatable
--tenant-quota NAME=rps[:burst] token-buckets requests by their
`tenant` header (the name `default` covers anonymous and unquoted
tenants); over-quota requests get SHED with a retry-after-ms hint.
--conn-idle-ms N closes connections idle or stalled past N ms (0
disables; default 60000), and --max-strikes N (default 3) closes a
connection after N protocol violations (oversized lines/headers/body,
malformed or duplicated headers — each answered with a typed ERR).

`call` exit status: 0 on an OK reply, 1 on an ERR reply or connection
failure, 3 when this client's own --deadline-ms elapsed first, 4 on a
SHED or UNKNOWN reply (retryable: the server shed load, enforced
--server-deadline-ms, or ran out of --node-budget/--time-budget-ms).
`call --retries N` retries those in-process: SHEDs wait the server's
retry-after-ms hint (else exponential backoff), UNKNOWNs escalate the
--node-budget/--time-budget-ms headers. `top` survives daemon
restarts: a lost connection renders a `disconnected` banner and
reconnects with backoff instead of exiting.

Serve telemetry: every request gets a monotonic id stamped as a `req`
field on all of its journal records, engine worker threads included.
--access-log PATH streams the request journal to a rotating JSONL file
(one `serve.access` line per request: op, mapping, outcome,
elapsed µs, arrow-cache hit/miss). --trace-slow-ms N buffers each
request's span tree and journals it only when the request took ≥ N ms
(0 keeps every tree). `rde profile LOG --request-id N` then rebuilds
one request's span breakdown from the interleaved file, and `rde top
ADDR` renders a live per-mapping table (req/s, p50/p99, inflight,
sheds, cache occupancy) by polling the METRICS op.
";

/// Run a full command line (everything after `argv[0]`).
pub fn run(args: &[String]) -> Result<(), CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        print!("{USAGE}");
        return Ok(());
    };
    let opts = Options::parse(rest)?;
    // `profile` drives its own in-memory journal; for every other
    // command --trace-out streams the journal straight to the file.
    let journal_attached = if cmd != "profile" && opts.trace_out.is_some() {
        let path = opts.trace_out.as_deref().unwrap();
        journal::attach(Sink::File(path.into()), JOURNAL_CAPACITY)
            .map_err(|e| format!("--trace-out `{path}`: {e}"))?;
        journal::enabled()
    } else {
        false
    };
    let result = match cmd.as_str() {
        "chase" => cmd_chase(&opts),
        "reverse" => cmd_reverse(&opts),
        "invert" => cmd_invert(&opts),
        "check-chase-inverse" => cmd_check_chase_inverse(&opts),
        "check-recovery" => cmd_check_recovery(&opts),
        "invertible" => cmd_invertible(&opts),
        "loss" => cmd_loss(&opts),
        "compare" => cmd_compare(&opts),
        "certain" => cmd_certain(&opts),
        "core" => cmd_core(&opts),
        "hom" => cmd_hom(&opts),
        "eval" => cmd_eval(&opts),
        "minimize-query" => cmd_minimize_query(&opts),
        "normalize" => cmd_normalize(&opts),
        "analyze" => cmd_analyze(&opts),
        "compose" => cmd_compose(&opts),
        "faithful" => cmd_faithful(&opts),
        "profile" => cmd_profile(&opts),
        "serve" => cmd_serve(&opts),
        "call" => cmd_call(&opts),
        "top" => cmd_top(&opts),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Message(format!("unknown command `{other}`; run `rde help`"))),
    };
    if journal_attached {
        if let Some(summary) = journal::detach() {
            if summary.dropped > 0 {
                eprintln!(
                    "# trace journal truncated: {} record(s) dropped past capacity",
                    summary.dropped
                );
            }
        }
    }
    if opts.metrics {
        let snap = rde_obs::snapshot();
        if snap.is_empty() {
            println!("# metrics: none recorded");
        } else {
            print!("{}", snap.render());
        }
    }
    result
}

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

fn load_mapping(vocab: &mut Vocabulary, path: &str) -> Result<SchemaMapping, String> {
    parse_mapping(vocab, &read(path)?).map_err(|e| format!("{path}: {e}"))
}

/// Parse an instance file.
fn load_instance(vocab: &mut Vocabulary, path: &str) -> Result<Instance, String> {
    parse_instance(vocab, &read(path)?).map_err(|e| format!("{path}: {e}"))
}

fn universe(vocab: &mut Vocabulary, opts: &Options) -> Universe {
    Universe::new(vocab, opts.consts, opts.nulls, opts.facts)
}

fn hom_config(opts: &Options) -> HomConfig {
    HomConfig {
        node_budget: opts.node_budget,
        time_budget: opts.time_budget_ms.map(Duration::from_millis),
        ctx: exec_context(opts),
        ..HomConfig::default()
    }
}

/// Chase options for the chase-driving commands: the command's budgets
/// and context plus any `--checkpoint`/`--resume` flags, on the
/// `--variant` chase (the default variant when the flag is absent).
fn chase_options(opts: &Options) -> ChaseOptions {
    ChaseOptions {
        checkpoint: opts
            .checkpoint
            .as_deref()
            .map(|path| CheckpointPolicy::new(path, opts.checkpoint_every)),
        resume_from: opts.resume.as_deref().map(Into::into),
        ..forward_chase_options(opts)
    }
}

/// Options for a forward chase that keeps no checkpoint (the one in
/// front of `reverse` and `certain`): the command's budgets and context
/// on the `--variant` chase.
fn forward_chase_options(opts: &Options) -> ChaseOptions {
    ChaseOptions {
        hom: hom_config(opts),
        ..ChaseOptions::for_variant(opts.variant.unwrap_or_default())
    }
}

fn print_hom_stats(stats: &HomStats) {
    println!(
        "# hom search: {} node(s), {} backtrack(s), {} hom(s) found",
        stats.nodes, stats.backtracks, stats.found
    );
}

/// One checker command's budgets, context and search counters. Every
/// checker command runs its checks through [`Checker::run`] under one
/// config, so `--deadline-ms` caps the whole command.
struct Checker<'a> {
    opts: &'a Options,
    config: HomConfig,
    stats: HomStats,
}

impl<'a> Checker<'a> {
    fn new(opts: &'a Options) -> Self {
        Checker { opts, config: hom_config(opts), stats: HomStats::default() }
    }

    /// Run one check: rerun it with escalated budgets while `unknown`
    /// reports a cut search (`--retries`), exit 3 when the context was
    /// cancelled, and print `LABEL: UNKNOWN (…)` when the budgets never
    /// sufficed. Returns the settled outcome, or `None` once UNKNOWN is
    /// printed.
    fn run<T>(
        &mut self,
        label: &str,
        check: impl FnMut(&HomConfig, &mut HomStats) -> Result<T, CoreError>,
        unknown: impl Fn(&T) -> Option<Exhausted>,
    ) -> Result<Option<T>, CliError> {
        let outcome = self.settle(label, check, &unknown)?;
        Ok(unknown(&outcome).is_none().then_some(outcome))
    }

    /// [`Checker::run`], returning the outcome even when it printed
    /// UNKNOWN, so that a verdict derived from it keeps the budget.
    fn settle<T>(
        &mut self,
        label: &str,
        mut check: impl FnMut(&HomConfig, &mut HomStats) -> Result<T, CoreError>,
        unknown: impl Fn(&T) -> Option<Exhausted>,
    ) -> Result<T, CliError> {
        let stats = &mut self.stats;
        let (outcome, attempts) = retry_budgeted(
            &self.config,
            &RetryPolicy::with_retries(self.opts.retries),
            |cfg| check(cfg, stats),
            |outcome| outcome.as_ref().is_ok_and(|v| unknown(v).is_some()),
        );
        if attempts > 1 {
            println!("# retried with escalated budgets: {attempts} attempt(s)");
        }
        let outcome = outcome.map_err(core_err)?;
        match unknown(&outcome) {
            Some(Exhausted::Cancelled) => return Err(CliError::Cancelled),
            Some(budget) => print_unknown(label, budget),
            None => {}
        }
        Ok(outcome)
    }

    /// End the command: print the `--stats` counters after the answer.
    fn finish(self) -> Result<(), CliError> {
        if self.opts.stats {
            print_hom_stats(&self.stats);
        }
        Ok(())
    }
}

fn print_unknown(label: &str, budget: Exhausted) {
    println!("{label}: UNKNOWN ({budget}); raise --node-budget or --retries");
}

fn verdict_unknown(verdict: &Verdict) -> Option<Exhausted> {
    match verdict {
        Verdict::Unknown { budget } => Some(*budget),
        _ => None,
    }
}

fn bounded_unknown(verdict: &BoundedVerdict) -> Option<Exhausted> {
    match verdict {
        BoundedVerdict::Unknown { budget } => Some(*budget),
        _ => None,
    }
}

fn cmd_chase(opts: &Options) -> Result<(), CliError> {
    let mut vocab = Vocabulary::new();
    let mapping = load_mapping(&mut vocab, opts.positional(0, "mapping file")?)?;
    let instance = load_instance(&mut vocab, opts.positional(1, "instance file")?)?;
    let options = chase_options(opts);
    let result = rde_chase::chase(&instance, &mapping.dependencies, &mut vocab, &options)
        .map_err(chase_err)?;
    print!("{}", display::instance(&vocab, &result.instance.restrict_to(&mapping.target)));
    if opts.stats {
        print_chase_stats(&result);
    }
    Ok(())
}

/// The `--stats` lines of `chase` and `core`: rounds and firings, then
/// every hom search the command ran.
fn print_chase_stats(result: &rde_chase::ChaseResult) {
    println!("# chase: {} round(s), {} trigger(s) fired", result.rounds, result.fired);
    print_hom_stats(&result.hom);
}

fn cmd_reverse(opts: &Options) -> Result<(), CliError> {
    let mut vocab = Vocabulary::new();
    let mapping = load_mapping(&mut vocab, opts.positional(0, "mapping file")?)?;
    let reverse = load_mapping(&mut vocab, opts.positional(1, "reverse mapping file")?)?;
    let instance = load_instance(&mut vocab, opts.positional(2, "instance file")?)?;
    let forward = forward_chase_options(opts);
    let u = chase_mapping(&instance, &mapping, &mut vocab, &forward).map_err(chase_err)?;
    let options =
        DisjunctiveChaseOptions { hom: forward.hom, ..DisjunctiveChaseOptions::default() };
    let result =
        disjunctive_chase(&u, &reverse.dependencies, &mut vocab, &options).map_err(chase_err)?;
    println!("# {} leaf instance(s)", result.leaves.len());
    for (i, leaf) in result.leaves.iter().enumerate() {
        println!("# leaf {}", i + 1);
        print!("{}", display::instance(&vocab, &leaf.restrict_to(&mapping.source)));
    }
    Ok(())
}

fn cmd_invert(opts: &Options) -> Result<(), CliError> {
    let mut vocab = Vocabulary::new();
    let mapping = load_mapping(&mut vocab, opts.positional(0, "mapping file")?)?;
    let recovery = maximum_extended_recovery_full(&mapping, &mut vocab, &hom_config(opts))
        .map_err(core_err)?;
    print!("{}", printer::mapping(&vocab, &recovery));
    Ok(())
}

fn cmd_check_chase_inverse(opts: &Options) -> Result<(), CliError> {
    let mut vocab = Vocabulary::new();
    let mapping = load_mapping(&mut vocab, opts.positional(0, "mapping file")?)?;
    let reverse = load_mapping(&mut vocab, opts.positional(1, "reverse mapping file")?)?;
    let u = universe(&mut vocab, opts);
    let family = u.collect_instances(&vocab, &mapping.source).map_err(|e| e.to_string())?;
    println!("# checking {} source instance(s)", family.len());
    let mut checker = Checker::new(opts);
    let verdict = checker.run(
        "chase-inverse",
        |cfg, st| {
            find_chase_inverse_counterexample(&mapping, &reverse, &family, &mut vocab, cfg, st)
        },
        bounded_unknown,
    )?;
    match verdict {
        Some(BoundedVerdict::HoldsWithinBound) => {
            println!("chase-inverse: HOLDS within bound (extended inverse by Thm 3.17)");
        }
        Some(BoundedVerdict::Counterexample { i1, .. }) => {
            println!("chase-inverse: FAILS at source instance:");
            print!("{}", display::instance(&vocab, &i1));
        }
        Some(BoundedVerdict::Unknown { .. }) | None => {}
    }
    checker.finish()
}

fn cmd_check_recovery(opts: &Options) -> Result<(), CliError> {
    let mut vocab = Vocabulary::new();
    let mapping = load_mapping(&mut vocab, opts.positional(0, "mapping file")?)?;
    let reverse = load_mapping(&mut vocab, opts.positional(1, "reverse mapping file")?)?;
    let u = universe(&mut vocab, opts);
    let family = u.collect_instances(&vocab, &mapping.source).map_err(|e| e.to_string())?;
    println!("# checking {} source instance(s)", family.len());
    let mut checker = Checker::new(opts);
    let recovery = checker.run(
        "extended recovery",
        |cfg, st| {
            find_extended_recovery_counterexample(&mapping, &reverse, &family, &mut vocab, cfg, st)
        },
        bounded_unknown,
    )?;
    match recovery {
        Some(BoundedVerdict::Counterexample { i1, .. }) => {
            println!("extended recovery: FAILS at source instance:");
            print!("{}", display::instance(&vocab, &i1));
            return checker.finish();
        }
        Some(_) => println!("extended recovery: HOLDS within bound"),
        None => {}
    }
    let verdict = checker.run(
        "maximum extended recovery",
        |cfg, st| check_maximum_extended_recovery(&mapping, &reverse, &u, &mut vocab, cfg, st),
        |v| match v {
            MaxRecoveryVerdict::Unknown { budget } => Some(*budget),
            _ => None,
        },
    )?;
    match verdict {
        Some(MaxRecoveryVerdict::HoldsWithinBound) => {
            println!("maximum extended recovery (e(M)∘e(M') = →_M): HOLDS within bound");
        }
        Some(MaxRecoveryVerdict::NotContainedInArrowM { i1, i2 }) => {
            println!("maximum extended recovery: FAILS (composition exceeds →_M) at pair:");
            print!("{}", display::instance(&vocab, &i1));
            println!("--");
            print!("{}", display::instance(&vocab, &i2));
        }
        Some(MaxRecoveryVerdict::MissesArrowMPair { i1, i2 }) => {
            println!("maximum extended recovery: FAILS (misses a →_M pair):");
            print!("{}", display::instance(&vocab, &i1));
            println!("--");
            print!("{}", display::instance(&vocab, &i2));
        }
        Some(MaxRecoveryVerdict::Unknown { .. }) | None => {}
    }
    checker.finish()
}

fn cmd_invertible(opts: &Options) -> Result<(), CliError> {
    let mut vocab = Vocabulary::new();
    let mapping = load_mapping(&mut vocab, opts.positional(0, "mapping file")?)?;
    let u = universe(&mut vocab, opts);
    let mut checker = Checker::new(opts);
    let verdict = checker.run(
        "homomorphism property",
        |cfg, st| check_homomorphism_property_budgeted(&mapping, &u, &mut vocab, cfg, st),
        bounded_unknown,
    )?;
    match verdict {
        Some(BoundedVerdict::HoldsWithinBound) => {
            println!("homomorphism property: HOLDS within bound (extended-invertible evidence)");
        }
        Some(BoundedVerdict::Counterexample { i1, i2 }) => {
            println!("NOT extended-invertible; counterexample (I1 →_M I2 but I1 ↛ I2):");
            print!("{}", display::instance(&vocab, &i1));
            println!("--");
            print!("{}", display::instance(&vocab, &i2));
        }
        Some(BoundedVerdict::Unknown { .. }) | None => {}
    }
    checker.finish()
}

fn cmd_loss(opts: &Options) -> Result<(), CliError> {
    let mut vocab = Vocabulary::new();
    let mapping = load_mapping(&mut vocab, opts.positional(0, "mapping file")?)?;
    let u = universe(&mut vocab, opts);
    let mut checker = Checker::new(opts);
    let report = checker.run(
        "information loss",
        |cfg, st| information_loss(&mapping, &u, &mut vocab, opts.examples, cfg, st),
        |report| report.unsettled,
    )?;
    if let Some(report) = report {
        println!("universe size:    {}", report.universe_size);
        println!("pairs in →_M:     {}", report.arrow_m_pairs);
        println!("pairs in →:       {}", report.hom_pairs);
        println!(
            "lost pairs:       {} ({:.2}% of all pairs)",
            report.lost_pairs,
            100.0 * report.loss_fraction()
        );
        for (i1, i2) in &report.examples {
            println!(
                "lost: {} →_M {} (no homomorphism)",
                display::instance_inline(&vocab, i1),
                display::instance_inline(&vocab, i2)
            );
        }
    }
    checker.finish()
}

fn cmd_compare(opts: &Options) -> Result<(), CliError> {
    let mut vocab = Vocabulary::new();
    let m1 = load_mapping(&mut vocab, opts.positional(0, "first mapping file")?)?;
    let m2 = load_mapping(&mut vocab, opts.positional(1, "second mapping file")?)?;
    let u = universe(&mut vocab, opts);
    let mut checker = Checker::new(opts);
    let cmp = checker.run(
        "comparison",
        |cfg, st| compare_lossiness(&m1, &m2, &u, &mut vocab, cfg, st),
        |cmp| match cmp {
            Comparison::Unknown { budget } => Some(*budget),
            _ => None,
        },
    )?;
    match cmp {
        Some(Comparison::EquallyLossy) => println!("equally lossy (within bound)"),
        Some(Comparison::StrictlyLessLossy) => {
            println!("mapping 1 is strictly less lossy than mapping 2");
        }
        Some(Comparison::StrictlyMoreLossy) => {
            println!("mapping 2 is strictly less lossy than mapping 1");
        }
        Some(Comparison::Incomparable { only_in_m1, only_in_m2 }) => {
            println!("incomparable:");
            println!(
                "  pair only in →_M1: {} / {}",
                display::instance_inline(&vocab, &only_in_m1.0),
                display::instance_inline(&vocab, &only_in_m1.1)
            );
            println!(
                "  pair only in →_M2: {} / {}",
                display::instance_inline(&vocab, &only_in_m2.0),
                display::instance_inline(&vocab, &only_in_m2.1)
            );
        }
        Some(Comparison::Unknown { .. }) | None => {}
    }
    checker.finish()
}

fn cmd_certain(opts: &Options) -> Result<(), CliError> {
    let mut vocab = Vocabulary::new();
    let mapping = load_mapping(&mut vocab, opts.positional(0, "mapping file")?)?;
    let reverse = load_mapping(&mut vocab, opts.positional(1, "reverse mapping file")?)?;
    let instance = load_instance(&mut vocab, opts.positional(2, "instance file")?)?;
    let query_text = opts.positional(3, "query")?;
    let q = ConjunctiveQuery::parse(&mut vocab, query_text).map_err(|e| e.to_string())?;
    let forward = forward_chase_options(opts);
    let u = chase_mapping(&instance, &mapping, &mut vocab, &forward).map_err(chase_err)?;
    let answers = rde_query::reverse_certain_answers_from_target(
        &q,
        &u,
        &mapping,
        &reverse,
        &mut vocab,
        &DisjunctiveChaseOptions { hom: forward.hom, ..DisjunctiveChaseOptions::default() },
    )
    .map_err(chase_err)?;
    println!("# {} certain answer(s)", answers.len());
    for tuple in &answers {
        let rendered: Vec<String> = tuple.iter().map(|&v| vocab.value_name(v)).collect();
        println!("({})", rendered.join(", "));
    }
    Ok(())
}

fn cmd_core(opts: &Options) -> Result<(), CliError> {
    let mut vocab = Vocabulary::new();
    let mapping = load_mapping(&mut vocab, opts.positional(0, "mapping file")?)?;
    let instance = load_instance(&mut vocab, opts.positional(1, "instance file")?)?;
    let options = chase_options(opts);
    let result = rde_chase::core_chase_mapping(&instance, &mapping, &mut vocab, &options)
        .map_err(chase_err)?;
    print!("{}", display::instance(&vocab, &result.instance));
    if opts.stats {
        print_chase_stats(&result);
    }
    Ok(())
}

fn cmd_hom(opts: &Options) -> Result<(), CliError> {
    // Both instances share one vocabulary: `?name` in either file
    // denotes the same labeled null.
    let mut vocab = Vocabulary::new();
    let i1 = load_instance(&mut vocab, opts.positional(0, "first instance file")?)?;
    let i2 = load_instance(&mut vocab, opts.positional(1, "second instance file")?)?;
    let mut checker = Checker::new(opts);
    let fwd = checker.settle(
        "I1 -> I2",
        |cfg, st| Ok(rde_hom::find_hom(&i1, &i2, &Default::default(), cfg, st)),
        |found| found.as_ref().err().copied(),
    )?;
    let fwd = match fwd {
        Ok(Some(h)) => {
            println!("I1 -> I2: YES");
            let mut bindings: Vec<(rde_model::NullId, rde_model::Value)> = h.iter().collect();
            bindings.sort();
            for (n, img) in bindings {
                println!("  {} |-> {}", vocab.null_name(n), vocab.value_name(img));
            }
            Verdict::Holds
        }
        Ok(None) => {
            println!("I1 -> I2: NO");
            Verdict::Fails
        }
        Err(budget) => Verdict::Unknown { budget },
    };
    let bwd = checker.settle(
        "I2 -> I1",
        |cfg, st| Ok(rde_hom::exists_hom(&i2, &i1, cfg, st)),
        verdict_unknown,
    )?;
    if !bwd.is_unknown() {
        println!("I2 -> I1: {}", if bwd.holds() { "YES" } else { "NO" });
    }
    // Equivalence is the Kleene conjunction of the two directions
    // already searched: a definite NO in either beats an UNKNOWN.
    match fwd.and(bwd) {
        Verdict::Unknown { budget } => print_unknown("hom-equivalent", budget),
        Verdict::Fails => println!("hom-equivalent: false; isomorphic: false"),
        Verdict::Holds => {
            // Isomorphic instances are hom-equivalent, so only an
            // equivalent pair needs the isomorphism search, which runs
            // under the same budgets as the two directions.
            let iso = checker.settle(
                "isomorphic",
                |cfg, st| Ok(rde_hom::find_iso(&i1, &i2, cfg, st)),
                |found| found.as_ref().err().copied(),
            )?;
            let isomorphic = iso.map_or("UNKNOWN".to_string(), |found| found.is_some().to_string());
            println!("hom-equivalent: true; isomorphic: {isomorphic}");
        }
    }
    checker.finish()
}

fn cmd_eval(opts: &Options) -> Result<(), CliError> {
    let mut vocab = Vocabulary::new();
    let instance = load_instance(&mut vocab, opts.positional(0, "instance file")?)?;
    let q = ConjunctiveQuery::parse(&mut vocab, opts.positional(1, "query")?)
        .map_err(|e| e.to_string())?;
    let all = rde_query::evaluate(&q, &instance);
    let certain = rde_query::drop_nulls(&all);
    println!("# {} answer(s), {} null-free", all.len(), certain.len());
    for tuple in &all {
        let rendered: Vec<String> = tuple.iter().map(|&v| vocab.value_name(v)).collect();
        let mark = if tuple.iter().all(|v| v.is_const()) { "" } else { "   (has nulls)" };
        println!("({}){mark}", rendered.join(", "));
    }
    Ok(())
}

fn cmd_minimize_query(opts: &Options) -> Result<(), CliError> {
    let mut vocab = Vocabulary::new();
    let q = ConjunctiveQuery::parse(&mut vocab, opts.positional(0, "query")?)
        .map_err(|e| e.to_string())?;
    let min = rde_query::minimize(&q, &vocab).map_err(|e| e.to_string())?;
    let dep = min.as_dependency();
    println!(
        "{} body atom(s) (from {})",
        dep.premise.atoms.len(),
        q.as_dependency().premise.atoms.len()
    );
    println!("{}", rde_deps::printer::dependency(&vocab, dep));
    Ok(())
}

fn cmd_normalize(opts: &Options) -> Result<(), CliError> {
    let mut vocab = Vocabulary::new();
    let mapping = load_mapping(&mut vocab, opts.positional(0, "mapping file")?)?;
    let normalized = SchemaMapping::new(
        mapping.source.clone(),
        mapping.target.clone(),
        rde_deps::normalize_all(&mapping.dependencies),
    );
    print!("{}", printer::mapping(&vocab, &normalized));
    Ok(())
}

fn cmd_compose(opts: &Options) -> Result<(), CliError> {
    let mut vocab = Vocabulary::new();
    let m12 = load_mapping(&mut vocab, opts.positional(0, "first mapping file")?)?;
    let m23 = load_mapping(&mut vocab, opts.positional(1, "second mapping file")?)?;
    let composed =
        rde_core::unfold::compose_mappings(&m12, &m23, &vocab).map_err(|e| e.to_string())?;
    print!("{}", printer::mapping(&vocab, &composed));
    Ok(())
}

fn cmd_faithful(opts: &Options) -> Result<(), CliError> {
    let mut vocab = Vocabulary::new();
    let mapping = load_mapping(&mut vocab, opts.positional(0, "mapping file")?)?;
    let reverse = load_mapping(&mut vocab, opts.positional(1, "reverse mapping file")?)?;
    let u = universe(&mut vocab, opts);
    let mut checker = Checker::new(opts);
    let failure = checker.run(
        "universal-faithful",
        |cfg, st| check_universal_faithful(&mapping, &reverse, &u, &mut vocab, cfg, st),
        |failure| failure.as_ref().and_then(|(_, report)| verdict_unknown(&report.verdict())),
    )?;
    let truth = |v: Verdict| match v {
        Verdict::Holds => "true".to_string(),
        Verdict::Fails => "false".to_string(),
        Verdict::Unknown { budget } => format!("UNKNOWN ({budget})"),
    };
    match failure {
        Some(None) => println!("universal-faithful: HOLDS within bound (Def 6.1)"),
        Some(Some((source, report))) => {
            println!("universal-faithful: FAILS at source instance:");
            print!("{}", display::instance(&vocab, &source));
            println!(
                "condition (1) every-leaf-exports-at-least: {}",
                truth(report.every_leaf_exports_at_least)
            );
            println!(
                "condition (2) some-leaf-exports-at-most:   {}",
                truth(report.some_leaf_exports_at_most)
            );
            println!(
                "condition (3) universality:                {}",
                truth(report.universality_within_bound)
            );
            if let Some(cex) = report.universality_counterexample {
                println!("unreachable I':");
                print!("{}", display::instance(&vocab, &cex));
            }
        }
        None => {}
    }
    checker.finish()
}

/// Rotating access-log sink bounds: 64 MiB per file, 4 rotated files
/// kept — enough history to debug an incident, bounded on disk.
const ACCESS_LOG_MAX_BYTES: u64 = 64 << 20;
const ACCESS_LOG_KEEP: usize = 4;

/// `rde serve <catalog-dir>` — run the mapping daemon until Ctrl-C.
fn cmd_analyze(opts: &Options) -> Result<(), CliError> {
    let mut vocab = Vocabulary::new();
    let path = opts.positional(0, "mapping file")?;
    let mapping = load_mapping(&mut vocab, path)?;
    let ctx = exec_context(opts);
    let report = rde_deps::analyze_mapping(&mapping, &ctx).map_err(|e| match e {
        rde_deps::AnalyzeError::Cancelled => CliError::Cancelled,
        e => CliError::Message(e.to_string()),
    })?;
    print!("{}", report.render(&vocab));
    if !report.verdict.is_terminating() {
        return Err(CliError::Message(format!(
            "termination unproven for `{path}`; chase it only with explicit budgets \
             (e.g. --node-budget {})",
            report.suggested_node_budget
        )));
    }
    Ok(())
}

fn cmd_serve(opts: &Options) -> Result<(), CliError> {
    use std::io::Write as _;
    let catalog = opts.positional(0, "catalog directory")?;
    rde_faults::install_interrupt_handler();
    // SIGHUP asks for a catalog reload (same path as the RELOAD op);
    // the accept loop polls the latch between accepts.
    rde_faults::install_reload_handler();
    let shutdown = CancelToken::new().watching_interrupt();
    let defaults = rde_serve::ServeOptions::default();
    let tenant_quotas = opts
        .tenant_quotas
        .iter()
        .map(|spec| rde_serve::TenantQuota::parse(spec))
        .collect::<Result<Vec<_>, _>>()
        .map_err(CliError::Message)?;
    let idle_timeout = match opts.conn_idle_ms {
        Some(0) => None, // 0 disables the read/idle deadline entirely
        Some(ms) => Some(Duration::from_millis(ms)),
        None => defaults.idle_timeout,
    };
    let serve_options = rde_serve::ServeOptions {
        addr: opts.addr.clone().unwrap_or_else(|| "127.0.0.1:7643".to_owned()),
        catalog: catalog.into(),
        dims: rde_serve::UniverseDims { consts: opts.consts, nulls: opts.nulls, facts: opts.facts },
        policy: rde_core::arrow::CachePolicy::bounded(
            opts.cache_memo.unwrap_or(defaults.policy.max_memo),
            opts.cache_classes.unwrap_or(defaults.policy.max_interned),
        ),
        max_inflight: opts.max_inflight.unwrap_or(defaults.max_inflight),
        trace_slow_ms: opts.trace_slow_ms,
        tenant_quotas,
        idle_timeout,
        max_strikes: opts.max_strikes.unwrap_or(defaults.max_strikes),
        require_terminating: opts.require_terminating,
        ..defaults
    };
    // --access-log points the process journal at a rotating file: one
    // `serve.access` JSONL line per request, plus any span trees the
    // slow-request sampler keeps. The journal is process-global, so it
    // and --trace-out cannot both own the sink.
    if let (Some(_), Some(_)) = (&opts.access_log, &opts.trace_out) {
        return Err(CliError::Message(
            "--access-log and --trace-out both claim the journal; pass one".into(),
        ));
    }
    let mut access_log_attached = false;
    let served: Result<(), CliError> = (|| {
        let server = rde_serve::Server::bind(serve_options).map_err(|e| e.to_string())?;
        // Attached once bound, so the catalog's eager warm build stays
        // out of the access log: it holds what requests record.
        if let Some(path) = &opts.access_log {
            journal::attach(
                Sink::rotating(path.as_str(), ACCESS_LOG_MAX_BYTES, ACCESS_LOG_KEEP),
                JOURNAL_CAPACITY,
            )
            .map_err(|e| format!("--access-log `{path}`: {e}"))?;
            access_log_attached = journal::enabled();
        }
        let addr = server.local_addr().map_err(|e| format!("bound address: {e}"))?;
        println!("serving {}", server.mapping_names().join(", "));
        println!("listening on {addr}");
        // The readiness lines are the startup handshake (tests and the
        // quickstart read the port from them); make sure they leave the
        // process before the accept loop blocks.
        let _ = std::io::stdout().flush();
        server.serve(&shutdown).map_err(|e| e.to_string())?;
        Ok(())
    })();
    if access_log_attached {
        if let Some(summary) = journal::detach() {
            if summary.dropped > 0 || summary.io_errors > 0 {
                eprintln!(
                    "# access log: {} record(s) dropped past capacity, {} io error(s)",
                    summary.dropped, summary.io_errors
                );
            }
        }
    }
    served?;
    eprintln!("rde serve: drained and shut down");
    Ok(())
}

/// `rde top <addr>` — poll `METRICS` and render a live per-mapping
/// table until interrupted (or for `--iterations N` refreshes).
fn cmd_top(opts: &Options) -> Result<(), CliError> {
    use std::io::{IsTerminal as _, Write as _};
    let addr = opts.positional(0, "server address")?;
    rde_faults::install_interrupt_handler();
    let token = CancelToken::new().watching_interrupt();
    // Reconnect ceiling: a restarting daemon is back within seconds;
    // past the cap we keep trying at the cap rather than giving up.
    const RECONNECT_BASE_MS: u64 = 100;
    const RECONNECT_CAP_MS: u64 = 2_000;
    let connect = |deadline: Option<u64>| -> Result<rde_serve::Client, CliError> {
        let mut c = rde_serve::Client::connect(addr).map_err(|e| e.to_string())?;
        c.set_deadline(deadline.map(Duration::from_millis)).map_err(|e| e.to_string())?;
        Ok(c)
    };
    // Sleep in short slices so Ctrl-C lands between refreshes; true
    // means the token cancelled mid-sleep.
    let sleep_cancellable = |ms: u64| -> bool {
        let mut left = ms;
        while left > 0 {
            if token.is_cancelled() {
                return true;
            }
            let slice = left.min(50);
            std::thread::sleep(Duration::from_millis(slice));
            left -= slice;
        }
        token.is_cancelled()
    };
    let mut client: Option<rde_serve::Client> = Some(connect(opts.deadline_ms)?);
    let mut reconnect_wait = RECONNECT_BASE_MS;
    let mut prev: Option<(crate::top::Poll, std::time::Instant)> = None;
    let mut remaining = opts.iterations;
    loop {
        // A dead connection (server restarting, mid-poll EOF) renders
        // a `disconnected` banner and retries with backoff instead of
        // exiting: `top` is a monitor, restarts are what it watches.
        let poll_result = match client.as_mut() {
            Some(c) => match c.request(&rde_serve::Request::bare("METRICS")) {
                Ok(rde_serve::Reply::Ok(lines)) => Some(crate::top::Poll::parse(&lines)?),
                Ok(reply) => return Err(CliError::Message(format!("METRICS: {reply:?}"))),
                Err(rde_serve::ClientError::Deadline) => return Err(CliError::Cancelled),
                Err(rde_serve::ClientError::Io(_)) => None,
            },
            None => match connect(opts.deadline_ms) {
                Ok(mut c) => match c.request(&rde_serve::Request::bare("METRICS")) {
                    Ok(rde_serve::Reply::Ok(lines)) => {
                        client = Some(c);
                        Some(crate::top::Poll::parse(&lines)?)
                    }
                    Ok(reply) => return Err(CliError::Message(format!("METRICS: {reply:?}"))),
                    Err(rde_serve::ClientError::Deadline) => return Err(CliError::Cancelled),
                    Err(rde_serve::ClientError::Io(_)) => None,
                },
                Err(_) => None,
            },
        };
        let Some(poll) = poll_result else {
            client = None;
            // Rate deltas across an outage would mix two server
            // lifetimes (counters reset on restart); drop the anchor.
            prev = None;
            if std::io::stdout().is_terminal() {
                print!("\x1b[2J\x1b[H");
            }
            println!("disconnected from {addr}; retrying in {reconnect_wait}ms");
            let _ = std::io::stdout().flush();
            // Banner refreshes count against --iterations too, so a
            // scripted `top --iterations N` terminates even when the
            // server never comes back.
            if let Some(n) = remaining.as_mut() {
                *n = n.saturating_sub(1);
                if *n == 0 {
                    return Ok(());
                }
            }
            if sleep_cancellable(reconnect_wait) {
                return Ok(());
            }
            reconnect_wait = reconnect_wait.saturating_mul(2).min(RECONNECT_CAP_MS);
            continue;
        };
        reconnect_wait = RECONNECT_BASE_MS;
        let now = std::time::Instant::now();
        let table =
            crate::top::render(prev.as_ref().map(|(p, at)| (p, now.duration_since(*at))), &poll);
        // Only a live terminal gets the clear-screen dance; piped
        // output stays an appendable log of refreshes.
        if std::io::stdout().is_terminal() {
            print!("\x1b[2J\x1b[H");
        }
        print!("{table}");
        let _ = std::io::stdout().flush();
        prev = Some((poll, now));
        if let Some(n) = remaining.as_mut() {
            *n = n.saturating_sub(1);
            if *n == 0 {
                return Ok(());
            }
        }
        if sleep_cancellable(opts.interval_ms) {
            return Ok(());
        }
    }
}

/// `rde call <addr> <op> [args…]` — one request against a daemon.
fn cmd_call(opts: &Options) -> Result<(), CliError> {
    let addr = opts.positional(0, "server address")?;
    let op = opts.positional(1, "op")?.to_ascii_lowercase();
    let mut request = match op.as_str() {
        "ping" | "list" | "stats" | "metrics" | "reload" => rde_serve::Request::bare(&op),
        "invertible" => rde_serve::Request::on(&op, opts.positional(2, "mapping name")?),
        "chase" => rde_serve::Request::on(&op, opts.positional(2, "mapping name")?)
            .body_text(&read(opts.positional(3, "instance file")?)?),
        "arrow" => {
            let body = format!(
                "{}--\n{}",
                read(opts.positional(3, "first instance file")?)?,
                read(opts.positional(4, "second instance file")?)?
            );
            rde_serve::Request::on(&op, opts.positional(2, "mapping name")?).body_text(&body)
        }
        "certain" => rde_serve::Request::on(&op, opts.positional(2, "mapping name")?)
            .header("query", opts.positional(4, "query")?)
            .body_text(&read(opts.positional(3, "instance file")?)?),
        other => return Err(CliError::Message(format!("unknown call op `{other}`"))),
    };
    if let Some(ms) = opts.server_deadline_ms {
        request = request.header("deadline-ms", ms);
    }
    if let Some(n) = opts.node_budget {
        request = request.header("node-budget", n);
    }
    if let Some(ms) = opts.time_budget_ms {
        request = request.header("time-budget-ms", ms);
    }
    if let Some(tenant) = &opts.tenant {
        request = request.header("tenant", tenant);
    }
    if let Some(variant) = opts.variant {
        request = request.header("variant", variant.name());
    }
    let mut client = rde_serve::Client::connect(addr).map_err(|e| e.to_string())?;
    client.set_deadline(opts.deadline_ms.map(Duration::from_millis)).map_err(|e| e.to_string())?;
    // --retries N maps onto the client's retry loop: SHEDs wait out
    // the server's retry-after hint, UNKNOWNs escalate the budget
    // headers — same policy shape the local checks use.
    let policy = rde_core::retry::RetryPolicy::with_retries(opts.retries);
    match client.call_with_retry(&request, &policy) {
        Ok(rde_serve::Reply::Ok(lines)) => {
            for line in lines {
                println!("{line}");
            }
            Ok(())
        }
        Ok(rde_serve::Reply::Err(m)) => Err(CliError::Message(format!("server: {m}"))),
        Ok(rde_serve::Reply::Shed { reason, .. }) => {
            Err(CliError::Shed(format!("server shed: {reason}")))
        }
        Ok(rde_serve::Reply::Unknown(m)) => Err(CliError::Shed(format!("server unknown: {m}"))),
        Err(rde_serve::ClientError::Deadline) => Err(CliError::Cancelled),
        Err(e) => Err(CliError::Message(e.to_string())),
    }
}

/// The chase workload for `profile`: run it, print its totals, and
/// return `(fired, rounds)` for the span-tree cross-check.
fn profile_chase(opts: &Options) -> Result<(u64, u64), CliError> {
    let mut vocab = Vocabulary::new();
    let mapping = load_mapping(&mut vocab, opts.positional(0, "mapping file")?)?;
    let instance = load_instance(&mut vocab, opts.positional(1, "instance file")?)?;
    let options = chase_options(opts);
    let result = rde_chase::chase(&instance, &mapping.dependencies, &mut vocab, &options)
        .map_err(chase_err)?;
    println!(
        "# chase: {} round(s), {} trigger(s) fired, {} fact(s)",
        result.rounds,
        result.fired,
        result.instance.len()
    );
    print_hom_stats(&result.hom);
    Ok((result.fired, result.rounds))
}

/// `rde profile <journal.jsonl> --request-id N` — analyze a journal
/// file written by another process (a serve access log with sampled
/// span trees, a `--trace-out` capture), filtered down to one
/// request's records.
fn profile_journal_file(opts: &Options, id: u64) -> Result<(), CliError> {
    let path = opts.positional(0, "journal file")?;
    let text = read(path)?;
    let mut records = Vec::new();
    let mut requests = std::collections::BTreeSet::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record =
            Record::parse_json_line(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        let req = record.req();
        if req != 0 {
            requests.insert(req);
        }
        if req == id {
            records.push(record);
        }
    }
    if records.is_empty() {
        let hint = match (requests.first(), requests.last()) {
            (Some(lo), Some(hi)) => {
                format!("{} request id(s) present, spanning {lo}..={hi}", requests.len())
            }
            _ => "no request-stamped records at all".to_owned(),
        };
        return Err(CliError::Message(format!("request id {id} not found in `{path}` ({hint})")));
    }
    println!("# request {id}: {} record(s)", records.len());
    match crate::profile::render_span_tree(&records) {
        Some(tree) => {
            print!("{tree}");
            if let Some(table) = crate::profile::render_quantiles(&records) {
                print!("{table}");
            }
        }
        None => println!("# no spans recorded for request {id} (events only)"),
    }
    Ok(())
}

fn cmd_profile(opts: &Options) -> Result<(), CliError> {
    if let Some(id) = opts.request_id {
        return profile_journal_file(opts, id);
    }
    // `profile <workload> …` profiles another command's engine run
    // (`chase`, `invertible`, `compare`, `loss`); the original
    // `profile <mapping> <instance>` form still means the chase.
    let (workload, inner) = match opts.positional.first().map(String::as_str) {
        Some(w @ ("chase" | "invertible" | "compare" | "loss")) => {
            let mut shifted = opts.clone();
            shifted.positional.remove(0);
            (w, shifted)
        }
        _ => ("chase", opts.clone()),
    };
    journal::attach(Sink::Memory, JOURNAL_CAPACITY).map_err(|e| format!("profile journal: {e}"))?;
    let ran = match workload {
        "chase" => profile_chase(&inner).map(Some),
        "invertible" => cmd_invertible(&inner).map(|()| None),
        "compare" => cmd_compare(&inner).map(|()| None),
        _ => cmd_loss(&inner).map(|()| None),
    };
    let summary = journal::detach();
    // The journal is torn down either way; only then propagate the
    // workload's own error.
    let chase_totals = ran?;
    let Some(summary) = summary else {
        println!("# tracing compiled out; rebuild with the `trace` feature to profile");
        return Ok(());
    };
    match crate::profile::render_span_tree(&summary.records) {
        Some(tree) => {
            print!("{tree}");
            if let Some((fired, rounds)) = chase_totals {
                println!(
                    "# chase.run wall time: {} µs",
                    crate::profile::total_elapsed_us(&summary.records, "chase.run")
                );
                // Cross-check: the chase.run span's close fields must
                // agree with the stats the engine returned.
                let span_fired =
                    crate::profile::total_close_field(&summary.records, "chase.run", "fired");
                let span_rounds =
                    crate::profile::total_close_field(&summary.records, "chase.run", "rounds");
                if span_fired != fired || span_rounds != rounds {
                    return Err(CliError::Message(format!(
                        "span tree disagrees with chase stats: span fired={span_fired} \
                         rounds={span_rounds}, stats fired={fired} rounds={rounds}"
                    )));
                }
            }
            if let Some(table) = crate::profile::render_quantiles(&summary.records) {
                print!("{table}");
            }
        }
        None => println!("# no spans recorded"),
    }
    if summary.dropped > 0 {
        println!("# journal truncated: {} record(s) dropped past capacity", summary.dropped);
    }
    if let Some(path) = &opts.trace_out {
        let mut out = String::with_capacity(summary.records.len() * 96);
        for rec in &summary.records {
            out.push_str(&rec.to_json_line());
            out.push('\n');
        }
        fs::write(path, out).map_err(|e| format!("--trace-out `{path}`: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(dir: &std::path::Path, name: &str, content: &str) -> String {
        let path = dir.join(name);
        fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rde-cli-test-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run(&[]).is_ok());
        assert!(run(&strings(&["help"])).is_ok());
        assert!(run(&strings(&["frobnicate"])).is_err());
    }

    #[test]
    fn chase_and_reverse_roundtrip() {
        let dir = tmpdir("chase");
        let m =
            write(&dir, "m.map", "source: P/3\ntarget: Q/2, R/2\nP(x,y,z) -> Q(x,y) & R(y,z)\n");
        let rev = write(
            &dir,
            "rev.map",
            "source: Q/2, R/2\ntarget: P/3\nQ(x,y) -> exists z . P(x,y,z)\nR(y,z) -> exists x . P(x,y,z)\n",
        );
        let i = write(&dir, "i.inst", "P(a,b,c)\n");
        run(&strings(&["chase", &m, &i])).unwrap();
        run(&strings(&["reverse", &m, &rev, &i])).unwrap();
        run(&strings(&[
            "check-recovery",
            &m,
            &rev,
            "--consts",
            "1",
            "--nulls",
            "1",
            "--facts",
            "1",
        ]))
        .unwrap();
    }

    #[test]
    fn invert_and_checks() {
        let dir = tmpdir("invert");
        let m = write(&dir, "m.map", "source: P/1, Q/1\ntarget: R/1\nP(x) -> R(x)\nQ(x) -> R(x)\n");
        run(&strings(&["invert", &m])).unwrap();
        run(&strings(&["invertible", &m, "--consts", "1", "--nulls", "0", "--facts", "1"]))
            .unwrap();
        run(&strings(&["loss", &m, "--consts", "1", "--nulls", "1", "--facts", "1"])).unwrap();
    }

    #[test]
    fn stats_and_node_budget_flags_run_end_to_end() {
        let dir = tmpdir("stats");
        let m = write(&dir, "m.map", "source: P/1, Q/1\ntarget: R/1\nP(x) -> R(x)\nQ(x) -> R(x)\n");
        let i = write(&dir, "i.inst", "P(a)\nQ(b)\n");
        run(&strings(&["chase", &m, &i, "--stats"])).unwrap();
        // A starved budget must surface as a clean chase error, not a
        // panic.
        assert!(run(&strings(&["chase", &m, &i, "--node-budget", "0"])).is_err());
        // The checkers degrade to an UNKNOWN verdict instead.
        let common = ["--consts", "1", "--nulls", "0", "--facts", "1", "--stats"];
        let mut args = strings(&["invertible", &m]);
        args.extend(strings(&common));
        run(&args).unwrap();
        let mut args = strings(&["invertible", &m, "--node-budget", "1"]);
        args.extend(strings(&common));
        run(&args).unwrap();
        let mut args = strings(&["compare", &m, &m, "--node-budget", "1"]);
        args.extend(strings(&common));
        run(&args).unwrap();
    }

    /// Every checker command on the bundled examples, over a small
    /// universe.
    fn checker_matrix() -> Vec<Vec<String>> {
        let data = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/data/");
        let ex = |name: &str| format!("{data}{name}");
        let (dec, dec_rev) = (ex("decomposition.map"), ex("decomposition_reverse.map"));
        [
            vec!["faithful".into(), dec.clone(), dec_rev.clone()],
            vec!["check-chase-inverse".into(), ex("two_step.map"), ex("two_step_inverse.map")],
            vec!["check-recovery".into(), dec.clone(), dec_rev],
            vec!["invertible".into(), dec.clone()],
            vec!["loss".into(), dec],
            vec!["compare".into(), ex("union.map"), ex("union.map")],
            vec!["hom".into(), ex("flights.inst"), ex("flights.inst")],
        ]
        .into_iter()
        .map(|mut args| {
            args.extend(strings(&["--consts", "1", "--nulls", "1", "--facts", "1"]));
            args
        })
        .collect()
    }

    /// The budget contract of every checker: an expired deadline is a
    /// cancellation (exit 3), and a zero node budget is an answer
    /// (UNKNOWN), not an error.
    #[test]
    fn every_checker_honours_the_deadline_and_the_node_budget() {
        for args in checker_matrix() {
            let mut cancelled = args.clone();
            cancelled.extend(strings(&["--deadline-ms", "0"]));
            assert_eq!(run(&cancelled), Err(CliError::Cancelled), "{}", args.join(" "));
            let mut starved = args.clone();
            starved.extend(strings(&["--node-budget", "0"]));
            assert_eq!(run(&starved), Ok(()), "{}", args.join(" "));
        }
    }

    #[test]
    fn compare_command() {
        let dir = tmpdir("compare");
        let m1 = write(&dir, "m1.map", "source: P/2\ntarget: Pp/2\nP(x,y) -> Pp(x,y)\n");
        let m2 = write(
            &dir,
            "m2.map",
            "source: P/2\ntarget: Pp/2\nP(x,y) -> exists z . Pp(x,z)\nP(x,y) -> exists u . Pp(u,y)\n",
        );
        run(&strings(&["compare", &m1, &m2, "--consts", "2", "--nulls", "1", "--facts", "1"]))
            .unwrap();
    }

    #[test]
    fn certain_command() {
        let dir = tmpdir("certain");
        let m = write(
            &dir,
            "m.map",
            "source: P/2\ntarget: Q/2\nP(x,y) -> exists z . Q(x,z) & Q(z,y)\n",
        );
        let rev = write(&dir, "rev.map", "source: Q/2\ntarget: P/2\nQ(x,z) & Q(z,y) -> P(x,y)\n");
        let i = write(&dir, "i.inst", "P(a,b)\n");
        run(&strings(&["certain", &m, &rev, &i, "q(x, y) :- P(x, y)"])).unwrap();
    }

    #[test]
    fn core_hom_eval_commands() {
        let dir = tmpdir("corehom");
        let m = write(&dir, "m.map", "source: P/2\ntarget: Q/2\nP(x, y) -> exists z . Q(x, z)\n");
        let i = write(&dir, "i.inst", "P(a, b)\nP(a, c)\n");
        let i2 = write(&dir, "i2.inst", "P(a, ?w)\n");
        run(&strings(&["core", &m, &i])).unwrap();
        run(&strings(&["hom", &i2, &i])).unwrap();
        run(&strings(&["eval", &i, "q(x) :- P(x, y)"])).unwrap();
        run(&strings(&["minimize-query", "q(x) :- P(x, y) & P(x, z)"])).unwrap();
    }

    #[test]
    fn compose_command() {
        let dir = tmpdir("compose");
        let m12 = write(&dir, "m12.map", "source: A/2\ntarget: B/2\nA(x,y) -> B(x,y)\n");
        let m23 = write(&dir, "m23.map", "source: B/2\ntarget: C/2\nB(x,y) -> C(y,x)\n");
        run(&strings(&["compose", &m12, &m23])).unwrap();
        // Non-full first mapping: clean error.
        let bad = write(&dir, "bad.map", "source: A/2\ntarget: B/2\nA(x,y) -> exists z . B(x,z)\n");
        assert!(run(&strings(&["compose", &bad, &m23])).is_err());
    }

    #[test]
    fn normalize_and_faithful_commands() {
        let dir = tmpdir("normfaith");
        let m =
            write(&dir, "m.map", "source: P/3\ntarget: Q/2, R/2\nP(x,y,z) -> Q(x,y) & R(y,z)\n");
        run(&strings(&["normalize", &m])).unwrap();
        let mu =
            write(&dir, "mu.map", "source: A/1, B/1\ntarget: R/1\nA(x) -> R(x)\nB(x) -> R(x)\n");
        let rec = write(&dir, "rec.map", "source: R/1\ntarget: A/1, B/1\nR(x) -> A(x) | B(x)\n");
        run(&strings(&["faithful", &mu, &rec, "--consts", "1", "--nulls", "1", "--facts", "1"]))
            .unwrap();
        let bad = write(&dir, "bad.map", "source: R/1\ntarget: A/1, B/1\nR(x) -> A(x)\n");
        run(&strings(&["faithful", &mu, &bad, "--consts", "1", "--nulls", "0", "--facts", "1"]))
            .unwrap();
    }

    #[test]
    fn missing_files_are_reported() {
        let err = run(&strings(&["chase", "/nonexistent.map", "/nonexistent.inst"])).unwrap_err();
        assert!(err.to_string().contains("cannot read"));
    }

    #[test]
    fn invert_rejects_non_full_mappings_cleanly() {
        let dir = tmpdir("invert-nonfull");
        let m = write(&dir, "m.map", "source: P/1\ntarget: Q/2\nP(x) -> exists y . Q(x, y)\n");
        let err = run(&strings(&["invert", &m])).unwrap_err();
        assert!(err.to_string().contains("full"));
    }
}

//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <chase_restricted|reverse_certain|serve_logged> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run sets the workload up several times (reporting the median
//! set-up time), then runs a closed loop of ops for `--seconds`,
//! checking every answer against references built in set-up from
//! direct library calls. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! ops alternate between untraced and traced (spans kept in memory
//! around each call into a layer, written out at the end) and the
//! metrics are the per-layer ones. Every time is reported at reference
//! host speed: divided by the slowdown a fixed kernel, timed in a child
//! process while the program is idle, measured next to it (`host.rs`);
//! `--self-check` shows on a batch workload that this scaling keeps an
//! injected slowdown of the program. See `perfbench/README.md`.

mod chase_restricted;
mod host;
mod registry;
mod reverse_certain;
mod serve_logged;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use host::{Pacer, ProbeClock};
use registry::Reading;
use stats::Histogram;
use trace::{Span, Tracer};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Run the scaling self-check instead of measuring.
    pub self_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut self_check = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--self-check" => self_check = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, self_check })
}

/// Per-layer metric values a workload measured, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Every per-layer metric with its unit, in report order. A traced run
/// reports all of them on every workload; a metric whose layer the
/// workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("chase.call_ms", "ms"),
    ("chase.matches", "count"),
    ("chase.duplicates", "count"),
    ("chase.satisfied", "count"),
    ("chase.fired", "count"),
    ("chase.fire_ratio", "ratio"),
    ("chase.candidates_per_probe", "count"),
    ("chase.bucket_skip_ratio", "ratio"),
    ("chase.rounds", "count"),
    ("hom.nodes", "count"),
    ("hom.searches", "count"),
    ("hom.backtrack_ratio", "ratio"),
    ("model.result_facts", "count"),
    ("model.restrict_ms", "ms"),
    ("model.leaf_facts", "count"),
    ("chase.forward_ms", "ms"),
    ("chase.disjunctive_ms", "ms"),
    ("chase.disj_steps", "count"),
    ("chase.disj_leaves", "count"),
    ("chase.disj_pruned", "count"),
    ("query.evaluate_ms", "ms"),
    ("query.intersect_ms", "ms"),
    ("query.answers", "count"),
    ("core.arrow_hit_ratio", "ratio"),
    ("core.arrow_evictions_per_kreq", "1/kreq"),
    ("core.intern_miss_ratio", "ratio"),
    ("serve.chase_p50_us", "us"),
    ("serve.arrow_p50_us", "us"),
    ("serve.invertible_p50_us", "us"),
    ("serve.handler_us", "us"),
    ("serve.queue_us", "us"),
    ("serve.wire_us", "us"),
    ("serve.shed", "count"),
    ("obs.journal_records_per_req", "count"),
    ("obs.journal_bytes_per_req", "B"),
    ("obs.journal_dropped", "count"),
    ("host.probe_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// What one workload run hands to the reporter. Every time in it is at
/// reference host speed (see `host.rs`): each measured stretch divided
/// by the slowdown the probes next to it measured.
#[derive(Default)]
pub struct Run {
    /// Duration of each set-up repetition, s.
    pub setup_s: Vec<f64>,
    /// Latencies of the completed untraced ops, ms.
    pub latencies: Histogram,
    /// Latencies of the completed traced ops, ms (trace mode only).
    pub traced: Histogram,
    /// Ops attempted in the timed phase.
    pub attempted: u64,
    /// Ops that errored or answered wrongly.
    pub failed: u64,
    /// Why the run is not correct (failed gates, first failed ops).
    pub problems: Vec<String>,
    /// Every host probe of the run, ms (not scaled).
    pub probe_ms: Vec<f64>,
    /// Σ over op threads of completed ops per second of op time.
    pub rate: f64,
    /// `VmHWM` when the timed phase ended (before the benchmark's own
    /// bookkeeping), MiB.
    pub peak_rss_mb: f64,
    /// Per-layer metrics (trace mode only).
    pub layers: Layers,
    /// Recorded spans (trace mode only).
    pub spans: Vec<Span>,
}

impl Run {
    /// Run one set-up repetition and time it at reference host speed:
    /// divided by the slowdown the probes right before and right after
    /// it measured (the probe after one repetition is the probe before
    /// the next).
    pub fn set_up<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let before = match self.probe_ms.last() {
            Some(&ms) => ms,
            None => {
                let ms = host::probe()?;
                self.probe_ms.push(ms);
                ms
            }
        };
        let started = Instant::now();
        let out = f()?;
        let secs = started.elapsed().as_secs_f64();
        let after = host::probe()?;
        self.probe_ms.push(after);
        self.setup_s.push(secs / ((before + after) / 2.0 / host::PROBE_REFERENCE_MS));
        Ok(out)
    }

    /// Take the probes of a timed phase into the run.
    pub fn add_probes(&mut self, clock: ProbeClock) {
        let (samples, error) = clock.into_samples();
        self.probe_ms.extend(samples);
        self.problems.extend(error);
    }

    /// Count one failed op, keeping the first few reasons.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(why);
        }
    }
}

/// A workload whose op is one library call, run in a closed loop.
pub trait Batch {
    /// One untraced op: the call's latency in ms, or why it was wrong.
    fn op(&mut self) -> Result<f64, String>;
    /// One op with a span around each call into a layer, all under an
    /// op span; returns the op span's latency in ms.
    fn op_traced(&mut self, tracer: &mut Tracer, op: u64) -> Result<f64, String>;
    /// Per-layer metrics from the traced ops' spans and counts, and the
    /// registry delta over all `ops` of the timed phase. Returns the
    /// cross-checks between the two sources that failed.
    fn layers(&self, spans: &[Span], registry: &Reading, ops: u64, out: &mut Layers)
        -> Vec<String>;
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// Warm-up ops at the end of each set-up of a batch workload.
const WARMUP_OPS: usize = 2;

/// Ops that must complete before a run may stop: enough for the p90 to
/// be reportable untraced, and for a steady p50 on each side traced.
fn min_samples(trace: bool) -> usize {
    if trace {
        40
    } else {
        stats::min_samples_for(0.9)
    }
}

/// Set a batch workload up [`SETUP_REPS`] times (the last one is kept),
/// then run its closed loop for `args.seconds` — longer only to reach
/// the sample floor, and never beyond three budgets (a failing program
/// completes no ops). Traced runs alternate untraced and traced ops.
pub fn run_batch<B: Batch>(
    args: &Args,
    setup: impl Fn(u64) -> Result<(B, Vec<String>), String>,
) -> Result<Run, String> {
    let mut run = Run::default();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let (batch, gate_problems) = run.set_up(|| {
            let (mut batch, gate_problems) = setup(args.seed)?;
            for _ in 0..WARMUP_OPS {
                batch.op().map_err(|e| format!("warm-up op failed: {e}"))?;
            }
            Ok((batch, gate_problems))
        })?;
        run.problems = gate_problems;
        kept = Some(batch);
    }
    let mut batch = kept.ok_or("no set-up ran")?;

    if args.self_check {
        return self_check(&mut batch, args.seconds).map(|()| run);
    }

    let before = Reading::now();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let clock = ProbeClock::new(1, None);
    let mut pacer = Pacer::new(&clock);
    let budget = Duration::from_secs_f64(args.seconds);
    let floor = min_samples(args.trace);
    for op in 0u64.. {
        let elapsed = epoch.elapsed();
        let short = run.latencies.len() < floor || (args.trace && run.traced.len() < floor);
        if elapsed >= budget && (!short || elapsed >= 3 * budget) {
            break;
        }
        pacer.tick();
        let busy = Instant::now();
        let slowdown = pacer.slowdown();
        run.attempted += 1;
        let outcome = if args.trace && op % 2 == 1 {
            batch.op_traced(&mut tracer, op).map(|ms| run.traced.record(ms / slowdown))
        } else {
            batch.op().map(|ms| run.latencies.record(ms / slowdown))
        };
        if let Err(e) = outcome {
            run.fail(format!("op {op}: {e}"));
        }
        pacer.charge(busy.elapsed());
    }
    run.peak_rss_mb = host::peak_rss_mb();
    let registry = Reading::now().since(&before);
    run.rate = stats::ratio((run.attempted - run.failed) as f64, pacer.scaled_busy_s);
    run.add_probes(clock);
    run.spans = tracer.into_spans();
    if args.trace {
        let mismatches = batch.layers(&run.spans, &registry, run.attempted, &mut run.layers);
        run.problems.extend(mismatches);
    }
    Ok(run)
}

/// Length of each plain and each spiked stretch of the self-check, in
/// probe intervals.
const SELF_CHECK_BLOCK: u32 = 6;
/// [`host::spike`]s added to every spiked op: about half a
/// `chase_restricted` op on the reference host.
const SPIKES: usize = 16;
/// How far the scaled effect of the spike may sit from its raw effect.
const SELF_CHECK_TOLERANCE: f64 = 0.1;

/// `--self-check`: show that scaling keeps a program change. Stretches
/// of plain ops alternate with stretches whose every op also runs
/// [`SPIKES`] fixed spikes (an injected slowdown of the program). Both
/// kinds see the same host, so the spike must move the scaled p50 and
/// rate by the same ratio as the raw ones; if the probes felt the
/// program's extra work, the scaled ratio would shrink.
fn self_check<B: Batch>(batch: &mut B, seconds: f64) -> Result<(), String> {
    let clock = ProbeClock::new(1, None);
    let mut pacer = Pacer::new(&clock);
    let block = (host::PROBE_EVERY * SELF_CHECK_BLOCK).as_secs_f64();
    let mut raw: [Histogram; 2] = Default::default();
    let mut scaled: [Histogram; 2] = Default::default();
    let mut busy_s = [0.0f64; 2];
    let mut scaled_busy_s = [0.0f64; 2];
    let mut ops = [0u64; 2];
    let epoch = Instant::now();
    while epoch.elapsed().as_secs_f64() < seconds {
        pacer.tick();
        let spiked = (epoch.elapsed().as_secs_f64() / block) as usize % 2;
        let started = Instant::now();
        batch.op()?;
        if spiked == 1 {
            for _ in 0..SPIKES {
                host::spike();
            }
        }
        let busy = started.elapsed().as_secs_f64();
        raw[spiked].record(busy * 1e3);
        scaled[spiked].record(busy * 1e3 / pacer.slowdown());
        busy_s[spiked] += busy;
        scaled_busy_s[spiked] += busy / pacer.slowdown();
        ops[spiked] += 1;
    }
    let p50 = |h: &Histogram| h.percentile(0.5).unwrap_or(0.0);
    let rate = |k: usize, s: &[f64; 2]| stats::ratio(ops[k] as f64, s[k]);
    let checks = [
        (
            "op_p50_ms",
            stats::ratio(p50(&raw[1]), p50(&raw[0])),
            stats::ratio(p50(&scaled[1]), p50(&scaled[0])),
        ),
        (
            "ops_per_s",
            stats::ratio(rate(1, &busy_s), rate(0, &busy_s)),
            stats::ratio(rate(1, &scaled_busy_s), rate(0, &scaled_busy_s)),
        ),
    ];
    let (probes, error) = clock.into_samples();
    println!(
        "self-check: {} plain ops, {} spiked ops, {} probes (median {:.3} ms)",
        ops[0],
        ops[1],
        probes.len(),
        stats::median(&probes)
    );
    let mut failed: Vec<String> = error.into_iter().collect();
    for (name, raw_ratio, scaled_ratio) in checks {
        let off = stats::ratio(scaled_ratio, raw_ratio) - 1.0;
        println!(
            "self-check {name}: spiked/plain raw {raw_ratio:.4}, scaled {scaled_ratio:.4} \
             ({:+.2}%)",
            off * 100.0
        );
        if raw_ratio == 1.0 || off.is_nan() || off.abs() > SELF_CHECK_TOLERANCE {
            failed.push(format!(
                "{name}: the spike moved the scaled figure by {scaled_ratio:.4}, the raw one by \
                 {raw_ratio:.4}"
            ));
        }
    }
    if ops[0] == 0 || ops[1] == 0 {
        failed.push("a stretch ran no ops: raise --seconds".into());
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("self-check failed: {}", failed.join("; ")))
    }
}

/// Milliseconds elapsed since `started`.
pub fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// Per-op median of the summed duration of every span named `name`,
/// in ms (an op with several such spans, one per leaf, sums them).
pub fn per_op_median_ms(spans: &[Span], name: &str) -> f64 {
    let mut per_op: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *per_op.entry(s.op).or_default() += s.duration();
    }
    let values: Vec<f64> = per_op.values().map(|&ns| ns as f64 / 1e6).collect();
    stats::median(&values)
}

/// Registry-derived hom and chase-probe metrics, per op.
pub fn registry_layers(registry: &Reading, ops: u64, out: &mut Layers) {
    let per_op = |v: u64| stats::ratio(v as f64, ops as f64);
    let nodes = registry.counter("hom.search.nodes");
    out.insert("hom.nodes", per_op(nodes));
    out.insert("hom.searches", per_op(registry.counter("hom.search.searches")));
    out.insert(
        "hom.backtrack_ratio",
        stats::ratio(registry.counter("hom.search.backtracks") as f64, nodes as f64),
    );
    let (probes, candidates) = registry.histogram("chase.match.candidates");
    out.insert("chase.candidates_per_probe", stats::ratio(candidates as f64, probes as f64));
    let scanned = registry.counter("chase.bucket.scanned");
    let skipped = registry.counter("chase.bucket.skipped");
    out.insert("chase.bucket_skip_ratio", stats::ratio(skipped as f64, (scanned + skipped) as f64));
}

/// A scratch directory inside the build output (never the system temp
/// directory): next to the benchmark executable.
pub fn work_dir(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let dir = exe.parent().ok_or("executable has no parent directory")?.join("perfbench-work");
    let dir = dir.join(name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    let value = if value.is_finite() { value } else { 0.0 };
    let _ = write!(out, "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
}

/// The result line: the end-to-end metrics, or with `--trace 1` the
/// per-layer ones, their times divided by the run's median slowdown,
/// with the host probe's median beside them.
fn report(args: &Args, run: &Run) -> Result<String, String> {
    let correct = run.problems.is_empty() && run.failed == 0 && run.attempted > 0;
    let probe_ms = stats::median(&run.probe_ms);
    let slowdown = probe_ms / host::PROBE_REFERENCE_MS;
    let p50 = run.latencies.percentile(0.5).unwrap_or(0.0);
    let mut m = String::from("{");
    if args.trace {
        let traced_p50 = run.traced.percentile(0.5).unwrap_or(0.0);
        for &(name, unit) in PER_LAYER {
            let value = match name {
                "host.probe_ms" => probe_ms,
                "trace.overhead_pct" => (stats::ratio(traced_p50, p50) - 1.0) * 100.0,
                _ => {
                    let value = run.layers.get(name).copied().unwrap_or(0.0);
                    if matches!(unit, "ms" | "us") {
                        stats::ratio(value, slowdown)
                    } else {
                        value
                    }
                }
            };
            metric(&mut m, name, value, unit);
        }
    } else {
        let p90 = run.latencies.tail_percentile(0.9).ok_or_else(|| {
            format!("only {} ops completed: too few for a p90", run.latencies.len())
        })?;
        metric(&mut m, "setup_s", stats::median(&run.setup_s), "s");
        metric(&mut m, "ops_per_s", run.rate, "1/s");
        metric(&mut m, "op_p50_ms", p50, "ms");
        metric(&mut m, "op_p90_ms", p90, "ms");
        metric(&mut m, "peak_rss_mb", run.peak_rss_mb, "MB");
    }
    m.push('}');
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {m}}}",
        run.attempted, run.failed
    ))
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(host::PROBE_FLAG) {
        host::probe_main();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "chase_restricted" => run_batch(&args, chase_restricted::setup),
        "reverse_certain" => run_batch(&args, reverse_certain::setup),
        "serve_logged" if args.self_check => Err("--self-check runs the batch workloads".into()),
        "serve_logged" => serve_logged::run(&args),
        other => Err(format!(
            "unknown workload {other:?} (chase_restricted, reverse_certain, serve_logged)"
        )),
    };
    let probe_end = outcome.is_ok().then(host::probe);
    host::stop_probe();
    let mut run = match outcome {
        Ok(run) if args.self_check => {
            println!("self-check passed ({} set-up gate problems)", run.problems.len());
            return ExitCode::SUCCESS;
        }
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    match probe_end {
        Some(Ok(ms)) => run.probe_ms.push(ms),
        Some(Err(e)) => run.problems.push(e),
        None => {}
    }
    if args.trace {
        if let Err(e) = trace::check_nesting(&run.spans) {
            eprintln!("perfbench: span nesting: {e}");
            return ExitCode::from(1);
        }
        match work_dir("traces") {
            Ok(dir) => {
                let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
                match std::fs::write(&path, trace::to_jsonl(&run.spans)) {
                    Ok(()) => println!("spans: {} written to {}", run.spans.len(), path.display()),
                    Err(e) => eprintln!("perfbench: cannot write spans: {e}"),
                }
                for (name, (count, self_ns)) in trace::self_time_by_name(&run.spans) {
                    println!("self time {name}: {count} spans, {:.3} ms", self_ns as f64 / 1e6);
                }
            }
            Err(e) => eprintln!("perfbench: {e}"),
        }
    }
    for p in &run.problems {
        println!("problem: {p}");
    }
    println!(
        "workload {} seed {}: {} attempted, {} failed ({:.4}% failed); {} host probes, ms: \
         median {:.4}, min {:.4}, max {:.4}",
        args.workload,
        args.seed,
        run.attempted,
        run.failed,
        stats::ratio(run.failed as f64, run.attempted as f64) * 100.0,
        run.probe_ms.len(),
        stats::median(&run.probe_ms),
        run.probe_ms.iter().copied().fold(f64::INFINITY, f64::min),
        run.probe_ms.iter().copied().fold(0.0, f64::max),
    );
    match report(&args, &run) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

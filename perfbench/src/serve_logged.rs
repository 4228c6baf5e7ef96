//! `serve_logged`: an in-process daemon (`rde_serve::spawn`) with the
//! access log on and slow-trace capture armed but never firing, under
//! two closed-loop loopback clients, one per thread. Each client walks
//! its own fixed, seeded cycle of requests:
//!
//! * ¼ `CHASE split` with a 40-fact body that contains nulls;
//! * ¼ `INVERTIBLE merge`;
//! * ½ `ARROW merge`: three quarters drawn from 8 pairs both clients
//!   repeat (memo hits), one quarter with constants used once per cycle,
//!   which overflow the 64-class bound and force evictions.
//!
//! Per-request overhead dominates: framing, admission, metrics, the
//! journal and the arrow cache. Every reply is checked byte for byte
//! against the direct library result computed in set-up.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rde_chase::{chase, ChaseOptions};
use rde_core::arrow::{arrow_m, CachePolicy};
use rde_core::invertibility::{check_homomorphism_property, BoundedVerdict};
use rde_core::Universe;
use rde_deps::parse_mapping;
use rde_faults::CancelToken;
use rde_model::parse::parse_instance;
use rde_model::{display, Vocabulary};
use rde_obs::{journal, Sink};
use rde_serve::{spawn, Client, Reply, Request, ServeError, ServeOptions, UniverseDims};

use crate::host::{self, Pacer, ProbeClock};
use crate::registry::Reading;
use crate::stats::{ratio, Histogram};
use crate::trace::{self, Span, Tracer};
use crate::{ms_since, registry_layers, Args, Run, SETUP_REPS};

const SPLIT: &str = "source: P/3\ntarget: Q/2, R/2\nP(x,y,z) -> Q(x,y) & R(y,z)\n";
const MERGE: &str = "source: A/1, B/1\ntarget: T/1\nA(x) -> T(x)\nB(x) -> T(x)\n";
const MERGE_REV: &str = "source: T/1\ntarget: A/1, B/1\nT(x) -> A(x) | B(x)\n";

const CLIENTS: usize = 2;
/// Requests in one client's cycle.
const CYCLE: usize = 256;
/// Distinct CHASE bodies per client, and facts in each.
const CHASE_BODIES: usize = 4;
const CHASE_FACTS: usize = 40;
/// ARROW pairs both clients repeat.
const REPEATED_PAIRS: usize = 8;
/// Interned-class and memo bounds of the arrow cache. The memo bound is
/// reached during warm-up, so memory stays flat while timing.
const CLASS_BOUND: usize = 64;
const MEMO_BOUND: usize = 1 << 12;
/// Warm-up passes over every client's cycle: enough for the cache to
/// fill to its bounds before timing starts.
const WARMUP_PASSES: usize = 4;
const DIMS: UniverseDims = UniverseDims { consts: 2, nulls: 1, facts: 2 };
/// Journal record capacity and rotation size: far above what any run
/// writes, so no access line is dropped or rotated away.
const JOURNAL_CAPACITY: usize = 1 << 26;
const JOURNAL_MAX_BYTES: u64 = 1 << 40;

/// A request class; its value indexes per-class histograms.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Chase = 0,
    Invertible = 1,
    Arrow = 2,
}

struct Call {
    class: Class,
    request: Request,
    expected: Vec<String>,
}

fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// CHASE reference: what `rde chase split <body>` prints.
fn direct_chase(body: &str) -> Result<Vec<String>, String> {
    let mut vocab = Vocabulary::new();
    let mapping = parse_mapping(&mut vocab, SPLIT).map_err(err("split"))?;
    let instance = parse_instance(&mut vocab, body).map_err(err("chase body"))?;
    let result = chase(&instance, &mapping.dependencies, &mut vocab, &ChaseOptions::default())
        .map_err(err("direct chase"))?;
    let text = display::instance(&vocab, &result.instance.restrict_to(&mapping.target)).to_string();
    Ok(text.lines().map(str::to_owned).collect())
}

/// The vocabulary a catalog entry for `merge` starts from.
fn merge_vocab() -> Result<(Vocabulary, rde_deps::SchemaMapping), String> {
    let mut vocab = Vocabulary::new();
    let mapping = parse_mapping(&mut vocab, MERGE).map_err(err("merge"))?;
    parse_mapping(&mut vocab, MERGE_REV).map_err(err("merge.rev"))?;
    Ok((vocab, mapping))
}

/// INVERTIBLE reference: the uncached homomorphism-property scan over
/// the same bounded universe.
fn direct_invertible() -> Result<Vec<String>, String> {
    let (mut vocab, mapping) = merge_vocab()?;
    let universe = Universe::new(&mut vocab, DIMS.consts, DIMS.nulls, DIMS.facts);
    match check_homomorphism_property(&mapping, &universe, &mut vocab).map_err(err("invertible"))? {
        BoundedVerdict::HoldsWithinBound => Ok(vec!["HOLDS within bound".to_owned()]),
        BoundedVerdict::Counterexample { i1, i2 } => Ok(vec![
            "FAILS".to_owned(),
            display::instance_inline(&vocab, &i1),
            display::instance_inline(&vocab, &i2),
        ]),
        BoundedVerdict::Unknown { budget } => Err(format!("unbudgeted check unknown: {budget}")),
    }
}

/// ARROW reference: `→_M` decided directly (chase both sides, search
/// for a homomorphism), without the cache.
fn direct_arrow(body: &str) -> Result<Vec<String>, String> {
    let (mut vocab, mapping) = merge_vocab()?;
    let (first, second) = body.split_once("\n--\n").ok_or("ARROW body without `--`")?;
    let i1 = parse_instance(&mut vocab, first).map_err(err("arrow body"))?;
    let i2 = parse_instance(&mut vocab, second).map_err(err("arrow body"))?;
    let holds = arrow_m(&mapping, &i1, &i2, &mut vocab).map_err(err("direct arrow"))?;
    Ok(vec![if holds { "YES" } else { "NO" }.to_owned()])
}

/// One ARROW body from a template and two constant names; the four
/// templates alternate YES and NO answers.
fn arrow_body(template: usize, a: &str, b: &str) -> String {
    match template % 4 {
        0 => format!("A({a})\n--\nA({a})\nB({b})"),
        1 => format!("A({a})\nB({b})\n--\nB({a})"),
        2 => format!("A(?w)\n--\nB({a})"),
        _ => format!("A({a})\n--\nB({b})"),
    }
}

/// A 40-fact `P` body over 24 constants, each position a labeled null
/// with probability 1/5.
fn chase_body(rng: &mut SmallRng, tag: &str) -> String {
    let mut body = String::new();
    for i in 0..CHASE_FACTS {
        let args: Vec<String> = (0..3)
            .map(|pos| {
                if rng.gen_bool(0.2) {
                    format!("?{tag}n{i}p{pos}")
                } else {
                    format!("k{}", rng.gen_range(0..24))
                }
            })
            .collect();
        body.push_str(&format!("P({})\n", args.join(", ")));
    }
    body
}

/// Both clients' request cycles, with every distinct request's expected
/// reply computed directly.
fn build_cycles(seed: u64) -> Result<Vec<Vec<Call>>, String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let repeated: Vec<String> = (0..REPEATED_PAIRS)
        .map(|k| arrow_body(k, &format!("r{}s{seed}", 2 * k), &format!("r{}s{seed}", 2 * k + 1)))
        .collect();
    let mut expected: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let invertible = direct_invertible()?;
    let mut cycles = Vec::with_capacity(CLIENTS);
    for client in 0..CLIENTS {
        let bodies: Vec<String> =
            (0..CHASE_BODIES).map(|b| chase_body(&mut rng, &format!("c{client}b{b}"))).collect();
        let mut classes: Vec<(Class, usize)> = Vec::with_capacity(CYCLE);
        classes.extend((0..CYCLE / 4).map(|i| (Class::Chase, i % CHASE_BODIES)));
        classes.extend((0..CYCLE / 4).map(|i| (Class::Invertible, i)));
        classes.extend((0..CYCLE / 2).map(|i| (Class::Arrow, i)));
        // Fisher–Yates: a fixed, seeded interleaving of the classes.
        for i in (1..classes.len()).rev() {
            let j = rng.gen_range(0..i as u64 + 1) as usize;
            classes.swap(i, j);
        }
        let mut cycle = Vec::with_capacity(CYCLE);
        for (class, i) in classes {
            let (request, body) = match class {
                Class::Chase => {
                    let body = bodies[i].clone();
                    (Request::on("CHASE", "split").body_text(&body), body)
                }
                Class::Invertible => (Request::on("INVERTIBLE", "merge"), String::new()),
                Class::Arrow => {
                    // Three in four ARROWs repeat a shared pair; the rest
                    // use constants no other request in the cycle uses.
                    let body = if i % 4 == 3 {
                        arrow_body(i / 4, &format!("f{client}x{i}"), &format!("f{client}y{i}"))
                    } else {
                        repeated[rng.gen_range(0..REPEATED_PAIRS as u64) as usize].clone()
                    };
                    (Request::on("ARROW", "merge").body_text(&body), body)
                }
            };
            let want = match class {
                Class::Invertible => invertible.clone(),
                _ => match expected.get(&body) {
                    Some(want) => want.clone(),
                    None => {
                        let want = if class == Class::Chase {
                            direct_chase(&body)?
                        } else {
                            direct_arrow(&body)?
                        };
                        expected.insert(body, want.clone());
                        want
                    }
                },
            };
            cycle.push(Call { class, request, expected: want });
        }
        cycles.push(cycle);
    }
    Ok(cycles)
}

/// A running daemon with its journal attached and clients connected.
struct Daemon {
    dir: PathBuf,
    journal: PathBuf,
    shutdown: CancelToken,
    handle: JoinHandle<Result<(), ServeError>>,
    clients: Vec<Client>,
    cycles: Vec<Vec<Call>>,
    /// Requests sent while the journal was attached.
    sent: u64,
}

fn write_catalog(dir: &Path) -> Result<(), String> {
    for (name, text) in [("split.map", SPLIT), ("merge.map", MERGE), ("merge.rev", MERGE_REV)] {
        std::fs::write(dir.join(name), text).map_err(err("write catalog"))?;
    }
    Ok(())
}

/// Send `call` and check the reply. Returns the latency in ms.
fn exchange(client: &mut Client, call: &Call) -> Result<f64, String> {
    let started = Instant::now();
    let reply = client.request(&call.request);
    let ms = ms_since(started);
    match reply {
        Ok(Reply::Ok(lines)) if lines == call.expected => Ok(ms),
        Ok(Reply::Ok(lines)) => Err(format!(
            "{:?} reply differs from the direct result: {lines:?} vs {:?}",
            call.class, call.expected
        )),
        Ok(other) => Err(format!("{:?}: {other:?}", call.class)),
        Err(e) => Err(format!("{:?}: {e}", call.class)),
    }
}

/// One set-up: catalog, daemon, journal, references, clients, and
/// [`WARMUP_PASSES`] warm-up passes over every client's cycle.
fn start(seed: u64, rep: usize) -> Result<Daemon, String> {
    let dir = crate::work_dir(&format!("serve-{}-{rep}", std::process::id()))?;
    write_catalog(&dir)?;
    let journal_path = dir.join("access.jsonl");
    journal::attach(Sink::rotating(&journal_path, JOURNAL_MAX_BYTES, 1), JOURNAL_CAPACITY)
        .map_err(err("attach journal"))?;
    let options = ServeOptions {
        catalog: dir.clone(),
        dims: DIMS,
        policy: CachePolicy::bounded(MEMO_BOUND, CLASS_BOUND),
        trace_slow_ms: Some(u64::MAX),
        ..ServeOptions::default()
    };
    let (addr, shutdown, handle) = spawn(options).map_err(err("spawn daemon"))?;
    let cycles = build_cycles(seed)?;
    let mut clients = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        let mut client = Client::connect(addr).map_err(err("connect"))?;
        client.set_deadline(Some(Duration::from_secs(30))).map_err(err("client deadline"))?;
        clients.push(client);
    }
    let mut daemon =
        Daemon { dir, journal: journal_path, shutdown, handle, clients, cycles, sent: 0 };
    for _ in 0..WARMUP_PASSES {
        for (client, cycle) in daemon.clients.iter_mut().zip(&daemon.cycles) {
            for call in cycle {
                daemon.sent += 1;
                exchange(client, call).map_err(|e| format!("warm-up: {e}"))?;
            }
        }
    }
    Ok(daemon)
}

/// What tearing a daemon down reports about its journal.
struct JournalReport {
    written: u64,
    dropped: u64,
    io_errors: u64,
    bytes: u64,
    rotated: bool,
}

fn stop(daemon: Daemon) -> Result<JournalReport, String> {
    drop(daemon.clients);
    daemon.shutdown.cancel();
    daemon
        .handle
        .join()
        .map_err(|_| "daemon thread panicked".to_owned())?
        .map_err(err("daemon exit"))?;
    let summary = journal::detach().ok_or("no journal was attached")?;
    let bytes = std::fs::metadata(&daemon.journal).map(|m| m.len()).unwrap_or(0);
    let mut rotated_path = daemon.journal.clone().into_os_string();
    rotated_path.push(".1");
    let rotated = Path::new(&rotated_path).exists();
    std::fs::remove_dir_all(&daemon.dir).map_err(err("remove work dir"))?;
    Ok(JournalReport {
        written: summary.written as u64,
        dropped: summary.dropped,
        io_errors: summary.io_errors,
        bytes,
        rotated,
    })
}

/// One client thread's share of the timed phase. Latencies go into
/// histograms of fixed size, so the benchmark's own memory does not
/// grow with the number of requests served.
#[derive(Default)]
struct Share {
    /// Untraced request latencies at reference host speed, ms.
    untraced: Histogram,
    /// Traced request latencies at reference host speed, ms.
    traced: Histogram,
    /// Untraced request latencies by class, ms, as measured (the
    /// per-layer report scales them by the run's median slowdown).
    by_class: [Histogram; 3],
    /// Sum of every completed request's latency as measured, ms.
    raw_sum_ms: f64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    spans: Vec<Span>,
    /// Completed requests per second of this client's op time, at
    /// reference host speed.
    rate: f64,
}

/// One client's closed loop. Every latency is divided by the host
/// slowdown in force; the probes that set it are taken while both
/// clients wait at the clock's barrier, so the daemon is idle too.
fn drive(
    client: &mut Client,
    cycle: &[Call],
    index: usize,
    clock: &ProbeClock,
    epoch: Instant,
    args: &Args,
) -> Share {
    let until = epoch + Duration::from_secs_f64(args.seconds);
    let mut share = Share::default();
    let mut tracer = Tracer::new(epoch);
    let mut pacer = Pacer::new(clock);
    let mut i = 0usize;
    while Instant::now() < until {
        pacer.tick();
        let busy = Instant::now();
        let call = &cycle[i % cycle.len()];
        let op = (index + CLIENTS * i) as u64;
        let trace_this = args.trace && i % 2 == 1;
        share.attempted += 1;
        let outcome = if trace_this {
            let span = tracer.open("serve_logged.op", op);
            let outcome = tracer.span("serve.call", op, || exchange(client, call));
            tracer.close(span);
            outcome
        } else {
            exchange(client, call)
        };
        if let Ok(ms) = outcome {
            share.raw_sum_ms += ms;
        }
        match outcome {
            Ok(ms) if trace_this => share.traced.record(ms / pacer.slowdown()),
            Ok(ms) => {
                share.untraced.record(ms / pacer.slowdown());
                share.by_class[call.class as usize].record(ms);
            }
            Err(e) => {
                share.failed += 1;
                if share.problems.len() < 4 {
                    share.problems.push(format!("client {index} request {i}: {e}"));
                }
            }
        }
        pacer.charge(busy.elapsed());
        i += 1;
    }
    pacer.finish();
    share.rate = ratio((share.attempted - share.failed) as f64, pacer.scaled_busy_s);
    share.spans = tracer.into_spans();
    share
}

pub fn run(args: &Args) -> Result<Run, String> {
    let mut run = Run::default();
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = daemon.take() {
            stop(previous)?;
        }
        daemon = Some(run.set_up(|| start(args.seed, rep))?);
    }
    let mut daemon = daemon.ok_or("no set-up ran")?;

    let before = Reading::now();
    let clock = ProbeClock::new(CLIENTS, Some(Duration::from_secs_f64(args.seconds)));
    let epoch = Instant::now();
    let shares: Vec<Share> = std::thread::scope(|scope| {
        let workers: Vec<_> = daemon
            .clients
            .iter_mut()
            .zip(&daemon.cycles)
            .enumerate()
            .map(|(index, (client, cycle))| {
                let clock = &clock;
                scope.spawn(move || drive(client, cycle, index, clock, epoch, args))
            })
            .collect();
        workers.into_iter().map(|w| w.join()).collect::<Result<_, _>>()
    })
    .map_err(|_| "a client thread panicked".to_owned())?;
    run.peak_rss_mb = host::peak_rss_mb();
    let delta = Reading::now().since(&before);

    let mut by_class: [Histogram; 3] = Default::default();
    let mut raw_sum_ms = 0.0;
    for share in shares {
        run.attempted += share.attempted;
        run.failed += share.failed;
        run.problems.extend(share.problems);
        run.rate += share.rate;
        trace::merge(&mut run.spans, share.spans);
        run.latencies.merge(&share.untraced);
        run.traced.merge(&share.traced);
        raw_sum_ms += share.raw_sum_ms;
        for (all, mine) in by_class.iter_mut().zip(&share.by_class) {
            all.merge(mine);
        }
    }
    run.add_probes(clock);
    daemon.sent += run.attempted;
    let sent = daemon.sent;
    let report = stop(daemon)?;
    if report.dropped != 0 || report.io_errors != 0 || report.rotated {
        run.problems.push(format!(
            "access log lost lines: dropped {} io_errors {} rotated {}",
            report.dropped, report.io_errors, report.rotated
        ));
    }
    if report.written < sent {
        run.problems
            .push(format!("access log wrote {} records for {sent} requests", report.written));
    }
    if args.trace {
        let mean_us = ratio(raw_sum_ms * 1e3, (run.attempted - run.failed) as f64);
        layers(&mut run, &delta, &by_class, mean_us, &report, sent);
    }
    Ok(run)
}

fn layers(
    run: &mut Run,
    delta: &Reading,
    by_class: &[Histogram; 3],
    client_mean_us: f64,
    journal: &JournalReport,
    sent: u64,
) {
    let requests = run.attempted as f64;
    let out = &mut run.layers;
    registry_layers(delta, run.attempted, out);
    let hits = delta.counter("core.arrow.hits") as f64;
    let misses = delta.counter("core.arrow.misses") as f64;
    out.insert("core.arrow_hit_ratio", ratio(hits, hits + misses));
    out.insert(
        "core.arrow_evictions_per_kreq",
        ratio(delta.counter("core.arrow.evictions") as f64 * 1000.0, requests),
    );
    let intern_hits = delta.counter("core.arrow.intern.hits") as f64;
    let intern_misses = delta.counter("core.arrow.intern.misses") as f64;
    out.insert("core.intern_miss_ratio", ratio(intern_misses, intern_hits + intern_misses));
    let p50_us = |class: Class| by_class[class as usize].percentile(0.5).unwrap_or(0.0) * 1e3;
    out.insert("serve.chase_p50_us", p50_us(Class::Chase));
    out.insert("serve.arrow_p50_us", p50_us(Class::Arrow));
    out.insert("serve.invertible_p50_us", p50_us(Class::Invertible));
    let mean_us = |(count, sum): (u64, u64)| ratio(sum as f64, count as f64);
    let handler = mean_us(delta.histogram("serve.request.us"));
    let queue = mean_us(delta.labeled_histogram("serve.queue.us"));
    out.insert("serve.handler_us", handler);
    out.insert("serve.queue_us", queue);
    out.insert("serve.wire_us", client_mean_us - handler - queue);
    out.insert("serve.shed", delta.counter("serve.shed") as f64);
    out.insert("obs.journal_records_per_req", ratio(journal.written as f64, sent as f64));
    out.insert("obs.journal_bytes_per_req", ratio(journal.bytes as f64, sent as f64));
    out.insert("obs.journal_dropped", journal.dropped as f64);
}

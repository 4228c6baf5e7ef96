//! Serve-layer baseline: an in-process `rde serve` daemon under
//! concurrent client load. Measures request
//! latency (client-observed p50/p99), verifies that every concurrent
//! answer is bit-identical to a reference request, and drives enough
//! distinct-constant `ARROW` churn to exercise the cache's eviction
//! policy — asserting occupancy stays within the configured bound.
//! Writes `BENCH_serve.json` (repo root, or the path given as the
//! first argument).
//!
//! The timed fleet runs twice — plain, then with the
//! access log on (rotating journal sink; slow-trace capture discards
//! every request's tree) — so the baseline records both latency pairs
//! and the access log's overhead is directly visible. A further
//! untimed fleet runs under `trace_slow_ms = 0` and proves every
//! request's span tree can be rebuilt from the interleaved journal by
//! request id alone. The emitted baseline embeds the full labeled
//! metrics snapshot.
//!
//! Pass `--quick` (after the optional path) to shrink the fleet for CI
//! smoke runs.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use rde_core::arrow::CachePolicy;
use rde_obs::{journal, Record, Sink};
use rde_serve::{spawn, Client, Reply, Request, ServeOptions, TenantQuota, UniverseDims};

/// The `split` mapping with its tgd variables renamed: textually
/// different (new content fingerprint, so a reload really rebuilds the
/// entry) but answer-equivalent — the reload fleet's bit-identity
/// assertion depends on exactly this.
const SPLIT_RENAMED: &str = "source: P/3\ntarget: Q/2, R/2\nP(u,v,w) -> Q(u,v) & R(v,w)\n";

/// Write the benchmark's catalog: the decomposition mapping (chase
/// work), and the union mapping with its disjunctive reverse
/// (invertibility + arrow + certain work).
fn catalog(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rde-serve-bench-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create catalog dir");
    std::fs::write(
        dir.join("split.map"),
        "source: P/3\ntarget: Q/2, R/2\nP(x,y,z) -> Q(x,y) & R(y,z)\n",
    )
    .expect("write split.map");
    std::fs::write(
        dir.join("merge.map"),
        "source: A/1, B/1\ntarget: T/1\nA(x) -> T(x)\nB(x) -> T(x)\n",
    )
    .expect("write merge.map");
    std::fs::write(dir.join("merge.rev"), "source: T/1\ntarget: A/1, B/1\nT(x) -> A(x) | B(x)\n")
        .expect("write merge.rev");
    dir
}

fn ok_lines(reply: Reply) -> Vec<String> {
    match reply {
        Reply::Ok(lines) => lines,
        other => panic!("expected OK, got {other:?}"),
    }
}

/// One `cache NAME k=v…` STATS line, parsed into a field lookup.
fn cache_field(line: &str, name: &str) -> u64 {
    line.split_whitespace()
        .find_map(|w| w.strip_prefix(&format!("{name}=")))
        .unwrap_or_else(|| panic!("no {name}= in {line}"))
        .parse()
        .unwrap_or_else(|_| panic!("bad {name}= in {line}"))
}

/// The timed fleet runs in access-log mode (`trace_slow_ms` = never):
/// request-thread span trees are captured and discarded, so the file
/// carries one request-stamped `serve.access` line per request with
/// the full field set — and never a replayed `serve.request` tree.
fn verify_access_log(path: &std::path::Path, expected: usize) {
    let text = std::fs::read_to_string(path).expect("read access log");
    let mut reqs = BTreeSet::new();
    let mut access = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let record = Record::parse_json_line(line)
            .unwrap_or_else(|e| panic!("{}:{}: {e}", path.display(), lineno + 1));
        assert!(
            !(record.kind == "span_open" && record.name == "serve.request"),
            "request trees must be captured and discarded in access-log mode"
        );
        if record.kind == "event" && record.name == "serve.access" {
            access += 1;
            assert_ne!(record.req(), 0, "access lines are request-stamped: {line}");
            assert!(reqs.insert(record.req()), "duplicate access line: {line}");
            for key in ["op", "mapping", "outcome", "us"] {
                assert!(record.field(key).is_some(), "access line missing {key}: {line}");
            }
        }
    }
    assert_eq!(access, expected, "one access-log line per fleet request");
}

/// Reconstruct every request's span tree from the fleet's interleaved
/// journal, by request id alone. `expected` is the number of requests
/// the fleet issued while the sink was attached. Fails if any group is
/// structurally contaminated by another request: unbalanced spans, a
/// close whose open lives in a different group, or a missing/duplicate
/// `serve.request` root.
fn verify_reconstruction(path: &std::path::Path, expected: usize) {
    let rotated = {
        let mut s = path.as_os_str().to_owned();
        s.push(".1");
        std::path::PathBuf::from(s)
    };
    assert!(!rotated.exists(), "the 64MB rotation bound must cover the whole fleet run");
    let text = std::fs::read_to_string(path).expect("read bench journal");
    let mut groups: BTreeMap<u64, Vec<Record>> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let record = Record::parse_json_line(line)
            .unwrap_or_else(|e| panic!("{}:{}: {e}", path.display(), lineno + 1));
        groups.entry(record.req()).or_default().push(record);
    }
    // Request-stamped groups only: id 0 is ambient (sink bookkeeping).
    groups.remove(&0);
    assert_eq!(groups.len(), expected, "one journal group per fleet request");
    for (req, records) in &groups {
        let opens: Vec<u64> =
            records.iter().filter(|r| r.kind == "span_open").map(|r| r.span).collect();
        let closes: Vec<u64> =
            records.iter().filter(|r| r.kind == "span_close").map(|r| r.span).collect();
        assert_eq!(opens.len(), closes.len(), "request {req}: unbalanced span tree");
        for span in &closes {
            assert!(
                opens.contains(span),
                "request {req}: span {span} closed here but opened under another request"
            );
        }
        let roots =
            records.iter().filter(|r| r.kind == "span_open" && r.name == "serve.request").count();
        assert_eq!(roots, 1, "request {req}: exactly one serve.request root");
        let access: Vec<_> =
            records.iter().filter(|r| r.kind == "event" && r.name == "serve.access").collect();
        assert_eq!(access.len(), 1, "request {req}: exactly one access-log line");
        let ok = matches!(
            access[0].field("outcome"),
            Some(journal::OwnedField::Str(s)) if s == "ok"
        );
        assert!(ok, "request {req}: fleet requests all succeed: {:?}", access[0]);
    }
}

/// Drive the fleet: `threads` persistent connections issuing `reps`
/// rounds of mixed CHASE / INVERTIBLE / ARROW requests apiece, all
/// released together. Returns the JSON result row.
fn run_fleet(threads: usize, reps: usize) -> String {
    let dir = catalog("fleet");
    // A small class bound so the ARROW churn below must evict; a
    // generous in-flight ceiling so nothing sheds (shed==0 is asserted:
    // the daemon must *sustain* the fleet, not survive it).
    let class_bound = 16;
    let options = ServeOptions {
        catalog: dir.clone(),
        dims: UniverseDims { consts: 1, nulls: 1, facts: 1 },
        policy: CachePolicy::bounded(1 << 12, class_bound),
        max_inflight: 4 * threads,
        // Access-log mode: request-thread span trees are captured and
        // discarded (nothing is ever "slow enough"), so the attached
        // journal carries one `serve.access` line per request instead
        // of the full interleaved trace. This is the configuration the
        // baseline's latencies are measured under.
        trace_slow_ms: Some(u64::MAX),
        ..ServeOptions::default()
    };
    let (addr, shutdown, handle) = spawn(options).expect("spawn daemon");

    // Reference answers, computed once over a quiet server.
    let mut reference = Client::connect(addr).expect("connect reference client");
    let chase_body = "P(a, b, c)\nP(a, b, d)\n";
    let expected_chase =
        ok_lines(reference.request(&Request::on("CHASE", "split").body_text(chase_body)).unwrap());
    let expected_inv = ok_lines(reference.request(&Request::on("INVERTIBLE", "merge")).unwrap());
    assert_eq!(expected_inv[0], "FAILS", "the union mapping is not invertible");

    // One timed fleet pass, parameterized by a churn tag so each pass
    // drives fresh ARROW constants. Returns client-observed (p50, p99).
    let fleet = |tag: &str| -> (u64, u64) {
        let barrier = Arc::new(Barrier::new(threads));
        let latencies = Arc::new(Mutex::new(Vec::<u64>::new()));
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let barrier = Arc::clone(&barrier);
                let latencies = Arc::clone(&latencies);
                let expected_chase = expected_chase.clone();
                let expected_inv = expected_inv.clone();
                let tag = tag.to_owned();
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("connect worker");
                    let mut mine = Vec::with_capacity(3 * reps);
                    barrier.wait();
                    for round in 0..reps {
                        let mut timed = |request: &Request| {
                            let started = Instant::now();
                            let reply = client.request(request).expect("request");
                            mine.push(started.elapsed().as_micros() as u64);
                            reply
                        };
                        let got =
                            ok_lines(timed(&Request::on("CHASE", "split").body_text(chase_body)));
                        assert_eq!(got, expected_chase, "thread {t} round {round}: CHASE drifted");
                        let got = ok_lines(timed(&Request::on("INVERTIBLE", "merge")));
                        assert_eq!(
                            got, expected_inv,
                            "thread {t} round {round}: INVERTIBLE drifted"
                        );
                        // Fresh constants every round: hostile churn
                        // that must stay inside the class bound.
                        let body = format!(
                            "A({tag}{t}x{round})\n--\nA({tag}{t}x{round})\nB({tag}m{t}x{round})\n"
                        );
                        let got = ok_lines(timed(&Request::on("ARROW", "merge").body_text(&body)));
                        assert_eq!(got, vec!["YES"], "thread {t} round {round}: ARROW drifted");
                    }
                    latencies.lock().unwrap().extend(mine);
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("worker");
        }
        let mut sorted = latencies.lock().unwrap().clone();
        sorted.sort_unstable();
        let quantile = |q: f64| sorted[((sorted.len() - 1) as f64 * q) as usize];
        (quantile(0.50), quantile(0.99))
    };

    // Pass 1: no journal attached — the plain serving baseline.
    let (p50, p99) = fleet("k");
    // Pass 2: the access log — the journal pointed at a rotating file
    // sink. The daemon captures and discards request-thread span trees
    // (nothing is ever "slow enough"), so the file carries one
    // `serve.access` line per request, not the full interleaved trace.
    // A no-op (empty file, empty summary) without `trace`.
    let journal_path = dir.join("access.jsonl");
    journal::attach(Sink::rotating(&journal_path, 64 << 20, 1), 1 << 20)
        .expect("attach bench journal");
    let (p50_log, p99_log) = fleet("g");
    let summary = journal::detach();
    if cfg!(feature = "trace") {
        let summary = summary.expect("bench journal was attached");
        assert_eq!(summary.dropped, 0, "journal capacity must cover the fleet");
        assert_eq!(summary.io_errors, 0, "journal writes must not fail");
        verify_access_log(&journal_path, threads * reps * 3);
    }
    std::fs::remove_file(&journal_path).ok();

    let stats = ok_lines(reference.request(&Request::bare("STATS")).unwrap());
    assert!(
        stats.iter().any(|l| l.starts_with("uptime-ms ")),
        "STATS must lead with the daemon uptime: {stats:?}"
    );
    for op in ["CHASE", "INVERTIBLE", "ARROW"] {
        assert!(
            stats.iter().any(|l| l.starts_with(&format!("op {op} count="))
                && l.contains("p50<=")
                && l.contains("p99<=")),
            "STATS must aggregate per-op latency for {op}: {stats:?}"
        );
    }
    let merge_line = stats
        .iter()
        .find(|l| l.starts_with("cache merge "))
        .expect("per-mapping cache stats in STATS")
        .clone();
    let interned = cache_field(&merge_line, "interned");
    let class_evictions = cache_field(&merge_line, "class_evictions");
    let memo_hits = cache_field(&merge_line, "hits");
    let intern_hits = cache_field(&merge_line, "intern_hits");
    let memo_evictions = cache_field(&merge_line, "memo_evictions");
    assert!(interned <= class_bound as u64, "churn must stay within the class bound: {merge_line}");
    assert!(class_evictions > 0, "churn past the bound must evict: {merge_line}");

    // The reload fleet: the same timed mixed-op load, but with the
    // catalog swapped out from under it the whole time (alternating
    // `split` between two answer-equivalent texts, so every swap
    // really rebuilds that entry while `merge` carries its warm cache
    // over). The workers' bit-identity assertions run as before — a
    // generation swap must never change an answer — and the latency
    // pair lands in the baseline next to the steady-state one.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let reloader = {
        let stop = Arc::clone(&stop);
        let dir = dir.clone();
        std::thread::spawn(move || {
            let mut admin = Client::connect(addr).expect("connect reloader");
            let original = std::fs::read_to_string(dir.join("split.map")).expect("read split.map");
            let mut reloads = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let text =
                    if reloads.is_multiple_of(2) { SPLIT_RENAMED } else { original.as_str() };
                std::fs::write(dir.join("split.map"), text).expect("rewrite split.map");
                let lines = ok_lines(admin.request(&Request::bare("RELOAD")).expect("RELOAD"));
                assert!(lines[0].starts_with("generation "), "{lines:?}");
                reloads += 1;
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            reloads
        })
    };
    let (p50_reload, p99_reload) = fleet("q");
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let reloads = reloader.join().expect("reloader");
    assert!(reloads > 0, "the reload fleet must actually reload");

    drop(reference);
    shutdown.cancel();
    handle.join().expect("join daemon").expect("daemon exit");

    // The reconstruction pass: one more fleet round against a daemon
    // in `trace_slow_ms = 0` mode, where every request's captured span
    // tree is replayed into the journal. Each tree is then rebuilt
    // from the interleaved file by request id alone — the per-request
    // debugging workflow `rde profile --request-id` automates.
    if cfg!(feature = "trace") {
        let options = ServeOptions {
            catalog: dir.clone(),
            dims: UniverseDims { consts: 1, nulls: 1, facts: 1 },
            policy: CachePolicy::bounded(1 << 12, class_bound),
            max_inflight: 4 * threads,
            trace_slow_ms: Some(0),
            ..ServeOptions::default()
        };
        let (addr, shutdown, handle) = spawn(options).expect("spawn trace daemon");
        let trace_path = dir.join("trace.jsonl");
        journal::attach(Sink::rotating(&trace_path, 64 << 20, 1), 1 << 20)
            .expect("attach trace journal");
        let barrier = Arc::new(Barrier::new(threads));
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let barrier = Arc::clone(&barrier);
                let expected_chase = expected_chase.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("connect trace worker");
                    barrier.wait();
                    let got = ok_lines(
                        client
                            .request(&Request::on("CHASE", "split").body_text(chase_body))
                            .expect("CHASE"),
                    );
                    assert_eq!(got, expected_chase, "trace thread {t}: CHASE drifted");
                    ok_lines(client.request(&Request::on("INVERTIBLE", "merge")).expect("INV"));
                    let body = format!("A(r{t})\n--\nA(r{t})\nB(s{t})\n");
                    ok_lines(
                        client
                            .request(&Request::on("ARROW", "merge").body_text(&body))
                            .expect("ARROW"),
                    );
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("trace worker");
        }
        journal::detach();
        verify_reconstruction(&trace_path, threads * 3);
        shutdown.cancel();
        handle.join().expect("join trace daemon").expect("trace daemon exit");
    }

    std::fs::remove_dir_all(&dir).ok();

    let snap = rde_obs::snapshot();
    let counter =
        |name: &str| snap.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v).unwrap_or(0);
    assert_eq!(counter("serve.shed"), 0, "an unsaturated daemon must not shed");

    let requests = threads * reps * 3;
    println!(
        "{threads:>8} {requests:>9} {p50:>8} {p99:>8} \
         {p50_log:>8} {p99_log:>8} {p50_reload:>8} {p99_reload:>8} \
         {interned:>9} {class_evictions:>10}"
    );
    format!(
        concat!(
            "    {{\"experiment\": \"fleet\", \"threads\": {}, \"requests\": {}, ",
            "\"p50_us\": {}, \"p99_us\": {}, ",
            "\"access_log\": {{\"p50_us\": {}, \"p99_us\": {}}}, ",
            "\"reload_under_load\": {{\"p50_us\": {}, \"p99_us\": {}, \"reloads\": {}}}, ",
            "\"shed\": 0, ",
            "\"cache\": {{\"interned\": {}, \"class_bound\": {}, \"class_evictions\": {}, ",
            "\"memo_hits\": {}, \"intern_hits\": {}, \"memo_evictions\": {}}}}}"
        ),
        threads,
        requests,
        p50,
        p99,
        p50_log,
        p99_log,
        p50_reload,
        p99_reload,
        reloads,
        interned,
        class_bound,
        class_evictions,
        memo_hits,
        intern_hits,
        memo_evictions
    )
}

/// The tenant-isolation experiment: a quiet tenant's CHASE latency is
/// measured solo, then again while a flooding tenant (pinned to a
/// small token bucket) hammers the daemon. The quotas must hold the
/// quiet tenant's p99 within 2x of its solo run (with a small absolute
/// floor absorbing scheduler noise on microsecond-scale latencies),
/// while every over-quota request is shed with a retry-after-ms hint.
fn run_quota_experiment(reps: usize) -> String {
    let dir = catalog("quota");
    let quiet_threads = 4usize;
    let flood_threads = 4usize;
    let options = ServeOptions {
        catalog: dir.clone(),
        dims: UniverseDims { consts: 1, nulls: 1, facts: 1 },
        policy: CachePolicy::bounded(1 << 12, 16),
        max_inflight: 4 * (quiet_threads + flood_threads),
        // The flooder's bucket: a burst, then ~50 admitted per second —
        // everything past that is an immediate (cheap) SHED.
        tenant_quotas: vec![TenantQuota::parse("flood=50:8").expect("quota spec")],
        ..ServeOptions::default()
    };
    let (addr, shutdown, handle) = spawn(options).expect("spawn quota daemon");

    let chase_body = "P(a, b, c)\nP(a, b, d)\n";
    let mut reference = Client::connect(addr).expect("connect reference client");
    let expected_chase =
        ok_lines(reference.request(&Request::on("CHASE", "split").body_text(chase_body)).unwrap());

    // One quiet-tenant fleet; returns its client-observed p99 (µs).
    let quiet_fleet = |rounds: usize| -> u64 {
        let barrier = Arc::new(Barrier::new(quiet_threads));
        let latencies = Arc::new(Mutex::new(Vec::<u64>::new()));
        let workers: Vec<_> = (0..quiet_threads)
            .map(|t| {
                let barrier = Arc::clone(&barrier);
                let latencies = Arc::clone(&latencies);
                let expected = expected_chase.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("connect quiet worker");
                    let request = Request::on("CHASE", "split")
                        .body_text(chase_body)
                        .header("tenant", "quiet");
                    let mut mine = Vec::with_capacity(rounds);
                    barrier.wait();
                    for round in 0..rounds {
                        let started = Instant::now();
                        let got = ok_lines(client.request(&request).expect("quiet request"));
                        mine.push(started.elapsed().as_micros() as u64);
                        assert_eq!(got, expected, "quiet thread {t} round {round}: CHASE drifted");
                    }
                    latencies.lock().unwrap().extend(mine);
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("quiet worker");
        }
        let mut sorted = latencies.lock().unwrap().clone();
        sorted.sort_unstable();
        sorted[((sorted.len() - 1) as f64 * 0.99) as usize]
    };

    let rounds = (reps * 8).max(32);
    let p99_solo = quiet_fleet(rounds);

    // Same fleet again, now with flooders hammering their bucket.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flooders: Vec<_> = (0..flood_threads)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect flooder");
                let request = Request::bare("PING").header("tenant", "flood");
                let (mut sheds, mut oks) = (0u64, 0u64);
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    match client.request(&request).expect("flood request") {
                        Reply::Ok(_) => oks += 1,
                        Reply::Shed { reason, retry_after_ms } => {
                            assert!(reason.contains("over quota"), "{reason}");
                            assert!(retry_after_ms.is_some(), "quota sheds carry retry hints");
                            sheds += 1;
                        }
                        other => panic!("flooder got {other:?}"),
                    }
                }
                (sheds, oks)
            })
        })
        .collect();
    let p99_flood = quiet_fleet(rounds);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let (mut flood_sheds, mut flood_oks) = (0u64, 0u64);
    for flooder in flooders {
        let (sheds, oks) = flooder.join().expect("flooder");
        flood_sheds += sheds;
        flood_oks += oks;
    }
    assert!(flood_sheds > 0, "the flood must actually exceed its quota");
    assert!(flood_oks > 0, "the bucket's burst must admit something");

    shutdown.cancel();
    handle.join().expect("join quota daemon").expect("quota daemon exit");
    std::fs::remove_dir_all(&dir).ok();

    // The isolation acceptance bound. The floor keeps a CI box's
    // scheduling jitter from failing a comparison between two
    // sub-millisecond numbers.
    let bound = (2 * p99_solo).max(5_000);
    assert!(
        p99_flood <= bound,
        "quota isolation failed: quiet p99 {p99_flood}µs vs solo {p99_solo}µs (bound {bound}µs)"
    );

    println!(
        "{:>9} {quiet_threads:>8} {:>9} {p99_solo:>8} {p99_flood:>8} (flood: {flood_sheds} shed, \
         {flood_oks} ok)",
        "quota",
        quiet_threads * rounds,
    );
    format!(
        concat!(
            "    {{\"experiment\": \"tenant_quota\", \"quiet_threads\": {}, ",
            "\"flood_threads\": {}, \"quiet_p99_solo_us\": {}, \"quiet_p99_flood_us\": {}, ",
            "\"flood_sheds\": {}, \"flood_admitted\": {}}}"
        ),
        quiet_threads, flood_threads, p99_solo, p99_flood, flood_sheds, flood_oks
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    // The acceptance floor is 64 concurrent in-flight requests; quick
    // mode keeps the shape but shrinks the fleet for smoke runs.
    let (threads, reps) = if quick { (8, 4) } else { (64, 8) };
    println!(
        "{:>8} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>10}",
        "threads",
        "requests",
        "p50_us",
        "p99_us",
        "p50_log",
        "p99_log",
        "p50_rel",
        "p99_rel",
        "interned",
        "evictions"
    );
    // The quota experiment goes last: it sheds on purpose, and the
    // fleet asserts a cumulative shed count of zero up to its finish.
    let rows = [run_fleet(threads, reps), run_quota_experiment(reps)];
    let metrics = rde_obs::snapshot().to_json();
    assert!(
        metrics.contains("\"labeled_counters\"") && metrics.contains("serve.requests{"),
        "the labeled per-op × per-mapping series must be embedded in the baseline"
    );
    let json = format!(
        concat!(
            "{{\n  \"benchmark\": \"serve\",\n",
            "  \"experiments\": [\"concurrent mixed-op fleet (CHASE/INVERTIBLE/ARROW), ",
            "answers checked bit-identical to a reference request\", ",
            "\"distinct-constant ARROW churn against a bounded cache\", ",
            "\"access-log overhead (same fleet, rotating journal sink attached)\", ",
            "\"catalog reload under load (generation swaps mid-fleet, ",
            "answers still bit-identical)\", ",
            "\"tenant-quota isolation (quiet tenant p99 within 2x of solo ",
            "while a flooding tenant is shed with retry hints)\", ",
            "\"per-request span-tree reconstruction from an interleaved journal\"],\n",
            "  \"results\": [\n{}\n  ],\n",
            "  \"metrics\": {}\n}}\n"
        ),
        rows.join(",\n"),
        metrics
    );
    rde_bench::write_baseline(&out_path, &json);
}

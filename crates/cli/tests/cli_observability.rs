//! End-to-end observability checks against the real `rde` binary.
//!
//! Each invocation is its own process, so the process-global journal
//! and metrics registry start clean — unlike in-process `run()` tests,
//! which share both with every other test thread.

use std::path::PathBuf;
use std::process::Command;

fn rde() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rde"))
}

fn example(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/data").join(name);
    path.to_string_lossy().into_owned()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rde-obs-e2e-{}-{name}", std::process::id()))
}

#[test]
fn trace_out_writes_one_valid_json_object_per_line() {
    let out = tmp("chase.jsonl");
    let _ = std::fs::remove_file(&out);
    let status = rde()
        .args(["chase", &example("two_step.map"), &example("flights.inst")])
        .args(["--trace-out", &out.to_string_lossy()])
        .status()
        .expect("spawn rde");
    assert!(status.success());
    if cfg!(feature = "trace") {
        let text = std::fs::read_to_string(&out).expect("--trace-out file written");
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines.is_empty(), "journal must record the chase");
        let mut opens = 0usize;
        let mut closes = 0usize;
        for line in &lines {
            assert!(rde_obs::json::is_valid(line), "malformed JSONL line: {line}");
            if line.contains("\"kind\":\"span_open\"") {
                opens += 1;
            }
            if line.contains("\"kind\":\"span_close\"") {
                closes += 1;
            }
        }
        assert!(opens > 0, "chase must open spans");
        assert_eq!(opens, closes, "every span must close:\n{text}");
        let _ = std::fs::remove_file(&out);
    } else {
        // trace compiled out: the flag is accepted but writes nothing.
        assert!(!out.exists(), "no-trace build must not create a journal file");
    }
}

#[test]
fn metrics_flag_prints_a_snapshot_table() {
    let output = rde()
        .args(["chase", &example("two_step.map"), &example("flights.inst"), "--metrics"])
        .output()
        .expect("spawn rde");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    // Metrics stay live even without the trace feature.
    assert!(stdout.contains("chase.rounds"), "missing chase counters:\n{stdout}");
    assert!(stdout.contains("chase.round.us"), "missing round histogram:\n{stdout}");
    assert!(stdout.contains("hom.search.nodes"), "missing hom counters:\n{stdout}");

    // A restricted run of a copy rule skips both satisfaction checks of
    // each of the two triggers: only the rule writes `Q`, and the input
    // holds none.
    let map = tmp("copy.map");
    std::fs::write(&map, "source: P/2\ntarget: Q/2\nP(x, y) -> Q(x, y)\n").unwrap();
    let output = rde()
        .args(["chase", &map.to_string_lossy(), &example("flights.inst")])
        .args(["--variant", "restricted", "--metrics"])
        .output()
        .expect("spawn rde");
    let _ = std::fs::remove_file(&map);
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    let skipped = stdout
        .lines()
        .find_map(|l| l.strip_prefix("chase.restricted.checks_skipped "))
        .map(str::trim);
    assert_eq!(skipped, Some("4"), "{stdout}");
    let searches =
        stdout.lines().find_map(|l| l.strip_prefix("hom.search.searches ")).map(str::trim);
    assert_eq!(searches, Some("1"), "one premise enumeration, no checks:\n{stdout}");
}

#[test]
fn profile_prints_a_span_tree_consistent_with_stats() {
    let output = rde()
        .args(["profile", &example("two_step.map"), &example("flights.inst")])
        .output()
        .expect("spawn rde");
    assert!(output.status.success(), "profile failed: {}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("# chase:"), "missing chase totals:\n{stdout}");
    if cfg!(feature = "trace") {
        // cmd_profile errors out if the chase.run span totals disagree
        // with the returned stats, so success + tree implies consistency.
        assert!(stdout.contains("span tree"), "missing span tree:\n{stdout}");
        assert!(stdout.contains("chase.run"), "missing root span:\n{stdout}");
        assert!(stdout.contains("chase.round"), "missing round spans:\n{stdout}");
    } else {
        assert!(stdout.contains("tracing compiled out"), "{stdout}");
    }
}

#[test]
fn profile_reports_span_latency_quantiles() {
    let output = rde()
        .args(["profile", &example("two_step.map"), &example("flights.inst")])
        .output()
        .expect("spawn rde");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    if cfg!(feature = "trace") {
        assert!(stdout.contains("span latency quantiles"), "missing quantile table:\n{stdout}");
        assert!(stdout.contains("p50"), "{stdout}");
        assert!(stdout.contains("p99"), "{stdout}");
    }
}

#[test]
fn profile_drives_other_workloads() {
    // `profile invertible <mapping>` runs the invertibility check
    // under the in-memory journal and prints its span breakdown.
    let output = rde()
        .args(["profile", "invertible", &example("two_step.map")])
        .args(["--consts", "1", "--nulls", "0", "--facts", "1"])
        .output()
        .expect("spawn rde");
    assert!(
        output.status.success(),
        "profile invertible failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("homomorphism property"), "verdict still printed:\n{stdout}");
    if cfg!(feature = "trace") {
        assert!(stdout.contains("span tree"), "missing span tree:\n{stdout}");
    }
    // And `profile loss` likewise.
    let output = rde()
        .args(["profile", "loss", &example("two_step.map")])
        .args(["--consts", "1", "--nulls", "0", "--facts", "1"])
        .output()
        .expect("spawn rde");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("lost pairs"), "census still printed:\n{stdout}");
}

#[test]
fn profile_trace_out_dumps_the_memory_journal() {
    let out = tmp("profile.jsonl");
    let _ = std::fs::remove_file(&out);
    let status = rde()
        .args(["profile", &example("two_step.map"), &example("flights.inst")])
        .args(["--trace-out", &out.to_string_lossy()])
        .status()
        .expect("spawn rde");
    assert!(status.success());
    if cfg!(feature = "trace") {
        let text = std::fs::read_to_string(&out).expect("profile --trace-out file");
        for line in text.lines() {
            assert!(rde_obs::json::is_valid(line), "malformed JSONL line: {line}");
        }
        assert!(text.lines().count() > 0);
        let _ = std::fs::remove_file(&out);
    }
}

/// Spawn `rde serve --addr 127.0.0.1:0 …` and wait for the readiness
/// line; the daemon is killed (and its catalog removed) on drop.
struct ServeGuard {
    child: std::process::Child,
    addr: String,
    dir: PathBuf,
}

impl ServeGuard {
    fn spawn(dir: PathBuf, extra: &[&str]) -> ServeGuard {
        use std::io::BufRead;
        let mut child = rde()
            .args(["serve", dir.to_str().unwrap(), "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn rde serve");
        let stdout = child.stdout.take().expect("serve stdout piped");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("serve must print its readiness lines before accepting")
                .expect("read serve stdout");
            if let Some(rest) = line.strip_prefix("listening on ") {
                break rest.to_owned();
            }
        };
        ServeGuard { child, addr, dir }
    }

    /// SIGINT (what Ctrl-C sends): the daemon drains, flushes the
    /// access log, and exits 0.
    fn interrupt_and_wait(&mut self) -> Option<i32> {
        let pid = self.child.id().to_string();
        let sent =
            Command::new("kill").args(["-INT", &pid]).status().expect("spawn kill").success();
        assert!(sent, "kill -INT must reach the daemon");
        self.child.wait().expect("wait for rde serve").code()
    }
}

impl Drop for ServeGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

#[test]
fn serve_telemetry_flows_from_access_log_to_top_and_profile() {
    let dir = std::env::temp_dir().join(format!("rde-cli-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("split.map"),
        "source: P/3\ntarget: Q/2, R/2\nP(x,y,z) -> Q(x,y) & R(y,z)\n",
    )
    .unwrap();
    let inst = dir.join("i.inst");
    std::fs::write(&inst, "P(a, b, c)\n").unwrap();
    let log = dir.join("access.jsonl");
    // Threshold 0: every request's span tree is replayed into the log.
    let mut guard = ServeGuard::spawn(
        dir.clone(),
        &["--access-log", log.to_str().unwrap(), "--trace-slow-ms", "0"],
    );

    let chase = rde()
        .args(["call", &guard.addr, "chase", "split", inst.to_str().unwrap()])
        .output()
        .expect("spawn rde call chase");
    assert_eq!(chase.status.code(), Some(0), "{}", String::from_utf8_lossy(&chase.stderr));

    // `rde call <addr> metrics` prints the Prometheus exposition.
    let metrics = rde().args(["call", &guard.addr, "metrics"]).output().expect("spawn rde call");
    assert_eq!(metrics.status.code(), Some(0));
    let exposition = String::from_utf8_lossy(&metrics.stdout);
    rde_obs::expo::validate(exposition.trim_end()).expect("exposition validates");
    assert!(
        exposition.contains("serve_requests{mapping=\"split\",op=\"CHASE\"}"),
        "labeled request series scraped:\n{exposition}"
    );

    // One `rde top` refresh renders the per-mapping table.
    let top =
        rde().args(["top", &guard.addr, "--iterations", "1"]).output().expect("spawn rde top");
    assert_eq!(top.status.code(), Some(0), "{}", String::from_utf8_lossy(&top.stderr));
    let table = String::from_utf8_lossy(&top.stdout);
    assert!(table.contains("rde top — uptime"), "header:\n{table}");
    assert!(table.contains("MAPPING"), "column row:\n{table}");
    assert!(
        table.lines().any(|l| l.starts_with("split")),
        "a live per-mapping row for `split`:\n{table}"
    );

    assert_eq!(guard.interrupt_and_wait(), Some(0), "clean drain on SIGINT");

    if cfg!(feature = "trace") {
        // The access log holds one valid JSONL access line per request
        // plus the replayed span trees (threshold 0 keeps them all).
        let text = std::fs::read_to_string(&log).expect("access log written");
        let mut chase_req = None;
        for line in text.lines() {
            let record = rde_obs::Record::parse_json_line(line).expect("valid access-log line");
            if record.name == "serve.access" {
                assert_ne!(record.req(), 0, "access lines are request-stamped: {line}");
                for key in ["op", "mapping", "outcome", "us"] {
                    assert!(record.field(key).is_some(), "missing {key}: {line}");
                }
            }
            if record.kind == "span_open" && record.name == "serve.request" {
                chase_req.get_or_insert(record.req());
            }
        }
        let req = chase_req.expect("a replayed span tree in the access log");

        // `rde profile <log> --request-id N` filters to that request.
        let profile = rde()
            .args(["profile", log.to_str().unwrap(), "--request-id", &req.to_string()])
            .output()
            .expect("spawn rde profile");
        assert_eq!(profile.status.code(), Some(0), "{}", String::from_utf8_lossy(&profile.stderr));
        let report = String::from_utf8_lossy(&profile.stdout);
        assert!(report.contains(&format!("# request {req}:")), "{report}");
        assert!(report.contains("serve.request"), "root span in the tree:\n{report}");

        // An unknown id is a clean error naming the ids that do exist.
        let missing = rde()
            .args(["profile", log.to_str().unwrap(), "--request-id", "999999"])
            .output()
            .expect("spawn rde profile");
        assert_eq!(missing.status.code(), Some(1));
        let err = String::from_utf8_lossy(&missing.stderr);
        assert!(err.contains("request id 999999 not found"), "{err}");
        assert!(err.contains("request id(s) present"), "{err}");
    } else {
        // Journal compiled out: the access-log flag is accepted but
        // writes nothing.
        assert!(
            !log.exists() || std::fs::read_to_string(&log).unwrap().is_empty(),
            "no-trace builds must not write access-log records"
        );
    }
}

#[test]
fn retry_and_time_budget_flags_run_end_to_end() {
    // A starved node budget answers UNKNOWN; --retries escalates it
    // until the check settles.
    let output = rde()
        .args(["invertible", &example("two_step.map")])
        .args(["--consts", "1", "--nulls", "0", "--facts", "1"])
        .args(["--node-budget", "1", "--retries", "8", "--stats"])
        .output()
        .expect("spawn rde");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("# retried with escalated budgets"), "{stdout}");
    assert!(!stdout.contains("UNKNOWN"), "escalation should settle the verdict:\n{stdout}");
    // A generous time budget changes nothing on a tiny scenario.
    let output = rde()
        .args(["invertible", &example("two_step.map")])
        .args(["--consts", "1", "--nulls", "0", "--facts", "1", "--time-budget-ms", "10000"])
        .output()
        .expect("spawn rde");
    assert!(output.status.success());
    assert!(!String::from_utf8_lossy(&output.stdout).contains("UNKNOWN"));
}

/// `rde core --stats` reports the chase like `rde chase --stats`, and
/// its hom line also counts the minimization's fold tests.
#[test]
fn core_stats_report_the_chase_and_the_minimization() {
    let map = tmp("core.map");
    let inst = tmp("core.inst");
    std::fs::write(&map, "source: P/1\ntarget: R/2\nP(x) -> exists y . R(x, y)\nP(x) -> R(x, x)\n")
        .unwrap();
    std::fs::write(&inst, "P(a)\nP(b)\n").unwrap();
    let (map_s, inst_s) = (map.to_string_lossy(), inst.to_string_lossy());
    let run = |cmd: &str| {
        let output = rde().args([cmd, &map_s, &inst_s, "--stats"]).output().expect("spawn rde");
        assert!(output.status.success(), "{cmd}: {}", String::from_utf8_lossy(&output.stderr));
        String::from_utf8(output.stdout).unwrap()
    };
    let (chase, core) = (run("chase"), run("core"));
    let line = |out: &str, prefix: &str| -> String {
        out.lines().find(|l| l.starts_with(prefix)).unwrap_or_else(|| panic!("{out}")).to_owned()
    };
    let nodes = |out: &str| -> u64 {
        let l = line(out, "# hom search: ");
        l["# hom search: ".len()..].split(' ').next().unwrap().parse().unwrap()
    };
    assert_eq!(line(&core, "# chase: "), line(&chase, "# chase: "), "{core}");
    assert!(nodes(&core) > nodes(&chase), "minimization searched too:\n{chase}\n{core}");
    let facts: Vec<&str> = core.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(facts, ["R(a, a)", "R(b, b)"], "{core}");
    let _ = std::fs::remove_file(&map);
    let _ = std::fs::remove_file(&inst);
}

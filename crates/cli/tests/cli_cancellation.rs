//! End-to-end cancellation checks against the real `rde` binary.
//!
//! `--deadline-ms 0` is an already-expired deadline: every cancellable
//! command must notice it at its first round/search boundary and exit
//! with the dedicated cancellation status (3) — distinct from both
//! success (0) and ordinary failure (1) — without printing a partial
//! answer as if it were complete.

use std::path::PathBuf;
use std::process::Command;

fn rde() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rde"))
}

fn example(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/data").join(name);
    path.to_string_lossy().into_owned()
}

const EXIT_CANCELLED: i32 = 3;

#[test]
fn expired_deadline_cancels_the_chase_with_status_3() {
    let output = rde()
        .args(["chase", &example("two_step.map"), &example("flights.inst")])
        .args(["--deadline-ms", "0"])
        .output()
        .expect("spawn rde");
    assert_eq!(output.status.code(), Some(EXIT_CANCELLED), "status: {:?}", output.status);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("cancelled"), "stderr should say why: {stderr}");

    // Control: the same command without a deadline succeeds.
    let status = rde()
        .args(["chase", &example("two_step.map"), &example("flights.inst")])
        .status()
        .expect("spawn rde");
    assert_eq!(status.code(), Some(0));
}

#[test]
fn expired_deadline_cancels_the_checkers_and_the_census() {
    let bound = ["--consts", "1", "--nulls", "0", "--facts", "1"];
    for cmd in [
        vec!["invertible", &example("two_step.map")[..]],
        vec!["loss", &example("two_step.map")],
        vec!["core", &example("two_step.map"), &example("flights.inst")],
    ] {
        let output =
            rde().args(&cmd).args(bound).args(["--deadline-ms", "0"]).output().expect("spawn rde");
        assert_eq!(
            output.status.code(),
            Some(EXIT_CANCELLED),
            "`{}` should cancel, got {:?}\nstdout: {}\nstderr: {}",
            cmd.join(" "),
            output.status,
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr),
        );
    }
}

#[test]
fn expired_deadline_cancels_the_recovery_construction() {
    let output = rde()
        .args(["invert", &example("decomposition.map"), "--deadline-ms", "0"])
        .output()
        .expect("spawn rde");
    assert_eq!(output.status.code(), Some(EXIT_CANCELLED), "status: {:?}", output.status);
    assert!(output.stdout.is_empty(), "no partial recovery: {:?}", output.stdout);

    // Control: without a deadline the recovery is printed.
    let output = rde().args(["invert", &example("decomposition.map")]).output().expect("spawn rde");
    assert_eq!(output.status.code(), Some(0), "{:?}", output.status);
    assert!(String::from_utf8_lossy(&output.stdout).contains("->"));
}

/// The checker budget contract on stdout: under an expired deadline no
/// checker prints a verdict line (only `#` comments) before exiting 3,
/// and under a zero node budget every line it prints is UNKNOWN.
#[test]
fn checkers_print_no_verdict_they_did_not_reach() {
    let (dec, dec_rev) = (example("decomposition.map"), example("decomposition_reverse.map"));
    let matrix = [
        vec!["faithful", &dec, &dec_rev],
        vec!["check-chase-inverse", &example("two_step.map"), &example("two_step_inverse.map")],
        vec!["check-recovery", &dec, &dec_rev],
        vec!["invertible", &dec],
        vec!["loss", &dec],
        vec!["compare", &example("union.map"), &example("union.map")],
        vec!["hom", &example("flights.inst"), &example("flights.inst")],
    ]
    .map(|cmd| cmd.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let bound = ["--consts", "1", "--nulls", "1", "--facts", "1"];
    for cmd in &matrix {
        let output =
            rde().args(cmd).args(bound).args(["--deadline-ms", "0"]).output().expect("spawn rde");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert_eq!(output.status.code(), Some(EXIT_CANCELLED), "{}: {stdout}", cmd.join(" "));
        assert!(stdout.lines().all(|l| l.starts_with('#')), "{}: {stdout}", cmd.join(" "));

        let output =
            rde().args(cmd).args(bound).args(["--node-budget", "0"]).output().expect("spawn rde");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert_eq!(output.status.code(), Some(0), "{}: {stdout}", cmd.join(" "));
        let verdicts: Vec<&str> = stdout.lines().filter(|l| !l.starts_with('#')).collect();
        assert!(!verdicts.is_empty(), "{}: no answer at all", cmd.join(" "));
        assert!(verdicts.iter().all(|l| l.contains("UNKNOWN")), "{}: {stdout}", cmd.join(" "));
    }
}

#[test]
fn generous_deadline_does_not_disturb_a_fast_run() {
    let output = rde()
        .args(["chase", &example("two_step.map"), &example("flights.inst")])
        .args(["--deadline-ms", "60000"])
        .output()
        .expect("spawn rde");
    assert_eq!(output.status.code(), Some(0), "{:?}", output.status);
    assert!(!String::from_utf8_lossy(&output.stdout).is_empty());
}

#[test]
fn ordinary_failure_keeps_exit_status_1() {
    let status =
        rde().args(["chase", "/nonexistent.map", "/nonexistent.inst"]).status().expect("spawn rde");
    assert_eq!(status.code(), Some(1), "errors must stay distinct from cancellation");
}

#[test]
fn reverse_and_certain_honour_budgets_and_deadlines() {
    // The union mapping, its disjunctive recovery, and I = {A(a), B(b)}.
    let dir = std::env::temp_dir().join(format!("rde-cli-reverse-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.to_string_lossy().into_owned()
    };
    let map = write("union.map", "source: A/1, B/1\ntarget: R/1\nA(x) -> R(x)\nB(x) -> R(x)\n");
    let rev = write("union.rev", "source: R/1\ntarget: A/1, B/1\nR(x) -> A(x) | B(x)\n");
    let inst = write("i.inst", "A(a)\nB(b)\n");

    // Control: unbudgeted, the reverse chase branches into 4 leaves.
    let output = rde().args(["reverse", &map, &rev, &inst]).output().expect("spawn rde");
    assert_eq!(output.status.code(), Some(0), "{:?}", output.status);
    assert!(String::from_utf8_lossy(&output.stdout).starts_with("# 4 leaf instance(s)"));

    // A starved node budget is an error, not a leaf set.
    let output = rde()
        .args(["reverse", &map, &rev, &inst, "--node-budget", "0"])
        .output()
        .expect("spawn rde");
    assert_eq!(output.status.code(), Some(1), "{:?}", output.status);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("node budget of 0 exhausted"), "stderr: {stderr}");

    // An expired deadline is a cancellation, not an empty answer set.
    let output = rde()
        .args(["certain", &map, &rev, &inst, "q(x) :- A(x)", "--deadline-ms", "0"])
        .output()
        .expect("spawn rde");
    assert_eq!(output.status.code(), Some(EXIT_CANCELLED), "{:?}", output.status);
    assert!(output.stdout.is_empty(), "no partial answer: {:?}", output.stdout);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// `rde serve` / `rde call` exit-code audit: a SHED or UNKNOWN reply is a
// retryable server decision (4), the client's own elapsed deadline is a
// cancellation (3), and only genuinely wrong input or a dead server is an
// ordinary failure (1).

const EXIT_SHED: i32 = 4;

/// Write a two-mapping catalog directory plus an instance file for it.
fn serve_catalog(tag: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("rde-cli-serve-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("split.map"),
        "source: P/3\ntarget: Q/2, R/2\nP(x,y,z) -> Q(x,y) & R(y,z)\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("merge.map"),
        "source: A/1, B/1\ntarget: T/1\nA(x) -> T(x)\nB(x) -> T(x)\n",
    )
    .unwrap();
    let inst = dir.join("i.inst");
    std::fs::write(&inst, "P(a, b, c)\n").unwrap();
    (dir.clone(), inst.to_string_lossy().into_owned())
}

/// A running `rde serve` subprocess; killed (and its catalog removed)
/// on drop so a failing assertion cannot leak a daemon.
struct ServeGuard {
    child: std::process::Child,
    addr: String,
    dir: PathBuf,
}

impl ServeGuard {
    /// Spawn `rde serve --addr 127.0.0.1:0 <dir> [extra…]` and wait for
    /// the `listening on …` readiness line to learn the picked port.
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

    /// Deliver SIGINT (what Ctrl-C sends) and wait for the exit status.
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
fn serve_answers_calls_bit_identically_and_drains_on_sigint() {
    let (dir, inst) = serve_catalog("roundtrip");
    let map = dir.join("split.map").to_string_lossy().into_owned();
    let mut guard = ServeGuard::spawn(dir.clone(), &[]);

    let ping = rde().args(["call", &guard.addr, "ping"]).output().expect("spawn rde call");
    assert_eq!(ping.status.code(), Some(0), "{:?}", ping.status);
    assert_eq!(String::from_utf8_lossy(&ping.stdout), "pong\n");

    // The daemon's CHASE answer is bit-identical to the single-shot CLI.
    let served = rde()
        .args(["call", &guard.addr, "chase", "split", &inst])
        .output()
        .expect("spawn rde call chase");
    assert_eq!(served.status.code(), Some(0), "{:?}", served.status);
    let direct = rde().args(["chase", &map, &inst]).output().expect("spawn rde chase");
    assert_eq!(direct.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&served.stdout),
        String::from_utf8_lossy(&direct.stdout),
        "served answers must match a cold single-shot run byte for byte"
    );

    // A wrong mapping name is an ERR reply: plain failure, exit 1.
    let missing =
        rde().args(["call", &guard.addr, "chase", "nope", &inst]).output().expect("spawn rde call");
    assert_eq!(missing.status.code(), Some(1), "ERR replies are ordinary failures");

    // Ctrl-C drains and exits 0 — a clean shutdown is not an error.
    assert_eq!(guard.interrupt_and_wait(), Some(0), "SIGINT must shut the daemon down cleanly");
}

#[test]
fn shed_and_unknown_replies_exit_4_not_1() {
    // A zero ceiling sheds every request: retryable, so exit 4.
    let (dir, _) = serve_catalog("shed");
    let guard = ServeGuard::spawn(dir, &["--max-inflight", "0"]);
    let output = rde().args(["call", &guard.addr, "ping"]).output().expect("spawn rde call");
    assert_eq!(output.status.code(), Some(EXIT_SHED), "{:?}", output.status);
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("shed"),
        "stderr should say the server shed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    drop(guard);

    let (dir, _) = serve_catalog("unknown");
    let guard = ServeGuard::spawn(dir, &[]);
    // A starved node budget makes the check answer UNKNOWN: also 4.
    let output = rde()
        .args(["call", &guard.addr, "invertible", "merge", "--node-budget", "0"])
        .output()
        .expect("spawn rde call");
    assert_eq!(output.status.code(), Some(EXIT_SHED), "{:?}", output.status);
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("unknown"),
        "stderr should say the verdict was unknown: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    // An already-elapsed *server-side* deadline is the server's SHED.
    let output = rde()
        .args(["call", &guard.addr, "invertible", "merge", "--server-deadline-ms", "0"])
        .output()
        .expect("spawn rde call");
    assert_eq!(output.status.code(), Some(EXIT_SHED), "{:?}", output.status);
    // The same request without the handicap succeeds on a fresh call.
    let output =
        rde().args(["call", &guard.addr, "invertible", "merge"]).output().expect("spawn rde call");
    assert_eq!(output.status.code(), Some(0), "{:?}", output.status);
}

#[test]
fn client_deadline_and_dead_servers_stay_distinct() {
    // A listener that never replies: the client's own --deadline-ms is
    // the only thing that can end the call, and that is a cancellation
    // (3), not a failure and not a shed.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let output = rde()
        .args(["call", &addr, "ping", "--deadline-ms", "50"])
        .output()
        .expect("spawn rde call");
    assert_eq!(output.status.code(), Some(EXIT_CANCELLED), "{:?}", output.status);
    drop(listener);

    // Nobody listening at all: a connection failure is an ordinary 1.
    let status = rde().args(["call", &addr, "ping"]).status().expect("spawn rde call");
    assert_eq!(status.code(), Some(1), "{status:?}");
}

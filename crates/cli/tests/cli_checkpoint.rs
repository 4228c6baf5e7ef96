//! End-to-end checkpoint/resume checks against the real `rde` binary.
//!
//! `--checkpoint PATH --checkpoint-every N` makes the chase commands
//! write an atomic, resumable snapshot of the engine's round state;
//! `--resume PATH` restarts from one. The contract under test is the
//! strong one the engine pins internally: a run that is killed
//! mid-chase (SIGKILL — no cleanup, no cooperative anything) and then
//! resumed from its snapshot prints a final instance **bit-identical**
//! to an uninterrupted run's.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

fn rde() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rde"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rde-ckpt-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A transitive-closure mapping over a long chain: a genuinely
/// multi-round chase (the closure doubles reach per semi-naive round),
/// so there are many round boundaries to checkpoint at and real work
/// left after any given one.
fn write_workload(dir: &Path, chain: usize) -> (String, String) {
    let map = dir.join("tc.map");
    std::fs::write(
        &map,
        "source: E/2, T/2\ntarget: T/2\nE(x,y) -> T(x,y)\nT(x,y) & T(y,z) -> T(x,z)\n",
    )
    .unwrap();
    let inst = dir.join("tc.inst");
    let mut f = std::fs::File::create(&inst).unwrap();
    for i in 0..chain {
        writeln!(f, "E(c{i},c{})", i + 1).unwrap();
    }
    (map.to_string_lossy().into_owned(), inst.to_string_lossy().into_owned())
}

#[test]
fn resume_after_clean_checkpointed_run_is_bit_identical() {
    let dir = tmpdir("clean");
    let (map, inst) = write_workload(&dir, 24);
    let ck = dir.join("clean.snap");
    let ck_str = ck.to_string_lossy().into_owned();

    let reference = rde().args(["chase", &map, &inst]).output().expect("spawn rde");
    assert_eq!(reference.status.code(), Some(0));

    let checkpointed = rde()
        .args(["chase", &map, &inst, "--checkpoint", &ck_str, "--checkpoint-every", "1"])
        .output()
        .expect("spawn rde");
    assert_eq!(checkpointed.status.code(), Some(0));
    assert_eq!(
        checkpointed.stdout, reference.stdout,
        "writing checkpoints must not change the result"
    );
    assert!(ck.exists(), "a multi-round chase with --checkpoint-every 1 must leave a snapshot");

    let resumed =
        rde().args(["chase", &map, &inst, "--resume", &ck_str]).output().expect("spawn rde");
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(resumed.stdout, reference.stdout, "resumed run must be bit-identical");
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill -9 mid-chase, resume from the snapshot the victim left behind,
/// and compare against an uninterrupted run byte for byte. Race-free by
/// construction: snapshots are written atomically (tmp + rename), so
/// whenever the kill lands — mid-round, between rounds, or after the
/// run already finished — the snapshot on disk is a complete round
/// state and resuming from it replays to the same fixpoint.
#[test]
fn killed_run_resumes_bit_identical_to_an_uninterrupted_one() {
    let dir = tmpdir("kill");
    // Big enough that rounds take a while (the closure of a 96-chain is
    // ~4.6k facts with tens of thousands of premise matches per round).
    let (map, inst) = write_workload(&dir, 96);
    let ck = dir.join("kill.snap");
    let ck_str = ck.to_string_lossy().into_owned();

    let reference = rde().args(["chase", &map, &inst]).output().expect("spawn rde");
    assert_eq!(reference.status.code(), Some(0));

    let mut victim = rde()
        .args(["chase", &map, &inst, "--checkpoint", &ck_str, "--checkpoint-every", "1"])
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn rde");
    // Wait for the first complete snapshot, then kill without mercy.
    let deadline = Instant::now() + Duration::from_secs(60);
    while !ck.exists() {
        assert!(Instant::now() < deadline, "no checkpoint appeared within 60s");
        if victim.try_wait().expect("poll victim").is_some() {
            break; // Finished before we could kill it; resume still must agree.
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    victim.kill().ok();
    victim.wait().expect("reap victim");
    assert!(ck.exists(), "the victim must have left a snapshot behind");

    let resumed =
        rde().args(["chase", &map, &inst, "--resume", &ck_str]).output().expect("spawn rde");
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        resumed.stdout, reference.stdout,
        "kill-and-resume must land on the uninterrupted run's bytes"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The same no-mercy contract under `--variant restricted`: the
/// restricted chase consults the live instance before every firing,
/// so its round state is genuinely different from the oblivious one —
/// and a SIGKILLed restricted run resumed from its snapshot must still
/// land byte-identical on an uninterrupted restricted run.
#[test]
fn killed_restricted_run_resumes_bit_identical() {
    let dir = tmpdir("kill-restricted");
    let (map, inst) = write_workload(&dir, 96);
    let ck = dir.join("kill-restricted.snap");
    let ck_str = ck.to_string_lossy().into_owned();

    let reference =
        rde().args(["chase", &map, &inst, "--variant", "restricted"]).output().expect("spawn rde");
    assert_eq!(reference.status.code(), Some(0));

    let mut victim = rde()
        .args([
            "chase",
            &map,
            &inst,
            "--variant",
            "restricted",
            "--checkpoint",
            &ck_str,
            "--checkpoint-every",
            "1",
        ])
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn rde");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !ck.exists() {
        assert!(Instant::now() < deadline, "no checkpoint appeared within 60s");
        if victim.try_wait().expect("poll victim").is_some() {
            break; // Finished before we could kill it; resume still must agree.
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    victim.kill().ok();
    victim.wait().expect("reap victim");
    assert!(ck.exists(), "the victim must have left a snapshot behind");

    let resumed = rde()
        .args(["chase", &map, &inst, "--variant", "restricted", "--resume", &ck_str])
        .output()
        .expect("spawn rde");
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        resumed.stdout, reference.stdout,
        "restricted kill-and-resume must land on the uninterrupted run's bytes"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A malformed snapshot is an ordinary, clearly-worded error — not a
/// panic, not silent recomputation.
#[test]
fn corrupt_snapshot_is_a_clean_error() {
    let dir = tmpdir("corrupt");
    let (map, inst) = write_workload(&dir, 8);
    let ck = dir.join("bad.snap");
    std::fs::write(&ck, "rde-chase-checkpoint v999\ngarbage\n").unwrap();
    let output = rde()
        .args(["chase", &map, &inst, "--resume", &ck.to_string_lossy()])
        .output()
        .expect("spawn rde");
    assert_eq!(output.status.code(), Some(1), "corrupt snapshot is an ordinary failure");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("checkpoint"), "error should mention the checkpoint: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

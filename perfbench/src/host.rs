//! Host speed and memory. The host is a VM whose neighbours share its
//! caches and memory bandwidth, so the same op can take half again as
//! long in a process started minutes later. A fixed CPU-plus-hash-map
//! kernel over a table larger than the caches, timed in a child process
//! while every op thread (and the daemon they drive) is paused, shows
//! how fast the host is; the run's times are divided by the slowdown it
//! measured next to them.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// The probe's time on the reference host (2 CPUs, no contention), ms.
/// Times are reported at this host speed: a stretch whose probes read
/// twice this has its times halved. It is a fixed constant, so it sets
/// the units and nothing else.
pub const PROBE_REFERENCE_MS: f64 = 15.0;

/// How often the op threads pause to probe the host.
pub const PROBE_EVERY: Duration = Duration::from_millis(500);

/// Timed passes in one probe; the probe reads their median.
const PROBE_REPS: usize = 3;

/// The argument that makes the benchmark executable run [`probe_main`].
pub const PROBE_FLAG: &str = "--probe";

/// Keys in the probe's hash map: with its 2^20 slots the table spans
/// about 17 MB, beyond the caches, like the chase's indexes do, so its
/// speed follows the memory contention the chase feels.
const PROBE_KEYS: u64 = 700_000;

/// Random read-modify-writes in one timed probe pass.
const PROBE_UPDATES: u64 = 200_000;

/// A run of LCG steps feeding `updates` read-modify-writes into `map`
/// at keys below `keys`, ms. The work is identical in every process,
/// so a change in its time is a change in the host, not the program.
fn hash_map_pass(map: &mut HashMap<u64, u64>, keys: u64, updates: u64) -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..updates {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        *map.entry((x >> 17) % keys).or_insert(0) += i;
    }
    std::hint::black_box(&*map);
    started.elapsed().as_secs_f64() * 1e3
}

/// `perfbench --probe`: build the probe's map (untimed), then for each
/// line read from standard input print the median of [`PROBE_REPS`]
/// timed passes, ms, until standard input closes.
pub fn probe_main() {
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(1 << 20);
    map.extend((0..PROBE_KEYS).map(|k| (k, k)));
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        if line.is_err() {
            return;
        }
        let passes: Vec<f64> =
            (0..PROBE_REPS).map(|_| hash_map_pass(&mut map, PROBE_KEYS, PROBE_UPDATES)).collect();
        if writeln!(out, "{}", crate::stats::median(&passes)).and_then(|()| out.flush()).is_err() {
            return;
        }
    }
}

/// Fixed work the self-check adds to an op: 200 000 updates into a
/// fresh 50 000-key map, about 5 ms on the reference host.
pub fn spike() {
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(1 << 16);
    hash_map_pass(&mut map, 50_000, 200_000);
}

/// The probe's child process, started on first use: it shares no heap
/// with the program, and keeps its map between probes.
struct Prober {
    child: Child,
    requests: ChildStdin,
    replies: BufReader<ChildStdout>,
}

static PROBER: Mutex<Option<Prober>> = Mutex::new(None);

fn start_prober() -> Result<Prober, String> {
    let exe = std::env::current_exe().map_err(|e| format!("probe: {e}"))?;
    let mut child = Command::new(exe)
        .arg(PROBE_FLAG)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("probe: {e}"))?;
    let requests = child.stdin.take().ok_or("probe has no stdin")?;
    let replies = BufReader::new(child.stdout.take().ok_or("probe has no stdout")?);
    Ok(Prober { child, requests, replies })
}

/// Time the probe in its child process: the median of its passes, ms.
pub fn probe() -> Result<f64, String> {
    let mut guard = PROBER.lock().unwrap_or_else(|e| e.into_inner());
    if guard.is_none() {
        *guard = Some(start_prober()?);
    }
    let prober = guard.as_mut().ok_or("probe not started")?;
    writeln!(prober.requests, "probe").map_err(|e| format!("probe: {e}"))?;
    let mut reply = String::new();
    prober.replies.read_line(&mut reply).map_err(|e| format!("probe: {e}"))?;
    reply.trim().parse::<f64>().map_err(|e| format!("probe reply {reply:?}: {e}"))
}

/// Close the probe's child process and wait for it to end.
pub fn stop_probe() {
    let prober = PROBER.lock().unwrap_or_else(|e| e.into_inner()).take();
    if let Some(Prober { mut child, requests, replies }) = prober {
        drop(requests);
        drop(replies);
        let _ = child.wait();
    }
}

/// The probe schedule shared by the threads that run ops: probe `k` is
/// due [`PROBE_EVERY`] × `k` after the timed phase starts. Every thread
/// waits at a barrier for it, so no op runs while it is taken.
pub struct ProbeClock {
    barrier: Barrier,
    epoch: Instant,
    /// Probes in the run; each thread takes part in every one.
    count: usize,
    /// Probe timings, ms.
    samples: Mutex<Vec<f64>>,
    /// The first probe that failed.
    error: Mutex<Option<String>>,
}

impl ProbeClock {
    /// A schedule for `threads` op threads, starting now. With one
    /// thread the schedule is open-ended; with more, it holds the
    /// probes due before `until`, and every thread must call
    /// [`Pacer::finish`] after its last op.
    pub fn new(threads: usize, until: Option<Duration>) -> ProbeClock {
        let count =
            until.map_or(usize::MAX, |d| d.as_nanos().div_ceil(PROBE_EVERY.as_nanos()) as usize);
        ProbeClock {
            barrier: Barrier::new(threads),
            epoch: Instant::now(),
            count,
            samples: Mutex::new(Vec::new()),
            error: Mutex::new(None),
        }
    }

    fn due(&self, k: usize) -> Instant {
        self.epoch + PROBE_EVERY.mul_f64(k as f64)
    }

    /// Probe timings taken so far, ms, and the first probe error.
    pub fn into_samples(self) -> (Vec<f64>, Option<String>) {
        let samples = self.samples.into_inner().unwrap_or_else(|e| e.into_inner());
        let error = self.error.into_inner().unwrap_or_else(|e| e.into_inner());
        (samples, error)
    }
}

/// One op thread's view of a [`ProbeClock`]: the slowdown its ops are
/// divided by, and its op time at reference host speed.
pub struct Pacer<'a> {
    clock: &'a ProbeClock,
    next: usize,
    slowdown: f64,
    /// Op time charged with [`Pacer::charge`], each stretch divided by
    /// the slowdown in force, s.
    pub scaled_busy_s: f64,
}

impl<'a> Pacer<'a> {
    pub fn new(clock: &'a ProbeClock) -> Pacer<'a> {
        Pacer { clock, next: 0, slowdown: 1.0, scaled_busy_s: 0.0 }
    }

    /// The host's slowdown against [`PROBE_REFERENCE_MS`]: the median of
    /// the last three probes (1 before the first).
    pub fn slowdown(&self) -> f64 {
        self.slowdown
    }

    /// Count `busy` (one op) at reference host speed.
    pub fn charge(&mut self, busy: Duration) {
        self.scaled_busy_s += busy.as_secs_f64() / self.slowdown;
    }

    /// Take part in every probe that is due.
    pub fn tick(&mut self) {
        while self.next < self.clock.count && Instant::now() >= self.clock.due(self.next) {
            self.take();
        }
    }

    /// Take part in the probes still left in a bounded schedule, so
    /// that every thread passes the barrier equally often.
    pub fn finish(&mut self) {
        while self.next < self.clock.count {
            self.take();
        }
    }

    fn take(&mut self) {
        if self.clock.barrier.wait().is_leader() {
            match probe() {
                Ok(ms) => self.clock.samples.lock().unwrap_or_else(|e| e.into_inner()).push(ms),
                Err(e) => {
                    self.clock.error.lock().unwrap_or_else(|e| e.into_inner()).get_or_insert(e);
                }
            }
        }
        self.clock.barrier.wait();
        let samples = self.clock.samples.lock().unwrap_or_else(|e| e.into_inner());
        let recent = &samples[samples.len().saturating_sub(3)..];
        if !recent.is_empty() {
            self.slowdown = crate::stats::median(recent) / PROBE_REFERENCE_MS;
        }
        drop(samples);
        self.next += 1;
    }
}

/// Peak resident set size (`VmHWM`), MiB. 0 if `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

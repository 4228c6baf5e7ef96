//! Deterministic, seeded fault injection: configs, reports, and the
//! decision function behind [`FaultInjector`](crate::FaultInjector).
//!
//! Engines mark their failure paths with named *injection points*,
//! consulting the injector of the [`ExecContext`](crate::ExecContext)
//! they were handed:
//!
//! ```ignore
//! if options.hom.ctx.should_inject("chase.round") {
//!     return Err(ChaseError::Cancelled);
//! }
//! ```
//!
//! Without the `fault-inject` feature, `should_inject` is an
//! `#[inline(always)]` constant `false` and the branch is compiled
//! out. With the feature, a test builds a `FaultInjector` from a
//! [`FaultConfig`] whose seed deterministically decides, per point and
//! per hit, whether the fault fires. The decision is a pure function
//! of `(seed, point name, hit index)`, so a failing seed replays
//! exactly.
//!
//! Campaigns are **scoped to the context that carries them** — two
//! contexts on concurrent threads inject and count independently, and
//! dropping a context drops its campaign. (An earlier revision kept
//! one process-global campaign behind install/uninstall calls; the
//! scoped model replaced it so that a multi-tenant server can aim a
//! campaign at one request.)

/// Configuration for one fault-injection campaign.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed mixed into every injection decision.
    pub seed: u64,
    /// Injection probability numerator: a point fires when the mixed
    /// hash modulo `den` is below `num`.
    pub num: u64,
    /// Injection probability denominator (must be nonzero).
    pub den: u64,
    /// When set, only points whose name starts with this prefix are
    /// eligible; all others never fire (but still count hits).
    pub prefix: Option<&'static str>,
}

impl FaultConfig {
    /// A campaign that fires every eligible hit of points matching
    /// `prefix`.
    pub fn always(seed: u64, prefix: &'static str) -> Self {
        FaultConfig { seed, num: 1, den: 1, prefix: Some(prefix) }
    }

    /// A campaign that fires roughly `num`/`den` of eligible hits.
    pub fn ratio(seed: u64, num: u64, den: u64, prefix: Option<&'static str>) -> Self {
        assert!(den > 0, "fault ratio denominator must be nonzero");
        FaultConfig { seed, num, den, prefix }
    }

    /// A campaign that never fires but still counts every hit — useful
    /// for asserting that a sibling context's faults did not leak in.
    pub fn counting(seed: u64) -> Self {
        FaultConfig { seed, num: 0, den: 1, prefix: None }
    }
}

/// Summary of an injection campaign, from
/// [`FaultInjector::report`](crate::FaultInjector::report).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Per injection point: (times evaluated, times fired), sorted by
    /// point name.
    pub points: Vec<(&'static str, PointCount)>,
}

/// Hit/fire counters for one injection point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PointCount {
    /// Times the point was evaluated under this campaign.
    pub hits: u64,
    /// Times the point decided to inject.
    pub fired: u64,
}

impl FaultReport {
    /// Total number of injected faults across all points.
    pub fn total_fired(&self) -> u64 {
        self.points.iter().map(|(_, c)| c.fired).sum()
    }

    /// Total number of evaluations across all points.
    pub fn total_hits(&self) -> u64 {
        self.points.iter().map(|(_, c)| c.hits).sum()
    }

    /// Counters for a single point, if it was ever evaluated.
    pub fn point(&self, name: &str) -> Option<PointCount> {
        self.points.iter().find(|(n, _)| *n == name).map(|(_, c)| *c)
    }
}

/// Declare an injection point that returns an error when it fires.
///
/// `fault_point!(ctx, "obs.journal.write", JournalError::Io)` expands
/// to an early `return Err(JournalError::Io)` when the point fires in
/// `ctx`'s campaign, and to nothing observable otherwise. The first
/// argument is anything with a `should_inject(&'static str) -> bool`
/// method: an [`ExecContext`](crate::ExecContext) or a bare
/// [`FaultInjector`](crate::FaultInjector).
#[macro_export]
macro_rules! fault_point {
    ($ctx:expr, $name:literal, $err:expr) => {
        if ($ctx).should_inject($name) {
            return Err($err);
        }
    };
}

/// The pure injection decision: does `(config.seed, name, hit)` fire
/// under `config`'s ratio? Prefix eligibility is the caller's job.
#[cfg(feature = "fault-inject")]
pub(crate) fn decide(config: &FaultConfig, name: &str, hit: u64) -> bool {
    let mixed = splitmix64(config.seed ^ fnv1a(name) ^ hit.wrapping_mul(0x9e37_79b9));
    mixed % config.den < config.num
}

#[cfg(feature = "fault-inject")]
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(feature = "fault-inject")]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Poison `mutex` by panicking while holding its guard, catching the
/// panic in this thread. The panic hook is silenced for the duration
/// so test output stays clean. No-op without the `fault-inject`
/// feature.
#[cfg(feature = "fault-inject")]
pub fn poison_mutex<T>(mutex: &std::sync::Mutex<T>) {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let _ = catch_unwind(AssertUnwindSafe(|| {
        let _guard = mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        panic!("injected poison");
    }));
    std::panic::set_hook(hook);
    debug_assert!(mutex.is_poisoned());
}

/// Poison `mutex` by panicking while holding its guard, catching the
/// panic in this thread. The panic hook is silenced for the duration
/// so test output stays clean. No-op without the `fault-inject`
/// feature.
#[cfg(not(feature = "fault-inject"))]
pub fn poison_mutex<T>(_mutex: &std::sync::Mutex<T>) {}

#[cfg(all(test, feature = "fault-inject"))]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn decide_is_pure_and_seed_sensitive() {
        let cfg = FaultConfig::ratio(42, 1, 3, None);
        let a: Vec<bool> = (0..64).map(|h| decide(&cfg, "x.y", h)).collect();
        let b: Vec<bool> = (0..64).map(|h| decide(&cfg, "x.y", h)).collect();
        assert_eq!(a, b);
        let other = FaultConfig::ratio(43, 1, 3, None);
        let c: Vec<bool> = (0..64).map(|h| decide(&other, "x.y", h)).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn counting_config_never_fires() {
        let cfg = FaultConfig::counting(9);
        assert!((0..256).all(|h| !decide(&cfg, "any.point", h)));
    }

    #[test]
    fn poison_mutex_poisons_without_unwinding() {
        let m = Mutex::new(3);
        poison_mutex(&m);
        assert!(m.is_poisoned());
        let v = *m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        assert_eq!(v, 3);
    }
}

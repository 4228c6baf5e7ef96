//! Scoped execution contexts.
//!
//! An [`ExecContext`] bundles everything one unit of work (a CLI
//! invocation, one request of a future multi-tenant server, one test
//! case) needs from the resilience layer:
//!
//! * a [`CancelToken`] — cancelling the context cancels every engine
//!   call threaded through it, and nothing else;
//! * a [`FaultInjector`] — a *scoped* injection campaign whose
//!   decisions and hit/fire counters belong to this context alone, so
//!   two contexts on concurrent threads never observe each other's
//!   faults;
//! * an observability scope label attached to the journal records the
//!   work emits, so one journal can be demultiplexed per context.
//!
//! A context carries no budgets. Every engine that runs a
//! homomorphism search takes its budgets and its context from one
//! `rde_hom::HomConfig`, so one value decides how far and under which
//! token and campaign the work runs.
//!
//! The default context is fully **inert**: no allocation, cancellation
//! polls are a pointer-sized `Option` check, and with the
//! `fault-inject` feature compiled out `should_inject` is an
//! `#[inline(always)]` constant `false`. Engines therefore thread a
//! context unconditionally; the zero-cost path of the old ambient
//! design is preserved, without the ambient state.

use crate::cancel::{CancelToken, Cancelled};
use crate::inject::{FaultConfig, FaultReport};

#[cfg(feature = "fault-inject")]
mod inner {
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    use crate::inject::{decide, FaultConfig, FaultReport, PointCount};

    /// Shared state of one injection campaign: the seeded config plus
    /// per-point hit/fire counters. Clones of a `FaultInjector` share
    /// this state, so a context's report covers every engine call the
    /// context (or a clone of it) was threaded through.
    #[derive(Debug)]
    pub(super) struct InjectorInner {
        pub(super) config: FaultConfig,
        pub(super) counts: Mutex<BTreeMap<&'static str, PointCount>>,
    }

    impl InjectorInner {
        pub(super) fn should_inject(&self, name: &'static str) -> bool {
            let mut counts = self.counts.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let count = counts.entry(name).or_default();
            let hit = count.hits;
            count.hits += 1;
            if let Some(prefix) = self.config.prefix {
                if !name.starts_with(prefix) {
                    return false;
                }
            }
            let fire = decide(&self.config, name, hit);
            if fire {
                count.fired += 1;
            }
            fire
        }

        pub(super) fn report(&self) -> FaultReport {
            let counts = self.counts.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            FaultReport { points: counts.iter().map(|(&n, &c)| (n, c)).collect() }
        }
    }
}

/// A scoped, seeded fault-injection campaign.
///
/// The default injector is inert (never fires, counts nothing). A live
/// injector is created from a [`FaultConfig`]; cloning shares the
/// campaign, so counters accumulate across every clone. Without the
/// `fault-inject` feature even [`FaultInjector::new`] yields an inert
/// injector and [`should_inject`](FaultInjector::should_inject)
/// compiles to constant `false`.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    #[cfg(feature = "fault-inject")]
    inner: Option<std::sync::Arc<inner::InjectorInner>>,
}

impl FaultInjector {
    /// An injector that never fires and counts nothing.
    pub fn inert() -> Self {
        FaultInjector::default()
    }

    /// A live campaign driven by `config` (inert without the
    /// `fault-inject` feature).
    #[cfg(feature = "fault-inject")]
    pub fn new(config: FaultConfig) -> Self {
        assert!(config.den > 0, "fault ratio denominator must be nonzero");
        FaultInjector {
            inner: Some(std::sync::Arc::new(inner::InjectorInner {
                config,
                counts: std::sync::Mutex::new(std::collections::BTreeMap::new()),
            })),
        }
    }

    /// A live campaign driven by `config` (inert without the
    /// `fault-inject` feature).
    #[cfg(not(feature = "fault-inject"))]
    pub fn new(_config: FaultConfig) -> Self {
        FaultInjector::default()
    }

    /// True if this injector can never fire.
    pub fn is_inert(&self) -> bool {
        #[cfg(feature = "fault-inject")]
        {
            self.inner.is_none()
        }
        #[cfg(not(feature = "fault-inject"))]
        {
            true
        }
    }

    /// Decide deterministically whether the named point injects a
    /// fault on this hit of this campaign. The decision is a pure
    /// function of `(seed, point name, hit index)`, so a failing seed
    /// replays exactly; hits and fires are counted per campaign.
    #[cfg(feature = "fault-inject")]
    pub fn should_inject(&self, name: &'static str) -> bool {
        match &self.inner {
            Some(inner) => inner.should_inject(name),
            None => false,
        }
    }

    /// Constant `false` without the `fault-inject` feature; the
    /// optimizer erases the call and the branch behind it.
    #[cfg(not(feature = "fault-inject"))]
    #[inline(always)]
    pub fn should_inject(&self, _name: &'static str) -> bool {
        false
    }

    /// Snapshot of this campaign's per-point hit/fire counters. Empty
    /// for an inert injector.
    pub fn report(&self) -> FaultReport {
        #[cfg(feature = "fault-inject")]
        {
            self.inner.as_ref().map(|i| i.report()).unwrap_or_default()
        }
        #[cfg(not(feature = "fault-inject"))]
        {
            FaultReport::default()
        }
    }
}

/// Everything one scoped unit of work carries through the engines.
///
/// `ExecContext::default()` is inert and free to clone; see the module
/// docs. Contexts are plain values — dropping one drops its token and
/// campaign with it, leaving no residue anywhere.
#[derive(Debug, Clone, Default)]
pub struct ExecContext {
    /// Cooperative cancellation for work under this context.
    pub cancel: CancelToken,
    /// Scoped fault injection for work under this context.
    pub injector: FaultInjector,
    /// Observability scope label: attached as a `scope` field to the
    /// journal spans the engines open for this context's work.
    pub scope: Option<std::sync::Arc<str>>,
}

impl ExecContext {
    /// A fully inert context (same as `default()`).
    pub fn new() -> Self {
        ExecContext::default()
    }

    /// A context with a live cancel token and nothing else.
    pub fn cancellable() -> Self {
        ExecContext { cancel: CancelToken::new(), ..ExecContext::default() }
    }

    /// Replace the cancel token.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Replace the fault injector.
    #[must_use]
    pub fn with_injector(mut self, injector: FaultInjector) -> Self {
        self.injector = injector;
        self
    }

    /// Set the observability scope label.
    #[must_use]
    pub fn with_scope(mut self, scope: impl Into<std::sync::Arc<str>>) -> Self {
        self.scope = Some(scope.into());
        self
    }

    /// Poll this context's cancel token.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// [`is_cancelled`](ExecContext::is_cancelled) as a `Result`, for
    /// `?`-style early returns.
    pub fn check(&self) -> Result<(), Cancelled> {
        self.cancel.check()
    }

    /// Delegate to this context's injector.
    #[inline]
    pub fn should_inject(&self, name: &'static str) -> bool {
        self.injector.should_inject(name)
    }

    /// Snapshot of this context's injection campaign counters.
    pub fn fault_report(&self) -> FaultReport {
        self.injector.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_context_is_inert() {
        let ctx = ExecContext::default();
        assert!(ctx.cancel.is_inert() && ctx.injector.is_inert());
        assert!(!ctx.is_cancelled());
        assert!(!ctx.should_inject("chase.round"));
        assert!(ctx.fault_report().points.is_empty());
    }

    #[test]
    fn cancelling_one_context_leaves_siblings_alone() {
        let a = ExecContext::cancellable();
        let b = ExecContext::cancellable();
        a.cancel.cancel();
        assert!(a.is_cancelled());
        assert!(!b.is_cancelled());
        assert_eq!(b.check(), Ok(()));
    }

    #[cfg(feature = "fault-inject")]
    mod injecting {
        use super::super::*;
        use crate::inject::PointCount;

        #[test]
        fn always_campaign_fires_matching_prefix_only() {
            let inj = FaultInjector::new(FaultConfig::always(7, "chase."));
            assert!(inj.should_inject("chase.round"));
            assert!(!inj.should_inject("hom.search.exhaust"));
            let report = inj.report();
            assert_eq!(report.point("chase.round"), Some(PointCount { hits: 1, fired: 1 }));
            assert_eq!(report.point("hom.search.exhaust"), Some(PointCount { hits: 1, fired: 0 }));
            assert_eq!(report.total_fired(), 1);
        }

        #[test]
        fn decisions_are_deterministic_per_seed_and_hit() {
            let run = |seed: u64| -> Vec<bool> {
                let inj = FaultInjector::new(FaultConfig::ratio(seed, 1, 3, None));
                (0..64).map(|_| inj.should_inject("obs.journal.write")).collect()
            };
            let a = run(42);
            let b = run(42);
            let c = run(43);
            assert_eq!(a, b, "same seed must replay identically");
            assert_ne!(a, c, "different seeds should differ over 64 hits");
            assert!(a.iter().any(|&d| d), "ratio 1/3 over 64 hits should fire");
            assert!(!a.iter().all(|&d| d), "ratio 1/3 should not always fire");
        }

        #[test]
        fn clones_share_one_campaign() {
            let inj = FaultInjector::new(FaultConfig::always(1, "t."));
            let clone = inj.clone();
            assert!(clone.should_inject("t.a"));
            assert!(inj.should_inject("t.a"));
            assert_eq!(inj.report().point("t.a"), Some(PointCount { hits: 2, fired: 2 }));
        }

        #[test]
        fn sibling_campaigns_count_independently() {
            let a = FaultInjector::new(FaultConfig::always(1, "t."));
            let b = FaultInjector::new(FaultConfig::ratio(1, 0, 1, None));
            assert!(a.should_inject("t.a"));
            assert!(!b.should_inject("t.a"));
            assert_eq!(a.report().total_fired(), 1);
            assert_eq!(b.report().total_fired(), 0);
            assert_eq!(b.report().point("t.a").map(|c| c.hits), Some(1));
        }

        #[test]
        fn fault_point_macro_returns_the_error() {
            fn guarded(ctx: &ExecContext) -> Result<u32, &'static str> {
                crate::fault_point!(ctx, "test.point", "injected");
                Ok(5)
            }
            let firing = ExecContext::default()
                .with_injector(FaultInjector::new(FaultConfig::always(1, "test.")));
            assert_eq!(guarded(&firing), Err("injected"));
            assert_eq!(guarded(&ExecContext::default()), Ok(5));
        }
    }
}

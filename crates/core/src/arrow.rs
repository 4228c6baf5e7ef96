//! The relations `→_M` (Definition 4.6 / Proposition 4.7) and `→_{M,g}`
//! (Definition 4.18).

use std::collections::VecDeque;
use std::sync::Mutex;

use rde_chase::{chase_mapping, ChaseOptions};
use rde_deps::SchemaMapping;
use rde_hom::{core_of_budgeted, exists_hom, exists_hom_budgeted, HomConfig, HomStats, Verdict};
use rde_model::fx::FxHashMap;
use rde_model::{Fact, Instance, NullId, Value, Vocabulary};

use crate::{chase_options, CoreError};

/// `I₁ →_M I₂` for a tgd-specified mapping: by Proposition 4.7 this is
/// `chase_M(I₁) → chase_M(I₂)` (equivalently, `eSol_M(I₂) ⊆
/// eSol_M(I₁)` — `I₂` exports at least as much information as `I₁`).
/// On ground instances this is also `→_{M,g}` (Definition 4.18).
///
/// Unbudgeted: the benchmark (`perfbench`) uses it as its reference
/// answer. The budgeted `→_M` is [`ArrowMCache::arrow`] and
/// [`ArrowMCache::arrow_classes`].
pub fn arrow_m(
    mapping: &SchemaMapping,
    i1: &Instance,
    i2: &Instance,
    vocab: &mut Vocabulary,
) -> Result<bool, CoreError> {
    let c1 = chase_mapping(i1, mapping, vocab, &ChaseOptions::default())?;
    let c2 = chase_mapping(i2, mapping, vocab, &ChaseOptions::default())?;
    Ok(exists_hom(&c1, &c2))
}

/// Work counters of an [`ArrowMCache`]: how far canonicalization
/// compressed the family, how often memoization answered a query, and
/// how much the eviction policy has had to discard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Instances in the family.
    pub instances: usize,
    /// Distinct hom-equivalence classes detected by core fingerprinting
    /// (an upper bound: isomorphic cores with different value labellings
    /// may land in separate classes).
    pub classes: usize,
    /// Arrow queries answered from the memo table.
    pub hits: u64,
    /// Arrow queries that ran a homomorphism search.
    pub misses: u64,
    /// Total homomorphism-search work (chase-time core minimization plus
    /// all memo misses).
    pub hom: HomStats,
    /// Interned instances resolved to an already-known class.
    pub intern_hits: u64,
    /// Interned instances that created a new class.
    pub intern_misses: u64,
    /// Memo entries discarded to stay under [`CachePolicy::max_memo`].
    pub memo_evictions: u64,
    /// Interned classes discarded to stay under
    /// [`CachePolicy::max_interned`].
    pub class_evictions: u64,
    /// Memoized verdicts currently resident.
    pub memo_entries: usize,
    /// Interned (non-family) classes currently resident.
    pub interned: usize,
}

/// Size bounds for an [`ArrowMCache`]. The default is unbounded — the
/// bounded checkers build a cache, sweep a fixed family quadratically,
/// and drop it, so nothing accumulates. A long-lived cache (the `rde
/// serve` daemon keeps one warm per mapping) must set both caps or
/// request churn grows the memo table and the interned-class store
/// without bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachePolicy {
    /// Maximum resident memoized verdicts; inserting past the cap
    /// evicts in insertion order (FIFO). `0` disables memoization.
    pub max_memo: usize,
    /// Maximum resident interned classes (family classes from
    /// construction are pinned and do not count); interning past the
    /// cap evicts the least-recently-used class together with every
    /// memo entry that mentions it.
    pub max_interned: usize,
}

impl Default for CachePolicy {
    fn default() -> Self {
        CachePolicy { max_memo: usize::MAX, max_interned: usize::MAX }
    }
}

impl CachePolicy {
    /// A policy with explicit caps on both stores.
    pub fn bounded(max_memo: usize, max_interned: usize) -> Self {
        CachePolicy { max_memo, max_interned }
    }
}

/// Opaque key of a hom-equivalence class known to an [`ArrowMCache`]:
/// either a pinned family class (from construction) or an interned
/// class added at query time. Obtained from [`ArrowMCache::intern`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassKey(u64);

/// A resolved class: the key plus its core representative. Holding the
/// representative keeps [`ArrowMCache::arrow_classes`] usable even if
/// churn evicts the class underneath the caller — the search then runs
/// on the handle's own copy and simply skips memoization.
#[derive(Debug, Clone)]
pub struct ClassHandle {
    key: ClassKey,
    rep: Instance,
}

impl ClassHandle {
    /// The class key.
    pub fn key(&self) -> ClassKey {
        self.key
    }

    /// The core representative of the class.
    pub fn rep(&self) -> &Instance {
        &self.rep
    }
}

/// Memo table with FIFO eviction: the map holds the verdicts, the
/// queue remembers insertion order. Entries removed early by a class
/// purge leave stale queue slots that are skipped when popped.
#[derive(Debug, Default)]
struct MemoTable {
    map: FxHashMap<(ClassKey, ClassKey), bool>,
    order: VecDeque<(ClassKey, ClassKey)>,
}

/// The query-time class store: fingerprint-deduplicated representatives
/// with least-recently-used eviction. Keys are monotonic, never reused,
/// so a handle to an evicted class can never alias a later one.
#[derive(Debug, Default)]
struct InternStore {
    by_fp: FxHashMap<Vec<Fact>, ClassKey>,
    reps: FxHashMap<ClassKey, Instance>,
    lru: VecDeque<ClassKey>,
    next: u64,
}

/// Fingerprint of an instance up to null renaming: the canonical fact
/// list with nulls renumbered in first-occurrence order. Equal
/// fingerprints imply isomorphic instances (each side is isomorphic to
/// the common renumbered instance); the converse can fail, which only
/// costs an extra equivalence class, never a wrong answer.
// The expect is a capacity invariant, not a reachable failure: distinct
// nulls are `NullId(u32)`, so `rename` can never hold more than 2³²
// entries, and an instance that large cannot exist in memory.
#[allow(clippy::expect_used)]
fn fingerprint(instance: &Instance) -> Vec<Fact> {
    let mut rename: FxHashMap<NullId, NullId> = FxHashMap::default();
    instance
        .canonical_facts()
        .iter()
        .map(|f| {
            f.map_values(|v| match v {
                Value::Null(n) => {
                    let next = NullId(u32::try_from(rename.len()).expect("instance too large"));
                    Value::Null(*rename.entry(n).or_insert(next))
                }
                c => c,
            })
        })
        .collect()
}

/// A cache of chase results for evaluating `→_M` over many pairs from a
/// fixed instance family (the bounded checkers and the information-loss
/// census do quadratically many `→_M` queries).
///
/// Construction chases every instance once and **core-canonicalizes**
/// the result: instances whose chase cores share a [`fingerprint`] are
/// hom-equivalent, so they collapse into one equivalence class with a
/// single representative (the core — also the cheapest instance to
/// search). Arrow queries then memoize per *class pair*, so a family
/// with `k` classes answers its `n²` queries with at most `k²` searches,
/// each on a minimized instance.
#[derive(Debug)]
pub struct ArrowMCache {
    chased: Vec<Instance>,
    /// `class[a]` = equivalence class of `family[a]`.
    class: Vec<usize>,
    /// One core representative per pinned (construction-time) class.
    reps: Vec<Instance>,
    /// Fingerprint → pinned class, so interning can land request
    /// instances on a family class.
    family_fp: FxHashMap<Vec<Fact>, usize>,
    /// Classes interned at query time, evictable per [`CachePolicy`].
    interned: Mutex<InternStore>,
    /// Memoized `class → class` answers. `Mutex`, not `RefCell`: the
    /// loss census and the serve daemon share one cache across threads.
    memo: Mutex<MemoTable>,
    stats: Mutex<CacheStats>,
    policy: CachePolicy,
}

impl ArrowMCache {
    /// Chase every instance of the family once and canonicalize the
    /// results into hom-equivalence classes, under `config` and with
    /// the size caps of `policy` (a long-lived cache must bound both
    /// stores; see [`CachePolicy`]). The two construction phases take
    /// `config` differently, to match their failure modes:
    ///
    /// * the **chase** gets `config`'s time budget and context but not
    ///   its node budget — premise matching is strict (a truncated
    ///   enumeration is a [`CoreError`], not a degraded result), and
    ///   these searches are tiny, so a node budget meant for the
    ///   checker's hom decisions would only inject spurious hard
    ///   failures;
    /// * **core minimization** gets the full `config` — it degrades
    ///   gracefully (a budget-cut fold test leaves a sound, possibly
    ///   non-minimal representative, never a wrong class).
    pub fn with_policy(
        mapping: &SchemaMapping,
        family: &[Instance],
        vocab: &mut Vocabulary,
        config: &HomConfig,
        policy: CachePolicy,
    ) -> Result<Self, CoreError> {
        let span = rde_obs::span("core.arrow.build", &[("instances", family.len().into())]);
        let chase_options = chase_options(config);
        let mut chased = Vec::with_capacity(family.len());
        let mut class = Vec::with_capacity(family.len());
        let mut reps: Vec<Instance> = Vec::new();
        let mut by_fp: FxHashMap<Vec<Fact>, usize> = FxHashMap::default();
        let mut hom = HomStats::default();
        for i in family {
            // Construction chases the whole family; per-instance checks
            // make a deadline or Ctrl-C cut between chases too, not
            // just inside one.
            if config.ctx.is_cancelled() {
                return Err(CoreError::Cancelled);
            }
            let c = chase_mapping(i, mapping, vocab, &chase_options)?;
            let outcome = core_of_budgeted(&c, config);
            hom += outcome.stats;
            let core = outcome.result.core;
            let cid = *by_fp.entry(fingerprint(&core)).or_insert_with(|| {
                reps.push(core);
                reps.len() - 1
            });
            class.push(cid);
            chased.push(c);
        }
        let mut class_sizes = vec![0u64; reps.len()];
        for &cid in &class {
            class_sizes[cid] += 1;
        }
        for &size in &class_sizes {
            rde_obs::histogram!("core.arrow.class_size").record(size);
        }
        span.close_with(&[("classes", reps.len().into())]);
        let stats = CacheStats {
            instances: family.len(),
            classes: reps.len(),
            hom,
            ..CacheStats::default()
        };
        let cache = ArrowMCache {
            chased,
            class,
            reps,
            family_fp: by_fp,
            interned: Mutex::new(InternStore::default()),
            memo: Mutex::new(MemoTable::default()),
            stats: Mutex::new(stats),
            policy,
        };
        cache.publish_occupancy();
        Ok(cache)
    }

    /// `family[a] →_M family[b]`: `chase_M(a) → chase_M(b)`, decided on
    /// the core representatives under `config` and memoized per class
    /// pair. Only definite verdicts are memoized: an `Unknown` must stay
    /// retryable with a larger budget.
    pub fn arrow(&self, a: usize, b: usize, config: &HomConfig) -> Verdict {
        let (ka, kb) = (ClassKey(self.class[a] as u64), ClassKey(self.class[b] as u64));
        self.decide(ka, &self.reps[self.class[a]], kb, &self.reps[self.class[b]], config).0
    }

    /// Resolve an arbitrary instance to its hom-equivalence class:
    /// chase it under `config`, core-minimize, and land it on a pinned
    /// family class or the interned store (least-recently-used eviction
    /// past [`CachePolicy::max_interned`]). The returned handle carries
    /// the core representative, so later [`Self::arrow_classes`] calls
    /// survive the class being evicted underneath them.
    pub fn intern(
        &self,
        mapping: &SchemaMapping,
        instance: &Instance,
        vocab: &mut Vocabulary,
        config: &HomConfig,
    ) -> Result<ClassHandle, CoreError> {
        let c = chase_mapping(instance, mapping, vocab, &chase_options(config))?;
        let outcome = core_of_budgeted(&c, config);
        self.lock_stats().hom += outcome.stats;
        let core = outcome.result.core;
        let fp = fingerprint(&core);
        if let Some(&pinned) = self.family_fp.get(&fp) {
            self.lock_stats().intern_hits += 1;
            rde_obs::counter!("core.arrow.intern.hits").inc();
            return Ok(ClassHandle {
                key: ClassKey(pinned as u64),
                rep: self.reps[pinned].clone(),
            });
        }
        let mut store = self.lock_interned();
        if let Some(&key) = store.by_fp.get(&fp) {
            // LRU touch: most recently seen moves to the back.
            store.lru.retain(|&k| k != key);
            store.lru.push_back(key);
            drop(store);
            self.lock_stats().intern_hits += 1;
            rde_obs::counter!("core.arrow.intern.hits").inc();
            return Ok(ClassHandle { key, rep: core });
        }
        while store.reps.len() >= self.policy.max_interned.max(1) {
            let Some(victim) = store.lru.pop_front() else { break };
            store.by_fp.retain(|_, k| *k != victim);
            store.reps.remove(&victim);
            self.purge_memo_mentioning(victim);
            self.lock_stats().class_evictions += 1;
            rde_obs::counter!("core.arrow.evictions").inc();
        }
        let key = ClassKey(self.reps.len() as u64 + store.next);
        store.next += 1;
        if self.policy.max_interned > 0 {
            store.by_fp.insert(fp, key);
            store.reps.insert(key, core.clone());
            store.lru.push_back(key);
        }
        drop(store);
        self.lock_stats().intern_misses += 1;
        rde_obs::counter!("core.arrow.intern.misses").inc();
        self.publish_occupancy();
        Ok(ClassHandle { key, rep: core })
    }

    /// `a →_M b` between two interned (or family) classes: decided on
    /// the handles' core representatives under `config`, memoized per
    /// class pair like every other arrow query.
    pub fn arrow_classes(&self, a: &ClassHandle, b: &ClassHandle, config: &HomConfig) -> Verdict {
        self.decide(a.key, &a.rep, b.key, &b.rep, config).0
    }

    /// Like [`Self::arrow_classes`], but also report whether the
    /// verdict came from the memo (`true` = hit). The serve access log
    /// wants an exact per-request cache flag; deriving one from the
    /// global hit counters would misattribute under concurrency.
    pub fn arrow_classes_probed(
        &self,
        a: &ClassHandle,
        b: &ClassHandle,
        config: &HomConfig,
    ) -> (Verdict, bool) {
        self.decide(a.key, &a.rep, b.key, &b.rep, config)
    }

    /// Shared decision path: memo lookup, budgeted search on the
    /// representatives, memo insert (definite verdicts only, with FIFO
    /// eviction past the cap, and only while both classes are live so a
    /// retired key can never leave an unpurgeable entry behind).
    /// Returns the verdict and whether the memo answered it.
    fn decide(
        &self,
        ka: ClassKey,
        rep_a: &Instance,
        kb: ClassKey,
        rep_b: &Instance,
        config: &HomConfig,
    ) -> (Verdict, bool) {
        // Resilience-suite injection: a worker that panicked while
        // holding these locks must not wedge every later query —
        // `lock_memo`/`lock_stats` recover from the poison.
        if config.ctx.should_inject("core.arrow.poison") {
            rde_faults::poison_mutex(&self.memo);
            rde_faults::poison_mutex(&self.stats);
        }
        let key = (ka, kb);
        if let Some(&cached) = self.lock_memo().map.get(&key) {
            self.lock_stats().hits += 1;
            rde_obs::counter!("core.arrow.hits").inc();
            return (Verdict::from_bool(cached), true);
        }
        rde_obs::counter!("core.arrow.misses").inc();
        let mut search = HomStats::default();
        let verdict = exists_hom_budgeted(rep_a, rep_b, config, &mut search);
        let mut stats = self.lock_stats();
        stats.misses += 1;
        stats.hom += search;
        drop(stats);
        if !verdict.is_unknown() {
            self.memoize(key, verdict.holds());
        } else {
            rde_obs::counter!("core.arrow.unknown").inc();
        }
        (verdict, false)
    }

    /// True while `key` names a pinned family class or a live interned
    /// class.
    fn is_live(&self, key: ClassKey) -> bool {
        key.0 < self.reps.len() as u64 || self.lock_interned().reps.contains_key(&key)
    }

    /// Insert one memoized verdict, evicting in FIFO order past
    /// [`CachePolicy::max_memo`]. Pairs naming a retired class are not
    /// inserted: their purge already ran, and nothing would ever remove
    /// them again.
    fn memoize(&self, key: (ClassKey, ClassKey), holds: bool) {
        if self.policy.max_memo == 0 || !self.is_live(key.0) || !self.is_live(key.1) {
            return;
        }
        let mut evicted = 0u64;
        let mut memo = self.lock_memo();
        if memo.map.contains_key(&key) {
            return; // a racing query already answered this pair
        }
        while memo.map.len() >= self.policy.max_memo {
            // Skip queue slots whose entries a class purge removed.
            let Some(oldest) = memo.order.pop_front() else { break };
            if memo.map.remove(&oldest).is_some() {
                evicted += 1;
            }
        }
        memo.map.insert(key, holds);
        memo.order.push_back(key);
        drop(memo);
        if evicted > 0 {
            self.lock_stats().memo_evictions += evicted;
            rde_obs::counter!("core.arrow.evictions").add(evicted);
        }
        self.publish_occupancy();
    }

    /// Drop every memo entry that mentions a retired class. Stale queue
    /// slots are left behind and skipped on pop.
    fn purge_memo_mentioning(&self, victim: ClassKey) {
        let mut memo = self.lock_memo();
        memo.map.retain(|&(a, b), _| a != victim && b != victim);
    }

    /// Refresh the occupancy gauges (`rde profile --metrics` renders
    /// them, so a leak — or the eviction policy holding the line — is
    /// visible without a debugger).
    fn publish_occupancy(&self) {
        let memo = self.lock_memo().map.len() as u64;
        let interned = self.lock_interned().reps.len() as u64;
        rde_obs::gauge!("core.arrow.memo.occupancy").set(memo);
        rde_obs::gauge!("core.arrow.classes.occupancy").set(self.reps.len() as u64 + interned);
    }

    /// The cached chase of `family[a]`.
    pub fn chased(&self, a: usize) -> &Instance {
        &self.chased[a]
    }

    /// Current counters (pinned class count is fixed at construction;
    /// hit/miss/eviction tallies and occupancy move as queries arrive).
    pub fn stats(&self) -> CacheStats {
        let mut stats = *self.lock_stats();
        stats.memo_entries = self.lock_memo().map.len();
        stats.interned = self.lock_interned().reps.len();
        stats
    }

    /// The size caps this cache enforces.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    fn lock_memo(&self) -> std::sync::MutexGuard<'_, MemoTable> {
        self.memo.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lock_interned(&self) -> std::sync::MutexGuard<'_, InternStore> {
        self.interned.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lock_stats(&self) -> std::sync::MutexGuard<'_, CacheStats> {
        self.stats.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Number of cached instances.
    pub fn len(&self) -> usize {
        self.chased.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.chased.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;
    use rde_deps::parse_mapping;
    use rde_model::parse::parse_instance;

    #[test]
    fn copy_mapping_arrow_is_hom() {
        // For the copy mapping, →_M coincides with → (Example 6.7).
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/2\ntarget: Pp/2\nP(x,y) -> Pp(x,y)").unwrap();
        let u = Universe::small(&mut v);
        let family = u.collect_instances(&v, &m.source).unwrap();
        for a in &family {
            for b in &family {
                let lhs = arrow_m(&m, a, b, &mut v).unwrap();
                let rhs = exists_hom(a, b);
                assert_eq!(lhs, rhs, "copy mapping must not change the relation: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn union_mapping_identifies_p_and_q() {
        // Example 3.14's union mapping: I₁ = {P(0)}, I₂ = {Q(0)} satisfy
        // I₁ →_M I₂ but not I₁ → I₂.
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/1, Q/1\ntarget: R/1\nP(x) -> R(x)\nQ(x) -> R(x)")
            .unwrap();
        let i1 = parse_instance(&mut v, "P(0)").unwrap();
        let i2 = parse_instance(&mut v, "Q(0)").unwrap();
        assert!(arrow_m(&m, &i1, &i2, &mut v).unwrap());
        assert!(arrow_m(&m, &i2, &i1, &mut v).unwrap());
        assert!(!exists_hom(&i1, &i2));
    }

    #[test]
    fn arrow_m_is_reflexive_and_transitive_on_a_universe() {
        let mut v = Vocabulary::new();
        let m =
            parse_mapping(&mut v, "source: P/2\ntarget: Q/2\nP(x,y) -> exists z . Q(x,z) & Q(z,y)")
                .unwrap();
        let u = Universe::new(&mut v, 2, 1, 2);
        let family = u.collect_instances(&v, &m.source).unwrap();
        let cache = ArrowMCache::with_policy(
            &m,
            &family,
            &mut v,
            &HomConfig::default(),
            CachePolicy::default(),
        )
        .unwrap();
        let n = cache.len();
        for a in 0..n {
            assert!(cache.arrow(a, a, &HomConfig::default()).holds());
            for b in 0..n {
                for c in 0..n {
                    if cache.arrow(a, b, &HomConfig::default()).holds()
                        && cache.arrow(b, c, &HomConfig::default()).holds()
                    {
                        assert!(
                            cache.arrow(a, c, &HomConfig::default()).holds(),
                            "transitivity violated"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cache_agrees_with_direct_arrow_and_memoizes() {
        let mut v = Vocabulary::new();
        let m =
            parse_mapping(&mut v, "source: P/2\ntarget: Q/2\nP(x,y) -> exists z . Q(x,z) & Q(z,y)")
                .unwrap();
        let u = Universe::new(&mut v, 2, 1, 2);
        let family = u.collect_instances(&v, &m.source).unwrap();
        let cache = ArrowMCache::with_policy(
            &m,
            &family,
            &mut v,
            &HomConfig::default(),
            CachePolicy::default(),
        )
        .unwrap();
        let n = family.len();
        for a in 0..n {
            for b in 0..n {
                assert_eq!(
                    cache.arrow(a, b, &HomConfig::default()).holds(),
                    arrow_m(&m, &family[a], &family[b], &mut v).unwrap(),
                    "cache disagrees on ({a}, {b})"
                );
            }
        }
        let s = cache.stats();
        assert!(s.classes < s.instances, "core fingerprinting must collapse some classes");
        assert_eq!(s.hits + s.misses, (n * n) as u64);
        assert!(s.misses <= (s.classes * s.classes) as u64, "at most one search per class pair");
        // A second sweep is answered entirely from the memo.
        for a in 0..n {
            for b in 0..n {
                cache.arrow(a, b, &HomConfig::default()).holds();
            }
        }
        assert_eq!(cache.stats().misses, s.misses);
    }

    #[test]
    fn budgeted_arrow_degrades_to_unknown_not_a_wrong_answer() {
        let mut v = Vocabulary::new();
        let m =
            parse_mapping(&mut v, "source: P/2\ntarget: Q/2\nP(x,y) -> exists z . Q(x,z) & Q(z,y)")
                .unwrap();
        let u = Universe::new(&mut v, 2, 1, 2);
        let family = u.collect_instances(&v, &m.source).unwrap();
        let reference = ArrowMCache::with_policy(
            &m,
            &family,
            &mut v,
            &HomConfig::default(),
            CachePolicy::default(),
        )
        .unwrap();
        let budgeted = ArrowMCache::with_policy(
            &m,
            &family,
            &mut v,
            &HomConfig::default(),
            CachePolicy::default(),
        )
        .unwrap();
        let tight = HomConfig { node_budget: Some(1), ..HomConfig::default() };
        let mut unknowns = 0;
        for a in 0..family.len() {
            for b in 0..family.len() {
                match budgeted.arrow(a, b, &tight) {
                    Verdict::Unknown { .. } => unknowns += 1,
                    definite => assert_eq!(
                        definite.holds(),
                        reference.arrow(a, b, &HomConfig::default()).holds()
                    ),
                }
            }
        }
        assert!(unknowns > 0, "a one-node budget must cut some searches");
        // Unknowns are not memoized: an unbounded retry settles them.
        for a in 0..family.len() {
            for b in 0..family.len() {
                assert_eq!(
                    budgeted.arrow(a, b, &HomConfig::default()).holds(),
                    reference.arrow(a, b, &HomConfig::default()).holds()
                );
            }
        }
    }

    #[test]
    fn capped_memo_stays_within_bound_and_still_answers_correctly() {
        let mut v = Vocabulary::new();
        let m =
            parse_mapping(&mut v, "source: P/2\ntarget: Q/2\nP(x,y) -> exists z . Q(x,z) & Q(z,y)")
                .unwrap();
        let u = Universe::new(&mut v, 2, 1, 2);
        let family = u.collect_instances(&v, &m.source).unwrap();
        let reference = ArrowMCache::with_policy(
            &m,
            &family,
            &mut v,
            &HomConfig::default(),
            CachePolicy::default(),
        )
        .unwrap();
        let capped = ArrowMCache::with_policy(
            &m,
            &family,
            &mut v,
            &HomConfig::default(),
            CachePolicy::bounded(2, usize::MAX),
        )
        .unwrap();
        let n = family.len();
        for sweep in 0..2 {
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(
                        capped.arrow(a, b, &HomConfig::default()).holds(),
                        reference.arrow(a, b, &HomConfig::default()).holds(),
                        "sweep {sweep}: capped cache disagrees on ({a}, {b})"
                    );
                }
            }
            let s = capped.stats();
            assert!(s.memo_entries <= 2, "memo exceeded its cap: {}", s.memo_entries);
            assert!(s.memo_evictions > 0, "a 2-entry cap under {n}² queries must evict");
        }
        assert!(
            reference.stats().classes > 2,
            "workload sanity: more class pairs than the memo cap"
        );
    }

    #[test]
    fn zero_memo_cap_disables_memoization_without_breaking_answers() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/2\ntarget: Pp/2\nP(x,y) -> Pp(x,y)").unwrap();
        let u = Universe::new(&mut v, 2, 0, 2);
        let family = u.collect_instances(&v, &m.source).unwrap();
        let reference = ArrowMCache::with_policy(
            &m,
            &family,
            &mut v,
            &HomConfig::default(),
            CachePolicy::default(),
        )
        .unwrap();
        let uncached = ArrowMCache::with_policy(
            &m,
            &family,
            &mut v,
            &HomConfig::default(),
            CachePolicy::bounded(0, usize::MAX),
        )
        .unwrap();
        for a in 0..family.len() {
            for b in 0..family.len() {
                assert_eq!(
                    uncached.arrow(a, b, &HomConfig::default()).holds(),
                    reference.arrow(a, b, &HomConfig::default()).holds()
                );
            }
        }
        let s = uncached.stats();
        assert_eq!(s.memo_entries, 0);
        assert_eq!(s.hits, 0, "nothing can hit a disabled memo");
    }

    #[test]
    fn interning_memoizes_collapses_and_evicts_within_bound() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/2\ntarget: Q/2\nP(x,y) -> Q(x,y)").unwrap();
        let family = vec![parse_instance(&mut v, "P(a0,a0)").unwrap()];
        let cache = ArrowMCache::with_policy(
            &m,
            &family,
            &mut v,
            &HomConfig::default(),
            CachePolicy::bounded(usize::MAX, 2),
        )
        .unwrap();
        let config = HomConfig::default();
        // Distinct ground instances: every one is its own class.
        let insts: Vec<Instance> = (0..6)
            .map(|i| parse_instance(&mut v, &format!("P(b{i}, c{i})\nP(c{i}, b{i})")).unwrap())
            .collect();
        let mut handles = Vec::new();
        for inst in &insts {
            handles.push(cache.intern(&m, inst, &mut v, &config).unwrap());
            assert!(
                cache.stats().interned <= 2,
                "interned classes exceeded the cap: {}",
                cache.stats().interned
            );
        }
        let s = cache.stats();
        assert!(s.class_evictions >= 4, "6 distinct interns under a cap of 2: {s:?}");
        // Stale handles (their classes were evicted) still answer, and
        // answers agree with the uncached ground truth.
        for (i, ha) in handles.iter().enumerate() {
            for (j, hb) in handles.iter().enumerate() {
                let got = cache.arrow_classes(ha, hb, &config);
                let want = arrow_m(&m, &insts[i], &insts[j], &mut v).unwrap();
                assert!(!got.is_unknown());
                assert_eq!(got.holds(), want, "disagrees on interned pair ({i}, {j})");
            }
        }
        // Re-interning the most recent instance is a hit, not a new class.
        let before = cache.stats();
        let again = cache.intern(&m, &insts[5], &mut v, &config).unwrap();
        assert_eq!(again.key(), handles[5].key(), "same fingerprint, same class");
        assert_eq!(cache.stats().intern_hits, before.intern_hits + 1);
        // An instance hom-equivalent to a family member lands on the
        // pinned class and never counts against the interned cap.
        let fam = cache.intern(&m, &family[0], &mut v, &config).unwrap();
        assert!(cache.arrow_classes(&fam, &fam, &config).holds());
        assert_eq!(cache.stats().interned, before.interned, "pinned classes are not interned");
    }

    #[test]
    fn hom_implies_arrow_m() {
        // → ⊆ →_M (used in Prop 4.11): chase is monotone under hom.
        let mut v = Vocabulary::new();
        let m =
            parse_mapping(&mut v, "source: P/2\ntarget: Q/2\nP(x,y) -> exists z . Q(x,z) & Q(z,y)")
                .unwrap();
        let u = Universe::small(&mut v);
        let family = u.collect_instances(&v, &m.source).unwrap();
        for a in &family {
            for b in &family {
                if exists_hom(a, b) {
                    assert!(arrow_m(&m, a, b, &mut v).unwrap());
                }
            }
        }
    }

    #[test]
    fn ground_variant_agrees_on_ground_instances() {
        let mut v = Vocabulary::new();
        let m = parse_mapping(&mut v, "source: P/1\ntarget: Q/1\nP(x) -> Q(x)").unwrap();
        let i1 = parse_instance(&mut v, "P(a)").unwrap();
        let i2 = parse_instance(&mut v, "P(a)\nP(b)").unwrap();
        assert!(arrow_m(&m, &i1, &i2, &mut v).unwrap());
        assert!(!arrow_m(&m, &i2, &i1, &mut v).unwrap());
    }
}

//! The daemon: a thread-per-connection TCP server over the catalog.
//!
//! Std-only by necessity (the build environment is offline) and by
//! sufficiency: every request is CPU-bound chase/search work, so an
//! async reactor would buy nothing — the concurrency story is one OS
//! thread per connection, a generation-swapped catalog behind
//! `RwLock<Arc<_>>`, and the existing per-request [`ExecContext`]
//! machinery for deadlines and budgets.
//!
//! ## Isolation and shedding
//!
//! Each request gets its **own** `ExecContext`: a fresh cancel token
//! (armed with the request's `deadline-ms` header, watching the
//! process interrupt flag) and the budgets from its headers. The
//! shared [`ArrowMCache`] never sees another request's token, so one
//! cancelled request cannot bleed into a neighbour — the cache only
//! memoizes definite verdicts.
//!
//! Load shedding is a reply, never a dropped connection, and it is
//! layered. First line: per-tenant token buckets — a request carrying
//! a `tenant=` header (or the `default` bucket when it carries none)
//! must win a token from its bucket, and a dry bucket answers `SHED`
//! with a computed `retry-after-ms` (the bucket's own time-to-one-token)
//! before any work is done. Backstop: past
//! [`ServeOptions::max_inflight`] concurrently executing requests the
//! server sheds regardless of tenant. A request whose deadline fires
//! mid-flight gets `SHED` too; every shed is counted per
//! `{tenant, reason}`. Budget exhaustion inside an engine surfaces as
//! `UNKNOWN`, matching the three-valued verdicts the CLI prints.
//!
//! ## Hot catalog reload
//!
//! `RELOAD` (or SIGHUP, polled by the accept loop) re-scans the
//! catalog directory and atomically swaps in a new **generation**:
//! in-flight requests keep the `Arc` snapshot they pinned at admission
//! and finish on it, unchanged mappings carry their warm caches over
//! by content fingerprint, and changed ones rebuild lazily. A failed
//! re-scan (unparsable mapping, unreadable directory) rejects the swap
//! — the previous generation keeps serving — and the outcome is
//! visible in `serve.catalog.generation` / `serve.reload.outcome` and
//! a `STATS` line.
//!
//! ## Protocol defense
//!
//! Connections read under [`ProtocolLimits`] (line/header/body caps,
//! NUL and UTF-8 rejection — see [`crate::protocol`]) and an idle/read
//! deadline ([`ServeOptions::idle_timeout`]) so a slowloris peer
//! cannot pin a thread forever. A recoverable violation costs the
//! peer a strike and earns a typed `ERR`; at
//! [`ServeOptions::max_strikes`] strikes — or any violation that
//! leaves the stream position untrustworthy — the connection closes,
//! counted per `serve.conn.closed{reason}`.
//!
//! ## Telemetry
//!
//! Every request gets a monotonic id (starting at 1; 0 means "no
//! request") installed as the thread's ambient request id, so every
//! span and journal event the request produces — including on engine
//! worker threads, which re-install the id from the `ExecContext` —
//! carries a `req` field. Admission control keeps per-`{op, mapping}`
//! labeled request counters, latency and queue-wait histograms,
//! per-mapping inflight gauges, per-tenant request and
//! `{tenant, reason}` shed counters, and per-outcome counters;
//! `METRICS` exposes the lot in Prometheus text format. Each request
//! also leaves one `serve.access` journal event (op, mapping, tenant,
//! outcome, elapsed µs, arrow-cache hit/miss) — point a rotating
//! journal sink at a file and that is the access log. With
//! [`ServeOptions::trace_slow_ms`] set, the request thread's span tree
//! is buffered and replayed into the journal only for requests at
//! least that slow, behind a `serve.slow_trace` marker.
//!
//! ## Shutdown
//!
//! `serve` polls its shutdown token between accepts (the listener is
//! non-blocking). On cancellation it stops accepting, half-closes the
//! **read** side of every live connection — workers blocked in
//! `read_request_limited` wake with a clean EOF while a worker
//! mid-request can still write its reply — and joins every worker
//! before returning.

use std::collections::{BTreeMap, HashMap};
use std::io::BufReader;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use rde_chase::{ChaseOptions, DisjunctiveChaseOptions};
use rde_core::arrow::CachePolicy;
use rde_core::invertibility::{check_homomorphism_property_cached, BoundedVerdict};
use rde_core::CoreError;
use rde_faults::{CancelToken, ExecContext, FaultInjector};
use rde_hom::{Exhausted, HomConfig, HomStats, Verdict};
use rde_model::display;
use rde_model::parse::parse_instance;
use rde_obs::metrics::HistogramSnapshot;
use rde_obs::{counter, gauge, histogram};
use rde_query::ConjunctiveQuery;

use crate::catalog::{Catalog, MappingEntry, UniverseDims, WarmState};
use crate::protocol::{read_request_limited, ProtocolLimits, Reply, Request};
use crate::ServeError;

/// One tenant's admission quota: a token bucket refilled at `rps`
/// tokens per second up to `burst`. The quota named `default` applies
/// to the anonymous tenant *and* to any named tenant without its own
/// quota; tenants matching no quota at all are unlimited (the global
/// in-flight ceiling still backstops them).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantQuota {
    /// The tenant name the quota binds to (`default` for the
    /// catch-all bucket).
    pub tenant: String,
    /// Sustained admission rate, in requests per second.
    pub rps: f64,
    /// Bucket capacity: how many requests may arrive back-to-back
    /// before the rate limit bites.
    pub burst: f64,
}

impl TenantQuota {
    /// Parse the CLI's `NAME=rps[:burst]` form. `burst` defaults to
    /// `max(rps, 1)` — one second of headroom, and at least one token
    /// so a fractional-rps quota can ever admit anything.
    pub fn parse(spec: &str) -> Result<TenantQuota, String> {
        let err = || format!("tenant quota `{spec}`: expected NAME=rps[:burst]");
        let (tenant, rest) = spec.split_once('=').ok_or_else(err)?;
        if tenant.is_empty() {
            return Err(err());
        }
        let (rps_text, burst_text) = match rest.split_once(':') {
            Some((r, b)) => (r, Some(b)),
            None => (rest, None),
        };
        let rps: f64 = rps_text.parse().map_err(|_| err())?;
        if !rps.is_finite() || rps <= 0.0 {
            return Err(format!("tenant quota `{spec}`: rps must be a positive number"));
        }
        let burst = match burst_text {
            Some(b) => {
                let burst: f64 = b.parse().map_err(|_| err())?;
                if !burst.is_finite() || burst < 1.0 {
                    return Err(format!("tenant quota `{spec}`: burst must be at least 1"));
                }
                burst
            }
            None => rps.max(1.0),
        };
        Ok(TenantQuota { tenant: tenant.to_owned(), rps, burst })
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address; port `0` picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Catalog directory of `NAME.map` (+ optional `NAME.rev`) files.
    pub catalog: PathBuf,
    /// Bounded-universe dimensions for each mapping's warm family.
    pub dims: UniverseDims,
    /// Size caps for each mapping's arrow cache.
    pub policy: CachePolicy,
    /// Concurrent-request ceiling; past it requests get `SHED
    /// overloaded` instead of a thread's worth of work.
    pub max_inflight: usize,
    /// Per-tenant admission quotas (see [`TenantQuota`]). Empty means
    /// no quota layer at all.
    pub tenant_quotas: Vec<TenantQuota>,
    /// Framing caps applied to every connection.
    pub limits: ProtocolLimits,
    /// Per-connection read deadline: a peer that sends nothing (or
    /// stalls mid-request — slowloris) for this long is disconnected.
    /// `None` waits forever, as a pre-hardening daemon did.
    pub idle_timeout: Option<Duration>,
    /// How many recoverable protocol violations a connection may
    /// accumulate before it is closed.
    pub max_strikes: u32,
    /// Fault-injection campaign for the server's own fault points
    /// (`serve.reload.swap`, `serve.quota.refill`, `serve.conn.read`).
    /// Inert by default and outside the `fault-inject` feature.
    pub injector: FaultInjector,
    /// Slow-request trace sampling threshold, in milliseconds. When
    /// set, every request's span tree is buffered in capture mode and
    /// replayed into the journal only if the request took at least
    /// this long (`0` keeps every request's tree). `None` streams
    /// spans live, interleaved but request-stamped.
    pub trace_slow_ms: Option<u64>,
    /// Admission control for non-terminating mappings: when set, every
    /// catalog entry (forward and reverse mapping alike) must pass the
    /// static termination analysis (`rde_deps::analyze_mapping` —
    /// weakly acyclic or stratified). An unproven entry rejects the
    /// whole load at bind time, and rejects a reload with the old
    /// generation still serving.
    pub require_terminating: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_owned(),
            catalog: PathBuf::from("."),
            dims: UniverseDims::default(),
            // Defaults sized for a long-lived process: large enough
            // that a working set never thrashes, small enough that a
            // hostile request stream cannot grow the maps without
            // bound.
            policy: CachePolicy::bounded(1 << 16, 1024),
            max_inflight: 256,
            tenant_quotas: Vec::new(),
            limits: ProtocolLimits::default(),
            idle_timeout: Some(Duration::from_secs(60)),
            max_strikes: 3,
            injector: FaultInjector::default(),
            trace_slow_ms: None,
            require_terminating: false,
        }
    }
}

/// One catalog generation: the immutable snapshot requests pin at
/// admission. Swapped wholesale on reload.
struct CatalogState {
    generation: u64,
    catalog: Catalog,
}

/// One tenant's live token bucket.
struct Bucket {
    tokens: f64,
    last: Instant,
}

/// Shared server state: the current catalog generation + admission
/// control + live-connection registry (for shutdown's read-half
/// close).
struct ServerState {
    catalog: RwLock<Arc<CatalogState>>,
    /// Serializes reloads so concurrent `RELOAD`s cannot race the
    /// generation counter (requests never take this; they read-lock
    /// `catalog` for an `Arc` clone and move on).
    reload: Mutex<()>,
    reloads_ok: AtomicU64,
    reloads_rejected: AtomicU64,
    options: ServeOptions,
    /// Live token buckets, keyed by tenant name (created on first
    /// sight from the matching [`TenantQuota`]).
    buckets: Mutex<HashMap<String, Bucket>>,
    inflight: AtomicUsize,
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Monotonic request-id source; id 0 is reserved for "no request".
    next_request: AtomicU64,
    /// Process uptime epoch (`STATS`/`METRICS` report against it).
    started: Instant,
}

impl ServerState {
    /// The quota covering `tenant`: its own, else the `default`
    /// catch-all, else none (unlimited).
    fn quota_for(&self, tenant: &str) -> Option<&TenantQuota> {
        let quotas = &self.options.tenant_quotas;
        quotas
            .iter()
            .find(|q| q.tenant == tenant)
            .or_else(|| quotas.iter().find(|q| q.tenant == "default"))
    }
}

/// Pin the current catalog generation.
fn current_catalog(state: &ServerState) -> Arc<CatalogState> {
    Arc::clone(&state.catalog.read().unwrap_or_else(std::sync::PoisonError::into_inner))
}

/// `--require-terminating` admission: every entry's forward (and
/// reverse, if present) mapping must be statically proven terminating.
/// The error names the first offending entry and its verdict so the
/// operator can `rde analyze` it directly.
fn check_catalog_terminating(catalog: &Catalog) -> Result<(), String> {
    let ctx = ExecContext::new();
    for (name, entry) in &catalog.entries {
        let sides: [(&str, Option<&rde_deps::SchemaMapping>); 2] =
            [("mapping", Some(&entry.mapping)), ("reverse", entry.reverse.as_ref())];
        for (side, mapping) in sides {
            let Some(mapping) = mapping else { continue };
            let report =
                rde_deps::analyze_mapping(mapping, &ctx).map_err(|e| format!("{name}: {e}"))?;
            if !report.verdict.is_terminating() {
                rde_obs::labeled_counter(
                    "serve.catalog.rejected",
                    &[("reason", "termination-unproven")],
                )
                .inc();
                return Err(format!(
                    "mapping `{name}` ({side}): termination unproven (not weakly acyclic \
                     or stratified); run `rde analyze` on it, or serve without \
                     --require-terminating and rely on explicit budgets"
                ));
            }
        }
    }
    Ok(())
}

/// A bound daemon, ready to [`Server::serve`].
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Load the catalog and bind the listen socket. Warm caches are
    /// built here, before the first connection, so the first request
    /// pays no cold-start penalty.
    pub fn bind(options: ServeOptions) -> Result<Server, ServeError> {
        let catalog = Catalog::load(&options.catalog, options.dims, options.policy)?;
        if options.require_terminating {
            check_catalog_terminating(&catalog).map_err(ServeError::Catalog)?;
        }
        let listener = TcpListener::bind(&options.addr)
            .map_err(|e| ServeError::Bind(format!("cannot bind `{}`: {e}", options.addr)))?;
        gauge!("serve.catalog.generation").set(1);
        let state = Arc::new(ServerState {
            catalog: RwLock::new(Arc::new(CatalogState { generation: 1, catalog })),
            reload: Mutex::new(()),
            reloads_ok: AtomicU64::new(0),
            reloads_rejected: AtomicU64::new(0),
            options,
            buckets: Mutex::new(HashMap::new()),
            inflight: AtomicUsize::new(0),
            conns: Mutex::new(HashMap::new()),
            next_request: AtomicU64::new(0),
            started: Instant::now(),
        });
        Ok(Server { listener, state })
    }

    /// The bound address (resolves port `0` to the actual port).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Names of the mappings this server answers for (the current
    /// generation's).
    pub fn mapping_names(&self) -> Vec<String> {
        current_catalog(&self.state).catalog.entries.keys().cloned().collect()
    }

    /// Accept and serve connections until `shutdown` cancels, then
    /// drain: no new accepts, read-half close on live connections,
    /// join every worker. In-flight requests run to completion and
    /// their replies are delivered. SIGHUP-requested catalog reloads
    /// (see [`rde_faults::install_reload_handler`]) are picked up
    /// between accepts.
    pub fn serve(self, shutdown: &CancelToken) -> Result<(), ServeError> {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::Bind(format!("cannot poll listener: {e}")))?;
        let mut workers = Vec::new();
        let mut next_id: u64 = 0;
        while !shutdown.is_cancelled() {
            if rde_faults::take_reload_request() {
                let _ = reload_now(&self.state);
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    counter!("serve.connections").inc();
                    // Workers use blocking reads; only the accept loop
                    // polls.
                    if stream.set_nonblocking(false).is_err() {
                        continue;
                    }
                    let id = next_id;
                    next_id += 1;
                    if let Ok(clone) = stream.try_clone() {
                        lock(&self.state.conns).insert(id, clone);
                    }
                    let state = Arc::clone(&self.state);
                    workers.push(std::thread::spawn(move || {
                        handle_connection(stream, &state);
                        lock(&state.conns).remove(&id);
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(ServeError::Bind(format!("accept failed: {e}"))),
            }
        }
        for (_, conn) in lock(&self.state.conns).iter() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Re-scan the catalog directory and swap the generation, or reject
/// and keep serving the old one. Returns `(generation, mappings,
/// carried)` on success.
fn do_reload(state: &ServerState) -> Result<(u64, usize, usize), String> {
    let _serialized = lock(&state.reload);
    let current = current_catalog(state);
    let (catalog, carried) = Catalog::reload(
        &state.options.catalog,
        state.options.dims,
        state.options.policy,
        &current.catalog,
    )
    .map_err(|e| e.to_string())?;
    // Same admission bar as bind: a reload that smuggles in an
    // unproven mapping is rejected wholesale, old generation serving.
    if state.options.require_terminating {
        check_catalog_terminating(&catalog)?;
    }
    // Deterministic chaos: a campaign firing here models the swap
    // itself failing (e.g. a torn re-scan). The old generation must
    // keep serving, exactly like a parse failure.
    if state.options.injector.should_inject("serve.reload.swap") {
        return Err("injected fault: serve.reload.swap".to_owned());
    }
    let generation = current.generation + 1;
    let mappings = catalog.entries.len();
    *state.catalog.write().unwrap_or_else(std::sync::PoisonError::into_inner) =
        Arc::new(CatalogState { generation, catalog });
    Ok((generation, mappings, carried))
}

/// [`do_reload`] plus the bookkeeping both entry points (the `RELOAD`
/// op and the SIGHUP poll) share: outcome counters, the generation
/// gauge, and a journal event.
fn reload_now(state: &ServerState) -> Reply {
    match do_reload(state) {
        Ok((generation, mappings, carried)) => {
            state.reloads_ok.fetch_add(1, Ordering::Relaxed);
            gauge!("serve.catalog.generation").set(generation);
            rde_obs::labeled_counter("serve.reload.outcome", &[("outcome", "ok")]).inc();
            rde_obs::event(
                "serve.reload",
                &[
                    ("outcome", "ok".into()),
                    ("generation", generation.into()),
                    ("mappings", mappings.into()),
                    ("carried", carried.into()),
                ],
            );
            Reply::Ok(vec![
                format!("generation {generation}"),
                format!("mappings {mappings}"),
                format!("carried {carried}"),
            ])
        }
        Err(reason) => {
            state.reloads_rejected.fetch_add(1, Ordering::Relaxed);
            rde_obs::labeled_counter("serve.reload.outcome", &[("outcome", "rejected")]).inc();
            rde_obs::event(
                "serve.reload",
                &[("outcome", "rejected".into()), ("reason", reason.as_str().into())],
            );
            Reply::Err(format!("reload rejected (previous catalog still serving): {reason}"))
        }
    }
}

/// Token-bucket admission for `tenant`. `None` admits (a token was
/// taken, or the tenant is unlimited); `Some(ms)` denies with the
/// bucket's own time-to-one-token as the retry hint.
fn quota_denies(state: &ServerState, tenant: &str) -> Option<u64> {
    let quota = state.quota_for(tenant)?;
    let mut buckets = lock(&state.buckets);
    let now = Instant::now();
    let bucket =
        buckets.entry(tenant.to_owned()).or_insert(Bucket { tokens: quota.burst, last: now });
    let elapsed = now.duration_since(bucket.last).as_secs_f64();
    bucket.last = now;
    // Deterministic chaos: a campaign firing here models a refill that
    // never happened (clock trouble, lost accounting). Degradation is
    // graceful by construction — the bucket only ever under-admits,
    // and `0 ≤ tokens ≤ burst` still holds.
    if !state.options.injector.should_inject("serve.quota.refill") {
        bucket.tokens = (bucket.tokens + elapsed * quota.rps).min(quota.burst);
    }
    if bucket.tokens >= 1.0 {
        bucket.tokens -= 1.0;
        return None;
    }
    let ms = ((1.0 - bucket.tokens) / quota.rps * 1000.0).ceil();
    Some(ms.max(1.0) as u64)
}

/// One connection: read requests until EOF, answering each. A
/// recoverable framing violation costs a strike and earns a typed
/// `ERR`; an unrecoverable one (or too many strikes, or a read
/// timeout) closes the connection, counted by reason.
fn handle_connection(stream: TcpStream, state: &ServerState) {
    let Ok(write_half) = stream.try_clone() else { return };
    let mut write_half = write_half;
    if let Some(timeout) = state.options.idle_timeout {
        if stream.set_read_timeout(Some(timeout)).is_err() {
            return;
        }
    }
    let mut reader = BufReader::new(stream);
    let mut strikes: u32 = 0;
    loop {
        // Deterministic chaos: a campaign firing here models the read
        // path failing (peer reset, torn socket). The close must stay
        // typed and counted — never a panic or a silent drop.
        if state.options.injector.should_inject("serve.conn.read") {
            rde_obs::labeled_counter("serve.conn.closed", &[("reason", "fault")]).inc();
            let _ =
                Reply::Err("injected fault: serve.conn.read".to_owned()).write_to(&mut write_half);
            return;
        }
        let request = match read_request_limited(&mut reader, &state.options.limits) {
            Ok(Some(request)) => request,
            Ok(None) => return,
            Err(e) if e.is_timeout() => {
                // An idle peer and a mid-request staller both lose the
                // connection, but the metric tells them apart.
                let reason = if e.partial() { "stalled" } else { "idle" };
                rde_obs::labeled_counter("serve.conn.closed", &[("reason", reason)]).inc();
                if e.partial() {
                    let _ = Reply::Err("protocol: read timed out mid-request".to_owned())
                        .write_to(&mut write_half);
                }
                return;
            }
            Err(e) if e.recoverable() => {
                strikes += 1;
                counter!("serve.conn.strikes").inc();
                let _ = Reply::Err(format!("protocol: {e}")).write_to(&mut write_half);
                if strikes >= state.options.max_strikes {
                    rde_obs::labeled_counter("serve.conn.closed", &[("reason", "strikes")]).inc();
                    return;
                }
                continue;
            }
            Err(e) => {
                rde_obs::labeled_counter("serve.conn.closed", &[("reason", "violation")]).inc();
                let _ = Reply::Err(format!("protocol: {e}")).write_to(&mut write_half);
                return;
            }
        };
        let received = Instant::now();
        let reply = admit(state, &request, received);
        if reply.write_to(&mut write_half).is_err() {
            return;
        }
    }
}

/// What a finished request reports into the access log beyond what
/// admission control already knows. Ops fill it in as they learn
/// things (today: the arrow cache's exact memo hit/miss).
#[derive(Default)]
struct AccessInfo {
    /// `Some(true)` when the op was answered from the arrow memo.
    cache: Option<bool>,
}

/// The access-log outcome word for a reply, mirroring the wire tag.
fn outcome_of(reply: &Reply) -> &'static str {
    match reply {
        Reply::Ok(_) => "ok",
        Reply::Err(_) => "err",
        Reply::Shed { .. } => "shed",
        Reply::Unknown(_) => "unknown",
    }
}

/// Admission control around [`handle_request`]: assign the request id,
/// pin the catalog generation, charge the tenant's token bucket, count
/// the request in-flight (globally and per `{op, mapping}`), shed past
/// the ceiling, time everything, and leave one `serve.access` journal
/// line behind. With [`ServeOptions::trace_slow_ms`] set the
/// request-thread span tree is buffered and replayed into the journal
/// only when the request was slow.
fn admit(state: &ServerState, request: &Request, received: Instant) -> Reply {
    // Ids start at 1: id 0 means "no request" throughout rde-obs.
    let id = state.next_request.fetch_add(1, Ordering::Relaxed) + 1;
    let _scope = rde_obs::request::enter(id);
    let op = request.op.as_str();
    let mapping = request.mapping.as_deref().unwrap_or("-");
    let tenant = request.get_header("tenant").unwrap_or("default");
    let op_mapping: [(&str, &str); 2] = [("op", op), ("mapping", mapping)];
    counter!("serve.requests").inc();
    rde_obs::labeled_counter("serve.requests", &op_mapping).inc();
    rde_obs::labeled_counter("serve.tenant.requests", &[("tenant", tenant)]).inc();
    // Queue wait: time between framing the request off the socket and
    // starting the work (scheduling + admission overhead).
    rde_obs::labeled_histogram("serve.queue.us", &op_mapping)
        .record(received.elapsed().as_micros() as u64);
    let started = Instant::now();
    let inflight = state.inflight.fetch_add(1, Ordering::SeqCst) + 1;
    gauge!("serve.inflight").set(inflight as u64);
    rde_obs::labeled_gauge("serve.inflight", &[("mapping", mapping)]).add(1);
    // Capture only when a journal sink is attached: buffering a span
    // tree there is no sink to replay into would tax every request for
    // nothing. (`enabled()` reflects the sink here — this thread is
    // not yet capturing.)
    let sampling = state.options.trace_slow_ms.is_some() && rde_obs::journal::enabled();
    if sampling {
        rde_obs::journal::capture_begin();
    }
    let mut access = AccessInfo::default();
    // First line: the tenant's token bucket (cheap, no engine work).
    // Backstop: the global in-flight ceiling. Both shed with a retry
    // hint — the bucket's exact refill time, or a crude queue-depth
    // heuristic for overload.
    let mut shed_reason: Option<&'static str> = None;
    let reply = if let Some(retry_ms) = quota_denies(state, tenant) {
        shed_reason = Some("quota");
        Reply::shed_after(format!("tenant `{tenant}` over quota"), retry_ms)
    } else if inflight > state.options.max_inflight {
        shed_reason = Some("overloaded");
        let excess = (inflight - state.options.max_inflight) as u64;
        Reply::shed_after(
            format!("overloaded ({inflight} requests in flight)"),
            excess.saturating_mul(5).max(5),
        )
    } else {
        handle_request(state, request, &mut access)
    };
    let now = state.inflight.fetch_sub(1, Ordering::SeqCst) - 1;
    gauge!("serve.inflight").set(now as u64);
    rde_obs::labeled_gauge("serve.inflight", &[("mapping", mapping)]).sub(1);
    let us = started.elapsed().as_micros() as u64;
    histogram!("serve.request.us").record(us);
    rde_obs::labeled_histogram("serve.request.us", &op_mapping).record(us);
    let outcome = outcome_of(&reply);
    rde_obs::labeled_counter(
        "serve.outcome",
        &[("op", op), ("mapping", mapping), ("outcome", outcome)],
    )
    .inc();
    if matches!(reply, Reply::Shed { .. }) {
        counter!("serve.shed").inc();
        // A shed that was not an admission decision is the request's
        // own deadline firing mid-flight.
        let reason = shed_reason.unwrap_or("deadline");
        rde_obs::labeled_counter("serve.shed", &[("tenant", tenant), ("reason", reason)]).inc();
    }
    if matches!(reply, Reply::Unknown(_)) {
        counter!("serve.unknown").inc();
    }
    if sampling {
        let threshold_us = state.options.trace_slow_ms.unwrap_or(0).saturating_mul(1000);
        if us < threshold_us {
            // The common case: drop the buffer without building a
            // record from it.
            rde_obs::journal::capture_discard();
        } else {
            let records = rde_obs::journal::capture_take();
            counter!("serve.slow_traces").inc();
            // Bracket the replayed tree so consumers can tell a
            // retroactive dump from live streaming. The event is
            // stamped with this request's id like everything else.
            rde_obs::event(
                "serve.slow_trace",
                &[("elapsed_us", us.into()), ("records", records.len().into())],
            );
            for record in records {
                rde_obs::journal::append(record);
            }
        }
    }
    // The access log: one structured line per request, emitted through
    // the journal so rotation, capacity bounds, and the JSONL format
    // come for free. (During capture this was diverted; by now capture
    // is off, so it always reaches the sink.)
    let cache = access.cache.map(|hit| if hit { "hit" } else { "miss" });
    let fields: [(&str, rde_obs::Field); 6] = [
        ("op", op.into()),
        ("mapping", mapping.into()),
        ("tenant", tenant.into()),
        ("outcome", outcome.into()),
        ("us", us.into()),
        ("cache", cache.unwrap_or_default().into()),
    ];
    // Only a request that consulted the arrow cache has a `cache` field.
    let present = if cache.is_some() { fields.len() } else { fields.len() - 1 };
    rde_obs::event("serve.access", &fields[..present]);
    reply
}

/// Per-request execution context: fresh cancel token (armed with the
/// `deadline-ms` header, watching the process interrupt flag) — never
/// shared with any other request.
fn request_config(request: &Request) -> Result<HomConfig, String> {
    let token = match request.u64_header("deadline-ms")? {
        Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
        None => CancelToken::new(),
    };
    Ok(HomConfig {
        node_budget: request.u64_header("node-budget")?,
        time_budget: request.u64_header("time-budget-ms")?.map(Duration::from_millis),
        ctx: ExecContext::default().with_cancel(token.watching_interrupt()),
        ..HomConfig::default()
    })
}

fn handle_request(state: &ServerState, request: &Request, access: &mut AccessInfo) -> Reply {
    let _span = rde_obs::span(
        "serve.request",
        &[
            ("op", request.op.as_str().into()),
            ("mapping", request.mapping.as_deref().unwrap_or("-").into()),
        ],
    );
    let config = match request_config(request) {
        Ok(config) => config,
        Err(e) => return Reply::Err(e),
    };
    // Pin this generation: even if a reload swaps mid-request, every
    // lookup below answers from the snapshot admission saw.
    let cat = current_catalog(state);
    let catalog = &cat.catalog;
    match request.op.as_str() {
        "PING" => Reply::Ok(vec!["pong".to_owned()]),
        "LIST" => op_list(catalog),
        "STATS" => op_stats(state, &cat),
        "METRICS" => op_metrics(state, &cat),
        "RELOAD" => reload_now(state),
        "CHASE" => with_mapping(catalog, request, |e| op_chase(e, request, &config)),
        "INVERTIBLE" => with_mapping(catalog, request, |e| op_invertible(e, &config)),
        "ARROW" => with_mapping(catalog, request, |e| op_arrow(e, request, &config, access)),
        "CERTAIN" => with_mapping(catalog, request, |e| op_certain(e, request, &config)),
        other => Reply::Err(format!("unknown op `{other}`")),
    }
}

fn with_mapping(
    catalog: &Catalog,
    request: &Request,
    f: impl FnOnce(&MappingEntry) -> Reply,
) -> Reply {
    let Some(name) = request.mapping.as_deref() else {
        return Reply::Err(format!("{} needs a mapping name", request.op));
    };
    match catalog.get(name) {
        Some(entry) => f(entry),
        None => Reply::Err(format!("no such mapping `{name}` (try LIST)")),
    }
}

fn warm_of(entry: &MappingEntry) -> Result<&WarmState, Reply> {
    entry.warm_state().map_err(|reason| {
        Reply::Err(format!("mapping `{}` has no warm cache: {reason}", entry.name))
    })
}

fn op_list(catalog: &Catalog) -> Reply {
    let lines = catalog
        .entries
        .values()
        .map(|e| {
            // `peek`, not force: listing a freshly reloaded catalog
            // must not trigger warm builds. `-` covers both "failed"
            // and "not built yet".
            let classes = match e.warm.peek() {
                Some(Ok(w)) => w.cache.stats().classes.to_string(),
                Some(Err(_)) | None => "-".to_owned(),
            };
            format!(
                "{} reverse={} classes={classes}",
                e.name,
                if e.reverse.is_some() { "yes" } else { "no" }
            )
        })
        .collect();
    Reply::Ok(lines)
}

/// Refresh the point-in-time gauges that only make sense at scrape
/// time: process uptime, the catalog generation, and per-mapping cache
/// occupancy. Called by both `STATS` and `METRICS` so the two views
/// agree. Only already-built warm caches report (peek, not force).
fn refresh_scrape_gauges(state: &ServerState, cat: &CatalogState) {
    gauge!("serve.uptime.ms").set(state.started.elapsed().as_millis() as u64);
    gauge!("serve.catalog.generation").set(cat.generation);
    for entry in cat.catalog.entries.values() {
        if let Some(Ok(warm)) = entry.warm.peek() {
            let s = warm.cache.stats();
            let labels = [("mapping", entry.name.as_str())];
            rde_obs::labeled_gauge("serve.cache.memo", &labels).set(s.memo_entries as u64);
            rde_obs::labeled_gauge("serve.cache.classes", &labels).set(s.classes as u64);
        }
    }
}

/// Aggregate the labeled `serve.request.us` histograms down to one
/// latency distribution per op (summed across mappings), for the
/// human-oriented `STATS` reply.
fn per_op_latency(snap: &rde_obs::Snapshot) -> BTreeMap<String, HistogramSnapshot> {
    let empty =
        HistogramSnapshot { buckets: [0; rde_obs::metrics::BUCKETS], count: 0, sum: 0, max: 0 };
    let mut per_op: BTreeMap<String, HistogramSnapshot> = BTreeMap::new();
    for (name, labels, h) in &snap.labeled_histograms {
        if name != "serve.request.us" {
            continue;
        }
        let Some(parsed) = rde_obs::metrics::parse_labels(labels) else { continue };
        let Some((_, op)) = parsed.iter().find(|(k, _)| k == "op") else { continue };
        let agg = per_op.entry(op.clone()).or_insert_with(|| empty.clone());
        agg.count += h.count;
        agg.sum += h.sum;
        agg.max = agg.max.max(h.max);
        for (slot, v) in agg.buckets.iter_mut().zip(&h.buckets) {
            *slot += v;
        }
    }
    per_op
}

fn op_stats(state: &ServerState, cat: &CatalogState) -> Reply {
    refresh_scrape_gauges(state, cat);
    let snap = rde_obs::snapshot();
    let mut lines = vec![format!("uptime-ms {}", state.started.elapsed().as_millis())];
    lines.push(format!(
        "reload generation={} ok={} rejected={}",
        cat.generation,
        state.reloads_ok.load(Ordering::Relaxed),
        state.reloads_rejected.load(Ordering::Relaxed)
    ));
    for (name, v) in &snap.counters {
        lines.push(format!("counter {name} {v}"));
    }
    for (name, v) in &snap.gauges {
        lines.push(format!("gauge {name} {v}"));
    }
    for (name, h) in &snap.histograms {
        lines.push(format!(
            "histogram {name} count={} p50<={} p99<={} max={}",
            h.count,
            h.quantile_bound(0.50),
            h.quantile_bound(0.99),
            h.max
        ));
    }
    // Per-op latency, aggregated across mappings from the labeled
    // request histograms.
    for (op, h) in per_op_latency(&snap) {
        lines.push(format!(
            "op {op} count={} p50<={} p99<={} max={}",
            h.count,
            h.quantile_bound(0.50),
            h.quantile_bound(0.99),
            h.max
        ));
    }
    // Per-mapping cache occupancy: the process-wide gauges above are
    // last-writer-wins across caches, so the authoritative per-tenant
    // numbers come straight from each cache.
    for entry in cat.catalog.entries.values() {
        if let Some(Ok(warm)) = entry.warm.peek() {
            let s = warm.cache.stats();
            lines.push(format!(
                "cache {} classes={} interned={} memo={} hits={} intern_hits={} \
                 memo_evictions={} class_evictions={}",
                entry.name,
                s.classes,
                s.interned,
                s.memo_entries,
                s.hits,
                s.intern_hits,
                s.memo_evictions,
                s.class_evictions
            ));
        }
    }
    Reply::Ok(lines)
}

/// `METRICS` — the full metrics registry (unlabeled and labeled) in
/// Prometheus text exposition format, one line per reply line. Scrape
/// gauges (uptime, generation, per-mapping cache occupancy) are
/// refreshed first so every exposition is point-in-time accurate.
fn op_metrics(state: &ServerState, cat: &CatalogState) -> Reply {
    refresh_scrape_gauges(state, cat);
    let text = rde_obs::expo::render(&rde_obs::snapshot());
    Reply::Ok(text.lines().map(str::to_owned).collect())
}

/// Map an engine error to the protocol's three failure forms. The
/// request's own cancellation (deadline) is a `SHED`; a cut budget is
/// an honest `UNKNOWN`; everything else is an `ERR`.
fn chase_reply(e: rde_chase::ChaseError) -> Reply {
    match e {
        rde_chase::ChaseError::Cancelled => Reply::shed("cancelled (request deadline)"),
        rde_chase::ChaseError::MatchBudgetExhausted { budget: Exhausted::Cancelled } => {
            Reply::shed("cancelled (request deadline)")
        }
        rde_chase::ChaseError::MatchBudgetExhausted { budget } => {
            Reply::Unknown(budget.to_string())
        }
        e => Reply::Err(e.to_string()),
    }
}

fn core_reply(e: CoreError) -> Reply {
    match e {
        CoreError::Cancelled => Reply::shed("cancelled (request deadline)"),
        CoreError::Chase(e) => chase_reply(e),
        e => Reply::Err(e.to_string()),
    }
}

/// `CHASE m` — chase the body instance through `m` and return the
/// target-restricted result. A fresh clone of the entry's post-parse
/// vocabulary replays exactly what a cold `rde chase` run does, so the
/// reply is bit-identical to the CLI's stdout.
fn op_chase(entry: &MappingEntry, request: &Request, config: &HomConfig) -> Reply {
    let mut vocab = entry.base_vocab.clone();
    let instance = match parse_instance(&mut vocab, &request.body) {
        Ok(i) => i,
        Err(e) => return Reply::Err(format!("instance: {e}")),
    };
    let options = match chase_options(request, config) {
        Ok(options) => options,
        Err(reply) => return reply,
    };
    match rde_chase::chase(&instance, &entry.mapping.dependencies, &mut vocab, &options) {
        Ok(result) => Reply::Ok(display::fact_lines(
            &vocab,
            &result.instance.restrict_to(&entry.mapping.target),
        )),
        Err(e) => chase_reply(e),
    }
}

/// The forward chase's options for a request: its budgets and context,
/// and the variant its `variant` header names (the default without
/// one; garbage is a typed `variant:` error).
fn chase_options(request: &Request, config: &HomConfig) -> Result<ChaseOptions, Reply> {
    let mut options = ChaseOptions { hom: config.clone(), ..ChaseOptions::default() };
    if let Some(text) = request.get_header("variant") {
        match text.parse::<rde_chase::ChaseVariant>() {
            Ok(variant) => options.variant = variant,
            Err(e) => return Err(Reply::Err(format!("variant: {e}"))),
        }
    }
    Ok(options)
}

/// `INVERTIBLE m` — the homomorphism-property check (Thm 3.13) against
/// the warm cache. Every request scans the same family under its own
/// budgets; the memo makes repeat checks cheap.
fn op_invertible(entry: &MappingEntry, config: &HomConfig) -> Reply {
    let warm = match warm_of(entry) {
        Ok(w) => w,
        Err(reply) => return reply,
    };
    let mut stats = HomStats::default();
    let vocab = lock(&warm.vocab);
    match check_homomorphism_property_cached(&warm.cache, &warm.family, config, &mut stats) {
        BoundedVerdict::HoldsWithinBound => Reply::Ok(vec!["HOLDS within bound".to_owned()]),
        BoundedVerdict::Counterexample { i1, i2 } => Reply::Ok(vec![
            "FAILS".to_owned(),
            display::instance_inline(&vocab, &i1),
            display::instance_inline(&vocab, &i2),
        ]),
        BoundedVerdict::Unknown { budget: Exhausted::Cancelled } => {
            Reply::shed("cancelled (request deadline)")
        }
        BoundedVerdict::Unknown { budget } => Reply::Unknown(budget.to_string()),
    }
}

/// `ARROW m` — decide `I₁ →_M I₂` for the two body instances
/// (separated by a `--` line). Both are interned into the shared
/// cache: the vocabulary lock makes constants from different requests
/// resolve identically, and the eviction policy keeps a hostile
/// request stream from growing the cache without bound.
fn op_arrow(
    entry: &MappingEntry,
    request: &Request,
    config: &HomConfig,
    access: &mut AccessInfo,
) -> Reply {
    let warm = match warm_of(entry) {
        Ok(w) => w,
        Err(reply) => return reply,
    };
    let Some((first, second)) = split_at_separator(&request.body) else {
        return Reply::Err("ARROW body needs two instances separated by a `--` line".into());
    };
    let mut handles = Vec::with_capacity(2);
    {
        let mut vocab = lock(&warm.vocab);
        for text in [first, second] {
            let instance = match parse_instance(&mut vocab, text) {
                Ok(i) => i,
                Err(e) => return Reply::Err(format!("instance: {e}")),
            };
            match warm.cache.intern(&entry.mapping, &instance, &mut vocab, config) {
                Ok(handle) => handles.push(handle),
                Err(e) => return core_reply(e),
            }
        }
    }
    let (verdict, hit) = warm.cache.arrow_classes_probed(&handles[0], &handles[1], config);
    access.cache = Some(hit);
    match verdict {
        Verdict::Holds => Reply::Ok(vec!["YES".to_owned()]),
        Verdict::Fails => Reply::Ok(vec!["NO".to_owned()]),
        Verdict::Unknown { budget: Exhausted::Cancelled } => {
            Reply::shed("cancelled (request deadline)")
        }
        Verdict::Unknown { budget } => Reply::Unknown(budget.to_string()),
    }
}

/// The text before and after the first `--` line of `body`, both
/// borrowed from it.
fn split_at_separator(body: &str) -> Option<(&str, &str)> {
    let mut start = 0;
    for line in body.split_inclusive('\n') {
        let end = start + line.len();
        if line.trim() == "--" {
            return Some((&body[..start], &body[end..]));
        }
        start = end;
    }
    None
}

/// `CERTAIN m` — reverse certain answers (Thm 6.5) of the `query=`
/// header over the body instance, using the catalog's `NAME.rev`
/// reverse mapping. The forward chase runs the variant the `variant`
/// header names, as `CHASE` does; every variant yields a universal
/// solution, so the answers do not depend on it.
fn op_certain(entry: &MappingEntry, request: &Request, config: &HomConfig) -> Reply {
    let Some(reverse) = &entry.reverse else {
        return Reply::Err(format!("mapping `{}` has no reverse (.rev) mapping", entry.name));
    };
    let Some(query_text) = request.get_header("query") else {
        return Reply::Err("CERTAIN needs a query= header".into());
    };
    let mut vocab = entry.base_vocab.clone();
    let instance = match parse_instance(&mut vocab, &request.body) {
        Ok(i) => i,
        Err(e) => return Reply::Err(format!("instance: {e}")),
    };
    let q = match ConjunctiveQuery::parse(&mut vocab, query_text) {
        Ok(q) => q,
        Err(e) => return Reply::Err(format!("query: {e}")),
    };
    let forward = match chase_options(request, config) {
        Ok(options) => options,
        Err(reply) => return reply,
    };
    let target = match rde_chase::chase_mapping(&instance, &entry.mapping, &mut vocab, &forward) {
        Ok(target) => target,
        Err(e) => return chase_reply(e),
    };
    let options =
        DisjunctiveChaseOptions { hom: config.clone(), ..DisjunctiveChaseOptions::default() };
    match rde_query::reverse_certain_answers_from_target(
        &q,
        &target,
        &entry.mapping,
        reverse,
        &mut vocab,
        &options,
    ) {
        Ok(answers) => Reply::Ok(
            answers
                .iter()
                .map(|tuple| {
                    let rendered: Vec<String> =
                        tuple.iter().map(|&v| vocab.value_name(v)).collect();
                    format!("({})", rendered.join(", "))
                })
                .collect(),
        ),
        Err(e) => chase_reply(e),
    }
}

/// What [`spawn`] hands back: the bound address, the shutdown token,
/// and the serving thread's join handle.
pub type SpawnedServer =
    (std::net::SocketAddr, CancelToken, std::thread::JoinHandle<Result<(), ServeError>>);

/// Spawn a bound server onto a background thread, returning the
/// address, the shutdown token, and the join handle. The canonical way
/// to embed the daemon in tests and benches.
pub fn spawn(options: ServeOptions) -> Result<SpawnedServer, ServeError> {
    let server = Server::bind(options)?;
    let addr = server
        .local_addr()
        .map_err(|e| ServeError::Bind(format!("cannot resolve bound address: {e}")))?;
    let shutdown = CancelToken::new();
    let token = shutdown.clone();
    let handle = std::thread::spawn(move || server.serve(&token));
    Ok((addr, shutdown, handle))
}

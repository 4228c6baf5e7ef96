//! Flag parsing for the `rde` CLI.

use rde_chase::ChaseVariant;

/// Parsed command-line options: positional arguments plus the bounded-
/// universe knobs shared by the checking commands.
#[derive(Debug, Clone)]
pub struct Options {
    /// Positional (non-flag) arguments, in order.
    pub positional: Vec<String>,
    /// `--consts N`: constant-pool size for bounded universes.
    pub consts: usize,
    /// `--nulls N`: null-pool size.
    pub nulls: usize,
    /// `--facts N`: per-instance fact budget.
    pub facts: usize,
    /// `--examples N`: counterexample/example display budget.
    pub examples: usize,
    /// `--node-budget N`: cap each homomorphism search at N nodes;
    /// checks degrade to UNKNOWN instead of running unbounded.
    pub node_budget: Option<u64>,
    /// `--time-budget-ms N`: wall-clock cap per homomorphism search.
    pub time_budget_ms: Option<u64>,
    /// `--retries N`: on an UNKNOWN verdict, retry the check up to N
    /// more times with exponentially escalated budgets.
    pub retries: u32,
    /// `--deadline-ms N`: wall-clock cap for the whole command; on
    /// expiry the engines cancel cooperatively and the process exits
    /// with a distinct status instead of returning a partial answer.
    pub deadline_ms: Option<u64>,
    /// `--stats`: print search-work counters after the answer.
    pub stats: bool,
    /// `--trace-out PATH`: write the JSONL event journal to PATH.
    pub trace_out: Option<String>,
    /// `--metrics`: print a metrics-registry snapshot table at exit.
    pub metrics: bool,
    /// `--checkpoint PATH`: (chase/core) write a resumable snapshot of
    /// the chase round state to PATH while running.
    pub checkpoint: Option<String>,
    /// `--checkpoint-every N`: snapshot cadence in completed rounds
    /// (default 1; `0` disables writing even with `--checkpoint`).
    pub checkpoint_every: u64,
    /// `--resume PATH`: resume the chase from a snapshot written by a
    /// previous run of the same command; the result is bit-identical
    /// to an uninterrupted run.
    pub resume: Option<String>,
    /// `--addr HOST:PORT`: (serve) listen address; port 0 picks a free
    /// port and prints it.
    pub addr: Option<String>,
    /// `--max-inflight N`: (serve) concurrent-request ceiling before
    /// requests are shed.
    pub max_inflight: Option<usize>,
    /// `--cache-memo N`: (serve) per-mapping memo-table entry cap.
    pub cache_memo: Option<usize>,
    /// `--cache-classes N`: (serve) per-mapping interned-class cap.
    pub cache_classes: Option<usize>,
    /// `--server-deadline-ms N`: (call) request deadline enforced *by
    /// the server* (sent as the `deadline-ms` header; an elapsed one
    /// comes back as a SHED reply). Distinct from `--deadline-ms`,
    /// which caps the client's own wait.
    pub server_deadline_ms: Option<u64>,
    /// `--access-log PATH`: (serve) stream the request journal — one
    /// `serve.access` JSONL line per request, plus any sampled span
    /// trees — to a rotating file at PATH.
    pub access_log: Option<String>,
    /// `--trace-slow-ms N`: (serve) buffer each request's span tree
    /// and write it to the journal only when the request took ≥ N ms
    /// (`0` keeps every tree).
    pub trace_slow_ms: Option<u64>,
    /// `--interval-ms N`: (top) polling cadence (default 1000).
    pub interval_ms: u64,
    /// `--iterations N`: (top) stop after N refreshes instead of
    /// running until interrupted.
    pub iterations: Option<u64>,
    /// `--request-id N`: (profile) filter a journal *file* down to one
    /// request's records before building the span breakdown.
    pub request_id: Option<u64>,
    /// `--tenant-quota NAME=rps[:burst]`: (serve) per-tenant
    /// token-bucket admission quota; repeatable. The name `default`
    /// covers the anonymous tenant and any tenant without its own
    /// quota.
    pub tenant_quotas: Vec<String>,
    /// `--conn-idle-ms N`: (serve) per-connection read deadline; a
    /// peer idle (or stalled mid-request) that long is disconnected.
    /// `0` disables the deadline.
    pub conn_idle_ms: Option<u64>,
    /// `--max-strikes N`: (serve) recoverable protocol violations a
    /// connection may accumulate before it is closed.
    pub max_strikes: Option<u32>,
    /// `--tenant NAME`: (call) tenant identity sent with each request
    /// (the server's quota buckets key on it).
    pub tenant: Option<String>,
    /// `--variant {naive,semi-naive,restricted}`: chase variant for
    /// every chase the command runs (and, for `call`, the `variant`
    /// header sent to the server). `None` = the build's default
    /// variant; `call` then sends no header and the server picks.
    pub variant: Option<ChaseVariant>,
    /// `--require-terminating`: (serve) reject catalog entries whose
    /// termination the static analyzer cannot prove.
    pub require_terminating: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            positional: Vec::new(),
            consts: 2,
            nulls: 1,
            facts: 2,
            examples: 5,
            node_budget: None,
            time_budget_ms: None,
            retries: 0,
            deadline_ms: None,
            stats: false,
            trace_out: None,
            metrics: false,
            checkpoint: None,
            checkpoint_every: 1,
            resume: None,
            addr: None,
            max_inflight: None,
            cache_memo: None,
            cache_classes: None,
            server_deadline_ms: None,
            access_log: None,
            trace_slow_ms: None,
            interval_ms: 1000,
            iterations: None,
            request_id: None,
            tenant_quotas: Vec::new(),
            conn_idle_ms: None,
            max_strikes: None,
            tenant: None,
            variant: None,
            require_terminating: false,
        }
    }
}

impl Options {
    /// Parse `args` (everything after the subcommand).
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut flag = |name: &str| -> Result<usize, String> {
                it.next()
                    .ok_or_else(|| format!("{name} requires a value"))?
                    .parse::<usize>()
                    .map_err(|_| format!("{name} requires an integer value"))
            };
            match arg.as_str() {
                "--consts" => opts.consts = flag("--consts")?,
                "--nulls" => opts.nulls = flag("--nulls")?,
                "--facts" => opts.facts = flag("--facts")?,
                "--examples" => opts.examples = flag("--examples")?,
                "--node-budget" => {
                    opts.node_budget = Some(
                        it.next()
                            .ok_or_else(|| "--node-budget requires a value".to_string())?
                            .parse::<u64>()
                            .map_err(|_| "--node-budget requires an integer value".to_string())?,
                    );
                }
                "--time-budget-ms" => {
                    opts.time_budget_ms = Some(
                        it.next()
                            .ok_or_else(|| "--time-budget-ms requires a value".to_string())?
                            .parse::<u64>()
                            .map_err(|_| {
                                "--time-budget-ms requires an integer value".to_string()
                            })?,
                    );
                }
                "--retries" => {
                    opts.retries = it
                        .next()
                        .ok_or_else(|| "--retries requires a value".to_string())?
                        .parse::<u32>()
                        .map_err(|_| "--retries requires an integer value".to_string())?;
                }
                "--deadline-ms" => {
                    opts.deadline_ms = Some(
                        it.next()
                            .ok_or_else(|| "--deadline-ms requires a value".to_string())?
                            .parse::<u64>()
                            .map_err(|_| "--deadline-ms requires an integer value".to_string())?,
                    );
                }
                "--trace-out" => {
                    opts.trace_out = Some(
                        it.next().ok_or_else(|| "--trace-out requires a path".to_string())?.clone(),
                    );
                }
                "--checkpoint" => {
                    opts.checkpoint = Some(
                        it.next()
                            .ok_or_else(|| "--checkpoint requires a path".to_string())?
                            .clone(),
                    );
                }
                "--checkpoint-every" => {
                    opts.checkpoint_every = it
                        .next()
                        .ok_or_else(|| "--checkpoint-every requires a value".to_string())?
                        .parse::<u64>()
                        .map_err(|_| "--checkpoint-every requires an integer value".to_string())?;
                }
                "--resume" => {
                    opts.resume = Some(
                        it.next().ok_or_else(|| "--resume requires a path".to_string())?.clone(),
                    );
                }
                "--addr" => {
                    opts.addr = Some(
                        it.next().ok_or_else(|| "--addr requires host:port".to_string())?.clone(),
                    );
                }
                "--max-inflight" => opts.max_inflight = Some(flag("--max-inflight")?),
                "--cache-memo" => opts.cache_memo = Some(flag("--cache-memo")?),
                "--cache-classes" => opts.cache_classes = Some(flag("--cache-classes")?),
                "--server-deadline-ms" => {
                    opts.server_deadline_ms = Some(
                        it.next()
                            .ok_or_else(|| "--server-deadline-ms requires a value".to_string())?
                            .parse::<u64>()
                            .map_err(|_| {
                                "--server-deadline-ms requires an integer value".to_string()
                            })?,
                    );
                }
                "--access-log" => {
                    opts.access_log = Some(
                        it.next()
                            .ok_or_else(|| "--access-log requires a path".to_string())?
                            .clone(),
                    );
                }
                "--trace-slow-ms" => {
                    opts.trace_slow_ms = Some(
                        it.next()
                            .ok_or_else(|| "--trace-slow-ms requires a value".to_string())?
                            .parse::<u64>()
                            .map_err(|_| "--trace-slow-ms requires an integer value".to_string())?,
                    );
                }
                "--interval-ms" => {
                    opts.interval_ms = it
                        .next()
                        .ok_or_else(|| "--interval-ms requires a value".to_string())?
                        .parse::<u64>()
                        .map_err(|_| "--interval-ms requires an integer value".to_string())?;
                }
                "--iterations" => {
                    opts.iterations = Some(
                        it.next()
                            .ok_or_else(|| "--iterations requires a value".to_string())?
                            .parse::<u64>()
                            .map_err(|_| "--iterations requires an integer value".to_string())?,
                    );
                }
                "--request-id" => {
                    opts.request_id = Some(
                        it.next()
                            .ok_or_else(|| "--request-id requires a value".to_string())?
                            .parse::<u64>()
                            .map_err(|_| "--request-id requires an integer value".to_string())?,
                    );
                }
                "--tenant-quota" => {
                    opts.tenant_quotas.push(
                        it.next()
                            .ok_or_else(|| "--tenant-quota requires NAME=rps[:burst]".to_string())?
                            .clone(),
                    );
                }
                "--conn-idle-ms" => {
                    opts.conn_idle_ms = Some(
                        it.next()
                            .ok_or_else(|| "--conn-idle-ms requires a value".to_string())?
                            .parse::<u64>()
                            .map_err(|_| "--conn-idle-ms requires an integer value".to_string())?,
                    );
                }
                "--max-strikes" => {
                    opts.max_strikes = Some(
                        it.next()
                            .ok_or_else(|| "--max-strikes requires a value".to_string())?
                            .parse::<u32>()
                            .map_err(|_| "--max-strikes requires an integer value".to_string())?,
                    );
                }
                "--tenant" => {
                    opts.tenant = Some(
                        it.next().ok_or_else(|| "--tenant requires a name".to_string())?.clone(),
                    );
                }
                "--variant" => {
                    opts.variant = Some(
                        it.next()
                            .ok_or_else(|| {
                                "--variant requires `naive`, `semi-naive`, or `restricted`"
                                    .to_string()
                            })?
                            .parse::<ChaseVariant>()?,
                    );
                }
                "--require-terminating" => opts.require_terminating = true,
                "--metrics" => opts.metrics = true,
                "--stats" => opts.stats = true,
                other if other.starts_with("--") => {
                    return Err(format!("unknown flag `{other}`"));
                }
                other => opts.positional.push(other.to_owned()),
            }
        }
        Ok(opts)
    }

    /// The `n`-th positional argument or an error naming it.
    pub fn positional(&self, n: usize, name: &str) -> Result<&str, String> {
        self.positional
            .get(n)
            .map(String::as_str)
            .ok_or_else(|| format!("missing argument: {name}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_and_positionals() {
        let o = Options::parse(&strings(&["a.map", "b.inst"])).unwrap();
        assert_eq!(o.positional, vec!["a.map", "b.inst"]);
        assert_eq!(o.consts, 2);
        assert_eq!(o.positional(0, "mapping").unwrap(), "a.map");
        assert!(o.positional(2, "query").is_err());
    }

    #[test]
    fn flags_interleave_with_positionals() {
        let o =
            Options::parse(&strings(&["--consts", "3", "a", "--nulls", "2", "b", "--facts", "4"]))
                .unwrap();
        assert_eq!((o.consts, o.nulls, o.facts), (3, 2, 4));
        assert_eq!(o.positional, vec!["a", "b"]);
    }

    #[test]
    fn stats_and_budget_flags() {
        let o = Options::parse(&strings(&["--stats", "m.map", "--node-budget", "5000"])).unwrap();
        assert!(o.stats);
        assert_eq!(o.node_budget, Some(5000));
        assert_eq!(o.positional, vec!["m.map"]);
        let o = Options::parse(&strings(&["m.map"])).unwrap();
        assert!(!o.stats);
        assert_eq!(o.node_budget, None);
        assert!(Options::parse(&strings(&["--node-budget"])).is_err());
        assert!(Options::parse(&strings(&["--node-budget", "x"])).is_err());
    }

    #[test]
    fn observability_and_retry_flags() {
        let o = Options::parse(&strings(&[
            "m.map",
            "--time-budget-ms",
            "250",
            "--retries",
            "3",
            "--trace-out",
            "/tmp/t.jsonl",
            "--metrics",
        ]))
        .unwrap();
        assert_eq!(o.time_budget_ms, Some(250));
        assert_eq!(o.retries, 3);
        assert_eq!(o.trace_out.as_deref(), Some("/tmp/t.jsonl"));
        assert!(o.metrics);
        let o = Options::parse(&strings(&["m.map"])).unwrap();
        assert_eq!((o.time_budget_ms, o.retries, o.metrics), (None, 0, false));
        assert!(o.trace_out.is_none());
        assert!(Options::parse(&strings(&["--time-budget-ms"])).is_err());
        assert!(Options::parse(&strings(&["--retries", "x"])).is_err());
        assert!(Options::parse(&strings(&["--trace-out"])).is_err());
    }

    #[test]
    fn deadline_flag() {
        let o = Options::parse(&strings(&["m.map", "--deadline-ms", "500"])).unwrap();
        assert_eq!(o.deadline_ms, Some(500));
        let o = Options::parse(&strings(&["m.map"])).unwrap();
        assert_eq!(o.deadline_ms, None);
        assert!(Options::parse(&strings(&["--deadline-ms"])).is_err());
        assert!(Options::parse(&strings(&["--deadline-ms", "soon"])).is_err());
    }

    #[test]
    fn checkpoint_flags() {
        let o = Options::parse(&strings(&[
            "m.map",
            "i.inst",
            "--checkpoint",
            "/tmp/c.ck",
            "--checkpoint-every",
            "3",
        ]))
        .unwrap();
        assert_eq!(o.checkpoint.as_deref(), Some("/tmp/c.ck"));
        assert_eq!(o.checkpoint_every, 3);
        assert!(o.resume.is_none());
        let o = Options::parse(&strings(&["m.map", "i.inst", "--resume", "/tmp/c.ck"])).unwrap();
        assert_eq!(o.resume.as_deref(), Some("/tmp/c.ck"));
        assert_eq!(o.checkpoint_every, 1, "default cadence is every round");
        assert!(Options::parse(&strings(&["--checkpoint"])).is_err());
        assert!(Options::parse(&strings(&["--checkpoint-every", "x"])).is_err());
        assert!(Options::parse(&strings(&["--resume"])).is_err());
    }

    #[test]
    fn telemetry_flags() {
        let o = Options::parse(&strings(&[
            "dir",
            "--access-log",
            "/tmp/a.jsonl",
            "--trace-slow-ms",
            "25",
        ]))
        .unwrap();
        assert_eq!(o.access_log.as_deref(), Some("/tmp/a.jsonl"));
        assert_eq!(o.trace_slow_ms, Some(25));
        let o = Options::parse(&strings(&["addr", "--interval-ms", "200", "--iterations", "3"]))
            .unwrap();
        assert_eq!((o.interval_ms, o.iterations), (200, Some(3)));
        let o = Options::parse(&strings(&["j.jsonl", "--request-id", "42"])).unwrap();
        assert_eq!(o.request_id, Some(42));
        let o = Options::parse(&strings(&["x"])).unwrap();
        assert_eq!(o.interval_ms, 1000, "default polling cadence");
        assert!(o.access_log.is_none() && o.trace_slow_ms.is_none());
        assert!(o.iterations.is_none() && o.request_id.is_none());
        assert!(Options::parse(&strings(&["--access-log"])).is_err());
        assert!(Options::parse(&strings(&["--trace-slow-ms", "soon"])).is_err());
        assert!(Options::parse(&strings(&["--request-id", "x"])).is_err());
    }

    #[test]
    fn hardening_flags() {
        let o = Options::parse(&strings(&[
            "dir",
            "--tenant-quota",
            "noisy=5:10",
            "--tenant-quota",
            "default=50",
            "--conn-idle-ms",
            "30000",
            "--max-strikes",
            "5",
        ]))
        .unwrap();
        assert_eq!(o.tenant_quotas, vec!["noisy=5:10", "default=50"], "repeatable, in order");
        assert_eq!(o.conn_idle_ms, Some(30000));
        assert_eq!(o.max_strikes, Some(5));
        let o = Options::parse(&strings(&["addr", "PING", "--tenant", "noisy"])).unwrap();
        assert_eq!(o.tenant.as_deref(), Some("noisy"));
        let o = Options::parse(&strings(&["dir"])).unwrap();
        assert!(o.tenant_quotas.is_empty());
        assert!(o.conn_idle_ms.is_none() && o.max_strikes.is_none() && o.tenant.is_none());
        assert!(Options::parse(&strings(&["--tenant-quota"])).is_err());
        assert!(Options::parse(&strings(&["--conn-idle-ms", "soon"])).is_err());
        assert!(Options::parse(&strings(&["--max-strikes"])).is_err());
        assert!(Options::parse(&strings(&["--tenant"])).is_err());
    }

    #[test]
    fn variant_and_termination_flags() {
        let o = Options::parse(&strings(&["m.map", "--variant", "restricted"])).unwrap();
        assert_eq!(o.variant, Some(ChaseVariant::Restricted));
        let o = Options::parse(&strings(&["m.map", "--variant", "naive"])).unwrap();
        assert_eq!(o.variant, Some(ChaseVariant::Naive));
        let o = Options::parse(&strings(&["m.map", "--variant", "semi-naive"])).unwrap();
        assert_eq!(o.variant, Some(ChaseVariant::SemiNaive));
        let o = Options::parse(&strings(&["dir", "--require-terminating"])).unwrap();
        assert!(o.require_terminating);
        let o = Options::parse(&strings(&["m.map"])).unwrap();
        assert_eq!(o.variant, None, "no flag means the build default, no header");
        assert!(!o.require_terminating);
        assert!(Options::parse(&strings(&["--variant"])).is_err());
        assert!(Options::parse(&strings(&["--variant", "oblivious"])).is_err());
    }

    #[test]
    fn bad_flags_are_reported() {
        assert!(Options::parse(&strings(&["--consts"])).is_err());
        assert!(Options::parse(&strings(&["--consts", "x"])).is_err());
        assert!(Options::parse(&strings(&["--wat", "1"])).is_err());
    }
}

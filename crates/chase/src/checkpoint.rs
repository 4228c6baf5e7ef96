//! Crash-safe chase checkpointing.
//!
//! A long recursive chase can outlive its process (deploy, OOM kill,
//! Ctrl-C). With [`CheckpointPolicy`] set, the engine serializes its
//! complete round state every N rounds; `ChaseOptions::resume_from`
//! restarts from such a snapshot and — because the snapshot preserves
//! per-relation row insertion order, the delta, the per-dependency
//! fired-key sets, and the fresh-null high-water mark — the resumed run
//! is **bit-identical** to an uninterrupted one, not merely
//! hom-equivalent (pinned by a kill-and-resume proptest).
//!
//! ## Format (version 1)
//!
//! A plain-text, line-oriented file, small enough to eyeball:
//!
//! ```text
//! rde-chase-checkpoint v1
//! rounds <u64>
//! fired <u64>
//! nulls <usize>              # vocabulary null high-water mark
//! hom <nodes> <backtracks> <found>
//! instance <n_relations>
//! rel <rel_id> <arity> <n_rows>
//! <row: one value token per column>...
//! delta none | delta some <n_facts>
//! fact <rel_id> <arity> <values...>...    # relation by relation
//! deps <n_deps>
//! dep <index> <n_keys>
//! key <len> <values...>...
//! stats <n_rounds>
//! rs <delta> <matches> <duplicates> <satisfied> <triggers> <fired> <inserted> <nodes> <backtracks> <found>...
//! provenance <n_records>
//! prov <dependency> <n_assignments> (<var> <value>)* <n_produced>
//! fact <rel_id> <arity> <values...>...
//! end
//! ```
//!
//! Values are `c<id>` (constant) or `n<id>` (null). Rows appear in
//! insertion order (the order the hom-search posting lists see);
//! fired keys are sorted so the same state always produces the same
//! bytes. The delta is the previous round's insertions: written
//! relation by relation, each relation's facts in row order. Earlier
//! writers listed them in insertion order across relations; both read
//! the same. Writes go to `<path>.tmp` then rename, so a crash mid-write
//! leaves the previous snapshot intact. Loading validates the version
//! line and every count, and that the snapshot is one the engine could
//! have written: each relation's delta facts are exactly its last rows,
//! in order, and every fired key has its dependency's premise slot
//! count. Any mismatch is a typed [`ChaseError::Checkpoint`], never a
//! panic.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use std::collections::BTreeMap;

use rde_hom::HomStats;
use rde_model::{ConstId, Fact, Instance, NullId, RelId, RowSet, Value};

use crate::standard::{Delta, FiringRecord, RoundStats};
use crate::ChaseError;

/// Magic first line; bump the version when the layout changes.
const HEADER: &str = "rde-chase-checkpoint v1";

/// When and where the chase writes snapshots.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Snapshot file path (written atomically via `<path>.tmp`).
    pub path: PathBuf,
    /// Write after every `every` completed rounds. `0` disables.
    pub every: u64,
}

impl CheckpointPolicy {
    /// Checkpoint to `path` after every `every` completed rounds.
    pub fn new(path: impl Into<PathBuf>, every: u64) -> Self {
        CheckpointPolicy { path: path.into(), every }
    }
}

/// Borrowed view of the engine's round state, for writing.
pub(crate) struct SnapshotRef<'a> {
    pub rounds: u64,
    pub fired: u64,
    pub null_count: usize,
    pub hom_total: HomStats,
    pub instance: &'a Instance,
    /// Row ranges of `instance`, as the engine keeps its delta.
    pub delta: Option<&'a [(RelId, u32, u32)]>,
    pub fired_keys: &'a [RowSet],
    pub round_stats: &'a [RoundStats],
    pub provenance: &'a [FiringRecord],
}

/// Owned round state, as read back for a resume.
#[derive(Debug)]
pub(crate) struct Snapshot {
    pub rounds: u64,
    pub fired: u64,
    pub null_count: usize,
    pub hom_total: HomStats,
    pub instance: Instance,
    pub delta: Option<Delta>,
    pub fired_keys: Vec<RowSet>,
    pub round_stats: Vec<RoundStats>,
    pub provenance: Vec<FiringRecord>,
}

fn ioerr(what: &str, path: &Path, e: std::io::Error) -> ChaseError {
    ChaseError::Checkpoint { message: format!("{what} {}: {e}", path.display()) }
}

fn malformed(message: impl Into<String>) -> ChaseError {
    ChaseError::Checkpoint { message: message.into() }
}

fn enc_value(out: &mut String, v: Value) {
    match v {
        Value::Const(c) => {
            let _ = write!(out, " c{}", c.0);
        }
        Value::Null(n) => {
            let _ = write!(out, " n{}", n.0);
        }
    }
}

fn dec_value(tok: &str) -> Result<Value, ChaseError> {
    let (kind, id) = tok.split_at(1.min(tok.len()));
    let id: u32 = id.parse().map_err(|_| malformed(format!("bad value token {tok:?}")))?;
    match kind {
        "c" => Ok(Value::Const(ConstId(id))),
        "n" => Ok(Value::Null(NullId(id))),
        _ => Err(malformed(format!("bad value token {tok:?}"))),
    }
}

fn enc_fact(out: &mut String, tag: &str, rel: RelId, args: &[Value]) {
    let _ = write!(out, "{tag} {} {}", rel.0, args.len());
    for &v in args {
        enc_value(out, v);
    }
    out.push('\n');
}

/// Write a snapshot atomically. The `chase.checkpoint.write` injection
/// point (scoped to the calling chase's context) simulates an I/O
/// failure for the resilience suite.
pub(crate) fn save(
    path: &Path,
    injector: &rde_faults::FaultInjector,
    snap: &SnapshotRef<'_>,
) -> Result<(), ChaseError> {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    let _ = writeln!(out, "rounds {}", snap.rounds);
    let _ = writeln!(out, "fired {}", snap.fired);
    let _ = writeln!(out, "nulls {}", snap.null_count);
    let _ = writeln!(
        out,
        "hom {} {} {}",
        snap.hom_total.nodes, snap.hom_total.backtracks, snap.hom_total.found
    );

    let mut rels: Vec<(RelId, &rde_model::RelationData)> = snap.instance.relations().collect();
    rels.sort_by_key(|(r, _)| r.0);
    let _ = writeln!(out, "instance {}", rels.len());
    for (rel, data) in rels {
        let arity = data.arity();
        let _ = writeln!(out, "rel {} {arity} {}", rel.0, data.len());
        for tuple in data.tuples() {
            let mut row = String::new();
            for &v in tuple.iter() {
                enc_value(&mut row, v);
            }
            out.push_str(row.trim_start());
            out.push('\n');
        }
    }

    match snap.delta {
        None => out.push_str("delta none\n"),
        Some(ranges) => {
            let n: u32 = ranges.iter().map(|&(_, start, end)| end - start).sum();
            let _ = writeln!(out, "delta some {n}");
            for &(rel, start, end) in ranges {
                if let Some(data) = snap.instance.relation(rel) {
                    for row in start..end {
                        enc_fact(&mut out, "fact", rel, data.row_slice(row));
                    }
                }
            }
        }
    }

    let _ = writeln!(out, "deps {}", snap.fired_keys.len());
    for (di, keys) in snap.fired_keys.iter().enumerate() {
        let _ = writeln!(out, "dep {di} {}", keys.len());
        let mut sorted: Vec<&[Value]> = keys.rows().collect();
        sorted.sort_unstable();
        for key in sorted {
            let mut line = format!("key {}", key.len());
            for &v in key {
                enc_value(&mut line, v);
            }
            out.push_str(&line);
            out.push('\n');
        }
    }

    let _ = writeln!(out, "stats {}", snap.round_stats.len());
    for s in snap.round_stats {
        let _ = writeln!(
            out,
            "rs {} {} {} {} {} {} {} {} {} {}",
            s.delta,
            s.matches,
            s.duplicates,
            s.satisfied,
            s.triggers,
            s.fired,
            s.inserted,
            s.hom.nodes,
            s.hom.backtracks,
            s.hom.found
        );
    }

    let _ = writeln!(out, "provenance {}", snap.provenance.len());
    for rec in snap.provenance {
        let mut line = format!("prov {} {}", rec.dependency, rec.assignment.len());
        for &(var, v) in &rec.assignment {
            let _ = write!(line, " {}", var.0);
            enc_value(&mut line, v);
        }
        let _ = write!(line, " {}", rec.produced.len());
        out.push_str(&line);
        out.push('\n');
        for fact in &rec.produced {
            enc_fact(&mut out, "fact", fact.relation(), fact.args());
        }
    }
    out.push_str("end\n");

    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &out).map_err(|e| ioerr("writing", &tmp, e))?;
    // The injection point sits **between create and rename** — exactly
    // the window where a real crash or I/O error strands `<path>.tmp`
    // on disk. The stranded file is what [`sweep_stale_tmp`] exists to
    // clean up; moving this point earlier would make the campaign
    // exercise a failure mode that leaves no residue.
    rde_faults::fault_point!(
        injector,
        "chase.checkpoint.write",
        malformed("injected checkpoint write failure")
    );
    std::fs::rename(&tmp, path).map_err(|e| ioerr("renaming", &tmp, e))?;
    Ok(())
}

/// Remove a stale `<path>.tmp` stranded by a crash (or injected fault)
/// between the checkpoint's create and rename. Called when a chase
/// starts writing checkpoints to `path` and when it resumes from one;
/// returns whether a stale file was actually swept (also counted on
/// `chase.checkpoint.tmp_swept`). The previous *complete* snapshot at
/// `path` is never touched.
pub fn sweep_stale_tmp(path: &Path) -> bool {
    let tmp = path.with_extension("tmp");
    if std::fs::remove_file(&tmp).is_ok() {
        rde_obs::counter!("chase.checkpoint.tmp_swept").inc();
        rde_obs::event("chase.checkpoint.swept", &[]);
        true
    } else {
        false
    }
}

/// Token-stream reader over the snapshot file.
struct Reader<'a> {
    lines: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> Reader<'a> {
    fn next_line(&mut self) -> Result<&'a str, ChaseError> {
        self.line_no += 1;
        self.lines
            .next()
            .ok_or_else(|| malformed(format!("truncated checkpoint at line {}", self.line_no)))
    }

    /// Read a line expected to start with `tag`, returning the
    /// remaining whitespace-separated tokens.
    fn tagged(&mut self, tag: &str) -> Result<Vec<&'a str>, ChaseError> {
        let line = self.next_line()?;
        let mut toks = line.split_ascii_whitespace();
        match toks.next() {
            Some(t) if t == tag => Ok(toks.collect()),
            other => Err(malformed(format!(
                "expected {tag:?} at line {}, found {other:?}",
                self.line_no
            ))),
        }
    }
}

fn parse_num<T: std::str::FromStr>(tok: Option<&&str>, what: &str) -> Result<T, ChaseError> {
    tok.ok_or_else(|| malformed(format!("missing {what}")))?
        .parse()
        .map_err(|_| malformed(format!("bad {what}")))
}

fn dec_fact(toks: &[&str]) -> Result<Fact, ChaseError> {
    let rel: u32 = parse_num(toks.first(), "fact relation")?;
    let arity: usize = parse_num(toks.get(1), "fact arity")?;
    if toks.len() != 2 + arity {
        return Err(malformed("fact arity does not match its value count"));
    }
    let args = toks[2..].iter().map(|t| dec_value(t)).collect::<Result<Vec<_>, _>>()?;
    Ok(Fact::new(RelId(rel), args))
}

/// The engine's delta for a snapshot's listed delta facts: per
/// relation, the facts must be exactly its last rows, in row order (the
/// relations may interleave in the list).
fn delta_ranges(instance: &Instance, facts: &[Fact]) -> Result<Delta, ChaseError> {
    let mut by_rel: BTreeMap<RelId, Vec<&Fact>> = BTreeMap::new();
    for f in facts {
        by_rel.entry(f.relation()).or_default().push(f);
    }
    let mut ranges = Delta::new();
    for (rel, listed) in by_rel {
        let data = instance.relation(rel);
        let rows = data.map_or(0, rde_model::RelationData::len);
        let start = rows.checked_sub(listed.len()).ok_or_else(|| {
            malformed(format!(
                "delta lists {} facts of relation {}, which has {rows} rows",
                listed.len(),
                rel.0
            ))
        })?;
        for (k, f) in listed.iter().enumerate() {
            let row = start + k;
            if data.map(|d| d.row_slice(row as u32)) != Some(f.args()) {
                return Err(malformed(format!(
                    "delta fact {} is not row {row} of relation {} in the snapshot",
                    k + 1,
                    rel.0
                )));
            }
        }
        ranges.push((rel, start as u32, rows as u32));
    }
    Ok(ranges)
}

/// Read and validate a snapshot written by [`save`] for a chase whose
/// dependency `i` has `key_widths[i]` premise slots.
pub(crate) fn load(path: &Path, key_widths: &[usize]) -> Result<Snapshot, ChaseError> {
    let text = std::fs::read_to_string(path).map_err(|e| ioerr("reading", path, e))?;
    let mut r = Reader { lines: text.lines(), line_no: 0 };

    let header = r.next_line()?;
    if header != HEADER {
        return Err(malformed(format!(
            "unsupported checkpoint header {header:?} (expected {HEADER:?})"
        )));
    }
    let rounds: u64 = parse_num(r.tagged("rounds")?.first(), "round counter")?;
    let fired: u64 = parse_num(r.tagged("fired")?.first(), "fired counter")?;
    let null_count: usize = parse_num(r.tagged("nulls")?.first(), "null count")?;
    let hom_toks = r.tagged("hom")?;
    let hom_total = HomStats {
        nodes: parse_num(hom_toks.first(), "hom nodes")?,
        backtracks: parse_num(hom_toks.get(1), "hom backtracks")?,
        found: parse_num(hom_toks.get(2), "hom found")?,
    };

    let n_rels: usize = parse_num(r.tagged("instance")?.first(), "relation count")?;
    let mut instance = Instance::new();
    for _ in 0..n_rels {
        let toks = r.tagged("rel")?;
        let rel: u32 = parse_num(toks.first(), "relation id")?;
        let arity: usize = parse_num(toks.get(1), "relation arity")?;
        let n_rows: usize = parse_num(toks.get(2), "row count")?;
        for _ in 0..n_rows {
            let row = r.next_line()?;
            let vals =
                row.split_ascii_whitespace().map(dec_value).collect::<Result<Vec<_>, _>>()?;
            if vals.len() != arity {
                return Err(malformed(format!("row arity mismatch at line {}", r.line_no)));
            }
            instance.insert(Fact::new(RelId(rel), vals));
        }
    }

    let delta_toks = r.tagged("delta")?;
    let delta = match delta_toks.first() {
        Some(&"none") => None,
        Some(&"some") => {
            let n: usize = parse_num(delta_toks.get(1), "delta count")?;
            let mut facts = Vec::with_capacity(n);
            for _ in 0..n {
                facts.push(dec_fact(&r.tagged("fact")?)?);
            }
            Some(delta_ranges(&instance, &facts)?)
        }
        _ => return Err(malformed("bad delta line")),
    };

    let n_deps: usize = parse_num(r.tagged("deps")?.first(), "dependency count")?;
    if n_deps != key_widths.len() {
        return Err(malformed(format!(
            "snapshot has {n_deps} dependencies, the chase has {}",
            key_widths.len()
        )));
    }
    let mut fired_keys: Vec<RowSet> = Vec::with_capacity(n_deps);
    for (di, &width) in key_widths.iter().enumerate() {
        let toks = r.tagged("dep")?;
        let index: usize = parse_num(toks.first(), "dependency index")?;
        if index != di {
            return Err(malformed("dependency indices out of order"));
        }
        let n_keys: usize = parse_num(toks.get(1), "key count")?;
        let mut keys = RowSet::new(width);
        let mut key: Vec<Value> = Vec::with_capacity(width);
        for _ in 0..n_keys {
            let ktoks = r.tagged("key")?;
            let len: usize = parse_num(ktoks.first(), "key length")?;
            if ktoks.len() != 1 + len {
                return Err(malformed("key length mismatch"));
            }
            if len != width {
                return Err(malformed(format!(
                    "dependency {di} has a key of {len} values, its premise has {width} slots"
                )));
            }
            key.clear();
            for t in &ktoks[1..] {
                key.push(dec_value(t)?);
            }
            keys.insert(&key);
        }
        fired_keys.push(keys);
    }

    let n_stats: usize = parse_num(r.tagged("stats")?.first(), "round-stat count")?;
    let mut round_stats = Vec::with_capacity(n_stats);
    for _ in 0..n_stats {
        let t = r.tagged("rs")?;
        round_stats.push(RoundStats {
            delta: parse_num(t.first(), "rs delta")?,
            matches: parse_num(t.get(1), "rs matches")?,
            duplicates: parse_num(t.get(2), "rs duplicates")?,
            satisfied: parse_num(t.get(3), "rs satisfied")?,
            triggers: parse_num(t.get(4), "rs triggers")?,
            fired: parse_num(t.get(5), "rs fired")?,
            inserted: parse_num(t.get(6), "rs inserted")?,
            hom: HomStats {
                nodes: parse_num(t.get(7), "rs nodes")?,
                backtracks: parse_num(t.get(8), "rs backtracks")?,
                found: parse_num(t.get(9), "rs found")?,
            },
        });
    }

    let n_prov: usize = parse_num(r.tagged("provenance")?.first(), "provenance count")?;
    let mut provenance = Vec::with_capacity(n_prov);
    for _ in 0..n_prov {
        let t = r.tagged("prov")?;
        let dependency: usize = parse_num(t.first(), "prov dependency")?;
        let n_assign: usize = parse_num(t.get(1), "prov assignment count")?;
        if t.len() != 2 + 2 * n_assign + 1 {
            return Err(malformed("prov token count mismatch"));
        }
        let mut assignment = Vec::with_capacity(n_assign);
        for i in 0..n_assign {
            let var: u32 = parse_num(t.get(2 + 2 * i), "prov var")?;
            let val = dec_value(t[3 + 2 * i])?;
            assignment.push((rde_deps::VarId(var), val));
        }
        let n_produced: usize = parse_num(t.get(2 + 2 * n_assign), "prov produced count")?;
        let mut produced = Vec::with_capacity(n_produced);
        for _ in 0..n_produced {
            produced.push(dec_fact(&r.tagged("fact")?)?);
        }
        provenance.push(FiringRecord { dependency, assignment, produced });
    }

    match r.next_line()? {
        "end" => {}
        _ => return Err(malformed("missing end marker")),
    }

    Ok(Snapshot {
        rounds,
        fired,
        null_count,
        hom_total,
        instance,
        delta,
        fired_keys,
        round_stats,
        provenance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rde-ckpt-{}-{name}", std::process::id()))
    }

    fn c(i: u32) -> Value {
        Value::Const(ConstId(i))
    }
    fn n(i: u32) -> Value {
        Value::Null(NullId(i))
    }

    fn key_set(width: usize, keys: &[Vec<Value>]) -> RowSet {
        let mut set = RowSet::new(width);
        for k in keys {
            set.insert(k);
        }
        set
    }

    fn sorted_keys(set: &RowSet) -> Vec<Vec<Value>> {
        let mut keys: Vec<Vec<Value>> = set.rows().map(<[Value]>::to_vec).collect();
        keys.sort();
        keys
    }

    #[test]
    fn round_trips_a_full_snapshot() {
        let mut instance = Instance::new();
        instance.insert(Fact::new(RelId(0), vec![c(0), n(1)]));
        instance.insert(Fact::new(RelId(0), vec![c(1), c(0)]));
        instance.insert(Fact::new(RelId(2), vec![n(0)]));
        instance.insert(Fact::new(RelId(0), vec![n(1), n(1)]));
        // The last row of relation 0 and the only row of relation 2.
        let delta = vec![(RelId(0), 2, 3), (RelId(2), 0, 1)];
        let keys0 = key_set(2, &[vec![c(0), n(1)], vec![c(1), c(0)]]);
        let fired_keys = vec![keys0, RowSet::new(1)];
        let round_stats = vec![RoundStats {
            delta: 3,
            matches: 4,
            duplicates: 1,
            satisfied: 0,
            triggers: 2,
            fired: 2,
            inserted: 1,
            hom: HomStats { nodes: 10, backtracks: 2, found: 4 },
        }];
        let provenance = vec![FiringRecord {
            dependency: 0,
            assignment: vec![(rde_deps::VarId(0), c(0)), (rde_deps::VarId(1), n(1))],
            produced: vec![Fact::new(RelId(2), vec![n(0)])],
        }];
        let snap = SnapshotRef {
            rounds: 3,
            fired: 2,
            null_count: 2,
            hom_total: HomStats { nodes: 11, backtracks: 2, found: 5 },
            instance: &instance,
            delta: Some(&delta),
            fired_keys: &fired_keys,
            round_stats: &round_stats,
            provenance: &provenance,
        };
        let path = tmp_path("roundtrip");
        save(&path, &rde_faults::FaultInjector::inert(), &snap).unwrap();
        let loaded = load(&path, &[2, 1]).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.rounds, 3);
        assert_eq!(loaded.fired, 2);
        assert_eq!(loaded.null_count, 2);
        assert_eq!(loaded.hom_total, snap.hom_total);
        assert_eq!(loaded.instance, instance);
        assert_eq!(loaded.delta.as_deref(), Some(&delta[..]));
        assert_eq!(loaded.fired_keys.len(), 2);
        for (got, want) in loaded.fired_keys.iter().zip(&fired_keys) {
            assert_eq!(got.width(), want.width());
            assert_eq!(sorted_keys(got), sorted_keys(want));
        }
        assert_eq!(loaded.round_stats, round_stats);
        assert_eq!(loaded.provenance, provenance);
        // Row order is preserved, not just set equality: the posting
        // lists the hom search walks are rebuilt in the same order.
        let rows: Vec<_> =
            loaded.instance.relation(RelId(0)).unwrap().tuples().map(|t| t.to_vec()).collect();
        assert_eq!(rows, vec![vec![c(0), n(1)], vec![c(1), c(0)], vec![n(1), n(1)]]);
    }

    #[test]
    fn sweep_removes_only_the_stale_tmp() {
        let path = tmp_path("sweep");
        let tmp = path.with_extension("tmp");
        std::fs::write(&path, b"complete snapshot").unwrap();
        std::fs::write(&tmp, b"partial write").unwrap();
        assert!(sweep_stale_tmp(&path), "a stranded tmp must be reported as swept");
        assert!(!tmp.exists());
        assert!(path.exists(), "the complete snapshot must survive the sweep");
        assert!(!sweep_stale_tmp(&path), "nothing left to sweep the second time");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn saving_over_a_swept_path_still_round_trips() {
        let instance = Instance::new();
        let snap = SnapshotRef {
            rounds: 0,
            fired: 0,
            null_count: 0,
            hom_total: HomStats::default(),
            instance: &instance,
            delta: None,
            fired_keys: &[],
            round_stats: &[],
            provenance: &[],
        };
        let path = tmp_path("sweep-then-save");
        std::fs::write(path.with_extension("tmp"), b"stale").unwrap();
        sweep_stale_tmp(&path);
        save(&path, &rde_faults::FaultInjector::inert(), &snap).unwrap();
        assert!(!path.with_extension("tmp").exists(), "save must not leave a tmp behind");
        let loaded = load(&path, &[]).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.rounds, 0);
    }

    #[test]
    fn delta_none_round_trips() {
        let instance = Instance::new();
        let snap = SnapshotRef {
            rounds: 0,
            fired: 0,
            null_count: 0,
            hom_total: HomStats::default(),
            instance: &instance,
            delta: None,
            fired_keys: &[],
            round_stats: &[],
            provenance: &[],
        };
        let path = tmp_path("none");
        save(&path, &rde_faults::FaultInjector::inert(), &snap).unwrap();
        let loaded = load(&path, &[]).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(loaded.delta.is_none());
        assert!(loaded.instance.is_empty());
    }

    #[test]
    fn identical_state_produces_identical_bytes() {
        let mut instance = Instance::new();
        instance.insert(Fact::new(RelId(1), vec![c(5), c(6)]));
        let fired_keys = vec![key_set(2, &(0..8).map(|i| vec![c(i), n(i)]).collect::<Vec<_>>())];
        let make = |path: &Path| {
            let snap = SnapshotRef {
                rounds: 1,
                fired: 1,
                null_count: 8,
                hom_total: HomStats::default(),
                instance: &instance,
                delta: None,
                fired_keys: &fired_keys,
                round_stats: &[],
                provenance: &[],
            };
            save(path, &rde_faults::FaultInjector::inert(), &snap).unwrap();
            let bytes = std::fs::read(path).unwrap();
            std::fs::remove_file(path).ok();
            bytes
        };
        let a = make(&tmp_path("det-a"));
        let b = make(&tmp_path("det-b"));
        assert_eq!(a, b, "fired keys are sorted, so bytes are canonical");
    }

    #[test]
    fn load_rejects_garbage_with_a_typed_error() {
        let path = tmp_path("garbage");
        std::fs::write(&path, "not a checkpoint\n").unwrap();
        let err = load(&path, &[]).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, ChaseError::Checkpoint { .. }));

        let missing = load(Path::new("/nonexistent/rde-ckpt"), &[]).unwrap_err();
        assert!(matches!(missing, ChaseError::Checkpoint { .. }));
    }

    #[test]
    fn load_rejects_truncated_snapshots() {
        let mut instance = Instance::new();
        instance.insert(Fact::new(RelId(0), vec![c(0)]));
        let snap = SnapshotRef {
            rounds: 1,
            fired: 1,
            null_count: 0,
            hom_total: HomStats::default(),
            instance: &instance,
            delta: None,
            fired_keys: &[RowSet::new(1)],
            round_stats: &[],
            provenance: &[],
        };
        let path = tmp_path("trunc");
        save(&path, &rde_faults::FaultInjector::inert(), &snap).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.len() / 2;
        std::fs::write(&path, &text[..cut]).unwrap();
        let err = load(&path, &[1]).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, ChaseError::Checkpoint { .. }));
    }

    /// Save a two-relation snapshot, apply `edit` to its text, and load
    /// it for one dependency of two premise slots.
    fn load_edited(name: &str, edit: impl Fn(&str) -> String) -> Result<Snapshot, ChaseError> {
        let mut instance = Instance::new();
        for (r, a, b) in [(0, 0, 1), (1, 5, 5), (0, 1, 2), (0, 2, 3), (1, 6, 6)] {
            instance.insert(Fact::new(RelId(r), vec![c(a), c(b)]));
        }
        let fired_keys = [key_set(2, &[vec![c(0), c(1)]])];
        let snap = SnapshotRef {
            rounds: 1,
            fired: 1,
            null_count: 0,
            hom_total: HomStats::default(),
            instance: &instance,
            delta: Some(&[(RelId(0), 1, 3), (RelId(1), 1, 2)]),
            fired_keys: &fired_keys,
            round_stats: &[],
            provenance: &[],
        };
        let path = tmp_path(name);
        save(&path, &rde_faults::FaultInjector::inert(), &snap).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, edit(&text)).unwrap();
        let loaded = load(&path, &[2]);
        std::fs::remove_file(&path).ok();
        loaded
    }

    #[test]
    fn delta_is_written_relation_by_relation_and_read_in_any_interleaving() {
        let loaded = load_edited("delta-ok", str::to_owned).unwrap();
        assert_eq!(loaded.delta, Some(vec![(RelId(0), 1, 3), (RelId(1), 1, 2)]));
        // An earlier writer's insertion order interleaves the relations.
        let interleaved = load_edited("delta-interleaved", |t| {
            t.replace(
                "fact 0 2 c1 c2\nfact 0 2 c2 c3\nfact 1 2 c6 c6",
                "fact 0 2 c1 c2\nfact 1 2 c6 c6\nfact 0 2 c2 c3",
            )
        });
        assert_eq!(interleaved.unwrap().delta, loaded.delta);
    }

    #[test]
    fn a_delta_fact_that_is_not_a_last_row_is_rejected() {
        let edits: [(&str, &str); 3] = [
            // A phantom fact, absent from the instance.
            ("fact 1 2 c6 c6", "fact 1 2 c7 c7"),
            // Present, but not among the relation's last rows.
            ("fact 1 2 c6 c6", "fact 1 2 c5 c5"),
            // The last rows out of order.
            ("fact 0 2 c1 c2\nfact 0 2 c2 c3", "fact 0 2 c2 c3\nfact 0 2 c1 c2"),
        ];
        for (i, (from, to)) in edits.into_iter().enumerate() {
            let err = load_edited(&format!("delta-bad-{i}"), |t| {
                assert!(t.contains(from));
                t.replace(from, to)
            })
            .unwrap_err();
            assert!(matches!(err, ChaseError::Checkpoint { .. }), "edit {i}: {err:?}");
        }
        // More delta facts of a relation than it has rows.
        let err = load_edited("delta-long", |t| {
            t.replace("delta some 3\n", "delta some 5\nfact 1 2 c4 c4\nfact 1 2 c5 c5\n")
        })
        .unwrap_err();
        assert!(matches!(err, ChaseError::Checkpoint { .. }), "{err:?}");
    }

    #[test]
    fn a_key_of_the_wrong_width_is_rejected() {
        for (i, key) in ["key 1 c0", "key 3 c0 c1 c2", "key 0"].into_iter().enumerate() {
            let err = load_edited(&format!("key-bad-{i}"), |t| t.replace("key 2 c0 c1", key))
                .unwrap_err();
            let ChaseError::Checkpoint { message } = err else { panic!("untyped error") };
            assert!(message.contains("slots"), "{message}");
        }
    }
}

//! The bounded JSONL event journal.
//!
//! One process-wide journal with a pluggable sink: a file, stderr, or
//! an in-memory buffer (the `profile` CLI subcommand and the tests use
//! the latter to read structured records back without re-parsing).
//! Every record renders as a single-line JSON object:
//!
//! ```json
//! {"t_us":123,"kind":"span_open","name":"chase.round","span":7,"parent":3,"round":1}
//! {"t_us":456,"kind":"span_close","name":"chase.round","span":7,"elapsed_us":333,"fired":5}
//! {"t_us":789,"kind":"event","name":"core.arrow.miss","span":7,"class_a":0,"class_b":2}
//! ```
//!
//! The journal is **bounded**: past the attached capacity records are
//! counted and dropped, and the drop count surfaces as one final
//! `journal_truncated` record at detach time. Emission when no sink
//! is attached (or with the `trace` feature compiled out) costs one
//! relaxed atomic load.
//!
//! Records emitted while a request id is installed on the thread (see
//! [`crate::request`]) carry a `req` field, so concurrent requests'
//! records can be pulled apart after the fact. A per-thread **capture
//! mode** ([`capture_begin`]/[`capture_take`]/[`append`]) buffers a
//! request's records without touching the shared sink; the server's
//! slow-request sampler replays the buffer only for requests that
//! exceeded its threshold, and [`capture_discard`]s the rest. The
//! buffer is an arena of compact entries whose strings share one
//! reused `String`, so a discarded capture allocates nothing; owned
//! [`Record`]s are built only for the memory sink and for a kept
//! capture. The file sinks render each line from borrowed fields into
//! one reused buffer. A sink write that fails mid-stream leaves a
//! `journal.io_drop` marker (stamped with the lost record's request
//! id) instead of a silent hole.
//!
//! The sink itself is process-wide (there is one journal file), but
//! fault injection into it is **scoped**: [`attach_scoped`] takes the
//! [`rde_faults::FaultInjector`] of the context that owns the sink, so
//! `obs.journal.write` faults fire only for the campaign that asked
//! for them.

use std::fmt::Write as _;

use crate::json;

/// One field value attached to a journal record.
#[derive(Debug, Clone, Copy)]
pub enum Field<'a> {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (rendered with enough digits to round-trip).
    F64(f64),
    /// String (JSON-escaped on render).
    Str(&'a str),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for Field<'_> {
    fn from(v: u64) -> Self {
        Field::U64(v)
    }
}
impl From<u32> for Field<'_> {
    fn from(v: u32) -> Self {
        Field::U64(u64::from(v))
    }
}
impl From<usize> for Field<'_> {
    fn from(v: usize) -> Self {
        Field::U64(v as u64)
    }
}
impl From<i64> for Field<'_> {
    fn from(v: i64) -> Self {
        Field::I64(v)
    }
}
impl From<f64> for Field<'_> {
    fn from(v: f64) -> Self {
        Field::F64(v)
    }
}
impl<'a> From<&'a str> for Field<'a> {
    fn from(v: &'a str) -> Self {
        Field::Str(v)
    }
}
impl From<bool> for Field<'_> {
    fn from(v: bool) -> Self {
        Field::Bool(v)
    }
}

/// An owned field value (what [`Record`] stores).
#[derive(Debug, Clone, PartialEq)]
pub enum OwnedField {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl OwnedField {
    /// The borrowed form, for rendering.
    fn as_field(&self) -> Field<'_> {
        match *self {
            OwnedField::U64(v) => Field::U64(v),
            OwnedField::I64(v) => Field::I64(v),
            OwnedField::F64(v) => Field::F64(v),
            OwnedField::Str(ref s) => Field::Str(s),
            OwnedField::Bool(b) => Field::Bool(b),
        }
    }

    /// The value as `u64`, when it is one (convenience for tests and
    /// the profile tree builder).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            OwnedField::U64(v) => Some(v),
            _ => None,
        }
    }
}

impl From<Field<'_>> for OwnedField {
    fn from(f: Field<'_>) -> Self {
        match f {
            Field::U64(v) => OwnedField::U64(v),
            Field::I64(v) => OwnedField::I64(v),
            Field::F64(v) => OwnedField::F64(v),
            Field::Str(s) => OwnedField::Str(s.to_owned()),
            Field::Bool(b) => OwnedField::Bool(b),
        }
    }
}

/// One journal record. The memory sink retains these structurally so
/// the `profile` subcommand can rebuild span trees without parsing the
/// JSON it just wrote.
#[derive(Debug, Clone)]
pub struct Record {
    /// Microseconds since the journal epoch (process-local monotonic
    /// clock; the first touch of the journal pins the epoch).
    pub t_us: u64,
    /// Record kind: `span_open`, `span_close`, `event`, or
    /// `journal_truncated`.
    pub kind: &'static str,
    /// Record name (`crate.subsystem.event` convention).
    pub name: String,
    /// Span id this record belongs to (`0` = none).
    pub span: u64,
    /// Parent span id (`span_open` only; `0` = root).
    pub parent: u64,
    /// Span duration (`span_close` only).
    pub elapsed_us: Option<u64>,
    /// Additional key/value fields.
    pub fields: Vec<(String, OwnedField)>,
}

/// The fixed part of a record: everything but its fields.
#[derive(Clone, Copy)]
struct Head<'a> {
    t_us: u64,
    kind: &'static str,
    name: &'a str,
    span: u64,
    parent: u64,
    elapsed_us: Option<u64>,
}

/// The `req` stamp as a trailing field (none outside a request).
#[cfg(feature = "trace")]
fn req_field<'a>(req: u64) -> Option<(&'a str, Field<'a>)> {
    (req != 0).then_some(("req", Field::U64(req)))
}

fn render_field(out: &mut String, field: Field<'_>) {
    match field {
        Field::U64(v) => {
            let _ = write!(out, "{v}");
        }
        Field::I64(v) => {
            let _ = write!(out, "{v}");
        }
        Field::F64(v) => {
            if v.is_finite() {
                let _ = write!(out, "{v}");
            } else {
                out.push_str("null");
            }
        }
        Field::Str(s) => json::escape_into(out, s),
        Field::Bool(b) => {
            let _ = write!(out, "{b}");
        }
    }
}

/// Append one record as a JSON line (no newline) to `out`. Live
/// emission and [`Record::to_json_line`] (which capture replay goes
/// through) both render here, so every path writes the same bytes.
fn render_line<'f>(
    out: &mut String,
    head: Head<'_>,
    fields: impl Iterator<Item = (&'f str, Field<'f>)>,
) {
    let _ = write!(out, "{{\"t_us\":{},\"kind\":\"{}\",\"name\":", head.t_us, head.kind);
    json::escape_into(out, head.name);
    if head.span != 0 {
        let _ = write!(out, ",\"span\":{}", head.span);
    }
    if head.kind == "span_open" {
        let _ = write!(out, ",\"parent\":{}", head.parent);
    }
    if let Some(us) = head.elapsed_us {
        let _ = write!(out, ",\"elapsed_us\":{us}");
    }
    for (k, v) in fields {
        out.push(',');
        json::escape_into(out, k);
        out.push(':');
        render_field(out, v);
    }
    out.push('}');
}

impl Record {
    /// Render the record as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96);
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        let head = Head {
            t_us: self.t_us,
            kind: self.kind,
            name: &self.name,
            span: self.span,
            parent: self.parent,
            elapsed_us: self.elapsed_us,
        };
        render_line(out, head, self.fields.iter().map(|(k, v)| (k.as_str(), v.as_field())));
    }

    /// Look up a field by key.
    pub fn field(&self, key: &str) -> Option<&OwnedField> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The request id stamped on this record (`0` when it was emitted
    /// outside any request scope).
    pub fn req(&self) -> u64 {
        self.field("req").and_then(OwnedField::as_u64).unwrap_or(0)
    }

    /// Parse a journal line (the [`Record::to_json_line`] form) back
    /// into a record. The profile CLI uses this to analyze journal
    /// *files* written by another process; the memory sink never needs
    /// it.
    pub fn parse_json_line(line: &str) -> Result<Record, String> {
        let pairs = json::parse_flat_object(line)?;
        let mut rec = Record {
            t_us: 0,
            kind: "",
            name: String::new(),
            span: 0,
            parent: 0,
            elapsed_us: None,
            fields: Vec::new(),
        };
        for (key, value) in pairs {
            let as_u64 = |v: &json::FlatValue| match *v {
                json::FlatValue::U64(n) => Some(n),
                _ => None,
            };
            match key.as_str() {
                "t_us" => rec.t_us = as_u64(&value).ok_or("t_us must be a non-negative integer")?,
                "span" => rec.span = as_u64(&value).ok_or("span must be a non-negative integer")?,
                "parent" => {
                    rec.parent = as_u64(&value).ok_or("parent must be a non-negative integer")?
                }
                "elapsed_us" => {
                    rec.elapsed_us =
                        Some(as_u64(&value).ok_or("elapsed_us must be a non-negative integer")?)
                }
                "kind" => {
                    let json::FlatValue::Str(k) = &value else {
                        return Err("kind must be a string".to_owned());
                    };
                    rec.kind = match k.as_str() {
                        "span_open" => "span_open",
                        "span_close" => "span_close",
                        "event" => "event",
                        "journal_truncated" => "journal_truncated",
                        other => return Err(format!("unknown record kind {other:?}")),
                    };
                }
                "name" => {
                    let json::FlatValue::Str(n) = value else {
                        return Err("name must be a string".to_owned());
                    };
                    rec.name = n;
                }
                _ => {
                    let field = match value {
                        json::FlatValue::U64(n) => OwnedField::U64(n),
                        json::FlatValue::I64(n) => OwnedField::I64(n),
                        json::FlatValue::F64(x) => OwnedField::F64(x),
                        json::FlatValue::Str(s) => OwnedField::Str(s),
                        json::FlatValue::Bool(b) => OwnedField::Bool(b),
                        // The writer renders non-finite floats as null;
                        // NaN round-trips back to null.
                        json::FlatValue::Null => OwnedField::F64(f64::NAN),
                    };
                    rec.fields.push((key, field));
                }
            }
        }
        if rec.kind.is_empty() {
            return Err("record has no kind".to_owned());
        }
        if rec.name.is_empty() {
            return Err("record has no name".to_owned());
        }
        Ok(rec)
    }
}

/// Where journal records go.
#[derive(Debug, Clone)]
pub enum Sink {
    /// Append JSON lines to a file (created/truncated at attach).
    File(std::path::PathBuf),
    /// Like [`Sink::File`], but rotate the file once it would exceed
    /// `max_bytes`: `path` is renamed to `path.1`, `path.1` to
    /// `path.2`, … keeping at most `keep` rotated files. Records are
    /// never split across files, so every file stays valid JSONL.
    Rotating {
        /// Path of the live journal file.
        path: std::path::PathBuf,
        /// Size threshold (bytes) that triggers rotation. A record that
        /// would push the live file past this bound rotates first; a
        /// single record larger than the bound still gets its own file.
        max_bytes: u64,
        /// How many rotated files (`path.1` … `path.keep`) to retain.
        /// `0` discards the old file on rotation.
        keep: usize,
    },
    /// Write JSON lines to stderr.
    Stderr,
    /// Retain structured [`Record`]s in memory; collect them with
    /// [`detach`].
    Memory,
}

impl Sink {
    /// A size-capped rotating file sink (see [`Sink::Rotating`]).
    pub fn rotating(path: impl Into<std::path::PathBuf>, max_bytes: u64, keep: usize) -> Self {
        Sink::Rotating { path: path.into(), max_bytes, keep }
    }
}

/// What [`detach`] hands back.
#[derive(Debug, Default)]
pub struct JournalSummary {
    /// Retained records (memory sink only; empty for file/stderr).
    pub records: Vec<Record>,
    /// Records written (not counting any dropped).
    pub written: usize,
    /// Records dropped by the capacity bound.
    pub dropped: u64,
    /// Records lost to I/O errors on the sink. Whole records are
    /// skipped on error, so the file contents stay valid JSONL; a file
    /// sink holds exactly `written - io_errors` lines.
    pub io_errors: u64,
}

#[cfg(feature = "trace")]
mod imp {
    use std::cell::{Cell, RefCell};
    use std::io::Write as _;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, OnceLock};
    use std::time::Instant;

    use super::{render_line, req_field, Field, Head, JournalSummary, OwnedField, Record, Sink};

    enum Out {
        File(std::io::BufWriter<std::fs::File>),
        Rotating(Rotating),
        Stderr,
        Memory(Vec<Record>),
    }

    /// A size-capped file writer that shifts `path` → `path.1` → …
    /// → `path.keep` whenever the live file would exceed `max_bytes`.
    struct Rotating {
        w: std::io::BufWriter<std::fs::File>,
        path: std::path::PathBuf,
        max_bytes: u64,
        keep: usize,
        /// Bytes written to the live file so far.
        bytes: u64,
    }

    impl Rotating {
        fn open(path: std::path::PathBuf, max_bytes: u64, keep: usize) -> std::io::Result<Self> {
            let w = std::io::BufWriter::new(std::fs::File::create(&path)?);
            Ok(Rotating { w, path, max_bytes, keep, bytes: 0 })
        }

        fn rotated(&self, i: usize) -> std::path::PathBuf {
            let mut s = self.path.as_os_str().to_owned();
            s.push(format!(".{i}"));
            std::path::PathBuf::from(s)
        }

        fn rotate(&mut self) -> std::io::Result<()> {
            self.w.flush()?;
            if self.keep == 0 {
                // No history retained: truncate in place.
                self.w = std::io::BufWriter::new(std::fs::File::create(&self.path)?);
                self.bytes = 0;
                return Ok(());
            }
            for i in (1..self.keep).rev() {
                let from = self.rotated(i);
                if from.exists() {
                    std::fs::rename(&from, self.rotated(i + 1))?;
                }
            }
            std::fs::rename(&self.path, self.rotated(1))?;
            self.w = std::io::BufWriter::new(std::fs::File::create(&self.path)?);
            self.bytes = 0;
            Ok(())
        }

        /// Write `line`, which ends in its newline.
        fn write_line(&mut self, line: &str) -> std::io::Result<()> {
            let len = line.len() as u64;
            if self.bytes > 0 && self.bytes + len > self.max_bytes {
                self.rotate()?;
            }
            self.w.write_all(line.as_bytes())?;
            self.bytes += len;
            Ok(())
        }
    }

    struct State {
        out: Out,
        capacity: usize,
        written: usize,
        dropped: u64,
        io_errors: u64,
        /// The attaching context's fault injector: `obs.journal.write`
        /// faults belong to the campaign that owns this sink, not to
        /// whatever campaign happens to be live elsewhere.
        injector: rde_faults::FaultInjector,
        /// The text sinks render each line here, reused across records.
        line: String,
    }

    static ACTIVE: AtomicBool = AtomicBool::new(false);
    static STATE: Mutex<Option<State>> = Mutex::new(None);
    static EPOCH: OnceLock<Instant> = OnceLock::new();

    /// Cap on a thread's capture buffer: enough for any realistic
    /// request's span tree, small enough that a runaway request cannot
    /// hold the heap hostage.
    const CAPTURE_CAP: usize = 1 << 14;

    /// Bytes of buffer an arena keeps between captures. A runaway
    /// request's buffers are given back at the next `capture_begin`
    /// rather than held by its thread for good.
    const ARENA_KEEP_BYTES: usize = 1 << 18;

    /// A string's byte range in [`Arena::text`].
    #[derive(Clone, Copy)]
    struct Text {
        start: usize,
        end: usize,
    }

    /// A captured field value; a string lives in [`Arena::text`].
    #[derive(Clone, Copy)]
    enum Captured {
        U64(u64),
        I64(i64),
        F64(f64),
        Str(Text),
        Bool(bool),
    }

    /// One captured record: its name and fields as ranges into the
    /// arena, its request stamp kept apart until replay.
    struct Entry {
        kind: &'static str,
        name: Text,
        span: u64,
        parent: u64,
        t_us: u64,
        elapsed_us: Option<u64>,
        req: u64,
        /// Range in [`Arena::fields`].
        fields: (usize, usize),
    }

    /// A thread's capture buffer: compact entries, one field vector
    /// and one string for every name, key and string value. Clearing
    /// keeps the capacity, so once a thread has served one request,
    /// capturing another allocates nothing; only a slow request's
    /// [`Arena::records`] builds owned [`Record`]s.
    struct Arena {
        entries: Vec<Entry>,
        fields: Vec<(Text, Captured)>,
        text: String,
        /// Records past [`CAPTURE_CAP`], counted instead of kept.
        dropped: u64,
    }

    impl Arena {
        const fn new() -> Self {
            Arena { entries: Vec::new(), fields: Vec::new(), text: String::new(), dropped: 0 }
        }

        fn clear(&mut self) {
            let held = self.entries.capacity() * std::mem::size_of::<Entry>()
                + self.fields.capacity() * std::mem::size_of::<(Text, Captured)>()
                + self.text.capacity();
            if held > ARENA_KEEP_BYTES {
                *self = Arena::new();
            }
            self.entries.clear();
            self.fields.clear();
            self.text.clear();
            self.dropped = 0;
        }

        fn intern(&mut self, s: &str) -> Text {
            let start = self.text.len();
            self.text.push_str(s);
            Text { start, end: self.text.len() }
        }

        fn str(&self, t: Text) -> &str {
            &self.text[t.start..t.end]
        }

        fn push(&mut self, head: Head<'_>, fields: &[(&str, Field<'_>)], req: u64) {
            if self.entries.len() >= CAPTURE_CAP {
                self.dropped += 1;
                return;
            }
            let name = self.intern(head.name);
            let first = self.fields.len();
            for &(key, value) in fields {
                let key = self.intern(key);
                let value = match value {
                    Field::U64(v) => Captured::U64(v),
                    Field::I64(v) => Captured::I64(v),
                    Field::F64(v) => Captured::F64(v),
                    Field::Str(s) => Captured::Str(self.intern(s)),
                    Field::Bool(b) => Captured::Bool(b),
                };
                self.fields.push((key, value));
            }
            self.entries.push(Entry {
                kind: head.kind,
                name,
                span: head.span,
                parent: head.parent,
                t_us: head.t_us,
                elapsed_us: head.elapsed_us,
                req,
                fields: (first, self.fields.len()),
            });
        }

        /// The captured records, as live emission would have handed
        /// them to the memory sink: same order, `req` stamped last.
        fn records(&self) -> Vec<Record> {
            self.entries
                .iter()
                .map(|e| {
                    let fields = self.fields[e.fields.0..e.fields.1].iter().map(|&(key, value)| {
                        let value = match value {
                            Captured::U64(v) => OwnedField::U64(v),
                            Captured::I64(v) => OwnedField::I64(v),
                            Captured::F64(v) => OwnedField::F64(v),
                            Captured::Str(s) => OwnedField::Str(self.str(s).to_owned()),
                            Captured::Bool(b) => OwnedField::Bool(b),
                        };
                        (self.str(key).to_owned(), value)
                    });
                    let req = req_field(e.req).map(|(k, v)| (k.to_owned(), v.into()));
                    Record {
                        t_us: e.t_us,
                        kind: e.kind,
                        name: self.str(e.name).to_owned(),
                        span: e.span,
                        parent: e.parent,
                        elapsed_us: e.elapsed_us,
                        fields: fields.chain(req).collect(),
                    }
                })
                .collect()
        }
    }

    thread_local! {
        // Capture mode: while `CAPTURING` is set, this thread's records
        // are diverted into `ARENA` instead of the shared sink — the
        // slow-request sampler decides after the fact whether to keep
        // them. Thread-local on purpose: capture must not take the
        // STATE lock or interleave with other threads.
        static CAPTURING: Cell<bool> = const { Cell::new(false) };
        static ARENA: RefCell<Arena> = const { RefCell::new(Arena::new()) };
    }

    pub(super) fn now_us() -> u64 {
        u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    pub(super) fn enabled() -> bool {
        ACTIVE.load(Ordering::Relaxed) || CAPTURING.with(Cell::get)
    }

    pub(super) fn capture_begin() {
        CAPTURING.with(|c| c.set(true));
        ARENA.with(|a| a.borrow_mut().clear());
    }

    pub(super) fn capture_discard() {
        CAPTURING.with(|c| c.set(false));
        ARENA.with(|a| a.borrow_mut().clear());
    }

    pub(super) fn capture_take() -> Vec<Record> {
        CAPTURING.with(|c| c.set(false));
        ARENA.with(|a| {
            let mut arena = a.borrow_mut();
            let mut records = arena.records();
            if arena.dropped > 0 {
                let dropped = ("dropped".to_owned(), OwnedField::U64(arena.dropped));
                let req =
                    req_field(crate::request::current()).map(|(k, v)| (k.to_owned(), v.into()));
                records.push(Record {
                    t_us: now_us(),
                    kind: "event",
                    name: "journal.capture_truncated".to_owned(),
                    span: 0,
                    parent: 0,
                    elapsed_us: None,
                    fields: std::iter::once(dropped).chain(req).collect(),
                });
            }
            arena.clear();
            records
        })
    }

    fn lock() -> std::sync::MutexGuard<'static, Option<State>> {
        STATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub(super) fn attach(
        sink: Sink,
        capacity: usize,
        injector: rde_faults::FaultInjector,
    ) -> std::io::Result<()> {
        let out = match sink {
            Sink::File(path) => Out::File(std::io::BufWriter::new(std::fs::File::create(path)?)),
            Sink::Rotating { path, max_bytes, keep } => {
                Out::Rotating(Rotating::open(path, max_bytes, keep)?)
            }
            Sink::Stderr => Out::Stderr,
            Sink::Memory => Out::Memory(Vec::new()),
        };
        let mut guard = lock();
        if let Some(old) = guard.take() {
            finish(old);
        }
        *guard = Some(State {
            out,
            capacity,
            written: 0,
            dropped: 0,
            io_errors: 0,
            injector,
            line: String::new(),
        });
        ACTIVE.store(true, Ordering::Relaxed);
        Ok(())
    }

    /// Flush a retiring state, appending the truncation marker if the
    /// capacity bound dropped anything, and return its summary.
    fn finish(mut state: State) -> JournalSummary {
        if state.dropped > 0 {
            let marker = Record {
                t_us: now_us(),
                kind: "journal_truncated",
                name: "journal.truncated".to_owned(),
                span: 0,
                parent: 0,
                elapsed_us: None,
                fields: vec![("dropped".to_owned(), OwnedField::U64(state.dropped))],
            };
            if write_record(&mut state.out, &state.injector, &mut state.line, marker).is_err() {
                state.io_errors += 1;
            }
        }
        let records = match state.out {
            Out::File(mut w) => {
                let _ = w.flush();
                Vec::new()
            }
            Out::Rotating(mut rot) => {
                let _ = rot.w.flush();
                Vec::new()
            }
            Out::Stderr => Vec::new(),
            Out::Memory(records) => records,
        };
        JournalSummary {
            records,
            written: state.written,
            dropped: state.dropped,
            io_errors: state.io_errors,
        }
    }

    /// A record on its way to the sink. The text sinks render it into
    /// the state's reused line buffer; only the memory sink gets an
    /// owned [`Record`].
    trait Pending {
        fn render(&self, out: &mut String);
        fn into_record(self) -> Record;
        fn req(&self) -> u64;
    }

    /// A live emission, its strings still borrowed from the call site.
    struct Live<'a> {
        head: Head<'a>,
        fields: &'a [(&'a str, Field<'a>)],
        req: u64,
    }

    impl Live<'_> {
        fn fields(&self) -> impl Iterator<Item = (&str, Field<'_>)> {
            self.fields.iter().copied().chain(req_field(self.req))
        }
    }

    impl Pending for Live<'_> {
        fn render(&self, out: &mut String) {
            render_line(out, self.head, self.fields());
        }

        fn into_record(self) -> Record {
            Record {
                t_us: self.head.t_us,
                kind: self.head.kind,
                name: self.head.name.to_owned(),
                span: self.head.span,
                parent: self.head.parent,
                elapsed_us: self.head.elapsed_us,
                fields: self.fields().map(|(k, v)| (k.to_owned(), v.into())).collect(),
            }
        }

        fn req(&self) -> u64 {
            self.req
        }
    }

    impl Pending for Record {
        fn render(&self, out: &mut String) {
            self.render_into(out);
        }

        fn into_record(self) -> Record {
            self
        }

        fn req(&self) -> u64 {
            Record::req(self)
        }
    }

    /// Write one record to the sink. On error the whole record is
    /// skipped (never a partial line), so file sinks stay valid JSONL;
    /// callers count the loss in `State::io_errors`.
    fn write_record(
        out: &mut Out,
        injector: &rde_faults::FaultInjector,
        line: &mut String,
        record: impl Pending,
    ) -> std::io::Result<()> {
        rde_faults::fault_point!(
            injector,
            "obs.journal.write",
            std::io::Error::other("injected journal write failure")
        );
        if let Out::Memory(v) = out {
            v.push(record.into_record());
            return Ok(());
        }
        line.clear();
        record.render(line);
        line.push('\n');
        match out {
            Out::File(w) => w.write_all(line.as_bytes())?,
            Out::Rotating(rot) => rot.write_line(line)?,
            Out::Stderr => eprint!("{line}"),
            Out::Memory(_) => {}
        }
        Ok(())
    }

    pub(super) fn detach() -> Option<JournalSummary> {
        let mut guard = lock();
        ACTIVE.store(false, Ordering::Relaxed);
        guard.take().map(finish)
    }

    pub(super) fn flush() {
        let mut guard = lock();
        match guard.as_mut() {
            Some(State { out: Out::File(w), .. }) => {
                let _ = w.flush();
            }
            Some(State { out: Out::Rotating(rot), .. }) => {
                let _ = rot.w.flush();
            }
            _ => {}
        }
    }

    /// Write `record`; on I/O failure count the loss and best-effort
    /// append a `journal.io_drop` marker carrying the lost record's
    /// request id, so an access-log consumer can tell a short trace
    /// from one with a hole in it. (Before this marker existed, a
    /// rotating-sink write failure silently dropped whole event groups
    /// mid-request and only `io_errors` hinted at it.)
    fn write_or_mark(state: &mut State, record: impl Pending) {
        let req = record.req();
        let State { out, injector, io_errors, written, line, .. } = state;
        if write_record(out, injector, line, record).is_ok() {
            return;
        }
        *io_errors += 1;
        let mut fields = vec![("lost".to_owned(), OwnedField::U64(1))];
        if req != 0 {
            fields.push(("req".to_owned(), OwnedField::U64(req)));
        }
        let marker = Record {
            t_us: now_us(),
            kind: "event",
            name: "journal.io_drop".to_owned(),
            span: 0,
            parent: 0,
            elapsed_us: None,
            fields,
        };
        *written += 1;
        if write_record(out, injector, line, marker).is_err() {
            *io_errors += 1;
        }
    }

    pub(super) fn emit(
        kind: &'static str,
        name: &str,
        span: u64,
        parent: u64,
        elapsed_us: Option<u64>,
        fields: &[(&str, Field<'_>)],
    ) {
        let capturing = CAPTURING.with(Cell::get);
        if !capturing && !ACTIVE.load(Ordering::Relaxed) {
            return;
        }
        let head = Head { t_us: now_us(), kind, name, span, parent, elapsed_us };
        let req = crate::request::current();
        if capturing {
            ARENA.with(|a| a.borrow_mut().push(head, fields, req));
            return;
        }
        let mut guard = lock();
        let Some(state) = guard.as_mut() else {
            return;
        };
        if state.written >= state.capacity {
            state.dropped += 1;
            return;
        }
        state.written += 1;
        write_or_mark(state, Live { head, fields, req });
    }

    /// Append a pre-built record to the shared sink (the slow-request
    /// dump path: records buffered by capture mode get replayed here).
    pub(super) fn append(record: Record) {
        if !ACTIVE.load(Ordering::Relaxed) {
            return;
        }
        let mut guard = lock();
        let Some(state) = guard.as_mut() else {
            return;
        };
        if state.written >= state.capacity {
            state.dropped += 1;
            return;
        }
        state.written += 1;
        write_or_mark(state, record);
    }

    #[cfg(test)]
    mod tests {
        use std::fmt::Write as _;

        use super::*;
        use crate::json;

        /// The renderer as it was when every line went through an owned
        /// `Record`, kept as the oracle.
        fn oracle_line(rec: &Record) -> String {
            let mut out = String::with_capacity(96);
            let _ = write!(out, "{{\"t_us\":{},\"kind\":\"{}\",\"name\":", rec.t_us, rec.kind);
            json::escape_into(&mut out, &rec.name);
            if rec.span != 0 {
                let _ = write!(out, ",\"span\":{}", rec.span);
            }
            if rec.kind == "span_open" {
                let _ = write!(out, ",\"parent\":{}", rec.parent);
            }
            if let Some(us) = rec.elapsed_us {
                let _ = write!(out, ",\"elapsed_us\":{us}");
            }
            for (k, v) in &rec.fields {
                out.push(',');
                json::escape_into(&mut out, k);
                out.push(':');
                match v {
                    OwnedField::U64(v) => {
                        let _ = write!(out, "{v}");
                    }
                    OwnedField::I64(v) => {
                        let _ = write!(out, "{v}");
                    }
                    OwnedField::F64(v) => {
                        if v.is_finite() {
                            let _ = write!(out, "{v}");
                        } else {
                            out.push_str("null");
                        }
                    }
                    OwnedField::Str(s) => json::escape_into(&mut out, s),
                    OwnedField::Bool(b) => {
                        let _ = write!(out, "{b}");
                    }
                }
            }
            out.push('}');
            out
        }

        /// splitmix64: a dependency-free generator for the cases.
        struct Rng(u64);

        impl Rng {
            fn next(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            }

            fn below(&mut self, n: u64) -> u64 {
                self.next() % n
            }

            /// Zero (the "none" id) one time in three, else any value.
            fn id(&mut self) -> u64 {
                if self.below(3) == 0 {
                    0
                } else {
                    self.next()
                }
            }

            fn text(&mut self) -> String {
                const PIECES: &[&str] = &[
                    "a", "req", ".", "\"", "\\", "\n", "\t", "\r", "\u{1}", "\u{1f}", "é", "∀", " ",
                ];
                (0..self.below(6))
                    .map(|_| PIECES[self.below(PIECES.len() as u64) as usize])
                    .collect()
            }

            fn float(&mut self) -> f64 {
                match self.below(6) {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => -0.0,
                    4 => f64::from_bits(self.next()),
                    _ => self.below(1000) as f64 / 7.0,
                }
            }
        }

        /// One random emission, as owned strings the borrowed forms
        /// point into.
        struct Case {
            kind: &'static str,
            name: String,
            span: u64,
            parent: u64,
            elapsed_us: Option<u64>,
            keys: Vec<String>,
            strs: Vec<String>,
            values: Vec<(u8, u64, f64)>,
            req: u64,
        }

        impl Case {
            fn new(rng: &mut Rng) -> Case {
                let kind = ["span_open", "span_close", "event"][rng.below(3) as usize];
                let n = rng.below(5) as usize;
                Case {
                    kind,
                    name: rng.text(),
                    span: rng.id(),
                    parent: rng.id(),
                    elapsed_us: (rng.below(2) == 0).then(|| rng.next()),
                    keys: (0..n).map(|_| rng.text()).collect(),
                    strs: (0..n).map(|_| rng.text()).collect(),
                    values: (0..n).map(|_| (rng.below(5) as u8, rng.next(), rng.float())).collect(),
                    req: rng.id(),
                }
            }

            fn fields(&self) -> Vec<(&str, Field<'_>)> {
                self.keys
                    .iter()
                    .zip(&self.strs)
                    .zip(&self.values)
                    .map(|((k, s), &(tag, n, x))| {
                        let v = match tag {
                            0 => Field::U64(n),
                            1 => Field::I64(n as i64),
                            2 => Field::F64(x),
                            3 => Field::Str(s),
                            _ => Field::Bool(n % 2 == 0),
                        };
                        (k.as_str(), v)
                    })
                    .collect()
            }

            fn head(&self) -> Head<'_> {
                Head {
                    t_us: self.span ^ self.req,
                    kind: self.kind,
                    name: &self.name,
                    span: self.span,
                    parent: self.parent,
                    elapsed_us: self.elapsed_us,
                }
            }
        }

        #[test]
        fn live_lines_render_like_owned_records() {
            let mut rng = Rng(27);
            for _ in 0..4000 {
                let case = Case::new(&mut rng);
                let fields = case.fields();
                let live = || Live { head: case.head(), fields: &fields, req: case.req };
                let mut line = String::new();
                live().render(&mut line);
                let record = live().into_record();
                assert_eq!(line, oracle_line(&record), "{record:?}");
                assert_eq!(record.to_json_line(), line);
                if !case.keys.iter().any(|k| k == "req") {
                    assert_eq!(record.req(), case.req);
                }
                assert!(json::is_valid(&line), "{line}");
            }
        }

        #[test]
        fn arena_entries_come_back_as_the_records_live_emission_builds() {
            let mut rng = Rng(11);
            let mut arena = Arena::new();
            for round in 0..3 {
                arena.clear();
                let cases: Vec<Case> = (0..200).map(|_| Case::new(&mut rng)).collect();
                let fields: Vec<Vec<(&str, Field<'_>)>> = cases.iter().map(Case::fields).collect();
                for (case, fields) in cases.iter().zip(&fields) {
                    arena.push(case.head(), fields, case.req);
                }
                let records = arena.records();
                assert_eq!(records.len(), cases.len(), "round {round}");
                for ((case, fields), got) in cases.iter().zip(&fields).zip(&records) {
                    let want = Live { head: case.head(), fields, req: case.req }.into_record();
                    assert_eq!(format!("{got:?}"), format!("{want:?}"));
                }
            }
        }
    }
}

#[cfg(not(feature = "trace"))]
mod imp {
    use super::{Field, JournalSummary, Record, Sink};

    pub(super) fn now_us() -> u64 {
        0
    }
    pub(super) fn enabled() -> bool {
        false
    }
    pub(super) fn capture_begin() {}
    pub(super) fn capture_discard() {}
    pub(super) fn capture_take() -> Vec<Record> {
        Vec::new()
    }
    #[inline(always)]
    pub(super) fn append(_record: Record) {}
    pub(super) fn attach(
        _sink: Sink,
        _capacity: usize,
        _injector: rde_faults::FaultInjector,
    ) -> std::io::Result<()> {
        Ok(())
    }
    pub(super) fn detach() -> Option<JournalSummary> {
        None
    }
    pub(super) fn flush() {}
    #[inline(always)]
    pub(super) fn emit(
        _kind: &'static str,
        _name: &str,
        _span: u64,
        _parent: u64,
        _elapsed_us: Option<u64>,
        _fields: &[(&str, Field<'_>)],
    ) {
    }
}

/// Attach a journal sink with a record capacity. Replaces (and
/// flushes) any previously attached sink. With the `trace` feature
/// compiled out this is a no-op that still returns `Ok`.
pub fn attach(sink: Sink, capacity: usize) -> std::io::Result<()> {
    imp::attach(sink, capacity, rde_faults::FaultInjector::inert())
}

/// Like [`attach`], but the sink's writes consult `injector` at the
/// `obs.journal.write` fault point — the injection campaign is scoped
/// to the context that owns this sink rather than ambient.
pub fn attach_scoped(
    sink: Sink,
    capacity: usize,
    injector: rde_faults::FaultInjector,
) -> std::io::Result<()> {
    imp::attach(sink, capacity, injector)
}

/// Tear down the journal: flush file sinks, append a
/// `journal_truncated` marker if the capacity bound dropped records,
/// and return the summary (with retained records for the memory sink).
/// Returns `None` when no sink was attached.
pub fn detach() -> Option<JournalSummary> {
    imp::detach()
}

/// Flush a file sink's buffered lines to disk.
pub fn flush() {
    imp::flush()
}

/// Begin diverting the calling thread's records into a per-thread
/// capture buffer instead of the shared sink. The slow-request sampler
/// uses this to buffer a request's whole span tree and decide *after*
/// the request whether it was slow enough to keep: [`capture_take`]
/// returns the buffer, and [`append`] replays kept records into the
/// sink. While capturing, [`enabled`] reports `true` on this thread
/// even with no sink attached. The buffer is bounded; overflow is
/// counted and surfaces as a `journal.capture_truncated` event at take
/// time. No-op without the `trace` feature.
pub fn capture_begin() {
    imp::capture_begin()
}

/// Stop capturing on the calling thread and return the buffered
/// records (empty if [`capture_begin`] was never called, or with the
/// `trace` feature compiled out). This is the slow path: it builds one
/// owned [`Record`] per buffered entry, in emission order.
pub fn capture_take() -> Vec<Record> {
    imp::capture_take()
}

/// Stop capturing on the calling thread and drop the buffer: the fast
/// path of the slow-request sampler, for a request that was not slow.
/// The buffer keeps its capacity for the thread's next capture, so
/// neither capturing nor discarding allocates once a thread has
/// captured one request of the same shape.
pub fn capture_discard() {
    imp::capture_discard()
}

/// Append a pre-built record directly to the attached sink, subject to
/// the same capacity bound and I/O accounting as live emission. This
/// is how capture-mode buffers get replayed; records keep their
/// original timestamps and request stamps.
pub fn append(record: Record) {
    imp::append(record)
}

/// Is a sink attached (and the `trace` feature compiled in)? One
/// relaxed atomic load — cheap enough to guard field construction on
/// hot paths.
pub fn enabled() -> bool {
    imp::enabled()
}

/// Microseconds since the journal epoch.
pub fn now_us() -> u64 {
    imp::now_us()
}

/// Emit a free-standing event record, attributed to the calling
/// thread's current span (if any).
pub fn event(name: &str, fields: &[(&str, Field<'_>)]) {
    if !imp::enabled() {
        return;
    }
    imp::emit("event", name, crate::span::current_span_id(), 0, None, fields);
}

#[cfg(feature = "trace")]
pub(crate) fn emit_span(
    kind: &'static str,
    name: &str,
    span: u64,
    parent: u64,
    elapsed_us: Option<u64>,
    fields: &[(&str, Field<'_>)],
) {
    imp::emit(kind, name, span, parent, elapsed_us, fields);
}

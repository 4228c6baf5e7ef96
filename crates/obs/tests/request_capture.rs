//! Request-id stamping and capture mode: records emitted under an
//! installed request id carry a `req` field that survives the JSON
//! round trip, and capture-mode buffers divert cleanly from the shared
//! sink and replay into it.
//!
//! The journal is process-global, so the tests in this file serialize
//! on a mutex instead of relying on cargo's per-test threads.
#![cfg(feature = "trace")]

use std::sync::Mutex;

use rde_obs::journal::{self, JournalSummary, Record, Sink};
use rde_obs::{event, request, span};

static LOCK: Mutex<()> = Mutex::new(());

fn with_memory_journal(capacity: usize, body: impl FnOnce()) -> JournalSummary {
    let _guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    journal::attach(Sink::Memory, capacity).expect("memory sink installs");
    body();
    journal::detach().expect("journal was installed")
}

#[test]
fn records_under_a_request_are_stamped_and_round_trip() {
    let summary = with_memory_journal(1024, || {
        event("test.before", &[]);
        {
            let _req = request::enter(42);
            let s = span("test.work", &[("step", 1u64.into())]);
            event("test.tick", &[]);
            s.close_with(&[("ok", true.into())]);
        }
        event("test.after", &[]);
    });
    assert_eq!(summary.records.len(), 5);
    for rec in &summary.records {
        let expected = if rec.name.starts_with("test.before") || rec.name.starts_with("test.after")
        {
            0
        } else {
            42
        };
        assert_eq!(rec.req(), expected, "{} misattributed", rec.name);
        // The stamp must survive the file round trip too: render the
        // line and parse it back.
        let reparsed = Record::parse_json_line(&rec.to_json_line()).expect("line parses back");
        assert_eq!(reparsed.req(), rec.req());
        assert_eq!(reparsed.kind, rec.kind);
        assert_eq!(reparsed.name, rec.name);
        assert_eq!(reparsed.span, rec.span);
        assert_eq!(reparsed.elapsed_us, rec.elapsed_us);
    }
}

#[test]
fn capture_diverts_from_the_sink_and_replays_into_it() {
    let summary = with_memory_journal(1024, || {
        let _req = request::enter(7);
        journal::capture_begin();
        let s = span("test.captured", &[]);
        event("test.captured_tick", &[("n", 3u64.into())]);
        drop(s);
        let captured = journal::capture_take();
        assert_eq!(captured.len(), 3, "open + event + close");
        for rec in &captured {
            assert_eq!(rec.req(), 7);
        }
        // Nothing reached the sink while capturing; replay half of it.
        event("test.live", &[]);
        for rec in captured.into_iter().take(2) {
            journal::append(rec);
        }
    });
    let names: Vec<&str> = summary.records.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, vec!["test.live", "test.captured", "test.captured_tick"]);
    assert_eq!(summary.written, 3);
}

#[test]
fn capture_works_with_no_sink_attached() {
    let _guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    assert!(!journal::enabled());
    journal::capture_begin();
    assert!(journal::enabled(), "capture mode enables emission on this thread");
    let s = span("test.sinkless", &[]);
    drop(s);
    let captured = journal::capture_take();
    assert_eq!(captured.len(), 2);
    assert!(!journal::enabled());
    assert!(journal::detach().is_none(), "capturing must not install a sink");
}

#[test]
fn capture_overflow_is_marked_not_silent() {
    let _guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let _req = request::enter(9);
    journal::capture_begin();
    // The capture cap is 1 << 14 records; overflow it by two.
    for i in 0..(1 << 14) + 2u64 {
        event("test.flood", &[("i", i.into())]);
    }
    let captured = journal::capture_take();
    assert_eq!(captured.len(), (1 << 14) + 1, "cap records plus the truncation marker");
    let marker = captured.last().expect("marker present");
    assert_eq!(marker.name, "journal.capture_truncated");
    assert_eq!(marker.field("dropped").and_then(|f| f.as_u64()), Some(2));
    assert_eq!(marker.req(), 9, "the marker itself is attributed");
}

/// The records of `records` with what differs between two runs of the
/// same script taken out: timestamps and durations are dropped (only
/// whether a duration is present stays), and span ids are renumbered
/// by first appearance, so nesting is compared, not id values.
fn normalized(records: &[Record]) -> Vec<String> {
    let mut ids = std::collections::HashMap::new();
    let mut id = |raw: u64| {
        if raw == 0 {
            return 0;
        }
        let next = ids.len() + 1;
        *ids.entry(raw).or_insert(next)
    };
    records
        .iter()
        .map(|r| {
            let (span, parent) = (id(r.span), id(r.parent));
            format!(
                "{} {} span={span} parent={parent} timed={} {:?}",
                r.kind,
                r.name,
                r.elapsed_us.is_some(),
                r.fields
            )
        })
        .collect()
}

/// Nested spans, events with every field type (escapes, a non-finite
/// float), a request id that changes mid-tree and records outside any
/// request, then `flood` more events.
fn emission_script(flood: u64) {
    event("test.unstamped", &[("note", "before \"any\" request".into())]);
    let _req = request::enter(31);
    let outer = span("test.outer", &[("mapping", "split".into()), ("round", 1u64.into())]);
    event("test.values", &[("x", 1.5.into()), ("nan", f64::NAN.into()), ("neg", (-3i64).into())]);
    {
        let inner = span("test.inner", &[("path", "a\\b\n\tc".into())]);
        {
            let _deepest = span("test.deepest", &[]);
            event("test.deep", &[("flag", true.into())]);
        }
        {
            let _other = request::enter(32);
            event("test.other_request", &[("s", "é∀".into())]);
        }
        inner.close_with(&[("found", false.into()), ("n", 7usize.into())]);
    }
    outer.close_with(&[("fired", 5u64.into())]);
    for i in 0..flood {
        event("test.flood", &[("i", i.into()), ("tag", "flood".into())]);
    }
}

#[test]
fn capture_returns_what_the_memory_sink_gets_for_the_same_script() {
    let live = with_memory_journal(1 << 20, || emission_script(3));
    let _guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    journal::capture_begin();
    emission_script(3);
    let captured = journal::capture_take();
    assert_eq!(captured.len(), 13);
    assert_eq!(normalized(&captured), normalized(&live.records));
    assert!(captured.windows(2).all(|w| w[0].t_us <= w[1].t_us), "emission order");
    let stamps: Vec<u64> = captured.iter().map(Record::req).collect();
    assert_eq!(stamps, [0, 31, 31, 31, 31, 31, 31, 32, 31, 31, 31, 31, 31]);
}

#[test]
fn capture_overflow_matches_the_memory_sink_up_to_the_cap() {
    const CAP: usize = 1 << 14;
    let flood = CAP as u64;
    let live = with_memory_journal(1 << 20, || emission_script(flood));
    let _guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    journal::capture_begin();
    emission_script(flood);
    let _req = request::enter(40);
    let mut captured = journal::capture_take();
    let marker = captured.pop().expect("truncation marker");
    assert_eq!(captured.len(), CAP);
    assert_eq!(normalized(&captured), normalized(&live.records[..CAP]));
    assert_eq!(marker.name, "journal.capture_truncated");
    let dropped = live.records.len() - CAP;
    assert_eq!(marker.field("dropped").and_then(|f| f.as_u64()), Some(dropped as u64));
    assert_eq!(marker.req(), 40, "stamped with the request live at take time");
    // The next capture starts empty and is not truncated.
    journal::capture_begin();
    event("test.after", &[]);
    let again = journal::capture_take();
    assert_eq!(again.len(), 1);
    assert_eq!(again[0].name, "test.after");
}

#[test]
fn a_discarded_capture_leaves_nothing_behind() {
    let summary = with_memory_journal(1024, || {
        let _req = request::enter(50);
        journal::capture_begin();
        emission_script(2);
        journal::capture_discard();
        assert!(journal::capture_take().is_empty(), "a discarded capture cannot be taken");
        event("test.live", &[]);
    });
    let names: Vec<&str> = summary.records.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, ["test.live"], "discarded records never reach the sink");
    assert_eq!(summary.written, 1);
}

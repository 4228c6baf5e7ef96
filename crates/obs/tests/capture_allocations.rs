//! Allocation test for the slow-request sampler's fast path.
//!
//! A daemon with `--trace-slow-ms` captures every request's span tree
//! and throws most of them away. Capture writes compact entries into a
//! per-thread arena whose strings share one reused buffer, and
//! `capture_discard` keeps its capacity, so once a thread has captured
//! one request, capturing and discarding the next allocates nothing.
//! This test counts heap allocations (fresh ones and reallocations)
//! across `capture_begin` → 50 spans and events with string fields →
//! `capture_discard`; an owned record per span or event, or a buffer
//! rebuilt per capture, makes the count non-zero.
#![cfg(feature = "trace")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rde_obs::{event, journal, request, span};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a relaxed atomic add.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One request's records: 10 spans, each with three events and string
/// fields on both sides, 50 records in all.
fn request_body(id: u64) {
    let _req = request::enter(id);
    for round in 0..10u64 {
        let s = span("test.round", &[("mapping", "split".into()), ("round", round.into())]);
        event("test.match", &[("op", "CHASE".into()), ("rows", 40u64.into())]);
        event("test.fire", &[("dep", "P(x,y,z) -> Q(x,y)".into()), ("ok", true.into())]);
        event("test.cache", &[("cache", "miss".into()), ("class", (-1i64).into())]);
        s.close_with(&[("outcome", "ok".into()), ("us", 12.5.into())]);
    }
}

#[test]
fn discarding_a_fast_request_capture_allocates_nothing() {
    assert!(!journal::enabled(), "no sink: only capture mode emits");
    // The warm-up request sizes the arena and the span stack, as every
    // later request on a daemon thread finds them.
    journal::capture_begin();
    request_body(1);
    journal::capture_discard();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    journal::capture_begin();
    request_body(2);
    journal::capture_discard();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(allocations, 0, "a discarded capture allocated {allocations} times");

    // The same capture, kept, still yields all 50 records.
    journal::capture_begin();
    request_body(3);
    let records = journal::capture_take();
    assert_eq!(records.len(), 50);
    assert!(records.iter().all(|r| r.req() == 3));
}

//! Allocation regression test for a served CHASE request's text path.
//!
//! `CHASE split` parses a body, chases it and renders the target facts
//! one reply line each. Parsing fills one reused argument buffer per
//! body, column indexes are built only when a search probes them, and
//! rendering writes names straight into each line. This test counts
//! heap allocations (fresh ones and reallocations) across parse →
//! chase → render of a 40-fact body with labeled nulls, and bounds them
//! per output fact (80 of them). Most of what remains is interning the
//! body's constants and null names into the request's vocabulary, one
//! `Arc<str>` per new name. A `Fact` or an argument `Vec` per parsed
//! line, posting lists nobody reads, a `String` per rendered value, or
//! a second copy of each interned name each push the ratio past the
//! bound; the eager indexes and the `Fact`-per-line text path read
//! 13.8 per output fact, and two copies per interned name 3.8.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rde_chase::{chase, ChaseOptions};
use rde_deps::parse_mapping;
use rde_model::parse::parse_instance;
use rde_model::{display, Vocabulary};

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

/// Allocations allowed per output fact (3.04 measured: 243 in all).
const BOUND: f64 = 3.1;

const SPLIT: &str = "source: P/3\ntarget: Q/2, R/2\nP(x,y,z) -> Q(x,y) & R(y,z)\n";

/// 40 `P` facts over 24 constants, each position a labeled null with
/// probability 1/5, as the `serve_logged` benchmark sends.
fn body() -> String {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut body = String::new();
    for i in 0..40 {
        let args: Vec<String> = (0..3)
            .map(|pos| {
                if rng.gen_bool(0.2) {
                    format!("?n{i}p{pos}")
                } else {
                    format!("k{}", rng.gen_range(0..24))
                }
            })
            .collect();
        body.push_str(&format!("P({})\n", args.join(", ")));
    }
    body
}

#[test]
fn chase_request_text_path_allocates_a_few_times_per_output_fact() {
    let mut base = Vocabulary::new();
    let mapping = parse_mapping(&mut base, SPLIT).unwrap();
    let body = body();
    let serve = |vocab: &mut Vocabulary| {
        let instance = parse_instance(vocab, &body).unwrap();
        let result = chase(&instance, &mapping.dependencies, vocab, &ChaseOptions::default());
        display::fact_lines(vocab, &result.unwrap().instance.restrict_to(&mapping.target))
    };
    // One warm-up run registers the metrics and fills the searcher's
    // per-thread scratch, as every later request in a daemon finds them.
    serve(&mut base.clone());

    // Each request starts from a copy of the catalog's vocabulary, as
    // the daemon's does; the copy is not counted.
    let mut vocab = base.clone();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let lines = serve(&mut vocab);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert!(lines.len() > 60 && lines.iter().any(|l| l.contains('?')), "{lines:?}");
    let per_fact = allocations as f64 / lines.len() as f64;
    eprintln!("{allocations} allocations for {} output facts: {per_fact:.2} per fact", lines.len());
    assert!(per_fact <= BOUND, "{per_fact:.2} allocations per output fact, bound {BOUND}");
}

//! Allocation regression test for the restricted chase.
//!
//! A chase round must not allocate per trigger: relation tuples and
//! trigger keys live in flat row sets, the delta is a list of row
//! ranges, and firing inserts through one reused buffer. This test
//! counts heap allocations (fresh ones and reallocations) across one
//! restricted chase of the `chase_restricted` benchmark workload and
//! bounds them per inserted fact. Boxed tuples, a key vector per
//! trigger or a fact per firing each cost at least one allocation per
//! fact and push the ratio past the bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rde_bench::workloads::{random_graph_nulls, triangle_deps};
use rde_chase::{chase, ChaseOptions, ChaseVariant};
use rde_model::Vocabulary;

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

/// Allocations allowed per inserted fact.
const BOUND: f64 = 2.0;

#[test]
fn restricted_chase_allocates_less_than_twice_per_inserted_fact() {
    let mut vocab = Vocabulary::new();
    let deps = triangle_deps(&mut vocab, 4);
    let input = random_graph_nulls(&mut vocab, 64, 32, 1);
    let options = ChaseOptions::for_variant(ChaseVariant::Restricted);
    // One warm-up run registers the metrics and fills the searcher's
    // per-thread scratch, as every later call in a process finds them.
    chase(&input, &deps, &mut vocab.clone(), &options).unwrap();

    let mut v = vocab.clone();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = chase(&input, &deps, &mut v, &options).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let inserted = result.instance.len() - input.len();
    assert_eq!(inserted, 38_400, "the benchmark workload's size");
    let per_fact = allocations as f64 / inserted as f64;
    eprintln!("{allocations} allocations for {inserted} facts: {per_fact:.2} per fact");
    assert!(per_fact <= BOUND, "{per_fact:.2} allocations per inserted fact, bound {BOUND}");
}

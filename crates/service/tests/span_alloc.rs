//! What span collection costs the heap, counted in blocks.
//!
//! Switched off, the whole per-request cost is [`SpanStore::enabled`]: it
//! allocates nothing. Switched on, a request builds and records one tree,
//! and that tree takes the same few blocks whatever the request carries:
//! a 1 024-feedback ingest costs no more blocks than a 1-feedback one.
//! The clock is `bench.tracing_overhead_pct` in `BENCHMARK.json`.

use hp_service::obs::{next_trace_id, SpanBuilder, SpanStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

thread_local! {
    /// Blocks this thread has asked the allocator for. Per thread, so
    /// tests running beside this one do not disturb it.
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count_block() {
    let _ = BLOCKS.try_with(|blocks| blocks.set(blocks.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_block();
        // SAFETY: the caller's obligations are passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_block();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Blocks allocated on this thread while `work` runs.
fn blocks(work: impl FnOnce()) -> u64 {
    let before = BLOCKS.with(Cell::get);
    work();
    BLOCKS.with(Cell::get) - before
}

/// The blocks one recorded tree takes: the builder's stage vector, the
/// two formatted details and the `Arc` the store keeps it in.
const TREE_BLOCKS: u64 = 4;

/// One edge-shaped `/ingest` tree for a body of `feedbacks` records,
/// built and recorded as the edge does around a request.
fn record_ingest_tree(store: &SpanStore, feedbacks: usize) {
    let started = Instant::now();
    let mut builder = SpanBuilder::new_at(next_trace_id(), "/ingest", started);
    let parsed = builder.offset_ns(Instant::now());
    builder.add_ns("parse", 0, parsed, format!("feedbacks={feedbacks}"));
    builder.add_ns("dispatch", parsed, 0, "shard channel send");
    store.record(builder.finish(format!("accepted={feedbacks} shed=0")));
}

#[test]
fn a_disabled_store_allocates_nothing() {
    let store = SpanStore::new(&["/ingest", "/assess"], 8, 512, false);
    let taken = blocks(|| {
        for _ in 0..1024 {
            black_box(black_box(&store).enabled());
        }
    });
    assert_eq!(taken, 0, "the disabled check allocated {taken} blocks");
}

#[test]
fn a_recorded_tree_takes_the_same_blocks_whatever_the_request_carries() {
    let store = SpanStore::new(&["/ingest", "/assess"], 8, 512, true);
    // Past capacity, the recent ring and the slow ring reuse their
    // storage: what a tree costs from then on is the tree itself.
    for _ in 0..2 * 512 {
        record_ingest_tree(&store, 1);
    }
    let one = blocks(|| record_ingest_tree(&store, 1));
    let full = blocks(|| record_ingest_tree(&store, 1024));
    assert_eq!(
        (one, full),
        (TREE_BLOCKS, TREE_BLOCKS),
        "blocks per tree for a 1-feedback and a 1 024-feedback request"
    );
}

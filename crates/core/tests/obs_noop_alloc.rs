//! Zero-overhead smoke test: the [`NoopRecorder`] path must never touch the
//! heap. A counting global allocator wraps the system allocator; driving
//! every recorder entry point through a `NoopRecorder` in a hot loop must
//! leave the allocation counter untouched. This is the observable half of
//! the zero-cost claim — the other half (identical results) is covered by
//! the `proptest_obs_parity` suite.

use infprop_core::obs::{Counter, Gauge, Hist, NoopRecorder, Recorder, Span};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator with a per-thread allocation counter bolted on. The
/// count is per thread because the test harness runs sibling tests on
/// parallel threads, and their allocations must not be charged here.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation on the calling thread. `try_with` because the
/// allocator also runs while thread-locals are being torn down.
fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
#[allow(clippy::assertions_on_constants)]
fn noop_recorder_is_zero_sized() {
    assert_eq!(std::mem::size_of::<NoopRecorder>(), 0);
    assert!(!NoopRecorder::ENABLED);
}

#[test]
fn noop_recorder_calls_never_allocate() {
    let rec = NoopRecorder;
    // Warm up once so any lazy runtime setup (test harness buffers etc.)
    // cannot be misattributed to the recorder.
    rec.add(Counter::EngineInteractions, 1);
    let before = allocations();
    for i in 0..100_000u64 {
        rec.add(Counter::EngineInteractions, i);
        rec.add(Counter::ExactMergeCalls, 1);
        rec.gauge(Gauge::StoreHeapBytes, i);
        rec.record(Hist::ExactMergeSrcLen, i);
        let start = rec.span_start();
        rec.span_end(Span::EngineRun, start);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "NoopRecorder performed {} heap allocations in the hot loop",
        after - before
    );
}

#[test]
fn noop_span_start_skips_the_clock() {
    let rec = NoopRecorder;
    let start = rec.span_start();
    // A disabled span carries no timestamp at all, so there is nothing to
    // compute at span_end either.
    assert_eq!(start.elapsed_ns(), None);
}

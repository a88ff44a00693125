//! Zero-cost proof for [`NoopTracer`]: the disabled tracer is a zero-sized
//! type whose every operation compiles to nothing, so threading tracing
//! hooks through the hot query/build paths costs untraced callers exactly
//! zero heap traffic. A counting global allocator makes that claim a test
//! instead of a comment: a hot loop of a hundred thousand span begin/end,
//! instant, trace-id-allocation, and worker-lane claims must perform zero
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use infprop_core::trace::{NoopTracer, SpanId, TraceEvent, TraceId, Tracer};

/// Forwarding allocator that counts every allocation (and reallocation) on
/// the thread that makes it. The count is per thread because the test
/// harness runs sibling tests on parallel threads, and their allocations
/// must not be charged to the tracer.
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
fn noop_tracer_is_zero_sized_and_disabled() {
    assert_eq!(std::mem::size_of::<NoopTracer>(), 0);
    assert!(!NoopTracer::ENABLED);
}

#[test]
fn noop_tracer_hot_loop_never_allocates() {
    let tracer = NoopTracer;

    // Warm up once outside the measured window so any lazy runtime
    // initialization (formatting machinery, TLS) cannot be charged to the
    // tracer itself.
    let sp = tracer.begin(TraceId(1), SpanId::NONE, TraceEvent::QueryBatch);
    tracer.end(sp, TraceEvent::QueryBatch, 0);

    let before = allocations();
    for i in 0..100_000u64 {
        let trace = TraceId(tracer.alloc_traces(2));
        let batch = tracer.begin(trace, SpanId::NONE, TraceEvent::QueryBatch);
        let worker = tracer.worker();
        let el = worker.begin(TraceId(trace.0 + 1), batch, TraceEvent::QueryElement);
        worker.instant(trace, el, TraceEvent::GreedyRound, i);
        worker.end(el, TraceEvent::QueryElement, i);
        tracer.end(batch, TraceEvent::QueryBatch, i);
        assert_eq!(batch, SpanId::NONE);
        assert_eq!(el, SpanId::NONE);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "NoopTracer allocated on the hot emit path"
    );
}

#[test]
fn noop_tracer_returns_null_ids() {
    let tracer = NoopTracer;
    assert_eq!(tracer.alloc_traces(17), 0);
    assert_eq!(
        tracer.begin(TraceId(9), SpanId(3), TraceEvent::CompactRun),
        SpanId::NONE
    );
}

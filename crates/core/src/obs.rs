//! Zero-overhead observability: counters, gauges, log₂-bucket histograms and
//! span timers for the one-pass engine, the summary stores and the query
//! path.
//!
//! The paper's evaluation (§6, Tables 3–5) is about run time, memory
//! footprint and sketch quality; this module makes those numbers visible
//! *inside* a run — merge-path decisions, dominance prunes, register
//! touches, per-phase wall time — without taxing the hot path when nobody is
//! looking.
//!
//! # Design
//!
//! Everything hangs off the monomorphized [`Recorder`] trait. Instrumented
//! code is generic over `R: Recorder` and calls `rec.add(...)` /
//! `rec.record(...)` / `rec.span_start()` unconditionally; the two
//! implementations are:
//!
//! * [`NoopRecorder`] (the default everywhere) — every method is an empty
//!   `#[inline(always)]` body and [`Recorder::ENABLED`] is `false`, so after
//!   monomorphization the instrumentation compiles to *nothing*: no branch,
//!   no clock read ([`NoopRecorder::span_start`] returns `SpanStart(None)`
//!   without touching [`Instant`]), no allocation. Any extra work needed
//!   only to *compute* a metric value is gated on `R::ENABLED`, a
//!   monomorphization-time constant the optimizer deletes.
//! * [`MetricsRecorder`] — fixed arrays of relaxed [`AtomicU64`] cells
//!   indexed by the metric enums below. `&self` methods and `Sync`, so one
//!   recorder can be shared by reference across the engine, a store and the
//!   [`par`](crate::par) fan-out threads. `impl Recorder for &R` makes
//!   borrow-passing transparent.
//!
//! A run drains into a [`MetricsSnapshot`]: a stable, serde-free JSON
//! document (hand-rolled encoder and parser, following the `persist` module
//! convention of owning our own formats) consumed by the CLI `--metrics`
//! flag and the bench trajectory harness.
//!
//! The metric catalogue is closed: the [`Counter`], [`Gauge`], [`Hist`] and
//! [`Span`] enums below are the single source of truth for names and units,
//! and a snapshot always contains every metric (zero-valued ones included)
//! so downstream key-set validation is trivial.
//!
//! This module is the only library code allowed to name
//! [`std::time::Instant`] (`cargo xtask lint` rule `no-raw-timing`); all
//! other timing must flow through span timers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Monotonic event counters. Unit: events, unless the name says otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Interactions applied by the reverse pass (post frontier-accept).
    EngineInteractions,
    /// Two-phase tie batches flushed (batches with ≥ 2 interactions).
    EngineTieBatches,
    /// Streaming pushes rejected by the `OutOfOrder` frontier contract.
    EngineOutOfOrderRejects,
    /// `ExactStore` merge calls (one per admissible interaction).
    ExactMergeCalls,
    /// Exact merges that took the small-side binary-search + splice path.
    ExactMergeSmallSide,
    /// Exact merges that took the two-pointer scratch-swap rebuild path.
    ExactMergeRebuild,
    /// Summary entries read or written across all exact merges.
    ExactEntriesTouched,
    /// `VhllStore` sketch merge calls.
    VhllMergeCalls,
    /// vHLL version entries dropped by dominance during merges.
    VhllDominancePrunes,
    /// vHLL adds rejected because an existing version dominated them.
    VhllDominatedAdds,
    /// Inline→heap spills of vHLL version lists.
    VhllSpills,
    /// Occupied vHLL registers visited during merges.
    VhllCellsVisited,
    /// vHLL registers skipped via the occupancy bitmap (empty in both sides).
    VhllCellsSkipped,
    /// vHLL version entries scanned across all merges.
    VhllRegisterTouches,
    /// Influence-oracle seed-set queries answered.
    OracleQueries,
    /// Greedy maximization rounds (one per selected seed).
    GreedyRounds,
    /// CELF lazy re-evaluations of stale marginal gains.
    GreedyLazyRefreshes,
    /// Chunks dispatched by the deterministic parallel layer.
    ParChunks,
    /// Chunks served by an already-initialized per-worker scratch buffer
    /// (chunks processed minus scratches created by the fan-out).
    ParScratchReuse,
    /// Monte-Carlo simulation runs executed.
    SimRuns,
    /// Forward-time interactions appended to a delta overlay.
    DeltaAppends,
    /// Overlay rebuilds (`LayeredOracle::refresh`) executed.
    DeltaRefreshes,
    /// LSM-style re-freeze compactions executed.
    CompactionRuns,
    /// Interactions dropped by sliding-window expiry at compaction.
    CompactionExpired,
    /// Seed-set queries answered by the batch-first frozen kernel
    /// (`influence_many_frozen`), a subset of `oracle.queries`.
    KernelBatchQueries,
    /// Summary rows (seeds after dedup) merged by the frozen batch kernels
    /// across batch queries.
    KernelMergeRows,
    /// Client connections accepted by the serving tier.
    ServeConnections,
    /// Request frames decoded by the serving tier (one per protocol frame).
    ServeRequests,
    /// Individual influence queries answered by the serving tier (a batched
    /// `influence` frame counts each seed set).
    ServeQueries,
}

impl Counter {
    /// Every counter, in stable catalogue (serialization) order.
    pub const ALL: [Counter; 29] = [
        Counter::EngineInteractions,
        Counter::EngineTieBatches,
        Counter::EngineOutOfOrderRejects,
        Counter::ExactMergeCalls,
        Counter::ExactMergeSmallSide,
        Counter::ExactMergeRebuild,
        Counter::ExactEntriesTouched,
        Counter::VhllMergeCalls,
        Counter::VhllDominancePrunes,
        Counter::VhllDominatedAdds,
        Counter::VhllSpills,
        Counter::VhllCellsVisited,
        Counter::VhllCellsSkipped,
        Counter::VhllRegisterTouches,
        Counter::OracleQueries,
        Counter::GreedyRounds,
        Counter::GreedyLazyRefreshes,
        Counter::ParChunks,
        Counter::ParScratchReuse,
        Counter::SimRuns,
        Counter::DeltaAppends,
        Counter::DeltaRefreshes,
        Counter::CompactionRuns,
        Counter::CompactionExpired,
        Counter::KernelBatchQueries,
        Counter::KernelMergeRows,
        Counter::ServeConnections,
        Counter::ServeRequests,
        Counter::ServeQueries,
    ];

    /// Stable dotted metric name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::EngineInteractions => "engine.interactions",
            Counter::EngineTieBatches => "engine.tie_batches",
            Counter::EngineOutOfOrderRejects => "engine.out_of_order_rejects",
            Counter::ExactMergeCalls => "exact.merge_calls",
            Counter::ExactMergeSmallSide => "exact.merge_small_side",
            Counter::ExactMergeRebuild => "exact.merge_rebuild",
            Counter::ExactEntriesTouched => "exact.entries_touched",
            Counter::VhllMergeCalls => "vhll.merge_calls",
            Counter::VhllDominancePrunes => "vhll.dominance_prunes",
            Counter::VhllDominatedAdds => "vhll.dominated_adds",
            Counter::VhllSpills => "vhll.spills",
            Counter::VhllCellsVisited => "vhll.cells_visited",
            Counter::VhllCellsSkipped => "vhll.cells_skipped",
            Counter::VhllRegisterTouches => "vhll.register_touches",
            Counter::OracleQueries => "oracle.queries",
            Counter::GreedyRounds => "greedy.rounds",
            Counter::GreedyLazyRefreshes => "greedy.lazy_refreshes",
            Counter::ParChunks => "par.chunks",
            Counter::ParScratchReuse => "par.scratch_reuse",
            Counter::SimRuns => "sim.runs",
            Counter::DeltaAppends => "delta.appends",
            Counter::DeltaRefreshes => "delta.refreshes",
            Counter::CompactionRuns => "compaction.runs",
            Counter::CompactionExpired => "compaction.expired_interactions",
            Counter::KernelBatchQueries => "kernel.batch_queries",
            Counter::KernelMergeRows => "kernel.merge_rows",
            Counter::ServeConnections => "serve.connections",
            Counter::ServeRequests => "serve.requests",
            Counter::ServeQueries => "serve.queries",
        }
    }

    #[inline]
    fn index(self) -> usize {
        self as usize // xtask-allow: no-lossy-cast (unit-enum discriminant)
    }
}

/// Last-write-wins gauges. Unit in the name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Heap bytes owned by the summary store after the build.
    StoreHeapBytes,
    /// Nodes tracked by the summary store.
    StoreNodes,
    /// Total summary entries (exact pairs or vHLL versions) after the build.
    StoreEntries,
    /// Heap bytes owned by the influence oracle.
    OracleHeapBytes,
    /// Heap bytes owned by a frozen oracle arena (offsets + flat entries or
    /// registers), set when a store or IRS is frozen.
    FrozenBytes,
    /// Forward-time interactions buffered in the delta overlay but not yet
    /// folded into the overlay arena (delta depth awaiting refresh).
    DeltaPending,
    /// Window-surviving base-tail interactions the overlay replays on each
    /// refresh.
    DeltaTail,
    /// Current base-arena generation of a layered oracle.
    CompactionGeneration,
}

impl Gauge {
    /// Every gauge, in stable catalogue (serialization) order.
    pub const ALL: [Gauge; 8] = [
        Gauge::StoreHeapBytes,
        Gauge::StoreNodes,
        Gauge::StoreEntries,
        Gauge::OracleHeapBytes,
        Gauge::FrozenBytes,
        Gauge::DeltaPending,
        Gauge::DeltaTail,
        Gauge::CompactionGeneration,
    ];

    /// Stable dotted metric name.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::StoreHeapBytes => "store.heap_bytes",
            Gauge::StoreNodes => "store.nodes",
            Gauge::StoreEntries => "store.entries",
            Gauge::OracleHeapBytes => "oracle.heap_bytes",
            Gauge::FrozenBytes => "frozen.bytes",
            Gauge::DeltaPending => "delta.pending_interactions",
            Gauge::DeltaTail => "delta.tail_interactions",
            Gauge::CompactionGeneration => "compaction.generation",
        }
    }

    #[inline]
    fn index(self) -> usize {
        self as usize // xtask-allow: no-lossy-cast (unit-enum discriminant)
    }
}

/// Fixed log₂-bucket size/latency histograms. Unit in the variant docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hist {
    /// Interactions per two-phase tie batch (unit: interactions).
    EngineTieBatchSize,
    /// Source-summary length at each exact merge (unit: entries).
    ExactMergeSrcLen,
    /// New entries spliced in per small-side exact merge (unit: entries).
    ExactSpliceLen,
    /// Union size returned per oracle query (unit: nodes, rounded).
    OracleUnionSize,
    /// Wall time per parallel chunk (unit: nanoseconds).
    ParChunkNs,
    /// Interactions per delta-overlay append batch (unit: interactions).
    DeltaAppendBatch,
    /// Interactions fed to each compaction rebuild (unit: interactions).
    CompactionInput,
    /// Seed sets per batch-kernel call (unit: queries).
    KernelBatchSize,
    /// Wall time per query inside a recorded batch-kernel call (unit:
    /// nanoseconds) — the histogram the CLI's p50/p99 report reads.
    KernelQueryNs,
    /// Wall time per oracle file/directory load (unit: nanoseconds) — fed
    /// by the CLI and serve loaders, the histogram behind the load-latency
    /// line and the mmap-vs-read bench row.
    OracleLoadNs,
    /// Wall time per served request frame, decode to flush (unit:
    /// nanoseconds) — the serving tier's p50/p99/p999 source.
    ServeRequestNs,
    /// Influence queries per served batch frame (unit: queries).
    ServeBatchSize,
}

impl Hist {
    /// Every histogram, in stable catalogue (serialization) order.
    pub const ALL: [Hist; 12] = [
        Hist::EngineTieBatchSize,
        Hist::ExactMergeSrcLen,
        Hist::ExactSpliceLen,
        Hist::OracleUnionSize,
        Hist::ParChunkNs,
        Hist::DeltaAppendBatch,
        Hist::CompactionInput,
        Hist::KernelBatchSize,
        Hist::KernelQueryNs,
        Hist::OracleLoadNs,
        Hist::ServeRequestNs,
        Hist::ServeBatchSize,
    ];

    /// Stable dotted metric name.
    pub fn name(self) -> &'static str {
        match self {
            Hist::EngineTieBatchSize => "engine.tie_batch_size",
            Hist::ExactMergeSrcLen => "exact.merge_src_len",
            Hist::ExactSpliceLen => "exact.splice_len",
            Hist::OracleUnionSize => "oracle.union_size",
            Hist::ParChunkNs => "par.chunk_ns",
            Hist::DeltaAppendBatch => "delta.append_batch",
            Hist::CompactionInput => "compaction.input_interactions",
            Hist::KernelBatchSize => "kernel.batch_size",
            Hist::KernelQueryNs => "kernel.query_ns",
            Hist::OracleLoadNs => "oracle.load_ns",
            Hist::ServeRequestNs => "serve.request_ns",
            Hist::ServeBatchSize => "serve.batch_size",
        }
    }

    #[inline]
    fn index(self) -> usize {
        self as usize // xtask-allow: no-lossy-cast (unit-enum discriminant)
    }
}

/// Named wall-time spans (count + total nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// One full reverse-pass build (`ReversePassEngine::run`).
    EngineRun,
    /// One individual-influence sweep over all nodes.
    OracleSweep,
    /// One batch of seed-set influence queries.
    OracleQueryBatch,
    /// One greedy top-k selection.
    GreedySelect,
    /// One Monte-Carlo simulation batch.
    SimRun,
    /// One delta-overlay rebuild (`LayeredOracle::refresh`).
    DeltaRefresh,
    /// One LSM-style re-freeze compaction.
    CompactionRun,
    /// One oracle file/directory load (CLI `oracle-query`).
    OracleLoad,
}

impl Span {
    /// Every span, in stable catalogue (serialization) order.
    pub const ALL: [Span; 8] = [
        Span::EngineRun,
        Span::OracleSweep,
        Span::OracleQueryBatch,
        Span::GreedySelect,
        Span::SimRun,
        Span::DeltaRefresh,
        Span::CompactionRun,
        Span::OracleLoad,
    ];

    /// Stable dotted metric name.
    pub fn name(self) -> &'static str {
        match self {
            Span::EngineRun => "engine.run",
            Span::OracleSweep => "oracle.sweep",
            Span::OracleQueryBatch => "oracle.query_batch",
            Span::GreedySelect => "greedy.select",
            Span::SimRun => "sim.run",
            Span::DeltaRefresh => "delta.refresh",
            Span::CompactionRun => "compaction.run",
            Span::OracleLoad => "oracle.load",
        }
    }

    #[inline]
    fn index(self) -> usize {
        self as usize // xtask-allow: no-lossy-cast (unit-enum discriminant)
    }
}

/// Opaque start token returned by [`Recorder::span_start`]. `None` for the
/// noop recorder, so disabled spans never read the clock.
#[derive(Debug, Clone, Copy)]
pub struct SpanStart(Option<Instant>);

impl SpanStart {
    /// Nanoseconds elapsed since the clock started; `None` for disabled
    /// recorders. Lets call sites feed a duration into a *histogram* (e.g.
    /// per-chunk timings in [`crate::par`]) instead of a span accumulator.
    #[inline]
    pub fn elapsed_ns(&self) -> Option<u64> {
        self.0
            .map(|t0| u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }
}

/// Saturating `usize → u64` for metric values (lossless on 64-bit targets;
/// saturates rather than truncates anywhere else).
#[inline]
pub fn metric_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Rounds a nonnegative `f64` metric (e.g. an estimated cardinality) into a
/// `u64` histogram value; negatives clamp to zero, overflow saturates.
#[inline]
pub fn metric_f64(v: f64) -> u64 {
    if v <= 0.0 {
        0
    } else {
        v.round() as u64 // xtask-allow: no-lossy-cast (saturating float→int metric rounding)
    }
}

/// The monomorphized sink instrumented code writes into.
///
/// All methods take `&self` so a recorder can be shared across threads
/// (`Sync` is required); deltas use relaxed atomics — per-counter totals are
/// exact, only inter-counter ordering is unspecified.
pub trait Recorder: Sync {
    /// `true` iff this recorder actually stores anything. Instrumented code
    /// gates *metric-computation* work (not the record calls themselves) on
    /// this constant so the noop path pays nothing.
    const ENABLED: bool;

    /// Adds `delta` to a monotonic counter.
    fn add(&self, counter: Counter, delta: u64);

    /// Sets a gauge to `value` (last write wins).
    fn gauge(&self, gauge: Gauge, value: u64);

    /// Records one `value` observation into a histogram.
    fn record(&self, hist: Hist, value: u64);

    /// Starts a span clock (a no-op token when disabled).
    fn span_start(&self) -> SpanStart;

    /// Ends a span, accumulating elapsed wall time since `start`.
    fn span_end(&self, span: Span, start: SpanStart);
}

/// The default recorder: does nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn add(&self, _counter: Counter, _delta: u64) {}

    #[inline(always)]
    fn gauge(&self, _gauge: Gauge, _value: u64) {}

    #[inline(always)]
    fn record(&self, _hist: Hist, _value: u64) {}

    #[inline(always)]
    fn span_start(&self) -> SpanStart {
        SpanStart(None)
    }

    #[inline(always)]
    fn span_end(&self, _span: Span, _start: SpanStart) {}
}

impl<R: Recorder> Recorder for &R {
    const ENABLED: bool = R::ENABLED;

    #[inline(always)]
    fn add(&self, counter: Counter, delta: u64) {
        (**self).add(counter, delta);
    }

    #[inline(always)]
    fn gauge(&self, gauge: Gauge, value: u64) {
        (**self).gauge(gauge, value);
    }

    #[inline(always)]
    fn record(&self, hist: Hist, value: u64) {
        (**self).record(hist, value);
    }

    #[inline(always)]
    fn span_start(&self) -> SpanStart {
        (**self).span_start()
    }

    #[inline(always)]
    fn span_end(&self, span: Span, start: SpanStart) {
        (**self).span_end(span, start);
    }
}

/// Buckets per histogram: bucket 0 holds zeros, bucket `i ≥ 1` holds values
/// in `[2^(i-1), 2^i)`, and the last bucket saturates upward.
pub const HIST_BUCKETS: usize = 32;

/// The log₂ bucket index for `value`.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        let bits = 64 - usize::try_from(value.leading_zeros()).unwrap_or(0);
        bits.min(HIST_BUCKETS - 1)
    }
}

/// The inclusive upper edge of bucket `index` (saturating for the last
/// bucket), used as the reported quantile value.
#[inline]
pub fn bucket_upper(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        (1u64 << index.min(63)) - 1
    }
}

struct HistCell {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl HistCell {
    fn zeroed() -> HistCell {
        HistCell {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

struct SpanCell {
    count: AtomicU64,
    total_ns: AtomicU64,
}

/// The live recorder: relaxed atomics behind `&self`, safe to share across
/// the engine, a store and [`par`](crate::par) worker threads.
pub struct MetricsRecorder {
    counters: [AtomicU64; Counter::ALL.len()],
    gauges: [AtomicU64; Gauge::ALL.len()],
    hists: [HistCell; Hist::ALL.len()],
    spans: [SpanCell; Span::ALL.len()],
}

impl Default for MetricsRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for MetricsRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRecorder").finish_non_exhaustive()
    }
}

impl MetricsRecorder {
    /// A fresh all-zero recorder.
    pub fn new() -> MetricsRecorder {
        MetricsRecorder {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| HistCell::zeroed()),
            spans: std::array::from_fn(|_| SpanCell {
                count: AtomicU64::new(0),
                total_ns: AtomicU64::new(0),
            }),
        }
    }

    /// Drains the current totals into an owned snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: Counter::ALL
                .iter()
                .map(|c| {
                    (
                        c.name().to_string(),
                        self.counters[c.index()].load(Ordering::Relaxed),
                    )
                })
                .collect(),
            gauges: Gauge::ALL
                .iter()
                .map(|g| {
                    (
                        g.name().to_string(),
                        self.gauges[g.index()].load(Ordering::Relaxed),
                    )
                })
                .collect(),
            hists: Hist::ALL
                .iter()
                .map(|h| {
                    let cell = &self.hists[h.index()];
                    HistSnapshot {
                        name: h.name().to_string(),
                        count: cell.count.load(Ordering::Relaxed),
                        sum: cell.sum.load(Ordering::Relaxed),
                        buckets: cell
                            .buckets
                            .iter()
                            .map(|b| b.load(Ordering::Relaxed))
                            .collect(),
                    }
                })
                .collect(),
            spans: Span::ALL
                .iter()
                .map(|s| {
                    let cell = &self.spans[s.index()];
                    SpanSnapshot {
                        name: s.name().to_string(),
                        count: cell.count.load(Ordering::Relaxed),
                        total_ns: cell.total_ns.load(Ordering::Relaxed),
                    }
                })
                .collect(),
        }
    }
}

impl Recorder for MetricsRecorder {
    const ENABLED: bool = true;

    #[inline]
    fn add(&self, counter: Counter, delta: u64) {
        self.counters[counter.index()].fetch_add(delta, Ordering::Relaxed);
    }

    #[inline]
    fn gauge(&self, gauge: Gauge, value: u64) {
        self.gauges[gauge.index()].store(value, Ordering::Relaxed);
    }

    #[inline]
    fn record(&self, hist: Hist, value: u64) {
        let cell = &self.hists[hist.index()];
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.sum.fetch_add(value, Ordering::Relaxed);
        cell.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn span_start(&self) -> SpanStart {
        SpanStart(Some(Instant::now()))
    }

    #[inline]
    fn span_end(&self, span: Span, start: SpanStart) {
        let Some(t0) = start.0 else { return };
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let cell = &self.spans[span.index()];
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.total_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

/// One histogram's drained state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Stable dotted metric name.
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Per-bucket observation counts ([`HIST_BUCKETS`] entries).
    pub buckets: Vec<u64>,
}

impl HistSnapshot {
    /// The bucketed `q`-quantile (0 < q ≤ 1): the inclusive upper edge of
    /// the log₂ bucket containing the rank-⌈q·count⌉ observation. Zero when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let count_f = 0.0_f64.max(q) * self.count_as_f64();
        // xtask-allow: no-lossy-cast (non-negative ceil, rank clamps to count)
        let rank = (count_f.ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(b);
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(self.buckets.len().saturating_sub(1))
    }

    /// Mean observed value (`sum / count`), zero when empty. Derived from
    /// the exact running sum, so unlike [`quantile`](Self::quantile) it is
    /// not quantized to bucket edges.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        // u64 → f64 rounds (never traps) beyond 2^53; fine for a mean.
        self.sum as f64 / self.count_as_f64()
    }

    fn count_as_f64(&self) -> f64 {
        // u64 → f64 is exact for every count a test run can reach and only
        // rounds (never traps) beyond 2^53; float targets are lint-exempt.
        self.count as f64
    }
}

/// One span's drained state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Stable dotted metric name.
    pub name: String,
    /// Completed span instances.
    pub count: u64,
    /// Total wall time across instances, nanoseconds.
    pub total_ns: u64,
}

/// A full drained recorder: every metric in catalogue order, zeros included,
/// with a stable hand-rolled JSON codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter totals as `(name, value)` in catalogue order.
    pub counters: Vec<(String, u64)>,
    /// Gauge values as `(name, value)` in catalogue order.
    pub gauges: Vec<(String, u64)>,
    /// Histograms in catalogue order.
    pub hists: Vec<HistSnapshot>,
    /// Spans in catalogue order.
    pub spans: Vec<SpanSnapshot>,
}

impl MetricsSnapshot {
    /// Encodes the snapshot as pretty-printed JSON with a stable key order.
    /// Histogram objects carry derived `p50`/`p95`/`p99` fields (recomputed,
    /// not round-tripped) alongside the raw bucket counts.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(4096);
        s.push_str("{\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\n    \"{name}\": {value}");
        }
        s.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\n    \"{name}\": {value}");
        }
        s.push_str("\n  },\n  \"histograms\": {");
        for (i, h) in self.hists.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p95\": {}, \
                 \"p99\": {}, \"buckets\": [",
                h.name,
                h.count,
                h.sum,
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
            );
            for (j, b) in h.buckets.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(s, "{sep}{b}");
            }
            s.push_str("]}");
        }
        s.push_str("\n  },\n  \"spans\": {");
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n    \"{}\": {{\"count\": {}, \"total_ns\": {}}}",
                sp.name, sp.count, sp.total_ns
            );
        }
        s.push_str("\n  }\n}");
        s
    }

    /// Parses a snapshot previously produced by [`MetricsSnapshot::to_json`].
    /// Derived fields (`p50`/`p95`/`p99`) are skipped, everything else must
    /// round-trip exactly.
    pub fn from_json(text: &str) -> Result<MetricsSnapshot, SnapshotParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let snap = p.snapshot()?;
        p.ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after snapshot"));
        }
        Ok(snap)
    }
}

/// Error from [`MetricsSnapshot::from_json`]: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotParseError {
    /// Byte offset in the input where parsing failed.
    pub pos: usize,
    /// What was expected.
    pub msg: &'static str,
}

impl std::fmt::Display for SnapshotParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "metrics snapshot parse error at byte {}: {}",
            self.pos, self.msg
        )
    }
}

impl std::error::Error for SnapshotParseError {}

/// Minimal recursive-descent parser for the snapshot's JSON subset:
/// two-level string-keyed objects, `u64` numbers and `u64` arrays.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> SnapshotParseError {
        SnapshotParseError { pos: self.pos, msg }
    }

    fn ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8, msg: &'static str) -> Result<(), SnapshotParseError> {
        self.ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Result<String, SnapshotParseError> {
        self.eat(b'"', "expected opening quote")?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'"' {
                let s = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("non-UTF-8 string"))?
                    .to_string();
                self.pos += 1;
                return Ok(s);
            }
            if b == b'\\' {
                return Err(self.err("escapes are not used in metric names"));
            }
            self.pos += 1;
        }
        Err(self.err("unterminated string"))
    }

    fn number(&mut self) -> Result<u64, SnapshotParseError> {
        self.ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected unsigned integer"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| self.err("integer out of u64 range"))
    }

    fn number_array(&mut self) -> Result<Vec<u64>, SnapshotParseError> {
        self.eat(b'[', "expected '['")?;
        let mut out = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(self.number()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// Parses `{"name": value, ...}` where `value` is handled by `each`.
    fn object<F>(&mut self, mut each: F) -> Result<(), SnapshotParseError>
    where
        F: FnMut(&mut Self, String) -> Result<(), SnapshotParseError>,
    {
        self.eat(b'{', "expected '{'")?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.eat(b':', "expected ':' after key")?;
            each(self, key)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn snapshot(&mut self) -> Result<MetricsSnapshot, SnapshotParseError> {
        let mut snap = MetricsSnapshot {
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
            spans: Vec::new(),
        };
        self.object(|p, section| match section.as_str() {
            "counters" => p.object(|p, name| {
                let value = p.number()?;
                p.ws();
                snap.counters.push((name, value));
                Ok(())
            }),
            "gauges" => p.object(|p, name| {
                let value = p.number()?;
                snap.gauges.push((name, value));
                Ok(())
            }),
            "histograms" => p.object(|p, name| {
                let mut hist = HistSnapshot {
                    name,
                    count: 0,
                    sum: 0,
                    buckets: Vec::new(),
                };
                p.object(|p, field| {
                    match field.as_str() {
                        "count" => hist.count = p.number()?,
                        "sum" => hist.sum = p.number()?,
                        "buckets" => hist.buckets = p.number_array()?,
                        // Derived quantiles: parse and drop.
                        _ => {
                            p.number()?;
                        }
                    }
                    Ok(())
                })?;
                snap.hists.push(hist);
                Ok(())
            }),
            "spans" => p.object(|p, name| {
                let mut span = SpanSnapshot {
                    name,
                    count: 0,
                    total_ns: 0,
                };
                p.object(|p, field| {
                    match field.as_str() {
                        "count" => span.count = p.number()?,
                        "total_ns" => span.total_ns = p.number()?,
                        _ => {
                            p.number()?;
                        }
                    }
                    Ok(())
                })?;
                snap.spans.push(span);
                Ok(())
            }),
            _ => Err(p.err("unknown top-level section")),
        })?;
        Ok(snap)
    }
}

/// Uniform heap-footprint accounting for paper-style memory tables
/// (§6, Table 4): bytes of owned heap memory, excluding
/// `size_of::<Self>()` itself.
pub trait HeapBytes {
    /// Bytes of heap memory currently owned by `self`.
    fn heap_bytes(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(11), 2047);
    }

    #[test]
    fn quantiles_from_known_distribution() {
        let rec = MetricsRecorder::new();
        // 90 small values (bucket 1), 10 large (bucket 11: 1024..2047).
        for _ in 0..90 {
            rec.record(Hist::OracleUnionSize, 1);
        }
        for _ in 0..10 {
            rec.record(Hist::OracleUnionSize, 1500);
        }
        let snap = rec.snapshot();
        let h = snap
            .hists
            .iter()
            .find(|h| h.name == "oracle.union_size")
            .unwrap();
        assert_eq!(h.count, 100);
        assert_eq!(h.sum, 90 + 15_000);
        assert_eq!(h.quantile(0.50), 1);
        assert_eq!(h.quantile(0.90), 1);
        assert_eq!(h.quantile(0.95), 2047);
        assert_eq!(h.quantile(0.99), 2047);
        assert_eq!(h.quantile(1.0), 2047);
    }

    #[test]
    fn empty_quantile_is_zero() {
        let h = HistSnapshot {
            name: "x".into(),
            count: 0,
            sum: 0,
            buckets: vec![0; HIST_BUCKETS],
        };
        assert_eq!(h.quantile(0.5), 0);
        // Degenerate q on the empty histogram stays zero too.
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(-1.0), 0);
        assert_eq!(h.quantile(2.0), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn quantile_degenerate_q_clamps_to_rank_bounds() {
        let rec = MetricsRecorder::new();
        for v in [1, 1500] {
            rec.record(Hist::OracleUnionSize, v);
        }
        let snap = rec.snapshot();
        let h = snap
            .hists
            .iter()
            .find(|h| h.name == "oracle.union_size")
            .unwrap();
        // q ≤ 0 clamps to rank 1 (the smallest bucket), q > 1 to rank
        // `count` (the largest) — never a panic, never an out-of-range rank.
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(-3.5), 1);
        assert_eq!(h.quantile(1.0), 2047);
        assert_eq!(h.quantile(7.0), 2047);
    }

    #[test]
    fn quantile_all_in_one_bucket_is_flat() {
        let rec = MetricsRecorder::new();
        // All 50 observations land in bucket 6 (32..63).
        for _ in 0..50 {
            rec.record(Hist::OracleUnionSize, 40);
        }
        let snap = rec.snapshot();
        let h = snap
            .hists
            .iter()
            .find(|h| h.name == "oracle.union_size")
            .unwrap();
        // Every quantile reports the same bucket edge.
        for q in [0.0, 0.01, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), 63, "q={q}");
        }
        assert_eq!(h.mean(), 40.0);
    }

    #[test]
    fn mean_is_exact_not_bucketed() {
        let rec = MetricsRecorder::new();
        rec.record(Hist::OracleUnionSize, 10);
        rec.record(Hist::OracleUnionSize, 21);
        let snap = rec.snapshot();
        let h = snap
            .hists
            .iter()
            .find(|h| h.name == "oracle.union_size")
            .unwrap();
        assert_eq!(h.mean(), 15.5);
    }

    #[test]
    fn snapshot_contains_full_catalogue() {
        let snap = MetricsRecorder::new().snapshot();
        assert_eq!(snap.counters.len(), Counter::ALL.len());
        assert_eq!(snap.gauges.len(), Gauge::ALL.len());
        assert_eq!(snap.hists.len(), Hist::ALL.len());
        assert_eq!(snap.spans.len(), Span::ALL.len());
        for (h, name) in snap.hists.iter().zip(Hist::ALL.iter().map(|h| h.name())) {
            assert_eq!(h.name, name);
            assert_eq!(h.buckets.len(), HIST_BUCKETS);
        }
    }

    #[test]
    fn json_round_trip() {
        let rec = MetricsRecorder::new();
        rec.add(Counter::EngineInteractions, 40_000);
        rec.add(Counter::ExactMergeSmallSide, 123);
        rec.gauge(Gauge::StoreHeapBytes, 1 << 20);
        rec.record(Hist::EngineTieBatchSize, 7);
        rec.record(Hist::EngineTieBatchSize, 2);
        rec.record(Hist::ParChunkNs, 1_000_000);
        let start = rec.span_start();
        rec.span_end(Span::EngineRun, start);
        let snap = rec.snapshot();
        let json = snap.to_json();
        let back = MetricsSnapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
        // And the encoder is stable: re-encoding the parsed snapshot is
        // byte-identical.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(MetricsSnapshot::from_json("").is_err());
        assert!(MetricsSnapshot::from_json("{\"counters\": {").is_err());
        assert!(MetricsSnapshot::from_json("{\"bogus\": {}}").is_err());
        let ok = MetricsRecorder::new().snapshot().to_json();
        assert!(MetricsSnapshot::from_json(&format!("{ok} trailing")).is_err());
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn noop_never_reads_the_clock() {
        let rec = NoopRecorder;
        let start = rec.span_start();
        assert!(start.0.is_none());
        rec.span_end(Span::EngineRun, start);
        assert!(!NoopRecorder::ENABLED);
        assert!(!<&NoopRecorder as Recorder>::ENABLED);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn borrowed_recorder_forwards() {
        let rec = MetricsRecorder::new();
        let by_ref = &rec;
        by_ref.add(Counter::OracleQueries, 3);
        Recorder::record(&by_ref, Hist::OracleUnionSize, 10);
        let snap = rec.snapshot();
        let queries = snap
            .counters
            .iter()
            .find(|(n, _)| n == "oracle.queries")
            .unwrap()
            .1;
        assert_eq!(queries, 3);
        assert!(<&&MetricsRecorder as Recorder>::ENABLED);
    }

    #[test]
    fn span_accumulates() {
        let rec = MetricsRecorder::new();
        for _ in 0..3 {
            let s = rec.span_start();
            rec.span_end(Span::GreedySelect, s);
        }
        let snap = rec.snapshot();
        let sp = snap
            .spans
            .iter()
            .find(|s| s.name == "greedy.select")
            .unwrap();
        assert_eq!(sp.count, 3);
    }
}

//! Causal tracing: span trees per query, Chrome-trace export, and a
//! tail-latency flight recorder.
//!
//! The obs layer ([`crate::obs`]) answers *how much* — counters, gauges,
//! histograms aggregated over a whole run. This module answers *where
//! inside one operation* the time went: every traced operation (a reverse
//! pass, one batch element, a greedy selection, a compaction) emits
//! begin/end events carrying a **trace id** (which logical operation) and a
//! **span id** (which node of that operation's tree), so a single query's
//! reverse-scan → merge → estimator chain reconstructs as one tree.
//!
//! The design follows the proven obs pattern exactly:
//!
//! * [`Tracer`] is a monomorphized trait; the zero-sized [`NoopTracer`]
//!   has empty `#[inline(always)]` bodies, so the default untraced paths
//!   compile to the same code as before tracing existed (proven by the
//!   counting-allocator test in `tests/trace_noop_alloc.rs` and the
//!   traced-vs-untraced parity proptests).
//! * [`RingTracer`] is the live implementation: per-lane fixed-capacity
//!   ring buffers of `AtomicU64` words. Emitting is lock-free and
//!   allocation-free — claim a slot with one relaxed `fetch_add`, store
//!   four relaxed words — so the hot path never blocks, never allocates,
//!   and old events are simply overwritten when a ring wraps.
//! * Worker threads claim a **lane** through [`Tracer::worker`] inside the
//!   `par` fan-out's per-worker scratch init, so thread lanes in the
//!   exported trace map one-to-one onto `par` workers (lane 0 is the
//!   caller's thread).
//!
//! Harvesting ([`RingTracer::records`]) happens on the caller's thread
//! after all parallel work has joined, so decoding never races a writer.
//! On top of the decoded records sit:
//!
//! * [`trace_to_json`] — a serde-free Chrome Trace Event Format exporter
//!   whose output loads directly in Perfetto / `chrome://tracing`.
//!   Unmatched begin/end events (ring-wrap casualties) are dropped, so the
//!   export is balanced by construction.
//! * [`validate_trace_json`] — a serde-free structural validator for the
//!   exported JSON (balanced per-thread begin/end stacks, known event
//!   names, valid parent ids); the CLI re-validates every trace file it
//!   writes and CI validates the artifacts again.
//! * [`attribution`] — per-phase count / total-time / self-time rollup,
//!   the `infprop profile` table.
//! * [`FlightRecorder`] — retains the K slowest traces by root-span wall
//!   time, the always-on tail-latency capture mode.
//!
//! Like `obs`, this module is the only sanctioned home for raw
//! [`Instant`] reads on the query path (the `no-raw-timing` xtask rule
//! exempts `obs.rs` and `trace.rs` only): every other module must express
//! timing through a [`Recorder`](crate::obs::Recorder) or a [`Tracer`].

use crate::obs::metric_u64;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Identifies one logical traced operation (one query, one build, one
/// compaction). Trace id 0 is reserved for "untraced" ([`TraceId::NONE`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The id carried by untraced operations (the [`NoopTracer`] path).
    pub const NONE: TraceId = TraceId(0);
}

/// Identifies one span (one node of a trace's tree). Span id 0 is reserved
/// for "no span" ([`SpanId::NONE`]) — the parent of every root span.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent span: parent of roots, return value of disabled tracers.
    pub const NONE: SpanId = SpanId(0);
}

/// Static registry of every span/instant name a tracer can emit, mirroring
/// the metric catalogues in [`crate::obs`]. `cargo xtask analyze`
/// cross-checks this roster against every trace-shaped literal in code and
/// CI, so a renamed or misspelled event fails the build, not the dashboard.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceEvent {
    /// One reverse pass over an interaction slice
    /// ([`ReversePassEngine`](crate::engine::ReversePassEngine)); payload:
    /// interactions scanned.
    BuildReverseScan,
    /// Freezing live summaries into the contiguous arenas; payload: arena
    /// heap bytes.
    BuildFreeze,
    /// One `influence_many_frozen` batch; payload: queries answered.
    QueryBatch,
    /// One element of a batch (its own trace id); payload: deduplicated
    /// seed rows merged.
    QueryElement,
    /// One CELF greedy selection; payload: seeds picked.
    GreedySelection,
    /// Instant marking one greedy pick; payload: round number.
    GreedyRound,
    /// One forward-delta append batch (CLI `append`); payload: interactions
    /// appended.
    AppendBatch,
    /// One LSM-style compaction; payload: window-surviving interactions.
    CompactRun,
    /// The re-freeze engine pass inside a compaction; payload: interactions
    /// rebuilt.
    CompactRebuild,
    /// One delta-overlay rebuild; payload: pending interactions absorbed.
    OverlayRefresh,
    /// Loading an oracle from disk (CLI); payload: file/arena bytes.
    LoadOracle,
    /// One simulation run batch (CLI `simulate`); payload: runs.
    SimulateRun,
    /// The whole `infprop profile` workload; payload: queries driven.
    ProfileRun,
    /// One request frame handled by the serving tier, decode to flush;
    /// payload: influence queries answered in the frame.
    ServeRequest,
}

impl TraceEvent {
    /// Every event, in declaration order — the index into this roster is
    /// the on-ring encoding of the event.
    pub const ALL: [TraceEvent; 14] = [
        TraceEvent::BuildReverseScan,
        TraceEvent::BuildFreeze,
        TraceEvent::QueryBatch,
        TraceEvent::QueryElement,
        TraceEvent::GreedySelection,
        TraceEvent::GreedyRound,
        TraceEvent::AppendBatch,
        TraceEvent::CompactRun,
        TraceEvent::CompactRebuild,
        TraceEvent::OverlayRefresh,
        TraceEvent::LoadOracle,
        TraceEvent::SimulateRun,
        TraceEvent::ProfileRun,
        TraceEvent::ServeRequest,
    ];

    /// Stable exported name (`prefix.event`, distinct from every obs metric
    /// name — the analyzer enforces global uniqueness across both
    /// registries).
    pub fn name(self) -> &'static str {
        match self {
            TraceEvent::BuildReverseScan => "build.reverse_scan",
            TraceEvent::BuildFreeze => "build.freeze",
            TraceEvent::QueryBatch => "query.batch",
            TraceEvent::QueryElement => "query.element",
            TraceEvent::GreedySelection => "greedy.selection",
            TraceEvent::GreedyRound => "greedy.round",
            TraceEvent::AppendBatch => "append.batch",
            TraceEvent::CompactRun => "compact.run",
            TraceEvent::CompactRebuild => "compact.rebuild",
            TraceEvent::OverlayRefresh => "overlay.refresh",
            TraceEvent::LoadOracle => "load.oracle",
            TraceEvent::SimulateRun => "simulate.run",
            TraceEvent::ProfileRun => "profile.run",
            TraceEvent::ServeRequest => "serve.request",
        }
    }

    /// On-ring index of this event (its position in [`ALL`](Self::ALL)).
    #[inline]
    // xtask-contract: alloc-free
    fn index(self) -> u64 {
        self as u64 // xtask-allow: no-lossy-cast (unit-enum discriminant)
    }

    /// Inverse of [`index`](Self::index); `None` for a corrupt record.
    #[inline]
    fn from_index(i: u64) -> Option<TraceEvent> {
        usize::try_from(i)
            .ok()
            .and_then(|i| TraceEvent::ALL.get(i))
            .copied()
    }
}

/// What one decoded ring record marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A span opened.
    Begin,
    /// A span closed.
    End,
    /// A point event attached to an open span.
    Instant,
}

/// The emit interface every traced code path is generic over. All methods
/// take `self` by value ([`Copy`]) so handles thread through parallel
/// closures without borrows; when `ENABLED` is `false` every body is an
/// empty `#[inline(always)]` shell and the traced code monomorphizes to
/// exactly the untraced code.
pub trait Tracer: Copy + Send + Sync {
    /// `false` for [`NoopTracer`]; lets call sites skip payload
    /// computation entirely, like [`Recorder::ENABLED`](crate::obs::Recorder::ENABLED).
    const ENABLED: bool;

    /// Opens a span of `trace` under `parent` and returns its id.
    fn begin(self, trace: TraceId, parent: SpanId, ev: TraceEvent) -> SpanId;

    /// Closes `span`, attaching a payload counter (entries merged,
    /// registers touched, tile count — see each event's doc).
    fn end(self, span: SpanId, ev: TraceEvent, payload: u64);

    /// Emits a point event under `parent`.
    fn instant(self, trace: TraceId, parent: SpanId, ev: TraceEvent, payload: u64);

    /// Stamps a chain-start timestamp on this lane without opening a
    /// span: the next [`lap`](Self::lap) on the lane begins here. Call
    /// once before a lap chain (e.g. at the top of a worker's batch
    /// range) so the first lap's duration is honest.
    fn mark(self, ev: TraceEvent);

    /// Records one *complete* span that began at this lane's previous
    /// record (a [`mark`](Self::mark), an earlier lap, or any other emit)
    /// and ends now. This is the cheap way to trace back-to-back work
    /// items — one ring record and one clock read per span instead of a
    /// begin/end pair (two of each) — and is exact for contiguous chains
    /// because element *i*'s end instant *is* element *i+1*'s begin.
    /// Decoding expands each lap into a matched begin/end record pair, so
    /// every consumer (export, attribution, flight recorder) sees
    /// ordinary spans.
    fn lap(self, trace: TraceId, parent: SpanId, ev: TraceEvent, payload: u64);

    /// Reserves `n` consecutive trace ids and returns the first — how a
    /// batch gives each element its own trace.
    fn alloc_traces(self, n: u64) -> u64;

    /// A handle for one `par` worker: live tracers claim a worker lane,
    /// so each fan-out worker writes its own ring. Called once per worker
    /// from the scratch-init closure.
    fn worker(self) -> Self;
}

/// The disabled tracer: zero-sized, compiles out entirely (counting-
/// allocator proven). This is the default every existing call site pays
/// nothing for.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    const ENABLED: bool = false;

    #[inline(always)]
    fn begin(self, _trace: TraceId, _parent: SpanId, _ev: TraceEvent) -> SpanId {
        SpanId::NONE
    }

    #[inline(always)]
    fn end(self, _span: SpanId, _ev: TraceEvent, _payload: u64) {}

    #[inline(always)]
    fn instant(self, _trace: TraceId, _parent: SpanId, _ev: TraceEvent, _payload: u64) {}

    #[inline(always)]
    fn mark(self, _ev: TraceEvent) {}

    #[inline(always)]
    fn lap(self, _trace: TraceId, _parent: SpanId, _ev: TraceEvent, _payload: u64) {}

    #[inline(always)]
    fn alloc_traces(self, _n: u64) -> u64 {
        0
    }

    #[inline(always)]
    fn worker(self) -> Self {
        NoopTracer
    }
}

/// Events a lane's ring can hold before wrapping (power of two). At four
/// words per event this is 512 KiB per lane — enough for ~8k spans, far
/// beyond one CLI workload's live window, and wraps simply drop the oldest
/// events (the exporter keeps the trace balanced regardless).
const DEFAULT_CAPACITY: usize = 1 << 14;

/// Words per ring record: timestamp, trace id, packed kind/event/span,
/// and parent-or-payload.
const WORDS: usize = 4;

/// One per-lane ring: a relaxed claim cursor plus `capacity × WORDS`
/// atomic slots. Writers claim disjoint slots via `fetch_add`, so two
/// threads sharing a lane (more workers than lanes) still never interleave
/// within a record — only a full ring wrap can overwrite one, and the
/// exporter drops the resulting unmatched halves.
struct Lane {
    cursor: AtomicU64,
    slots: Box<[AtomicU64]>,
}

/// The live tracer: an epoch instant, per-lane rings, and global trace-id /
/// worker-lane allocators. Construct one per workload, hand out
/// [`lane`](Self::lane) handles, harvest with [`records`](Self::records)
/// after the workload joins.
pub struct RingTracer {
    epoch: Instant,
    lanes: Box<[Lane]>,
    mask: u64,
    next_worker: AtomicUsize,
    next_trace: AtomicU64,
}

impl RingTracer {
    /// A tracer with lane 0 for the calling thread plus `workers` worker
    /// lanes, each holding 2^14 events.
    pub fn new(workers: usize) -> Self {
        Self::with_capacity(workers, DEFAULT_CAPACITY)
    }

    /// [`new`](Self::new) with an explicit per-lane event capacity
    /// (rounded up to a power of two, minimum 8).
    pub fn with_capacity(workers: usize, capacity: usize) -> Self {
        let capacity = capacity.max(8).next_power_of_two();
        let lanes = (0..=workers)
            .map(|_| Lane {
                cursor: AtomicU64::new(0),
                slots: (0..capacity * WORDS).map(|_| AtomicU64::new(0)).collect(),
            })
            .collect();
        RingTracer {
            epoch: Instant::now(),
            lanes,
            mask: metric_u64(capacity - 1),
            next_worker: AtomicUsize::new(0),
            next_trace: AtomicU64::new(1),
        }
    }

    /// The emit handle for lane `lane` (0 = the calling thread's lane).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane(&self, lane: usize) -> LaneTracer<'_> {
        assert!(lane < self.lanes.len(), "lane {lane} out of range");
        LaneTracer { ring: self, lane }
    }

    /// Reserves `n` consecutive trace ids, returning the first (ids start
    /// at 1; 0 is [`TraceId::NONE`]).
    pub fn alloc_traces(&self, n: u64) -> u64 {
        self.next_trace.fetch_add(n, Ordering::Relaxed)
    }

    /// Claims the next worker lane round-robin over lanes `1..`, reserving
    /// lane 0 for the constructing thread. With a single lane everything
    /// shares lane 0 (still correct — slot claims are atomic).
    fn claim_worker_lane(&self) -> usize {
        let lanes = self.lanes.len();
        if lanes <= 1 {
            return 0;
        }
        let w = self.next_worker.fetch_add(1, Ordering::Relaxed);
        1 + (w % (lanes - 1))
    }

    /// The hot emit path: claim one record slot with a relaxed `fetch_add`
    /// and store four relaxed words. No locks, no allocation, no branches
    /// beyond the ring mask. Returns the claimed sequence number so `begin`
    /// can derive the span id of the record it just wrote; `Begin` records
    /// (`kind` 0) ignore the `span_field` argument and store the
    /// seq-derived span id instead.
    ///
    /// On-ring kinds: 0 begin (span_field = own span id), 1 end
    /// (span_field = the span being closed), 2 instant (span_field =
    /// parent), 3 lap (span_field = parent; own span id re-derived from
    /// the slot's sequence number at decode), 4 mark (timestamp only —
    /// decoded to nothing, it just restarts the lane's lap chain).
    #[inline]
    // xtask-contract: alloc-free
    fn emit(
        &self,
        lane: usize,
        kind: u64,
        ev: TraceEvent,
        trace: u64,
        span_field: u64,
        aux: u64,
    ) -> u64 {
        let l = &self.lanes[lane];
        let seq = l.cursor.fetch_add(1, Ordering::Relaxed);
        let span_field = if kind == 0 {
            self.span_id(lane, seq).0
        } else {
            span_field
        };
        let base = usize::try_from((seq & self.mask) * WORDS as u64).unwrap_or(0); // xtask-allow: no-lossy-cast (WORDS is 4)
        let ts = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        l.slots[base].store(ts, Ordering::Relaxed);
        l.slots[base + 1].store(trace, Ordering::Relaxed);
        l.slots[base + 2].store(
            kind | (ev.index() << 8) | (span_field << 16),
            Ordering::Relaxed,
        );
        l.slots[base + 3].store(aux, Ordering::Relaxed);
        seq
    }

    /// The span id for sequence `seq` of `lane`: `(lane+1) << 32 | seq+1`,
    /// nonzero and globally unique, 48 bits so it packs next to the kind
    /// and event bytes.
    #[inline]
    // xtask-contract: alloc-free
    fn span_id(&self, lane: usize, seq: u64) -> SpanId {
        SpanId(((metric_u64(lane) + 1) << 32) | ((seq + 1) & 0xFFFF_FFFF))
    }

    /// Decodes every lane's surviving records, per lane in emission order
    /// (lane 0 first). Call only after all traced work has joined — decoding
    /// does not synchronize with writers.
    pub fn records(&self) -> Vec<TraceRecord> {
        let cap = self.mask + 1;
        let mut out = Vec::new();
        for (lane, l) in self.lanes.iter().enumerate() {
            let cursor = l.cursor.load(Ordering::Relaxed);
            let valid = cursor.min(cap);
            // Timestamp of the lane's previous decoded record — the begin
            // instant of the next lap. `None` until the first record (a
            // lap whose chain start was overwritten by a ring wrap decodes
            // as a zero-width span rather than inventing a begin time).
            let mut chain_ts: Option<u64> = None;
            for seq in (cursor - valid)..cursor {
                let base = usize::try_from((seq & self.mask) * WORDS as u64).unwrap_or(0); // xtask-allow: no-lossy-cast (WORDS is 4)
                let ts_ns = l.slots[base].load(Ordering::Relaxed);
                let trace = l.slots[base + 1].load(Ordering::Relaxed);
                let packed = l.slots[base + 2].load(Ordering::Relaxed);
                let aux = l.slots[base + 3].load(Ordering::Relaxed);
                let Some(event) = TraceEvent::from_index((packed >> 8) & 0xFF) else {
                    continue;
                };
                let span_field = packed >> 16;
                let begin_ts = chain_ts.replace(ts_ns).unwrap_or(ts_ns);
                let rec = match packed & 0xFF {
                    0 => TraceRecord {
                        ts_ns,
                        trace: TraceId(trace),
                        kind: TraceKind::Begin,
                        event,
                        span: SpanId(span_field),
                        parent: SpanId(aux),
                        payload: 0,
                        lane,
                    },
                    1 => TraceRecord {
                        ts_ns,
                        trace: TraceId(trace),
                        kind: TraceKind::End,
                        event,
                        span: SpanId(span_field),
                        parent: SpanId::NONE,
                        payload: aux,
                        lane,
                    },
                    2 => TraceRecord {
                        ts_ns,
                        trace: TraceId(trace),
                        kind: TraceKind::Instant,
                        event,
                        span: SpanId::NONE,
                        parent: SpanId(span_field),
                        payload: aux,
                        lane,
                    },
                    3 => {
                        // A lap expands into a matched begin/end pair: it
                        // began at the lane's previous record and ends at
                        // its own timestamp.
                        let span = self.span_id(lane, seq);
                        out.push(TraceRecord {
                            ts_ns: begin_ts,
                            trace: TraceId(trace),
                            kind: TraceKind::Begin,
                            event,
                            span,
                            parent: SpanId(span_field),
                            payload: 0,
                            lane,
                        });
                        TraceRecord {
                            ts_ns,
                            trace: TraceId(trace),
                            kind: TraceKind::End,
                            event,
                            span,
                            parent: SpanId::NONE,
                            payload: aux,
                            lane,
                        }
                    }
                    // Kind 4 (mark) carries only its timestamp, which the
                    // `chain_ts` update above has already consumed.
                    _ => continue,
                };
                out.push(rec);
            }
        }
        out
    }
}

/// A [`Copy`] emit handle borrowing one [`RingTracer`] lane — the live
/// [`Tracer`] implementation threaded through the query kernels.
#[derive(Clone, Copy)]
pub struct LaneTracer<'a> {
    ring: &'a RingTracer,
    lane: usize,
}

impl Tracer for LaneTracer<'_> {
    const ENABLED: bool = true;

    #[inline]
    // xtask-contract: alloc-free
    fn begin(self, trace: TraceId, parent: SpanId, ev: TraceEvent) -> SpanId {
        let seq = self.ring.emit(self.lane, 0, ev, trace.0, 0, parent.0);
        self.ring.span_id(self.lane, seq)
    }

    #[inline]
    // xtask-contract: alloc-free
    fn end(self, span: SpanId, ev: TraceEvent, payload: u64) {
        self.ring.emit(self.lane, 1, ev, 0, span.0, payload);
    }

    #[inline]
    // xtask-contract: alloc-free
    fn instant(self, trace: TraceId, parent: SpanId, ev: TraceEvent, payload: u64) {
        self.ring.emit(self.lane, 2, ev, trace.0, parent.0, payload);
    }

    #[inline]
    // xtask-contract: alloc-free
    fn mark(self, ev: TraceEvent) {
        self.ring.emit(self.lane, 4, ev, 0, 0, 0);
    }

    #[inline]
    // xtask-contract: alloc-free
    fn lap(self, trace: TraceId, parent: SpanId, ev: TraceEvent, payload: u64) {
        self.ring.emit(self.lane, 3, ev, trace.0, parent.0, payload);
    }

    #[inline]
    fn alloc_traces(self, n: u64) -> u64 {
        self.ring.alloc_traces(n)
    }

    #[inline]
    fn worker(self) -> Self {
        LaneTracer {
            ring: self.ring,
            lane: self.ring.claim_worker_lane(),
        }
    }
}

/// One decoded ring record (see [`RingTracer::records`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Nanoseconds since the tracer's epoch.
    pub ts_ns: u64,
    /// The logical operation this record belongs to (0 on `End` records —
    /// matching the begin by span id recovers it).
    pub trace: TraceId,
    /// Begin, end, or instant.
    pub kind: TraceKind,
    /// Which registered event.
    pub event: TraceEvent,
    /// The span opened/closed (`NONE` for instants).
    pub span: SpanId,
    /// Parent span (`NONE` for ends and roots).
    pub parent: SpanId,
    /// The payload counter (ends and instants; 0 for begins).
    pub payload: u64,
    /// Ring lane (= exported thread lane) the record was written on.
    pub lane: usize,
}

/// One begin/end-matched span, reconstructed from the raw records.
#[derive(Clone, Copy, Debug)]
pub struct MatchedSpan {
    /// The span's id.
    pub span: SpanId,
    /// Its parent (possibly `NONE`, possibly dropped by a ring wrap).
    pub parent: SpanId,
    /// The owning trace.
    pub trace: TraceId,
    /// The event name.
    pub event: TraceEvent,
    /// Begin timestamp (ns since epoch).
    pub start_ns: u64,
    /// End timestamp (ns since epoch).
    pub end_ns: u64,
    /// The end record's payload counter.
    pub payload: u64,
    /// The lane the span was emitted on.
    pub lane: usize,
}

impl MatchedSpan {
    /// Wall time of the span in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Pairs begin and end records by span id, dropping unmatched halves (ring
/// wraps) — the well-formed skeleton every consumer below builds on.
pub fn matched_spans(records: &[TraceRecord]) -> Vec<MatchedSpan> {
    let mut begins: crate::FastMap<u64, usize> = crate::FastMap::default();
    for (i, r) in records.iter().enumerate() {
        if r.kind == TraceKind::Begin {
            begins.insert(r.span.0, i);
        }
    }
    let mut out = Vec::new();
    for r in records {
        if r.kind != TraceKind::End {
            continue;
        }
        let Some(&bi) = begins.get(&r.span.0) else {
            continue;
        };
        let b = &records[bi];
        if b.ts_ns > r.ts_ns {
            continue; // wrapped ring reused the span id; halves don't pair
        }
        out.push(MatchedSpan {
            span: r.span,
            parent: b.parent,
            trace: b.trace,
            event: b.event,
            start_ns: b.ts_ns,
            end_ns: r.ts_ns,
            payload: r.payload,
            lane: b.lane,
        });
    }
    out
}

/// Appends `ns` as a microsecond decimal (`ns/1000.fff`) — the Chrome
/// Trace Event `ts` unit.
fn push_us(out: &mut String, ns: u64) {
    use std::fmt::Write as _;
    let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
}

/// Serializes decoded records as a Chrome Trace Event Format array
/// (loadable in Perfetto / `chrome://tracing`; thread lanes map to `par`
/// workers via `tid`). Serde-free, like every codec in this workspace.
///
/// The export is **balanced by construction**: only begin/end pairs that
/// both survived the ring are emitted, a begin whose parent was overwritten
/// is re-rooted at 0, and instants whose parent vanished are dropped.
pub fn trace_to_json(records: &[TraceRecord]) -> String {
    let spans = matched_spans(records);
    let mut known: crate::FastSet<u64> = crate::FastSet::default();
    for s in &spans {
        known.insert(s.span.0);
    }
    // (ts, order) keyed events; the stable sort keeps each lane's
    // emission order at equal timestamps, so a zero-duration span still
    // exports begin-before-end.
    let mut events: Vec<(u64, usize, String)> = Vec::new();
    let mut order = 0usize;
    for s in &spans {
        let parent = if known.contains(&s.parent.0) {
            s.parent.0
        } else {
            0
        };
        let mut b = format!(
            "{{\"name\":\"{}\",\"cat\":\"infprop\",\"ph\":\"B\",\"pid\":0,\"tid\":{},\"ts\":",
            s.event.name(),
            s.lane
        );
        push_us(&mut b, s.start_ns);
        use std::fmt::Write as _;
        let _ = write!(
            b,
            ",\"args\":{{\"trace\":{},\"span\":{},\"parent\":{}}}}}",
            s.trace.0, s.span.0, parent
        );
        events.push((s.start_ns, order, b));
        order += 1;
        let mut e = format!(
            "{{\"name\":\"{}\",\"cat\":\"infprop\",\"ph\":\"E\",\"pid\":0,\"tid\":{},\"ts\":",
            s.event.name(),
            s.lane
        );
        push_us(&mut e, s.end_ns);
        let _ = write!(
            e,
            ",\"args\":{{\"span\":{},\"payload\":{}}}}}",
            s.span.0, s.payload
        );
        events.push((s.end_ns, order, e));
        order += 1;
    }
    for r in records {
        if r.kind != TraceKind::Instant {
            continue;
        }
        let parent = r.parent.0;
        if parent != 0 && !known.contains(&parent) {
            continue; // parent span lost to a ring wrap
        }
        let mut i = format!(
            "{{\"name\":\"{}\",\"cat\":\"infprop\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{},\"ts\":",
            r.event.name(),
            r.lane
        );
        push_us(&mut i, r.ts_ns);
        use std::fmt::Write as _;
        let _ = write!(
            i,
            ",\"args\":{{\"trace\":{},\"parent\":{},\"payload\":{}}}}}",
            r.trace.0, parent, r.payload
        );
        events.push((r.ts_ns, order, i));
        order += 1;
    }
    events.sort_by_key(|&(ts, ord, _)| (ts, ord));
    let mut out = String::from("[");
    for (i, (_, _, e)) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(e);
    }
    out.push_str("\n]\n");
    out
}

/// Why [`validate_trace_json`] rejected a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceJsonError {
    /// Byte offset the failure was detected at (0 for semantic errors).
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for TraceJsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid trace JSON at byte {}: {}",
            self.at, self.message
        )
    }
}

impl std::error::Error for TraceJsonError {}

/// Structural summary returned by a successful [`validate_trace_json`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Total Chrome events in the file.
    pub events: usize,
    /// Matched spans (begin/end pairs).
    pub spans: usize,
    /// Instant events.
    pub instants: usize,
}

/// One parsed Chrome event — just the fields the validator inspects.
struct ChromeEvent {
    name: String,
    ph: u8,
    tid: u64,
    span: u64,
    parent: u64,
}

/// Minimal recursive-descent JSON reader for the exporter's output —
/// the same serde-free pattern as the obs snapshot parser.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: &str) -> Result<T, TraceJsonError> {
        Err(TraceJsonError {
            at: self.pos,
            message: message.to_owned(),
        })
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

    fn eat(&mut self, b: u8) -> Result<(), TraceJsonError> {
        self.ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", char::from(b)))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Result<String, TraceJsonError> {
        self.eat(b'"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'\\' {
                return self.err("escapes are not used by the exporter");
            }
            if b == b'"' {
                let s = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| TraceJsonError {
                        at: start,
                        message: "invalid utf-8 in string".to_owned(),
                    })?
                    .to_owned();
                self.pos += 1;
                return Ok(s);
            }
            self.pos += 1;
        }
        self.err("unterminated string")
    }

    /// Reads a number, returning its integer part (timestamps keep their
    /// fractional microseconds in the file; the validator only needs ids).
    fn number(&mut self) -> Result<u64, TraceJsonError> {
        self.ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || *b == b'.' || *b == b'-')
        {
            self.pos += 1;
        }
        if start == self.pos {
            return self.err("expected a number");
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        let int = text.split('.').next().unwrap_or("");
        int.parse().or_else(|_| self.err("bad number"))
    }

    /// Parses one event object, capturing name/ph/tid/args ids.
    fn event(&mut self) -> Result<ChromeEvent, TraceJsonError> {
        self.eat(b'{')?;
        let mut ev = ChromeEvent {
            name: String::new(),
            ph: 0,
            tid: 0,
            span: 0,
            parent: 0,
        };
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            match key.as_str() {
                "name" => ev.name = self.string()?,
                "ph" => {
                    let ph = self.string()?;
                    ev.ph = *ph.as_bytes().first().unwrap_or(&0);
                }
                "cat" | "s" => {
                    self.string()?;
                }
                "tid" => ev.tid = self.number()?,
                "pid" | "ts" => {
                    self.number()?;
                }
                "args" => {
                    self.eat(b'{')?;
                    if self.peek() != Some(b'}') {
                        loop {
                            let k = self.string()?;
                            self.eat(b':')?;
                            let v = self.number()?;
                            match k.as_str() {
                                "span" => ev.span = v,
                                "parent" => ev.parent = v,
                                _ => {}
                            }
                            if self.peek() == Some(b',') {
                                self.pos += 1;
                            } else {
                                break;
                            }
                        }
                    }
                    self.eat(b'}')?;
                }
                _ => return self.err("unknown key"),
            }
            if self.peek() == Some(b',') {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.eat(b'}')?;
        Ok(ev)
    }
}

/// Structurally validates an exported Chrome trace: parses the array with
/// the serde-free reader above, checks every event name against
/// [`TraceEvent::ALL`], checks per-`tid` begin/end stacks balance with
/// matching names, and checks every referenced parent id is 0 or a span
/// that begins somewhere in the file. Returns counts on success.
pub fn validate_trace_json(json: &str) -> Result<TraceStats, TraceJsonError> {
    let mut p = Parser {
        bytes: json.as_bytes(),
        pos: 0,
    };
    p.eat(b'[')?;
    let mut events: Vec<ChromeEvent> = Vec::new();
    if p.peek() != Some(b']') {
        loop {
            events.push(p.event()?);
            if p.peek() == Some(b',') {
                p.pos += 1;
            } else {
                break;
            }
        }
    }
    p.eat(b']')?;
    p.ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing bytes after the event array");
    }

    let semantic = |message: String| TraceJsonError { at: 0, message };
    let mut span_ids: crate::FastSet<u64> = crate::FastSet::default();
    for e in &events {
        if !TraceEvent::ALL.iter().any(|ev| ev.name() == e.name) {
            return Err(semantic(format!("unknown event name {:?}", e.name)));
        }
        if e.ph == b'B' {
            span_ids.insert(e.span);
        }
    }
    let mut stacks: crate::FastMap<u64, Vec<String>> = crate::FastMap::default();
    let mut spans = 0usize;
    let mut instants = 0usize;
    for e in &events {
        match e.ph {
            b'B' => {
                if e.parent != 0 && !span_ids.contains(&e.parent) {
                    return Err(semantic(format!(
                        "span {} begins under unknown parent {}",
                        e.span, e.parent
                    )));
                }
                stacks.entry(e.tid).or_default().push(e.name.clone());
            }
            b'E' => {
                let stack = stacks.entry(e.tid).or_default();
                match stack.pop() {
                    Some(open) if open == e.name => spans += 1,
                    Some(open) => {
                        return Err(semantic(format!(
                            "tid {} ends {:?} while {:?} is open",
                            e.tid, e.name, open
                        )));
                    }
                    None => {
                        return Err(semantic(format!(
                            "tid {} ends {:?} with no open span",
                            e.tid, e.name
                        )));
                    }
                }
            }
            b'i' => {
                if e.parent != 0 && !span_ids.contains(&e.parent) {
                    return Err(semantic(format!(
                        "instant {:?} references unknown parent {}",
                        e.name, e.parent
                    )));
                }
                instants += 1;
            }
            other => {
                return Err(semantic(format!(
                    "unexpected phase {:?}",
                    char::from(other)
                )));
            }
        }
    }
    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(semantic(format!("tid {tid} never ends {open:?}")));
        }
    }
    Ok(TraceStats {
        events: events.len(),
        spans,
        instants,
    })
}

/// One row of the profile attribution table: how often an event ran, its
/// total wall time, and its self time (total minus matched children).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseStat {
    /// The event.
    pub event: TraceEvent,
    /// Matched spans of this event.
    pub count: u64,
    /// Summed wall time across those spans.
    pub total_ns: u64,
    /// Total minus time attributed to child spans (saturating: children of
    /// a parallel fan-out can overlap, so concurrent child time never drives
    /// self time negative).
    pub self_ns: u64,
}

/// Rolls matched spans up into per-event count / total / self rows, in
/// [`TraceEvent::ALL`] order, skipping events that never ran — the
/// `infprop profile` attribution table.
pub fn attribution(records: &[TraceRecord]) -> Vec<PhaseStat> {
    let spans = matched_spans(records);
    let mut child_ns: crate::FastMap<u64, u64> = crate::FastMap::default();
    for s in &spans {
        if s.parent != SpanId::NONE {
            *child_ns.entry(s.parent.0).or_insert(0) += s.wall_ns();
        }
    }
    let mut rows: Vec<PhaseStat> = TraceEvent::ALL
        .iter()
        .map(|&event| PhaseStat {
            event,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        })
        .collect();
    for s in &spans {
        let i = usize::try_from(s.event.index()).unwrap_or(0);
        let children = child_ns.get(&s.span.0).copied().unwrap_or(0);
        rows[i].count += 1;
        rows[i].total_ns += s.wall_ns();
        rows[i].self_ns += s.wall_ns().saturating_sub(children);
    }
    rows.retain(|r| r.count > 0);
    rows
}

/// Summary of one retained trace (see [`FlightRecorder`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceSummary {
    /// The trace id.
    pub trace: TraceId,
    /// The root span's event.
    pub root: TraceEvent,
    /// The root span's wall time.
    pub wall_ns: u64,
    /// Matched spans in the trace.
    pub spans: u64,
}

/// Retains the K slowest traces by root-span wall time — always-on
/// tail-latency capture. The recorder is post-hoc: it absorbs harvested
/// records after a workload joins, so it adds nothing to the emit path
/// (the ring's own overwrite-on-wrap is the eviction policy upstream).
#[derive(Clone, Debug, Default)]
pub struct FlightRecorder {
    k: usize,
    slowest: Vec<TraceSummary>,
}

impl FlightRecorder {
    /// A recorder keeping the `k` slowest traces.
    pub fn new(k: usize) -> Self {
        FlightRecorder {
            k,
            slowest: Vec::new(),
        }
    }

    /// Folds one harvest into the recorder: traces are grouped by id, the
    /// root is the span whose parent lies outside the trace (ties: the
    /// longest), and the K slowest roots survive.
    pub fn absorb(&mut self, records: &[TraceRecord]) {
        let spans = matched_spans(records);
        let mut members: crate::FastMap<u64, u64> = crate::FastMap::default();
        for s in &spans {
            if s.trace != TraceId::NONE {
                *members.entry(s.trace.0).or_insert(0) += 1;
            }
        }
        let in_trace: crate::FastSet<(u64, u64)> =
            spans.iter().map(|s| (s.trace.0, s.span.0)).collect();
        let mut roots: crate::FastMap<u64, (TraceEvent, u64)> = crate::FastMap::default();
        for s in &spans {
            if s.trace == TraceId::NONE || in_trace.contains(&(s.trace.0, s.parent.0)) {
                continue;
            }
            let entry = roots.entry(s.trace.0).or_insert((s.event, 0));
            if s.wall_ns() >= entry.1 {
                *entry = (s.event, s.wall_ns());
            }
        }
        for (trace, (root, wall_ns)) in roots {
            let summary = TraceSummary {
                trace: TraceId(trace),
                root,
                wall_ns,
                spans: members.get(&trace).copied().unwrap_or(0),
            };
            if let Some(existing) = self.slowest.iter_mut().find(|s| s.trace.0 == trace) {
                if summary.wall_ns > existing.wall_ns {
                    *existing = summary;
                }
            } else {
                self.slowest.push(summary);
            }
        }
        self.slowest
            .sort_by(|a, b| b.wall_ns.cmp(&a.wall_ns).then(a.trace.0.cmp(&b.trace.0)));
        self.slowest.truncate(self.k);
    }

    /// The retained traces, slowest first.
    pub fn slowest(&self) -> &[TraceSummary] {
        &self.slowest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn noop_tracer_is_zero_sized_and_disabled() {
        assert_eq!(std::mem::size_of::<NoopTracer>(), 0);
        assert!(!NoopTracer::ENABLED);
        assert_eq!(
            NoopTracer.begin(TraceId(1), SpanId::NONE, TraceEvent::QueryBatch),
            SpanId::NONE
        );
        assert_eq!(NoopTracer.alloc_traces(16), 0);
    }

    #[test]
    fn event_roster_is_consistent() {
        for (i, ev) in TraceEvent::ALL.iter().enumerate() {
            assert_eq!(ev.index(), i as u64); // discriminants follow roster order
            assert_eq!(TraceEvent::from_index(ev.index()), Some(*ev));
            assert!(ev.name().contains('.'), "{}", ev.name());
        }
        let mut names: Vec<&str> = TraceEvent::ALL.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TraceEvent::ALL.len(), "duplicate event name");
    }

    #[test]
    fn ring_round_trips_span_trees() {
        let ring = RingTracer::new(2);
        let t = ring.lane(0);
        let trace = TraceId(ring.alloc_traces(1));
        let root = t.begin(trace, SpanId::NONE, TraceEvent::QueryBatch);
        let child = t.begin(trace, root, TraceEvent::QueryElement);
        t.instant(trace, child, TraceEvent::GreedyRound, 7);
        t.end(child, TraceEvent::QueryElement, 3);
        t.end(root, TraceEvent::QueryBatch, 1);
        let records = ring.records();
        assert_eq!(records.len(), 5);
        let spans = matched_spans(&records);
        assert_eq!(spans.len(), 2);
        let c = spans.iter().find(|s| s.span == child).unwrap();
        assert_eq!(c.parent, root);
        assert_eq!(c.trace, trace);
        assert_eq!(c.payload, 3);
        assert!(c.end_ns >= c.start_ns);
    }

    #[test]
    fn lap_chain_decodes_to_contiguous_matched_spans() {
        let ring = RingTracer::new(2);
        let t = ring.lane(0);
        let base = ring.alloc_traces(4);
        let batch = t.begin(TraceId(base), SpanId::NONE, TraceEvent::QueryBatch);
        t.mark(TraceEvent::QueryElement);
        for q in 0..3u64 {
            t.lap(
                TraceId(base + 1 + q),
                batch,
                TraceEvent::QueryElement,
                q + 10,
            );
        }
        t.end(batch, TraceEvent::QueryBatch, 3);
        let records = ring.records();
        // begin + mark-consumed-nothing + 3 laps × (begin, end) + end = 8.
        assert_eq!(records.len(), 8);
        let spans = matched_spans(&records);
        assert_eq!(spans.len(), 4);
        let elements: Vec<_> = spans
            .iter()
            .filter(|s| s.event == TraceEvent::QueryElement)
            .collect();
        assert_eq!(elements.len(), 3);
        for (i, el) in elements.iter().enumerate() {
            assert_eq!(el.parent, batch, "laps parent under the batch span");
            assert_eq!(el.trace, TraceId(base + 1 + i as u64));
            assert_eq!(el.payload, i as u64 + 10);
            assert!(el.end_ns >= el.start_ns);
        }
        // The chain is contiguous: element i ends exactly where i+1 begins,
        // and the first element begins at the mark (>= the batch begin).
        for w in elements.windows(2) {
            assert_eq!(w[0].end_ns, w[1].start_ns);
        }
        let batch_span = spans
            .iter()
            .find(|s| s.event == TraceEvent::QueryBatch)
            .unwrap();
        assert!(elements[0].start_ns >= batch_span.start_ns);
        // Exported JSON stays balanced with known names.
        let json = trace_to_json(&records);
        let stats = validate_trace_json(&json).unwrap();
        assert_eq!(stats.spans, 4);
    }

    #[test]
    fn lap_without_chain_start_is_zero_width_not_negative() {
        let ring = RingTracer::new(1);
        let t = ring.lane(0);
        // No mark, no prior record on the lane — the lap's begin falls back
        // to its own timestamp (the ring-wrap recovery path).
        t.lap(TraceId(1), SpanId::NONE, TraceEvent::QueryElement, 5);
        let records = ring.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].kind, TraceKind::Begin);
        assert_eq!(records[1].kind, TraceKind::End);
        assert_eq!(records[0].ts_ns, records[1].ts_ns);
        assert_eq!(records[0].span, records[1].span);
        assert_eq!(records[1].payload, 5);
    }

    #[test]
    fn worker_lanes_round_robin_and_skip_lane_zero() {
        let ring = RingTracer::new(2);
        let main = ring.lane(0);
        let w1 = main.worker();
        let w2 = main.worker();
        let w3 = main.worker();
        assert_eq!(w1.lane, 1);
        assert_eq!(w2.lane, 2);
        assert_eq!(w3.lane, 1); // wraps over the worker lanes only
    }

    #[test]
    fn ring_wrap_keeps_export_balanced() {
        let ring = RingTracer::with_capacity(0, 8);
        let t = ring.lane(0);
        let trace = TraceId(ring.alloc_traces(1));
        // 12 spans of 2 events each in an 8-event ring: early begins are
        // overwritten, their ends survive unmatched.
        for _ in 0..12 {
            let s = t.begin(trace, SpanId::NONE, TraceEvent::QueryElement);
            t.end(s, TraceEvent::QueryElement, 0);
        }
        let json = trace_to_json(&ring.records());
        let stats = validate_trace_json(&json).expect("wrapped trace still validates");
        assert!(stats.spans >= 1 && stats.spans <= 4, "{stats:?}");
    }

    #[test]
    fn exported_json_validates_and_rejects_corruption() {
        let ring = RingTracer::new(1);
        let t = ring.lane(0);
        let trace = TraceId(ring.alloc_traces(1));
        let root = t.begin(trace, SpanId::NONE, TraceEvent::ProfileRun);
        let el = t.begin(trace, root, TraceEvent::QueryElement);
        t.end(el, TraceEvent::QueryElement, 2);
        t.instant(trace, root, TraceEvent::GreedyRound, 1);
        t.end(root, TraceEvent::ProfileRun, 1);
        let json = trace_to_json(&ring.records());
        let stats = validate_trace_json(&json).expect("export validates");
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.events, 5);

        let unbalanced = json.replacen("\"ph\":\"E\"", "\"ph\":\"B\"", 1);
        assert!(validate_trace_json(&unbalanced).is_err());
        let unknown = json.replace("profile.run", "profile.bogus");
        assert!(validate_trace_json(&unknown).is_err());
        assert!(validate_trace_json("[").is_err());
        assert!(validate_trace_json("[]").is_ok());
    }

    #[test]
    fn attribution_subtracts_child_time() {
        let ring = RingTracer::new(1);
        let t = ring.lane(0);
        let trace = TraceId(ring.alloc_traces(1));
        let root = t.begin(trace, SpanId::NONE, TraceEvent::QueryBatch);
        let el = t.begin(trace, root, TraceEvent::QueryElement);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(el, TraceEvent::QueryElement, 1);
        t.end(root, TraceEvent::QueryBatch, 1);
        let rows = attribution(&ring.records());
        let batch = rows
            .iter()
            .find(|r| r.event == TraceEvent::QueryBatch)
            .unwrap();
        let element = rows
            .iter()
            .find(|r| r.event == TraceEvent::QueryElement)
            .unwrap();
        assert_eq!(batch.count, 1);
        assert!(element.total_ns > 0);
        assert!(batch.total_ns >= element.total_ns);
        assert_eq!(
            batch.self_ns,
            batch.total_ns - element.total_ns,
            "parent self time excludes the child"
        );
        assert_eq!(element.self_ns, element.total_ns);
    }

    #[test]
    fn flight_recorder_keeps_k_slowest_roots() {
        let ring = RingTracer::new(1);
        let t = ring.lane(0);
        let base = ring.alloc_traces(5);
        let mut spans = Vec::new();
        for i in 0..5 {
            spans.push((
                TraceId(base + i),
                t.begin(TraceId(base + i), SpanId::NONE, TraceEvent::QueryElement),
            ));
        }
        // End in reverse so earlier-begun traces are slower.
        for &(_, s) in spans.iter().rev() {
            t.end(s, TraceEvent::QueryElement, 0);
        }
        let mut fr = FlightRecorder::new(3);
        fr.absorb(&ring.records());
        let kept = fr.slowest();
        assert_eq!(kept.len(), 3);
        assert!(kept.windows(2).all(|w| w[0].wall_ns >= w[1].wall_ns));
        // The slowest trace is the first begun.
        assert_eq!(kept[0].trace, TraceId(base));
        assert_eq!(kept[0].root, TraceEvent::QueryElement);
        assert_eq!(kept[0].spans, 1);
    }
}

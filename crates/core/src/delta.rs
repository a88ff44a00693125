//! Layered oracle architecture: a forward-delta overlay stacked on a frozen
//! base arena, with LSM-style re-freeze compaction.
//!
//! The frozen arenas ([`FrozenExactOracle`] / [`FrozenApproxOracle`]) are
//! immutable by design: queries run over contiguous memory, but a single
//! new interaction would force a full rebuild. This module adds the
//! incremental tier on top:
//!
//! * [`DeltaOverlay`] buffers **forward-time** interactions (`t ≥` the
//!   frontier of the base arena) in an append log, together with the
//!   *window tail* of the base history — the suffix of already-frozen
//!   interactions that can still combine with future ones.
//! * [`Layered`] answers every [`InfluenceOracle`] query from
//!   `base ⊕ overlay`, where the overlay is a small frozen arena rebuilt
//!   from the delta log on [`refresh`](Layered::refresh).
//!   [`LayeredExactOracle`] and [`LayeredApproxOracle`] are its two
//!   instances; what differs between them is what the arena supplies
//!   through [`FrozenLayer`].
//! * [`compact`](Layered::compact) re-runs the one-pass
//!   [`ReversePassEngine`](crate::ReversePassEngine) over the delta log
//!   (minus expired entries) into a **fresh base arena** — an LSM-style
//!   re-freeze that starts the next generation with an empty pending log.
//!
//! # Why the layering is exact
//!
//! Let `T` be the base frontier (the newest base interaction) and `ω` the
//! window. Every information channel of the full history is either
//!
//! 1. **pure-base** — all its interactions were frozen into the base
//!    arena, so the base summaries already cover it; or
//! 2. **delta-touching** — it contains at least one pending interaction at
//!    time `t_p ≥ T`. A channel's interactions all lie within `ω` of its
//!    end time, so each of its base interactions has `T − t < ω`: they are
//!    all in the retained window tail, and the channel is rediscovered in
//!    full by the overlay build over `tail ++ pending`.
//!
//! Dominance-correct merge then makes `base ⊕ overlay` *bit-identical* to
//! a from-scratch build: exact summaries keep the per-target **minimum
//! end time** (`min` across the two layers), and collapsed vHLL registers
//! keep the per-cell **maximum ρ** (`max` across the two layers). Overlay
//! channels that happen to be pure-tail are genuine full-history channels
//! too, so merging them in is the identity, never an overcount.
//!
//! # Compaction semantics
//!
//! Compaction slides the window forward: interactions with
//! `T' − t ≥ ω` (where `T'` is the new frontier) can never share a channel
//! with anything appended at `t ≥ T'`, so they are dropped and the
//! surviving suffix is re-frozen. The compacted oracle therefore answers
//! over the **retained trailing window** of history — channels that ended
//! before it are gone, which is exactly the LSM/TTL contract. The result
//! is bit-identical to a from-scratch build over the surviving
//! interactions with the same node universe (the universe never shrinks).

use crate::approx::DEFAULT_PRECISION;
use crate::arena::ArenaBytes;
use crate::engine::{ExactStore, ReversePassEngine, SummaryStore, VhllStore};
use crate::frozen::{EntriesSlice, FrozenApproxOracle, FrozenExactOracle};
use crate::kernel::{self, rows_exceed, SparseRow};
use crate::obs::{metric_u64, Counter, Gauge, HeapBytes, Hist, NoopRecorder, Recorder, Span};
use crate::oracle::{influence_batch, BatchQuery, InfluenceOracle, NodeBitset};
use crate::persist::LayeredKind;
use crate::trace::{NoopTracer, SpanId, TraceEvent, TraceId, Tracer};
use crate::{ApproxIrs, ExactIrs};
use infprop_hll::{CodecError, HyperLogLog};
use infprop_temporal_graph::{Interaction, InteractionNetwork, NodeId, Timestamp, Window};
use std::fmt;
use std::path::Path;

/// An append moved backwards in time: layered oracles only accept
/// interactions at or after the current [frontier](DeltaOverlay::frontier)
/// (the forward-streaming contract, mirroring
/// [`OutOfOrder`](crate::OutOfOrder) on the engine's reverse side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleAppend {
    /// Timestamp of the rejected interaction.
    pub got: Timestamp,
    /// The frontier it fell behind (newest accepted timestamp).
    pub frontier: Timestamp,
}

impl fmt::Display for StaleAppend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stale append: interaction at t={} is behind the layered frontier t={}",
            self.got.get(),
            self.frontier.get()
        )
    }
}

impl std::error::Error for StaleAppend {}

/// The suffix of a time-sorted interaction slice still inside the window
/// of `frontier`: everything with `frontier − t < ω`. This is precisely
/// the set of frozen interactions that can share a channel with an
/// interaction appended at `t ≥ frontier`.
pub(crate) fn window_tail(
    ints: &[Interaction],
    frontier: Timestamp,
    window: Window,
) -> Vec<Interaction> {
    let cut = ints.partition_point(|i| frontier.delta(i.time) >= window.get());
    ints[cut..].to_vec()
}

/// Forward-time delta buffer on top of a frozen base arena.
///
/// Holds the interactions the frozen base cannot see — the **pending**
/// appends — plus the **window tail** of base history they may combine
/// with, as one contiguous time-sorted log (`tail ++ pending`). The
/// overlay store is rebuilt from that log with the re-entrant
/// [`ReversePassEngine::run_slice`] pass; tie batches spanning the
/// tail/pending boundary land in one contiguous run, so the two-phase tie
/// semantics of the engine hold across the split.
///
/// `S` is the summary backend the overlay is built into ([`ExactStore`]
/// or [`VhllStore`]); the layered oracles own the corresponding frozen
/// arena types.
pub struct DeltaOverlay<S> {
    window: Window,
    /// Node-universe floor: the base arena's `num_nodes`. Overlay builds
    /// and compactions never produce a smaller universe.
    min_nodes: usize,
    /// Newest timestamp frozen into the base arena (`None` for an empty
    /// base).
    base_frontier: Option<Timestamp>,
    /// `tail ++ pending`, ascending in time.
    log: Vec<Interaction>,
    /// Length of the tail prefix of `log`.
    tail_len: usize,
    /// The one store every overlay and compaction rebuild runs through:
    /// cleared before each pass and only ever grown (with `ensure_nodes`),
    /// so a pass costs the log and the rows it touches rather than a fresh
    /// summary per node. Only its empty shape matters between passes, so
    /// [`Clone`] does not copy it.
    store: S,
}

/// Copies the log and bounds but not the rebuild store, whose contents are
/// scratch between passes: the copy starts from an empty store with the
/// same backend parameters and allocates its node slots on its first
/// rebuild. Copying the store would grow a layered oracle's memory by the
/// store's retained summaries for no change in any answer.
impl<S: SummaryStore> Clone for DeltaOverlay<S> {
    fn clone(&self) -> Self {
        DeltaOverlay {
            window: self.window,
            min_nodes: self.min_nodes,
            base_frontier: self.base_frontier,
            log: self.log.clone(),
            tail_len: self.tail_len,
            store: self.store.empty_like(),
        }
    }
}

impl<S: SummaryStore + HeapBytes> HeapBytes for DeltaOverlay<S> {
    /// The log plus the retained rebuild store.
    fn heap_bytes(&self) -> usize {
        self.log.capacity() * std::mem::size_of::<Interaction>() + self.store.heap_bytes()
    }
}

impl<S: SummaryStore> DeltaOverlay<S> {
    /// An empty delta on top of a base arena with `min_nodes` nodes whose
    /// newest interaction is `base_frontier`. Every rebuild runs through
    /// `store` (cleared before each pass), which also fixes the backend
    /// parameters such as the sketch precision.
    ///
    /// # Panics
    ///
    /// Panics if `window < 1`.
    pub fn new(
        window: Window,
        min_nodes: usize,
        base_frontier: Option<Timestamp>,
        store: S,
    ) -> Self {
        Self::from_log(window, min_nodes, base_frontier, Vec::new(), 0, store)
    }

    /// A delta seeded with the base's window tail (see [`DeltaOverlay`]):
    /// the first `tail_len` entries of `log` are the tail, the rest are
    /// pending appends.
    pub(crate) fn from_log(
        window: Window,
        min_nodes: usize,
        base_frontier: Option<Timestamp>,
        log: Vec<Interaction>,
        tail_len: usize,
        store: S,
    ) -> Self {
        window.assert_valid();
        debug_assert!(tail_len <= log.len());
        debug_assert!(
            log.windows(2).all(|w| w[0].time <= w[1].time),
            "delta log is not sorted by time"
        );
        DeltaOverlay {
            window,
            min_nodes,
            base_frontier,
            log,
            tail_len,
            store,
        }
    }

    /// The channel window `ω` shared with the base arena.
    pub fn window(&self) -> Window {
        self.window
    }

    /// The node-universe floor (the base arena's node count).
    pub fn min_nodes(&self) -> usize {
        self.min_nodes
    }

    /// Newest timestamp frozen into the base arena.
    pub fn base_frontier(&self) -> Option<Timestamp> {
        self.base_frontier
    }

    /// Newest timestamp known to the layered oracle: the last log entry,
    /// falling back to the base frontier. `None` only when both base and
    /// delta are empty. Appends must be at or after this.
    pub fn frontier(&self) -> Option<Timestamp> {
        self.log.last().map(|i| i.time).or(self.base_frontier)
    }

    /// The retained window tail of base history.
    pub fn tail(&self) -> &[Interaction] {
        &self.log[..self.tail_len]
    }

    /// Interactions appended since the base arena was frozen.
    pub fn pending(&self) -> &[Interaction] {
        &self.log[self.tail_len..]
    }

    /// The full time-sorted overlay input, `tail ++ pending`.
    pub fn log(&self) -> &[Interaction] {
        &self.log
    }

    /// The node universe an overlay build (or compaction) must cover:
    /// every id mentioned by the log, but never smaller than the base
    /// arena's universe.
    pub fn universe(&self) -> usize {
        let log_max = self
            .log
            .iter()
            .map(|i| i.src.index().max(i.dst.index()) + 1)
            .max()
            .unwrap_or(0);
        self.min_nodes.max(log_max)
    }

    /// Buffers one forward-time interaction.
    ///
    /// Ties with the frontier are allowed (they join its tie batch on the
    /// next rebuild); moving backwards is a [`StaleAppend`].
    pub fn append(&mut self, i: Interaction) -> Result<(), StaleAppend> {
        if let Some(f) = self.frontier() {
            if i.time < f {
                return Err(StaleAppend {
                    got: i.time,
                    frontier: f,
                });
            }
        }
        self.log.push(i);
        Ok(())
    }

    /// Rebuilds the overlay store from the whole log over the current
    /// [`universe`](Self::universe) and returns it for freezing.
    /// Engine-level metrics of the pass flow into `rec`.
    pub fn build_overlay_recorded<R: Recorder>(&mut self, rec: &R) -> &S {
        let universe = self.universe();
        self.build_slice_traced(0, universe, rec, NoopTracer, TraceId::NONE, SpanId::NONE)
    }

    /// Runs the re-entrant reverse pass over `log[from..]` into the cleared
    /// rebuild store covering `universe` nodes. The engine pass becomes a
    /// `build.reverse_scan` span of `trace` under `parent` — how a
    /// compaction's rebuild nests inside its `compact.rebuild` span.
    ///
    /// Costs O(|log| + n) words plus the merge work of the pass: clearing
    /// visits only populated summaries, and the store's node slots persist
    /// from pass to pass (the universe never shrinks).
    pub(crate) fn build_slice_traced<R: Recorder, T: Tracer>(
        &mut self,
        from: usize,
        universe: usize,
        rec: &R,
        tracer: T,
        trace: TraceId,
        parent: SpanId,
    ) -> &S {
        self.store.clear();
        self.store.ensure_nodes(universe);
        debug_assert_eq!(
            self.store.num_nodes(),
            universe,
            "the rebuild store outgrew the universe"
        );
        ReversePassEngine::run_slice_traced(
            &self.log[from..],
            self.window,
            &mut self.store,
            rec,
            tracer,
            trace,
            parent,
        );
        &self.store
    }

    /// Index of the first log entry that survives a compaction at
    /// `frontier`: entries with `frontier − t ≥ ω` can never share a
    /// channel with anything appended at `t ≥ frontier` and are expired.
    pub(crate) fn expiry_cut(&self, frontier: Timestamp) -> usize {
        self.log
            .partition_point(|i| frontier.delta(i.time) >= self.window.get())
    }

    /// Applies a finished compaction: the surviving log suffix becomes the
    /// new generation's tail, pending empties, and the universe floor
    /// rises to the compacted arena's node count.
    pub(crate) fn roll_base(
        &mut self,
        new_frontier: Option<Timestamp>,
        cut: usize,
        universe: usize,
    ) {
        self.min_nodes = universe;
        self.base_frontier = new_frontier;
        self.log.drain(..cut);
        self.tail_len = self.log.len();
    }
}

/// Walks the dominance-correct merge of two exact summaries (both sorted
/// by target id, one entry per target): targets present in both layers
/// keep the **minimum** end time, matching what a from-scratch build
/// records.
// xtask-contract: alloc-free, kernel
fn merged_exact_for_each(
    base: EntriesSlice<'_>,
    over: EntriesSlice<'_>,
    mut f: impl FnMut(NodeId, Timestamp),
) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < base.len() && j < over.len() {
        let (bv, bt) = base.get(i);
        let (ov, ot) = over.get(j);
        match bv.cmp(&ov) {
            std::cmp::Ordering::Less => {
                f(bv, bt);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                f(ov, ot);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                f(bv, if ot < bt { ot } else { bt });
                i += 1;
                j += 1;
            }
        }
    }
    while i < base.len() {
        let (v, t) = base.get(i);
        f(v, t);
        i += 1;
    }
    while j < over.len() {
        let (v, t) = over.get(j);
        f(v, t);
        j += 1;
    }
}

/// A frozen arena that can serve as both layers of a [`Layered`] oracle.
///
/// The exact and the vHLL layered oracles share their whole lifecycle —
/// append, refresh, compaction, batch queries and the directory codec —
/// and differ only in what this trait supplies: the live store their
/// overlay and compactions rebuild into, how that store freezes, the
/// window the arena stores, what a refresh derives from both layers, and
/// the two-layer merge rule that every [`InfluenceOracle`] method of the
/// layered oracle reads through. The merge rule keeps the per-target
/// **minimum end time** of exact summaries and the per-cell **maximum ρ**
/// of vHLL registers; the module docs show why either is bit-identical to
/// a from-scratch arena.
pub trait FrozenLayer: InfluenceOracle + HeapBytes + Clone + Sync {
    /// The live summary store the overlay and compaction passes build into.
    type Store: SummaryStore + HeapBytes + Sync;

    /// The manifest kind of a layered directory over this arena.
    const KIND: LayeredKind;

    /// Freezes a finished store built under `window`.
    fn freeze_store(store: &Self::Store, window: Window) -> Self;

    /// An empty store with this arena's backend parameters (the sketch
    /// precision): the one store every rebuild of a layered oracle runs
    /// through.
    fn empty_store(&self) -> Self::Store;

    /// The window stored in the arena's image, where its format carries one
    /// (IPFE does, IPFA does not).
    fn stored_window(&self) -> Option<Window>;

    /// The arena's image: the bytes of a layered directory's `gen-N.arena`.
    fn image(&self) -> &ArenaBytes;

    /// Loads a `gen-N.arena` file and checks every invariant a query on it
    /// relies on.
    fn load_checked(path: &Path) -> Result<Self, CodecError>;

    /// What a refresh derives from both layers: the per-node estimates of
    /// the merged rows where an estimate cannot be read off the two layers
    /// directly (vHLL), nothing for exact.
    fn merged_individuals(base: &Self, overlay: &Self) -> Vec<f64>;

    /// An empty union covering `layered`'s universe.
    fn layered_union(layered: &Layered<Self>) -> Self::Union;

    /// `Inf(seeds)` over both layers. The default absorbs every seed into a
    /// fresh union.
    fn layered_influence(layered: &Layered<Self>, seeds: &[NodeId]) -> f64 {
        let mut union = Self::layered_union(layered);
        for &s in seeds {
            Self::layered_absorb(layered, &mut union, s);
        }
        layered.union_size(&union)
    }

    /// Folds both layers' rows of `node` into `union`.
    fn layered_absorb(layered: &Layered<Self>, union: &mut Self::Union, node: NodeId);

    /// `|union ∪ σω(node)| − |union|` over the merged row of `node`.
    fn layered_marginal_gain(layered: &Layered<Self>, union: &Self::Union, node: NodeId) -> f64;

    /// `|σω(node)|` over the merged row of `node`.
    fn layered_individual(layered: &Layered<Self>, node: NodeId) -> f64;
}

/// An influence oracle layered as `frozen base arena ⊕ delta overlay`,
/// over either frozen arena ([`FrozenLayer`]).
///
/// Queries merge the two frozen layers through the arena's merge rule (see
/// the module docs for why the merge is bit-identical to a from-scratch
/// rebuild). Appends buffer into the [`DeltaOverlay`] and mark the oracle
/// [stale](Self::is_stale); an explicit [`refresh`](Self::refresh) folds
/// them into the overlay arena — until then queries answer as of the last
/// refresh. Both layers of a vHLL oracle are sparse IPFA v4 arenas, so a
/// refresh's overlay costs 12 bytes per node (offset and estimate) plus the
/// pairs of the rows the log touched.
#[derive(Clone)]
pub struct Layered<B: FrozenLayer> {
    base: B,
    delta: DeltaOverlay<B::Store>,
    overlay: B,
    /// What the last refresh derived from both layers
    /// ([`FrozenLayer::merged_individuals`]): the merged per-node estimates
    /// of a vHLL oracle, empty for exact.
    individuals: Vec<f64>,
    generation: u64,
    stale: bool,
}

/// An exact influence oracle layered as `frozen base arena ⊕ delta
/// overlay`: queries merge the two layers' summaries entry-wise, keeping
/// the per-target minimum end time.
pub type LayeredExactOracle = Layered<FrozenExactOracle>;

/// A sketch-based influence oracle layered as `frozen base arena ⊕ delta
/// overlay`: queries max-merge each seed's base and overlay registers into
/// the tile kernel of [`FrozenApproxOracle`], so the estimator reads the
/// same registers, in the same order, as from a from-scratch arena.
pub type LayeredApproxOracle = Layered<FrozenApproxOracle>;

impl<B: FrozenLayer> Layered<B> {
    /// Wraps `base`, frozen from the whole of `net` under `window`, and
    /// seeds the delta with the window tail of `net` (the suffix still
    /// inside `ω` of its last interaction), so forward appends can combine
    /// with frozen history.
    pub(crate) fn from_base(base: B, net: &InteractionNetwork, window: Window) -> Self {
        let frontier = net.interactions().last().map(|i| i.time);
        let tail = frontier.map_or_else(Vec::new, |f| window_tail(net.interactions(), f, window));
        Self::from_parts(base, window, frontier, tail, Vec::new(), 0)
    }

    /// Reassembles a layered oracle from persisted parts: the frozen base
    /// arena, the window, the base frontier, the window tail retained at
    /// freeze time, the pending appends, and the compaction generation.
    ///
    /// `tail ++ pending` must be ascending in time; the tail must be the
    /// base suffix within the window of `base_frontier`, and `window` must
    /// be the one the base was built under.
    pub fn from_parts(
        base: B,
        window: Window,
        base_frontier: Option<Timestamp>,
        tail: Vec<Interaction>,
        pending: Vec<Interaction>,
        generation: u64,
    ) -> Self {
        debug_assert!(
            base.stored_window().is_none_or(|w| w == window),
            "the base arena was built under another window"
        );
        let mut log = tail;
        let tail_len = log.len();
        log.extend(pending);
        let mut delta = DeltaOverlay::from_log(
            window,
            InfluenceOracle::num_nodes(&base),
            base_frontier,
            log,
            tail_len,
            base.empty_store(),
        );
        let overlay = B::freeze_store(delta.build_overlay_recorded(&NoopRecorder), window);
        let individuals = B::merged_individuals(&base, &overlay);
        Layered {
            base,
            delta,
            overlay,
            individuals,
            generation,
            stale: false,
        }
    }

    /// The channel window `ω`.
    pub fn window(&self) -> Window {
        self.delta.window()
    }

    /// Compaction generation of the current base arena (starts at 0,
    /// increments per [`compact`](Self::compact)).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// `true` when appends have not yet been folded into the overlay —
    /// queries answer as of the last [`refresh`](Self::refresh).
    pub fn is_stale(&self) -> bool {
        self.stale
    }

    /// Newest timestamp accepted so far (base or delta).
    pub fn frontier(&self) -> Option<Timestamp> {
        self.delta.frontier()
    }

    /// The frozen base arena of the current generation.
    pub fn base(&self) -> &B {
        &self.base
    }

    /// The frozen overlay arena of the last refresh.
    pub fn overlay(&self) -> &B {
        &self.overlay
    }

    /// The delta buffer (window tail + pending appends).
    pub fn delta(&self) -> &DeltaOverlay<B::Store> {
        &self.delta
    }

    /// Buffers one forward-time interaction and marks the oracle stale.
    pub fn append(&mut self, i: Interaction) -> Result<(), StaleAppend> {
        self.append_recorded(i, &NoopRecorder)
    }

    /// [`append`](Self::append) counting into `delta.appends`.
    pub fn append_recorded<R: Recorder>(
        &mut self,
        i: Interaction,
        rec: &R,
    ) -> Result<(), StaleAppend> {
        self.delta.append(i)?;
        self.stale = true;
        if R::ENABLED {
            rec.add(Counter::DeltaAppends, 1);
            rec.gauge(Gauge::DeltaPending, metric_u64(self.delta.pending().len()));
        }
        Ok(())
    }

    /// Appends a time-sorted batch, recording its size into the
    /// `delta.append_batch` histogram. Stops at (and returns) the first
    /// stale interaction; earlier ones stay appended.
    pub fn append_batch_recorded<R: Recorder>(
        &mut self,
        batch: &[Interaction],
        rec: &R,
    ) -> Result<(), StaleAppend> {
        for &i in batch {
            self.append_recorded(i, rec)?;
        }
        if R::ENABLED {
            rec.record(Hist::DeltaAppendBatch, metric_u64(batch.len()));
        }
        Ok(())
    }

    /// Rebuilds the overlay arena (and what the arena derives from both
    /// layers) from the delta log, folding in every pending append. Queries
    /// afterwards see the full appended history.
    pub fn refresh(&mut self) {
        self.refresh_recorded(&NoopRecorder);
    }

    /// [`refresh`](Self::refresh) timed under the `delta.refresh` span,
    /// with the tail/pending gauges updated.
    pub fn refresh_recorded<R: Recorder>(&mut self, rec: &R) {
        let t0 = rec.span_start();
        let window = self.delta.window();
        self.overlay = B::freeze_store(self.delta.build_overlay_recorded(rec), window);
        self.individuals = B::merged_individuals(&self.base, &self.overlay);
        self.stale = false;
        if R::ENABLED {
            rec.add(Counter::DeltaRefreshes, 1);
            rec.gauge(Gauge::DeltaPending, metric_u64(self.delta.pending().len()));
            rec.gauge(Gauge::DeltaTail, metric_u64(self.delta.tail().len()));
        }
        rec.span_end(Span::DeltaRefresh, t0);
    }

    /// LSM-style re-freeze: expires log entries outside the window of the
    /// new frontier, rebuilds a fresh base arena over the survivors with
    /// the one-pass engine, and starts the next generation with an empty
    /// pending log (the survivors become its window tail).
    ///
    /// Post-compaction answers are bit-identical to a from-scratch build
    /// over the surviving interactions with the same node universe; see
    /// the module docs for the retained-window semantics.
    pub fn compact(&mut self) {
        self.compact_traced(&NoopRecorder, NoopTracer);
    }

    /// [`compact`](Self::compact) with a recorder and a tracer attached.
    /// The recorder times the whole compaction under the `compaction.run`
    /// span, counts expired interactions and the surviving input size, and
    /// publishes the new generation to the `compaction.generation` gauge.
    /// The tracer sees one `compact.run` trace whose tree nests a
    /// `compact.rebuild` span (the survivors' engine pass, with its
    /// `build.reverse_scan` child) and an `overlay.refresh` span (the
    /// post-roll overlay rebuild); payloads carry the surviving input size
    /// and the tail length.
    pub fn compact_traced<R: Recorder, T: Tracer>(&mut self, rec: &R, tracer: T) {
        let trace = TraceId(if T::ENABLED {
            tracer.alloc_traces(1)
        } else {
            0
        });
        let sp = tracer.begin(trace, SpanId::NONE, TraceEvent::CompactRun);
        let t0 = rec.span_start();
        let new_frontier = self.delta.frontier();
        let universe = self.delta.universe();
        let cut = new_frontier.map_or(0, |f| self.delta.expiry_cut(f));
        let survivors = self.delta.log().len() - cut;
        if R::ENABLED {
            rec.add(Counter::CompactionRuns, 1);
            rec.add(Counter::CompactionExpired, metric_u64(cut));
            rec.record(Hist::CompactionInput, metric_u64(survivors));
        }
        let rb = tracer.begin(trace, sp, TraceEvent::CompactRebuild);
        let window = self.delta.window();
        let store = self
            .delta
            .build_slice_traced(cut, universe, rec, tracer, trace, rb);
        self.base = B::freeze_store(store, window);
        tracer.end(rb, TraceEvent::CompactRebuild, metric_u64(survivors));
        self.delta.roll_base(new_frontier, cut, universe);
        self.generation += 1;
        if R::ENABLED {
            rec.gauge(Gauge::CompactionGeneration, self.generation);
        }
        let rf = tracer.begin(trace, sp, TraceEvent::OverlayRefresh);
        self.refresh_recorded(rec);
        tracer.end(
            rf,
            TraceEvent::OverlayRefresh,
            metric_u64(self.delta.tail().len()),
        );
        rec.span_end(Span::CompactionRun, t0);
        tracer.end(sp, TraceEvent::CompactRun, metric_u64(survivors));
    }

    /// True batch query over the layered merge: `Inf(S_i)` for every seed
    /// set, fanned out over up to `threads` workers. Answers are
    /// bit-identical to mapping [`InfluenceOracle::influence`] over the
    /// sets in order; the batch amortizes per-query setup by reusing one
    /// union and one seed-dedup buffer per worker (the union merge is
    /// idempotent, so deduplicated seeds answer identically with each row
    /// absorbed once).
    pub fn influence_many_frozen(&self, seed_sets: &[Vec<NodeId>], threads: usize) -> Vec<f64> {
        self.influence_many_frozen_traced(seed_sets, threads, &NoopRecorder, NoopTracer)
    }

    /// [`influence_many_frozen`](Self::influence_many_frozen) with a
    /// recorder and a tracer attached, instrumented like
    /// [`FrozenExactOracle::influence_many_frozen_traced`]: per-query
    /// latencies in `kernel.query_ns`, merged-row counts in
    /// `kernel.merge_rows`, the batch in the `oracle.query_batch` span, and
    /// one `query.batch` trace span with a `query.element` span (own trace
    /// id, deduplicated seed-row count as payload) per element. Answers
    /// stay bit-identical with any recorder and tracer.
    pub fn influence_many_frozen_traced<R: Recorder, T: Tracer>(
        &self,
        seed_sets: &[Vec<NodeId>],
        threads: usize,
        rec: &R,
        tracer: T,
    ) -> Vec<f64> {
        influence_batch(self, seed_sets, threads, rec, tracer)
    }
}

impl Layered<FrozenExactOracle> {
    /// Builds the base arena from `net` and seeds the delta with its
    /// window tail, ready for forward appends.
    pub fn from_network(net: &InteractionNetwork, window: Window) -> Self {
        ExactIrs::compute(net, window).layered(net)
    }

    /// Entries of `φω(u)` as answered by the layered merge, sorted by
    /// target id with the per-target minimum end time — bit-identical to
    /// the summary a from-scratch arena over the same history stores.
    ///
    /// # Panics
    ///
    /// Panics if `u` is outside the universe.
    pub fn summary(&self, u: NodeId) -> Vec<(NodeId, Timestamp)> {
        assert!(
            u.index() < InfluenceOracle::num_nodes(self),
            "node {} outside the layered universe",
            u.index()
        );
        let mut out = Vec::new();
        merged_exact_for_each(self.base_summary(u), self.overlay.summary(u), |v, t| {
            out.push((v, t));
        });
        out
    }

    /// The base layer's summary, empty for nodes the base arena predates.
    fn base_summary(&self, u: NodeId) -> EntriesSlice<'_> {
        if u.index() < InfluenceOracle::num_nodes(&self.base) {
            self.base.summary(u)
        } else {
            EntriesSlice::empty()
        }
    }
}

impl Layered<FrozenApproxOracle> {
    /// Builds the base arena from `net` at [`DEFAULT_PRECISION`] and seeds
    /// the delta with its window tail.
    pub fn from_network(net: &InteractionNetwork, window: Window) -> Self {
        Self::from_network_with_precision(net, window, DEFAULT_PRECISION)
    }

    /// Builds the base arena from `net` at sketch precision `precision`
    /// and seeds the delta with its window tail.
    pub fn from_network_with_precision(
        net: &InteractionNetwork,
        window: Window,
        precision: u8,
    ) -> Self {
        ApproxIrs::compute_with_precision(net, window, precision).layered(net)
    }

    /// The sketch precision `k` (so `β = 2^k`).
    pub fn precision(&self) -> u8 {
        self.base.precision()
    }

    /// The base layer's register row — empty for nodes the base arena
    /// predates (their registers are all-zero by definition).
    #[inline]
    // xtask-contract: alloc-free, kernel
    fn base_row(&self, node: NodeId) -> SparseRow<'_> {
        if node.index() < InfluenceOracle::num_nodes(&self.base) {
            self.base.row(node)
        } else {
            SparseRow::EMPTY
        }
    }
}

impl<B: FrozenLayer> HeapBytes for Layered<B> {
    /// Base and overlay images, the merged estimates, the delta log and the
    /// retained rebuild store.
    fn heap_bytes(&self) -> usize {
        self.base.heap_bytes()
            + self.overlay.heap_bytes()
            + self.individuals.capacity() * std::mem::size_of::<f64>()
            + self.delta.heap_bytes()
    }
}

/// Every query reads through the arena's merge rule ([`FrozenLayer`]);
/// union bookkeeping is the base arena's own.
impl<B: FrozenLayer> InfluenceOracle for Layered<B> {
    type Union = B::Union;

    fn num_nodes(&self) -> usize {
        InfluenceOracle::num_nodes(&self.overlay).max(InfluenceOracle::num_nodes(&self.base))
    }

    fn influence(&self, seeds: &[NodeId]) -> f64 {
        B::layered_influence(self, seeds)
    }

    fn empty_union(&self) -> B::Union {
        B::layered_union(self)
    }

    fn union_size(&self, union: &B::Union) -> f64 {
        self.base.union_size(union)
    }

    // xtask-contract: alloc-free, kernel
    fn absorb(&self, union: &mut B::Union, node: NodeId) {
        B::layered_absorb(self, union, node);
    }

    // xtask-contract: alloc-free, kernel
    fn marginal_gain(&self, union: &B::Union, node: NodeId) -> f64 {
        B::layered_marginal_gain(self, union, node)
    }

    // xtask-contract: alloc-free, kernel
    fn individual(&self, node: NodeId) -> f64 {
        B::layered_individual(self, node)
    }

    fn reset_union(&self, union: &mut B::Union) {
        self.base.reset_union(union);
    }
}

impl<B: FrozenLayer> BatchQuery for Layered<B> {
    type Scratch = B::Union;

    fn scratch(&self) -> B::Union {
        self.empty_union()
    }

    fn answer(&self, union: &mut B::Union, seeds: &[NodeId]) -> f64 {
        self.influence_into(seeds, union)
    }
}

impl FrozenLayer for FrozenExactOracle {
    type Store = ExactStore;

    const KIND: LayeredKind = LayeredKind::Exact;

    fn freeze_store(store: &ExactStore, window: Window) -> Self {
        store.freeze(window)
    }

    fn empty_store(&self) -> ExactStore {
        ExactStore::with_nodes(0)
    }

    fn stored_window(&self) -> Option<Window> {
        Some(self.window())
    }

    fn image(&self) -> &ArenaBytes {
        FrozenExactOracle::image(self)
    }

    fn load_checked(path: &Path) -> Result<Self, CodecError> {
        let arena = Self::load(path)?;
        arena
            .validate()
            .map_err(|_| CodecError::Corrupt("frozen arena violates paper invariants"))?;
        Ok(arena)
    }

    /// Nothing: a merged exact answer is counted off the two summaries.
    fn merged_individuals(_base: &Self, _overlay: &Self) -> Vec<f64> {
        Vec::new()
    }

    fn layered_union(layered: &Layered<Self>) -> NodeBitset {
        NodeBitset::with_nodes(layered.num_nodes())
    }

    // xtask-contract: alloc-free, kernel
    fn layered_absorb(layered: &Layered<Self>, union: &mut NodeBitset, node: NodeId) {
        // Distinct-target union: layer order is irrelevant, so no merge
        // walk is needed — both layers' targets just land in the bitset.
        for (v, _) in layered.base_summary(node).iter() {
            union.insert(v.index());
        }
        for (v, _) in layered.overlay.summary(node).iter() {
            union.insert(v.index());
        }
    }

    // xtask-contract: alloc-free, kernel
    fn layered_marginal_gain(layered: &Layered<Self>, union: &NodeBitset, node: NodeId) -> f64 {
        let mut gain = 0usize;
        merged_exact_for_each(
            layered.base_summary(node),
            layered.overlay.summary(node),
            |v, _| {
                if !union.contains(v.index()) {
                    gain += 1;
                }
            },
        );
        gain as f64
    }

    // xtask-contract: alloc-free, kernel
    fn layered_individual(layered: &Layered<Self>, node: NodeId) -> f64 {
        let mut count = 0usize;
        merged_exact_for_each(
            layered.base_summary(node),
            layered.overlay.summary(node),
            |_, _| {
                count += 1;
            },
        );
        count as f64
    }
}

impl FrozenLayer for FrozenApproxOracle {
    type Store = VhllStore;

    const KIND: LayeredKind = LayeredKind::Approx;

    fn freeze_store(store: &VhllStore, _window: Window) -> Self {
        store.freeze()
    }

    fn empty_store(&self) -> VhllStore {
        VhllStore::with_nodes(self.precision(), 0)
    }

    fn stored_window(&self) -> Option<Window> {
        None
    }

    fn image(&self) -> &ArenaBytes {
        FrozenApproxOracle::image(self)
    }

    fn load_checked(path: &Path) -> Result<Self, CodecError> {
        let arena = Self::load(path)?;
        arena
            .validate()
            .map_err(|_| CodecError::Corrupt("frozen register arena violates its invariants"))?;
        Ok(arena)
    }

    /// Per-node estimates over the register-wise maximum of the two layers
    /// — the same estimator (and summation order) a from-scratch arena
    /// precomputes at freeze time, so reads are bit-identical.
    ///
    /// Only rows the log changed are re-estimated. Where one layer's row is
    /// register-wise at most the other's (an overlay row that is all-zero
    /// or holds only channels the base already covers, or a node with no
    /// base channels), the merged row *is* the other layer's row, whose
    /// estimate that arena already stored at freeze time. Comparing two
    /// rows is one merge walk over their sorted indices.
    fn merged_individuals(base: &Self, overlay: &Self) -> Vec<f64> {
        let beta = 1usize << overlay.precision();
        let base_n = InfluenceOracle::num_nodes(base);
        let n = InfluenceOracle::num_nodes(overlay).max(base_n);
        let mut out = Vec::with_capacity(n);
        for u in 0..n {
            let u = NodeId::from_index(u);
            if u.index() >= base_n {
                out.push(overlay.individual(u));
                continue;
            }
            let (over_row, base_row) = (overlay.row(u), base.row(u));
            let (over_above, base_above) = rows_exceed(over_row, base_row);
            out.push(if !over_above {
                base.individual(u)
            } else if !base_above {
                overlay.individual(u)
            } else {
                kernel::estimate_tiles(beta, |lo, block| {
                    over_row.max_into_tile(lo, block);
                    base_row.max_into_tile(lo, block);
                })
            });
        }
        out
    }

    fn layered_union(layered: &Layered<Self>) -> HyperLogLog {
        HyperLogLog::new(layered.precision())
    }

    /// Fused k-way union over the *layered* rows: each seed's overlay and
    /// base pairs are max-merged tile by tile into a small stack block and
    /// streamed into the shared estimator — the same loop as the frozen
    /// arena, fed the same merged registers in the same order, hence
    /// bit-identical answers.
    // xtask-contract: alloc-free, kernel
    fn layered_influence(layered: &Layered<Self>, seeds: &[NodeId]) -> f64 {
        kernel::estimate_tiles(1usize << layered.precision(), |lo, block| {
            for &s in seeds {
                layered.overlay.row(s).max_into_tile(lo, block);
                layered.base_row(s).max_into_tile(lo, block);
            }
        })
    }

    // xtask-contract: alloc-free, kernel
    fn layered_absorb(layered: &Layered<Self>, union: &mut HyperLogLog, node: NodeId) {
        // Register max is associative and commutative, so folding the two
        // layers in sequence equals folding their merged row.
        for row in [layered.overlay.row(node), layered.base_row(node)] {
            for (index, rho) in row.iter() {
                union.merge_register(index, rho);
            }
        }
    }

    /// Streams `max(union, base row, overlay row)` tile by tile through
    /// the estimator — the same register sequence (and therefore the same
    /// float summation order) as the frozen arena probing the merged row,
    /// with no allocation.
    // xtask-contract: alloc-free, kernel
    fn layered_marginal_gain(layered: &Layered<Self>, union: &HyperLogLog, node: NodeId) -> f64 {
        let regs = union.registers();
        let (over_row, base_row) = (layered.overlay.row(node), layered.base_row(node));
        kernel::estimate_tiles(1usize << layered.precision(), |lo, block| {
            block.copy_from_slice(&regs[lo..lo + block.len()]);
            over_row.max_into_tile(lo, block);
            base_row.max_into_tile(lo, block);
        }) - union.estimate()
    }

    // xtask-contract: alloc-free, kernel
    fn layered_individual(layered: &Layered<Self>, node: NodeId) -> f64 {
        layered.individuals[node.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ReversePassEngine;

    const PRECISION: u8 = 6;

    /// Deterministic dense network: distinct ascending timestamps, every
    /// node id in [0, 13) appears early.
    fn triples(n: usize) -> Vec<(u32, u32, i64)> {
        (0..n as u32)
            .map(|i| (i % 13, (i * 5 + 1) % 13, i as i64))
            .filter(|&(s, d, _)| s != d)
            .collect()
    }

    /// Triples with heavy timestamp ties (pairs share a time), including
    /// across any prefix/suffix split.
    fn tied_triples(n: usize) -> Vec<(u32, u32, i64)> {
        (0..n as u32)
            .map(|i| (i % 13, (i * 5 + 1) % 13, (i / 2) as i64))
            .filter(|&(s, d, _)| s != d)
            .collect()
    }

    fn interactions(triples: &[(u32, u32, i64)]) -> Vec<Interaction> {
        triples
            .iter()
            .map(|&(s, d, t)| Interaction::from_raw(s, d, t))
            .collect()
    }

    fn layered_exact_at_split(
        all: &[(u32, u32, i64)],
        split: usize,
        w: Window,
    ) -> LayeredExactOracle {
        let base_net = InteractionNetwork::from_triples(all[..split].iter().copied());
        let mut layered = LayeredExactOracle::from_network(&base_net, w);
        for i in interactions(&all[split..]) {
            layered.append(i).unwrap();
        }
        layered.refresh();
        layered
    }

    fn scratch_exact(all: &[(u32, u32, i64)], w: Window) -> FrozenExactOracle {
        let net = InteractionNetwork::from_triples(all.iter().copied());
        ReversePassEngine::run(&net, w, ExactStore::with_nodes(net.num_nodes())).freeze(w)
    }

    fn assert_exact_parity(layered: &LayeredExactOracle, scratch: &FrozenExactOracle) {
        let n = InfluenceOracle::num_nodes(scratch);
        assert_eq!(InfluenceOracle::num_nodes(layered), n);
        for u in 0..n {
            let u = NodeId::from_index(u);
            assert_eq!(
                layered.summary(u),
                scratch.summary(u).to_vec(),
                "node {u:?}"
            );
            assert_eq!(layered.individual(u), scratch.individual(u));
        }
        let seeds: Vec<NodeId> = (0..n.min(4)).map(NodeId::from_index).collect();
        assert_eq!(layered.influence(&seeds), scratch.influence(&seeds));
        // Marginal gains against a partially-filled union.
        let mut lu = layered.empty_union();
        let mut su = scratch.empty_union();
        if n > 0 {
            layered.absorb(&mut lu, NodeId(0));
            scratch.absorb(&mut su, NodeId(0));
            for u in 0..n {
                let u = NodeId::from_index(u);
                assert_eq!(layered.marginal_gain(&lu, u), scratch.marginal_gain(&su, u));
            }
        }
    }

    /// `influence`, `individual` and `marginal_gain` panic on the ids at
    /// and past `oracle`'s universe.
    fn assert_ids_outside_panic<O: InfluenceOracle>(oracle: &O) {
        let n = oracle.num_nodes();
        let union = oracle.empty_union();
        let panics = |f: &dyn Fn() -> f64| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
        };
        for id in [n, n + 2] {
            let node = NodeId::from_index(id);
            assert!(panics(&|| oracle.influence(&[node])), "influence of {id}");
            assert!(panics(&|| oracle.individual(node)), "individual of {id}");
            assert!(
                panics(&|| oracle.marginal_gain(&union, node)),
                "marginal gain of {id}"
            );
        }
    }

    #[test]
    fn ids_outside_the_universe_panic_on_frozen_and_layered_oracles() {
        let all = triples(60);
        let (w, split) = (Window(8), 40);
        let net = InteractionNetwork::from_triples(all.iter().copied());
        assert_ids_outside_panic(&ExactIrs::compute(&net, w).freeze());
        assert_ids_outside_panic(&ApproxIrs::compute_with_precision(&net, w, PRECISION).freeze());
        // The appends grow the layered universe past the base's 13 nodes.
        let base = InteractionNetwork::from_triples(all[..split].iter().copied());
        let mut appends = interactions(&all[split..]);
        appends.push(Interaction::from_raw(2, 15, 100));
        let mut exact = LayeredExactOracle::from_network(&base, w);
        let mut approx = LayeredApproxOracle::from_network_with_precision(&base, w, PRECISION);
        for &i in &appends {
            exact.append(i).unwrap();
            approx.append(i).unwrap();
        }
        exact.refresh();
        approx.refresh();
        assert_eq!(InfluenceOracle::num_nodes(&exact), 16);
        assert_ids_outside_panic(&exact);
        assert_ids_outside_panic(&approx);
    }

    #[test]
    fn append_behind_frontier_is_rejected() {
        let all = triples(40);
        let base_net = InteractionNetwork::from_triples(all.iter().copied());
        let mut layered = LayeredExactOracle::from_network(&base_net, Window(10));
        let frontier = layered.frontier().unwrap();
        let err = layered
            .append(Interaction::from_raw(0, 1, frontier.get() - 1))
            .unwrap_err();
        assert_eq!(err.frontier, frontier);
        assert_eq!(err.got, Timestamp(frontier.get() - 1));
        // Ties with the frontier are accepted.
        layered
            .append(Interaction::from_raw(0, 1, frontier.get()))
            .unwrap();
        assert!(layered.is_stale());
    }

    #[test]
    fn exact_layered_matches_scratch_across_splits() {
        let all = triples(60);
        let scratch = scratch_exact(&all, Window(15));
        for split in [1, 17, 30, all.len() - 1] {
            let layered = layered_exact_at_split(&all, split, Window(15));
            assert_exact_parity(&layered, &scratch);
        }
    }

    #[test]
    fn exact_layered_matches_scratch_with_tie_spanning_split() {
        let all = tied_triples(60);
        let scratch = scratch_exact(&all, Window(8));
        // Split 31 lands mid tie-batch (times i/2 pair up entries).
        for split in [21, 31] {
            let layered = layered_exact_at_split(&all, split, Window(8));
            assert_exact_parity(&layered, &scratch);
        }
    }

    #[test]
    fn tail_only_overlay_is_identity() {
        let all = triples(50);
        let net = InteractionNetwork::from_triples(all.iter().copied());
        let layered = LayeredExactOracle::from_network(&net, Window(12));
        let scratch = scratch_exact(&all, Window(12));
        assert!(!layered.is_stale());
        assert_exact_parity(&layered, &scratch);
    }

    #[test]
    fn stale_queries_answer_as_of_last_refresh() {
        let all = triples(50);
        let split = 30;
        let base_net = InteractionNetwork::from_triples(all[..split].iter().copied());
        let mut layered = LayeredExactOracle::from_network(&base_net, Window(12));
        let before = layered.influence(&[NodeId(0)]);
        for i in interactions(&all[split..]) {
            layered.append(i).unwrap();
        }
        assert!(layered.is_stale());
        assert_eq!(layered.influence(&[NodeId(0)]), before);
        layered.refresh();
        assert!(!layered.is_stale());
        assert_exact_parity(&layered, &scratch_exact(&all, Window(12)));
    }

    #[test]
    fn approx_layered_matches_scratch_bit_identically() {
        let all = tied_triples(60);
        let w = Window(9);
        let net = InteractionNetwork::from_triples(all.iter().copied());
        let scratch =
            ReversePassEngine::run(&net, w, VhllStore::with_nodes(PRECISION, net.num_nodes()))
                .freeze();
        for split in [1, 25, 44] {
            let base_net = InteractionNetwork::from_triples(all[..split].iter().copied());
            let mut layered =
                LayeredApproxOracle::from_network_with_precision(&base_net, w, PRECISION);
            for i in interactions(&all[split..]) {
                layered.append(i).unwrap();
            }
            layered.refresh();
            let n = InfluenceOracle::num_nodes(&scratch);
            assert_eq!(InfluenceOracle::num_nodes(&layered), n);
            for u in 0..n {
                let u = NodeId::from_index(u);
                assert_eq!(layered.individual(u), scratch.individual(u), "node {u:?}");
            }
            let seeds: Vec<NodeId> = (0..4).map(NodeId::from_index).collect();
            assert_eq!(layered.influence(&seeds), scratch.influence(&seeds));
            assert_eq!(layered.influence(&[]), scratch.influence(&[]));
            let mut lu = layered.empty_union();
            let mut su = scratch.empty_union();
            layered.absorb(&mut lu, NodeId(2));
            scratch.absorb(&mut su, NodeId(2));
            assert_eq!(lu.registers(), su.registers());
            for u in 0..n {
                let u = NodeId::from_index(u);
                assert_eq!(layered.marginal_gain(&lu, u), scratch.marginal_gain(&su, u));
            }
        }
    }

    #[test]
    fn compaction_is_bit_identical_to_scratch_over_survivors() {
        let all = triples(60);
        let w = Window(15);
        let mut layered = layered_exact_at_split(&all, 35, w);
        let universe = layered.delta().universe();
        // Reference: from-scratch one-pass build over the window-surviving
        // suffix with the same universe.
        let ints = interactions(&all);
        let frontier = ints.last().unwrap().time;
        let surviving = window_tail(&ints, frontier, w);
        let mut store = ExactStore::with_nodes(universe);
        store.ensure_nodes(universe);
        let reference = ReversePassEngine::run_slice(&surviving, w, store).freeze(w);

        layered.compact();
        assert_eq!(layered.generation(), 1);
        assert_eq!(layered.delta().pending().len(), 0);
        assert_eq!(layered.delta().tail().len(), surviving.len());
        assert_eq!(layered.base().offsets(), reference.offsets());
        assert_eq!(layered.base().entries(), reference.entries());
        // Tail-only overlay merges to identity: queries equal the new base.
        assert_exact_parity(&layered, &reference);

        // Appends keep working across the generation boundary.
        let t = layered.frontier().unwrap().get();
        layered.append(Interaction::from_raw(1, 2, t + 1)).unwrap();
        layered.refresh();
        assert!(layered.individual(NodeId(1)) >= 1.0);
    }

    #[test]
    fn compaction_expires_interactions_outside_window() {
        let all = triples(30);
        let w = Window(10);
        let mut layered = layered_exact_at_split(&all, 20, w);
        // One append far beyond the window expires the whole old log.
        layered.append(Interaction::from_raw(3, 7, 1_000)).unwrap();
        layered.compact();
        assert_eq!(layered.delta().tail().len(), 1);
        // Only the 3 → 7 channel survives.
        assert_eq!(layered.individual(NodeId(3)), 1.0);
        assert_eq!(
            layered.summary(NodeId(3)),
            vec![(NodeId(7), Timestamp(1_000))]
        );
        for u in 0..InfluenceOracle::num_nodes(&layered) {
            if u != 3 {
                assert_eq!(layered.individual(NodeId::from_index(u)), 0.0, "node {u}");
            }
        }
        // The universe never shrinks at compaction.
        assert_eq!(InfluenceOracle::num_nodes(&layered), 13);
    }

    #[test]
    fn approx_compaction_matches_scratch_over_survivors() {
        let all = tied_triples(50);
        let w = Window(7);
        let base_net = InteractionNetwork::from_triples(all[..30].iter().copied());
        let mut layered = LayeredApproxOracle::from_network_with_precision(&base_net, w, PRECISION);
        for i in interactions(&all[30..]) {
            layered.append(i).unwrap();
        }
        layered.refresh();
        let universe = layered.delta().universe();
        let ints = interactions(&all);
        let frontier = ints.last().unwrap().time;
        let surviving = window_tail(&ints, frontier, w);
        let mut store = VhllStore::with_nodes(PRECISION, 0);
        store.ensure_nodes(universe);
        let reference = ReversePassEngine::run_slice(&surviving, w, store).freeze();

        layered.compact();
        assert_eq!(layered.base().image(), reference.image());
        let seeds: Vec<NodeId> = (0..5).map(NodeId::from_index).collect();
        assert_eq!(layered.influence(&seeds), reference.influence(&seeds));
        for u in 0..InfluenceOracle::num_nodes(&reference) {
            let u = NodeId::from_index(u);
            assert_eq!(layered.individual(u), reference.individual(u));
        }
    }

    #[test]
    fn universe_grows_with_appended_node_ids() {
        let all = triples(30);
        let base_net = InteractionNetwork::from_triples(all[..20].iter().copied());
        let mut layered = LayeredExactOracle::from_network(&base_net, Window(10));
        let t = layered.frontier().unwrap().get();
        // Self-loop on a brand-new id pads the universe without edges.
        layered
            .append(Interaction::from_raw(40, 40, t + 1))
            .unwrap();
        layered.refresh();
        assert_eq!(InfluenceOracle::num_nodes(&layered), 41);
        assert_eq!(layered.individual(NodeId(40)), 0.0);
        assert_eq!(layered.summary(NodeId(40)), Vec::new());
    }

    #[test]
    fn layered_batch_matches_per_query_bitwise() {
        let all = tied_triples(60);
        let w = Window(9);
        let base_net = InteractionNetwork::from_triples(all[..35].iter().copied());
        let mut exact = LayeredExactOracle::from_network(&base_net, w);
        let mut approx = LayeredApproxOracle::from_network_with_precision(&base_net, w, PRECISION);
        for i in interactions(&all[35..]) {
            exact.append(i).unwrap();
            approx.append(i).unwrap();
        }
        exact.refresh();
        approx.refresh();
        let sets: Vec<Vec<NodeId>> = vec![
            vec![NodeId(0), NodeId(4)],
            vec![],
            vec![NodeId(2), NodeId(2)],
            (0..7).map(NodeId).collect(),
            vec![NodeId(5), NodeId(1), NodeId(5)],
        ];
        let exact_ref: Vec<f64> = sets.iter().map(|s| exact.influence(s)).collect();
        let approx_ref: Vec<f64> = sets.iter().map(|s| approx.influence(s)).collect();
        for threads in [1, 2, 8] {
            let eb = exact.influence_many_frozen(&sets, threads);
            let ab = approx.influence_many_frozen(&sets, threads);
            for ((got, want), (ga, wa)) in eb.iter().zip(&exact_ref).zip(ab.iter().zip(&approx_ref))
            {
                assert_eq!(got.to_bits(), want.to_bits(), "exact t={threads}");
                assert_eq!(ga.to_bits(), wa.to_bits(), "approx t={threads}");
            }
        }
    }

    #[test]
    fn delta_overlay_metrics_flow() {
        use crate::obs::MetricsRecorder;
        let all = triples(40);
        let base_net = InteractionNetwork::from_triples(all[..25].iter().copied());
        let rec = MetricsRecorder::new();
        let mut layered = LayeredExactOracle::from_network(&base_net, Window(10));
        layered
            .append_batch_recorded(&interactions(&all[25..]), &rec)
            .unwrap();
        layered.refresh_recorded(&rec);
        layered.compact_traced(&rec, NoopTracer);
        let snapshot = rec.snapshot().to_json();
        for key in [
            "delta.appends",
            "delta.refreshes",
            "delta.append_batch",
            "delta.pending_interactions",
            "delta.tail_interactions",
            "delta.refresh",
            "compaction.runs",
            "compaction.generation",
            "compaction.input_interactions",
            "compaction.run",
        ] {
            assert!(snapshot.contains(key), "missing {key}: {snapshot}");
        }
    }

    /// A precision-4 sketch holding exactly the given `(index, ρ)` registers.
    fn sketch4(pairs: &[(usize, u8)]) -> HyperLogLog {
        let mut regs = vec![0u8; 16];
        for &(i, rho) in pairs {
            regs[i] = rho;
        }
        HyperLogLog::from_registers(regs)
    }

    #[test]
    fn merged_individuals_cover_every_dominance_case() {
        let base = FrozenApproxOracle::from_collapsed(
            4,
            &[
                sketch4(&[(1, 3)]),         // overlay empty: base row wins
                sketch4(&[]),               // base empty: overlay row wins
                sketch4(&[(1, 3), (5, 1)]), // overlay covered by base
                sketch4(&[(1, 2)]),         // overlay covers base
                sketch4(&[(1, 2)]),         // each exceeds the other
            ],
        );
        let overlay = FrozenApproxOracle::from_collapsed(
            4,
            &[
                sketch4(&[]),
                sketch4(&[(2, 2)]),
                sketch4(&[(1, 2)]),
                sketch4(&[(1, 3)]),
                sketch4(&[(3, 1)]),
                sketch4(&[(0, 1)]), // past the base universe
            ],
        );
        let merged = FrozenApproxOracle::merged_individuals(&base, &overlay);
        assert_eq!(merged.len(), 6);
        for (u, got) in merged.iter().enumerate() {
            let node = NodeId::from_index(u);
            let mut dense = overlay.row(node).to_registers(16);
            if u < 5 {
                base.row(node).max_into(&mut dense);
            }
            assert_eq!(
                got.to_bits(),
                infprop_hll::estimate_from_registers(&dense).to_bits(),
                "node {u}"
            );
        }
        assert_eq!(merged[0].to_bits(), base.individual(NodeId(0)).to_bits());
        assert_eq!(merged[1].to_bits(), overlay.individual(NodeId(1)).to_bits());
        assert_eq!(merged[2].to_bits(), base.individual(NodeId(2)).to_bits());
        assert_eq!(merged[3].to_bits(), overlay.individual(NodeId(3)).to_bits());
        assert!(merged[4] > base.individual(NodeId(4)));
    }

    #[test]
    fn approx_append_behind_frontier_is_rejected() {
        let net = InteractionNetwork::from_triples(triples(40));
        let mut layered =
            LayeredApproxOracle::from_network_with_precision(&net, Window(10), PRECISION);
        let frontier = layered.frontier().unwrap();
        let err = layered
            .append(Interaction::from_raw(0, 1, frontier.get() - 1))
            .unwrap_err();
        assert_eq!(
            (err.frontier, err.got),
            (frontier, Timestamp(frontier.get() - 1))
        );
        assert!(!layered.is_stale());
        layered
            .append(Interaction::from_raw(0, 1, frontier.get()))
            .unwrap();
        assert!(layered.is_stale());
    }

    #[test]
    fn approx_stale_queries_answer_as_of_last_refresh() {
        let all = triples(50);
        let w = Window(12);
        let base_net = InteractionNetwork::from_triples(all[..30].iter().copied());
        let mut layered = LayeredApproxOracle::from_network_with_precision(&base_net, w, PRECISION);
        let seeds = [NodeId(0), NodeId(3)];
        let before = layered.influence(&seeds);
        let individuals: Vec<f64> = (0..InfluenceOracle::num_nodes(&layered))
            .map(|u| layered.individual(NodeId::from_index(u)))
            .collect();
        for i in interactions(&all[30..]) {
            layered.append(i).unwrap();
        }
        assert!(layered.is_stale());
        assert_eq!(layered.influence(&seeds).to_bits(), before.to_bits());
        for (u, want) in individuals.iter().enumerate() {
            assert_eq!(layered.individual(NodeId::from_index(u)), *want);
        }
        layered.refresh();
        assert!(!layered.is_stale());
        let net = InteractionNetwork::from_triples(all.iter().copied());
        let scratch =
            ReversePassEngine::run(&net, w, VhllStore::with_nodes(PRECISION, net.num_nodes()))
                .freeze();
        assert_eq!(
            layered.influence(&seeds).to_bits(),
            scratch.influence(&seeds).to_bits()
        );
    }

    #[test]
    fn approx_universe_grows_with_appended_node_ids() {
        let all = triples(30);
        let base_net = InteractionNetwork::from_triples(all[..20].iter().copied());
        let mut layered =
            LayeredApproxOracle::from_network_with_precision(&base_net, Window(10), PRECISION);
        let base_n = InfluenceOracle::num_nodes(layered.base());
        let t = layered.frontier().unwrap().get();
        layered
            .append(Interaction::from_raw(40, 41, t + 1))
            .unwrap();
        layered.refresh();
        assert_eq!(InfluenceOracle::num_nodes(&layered), 42);
        assert_eq!(InfluenceOracle::num_nodes(layered.base()), base_n);
        // Node 40 lives in the overlay only; its base row reads as empty.
        let reach = layered.individual(NodeId(40));
        assert!((reach - 1.0).abs() < 0.5, "Inf(40) = {reach}");
        assert_eq!(layered.influence(&[NodeId(40)]).to_bits(), reach.to_bits());
        assert_eq!(layered.individual(NodeId(41)), 0.0);
        let mut union = layered.empty_union();
        layered.absorb(&mut union, NodeId(40));
        assert_eq!(
            union.registers(),
            &layered.overlay().row(NodeId(40)).to_registers(64)[..]
        );
    }

    #[test]
    fn approx_overlay_stores_only_the_rows_the_log_touches() {
        let all = triples(60);
        let base_net = InteractionNetwork::from_triples(all.iter().copied());
        let layered =
            LayeredApproxOracle::from_network_with_precision(&base_net, Window(6), PRECISION);
        let overlay = layered.overlay();
        let n = InfluenceOracle::num_nodes(overlay);
        let sources: Vec<usize> = layered
            .delta()
            .log()
            .iter()
            .map(|i| i.src.index())
            .collect();
        let mut pairs = 0;
        for u in 0..n {
            let row = overlay.row(NodeId::from_index(u));
            if !sources.contains(&u) {
                assert!(row.is_empty(), "node {u} sends nothing in the log");
            }
            pairs += row.len();
        }
        // 4 B offset and 8 B estimate per node, 3 B per stored pair, plus
        // the header and alignment gaps; the dense layout cost n · β.
        let len = overlay.image().len();
        assert!(len <= 12 * n + 3 * pairs + 5 * 64, "overlay image {len} B");
        assert!(pairs < n * (1 << PRECISION));
    }

    #[test]
    fn approx_compaction_expires_interactions_outside_window() {
        let all = triples(30);
        let w = Window(10);
        let base_net = InteractionNetwork::from_triples(all[..20].iter().copied());
        let mut layered = LayeredApproxOracle::from_network_with_precision(&base_net, w, PRECISION);
        for i in interactions(&all[20..]) {
            layered.append(i).unwrap();
        }
        layered.append(Interaction::from_raw(3, 7, 1_000)).unwrap();
        layered.compact();
        assert_eq!(layered.generation(), 1);
        assert!(!layered.is_stale());
        assert_eq!(layered.delta().tail().len(), 1);
        assert!(layered.delta().pending().is_empty());
        // Only the 3 → 7 channel survives, in the new base.
        assert_eq!(layered.base().row(NodeId(3)).len(), 1);
        let reach = layered.individual(NodeId(3));
        assert!((reach - 1.0).abs() < 0.5, "Inf(3) = {reach}");
        for u in 0..InfluenceOracle::num_nodes(&layered) {
            if u != 3 {
                assert_eq!(layered.individual(NodeId::from_index(u)), 0.0, "node {u}");
            }
        }
        assert_eq!(InfluenceOracle::num_nodes(&layered), 13);
    }

    #[test]
    fn approx_absorb_folds_both_layers() {
        let all = tied_triples(60);
        let w = Window(9);
        let base_net = InteractionNetwork::from_triples(all[..35].iter().copied());
        let mut layered = LayeredApproxOracle::from_network_with_precision(&base_net, w, PRECISION);
        for i in interactions(&all[35..]) {
            layered.append(i).unwrap();
        }
        layered.refresh();
        let seeds = [NodeId(0), NodeId(5), NodeId(9)];
        let mut union = layered.empty_union();
        let mut dense = vec![0u8; 1 << PRECISION];
        for &s in &seeds {
            layered.absorb(&mut union, s);
            layered.base().row(s).max_into(&mut dense);
            layered.overlay().row(s).max_into(&mut dense);
        }
        assert_eq!(union.registers(), &dense[..]);
        assert_eq!(
            layered.union_size(&union).to_bits(),
            layered.influence(&seeds).to_bits()
        );
        assert_eq!(layered.marginal_gain(&union, NodeId(5)), 0.0);
    }

    #[test]
    fn approx_reset_union_handles_a_foreign_precision() {
        let net = InteractionNetwork::from_triples(triples(30));
        let layered = LayeredApproxOracle::from_network_with_precision(&net, Window(10), PRECISION);
        let mut union = layered.empty_union();
        layered.absorb(&mut union, NodeId(0));
        assert!(!union.is_empty());
        layered.reset_union(&mut union);
        assert_eq!(union, HyperLogLog::new(PRECISION));
        let mut foreign = HyperLogLog::new(PRECISION + 2);
        foreign.add_u64(1);
        layered.reset_union(&mut foreign);
        assert_eq!(foreign, HyperLogLog::new(PRECISION));
    }

    #[test]
    fn approx_heap_bytes_count_both_layers() {
        let all = triples(40);
        let base_net = InteractionNetwork::from_triples(all[..25].iter().copied());
        let mut layered =
            LayeredApproxOracle::from_network_with_precision(&base_net, Window(10), PRECISION);
        for i in interactions(&all[25..]) {
            layered.append(i).unwrap();
        }
        layered.refresh();
        let n = InfluenceOracle::num_nodes(&layered);
        let floor = layered.base().image().len()
            + layered.overlay().image().len()
            + n * std::mem::size_of::<f64>();
        assert!(layered.heap_bytes() >= floor);
    }

    #[test]
    fn approx_from_parts_rebuilds_the_same_overlay() {
        let all = tied_triples(50);
        let w = Window(7);
        let base_net = InteractionNetwork::from_triples(all[..30].iter().copied());
        let mut layered = LayeredApproxOracle::from_network_with_precision(&base_net, w, PRECISION);
        for i in interactions(&all[30..]) {
            layered.append(i).unwrap();
        }
        layered.refresh();
        let rebuilt = LayeredApproxOracle::from_parts(
            layered.base().clone(),
            w,
            layered.delta().base_frontier(),
            layered.delta().tail().to_vec(),
            layered.delta().pending().to_vec(),
            layered.generation(),
        );
        assert_eq!(rebuilt.overlay().image(), layered.overlay().image());
        assert_eq!(rebuilt.precision(), PRECISION);
        assert_eq!(rebuilt.window(), w);
        for u in 0..InfluenceOracle::num_nodes(&layered) {
            let u = NodeId::from_index(u);
            assert_eq!(
                rebuilt.individual(u).to_bits(),
                layered.individual(u).to_bits()
            );
        }
    }

    #[test]
    fn approx_delta_overlay_metrics_flow() {
        use crate::obs::MetricsRecorder;
        let all = triples(40);
        let base_net = InteractionNetwork::from_triples(all[..25].iter().copied());
        let rec = MetricsRecorder::new();
        let mut layered =
            LayeredApproxOracle::from_network_with_precision(&base_net, Window(10), PRECISION);
        layered
            .append_batch_recorded(&interactions(&all[25..]), &rec)
            .unwrap();
        layered.refresh_recorded(&rec);
        layered.compact_traced(&rec, NoopTracer);
        let snapshot = rec.snapshot().to_json();
        for key in [
            "delta.appends",
            "delta.refreshes",
            "delta.append_batch",
            "delta.pending_interactions",
            "compaction.runs",
            "compaction.generation",
            "compaction.run",
        ] {
            assert!(snapshot.contains(key), "missing {key}: {snapshot}");
        }
    }
}

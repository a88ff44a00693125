//! The one reverse-pass IRS engine, generic over the summary backend.
//!
//! Both of the paper's algorithms — exact (Algorithm 2) and versioned-HLL
//! (Algorithm 3) — are the *same* driver: scan the interactions in reverse
//! chronological order and, for each `(u, v, t)`, perform `Add(φ(u), (v, t))`
//! followed by a window-filtered `Merge(φ(u), φ(v), t, ω)`. Only the summary
//! representation differs. This module captures that split:
//!
//! * [`SummaryStore`] — the per-interaction contract (`add`, `merge`,
//!   node-universe growth, and a snapshot facility for timestamp ties);
//! * [`ExactStore`] — dense sorted-vec summaries `φ(u) = {v → λ}`
//!   (Algorithm 2);
//! * [`VhllStore`] — versioned-HLL sketches (Algorithm 3);
//! * [`ReversePassEngine`] — the single driver owning the reverse scan, the
//!   two-phase equal-timestamp batch semantics, and the streaming
//!   frontier/[`OutOfOrder`] contract.
//!
//! [`ExactIrs::compute`](crate::ExactIrs::compute),
//! [`ApproxIrs::compute`](crate::ApproxIrs::compute),
//! [`ExactIrsStream`](crate::ExactIrsStream) and
//! [`ApproxIrsStream`](crate::ApproxIrsStream) are thin wrappers over this
//! engine; a future sharded or parallel store drops in without touching any
//! of those callers.
//!
//! # Timestamp ties
//!
//! The paper assumes all-distinct timestamps (`t1 < t2 < …`). The engine
//! also accepts ties and keeps the channel semantics strict: interactions
//! sharing a timestamp are processed as a **two-phase batch** in which every
//! merge reads the summaries *as they were before the batch*, so a channel
//! can never chain two hops with equal timestamps. With distinct timestamps
//! every batch has size one and the engine follows the paper verbatim.

use crate::obs::{metric_u64, Counter, HeapBytes, Hist, NoopRecorder, Recorder, Span};
use crate::trace::{NoopTracer, SpanId, TraceEvent, TraceId, Tracer};
use infprop_hll::{MergeObserver, VersionEntry, VersionedHll};
use infprop_temporal_graph::{Interaction, InteractionNetwork, NodeId, Timestamp, Window};
use std::fmt;

/// Error returned when the reverse-order streaming contract is violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfOrder {
    /// Timestamp of the rejected interaction.
    pub got: Timestamp,
    /// The stream frontier (smallest timestamp accepted so far).
    pub frontier: Timestamp,
}

impl fmt::Display for OutOfOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "interaction at {} arrived after frontier {} (stream must be non-increasing in time)",
            self.got, self.frontier
        )
    }
}

impl std::error::Error for OutOfOrder {}

/// Reverse-order frontier guard shared by every streaming consumer (the
/// engine itself and 1-hop profiles like
/// [`SlidingContacts`](crate::SlidingContacts)).
#[derive(Clone, Copy, Debug, Default)]
pub struct ReverseFrontier {
    frontier: Option<Timestamp>,
}

impl ReverseFrontier {
    /// A frontier that has seen nothing yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accepts `t` if it does not exceed the frontier, then lowers the
    /// frontier to it.
    #[inline]
    // xtask-contract: alloc-free, no-panic
    pub fn accept(&mut self, t: Timestamp) -> Result<(), OutOfOrder> {
        if let Some(f) = self.frontier {
            if t > f {
                return Err(OutOfOrder {
                    got: t,
                    frontier: f,
                });
            }
        }
        self.frontier = Some(t);
        Ok(())
    }

    /// The smallest timestamp accepted so far, if any.
    #[inline]
    pub fn get(&self) -> Option<Timestamp> {
        self.frontier
    }
}

/// The per-interaction contract of the one-pass IRS algorithms: a growable
/// collection of per-node summaries supporting the paper's `Add` and `Merge`
/// operations plus the snapshot facility the two-phase tie batches need.
///
/// Implementations must uphold two semantic rules the engine relies on:
///
/// 1. `merge(u, v, t, ω)` folds into `φ(u)` exactly those entries of `φ(v)`
///    whose channel end time `tx` satisfies `tx − t + 1 ≤ ω` (Lemma 2's
///    admissibility filter), and
/// 2. `merge_snapshot` applies the same filter against a snapshot taken
///    before the current tie batch instead of the live summary.
pub trait SummaryStore {
    /// A pre-batch copy of one node's summary, read by
    /// [`merge_snapshot`](Self::merge_snapshot) when a tie batch writes a
    /// node that other batch members merge from.
    type Snapshot;

    /// Number of node slots currently allocated.
    fn num_nodes(&self) -> usize;

    /// Grows the node universe so every id below `n` is addressable.
    fn ensure_nodes(&mut self, n: usize);

    /// Empties every node's summary, keeping the node slots and their
    /// memory, so one store can serve pass after pass (the layered
    /// oracle's overlay and compaction rebuilds) without reallocating.
    fn clear(&mut self);

    /// A store with this one's backend parameters (sketch precision,
    /// recorder) and no node slots — what a copy of a long-lived store
    /// starts from instead of duplicating its summaries.
    fn empty_like(&self) -> Self
    where
        Self: Sized;

    /// `Add(φ(u), (v, t))`: record the direct channel `u → v` ending at `t`.
    fn add(&mut self, u: NodeId, v: NodeId, t: Timestamp);

    /// `Merge(φ(u), φ(v), t, ω)`: inherit `v`'s reachable set, filtered to
    /// channels that still fit in the window when extended back to time `t`.
    /// Callers guarantee `u ≠ v`.
    fn merge(&mut self, u: NodeId, v: NodeId, t: Timestamp, window: Window);

    /// Clones `φ(d)` as it stands (called before a tie batch first writes).
    fn snapshot(&self, d: NodeId) -> Self::Snapshot;

    /// [`merge`](Self::merge), reading from a pre-batch snapshot of the
    /// destination's summary instead of the live one.
    fn merge_snapshot(&mut self, u: NodeId, snap: &Self::Snapshot, t: Timestamp, window: Window);

    /// Validates one node's summary against the structural invariants of
    /// [`crate::invariants`], with an optional stream-frontier lower bound
    /// on recorded end times.
    ///
    /// The default accepts everything, so custom backends opt in; the two
    /// built-in backends override it (self-exclusion and end-time bounds for
    /// [`ExactStore`], dominance chains for [`VhllStore`]). The engine calls
    /// it at tie-batch boundaries in debug builds.
    fn validate_node(
        &self,
        _u: NodeId,
        _frontier: Option<Timestamp>,
    ) -> Result<(), crate::invariants::InvariantViolation> {
        Ok(())
    }

    /// Validates every node's summary via
    /// [`validate_node`](Self::validate_node). Public entry point of the
    /// verification layer (also reachable as
    /// [`crate::invariants::validate`]).
    fn validate(
        &self,
        frontier: Option<Timestamp>,
    ) -> Result<(), crate::invariants::InvariantViolation> {
        for i in 0..self.num_nodes() {
            self.validate_node(NodeId::from_index(i), frontier)?;
        }
        Ok(())
    }
}

/// Disjoint mutable + shared borrows of two distinct slots of a slice — the
/// split-borrow trick that lets `Merge` read `φ(v)` while writing `φ(u)`
/// without cloning.
#[inline]
// xtask-contract: alloc-free, kernel
fn src_and_dst<T>(slots: &mut [T], u: usize, v: usize) -> (&mut T, &T) {
    debug_assert_ne!(u, v);
    if u < v {
        let (lo, hi) = slots.split_at_mut(v);
        (&mut lo[u], &hi[0])
    } else {
        let (lo, hi) = slots.split_at_mut(u);
        (&mut hi[0], &lo[v])
    }
}

/// One exact summary: the pairs `(v, λ(u, v))` sorted by strictly
/// increasing `NodeId`. Dense and cache-friendly — membership is a binary
/// search, merges are a two-pointer sweep.
pub type ExactSummary = Vec<(NodeId, Timestamp)>;

/// Exact dense summaries: `φ(u) = {v → λ(u, v)}` (paper Algorithm 2), one
/// NodeId-sorted vec per node slot plus a store-level scratch buffer so the
/// merge path allocates nothing in the steady state.
///
/// The recorder type parameter defaults to [`NoopRecorder`], so existing
/// call sites compile unchanged and pay nothing; pass a live recorder via
/// [`with_nodes_recorded`](Self::with_nodes_recorded) to see inside merges
/// (path taken, splice lengths, entries touched — the `exact.*` catalogue
/// in [`crate::obs`]).
#[derive(Clone, Debug, Default)]
pub struct ExactStore<R: Recorder = NoopRecorder> {
    summaries: Vec<ExactSummary>,
    scratch: ExactSummary,
    recorder: R,
}

/// `Add(φ(u), (v, t))` from Algorithm 2: insert or lower the end time.
/// `O(log |φ(u)|)` to locate the slot.
#[inline]
fn exact_add(summary: &mut ExactSummary, v: NodeId, t: Timestamp) {
    match summary.binary_search_by_key(&v, |&(x, _)| x) {
        Ok(i) => {
            if t < summary[i].1 {
                summary[i].1 = t;
            }
        }
        Err(i) => summary.insert(i, (v, t)),
    }
}

/// Lemma 2's admissibility filter: `tx − t + 1 ≤ ω`. Cycles back to the
/// source are skipped — a node does not influence itself (matching the
/// paper's Example 2 trace, where the admissible channel e → b → e is not
/// recorded in φ(e)).
#[inline]
// xtask-contract: alloc-free, no-panic
fn exact_admissible(x: NodeId, tx: Timestamp, u: NodeId, t: Timestamp, window: Window) -> bool {
    x != u && tx.delta(t) < window.get()
}

/// Small-side heuristic threshold: the per-entry binary-search + backward
/// splice path is taken when `|src| · factor ≤ |φ(u)|`. Instrumented via
/// `exact.merge_small_side` / `exact.splice_len` so the trade-off is
/// measurable (see the PR 3→4 hub-profile regression analysis in
/// `BENCH_core.json` notes).
const SMALL_SIDE_FACTOR: usize = 4;

/// The merge kernel both [`SummaryStore::merge`] paths share: folds the
/// admissible entries of `src` into `phi_u` with one two-pointer sweep over
/// the two sorted runs, building the result in `scratch` and swapping the
/// buffers, so the steady state moves entries without allocating.
fn exact_merge_filtered<R: Recorder>(
    phi_u: &mut ExactSummary,
    src: &[(NodeId, Timestamp)],
    u: NodeId,
    t: Timestamp,
    window: Window,
    scratch: &mut ExactSummary,
    rec: &R,
) {
    if R::ENABLED {
        rec.add(Counter::ExactMergeCalls, 1);
        rec.record(Hist::ExactMergeSrcLen, metric_u64(src.len()));
    }
    if phi_u.is_empty() {
        phi_u.extend(
            src.iter()
                .copied()
                .filter(|&(x, tx)| exact_admissible(x, tx, u, t, window)),
        );
        if R::ENABLED {
            rec.add(Counter::ExactEntriesTouched, metric_u64(phi_u.len()));
        }
        return;
    }
    // Small-side path: when the source contributes far fewer entries than
    // the accumulator holds (the hub pattern — a high-degree node absorbing
    // many small neighbour summaries), per-entry binary searches beat a full
    // rebuild: hits update a timestamp in place, and only genuinely new ids
    // pay for insertion, via one backward in-place merge.
    if src.len() * SMALL_SIDE_FACTOR <= phi_u.len() {
        if R::ENABLED {
            rec.add(Counter::ExactMergeSmallSide, 1);
        }
        scratch.clear();
        for &(x, tx) in src {
            if !exact_admissible(x, tx, u, t, window) {
                continue;
            }
            match phi_u.binary_search_by_key(&x, |&(y, _)| y) {
                Ok(i) => {
                    if tx < phi_u[i].1 {
                        phi_u[i].1 = tx;
                    }
                }
                Err(_) => scratch.push((x, tx)),
            }
        }
        if R::ENABLED {
            rec.record(Hist::ExactSpliceLen, metric_u64(scratch.len()));
        }
        if scratch.is_empty() {
            if R::ENABLED {
                rec.add(Counter::ExactEntriesTouched, metric_u64(src.len()));
            }
            return;
        }
        // `scratch` is sorted (a filtered subset of the sorted `src`) and
        // disjoint from `phi_u`: merge it in from the back in one pass.
        let old_len = phi_u.len();
        let new = scratch.len();
        phi_u.resize(old_len + new, (NodeId(0), Timestamp(0)));
        let (mut i, mut j, mut w) = (old_len, new, old_len + new);
        while j > 0 {
            if i > 0 && phi_u[i - 1].0 > scratch[j - 1].0 {
                phi_u[w - 1] = phi_u[i - 1];
                i -= 1;
            } else {
                phi_u[w - 1] = scratch[j - 1];
                j -= 1;
            }
            w -= 1;
        }
        if R::ENABLED {
            // Probes plus the tail of φ(u) the backward splice actually moved
            // (`old_len − i` old entries shifted right) plus the new entries.
            rec.add(
                Counter::ExactEntriesTouched,
                metric_u64(src.len() + (old_len - i) + new),
            );
        }
        return;
    }
    if !src
        .iter()
        .any(|&(x, tx)| exact_admissible(x, tx, u, t, window))
    {
        if R::ENABLED {
            rec.add(Counter::ExactEntriesTouched, metric_u64(src.len()));
        }
        return;
    }
    if R::ENABLED {
        rec.add(Counter::ExactMergeRebuild, 1);
    }
    scratch.clear();
    scratch.reserve(phi_u.len() + src.len());
    let mut i = 0;
    for &(x, tx) in src {
        if !exact_admissible(x, tx, u, t, window) {
            continue;
        }
        while i < phi_u.len() && phi_u[i].0 < x {
            scratch.push(phi_u[i]);
            i += 1;
        }
        if i < phi_u.len() && phi_u[i].0 == x {
            scratch.push((x, phi_u[i].1.min(tx)));
            i += 1;
        } else {
            scratch.push((x, tx));
        }
    }
    scratch.extend_from_slice(&phi_u[i..]);
    // The old φ(u) buffer becomes the next merge's scratch.
    std::mem::swap(phi_u, scratch);
    if R::ENABLED {
        rec.add(
            Counter::ExactEntriesTouched,
            metric_u64(src.len() + phi_u.len()),
        );
    }
}

impl ExactStore {
    /// An empty store with `n` pre-allocated node slots.
    pub fn with_nodes(n: usize) -> Self {
        Self::with_nodes_recorded(n, NoopRecorder)
    }

    /// Rebuilds a store around existing summaries (codec entry point). Each
    /// summary is sorted by `NodeId` on the way in; node ids must be unique
    /// within a summary.
    pub fn from_summaries(mut summaries: Vec<ExactSummary>) -> Self {
        for s in &mut summaries {
            s.sort_unstable_by_key(|&(v, _)| v);
        }
        ExactStore {
            summaries,
            scratch: Vec::new(),
            recorder: NoopRecorder,
        }
    }
}

impl<R: Recorder> ExactStore<R> {
    /// An empty store with `n` pre-allocated node slots whose merge kernel
    /// reports into `recorder` (typically a borrowed
    /// [`MetricsRecorder`](crate::MetricsRecorder)).
    pub fn with_nodes_recorded(n: usize, recorder: R) -> Self {
        ExactStore {
            summaries: vec![Vec::new(); n],
            scratch: Vec::new(),
            recorder,
        }
    }

    /// Consumes the store, yielding the per-node summaries (sorted by
    /// `NodeId`).
    pub fn into_summaries(self) -> Vec<ExactSummary> {
        self.summaries
    }

    /// Shared view of the per-node summaries (each sorted by `NodeId`).
    pub fn summaries(&self) -> &[ExactSummary] {
        &self.summaries
    }

    /// Freezes the store's summaries into a contiguous CSR arena
    /// ([`crate::FrozenExactOracle`]) for the read-only query phase. The
    /// store itself is untouched (freezing copies), so a streaming build
    /// can keep extending it.
    pub fn freeze(&self, window: Window) -> crate::FrozenExactOracle {
        crate::FrozenExactOracle::from_summaries(window, &self.summaries)
    }
}

impl<R: Recorder> HeapBytes for ExactStore<R> {
    fn heap_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(NodeId, Timestamp)>();
        self.summaries.capacity() * std::mem::size_of::<ExactSummary>()
            + self
                .summaries
                .iter()
                .map(|s| s.capacity() * entry)
                .sum::<usize>()
            + self.scratch.capacity() * entry
    }
}

impl<R: Recorder + Clone> SummaryStore for ExactStore<R> {
    type Snapshot = ExactSummary;

    fn num_nodes(&self) -> usize {
        self.summaries.len()
    }

    fn ensure_nodes(&mut self, n: usize) {
        if n > self.summaries.len() {
            self.summaries.resize_with(n, Vec::new);
        }
    }

    fn clear(&mut self) {
        for summary in &mut self.summaries {
            summary.clear();
        }
    }

    fn empty_like(&self) -> Self {
        Self::with_nodes_recorded(0, self.recorder.clone())
    }

    #[inline]
    fn add(&mut self, u: NodeId, v: NodeId, t: Timestamp) {
        exact_add(&mut self.summaries[u.index()], v, t);
    }

    fn merge(&mut self, u: NodeId, v: NodeId, t: Timestamp, window: Window) {
        let ExactStore {
            summaries,
            scratch,
            recorder,
        } = self;
        let (phi_u, phi_v) = src_and_dst(summaries, u.index(), v.index());
        exact_merge_filtered(phi_u, phi_v, u, t, window, scratch, recorder);
    }

    fn snapshot(&self, d: NodeId) -> Self::Snapshot {
        self.summaries[d.index()].clone()
    }

    fn merge_snapshot(&mut self, u: NodeId, snap: &Self::Snapshot, t: Timestamp, window: Window) {
        let ExactStore {
            summaries,
            scratch,
            recorder,
        } = self;
        exact_merge_filtered(
            &mut summaries[u.index()],
            snap,
            u,
            t,
            window,
            scratch,
            recorder,
        );
    }

    fn validate_node(
        &self,
        u: NodeId,
        frontier: Option<Timestamp>,
    ) -> Result<(), crate::invariants::InvariantViolation> {
        crate::invariants::validate_exact_summary(u, &self.summaries[u.index()], frontier)
    }
}

/// Versioned-HLL sketch summaries (paper Algorithm 3).
///
/// A sketch cannot filter the source node itself out of a merged cycle
/// (hashed items carry no identity), so a node on a short cycle may count
/// itself — an overcount of at most one, far below the sketch's own
/// `≈ 1.04/√β` error. The paper's Algorithm 3 has the same behaviour.
#[derive(Clone, Debug)]
pub struct VhllStore<R: Recorder = NoopRecorder> {
    precision: u8,
    sketches: Vec<VersionedHll>,
    scratch: Vec<VersionEntry>,
    recorder: R,
}

/// Adapts a [`Recorder`] to the [`MergeObserver`] callbacks the hll crate
/// exposes (the dependency points hll ← core, so the sketch crate defines
/// its own observer trait and core maps it onto the metric catalogue here).
struct RecorderMergeObserver<'a, R: Recorder>(&'a R);

impl<R: Recorder> MergeObserver for RecorderMergeObserver<'_, R> {
    const ENABLED: bool = R::ENABLED;

    #[inline]
    fn cells_visited(&mut self, n: u64) {
        self.0.add(Counter::VhllCellsVisited, n);
    }

    #[inline]
    fn cells_skipped(&mut self, n: u64) {
        self.0.add(Counter::VhllCellsSkipped, n);
    }

    #[inline]
    fn entries_scanned(&mut self, n: u64) {
        self.0.add(Counter::VhllRegisterTouches, n);
    }

    #[inline]
    fn entries_pruned(&mut self, n: u64) {
        self.0.add(Counter::VhllDominancePrunes, n);
    }

    #[inline]
    fn spills(&mut self, n: u64) {
        self.0.add(Counter::VhllSpills, n);
    }
}

/// Stable per-node sketch hash: nodes are hashed once per add via the
/// deterministic 64-bit mixer, so the same network yields the same sketches
/// in every run and on every platform.
#[inline]
fn node_hash(v: NodeId) -> u64 {
    infprop_hll::hash::hash64(u64::from(v.0))
}

impl VhllStore {
    /// An empty store with `β = 2^precision` cells per node and `n`
    /// pre-allocated node slots.
    pub fn with_nodes(precision: u8, n: usize) -> Self {
        Self::with_nodes_recorded(precision, n, NoopRecorder)
    }

    /// Rebuilds a store around existing sketches (codec entry point; all
    /// sketches must share `precision`).
    pub fn from_sketches(precision: u8, sketches: Vec<VersionedHll>) -> Self {
        debug_assert!(sketches.iter().all(|s| s.precision() == precision));
        VhllStore {
            precision,
            sketches,
            scratch: Vec::new(),
            recorder: NoopRecorder,
        }
    }
}

impl<R: Recorder> VhllStore<R> {
    /// An empty store with `β = 2^precision` cells per node and `n`
    /// pre-allocated node slots whose merge path reports into `recorder`
    /// (dominance prunes, spills, bitmap skip rate — the `vhll.*`
    /// catalogue in [`crate::obs`]).
    pub fn with_nodes_recorded(precision: u8, n: usize, recorder: R) -> Self {
        VhllStore {
            precision,
            sketches: (0..n).map(|_| VersionedHll::new(precision)).collect(),
            scratch: Vec::new(),
            recorder,
        }
    }

    /// Sketch precision `k` (β = 2^k cells per node).
    pub fn precision(&self) -> u8 {
        self.precision
    }

    /// Consumes the store, yielding the per-node sketches.
    pub fn into_sketches(self) -> Vec<VersionedHll> {
        self.sketches
    }

    /// Shared view of the per-node sketches.
    pub fn sketches(&self) -> &[VersionedHll] {
        &self.sketches
    }

    /// Freezes the store's sketches into a flat register arena with
    /// precomputed per-node estimates ([`crate::FrozenApproxOracle`]) for
    /// the read-only query phase. The store itself is untouched (freezing
    /// collapses into a copy), so a streaming build can keep extending it.
    pub fn freeze(&self) -> crate::FrozenApproxOracle {
        crate::FrozenApproxOracle::from_vhll(self.precision, &self.sketches)
    }
}

impl<R: Recorder> HeapBytes for VhllStore<R> {
    fn heap_bytes(&self) -> usize {
        self.sketches.capacity() * std::mem::size_of::<VersionedHll>()
            + self
                .sketches
                .iter()
                .map(VersionedHll::heap_bytes)
                .sum::<usize>()
            + self.scratch.capacity() * std::mem::size_of::<VersionEntry>()
    }
}

impl<R: Recorder + Clone> SummaryStore for VhllStore<R> {
    type Snapshot = VersionedHll;

    fn num_nodes(&self) -> usize {
        self.sketches.len()
    }

    fn ensure_nodes(&mut self, n: usize) {
        if n > self.sketches.len() {
            let precision = self.precision;
            self.sketches
                .resize_with(n, || VersionedHll::new(precision));
        }
    }

    /// Walks each sketch's occupancy bitmap, so clearing costs the
    /// populated cells plus `β / 64` words per node, not `β` cells.
    fn clear(&mut self) {
        for sketch in &mut self.sketches {
            sketch.clear();
        }
    }

    fn empty_like(&self) -> Self {
        Self::with_nodes_recorded(self.precision, 0, self.recorder.clone())
    }

    #[inline]
    fn add(&mut self, u: NodeId, v: NodeId, t: Timestamp) {
        let changed = self.sketches[u.index()].add_hash(node_hash(v), t.get());
        if R::ENABLED && !changed {
            self.recorder.add(Counter::VhllDominatedAdds, 1);
        }
    }

    fn merge(&mut self, u: NodeId, v: NodeId, t: Timestamp, window: Window) {
        let VhllStore {
            sketches,
            scratch,
            recorder,
            ..
        } = self;
        recorder.add(Counter::VhllMergeCalls, 1);
        let (phi_u, phi_v) = src_and_dst(sketches, u.index(), v.index());
        phi_u.merge_from_observed(
            phi_v,
            t.get(),
            window.get(),
            scratch,
            &mut RecorderMergeObserver(recorder),
        );
    }

    fn snapshot(&self, d: NodeId) -> Self::Snapshot {
        self.sketches[d.index()].clone()
    }

    fn merge_snapshot(&mut self, u: NodeId, snap: &Self::Snapshot, t: Timestamp, window: Window) {
        let VhllStore {
            sketches,
            scratch,
            recorder,
            ..
        } = self;
        recorder.add(Counter::VhllMergeCalls, 1);
        sketches[u.index()].merge_from_observed(
            snap,
            t.get(),
            window.get(),
            scratch,
            &mut RecorderMergeObserver(recorder),
        );
    }

    fn validate_node(
        &self,
        u: NodeId,
        frontier: Option<Timestamp>,
    ) -> Result<(), crate::invariants::InvariantViolation> {
        crate::invariants::validate_sketch(u, &self.sketches[u.index()], frontier)
    }
}

/// Walks a time-sorted (ascending) interaction slice **backwards**, yielding
/// each maximal equal-timestamp run — the reverse scan both `compute` paths
/// share. [`ExactIrs::compute_many`](crate::ExactIrs::compute_many) uses it
/// directly to amortize one scan across several windows.
// xtask-contract: alloc-free, kernel
pub fn for_each_tie_batch(ints: &[Interaction], mut f: impl FnMut(&[Interaction])) {
    let mut hi = ints.len();
    while hi > 0 {
        let t = ints[hi - 1].time;
        let mut lo = hi - 1;
        while lo > 0 && ints[lo - 1].time == t {
            lo -= 1;
        }
        f(&ints[lo..hi]);
        hi = lo;
    }
}

/// Debug-build invariant sweep after one tie batch: every summary the batch
/// wrote must still satisfy the structural invariants, with the batch time
/// as the stream frontier (all recorded end times sit at or above it under
/// the reverse scan). Checking only the batch's sources keeps the cost
/// proportional to the merge work just done.
#[cfg(debug_assertions)]
fn debug_validate_batch<S: SummaryStore>(store: &S, batch: &[Interaction]) {
    let frontier = batch.first().map(|e| e.time);
    for e in batch {
        if e.src != e.dst {
            let checked = store.validate_node(e.src, frontier);
            debug_assert!(
                checked.is_ok(),
                "structural invariant violated after tie batch at {:?}: {}",
                frontier,
                checked.err().map(|v| v.to_string()).unwrap_or_default(),
            );
        }
    }
}

/// Applies one equal-timestamp batch to a store (size 1 = the paper's
/// algorithm verbatim; larger = two-phase tie semantics).
pub fn apply_batch<S: SummaryStore>(store: &mut S, batch: &[Interaction], window: Window) {
    apply_batch_recorded(store, batch, window, &NoopRecorder);
}

/// [`apply_batch`] with engine-level instrumentation: counts interactions
/// and tie batches and records the batch-size distribution into `rec`
/// (store-level metrics flow through the store's own recorder).
pub fn apply_batch_recorded<S: SummaryStore, R: Recorder>(
    store: &mut S,
    batch: &[Interaction],
    window: Window,
    rec: &R,
) {
    if R::ENABLED {
        rec.add(Counter::EngineInteractions, metric_u64(batch.len()));
        rec.record(Hist::EngineTieBatchSize, metric_u64(batch.len()));
        if batch.len() > 1 {
            rec.add(Counter::EngineTieBatches, 1);
        }
    }
    if let [e] = batch {
        if e.src != e.dst {
            store.add(e.src, e.dst, e.time);
            store.merge(e.src, e.dst, e.time, window);
        }
        #[cfg(debug_assertions)]
        debug_validate_batch(store, batch);
        return;
    }
    // Phase 1: snapshot φ(d) for every destination that is also a batch
    // source — merges must read pre-batch state so equal-time hops never
    // chain. Phase 2: apply every edge, routing reads through the snapshots.
    // Batches are tiny (one per distinct timestamp), so sorted vecs beat
    // hash sets here and keep the path allocation-light.
    let mut sources: Vec<usize> = batch.iter().map(|e| e.src.index()).collect();
    sources.sort_unstable();
    sources.dedup();
    let mut dsts: Vec<usize> = batch.iter().map(|e| e.dst.index()).collect();
    dsts.sort_unstable();
    dsts.dedup();
    let snapshots: Vec<(usize, S::Snapshot)> = dsts
        .into_iter()
        .filter(|d| sources.binary_search(d).is_ok())
        .map(|d| (d, store.snapshot(NodeId::from_index(d))))
        .collect();
    for e in batch {
        if e.src == e.dst {
            continue;
        }
        store.add(e.src, e.dst, e.time);
        if let Ok(k) = snapshots.binary_search_by_key(&e.dst.index(), |&(d, _)| d) {
            store.merge_snapshot(e.src, &snapshots[k].1, e.time, window);
        } else {
            store.merge(e.src, e.dst, e.time, window);
        }
    }
    #[cfg(debug_assertions)]
    debug_validate_batch(store, batch);
}

/// The single one-pass driver behind every IRS entry point: owns the reverse
/// scan, the two-phase tie-batch semantics, and the streaming
/// frontier/[`OutOfOrder`] contract, generic over the summary backend.
///
/// Batch use ([`run`](Self::run)) consumes a materialized network in one
/// call; streaming use ([`push`](Self::push) + [`finish`](Self::finish))
/// feeds interactions one at a time in non-increasing time order, buffering
/// timestamp ties so streamed and batch results are identical — a
/// property-tested guarantee.
pub struct ReversePassEngine<S: SummaryStore, R: Recorder = NoopRecorder> {
    window: Window,
    store: S,
    frontier: ReverseFrontier,
    tie_buffer: Vec<Interaction>,
    interactions_seen: usize,
    recorder: R,
}

impl<S: SummaryStore> ReversePassEngine<S> {
    /// A streaming engine over `store`.
    ///
    /// # Panics
    ///
    /// Panics if `window < 1` (see [`Window::assert_valid`]).
    pub fn new(window: Window, store: S) -> Self {
        Self::with_recorder(window, store, NoopRecorder)
    }

    /// Runs the full reverse pass over a materialized network and returns
    /// the finished store. This is the batch entry point behind
    /// [`ExactIrs::compute`](crate::ExactIrs::compute) and
    /// [`ApproxIrs::compute`](crate::ApproxIrs::compute).
    ///
    /// # Panics
    ///
    /// Panics if `window < 1`.
    pub fn run(net: &InteractionNetwork, window: Window, store: S) -> S {
        Self::run_recorded(net, window, store, &NoopRecorder)
    }

    /// Re-entrant variant of [`run`](Self::run) over a raw time-sorted
    /// slice: the reverse pass is applied on top of whatever summaries
    /// `store` already holds, growing the node universe as needed but never
    /// shrinking it. This is the compaction/overlay entry point of the
    /// layered oracle ([`crate::DeltaOverlay`]) — a seeded store can be
    /// extended with a tail of newer interactions without materializing an
    /// [`InteractionNetwork`].
    ///
    /// # Panics
    ///
    /// Panics if `window < 1`.
    pub fn run_slice(ints: &[Interaction], window: Window, store: S) -> S {
        Self::run_slice_recorded(ints, window, store, &NoopRecorder)
    }
}

impl<S: SummaryStore, R: Recorder> ReversePassEngine<S, R> {
    /// A streaming engine over `store` whose driver-level metrics
    /// (interactions, tie batches, out-of-order rejects) report into
    /// `recorder`.
    ///
    /// # Panics
    ///
    /// Panics if `window < 1` (see [`Window::assert_valid`]).
    pub fn with_recorder(window: Window, store: S, recorder: R) -> Self {
        window.assert_valid();
        ReversePassEngine {
            window,
            store,
            frontier: ReverseFrontier::new(),
            tie_buffer: Vec::new(),
            interactions_seen: 0,
            recorder,
        }
    }

    /// [`run`](Self::run) with driver-level instrumentation: wraps the pass
    /// in the `engine.run` span and counts interactions/tie batches into
    /// `rec`. The store carries its own recorder for store-level metrics.
    ///
    /// # Panics
    ///
    /// Panics if `window < 1`.
    pub fn run_recorded(net: &InteractionNetwork, window: Window, store: S, rec: &R) -> S {
        Self::run_traced(
            net,
            window,
            store,
            rec,
            NoopTracer,
            TraceId::NONE,
            SpanId::NONE,
        )
    }

    /// [`run_recorded`](Self::run_recorded) with causal tracing: the whole
    /// reverse pass additionally becomes one `build.reverse_scan` span of
    /// `trace` under `parent` (payload: interactions scanned). With
    /// [`NoopTracer`] this monomorphizes back to the untraced pass.
    ///
    /// # Panics
    ///
    /// Panics if `window < 1`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_traced<T: Tracer>(
        net: &InteractionNetwork,
        window: Window,
        mut store: S,
        rec: &R,
        tracer: T,
        trace: TraceId,
        parent: SpanId,
    ) -> S {
        window.assert_valid();
        // The reverse scan (Lemma 1) is only sound over a time-sorted input;
        // InteractionNetwork guarantees this, so a violation here means the
        // network was corrupted after construction.
        debug_assert!(
            net.interactions()
                .windows(2)
                .all(|w| w[0].time <= w[1].time),
            "interaction network is not sorted by time"
        );
        let t0 = rec.span_start();
        let sp = tracer.begin(trace, parent, TraceEvent::BuildReverseScan);
        store.ensure_nodes(net.num_nodes());
        for_each_tie_batch(net.interactions(), |batch| {
            apply_batch_recorded(&mut store, batch, window, rec);
        });
        tracer.end(
            sp,
            TraceEvent::BuildReverseScan,
            metric_u64(net.interactions().len()),
        );
        rec.span_end(Span::EngineRun, t0);
        store
    }

    /// [`run_slice`](Self::run_slice) with driver-level instrumentation —
    /// the same `engine.run` span and interaction/tie-batch counters as
    /// [`run_recorded`](Self::run_recorded), applied over a raw ascending
    /// slice on top of a (possibly pre-seeded) store.
    ///
    /// # Panics
    ///
    /// Panics if `window < 1`.
    pub fn run_slice_recorded(ints: &[Interaction], window: Window, mut store: S, rec: &R) -> S {
        Self::run_slice_traced(
            ints,
            window,
            &mut store,
            rec,
            NoopTracer,
            TraceId::NONE,
            SpanId::NONE,
        );
        store
    }

    /// [`run_slice_recorded`](Self::run_slice_recorded) over a borrowed
    /// store, with causal tracing — the slice pass becomes one
    /// `build.reverse_scan` span of `trace` under `parent` (payload:
    /// interactions scanned). This is how a compaction's rebuild pass shows
    /// up inside its `compact.rebuild` span, and how the layered oracle
    /// reuses one store across passes.
    ///
    /// # Panics
    ///
    /// Panics if `window < 1`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_slice_traced<T: Tracer>(
        ints: &[Interaction],
        window: Window,
        store: &mut S,
        rec: &R,
        tracer: T,
        trace: TraceId,
        parent: SpanId,
    ) {
        window.assert_valid();
        debug_assert!(
            ints.windows(2).all(|w| w[0].time <= w[1].time),
            "interaction slice is not sorted by time"
        );
        let t0 = rec.span_start();
        let sp = tracer.begin(trace, parent, TraceEvent::BuildReverseScan);
        let min_nodes = ints
            .iter()
            .map(|i| i.src.index().max(i.dst.index()) + 1)
            .max()
            .unwrap_or(0);
        store.ensure_nodes(min_nodes);
        for_each_tie_batch(ints, |batch| {
            apply_batch_recorded(store, batch, window, rec);
        });
        tracer.end(sp, TraceEvent::BuildReverseScan, metric_u64(ints.len()));
        rec.span_end(Span::EngineRun, t0);
    }

    /// The window ω this engine filters merges with.
    #[inline]
    pub fn window(&self) -> Window {
        self.window
    }

    /// Number of interactions accepted so far.
    #[inline]
    pub fn interactions_seen(&self) -> usize {
        self.interactions_seen
    }

    /// Shared view of the backend store. Buffered ties are not yet applied.
    #[inline]
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Feeds one interaction (time must be ≤ every previous time). Ties are
    /// buffered and flushed together once the time strictly drops, exactly
    /// like the batch path. Self-loops are ignored, mirroring
    /// [`InteractionNetwork`] construction.
    pub fn push(&mut self, i: Interaction) -> Result<(), OutOfOrder> {
        if let Err(e) = self.frontier.accept(i.time) {
            self.recorder.add(Counter::EngineOutOfOrderRejects, 1);
            return Err(e);
        }
        self.store
            .ensure_nodes(i.src.index().max(i.dst.index()) + 1);
        if let Some(last) = self.tie_buffer.last() {
            if last.time != i.time {
                let batch = std::mem::take(&mut self.tie_buffer);
                apply_batch_recorded(&mut self.store, &batch, self.window, &self.recorder);
            }
        }
        self.tie_buffer.push(i);
        self.interactions_seen += 1;
        Ok(())
    }

    /// Flushes any buffered ties and returns the finished store.
    pub fn finish(mut self) -> S {
        let batch = std::mem::take(&mut self.tie_buffer);
        if !batch.is_empty() {
            apply_batch_recorded(&mut self.store, &batch, self.window, &self.recorder);
        }
        self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1a() -> InteractionNetwork {
        InteractionNetwork::from_triples([
            (0, 3, 1),
            (4, 5, 2),
            (3, 4, 3),
            (4, 1, 4),
            (0, 1, 5),
            (1, 4, 6),
            (4, 2, 7),
            (1, 2, 8),
        ])
    }

    #[test]
    fn generic_run_matches_streaming_push_exact() {
        let net = figure1a();
        for w in [1i64, 3, 8] {
            let batch =
                ReversePassEngine::run(&net, Window(w), ExactStore::with_nodes(net.num_nodes()));
            let mut engine = ReversePassEngine::new(Window(w), ExactStore::with_nodes(0));
            for i in net.iter_reverse() {
                engine.push(*i).unwrap();
            }
            let streamed = engine.finish();
            assert_eq!(batch.summaries(), streamed.summaries(), "ω={w}");
        }
    }

    #[test]
    fn generic_run_matches_streaming_push_vhll() {
        let net = figure1a();
        let batch =
            ReversePassEngine::run(&net, Window(3), VhllStore::with_nodes(6, net.num_nodes()));
        let mut engine = ReversePassEngine::new(Window(3), VhllStore::with_nodes(6, 0));
        for i in net.iter_reverse() {
            engine.push(*i).unwrap();
        }
        let streamed = engine.finish();
        assert_eq!(batch.sketches(), streamed.sketches());
    }

    #[test]
    fn tie_batches_are_grouped_in_reverse() {
        let net = InteractionNetwork::from_triples([(0, 1, 1), (1, 2, 5), (2, 3, 5), (3, 4, 9)]);
        let mut seen: Vec<(usize, i64)> = Vec::new();
        for_each_tie_batch(net.interactions(), |batch| {
            seen.push((batch.len(), batch[0].time.get()));
        });
        assert_eq!(seen, vec![(1, 9), (2, 5), (1, 1)]);
    }

    #[test]
    fn out_of_order_push_is_rejected_and_recoverable() {
        let mut engine = ReversePassEngine::new(Window(5), ExactStore::with_nodes(0));
        engine.push(Interaction::from_raw(0, 1, 10)).unwrap();
        engine.push(Interaction::from_raw(1, 2, 10)).unwrap(); // tie ok
        let err = engine.push(Interaction::from_raw(2, 3, 11)).unwrap_err();
        assert_eq!(err.got, Timestamp(11));
        assert_eq!(err.frontier, Timestamp(10));
        assert!(err.to_string().contains("non-increasing"));
        engine.push(Interaction::from_raw(2, 3, 9)).unwrap();
        assert_eq!(engine.interactions_seen(), 3);
    }

    #[test]
    fn self_loops_are_ignored_in_stream() {
        let mut engine = ReversePassEngine::new(Window(5), ExactStore::with_nodes(0));
        engine.push(Interaction::from_raw(1, 2, 9)).unwrap();
        engine.push(Interaction::from_raw(0, 0, 5)).unwrap();
        let store = engine.finish();
        assert!(store.summaries()[0].is_empty());
        assert_eq!(store.summaries()[1].len(), 1);
    }

    #[test]
    fn ensure_nodes_grows_and_never_shrinks() {
        let mut store = ExactStore::with_nodes(2);
        store.ensure_nodes(5);
        assert_eq!(store.num_nodes(), 5);
        store.ensure_nodes(1);
        assert_eq!(store.num_nodes(), 5);
        let mut vs = VhllStore::with_nodes(5, 0);
        vs.ensure_nodes(3);
        assert_eq!(vs.num_nodes(), 3);
        assert_eq!(vs.precision(), 5);
    }

    #[test]
    fn run_slice_matches_run_over_full_network() {
        let net = figure1a();
        for w in [1i64, 3, 8] {
            let via_net =
                ReversePassEngine::run(&net, Window(w), ExactStore::with_nodes(net.num_nodes()));
            let via_slice = ReversePassEngine::run_slice(
                net.interactions(),
                Window(w),
                ExactStore::with_nodes(0),
            );
            assert_eq!(via_net.summaries(), via_slice.summaries(), "ω={w}");
        }
    }

    #[test]
    fn run_slice_grows_but_never_shrinks_seeded_store() {
        let net = figure1a();
        // A store pre-seeded with more slots than the slice mentions keeps
        // them; the extra slots simply stay empty.
        let store =
            ReversePassEngine::run_slice(net.interactions(), Window(3), ExactStore::with_nodes(10));
        assert_eq!(store.num_nodes(), 10);
        assert!(store.summaries()[8].is_empty());
    }

    #[test]
    #[should_panic(expected = "window must be at least 1")]
    fn zero_window_engine_panics() {
        let _ = ReversePassEngine::new(Window(0), ExactStore::with_nodes(0));
    }
}

//! Influence oracles (paper §4.1, Definition 3).
//!
//! Given precomputed per-node reachability information, an oracle answers
//! `Inf(S) = |⋃_{u∈S} σω(u)|` for arbitrary seed sets `S`, and — the hot
//! path of greedy maximization — *marginal gains* against a running union.
//!
//! Two implementations:
//!
//! * [`ExactOracle`] over [`ExactIrs`] summaries (hash-set unions), and
//! * [`ApproxOracle`] over collapsed HLL sketches (`O(β)` register unions;
//!   query time independent of set sizes, which is why Figure 4's query
//!   latency is flat across datasets).

use crate::approx::ApproxIrs;
use crate::exact::ExactIrs;
use crate::obs::{metric_f64, metric_u64, Counter, HeapBytes, Hist, Recorder, Span};
use crate::trace::{SpanId, TraceEvent, TraceId, Tracer};
use infprop_hll::HyperLogLog;
use infprop_temporal_graph::NodeId;
use std::ops::Range;

/// Appends `seeds` to `buf` sorted ascending with duplicates removed,
/// returning the `(start, end)` span of the appended run.
///
/// Every frozen union kernel is commutative and idempotent (bytewise `max`
/// on registers, insertion on bitsets), so querying with the deduplicated
/// run is answer-identical to the raw seed list — bit-identical, since the
/// merged register/bit contents are equal before any float is computed —
/// while each summary row is merged exactly once. This is the per-query
/// redundancy the batch API amortizes away.
#[inline]
pub(crate) fn push_deduped(seeds: &[NodeId], buf: &mut Vec<NodeId>) -> (usize, usize) {
    let start = buf.len();
    buf.extend_from_slice(seeds);
    buf[start..].sort_unstable();
    let mut w = start;
    for r in start..buf.len() {
        let v = buf[r];
        if w == start || buf[w - 1] != v {
            buf[w] = v;
            w += 1;
        }
    }
    buf.truncate(w);
    (start, w)
}

/// What the batch driver [`influence_batch`] needs from an oracle: the
/// per-worker scratch and the answer to one deduplicated seed set. The
/// driver owns everything else.
pub(crate) trait BatchQuery: Sync {
    /// Per-worker scratch, created once per worker and reused across its
    /// queries.
    type Scratch;

    /// Queries per unit of the fan-out: worker ranges are aligned to it, so
    /// a lane group never straddles two workers.
    const GROUP: usize = 1;

    /// Fresh scratch for one worker.
    fn scratch(&self) -> Self::Scratch;

    /// `Inf(seeds)` for one sorted, duplicate-free seed set. The answer
    /// must not depend on the scratch's prior contents.
    fn answer(&self, scratch: &mut Self::Scratch, seeds: &[NodeId]) -> f64;

    /// Answers `seed_sets[range]` into `out` with no recorder or tracer
    /// attached, one deduplicated query at a time; an oracle that answers a
    /// lane group together overrides this. Answers must equal
    /// [`answer`](Self::answer)'s bit for bit.
    fn answer_range(
        &self,
        scratch: &mut Self::Scratch,
        dedup: &mut Vec<NodeId>,
        seed_sets: &[Vec<NodeId>],
        range: Range<usize>,
        out: &mut Vec<f64>,
    ) {
        for q in range {
            dedup.clear();
            push_deduped(&seed_sets[q], dedup);
            out.push(self.answer(scratch, dedup));
        }
    }
}

/// The one batch-query driver behind every `influence_many_frozen_traced`:
/// `Inf(S_i)` for every seed set, fanned out over up to `threads` workers,
/// bit-identical to answering the sets one by one in order.
///
/// The driver owns the instrumentation. The batch is one `query.batch`
/// span, and every element gets its own trace id (consecutive from one
/// [`Tracer::alloc_traces`] reservation, in seed-set order) under a
/// `query.element` span on the answering worker's lane, a [`Tracer::lap`]
/// chain whose payload is the deduplicated seed-row count. Per query, the
/// recorder counts `kernel.merge_rows` and times `kernel.query_ns`; per
/// batch, it counts `oracle.queries` and `kernel.batch_queries`, records
/// `kernel.batch_size` and every answer in `oracle.union_size`, and times
/// the whole batch under `oracle.query_batch`. With a recorder or tracer
/// attached every query is answered on its own, so each latency and span
/// is its own; without either, the oracle's
/// [`answer_range`](BatchQuery::answer_range) runs.
pub(crate) fn influence_batch<O: BatchQuery, R: Recorder, T: Tracer>(
    oracle: &O,
    seed_sets: &[Vec<NodeId>],
    threads: usize,
    rec: &R,
    tracer: T,
) -> Vec<f64> {
    let t0 = rec.span_start();
    let base = if T::ENABLED {
        tracer.alloc_traces(metric_u64(seed_sets.len()) + 1)
    } else {
        0
    };
    let batch_span = tracer.begin(TraceId(base), SpanId::NONE, TraceEvent::QueryBatch);
    let out = crate::par::map_ranges_with_recorded(
        seed_sets.len(),
        O::GROUP,
        threads,
        || (oracle.scratch(), Vec::new(), tracer.worker()),
        |(scratch, dedup, tr), range| {
            let mut part = Vec::with_capacity(range.len());
            if !(R::ENABLED || T::ENABLED) {
                oracle.answer_range(scratch, dedup, seed_sets, range, &mut part);
                return part;
            }
            tr.mark(TraceEvent::QueryElement);
            for q in range {
                let tq = rec.span_start();
                dedup.clear();
                push_deduped(&seed_sets[q], dedup);
                part.push(oracle.answer(scratch, dedup));
                tr.lap(
                    TraceId(base + 1 + metric_u64(q)),
                    batch_span,
                    TraceEvent::QueryElement,
                    metric_u64(dedup.len()),
                );
                if R::ENABLED {
                    rec.add(Counter::KernelMergeRows, metric_u64(dedup.len()));
                    if let Some(ns) = tq.elapsed_ns() {
                        rec.record(Hist::KernelQueryNs, ns);
                    }
                }
            }
            part
        },
        rec,
    );
    tracer.end(
        batch_span,
        TraceEvent::QueryBatch,
        metric_u64(seed_sets.len()),
    );
    if R::ENABLED {
        rec.add(Counter::OracleQueries, metric_u64(out.len()));
        rec.add(Counter::KernelBatchQueries, metric_u64(out.len()));
        rec.record(Hist::KernelBatchSize, metric_u64(out.len()));
        for &v in &out {
            rec.record(Hist::OracleUnionSize, metric_f64(v));
        }
    }
    rec.span_end(Span::OracleQueryBatch, t0);
    out
}

/// A queryable influence oracle with an incremental union accumulator.
///
/// The accumulator type [`Union`](InfluenceOracle::Union) lets greedy
/// selection grow a covered set one seed at a time and probe marginal gains
/// without re-unioning from scratch.
pub trait InfluenceOracle {
    /// Running union of reachability sets (hash set or HLL sketch).
    type Union: Clone;

    /// Number of nodes in the underlying network.
    fn num_nodes(&self) -> usize;

    /// An empty accumulator.
    fn empty_union(&self) -> Self::Union;

    /// Estimated/exact cardinality of the accumulator.
    fn union_size(&self, union: &Self::Union) -> f64;

    /// Folds `σω(node)` into the accumulator.
    fn absorb(&self, union: &mut Self::Union, node: NodeId);

    /// `|union ∪ σω(node)| − |union|`, without mutating the accumulator.
    fn marginal_gain(&self, union: &Self::Union, node: NodeId) -> f64;

    /// `|σω(node)|` — the individual influence of one node.
    fn individual(&self, node: NodeId) -> f64;

    /// Resets an accumulator to empty, reusing its storage where the
    /// representation allows (bitset words, sketch registers). Semantically
    /// identical to `*union = self.empty_union()` — the default — but the
    /// override lets batch paths recycle one buffer across many queries.
    fn reset_union(&self, union: &mut Self::Union) {
        *union = self.empty_union();
    }

    /// `Inf(S) = |⋃_{u∈S} σω(u)|` for an arbitrary seed set.
    fn influence(&self, seeds: &[NodeId]) -> f64 {
        let mut u = self.empty_union();
        for &s in seeds {
            self.absorb(&mut u, s);
        }
        self.union_size(&u)
    }

    /// [`influence`](Self::influence) into a caller-provided accumulator:
    /// resets `union`, absorbs every seed, and returns the union size. The
    /// answer never depends on the accumulator's prior contents — the
    /// determinism requirement of the per-worker scratch fan-out
    /// ([`crate::par::map_indexed_with`]) that
    /// [`influence_many`](Self::influence_many) rides on.
    fn influence_into(&self, seeds: &[NodeId], union: &mut Self::Union) -> f64 {
        self.reset_union(union);
        for &s in seeds {
            self.absorb(union, s);
        }
        self.union_size(union)
    }

    /// [`individual`](Self::individual) for every node in the universe,
    /// fanned out over up to `threads` scoped workers (see [`crate::par`]).
    /// Byte-identical to the serial sweep at any thread count.
    fn individuals(&self, threads: usize) -> Vec<f64>
    where
        Self: Sync,
    {
        crate::par::map_indexed(self.num_nodes(), threads, |i| {
            self.individual(NodeId::from_index(i))
        })
    }

    /// [`influence`](Self::influence) for a batch of seed sets, fanned out
    /// over up to `threads` scoped workers. Each *worker* allocates one
    /// accumulator and reuses it across its queries via
    /// [`influence_into`](Self::influence_into) — `O(workers)` allocations
    /// per batch instead of `O(queries)`. Answers are byte-identical to
    /// querying serially, in input order, at any thread count.
    fn influence_many(&self, seed_sets: &[Vec<NodeId>], threads: usize) -> Vec<f64>
    where
        Self: Sync,
    {
        crate::par::map_indexed_with(
            seed_sets.len(),
            threads,
            || self.empty_union(),
            |union, i| self.influence_into(&seed_sets[i], union),
        )
    }

    /// [`influence`](Self::influence) with instrumentation: bumps
    /// `oracle.queries` and records the answered union size into the
    /// `oracle.union_size` histogram of `rec`. The answer is identical to
    /// the unrecorded path.
    fn influence_recorded<R: Recorder>(&self, seeds: &[NodeId], rec: &R) -> f64 {
        let v = self.influence(seeds);
        if R::ENABLED {
            rec.add(Counter::OracleQueries, 1);
            rec.record(Hist::OracleUnionSize, metric_f64(v));
        }
        v
    }

    /// [`individuals`](Self::individuals) wrapped in the `oracle.sweep`
    /// span, with per-thread chunk timings flowing through the recorded
    /// [`crate::par`] fan-out. Output is byte-identical to the unrecorded
    /// sweep at any thread count.
    fn individuals_recorded<R: Recorder>(&self, threads: usize, rec: &R) -> Vec<f64>
    where
        Self: Sync,
    {
        let t0 = rec.span_start();
        let out = crate::par::map_indexed_recorded(
            self.num_nodes(),
            threads,
            |i| self.individual(NodeId::from_index(i)),
            rec,
        );
        if R::ENABLED {
            rec.add(Counter::OracleQueries, metric_u64(out.len()));
        }
        rec.span_end(Span::OracleSweep, t0);
        out
    }

    /// [`influence_many`](Self::influence_many) wrapped in the
    /// `oracle.query_batch` span, counting one `oracle.queries` per seed set
    /// and recording every answered union size. Answers are byte-identical
    /// to the unrecorded path at any thread count.
    fn influence_many_recorded<R: Recorder>(
        &self,
        seed_sets: &[Vec<NodeId>],
        threads: usize,
        rec: &R,
    ) -> Vec<f64>
    where
        Self: Sync,
    {
        let t0 = rec.span_start();
        let out = crate::par::map_indexed_with_recorded(
            seed_sets.len(),
            threads,
            || self.empty_union(),
            |union, i| self.influence_into(&seed_sets[i], union),
            rec,
        );
        if R::ENABLED {
            rec.add(Counter::OracleQueries, metric_u64(out.len()));
            for &v in &out {
                rec.record(Hist::OracleUnionSize, metric_f64(v));
            }
        }
        rec.span_end(Span::OracleQueryBatch, t0);
        out
    }
}

/// Dense bitset accumulator for [`ExactOracle`] unions: one bit per node
/// plus a running popcount, so `absorb` and `marginal_gain` stream through
/// machine words instead of hash buckets.
#[derive(Clone, Debug, Default)]
pub struct NodeBitset {
    words: Vec<u64>,
    count: usize,
}

impl NodeBitset {
    /// An all-clear bitset covering `n` nodes.
    pub fn with_nodes(n: usize) -> Self {
        NodeBitset {
            words: vec![0; n.div_ceil(64)],
            count: 0,
        }
    }

    /// Clears every bit in place, keeping the allocated words — the cheap
    /// reset the per-worker scratch path relies on.
    #[inline]
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.count = 0;
    }

    /// Marks node index `i` covered (crate-visible for the frozen arena).
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) {
        let (w, mask) = (i / 64, 1u64 << (i % 64));
        if w >= self.words.len() {
            // Unions are preallocated by `with_nodes` for the node
            // universe, so this growth path is unreachable for valid ids.
            // xtask-allow: contract-alloc-free, contract-kernel (unreachable growth)
            self.words.resize(w + 1, 0);
        }
        if self.words[w] & mask == 0 {
            self.words[w] |= mask;
            self.count += 1;
        }
    }

    /// Whether node index `i` is covered (crate-visible for the frozen
    /// arena).
    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Number of covered nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no node is covered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// Exact oracle: unions of the exact IRS key sets.
pub struct ExactOracle<'a> {
    irs: &'a ExactIrs,
}

impl<'a> ExactOracle<'a> {
    /// Wraps exact summaries.
    pub fn new(irs: &'a ExactIrs) -> Self {
        ExactOracle { irs }
    }
}

impl HeapBytes for ExactOracle<'_> {
    /// The bytes backing query answers — the borrowed summaries themselves
    /// (the exact oracle owns no copy; this mirrors
    /// [`ExactIrs::heap_bytes`]).
    fn heap_bytes(&self) -> usize {
        self.irs.heap_bytes()
    }
}

impl InfluenceOracle for ExactOracle<'_> {
    type Union = NodeBitset;

    fn num_nodes(&self) -> usize {
        self.irs.num_nodes()
    }

    fn empty_union(&self) -> Self::Union {
        NodeBitset::with_nodes(self.irs.num_nodes())
    }

    fn union_size(&self, union: &Self::Union) -> f64 {
        union.len() as f64
    }

    fn absorb(&self, union: &mut Self::Union, node: NodeId) {
        for &(v, _) in self.irs.summary(node) {
            union.insert(v.index());
        }
    }

    fn marginal_gain(&self, union: &Self::Union, node: NodeId) -> f64 {
        self.irs
            .summary(node)
            .iter()
            .filter(|&&(v, _)| !union.contains(v.index()))
            .count() as f64
    }

    fn individual(&self, node: NodeId) -> f64 {
        self.irs.irs_size(node) as f64
    }

    fn reset_union(&self, union: &mut Self::Union) {
        union.clear();
    }
}

/// Approximate oracle: `O(β)` unions of collapsed HLL sketches.
///
/// Collapsing the versioned sketches (dropping the version lists, keeping
/// per-cell maxima) happens once at construction; queries then cost
/// `O(|S| · β)` regardless of how many nodes the seeds reach.
pub struct ApproxOracle {
    sketches: Vec<HyperLogLog>,
    precision: u8,
}

impl ApproxOracle {
    /// Collapses an [`ApproxIrs`] into plain per-node HLLs.
    pub fn new(irs: &ApproxIrs) -> Self {
        ApproxOracle {
            sketches: irs.collapse(),
            precision: irs.precision(),
        }
    }

    /// Builds directly from collapsed sketches (all same precision).
    pub fn from_sketches(sketches: Vec<HyperLogLog>) -> Self {
        let precision = sketches
            .first()
            .map_or(crate::DEFAULT_PRECISION, HyperLogLog::precision);
        assert!(
            sketches.iter().all(|s| s.precision() == precision),
            "all sketches must share a precision"
        );
        ApproxOracle {
            sketches,
            precision,
        }
    }

    /// The per-node sketch (e.g. for serialization or inspection).
    pub fn sketch(&self, node: NodeId) -> &HyperLogLog {
        &self.sketches[node.index()]
    }

    /// Sketch precision (inherent access for codecs; the trait method
    /// [`InfluenceOracle::num_nodes`] provides the node count to callers
    /// generic over oracles).
    pub(crate) fn precision_value(&self) -> u8 {
        self.precision
    }

    /// Node count (inherent, codec-facing counterpart of the trait method).
    pub(crate) fn num_nodes_value(&self) -> usize {
        self.sketches.len()
    }

    /// Freezes the collapsed sketches into a flat register arena with
    /// precomputed per-node estimates
    /// ([`FrozenApproxOracle`](crate::FrozenApproxOracle)); answers are
    /// bit-identical to this oracle's.
    pub fn freeze(&self) -> crate::FrozenApproxOracle {
        crate::FrozenApproxOracle::from_collapsed(self.precision, &self.sketches)
    }
}

impl HeapBytes for ApproxOracle {
    /// Bytes owned by the collapsed per-node sketches (Table 4 accounting).
    fn heap_bytes(&self) -> usize {
        self.sketches.capacity() * std::mem::size_of::<HyperLogLog>()
            + self
                .sketches
                .iter()
                .map(HyperLogLog::heap_bytes)
                .sum::<usize>()
    }
}

impl InfluenceOracle for ApproxOracle {
    type Union = HyperLogLog;

    fn num_nodes(&self) -> usize {
        self.sketches.len()
    }

    fn empty_union(&self) -> Self::Union {
        HyperLogLog::new(self.precision)
    }

    fn union_size(&self, union: &Self::Union) -> f64 {
        union.estimate()
    }

    fn absorb(&self, union: &mut Self::Union, node: NodeId) {
        union.merge(&self.sketches[node.index()]);
    }

    fn marginal_gain(&self, union: &Self::Union, node: NodeId) -> f64 {
        union.estimate_union(&self.sketches[node.index()]) - union.estimate()
    }

    fn individual(&self, node: NodeId) -> f64 {
        self.sketches[node.index()].estimate()
    }

    fn reset_union(&self, union: &mut Self::Union) {
        if union.precision() == self.precision {
            union.clear();
        } else {
            *union = self.empty_union();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infprop_temporal_graph::{InteractionNetwork, Window};

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
    fn exact_oracle_matches_set_unions() {
        let net = figure1a();
        let irs = ExactIrs::compute(&net, Window(3));
        let oracle = irs.oracle();
        // From Example 2: σ3(a) = {b,c,d,e}, σ3(e) = {b,c,f}.
        assert_eq!(oracle.individual(NodeId(0)), 4.0);
        assert_eq!(oracle.individual(NodeId(4)), 3.0);
        // Union: {b,c,d,e} ∪ {b,c,f} = {b,c,d,e,f} = 5.
        assert_eq!(oracle.influence(&[NodeId(0), NodeId(4)]), 5.0);
        // Duplicate seeds change nothing.
        assert_eq!(oracle.influence(&[NodeId(0), NodeId(0), NodeId(4)]), 5.0);
    }

    #[test]
    fn exact_marginal_gain_consistent_with_absorb() {
        let net = figure1a();
        let irs = ExactIrs::compute(&net, Window(3));
        let oracle = irs.oracle();
        let mut union = oracle.empty_union();
        oracle.absorb(&mut union, NodeId(0));
        let before = oracle.union_size(&union);
        let gain = oracle.marginal_gain(&union, NodeId(4));
        oracle.absorb(&mut union, NodeId(4));
        assert_eq!(oracle.union_size(&union), before + gain);
    }

    #[test]
    fn approx_oracle_matches_exact_on_tiny_graph() {
        let net = figure1a();
        let exact = ExactIrs::compute(&net, Window(3));
        let approx = crate::ApproxIrs::compute_with_precision(&net, Window(3), 12);
        let eo = exact.oracle();
        let ao = approx.oracle();
        for u in net.node_ids() {
            // ≤ 1 slack: the sketch may count a node's own short cycle.
            assert!((eo.individual(u) - ao.individual(u)).abs() < 1.5);
        }
        let seeds = [NodeId(0), NodeId(4)];
        assert!((eo.influence(&seeds) - ao.influence(&seeds)).abs() < 1.5);
    }

    #[test]
    fn approx_marginal_gain_consistent_with_absorb() {
        let net = figure1a();
        let approx = crate::ApproxIrs::compute(&net, Window(3));
        let oracle = approx.oracle();
        let mut union = oracle.empty_union();
        oracle.absorb(&mut union, NodeId(0));
        let before = oracle.union_size(&union);
        let gain = oracle.marginal_gain(&union, NodeId(4));
        oracle.absorb(&mut union, NodeId(4));
        let after = oracle.union_size(&union);
        assert!((after - (before + gain)).abs() < 1e-9);
    }

    #[test]
    fn empty_seed_set_has_zero_influence() {
        let net = figure1a();
        let irs = ExactIrs::compute(&net, Window(3));
        assert_eq!(irs.oracle().influence(&[]), 0.0);
        let approx = crate::ApproxIrs::compute(&net, Window(3));
        assert_eq!(approx.oracle().influence(&[]), 0.0);
    }

    #[test]
    fn submodularity_spot_check_exact() {
        // Lemma 8: gain w.r.t. S ⊇ gain w.r.t. T when S ⊆ T.
        let net = figure1a();
        let irs = ExactIrs::compute(&net, Window(3));
        let oracle = irs.oracle();
        for x in net.node_ids() {
            let mut small = oracle.empty_union();
            oracle.absorb(&mut small, NodeId(0));
            let mut large = small.clone();
            oracle.absorb(&mut large, NodeId(3));
            assert!(
                oracle.marginal_gain(&small, x) + 1e-9 >= oracle.marginal_gain(&large, x),
                "submodularity violated at {x:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "share a precision")]
    fn mixed_precision_sketches_panic() {
        let _ = ApproxOracle::from_sketches(vec![HyperLogLog::new(8), HyperLogLog::new(9)]);
    }

    #[test]
    fn batch_queries_match_serial_at_any_thread_count() {
        let net = figure1a();
        let exact = ExactIrs::compute(&net, Window(3));
        let approx = crate::ApproxIrs::compute(&net, Window(3));
        let eo = exact.oracle();
        let ao = approx.oracle();
        let seed_sets: Vec<Vec<NodeId>> = vec![
            vec![NodeId(0)],
            vec![NodeId(0), NodeId(4)],
            vec![],
            vec![NodeId(3), NodeId(1), NodeId(5)],
        ];
        let serial_inf: Vec<f64> = seed_sets.iter().map(|s| eo.influence(s)).collect();
        let serial_ind: Vec<f64> = (0..eo.num_nodes())
            .map(|i| eo.individual(NodeId::from_index(i)))
            .collect();
        let a_serial_inf: Vec<f64> = seed_sets.iter().map(|s| ao.influence(s)).collect();
        for threads in [1, 2, 8] {
            assert_eq!(eo.influence_many(&seed_sets, threads), serial_inf);
            assert_eq!(eo.individuals(threads), serial_ind);
            assert_eq!(ao.influence_many(&seed_sets, threads), a_serial_inf);
        }
    }

    #[test]
    fn influence_into_is_history_free() {
        let net = figure1a();
        let exact = ExactIrs::compute(&net, Window(3));
        let approx = crate::ApproxIrs::compute(&net, Window(3));
        let eo = exact.oracle();
        let ao = approx.oracle();
        let sets: Vec<Vec<NodeId>> = vec![
            vec![NodeId(0), NodeId(4)],
            vec![NodeId(3)],
            vec![],
            vec![NodeId(1), NodeId(5)],
        ];
        // One dirty accumulator reused across queries must answer exactly
        // like a fresh accumulator per query.
        let mut eu = eo.empty_union();
        let mut au = ao.empty_union();
        for s in &sets {
            assert_eq!(
                eo.influence_into(s, &mut eu).to_bits(),
                eo.influence(s).to_bits()
            );
            assert_eq!(
                ao.influence_into(s, &mut au).to_bits(),
                ao.influence(s).to_bits()
            );
        }
    }

    #[test]
    fn node_bitset_counts_distinct_insertions() {
        let mut b = NodeBitset::with_nodes(10);
        assert!(b.is_empty());
        b.insert(3);
        b.insert(3);
        b.insert(200); // growth past the preallocated words
        assert_eq!(b.len(), 2);
        assert!(b.contains(3) && b.contains(200));
        assert!(!b.contains(4) && !b.contains(1000));
        b.clear();
        assert!(b.is_empty() && !b.contains(3) && !b.contains(200));
    }
}

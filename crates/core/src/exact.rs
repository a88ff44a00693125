//! The exact one-pass IRS algorithm (paper Algorithm 2).
//!
//! The reverse scan, tie batching and `Add`/`Merge` mechanics live in the
//! shared [`engine`](crate::engine) module; this type is the public face of
//! running that engine with an [`ExactStore`] backend and querying the
//! resulting summaries.

use crate::engine::{self, ExactStore, ExactSummary, ReversePassEngine};
use crate::obs::{metric_u64, Gauge, HeapBytes, Recorder};
use infprop_temporal_graph::{InteractionNetwork, NodeId, Timestamp, Window};

/// Exact influence-reachability summaries `φω(u)` for every node.
///
/// `φω(u)` maps every node `v` reachable from `u` through an information
/// channel of duration ≤ ω to `λ(u, v)` — the earliest end time over all
/// such channels (paper Definition 4). The IRS itself is the key set:
/// `σω(u) = {v | (v, ·) ∈ φω(u)}`.
#[derive(Clone, Debug)]
pub struct ExactIrs {
    window: Window,
    summaries: Vec<ExactSummary>,
}

impl ExactIrs {
    /// Runs Algorithm 2: one reverse-chronological pass over the network,
    /// via [`ReversePassEngine`] with an [`ExactStore`] backend.
    ///
    /// # Timestamp ties
    ///
    /// Interactions sharing a timestamp are handled as a two-phase batch:
    /// all merges within the batch read the summaries **as they were before
    /// the batch**, so a channel can never chain two hops with equal
    /// timestamps (the paper's strict `t1 < t2 < …` requirement). With
    /// all-distinct timestamps (the paper's assumption) every batch has size
    /// one and the code follows Algorithm 2 verbatim.
    pub fn compute(net: &InteractionNetwork, window: Window) -> Self {
        let store = ReversePassEngine::run(net, window, ExactStore::with_nodes(net.num_nodes()));
        ExactIrs {
            window,
            summaries: store.into_summaries(),
        }
    }

    /// [`compute`](Self::compute) with full instrumentation: the engine and
    /// the [`ExactStore`] merge kernel report into `rec` (the `engine.*` and
    /// `exact.*` catalogues in [`crate::obs`]), and the finished store's
    /// size is published through the `store.*` gauges.
    pub fn compute_recorded<R: Recorder>(
        net: &InteractionNetwork,
        window: Window,
        rec: &R,
    ) -> Self {
        let store = ExactStore::with_nodes_recorded(net.num_nodes(), rec);
        let store = ReversePassEngine::run_recorded(net, window, store, rec);
        let irs = ExactIrs {
            window,
            summaries: store.into_summaries(),
        };
        if R::ENABLED {
            rec.gauge(Gauge::StoreHeapBytes, metric_u64(irs.heap_bytes()));
            rec.gauge(Gauge::StoreNodes, metric_u64(irs.num_nodes()));
            rec.gauge(Gauge::StoreEntries, metric_u64(irs.total_entries()));
        }
        irs
    }

    /// Computes exact summaries for several windows in **one** shared
    /// reverse pass — the experiment harness's favourite shape (Table 3
    /// needs ω ∈ {1, 10, 20}% on the same network). Results are identical
    /// to calling [`compute`](Self::compute) per window; only the scan and
    /// its cache traffic are amortized.
    pub fn compute_many(net: &InteractionNetwork, windows: &[Window]) -> Vec<ExactIrs> {
        for w in windows {
            w.assert_valid();
        }
        let n = net.num_nodes();
        let mut stores: Vec<ExactStore> =
            windows.iter().map(|_| ExactStore::with_nodes(n)).collect();
        engine::for_each_tie_batch(net.interactions(), |batch| {
            for (store, &window) in stores.iter_mut().zip(windows) {
                engine::apply_batch(store, batch, window);
            }
        });
        stores
            .into_iter()
            .zip(windows)
            .map(|(store, &window)| ExactIrs {
                window,
                summaries: store.into_summaries(),
            })
            .collect()
    }

    /// Reassembles summaries from parts (streaming builder's and the
    /// persistence codec's exit point). Each summary must be sorted by
    /// `NodeId` — [`ExactStore::into_summaries`] and the codec both
    /// guarantee this.
    pub(crate) fn from_parts(window: Window, summaries: Vec<ExactSummary>) -> Self {
        debug_assert!(summaries
            .iter()
            .all(|s| s.windows(2).all(|w| w[0].0 < w[1].0)));
        ExactIrs { window, summaries }
    }

    /// The window ω the summaries were computed for.
    #[inline]
    pub fn window(&self) -> Window {
        self.window
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.summaries.len()
    }

    /// The summary `φω(u)` as `(v, λ(u, v))` pairs sorted by `NodeId`.
    #[inline]
    pub fn summary(&self, u: NodeId) -> &[(NodeId, Timestamp)] {
        &self.summaries[u.index()]
    }

    /// `λ(u, v)`: the earliest end time of an admissible channel `u → v`.
    /// `O(log |φ(u)|)` binary search over the sorted summary.
    pub fn lambda(&self, u: NodeId, v: NodeId) -> Option<Timestamp> {
        let s = &self.summaries[u.index()];
        s.binary_search_by_key(&v, |&(x, _)| x).ok().map(|i| s[i].1)
    }

    /// `|σω(u)|` — the exact IRS size of `u`.
    #[inline]
    pub fn irs_size(&self, u: NodeId) -> usize {
        self.summaries[u.index()].len()
    }

    /// The IRS `σω(u)` as a sorted vector (deterministic order for tests
    /// and output). Summaries are already `NodeId`-sorted, so this is a
    /// straight projection.
    pub fn irs_sorted(&self, u: NodeId) -> Vec<NodeId> {
        self.summaries[u.index()].iter().map(|&(v, _)| v).collect()
    }

    /// Does `u` have an admissible channel to `v`?
    pub fn reaches(&self, u: NodeId, v: NodeId) -> bool {
        self.summaries[u.index()]
            .binary_search_by_key(&v, |&(x, _)| x)
            .is_ok()
    }

    /// Total number of `(v, λ)` entries across all summaries — the paper's
    /// `O(n²)` worst-case memory driver.
    pub fn total_entries(&self) -> usize {
        self.summaries.iter().map(Vec::len).sum()
    }

    /// Approximate heap bytes held by the summaries (Table 4 accounting).
    pub fn heap_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(NodeId, Timestamp)>();
        self.summaries.len() * std::mem::size_of::<ExactSummary>()
            + self
                .summaries
                .iter()
                .map(|s| s.capacity() * entry)
                .sum::<usize>()
    }

    /// Wraps the summaries in an exact [`InfluenceOracle`].
    ///
    /// [`InfluenceOracle`]: crate::InfluenceOracle
    pub fn oracle(&self) -> crate::ExactOracle<'_> {
        crate::ExactOracle::new(self)
    }

    /// Freezes the summaries into a contiguous CSR arena
    /// ([`FrozenExactOracle`](crate::FrozenExactOracle)) — the read-only
    /// layout the query path prefers. Answers are bit-identical to
    /// [`oracle`](Self::oracle).
    pub fn freeze(&self) -> crate::FrozenExactOracle {
        crate::FrozenExactOracle::from_summaries(self.window, &self.summaries)
    }

    /// [`freeze`](Self::freeze), publishing the arena size to the
    /// `frozen.bytes` gauge of `rec`.
    pub fn freeze_recorded<R: crate::Recorder>(&self, rec: &R) -> crate::FrozenExactOracle {
        let frozen = self.freeze();
        crate::frozen::record_frozen_bytes(&frozen, rec);
        frozen
    }

    /// Freezes the summaries into the base arena of a
    /// [`LayeredExactOracle`](crate::LayeredExactOracle), exporting the
    /// window tail of `net` (the suffix still inside `ω` of the last
    /// interaction) as the delta seed so forward appends can combine with
    /// frozen history. `net` must be the network this IRS was computed
    /// from.
    pub fn layered(&self, net: &InteractionNetwork) -> crate::LayeredExactOracle {
        crate::Layered::from_base(self.freeze(), net, self.window)
    }

    /// Checks the structural invariants of every summary (no self-entries,
    /// end times inside the interaction range) — the on-demand entry point
    /// of the [`invariants`](crate::invariants) verification layer.
    pub fn validate(&self) -> Result<(), crate::InvariantViolation> {
        crate::invariants::validate_exact_summaries(&self.summaries, None)
    }
}

impl HeapBytes for ExactIrs {
    fn heap_bytes(&self) -> usize {
        ExactIrs::heap_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 1a (a..f = 0..5): the running example of the paper.
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

    /// Figure 2 (a..f = 0..5).
    fn figure2() -> InteractionNetwork {
        InteractionNetwork::from_triples([
            (0, 1, 1), // a -> b @ 1
            (0, 3, 2), // a -> d @ 2
            (3, 2, 3), // d -> c @ 3
            (2, 4, 3), // c -> e @ 3
            (1, 2, 4), // b -> c @ 4
            (2, 5, 5), // c -> f @ 5
            (4, 2, 6), // e -> c @ 6
            (2, 5, 8), // c -> f @ 8
        ])
    }

    fn entries(irs: &ExactIrs, u: u32) -> Vec<(u32, i64)> {
        irs.summary(NodeId(u))
            .iter()
            .map(|&(n, t)| (n.0, t.0))
            .collect()
    }

    /// Example 2 of the paper: the final summaries for Figure 1a at ω = 3.
    #[test]
    fn paper_example_2_final_summaries() {
        let irs = ExactIrs::compute(&figure1a(), Window(3));
        // a: {(b,5), (c,7), (e,3)... } final row: a = (b,5),(c,7),(e,3),(d,1)
        assert_eq!(entries(&irs, 0), vec![(1, 5), (2, 7), (3, 1), (4, 3)]);
        // b = (c,7),(e,6)
        assert_eq!(entries(&irs, 1), vec![(2, 7), (4, 6)]);
        // c = {}
        assert_eq!(entries(&irs, 2), vec![]);
        // d = (e,3),(b,4)
        assert_eq!(entries(&irs, 3), vec![(1, 4), (4, 3)]);
        // e = (c,7),(b,4),(f,2)
        assert_eq!(entries(&irs, 4), vec![(1, 4), (2, 7), (5, 2)]);
        // f = {}
        assert_eq!(entries(&irs, 5), vec![]);
    }

    /// Example 1 of the paper, on our Figure 2 reconstruction: φ3(a)
    /// contains b, c, d; φ3(c) = {(e,3), (f,5)}; and λ(c,f) = 5 — the
    /// earlier-ending of the two information channels c → f (the other
    /// ends at 8).
    #[test]
    fn paper_example_1_summaries() {
        let irs = ExactIrs::compute(&figure2(), Window(3));
        // a → b direct @1; a → d direct @2; a → c via (a,d,2),(d,c,3).
        assert_eq!(entries(&irs, 0), vec![(1, 1), (2, 3), (3, 2)]);
        assert_eq!(entries(&irs, 2), vec![(4, 3), (5, 5)]);
        assert_eq!(irs.lambda(NodeId(2), NodeId(5)), Some(Timestamp(5)));
    }

    /// Figure 2 discussion: σ3(a) = {b, c, d} and σ5(a) = {b, c, d, f}.
    #[test]
    fn paper_figure2_window_sensitivity() {
        let irs3 = ExactIrs::compute(&figure2(), Window(3));
        assert_eq!(
            irs3.irs_sorted(NodeId(0)),
            vec![NodeId(1), NodeId(2), NodeId(3)]
        );
        let irs5 = ExactIrs::compute(&figure2(), Window(5));
        assert_eq!(
            irs5.irs_sorted(NodeId(0)),
            vec![NodeId(1), NodeId(2), NodeId(3), NodeId(5)]
        );
    }

    /// Figure 1a intro claim: there is a channel a → e but none a → f.
    #[test]
    fn paper_intro_reachability_claim() {
        let irs = ExactIrs::compute(&figure1a(), Window::unbounded());
        assert!(irs.reaches(NodeId(0), NodeId(4)));
        assert!(!irs.reaches(NodeId(0), NodeId(5)));
    }

    #[test]
    fn unit_window_is_direct_neighbours() {
        let irs = ExactIrs::compute(&figure1a(), Window(1));
        // Only single interactions qualify (duration exactly 1).
        assert_eq!(entries(&irs, 0), vec![(1, 5), (3, 1)]);
        assert_eq!(entries(&irs, 4), vec![(1, 4), (2, 7), (5, 2)]);
    }

    #[test]
    fn growing_window_is_monotone() {
        let net = figure2();
        let mut prev = 0usize;
        for w in 1..=10 {
            let irs = ExactIrs::compute(&net, Window(w));
            let total = irs.total_entries();
            assert!(total >= prev, "ω={w}: {total} < {prev}");
            prev = total;
        }
    }

    #[test]
    fn ties_never_chain() {
        // u -> v and v -> w at the same timestamp: no channel u -> w.
        let net = InteractionNetwork::from_triples([(0, 1, 5), (1, 2, 5)]);
        let irs = ExactIrs::compute(&net, Window(10));
        assert!(irs.reaches(NodeId(0), NodeId(1)));
        assert!(irs.reaches(NodeId(1), NodeId(2)));
        assert!(!irs.reaches(NodeId(0), NodeId(2)));
    }

    #[test]
    fn ties_with_later_hop_still_chain() {
        // Equal-time edges exist, but the u->v @5, v->w @6 path must chain.
        let net = InteractionNetwork::from_triples([(0, 1, 5), (3, 4, 5), (1, 2, 6)]);
        let irs = ExactIrs::compute(&net, Window(10));
        assert!(irs.reaches(NodeId(0), NodeId(2)));
    }

    #[test]
    fn tie_batch_where_source_is_also_destination() {
        // Batch at t=5 contains (0->1) and (1->2): node 1 is both a source
        // and a destination. 1's pre-batch summary {3: t7} must flow to 0
        // (if within window), but 1's new entry (2,5) must not.
        let net = InteractionNetwork::from_triples([(0, 1, 5), (1, 2, 5), (1, 3, 7)]);
        let irs = ExactIrs::compute(&net, Window(10));
        assert_eq!(entries(&irs, 0), vec![(1, 5), (3, 7)]);
        assert_eq!(entries(&irs, 1), vec![(2, 5), (3, 7)]);
    }

    #[test]
    fn cycles_never_reach_self() {
        // A node does not influence itself, even through a cycle (see the
        // paper's Example 2 trace: the channel e → b → e never enters φ(e)).
        let net = InteractionNetwork::from_triples([(0, 1, 1), (1, 0, 2)]);
        let irs = ExactIrs::compute(&net, Window(5));
        assert!(!irs.reaches(NodeId(0), NodeId(0)));
        assert!(!irs.reaches(NodeId(1), NodeId(1)));
        assert!(irs.reaches(NodeId(0), NodeId(1)));
        assert!(irs.reaches(NodeId(1), NodeId(0)));
    }

    #[test]
    fn repeated_interactions_keep_earliest_end() {
        let net = InteractionNetwork::from_triples([(0, 1, 3), (0, 1, 7)]);
        let irs = ExactIrs::compute(&net, Window(5));
        assert_eq!(irs.lambda(NodeId(0), NodeId(1)), Some(Timestamp(3)));
    }

    #[test]
    fn window_filter_blocks_long_channels() {
        // Path 0 -> 1 -> 2 with times 1, 10: duration 10 needs ω ≥ 10.
        let net = InteractionNetwork::from_triples([(0, 1, 1), (1, 2, 10)]);
        assert!(!ExactIrs::compute(&net, Window(9)).reaches(NodeId(0), NodeId(2)));
        assert!(ExactIrs::compute(&net, Window(10)).reaches(NodeId(0), NodeId(2)));
    }

    #[test]
    fn empty_network_has_no_summaries() {
        let net = InteractionNetwork::from_triples(std::iter::empty());
        let irs = ExactIrs::compute(&net, Window(3));
        assert_eq!(irs.num_nodes(), 0);
        assert_eq!(irs.total_entries(), 0);
    }

    #[test]
    #[should_panic(expected = "window must be at least 1")]
    fn zero_window_panics() {
        let _ = ExactIrs::compute(&figure1a(), Window(0));
    }

    #[test]
    #[should_panic(expected = "window must be at least 1")]
    fn zero_window_panics_in_compute_many() {
        let _ = ExactIrs::compute_many(&figure1a(), &[Window(3), Window(0)]);
    }

    #[test]
    fn compute_many_matches_individual_computes() {
        let net = figure1a();
        let windows = [Window(1), Window(3), Window(8)];
        let many = ExactIrs::compute_many(&net, &windows);
        assert_eq!(many.len(), 3);
        for (irs, &w) in many.iter().zip(&windows) {
            let single = ExactIrs::compute(&net, w);
            assert_eq!(irs.window(), w);
            for u in net.node_ids() {
                assert_eq!(irs.irs_sorted(u), single.irs_sorted(u), "ω={w:?}");
                for &(v, t) in single.summary(u) {
                    assert_eq!(irs.lambda(u, v), Some(t));
                }
            }
        }
        assert!(ExactIrs::compute_many(&net, &[]).is_empty());
    }

    #[test]
    fn heap_bytes_nonzero_after_compute() {
        let irs = ExactIrs::compute(&figure1a(), Window(3));
        assert!(irs.heap_bytes() > 0);
        assert_eq!(irs.total_entries(), 11); // from Example 2's final table
    }
}

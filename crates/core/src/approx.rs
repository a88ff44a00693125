//! The approximate one-pass IRS algorithm (paper Algorithm 3).
//!
//! Identical control flow to [`ExactIrs`](crate::ExactIrs) — both run the
//! shared [`ReversePassEngine`](crate::engine::ReversePassEngine) — but each
//! node's summary is a [`VersionedHll`] instead of an exact hash map
//! (the [`VhllStore`] backend). Memory per node drops from `O(n)` worst case
//! to an expected `O(β · log²ω)` (paper Lemma 6), and set sizes come back
//! with relative error `≈ 1.04/√β`.

use crate::engine::{ReversePassEngine, VhllStore};
use crate::obs::{metric_u64, Gauge, HeapBytes, Recorder};
use infprop_hll::{HyperLogLog, VersionedHll};
use infprop_temporal_graph::{InteractionNetwork, NodeId, Window};

/// Paper default: `β = 2^9 = 512` cells — §6.2 found larger β gives only
/// modest further accuracy.
pub const DEFAULT_PRECISION: u8 = 9;

/// Approximate influence-reachability summaries: one versioned HLL per node.
///
/// # Self-cycles
///
/// Unlike [`ExactIrs`](crate::ExactIrs), a sketch cannot filter the source
/// node itself out of a merged cycle (hashed items carry no identity), so a
/// node lying on a short cycle may count itself — an overcount of at most
/// one, far below the sketch's own `≈ 1.04/√β` error. The paper's Algorithm
/// 3 has the same behaviour.
#[derive(Clone, Debug)]
pub struct ApproxIrs {
    window: Window,
    precision: u8,
    sketches: Vec<VersionedHll>,
}

impl ApproxIrs {
    /// Runs Algorithm 3 with the paper-default precision (β = 512).
    pub fn compute(net: &InteractionNetwork, window: Window) -> Self {
        Self::compute_with_precision(net, window, DEFAULT_PRECISION)
    }

    /// Runs Algorithm 3 with `β = 2^precision` cells per node, via
    /// [`ReversePassEngine`] with a [`VhllStore`] backend.
    ///
    /// Timestamp ties are handled with the same two-phase batching as the
    /// exact algorithm (see [`ExactIrs::compute`](crate::ExactIrs::compute)).
    ///
    /// # Panics
    ///
    /// Panics if `window < 1` or `precision ∉ [4, 16]`.
    pub fn compute_with_precision(net: &InteractionNetwork, window: Window, precision: u8) -> Self {
        let store = ReversePassEngine::run(
            net,
            window,
            VhllStore::with_nodes(precision, net.num_nodes()),
        );
        ApproxIrs {
            window,
            precision,
            sketches: store.into_sketches(),
        }
    }

    /// [`compute_with_precision`](Self::compute_with_precision) with full
    /// instrumentation: the engine and the [`VhllStore`] merge path report
    /// into `rec` (the `engine.*` and `vhll.*` catalogues in
    /// [`crate::obs`]), and the finished store's size is published through
    /// the `store.*` gauges.
    ///
    /// # Panics
    ///
    /// Panics if `window < 1` or `precision ∉ [4, 16]`.
    pub fn compute_with_precision_recorded<R: Recorder>(
        net: &InteractionNetwork,
        window: Window,
        precision: u8,
        rec: &R,
    ) -> Self {
        let store = VhllStore::with_nodes_recorded(precision, net.num_nodes(), rec);
        let store = ReversePassEngine::run_recorded(net, window, store, rec);
        let irs = ApproxIrs {
            window,
            precision,
            sketches: store.into_sketches(),
        };
        if R::ENABLED {
            rec.gauge(Gauge::StoreHeapBytes, metric_u64(irs.heap_bytes()));
            rec.gauge(Gauge::StoreNodes, metric_u64(irs.num_nodes()));
            rec.gauge(Gauge::StoreEntries, metric_u64(irs.total_entries()));
        }
        irs
    }

    /// Reassembles sketch state from its parts (the persistence codec's and
    /// the streaming builder's entry point; parts must be mutually
    /// consistent).
    pub(crate) fn from_parts(window: Window, precision: u8, sketches: Vec<VersionedHll>) -> Self {
        debug_assert!(sketches.iter().all(|s| s.precision() == precision));
        ApproxIrs {
            window,
            precision,
            sketches,
        }
    }

    /// The window ω the sketches were computed for.
    #[inline]
    pub fn window(&self) -> Window {
        self.window
    }

    /// Sketch precision `k` (β = 2^k cells per node).
    #[inline]
    pub fn precision(&self) -> u8 {
        self.precision
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.sketches.len()
    }

    /// The versioned sketch of `φω(u)`.
    #[inline]
    pub fn sketch(&self, u: NodeId) -> &VersionedHll {
        &self.sketches[u.index()]
    }

    /// Estimated `|σω(u)|`.
    #[inline]
    pub fn irs_size_estimate(&self, u: NodeId) -> f64 {
        self.sketches[u.index()].estimate()
    }

    /// Collapses every node's versioned sketch into a plain HLL of per-cell
    /// maxima — the representation the influence oracle unions in `O(β)`.
    pub fn collapse(&self) -> Vec<HyperLogLog> {
        self.sketches
            .iter()
            .map(VersionedHll::to_hyperloglog)
            .collect()
    }

    /// Total version pairs across all sketches.
    pub fn total_entries(&self) -> usize {
        self.sketches.iter().map(VersionedHll::total_entries).sum()
    }

    /// Heap bytes held by all sketches (Table 4 accounting): the per-node
    /// sketch headers plus what each sketch owns.
    pub fn heap_bytes(&self) -> usize {
        self.sketches.capacity() * std::mem::size_of::<VersionedHll>()
            + self
                .sketches
                .iter()
                .map(VersionedHll::heap_bytes)
                .sum::<usize>()
    }

    /// Wraps the collapsed sketches in an approximate
    /// [`InfluenceOracle`](crate::InfluenceOracle).
    pub fn oracle(&self) -> crate::ApproxOracle {
        crate::ApproxOracle::new(self)
    }

    /// Freezes the sketches into a flat register arena with precomputed
    /// per-node estimates
    /// ([`FrozenApproxOracle`](crate::FrozenApproxOracle)). The collapse is
    /// the same per-cell-maxima projection as [`oracle`](Self::oracle), so
    /// every query answer is bit-identical to the live oracle.
    pub fn freeze(&self) -> crate::FrozenApproxOracle {
        crate::FrozenApproxOracle::from_vhll(self.precision, &self.sketches)
    }

    /// [`freeze`](Self::freeze), publishing the arena size to the
    /// `frozen.bytes` gauge of `rec`.
    pub fn freeze_recorded<R: crate::Recorder>(&self, rec: &R) -> crate::FrozenApproxOracle {
        let frozen = self.freeze();
        crate::frozen::record_frozen_bytes(&frozen, rec);
        frozen
    }

    /// Freezes the sketches into the base arena of a
    /// [`LayeredApproxOracle`](crate::LayeredApproxOracle), exporting the
    /// window tail of `net` as the delta seed; see
    /// [`ExactIrs::layered`](crate::ExactIrs::layered). `net` must be the
    /// network this IRS was computed from.
    pub fn layered(&self, net: &InteractionNetwork) -> crate::LayeredApproxOracle {
        crate::Layered::from_base(self.freeze(), net, self.window)
    }

    /// Checks the dominance-chain invariant of every sketch (register lists
    /// sorted by strictly increasing time *and* ρ, with ρ in range) — the
    /// on-demand entry point of the [`invariants`](crate::invariants)
    /// verification layer.
    pub fn validate(&self) -> Result<(), crate::InvariantViolation> {
        crate::invariants::validate_sketches(&self.sketches, None)
    }
}

impl HeapBytes for ApproxIrs {
    fn heap_bytes(&self) -> usize {
        ApproxIrs::heap_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactIrs;

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

    /// On tiny inputs with high precision, HLL linear counting is exact
    /// with overwhelming probability — the estimates must match the exact
    /// IRS sizes, except that a sketch cannot filter the source itself out
    /// of a merged cycle (a ≤ 1 overcount; here node e's channel
    /// e → b → e at ω ≥ 3).
    #[test]
    fn matches_exact_on_figure1a() {
        let net = figure1a();
        for w in [1i64, 3, 8] {
            let exact = ExactIrs::compute(&net, Window(w));
            let approx = ApproxIrs::compute_with_precision(&net, Window(w), 12);
            for u in net.node_ids() {
                let est = approx.irs_size_estimate(u);
                let truth = exact.irs_size(u) as f64;
                let slack = if u == NodeId(4) && w >= 3 { 1.0 } else { 0.0 };
                assert!(
                    est >= truth - 0.5 && est <= truth + slack + 0.5,
                    "node {u:?} ω={w}: est {est} truth {truth}"
                );
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let net = figure1a();
        let a = ApproxIrs::compute(&net, Window(3));
        let b = ApproxIrs::compute(&net, Window(3));
        for u in net.node_ids() {
            assert_eq!(a.sketch(u), b.sketch(u));
        }
    }

    #[test]
    fn sketch_invariants_hold_after_compute() {
        let net = figure1a();
        let approx = ApproxIrs::compute_with_precision(&net, Window(4), 6);
        for u in net.node_ids() {
            assert!(approx.sketch(u).check_invariants().is_ok());
        }
    }

    #[test]
    fn ties_never_chain_in_sketches() {
        let net = InteractionNetwork::from_triples([(0, 1, 5), (1, 2, 5)]);
        let approx = ApproxIrs::compute_with_precision(&net, Window(10), 12);
        assert!((approx.irs_size_estimate(NodeId(0)) - 1.0).abs() < 0.5);
        assert!((approx.irs_size_estimate(NodeId(1)) - 1.0).abs() < 0.5);
    }

    #[test]
    fn larger_windows_never_shrink_estimates_much() {
        // IRS is monotone in ω; estimates may wobble within error, but on a
        // tiny graph with high precision they are exact.
        let net = figure1a();
        let w1 = ApproxIrs::compute_with_precision(&net, Window(1), 12);
        let w8 = ApproxIrs::compute_with_precision(&net, Window(8), 12);
        for u in net.node_ids() {
            assert!(w8.irs_size_estimate(u) + 1e-9 >= w1.irs_size_estimate(u));
        }
    }

    #[test]
    fn collapse_preserves_estimates() {
        let net = figure1a();
        let approx = ApproxIrs::compute(&net, Window(3));
        let collapsed = approx.collapse();
        for u in net.node_ids() {
            assert_eq!(collapsed[u.index()].estimate(), approx.irs_size_estimate(u));
        }
    }

    #[test]
    fn accuracy_improves_with_precision_on_bulk_graph() {
        // A star fan-out: node 0 sends to 1..=400 at increasing times, so
        // σω(0) for a large ω is everything.
        let net = InteractionNetwork::from_triples((1u32..=400).map(|v| (0u32, v, i64::from(v))));
        let truth = 400.0;
        let mut errs = Vec::new();
        for precision in [4u8, 7, 10] {
            let approx = ApproxIrs::compute_with_precision(&net, Window::unbounded(), precision);
            let est = approx.irs_size_estimate(NodeId(0));
            errs.push((est - truth).abs() / truth);
        }
        // Highest precision must beat lowest precision.
        assert!(
            errs[2] <= errs[0] + 1e-9,
            "errors did not improve: {errs:?}"
        );
        assert!(errs[2] < 0.10, "k=10 error too large: {}", errs[2]);
    }

    #[test]
    fn heap_accounting_and_entry_counts() {
        let net = figure1a();
        let approx = ApproxIrs::compute(&net, Window(3));
        assert!(approx.heap_bytes() > 0);
        assert!(approx.total_entries() >= 1);
        assert_eq!(approx.precision(), DEFAULT_PRECISION);
        assert_eq!(approx.num_nodes(), 6);
    }

    #[test]
    #[should_panic(expected = "window must be at least 1")]
    fn zero_window_panics() {
        let _ = ApproxIrs::compute(&figure1a(), Window(0));
    }
}

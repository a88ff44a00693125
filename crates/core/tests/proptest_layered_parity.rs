//! Layered/from-scratch parity property tests for the delta-overlay
//! architecture (`DeltaOverlay` + `LayeredExactOracle` /
//! `LayeredApproxOracle`): splitting an arbitrary tie-heavy history at a
//! random point into `frozen base + forward appends` must answer every
//! query **bit-identically** to a from-scratch build over the full
//! history, serially and at 1, 2, and 8 threads, before and after
//! LSM-style compaction — including over long append → refresh → query →
//! compact sequences on one oracle, whose every rebuild reuses one store.

use infprop_core::obs::HeapBytes;
use infprop_core::{
    ApproxIrs, ExactIrs, ExactStore, FrozenApproxOracle, FrozenExactOracle, InfluenceOracle,
    LayeredApproxOracle, LayeredExactOracle, ReversePassEngine, SummaryStore, VhllStore,
};
use infprop_temporal_graph::{Interaction, InteractionNetwork, NodeId, Timestamp, Window};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const PRECISION: u8 = 5;

/// Random networks with timestamp ties (and self-loops, which pad the
/// universe without producing summary entries).
fn networks() -> impl Strategy<Value = InteractionNetwork> {
    prop::collection::vec((0u32..16, 0u32..16, 0i64..30), 1..70)
        .prop_map(InteractionNetwork::from_triples)
}

/// Seed sets drawn over the same node-id range as the networks.
fn seed_sets() -> impl Strategy<Value = Vec<Vec<NodeId>>> {
    prop::collection::vec(
        prop::collection::vec((0u32..16).prop_map(NodeId), 0..6),
        0..12,
    )
}

/// Splits the (time-sorted) history of `net` at `split` and rebuilds it as
/// `frozen base over the prefix + appended suffix`, refreshed.
fn layered_exact_at(net: &InteractionNetwork, split: usize, w: Window) -> LayeredExactOracle {
    let ints = net.interactions();
    let base = InteractionNetwork::from_triples(
        ints[..split]
            .iter()
            .map(|i| (i.src.0, i.dst.0, i.time.get())),
    );
    let mut layered = LayeredExactOracle::from_network(&base, w);
    for &i in &ints[split..] {
        layered
            .append(i)
            .expect("suffix appends move forward in time");
    }
    layered.refresh();
    layered
}

/// The approx counterpart of [`layered_exact_at`].
fn layered_approx_at(net: &InteractionNetwork, split: usize, w: Window) -> LayeredApproxOracle {
    let ints = net.interactions();
    let base = InteractionNetwork::from_triples(
        ints[..split]
            .iter()
            .map(|i| (i.src.0, i.dst.0, i.time.get())),
    );
    let mut layered = LayeredApproxOracle::from_network_with_precision(&base, w, PRECISION);
    for &i in &ints[split..] {
        layered
            .append(i)
            .expect("suffix appends move forward in time");
    }
    layered.refresh();
    layered
}

/// Asserts bit-identical answers between a layered oracle and a reference
/// oracle across the whole query surface, serially and thread-fanned.
fn assert_query_parity<L, F>(
    layered: &L,
    reference: &F,
    seeds: &[Vec<NodeId>],
) -> Result<(), TestCaseError>
where
    L: InfluenceOracle + Sync,
    F: InfluenceOracle + Sync,
{
    let n = reference.num_nodes();
    prop_assert_eq!(layered.num_nodes(), n);
    let ind: Vec<f64> = (0..n)
        .map(|i| reference.individual(NodeId::from_index(i)))
        .collect();
    let inf: Vec<f64> = seeds.iter().map(|s| reference.influence(s)).collect();
    for (i, expected) in ind.iter().enumerate() {
        prop_assert_eq!(
            layered.individual(NodeId::from_index(i)).to_bits(),
            expected.to_bits(),
            "individual({i})"
        );
    }
    for (s, expect) in seeds.iter().zip(&inf) {
        prop_assert_eq!(layered.influence(s).to_bits(), expect.to_bits());
    }
    for threads in THREAD_COUNTS {
        prop_assert_eq!(&layered.individuals(threads), &ind);
        prop_assert_eq!(&layered.influence_many(seeds, threads), &inf);
    }
    Ok(())
}

/// Clamps generated seed sets to the network universe.
fn clamp_seeds(seeds: Vec<Vec<NodeId>>, n: usize) -> Vec<Vec<NodeId>> {
    seeds
        .into_iter()
        .map(|s| s.into_iter().filter(|v| v.index() < n).collect())
        .collect()
}

/// One step of a long maintenance run: a batch of `(src, dst, time gap)`
/// appends, then whether to hand the run over to a clone and whether to
/// compact.
type Step = (Vec<(u32, u32, i64)>, bool, bool);

/// Steps of a long maintenance run. Appended node ids reach past the base
/// networks' 16, growing the universe mid-run; each time moves 0–3 past
/// the previous one, so ties recur.
fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (
            prop::collection::vec((0u32..24, 0u32..24, 0i64..4), 0..10),
            any::<bool>(),
            any::<bool>(),
        ),
        1..10,
    )
}

/// From-scratch exact arena over `history` with `universe` node slots.
fn scratch_exact(history: &[Interaction], universe: usize, w: Window) -> FrozenExactOracle {
    ReversePassEngine::run_slice(history, w, ExactStore::with_nodes(universe)).freeze(w)
}

/// From-scratch vHLL arena over `history` with `universe` node slots.
fn scratch_approx(history: &[Interaction], universe: usize, w: Window) -> FrozenApproxOracle {
    ReversePassEngine::run_slice(history, w, VhllStore::with_nodes(PRECISION, universe)).freeze()
}

/// A refreshed exact oracle against fresh stores: its overlay equals a
/// fresh-store build of its own log, and its answers and summaries equal a
/// from-scratch arena over the history it represents.
fn check_exact(
    layered: &LayeredExactOracle,
    history: &[Interaction],
    universe: usize,
    seeds: &[Vec<NodeId>],
) -> Result<(), TestCaseError> {
    let w = layered.window();
    let overlay = scratch_exact(layered.delta().log(), universe, w);
    prop_assert_eq!(layered.overlay().offsets(), overlay.offsets());
    prop_assert_eq!(layered.overlay().entries(), overlay.entries());
    let reference = scratch_exact(history, universe, w);
    for u in 0..universe {
        let u = NodeId::from_index(u);
        prop_assert_eq!(layered.summary(u), reference.summary(u).to_vec());
    }
    assert_query_parity(layered, &reference, seeds)
}

/// The vHLL counterpart of [`check_exact`]: overlay registers against a
/// fresh-store build, merged `individuals` and answers against a
/// from-scratch arena.
fn check_approx(
    layered: &LayeredApproxOracle,
    history: &[Interaction],
    universe: usize,
    seeds: &[Vec<NodeId>],
) -> Result<(), TestCaseError> {
    let w = layered.window();
    let overlay = scratch_approx(layered.delta().log(), universe, w);
    prop_assert_eq!(layered.overlay().image(), overlay.image());
    assert_query_parity(layered, &scratch_approx(history, universe, w), seeds)
}

proptest! {
    /// A layered oracle split at a random point (including mid tie-batch)
    /// answers bit-identically to the from-scratch frozen arena, for both
    /// the exact and sketch backends, at every thread count.
    #[test]
    fn layered_matches_scratch_at_random_splits(
        net in networks(),
        seeds in seed_sets(),
        w in 1i64..40,
        split_seed in any::<usize>(),
    ) {
        let w = Window(w);
        let split = split_seed % (net.interactions().len() + 1);
        let seeds = clamp_seeds(seeds, net.num_nodes());

        let exact_ref = ExactIrs::compute(&net, w).freeze();
        let exact = layered_exact_at(&net, split, w);
        prop_assert!(!exact.is_stale());
        assert_query_parity(&exact, &exact_ref, &seeds)?;
        for u in 0..exact_ref.num_nodes() {
            let u = NodeId::from_index(u);
            prop_assert_eq!(exact.summary(u), exact_ref.summary(u).to_vec());
        }

        let approx_ref = ApproxIrs::compute_with_precision(&net, w, PRECISION).freeze();
        let approx = layered_approx_at(&net, split, w);
        assert_query_parity(&approx, &approx_ref, &seeds)?;
    }

    /// Compacting a layered oracle produces a base arena — and answers —
    /// bit-identical to a from-scratch engine run over the
    /// window-surviving suffix with the same node universe, at every
    /// split point and thread count.
    #[test]
    fn compaction_matches_scratch_over_survivors(
        net in networks(),
        seeds in seed_sets(),
        w in 1i64..40,
        split_seed in any::<usize>(),
    ) {
        let w = Window(w);
        let ints = net.interactions();
        let split = split_seed % (ints.len() + 1);
        let mut exact = layered_exact_at(&net, split, w);
        let mut approx = layered_approx_at(&net, split, w);
        let universe = exact.delta().universe();
        let seeds = clamp_seeds(seeds, universe);

        let frontier = ints.last().map(|i| i.time).unwrap_or(Timestamp(0));
        let cut = ints.partition_point(|i| frontier.delta(i.time) >= w.get());
        let surviving = &ints[cut..];

        let mut store = ExactStore::with_nodes(0);
        store.ensure_nodes(universe);
        let exact_ref = ReversePassEngine::run_slice(surviving, w, store).freeze(w);
        let mut store = VhllStore::with_nodes(PRECISION, 0);
        store.ensure_nodes(universe);
        let approx_ref = ReversePassEngine::run_slice(surviving, w, store).freeze();

        exact.compact();
        approx.compact();
        prop_assert_eq!(exact.generation(), 1);
        prop_assert_eq!(exact.base().offsets(), exact_ref.offsets());
        prop_assert_eq!(exact.base().entries(), exact_ref.entries());
        prop_assert_eq!(approx.base().image(), approx_ref.image());
        // The survivors become the next generation's tail; pending empties.
        prop_assert_eq!(exact.delta().pending().len(), 0);
        prop_assert_eq!(exact.delta().tail(), surviving);
        assert_query_parity(&exact, &exact_ref, &seeds)?;
        assert_query_parity(&approx, &approx_ref, &seeds)?;
    }

    /// Expiry correctness: every retained log entry is inside the window
    /// of the new frontier, everything expired is outside it, and appends
    /// behind the frontier are rejected with the offending timestamps.
    #[test]
    fn expiry_and_stale_append_contracts(
        net in networks(),
        w in 1i64..40,
        gap in 0i64..100,
    ) {
        let w = Window(w);
        let mut layered = LayeredExactOracle::from_network(&net, w);
        let frontier = layered.frontier().unwrap_or(Timestamp(0));

        // Backwards appends are rejected and leave the oracle untouched.
        let behind = Interaction::from_raw(0, 1, frontier.get() - 1);
        let err = layered.append(behind).unwrap_err();
        prop_assert_eq!(err.got, behind.time);
        prop_assert_eq!(err.frontier, frontier);
        prop_assert!(!layered.is_stale());

        // A forward append `gap` past the frontier, then compaction:
        // survivors are exactly the entries within `w` of the new frontier.
        let ahead = Interaction::from_raw(2, 3, frontier.get() + gap);
        layered.append(ahead).unwrap();
        let expected: Vec<Interaction> = layered
            .delta()
            .log()
            .iter()
            .copied()
            .filter(|i| ahead.time.delta(i.time) < w.get())
            .collect();
        layered.compact();
        prop_assert_eq!(layered.delta().tail(), expected.as_slice());
        prop_assert_eq!(layered.frontier(), Some(ahead.time));
        prop_assert_eq!(layered.delta().base_frontier(), Some(ahead.time));
    }

    /// One oracle per backend runs a long append → refresh → query →
    /// compact sequence, every rebuild going through the same reused store.
    /// After each refresh and each compaction both answer bit-identically
    /// to from-scratch builds of the history they represent (the whole
    /// history until the first compaction, then the survivors plus later
    /// appends). Appends reach node ids past the store's size, and runs
    /// hand over mid-stream to a clone, which carries no store until its
    /// next refresh and must then answer identically.
    #[test]
    fn reused_store_matches_scratch_through_long_runs(
        net in networks(),
        steps in steps(),
        seeds in seed_sets(),
        w in 1i64..40,
    ) {
        let w = Window(w);
        let seeds: Vec<Vec<NodeId>> = seeds
            .into_iter()
            .map(|s| s.into_iter().map(|v| NodeId(v.0 + v.0 / 2)).collect())
            .collect();
        let mut exact = LayeredExactOracle::from_network(&net, w);
        let mut approx = LayeredApproxOracle::from_network_with_precision(&net, w, PRECISION);
        let mut history = net.interactions().to_vec();
        let mut universe = net.num_nodes();
        let mut time = exact.frontier().map_or(0, |t| t.get());
        for (batch, hand_over, compact) in steps {
            for (src, dst, gap) in batch {
                time += gap;
                let i = Interaction::from_raw(src, dst, time);
                exact.append(i).expect("appends move forward in time");
                approx.append(i).expect("appends move forward in time");
                history.push(i);
                universe = universe.max(src.max(dst) as usize + 1);
            }
            let live = clamp_seeds(seeds.clone(), universe);
            if hand_over {
                let twins = (exact.clone(), approx.clone());
                // The clones own their logs and no store.
                prop_assert_eq!(twins.0.delta().heap_bytes(), size_of_val(twins.0.delta().log()));
                prop_assert_eq!(twins.1.delta().heap_bytes(), size_of_val(twins.1.delta().log()));
                exact.refresh();
                approx.refresh();
                check_exact(&exact, &history, universe, &live)?;
                check_approx(&approx, &history, universe, &live)?;
                (exact, approx) = twins;
            }
            exact.refresh();
            approx.refresh();
            check_exact(&exact, &history, universe, &live)?;
            check_approx(&approx, &history, universe, &live)?;
            if compact {
                let frontier = Timestamp(time);
                history.retain(|i| frontier.delta(i.time) < w.get());
                exact.compact();
                approx.compact();
                check_exact(&exact, &history, universe, &live)?;
                check_approx(&approx, &history, universe, &live)?;
            }
        }
    }
}

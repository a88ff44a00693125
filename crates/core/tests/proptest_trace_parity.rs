//! Traced/untraced parity property tests for the causal tracing subsystem:
//! threading a live [`RingTracer`] through the frozen batch query kernels,
//! the layered delta-overlay oracles, LSM-style compaction, and greedy seed
//! selection must not perturb a single bit of any result, at 1, 2, and 8
//! threads, on arbitrary tie-heavy networks. Tracing observes; it never
//! participates.
//!
//! A second property checks well-formedness of what tracing observes: every
//! harvested ring exports a Chrome-trace JSON document that passes the
//! crate's own structural validator (balanced per-lane begin/end stacks,
//! registry-known event names, parents that refer to begun spans).

use infprop_core::{
    greedy_top_k_threads, greedy_top_k_traced, trace_to_json, validate_trace_json, ApproxIrs,
    ExactIrs, InfluenceOracle, LayeredApproxOracle, LayeredExactOracle, NoopRecorder, NoopTracer,
    RingTracer,
};
use infprop_temporal_graph::{InteractionNetwork, NodeId, Window};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const PRECISION: u8 = 5;

/// Random networks with timestamp ties.
fn networks() -> impl Strategy<Value = InteractionNetwork> {
    prop::collection::vec((0u32..12, 0u32..12, 0i64..20), 1..60)
        .prop_map(InteractionNetwork::from_triples)
}

/// Seed sets drawn over the same node-id range as the networks.
fn seed_sets() -> impl Strategy<Value = Vec<Vec<NodeId>>> {
    prop::collection::vec(
        prop::collection::vec((0u32..12).prop_map(NodeId), 0..5),
        0..10,
    )
}

/// Clamps generated seed sets to the network universe.
fn clamp_seeds(seeds: Vec<Vec<NodeId>>, n: usize) -> Vec<Vec<NodeId>> {
    seeds
        .into_iter()
        .map(|s| s.into_iter().filter(|v| v.index() < n).collect())
        .collect()
}

/// Asserts two batch-query answer vectors are bit-identical.
fn assert_bits_eq(traced: &[f64], untraced: &[f64]) -> Result<(), TestCaseError> {
    prop_assert_eq!(traced.len(), untraced.len());
    for (t, u) in traced.iter().zip(untraced) {
        prop_assert_eq!(t.to_bits(), u.to_bits());
    }
    Ok(())
}

/// Harvests a ring and asserts the exported Chrome trace passes the
/// structural validator with at least `min_spans` matched span pairs.
fn assert_ring_well_formed(ring: &RingTracer, min_spans: usize) -> Result<(), TestCaseError> {
    let records = ring.records();
    let json = trace_to_json(&records);
    let stats = validate_trace_json(&json);
    prop_assert!(
        stats.is_ok(),
        "exported trace failed validation: {:?}",
        stats.as_ref().err()
    );
    let stats = stats.unwrap();
    prop_assert!(
        stats.spans >= min_spans,
        "expected at least {} spans, validator saw {}",
        min_spans,
        stats.spans
    );
    Ok(())
}

proptest! {
    /// Frozen batch queries answer bit-identically with a live ring tracer
    /// attached, on both backends, at every thread count — and each traced
    /// run's harvest exports a structurally valid trace with one
    /// `query.element` span per batch element.
    #[test]
    fn traced_frozen_batch_queries_match_untraced(
        net in networks(),
        seeds in seed_sets(),
        w in 1i64..25,
    ) {
        let seeds = clamp_seeds(seeds, net.num_nodes());
        let exact = ExactIrs::compute(&net, Window(w));
        let approx = ApproxIrs::compute_with_precision(&net, Window(w), PRECISION);
        let fe = exact.freeze();
        let fa = approx.freeze();

        for threads in THREAD_COUNTS {
            let e_ref = fe.influence_many(&seeds, threads);
            let a_ref = fa.influence_many(&seeds, threads);

            // NoopTracer threading is the existing call path — identical by
            // construction, asserted anyway as the monomorphization anchor.
            let e_noop =
                fe.influence_many_frozen_traced(&seeds, threads, &NoopRecorder, NoopTracer);
            assert_bits_eq(&e_noop, &e_ref)?;

            let ring = RingTracer::new(threads);
            let e_traced =
                fe.influence_many_frozen_traced(&seeds, threads, &NoopRecorder, ring.lane(0));
            assert_bits_eq(&e_traced, &e_ref)?;
            // One query.batch span plus one query.element span per element.
            assert_ring_well_formed(&ring, 1 + seeds.len())?;

            let ring = RingTracer::new(threads);
            let a_traced =
                fa.influence_many_frozen_traced(&seeds, threads, &NoopRecorder, ring.lane(0));
            assert_bits_eq(&a_traced, &a_ref)?;
            assert_ring_well_formed(&ring, 1 + seeds.len())?;
        }
    }

    /// Layered oracles (delta overlay over a frozen base) answer batch
    /// queries bit-identically under tracing, and a traced compaction
    /// produces an oracle whose answers match an untraced compaction's,
    /// at every thread count.
    #[test]
    fn traced_layered_queries_and_compaction_match_untraced(
        net in networks(),
        seeds in seed_sets(),
        w in 1i64..25,
        split_seed in any::<usize>(),
    ) {
        let w = Window(w);
        let ints = net.interactions();
        let split = split_seed % (ints.len() + 1);
        let seeds = clamp_seeds(seeds, net.num_nodes());
        let base = InteractionNetwork::from_triples(
            ints[..split].iter().map(|i| (i.src.0, i.dst.0, i.time.get())),
        );

        let build_exact = || {
            let mut layered = LayeredExactOracle::from_network(&base, w);
            for &i in &ints[split..] {
                layered.append(i).expect("suffix appends move forward in time");
            }
            layered.refresh();
            layered
        };
        let build_approx = || {
            let mut layered = LayeredApproxOracle::from_network_with_precision(&base, w, PRECISION);
            for &i in &ints[split..] {
                layered.append(i).expect("suffix appends move forward in time");
            }
            layered.refresh();
            layered
        };

        let mut exact_ref = build_exact();
        let mut exact_traced = build_exact();
        let mut approx_ref = build_approx();
        let mut approx_traced = build_approx();

        for threads in THREAD_COUNTS {
            let ring = RingTracer::new(threads);
            let e_ref = exact_ref.influence_many(&seeds, threads);
            let e_traced = exact_traced
                .influence_many_frozen_traced(&seeds, threads, &NoopRecorder, ring.lane(0));
            assert_bits_eq(&e_traced, &e_ref)?;
            assert_ring_well_formed(&ring, 1 + seeds.len())?;

            let ring = RingTracer::new(threads);
            let a_ref = approx_ref.influence_many(&seeds, threads);
            let a_traced = approx_traced
                .influence_many_frozen_traced(&seeds, threads, &NoopRecorder, ring.lane(0));
            assert_bits_eq(&a_traced, &a_ref)?;
            assert_ring_well_formed(&ring, 1 + seeds.len())?;
        }

        // Traced compaction: same base arena, same answers afterwards. The
        // compact.run span nests a rebuild and an overlay refresh.
        let ring = RingTracer::new(1);
        exact_ref.compact();
        exact_traced.compact_traced(&NoopRecorder, ring.lane(0));
        assert_ring_well_formed(&ring, 3)?;
        prop_assert_eq!(exact_traced.base().offsets(), exact_ref.base().offsets());
        prop_assert_eq!(exact_traced.base().entries(), exact_ref.base().entries());

        let ring = RingTracer::new(1);
        approx_ref.compact();
        approx_traced.compact_traced(&NoopRecorder, ring.lane(0));
        assert_ring_well_formed(&ring, 3)?;
        prop_assert_eq!(
            approx_traced.base().image(),
            approx_ref.base().image()
        );

        for threads in THREAD_COUNTS {
            let e_ref = exact_ref.influence_many(&seeds, threads);
            let e_traced = exact_traced.influence_many(&seeds, threads);
            assert_bits_eq(&e_traced, &e_ref)?;
            let a_ref = approx_ref.influence_many(&seeds, threads);
            let a_traced = approx_traced.influence_many(&seeds, threads);
            assert_bits_eq(&a_traced, &a_ref)?;
        }
    }

    /// Greedy seed selection under a live tracer picks the same seeds with
    /// the same gains as the untraced thread-fanned path, on both backends,
    /// at every thread count — and emits a well-formed greedy.selection
    /// span tree with one greedy.round instant per fresh pick.
    #[test]
    fn traced_greedy_matches_untraced(net in networks(), w in 1i64..25, k in 0usize..6) {
        let exact = ExactIrs::compute(&net, Window(w));
        let approx = ApproxIrs::compute_with_precision(&net, Window(w), PRECISION);
        let fe = exact.freeze();
        let fa = approx.freeze();

        for threads in THREAD_COUNTS {
            let e_ref = greedy_top_k_threads(&fe, k, threads);
            let a_ref = greedy_top_k_threads(&fa, k, threads);

            let ring = RingTracer::new(threads);
            let e_traced = greedy_top_k_traced(&fe, k, threads, &NoopRecorder, ring.lane(0));
            prop_assert_eq!(&e_traced, &e_ref);
            assert_ring_well_formed(&ring, 1)?;

            let ring = RingTracer::new(threads);
            let a_traced = greedy_top_k_traced(&fa, k, threads, &NoopRecorder, ring.lane(0));
            prop_assert_eq!(&a_traced, &a_ref);
            assert_ring_well_formed(&ring, 1)?;
        }
    }
}

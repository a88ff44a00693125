//! Parity property tests for the frozen query kernels:
//!
//! * a frozen arena's sparse rows hold exactly the non-zero registers of
//!   arbitrary collapsed sketches, and every way of reading a row — the
//!   batch kernel's scatter into a `β`-byte accumulator, the single-query
//!   tile merge, the row estimate — equals the dense register array, at
//!   every precision the format accepts;
//! * the true batch API (`influence_many_frozen`) must answer
//!   bit-identically to per-query `influence` on the frozen arena and to
//!   the live oracle, at 1, 2, and 8 threads, for arbitrary tie-heavy
//!   networks and seed sets with duplicates — including precision 4, where
//!   `β = 16` is smaller than the 64-register tile.

use infprop_core::{
    ApproxIrs, ApproxOracle, ExactIrs, FrozenApproxOracle, InfluenceOracle, LayeredApproxOracle,
};
use infprop_hll::{estimate_from_registers, HyperLogLog};
use infprop_temporal_graph::{Interaction, InteractionNetwork, NodeId, Window};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Random networks with timestamp ties.
fn networks() -> impl Strategy<Value = InteractionNetwork> {
    prop::collection::vec((0u32..16, 0u32..16, 0i64..30), 1..70)
        .prop_map(InteractionNetwork::from_triples)
}

/// Seed sets over the same id range, duplicates allowed (the batch path
/// dedups; answers must not change).
fn seed_sets() -> impl Strategy<Value = Vec<Vec<NodeId>>> {
    prop::collection::vec(
        prop::collection::vec((0u32..16).prop_map(NodeId), 0..8),
        0..14,
    )
}

proptest! {
    /// Rows of arbitrary sketches — register values anywhere in the legal
    /// ρ range, density from empty to full — read back as the dense
    /// registers through every row reader, and answer unions, absorbs and
    /// marginal gains bit-identically to the live collapsed oracle.
    #[test]
    fn sparse_rows_equal_dense_registers(
        precision in 4u8..=16,
        rows in prop::collection::vec((0u64..1 << 20, 0u32..=100), 1..6),
        seeds in prop::collection::vec(0usize..6, 0..6),
    ) {
        let beta = 1usize << precision;
        let max_rho = 64 - precision + 1;
        // Row `u` sets each register with probability `density` percent,
        // drawn from a per-row SplitMix stream.
        let sketches: Vec<HyperLogLog> = rows
            .iter()
            .map(|&(seed, density)| {
                let mut state = seed;
                let regs = (0..beta)
                    .map(|_| {
                        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                        let z = (state ^ (state >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                        let z = z ^ (z >> 29);
                        if (z % 100) < u64::from(density) {
                            1 + ((z >> 8) % u64::from(max_rho)) as u8
                        } else {
                            0
                        }
                    })
                    .collect();
                HyperLogLog::from_registers(regs)
            })
            .collect();
        let frozen = FrozenApproxOracle::from_collapsed(precision, &sketches);
        prop_assert!(frozen.validate().is_ok());
        let mut acc = vec![0u8; beta];
        for (u, sketch) in sketches.iter().enumerate() {
            let row = frozen.row(NodeId::from_index(u));
            let dense = sketch.registers();
            prop_assert_eq!(row.len(), dense.iter().filter(|&&r| r != 0).count());
            prop_assert_eq!(row.to_registers(beta), dense.to_vec());
            let step = 64.min(beta);
            let mut tiled = vec![0u8; beta];
            for (t, block) in tiled.chunks_exact_mut(step).enumerate() {
                row.max_into_tile(t * step, block);
            }
            prop_assert_eq!(&tiled[..], dense);
            prop_assert_eq!(
                row.estimate(beta).to_bits(),
                estimate_from_registers(dense).to_bits()
            );
            row.max_into(&mut acc);
        }
        let live = ApproxOracle::from_sketches(sketches.clone());
        let all: Vec<NodeId> = (0..sketches.len()).map(NodeId::from_index).collect();
        prop_assert_eq!(frozen.influence(&all).to_bits(), estimate_from_registers(&acc).to_bits());
        let seeds: Vec<NodeId> = seeds
            .into_iter()
            .filter(|&s| s < sketches.len())
            .map(NodeId::from_index)
            .collect();
        prop_assert_eq!(frozen.influence(&seeds).to_bits(), live.influence(&seeds).to_bits());
        let batch = frozen.influence_many_frozen(&[seeds.clone(), all.clone()], 1);
        prop_assert_eq!(batch[0].to_bits(), live.influence(&seeds).to_bits());
        let (mut fu, mut lu) = (frozen.empty_union(), live.empty_union());
        for &s in &seeds {
            frozen.absorb(&mut fu, s);
            live.absorb(&mut lu, s);
        }
        prop_assert_eq!(fu.registers(), lu.registers());
        for &u in &all {
            prop_assert_eq!(frozen.marginal_gain(&fu, u).to_bits(), live.marginal_gain(&lu, u).to_bits());
            prop_assert_eq!(frozen.individual(u).to_bits(), live.individual(u).to_bits());
        }
    }

    /// Frozen batch answers == per-query frozen answers == live oracle
    /// answers, bitwise, at every thread count and at both a precision
    /// where β fills multiple tiles (9) and one where β = 16 < TILE (4).
    #[test]
    fn frozen_batch_matches_per_query_and_live(
        net in networks(),
        seeds in seed_sets(),
        w in 1i64..40,
    ) {
        let n = net.num_nodes() as u32;
        let seeds: Vec<Vec<NodeId>> = seeds
            .into_iter()
            .map(|s| s.into_iter().filter(|v| v.0 < n).collect())
            .collect();
        for precision in [4u8, 9] {
            let irs = ApproxIrs::compute_with_precision(&net, Window(w), precision);
            let frozen = irs.freeze();
            let live = irs.oracle();
            let per_query: Vec<u64> = seeds
                .iter()
                .map(|s| frozen.influence(s).to_bits())
                .collect();
            let live_ref: Vec<u64> = seeds
                .iter()
                .map(|s| live.influence(s).to_bits())
                .collect();
            prop_assert_eq!(&per_query, &live_ref, "frozen != live, k={}", precision);
            for threads in THREAD_COUNTS {
                let batch: Vec<u64> = frozen
                    .influence_many_frozen(&seeds, threads)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                prop_assert_eq!(&batch, &per_query, "k={} threads={}", precision, threads);
            }
        }
    }

    /// The exact frozen batch (with its sorted-slice fast paths for ≤ 2
    /// deduplicated seeds) matches per-query answers at every thread count.
    #[test]
    fn exact_frozen_batch_matches_per_query(
        net in networks(),
        seeds in seed_sets(),
        w in 1i64..40,
    ) {
        let n = net.num_nodes() as u32;
        let seeds: Vec<Vec<NodeId>> = seeds
            .into_iter()
            .map(|s| s.into_iter().filter(|v| v.0 < n).collect())
            .collect();
        let frozen = ExactIrs::compute(&net, Window(w)).freeze();
        let per_query: Vec<u64> = seeds
            .iter()
            .map(|s| frozen.influence(s).to_bits())
            .collect();
        for threads in THREAD_COUNTS {
            let batch: Vec<u64> = frozen
                .influence_many_frozen(&seeds, threads)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            prop_assert_eq!(&batch, &per_query, "threads={}", threads);
        }
    }

    /// The layered (base ⊕ overlay) batch path stays dominance-correct:
    /// after splitting history into a frozen base and appended delta, the
    /// batch answers equal per-query layered answers *and* a from-scratch
    /// frozen arena over the full history, bitwise.
    #[test]
    fn layered_batch_matches_scratch(
        triples in prop::collection::vec((0u32..12, 0u32..12, 0i64..40), 2..60),
        seeds in seed_sets(),
        w in 1i64..20,
        split_pct in 0usize..100,
    ) {
        let mut sorted = triples;
        sorted.sort_by_key(|&(_, _, t)| t);
        let split = sorted.len() * split_pct / 100;
        let net = InteractionNetwork::from_triples(sorted.iter().copied());
        let n = net.num_nodes() as u32;
        let seeds: Vec<Vec<NodeId>> = seeds
            .into_iter()
            .map(|s| s.into_iter().filter(|v| v.0 < n).collect())
            .collect();
        let base_net = InteractionNetwork::from_triples(sorted[..split].iter().copied());
        let mut layered = LayeredApproxOracle::from_network_with_precision(&base_net, Window(w), 5);
        for &(s, d, t) in &sorted[split..] {
            layered.append(Interaction::from_raw(s, d, t)).unwrap();
        }
        layered.refresh();
        let scratch = ApproxIrs::compute_with_precision(&net, Window(w), 5).freeze();
        let per_query: Vec<u64> = seeds
            .iter()
            .map(|s| layered.influence(s).to_bits())
            .collect();
        let scratch_ref: Vec<u64> = seeds
            .iter()
            .map(|s| scratch.influence(s).to_bits())
            .collect();
        prop_assert_eq!(&per_query, &scratch_ref, "layered != scratch");
        for threads in THREAD_COUNTS {
            let batch: Vec<u64> = layered
                .influence_many_frozen(&seeds, threads)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            prop_assert_eq!(&batch, &per_query, "threads={}", threads);
        }
    }
}

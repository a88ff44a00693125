//! Property tests for the HyperLogLog and versioned-HLL sketches.

use infprop_hll::{HyperLogLog, VersionedHll};
use proptest::prelude::*;
use std::collections::HashSet;

/// Random `(item, time)` streams in decreasing time order (the reverse-scan
/// discipline the IRS algorithm uses).
fn reverse_stream() -> impl Strategy<Value = Vec<(u64, i64)>> {
    prop::collection::vec((0u64..500, 0i64..1000), 0..300).prop_map(|mut v| {
        v.sort_by_key(|&(_, t)| std::cmp::Reverse(t));
        v
    })
}

proptest! {
    /// HLL merge equals the sketch of the concatenated streams.
    #[test]
    fn hll_merge_is_union(
        xs in prop::collection::vec(any::<u64>(), 0..500),
        ys in prop::collection::vec(any::<u64>(), 0..500),
    ) {
        let mut a = HyperLogLog::new(6);
        let mut b = HyperLogLog::new(6);
        let mut u = HyperLogLog::new(6);
        for &x in &xs { a.add_u64(x); u.add_u64(x); }
        for &y in &ys { b.add_u64(y); u.add_u64(y); }
        a.merge(&b);
        prop_assert_eq!(a, u);
    }

    /// HLL is insertion-order independent and duplicate-insensitive.
    #[test]
    fn hll_order_independent(mut xs in prop::collection::vec(any::<u64>(), 0..300)) {
        let mut fwd = HyperLogLog::new(7);
        for &x in &xs { fwd.add_u64(x); }
        xs.reverse();
        xs.extend_from_slice(&xs.clone()); // duplicates
        let mut rev = HyperLogLog::new(7);
        for &x in &xs { rev.add_u64(x); }
        prop_assert_eq!(fwd, rev);
    }

    /// HLL estimate is within loose statistical bounds of the true count.
    #[test]
    fn hll_estimate_reasonable(xs in prop::collection::vec(0u64..100_000, 1..2000)) {
        let truth = xs.iter().collect::<HashSet<_>>().len() as f64;
        let mut s = HyperLogLog::new(10);
        for &x in &xs { s.add_u64(x); }
        let est = s.estimate();
        // 10 standard errors at k=10 (±3.3%) → about ±33%; generous so the
        // property never flakes while still catching broken estimators.
        prop_assert!((est - truth).abs() <= truth.max(8.0) * 0.33 + 8.0,
            "est {} truth {}", est, truth);
    }

    /// vHLL invariant (strictly increasing time ⇒ strictly increasing ρ)
    /// survives arbitrary insertion sequences.
    #[test]
    fn vhll_invariant_holds(stream in prop::collection::vec((0u64..500, -200i64..200), 0..400)) {
        let mut s = VersionedHll::new(4);
        for (item, t) in stream {
            s.add_u64(item, t);
        }
        prop_assert!(s.check_invariants().is_ok());
    }

    /// vHLL `estimate` equals the plain-HLL estimate of the same item set,
    /// whatever the timestamps: versioning never loses per-cell maxima.
    #[test]
    fn vhll_estimate_matches_plain_hll(stream in prop::collection::vec((0u64..1000, -100i64..100), 0..500)) {
        let mut v = VersionedHll::new(6);
        let mut h = HyperLogLog::new(6);
        for &(item, t) in &stream {
            v.add_u64(item, t);
            h.add_u64(item);
        }
        prop_assert_eq!(v.estimate(), h.estimate());
        prop_assert_eq!(v.to_hyperloglog(), h);
    }

    /// Unfiltered vHLL merge equals inserting both streams into one sketch.
    #[test]
    fn vhll_merge_all_is_union(
        xs in prop::collection::vec((0u64..300, -50i64..50), 0..200),
        ys in prop::collection::vec((0u64..300, -50i64..50), 0..200),
    ) {
        let mut a = VersionedHll::new(5);
        let mut b = VersionedHll::new(5);
        let mut u = VersionedHll::new(5);
        for &(x, t) in &xs { a.add_u64(x, t); u.add_u64(x, t); }
        for &(y, t) in &ys { b.add_u64(y, t); u.add_u64(y, t); }
        a.merge_all(&b);
        prop_assert_eq!(a.to_hyperloglog(), u.to_hyperloglog());
        prop_assert!(a.check_invariants().is_ok());
    }

    /// Window-filtered merge only admits in-window pairs: the merged sketch
    /// never exceeds (per cell) what inserting the filtered pairs produces.
    #[test]
    fn vhll_merge_filter_equals_manual_filter(
        xs in prop::collection::vec((0u64..300, 0i64..100), 0..200),
        anchor in 0i64..100,
        window in 1i64..100,
    ) {
        let mut src = VersionedHll::new(5);
        for &(x, t) in &xs { src.add_u64(x, t); }
        let mut merged = VersionedHll::new(5);
        merged.merge_from(&src, anchor, window);
        // Manual: re-insert only the retained pairs that pass the filter.
        let mut manual = VersionedHll::new(5);
        for c in 0..src.num_cells() {
            for e in src.cell(c) {
                if e.time - anchor < window {
                    manual.insert_raw(c, e.rho, e.time);
                }
            }
        }
        prop_assert_eq!(merged, manual);
    }

    /// Under the reverse-time discipline, the windowed estimate anchored at
    /// the stream frontier tracks the true windowed distinct count.
    #[test]
    fn vhll_windowed_estimate_under_discipline(stream in reverse_stream(), window in 1i64..500) {
        let mut s = VersionedHll::new(10);
        for &(item, t) in &stream {
            s.add_u64(item, t);
        }
        if let Some(&(_, frontier)) = stream.last() {
            let truth = stream
                .iter()
                .filter(|&&(_, t)| t - frontier < window)
                .map(|&(item, _)| item)
                .collect::<HashSet<_>>()
                .len() as f64;
            let est = s.estimate_window(frontier, window);
            prop_assert!((est - truth).abs() <= truth.max(8.0) * 0.35 + 8.0,
                "est {} truth {}", est, truth);
        }
    }

    /// Dominance: inserting any pair twice (second time with a later or
    /// equal timestamp) leaves the sketch unchanged.
    #[test]
    fn vhll_duplicate_later_is_noop(stream in prop::collection::vec((0u64..200, 0i64..100), 1..200), delta in 0i64..50) {
        let mut s = VersionedHll::new(5);
        for &(item, t) in &stream { s.add_u64(item, t); }
        let snapshot = s.clone();
        for &(item, t) in &stream { s.add_u64(item, t + delta); }
        prop_assert_eq!(s, snapshot);
    }
}

/// The dominance-chain validators: sketches built by the algorithms always
/// pass, and corrupted-by-construction version lists are always rejected.
mod invariant_checks {
    use infprop_hll::{check_entries, VersionEntry, VersionedHll};
    use proptest::prelude::*;

    /// A sketch built from a random insertion stream.
    fn random_sketch() -> impl Strategy<Value = VersionedHll> {
        prop::collection::vec((0u64..500, -200i64..200), 0..400).prop_map(|stream| {
            let mut s = VersionedHll::new(4);
            for (item, t) in stream {
                s.add_u64(item, t);
            }
            s
        })
    }

    proptest! {
        /// Random streams never trip the checker, and the validating
        /// constructor accepts exactly what the algorithms build.
        #[test]
        fn random_streams_pass_and_roundtrip(s in random_sketch()) {
            prop_assert_eq!(s.check_dominance_chain(), Ok(()));
            let cells: Vec<Vec<VersionEntry>> =
                (0..s.num_cells()).map(|c| s.cell(c).to_vec()).collect();
            let rebuilt = VersionedHll::from_cells(s.precision(), cells);
            prop_assert_eq!(rebuilt.as_ref().map(|r| r == &s), Ok(true));
        }

        /// Swapping any two adjacent entries of a ≥2-entry list breaks the
        /// strict (time, ρ) ordering, and the checker always says so.
        #[test]
        fn swapped_adjacent_entries_are_rejected(s in random_sketch(), cell_seed in any::<usize>(), pos_seed in any::<usize>()) {
            let candidates: Vec<usize> =
                (0..s.num_cells()).filter(|&c| s.cell(c).len() >= 2).collect();
            prop_assume!(!candidates.is_empty());
            let cell = candidates[cell_seed % candidates.len()];
            let pos = pos_seed % (s.cell(cell).len() - 1);
            let mut cells: Vec<Vec<VersionEntry>> =
                (0..s.num_cells()).map(|c| s.cell(c).to_vec()).collect();
            cells[cell].swap(pos, pos + 1);
            prop_assert!(VersionedHll::from_cells(s.precision(), cells).is_err());
        }

        /// ρ outside `[1, 64 − k + 1]` is rejected wherever it is planted.
        #[test]
        fn out_of_range_rho_is_rejected(s in random_sketch(), cell_seed in any::<usize>(), big in 62u8..255) {
            let cell = cell_seed % s.num_cells();
            let mut cells: Vec<Vec<VersionEntry>> =
                (0..s.num_cells()).map(|c| s.cell(c).to_vec()).collect();
            cells[cell].insert(0, VersionEntry { time: i64::MIN, rho: 0 });
            prop_assert!(VersionedHll::from_cells(s.precision(), cells.clone()).is_err());
            cells[cell][0] = VersionEntry { time: i64::MIN, rho: big };
            prop_assert!(VersionedHll::from_cells(s.precision(), cells).is_err());
        }

        /// Duplicated times (or duplicated ρ) violate strictness: doubling
        /// any entry is always caught by the entry-level checker.
        #[test]
        fn duplicated_entries_are_rejected(
            mut entries in prop::collection::vec((1u8..62, -100i64..100), 1..20),
            dup_seed in any::<usize>(),
        ) {
            entries.sort();
            entries.dedup();
            let list: Vec<VersionEntry> = entries
                .iter()
                .enumerate()
                .map(|(i, &(rho, _))| VersionEntry { time: i as i64, rho })
                .collect();
            // A strictly increasing (time, ρ) chain passes…
            let chain: Vec<VersionEntry> = list
                .iter()
                .scan(0u8, |max, e| {
                    if e.rho > *max {
                        *max = e.rho;
                        Some(Some(*e))
                    } else {
                        Some(None)
                    }
                })
                .flatten()
                .collect();
            prop_assert_eq!(check_entries(&chain, 61), Ok(()));
            // …and duplicating any one entry always fails.
            prop_assume!(!chain.is_empty());
            let mut corrupt = chain.clone();
            let at = dup_seed % chain.len();
            corrupt.insert(at, chain[at]);
            prop_assert!(check_entries(&corrupt, 61).is_err());
        }
    }
}

/// Codec robustness: decoders must return clean errors — never panic —
/// whatever bytes they are fed.
mod codec_fuzz {
    use infprop_hll::{HyperLogLog, VersionedHll};
    use proptest::prelude::*;

    proptest! {
        /// Arbitrary garbage never panics either decoder.
        #[test]
        fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
            let _ = HyperLogLog::from_bytes(&bytes);
            let _ = VersionedHll::from_bytes(&bytes);
        }

        /// Single-byte mutations of a valid HLL payload either round-trip
        /// (the byte was redundant or still valid) or fail cleanly.
        #[test]
        fn mutated_hll_never_panics(
            items in prop::collection::vec(any::<u64>(), 0..200),
            pos_seed in any::<usize>(),
            new_byte in any::<u8>(),
        ) {
            let mut s = HyperLogLog::new(5);
            for &x in &items {
                s.add_u64(x);
            }
            let mut bytes = s.to_bytes();
            let pos = pos_seed % bytes.len();
            bytes[pos] = new_byte;
            let _ = HyperLogLog::from_bytes(&bytes);
        }

        /// Same for the versioned sketch (richer structure, richer ways to
        /// be corrupt).
        #[test]
        fn mutated_vhll_never_panics(
            items in prop::collection::vec((any::<u64>(), -1000i64..1000), 0..200),
            pos_seed in any::<usize>(),
            new_byte in any::<u8>(),
        ) {
            let mut s = VersionedHll::new(4);
            for &(x, t) in &items {
                s.add_u64(x, t);
            }
            let mut bytes = s.to_bytes();
            let pos = pos_seed % bytes.len();
            bytes[pos] = new_byte;
            let _ = VersionedHll::from_bytes(&bytes);
        }

        /// Truncation at any point fails cleanly.
        #[test]
        fn truncated_vhll_never_panics(
            items in prop::collection::vec((any::<u64>(), 0i64..100), 1..100),
            cut_seed in any::<usize>(),
        ) {
            let mut s = VersionedHll::new(4);
            for &(x, t) in &items {
                s.add_u64(x, t);
            }
            let bytes = s.to_bytes();
            let cut = cut_seed % bytes.len();
            let _ = VersionedHll::from_bytes(&bytes[..cut]);
        }
    }
}

/// The packed sketch (version lists stored for occupied cells only) against
/// a dense reference model holding one list per cell, driven by the same
/// random operations. The model implements `ApproxAdd` (Alg. 3) by its
/// definition and a merge as an insert loop over the in-window pairs, so
/// it shares no code with the sketch.
mod packed_matches_dense {
    use infprop_hll::{hash, VersionEntry, VersionedHll};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// One version list per cell.
    #[derive(Clone, Debug)]
    struct Dense {
        precision: u8,
        cells: Vec<Vec<VersionEntry>>,
    }

    impl Dense {
        fn new(precision: u8) -> Self {
            Dense {
                precision,
                cells: vec![Vec::new(); 1 << precision],
            }
        }

        /// `ApproxAdd`: rejected when some `(ρ′, t′)` with `t′ ≤ t`,
        /// `ρ′ ≥ ρ` dominates it; otherwise evicts every pair it dominates.
        fn insert(&mut self, cell: usize, rho: u8, time: i64) -> bool {
            let list = &mut self.cells[cell];
            if list.iter().any(|e| e.time <= time && e.rho >= rho) {
                return false;
            }
            list.retain(|e| !(e.time >= time && e.rho <= rho));
            list.push(VersionEntry { time, rho });
            list.sort_by_key(|e| e.time);
            true
        }

        /// The HLL split of a 64-bit hash: the low `k` bits pick the cell,
        /// ρ is the 1-based lowest set bit of the rest.
        fn add_u64(&mut self, item: u64, time: i64) -> bool {
            let h = hash::hash64(item);
            let k = u32::from(self.precision);
            let cell = (h & ((1 << k) - 1)) as usize;
            let rest = h >> k;
            let rho = if rest == 0 {
                65 - k
            } else {
                rest.trailing_zeros() + 1
            };
            self.insert(cell, rho as u8, time)
        }

        fn merge_from(&mut self, other: &Dense, anchor: i64, window: i64) {
            let limit = anchor.saturating_add(window);
            for (cell, list) in other.cells.iter().enumerate() {
                for e in list.iter().filter(|e| e.time < limit) {
                    self.insert(cell, e.rho, e.time);
                }
            }
        }

        fn prune_outside(&mut self, anchor: i64, window: i64) {
            let limit = anchor.saturating_add(window);
            for list in &mut self.cells {
                list.retain(|e| e.time < limit);
            }
        }

        fn clear(&mut self) {
            self.cells.iter_mut().for_each(Vec::clear);
        }
    }

    /// A packed sketch and its dense twin, filled with `n` random adds and
    /// one long (spilled) chain.
    fn twin_sources(precision: u8, seed: u64, n: usize) -> (VersionedHll, Dense) {
        let mut packed = VersionedHll::new(precision);
        let mut dense = Dense::new(precision);
        let mut x = seed | 1;
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let time = (x % 400) as i64 - 200;
            assert_eq!(packed.add_u64(x, time), dense.add_u64(x, time));
        }
        let cell = (seed as usize) % packed.num_cells();
        for i in 0..6u8 {
            let time = -300 + i64::from(i) * 100;
            assert_eq!(
                packed.insert_raw(cell, 10 + i, time),
                dense.insert(cell, 10 + i, time)
            );
        }
        (packed, dense)
    }

    /// Every observable of the packed sketch equals the dense model's.
    fn assert_same(packed: &VersionedHll, dense: &Dense) -> Result<(), TestCaseError> {
        let beta = 1usize << dense.precision;
        prop_assert_eq!(packed.num_cells(), beta);
        for (i, list) in dense.cells.iter().enumerate() {
            prop_assert_eq!(packed.cell(i), list.as_slice(), "cell {}", i);
        }
        let maxima: Vec<u8> = dense
            .cells
            .iter()
            .map(|l| l.last().map_or(0, |e| e.rho))
            .collect();
        let mut collapsed = vec![0xAB; beta];
        packed.collapse_registers_into(&mut collapsed);
        let pairs: Vec<(usize, u8)> = maxima
            .iter()
            .enumerate()
            .filter(|&(_, &rho)| rho > 0)
            .map(|(i, &rho)| (i, rho))
            .collect();
        prop_assert_eq!(packed.collapsed_cells().collect::<Vec<_>>(), pairs.clone());
        prop_assert_eq!(packed.occupied_count(), pairs.len());
        prop_assert_eq!(collapsed, maxima);
        let entries: usize = dense.cells.iter().map(Vec::len).sum();
        prop_assert_eq!(packed.total_entries(), entries);
        prop_assert_eq!(packed.is_empty(), entries == 0);
        prop_assert_eq!(packed.check_dominance_chain(), Ok(()));
        let rebuilt = VersionedHll::from_cells(dense.precision, dense.cells.clone());
        prop_assert_eq!(rebuilt.as_ref(), Ok(packed));
        let exported: Vec<Vec<VersionEntry>> = (0..beta).map(|i| packed.cell(i).to_vec()).collect();
        let round_trip = VersionedHll::from_cells(dense.precision, exported);
        prop_assert_eq!(round_trip.as_ref(), Ok(packed));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Adds, raw inserts, spilled chains, window-filtered merges (into
        /// empty and populated sketches, with many new cells), prunes down
        /// to empty, and clear-then-reuse, at precisions 4, 6 and 9.
        #[test]
        fn packed_sketch_equals_dense_model(
            p in 0usize..3,
            ops in prop::collection::vec((0u8..8, any::<u64>(), -250i64..250, 0i64..400), 1..40),
        ) {
            let precision = [4u8, 6, 9][p];
            let beta = 1usize << precision;
            let mut packed = VersionedHll::new(precision);
            let mut dense = Dense::new(precision);
            let mut scratch = Vec::new();
            for (kind, a, b, c) in ops {
                match kind {
                    0 | 1 => {
                        prop_assert_eq!(packed.add_u64(a, b), dense.add_u64(a, b));
                    }
                    2 => {
                        let (cell, rho) = ((a as usize) % beta, 1 + (a >> 32) as u8 % 20);
                        prop_assert_eq!(packed.insert_raw(cell, rho, b), dense.insert(cell, rho, b));
                    }
                    3 => {
                        // A chain of increasing (time, ρ): spills past the
                        // inline buffer.
                        let cell = (a as usize) % beta;
                        for i in 0..(4 + a % 5) {
                            let (rho, time) = (2 + i as u8, b + i as i64);
                            prop_assert_eq!(
                                packed.insert_raw(cell, rho, time),
                                dense.insert(cell, rho, time)
                            );
                        }
                    }
                    4 | 5 => {
                        // Sources of up to ~1.2β items: many of their cells
                        // are new to a populated destination.
                        let n = (c as usize) % (beta + beta / 4 + 8);
                        let (src, src_dense) = twin_sources(precision, a, n);
                        assert_same(&src, &src_dense)?;
                        let window = if kind == 5 { i64::MAX / 2 } else { 1 + c };
                        packed.merge_from_with(&src, b, window, &mut scratch);
                        dense.merge_from(&src_dense, b, window);
                    }
                    6 => {
                        // c < 40 prunes every pair (all times are ≥ −300).
                        let anchor = if c < 40 { -1_000 } else { b };
                        packed.prune_outside(anchor, 1 + c % 200);
                        dense.prune_outside(anchor, 1 + c % 200);
                    }
                    _ => {
                        packed.clear();
                        dense.clear();
                        prop_assert_eq!(&packed, &VersionedHll::new(precision));
                    }
                }
                assert_same(&packed, &dense)?;
            }
        }
    }
}

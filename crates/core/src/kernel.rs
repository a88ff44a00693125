//! Sparse register rows: how the frozen vHLL arenas store a node's
//! collapsed sketch, and the kernels every reader of those rows shares.
//!
//! A collapsed sketch holds `β = 2^k` registers, and on real inputs almost
//! all of them are zero. The frozen approx arena (IPFA v4, see
//! `frozen::layout`) therefore stores each node's row as its non-zero
//! registers only: `(index, ρ)` pairs sorted by strictly increasing index,
//! the indices as little-endian `u16` (every index of every precision up to
//! `k = 16` fits) and the ρ values as bytes — 3 bytes per stored register,
//! one encoding for every precision. [`SparseRow`] borrows one row straight
//! from the arena image, and the frozen and layered oracles read rows only
//! through the helpers here:
//!
//! * [`SparseRow::max_into`] scatter-maxes a row into a `β`-byte
//!   accumulator — the batch kernel's merge, one write per stored register;
//! * [`SparseRow::max_into_tile`] does the same for one tile of registers,
//!   finding the row's slice of sorted indices by binary search — the
//!   allocation-free merge of single queries, greedy's marginal gains and
//!   the freeze- and validation-time estimates;
//! * [`estimate_tiles`] streams `β` registers tile by tile through a stack
//!   block into one [`RunningEstimator`], in ascending register order (a
//!   single tile holds the whole row up to `k = 10`);
//! * [`rows_exceed`] compares two rows register by register with a merge
//!   walk over their sorted indices.
//!
//! Register `max` is exact, and every estimate absorbs the merged registers
//! in ascending order through the same estimator, so every path answers
//! bit-identically to the dense live sketches.

use infprop_hll::RunningEstimator;
use std::cmp::Ordering;
use std::fmt;

/// Registers per tile of [`estimate_tiles`], clamped to `β`. Up to
/// `k = 10` — the default `k = 9` included — the whole row fits one tile,
/// so a query merges into a `β`-byte stack block with one pass over each
/// row; larger precisions walk 1 KiB tiles. (64-register tiles cost a
/// binary search per row per tile and doubled a 4-seed layered query,
/// 1.6 → 3.1 µs, on the `maintain-enron` benchmark workload on a 2-vCPU
/// Xeon guest.)
const TILE: usize = 1024;

/// Bytes per stored register index: one little-endian `u16`.
pub(crate) const INDEX_BYTES: usize = 2;

/// One node's non-zero registers, borrowed from a frozen arena image: an
/// index section of little-endian `u16`s, strictly increasing and below
/// `β`, and a parallel section of ρ values in `1 ..= 64 − k + 1`. Every
/// register absent from the row is zero.
///
/// Equality compares the stored bytes; the encoding is canonical, so equal
/// rows hold equal registers.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SparseRow<'a> {
    indices: &'a [u8],
    rhos: &'a [u8],
}

impl<'a> SparseRow<'a> {
    /// The row of a node with no non-zero register — what layered lookups
    /// answer for nodes outside a layer's universe.
    pub const EMPTY: SparseRow<'static> = SparseRow {
        indices: &[],
        rhos: &[],
    };

    /// Wraps an image's index and ρ sections of one row.
    #[inline]
    pub(crate) fn new(indices: &'a [u8], rhos: &'a [u8]) -> Self {
        debug_assert_eq!(indices.len(), rhos.len() * INDEX_BYTES);
        SparseRow { indices, rhos }
    }

    /// Number of stored (non-zero) registers.
    #[inline]
    // xtask-contract: alloc-free, kernel
    pub fn len(&self) -> usize {
        self.rhos.len()
    }

    /// True when every register of the row is zero.
    #[inline]
    // xtask-contract: alloc-free, kernel
    pub fn is_empty(&self) -> bool {
        self.rhos.is_empty()
    }

    /// Register index of stored pair `k`.
    #[inline]
    // xtask-contract: alloc-free, kernel
    pub(crate) fn index(&self, k: usize) -> usize {
        let at = k * INDEX_BYTES;
        usize::from(u16::from_le_bytes([self.indices[at], self.indices[at + 1]]))
    }

    /// ρ of stored pair `k`.
    #[inline]
    // xtask-contract: alloc-free, kernel
    pub(crate) fn rho(&self, k: usize) -> u8 {
        self.rhos[k]
    }

    /// The stored `(index, ρ)` pairs, in ascending index order.
    #[inline]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, u8)> + 'a {
        self.indices
            .chunks_exact(INDEX_BYTES)
            .zip(self.rhos)
            .map(|(i, &rho)| (usize::from(u16::from_le_bytes([i[0], i[1]])), rho))
    }

    /// Raises `acc[index]` to at least `ρ` for every stored pair: the
    /// register-wise maximum of the row and a `β`-byte accumulator.
    #[inline]
    // xtask-contract: alloc-free, kernel
    pub fn max_into(&self, acc: &mut [u8]) {
        for (k, &rho) in self.rhos.iter().enumerate() {
            let slot = &mut acc[self.index(k)];
            *slot = (*slot).max(rho);
        }
    }

    /// [`max_into`](Self::max_into) restricted to the tile of registers
    /// `lo .. lo + block.len()`, written to `block[index − lo]`. The row's
    /// first pair in the tile is found by binary search, so a tile costs
    /// `O(log len)` plus the pairs inside it.
    #[inline]
    // xtask-contract: alloc-free, kernel
    pub fn max_into_tile(&self, lo: usize, block: &mut [u8]) {
        let hi = lo + block.len();
        let (mut a, mut b) = (0, self.len());
        while a < b {
            let mid = a + (b - a) / 2;
            if self.index(mid) < lo {
                a = mid + 1;
            } else {
                b = mid;
            }
        }
        for k in a..self.len() {
            let i = self.index(k);
            if i >= hi {
                break;
            }
            let slot = &mut block[i - lo];
            *slot = (*slot).max(self.rhos[k]);
        }
    }

    /// The row's cardinality estimate: its `β` registers absorbed in
    /// ascending order, bit-identical to
    /// [`estimate_from_registers`](infprop_hll::estimate_from_registers)
    /// over the dense row.
    #[inline]
    // xtask-contract: alloc-free, kernel
    pub fn estimate(&self, beta: usize) -> f64 {
        estimate_tiles(beta, |lo, block| self.max_into_tile(lo, block))
    }

    /// The dense `β`-register row. Allocates — tests and diagnostics;
    /// query paths read the pairs directly.
    pub fn to_registers(&self, beta: usize) -> Vec<u8> {
        let mut row = vec![0u8; beta];
        self.max_into(&mut row);
        row
    }
}

impl fmt::Debug for SparseRow<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Streams `β` registers into one [`RunningEstimator`] a tile at a time,
/// in ascending register order, and returns the estimate: `fill(lo,
/// block)` writes registers `lo .. lo + block.len()` into the zeroed
/// `min(TILE, β)`-byte `block`. The estimator absorbs the same registers in
/// the same order as one pass over the materialized row, so the result is
/// bit-identical to it.
#[inline]
// xtask-contract: alloc-free, kernel
pub(crate) fn estimate_tiles(beta: usize, mut fill: impl FnMut(usize, &mut [u8])) -> f64 {
    let step = TILE.min(beta);
    let mut est = RunningEstimator::new();
    let mut block = [0u8; TILE];
    let mut lo = 0;
    while lo < beta {
        let blk = &mut block[..step];
        blk.fill(0);
        fill(lo, blk);
        est.absorb_registers(blk);
        lo += step;
    }
    est.finish()
}

/// Whether some register of `a` exceeds `b`'s, and whether some register
/// of `b` exceeds `a`'s: `(false, _)` means `max(a, b) = b`. One merge walk
/// over the two rows' sorted indices; a register stored in one row only
/// exceeds the other's zero, since every stored ρ is at least 1.
// xtask-contract: alloc-free, kernel
pub(crate) fn rows_exceed(a: SparseRow<'_>, b: SparseRow<'_>) -> (bool, bool) {
    let (mut i, mut j) = (0, 0);
    let (mut a_above, mut b_above) = (false, false);
    while i < a.len() && j < b.len() {
        match a.index(i).cmp(&b.index(j)) {
            Ordering::Less => {
                a_above = true;
                i += 1;
            }
            Ordering::Greater => {
                b_above = true;
                j += 1;
            }
            Ordering::Equal => {
                a_above |= a.rho(i) > b.rho(j);
                b_above |= b.rho(j) > a.rho(i);
                i += 1;
                j += 1;
            }
        }
    }
    (a_above || i < a.len(), b_above || j < b.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use infprop_hll::estimate_from_registers;

    /// Encodes `(index, ρ)` pairs into the two row sections.
    fn sections(pairs: &[(u16, u8)]) -> (Vec<u8>, Vec<u8>) {
        let indices = pairs.iter().flat_map(|&(i, _)| i.to_le_bytes()).collect();
        let rhos = pairs.iter().map(|&(_, r)| r).collect();
        (indices, rhos)
    }

    #[test]
    fn scatter_tile_and_estimate_match_the_dense_row() {
        // Pairs at both ends of β = 512 and β = 16 (one tile each), and at
        // β = 2^16 on both sides of a tile boundary and at the largest
        // index a u16 holds.
        for (beta, pairs) in [
            (
                512usize,
                vec![(0u16, 3u8), (63, 1), (64, 7), (300, 2), (511, 15)],
            ),
            (16, vec![(1, 4), (15, 61)]),
            (
                1 << 16,
                vec![(0, 1), (1023, 5), (1024, 7), (4095, 9), (65535, 49)],
            ),
        ] {
            let (indices, rhos) = sections(&pairs);
            let row = SparseRow::new(&indices, &rhos);
            let mut dense = vec![0u8; beta];
            for &(i, r) in &pairs {
                dense[usize::from(i)] = r;
            }
            assert_eq!(row.len(), pairs.len());
            assert_eq!(row.to_registers(beta), dense);
            assert_eq!(
                row.iter().collect::<Vec<_>>(),
                pairs
                    .iter()
                    .map(|&(i, r)| (usize::from(i), r))
                    .collect::<Vec<_>>()
            );
            let step = TILE.min(beta);
            let mut tiled = vec![0u8; beta];
            for (t, block) in tiled.chunks_exact_mut(step).enumerate() {
                row.max_into_tile(t * step, block);
            }
            assert_eq!(tiled, dense, "beta={beta}");
            assert_eq!(
                row.estimate(beta).to_bits(),
                estimate_from_registers(&dense).to_bits(),
                "beta={beta}"
            );
        }
        assert_eq!(SparseRow::EMPTY.to_registers(16), vec![0u8; 16]);
        assert_eq!(
            SparseRow::EMPTY.estimate(16).to_bits(),
            estimate_from_registers(&[0u8; 16]).to_bits()
        );
    }

    #[test]
    fn max_into_keeps_the_larger_register() {
        let (indices, rhos) = sections(&[(2, 5), (9, 1)]);
        let mut acc = vec![0u8; 16];
        acc[2] = 7;
        acc[9] = 0;
        SparseRow::new(&indices, &rhos).max_into(&mut acc);
        assert_eq!((acc[2], acc[9]), (7, 1));
    }

    #[test]
    fn rows_exceed_compares_registers() {
        let row = |pairs: &[(u16, u8)]| sections(pairs);
        let (ai, ar) = row(&[(1, 3), (5, 2)]);
        let (bi, br) = row(&[(1, 3), (5, 2), (8, 1)]);
        let (ci, cr) = row(&[(1, 4)]);
        let a = SparseRow::new(&ai, &ar);
        let b = SparseRow::new(&bi, &br);
        let c = SparseRow::new(&ci, &cr);
        assert_eq!(rows_exceed(a, b), (false, true));
        assert_eq!(rows_exceed(b, a), (true, false));
        assert_eq!(rows_exceed(a, a), (false, false));
        assert_eq!(rows_exceed(a, c), (true, true));
        assert_eq!(rows_exceed(SparseRow::EMPTY, a), (false, true));
        assert_eq!(rows_exceed(a, SparseRow::EMPTY), (true, false));
    }

    #[test]
    fn pairs_decode_as_little_endian_indices() {
        // 0x0102 = 258: the low byte comes first in the index section.
        let (indices, rhos) = sections(&[(258, 7), (4095, 2)]);
        assert_eq!(&indices[..2], &[0x02, 0x01]);
        let row = SparseRow::new(&indices, &rhos);
        assert_eq!((row.index(0), row.rho(0)), (258, 7));
        assert_eq!((row.index(1), row.rho(1)), (4095, 2));
        assert_eq!(format!("{row:?}"), "{258: 7, 4095: 2}");
    }

    #[test]
    fn empty_row_stores_nothing_and_writes_nothing() {
        let row = SparseRow::EMPTY;
        assert_eq!(row.len(), 0);
        assert!(row.is_empty());
        assert_eq!(row.iter().count(), 0);
        assert_eq!(format!("{row:?}"), "{}");
        let mut acc = vec![3u8; 16];
        row.max_into(&mut acc);
        row.max_into_tile(0, &mut acc);
        assert_eq!(acc, vec![3u8; 16]);
        assert_eq!(rows_exceed(row, row), (false, false));
    }

    #[test]
    fn max_into_tile_writes_only_the_pairs_inside_the_tile() {
        let (indices, rhos) = sections(&[(3, 2), (63, 4), (64, 5), (70, 9), (200, 1)]);
        let row = SparseRow::new(&indices, &rhos);
        let mut block = [0u8; 64];
        row.max_into_tile(64, &mut block);
        let mut want = [0u8; 64];
        want[0] = 5;
        want[6] = 9;
        assert_eq!(block, want);
        // A tile below every index and one past them all stay zero.
        let mut block = [0u8; 3];
        row.max_into_tile(0, &mut block);
        assert_eq!(block, [0, 0, 0]);
        let mut block = [0u8; 32];
        row.max_into_tile(224, &mut block);
        assert_eq!(block, [0u8; 32]);
        // The first tile ends just before index 64.
        let mut block = [0u8; 64];
        row.max_into_tile(0, &mut block);
        assert_eq!((block[3], block[63]), (2, 4));
        assert_eq!(block.iter().filter(|&&r| r != 0).count(), 2);
    }

    #[test]
    fn max_into_tile_keeps_the_larger_register() {
        let (indices, rhos) = sections(&[(1, 3), (2, 8)]);
        let row = SparseRow::new(&indices, &rhos);
        let mut block = [0u8, 6, 6, 0];
        row.max_into_tile(0, &mut block);
        assert_eq!(block, [0, 6, 8, 0]);
    }

    #[test]
    fn max_into_tile_reaches_the_largest_u16_index() {
        let beta = 1usize << 16;
        let (indices, rhos) = sections(&[(0, 1), (64511, 2), (64512, 3), (65535, 49)]);
        let row = SparseRow::new(&indices, &rhos);
        let lo = beta - TILE;
        let mut block = [0u8; TILE];
        row.max_into_tile(lo, &mut block);
        assert_eq!((block[0], block[TILE - 1]), (3, 49));
        assert_eq!(block.iter().filter(|&&r| r != 0).count(), 2);
    }

    #[test]
    fn estimate_tiles_fills_zeroed_tiles_in_ascending_order() {
        for (beta, want) in [
            (16usize, vec![(0usize, 16usize)]),
            (TILE, vec![(0, TILE)]),
            (
                4 * TILE,
                vec![(0, TILE), (TILE, TILE), (2 * TILE, TILE), (3 * TILE, TILE)],
            ),
        ] {
            let mut calls = Vec::new();
            estimate_tiles(beta, |lo, block| {
                assert!(block.iter().all(|&r| r == 0), "tile {lo} not zeroed");
                calls.push((lo, block.len()));
                // Dirty the block: the next tile must start zeroed again.
                block.fill(1);
            });
            assert_eq!(calls, want, "beta={beta}");
        }
    }

    #[test]
    fn estimates_match_the_dense_row_at_every_precision() {
        for k in 4u8..=16 {
            let beta = 1usize << k;
            let max_rho = 64 - k + 1;
            // A deterministic spread of indices, ρ cycling through 1..=max.
            let pairs: Vec<(u16, u8)> = (0..beta)
                .step_by((beta / 16).max(1) + 3)
                .enumerate()
                .map(|(n, i)| (u16::try_from(i).unwrap(), 1 + (n as u8 * 7) % max_rho))
                .collect();
            let (indices, rhos) = sections(&pairs);
            let row = SparseRow::new(&indices, &rhos);
            let dense = row.to_registers(beta);
            assert_eq!(
                row.estimate(beta).to_bits(),
                estimate_from_registers(&dense).to_bits(),
                "k={k}"
            );
            assert_eq!(
                SparseRow::EMPTY.estimate(beta).to_bits(),
                estimate_from_registers(&vec![0u8; beta]).to_bits(),
                "k={k}"
            );
        }
    }

    #[test]
    fn rows_exceed_agrees_with_a_dense_comparison() {
        let beta = 64usize;
        // Deterministic pseudo-random rows over a small index range, so
        // overlaps, ties and one-sided registers all occur.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let random_row = |next: &mut dyn FnMut() -> u64| {
            let mut dense = vec![0u8; beta];
            for r in dense.iter_mut() {
                if next() & 3 == 0 {
                    *r = 1 + (next() % 3) as u8;
                }
            }
            let pairs: Vec<(u16, u8)> = dense
                .iter()
                .enumerate()
                .filter(|&(_, &r)| r != 0)
                .map(|(i, &r)| (u16::try_from(i).unwrap(), r))
                .collect();
            (dense, sections(&pairs))
        };
        for _ in 0..200 {
            let (da, (ai, ar)) = random_row(&mut next);
            let (db, (bi, br)) = random_row(&mut next);
            let a = SparseRow::new(&ai, &ar);
            let b = SparseRow::new(&bi, &br);
            let want = (
                da.iter().zip(&db).any(|(x, y)| x > y),
                db.iter().zip(&da).any(|(x, y)| x > y),
            );
            assert_eq!(rows_exceed(a, b), want, "a={a:?} b={b:?}");
        }
    }

    #[test]
    fn rows_exceed_on_disjoint_and_shared_indices() {
        let (ai, ar) = sections(&[(1, 2)]);
        let (bi, br) = sections(&[(2, 2)]);
        let (ci, cr) = sections(&[(1, 1), (2, 2)]);
        let a = SparseRow::new(&ai, &ar);
        let b = SparseRow::new(&bi, &br);
        let c = SparseRow::new(&ci, &cr);
        // Disjoint rows each hold a register the other lacks.
        assert_eq!(rows_exceed(a, b), (true, true));
        // Shared index 1: a's ρ is larger; index 2 only c holds.
        assert_eq!(rows_exceed(a, c), (true, true));
        // b is covered by c register for register.
        assert_eq!(rows_exceed(b, c), (false, true));
        assert_eq!(rows_exceed(c, b), (true, false));
    }

    #[test]
    fn rows_compare_by_their_pairs() {
        let (ai, ar) = sections(&[(4, 2), (9, 1)]);
        let (bi, br) = sections(&[(4, 2), (9, 1)]);
        let (ci, cr) = sections(&[(4, 2), (9, 3)]);
        let (di, dr) = sections(&[(4, 2), (10, 1)]);
        let a = SparseRow::new(&ai, &ar);
        assert_eq!(a, SparseRow::new(&bi, &br));
        assert_ne!(a, SparseRow::new(&ci, &cr));
        assert_ne!(a, SparseRow::new(&di, &dr));
        assert_ne!(a, SparseRow::EMPTY);
    }
}

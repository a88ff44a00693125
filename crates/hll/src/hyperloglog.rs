//! Classic HyperLogLog cardinality sketch (Flajolet et al., AofA 2007).
//!
//! A HyperLogLog with precision `k` keeps `β = 2^k` one-byte registers. For
//! each incoming 64-bit hash `h`, the low `k` bits pick a register `ι(h)`
//! and `ρ(h)` — the 1-based position of the least-significant set bit of the
//! remaining bits (the convention used in the paper, §3.2.1) — updates the
//! register to `max(register, ρ)`. The harmonic-mean estimator with
//! small-range (linear-counting) correction recovers the number of distinct
//! items within a relative standard error of about `1.04 / sqrt(β)`.
//!
//! Unions are lossless: register-wise max of two sketches equals the sketch
//! of the union of the two streams — the property the influence oracle
//! (paper §4.1) exploits.

use crate::hash;

/// Supported precision range: `β = 2^k` registers for `k ∈ [4, 16]`.
pub const MIN_PRECISION: u8 = 4;
/// See [`MIN_PRECISION`].
pub const MAX_PRECISION: u8 = 16;

/// A classic HyperLogLog sketch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HyperLogLog {
    precision: u8,
    registers: Vec<u8>,
}

/// Splits a 64-bit hash into `(register index, ρ)` for precision `k`.
///
/// The low `k` bits index the register; ρ is the position (1-based) of the
/// least-significant 1 bit of the remaining `64 − k` bits, capped at
/// `64 − k + 1` when those bits are all zero.
#[inline]
pub(crate) fn split_hash(h: u64, precision: u8) -> (usize, u8) {
    // Masked to the low `precision ≤ 16` bits, so the value fits any usize.
    let idx = (h & ((1u64 << precision) - 1)) as usize; // xtask-allow: no-lossy-cast (≤16 masked bits)
    let rest = h >> precision;
    let max_rho = 64 - u32::from(precision) + 1;
    let rho = if rest == 0 {
        max_rho
    } else {
        rest.trailing_zeros() + 1
    };
    // ρ ≤ 64 − k + 1 ≤ 61 fits comfortably in a byte.
    (idx, rho as u8) // xtask-allow: no-lossy-cast (ρ ≤ 61)
}

/// The bias-correction constant `α_β` from the HLL paper.
#[inline]
fn alpha(num_registers: usize) -> f64 {
    match num_registers {
        16 => 0.673,
        32 => 0.697,
        64 => 0.709,
        m => 0.7213 / (1.0 + 1.079 / m as f64),
    }
}

/// `INV_POW2[r] = 2^-r`, exact in `f64` (exponent-only bit patterns).
///
/// Every register value `r ≤ 64 − k + 1 ≤ 61` indexes in range. The table
/// is **bit-identical** to the previous `1.0 / (1u64 << r) as f64` form:
/// `1u64 << r` is a power of two ≤ 2^61, exactly representable in `f64`,
/// and dividing 1.0 by an exact power of two yields the exact power
/// `2^-r` — the same value `f64::from_bits((1023 − r) << 52)` encodes
/// directly. The lookup replaces an int→float convert plus a divide per
/// register on the estimator hot loop without perturbing any estimate.
const INV_POW2: [f64; 64] = {
    let mut table = [0.0f64; 64];
    let mut r = 0usize;
    while r < 64 {
        // r < 64 so the cast is lossless and the biased exponent positive.
        table[r] = f64::from_bits((1023 - r as u64) << 52); // xtask-allow: no-lossy-cast (r < 64)
        r += 1;
    }
    table
};

/// Applies the harmonic-mean estimator with small-range correction to an
/// accumulated `(Σ 2^-r, #zero registers)` pair for `m` registers.
#[inline]
// xtask-contract: alloc-free, kernel
fn finish_estimate(m_usize: usize, sum: f64, zeros: usize) -> f64 {
    let m = m_usize as f64;
    let raw = alpha(m_usize) * m * m / sum;
    // Small-range correction: fall back to linear counting while registers
    // remain empty. (No large-range correction is needed with 64-bit hashes.)
    if raw <= 2.5 * m && zeros > 0 {
        m * (m / zeros as f64).ln()
    } else {
        raw
    }
}

/// Estimates cardinality from a register array (shared by [`HyperLogLog`]
/// and the versioned sketch, whose per-cell maxima form the same array).
// xtask-contract: alloc-free, kernel
pub fn estimate_from_registers(registers: &[u8]) -> f64 {
    let mut sum = 0.0f64;
    let mut zeros = 0usize;
    for &r in registers {
        // r ≤ 64 − k + 1 ≤ 61, so the table lookup is in range.
        sum += INV_POW2[usize::from(r)];
        if r == 0 {
            zeros += 1;
        }
    }
    finish_estimate(registers.len(), sum, zeros)
}

/// Streaming version of [`estimate_from_registers`]: absorb merged
/// registers in ascending position order — in chunks of any size — then
/// [`finish`](Self::finish). Because the per-register accumulation and the
/// final harmonic-mean correction are the exact same operations in the
/// exact same order, the result is bit-identical to materializing all the
/// registers and calling [`estimate_from_registers`].
///
/// This is the estimator kernel for callers that compute a k-way union on
/// the fly (e.g. the frozen oracle arenas merging their seeds' stored
/// registers tile by tile) and never want to allocate the merged register
/// array.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunningEstimator {
    sum: f64,
    zeros: usize,
    m: usize,
}

impl RunningEstimator {
    /// An estimator that has absorbed no registers yet.
    #[inline]
    // xtask-contract: alloc-free, no-panic
    pub fn new() -> Self {
        RunningEstimator::default()
    }

    /// Absorbs the next `regs.len()` registers (positions
    /// `self.count()..`).
    #[inline]
    // xtask-contract: alloc-free, kernel
    pub fn absorb_registers(&mut self, regs: &[u8]) {
        for &r in regs {
            // r ≤ 64 − k + 1 ≤ 61, so the table lookup is in range.
            self.sum += INV_POW2[usize::from(r)];
            if r == 0 {
                self.zeros += 1;
            }
        }
        self.m += regs.len();
    }

    /// Absorbs one register block into each of four estimators at once —
    /// the batch kernel's GROUP-interleaved absorb. Per estimator this
    /// performs exactly the operations of
    /// [`absorb_registers`](Self::absorb_registers) on its own block, in
    /// the same order, so every estimator's state is bit-identical to four
    /// separate calls. Fusing the loops interleaves the four serial `sum`
    /// dependency chains — the latency floor of a lone absorb — so the
    /// adds issue back to back instead of waiting on one chain.
    ///
    /// # Panics
    ///
    /// Panics if the four blocks differ in length.
    ///
    /// Deliberately **not** inlined: inside the callers' merge loops the
    /// four running sums' live ranges cross the vector-register-hungry
    /// merge phase and get spilled to stack slots, serializing the adds
    /// through one register and a store-forward round trip each. As a
    /// standalone function the loop owns the register file and the four
    /// chains stay resident (one call per tile amortizes to noise).
    #[inline(never)]
    // xtask-contract: alloc-free, kernel
    pub fn absorb_x4(ests: &mut [RunningEstimator; 4], blocks: [&[u8]; 4]) {
        let [b0, b1, b2, b3] = blocks;
        assert!(
            b0.len() == b1.len() && b0.len() == b2.len() && b0.len() == b3.len(),
            "absorb_x4 blocks must share one length"
        );
        let [e0, e1, e2, e3] = ests;
        let (mut s0, mut s1, mut s2, mut s3) = (e0.sum, e1.sum, e2.sum, e3.sum);
        let (mut z0, mut z1, mut z2, mut z3) = (e0.zeros, e1.zeros, e2.zeros, e3.zeros);
        for (i, &r0) in b0.iter().enumerate() {
            // Registers are ≤ 64 − k + 1 ≤ 61, so the lookups are in range.
            let (r1, r2, r3) = (b1[i], b2[i], b3[i]);
            s0 += INV_POW2[usize::from(r0)];
            s1 += INV_POW2[usize::from(r1)];
            s2 += INV_POW2[usize::from(r2)];
            s3 += INV_POW2[usize::from(r3)];
            z0 += usize::from(r0 == 0);
            z1 += usize::from(r1 == 0);
            z2 += usize::from(r2 == 0);
            z3 += usize::from(r3 == 0);
        }
        (e0.sum, e1.sum, e2.sum, e3.sum) = (s0, s1, s2, s3);
        (e0.zeros, e1.zeros, e2.zeros, e3.zeros) = (z0, z1, z2, z3);
        e0.m += b0.len();
        e1.m += b1.len();
        e2.m += b2.len();
        e3.m += b3.len();
    }

    /// Registers absorbed so far.
    #[inline]
    // xtask-contract: alloc-free, no-panic
    pub fn count(&self) -> usize {
        self.m
    }

    /// The cardinality estimate over every register absorbed so far.
    #[inline]
    // xtask-contract: alloc-free, kernel
    pub fn finish(&self) -> f64 {
        finish_estimate(self.m, self.sum, self.zeros)
    }
}

/// Estimates the cardinality of the union of two register arrays without
/// materializing the merged array. Lengths must match; summation order is
/// the sequential register order, identical to
/// [`estimate_from_registers`] over the register-wise maxima.
// xtask-contract: alloc-free, kernel
fn estimate_union_slices(a: &[u8], b: &[u8]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut sum = 0.0f64;
    let mut zeros = 0usize;
    for (&x, &y) in a.iter().zip(b) {
        let r = x.max(y);
        sum += INV_POW2[usize::from(r)];
        if r == 0 {
            zeros += 1;
        }
    }
    finish_estimate(a.len(), sum, zeros)
}

impl HyperLogLog {
    /// Creates an empty sketch with `β = 2^precision` registers.
    ///
    /// # Panics
    ///
    /// Panics if `precision` is outside `[4, 16]`.
    pub fn new(precision: u8) -> Self {
        assert!(
            (MIN_PRECISION..=MAX_PRECISION).contains(&precision),
            "precision must be in [{MIN_PRECISION}, {MAX_PRECISION}], got {precision}"
        );
        HyperLogLog {
            precision,
            registers: vec![0; 1 << precision],
        }
    }

    /// The precision `k` (so `β = 2^k`).
    #[inline]
    pub fn precision(&self) -> u8 {
        self.precision
    }

    /// Number of registers `β`.
    #[inline]
    pub fn num_registers(&self) -> usize {
        self.registers.len()
    }

    /// Adds an already-hashed item.
    #[inline]
    pub fn add_hash(&mut self, h: u64) {
        let (idx, rho) = split_hash(h, self.precision);
        if rho > self.registers[idx] {
            self.registers[idx] = rho;
        }
    }

    /// Hashes and adds a `u64` item.
    #[inline]
    pub fn add_u64(&mut self, item: u64) {
        self.add_hash(hash::hash64(item));
    }

    /// Estimates the number of distinct items added.
    pub fn estimate(&self) -> f64 {
        estimate_from_registers(&self.registers)
    }

    /// The theoretical relative standard error `≈ 1.04 / sqrt(β)`.
    pub fn relative_error(&self) -> f64 {
        1.04 / (self.num_registers() as f64).sqrt()
    }

    /// Union: register-wise maximum. Both sketches must share a precision.
    ///
    /// # Panics
    ///
    /// Panics on precision mismatch.
    pub fn merge(&mut self, other: &HyperLogLog) {
        assert_eq!(
            self.precision, other.precision,
            "cannot merge HLL sketches of different precision"
        );
        for (a, &b) in self.registers.iter_mut().zip(&other.registers) {
            if b > *a {
                *a = b;
            }
        }
    }

    /// Estimates the cardinality of the union of `self` and `other` without
    /// materializing the merged sketch — the hot operation of greedy
    /// influence maximization (one marginal-gain probe per candidate).
    ///
    /// # Panics
    ///
    /// Panics on precision mismatch.
    pub fn estimate_union(&self, other: &HyperLogLog) -> f64 {
        assert_eq!(
            self.precision, other.precision,
            "cannot union HLL sketches of different precision"
        );
        estimate_union_slices(&self.registers, &other.registers)
    }

    /// Raises register `idx` to at least `rho`: the union with a single
    /// register, which is how the frozen oracle arenas absorb a stored row
    /// of `(index, ρ)` pairs into a union sketch.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not below `β`.
    #[inline]
    // xtask-contract: alloc-free, kernel
    pub fn merge_register(&mut self, idx: usize, rho: u8) {
        let r = &mut self.registers[idx];
        *r = (*r).max(rho);
    }

    /// Whether no item has ever been added.
    pub fn is_empty(&self) -> bool {
        self.registers.iter().all(|&r| r == 0)
    }

    /// Resets all registers to zero.
    pub fn clear(&mut self) {
        self.registers.fill(0);
    }

    /// Direct access to the register array (read-only).
    pub fn registers(&self) -> &[u8] {
        &self.registers
    }

    /// Builds a sketch from an explicit register array.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two in `[2^4, 2^16]`.
    pub fn from_registers(registers: Vec<u8>) -> Self {
        let len = registers.len();
        assert!(
            len.is_power_of_two() && ((1 << MIN_PRECISION)..=(1 << MAX_PRECISION)).contains(&len),
            "register array length must be a power of two in [16, 65536]"
        );
        HyperLogLog {
            // The assert above bounds len ≤ 2^16, so trailing_zeros ≤ 16.
            precision: len.trailing_zeros() as u8, // xtask-allow: no-lossy-cast (≤ 16 after assert)
            registers,
        }
    }

    /// Heap bytes used by the sketch (for memory accounting, Table 4).
    pub fn heap_bytes(&self) -> usize {
        self.registers.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_hash_uses_low_bits_for_index() {
        // k = 4: low 4 bits index, then trailing zeros of the rest + 1.
        // h = 0b...101_0110: idx = 0b0110 = 6, rest = ...101 -> rho = 1.
        let (idx, rho) = split_hash(0b101_0110, 4);
        assert_eq!(idx, 6);
        assert_eq!(rho, 1);
        // rest with two trailing zeros -> rho 3.
        let (_, rho) = split_hash(0b100_0000, 4);
        assert_eq!(rho, 3);
        // all-zero rest saturates at 64 - k + 1.
        let (idx, rho) = split_hash(0b1111, 4);
        assert_eq!(idx, 15);
        assert_eq!(rho, 61);
    }

    #[test]
    fn empty_estimates_zero() {
        let s = HyperLogLog::new(9);
        assert!(s.is_empty());
        assert_eq!(s.estimate(), 0.0);
    }

    #[test]
    fn duplicates_do_not_change_sketch() {
        let mut s = HyperLogLog::new(8);
        s.add_u64(42);
        let snapshot = s.clone();
        for _ in 0..100 {
            s.add_u64(42);
        }
        assert_eq!(s, snapshot);
    }

    #[test]
    fn small_cardinalities_are_near_exact() {
        let mut s = HyperLogLog::new(10);
        for v in 0..100u64 {
            s.add_u64(v);
        }
        let est = s.estimate();
        assert!((est - 100.0).abs() < 10.0, "estimate {est}");
    }

    #[test]
    fn large_cardinality_within_error_bound() {
        for &precision in &[6u8, 9, 12] {
            let mut s = HyperLogLog::new(precision);
            let n = 50_000u64;
            for v in 0..n {
                s.add_u64(v);
            }
            let est = s.estimate();
            let rel = (est - n as f64).abs() / n as f64;
            // Allow 5 standard errors.
            assert!(
                rel < 5.0 * s.relative_error(),
                "k={precision}: rel err {rel} vs bound {}",
                5.0 * s.relative_error()
            );
        }
    }

    #[test]
    fn merge_equals_union() {
        let mut a = HyperLogLog::new(9);
        let mut b = HyperLogLog::new(9);
        let mut u = HyperLogLog::new(9);
        for v in 0..3000u64 {
            a.add_u64(v);
            u.add_u64(v);
        }
        for v in 2000..6000u64 {
            b.add_u64(v);
            u.add_u64(v);
        }
        a.merge(&b);
        assert_eq!(a, u);
    }

    #[test]
    fn inv_pow2_table_is_bit_identical_to_divide() {
        for r in 0..64u32 {
            let divide = 1.0 / (1u64 << r) as f64;
            assert_eq!(
                INV_POW2[r as usize].to_bits(),
                divide.to_bits(),
                "2^-{r} mismatch"
            );
        }
    }

    #[test]
    fn merge_register_matches_sketch_merge() {
        let mut a = HyperLogLog::new(8);
        let mut b = HyperLogLog::new(8);
        for v in 0..2500u64 {
            a.add_u64(v);
        }
        for v in 2000..7000u64 {
            b.add_u64(v);
        }
        let mut via_registers = a.clone();
        for (idx, &rho) in b.registers().iter().enumerate() {
            via_registers.merge_register(idx, rho);
        }
        let mut via_sketch = a.clone();
        via_sketch.merge(&b);
        assert_eq!(via_registers, via_sketch);
        assert_eq!(
            via_registers.estimate().to_bits(),
            a.estimate_union(&b).to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn merge_register_out_of_range_panics() {
        let mut a = HyperLogLog::new(4);
        a.merge_register(16, 1);
    }

    #[test]
    fn running_estimator_matches_batch_in_any_chunking() {
        let mut a = HyperLogLog::new(8);
        for v in 0..5000u64 {
            a.add_u64(v);
        }
        let regs = a.registers();
        let batch = estimate_from_registers(regs).to_bits();
        for chunk in [1usize, 7, 64, 256, regs.len()] {
            let mut est = RunningEstimator::new();
            for block in regs.chunks(chunk) {
                est.absorb_registers(block);
            }
            assert_eq!(est.count(), regs.len());
            assert_eq!(est.finish().to_bits(), batch, "chunk size {chunk}");
        }
    }

    #[test]
    fn estimate_union_matches_materialized_merge() {
        let mut a = HyperLogLog::new(9);
        let mut b = HyperLogLog::new(9);
        for v in 0..4000u64 {
            a.add_u64(v);
        }
        for v in 3000..9000u64 {
            b.add_u64(v);
        }
        let lazy = a.estimate_union(&b);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(lazy, merged.estimate());
        // Union with an empty sketch is the original estimate.
        assert_eq!(a.estimate_union(&HyperLogLog::new(9)), a.estimate());
    }

    #[test]
    fn merge_is_idempotent_and_commutative() {
        let mut a = HyperLogLog::new(7);
        let mut b = HyperLogLog::new(7);
        for v in 0..500u64 {
            if v % 2 == 0 {
                a.add_u64(v);
            } else {
                b.add_u64(v);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        let mut abb = ab.clone();
        abb.merge(&b);
        assert_eq!(abb, ab);
    }

    #[test]
    #[should_panic(expected = "different precision")]
    fn merge_precision_mismatch_panics() {
        let mut a = HyperLogLog::new(8);
        let b = HyperLogLog::new(9);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "precision must be in")]
    fn bad_precision_panics() {
        let _ = HyperLogLog::new(3);
    }

    #[test]
    fn clear_resets() {
        let mut s = HyperLogLog::new(6);
        s.add_u64(1);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn from_registers_roundtrip() {
        let mut s = HyperLogLog::new(5);
        for v in 0..200u64 {
            s.add_u64(v);
        }
        let rebuilt = HyperLogLog::from_registers(s.registers().to_vec());
        assert_eq!(rebuilt, s);
        assert_eq!(rebuilt.precision(), 5);
    }

    #[test]
    fn paper_example_sketch_updates() {
        // §3.2.1 example: 4 cells, arrivals (c3,2), (c1,3), (c0,7), (c2,2),
        // (c1,2) yield registers [7, 3, 2, 2].
        let mut regs = vec![0u8; 4];
        for (cell, rho) in [(3, 2), (1, 3), (0, 7), (2, 2), (1, 2)] {
            if rho > regs[cell] {
                regs[cell] = rho;
            }
        }
        assert_eq!(regs, vec![7, 3, 2, 2]);
    }

    #[test]
    fn absorb_x4_matches_four_separate_absorbs() {
        // Four different register blocks, absorbed in two chunks so the
        // running state carries across calls.
        let blocks: Vec<Vec<u8>> = (0..4u8)
            .map(|q| (0..64u8).map(|i| (i % 7 + q) % 7).collect())
            .collect();
        let mut fused = [RunningEstimator::new(); 4];
        for half in [0..32, 32..64] {
            RunningEstimator::absorb_x4(
                &mut fused,
                [
                    &blocks[0][half.clone()],
                    &blocks[1][half.clone()],
                    &blocks[2][half.clone()],
                    &blocks[3][half],
                ],
            );
        }
        for (q, est) in fused.iter().enumerate() {
            let mut single = RunningEstimator::new();
            single.absorb_registers(&blocks[q]);
            assert_eq!(est.count(), 64);
            assert_eq!(
                est.finish().to_bits(),
                single.finish().to_bits(),
                "lane {q}"
            );
            assert_eq!(
                est.finish().to_bits(),
                estimate_from_registers(&blocks[q]).to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "absorb_x4 blocks must share one length")]
    fn absorb_x4_rejects_blocks_of_unequal_length() {
        let mut ests = [RunningEstimator::new(); 4];
        RunningEstimator::absorb_x4(&mut ests, [&[0; 4], &[0; 4], &[0; 3], &[0; 4]]);
    }

    #[test]
    fn running_estimator_counts_absorbed_registers() {
        let mut est = RunningEstimator::new();
        assert_eq!(est.count(), 0);
        est.absorb_registers(&[0; 10]);
        est.absorb_registers(&[]);
        est.absorb_registers(&[1; 6]);
        assert_eq!(est.count(), 16);
        let mut regs = [0u8; 16];
        regs[10..].fill(1);
        assert_eq!(
            est.finish().to_bits(),
            estimate_from_registers(&regs).to_bits()
        );
    }

    #[test]
    fn merge_register_never_lowers_a_register() {
        let mut s = HyperLogLog::new(4);
        s.merge_register(3, 5);
        s.merge_register(3, 2);
        s.merge_register(3, 0);
        assert_eq!(s.registers()[3], 5);
        s.merge_register(3, 9);
        assert_eq!(s.registers()[3], 9);
        assert!(!s.is_empty());
        assert_eq!(s.registers().iter().filter(|&&r| r != 0).count(), 1);
    }

    #[test]
    fn relative_error_follows_the_register_count() {
        assert!((HyperLogLog::new(4).relative_error() - 0.26).abs() < 1e-12);
        assert!((HyperLogLog::new(16).relative_error() - 1.04 / 256.0).abs() < 1e-12);
        for k in MIN_PRECISION..=MAX_PRECISION {
            let s = HyperLogLog::new(k);
            assert_eq!(s.num_registers(), 1 << k);
            assert!(s.heap_bytes() >= s.num_registers());
        }
    }

    #[test]
    #[should_panic(expected = "power of two in [16, 65536]")]
    fn from_registers_rejects_a_non_power_of_two_length() {
        let _ = HyperLogLog::from_registers(vec![0; 48]);
    }
}

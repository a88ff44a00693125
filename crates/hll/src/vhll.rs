//! The versioned HyperLogLog (vHLL) sketch — §3.2.2 of the paper.
//!
//! A plain HyperLogLog register keeps only the maximum ρ ever seen, which is
//! wrong for the IRS computation: when a sketch is merged into a
//! *predecessor* node's sketch at an earlier anchor time `t`, only the items
//! whose information channel ends within `[t, t + ω − 1]` may contribute. The
//! vHLL therefore keeps, per register, a **version list** of `(ρ, time)`
//! pairs under dominance pruning:
//!
//! > `(ρ′, t′)` *dominates* `(ρ, t)` iff `t′ ≤ t` and `ρ′ ≥ ρ`.
//!
//! A dominated pair can never be the in-window maximum for any anchor, so it
//! is dropped. The surviving list, sorted by **strictly increasing time, has
//! strictly increasing ρ** — the core invariant of this module (checked by
//! [`VersionedHll::check_invariants`] and property tests). Lemma 4 of the
//! paper shows the expected list length is `O(log ω)`.
//!
//! The sketch supports:
//!
//! * [`add_hash`](VersionedHll::add_hash) — insert an item observed at a time,
//! * [`merge_from`](VersionedHll::merge_from) — the window-filtered merge used
//!   when processing an interaction `(u, v, t)` in reverse time order
//!   (`φ(u) ← φ(u) ∪ {entries of φ(v) ending within ω of t}`),
//! * [`estimate`](VersionedHll::estimate) — cardinality of *all* items ever
//!   retained (the size of the node's IRS),
//! * [`estimate_window`](VersionedHll::estimate_window) — sliding-window
//!   cardinality at an arbitrary anchor (the sliding-window HLL view of
//!   Kumar et al., ECML-PKDD 2015, that inspired the sketch),
//! * [`to_hyperloglog`](VersionedHll::to_hyperloglog) — collapse to a plain
//!   HLL of per-cell maxima, enabling O(β) influence-oracle unions.
//!
//! Only occupied cells are stored: their version lists are packed in cell
//! order, and an occupancy bitmap of `β` bits maps a cell to its slot. A
//! sketch therefore costs its populated cells plus `β / 8` bytes, not `β`
//! version lists — most sketches of a real network populate a few percent
//! of their cells.

use crate::hash;
use crate::hyperloglog::split_hash;
use crate::hyperloglog::{estimate_from_registers, HyperLogLog, MAX_PRECISION, MIN_PRECISION};
use std::fmt;

/// Why a single version list fails the dominance-chain invariant.
///
/// Produced by [`check_entries`] (and wrapped with its cell index in
/// [`SketchInvariantError::Cell`] by
/// [`VersionedHll::check_dominance_chain`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryError {
    /// Entries `index − 1` and `index` are not in strictly increasing
    /// `(time, ρ)` order — one of them dominates, or should have evicted,
    /// the other (paper Alg. 3).
    Order {
        /// Index of the second entry of the offending adjacent pair.
        index: usize,
    },
    /// An entry's ρ lies outside `[1, 64 − k + 1]` — impossible for any
    /// `k`-bit-prefix hash split, so the list was not produced by
    /// `ApproxAdd`.
    RhoRange {
        /// Index of the offending entry.
        index: usize,
        /// The out-of-range ρ value.
        rho: u8,
        /// The maximal legal ρ (`64 − precision + 1`).
        max_rho: u8,
    },
}

impl fmt::Display for EntryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EntryError::Order { index } => write!(
                f,
                "entries {} and {index} violate the dominance chain \
                 (time and \u{3c1} must both strictly increase)",
                index.wrapping_sub(1)
            ),
            EntryError::RhoRange {
                index,
                rho,
                max_rho,
            } => write!(
                f,
                "entry {index} has \u{3c1} = {rho} outside [1, {max_rho}]"
            ),
        }
    }
}

/// Structural corruption detected in a [`VersionedHll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SketchInvariantError {
    /// Precision outside `[MIN_PRECISION, MAX_PRECISION]`.
    Precision(u8),
    /// The cell vector's length is not `2^precision`.
    CellCount {
        /// Expected `2^precision`.
        expected: usize,
        /// Actual number of cells supplied.
        got: usize,
    },
    /// A cell's version list fails [`check_entries`].
    Cell {
        /// Index of the corrupt cell.
        cell: usize,
        /// What is wrong with its version list.
        error: EntryError,
    },
    /// The occupancy bitmap marks a different number of cells than there
    /// are stored version lists.
    Occupancy {
        /// Set bits in the occupancy bitmap.
        marked: usize,
        /// Version lists stored.
        lists: usize,
    },
    /// A cell marked occupied holds no entries.
    EmptyCell {
        /// Index of the empty cell.
        cell: usize,
    },
}

impl fmt::Display for SketchInvariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SketchInvariantError::Precision(p) => write!(
                f,
                "precision {p} outside [{MIN_PRECISION}, {MAX_PRECISION}]"
            ),
            SketchInvariantError::CellCount { expected, got } => {
                write!(f, "expected {expected} cells, got {got}")
            }
            SketchInvariantError::Cell { cell, error } => {
                write!(f, "cell {cell}: {error}")
            }
            SketchInvariantError::Occupancy { marked, lists } => write!(
                f,
                "occupancy bitmap marks {marked} cells but {lists} version lists are stored"
            ),
            SketchInvariantError::EmptyCell { cell } => {
                write!(f, "cell {cell} is marked occupied but holds no entries")
            }
        }
    }
}

impl std::error::Error for SketchInvariantError {}

/// Validates one version list against the vHLL core invariant: entries
/// sorted by strictly increasing time **and** strictly increasing ρ (the
/// shape dominance pruning leaves behind, §3.2.2 / Alg. 3), with every ρ in
/// `[1, max_rho]`.
pub fn check_entries(entries: &[VersionEntry], max_rho: u8) -> Result<(), EntryError> {
    for (i, e) in entries.iter().enumerate() {
        if e.rho == 0 || e.rho > max_rho {
            return Err(EntryError::RhoRange {
                index: i,
                rho: e.rho,
                max_rho,
            });
        }
        if i > 0 {
            let p = entries[i - 1];
            if !(p.time < e.time && p.rho < e.rho) {
                return Err(EntryError::Order { index: i });
            }
        }
    }
    Ok(())
}

/// Hooks into the vHLL merge internals, for observability layers living
/// above this crate (the dependency arrow points core → hll, so core's
/// `Recorder` cannot be named here; instead core adapts it to this minimal
/// trait).
///
/// All methods take `&mut self` — a merge has exclusive access to its
/// observer — and a no-op implementation ([`NoopMergeObserver`]) must
/// monomorphize to nothing. Any work needed only to *compute* an observed
/// quantity (bitmap popcounts, before/after spill checks) is gated on
/// [`MergeObserver::ENABLED`], so the unobserved path pays zero cost.
pub trait MergeObserver {
    /// `true` iff the observer records anything; gates metric computation.
    const ENABLED: bool;

    /// Occupied source cells walked by one merge.
    fn cells_visited(&mut self, n: u64);

    /// Registers skipped by one merge thanks to the occupancy bitmap
    /// (`β` minus the source's populated cells).
    fn cells_skipped(&mut self, n: u64);

    /// Version entries read across both chains of the merged cells.
    fn entries_scanned(&mut self, n: u64);

    /// Version entries dropped by dominance during the linear merge.
    fn entries_pruned(&mut self, n: u64);

    /// Destination version lists that spilled inline→heap during the merge.
    fn spills(&mut self, n: u64);
}

/// The do-nothing [`MergeObserver`]: compiles away entirely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopMergeObserver;

impl MergeObserver for NoopMergeObserver {
    const ENABLED: bool = false;

    #[inline(always)]
    fn cells_visited(&mut self, _n: u64) {}

    #[inline(always)]
    fn cells_skipped(&mut self, _n: u64) {}

    #[inline(always)]
    fn entries_scanned(&mut self, _n: u64) {}

    #[inline(always)]
    fn entries_pruned(&mut self, _n: u64) {}

    #[inline(always)]
    fn spills(&mut self, _n: u64) {}
}

/// One `(ρ, time)` version pair in a register's list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VersionEntry {
    /// Observation time (for IRS: the channel's earliest end time `λ`).
    pub time: i64,
    /// The ρ value (1-based least-significant-set-bit position).
    pub rho: u8,
}

const ZERO_ENTRY: VersionEntry = VersionEntry { time: 0, rho: 0 };

/// Storage of one register's version list: inline up to
/// [`VersionList::INLINE_CAP`] entries, spilled to a heap vector beyond.
#[derive(Clone, Debug)]
enum ListRepr {
    /// The common short-list case (Lemma 4: expected length `O(log ω)`)
    /// lives entirely inside the sketch's cell array — no heap allocation.
    Inline {
        /// Number of live entries in `buf[..len]`.
        len: u8,
        /// Fixed-capacity entry buffer; `buf[len..]` is unspecified filler.
        buf: [VersionEntry; VersionList::INLINE_CAP],
    },
    /// Lists that outgrow the inline buffer move to an ordinary vector.
    Spilled(Vec<VersionEntry>),
}

/// A register's dominance-pruned version list with a hand-rolled inline
/// small-buffer: lists of up to [`Self::INLINE_CAP`] entries are stored
/// inside the cell array itself, so the common short-list case (paper
/// Lemma 4 bounds the expected length by `O(log ω)`) performs zero heap
/// allocations. Longer lists spill to a heap vector transparently.
///
/// Equality compares the logical entry sequence, not the representation, so
/// an inline list and a spilled list with the same entries are equal.
#[derive(Clone, Debug)]
pub struct VersionList {
    repr: ListRepr,
}

impl Default for VersionList {
    fn default() -> Self {
        VersionList::new()
    }
}

impl PartialEq for VersionList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for VersionList {}

impl VersionList {
    /// Entries held without any heap allocation.
    pub const INLINE_CAP: usize = 3;

    /// An empty (inline) list.
    pub fn new() -> Self {
        VersionList {
            repr: ListRepr::Inline {
                len: 0,
                buf: [ZERO_ENTRY; Self::INLINE_CAP],
            },
        }
    }

    /// The live entries as a slice, in list order.
    #[inline]
    pub fn as_slice(&self) -> &[VersionEntry] {
        match &self.repr {
            ListRepr::Inline { len, buf } => &buf[..usize::from(*len)],
            ListRepr::Spilled(v) => v,
        }
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the list holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the list has spilled to a heap vector.
    #[inline]
    pub fn is_spilled(&self) -> bool {
        matches!(self.repr, ListRepr::Spilled(_))
    }

    /// Heap bytes owned by this list (zero while inline).
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            ListRepr::Inline { .. } => 0,
            ListRepr::Spilled(v) => v.capacity() * std::mem::size_of::<VersionEntry>(),
        }
    }

    /// Replaces the range `lo..hi` with the single entry `e` (the shape of
    /// every `ApproxAdd` mutation: evict a contiguous dominated run, insert
    /// the newcomer in its place).
    fn splice_one(&mut self, lo: usize, hi: usize, e: VersionEntry) {
        match &mut self.repr {
            ListRepr::Inline { len, buf } => {
                let l = usize::from(*len);
                debug_assert!(lo <= hi && hi <= l);
                let new_len = l - (hi - lo) + 1;
                if new_len <= Self::INLINE_CAP {
                    buf.copy_within(hi..l, lo + 1);
                    buf[lo] = e;
                    *len = new_len as u8; // xtask-allow: no-lossy-cast (new_len ≤ INLINE_CAP)
                } else {
                    // Only reachable with hi == lo and a full buffer: grow
                    // into a heap vector.
                    let mut v = Vec::with_capacity(Self::INLINE_CAP * 2 + 2);
                    v.extend_from_slice(&buf[..lo]);
                    v.push(e);
                    v.extend_from_slice(&buf[lo..l]);
                    self.repr = ListRepr::Spilled(v);
                }
            }
            ListRepr::Spilled(v) => {
                v.splice(lo..hi, std::iter::once(e));
            }
        }
    }

    /// Overwrites the list with `src` (used by the merge path to copy a
    /// scratch-merged chain back). An already-spilled list reuses its heap
    /// buffer; an inline list stays inline whenever `src` fits.
    fn replace_from(&mut self, src: &[VersionEntry]) {
        match &mut self.repr {
            ListRepr::Inline { len, buf } => {
                if src.len() <= Self::INLINE_CAP {
                    buf[..src.len()].copy_from_slice(src);
                    *len = src.len() as u8; // xtask-allow: no-lossy-cast (src.len() ≤ INLINE_CAP)
                } else {
                    self.repr = ListRepr::Spilled(src.to_vec());
                }
            }
            ListRepr::Spilled(v) => {
                v.clear();
                v.extend_from_slice(src);
            }
        }
    }

    /// Keeps only the entries satisfying `keep`, preserving order.
    fn retain(&mut self, mut keep: impl FnMut(&VersionEntry) -> bool) {
        match &mut self.repr {
            ListRepr::Inline { len, buf } => {
                let l = usize::from(*len);
                let mut w = 0usize;
                for r in 0..l {
                    if keep(&buf[r]) {
                        buf[w] = buf[r];
                        w += 1;
                    }
                }
                *len = w as u8; // xtask-allow: no-lossy-cast (w ≤ INLINE_CAP)
            }
            ListRepr::Spilled(v) => v.retain(keep),
        }
    }

    /// Builds a list holding a copy of `src`.
    fn from_slice(src: &[VersionEntry]) -> Self {
        let mut list = VersionList::new();
        list.replace_from(src);
        list
    }
}

/// A versioned HyperLogLog sketch with `β = 2^precision` registers.
///
/// Only occupied cells hold a version list. `cells` packs those lists in
/// ascending cell order, and a cell's slot in it is the number of
/// occupancy bits set below the cell's own bit. No stored list is ever
/// empty, so the packed form is canonical and the derived equality
/// compares sketches logically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VersionedHll {
    precision: u8,
    /// Version lists of the occupied cells, in ascending cell order.
    cells: Vec<VersionList>,
    /// Occupancy bitmap: bit `i` is set iff cell `i` is non-empty. Real
    /// sketches populate only a small fraction of their `β` cells (one per
    /// distinct hash prefix observed), so storage, merge and prune follow
    /// the set bits instead of all `β` cells.
    occupied: Vec<u64>,
}

/// Number of set bits of `word`.
#[inline]
fn popcount(word: u64) -> usize {
    word.count_ones() as usize // xtask-allow: no-lossy-cast (a popcount ≤ 64 fits usize)
}

/// Indices of the set bits of `words`, ascending.
#[inline]
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let bit = bits.trailing_zeros() as usize; // xtask-allow: no-lossy-cast (bit index < 64 fits usize)
                bits &= bits - 1;
                wi * 64 + bit
            })
        })
    })
}

impl VersionedHll {
    /// Creates an empty sketch with `β = 2^precision` cells. Only the
    /// `β / 64`-word occupancy bitmap is allocated; version lists are
    /// allocated as cells become occupied.
    ///
    /// # Panics
    ///
    /// Panics if `precision` is outside `[4, 16]`.
    pub fn new(precision: u8) -> Self {
        assert!(
            (MIN_PRECISION..=MAX_PRECISION).contains(&precision),
            "precision must be in [{MIN_PRECISION}, {MAX_PRECISION}], got {precision}"
        );
        VersionedHll {
            precision,
            cells: Vec::new(),
            occupied: vec![0; (1usize << precision).div_ceil(64)],
        }
    }

    /// Marks cell `idx` as non-empty in the occupancy bitmap.
    #[inline]
    fn mark_occupied(occupied: &mut [u64], idx: usize) {
        occupied[idx / 64] |= 1 << (idx % 64);
    }

    /// Whether cell `idx` is occupied, and its slot in the packed lists
    /// (where it would be inserted, if it is not).
    #[inline]
    fn slot_of(&self, idx: usize) -> (bool, usize) {
        let (wi, bit) = (idx / 64, idx % 64);
        let word = self.occupied[wi];
        let below: usize = self.occupied[..wi].iter().map(|&w| popcount(w)).sum();
        let slot = below + popcount(word & ((1u64 << bit) - 1));
        ((word >> bit) & 1 == 1, slot)
    }

    /// The occupied cells as `(cell index, version list)` pairs, ascending:
    /// one walk over the occupancy bitmap beside the packed lists, so it
    /// costs `β / 64` words plus the occupied cells, where probing every
    /// index with [`cell`](Self::cell) costs a rank per cell.
    #[inline]
    pub fn occupied_cells(&self) -> impl Iterator<Item = (usize, &VersionList)> {
        set_bits(&self.occupied).zip(&self.cells)
    }

    /// Empties every cell, leaving a sketch equal to
    /// [`VersionedHll::new`] at the same precision. The packed lists are
    /// truncated and the bitmap zeroed, so clearing costs the populated
    /// cells plus `β / 64` words, and both keep their capacity for reuse.
    // xtask-contract: alloc-free
    pub fn clear(&mut self) {
        self.cells.clear();
        self.occupied.fill(0);
    }

    /// The precision `k` (so `β = 2^k`).
    #[inline]
    pub fn precision(&self) -> u8 {
        self.precision
    }

    /// Number of cells `β`, occupied or not.
    #[inline]
    pub fn num_cells(&self) -> usize {
        1 << self.precision
    }

    /// Adds an already-hashed item observed at `time`.
    ///
    /// Returns `true` if the sketch changed (the pair was not dominated).
    #[inline]
    pub fn add_hash(&mut self, h: u64, time: i64) -> bool {
        let (idx, rho) = split_hash(h, self.precision);
        self.insert_at(idx, rho, time)
    }

    /// Hashes and adds a `u64` item observed at `time`.
    #[inline]
    pub fn add_u64(&mut self, item: u64, time: i64) -> bool {
        self.add_hash(hash::hash64(item), time)
    }

    /// Inserts `(ρ, time)` into cell `idx`: `ApproxAdd` on an occupied
    /// cell, a new one-entry list at the cell's slot otherwise (an empty
    /// list dominates nothing, so that insert always changes the sketch).
    #[inline]
    fn insert_at(&mut self, idx: usize, rho: u8, time: i64) -> bool {
        let (present, slot) = self.slot_of(idx);
        if present {
            return Self::insert_entry(&mut self.cells[slot], rho, time);
        }
        self.cells
            .insert(slot, VersionList::from_slice(&[VersionEntry { time, rho }]));
        Self::mark_occupied(&mut self.occupied, idx);
        true
    }

    /// The `ApproxAdd` routine (paper Alg. 3): inserts `(ρ, time)` into a
    /// cell list unless dominated; removes every pair the new one dominates.
    ///
    /// The list is kept sorted by strictly increasing time with strictly
    /// increasing ρ, so both checks are binary searches (`O(log² ω)` per
    /// insertion over the Lemma 4 expected list length) plus a bounded scan.
    fn insert_entry(cell: &mut VersionList, rho: u8, time: i64) -> bool {
        let entries = cell.as_slice();
        // Dominated? Some (ρ′, t′) with t′ ≤ time has ρ′ ≥ rho. Since ρ grows
        // with t, the strongest candidate is the last entry with t′ ≤ time.
        let pos_le = entries.partition_point(|e| e.time <= time);
        if pos_le > 0 && entries[pos_le - 1].rho >= rho {
            return false;
        }
        // Remove pairs the newcomer dominates: t′ ≥ time and ρ′ ≤ rho — a
        // contiguous run starting at the first entry with t′ ≥ time. The
        // run's end is found by binary search too (ρ increases with time).
        let pos_lt = entries.partition_point(|e| e.time < time);
        let end = pos_lt + entries[pos_lt..].partition_point(|e| e.rho <= rho);
        cell.splice_one(pos_lt, end, VersionEntry { time, rho });
        true
    }

    /// The `ApproxMerge` routine (paper Alg. 3): folds `other` into `self`,
    /// keeping only pairs whose time lies within the window anchored at
    /// `anchor`, i.e. `e.time − anchor < window` (equivalently
    /// `e.time − anchor + 1 ≤ ω`).
    ///
    /// In the IRS reverse scan, `anchor` is the current interaction's
    /// timestamp and `other` is the destination node's sketch.
    ///
    /// # Panics
    ///
    /// Panics on precision mismatch.
    pub fn merge_from(&mut self, other: &VersionedHll, anchor: i64, window: i64) {
        let mut scratch = Vec::new();
        self.merge_from_with(other, anchor, window, &mut scratch);
    }

    /// [`merge_from`](Self::merge_from) with a caller-provided scratch
    /// buffer, so a long run of merges (the IRS reverse scan performs one
    /// per interaction) allocates nothing in the steady state.
    ///
    /// Each cell pair is combined with a **linear dominance merge**: both
    /// chains are sorted by strictly increasing time and ρ, so one pass that
    /// visits entries in time order (ties: larger ρ first) and keeps an
    /// entry exactly when its ρ exceeds the running maximum reproduces the
    /// canonical non-dominated set — the same list repeated `ApproxAdd`
    /// calls would build, in `O(|a| + |b|)` instead of `O(|b| log² ω)`.
    ///
    /// Only `other`'s occupied cells are visited (via its occupancy bitmap),
    /// so the per-merge cost scales with the number of *populated* cells
    /// rather than with `β`.
    ///
    /// # Panics
    ///
    /// Panics on precision mismatch.
    pub fn merge_from_with(
        &mut self,
        other: &VersionedHll,
        anchor: i64,
        window: i64,
        scratch: &mut Vec<VersionEntry>,
    ) {
        self.merge_from_observed(other, anchor, window, scratch, &mut NoopMergeObserver);
    }

    /// [`merge_from_with`](Self::merge_from_with) reporting its internals to
    /// a [`MergeObserver`]. With [`NoopMergeObserver`] this monomorphizes to
    /// exactly the unobserved merge.
    ///
    /// # Panics
    ///
    /// Panics on precision mismatch.
    pub fn merge_from_observed<O: MergeObserver>(
        &mut self,
        other: &VersionedHll,
        anchor: i64,
        window: i64,
        scratch: &mut Vec<VersionEntry>,
        obs: &mut O,
    ) {
        assert_eq!(
            self.precision, other.precision,
            "cannot merge vHLL sketches of different precision"
        );
        let limit = anchor.saturating_add(window);
        let VersionedHll {
            cells, occupied, ..
        } = self;
        if O::ENABLED {
            let populated = u64::try_from(other.cells.len()).unwrap_or(u64::MAX);
            let total = u64::try_from(other.num_cells()).unwrap_or(u64::MAX);
            obs.cells_visited(populated);
            obs.cells_skipped(total.saturating_sub(populated));
        }
        // Walk `other`'s occupied cells word by word. `src` indexes its
        // packed lists; `dst_before` counts our occupied cells in earlier
        // words, so a cell's slot here is that count plus the rank of its
        // bit in the current word (re-read after every insert).
        let mut src = 0usize;
        let mut dst_before = 0usize;
        for (wi, &src_word) in other.occupied.iter().enumerate() {
            let mut bits = src_word;
            while bits != 0 {
                let bit = 1u64 << bits.trailing_zeros();
                bits &= bits - 1;
                let theirs = other.cells[src].as_slice();
                src += 1;
                // Times are increasing, so the in-window pairs form a prefix.
                let take = theirs.partition_point(|e| e.time < limit);
                if take == 0 {
                    continue;
                }
                let b = &theirs[..take];
                let slot = dst_before + popcount(occupied[wi] & (bit - 1));
                if occupied[wi] & bit == 0 {
                    // b is already a valid dominance chain: copy it wholesale.
                    if O::ENABLED {
                        obs.entries_scanned(u64::try_from(b.len()).unwrap_or(u64::MAX));
                        if b.len() > VersionList::INLINE_CAP {
                            obs.spills(1);
                        }
                    }
                    cells.insert(slot, VersionList::from_slice(b));
                    occupied[wi] |= bit;
                    continue;
                }
                let mine = &mut cells[slot];
                let a = mine.as_slice();
                scratch.clear();
                let (mut i, mut j) = (0usize, 0usize);
                let mut max_rho = 0u8;
                while i < a.len() || j < b.len() {
                    // Next entry in (time asc, ρ desc) order: at equal times the
                    // larger ρ goes first so the smaller is seen as dominated.
                    let from_a = j >= b.len()
                        || (i < a.len()
                            && (a[i].time < b[j].time
                                || (a[i].time == b[j].time && a[i].rho >= b[j].rho)));
                    let e = if from_a {
                        i += 1;
                        a[i - 1]
                    } else {
                        j += 1;
                        b[j - 1]
                    };
                    if e.rho > max_rho {
                        max_rho = e.rho;
                        scratch.push(e);
                    }
                }
                if O::ENABLED {
                    let scanned = a.len() + b.len();
                    obs.entries_scanned(u64::try_from(scanned).unwrap_or(u64::MAX));
                    let pruned = scanned.saturating_sub(scratch.len());
                    if pruned > 0 {
                        obs.entries_pruned(u64::try_from(pruned).unwrap_or(u64::MAX));
                    }
                }
                if scratch.as_slice() != a {
                    if O::ENABLED && !mine.is_spilled() && scratch.len() > VersionList::INLINE_CAP {
                        obs.spills(1);
                    }
                    mine.replace_from(scratch);
                }
            }
            dst_before += popcount(occupied[wi]);
        }
    }

    /// Unfiltered union of two version sketches (all pairs merged under
    /// dominance). Equivalent to `merge_from` with an unbounded window and
    /// an anchor at −∞.
    pub fn merge_all(&mut self, other: &VersionedHll) {
        self.merge_from(other, i64::MIN / 4, i64::MAX / 2);
    }

    /// Estimates the number of distinct items ever retained: the per-cell
    /// maximum ρ is the **last** list entry (the invariant makes it so), and
    /// the plain HLL estimator does the rest.
    pub fn estimate(&self) -> f64 {
        self.to_hyperloglog().estimate()
    }

    /// Sliding-window estimate: the number of distinct items observed within
    /// `[anchor, anchor + window − 1]`.
    ///
    /// # Contract
    ///
    /// Like the paper's sliding-window sketch, this is sound under the
    /// **reverse-time discipline**: insertions arrive in non-increasing time
    /// order and the query `anchor` is at or before the earliest insertion
    /// time processed so far. Querying a *later* anchor after earlier-time
    /// insertions may undercount, because dominance pruning has already
    /// discarded pairs that only such out-of-discipline queries would need.
    /// ([`estimate`](Self::estimate), by contrast, is always exact w.r.t. the
    /// retained maxima: a dominating pair has ρ′ ≥ ρ, so per-cell maxima are
    /// unaffected by pruning.)
    pub fn estimate_window(&self, anchor: i64, window: i64) -> f64 {
        let limit = anchor.saturating_add(window);
        let mut registers = vec![0u8; self.num_cells()];
        for (idx, list) in self.occupied_cells() {
            let c = list.as_slice();
            let lo = c.partition_point(|e| e.time < anchor);
            let hi = c.partition_point(|e| e.time < limit);
            if hi > lo {
                registers[idx] = c[hi - 1].rho; // ρ increases with time: last in range is max
            }
        }
        estimate_from_registers(&registers)
    }

    /// Collapses to a plain [`HyperLogLog`] of per-cell maxima. The result
    /// estimates the same cardinality as [`estimate`](Self::estimate) and can
    /// be unioned in `O(β)` — the influence-oracle fast path (paper §4.1).
    pub fn to_hyperloglog(&self) -> HyperLogLog {
        let mut registers = vec![0u8; self.num_cells()];
        self.collapse_registers_into(&mut registers);
        HyperLogLog::from_registers(registers)
    }

    /// Writes the per-cell maxima of [`to_hyperloglog`](Self::to_hyperloglog)
    /// into a caller-provided slice instead of allocating. The slice is
    /// zeroed and then only the occupied cells are written, so a sparse
    /// sketch costs its populated cells rather than `β` version lists.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the cell count `2^precision`.
    // xtask-contract: alloc-free
    pub fn collapse_registers_into(&self, out: &mut [u8]) {
        assert_eq!(
            out.len(),
            self.num_cells(),
            "collapse target length must equal the cell count"
        );
        out.fill(0);
        for (idx, rho) in self.collapsed_cells() {
            out[idx] = rho;
        }
    }

    /// The collapsed register of every occupied cell as `(cell index, ρ)`
    /// pairs in ascending cell order: the non-zero registers of
    /// [`to_hyperloglog`](Self::to_hyperloglog), one pair per occupied cell
    /// (every stored ρ is at least 1). A frozen register arena stores a
    /// sketch as exactly these pairs.
    pub fn collapsed_cells(&self) -> impl Iterator<Item = (usize, u8)> + '_ {
        self.occupied_cells()
            .map(|(idx, list)| (idx, list.as_slice().last().map_or(0, |e| e.rho)))
    }

    /// Number of occupied cells: the length of
    /// [`collapsed_cells`](Self::collapsed_cells), read off the packed
    /// lists without walking the bitmap.
    pub fn occupied_count(&self) -> usize {
        self.cells.len()
    }

    /// Streaming-window maintenance (paper §3.2.2: "periodically entries
    /// (r, t) with t − tcurrent + 1 > ω are removed"): drops pairs too far in
    /// the future of `anchor` to ever fall inside the window again. Cells
    /// left empty lose their occupancy bit and their packed slot.
    ///
    /// Not used by the reverse-scan IRS algorithm (whose pairs stay valid for
    /// the anchors already processed), but part of the sliding-window sketch.
    pub fn prune_outside(&mut self, anchor: i64, window: i64) {
        let limit = anchor.saturating_add(window);
        let VersionedHll {
            cells, occupied, ..
        } = self;
        let mut slot = 0usize;
        for word in occupied.iter_mut() {
            let mut bits = *word;
            while bits != 0 {
                let bit = 1u64 << bits.trailing_zeros();
                bits &= bits - 1;
                let cell = &mut cells[slot];
                slot += 1;
                cell.retain(|e| e.time < limit);
                if cell.is_empty() {
                    *word &= !bit;
                }
            }
        }
        cells.retain(|c| !c.is_empty());
    }

    /// Total number of version pairs across all cells.
    pub fn total_entries(&self) -> usize {
        self.cells.iter().map(VersionList::len).sum()
    }

    /// Whether no item was ever retained.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Heap bytes held by the sketch, used by the Table 4 memory
    /// accounting: the packed cell array's capacity, the occupancy bitmap
    /// and spilled version lists. Inline lists cost nothing beyond their
    /// packed slot.
    pub fn heap_bytes(&self) -> usize {
        self.cells.capacity() * std::mem::size_of::<VersionList>()
            + self.occupied.capacity() * std::mem::size_of::<u64>()
            + self
                .cells
                .iter()
                .map(VersionList::heap_bytes)
                .sum::<usize>()
    }

    /// Number of cells whose version list has spilled past the inline
    /// buffer to the heap (memory diagnostics).
    pub fn spilled_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.is_spilled()).count()
    }

    /// Read-only view of a cell's version list, empty for an unoccupied
    /// cell (tests, codecs, debugging).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not below the cell count `2^precision`.
    pub fn cell(&self, idx: usize) -> &[VersionEntry] {
        assert!(idx < self.num_cells(), "cell index {idx} out of range");
        match self.slot_of(idx) {
            (true, slot) => self.cells[slot].as_slice(),
            (false, _) => &[],
        }
    }

    /// The maximal legal ρ for this precision: `64 − k + 1` (a `k`-bit
    /// prefix leaves `64 − k` suffix bits, so the 1-based first-set-bit
    /// position is at most `64 − k + 1`).
    #[inline]
    pub fn max_rho(&self) -> u8 {
        64 - self.precision + 1
    }

    /// Full structural validation of the sketch — the `check_dominance_chain`
    /// invariant checker of the paper-verification layer.
    ///
    /// Verifies that the precision is in range, the occupancy bitmap marks
    /// exactly as many cells as there are stored lists, no occupied cell is
    /// empty, and every cell's version list is a proper dominance chain per
    /// [`check_entries`]: strictly increasing time, strictly increasing ρ,
    /// ρ within `[1, 64 − k + 1]`. Any other shape cannot have been
    /// produced by `ApproxAdd`/`ApproxMerge` (Alg. 3) and would silently
    /// bias window estimates. Errors name the cell index.
    pub fn check_dominance_chain(&self) -> Result<(), SketchInvariantError> {
        if !(MIN_PRECISION..=MAX_PRECISION).contains(&self.precision) {
            return Err(SketchInvariantError::Precision(self.precision));
        }
        let marked: usize = self.occupied.iter().map(|&w| popcount(w)).sum();
        if marked != self.cells.len() {
            return Err(SketchInvariantError::Occupancy {
                marked,
                lists: self.cells.len(),
            });
        }
        let max_rho = self.max_rho();
        for (cell, list) in self.occupied_cells() {
            if list.is_empty() {
                return Err(SketchInvariantError::EmptyCell { cell });
            }
            check_entries(list.as_slice(), max_rho)
                .map_err(|error| SketchInvariantError::Cell { cell, error })?;
        }
        Ok(())
    }

    /// Verifies the core invariant: every cell is sorted by strictly
    /// increasing time with strictly increasing ρ. Returns the offending
    /// cell index on failure.
    ///
    /// Thin compatibility wrapper over
    /// [`check_dominance_chain`](Self::check_dominance_chain), which also
    /// reports *why* a cell is corrupt. Structural errors that have no cell
    /// index (impossible via this type's own constructors) map to cell 0.
    pub fn check_invariants(&self) -> Result<(), usize> {
        self.check_dominance_chain().map_err(|e| match e {
            SketchInvariantError::Cell { cell, .. } | SketchInvariantError::EmptyCell { cell } => {
                cell
            }
            SketchInvariantError::Precision(_)
            | SketchInvariantError::CellCount { .. }
            | SketchInvariantError::Occupancy { .. } => 0,
        })
    }

    /// Validating constructor from raw cell lists, one per cell (`β`
    /// lists, empty for unoccupied cells): accepts exactly the sketches
    /// [`check_dominance_chain`](Self::check_dominance_chain) would pass,
    /// and rejects everything else. This is the only way to build a
    /// sketch from externally supplied version lists, so corrupted-by-
    /// construction input cannot enter the system silently.
    pub fn from_cells(
        precision: u8,
        cells: Vec<Vec<VersionEntry>>,
    ) -> Result<Self, SketchInvariantError> {
        if !(MIN_PRECISION..=MAX_PRECISION).contains(&precision) {
            return Err(SketchInvariantError::Precision(precision));
        }
        let expected = 1usize << precision;
        if cells.len() != expected {
            return Err(SketchInvariantError::CellCount {
                expected,
                got: cells.len(),
            });
        }
        let mut sketch = VersionedHll::new(precision);
        for (idx, list) in cells.iter().enumerate() {
            if !list.is_empty() {
                Self::mark_occupied(&mut sketch.occupied, idx);
                sketch.cells.push(VersionList::from_slice(list));
            }
        }
        sketch.check_dominance_chain()?;
        Ok(sketch)
    }

    /// Direct cell-level insertion for tests that need to script exact
    /// `(cell, ρ, time)` sequences (like the paper's worked examples).
    ///
    /// # Panics
    ///
    /// Panics if `cell_idx` is not below the cell count `2^precision`.
    pub fn insert_raw(&mut self, cell_idx: usize, rho: u8, time: i64) -> bool {
        assert!(
            cell_idx < self.num_cells(),
            "cell index {cell_idx} out of range"
        );
        self.insert_at(cell_idx, rho, time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(sketch: &VersionedHll, idx: usize) -> Vec<(u8, i64)> {
        sketch.cell(idx).iter().map(|e| (e.rho, e.time)).collect()
    }

    /// The paper's Example 3: reverse-processing the stream e,d,c,a,b,a.
    #[test]
    fn paper_example_3_add_sequence() {
        let mut s = VersionedHll::new(4); // 16 cells; example uses 4, ids 0..3
                                          // (item, ι, ρ, t): processed in reverse order of original stream.
        let updates = [
            (1usize, 3u8, 6i64), // a @ t6
            (3, 1, 5),           // b @ t5
            (1, 3, 4),           // a @ t4 — earlier copy replaces (3, t6)
            (3, 2, 3),           // c @ t3 — dominates (1, t5)
            (2, 2, 2),           // d @ t2
            (2, 1, 1),           // e @ t1 — kept alongside (2, t2)
        ];
        for (cell, rho, t) in updates {
            s.insert_raw(cell, rho, t);
        }
        assert_eq!(entries(&s, 0), vec![]);
        assert_eq!(entries(&s, 1), vec![(3, 4)]);
        assert_eq!(entries(&s, 2), vec![(1, 1), (2, 2)]);
        assert_eq!(entries(&s, 3), vec![(2, 3)]);
        assert!(s.check_invariants().is_ok());
    }

    /// The paper's Example 4: merging two version sketches.
    #[test]
    fn paper_example_4_merge() {
        let mut a = VersionedHll::new(4);
        a.insert_raw(1, 3, 4);
        a.insert_raw(2, 1, 1);
        a.insert_raw(2, 2, 2);
        a.insert_raw(3, 2, 3);

        let mut b = VersionedHll::new(4);
        b.insert_raw(0, 5, 1);
        b.insert_raw(1, 3, 2);
        b.insert_raw(2, 4, 3);
        b.insert_raw(3, 1, 4);

        a.merge_all(&b);
        assert_eq!(entries(&a, 0), vec![(5, 1)]);
        assert_eq!(entries(&a, 1), vec![(3, 2)]); // (3,t2) dominates (3,t4)
        assert_eq!(entries(&a, 2), vec![(1, 1), (2, 2), (4, 3)]);
        assert_eq!(entries(&a, 3), vec![(2, 3)]); // (2,t3) dominates (1,t4)
        assert!(a.check_invariants().is_ok());
    }

    #[test]
    fn dominated_insert_is_rejected() {
        let mut s = VersionedHll::new(4);
        assert!(s.insert_raw(0, 5, 10));
        // Same ρ, later time: dominated.
        assert!(!s.insert_raw(0, 5, 12));
        // Smaller ρ, later time: dominated.
        assert!(!s.insert_raw(0, 3, 11));
        // Same time, smaller ρ: dominated.
        assert!(!s.insert_raw(0, 4, 10));
        assert_eq!(entries(&s, 0), vec![(5, 10)]);
    }

    #[test]
    fn newcomer_evicts_dominated_entries() {
        let mut s = VersionedHll::new(4);
        s.insert_raw(0, 1, 10);
        s.insert_raw(0, 2, 20);
        s.insert_raw(0, 7, 30);
        // (4, 5) dominates (1,10) and (2,20) but not (7,30).
        assert!(s.insert_raw(0, 4, 5));
        assert_eq!(entries(&s, 0), vec![(4, 5), (7, 30)]);
        // Same time, larger ρ evicts the equal-time entry.
        assert!(s.insert_raw(0, 5, 5));
        assert_eq!(entries(&s, 0), vec![(5, 5), (7, 30)]);
    }

    #[test]
    fn merge_respects_window_filter() {
        let mut dst = VersionedHll::new(4);
        let mut src = VersionedHll::new(4);
        src.insert_raw(0, 2, 10);
        src.insert_raw(0, 4, 50);
        // anchor 8, window 5 → keep times < 13 only.
        dst.merge_from(&src, 8, 5);
        assert_eq!(entries(&dst, 0), vec![(2, 10)]);
        // Unbounded keeps everything.
        let mut dst2 = VersionedHll::new(4);
        dst2.merge_all(&src);
        assert_eq!(entries(&dst2, 0), vec![(2, 10), (4, 50)]);
    }

    #[test]
    fn estimate_counts_distinct_items() {
        let mut s = VersionedHll::new(10);
        let n = 20_000u64;
        for v in 0..n {
            s.add_u64(v, (v % 100) as i64);
        }
        let est = s.estimate();
        let rel = (est - n as f64).abs() / n as f64;
        assert!(rel < 0.15, "relative error {rel}");
        // Duplicates at later times change nothing.
        let snapshot = s.clone();
        for v in 0..n {
            s.add_u64(v, 1_000);
        }
        assert_eq!(s, snapshot);
    }

    #[test]
    fn estimate_matches_collapsed_hll() {
        let mut s = VersionedHll::new(8);
        for v in 0..5_000u64 {
            s.add_u64(v, (v as i64) % 37);
        }
        let hll = s.to_hyperloglog();
        assert_eq!(s.estimate(), hll.estimate());
    }

    #[test]
    fn estimate_window_sees_only_in_window_items() {
        // Reverse-time discipline: the late batch (times 100..110) is
        // inserted first, queries anchor at the current frontier.
        let mut s = VersionedHll::new(10);
        for v in 1000..2000u64 {
            s.add_u64(v, 100 + (v % 10) as i64);
        }
        let late = s.estimate_window(100, 50);
        assert!((late - 1000.0).abs() / 1000.0 < 0.2, "late {late}");

        for v in 0..1000u64 {
            s.add_u64(v, (v % 10) as i64);
        }
        // Window [0, 50) sees only the early batch.
        let early = s.estimate_window(0, 50);
        assert!((early - 1000.0).abs() / 1000.0 < 0.2, "early {early}");
        // A window covering everything sees both batches: eviction only ever
        // removes a pair in favour of a dominating pair inside any window
        // that contained it, so per-cell maxima are preserved.
        let all = s.estimate_window(0, 1000);
        assert!((all - 2000.0).abs() / 2000.0 < 0.2, "all {all}");
        assert_eq!(s.estimate_window(500, 10), 0.0);
    }

    #[test]
    fn prune_outside_drops_future_entries() {
        let mut s = VersionedHll::new(4);
        s.insert_raw(0, 1, 5);
        s.insert_raw(0, 3, 30);
        s.prune_outside(0, 10); // keep times < 10
        assert_eq!(entries(&s, 0), vec![(1, 5)]);
    }

    #[test]
    fn empty_sketch_properties() {
        let s = VersionedHll::new(6);
        assert!(s.is_empty());
        assert_eq!(s.estimate(), 0.0);
        assert_eq!(s.total_entries(), 0);
        assert!(s.check_invariants().is_ok());
        assert_eq!(s.num_cells(), 64);
        assert!((0..64).all(|i| s.cell(i).is_empty()));
        // No version list is allocated: the sketch holds only its one-word
        // occupancy bitmap.
        assert_eq!(s.cells.capacity(), 0);
        assert_eq!(s.heap_bytes(), std::mem::size_of::<u64>());
    }

    #[test]
    #[should_panic(expected = "different precision")]
    fn merge_precision_mismatch_panics() {
        let mut a = VersionedHll::new(4);
        let b = VersionedHll::new(5);
        a.merge_all(&b);
    }

    #[test]
    fn merge_is_idempotent() {
        let mut a = VersionedHll::new(6);
        let mut b = VersionedHll::new(6);
        for v in 0..200u64 {
            b.add_u64(v, (v % 40) as i64);
        }
        a.merge_all(&b);
        let once = a.clone();
        a.merge_all(&b);
        assert_eq!(a, once);
    }

    #[test]
    fn check_entries_accepts_chains_and_names_the_offender() {
        let good = [
            VersionEntry { time: 1, rho: 2 },
            VersionEntry { time: 3, rho: 5 },
            VersionEntry { time: 9, rho: 6 },
        ];
        assert_eq!(check_entries(&good, 61), Ok(()));
        assert_eq!(check_entries(&[], 61), Ok(()));

        let equal_time = [
            VersionEntry { time: 3, rho: 2 },
            VersionEntry { time: 3, rho: 5 },
        ];
        assert_eq!(
            check_entries(&equal_time, 61),
            Err(EntryError::Order { index: 1 })
        );

        let non_increasing_rho = [
            VersionEntry { time: 1, rho: 5 },
            VersionEntry { time: 2, rho: 5 },
        ];
        assert_eq!(
            check_entries(&non_increasing_rho, 61),
            Err(EntryError::Order { index: 1 })
        );

        let zero_rho = [VersionEntry { time: 1, rho: 0 }];
        assert!(matches!(
            check_entries(&zero_rho, 61),
            Err(EntryError::RhoRange {
                index: 0,
                rho: 0,
                ..
            })
        ));
        let big_rho = [VersionEntry { time: 1, rho: 62 }];
        assert!(matches!(
            check_entries(&big_rho, 61),
            Err(EntryError::RhoRange {
                index: 0,
                rho: 62,
                ..
            })
        ));
    }

    #[test]
    fn from_cells_rejects_corruption() {
        // A valid two-cell-populated sketch round-trips.
        let mut cells = vec![Vec::new(); 16];
        cells[2] = vec![
            VersionEntry { time: 1, rho: 1 },
            VersionEntry { time: 4, rho: 3 },
        ];
        let s = VersionedHll::from_cells(4, cells.clone()).unwrap();
        assert_eq!(s.cell(2).len(), 2);
        assert!(s.check_dominance_chain().is_ok());

        // Swapped order in one cell is rejected, naming the cell.
        cells[9] = vec![
            VersionEntry { time: 7, rho: 4 },
            VersionEntry { time: 2, rho: 6 },
        ];
        let err = VersionedHll::from_cells(4, cells).unwrap_err();
        assert_eq!(
            err,
            SketchInvariantError::Cell {
                cell: 9,
                error: EntryError::Order { index: 1 }
            }
        );
        assert!(err.to_string().contains("cell 9"));

        // Wrong cell count and precision are structural errors.
        assert_eq!(
            VersionedHll::from_cells(4, vec![Vec::new(); 8]).unwrap_err(),
            SketchInvariantError::CellCount {
                expected: 16,
                got: 8
            }
        );
        assert_eq!(
            VersionedHll::from_cells(3, vec![Vec::new(); 8]).unwrap_err(),
            SketchInvariantError::Precision(3)
        );
    }

    #[test]
    fn random_streams_keep_the_dominance_chain() {
        let mut s = VersionedHll::new(6);
        // Deterministic pseudo-random insertions, including repeats and
        // decreasing/increasing time mixes.
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..5_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let time = (x % 1_000) as i64;
            s.add_u64(x, time);
            debug_assert!(s.check_dominance_chain().is_ok());
        }
        assert!(s.check_dominance_chain().is_ok());
        assert_eq!(s.check_invariants(), Ok(()));
    }

    #[test]
    fn total_entries_and_heap_bytes_grow() {
        let mut s = VersionedHll::new(4);
        let bitmap = std::mem::size_of::<u64>();
        assert_eq!(s.heap_bytes(), bitmap);
        // Decreasing times with increasing rho stack up (none dominates).
        for i in 0..10u8 {
            s.insert_raw(0, 10 - i, i64::from(i));
        }
        // With decreasing rho over increasing... here times 0..9 and rho 10..1:
        // each later (smaller-rho, larger-time) insert is dominated.
        assert_eq!(s.total_entries(), 1);
        for i in 0..10u8 {
            s.insert_raw(1, i + 1, -i64::from(i));
        }
        // Each newcomer (earlier time, larger rho) dominates the previous.
        assert_eq!(s.cell(1).len(), 1);
        s.insert_raw(2, 1, 0);
        s.insert_raw(2, 2, 1);
        s.insert_raw(2, 3, 2);
        assert_eq!(s.cell(2).len(), 3);
        // Three occupied cells take three packed slots; three entries still
        // fit a cell's inline buffer, so nothing else is on the heap.
        assert_eq!(s.cells.len(), 3);
        assert_eq!(s.spilled_cells(), 0);
        let packed = s.cells.capacity() * std::mem::size_of::<VersionList>();
        assert_eq!(s.heap_bytes(), bitmap + packed);
        // A fourth chain entry spills the cell to the heap.
        s.insert_raw(2, 4, 3);
        assert_eq!(s.cell(2).len(), 4);
        assert_eq!(s.spilled_cells(), 1);
        assert!(s.heap_bytes() > bitmap + packed);
        // Clearing keeps the packed capacity and frees the spilled list.
        s.clear();
        assert_eq!(s.heap_bytes(), bitmap + packed);
    }

    #[test]
    fn inline_buffer_spills_and_stays_correct() {
        let mut list_like = VersionedHll::new(4);
        // Build a long chain in one cell: times 0..8 with rho 1..=8.
        for i in 0..8u8 {
            assert!(list_like.insert_raw(5, i + 1, i64::from(i)));
        }
        assert_eq!(
            entries(&list_like, 5),
            (0..8).map(|i| (i + 1, i64::from(i))).collect::<Vec<_>>()
        );
        assert!(list_like.check_dominance_chain().is_ok());
        // A dominating newcomer prunes the spilled list back down.
        assert!(list_like.insert_raw(5, 7, -1));
        assert_eq!(entries(&list_like, 5), vec![(7, -1), (8, 7)]);
        assert!(list_like.check_dominance_chain().is_ok());
    }

    #[test]
    fn equality_ignores_spill_representation() {
        // Same logical chain, one built inline, one via a spilled list that
        // was pruned back under the inline capacity.
        let mut a = VersionedHll::new(4);
        a.insert_raw(0, 7, -1);
        a.insert_raw(0, 8, 7);
        let mut b = VersionedHll::new(4);
        for i in 0..8u8 {
            b.insert_raw(0, i + 1, i64::from(i));
        }
        b.insert_raw(0, 7, -1);
        assert_eq!(a, b);
        assert_eq!(b.spilled_cells(), 1); // representation differs…
        assert_eq!(a.spilled_cells(), 0); // …but equality is logical
    }

    /// The linear dominance merge (scratch path) must produce exactly the
    /// chain repeated `ApproxAdd` insertions would: merge results are the
    /// canonical non-dominated set either way.
    #[test]
    fn merge_with_scratch_matches_insert_loop() {
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..50 {
            let mut a = VersionedHll::new(4);
            let mut b = VersionedHll::new(4);
            for _ in 0..30 {
                let r = next();
                a.add_u64(r, (r % 64) as i64);
                let r2 = next();
                b.add_u64(r2, (r2 % 64) as i64);
            }
            let anchor = (round % 32) as i64;
            let window = 1 + (round % 40) as i64;
            // Reference: per-entry insert loop over the window prefix.
            let mut reference = a.clone();
            for cell in 0..b.num_cells() {
                let limit = anchor + window;
                for e in b.cell(cell).iter().filter(|e| e.time < limit) {
                    reference.insert_raw(cell, e.rho, e.time);
                }
            }
            let mut scratch = Vec::new();
            a.merge_from_with(&b, anchor, window, &mut scratch);
            assert_eq!(a, reference, "round {round}");
            assert!(a.check_dominance_chain().is_ok());
        }
    }

    /// The occupancy bitmap mirrors cell non-emptiness through every
    /// mutation path (insert, merge, prune, and the validating
    /// constructor), and the packed lists hold exactly the occupied cells
    /// in cell order.
    #[test]
    fn occupancy_bitmap_tracks_non_empty_cells() {
        fn check(s: &VersionedHll) {
            let mut slot = 0;
            for i in 0..s.num_cells() {
                let bit = (s.occupied[i / 64] >> (i % 64)) & 1 == 1;
                assert_eq!(bit, !s.cell(i).is_empty(), "cell {i}");
                if bit {
                    assert_eq!(s.cells[slot].as_slice(), s.cell(i), "cell {i}");
                    slot += 1;
                }
            }
            assert_eq!(slot, s.cells.len());
        }
        let mut s = VersionedHll::new(4);
        assert!(s.occupied.iter().all(|&w| w == 0));
        s.insert_raw(9, 1, 2);
        s.insert_raw(3, 2, 5);
        check(&s);

        // Merging into an empty sketch must set bits for the copied cells.
        let mut t = VersionedHll::new(4);
        t.merge_from(&s, 0, 100);
        check(&t);
        assert_eq!(t, s);

        // Merging cells below, between and above the occupied ones inserts
        // each at its slot.
        let mut u = VersionedHll::new(4);
        for idx in [0, 5, 15] {
            u.insert_raw(idx, 3, 1);
        }
        t.merge_all(&u);
        check(&t);
        assert_eq!(t.cells.len(), 5);

        // Pruning a cell to empty must clear its bit and drop its slot.
        t.prune_outside(0, 2);
        check(&t);
        assert_eq!(t.cells.len(), 3);
        t.prune_outside(0, 1);
        check(&t);
        assert!(t.is_empty());

        // The validating constructor rebuilds the bitmap from the lists.
        let raw: Vec<Vec<VersionEntry>> = (0..16)
            .map(|i| {
                if i == 3 {
                    vec![VersionEntry { time: 5, rho: 2 }]
                } else {
                    Vec::new()
                }
            })
            .collect();
        let u = VersionedHll::from_cells(4, raw).unwrap();
        check(&u);
        assert_eq!(u.total_entries(), 1);
    }

    /// A bitmap that disagrees with the packed lists is caught, and an
    /// empty list at an occupied cell is reported by its cell index.
    #[test]
    fn check_dominance_chain_rejects_inconsistent_packing() {
        let mut s = VersionedHll::new(4);
        s.insert_raw(2, 1, 1);
        s.insert_raw(7, 2, 3);
        let mut extra_bit = s.clone();
        extra_bit.occupied[0] |= 1 << 11;
        assert_eq!(
            extra_bit.check_dominance_chain(),
            Err(SketchInvariantError::Occupancy {
                marked: 3,
                lists: 2
            })
        );
        let mut emptied = s.clone();
        emptied.cells[1] = VersionList::new();
        let err = emptied.check_dominance_chain().unwrap_err();
        assert_eq!(err, SketchInvariantError::EmptyCell { cell: 7 });
        assert!(err.to_string().contains("cell 7"));
        assert_eq!(emptied.check_invariants(), Err(7));
    }

    /// Deterministic random sketches: a mix of adds over a wide time range
    /// (long dominance chains, some spilled), merges, and prunes to empty.
    fn random_sketch(precision: u8, items: usize, seed: u64) -> VersionedHll {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut s = VersionedHll::new(precision);
        for _ in 0..items {
            let r = next();
            s.add_u64(r, (r % 500) as i64 - 250);
        }
        if seed.is_multiple_of(3) {
            s.prune_outside(-250, 100);
        }
        s
    }

    #[test]
    fn clear_of_spilled_sketch_equals_new() {
        for precision in [4u8, 6, 9] {
            let mut s = random_sketch(precision, 3_000, 7);
            // A long chain in cell 1 forces a spilled list.
            for i in 0..8u8 {
                s.insert_raw(1, 50 + i, -1_000 + i64::from(i));
            }
            assert!(s.spilled_cells() > 0);
            s.clear();
            assert_eq!(s, VersionedHll::new(precision));
            assert!(s.is_empty());
            assert_eq!(s.total_entries(), 0);
            // A cleared sketch is reusable: refilling it equals a fresh fill.
            let mut fresh = VersionedHll::new(precision);
            for v in 0..200u64 {
                s.add_u64(v, (v % 17) as i64);
                fresh.add_u64(v, (v % 17) as i64);
            }
            assert_eq!(s, fresh);
        }
    }

    #[test]
    fn occupancy_walk_matches_full_cell_scan() {
        for (round, precision) in [4u8, 5, 8, 9, 12].into_iter().cycle().take(30).enumerate() {
            let items = [0, 1, 10, 300, 5_000][round % 5];
            let s = random_sketch(precision, items, round as u64 * 0x9e37_79b9 + 3);
            let scanned: Vec<u8> = (0..s.num_cells())
                .map(|i| s.cell(i).last().map_or(0, |e| e.rho))
                .collect();
            // A dirty target row must come back as exactly the scan.
            let mut collapsed = vec![0xAB; s.num_cells()];
            s.collapse_registers_into(&mut collapsed);
            assert_eq!(collapsed, scanned, "round {round}");
            assert_eq!(
                s.total_entries(),
                (0..s.num_cells()).map(|i| s.cell(i).len()).sum::<usize>()
            );
            assert_eq!(
                s.is_empty(),
                (0..s.num_cells()).all(|i| s.cell(i).is_empty())
            );
        }
    }

    #[test]
    #[should_panic(expected = "collapse target length must equal the cell count")]
    fn collapse_registers_into_rejects_a_wrong_length() {
        let s = VersionedHll::new(4);
        s.collapse_registers_into(&mut [0u8; 8]);
    }

    #[test]
    fn occupied_count_follows_inserts_prunes_and_clear() {
        let mut s = VersionedHll::new(4);
        assert_eq!(s.occupied_count(), 0);
        assert_eq!(s.collapsed_cells().count(), 0);
        s.insert_raw(3, 1, 5);
        s.insert_raw(3, 2, 8);
        s.insert_raw(9, 4, 20);
        assert_eq!(s.occupied_count(), 2);
        assert_eq!(
            s.collapsed_cells().collect::<Vec<_>>(),
            vec![(3, 2), (9, 4)]
        );
        // Times ≥ 7 fall outside: cell 9 empties, cell 3 keeps (1, 5).
        s.prune_outside(0, 7);
        assert_eq!(s.occupied_count(), 1);
        assert_eq!(s.collapsed_cells().collect::<Vec<_>>(), vec![(3, 1)]);
        s.clear();
        assert_eq!(s.occupied_count(), 0);
        assert_eq!(s.collapsed_cells().count(), 0);
    }
}

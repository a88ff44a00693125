//! Frozen oracle arenas: contiguous, read-only CSR-style layouts of the
//! IRS summaries, built once after the reverse pass and shared by every
//! query-path operation.
//!
//! The live stores ([`ExactStore`](crate::ExactStore),
//! [`VhllStore`](crate::VhllStore)) optimize for *mutation* during the
//! one-pass build: one `Vec` (or versioned sketch) per node, each its own
//! heap allocation. Queries have the opposite access pattern — read-only
//! sweeps over every node — and pay for the build layout with pointer
//! chasing and per-node cache misses (the ~3.6 µs oracle queries of the
//! PR 4 bench trajectory). Freezing rewrites the summaries into flat
//! arenas:
//!
//! * [`FrozenExactOracle`] — CSR: `offsets[u] .. offsets[u + 1]` indexes a
//!   single flat entry section of encoded `(NodeId, Timestamp)` pairs,
//!   each node's slice sorted by `NodeId` exactly like its live summary.
//! * [`FrozenApproxOracle`] — CSR again: each node's row is the non-zero
//!   registers of its collapsed sketch (the per-cell maxima
//!   [`ApproxOracle`](crate::ApproxOracle) would hold), stored as
//!   `(index, ρ)` pairs sorted by index ([`SparseRow`]), plus the per-node
//!   estimates **precomputed at freeze time**, turning the `individuals`
//!   sweep and every CELF first-round probe into a table read.
//!
//! # One image, in memory and on disk
//!
//! Since IPFE layout v2 (and IPFA layout v4) each arena *is* its on-disk
//! image: one contiguous [`ArenaBytes`] buffer holding the format header
//! followed by every section, each section padded to start on an
//! [`ARENA_ALIGN`]-byte boundary (see [`layout`]). The persist layer
//! writes the image verbatim and loads by validating the header + section
//! framing and wrapping the bytes — which is what makes `mmap` loading
//! zero-copy: a mapped file is queryable as-is, with zero per-node
//! allocation or decoding pass. Exact entries are decoded on the fly
//! through [`EntriesSlice`] (12-byte little-endian records); register rows
//! through [`SparseRow`] (little-endian `u16` indices and ρ bytes).
//!
//! Both oracles implement [`InfluenceOracle`], so `individuals`,
//! `influence_many` and `greedy_top_k` run unchanged — and bit-identically:
//! the frozen layouts preserve entry order and register values, and every
//! estimator path reuses the exact same summation order as the live
//! oracles.

use crate::arena::ArenaBytes;
use crate::invariants::InvariantViolation;
use crate::kernel::{self, SparseRow, INDEX_BYTES};
use crate::obs::{metric_u64, Gauge, HeapBytes, NoopRecorder, Recorder};
use crate::oracle::{influence_batch, push_deduped, BatchQuery, InfluenceOracle, NodeBitset};
use crate::trace::{NoopTracer, Tracer};
use infprop_hll::{HyperLogLog, RunningEstimator, VersionedHll};
use infprop_temporal_graph::{NodeId, Timestamp, Window};
use std::fmt;
use std::ops::Range;

/// Queries interleaved per group by the approx batch kernel. The latency
/// floor of a single query is the estimator's *serial* dependent-add chain
/// (β float adds that must stay in ascending register order for
/// bit-identity); absorbing `GROUP` independent queries' accumulators
/// together lets their chains overlap in the pipeline.
const GROUP: usize = 4;

/// The arena image layout shared by the in-memory oracles and the persist
/// codecs: IPFE layout v2 and IPFA layout v4 place every section on an
/// [`ARENA_ALIGN`]-byte boundary (gaps zero-filled) so a file loaded — or
/// mapped — into an aligned buffer can serve each section as a borrowed
/// slice.
///
/// * IPFE v2: `header (25 B) | pad | offsets ((n+1)×4 B u32 LE) | pad |
///   entries (total×12 B)` — header = magic `IPFE`, version, window `i64`,
///   `n` `u32`, `total` `u64`, all little-endian.
/// * IPFA v4: `header (18 B) | pad | offsets ((n+1)×4 B u32 LE) | pad |
///   indices (total×2 B u16 LE) | pad | rhos (total B) | pad |
///   individuals (n×8 B f64 LE bits)` — header = magic `IPFA`, version,
///   precision, `n` `u32`, `total` `u64`. Node `u`'s row is pairs
///   `offsets[u] .. offsets[u+1]` of the index and ρ sections.
pub(crate) mod layout {
    use crate::arena::ARENA_ALIGN;
    use crate::kernel::INDEX_BYTES;

    /// Magic prefix of the frozen exact (CSR) arena image.
    pub(crate) const EXACT_MAGIC: &[u8; 4] = b"IPFE";
    /// Magic prefix of the frozen approx (register) arena image.
    pub(crate) const APPROX_MAGIC: &[u8; 4] = b"IPFA";
    /// Current IPFE layout version: aligned sections, image == arena.
    pub(crate) const EXACT_VERSION: u8 = 2;
    /// Current IPFA layout version: aligned sections, one CSR row of
    /// `(index, ρ)` pairs per node, and the precomputed per-node estimates.
    pub(crate) const APPROX_VERSION: u8 = 4;
    /// IPFE header bytes: magic, version, window, `n`, `total`.
    pub(crate) const EXACT_HEADER: usize = 25;
    /// IPFA header bytes: magic, version, precision, `n`, `total`.
    pub(crate) const APPROX_HEADER: usize = 18;
    /// Encoded bytes per exact entry: `u32` target id + `i64` end time.
    pub(crate) const ENTRY_BYTES: usize = 12;

    /// Rounds `at` up to the next section boundary.
    pub(crate) fn align_up(at: usize) -> usize {
        at.div_ceil(ARENA_ALIGN) * ARENA_ALIGN
    }

    /// IPFE v2 section positions for an `n`-node, `total`-entry arena:
    /// `(offsets_at, entries_at, image_len)`.
    pub(crate) fn exact_sections(num_nodes: usize, total: usize) -> (usize, usize, usize) {
        let offsets_at = align_up(EXACT_HEADER);
        let entries_at = align_up(offsets_at + (num_nodes + 1) * 4);
        (offsets_at, entries_at, entries_at + total * ENTRY_BYTES)
    }

    /// IPFA v4 section positions of an `n`-node arena storing `total`
    /// `(index, ρ)` pairs.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(crate) struct ApproxSections {
        /// Start of the `n + 1` row offsets.
        pub(crate) offsets: usize,
        /// Start of the register indices.
        pub(crate) indices: usize,
        /// Start of the ρ values.
        pub(crate) rhos: usize,
        /// Start of the per-node estimates.
        pub(crate) individuals: usize,
        /// Length of the whole image.
        pub(crate) len: usize,
    }

    /// IPFA v4 section positions for an `n`-node, `total`-pair arena.
    pub(crate) fn approx_sections(num_nodes: usize, total: usize) -> ApproxSections {
        let offsets = align_up(APPROX_HEADER);
        let indices = align_up(offsets + (num_nodes + 1) * 4);
        let rhos = align_up(indices + total * INDEX_BYTES);
        let individuals = align_up(rhos + total);
        ApproxSections {
            offsets,
            indices,
            rhos,
            individuals,
            len: individuals + num_nodes * 8,
        }
    }
}

/// Decodes one image entry: `u32` target id, `i64` end time, little-endian.
#[inline]
// xtask-contract: alloc-free, kernel
fn decode_entry(b: &[u8]) -> (NodeId, Timestamp) {
    (
        NodeId(u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        Timestamp(i64::from_le_bytes([
            b[4], b[5], b[6], b[7], b[8], b[9], b[10], b[11],
        ])),
    )
}

/// Encodes one entry at image position `at`.
fn put_entry(img: &mut [u8], at: usize, v: NodeId, t: Timestamp) {
    img[at..at + 4].copy_from_slice(&v.0.to_le_bytes());
    img[at + 4..at + layout::ENTRY_BYTES].copy_from_slice(&t.0.to_le_bytes());
}

/// Encodes one `u32` at image position `at`, little-endian.
fn put_u32(img: &mut [u8], at: usize, v: u32) {
    img[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// Decodes the little-endian `u32` at image position `at` — a CSR offset.
#[inline]
// xtask-contract: alloc-free, kernel
pub(crate) fn get_u32(img: &[u8], at: usize) -> usize {
    let bytes = [img[at], img[at + 1], img[at + 2], img[at + 3]];
    u32::from_le_bytes(bytes) as usize // xtask-allow: no-lossy-cast (u32 fits usize)
}

/// Writes the 25-byte IPFE v2 header. Callers have checked that `n` fits
/// `u32` (the format's node field).
fn write_exact_header(img: &mut [u8], window: Window, n: usize, total: usize) {
    img[..4].copy_from_slice(layout::EXACT_MAGIC);
    img[4] = layout::EXACT_VERSION;
    img[5..13].copy_from_slice(&window.0.to_le_bytes());
    img[13..17].copy_from_slice(&(n as u32).to_le_bytes()); // xtask-allow: no-lossy-cast (callers assert n fits u32)
    img[17..25].copy_from_slice(&metric_u64(total).to_le_bytes());
}

/// Writes the 18-byte IPFA v4 header. Callers have checked that `n` fits
/// `u32` (the format's node field).
fn write_approx_header(img: &mut [u8], precision: u8, n: usize, total: usize) {
    img[..4].copy_from_slice(layout::APPROX_MAGIC);
    img[4] = layout::APPROX_VERSION;
    img[5] = precision;
    img[6..10].copy_from_slice(&(n as u32).to_le_bytes()); // xtask-allow: no-lossy-cast (callers assert n fits u32)
    img[10..18].copy_from_slice(&metric_u64(total).to_le_bytes());
}

/// A node's frozen summary, borrowed directly from the arena image as
/// encoded 12-byte little-endian records and decoded entry-by-entry on
/// the fly — the zero-copy replacement for the `&[(NodeId, Timestamp)]`
/// slices the pre-v2 arenas materialized at load time. Decoding is two
/// `from_le_bytes` per entry (free next to the cache miss that fetches
/// the record), and a mapped arena never pays a per-node allocation.
///
/// Compares equal to the entry slice it encodes, so assertions and merge
/// code read naturally on either representation.
#[derive(Clone, Copy)]
pub struct EntriesSlice<'a> {
    bytes: &'a [u8],
}

impl<'a> EntriesSlice<'a> {
    /// Wraps an image region holding whole encoded entries.
    #[inline]
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        debug_assert!(bytes.len().is_multiple_of(layout::ENTRY_BYTES));
        EntriesSlice { bytes }
    }

    /// The empty summary — what layered lookups answer for nodes outside
    /// a layer's universe.
    #[inline]
    pub fn empty() -> EntriesSlice<'static> {
        EntriesSlice { bytes: &[] }
    }

    /// Number of entries.
    #[inline]
    // xtask-contract: alloc-free, kernel
    pub fn len(&self) -> usize {
        self.bytes.len() / layout::ENTRY_BYTES
    }

    /// True when the summary holds no entries.
    #[inline]
    // xtask-contract: alloc-free, kernel
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Entry `i`, decoded.
    #[inline]
    // xtask-contract: alloc-free, kernel
    pub fn get(&self, i: usize) -> (NodeId, Timestamp) {
        let at = i * layout::ENTRY_BYTES;
        decode_entry(&self.bytes[at..at + layout::ENTRY_BYTES])
    }

    /// Entry `i`'s target id alone — the two-pointer merge's inner loop
    /// never reads end times, so it skips the second decode.
    #[inline]
    // xtask-contract: alloc-free, kernel
    pub fn target(&self, i: usize) -> NodeId {
        let at = i * layout::ENTRY_BYTES;
        NodeId(u32::from_le_bytes([
            self.bytes[at],
            self.bytes[at + 1],
            self.bytes[at + 2],
            self.bytes[at + 3],
        ]))
    }

    /// Iterates the decoded entries in arena order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Timestamp)> + 'a {
        self.bytes
            .chunks_exact(layout::ENTRY_BYTES)
            .map(decode_entry)
    }

    /// Decodes the whole summary into an owned vector (diagnostics and
    /// tests; query paths iterate the image directly).
    pub fn to_vec(&self) -> Vec<(NodeId, Timestamp)> {
        self.iter().collect()
    }
}

impl PartialEq for EntriesSlice<'_> {
    fn eq(&self, other: &Self) -> bool {
        // The encoding is canonical, so equal entries ⇔ equal bytes.
        self.bytes == other.bytes
    }
}

impl Eq for EntriesSlice<'_> {}

impl PartialEq<[(NodeId, Timestamp)]> for EntriesSlice<'_> {
    fn eq(&self, other: &[(NodeId, Timestamp)]) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter().copied()).all(|(a, b)| a == b)
    }
}

impl PartialEq<&[(NodeId, Timestamp)]> for EntriesSlice<'_> {
    fn eq(&self, other: &&[(NodeId, Timestamp)]) -> bool {
        *self == **other
    }
}

impl PartialEq<Vec<(NodeId, Timestamp)>> for EntriesSlice<'_> {
    fn eq(&self, other: &Vec<(NodeId, Timestamp)>) -> bool {
        *self == other[..]
    }
}

impl fmt::Debug for EntriesSlice<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Length of the union of two sorted, duplicate-free summary slices,
/// counted with a two-pointer merge — no union is materialized. The exact
/// batch path's fast path for two-seed queries.
// xtask-contract: alloc-free, kernel
fn sorted_union_len(a: EntriesSlice<'_>, b: EntriesSlice<'_>) -> usize {
    let (mut i, mut j, mut len) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        len += 1;
        match a.target(i).cmp(&b.target(j)) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    len + (a.len() - i) + (b.len() - j)
}

/// Exact IRS summaries frozen into a CSR arena over one contiguous
/// [`ArenaBytes`] image in the IPFE v2 layout (see the module docs):
/// header, aligned offset section, aligned entry section.
/// The image is the on-disk format — persisting writes it verbatim, and
/// loading (or mapping) wraps the file bytes without copying a section.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrozenExactOracle {
    window: Window,
    num_nodes: usize,
    total: usize,
    offsets_at: usize,
    entries_at: usize,
    data: ArenaBytes,
}

impl FrozenExactOracle {
    /// Freezes per-node summaries into the CSR arena. Entry slices are
    /// copied verbatim, so every query answer is bit-identical to the live
    /// [`ExactOracle`](crate::ExactOracle) over the same summaries.
    ///
    /// # Panics
    ///
    /// Panics if the total entry count exceeds `u32::MAX` (≈ 4.3 G
    /// entries — beyond any in-memory summary set this crate targets) or
    /// the node count exceeds `u32::MAX`.
    pub fn from_summaries(window: Window, summaries: &[Vec<(NodeId, Timestamp)>]) -> Self {
        let total: usize = summaries.iter().map(Vec::len).sum();
        assert!(
            u32::try_from(total).is_ok(),
            "frozen arena limited to u32::MAX entries, got {total}"
        );
        let n = summaries.len();
        assert!(
            u32::try_from(n).is_ok(),
            "frozen arena limited to u32::MAX nodes, got {n}"
        );
        let (offsets_at, entries_at, image_len) = layout::exact_sections(n, total);
        let data = ArenaBytes::build(image_len, |img| {
            write_exact_header(img, window, n, total);
            put_u32(img, offsets_at, 0);
            let mut running = 0u32;
            let mut at = entries_at;
            for (i, summary) in summaries.iter().enumerate() {
                // Fits: the sum of all lengths was checked against u32 above.
                running += summary.len() as u32; // xtask-allow: no-lossy-cast (total checked against u32::MAX)
                put_u32(img, offsets_at + (i + 1) * 4, running);
                for &(v, t) in summary {
                    put_entry(img, at, v, t);
                    at += layout::ENTRY_BYTES;
                }
            }
        });
        Self::from_image(window, n, total, data)
    }

    /// Reassembles an arena from decoded CSR parts (legacy-format loads
    /// and tests). The caller must have validated the CSR shape; this
    /// constructor only asserts the cheap global frame, then re-encodes
    /// the parts into a canonical v2 image.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is empty, does not start at 0, does not end at
    /// `entries.len()`, or frames more than `u32::MAX` nodes.
    pub fn from_parts(
        window: Window,
        offsets: Vec<u32>,
        entries: Vec<(NodeId, Timestamp)>,
    ) -> Self {
        assert!(
            offsets.first() == Some(&0)
                && offsets.last().map(|&e| e as usize) == Some(entries.len()), // xtask-allow: no-lossy-cast (u32 fits usize)
            "offsets must frame the entries array"
        );
        let n = offsets.len() - 1;
        assert!(
            u32::try_from(n).is_ok(),
            "frozen arena limited to u32::MAX nodes, got {n}"
        );
        let total = entries.len();
        let (offsets_at, entries_at, image_len) = layout::exact_sections(n, total);
        let data = ArenaBytes::build(image_len, |img| {
            write_exact_header(img, window, n, total);
            for (i, &o) in offsets.iter().enumerate() {
                put_u32(img, offsets_at + i * 4, o);
            }
            for (i, &(v, t)) in entries.iter().enumerate() {
                put_entry(img, entries_at + i * layout::ENTRY_BYTES, v, t);
            }
        });
        Self::from_image(window, n, total, data)
    }

    /// Wraps an already-validated IPFE v2 image: `data` must hold exactly
    /// the sections [`layout::exact_sections`] describes for
    /// (`num_nodes`, `total`) under a header matching `window`. The
    /// constructors above build such images from trusted parts; the
    /// persist layer validates untrusted bytes before calling this.
    ///
    /// # Panics
    ///
    /// Panics if `data`'s length does not match the layout.
    pub(crate) fn from_image(
        window: Window,
        num_nodes: usize,
        total: usize,
        data: ArenaBytes,
    ) -> Self {
        let (offsets_at, entries_at, image_len) = layout::exact_sections(num_nodes, total);
        assert_eq!(data.len(), image_len, "image length must match its header");
        FrozenExactOracle {
            window,
            num_nodes,
            total,
            offsets_at,
            entries_at,
            data,
        }
    }

    /// The arena's whole image — the exact bytes the persist layer
    /// writes, exposed so callers can inspect the load backend (owned vs
    /// mapped) and account heap usage.
    pub fn image(&self) -> &ArenaBytes {
        &self.data
    }

    /// The window `ω` the summaries were computed under.
    #[inline]
    pub fn window(&self) -> Window {
        self.window
    }

    /// CSR offset `i`, decoded from the image.
    #[inline]
    // xtask-contract: alloc-free, kernel
    fn offset(&self, i: usize) -> usize {
        get_u32(self.data.as_slice(), self.offsets_at + i * 4)
    }

    /// Node `u`'s frozen summary — sorted by `NodeId`, identical content
    /// to the live summary it was frozen from, borrowed straight from the
    /// arena image.
    #[inline]
    // xtask-contract: alloc-free, kernel
    pub fn summary(&self, node: NodeId) -> EntriesSlice<'_> {
        let i = node.index();
        let lo = self.entries_at + self.offset(i) * layout::ENTRY_BYTES;
        let hi = self.entries_at + self.offset(i + 1) * layout::ENTRY_BYTES;
        EntriesSlice::new(&self.data.as_slice()[lo..hi])
    }

    /// The CSR offset array (`num_nodes + 1` entries), decoded from the
    /// image. Allocates — diagnostics and tests; query paths read the
    /// image directly.
    pub fn offsets(&self) -> Vec<u32> {
        (0..=self.num_nodes)
            .map(|i| self.offset(i) as u32) // xtask-allow: no-lossy-cast (decoded from a u32 field)
            .collect()
    }

    /// The flat entry array, decoded from the image. Allocates —
    /// diagnostics and tests; query paths read the image directly.
    pub fn entries(&self) -> Vec<(NodeId, Timestamp)> {
        let lo = self.entries_at;
        EntriesSlice::new(&self.data.as_slice()[lo..lo + self.total * layout::ENTRY_BYTES]).to_vec()
    }

    /// Total entries across all nodes.
    #[inline]
    pub fn total_entries(&self) -> usize {
        self.total
    }

    /// Validates every frozen summary against the paper invariants
    /// (sorted, no self-entry, every target inside the universe) — the
    /// deep counterpart of the persist layer's cheap structural load
    /// checks, read off the arena.
    pub fn validate(&self) -> Result<(), InvariantViolation> {
        self.validate_threads(1)
    }

    /// [`validate`](Self::validate) fanned out over up to `threads`
    /// workers; reports the lowest failing node, like the serial loop.
    pub fn validate_threads(&self, threads: usize) -> Result<(), InvariantViolation> {
        let n = self.num_nodes;
        crate::par::try_for_each_indexed(n, threads, |i| {
            let node = NodeId::from_index(i);
            let mut prev: Option<NodeId> = None;
            for (x, _) in self.summary(node).iter() {
                if prev.is_some_and(|p| p >= x) {
                    return Err(InvariantViolation::UnsortedSummary { node });
                }
                prev = Some(x);
                if x == node {
                    return Err(InvariantViolation::SelfEntry { node });
                }
                if x.index() >= n {
                    return Err(InvariantViolation::TargetOutOfUniverse {
                        node,
                        target: x,
                        num_nodes: n,
                    });
                }
            }
            Ok(())
        })
    }

    /// True batch query: `Inf(S_i)` for every seed set, fanned out over up
    /// to `threads` workers. Answers are bit-identical to mapping
    /// [`InfluenceOracle::influence`] over the sets in order, but the
    /// per-query setup is amortized: each worker reuses one seed-dedup
    /// buffer and one union bitset for all its queries, duplicate seeds are
    /// dropped before any summary row is touched, and deduplicated one- and
    /// two-seed queries are answered straight off the sorted CSR slices
    /// without touching the bitset at all.
    pub fn influence_many_frozen(&self, seed_sets: &[Vec<NodeId>], threads: usize) -> Vec<f64> {
        self.influence_many_frozen_traced(seed_sets, threads, &NoopRecorder, NoopTracer)
    }

    /// [`influence_many_frozen`](Self::influence_many_frozen) with a
    /// recorder and a tracer attached. Per-query latencies land in
    /// `kernel.query_ns`, merged-row counts in `kernel.merge_rows` and the
    /// whole batch in the `oracle.query_batch` span. The batch is one
    /// `query.batch` trace span, and every element gets its own trace id
    /// (consecutive in seed-set order) under a `query.element` span whose
    /// payload is the deduplicated seed-row count. Answers are
    /// bit-identical with any recorder and tracer.
    pub fn influence_many_frozen_traced<R: Recorder, T: Tracer>(
        &self,
        seed_sets: &[Vec<NodeId>],
        threads: usize,
        rec: &R,
        tracer: T,
    ) -> Vec<f64> {
        influence_batch(self, seed_sets, threads, rec, tracer)
    }
}

impl BatchQuery for FrozenExactOracle {
    type Scratch = NodeBitset;

    fn scratch(&self) -> NodeBitset {
        NodeBitset::with_nodes(self.num_nodes)
    }

    /// One deduplicated query against the worker's bitset: direct
    /// arena-slice lengths for zero or one seed, the allocation-free
    /// two-pointer merge count for two, the recycled bitset union beyond.
    /// All four arms count exactly `|⋃ σω(s)|` — the same integer the trait
    /// path's bitset produces.
    // xtask-contract: kernel
    fn answer(&self, bits: &mut NodeBitset, seeds: &[NodeId]) -> f64 {
        match *seeds {
            [] => 0.0,
            [s] => self.summary(s).len() as f64,
            [a, b] => sorted_union_len(self.summary(a), self.summary(b)) as f64,
            _ => {
                bits.clear();
                for &s in seeds {
                    for (v, _) in self.summary(s).iter() {
                        bits.insert(v.index());
                    }
                }
                bits.len() as f64
            }
        }
    }
}

impl HeapBytes for FrozenExactOracle {
    /// Heap bytes owned by the arena image — zero when the image is a
    /// file mapping rather than owned memory.
    fn heap_bytes(&self) -> usize {
        self.data.heap_bytes()
    }
}

impl InfluenceOracle for FrozenExactOracle {
    type Union = NodeBitset;

    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn empty_union(&self) -> Self::Union {
        NodeBitset::with_nodes(self.num_nodes())
    }

    fn union_size(&self, union: &Self::Union) -> f64 {
        union.len() as f64
    }

    // xtask-contract: alloc-free, kernel
    fn absorb(&self, union: &mut Self::Union, node: NodeId) {
        for (v, _) in self.summary(node).iter() {
            union.insert(v.index());
        }
    }

    // xtask-contract: alloc-free, kernel
    fn marginal_gain(&self, union: &Self::Union, node: NodeId) -> f64 {
        self.summary(node)
            .iter()
            .filter(|&(v, _)| !union.contains(v.index()))
            .count() as f64
    }

    // xtask-contract: alloc-free, kernel
    fn individual(&self, node: NodeId) -> f64 {
        self.summary(node).len() as f64
    }

    fn reset_union(&self, union: &mut Self::Union) {
        union.clear();
    }
}

/// Collapsed vHLL sketches frozen into a CSR arena of sparse register rows
/// with precomputed per-node estimates, all backed by one contiguous
/// [`ArenaBytes`] image in the IPFA v4 layout (see the module docs). Each
/// node's row holds only its non-zero registers, as
/// `(index, ρ)` pairs sorted by index ([`SparseRow`]); rows and estimates
/// are borrowed sections of the image, so a mapped file is queryable
/// without copying or recomputing either.
#[derive(Clone, Debug, PartialEq)]
pub struct FrozenApproxOracle {
    precision: u8,
    num_nodes: usize,
    total: usize,
    at: layout::ApproxSections,
    data: ArenaBytes,
}

impl FrozenApproxOracle {
    /// Freezes versioned sketches: each node's row is its sketch's
    /// collapse (the non-zero registers of
    /// [`VersionedHll::to_hyperloglog`]), written from the occupied cells
    /// straight into the arena image, then every node's estimate is
    /// precomputed.
    pub fn from_vhll(precision: u8, sketches: &[VersionedHll]) -> Self {
        Self::from_rows(
            precision,
            sketches.len(),
            |u| sketches[u].occupied_count(),
            |u| sketches[u].collapsed_cells(),
        )
    }

    /// Freezes already-collapsed sketches (the
    /// [`ApproxOracle`](crate::ApproxOracle) representation) by storing
    /// their non-zero registers.
    ///
    /// # Panics
    ///
    /// Panics if any sketch's precision differs from `precision`.
    pub fn from_collapsed(precision: u8, sketches: &[HyperLogLog]) -> Self {
        for sketch in sketches {
            assert_eq!(
                sketch.precision(),
                precision,
                "all sketches must share the arena precision"
            );
        }
        let nonzero = |u: usize| {
            sketches[u]
                .registers()
                .iter()
                .enumerate()
                .filter(|&(_, &rho)| rho != 0)
                .map(|(i, &rho)| (i, rho))
        };
        Self::from_rows(precision, sketches.len(), |u| nonzero(u).count(), nonzero)
    }

    /// Writes the IPFA v4 image of an `n`-node arena in place. `nnz(u)` is
    /// node `u`'s count of non-zero registers and `pairs(u)` yields them as
    /// `(index, ρ)` in ascending index order. The counts size the image
    /// before any row is written, so no dense `n · β` register array is
    /// ever built. Each row's estimate is computed from its written pairs;
    /// all-zero rows share one.
    ///
    /// # Panics
    ///
    /// Panics if `n` or the total pair count exceeds `u32::MAX`, or if the
    /// rows yield other than the counted pairs.
    fn from_rows<I: Iterator<Item = (usize, u8)>>(
        precision: u8,
        n: usize,
        nnz: impl Fn(usize) -> usize,
        pairs: impl Fn(usize) -> I,
    ) -> Self {
        let beta = 1usize << precision;
        assert!(
            u32::try_from(n).is_ok(),
            "frozen arena limited to u32::MAX nodes, got {n}"
        );
        let total: usize = (0..n).map(nnz).sum();
        assert!(
            u32::try_from(total).is_ok(),
            "frozen arena limited to u32::MAX stored registers, got {total}"
        );
        let at = layout::approx_sections(n, total);
        let data = ArenaBytes::build(at.len, |img| {
            write_approx_header(img, precision, n, total);
            let empty = SparseRow::EMPTY.estimate(beta);
            let mut written = 0usize;
            for u in 0..n {
                let start = written;
                for (i, rho) in pairs(u) {
                    debug_assert!(i < beta, "register index {i} outside β = {beta}");
                    let index = i as u16; // xtask-allow: no-lossy-cast (indices stay below β ≤ 2^16)
                    let k = at.indices + written * INDEX_BYTES;
                    img[k..k + INDEX_BYTES].copy_from_slice(&index.to_le_bytes());
                    img[at.rhos + written] = rho;
                    written += 1;
                }
                // Fits while the rows yield their counted pairs (asserted
                // below): `written` then stays at most `total`.
                put_u32(img, at.offsets + (u + 1) * 4, written as u32); // xtask-allow: no-lossy-cast (total checked against u32::MAX)
                let row = SparseRow::new(
                    &img[at.indices + start * INDEX_BYTES..at.indices + written * INDEX_BYTES],
                    &img[at.rhos + start..at.rhos + written],
                );
                let est = if row.is_empty() {
                    empty
                } else {
                    row.estimate(beta)
                };
                img[at.individuals + u * 8..at.individuals + (u + 1) * 8]
                    .copy_from_slice(&est.to_le_bytes());
            }
            assert_eq!(
                written, total,
                "rows yielded other than their counted pairs"
            );
        });
        Self::from_image(precision, n, total, data)
    }

    /// Wraps an already-framed IPFA v4 image: `data` must hold exactly the
    /// sections [`layout::approx_sections`] describes for (`num_nodes`,
    /// `total`) under a matching header. The constructors above build such
    /// images from trusted sketches; the persist layer checks untrusted
    /// bytes before calling this.
    ///
    /// # Panics
    ///
    /// Panics if `data`'s length does not match the layout.
    pub(crate) fn from_image(
        precision: u8,
        num_nodes: usize,
        total: usize,
        data: ArenaBytes,
    ) -> Self {
        let at = layout::approx_sections(num_nodes, total);
        assert_eq!(data.len(), at.len, "image length must match its header");
        FrozenApproxOracle {
            precision,
            num_nodes,
            total,
            at,
            data,
        }
    }

    /// The arena's whole image — the exact bytes the persist layer
    /// writes, exposed so callers can inspect the load backend (owned vs
    /// mapped) and account heap usage.
    pub fn image(&self) -> &ArenaBytes {
        &self.data
    }

    /// Sketch precision `k` (`β = 2^k` registers per node).
    #[inline]
    pub fn precision(&self) -> u8 {
        self.precision
    }

    /// Registers per node, `β = 2^k`.
    #[inline]
    fn beta(&self) -> usize {
        1usize << self.precision
    }

    /// Total stored (non-zero) registers across all nodes (tests).
    #[cfg(test)]
    pub(crate) fn total_registers(&self) -> usize {
        self.total
    }

    /// Node `u`'s row — its non-zero registers as `(index, ρ)` pairs
    /// sorted by index — borrowed straight from the arena image.
    #[inline]
    // xtask-contract: alloc-free, kernel
    pub fn row(&self, node: NodeId) -> SparseRow<'_> {
        let b = self.data.as_slice();
        let i = node.index();
        let lo = get_u32(b, self.at.offsets + i * 4);
        let hi = get_u32(b, self.at.offsets + (i + 1) * 4);
        SparseRow::new(
            &b[self.at.indices + lo * INDEX_BYTES..self.at.indices + hi * INDEX_BYTES],
            &b[self.at.rhos + lo..self.at.rhos + hi],
        )
    }

    /// The stored estimate of node index `i`, decoded from the image's
    /// individuals section — the exact bits the row's estimate produced at
    /// freeze time.
    #[inline]
    // xtask-contract: alloc-free, kernel
    fn individual_at(&self, i: usize) -> f64 {
        let at = self.at.individuals + i * 8;
        let b = self.data.as_slice();
        f64::from_le_bytes([
            b[at],
            b[at + 1],
            b[at + 2],
            b[at + 3],
            b[at + 4],
            b[at + 5],
            b[at + 6],
            b[at + 7],
        ])
    }

    /// True batch query: `Inf(S_i)` for every seed set, fanned out over up
    /// to `threads` workers. Bit-identical to mapping
    /// [`InfluenceOracle::influence`] over the sets in order (both merge the
    /// same registers and absorb them in ascending position order), but the
    /// batch shape is amortized away: each worker reuses one seed-dedup
    /// buffer and one set of accumulators across its queries, duplicate
    /// seeds are dropped before any row is merged, and queries run four at
    /// a time so their serial estimator chains — the latency floor of a
    /// single query — overlap in the pipeline.
    pub fn influence_many_frozen(&self, seed_sets: &[Vec<NodeId>], threads: usize) -> Vec<f64> {
        self.influence_many_frozen_traced(seed_sets, threads, &NoopRecorder, NoopTracer)
    }

    /// [`influence_many_frozen`](Self::influence_many_frozen) with a
    /// recorder and a tracer attached, instrumented like
    /// [`FrozenExactOracle::influence_many_frozen_traced`]. An attached
    /// recorder or tracer answers query-at-a-time instead of four at a time,
    /// so each latency and each `query.element` span is the query's own;
    /// both orders merge and absorb every query's registers in ascending
    /// position order, so answers stay bit-identical.
    pub fn influence_many_frozen_traced<R: Recorder, T: Tracer>(
        &self,
        seed_sets: &[Vec<NodeId>],
        threads: usize,
        rec: &R,
        tracer: T,
    ) -> Vec<f64> {
        influence_batch(self, seed_sets, threads, rec, tracer)
    }

    /// Validates the arena: every row's indices strictly increasing and
    /// below `β`, every stored ρ in `1 ..= 64 − k + 1` (any other value
    /// cannot have been produced by `ApproxAdd`/`ApproxMerge` and would
    /// bias estimates), and every stored per-node estimate equal to the one
    /// recomputed from the node's row.
    pub fn validate(&self) -> Result<(), InvariantViolation> {
        self.validate_threads(1)
    }

    /// [`validate`](Self::validate) fanned out over up to `threads`
    /// workers; reports the lowest failing node, like the serial loop.
    pub fn validate_threads(&self, threads: usize) -> Result<(), InvariantViolation> {
        let beta = self.beta();
        let empty = SparseRow::EMPTY.estimate(beta);
        crate::par::try_for_each_indexed(self.num_nodes, threads, |i| {
            let node = NodeId::from_index(i);
            self.check_row(node)?;
            let row = self.row(node);
            let want = if row.is_empty() {
                empty
            } else {
                row.estimate(beta)
            };
            if self.individual_at(i).to_bits() != want.to_bits() {
                return Err(InvariantViolation::FrozenSectionMismatch {
                    node,
                    section: "individuals",
                });
            }
            Ok(())
        })
    }

    /// Checks node `u`'s stored pairs: indices strictly increasing and
    /// below `β`, every ρ in `1 ..= 64 − k + 1`. A row that passes keeps
    /// every query on it inside its `β` registers and the estimator's
    /// table, which is why loading untrusted bytes runs this for every row.
    pub(crate) fn check_row(&self, node: NodeId) -> Result<(), InvariantViolation> {
        let beta = self.beta();
        let max_rho = 64 - self.precision + 1;
        let mut next = 0;
        for (index, rho) in self.row(node).iter() {
            if index < next || index >= beta {
                return Err(InvariantViolation::RegisterIndexOutOfOrder { node, index });
            }
            if rho == 0 || rho > max_rho {
                return Err(InvariantViolation::RegisterOutOfRange { node, rho, max_rho });
            }
            next = index + 1;
        }
        Ok(())
    }
}

impl BatchQuery for FrozenApproxOracle {
    /// The worker's `GROUP · β` bytes of lanes.
    type Scratch = Vec<u8>;

    const GROUP: usize = GROUP;

    fn scratch(&self) -> Vec<u8> {
        Vec::new()
    }

    fn answer(&self, _lanes: &mut Vec<u8>, seeds: &[NodeId]) -> f64 {
        self.influence(seeds)
    }

    /// Answers `range` [`GROUP`] queries at a time: each query of a group
    /// scatter-maxes its deduplicated seeds' rows into its own `β`-byte
    /// lane of `lanes`, then the four estimators absorb their lanes
    /// together in ascending register order
    /// ([`RunningEstimator::absorb_x4`]), overlapping the dependent-add
    /// chains a lone query would serialize on, and the lanes are zeroed for
    /// the next group.
    fn answer_range(
        &self,
        lanes: &mut Vec<u8>,
        dedup: &mut Vec<NodeId>,
        seed_sets: &[Vec<NodeId>],
        range: Range<usize>,
        out: &mut Vec<f64>,
    ) {
        let beta = self.beta();
        // Sized on the worker's first group, then reused: every group
        // leaves its lanes zeroed.
        lanes.resize(GROUP * beta, 0);
        let mut group = range.start;
        while group < range.end {
            let qn = GROUP.min(range.end - group);
            for (q, lane) in lanes.chunks_exact_mut(beta).take(qn).enumerate() {
                dedup.clear();
                push_deduped(&seed_sets[group + q], dedup);
                for &s in dedup.iter() {
                    self.row(s).max_into(lane);
                }
            }
            // Lanes past `qn` stay zero: their estimators are never read.
            let (l0, rest) = lanes.split_at(beta);
            let (l1, rest) = rest.split_at(beta);
            let (l2, l3) = rest.split_at(beta);
            let mut ests = [RunningEstimator::new(); GROUP];
            RunningEstimator::absorb_x4(&mut ests, [l0, l1, l2, l3]);
            lanes[..qn * beta].fill(0);
            for est in ests.iter().take(qn) {
                out.push(est.finish());
            }
            group += qn;
        }
    }
}

impl HeapBytes for FrozenApproxOracle {
    /// Heap bytes owned by the arena image (offsets, register rows and
    /// stored estimates) — zero when the image is a file mapping rather
    /// than owned memory.
    fn heap_bytes(&self) -> usize {
        self.data.heap_bytes()
    }
}

impl InfluenceOracle for FrozenApproxOracle {
    type Union = HyperLogLog;

    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Fused k-way union estimate: max-merges each seed's pairs into a
    /// stack block ([`SparseRow::max_into_tile`]; the block holds the whole
    /// row up to `k = 10`, one tile of it beyond) and streams the block
    /// into the estimator — no union allocation, no heap merged array, no
    /// second pass. Register positions are consumed in ascending order and
    /// the merge is bytewise exact, so the result is bit-identical to
    /// materializing the union like the live oracle does.
    // xtask-contract: alloc-free, kernel
    fn influence(&self, seeds: &[NodeId]) -> f64 {
        kernel::estimate_tiles(self.beta(), |lo, block| {
            for &s in seeds {
                self.row(s).max_into_tile(lo, block);
            }
        })
    }

    fn empty_union(&self) -> Self::Union {
        HyperLogLog::new(self.precision)
    }

    fn union_size(&self, union: &Self::Union) -> f64 {
        union.estimate()
    }

    // xtask-contract: alloc-free, kernel
    fn absorb(&self, union: &mut Self::Union, node: NodeId) {
        for (index, rho) in self.row(node).iter() {
            union.merge_register(index, rho);
        }
    }

    /// Streams `max(union, row)` tile by tile through the estimator — the
    /// same register sequence (and float summation order) as estimating
    /// the materialized union, with no allocation.
    // xtask-contract: alloc-free, kernel
    fn marginal_gain(&self, union: &Self::Union, node: NodeId) -> f64 {
        let (regs, row) = (union.registers(), self.row(node));
        kernel::estimate_tiles(self.beta(), |lo, block| {
            block.copy_from_slice(&regs[lo..lo + block.len()]);
            row.max_into_tile(lo, block);
        }) - union.estimate()
    }

    // xtask-contract: alloc-free, kernel
    fn individual(&self, node: NodeId) -> f64 {
        self.individual_at(node.index())
    }

    fn reset_union(&self, union: &mut Self::Union) {
        if union.precision() == self.precision {
            union.clear();
        } else {
            *union = self.empty_union();
        }
    }
}

/// Publishes a frozen arena's size to the `frozen.bytes` gauge — shared by
/// every `freeze_recorded` entry point.
pub(crate) fn record_frozen_bytes<R: Recorder, O: HeapBytes>(oracle: &O, rec: &R) {
    if R::ENABLED {
        rec.gauge(Gauge::FrozenBytes, metric_u64(oracle.heap_bytes()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::ARENA_ALIGN;
    use crate::{ApproxIrs, ExactIrs, InfluenceOracle};
    use infprop_temporal_graph::InteractionNetwork;

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
    fn frozen_exact_matches_live_bitwise() {
        let net = figure1a();
        let irs = ExactIrs::compute(&net, Window(3));
        let live = irs.oracle();
        let frozen = irs.freeze();
        assert_eq!(frozen.num_nodes(), live.num_nodes());
        for i in 0..frozen.num_nodes() {
            let u = NodeId::from_index(i);
            assert_eq!(frozen.summary(u), irs.summary(u));
            assert_eq!(frozen.individual(u).to_bits(), live.individual(u).to_bits());
        }
        let seeds = [NodeId(0), NodeId(4)];
        assert_eq!(
            frozen.influence(&seeds).to_bits(),
            live.influence(&seeds).to_bits()
        );
        frozen.validate().expect("frozen arena validates");
    }

    #[test]
    fn frozen_approx_matches_live_bitwise() {
        let net = figure1a();
        let irs = ApproxIrs::compute(&net, Window(3));
        let live = irs.oracle();
        let frozen = irs.freeze();
        assert_eq!(frozen.num_nodes(), live.num_nodes());
        let beta = 1usize << frozen.precision();
        for i in 0..frozen.num_nodes() {
            let u = NodeId::from_index(i);
            assert_eq!(frozen.row(u).to_registers(beta), live.sketch(u).registers());
            assert_eq!(frozen.individual(u).to_bits(), live.individual(u).to_bits());
        }
        let seeds = [NodeId(0), NodeId(4), NodeId(1)];
        assert_eq!(
            frozen.influence(&seeds).to_bits(),
            live.influence(&seeds).to_bits()
        );
        // Marginal gains (the CELF probe) agree bitwise too.
        let mut fu = frozen.empty_union();
        let mut lu = live.empty_union();
        frozen.absorb(&mut fu, NodeId(0));
        live.absorb(&mut lu, NodeId(0));
        for i in 0..frozen.num_nodes() {
            let u = NodeId::from_index(i);
            assert_eq!(
                frozen.marginal_gain(&fu, u).to_bits(),
                live.marginal_gain(&lu, u).to_bits()
            );
        }
        frozen.validate().expect("frozen arena validates");
    }

    #[test]
    fn fused_influence_matches_live_for_all_seed_shapes() {
        let net = figure1a();
        // precision 4 exercises the smallest β = 16, 16 the largest and the tile walk.
        for precision in [4u8, 9, 16] {
            let irs = ApproxIrs::compute_with_precision(&net, Window(3), precision);
            let frozen = irs.freeze();
            let live = irs.oracle();
            let seed_sets: Vec<Vec<NodeId>> = vec![
                vec![],
                vec![NodeId(2)],
                vec![NodeId(0), NodeId(0)],
                (0..6).map(NodeId).collect(),
            ];
            for seeds in &seed_sets {
                assert_eq!(
                    frozen.influence(seeds).to_bits(),
                    live.influence(seeds).to_bits(),
                    "k={precision} seeds={seeds:?}"
                );
            }
        }
    }

    #[test]
    fn from_collapsed_equals_from_vhll() {
        let net = figure1a();
        let irs = ApproxIrs::compute(&net, Window(3));
        let via_vhll = irs.freeze();
        let via_collapsed = FrozenApproxOracle::from_collapsed(irs.precision(), &irs.collapse());
        assert_eq!(via_vhll, via_collapsed);
    }

    #[test]
    fn image_sections_are_aligned_and_framed() {
        let net = figure1a();
        let exact = ExactIrs::compute(&net, Window(3)).freeze();
        let (o_at, e_at, len) = layout::exact_sections(exact.num_nodes(), exact.total_entries());
        assert_eq!(exact.image().len(), len);
        assert_eq!(o_at % ARENA_ALIGN, 0);
        assert_eq!(e_at % ARENA_ALIGN, 0);
        assert_eq!(&exact.image().as_slice()[..4], layout::EXACT_MAGIC);
        assert_eq!(exact.image().as_slice()[4], layout::EXACT_VERSION);

        let approx = ApproxIrs::compute(&net, Window(3)).freeze();
        let at = layout::approx_sections(approx.num_nodes(), approx.total_registers());
        assert_eq!(approx.image().len(), at.len);
        for section in [at.offsets, at.indices, at.rhos, at.individuals] {
            assert_eq!(section % ARENA_ALIGN, 0);
        }
        assert_eq!(&approx.image().as_slice()[..4], layout::APPROX_MAGIC);
        assert_eq!(approx.image().as_slice()[4], layout::APPROX_VERSION);
        // 4 B offset and 8 B estimate per node, 3 B per stored register,
        // plus the header and at most four alignment gaps.
        let n = approx.num_nodes();
        assert!(at.len <= 64 * 5 + 4 * (n + 1) + 3 * approx.total_registers() + 8 * n);

        // The empty universe is a legal (header-only) image.
        let empty = FrozenExactOracle::from_summaries(Window(1), &[]);
        assert_eq!(empty.num_nodes(), 0);
        assert!(empty.validate().is_ok());
    }

    #[test]
    fn entries_slice_decodes_and_compares() {
        let entries = vec![(NodeId(1), Timestamp(5)), (NodeId(3), Timestamp(-2))];
        let arena = FrozenExactOracle::from_parts(Window(3), vec![0, 2, 2, 2, 2], entries.clone());
        let s = arena.summary(NodeId(0));
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.get(1), (NodeId(3), Timestamp(-2)));
        assert_eq!(s.target(0), NodeId(1));
        assert_eq!(s, entries);
        assert_eq!(s.to_vec(), entries);
        assert_eq!(s, arena.summary(NodeId(0)));
        assert!(arena.summary(NodeId(1)).is_empty());
        assert_eq!(arena.summary(NodeId(1)), EntriesSlice::empty());
        assert_eq!(arena.entries(), entries);
        assert_eq!(arena.offsets(), vec![0, 2, 2, 2, 2]);
    }

    #[test]
    fn validate_rejects_out_of_range_register() {
        let sketch = |regs: Vec<u8>| HyperLogLog::from_registers(regs);
        let arena =
            FrozenApproxOracle::from_collapsed(4, &[sketch(vec![0; 16]), sketch(vec![0; 16])]);
        assert!(arena.validate().is_ok());
        let mut regs = vec![0u8; 16];
        regs[4] = 62; // max ρ for k=4 is 61
        let bad = FrozenApproxOracle::from_collapsed(4, &[sketch(vec![0; 16]), sketch(regs)]);
        match bad.validate() {
            Err(InvariantViolation::RegisterOutOfRange { node, rho, max_rho }) => {
                assert_eq!(node, NodeId(1));
                assert_eq!((rho, max_rho), (62, 61));
            }
            other => panic!("expected RegisterOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn validate_rejects_unsorted_frozen_entries() {
        let entries = vec![(NodeId(2), Timestamp(5)), (NodeId(1), Timestamp(6))];
        let arena = FrozenExactOracle::from_parts(Window(3), vec![0, 2, 2, 2], entries);
        assert!(matches!(
            arena.validate(),
            Err(InvariantViolation::UnsortedSummary { node: NodeId(0) })
        ));
    }

    #[test]
    fn validate_rejects_target_outside_universe() {
        let entries = vec![(NodeId(9), Timestamp(5))];
        let arena = FrozenExactOracle::from_parts(Window(3), vec![0, 1, 1], entries);
        assert_eq!(
            arena.validate(),
            Err(InvariantViolation::TargetOutOfUniverse {
                node: NodeId(0),
                target: NodeId(9),
                num_nodes: 2,
            })
        );
    }

    /// `frozen`'s image with `edit` applied, rewrapped without load checks.
    fn edited(frozen: &FrozenApproxOracle, edit: impl FnOnce(&mut [u8])) -> FrozenApproxOracle {
        let mut img = frozen.image().as_slice().to_vec();
        edit(&mut img);
        FrozenApproxOracle::from_image(
            frozen.precision(),
            frozen.num_nodes(),
            frozen.total_registers(),
            ArenaBytes::from_vec(img),
        )
    }

    #[test]
    fn validate_rejects_corrupt_rows_and_estimates() {
        let net = figure1a();
        let frozen = ApproxIrs::compute(&net, Window(3)).freeze();
        assert!(frozen.validate().is_ok());
        let at = frozen.at;
        // Node 0 reaches several nodes, so its row holds several pairs.
        let pairs = frozen.row(NodeId(0)).len();
        assert!(pairs >= 2, "node 0 stores {pairs} registers");

        let bad = edited(&frozen, |img| img[at.individuals] ^= 1);
        assert!(matches!(
            bad.validate(),
            Err(InvariantViolation::FrozenSectionMismatch {
                node: NodeId(0),
                section: "individuals",
            })
        ));

        // Swap node 0's first two indices: no longer strictly increasing.
        let bad = edited(&frozen, |img| {
            let (a, b) = (at.indices, at.indices + INDEX_BYTES);
            let first = [img[a], img[a + 1]];
            img.copy_within(b..b + INDEX_BYTES, a);
            img[b..b + INDEX_BYTES].copy_from_slice(&first);
        });
        assert!(matches!(
            bad.validate(),
            Err(InvariantViolation::RegisterIndexOutOfOrder {
                node: NodeId(0),
                ..
            })
        ));

        // An index past β.
        let bad = edited(&frozen, |img| {
            let last = at.indices + (pairs - 1) * INDEX_BYTES;
            img[last..last + INDEX_BYTES].copy_from_slice(&u16::MAX.to_le_bytes());
        });
        assert!(matches!(
            bad.validate(),
            Err(InvariantViolation::RegisterIndexOutOfOrder {
                node: NodeId(0),
                index: 65535,
            })
        ));

        // A stored zero is not a non-zero register.
        let bad = edited(&frozen, |img| img[at.rhos] = 0);
        assert!(matches!(
            bad.validate(),
            Err(InvariantViolation::RegisterOutOfRange { rho: 0, .. })
        ));
    }

    #[test]
    fn rows_hold_exactly_the_nonzero_registers() {
        let net = figure1a();
        // Every precision the format accepts shares the one row encoding;
        // k = 16 stores indices up to the largest u16.
        for precision in [4u8, 7, 9, 16] {
            let irs = ApproxIrs::compute_with_precision(&net, Window(3), precision);
            let frozen = irs.freeze();
            let beta = 1usize << precision;
            let mut total = 0;
            for u in 0..frozen.num_nodes() {
                let node = NodeId::from_index(u);
                let dense = irs.sketch(node).to_hyperloglog();
                let want: Vec<(usize, u8)> = dense
                    .registers()
                    .iter()
                    .enumerate()
                    .filter(|&(_, &r)| r != 0)
                    .map(|(i, &r)| (i, r))
                    .collect();
                let row = frozen.row(node);
                assert_eq!(row.iter().collect::<Vec<_>>(), want, "k={precision} u={u}");
                assert_eq!(row.to_registers(beta), dense.registers());
                total += want.len();
            }
            assert_eq!(frozen.total_registers(), total);
            frozen.validate().expect("frozen arena validates");
        }
    }

    /// Seed-set shapes that exercise every batch arm: empty sets,
    /// singletons, duplicates, two-seed fast path, wide unions, and enough
    /// queries that the GROUP=4 kernel runs a full group plus a remainder.
    fn batch_seed_sets() -> Vec<Vec<NodeId>> {
        vec![
            vec![NodeId(0), NodeId(4)],
            vec![],
            vec![NodeId(2)],
            vec![NodeId(3), NodeId(3), NodeId(3)],
            (0..6).map(NodeId).collect(),
            vec![NodeId(5), NodeId(1), NodeId(5), NodeId(0)],
            vec![NodeId(1), NodeId(2)],
            // Same GROUP lane as `[3, 3, 3]` one group earlier, with an
            // all-zero row: a lane the kernel left dirty would show here.
            vec![NodeId(5)],
        ]
    }

    #[test]
    fn approx_batch_matches_per_query_bitwise() {
        let net = figure1a();
        // precision 4 exercises the smallest β = 16, 16 the largest and the tile walk.
        for precision in [4u8, 9, 16] {
            let irs = ApproxIrs::compute_with_precision(&net, Window(3), precision);
            let frozen = irs.freeze();
            let live = irs.oracle();
            let sets = batch_seed_sets();
            let per_query: Vec<f64> = sets.iter().map(|s| frozen.influence(s)).collect();
            for (s, &want) in sets.iter().zip(&per_query) {
                assert_eq!(live.influence(s).to_bits(), want.to_bits());
            }
            for threads in [1, 2, 8] {
                let batch = frozen.influence_many_frozen(&sets, threads);
                for (got, want) in batch.iter().zip(&per_query) {
                    assert_eq!(got.to_bits(), want.to_bits(), "k={precision} t={threads}");
                }
            }
        }
    }

    #[test]
    fn exact_batch_matches_per_query_bitwise() {
        let net = figure1a();
        let irs = ExactIrs::compute(&net, Window(3));
        let frozen = irs.freeze();
        let sets = batch_seed_sets();
        let per_query: Vec<f64> = sets.iter().map(|s| frozen.influence(s)).collect();
        for threads in [1, 2, 8] {
            let batch = frozen.influence_many_frozen(&sets, threads);
            for (got, want) in batch.iter().zip(&per_query) {
                assert_eq!(got.to_bits(), want.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn recorded_batch_matches_unrecorded_and_counts_kernel_metrics() {
        use crate::obs::MetricsRecorder;
        let net = figure1a();
        let irs = ApproxIrs::compute(&net, Window(3));
        let frozen = irs.freeze();
        let sets = batch_seed_sets();
        let rec = MetricsRecorder::new();
        let recorded = frozen.influence_many_frozen_traced(&sets, 2, &rec, NoopTracer);
        let plain = frozen.influence_many_frozen(&sets, 2);
        assert_eq!(
            recorded.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            plain.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let snap = rec.snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap()
        };
        assert_eq!(counter("kernel.batch_queries"), sets.len() as u64);
        // Deduplicated rows: 2 + 0 + 1 + 1 + 6 + 3 + 2 + 1 = 16.
        assert_eq!(counter("kernel.merge_rows"), 16);
        let query_hist = snap.hists.iter().find(|h| h.name == "kernel.query_ns");
        assert_eq!(query_hist.map(|h| h.count), Some(sets.len() as u64));
    }

    #[test]
    fn frozen_heap_bytes_are_positive_and_compact() {
        let net = figure1a();
        let irs = ExactIrs::compute(&net, Window(3));
        let frozen = irs.freeze();
        assert!(frozen.heap_bytes() > 0);
        assert_eq!(frozen.total_entries(), irs.total_entries());
    }

    #[test]
    fn align_up_rounds_to_the_next_section_boundary() {
        assert_eq!(layout::align_up(0), 0);
        assert_eq!(layout::align_up(1), ARENA_ALIGN);
        assert_eq!(layout::align_up(ARENA_ALIGN), ARENA_ALIGN);
        assert_eq!(layout::align_up(ARENA_ALIGN + 1), 2 * ARENA_ALIGN);
        assert_eq!(layout::align_up(layout::APPROX_HEADER), ARENA_ALIGN);
    }

    #[test]
    fn approx_sections_size_each_section_by_its_count() {
        for (n, total) in [
            (0usize, 0usize),
            (1, 0),
            (3, 5),
            (15, 1),
            (16, 1000),
            (10_058, 26_290),
        ] {
            let at = layout::approx_sections(n, total);
            assert_eq!(at.offsets, ARENA_ALIGN, "n={n} total={total}");
            assert_eq!(at.indices, layout::align_up(at.offsets + 4 * (n + 1)));
            assert_eq!(at.rhos, layout::align_up(at.indices + INDEX_BYTES * total));
            assert_eq!(at.individuals, layout::align_up(at.rhos + total));
            assert_eq!(at.len, at.individuals + 8 * n);
        }
    }

    #[test]
    fn approx_header_records_precision_and_counts() {
        let irs = ApproxIrs::compute_with_precision(&figure1a(), Window(3), 7);
        let frozen = irs.freeze();
        let img = frozen.image().as_slice();
        assert_eq!(&img[..4], b"IPFA");
        assert_eq!(img[4], 4);
        assert_eq!(img[5], 7);
        let n = u32::from_le_bytes([img[6], img[7], img[8], img[9]]);
        assert_eq!(n as usize, frozen.num_nodes());
        let mut total = [0u8; 8];
        total.copy_from_slice(&img[10..18]);
        assert_eq!(u64::from_le_bytes(total) as usize, frozen.total_registers());
        // Header padding up to the offsets section is zero.
        assert!(img[layout::APPROX_HEADER..ARENA_ALIGN]
            .iter()
            .all(|&b| b == 0));
    }

    #[test]
    fn empty_universe_approx_arena_is_header_only() {
        let frozen = FrozenApproxOracle::from_vhll(9, &[]);
        assert_eq!(frozen.num_nodes(), 0);
        assert_eq!(frozen.total_registers(), 0);
        assert_eq!(frozen.image().len(), layout::approx_sections(0, 0).len);
        frozen.validate().expect("an empty arena validates");
        assert_eq!(frozen.influence(&[]), 0.0);
        assert!(frozen.influence_many_frozen(&[], 2).is_empty());
    }

    #[test]
    fn all_zero_rows_share_the_empty_estimate() {
        let mut regs = vec![0u8; 16];
        regs[5] = 3;
        regs[11] = 1;
        let sketches = [
            HyperLogLog::new(4),
            HyperLogLog::from_registers(regs.clone()),
            HyperLogLog::new(4),
        ];
        let frozen = FrozenApproxOracle::from_collapsed(4, &sketches);
        assert_eq!(frozen.total_registers(), 2);
        let empty = SparseRow::EMPTY.estimate(16);
        for u in [NodeId(0), NodeId(2)] {
            assert!(frozen.row(u).is_empty());
            assert_eq!(frozen.individual(u).to_bits(), empty.to_bits());
        }
        assert_eq!(frozen.row(NodeId(1)).to_registers(16), regs);
        assert_eq!(
            frozen.individual(NodeId(1)).to_bits(),
            sketches[1].estimate().to_bits()
        );
        frozen.validate().expect("frozen arena validates");
    }

    #[test]
    #[should_panic(expected = "share the arena precision")]
    fn from_collapsed_rejects_mixed_precisions() {
        let _ = FrozenApproxOracle::from_collapsed(4, &[HyperLogLog::new(4), HyperLogLog::new(5)]);
    }

    #[test]
    fn singleton_influence_equals_stored_individual() {
        let net = figure1a();
        // k = 11 spans two 1024-register tiles.
        for precision in [4u8, 9, 11] {
            let frozen = ApproxIrs::compute_with_precision(&net, Window(3), precision).freeze();
            for i in 0..frozen.num_nodes() {
                let u = NodeId::from_index(i);
                assert_eq!(
                    frozen.influence(&[u]).to_bits(),
                    frozen.individual(u).to_bits(),
                    "k={precision} u={i}"
                );
            }
        }
    }

    #[test]
    fn absorbed_union_holds_the_merged_rows() {
        let net = figure1a();
        let frozen = ApproxIrs::compute_with_precision(&net, Window(3), 6).freeze();
        let seeds = [NodeId(0), NodeId(3), NodeId(4)];
        let mut union = frozen.empty_union();
        let mut dense = vec![0u8; 64];
        for &s in &seeds {
            frozen.absorb(&mut union, s);
            frozen.row(s).max_into(&mut dense);
        }
        assert_eq!(union.registers(), &dense[..]);
        assert_eq!(
            frozen.union_size(&union).to_bits(),
            frozen.influence(&seeds).to_bits()
        );
    }

    #[test]
    fn marginal_gain_is_the_influence_difference() {
        let net = figure1a();
        let frozen = ApproxIrs::compute_with_precision(&net, Window(3), 9).freeze();
        let mut union = frozen.empty_union();
        frozen.absorb(&mut union, NodeId(0));
        let base = frozen.influence(&[NodeId(0)]);
        assert_eq!(frozen.marginal_gain(&union, NodeId(0)), 0.0);
        for i in 0..frozen.num_nodes() {
            let u = NodeId::from_index(i);
            assert_eq!(
                frozen.marginal_gain(&union, u).to_bits(),
                (frozen.influence(&[NodeId(0), u]) - base).to_bits(),
                "u={i}"
            );
        }
    }

    #[test]
    fn reset_union_replaces_a_foreign_precision_union() {
        let net = figure1a();
        let frozen = ApproxIrs::compute_with_precision(&net, Window(3), 9).freeze();
        let mut union = frozen.empty_union();
        frozen.absorb(&mut union, NodeId(0));
        assert!(!union.is_empty());
        frozen.reset_union(&mut union);
        assert_eq!(union, HyperLogLog::new(9));
        let mut foreign = HyperLogLog::new(5);
        foreign.add_u64(7);
        frozen.reset_union(&mut foreign);
        assert_eq!(foreign, HyperLogLog::new(9));
    }

    #[test]
    fn validate_threads_reports_the_lowest_corrupt_node() {
        let net = figure1a();
        let frozen = ApproxIrs::compute(&net, Window(3)).freeze();
        let at = frozen.at;
        let bad = edited(&frozen, |img| {
            img[at.individuals + 4 * 8] ^= 1;
            img[at.individuals + 2 * 8] ^= 1;
        });
        for threads in [1, 2, 4] {
            assert_eq!(
                bad.validate_threads(threads),
                Err(InvariantViolation::FrozenSectionMismatch {
                    node: NodeId(2),
                    section: "individuals",
                }),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn owned_images_account_their_heap_bytes() {
        let net = figure1a();
        let approx = ApproxIrs::compute(&net, Window(3)).freeze();
        assert!(!approx.image().is_mapped());
        assert!(approx.heap_bytes() >= approx.image().len());
        let exact = ExactIrs::compute(&net, Window(3)).freeze();
        assert!(exact.heap_bytes() >= exact.image().len());
        // A clone owns a copy of the same bytes.
        let copy = approx.clone();
        assert_eq!(copy.image(), approx.image());
        assert!(copy.heap_bytes() >= copy.image().len());
    }

    #[test]
    fn check_row_accepts_the_last_register_and_rejects_beta() {
        // k = 4: indices 0 ..= 15 are registers, 16 is past the row.
        let mut regs = vec![0u8; 16];
        regs[3] = 2;
        regs[14] = 1;
        let frozen = FrozenApproxOracle::from_collapsed(4, &[HyperLogLog::from_registers(regs)]);
        let at = frozen.at;
        let last = at.indices + INDEX_BYTES;
        let top = edited(&frozen, |img| {
            img[last..last + INDEX_BYTES].copy_from_slice(&15u16.to_le_bytes());
        });
        assert_eq!(top.check_row(NodeId(0)), Ok(()));
        let past = edited(&frozen, |img| {
            img[last..last + INDEX_BYTES].copy_from_slice(&16u16.to_le_bytes());
        });
        assert_eq!(
            past.check_row(NodeId(0)),
            Err(InvariantViolation::RegisterIndexOutOfOrder {
                node: NodeId(0),
                index: 16,
            })
        );
    }
}

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
//! * [`FrozenApproxOracle`] — one flat `β`-bytes-per-node register arena
//!   (the per-cell maxima of the versioned sketches, i.e. the same
//!   collapse [`ApproxOracle`](crate::ApproxOracle) performs), its
//!   tile-major transpose, plus the per-node estimates **precomputed at
//!   freeze time**, turning the `individuals` sweep and every CELF
//!   first-round probe into a table read.
//!
//! # One image, in memory and on disk
//!
//! Since IPFE layout v2 / IPFA layout v3 each arena *is* its on-disk
//! image: one contiguous [`ArenaBytes`] buffer holding the format header
//! followed by every section, each section padded to start on an
//! [`ARENA_ALIGN`]-byte boundary (see [`layout`]). The persist layer
//! writes the image verbatim and loads by validating the header + section
//! framing and wrapping the bytes — which is what makes `mmap` loading
//! zero-copy: a mapped file is queryable as-is, with zero per-node
//! allocation or decoding pass. Exact entries are decoded on the fly
//! through [`EntriesSlice`] (12-byte little-endian records); register
//! sections are raw bytes and borrow directly.
//!
//! Both oracles implement [`InfluenceOracle`], so `individuals`,
//! `influence_many` and `greedy_top_k` run unchanged — and bit-identically:
//! the frozen layouts preserve entry order and register values, and every
//! estimator path reuses the exact same summation order as the live
//! oracles.

use crate::arena::ArenaBytes;
use crate::invariants::InvariantViolation;
use crate::kernel;
use crate::obs::{metric_u64, Gauge, HeapBytes, NoopRecorder, Recorder};
use crate::oracle::{finish_batch_recorded, push_deduped, record_batch_query};
use crate::oracle::{InfluenceOracle, NodeBitset};
use crate::trace::{NoopTracer, SpanId, TraceEvent, TraceId, Tracer};
use infprop_hll::{estimate_from_registers, HyperLogLog, RunningEstimator, VersionedHll};
use infprop_temporal_graph::{NodeId, Timestamp, Window};
use std::fmt;
use std::ops::Range;

/// Merge-block and transpose-tile width in bytes — one cache line, clamped
/// to `β` for small precisions (`step = min(TILE, β)`).
pub(crate) const TILE: usize = 64;

/// Queries interleaved per group by the approx batch kernel. The latency
/// floor of a single query is the estimator's *serial* dependent-add chain
/// (β float adds that must stay in ascending register order for
/// bit-identity); interleaving `GROUP` independent queries tile by tile
/// lets their chains overlap in the pipeline while the group's merge
/// blocks and estimators still fit in L1.
const GROUP: usize = 4;

/// The arena image layout shared by the in-memory oracles and the persist
/// codecs: IPFE layout v2 and IPFA layout v3 place every section on an
/// [`ARENA_ALIGN`]-byte boundary (gaps zero-filled) so a file loaded — or
/// mapped — into an aligned buffer can serve each section as a borrowed
/// slice.
///
/// * IPFE v2: `header (25 B) | pad | offsets ((n+1)×4 B u32 LE) | pad |
///   entries (total×12 B)` — header = magic `IPFE`, version, window `i64`,
///   `n` `u32`, `total` `u64`, all little-endian.
/// * IPFA v3: `header (10 B) | pad | registers (n·β B) | pad |
///   transposed (n·β B) | pad | individuals (n×8 B f64 LE bits)` —
///   header = magic `IPFA`, version, precision, `n` `u32`.
pub(crate) mod layout {
    use crate::arena::ARENA_ALIGN;

    /// Magic prefix of the frozen exact (CSR) arena image.
    pub(crate) const EXACT_MAGIC: &[u8; 4] = b"IPFE";
    /// Magic prefix of the frozen approx (register) arena image.
    pub(crate) const APPROX_MAGIC: &[u8; 4] = b"IPFA";
    /// Current IPFE layout version: aligned sections, image == arena.
    pub(crate) const EXACT_VERSION: u8 = 2;
    /// Current IPFA layout version: aligned sections plus the precomputed
    /// per-node estimates stored after the register sections.
    pub(crate) const APPROX_VERSION: u8 = 3;
    /// IPFE header bytes: magic, version, window, `n`, `total`.
    pub(crate) const EXACT_HEADER: usize = 25;
    /// IPFA header bytes: magic, version, precision, `n`.
    pub(crate) const APPROX_HEADER: usize = 10;
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

    /// IPFA v3 section positions for an `n`-node, `β`-register arena:
    /// `(registers_at, transposed_at, individuals_at, image_len)`.
    pub(crate) fn approx_sections(num_nodes: usize, beta: usize) -> (usize, usize, usize, usize) {
        let regs_at = align_up(APPROX_HEADER);
        let trans_at = align_up(regs_at + num_nodes * beta);
        let indiv_at = align_up(trans_at + num_nodes * beta);
        (regs_at, trans_at, indiv_at, indiv_at + num_nodes * 8)
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

/// Writes the 25-byte IPFE v2 header. Callers have checked that `n` fits
/// `u32` (the format's node field).
fn write_exact_header(img: &mut [u8], window: Window, n: usize, total: usize) {
    img[..4].copy_from_slice(layout::EXACT_MAGIC);
    img[4] = layout::EXACT_VERSION;
    img[5..13].copy_from_slice(&window.0.to_le_bytes());
    img[13..17].copy_from_slice(&(n as u32).to_le_bytes()); // xtask-allow: no-lossy-cast (callers assert n fits u32)
    img[17..25].copy_from_slice(&metric_u64(total).to_le_bytes());
}

/// Writes the 10-byte IPFA v3 header. Callers have checked that `n` fits
/// `u32` (the format's node field).
fn write_approx_header(img: &mut [u8], precision: u8, n: usize) {
    img[..4].copy_from_slice(layout::APPROX_MAGIC);
    img[4] = layout::APPROX_VERSION;
    img[5] = precision;
    img[6..10].copy_from_slice(&(n as u32).to_le_bytes()); // xtask-allow: no-lossy-cast (callers assert n fits u32)
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
/// [`ArenaBytes`] image in the IPFE v2 layout (see the module docs and
/// [`layout`]): header, aligned offset section, aligned entry section.
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
        let at = self.offsets_at + i * 4;
        let b = self.data.as_slice();
        u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]]) as usize // xtask-allow: no-lossy-cast (u32 fits usize)
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
        self.influence_many_frozen_recorded(seed_sets, threads, &NoopRecorder)
    }

    /// [`influence_many_frozen`](Self::influence_many_frozen) with
    /// instrumentation: per-query latencies land in `kernel.query_ns`,
    /// merged-row counts in `kernel.merge_rows`, and the whole batch in the
    /// `oracle.query_batch` span. Answers are identical to the unrecorded
    /// path.
    pub fn influence_many_frozen_recorded<R: Recorder>(
        &self,
        seed_sets: &[Vec<NodeId>],
        threads: usize,
        rec: &R,
    ) -> Vec<f64> {
        self.influence_many_frozen_traced(seed_sets, threads, rec, NoopTracer)
    }

    /// [`influence_many_frozen_recorded`](Self::influence_many_frozen_recorded)
    /// with causal tracing: the batch becomes one `query.batch` span and
    /// every element gets its **own trace id** (consecutive from one
    /// [`Tracer::alloc_traces`] reservation, in seed-set order) under a
    /// `query.element` span, emitted on the worker lane that answered it
    /// (payload: deduplicated seed rows merged). With [`NoopTracer`] this
    /// monomorphizes back to the recorded path; answers are bit-identical
    /// either way.
    pub fn influence_many_frozen_traced<R: Recorder, T: Tracer>(
        &self,
        seed_sets: &[Vec<NodeId>],
        threads: usize,
        rec: &R,
        tracer: T,
    ) -> Vec<f64> {
        let t0 = rec.span_start();
        let base = if T::ENABLED {
            tracer.alloc_traces(metric_u64(seed_sets.len()) + 1)
        } else {
            0
        };
        let batch_span = tracer.begin(TraceId(base), SpanId::NONE, TraceEvent::QueryBatch);
        let out = crate::par::map_ranges_with_recorded(
            seed_sets.len(),
            1,
            threads,
            || {
                (
                    NodeBitset::with_nodes(self.num_nodes()),
                    Vec::new(),
                    tracer.worker(),
                )
            },
            |(bits, dedup, tr), range| {
                let mut part = Vec::with_capacity(range.len());
                tr.mark(TraceEvent::QueryElement);
                for q in range {
                    let tq = rec.span_start();
                    dedup.clear();
                    push_deduped(&seed_sets[q], dedup);
                    part.push(self.influence_deduped(dedup, bits));
                    tr.lap(
                        TraceId(base + 1 + metric_u64(q)),
                        batch_span,
                        TraceEvent::QueryElement,
                        metric_u64(dedup.len()),
                    );
                    if R::ENABLED {
                        record_batch_query(dedup.len(), tq, rec);
                    }
                }
                part
            },
            rec,
        );
        tracer.end(
            batch_span,
            TraceEvent::QueryBatch,
            metric_u64(seed_sets.len()),
        );
        finish_batch_recorded(&out, t0, rec);
        out
    }

    /// One deduplicated query against reusable worker scratch: direct
    /// arena-slice lengths for zero or one seed, the allocation-free
    /// two-pointer merge count for two, the recycled bitset union beyond.
    /// All four arms count exactly `|⋃ σω(s)|` — the same integer the trait
    /// path's bitset produces.
    // xtask-contract: kernel
    fn influence_deduped(&self, seeds: &[NodeId], bits: &mut NodeBitset) -> f64 {
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

/// Collapsed vHLL sketches frozen into a flat register arena with
/// precomputed per-node estimates, all backed by one contiguous
/// [`ArenaBytes`] image in the IPFA v3 layout (see the module docs and
/// [`layout`]). The node-major registers, the tile-major transpose, and
/// the stored estimates are borrowed sections of the image — a mapped
/// file is queryable without copying or recomputing any of them.
#[derive(Clone, Debug, PartialEq)]
pub struct FrozenApproxOracle {
    precision: u8,
    num_nodes: usize,
    regs_at: usize,
    trans_at: usize,
    indiv_at: usize,
    data: ArenaBytes,
}

impl FrozenApproxOracle {
    /// Freezes versioned sketches: collapses each to its per-cell maxima
    /// (exactly [`VersionedHll::to_hyperloglog`]) directly into the
    /// arena image, then precomputes every node's estimate.
    pub fn from_vhll(precision: u8, sketches: &[VersionedHll]) -> Self {
        Self::from_rows(precision, sketches.len(), |u, row| {
            sketches[u].collapse_registers_into(row);
        })
    }

    /// Freezes already-collapsed sketches (the
    /// [`ApproxOracle`](crate::ApproxOracle) representation) by copying
    /// their registers into the arena image.
    ///
    /// # Panics
    ///
    /// Panics if any sketch's precision differs from `precision`.
    pub fn from_collapsed(precision: u8, sketches: &[HyperLogLog]) -> Self {
        Self::from_rows(precision, sketches.len(), |u, row| {
            assert_eq!(
                sketches[u].precision(),
                precision,
                "all sketches must share the arena precision"
            );
            row.copy_from_slice(sketches[u].registers());
        })
    }

    /// Builds the arena from a flat register array (`β` bytes per node):
    /// the transpose and per-node estimates are computed once here and
    /// stored in the image, so loading the persisted arena recomputes
    /// neither.
    ///
    /// # Panics
    ///
    /// Panics if `registers.len()` is not a multiple of `β = 2^precision`
    /// or holds more than `u32::MAX` node slots.
    pub fn from_registers_arena(precision: u8, registers: Vec<u8>) -> Self {
        let beta = 1usize << precision;
        assert!(
            registers.len().is_multiple_of(beta),
            "register arena must hold whole β-sized node slots"
        );
        Self::from_rows(precision, registers.len() / beta, |u, row| {
            row.copy_from_slice(&registers[u * beta..(u + 1) * beta]);
        })
    }

    /// Writes the IPFA v3 image of an `n`-node arena in place: `fill_row`
    /// writes node `u`'s registers into its (zeroed) `β`-byte row, then the
    /// transpose and the per-node estimates are derived from the register
    /// section.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX`.
    fn from_rows(precision: u8, n: usize, mut fill_row: impl FnMut(usize, &mut [u8])) -> Self {
        let beta = 1usize << precision;
        assert!(
            u32::try_from(n).is_ok(),
            "frozen arena limited to u32::MAX nodes, got {n}"
        );
        let (regs_at, trans_at, indiv_at, image_len) = layout::approx_sections(n, beta);
        let data = ArenaBytes::build(image_len, |img| {
            write_approx_header(img, precision, n);
            let (head, tail) = img.split_at_mut(trans_at);
            let registers = &mut head[regs_at..regs_at + n * beta];
            for (u, row) in registers.chunks_exact_mut(beta).enumerate() {
                fill_row(u, row);
            }
            let (transposed, individuals) = tail.split_at_mut(indiv_at - trans_at);
            transpose_registers(precision, registers, &mut transposed[..n * beta]);
            // Rows the build never touched are all-zero and share one
            // estimate (a layered overlay leaves all but a few rows empty).
            let empty = estimate_from_registers(&vec![0u8; beta]);
            for (row, slot) in registers
                .chunks_exact(beta)
                .zip(individuals.chunks_exact_mut(8))
            {
                let est = if is_zero_row(row) {
                    empty
                } else {
                    estimate_from_registers(row)
                };
                slot.copy_from_slice(&est.to_le_bytes());
            }
        });
        Self::from_image(precision, n, data)
    }

    /// Wraps an already-validated IPFA v3 image: `data` must hold exactly
    /// the sections [`layout::approx_sections`] describes for
    /// (`num_nodes`, `β = 2^precision`) under a matching header. The
    /// constructors above build such images from trusted registers; the
    /// persist layer validates untrusted bytes before calling this.
    ///
    /// # Panics
    ///
    /// Panics if `data`'s length does not match the layout.
    pub(crate) fn from_image(precision: u8, num_nodes: usize, data: ArenaBytes) -> Self {
        let beta = 1usize << precision;
        let (regs_at, trans_at, indiv_at, image_len) = layout::approx_sections(num_nodes, beta);
        assert_eq!(data.len(), image_len, "image length must match its header");
        FrozenApproxOracle {
            precision,
            num_nodes,
            regs_at,
            trans_at,
            indiv_at,
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

    /// Node `u`'s register slice in the arena.
    #[inline]
    // xtask-contract: alloc-free, kernel
    pub fn node_registers(&self, node: NodeId) -> &[u8] {
        let beta = 1usize << self.precision;
        let lo = self.regs_at + node.index() * beta;
        &self.data.as_slice()[lo..lo + beta]
    }

    /// The whole flat register arena (node-major), borrowed from the
    /// image.
    #[inline]
    // xtask-contract: alloc-free, kernel
    pub fn registers(&self) -> &[u8] {
        let len = self.num_nodes << self.precision;
        &self.data.as_slice()[self.regs_at..self.regs_at + len]
    }

    /// The register-transposed (tile-major) arena the query kernels
    /// stream — same bytes as [`registers`](Self::registers), reordered by
    /// [`transpose_registers`], borrowed from the image.
    #[inline]
    // xtask-contract: alloc-free, kernel
    pub fn transposed(&self) -> &[u8] {
        let len = self.num_nodes << self.precision;
        &self.data.as_slice()[self.trans_at..self.trans_at + len]
    }

    /// The stored estimate of node index `i`, decoded from the image's
    /// individuals section — the exact bits `estimate_from_registers`
    /// produced at freeze time.
    #[inline]
    // xtask-contract: alloc-free, kernel
    fn individual_at(&self, i: usize) -> f64 {
        let at = self.indiv_at + i * 8;
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

    /// Node `u`'s `step = min(TILE, β)` registers of transpose tile
    /// `tile` — one contiguous `step`-byte chunk of the tile-major arena.
    /// This is the tile-major counterpart of
    /// [`node_registers`](Self::node_registers): consecutive nodes' chunks
    /// of one tile are adjacent, so kernels that sweep a fixed register
    /// range across *many* nodes (column analytics, seed-id-local scans)
    /// stream it sequentially.
    #[inline]
    // xtask-contract: alloc-free, kernel
    pub fn tile_chunk(&self, tile: usize, node: NodeId) -> &[u8] {
        let step = TILE.min(1usize << self.precision);
        let lo = (tile * self.num_nodes + node.index()) * step;
        &self.transposed()[lo..lo + step]
    }

    /// Node `u`'s `step = min(TILE, β)` registers of tile `tile`, read from
    /// the node-major arena — the query kernels' layout of choice: a seed's
    /// row is one contiguous β-byte run, so the first tile's touch pulls
    /// the whole row through the hardware prefetcher and every later tile
    /// hits L1 (the tile-major arena scatters the same bytes 64 B at a
    /// time across `n · TILE`-byte regions, one cold line per touch).
    #[inline]
    // xtask-contract: alloc-free, kernel
    fn row_chunk(&self, tile: usize, node: NodeId) -> &[u8] {
        let beta = 1usize << self.precision;
        let step = TILE.min(beta);
        let lo = node.index() * beta + tile * step;
        &self.registers()[lo..lo + step]
    }

    /// [`row_chunk`](Self::row_chunk) for the `β ≥ TILE` case: the slice
    /// length is the literal [`TILE`], so after inlining the merge loops
    /// over it compile to full-width vector maxes with no remainder tail.
    /// `beta` is a parameter (not re-read from `self`) so the β-literal
    /// dispatch below const-folds the row stride too.
    #[inline(always)]
    // xtask-contract: alloc-free, kernel
    fn row_tile(&self, beta: usize, tile: usize, node: NodeId) -> &[u8] {
        let lo = node.index() * beta + tile * TILE;
        &self.registers()[lo..lo + TILE]
    }

    /// The fused merge/absorb loop for one seed set when `β ≥ TILE`.
    /// Forced inline so the β-literal match arms in
    /// [`InfluenceOracle::influence`] each stamp out a copy with `beta` (and
    /// therefore the tile count and every row offset) known at compile
    /// time — the tile loop fully unrolls and the merge blocks stay in
    /// vector registers instead of round-tripping through the stack. All
    /// instantiations run the same operations in the same order, so
    /// answers are bit-identical regardless of which arm dispatched.
    #[inline(always)]
    // xtask-contract: alloc-free, kernel
    fn influence_tiles(&self, beta: usize, seeds: &[NodeId]) -> f64 {
        let mut est = RunningEstimator::new();
        let mut block = [0u8; TILE];
        for t in 0..beta / TILE {
            if let Some((&first, rest)) = seeds.split_first() {
                block.copy_from_slice(self.row_tile(beta, t, first));
                for &s in rest {
                    kernel::merge_max(&mut block, self.row_tile(beta, t, s));
                }
            } else {
                block.fill(0);
            }
            est.absorb_registers(&block);
        }
        est.finish()
    }

    /// The fused merge/absorb loop for one [`GROUP`] of a batch when
    /// `β ≥ TILE` — the interleaved counterpart of
    /// [`influence_tiles`](Self::influence_tiles), forced inline for the
    /// same β-literal const-folding (see there).
    #[inline(always)]
    // xtask-contract: alloc-free, kernel
    fn group_merge_tiles(
        &self,
        beta: usize,
        dedup: &[NodeId],
        spans: &[(usize, usize); GROUP],
        ests: &mut [RunningEstimator; GROUP],
        qn: usize,
    ) {
        let regs: &[u8] = self.registers();
        // Lanes past `qn` (and empty seed sets) keep their zero blocks: a
        // zero register absorbs as `2^-0`, and unused lanes' estimators are
        // never read, so the wide absorb below stays safe and exact.
        let mut blocks = [[0u8; TILE]; GROUP];
        for t in 0..beta / TILE {
            for (q, block) in blocks.iter_mut().enumerate().take(qn) {
                let (lo, hi) = spans[q];
                if let Some((&first, rest)) = dedup[lo..hi].split_first() {
                    let o = first.index() * beta + t * TILE;
                    block.copy_from_slice(&regs[o..o + TILE]);
                    for &s in rest {
                        let o = s.index() * beta + t * TILE;
                        kernel::merge_max(block, &regs[o..o + TILE]);
                    }
                }
            }
            let [b0, b1, b2, b3] = &blocks;
            RunningEstimator::absorb_x4(ests, [b0, b1, b2, b3]);
        }
    }

    /// True batch query: `Inf(S_i)` for every seed set, fanned out over up
    /// to `threads` workers. Bit-identical to mapping
    /// [`InfluenceOracle::influence`] over the sets in order (registers are
    /// merged and absorbed in the same ascending position order), but the
    /// batch shape is amortized away: workers reuse one seed-dedup buffer
    /// across their queries, duplicate seeds are dropped before any
    /// register row is merged, and queries run [`GROUP`] at a time through
    /// the row-interleaved kernel so their serial estimator chains — the
    /// latency floor of a single query — overlap in the pipeline.
    pub fn influence_many_frozen(&self, seed_sets: &[Vec<NodeId>], threads: usize) -> Vec<f64> {
        self.influence_many_frozen_recorded(seed_sets, threads, &NoopRecorder)
    }

    /// [`influence_many_frozen`](Self::influence_many_frozen) with
    /// instrumentation: per-query latencies land in `kernel.query_ns`,
    /// merged-row counts in `kernel.merge_rows`, the whole batch in the
    /// `oracle.query_batch` span. Answers are bit-identical to the
    /// unrecorded path.
    pub fn influence_many_frozen_recorded<R: Recorder>(
        &self,
        seed_sets: &[Vec<NodeId>],
        threads: usize,
        rec: &R,
    ) -> Vec<f64> {
        self.influence_many_frozen_traced(seed_sets, threads, rec, NoopTracer)
    }

    /// [`influence_many_frozen_recorded`](Self::influence_many_frozen_recorded)
    /// with causal tracing: one `query.batch` span for the batch and one
    /// `query.element` span **per element with its own trace id**
    /// (consecutive from one [`Tracer::alloc_traces`] reservation, in
    /// seed-set order), emitted on the answering worker's lane as a
    /// [`Tracer::lap`] chain — one ring record and one clock read per
    /// element, the per-element floor. The payload is the seed-row count
    /// merged (deduplicated when metrics recording is also on; raw
    /// otherwise — max-merge is idempotent, so duplicates cannot change
    /// the answer). Tracing (like recording) answers query-at-a-time so
    /// each element's span is honest; both orders merge and absorb
    /// registers identically, so answers stay bit-identical.
    pub fn influence_many_frozen_traced<R: Recorder, T: Tracer>(
        &self,
        seed_sets: &[Vec<NodeId>],
        threads: usize,
        rec: &R,
        tracer: T,
    ) -> Vec<f64> {
        let t0 = rec.span_start();
        let base = if T::ENABLED {
            tracer.alloc_traces(metric_u64(seed_sets.len()) + 1)
        } else {
            0
        };
        let batch_span = tracer.begin(TraceId(base), SpanId::NONE, TraceEvent::QueryBatch);
        let out = crate::par::map_ranges_with_recorded(
            seed_sets.len(),
            GROUP,
            threads,
            || (Vec::new(), tracer.worker()),
            |(dedup, tr), range| {
                self.influence_group_range(seed_sets, range, dedup, rec, *tr, (base, batch_span))
            },
            rec,
        );
        tracer.end(
            batch_span,
            TraceEvent::QueryBatch,
            metric_u64(seed_sets.len()),
        );
        finish_batch_recorded(&out, t0, rec);
        out
    }

    /// Answers queries `range` of a batch. Groups of up to [`GROUP`]
    /// queries are interleaved tile by tile: each tile's node-major row
    /// chunks are merged for all queries in the group (the group's whole
    /// row working set stays L1-resident across tiles), then the four
    /// independent estimators absorb their merged blocks back to back,
    /// overlapping the dependent-add chains a lone query would serialize
    /// on. The recorded and traced
    /// variants answer query-at-a-time instead so each latency lands in
    /// `kernel.query_ns` (and each element's `query.element` span is
    /// honest); both orders merge and absorb every query's registers in
    /// ascending position order, so answers are bit-identical.
    /// `batch_trace` is the batch's `(first trace id, batch span)` pair
    /// from the traced entry point.
    fn influence_group_range<R: Recorder, T: Tracer>(
        &self,
        seed_sets: &[Vec<NodeId>],
        range: Range<usize>,
        dedup: &mut Vec<NodeId>,
        rec: &R,
        tracer: T,
        batch_trace: (u64, SpanId),
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity(range.len());
        if R::ENABLED || T::ENABLED {
            let (base, batch_span) = batch_trace;
            tracer.mark(TraceEvent::QueryElement);
            for q in range {
                let tq = rec.span_start();
                // Metrics want the deduplicated row count; a trace-only run
                // skips the dedup pass entirely — register max-merge is
                // idempotent, so duplicate seed rows can't change a bit of
                // the answer, and the lap payload reports raw seed rows.
                let seeds: &[NodeId] = if R::ENABLED {
                    dedup.clear();
                    push_deduped(&seed_sets[q], dedup);
                    dedup
                } else {
                    &seed_sets[q]
                };
                out.push(self.influence(seeds));
                tracer.lap(
                    TraceId(base + 1 + metric_u64(q)),
                    batch_span,
                    TraceEvent::QueryElement,
                    metric_u64(seeds.len()),
                );
                if R::ENABLED {
                    record_batch_query(seeds.len(), tq, rec);
                }
            }
            return out;
        }
        let beta = 1usize << self.precision;
        let mut group = range.start;
        while group < range.end {
            let qn = GROUP.min(range.end - group);
            dedup.clear();
            let mut spans = [(0usize, 0usize); GROUP];
            for (q, span) in spans.iter_mut().enumerate().take(qn) {
                *span = push_deduped(&seed_sets[group + q], dedup);
            }
            let mut ests = [RunningEstimator::new(); GROUP];
            if beta >= TILE {
                // β-literal arms for the common precisions (k = 7..10);
                // see `influence_tiles` for why this wins.
                match beta {
                    512 => self.group_merge_tiles(512, dedup, &spans, &mut ests, qn),
                    256 => self.group_merge_tiles(256, dedup, &spans, &mut ests, qn),
                    1024 => self.group_merge_tiles(1024, dedup, &spans, &mut ests, qn),
                    128 => self.group_merge_tiles(128, dedup, &spans, &mut ests, qn),
                    _ => self.group_merge_tiles(beta, dedup, &spans, &mut ests, qn),
                }
            } else {
                // β < TILE: each query's whole sketch is one sub-tile block.
                let mut blocks = [[0u8; TILE]; GROUP];
                for (q, block) in blocks.iter_mut().enumerate().take(qn) {
                    let blk = &mut block[..beta];
                    let (lo, hi) = spans[q];
                    if let Some((&first, rest)) = dedup[lo..hi].split_first() {
                        blk.copy_from_slice(self.row_chunk(0, first));
                        for &s in rest {
                            kernel::merge_max(blk, self.row_chunk(0, s));
                        }
                    } else {
                        blk.fill(0);
                    }
                }
                for (est, block) in ests.iter_mut().zip(&blocks).take(qn) {
                    est.absorb_registers(&block[..beta]);
                }
            }
            for est in ests.iter().take(qn) {
                out.push(est.finish());
            }
            group += qn;
        }
        out
    }

    /// Validates the arena: every register within the sketch range
    /// invariant `ρ ≤ 64 − k + 1` (any larger value cannot have been
    /// produced by `ApproxAdd`/`ApproxMerge` and would bias estimates),
    /// and the image's derived sections — the tile-major transpose and
    /// the stored per-node estimates — consistent with the node-major
    /// registers they were computed from.
    pub fn validate(&self) -> Result<(), InvariantViolation> {
        self.validate_threads(1)
    }

    /// [`validate`](Self::validate) fanned out over up to `threads`
    /// workers; reports the lowest failing node, like the serial loop.
    pub fn validate_threads(&self, threads: usize) -> Result<(), InvariantViolation> {
        let max_rho = 64 - self.precision + 1;
        let beta = 1usize << self.precision;
        let step = TILE.min(beta);
        crate::par::try_for_each_indexed(self.num_nodes, threads, |i| {
            let node = NodeId::from_index(i);
            let row = self.node_registers(node);
            if let Some(&rho) = row.iter().find(|&&r| r > max_rho) {
                return Err(InvariantViolation::RegisterOutOfRange { node, rho, max_rho });
            }
            for t in 0..beta / step {
                if self.tile_chunk(t, node) != &row[t * step..(t + 1) * step] {
                    return Err(InvariantViolation::FrozenSectionMismatch {
                        node,
                        section: "transposed",
                    });
                }
            }
            if self.individual_at(i).to_bits() != estimate_from_registers(row).to_bits() {
                return Err(InvariantViolation::FrozenSectionMismatch {
                    node,
                    section: "individuals",
                });
            }
            Ok(())
        })
    }
}

impl HeapBytes for FrozenApproxOracle {
    /// Heap bytes owned by the arena image (both register layouts plus the
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

    /// Fused k-way union estimate: merges the seeds' node-major register
    /// rows tile by tile into a small stack buffer through the wide-lane
    /// kernel ([`kernel::merge_max`] — portable 16-byte lanes always, AVX2
    /// when compiled in and detected) and streams each merged tile
    /// straight into the shared estimator — no union allocation, no full
    /// merged array, no second pass. When `β ≥ TILE` the accumulator is a
    /// whole fixed-size tile, so the merge compiles to full-width vector
    /// maxes with no tail. Register positions are consumed in ascending
    /// order and every merge path is bytewise exact, so the result is
    /// bit-identical to materializing the union like the live oracle does.
    // xtask-contract: alloc-free, kernel
    fn influence(&self, seeds: &[NodeId]) -> f64 {
        let beta = 1usize << self.precision;
        if beta >= TILE {
            // β-literal arms for the common precisions (k = 7..10); see
            // `influence_tiles` for why this wins.
            match beta {
                512 => self.influence_tiles(512, seeds),
                256 => self.influence_tiles(256, seeds),
                1024 => self.influence_tiles(1024, seeds),
                128 => self.influence_tiles(128, seeds),
                _ => self.influence_tiles(beta, seeds),
            }
        } else {
            // β < TILE: the whole sketch is one sub-tile block.
            let mut est = RunningEstimator::new();
            let mut block = [0u8; TILE];
            let blk = &mut block[..beta];
            if let Some((&first, rest)) = seeds.split_first() {
                blk.copy_from_slice(self.row_chunk(0, first));
                for &s in rest {
                    kernel::merge_max(blk, self.row_chunk(0, s));
                }
            }
            est.absorb_registers(blk);
            est.finish()
        }
    }

    fn empty_union(&self) -> Self::Union {
        HyperLogLog::new(self.precision)
    }

    fn union_size(&self, union: &Self::Union) -> f64 {
        union.estimate()
    }

    // xtask-contract: alloc-free, kernel
    fn absorb(&self, union: &mut Self::Union, node: NodeId) {
        union.merge_registers(self.node_registers(node));
    }

    // xtask-contract: alloc-free, kernel
    fn marginal_gain(&self, union: &Self::Union, node: NodeId) -> f64 {
        union.estimate_union_registers(self.node_registers(node)) - union.estimate()
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

/// Writes a node-major register arena (`β` bytes per node) into `out` in
/// the tile-major layout the frozen query kernels stream: for tile `t` of
/// `step = min(TILE, β)` registers, node `u`'s registers
/// `t·step .. (t+1)·step` live at `out[(t·n + u)·step ..][..step]`.
/// A multi-seed union then reads one contiguous `step`-byte chunk per seed
/// per tile — chunks of id-adjacent seeds share cache lines — instead of
/// striding `β` bytes apart through the node-major arena.
pub(crate) fn transpose_registers(precision: u8, registers: &[u8], out: &mut [u8]) {
    let beta = 1usize << precision;
    let step = TILE.min(beta);
    let tiles = beta / step;
    let n = registers.len() / beta;
    assert_eq!(out.len(), registers.len(), "transpose target size");
    for u in 0..n {
        for t in 0..tiles {
            let src = u * beta + t * step;
            let dst = (t * n + u) * step;
            out[dst..dst + step].copy_from_slice(&registers[src..src + step]);
        }
    }
}

/// Whether a register row is all zero — a node no channel reached. An OR
/// fold with no early exit, so the compiler vectorizes it.
#[inline]
// xtask-contract: alloc-free, kernel
fn is_zero_row(row: &[u8]) -> bool {
    row.iter().fold(0u8, |acc, &r| acc | r) == 0
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
        for i in 0..frozen.num_nodes() {
            let u = NodeId::from_index(i);
            assert_eq!(frozen.node_registers(u), live.sketch(u).registers());
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
        // precision 4 exercises β = 16 < the 64-byte merge block.
        for precision in [4u8, 9] {
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
        let beta = 1usize << approx.precision();
        let (r_at, t_at, i_at, alen) = layout::approx_sections(approx.num_nodes(), beta);
        assert_eq!(approx.image().len(), alen);
        assert_eq!(r_at % ARENA_ALIGN, 0);
        assert_eq!(t_at % ARENA_ALIGN, 0);
        assert_eq!(i_at % ARENA_ALIGN, 0);
        assert_eq!(&approx.image().as_slice()[..4], layout::APPROX_MAGIC);
        assert_eq!(approx.image().as_slice()[4], layout::APPROX_VERSION);

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
        let arena = FrozenApproxOracle::from_registers_arena(4, vec![0u8; 32]);
        assert!(arena.validate().is_ok());
        let mut regs = vec![0u8; 32];
        regs[20] = 62; // max ρ for k=4 is 61
        let bad = FrozenApproxOracle::from_registers_arena(4, regs);
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

    #[test]
    fn validate_rejects_corrupt_derived_sections() {
        let net = figure1a();
        let frozen = ApproxIrs::compute(&net, Window(3)).freeze();
        assert!(frozen.validate().is_ok());

        let mut img = frozen.image().as_slice().to_vec();
        img[frozen.trans_at] ^= 1;
        let bad = FrozenApproxOracle::from_image(
            frozen.precision(),
            frozen.num_nodes(),
            ArenaBytes::from_vec(img),
        );
        assert!(matches!(
            bad.validate(),
            Err(InvariantViolation::FrozenSectionMismatch {
                section: "transposed",
                ..
            })
        ));

        let mut img = frozen.image().as_slice().to_vec();
        img[frozen.indiv_at] ^= 1;
        let bad = FrozenApproxOracle::from_image(
            frozen.precision(),
            frozen.num_nodes(),
            ArenaBytes::from_vec(img),
        );
        assert!(matches!(
            bad.validate(),
            Err(InvariantViolation::FrozenSectionMismatch {
                section: "individuals",
                ..
            })
        ));
    }

    #[test]
    fn transposed_arena_holds_every_register() {
        let net = figure1a();
        for precision in [4u8, 7, 9] {
            let irs = ApproxIrs::compute_with_precision(&net, Window(3), precision);
            let frozen = irs.freeze();
            let beta = 1usize << precision;
            let step = TILE.min(beta);
            let n = frozen.num_nodes();
            assert_eq!(frozen.transposed().len(), frozen.registers().len());
            for u in 0..n {
                let node = NodeId::from_index(u);
                for t in 0..beta / step {
                    let chunk = frozen.tile_chunk(t, node);
                    let row = &frozen.node_registers(node)[t * step..(t + 1) * step];
                    assert_eq!(chunk, row, "k={precision} u={u} t={t}");
                }
            }
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
        ]
    }

    #[test]
    fn approx_batch_matches_per_query_bitwise() {
        let net = figure1a();
        // precision 4 exercises β = 16 < the 64-byte tile.
        for precision in [4u8, 9] {
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
        let recorded = frozen.influence_many_frozen_recorded(&sets, 2, &rec);
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
        // Deduplicated rows: 2 + 0 + 1 + 1 + 6 + 3 + 2 = 15.
        assert_eq!(counter("kernel.merge_rows"), 15);
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
}

// xtask-allow: forbid-unsafe (the literal forbid below is conditional: builds without the opt-in `mmap` feature keep `#![forbid(unsafe_code)]`; with it, unsafe is denied crate-wide except the allow-scoped mmap arena module)
//! The paper's primary contribution: influence-reachability sets (IRS) over
//! time-constrained information channels, computed in **one pass** over an
//! interaction network — exactly or with versioned-HyperLogLog sketches —
//! plus the influence oracle and greedy influence maximization built on top.
//!
//! # The algorithms
//!
//! Both algorithms scan the interactions in **reverse chronological order**.
//! Lemma 1 of the paper shows why: prepending the earliest interaction
//! `(u, v, t)` can only change the summary of `u`, so each interaction costs
//! one `Add` (record the direct channel `u → v`) and one `Merge` (inherit
//! `v`'s reachable set, filtered to channels that still fit in the window
//! `ω` when extended back to time `t`).
//!
//! * [`ExactIrs`] (paper Algorithm 2) keeps, per node, the full summary
//!   `φω(u) = {(v, λ(u, v))}` — every reachable node with the earliest end
//!   time of an admissible channel. `O(mn)` time, `O(n²)` space worst case.
//! * [`ApproxIrs`] (paper Algorithm 3) replaces each summary with a
//!   [`VersionedHll`](infprop_hll::VersionedHll): expected
//!   `O(m·β·log²ω)` time and `O(n·β·log²ω)` space, at the cost of a
//!   `≈ 1.04/√β` relative error on set sizes.
//!
//! # Applications
//!
//! * [`InfluenceOracle`] — given any seed set `S`, estimate
//!   `|⋃_{u∈S} σω(u)|` (paper §4.1). Exact summaries use dense bitset
//!   unions; sketches use `O(β)` register-max unions. Batch queries
//!   ([`InfluenceOracle::influence_many`]) fan out over the deterministic
//!   parallel layer in [`par`].
//! * [`greedy_top_k`] — the lazy (CELF-style) greedy maximizer; its output
//!   matches the paper's Algorithm 4 (implemented verbatim as
//!   [`greedy_top_k_paper`]) because the influence function is monotone and
//!   submodular (paper Lemma 8).
//!
//! # One engine, pluggable backends
//!
//! Both algorithms are the *same* reverse-chronological driver parameterized
//! only by the summary representation, and the code is shaped accordingly:
//! the [`engine`] module owns the single [`ReversePassEngine`] (reverse
//! scan, two-phase tie batching, streaming frontier contract) and the
//! [`SummaryStore`] trait it drives, with [`ExactStore`] and [`VhllStore`]
//! as the two backends. [`ExactIrs`], [`ApproxIrs`], [`ExactIrsStream`] and
//! [`ApproxIrsStream`] are thin wrappers over that engine, so a future
//! sharded or parallel store drops in without touching callers.
//!
//! # Timestamp ties
//!
//! The paper assumes all-distinct timestamps. This implementation also
//! accepts ties and keeps the channel semantics strict (`t1 < t2 < …`):
//! interactions sharing a timestamp are processed as a two-phase batch so
//! that no channel ever chains two equal-time hops. See
//! [`ExactIrs::compute`] and [`engine`] for details.
//!
//! # Example
//!
//! ```
//! use infprop_core::{ExactIrs, greedy_top_k};
//! use infprop_temporal_graph::{InteractionNetwork, NodeId, Window};
//!
//! // Figure 2 of the paper: two channels from c (=2) to f (=5).
//! let net = InteractionNetwork::from_triples([
//!     (0, 1, 1), (0, 3, 2), (3, 2, 3), (4, 2, 6), (1, 2, 4),
//!     (2, 4, 3), (2, 5, 5), (2, 5, 8),
//! ]);
//! let irs = ExactIrs::compute(&net, Window(3));
//! // φ3(c) = {(f, 5), (e, 3)}  (paper Example 1)
//! assert_eq!(irs.irs_size(NodeId(2)), 2);
//!
//! let oracle = irs.oracle();
//! let top = greedy_top_k(&oracle, 2);
//! assert_eq!(top.len(), 2);
//! ```

#![warn(missing_docs)]
// Default builds stay `forbid(unsafe_code)`-clean. The opt-in `mmap`
// feature downgrades the crate-wide lint to `deny` so its one
// `#[allow(unsafe_code)]` module — the mapping wrapper in `arena` — can
// exist; every other module is still rejected at compile time if it tries.
#![cfg_attr(not(feature = "mmap"), forbid(unsafe_code))]
#![cfg_attr(feature = "mmap", deny(unsafe_code))]

mod approx;
mod arena;
mod brute;
mod channel;
mod delta;
pub mod engine;
mod exact;
mod frozen;
pub mod invariants;
mod kernel;
mod maximize;
pub mod obs;
mod oracle;
pub mod par;
mod persist;
mod profile;
pub mod serve;
mod stream;
pub mod trace;

/// The deterministic fast hash map used on every IRS hot path (an Fx-style
/// integer hasher instead of SipHash; HashDoS is not a threat model for an
/// offline analytics library). All workspace code paths that key maps by
/// [`NodeId`](infprop_temporal_graph::NodeId) or other small integers go
/// through this single alias, so swapping the hasher is a one-line change.
pub type FastMap<K, V> = infprop_hll::hash::FastHashMap<K, V>;

/// Set counterpart of [`FastMap`].
pub type FastSet<K> = infprop_hll::hash::FastHashSet<K>;

pub use approx::{ApproxIrs, DEFAULT_PRECISION};
pub use arena::{ArenaBytes, ARENA_ALIGN};
pub use brute::{brute_force_irs, brute_force_irs_all};
pub use channel::{channels_from, find_channel, Channel};
pub use delta::{DeltaOverlay, LayeredApproxOracle, LayeredExactOracle, StaleAppend};
pub use engine::{
    ExactStore, ExactSummary, OutOfOrder, ReversePassEngine, SummaryStore, VhllStore,
};
pub use exact::ExactIrs;
pub use frozen::{EntriesSlice, FrozenApproxOracle, FrozenExactOracle};
pub use invariants::{validate_all, InvariantViolation};
pub use kernel::SparseRow;
pub use maximize::{
    greedy_top_k, greedy_top_k_paper, greedy_top_k_paper_threads, greedy_top_k_recorded,
    greedy_top_k_threads, greedy_top_k_traced, Selection,
};
pub use obs::{HeapBytes, MetricsRecorder, MetricsSnapshot, NoopRecorder, Recorder};
pub use oracle::{ApproxOracle, ExactOracle, InfluenceOracle, NodeBitset};
pub use persist::{
    LayeredKind, LayeredManifest, FROZEN_APPROX_LAYOUT_VERSION, FROZEN_EXACT_LAYOUT_VERSION,
    MANIFEST_FILE,
};
pub use profile::{ContactDirection, SlidingContacts};
pub use stream::{ApproxIrsStream, ExactIrsStream};
pub use trace::{
    attribution, trace_to_json, validate_trace_json, FlightRecorder, LaneTracer, NoopTracer,
    PhaseStat, RingTracer, SpanId, TraceEvent, TraceId, TraceRecord, Tracer,
};

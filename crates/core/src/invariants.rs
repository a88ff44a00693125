//! Runtime verification of the paper's structural invariants.
//!
//! The type system cannot see the properties the IRS algorithms' correctness
//! rests on, so this module checks them at runtime:
//!
//! * **Summary self-exclusion** — a node never appears in its own exact
//!   summary (`x ≠ u` for every `(x, λ) ∈ φω(u)`; the paper's Example 2
//!   trace drops the admissible cycle `e → b → e`).
//! * **End-time monotonicity** — every recorded end time `λ` is the
//!   timestamp of an already-processed interaction. Under the reverse scan
//!   (Lemma 1) processed timestamps are exactly those at or above the
//!   stream frontier, so `λ ≥ frontier` must hold for every entry, in both
//!   backends.
//! * **Sketch dominance chains** — each versioned-HLL register list is
//!   sorted by strictly increasing time *and* strictly increasing ρ, with ρ
//!   in `[1, 64 − k + 1]` (Alg. 3's `ApproxAdd`/`ApproxMerge` shape; checked
//!   by [`VersionedHll::check_dominance_chain`]).
//!
//! The engine calls these validators at every tie-batch boundary when
//! compiled with `debug_assertions` (each batch's *source* nodes are
//! checked, so the per-batch cost tracks the merge work already done). The
//! public [`validate`] entry point — also reachable as
//! [`SummaryStore::validate`] and via `ExactIrs::validate` /
//! `ApproxIrs::validate` — runs the same checks on demand in any build.

use crate::engine::{ExactSummary, SummaryStore};
use infprop_hll::{SketchInvariantError, VersionedHll};
use infprop_temporal_graph::{NodeId, Timestamp};
use std::fmt;

/// A broken structural invariant, reported by the validators in this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantViolation {
    /// A node's exact summary contains the node itself: `u ∈ φω(u)`.
    SelfEntry {
        /// The node whose summary is corrupt.
        node: NodeId,
    },
    /// An entry's end time precedes the stream frontier — impossible under
    /// the reverse scan, where every processed interaction's timestamp is at
    /// or above the frontier.
    StaleEndTime {
        /// The node whose summary is corrupt.
        node: NodeId,
        /// The offending end time `λ`.
        end_time: Timestamp,
        /// The frontier the end time fell below.
        frontier: Timestamp,
    },
    /// A node's versioned-HLL sketch fails its dominance-chain validation.
    Sketch {
        /// The node whose sketch is corrupt.
        node: NodeId,
        /// The sketch-level error.
        error: SketchInvariantError,
    },
    /// A dense exact summary is not sorted by strictly increasing `NodeId`
    /// — every query on it (binary-search `λ` lookup, two-pointer merge)
    /// assumes that order.
    UnsortedSummary {
        /// The node whose summary is out of order.
        node: NodeId,
    },
    /// A frozen register row stores a ρ value outside `1 ..= 64 − k + 1`
    /// for its precision: a stored zero is not a non-zero register, and
    /// anything above the bound is impossible output of
    /// `ApproxAdd`/`ApproxMerge` and a silent estimate bias if accepted.
    RegisterOutOfRange {
        /// The node whose register row is corrupt.
        node: NodeId,
        /// The offending register value.
        rho: u8,
        /// The largest legal ρ for the arena's precision.
        max_rho: u8,
    },
    /// A frozen register row stores a register index that is not above
    /// the previous one, or not below `β`. Queries merge a row by index,
    /// so such a row would reach outside its `β` registers or store one
    /// register twice.
    RegisterIndexOutOfOrder {
        /// The node whose register row is corrupt.
        node: NodeId,
        /// The offending register index.
        index: usize,
    },
    /// A frozen exact summary references a target node outside the arena's
    /// universe — the CSR image frames `num_nodes` nodes, so any entry id
    /// at or beyond that count indexes past every per-node structure built
    /// from the arena.
    TargetOutOfUniverse {
        /// The node whose summary is corrupt.
        node: NodeId,
        /// The out-of-universe target id.
        target: NodeId,
        /// The arena's universe size.
        num_nodes: usize,
    },
    /// A derived section of a frozen arena image (the stored per-node
    /// estimates) disagrees with the register rows it was computed from —
    /// the estimate answers the same query as the row, so a mismatch means
    /// silently divergent answers.
    FrozenSectionMismatch {
        /// The first node whose derived data is inconsistent.
        node: NodeId,
        /// The inconsistent section (`"individuals"`).
        section: &'static str,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::SelfEntry { node } => {
                write!(f, "summary of {node} contains the node itself")
            }
            InvariantViolation::StaleEndTime {
                node,
                end_time,
                frontier,
            } => write!(
                f,
                "summary of {node} records end time {end_time} below the stream frontier {frontier}"
            ),
            InvariantViolation::Sketch { node, error } => {
                write!(f, "sketch of {node}: {error}")
            }
            InvariantViolation::UnsortedSummary { node } => {
                write!(
                    f,
                    "summary of {node} is not sorted by strictly increasing node id"
                )
            }
            InvariantViolation::RegisterOutOfRange { node, rho, max_rho } => {
                write!(
                    f,
                    "frozen registers of {node} hold ρ = {rho} outside the legal range 1..={max_rho}"
                )
            }
            InvariantViolation::RegisterIndexOutOfOrder { node, index } => {
                write!(
                    f,
                    "frozen register row of {node} stores index {index} out of order or beyond β"
                )
            }
            InvariantViolation::TargetOutOfUniverse {
                node,
                target,
                num_nodes,
            } => write!(
                f,
                "summary of {node} references {target} outside the {num_nodes}-node universe"
            ),
            InvariantViolation::FrozenSectionMismatch { node, section } => write!(
                f,
                "frozen arena's {section} section disagrees with the registers of {node}"
            ),
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// Validates one node's exact summary: sorted by strictly increasing
/// `NodeId` (the dense representation's ordering contract), no self-entry,
/// and every end time at or above `frontier` (pass `None` to skip the
/// frontier check when no stream position is known, e.g. for deserialized
/// summaries).
pub fn validate_exact_summary(
    node: NodeId,
    summary: &[(NodeId, Timestamp)],
    frontier: Option<Timestamp>,
) -> Result<(), InvariantViolation> {
    let mut prev: Option<NodeId> = None;
    for &(x, lambda) in summary {
        if prev.is_some_and(|p| p >= x) {
            return Err(InvariantViolation::UnsortedSummary { node });
        }
        prev = Some(x);
        if x == node {
            return Err(InvariantViolation::SelfEntry { node });
        }
        if let Some(fr) = frontier {
            if lambda < fr {
                return Err(InvariantViolation::StaleEndTime {
                    node,
                    end_time: lambda,
                    frontier: fr,
                });
            }
        }
    }
    Ok(())
}

/// Validates one node's sketch: the dominance chain of every register list,
/// plus the frontier bound on every version entry's time.
pub fn validate_sketch(
    node: NodeId,
    sketch: &VersionedHll,
    frontier: Option<Timestamp>,
) -> Result<(), InvariantViolation> {
    sketch
        .check_dominance_chain()
        .map_err(|error| InvariantViolation::Sketch { node, error })?;
    if let Some(fr) = frontier {
        for cell in 0..sketch.num_cells() {
            // Lists are time-sorted, so the first entry is the minimum.
            if let Some(e) = sketch.cell(cell).first() {
                if e.time < fr.get() {
                    return Err(InvariantViolation::StaleEndTime {
                        node,
                        end_time: Timestamp(e.time),
                        frontier: fr,
                    });
                }
            }
        }
    }
    Ok(())
}

/// Validates a whole slice of exact summaries (node `i` = summary `i`).
pub fn validate_exact_summaries(
    summaries: &[ExactSummary],
    frontier: Option<Timestamp>,
) -> Result<(), InvariantViolation> {
    for (i, summary) in summaries.iter().enumerate() {
        validate_exact_summary(NodeId::from_index(i), summary, frontier)?;
    }
    Ok(())
}

/// Validates a whole slice of sketches (node `i` = sketch `i`).
pub fn validate_sketches(
    sketches: &[VersionedHll],
    frontier: Option<Timestamp>,
) -> Result<(), InvariantViolation> {
    for (i, sketch) in sketches.iter().enumerate() {
        validate_sketch(NodeId::from_index(i), sketch, frontier)?;
    }
    Ok(())
}

/// Validates every node summary held by `store` against the structural
/// invariants, with an optional stream-frontier bound.
///
/// This is the public entry point of the paper-invariant verification
/// layer: it accepts any [`SummaryStore`] backend and delegates to the
/// backend's own [`SummaryStore::validate_node`] implementation
/// ([`ExactStore`](crate::ExactStore): self-exclusion + end-time bound;
/// [`VhllStore`](crate::VhllStore): dominance chains + end-time bound).
pub fn validate<S: SummaryStore>(
    store: &S,
    frontier: Option<Timestamp>,
) -> Result<(), InvariantViolation> {
    store.validate(frontier)
}

/// [`validate`] fanned out over up to `threads` scoped workers via
/// [`crate::par`]. Node summaries are independent, so the sweep is
/// embarrassingly parallel; the reported violation is exactly the one the
/// serial sweep would find first (lowest node id), at any thread count.
pub fn validate_all<S>(
    store: &S,
    frontier: Option<Timestamp>,
    threads: usize,
) -> Result<(), InvariantViolation>
where
    S: SummaryStore + Sync,
{
    crate::par::try_for_each_indexed(store.num_nodes(), threads, |i| {
        store.validate_node(NodeId::from_index(i), frontier)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ExactStore, VhllStore};

    fn summary(entries: &[(u32, i64)]) -> ExactSummary {
        entries
            .iter()
            .map(|&(v, t)| (NodeId(v), Timestamp(t)))
            .collect()
    }

    #[test]
    fn clean_exact_store_validates() {
        let store = ExactStore::from_summaries(vec![
            summary(&[(1, 5), (2, 7)]),
            summary(&[]),
            summary(&[(0, 9)]),
        ]);
        assert_eq!(validate(&store, None), Ok(()));
        assert_eq!(validate(&store, Some(Timestamp(5))), Ok(()));
    }

    #[test]
    fn self_entry_is_detected() {
        let store = ExactStore::from_summaries(vec![summary(&[(0, 5)])]);
        assert_eq!(
            validate(&store, None),
            Err(InvariantViolation::SelfEntry { node: NodeId(0) })
        );
    }

    #[test]
    fn stale_end_time_is_detected_in_exact_store() {
        let store = ExactStore::from_summaries(vec![summary(&[(1, 3)])]);
        assert_eq!(validate(&store, None), Ok(()));
        let err = validate(&store, Some(Timestamp(5))).unwrap_err();
        assert_eq!(
            err,
            InvariantViolation::StaleEndTime {
                node: NodeId(0),
                end_time: Timestamp(3),
                frontier: Timestamp(5),
            }
        );
        assert!(err.to_string().contains("frontier"));
    }

    #[test]
    fn clean_vhll_store_validates() {
        let mut store = VhllStore::with_nodes(4, 3);
        // Simulate two reverse-order interactions.
        store.add(NodeId(0), NodeId(1), Timestamp(9));
        store.add(NodeId(0), NodeId(2), Timestamp(7));
        assert_eq!(validate(&store, None), Ok(()));
        assert_eq!(validate(&store, Some(Timestamp(7))), Ok(()));
    }

    #[test]
    fn corrupt_sketch_is_detected() {
        // ρ = 0 can never come out of a hash split; insert_raw lets tests
        // script it directly.
        let mut sketch = VersionedHll::new(4);
        sketch.insert_raw(3, 0, 5);
        let store = VhllStore::from_sketches(4, vec![sketch]);
        let err = validate(&store, None).unwrap_err();
        assert!(matches!(
            err,
            InvariantViolation::Sketch {
                node: NodeId(0),
                ..
            }
        ));
    }

    #[test]
    fn stale_sketch_entry_is_detected() {
        let mut store = VhllStore::with_nodes(4, 1);
        store.add(NodeId(0), NodeId(1), Timestamp(3));
        assert!(validate(&store, Some(Timestamp(4))).is_err());
        assert_eq!(validate(&store, Some(Timestamp(3))), Ok(()));
    }

    #[test]
    fn slice_validators_name_the_offending_node() {
        let summaries = vec![summary(&[]), summary(&[(1, 2)])];
        assert_eq!(
            validate_exact_summaries(&summaries, None),
            Err(InvariantViolation::SelfEntry { node: NodeId(1) })
        );
    }

    #[test]
    fn unsorted_summary_is_detected() {
        // Bypass from_summaries' defensive sort by validating the raw slice.
        let raw = vec![(NodeId(2), Timestamp(5)), (NodeId(1), Timestamp(5))];
        assert_eq!(
            validate_exact_summary(NodeId(0), &raw, None),
            Err(InvariantViolation::UnsortedSummary { node: NodeId(0) })
        );
        let dup = vec![(NodeId(1), Timestamp(5)), (NodeId(1), Timestamp(6))];
        let err = validate_exact_summary(NodeId(0), &dup, None).unwrap_err();
        assert!(err.to_string().contains("sorted"));
    }

    #[test]
    fn parallel_validate_all_matches_serial_at_any_thread_count() {
        // Violation planted mid-universe: every thread count must report the
        // same (lowest-node) violation the serial sweep finds.
        let mut summaries: Vec<ExactSummary> = (0..64).map(|_| summary(&[(99, 7)])).collect();
        summaries[37] = summary(&[(37, 7)]); // self-entry at node 37
        summaries[50] = summary(&[(3, 1)]); // later violation (stale under frontier)
        let store = ExactStore::from_summaries(summaries);
        let serial = validate(&store, Some(Timestamp(2)));
        assert_eq!(
            serial,
            Err(InvariantViolation::SelfEntry { node: NodeId(37) })
        );
        for threads in [1, 2, 8] {
            assert_eq!(validate_all(&store, Some(Timestamp(2)), threads), serial);
        }
        let clean = ExactStore::from_summaries(vec![summary(&[(99, 5)]); 16]);
        for threads in [1, 2, 8] {
            assert_eq!(validate_all(&clean, None, threads), Ok(()));
        }
    }

    #[test]
    fn frozen_row_violations_describe_the_register() {
        let out_of_range = InvariantViolation::RegisterOutOfRange {
            node: NodeId(3),
            rho: 0,
            max_rho: 56,
        };
        assert_eq!(
            out_of_range.to_string(),
            "frozen registers of 3 hold ρ = 0 outside the legal range 1..=56"
        );
        let out_of_order = InvariantViolation::RegisterIndexOutOfOrder {
            node: NodeId(7),
            index: 512,
        };
        assert_eq!(
            out_of_order.to_string(),
            "frozen register row of 7 stores index 512 out of order or beyond β"
        );
        let mismatch = InvariantViolation::FrozenSectionMismatch {
            node: NodeId(1),
            section: "individuals",
        };
        assert_eq!(
            mismatch.to_string(),
            "frozen arena's individuals section disagrees with the registers of 1"
        );
    }
}

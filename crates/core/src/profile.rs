//! Sliding-window neighbourhood profiles — the sketch's ancestry.
//!
//! The paper's versioned HLL "is based on the same notion as shown in the
//! so-called sliding-window HyperLogLog sketch" of Kumar, Calders, Gionis &
//! Tatti (ECML-PKDD 2015): maintaining, for every node, the number of
//! **distinct contacts within a sliding window** while scanning the
//! interaction log in reverse. This module packages that use case directly:
//!
//! * feed interactions in non-increasing time order;
//! * at any point, ask for the estimated number of distinct out-contacts
//!   (or in-contacts) of a node within `[anchor, anchor + ω − 1]` for any
//!   anchor at or before the stream frontier — the exact contract under
//!   which the versioned lists are lossless (see
//!   [`VersionedHll::estimate_window`]).
//!
//! Unlike the IRS, profiles are 1-hop: no merging between nodes, so a
//! node's sketch only ever receives its own contacts.

use crate::engine::ReverseFrontier;
use infprop_hll::hash;
use infprop_hll::VersionedHll;
use infprop_temporal_graph::{Interaction, InteractionNetwork, NodeId, Timestamp, Window};

/// Which side of each interaction a profile tracks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContactDirection {
    /// Distinct destinations contacted by the node.
    Outgoing,
    /// Distinct sources that contacted the node.
    Incoming,
}

/// Per-node sliding-window distinct-contact sketches.
pub struct SlidingContacts {
    window: Window,
    direction: ContactDirection,
    precision: u8,
    sketches: Vec<VersionedHll>,
    frontier: ReverseFrontier,
}

impl SlidingContacts {
    /// An empty profile set; the node universe grows as ids appear.
    pub fn new(window: Window, direction: ContactDirection, precision: u8) -> Self {
        window.assert_valid();
        SlidingContacts {
            window,
            direction,
            precision,
            sketches: Vec::new(),
            frontier: ReverseFrontier::new(),
        }
    }

    /// Builds profiles for a whole network in one reverse pass.
    pub fn build(
        net: &InteractionNetwork,
        window: Window,
        direction: ContactDirection,
        precision: u8,
    ) -> Self {
        let mut p = Self::new(window, direction, precision);
        for i in net.iter_reverse() {
            // xtask-allow: no-panic (iter_reverse yields non-increasing times, so push cannot fail)
            p.push(*i).expect("reverse iteration is ordered");
        }
        p
    }

    /// The configured window.
    pub fn window(&self) -> Window {
        self.window
    }

    /// Nodes tracked so far.
    pub fn num_nodes(&self) -> usize {
        self.sketches.len()
    }

    /// Feeds one interaction (non-increasing time order).
    pub fn push(&mut self, i: Interaction) -> Result<(), crate::OutOfOrder> {
        self.frontier.accept(i.time)?;
        let (owner, contact) = match self.direction {
            ContactDirection::Outgoing => (i.src, i.dst),
            ContactDirection::Incoming => (i.dst, i.src),
        };
        let idx = owner.index().max(contact.index());
        if idx >= self.sketches.len() {
            let precision = self.precision;
            self.sketches
                .resize_with(idx + 1, || VersionedHll::new(precision));
        }
        self.sketches[owner.index()].add_hash(hash::hash64(u64::from(contact.0)), i.time.get());
        Ok(())
    }

    /// Estimated distinct contacts of `u` within
    /// `[anchor, anchor + ω − 1]`. Sound for anchors at or before the
    /// stream frontier (the reverse-scan discipline).
    pub fn estimate_at(&self, u: NodeId, anchor: Timestamp) -> f64 {
        if let Some(f) = self.frontier.get() {
            debug_assert!(
                anchor <= f,
                "windowed profile queries must anchor at or before the frontier"
            );
        }
        self.sketches
            .get(u.index())
            .map_or(0.0, |s| s.estimate_window(anchor.get(), self.window.get()))
    }

    /// Estimated distinct contacts of `u` over the whole processed stream.
    pub fn estimate_total(&self, u: NodeId) -> f64 {
        self.sketches
            .get(u.index())
            .map_or(0.0, VersionedHll::estimate)
    }

    /// Heap bytes across all profile sketches: the per-node sketch headers
    /// plus what each sketch holds.
    pub fn heap_bytes(&self) -> usize {
        self.sketches.capacity() * std::mem::size_of::<VersionedHll>()
            + self
                .sketches
                .iter()
                .map(VersionedHll::heap_bytes)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FastSet;

    /// Exact reference: distinct contacts of `u` in `[anchor, anchor+ω-1]`.
    fn exact_contacts(
        net: &InteractionNetwork,
        u: NodeId,
        anchor: i64,
        window: i64,
        direction: ContactDirection,
    ) -> usize {
        let mut set: FastSet<NodeId> = FastSet::default();
        for i in net.iter() {
            let t = i.time.get();
            if t < anchor || t - anchor >= window {
                continue;
            }
            match direction {
                ContactDirection::Outgoing if i.src == u => {
                    set.insert(i.dst);
                }
                ContactDirection::Incoming if i.dst == u => {
                    set.insert(i.src);
                }
                _ => {}
            }
        }
        set.len()
    }

    fn dense_network() -> InteractionNetwork {
        InteractionNetwork::from_triples((0..400u32).map(|i| (i % 7, (i * 3 + 1) % 7, i as i64)))
    }

    #[test]
    fn total_estimates_match_exact_on_small_graph() {
        let net = dense_network();
        let p = SlidingContacts::build(&net, Window(400), ContactDirection::Outgoing, 12);
        for u in net.node_ids() {
            let exact = exact_contacts(&net, u, 0, 400, ContactDirection::Outgoing) as f64;
            let est = p.estimate_total(u);
            assert!((est - exact).abs() < 0.5, "node {u:?}: {est} vs {exact}");
        }
    }

    #[test]
    fn windowed_estimates_at_frontier_match_exact() {
        let net = dense_network();
        for w in [10i64, 50, 200] {
            let p = SlidingContacts::build(&net, Window(w), ContactDirection::Outgoing, 12);
            let frontier = net.min_time().unwrap();
            for u in net.node_ids() {
                let exact =
                    exact_contacts(&net, u, frontier.get(), w, ContactDirection::Outgoing) as f64;
                let est = p.estimate_at(u, frontier);
                assert!(
                    (est - exact).abs() < 0.5,
                    "node {u:?} ω={w}: {est} vs {exact}"
                );
            }
        }
    }

    #[test]
    fn incoming_direction_counts_sources() {
        let net = InteractionNetwork::from_triples([(0, 2, 1), (1, 2, 2), (0, 2, 3)]);
        let p = SlidingContacts::build(&net, Window(10), ContactDirection::Incoming, 12);
        assert!((p.estimate_total(NodeId(2)) - 2.0).abs() < 0.5);
        assert_eq!(p.estimate_total(NodeId(0)), 0.0);
    }

    #[test]
    fn out_of_order_rejected_and_unknown_nodes_zero() {
        let mut p = SlidingContacts::new(Window(5), ContactDirection::Outgoing, 8);
        p.push(Interaction::from_raw(0, 1, 10)).unwrap();
        assert!(p.push(Interaction::from_raw(1, 2, 11)).is_err());
        assert_eq!(p.estimate_total(NodeId(99)), 0.0);
        assert_eq!(p.num_nodes(), 2);
        // At least one sketch header per node, beyond the sketches' own
        // bitmaps and cells.
        let headers = p.num_nodes() * std::mem::size_of::<VersionedHll>();
        let held: usize = p.sketches.iter().map(VersionedHll::heap_bytes).sum();
        assert!(p.heap_bytes() >= headers + held);
    }

    #[test]
    fn repeated_contacts_count_once() {
        let net = InteractionNetwork::from_triples([(0, 1, 1), (0, 1, 2), (0, 1, 3)]);
        let p = SlidingContacts::build(&net, Window(10), ContactDirection::Outgoing, 12);
        assert!((p.estimate_total(NodeId(0)) - 1.0).abs() < 0.5);
    }

    #[test]
    fn window_bounds_the_counted_contacts() {
        // Node 0 contacts 1 at t = 1 and 2 at t = 10; the reverse pass ends
        // at t = 1, so anchor 1 is at the frontier.
        let net = InteractionNetwork::from_triples([(0, 1, 1), (0, 2, 10)]);
        let short = SlidingContacts::build(&net, Window(5), ContactDirection::Outgoing, 10);
        let long = SlidingContacts::build(&net, Window(20), ContactDirection::Outgoing, 10);
        assert_eq!(short.window(), Window(5));
        assert!((short.estimate_at(NodeId(0), Timestamp(1)) - 1.0).abs() < 0.5);
        assert!((long.estimate_at(NodeId(0), Timestamp(1)) - 2.0).abs() < 0.5);
        // The whole-stream count ignores the window.
        assert!((short.estimate_total(NodeId(0)) - 2.0).abs() < 0.5);
        assert_eq!(short.estimate_at(NodeId(9), Timestamp(1)), 0.0);
    }

    #[test]
    fn universe_covers_both_endpoints_in_either_direction() {
        for direction in [ContactDirection::Outgoing, ContactDirection::Incoming] {
            let mut p = SlidingContacts::new(Window(5), direction, 8);
            assert_eq!(p.num_nodes(), 0);
            p.push(Interaction::from_raw(2, 7, 4)).unwrap();
            assert_eq!(p.num_nodes(), 8, "{direction:?}");
            p.push(Interaction::from_raw(9, 0, 4)).unwrap();
            assert_eq!(p.num_nodes(), 10, "{direction:?}");
        }
    }

    #[test]
    fn equal_times_are_accepted_in_reverse_order() {
        let mut p = SlidingContacts::new(Window(3), ContactDirection::Outgoing, 8);
        p.push(Interaction::from_raw(0, 1, 5)).unwrap();
        p.push(Interaction::from_raw(0, 2, 5)).unwrap();
        p.push(Interaction::from_raw(0, 3, 4)).unwrap();
        assert!((p.estimate_at(NodeId(0), Timestamp(4)) - 3.0).abs() < 0.5);
        assert!(p.push(Interaction::from_raw(0, 4, 5)).is_err());
    }

    #[test]
    #[should_panic(expected = "window must be at least 1 time unit")]
    fn zero_window_rejected() {
        let _ = SlidingContacts::new(Window(0), ContactDirection::Outgoing, 8);
    }
}

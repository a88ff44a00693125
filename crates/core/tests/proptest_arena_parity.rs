//! Load-path parity property tests for the zero-copy arena loaders: an
//! oracle loaded from disk through [`FrozenExactOracle::load`] /
//! [`FrozenApproxOracle::load`] (an `ArenaBytes` mapping — `mmap(2)` under
//! `--features mmap`, one aligned bulk read otherwise) must answer every
//! query **bit-identically** to the same file decoded through the
//! streaming `read_from` path *and* to the live oracle it was frozen
//! from, at 1, 2, and 8 threads.
//!
//! This is the guard behind serving arenas zero-copy: the server borrows
//! offsets/entries/registers straight out of the mapping, so any layout
//! or alignment mistake would show up here as a parity break between the
//! three load paths.

use infprop_core::{ApproxIrs, ExactIrs, FrozenApproxOracle, FrozenExactOracle, InfluenceOracle};
use infprop_temporal_graph::{InteractionNetwork, NodeId, Window};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Random networks with timestamp ties (same shape as the frozen-parity
/// suite, so the two suites stress the same layouts).
fn networks() -> impl Strategy<Value = InteractionNetwork> {
    prop::collection::vec((0u32..16, 0u32..16, 0i64..30), 1..70)
        .prop_map(InteractionNetwork::from_triples)
}

/// Seed sets drawn over the same node-id range as the networks.
fn seed_sets() -> impl Strategy<Value = Vec<Vec<NodeId>>> {
    prop::collection::vec(
        prop::collection::vec((0u32..16).prop_map(NodeId), 0..6),
        0..12,
    )
}

/// A per-case scratch directory under the system tmpdir, removed on drop.
struct Scratch(PathBuf);

/// Distinguishes the scratch directories of one process: tests run on
/// parallel threads, and two cases sharing a directory would let one
/// case's `Drop` delete the other's files mid-test.
static NEXT_SCRATCH: AtomicUsize = AtomicUsize::new(0);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let id = NEXT_SCRATCH.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "infprop-arena-parity-{}-{id}-{tag}",
            std::process::id()
        ));
        fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Writes `write` into `dir/name` with the tmp+rename discipline the
/// persist layer uses (the mmap safety argument rests on never mutating a
/// published arena file in place).
fn publish(scratch: &Scratch, name: &str, bytes: &[u8]) -> PathBuf {
    let tmp = scratch.file(&format!("{name}.tmp"));
    let path = scratch.file(name);
    fs::write(&tmp, bytes).unwrap();
    fs::rename(&tmp, &path).unwrap();
    path
}

proptest! {
    /// Exact arenas: mapped load == streamed load == live oracle, for
    /// `influence_many`, `individuals`, and per-node summaries, at every
    /// thread count.
    #[test]
    fn exact_load_paths_bit_identical(
        net in networks(),
        seeds in seed_sets(),
        w in 1i64..40,
    ) {
        let n = net.num_nodes() as u32;
        let seeds: Vec<Vec<NodeId>> = seeds
            .into_iter()
            .map(|s| s.into_iter().filter(|v| v.0 < n).collect())
            .collect();
        let exact = ExactIrs::compute(&net, Window(w));
        let live = exact.oracle();
        let frozen = exact.freeze();

        let mut image = Vec::new();
        frozen.write_to(&mut image).unwrap();
        let scratch = Scratch::new("exact");
        let path = publish(&scratch, "arena.ipfe", &image);

        let mapped = FrozenExactOracle::load(&path).unwrap();
        let streamed = FrozenExactOracle::read_from(&mut image.as_slice()).unwrap();
        prop_assert_eq!(mapped.validate(), Ok(()));

        let reference: Vec<f64> = seeds.iter().map(|s| live.influence(s)).collect();
        let live_ind: Vec<f64> = (0..live.num_nodes())
            .map(|i| live.individual(NodeId::from_index(i)))
            .collect();
        for threads in THREAD_COUNTS {
            prop_assert_eq!(&mapped.influence_many_frozen(&seeds, threads), &reference);
            prop_assert_eq!(&streamed.influence_many_frozen(&seeds, threads), &reference);
            prop_assert_eq!(&mapped.individuals(threads), &live_ind);
            prop_assert_eq!(&streamed.individuals(threads), &live_ind);
        }
        for i in 0..mapped.num_nodes() {
            let v = NodeId::from_index(i);
            prop_assert_eq!(mapped.summary(v).to_vec(), streamed.summary(v).to_vec());
        }
    }

    /// Approx (register) arenas: mapped load == streamed load == live
    /// sketch oracle, bit for bit, at every thread count.
    #[test]
    fn approx_load_paths_bit_identical(
        net in networks(),
        seeds in seed_sets(),
        w in 1i64..40,
    ) {
        let n = net.num_nodes() as u32;
        let seeds: Vec<Vec<NodeId>> = seeds
            .into_iter()
            .map(|s| s.into_iter().filter(|v| v.0 < n).collect())
            .collect();
        let approx = ApproxIrs::compute_with_precision(&net, Window(w), 5);
        let live = approx.oracle();
        let frozen = approx.freeze();

        let mut image = Vec::new();
        frozen.write_to(&mut image).unwrap();
        let scratch = Scratch::new("approx");
        let path = publish(&scratch, "arena.ipfa", &image);

        let mapped = FrozenApproxOracle::load(&path).unwrap();
        let streamed = FrozenApproxOracle::read_from(&mut image.as_slice()).unwrap();
        prop_assert_eq!(mapped.validate(), Ok(()));

        let reference: Vec<f64> = seeds.iter().map(|s| live.influence(s)).collect();
        let live_ind: Vec<f64> = (0..live.num_nodes())
            .map(|i| live.individual(NodeId::from_index(i)))
            .collect();
        for threads in THREAD_COUNTS {
            prop_assert_eq!(&mapped.influence_many_frozen(&seeds, threads), &reference);
            prop_assert_eq!(&streamed.influence_many_frozen(&seeds, threads), &reference);
            prop_assert_eq!(&mapped.individuals(threads), &live_ind);
            prop_assert_eq!(&streamed.individuals(threads), &live_ind);
        }
    }
}

/// The mapped loader actually maps when the feature is on: `load` must
/// report a borrowed (mmap) arena with `--features mmap` and an owned one
/// otherwise, and either way the image bytes must equal the file.
#[test]
fn load_backend_matches_build_features() {
    let net = InteractionNetwork::from_triples([(0, 1, 1), (1, 2, 2), (2, 3, 3)]);
    let frozen = ExactIrs::compute(&net, Window(5)).freeze();
    let mut image = Vec::new();
    frozen.write_to(&mut image).unwrap();
    let scratch = Scratch::new("backend");
    let path = publish(&scratch, "arena.ipfe", &image);
    let mapped = FrozenExactOracle::load(&path).unwrap();
    assert_eq!(mapped.image().as_slice(), image.as_slice());
    assert_eq!(mapped.image().is_mapped(), cfg!(feature = "mmap"));
}

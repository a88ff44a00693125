//! The frozen arena loaders (IPFA v4 and IPFE v2) on hostile input:
//! arbitrary bytes behind a valid header, every truncation of a small valid
//! image, and every single-bit flip of it. Each must end in an `Err` from
//! `read_from` or `validate`, or in an oracle that validates and answers
//! queries — never in a panic. A counting global allocator charges every
//! requested byte to the calling thread, and decoding may allocate no more
//! than the input length plus a constant, whatever counts the header
//! claims.

use infprop_core::{ApproxIrs, ExactIrs, FrozenApproxOracle, FrozenExactOracle, InfluenceOracle};
use infprop_temporal_graph::{InteractionNetwork, NodeId, Window};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator with a per-thread allocated-bytes counter. The count is
/// per thread because the test harness runs sibling tests on parallel
/// threads, and their allocations must not be charged here.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

/// Charges `bytes` to the calling thread. `try_with` because the allocator
/// also runs while thread-locals are being torn down.
fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|n| n.set(n.get() + bytes as u64));
}

/// Bytes allocated so far by the calling thread.
fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes decoding may allocate beyond the input itself: the aligned
/// buffer's slack and the reader's bookkeeping.
const DECODE_SLACK: u64 = 256;

/// The IPFA v4 header length: magic, version, precision, `n`, `total`.
const HEADER: usize = 18;

/// The IPFE v2 header length: magic, version, window, `n`, `total`.
const EXACT_HEADER: usize = 25;

/// Where the offset section starts: the first 64-byte boundary after the
/// header.
const OFFSETS_AT: usize = 64;

/// A small valid image: 12 nodes at precision 5, so rows, all-zero rows
/// and every section are present.
fn valid_image() -> Vec<u8> {
    let net = InteractionNetwork::from_triples(
        (0..40u32).map(|i| (i % 9, (i * 7 + 3) % 12, i64::from(i / 2))),
    );
    let frozen = ApproxIrs::compute_with_precision(&net, Window(6), 5).freeze();
    frozen.validate().expect("the fixture validates");
    let mut bytes = Vec::new();
    frozen.write_to(&mut bytes).expect("writes to memory");
    bytes
}

/// Loads `bytes` and, when the load succeeds, validates and queries the
/// oracle. Returns whether it validated; panics only if decoding allocated
/// more than the input length plus [`DECODE_SLACK`].
fn load_and_use(bytes: &[u8]) -> bool {
    let before = allocated();
    let loaded = FrozenApproxOracle::read_from(&mut &bytes[..]);
    let valid = matches!(&loaded, Ok(oracle) if oracle.validate().is_ok());
    let spent = allocated() - before;
    assert!(
        spent <= bytes.len() as u64 + DECODE_SLACK,
        "decoding {} bytes allocated {spent}",
        bytes.len()
    );
    let oracle = match loaded {
        Ok(oracle) if valid => oracle,
        _ => return false,
    };
    // A validated oracle answers every query shape in bounds.
    let all: Vec<NodeId> = (0..oracle.num_nodes()).map(NodeId::from_index).collect();
    let joint = oracle.influence(&all);
    let batch = oracle.influence_many_frozen(&[all.clone(), Vec::new()], 1);
    assert_eq!(batch[0].to_bits(), joint.to_bits());
    let mut union = oracle.empty_union();
    for &u in &all {
        assert!(oracle.individual(u) >= 0.0);
        assert!(oracle.marginal_gain(&union, u).is_finite());
        oracle.absorb(&mut union, u);
    }
    true
}

/// A small valid IPFE image: 12 nodes, some with empty summaries.
fn valid_exact_image() -> Vec<u8> {
    let net = InteractionNetwork::from_triples(
        (0..40u32).map(|i| (i % 9, (i * 7 + 3) % 12, i64::from(i / 2))),
    );
    let frozen = ExactIrs::compute(&net, Window(6)).freeze();
    frozen.validate().expect("the fixture validates");
    let mut bytes = Vec::new();
    frozen.write_to(&mut bytes).expect("writes to memory");
    bytes
}

/// [`load_and_use`] for the exact arena: loads `bytes` and, when the load
/// succeeds, validates and queries the oracle.
fn load_and_use_exact(bytes: &[u8]) -> bool {
    let before = allocated();
    let loaded = FrozenExactOracle::read_from(&mut &bytes[..]);
    let valid = matches!(&loaded, Ok(oracle) if oracle.validate().is_ok());
    let spent = allocated() - before;
    assert!(
        spent <= bytes.len() as u64 + DECODE_SLACK,
        "decoding {} bytes allocated {spent}",
        bytes.len()
    );
    let oracle = match loaded {
        Ok(oracle) if valid => oracle,
        _ => return false,
    };
    let all: Vec<NodeId> = (0..oracle.num_nodes()).map(NodeId::from_index).collect();
    let joint = oracle.influence(&all);
    let batch = oracle.influence_many_frozen(&[all.clone(), Vec::new()], 1);
    assert_eq!(batch[0].to_bits(), joint.to_bits());
    let mut union = oracle.empty_union();
    for &u in &all {
        assert!(oracle.individual(u) >= 0.0);
        assert!(oracle.marginal_gain(&union, u) >= 0.0);
        oracle.absorb(&mut union, u);
    }
    true
}

#[test]
fn every_truncation_is_rejected() {
    let image = valid_image();
    assert!(load_and_use(&image));
    for len in 0..image.len() {
        assert!(
            FrozenApproxOracle::read_from(&mut &image[..len]).is_err(),
            "a {len}-byte prefix of a {}-byte image loaded",
            image.len()
        );
        assert!(!load_and_use(&image[..len]));
    }
}

#[test]
fn every_single_bit_flip_is_rejected_or_validates() {
    let image = valid_image();
    let mut validated = 0;
    for bit in 0..image.len() * 8 {
        let mut bytes = image.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        if load_and_use(&bytes) {
            validated += 1;
        }
    }
    // Flips inside the zero-filled alignment gaps change no section, so
    // some flipped images still validate; flips in the sections must not.
    assert!(
        validated < image.len() * 8 / 2,
        "{validated} flipped images validated"
    );
}

#[test]
fn every_exact_truncation_is_rejected() {
    let image = valid_exact_image();
    assert!(load_and_use_exact(&image));
    for len in 0..image.len() {
        assert!(
            FrozenExactOracle::read_from(&mut &image[..len]).is_err(),
            "a {len}-byte prefix of a {}-byte image loaded",
            image.len()
        );
        assert!(!load_and_use_exact(&image[..len]));
    }
}

#[test]
fn every_exact_single_bit_flip_is_rejected_or_validates() {
    let image = valid_exact_image();
    let mut validated = 0;
    for bit in 0..image.len() * 8 {
        let mut bytes = image.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        if load_and_use_exact(&bytes) {
            validated += 1;
        }
    }
    // Flips of an entry's end time or of alignment padding leave a valid
    // arena; flips of the header, offsets and targets mostly do not.
    assert!(
        validated < image.len() * 8,
        "every one of {validated} flipped images validated"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes behind a valid header — of arbitrary length, or of
    /// exactly the length the header promises, so the row checks run on
    /// garbage offsets, indices and ρ values.
    #[test]
    fn arbitrary_bytes_behind_a_valid_header(
        body in prop::collection::vec(any::<u8>(), 0..2048),
        exact_length in any::<bool>(),
        sorted_offsets in any::<bool>(),
    ) {
        let image = valid_image();
        let mut bytes = image[..HEADER].to_vec();
        bytes.extend_from_slice(&body);
        if exact_length {
            bytes.resize(image.len(), 0);
        }
        if sorted_offsets && exact_length {
            // Keep the valid offsets so garbage reaches the row checks.
            let n = u32::from_le_bytes([image[6], image[7], image[8], image[9]]) as usize;
            let offsets = OFFSETS_AT..OFFSETS_AT + 4 * (n + 1);
            bytes[offsets.clone()].copy_from_slice(&image[offsets]);
        }
        load_and_use(&bytes);
    }

    /// A valid magic and version followed by any header fields: counts
    /// claiming billions of nodes or registers must not be trusted for
    /// allocation.
    #[test]
    fn arbitrary_header_fields(
        precision in any::<u8>(),
        n in any::<u32>(),
        total in any::<u64>(),
        body in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut bytes = b"IPFA".to_vec();
        bytes.push(4);
        bytes.push(precision);
        bytes.extend_from_slice(&n.to_le_bytes());
        bytes.extend_from_slice(&total.to_le_bytes());
        bytes.extend_from_slice(&body);
        load_and_use(&bytes);
    }

    /// Arbitrary bytes behind a valid IPFE header, of arbitrary length or
    /// of exactly the length the header promises.
    #[test]
    fn exact_arbitrary_bytes_behind_a_valid_header(
        body in prop::collection::vec(any::<u8>(), 0..2048),
        exact_length in any::<bool>(),
    ) {
        let image = valid_exact_image();
        let mut bytes = image[..EXACT_HEADER].to_vec();
        bytes.extend_from_slice(&body);
        if exact_length {
            bytes.resize(image.len(), 0);
        }
        load_and_use_exact(&bytes);
    }

    /// A valid IPFE magic and version followed by any header fields.
    #[test]
    fn exact_arbitrary_header_fields(
        window in any::<i64>(),
        n in any::<u32>(),
        total in any::<u64>(),
        body in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut bytes = b"IPFE".to_vec();
        bytes.push(2);
        bytes.extend_from_slice(&window.to_le_bytes());
        bytes.extend_from_slice(&n.to_le_bytes());
        bytes.extend_from_slice(&total.to_le_bytes());
        bytes.extend_from_slice(&body);
        load_and_use_exact(&bytes);
    }
}

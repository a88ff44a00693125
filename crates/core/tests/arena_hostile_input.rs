//! The frozen arena loaders (IPFA v4 and IPFE v2) and the layered
//! directory's interaction logs (IPIL) and manifest (IPMF) on hostile
//! input: arbitrary bytes behind a valid header, arbitrary header fields,
//! every truncation of a small valid image, and every single-bit flip of
//! it. Each must end in an `Err` from `read_from` or `validate`, or in a
//! value that validates and can be used — never in a panic. A counting
//! global allocator charges every requested byte to the calling thread, and
//! decoding may allocate no more than the input length plus a constant,
//! whatever counts the header claims. The count-prefixed IPEI, IPAO and
//! IPAI readers get the maximal count.

use infprop_core::{
    read_interaction_log, write_interaction_log, ApproxIrs, ApproxOracle, ExactIrs,
    FrozenApproxOracle, FrozenExactOracle, InfluenceOracle, LayeredKind, LayeredManifest,
};
use infprop_hll::FORMAT_VERSION;
use infprop_temporal_graph::{Interaction, InteractionNetwork, NodeId, Timestamp, Window};
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

/// Runs `decode` on `bytes` and panics if it allocated more than the input
/// length plus [`DECODE_SLACK`].
fn bounded<T>(bytes: &[u8], decode: impl FnOnce(&[u8]) -> T) -> T {
    let before = allocated();
    let out = decode(bytes);
    let spent = allocated() - before;
    assert!(
        spent <= bytes.len() as u64 + DECODE_SLACK,
        "decoding {} bytes allocated {spent}",
        bytes.len()
    );
    out
}

/// A small valid IPIL log: 20 interactions with timestamp ties.
fn valid_log() -> (Vec<Interaction>, Vec<u8>) {
    let ints: Vec<Interaction> = (0..20u32)
        .map(|i| Interaction::from_raw(i % 7, (i * 3 + 1) % 11, i64::from(i / 3) - 2))
        .collect();
    let mut bytes = Vec::new();
    write_interaction_log(&mut bytes, &ints).expect("writes to memory");
    (ints, bytes)
}

/// Decodes `bytes` as an IPIL log under the allocation bound. Returns
/// whether it decoded; a decoded log is time-sorted and holds exactly the
/// records its bytes carry.
fn load_log(bytes: &[u8]) -> bool {
    match bounded(bytes, read_interaction_log) {
        Ok(ints) => {
            assert!(ints.windows(2).all(|w| w[0].time <= w[1].time));
            assert_eq!(bytes.len(), 13 + 16 * ints.len());
            true
        }
        Err(_) => false,
    }
}

/// A valid IPMF manifest.
fn valid_manifest() -> Vec<u8> {
    let manifest = LayeredManifest {
        kind: LayeredKind::Approx,
        base_frontier: Some(Timestamp(-5)),
        generation: 7,
        window: Window(30),
    };
    let mut bytes = Vec::new();
    manifest.write_to(&mut bytes).expect("writes to memory");
    bytes
}

/// Decodes `bytes` as an IPMF manifest under the allocation bound and
/// returns whether it decoded; a decoded manifest has a positive window.
fn load_manifest(bytes: &[u8]) -> bool {
    match bounded(bytes, |b| LayeredManifest::read_from(&mut &b[..])) {
        Ok(manifest) => {
            assert!(manifest.window.get() >= 1);
            true
        }
        Err(_) => false,
    }
}

#[test]
fn every_log_truncation_is_rejected() {
    let (ints, log) = valid_log();
    assert_eq!(
        read_interaction_log(&log).expect("the fixture decodes"),
        ints
    );
    assert!(load_log(&log));
    for len in 0..log.len() {
        assert!(!load_log(&log[..len]), "a {len}-byte prefix decoded");
    }
}

#[test]
fn every_log_bit_flip_is_rejected_or_decodes() {
    let (_, log) = valid_log();
    for bit in 0..log.len() * 8 {
        let mut bytes = log.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        // Magic, version and count admit no other value; a record flip may
        // leave a valid log.
        assert!(
            !load_log(&bytes) || bit >= 13 * 8,
            "header bit {bit} flipped and decoded"
        );
    }
}

#[test]
fn every_manifest_truncation_is_rejected() {
    let manifest = valid_manifest();
    assert!(load_manifest(&manifest));
    for len in 0..manifest.len() {
        assert!(
            !load_manifest(&manifest[..len]),
            "a {len}-byte prefix decoded"
        );
    }
}

#[test]
fn every_manifest_bit_flip_is_rejected_or_decodes() {
    let manifest = valid_manifest();
    let mut decoded = 0;
    for bit in 0..manifest.len() * 8 {
        let mut bytes = manifest.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        if load_manifest(&bytes) {
            decoded += 1;
        }
    }
    // The frontier and generation take any value; the magic and version
    // take none but their own.
    assert!(
        decoded < manifest.len() * 8 - 5 * 8,
        "{decoded} flips decoded"
    );
}

/// Header bytes claiming `u32::MAX` records, then one record length (IPEI)
/// claiming as many again: each reader must fail on the missing bytes
/// without allocating for the claim.
#[test]
fn maximal_counts_allocate_nothing_before_the_records_arrive() {
    let max = u32::MAX.to_le_bytes();
    let mut ipei = b"IPEI".to_vec();
    ipei.push(FORMAT_VERSION);
    ipei.extend_from_slice(&30i64.to_le_bytes());
    ipei.extend_from_slice(&max);
    ipei.extend_from_slice(&max);
    assert!(bounded(&ipei, |b| ExactIrs::read_from(&mut &b[..])).is_err());

    // Precision 4: the reader's one register buffer is β = 16 bytes.
    let mut ipao = b"IPAO".to_vec();
    ipao.extend_from_slice(&[FORMAT_VERSION, 4]);
    ipao.extend_from_slice(&max);
    assert!(bounded(&ipao, |b| ApproxOracle::read_from(&mut &b[..])).is_err());

    let mut ipai = b"IPAI".to_vec();
    ipai.extend_from_slice(&[FORMAT_VERSION, 4]);
    ipai.extend_from_slice(&30i64.to_le_bytes());
    ipai.extend_from_slice(&max);
    assert!(bounded(&ipai, |b| ApproxIrs::read_from(&mut &b[..])).is_err());
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

    /// Arbitrary records behind a valid IPIL header, of arbitrary length or
    /// of exactly the length the count promises.
    #[test]
    fn log_arbitrary_bytes_behind_a_valid_header(
        body in prop::collection::vec(any::<u8>(), 0..1024),
        exact_length in any::<bool>(),
    ) {
        let (_, log) = valid_log();
        let mut bytes = log[..13].to_vec();
        bytes.extend_from_slice(&body);
        if exact_length {
            bytes.resize(log.len(), 0);
        }
        load_log(&bytes);
    }

    /// A valid IPIL magic and version followed by any count: counts
    /// claiming exabytes of records must not be trusted for allocation.
    #[test]
    fn log_arbitrary_header_fields(
        n in any::<u64>(),
        body in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut bytes = b"IPIL".to_vec();
        bytes.push(FORMAT_VERSION);
        bytes.extend_from_slice(&n.to_le_bytes());
        bytes.extend_from_slice(&body);
        load_log(&bytes);
    }

    /// A valid IPMF magic and version followed by any field values and
    /// trailing bytes.
    #[test]
    fn manifest_arbitrary_header_fields(
        kind in any::<u8>(),
        has_frontier in any::<u8>(),
        frontier in any::<i64>(),
        generation in any::<u64>(),
        window in any::<i64>(),
        body in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut bytes = b"IPMF".to_vec();
        bytes.extend_from_slice(&[FORMAT_VERSION, kind, has_frontier]);
        bytes.extend_from_slice(&frontier.to_le_bytes());
        bytes.extend_from_slice(&generation.to_le_bytes());
        bytes.extend_from_slice(&window.to_le_bytes());
        bytes.extend_from_slice(&body);
        load_manifest(&bytes);
    }

    /// Arbitrary bytes behind the IPMF magic.
    #[test]
    fn manifest_arbitrary_bytes_behind_the_magic(
        body in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut bytes = b"IPMF".to_vec();
        bytes.extend_from_slice(&body);
        load_manifest(&bytes);
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

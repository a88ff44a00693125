//! Persistence for the build-once / query-many structures.
//!
//! Building an [`ApproxIrs`](crate::ApproxIrs) costs one pass over the full
//! interaction log; the resulting sketches are small. These codecs let an
//! application precompute the sketches offline and serve
//! influence-oracle queries from a file:
//!
//! * [`ApproxOracle`]: `"IPAO"` header + per-node raw HLL registers — the
//!   minimal artefact needed to answer `Inf(S)` queries.
//! * [`ApproxIrs`]: `"IPAI"` header + window + per-node versioned-HLL
//!   blocks — the full sketch state, from which the oracle can be rebuilt
//!   and per-node estimates queried.
//! * [`FrozenExactOracle`]: `"IPFE"` v2 — the arena image verbatim
//!   (64-byte-aligned header, offset, and entry sections). The file **is**
//!   the in-memory arena, so loading borrows it wholesale: one bulk read,
//!   or a zero-copy memory map under `--features mmap`, with **no
//!   per-node allocation**.
//! * [`FrozenApproxOracle`]: `"IPFA"` v4 — the register arena image
//!   verbatim (aligned header, row offset, register index, ρ, and per-node
//!   estimate sections), borrowed the same way.
//!
//! Only the current layout of each frozen format loads: nothing writes the
//! older ones any more, so they are rejected with their version number.
//!
//! Formats are little-endian and validated on read (magic, version,
//! precision, per-sketch/per-summary invariants) via [`CodecError`].
//! Current-version frozen arenas get *structural* checks on load; their
//! deep per-byte invariants are checked by an explicit `validate()` call
//! on the load paths that consume untrusted files (the layered
//! `open_layered` readers, the CLI loaders).
//!
//! # Layered oracle directories
//!
//! A [`Layered`] oracle ([`LayeredExactOracle`](crate::LayeredExactOracle)
//! or [`LayeredApproxOracle`](crate::LayeredApproxOracle)) persists as a
//! *directory* of generation-stamped files rather than a single blob:
//!
//! * `gen-N.arena` — the frozen base arena of generation `N` (`IPFE` or
//!   `IPFA`, unchanged formats);
//! * `gen-N.tail` / `gen-N.pending` — interaction logs (`"IPIL"`: 16-byte
//!   little-endian `(src, dst, time)` records) holding the window tail and
//!   the forward appends;
//! * `MANIFEST` — the `"IPMF"` commit record naming the live generation,
//!   the oracle kind, the base frontier, and the window.
//!
//! Every file is written to a `.tmp` sibling and atomically renamed into
//! place, and the `MANIFEST` is written **last**: a crash anywhere during a
//! save or compaction leaves the previous manifest pointing at the
//! previous generation's complete files, which remain loadable. Stale
//! generations are swept only after the manifest commit.

use crate::approx::ApproxIrs;
use crate::arena::ArenaBytes;
use crate::delta::{FrozenLayer, Layered};
use crate::engine::ExactSummary;
use crate::exact::ExactIrs;
use crate::frozen::{get_u32, layout};
use crate::frozen::{FrozenApproxOracle, FrozenExactOracle};
use crate::invariants::InvariantViolation;
use crate::oracle::ApproxOracle;
use infprop_hll::{validate_version, CodecError, HyperLogLog, VersionedHll, FORMAT_VERSION};
use infprop_temporal_graph::{Interaction, NodeId, Timestamp, Window};
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

const ORACLE_MAGIC: &[u8; 4] = b"IPAO";
const IRS_MAGIC: &[u8; 4] = b"IPAI";
const EXACT_MAGIC: &[u8; 4] = b"IPEI";
const MANIFEST_MAGIC: &[u8; 4] = b"IPMF";
const LOG_MAGIC: &[u8; 4] = b"IPIL";

/// File name of the layered-directory commit record.
pub const MANIFEST_FILE: &str = "MANIFEST";

fn read_array<const N: usize>(r: &mut impl Read) -> Result<[u8; N], CodecError> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

impl ApproxOracle {
    /// Writes the oracle (all per-node collapsed sketches) in `IPAO` format.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), CodecError> {
        let precision = self.precision_value();
        w.write_all(ORACLE_MAGIC)?;
        w.write_all(&[FORMAT_VERSION, precision])?;
        let n = u32::try_from(self.num_nodes_value())
            .map_err(|_| CodecError::Corrupt("too many nodes to encode"))?;
        w.write_all(&n.to_le_bytes())?;
        for u in 0..self.num_nodes_value() {
            w.write_all(
                self.sketch(infprop_temporal_graph::NodeId::from_index(u))
                    .registers(),
            )?;
        }
        Ok(())
    }

    /// Reads an oracle written by [`write_to`](Self::write_to).
    pub fn read_from(r: &mut impl Read) -> Result<Self, CodecError> {
        let header: [u8; 4] = read_array(r)?;
        if &header != ORACLE_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let [version, precision] = read_array::<2>(r)?;
        validate_version(version)?;
        if !(4..=16).contains(&precision) {
            return Err(CodecError::Corrupt("precision out of range"));
        }
        let n = u32::from_le_bytes(read_array(r)?) as usize; // xtask-allow: no-lossy-cast (u32 → usize widens on ≥32-bit targets)
        let beta = 1usize << precision;
        let max_rho = 64 - precision + 1;
        // Grown as sketches arrive: the count is not trusted for allocation.
        let mut sketches = Vec::new();
        let mut registers = vec![0u8; beta];
        for _ in 0..n {
            r.read_exact(&mut registers)?;
            if registers.iter().any(|&b| b > max_rho) {
                return Err(CodecError::Corrupt("register exceeds maximal rho"));
            }
            sketches.push(HyperLogLog::from_registers(registers.clone()));
        }
        Ok(ApproxOracle::with_precision(precision, sketches))
    }
}

impl ApproxIrs {
    /// Writes the full sketch state (window, precision, per-node versioned
    /// HLLs) in `IPAI` format.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), CodecError> {
        w.write_all(IRS_MAGIC)?;
        w.write_all(&[FORMAT_VERSION, self.precision()])?;
        w.write_all(&self.window().get().to_le_bytes())?;
        let n = u32::try_from(self.num_nodes())
            .map_err(|_| CodecError::Corrupt("too many nodes to encode"))?;
        w.write_all(&n.to_le_bytes())?;
        for u in 0..self.num_nodes() {
            self.sketch(infprop_temporal_graph::NodeId::from_index(u))
                .write_to(w)?;
        }
        Ok(())
    }

    /// Reads sketch state written by [`write_to`](Self::write_to).
    pub fn read_from(r: &mut impl Read) -> Result<Self, CodecError> {
        let header: [u8; 4] = read_array(r)?;
        if &header != IRS_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let [version, precision] = read_array::<2>(r)?;
        validate_version(version)?;
        let window = Window::try_new(i64::from_le_bytes(read_array(r)?))
            .map_err(|_| CodecError::Corrupt("window must be positive"))?;
        // Grown as sketches arrive: the count is not trusted for allocation.
        let n = u32::from_le_bytes(read_array(r)?) as usize; // xtask-allow: no-lossy-cast (u32 → usize widens on ≥32-bit targets)
        let mut sketches = Vec::new();
        for _ in 0..n {
            let sketch = VersionedHll::read_from(r)?;
            if sketch.precision() != precision {
                return Err(CodecError::Corrupt("mixed sketch precisions"));
            }
            sketches.push(sketch);
        }
        Ok(ApproxIrs::from_parts(window, precision, sketches))
    }
}

impl ExactIrs {
    /// Writes the exact summaries (window + per-node `(v, λ)` maps) in
    /// `IPEI` format. Entries are written in ascending `v` order so the
    /// output is byte-deterministic.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), CodecError> {
        w.write_all(EXACT_MAGIC)?;
        w.write_all(&[FORMAT_VERSION])?;
        w.write_all(&self.window().get().to_le_bytes())?;
        let n = u32::try_from(self.num_nodes())
            .map_err(|_| CodecError::Corrupt("too many nodes to encode"))?;
        w.write_all(&n.to_le_bytes())?;
        for u in 0..self.num_nodes() {
            let summary = self.summary(NodeId::from_index(u));
            let len = u32::try_from(summary.len())
                .map_err(|_| CodecError::Corrupt("summary too long to encode"))?;
            w.write_all(&len.to_le_bytes())?;
            // Dense summaries are already in ascending v order.
            for &(v, t) in summary {
                w.write_all(&v.0.to_le_bytes())?;
                w.write_all(&t.get().to_le_bytes())?;
            }
        }
        Ok(())
    }

    /// Reads summaries written by [`write_to`](Self::write_to).
    pub fn read_from(r: &mut impl Read) -> Result<Self, CodecError> {
        let header: [u8; 4] = read_array(r)?;
        if &header != EXACT_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let [version] = read_array::<1>(r)?;
        validate_version(version)?;
        let window = Window::try_new(i64::from_le_bytes(read_array(r)?))
            .map_err(|_| CodecError::Corrupt("window must be positive"))?;
        // Grown as records arrive: no count is trusted for allocation.
        let n = u32::from_le_bytes(read_array(r)?) as usize; // xtask-allow: no-lossy-cast (u32 → usize widens on ≥32-bit targets)
        let mut summaries = Vec::new();
        for _ in 0..n {
            let len = u32::from_le_bytes(read_array(r)?) as usize; // xtask-allow: no-lossy-cast (u32 → usize widens on ≥32-bit targets)
            if len > n {
                return Err(CodecError::Corrupt("summary larger than node universe"));
            }
            let mut summary: ExactSummary = Vec::new();
            for _ in 0..len {
                let v = NodeId(u32::from_le_bytes(read_array(r)?));
                if v.index() >= n {
                    return Err(CodecError::Corrupt("summary entry outside universe"));
                }
                let t = Timestamp(i64::from_le_bytes(read_array(r)?));
                match summary.last() {
                    Some(&(prev, _)) if prev == v => {
                        return Err(CodecError::Corrupt("duplicate summary entry"));
                    }
                    Some(&(prev, _)) if prev > v => {
                        return Err(CodecError::Corrupt("summary entries out of order"));
                    }
                    _ => {}
                }
                summary.push((v, t));
            }
            summaries.push(summary);
        }
        Ok(ExactIrs::from_parts(window, summaries))
    }
}

/// Current `IPFE` layout version. Version 1 packed the sections directly
/// after the header; version 2 (this build) starts every section on a
/// 64-byte boundary so the file image **is** the in-memory arena — loads
/// borrow it wholesale (zero-copy under `--features mmap`). Version 1 is
/// rejected as [`CodecError::BadVersion`], versions beyond 2 as
/// [`CodecError::FutureVersion`].
pub const FROZEN_EXACT_LAYOUT_VERSION: u8 = layout::EXACT_VERSION;

/// Current `IPFA` layout version. Versions 1–3 stored every node's `β`
/// registers densely (version 2 added a tile-major copy, version 3 aligned
/// sections and stored the per-node estimates); version 4 (this build)
/// stores each row as its non-zero `(index, ρ)` pairs, indexed by per-node
/// offsets, plus the estimates. Versions 1–3 are rejected as
/// [`CodecError::BadVersion`], versions beyond 4 as
/// [`CodecError::FutureVersion`]. Local to the frozen formats — every
/// other codec stays at the workspace-wide [`FORMAT_VERSION`].
pub const FROZEN_APPROX_LAYOUT_VERSION: u8 = layout::APPROX_VERSION;

impl FrozenExactOracle {
    /// Writes the arena in `IPFE` v2 format — one bulk write of the
    /// in-memory image, which already is the file layout byte for byte
    /// (64-byte-aligned header, offset, and entry sections).
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), CodecError> {
        w.write_all(self.image())?;
        Ok(())
    }

    /// Reads an arena written by [`write_to`](Self::write_to) (layout
    /// version 2).
    ///
    /// The image is adopted wholesale after *structural* validation —
    /// magic, version, section framing, monotone offsets — with **no
    /// per-node work and no decode pass**. The deeper per-entry invariants
    /// (sorted summaries, no self-entries, targets inside the universe)
    /// are deliberately left to an explicit [`validate`] call, which the
    /// layered [`open_layered`] paths and the CLI loaders make; callers
    /// handing queries untrusted bytes should do the same.
    ///
    /// [`validate`]: FrozenExactOracle::validate
    /// [`open_layered`]: Layered::open_layered
    pub fn read_from(r: &mut impl Read) -> Result<Self, CodecError> {
        Self::from_arena_bytes(ArenaBytes::read_from(r)?)
    }

    /// Loads an `IPFE` file for querying: the image is acquired through
    /// [`ArenaBytes::open`] — a borrowed memory map under `--features
    /// mmap`, one aligned bulk read otherwise — and adopted with the same
    /// structural checks as [`read_from`](Self::read_from).
    pub fn load(path: &Path) -> Result<Self, CodecError> {
        Self::from_arena_bytes(ArenaBytes::open(path)?)
    }

    /// The shared load path: validates the header and section framing of
    /// `data`, then borrows it as the arena.
    fn from_arena_bytes(data: ArenaBytes) -> Result<Self, CodecError> {
        let mut r: &[u8] = &data;
        let magic: [u8; 4] = read_array(&mut r)?;
        if &magic != layout::EXACT_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let [version] = read_array::<1>(&mut r)?;
        check_layout_version(version, layout::EXACT_VERSION)?;
        let window = Window::try_new(i64::from_le_bytes(read_array(&mut r)?))
            .map_err(|_| CodecError::Corrupt("window must be positive"))?;
        let n = u32::from_le_bytes(read_array(&mut r)?) as usize; // xtask-allow: no-lossy-cast (u32 → usize widens on ≥32-bit targets)
        let total = u64::from_le_bytes(read_array(&mut r)?);
        if total > u64::from(u32::MAX) {
            return Err(CodecError::Corrupt("entry count exceeds arena limit"));
        }
        let total = usize::try_from(total)
            .map_err(|_| CodecError::Corrupt("entry count exceeds arena limit"))?;
        let (offsets_at, _, image_len) = layout::exact_sections(n, total);
        if data.len() != image_len {
            return Err(CodecError::Corrupt(
                "arena length disagrees with its header",
            ));
        }
        let at = |i: usize| get_u32(&data, offsets_at + 4 * i);
        if at(0) != 0 || at(n) != total {
            return Err(CodecError::Corrupt("offsets do not frame the entries"));
        }
        if (1..=n).any(|i| at(i - 1) > at(i)) {
            return Err(CodecError::Corrupt("offsets not monotone"));
        }
        Ok(FrozenExactOracle::from_image(window, n, total, data))
    }
}

impl FrozenApproxOracle {
    /// Writes the arena in `IPFA` v4 format — one bulk write of the
    /// in-memory image (64-byte-aligned header, row offset, register index,
    /// ρ, and per-node estimate sections).
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), CodecError> {
        w.write_all(self.image())?;
        Ok(())
    }

    /// Reads an arena written by [`write_to`](Self::write_to) (layout
    /// version 4).
    ///
    /// The image is adopted after the checks that keep every query on it
    /// in bounds — magic, version, precision range, section framing,
    /// offsets monotone and framing the pairs, and in every row indices
    /// strictly increasing below `β` and every ρ in `1 ..= 64 − k + 1` —
    /// which cost `O(n + pairs)` and allocate nothing. The stored per-node
    /// estimates are checked against the rows by an explicit [`validate`]
    /// call, which the layered [`open_layered`] paths and the CLI loaders
    /// make; callers handing queries untrusted bytes should do the same.
    ///
    /// [`validate`]: FrozenApproxOracle::validate
    /// [`open_layered`]: Layered::open_layered
    pub fn read_from(r: &mut impl Read) -> Result<Self, CodecError> {
        Self::from_arena_bytes(ArenaBytes::read_from(r)?)
    }

    /// Loads an `IPFA` file for querying: the image is acquired through
    /// [`ArenaBytes::open`] — a borrowed memory map under `--features
    /// mmap`, one aligned bulk read otherwise — and adopted with the same
    /// checks as [`read_from`](Self::read_from).
    pub fn load(path: &Path) -> Result<Self, CodecError> {
        Self::from_arena_bytes(ArenaBytes::open(path)?)
    }

    /// The shared load path: checks the header, the section framing and
    /// every row of `data`, then borrows it as the arena.
    fn from_arena_bytes(data: ArenaBytes) -> Result<Self, CodecError> {
        let mut r: &[u8] = &data;
        let magic: [u8; 4] = read_array(&mut r)?;
        if &magic != layout::APPROX_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let [version, precision] = read_array::<2>(&mut r)?;
        check_layout_version(version, layout::APPROX_VERSION)?;
        if !(4..=16).contains(&precision) {
            return Err(CodecError::Corrupt("precision out of range"));
        }
        let n = u32::from_le_bytes(read_array(&mut r)?) as usize; // xtask-allow: no-lossy-cast (u32 → usize widens on ≥32-bit targets)
        let total = u64::from_le_bytes(read_array(&mut r)?);
        if total > u64::from(u32::MAX) {
            return Err(CodecError::Corrupt("register count exceeds arena limit"));
        }
        let total = usize::try_from(total)
            .map_err(|_| CodecError::Corrupt("register count exceeds arena limit"))?;
        let at = layout::approx_sections(n, total);
        if data.len() != at.len {
            return Err(CodecError::Corrupt(
                "arena length disagrees with its header",
            ));
        }
        let offset = |i: usize| get_u32(&data, at.offsets + 4 * i);
        if offset(0) != 0 || offset(n) != total {
            return Err(CodecError::Corrupt("offsets do not frame the registers"));
        }
        if (1..=n).any(|i| offset(i - 1) > offset(i)) {
            return Err(CodecError::Corrupt("offsets not monotone"));
        }
        let oracle = FrozenApproxOracle::from_image(precision, n, total, data);
        for i in 0..n {
            match oracle.check_row(NodeId::from_index(i)) {
                Ok(()) => {}
                Err(InvariantViolation::RegisterOutOfRange { .. }) => {
                    return Err(CodecError::Corrupt("register ρ out of range"));
                }
                Err(_) => {
                    return Err(CodecError::Corrupt(
                        "register indices not strictly increasing below β",
                    ));
                }
            }
        }
        Ok(oracle)
    }
}

/// Accepts only the current layout `version` of a frozen format: older
/// versions are [`CodecError::BadVersion`] (nothing writes them any more),
/// newer ones [`CodecError::FutureVersion`] ("upgrade the binary").
fn check_layout_version(version: u8, current: u8) -> Result<(), CodecError> {
    match version {
        v if v == current => Ok(()),
        v if v > current => Err(CodecError::FutureVersion(v)),
        v => Err(CodecError::BadVersion(v)),
    }
}

/// Which layered oracle family a directory holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayeredKind {
    /// [`LayeredExactOracle`](crate::LayeredExactOracle) over an `IPFE`
    /// base arena.
    Exact,
    /// [`LayeredApproxOracle`](crate::LayeredApproxOracle) over an `IPFA`
    /// base arena.
    Approx,
}

/// The `MANIFEST` commit record of a layered oracle directory (`"IPMF"`).
///
/// Naming the live generation here — and writing the manifest last — is
/// what makes saves and compactions crash-safe: until the manifest rename
/// lands, readers keep resolving the previous generation's files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayeredManifest {
    /// Which oracle family the directory holds.
    pub kind: LayeredKind,
    /// Newest timestamp frozen into the base arena (`None` for an empty
    /// base). Appends only touch the pending log, so this changes only at
    /// compaction.
    pub base_frontier: Option<Timestamp>,
    /// The live generation: `gen-N.{arena,tail,pending}` are the current
    /// files.
    pub generation: u64,
    /// The channel window `ω` (the `IPFA` arena does not carry it).
    pub window: Window,
}

impl LayeredManifest {
    /// Writes the commit record in `IPMF` format.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), CodecError> {
        w.write_all(MANIFEST_MAGIC)?;
        let kind = match self.kind {
            LayeredKind::Exact => 0u8,
            LayeredKind::Approx => 1u8,
        };
        w.write_all(&[FORMAT_VERSION, kind, u8::from(self.base_frontier.is_some())])?;
        w.write_all(&self.base_frontier.map_or(0, |t| t.get()).to_le_bytes())?;
        w.write_all(&self.generation.to_le_bytes())?;
        w.write_all(&self.window.get().to_le_bytes())?;
        Ok(())
    }

    /// Reads a record written by [`write_to`](Self::write_to).
    pub fn read_from(r: &mut impl Read) -> Result<Self, CodecError> {
        let magic: [u8; 4] = read_array(r)?;
        if &magic != MANIFEST_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let [version, kind, has_frontier] = read_array::<3>(r)?;
        validate_version(version)?;
        let kind = match kind {
            0 => LayeredKind::Exact,
            1 => LayeredKind::Approx,
            _ => return Err(CodecError::Corrupt("unknown layered oracle kind")),
        };
        let frontier_raw = i64::from_le_bytes(read_array(r)?);
        let base_frontier = match has_frontier {
            0 => None,
            1 => Some(Timestamp(frontier_raw)),
            _ => return Err(CodecError::Corrupt("manifest frontier flag must be 0 or 1")),
        };
        let generation = u64::from_le_bytes(read_array(r)?);
        let window = Window::try_new(i64::from_le_bytes(read_array(r)?))
            .map_err(|_| CodecError::Corrupt("window must be positive"))?;
        Ok(LayeredManifest {
            kind,
            base_frontier,
            generation,
            window,
        })
    }

    /// Reads the `MANIFEST` of a layered directory — the cheap probe the
    /// CLI uses to detect the stored format before loading the arenas.
    pub fn read_from_dir(dir: &Path) -> Result<Self, CodecError> {
        Self::read_from(&mut fs::read(dir.join(MANIFEST_FILE))?.as_slice())
    }
}

/// Writes a time-sorted interaction log in `IPIL` format — the
/// `gen-N.tail` and `gen-N.pending` files of a layered directory: header +
/// count + 16-byte `(src: u32, dst: u32, time: i64)` little-endian records.
pub fn write_interaction_log(w: &mut impl Write, ints: &[Interaction]) -> Result<(), CodecError> {
    w.write_all(LOG_MAGIC)?;
    w.write_all(&[FORMAT_VERSION])?;
    let n = u64::try_from(ints.len())
        .map_err(|_| CodecError::Corrupt("too many interactions to encode"))?;
    w.write_all(&n.to_le_bytes())?;
    let mut buf = Vec::with_capacity(ints.len() * 16);
    for i in ints {
        buf.extend_from_slice(&i.src.0.to_le_bytes());
        buf.extend_from_slice(&i.dst.0.to_le_bytes());
        buf.extend_from_slice(&i.time.get().to_le_bytes());
    }
    w.write_all(&buf)?;
    Ok(())
}

/// Reads a log written by [`write_interaction_log`], validating the
/// explicit count against the records present (truncation detection) and
/// ascending time order. The count is trusted only once the bytes backing
/// it are there, so no header can make decoding allocate more than the
/// input's length.
pub fn read_interaction_log(bytes: &[u8]) -> Result<Vec<Interaction>, CodecError> {
    let mut r = bytes;
    let magic: [u8; 4] = read_array(&mut r)?;
    if &magic != LOG_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let [version] = read_array::<1>(&mut r)?;
    validate_version(version)?;
    let n = u64::from_le_bytes(read_array(&mut r)?);
    if n.checked_mul(16) != u64::try_from(r.len()).ok() {
        return Err(CodecError::Corrupt(
            "interaction log length disagrees with its count",
        ));
    }
    let mut ints: Vec<Interaction> = Vec::with_capacity(r.len() / 16);
    for c in r.chunks_exact(16) {
        let src = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let dst = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        let time = i64::from_le_bytes([c[8], c[9], c[10], c[11], c[12], c[13], c[14], c[15]]);
        let i = Interaction::from_raw(src, dst, time);
        if ints.last().is_some_and(|prev| i.time < prev.time) {
            return Err(CodecError::Corrupt("interaction log is not sorted by time"));
        }
        ints.push(i);
    }
    Ok(ints)
}

/// Path of one generation-stamped file inside a layered directory.
fn gen_file(dir: &Path, generation: u64, suffix: &str) -> PathBuf {
    dir.join(format!("gen-{generation}.{suffix}"))
}

/// Writes `bytes` to `path` via a `.tmp` sibling and an atomic rename, so
/// readers only ever observe complete files. The temporary file is written
/// in two halves, so a crash can cut it short.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CodecError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let (head, rest) = bytes.split_at(bytes.len() / 2);
    let mut file = fs::File::create(&tmp)?;
    file.write_all(head)?;
    step_taken()?;
    file.write_all(rest)?;
    drop(file);
    step_taken()?;
    fs::rename(&tmp, path)?;
    step_taken()
}

/// Marks one file-system step of a layered save as taken. The crash-point
/// test stops a save after its k-th step, for every k, by failing here;
/// in every other build this always passes.
fn step_taken() -> Result<(), CodecError> {
    #[cfg(test)]
    tests::crash_after_budget()?;
    Ok(())
}

/// Best-effort removal of files from generations other than `keep` (and of
/// orphaned `.tmp` files): crash leftovers and the pre-compaction
/// generation, swept only *after* the manifest commit. Errors are ignored —
/// a stale file is wasted disk, never a correctness problem.
fn sweep_stale_generations(dir: &Path, keep: u64) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let keep_prefix = format!("gen-{keep}.");
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else {
            continue;
        };
        let stale_gen = name.starts_with("gen-") && !name.starts_with(&keep_prefix);
        let orphan_tmp = name.ends_with(".tmp");
        if (stale_gen || orphan_tmp) && name != MANIFEST_FILE {
            let _ = fs::remove_file(entry.path());
            if step_taken().is_err() {
                return;
            }
        }
    }
}

/// Validates that `tail ++ pending` is one ascending log across the file
/// boundary (each file is already internally sorted).
fn validate_log_boundary(tail: &[Interaction], pending: &[Interaction]) -> Result<(), CodecError> {
    if let (Some(last), Some(first)) = (tail.last(), pending.first()) {
        if first.time < last.time {
            return Err(CodecError::Corrupt(
                "pending log starts before the tail ends",
            ));
        }
    }
    Ok(())
}

impl<B: FrozenLayer> Layered<B> {
    /// Saves the full layered state into `dir` (created if missing):
    /// `gen-N.arena`, `gen-N.tail`, `gen-N.pending`, then the `MANIFEST`
    /// commit; previous generations are swept after the commit. Safe to
    /// call while [stale](Self::is_stale) — the logs carry the un-refreshed
    /// appends and [`open_layered`](Self::open_layered) rebuilds the
    /// overlay.
    pub fn save_layered(&self, dir: &Path) -> Result<(), CodecError> {
        fs::create_dir_all(dir)?;
        let g = self.generation();
        write_atomic(&gen_file(dir, g, "arena"), self.base().image())?;
        let mut bytes = Vec::new();
        write_interaction_log(&mut bytes, self.delta().tail())?;
        write_atomic(&gen_file(dir, g, "tail"), &bytes)?;
        self.persist_pending(dir)?;
        let manifest = LayeredManifest {
            kind: B::KIND,
            base_frontier: self.delta().base_frontier(),
            generation: g,
            window: self.window(),
        };
        bytes.clear();
        manifest.write_to(&mut bytes)?;
        write_atomic(&dir.join(MANIFEST_FILE), &bytes)?;
        sweep_stale_generations(dir, g);
        Ok(())
    }

    /// Rewrites only `gen-N.pending` — the cheap per-append persistence
    /// path. The arena, tail, and manifest are immutable between
    /// compactions, so buffered appends are durable after this one atomic
    /// file swap.
    pub fn persist_pending(&self, dir: &Path) -> Result<(), CodecError> {
        let mut bytes = Vec::new();
        write_interaction_log(&mut bytes, self.delta().pending())?;
        write_atomic(&gen_file(dir, self.generation(), "pending"), &bytes)
    }

    /// Opens a directory written by [`save_layered`](Self::save_layered),
    /// resolving the live generation through the `MANIFEST` and rebuilding
    /// the overlay from the persisted logs. The window comes from the
    /// manifest and must match the one the arena stores, if it stores one.
    pub fn open_layered(dir: &Path) -> Result<Self, CodecError> {
        let manifest = LayeredManifest::read_from_dir(dir)?;
        if manifest.kind != B::KIND {
            return Err(CodecError::Corrupt(match manifest.kind {
                LayeredKind::Exact => "directory holds an exact layered oracle",
                LayeredKind::Approx => "directory holds an approx layered oracle",
            }));
        }
        let g = manifest.generation;
        let base = B::load_checked(&gen_file(dir, g, "arena"))?;
        if base.stored_window().is_some_and(|w| w != manifest.window) {
            return Err(CodecError::Corrupt(
                "manifest window disagrees with the arena",
            ));
        }
        let tail = read_interaction_log(&fs::read(gen_file(dir, g, "tail"))?)?;
        let pending = read_interaction_log(&fs::read(gen_file(dir, g, "pending"))?)?;
        validate_log_boundary(&tail, &pending)?;
        Ok(Self::from_parts(
            base,
            manifest.window,
            manifest.base_frontier,
            tail,
            pending,
            g,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::InfluenceOracle;
    use crate::{LayeredApproxOracle, LayeredExactOracle};
    use infprop_temporal_graph::{InteractionNetwork, NodeId};
    use std::cell::Cell;

    thread_local! {
        /// File-system steps a layered save on this thread may still take
        /// before it stops as if the process had crashed; `None` lets every
        /// save finish.
        static STEPS_LEFT: Cell<Option<usize>> = const { Cell::new(None) };
    }

    /// [`step_taken`] under test: fails once the thread's budget is spent.
    pub(super) fn crash_after_budget() -> Result<(), CodecError> {
        STEPS_LEFT.with(|left| match left.get() {
            Some(k) if k <= 1 => {
                left.set(Some(0));
                Err(CodecError::Io(std::io::Error::other("simulated crash")))
            }
            Some(k) => {
                left.set(Some(k - 1));
                Ok(())
            }
            None => Ok(()),
        })
    }

    /// Stops `op` on a fresh save of `old` after its k-th file-system step,
    /// for k = 1, 2, … until it finishes: every `.tmp` write, cut short or
    /// complete, every rename and every removal of the sweep. Each time the
    /// directory is reopened. Until the rename of `commit` lands, it must
    /// answer exactly as `old`; from then on, exactly as `new`. Returns the
    /// number of steps `op` takes.
    fn assert_every_crash_point_reopens<B: FrozenLayer>(
        tag: &str,
        old: &Layered<B>,
        new: &Layered<B>,
        commit: &str,
        op: impl Fn(&Path) -> Result<(), CodecError>,
    ) -> usize {
        let n = InfluenceOracle::num_nodes(old).min(InfluenceOracle::num_nodes(new));
        let mut queries: Vec<Vec<NodeId>> = (0..n).map(|u| vec![NodeId::from_index(u)]).collect();
        queries.push((0..n).map(NodeId::from_index).collect());
        queries.push(vec![NodeId(1), NodeId(7)]);
        let answers = |o: &Layered<B>| {
            let mut bits = vec![InfluenceOracle::num_nodes(o) as u64];
            bits.extend(
                o.influence_many_frozen(&queries, 1)
                    .iter()
                    .map(|v| v.to_bits()),
            );
            bits
        };
        let (old_answers, new_answers) = (answers(old), answers(new));
        assert_ne!(
            old_answers, new_answers,
            "{tag}: the operation changes no answer"
        );
        let dir = tempdir(tag);
        let mut as_old = 0;
        for k in 1.. {
            let _ = fs::remove_dir_all(&dir);
            old.save_layered(&dir).unwrap();
            let before = fs::read(dir.join(commit)).unwrap();
            STEPS_LEFT.with(|left| left.set(Some(k)));
            let result = op(&dir);
            let stopped = STEPS_LEFT.with(|left| left.replace(None)) == Some(0);
            let reopened = Layered::<B>::open_layered(&dir)
                .unwrap_or_else(|e| panic!("{tag}: stopped after step {k}: {e}"));
            let committed = fs::read(dir.join(commit)).unwrap() != before;
            let want = if committed {
                &new_answers
            } else {
                &old_answers
            };
            assert_eq!(&answers(&reopened), want, "{tag}: stopped after step {k}");
            as_old += usize::from(!committed);
            if !stopped {
                result.unwrap();
                assert!(committed && as_old > 0, "{tag}");
                let _ = fs::remove_dir_all(&dir);
                return k - 1;
            }
        }
        unreachable!()
    }

    /// Enumerates the crash points of `save_layered` after a compaction
    /// and of `persist_pending` after an append, on `oracle`.
    fn assert_layered_saves_are_crash_safe<B: FrozenLayer>(tag: &str, mut oracle: Layered<B>)
    where
        Layered<B>: Clone,
    {
        let t = oracle.frontier().unwrap().get();
        oracle.append(Interaction::from_raw(7, 8, t + 3)).unwrap();
        oracle.refresh();
        let mut compacted = oracle.clone();
        compacted.compact();
        let steps = assert_every_crash_point_reopens(
            &format!("{tag}-compact"),
            &oracle,
            &compacted,
            MANIFEST_FILE,
            |dir| compacted.save_layered(dir),
        );
        // Four files of three steps each, then the sweep of three stale
        // generation-0 files.
        assert_eq!(steps, 4 * 3 + 3, "{tag}");

        let mut appended = oracle.clone();
        appended
            .append(Interaction::from_raw(8, 41, t + 5))
            .unwrap();
        appended.refresh();
        let steps = assert_every_crash_point_reopens(
            &format!("{tag}-append"),
            &oracle,
            &appended,
            "gen-0.pending",
            |dir| appended.persist_pending(dir),
        );
        assert_eq!(steps, 3, "{tag}");
    }

    #[test]
    fn every_crash_point_of_a_layered_save_reopens_as_one_generation() {
        let net = network();
        assert_layered_saves_are_crash_safe(
            "crash-points-exact",
            LayeredExactOracle::from_network(&net, Window(90)),
        );
        assert_layered_saves_are_crash_safe(
            "crash-points-approx",
            LayeredApproxOracle::from_network_with_precision(&net, Window(90), 6),
        );
    }

    fn network() -> InteractionNetwork {
        InteractionNetwork::from_triples((0..500u32).map(|i| (i % 40, (i * 13 + 1) % 40, i as i64)))
    }

    #[test]
    fn oracle_roundtrip_preserves_queries() {
        let net = network();
        let irs = ApproxIrs::compute_with_precision(&net, Window(100), 7);
        let oracle = irs.oracle();
        let mut bytes = Vec::new();
        oracle.write_to(&mut bytes).unwrap();
        let back = ApproxOracle::read_from(&mut bytes.as_slice()).unwrap();
        use crate::oracle::InfluenceOracle;
        let seeds: Vec<NodeId> = (0..10).map(NodeId).collect();
        assert_eq!(oracle.influence(&seeds), back.influence(&seeds));
        for u in net.node_ids() {
            assert_eq!(oracle.individual(u), back.individual(u));
        }
    }

    #[test]
    fn irs_roundtrip_preserves_everything() {
        let net = network();
        let irs = ApproxIrs::compute_with_precision(&net, Window(250), 6);
        let mut bytes = Vec::new();
        irs.write_to(&mut bytes).unwrap();
        let back = ApproxIrs::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(back.window(), irs.window());
        assert_eq!(back.precision(), irs.precision());
        assert_eq!(back.num_nodes(), irs.num_nodes());
        for u in net.node_ids() {
            assert_eq!(back.sketch(u), irs.sketch(u));
        }
    }

    #[test]
    fn empty_oracle_roundtrips() {
        let oracle = ApproxOracle::from_sketches(Vec::new());
        let mut bytes = Vec::new();
        oracle.write_to(&mut bytes).unwrap();
        let back = ApproxOracle::read_from(&mut bytes.as_slice()).unwrap();
        use crate::oracle::InfluenceOracle;
        assert_eq!(back.num_nodes(), 0);
    }

    #[test]
    fn empty_oracle_keeps_its_header_precision() {
        let mut header = ORACLE_MAGIC.to_vec();
        header.extend_from_slice(&[FORMAT_VERSION, 12]);
        header.extend_from_slice(&0u32.to_le_bytes());
        let back = ApproxOracle::read_from(&mut header.as_slice()).unwrap();
        assert_eq!(back.precision_value(), 12);
        assert_eq!(back.freeze().precision(), 12);
        let mut again = Vec::new();
        back.write_to(&mut again).unwrap();
        assert_eq!(again, header);
    }

    #[test]
    fn cross_format_magic_rejected() {
        let net = network();
        let irs = ApproxIrs::compute_with_precision(&net, Window(10), 5);
        let mut bytes = Vec::new();
        irs.write_to(&mut bytes).unwrap();
        // Reading an IRS file as an oracle fails on magic.
        assert!(matches!(
            ApproxOracle::read_from(&mut bytes.as_slice()),
            Err(CodecError::BadMagic)
        ));
    }

    #[test]
    fn exact_irs_roundtrip() {
        let net = network();
        let irs = ExactIrs::compute(&net, Window(300));
        let mut bytes = Vec::new();
        irs.write_to(&mut bytes).unwrap();
        let back = ExactIrs::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(back.window(), irs.window());
        assert_eq!(back.num_nodes(), irs.num_nodes());
        for u in net.node_ids() {
            assert_eq!(back.irs_sorted(u), irs.irs_sorted(u));
            for v in net.node_ids() {
                assert_eq!(back.lambda(u, v), irs.lambda(u, v));
            }
        }
        // Byte-deterministic output.
        let mut again = Vec::new();
        irs.write_to(&mut again).unwrap();
        assert_eq!(bytes, again);
    }

    #[test]
    fn exact_irs_corrupt_entry_rejected() {
        let net = network();
        let irs = ExactIrs::compute(&net, Window(50));
        let mut bytes = Vec::new();
        irs.write_to(&mut bytes).unwrap();
        // Clobber the node-count field to a smaller universe: summary
        // entries then point outside it.
        bytes[13] = 1;
        bytes[14] = 0;
        bytes[15] = 0;
        bytes[16] = 0;
        assert!(ExactIrs::read_from(&mut bytes.as_slice()).is_err());
    }

    #[test]
    fn frozen_exact_roundtrip_preserves_queries() {
        let net = network();
        let irs = ExactIrs::compute(&net, Window(300));
        let frozen = irs.freeze();
        let mut bytes = Vec::new();
        frozen.write_to(&mut bytes).unwrap();
        let back = FrozenExactOracle::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(back, frozen);
        let seeds: Vec<NodeId> = (0..10).map(NodeId).collect();
        assert_eq!(
            frozen.influence(&seeds).to_bits(),
            back.influence(&seeds).to_bits()
        );
        for u in net.node_ids() {
            assert_eq!(frozen.individual(u).to_bits(), back.individual(u).to_bits());
        }
        // Byte-deterministic output.
        let mut again = Vec::new();
        frozen.write_to(&mut again).unwrap();
        assert_eq!(bytes, again);
    }

    #[test]
    fn frozen_approx_roundtrip_preserves_queries() {
        let net = network();
        let irs = ApproxIrs::compute_with_precision(&net, Window(100), 7);
        let frozen = irs.freeze();
        let mut bytes = Vec::new();
        frozen.write_to(&mut bytes).unwrap();
        let back = FrozenApproxOracle::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(back, frozen);
        let seeds: Vec<NodeId> = (0..10).map(NodeId).collect();
        assert_eq!(
            frozen.influence(&seeds).to_bits(),
            back.influence(&seeds).to_bits()
        );
        for u in net.node_ids() {
            assert_eq!(frozen.individual(u).to_bits(), back.individual(u).to_bits());
        }
    }

    /// The dense `n · β` registers of `frozen`, node-major — the register
    /// section of the retired IPFA v1–v3 layouts.
    fn dense_registers(frozen: &FrozenApproxOracle) -> Vec<u8> {
        let beta = 1usize << frozen.precision();
        (0..frozen.num_nodes())
            .flat_map(|u| frozen.row(NodeId::from_index(u)).to_registers(beta))
            .collect()
    }

    #[test]
    fn frozen_approx_v1_file_rejected() {
        let irs = ApproxIrs::compute_with_precision(&network(), Window(100), 7);
        let frozen = irs.freeze();
        // A layout-version-1 file: header with version byte 1, then the
        // node-major registers. Nothing writes it any more.
        let mut v1 = Vec::new();
        v1.extend_from_slice(b"IPFA");
        v1.extend_from_slice(&[1, frozen.precision()]);
        v1.extend_from_slice(&u32::try_from(frozen.num_nodes()).unwrap().to_le_bytes());
        v1.extend_from_slice(&dense_registers(&frozen));
        assert!(matches!(
            FrozenApproxOracle::read_from(&mut v1.as_slice()),
            Err(CodecError::BadVersion(1))
        ));
    }

    #[test]
    fn frozen_approx_v2_file_rejected() {
        let irs = ApproxIrs::compute_with_precision(&network(), Window(100), 7);
        let frozen = irs.freeze();
        // A layout-version-2 file: node-major then tile-major registers.
        let registers = dense_registers(&frozen);
        let mut v2 = Vec::new();
        v2.extend_from_slice(b"IPFA");
        v2.extend_from_slice(&[2, frozen.precision()]);
        v2.extend_from_slice(&u32::try_from(frozen.num_nodes()).unwrap().to_le_bytes());
        v2.extend_from_slice(&registers);
        v2.extend_from_slice(&registers);
        assert!(matches!(
            FrozenApproxOracle::read_from(&mut v2.as_slice()),
            Err(CodecError::BadVersion(2))
        ));
    }

    #[test]
    fn frozen_exact_v1_file_rejected() {
        let frozen = ExactIrs::compute(&network(), Window(300)).freeze();
        // A layout-version-1 file: offsets and entries packed directly
        // after the header. Nothing writes it any more.
        let mut v1 = Vec::new();
        v1.extend_from_slice(b"IPFE");
        v1.push(1);
        v1.extend_from_slice(&frozen.window().get().to_le_bytes());
        v1.extend_from_slice(&u32::try_from(frozen.num_nodes()).unwrap().to_le_bytes());
        v1.extend_from_slice(&u64::try_from(frozen.total_entries()).unwrap().to_le_bytes());
        for o in frozen.offsets() {
            v1.extend_from_slice(&o.to_le_bytes());
        }
        for (v, t) in frozen.entries() {
            v1.extend_from_slice(&v.0.to_le_bytes());
            v1.extend_from_slice(&t.get().to_le_bytes());
        }
        assert!(matches!(
            FrozenExactOracle::read_from(&mut v1.as_slice()),
            Err(CodecError::BadVersion(1))
        ));
    }

    #[test]
    fn frozen_approx_truncated_image_rejected() {
        let irs = ApproxIrs::compute_with_precision(&network(), Window(100), 7);
        let frozen = irs.freeze();
        let mut bytes = Vec::new();
        frozen.write_to(&mut bytes).unwrap();
        // Chop half of the estimate section: the header promises the full
        // aligned section layout, so the length check must fail the load.
        bytes.truncate(bytes.len() - frozen.num_nodes() * 4);
        assert!(matches!(
            FrozenApproxOracle::read_from(&mut bytes.as_slice()),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn frozen_approx_mismatched_estimate_fails_validate() {
        let irs = ApproxIrs::compute_with_precision(&network(), Window(100), 7);
        let frozen = irs.freeze();
        let mut bytes = Vec::new();
        frozen.write_to(&mut bytes).unwrap();
        // Flip a bit of the first stored estimate. The load accepts the
        // image — every row is well-formed — and the explicit deep check,
        // which every untrusted-file path makes, catches the disagreement
        // with the row.
        let at = layout::approx_sections(frozen.num_nodes(), frozen.total_registers());
        bytes[at.individuals] ^= 1;
        let back = FrozenApproxOracle::read_from(&mut bytes.as_slice()).unwrap();
        assert!(back.validate().is_err());
    }

    #[test]
    fn frozen_approx_future_layout_version_rejected() {
        let irs = ApproxIrs::compute_with_precision(&network(), Window(100), 7);
        let frozen = irs.freeze();
        let mut bytes = Vec::new();
        frozen.write_to(&mut bytes).unwrap();
        bytes[4] = 5; // one past FROZEN_APPROX_LAYOUT_VERSION
        assert!(matches!(
            FrozenApproxOracle::read_from(&mut bytes.as_slice()),
            Err(CodecError::FutureVersion(5))
        ));
        // Below the current layout: the retired dense layouts and a version
        // no build ever wrote.
        for old in [0u8, 3] {
            bytes[4] = old;
            assert!(matches!(
                FrozenApproxOracle::read_from(&mut bytes.as_slice()),
                Err(CodecError::BadVersion(v)) if v == old
            ));
        }
    }

    #[test]
    fn frozen_future_version_rejected() {
        let frozen = ExactIrs::compute(&network(), Window(50)).freeze();
        let mut bytes = Vec::new();
        frozen.write_to(&mut bytes).unwrap();
        bytes[4] = 99; // the version byte follows the 4-byte magic
                       // Newer-than-this-build is FutureVersion ("upgrade the binary"),
                       // not corruption.
        assert!(matches!(
            FrozenExactOracle::read_from(&mut bytes.as_slice()),
            Err(CodecError::FutureVersion(99))
        ));
    }

    #[test]
    fn frozen_unknown_old_version_rejected() {
        let frozen = ExactIrs::compute(&network(), Window(50)).freeze();
        let mut bytes = Vec::new();
        frozen.write_to(&mut bytes).unwrap();
        bytes[4] = 0; // below the oldest version this build ever wrote
        assert!(matches!(
            FrozenExactOracle::read_from(&mut bytes.as_slice()),
            Err(CodecError::BadVersion(0))
        ));
    }

    #[test]
    fn frozen_cross_format_magic_rejected() {
        let frozen = ExactIrs::compute(&network(), Window(50)).freeze();
        let mut bytes = Vec::new();
        frozen.write_to(&mut bytes).unwrap();
        assert!(matches!(
            FrozenApproxOracle::read_from(&mut bytes.as_slice()),
            Err(CodecError::BadMagic)
        ));
    }

    #[test]
    fn frozen_exact_corrupt_offsets_rejected() {
        let frozen = ExactIrs::compute(&network(), Window(50)).freeze();
        let mut bytes = Vec::new();
        frozen.write_to(&mut bytes).unwrap();
        // The offset section starts at the first 64-byte boundary after
        // the 25-byte header; offsets[0] must be zero.
        let (offsets_at, _, _) = layout::exact_sections(frozen.num_nodes(), frozen.total_entries());
        bytes[offsets_at] = 1;
        assert!(matches!(
            FrozenExactOracle::read_from(&mut bytes.as_slice()),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn frozen_approx_corrupt_rows_rejected() {
        let irs = ApproxIrs::compute_with_precision(&network(), Window(100), 7);
        let frozen = irs.freeze();
        let mut bytes = Vec::new();
        frozen.write_to(&mut bytes).unwrap();
        let at = layout::approx_sections(frozen.num_nodes(), frozen.total_registers());
        assert!(frozen.row(NodeId(0)).len() >= 2);
        // Max ρ for k = 7 is 58: the load rejects the row outright, since
        // a query would index past the estimator's table.
        let mut bad = bytes.clone();
        bad[at.rhos] = 63;
        assert!(matches!(
            FrozenApproxOracle::read_from(&mut bad.as_slice()),
            Err(CodecError::Corrupt(_))
        ));
        // An index at β = 128, past the row's registers.
        let mut bad = bytes.clone();
        bad[at.indices..at.indices + 2].copy_from_slice(&128u16.to_le_bytes());
        assert!(matches!(
            FrozenApproxOracle::read_from(&mut bad.as_slice()),
            Err(CodecError::Corrupt(_))
        ));
        // Node 0's first index repeated: not strictly increasing.
        let mut bad = bytes.clone();
        bad.copy_within(at.indices..at.indices + 2, at.indices + 2);
        assert!(matches!(
            FrozenApproxOracle::read_from(&mut bad.as_slice()),
            Err(CodecError::Corrupt(_))
        ));
        // An offset past the next one.
        let mut bad = bytes;
        bad[at.offsets + 4..at.offsets + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            FrozenApproxOracle::read_from(&mut bad.as_slice()),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn frozen_load_from_path_matches_read_from() {
        let dir = tempdir("load-path");
        let net = network();

        let exact = ExactIrs::compute(&net, Window(300)).freeze();
        let mut bytes = Vec::new();
        exact.write_to(&mut bytes).unwrap();
        let exact_path = dir.join("exact.arena");
        fs::write(&exact_path, &bytes).unwrap();
        let loaded = FrozenExactOracle::load(&exact_path).unwrap();
        assert_eq!(loaded, exact);
        loaded.validate().unwrap();

        let approx = ApproxIrs::compute_with_precision(&net, Window(100), 7).freeze();
        bytes.clear();
        approx.write_to(&mut bytes).unwrap();
        let approx_path = dir.join("approx.arena");
        fs::write(&approx_path, &bytes).unwrap();
        let loaded = FrozenApproxOracle::load(&approx_path).unwrap();
        assert_eq!(loaded, approx);
        loaded.validate().unwrap();

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_frozen_rejected() {
        let frozen = ExactIrs::compute(&network(), Window(50)).freeze();
        let mut bytes = Vec::new();
        frozen.write_to(&mut bytes).unwrap();
        bytes.truncate(bytes.len() / 2);
        assert!(FrozenExactOracle::read_from(&mut bytes.as_slice()).is_err());
    }

    #[test]
    fn truncated_irs_rejected() {
        let net = network();
        let irs = ApproxIrs::compute_with_precision(&net, Window(10), 5);
        let mut bytes = Vec::new();
        irs.write_to(&mut bytes).unwrap();
        bytes.truncate(bytes.len() / 2);
        assert!(ApproxIrs::read_from(&mut bytes.as_slice()).is_err());
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("infprop-persist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn layered_exact_dir_roundtrip_preserves_queries() {
        let net = network();
        let mut oracle = LayeredExactOracle::from_network(&net, Window(120));
        let t = oracle.frontier().unwrap().get();
        oracle.append(Interaction::from_raw(1, 2, t + 5)).unwrap();
        let dir = tempdir("exact-roundtrip");
        // Saved while stale: the pending log carries the append.
        oracle.save_layered(&dir).unwrap();
        let back = LayeredExactOracle::open_layered(&dir).unwrap();
        assert_eq!(back.generation(), oracle.generation());
        assert_eq!(back.delta().pending(), oracle.delta().pending());
        assert_eq!(back.delta().tail(), oracle.delta().tail());
        assert_eq!(back.delta().base_frontier(), oracle.delta().base_frontier());
        oracle.refresh();
        for u in net.node_ids() {
            assert_eq!(back.summary(u), oracle.summary(u));
        }
        let seeds: Vec<NodeId> = (0..10).map(NodeId).collect();
        assert_eq!(
            back.influence(&seeds).to_bits(),
            oracle.influence(&seeds).to_bits()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn layered_approx_dir_roundtrip_preserves_registers() {
        let net = network();
        let mut oracle = LayeredApproxOracle::from_network_with_precision(&net, Window(120), 6);
        let t = oracle.frontier().unwrap().get();
        oracle.append(Interaction::from_raw(3, 4, t + 1)).unwrap();
        oracle.refresh();
        let dir = tempdir("approx-roundtrip");
        oracle.save_layered(&dir).unwrap();
        let back = LayeredApproxOracle::open_layered(&dir).unwrap();
        assert_eq!(back.generation(), oracle.generation());
        assert_eq!(back.window(), oracle.window());
        assert_eq!(back.base().image(), oracle.base().image());
        assert_eq!(back.overlay().image(), oracle.overlay().image());
        for u in net.node_ids() {
            assert_eq!(back.individual(u).to_bits(), oracle.individual(u).to_bits());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn layered_manifest_roundtrip_and_kind_mismatch() {
        let manifest = LayeredManifest {
            kind: LayeredKind::Approx,
            base_frontier: Some(Timestamp(-7)),
            generation: 3,
            window: Window(42),
        };
        let mut bytes = Vec::new();
        manifest.write_to(&mut bytes).unwrap();
        assert_eq!(
            LayeredManifest::read_from(&mut bytes.as_slice()).unwrap(),
            manifest
        );

        let net = network();
        let oracle = LayeredExactOracle::from_network(&net, Window(60));
        let dir = tempdir("kind-mismatch");
        oracle.save_layered(&dir).unwrap();
        assert_eq!(
            LayeredManifest::read_from_dir(&dir).unwrap().kind,
            LayeredKind::Exact
        );
        assert!(matches!(
            LayeredApproxOracle::open_layered(&dir),
            Err(CodecError::Corrupt(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_pending_is_durable_without_full_save() {
        let net = network();
        let mut oracle = LayeredExactOracle::from_network(&net, Window(90));
        let dir = tempdir("pending-only");
        oracle.save_layered(&dir).unwrap();
        let t = oracle.frontier().unwrap().get();
        oracle.append(Interaction::from_raw(5, 6, t + 2)).unwrap();
        oracle.persist_pending(&dir).unwrap();
        let back = LayeredExactOracle::open_layered(&dir).unwrap();
        assert_eq!(back.delta().pending(), oracle.delta().pending());
        assert!(!back.is_stale());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_compaction_leaves_previous_generation_loadable() {
        let net = network();
        let mut oracle = LayeredExactOracle::from_network(&net, Window(90));
        let t = oracle.frontier().unwrap().get();
        oracle.append(Interaction::from_raw(7, 8, t + 3)).unwrap();
        oracle.refresh();
        let dir = tempdir("crash-safety");
        oracle.save_layered(&dir).unwrap();

        // Simulate a compaction that crashed after writing the next
        // generation's arena but before the manifest commit: a partial
        // (truncated) gen-1 arena plus an orphaned tmp file.
        let mut compacted = oracle.clone();
        compacted.compact();
        let mut arena = Vec::new();
        compacted.base().write_to(&mut arena).unwrap();
        arena.truncate(arena.len() / 2);
        fs::write(gen_file(&dir, 1, "arena"), &arena).unwrap();
        fs::write(dir.join("gen-1.tail.tmp"), b"junk").unwrap();

        // The manifest still names generation 0, whose files are intact.
        let back = LayeredExactOracle::open_layered(&dir).unwrap();
        assert_eq!(back.generation(), 0);
        let seeds: Vec<NodeId> = (0..10).map(NodeId).collect();
        assert_eq!(
            back.influence(&seeds).to_bits(),
            oracle.influence(&seeds).to_bits()
        );

        // Completing the compaction commits generation 1 and sweeps the
        // stale generation-0 files and tmp leftovers.
        compacted.save_layered(&dir).unwrap();
        let back = LayeredExactOracle::open_layered(&dir).unwrap();
        assert_eq!(back.generation(), 1);
        assert!(!gen_file(&dir, 0, "arena").exists());
        assert!(!dir.join("gen-1.tail.tmp").exists());
        assert_eq!(
            back.influence(&seeds).to_bits(),
            compacted.influence(&seeds).to_bits()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interaction_log_truncation_and_future_version_rejected() {
        let ints: Vec<Interaction> = (0..10)
            .map(|i| Interaction::from_raw(i, i + 1, i64::from(i)))
            .collect();
        let mut bytes = Vec::new();
        write_interaction_log(&mut bytes, &ints).unwrap();
        assert_eq!(read_interaction_log(&bytes).unwrap(), ints);
        let mut truncated = bytes.clone();
        truncated.truncate(bytes.len() - 8);
        assert!(read_interaction_log(&truncated).is_err());
        let mut future = bytes.clone();
        future[4] = 99; // version byte
        assert!(matches!(
            read_interaction_log(&future),
            Err(CodecError::FutureVersion(99))
        ));
        // Unsorted logs are corruption, not silently accepted.
        let mut unsorted = ints.clone();
        unsorted.swap(0, 9);
        let mut bytes = Vec::new();
        write_interaction_log(&mut bytes, &unsorted).unwrap();
        assert!(matches!(
            read_interaction_log(&bytes),
            Err(CodecError::Corrupt(_))
        ));
    }

    /// The IPFA v4 bytes of the test network's arena at precision 7.
    fn approx_image() -> (FrozenApproxOracle, Vec<u8>) {
        let frozen = ApproxIrs::compute_with_precision(&network(), Window(100), 7).freeze();
        let mut bytes = Vec::new();
        frozen.write_to(&mut bytes).unwrap();
        (frozen, bytes)
    }

    /// The IPFE v2 bytes of the test network's arena.
    fn exact_image() -> (FrozenExactOracle, Vec<u8>) {
        let frozen = ExactIrs::compute(&network(), Window(50)).freeze();
        let mut bytes = Vec::new();
        frozen.write_to(&mut bytes).unwrap();
        (frozen, bytes)
    }

    fn read_approx(bytes: &[u8]) -> Result<FrozenApproxOracle, CodecError> {
        FrozenApproxOracle::read_from(&mut &bytes[..])
    }

    fn read_exact_arena(bytes: &[u8]) -> Result<FrozenExactOracle, CodecError> {
        FrozenExactOracle::read_from(&mut &bytes[..])
    }

    #[test]
    fn layout_version_check_accepts_only_the_current_version() {
        assert!(check_layout_version(4, 4).is_ok());
        assert!(matches!(
            check_layout_version(5, 4),
            Err(CodecError::FutureVersion(5))
        ));
        assert!(matches!(
            check_layout_version(255, 4),
            Err(CodecError::FutureVersion(255))
        ));
        assert!(matches!(
            check_layout_version(3, 4),
            Err(CodecError::BadVersion(3))
        ));
        assert!(matches!(
            check_layout_version(0, 2),
            Err(CodecError::BadVersion(0))
        ));
        assert_eq!(FROZEN_APPROX_LAYOUT_VERSION, 4);
    }

    #[test]
    fn frozen_approx_precision_out_of_range_rejected() {
        let (_, bytes) = approx_image();
        for precision in [0u8, 3, 17, 255] {
            let mut bad = bytes.clone();
            bad[5] = precision;
            assert!(
                matches!(
                    read_approx(&bad),
                    Err(CodecError::Corrupt("precision out of range"))
                ),
                "precision {precision}"
            );
        }
    }

    #[test]
    fn frozen_approx_pair_count_past_u32_rejected() {
        let (_, mut bytes) = approx_image();
        bytes[10..18].copy_from_slice(&(u64::from(u32::MAX) + 1).to_le_bytes());
        assert!(matches!(
            read_approx(&bytes),
            Err(CodecError::Corrupt("register count exceeds arena limit"))
        ));
    }

    #[test]
    fn frozen_approx_trailing_bytes_rejected() {
        let (_, mut bytes) = approx_image();
        bytes.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            read_approx(&bytes),
            Err(CodecError::Corrupt(
                "arena length disagrees with its header"
            ))
        ));
    }

    #[test]
    fn frozen_approx_offsets_must_frame_the_pairs() {
        let (frozen, bytes) = approx_image();
        let n = frozen.num_nodes();
        let at = layout::approx_sections(n, frozen.total_registers());
        // offsets[0] must be zero ...
        let mut bad = bytes.clone();
        bad[at.offsets..at.offsets + 4].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            read_approx(&bad),
            Err(CodecError::Corrupt("offsets do not frame the registers"))
        ));
        // ... and offsets[n] the pair count from the header.
        let last = at.offsets + 4 * n;
        let total = u32::try_from(frozen.total_registers()).unwrap();
        let mut bad = bytes;
        bad[last..last + 4].copy_from_slice(&(total - 1).to_le_bytes());
        assert!(matches!(
            read_approx(&bad),
            Err(CodecError::Corrupt("offsets do not frame the registers"))
        ));
    }

    #[test]
    fn frozen_approx_decreasing_offsets_rejected() {
        let (frozen, bytes) = approx_image();
        let at = layout::approx_sections(frozen.num_nodes(), frozen.total_registers());
        // Node 1 ends before it starts: offsets[2] < offsets[1], while the
        // first and last offsets still frame the pairs.
        let first = get_u32(&bytes, at.offsets + 4);
        assert!(first > 0, "node 0 stores registers");
        let mut bad = bytes;
        bad[at.offsets + 8..at.offsets + 12].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_approx(&bad),
            Err(CodecError::Corrupt("offsets not monotone"))
        ));
    }

    #[test]
    fn frozen_approx_zero_rho_rejected_on_load() {
        let (frozen, mut bytes) = approx_image();
        let at = layout::approx_sections(frozen.num_nodes(), frozen.total_registers());
        bytes[at.rhos] = 0;
        assert!(matches!(
            read_approx(&bytes),
            Err(CodecError::Corrupt("register ρ out of range"))
        ));
    }

    #[test]
    fn frozen_approx_largest_rho_loads() {
        // ρ = 64 − k + 1 is the saturated register of an all-zero hash
        // suffix: the largest value a sketch can hold, so it must load.
        for k in [4u8, 9, 16] {
            let mut regs = vec![0u8; 1 << k];
            regs[1] = 64 - k + 1;
            let frozen =
                FrozenApproxOracle::from_collapsed(k, &[HyperLogLog::from_registers(regs)]);
            let mut bytes = Vec::new();
            frozen.write_to(&mut bytes).unwrap();
            let back = read_approx(&bytes).unwrap();
            back.validate().unwrap();
            assert_eq!(back, frozen);
            let at = layout::approx_sections(1, 1);
            bytes[at.rhos] = 64 - k + 2;
            assert!(
                matches!(
                    read_approx(&bytes),
                    Err(CodecError::Corrupt("register ρ out of range"))
                ),
                "k={k}"
            );
        }
    }

    #[test]
    fn frozen_approx_roundtrips_at_every_precision() {
        for k in 4u8..=16 {
            // Node u's sketch holds items 0 .. 3u: an empty row, sparse
            // rows, and at k = 4 rows with every register set.
            let sketches: Vec<HyperLogLog> = (0..6u64)
                .map(|u| {
                    let mut s = HyperLogLog::new(k);
                    (0..3 * u * u).for_each(|x| s.add_u64(x));
                    s
                })
                .collect();
            let frozen = FrozenApproxOracle::from_collapsed(k, &sketches);
            let mut bytes = Vec::new();
            frozen.write_to(&mut bytes).unwrap();
            assert_eq!(bytes.len(), frozen.image().len());
            let back = read_approx(&bytes).unwrap();
            back.validate().unwrap();
            assert_eq!(back, frozen, "k={k}");
        }
    }

    #[test]
    fn frozen_approx_empty_and_all_zero_arenas_roundtrip() {
        for frozen in [
            FrozenApproxOracle::from_vhll(9, &[]),
            FrozenApproxOracle::from_collapsed(6, &[HyperLogLog::new(6), HyperLogLog::new(6)]),
        ] {
            let mut bytes = Vec::new();
            frozen.write_to(&mut bytes).unwrap();
            let back = read_approx(&bytes).unwrap();
            back.validate().unwrap();
            assert_eq!(back, frozen);
            assert_eq!(
                back.influence(&[]).to_bits(),
                frozen.influence(&[]).to_bits()
            );
        }
    }

    #[test]
    fn frozen_approx_load_of_missing_file_is_io_error() {
        let dir = tempdir("missing-arena");
        assert!(matches!(
            FrozenApproxOracle::load(&dir.join("absent.arena")),
            Err(CodecError::Io(_))
        ));
        assert!(matches!(
            FrozenExactOracle::load(&dir.join("absent.arena")),
            Err(CodecError::Io(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn frozen_exact_window_must_be_positive() {
        let (_, bytes) = exact_image();
        for window in [0i64, -3] {
            let mut bad = bytes.clone();
            bad[5..13].copy_from_slice(&window.to_le_bytes());
            assert!(
                matches!(
                    read_exact_arena(&bad),
                    Err(CodecError::Corrupt("window must be positive"))
                ),
                "window {window}"
            );
        }
    }

    #[test]
    fn frozen_exact_entry_count_past_u32_rejected() {
        let (_, mut bytes) = exact_image();
        bytes[17..25].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            read_exact_arena(&bytes),
            Err(CodecError::Corrupt("entry count exceeds arena limit"))
        ));
    }

    #[test]
    fn frozen_exact_trailing_bytes_rejected() {
        let (_, mut bytes) = exact_image();
        bytes.push(0);
        assert!(matches!(
            read_exact_arena(&bytes),
            Err(CodecError::Corrupt(
                "arena length disagrees with its header"
            ))
        ));
    }

    #[test]
    fn frozen_exact_offsets_must_end_at_the_entry_count() {
        let (frozen, mut bytes) = exact_image();
        let n = frozen.num_nodes();
        let (offsets_at, _, _) = layout::exact_sections(n, frozen.total_entries());
        let last = offsets_at + 4 * n;
        bytes[last..last + 4].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_exact_arena(&bytes),
            Err(CodecError::Corrupt("offsets do not frame the entries"))
        ));
    }

    #[test]
    fn approx_oracle_rejects_bad_precision_and_registers() {
        let oracle = ApproxIrs::compute_with_precision(&network(), Window(100), 5).oracle();
        let mut bytes = Vec::new();
        oracle.write_to(&mut bytes).unwrap();
        // Header: magic, version, precision, then the u32 node count.
        let mut bad = bytes.clone();
        bad[5] = 17;
        assert!(matches!(
            ApproxOracle::read_from(&mut bad.as_slice()),
            Err(CodecError::Corrupt("precision out of range"))
        ));
        // Max ρ for k = 5 is 60.
        let mut bad = bytes;
        bad[10] = 61;
        assert!(matches!(
            ApproxOracle::read_from(&mut bad.as_slice()),
            Err(CodecError::Corrupt("register exceeds maximal rho"))
        ));
    }

    #[test]
    fn manifest_rejects_unknown_kind_flag_and_window() {
        let manifest = LayeredManifest {
            kind: LayeredKind::Exact,
            base_frontier: None,
            generation: 0,
            window: Window(5),
        };
        let mut bytes = Vec::new();
        manifest.write_to(&mut bytes).unwrap();
        assert_eq!(
            LayeredManifest::read_from(&mut bytes.as_slice()).unwrap(),
            manifest
        );
        // Layout: magic (4), version, kind, frontier flag, frontier i64,
        // generation u64, window i64.
        let mut bad = bytes.clone();
        bad[5] = 2;
        assert!(matches!(
            LayeredManifest::read_from(&mut bad.as_slice()),
            Err(CodecError::Corrupt("unknown layered oracle kind"))
        ));
        let mut bad = bytes.clone();
        bad[6] = 2;
        assert!(matches!(
            LayeredManifest::read_from(&mut bad.as_slice()),
            Err(CodecError::Corrupt("manifest frontier flag must be 0 or 1"))
        ));
        let mut bad = bytes.clone();
        bad[23..31].copy_from_slice(&0i64.to_le_bytes());
        assert!(matches!(
            LayeredManifest::read_from(&mut bad.as_slice()),
            Err(CodecError::Corrupt("window must be positive"))
        ));
        let mut bad = bytes;
        bad[..4].copy_from_slice(b"IPFA");
        assert!(matches!(
            LayeredManifest::read_from(&mut bad.as_slice()),
            Err(CodecError::BadMagic)
        ));
    }

    #[test]
    fn layered_approx_open_rejects_a_corrupt_base_arena() {
        let net = network();
        let oracle = LayeredApproxOracle::from_network_with_precision(&net, Window(120), 6);
        let dir = tempdir("approx-corrupt-base");
        oracle.save_layered(&dir).unwrap();
        let arena = gen_file(&dir, 0, "arena");
        let good = fs::read(&arena).unwrap();
        // A flipped stored estimate loads structurally; the deep check the
        // directory reader makes rejects it.
        let base = oracle.base();
        let at = layout::approx_sections(base.num_nodes(), base.total_registers());
        let mut bad = good.clone();
        bad[at.individuals + 8] ^= 1;
        fs::write(&arena, &bad).unwrap();
        assert!(matches!(
            LayeredApproxOracle::open_layered(&dir),
            Err(CodecError::Corrupt(
                "frozen register arena violates its invariants"
            ))
        ));
        // A retired dense layout is reported by its version.
        let mut old = good;
        old[4] = 3;
        fs::write(&arena, &old).unwrap();
        assert!(matches!(
            LayeredApproxOracle::open_layered(&dir),
            Err(CodecError::BadVersion(3))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn layered_approx_pending_is_durable_without_full_save() {
        let net = network();
        let mut oracle = LayeredApproxOracle::from_network_with_precision(&net, Window(90), 6);
        let dir = tempdir("approx-pending-only");
        oracle.save_layered(&dir).unwrap();
        let t = oracle.frontier().unwrap().get();
        oracle.append(Interaction::from_raw(5, 6, t + 2)).unwrap();
        oracle.append(Interaction::from_raw(6, 41, t + 3)).unwrap();
        oracle.persist_pending(&dir).unwrap();
        let back = LayeredApproxOracle::open_layered(&dir).unwrap();
        assert_eq!(back.delta().pending(), oracle.delta().pending());
        assert!(!back.is_stale());
        oracle.refresh();
        assert_eq!(back.overlay().image(), oracle.overlay().image());
        assert_eq!(
            back.influence(&[NodeId(5)]).to_bits(),
            oracle.influence(&[NodeId(5)]).to_bits()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn layered_approx_compacted_generation_roundtrips() {
        let net = network();
        let mut oracle = LayeredApproxOracle::from_network_with_precision(&net, Window(90), 6);
        let dir = tempdir("approx-compacted");
        oracle.save_layered(&dir).unwrap();
        let t = oracle.frontier().unwrap().get();
        oracle.append(Interaction::from_raw(2, 9, t + 1)).unwrap();
        oracle.compact();
        oracle.save_layered(&dir).unwrap();
        assert!(!gen_file(&dir, 0, "arena").exists());
        let back = LayeredApproxOracle::open_layered(&dir).unwrap();
        assert_eq!(back.generation(), 1);
        assert_eq!(back.base().image(), oracle.base().image());
        assert_eq!(back.frontier(), oracle.frontier());
        let seeds: Vec<NodeId> = (0..10).map(NodeId).collect();
        assert_eq!(
            back.influence(&seeds).to_bits(),
            oracle.influence(&seeds).to_bits()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn layered_open_rejects_pending_before_the_tail_ends() {
        let net = network();
        let oracle = LayeredExactOracle::from_network(&net, Window(90));
        let dir = tempdir("pending-behind-tail");
        oracle.save_layered(&dir).unwrap();
        let tail_end = oracle.delta().tail().last().unwrap().time.get();
        let mut bytes = Vec::new();
        write_interaction_log(&mut bytes, &[Interaction::from_raw(1, 2, tail_end - 1)]).unwrap();
        fs::write(gen_file(&dir, 0, "pending"), &bytes).unwrap();
        assert!(matches!(
            LayeredExactOracle::open_layered(&dir),
            Err(CodecError::Corrupt(
                "pending log starts before the tail ends"
            ))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn layered_exact_open_rejects_a_window_mismatch() {
        let net = network();
        let oracle = LayeredExactOracle::from_network(&net, Window(90));
        let dir = tempdir("window-mismatch");
        oracle.save_layered(&dir).unwrap();
        let mut manifest = LayeredManifest::read_from_dir(&dir).unwrap();
        manifest.window = Window(91);
        let mut bytes = Vec::new();
        manifest.write_to(&mut bytes).unwrap();
        fs::write(dir.join(MANIFEST_FILE), &bytes).unwrap();
        assert!(matches!(
            LayeredExactOracle::open_layered(&dir),
            Err(CodecError::Corrupt(
                "manifest window disagrees with the arena"
            ))
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}

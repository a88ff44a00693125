//! The batched oracle serving tier: a long-lived, std-only server that
//! maps one or more frozen arenas (or layered directories) and answers
//! influence queries over a length-prefixed binary protocol.
//!
//! # Protocol (version 1)
//!
//! Every message — request or response — is one **frame**: a `u32` LE
//! payload length followed by that many payload bytes. The payload grammar
//! is fixed-width little-endian throughout (serde-free by construction):
//!
//! ```text
//! request   := op:u8 body
//! op 1      := INFLUENCE  oracle:u8 sets:u32 { len:u32 node:u32{len} }{sets}
//! op 2      := TOPK       oracle:u8 k:u32
//! op 3      := SUMMARY    oracle:u8 node:u32
//! op 4      := SHUTDOWN   (empty body)
//!
//! response  := status:u8 body
//! status 0  := OK; body per op:
//!   INFLUENCE → count:u32 { bits:u64 }{count}          (f64::to_bits)
//!   TOPK      → count:u32 { node:u32 marginal:u64 cumulative:u64 }{count}
//!   SUMMARY   → individual:u64 has_entries:u8
//!               [ len:u32 { target:u32 time:i64 }{len} ]
//!   SHUTDOWN  → (empty)
//! status 1  := ERROR; body = len:u32 utf8-message
//! ```
//!
//! Influence answers travel as raw `f64::to_bits` words, so what a client
//! decodes is **bit-identical** to calling
//! [`influence_many_frozen`](crate::FrozenExactOracle::influence_many_frozen)
//! in-process — the bench client asserts exactly that before timing.
//!
//! # Batching model
//!
//! One `INFLUENCE` frame carries many seed sets; the server answers the
//! whole frame with a single `influence_many_frozen` call, which fans the
//! sets over up to `threads` workers with per-worker scratch reuse (one
//! dedup buffer + one union bitset per worker for the whole batch). Clients
//! amortize framing and syscall cost the same way the in-process batch API
//! amortizes query setup.
//!
//! # Instrumentation
//!
//! Each accepted connection bumps `serve.connections`; each decoded frame
//! bumps `serve.requests`, lands its decode-to-flush wall time in
//! `serve.request_ns`, and opens a `serve.request` trace span (payload:
//! influence queries answered). Influence frames additionally bump
//! `serve.queries` per seed set and record the batch width in
//! `serve.batch_size`.

use crate::frozen::{FrozenApproxOracle, FrozenExactOracle};
use crate::maximize::{greedy_top_k_recorded, Selection};
use crate::obs::{metric_u64, Counter, Hist, Recorder, Span};
use crate::oracle::InfluenceOracle;
use crate::persist::{LayeredKind, LayeredManifest, MANIFEST_FILE};
use crate::trace::{NoopTracer, SpanId, TraceEvent, TraceId, Tracer};
use crate::{FrozenLayer, LayeredApproxOracle, LayeredExactOracle};
use infprop_hll::CodecError;
use infprop_temporal_graph::{NodeId, Timestamp};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use std::{fs, thread};

/// Request op: batched influence queries.
pub const OP_INFLUENCE: u8 = 1;
/// Request op: greedy top-k seed selection.
pub const OP_TOPK: u8 = 2;
/// Request op: one node's individual influence (+ explicit summary
/// entries when the backing oracle keeps exact summaries).
pub const OP_SUMMARY: u8 = 3;
/// Request op: ask the server to stop accepting and drain.
pub const OP_SHUTDOWN: u8 = 4;

/// Response status: request answered.
pub const STATUS_OK: u8 = 0;
/// Response status: request rejected; body carries a message.
pub const STATUS_ERROR: u8 = 1;

/// Hard cap on a single frame's payload (64 MiB) — a malformed or hostile
/// length prefix fails fast instead of provoking a giant allocation.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Errors surfaced by the client-side protocol helpers.
#[derive(Debug)]
pub enum ServeError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The peer sent bytes that do not parse as protocol frames.
    Protocol(&'static str),
    /// The server answered with `STATUS_ERROR` and this message.
    Remote(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve i/o error: {e}"),
            ServeError::Protocol(m) => write!(f, "serve protocol error: {m}"),
            ServeError::Remote(m) => write!(f, "server rejected request: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

/// Writes one length-prefixed frame and flushes the stream.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME_LEN)
        .ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds MAX_FRAME_LEN")
        })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Bytes a frame reader allocates before any payload byte has arrived.
/// A larger frame doubles its buffer each time the bytes so far have
/// arrived, so a length prefix alone (up to [`MAX_FRAME_LEN`]) cannot make
/// the reader allocate more than this plus twice what the peer sent.
const FRAME_PREALLOC: usize = 64 << 10;

/// Reads one length-prefixed frame. Returns `Ok(None)` on a clean EOF at a
/// frame boundary (the peer closed between frames); EOF mid-frame is an
/// error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    read_frame_retrying(r, |_| false)
}

/// [`read_frame`], also retrying a read that fails with a kind `retry`
/// accepts once the frame's first byte has arrived; before that the error
/// is returned, so a reader with a timeout can tell "no frame yet" apart.
/// `Interrupted` is always retried.
fn read_frame_retrying(
    r: &mut impl Read,
    retry: impl Fn(io::ErrorKind) -> bool,
) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted || (got > 0 && retry(e.kind())) => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length exceeds MAX_FRAME_LEN",
        ));
    }
    let len = len as usize; // xtask-allow: no-lossy-cast (u32 fits usize)
    let mut payload = vec![0u8; len.min(FRAME_PREALLOC)];
    let mut at = 0;
    while at < len {
        if at == payload.len() {
            payload.resize(len.min(2 * at), 0);
        }
        match r.read(&mut payload[at..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame payload",
                ))
            }
            Ok(n) => at += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted || retry(e.kind()) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// Payload codec — bounds-checked reader + little-endian writers
// ---------------------------------------------------------------------------

/// Bounds-checked cursor over one request payload. Every getter returns a
/// protocol error instead of panicking, so a malformed frame can never
/// bring the server down.
struct ByteReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> ByteReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, at: 0 }
    }

    /// Borrows the next `n` bytes, or errors without panicking.
    // xtask-contract: alloc-free, no-panic
    fn take(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ServeError::Protocol("request truncated"))?;
        let out = self
            .buf
            .get(self.at..end)
            .ok_or(ServeError::Protocol("request truncated"))?;
        self.at = end;
        Ok(out)
    }

    // xtask-contract: alloc-free, no-panic
    fn u8(&mut self) -> Result<u8, ServeError> {
        let b = self.take(1)?;
        b.first()
            .copied()
            .ok_or(ServeError::Protocol("request truncated"))
    }

    // xtask-contract: alloc-free, no-panic
    fn u32(&mut self) -> Result<u32, ServeError> {
        let b = self.take(4)?;
        match b {
            [a, bb, c, d] => Ok(u32::from_le_bytes([*a, *bb, *c, *d])),
            _ => Err(ServeError::Protocol("request truncated")),
        }
    }

    // xtask-contract: alloc-free, no-panic
    fn u64(&mut self) -> Result<u64, ServeError> {
        let b = self.take(8)?;
        match b {
            [a, bb, c, d, e, ff, g, h] => {
                Ok(u64::from_le_bytes([*a, *bb, *c, *d, *e, *ff, *g, *h]))
            }
            _ => Err(ServeError::Protocol("request truncated")),
        }
    }

    // xtask-contract: alloc-free, no-panic
    fn i64(&mut self) -> Result<i64, ServeError> {
        self.u64().map(|v| i64::from_le_bytes(v.to_le_bytes()))
    }

    /// True iff every payload byte was consumed — trailing garbage is a
    /// protocol error, not something to ignore.
    // xtask-contract: alloc-free, no-panic
    fn finished(&self) -> bool {
        self.at == self.buf.len()
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

// ---------------------------------------------------------------------------
// Client-side request encoders / response decoders
// ---------------------------------------------------------------------------

/// Encodes an `INFLUENCE` request payload: answer `Inf(S_i)` for every
/// seed set against oracle `oracle` (index into the server's mapped list).
pub fn encode_influence(oracle: u8, seed_sets: &[Vec<NodeId>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(10 + seed_sets.iter().map(|s| 4 + 4 * s.len()).sum::<usize>());
    out.push(OP_INFLUENCE);
    out.push(oracle);
    put_u32(&mut out, metric_u64(seed_sets.len()) as u32); // xtask-allow: no-lossy-cast (guarded by MAX_FRAME_LEN framing)
    for set in seed_sets {
        put_u32(&mut out, metric_u64(set.len()) as u32); // xtask-allow: no-lossy-cast (guarded by MAX_FRAME_LEN framing)
        for &node in set {
            put_u32(&mut out, node.0);
        }
    }
    out
}

/// Encodes a `TOPK` request payload.
pub fn encode_topk(oracle: u8, k: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(6);
    out.push(OP_TOPK);
    out.push(oracle);
    put_u32(&mut out, k);
    out
}

/// Encodes a `SUMMARY` request payload.
pub fn encode_summary(oracle: u8, node: NodeId) -> Vec<u8> {
    let mut out = Vec::with_capacity(6);
    out.push(OP_SUMMARY);
    out.push(oracle);
    put_u32(&mut out, node.0);
    out
}

/// Encodes a `SHUTDOWN` request payload.
pub fn encode_shutdown() -> Vec<u8> {
    vec![OP_SHUTDOWN]
}

/// Splits a response payload into its body, or surfaces the server's error
/// message / a protocol error.
fn decode_status(payload: &[u8]) -> Result<&[u8], ServeError> {
    match payload.split_first() {
        Some((&STATUS_OK, body)) => Ok(body),
        Some((&STATUS_ERROR, body)) => {
            let mut r = ByteReader::new(body);
            let len = r.u32()? as usize; // xtask-allow: no-lossy-cast (u32 fits usize)
            let msg = r.take(len)?;
            Err(ServeError::Remote(
                String::from_utf8_lossy(msg).into_owned(),
            ))
        }
        _ => Err(ServeError::Protocol("empty or unknown response status")),
    }
}

/// Decodes an `INFLUENCE` response into the per-set answers. The `f64`s
/// are reconstructed from raw bits, so they compare bit-identical to the
/// in-process batch API.
pub fn decode_influence_response(payload: &[u8]) -> Result<Vec<f64>, ServeError> {
    let body = decode_status(payload)?;
    let mut r = ByteReader::new(body);
    let n = r.u32()? as usize; // xtask-allow: no-lossy-cast (u32 fits usize)
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(f64::from_bits(r.u64()?));
    }
    if !r.finished() {
        return Err(ServeError::Protocol("trailing bytes in influence response"));
    }
    Ok(out)
}

/// Decodes a `TOPK` response into the greedy selections.
pub fn decode_topk_response(payload: &[u8]) -> Result<Vec<Selection>, ServeError> {
    let body = decode_status(payload)?;
    let mut r = ByteReader::new(body);
    let n = r.u32()? as usize; // xtask-allow: no-lossy-cast (u32 fits usize)
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let node = NodeId(r.u32()?);
        let marginal = f64::from_bits(r.u64()?);
        let cumulative = f64::from_bits(r.u64()?);
        out.push(Selection {
            node,
            marginal,
            cumulative,
        });
    }
    if !r.finished() {
        return Err(ServeError::Protocol("trailing bytes in topk response"));
    }
    Ok(out)
}

/// One node's served summary: its individual influence, plus the explicit
/// frozen summary entries when the backing oracle keeps them (exact
/// families only — sketch-backed oracles answer `entries: None`).
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryReply {
    /// `|σω(node)|` (exact) or its sketch estimate (approx), bit-identical
    /// to the in-process [`InfluenceOracle::individual`] answer.
    pub individual: f64,
    /// The `(target, earliest end time)` entries of the node's frozen
    /// summary, when the oracle stores them explicitly.
    pub entries: Option<Vec<(NodeId, Timestamp)>>,
}

/// Decodes a `SUMMARY` response.
pub fn decode_summary_response(payload: &[u8]) -> Result<SummaryReply, ServeError> {
    let body = decode_status(payload)?;
    let mut r = ByteReader::new(body);
    let individual = f64::from_bits(r.u64()?);
    let entries = match r.u8()? {
        0 => None,
        1 => {
            let len = r.u32()? as usize; // xtask-allow: no-lossy-cast (u32 fits usize)
            let mut es = Vec::with_capacity(len);
            for _ in 0..len {
                let target = NodeId(r.u32()?);
                let time = r.i64()?;
                es.push((target, Timestamp(time)));
            }
            Some(es)
        }
        _ => return Err(ServeError::Protocol("bad has_entries flag")),
    };
    if !r.finished() {
        return Err(ServeError::Protocol("trailing bytes in summary response"));
    }
    Ok(SummaryReply {
        individual,
        entries,
    })
}

/// Checks a `SHUTDOWN` (or any body-less) response for success.
pub fn decode_ack_response(payload: &[u8]) -> Result<(), ServeError> {
    let body = decode_status(payload)?;
    if body.is_empty() {
        Ok(())
    } else {
        Err(ServeError::Protocol("trailing bytes in ack response"))
    }
}

// ---------------------------------------------------------------------------
// ServedOracle — the mapped oracles a server answers from
// ---------------------------------------------------------------------------

/// One mapped oracle a server instance answers queries from: a frozen
/// arena file loaded zero-copy through
/// [`ArenaBytes`](crate::ArenaBytes), or a layered directory whose base
/// arena is.
pub enum ServedOracle {
    /// A frozen exact arena (`IPFE`).
    FrozenExact(FrozenExactOracle),
    /// A frozen register arena (`IPFA`).
    FrozenApprox(FrozenApproxOracle),
    /// A layered exact directory (base arena + delta overlay).
    LayeredExact(Box<LayeredExactOracle>),
    /// A layered approx directory (base registers + delta overlay).
    LayeredApprox(Box<LayeredApproxOracle>),
}

impl ServedOracle {
    /// Maps `path` — a frozen arena file (magic-sniffed `IPFE`/`IPFA`) or
    /// a layered directory (holds a `MANIFEST`) — validates it deeply, and
    /// records the wall time in the `oracle.load_ns` histogram and the
    /// `oracle.load` span.
    pub fn open_recorded<R: Recorder>(path: &Path, rec: &R) -> Result<Self, CodecError> {
        let t0 = rec.span_start();
        let out = Self::open_impl(path)?;
        if let Some(ns) = t0.elapsed_ns() {
            rec.record(Hist::OracleLoadNs, ns);
        }
        rec.span_end(Span::OracleLoad, t0);
        Ok(out)
    }

    fn open_impl(path: &Path) -> Result<Self, CodecError> {
        if path.join(MANIFEST_FILE).is_file() {
            let manifest = LayeredManifest::read_from_dir(path)?;
            return Ok(match manifest.kind {
                LayeredKind::Exact => {
                    ServedOracle::LayeredExact(Box::new(LayeredExactOracle::open_layered(path)?))
                }
                LayeredKind::Approx => {
                    ServedOracle::LayeredApprox(Box::new(LayeredApproxOracle::open_layered(path)?))
                }
            });
        }
        let mut magic = [0u8; 4];
        fs::File::open(path)?.read_exact(&mut magic)?;
        match &magic {
            b"IPFE" => Ok(ServedOracle::FrozenExact(FrozenExactOracle::load_checked(
                path,
            )?)),
            b"IPFA" => Ok(ServedOracle::FrozenApprox(
                FrozenApproxOracle::load_checked(path)?,
            )),
            _ => Err(CodecError::BadMagic),
        }
    }

    /// Human-readable description for startup logging.
    pub fn describe(&self) -> String {
        match self {
            ServedOracle::FrozenExact(o) => format!(
                "IPFE frozen exact arena ({} nodes, {} entries)",
                o.num_nodes(),
                o.total_entries()
            ),
            ServedOracle::FrozenApprox(o) => format!(
                "IPFA frozen register arena ({} nodes, precision {})",
                o.num_nodes(),
                o.precision()
            ),
            ServedOracle::LayeredExact(o) => format!(
                "layered exact directory ({} nodes)",
                InfluenceOracle::num_nodes(o.as_ref())
            ),
            ServedOracle::LayeredApprox(o) => format!(
                "layered approx directory ({} nodes, precision {})",
                InfluenceOracle::num_nodes(o.as_ref()),
                o.precision()
            ),
        }
    }

    /// Universe size — seeds at or past this index are rejected.
    pub fn num_nodes(&self) -> usize {
        match self {
            ServedOracle::FrozenExact(o) => o.num_nodes(),
            ServedOracle::FrozenApprox(o) => o.num_nodes(),
            ServedOracle::LayeredExact(o) => InfluenceOracle::num_nodes(o.as_ref()),
            ServedOracle::LayeredApprox(o) => InfluenceOracle::num_nodes(o.as_ref()),
        }
    }

    /// The batched influence query every `INFLUENCE` frame funnels into.
    pub fn influence_many<R: Recorder>(
        &self,
        seed_sets: &[Vec<NodeId>],
        threads: usize,
        rec: &R,
    ) -> Vec<f64> {
        match self {
            ServedOracle::FrozenExact(o) => {
                o.influence_many_frozen_traced(seed_sets, threads, rec, NoopTracer)
            }
            ServedOracle::FrozenApprox(o) => {
                o.influence_many_frozen_traced(seed_sets, threads, rec, NoopTracer)
            }
            ServedOracle::LayeredExact(o) => {
                o.influence_many_frozen_traced(seed_sets, threads, rec, NoopTracer)
            }
            ServedOracle::LayeredApprox(o) => {
                o.influence_many_frozen_traced(seed_sets, threads, rec, NoopTracer)
            }
        }
    }

    fn top_k<R: Recorder>(&self, k: usize, threads: usize, rec: &R) -> Vec<Selection> {
        match self {
            ServedOracle::FrozenExact(o) => greedy_top_k_recorded(o, k, threads, rec),
            ServedOracle::FrozenApprox(o) => greedy_top_k_recorded(o, k, threads, rec),
            ServedOracle::LayeredExact(o) => greedy_top_k_recorded(o.as_ref(), k, threads, rec),
            ServedOracle::LayeredApprox(o) => greedy_top_k_recorded(o.as_ref(), k, threads, rec),
        }
    }

    fn individual(&self, node: NodeId) -> f64 {
        match self {
            ServedOracle::FrozenExact(o) => o.individual(node),
            ServedOracle::FrozenApprox(o) => o.individual(node),
            ServedOracle::LayeredExact(o) => o.individual(node),
            ServedOracle::LayeredApprox(o) => o.individual(node),
        }
    }

    /// Explicit summary entries for exact families; `None` for sketches.
    fn summary_entries(&self, node: NodeId) -> Option<Vec<(NodeId, Timestamp)>> {
        match self {
            ServedOracle::FrozenExact(o) => Some(o.summary(node).to_vec()),
            ServedOracle::LayeredExact(o) => Some(o.summary(node)),
            ServedOracle::FrozenApprox(_) | ServedOracle::LayeredApprox(_) => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------------

/// What handling one request frame produced.
struct Handled {
    /// The response payload to frame back.
    response: Vec<u8>,
    /// Influence queries answered in this frame (trace span payload).
    queries: u64,
    /// The frame asked the server to shut down.
    shutdown: bool,
}

fn error_response(msg: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + msg.len());
    out.push(STATUS_ERROR);
    put_u32(&mut out, metric_u64(msg.len()) as u32); // xtask-allow: no-lossy-cast (short literal messages)
    out.extend_from_slice(msg.as_bytes());
    out
}

fn resolve_oracle(oracles: &[ServedOracle], idx: u8) -> Result<&ServedOracle, Vec<u8>> {
    oracles
        .get(usize::from(idx))
        .ok_or_else(|| error_response("oracle index out of range"))
}

/// Decodes and answers one request frame against `oracles`. Infallible by
/// construction: malformed input becomes a `STATUS_ERROR` response, never
/// a panic or a dropped connection.
fn handle_request<R: Recorder>(
    oracles: &[ServedOracle],
    payload: &[u8],
    threads: usize,
    rec: &R,
) -> Handled {
    match handle_request_inner(oracles, payload, threads, rec) {
        Ok(h) => h,
        Err(ServeError::Protocol(msg)) => Handled {
            response: error_response(msg),
            queries: 0,
            shutdown: false,
        },
        Err(e) => Handled {
            response: error_response(&e.to_string()),
            queries: 0,
            shutdown: false,
        },
    }
}

fn handle_request_inner<R: Recorder>(
    oracles: &[ServedOracle],
    payload: &[u8],
    threads: usize,
    rec: &R,
) -> Result<Handled, ServeError> {
    let mut r = ByteReader::new(payload);
    let op = r.u8()?;
    match op {
        OP_INFLUENCE => {
            let idx = r.u8()?;
            let oracle = match resolve_oracle(oracles, idx) {
                Ok(o) => o,
                Err(response) => {
                    return Ok(Handled {
                        response,
                        queries: 0,
                        shutdown: false,
                    })
                }
            };
            let n = oracle.num_nodes();
            let sets = r.u32()? as usize; // xtask-allow: no-lossy-cast (u32 fits usize)
            let mut seed_sets = Vec::with_capacity(sets.min(1 << 16));
            for _ in 0..sets {
                let len = r.u32()? as usize; // xtask-allow: no-lossy-cast (u32 fits usize)
                let mut set = Vec::with_capacity(len.min(1 << 16));
                for _ in 0..len {
                    let node = r.u32()? as usize; // xtask-allow: no-lossy-cast (u32 fits usize)
                    if node >= n {
                        return Ok(Handled {
                            response: error_response("seed node outside the oracle universe"),
                            queries: 0,
                            shutdown: false,
                        });
                    }
                    set.push(NodeId(node as u32)); // xtask-allow: no-lossy-cast (decoded from u32)
                }
                seed_sets.push(set);
            }
            if !r.finished() {
                return Err(ServeError::Protocol("trailing bytes in influence request"));
            }
            let answers = oracle.influence_many(&seed_sets, threads, rec);
            rec.add(Counter::ServeQueries, metric_u64(answers.len()));
            rec.record(Hist::ServeBatchSize, metric_u64(answers.len()));
            let mut response = Vec::with_capacity(5 + 8 * answers.len());
            response.push(STATUS_OK);
            put_u32(&mut response, metric_u64(answers.len()) as u32); // xtask-allow: no-lossy-cast (bounded by request framing)
            for v in &answers {
                put_u64(&mut response, v.to_bits());
            }
            Ok(Handled {
                response,
                queries: metric_u64(answers.len()),
                shutdown: false,
            })
        }
        OP_TOPK => {
            let idx = r.u8()?;
            let oracle = match resolve_oracle(oracles, idx) {
                Ok(o) => o,
                Err(response) => {
                    return Ok(Handled {
                        response,
                        queries: 0,
                        shutdown: false,
                    })
                }
            };
            let k = r.u32()? as usize; // xtask-allow: no-lossy-cast (u32 fits usize)
            if !r.finished() {
                return Err(ServeError::Protocol("trailing bytes in topk request"));
            }
            let picks = oracle.top_k(k.min(oracle.num_nodes()), threads, rec);
            let mut response = Vec::with_capacity(5 + 20 * picks.len());
            response.push(STATUS_OK);
            put_u32(&mut response, metric_u64(picks.len()) as u32); // xtask-allow: no-lossy-cast (k fits u32)
            for s in &picks {
                put_u32(&mut response, s.node.0);
                put_u64(&mut response, s.marginal.to_bits());
                put_u64(&mut response, s.cumulative.to_bits());
            }
            Ok(Handled {
                response,
                queries: metric_u64(picks.len()),
                shutdown: false,
            })
        }
        OP_SUMMARY => {
            let idx = r.u8()?;
            let oracle = match resolve_oracle(oracles, idx) {
                Ok(o) => o,
                Err(response) => {
                    return Ok(Handled {
                        response,
                        queries: 0,
                        shutdown: false,
                    })
                }
            };
            let node = r.u32()? as usize; // xtask-allow: no-lossy-cast (u32 fits usize)
            if !r.finished() {
                return Err(ServeError::Protocol("trailing bytes in summary request"));
            }
            if node >= oracle.num_nodes() {
                return Ok(Handled {
                    response: error_response("node outside the oracle universe"),
                    queries: 0,
                    shutdown: false,
                });
            }
            let node = NodeId(node as u32); // xtask-allow: no-lossy-cast (decoded from u32)
            let mut response = Vec::with_capacity(16);
            response.push(STATUS_OK);
            put_u64(&mut response, oracle.individual(node).to_bits());
            match oracle.summary_entries(node) {
                Some(entries) => {
                    response.push(1);
                    put_u32(&mut response, metric_u64(entries.len()) as u32); // xtask-allow: no-lossy-cast (entries bounded by u32 format field)
                    for &(target, time) in &entries {
                        put_u32(&mut response, target.0);
                        put_i64(&mut response, time.get());
                    }
                }
                None => response.push(0),
            }
            Ok(Handled {
                response,
                queries: 1,
                shutdown: false,
            })
        }
        OP_SHUTDOWN => {
            if !r.finished() {
                return Err(ServeError::Protocol("trailing bytes in shutdown request"));
            }
            Ok(Handled {
                response: vec![STATUS_OK],
                queries: 0,
                shutdown: true,
            })
        }
        _ => Err(ServeError::Protocol("unknown request op")),
    }
}

/// Answers one request frame with full serve instrumentation — the exact
/// routine every connection thread runs per frame, exposed so the bench
/// client and tests can drive the engine in-process. Returns the response
/// payload and whether the frame requested shutdown.
pub fn answer_frame<R: Recorder, T: Tracer>(
    oracles: &[ServedOracle],
    payload: &[u8],
    threads: usize,
    rec: &R,
    tracer: T,
) -> (Vec<u8>, bool) {
    let t0 = rec.span_start();
    let trace = if T::ENABLED {
        TraceId(tracer.alloc_traces(1))
    } else {
        TraceId::NONE
    };
    let span = tracer.begin(trace, SpanId::NONE, TraceEvent::ServeRequest);
    let handled = handle_request(oracles, payload, threads, rec);
    rec.add(Counter::ServeRequests, 1);
    if let Some(ns) = t0.elapsed_ns() {
        rec.record(Hist::ServeRequestNs, ns);
    }
    tracer.end(span, TraceEvent::ServeRequest, handled.queries);
    (handled.response, handled.shutdown)
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// Where a [`Server`] listens and how wide each batch fans out.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Bind a Unix socket at this path (a stale socket file is replaced).
    pub unix_path: Option<PathBuf>,
    /// Bind a TCP listener at this address (e.g. `127.0.0.1:0`).
    pub tcp_addr: Option<String>,
    /// Worker fan-out for each influence batch (0 ⇒ 1).
    pub threads: usize,
}

/// Poll interval for the nonblocking accept loop and the per-connection
/// read timeout — how quickly the server notices a shutdown request.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// A long-lived serving instance: one or more mapped oracles behind a Unix
/// socket and/or TCP listener. `run` blocks until a client sends
/// `SHUTDOWN` (or [`Server::stop_handle`] is flipped), then drains every
/// open connection and returns.
pub struct Server {
    oracles: Vec<ServedOracle>,
    unix: Option<(UnixListener, PathBuf)>,
    tcp: Option<TcpListener>,
    threads: usize,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds the configured listeners (at least one must be configured)
    /// around `oracles` (at least one).
    pub fn bind(config: &ServerConfig, oracles: Vec<ServedOracle>) -> io::Result<Self> {
        if oracles.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a server needs at least one oracle",
            ));
        }
        if config.unix_path.is_none() && config.tcp_addr.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a server needs a unix socket path or a tcp address",
            ));
        }
        let unix = match &config.unix_path {
            Some(path) => {
                // A dead server leaves its socket file behind; binding over
                // it is the expected restart path.
                let _ = fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Some((l, path.clone()))
            }
            None => None,
        };
        let tcp = match &config.tcp_addr {
            Some(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        Ok(Server {
            oracles,
            unix,
            tcp,
            threads: config.threads.max(1),
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The actual TCP address bound (resolves port 0), if TCP is enabled.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// A flag that makes [`run`](Self::run) wind down when set — the
    /// programmatic equivalent of a `SHUTDOWN` frame (e.g. from a signal
    /// handler).
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// The mapped oracles, in index order (for startup logging).
    pub fn oracles(&self) -> &[ServedOracle] {
        &self.oracles
    }

    /// Serves until shutdown: accepts connections from both listeners,
    /// answers frames on one thread per connection, and returns once a
    /// `SHUTDOWN` frame (or the stop handle) fires and every connection
    /// drains. Per-connection I/O errors drop that connection only.
    pub fn run<R: Recorder, T: Tracer>(&self, rec: &R, tracer: T) -> io::Result<()> {
        let stop: &AtomicBool = &self.stop;
        let oracles = &self.oracles[..];
        let threads = self.threads;
        thread::scope(|scope| {
            let mut result = Ok(());
            while !stop.load(Ordering::Acquire) {
                let mut accepted = false;
                let mut spawn = |conn: Conn| {
                    accepted = true;
                    rec.add(Counter::ServeConnections, 1);
                    let worker = tracer.worker();
                    scope.spawn(move || {
                        serve_connection(conn, oracles, threads, stop, rec, worker);
                    });
                };
                if let Some((listener, _)) = &self.unix {
                    match listener.accept() {
                        Ok((stream, _)) => spawn(Conn::Unix(stream)),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => {
                            // A broken listener is fatal; flip the stop flag
                            // so in-flight connections drain instead of
                            // deadlocking the scope join.
                            result = Err(e);
                            stop.store(true, Ordering::Release);
                            break;
                        }
                    }
                }
                if let Some(listener) = &self.tcp {
                    match listener.accept() {
                        Ok((stream, _)) => spawn(Conn::Tcp(stream)),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => {
                            result = Err(e);
                            stop.store(true, Ordering::Release);
                            break;
                        }
                    }
                }
                if !accepted {
                    thread::sleep(POLL_INTERVAL);
                }
            }
            result
        })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some((_, path)) = &self.unix {
            let _ = fs::remove_file(path);
        }
    }
}

/// Either transport, unified behind `Read + Write` with a read timeout so
/// connection threads notice the stop flag while idle.
enum Conn {
    /// A Unix-domain connection.
    Unix(UnixStream),
    /// A TCP connection.
    Tcp(TcpStream),
}

impl Conn {
    fn set_read_timeout(&self, d: Duration) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_read_timeout(Some(d)),
            Conn::Tcp(s) => s.set_read_timeout(Some(d)),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// One connection's frame loop: read frame → answer → write frame, until
/// clean EOF, an I/O error (drops just this connection), a `SHUTDOWN`
/// frame, or the server-wide stop flag.
fn serve_connection<R: Recorder, T: Tracer>(
    mut conn: Conn,
    oracles: &[ServedOracle],
    threads: usize,
    stop: &AtomicBool,
    rec: &R,
    tracer: T,
) {
    if conn.set_read_timeout(POLL_INTERVAL).is_err() {
        return;
    }
    while !stop.load(Ordering::Acquire) {
        let payload = match read_frame_timeout(&mut conn) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean EOF between frames
            Err(Timeout::Idle) => continue,
            Err(Timeout::Fatal) => return,
        };
        let (response, shutdown) = answer_frame(oracles, &payload, threads, rec, tracer);
        if write_frame(&mut conn, &response).is_err() {
            return;
        }
        if shutdown {
            stop.store(true, Ordering::Release);
            return;
        }
    }
}

/// Why a timed read loop iteration yielded no frame.
enum Timeout {
    /// The read timed out with no bytes — poll the stop flag and retry.
    Idle,
    /// The stream is unusable (error or EOF mid-frame) — drop it.
    Fatal,
}

/// [`read_frame`] over a stream with a read timeout: distinguishes "no
/// frame yet" (timeout before any header byte) from real errors. A timeout
/// *inside* a frame keeps reading — the header already committed the peer
/// to sending the rest.
fn read_frame_timeout(conn: &mut Conn) -> Result<Option<Vec<u8>>, Timeout> {
    let is_timeout =
        |kind: io::ErrorKind| kind == io::ErrorKind::WouldBlock || kind == io::ErrorKind::TimedOut;
    read_frame_retrying(conn, is_timeout).map_err(|e| {
        if is_timeout(e.kind()) {
            Timeout::Idle
        } else {
            Timeout::Fatal
        }
    })
}

// ---------------------------------------------------------------------------
// A minimal blocking client (CLI bench-serve + tests)
// ---------------------------------------------------------------------------

/// A blocking protocol client over either transport.
pub struct Client {
    conn: Conn,
}

impl Client {
    /// Connects to a Unix socket server.
    pub fn connect_unix(path: &Path) -> io::Result<Self> {
        Ok(Client {
            conn: Conn::Unix(UnixStream::connect(path)?),
        })
    }

    /// Connects to a TCP server.
    pub fn connect_tcp(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            conn: Conn::Tcp(stream),
        })
    }

    /// Sends one request payload and reads the response payload.
    pub fn roundtrip(&mut self, request: &[u8]) -> Result<Vec<u8>, ServeError> {
        write_frame(&mut self.conn, request)?;
        read_frame(&mut self.conn)?.ok_or(ServeError::Protocol("server closed before responding"))
    }

    /// Batched influence: `Inf(S_i)` for every seed set, bit-identical to
    /// the in-process batch API.
    pub fn influence_many(
        &mut self,
        oracle: u8,
        seed_sets: &[Vec<NodeId>],
    ) -> Result<Vec<f64>, ServeError> {
        let resp = self.roundtrip(&encode_influence(oracle, seed_sets))?;
        decode_influence_response(&resp)
    }

    /// Greedy top-k selection.
    pub fn top_k(&mut self, oracle: u8, k: u32) -> Result<Vec<Selection>, ServeError> {
        let resp = self.roundtrip(&encode_topk(oracle, k))?;
        decode_topk_response(&resp)
    }

    /// One node's summary.
    pub fn summary(&mut self, oracle: u8, node: NodeId) -> Result<SummaryReply, ServeError> {
        let resp = self.roundtrip(&encode_summary(oracle, node))?;
        decode_summary_response(&resp)
    }

    /// Asks the server to shut down and waits for the acknowledgement.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        let resp = self.roundtrip(&encode_shutdown())?;
        decode_ack_response(&resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{MetricsRecorder, NoopRecorder};
    use crate::trace::NoopTracer;
    use crate::ExactIrs;
    use infprop_temporal_graph::{InteractionNetwork, Window};

    fn fixture() -> FrozenExactOracle {
        let net = InteractionNetwork::from_triples([
            (0, 1, 1),
            (0, 3, 2),
            (3, 2, 3),
            (4, 2, 6),
            (1, 2, 4),
            (2, 4, 3),
            (2, 5, 5),
            (2, 5, 8),
        ]);
        ExactIrs::compute(&net, Window(3)).freeze()
    }

    fn seed_sets() -> Vec<Vec<NodeId>> {
        vec![
            vec![NodeId(0)],
            vec![NodeId(2), NodeId(4)],
            vec![NodeId(1), NodeId(2), NodeId(3)],
            vec![],
        ]
    }

    #[test]
    fn influence_frame_round_trips_bit_identical() {
        let oracle = fixture();
        let expected = oracle.influence_many_frozen(&seed_sets(), 1);
        let served = vec![ServedOracle::FrozenExact(oracle)];
        let req = encode_influence(0, &seed_sets());
        let (resp, shutdown) = answer_frame(&served, &req, 1, &NoopRecorder, NoopTracer);
        assert!(!shutdown);
        let got = decode_influence_response(&resp).unwrap();
        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.to_bits(), e.to_bits());
        }
    }

    #[test]
    fn topk_and_summary_frames_match_in_process() {
        let oracle = fixture();
        let expected = greedy_top_k_recorded(&oracle, 2, 1, &NoopRecorder);
        let expected_summary = oracle.summary(NodeId(2)).to_vec();
        let expected_individual = oracle.individual(NodeId(2));
        let served = vec![ServedOracle::FrozenExact(oracle)];

        let (resp, _) = answer_frame(&served, &encode_topk(0, 2), 1, &NoopRecorder, NoopTracer);
        let picks = decode_topk_response(&resp).unwrap();
        assert_eq!(picks.len(), expected.len());
        for (g, e) in picks.iter().zip(&expected) {
            assert_eq!(g.node, e.node);
            assert_eq!(g.marginal.to_bits(), e.marginal.to_bits());
            assert_eq!(g.cumulative.to_bits(), e.cumulative.to_bits());
        }

        let (resp, _) = answer_frame(
            &served,
            &encode_summary(0, NodeId(2)),
            1,
            &NoopRecorder,
            NoopTracer,
        );
        let reply = decode_summary_response(&resp).unwrap();
        assert_eq!(reply.individual.to_bits(), expected_individual.to_bits());
        assert_eq!(reply.entries.as_deref(), Some(&expected_summary[..]));
    }

    #[test]
    fn malformed_frames_answer_errors_not_panics() {
        let served = vec![ServedOracle::FrozenExact(fixture())];
        for bad in [
            &[][..],                            // empty payload
            &[99][..],                          // unknown op
            &[OP_INFLUENCE][..],                // truncated header
            &[OP_INFLUENCE, 0, 1][..],          // truncated set count
            &[OP_TOPK, 7, 1, 0, 0, 0][..],      // oracle index out of range
            &[OP_SUMMARY, 0, 200, 0, 0, 0][..], // node outside universe
            &[OP_SHUTDOWN, 1][..],              // trailing bytes
        ] {
            let (resp, shutdown) = answer_frame(&served, bad, 1, &NoopRecorder, NoopTracer);
            assert!(!shutdown, "malformed frame must not shut the server down");
            assert!(decode_status(&resp).is_err());
        }
    }

    #[test]
    fn out_of_universe_seed_rejected() {
        let served = vec![ServedOracle::FrozenExact(fixture())];
        let req = encode_influence(0, &[vec![NodeId(77)]]);
        let (resp, _) = answer_frame(&served, &req, 1, &NoopRecorder, NoopTracer);
        assert!(matches!(
            decode_influence_response(&resp),
            Err(ServeError::Remote(_))
        ));
    }

    #[test]
    fn shutdown_frame_acks_and_signals() {
        let served = vec![ServedOracle::FrozenExact(fixture())];
        let (resp, shutdown) =
            answer_frame(&served, &encode_shutdown(), 1, &NoopRecorder, NoopTracer);
        assert!(shutdown);
        assert!(decode_ack_response(&resp).is_ok());
    }

    #[test]
    fn serve_metrics_are_recorded() {
        let served = vec![ServedOracle::FrozenExact(fixture())];
        let rec = MetricsRecorder::new();
        let req = encode_influence(0, &seed_sets());
        let _ = answer_frame(&served, &req, 1, &rec, NoopTracer);
        let snap = rec.snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap()
        };
        let hist_count = |name: &str| snap.hists.iter().find(|h| h.name == name).unwrap().count;
        assert_eq!(counter("serve.requests"), 1);
        assert_eq!(counter("serve.queries"), 4);
        assert_eq!(hist_count("serve.batch_size"), 1);
        assert_eq!(hist_count("serve.request_ns"), 1);
    }

    #[test]
    fn server_over_unix_socket_round_trips_and_drains() {
        let dir = std::env::temp_dir().join(format!("infprop-serve-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("serve.sock");
        let oracle = fixture();
        let expected = oracle.influence_many_frozen(&seed_sets(), 1);
        let server = Server::bind(
            &ServerConfig {
                unix_path: Some(sock.clone()),
                tcp_addr: None,
                threads: 1,
            },
            vec![ServedOracle::FrozenExact(oracle)],
        )
        .unwrap();
        thread::scope(|scope| {
            let handle = scope.spawn(|| server.run(&NoopRecorder, NoopTracer));
            let mut client = connect_with_retry(&sock);
            let got = client.influence_many(0, &seed_sets()).unwrap();
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!(g.to_bits(), e.to_bits());
            }
            client.shutdown().unwrap();
            handle.join().unwrap().unwrap();
        });
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn server_over_tcp_round_trips() {
        let oracle = fixture();
        let expected = oracle.influence_many_frozen(&seed_sets(), 1);
        let server = Server::bind(
            &ServerConfig {
                unix_path: None,
                tcp_addr: Some("127.0.0.1:0".into()),
                threads: 1,
            },
            vec![ServedOracle::FrozenExact(oracle)],
        )
        .unwrap();
        let addr = server.tcp_addr().unwrap();
        thread::scope(|scope| {
            let handle = scope.spawn(|| server.run(&NoopRecorder, NoopTracer));
            let mut client = Client::connect_tcp(&addr.to_string()).unwrap();
            let got = client.influence_many(0, &seed_sets()).unwrap();
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!(g.to_bits(), e.to_bits());
            }
            client.shutdown().unwrap();
            handle.join().unwrap().unwrap();
        });
    }

    fn connect_with_retry(sock: &Path) -> Client {
        for _ in 0..200 {
            if let Ok(c) = Client::connect_unix(sock) {
                return c;
            }
            thread::sleep(Duration::from_millis(5));
        }
        panic!("server socket never came up");
    }

    /// The register arena of the fixture network, written to a scratch
    /// file; returns the path and the in-memory arena.
    fn approx_arena_file(tag: &str) -> (PathBuf, FrozenApproxOracle) {
        let net = InteractionNetwork::from_triples(
            (0..60u32).map(|i| (i % 11, (i * 5 + 2) % 11, i64::from(i / 2))),
        );
        let frozen = crate::ApproxIrs::compute_with_precision(&net, Window(8), 7).freeze();
        let dir = std::env::temp_dir().join(format!("infprop-serve-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("approx.arena");
        let mut bytes = Vec::new();
        frozen.write_to(&mut bytes).unwrap();
        fs::write(&path, &bytes).unwrap();
        (path, frozen)
    }

    #[test]
    fn served_register_arena_answers_bit_identically() {
        let (path, frozen) = approx_arena_file("ipfa");
        let oracle = ServedOracle::open_recorded(&path, &NoopRecorder).unwrap();
        assert!(matches!(oracle, ServedOracle::FrozenApprox(_)));
        assert_eq!(
            oracle.describe(),
            format!(
                "IPFA frozen register arena ({} nodes, precision 7)",
                frozen.num_nodes()
            )
        );
        let sets = vec![
            vec![NodeId(0), NodeId(3)],
            vec![],
            (0..11).map(NodeId).collect(),
            vec![NodeId(4), NodeId(4)],
            vec![NodeId(9)],
        ];
        let expected = frozen.influence_many_frozen(&sets, 1);
        let served = vec![oracle];
        let (resp, _) = answer_frame(
            &served,
            &encode_influence(0, &sets),
            2,
            &NoopRecorder,
            NoopTracer,
        );
        let got = decode_influence_response(&resp).unwrap();
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            expected.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // Sketches store no explicit summary entries.
        let (resp, _) = answer_frame(
            &served,
            &encode_summary(0, NodeId(3)),
            1,
            &NoopRecorder,
            NoopTracer,
        );
        let reply = decode_summary_response(&resp).unwrap();
        assert_eq!(
            reply.individual.to_bits(),
            frozen.individual(NodeId(3)).to_bits()
        );
        assert_eq!(reply.entries, None);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn open_rejects_corrupt_old_and_unknown_arena_files() {
        let (path, frozen) = approx_arena_file("reject");
        let good = fs::read(&path).unwrap();
        // A flipped stored estimate passes the structural load and fails
        // the deep validation every served file gets.
        let individuals = good.len() - 8 * frozen.num_nodes();
        let mut bad = good.clone();
        bad[individuals] ^= 1;
        fs::write(&path, &bad).unwrap();
        assert!(matches!(
            ServedOracle::open_recorded(&path, &NoopRecorder),
            Err(CodecError::Corrupt(
                "frozen register arena violates its invariants"
            ))
        ));
        let mut old = good.clone();
        old[4] = 3;
        fs::write(&path, &old).unwrap();
        assert!(matches!(
            ServedOracle::open_recorded(&path, &NoopRecorder),
            Err(CodecError::BadVersion(3))
        ));
        let mut unknown = good;
        unknown[..4].copy_from_slice(b"IPXX");
        fs::write(&path, &unknown).unwrap();
        assert!(matches!(
            ServedOracle::open_recorded(&path, &NoopRecorder),
            Err(CodecError::BadMagic)
        ));
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn served_layered_approx_directory_answers_bit_identically() {
        let net = InteractionNetwork::from_triples(
            (0..50u32).map(|i| (i % 9, (i * 4 + 1) % 9, i64::from(i))),
        );
        let mut layered = LayeredApproxOracle::from_network_with_precision(&net, Window(10), 6);
        layered
            .append(infprop_temporal_graph::Interaction::from_raw(2, 12, 60))
            .unwrap();
        let dir =
            std::env::temp_dir().join(format!("infprop-serve-layered-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        layered.save_layered(&dir).unwrap();
        layered.refresh();
        let oracle = ServedOracle::open_recorded(&dir, &NoopRecorder).unwrap();
        assert!(matches!(oracle, ServedOracle::LayeredApprox(_)));
        assert_eq!(oracle.num_nodes(), 13);
        let sets = vec![vec![NodeId(2)], vec![NodeId(12), NodeId(0)], vec![]];
        let expected = layered.influence_many_frozen(&sets, 1);
        let served = vec![oracle];
        let (resp, _) = answer_frame(
            &served,
            &encode_influence(0, &sets),
            1,
            &NoopRecorder,
            NoopTracer,
        );
        let got = decode_influence_response(&resp).unwrap();
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            expected.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

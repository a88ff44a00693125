//! What every workload shares: generated input, scratch files, the timed
//! closed loop and the outcome it reports.

use crate::spans::Spans;
use infprop_core::obs::MetricsSnapshot;
use infprop_core::serve::ServedOracle;
use infprop_core::NoopRecorder;
use infprop_datasets::profiles::DatasetProfile;
use infprop_temporal_graph::{io, InteractionNetwork};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Span names: the module whose public function a span wraps, then the call.
pub mod span {
    /// Root of one timed set-up (input bytes to first answer).
    pub const SETUP: &str = "setup";
    /// `io::read_interactions` on the input bytes (and, on maintain-enron,
    /// taking the prefix the oracle is built on).
    pub const PARSE: &str = "io.read_interactions";
    /// `ExactIrs::compute`.
    pub const ENGINE_EXACT: &str = "engine.exact";
    /// `ApproxIrs::compute_with_precision`.
    pub const ENGINE_VHLL: &str = "engine.vhll";
    /// `freeze` of the exact summaries (consumes the live store).
    pub const FREEZE_EXACT: &str = "frozen.freeze_exact";
    /// `freeze` (or `layered`) of the vHLL sketches (consumes the live store).
    pub const FREEZE_VHLL: &str = "frozen.freeze_vhll";
    /// `write_to` a temporary file plus rename, or `save_layered`; the
    /// in-memory arena is released afterwards.
    pub const PERSIST: &str = "persist.write";
    /// `ServedOracle::open_recorded`: read and validate.
    pub const LOAD: &str = "arena.load";
    /// In-process batch query on a loaded oracle.
    pub const KERNEL: &str = "kernel.query";
}

/// Base of every scratch directory, relative to the working directory.
const SCRATCH_ROOT: &str = ".bench_tmp";

static NEXT_SCRATCH: AtomicU64 = AtomicU64::new(0);

/// A private scratch directory named by pid plus a process-wide counter,
/// removed when dropped, also while a panic unwinds.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Creates a fresh directory under `.bench_tmp/`.
    pub fn new() -> Scratch {
        let n = NEXT_SCRATCH.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new(SCRATCH_ROOT).join(format!("{}-{n}", std::process::id()));
        fs::create_dir_all(&dir).expect("create scratch directory");
        Scratch { dir }
    }

    /// A path inside the directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
        // Succeeds only once no other scratch directory is left.
        let _ = fs::remove_dir(SCRATCH_ROOT);
    }
}

/// A workload's input: a generated network written as `src dst time` text,
/// produced outside every timer. The program under test sees only these
/// bytes.
pub struct Input {
    /// The edge-list text.
    pub bytes: Vec<u8>,
    /// Interactions it holds.
    pub interactions: usize,
}

impl Input {
    /// Generates `profile` at `scale` and serialises it.
    pub fn generate(profile: DatasetProfile, scale: f64) -> Input {
        let data = profile.build(scale);
        let mut bytes = Vec::new();
        io::write_interactions(&data.network, &mut bytes).expect("serialise input");
        Input {
            bytes,
            interactions: data.network.num_interactions(),
        }
    }

    /// Parses the bytes back, as the program does.
    pub fn parse(&self) -> InteractionNetwork {
        io::read_interactions(self.bytes.as_slice())
            .expect("generated input parses")
            .network
    }
}

/// Writes a file through a temporary sibling and a rename, so a reader
/// never sees a partial arena.
pub fn publish<E: std::fmt::Debug>(
    path: &Path,
    write: impl FnOnce(&mut fs::File) -> Result<(), E>,
) {
    let tmp = path.with_extension("tmp");
    let mut file = fs::File::create(&tmp).expect("create arena file");
    write(&mut file).expect("write arena");
    drop(file);
    fs::rename(&tmp, path).expect("publish arena");
}

/// Opens a published arena file or layered directory for serving.
pub fn open(path: &Path) -> ServedOracle {
    ServedOracle::open_recorded(path, &NoopRecorder).expect("published arena loads")
}

/// Whether a served oracle's arena is memory-mapped (`--features mmap`) or
/// bulk-read.
pub fn is_mapped(served: &ServedOracle) -> bool {
    match served {
        ServedOracle::FrozenExact(o) => o.image().is_mapped(),
        ServedOracle::FrozenApprox(o) => o.image().is_mapped(),
        ServedOracle::LayeredExact(o) => o.base().image().is_mapped(),
        ServedOracle::LayeredApprox(o) => o.base().image().is_mapped(),
    }
}

/// Bytes of a file, or of every file directly inside a directory.
pub fn disk_bytes(path: &Path) -> u64 {
    let meta = fs::metadata(path).expect("stat published output");
    if !meta.is_dir() {
        return meta.len();
    }
    fs::read_dir(path)
        .expect("list published directory")
        .map(|e| e.expect("directory entry").metadata().expect("stat").len())
        .sum()
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// A counter's value in a recorder snapshot.
pub fn counter(snapshot: &MetricsSnapshot, name: &str) -> u64 {
    snapshot
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// FNV-1a over 64-bit words: the answers checksum.
pub struct Checksum(u64);

impl Checksum {
    /// The empty checksum.
    pub fn new() -> Checksum {
        Checksum(0xCBF2_9CE4_8422_2325)
    }

    /// Folds in one word.
    pub fn add(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The checksum so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Counts answers that are not bit-identical to the reference.
pub fn mismatches(got: &[f64], expected: &[u64]) -> u64 {
    if got.len() != expected.len() {
        return expected.len() as u64;
    }
    got.iter()
        .zip(expected)
        .filter(|(g, e)| g.to_bits() != **e)
        .count() as u64
}

/// One repeated operation of a workload: a build pass, a served frame or a
/// maintenance cycle.
pub trait Workload {
    /// Root span name of one operation.
    const OP: &'static str;

    /// Runs operation `index` and returns the items it completed
    /// (interactions built or ingested, seed sets answered).
    fn op(&mut self, index: u64, spans: &mut Spans) -> u64;

    /// Untimed work before the next operation.
    fn between(&mut self) {}
}

/// Timings of the operations of one measured loop.
#[derive(Default)]
pub struct Samples {
    /// Latency of each untraced operation.
    pub lat_ns: Vec<u64>,
    /// When each untraced operation ended, from the start of the loop.
    pub end_ns: Vec<u64>,
    /// Items each untraced operation completed.
    pub items: Vec<u64>,
    /// Latency of each traced operation.
    pub traced_lat_ns: Vec<u64>,
}

/// Runs `w` closed loop, one operation after another, until `seconds` have
/// passed. In a traced run every second operation records spans, so the
/// traced and untraced latencies come from the same stretch of time.
pub fn measure<W: Workload>(w: &mut W, spans: &mut Spans, seconds: f64, trace: bool) -> Samples {
    let mut s = Samples::default();
    let start = Instant::now();
    for i in 0u64.. {
        w.between();
        let traced = trace && i % 2 == 1;
        spans.set_active(traced);
        // The clock reads sit outside the root span, so its self time is
        // only what the layer spans leave uncovered.
        let t0 = Instant::now();
        spans.begin(W::OP, i);
        let items = w.op(i, spans);
        spans.end();
        let t1 = Instant::now();
        let lat = (t1 - t0).as_nanos() as u64;
        if traced {
            s.traced_lat_ns.push(lat);
        } else {
            s.lat_ns.push(lat);
            s.end_ns.push((t1 - start).as_nanos() as u64);
            s.items.push(items);
        }
        if (t1 - start).as_secs_f64() >= seconds && (!trace || !s.traced_lat_ns.is_empty()) {
            break;
        }
    }
    spans.set_active(false);
    s
}

/// Runs `w` untimed and unrecorded for `seconds`, so caches, the allocator
/// and the page cache settle before the measured loop.
pub fn warm_up<W: Workload>(w: &mut W, spans: &mut Spans, seconds: f64) {
    let start = Instant::now();
    for i in 0u64.. {
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        w.between();
        w.op(i, spans);
    }
}

/// Runs `setup` `count` times, each from the input bytes to the first
/// answer, and returns every duration plus the last result. The previous
/// result is dropped before the next set-up starts.
pub fn setups<T>(
    count: usize,
    spans: &mut Spans,
    trace: bool,
    mut setup: impl FnMut(u64, &mut Spans) -> T,
) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(count);
    let mut last = None;
    for k in 0..count.max(1) as u64 {
        drop(last.take());
        spans.set_active(trace);
        spans.begin(span::SETUP, k);
        let t0 = Instant::now();
        let out = setup(k, spans);
        times.push(t0.elapsed().as_secs_f64());
        spans.end();
        spans.set_active(false);
        last = Some(out);
    }
    (times, last.expect("at least one set-up"))
}

/// Everything a workload run reports; `main` turns it into metrics.
pub struct Outcome {
    /// Duration of each set-up.
    pub setup_s: Vec<f64>,
    /// The measured loop.
    pub samples: Samples,
    /// Peak RSS through set-up, verification and warm-up.
    pub peak_rss_mb: f64,
    /// Bytes the program published.
    pub disk_bytes: u64,
    /// Interactions those bytes hold.
    pub disk_interactions: u64,
    /// Answers compared with a reference.
    pub attempted: u64,
    /// Answers that differed or requests that failed.
    pub failed: u64,
    /// Checksum of the reference answers.
    pub checksum: u64,
    /// Whether arenas were memory-mapped.
    pub mmap_backend: bool,
    /// Per-layer values measured in a traced run.
    pub layers: Vec<(&'static str, f64)>,
}

/// Per-layer values every workload derives from its set-up spans and the
/// engine's recorded counters.
pub fn setup_layers(
    spans: &Spans,
    exact: Option<&MetricsSnapshot>,
    vhll: Option<&MetricsSnapshot>,
) -> Vec<(&'static str, f64)> {
    let per_interaction = |snap: Option<&MetricsSnapshot>, name: &str| {
        snap.map_or(0.0, |s| {
            counter(s, name) as f64 / counter(s, "engine.interactions").max(1) as f64
        })
    };
    vec![
        ("io.parse_s", spans.total(span::PARSE).mean_s()),
        ("engine.exact_s", spans.total(span::ENGINE_EXACT).mean_s()),
        ("engine.vhll_s", spans.total(span::ENGINE_VHLL).mean_s()),
        (
            "engine.exact_entries_touched_per_interaction",
            per_interaction(exact, "exact.entries_touched"),
        ),
        (
            "engine.vhll_cells_visited_per_interaction",
            per_interaction(vhll, "vhll.cells_visited"),
        ),
        (
            "frozen.freeze_exact_s",
            spans.total(span::FREEZE_EXACT).mean_s(),
        ),
        (
            "frozen.freeze_vhll_s",
            spans.total(span::FREEZE_VHLL).mean_s(),
        ),
        ("persist.write_s", spans.total(span::PERSIST).mean_s()),
        ("arena.load_s", spans.total(span::LOAD).mean_s()),
    ]
}

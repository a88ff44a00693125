//! `maintain-enron`: writes beside reads on one layered vHLL oracle. The
//! oracle is built on the first part of the history; the rest streams in
//! batches. A cycle appends one batch, refreshes, answers single queries,
//! and every few cycles compacts.

use crate::harness::{self, mismatches, open, span, Checksum, Input, Outcome, Scratch, Workload};
use crate::rng::{self, SplitMix64};
use crate::spans::Spans;
use infprop_core::serve::ServedOracle;
use infprop_core::{ApproxIrs, InfluenceOracle, LayeredApproxOracle, MetricsRecorder};
use infprop_datasets::profiles;
use infprop_temporal_graph::{Interaction, InteractionNetwork, NodeId, Window};

/// Span names of this workload.
const CYCLE: &str = "maintain.cycle";
const APPEND: &str = "delta.append";
const REFRESH: &str = "delta.refresh";
const QUERY: &str = "delta.query";
const COMPACT: &str = "delta.compact";

/// Input and work sizes.
pub struct Sizes {
    /// Share of the full Enron profile.
    pub scale: f64,
    /// Window ω as a percentage of the time span.
    pub window_pct: f64,
    /// vHLL precision (β = 2^precision cells).
    pub precision: u8,
    /// Share of the history the oracle is built on; the rest streams in.
    pub prefix_share: f64,
    /// Interactions appended per cycle.
    pub batch: usize,
    /// Single-query calls per cycle.
    pub queries: usize,
    /// Seeds per query.
    pub seeds_per_query: usize,
    /// Cycles between compactions.
    pub compact_every: usize,
    /// Timed set-ups.
    pub setups: usize,
}

/// Enron-like at 5% (4.4k nodes, 57k interactions), ω = 1%; 11.5k
/// interactions stream in over 23 cycles.
pub const SIZES: Sizes = Sizes {
    scale: 0.05,
    window_pct: 1.0,
    precision: 9,
    prefix_share: 0.8,
    batch: 500,
    queries: 256,
    seeds_per_query: 4,
    compact_every: 16,
    setups: 5,
};

struct Maintain {
    sizes: &'static Sizes,
    /// The whole history, in time order, and where the streamed part starts.
    history: Vec<Interaction>,
    cut: usize,
    window: Window,
    /// Seed sets of each cycle.
    queries: Vec<Vec<Vec<NodeId>>>,
    initial: LayeredApproxOracle,
    oracle: LayeredApproxOracle,
    cycle: usize,
    /// Answers of each cycle in the first replay; later replays must match.
    expected: Vec<Vec<u64>>,
    attempted: u64,
    failed: u64,
    traced_appends: u64,
    traced_tail: u64,
}

impl Maintain {
    fn cycles(&self) -> usize {
        (self.history.len() - self.cut).div_ceil(self.sizes.batch)
    }

    /// Answers of a from-scratch vHLL freeze of the history up to the end of
    /// cycle `c`.
    fn rebuilt_answers(&self, c: usize) -> Vec<f64> {
        let end = (self.cut + (c + 1) * self.sizes.batch).min(self.history.len());
        let net = InteractionNetwork::from_interactions(self.history[..end].to_vec());
        ApproxIrs::compute_with_precision(&net, self.window, self.sizes.precision)
            .freeze()
            .influence_many_frozen(&self.queries[c], 1)
    }

    fn check(&mut self, c: usize, answers: &[f64]) {
        self.attempted += answers.len() as u64;
        if c < self.expected.len() {
            self.failed += mismatches(answers, &self.expected[c]);
            return;
        }
        // First replay: this is the reference for later ones. On the cycle
        // before the first compaction it is also checked against a rebuild.
        if c + 1 == self.sizes.compact_every.min(self.cycles()) {
            let bits: Vec<u64> = self
                .rebuilt_answers(c)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            self.failed += mismatches(answers, &bits);
        }
        self.expected
            .push(answers.iter().map(|v| v.to_bits()).collect());
    }
}

impl Workload for Maintain {
    const OP: &'static str = CYCLE;

    fn op(&mut self, index: u64, spans: &mut Spans) -> u64 {
        let c = self.cycle;
        let start = self.cut + c * self.sizes.batch;
        let batch = &self.history[start..(start + self.sizes.batch).min(self.history.len())];
        let oracle = &mut self.oracle;
        let rejected = spans.time(APPEND, index, || {
            batch.iter().filter(|&&i| oracle.append(i).is_err()).count()
        });
        spans.time(REFRESH, index, || oracle.refresh());
        let queries = &self.queries[c];
        let answers: Vec<f64> = spans.time(QUERY, index, || {
            queries.iter().map(|q| oracle.influence(q)).collect()
        });
        if spans.active() {
            self.traced_appends += batch.len() as u64;
            self.traced_tail += self.oracle.delta().tail().len() as u64;
        }
        if (c + 1).is_multiple_of(self.sizes.compact_every) {
            let oracle = &mut self.oracle;
            spans.time(COMPACT, index, || oracle.compact());
        }
        let appended = batch.len() as u64;
        self.failed += rejected as u64;
        self.check(c, &answers);
        self.cycle += 1;
        appended
    }

    fn between(&mut self) {
        if self.cycle == self.cycles() {
            self.oracle = self.initial.clone();
            self.cycle = 0;
        }
    }
}

/// Runs the workload: set-ups, one verifying replay of the stream, then
/// `seconds` of measured cycles (the stream restarts from the set-up state
/// when it runs out).
pub fn run(
    sizes: &'static Sizes,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: &mut Spans,
) -> Outcome {
    let input = Input::generate(profiles::enron_like(seed), sizes.scale);
    let net = input.parse();
    let window = net.window_from_percent(sizes.window_pct);
    let cut = (net.num_interactions() as f64 * sizes.prefix_share) as usize;
    let history = net.interactions().to_vec();
    let prefix_nodes = InteractionNetwork::from_interactions(history[..cut].to_vec()).num_nodes();
    drop(net);
    let cycles = (history.len() - cut).div_ceil(sizes.batch);
    let mut rng = SplitMix64::new(seed, 3);
    let queries: Vec<Vec<Vec<NodeId>>> = (0..cycles)
        .map(|_| rng::uniform_sets(&mut rng, prefix_nodes, sizes.queries, sizes.seeds_per_query))
        .collect();
    let scratch = Scratch::new();
    let engine_rec = MetricsRecorder::new();

    let (setup_s, (oracle, dir)) = harness::setups(sizes.setups, spans, trace, |k, spans| {
        let traced = spans.active();
        let prefix = spans.time(span::PARSE, k, || {
            let net = input.parse();
            InteractionNetwork::from_interactions(net.interactions()[..cut].to_vec())
        });
        let irs = spans.time(span::ENGINE_VHLL, k, || {
            if traced {
                ApproxIrs::compute_with_precision_recorded(
                    &prefix,
                    window,
                    sizes.precision,
                    &engine_rec,
                )
            } else {
                ApproxIrs::compute_with_precision(&prefix, window, sizes.precision)
            }
        });
        let layered = spans.time(span::FREEZE_VHLL, k, || {
            let layered = irs.layered(&prefix);
            drop(irs);
            layered
        });
        let dir = scratch.path(&format!("layered-{k}"));
        spans.time(span::PERSIST, k, || {
            layered.save_layered(&dir).expect("save layered oracle");
            drop(layered);
        });
        let served = spans.time(span::LOAD, k, || open(&dir));
        let ServedOracle::LayeredApprox(oracle) = served else {
            panic!("a saved layered vHLL directory loads as one");
        };
        spans.time(span::KERNEL, k, || oracle.influence(&queries[0][0]));
        (*oracle, dir)
    });
    let disk_bytes = harness::disk_bytes(&dir);
    let mmap_backend = oracle.base().image().is_mapped();

    let mut w = Maintain {
        sizes,
        history,
        cut,
        window,
        queries,
        initial: oracle.clone(),
        oracle,
        cycle: 0,
        expected: Vec::new(),
        attempted: 0,
        failed: 0,
        traced_appends: 0,
        traced_tail: 0,
    };
    // The verifying replay doubles as the warm-up.
    for i in 0..cycles as u64 {
        w.op(i, spans);
    }
    let peak_rss_mb = harness::peak_rss_mb();
    let samples = harness::measure(&mut w, spans, seconds, trace);

    let mut layers = Vec::new();
    if trace {
        layers = harness::setup_layers(spans, None, Some(&engine_rec.snapshot()));
        let query = spans.total(QUERY);
        let refresh = spans.total(REFRESH);
        let per_query_ns =
            query.total_ns as f64 / (query.count as f64 * sizes.queries as f64).max(1.0);
        layers.extend([
            (
                "frozen.arena_bytes_vhll",
                w.oracle.base().image().len() as f64,
            ),
            ("kernel.ns_per_query", per_query_ns),
            (
                "workload.distinct_seed_share",
                w.queries
                    .iter()
                    .map(|q| rng::distinct_share(q))
                    .sum::<f64>()
                    / cycles.max(1) as f64,
            ),
            (
                "delta.append_us_per_interaction",
                spans.total(APPEND).total_ns as f64 / 1e3 / w.traced_appends.max(1) as f64,
            ),
            ("delta.refresh_ms", refresh.mean_s() * 1e3),
            ("delta.query_us", per_query_ns / 1e3),
            (
                "delta.tail_len",
                w.traced_tail as f64 / refresh.count.max(1) as f64,
            ),
            ("delta.compact_s", spans.total(COMPACT).mean_s()),
        ]);
    }

    let mut checksum = Checksum::new();
    for bits in w.expected.iter().flatten() {
        checksum.add(*bits);
    }
    Outcome {
        setup_s,
        samples,
        peak_rss_mb,
        disk_bytes,
        disk_interactions: cut as u64,
        attempted: w.attempted,
        failed: w.failed,
        checksum: checksum.value(),
        mmap_backend,
        layers,
    }
}

//! `build-lkml`: the paper's batch pipeline (Fig. 3, Algorithms 2–4), timed
//! one whole pass at a time. A pass parses the input bytes, builds, freezes,
//! publishes and reloads the exact and the vHLL oracle, answers the fixed
//! queries on both, and runs greedy top-k on both.

use crate::harness::{
    self, counter, mismatches, open, publish, span, Checksum, Input, Outcome, Scratch, Workload,
};
use crate::rng::{self, SplitMix64};
use crate::spans::Spans;
use infprop_core::serve::ServedOracle;
use infprop_core::{
    greedy_top_k, greedy_top_k_recorded, ApproxIrs, ExactIrs, InfluenceOracle, MetricsRecorder,
    NoopRecorder, Recorder, Selection,
};
use infprop_datasets::profiles;
use infprop_temporal_graph::NodeId;

/// Span names of this workload.
const PASS: &str = "build.pass";
const TOPK_EXACT: &str = "maximize.topk_exact";
const TOPK_VHLL: &str = "maximize.topk_vhll";

/// Input and work sizes.
pub struct Sizes {
    /// Share of the full Lkml profile.
    pub scale: f64,
    /// Window ω as a percentage of the time span.
    pub window_pct: f64,
    /// vHLL precision (β = 2^precision cells).
    pub precision: u8,
    /// Fixed queries answered by both oracles each pass.
    pub queries: usize,
    /// Seeds per query.
    pub seeds_per_query: usize,
    /// Seeds greedy selects.
    pub top_k: usize,
    /// Timed set-ups.
    pub setups: usize,
}

/// Lkml-like at a quarter of Table 2 size (6.85k nodes, 262k interactions),
/// ω = 1%: a pass takes about a quarter second, so a run holds dozens. With
/// ω = 10% the build cost swings by 2× from one seed to the next (reach then
/// hinges on a few hubs).
pub const SIZES: Sizes = Sizes {
    scale: 0.25,
    window_pct: 1.0,
    precision: 9,
    queries: 256,
    seeds_per_query: 8,
    top_k: 50,
    setups: 5,
};

/// What one pass answers.
struct Answers {
    exact: Vec<f64>,
    vhll: Vec<f64>,
    topk_exact: Vec<Selection>,
    topk_vhll: Vec<Selection>,
}

struct Build {
    sizes: &'static Sizes,
    input: Input,
    queries: Vec<Vec<NodeId>>,
    scratch: Scratch,
    reference: Answers,
    exact_rec: MetricsRecorder,
    vhll_rec: MetricsRecorder,
    topk_rec: MetricsRecorder,
    attempted: u64,
    failed: u64,
    disk_bytes: u64,
    mmap_backend: bool,
}

fn served_top_k<R: Recorder>(o: &ServedOracle, k: usize, rec: &R) -> Vec<Selection> {
    match o {
        ServedOracle::FrozenExact(o) => greedy_top_k_recorded(o, k, 1, rec),
        ServedOracle::FrozenApprox(o) => greedy_top_k_recorded(o, k, 1, rec),
        _ => panic!("build-lkml publishes frozen arenas only"),
    }
}

fn selections_equal(a: &[Selection], b: &[Selection]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.node == y.node
                && x.marginal.to_bits() == y.marginal.to_bits()
                && x.cumulative.to_bits() == y.cumulative.to_bits()
        })
}

impl Build {
    /// One pass from input bytes to answers on both reloaded oracles.
    fn pass(&mut self, id: u64, spans: &mut Spans) -> Answers {
        let traced = spans.active();
        let net = spans.time(span::PARSE, id, || self.input.parse());
        let window = net.window_from_percent(self.sizes.window_pct);

        let exact_path = self.scratch.path("lkml.ipfe");
        let irs = spans.time(span::ENGINE_EXACT, id, || {
            if traced {
                ExactIrs::compute_recorded(&net, window, &self.exact_rec)
            } else {
                ExactIrs::compute(&net, window)
            }
        });
        let frozen = spans.time(span::FREEZE_EXACT, id, || {
            let frozen = irs.freeze();
            drop(irs);
            frozen
        });
        spans.time(span::PERSIST, id, || {
            publish(&exact_path, |f| frozen.write_to(f));
            drop(frozen);
        });
        let exact = spans.time(span::LOAD, id, || open(&exact_path));
        let exact_answers = spans.time(span::KERNEL, id, || {
            exact.influence_many(&self.queries, 1, &NoopRecorder)
        });

        let vhll_path = self.scratch.path("lkml.ipfa");
        let irs = spans.time(span::ENGINE_VHLL, id, || {
            if traced {
                ApproxIrs::compute_with_precision_recorded(
                    &net,
                    window,
                    self.sizes.precision,
                    &self.vhll_rec,
                )
            } else {
                ApproxIrs::compute_with_precision(&net, window, self.sizes.precision)
            }
        });
        let frozen = spans.time(span::FREEZE_VHLL, id, || {
            let frozen = irs.freeze();
            drop(irs);
            frozen
        });
        spans.time(span::PERSIST, id, || {
            publish(&vhll_path, |f| frozen.write_to(f));
            drop(frozen);
        });
        let vhll = spans.time(span::LOAD, id, || open(&vhll_path));
        let vhll_answers = spans.time(span::KERNEL, id, || {
            vhll.influence_many(&self.queries, 1, &NoopRecorder)
        });

        let k = self.sizes.top_k;
        let top_k = |o| {
            if traced {
                served_top_k(o, k, &self.topk_rec)
            } else {
                served_top_k(o, k, &NoopRecorder)
            }
        };
        let topk_exact = spans.time(TOPK_EXACT, id, || top_k(&exact));
        let topk_vhll = spans.time(TOPK_VHLL, id, || top_k(&vhll));

        self.disk_bytes = harness::disk_bytes(&exact_path) + harness::disk_bytes(&vhll_path);
        self.mmap_backend = harness::is_mapped(&exact);
        Answers {
            exact: exact_answers,
            vhll: vhll_answers,
            topk_exact,
            topk_vhll,
        }
    }

    fn check(&mut self, got: &Answers) {
        let r = &self.reference;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        self.attempted += (r.exact.len() + r.vhll.len() + 2) as u64;
        self.failed += mismatches(&got.exact, &bits(&r.exact));
        self.failed += mismatches(&got.vhll, &bits(&r.vhll));
        self.failed += u64::from(!selections_equal(&got.topk_exact, &r.topk_exact));
        self.failed += u64::from(!selections_equal(&got.topk_vhll, &r.topk_vhll));
    }
}

impl Workload for Build {
    const OP: &'static str = PASS;

    fn op(&mut self, index: u64, spans: &mut Spans) -> u64 {
        let answers = self.pass(index, spans);
        self.check(&answers);
        self.input.interactions as u64
    }
}

/// Reference answers from the live (unfrozen, never persisted) oracles.
fn reference(input: &Input, sizes: &Sizes, queries: &[Vec<NodeId>]) -> Answers {
    let net = input.parse();
    let window = net.window_from_percent(sizes.window_pct);
    let exact = ExactIrs::compute(&net, window);
    let live = exact.oracle();
    let exact_answers = queries.iter().map(|q| live.influence(q)).collect();
    let topk_exact = greedy_top_k(&live, sizes.top_k);
    let vhll = ApproxIrs::compute_with_precision(&net, window, sizes.precision).oracle();
    let vhll_answers = queries.iter().map(|q| vhll.influence(q)).collect();
    let topk_vhll = greedy_top_k(&vhll, sizes.top_k);
    Answers {
        exact: exact_answers,
        vhll: vhll_answers,
        topk_exact,
        topk_vhll,
    }
}

fn checksum(a: &Answers) -> u64 {
    let mut c = Checksum::new();
    for v in a.exact.iter().chain(&a.vhll) {
        c.add(v.to_bits());
    }
    for s in a.topk_exact.iter().chain(&a.topk_vhll) {
        c.add(u64::from(s.node.0));
        c.add(s.marginal.to_bits());
        c.add(s.cumulative.to_bits());
    }
    c.value()
}

/// The paper's Table 3 error: mean |vHLL − exact| / exact, in percent.
fn rel_error_pct(a: &Answers) -> f64 {
    let (sum, n) = a
        .exact
        .iter()
        .zip(&a.vhll)
        .filter(|(e, _)| **e > 0.0)
        .fold((0.0, 0usize), |(s, n), (e, v)| {
            (s + (v - e).abs() / e, n + 1)
        });
    100.0 * sum / n.max(1) as f64
}

/// Runs the workload for `seconds` of measured passes after its set-ups.
pub fn run(
    sizes: &'static Sizes,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: &mut Spans,
) -> Outcome {
    let input = Input::generate(profiles::lkml_like(seed), sizes.scale);
    let nodes = input.parse().num_nodes();
    let queries = rng::uniform_sets(
        &mut SplitMix64::new(seed, 1),
        nodes,
        sizes.queries,
        sizes.seeds_per_query,
    );
    let reference = reference(&input, sizes, &queries);
    let mut w = Build {
        sizes,
        input,
        queries,
        scratch: Scratch::new(),
        reference,
        exact_rec: MetricsRecorder::new(),
        vhll_rec: MetricsRecorder::new(),
        topk_rec: MetricsRecorder::new(),
        attempted: 0,
        failed: 0,
        disk_bytes: 0,
        mmap_backend: false,
    };

    let (setup_s, ()) = harness::setups(sizes.setups, spans, trace, |k, spans| {
        let answers = w.pass(k, spans);
        w.check(&answers);
    });
    let peak_rss_mb = harness::peak_rss_mb();
    let samples = harness::measure(&mut w, spans, seconds, trace);

    let mut layers = harness::setup_layers(
        spans,
        Some(&w.exact_rec.snapshot()),
        Some(&w.vhll_rec.snapshot()),
    );
    let kernel = spans.total(span::KERNEL);
    let topk_exact = spans.total(TOPK_EXACT);
    let topk_vhll = spans.total(TOPK_VHLL);
    let topk = w.topk_rec.snapshot();
    let oracle_calls = counter(&topk, "oracle.queries")
        + counter(&topk, "greedy.lazy_refreshes")
        + counter(&topk, "greedy.rounds");
    // A published arena file is the in-memory image byte for byte.
    layers.extend([
        (
            "frozen.arena_bytes_exact",
            harness::disk_bytes(&w.scratch.path("lkml.ipfe")) as f64,
        ),
        (
            "frozen.arena_bytes_vhll",
            harness::disk_bytes(&w.scratch.path("lkml.ipfa")) as f64,
        ),
        (
            "kernel.ns_per_query",
            kernel.total_ns as f64 / (kernel.count as f64 * sizes.queries as f64).max(1.0),
        ),
        (
            "workload.distinct_seed_share",
            rng::distinct_share(&w.queries),
        ),
        ("hll.rel_error_pct", rel_error_pct(&w.reference)),
        ("maximize.topk_exact_s", topk_exact.mean_s()),
        ("maximize.topk_vhll_s", topk_vhll.mean_s()),
        (
            "maximize.oracle_calls",
            oracle_calls as f64 / (topk_exact.count + topk_vhll.count).max(1) as f64,
        ),
    ]);

    Outcome {
        setup_s,
        samples,
        peak_rss_mb,
        disk_bytes: w.disk_bytes,
        disk_interactions: w.input.interactions as u64,
        attempted: w.attempted,
        failed: w.failed,
        checksum: checksum(&w.reference),
        mmap_backend: w.mmap_backend,
        layers,
    }
}

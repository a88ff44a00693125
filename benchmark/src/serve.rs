//! `serve-point` and `serve-batch`: one client, closed loop, against an
//! in-process `Server` on a Unix socket. A frame is encoded, sent, answered
//! and decoded; the next is sent only after the reply arrives.

use crate::harness::{
    self, mismatches, open, publish, span, Checksum, Input, Outcome, Scratch, Workload,
};
use crate::rng::{self, SplitMix64, Zipf};
use crate::spans::Spans;
use infprop_core::serve::{
    answer_frame, decode_influence_response, encode_influence, Client, Server, ServerConfig,
};
use infprop_core::{
    ApproxIrs, ExactIrs, InfluenceOracle, MetricsRecorder, NoopRecorder, NoopTracer,
};
use infprop_datasets::profiles::{self, DatasetProfile};
use infprop_temporal_graph::NodeId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Span names of this workload.
const FRAME: &str = "serve.frame";
const ENCODE: &str = "serve.encode";
const ROUNDTRIP: &str = "serve.roundtrip";
const DECODE: &str = "serve.decode";
const REPLAY: &str = "serve.replay";
const ANSWER: &str = "serve.answer";

/// Input, oracle and traffic shape.
pub struct Sizes {
    /// Dataset profile the input is drawn from.
    pub profile: fn(u64) -> DatasetProfile,
    /// Share of the full profile.
    pub scale: f64,
    /// Window ω as a percentage of the time span.
    pub window_pct: f64,
    /// `None` serves the exact arena, `Some(p)` a vHLL arena with β = 2^p.
    pub precision: Option<u8>,
    /// Distinct frames generated; the client cycles through them.
    pub frames: usize,
    /// Seed sets per frame.
    pub sets_per_frame: usize,
    /// Seeds per set.
    pub seeds_per_set: usize,
    /// `Some(s)` draws seeds Zipf(s) over a shuffled node order; `None`
    /// draws them uniformly.
    pub zipf: Option<f64>,
    /// Timed set-ups.
    pub setups: usize,
    /// Untimed serving before the measured loop.
    pub warmup_s: f64,
}

/// Enron-like at 10% (8.7k nodes, 115k interactions), ω = 1%: a 0.8 MB
/// exact arena that fits in L2, tiny frames. Socket and codec dominate.
pub const POINT: Sizes = Sizes {
    profile: profiles::enron_like,
    scale: 0.1,
    window_pct: 1.0,
    precision: None,
    frames: 4096,
    sets_per_frame: 1,
    seeds_per_set: 4,
    zipf: None,
    setups: 5,
    warmup_s: 2.0,
};

/// Higgs-like at 5% (15k nodes, 26k interactions), ω = 10%: a 10 MB vHLL
/// arena, larger than L2, and 256 × 16-seed frames with repeated seeds. The
/// query kernel dominates.
pub const BATCH: Sizes = Sizes {
    profile: profiles::higgs_like,
    scale: 0.05,
    window_pct: 10.0,
    precision: Some(9),
    frames: 64,
    sets_per_frame: 256,
    seeds_per_set: 16,
    zipf: Some(1.1),
    setups: 5,
    warmup_s: 2.0,
};

/// Sets the server's stop flag when dropped, so a panicking client still
/// lets the server thread end and the scope join.
struct StopOnDrop(Arc<AtomicBool>);

impl Drop for StopOnDrop {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

struct Traffic<'a> {
    client: &'a mut Client,
    frames: &'a [Vec<Vec<NodeId>>],
    expected: &'a [Vec<u64>],
    attempted: u64,
    failed: u64,
}

impl Workload for Traffic<'_> {
    const OP: &'static str = FRAME;

    fn op(&mut self, index: u64, spans: &mut Spans) -> u64 {
        let f = (index % self.frames.len() as u64) as usize;
        let sets = &self.frames[f];
        let request = spans.time(ENCODE, index, || encode_influence(0, sets));
        let response = spans.time(ROUNDTRIP, index, || self.client.roundtrip(&request));
        let answers = spans.time(DECODE, index, || {
            response.and_then(|r| decode_influence_response(&r))
        });
        self.attempted += sets.len() as u64;
        self.failed += match answers {
            Ok(a) => mismatches(&a, &self.expected[f]),
            Err(_) => sets.len() as u64,
        };
        sets.len() as u64
    }
}

fn frames(sizes: &Sizes, seed: u64, nodes: usize) -> Vec<Vec<Vec<NodeId>>> {
    let mut rng = SplitMix64::new(seed, 2);
    let zipf = sizes
        .zipf
        .map(|s| (Zipf::new(nodes, s), rng::permutation(&mut rng, nodes)));
    (0..sizes.frames)
        .map(|_| match &zipf {
            Some((z, order)) => rng::zipf_sets(
                &mut rng,
                z,
                order,
                sizes.sets_per_frame,
                sizes.seeds_per_set,
            ),
            None => rng::uniform_sets(&mut rng, nodes, sizes.sets_per_frame, sizes.seeds_per_set),
        })
        .collect()
}

/// Reference answers (as bits) from the live, never persisted oracle.
fn reference(input: &Input, sizes: &Sizes, frames: &[Vec<Vec<NodeId>>]) -> Vec<Vec<u64>> {
    let net = input.parse();
    let window = net.window_from_percent(sizes.window_pct);
    let answer = |o: &dyn Fn(&[NodeId]) -> f64| -> Vec<Vec<u64>> {
        frames
            .iter()
            .map(|sets| sets.iter().map(|s| o(s).to_bits()).collect())
            .collect()
    };
    match sizes.precision {
        None => {
            let irs = ExactIrs::compute(&net, window);
            let live = irs.oracle();
            answer(&|s| live.influence(s))
        }
        Some(p) => {
            let live = ApproxIrs::compute_with_precision(&net, window, p).oracle();
            answer(&|s| live.influence(s))
        }
    }
}

/// Runs the workload: set-ups, in-process and over-the-wire verification,
/// warm-up, then `seconds` of measured frames.
pub fn run(
    sizes: &'static Sizes,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: &mut Spans,
) -> Outcome {
    let input = Input::generate((sizes.profile)(seed), sizes.scale);
    let nodes = input.parse().num_nodes();
    let frames = frames(sizes, seed, nodes);
    let expected = reference(&input, sizes, &frames);
    let scratch = Scratch::new();
    let arena = scratch.path("arena");
    let engine_rec = MetricsRecorder::new();

    let (setup_s, served) = harness::setups(sizes.setups, spans, trace, |k, spans| {
        let traced = spans.active();
        let net = spans.time(span::PARSE, k, || input.parse());
        let window = net.window_from_percent(sizes.window_pct);
        match sizes.precision {
            None => {
                let irs = spans.time(span::ENGINE_EXACT, k, || {
                    if traced {
                        ExactIrs::compute_recorded(&net, window, &engine_rec)
                    } else {
                        ExactIrs::compute(&net, window)
                    }
                });
                let frozen = spans.time(span::FREEZE_EXACT, k, || {
                    let frozen = irs.freeze();
                    drop(irs);
                    frozen
                });
                spans.time(span::PERSIST, k, || {
                    publish(&arena, |f| frozen.write_to(f));
                    drop(frozen);
                });
            }
            Some(p) => {
                let irs = spans.time(span::ENGINE_VHLL, k, || {
                    if traced {
                        ApproxIrs::compute_with_precision_recorded(&net, window, p, &engine_rec)
                    } else {
                        ApproxIrs::compute_with_precision(&net, window, p)
                    }
                });
                let frozen = spans.time(span::FREEZE_VHLL, k, || {
                    let frozen = irs.freeze();
                    drop(irs);
                    frozen
                });
                spans.time(span::PERSIST, k, || {
                    publish(&arena, |f| frozen.write_to(f));
                    drop(frozen);
                });
            }
        }
        let served = spans.time(span::LOAD, k, || open(&arena));
        spans.time(span::KERNEL, k, || {
            served.influence_many(&frames[0], 1, &NoopRecorder)
        });
        served
    });
    let disk_bytes = harness::disk_bytes(&arena);
    let mmap_backend = harness::is_mapped(&served);

    // Every frame, answered in-process through the server's own frame
    // handler, must match the reference before anything is timed.
    let mut attempted = 0;
    let mut failed = 0;
    let mut request_bytes = 0;
    let mut response_bytes = 0;
    for (sets, want) in frames.iter().zip(&expected) {
        let request = encode_influence(0, sets);
        let (response, _) = answer_frame(
            std::slice::from_ref(&served),
            &request,
            1,
            &NoopRecorder,
            NoopTracer,
        );
        attempted += sets.len() as u64;
        failed += decode_influence_response(&response)
            .map_or(sets.len() as u64, |a| mismatches(&a, want));
        request_bytes += 4 + request.len();
        response_bytes += 4 + response.len();
    }

    let sock = scratch.path("serve.sock");
    let config = ServerConfig {
        unix_path: Some(sock.clone()),
        tcp_addr: None,
        threads: 1,
    };
    let server = Server::bind(&config, vec![served]).expect("bind the benchmark server");
    let (peak_rss_mb, samples, traffic_attempted, traffic_failed) = std::thread::scope(|scope| {
        let _stop = StopOnDrop(server.stop_handle());
        let handle = scope.spawn(|| server.run(&NoopRecorder, NoopTracer));
        let mut client = Client::connect_unix(&sock).expect("connect to the benchmark server");
        let mut traffic = Traffic {
            client: &mut client,
            frames: &frames,
            expected: &expected,
            attempted: 0,
            failed: 0,
        };
        // One pass over every frame through the socket, then warm-up; both
        // are checked like the measured frames.
        for i in 0..frames.len() as u64 {
            traffic.op(i, spans);
        }
        harness::warm_up(&mut traffic, spans, sizes.warmup_s);
        let peak_rss_mb = harness::peak_rss_mb();
        let samples = harness::measure(&mut traffic, spans, seconds, trace);
        let (a, f) = (traffic.attempted, traffic.failed);
        client.shutdown().expect("SHUTDOWN frame acknowledged");
        drop(client);
        handle.join().expect("server thread").expect("server run");
        (peak_rss_mb, samples, a, f)
    });
    attempted += traffic_attempted;
    failed += traffic_failed;

    let mut layers = Vec::new();
    if trace {
        replay(&server, &frames, spans, seconds);
        let snap = engine_rec.snapshot();
        let (exact, vhll) = match sizes.precision {
            None => (Some(&snap), None),
            Some(_) => (None, Some(&snap)),
        };
        layers = harness::setup_layers(spans, exact, vhll);
        let us = |name| spans.total(name).mean_s() * 1e6;
        let kernel = spans.total(span::KERNEL);
        let frame_count = frames.len() as f64;
        layers.extend([
            (
                if sizes.precision.is_none() {
                    "frozen.arena_bytes_exact"
                } else {
                    "frozen.arena_bytes_vhll"
                },
                disk_bytes as f64,
            ),
            (
                "kernel.ns_per_query",
                kernel.total_ns as f64
                    / (kernel.count as f64 * sizes.sets_per_frame as f64).max(1.0),
            ),
            (
                "workload.distinct_seed_share",
                frames.iter().map(|f| rng::distinct_share(f)).sum::<f64>() / frame_count,
            ),
            ("serve.encode_us", us(ENCODE)),
            ("serve.decode_us", us(DECODE)),
            ("serve.roundtrip_us", us(ROUNDTRIP)),
            ("serve.answer_us", us(ANSWER)),
            ("serve.transport_us", us(ROUNDTRIP) - us(ANSWER)),
            ("serve.request_bytes", request_bytes as f64 / frame_count),
            ("serve.response_bytes", response_bytes as f64 / frame_count),
        ]);
    }

    let mut checksum = Checksum::new();
    for bits in expected.iter().flatten() {
        checksum.add(*bits);
    }
    Outcome {
        setup_s,
        samples,
        peak_rss_mb,
        disk_bytes,
        disk_interactions: input.interactions as u64,
        attempted,
        failed,
        checksum: checksum.value(),
        mmap_backend,
        layers,
    }
}

/// The server side of a frame is not visible through the socket, so the
/// traced run replays every frame in-process: the whole frame handler, and
/// the batch kernel alone on the same seed sets.
fn replay(server: &Server, frames: &[Vec<Vec<NodeId>>], spans: &mut Spans, seconds: f64) {
    let oracles = server.oracles();
    let requests: Vec<Vec<u8>> = frames.iter().map(|s| encode_influence(0, s)).collect();
    let budget = (seconds / 10.0).min(1.0);
    let start = Instant::now();
    spans.set_active(true);
    let mut id = 0;
    while id == 0 || start.elapsed().as_secs_f64() < budget {
        for (sets, request) in frames.iter().zip(&requests) {
            spans.begin(REPLAY, id);
            spans.time(ANSWER, id, || {
                answer_frame(oracles, request, 1, &NoopRecorder, NoopTracer)
            });
            spans.time(span::KERNEL, id, || {
                oracles[0].influence_many(sets, 1, &NoopRecorder)
            });
            spans.end();
            id += 1;
        }
    }
    spans.set_active(false);
}

//! Command implementations: each takes parsed arguments, does the work,
//! and prints human-readable results to stdout.

use crate::args::{ArgError, ParsedArgs};
use infprop_baselines::{
    degree_discount, high_degree, pagerank_top_k, smart_high_degree, ConTinEst, ConTinEstConfig,
    PageRankConfig, Skim, SkimConfig,
};
use infprop_core::obs::{metric_u64, Counter, Gauge, Hist, Span};
use infprop_core::serve as serving;
use infprop_core::trace::{SpanId, TraceEvent, TraceId};
use infprop_core::{
    attribution, find_channel, greedy_top_k_threads, greedy_top_k_traced, trace_to_json,
    validate_trace_json, ApproxIrs, ApproxOracle, ExactIrs, FlightRecorder, FrozenApproxOracle,
    FrozenExactOracle, FrozenLayer, HeapBytes, InfluenceOracle, LaneTracer, Layered,
    LayeredApproxOracle, LayeredExactOracle, LayeredKind, LayeredManifest, MetricsRecorder,
    NoopRecorder, NoopTracer, Recorder, RingTracer, Selection, Tracer, DEFAULT_PRECISION,
    FROZEN_APPROX_LAYOUT_VERSION, FROZEN_EXACT_LAYOUT_VERSION,
};
use infprop_datasets::profiles;
use infprop_diffusion::{tcic_spread, tclt_spread, LtWeights, TcicConfig};
use infprop_hll::CodecError;
use infprop_temporal_graph::{
    io, metrics, Interaction, InteractionNetwork, NetworkStats, NodeId, WeightedStaticGraph, Window,
};
use std::error::Error;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

type CmdResult = Result<(), Box<dyn Error>>;

/// True when the command should run with a live [`MetricsRecorder`]
/// (`--metrics` prints the snapshot to stdout, `--metrics-out <path>`
/// writes it to a file; giving only the path implies `--metrics`).
fn metrics_requested(args: &ParsedArgs) -> bool {
    args.boolean("metrics") || args.optional("metrics-out").is_some()
}

/// Drains `rec` into a [`MetricsSnapshot`](infprop_core::MetricsSnapshot)
/// and emits its JSON per the `--metrics`/`--metrics-out` flags.
fn emit_metrics(args: &ParsedArgs, rec: &MetricsRecorder) -> CmdResult {
    let json = rec.snapshot().to_json();
    match args.optional("metrics-out") {
        Some(path) => {
            std::fs::write(path, format!("{json}\n"))?;
            println!("wrote metrics snapshot to {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

/// Creates the live ring tracer when `--trace-out FILE` was given; every
/// traced command sizes the ring for its `--threads` fan-out (one lane per
/// worker plus the caller's lane 0).
fn trace_requested(args: &ParsedArgs, threads: usize) -> Option<RingTracer> {
    args.optional("trace-out").map(|_| RingTracer::new(threads))
}

/// Harvests `ring`, validates the Chrome-trace export in process (the CLI
/// never writes a file Perfetto would reject), and writes it to the
/// `--trace-out` path.
fn emit_trace(args: &ParsedArgs, ring: &RingTracer) -> CmdResult {
    let Some(path) = args.optional("trace-out") else {
        return Ok(());
    };
    let json = trace_to_json(&ring.records());
    let stats = validate_trace_json(&json)
        .map_err(|e| format!("internal: exported trace failed validation: {e}"))?;
    std::fs::write(path, json)?;
    println!(
        "wrote Chrome trace to {path} ({} spans, {} instants)",
        stats.spans, stats.instants
    );
    Ok(())
}

/// Begins a CLI-level span on its own fresh trace (no-op without a ring).
fn begin_root(ring: Option<&RingTracer>, ev: TraceEvent) -> Option<(LaneTracer<'_>, SpanId)> {
    ring.map(|r| {
        let t = r.lane(0);
        let trace = TraceId(t.alloc_traces(1));
        (t, t.begin(trace, SpanId::NONE, ev))
    })
}

/// Closes a span opened by [`begin_root`].
fn end_root(span: Option<(LaneTracer<'_>, SpanId)>, ev: TraceEvent, payload: u64) {
    if let Some((t, sp)) = span {
        t.end(sp, ev, payload);
    }
}

/// Greedy selection against the optional recorder and tracer — all four
/// combinations monomorphize from `greedy_top_k_traced`.
fn greedy(
    oracle: &(impl InfluenceOracle + Sync),
    k: usize,
    threads: usize,
    rec: Option<&MetricsRecorder>,
    ring: Option<&RingTracer>,
) -> Vec<Selection> {
    match (rec, ring) {
        (Some(rec), Some(r)) => greedy_top_k_traced(oracle, k, threads, rec, r.lane(0)),
        (Some(rec), None) => greedy_top_k_traced(oracle, k, threads, rec, NoopTracer),
        (None, Some(r)) => greedy_top_k_traced(oracle, k, threads, &NoopRecorder, r.lane(0)),
        (None, None) => greedy_top_k_threads(oracle, k, threads),
    }
}

/// Validates a `--beta` value and converts it to a sketch precision.
fn beta_to_precision(beta: usize) -> Result<u8, ArgError> {
    if !beta.is_power_of_two() || !(16..=65_536).contains(&beta) {
        return Err(ArgError::BadValue {
            flag: "beta".into(),
            value: beta.to_string(),
            expected: "a power of two in [16, 65536]",
        });
    }
    Ok(beta.trailing_zeros() as u8)
}

fn load(path: &str) -> Result<io::LoadedNetwork, Box<dyn Error>> {
    Ok(io::read_interactions_path(path)?)
}

fn window_of(args: &ParsedArgs, net: &InteractionNetwork) -> Result<Window, Box<dyn Error>> {
    if let Some(raw) = args.optional("window") {
        let w: i64 = raw.parse().map_err(|_| ArgError::BadValue {
            flag: "window".into(),
            value: raw.into(),
            expected: "an absolute window length (time units)",
        })?;
        let window = Window::try_new(w).map_err(|_| ArgError::BadValue {
            flag: "window".into(),
            value: raw.into(),
            expected: "a window of at least 1 time unit",
        })?;
        Ok(window)
    } else {
        let pct: f64 = args.parse_required("window-pct", "a percentage in [0, 100]")?;
        Ok(net.window_from_percent(pct))
    }
}

/// Resolves `--threads` (defaulting to the machine's available
/// parallelism) for the commands with a parallel fan-out.
fn threads_of(args: &ParsedArgs) -> Result<usize, Box<dyn Error>> {
    let threads: usize = args.parse_or(
        "threads",
        infprop_core::par::default_threads(),
        "a worker count of at least 1",
    )?;
    if threads == 0 {
        return Err(Box::new(ArgError::BadValue {
            flag: "threads".into(),
            value: threads.to_string(),
            expected: "a worker count of at least 1",
        }));
    }
    Ok(threads)
}

/// `infprop stats <file> [--units-per-day N]`
pub fn stats(args: &ParsedArgs) -> CmdResult {
    let path = args.one_positional("expected exactly one input path")?;
    let loaded = load(path)?;
    let net = &loaded.network;
    let units: i64 = args.parse_or("units-per-day", 86_400, "ticks per day")?;
    let s = NetworkStats::compute(net, units);
    println!("{path}: {s}");
    println!("  distinct timestamps: {}", net.has_distinct_timestamps());
    let deg = metrics::interaction_out_degree_summary(net);
    println!(
        "  out-degree: max {} mean {:.2} gini {:.3}",
        deg.max, deg.mean, deg.gini
    );
    println!(
        "  contact repetition: {:.2} interactions/static-edge | reciprocity {:.3}",
        metrics::contact_repetition(net),
        metrics::reciprocity(net)
    );
    let profile = metrics::temporal_profile(net);
    println!(
        "  inter-arrival: mean {:.1} std {:.1} | burstiness {:.3}",
        profile.mean_gap, profile.std_gap, profile.burstiness
    );
    Ok(())
}

/// `infprop irs <file> --window-pct P [--exact] [--beta B] [--top K]`
pub fn irs(args: &ParsedArgs) -> CmdResult {
    let path = args.one_positional("expected exactly one input path")?;
    let loaded = load(path)?;
    let net = &loaded.network;
    let window = window_of(args, net)?;
    let top: usize = args.parse_or("top", 10, "an integer")?;
    println!("window = {} time units", window.get());
    let mut sizes: Vec<(NodeId, f64)>;
    if args.boolean("exact") {
        let irs = ExactIrs::compute(net, window);
        sizes = net
            .node_ids()
            .map(|u| (u, irs.irs_size(u) as f64))
            .collect();
    } else {
        let beta: usize = args.parse_or("beta", 512, "a power of two in [16, 65536]")?;
        if !beta.is_power_of_two() || !(16..=65_536).contains(&beta) {
            return Err(Box::new(ArgError::BadValue {
                flag: "beta".into(),
                value: beta.to_string(),
                expected: "a power of two in [16, 65536]",
            }));
        }
        let irs = ApproxIrs::compute_with_precision(net, window, beta.trailing_zeros() as u8);
        sizes = net
            .node_ids()
            .map(|u| (u, irs.irs_size_estimate(u)))
            .collect();
    }
    sizes.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    for (u, size) in sizes.into_iter().take(top) {
        let label = loaded.interner.label(u).unwrap_or("?");
        println!("{label:<20} |IRS| = {size:.1}");
    }
    Ok(())
}

/// `infprop topk <file> --k K --window-pct P [--method M] [--seed S]
///  [--metrics] [--metrics-out PATH]`
///
/// The `irs`/`irs-exact` methods freeze the finished summaries into a
/// contiguous arena ([`FrozenExactOracle`]/[`FrozenApproxOracle`]) before
/// the greedy selection — bit-identical picks, contiguous query path.
///
/// With `--metrics`, the `irs`/`irs-exact` methods run the IRS build and
/// the greedy selection against a live recorder (including the
/// `frozen.bytes` gauge); baseline methods still emit a snapshot, but only
/// the sections they exercise are nonzero.
pub fn topk(args: &ParsedArgs) -> CmdResult {
    let path = args.one_positional("expected exactly one input path")?;
    let loaded = load(path)?;
    let net = &loaded.network;
    let window = window_of(args, net)?;
    let k: usize = args.parse_required("k", "an integer")?;
    let seed: u64 = args.parse_or("seed", 42, "an integer")?;
    let threads = threads_of(args)?;
    let method = args.optional("method").unwrap_or("irs");
    let no_freeze = args.boolean("no-freeze");
    let recorder = metrics_requested(args).then(MetricsRecorder::new);
    let tracer = trace_requested(args, threads);
    let seeds: Vec<NodeId> = match method {
        "irs" => {
            let scan = begin_root(tracer.as_ref(), TraceEvent::BuildReverseScan);
            let irs = match &recorder {
                Some(rec) => {
                    ApproxIrs::compute_with_precision_recorded(net, window, DEFAULT_PRECISION, rec)
                }
                None => ApproxIrs::compute(net, window),
            };
            end_root(
                scan,
                TraceEvent::BuildReverseScan,
                metric_u64(net.interactions().len()),
            );
            let picks = if no_freeze {
                let oracle = irs.oracle();
                if let Some(rec) = &recorder {
                    rec.gauge(Gauge::OracleHeapBytes, metric_u64(oracle.heap_bytes()));
                }
                greedy(&oracle, k, threads, recorder.as_ref(), tracer.as_ref())
            } else {
                let fz = begin_root(tracer.as_ref(), TraceEvent::BuildFreeze);
                let oracle = match &recorder {
                    Some(rec) => irs.freeze_recorded(rec),
                    None => irs.freeze(),
                };
                end_root(fz, TraceEvent::BuildFreeze, metric_u64(oracle.num_nodes()));
                if let Some(rec) = &recorder {
                    rec.gauge(Gauge::OracleHeapBytes, metric_u64(oracle.heap_bytes()));
                }
                greedy(&oracle, k, threads, recorder.as_ref(), tracer.as_ref())
            };
            picks.into_iter().map(|s| s.node).collect()
        }
        "irs-exact" => {
            let scan = begin_root(tracer.as_ref(), TraceEvent::BuildReverseScan);
            let irs = match &recorder {
                Some(rec) => ExactIrs::compute_recorded(net, window, rec),
                None => ExactIrs::compute(net, window),
            };
            end_root(
                scan,
                TraceEvent::BuildReverseScan,
                metric_u64(net.interactions().len()),
            );
            let picks = if no_freeze {
                let oracle = irs.oracle();
                if let Some(rec) = &recorder {
                    rec.gauge(Gauge::OracleHeapBytes, metric_u64(oracle.heap_bytes()));
                }
                greedy(&oracle, k, threads, recorder.as_ref(), tracer.as_ref())
            } else {
                let fz = begin_root(tracer.as_ref(), TraceEvent::BuildFreeze);
                let oracle = match &recorder {
                    Some(rec) => irs.freeze_recorded(rec),
                    None => irs.freeze(),
                };
                end_root(fz, TraceEvent::BuildFreeze, metric_u64(oracle.num_nodes()));
                if let Some(rec) = &recorder {
                    rec.gauge(Gauge::OracleHeapBytes, metric_u64(oracle.heap_bytes()));
                }
                greedy(&oracle, k, threads, recorder.as_ref(), tracer.as_ref())
            };
            picks.into_iter().map(|s| s.node).collect()
        }
        "pagerank" => pagerank_top_k(&net.to_static(), k, &PageRankConfig::default()),
        "hd" => high_degree(&net.to_static(), k),
        "shd" => smart_high_degree(&net.to_static(), k),
        "degree-discount" => degree_discount(&net.to_static(), k, 0.5),
        "skim" => Skim::new(
            &net.to_static(),
            SkimConfig {
                seed,
                ..Default::default()
            },
        )
        .top_k(k),
        "cte" => {
            let weighted = WeightedStaticGraph::from_network(net);
            ConTinEst::new(
                &weighted,
                &ConTinEstConfig::new(window.get() as f64).with_seed(seed),
            )
            .top_k(k)
        }
        other => {
            return Err(Box::new(ArgError::BadValue {
                flag: "method".into(),
                value: other.into(),
                expected: "irs|irs-exact|pagerank|hd|shd|degree-discount|skim|cte",
            }))
        }
    };
    for (rank, u) in seeds.iter().enumerate() {
        let label = loaded.interner.label(*u).unwrap_or("?");
        println!("{:>3}. {label}", rank + 1);
    }
    if let Some(rec) = &recorder {
        emit_metrics(args, rec)?;
    }
    if let Some(ring) = &tracer {
        emit_trace(args, ring)?;
    }
    Ok(())
}

/// `infprop simulate <file> --seeds a,b,c --window-pct P [--p F] [--runs N]
///  [--model tcic|tclt] [--seed S] [--metrics] [--metrics-out PATH]`
///
/// With `--metrics`, the Monte-Carlo spread is timed under `sim.run`, an
/// approximate IRS is built with a live recorder and frozen into a
/// [`FrozenApproxOracle`] arena, and the oracle's `Inf(S)` estimate is
/// printed next to the simulated spread so the two can be compared from
/// one invocation.
pub fn simulate(args: &ParsedArgs) -> CmdResult {
    let path = args.one_positional("expected exactly one input path")?;
    let loaded = load(path)?;
    let net = &loaded.network;
    let window = window_of(args, net)?;
    let ids = args.node_list("seeds")?;
    let seeds: Vec<NodeId> = ids.into_iter().map(NodeId).collect();
    for s in &seeds {
        if s.index() >= net.num_nodes() {
            return Err(Box::new(ArgError::BadValue {
                flag: "seeds".into(),
                value: s.to_string(),
                expected: "node ids inside the network",
            }));
        }
    }
    let p: f64 = args.parse_or("p", 0.5, "a probability")?;
    let runs: usize = args.parse_or("runs", 100, "an integer")?;
    let seed: u64 = args.parse_or("seed", 42, "an integer")?;
    let threads = threads_of(args)?;
    let model = args.optional("model").unwrap_or("tcic");
    let recorder = metrics_requested(args).then(MetricsRecorder::new);
    let tracer = trace_requested(args, threads);
    let sim_start = recorder.as_ref().map(|rec| rec.span_start());
    let run = begin_root(tracer.as_ref(), TraceEvent::SimulateRun);
    let spread = match model {
        "tcic" => {
            let cfg = TcicConfig::new(window, p)
                .with_runs(runs)
                .with_seed(seed)
                .with_threads(threads);
            tcic_spread(net, &seeds, &cfg)
        }
        "tclt" => {
            let weights = LtWeights::from_network(net);
            tclt_spread(net, &weights, &seeds, window, runs, seed)
        }
        other => {
            return Err(Box::new(ArgError::BadValue {
                flag: "model".into(),
                value: other.into(),
                expected: "tcic|tclt",
            }))
        }
    };
    end_root(run, TraceEvent::SimulateRun, metric_u64(runs));
    println!(
        "{model} spread of {} seeds over {runs} runs (w = {}, p = {p}): {spread:.2}",
        seeds.len(),
        window.get()
    );
    if let Some(rec) = &recorder {
        if let Some(start) = sim_start {
            rec.span_end(Span::SimRun, start);
        }
        rec.add(Counter::SimRuns, metric_u64(runs));
        let irs = ApproxIrs::compute_with_precision_recorded(net, window, DEFAULT_PRECISION, rec);
        let estimate = if args.boolean("no-freeze") {
            let oracle = irs.oracle();
            rec.gauge(Gauge::OracleHeapBytes, metric_u64(oracle.heap_bytes()));
            oracle.influence_recorded(&seeds, rec)
        } else {
            let oracle = irs.freeze_recorded(rec);
            rec.gauge(Gauge::OracleHeapBytes, metric_u64(oracle.heap_bytes()));
            oracle.influence_recorded(&seeds, rec)
        };
        println!("irs oracle estimate Inf(S) = {estimate:.1}");
        emit_metrics(args, rec)?;
    }
    if let Some(ring) = &tracer {
        emit_trace(args, ring)?;
    }
    Ok(())
}

/// `infprop channel <file> --from U --to V --window-pct P`
pub fn channel(args: &ParsedArgs) -> CmdResult {
    let path = args.one_positional("expected exactly one input path")?;
    let loaded = load(path)?;
    let net = &loaded.network;
    let window = window_of(args, net)?;
    let from: u32 = args.parse_required("from", "a node id")?;
    let to: u32 = args.parse_required("to", "a node id")?;
    match find_channel(net, NodeId(from), NodeId(to), window) {
        Some(c) => {
            println!(
                "channel with {} hops, duration {}, end time {}:",
                c.hops.len(),
                c.duration(),
                c.end_time()
            );
            for hop in &c.hops {
                let s = loaded.interner.label(hop.src).unwrap_or("?");
                let d = loaded.interner.label(hop.dst).unwrap_or("?");
                println!("  {s} -> {d} @ {}", hop.time);
            }
        }
        None => println!("no information channel within the window"),
    }
    Ok(())
}

/// `infprop generate --profile NAME --scale S [--seed N] --out FILE`
pub fn generate(args: &ParsedArgs) -> CmdResult {
    let name = args.required("profile")?;
    let scale: f64 = args.parse_required("scale", "a fraction in (0, 1]")?;
    let seed: u64 = args.parse_or("seed", 42, "an integer")?;
    let out = args.required("out")?;
    let profile = match name {
        "enron" => profiles::enron_like(seed),
        "lkml" => profiles::lkml_like(seed),
        "facebook" => profiles::facebook_like(seed),
        "higgs" => profiles::higgs_like(seed),
        "slashdot" => profiles::slashdot_like(seed),
        "us2016" => profiles::us2016_like(seed),
        other => {
            return Err(Box::new(ArgError::BadValue {
                flag: "profile".into(),
                value: other.into(),
                expected: "enron|lkml|facebook|higgs|slashdot|us2016",
            }))
        }
    };
    let dataset = profile.build(scale);
    io::write_interactions_path(&dataset.network, out)?;
    let s = NetworkStats::compute(&dataset.network, dataset.units_per_day);
    println!("wrote {out}: {s}");
    Ok(())
}

/// `infprop build <file> --window-pct P --out oracle.bin
///  [--beta B | --exact] [--frozen] [--metrics] [--metrics-out PATH]`
///
/// (Also reachable under its historical name `oracle-build`.)
///
/// With `--frozen`, the finished summaries are frozen into a contiguous
/// arena and written in the flat `IPFE` (exact) / `IPFA` (sketch) format,
/// which `oracle-query` loads with bulk reads and no per-node allocation.
///
/// With `--metrics`, the IRS build runs against a live recorder and — after
/// the oracle is written — one recorded individual-influence sweep probes
/// the oracle, so the snapshot carries nonzero `engine.*`, store, and
/// `oracle.*` sections (plus `frozen.bytes` under `--frozen`).
pub fn oracle_build(args: &ParsedArgs) -> CmdResult {
    let path = args.one_positional("expected exactly one input path")?;
    let loaded = load(path)?;
    let net = &loaded.network;
    let window = window_of(args, net)?;
    let out = args.required("out")?;
    let threads = threads_of(args)?;
    let frozen = args.boolean("frozen");
    let recorder = metrics_requested(args).then(MetricsRecorder::new);
    let tracer = trace_requested(args, threads);
    if args.boolean("layered") {
        build_layered(args, net, window, out, &recorder, tracer.as_ref())?;
        if let Some(rec) = &recorder {
            emit_metrics(args, rec)?;
        }
        if let Some(ring) = &tracer {
            emit_trace(args, ring)?;
        }
        return Ok(());
    }
    let mut w = BufWriter::new(File::create(out)?);
    if args.boolean("exact") {
        let scan = begin_root(tracer.as_ref(), TraceEvent::BuildReverseScan);
        let irs = match &recorder {
            Some(rec) => ExactIrs::compute_recorded(net, window, rec),
            None => ExactIrs::compute(net, window),
        };
        end_root(
            scan,
            TraceEvent::BuildReverseScan,
            metric_u64(net.interactions().len()),
        );
        if frozen {
            let fz = begin_root(tracer.as_ref(), TraceEvent::BuildFreeze);
            let arena = match &recorder {
                Some(rec) => irs.freeze_recorded(rec),
                None => irs.freeze(),
            };
            end_root(fz, TraceEvent::BuildFreeze, metric_u64(net.num_nodes()));
            arena.write_to(&mut w)?;
            println!(
                "wrote {out}: frozen exact arena for {} nodes ({} entries), window = {}",
                net.num_nodes(),
                arena.total_entries(),
                window.get()
            );
            if let Some(rec) = &recorder {
                rec.gauge(Gauge::OracleHeapBytes, metric_u64(arena.heap_bytes()));
                let _ = arena.individuals_recorded(threads, rec);
            }
        } else {
            irs.write_to(&mut w)?;
            println!(
                "wrote {out}: exact summaries for {} nodes ({} entries), window = {}",
                net.num_nodes(),
                irs.total_entries(),
                window.get()
            );
            if let Some(rec) = &recorder {
                let oracle = irs.oracle();
                rec.gauge(Gauge::OracleHeapBytes, metric_u64(oracle.heap_bytes()));
                let _ = oracle.individuals_recorded(threads, rec);
            }
        }
    } else {
        let beta: usize = args.parse_or("beta", 512, "a power of two in [16, 65536]")?;
        let precision = beta_to_precision(beta)?;
        let scan = begin_root(tracer.as_ref(), TraceEvent::BuildReverseScan);
        let irs = match &recorder {
            Some(rec) => ApproxIrs::compute_with_precision_recorded(net, window, precision, rec),
            None => ApproxIrs::compute_with_precision(net, window, precision),
        };
        end_root(
            scan,
            TraceEvent::BuildReverseScan,
            metric_u64(net.interactions().len()),
        );
        if frozen {
            let fz = begin_root(tracer.as_ref(), TraceEvent::BuildFreeze);
            let arena = match &recorder {
                Some(rec) => irs.freeze_recorded(rec),
                None => irs.freeze(),
            };
            end_root(fz, TraceEvent::BuildFreeze, metric_u64(net.num_nodes()));
            arena.write_to(&mut w)?;
            println!(
                "wrote {out}: frozen register arena for {} nodes, beta = {beta}, window = {}",
                net.num_nodes(),
                window.get()
            );
            if let Some(rec) = &recorder {
                rec.gauge(Gauge::OracleHeapBytes, metric_u64(arena.heap_bytes()));
                let _ = arena.individuals_recorded(threads, rec);
            }
        } else {
            let oracle = irs.oracle();
            oracle.write_to(&mut w)?;
            println!(
                "wrote {out}: {} node sketches, beta = {beta}, window = {}",
                net.num_nodes(),
                window.get()
            );
            if let Some(rec) = &recorder {
                rec.gauge(Gauge::OracleHeapBytes, metric_u64(oracle.heap_bytes()));
                let _ = oracle.individuals_recorded(threads, rec);
            }
        }
    }
    if let Some(rec) = &recorder {
        emit_metrics(args, rec)?;
    }
    if let Some(ring) = &tracer {
        emit_trace(args, ring)?;
    }
    Ok(())
}

/// `build --layered`: builds the base arena from the network, seeds the
/// delta with the window tail, and saves the generation-0 layered
/// directory (see `append` / `compact`).
fn build_layered(
    args: &ParsedArgs,
    net: &InteractionNetwork,
    window: Window,
    out: &str,
    recorder: &Option<MetricsRecorder>,
    tracer: Option<&RingTracer>,
) -> CmdResult {
    let dir = Path::new(out);
    if args.boolean("exact") {
        let scan = begin_root(tracer, TraceEvent::BuildReverseScan);
        let irs = match recorder {
            Some(rec) => ExactIrs::compute_recorded(net, window, rec),
            None => ExactIrs::compute(net, window),
        };
        end_root(
            scan,
            TraceEvent::BuildReverseScan,
            metric_u64(net.interactions().len()),
        );
        let fz = begin_root(tracer, TraceEvent::BuildFreeze);
        let oracle = irs.layered(net);
        end_root(fz, TraceEvent::BuildFreeze, metric_u64(net.num_nodes()));
        oracle.save_layered(dir)?;
        println!(
            "wrote {out}: layered exact oracle (generation 0) for {} nodes, window = {}, tail = {} interactions",
            net.num_nodes(),
            window.get(),
            oracle.delta().tail().len()
        );
    } else {
        let beta: usize = args.parse_or("beta", 512, "a power of two in [16, 65536]")?;
        let precision = beta_to_precision(beta)?;
        let scan = begin_root(tracer, TraceEvent::BuildReverseScan);
        let irs = match recorder {
            Some(rec) => ApproxIrs::compute_with_precision_recorded(net, window, precision, rec),
            None => ApproxIrs::compute_with_precision(net, window, precision),
        };
        end_root(
            scan,
            TraceEvent::BuildReverseScan,
            metric_u64(net.interactions().len()),
        );
        let fz = begin_root(tracer, TraceEvent::BuildFreeze);
        let oracle = irs.layered(net);
        end_root(fz, TraceEvent::BuildFreeze, metric_u64(net.num_nodes()));
        oracle.save_layered(dir)?;
        println!(
            "wrote {out}: layered sketch oracle (generation 0) for {} nodes, beta = {beta}, window = {}, tail = {} interactions",
            net.num_nodes(),
            window.get(),
            oracle.delta().tail().len()
        );
    }
    Ok(())
}

/// Reads a forward-append file: `src dst time` per line with **raw numeric
/// node ids** in the oracle's id space (`#` comments and blank lines
/// skipped; new ids grow the universe). Returns the batch sorted by time.
fn read_append_file(path: &str) -> Result<Vec<Interaction>, Box<dyn Error>> {
    let text = std::fs::read_to_string(path)?;
    let mut batch = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split([' ', '\t', ',']).filter(|p| !p.is_empty());
        let (Some(s), Some(d), Some(t)) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!("{path}:{}: expected `src dst time`", idx + 1).into());
        };
        let src: u32 = s
            .parse()
            .map_err(|_| format!("{path}:{}: bad src node id {s:?}", idx + 1))?;
        let dst: u32 = d
            .parse()
            .map_err(|_| format!("{path}:{}: bad dst node id {d:?}", idx + 1))?;
        let time: i64 = t
            .parse()
            .map_err(|_| format!("{path}:{}: bad timestamp {t:?}", idx + 1))?;
        batch.push(Interaction::from_raw(src, dst, time));
    }
    batch.sort_by_key(|i| i.time);
    Ok(batch)
}

/// `infprop append <dir> <file> [--metrics] [--metrics-out PATH]`
///
/// Buffers the file's interactions (which must not move behind the
/// oracle's frontier) into the layered directory's pending log. Only the
/// `gen-N.pending` file is rewritten — the frozen base arena, tail, and
/// manifest stay untouched until the next `compact`.
pub fn append(args: &ParsedArgs) -> CmdResult {
    let (dir, file) = args.two_positional("expected an oracle directory and an append file")?;
    let batch = read_append_file(file)?;
    let recorder = metrics_requested(args).then(MetricsRecorder::new);
    let tracer = trace_requested(args, 1);
    let dir_path = Path::new(dir);
    let manifest = LayeredManifest::read_from_dir(dir_path)?;
    let sp = begin_root(tracer.as_ref(), TraceEvent::AppendBatch);
    let (generation, pending) = match manifest.kind {
        LayeredKind::Exact => {
            append_layered::<FrozenExactOracle>(dir_path, &batch, recorder.as_ref())?
        }
        LayeredKind::Approx => {
            append_layered::<FrozenApproxOracle>(dir_path, &batch, recorder.as_ref())?
        }
    };
    end_root(sp, TraceEvent::AppendBatch, metric_u64(batch.len()));
    println!(
        "appended {} interactions to {dir} (generation {generation}, {pending} pending)",
        batch.len()
    );
    if let Some(rec) = &recorder {
        emit_metrics(args, rec)?;
    }
    if let Some(ring) = &tracer {
        emit_trace(args, ring)?;
    }
    Ok(())
}

/// Opens the layered directory `dir`, buffers `batch` into its pending log
/// and rewrites `gen-N.pending`. Returns the generation and the pending
/// count.
fn append_layered<B: FrozenLayer>(
    dir: &Path,
    batch: &[Interaction],
    recorder: Option<&MetricsRecorder>,
) -> Result<(u64, usize), Box<dyn Error>> {
    let mut oracle = Layered::<B>::open_layered(dir)?;
    match recorder {
        Some(rec) => oracle.append_batch_recorded(batch, rec)?,
        None => oracle.append_batch_recorded(batch, &NoopRecorder)?,
    }
    oracle.persist_pending(dir)?;
    Ok((oracle.generation(), oracle.delta().pending().len()))
}

/// `infprop compact <dir> [--metrics] [--metrics-out PATH]`
///
/// LSM-style re-freeze: expires interactions outside the window of the
/// frontier, rebuilds a fresh base arena over the survivors, and commits
/// the next generation (previous generation files are swept only after
/// the manifest rename, so an interrupted compaction leaves the old
/// generation loadable).
pub fn compact(args: &ParsedArgs) -> CmdResult {
    let dir = args.one_positional("expected exactly one oracle directory")?;
    let recorder = metrics_requested(args).then(MetricsRecorder::new);
    let tracer = trace_requested(args, 1);
    let dir_path = Path::new(dir);
    let manifest = LayeredManifest::read_from_dir(dir_path)?;
    let (generation, expired, tail) = match manifest.kind {
        LayeredKind::Exact => {
            compact_layered::<FrozenExactOracle>(dir_path, recorder.as_ref(), tracer.as_ref())?
        }
        LayeredKind::Approx => {
            compact_layered::<FrozenApproxOracle>(dir_path, recorder.as_ref(), tracer.as_ref())?
        }
    };
    println!(
        "compacted {dir}: generation {generation}, {expired} interactions expired, {tail} in tail"
    );
    if let Some(rec) = &recorder {
        emit_metrics(args, rec)?;
    }
    if let Some(ring) = &tracer {
        emit_trace(args, ring)?;
    }
    Ok(())
}

/// Opens the layered directory `dir`, compacts it and saves the next
/// generation. Returns the generation, the expired interaction count and
/// the tail length.
fn compact_layered<B: FrozenLayer>(
    dir: &Path,
    recorder: Option<&MetricsRecorder>,
    tracer: Option<&RingTracer>,
) -> Result<(u64, usize, usize), Box<dyn Error>> {
    let mut oracle = Layered::<B>::open_layered(dir)?;
    let before = oracle.delta().log().len();
    match (recorder, tracer) {
        (Some(rec), Some(r)) => oracle.compact_traced(rec, r.lane(0)),
        (Some(rec), None) => oracle.compact_traced(rec, NoopTracer),
        (None, Some(r)) => oracle.compact_traced(&NoopRecorder, r.lane(0)),
        (None, None) => oracle.compact(),
    }
    oracle.save_layered(dir)?;
    let tail = oracle.delta().tail().len();
    Ok((oracle.generation(), before - tail, tail))
}

/// One loaded oracle of any supported on-disk format, unified for the
/// query loop of [`oracle_query`].
enum LoadedOracle {
    ExactSummaries(ExactIrs),
    FrozenExact(FrozenExactOracle),
    FrozenApprox(FrozenApproxOracle),
    Sketches(ApproxOracle),
    LayeredExact(Box<LayeredExactOracle>),
    LayeredApprox(Box<LayeredApproxOracle>),
}

impl LoadedOracle {
    /// Human-readable description of the detected on-disk format.
    fn format(&self) -> String {
        match self {
            LoadedOracle::ExactSummaries(_) => "IPEI exact summaries (live)".into(),
            LoadedOracle::FrozenExact(_) => "IPFE frozen exact arena".into(),
            LoadedOracle::FrozenApprox(_) => "IPFA frozen register arena".into(),
            LoadedOracle::Sketches(_) => "IPAO sketch oracle (live)".into(),
            LoadedOracle::LayeredExact(o) => {
                format!(
                    "layered exact oracle directory (generation {}, {} pending)",
                    o.generation(),
                    o.delta().pending().len()
                )
            }
            LoadedOracle::LayeredApprox(o) => {
                format!(
                    "layered sketch oracle directory (generation {}, {} pending)",
                    o.generation(),
                    o.delta().pending().len()
                )
            }
        }
    }

    fn num_nodes(&self) -> usize {
        match self {
            LoadedOracle::ExactSummaries(v) => v.num_nodes(),
            LoadedOracle::FrozenExact(v) => v.num_nodes(),
            LoadedOracle::FrozenApprox(v) => v.num_nodes(),
            LoadedOracle::Sketches(v) => v.num_nodes(),
            LoadedOracle::LayeredExact(v) => InfluenceOracle::num_nodes(v.as_ref()),
            LoadedOracle::LayeredApprox(v) => InfluenceOracle::num_nodes(v.as_ref()),
        }
    }

    fn influence(&self, seeds: &[NodeId], rec: Option<&MetricsRecorder>) -> f64 {
        match rec {
            Some(rec) => match self {
                LoadedOracle::ExactSummaries(v) => v.oracle().influence_recorded(seeds, rec),
                LoadedOracle::FrozenExact(v) => v.influence_recorded(seeds, rec),
                LoadedOracle::FrozenApprox(v) => v.influence_recorded(seeds, rec),
                LoadedOracle::Sketches(v) => v.influence_recorded(seeds, rec),
                LoadedOracle::LayeredExact(v) => v.influence_recorded(seeds, rec),
                LoadedOracle::LayeredApprox(v) => v.influence_recorded(seeds, rec),
            },
            None => match self {
                LoadedOracle::ExactSummaries(v) => v.oracle().influence(seeds),
                LoadedOracle::FrozenExact(v) => v.influence(seeds),
                LoadedOracle::FrozenApprox(v) => v.influence(seeds),
                LoadedOracle::Sketches(v) => v.influence(seeds),
                LoadedOracle::LayeredExact(v) => v.influence(seeds),
                LoadedOracle::LayeredApprox(v) => v.influence(seeds),
            },
        }
    }

    /// Answers every seed set through the true batch API where the format
    /// has one (frozen arenas and layered oracles), amortizing seed dedup
    /// and per-query scratch across the whole file and fanning out over
    /// `threads` workers. The live single-file formats (`IPEI`/`IPAO`)
    /// have no frozen arena to batch over, so they fall back to the
    /// per-query path — timed per query under `kernel.query_ns` so the
    /// latency summary is available for every format.
    fn influence_many(
        &self,
        seed_sets: &[Vec<NodeId>],
        threads: usize,
        rec: Option<&MetricsRecorder>,
        ring: Option<&RingTracer>,
    ) -> Vec<f64> {
        if let Some(r) = ring {
            return self.influence_many_traced(seed_sets, threads, rec, r);
        }
        match rec {
            Some(rec) => match self {
                LoadedOracle::FrozenExact(v) => {
                    v.influence_many_frozen_traced(seed_sets, threads, rec, NoopTracer)
                }
                LoadedOracle::FrozenApprox(v) => {
                    v.influence_many_frozen_traced(seed_sets, threads, rec, NoopTracer)
                }
                LoadedOracle::LayeredExact(v) => {
                    v.influence_many_frozen_traced(seed_sets, threads, rec, NoopTracer)
                }
                LoadedOracle::LayeredApprox(v) => {
                    v.influence_many_frozen_traced(seed_sets, threads, rec, NoopTracer)
                }
                live => seed_sets
                    .iter()
                    .map(|seeds| {
                        let tq = rec.span_start();
                        let influence = live.influence(seeds, Some(rec));
                        if let Some(ns) = tq.elapsed_ns() {
                            rec.record(Hist::KernelQueryNs, ns);
                        }
                        influence
                    })
                    .collect(),
            },
            None => match self {
                LoadedOracle::FrozenExact(v) => v.influence_many_frozen(seed_sets, threads),
                LoadedOracle::FrozenApprox(v) => v.influence_many_frozen(seed_sets, threads),
                LoadedOracle::LayeredExact(v) => v.influence_many_frozen(seed_sets, threads),
                LoadedOracle::LayeredApprox(v) => v.influence_many_frozen(seed_sets, threads),
                live => seed_sets
                    .iter()
                    .map(|seeds| live.influence(seeds, None))
                    .collect(),
            },
        }
    }

    /// Traced twin of [`LoadedOracle::influence_many`]: frozen and layered
    /// formats answer through the traced batch kernel (one trace per batch
    /// element, `query.batch` + `query.element` spans on lane 0); live
    /// single-file formats keep their per-query fallback, wrapped in a
    /// CLI-level `query.batch` span with one `query.element` span per line.
    fn influence_many_traced(
        &self,
        seed_sets: &[Vec<NodeId>],
        threads: usize,
        rec: Option<&MetricsRecorder>,
        ring: &RingTracer,
    ) -> Vec<f64> {
        macro_rules! frozen_traced {
            ($v:expr) => {
                match rec {
                    Some(rec) => {
                        $v.influence_many_frozen_traced(seed_sets, threads, rec, ring.lane(0))
                    }
                    None => $v.influence_many_frozen_traced(
                        seed_sets,
                        threads,
                        &NoopRecorder,
                        ring.lane(0),
                    ),
                }
            };
        }
        match self {
            LoadedOracle::FrozenExact(v) => frozen_traced!(v),
            LoadedOracle::FrozenApprox(v) => frozen_traced!(v),
            LoadedOracle::LayeredExact(v) => frozen_traced!(v),
            LoadedOracle::LayeredApprox(v) => frozen_traced!(v),
            live => {
                let t = ring.lane(0);
                let trace = TraceId(t.alloc_traces(1));
                let batch = t.begin(trace, SpanId::NONE, TraceEvent::QueryBatch);
                let answers = seed_sets
                    .iter()
                    .map(|seeds| {
                        let sp = t.begin(trace, batch, TraceEvent::QueryElement);
                        let tq = rec.map(|rec| rec.span_start());
                        let influence = live.influence(seeds, rec);
                        if let (Some(rec), Some(tq)) = (rec, tq) {
                            if let Some(ns) = tq.elapsed_ns() {
                                rec.record(Hist::KernelQueryNs, ns);
                            }
                        }
                        t.end(sp, TraceEvent::QueryElement, metric_u64(seeds.len()));
                        influence
                    })
                    .collect();
                t.end(batch, TraceEvent::QueryBatch, metric_u64(seed_sets.len()));
                answers
            }
        }
    }
}

/// Rewrites a [`CodecError`] from a frozen-arena load into a precise,
/// format-aware message: which format was detected, which layout version
/// the file carries, and which version this build reads. Several layout
/// versions have been written over time, so "corrupt file" is no useful
/// diagnosis for what is usually just a build/file version skew.
fn describe_arena_error(format: &str, current: u8, err: CodecError) -> Box<dyn Error> {
    match err {
        CodecError::FutureVersion(found) => format!(
            "{format}: file has layout version {found}, but this build reads version {current} \
             (rebuild the arena or upgrade infprop)"
        )
        .into(),
        CodecError::BadVersion(found) => format!(
            "{format}: file has layout version {found}, expected {current} \
             (older layouts are no longer read: rebuild the arena)"
        )
        .into(),
        other => format!("{format}: {other}").into(),
    }
}

/// Loads any supported oracle artefact: a layered directory (dispatched
/// through its `MANIFEST`) or a single file (format detected by magic).
/// Frozen arenas load zero-copy through
/// [`ArenaBytes`](infprop_core::ArenaBytes) — `mmap(2)` when built with
/// `--features mmap`, one aligned bulk read otherwise — then get the deep
/// per-byte validation the structural load skips.
fn load_oracle(path: &str) -> Result<LoadedOracle, Box<dyn Error>> {
    if std::fs::metadata(path)?.is_dir() {
        let dir = Path::new(path);
        let manifest = LayeredManifest::read_from_dir(dir)?;
        return Ok(match manifest.kind {
            LayeredKind::Exact => {
                LoadedOracle::LayeredExact(Box::new(LayeredExactOracle::open_layered(dir)?))
            }
            LayeredKind::Approx => {
                LoadedOracle::LayeredApprox(Box::new(LayeredApproxOracle::open_layered(dir)?))
            }
        });
    }
    let mut magic = [0u8; 4];
    {
        use std::io::Read;
        File::open(path)?.read_exact(&mut magic)?;
    }
    Ok(match &magic {
        b"IPEI" => {
            let mut r = BufReader::new(File::open(path)?);
            LoadedOracle::ExactSummaries(ExactIrs::read_from(&mut r)?)
        }
        b"IPFE" => {
            let oracle = FrozenExactOracle::load(Path::new(path)).map_err(|e| {
                describe_arena_error("IPFE frozen exact arena", FROZEN_EXACT_LAYOUT_VERSION, e)
            })?;
            oracle
                .validate()
                .map_err(|v| format!("IPFE frozen exact arena: {v}"))?;
            LoadedOracle::FrozenExact(oracle)
        }
        b"IPFA" => {
            let oracle = FrozenApproxOracle::load(Path::new(path)).map_err(|e| {
                describe_arena_error(
                    "IPFA frozen register arena",
                    FROZEN_APPROX_LAYOUT_VERSION,
                    e,
                )
            })?;
            oracle
                .validate()
                .map_err(|v| format!("IPFA frozen register arena: {v}"))?;
            LoadedOracle::FrozenApprox(oracle)
        }
        _ => {
            let mut r = BufReader::new(File::open(path)?);
            LoadedOracle::Sketches(ApproxOracle::read_from(&mut r)?)
        }
    })
}

/// `infprop oracle-query <oracle-path> (--seeds a,b,c | --queries FILE)
///  [--threads N] [--metrics] [--metrics-out PATH]`
///
/// `<oracle-path>` is a single-file oracle (format detected by magic:
/// `IPAO` sketches, `IPEI` exact summaries, frozen arenas `IPFE`/`IPFA`)
/// or a layered oracle directory written by `build --layered` (detected
/// by its `MANIFEST`). `--queries FILE` answers one seed set per line
/// (comma-separated node ids): the whole file is parsed up front and
/// answered in one call through the frozen batch API (`--threads N`
/// controls the fan-out; live formats fall back to a per-query loop).
/// With `--metrics`, the detected format is printed, the load is timed
/// under the `oracle.load` span, every query is counted in the
/// `oracle.*`/`kernel.*` sections of the snapshot, and the batch prints
/// a per-query p50/p99/p999/mean latency line from the
/// `kernel.query_ns` histogram. With `--trace-out FILE`, the load and
/// every query run under the causal tracer and the run is exported as
/// Chrome Trace Event JSON.
pub fn oracle_query(args: &ParsedArgs) -> CmdResult {
    let path = args.one_positional("expected exactly one oracle path")?;
    let threads = threads_of(args)?;
    let recorder = metrics_requested(args).then(MetricsRecorder::new);
    let tracer = trace_requested(args, threads);
    let load_start = recorder.as_ref().map(|rec| rec.span_start());
    let load_sp = begin_root(tracer.as_ref(), TraceEvent::LoadOracle);
    let oracle = load_oracle(path)?;
    end_root(
        load_sp,
        TraceEvent::LoadOracle,
        metric_u64(oracle.num_nodes()),
    );
    if let (Some(rec), Some(start)) = (&recorder, load_start) {
        if let Some(ns) = start.elapsed_ns() {
            rec.record(Hist::OracleLoadNs, ns);
            println!("load latency: {:.3} ms", ns as f64 / 1e6);
        }
        rec.span_end(Span::OracleLoad, start);
        println!("format: {}", oracle.format());
    }
    let n = oracle.num_nodes();
    let check_seeds = |seeds: &[NodeId]| -> Result<(), ArgError> {
        for s in seeds {
            if s.index() >= n {
                return Err(ArgError::BadValue {
                    flag: "seeds".into(),
                    value: s.to_string(),
                    expected: "node ids inside the oracle",
                });
            }
        }
        Ok(())
    };
    if let Some(queries) = args.optional("queries") {
        // Parse the whole file up front so every query goes through the
        // batch API in one call: dedup, scratch, and thread fan-out are
        // amortized across the file instead of paid per line.
        let text = std::fs::read_to_string(queries)?;
        let mut labels: Vec<&str> = Vec::new();
        let mut seed_sets: Vec<Vec<NodeId>> = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut seeds = Vec::new();
            for tok in line.split(',').filter(|t| !t.trim().is_empty()) {
                let id: u32 = tok
                    .trim()
                    .parse()
                    .map_err(|_| format!("{queries}: bad node id {tok:?}"))?;
                seeds.push(NodeId(id));
            }
            check_seeds(&seeds)?;
            labels.push(line);
            seed_sets.push(seeds);
        }
        let answers =
            oracle.influence_many(&seed_sets, threads, recorder.as_ref(), tracer.as_ref());
        for (line, influence) in labels.iter().zip(&answers) {
            println!("Inf({line}) = {influence:.1}");
        }
        if let Some(rec) = &recorder {
            let snap = rec.snapshot();
            if let Some(h) = snap
                .hists
                .iter()
                .find(|h| h.name == Hist::KernelQueryNs.name() && h.count > 0)
            {
                println!(
                    "per-query latency: p50 {} ns, p99 {} ns, p999 {} ns, mean {:.1} ns over {} queries",
                    h.quantile(0.50),
                    h.quantile(0.99),
                    h.quantile(0.999),
                    h.mean(),
                    h.count
                );
            }
        }
    } else {
        let ids = args.node_list("seeds")?;
        let seeds: Vec<NodeId> = ids.into_iter().map(NodeId).collect();
        check_seeds(&seeds)?;
        let q = begin_root(tracer.as_ref(), TraceEvent::QueryBatch);
        let influence = oracle.influence(&seeds, recorder.as_ref());
        end_root(q, TraceEvent::QueryBatch, 1);
        println!("Inf(S) = {influence:.1}");
    }
    if let Some(rec) = &recorder {
        emit_metrics(args, rec)?;
    }
    if let Some(ring) = &tracer {
        emit_trace(args, ring)?;
    }
    Ok(())
}

/// Greedy selection over any loaded oracle format (used by `profile`).
fn greedy_any(
    oracle: &LoadedOracle,
    k: usize,
    threads: usize,
    rec: Option<&MetricsRecorder>,
    ring: Option<&RingTracer>,
) -> Vec<Selection> {
    match oracle {
        LoadedOracle::ExactSummaries(v) => greedy(&v.oracle(), k, threads, rec, ring),
        LoadedOracle::FrozenExact(v) => greedy(v, k, threads, rec, ring),
        LoadedOracle::FrozenApprox(v) => greedy(v, k, threads, rec, ring),
        LoadedOracle::Sketches(v) => greedy(v, k, threads, rec, ring),
        LoadedOracle::LayeredExact(v) => greedy(v.as_ref(), k, threads, rec, ring),
        LoadedOracle::LayeredApprox(v) => greedy(v.as_ref(), k, threads, rec, ring),
    }
}

/// `infprop profile <oracle-path> [--queries FILE | --rounds N] [--k K]
///  [--threads N] [--slowest K] [--metrics] [--metrics-out FILE]
///  [--trace-out FILE]`
///
/// Always-on profiler: loads an oracle, replays a query workload against
/// it with the ring tracer live (the workload is either `--queries FILE`,
/// one comma-separated seed set per line, or a synthesized deterministic
/// set of `--rounds` three-seed queries), optionally runs a greedy
/// `--k`-seed selection, then prints a per-phase self/total time
/// attribution table and the `--slowest` traces by wall time from the
/// flight recorder. `--trace-out FILE` additionally exports the full
/// Chrome trace for Perfetto.
pub fn profile(args: &ParsedArgs) -> CmdResult {
    let path = args.one_positional("expected exactly one oracle path")?;
    let threads = threads_of(args)?;
    let recorder = metrics_requested(args).then(MetricsRecorder::new);
    let ring = RingTracer::new(threads);
    let t = ring.lane(0);
    let root_trace = TraceId(t.alloc_traces(1));
    let root = t.begin(root_trace, SpanId::NONE, TraceEvent::ProfileRun);

    let load_start = recorder.as_ref().map(|rec| rec.span_start());
    let load_sp = t.begin(root_trace, root, TraceEvent::LoadOracle);
    let oracle = load_oracle(path)?;
    t.end(
        load_sp,
        TraceEvent::LoadOracle,
        metric_u64(oracle.num_nodes()),
    );
    if let (Some(rec), Some(start)) = (&recorder, load_start) {
        if let Some(ns) = start.elapsed_ns() {
            rec.record(Hist::OracleLoadNs, ns);
        }
        rec.span_end(Span::OracleLoad, start);
    }
    println!("format: {}", oracle.format());
    let n = oracle.num_nodes();

    let seed_sets: Vec<Vec<NodeId>> = match args.optional("queries") {
        Some(queries) => {
            let text = std::fs::read_to_string(queries)?;
            let mut sets = Vec::new();
            for line in text.lines() {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                let mut seeds = Vec::new();
                for tok in line.split(',').filter(|tk| !tk.trim().is_empty()) {
                    let id: u32 = tok
                        .trim()
                        .parse()
                        .map_err(|_| format!("{queries}: bad node id {tok:?}"))?;
                    if (id as usize) >= n {
                        return Err(Box::new(ArgError::BadValue {
                            flag: "queries".into(),
                            value: id.to_string(),
                            expected: "node ids inside the oracle",
                        }));
                    }
                    seeds.push(NodeId(id));
                }
                sets.push(seeds);
            }
            sets
        }
        None => {
            // Deterministic synthetic workload: `--rounds` three-seed
            // queries striding the id space so repeated runs are
            // comparable without a query file.
            let rounds: usize = args.parse_or("rounds", 64, "an integer")?;
            (0..rounds)
                .map(|q| {
                    if n == 0 {
                        Vec::new()
                    } else {
                        (0..3)
                            .map(|j| NodeId(((q * 7 + j * 11 + 1) % n) as u32))
                            .collect()
                    }
                })
                .collect()
        }
    };
    let answers = oracle.influence_many(&seed_sets, threads, recorder.as_ref(), Some(&ring));
    let total: f64 = answers.iter().sum();
    println!(
        "answered {} queries (sum of Inf = {total:.1})",
        seed_sets.len()
    );

    let k: usize = args.parse_or("k", 0, "an integer")?;
    if k > 0 {
        let picks = greedy_any(&oracle, k, threads, recorder.as_ref(), Some(&ring));
        let ids: Vec<String> = picks.iter().map(|s| s.node.0.to_string()).collect();
        println!("greedy top-{k}: [{}]", ids.join(", "));
    }
    t.end(root, TraceEvent::ProfileRun, metric_u64(seed_sets.len()));

    let records = ring.records();
    println!("phase attribution (total includes children, self excludes them):");
    println!(
        "{:<24} {:>8} {:>14} {:>14}",
        "event", "count", "total ms", "self ms"
    );
    for stat in attribution(&records) {
        println!(
            "{:<24} {:>8} {:>14.3} {:>14.3}",
            stat.event.name(),
            stat.count,
            stat.total_ns as f64 / 1e6,
            stat.self_ns as f64 / 1e6
        );
    }
    let slowest: usize = args.parse_or("slowest", 8, "an integer")?;
    let mut flight = FlightRecorder::new(slowest);
    flight.absorb(&records);
    let kept = flight.slowest();
    if !kept.is_empty() {
        println!("slowest {} traces by wall time:", kept.len());
        for s in kept {
            println!(
                "  trace {:>4}  {:<20} wall {:>12.3} ms  ({} spans)",
                s.trace.0,
                s.root.name(),
                s.wall_ns as f64 / 1e6,
                s.spans
            );
        }
    }
    if let Some(rec) = &recorder {
        emit_metrics(args, rec)?;
    }
    emit_trace(args, &ring)?;
    Ok(())
}

/// Parses the `--socket`/`--tcp` listener flags shared by `serve` and
/// `bench-serve` (at least one required for `serve`; exactly the server's
/// address for `bench-serve`).
fn listener_flags(args: &ParsedArgs) -> (Option<String>, Option<String>) {
    (
        args.optional("socket").map(str::to_owned),
        args.optional("tcp").map(str::to_owned),
    )
}

/// `infprop serve <oracle-path>… (--socket PATH | --tcp ADDR) [--threads N]
///  [--metrics] [--metrics-out FILE] [--trace-out FILE]`
///
/// Maps one or more frozen arenas / layered directories zero-copy and
/// serves `influence`/`topk`/`summary` requests over the length-prefixed
/// binary protocol (see DESIGN.md §15) until a client sends a `SHUTDOWN`
/// frame. Oracle indices in requests follow the positional order given
/// here. Each arena's load is timed into the `oracle.load_ns` histogram
/// and printed as a latency line; with `--metrics` the final snapshot
/// (including the `serve.*` counters and request latency histograms) is
/// emitted on shutdown, and `--trace-out` exports every `serve.request`
/// span from the flight ring.
pub fn serve(args: &ParsedArgs) -> CmdResult {
    if args.positional.is_empty() {
        return Err(ArgError::Positional("expected at least one oracle path").into());
    }
    let threads = threads_of(args)?;
    let (socket, tcp) = listener_flags(args);
    if socket.is_none() && tcp.is_none() {
        return Err(ArgError::MissingFlag("socket (or --tcp)").into());
    }
    let recorder = metrics_requested(args).then(MetricsRecorder::new);
    let ring = trace_requested(args, threads);
    // Loads always run timed: the latency line is part of the serve
    // contract, not a `--metrics` extra.
    let load_clock = MetricsRecorder::new();
    let mut oracles = Vec::with_capacity(args.positional.len());
    for path in &args.positional {
        let t0 = load_clock.span_start();
        let oracle = match &recorder {
            Some(rec) => serving::ServedOracle::open_recorded(Path::new(path), rec),
            None => serving::ServedOracle::open_recorded(Path::new(path), &NoopRecorder),
        }
        .map_err(|e| format!("{path}: {e}"))?;
        let ns = t0.elapsed_ns().unwrap_or(0);
        println!(
            "oracle {}: {path}: {} — load latency: {:.3} ms",
            oracles.len(),
            oracle.describe(),
            ns as f64 / 1e6
        );
        oracles.push(oracle);
    }
    let config = serving::ServerConfig {
        unix_path: socket.map(Into::into),
        tcp_addr: tcp,
        threads,
    };
    let server = serving::Server::bind(&config, oracles)?;
    if let Some(path) = &config.unix_path {
        println!("listening on unix socket {}", path.display());
    }
    if let Some(addr) = server.tcp_addr() {
        println!("listening on tcp {addr}");
    }
    println!(
        "serving {} oracle(s); send a SHUTDOWN frame to stop",
        server.oracles().len()
    );
    match (&recorder, &ring) {
        (Some(rec), Some(r)) => server.run(rec, r.lane(0))?,
        (Some(rec), None) => server.run(rec, NoopTracer)?,
        (None, Some(r)) => server.run(&NoopRecorder, r.lane(0))?,
        (None, None) => server.run(&NoopRecorder, NoopTracer)?,
    }
    println!("server drained");
    if let Some(rec) = &recorder {
        let snap = rec.snapshot();
        if let Some(h) = snap
            .hists
            .iter()
            .find(|h| h.name == Hist::ServeRequestNs.name() && h.count > 0)
        {
            println!(
                "per-request latency: p50 {} ns, p99 {} ns, p999 {} ns, mean {:.1} ns over {} requests",
                h.quantile(0.50),
                h.quantile(0.99),
                h.quantile(0.999),
                h.mean(),
                h.count
            );
        }
        emit_metrics(args, rec)?;
    }
    if let Some(r) = &ring {
        emit_trace(args, r)?;
    }
    Ok(())
}

/// Exact quantile from a sorted latency sample (the bench client keeps raw
/// nanosecond samples, so unlike the bucketed histogram quantiles these
/// are not quantized to power-of-two edges).
fn sample_quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `infprop bench-serve <oracle-path> (--socket PATH | --tcp ADDR)
///  --clients N [--batches B] [--batch-size Q] [--oracle I]`
///
/// Load-generating client for a running `infprop serve` instance. Loads
/// the same oracle in-process, synthesizes a deterministic workload
/// (strided three-seed sets, the `profile` recipe), and first asserts that
/// the served answers are **bit-identical** to the in-process
/// `influence_many_frozen` answers — only then does it time anything. Each
/// of the `--clients` connections then drives `--batches` influence frames
/// of `--batch-size` seed sets back-to-back; the report prints aggregate
/// queries/s plus exact p50/p99/p999 per-request latencies.
pub fn bench_serve(args: &ParsedArgs) -> CmdResult {
    let path = args.one_positional("expected exactly one oracle path")?;
    let (socket, tcp) = listener_flags(args);
    let clients: usize = args.parse_required("clients", "a client count of at least 1")?;
    if clients == 0 || (socket.is_none() && tcp.is_none()) {
        return Err(ArgError::BadValue {
            flag: "clients".into(),
            value: clients.to_string(),
            expected: "at least 1 client and a --socket or --tcp address",
        }
        .into());
    }
    let batches: usize = args.parse_or("batches", 32, "an integer")?;
    let batch_size: usize = args.parse_or("batch-size", 16, "an integer")?;
    let oracle_idx: u8 = args.parse_or("oracle", 0, "an oracle index")?;

    let connect = || -> Result<serving::Client, std::io::Error> {
        match (&socket, &tcp) {
            (Some(path), _) => serving::Client::connect_unix(Path::new(path)),
            (_, Some(addr)) => serving::Client::connect_tcp(addr),
            (None, None) => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "no server address",
            )),
        }
    };

    // The in-process reference the served answers must match bit-for-bit.
    let reference = load_oracle(path)?;
    let n = reference.num_nodes();
    if n == 0 {
        return Err("cannot bench an empty oracle".into());
    }
    let seed_sets: Vec<Vec<NodeId>> = (0..batch_size)
        .map(|q| {
            (0..3usize)
                .map(|j| NodeId(((q * 7 + j * 11 + 1) % n) as u32))
                .collect()
        })
        .collect();
    let expected = reference.influence_many(&seed_sets, 1, None, None);

    let mut probe = connect()?;
    let served = probe.influence_many(oracle_idx, &seed_sets)?;
    if served.len() != expected.len()
        || served
            .iter()
            .zip(&expected)
            .any(|(s, e)| s.to_bits() != e.to_bits())
    {
        return Err("served answers are NOT bit-identical to in-process answers".into());
    }
    println!(
        "verified: {} served answers bit-identical to in-process influence_many_frozen",
        served.len()
    );
    drop(probe);

    // Timed run: every client connection answers `batches` frames; raw
    // per-frame latencies are collected for exact quantiles.
    let clock = MetricsRecorder::new();
    let t0 = clock.span_start();
    let mut all_latencies: Vec<u64> = Vec::with_capacity(clients * batches);
    let lat_results: Vec<Result<Vec<u64>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let seed_sets = &seed_sets;
                let clock = &clock;
                let connect = &connect;
                scope.spawn(move || -> Result<Vec<u64>, String> {
                    let mut client = connect().map_err(|e| e.to_string())?;
                    let mut lats = Vec::with_capacity(batches);
                    for _ in 0..batches {
                        let tq = clock.span_start();
                        let got = client
                            .influence_many(oracle_idx, seed_sets)
                            .map_err(|e| e.to_string())?;
                        lats.push(tq.elapsed_ns().unwrap_or(0));
                        if got.len() != seed_sets.len() {
                            return Err("short response".into());
                        }
                    }
                    Ok(lats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let wall_ns = t0.elapsed_ns().unwrap_or(1).max(1);
    for r in lat_results {
        all_latencies.extend(r.map_err(|e| -> Box<dyn Error> { e.into() })?);
    }
    all_latencies.sort_unstable();
    let frames = all_latencies.len() as u64;
    let queries = frames * seed_sets.len() as u64;
    let qps = queries as f64 * 1e9 / wall_ns as f64;
    println!(
        "{clients} client(s) × {batches} batches × {} queries/batch over {:.3} ms",
        seed_sets.len(),
        wall_ns as f64 / 1e6
    );
    println!(
        "throughput: {qps:.0} queries/s — per-frame latency: p50 {} ns, p99 {} ns, p999 {} ns",
        sample_quantile(&all_latencies, 0.50),
        sample_quantile(&all_latencies, 0.99),
        sample_quantile(&all_latencies, 0.999)
    );
    Ok(())
}

/// Usage text printed on `--help`, no command, or errors.
pub const USAGE: &str = "\
infprop — information propagation in interaction networks (EDBT 2017)

USAGE:
  infprop stats <file> [--units-per-day N]
  infprop irs <file> (--window-pct P | --window W) [--exact] [--beta B] [--top K]
  infprop topk <file> --k K (--window-pct P | --window W)
                 [--method irs|irs-exact|pagerank|hd|shd|degree-discount|skim|cte]
                 [--seed S] [--threads T] [--no-freeze]
                 [--metrics] [--metrics-out FILE] [--trace-out FILE]
  infprop simulate <file> --seeds a,b,c (--window-pct P | --window W)
                 [--p F] [--runs N] [--model tcic|tclt] [--seed S] [--threads T]
                 [--no-freeze] [--metrics] [--metrics-out FILE] [--trace-out FILE]
  infprop channel <file> --from U --to V (--window-pct P | --window W)
  infprop generate --profile enron|lkml|facebook|higgs|slashdot|us2016
                 --scale S --out FILE [--seed N]
  infprop build <file> (--window-pct P | --window W) --out FILE [--beta B | --exact]
                 [--frozen | --layered] [--metrics] [--metrics-out FILE]
                 [--trace-out FILE] (alias: oracle-build)
  infprop append <oracle-dir> <file> [--metrics] [--metrics-out FILE]
                 [--trace-out FILE]
  infprop compact <oracle-dir> [--metrics] [--metrics-out FILE] [--trace-out FILE]
  infprop oracle-query <oracle-path> (--seeds a,b,c | --queries FILE)
                 [--threads N] [--metrics] [--metrics-out FILE] [--trace-out FILE]
  infprop profile <oracle-path> [--queries FILE | --rounds N] [--k K]
                 [--threads N] [--slowest K] [--metrics] [--metrics-out FILE]
                 [--trace-out FILE]
  infprop serve <oracle-path>… (--socket PATH | --tcp ADDR) [--threads N]
                 [--metrics] [--metrics-out FILE] [--trace-out FILE]
  infprop bench-serve <oracle-path> (--socket PATH | --tcp ADDR) --clients N
                 [--batches B] [--batch-size Q] [--oracle I]

Input files are SNAP-style edge lists: `src dst time` per line, `#` comments.
`--metrics` prints a JSON metrics snapshot (counters, gauges, histograms,
span timings) for the run; `--metrics-out FILE` writes it to a file instead.
`--trace-out FILE` turns on the causal ring tracer and exports the run as
Chrome Trace Event JSON (open it at ui.perfetto.dev or chrome://tracing).

`build --layered` writes a layered oracle *directory* (frozen base arena +
forward-delta log + MANIFEST). `append` buffers new interactions (raw
numeric node ids in the oracle's id space, at or after the frontier) into
its pending log; `compact` expires interactions outside the window and
re-freezes the base (LSM-style, crash-safe: the previous generation stays
loadable until the new MANIFEST commits). `oracle-query` accepts both
single-file oracles and layered directories; `--queries FILE` answers one
comma-separated seed set per line through the batched frozen kernel
(`--threads N` fans the batch out; per-query p50/p99/p999/mean under
`--metrics`). `profile` traces unconditionally: it replays a query
workload (`--queries FILE`, or `--rounds N` synthesized queries), then
prints a per-phase self/total time attribution table and the `--slowest K`
traces by wall time from the flight recorder.

`serve` maps one or more oracle artefacts (zero-copy via mmap when built
with `--features mmap`) and answers influence/topk/summary requests over a
length-prefixed binary protocol on a Unix socket and/or TCP listener; one
INFLUENCE frame carries a whole batch of seed sets, answered through the
batched frozen kernel. `bench-serve` drives a running server: it asserts
the served answers bit-identical to in-process answers, then reports
queries/s and exact p50/p99/p999 per-frame latencies.
";

/// Dispatches a parsed command line.
pub fn dispatch(parsed: &ParsedArgs) -> CmdResult {
    match parsed.command.as_str() {
        "stats" => stats(parsed),
        "irs" => irs(parsed),
        "topk" => topk(parsed),
        "simulate" => simulate(parsed),
        "channel" => channel(parsed),
        "generate" => generate(parsed),
        "build" | "oracle-build" => oracle_build(parsed),
        "append" => append(parsed),
        "compact" => compact(parsed),
        "oracle-query" => oracle_query(parsed),
        "profile" => profile(parsed),
        "serve" => serve(parsed),
        "bench-serve" => bench_serve(parsed),
        "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{USAGE}").into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(words: &[&str]) -> ParsedArgs {
        let raw: Vec<String> = words.iter().map(|w| (*w).to_string()).collect();
        crate::args::parse(&raw).unwrap()
    }

    fn scratch_file(tag: &str, text: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("infprop-cli-unit-{tag}-{}.txt", std::process::id()));
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn arena_errors_name_the_found_and_expected_versions() {
        let old = describe_arena_error("IPFA frozen register arena", 4, CodecError::BadVersion(3));
        assert_eq!(
            old.to_string(),
            "IPFA frozen register arena: file has layout version 3, expected 4 \
             (older layouts are no longer read: rebuild the arena)"
        );
        let new = describe_arena_error("IPFE frozen exact arena", 2, CodecError::FutureVersion(9));
        assert_eq!(
            new.to_string(),
            "IPFE frozen exact arena: file has layout version 9, but this build reads version 2 \
             (rebuild the arena or upgrade infprop)"
        );
        let corrupt = describe_arena_error("IPFA", 4, CodecError::Corrupt("offsets not monotone"));
        assert!(corrupt.to_string().starts_with("IPFA: "));
        assert!(corrupt.to_string().contains("offsets not monotone"));
    }

    #[test]
    fn beta_maps_powers_of_two_to_precisions() {
        assert_eq!(beta_to_precision(16).unwrap(), 4);
        assert_eq!(beta_to_precision(512).unwrap(), 9);
        assert_eq!(beta_to_precision(65_536).unwrap(), 16);
        for bad in [0usize, 8, 100, 131_072] {
            assert!(
                matches!(beta_to_precision(bad), Err(ArgError::BadValue { .. })),
                "beta {bad}"
            );
        }
    }

    #[test]
    fn sample_quantile_takes_the_ceiling_rank() {
        assert_eq!(sample_quantile(&[], 0.5), 0);
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(sample_quantile(&sorted, 0.0), 1);
        assert_eq!(sample_quantile(&sorted, 0.5), 50);
        assert_eq!(sample_quantile(&sorted, 0.99), 99);
        assert_eq!(sample_quantile(&sorted, 0.999), 100);
        assert_eq!(sample_quantile(&sorted, 1.0), 100);
        assert_eq!(sample_quantile(&[7], 0.5), 7);
    }

    #[test]
    fn append_file_parses_separators_and_sorts_by_time() {
        let path = scratch_file(
            "append-ok",
            "# src dst time\n\n3 4 20\n1,2,5\n  5\t6\t10  \n",
        );
        let batch = read_append_file(path.to_str().unwrap()).unwrap();
        assert_eq!(
            batch,
            vec![
                Interaction::from_raw(1, 2, 5),
                Interaction::from_raw(5, 6, 10),
                Interaction::from_raw(3, 4, 20),
            ]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_file_errors_name_the_line() {
        for (tag, text, want) in [
            ("short", "1 2 3\n4 5\n", ":2: expected `src dst time`"),
            ("src", "x 2 3\n", ":1: bad src node id \"x\""),
            ("dst", "1 2 3\n1 -2 3\n", ":2: bad dst node id \"-2\""),
            ("time", "# c\n1 2 t\n", ":2: bad timestamp \"t\""),
        ] {
            let path = scratch_file(tag, text);
            let err = read_append_file(path.to_str().unwrap()).unwrap_err();
            assert!(err.to_string().ends_with(want), "{tag}: {err}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn window_flags_resolve_absolute_or_relative_windows() {
        let net = InteractionNetwork::from_triples([(0, 1, 0), (1, 2, 100)]);
        let absolute = parsed(&["irs", "x", "--window", "7"]);
        assert_eq!(window_of(&absolute, &net).unwrap(), Window(7));
        let relative = parsed(&["irs", "x", "--window-pct", "50"]);
        assert_eq!(
            window_of(&relative, &net).unwrap(),
            net.window_from_percent(50.0)
        );
        for bad in ["0", "-4", "soon"] {
            assert!(window_of(&parsed(&["irs", "x", "--window", bad]), &net).is_err());
        }
        assert!(window_of(&parsed(&["irs", "x"]), &net).is_err());
    }

    #[test]
    fn threads_flag_rejects_zero_workers() {
        assert_eq!(threads_of(&parsed(&["topk", "--threads", "3"])).unwrap(), 3);
        assert!(threads_of(&parsed(&["topk"])).unwrap() >= 1);
        assert!(threads_of(&parsed(&["topk", "--threads", "0"])).is_err());
        assert!(threads_of(&parsed(&["topk", "--threads", "many"])).is_err());
    }

    #[test]
    fn unknown_commands_are_reported_with_the_usage() {
        let err = dispatch(&parsed(&["frobnicate"])).unwrap_err();
        let text = err.to_string();
        assert!(text.starts_with("unknown command \"frobnicate\""));
        assert!(text.contains("bench-serve"));
    }
}

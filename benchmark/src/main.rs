//! One workload per run, timed end to end and, in a traced run, layer by
//! layer. See README.md for the workloads, the metrics and how to run it.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve-batch --seed 1 [--seconds 15] [--trace 1] [--trace-out FILE]
//! ```
//!
//! Prints one JSON line per metric (`name`, `unit`, `value`, `samples`),
//! then, as the last line, `{"correct", "attempted", "failed", "metrics"}`.
//! Exits 1 when any answer differs from its reference, 2 on bad arguments.

mod build;
mod cpu;
mod harness;
mod maintain;
mod rng;
mod serve;
mod spans;
mod stats;

use harness::Outcome;
use spans::Spans;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Workload names, as given to `--workload`.
const WORKLOADS: [&str; 4] = ["build-lkml", "serve-point", "serve-batch", "maintain-enron"];

/// End-to-end metrics, reported by an untraced run: `(name, unit)`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("peak_rss_mb", "MB"),
    ("disk_bytes_per_interaction", "B"),
];

/// Per-layer metrics, reported by a traced run: `(name, unit)`. A layer a
/// workload does not run reports 0. The op's tail latencies sit here, with
/// no bound: on a shared host they move with the neighbours' load by more
/// than any useful bound between runs minutes apart.
const PER_LAYER: [(&str, &str); 33] = [
    ("op.p90_us", "us"),
    ("op.p99_us", "us"),
    ("io.parse_s", "s"),
    ("engine.exact_s", "s"),
    ("engine.vhll_s", "s"),
    ("engine.exact_entries_touched_per_interaction", "count"),
    ("engine.vhll_cells_visited_per_interaction", "count"),
    ("frozen.freeze_exact_s", "s"),
    ("frozen.freeze_vhll_s", "s"),
    ("frozen.arena_bytes_exact", "B"),
    ("frozen.arena_bytes_vhll", "B"),
    ("persist.write_s", "s"),
    ("arena.load_s", "s"),
    ("kernel.ns_per_query", "ns"),
    ("workload.distinct_seed_share", "ratio"),
    ("hll.rel_error_pct", "%"),
    ("serve.encode_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.roundtrip_us", "us"),
    ("serve.answer_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.request_bytes", "B"),
    ("serve.response_bytes", "B"),
    ("maximize.topk_exact_s", "s"),
    ("maximize.topk_vhll_s", "s"),
    ("maximize.oracle_calls", "count"),
    ("delta.append_us_per_interaction", "us"),
    ("delta.refresh_ms", "ms"),
    ("delta.query_us", "us"),
    ("delta.tail_len", "count"),
    ("delta.compact_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// `answers_checksum` of each workload at `--seed 1`. Answers are
/// deterministic per seed, so a different checksum means a changed answer.
const SEED1_CHECKSUMS: [(&str, u64); 4] = [
    ("build-lkml", 0x6b47_1b00_118d_9c54),
    ("serve-point", 0x4afa_3053_151e_3431),
    ("serve-batch", 0xcc85_4679_0b06_ee0c),
    ("maintain-enron", 0x1724_a4d3_54af_b594),
];

/// Largest share of root-span time the layer spans may leave uncovered.
const MAX_UNATTRIBUTED_PCT: f64 = 5.0;

/// Begin/end events kept for the Chrome trace.
const TRACE_EVENTS: usize = 1 << 16;

const USAGE: &str =
    "usage: benchmark --workload <build-lkml|serve-point|serve-batch|maintain-enron> \
--seed <n> [--seconds <s>] [--trace <0|1>] [--trace-out <file>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        trace_out: None,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or(format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value:?}")),
                }
            }
            "--trace-out" => {
                args.trace = true;
                args.trace_out = Some(PathBuf::from(value));
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool, spans: &mut Spans) -> Outcome {
    match name {
        "build-lkml" => build::run(&build::SIZES, seed, seconds, trace, spans),
        "serve-point" => serve::run(&serve::POINT, seed, seconds, trace, spans),
        "serve-batch" => serve::run(&serve::BATCH, seed, seconds, trace, spans),
        "maintain-enron" => maintain::run(&maintain::SIZES, seed, seconds, trace, spans),
        _ => unreachable!("workload names are checked while parsing arguments"),
    }
}

/// One reported number.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: usize,
}

/// Percentile `q` of the untraced ops' latency, in µs (median of 10 time
/// slices where they hold enough ops).
fn op_percentile_us(o: &Outcome, q: f64) -> f64 {
    stats::slice_percentile(&o.samples.end_ns, &o.samples.lat_ns, 10, q) / 1e3
}

fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let s = &o.samples;
    let ops = s.lat_ns.len();
    let values = [
        (stats::median(&o.setup_s), o.setup_s.len()),
        (stats::slice_rate(&s.end_ns, &s.lat_ns, &s.items, 10), ops),
        (op_percentile_us(o, 0.5), ops),
        (o.peak_rss_mb, 1),
        (o.disk_bytes as f64 / o.disk_interactions.max(1) as f64, 1),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples))| Metric {
            name,
            unit,
            value,
            samples,
        })
        .collect()
}

fn per_layer(o: &Outcome, spans: &Spans) -> Vec<Metric> {
    let s = &o.samples;
    let untraced = stats::percentile(&s.lat_ns, 0.5) as f64;
    let traced = stats::percentile(&s.traced_lat_ns, 0.5) as f64;
    let mut values = o.layers.clone();
    values.push(("op.p90_us", op_percentile_us(o, 0.9)));
    values.push(("op.p99_us", op_percentile_us(o, 0.99)));
    values.push(("trace.overhead_pct", 100.0 * (traced / untraced - 1.0)));
    values.push(("trace.unattributed_pct", spans.unattributed_pct()));
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v),
            samples: s.traced_lat_ns.len(),
        })
        .collect()
}

/// A JSON number; the benchmark never reports a non-finite value.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v}")
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let pinned_cpu = cpu::pin_to_fastest();
    if pinned_cpu.is_none() {
        eprintln!("benchmark: could not pin to one CPU; timings will spread more");
    }
    let mut spans = Spans::new(if args.trace { TRACE_EVENTS } else { 0 });
    let o = run_workload(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &mut spans,
    );

    let metrics = if args.trace {
        per_layer(&o, &spans)
    } else {
        end_to_end(&o)
    };
    let expected = SEED1_CHECKSUMS
        .iter()
        .find(|(w, _)| *w == args.workload)
        .map_or(0, |(_, c)| *c);
    let checksum_ok = args.seed != 1 || o.checksum == expected;
    let layers_ok = !args.trace || spans.unattributed_pct() <= MAX_UNATTRIBUTED_PCT;
    let correct = o.failed == 0 && checksum_ok && layers_ok;

    if let Some(path) = &args.trace_out {
        std::fs::write(path, spans.to_chrome_json()).expect("write the Chrome trace");
    }
    for m in &metrics {
        println!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"value\": {}, \"samples\": {}}}",
            m.name,
            m.unit,
            num(m.value),
            m.samples
        );
    }
    if args.trace {
        println!(
            "{{\"name\": \"trace.dropped_roots\", \"unit\": \"count\", \"value\": {}, \"samples\": 1}}",
            spans.dropped_roots()
        );
    } else {
        for (name, q) in [("op.p90_us", 0.9), ("op.p99_us", 0.99)] {
            println!(
                "{{\"name\": \"{name}\", \"unit\": \"us\", \"value\": {}, \"samples\": {}}}",
                num(op_percentile_us(&o, q)),
                o.samples.lat_ns.len()
            );
        }
    }
    println!(
        "{{\"name\": \"answers_checksum\", \"unit\": \"fnv64\", \"value\": \"{:016x}\", \"samples\": {}, \
         \"expected_at_seed_1\": \"{:016x}\"}}",
        o.checksum, o.attempted, expected
    );
    println!(
        "{{\"name\": \"mmap_backend\", \"unit\": \"bool\", \"value\": {}, \"samples\": 1}}",
        o.mmap_backend
    );
    println!(
        "{{\"name\": \"pinned_cpu\", \"unit\": \"index\", \"value\": {}, \"samples\": 1}}",
        pinned_cpu.map_or(-1, |c| c as i64)
    );

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.attempted, o.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.value),
            m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");

    if !correct {
        eprintln!(
            "benchmark: verification failed: {} of {} answers differ, checksum {}, unattributed {:.2}%",
            o.failed,
            o.attempted,
            if checksum_ok { "ok" } else { "differs" },
            spans.unattributed_pct()
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use infprop_datasets::profiles;

    static BUILD: build::Sizes = build::Sizes {
        scale: 0.002,
        window_pct: 10.0,
        precision: 6,
        queries: 16,
        seeds_per_query: 4,
        top_k: 5,
        setups: 2,
    };
    static POINT: serve::Sizes = serve::Sizes {
        profile: profiles::enron_like,
        scale: 0.002,
        window_pct: 1.0,
        precision: None,
        frames: 8,
        sets_per_frame: 1,
        seeds_per_set: 4,
        zipf: None,
        setups: 2,
        warmup_s: 0.01,
    };
    static BATCH: serve::Sizes = serve::Sizes {
        profile: profiles::higgs_like,
        scale: 0.002,
        window_pct: 10.0,
        precision: Some(6),
        frames: 4,
        sets_per_frame: 8,
        seeds_per_set: 4,
        zipf: Some(1.1),
        setups: 2,
        warmup_s: 0.01,
    };
    static MAINTAIN: maintain::Sizes = maintain::Sizes {
        scale: 0.005,
        window_pct: 1.0,
        precision: 6,
        prefix_share: 0.8,
        batch: 100,
        queries: 8,
        seeds_per_query: 4,
        compact_every: 4,
        setups: 2,
    };

    fn smoke(run: impl Fn(bool, &mut Spans) -> Outcome) {
        for trace in [false, true] {
            let mut spans = Spans::new(TRACE_EVENTS);
            let o = run(trace, &mut spans);
            assert!(o.attempted > 0);
            assert_eq!(o.failed, 0, "answers differ from the reference");
            let metrics = if trace {
                per_layer(&o, &spans)
            } else {
                end_to_end(&o)
            };
            for m in &metrics {
                assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            }
            for (name, _) in &o.layers {
                assert!(
                    PER_LAYER.iter().any(|(n, _)| n == name),
                    "{name} is not a listed metric"
                );
            }
            if trace {
                assert!(!o.samples.traced_lat_ns.is_empty());
                assert!(spans.to_chrome_json().contains("\"ph\":\"E\""));
            } else {
                assert!(
                    metrics.iter().all(|m| m.value > 0.0),
                    "zero end-to-end metric"
                );
            }
        }
    }

    #[test]
    fn build_smoke() {
        smoke(|trace, spans| build::run(&BUILD, 3, 0.05, trace, spans));
    }

    #[test]
    fn serve_point_smoke() {
        smoke(|trace, spans| serve::run(&POINT, 3, 0.05, trace, spans));
    }

    #[test]
    fn serve_batch_smoke() {
        smoke(|trace, spans| serve::run(&BATCH, 3, 0.05, trace, spans));
    }

    #[test]
    fn maintain_smoke() {
        smoke(|trace, spans| maintain::run(&MAINTAIN, 3, 0.05, trace, spans));
    }

    #[test]
    fn same_seed_same_checksum() {
        let once = |seed| {
            let mut spans = Spans::new(0);
            serve::run(&BATCH, seed, 0.01, false, &mut spans).checksum
        };
        assert_eq!(once(4), once(4));
        assert_ne!(once(4), once(5));
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{w}\"")),
                "BENCHMARK.json lacks {w}"
            );
        }
        assert_eq!(
            json.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn arguments() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload serve-point --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload build-lkml --seed").is_err());
        assert!(parse("--workload build-lkml --trace 2").is_err());
        assert!(parse("--workload build-lkml --seconds 0").is_err());
    }
}

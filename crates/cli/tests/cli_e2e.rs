//! End-to-end tests driving the compiled `infprop` binary.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_infprop"))
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("infprop-cli-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Writes a small deterministic network and returns its path.
fn sample_network(dir: &Path) -> String {
    let path = dir.join("net.txt");
    let mut text = String::from("# test network\n");
    for i in 0..200u32 {
        let src = i % 17;
        let dst = (i * 5 + 1) % 17;
        if src != dst {
            text.push_str(&format!("{src} {dst} {i}\n"));
        }
    }
    std::fs::write(&path, text).unwrap();
    path.to_string_lossy().into_owned()
}

#[test]
fn help_prints_usage() {
    let out = run(&["help"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("USAGE"));
}

#[test]
fn no_command_fails_with_usage() {
    let out = run(&[]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn stats_reports_counts() {
    let dir = tempdir("stats");
    let net = sample_network(&dir);
    let out = run(&["stats", &net, "--units-per-day", "1"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("|V|"), "{text}");
    assert!(text.contains("distinct timestamps: true"));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn irs_exact_and_approx_agree_on_top_node() {
    let dir = tempdir("irs");
    let net = sample_network(&dir);
    let exact = run(&["irs", &net, "--window-pct", "50", "--exact", "--top", "1"]);
    let approx = run(&[
        "irs",
        &net,
        "--window-pct",
        "50",
        "--top",
        "1",
        "--beta",
        "4096",
    ]);
    assert!(exact.status.success() && approx.status.success());
    let top_exact = stdout(&exact)
        .lines()
        .nth(1)
        .unwrap()
        .split_whitespace()
        .next()
        .unwrap()
        .to_owned();
    let top_approx = stdout(&approx)
        .lines()
        .nth(1)
        .unwrap()
        .split_whitespace()
        .next()
        .unwrap()
        .to_owned();
    assert_eq!(top_exact, top_approx);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn topk_all_methods_run() {
    let dir = tempdir("topk");
    let net = sample_network(&dir);
    for method in [
        "irs",
        "irs-exact",
        "pagerank",
        "hd",
        "shd",
        "degree-discount",
        "skim",
        "cte",
    ] {
        let out = run(&[
            "topk",
            &net,
            "--k",
            "3",
            "--window-pct",
            "20",
            "--method",
            method,
        ]);
        assert!(out.status.success(), "{method}: {}", stderr(&out));
        assert_eq!(stdout(&out).lines().count(), 3, "{method}");
    }
    let bad = run(&[
        "topk",
        &net,
        "--k",
        "3",
        "--window-pct",
        "20",
        "--method",
        "nope",
    ]);
    assert!(!bad.status.success());
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn simulate_both_models() {
    let dir = tempdir("sim");
    let net = sample_network(&dir);
    for model in ["tcic", "tclt"] {
        let out = run(&[
            "simulate",
            &net,
            "--seeds",
            "0,1",
            "--window-pct",
            "20",
            "--runs",
            "20",
            "--model",
            model,
        ]);
        assert!(out.status.success(), "{model}: {}", stderr(&out));
        assert!(stdout(&out).contains("spread"));
    }
    // Out-of-range seed is rejected.
    let bad = run(&["simulate", &net, "--seeds", "9999", "--window-pct", "20"]);
    assert!(!bad.status.success());
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn generate_then_full_pipeline() {
    let dir = tempdir("gen");
    let net_path = dir.join("gen.txt").to_string_lossy().into_owned();
    let out = run(&[
        "generate",
        "--profile",
        "slashdot",
        "--scale",
        "0.001",
        "--seed",
        "5",
        "--out",
        &net_path,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(std::fs::metadata(&net_path).unwrap().len() > 0);

    let oracle_path = dir.join("oracle.bin").to_string_lossy().into_owned();
    let built = run(&[
        "oracle-build",
        &net_path,
        "--window-pct",
        "10",
        "--out",
        &oracle_path,
    ]);
    assert!(built.status.success(), "{}", stderr(&built));

    let query = run(&["oracle-query", &oracle_path, "--seeds", "0,1,2"]);
    assert!(query.status.success(), "{}", stderr(&query));
    assert!(stdout(&query).contains("Inf(S)"));

    // Reading the oracle as a network must fail cleanly.
    let confused = run(&["stats", &oracle_path]);
    assert!(!confused.status.success());
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn channel_found_and_not_found() {
    let dir = tempdir("chan");
    let path = dir.join("chain.txt");
    std::fs::write(&path, "a b 1\nb c 2\nc d 3\n").unwrap();
    let p = path.to_string_lossy().into_owned();
    let found = run(&["channel", &p, "--from", "0", "--to", "3", "--window", "5"]);
    assert!(found.status.success(), "{}", stderr(&found));
    assert!(stdout(&found).contains("3 hops"), "{}", stdout(&found));
    let missing = run(&["channel", &p, "--from", "3", "--to", "0", "--window", "5"]);
    assert!(stdout(&missing).contains("no information channel"));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn absolute_window_flag_works() {
    let dir = tempdir("absw");
    let net = sample_network(&dir);
    let out = run(&["irs", &net, "--window", "25", "--exact", "--top", "2"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("window = 25 time units"));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn exact_oracle_roundtrip_via_cli() {
    let dir = tempdir("exact-oracle");
    let net = sample_network(&dir);
    let oracle_path = dir.join("exact.bin").to_string_lossy().into_owned();
    let built = run(&[
        "oracle-build",
        &net,
        "--window-pct",
        "30",
        "--exact",
        "--out",
        &oracle_path,
    ]);
    assert!(built.status.success(), "{}", stderr(&built));
    assert!(stdout(&built).contains("exact summaries"));

    let query = run(&["oracle-query", &oracle_path, "--seeds", "0,1"]);
    assert!(query.status.success(), "{}", stderr(&query));
    assert!(stdout(&query).contains("Inf(S)"));

    // Out-of-range seed fails cleanly, not with a panic.
    let bad = run(&["oracle-query", &oracle_path, "--seeds", "100000"]);
    assert!(!bad.status.success());
    assert!(stderr(&bad).contains("inside the oracle"));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn invalid_beta_rejected_everywhere() {
    let dir = tempdir("beta");
    let net = sample_network(&dir);
    for cmd in [
        vec!["irs", net.as_str(), "--window-pct", "10", "--beta", "100"],
        vec![
            "oracle-build",
            net.as_str(),
            "--window-pct",
            "10",
            "--beta",
            "0",
            "--out",
            "/dev/null",
        ],
    ] {
        let out = run(&cmd);
        assert!(!out.status.success(), "{cmd:?} should fail");
        assert!(stderr(&out).contains("power of two"), "{}", stderr(&out));
    }
    std::fs::remove_dir_all(dir).ok();
}

/// Extracts the integer following `"key": ` in a flat JSON snapshot.
fn json_u64(text: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\": ");
    let at = text
        .find(&needle)
        .unwrap_or_else(|| panic!("{key} missing in {text}"));
    text[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

#[test]
fn build_metrics_snapshot_has_live_counters() {
    let dir = tempdir("build-metrics");
    let net = sample_network(&dir);
    let oracle_path = dir.join("o.bin").to_string_lossy().into_owned();
    // `build` is the documented name; `oracle-build` stays as an alias.
    let out = run(&[
        "build",
        &net,
        "--window-pct",
        "30",
        "--out",
        &oracle_path,
        "--metrics",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    for section in ["\"counters\"", "\"gauges\"", "\"histograms\"", "\"spans\""] {
        assert!(text.contains(section), "missing {section}: {text}");
    }
    assert!(json_u64(&text, "engine.interactions") > 0, "{text}");
    assert!(json_u64(&text, "vhll.merge_calls") > 0, "{text}");
    assert!(json_u64(&text, "oracle.queries") > 0, "{text}");
    assert!(json_u64(&text, "store.heap_bytes") > 0, "{text}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn build_metrics_out_writes_file_and_exact_counters() {
    let dir = tempdir("build-metrics-out");
    let net = sample_network(&dir);
    let oracle_path = dir.join("o.bin").to_string_lossy().into_owned();
    let snap_path = dir.join("metrics.json").to_string_lossy().into_owned();
    let out = run(&[
        "build",
        &net,
        "--window-pct",
        "30",
        "--exact",
        "--out",
        &oracle_path,
        "--metrics-out",
        &snap_path,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = std::fs::read_to_string(&snap_path).unwrap();
    assert!(json_u64(&text, "engine.interactions") > 0, "{text}");
    assert!(json_u64(&text, "exact.merge_calls") > 0, "{text}");
    assert!(json_u64(&text, "oracle.queries") > 0, "{text}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn metrics_flag_does_not_change_topk_output() {
    let dir = tempdir("topk-metrics");
    let net = sample_network(&dir);
    let base = &[
        "topk",
        &net,
        "--k",
        "3",
        "--window-pct",
        "20",
        "--threads",
        "1",
    ];
    let plain = run(base);
    let mut with_metrics: Vec<&str> = base.to_vec();
    with_metrics.push("--metrics");
    let recorded = run(&with_metrics);
    assert!(plain.status.success() && recorded.status.success());
    let recorded_text = stdout(&recorded);
    // Seed picks are identical; the recorded run appends the snapshot.
    assert!(
        recorded_text.starts_with(&stdout(&plain)),
        "{recorded_text}"
    );
    assert!(
        json_u64(&recorded_text, "greedy.rounds") >= 3,
        "{recorded_text}"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn simulate_metrics_reports_sim_and_oracle() {
    let dir = tempdir("sim-metrics");
    let net = sample_network(&dir);
    let out = run(&[
        "simulate",
        &net,
        "--seeds",
        "0,1",
        "--window-pct",
        "20",
        "--runs",
        "10",
        "--metrics",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("oracle estimate Inf(S)"), "{text}");
    assert_eq!(json_u64(&text, "sim.runs"), 10, "{text}");
    assert!(json_u64(&text, "oracle.queries") > 0, "{text}");
    std::fs::remove_dir_all(dir).ok();
}

/// Extracts the `Inf(...) = X` value from an `oracle-query` stdout line.
fn influence_of(text: &str) -> f64 {
    text.lines()
        .find_map(|l| l.split(" = ").nth(1))
        .unwrap_or_else(|| panic!("no influence line in {text}"))
        .trim()
        .parse()
        .unwrap()
}

#[test]
fn layered_build_append_compact_roundtrip() {
    let dir = tempdir("layered");
    let net = sample_network(&dir);
    let oracle_dir = dir.join("layered-oracle").to_string_lossy().into_owned();

    let built = run(&[
        "build",
        &net,
        "--window",
        "60",
        "--exact",
        "--layered",
        "--out",
        &oracle_dir,
    ]);
    assert!(built.status.success(), "{}", stderr(&built));
    assert!(stdout(&built).contains("layered exact oracle (generation 0)"));
    assert!(Path::new(&oracle_dir).join("MANIFEST").is_file());

    // Baseline answer over the base alone.
    let q0 = run(&["oracle-query", &oracle_dir, "--seeds", "0,1"]);
    assert!(q0.status.success(), "{}", stderr(&q0));
    let base_inf = influence_of(&stdout(&q0));

    // Forward-append a batch that extends node 0's reach (raw ids).
    let batch = dir.join("batch.txt");
    std::fs::write(&batch, "# forward batch\n0 5 200\n5 9 201\n9 12 202\n").unwrap();
    let appended = run(&["append", &oracle_dir, &batch.to_string_lossy()]);
    assert!(appended.status.success(), "{}", stderr(&appended));
    assert!(
        stdout(&appended).contains("appended 3 interactions"),
        "{}",
        stdout(&appended)
    );

    let q1 = run(&["oracle-query", &oracle_dir, "--seeds", "0,1"]);
    assert!(q1.status.success(), "{}", stderr(&q1));
    let layered_inf = influence_of(&stdout(&q1));
    assert!(
        layered_inf >= base_inf,
        "appends cannot shrink influence: {layered_inf} < {base_inf}"
    );

    // Compaction re-freezes; answers over the surviving window still work
    // and the generation advances.
    let compacted = run(&["compact", &oracle_dir, "--metrics"]);
    assert!(compacted.status.success(), "{}", stderr(&compacted));
    let ctext = stdout(&compacted);
    assert!(ctext.contains("generation 1"), "{ctext}");
    assert!(json_u64(&ctext, "compaction.runs") == 1, "{ctext}");
    assert!(
        ctext.contains("\"compaction.input_interactions\": {\"count\": 1"),
        "{ctext}"
    );

    let q2 = run(&["oracle-query", &oracle_dir, "--seeds", "0,1", "--metrics"]);
    assert!(q2.status.success(), "{}", stderr(&q2));
    let qtext = stdout(&q2);
    assert!(
        qtext.contains("format: layered exact oracle directory (generation 1, 0 pending)"),
        "{qtext}"
    );
    assert!(qtext.contains("\"oracle.load\": {\"count\": 1"), "{qtext}");

    // Stale (behind-frontier) appends are rejected without corrupting state.
    let stale = dir.join("stale.txt");
    std::fs::write(&stale, "0 1 5\n").unwrap();
    let rejected = run(&["append", &oracle_dir, &stale.to_string_lossy()]);
    assert!(!rejected.status.success());
    assert!(
        stderr(&rejected).contains("frontier"),
        "{}",
        stderr(&rejected)
    );
    let q3 = run(&["oracle-query", &oracle_dir, "--seeds", "0,1"]);
    assert!(q3.status.success(), "{}", stderr(&q3));

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn layered_sketch_oracle_and_query_batches() {
    let dir = tempdir("layered-approx");
    let net = sample_network(&dir);
    let oracle_dir = dir.join("sketch-oracle").to_string_lossy().into_owned();

    let built = run(&[
        "build",
        &net,
        "--window",
        "60",
        "--layered",
        "--beta",
        "256",
        "--out",
        &oracle_dir,
    ]);
    assert!(built.status.success(), "{}", stderr(&built));
    assert!(stdout(&built).contains("layered sketch oracle (generation 0)"));

    // Batch queries: one seed set per line, comments skipped.
    let queries = dir.join("queries.txt");
    std::fs::write(&queries, "# batch\n0\n0,1\n3,4,5\n").unwrap();
    let out = run(&[
        "oracle-query",
        &oracle_dir,
        "--queries",
        &queries.to_string_lossy(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert_eq!(text.lines().count(), 3, "{text}");
    assert!(text.contains("Inf(0,1) = "), "{text}");

    // Appends flow through the sketch path too.
    let batch = dir.join("batch.txt");
    std::fs::write(&batch, "1 2 300\n").unwrap();
    let appended = run(&["append", &oracle_dir, &batch.to_string_lossy()]);
    assert!(appended.status.success(), "{}", stderr(&appended));

    // Out-of-range seeds still fail cleanly against a directory oracle.
    let bad = run(&["oracle-query", &oracle_dir, "--seeds", "100000"]);
    assert!(!bad.status.success());
    assert!(stderr(&bad).contains("inside the oracle"));

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn removed_and_misspelt_flags_fail_naming_the_flag() {
    let dir = tempdir("unknown-flag");
    let net = sample_network(&dir);
    for flag in ["--no-freeze", "--threds"] {
        let out = run(&["topk", &net, flag, "--k", "2", "--window-pct", "50"]);
        assert!(!out.status.success(), "{flag} was accepted");
        let err = stderr(&out);
        assert!(
            err.starts_with(&format!("error: unknown flag {flag}")),
            "{err}"
        );
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn stats_reports_shape_metrics() {
    let dir = tempdir("shape-stats");
    let net = sample_network(&dir);
    let out = run(&["stats", &net, "--units-per-day", "1"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    for needle in ["out-degree", "gini", "contact repetition", "burstiness"] {
        assert!(text.contains(needle), "missing {needle}: {text}");
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn batch_queries_match_sequential_and_report_latency() {
    let dir = tempdir("batch-queries");
    let net = sample_network(&dir);
    let oracle_path = dir.join("frozen.ipfa").to_string_lossy().into_owned();
    let built = run(&[
        "build",
        &net,
        "--window",
        "60",
        "--frozen",
        "--beta",
        "256",
        "--out",
        &oracle_path,
    ]);
    assert!(built.status.success(), "{}", stderr(&built));

    // One seed set per line: empty set rows are impossible (blank lines are
    // comments), but duplicates, singletons, and wide unions all appear.
    let seed_lines = ["0", "0,1", "1,1,2", "3,4,5,6,7", "12,0,8"];
    let queries = dir.join("queries.txt");
    std::fs::write(&queries, format!("# parity\n{}\n", seed_lines.join("\n"))).unwrap();

    // The batch path (whole file in one influence_many call, fanned out)
    // must print exactly what one oracle-query process per line prints.
    for threads in ["1", "2", "8"] {
        let batch = run(&[
            "oracle-query",
            &oracle_path,
            "--queries",
            &queries.to_string_lossy(),
            "--threads",
            threads,
        ]);
        assert!(batch.status.success(), "{}", stderr(&batch));
        let batch_lines: Vec<String> = stdout(&batch).lines().map(String::from).collect();
        assert_eq!(batch_lines.len(), seed_lines.len(), "{batch_lines:?}");
        for (line, got) in seed_lines.iter().zip(&batch_lines) {
            let sequential = run(&["oracle-query", &oracle_path, "--seeds", line]);
            assert!(sequential.status.success(), "{}", stderr(&sequential));
            let want = stdout(&sequential);
            assert_eq!(
                want.trim(),
                got.replace(&format!("Inf({line})"), "Inf(S)").trim()
            );
        }
    }

    // Under --metrics the batch reports per-query latency quantiles from
    // the kernel.query_ns histogram and the kernel.* batch counters.
    let metered = run(&[
        "oracle-query",
        &oracle_path,
        "--queries",
        &queries.to_string_lossy(),
        "--metrics",
    ]);
    assert!(metered.status.success(), "{}", stderr(&metered));
    let text = stdout(&metered);
    assert!(text.contains("per-query latency: p50 "), "{text}");
    // The tail of the latency report: p999 and the histogram mean ride
    // along with the p50/p99 quantiles.
    assert!(text.contains(" p999 "), "{text}");
    assert!(text.contains(" mean "), "{text}");
    assert_eq!(json_u64(&text, "kernel.batch_queries"), 5, "{text}");
    assert!(json_u64(&text, "kernel.merge_rows") > 0, "{text}");
    assert!(text.contains("\"kernel.query_ns\""), "{text}");
    std::fs::remove_dir_all(dir).ok();
}

/// Structural sanity check on an exported Chrome trace file: a JSON array
/// of complete begin/end pairs (plus instants) that names `needle`.
fn assert_trace_file(path: &Path, needle: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|_| panic!("trace file {} missing", path.display()));
    assert!(
        text.trim_start().starts_with('['),
        "not a JSON array: {text}"
    );
    assert!(text.trim_end().ends_with(']'), "unterminated array: {text}");
    assert_eq!(
        text.matches("\"ph\":\"B\"").count(),
        text.matches("\"ph\":\"E\"").count(),
        "unbalanced begin/end events: {text}"
    );
    assert!(
        text.contains(&format!("\"name\":\"{needle}\"")),
        "missing {needle} in {text}"
    );
}

#[test]
fn trace_out_does_not_change_primary_output() {
    let dir = tempdir("trace-parity");
    let net = sample_network(&dir);
    let oracle_path = dir.join("frozen.ipfa").to_string_lossy().into_owned();
    let built = run(&[
        "build",
        &net,
        "--window",
        "60",
        "--frozen",
        "--out",
        &oracle_path,
    ]);
    assert!(built.status.success(), "{}", stderr(&built));

    let queries = dir.join("queries.txt");
    std::fs::write(&queries, "0\n0,1\n3,4,5\n").unwrap();
    let trace_path = dir.join("trace.json");
    let plain = run(&[
        "oracle-query",
        &oracle_path,
        "--queries",
        &queries.to_string_lossy(),
    ]);
    let traced = run(&[
        "oracle-query",
        &oracle_path,
        "--queries",
        &queries.to_string_lossy(),
        "--trace-out",
        &trace_path.to_string_lossy(),
    ]);
    assert!(plain.status.success() && traced.status.success());
    // Tracing adds exactly one trailing status line; the answers above it
    // are byte-identical to the untraced run.
    let traced_text = stdout(&traced);
    assert!(traced_text.starts_with(&stdout(&plain)), "{traced_text}");
    assert!(
        traced_text.contains("wrote Chrome trace to"),
        "{traced_text}"
    );
    assert_trace_file(&trace_path, "query.batch");
    assert_trace_file(&trace_path, "query.element");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn trace_out_works_on_every_traced_subcommand() {
    let dir = tempdir("trace-all");
    let net = sample_network(&dir);

    // build --frozen
    let frozen_path = dir.join("frozen.ipfa").to_string_lossy().into_owned();
    let t_build = dir.join("build.json");
    let built = run(&[
        "build",
        &net,
        "--window",
        "60",
        "--frozen",
        "--out",
        &frozen_path,
        "--trace-out",
        &t_build.to_string_lossy(),
    ]);
    assert!(built.status.success(), "{}", stderr(&built));
    assert_trace_file(&t_build, "build.reverse_scan");
    assert_trace_file(&t_build, "build.freeze");

    // build --layered, then append and compact against the directory.
    let oracle_dir = dir.join("layered").to_string_lossy().into_owned();
    let t_layered = dir.join("layered.json");
    let layered = run(&[
        "build",
        &net,
        "--window",
        "60",
        "--exact",
        "--layered",
        "--out",
        &oracle_dir,
        "--trace-out",
        &t_layered.to_string_lossy(),
    ]);
    assert!(layered.status.success(), "{}", stderr(&layered));
    assert_trace_file(&t_layered, "build.reverse_scan");

    let batch = dir.join("batch.txt");
    std::fs::write(&batch, "0 5 200\n5 9 201\n").unwrap();
    let t_append = dir.join("append.json");
    let appended = run(&[
        "append",
        &oracle_dir,
        &batch.to_string_lossy(),
        "--trace-out",
        &t_append.to_string_lossy(),
    ]);
    assert!(appended.status.success(), "{}", stderr(&appended));
    assert_trace_file(&t_append, "append.batch");

    let t_compact = dir.join("compact.json");
    let compacted = run(&[
        "compact",
        &oracle_dir,
        "--trace-out",
        &t_compact.to_string_lossy(),
    ]);
    assert!(compacted.status.success(), "{}", stderr(&compacted));
    assert_trace_file(&t_compact, "compact.run");
    assert_trace_file(&t_compact, "compact.rebuild");

    // oracle-query --seeds against the compacted directory.
    let t_query = dir.join("query.json");
    let queried = run(&[
        "oracle-query",
        &oracle_dir,
        "--seeds",
        "0,1",
        "--trace-out",
        &t_query.to_string_lossy(),
    ]);
    assert!(queried.status.success(), "{}", stderr(&queried));
    assert_trace_file(&t_query, "load.oracle");
    assert_trace_file(&t_query, "query.batch");

    // topk and simulate trace their build and run phases.
    let t_topk = dir.join("topk.json");
    let topk = run(&[
        "topk",
        &net,
        "--k",
        "2",
        "--window-pct",
        "20",
        "--threads",
        "1",
        "--trace-out",
        &t_topk.to_string_lossy(),
    ]);
    assert!(topk.status.success(), "{}", stderr(&topk));
    assert_trace_file(&t_topk, "build.reverse_scan");
    assert_trace_file(&t_topk, "greedy.selection");

    let t_sim = dir.join("sim.json");
    let sim = run(&[
        "simulate",
        &net,
        "--seeds",
        "0,1",
        "--window-pct",
        "20",
        "--runs",
        "5",
        "--trace-out",
        &t_sim.to_string_lossy(),
    ]);
    assert!(sim.status.success(), "{}", stderr(&sim));
    assert_trace_file(&t_sim, "simulate.run");

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn profile_reports_attribution_and_slowest_traces() {
    let dir = tempdir("profile");
    let net = sample_network(&dir);
    let oracle_path = dir.join("frozen.ipfa").to_string_lossy().into_owned();
    let built = run(&[
        "build",
        &net,
        "--window",
        "60",
        "--frozen",
        "--out",
        &oracle_path,
    ]);
    assert!(built.status.success(), "{}", stderr(&built));

    let trace_path = dir.join("profile.json");
    let out = run(&[
        "profile",
        &oracle_path,
        "--rounds",
        "16",
        "--k",
        "2",
        "--threads",
        "1",
        "--slowest",
        "4",
        "--trace-out",
        &trace_path.to_string_lossy(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("format: IPFA frozen register arena"),
        "{text}"
    );
    assert!(text.contains("answered 16 queries"), "{text}");
    assert!(text.contains("greedy top-2: ["), "{text}");
    assert!(text.contains("phase attribution"), "{text}");
    for event in ["profile.run", "load.oracle", "query.batch", "query.element"] {
        assert!(
            text.contains(event),
            "missing {event} in attribution: {text}"
        );
    }
    assert!(text.contains("slowest 4 traces by wall time:"), "{text}");
    assert_trace_file(&trace_path, "profile.run");
    assert_trace_file(&trace_path, "query.element");

    // A query workload file drives the same pipeline.
    let queries = dir.join("queries.txt");
    std::fs::write(&queries, "0\n1,2\n").unwrap();
    let from_file = run(&[
        "profile",
        &oracle_path,
        "--queries",
        &queries.to_string_lossy(),
    ]);
    assert!(from_file.status.success(), "{}", stderr(&from_file));
    assert!(stdout(&from_file).contains("answered 2 queries"));

    // Out-of-range workload ids fail cleanly.
    let bad_q = dir.join("bad.txt");
    std::fs::write(&bad_q, "999999\n").unwrap();
    let bad = run(&[
        "profile",
        &oracle_path,
        "--queries",
        &bad_q.to_string_lossy(),
    ]);
    assert!(!bad.status.success());
    assert!(
        stderr(&bad).contains("inside the oracle"),
        "{}",
        stderr(&bad)
    );

    std::fs::remove_dir_all(dir).ok();
}

/// Builds the sample network as all six oracle artefacts, the sketches at
/// one β: live exact summaries (IPEI), a frozen exact arena (IPFE), a
/// layered exact directory, live sketches (IPAO), a frozen register arena
/// (IPFA) and a layered sketch directory, in that order.
fn six_artefacts(dir: &Path) -> Vec<String> {
    let net = sample_network(dir);
    let mut paths = Vec::new();
    for (name, flags) in [
        ("g.ipei", &["--exact"][..]),
        ("g.ipfe", &["--exact", "--frozen"]),
        ("layered-exact", &["--exact", "--layered"]),
        ("g.ipao", &["--beta", "256"]),
        ("g.ipfa", &["--beta", "256", "--frozen"]),
        ("layered-approx", &["--beta", "256", "--layered"]),
    ] {
        let out = dir.join(name).to_string_lossy().into_owned();
        let mut args = vec!["build", net.as_str(), "--window", "60", "--out", &out];
        args.extend_from_slice(flags);
        let built = run(&args);
        assert!(built.status.success(), "{name}: {}", stderr(&built));
        paths.push(out);
    }
    paths
}

#[test]
fn every_artefact_answers_like_the_rest_of_its_family() {
    let dir = tempdir("six-artefacts");
    let paths = six_artefacts(&dir);
    let queries = dir.join("queries.txt");
    std::fs::write(&queries, "0\n0,1\n3,4,5\n12,0,8,8\n15\n").unwrap();
    let queries = queries.to_string_lossy().into_owned();
    let formats = [
        "IPEI exact summaries",
        "IPFE frozen exact arena",
        "layered exact oracle directory (generation 0, 0 pending)",
        "IPAO sketch oracle",
        "IPFA frozen register arena",
        "layered sketch oracle directory (generation 0, 0 pending)",
    ];
    let mut answers = Vec::new();
    let mut picks = Vec::new();
    for (path, format) in paths.iter().zip(formats) {
        let out = run(&["oracle-query", path, "--queries", &queries, "--metrics"]);
        assert!(out.status.success(), "{path}: {}", stderr(&out));
        let text = stdout(&out);
        let line = text.lines().find(|l| l.starts_with("format: ")).unwrap();
        assert!(line.starts_with(&format!("format: {format}")), "{line}");
        let inf: Vec<String> = text
            .lines()
            .filter(|l| l.starts_with("Inf("))
            .map(String::from)
            .collect();
        assert_eq!(inf.len(), 5, "{text}");
        answers.push(inf);

        let out = run(&[
            "profile",
            path,
            "--rounds",
            "8",
            "--k",
            "2",
            "--threads",
            "1",
        ]);
        assert!(out.status.success(), "{path}: {}", stderr(&out));
        let text = stdout(&out);
        let line = text.lines().find(|l| l.starts_with("format: ")).unwrap();
        assert!(line.starts_with(&format!("format: {format}")), "{line}");
        let top = text.lines().find(|l| l.starts_with("greedy top-2: "));
        picks.push(top.unwrap().to_owned());
    }
    for family in [0, 3] {
        for member in family + 1..family + 3 {
            assert_eq!(answers[member], answers[family], "{}", paths[member]);
            assert_eq!(picks[member], picks[family], "{}", paths[member]);
        }
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn load_errors_name_the_format_and_the_versions() {
    use infprop_core::{FrozenApproxOracle, InfluenceOracle};

    let dir = tempdir("load-errors");
    let net = sample_network(&dir);
    let ipfa = dir.join("g.ipfa");
    let ipfe = dir.join("g.ipfe");
    for (out, flags) in [
        (&ipfa, &["--frozen"][..]),
        (&ipfe, &["--frozen", "--exact"]),
    ] {
        let out = out.to_string_lossy();
        let mut args = vec!["build", net.as_str(), "--window", "60", "--out", &out];
        args.extend_from_slice(flags);
        let built = run(&args);
        assert!(built.status.success(), "{}", stderr(&built));
    }
    let query_error = |bytes: &[u8]| {
        let path = dir.join("broken.bin");
        std::fs::write(&path, bytes).unwrap();
        let out = run(&["oracle-query", &path.to_string_lossy(), "--seeds", "0"]);
        assert!(!out.status.success());
        stderr(&out)
    };

    let mut old = std::fs::read(&ipfa).unwrap();
    old[4] = 3;
    let err = query_error(&old);
    assert!(
        err.contains(
            "IPFA frozen register arena: file has layout version 3, expected 4 \
             (older layouts are no longer read: rebuild the arena)"
        ),
        "{err}"
    );

    let mut future = std::fs::read(&ipfe).unwrap();
    future[4] = 9;
    let err = query_error(&future);
    assert!(
        err.contains(
            "IPFE frozen exact arena: file has layout version 9, but this build reads \
             version 2 (rebuild the arena or upgrade infprop)"
        ),
        "{err}"
    );

    // The per-node estimates close the image; a flipped estimate passes the
    // structural load and fails the deep validation.
    let n = FrozenApproxOracle::load(&ipfa).unwrap().num_nodes();
    let mut flipped = std::fs::read(&ipfa).unwrap();
    let at = flipped.len() - 8 * n;
    flipped[at] ^= 1;
    let err = query_error(&flipped);
    assert!(
        err.starts_with("error: IPFA frozen register arena: "),
        "{err}"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn serve_answers_byte_exact_and_drains_cleanly() {
    use infprop_core::serve::Client;
    use infprop_core::{FrozenExactOracle, InfluenceOracle};
    use infprop_temporal_graph::NodeId;
    use std::time::Duration;

    let dir = tempdir("serve");
    let net = sample_network(&dir);
    let oracle_path = dir.join("oracle.ipfe").to_string_lossy().into_owned();
    let built = run(&[
        "build",
        &net,
        "--window",
        "60",
        "--exact",
        "--frozen",
        "--out",
        &oracle_path,
    ]);
    assert!(built.status.success(), "{}", stderr(&built));

    // The in-process reference every served answer must match bit-for-bit.
    let reference = FrozenExactOracle::load(Path::new(&oracle_path)).unwrap();
    let n = reference.num_nodes() as u32;
    let seed_sets: Vec<Vec<NodeId>> = vec![
        vec![NodeId(0)],
        vec![NodeId(1 % n), NodeId(5 % n)],
        vec![NodeId(2 % n), NodeId(3 % n), NodeId(7 % n)],
        vec![],
    ];
    let expected = reference.influence_many_frozen(&seed_sets, 1);

    let sock = dir.join("serve.sock");
    let mut child = bin()
        .args([
            "serve",
            &oracle_path,
            "--socket",
            &sock.to_string_lossy(),
            "--threads",
            "1",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("serve spawns");

    // Wait for the listener, then batch queries through it.
    let mut client = None;
    for _ in 0..400 {
        match Client::connect_unix(&sock) {
            Ok(c) => {
                client = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    let mut client = client.expect("server socket never came up");
    let got = client.influence_many(0, &seed_sets).unwrap();
    assert_eq!(got.len(), expected.len());
    for (g, e) in got.iter().zip(&expected) {
        assert_eq!(g.to_bits(), e.to_bits(), "served answer diverged");
    }
    let summary = client.summary(0, NodeId(0)).unwrap();
    assert_eq!(
        summary.individual.to_bits(),
        reference.individual(NodeId(0)).to_bits()
    );
    assert_eq!(
        summary.entries.as_deref().unwrap(),
        &reference.summary(NodeId(0)).to_vec()[..]
    );

    // Dropping a connection (clean EOF) must not take the server down.
    drop(client);
    let mut second = Client::connect_unix(&sock).expect("server survives client EOF");
    let again = second.influence_many(0, &seed_sets).unwrap();
    for (g, e) in again.iter().zip(&expected) {
        assert_eq!(g.to_bits(), e.to_bits());
    }

    // Neither does a client that claims a maximal frame and hangs up.
    {
        use std::io::Write;
        let mut hostile = std::os::unix::net::UnixStream::connect(&sock).unwrap();
        hostile
            .write_all(&infprop_core::serve::MAX_FRAME_LEN.to_le_bytes())
            .unwrap();
    }
    let mut third = Client::connect_unix(&sock).expect("server survives a hostile header");
    let after = third.influence_many(0, &seed_sets).unwrap();
    for (g, e) in after.iter().zip(&expected) {
        assert_eq!(g.to_bits(), e.to_bits());
    }
    drop(third);

    // bench-serve drives the same server and asserts bit-identity itself.
    let bench = run(&[
        "bench-serve",
        &oracle_path,
        "--socket",
        &sock.to_string_lossy(),
        "--clients",
        "2",
        "--batches",
        "3",
        "--batch-size",
        "4",
    ]);
    assert!(bench.status.success(), "{}", stderr(&bench));
    let bench_text = stdout(&bench);
    assert!(bench_text.contains("bit-identical"), "{bench_text}");
    assert!(bench_text.contains("throughput:"), "{bench_text}");

    // A SHUTDOWN frame drains the server and the process exits cleanly.
    second.shutdown().unwrap();
    let mut status = None;
    for _ in 0..400 {
        if let Some(s) = child.try_wait().unwrap() {
            status = Some(s);
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let status = match status {
        Some(s) => s,
        None => {
            let _ = child.kill();
            panic!("serve did not exit after SHUTDOWN");
        }
    };
    assert!(status.success(), "serve exited non-zero");
    let mut out = String::new();
    use std::io::Read as _;
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut out)
        .unwrap();
    assert!(out.contains("load latency:"), "{out}");
    assert!(out.contains("server drained"), "{out}");
    assert!(!sock.exists(), "socket file not cleaned up");

    std::fs::remove_dir_all(dir).ok();
}

//! Perf-trajectory harness: runs fixed synthetic profiles through the hot
//! paths (exact + vHLL build, freeze into the contiguous arenas, oracle
//! queries, individual-influence sweeps serial vs. parallel, greedy top-k)
//! and writes `BENCH_core.json` so every future PR has a number to be held
//! accountable to.
//!
//! Query-path rows measure the **frozen** oracles (the production path
//! since the frozen-arena PR); the live-store serial numbers are kept as
//! `*_live_*` rows so the freeze win stays visible, and every frozen result
//! is asserted bit-identical to its live counterpart before timings are
//! reported.
//!
//! Usage: `cargo run --release -p infprop-bench --bin trajectory --
//!         [--out FILE] [--scale F]`
//!
//! * `--out`   output path (default `BENCH_core.json` in the CWD — run from
//!   the repo root to refresh the committed trajectory point).
//! * `--scale` profile size multiplier (default 1.0; CI smoke uses 0.05).
//!
//! The generators are deterministic (splitmix64 from fixed seeds), so two
//! runs at the same scale measure the same workload, and the checksums in
//! the JSON double as a correctness guard: they must not drift across PRs
//! unless an algorithm change is intended and called out.
//!
//! The `reference` block embeds the hot-path numbers captured on the
//! pre-dense-store tree (hash-map summaries, allocating merge path, serial
//! sweeps) at scale 1.0 on a single-core container — the "before" of the
//! dense-store PR. Compare apples to apples: same scale, same machine
//! class.

use infprop_core::serve::{Client, ServedOracle, Server, ServerConfig};
use infprop_core::{
    ApproxIrs, ArenaBytes, ExactIrs, FrozenExactOracle, HeapBytes, InfluenceOracle,
    MetricsRecorder, NoopRecorder, NoopTracer, RingTracer,
};
use infprop_temporal_graph::{InteractionNetwork, NodeId, Window};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn uniform_profile(n: u64, m: usize, span: u64, seed: u64) -> InteractionNetwork {
    let mut s = seed;
    InteractionNetwork::from_triples((0..m).map(|_| {
        let a = (splitmix64(&mut s) % n) as u32;
        let b = (splitmix64(&mut s) % n) as u32;
        let t = (splitmix64(&mut s) % span) as i64;
        (a, b, t)
    }))
}

fn hub_profile(n: u64, m: usize, span: u64, seed: u64) -> InteractionNetwork {
    let mut s = seed;
    InteractionNetwork::from_triples((0..m).map(|_| {
        let skew = splitmix64(&mut s) & 1 == 0;
        let a = if skew {
            (splitmix64(&mut s) % 32) as u32
        } else {
            (splitmix64(&mut s) % n) as u32
        };
        let b = (splitmix64(&mut s) % n) as u32;
        let t = (splitmix64(&mut s) % span) as i64;
        (a, b, t)
    }))
}

/// Min-of-N timing: the minimum is the least noise-contaminated estimate of
/// the true cost on a shared machine.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let v = f();
        let dt = t0.elapsed().as_secs_f64();
        if dt < best {
            best = dt;
        }
        out = Some(v);
    }
    (best, out.unwrap())
}

struct ProfileReport {
    name: &'static str,
    nodes: usize,
    interactions: usize,
    exact_build_ns_per_interaction: f64,
    exact_total_entries: usize,
    vhll_build_ns_per_interaction: f64,
    vhll_total_entries: usize,
    /// Time to freeze the vHLL store into the flat register arena.
    freeze_ms: f64,
    /// Heap bytes of the frozen approx + exact arenas.
    frozen_bytes: usize,
    /// 8-seed query cost on the frozen arena (the production path).
    oracle_query_ns: f64,
    /// Same queries against the live (per-node-alloc) oracle.
    oracle_query_live_ns: f64,
    oracle_query_checksum: f64,
    /// `(threads, ns_per_query)` rows for the same 64 queries answered in
    /// one `influence_many_frozen` call (dedup + scratch amortized, GROUP
    /// interleaving), asserted bit-identical to per-query before timing.
    oracle_batch_query_ns: Vec<(usize, f64)>,
    /// The same 64-query batch answered through
    /// `influence_many_frozen_traced` with a live ring tracer at 1 thread,
    /// asserted bit-identical before timing. Per-element spans are lap
    /// records — one ring emit and one clock read per element, the
    /// information floor (N contiguous spans need N+1 boundary
    /// timestamps) — so the overhead over `oracle_query_ns` is dominated
    /// by one monotonic clock read per query; see NOTES.
    oracle_query_traced_ns: f64,
    /// Serial sweep over the live oracle — the pre-freeze baseline every
    /// speedup below is measured against.
    sweep_serial_ns_per_node: f64,
    /// Serial sweep over the frozen arena (precomputed `individual` table).
    sweep_frozen_ns_per_node: f64,
    sweep_checksum: f64,
    /// `(threads, ns_per_node, speedup_vs_live_serial)` rows on the frozen
    /// arena.
    sweep_parallel: Vec<(usize, f64, f64)>,
    /// CELF greedy on the frozen arena (the production path).
    greedy_k16_ms: f64,
    /// CELF greedy on the live oracle.
    greedy_k16_live_ms: f64,
    greedy_last_cumulative: f64,
    exact_sweep_checksum: f64,
    exact_greedy_last_cumulative: f64,
    /// Overlay rebuild (refresh) after appending the last 10% of the
    /// history onto a frozen base over the first 90%.
    layered_refresh_ms: f64,
    /// 8-seed query cost through the layered base ⊕ delta merge path,
    /// asserted bit-identical to the frozen full-history arena first.
    layered_query_ns: f64,
    /// One LSM-style re-freeze over the window-surviving log.
    compaction_ms: f64,
    /// Interactions surviving the window cut at compaction.
    compaction_survivors: usize,
    /// Metrics snapshot JSON from one recorded (untimed) pass over the
    /// profile: exact + vHLL builds and a serial oracle sweep.
    metrics_json: String,
}

fn run_profile(
    name: &'static str,
    net: &InteractionNetwork,
    window: Window,
    thread_counts: &[usize],
) -> ProfileReport {
    let m = net.num_interactions() as f64;
    let n = net.num_nodes();
    eprintln!("profile {name}: n={n} m={}", net.num_interactions());

    let (t_exact, exact) = best_of(3, || ExactIrs::compute(net, window));
    let (t_vhll, approx) = best_of(3, || ApproxIrs::compute_with_precision(net, window, 9));
    let oracle = approx.oracle();
    let (t_freeze, frozen) = best_of(3, || approx.freeze());
    let frozen_exact = exact.freeze();
    let frozen_bytes = frozen.heap_bytes() + frozen_exact.heap_bytes();

    // 64 fixed 8-seed queries, answered by both the frozen arena (the
    // production path) and the live oracle; totals must agree bitwise.
    let mut s = 0xDEAD_BEEFu64;
    let queries: Vec<Vec<NodeId>> = (0..64)
        .map(|_| {
            (0..8)
                .map(|_| NodeId((splitmix64(&mut s) % n.max(1) as u64) as u32))
                .collect()
        })
        .collect();
    // The frozen per-query loop and the true batch API run interleaved
    // under one rep loop: each iteration times the per-query pass and
    // every batch fan-out back to back, and each measurement keeps its
    // own minimum. Interleaving keeps the single-vs-batch comparison
    // honest when the box's effective clock drifts mid-run — both sides
    // sample the same machine states instead of whichever phase their
    // own timing block happened to land in.
    // The traced row rides the same rep loop for the same reason: its
    // headline is the overhead *ratio* against the per-query loop, which
    // clock drift between two separate phase loops would corrupt. The
    // ring is allocated once outside the loop (the CLI does the same for
    // `--trace-out`), so the row isolates per-span emit cost.
    let ring = RingTracer::new(1);
    let mut t_q = f64::INFINITY;
    let mut q_total = 0.0;
    let mut t_batch = vec![f64::INFINITY; thread_counts.len()];
    let mut batch_answers: Vec<Vec<f64>> = vec![Vec::new(); thread_counts.len()];
    let mut t_traced = f64::INFINITY;
    let mut traced_answers: Vec<f64> = Vec::new();
    for _ in 0..25 {
        let start = Instant::now();
        let mut acc = 0.0;
        for q in &queries {
            acc += frozen.influence(q);
        }
        t_q = t_q.min(start.elapsed().as_secs_f64());
        q_total = acc;
        for (slot, &threads) in thread_counts.iter().enumerate() {
            let start = Instant::now();
            let batch = frozen.influence_many_frozen(&queries, threads);
            t_batch[slot] = t_batch[slot].min(start.elapsed().as_secs_f64());
            batch_answers[slot] = batch;
        }
        let start = Instant::now();
        let batch = frozen.influence_many_frozen_traced(&queries, 1, &NoopRecorder, ring.lane(0));
        t_traced = t_traced.min(start.elapsed().as_secs_f64());
        traced_answers = batch;
    }
    let (t_q_live, q_total_live) = best_of(5, || {
        let mut acc = 0.0;
        for q in &queries {
            acc += oracle.influence(q);
        }
        acc
    });
    assert_eq!(
        q_total.to_bits(),
        q_total_live.to_bits(),
        "frozen queries must be bit-identical to live"
    );

    // Per-answer bits from the batch API must match the per-query loop at
    // every fan-out before any timing is reported.
    let per_query_bits: Vec<u64> = queries
        .iter()
        .map(|q| frozen.influence(q).to_bits())
        .collect();
    let mut oracle_batch_query_ns = Vec::new();
    for (slot, &threads) in thread_counts.iter().enumerate() {
        let batch_bits: Vec<u64> = batch_answers[slot].iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            batch_bits, per_query_bits,
            "batch queries must be bit-identical to per-query at {threads} threads"
        );
        oracle_batch_query_ns.push((threads, t_batch[slot] * 1e9 / 64.0));
    }

    // Traced answers must be bit-identical to the untraced per-query loop
    // before the timing is reported.
    let traced_bits: Vec<u64> = traced_answers.iter().map(|v| v.to_bits()).collect();
    assert_eq!(
        traced_bits, per_query_bits,
        "traced batch queries must be bit-identical to untraced"
    );

    let (t_sweep, sweep) = best_of(3, || oracle.individuals(1));
    let sweep_checksum: f64 = sweep.iter().sum();
    let (t_fsweep, fsweep) = best_of(3, || frozen.individuals(1));
    assert_eq!(fsweep, sweep, "frozen sweep must be byte-identical to live");
    let mut sweep_parallel = Vec::new();
    for &threads in thread_counts {
        let (t_par, par_sweep) = best_of(3, || frozen.individuals(threads));
        assert_eq!(par_sweep, sweep, "parallel sweep must be byte-identical");
        sweep_parallel.push((threads, t_par * 1e9 / n.max(1) as f64, t_sweep / t_par));
    }

    let (t_greedy, picks) = best_of(3, || infprop_core::greedy_top_k(&frozen, 16));
    let (t_greedy_live, live_picks) = best_of(3, || infprop_core::greedy_top_k(&oracle, 16));
    assert_eq!(
        picks.iter().map(|p| p.node).collect::<Vec<_>>(),
        live_picks.iter().map(|p| p.node).collect::<Vec<_>>(),
        "frozen greedy must pick the same seeds as live"
    );
    let eo = exact.oracle();
    let (_, esweep) = best_of(3, || frozen_exact.individuals(1));
    assert_eq!(
        esweep,
        eo.individuals(1),
        "frozen exact sweep must be byte-identical to live"
    );
    let exact_sweep_checksum: f64 = esweep.iter().sum();
    let (_, epicks) = best_of(3, || infprop_core::greedy_top_k(&frozen_exact, 16));

    // Layered-oracle rows: rebuild the same history as `frozen base over
    // the first 90% + forward appends of the last 10%`, then measure the
    // overlay rebuild, the base ⊕ delta query path (bit-identical to the
    // frozen full-history arena by the layered-correctness theorem), and
    // one LSM-style compaction.
    let ints = net.interactions();
    let split = ints.len() * 9 / 10;
    let base_net = InteractionNetwork::from_triples(
        ints[..split]
            .iter()
            .map(|i| (i.src.0, i.dst.0, i.time.get())),
    );
    let mut layered = ApproxIrs::compute_with_precision(&base_net, window, 9).layered(&base_net);
    for &i in &ints[split..] {
        layered
            .append(i)
            .expect("history suffix moves forward in time");
    }
    let (t_lrefresh, _) = best_of(3, || layered.refresh());
    let (t_lq, lq_total) = best_of(25, || {
        let mut acc = 0.0;
        for q in &queries {
            acc += layered.influence(q);
        }
        acc
    });
    assert_eq!(
        lq_total.to_bits(),
        q_total.to_bits(),
        "layered queries must be bit-identical to the frozen arena"
    );
    let layered_batch: Vec<u64> = layered
        .influence_many_frozen(&queries, 2)
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(
        layered_batch, per_query_bits,
        "layered batch queries must be bit-identical to the frozen arena"
    );
    let t0 = Instant::now();
    layered.compact();
    let t_compact = t0.elapsed().as_secs_f64();
    assert_eq!(
        layered.generation(),
        1,
        "one compaction advances one generation"
    );
    let compaction_survivors = layered.delta().tail().len();

    // One recorded pass, outside the timed best-of loops, captures the
    // counter profile of this workload (merge-path mix, entries touched,
    // dominance prunes, union sizes, freeze footprint, parallel chunk
    // fan-out and scratch reuse) without contaminating the timings.
    let rec = MetricsRecorder::new();
    let recorded_exact = ExactIrs::compute_recorded(net, window, &rec);
    let recorded_approx = ApproxIrs::compute_with_precision_recorded(net, window, 9, &rec);
    let recorded_frozen = recorded_approx.freeze_recorded(&rec);
    let _ = recorded_exact.oracle().individuals_recorded(1, &rec);
    let _ = recorded_frozen.influence_many_recorded(&queries, 2, &rec);
    let _ = recorded_frozen.influence_many_frozen_recorded(&queries, 2, &rec);
    let metrics_json = rec.snapshot().to_json();

    ProfileReport {
        name,
        nodes: n,
        interactions: net.num_interactions(),
        exact_build_ns_per_interaction: t_exact * 1e9 / m.max(1.0),
        exact_total_entries: exact.total_entries(),
        vhll_build_ns_per_interaction: t_vhll * 1e9 / m.max(1.0),
        vhll_total_entries: approx.total_entries(),
        freeze_ms: t_freeze * 1e3,
        frozen_bytes,
        oracle_query_ns: t_q * 1e9 / 64.0,
        oracle_query_live_ns: t_q_live * 1e9 / 64.0,
        oracle_query_checksum: q_total,
        oracle_batch_query_ns,
        oracle_query_traced_ns: t_traced * 1e9 / 64.0,
        sweep_serial_ns_per_node: t_sweep * 1e9 / n.max(1) as f64,
        sweep_frozen_ns_per_node: t_fsweep * 1e9 / n.max(1) as f64,
        sweep_checksum,
        sweep_parallel,
        greedy_k16_ms: t_greedy * 1e3,
        greedy_k16_live_ms: t_greedy_live * 1e3,
        greedy_last_cumulative: picks.last().map(|p| p.cumulative).unwrap_or(0.0),
        exact_sweep_checksum,
        exact_greedy_last_cumulative: epicks.last().map(|p| p.cumulative).unwrap_or(0.0),
        layered_refresh_ms: t_lrefresh * 1e3,
        layered_query_ns: t_lq * 1e9 / 64.0,
        compaction_ms: t_compact * 1e3,
        compaction_survivors,
        metrics_json,
    }
}

fn profile_json(r: &ProfileReport) -> String {
    let mut sp = String::new();
    for (i, &(threads, ns, speedup)) in r.sweep_parallel.iter().enumerate() {
        if i > 0 {
            sp.push_str(", ");
        }
        let _ = write!(
            sp,
            "{{\"threads\": {threads}, \"ns_per_node\": {ns:.1}, \"speedup\": {speedup:.2}}}"
        );
    }
    let mut bq = String::new();
    for (i, &(threads, ns)) in r.oracle_batch_query_ns.iter().enumerate() {
        if i > 0 {
            bq.push_str(", ");
        }
        let _ = write!(bq, "{{\"threads\": {threads}, \"ns_per_query\": {ns:.1}}}");
    }
    // Re-indent the snapshot so the nested block lines up with the
    // surrounding profile object.
    let metrics = r.metrics_json.replace('\n', "\n      ");
    format!(
        "    {{\n      \"name\": \"{}\",\n      \"nodes\": {},\n      \"interactions\": {},\n      \
         \"exact_build_ns_per_interaction\": {:.1},\n      \"exact_total_entries\": {},\n      \
         \"vhll_build_ns_per_interaction\": {:.1},\n      \"vhll_total_entries\": {},\n      \
         \"freeze_ms\": {:.3},\n      \"frozen_bytes\": {},\n      \
         \"oracle_query_ns\": {:.1},\n      \"oracle_query_live_ns\": {:.1},\n      \
         \"oracle_query_checksum\": {:.1},\n      \
         \"oracle_batch_query_ns\": [{}],\n      \
         \"oracle_query_traced_ns\": {:.1},\n      \
         \"sweep_serial_ns_per_node\": {:.1},\n      \"sweep_frozen_ns_per_node\": {:.1},\n      \
         \"sweep_checksum\": {:.1},\n      \
         \"sweep_parallel\": [{}],\n      \
         \"greedy_k16_ms\": {:.3},\n      \"greedy_k16_live_ms\": {:.3},\n      \
         \"greedy_last_cumulative\": {:.1},\n      \
         \"exact_sweep_checksum\": {:.1},\n      \"exact_greedy_last_cumulative\": {:.1},\n      \
         \"layered_refresh_ms\": {:.3},\n      \"layered_query_ns\": {:.1},\n      \
         \"compaction_ms\": {:.3},\n      \"compaction_survivors\": {},\n      \
         \"metrics\": {}\n    }}",
        r.name,
        r.nodes,
        r.interactions,
        r.exact_build_ns_per_interaction,
        r.exact_total_entries,
        r.vhll_build_ns_per_interaction,
        r.vhll_total_entries,
        r.freeze_ms,
        r.frozen_bytes,
        r.oracle_query_ns,
        r.oracle_query_live_ns,
        r.oracle_query_checksum,
        bq,
        r.oracle_query_traced_ns,
        r.sweep_serial_ns_per_node,
        r.sweep_frozen_ns_per_node,
        r.sweep_checksum,
        sp,
        r.greedy_k16_ms,
        r.greedy_k16_live_ms,
        r.greedy_last_cumulative,
        r.exact_sweep_checksum,
        r.exact_greedy_last_cumulative,
        r.layered_refresh_ms,
        r.layered_query_ns,
        r.compaction_ms,
        r.compaction_survivors,
        metrics,
    )
}

/// Exact-rank percentile over an ascending latency sample.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// One closed-loop serving measurement: `clients` concurrent connections,
/// each answering `BATCHES` influence frames of the same `queries` batch.
/// Every served answer is asserted bit-identical to `expected` (connect and
/// warm-up frames sit outside the timed window). Returns aggregate
/// queries/s plus the merged ascending per-frame latency sample.
fn drive_clients(
    sock: &Path,
    clients: usize,
    queries: &[Vec<NodeId>],
    expected: &[f64],
) -> (f64, Vec<u64>) {
    const BATCHES: usize = 128;
    const WARMUP: usize = 4;
    let per_client: Vec<(u64, Vec<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = connect_with_retry(sock);
                    for _ in 0..WARMUP {
                        client.influence_many(0, queries).expect("warm-up frame");
                    }
                    let mut lats = Vec::with_capacity(BATCHES);
                    let t0 = Instant::now();
                    for _ in 0..BATCHES {
                        let t = Instant::now();
                        let got = client.influence_many(0, queries).expect("timed frame");
                        lats.push(t.elapsed().as_nanos() as u64);
                        for (g, e) in got.iter().zip(expected) {
                            assert_eq!(g.to_bits(), e.to_bits(), "served answer diverged");
                        }
                    }
                    (t0.elapsed().as_nanos() as u64, lats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let total_queries = (clients * BATCHES * queries.len()) as f64;
    let slowest_s = per_client.iter().map(|(wall, _)| *wall).max().unwrap_or(1) as f64 / 1e9;
    let mut lats: Vec<u64> = per_client.into_iter().flat_map(|(_, l)| l).collect();
    lats.sort_unstable();
    (total_queries / slowest_s, lats)
}

fn connect_with_retry(sock: &Path) -> Client {
    for _ in 0..400 {
        if let Ok(c) = Client::connect_unix(sock) {
            return c;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("server socket never came up at {}", sock.display());
}

struct ServeRow {
    clients: usize,
    qps: f64,
    p50_ns: f64,
    p99_ns: f64,
    p999_ns: f64,
}

/// Serving-tier rows: the zero-copy load path against the unconditional
/// bulk copy and the streamed decoder, then closed-loop `serve_qps` /
/// `serve_query_ns` percentiles for 1, 2 and 4 concurrent clients over an
/// in-process Unix-socket server answering the uniform profile's exact
/// arena.
fn run_serving(net: &InteractionNetwork, window: Window) -> String {
    eprintln!("serving: load paths + closed-loop qps");
    let exact = ExactIrs::compute(net, window);
    let frozen = exact.freeze();
    let mut image = Vec::new();
    frozen.write_to(&mut image).expect("arena image");

    let dir = std::env::temp_dir().join(format!("infprop-bench-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    // tmp+rename: the mmap safety argument rests on never mutating a
    // published arena file in place.
    let tmp = dir.join("arena.ipfe.tmp");
    let path = dir.join("arena.ipfe");
    std::fs::write(&tmp, &image).expect("write arena");
    std::fs::rename(&tmp, &path).expect("publish arena");

    // Byte-path rows: `open` is the zero-copy mapping (`mmap(2)` under
    // --features mmap, one aligned bulk read otherwise); `read` is the
    // unconditional full copy. The oracle rows add structural decode on
    // top: `load` rides `open`, `read_from` is the legacy streamed decoder.
    let (t_open, mapped) = best_of(25, || ArenaBytes::open(&path).expect("arena open"));
    let mmap_backend = mapped.is_mapped();
    assert_eq!(
        mapped.as_slice(),
        image.as_slice(),
        "mapped bytes must equal the published file"
    );
    drop(mapped);
    let (t_read, bulk) = best_of(25, || ArenaBytes::read(&path).expect("arena read"));
    assert_eq!(bulk.as_slice(), image.as_slice());
    drop(bulk);
    let (t_load, loaded) = best_of(25, || FrozenExactOracle::load(&path).expect("oracle load"));
    loaded.validate().expect("loaded arena validates");
    let (t_streamed, streamed) = best_of(25, || {
        let f = std::fs::File::open(&path).expect("open arena file");
        FrozenExactOracle::read_from(&mut std::io::BufReader::new(f)).expect("streamed decode")
    });

    // 16 fixed 8-seed queries; both load paths and every served answer must
    // agree with the freshly frozen oracle bit for bit before any serving
    // number is reported.
    let n = loaded.num_nodes().max(1) as u64;
    let mut s = 0x5EED_CAFEu64;
    let queries: Vec<Vec<NodeId>> = (0..16)
        .map(|_| {
            (0..8)
                .map(|_| NodeId((splitmix64(&mut s) % n) as u32))
                .collect()
        })
        .collect();
    let expected = frozen.influence_many_frozen(&queries, 1);
    let expected_bits: Vec<u64> = expected.iter().map(|v| v.to_bits()).collect();
    for oracle in [&loaded, &streamed] {
        let bits: Vec<u64> = oracle
            .influence_many_frozen(&queries, 1)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(
            bits, expected_bits,
            "load paths must answer bit-identically"
        );
    }

    let sock: PathBuf = dir.join("serving-socket");
    let config = ServerConfig {
        unix_path: Some(sock.clone()),
        tcp_addr: None,
        threads: 1,
    };
    let served = ServedOracle::open_recorded(&path, &NoopRecorder).expect("served oracle");
    let server = Server::bind(&config, vec![served]).expect("server bind");
    let server_thread = std::thread::spawn(move || {
        server.run(&NoopRecorder, NoopTracer).expect("server run");
    });

    // Probe connection: assert bit-identity through the wire before timing.
    let mut probe = connect_with_retry(&sock);
    let over_wire: Vec<u64> = probe
        .influence_many(0, &queries)
        .expect("probe frame")
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(
        over_wire, expected_bits,
        "served answers must be bit-identical to in-process"
    );
    drop(probe);

    let mut rows = Vec::new();
    for &clients in &[1usize, 2, 4] {
        let (qps, lats) = drive_clients(&sock, clients, &queries, &expected);
        let per_query = |q: f64| percentile(&lats, q) as f64 / queries.len() as f64;
        rows.push(ServeRow {
            clients,
            qps,
            p50_ns: per_query(0.50),
            p99_ns: per_query(0.99),
            p999_ns: per_query(0.999),
        });
    }

    connect_with_retry(&sock)
        .shutdown()
        .expect("shutdown frame");
    server_thread.join().expect("server thread");
    std::fs::remove_dir_all(&dir).ok();

    let mut cj = String::new();
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            cj.push_str(",\n      ");
        }
        let _ = write!(
            cj,
            "{{\"clients\": {}, \"serve_qps\": {:.0}, \"serve_query_ns\": \
             {{\"p50\": {:.1}, \"p99\": {:.1}, \"p999\": {:.1}}}}}",
            r.clients, r.qps, r.p50_ns, r.p99_ns, r.p999_ns
        );
    }
    format!(
        "{{\n    \"arena_bytes\": {},\n    \"mmap_backend\": {},\n    \
         \"arena_open_ns\": {:.0},\n    \"arena_bulk_read_ns\": {:.0},\n    \
         \"oracle_load_ns\": {:.0},\n    \"oracle_load_streamed_ns\": {:.0},\n    \
         \"queries_per_frame\": {},\n    \"clients\": [\n      {}\n    ]\n  }}",
        image.len(),
        mmap_backend,
        t_open * 1e9,
        t_read * 1e9,
        t_load * 1e9,
        t_streamed * 1e9,
        queries.len(),
        cj,
    )
}

/// Pre-change baseline (hash-map stores, allocating vHLL merges, serial
/// sweeps) measured at scale 1.0, 1 core, opt-level 3 — the "before" the
/// dense-store PR is compared against.
const REFERENCE: &str = r#"{
    "captured": "pre-dense-store tree, scale 1.0, 1 core, rustc -O",
    "uniform": {
      "exact_build_ns_per_interaction": 270.4,
      "vhll_build_ns_per_interaction": 2748.5,
      "oracle_query_ns": 3659.2,
      "sweep_serial_ns_per_node": 352.9,
      "greedy_k16_ms": 1.0
    },
    "hub": {
      "exact_build_ns_per_interaction": 360.1,
      "vhll_build_ns_per_interaction": 1995.2,
      "oracle_query_ns": 3760.3,
      "sweep_serial_ns_per_node": 334.5,
      "greedy_k16_ms": 3.0
    }
  }"#;

/// Hot-path numbers committed by the PR 4 tree (live per-node-alloc
/// oracles, pre-clamp parallel layer) at scale 1.0 on a 1-core container —
/// the direct "before" of the frozen-arena PR.
const REFERENCE_PR4: &str = r#"{
    "captured": "pre-frozen-arena tree (PR 4), scale 1.0, 1 core, rustc -O",
    "uniform": {
      "oracle_query_ns": 3614.3,
      "sweep_serial_ns_per_node": 370.0,
      "sweep_parallel_speedup": [1.08, 0.94, 0.79],
      "greedy_k16_ms": 1.824
    },
    "hub": {
      "oracle_query_ns": 3919.2,
      "sweep_serial_ns_per_node": 336.3,
      "sweep_parallel_speedup": [0.97, 0.87, 0.77],
      "greedy_k16_ms": 2.928
    }
  }"#;

/// Hot-path numbers committed by the PR 7 tree (scalar auto-vectorized
/// merge loop, per-query-only API) at scale 1.0 on a 1-core container —
/// the direct "before" of the vectorized-kernel/batch-API PR.
const REFERENCE_PR7: &str = r#"{
    "captured": "pre-vectorized-kernel tree (PR 7), scale 1.0, 1 core, rustc -O",
    "uniform": {
      "oracle_query_ns": 542.2,
      "layered_query_ns": 756.3,
      "greedy_k16_ms": 0.117
    },
    "hub": {
      "oracle_query_ns": 865.0,
      "layered_query_ns": 1216.3,
      "greedy_k16_ms": 4.020
    }
  }"#;

/// Free-form attribution notes carried in the JSON so a regression number
/// is never separated from its explanation.
const NOTES: &str = "Serving-tier PR: the serving block measures the zero-copy load path and the \
batched socket server. arena_open_ns is ArenaBytes::open (mmap(2) under --features mmap, one \
aligned bulk read otherwise — mmap_backend records which); arena_bulk_read_ns is the \
unconditional full copy; oracle_load_ns rides open plus structural decode (the production \
load), oracle_load_streamed_ns is the legacy streamed decoder over a BufReader. With the mmap \
feature on, oracle_load_ns sits orders of magnitude below arena_bulk_read_ns because the map \
defers page-in to first access and the decode only reads headers/offsets. The clients rows are \
closed-loop: N concurrent Unix-socket connections each answer 128 influence frames of the same \
16x8-seed batch against an in-process server (threads=1 — this container has 1 core); \
serve_qps aggregates over the slowest client's timed window, serve_query_ns divides per-frame \
latency percentiles by the 16 queries/frame. Every served answer is asserted bit-identical to \
the in-process influence_many_frozen result (probe connection plus every timed frame) before \
any number is reported, and both load paths are asserted bit-identical to the freshly frozen \
oracle. Per-query serving cost sits well above oracle_query_ns: a frame pays two syscall \
round-trips plus encode/decode, amortized across the batch — which is the point of batching. \
Causal-tracing PR: oracle_query_traced_ns answers the same 64-query batch \
through influence_many_frozen_traced with a live per-thread ring tracer (1 thread, ring \
allocated outside the rep loop, answers asserted bit-identical to the untraced loop first). \
Each query.element span is one lap record — one relaxed fetch_add, four relaxed stores, and \
ONE monotonic clock read (element i's end instant is element i+1's begin, so N contiguous \
spans need only N+1 timestamps; the begin/end pair is reconstructed at decode). That clock \
read is the whole story of the overhead: stubbing it out leaves +3% over oracle_query_ns \
(ring emit + loop bookkeeping), and one clock_gettime is ~55 ns on this virtualized runner — \
13% of a ~420 ns query by itself, so the <10% target is out of reach here by clock cost \
alone and the committed ~18% sits ~5% above the per-element-tracing floor; on hardware \
with a <=25 ns monotonic clock the same code meets the target. The untraced rows are \
unchanged because the NoopTracer instantiation compiles to the PR 8 code (proven \
allocation-free by the counting-allocator test in core). \
Sparse-row PR: the frozen vHLL arena (IPFA v4) stores each node's non-zero registers as \
sorted (index, rho) pairs; single queries max-merge them into a stack block and the batch \
kernel scatters them into one beta-byte accumulator per query, so the dense byte-max kernels, \
the AVX2 feature and the tile-major transposed copy are gone. \
Vectorized-kernel PR: the frozen register merge read node-major rows through 64-byte tiles, \
and the new oracle_batch_query_ns rows measure influence_many_frozen: the \
same 64 queries answered in one call with seed dedup, per-worker scratch, and GROUP=4 \
query interleaving whose four estimator chains run in one out-of-line absorb loop (keeping the \
running sums register-resident is where the single-core batch win comes from — thread rows only \
help on multi-core runners). The per-query loop and every batch fan-out are timed interleaved \
in one rep loop so the single-vs-batch comparison samples the same machine states. Batch answers \
are asserted bit-identical to per-query answers at every fan-out, and all checksums are \
unchanged from PR 7 (reference_pr7 holds its query rows). \
Layered-oracle PR: rows layered_refresh_ms / layered_query_ns / \
compaction_ms / compaction_survivors measure the forward-delta overlay (frozen base over the \
first 90% of the history, last 10% appended then refreshed). layered_query_ns is asserted \
bit-identical to oracle_query_ns's frozen full-history arena before timing — the layered merge \
path (register-wise max of base and overlay blocks streamed into the same estimator) adds one \
extra max_into per seed block over the frozen kernel, so it should track oracle_query_ns within \
a small constant factor; a widening gap is a merge-path regression, not noise. \
layered_refresh_ms is a full overlay rebuild over tail+pending (the refresh contract re-runs \
the one-pass engine over the delta log, so it scales with window tail size, not total history). \
compaction_ms covers the expiry cut plus the re-freeze engine run over survivors. All \
pre-existing rows and checksums are unchanged from the frozen-arena PR; its analysis (fused \
block merge, thread clamping, hub merge traffic) lives in git history. \
Frozen-arena PR: query rows (oracle_query_ns, sweep_parallel, greedy_k16_ms) \
now measure the frozen CSR/register arenas, the production query path; the *_live_* rows keep \
the per-node-alloc oracles visible, and every frozen result is asserted bit-identical to live \
before timing. oracle_query_ns dropped ~6x vs PR 4 because the frozen arena answers influence() \
with a fused block merge + streaming estimator: seed register slices are max-merged 64 bytes at \
a time into a stack block (vectorizable, L1-resident) and streamed straight into the shared \
harmonic-mean kernel, with no union allocation and no second estimate pass. The PR 4 parallel \
sweep lost ground as threads grew (speedup 0.79-0.77 at 4 threads) for two root causes: this \
container exposes 1 core, and the old layer spawned one OS thread per requested worker \
regardless, paying spawn+join and context-switch overhead with zero available parallelism; and \
each worker allocated a fresh union accumulator per query. The par layer now clamps spawned \
threads to available_parallelism while keeping chunk granularity tied to the requested fan-out \
(par.chunks still reflects the request), and reuses one scratch accumulator per worker \
(par.scratch_reuse counts the saved allocations), so requested concurrency is never slower than \
serial on a starved machine. The frozen sweep reads the estimates precomputed at freeze time, \
so its speedup over the live serial baseline reflects table reads vs register scans; on a \
multi-core runner the sweep_parallel rows additionally scale with real cores. hub exact-build \
ns/interaction sits above the uniform profile because of per-merge entry traffic, not a tuning \
bug: ~109 entries touched per merge on hub vs ~22 on uniform, 62% of hub merges on the \
small-side splice path; inherent to sorted dense summaries under hub skew (see PR 2 notes).";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::from("BENCH_core.json");
    let mut scale = 1.0f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out = args.get(i).expect("--out needs a path").clone();
            }
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .expect("--scale needs a factor")
                    .parse()
                    .expect("--scale must be a float");
            }
            other => panic!("unknown flag {other} (expected --out/--scale)"),
        }
        i += 1;
    }
    assert!(scale > 0.0, "--scale must be positive");

    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let thread_counts: [usize; 4] = [1, 2, 4, 8];

    let sz = |base: usize| ((base as f64 * scale) as usize).max(8);
    let uni = uniform_profile(sz(4000) as u64, sz(40_000), sz(100_000) as u64, 0xC0FFEE);
    let uni_window = Window((sz(10_000) as i64).max(1));
    let hub = hub_profile(sz(2000) as u64, sz(30_000), sz(60_000) as u64, 0xFACADE);
    let hub_window = Window((sz(6_000) as i64).max(1));

    let reports = [
        run_profile("uniform", &uni, uni_window, &thread_counts),
        run_profile("hub", &hub, hub_window, &thread_counts),
    ];

    let serving = run_serving(&uni, uni_window);

    let profiles: Vec<String> = reports.iter().map(profile_json).collect();
    let json = format!(
        "{{\n  \"bench\": \"trajectory\",\n  \"scale\": {scale},\n  \"cores\": {cores},\n  \
         \"thread_counts\": [1, 2, 4, 8],\n  \"notes\": \"{}\",\n  \"profiles\": [\n{}\n  ],\n  \
         \"serving\": {},\n  \
         \"reference\": {},\n  \"reference_pr4\": {},\n  \"reference_pr7\": {}\n}}\n",
        NOTES,
        profiles.join(",\n"),
        serving,
        REFERENCE,
        REFERENCE_PR4,
        REFERENCE_PR7,
    );
    std::fs::write(&out, &json).expect("failed to write output file");
    eprintln!("wrote {out}");
    for r in &reports {
        eprintln!(
            "  {}: exact {:.1} ns/i, vhll {:.1} ns/i, query {:.1} ns, sweep {:.1} ns/node",
            r.name,
            r.exact_build_ns_per_interaction,
            r.vhll_build_ns_per_interaction,
            r.oracle_query_ns,
            r.sweep_serial_ns_per_node
        );
    }
}

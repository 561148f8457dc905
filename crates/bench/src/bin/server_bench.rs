//! Server round-trip throughput: probes/sec over loopback TCP.
//!
//! ```text
//! server_bench [--records N] [--probes P] [--clients C] [--seed S]
//!              [--pipeline DEPTH] [--batch N] [--out DIR] [--smoke]
//!              [--records-sweep]
//! ```
//!
//! For each shard count in {1, 4, 8} the harness spawns an `rl-server`
//! over a freshly indexed `ShardedPipeline` and measures pipelined
//! probes over it (`--batch` records per request, `--pipeline` requests
//! in flight per connection), one `mode: "binary-pipelined"` row each in
//! `<out>/results/BENCH_server.json`. Throughput is reported in probe
//! *records* per second. An online-resharding drill (protocol v10) rides
//! in the same output file as a `mode: "reshard-split"` row: a live split
//! of a populated shard while a writer keeps inserting, gated under
//! `--smoke` on zero lost or duplicated acknowledged writes across the
//! cutover and a worst-case write stall under twice the heartbeat.
//!
//! A second phase measures the durability subsystem: insert throughput
//! under each WAL sync policy (in-memory baseline, group commit, fsync
//! every append) and the cold-restart replay time, reported to
//! `<out>/results/BENCH_store.json`.
//!
//! A third phase measures the replication subsystem: follower bootstrap
//! time (checkpoint fetch + recovery), streaming catch-up rate while the
//! primary keeps inserting, and promote latency, reported to
//! `<out>/results/BENCH_replication.json`.
//!
//! A fourth phase measures the streaming-subscription subsystem
//! (protocol v6): end-to-end match-event delivery rate (index → compiled
//! plan probe → bounded queue → wire), observe→deliver latency from the
//! `rl_sub_deliver_seconds` histogram, and window-eviction throughput
//! under churn, reported to `<out>/results/BENCH_stream.json`.
//!
//! A fifth phase, enabled by `--records-sweep`, measures the blocking
//! store backends (docs/BLOCKSTORE.md): for each record count in the
//! sweep and each backend (`memory`, `mmap`) it runs an isolated child
//! process (so resident memory is attributable to one backend at one
//! scale), indexes the corpus, compacts the store (for `mmap`, probes
//! are then served from the memory-mapped generation on disk), and
//! measures per-probe p50/p99 latency, `VmRSS`, and bytes on disk,
//! reported to `<out>/results/BENCH_blockstore.json`. The match results
//! of every probe are folded into an order-independent hash; the two
//! backends must produce identical hashes at every scale, and the mmap
//! p99 must stay within 5x of the in-memory p99.
//!
//! `--smoke` shrinks the run for CI, and after each run fetches the
//! server's `Metrics` snapshot and asserts the observability layer saw
//! the traffic (nonzero per-type request counts and latency samples);
//! in the store phase it additionally asserts that every insert hit the
//! WAL and that replay restored every record, in the replication
//! phase that the follower converged to zero lag and promoted cleanly,
//! and in the streaming phase that every delivered event was counted
//! and the eviction churn reached the exported counters.

use cbv_hb::sharded::ShardedPipeline;
use cbv_hb::{AttributeSpec, BlockStoreKind, LinkageConfig, Record, RecordSchema, Rule};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_bench::report::write_json;
use rl_repl::{Follower, FollowerConfig};
use rl_server::{Client, DurabilityConfig, ReplRole, ReshardOp, Server, ServerConfig, SyncPolicy};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use textdist::Alphabet;

const SHARD_COUNTS: [usize; 3] = [1, 4, 8];

#[derive(Debug, Clone, Serialize)]
struct Row {
    /// Always `binary-pipelined` (`batch` records per frame,
    /// `pipeline_depth` frames in flight); the tag tells these rows from
    /// the `reshard-split` row sharing the output file.
    mode: String,
    shards: usize,
    workers: usize,
    records_indexed: u64,
    /// Probe *records* sent.
    probes: u64,
    clients: u64,
    /// Requests in flight per connection.
    pipeline_depth: u64,
    /// Probe records per request.
    batch: u64,
    matched: u64,
    elapsed_secs: f64,
    probes_per_sec: f64,
}

#[derive(Debug, Clone)]
struct Opts {
    records: u64,
    probes: u64,
    clients: u64,
    pipeline: u64,
    batch: u64,
    seed: u64,
    out: PathBuf,
    smoke: bool,
    records_sweep: bool,
    sweep_only: bool,
}

fn main() {
    let mut opts = Opts {
        records: 10_000,
        probes: 2_000,
        clients: 4,
        pipeline: 32,
        batch: 16,
        seed: 42,
        out: PathBuf::from("."),
        smoke: false,
        records_sweep: false,
        sweep_only: false,
    };
    let rest: Vec<String> = std::env::args().skip(1).collect();
    // Internal re-exec entry: one blockstore sweep case in a process of
    // its own, so VmRSS measures exactly one backend at one scale.
    if rest.first().map(String::as_str) == Some("--sweep-child") {
        return sweep_child(&rest[1..]);
    }
    let mut i = 0;
    while i < rest.len() {
        let need = |i: usize| {
            rest.get(i + 1)
                .unwrap_or_else(|| panic!("missing value for {}", rest[i]))
        };
        match rest[i].as_str() {
            "--records" => opts.records = need(i).parse().expect("--records N"),
            "--probes" => opts.probes = need(i).parse().expect("--probes P"),
            "--clients" => opts.clients = need(i).parse().expect("--clients C"),
            "--pipeline" => opts.pipeline = need(i).parse().expect("--pipeline DEPTH"),
            "--batch" => opts.batch = need(i).parse().expect("--batch N"),
            "--seed" => opts.seed = need(i).parse().expect("--seed S"),
            "--out" => opts.out = PathBuf::from(need(i)),
            "--smoke" => {
                opts.smoke = true;
                opts.records = opts.records.min(500);
                opts.probes = opts.probes.min(200);
                i += 1;
                continue;
            }
            "--records-sweep" => {
                opts.records_sweep = true;
                i += 1;
                continue;
            }
            "--sweep-only" => {
                opts.records_sweep = true;
                opts.sweep_only = true;
                i += 1;
                continue;
            }
            other => panic!("unknown flag {other}"),
        }
        i += 2;
    }
    assert!(opts.pipeline >= 1, "--pipeline must be >= 1");
    assert!(opts.batch >= 1, "--batch must be >= 1");

    // `--sweep-only`: just the blockstore phase (the CI smoke job runs
    // the other phases separately under metrics-smoke).
    if opts.sweep_only {
        let sweep = run_records_sweep(&opts);
        write_json(&opts.out, "BENCH_blockstore", &sweep);
        return;
    }

    let mut rows = Vec::new();
    println!("| mode | shards | indexed | probes | clients | depth | batch | secs | probes/sec |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for shards in SHARD_COUNTS {
        let row = run_one(&opts, shards);
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {:.3} | {:.0} |",
            row.mode,
            row.shards,
            row.records_indexed,
            row.probes,
            row.clients,
            row.pipeline_depth,
            row.batch,
            row.elapsed_secs,
            row.probes_per_sec,
        );
        rows.push(row);
    }

    // Reshard phase (protocol v10): a live shard split while a writer
    // keeps inserting. The row lands in the same BENCH_server.json list
    // as the probe rows, discriminated by its `mode` tag, so existing
    // readers keep working. Under `--smoke`, zero lost or duplicated
    // acknowledged writes across the cutover and a cutover stall under
    // 2x the heartbeat are hard gates (docs/RESHARD.md).
    let reshard = run_reshard(&opts);
    println!();
    println!(
        "| seeded | racing | migrated | copy secs | migrated/sec | max stall ms | epoch | shards |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    println!(
        "| {} | {} | {} | {:.3} | {:.0} | {:.1} | {} | {} -> {} |",
        reshard.records_seeded,
        reshard.racing_inserts,
        reshard.migrated,
        reshard.copy_secs,
        reshard.migrated_per_sec,
        reshard.max_insert_stall_ms,
        reshard.epoch_after,
        reshard.shards_before,
        reshard.shards_after,
    );
    let mut server_rows: Vec<serde_json::Value> = rows
        .iter()
        .map(|r| serde_json::to_value(r).expect("serialize server row"))
        .collect();
    server_rows.push(serde_json::to_value(&reshard).expect("serialize reshard row"));
    write_json(&opts.out, "BENCH_server", &server_rows);

    // Durability phase: WAL-append overhead per sync policy plus
    // cold-restart replay time (see docs/STORAGE.md).
    let policies: [(&str, Option<SyncPolicy>); 3] = [
        ("in-memory", None),
        (
            "group-commit-5ms",
            Some(SyncPolicy::GroupCommit(Duration::from_millis(5))),
        ),
        ("fsync-always", Some(SyncPolicy::Always)),
    ];
    let mut store_rows: Vec<StoreRow> = Vec::new();
    println!();
    println!("| policy | inserted | secs | inserts/sec | slowdown | wal bytes | replay ops | replay ms |");
    println!("|---|---|---|---|---|---|---|---|");
    for (label, policy) in policies {
        let baseline = store_rows.first().map(|r: &StoreRow| r.insert_secs);
        let row = run_store_one(&opts, label, policy, baseline);
        println!(
            "| {} | {} | {:.3} | {:.0} | {:.2}x | {} | {} | {} |",
            row.policy,
            row.records,
            row.insert_secs,
            row.inserts_per_sec,
            row.slowdown_vs_memory,
            row.wal_bytes,
            row.replayed_ops,
            row.replay_ms,
        );
        store_rows.push(row);
    }
    write_json(&opts.out, "BENCH_store", &store_rows);

    // Replication phase: follower bootstrap, streaming catch-up while
    // the primary keeps writing, and promote latency (docs/REPLICATION.md).
    let repl = run_replication(opts.clone());
    println!();
    println!(
        "| records | bootstrap secs | stream secs | shipped/sec | promote ms | \
         lease ms | election ms | quorum ins/sec | quorum overhead | acked | applied |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    println!(
        "| {} | {:.3} | {:.3} | {:.0} | {:.1} | {} | {:.0} | {:.0} | {:.2}x | {} | {} |",
        repl.records,
        repl.bootstrap_secs,
        repl.stream_secs,
        repl.shipped_per_sec,
        repl.promote_ms,
        repl.lease_ms,
        repl.election_ms,
        repl.quorum_inserts_per_sec,
        repl.quorum_overhead_vs_async,
        repl.acked_writes,
        repl.applied_after_failover,
    );
    write_json(&opts.out, "BENCH_replication", &[repl]);

    // Streaming phase: subscription event delivery and window-eviction
    // churn (docs/STREAMING.md).
    let stream = run_streaming(&opts);
    println!();
    println!(
        "| events | secs | events/sec | deliver p50 us | deliver p99 us | evictions | evict/sec |"
    );
    println!("|---|---|---|---|---|---|---|");
    println!(
        "| {} | {:.3} | {:.0} | {:.1} | {:.1} | {} | {:.0} |",
        stream.events,
        stream.deliver_secs,
        stream.events_per_sec,
        stream.deliver_p50_us,
        stream.deliver_p99_us,
        stream.evictions,
        stream.evictions_per_sec,
    );
    write_json(&opts.out, "BENCH_stream", &[stream]);

    // Blockstore phase (opt-in: it re-execs itself per case and the full
    // sweep indexes up to a million records per backend).
    if opts.records_sweep {
        let sweep = run_records_sweep(&opts);
        write_json(&opts.out, "BENCH_blockstore", &sweep);
    }
}

/// One (backend, record count) cell of the blockstore sweep, measured in
/// an isolated child process.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SweepRow {
    /// `memory` or `mmap` (the disk-resident store, probed post-compact
    /// so buckets come off the memory-mapped generation).
    backend: String,
    records: u64,
    probes: u64,
    index_secs: f64,
    /// Time to merge the delta overlay into a sealed on-disk generation
    /// (0 work for the in-memory backend, which compacts in place).
    compact_secs: f64,
    probe_p50_us: f64,
    probe_p99_us: f64,
    /// Probes that found at least one match (expected: all of them — the
    /// probe corpus is exact twins of indexed records).
    matched: u64,
    /// FNV-1a over the sorted (probe, match) pairs of every probe: the
    /// backends must agree on this hash exactly, or mmap changed results.
    match_hash: u64,
    /// `VmRSS` of the child after the probe phase, kilobytes.
    rss_kb: u64,
    /// Bytes in sealed blockstore generations on disk (0 for memory).
    on_disk_bytes: u64,
}

/// Child entry (`--sweep-child BACKEND RECORDS PROBES SEED DIR`): runs
/// one sweep case and prints the row as `SWEEP_RESULT <json>`.
fn sweep_child(args: &[String]) {
    let [backend, records, probes, seed, dir] = args else {
        panic!("--sweep-child wants BACKEND RECORDS PROBES SEED DIR, got {args:?}");
    };
    let row = run_sweep_case(
        backend,
        records.parse().expect("RECORDS"),
        probes.parse().expect("PROBES"),
        seed.parse().expect("SEED"),
        dir,
    );
    println!(
        "SWEEP_RESULT {}",
        serde_json::to_string(&row).expect("serialize sweep row")
    );
}

fn run_sweep_case(backend: &str, records: u64, probes: u64, seed: u64, dir: &str) -> SweepRow {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = RecordSchema::build(
        Alphabet::linkage(),
        vec![
            AttributeSpec::new("FirstName", 2, 64, false, 5),
            AttributeSpec::new("LastName", 2, 64, false, 5),
        ],
        &mut rng,
    );
    let rule = Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]);
    let mut config = LinkageConfig::rule_aware(rule);
    match backend {
        "memory" => {}
        "mmap" => {
            config.block.kind = BlockStoreKind::Mmap;
            config.block.dir = Some(dir.to_string());
        }
        other => panic!("unknown sweep backend {other}"),
    }
    let mut pipeline =
        ShardedPipeline::new(schema, config, 1, &mut rng).expect("build sweep pipeline");

    let corpus: Vec<Record> = (0..records).map(|i| record(i, i)).collect();
    let start = Instant::now();
    for chunk in corpus.chunks(1_000) {
        pipeline.index(chunk).expect("index");
    }
    let index_secs = start.elapsed().as_secs_f64();
    // Seal the write path: for mmap this merges the in-memory delta into
    // an on-disk generation, so the probe loop below reads buckets
    // through the mapping — the disk-residency this phase exists to
    // measure. The memory backend just scrubs tombstones (there are
    // none), keeping the two rows procedurally identical.
    let start = Instant::now();
    pipeline.compact_stores().expect("compact stores");
    let compact_secs = start.elapsed().as_secs_f64();

    let mut lat_ns: Vec<u64> = Vec::with_capacity(probes as usize);
    let mut all_pairs: Vec<(u64, u64)> = Vec::new();
    let mut matched = 0u64;
    for i in 0..probes {
        let src = i % records;
        let probe = record(1_000_000 + src, src);
        let t = Instant::now();
        let (pairs, _) = pipeline.link(std::slice::from_ref(&probe)).expect("probe");
        lat_ns.push(t.elapsed().as_nanos() as u64);
        matched += u64::from(!pairs.is_empty());
        all_pairs.extend(pairs);
    }
    // Order-independent digest of the full match relation.
    all_pairs.sort_unstable();
    all_pairs.dedup();
    let mut match_hash: u64 = 0xcbf2_9ce4_8422_2325;
    for (a, b) in &all_pairs {
        for v in [*a, *b] {
            match_hash ^= v;
            match_hash = match_hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    lat_ns.sort_unstable();
    let quantile = |p: f64| {
        let idx = ((lat_ns.len() - 1) as f64 * p).round() as usize;
        lat_ns[idx] as f64 / 1e3
    };
    let on_disk_bytes = pipeline
        .blocking_stats()
        .map(|stats| stats.iter().map(|s| s.on_disk_bytes).sum())
        .unwrap_or(0);

    SweepRow {
        backend: backend.to_string(),
        records,
        probes,
        index_secs,
        compact_secs,
        probe_p50_us: quantile(0.50),
        probe_p99_us: quantile(0.99),
        matched,
        match_hash,
        rss_kb: vm_rss_kb(),
        on_disk_bytes,
    }
}

/// Resident set size of this process in kilobytes (0 where
/// `/proc/self/status` is unavailable).
fn vm_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0)
}

/// Record counts for the blockstore sweep. The full run climbs to a
/// million records per backend; smoke keeps CI under a few seconds.
fn sweep_sizes(smoke: bool) -> Vec<u64> {
    if smoke {
        vec![500, 2_000]
    } else {
        vec![10_000, 100_000, 1_000_000]
    }
}

fn run_records_sweep(opts: &Opts) -> Vec<SweepRow> {
    let exe = std::env::current_exe().expect("current exe");
    let probes = opts.probes.max(200);
    let mut rows: Vec<SweepRow> = Vec::new();
    println!();
    println!(
        "| backend | records | index secs | compact secs | p50 us | p99 us | rss kb | disk bytes |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    for n in sweep_sizes(opts.smoke) {
        let mut pair: Vec<SweepRow> = Vec::new();
        for backend in ["memory", "mmap"] {
            let dir = std::env::temp_dir()
                .join(format!("rl-blockstore-sweep-{}-{n}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let out = std::process::Command::new(&exe)
                .arg("--sweep-child")
                .arg(backend)
                .arg(n.to_string())
                .arg(probes.to_string())
                .arg(opts.seed.to_string())
                .arg(dir.to_string_lossy().into_owned())
                .output()
                .expect("spawn sweep child");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "sweep child {backend}@{n} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let json = stdout
                .lines()
                .find_map(|l| l.strip_prefix("SWEEP_RESULT "))
                .unwrap_or_else(|| panic!("sweep child {backend}@{n} printed no result"));
            let row: SweepRow = serde_json::from_str(json).expect("parse sweep row");
            let _ = std::fs::remove_dir_all(&dir);
            println!(
                "| {} | {} | {:.3} | {:.3} | {:.1} | {:.1} | {} | {} |",
                row.backend,
                row.records,
                row.index_secs,
                row.compact_secs,
                row.probe_p50_us,
                row.probe_p99_us,
                row.rss_kb,
                row.on_disk_bytes,
            );
            pair.push(row);
        }
        let (mem, mmap) = (&pair[0], &pair[1]);
        // Equivalence is the point of the sweep, so it gates every run,
        // not just smoke: both backends must produce the identical match
        // relation for the identical probe stream.
        assert_eq!(
            (mem.match_hash, mem.matched),
            (mmap.match_hash, mmap.matched),
            "mmap backend changed match results at {n} records"
        );
        assert_eq!(mem.matched, probes, "probe twins must all match at {n}");
        assert!(
            mmap.on_disk_bytes > 0,
            "mmap backend left no sealed generation on disk at {n}"
        );
        // Latency gate with an absolute floor: at smoke scales the
        // in-memory p99 is a handful of microseconds and scheduler noise
        // would dominate a pure ratio.
        let bound_us = 5.0 * mem.probe_p99_us.max(100.0);
        assert!(
            mmap.probe_p99_us <= bound_us,
            "mmap p99 {:.1}us exceeds 5x in-memory bound {bound_us:.1}us at {n} records",
            mmap.probe_p99_us,
        );
        println!(
            "sweep: {n} records — hashes match ({:#018x}), mmap p99 {:.1}us vs mem {:.1}us, \
             mmap rss {} kb vs mem {} kb",
            mem.match_hash, mmap.probe_p99_us, mem.probe_p99_us, mmap.rss_kb, mem.rss_kb,
        );
        rows.extend(pair);
    }
    rows
}

#[derive(Debug, Clone, Serialize)]
struct StreamRow {
    /// Records streamed through the delivery measurement (twin pairs).
    records: u64,
    /// Match events delivered end-to-end (one per twin pair).
    events: u64,
    /// Wall-clock from first index to last event read by the subscriber.
    deliver_secs: f64,
    /// Delivered events over `deliver_secs`.
    events_per_sec: f64,
    /// Observe→deliver latency quantiles from `rl_sub_deliver_seconds`
    /// (event production under the state lock to the subscription
    /// writer's socket write), microseconds.
    deliver_p50_us: f64,
    deliver_p99_us: f64,
    /// Records streamed through the eviction measurement (all distinct,
    /// small count window).
    evict_records: u64,
    /// Window evictions the churn produced (records − window size).
    evictions: u64,
    /// Wall-clock of the eviction-churn index loop.
    evict_secs: f64,
    /// Evictions over `evict_secs`: sustained tombstone-delete rate.
    evictions_per_sec: f64,
}

fn run_streaming(opts: &Opts) -> StreamRow {
    use rl_server::{LateArrival, WatchEvent, WindowSpec};

    // Delivery: every odd record is a first-name twin of the record
    // before it, so N records produce N/2 match events. The subscriber
    // drains on its own thread while the producer indexes.
    let pairs = opts.records / 2;
    let server = Server::spawn(
        bench_pipeline(opts.seed, 1),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_capacity: 256,
            ..ServerConfig::default()
        },
    )
    .expect("spawn server");
    let addr = server.local_addr();

    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let drain = std::thread::spawn(move || {
        let mut sub = Client::connect(addr).expect("connect subscriber");
        sub.subscribe_matches(
            "0<=4",
            WindowSpec::Count(1 << 20),
            LateArrival::default(),
            0,
        )
        .expect("subscribe");
        ready_tx.send(()).expect("signal ready");
        let mut seen = 0u64;
        while seen < pairs {
            match sub.next_watch_event().expect("watch event") {
                WatchEvent::Match { .. } => seen += 1,
                WatchEvent::Lagged { dropped } => panic!("subscriber lagged: {dropped} dropped"),
            }
        }
        seen
    });
    ready_rx.recv().expect("subscriber ready");

    let mut producer = Client::connect(addr).expect("connect producer");
    let corpus: Vec<Record> = (0..pairs)
        .flat_map(|i| [record(2 * i, i), record(2 * i + 1, i)])
        .collect();
    let start = Instant::now();
    // Small batches, like a live feed: a bulk load would burst more
    // events than the bounded per-subscription queue on purpose holds.
    for chunk in corpus.chunks(32) {
        producer.index(chunk).expect("index");
    }
    let events = drain.join().expect("subscriber thread");
    let deliver_secs = start.elapsed().as_secs_f64();

    let m = producer.metrics().expect("metrics");
    let deliver = m
        .histogram_data("rl_sub_deliver_seconds", None)
        .expect("deliver histogram registered");
    let (p50, p99) = (
        deliver.data.quantile(0.50) as f64 / 1e3,
        deliver.data.quantile(0.99) as f64 / 1e3,
    );
    if opts.smoke {
        assert_eq!(events, pairs, "every twin pair must produce one event");
        let counted = m
            .counter_value("rl_sub_events_total", None)
            .expect("sub events counter registered");
        assert!(counted >= events, "events counter lost deliveries");
        assert_eq!(deliver.data.count, counted, "latency samples != events");
    }
    producer.shutdown().expect("shutdown");
    server.wait();

    // Eviction churn: all-distinct records through a small count window,
    // so nearly every admission evicts through the tombstone path.
    let window = 64u64;
    let evict_records = opts.records;
    let server = Server::spawn(
        bench_pipeline(opts.seed ^ 1, 1),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_capacity: 256,
            ..ServerConfig::default()
        },
    )
    .expect("spawn server");
    let addr = server.local_addr();
    // The idle subscriber keeps the window live; distinct records never
    // match, so nothing is delivered and nothing lags.
    let mut sub = Client::connect(addr).expect("connect subscriber");
    sub.subscribe_matches(
        "0<=4 & 1<=4",
        WindowSpec::Count(window),
        LateArrival::default(),
        0,
    )
    .expect("subscribe");
    let mut producer = Client::connect(addr).expect("connect producer");
    let corpus: Vec<Record> = (0..evict_records).map(|i| record(i, i)).collect();
    let start = Instant::now();
    for chunk in corpus.chunks(500) {
        producer.index(chunk).expect("index");
    }
    let evict_secs = start.elapsed().as_secs_f64();
    let m = producer.metrics().expect("metrics");
    let evictions = m
        .counter_value("rl_window_evictions_total", None)
        .expect("evictions counter registered");
    if opts.smoke {
        assert!(
            evictions >= evict_records.saturating_sub(window),
            "churn must evict past the window: {evictions} < {}",
            evict_records - window
        );
        let gauge = m
            .gauges
            .iter()
            .find(|g| g.name == "rl_subs_active")
            .map(|g| g.value)
            .unwrap_or(-1);
        assert_eq!(gauge, 1, "subs_active gauge while one subscriber lives");
    }
    drop(sub);
    producer.shutdown().expect("shutdown");
    server.wait();

    StreamRow {
        records: pairs * 2,
        events,
        deliver_secs,
        events_per_sec: events as f64 / deliver_secs,
        deliver_p50_us: p50,
        deliver_p99_us: p99,
        evict_records,
        evictions,
        evict_secs,
        evictions_per_sec: evictions as f64 / evict_secs,
    }
}

#[derive(Debug, Clone, Serialize)]
struct ReplRow {
    /// Total records inserted on the primary (half before the follower
    /// attaches, half while it is streaming).
    records: u64,
    /// Follower spawn → caught up on the checkpoint-seeded half: covers
    /// FetchCheckpoint, chunk transfer, local recovery, and the first
    /// subscription round.
    bootstrap_secs: f64,
    /// Wall-clock from the first post-attach insert until the follower
    /// reports zero lag (includes the primary's own insert time).
    stream_secs: f64,
    /// Streamed half over `stream_secs`: sustained ship+apply rate.
    shipped_per_sec: f64,
    /// `Promote` round trip on the follower after the primary is gone.
    promote_ms: f64,
    /// Lease the drill primary granted on heartbeats (protocol v8).
    lease_ms: u64,
    /// Primary death → the auto-failover follower answering as primary:
    /// lease expiry + election + self-promote, measured by polling.
    election_ms: f64,
    /// Insert throughput with `--sync-replicas 1` (each ack waits for the
    /// follower's durability ack).
    quorum_inserts_per_sec: f64,
    /// Async ship+apply rate over quorum insert rate (1.0 = quorum acks
    /// are free; higher = the ack wait costs that factor).
    quorum_overhead_vs_async: f64,
    /// Records whose quorum-acked insert succeeded before the kill.
    acked_writes: u64,
    /// Records the new primary serves after failover — the acked-write
    /// audit passes when this covers every acked write.
    applied_after_failover: u64,
}

/// Polls `client` until it reports `applied_seq >= target` with zero
/// lag, panicking after ~60 s (a stuck follower fails the bench).
fn wait_caught_up(client: &mut Client, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let s = client.repl_status().expect("repl status");
        if s.applied_seq >= target && s.lag_frames == 0 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "follower stuck at applied={} (want {target})",
            s.applied_seq
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn run_replication(opts: Opts) -> ReplRow {
    let pid = std::process::id();
    let pdir = std::env::temp_dir().join(format!("rl-repl-bench-primary-{pid}"));
    let fdir = std::env::temp_dir().join(format!("rl-repl-bench-follower-{pid}"));
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&fdir);
    let config = |dir: &PathBuf, role: ReplRole| ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: 256,
        repl_role: role,
        durability: Some(DurabilityConfig {
            data_dir: dir.clone(),
            sync: SyncPolicy::GroupCommit(Duration::from_millis(5)),
            checkpoint_every: None,
        }),
        ..ServerConfig::default()
    };
    let seed = opts.seed;
    let primary = Server::spawn_durable(
        || Ok(bench_pipeline(seed, 1)),
        config(&pdir, ReplRole::Primary),
    )
    .expect("spawn primary");
    let primary_addr = primary.local_addr().to_string();
    let mut pc = Client::connect(&*primary_addr).expect("connect primary");

    // First half lands before the follower exists, so bootstrap measures
    // a checkpoint transfer of real state.
    let corpus: Vec<Record> = (0..opts.records).map(|i| record(i, i)).collect();
    let (first, second) = corpus.split_at(corpus.len() / 2);
    for chunk in first.chunks(500) {
        pc.insert(chunk).expect("insert pre-attach");
    }
    let seeded_head = pc.repl_status().expect("repl status").applied_seq;

    let start = Instant::now();
    let follower = Follower::spawn(FollowerConfig::new(
        primary_addr.clone(),
        config(&fdir, ReplRole::Standalone),
    ))
    .expect("spawn follower");
    let mut fc = Client::connect(follower.local_addr()).expect("connect follower");
    wait_caught_up(&mut fc, seeded_head);
    let bootstrap_secs = start.elapsed().as_secs_f64();

    // Second half ships over the live subscription.
    let start = Instant::now();
    for chunk in second.chunks(500) {
        pc.insert(chunk).expect("insert streaming");
    }
    let head = pc.repl_status().expect("repl status").applied_seq;
    wait_caught_up(&mut fc, head);
    let stream_secs = start.elapsed().as_secs_f64();

    if opts.smoke {
        let stats = fc.stats().expect("follower stats");
        assert_eq!(
            stats.indexed as u64, opts.records,
            "follower missed replicated inserts"
        );
        let s = fc.repl_status().expect("repl status");
        assert_eq!(s.role, "follower");
        assert_eq!((s.lag_frames, s.lag_bytes), (0, 0), "lag did not converge");
        // The same numbers must land in the exported gauges.
        let m = fc.metrics().expect("follower metrics");
        let gauge = |name: &str| {
            m.gauges
                .iter()
                .find(|g| g.name == name)
                .map(|g| g.value)
                .unwrap_or(i64::MIN)
        };
        assert_eq!(gauge("rl_repl_lag_frames"), 0, "lag_frames gauge");
        assert_eq!(gauge("rl_repl_lag_bytes"), 0, "lag_bytes gauge");
    }

    // Promote after the primary is gone — the failover path.
    pc.shutdown().expect("shutdown primary");
    primary.wait();
    let start = Instant::now();
    let (_, was_follower, epoch) = fc.promote().expect("promote");
    let promote_ms = start.elapsed().as_secs_f64() * 1e3;
    if opts.smoke {
        assert!(was_follower, "promote hit a non-follower");
        assert!(epoch >= 1, "promote did not bump the epoch");
        let s = fc.repl_status().expect("repl status");
        assert_eq!(s.role, "primary", "promote did not flip the role");
        assert_eq!(s.epoch, epoch, "repl status disagrees on the epoch");
    }
    fc.shutdown().expect("shutdown follower");
    follower.wait();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&fdir);

    let shipped = second.len() as u64;
    let shipped_per_sec = shipped as f64 / stream_secs;
    let drill = run_failover_drill(&opts, shipped_per_sec);

    ReplRow {
        records: opts.records,
        bootstrap_secs,
        stream_secs,
        shipped_per_sec,
        promote_ms,
        lease_ms: drill.lease_ms,
        election_ms: drill.election_ms,
        quorum_inserts_per_sec: drill.quorum_inserts_per_sec,
        quorum_overhead_vs_async: drill.quorum_overhead_vs_async,
        acked_writes: drill.acked_writes,
        applied_after_failover: drill.applied_after_failover,
    }
}

/// The failover-drill measurements folded into [`ReplRow`].
struct DrillNumbers {
    lease_ms: u64,
    election_ms: f64,
    quorum_inserts_per_sec: f64,
    quorum_overhead_vs_async: f64,
    acked_writes: u64,
    applied_after_failover: u64,
}

/// Self-healing drill (protocol v8): a quorum-acked primary granting
/// leases, an auto-failover follower, then the primary dies mid-stream.
/// Measures the quorum-ack overhead on inserts and the election latency
/// (death → the follower answering as primary), and audits that every
/// quorum-acked write survived the failover. Under `--smoke` the audit
/// and the `election < 2× lease` bound are hard gates.
fn run_failover_drill(opts: &Opts, async_shipped_per_sec: f64) -> DrillNumbers {
    // Long enough that the in-process drain below (whose listen backlog
    // still accepts connects while dying, costing the election's
    // liveness probe its full timeout) fits inside the 2x-lease gate; a
    // SIGKILLed process gets instant connection refusals instead, and
    // that path elects in milliseconds (tests/server_replication.rs).
    let lease_ms: u64 = 2_000;
    let pid = std::process::id();
    let pdir = std::env::temp_dir().join(format!("rl-drill-primary-{pid}"));
    let fdir = std::env::temp_dir().join(format!("rl-drill-follower-{pid}"));
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&fdir);
    let config = |dir: &PathBuf, role: ReplRole| ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: 256,
        repl_role: role,
        durability: Some(DurabilityConfig {
            data_dir: dir.clone(),
            sync: SyncPolicy::GroupCommit(Duration::from_millis(5)),
            checkpoint_every: None,
        }),
        ..ServerConfig::default()
    };
    let seed = opts.seed;
    let mut primary_config = config(&pdir, ReplRole::Primary);
    primary_config.lease_ms = lease_ms;
    primary_config.sync_replicas = 1;
    primary_config.quorum_timeout = Duration::from_secs(10);
    let primary = Server::spawn_durable(|| Ok(bench_pipeline(seed, 1)), primary_config)
        .expect("spawn primary");
    let primary_addr = primary.local_addr().to_string();

    let mut follower_config =
        FollowerConfig::new(primary_addr.clone(), config(&fdir, ReplRole::Standalone));
    follower_config.auto_failover = true;
    let follower = Follower::spawn(follower_config).expect("spawn follower");
    let mut fc = Client::connect(follower.local_addr()).expect("connect follower");

    // Quorum inserts stall without a connected follower; wait for the
    // subscription to land before the write phase starts.
    let mut pc = Client::connect(&*primary_addr).expect("connect primary");
    let deadline = Instant::now() + Duration::from_secs(30);
    while pc.repl_status().expect("repl status").followers == 0 {
        assert!(Instant::now() < deadline, "follower never subscribed");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Every insert below waits for the follower's durability ack before
    // returning — so by construction, every acked record exists on the
    // node about to win the election.
    let corpus: Vec<Record> = (0..opts.records).map(|i| record(i, i)).collect();
    let mut acked: u64 = 0;
    let start = Instant::now();
    for chunk in corpus.chunks(500) {
        pc.insert(chunk).expect("quorum insert");
        acked += chunk.len() as u64;
    }
    let quorum_secs = start.elapsed().as_secs_f64();
    let quorum_rate = acked as f64 / quorum_secs;

    // The primary dies mid-lease. (The process-level SIGKILL variant
    // lives in tests/server_replication.rs; in-process shutdown is the
    // closest this bench can get.) The clock starts at the kill, not
    // after the drain: election_ms is the whole write-unavailability
    // window — session break, lease run-out, election, promote.
    let start = Instant::now();
    primary.shutdown();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(s) = fc.repl_status() {
            if s.role == "primary" {
                break;
            }
        }
        assert!(Instant::now() < deadline, "auto-failover never promoted");
        std::thread::sleep(Duration::from_millis(10));
    }
    let election_ms = start.elapsed().as_secs_f64() * 1e3;
    primary.wait();

    let applied = fc.stats().expect("stats").indexed as u64;
    if opts.smoke {
        assert_eq!(
            applied, acked,
            "acked-write audit failed: {acked} quorum-acked inserts, {applied} survived"
        );
        let bound = 2.0 * lease_ms as f64;
        assert!(
            election_ms < bound,
            "election took {election_ms:.0} ms, bound is {bound:.0} ms (2x the {lease_ms} ms lease)"
        );
        let s = fc.repl_status().expect("repl status");
        assert!(s.epoch >= 1, "failover did not bump the epoch");
    }
    fc.shutdown().expect("shutdown follower");
    follower.wait();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&fdir);

    DrillNumbers {
        lease_ms,
        election_ms,
        quorum_inserts_per_sec: quorum_rate,
        quorum_overhead_vs_async: async_shipped_per_sec / quorum_rate,
        acked_writes: acked,
        applied_after_failover: applied,
    }
}

#[derive(Debug, Clone, Serialize)]
struct StoreRow {
    /// WAL sync policy label (`in-memory` = no durability baseline).
    policy: String,
    records: u64,
    insert_secs: f64,
    inserts_per_sec: f64,
    /// Insert wall-clock relative to the in-memory baseline (1.0 = free).
    slowdown_vs_memory: f64,
    /// WAL bytes on disk after the insert phase (0 for the baseline).
    wal_bytes: i64,
    /// Ops replayed when the server restarted from the data dir.
    replayed_ops: i64,
    /// Startup recovery time on restart, milliseconds.
    replay_ms: i64,
    /// Full restart wall-clock (spawn + recovery), seconds.
    restart_secs: f64,
}

/// One durability measurement: inserts `opts.records` records through
/// the wire under `policy`, then — for durable policies — restarts the
/// server from the data dir and measures WAL replay.
fn run_store_one(
    opts: &Opts,
    label: &str,
    policy: Option<SyncPolicy>,
    baseline_secs: Option<f64>,
) -> StoreRow {
    let dir = std::env::temp_dir().join(format!("rl-store-bench-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = |durability: Option<DurabilityConfig>| ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: 256,
        durability,
        ..ServerConfig::default()
    };
    let durability = policy.map(|sync| DurabilityConfig {
        data_dir: dir.clone(),
        sync,
        // No background checkpoints: the restart below replays the whole
        // WAL, which is exactly what this phase measures.
        checkpoint_every: None,
    });
    let seed = opts.seed;
    let spawn = |durability: Option<DurabilityConfig>| match durability {
        Some(d) => Server::spawn_durable(|| Ok(bench_pipeline(seed, 1)), config(Some(d)))
            .expect("spawn durable server"),
        None => Server::spawn(bench_pipeline(seed, 1), config(None)).expect("spawn server"),
    };

    let server = spawn(durability.clone());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let corpus: Vec<Record> = (0..opts.records).map(|i| record(i, i)).collect();
    let start = Instant::now();
    for chunk in corpus.chunks(500) {
        client.insert(chunk).expect("insert");
    }
    let insert_secs = start.elapsed().as_secs_f64();
    let m = client.metrics().expect("metrics");
    let gauge = |name: &str| {
        m.gauges
            .iter()
            .find(|g| g.name == name)
            .map(|g| g.value)
            .unwrap_or(0)
    };
    let wal_bytes = gauge("rl_wal_bytes");
    if opts.smoke && durability.is_some() {
        let appends = m
            .counter_value("rl_wal_appends_total", None)
            .expect("wal appends counter registered");
        assert_eq!(
            appends, opts.records,
            "every insert must hit the WAL exactly once"
        );
        assert!(wal_bytes > 0, "durable inserts left no WAL bytes");
    }
    client.shutdown().expect("shutdown");
    server.wait();

    // Cold restart: recovery (checkpoint load + full WAL replay) happens
    // inside spawn_durable.
    let (restart_secs, replayed_ops, replay_ms) = match durability {
        Some(d) => {
            let start = Instant::now();
            let server = spawn(Some(d));
            let restart_secs = start.elapsed().as_secs_f64();
            let mut client = Client::connect(server.local_addr()).expect("connect");
            let m = client.metrics().expect("metrics");
            let gauge = |name: &str| {
                m.gauges
                    .iter()
                    .find(|g| g.name == name)
                    .map(|g| g.value)
                    .unwrap_or(0)
            };
            let (ops, ms) = (gauge("rl_replayed_ops"), gauge("rl_replay_duration_ms"));
            if opts.smoke {
                let stats = client.stats().expect("stats");
                assert_eq!(stats.indexed as u64, opts.records, "replay lost records");
                assert_eq!(ops as u64, opts.records, "replayed_ops gauge wrong");
            }
            client.shutdown().expect("shutdown");
            server.wait();
            (restart_secs, ops, ms)
        }
        None => (0.0, 0, 0),
    };
    let _ = std::fs::remove_dir_all(&dir);

    StoreRow {
        policy: label.to_string(),
        records: opts.records,
        insert_secs,
        inserts_per_sec: opts.records as f64 / insert_secs,
        slowdown_vs_memory: baseline_secs.map_or(1.0, |b| insert_secs / b),
        wal_bytes,
        replayed_ops,
        replay_ms,
        restart_secs,
    }
}

/// The two-attribute bench schema on one pipeline (store phase uses a
/// single shard so the WAL cost dominates the measurement).
fn bench_pipeline(seed: u64, shards: usize) -> ShardedPipeline {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = RecordSchema::build(
        Alphabet::linkage(),
        vec![
            AttributeSpec::new("FirstName", 2, 64, false, 5),
            AttributeSpec::new("LastName", 2, 64, false, 5),
        ],
        &mut rng,
    );
    let rule = Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]);
    ShardedPipeline::new(schema, LinkageConfig::rule_aware(rule), shards, &mut rng)
        .expect("build pipeline")
}

fn bench_server(opts: &Opts, shards: usize) -> Server {
    Server::spawn(
        bench_pipeline(opts.seed, shards),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: shards,
            queue_capacity: 256,
            snapshot_path: None,
            ..ServerConfig::default()
        },
    )
    .expect("spawn server")
}

/// One server, one measurement: `--clients` connections each keeping
/// `--pipeline` probe requests of `--batch` records in flight.
fn run_one(opts: &Opts, shards: usize) -> Row {
    let server = bench_server(opts, shards);
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    let corpus: Vec<Record> = (0..opts.records).map(|i| record(i, i)).collect();
    for chunk in corpus.chunks(1_000) {
        client.index(chunk).expect("index");
    }
    let per_client = opts.probes / opts.clients;
    let opts_records = opts.records;
    let (depth, batch) = (opts.pipeline, opts.batch);
    let start = Instant::now();
    let handles: Vec<_> = (0..opts.clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                // Exact copies of indexed records under fresh ids, so every
                // probe does real blocking plus classification work and
                // finds its twin.
                let batches: Vec<Vec<Record>> = (0..per_client)
                    .map(|i| {
                        let base = (c * per_client + i) * batch;
                        (0..batch)
                            .map(|j| {
                                let src = (base + j) % opts_records;
                                record(2_000_000 + base + j, src)
                            })
                            .collect()
                    })
                    .collect();
                let outcomes = client
                    .probe_pipelined(&batches, depth as usize)
                    .expect("pipelined probe");
                outcomes
                    .iter()
                    .map(|(pairs, _)| pairs.len() as u64)
                    .sum::<u64>()
            })
        })
        .collect();
    let matched: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let elapsed = start.elapsed().as_secs_f64();
    let done = per_client * opts.clients * batch;
    assert!(
        matched >= done / 2,
        "pipelined probes stopped matching: {matched}/{done}"
    );
    if opts.smoke {
        // One probe request per pipelined batch.
        smoke_check_metrics(&mut client, per_client * opts.clients);
    }
    client.shutdown().expect("shutdown");
    server.wait();
    Row {
        mode: "binary-pipelined".into(),
        shards,
        workers: shards,
        records_indexed: opts.records,
        probes: done,
        clients: opts.clients,
        pipeline_depth: depth,
        batch,
        matched,
        elapsed_secs: elapsed,
        probes_per_sec: done as f64 / elapsed,
    }
}

/// The online-resharding drill row (protocol v10), tagged with
/// `mode: "reshard-split"` so it can share `BENCH_server.json` with the
/// probe-throughput rows.
#[derive(Debug, Clone, Serialize)]
struct ReshardRow {
    mode: String,
    shards_before: usize,
    shards_after: usize,
    /// Shard-map epoch after the cutover (seed maps start at 1).
    epoch_after: u64,
    /// Records indexed before the split started.
    records_seeded: u64,
    /// Records whose insert was acknowledged while the migration ran.
    racing_inserts: u64,
    /// Records the background copier moved to the target shard.
    migrated: u64,
    /// `Reshard` ack to `MigrationStatus` reporting idle: copy + cutover.
    copy_secs: f64,
    migrated_per_sec: f64,
    /// Slowest single racing insert — an upper bound on the write stall
    /// the cutover's exclusive window imposed.
    max_insert_stall_ms: f64,
    /// The operational heartbeat the stall gate is stated against.
    heartbeat_ms: u64,
    /// Expected minus found record count after the cutover. Zero means
    /// no acknowledged write was lost and none was duplicated.
    lost: i64,
}

/// Live split under write load: seed a 2-shard server, start a split of
/// shard 0, and keep a writer inserting (and measuring per-insert
/// latency) until the migration reports idle. Audits record conservation
/// and, under `--smoke`, gates on zero lost/duplicated acks and a max
/// insert stall under `2 x heartbeat_ms`.
fn run_reshard(opts: &Opts) -> ReshardRow {
    // The operational heartbeat the runbook assumes (the protocol v8
    // lease cadence): a cutover that stalls writes for two of these
    // would read as a dead primary to an auto-failover follower.
    let heartbeat_ms: u64 = 500;
    let server = Server::spawn(
        bench_pipeline(opts.seed ^ 2, 2),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 256,
            ..ServerConfig::default()
        },
    )
    .expect("spawn reshard server");
    let addr = server.local_addr();
    let mut admin = Client::connect(addr).expect("connect admin");
    let corpus: Vec<Record> = (0..opts.records).map(|i| record(i, i)).collect();
    for chunk in corpus.chunks(1_000) {
        admin.insert(chunk).expect("seed insert");
    }
    let before = admin.shard_map().expect("shard map");

    let t0 = Instant::now();
    let (kind, _, _, _) = admin
        .reshard(ReshardOp::Split { source: 0 })
        .expect("start split");
    assert_eq!(kind, "split");
    // Racing writer: twins of corpus records under fresh ids, so the
    // presence audit below can probe them back out by source.
    let mut writer = Client::connect(addr).expect("connect writer");
    let mut racing: Vec<u64> = Vec::new();
    let mut max_stall_ms = 0f64;
    let mut next_id = 10_000_000u64;
    loop {
        let batch: Vec<Record> = (0..16)
            .map(|j| {
                let id = next_id + j;
                record(id, id % opts.records.max(1))
            })
            .collect();
        next_id += 16;
        let t = Instant::now();
        let (accepted, _) = writer.insert(&batch).expect("racing insert");
        max_stall_ms = max_stall_ms.max(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(accepted, batch.len(), "insert rejected mid-migration");
        racing.extend(batch.iter().map(|r| r.id));
        if !admin.migration_status().expect("migration status").active {
            break;
        }
    }
    let copy_secs = t0.elapsed().as_secs_f64();

    let after = admin.shard_map().expect("shard map");
    let expected = opts.records + racing.len() as u64;
    let found: u64 = after.records.iter().sum();
    let lost = expected as i64 - found as i64;
    let m = admin.metrics().expect("metrics");
    let gauge = |name: &str| {
        m.gauges
            .iter()
            .find(|g| g.name == name)
            .map(|g| g.value)
            .unwrap_or(i64::MIN)
    };
    let migrated = gauge("rl_reshard_migrated_records").max(0) as u64;
    if opts.smoke {
        assert_eq!(
            lost, 0,
            "acks lost or duplicated across cutover: expected {expected}, found {found} \
             (per shard: {:?})",
            after.records
        );
        assert_eq!(after.epoch, before.epoch + 1, "cutover must bump the epoch");
        assert_eq!(after.num_shards, before.num_shards + 1);
        let bound_ms = 2.0 * heartbeat_ms as f64;
        assert!(
            max_stall_ms < bound_ms,
            "cutover stalled a write for {max_stall_ms:.1} ms, bound is {bound_ms:.0} ms \
             (2x the {heartbeat_ms} ms heartbeat)"
        );
        assert_eq!(gauge("rl_reshard_state"), 0, "migration still marked live");
        assert_eq!(gauge("rl_reshard_lag_ops"), 0, "lag gauge did not drain");
        assert!(migrated > 0, "copier moved nothing on a populated split");
        // Presence audit on a sample of the racing acks: each must probe
        // back out through the post-cutover map.
        for &id in racing.iter().take(8) {
            let probe = record(90_000_000 + id, id % opts.records.max(1));
            let (pairs, _) = admin.probe(std::slice::from_ref(&probe)).expect("probe");
            assert!(
                pairs.iter().any(|&(a, _)| a == id),
                "racing ack {id} unreachable after cutover"
            );
        }
    }
    admin.shutdown().expect("shutdown");
    server.wait();

    ReshardRow {
        mode: "reshard-split".into(),
        shards_before: before.num_shards,
        shards_after: after.num_shards,
        epoch_after: after.epoch,
        records_seeded: opts.records,
        racing_inserts: racing.len() as u64,
        migrated,
        copy_secs,
        migrated_per_sec: migrated as f64 / copy_secs.max(1e-9),
        max_insert_stall_ms: max_stall_ms,
        heartbeat_ms,
        lost,
    }
}

/// Smoke-mode assertion: the observability layer saw the bench traffic.
/// Panics (failing the CI step) when the `Metrics` reply is missing the
/// expected request counts or latency samples.
fn smoke_check_metrics(client: &mut Client, probes: u64) {
    let m = client.metrics().expect("metrics request");
    let probed = m
        .counter_value("rl_requests_total", Some("probe"))
        .expect("probe counter registered");
    assert!(
        probed >= probes,
        "metrics lost probes: counted {probed}, sent {probes}"
    );
    let indexed = m
        .counter_value("rl_requests_total", Some("index"))
        .expect("index counter registered");
    assert!(indexed > 0, "no index requests counted");
    let exec = m
        .histogram_data("rl_request_exec_seconds", Some("probe"))
        .expect("probe exec histogram registered");
    assert_eq!(exec.data.count, probed, "exec samples != probe count");
    let wait = m
        .histogram_data("rl_request_queue_wait_seconds", Some("probe"))
        .expect("probe queue-wait histogram registered");
    assert_eq!(wait.data.count, probed, "queue-wait samples != probe count");
    println!(
        "smoke: metrics ok — {probed} probes, exec p50 {}ns / p99 {}ns",
        exec.data.quantile(0.50),
        exec.data.quantile(0.99),
    );
}

/// A well-spread synthetic record: distinct source indices share few
/// bigrams, so probe cost reflects real candidate filtering.
fn record(id: u64, source: u64) -> Record {
    Record::new(id, [synth_name(9, source), synth_name(9 ^ 0xF00, source)])
}

fn synth_name(salt: u64, i: u64) -> String {
    let mut x = (i + 1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xA24B_AED4_963E_E407));
    (0..6)
        .map(|_| {
            let c = (b'A' + (x % 26) as u8) as char;
            x /= 26;
            c
        })
        .collect()
}

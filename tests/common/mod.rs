//! Helpers shared by the `server_*` integration tests: the two-attribute
//! test pipeline, well-spread synthetic records, server configurations,
//! the real-binary `rl serve` launcher, and an orderly stop.

#![allow(dead_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use record_linkage::cbv_hb::pipeline::LinkageConfig;
use record_linkage::cbv_hb::sharded::ShardedPipeline;
use record_linkage::cbv_hb::{AttributeSpec, Record, RecordSchema, Rule, StoreKind};
use record_linkage::obs::MetricsSnapshot;
use record_linkage::server::{
    Client, DurabilityConfig, ReplRole, Server, ServerConfig, SyncPolicy,
};
use record_linkage::textdist::Alphabet;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The test pipeline: first and last name under the rule-aware rule
/// `0<=4 & 1<=4`, with `configure` applied to the config before any hash
/// family is drawn.
pub fn pipeline_with(
    seed: u64,
    shards: usize,
    configure: impl FnOnce(&mut LinkageConfig),
) -> ShardedPipeline {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = RecordSchema::build(
        Alphabet::linkage(),
        vec![
            // Generous sizes keep hash-collision false positives out of the
            // deterministic assertions.
            AttributeSpec::new("FirstName", 2, 64, false, 5),
            AttributeSpec::new("LastName", 2, 64, false, 5),
        ],
        &mut rng,
    );
    let rule = Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]);
    let mut config = LinkageConfig::rule_aware(rule);
    configure(&mut config);
    ShardedPipeline::new(schema, config, shards, &mut rng).unwrap()
}

pub fn pipeline(seed: u64, shards: usize) -> ShardedPipeline {
    pipeline_with(seed, shards, |_| {})
}

/// [`pipeline`] with its blocking tables in an mmap store under `dir`.
pub fn mmap_pipeline(seed: u64, shards: usize, dir: &Path) -> ShardedPipeline {
    pipeline_with(seed, shards, |config| {
        config.block.kind = StoreKind::Mmap;
        config.block.dir = Some(dir.to_string_lossy().into_owned());
    })
}

/// A well-spread synthetic name (multiplicative hash), so distinct
/// indices share few bigrams and the match assertions stay exact.
pub fn synth_name(salt: u64, i: u64) -> String {
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

pub fn records(salt: u64, base: u64, n: u64) -> Vec<Record> {
    (0..n)
        .map(|i| Record::new(base + i, [synth_name(salt, i), synth_name(salt ^ 0xF00, i)]))
        .collect()
}

/// Probe `record` under a fresh probe id and return the indexed ids it
/// matched.
pub fn probe_one(client: &mut Client, record: &Record, probe_id: u64) -> Vec<u64> {
    let probe = Record::new(probe_id, record.fields.iter().cloned());
    let (pairs, _) = client.probe(std::slice::from_ref(&probe)).unwrap();
    pairs.into_iter().map(|(a, _)| a).collect()
}

/// An empty per-process scratch directory.
pub fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rl-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// An ephemeral-port server with `workers` threads behind a
/// `queue_capacity`-slot job queue.
pub fn server_config(workers: usize, queue_capacity: usize) -> ServerConfig {
    ServerConfig {
        workers,
        queue_capacity,
        ..ServerConfig::default()
    }
}

/// A durable server that fsyncs every append and never checkpoints in the
/// background, so a restart replays the WAL alone.
pub fn durable_config(dir: &Path, role: ReplRole) -> ServerConfig {
    ServerConfig {
        repl_role: role,
        durability: Some(DurabilityConfig {
            data_dir: dir.to_path_buf(),
            sync: SyncPolicy::Always,
            checkpoint_every: None,
        }),
        ..ServerConfig::default()
    }
}

/// Spawns the real `rl` binary in durable serve mode (the test rule, two
/// shards, plus `extra` flags) and parses the bound address off its
/// stderr. A drain thread keeps reading afterwards so the child never
/// blocks on a full pipe.
pub fn spawn_rl_serve(dir: &Path, extra: &[&str]) -> (Child, String) {
    let mut args = vec![
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--rule",
        "0<=4 & 1<=4",
        "--fields",
        "2",
        "--shards",
        "2",
        "--data-dir",
        dir.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    let mut child = Command::new(env!("CARGO_BIN_EXE_rl"))
        .args(&args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rl serve");
    let mut reader = BufReader::new(child.stderr.take().unwrap());
    let mut addr = None;
    for _ in 0..50 {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap() == 0 {
            break;
        }
        if let Some(rest) = line.strip_prefix("rl-server listening on ") {
            addr = rest.split_whitespace().next().map(str::to_owned);
            break;
        }
    }
    let addr = addr.expect("server never reported its address");
    std::thread::spawn(move || {
        let mut sink = Vec::new();
        let _ = reader.read_to_end(&mut sink);
    });
    (child, addr)
}

/// The value of gauge `name` in a `Metrics` reply.
pub fn gauge(m: &MetricsSnapshot, name: &str) -> i64 {
    let point = m.gauges.iter().find(|g| g.name == name);
    point
        .unwrap_or_else(|| panic!("gauge {name} not registered"))
        .value
}

/// Polls `check` every 10 ms until it yields a value; panics, naming
/// `what`, after 15 s without one.
pub fn wait_for<T>(what: &str, mut check: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        if let Some(value) = check() {
            return value;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Closes `clients`, then stops `server` and waits for it. The order
/// matters: a shutting-down reactor keeps every open connection that is
/// not at EOF for its 10 s drain window (docs/SERVER.md "Shutdown"), so a
/// test that reaches `wait()` still holding an idle client sleeps it out.
pub fn stop(server: Server, clients: impl IntoIterator<Item = Client>) {
    clients.into_iter().for_each(drop);
    server.shutdown();
    server.wait();
}

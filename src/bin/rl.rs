//! `rl` — command-line record linkage with cBV-HB.
//!
//! ```text
//! rl generate --source ncvr --records 10000 --scheme pl --seed 1 \
//!             --out-a a.csv --out-b b.csv --out-truth truth.csv
//!
//! rl link --a a.csv --b b.csv --rule "0<=4 & 1<=4 & 2<=8" \
//!         --out matches.csv [--header] [--id-column 0] [--delta 0.1] \
//!         [--k 5,5,10,10] [--record-level THETA:K] [--threads 4] [--report]
//! ```
//!
//! `generate` emits a synthetic data-set pair with ground truth; `link`
//! reads two CSVs, fits c-vector sizes from the data (Theorem 1), compiles
//! the rule into blocking structures, and writes the identified pairs.

use rand::rngs::StdRng;
use rand::SeedableRng;
use record_linkage::cbv_hb::analysis::analyze;
use record_linkage::cbv_hb::io::{read_records, write_matches, write_records};
use record_linkage::cbv_hb::pipeline::BlockingMode;
use record_linkage::cbv_hb::{parse_rule, AttributeSpec};
use record_linkage::datagen::{DblpSource, NcvrSource, RecordSource};
use record_linkage::prelude::*;
use std::collections::HashMap;
use std::fs::File;
use std::process::exit;

/// The usage text; it is also the list of flags that exist —
/// [`parse_flags`] rejects any `--flag` that does not appear in it.
const USAGE: &str =
        "usage:\n  rl generate --source ncvr|dblp --records N --scheme pl|ph \
         [--seed S] --out-a A.csv --out-b B.csv [--out-truth T.csv]\n  \
         rl link --a A.csv --b B.csv --rule EXPR --out M.csv [--header] \
         [--id-column N] [--delta D] [--k K1,K2,...] [--record-level THETA:K] \
         [--blocking random|covering] [--threads N] [--seed S] [--report]\n  \
         rl dedup --input D.csv --rule EXPR --out CLUSTERS.csv [--header] \
         [--id-column N] [--delta D] [--k K1,K2,...] [--seed S]\n  \
         rl calibrate --input D.csv [--header] [--id-column N] [--theta T] \
         [--delta D] [--seed S]\n  \
         rl serve --rule EXPR --fields N [--addr HOST:PORT] [--m-bits M] \
         [--k K] [--delta D] [--blocking random|covering] [--shards N] \
         [--workers N] [--queue N] [--snapshot PATH] [--slow-ms MS] [--seed S] \
         [--data-dir DIR] [--checkpoint-every SECS] [--wal-sync-ms MS] \
         [--allow-replicas] [--replicate-from HOST:PORT] [--max-subscriptions N] \
         [--lease-ms MS] [--sync-replicas N] [--quorum-timeout-ms MS] \
         [--auto-failover] [--peers HOST:PORT,...] \
         [--block-store memory|mmap] [--block-dir DIR] \
         [--block-cap N] [--block-cap-mode chain|drop] [--block-top-k N]\n  \
         rl promote [--addr HOST:PORT] [--timeout-ms MS]\n  \
         rl reshard --mode split|merge --source N [--target N] \
         [--addr HOST:PORT] [--timeout-ms MS]\n  \
         rl client --cmd stats|metrics|dedup-status|repl-status|shard-map|migration-status|shutdown|snapshot|index|insert|delete|probe|stream|watch \
         [--addr HOST:PORT] [--input F.csv] [--out M.csv] [--path SNAP] [--ids 1,2,...] \
         [--header] [--id-column N] [--timeout-ms MS] [--prometheus]\n  \
         rl client --cmd watch --rule EXPR [--window N | --window-ms MS] \
         [--late drop|apply] [--cap N] [--limit N] [--addr HOST:PORT]";

fn usage() -> ! {
    eprintln!("{USAGE}");
    exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let flags = parse_flags(&args[1..]);
    let result = match cmd.as_str() {
        "generate" => generate(&flags),
        "link" => link(&flags),
        "dedup" => dedup(&flags),
        "calibrate" => calibrate(&flags),
        "serve" => serve(&flags),
        "promote" => promote(&flags),
        "reshard" => reshard(&flags),
        "client" => client(&flags),
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        exit(1);
    }
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].trim_start_matches("--").to_string();
        if !args[i].starts_with("--") {
            eprintln!("unexpected argument {:?}", args[i]);
            usage();
        }
        let is_flag_char = |c: char| c.is_ascii_alphanumeric() || c == '-';
        if !USAGE
            .split(|c| !is_flag_char(c))
            .any(|word| word == args[i])
        {
            eprintln!("unknown flag {}", args[i]);
            usage();
        }
        // Boolean flags take no value.
        if matches!(
            key.as_str(),
            "header" | "report" | "prometheus" | "allow-replicas" | "auto-failover"
        ) {
            flags.insert(key, "true".into());
            i += 1;
        } else {
            let Some(value) = args.get(i + 1) else {
                eprintln!("missing value for --{key}");
                usage();
            };
            flags.insert(key, value.clone());
            i += 2;
        }
    }
    flags
}

fn req<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{key}"))
}

/// Resolves `--blocking` + `--record-level` into a [`BlockingMode`].
///
/// Default backend is random sampling (Definition 3); `--blocking covering`
/// switches to the CoveringLSH backend with its zero-false-negative
/// guarantee. Record-level covering takes its radius from `--record-level
/// THETA` (a `:K` suffix is accepted and ignored — covering groups have no
/// K parameter).
fn parse_blocking_mode(flags: &HashMap<String, String>) -> Result<BlockingMode, String> {
    let backend = flags
        .get("blocking")
        .map(String::as_str)
        .unwrap_or("random");
    let record_level = flags.get("record-level");
    match (backend, record_level) {
        ("random", None) => Ok(BlockingMode::RuleAware),
        ("random", Some(spec)) => {
            let (theta, k) = spec
                .split_once(':')
                .ok_or_else(|| "--record-level expects THETA:K".to_string())?;
            Ok(BlockingMode::RecordLevel {
                theta: theta.parse().map_err(|_| "bad THETA".to_string())?,
                k: k.parse().map_err(|_| "bad K".to_string())?,
            })
        }
        ("covering", None) => Ok(BlockingMode::CoveringRuleAware),
        ("covering", Some(spec)) => {
            let theta = spec.split(':').next().unwrap_or(spec);
            Ok(BlockingMode::Covering {
                theta: theta.parse().map_err(|_| "bad THETA".to_string())?,
            })
        }
        (other, _) => Err(format!(
            "unknown blocking backend {other:?} (random|covering)"
        )),
    }
}

/// Resolves the `--block-*` flags into a [`BlockStoreConfig`].
///
/// `--block-store mmap` moves the blocking tables onto disk
/// (memory-mapped generation files under `--block-dir`); the remaining
/// knobs bound skew and probe cost: `--block-cap` caps bucket size
/// (`--block-cap-mode drop` makes the cap lossy), `--block-top-k` bounds
/// distinct candidates per probe (truncated probes are flagged in reply
/// notes).
fn parse_block_config(flags: &HashMap<String, String>) -> Result<BlockStoreConfig, String> {
    let kind = match flags.get("block-store").map(String::as_str) {
        None | Some("memory") => StoreKind::Memory,
        Some("mmap") => StoreKind::Mmap,
        Some(other) => return Err(format!("unknown block store {other:?} (memory|mmap)")),
    };
    let cap_mode = match flags.get("block-cap-mode").map(String::as_str) {
        None | Some("chain") => CapMode::Chain,
        Some("drop") => CapMode::Drop,
        Some(other) => return Err(format!("unknown cap mode {other:?} (chain|drop)")),
    };
    let parse_usize = |key: &str| -> Result<usize, String> {
        flags
            .get(key)
            .map(|s| s.parse())
            .transpose()
            .map_err(|_| format!("--{key} must be an integer"))
            .map(|v| v.unwrap_or(0))
    };
    Ok(BlockStoreConfig {
        kind,
        dir: flags.get("block-dir").cloned(),
        max_block_size: parse_usize("block-cap")?,
        cap_mode,
        probe_top_k: parse_usize("block-top-k")?,
    })
}

fn generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let source = req(flags, "source")?;
    let records: usize = req(flags, "records")?
        .parse()
        .map_err(|_| "--records must be an integer".to_string())?;
    let scheme = match req(flags, "scheme")? {
        "pl" => PerturbationScheme::Light,
        "ph" => PerturbationScheme::Heavy,
        other => return Err(format!("unknown scheme {other:?} (pl|ph)")),
    };
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "--seed must be an integer".to_string())?
        .unwrap_or(42);
    let mut rng = StdRng::seed_from_u64(seed);
    let config = PairConfig::new(records, scheme);
    let (pair, header): (DatasetPair, Vec<String>) = match source {
        "ncvr" => (
            DatasetPair::generate(&NcvrSource, config, &mut rng),
            NcvrSource
                .attribute_names()
                .iter()
                .map(ToString::to_string)
                .collect(),
        ),
        "dblp" => (
            DatasetPair::generate(&DblpSource, config, &mut rng),
            DblpSource
                .attribute_names()
                .iter()
                .map(ToString::to_string)
                .collect(),
        ),
        other => return Err(format!("unknown source {other:?} (ncvr|dblp)")),
    };
    let io_err = |e: record_linkage::cbv_hb::Error| e.to_string();
    let open = |key: &str| -> Result<Option<File>, String> {
        flags
            .get(key)
            .map(|p| File::create(p).map_err(|e| format!("cannot create {p}: {e}")))
            .transpose()
    };
    if let Some(f) = open("out-a")? {
        write_records(f, &pair.a, Some(&header), ',').map_err(io_err)?;
    } else {
        return Err("missing required flag --out-a".into());
    }
    if let Some(f) = open("out-b")? {
        write_records(f, &pair.b, Some(&header), ',').map_err(io_err)?;
    } else {
        return Err("missing required flag --out-b".into());
    }
    if let Some(f) = open("out-truth")? {
        let mut truth: Vec<(u64, u64)> = pair.ground_truth.iter().copied().collect();
        truth.sort_unstable();
        write_matches(f, &truth).map_err(io_err)?;
    }
    eprintln!(
        "generated {} + {} records, {} true matches (seed {seed})",
        pair.a.len(),
        pair.b.len(),
        pair.ground_truth.len()
    );
    Ok(())
}

fn link(flags: &HashMap<String, String>) -> Result<(), String> {
    let path_a = req(flags, "a")?;
    let path_b = req(flags, "b")?;
    let rule_text = req(flags, "rule")?;
    let out_path = req(flags, "out")?;
    let has_header = flags.contains_key("header");
    let id_column: Option<usize> = flags
        .get("id-column")
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "--id-column must be an integer".to_string())?;
    let delta: f64 = flags
        .get("delta")
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "--delta must be a number".to_string())?
        .unwrap_or(0.1);
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "--seed must be an integer".to_string())?
        .unwrap_or(42);
    let threads: usize = flags
        .get("threads")
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "--threads must be an integer".to_string())?
        .unwrap_or(1);

    let rule = parse_rule(rule_text).map_err(|e| e.to_string())?;

    let open = |p: &str| File::open(p).map_err(|e| format!("cannot open {p}: {e}"));
    let (_, a) = read_records(open(path_a)?, ',', has_header, id_column)
        .map_err(|e| format!("{path_a}: {e}"))?;
    let (_, b) = read_records(open(path_b)?, ',', has_header, id_column)
        .map_err(|e| format!("{path_b}: {e}"))?;
    if a.is_empty() || b.is_empty() {
        return Err("both data sets must be non-empty".into());
    }
    let num_fields = a[0].fields.len();

    // Per-attribute K values.
    let ks: Vec<u32> = match flags.get("k") {
        Some(spec) => spec
            .split(',')
            .map(|s| s.trim().parse())
            .collect::<Result<_, _>>()
            .map_err(|_| "--k must be a comma-separated integer list".to_string())?,
        None => vec![10; num_fields],
    };
    if ks.len() != num_fields {
        return Err(format!(
            "--k has {} entries but records have {num_fields} attributes",
            ks.len()
        ));
    }

    // Fit c-vector sizes from the data (Theorem 1, ρ = 1, r = 1/3).
    let mut rng = StdRng::seed_from_u64(seed);
    let specs: Vec<AttributeSpec> = (0..num_fields)
        .map(|f| {
            AttributeSpec::fitted(
                format!("f{f}"),
                2,
                a.iter().chain(&b).take(10_000).map(|r| r.field(f)),
                1.0,
                1.0 / 3.0,
                false,
                ks[f],
            )
        })
        .collect();
    let schema = RecordSchema::build(Alphabet::linkage(), specs, &mut rng);

    let mode = parse_blocking_mode(flags)?;
    let block = parse_block_config(flags)?;
    let config = LinkageConfig {
        delta,
        mode,
        rule,
        block,
    };
    let mut pipeline = LinkagePipeline::new(schema, config, &mut rng).map_err(|e| e.to_string())?;

    if flags.contains_key("report") {
        let report = analyze(pipeline.plan());
        eprintln!("blocking plan:");
        for s in &report.structures {
            eprintln!(
                "  {:<44} [{}] L={:<4} recall bound {:.3}",
                s.label, s.backend, s.l, s.recall_bound
            );
        }
        eprintln!(
            "  total tables {} | combined recall bound {:.3}",
            report.total_tables, report.combined_recall_bound
        );
    }

    pipeline.index(&a).map_err(|e| e.to_string())?;
    let result = pipeline
        .link_parallel(&b, threads)
        .map_err(|e| e.to_string())?;
    let mut matches = result.matches;
    matches.sort_unstable();

    let out = File::create(out_path).map_err(|e| format!("cannot create {out_path}: {e}"))?;
    write_matches(out, &matches).map_err(|e| e.to_string())?;
    eprintln!(
        "indexed {} records, probed {}, compared {} candidates, wrote {} matches to {out_path}",
        a.len(),
        b.len(),
        result.stats.candidates,
        matches.len()
    );
    Ok(())
}

fn dedup(flags: &HashMap<String, String>) -> Result<(), String> {
    use record_linkage::cbv_hb::dedup::deduplicate;
    let input = req(flags, "input")?;
    let rule_text = req(flags, "rule")?;
    let out_path = req(flags, "out")?;
    let has_header = flags.contains_key("header");
    let id_column: Option<usize> = flags
        .get("id-column")
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "--id-column must be an integer".to_string())?;
    let delta: f64 = flags
        .get("delta")
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "--delta must be a number".to_string())?
        .unwrap_or(0.1);
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "--seed must be an integer".to_string())?
        .unwrap_or(42);
    let rule = parse_rule(rule_text).map_err(|e| e.to_string())?;
    let file = File::open(input).map_err(|e| format!("cannot open {input}: {e}"))?;
    let (_, records) =
        read_records(file, ',', has_header, id_column).map_err(|e| format!("{input}: {e}"))?;
    if records.is_empty() {
        return Err("data set must be non-empty".into());
    }
    let num_fields = records[0].fields.len();
    let ks: Vec<u32> = match flags.get("k") {
        Some(spec) => spec
            .split(',')
            .map(|s| s.trim().parse())
            .collect::<Result<_, _>>()
            .map_err(|_| "--k must be a comma-separated integer list".to_string())?,
        None => vec![10; num_fields],
    };
    if ks.len() != num_fields {
        return Err(format!(
            "--k has {} entries but records have {num_fields} attributes",
            ks.len()
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let specs: Vec<AttributeSpec> = (0..num_fields)
        .map(|f| {
            AttributeSpec::fitted(
                format!("f{f}"),
                2,
                records.iter().take(10_000).map(|r| r.field(f)),
                1.0,
                1.0 / 3.0,
                false,
                ks[f],
            )
        })
        .collect();
    let schema = RecordSchema::build(Alphabet::linkage(), specs, &mut rng);
    let config = LinkageConfig {
        delta,
        mode: BlockingMode::RuleAware,
        rule,
        block: Default::default(),
    };
    let result = deduplicate(&schema, &config, &records, &mut rng).map_err(|e| e.to_string())?;
    // One cluster per line: comma-separated member ids.
    let mut out = String::from("cluster_members\n");
    for cluster in &result.clusters {
        let line: Vec<String> = cluster.iter().map(ToString::to_string).collect();
        out.push_str(&line.join(";"));
        out.push('\n');
    }
    std::fs::write(out_path, out).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    eprintln!(
        "scanned {} records, compared {} pairs, found {} duplicate clusters",
        records.len(),
        result.stats.candidates,
        result.clusters.len()
    );
    Ok(())
}

/// Runs the persistent linkage service: builds a fresh sharded index (or
/// restores it from `--snapshot` when the file exists) and serves the
/// framed protocol until a client sends `Shutdown`.
///
/// With `--data-dir` the server runs durably: startup recovers the index
/// from the directory's checkpoint + WAL tail, every mutation is
/// write-ahead logged before its reply (`--wal-sync-ms` trades fsync
/// latency for a bounded power-loss window), and checkpoints run in the
/// background every `--checkpoint-every` seconds.
///
/// Replication (protocol v5, requires `--data-dir`): `--allow-replicas`
/// makes this node a primary serving checkpoint transfers and WAL
/// subscriptions; `--replicate-from HOST:PORT` starts a read-only
/// follower of that primary instead (bootstrapping from its checkpoint
/// when the data dir is empty). See `docs/REPLICATION.md`.
fn serve(flags: &HashMap<String, String>) -> Result<(), String> {
    use record_linkage::cbv_hb::sharded::ShardedPipeline;
    use record_linkage::repl::{Follower, FollowerConfig};
    use record_linkage::server::{
        DurabilityConfig, ReplRole, Server, ServerConfig, Snapshot, SyncPolicy,
    };

    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7878".into());
    let parse_or = |key: &str, default: usize| -> Result<usize, String> {
        flags
            .get(key)
            .map(|s| s.parse())
            .transpose()
            .map_err(|_| format!("--{key} must be an integer"))
            .map(|v| v.unwrap_or(default))
    };
    let shards = parse_or("shards", 4)?.max(1);
    let workers = parse_or("workers", 2)?;
    let queue = parse_or("queue", 64)?;
    let max_subscriptions = parse_or("max-subscriptions", 64)?.max(1);
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "--seed must be an integer".to_string())?
        .unwrap_or(42);
    let snapshot_path = flags.get("snapshot").map(std::path::PathBuf::from);
    let data_dir = flags.get("data-dir").map(std::path::PathBuf::from);
    if snapshot_path.is_some() && data_dir.is_some() {
        // A data dir subsumes snapshots (checkpoints use the same format);
        // accepting both would leave two sources of truth on restart.
        return Err(
            "--snapshot and --data-dir are mutually exclusive; a data dir checkpoints \
             the index itself (see docs/STORAGE.md)"
                .into(),
        );
    }
    // Slow-request logging threshold in milliseconds; 0 disables it.
    let slow_ms = parse_or("slow-ms", 1_000)?;
    let slow_request_threshold = if slow_ms == 0 {
        None
    } else {
        Some(std::time::Duration::from_millis(slow_ms as u64))
    };
    let replicate_from = flags.get("replicate-from").cloned();
    let allow_replicas = flags.contains_key("allow-replicas");
    // Self-healing replication knobs (protocol v8). On a primary:
    // --lease-ms grants failover leases on heartbeats, --sync-replicas
    // holds mutation acks for N follower confirmations. On a follower:
    // --auto-failover runs an election when the lease expires, --peers
    // lists the other replicas it consults.
    let lease_ms = parse_or("lease-ms", 0)? as u64;
    let sync_replicas = parse_or("sync-replicas", 0)?;
    let quorum_timeout_ms = parse_or("quorum-timeout-ms", 2_000)?.max(1) as u64;
    let auto_failover = flags.contains_key("auto-failover");
    let peers: Vec<String> = flags
        .get("peers")
        .map(|s| {
            s.split(',')
                .map(str::trim)
                .filter(|p| !p.is_empty())
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default();
    if auto_failover && replicate_from.is_none() {
        return Err("--auto-failover only applies to followers (--replicate-from)".into());
    }
    if sync_replicas > 0 && !allow_replicas {
        return Err("--sync-replicas only applies to primaries (--allow-replicas)".into());
    }
    if allow_replicas && replicate_from.is_some() {
        // Follower fan-out (a replica re-serving the stream) is future
        // work; today a node is a primary or a follower, not both.
        return Err("--allow-replicas and --replicate-from are mutually exclusive".into());
    }
    if (allow_replicas || replicate_from.is_some()) && data_dir.is_none() {
        return Err(
            "replication requires --data-dir: the write-ahead log is what gets shipped \
             (see docs/REPLICATION.md)"
                .into(),
        );
    }
    let durability = match &data_dir {
        Some(dir) => {
            // Checkpoint cadence in seconds (0 disables background
            // checkpoints: the WAL grows until a restart replays it).
            let checkpoint_secs = parse_or("checkpoint-every", 60)?;
            // fsync cadence: 0 = fsync every append (safe default);
            // N > 0 = group commit, at most N ms of appends may be lost
            // to a power failure (a process crash alone loses nothing).
            let wal_sync_ms = parse_or("wal-sync-ms", 0)?;
            let sync = if wal_sync_ms == 0 {
                SyncPolicy::Always
            } else {
                SyncPolicy::GroupCommit(std::time::Duration::from_millis(wal_sync_ms as u64))
            };
            Some(DurabilityConfig {
                data_dir: dir.clone(),
                sync,
                checkpoint_every: (checkpoint_secs > 0)
                    .then(|| std::time::Duration::from_secs(checkpoint_secs as u64)),
            })
        }
        None => None,
    };

    let config = ServerConfig {
        addr,
        workers,
        queue_capacity: queue,
        snapshot_path: snapshot_path.clone(),
        slow_request_threshold,
        durability,
        repl_role: if allow_replicas {
            ReplRole::Primary
        } else {
            ReplRole::Standalone
        },
        max_subscriptions,
        lease_ms,
        sync_replicas,
        quorum_timeout: std::time::Duration::from_millis(quorum_timeout_ms),
    };

    // Follower mode: the data directory is seeded from the primary's
    // checkpoint (index shape included), so --rule/--fields are not
    // needed; the node serves reads and redirects mutations.
    if let Some(primary) = replicate_from {
        let dir = data_dir.as_ref().expect("checked above");
        let mut follower_config = FollowerConfig::new(primary.clone(), config);
        follower_config.auto_failover = auto_failover;
        follower_config.peers = peers;
        let follower =
            Follower::spawn(follower_config).map_err(|e| format!("cannot start follower: {e}"))?;
        eprintln!(
            "rl-server listening on {} (follower of {primary}{}, data dir {}); \
             `rl client --cmd shutdown` stops it, `rl promote` promotes it",
            follower.local_addr(),
            if auto_failover { ", auto-failover" } else { "" },
            dir.display()
        );
        follower.wait();
        eprintln!("rl-server stopped");
        return Ok(());
    }

    // Durable mode: recovery (checkpoint + WAL replay) happens inside
    // spawn_durable; the closure builds a fresh index from the flags only
    // when the data dir holds no checkpoint.
    if let Some(dir) = &data_dir {
        let server = Server::spawn_durable(
            || build_serve_pipeline(flags, shards, seed).map_err(std::io::Error::other),
            config,
        )
        .map_err(|e| format!("cannot start server: {e}"))?;
        eprintln!(
            "rl-server listening on {} (durable{}, data dir {}); `rl client --cmd shutdown` stops it",
            server.local_addr(),
            if allow_replicas {
                ", serving replicas"
            } else {
                ""
            },
            dir.display()
        );
        server.wait();
        eprintln!("rl-server stopped");
        return Ok(());
    }

    // Restore when a snapshot exists; otherwise build from flags.
    let restored = match &snapshot_path {
        Some(path) if path.exists() => {
            // The restored state carries the full topology and embedding
            // config, so index-shape flags are ignored — say so instead of
            // silently serving an old configuration.
            let ignored: Vec<String> = [
                "shards",
                "rule",
                "fields",
                "m-bits",
                "k",
                "delta",
                "seed",
                "blocking",
                "block-store",
                "block-dir",
                "block-cap",
                "block-cap-mode",
                "block-top-k",
            ]
            .iter()
            .filter(|name| flags.contains_key(**name))
            .map(|name| format!("--{name}"))
            .collect();
            if !ignored.is_empty() {
                eprintln!(
                    "warning: {} ignored; configuration comes from the restored snapshot {} \
                     (delete the file to rebuild with new flags)",
                    ignored.join(", "),
                    path.display()
                );
            }
            let snap = Snapshot::load(path).map_err(|e| e.to_string())?;
            eprintln!(
                "restored snapshot {} ({} records, {} shards)",
                path.display(),
                snap.state.indexed,
                snap.state.shards.len()
            );
            Some(snap)
        }
        _ => None,
    };
    let (server, shard_count) = match restored {
        Some(snap) => {
            let shard_count = snap.state.shards.len();
            let pipeline = ShardedPipeline::from_state(snap.state).map_err(|e| e.to_string())?;
            (
                Server::spawn_with_history(pipeline, snap.stream_pairs, snap.streamed, config),
                shard_count,
            )
        }
        None => (
            Server::spawn(build_serve_pipeline(flags, shards, seed)?, config),
            shards,
        ),
    };
    let server = server.map_err(|e| format!("cannot start server: {e}"))?;

    eprintln!(
        "rl-server listening on {} ({shard_count} shards); `rl client --cmd shutdown` stops it",
        server.local_addr()
    );
    server.wait();
    eprintln!("rl-server stopped");
    Ok(())
}

/// Builds a fresh sharded index from the `serve` index-shape flags
/// (`--rule`, `--fields`, `--m-bits`, `--k`, `--delta`, `--blocking`).
/// Used when no snapshot or checkpoint exists to restore from.
fn build_serve_pipeline(
    flags: &HashMap<String, String>,
    shards: usize,
    seed: u64,
) -> Result<record_linkage::cbv_hb::sharded::ShardedPipeline, String> {
    use record_linkage::cbv_hb::sharded::ShardedPipeline;

    let rule_text = req(flags, "rule")?;
    let fields: usize = req(flags, "fields")?
        .parse()
        .map_err(|_| "--fields must be an integer".to_string())?;
    if fields == 0 {
        return Err("--fields must be positive".into());
    }
    let parse_or = |key: &str, default: usize| -> Result<usize, String> {
        flags
            .get(key)
            .map(|s| s.parse())
            .transpose()
            .map_err(|_| format!("--{key} must be an integer"))
            .map(|v| v.unwrap_or(default))
    };
    let m_bits = parse_or("m-bits", 64)?;
    let k: u32 = parse_or("k", 5)? as u32;
    let delta: f64 = flags
        .get("delta")
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "--delta must be a number".to_string())?
        .unwrap_or(0.1);
    let rule = parse_rule(rule_text).map_err(|e| e.to_string())?;
    let mode = match flags.get("blocking").map(String::as_str) {
        None | Some("random") => BlockingMode::RuleAware,
        Some("covering") => BlockingMode::CoveringRuleAware,
        Some(other) => {
            return Err(format!(
                "unknown blocking backend {other:?} (random|covering)"
            ))
        }
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let specs: Vec<AttributeSpec> = (0..fields)
        .map(|f| AttributeSpec::new(format!("f{f}"), 2, m_bits, false, k))
        .collect();
    let schema = RecordSchema::build(Alphabet::linkage(), specs, &mut rng);
    let block = parse_block_config(flags)?;
    let link_config = LinkageConfig {
        delta,
        mode,
        rule,
        block,
    };
    ShardedPipeline::new(schema, link_config, shards, &mut rng).map_err(|e| e.to_string())
}

/// Promotes a follower to primary: syncs its applied tail, flips the
/// role, and rotates to a fresh WAL segment. Idempotent on a node that is
/// already primary. Run this only after confirming the follower's lag is
/// 0 (`rl client --cmd repl-status`) — or accept losing the unshipped
/// tail; see the failover runbook in docs/REPLICATION.md.
fn promote(flags: &HashMap<String, String>) -> Result<(), String> {
    use record_linkage::server::Client;

    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7878".into());
    let timeout_ms: u64 = flags
        .get("timeout-ms")
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "--timeout-ms must be an integer".to_string())?
        .unwrap_or(30_000);
    let timeout = if timeout_ms == 0 {
        None
    } else {
        Some(std::time::Duration::from_millis(timeout_ms))
    };
    let mut client = Client::connect_with_timeout(&*addr, timeout).map_err(|e| e.to_string())?;
    let (head_seq, was_follower, epoch) = client.promote().map_err(|e| e.to_string())?;
    if was_follower {
        eprintln!("{addr} promoted to primary at op seq {head_seq} (epoch {epoch})");
    } else {
        eprintln!("{addr} is already primary (op seq {head_seq}, epoch {epoch})");
    }
    Ok(())
}

/// Drives an online reshard end to end (protocol v10): starts the split
/// or merge, polls the migration until the background copy finishes and
/// the cutover lands, and reports the new shard-map epoch. The server
/// keeps serving throughout; Ctrl-C here leaves the migration running.
fn reshard(flags: &HashMap<String, String>) -> Result<(), String> {
    use record_linkage::server::{Client, ReshardOp};

    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7878".into());
    let timeout_ms: u64 = flags
        .get("timeout-ms")
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "--timeout-ms must be an integer".to_string())?
        .unwrap_or(30_000);
    let timeout = if timeout_ms == 0 {
        None
    } else {
        Some(std::time::Duration::from_millis(timeout_ms))
    };
    let source: usize = req(flags, "source")?
        .parse()
        .map_err(|_| "--source must be a shard index".to_string())?;
    let op = match req(flags, "mode")? {
        "split" => ReshardOp::Split { source },
        "merge" => {
            let target: usize = req(flags, "target")?
                .parse()
                .map_err(|_| "--target must be a shard index".to_string())?;
            ReshardOp::Merge { source, target }
        }
        other => return Err(format!("unknown --mode {other:?} (split|merge)")),
    };
    let mut client = Client::connect_with_timeout(&*addr, timeout).map_err(|e| e.to_string())?;

    let before = client.shard_map().map_err(|e| e.to_string())?;
    let (kind, src, target, total) = client.reshard(op).map_err(|e| e.to_string())?;
    eprintln!(
        "reshard started: {kind} shard {src} -> {target}, {total} record(s) to move \
         (shard map epoch {})",
        before.epoch
    );
    loop {
        let status = client.migration_status().map_err(|e| e.to_string())?;
        if !status.active {
            break;
        }
        eprintln!("  copying: {}/{} record(s)", status.migrated, status.total);
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
    let after = client.shard_map().map_err(|e| e.to_string())?;
    if after.epoch > before.epoch {
        eprintln!(
            "reshard complete: shard map epoch {} -> {}, {} shard(s), per-shard records {:?}",
            before.epoch, after.epoch, after.num_shards, after.records
        );
        Ok(())
    } else {
        Err(format!(
            "reshard did not commit (shard map epoch still {}); the server aborted the \
             migration — check its log",
            after.epoch
        ))
    }
}

/// One-shot protocol client: connects, issues a single command, prints the
/// reply as JSON on stdout (matches as CSV with --out). `watch` is the
/// exception: it holds the connection open as a match-subscription stream
/// (protocol v6) and prints one line per `MatchEvent`.
fn client(flags: &HashMap<String, String>) -> Result<(), String> {
    use record_linkage::server::{Client, LateArrival, WatchEvent, WindowSpec};

    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7878".into());
    let cmd = req(flags, "cmd")?;
    // Per-operation socket timeout; 0 disables (block forever).
    let timeout_ms: u64 = flags
        .get("timeout-ms")
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "--timeout-ms must be an integer".to_string())?
        .unwrap_or(30_000);
    let timeout = if timeout_ms == 0 {
        None
    } else {
        Some(std::time::Duration::from_millis(timeout_ms))
    };
    let mut client = Client::connect_with_timeout(&*addr, timeout).map_err(|e| e.to_string())?;

    let read_file = |key: &str| -> Result<Vec<Record>, String> {
        let path = req(flags, key)?;
        let has_header = flags.contains_key("header");
        let id_column: Option<usize> = flags
            .get("id-column")
            .map(|s| s.parse())
            .transpose()
            .map_err(|_| "--id-column must be an integer".to_string())?;
        let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
        let (_, records) =
            read_records(file, ',', has_header, id_column).map_err(|e| format!("{path}: {e}"))?;
        Ok(records)
    };

    match cmd {
        "stats" => {
            let stats = client.stats().map_err(|e| e.to_string())?;
            println!(
                "{}",
                serde_json::to_string(&stats).map_err(|e| e.to_string())?
            );
            // Human-readable summaries on stderr (stdout stays
            // machine-parseable JSON).
            if stats.shard_map_epoch > 0 {
                eprintln!(
                    "shard map: epoch={} shards={} records={:?}",
                    stats.shard_map_epoch, stats.shards, stats.shard_records
                );
            }
            eprintln!("records: heap_bytes={}", stats.record_heap_bytes);
            for s in &stats.blocking {
                eprintln!(
                    "blocking: {} backend={} store={} L={} key_bits={} buckets={} \
                     max_bucket={} p99_bucket={} dropped={} on_disk_bytes={} heap_bytes={}",
                    s.label,
                    s.backend,
                    s.store,
                    s.l,
                    s.key_bits,
                    s.buckets,
                    s.max_bucket,
                    s.p99_bucket(),
                    s.dropped,
                    s.on_disk_bytes,
                    s.heap_bytes
                );
            }
        }
        "metrics" => {
            let snapshot = client.metrics().map_err(|e| e.to_string())?;
            if flags.contains_key("prometheus") {
                print!("{}", record_linkage::obs::encode_prometheus(&snapshot));
            } else {
                print_metrics_human(&snapshot);
            }
        }
        "dedup-status" => {
            let clusters = client.dedup_status().map_err(|e| e.to_string())?;
            println!(
                "{}",
                serde_json::to_string(&clusters).map_err(|e| e.to_string())?
            );
        }
        "shard-map" => {
            let map = client.shard_map().map_err(|e| e.to_string())?;
            println!(
                "{}",
                serde_json::to_string(&map).map_err(|e| e.to_string())?
            );
            eprintln!(
                "epoch={} shards={} ranges={} records={:?}{}",
                map.epoch,
                map.num_shards,
                map.ranges.len(),
                map.records,
                if map.migration.active {
                    format!(
                        " (migration: {} {} -> {}, {}/{})",
                        map.migration.kind,
                        map.migration.source,
                        map.migration.target,
                        map.migration.migrated,
                        map.migration.total
                    )
                } else {
                    String::new()
                }
            );
        }
        "migration-status" => {
            let status = client.migration_status().map_err(|e| e.to_string())?;
            println!(
                "{}",
                serde_json::to_string(&status).map_err(|e| e.to_string())?
            );
        }
        "repl-status" => {
            let status = client.repl_status().map_err(|e| e.to_string())?;
            println!(
                "{}",
                serde_json::to_string(&status).map_err(|e| e.to_string())?
            );
            eprintln!(
                "role={} applied={} head={} lag_frames={} lag_bytes={} followers={} reconnects={}",
                status.role,
                status.applied_seq,
                status.head_seq,
                status.lag_frames,
                status.lag_bytes,
                status.followers,
                status.reconnects
            );
        }
        "shutdown" => {
            client.shutdown().map_err(|e| e.to_string())?;
            eprintln!("server acknowledged shutdown");
        }
        "snapshot" => {
            let path = client
                .snapshot(flags.get("path").map(String::as_str))
                .map_err(|e| e.to_string())?;
            eprintln!("snapshot written to {path}");
        }
        "index" => {
            let records = read_file("input")?;
            let (accepted, total) = client.index(&records).map_err(|e| e.to_string())?;
            eprintln!("indexed {accepted} records ({total} total)");
        }
        "insert" => {
            let records = read_file("input")?;
            let (accepted, total) = client.insert(&records).map_err(|e| e.to_string())?;
            eprintln!("inserted {accepted} records durably ({total} total)");
        }
        "delete" => {
            let ids: Vec<u64> = req(flags, "ids")?
                .split(',')
                .map(|s| s.trim().parse())
                .collect::<Result<_, _>>()
                .map_err(|_| "--ids must be a comma-separated integer list".to_string())?;
            let (removed, total) = client.delete(&ids).map_err(|e| e.to_string())?;
            eprintln!(
                "deleted {removed} of {} ids ({total} remain indexed)",
                ids.len()
            );
        }
        "probe" => {
            let records = read_file("input")?;
            let (pairs, stats) = client.probe(&records).map_err(|e| e.to_string())?;
            match flags.get("out") {
                Some(out_path) => {
                    let out = File::create(out_path)
                        .map_err(|e| format!("cannot create {out_path}: {e}"))?;
                    write_matches(out, &pairs).map_err(|e| e.to_string())?;
                    eprintln!(
                        "probed {} records, {} candidates, wrote {} matches to {out_path}",
                        records.len(),
                        stats.candidates,
                        pairs.len()
                    );
                }
                None => {
                    for (a, b) in &pairs {
                        println!("{a},{b}");
                    }
                }
            }
        }
        "stream" => {
            let records = read_file("input")?;
            let mut total_matches = 0usize;
            for record in &records {
                let matches = client.stream(record).map_err(|e| e.to_string())?;
                total_matches += matches.len();
                if !matches.is_empty() {
                    let ids: Vec<String> = matches.iter().map(ToString::to_string).collect();
                    println!("{} -> {}", record.id, ids.join(";"));
                }
            }
            eprintln!(
                "streamed {} records, {total_matches} matches against history",
                records.len()
            );
        }
        "watch" => {
            let rule = req(flags, "rule")?;
            let window = match (flags.get("window"), flags.get("window-ms")) {
                (Some(_), Some(_)) => {
                    return Err("--window and --window-ms are mutually exclusive".into())
                }
                (Some(n), None) => WindowSpec::Count(
                    n.parse()
                        .map_err(|_| "--window must be an integer".to_string())?,
                ),
                (None, Some(ms)) => WindowSpec::TimeMs(
                    ms.parse()
                        .map_err(|_| "--window-ms must be an integer".to_string())?,
                ),
                (None, None) => WindowSpec::Count(1024),
            };
            let late = match flags.get("late").map(String::as_str) {
                None | Some("apply") => LateArrival::ApplyIfInWindow,
                Some("drop") => LateArrival::Drop,
                Some(other) => return Err(format!("unknown --late policy {other:?} (drop|apply)")),
            };
            let cap: u64 = flags
                .get("cap")
                .map(|s| s.parse())
                .transpose()
                .map_err(|_| "--cap must be an integer".to_string())?
                .unwrap_or(0);
            // Stop after N events (0 = watch until the stream ends).
            let limit: u64 = flags
                .get("limit")
                .map(|s| s.parse())
                .transpose()
                .map_err(|_| "--limit must be an integer".to_string())?
                .unwrap_or(0);
            let (sub_id, tables) = client
                .subscribe_matches(rule, window, late, cap)
                .map_err(|e| e.to_string())?;
            eprintln!("subscribed {sub_id}: plan probes {tables} tables; Ctrl-C to stop");
            let mut seen = 0u64;
            loop {
                match client.next_watch_event().map_err(|e| e.to_string())? {
                    WatchEvent::Match {
                        record_id, matched, ..
                    } => {
                        let ids: Vec<String> = matched.iter().map(ToString::to_string).collect();
                        println!("{record_id} -> {}", ids.join(";"));
                        seen += 1;
                        if limit > 0 && seen >= limit {
                            break;
                        }
                    }
                    WatchEvent::Lagged { dropped } => {
                        return Err(format!(
                            "subscription lagged: {dropped} event(s) dropped after {seen} \
                             delivered; resubscribe to continue"
                        ));
                    }
                }
            }
            eprintln!("watched {seen} match event(s)");
        }
        other => return Err(format!("unknown client command {other:?}")),
    }
    Ok(())
}

/// Human-readable metrics table: per-request-type counts with the
/// queue-wait / execution latency split (p50/p95/p99), then gauges and
/// pipeline phase timers. Latencies are stored in nanoseconds; shown in
/// milliseconds.
fn print_metrics_human(snapshot: &record_linkage::obs::MetricsSnapshot) {
    let ms = |nanos: u64| nanos as f64 / 1e6;
    let quantiles = |name: &str, label: Option<&str>| -> Option<(u64, f64, f64, f64)> {
        let h = snapshot.histogram_data(name, label)?;
        Some((
            h.data.count,
            ms(h.data.quantile(0.50)),
            ms(h.data.quantile(0.95)),
            ms(h.data.quantile(0.99)),
        ))
    };
    println!(
        "{:<14} {:>8} {:>7} | {:>28} | {:>28}",
        "request type", "count", "errors", "queue wait p50/p95/p99 (ms)", "exec p50/p95/p99 (ms)"
    );
    for point in &snapshot.counters {
        if point.name != "rl_requests_total" {
            continue;
        }
        let Some((_, label)) = point.labels.first() else {
            continue;
        };
        if point.value == 0 {
            continue;
        }
        let errors = snapshot
            .counter_value("rl_request_errors_total", Some(label))
            .unwrap_or(0);
        let wait = quantiles("rl_request_queue_wait_seconds", Some(label));
        let exec = quantiles("rl_request_exec_seconds", Some(label));
        let fmt = |q: Option<(u64, f64, f64, f64)>| match q {
            Some((_, p50, p95, p99)) => format!("{p50:>8.3} {p95:>9.3} {p99:>9.3}"),
            None => format!("{:>28}", "-"),
        };
        println!(
            "{:<14} {:>8} {:>7} | {} | {}",
            label,
            point.value,
            errors,
            fmt(wait),
            fmt(exec)
        );
    }
    // Unlabeled counters (WAL appends, checkpoints, ...) — the table
    // above only covers the per-request-type family.
    for point in &snapshot.counters {
        if point.labels.is_empty() {
            println!("{:<30} {}", point.name, point.value);
        }
    }
    for g in &snapshot.gauges {
        println!("{:<30} {}", g.name, g.value);
    }
    for h in &snapshot.histograms {
        if h.name != "rl_pipeline_phase_seconds" && h.name != "rl_stream_observe_seconds" {
            continue;
        }
        if h.data.count == 0 {
            continue;
        }
        let label = h
            .labels
            .first()
            .map(|(_, v)| format!("{{phase={v}}}"))
            .unwrap_or_default();
        println!(
            "{}{} count={} p50={:.3}ms p95={:.3}ms p99={:.3}ms max={:.3}ms",
            h.name,
            label,
            h.data.count,
            ms(h.data.quantile(0.50)),
            ms(h.data.quantile(0.95)),
            ms(h.data.quantile(0.99)),
            ms(h.data.max),
        );
    }
}

/// Data-driven parameter advice: measures per-attribute bigram statistics,
/// sizes c-vectors by Theorem 1, estimates `p_dissimilar` from sampled
/// pairs, and recommends `K` (cost model of the paper's reference \[16\])
/// and `L` (Equation 2).
fn calibrate(flags: &HashMap<String, String>) -> Result<(), String> {
    use rand::RngExt;
    use record_linkage::cbv_hb::cvector::optimal_m;
    use record_linkage::cbv_hb::schema::measure_b;
    use record_linkage::lsh::params::{
        base_success_probability, estimate_p_dissimilar, optimal_l, KCostModel,
    };

    let input = req(flags, "input")?;
    let has_header = flags.contains_key("header");
    let id_column: Option<usize> = flags
        .get("id-column")
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "--id-column must be an integer".to_string())?;
    let theta: u32 = flags
        .get("theta")
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "--theta must be an integer".to_string())?
        .unwrap_or(4);
    let delta: f64 = flags
        .get("delta")
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "--delta must be a number".to_string())?
        .unwrap_or(0.1);
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "--seed must be an integer".to_string())?
        .unwrap_or(42);

    let file = File::open(input).map_err(|e| format!("cannot open {input}: {e}"))?;
    let (header, records) =
        read_records(file, ',', has_header, id_column).map_err(|e| format!("{input}: {e}"))?;
    if records.is_empty() {
        return Err("data set must be non-empty".into());
    }
    let num_fields = records[0].fields.len();

    println!("records: {}", records.len());
    println!("\nper-attribute sizing (ρ = 1, r = 1/3, unpadded bigrams):");
    let mut m_total = 0usize;
    let mut ms = Vec::new();
    for f in 0..num_fields {
        let b = measure_b(records.iter().take(10_000).map(|r| r.field(f)), 2, false);
        let m = optimal_m(b, 1.0, 1.0 / 3.0);
        m_total += m;
        ms.push(m);
        let name = header
            .as_ref()
            .and_then(|h| h.get(f + usize::from(id_column.is_some())))
            .cloned()
            .unwrap_or_else(|| format!("f{f}"));
        println!("  {name:<16} b = {b:>6.1}   m_opt = {m:>4} bits");
    }
    println!("record-level c-vector: {m_total} bits");

    // Estimate p_dissimilar by embedding a sample and measuring distances.
    let mut rng = StdRng::seed_from_u64(seed);
    let specs: Vec<AttributeSpec> = ms
        .iter()
        .enumerate()
        .map(|(f, &m)| AttributeSpec::new(format!("f{f}"), 2, m, false, 10))
        .collect();
    let schema = RecordSchema::build(Alphabet::linkage(), specs, &mut rng);
    let sample: Vec<_> = records
        .iter()
        .take(500)
        .map(|r| schema.embed(r).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut dists = Vec::new();
    for _ in 0..2_000.min(sample.len() * sample.len()) {
        let i = rng.random_range(0..sample.len());
        let j = rng.random_range(0..sample.len());
        if i != j {
            dists.push(sample[i].total_distance(&sample[j]));
        }
    }
    let p_dis = estimate_p_dissimilar(&dists, m_total);
    let model = KCostModel {
        n: records.len(),
        m: m_total,
        theta,
        delta,
        p_dissimilar: p_dis,
        verify_cost: 1.0,
    };
    let k_star = model.optimal_k(5..=45);
    let p = base_success_probability(theta, m_total);
    let l = optimal_l(p.powi(k_star as i32), delta);
    println!("\nblocking recommendation (θ = {theta}, δ = {delta}):");
    println!("  p_dissimilar ≈ {p_dis:.3} (sampled)");
    println!("  K* = {k_star} (cost-model optimum), L = {l} blocking groups");
    println!("  per-pair recall guarantee ≥ {:.3}", 1.0 - delta);
    Ok(())
}

//! `rl` — command-line record linkage with cBV-HB.
//!
//! [`USAGE`] lists the subcommands and their flags. `generate` writes a
//! synthetic data-set pair with its ground truth. `link` and `dedup` fit
//! c-vector sizes from the data (Theorem 1), compile the rule into
//! blocking structures and write the pairs or clusters found. `calibrate`
//! recommends K and L (Equation 2). `serve`, `promote`, `reshard` and
//! `client` run and drive the linkage server (docs/SERVER.md).

use rand::rngs::StdRng;
use rand::SeedableRng;
use record_linkage::cbv_hb::analysis::analyze;
use record_linkage::cbv_hb::io::{read_records, write_matches, write_records};
use record_linkage::cbv_hb::pipeline::BlockingMode;
use record_linkage::datagen::{DblpSource, NcvrSource, RecordSource};
use record_linkage::prelude::*;
use std::collections::HashMap;
use std::fs::File;
use std::process::exit;
use std::str::FromStr;

/// The usage text; it is also the list of flags that exist —
/// [`parse_flags`] rejects any `--flag` that does not appear on its
/// subcommand's lines, and a flag written there as `[--flag]` takes no
/// value.
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
    let flags = parse_flags(cmd, &args[1..]);
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

/// Parses `args` as subcommand `cmd`'s flags; any other argument is a
/// usage error (exit 2).
fn parse_flags(cmd: &str, args: &[String]) -> Flags {
    let mut flags = HashMap::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(key) = arg.strip_prefix("--") else {
            eprintln!("unexpected argument {arg:?}");
            usage();
        };
        let value = match declared(cmd, arg) {
            None => {
                eprintln!("unknown flag {arg}");
                usage();
            }
            Some(true) => "true".to_string(),
            Some(false) => match args.next() {
                Some(value) => value.clone(),
                None => {
                    eprintln!("missing value for {arg}");
                    usage();
                }
            },
        };
        flags.insert(key.to_string(), value);
    }
    Flags(flags)
}

/// How `cmd`'s lines of [`USAGE`] declare `flag`: `Some(true)` for a
/// switch (`[--flag]`), `Some(false)` for a flag that takes a value, and
/// `None` when `cmd` has no such flag.
fn declared(cmd: &str, flag: &str) -> Option<bool> {
    USAGE
        .lines()
        .filter(|line| line.split_whitespace().nth(1) == Some(cmd))
        .flat_map(str::split_whitespace)
        .find_map(|word| (word.trim_matches(['[', ']']) == flag).then(|| word.ends_with(']')))
}

/// The `serve` flags that shape a fresh index: [`build_serve_pipeline`]
/// sees only these. A restored snapshot brings its own shape.
const INDEX_SHAPE: [&str; 13] = [
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
];

/// A flag value type, and how an error message names it.
trait FlagValue: FromStr {
    const KIND: &'static str;
}

macro_rules! flag_values {
    ($($t:ty => $kind:literal),*) => {
        $(impl FlagValue for $t {
            const KIND: &'static str = $kind;
        })*
    };
}

flag_values!(u32 => "an integer", u64 => "an integer", usize => "an integer", f64 => "a number");

fn missing(key: &str) -> String {
    format!("missing required flag --{key}")
}

/// One subcommand's flags, keyed by name without the leading `--`.
struct Flags(HashMap<String, String>);

impl Flags {
    fn has(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    fn str(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn req(&self, key: &str) -> Result<&str, String> {
        self.str(key).ok_or_else(|| missing(key))
    }

    fn opt<T: FlagValue>(&self, key: &str) -> Result<Option<T>, String> {
        self.str(key)
            .map(|s| {
                s.parse()
                    .map_err(|_| format!("--{key} must be {}", T::KIND))
            })
            .transpose()
    }

    fn get<T: FlagValue>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.opt(key)?.unwrap_or(default))
    }

    fn req_as<T: FlagValue>(&self, key: &str) -> Result<T, String> {
        self.opt(key)?.ok_or_else(|| missing(key))
    }

    /// `--key` as a comma-separated list.
    fn list<T: FlagValue>(&self, key: &str) -> Result<Option<Vec<T>>, String> {
        self.str(key)
            .map(|s| {
                s.split(',')
                    .map(|v| v.trim().parse())
                    .collect::<Result<_, _>>()
                    .map_err(|_| {
                        format!("--{key} must be a comma-separated list, each {}", T::KIND)
                    })
            })
            .transpose()
    }

    fn seed(&self) -> Result<u64, String> {
        self.get("seed", 42)
    }

    /// The one random source of a run, seeded by `--seed`.
    fn rng(&self) -> Result<StdRng, String> {
        Ok(StdRng::seed_from_u64(self.seed()?))
    }

    fn addr(&self) -> &str {
        self.str("addr").unwrap_or("127.0.0.1:7878")
    }

    /// Connects to `--addr`; `--timeout-ms` is the per-operation socket
    /// timeout (0 blocks forever).
    fn connect(&self) -> Result<Client, String> {
        let timeout_ms: u64 = self.get("timeout-ms", 30_000)?;
        let timeout = (timeout_ms > 0).then(|| std::time::Duration::from_millis(timeout_ms));
        Client::connect_with_timeout(self.addr(), timeout).map_err(|e| e.to_string())
    }

    /// Reads the CSV at `path` under `--header` and `--id-column`. The
    /// header, if any, names the attributes: the id column's name is
    /// dropped from it as from every row.
    fn read_input(&self, path: &str) -> Result<(Option<Vec<String>>, Vec<Record>), String> {
        let id_column: Option<usize> = self.opt("id-column")?;
        let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
        let (mut header, records) = read_records(file, ',', self.has("header"), id_column)
            .map_err(|e| format!("{path}: {e}"))?;
        if let (Some(names), Some(col)) = (&mut header, id_column) {
            if col < names.len() {
                names.remove(col);
            }
        }
        Ok((header, records))
    }

    /// The flags of [`INDEX_SHAPE`] that were given: all a fresh index is
    /// built from.
    fn index_shape(&self) -> Flags {
        let shape = self
            .0
            .iter()
            .filter(|(key, _)| INDEX_SHAPE.contains(&key.as_str()));
        Flags(shape.map(|(k, v)| (k.clone(), v.clone())).collect())
    }

    /// The index shape: `--rule` under `--delta` and the backend of
    /// [`Self::blocking_mode`], with the blocking tables in memory. Only
    /// `serve` declares `--block-*`; it sets the store from
    /// [`Self::block_config`].
    fn linkage_config(&self) -> Result<LinkageConfig, String> {
        Ok(LinkageConfig {
            delta: self.get("delta", 0.1)?,
            mode: self.blocking_mode()?,
            rule: parse_rule(self.req("rule")?).map_err(|e| e.to_string())?,
            block: BlockStoreConfig::default(),
        })
    }

    /// Resolves `--blocking` + `--record-level` into a [`BlockingMode`].
    ///
    /// Default backend is random sampling (Definition 3); `--blocking
    /// covering` switches to the CoveringLSH backend with its
    /// zero-false-negative guarantee. Record-level covering takes its
    /// radius from `--record-level THETA` (a `:K` suffix is accepted and
    /// ignored — covering groups have no K parameter).
    fn blocking_mode(&self) -> Result<BlockingMode, String> {
        match (
            self.str("blocking").unwrap_or("random"),
            self.str("record-level"),
        ) {
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
    /// (`--block-cap-mode drop` makes the cap lossy), `--block-top-k`
    /// bounds distinct candidates per probe (truncated probes are flagged
    /// in reply notes).
    fn block_config(&self) -> Result<BlockStoreConfig, String> {
        let kind = match self.str("block-store") {
            None | Some("memory") => StoreKind::Memory,
            Some("mmap") => StoreKind::Mmap,
            Some(other) => return Err(format!("unknown block store {other:?} (memory|mmap)")),
        };
        let cap_mode = match self.str("block-cap-mode") {
            None | Some("chain") => CapMode::Chain,
            Some("drop") => CapMode::Drop,
            Some(other) => return Err(format!("unknown cap mode {other:?} (chain|drop)")),
        };
        Ok(BlockStoreConfig {
            kind,
            dir: self.str("block-dir").map(str::to_string),
            max_block_size: self.get("block-cap", 0)?,
            cap_mode,
            probe_top_k: self.get("block-top-k", 0)?,
        })
    }

    /// A schema fitted to the data: each attribute's c-vector sized from
    /// the first 10 000 records of `sets` (Theorem 1, ρ = 1, r = 1/3),
    /// with its K from the `--k` list (default 10 each).
    fn fitted_schema(&self, sets: &[&[Record]], rng: &mut StdRng) -> Result<RecordSchema, String> {
        let num_fields = sets[0][0].fields.len();
        let ks = self.list("k")?.unwrap_or_else(|| vec![10; num_fields]);
        if ks.len() != num_fields {
            return Err(format!(
                "--k has {} entries but records have {num_fields} attributes",
                ks.len()
            ));
        }
        let specs: Vec<AttributeSpec> = ks
            .iter()
            .enumerate()
            .map(|(f, &k)| {
                let sample = sets.iter().flat_map(|set| set.iter()).take(10_000);
                AttributeSpec::fitted(
                    format!("f{f}"),
                    2,
                    sample.map(|r| r.field(f)),
                    1.0,
                    1.0 / 3.0,
                    false,
                    k,
                )
            })
            .collect();
        Ok(RecordSchema::build(Alphabet::linkage(), specs, rng))
    }
}

/// A data-set pair drawn from `source`, with its attribute names.
fn generate_pair<S: RecordSource>(
    source: &S,
    config: PairConfig,
    rng: &mut StdRng,
) -> (DatasetPair, Vec<String>) {
    let names = source.attribute_names().iter().map(ToString::to_string);
    (DatasetPair::generate(source, config, rng), names.collect())
}

fn generate(flags: &Flags) -> Result<(), String> {
    let source = flags.req("source")?;
    let records: usize = flags.req_as("records")?;
    let scheme = match flags.req("scheme")? {
        "pl" => PerturbationScheme::Light,
        "ph" => PerturbationScheme::Heavy,
        other => return Err(format!("unknown scheme {other:?} (pl|ph)")),
    };
    let mut rng = flags.rng()?;
    let config = PairConfig::new(records, scheme);
    let (pair, header) = match source {
        "ncvr" => generate_pair(&NcvrSource, config, &mut rng),
        "dblp" => generate_pair(&DblpSource, config, &mut rng),
        other => return Err(format!("unknown source {other:?} (ncvr|dblp)")),
    };
    let io_err = |e: record_linkage::cbv_hb::Error| e.to_string();
    let create = |key: &str| -> Result<File, String> {
        let path = flags.req(key)?;
        File::create(path).map_err(|e| format!("cannot create {path}: {e}"))
    };
    write_records(create("out-a")?, &pair.a, Some(&header), ',').map_err(io_err)?;
    write_records(create("out-b")?, &pair.b, Some(&header), ',').map_err(io_err)?;
    if flags.has("out-truth") {
        let mut truth: Vec<(u64, u64)> = pair.ground_truth.iter().copied().collect();
        truth.sort_unstable();
        write_matches(create("out-truth")?, &truth).map_err(io_err)?;
    }
    eprintln!(
        "generated {} + {} records, {} true matches (seed {})",
        pair.a.len(),
        pair.b.len(),
        pair.ground_truth.len(),
        flags.seed()?
    );
    Ok(())
}

fn link(flags: &Flags) -> Result<(), String> {
    let out_path = flags.req("out")?;
    let threads: usize = flags.get("threads", 1)?;
    let (_, a) = flags.read_input(flags.req("a")?)?;
    let (_, b) = flags.read_input(flags.req("b")?)?;
    if a.is_empty() || b.is_empty() {
        return Err("both data sets must be non-empty".into());
    }
    let mut rng = flags.rng()?;
    let schema = flags.fitted_schema(&[&a, &b], &mut rng)?;
    let mut pipeline = LinkagePipeline::new(schema, flags.linkage_config()?, &mut rng)
        .map_err(|e| e.to_string())?;

    if flags.has("report") {
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

fn dedup(flags: &Flags) -> Result<(), String> {
    let out_path = flags.req("out")?;
    let (_, records) = flags.read_input(flags.req("input")?)?;
    if records.is_empty() {
        return Err("data set must be non-empty".into());
    }
    let mut rng = flags.rng()?;
    let schema = flags.fitted_schema(&[&records], &mut rng)?;
    let config = flags.linkage_config()?;
    let result = deduplicate(&schema, &config, &records, &mut rng).map_err(|e| e.to_string())?;
    // One cluster per line: semicolon-separated member ids.
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
fn serve(flags: &Flags) -> Result<(), String> {
    use record_linkage::repl::{Follower, FollowerConfig};
    use record_linkage::server::{DurabilityConfig, ReplRole, Snapshot, SyncPolicy};
    use std::path::PathBuf;
    use std::time::Duration;

    let shards = flags.get("shards", 4)?.max(1);
    let snapshot_path = flags.str("snapshot").map(PathBuf::from);
    let data_dir = flags.str("data-dir").map(PathBuf::from);
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
    let slow_ms = flags.get("slow-ms", 1_000)?;
    let replicate_from = flags.str("replicate-from");
    let allow_replicas = flags.has("allow-replicas");
    // Self-healing replication knobs (protocol v8). On a primary:
    // --lease-ms grants failover leases on heartbeats, --sync-replicas
    // holds mutation acks for N follower confirmations. On a follower:
    // --auto-failover runs an election when the lease expires, --peers
    // lists the other replicas it consults.
    let sync_replicas = flags.get("sync-replicas", 0)?;
    let auto_failover = flags.has("auto-failover");
    let peers: Vec<String> = flags
        .str("peers")
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
            let checkpoint_secs = flags.get("checkpoint-every", 60)?;
            // fsync cadence: 0 = fsync every append (safe default);
            // N > 0 = group commit, at most N ms of appends may be lost
            // to a power failure (a process crash alone loses nothing).
            let wal_sync_ms = flags.get("wal-sync-ms", 0)?;
            Some(DurabilityConfig {
                data_dir: dir.clone(),
                sync: match wal_sync_ms {
                    0 => SyncPolicy::Always,
                    ms => SyncPolicy::GroupCommit(Duration::from_millis(ms)),
                },
                checkpoint_every: (checkpoint_secs > 0)
                    .then(|| Duration::from_secs(checkpoint_secs)),
            })
        }
        None => None,
    };

    let config = ServerConfig {
        addr: flags.addr().to_string(),
        workers: flags.get("workers", 2)?,
        queue_capacity: flags.get("queue", 64)?,
        snapshot_path: snapshot_path.clone(),
        slow_request_threshold: (slow_ms > 0).then(|| Duration::from_millis(slow_ms)),
        durability,
        repl_role: if allow_replicas {
            ReplRole::Primary
        } else {
            ReplRole::Standalone
        },
        max_subscriptions: flags.get("max-subscriptions", 64)?.max(1),
        lease_ms: flags.get("lease-ms", 0)?,
        sync_replicas,
        quorum_timeout: Duration::from_millis(flags.get("quorum-timeout-ms", 2_000)?.max(1)),
    };
    let shape = flags.index_shape();

    // Follower mode: the data directory is seeded from the primary's
    // checkpoint (index shape included), so --rule/--fields are not
    // needed; the node serves reads and redirects mutations.
    if let (Some(primary), Some(dir)) = (replicate_from, &data_dir) {
        let mut follower_config = FollowerConfig::new(primary.to_string(), config);
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
        let built = std::cell::Cell::new(false);
        let fresh = || {
            built.set(true);
            build_serve_pipeline(&shape, shards).map_err(std::io::Error::other)
        };
        let server = Server::spawn_durable(fresh, config)
            .map_err(|e| format!("cannot start server: {e}"))?;
        if !built.get() {
            warn_shape_ignored(
                &shape,
                &format!("the checkpoint in {}", dir.display()),
                "start on an empty data dir to rebuild with new flags",
            );
        }
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
    let (server, shard_count) = match &snapshot_path {
        Some(path) if path.exists() => {
            warn_shape_ignored(
                &shape,
                &format!("the restored snapshot {}", path.display()),
                "delete the file to rebuild with new flags",
            );
            let snap = Snapshot::load(path).map_err(|e| e.to_string())?;
            let shard_count = snap.state.shards.len();
            eprintln!(
                "restored snapshot {} ({} records, {shard_count} shards)",
                path.display(),
                snap.state.indexed,
            );
            (Server::spawn_restored(snap, config), shard_count)
        }
        _ => (
            Server::spawn(build_serve_pipeline(&shape, shards)?, config),
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

/// A restored index — a snapshot's, or a data dir's checkpoint — carries its
/// full topology and embedding config, so the index-shape flags given
/// (`shape`) are ignored: says so, naming them, `source` and how to
/// `rebuild`, instead of silently serving an old configuration.
fn warn_shape_ignored(shape: &Flags, source: &str, rebuild: &str) {
    let ignored: Vec<String> = INDEX_SHAPE
        .iter()
        .filter(|name| shape.has(name))
        .map(|name| format!("--{name}"))
        .collect();
    if !ignored.is_empty() {
        eprintln!(
            "warning: {} ignored; configuration comes from {source} ({rebuild})",
            ignored.join(", ")
        );
    }
}

/// Builds a fresh sharded index from the index-shape flags `shape`. Used
/// when no snapshot or checkpoint exists to restore from. Every attribute
/// gets a c-vector of `--m-bits` bits and the one K of `--k` (default 5).
fn build_serve_pipeline(shape: &Flags, shards: usize) -> Result<ShardedPipeline, String> {
    let mut config = shape.linkage_config()?;
    config.block = shape.block_config()?;
    let fields: usize = shape.req_as("fields")?;
    if fields == 0 {
        return Err("--fields must be positive".into());
    }
    let m_bits = shape.get("m-bits", 64)?;
    let k = shape.get("k", 5)?;
    let mut rng = shape.rng()?;
    let specs: Vec<AttributeSpec> = (0..fields)
        .map(|f| AttributeSpec::new(format!("f{f}"), 2, m_bits, false, k))
        .collect();
    let schema = RecordSchema::build(Alphabet::linkage(), specs, &mut rng);
    ShardedPipeline::new(schema, config, shards, &mut rng).map_err(|e| e.to_string())
}

/// Promotes a follower to primary: syncs its applied tail, flips the
/// role, and rotates to a fresh WAL segment. Idempotent on a node that is
/// already primary. Run this only after confirming the follower's lag is
/// 0 (`rl client --cmd repl-status`) — or accept losing the unshipped
/// tail; see the failover runbook in docs/REPLICATION.md.
fn promote(flags: &Flags) -> Result<(), String> {
    let addr = flags.addr();
    let mut client = flags.connect()?;
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
fn reshard(flags: &Flags) -> Result<(), String> {
    use record_linkage::server::ReshardOp;

    let source = flags.req_as("source")?;
    let op = match flags.req("mode")? {
        "split" => ReshardOp::Split { source },
        "merge" => ReshardOp::Merge {
            source,
            target: flags.req_as("target")?,
        },
        other => return Err(format!("unknown --mode {other:?} (split|merge)")),
    };
    let mut client = flags.connect()?;

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

/// Prints a reply serialized as JSON on one stdout line.
fn print_json(json: serde_json::Result<String>) -> Result<(), String> {
    println!("{}", json.map_err(|e| e.to_string())?);
    Ok(())
}

/// One-shot protocol client: connects, issues a single command, prints the
/// reply as JSON on stdout (matches as CSV with --out). `watch` is the
/// exception: it holds the connection open as a match-subscription stream
/// (protocol v6) and prints one line per `MatchEvent`.
fn client(flags: &Flags) -> Result<(), String> {
    use record_linkage::server::{LateArrival, WatchEvent};

    let cmd = flags.req("cmd")?;
    let mut client = flags.connect()?;
    let input = || -> Result<Vec<Record>, String> { Ok(flags.read_input(flags.req("input")?)?.1) };

    match cmd {
        "stats" => {
            let stats = client.stats().map_err(|e| e.to_string())?;
            print_json(serde_json::to_string(&stats))?;
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
            if flags.has("prometheus") {
                print!("{}", record_linkage::obs::encode_prometheus(&snapshot));
            } else {
                print_metrics_human(&snapshot);
            }
        }
        "dedup-status" => {
            let clusters = client.dedup_status().map_err(|e| e.to_string())?;
            print_json(serde_json::to_string(&clusters))?;
        }
        "shard-map" => {
            let map = client.shard_map().map_err(|e| e.to_string())?;
            print_json(serde_json::to_string(&map))?;
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
            print_json(serde_json::to_string(&status))?;
        }
        "repl-status" => {
            let status = client.repl_status().map_err(|e| e.to_string())?;
            print_json(serde_json::to_string(&status))?;
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
                .snapshot(flags.str("path"))
                .map_err(|e| e.to_string())?;
            eprintln!("snapshot written to {path}");
        }
        "index" => {
            let (accepted, total) = client.index(&input()?).map_err(|e| e.to_string())?;
            eprintln!("indexed {accepted} records ({total} total)");
        }
        "insert" => {
            let (accepted, total) = client.insert(&input()?).map_err(|e| e.to_string())?;
            eprintln!("inserted {accepted} records durably ({total} total)");
        }
        "delete" => {
            let ids: Vec<u64> = flags.list("ids")?.ok_or_else(|| missing("ids"))?;
            let (removed, total) = client.delete(&ids).map_err(|e| e.to_string())?;
            eprintln!(
                "deleted {removed} of {} ids ({total} remain indexed)",
                ids.len()
            );
        }
        "probe" => {
            let records = input()?;
            let (pairs, stats) = client.probe(&records).map_err(|e| e.to_string())?;
            match flags.str("out") {
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
            let records = input()?;
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
            let rule = flags.req("rule")?;
            let window = match (flags.opt("window")?, flags.opt("window-ms")?) {
                (Some(_), Some(_)) => {
                    return Err("--window and --window-ms are mutually exclusive".into())
                }
                (Some(n), None) => WindowSpec::Count(n),
                (None, Some(ms)) => WindowSpec::TimeMs(ms),
                (None, None) => WindowSpec::Count(1024),
            };
            let late = match flags.str("late") {
                None | Some("apply") => LateArrival::ApplyIfInWindow,
                Some("drop") => LateArrival::Drop,
                Some(other) => return Err(format!("unknown --late policy {other:?} (drop|apply)")),
            };
            // Stop after N events (0 = watch until the stream ends).
            let limit: u64 = flags.get("limit", 0)?;
            let (sub_id, tables) = client
                .subscribe_matches(rule, window, late, flags.get("cap", 0)?)
                .map_err(|e| e.to_string())?;
            eprintln!("subscribed {sub_id}: plan probes {tables} tables; Ctrl-C to stop");
            let mut seen = 0u64;
            loop {
                // A watch runs until `--limit` events or Ctrl-C: no event
                // deadline; a dead server still fails the socket timeout.
                match client.next_watch_event(None).map_err(|e| e.to_string())? {
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
fn calibrate(flags: &Flags) -> Result<(), String> {
    use rand::RngExt;
    use record_linkage::cbv_hb::cvector::optimal_m;
    use record_linkage::cbv_hb::schema::measure_b;
    use record_linkage::lsh::params::{
        base_success_probability, estimate_p_dissimilar, optimal_l, KCostModel,
    };

    let theta: u32 = flags.get("theta", 4)?;
    let delta: f64 = flags.get("delta", 0.1)?;
    let mut rng = flags.rng()?;
    let (header, records) = flags.read_input(flags.req("input")?)?;
    if records.is_empty() {
        return Err("data set must be non-empty".into());
    }

    println!("records: {}", records.len());
    println!("\nper-attribute sizing (ρ = 1, r = 1/3, unpadded bigrams):");
    let mut ms = Vec::new();
    for f in 0..records[0].fields.len() {
        let b = measure_b(records.iter().take(10_000).map(|r| r.field(f)), 2, false);
        let m = optimal_m(b, 1.0, 1.0 / 3.0);
        ms.push(m);
        let name = header
            .as_ref()
            .and_then(|names| names.get(f))
            .cloned()
            .unwrap_or_else(|| format!("f{f}"));
        println!("  {name:<16} b = {b:>6.1}   m_opt = {m:>4} bits");
    }
    let m_total: usize = ms.iter().sum();
    println!("record-level c-vector: {m_total} bits");

    // Estimate p_dissimilar by embedding a sample and measuring distances.
    let specs: Vec<AttributeSpec> = ms
        .iter()
        .enumerate()
        .map(|(f, &m)| AttributeSpec::new(format!("f{f}"), 2, m, false, 10))
        .collect();
    let schema = RecordSchema::build(Alphabet::linkage(), specs, &mut rng);
    let sample = &records[..records.len().min(500)];
    let mut rows = Vec::new();
    schema
        .embed_rows(sample, &mut rows)
        .map_err(|e| e.to_string())?;
    let layout = schema.layout();
    let row = |i: usize| &rows[i * layout.words()..(i + 1) * layout.words()];
    let mut dists = Vec::new();
    for _ in 0..2_000.min(sample.len() * sample.len()) {
        let i = rng.random_range(0..sample.len());
        let j = rng.random_range(0..sample.len());
        if i != j {
            dists.push(layout.total_distance(row(i), row(j)));
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

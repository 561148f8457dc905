//! The engine surface the frozen benchmark compiles against.
//!
//! `benchmark/` is a package of its own (its own `[workspace]`), so
//! `cargo test` passes on a tree its `cargo build` would reject, and nothing
//! under `benchmark/` may change in a PR that is not a benchmark PR. This
//! file names every item of the workspace's crates that
//! `benchmark/src/{trace,batch,child,serve,mixed,durable,workload}.rs`
//! import, and calls each with the argument and return types used there, so
//! that tier-1 fails where the benchmark's build would. The types are
//! written out on purpose: inference must not paper over a changed
//! signature.
//!
//! This list shrinks in the PR that moves the benchmark's trace onto a
//! facade (ROADMAP, "Unfreeze the right things"): `RecordStore`,
//! `EmbeddedRecord { attrs }`, the `&EmbeddedRecord` adapters of
//! `BlockingPlan` / `BlockingStructure` / `Classifier`,
//! `Client::{connect_binary_with_timeout, index}`, the `ServerConfig` fields
//! and `ShardedPipeline::shutdown` are kept only because they are named
//! here and there.

use cbv_hb::blocking::{BlockingPlan, BlockingStructure};
use cbv_hb::matcher::{Classifier, MatchStats, RecordStore};
use cbv_hb::pipeline::{BlockingMode, LinkageConfig, LinkagePipeline};
use cbv_hb::{AttributeSpec, EmbeddedRecord, Record, RecordSchema, Rule, ShardedPipeline};
use rand::rngs::StdRng;
use rand::SeedableRng;
use record_linkage::cbv_hb;
use record_linkage::datagen::{
    DatasetPair, NcvrSource, PairConfig, PerturbationScheme, RecordSource,
};
use record_linkage::server as rl_server;
use record_linkage::textdist::Alphabet;
use record_linkage::{bitvec as rl_bitvec, lsh as rl_lsh, obs as rl_obs};
use rl_bitvec::BitVec;
use rl_blockstore::TableSet;
use rl_lsh::{BitSampleFamily, BitSampler, CoveringFamily};
use rl_server::client::{Client, ClientError};
use rl_server::protocol::{truncation_notes, wire, Reply, Request, Response, PROTOCOL_VERSION};
use rl_server::server::{DurabilityConfig, Server, ServerConfig};
use rl_store::{Store, StoreError, StoreOptions, SyncPolicy, WalOp};
use rl_wire::FrameReader;
use std::net::SocketAddr;
use std::time::Duration;

fn c1() -> Rule {
    Rule::and([Rule::pred(0, 4), Rule::pred(1, 4), Rule::pred(2, 8)])
}

#[test]
fn every_engine_item_the_benchmark_names_still_has_its_shape() {
    // ---- workload.rs: data, schema, the three configurations ---------------
    let mut rng = StdRng::seed_from_u64(42);
    let cfg: PairConfig = PairConfig::new(60, PerturbationScheme::Light).with_duplicates(0.1);
    let pair: DatasetPair = DatasetPair::generate(&NcvrSource, cfg, &mut rng);
    let (a, b): (&Vec<Record>, &Vec<Record>) = (&pair.a, &pair.b);
    let _: Vec<(u64, u64)> = pair.ground_truth.iter().map(|&(a, b)| (b, a)).collect();
    let sample: Vec<Record> = NcvrSource.sample_many(200, &mut rng);
    let specs: Vec<AttributeSpec> = (0..4)
        .map(|f| {
            let values = sample.iter().map(|r| r.field(f));
            AttributeSpec::fitted(format!("f{f}"), 2, values, 1.0, 1.0 / 3.0, false, 5)
        })
        .collect();
    let schema: RecordSchema = RecordSchema::build(Alphabet::linkage(), specs, &mut rng);
    let configs: [LinkageConfig; 3] = [
        LinkageConfig::record_level(c1(), 4, 30),
        LinkageConfig::rule_aware(c1()),
        LinkageConfig::covering(c1(), 4),
    ];
    let _: Record = Record::new(7, a[0].fields.iter().cloned());
    let _: (u64, &String) = (a[0].id, &a[0].fields[0]);

    // ---- batch.rs: the pipeline under test ---------------------------------
    let mut pipeline: LinkagePipeline =
        LinkagePipeline::new(schema.clone(), configs[0].clone(), &mut rng).unwrap();
    let indexed: Result<(), cbv_hb::Error> = pipeline.index(&a[..50]);
    indexed.unwrap();
    let result = pipeline.link(&b[..10]).unwrap();
    let (_, _): (u64, u64) = (result.stats.candidates, result.stats.matched);
    let _: Vec<(u64, u64)> = result.matches;
    pipeline.link(std::slice::from_ref(&b[0])).unwrap();
    let unpacked: EmbeddedRecord = schema.embed(&a[0]).unwrap();
    let _: u32 = unpacked.total_distance(&schema.embed(&b[0]).unwrap());

    // ---- trace.rs: the layers replayed from outside ------------------------
    for config in &configs {
        let mut plan: BlockingPlan = BlockingPlan::from_config(&schema, config, &mut rng).unwrap();
        let mut store: RecordStore = RecordStore::new();
        let embedded: Vec<EmbeddedRecord> = schema.embed_all(&a[..50]).unwrap();
        for rec in &embedded {
            plan.insert(rec);
        }
        for rec in embedded {
            store.insert(rec);
        }
        let structure: &BlockingStructure = &plan.structures()[0];
        let l: usize = structure.l();
        let _: usize = structure.stats().p99_bucket();
        let _: Vec<usize> = structure.conjuncts().iter().map(|c| c.attr).collect();
        let mut tables: TableSet = TableSet::memory(l);
        structure.for_each_entry(|table: usize, key: u128, ids: &[u64]| {
            for &id in ids {
                let _: bool = tables.insert(table, key, id);
            }
        });
        let probe: EmbeddedRecord = schema.embed(&b[0]).unwrap();
        let mut keys: Vec<u128> = Vec::new();
        structure.keys_into(&probe, &mut keys);
        let mut bucket: Vec<u64> = Vec::new();
        tables.probe_into(0, keys[0], &mut bucket);
        let (candidates, _): (Vec<u64>, bool) =
            plan.candidates_verified_counted(&probe, |id| store.get(id));
        let retrieved: Vec<&EmbeddedRecord> =
            candidates.iter().filter_map(|&id| store.get(id)).collect();
        let classifier: Classifier = Classifier::Rule(config.rule.clone());
        for a in &retrieved {
            let _: (bool, u64) = (classifier.matches(a, &probe), a.id);
        }
        let _: Vec<&BitVec> = probe.attrs.iter().collect::<Vec<&BitVec>>();
        match config.mode {
            BlockingMode::RecordLevel { k, .. } => {
                let _: u32 = k;
            }
            BlockingMode::Covering { theta } => {
                let _: u32 = theta;
            }
            BlockingMode::RuleAware => {}
            _ => unreachable!(),
        }
    }
    // The hash families the replay draws again, and their reference keys.
    let probe: EmbeddedRecord = schema.embed(&b[0]).unwrap();
    let refs: Vec<&BitVec> = probe.attrs.iter().collect();
    let m: usize = schema.total_size();
    let family: Result<BitSampleFamily, rl_lsh::FamilyError> =
        BitSampleFamily::random(m, 30, 6, &mut rng);
    let family = family.unwrap();
    let _: usize = family.l();
    let _: Vec<u128> = (family.samplers().iter())
        .map(|s| s.key_concat(&refs))
        .collect();
    let covering: CoveringFamily = CoveringFamily::random(m, 4, &mut rng).unwrap();
    let _: usize = covering.l();
    let _: Vec<u128> = (covering.groups().iter())
        .map(|g| g.key_concat(&refs))
        .collect();
    let spec: &AttributeSpec = &schema.specs()[0];
    let sampler: BitSampler = BitSampler::random(spec.m, spec.k as usize, &mut rng).unwrap();
    let _: (u128, usize) = (sampler.key(&probe.attrs[0]), sampler.k());
    for (e, field) in schema.embedders().iter().zip(&b[0].fields) {
        std::hint::black_box(e.qgram_set(field));
        let _: BitVec = e.embed(field);
    }

    // ---- trace.rs / child.rs: the sharded engine ---------------------------
    let sharded: Result<ShardedPipeline, cbv_hb::Error> =
        ShardedPipeline::new(schema.clone(), configs[0].clone(), 2, &mut rng);
    let mut sharded = sharded.unwrap();
    sharded.index(&a[..50]).unwrap();
    let (_, _): (Vec<(u64, u64)>, MatchStats) = sharded.link(&b[..1]).unwrap();
    let _: usize = sharded.delete(&[a[0].id]).unwrap();
    sharded.shutdown();

    // ---- trace.rs: the codecs ----------------------------------------------
    let request: Request = Request::Probe {
        records: vec![b[0].clone()],
    };
    let stats = MatchStats {
        matched: 1,
        ..MatchStats::default()
    };
    let response: Response = Response::Ok(Reply::Matches {
        pairs: vec![(1, 2)],
        notes: truncation_notes(&stats),
        stats,
    });
    let (mut payload, mut frame): (Vec<u8>, Vec<u8>) = (Vec::new(), Vec::new());
    let encoded: Result<(), String> = wire::encode_request(1, &request, &mut payload);
    encoded.unwrap();
    let _: (u64, Request) = wire::decode_request(&payload).unwrap();
    rl_wire::encode_frame_into(wire::TAG_REQUEST, &payload, &mut frame);
    let peeked = rl_wire::peek_frame(&frame, rl_wire::DEFAULT_MAX_FRAME).unwrap();
    let (_, body, _) = peeked.expect("a whole frame");
    let header: &[u8; rl_wire::HEADER_LEN] = frame[..rl_wire::HEADER_LEN].try_into().unwrap();
    std::hint::black_box(rl_wire::verify_frame(header, body).unwrap());
    wire::encode_response(1, &response, &mut payload).unwrap();
    let _: (u64, Response) = wire::decode_response(&payload).unwrap();
    let _: u8 = wire::TAG_RESPONSE;
    let upgrade: Request = Request::Upgrade {
        max_version: PROTOCOL_VERSION,
    };
    assert!(!matches!(
        Response::Ok(Reply::ShuttingDown),
        Response::Ok(Reply::Upgraded { .. })
    ));
    let _ = (upgrade, FrameReader::<std::net::TcpStream>::new);

    // ---- trace.rs: the WAL on its own --------------------------------------
    let dir = std::env::temp_dir().join(format!("rl-test-surface-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("wal")).unwrap();
    let options: StoreOptions = StoreOptions {
        sync: SyncPolicy::GroupCommit(Duration::from_millis(5)),
    };
    let opened: Result<(Store, rl_store::Recovery), StoreError> =
        Store::open(&dir.join("wal"), options);
    let (mut store, recovery) = opened.unwrap();
    let _: u64 = recovery.report.replayed_ops;
    store.append(&WalOp::Insert(a[0].clone())).unwrap();
    store.sync().unwrap();
    let _: u64 = store.wal_bytes();
    drop(store);

    // ---- child.rs / serve.rs / mixed.rs / durable.rs: the served engine ----
    let (plan_schema, plan_config) = (schema.clone(), configs[0].clone());
    let fresh = move || {
        let mut rng = StdRng::seed_from_u64(7);
        ShardedPipeline::new(plan_schema, plan_config, 2, &mut rng).map_err(std::io::Error::other)
    };
    let mut server_config: ServerConfig = ServerConfig {
        workers: 2,
        queue_capacity: 1024,
        slow_request_threshold: None,
        ..ServerConfig::default()
    };
    server_config.durability = Some(DurabilityConfig {
        data_dir: dir.join("server"),
        sync: SyncPolicy::GroupCommit(Duration::from_millis(5)),
        checkpoint_every: None,
    });
    let server: Server = Server::spawn_durable(fresh, server_config).unwrap();
    let addr: SocketAddr = server.local_addr();
    let connected: Result<Client, ClientError> =
        Client::connect_binary_with_timeout(addr, Some(Duration::from_secs(10)));
    let mut client = connected.unwrap();
    let sent: Result<(usize, usize), ClientError> = client.insert(&a[..20]);
    assert!(matches!(sent, Ok((20, _))));
    assert!(matches!(client.index(&a[20..40]), Ok((20, _))));
    let (_, _): (Vec<(u64, u64)>, MatchStats) = client.probe(&b[..1]).unwrap();
    let calls: Vec<Vec<Record>> = vec![b[..4].to_vec(), b[4..8].to_vec()];
    client.probe_pipelined(&calls, 2).unwrap();
    assert!(matches!(client.delete(&[a[0].id]), Ok((1, _))));
    let _: u64 = client.stats().unwrap().rejected_backpressure;
    let snapshot: rl_obs::MetricsSnapshot = client.metrics().unwrap();
    let waits = snapshot
        .histogram_data("rl_request_queue_wait_seconds", Some("probe"))
        .expect("the pipelined probes were queued");
    let _: (u64, u64, u64) = (waits.data.count, waits.data.sum, waits.data.quantile(0.5));
    let _: Option<&(u32, u64)> = waits.data.buckets.first();
    client.shutdown().unwrap();
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

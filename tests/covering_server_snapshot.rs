//! Snapshot lifecycle for a covering-backend server: snapshot → restart →
//! byte-identical probe answers, Stats reporting the active backend, and
//! clear rejection of pre-backend (version 1) snapshot files.

mod common;

use common::{pipeline_with, server_config};
use record_linkage::cbv_hb::pipeline::BlockingMode;
use record_linkage::cbv_hb::sharded::ShardedPipeline;
use record_linkage::cbv_hb::Record;
use record_linkage::server::{Client, Server, ServerConfig, Snapshot, SnapshotError};

fn covering_pipeline(seed: u64, shards: usize) -> ShardedPipeline {
    pipeline_with(seed, shards, |config| {
        config.mode = BlockingMode::CoveringRuleAware;
    })
}

fn records(base: u64) -> Vec<Record> {
    [
        ("JOHN", "SMITH"),
        ("MARY", "JONES"),
        ("AGNES", "WINTERBOTTOM"),
        ("GERTRUDE", "KOWALCZYK"),
        ("HORACE", "FITZWILLIAM"),
    ]
    .iter()
    .enumerate()
    .map(|(i, (f, l))| Record::new(base + i as u64, [*f, *l]))
    .collect()
}

#[test]
fn covering_server_snapshot_roundtrip_answers_identically() {
    let dir = std::env::temp_dir().join("rl-covering-snap-roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let snap_path = dir.join("index.snap");
    let _ = std::fs::remove_file(&snap_path);

    let config = ServerConfig {
        snapshot_path: Some(snap_path.clone()),
        ..server_config(2, 16)
    };
    let server = Server::spawn(covering_pipeline(31, 2), config.clone()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    client.index(&records(0)).unwrap();
    // Probes: exact copies plus dirty variants within the rule thresholds.
    let mut probes = records(1000);
    probes.push(Record::new(2000, ["JON", "SMITH"]));
    probes.push(Record::new(2001, ["MARIE", "JONES"]));
    let (pairs_before, _) = client.probe(&probes).unwrap();
    for i in 0..5u64 {
        assert!(
            pairs_before.contains(&(i, 1000 + i)),
            "covering blocking missed exact copy {i}"
        );
    }

    // Stats must report the covering backend on every structure.
    let stats = client.stats().unwrap();
    assert!(!stats.blocking.is_empty());
    for s in &stats.blocking {
        assert_eq!(s.backend, "covering", "structure {}", s.label);
        assert!(s.l >= 1);
        assert!(s.key_bits >= 1);
        assert!(s.buckets >= 1, "index is populated");
    }

    client.snapshot(None).unwrap();
    client.shutdown().unwrap();
    server.wait();

    // Restore: the covering families (labels and groups) travel through
    // the snapshot, so the restarted server must answer identically.
    let snap = Snapshot::load(&snap_path).unwrap();
    let server2 = Server::spawn_restored(
        snap,
        ServerConfig {
            snapshot_path: None,
            ..config
        },
    )
    .unwrap();
    let mut client2 = Client::connect(server2.local_addr()).unwrap();
    let (pairs_after, _) = client2.probe(&probes).unwrap();
    assert_eq!(
        pairs_before, pairs_after,
        "probe answers changed on restore"
    );
    let stats2 = client2.stats().unwrap();
    assert!(stats2.blocking.iter().all(|s| s.backend == "covering"));
    client2.shutdown().unwrap();
    server2.wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn version_1_snapshot_is_rejected_with_backend_explanation() {
    let dir = std::env::temp_dir().join("rl-covering-snap-v1");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("old.snap");

    // Forge a version-1 file from a current state; the loader must reject
    // it with a message explaining that the format predates the current
    // index layout, not a generic failure.
    let p = covering_pipeline(32, 1);
    let state = p.export_state().unwrap();
    let mut snap = Snapshot::new(state, vec![], 0).unwrap();
    snap.version = 1;
    snap.save(&path).unwrap();
    match Snapshot::load(&path) {
        Err(SnapshotError::Format { msg, .. }) => {
            assert!(msg.contains("unsupported version 1"), "{msg}");
            assert!(msg.contains("predates the pluggable block store"), "{msg}");
        }
        other => panic!("expected a format error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

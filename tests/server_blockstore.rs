//! Disk-resident blocking over the wire: a server whose blocking tables
//! live in an mmap-backed store must answer probes identically to the
//! in-memory store, report the storage backend through `Stats`, survive
//! a snapshot → restart cycle even when the blockstore directory is
//! destroyed (rebuild from the record store), and surface bounded-probe
//! truncation in `MatchStats`. Only a durable server over the mmap store
//! runs the background compactor.

mod common;

use common::{
    durable_config, fresh_dir, mmap_pipeline, pipeline, pipeline_with, server_config, stop,
    wait_for,
};
use record_linkage::cbv_hb::sharded::ShardedPipeline;
use record_linkage::cbv_hb::Record;
use record_linkage::server::{Client, ReplRole, Server, Snapshot};
use std::time::Duration;

fn records(base: u64) -> Vec<Record> {
    [
        ("JOHN", "SMITH"),
        ("MARY", "JONES"),
        ("AGNES", "WINTERBOTTOM"),
        ("GERTRUDE", "KOWALCZYK"),
        ("HORACE", "FITZWILLIAM"),
        ("BEATRIX", "OYELARAN"),
        ("CUTHBERT", "MARCHETTI"),
    ]
    .iter()
    .enumerate()
    .map(|(i, (f, l))| Record::new(base + i as u64, [*f, *l]))
    .collect()
}

fn probes() -> Vec<Record> {
    let mut probes = records(1000);
    probes.push(Record::new(2000, ["JON", "SMITH"]));
    probes.push(Record::new(2001, ["MARIE", "JONES"]));
    probes
}

/// Indexes four records into `p` and seals them (for mmap: into a
/// generation file, read through the mapping), serves it, indexes the
/// other three over the wire (into the delta overlay), probes across
/// both, and returns (pairs, blocking stats) after a clean shutdown.
fn serve_and_probe(
    mut p: ShardedPipeline,
) -> (
    Vec<(u64, u64)>,
    Vec<record_linkage::cbv_hb::blocking::StructureStats>,
) {
    let corpus = records(0);
    p.index(&corpus[..4]).unwrap();
    p.compact_stores().unwrap();
    let server = Server::spawn(p, server_config(2, 16)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.index(&corpus[4..]).unwrap();
    let (pairs, _) = client.probe(&probes()).unwrap();
    let stats = client.stats().unwrap().blocking;
    client.shutdown().unwrap();
    server.wait();
    (pairs, stats)
}

#[test]
fn mmap_server_answers_identically_to_memory_and_reports_store() {
    let dir = fresh_dir("blockstore-wire");

    let (mem_pairs, mem_stats) = serve_and_probe(pipeline(71, 2));
    let (mmap_pairs, mmap_stats) = serve_and_probe(mmap_pipeline(71, 2, &dir));

    assert_eq!(
        mem_pairs, mmap_pairs,
        "mmap-backed blocking changed probe answers"
    );
    for i in 0..7u64 {
        assert!(
            mmap_pairs.contains(&(i, 1000 + i)),
            "blocking missed exact copy {i}"
        );
    }
    assert!(!mmap_stats.is_empty());
    for s in &mem_stats {
        assert_eq!(s.store, "memory", "structure {}", s.label);
    }
    for s in &mmap_stats {
        assert_eq!(s.store, "mmap", "structure {}", s.label);
        // The log2 occupancy histogram rides along in Stats; a populated
        // index must report at least one live bucket and a sane p99.
        assert!(s.size_histogram.iter().sum::<u64>() > 0, "{}", s.label);
        assert!(s.p99_bucket() <= s.max_bucket, "{}", s.label);
    }
    assert!(
        mmap_stats.iter().map(|s| s.on_disk_bytes).sum::<u64>() > 0,
        "the compared probes never touched a sealed generation"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_restore_rebuilds_destroyed_blockstore() {
    let dir = fresh_dir("blockstore-rebuild");
    let snap_dir = fresh_dir("blockstore-rebuild-snap");
    let snap_path = snap_dir.join("index.snap");

    let mut p = mmap_pipeline(72, 2, &dir);
    p.index(&records(0)).unwrap();
    let (pairs_before, _) = p.link(&probes()).unwrap();
    // Seal a generation so the tables are genuinely disk-resident before
    // the snapshot is cut.
    p.compact_stores().unwrap();
    let state = p.export_state().unwrap();
    drop(p);
    Snapshot::new(state, vec![], 0)
        .unwrap()
        .save(&snap_path)
        .unwrap();

    // Destroy the blockstore directory: the snapshot's table state is now
    // unrecoverable from disk, so the restore path must rebuild every
    // table from the embedded record store (same hash draws → same keys).
    std::fs::remove_dir_all(&dir).unwrap();
    let snap = Snapshot::load(&snap_path).unwrap();
    let server2 = Server::spawn_restored(snap, server_config(2, 16)).unwrap();
    let mut client2 = Client::connect(server2.local_addr()).unwrap();
    let (pairs_after, _) = client2.probe(&probes()).unwrap();
    assert_eq!(
        pairs_before, pairs_after,
        "probe answers changed after blockstore rebuild"
    );
    // The rebuild reseals a generation, so the store is disk-resident
    // again — not silently degraded to memory.
    let stats = client2.stats().unwrap().blocking;
    assert!(stats.iter().all(|s| s.store == "mmap"));
    assert!(
        stats.iter().map(|s| s.on_disk_bytes).sum::<u64>() > 0,
        "rebuild left no sealed generation on disk"
    );
    client2.shutdown().unwrap();
    server2.wait();
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&snap_dir).unwrap();
}

#[test]
fn bounded_probe_reports_truncation_in_match_stats() {
    let p = pipeline_with(73, 1, |config| config.block.probe_top_k = 1);
    let server = Server::spawn(p, server_config(1, 16)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // Five copies of the same name land in the same buckets; a top-1
    // probe bound must cut the candidate list and say so.
    let dupes: Vec<Record> = (0..5).map(|i| Record::new(i, ["JOHN", "SMITH"])).collect();
    client.index(&dupes).unwrap();
    let (pairs, stats) = client
        .probe(&[Record::new(100, ["JOHN", "SMITH"])])
        .unwrap();
    assert_eq!(pairs.len(), 1, "top-1 bound must leave one candidate");
    assert!(
        stats.truncated >= 1,
        "bounded probe did not report truncation: {stats:?}"
    );
    client.shutdown().unwrap();
    server.wait();
}

/// Serves `p` durably with a 50 ms checkpoint cadence, indexes the corpus
/// again at every poll (the checkpointer skips a cadence with nothing
/// logged since its last checkpoint), and returns `rl_compactions_total`
/// once `ready` holds of `(checkpoints, compactions)`.
fn compactions_once(p: ShardedPipeline, ready: impl Fn(u64, u64) -> bool) -> u64 {
    let data = fresh_dir(&format!(
        "blockstore-compactor-{}",
        p.blocking_stats()[0].store
    ));
    let mut config = durable_config(&data, ReplRole::Standalone);
    if let Some(durability) = config.durability.as_mut() {
        durability.checkpoint_every = Some(Duration::from_millis(50));
    }
    let server = Server::spawn_durable(move || Ok(p), config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut base = 0;
    let compactions = wait_for("the background loops", || {
        client.insert(&records(base)).unwrap();
        base += 100;
        let m = client.metrics().unwrap();
        let count = |name| m.counter_value(name, None).unwrap_or(0);
        let (checkpoints, compactions) =
            (count("rl_checkpoints_total"), count("rl_compactions_total"));
        ready(checkpoints, compactions).then_some(compactions)
    });
    stop(server, [client]);
    let _ = std::fs::remove_dir_all(&data);
    compactions
}

#[test]
fn only_a_disk_store_is_compacted_in_the_background() {
    let dir = fresh_dir("blockstore-compactor-tables");
    let compacted = compactions_once(mmap_pipeline(74, 2, &dir), |_, compactions| compactions > 0);
    assert!(compacted > 0);
    // Three checkpoints span three cadences: a compactor on the same
    // cadence would have swept at least twice.
    let compacted = compactions_once(pipeline(74, 2), |checkpoints, _| checkpoints >= 3);
    assert_eq!(compacted, 0, "a memory store was compacted");
    let _ = std::fs::remove_dir_all(&dir);
}

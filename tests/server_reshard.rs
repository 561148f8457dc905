//! Online resharding over the wire (protocol v10): a live split of a
//! populated mmap-backed shard under concurrent insert/probe load must
//! preserve the exact match relation of an unsharded oracle and lose no
//! acknowledged write across the cutover; a SIGKILL mid-migration must
//! recover to exactly one of the two legal states (migration never
//! happened, or the committed cutover replayed); and a merge must drain
//! its source shard without changing any probe answer.

mod common;

use common::{
    fresh_dir, gauge, mmap_pipeline, pipeline, records, server_config, spawn_rl_serve, wait_for,
};
use record_linkage::cbv_hb::Record;
use record_linkage::server::{Client, ReshardOp, Server};
use std::time::{Duration, Instant};

/// Probes `all` against the server under fresh probe ids and returns the
/// sorted (indexed, probe) relation.
fn wire_relation(client: &mut Client, all: &[Record]) -> Vec<(u64, u64)> {
    let probes: Vec<Record> = all
        .iter()
        .map(|r| Record::new(100_000 + r.id, r.fields.iter().cloned()))
        .collect();
    let (mut pairs, _) = client.probe(&probes).unwrap();
    pairs.sort_unstable();
    pairs
}

/// FNV-1a over the sorted pair list — the match-relation hash the
/// acceptance criterion compares across topologies.
fn relation_hash(pairs: &[(u64, u64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(a, b) in pairs {
        for byte in a.to_le_bytes().iter().chain(b.to_le_bytes().iter()) {
            h ^= u64::from(*byte);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Polls `MigrationStatus` until the server reports no active migration.
fn await_migration(client: &mut Client) {
    wait_for("the migration to finish", || {
        (!client.migration_status().unwrap().active).then_some(())
    });
}

#[test]
fn live_split_of_mmap_shard_under_load_matches_unsharded_oracle() {
    let block_dir = fresh_dir("mmap-split");
    let server = Server::spawn(mmap_pipeline(91, 2, &block_dir), server_config(2, 32)).unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();

    // Populate before the split so the source shard is genuinely loaded,
    // and seal a generation so its tables are disk-resident.
    let seeded = records(5, 0, 300);
    assert_eq!(client.insert(&seeded).unwrap(), (300, 300));

    let before = client.shard_map().unwrap();
    assert_eq!(before.epoch, 1, "fresh map starts at epoch 1");
    assert_eq!(before.num_shards, 2);
    assert_eq!(before.records.iter().sum::<u64>(), 300);
    assert!(!before.migration.active);

    // Concurrent load: a second client keeps inserting and probing while
    // the migration copies and cuts over. Every acknowledged insert is
    // collected so the loss check below covers the racing writes too,
    // and the slowest one bounds the write stall the cutover imposed.
    let writer = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        let mut acked = Vec::new();
        let mut slowest = Duration::ZERO;
        for wave in 0..10u64 {
            let batch = records(6, 1000 + wave * 10, 10);
            let sent = Instant::now();
            let (accepted, _) = c.insert(&batch).unwrap();
            slowest = slowest.max(sent.elapsed());
            assert_eq!(accepted, 10, "insert rejected during migration");
            acked.extend(batch.iter().cloned());
            // Reads during the window double-probe source and target.
            let (pairs, _) = c
                .probe(&[Record::new(900_000 + wave, batch[0].fields.iter().cloned())])
                .unwrap();
            assert!(
                pairs.iter().any(|&(a, _)| a == batch[0].id),
                "probe lost a record mid-migration (wave {wave})"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        (acked, slowest)
    });
    std::thread::sleep(Duration::from_millis(10));

    let (kind, source, target, _total) = client.reshard(ReshardOp::Split { source: 0 }).unwrap();
    assert_eq!(kind, "split");
    assert_eq!(source, 0);
    assert_eq!(target, 2, "split target is the new shard id");
    await_migration(&mut client);
    let (racing, slowest) = writer.join().unwrap();
    // A cutover that stalled a write for two of the 500 ms heartbeats
    // would read as a dead primary to an auto-failover follower
    // (docs/RESHARD.md).
    assert!(
        slowest < 2 * Duration::from_millis(500),
        "cutover stalled an acked insert for {slowest:?}"
    );
    let m = client.metrics().unwrap();
    assert_eq!(
        gauge(&m, "rl_reshard_state"),
        0,
        "migration still marked live"
    );
    assert_eq!(
        gauge(&m, "rl_reshard_lag_ops"),
        0,
        "lag gauge did not drain"
    );
    assert!(
        gauge(&m, "rl_reshard_migrated_records") > 0,
        "copier moved nothing on a populated split"
    );

    // The epoch bump is visible over protocol v10, through both the
    // dedicated GetShardMap verb and the Stats reply.
    let after = client.shard_map().unwrap();
    assert_eq!(after.epoch, 2, "cutover bumps the map epoch");
    assert_eq!(after.num_shards, 3);
    let total = 300 + racing.len() as u64;
    assert_eq!(
        after.records.iter().sum::<u64>(),
        total,
        "records lost or duplicated"
    );
    assert!(
        after.records[2] > 0,
        "split target owns no records: {:?}",
        after.records
    );
    let stats = client.stats().unwrap();
    assert_eq!(stats.shard_map_epoch, 2);
    assert_eq!(stats.shard_records.iter().sum::<u64>(), total);
    assert_eq!(stats.indexed as u64, total);

    // Zero acknowledged-write loss across the cutover, and the exact
    // match relation of an unsharded oracle built from the same seed
    // (same hash draws) over the same corpus.
    let mut all = seeded;
    all.extend(racing);
    let wire = wire_relation(&mut client, &all);
    for rec in &all {
        assert!(
            wire.contains(&(rec.id, 100_000 + rec.id)),
            "acked record {} lost across cutover",
            rec.id
        );
    }
    let mut oracle = pipeline(91, 1);
    oracle.index(&all).unwrap();
    let probes: Vec<Record> = all
        .iter()
        .map(|r| Record::new(100_000 + r.id, r.fields.iter().cloned()))
        .collect();
    let (mut expect, _) = oracle.link(&probes).unwrap();
    expect.sort_unstable();
    assert_eq!(
        relation_hash(&wire),
        relation_hash(&expect),
        "match-relation hash diverged from the unsharded oracle"
    );
    assert_eq!(
        wire, expect,
        "match relation diverged from the unsharded oracle"
    );

    client.shutdown().unwrap();
    server.wait();
    let _ = std::fs::remove_dir_all(&block_dir);
}

#[test]
fn merge_over_the_wire_drains_source_and_preserves_matches() {
    let server = Server::spawn(pipeline(92, 3), server_config(2, 16)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let all = records(9, 0, 120);
    assert_eq!(client.insert(&all).unwrap(), (120, 120));
    let before_pairs = wire_relation(&mut client, &all);
    let before = client.shard_map().unwrap();
    assert!(
        before.records[2] > 0,
        "merge source must start populated: {:?}",
        before.records
    );

    let (kind, source, target, total) = client
        .reshard(ReshardOp::Merge {
            source: 2,
            target: 0,
        })
        .unwrap();
    assert_eq!((kind.as_str(), source, target), ("merge", 2, 0));
    assert_eq!(
        total, before.records[2],
        "merge moves the whole source shard"
    );
    await_migration(&mut client);

    let after = client.shard_map().unwrap();
    assert_eq!(after.epoch, 2);
    assert_eq!(
        after.records[2], 0,
        "merge left records on the source shard"
    );
    assert_eq!(after.records.iter().sum::<u64>(), 120);
    assert!(
        after.ranges.iter().all(|r| r.shard != 2),
        "merged-away shard still owns keyspace: {:?}",
        after.ranges
    );
    let after_pairs = wire_relation(&mut client, &all);
    assert_eq!(before_pairs, after_pairs, "merge changed probe answers");

    client.shutdown().unwrap();
    server.wait();
}

/// Probes every record in `all` and asserts each matches itself — the
/// acked-write retention check used after each crash recovery below.
fn assert_all_present(client: &mut Client, all: &[Record]) {
    let wire = wire_relation(client, all);
    for rec in all {
        assert!(
            wire.contains(&(rec.id, 100_000 + rec.id)),
            "acked record {} lost across crash recovery",
            rec.id
        );
    }
}

#[test]
fn sigkill_during_migration_recovers_or_rolls_back_deterministically() {
    let dir = fresh_dir("sigkill");
    let (mut child, addr) = spawn_rl_serve(&dir, &["--checkpoint-every", "1"]);
    let mut client = Client::connect(&*addr).unwrap();

    let all = records(13, 0, 200);
    assert_eq!(client.insert(&all).unwrap(), (200, 200));
    assert_eq!(client.shard_map().unwrap().epoch, 1);

    // Start the split, then SIGKILL the server while the background
    // migrator races the cutover: no drain, no final sync, no snapshot.
    let (kind, _, _, _) = client.reshard(ReshardOp::Split { source: 0 }).unwrap();
    assert_eq!(kind, "split");
    child.kill().unwrap();
    child.wait().unwrap();

    // Recovery must land in exactly one of two states: the commit frame
    // never reached the WAL (migration rolled back — epoch 1, old
    // topology) or it did (replay re-runs the cutover — epoch 2, split
    // topology). Anything else is a torn migration.
    let (mut child2, addr2) = spawn_rl_serve(&dir, &["--checkpoint-every", "1"]);
    let mut client2 = Client::connect(&*addr2).unwrap();
    let map = client2.shard_map().unwrap();
    match map.epoch {
        1 => assert_eq!(map.num_shards, 2, "rolled-back split left a stray shard"),
        2 => assert_eq!(map.num_shards, 3, "committed split missing its target"),
        e => panic!("recovered into impossible shard-map epoch {e}"),
    }
    assert!(!map.migration.active, "recovery resumed a dead migration");
    assert_eq!(
        map.records.iter().sum::<u64>(),
        200,
        "crash recovery lost or duplicated records: {:?}",
        map.records
    );
    assert_eq!(client2.stats().unwrap().indexed, 200);
    assert_all_present(&mut client2, &all);

    // Drive the map to epoch 2 (a no-op if the kill landed post-commit),
    // then restart cleanly: the committed cutover must replay — the
    // epoch and topology are durable, not session state.
    if client2.shard_map().unwrap().epoch == 1 {
        client2.reshard(ReshardOp::Split { source: 0 }).unwrap();
        await_migration(&mut client2);
    }
    let committed = client2.shard_map().unwrap();
    assert_eq!(committed.epoch, 2);
    assert_eq!(committed.num_shards, 3);
    client2.shutdown().unwrap();
    child2.wait().unwrap();

    let (mut child3, addr3) = spawn_rl_serve(&dir, &["--checkpoint-every", "1"]);
    let mut client3 = Client::connect(&*addr3).unwrap();
    let replayed = client3.shard_map().unwrap();
    assert_eq!(replayed.epoch, 2, "committed cutover did not replay");
    assert_eq!(replayed.num_shards, 3);
    assert_eq!(replayed.records.iter().sum::<u64>(), 200);
    assert_all_present(&mut client3, &all);
    client3.shutdown().unwrap();
    child3.wait().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

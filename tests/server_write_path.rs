//! Every mutation kind, committed on a primary, must leave the same state
//! on the primary, on a follower that applied the replicated frames, and
//! on a server restarted from the primary's data directory: an insert
//! batch, a `Stream` record that matches an earlier insert, a delete of a
//! known and of an unknown id, and a reshard split. A count-window match
//! subscription on the follower sees the same events as one on the
//! primary.

mod common;

use common::{durable_config, fresh_dir, gauge, next_event, pipeline, records, stop, wait_for};
use record_linkage::cbv_hb::Record;
use record_linkage::repl::{Follower, FollowerConfig};
use record_linkage::server::{
    Client, LateArrival, ReplRole, ReshardOp, Server, WatchEvent, WindowSpec,
};

/// What each node must agree on.
#[derive(Debug, PartialEq)]
struct View {
    indexed: usize,
    streamed: u64,
    clusters: Vec<Vec<u64>>,
    relation: Vec<(u64, u64)>,
    shard_map_epoch: u64,
}

fn view(client: &mut Client, all: &[Record]) -> View {
    let stats = client.stats().unwrap();
    let probes: Vec<Record> = all
        .iter()
        .map(|r| Record::new(100_000 + r.id, r.fields.iter().cloned()))
        .collect();
    let (mut relation, _) = client.probe(&probes).unwrap();
    relation.sort_unstable();
    View {
        indexed: stats.indexed,
        streamed: stats.streamed,
        clusters: client.dedup_status().unwrap(),
        relation,
        shard_map_epoch: stats.shard_map_epoch,
    }
}

fn wal_appends(client: &mut Client) -> u64 {
    let m = client.metrics().unwrap();
    m.counter_value("rl_wal_appends_total", None).unwrap()
}

/// Reads match events until the one `record_id` triggered, inclusive.
fn events_through(sub: &mut Client, record_id: u64) -> Vec<(u64, Vec<u64>)> {
    let mut events = Vec::new();
    loop {
        match next_event(sub, &format!("match event through record {record_id}")) {
            WatchEvent::Match {
                record_id: id,
                matched,
                ..
            } => {
                events.push((id, matched));
                if id == record_id {
                    return events;
                }
            }
            other => panic!("expected a match event, got {other:?}"),
        }
    }
}

fn subscribe(addr: std::net::SocketAddr) -> Client {
    let mut sub = Client::connect(addr).unwrap();
    sub.subscribe_matches("0<=2", WindowSpec::Count(100), LateArrival::Drop, 0)
        .unwrap();
    sub
}

#[test]
fn every_mutation_kind_leaves_the_same_state_on_primary_follower_and_restart() {
    let pdir = fresh_dir("write-path-primary");
    let fdir = fresh_dir("write-path-follower");
    let primary = Server::spawn_durable(
        || Ok(pipeline(41, 2)),
        durable_config(&pdir, ReplRole::Primary),
    )
    .unwrap();
    let primary_addr = primary.local_addr().to_string();
    let mut pc = Client::connect(&*primary_addr).unwrap();
    let follower = Follower::spawn(FollowerConfig::new(
        primary_addr,
        durable_config(&fdir, ReplRole::Standalone),
    ))
    .unwrap();
    let mut fc = Client::connect(follower.local_addr()).unwrap();
    let mut primary_sub = subscribe(primary.local_addr());
    let mut follower_sub = subscribe(follower.local_addr());

    // An insert batch whose last record twins an earlier one's first name
    // (a subscription event, not a server match).
    let mut batch = records(21, 0, 12);
    batch.push(Record::new(100, ["JOHNATHAN", "SMITHSON"]));
    batch.push(Record::new(101, ["JOHNATHAN", "WILLOUGHBY"]));
    assert_eq!(pc.insert(&batch).unwrap(), (14, 14));
    // A streamed record that matches an earlier insert.
    let streamed = Record::new(200, ["JOHNATHAN", "SMITHSON"]);
    assert_eq!(pc.stream(&streamed).unwrap(), vec![100]);
    // A delete of a known and of an unknown id.
    assert_eq!(pc.delete(&[batch[3].id, 9_999]).unwrap(), (1, 14));
    // A reshard split, committed by the background migrator.
    let epoch_before = pc.stats().unwrap().shard_map_epoch;
    pc.reshard(ReshardOp::Split { source: 0 }).unwrap();
    wait_for("the split to finish", || {
        (!pc.migration_status().unwrap().active).then_some(())
    });

    let head = pc.repl_status().unwrap().applied_seq;
    wait_for("the follower to apply every op", || {
        (fc.repl_status().unwrap().applied_seq >= head).then_some(())
    });

    let mut all = batch.clone();
    all.push(streamed);
    let on_primary = view(&mut pc, &all);
    assert_eq!(on_primary.indexed, 14);
    assert_eq!(on_primary.streamed, 1);
    assert_eq!(on_primary.clusters, vec![vec![100, 200]]);
    assert!(on_primary.relation.contains(&(200, 100_100)));
    assert!(
        on_primary.shard_map_epoch > epoch_before,
        "the split moved the map"
    );
    assert_eq!(view(&mut fc, &all), on_primary, "follower");

    // 14 inserts, one observe, two deletes and the reshard cutover.
    let appends = wal_appends(&mut pc);
    assert_eq!(appends, 18);
    assert_eq!(wal_appends(&mut fc), appends, "follower appends");

    let primary_events = events_through(&mut primary_sub, 200);
    assert_eq!(primary_events.first(), Some(&(101, vec![100])));
    assert_eq!(primary_events.last(), Some(&(200, vec![100, 101])));
    assert_eq!(
        events_through(&mut follower_sub, 200),
        primary_events,
        "the follower's subscription fan-out"
    );

    drop((fc, follower_sub));
    follower.shutdown();
    follower.wait();
    stop(primary, [pc, primary_sub]);

    let restarted = Server::spawn_durable(
        || panic!("the primary's directory holds a checkpoint"),
        durable_config(&pdir, ReplRole::Standalone),
    )
    .unwrap();
    let mut rc = Client::connect(restarted.local_addr()).unwrap();
    assert_eq!(view(&mut rc, &all), on_primary, "restart");
    let m = rc.metrics().unwrap();
    assert_eq!(gauge(&m, "rl_replayed_ops"), appends as i64);
    assert_eq!(wal_appends(&mut rc), 0, "replay appends nothing");
    stop(restarted, [rc]);
    std::fs::remove_dir_all(&pdir).unwrap();
    std::fs::remove_dir_all(&fdir).unwrap();
}

//! Durability integration tests (protocol v4): acknowledged mutations
//! must survive a clean restart, a hard kill (SIGKILL) of the real `rl`
//! binary, and a torn final WAL frame — the acceptance criteria of the
//! storage subsystem.

mod common;

use common::{
    durable_config, fresh_dir, gauge, pipeline, probe_one, records, spawn_rl_serve,
    spawn_rl_serve_logged, stop, wait_for,
};
use record_linkage::cbv_hb::Record;
use record_linkage::server::{Client, ReplRole, Server, ServerConfig};
use std::io::Write;
use std::time::Duration;

#[test]
fn acked_mutations_survive_clean_restart() {
    let dir = fresh_dir("clean-restart");
    let config = || durable_config(&dir, ReplRole::Standalone);
    let server = Server::spawn_durable(|| Ok(pipeline(41, 2)), config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let a = records(3, 0, 12);
    let (accepted, total) = client.insert(&a).unwrap();
    assert_eq!((accepted, total), (12, 12));
    // One streamed record joins the index through the Observe op.
    let streamed = Record::new(500, ["STREAMY", "RECORD"]);
    client.stream(&streamed).unwrap();
    let (removed, total) = client.delete(&[a[4].id, 9999]).unwrap();
    assert_eq!((removed, total), (1, 12), "one real id, one unknown");

    // One WAL op per record inserted or streamed and per id in a delete,
    // known or not: every acknowledged op hit the log exactly once.
    let acked_ops = 12 + 1 + 2;
    let m = client.metrics().unwrap();
    assert_eq!(
        m.counter_value("rl_wal_appends_total", None),
        Some(acked_ops)
    );
    assert!(
        gauge(&m, "rl_wal_bytes") > 0,
        "durable ops left no WAL bytes"
    );

    client.shutdown().unwrap();
    server.wait();

    // Restart from the data dir: the fresh closure must NOT win — the
    // replayed WAL rebuilds the exact acknowledged state.
    let server2 = Server::spawn_durable(|| Ok(pipeline(41, 2)), config()).unwrap();
    let mut client2 = Client::connect(server2.local_addr()).unwrap();
    let stats = client2.stats().unwrap();
    assert_eq!(stats.indexed, 12, "12 inserted + 1 streamed - 1 deleted");
    assert_eq!(stats.streamed, 1, "stream history restored");
    let replayed = gauge(&client2.metrics().unwrap(), "rl_replayed_ops");
    assert_eq!(
        replayed, acked_ops as i64,
        "replay must cover every acked op"
    );

    for (i, rec) in a.iter().enumerate() {
        let hits = probe_one(&mut client2, rec, 1000 + i as u64);
        if i == 4 {
            assert!(
                hits.is_empty(),
                "deleted record {} matched {hits:?}",
                rec.id
            );
        } else {
            assert!(hits.contains(&rec.id), "lost acked insert {}", rec.id);
        }
    }
    assert!(probe_one(&mut client2, &streamed, 2000).contains(&500));

    client2.shutdown().unwrap();
    server2.wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The background checkpointer leaves an idle server alone: with nothing
/// logged since its last checkpoint, a tick neither commits a checkpoint
/// nor rotates the WAL to a new segment. The tick after an insert
/// checkpoints again.
#[test]
fn an_idle_server_is_not_checkpointed_again() {
    let dir = fresh_dir("idle-checkpoint");
    let mut config = durable_config(&dir, ReplRole::Standalone);
    config.durability.as_mut().unwrap().checkpoint_every = Some(Duration::from_secs(1));
    let server = Server::spawn_durable(|| Ok(pipeline(43, 2)), config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let checkpoints = |client: &mut Client| {
        let m = client.metrics().unwrap();
        m.counter_value("rl_checkpoints_total", None).unwrap_or(0)
    };
    let segments = || rl_store::scan_segments(&dir).unwrap();

    client.insert(&records(5, 0, 8)).unwrap();
    wait_for("the first checkpoint", || {
        (checkpoints(&mut client) == 1).then_some(())
    });
    let checkpointed = segments();
    // Two ticks with nothing logged.
    std::thread::sleep(Duration::from_millis(2_500));
    assert_eq!(checkpoints(&mut client), 1, "an idle tick checkpointed");
    assert_eq!(segments(), checkpointed, "an idle tick rotated the WAL");

    client.insert(&records(6, 100, 1)).unwrap();
    wait_for("the checkpoint after an insert", || {
        (checkpoints(&mut client) == 2).then_some(())
    });
    assert!(segments().last() > checkpointed.last(), "{:?}", segments());
    stop(server, [client]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn acked_writes_survive_hard_kill_and_torn_tail() {
    let dir = fresh_dir("hard-kill");
    let (mut child, addr) = spawn_rl_serve(&dir, &["--checkpoint-every", "1"]);
    let mut client = Client::connect(&*addr).unwrap();

    // Batch A lands before the 1-second checkpoint cadence fires; batch B
    // and the delete race the background checkpointer.
    let a = records(7, 0, 20);
    assert_eq!(client.insert(&a).unwrap(), (20, 20));
    let streamed = Record::new(500, ["STREAMY", "RECORD"]);
    client.stream(&streamed).unwrap();
    std::thread::sleep(Duration::from_millis(1400));
    let b = records(8, 100, 10);
    assert_eq!(client.insert(&b).unwrap().0, 10);
    assert_eq!(client.delete(&[a[3].id]).unwrap().0, 1);

    // Hard kill (SIGKILL): no drain, no final sync, no shutdown snapshot.
    child.kill().unwrap();
    child.wait().unwrap();

    // Simulate a torn final frame on top of the crash: garbage appended
    // to the newest segment must be truncated away on recovery.
    let newest = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            (name.starts_with("wal-") && name.ends_with(".log")).then_some(name)
        })
        .max()
        .expect("a WAL segment exists");
    let mut seg = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join(&newest))
        .unwrap();
    seg.write_all(&[0xFF; 12]).unwrap();
    seg.sync_all().unwrap();
    drop(seg);

    let (mut child2, addr2) = spawn_rl_serve(&dir, &["--checkpoint-every", "1"]);
    let mut client2 = Client::connect(&*addr2).unwrap();
    let stats = client2.stats().unwrap();
    assert_eq!(
        stats.indexed, 30,
        "20 + 10 inserted + 1 streamed - 1 deleted"
    );
    for (i, rec) in a.iter().chain(&b).enumerate() {
        let hits = probe_one(&mut client2, rec, 1000 + i as u64);
        if i == 3 {
            assert!(
                hits.is_empty(),
                "deleted record {} matched {hits:?}",
                rec.id
            );
        } else {
            assert!(hits.contains(&rec.id), "lost acked insert {}", rec.id);
        }
    }
    assert!(probe_one(&mut client2, &streamed, 2000).contains(&500));

    client2.shutdown().unwrap();
    child2.wait().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Recovery applies each run of consecutive inserts as one batch. A delete
/// ends a run, so it removes what the inserts before it indexed and not
/// what a re-insert after it brings back, and a log that ends in inserts
/// replays them all.
#[test]
fn replay_applies_runs_of_inserts_in_log_order() {
    let dir = fresh_dir("insert-runs");
    let config = || durable_config(&dir, ReplRole::Standalone);
    let server = Server::spawn_durable(|| Ok(pipeline(44, 2)), config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let a = records(10, 0, 8);
    client.insert(&a).unwrap();
    client.delete(&[a[2].id, a[5].id]).unwrap();
    let renamed = Record::new(a[2].id, records(12, 0, 1)[0].fields.clone());
    let b = records(11, 100, 5);
    client.insert(std::slice::from_ref(&renamed)).unwrap();
    client.insert(&b).unwrap();
    client.shutdown().unwrap();
    server.wait();

    let server = Server::spawn_durable(|| Ok(pipeline(44, 2)), config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.stats().unwrap().indexed, 12);
    for (i, rec) in a.iter().chain(&b).enumerate() {
        let hits = probe_one(&mut client, rec, 1000 + i as u64);
        let deleted = [a[2].id, a[5].id].contains(&rec.id);
        assert_eq!(hits.contains(&rec.id), !deleted, "{rec:?}");
    }
    assert!(probe_one(&mut client, &renamed, 2000).contains(&a[2].id));
    stop(server, [client]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A data dir that holds a checkpoint restores the index it covers, shape
/// and all, so `rl serve` ignores the index-shape flags — and says so,
/// naming them, before it reports its address.
#[test]
fn a_restart_from_a_checkpoint_names_the_shape_flags_it_ignores() {
    let dir = fresh_dir("ignored-shape");
    let (mut child, addr) = spawn_rl_serve(&dir, &["--checkpoint-every", "1"]);
    let mut client = Client::connect(&*addr).unwrap();
    client.insert(&records(9, 0, 10)).unwrap();
    wait_for("the first checkpoint", || {
        let m = client.metrics().unwrap();
        (m.counter_value("rl_checkpoints_total", None) == Some(1)).then_some(())
    });
    client.shutdown().unwrap();
    child.wait().unwrap();

    let (mut child, addr, log) = spawn_rl_serve_logged(&dir, &["--shards", "7"]);
    let warning = log.lines().find(|l| l.starts_with("warning:"));
    let warning = warning.unwrap_or_else(|| panic!("no warning in {log:?}"));
    assert!(warning.contains("--shards"), "{warning}");
    assert!(warning.contains("the checkpoint in"), "{warning}");
    let stats = std::process::Command::new(env!("CARGO_BIN_EXE_rl"))
        .args(["client", "--addr", &addr, "--cmd", "stats"])
        .output()
        .unwrap();
    assert!(stats.status.success(), "{stats:?}");
    let stats = String::from_utf8(stats.stdout).unwrap();
    assert!(stats.contains("\"shards\":2,"), "{stats}");
    assert!(stats.contains("\"indexed\":10,"), "{stats}");
    Client::connect(&*addr).unwrap().shutdown().unwrap();
    child.wait().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn insert_and_delete_work_without_a_data_dir() {
    // Without durability the v4 mutations still work — Insert behaves
    // like Index and Delete tombstones; nothing is logged.
    let server = Server::spawn(pipeline(43, 1), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let a = records(5, 0, 8);
    assert_eq!(client.insert(&a).unwrap(), (8, 8));
    assert_eq!(client.delete(&[a[0].id, a[1].id]).unwrap(), (2, 6));
    assert!(probe_one(&mut client, &a[0], 900).is_empty());
    assert!(probe_one(&mut client, &a[2], 901).contains(&a[2].id));
    client.shutdown().unwrap();
    server.wait();
}

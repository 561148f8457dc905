//! Replication integration tests (protocol v5): a follower bootstraps
//! from the primary's checkpoint, tails its WAL, serves reads, redirects
//! writes, and can be promoted after the primary dies without losing a
//! single acknowledged mutation — the acceptance criteria of the
//! replication subsystem.

mod common;

use common::{
    durable_config, fresh_dir, gauge, pipeline, probe_one, records, spawn_rl_serve, stop, wait_for,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use record_linkage::cbv_hb::Record;
use record_linkage::repl::{Follower, FollowerConfig};
use record_linkage::server::{
    Client, ClientError, ErrorCode, ReplRole, Request, Server, ServerConfig,
};
use std::time::{Duration, Instant};

/// Polls the node at `client` until its applied sequence reaches
/// `target` with zero reported lag.
fn wait_caught_up(client: &mut Client, target: u64) {
    let what = format!("the follower to apply op seq {target} with zero lag");
    wait_for(&what, || {
        let status = client.repl_status().unwrap();
        let drained = status.lag_frames == 0 && status.lag_bytes == 0;
        (status.applied_seq >= target && drained).then_some(())
    });
}

/// Polls the follower at `client` until it answers as primary — no
/// manual `rl promote` anywhere — and returns the epoch it elected
/// itself into.
fn await_election(client: &mut Client) -> u64 {
    let status = wait_for("auto-failover to promote the follower", || {
        let status = client.repl_status().ok()?;
        (status.role == "primary").then_some(status)
    });
    assert!(status.epoch >= 1, "election must bump the epoch");
    status.epoch
}

#[test]
fn follower_bootstraps_tails_and_redirects() {
    let pdir = fresh_dir("live-primary");
    let fdir = fresh_dir("live-follower");
    let primary = Server::spawn_durable(
        || Ok(pipeline(11, 2)),
        durable_config(&pdir, ReplRole::Primary),
    )
    .unwrap();
    let primary_addr = primary.local_addr().to_string();
    let mut pc = Client::connect(&*primary_addr).unwrap();

    // Seed state BEFORE the follower exists: it must arrive via the
    // checkpoint bootstrap, not the live stream.
    let a = records(3, 0, 15);
    assert_eq!(pc.insert(&a).unwrap(), (15, 15));
    let streamed = Record::new(500, ["STREAMY", "RECORD"]);
    pc.stream(&streamed).unwrap();

    let follower = Follower::spawn(FollowerConfig::new(
        primary_addr.clone(),
        durable_config(&fdir, ReplRole::Standalone),
    ))
    .unwrap();
    let mut fc = Client::connect(follower.local_addr()).unwrap();

    // State AFTER the follower attached arrives via the WAL stream.
    let b = records(4, 100, 10);
    assert_eq!(pc.insert(&b).unwrap().0, 10);
    assert_eq!(pc.delete(&[a[2].id]).unwrap().0, 1);

    let head = pc.repl_status().unwrap().applied_seq;
    wait_caught_up(&mut fc, head);

    // The follower reports its role honestly and the primary sees it.
    let fs = fc.repl_status().unwrap();
    assert_eq!(fs.role, "follower");
    assert_eq!(
        (fs.lag_frames, fs.lag_bytes),
        (0, 0),
        "lag did not converge"
    );
    let fm = fc.metrics().unwrap();
    assert_eq!(gauge(&fm, "rl_repl_lag_frames"), 0, "lag_frames gauge");
    assert_eq!(gauge(&fm, "rl_repl_lag_bytes"), 0, "lag_bytes gauge");
    assert_eq!(fs.primary_addr.as_deref(), Some(&*primary_addr));
    let ps = pc.repl_status().unwrap();
    assert_eq!(ps.role, "primary");
    assert_eq!(ps.followers, 1, "primary should count one subscriber");

    // Reads on the follower see everything acked on the primary.
    let fstats = fc.stats().unwrap();
    assert_eq!(
        fstats.indexed, 25,
        "15 + 10 inserted + 1 streamed - 1 deleted"
    );
    assert_eq!(fstats.streamed, 1);
    assert!(
        probe_one(&mut fc, &a[2], 900).is_empty(),
        "delete replicated"
    );
    assert!(probe_one(&mut fc, &b[0], 901).contains(&b[0].id));
    assert!(probe_one(&mut fc, &streamed, 902).contains(&500));

    // A mutation sent to the follower is redirected to the primary
    // transparently: same Client call, no error surfaced.
    let mut writer = Client::connect(follower.local_addr()).unwrap();
    let c = records(5, 200, 5);
    assert_eq!(writer.insert(&c).unwrap().0, 5, "redirect to primary");
    let head = pc.repl_status().unwrap().applied_seq;
    wait_caught_up(&mut fc, head);
    assert!(probe_one(&mut fc, &c[0], 903).contains(&c[0].id));

    drop((fc, writer));
    follower.shutdown();
    follower.wait();
    stop(primary, [pc]);
    std::fs::remove_dir_all(&pdir).unwrap();
    std::fs::remove_dir_all(&fdir).unwrap();
}

/// A bootstrapped follower installs the primary's checkpoint as the bytes
/// the primary sent, not a re-serialization of the parsed document.
#[test]
fn bootstrap_writes_the_primary_checkpoint_byte_for_byte() {
    let pdir = fresh_dir("ckpt-bytes-primary");
    let fdir = fresh_dir("ckpt-bytes-follower");
    let primary = Server::spawn_durable(
        || Ok(pipeline(13, 2)),
        durable_config(&pdir, ReplRole::Primary),
    )
    .unwrap();
    let primary_addr = primary.local_addr().to_string();
    let mut pc = Client::connect(&*primary_addr).unwrap();
    assert_eq!(pc.insert(&records(6, 0, 12)).unwrap(), (12, 12));

    let follower = Follower::spawn(FollowerConfig::new(
        primary_addr,
        durable_config(&fdir, ReplRole::Standalone),
    ))
    .unwrap();
    let theirs = std::fs::read(pdir.join(rl_store::CHECKPOINT_FILE)).unwrap();
    let ours = std::fs::read(fdir.join(rl_store::CHECKPOINT_FILE)).unwrap();
    assert!(theirs == ours, "the follower re-serialized the checkpoint");

    follower.shutdown();
    follower.wait();
    stop(primary, [pc]);
    std::fs::remove_dir_all(&pdir).unwrap();
    std::fs::remove_dir_all(&fdir).unwrap();
}

/// A follower that was down while the primary checkpointed past its
/// position resyncs on restart: it ends with the primary's checkpoint file
/// byte for byte and answers like the primary.
#[test]
fn a_follower_behind_a_checkpoint_resyncs_to_the_primary_checkpoint_bytes() {
    let pdir = fresh_dir("resync-primary");
    let fdir = fresh_dir("resync-follower");
    let primary_at = |checkpoint_every| {
        let mut config = durable_config(&pdir, ReplRole::Primary);
        config.durability.as_mut().unwrap().checkpoint_every = checkpoint_every;
        Server::spawn_durable(|| Ok(pipeline(17, 2)), config).unwrap()
    };
    let follow = |primary: &Server| {
        let addr = primary.local_addr().to_string();
        Follower::spawn(FollowerConfig::new(
            addr,
            durable_config(&fdir, ReplRole::Standalone),
        ))
        .unwrap()
    };

    // The follower applies a first batch, then goes down.
    let primary = primary_at(None);
    let mut pc = Client::connect(primary.local_addr()).unwrap();
    let follower = follow(&primary);
    let mut fc = Client::connect(follower.local_addr()).unwrap();
    let a = records(8, 0, 10);
    pc.insert(&a).unwrap();
    wait_caught_up(&mut fc, pc.repl_status().unwrap().applied_seq);
    drop(fc);
    follower.shutdown();
    follower.wait();
    let b = records(9, 100, 10);
    pc.insert(&b).unwrap();
    stop(primary, [pc]);

    // The primary checkpoints past the follower's position, pruning the
    // ops it never saw; a third start serves that checkpoint unchanged.
    let primary = primary_at(Some(Duration::from_millis(20)));
    let mut pc = Client::connect(primary.local_addr()).unwrap();
    wait_for("a checkpoint", || {
        let m = pc.metrics().unwrap();
        (m.counter_value("rl_checkpoints_total", None) >= Some(1)).then_some(())
    });
    stop(primary, [pc]);
    let primary = primary_at(None);
    let mut pc = Client::connect(primary.local_addr()).unwrap();

    let follower = follow(&primary);
    let mut fc = Client::connect(follower.local_addr()).unwrap();
    let head = pc.repl_status().unwrap().applied_seq;
    assert_eq!(head, 20);
    wait_caught_up(&mut fc, head);
    let theirs = std::fs::read(pdir.join(rl_store::CHECKPOINT_FILE)).unwrap();
    let ours = std::fs::read(fdir.join(rl_store::CHECKPOINT_FILE)).unwrap();
    assert!(theirs == ours, "the follower re-serialized the checkpoint");
    assert_eq!(fc.stats().unwrap().indexed, 20);
    for (i, record) in a.iter().chain(&b).enumerate() {
        let probe_id = 1_000 + i as u64;
        assert_eq!(
            probe_one(&mut fc, record, probe_id),
            probe_one(&mut pc, record, probe_id)
        );
    }

    drop(fc);
    follower.shutdown();
    follower.wait();
    stop(primary, [pc]);
    std::fs::remove_dir_all(&pdir).unwrap();
    std::fs::remove_dir_all(&fdir).unwrap();
}

/// Quorum acks (protocol v8) are what make a failover lossless without a
/// drained lag: every insert below returns only once the follower has
/// confirmed the frame durable, so the node that wins the election holds
/// every acknowledged record already. Nothing here waits for the follower
/// to catch up before the primary stops.
#[test]
fn quorum_acked_writes_survive_auto_failover() {
    let pdir = fresh_dir("quorum-primary");
    let fdir = fresh_dir("quorum-follower");
    let lease = Duration::from_millis(500);
    let primary = Server::spawn_durable(
        || Ok(pipeline(12, 1)),
        ServerConfig {
            lease_ms: lease.as_millis() as u64,
            sync_replicas: 1,
            quorum_timeout: Duration::from_secs(10),
            ..durable_config(&pdir, ReplRole::Primary)
        },
    )
    .unwrap();
    let primary_addr = primary.local_addr().to_string();
    let mut follower_config = FollowerConfig::new(
        primary_addr.clone(),
        durable_config(&fdir, ReplRole::Standalone),
    );
    follower_config.auto_failover = true;
    // Re-dial the dead primary at the base delay without backing off, so
    // the election starts as soon as the lease has run out rather than a
    // doubled step later.
    follower_config.backoff_cap = follower_config.backoff_base;
    let follower = Follower::spawn(follower_config).unwrap();
    let mut fc = Client::connect(follower.local_addr()).unwrap();
    let mut pc = Client::connect(&*primary_addr).unwrap();

    // A quorum insert has nobody to wait for until the follower subscribes.
    wait_for("the follower to subscribe", || {
        (pc.repl_status().unwrap().followers > 0).then_some(())
    });
    let mut acked = 0;
    for batch in records(6, 0, 60).chunks(20) {
        acked += pc.insert(batch).expect("quorum insert").0;
    }
    assert_eq!(acked, 60);

    // The primary stops mid-lease; the clock covers the whole write outage:
    // session break, lease run-out, election, promote.
    let started = Instant::now();
    stop(primary, [pc]);
    await_election(&mut fc);
    let election = started.elapsed();
    assert!(
        election < 2 * lease,
        "election took {election:?}, bound is twice the {lease:?} lease"
    );
    assert_eq!(
        fc.stats().unwrap().indexed,
        acked,
        "quorum-acked inserts lost across failover"
    );

    fc.shutdown().unwrap();
    follower.wait();
    std::fs::remove_dir_all(&pdir).unwrap();
    std::fs::remove_dir_all(&fdir).unwrap();
}

/// A write's reply confirms read-your-writes on the connection it came on,
/// so the read after it sends no `ReplStatus`. A reconnect may reach
/// another node: the first read after one checks once, and no more.
#[test]
fn a_write_confirms_read_your_writes_on_its_own_connection() {
    let dir = fresh_dir("ryw-own-connection");
    let server = Server::spawn_durable(
        || Ok(pipeline(19, 2)),
        durable_config(&dir, ReplRole::Primary),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let status_requests = |client: &mut Client| {
        let m = client.metrics().unwrap();
        m.counter_value("rl_requests_total", Some("repl_status"))
            .unwrap_or(0)
    };
    let a = records(23, 0, 8);
    assert_eq!(client.insert(&a).unwrap(), (8, 8));
    assert!(client.session_seq() > 0, "a durable write carries its seq");
    assert!(probe_one(&mut client, &a[0], 900).contains(&a[0].id));
    assert_eq!(
        status_requests(&mut client),
        0,
        "the write confirmed itself"
    );

    client.reconnect().unwrap();
    assert!(probe_one(&mut client, &a[1], 901).contains(&a[1].id));
    assert_eq!(
        status_requests(&mut client),
        1,
        "a new connection checks once"
    );
    assert!(probe_one(&mut client, &a[2], 902).contains(&a[2].id));
    assert_eq!(status_requests(&mut client), 1);

    stop(server, [client]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// With no follower to ack, a quorum write answers the typed
/// `QuorumTimeout` after the bounded wait — and, as the doc comment on
/// `await_quorum` promises, is durable locally all the same: searchable
/// at once and still there after a restart.
#[test]
fn quorum_timeout_is_typed_and_the_write_stays_durable() {
    let dir = fresh_dir("quorum-timeout");
    let config = || ServerConfig {
        sync_replicas: 1,
        quorum_timeout: Duration::from_millis(100),
        ..durable_config(&dir, ReplRole::Primary)
    };
    let server = Server::spawn_durable(|| Ok(pipeline(13, 1)), config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let a = records(7, 0, 5);
    match client.insert(&a) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::QuorumTimeout, "{}", e.message);
        }
        other => panic!("nobody can ack: expected QuorumTimeout, got {other:?}"),
    }
    assert!(probe_one(&mut client, &a[0], 900).contains(&a[0].id));
    client.shutdown().unwrap();
    server.wait();

    let server = Server::spawn_durable(|| Ok(pipeline(13, 1)), config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(
        client.stats().unwrap().indexed,
        5,
        "unconfirmed is not lost"
    );
    assert!(probe_one(&mut client, &a[4], 901).contains(&a[4].id));
    client.shutdown().unwrap();
    server.wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn promote_after_primary_sigkill_loses_nothing() {
    let pdir = fresh_dir("kill-primary");
    let fdir = fresh_dir("kill-follower");
    let (mut primary, paddr) = spawn_rl_serve(&pdir, &["--allow-replicas"]);
    let mut pc = Client::connect(&*paddr).unwrap();

    // A random mutation workload; every ack is recorded so the promoted
    // follower can be audited against exactly what the primary confirmed.
    let mut rng = StdRng::seed_from_u64(99);
    let mut live: Vec<Record> = Vec::new();
    let mut dead: Vec<Record> = Vec::new();
    let pool = records(21, 0, 60);
    let mut next = 0usize;
    for _ in 0..25 {
        if !live.is_empty() && rng.random_bool(0.25) {
            let victim = live.swap_remove(rng.random_range(0..live.len()));
            assert_eq!(pc.delete(&[victim.id]).unwrap().0, 1);
            dead.push(victim);
        } else {
            let n = rng.random_range(1..4usize).min(pool.len() - next);
            if n == 0 {
                break;
            }
            let batch = &pool[next..next + n];
            assert_eq!(pc.insert(batch).unwrap().0, n);
            live.extend_from_slice(batch);
            next += n;
        }
    }
    assert!(live.len() >= 10, "workload should leave plenty indexed");

    let (mut follower, faddr) = spawn_rl_serve(&fdir, &["--replicate-from", &paddr]);
    let mut fc = Client::connect(&*faddr).unwrap();

    // More acked mutations while the follower is streaming.
    let tail = records(22, 1000, 8);
    assert_eq!(pc.insert(&tail).unwrap().0, 8);
    live.extend_from_slice(&tail);

    let head = pc.repl_status().unwrap().applied_seq;
    wait_caught_up(&mut fc, head);

    // The primary dies hard: SIGKILL, no drain, no goodbye.
    primary.kill().unwrap();
    primary.wait().unwrap();

    let (head_seq, was_follower, epoch) = fc.promote().unwrap();
    assert!(was_follower, "promote should flip a follower");
    assert_eq!(head_seq, head, "promoted head matches the last synced seq");
    assert_eq!(epoch, 1, "first promote bumps the epoch from 0 to 1");
    let status = fc.repl_status().unwrap();
    assert_eq!(status.role, "primary");
    assert_eq!(status.epoch, 1);

    // Every acknowledged mutation must be visible on the promoted node.
    let stats = fc.stats().unwrap();
    assert_eq!(
        stats.indexed,
        live.len(),
        "acked inserts minus acked deletes"
    );
    for (i, rec) in live.iter().enumerate() {
        let hits = probe_one(&mut fc, rec, 5000 + i as u64);
        assert!(hits.contains(&rec.id), "lost acked insert {}", rec.id);
    }
    for (i, rec) in dead.iter().enumerate() {
        let hits = probe_one(&mut fc, rec, 7000 + i as u64);
        assert!(
            !hits.contains(&rec.id),
            "acked delete {} resurfaced",
            rec.id
        );
    }

    // And the promoted node accepts writes now.
    let fresh = records(23, 2000, 3);
    assert_eq!(fc.insert(&fresh).unwrap().0, 3);
    assert!(probe_one(&mut fc, &fresh[0], 9000).contains(&fresh[0].id));

    fc.shutdown().unwrap();
    follower.wait().unwrap();
    std::fs::remove_dir_all(&pdir).unwrap();
    std::fs::remove_dir_all(&fdir).unwrap();
}

/// The self-healing path end to end (protocol v8): a lease-granting
/// primary is SIGKILLed, its auto-failover follower elects itself (epoch
/// bump included) without losing an acknowledged write, and when the old
/// primary restarts on its stale directory, the new epoch fences it —
/// a subscriber carrying the new epoch gets a typed `StaleEpoch` refusal
/// instead of stale frames.
#[test]
fn auto_failover_elects_follower_and_fences_the_restarted_primary() {
    let pdir = fresh_dir("fence-primary");
    let fdir = fresh_dir("fence-follower");
    let lease_ms = 500u64;
    let (mut primary, paddr) = spawn_rl_serve(&pdir, &["--allow-replicas", "--lease-ms", "500"]);
    let mut pc = Client::connect(&*paddr).unwrap();

    // Acked writes the failover must preserve.
    let acked = records(31, 0, 20);
    assert_eq!(pc.insert(&acked).unwrap().0, 20);

    let (mut follower, faddr) =
        spawn_rl_serve(&fdir, &["--replicate-from", &paddr, "--auto-failover"]);
    let mut fc = Client::connect(&*faddr).unwrap();
    let head = pc.repl_status().unwrap().applied_seq;
    wait_caught_up(&mut fc, head);

    // The primary dies hard mid-lease: SIGKILL, no drain, no goodbye.
    primary.kill().unwrap();
    primary.wait().unwrap();

    // The follower's lease runs out and it must elect itself.
    let started = Instant::now();
    let new_epoch = await_election(&mut fc);
    let election = started.elapsed();
    // Generous sanity bound for a real process on a shared box (the tight
    // `2x lease` gate is `quorum_acked_writes_survive_auto_failover`):
    // kill → promoted well under ten leases.
    assert!(
        election < Duration::from_millis(10 * lease_ms),
        "election took {election:?}"
    );

    // Acked-write audit: everything the dead primary confirmed survives
    // on the elected node, which now accepts writes of its own.
    let stats = fc.stats().unwrap();
    assert_eq!(stats.indexed, 20, "acked inserts lost across failover");
    for (i, rec) in acked.iter().enumerate() {
        assert!(
            probe_one(&mut fc, rec, 5000 + i as u64).contains(&rec.id),
            "lost acked insert {}",
            rec.id
        );
    }
    let fresh = records(32, 3000, 4);
    assert_eq!(fc.insert(&fresh).unwrap().0, 4);

    // The old primary restarts on its pre-failover directory: same data,
    // stale epoch 0, still configured as a primary.
    let (mut old, oaddr) = spawn_rl_serve(&pdir, &["--allow-replicas", "--lease-ms", "500"]);
    let mut oc = Client::connect(&*oaddr).unwrap();
    let old_status = oc.repl_status().unwrap();
    assert_eq!(old_status.role, "primary", "the stale node still believes");
    assert!(
        old_status.epoch < new_epoch,
        "the restarted primary must be on the old epoch"
    );

    // Fencing, end to end: a subscriber that has observed the new epoch
    // presents it, and the stale primary must refuse to serve — typed
    // `StaleEpoch`, not a silent stream of superseded frames.
    let err = oc
        .call(&Request::Subscribe {
            from_seq: 0,
            epoch: new_epoch,
        })
        .expect_err("a stale primary must not serve a newer-epoch subscriber");
    match err {
        ClientError::Server(e) => {
            assert_eq!(e.code, ErrorCode::StaleEpoch, "typed stale-epoch refusal");
        }
        other => panic!("expected a typed StaleEpoch refusal, got {other}"),
    }

    // The new primary meanwhile still answers with the bumped epoch.
    assert_eq!(fc.repl_status().unwrap().epoch, new_epoch);

    // A refused subscriber's connection is closed; reconnect to stop the
    // stale node.
    let oc = Client::connect(&*oaddr).unwrap();
    oc.shutdown().unwrap();
    old.wait().unwrap();
    fc.shutdown().unwrap();
    follower.wait().unwrap();
    std::fs::remove_dir_all(&pdir).unwrap();
    std::fs::remove_dir_all(&fdir).unwrap();
}

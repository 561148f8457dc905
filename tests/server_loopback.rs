//! Loopback integration tests for the rl-server network service: full
//! lifecycle over real TCP (index → probe → stream → dedup → snapshot →
//! restart → re-probe), typed backpressure under a saturated queue, and
//! typed request errors. Byte-level transport cases (handshake refusals,
//! split and malformed frames) live in `server_wire.rs`.

mod common;

use common::{pipeline, records, server_config};
use record_linkage::cbv_hb::Record;
use record_linkage::server::{Client, ClientError, ErrorCode, Server, ServerConfig, Snapshot};

#[test]
fn full_lifecycle_with_snapshot_restart() {
    let dir = std::env::temp_dir().join("rl-loopback-lifecycle");
    std::fs::create_dir_all(&dir).unwrap();
    let snap_path = dir.join("index.snap");
    let _ = std::fs::remove_file(&snap_path);

    let config = ServerConfig {
        snapshot_path: Some(snap_path.clone()),
        ..server_config(2, 16)
    };
    let server = Server::spawn(pipeline(21, 2), config.clone()).unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();

    // Index data set A and probe exact copies as data set B.
    let a = records(9, 0, 30);
    let (accepted, total) = client.index(&a).unwrap();
    assert_eq!((accepted, total), (30, 30));
    let b = records(9, 1000, 30);
    let (pairs_before, stats) = client.probe(&b).unwrap();
    for i in 0..30u64 {
        assert!(pairs_before.contains(&(i, 1000 + i)), "missing pair {i}");
    }
    assert!(stats.candidates >= 30);

    // Streaming: a dirty copy of record 0 must match it; dedup-status
    // then reports the pair as one cluster.
    let mut dirty = a[0].clone();
    dirty.id = 5000;
    dirty.fields[0].push('X');
    let matches = client.stream(&dirty).unwrap();
    assert!(matches.contains(&0), "stream should match the original");
    let clusters = client.dedup_status().unwrap();
    assert!(clusters.iter().any(|c| c.contains(&0) && c.contains(&5000)));

    // Stats reflect the traffic; the streamed record joined the index.
    let stats = client.stats().unwrap();
    assert_eq!(stats.shards, 2);
    assert_eq!(stats.indexed, 31);
    assert_eq!(stats.streamed, 1);
    assert!(stats.requests_served >= 4);

    // Snapshot to the configured path, then shut down gracefully.
    let written = client.snapshot(None).unwrap();
    assert_eq!(written, snap_path.to_string_lossy());
    client.shutdown().unwrap();
    server.wait();

    // Restart from the snapshot; probes must answer identically and the
    // dedup history must survive.
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
    let (pairs_after, _) = client2.probe(&b).unwrap();
    let mut sorted_before = pairs_before.clone();
    sorted_before.sort_unstable();
    // The snapshot includes the streamed record (id 5000), which may match
    // additional probes; the original pairs must all still be present.
    for pair in &sorted_before {
        assert!(
            pairs_after.contains(pair),
            "lost pair {pair:?} after restart"
        );
    }
    let stats2 = client2.stats().unwrap();
    assert_eq!(stats2.indexed, 31);
    assert_eq!(stats2.streamed, 1);
    let clusters2 = client2.dedup_status().unwrap();
    assert!(clusters2
        .iter()
        .any(|c| c.contains(&0) && c.contains(&5000)));
    client2.shutdown().unwrap();
    server2.wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn backpressure_is_a_typed_reject_not_a_hang() {
    // One worker and a one-slot queue: while the worker chews a large
    // index request, concurrent requests must be rejected with the typed
    // Backpressure error instead of queueing without bound.
    let server = Server::spawn(pipeline(22, 1), server_config(1, 1)).unwrap();
    let addr = server.local_addr();

    // Occupy the worker from a separate thread (the reply blocks until
    // the whole batch is indexed).
    let slow = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.index(&records(3, 0, 5000)).unwrap();
    });

    let mut saw_backpressure = false;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    'outer: while std::time::Instant::now() < deadline {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    c.stats()
                })
            })
            .collect();
        for h in handles {
            if let Err(ClientError::Server(e)) = h.join().unwrap() {
                assert_eq!(e.code, ErrorCode::Backpressure);
                assert!(e.message.contains("queue full"));
                saw_backpressure = true;
                break 'outer;
            }
        }
        if slow.is_finished() {
            break;
        }
    }
    slow.join().unwrap();
    assert!(
        saw_backpressure,
        "no request was rejected while the queue was saturated"
    );

    // The server still answers normally after the burst.
    let mut c = Client::connect(addr).unwrap();
    let stats = c.stats().unwrap();
    assert!(stats.rejected_backpressure >= 1);
    c.shutdown().unwrap();
    server.wait();
}

#[test]
fn shutdown_bypasses_a_saturated_queue() {
    // Shutdown is answered inline by the reactor, so it must be
    // acknowledged even when every worker is busy and the job queue is
    // full — otherwise a loaded server could never be stopped remotely.
    let server = Server::spawn(pipeline(27, 1), server_config(1, 1)).unwrap();
    let addr = server.local_addr();

    // Occupy the single worker with a large index; its outcome depends on
    // whether it is dispatched before the shutdown flag flips, so accept
    // either a success or a typed rejection — never a hang or I/O error.
    let slow = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        match c.index(&records(5, 0, 5000)) {
            Ok(_) | Err(ClientError::Server(_)) => {}
            Err(other) => panic!("unexpected slow-index failure: {other:?}"),
        }
    });

    // Wait until the queue is demonstrably saturated: some concurrent
    // request gets the typed Backpressure reject (same probe pattern as
    // backpressure_is_a_typed_reject_not_a_hang).
    let mut saturated = false;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    'outer: while std::time::Instant::now() < deadline && !slow.is_finished() {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    c.stats()
                })
            })
            .collect();
        for h in handles {
            if let Err(ClientError::Server(e)) = h.join().unwrap() {
                if e.code == ErrorCode::Backpressure {
                    saturated = true;
                    break 'outer;
                }
            }
        }
    }
    assert!(saturated, "queue never saturated; test setup is broken");

    // The queue was full a moment ago and the worker is still chewing the
    // big index, yet Shutdown must be acknowledged, not rejected.
    let c = Client::connect(addr).unwrap();
    c.shutdown()
        .expect("shutdown must be acknowledged under saturation");
    slow.join().unwrap();
    server.wait();
}

#[test]
fn probe_error_is_typed_linkage_error() {
    let server = Server::spawn(pipeline(24, 1), ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    // Wrong field count → typed Linkage error, connection stays usable.
    let err = c.probe(&[Record::new(1, ["ONLY"])]).unwrap_err();
    match err {
        ClientError::Server(e) => assert_eq!(e.code, ErrorCode::Linkage),
        other => panic!("expected server error, got {other:?}"),
    }
    assert!(c.stats().is_ok());
    c.shutdown().unwrap();
    server.wait();
}

#[test]
fn snapshot_without_path_is_unavailable() {
    let server = Server::spawn(pipeline(25, 1), ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    let err = c.snapshot(None).unwrap_err();
    match err {
        ClientError::Server(e) => assert_eq!(e.code, ErrorCode::Unavailable),
        other => panic!("expected server error, got {other:?}"),
    }
    // An explicit path in the request works without server configuration.
    let dir = std::env::temp_dir().join("rl-loopback-snap-explicit");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("explicit.snap");
    let written = c.snapshot(Some(&path.to_string_lossy())).unwrap();
    assert_eq!(written, path.to_string_lossy());
    assert!(Snapshot::load(&path).is_ok());
    c.shutdown().unwrap();
    server.wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn client_times_out_on_unresponsive_server() {
    // Regression: the client had no read timeout, so a server that accepts
    // the connection but never answers hung the caller forever. The
    // listener here does exactly that: accept, then go silent.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let silent = std::thread::spawn(move || {
        // Hold the accepted socket open (without replying) until the test
        // is done with it, then drop.
        let (stream, _) = listener.accept().unwrap();
        std::thread::sleep(std::time::Duration::from_secs(2));
        drop(stream);
    });

    // The handshake is the first exchange, so it is where the silence
    // shows.
    let t0 = std::time::Instant::now();
    let err = Client::connect_with_timeout(addr, Some(std::time::Duration::from_millis(200)))
        .err()
        .expect("a silent server must not yield a client");
    assert!(
        matches!(err, ClientError::Timeout),
        "expected Timeout, got {err:?}"
    );
    // The call returned promptly (well before the 2s the server sits idle).
    assert!(t0.elapsed() < std::time::Duration::from_secs(1));
    silent.join().unwrap();
}

#[test]
fn client_timeout_is_tunable_on_live_connection() {
    let server = Server::spawn(pipeline(28, 1), ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    // Tightening then loosening the timeout must not break a healthy
    // connection.
    c.set_timeout(Some(std::time::Duration::from_millis(50)))
        .unwrap();
    assert!(c.stats().is_ok());
    c.set_timeout(None).unwrap();
    assert!(c.stats().is_ok());
    c.shutdown().unwrap();
    server.wait();
}

//! Loopback integration tests for streaming match subscriptions
//! (protocol v6): disjoint event streams for different rules, window
//! eviction over the wire, and the bounded-queue lag contract for slow
//! consumers.

mod common;

use common::{gauge, pipeline, stop, wait_for};
use rand::rngs::StdRng;
use rand::SeedableRng;
use record_linkage::cbv_hb::blocking::BlockingPlan;
use record_linkage::cbv_hb::matcher::Classifier;
use record_linkage::cbv_hb::{
    AttributeSpec, LinkageConfig, Record, RecordSchema, Rule, ShardedPipeline,
};
use record_linkage::obs::MetricsSnapshot;
use record_linkage::server::{
    Client, ClientError, ErrorCode, LateArrival, Server, ServerConfig, WatchEvent, WindowSpec,
};
use record_linkage::textdist::Alphabet;
use std::time::Duration;

fn spawn(seed: u64) -> Server {
    Server::spawn(pipeline(seed, 2), ServerConfig::default()).unwrap()
}

/// The `Metrics` reply once the subscription counters cover the `received`
/// events: every delivered event counted, with one delivery-latency sample
/// each. A stream thread counts an event just after writing it, so the
/// reader of that event can be a few instructions ahead — hence a bounded
/// wait rather than one look.
fn metrics_after_delivery(client: &mut Client, received: u64) -> MetricsSnapshot {
    let what = format!("{received} delivered events counted, one latency sample each");
    wait_for(&what, || {
        let m = client.metrics().unwrap();
        let events = m.counter_value("rl_sub_events_total", None).unwrap();
        let deliver = m.histogram_data("rl_sub_deliver_seconds", None).unwrap();
        (events >= received && deliver.data.count == events).then_some(m)
    })
}

/// Two subscriptions with different rules over the same stream see
/// disjoint event streams: the first-name rule fires only for first-name
/// twins, the last-name rule only for last-name twins.
#[test]
fn subscribers_receive_disjoint_event_streams() {
    let server = spawn(61);
    let addr = server.local_addr();

    let mut first_sub = Client::connect(addr).unwrap();
    let (first_id, first_tables) = first_sub
        .subscribe_matches(
            "0<=2",
            WindowSpec::Count(100),
            LateArrival::ApplyIfInWindow,
            0,
        )
        .unwrap();
    let mut last_sub = Client::connect(addr).unwrap();
    let (last_id, _) = last_sub
        .subscribe_matches(
            "1<=2",
            WindowSpec::Count(100),
            LateArrival::ApplyIfInWindow,
            0,
        )
        .unwrap();
    assert_ne!(first_id, last_id, "subscription ids are distinct");
    assert!(first_tables > 0, "single-predicate plan probes some tables");

    let mut producer = Client::connect(addr).unwrap();
    producer
        .index(&[Record::new(1, ["JOHNATHAN", "SMITHSON"])])
        .unwrap();
    // Same first name, unrelated last name → only the first-name rule.
    producer
        .index(&[Record::new(2, ["JOHNATHAN", "WILLOUGHBY"])])
        .unwrap();
    // Same last name, unrelated first name → only the last-name rule.
    producer
        .index(&[Record::new(3, ["BARTHOLOMEW", "SMITHSON"])])
        .unwrap();

    match first_sub.next_watch_event().unwrap() {
        WatchEvent::Match {
            sub_id,
            record_id,
            matched,
        } => {
            assert_eq!(sub_id, first_id);
            assert_eq!(record_id, 2);
            assert_eq!(matched, vec![1]);
        }
        other => panic!("expected a match event, got {other:?}"),
    }
    match last_sub.next_watch_event().unwrap() {
        WatchEvent::Match {
            sub_id,
            record_id,
            matched,
        } => {
            assert_eq!(sub_id, last_id);
            assert_eq!(record_id, 3, "last-name stream must not see record 2");
            assert_eq!(matched, vec![1]);
        }
        other => panic!("expected a match event, got {other:?}"),
    }

    let m = metrics_after_delivery(&mut producer, 2);
    assert_eq!(gauge(&m, "rl_subs_active"), 2, "two live subscribers");

    stop(server, [first_sub, last_sub, producer]);
}

/// A record pushed out of a count window stops producing matches; the
/// next event the subscriber sees skips the evicted pairing entirely.
#[test]
fn evicted_record_stops_matching_over_the_wire() {
    let server = spawn(62);
    let addr = server.local_addr();

    let mut sub = Client::connect(addr).unwrap();
    sub.subscribe_matches(
        "0<=2",
        WindowSpec::Count(2),
        LateArrival::ApplyIfInWindow,
        0,
    )
    .unwrap();

    let mut producer = Client::connect(addr).unwrap();
    producer
        .index(&[Record::new(1, ["JOHNATHAN", "ANDERSON"])])
        .unwrap();
    producer
        .index(&[Record::new(2, ["MARGARETH", "BUCHANAN"])])
        .unwrap();
    // Window holds {1, 2}; this admission evicts record 1.
    producer
        .index(&[Record::new(3, ["PETERSSON", "CALLOWAY"])])
        .unwrap();
    // Twin of the evicted record: must NOT produce an event.
    producer
        .index(&[Record::new(4, ["JOHNATHAN", "DAVIDSON"])])
        .unwrap();
    // Twin of a still-windowed record: produces the next event.
    producer
        .index(&[Record::new(5, ["PETERSSON", "ELLINGTON"])])
        .unwrap();

    // Events are delivered in order, so the first event proves record 4
    // matched nothing.
    match sub.next_watch_event().unwrap() {
        WatchEvent::Match {
            record_id, matched, ..
        } => {
            assert_eq!(
                record_id, 5,
                "evicted record 1 must not match record 4 (event matched {matched:?})"
            );
            assert_eq!(matched, vec![3]);
        }
        other => panic!("expected a match event, got {other:?}"),
    }

    // Five admissions through a window of two: the churn reached the
    // exported counters.
    let m = metrics_after_delivery(&mut producer, 1);
    let evictions = m.counter_value("rl_window_evictions_total", None).unwrap();
    assert!(evictions >= 5 - 2, "only {evictions} window evictions");
    assert_eq!(gauge(&m, "rl_subs_active"), 1, "one live subscriber");

    stop(server, [sub, producer]);
}

/// A subscriber that stops reading gets a typed `SubscriptionLagged`
/// (after its bounded queue overflows) instead of buffering the stream
/// without bound.
#[test]
fn slow_subscriber_gets_lagged_not_unbounded_memory() {
    let server = spawn(63);
    let addr = server.local_addr();

    let mut sub = Client::connect(addr).unwrap();
    sub.subscribe_matches(
        "0<=2",
        WindowSpec::Count(8192),
        LateArrival::ApplyIfInWindow,
        0,
    )
    .unwrap();

    // Burst far more event volume than the bounded per-subscription queue
    // (64 events) plus socket buffers can hold, without reading: every
    // record shares a first name, so event k carries k-1 matched ids and
    // the aggregate payload reaches megabytes.
    let n = 2500u64;
    let records: Vec<Record> = (0..n)
        .map(|i| Record::new(i + 1, ["JOHNATHAN".into(), format!("LAST{i:04}")]))
        .collect();
    let mut producer = Client::connect(addr).unwrap();
    producer.index(&records).unwrap();

    // Now drain: some match events, then the typed lag notice, then EOF.
    let mut delivered = 0u64;
    let mut lagged = None;
    for _ in 0..=n {
        match sub.next_watch_event() {
            Ok(WatchEvent::Match { .. }) => delivered += 1,
            Ok(WatchEvent::Lagged { dropped }) => {
                lagged = Some(dropped);
                break;
            }
            Err(e) => panic!("expected Lagged before any error, got {e:?}"),
        }
    }
    let dropped = lagged.expect("slow subscriber must receive SubscriptionLagged");
    assert!(dropped > 0, "lag notice reports dropped events");
    assert!(
        delivered < n - 1,
        "some events must have been shed, delivered {delivered}/{}",
        n - 1
    );

    stop(server, [sub, producer]);
}

/// `Unsubscribe` through a second connection tears the subscription down:
/// the server stops the stream and the subscriber's connection ends.
#[test]
fn unsubscribe_from_another_connection_ends_the_stream() {
    let server = spawn(64);
    let addr = server.local_addr();

    let mut sub = Client::connect(addr).unwrap();
    let (sub_id, _) = sub
        .subscribe_matches(
            "0<=2",
            WindowSpec::Count(10),
            LateArrival::ApplyIfInWindow,
            0,
        )
        .unwrap();

    let mut admin = Client::connect(addr).unwrap();
    assert!(admin.unsubscribe(sub_id).unwrap(), "live id removes");
    assert!(
        !admin.unsubscribe(sub_id).unwrap(),
        "second call is a no-op"
    );

    // The serving loop notices the dropped channel and closes; the next
    // read fails rather than blocking forever.
    assert!(sub.next_watch_event().is_err());

    admin.shutdown().unwrap();
    server.wait();
}

/// A streaming verb owns its connection whether it is accepted or
/// refused: a refusal is one typed error, then the server closes.
#[test]
fn refused_subscription_is_a_typed_error_then_close() {
    let server = spawn(65);
    let addr = server.local_addr();

    let mut sub = Client::connect(addr).unwrap();
    match sub.subscribe_matches("not a rule", WindowSpec::Count(10), LateArrival::Drop, 0) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Parse, "{}", e.message),
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    match sub.next_watch_event() {
        Err(ClientError::Protocol(msg)) => assert!(msg.contains("closed"), "{msg}"),
        other => panic!("the refused connection must be closed, got {other:?}"),
    }
    // After a reconnect the client is a request/reply client again.
    sub.reconnect().unwrap();
    assert_eq!(sub.stats().unwrap().indexed, 0);

    sub.shutdown().unwrap();
    server.wait();
}

/// A rule nested past the parser's bound of 128 — 20 000 `(` in a 40 KB
/// frame, which overflowed the connection thread's stack and aborted the
/// server before the bound — is refused with a typed `Parse` error, and
/// the server still answers a new connection.
#[test]
fn a_deeply_nested_rule_is_a_typed_parse_error() {
    let server = spawn(67);
    let addr = server.local_addr();

    let mut sub = Client::connect(addr).unwrap();
    let rule = format!("{}0<=2{}", "(".repeat(20_000), ")".repeat(20_000));
    match sub.subscribe_matches(&rule, WindowSpec::Count(10), LateArrival::Drop, 0) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::Parse, "{}", e.message);
            assert!(e.message.contains("deeper than 128"), "{}", e.message);
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    let mut fresh = Client::connect(addr).unwrap();
    assert_eq!(fresh.stats().unwrap().indexed, 0);

    stop(server, [sub, fresh]);
}

/// `wait()` joins the streaming threads the reactor detached: once it
/// returns, a live subscription's connection has already been closed —
/// nothing is still writing to a socket behind the final WAL sync and
/// shutdown snapshot.
#[test]
fn wait_returns_only_after_a_live_subscription_stream_has_ended() {
    let server = spawn(66);
    let addr = server.local_addr();

    let mut sub = Client::connect(addr).unwrap();
    sub.subscribe_matches("0<=2", WindowSpec::Count(10), LateArrival::Drop, 0)
        .unwrap();

    server.shutdown();
    server.wait();

    // No waiting allowed: whatever the stream wrote is already buffered
    // and the close already happened, or the thread outlived `wait()`.
    sub.set_timeout(Some(Duration::from_millis(1))).unwrap();
    match sub.next_watch_event() {
        Err(ClientError::Protocol(msg)) => assert!(msg.contains("closed"), "{msg}"),
        other => panic!("stream thread still alive after wait(): {other:?}"),
    }
}

/// A subscription compiles its own rule: a server whose classifier is a
/// threshold on another attribute than the subscription's rule serves it
/// by the subscription's rule.
#[test]
fn a_threshold_classifier_server_serves_subscriptions() {
    let mut rng = StdRng::seed_from_u64(68);
    let schema = RecordSchema::build(
        Alphabet::linkage(),
        vec![
            AttributeSpec::new("FirstName", 2, 64, false, 5),
            AttributeSpec::new("LastName", 2, 64, false, 5),
        ],
        &mut rng,
    );
    let config = LinkageConfig::record_level(Rule::pred(0, 8), 8, 10);
    let plan = BlockingPlan::from_config(&schema, &config, &mut rng).unwrap();
    let classifier = Classifier::Rule(Rule::pred(1, 8));
    let pipeline = ShardedPipeline::from_parts(schema, plan, classifier, 2).unwrap();
    let server = Server::spawn(pipeline, ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut sub = Client::connect(addr).unwrap();
    sub.subscribe_matches(
        "0<=2",
        WindowSpec::Count(10),
        LateArrival::ApplyIfInWindow,
        0,
    )
    .unwrap();
    let mut producer = Client::connect(addr).unwrap();
    producer
        .index(&[Record::new(1, ["JOHNATHAN", "SMITHSON"])])
        .unwrap();
    producer
        .index(&[Record::new(2, ["JOHNATHAN", "SMITHSON"])])
        .unwrap();
    match sub.next_watch_event().unwrap() {
        WatchEvent::Match {
            record_id, matched, ..
        } => {
            assert_eq!(record_id, 2);
            assert_eq!(matched, vec![1]);
        }
        other => panic!("expected a match event, got {other:?}"),
    }

    stop(server, [sub, producer]);
}

//! Loopback test for the observability layer (protocol v3): drive a real
//! server through index / probe / stream / stats traffic, then assert the
//! `Metrics` reply carries the per-request-type counters, the queue-wait /
//! execution latency split, the pipeline phase timers — and that the
//! Prometheus rendering is a valid exposition document.

mod common;

use common::{gauge, pipeline};
use record_linkage::cbv_hb::Record;
use record_linkage::obs::encode_prometheus;
use record_linkage::server::{Client, Server, ServerConfig, PROTOCOL_VERSION};

#[test]
fn metrics_cover_request_lifecycle() {
    let server = Server::spawn(pipeline(31, 2), ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();

    assert_eq!(c.stats().unwrap().protocol_version, PROTOCOL_VERSION);

    c.index(&[
        Record::new(1, ["JOHN", "SMITH"]),
        Record::new(2, ["MARY", "JONES"]),
    ])
    .unwrap();
    for _ in 0..3 {
        let (pairs, _) = c.probe(&[Record::new(10, ["JON", "SMITH"])]).unwrap();
        assert_eq!(pairs, vec![(1, 10)]);
    }
    c.stream(&Record::new(20, ["JOHN", "SMITH"])).unwrap();
    // One failing probe: the error counter must tick.
    assert!(c.probe(&[Record::new(9, ["ONLY"])]).is_err());

    let m = c.metrics().unwrap();

    // Per-request-type counters.
    assert_eq!(m.counter_value("rl_requests_total", Some("index")), Some(1));
    assert_eq!(m.counter_value("rl_requests_total", Some("probe")), Some(4));
    assert_eq!(
        m.counter_value("rl_requests_total", Some("stream")),
        Some(1)
    );
    assert_eq!(
        m.counter_value("rl_request_errors_total", Some("probe")),
        Some(1)
    );
    // The Metrics request itself is counted from the second call on; this
    // first snapshot was taken mid-execution, so it reads 0.
    assert_eq!(
        m.counter_value("rl_requests_total", Some("metrics")),
        Some(0)
    );

    // Latency split: both phases sampled once per executed request.
    let wait = m
        .histogram_data("rl_request_queue_wait_seconds", Some("probe"))
        .unwrap();
    let exec = m
        .histogram_data("rl_request_exec_seconds", Some("probe"))
        .unwrap();
    assert_eq!(wait.data.count, 4);
    assert_eq!(exec.data.count, 4);
    assert!(exec.data.quantile(0.99) >= exec.data.quantile(0.50));
    // Each of the four was one record, alone in its turn of the reactor's
    // loop with every lock free: executed there, none passed to the pool.
    assert_eq!(probe_paths(&m), (4, 0));

    // Pipeline phase timers recorded by the sharded engine: one embed +
    // match pair per probe/stream link, embed + block per index.
    let embed = m
        .histogram_data("rl_pipeline_phase_seconds", Some("embed"))
        .unwrap();
    assert!(embed.data.count >= 5, "embed count {}", embed.data.count);
    let matching = m
        .histogram_data("rl_pipeline_phase_seconds", Some("match"))
        .unwrap();
    assert!(matching.data.count >= 4);
    let block = m
        .histogram_data("rl_pipeline_phase_seconds", Some("block"))
        .unwrap();
    assert!(block.data.count >= 1);
    let observe = m.histogram_data("rl_stream_observe_seconds", None).unwrap();
    assert_eq!(observe.data.count, 1);

    // Gauges track index/stream totals (2 indexed + 1 streamed).
    assert_eq!(gauge(&m, "rl_indexed_records"), 3);
    assert_eq!(gauge(&m, "rl_streamed_records"), 1);

    // The other path: a 16-record probe is the pool's whatever the turn
    // looks like, and is no candidate for the reactor — neither counter
    // moves. Pipelined single-record probes are candidates, each served by
    // whichever path its turn allowed. Both paths book one queue-wait and
    // one exec sample per probe.
    let batch: Vec<Record> = (100..116)
        .map(|i| Record::new(i, ["JON", "SMITH"]))
        .collect();
    assert_eq!(c.probe(&batch).unwrap().0.len(), 2 * batch.len());
    let singles: Vec<Vec<Record>> = batch.iter().map(|r| vec![r.clone()]).collect();
    assert_eq!(c.probe_pipelined(&singles, 8).unwrap().len(), singles.len());

    // A second Metrics call sees the first one counted.
    let m2 = c.metrics().unwrap();
    assert_eq!(
        m2.counter_value("rl_requests_total", Some("metrics")),
        Some(1)
    );
    let probes = 4 + 1 + singles.len() as u64;
    assert_eq!(
        m2.counter_value("rl_requests_total", Some("probe")),
        Some(probes)
    );
    for phase in ["rl_request_queue_wait_seconds", "rl_request_exec_seconds"] {
        let samples = m2.histogram_data(phase, Some("probe")).unwrap().data.count;
        assert_eq!(samples, probes, "{phase}");
    }
    let (inline, declined) = probe_paths(&m2);
    assert!(inline >= 4, "the lone probes stay counted: {inline}");
    assert_eq!(
        inline + declined,
        probes - 1,
        "every single-record probe, once"
    );

    c.shutdown().unwrap();
    server.wait();
}

/// Single-record probes (the reactor executed, the reactor passed to the
/// pool for either reason).
fn probe_paths(m: &record_linkage::obs::MetricsSnapshot) -> (u64, u64) {
    let count = |name, label| m.counter_value(name, label).unwrap();
    let declined = "rl_probes_inline_declined_total";
    (
        count("rl_probes_inline_total", None),
        count(declined, Some("lock_busy")) + count(declined, Some("not_alone")),
    )
}

#[test]
fn prometheus_rendering_is_valid_exposition() {
    let server = Server::spawn(pipeline(32, 1), ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.index(&[Record::new(1, ["JOHN", "SMITH"])]).unwrap();
    c.probe(&[Record::new(10, ["JON", "SMITH"])]).unwrap();
    let text = encode_prometheus(&c.metrics().unwrap());

    // Line-level validity: every line is `# HELP`/`# TYPE` or a sample
    // with a parseable value; HELP/TYPE appear exactly once per name.
    let mut seen_types = std::collections::HashMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().unwrap().to_string();
            let kind = parts.next().unwrap();
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "bad kind: {line}"
            );
            *seen_types.entry(name).or_insert(0) += 1;
            continue;
        }
        if line.starts_with('#') {
            assert!(line.starts_with("# HELP "), "bad comment: {line}");
            continue;
        }
        let (name_part, value) = line.rsplit_once(' ').expect("sample needs a value");
        assert!(!name_part.is_empty());
        assert!(
            value == "+Inf" || value.parse::<f64>().is_ok(),
            "unparseable value: {line}"
        );
    }
    for (name, count) in &seen_types {
        assert_eq!(*count, 1, "duplicate TYPE for {name}");
    }
    assert!(seen_types.contains_key("rl_requests_total"));
    assert!(seen_types.contains_key("rl_request_exec_seconds"));
    assert!(seen_types.contains_key("rl_pipeline_phase_seconds"));
    // Streaming-subscription metrics (protocol v6) are registered from
    // startup, before any subscriber connects.
    assert!(seen_types.contains_key("rl_subs_active"));
    assert!(seen_types.contains_key("rl_sub_events_total"));
    assert!(seen_types.contains_key("rl_sub_lagged_total"));
    assert!(seen_types.contains_key("rl_window_evictions_total"));
    assert!(seen_types.contains_key("rl_sub_deliver_seconds"));
    // Histogram structure: cumulative buckets end at the +Inf total.
    assert!(text.contains("rl_request_exec_seconds_bucket"));
    assert!(text.contains("le=\"+Inf\""));
    assert!(text.contains("rl_request_exec_seconds_sum"));
    assert!(text.contains("rl_request_exec_seconds_count"));

    c.shutdown().unwrap();
    server.wait();
}

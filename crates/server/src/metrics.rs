//! Server-side observability: per-request-type counters and latency
//! histograms, merged with the pipeline's phase timers in one registry.
//!
//! Every request's latency is split into **queue wait** (enqueue →
//! worker pickup, a direct saturation signal; zero for a probe the
//! reactor executed itself) and **execution** (time inside the handler,
//! on whichever thread ran it). Both are recorded per request type
//! into `rl-obs` log-linear histograms, so shard- or replica-level
//! snapshots merge exactly. The whole registry is served by the
//! `Metrics` request (protocol v3) and renders to Prometheus text via
//! [`rl_obs::encode_prometheus`]. See `docs/OBSERVABILITY.md`.

use crate::protocol::wire::Verb;
use crate::protocol::Request;
use cbv_hb::pipeline::PipelineMetrics;
use rl_obs::{Counter, Gauge, Histogram, MetricsSnapshot, Registry, Unit};
use std::sync::Arc;
use std::time::Duration;

/// The request types tracked by per-type metrics, in label order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqType {
    /// `Index` requests.
    Index,
    /// `Probe` requests.
    Probe,
    /// `Stream` requests.
    Stream,
    /// `DedupStatus` requests.
    DedupStatus,
    /// `Stats` requests.
    Stats,
    /// `Metrics` requests.
    Metrics,
    /// `Snapshot` requests.
    Snapshot,
    /// `Insert` requests (durable insert, protocol v4).
    Insert,
    /// `Delete` requests (durable delete, protocol v4).
    Delete,
    /// `Shutdown` requests (handled inline, so they never acquire
    /// queue-wait samples; the counter still tracks them).
    Shutdown,
    /// `FetchCheckpoint` requests (protocol v5; streamed inline on the
    /// connection, so no queue-wait/exec samples).
    FetchCheckpoint,
    /// `Subscribe` requests (protocol v5; streamed inline on the
    /// connection, so no queue-wait/exec samples).
    Subscribe,
    /// `ReplStatus` requests (protocol v5).
    ReplStatus,
    /// `Promote` requests (protocol v5).
    Promote,
    /// `SubscribeMatches` requests (protocol v6; streamed inline on the
    /// connection, so no queue-wait/exec samples).
    SubscribeMatches,
    /// `Unsubscribe` requests (protocol v6).
    Unsubscribe,
    /// `Upgrade` requests (protocol v7 binary-wire negotiation; handled
    /// inline on the connection, so no queue-wait/exec samples).
    Upgrade,
    /// `GetShardMap` requests (protocol v10).
    GetShardMap,
    /// `Reshard` requests (protocol v10).
    Reshard,
    /// `MigrationStatus` requests (protocol v10).
    MigrationStatus,
}

/// All request types, in the order used for per-type metric arrays.
pub const REQ_TYPES: [ReqType; 20] = [
    ReqType::Index,
    ReqType::Probe,
    ReqType::Stream,
    ReqType::DedupStatus,
    ReqType::Stats,
    ReqType::Metrics,
    ReqType::Snapshot,
    ReqType::Insert,
    ReqType::Delete,
    ReqType::Shutdown,
    ReqType::FetchCheckpoint,
    ReqType::Subscribe,
    ReqType::ReplStatus,
    ReqType::Promote,
    ReqType::SubscribeMatches,
    ReqType::Unsubscribe,
    ReqType::Upgrade,
    ReqType::GetShardMap,
    ReqType::Reshard,
    ReqType::MigrationStatus,
];

impl ReqType {
    /// The `type` label value for this request type.
    pub fn label(self) -> &'static str {
        match self {
            ReqType::Index => "index",
            ReqType::Probe => "probe",
            ReqType::Stream => "stream",
            ReqType::DedupStatus => "dedup_status",
            ReqType::Stats => "stats",
            ReqType::Metrics => "metrics",
            ReqType::Snapshot => "snapshot",
            ReqType::Insert => "insert",
            ReqType::Delete => "delete",
            ReqType::Shutdown => "shutdown",
            ReqType::FetchCheckpoint => "fetch_checkpoint",
            ReqType::Subscribe => "subscribe",
            ReqType::ReplStatus => "repl_status",
            ReqType::Promote => "promote",
            ReqType::SubscribeMatches => "subscribe_matches",
            ReqType::Unsubscribe => "unsubscribe",
            ReqType::Upgrade => "upgrade",
            ReqType::GetShardMap => "get_shard_map",
            ReqType::Reshard => "reshard",
            ReqType::MigrationStatus => "migration_status",
        }
    }

    /// Classifies a wire request.
    pub fn of(request: &Request) -> Self {
        match request {
            Request::Index { .. } => ReqType::Index,
            Request::Probe { .. } => ReqType::Probe,
            Request::Stream { .. } => ReqType::Stream,
            Request::DedupStatus => ReqType::DedupStatus,
            Request::Stats => ReqType::Stats,
            Request::Metrics => ReqType::Metrics,
            Request::Snapshot { .. } => ReqType::Snapshot,
            Request::Insert { .. } => ReqType::Insert,
            Request::Delete { .. } => ReqType::Delete,
            Request::Shutdown => ReqType::Shutdown,
            Request::FetchCheckpoint => ReqType::FetchCheckpoint,
            Request::Subscribe { .. } => ReqType::Subscribe,
            Request::ReplStatus => ReqType::ReplStatus,
            Request::Promote => ReqType::Promote,
            Request::SubscribeMatches { .. } => ReqType::SubscribeMatches,
            Request::Unsubscribe { .. } => ReqType::Unsubscribe,
            Request::Upgrade { .. } => ReqType::Upgrade,
            Request::GetShardMap => ReqType::GetShardMap,
            Request::Reshard { .. } => ReqType::Reshard,
            Request::MigrationStatus => ReqType::MigrationStatus,
        }
    }

    /// Classifies a request whose binary body carries records.
    pub fn of_verb(verb: Verb) -> Self {
        match verb {
            Verb::Probe => ReqType::Probe,
            Verb::Index => ReqType::Index,
            Verb::Insert => ReqType::Insert,
        }
    }

    /// The type's position in [`REQ_TYPES`], which lists the variants in
    /// declaration order (`req_type_labels_are_unique_and_ordered` holds
    /// it): its discriminant.
    fn idx(self) -> usize {
        self as usize
    }
}

/// The server's metric handles, one registry per server.
pub struct ServerMetrics {
    registry: Registry,
    requests: Vec<Arc<Counter>>,
    errors: Vec<Arc<Counter>>,
    queue_wait: Vec<Arc<Histogram>>,
    exec: Vec<Arc<Histogram>>,
    /// Requests rejected with `Backpressure` (no type: they are counted
    /// before the request is executed).
    pub rejected_backpressure: Arc<Counter>,
    /// Requests slower end-to-end than the configured threshold.
    pub slow_requests: Arc<Counter>,
    /// Single-record probes the reactor executed itself
    /// (`rl_probes_inline_total`).
    pub probes_inline: Arc<Counter>,
    /// Single-record probes that went to the pool because a lock was held
    /// exclusively (`rl_probes_inline_declined_total{reason="lock_busy"}`).
    pub probes_declined_busy: Arc<Counter>,
    /// Single-record probes that went to the pool because the reactor had
    /// other requests to dispatch in the same turn
    /// (`rl_probes_inline_declined_total{reason="not_alone"}`).
    pub probes_declined_not_alone: Arc<Counter>,
    /// Handlers that panicked; each was answered with a typed `internal:`
    /// error and the thread kept serving (`rl_handler_panics_total`).
    pub handler_panics: Arc<Counter>,
    /// Records currently indexed (restored + indexed + streamed).
    pub indexed_records: Arc<Gauge>,
    /// Records observed through `Stream` since startup (or restore).
    pub streamed_records: Arc<Gauge>,
    /// Frames appended to the write-ahead log since startup
    /// (`rl_wal_appends_total`). Stays 0 without `--data-dir`.
    pub wal_appends: Arc<Counter>,
    /// Live WAL bytes across retained segments (`rl_wal_bytes`); drops
    /// when a checkpoint prunes covered segments.
    pub wal_bytes: Arc<Gauge>,
    /// Checkpoints committed since startup (`rl_checkpoints_total`).
    pub checkpoints: Arc<Counter>,
    /// Ops replayed from the WAL during startup recovery.
    pub replayed_ops: Arc<Gauge>,
    /// Startup recovery time (checkpoint load + WAL replay), in
    /// milliseconds (`rl_replay_duration_ms`).
    pub replay_duration_ms: Arc<Gauge>,
    /// Follower: ops the primary has that this node has not applied
    /// (`rl_repl_lag_frames`). 0 when caught up or not replicating.
    pub repl_lag_frames: Arc<Gauge>,
    /// Follower: WAL bytes between this node's stream position and the
    /// primary head, from the last heartbeat (`rl_repl_lag_bytes`).
    pub repl_lag_bytes: Arc<Gauge>,
    /// Primary: live WAL subscriptions being served
    /// (`rl_repl_followers`).
    pub repl_followers: Arc<Gauge>,
    /// Follower: subscription reconnects since startup
    /// (`rl_repl_reconnects_total`).
    pub repl_reconnects: Arc<Counter>,
    /// Live match subscriptions being served (`rl_subs_active`).
    pub subs_active: Arc<Gauge>,
    /// Match events delivered to subscribers (`rl_sub_events_total`).
    pub sub_events: Arc<Counter>,
    /// Subscriptions terminated with `SubscriptionLagged`
    /// (`rl_sub_lagged_total`).
    pub sub_lagged: Arc<Counter>,
    /// Records evicted from subscription windows
    /// (`rl_window_evictions_total`).
    pub window_evictions: Arc<Counter>,
    /// Observe-to-delivery latency for match events
    /// (`rl_sub_deliver_seconds`).
    pub sub_deliver: Arc<Histogram>,
    /// Largest blocking bucket across structures and shards
    /// (`rl_block_max_bucket`). Refreshed on every `Stats` request.
    pub block_max_bucket: Arc<Gauge>,
    /// p99 bucket occupancy across structures (`rl_block_p99_bucket`):
    /// 99% of buckets hold at most this many ids.
    pub block_p99_bucket: Arc<Gauge>,
    /// Inserts discarded by a `drop` block cap (`rl_block_dropped`).
    pub block_dropped: Arc<Gauge>,
    /// Bytes of on-disk blocking generations (`rl_block_disk_bytes`);
    /// 0 for the in-memory store.
    pub block_disk_bytes: Arc<Gauge>,
    /// Heap bytes held by the blocking tables — directories, id arenas
    /// (`rl_block_heap_bytes`); an mmap store's delta overlay.
    pub block_heap_bytes: Arc<Gauge>,
    /// Heap bytes the shards' record slabs hold: chunks of cells (ids and
    /// packed rows), id → slot indexes, free lists (`rl_record_heap_bytes`).
    pub record_heap_bytes: Arc<Gauge>,
    /// Online-reshard phase (`rl_reshard_state`): 0 idle, 1 copying,
    /// 2 cutover.
    pub reshard_state: Arc<Gauge>,
    /// Records the background migrator has copied to the target shard
    /// (`rl_reshard_migrated_records`); resets when a migration starts.
    pub reshard_migrated: Arc<Gauge>,
    /// Records still to copy before cutover (`rl_reshard_lag_ops`); 0
    /// when no migration runs.
    pub reshard_lag: Arc<Gauge>,
    /// Background blocking-store compaction sweeps completed
    /// (`rl_compactions_total`).
    pub compactions: Arc<Counter>,
    /// Pipeline phase timers (embed / block / match, stream observe),
    /// shared with the `ShardedPipeline`, which records into them on
    /// whichever thread runs the call.
    pub pipeline: Arc<PipelineMetrics>,
}

impl ServerMetrics {
    /// Builds the registry (prefix `rl`) and registers every metric.
    pub fn new() -> Arc<Self> {
        let registry = Registry::new("rl");
        let per_type = |name: &str, help: &str| -> Vec<Arc<Counter>> {
            REQ_TYPES
                .iter()
                .map(|t| registry.counter(name, help, &[("type", t.label())]))
                .collect()
        };
        let per_type_hist = |name: &str, help: &str| -> Vec<Arc<Histogram>> {
            REQ_TYPES
                .iter()
                .map(|t| registry.histogram(name, help, &[("type", t.label())], Unit::Seconds))
                .collect()
        };
        let requests = per_type("requests_total", "Requests executed, by type");
        let errors = per_type(
            "request_errors_total",
            "Requests answered with an error, by type",
        );
        let queue_wait = per_type_hist(
            "request_queue_wait_seconds",
            "Time from enqueue to worker pickup",
        );
        let exec = per_type_hist(
            "request_exec_seconds",
            "Handler execution time (queue wait excluded)",
        );
        let rejected_backpressure = registry.counter(
            "rejected_backpressure_total",
            "Requests rejected because the work queue was full",
            &[],
        );
        let slow_requests = registry.counter(
            "slow_requests_total",
            "Requests slower end-to-end than the slow-request threshold",
            &[],
        );
        let probes_inline = registry.counter(
            "probes_inline_total",
            "Single-record probes executed on the reactor thread",
            &[],
        );
        let probes_declined_busy = registry.counter(
            "probes_inline_declined_total",
            "Single-record probes sent to the pool instead of the reactor, by reason",
            &[("reason", "lock_busy")],
        );
        let probes_declined_not_alone = registry.counter(
            "probes_inline_declined_total",
            "Single-record probes sent to the pool instead of the reactor, by reason",
            &[("reason", "not_alone")],
        );
        let handler_panics = registry.counter(
            "handler_panics_total",
            "Handlers that panicked and were answered with a typed internal error",
            &[],
        );
        let indexed_records = registry.gauge("indexed_records", "Records in the index", &[]);
        let streamed_records =
            registry.gauge("streamed_records", "Records observed via Stream", &[]);
        let wal_appends = registry.counter(
            "wal_appends_total",
            "Frames appended to the write-ahead log",
            &[],
        );
        let wal_bytes = registry.gauge(
            "wal_bytes",
            "Live write-ahead-log bytes across retained segments",
            &[],
        );
        let checkpoints = registry.counter(
            "checkpoints_total",
            "Checkpoints committed (snapshot + WAL prune)",
            &[],
        );
        let replayed_ops = registry.gauge(
            "replayed_ops",
            "WAL ops replayed during startup recovery",
            &[],
        );
        let replay_duration_ms = registry.gauge(
            "replay_duration_ms",
            "Startup recovery time (checkpoint load + WAL replay), milliseconds",
            &[],
        );
        let repl_lag_frames = registry.gauge(
            "repl_lag_frames",
            "Ops behind the primary (followers; 0 when caught up)",
            &[],
        );
        let repl_lag_bytes = registry.gauge(
            "repl_lag_bytes",
            "WAL bytes behind the primary head (followers)",
            &[],
        );
        let repl_followers = registry.gauge(
            "repl_followers",
            "Live WAL subscriptions served (primaries)",
            &[],
        );
        let repl_reconnects = registry.counter(
            "repl_reconnects_total",
            "Replication subscription reconnects",
            &[],
        );
        let subs_active = registry.gauge("subs_active", "Live match subscriptions", &[]);
        let sub_events = registry.counter(
            "sub_events_total",
            "Match events delivered to subscribers",
            &[],
        );
        let sub_lagged = registry.counter(
            "sub_lagged_total",
            "Subscriptions dropped for lagging behind their event queue",
            &[],
        );
        let window_evictions = registry.counter(
            "window_evictions_total",
            "Records evicted from subscription windows",
            &[],
        );
        let sub_deliver = registry.histogram(
            "sub_deliver_seconds",
            "Observe-to-delivery latency for match events",
            &[],
            Unit::Seconds,
        );
        let block_max_bucket = registry.gauge(
            "block_max_bucket",
            "Largest blocking bucket across structures and shards",
            &[],
        );
        let block_p99_bucket = registry.gauge(
            "block_p99_bucket",
            "p99 blocking-bucket occupancy (99% of buckets are at most this large)",
            &[],
        );
        let block_dropped = registry.gauge(
            "block_dropped",
            "Inserts discarded by a drop-mode block cap",
            &[],
        );
        let block_disk_bytes = registry.gauge(
            "block_disk_bytes",
            "Bytes of on-disk blocking-table generation files",
            &[],
        );
        let block_heap_bytes = registry.gauge(
            "block_heap_bytes",
            "Heap bytes held by the blocking tables (directories, id arenas, free lists)",
            &[],
        );
        let record_heap_bytes = registry.gauge(
            "record_heap_bytes",
            "Heap bytes held by the record slabs (cells of ids and packed rows, id-to-slot indexes, free lists)",
            &[],
        );
        let reshard_state = registry.gauge(
            "reshard_state",
            "Online-reshard phase: 0 idle, 1 copying, 2 cutover",
            &[],
        );
        let reshard_migrated = registry.gauge(
            "reshard_migrated_records",
            "Records copied to the target shard by the running migration",
            &[],
        );
        let reshard_lag = registry.gauge(
            "reshard_lag_ops",
            "Records still to copy before the reshard cutover",
            &[],
        );
        let compactions = registry.counter(
            "compactions_total",
            "Background blocking-store compaction sweeps completed",
            &[],
        );
        let pipeline = PipelineMetrics::register(&registry);
        Arc::new(Self {
            registry,
            requests,
            errors,
            queue_wait,
            exec,
            rejected_backpressure,
            slow_requests,
            probes_inline,
            probes_declined_busy,
            probes_declined_not_alone,
            handler_panics,
            indexed_records,
            streamed_records,
            wal_appends,
            wal_bytes,
            checkpoints,
            replayed_ops,
            replay_duration_ms,
            repl_lag_frames,
            repl_lag_bytes,
            repl_followers,
            repl_reconnects,
            subs_active,
            sub_events,
            sub_lagged,
            window_evictions,
            sub_deliver,
            block_max_bucket,
            block_p99_bucket,
            block_dropped,
            block_disk_bytes,
            block_heap_bytes,
            record_heap_bytes,
            reshard_state,
            reshard_migrated,
            reshard_lag,
            compactions,
            pipeline,
        })
    }

    /// Refreshes the blocking-store gauges from merged structure stats, and
    /// the record-store gauge (called whenever the server aggregates them,
    /// e.g. on `Stats`).
    pub fn update_block_gauges(
        &self,
        blocking: &[cbv_hb::blocking::StructureStats],
        record_heap_bytes: u64,
    ) {
        self.record_heap_bytes.set(record_heap_bytes as i64);
        self.block_max_bucket
            .set(blocking.iter().map(|s| s.max_bucket).max().unwrap_or(0) as i64);
        self.block_p99_bucket
            .set(blocking.iter().map(|s| s.p99_bucket()).max().unwrap_or(0) as i64);
        self.block_dropped
            .set(blocking.iter().map(|s| s.dropped).sum::<u64>() as i64);
        self.block_disk_bytes
            .set(blocking.iter().map(|s| s.on_disk_bytes).sum::<u64>() as i64);
        self.block_heap_bytes
            .set(blocking.iter().map(|s| s.heap_bytes).sum::<u64>() as i64);
    }

    /// One streaming request (`FetchCheckpoint` / `Subscribe`): served
    /// inline on the connection thread, so only the request counter moves
    /// — there is no queue wait and no bounded execution to time.
    pub fn record_streaming(&self, rtype: ReqType) {
        self.requests[rtype.idx()].inc();
    }

    /// One executed request: bumps the type's counter (and its error
    /// counter when `ok` is false) and records both latency phases.
    pub fn record_request(&self, rtype: ReqType, queue_wait: Duration, exec: Duration, ok: bool) {
        let i = rtype.idx();
        self.requests[i].inc();
        if !ok {
            self.errors[i].inc();
        }
        self.queue_wait[i].observe_duration(queue_wait);
        self.exec[i].observe_duration(exec);
    }

    /// Point-in-time view of every metric (the `Metrics` reply payload).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn req_type_labels_are_unique_and_ordered() {
        let labels: Vec<&str> = REQ_TYPES.iter().map(|t| t.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len(), "duplicate label");
        for (i, t) in REQ_TYPES.iter().enumerate() {
            assert_eq!(t.idx(), i);
        }
    }

    #[test]
    fn record_request_updates_counters_and_histograms() {
        let m = ServerMetrics::new();
        m.record_request(
            ReqType::Probe,
            Duration::from_micros(50),
            Duration::from_millis(2),
            true,
        );
        m.record_request(
            ReqType::Probe,
            Duration::from_micros(10),
            Duration::from_millis(1),
            false,
        );
        m.record_request(
            ReqType::Stats,
            Duration::ZERO,
            Duration::from_micros(3),
            true,
        );
        let s = m.snapshot();
        assert_eq!(s.counter_value("rl_requests_total", Some("probe")), Some(2));
        assert_eq!(s.counter_value("rl_requests_total", Some("stats")), Some(1));
        assert_eq!(s.counter_value("rl_requests_total", Some("index")), Some(0));
        assert_eq!(
            s.counter_value("rl_request_errors_total", Some("probe")),
            Some(1)
        );
        let exec = s
            .histogram_data("rl_request_exec_seconds", Some("probe"))
            .unwrap();
        assert_eq!(exec.data.count, 2);
        let wait = s
            .histogram_data("rl_request_queue_wait_seconds", Some("probe"))
            .unwrap();
        assert_eq!(wait.data.count, 2);
    }

    #[test]
    fn request_classification_covers_every_variant() {
        assert_eq!(ReqType::of(&Request::Metrics), ReqType::Metrics);
        assert_eq!(ReqType::of(&Request::Stats), ReqType::Stats);
        assert_eq!(
            ReqType::of(&Request::Probe { records: vec![] }),
            ReqType::Probe
        );
        assert_eq!(ReqType::of(&Request::Shutdown), ReqType::Shutdown);
    }
}

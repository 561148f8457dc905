//! The wire protocol: the request/response types and their `rl-wire`
//! frame envelopes.
//!
//! A connection opens with exactly one JSON line, [`Request::Upgrade`],
//! answered with one JSON [`Reply::Upgraded`] line; from then on both
//! sides exchange `rl-wire` binary frames (see [`wire`] for the frame
//! tags and payload envelopes). Hot-path verbs carry compact binary
//! bodies; every other verb carries its JSON encoding *inside* a frame —
//! externally tagged by command name (`{"Probe": {...}}`), responses in
//! an `Ok`/`Err` envelope. See `docs/WIRE.md` for the framing and
//! `docs/SERVER.md` for the full request reference.

use cbv_hb::blocking::StructureStats;
use cbv_hb::matcher::MatchStats;
use cbv_hb::Record;
use rl_streamrule::{LateArrival, WindowSpec};
use serde::{Deserialize, Serialize};

/// Protocol version spoken by this build (bumped on breaking changes;
/// reported in [`StatsReply`]). Version 2 added the `blocking` section to
/// the Stats reply (backend tag, `L`, key width, bucket occupancy per
/// structure). Version 3 added the `Metrics` request, returning the
/// server's merged metrics registry (counters, gauges, and mergeable
/// latency histograms). Version 4 added the durable mutation requests
/// `Insert` and `Delete` (write-ahead-logged before the reply when the
/// server runs with `--data-dir`) and the `Storage` error code. Version 5
/// added replication: the streaming `FetchCheckpoint` and `Subscribe`
/// requests (the only requests answered with *more than one* response
/// line), `ReplStatus`, `Promote`, the `NotPrimary` error code, and the
/// optional `primary_addr` redirect field on [`RequestError`]; earlier
/// requests are unchanged. Version 6 added streaming match subscriptions:
/// `SubscribeMatches` (a third streaming request — the connection switches
/// to a push stream of [`Reply::MatchEvent`] lines interleaved with
/// heartbeats, terminated by [`Reply::SubscriptionLagged`] when the
/// subscriber falls behind its bounded event queue), `Unsubscribe`, and
/// the `Subscribed` / `MatchEvent` / `SubscriptionLagged` /
/// `Unsubscribed` replies. Version 7 added the binary wire upgrade: the
/// `Upgrade` request and `Upgraded` reply negotiate a switch from JSON
/// lines to length-prefixed, CRC-checked `rl-wire` frames carrying
/// id-correlated request/response envelopes (enabling pipelining — many
/// requests in flight per connection), raw checkpoint chunk frames, and
/// binary WAL frames; the JSON protocol is unchanged and remains the
/// first-line negotiation surface, so v6 clients and servers interoperate.
/// Version 8 added self-healing replication: primary **epochs** stamped
/// into `Subscribe`/`WalFrame`/`Heartbeat` (and the new epoch-stamped
/// binary WAL tag), the `StaleEpoch` error fencing demoted primaries,
/// lease grants on heartbeats (`lease_ms`) driving `--auto-failover`
/// elections, follower durability acks enabling `--sync-replicas N`
/// quorum writes (with the `QuorumTimeout` error), and `applied_seq` on
/// mutation replies for read-your-writes sessions. Version 9 added the
/// disk-resident blocking store's probe degradation signal: a
/// `truncated` counter on probe stats (binary `Matches` bodies append
/// it; absent means 0) and typed advisory `notes` on [`Reply::Matches`]
/// ([`ReplyNote::CandidatesTruncated`] when the server's per-probe
/// top-k bound cut candidate sets short), plus `store`, per-structure
/// block-size histograms, and tombstone counters (since dropped with the
/// tombstones; the field is optional) in the Stats blocking section.
/// Version 10 added online resharding: the `GetShardMap`, `Reshard`, and
/// `MigrationStatus` requests with their `ShardMap`, `ReshardStarted`,
/// and `Migration` replies — a versioned, epoch-stamped shard map
/// replaces fixed round-robin placement, and a background migrator
/// splits or merges shards while the server keeps serving (double-probing
/// source and target until an atomic epoch-bump cutover). The Stats reply gains `shard_map_epoch` and per-shard
/// `shard_records` so clients can watch a rebalance converge. The new
/// verbs ride the JSON body of the binary wire (no new binary bodies),
/// so v7–v9 peers interoperate untouched. Version 11 removed the
/// newline-delimited JSON transport: the `Upgrade` line is the only JSON
/// line a socket carries, a client offering less than
/// [`FIRST_BINARY_VERSION`] is refused, a streaming verb owns its
/// connection (the server closes it when the stream ends, accepted or
/// refused), and the base64 `CheckpointChunk` reply is gone — chunks are
/// raw frames.
pub const PROTOCOL_VERSION: u32 = 11;

/// The first protocol version that speaks `rl-wire` binary frames, and so
/// the lowest `max_version` the `Upgrade` handshake accepts.
pub const FIRST_BINARY_VERSION: u32 = 7;

/// A client request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Index records into data set A (round-robin across shards).
    Index { records: Vec<Record> },
    /// Probe records (data set B) against the index; does not modify it.
    Probe { records: Vec<Record> },
    /// Streaming observe: match one record against everything indexed so
    /// far, then index it (the paper's insert-and-query mode).
    Stream { record: Record },
    /// Duplicate clusters accumulated from `Stream` matches so far.
    DedupStatus,
    /// Service counters and configuration.
    Stats,
    /// Full metrics snapshot: request counters, gauges, and latency
    /// histograms (queue-wait / execution split, pipeline phases), merged
    /// across workers and shards. Protocol version 3+.
    Metrics,
    /// Persist the index to the server's snapshot path (or an explicit
    /// override) atomically.
    Snapshot { path: Option<String> },
    /// Durable insert (protocol v4): index records into data set A like
    /// `Index`, but on a server running with `--data-dir` the mutation is
    /// written to the write-ahead log **before** the reply, so an
    /// acknowledged insert survives a crash. (With a data dir, `Index`
    /// and `Stream` are logged too; `Insert` exists so clients can state
    /// the durability intent explicitly and older servers reject it.)
    Insert { records: Vec<Record> },
    /// Durable delete (protocol v4): remove records by id — each leaves its
    /// blocking buckets and the record store. Deleted records can never
    /// match again; unknown ids are ignored. WAL-logged before the reply
    /// when the server has a data dir.
    Delete { ids: Vec<u64> },
    /// Replication bootstrap (protocol v5): ask a primary for its latest
    /// checkpoint. Answered with a [`Reply::CheckpointMeta`] response
    /// followed by `chunks` raw [`wire::TAG_CHUNK`] frames, after which
    /// the server closes the connection. A primary with no checkpoint yet
    /// takes one first.
    FetchCheckpoint,
    /// Replication tail (protocol v5): stream WAL frames with global op
    /// sequence greater than `from_seq`, interleaved with
    /// [`Reply::Heartbeat`] responses while idle. The stream owns the
    /// connection until either side closes it. A `from_seq` outside
    /// the primary's retained log is answered with
    /// [`Reply::ResyncRequired`]. Protocol v8 adds `epoch`: the highest
    /// primary epoch the subscriber has observed. A sender whose own epoch
    /// is *lower* is a demoted/restarted stale primary and must refuse the
    /// stream with [`ErrorCode::StaleEpoch`] instead of shipping frames a
    /// successor already superseded.
    Subscribe {
        from_seq: u64,
        /// Highest primary epoch the subscriber knows (0 from pre-v8
        /// followers, which predate epochs entirely).
        #[serde(default)]
        epoch: u64,
    },
    /// Replication state (protocol v5): role, applied/head op sequences,
    /// lag, connected followers.
    ReplStatus,
    /// Manual failover (protocol v5): a follower syncs its WAL tail,
    /// rotates to a fresh segment, and flips to primary mode (accepting
    /// mutations). Idempotent on a node that is already primary; rejected
    /// with `Unavailable` on a non-replicated (standalone) server.
    Promote,
    /// Streaming match subscription (protocol v6): compile `rule` (the
    /// `parse_rule` DSL) into a pruned blocking plan and push a
    /// [`Reply::MatchEvent`] line whenever a newly ingested record matches
    /// a record inside `window`. The stream owns the connection: first
    /// comes [`Reply::Subscribed`], then events interleaved with
    /// [`Reply::Heartbeat`] keep-alives; a refused subscription gets one
    /// typed error instead, and either way the server closes the
    /// connection when it is done. A subscriber that cannot
    /// drain its bounded event queue receives a terminal
    /// [`Reply::SubscriptionLagged`] and must resubscribe (mirroring
    /// replication's `ResyncRequired` contract).
    SubscribeMatches {
        /// The classification rule to watch, in the `parse_rule` DSL.
        rule: String,
        /// Which past records stay matchable.
        window: WindowSpec,
        /// Policy for records whose event time is behind the watermark.
        late: LateArrival,
        /// Per-probe top-k candidate cap; `0` disables capping.
        cap: u64,
    },
    /// Cancels a live subscription by id (protocol v6). Sent on any
    /// connection; the subscription's streaming connection ends cleanly.
    Unsubscribe {
        /// The id from [`Reply::Subscribed`].
        sub_id: u64,
    },
    /// The handshake that opens every connection, sent as one JSON line;
    /// the server replies with a JSON [`Reply::Upgraded`] line and **both
    /// sides speak `rl-wire` binary frames immediately after that
    /// exchange**. `max_version` is the highest protocol version the
    /// client speaks; the server answers with `min(max_version, own)`,
    /// and refuses a `max_version` below [`FIRST_BINARY_VERSION`] (or any
    /// other first line) with one typed JSON error line and a close.
    Upgrade {
        /// Highest protocol version the client supports.
        max_version: u32,
    },
    /// The current shard map (protocol v10): epoch, range assignments,
    /// per-shard record counts, and any in-flight migration. Served from
    /// primaries and followers alike (a follower reports the map it has
    /// replicated).
    GetShardMap,
    /// Start an online reshard (protocol v10): split one shard's widest
    /// keyspace range into a brand-new shard, or merge one shard's ranges
    /// onto an existing one. Answered immediately with
    /// [`Reply::ReshardStarted`]; a background migrator then copies the
    /// moved records off the write path while reads double-probe source
    /// and target, and cutover bumps the shard-map epoch atomically (the
    /// cutover — not the copy — is the WAL-logged, replicated event).
    /// Rejected with `NotPrimary` on followers and with `Linkage`
    /// (`migration in flight`) while another migration runs.
    Reshard {
        /// The split or merge to perform.
        op: rl_reshard::ReshardOp,
    },
    /// Progress of the in-flight migration, if any (protocol v10).
    MigrationStatus,
    /// Stop accepting connections, drain queued requests, and exit.
    Shutdown,
}

/// Why a request was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The request did not decode as a [`Request`] (or the line opening
    /// the connection was not the `Upgrade` handshake).
    Parse,
    /// The bounded work queue is full; retry after backing off.
    Backpressure,
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
    /// The linkage engine rejected the request (e.g. malformed records).
    Linkage,
    /// Snapshot I/O failed.
    Snapshot,
    /// The command is valid but not available (e.g. no snapshot path
    /// configured).
    Unavailable,
    /// The durability layer failed (WAL append or checkpoint I/O); the
    /// mutation was NOT applied and must be retried. Protocol v4+.
    Storage,
    /// The server is a read-only follower; mutations must go to the
    /// primary. The error's `primary_addr` field carries the redirect
    /// target, which [`crate::Client`] follows transparently (safe even
    /// for mutations — the follower rejected without applying anything).
    /// Protocol v5+.
    NotPrimary,
    /// The peer's primary epoch is behind this node's: a demoted or
    /// restarted old primary tried to ship frames (or serve a
    /// subscription) that a newer epoch has superseded. The stale node
    /// must stand down and re-join as a follower. Protocol v8+.
    StaleEpoch,
    /// The mutation is durable locally but fewer than the configured
    /// `--sync-replicas` followers confirmed it within the bounded wait.
    /// It may still replicate; the caller decides whether the weaker
    /// guarantee is failure. Protocol v8+.
    QuorumTimeout,
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::Parse => "parse",
            ErrorCode::Backpressure => "backpressure",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Linkage => "linkage",
            ErrorCode::Snapshot => "snapshot",
            ErrorCode::Unavailable => "unavailable",
            ErrorCode::Storage => "storage",
            ErrorCode::NotPrimary => "not-primary",
            ErrorCode::StaleEpoch => "stale-epoch",
            ErrorCode::QuorumTimeout => "quorum-timeout",
        };
        f.write_str(s)
    }
}

/// A typed request failure.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct RequestError {
    /// Machine-readable category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// Where the primary lives, set on [`ErrorCode::NotPrimary`]
    /// rejections so clients can redirect. Absent (and omitted from the
    /// wire) for every other error, which keeps v4 clients parsing.
    #[serde(default)]
    pub primary_addr: Option<String>,
}

// Hand-written because the vendored serde_derive shim does not implement
// `skip_serializing_if`: the derive would emit `"primary_addr":null` on
// every error line, which pre-v5 clients reject as an unknown field.
impl Serialize for RequestError {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::__private::{ser_field, Value};
        let mut fields = vec![
            ("code".to_string(), ser_field::<_, S::Error>(&self.code)?),
            (
                "message".to_string(),
                ser_field::<_, S::Error>(&self.message)?,
            ),
        ];
        if let Some(addr) = &self.primary_addr {
            fields.push(("primary_addr".to_string(), ser_field::<_, S::Error>(addr)?));
        }
        serializer.serialize_value(Value::Object(fields))
    }
}

impl RequestError {
    pub(crate) fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
            primary_addr: None,
        }
    }

    /// Attaches the primary's address (for `NotPrimary` redirects).
    pub(crate) fn with_primary(mut self, addr: impl Into<String>) -> Self {
        self.primary_addr = Some(addr.into());
        self
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for RequestError {}

/// A typed advisory attached to a reply: the request succeeded, but the
/// server applied a degradation the client should know about.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ReplyNote {
    /// Candidate sets were cut short by the server's per-probe top-k
    /// bound (`--block-top-k`): recall may be reduced for these probes.
    CandidatesTruncated {
        /// Number of probes in this request whose candidates were
        /// truncated.
        probes: u64,
    },
}

/// The notes a [`Reply::Matches`] carries for `stats`: one
/// [`ReplyNote::CandidatesTruncated`] when any probe was truncated.
pub fn truncation_notes(stats: &MatchStats) -> Vec<ReplyNote> {
    if stats.truncated > 0 {
        vec![ReplyNote::CandidatesTruncated {
            probes: stats.truncated,
        }]
    } else {
        Vec::new()
    }
}

/// A successful reply payload, tagged by kind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Reply {
    /// Response to `Index`.
    Indexed {
        /// Records accepted in this request.
        accepted: usize,
        /// Records indexed since startup (restored records included).
        total_indexed: usize,
        /// Global op sequence of the last WAL frame this request appended
        /// (0 without durability). The client keeps the maximum as its
        /// read-your-writes session token. Protocol v8+.
        #[serde(default)]
        applied_seq: u64,
    },
    /// Response to `Probe`.
    Matches {
        /// Matched `(id_A, id_B)` pairs, sorted.
        pairs: Vec<(u64, u64)>,
        /// Matching counters for this probe.
        stats: MatchStats,
        /// Typed advisory notes (absent from pre-v9 peers). The binary
        /// body derives these from `stats` on decode, so construct them
        /// with [`truncation_notes`] to keep both paths consistent.
        #[serde(default)]
        notes: Vec<ReplyNote>,
    },
    /// Response to `Stream`.
    Observed {
        /// Ids of previously indexed records matching the observed one.
        matches: Vec<u64>,
        /// Read-your-writes token, as on [`Reply::Indexed`]. Protocol v8+.
        #[serde(default)]
        applied_seq: u64,
    },
    /// Response to `DedupStatus`.
    DedupStatus {
        /// Records involved in at least one stream match.
        linked_records: usize,
        /// Duplicate clusters (size ≥ 2), each sorted.
        clusters: Vec<Vec<u64>>,
    },
    /// Response to `Stats`.
    Stats(StatsReply),
    /// Response to `Metrics`: the server's metrics registry at snapshot
    /// time. Histogram bucket boundaries are the fixed log-linear scheme
    /// of `rl-obs`, so snapshots from different servers merge exactly.
    Metrics(rl_obs::MetricsSnapshot),
    /// Response to `Delete` (protocol v4).
    Deleted {
        /// Records actually removed (unknown ids don't count).
        removed: usize,
        /// Records remaining in the index.
        total_indexed: usize,
        /// Read-your-writes token, as on [`Reply::Indexed`]. Protocol v8+.
        #[serde(default)]
        applied_seq: u64,
    },
    /// Response to `Snapshot`.
    Snapshotted {
        /// Where the snapshot was written.
        path: String,
        /// Records captured in the snapshot.
        indexed: usize,
    },
    /// First response to `FetchCheckpoint` (protocol v5): announces the
    /// transfer that follows.
    CheckpointMeta {
        /// Size of the checkpoint document in bytes.
        len: u64,
        /// Number of [`wire::TAG_CHUNK`] frames that follow, in order.
        chunks: u64,
    },
    /// One replicated WAL frame in a `Subscribe` stream (protocol v5). On
    /// the wire it is a [`wire::TAG_WAL`] / [`wire::TAG_WAL_E`] frame;
    /// [`crate::Client::recv`] surfaces it as this reply.
    WalFrame {
        /// Global op sequence of this frame (`from_seq + 1`, `+2`, …).
        seq: u64,
        /// The logged mutation, applied through the same path recovery
        /// uses.
        op: rl_store::WalOp,
        /// Primary epoch the frame was written under (protocol v8; 0 from
        /// pre-epoch history). A follower rejects frames below its known
        /// epoch with `StaleEpoch` and adopts any higher epoch it sees.
        #[serde(default)]
        epoch: u64,
    },
    /// Keep-alive in a `Subscribe` stream when the follower is caught up
    /// (protocol v5). Also carries the lag a not-yet-caught-up follower
    /// should report.
    Heartbeat {
        /// The primary's newest global op sequence.
        head_seq: u64,
        /// WAL bytes between the subscriber's position and the head.
        lag_bytes: u64,
        /// The sender's primary epoch (protocol v8).
        #[serde(default)]
        epoch: u64,
        /// Lease grant (protocol v8): how long the follower may treat this
        /// primary as alive. 0 means no lease (auto-failover disabled on
        /// the primary); a follower with `--auto-failover` runs an
        /// election when the last grant expires without fresh traffic.
        #[serde(default)]
        lease_ms: u64,
    },
    /// Terminal response in a `Subscribe` stream when `from_seq` falls
    /// outside the primary's retained log — the follower must re-bootstrap
    /// from a checkpoint (protocol v5).
    ResyncRequired {
        /// Oldest op sequence still available for tailing + 1 lies after
        /// this watermark (the committed checkpoint's op count).
        base_ops: u64,
    },
    /// Response to `ReplStatus` (protocol v5).
    ReplStatus(ReplStatusReply),
    /// Response to `Promote` (protocol v5).
    Promoted {
        /// The node's op sequence at promotion (its new mutation stream
        /// continues from here).
        head_seq: u64,
        /// False when the node was already primary (idempotent call).
        was_follower: bool,
        /// The primary epoch after the promote (protocol v8): bumped and
        /// made durable before the role flip when `was_follower`,
        /// unchanged on an idempotent call.
        #[serde(default)]
        epoch: u64,
    },
    /// First line of a `SubscribeMatches` stream (protocol v6).
    Subscribed {
        /// Handle for `Unsubscribe`.
        sub_id: u64,
        /// LSH tables the compiled plan probes per record (`Σ L` over the
        /// structures the rule's predicates require).
        tables: u64,
    },
    /// One pushed match in a `SubscribeMatches` stream (protocol v6): the
    /// newly ingested record matched `matched` records inside the
    /// subscription's window.
    MatchEvent {
        /// The subscription this event belongs to.
        sub_id: u64,
        /// The record whose ingestion triggered the event.
        record_id: u64,
        /// Window records satisfying the rule, ascending.
        matched: Vec<u64>,
    },
    /// Terminal line of a `SubscribeMatches` stream when the subscriber
    /// fell behind its bounded event queue (protocol v6). Delivery stops
    /// — the client must resubscribe, exactly like a follower re-bootstraps
    /// on [`Reply::ResyncRequired`].
    SubscriptionLagged {
        /// Events dropped since the subscriber last kept up.
        dropped: u64,
    },
    /// Response to `Unsubscribe` (protocol v6).
    Unsubscribed {
        /// False when the id named no live subscription.
        removed: bool,
    },
    /// Response to `Upgrade`: the negotiated protocol version. Both sides
    /// switch to binary frames right after this line.
    Upgraded {
        /// `min(client max_version, server version)`.
        version: u32,
    },
    /// Response to `GetShardMap` (protocol v10).
    ShardMap(ShardMapReply),
    /// Response to `Reshard` (protocol v10): the migration is planned and
    /// running in the background. Poll `MigrationStatus` (or watch the
    /// `rl_reshard_state` gauge) for completion; the shard-map epoch in
    /// `GetShardMap`/`Stats` bumps when cutover lands.
    ReshardStarted {
        /// `"split"` or `"merge"`.
        kind: String,
        /// The shard records move out of.
        source: usize,
        /// The shard records move into (brand-new on a split).
        target: usize,
        /// Records the migrator has to copy (snapshot at start).
        total: u64,
    },
    /// Response to `MigrationStatus` (protocol v10).
    Migration(rl_reshard::MigrationStatus),
    /// Response to `Shutdown`.
    ShuttingDown,
}

/// Replication state reported by the `ReplStatus` command (protocol v5).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplStatusReply {
    /// `"standalone"`, `"primary"`, or `"follower"`.
    pub role: String,
    /// The primary this follower replicates from (followers only).
    pub primary_addr: Option<String>,
    /// Global op sequence applied locally.
    pub applied_seq: u64,
    /// Newest primary op sequence this node knows of (== `applied_seq`
    /// on a primary; from the subscription stream on a follower).
    pub head_seq: u64,
    /// `head_seq - applied_seq`: frames known but not yet applied.
    pub lag_frames: u64,
    /// WAL bytes between this node's replication position and the
    /// primary's head (0 on a primary).
    pub lag_bytes: u64,
    /// Live `Subscribe` streams being served (primaries only).
    pub followers: u64,
    /// Times this follower's subscription reconnected since startup.
    pub reconnects: u64,
    /// Highest primary epoch this node has held or observed (protocol
    /// v8; 0 on pre-epoch directories).
    #[serde(default)]
    pub epoch: u64,
    /// The failover lease this node grants its followers on heartbeats
    /// (protocol v8): `--lease-ms` on a primary, 0 = no leases. Reported
    /// so a follower can seed its lease on first contact instead of
    /// waiting for a heartbeat a dying primary might never send.
    #[serde(default)]
    pub lease_ms: u64,
}

/// The shard map served by `GetShardMap` (protocol v10).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMapReply {
    /// Map version; bumps by one at every reshard cutover. 1 is the
    /// initial uniform map.
    pub epoch: u64,
    /// Shards the map assigns keyspace to.
    pub num_shards: usize,
    /// The range assignments: each entry owns the keyspace from its
    /// `start` up to the next entry's start (the last runs to
    /// `u64::MAX`).
    pub ranges: Vec<rl_reshard::RangeAssignment>,
    /// Records currently resident per shard, indexed by shard id. During
    /// a migration, moved records are counted on both source and target.
    pub records: Vec<u64>,
    /// The in-flight migration, if any (`active == false` otherwise).
    pub migration: rl_reshard::MigrationStatus,
}

/// Service counters reported by the `Stats` command.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsReply {
    /// Protocol version (see [`PROTOCOL_VERSION`]).
    pub protocol_version: u32,
    /// Number of index shards.
    pub shards: usize,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Bounded work-queue capacity.
    pub queue_capacity: usize,
    /// Records indexed (including restored and streamed ones).
    pub indexed: usize,
    /// Records observed through `Stream`.
    pub streamed: u64,
    /// Requests executed since startup (rejected ones excluded).
    pub requests_served: u64,
    /// Requests rejected with `Backpressure` since startup.
    pub rejected_backpressure: u64,
    /// Seconds since the server started.
    pub uptime_secs: u64,
    /// Per-structure blocking diagnostics: active backend (`"random"` or
    /// `"covering"`) with its `L`, key width, and bucket occupancy
    /// aggregated across shards.
    pub blocking: Vec<StructureStats>,
    /// Shard-map version (protocol v10; absent — 0 — from older peers).
    #[serde(default)]
    pub shard_map_epoch: u64,
    /// Records resident per shard, indexed by shard id (protocol v10;
    /// empty from older peers).
    #[serde(default)]
    pub shard_records: Vec<u64>,
    /// Heap bytes the shards' record slabs hold (since PR 24, no version
    /// bump; absent — 0 — from older peers).
    #[serde(default)]
    pub record_heap_bytes: u64,
}

/// The response envelope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The request succeeded.
    Ok(Reply),
    /// The request failed.
    Err(RequestError),
}

impl Response {
    /// Converts the envelope into a result.
    pub fn into_result(self) -> Result<Reply, RequestError> {
        match self {
            Response::Ok(reply) => Ok(reply),
            Response::Err(e) => Err(e),
        }
    }
}

/// Binary envelopes (everything after the [`Request::Upgrade`]
/// handshake). Each `rl-wire` frame carries one of these payloads,
/// discriminated by the frame tag:
///
/// - [`wire::TAG_REQUEST`] / [`wire::TAG_RESPONSE`] — `request id: u64
///   LE` followed by the JSON-encoded [`Request`] / [`Response`]. The id
///   correlates pipelined requests with their (possibly out-of-order)
///   responses; id `0` marks unsolicited pushes (heartbeats, match events,
///   stream lines), which never collide because clients allocate ids
///   from 1.
/// - [`wire::TAG_WAL`] / [`wire::TAG_WAL_E`] — `global op seq: u64 LE`
///   followed by the payload of one WAL op frame, byte for byte as the
///   segment holds it; [`rl_store::WalFrame`] encodes and decodes it.
/// - [`wire::TAG_CHUNK`] — raw checkpoint bytes, no envelope: chunks
///   arrive in order after a `CheckpointMeta` response.
pub mod wire {
    use super::{Reply, Request, Response};
    use cbv_hb::matcher::MatchStats;
    use cbv_hb::Record;
    use rl_store::wal::{encode_record, Cursor, WalFrame, WAL_FRAME_EPOCH_TAG, WAL_FRAME_TAG};
    pub use rl_store::wal::{FrameRecords, FrameRecordsIter};
    use rl_store::WalOp;

    /// Frame tag: an id-enveloped [`Request`].
    pub const TAG_REQUEST: u8 = 1;
    /// Frame tag: an id-enveloped [`Response`].
    pub const TAG_RESPONSE: u8 = 2;
    /// Frame tag: a replicated un-stamped WAL frame ([`WAL_FRAME_TAG`]),
    /// implicitly epoch 0. Kept for pre-epoch history so v7 followers keep
    /// decoding.
    pub const TAG_WAL: u8 = 3;
    /// Frame tag: raw checkpoint bytes.
    pub const TAG_CHUNK: u8 = 4;
    /// Frame tag: a replicated epoch-stamped WAL frame
    /// ([`WAL_FRAME_EPOCH_TAG`], protocol v8) — `seq u64 LE | epoch u64 LE |
    /// binary op`. A separate tag keeps the encoding unconditional instead
    /// of versioned.
    pub const TAG_WAL_E: u8 = 5;
    /// Frame tag: a follower durability ack (protocol v8) — `seq u64 LE`,
    /// sent *upstream* on the subscription connection after the follower
    /// has WAL-logged and applied everything through `seq`. Feeds the
    /// primary's `--sync-replicas` quorum wait.
    pub const TAG_ACK: u8 = 6;

    /// Request id marking unsolicited (server-pushed) responses.
    pub const PUSH_ID: u64 = 0;

    // The body format byte after the 8-byte request id. Hot-path
    // variants get a fixed-width binary body so probe throughput is not
    // bounded by JSON serialization; every other variant carries its
    // JSON encoding behind `BODY_JSON`. Both sides of a v7 connection
    // speak this module, so the set of binary bodies can grow without a
    // protocol bump — unknown formats are a decode error, not a
    // misparse.
    const BODY_JSON: u8 = 0;
    // Request bodies.
    const BODY_PROBE: u8 = 1;
    const BODY_INDEX: u8 = 2;
    const BODY_INSERT: u8 = 3;
    const BODY_STREAM: u8 = 4;
    // Response bodies.
    const BODY_MATCHES: u8 = 1;
    const BODY_INDEXED: u8 = 2;
    const BODY_OBSERVED: u8 = 3;

    /// A request as its sender holds it: the record-carrying verbs borrow
    /// the caller's records, so sending (and re-sending, on a retry or a
    /// redirect) never copies them into a [`Request`] first.
    #[derive(Debug, Clone, Copy)]
    pub(crate) enum Outgoing<'a> {
        Probe(&'a [Record]),
        Index(&'a [Record]),
        Insert(&'a [Record]),
        Other(&'a Request),
    }

    impl<'a> From<&'a Request> for Outgoing<'a> {
        fn from(req: &'a Request) -> Self {
            match req {
                Request::Probe { records } => Outgoing::Probe(records),
                Request::Index { records } => Outgoing::Index(records),
                Request::Insert { records } => Outgoing::Insert(records),
                other => Outgoing::Other(other),
            }
        }
    }

    /// Encodes `id` + body into `payload` (cleared first). `Probe`,
    /// `Index`, `Insert`, and `Stream` bodies are binary; the rest JSON.
    ///
    /// # Errors
    /// Serialization failure, as a message.
    pub fn encode_request(id: u64, req: &Request, payload: &mut Vec<u8>) -> Result<(), String> {
        encode_outgoing(id, req.into(), payload)
    }

    /// [`encode_request`] from the borrowed form.
    pub(crate) fn encode_outgoing(
        id: u64,
        req: Outgoing<'_>,
        payload: &mut Vec<u8>,
    ) -> Result<(), String> {
        payload.clear();
        payload.extend_from_slice(&id.to_le_bytes());
        match req {
            Outgoing::Probe(records) => encode_records(BODY_PROBE, records, payload),
            Outgoing::Index(records) => encode_records(BODY_INDEX, records, payload),
            Outgoing::Insert(records) => encode_records(BODY_INSERT, records, payload),
            Outgoing::Other(Request::Stream { record }) => {
                encode_records(BODY_STREAM, std::slice::from_ref(record), payload);
            }
            Outgoing::Other(other) => {
                payload.push(BODY_JSON);
                let json = serde_json::to_string(other).map_err(|e| e.to_string())?;
                payload.extend_from_slice(json.as_bytes());
            }
        }
        Ok(())
    }

    /// Encodes `id` + body into `payload` (cleared first). `Matches`,
    /// `Indexed`, and `Observed` replies are binary; the rest JSON.
    ///
    /// # Errors
    /// Serialization failure, as a message.
    pub fn encode_response(id: u64, resp: &Response, payload: &mut Vec<u8>) -> Result<(), String> {
        payload.clear();
        payload.extend_from_slice(&id.to_le_bytes());
        match resp {
            Response::Ok(Reply::Matches { pairs, stats, .. }) => {
                encode_matches(id, pairs, stats, payload);
            }
            Response::Ok(Reply::Indexed {
                accepted,
                total_indexed,
                applied_seq,
            }) => {
                payload.push(BODY_INDEXED);
                payload.extend_from_slice(&(*accepted as u64).to_le_bytes());
                payload.extend_from_slice(&(*total_indexed as u64).to_le_bytes());
                payload.extend_from_slice(&applied_seq.to_le_bytes());
            }
            Response::Ok(Reply::Observed {
                matches,
                applied_seq,
            }) => {
                payload.push(BODY_OBSERVED);
                payload.extend_from_slice(&(matches.len() as u32).to_le_bytes());
                for id in matches {
                    payload.extend_from_slice(&id.to_le_bytes());
                }
                payload.extend_from_slice(&applied_seq.to_le_bytes());
            }
            other => {
                payload.push(BODY_JSON);
                let json = serde_json::to_string(other).map_err(|e| e.to_string())?;
                payload.extend_from_slice(json.as_bytes());
            }
        }
        Ok(())
    }

    /// Encodes the payload of a [`Reply::Matches`] response into `payload`
    /// (cleared first) straight from the matched pairs and the counts: the
    /// bytes [`encode_response`] writes for it, with no `Reply` built.
    pub fn encode_matches(
        id: u64,
        pairs: &[(u64, u64)],
        stats: &MatchStats,
        payload: &mut Vec<u8>,
    ) {
        payload.clear();
        payload.extend_from_slice(&id.to_le_bytes());
        payload.push(BODY_MATCHES);
        payload.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
        for (a, b) in pairs {
            payload.extend_from_slice(&a.to_le_bytes());
            payload.extend_from_slice(&b.to_le_bytes());
        }
        payload.extend_from_slice(&stats.candidates.to_le_bytes());
        payload.extend_from_slice(&stats.distance_computations.to_le_bytes());
        payload.extend_from_slice(&stats.matched.to_le_bytes());
        // v9 appended the truncated-probe counter; notes are re-derived
        // from it on decode.
        payload.extend_from_slice(&stats.truncated.to_le_bytes());
    }

    /// A request as the server's read path holds it: a binary `Probe`,
    /// `Index` or `Insert` body's records stay in the frame, read in place;
    /// any other request is decoded as [`decode_request`] decodes it.
    #[derive(Debug)]
    pub enum RequestRef<'a> {
        /// A `Probe`, `Index` or `Insert` with a binary body.
        Records(Verb, FrameRecords<'a>),
        /// Every other request, a JSON-bodied `Probe`, `Index` or `Insert`
        /// included.
        Other(Request),
    }

    /// What a request whose binary body carries records asks for.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Verb {
        /// [`Request::Probe`].
        Probe,
        /// [`Request::Index`].
        Index,
        /// [`Request::Insert`].
        Insert,
    }

    /// Decodes a [`TAG_REQUEST`] payload as the server's read path does,
    /// a binary `Probe`, `Index` or `Insert` body's records in place.
    /// Accepts exactly what [`decode_request`] accepts, with the same id
    /// and the same request.
    ///
    /// # Errors
    /// A description of the malformation.
    pub fn decode_request_ref(payload: &[u8]) -> Result<(u64, RequestRef<'_>), String> {
        let (id, format, body) = split_envelope(payload)?;
        let verb = match format {
            BODY_PROBE => Verb::Probe,
            BODY_INDEX => Verb::Index,
            BODY_INSERT => Verb::Insert,
            _ => {
                let (id, request) = decode_request(payload)?;
                return Ok((id, RequestRef::Other(request)));
            }
        };
        Ok((id, RequestRef::Records(verb, FrameRecords::decode(body)?)))
    }

    /// Decodes a [`TAG_REQUEST`] payload.
    ///
    /// # Errors
    /// A description of the malformation.
    pub fn decode_request(payload: &[u8]) -> Result<(u64, Request), String> {
        let (id, format, body) = split_envelope(payload)?;
        let req = match format {
            BODY_JSON => serde_json::from_slice::<Request>(body).map_err(|e| e.to_string())?,
            BODY_PROBE => Request::Probe {
                records: decode_records(body)?,
            },
            BODY_INDEX => Request::Index {
                records: decode_records(body)?,
            },
            BODY_INSERT => Request::Insert {
                records: decode_records(body)?,
            },
            BODY_STREAM => {
                let [record] = <[Record; 1]>::try_from(decode_records(body)?)
                    .map_err(|records| format!("stream body has {} records", records.len()))?;
                Request::Stream { record }
            }
            other => return Err(format!("unknown request body format {other}")),
        };
        Ok((id, req))
    }

    /// Decodes a [`TAG_RESPONSE`] payload.
    ///
    /// # Errors
    /// A description of the malformation.
    pub fn decode_response(payload: &[u8]) -> Result<(u64, Response), String> {
        let (id, format, body) = split_envelope(payload)?;
        let resp = match format {
            BODY_JSON => serde_json::from_slice::<Response>(body).map_err(|e| e.to_string())?,
            BODY_MATCHES => {
                let mut cur = Cursor::new("body", body);
                let n = cur.u32()? as usize;
                let mut pairs = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    pairs.push((cur.u64()?, cur.u64()?));
                }
                let stats = MatchStats {
                    candidates: cur.u64()?,
                    distance_computations: cur.u64()?,
                    matched: cur.u64()?,
                    // v9 appended `truncated`; tolerate its absence so a
                    // v9 client still decodes a pre-v9 server's reply.
                    truncated: cur.u64_or_zero()?,
                };
                cur.finish()?;
                let notes = super::truncation_notes(&stats);
                Response::Ok(Reply::Matches {
                    pairs,
                    stats,
                    notes,
                })
            }
            BODY_INDEXED => {
                let mut cur = Cursor::new("body", body);
                let accepted = cur.u64()? as usize;
                let total_indexed = cur.u64()? as usize;
                // v8 appended `applied_seq`; tolerate its absence so a v8
                // client still decodes a pre-v8 server's reply.
                let applied_seq = cur.u64_or_zero()?;
                cur.finish()?;
                Response::Ok(Reply::Indexed {
                    accepted,
                    total_indexed,
                    applied_seq,
                })
            }
            BODY_OBSERVED => {
                let mut cur = Cursor::new("body", body);
                let n = cur.u32()? as usize;
                let mut matches = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    matches.push(cur.u64()?);
                }
                let applied_seq = cur.u64_or_zero()?;
                cur.finish()?;
                Response::Ok(Reply::Observed {
                    matches,
                    applied_seq,
                })
            }
            other => return Err(format!("unknown response body format {other}")),
        };
        Ok((id, resp))
    }

    /// `format byte | count u32 LE | records`, each record a record body
    /// ([`rl_store::wal::encode_record`]), the shape the binary WAL uses.
    fn encode_records(format: u8, records: &[Record], out: &mut Vec<u8>) {
        out.push(format);
        out.extend_from_slice(&(records.len() as u32).to_le_bytes());
        for rec in records {
            encode_record(rec, out);
        }
    }

    fn decode_records(body: &[u8]) -> Result<Vec<Record>, String> {
        let mut cur = Cursor::new("body", body);
        let n = cur.u32()? as usize;
        let mut records = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            records.push(cur.record()?);
        }
        cur.finish()?;
        Ok(records)
    }

    /// Encodes a replicated WAL frame into `payload` (cleared first):
    /// `seq u64 LE ‖` the payload of the op frame `wal_tag` heads on disk.
    /// Returns the frame tag: [`TAG_WAL`] for an un-stamped frame,
    /// [`TAG_WAL_E`] for a stamped one.
    pub fn encode_wal(seq: u64, wal_tag: u8, wal_payload: &[u8], payload: &mut Vec<u8>) -> u8 {
        payload.clear();
        payload.extend_from_slice(&seq.to_le_bytes());
        payload.extend_from_slice(wal_payload);
        if wal_tag == WAL_FRAME_TAG {
            TAG_WAL
        } else {
            TAG_WAL_E
        }
    }

    /// Decodes a [`TAG_WAL`] or [`TAG_WAL_E`] payload into `(seq, epoch,
    /// op)` with [`WalFrame::decode`].
    ///
    /// # Errors
    /// A description of the malformation.
    pub fn decode_wal(tag: u8, payload: &[u8]) -> Result<(u64, u64, WalOp), String> {
        let (seq, frame) = split_id(payload)?;
        let wal_tag = if tag == TAG_WAL {
            WAL_FRAME_TAG
        } else {
            WAL_FRAME_EPOCH_TAG
        };
        match WalFrame::decode(wal_tag, frame, 0)? {
            WalFrame::Op { epoch, op } => Ok((seq, epoch, op)),
            WalFrame::Marker(_) => Err("an epoch marker is not an op".into()),
        }
    }

    /// Encodes a [`TAG_ACK`] payload into `payload` (cleared first): the
    /// follower's durable `seq` as `u64 LE`.
    pub fn encode_ack(seq: u64, payload: &mut Vec<u8>) {
        payload.clear();
        payload.extend_from_slice(&seq.to_le_bytes());
    }

    /// Decodes a [`TAG_ACK`] payload.
    ///
    /// # Errors
    /// A description of the malformation.
    pub fn decode_ack(payload: &[u8]) -> Result<u64, String> {
        let (seq, rest) = split_id(payload)?;
        if !rest.is_empty() {
            return Err(format!("{} trailing bytes after ack", rest.len()));
        }
        Ok(seq)
    }

    fn split_id(payload: &[u8]) -> Result<(u64, &[u8]), String> {
        let Some((id, rest)) = payload.split_first_chunk() else {
            return Err(format!("envelope too short: {} bytes", payload.len()));
        };
        Ok((u64::from_le_bytes(*id), rest))
    }

    /// Splits `id | format byte | body` for request/response payloads.
    fn split_envelope(payload: &[u8]) -> Result<(u64, u8, &[u8]), String> {
        let (id, rest) = split_id(payload)?;
        let Some((&format, body)) = rest.split_first() else {
            return Err("envelope missing body format byte".into());
        };
        Ok((id, format, body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let reqs = [
            Request::Index {
                records: vec![Record::new(1, ["JOHN", "SMITH"])],
            },
            Request::Probe { records: vec![] },
            Request::Stream {
                record: Record::new(2, ["MARY", "JONES"]),
            },
            Request::DedupStatus,
            Request::Stats,
            Request::Metrics,
            Request::Snapshot {
                path: Some("/tmp/x.snap".into()),
            },
            Request::Snapshot { path: None },
            Request::Insert {
                records: vec![Record::new(3, ["ANNA", "LEE"])],
            },
            Request::Delete { ids: vec![1, 2, 3] },
            Request::FetchCheckpoint,
            Request::Subscribe {
                from_seq: 42,
                epoch: 3,
            },
            Request::ReplStatus,
            Request::Promote,
            Request::SubscribeMatches {
                rule: "0<=4 & 1<=4".into(),
                window: WindowSpec::Count(128),
                late: LateArrival::Drop,
                cap: 16,
            },
            Request::SubscribeMatches {
                rule: "0<=2".into(),
                window: WindowSpec::TimeMs(60_000),
                late: LateArrival::ApplyIfInWindow,
                cap: 0,
            },
            Request::Unsubscribe { sub_id: 7 },
            Request::Upgrade { max_version: 7 },
            Request::GetShardMap,
            Request::Reshard {
                op: rl_reshard::ReshardOp::Split { source: 0 },
            },
            Request::Reshard {
                op: rl_reshard::ReshardOp::Merge {
                    source: 2,
                    target: 1,
                },
            },
            Request::MigrationStatus,
            Request::Shutdown,
        ];
        for req in reqs {
            let line = serde_json::to_string(&req).unwrap();
            assert!(!line.contains('\n'), "one request per line: {line}");
            let back: Request = serde_json::from_str(&line).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn response_roundtrip() {
        let resps = [
            Response::Ok(Reply::Matches {
                pairs: vec![(1, 10)],
                stats: MatchStats::default(),
                notes: vec![],
            }),
            Response::Err(RequestError::new(ErrorCode::Backpressure, "queue full")),
            Response::Ok(Reply::Metrics(rl_obs::MetricsSnapshot::default())),
            Response::Ok(Reply::Deleted {
                removed: 2,
                total_indexed: 7,
                applied_seq: 4,
            }),
            Response::Err(RequestError::new(ErrorCode::Storage, "wal append failed")),
            Response::Ok(Reply::CheckpointMeta {
                len: 1024,
                chunks: 2,
            }),
            Response::Ok(Reply::WalFrame {
                seq: 9,
                op: rl_store::WalOp::Delete(3),
                epoch: 2,
            }),
            Response::Ok(Reply::Heartbeat {
                head_seq: 12,
                lag_bytes: 88,
                epoch: 2,
                lease_ms: 3000,
            }),
            Response::Ok(Reply::ResyncRequired { base_ops: 100 }),
            Response::Ok(Reply::ReplStatus(ReplStatusReply {
                role: "follower".into(),
                primary_addr: Some("127.0.0.1:7001".into()),
                applied_seq: 10,
                head_seq: 12,
                lag_frames: 2,
                lag_bytes: 88,
                followers: 0,
                reconnects: 1,
                epoch: 2,
                lease_ms: 0,
            })),
            Response::Ok(Reply::Promoted {
                head_seq: 12,
                was_follower: true,
                epoch: 3,
            }),
            Response::Ok(Reply::Subscribed {
                sub_id: 1,
                tables: 40,
            }),
            Response::Ok(Reply::MatchEvent {
                sub_id: 1,
                record_id: 99,
                matched: vec![3, 7],
            }),
            Response::Ok(Reply::SubscriptionLagged { dropped: 12 }),
            Response::Ok(Reply::Unsubscribed { removed: true }),
            Response::Ok(Reply::Upgraded { version: 7 }),
            Response::Ok(Reply::ShardMap(ShardMapReply {
                epoch: 2,
                num_shards: 3,
                ranges: rl_reshard::ShardMap::uniform(3).assignments().to_vec(),
                records: vec![10, 7, 3],
                migration: rl_reshard::MigrationStatus::idle(2),
            })),
            Response::Ok(Reply::ReshardStarted {
                kind: "split".into(),
                source: 0,
                target: 2,
                total: 40,
            }),
            Response::Ok(Reply::Migration(rl_reshard::MigrationStatus::idle(1))),
            Response::Err(
                RequestError::new(ErrorCode::NotPrimary, "read-only follower")
                    .with_primary("127.0.0.1:7001"),
            ),
        ];
        for resp in resps {
            let line = serde_json::to_string(&resp).unwrap();
            let back: Response = serde_json::from_str(&line).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn wire_envelopes_roundtrip() {
        let mut payload = Vec::new();
        let req = Request::Probe {
            records: vec![Record::new(5, ["A", "B"])],
        };
        wire::encode_request(42, &req, &mut payload).unwrap();
        assert_eq!(wire::decode_request(&payload).unwrap(), (42, req));

        let resp = Response::Ok(Reply::Upgraded { version: 7 });
        wire::encode_response(wire::PUSH_ID, &resp, &mut payload).unwrap();
        assert_eq!(wire::decode_response(&payload).unwrap(), (0, resp));

        let op = rl_store::WalOp::Insert(Record::new(9, ["X", "Y"]));
        for (epoch, wire_tag) in [(0, wire::TAG_WAL), (5, wire::TAG_WAL_E)] {
            let mut frame = Vec::new();
            let wal_tag =
                rl_store::WalFrame::encode_op(epoch, &mut frame, |out| op.encode_bin(out));
            assert_eq!(
                wire::encode_wal(1234, wal_tag, &frame, &mut payload),
                wire_tag
            );
            assert_eq!(&payload[8..], &frame[..], "seq, then the WAL frame payload");
            let decoded = wire::decode_wal(wire_tag, &payload).unwrap();
            assert_eq!(decoded, (1234, epoch, op.clone()));
        }

        wire::encode_ack(777, &mut payload);
        assert_eq!(wire::decode_ack(&payload).unwrap(), 777);
        assert!(wire::decode_ack(&[0; 12]).is_err(), "trailing ack bytes");

        assert!(wire::decode_request(&[1, 2, 3]).is_err(), "short envelope");
        assert!(
            wire::decode_response(&payload).is_err(),
            "wal payload is not a response"
        );
    }

    #[test]
    fn wire_binary_bodies_roundtrip() {
        // Every hot-path variant takes the binary body; a JSON-only
        // variant rides the fallback. Either way decode inverts encode.
        let reqs = [
            Request::Probe {
                records: vec![Record::new(1, ["JOHN", "SMITH"]), Record::new(2, ["", "Ω"])],
            },
            Request::Probe { records: vec![] },
            Request::Index {
                records: vec![Record::new(3, ["MARY", "JONES"])],
            },
            Request::Insert {
                records: vec![Record::new(4, ["ANNA", "LEE"])],
            },
            Request::Stream {
                record: Record::new(5, ["SAM", "ODD"]),
            },
            Request::Stats,
            Request::Delete { ids: vec![1, 2] },
        ];
        let mut payload = Vec::new();
        for req in reqs {
            wire::encode_request(7, &req, &mut payload).unwrap();
            assert_eq!(wire::decode_request(&payload).unwrap(), (7, req));
        }
        let resps = [
            Response::Ok(Reply::Matches {
                pairs: vec![(1, 10), (2, 20)],
                stats: MatchStats {
                    candidates: 5,
                    distance_computations: 5,
                    matched: 2,
                    truncated: 0,
                },
                notes: vec![],
            }),
            Response::Ok(Reply::Matches {
                pairs: vec![(3, 30)],
                stats: MatchStats {
                    candidates: 7,
                    distance_computations: 7,
                    matched: 1,
                    truncated: 2,
                },
                notes: truncation_notes(&MatchStats {
                    candidates: 7,
                    distance_computations: 7,
                    matched: 1,
                    truncated: 2,
                }),
            }),
            Response::Ok(Reply::Matches {
                pairs: vec![],
                stats: MatchStats::default(),
                notes: vec![],
            }),
            Response::Ok(Reply::Indexed {
                accepted: 3,
                total_indexed: 99,
                applied_seq: 120,
            }),
            Response::Ok(Reply::Observed {
                matches: vec![4, 5, 6],
                applied_seq: 121,
            }),
            Response::Err(RequestError::new(ErrorCode::Linkage, "bad arity")),
        ];
        for resp in resps {
            wire::encode_response(9, &resp, &mut payload).unwrap();
            assert_eq!(wire::decode_response(&payload).unwrap(), (9, resp));
        }
        // Truncated binary bodies are a decode error, never a misparse.
        wire::encode_request(
            7,
            &Request::Probe {
                records: vec![Record::new(1, ["JOHN", "SMITH"])],
            },
            &mut payload,
        )
        .unwrap();
        for cut in 9..payload.len() {
            assert!(wire::decode_request(&payload[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn error_codes_display_kebab() {
        assert_eq!(ErrorCode::Backpressure.to_string(), "backpressure");
        assert_eq!(ErrorCode::ShuttingDown.to_string(), "shutting-down");
        assert_eq!(ErrorCode::Storage.to_string(), "storage");
        assert_eq!(ErrorCode::NotPrimary.to_string(), "not-primary");
        assert_eq!(ErrorCode::StaleEpoch.to_string(), "stale-epoch");
        assert_eq!(ErrorCode::QuorumTimeout.to_string(), "quorum-timeout");
    }

    #[test]
    fn binary_bodies_tolerate_missing_applied_seq() {
        // A pre-v8 peer's Indexed/Observed body stops before the
        // trailing applied_seq; v8 decodes it as 0 instead of erroring.
        let mut payload = Vec::new();
        wire::encode_response(
            9,
            &Response::Ok(Reply::Indexed {
                accepted: 3,
                total_indexed: 99,
                applied_seq: 7,
            }),
            &mut payload,
        )
        .unwrap();
        let short = &payload[..payload.len() - 8];
        assert_eq!(
            wire::decode_response(short).unwrap().1,
            Response::Ok(Reply::Indexed {
                accepted: 3,
                total_indexed: 99,
                applied_seq: 0,
            })
        );
        wire::encode_response(
            9,
            &Response::Ok(Reply::Observed {
                matches: vec![4, 5],
                applied_seq: 7,
            }),
            &mut payload,
        )
        .unwrap();
        let short = &payload[..payload.len() - 8];
        assert_eq!(
            wire::decode_response(short).unwrap().1,
            Response::Ok(Reply::Observed {
                matches: vec![4, 5],
                applied_seq: 0,
            })
        );
    }

    #[test]
    fn plain_errors_omit_primary_addr_on_the_wire() {
        // v4 clients parse v5 error envelopes as long as the new field
        // stays off the wire when unset.
        let err = Response::Err(RequestError::new(ErrorCode::Storage, "x"));
        let line = serde_json::to_string(&err).unwrap();
        assert!(!line.contains("primary_addr"), "{line}");
        let redirect =
            Response::Err(RequestError::new(ErrorCode::NotPrimary, "x").with_primary("a:1"));
        let line = serde_json::to_string(&redirect).unwrap();
        assert!(line.contains("primary_addr"), "{line}");
    }
}

//! # rl-server — a persistent network linkage service
//!
//! Turns the in-process [`cbv_hb::sharded::ShardedPipeline`] into a
//! long-running TCP service: the index is built once (or restored from a
//! snapshot) and then served to many clients over `rl-wire` binary frames
//! — the operational mode the paper's linkage unit implies, where data
//! custodians submit records to a central service that holds the compact
//! Hamming-space index.
//!
//! ## Pieces
//!
//! - [`protocol`] — the request/response wire types (`Index`, `Probe`,
//!   `Stream`, `DedupStatus`, `Stats`, `Metrics`, `Snapshot`, `Shutdown`,
//!   …) and their frame envelopes.
//! - [`server`] — [`Server`]: configuration, shared state, bounded worker
//!   pool with typed backpressure, graceful drain on shutdown. Around it
//!   (crate-private): `reactor` (the `poll(2)` loop owning every
//!   request/reply connection), `conn` (outbox and stream writer),
//!   `handlers` (one function per verb), `commit` (the one write path
//!   every mutation takes), `background` (checkpointer, WAL flusher,
//!   compactor, reshard migrator).
//! - [`metrics`] — [`ServerMetrics`]: per-request-type counters and
//!   queue-wait / execution latency histograms, Prometheus-exposable.
//! - [`snapshot`] — [`Snapshot`]: atomic (temp + rename), versioned
//!   (magic + format version + schema hash) index persistence (the
//!   implementation now lives in `rl-store`; re-exported here).
//! - **durability** (protocol v4) — with a data directory
//!   ([`DurabilityConfig`], [`Server::spawn_durable`]) every mutation is
//!   write-ahead logged before its reply, checkpoints run in the
//!   background, and startup recovers the index from checkpoint + WAL
//!   tail. See `docs/STORAGE.md`.
//! - [`client`] — [`Client`]: a typed synchronous client with read/write
//!   timeouts, bounded retries for idempotent reads, and transparent
//!   `NotPrimary` redirects.
//! - [`repl`] (protocol v5) — replication roles and the primary-side
//!   checkpoint-transfer / WAL-subscription handlers; the follower loop
//!   lives in the `rl-repl` crate and drives the server through
//!   [`ReplHandle`]. See `docs/REPLICATION.md`.
//! - **subs** (protocol v6) — streaming match subscriptions:
//!   `SubscribeMatches` compiles a rule into a pruned blocking plan
//!   (`rl-streamrule`) and pushes `MatchEvent` lines through a bounded
//!   per-subscription queue; slow consumers get a typed
//!   `SubscriptionLagged` and must resubscribe. See `docs/STREAMING.md`.
//!
//! ## Loopback example
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use cbv_hb::sharded::ShardedPipeline;
//! use cbv_hb::{AttributeSpec, LinkageConfig, Record, RecordSchema, Rule};
//! use rl_server::{Client, Server, ServerConfig};
//! use textdist::Alphabet;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let schema = RecordSchema::build(
//!     Alphabet::linkage(),
//!     vec![
//!         AttributeSpec::new("FirstName", 2, 64, false, 5),
//!         AttributeSpec::new("LastName", 2, 64, false, 5),
//!     ],
//!     &mut rng,
//! );
//! let rule = Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]);
//! let pipeline =
//!     ShardedPipeline::new(schema, LinkageConfig::rule_aware(rule), 2, &mut rng).unwrap();
//!
//! let server = Server::spawn(pipeline, ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client.index(&[Record::new(1, ["JOHN", "SMITH"])]).unwrap();
//! let (pairs, _) = client.probe(&[Record::new(10, ["JON", "SMITH"])]).unwrap();
//! assert_eq!(pairs, vec![(1, 10)]);
//! client.shutdown().unwrap();
//! server.wait();
//! ```

pub(crate) mod background;
pub mod client;
pub(crate) mod commit;
pub(crate) mod conn;
pub(crate) mod handlers;
pub mod metrics;
pub mod protocol;
#[cfg(unix)]
pub(crate) mod reactor;
pub mod repl;
pub(crate) mod repl_handle;
pub mod server;
pub mod snapshot;
pub(crate) mod subs;

pub use client::{Client, ClientError, WatchEvent};
pub use metrics::{ReqType, ServerMetrics};
pub use protocol::{
    ErrorCode, ReplStatusReply, Reply, Request, RequestError, Response, ShardMapReply, StatsReply,
    FIRST_BINARY_VERSION, PROTOCOL_VERSION,
};
pub use repl::{ApplyError, ReplRole, ReplState};
pub use repl_handle::ReplHandle;
pub use server::{DurabilityConfig, Server, ServerConfig};
pub use snapshot::{Snapshot, SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
// Durability building blocks, re-exported for server embedders.
pub use rl_store::{Checkpoint, Store, StoreError, StoreOptions, SyncPolicy, WalOp};
// Subscription wire types (protocol v6), re-exported so clients need not
// depend on rl-streamrule directly.
pub use rl_streamrule::{LateArrival, WindowSpec};
// Reshard wire types (protocol v10), re-exported so clients need not
// depend on rl-reshard directly.
pub use rl_reshard::{MigrationStatus, RangeAssignment, ReshardOp, ShardMap};

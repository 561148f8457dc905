//! The TCP service: configuration, shared state, the bounded worker pool,
//! and the [`Server`] handle (spawn, graceful shutdown, wait).
//!
//! Architecture (std networking only):
//!
//! ```text
//!  clients ──TCP──▶ reactor (poll) ──try_send──▶ bounded job queue
//!                    │   ▲                             │
//!     lone 1-record  │   └── per-conn outbox ◀── worker pool (N threads)
//!     probe, locks   │                                 │
//!     free: inline   └────try_read────▶ RwLock<ServerState>
//!                                        (ShardedPipeline: N shards, each
//!                                         data behind its own RwLock; dedup)
//! ```
//!
//! The threads that exist: the reactor (`rl-reactor`), the pool
//! (`rl-worker-<i>`), one `rl-conn` per live stream, and a durable
//! server's background loops (`rl-checkpoint`, `rl-compact`,
//! `rl-wal-sync`, `rl-reshard-migrate` while a migration copies). Shards
//! are data, not threads: a probe runs to completion on the thread that
//! picked it up.
//!
//! One reactor thread ([`crate::reactor`]) owns every request/reply
//! connection: it polls readiness, answers the one-line JSON
//! [`Request::Upgrade`] handshake that opens a connection, parses
//! `rl-wire` frames from then on, and enqueues jobs; workers
//! ([`crate::handlers`]) deliver responses into a per-connection outbox
//! ([`crate::conn`]) that the reactor drains. Idle connections cost no
//! threads, and a connection may have many requests in flight at once
//! (pipelining, correlated by request id). A streaming verb
//! (`FetchCheckpoint`, `Subscribe`, `SubscribeMatches`) takes its
//! connection off the reactor onto a dedicated blocking thread that owns
//! it until the stream ends.
//!
//! **The inline rule.** The reactor executes a request itself iff it is a
//! `Probe` of exactly one record, it is the only request the reactor has
//! to dispatch in this turn of its loop (one connection holding a
//! complete frame and nothing behind it — the closed-loop caller, whose
//! latency is otherwise thread wake-ups around microseconds of work; a
//! frame still arriving elsewhere is not a request yet), and the state
//! read lock and every shard read lock are free *now* (`try_read`). So
//! the reactor never waits on a lock and is held for at most one
//! single-record probe per turn — a bound on count, not on time: the
//! probe itself is not cut short. Everything else goes to the pool.
//!
//! When the bounded queue is full the request is rejected immediately
//! with a typed [`crate::ErrorCode::Backpressure`] error rather than
//! blocking the socket. Workers execute jobs against the shared state —
//! probes under a read lock (concurrent), mutations under the write lock,
//! applied (searchable) before their reply. Lock order: `state` first;
//! under it the shards, ascending (the migrator copies without `state`
//! and never holds source and target together), or `repl.role` then
//! `store` — never a shard lock and `store` at once. A panicking handler
//! costs one request, not its thread (`guarded`). `Shutdown` stops
//! accepting, finishes in-flight requests, drains the queue, and joins
//! every thread the server started.

use crate::background;
use crate::commit::replay;
use crate::conn::{encode_reply, push_reply, ConnShared};
use crate::handlers::{execute, execute_records, write_snapshot};
use crate::metrics::{ReqType, ServerMetrics};
use crate::protocol::wire::{self, RequestRef, Verb};
use crate::protocol::{ErrorCode, Request, RequestError, Response};
use crate::repl::{ReplRole, ReplState};
use crate::repl_handle::ReplHandle;
use crate::snapshot::{Snapshot, SnapshotError};
use crate::subs::SubHub;
use cbv_hb::dedup::UnionFind;
use cbv_hb::sharded::ShardedPipeline;
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use rl_store::{FrameRecordsBuf, Store, StoreOptions, SyncPolicy};
use std::io::ErrorKind;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Durable-mode configuration: where the data directory lives and how
/// aggressively it is synced and checkpointed.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the checkpoint and WAL segments (created if
    /// missing). One server per directory.
    pub data_dir: PathBuf,
    /// fsync cadence for WAL appends (see [`SyncPolicy`]).
    pub sync: SyncPolicy,
    /// Background checkpoint cadence. `None` disables the checkpointer
    /// (the WAL grows until a restart replays it).
    pub checkpoint_every: Option<Duration>,
}

impl DurabilityConfig {
    /// Durability at `data_dir` with the safe defaults: fsync every
    /// append, checkpoint every 60 seconds.
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        Self {
            data_dir: data_dir.into(),
            sync: SyncPolicy::Always,
            checkpoint_every: Some(Duration::from_secs(60)),
        }
    }
}

/// Tuning knobs for [`Server::spawn`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (use port 0 for an ephemeral port).
    pub addr: String,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Bounded job-queue capacity; beyond it requests are rejected with
    /// [`ErrorCode::Backpressure`].
    pub queue_capacity: usize,
    /// Where `Snapshot` requests persist the index by default, and where
    /// the server snapshots once more during shutdown.
    pub snapshot_path: Option<PathBuf>,
    /// Requests slower end-to-end (queue wait + execution) than this are
    /// logged with their latency split and counted in
    /// `rl_slow_requests_total`. `None` disables slow-request logging.
    pub slow_request_threshold: Option<Duration>,
    /// When set, the server runs durably: every mutation is write-ahead
    /// logged before the reply, and startup recovers from the data
    /// directory (only honored via [`Server::spawn_durable`]).
    pub durability: Option<DurabilityConfig>,
    /// The node's replication role. Anything but
    /// [`ReplRole::Standalone`] requires durability (the WAL is what gets
    /// shipped). See `docs/REPLICATION.md`.
    pub repl_role: ReplRole,
    /// Most `SubscribeMatches` streams served at once (protocol v6); the
    /// next subscribe is rejected with [`ErrorCode::Unavailable`]. Each
    /// subscription costs a connection thread, a compiled blocking plan,
    /// and a bounded event queue.
    pub max_subscriptions: usize,
    /// Lease duration granted to followers on every subscription
    /// heartbeat (protocol v8), in milliseconds. A follower running with
    /// `--auto-failover` elects a new primary once a granted lease
    /// expires without stream progress. 0 disables lease grants.
    pub lease_ms: u64,
    /// Hold each mutation reply until this many followers confirm the
    /// frame durable (protocol v8 quorum acks). 0 replies after local
    /// durability only (the pre-v8 behaviour).
    pub sync_replicas: usize,
    /// Bounded wait for the quorum acks before a typed
    /// [`ErrorCode::QuorumTimeout`] reply (the mutation is still durable
    /// locally).
    pub quorum_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 64,
            snapshot_path: None,
            slow_request_threshold: Some(Duration::from_secs(1)),
            durability: None,
            repl_role: ReplRole::Standalone,
            max_subscriptions: 64,
            lease_ms: 0,
            sync_replicas: 0,
            quorum_timeout: Duration::from_secs(2),
        }
    }
}

/// Everything a request can touch, behind one lock.
pub(crate) struct ServerState {
    pub(crate) pipeline: ShardedPipeline,
    /// Union-find over stream-matched record ids (the dedup view).
    pub(crate) dedup: UnionFind,
    /// Pairs feeding `dedup`, kept for snapshots.
    pub(crate) stream_pairs: Vec<(u64, u64)>,
    pub(crate) streamed: u64,
}

impl ServerState {
    /// State over a freshly built `pipeline`, with no stream history.
    pub(crate) fn new(pipeline: ShardedPipeline) -> Self {
        Self {
            pipeline,
            dedup: UnionFind::new(),
            stream_pairs: Vec::new(),
            streamed: 0,
        }
    }

    /// The one restore: a snapshot's pipeline, with the dedup forest
    /// rebuilt from its stream pairs.
    pub(crate) fn restore(snapshot: Snapshot) -> cbv_hb::error::Result<Self> {
        let mut dedup = UnionFind::new();
        for &(a, b) in &snapshot.stream_pairs {
            dedup.union(a, b);
        }
        Ok(Self {
            pipeline: ShardedPipeline::from_state(snapshot.state)?,
            dedup,
            stream_pairs: snapshot.stream_pairs,
            streamed: snapshot.streamed,
        })
    }

    /// The one export: the snapshot [`Self::restore`] reads back.
    pub(crate) fn export(&self) -> Result<Snapshot, SnapshotError> {
        let exported = self
            .pipeline
            .export_state()
            .map_err(|e| SnapshotError::Format {
                path: None,
                msg: e.to_string(),
            })?;
        Snapshot::new(exported, self.stream_pairs.clone(), self.streamed)
    }

    /// Publishes the record gauges.
    pub(crate) fn publish(&self, metrics: &ServerMetrics) {
        metrics
            .indexed_records
            .set(self.pipeline.indexed_len() as i64);
        metrics.streamed_records.set(self.streamed as i64);
    }
}

/// What a worker is handed to execute.
pub(crate) enum Work {
    /// A decoded request.
    Request(Request),
    /// A binary `Probe`, `Index` or `Insert`: its verb, and its records,
    /// checked by [`crate::protocol::wire::decode_request_ref`] and copied
    /// out of the reactor's read buffer whole — one allocation, where
    /// decoding them would make a `String` for every field. The worker
    /// reads them in place without checking them again.
    Records(Verb, FrameRecordsBuf),
}

/// A unit of work plus the connection and request id its response goes
/// back to.
pub(crate) struct Job {
    pub(crate) work: Work,
    pub(crate) conn: Arc<ConnShared>,
    pub(crate) id: u64,
    /// When the reactor enqueued the job; the gap to worker pickup is the
    /// queue-wait phase of the latency split.
    pub(crate) enqueued: Instant,
}

pub(crate) struct Inner {
    pub(crate) state: RwLock<ServerState>,
    pub(crate) config: ServerConfig,
    pub(crate) shutdown: AtomicBool,
    pub(crate) started: Instant,
    pub(crate) requests_served: AtomicU64,
    local_addr: SocketAddr,
    pub(crate) metrics: Arc<ServerMetrics>,
    /// The durability layer (WAL + checkpoints); `None` without a data
    /// dir. Lock order: `state` before `repl.role` before `store` —
    /// mutations append under the state write lock, the checkpointer
    /// rotates under a state read lock, promote flips the role under the
    /// state write lock, so none can deadlock another.
    pub(crate) store: Option<Mutex<Store>>,
    /// Replication role and lag counters (see [`crate::repl`]).
    pub(crate) repl: ReplState,
    /// Live match subscriptions (see [`crate::subs`]).
    pub(crate) subs: SubHub,
    /// The background migrator serving the in-flight `Reshard`, if any. A
    /// finished thread's handle stays here until the next reshard (or
    /// shutdown) joins it.
    pub(crate) reshard_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// A running linkage service. Dropping the handle does not stop the
/// server; send a `Shutdown` request (or call [`Server::shutdown`]) and
/// then [`Server::wait`].
pub struct Server {
    inner: Arc<Inner>,
    jobs: Sender<Job>,
    /// The reactor: the only producer of jobs, so it is joined before the
    /// job channel closes.
    reactor: std::thread::JoinHandle<()>,
    /// Workers and background loops.
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Runs one request payload (a [`crate::protocol::wire::TAG_REQUEST`]
    /// frame's) through the path the reactor serves a lone single-record
    /// probe on — decode in place, probe, encode — on the calling thread,
    /// appending the response frame to `outbox`. `false`, with nothing
    /// appended, where the reactor would hand the request to the pool: it
    /// is not a single-record probe, or a lock is held. What the path
    /// allocates can be counted this way.
    #[doc(hidden)]
    pub fn probe_inline(&self, payload: &[u8], outbox: &mut Vec<u8>) -> bool {
        crate::reactor::probe_inline_payload(&self.inner, payload, outbox)
    }

    /// Runs one request payload the way the pool serves a binary `Probe`,
    /// `Index` or `Insert` — decode in place and copy the records out of
    /// the frame, as the reactor does, then execute, book and encode, as a
    /// worker does — on the calling thread, appending the response frame
    /// to `outbox`. `false`, with nothing appended, for any other request.
    /// What the path allocates can be counted this way.
    #[doc(hidden)]
    pub fn execute_pooled(&self, payload: &[u8], outbox: &mut Vec<u8>) -> bool {
        let Ok((id, RequestRef::Records(verb, records))) = wire::decode_request_ref(payload) else {
            return false;
        };
        let records = records.to_buf();
        let shared = Mutex::new(std::mem::take(outbox));
        work_records(&self.inner, verb, &records, id, Duration::ZERO, &shared);
        *outbox = shared.into_inner();
        true
    }
}

fn spawn_thread(
    inner: &Arc<Inner>,
    name: impl Into<String>,
    body: impl FnOnce(&Arc<Inner>) + Send + 'static,
) -> std::io::Result<std::thread::JoinHandle<()>> {
    let inner = Arc::clone(inner);
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || body(&inner))
}

impl Server {
    /// Binds the listener, spawns the worker pool and the reactor, and
    /// returns immediately, serving a freshly built `pipeline`.
    ///
    /// # Errors
    /// Returns I/O errors from binding the address, setting up the
    /// reactor's sockets, or starting a thread.
    pub fn spawn(pipeline: ShardedPipeline, config: ServerConfig) -> std::io::Result<Self> {
        Self::spawn_core(ServerState::new(pipeline), config, None)
    }

    /// Like [`Self::spawn`], serving the index, dedup history and stream
    /// counter of a saved snapshot.
    ///
    /// # Errors
    /// A snapshot the pipeline cannot load, and the errors of
    /// [`Self::spawn`].
    pub fn spawn_restored(snapshot: Snapshot, config: ServerConfig) -> std::io::Result<Self> {
        let state = ServerState::restore(snapshot).map_err(std::io::Error::other)?;
        Self::spawn_core(state, config, None)
    }

    /// Spawns a **durable** server from `config.durability` (which must be
    /// set): opens the data directory, loads the latest checkpoint,
    /// replays the WAL tail (truncating a torn final frame with a warning,
    /// never refusing to start), and then serves with every mutation
    /// write-ahead logged before its reply. `fresh` builds the pipeline
    /// only when the directory has no checkpoint yet (first boot).
    ///
    /// # Errors
    /// Returns I/O errors from binding the address, opening the data
    /// directory, or a corrupt checkpoint (a torn WAL tail is NOT an
    /// error), and any error from `fresh`.
    pub fn spawn_durable<F>(fresh: F, config: ServerConfig) -> std::io::Result<Self>
    where
        F: FnOnce() -> std::io::Result<ShardedPipeline>,
    {
        let Some(durability) = config.durability.clone() else {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "spawn_durable requires config.durability",
            ));
        };
        let (store, recovery) = Store::open(
            &durability.data_dir,
            StoreOptions {
                sync: durability.sync,
            },
        )
        .map_err(|e| std::io::Error::other(e.to_string()))?;

        let mut state = match recovery.snapshot {
            Some(snap) => ServerState::restore(snap).map_err(std::io::Error::other)?,
            None => ServerState::new(fresh()?),
        };
        replay(&mut state, recovery.ops).map_err(std::io::Error::other)?;
        let report = recovery.report;
        if report.checkpoint_seq.is_some() || report.replayed_ops > 0 {
            eprintln!(
                "rl-server: recovered from {}: checkpoint covering wal seq {:?}, \
                 {} op(s) replayed from {} segment(s), {} torn byte(s) truncated, in {:.1}ms",
                durability.data_dir.display(),
                report.checkpoint_seq,
                report.replayed_ops,
                report.segments_replayed,
                report.truncated_bytes,
                report.duration.as_secs_f64() * 1e3,
            );
        }
        let server = Self::spawn_core(state, config, Some(store))?;
        let metrics = &server.inner.metrics;
        metrics.replayed_ops.set(report.replayed_ops as i64);
        metrics
            .replay_duration_ms
            .set(report.duration.as_millis() as i64);
        Ok(server)
    }

    #[cfg(not(unix))]
    fn spawn_core(_: ServerState, _: ServerConfig, _: Option<Store>) -> std::io::Result<Self> {
        Err(std::io::Error::new(
            ErrorKind::Unsupported,
            "rl-server serves connections from a poll(2) reactor and needs a unix target",
        ))
    }

    #[cfg(unix)]
    fn spawn_core(
        mut state: ServerState,
        config: ServerConfig,
        store: Option<Store>,
    ) -> std::io::Result<Self> {
        if config.repl_role != ReplRole::Standalone && store.is_none() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "replication roles require durability (the WAL is what gets shipped); \
                 start with a data directory",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let reactor = crate::reactor::Reactor::new(listener)?;

        let metrics = ServerMetrics::new();
        state.pipeline.attach_metrics(Arc::clone(&metrics.pipeline));
        state.publish(&metrics);
        if let Some(store) = &store {
            metrics.wal_bytes.set(store.wal_bytes() as i64);
        }
        let repl = ReplState::new(
            config.repl_role.clone(),
            store.as_ref().map(Store::op_seq).unwrap_or(0),
            store.as_ref().map(Store::epoch).unwrap_or(0),
        );
        let subs = SubHub::new(state.pipeline.schema().clone(), config.max_subscriptions);
        let inner = Arc::new(Inner {
            state: RwLock::new(state),
            config,
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            requests_served: AtomicU64::new(0),
            local_addr,
            metrics,
            store: store.map(Mutex::new),
            repl,
            subs,
            reshard_thread: Mutex::new(None),
        });

        let (job_tx, job_rx) = bounded::<Job>(inner.config.queue_capacity.max(1));
        // On an error, the threads that did start see the flag and exit.
        let (reactor, threads) = start_threads(&inner, reactor, &job_tx, job_rx)
            .inspect_err(|_| begin_shutdown(&inner))?;
        Ok(Self {
            inner,
            jobs: job_tx,
            reactor,
            threads,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// A cloneable handle for replication drivers (the `rl-repl` crate's
    /// follower loop): apply streamed ops, reset to a checkpoint, read
    /// and publish replication lag.
    pub fn repl_handle(&self) -> ReplHandle {
        ReplHandle::new(Arc::clone(&self.inner))
    }

    /// Requests shutdown from the owning process (equivalent to a client
    /// sending `Shutdown`).
    pub fn shutdown(&self) {
        begin_shutdown(&self.inner);
    }

    /// Blocks until the reactor has stopped — which includes every
    /// streaming connection thread it detached — and all queued requests
    /// have drained through the workers. Takes a final snapshot if a
    /// snapshot path is configured.
    pub fn wait(self) {
        let _ = self.reactor.join();
        // Closing the job channel lets workers finish the backlog and exit.
        drop(self.jobs);
        for handle in self.threads {
            let _ = handle.join();
        }
        // The migrator observes the shutdown flag and aborts its copy (the
        // un-committed migration deterministically never happened); join it
        // before the final snapshot so the exported state is settled.
        if let Some(handle) = self.inner.reshard_thread.lock().take() {
            let _ = handle.join();
        }
        // Group-commit mode may hold acknowledged-but-unsynced frames;
        // make the clean-shutdown boundary durable.
        if let Some(store) = &self.inner.store {
            if let Err(e) = store.lock().sync() {
                eprintln!("rl-server: final WAL sync failed: {e}");
            }
        }
        if let Some(path) = self.inner.config.snapshot_path.clone() {
            let state = self.inner.state.read();
            if let Err(e) = write_snapshot(&state, &path) {
                eprintln!("rl-server: shutdown snapshot failed: {e}");
            }
        }
    }
}

/// Starts the reactor, the worker pool and a durable server's background
/// loops; returns the reactor's handle and the others'.
#[cfg(unix)]
fn start_threads(
    inner: &Arc<Inner>,
    reactor: crate::reactor::Reactor,
    job_tx: &Sender<Job>,
    job_rx: Receiver<Job>,
) -> std::io::Result<(
    std::thread::JoinHandle<()>,
    Vec<std::thread::JoinHandle<()>>,
)> {
    let reactor = {
        let job_tx = job_tx.clone();
        spawn_thread(inner, "rl-reactor", move |inner| {
            reactor.run(inner, &job_tx)
        })?
    };
    let mut threads: Vec<_> = (0..inner.config.workers.max(1))
        .map(|i| {
            let rx: Receiver<Job> = job_rx.clone();
            spawn_thread(inner, format!("rl-worker-{i}"), move |inner| {
                worker_loop(inner, &rx)
            })
        })
        .collect::<std::io::Result<_>>()?;
    drop(job_rx);

    if let (Some(_), Some(durability)) = (&inner.store, &inner.config.durability) {
        if let Some(every) = durability.checkpoint_every {
            threads.push(spawn_thread(inner, "rl-checkpoint", move |inner| {
                background::checkpoint_loop(inner, every)
            })?);
            // Blocking-store compaction runs on its own thread, off
            // the checkpoint path: merging delta overlays only needs a
            // state read lock (each shard's own write lock serializes
            // the actual store mutation), so it does not stall
            // mutations behind a write lock before every checkpoint.
            // Same trigger as the checkpointer — compaction matters
            // when checkpoints export the overlay it bounds. A memory
            // store has none, and a sweep would only take every shard's
            // write lock and turn lone probes away from the reactor.
            let stats = inner.state.read().pipeline.blocking_stats();
            if stats.iter().any(|s| s.store == "mmap") {
                threads.push(spawn_thread(inner, "rl-compact", move |inner| {
                    background::compact_loop(inner, every)
                })?);
            }
        }
        if let SyncPolicy::GroupCommit(interval) = durability.sync {
            threads.push(spawn_thread(inner, "rl-wal-sync", move |inner| {
                background::wal_sync_loop(inner, interval)
            })?);
        }
    }

    Ok((reactor, threads))
}

pub(crate) fn begin_shutdown(inner: &Inner) {
    if inner.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    // Wake the reactor out of poll(2) so it observes the flag now rather
    // than at its next timeout: a throwaway connection makes the listener
    // readable. A wildcard bind address (0.0.0.0 / ::) is not connectable
    // on every platform, so poke loopback on the bound port instead.
    let mut addr = inner.local_addr;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
}

fn worker_loop(inner: &Arc<Inner>, rx: &Receiver<Job>) {
    while let Ok(job) = rx.recv() {
        let queue_wait = job.enqueued.elapsed();
        let t0 = Instant::now();
        let (id, metrics) = (job.id, &inner.metrics);
        match job.work {
            Work::Request(request) => {
                let rtype = ReqType::of(&request);
                let response =
                    guarded(metrics, || execute(inner, request)).unwrap_or_else(Response::Err);
                let ok = matches!(response, Response::Ok(_));
                account(inner, rtype, queue_wait, t0.elapsed(), ok);
                job.conn.push_response(id, &response);
            }
            Work::Records(verb, records) => {
                work_records(inner, verb, &records, id, queue_wait, &job.conn.outbox);
            }
        }
        job.conn.complete();
    }
}

/// A worker's run of a binary `Probe`, `Index` or `Insert`
/// ([`Work::Records`]): executes it ([`execute_records`]), books it, and
/// frames its response into `outbox` — booked before the reply is framed,
/// as a decoded request is.
fn work_records(
    inner: &Inner,
    verb: Verb,
    records: &FrameRecordsBuf,
    id: u64,
    queue_wait: Duration,
    outbox: &Mutex<Vec<u8>>,
) {
    let t0 = Instant::now();
    let metrics = &inner.metrics;
    push_reply(outbox, |out| {
        let ran = guarded(metrics, || {
            execute_records(inner, verb, records.records(), id, out)
        });
        let ok = ran.unwrap_or_else(|panicked| {
            encode_reply(id, &Response::Err(panicked), out);
            false
        });
        account(inner, ReqType::of_verb(verb), queue_wait, t0.elapsed(), ok);
        Some(())
    });
}

/// Runs a handler so that its panic costs one request, not the thread —
/// a pool worker that would otherwise die silently and leave its client to
/// time out, or the reactor and with it the whole server. The panic is
/// counted (`rl_handler_panics_total`) and becomes a typed error for the
/// caller to answer with; locks the handler held are recovered by the lock
/// shim, not poisoned.
pub(crate) fn guarded<T>(
    metrics: &ServerMetrics,
    handler: impl FnOnce() -> T,
) -> Result<T, RequestError> {
    catch_unwind(AssertUnwindSafe(handler)).map_err(|panic| {
        metrics.handler_panics.inc();
        let what = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "no message".into());
        RequestError::new(
            ErrorCode::Unavailable,
            format!("internal: the handler panicked ({what}); the request's outcome is unknown"),
        )
    })
}

/// Books one executed request, on whichever thread executed it, by
/// whether it succeeded (`ok`): the served counter, the per-type counter and latency split, the slow-request log.
pub(crate) fn account(
    inner: &Inner,
    rtype: ReqType,
    queue_wait: Duration,
    exec: Duration,
    ok: bool,
) {
    inner.requests_served.fetch_add(1, Ordering::Relaxed);
    inner.metrics.record_request(rtype, queue_wait, exec, ok);
    if let Some(threshold) = inner.config.slow_request_threshold {
        let total = queue_wait + exec;
        if total >= threshold {
            inner.metrics.slow_requests.inc();
            eprintln!(
                "rl-server: slow request type={} total={:.1}ms queue_wait={:.1}ms exec={:.1}ms",
                rtype.label(),
                total.as_secs_f64() * 1e3,
                queue_wait.as_secs_f64() * 1e3,
                exec.as_secs_f64() * 1e3,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, ClientError};
    use crate::protocol::Reply;
    use cbv_hb::pipeline::LinkageConfig;
    use cbv_hb::{AttributeSpec, Record, RecordSchema, Rule};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use textdist::Alphabet;

    fn pipeline() -> ShardedPipeline {
        let mut rng = StdRng::seed_from_u64(19);
        let schema = RecordSchema::build(
            Alphabet::linkage(),
            vec![
                AttributeSpec::new("FirstName", 2, 64, false, 5),
                AttributeSpec::new("LastName", 2, 64, false, 5),
            ],
            &mut rng,
        );
        let rule = Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]);
        ShardedPipeline::new(schema, LinkageConfig::rule_aware(rule), 2, &mut rng).unwrap()
    }

    #[test]
    fn a_panicking_handler_is_one_typed_error_and_one_count() {
        let metrics = ServerMetrics::new();
        assert_eq!(guarded(&metrics, || 7).unwrap(), 7);
        let err = guarded(&metrics, || -> u32 { panic!("shard {} on fire", 1) }).unwrap_err();
        assert_eq!(err.code, ErrorCode::Unavailable);
        assert!(err.message.starts_with("internal:"), "{}", err.message);
        assert!(err.message.contains("shard 1 on fire"), "{}", err.message);
        // The thread that ran it is still here to run the next one.
        assert_eq!(guarded(&metrics, || 8).unwrap(), 8);
        let panics = metrics.snapshot();
        assert_eq!(
            panics.counter_value("rl_handler_panics_total", None),
            Some(1)
        );
    }

    /// (inline, declined for a busy lock, declined for company).
    fn probe_paths(client: &mut Client) -> (u64, u64, u64) {
        let m = client.metrics().unwrap();
        let count = |name, label| m.counter_value(name, label).unwrap();
        (
            count("rl_probes_inline_total", None),
            count("rl_probes_inline_declined_total", Some("lock_busy")),
            count("rl_probes_inline_declined_total", Some("not_alone")),
        )
    }

    #[test]
    fn the_reactor_never_waits_on_a_lock() {
        let server = Server::spawn(pipeline(), ServerConfig::default()).unwrap();
        let mut a = Client::connect(server.local_addr()).unwrap();
        // A reactor stuck on a lock would answer nobody: fail in seconds.
        let mut b = Client::connect_with_timeout(server.local_addr(), Some(Duration::from_secs(3)))
            .unwrap();
        a.index(&[Record::new(1, ["JOHN", "SMITH"])]).unwrap();
        let probe = Request::Probe {
            records: vec![Record::new(10, ["JON", "SMITH"])],
        };
        assert!(matches!(a.call(&probe), Ok(Reply::Matches { .. })));
        assert_eq!(probe_paths(&mut b), (1, 0, 0), "a lone probe, locks free");

        let exclusive = server.inner.state.write();
        a.set_timeout(Some(Duration::from_millis(300))).unwrap();
        a.send(&probe).unwrap();
        assert!(
            matches!(a.recv(), Err(ClientError::Timeout)),
            "a probe was answered through a held write lock"
        );
        // The reactor met the lock, passed the probe to the pool (where a
        // worker now waits), and serves on: `Metrics` takes no state lock.
        assert_eq!(probe_paths(&mut b), (1, 1, 0));
        drop(exclusive);
        a.set_timeout(Some(Client::DEFAULT_TIMEOUT)).unwrap();
        match a.recv().unwrap() {
            Reply::Matches { pairs, .. } => assert_eq!(pairs, vec![(1, 10)]),
            other => panic!("expected the probe's answer, got {other:?}"),
        }

        drop((a, b));
        server.shutdown();
        server.wait();
    }
}

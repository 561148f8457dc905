//! Request execution: one handler per verb, each a function from a parsed
//! request to a typed reply or a typed error, run against the shared state
//! on a worker thread — or, for a lone single-record probe that finds every
//! lock free ([`try_probe`]), on the reactor itself. Socket I/O never
//! happens here.

use crate::background::{abort_migration, reshard_migrate_loop};
use crate::commit::{commit, CommitError, Committed};
use crate::conn::encode_reply;
use crate::protocol::wire::{self, FrameRecords, Verb};
use crate::protocol::{
    ErrorCode, ReplStatusReply, Reply, Request, RequestError, Response, ShardMapReply, StatsReply,
    PROTOCOL_VERSION,
};
use crate::repl::{await_quorum, ReplRole};
use crate::server::{Inner, ServerState};
use crate::snapshot::SnapshotError;
use cbv_hb::sharded::Linked;
use cbv_hb::{Record, RecordView};
use rl_reshard::ReshardOp;
use rl_store::{Batch, Mutation};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

type Handled = Result<Reply, RequestError>;

/// Executes one request. Streaming verbs, `Upgrade` and `Shutdown` are
/// answered on the connection (see [`crate::reactor`]); one of them
/// reaching a worker is a misrouted job.
pub(crate) fn execute(inner: &Arc<Inner>, request: Request) -> Response {
    let handled = match request {
        // `Insert` is `Index` with the durability intent spelled out; both
        // hit the WAL before the reply when a data dir is configured.
        Request::Index { records } | Request::Insert { records } => {
            insert(inner, records[..].into())
        }
        Request::Delete { ids } => delete(inner, &ids),
        Request::Probe { records } => probe(inner, &records),
        Request::Stream { record } => stream(inner, &record),
        Request::DedupStatus => Ok(dedup_status(inner)),
        Request::Stats => Ok(stats(inner)),
        Request::Metrics => Ok(Reply::Metrics(inner.metrics.snapshot())),
        Request::Snapshot { path } => snapshot(inner, path),
        Request::ReplStatus => Ok(repl_status(inner)),
        Request::Promote => promote(inner),
        Request::Unsubscribe { sub_id } => Ok(Reply::Unsubscribed {
            removed: inner.subs.unsubscribe(sub_id),
        }),
        Request::GetShardMap => shard_map(inner),
        Request::MigrationStatus => Ok(Reply::Migration(
            inner.state.read().pipeline.migration_status(),
        )),
        Request::Reshard { op } => reshard(inner, op),
        Request::FetchCheckpoint
        | Request::Subscribe { .. }
        | Request::SubscribeMatches { .. }
        | Request::Upgrade { .. }
        | Request::Shutdown => Err(RequestError::new(
            ErrorCode::Unavailable,
            "this request is handled on the connection, not by a worker",
        )),
    };
    match handled {
        Ok(reply) => Response::Ok(reply),
        Err(e) => Response::Err(e),
    }
}

fn linkage(e: cbv_hb::error::Error) -> RequestError {
    RequestError::new(ErrorCode::Linkage, e.to_string())
}

/// Commits a request's mutation ([`commit`]) on a primary or standalone
/// node, then waits for the replica quorum.
fn commit_request(inner: &Inner, mutation: Mutation<'_>) -> Result<Committed, RequestError> {
    let mut state = inner.state.write();
    reject_if_follower(inner)?;
    let committed = commit(inner, &mut state, mutation).map_err(|e| match e {
        CommitError::Refused(e) | CommitError::Apply(e) => linkage(e),
        CommitError::Append(e) => RequestError::new(
            ErrorCode::Storage,
            format!("wal append failed; mutation not applied: {e}"),
        ),
    })?;
    // Quorum waits happen after the lock is released: acks arrive
    // independently, and other requests must not stall behind the
    // bounded wait.
    drop(state);
    await_quorum(inner, committed.seq)?;
    Ok(committed)
}

fn insert(inner: &Inner, records: Batch<'_>) -> Handled {
    let committed = commit_request(inner, Mutation::Insert(records))?;
    Ok(Reply::Indexed {
        accepted: records.len(),
        total_indexed: committed.indexed,
        applied_seq: committed.seq,
    })
}

fn delete(inner: &Inner, ids: &[u64]) -> Handled {
    let committed = commit_request(inner, Mutation::Delete(ids))?;
    Ok(Reply::Deleted {
        removed: committed.removed,
        total_indexed: committed.indexed,
        applied_seq: committed.seq,
    })
}

fn probe(inner: &Inner, records: &[Record]) -> Handled {
    let state = inner.state.read();
    let linked = state.pipeline.link(records);
    linked.map(matches_reply).map_err(linkage)
}

/// [`probe`] for the reactor thread, which must never wait, of records
/// read in place: encodes the response under `id` into `payload` and says
/// whether it is a success — or `None`, with nothing done, unless the
/// state lock and every shard lock can be shared right now (a probe that
/// meets a mutation, a compaction or a migration copy is a job for the
/// pool). The matched pairs go from the engine's buffers straight into
/// `payload`, with no reply built.
pub(crate) fn try_probe<R>(
    inner: &Inner,
    records: R,
    id: u64,
    payload: &mut Vec<u8>,
) -> Option<bool>
where
    R: IntoIterator,
    R::IntoIter: Clone,
    R::Item: RecordView,
{
    let state = inner.state.try_read()?;
    let encode = |pairs: &[(u64, u64)], stats: &_| wire::encode_matches(id, pairs, stats, payload);
    match state.pipeline.try_link_with(records, encode)? {
        Ok(()) => Some(true),
        Err(e) => {
            encode_reply(id, &Response::Err(linkage(e)), payload);
            Some(false)
        }
    }
}

/// Executes a binary `Probe`, `Index` or `Insert` on a worker
/// ([`crate::server::Work::Records`]), its records read in place where the
/// reactor checked them: encodes the response under `id` into `out` and
/// says whether it is a success. A probe's matched pairs go from the
/// engine's buffers straight into `out`; an insert commits the records
/// as they lie ([`Batch::Frame`]).
pub(crate) fn execute_records(
    inner: &Inner,
    verb: Verb,
    records: FrameRecords<'_>,
    id: u64,
    out: &mut Vec<u8>,
) -> bool {
    let handled = match verb {
        Verb::Probe => {
            let state = inner.state.read();
            let encode =
                |pairs: &[(u64, u64)], stats: &_| wire::encode_matches(id, pairs, stats, out);
            match state.pipeline.link_with(records, encode) {
                Ok(()) => return true,
                Err(e) => Err(linkage(e)),
            }
        }
        Verb::Index | Verb::Insert => insert(inner, Batch::Frame(records)),
    };
    let response = match handled {
        Ok(reply) => Response::Ok(reply),
        Err(e) => Response::Err(e),
    };
    encode_reply(id, &response, out);
    matches!(response, Response::Ok(_))
}

fn matches_reply((pairs, stats): Linked) -> Reply {
    let notes = crate::protocol::truncation_notes(&stats);
    Reply::Matches {
        pairs,
        stats,
        notes,
    }
}

fn stream(inner: &Inner, record: &Record) -> Handled {
    // Logged as `Observe` (not `Insert`): replay re-runs the
    // match-then-index round, rebuilding the stream pairs and the dedup
    // forest deterministically.
    let committed = commit_request(inner, Mutation::Observe(record))?;
    Ok(Reply::Observed {
        matches: committed.matches,
        applied_seq: committed.seq,
    })
}

fn dedup_status(inner: &Inner) -> Reply {
    let clusters = inner.state.write().dedup.clusters(2);
    Reply::DedupStatus {
        linked_records: clusters.iter().map(Vec::len).sum(),
        clusters,
    }
}

fn stats(inner: &Inner) -> Reply {
    let state = inner.state.read();
    let blocking = state.pipeline.blocking_stats();
    let record_heap_bytes = state.pipeline.record_heap_bytes();
    inner
        .metrics
        .update_block_gauges(&blocking, record_heap_bytes);
    Reply::Stats(StatsReply {
        protocol_version: PROTOCOL_VERSION,
        shards: state.pipeline.num_shards(),
        workers: inner.config.workers.max(1),
        queue_capacity: inner.config.queue_capacity.max(1),
        indexed: state.pipeline.indexed_len(),
        streamed: state.streamed,
        requests_served: inner.requests_served.load(Ordering::Relaxed),
        rejected_backpressure: inner.metrics.rejected_backpressure.get(),
        uptime_secs: inner.started.elapsed().as_secs(),
        blocking,
        shard_map_epoch: state.pipeline.shard_map().epoch(),
        shard_records: shard_records(&state),
        record_heap_bytes,
    })
}

fn shard_records(state: &ServerState) -> Vec<u64> {
    let counts = state.pipeline.shard_record_counts();
    counts.into_iter().map(|c| c as u64).collect()
}

fn snapshot(inner: &Inner, path: Option<String>) -> Handled {
    let target = path
        .map(PathBuf::from)
        .or_else(|| inner.config.snapshot_path.clone())
        .ok_or_else(|| {
            RequestError::new(
                ErrorCode::Unavailable,
                "no snapshot path configured; pass one in the request or start \
                 the server with --snapshot",
            )
        })?;
    let state = inner.state.read();
    let indexed = write_snapshot(&state, &target)
        .map_err(|e| RequestError::new(ErrorCode::Snapshot, e.to_string()))?;
    Ok(Reply::Snapshotted {
        path: target.to_string_lossy().into_owned(),
        indexed,
    })
}

fn repl_status(inner: &Inner) -> Reply {
    let role = inner.repl.role.lock().clone();
    let applied = inner.store.as_ref().map(|s| s.lock().op_seq()).unwrap_or(0);
    let (head_seq, lag_bytes, primary_addr) = match &role {
        ReplRole::Follower { primary_addr } => (
            // The stream's head can trail reality between heartbeats;
            // never report a head behind what we have already applied.
            inner.repl.head_seq.load(Ordering::SeqCst).max(applied),
            inner.repl.lag_bytes.load(Ordering::SeqCst),
            Some(primary_addr.clone()),
        ),
        _ => (applied, 0, None),
    };
    Reply::ReplStatus(ReplStatusReply {
        role: role.label().to_string(),
        primary_addr,
        applied_seq: applied,
        head_seq,
        lag_frames: head_seq.saturating_sub(applied),
        lag_bytes: if head_seq > applied { lag_bytes } else { 0 },
        followers: inner.repl.followers.load(Ordering::SeqCst),
        reconnects: inner.repl.reconnects.load(Ordering::SeqCst),
        epoch: inner.repl.epoch(),
        lease_ms: inner.config.lease_ms,
    })
}

fn promote(inner: &Inner) -> Handled {
    // The state write lock fences in-flight mutations and apply calls;
    // the role lock then makes the flip atomic with respect to every role
    // check (lock order state → role → store).
    let _state = inner.state.write();
    let mut role = inner.repl.role.lock();
    match role.clone() {
        ReplRole::Follower { .. } => {
            // A follower mid-bootstrap has an incomplete store — promoting
            // it would crown a primary with a torn checkpoint. Typed
            // refusal; retry once resync ends.
            if inner.repl.resyncing.load(Ordering::SeqCst) {
                return Err(RequestError::new(
                    ErrorCode::Unavailable,
                    "promote refused: a checkpoint bootstrap/resync is in \
                     flight; retry once the follower is caught up",
                ));
            }
            let Some(store) = &inner.store else {
                return Err(RequestError::new(
                    ErrorCode::Unavailable,
                    "promote requires a data directory",
                ));
            };
            let mut store = store.lock();
            // Start the new primary's write era: bump the epoch and
            // persist the marker on a fresh segment in one durable step,
            // so a restart (or the fenced old primary's frames) can never
            // roll the era back. The follower's WAL mirrors the old
            // primary's frames, so op sequencing continues seamlessly.
            let epoch = store.bump_epoch().map_err(|e| {
                RequestError::new(ErrorCode::Storage, format!("promote failed: {e}"))
            })?;
            let head_seq = store.op_seq();
            *role = ReplRole::Primary;
            inner.repl.epoch.store(epoch, Ordering::SeqCst);
            inner.metrics.repl_lag_frames.set(0);
            inner.metrics.repl_lag_bytes.set(0);
            eprintln!("rl-server: promoted to primary at op seq {head_seq} (epoch {epoch})");
            Ok(Reply::Promoted {
                head_seq,
                was_follower: true,
                epoch,
            })
        }
        ReplRole::Primary => Ok(Reply::Promoted {
            head_seq: inner.store.as_ref().map(|s| s.lock().op_seq()).unwrap_or(0),
            was_follower: false,
            epoch: inner.repl.epoch(),
        }),
        ReplRole::Standalone => Err(RequestError::new(
            ErrorCode::Unavailable,
            "promote only applies to replicated servers (follower, or primary \
             started with --allow-replicas)",
        )),
    }
}

fn shard_map(inner: &Inner) -> Handled {
    let state = inner.state.read();
    let map = state.pipeline.shard_map();
    Ok(Reply::ShardMap(ShardMapReply {
        epoch: map.epoch(),
        num_shards: map.num_shards(),
        ranges: map.assignments().to_vec(),
        records: shard_records(&state),
        migration: state.pipeline.migration_status(),
    }))
}

fn reshard(inner: &Arc<Inner>, op: ReshardOp) -> Handled {
    let mut state = inner.state.write();
    // Only a primary (or standalone) may change the shard map — followers
    // receive the change as a replicated cutover frame.
    reject_if_follower(inner)?;
    let driver = state.pipeline.begin_reshard(op).map_err(linkage)?;
    let status = state.pipeline.migration_status();
    inner.metrics.reshard_state.set(1);
    inner.metrics.reshard_migrated.set(0);
    inner.metrics.reshard_lag.set(status.total as i64);
    drop(state);
    // At most one migration runs (begin_reshard enforces it), so any
    // previous migrator has finished — join it before the new thread
    // takes the slot.
    let mut slot = inner.reshard_thread.lock();
    if let Some(handle) = slot.take() {
        let _ = handle.join();
    }
    let migrator = Arc::clone(inner);
    let spawned = std::thread::Builder::new()
        .name("rl-reshard-migrate".into())
        .spawn(move || reshard_migrate_loop(&migrator, driver));
    // A migration with no driver would refuse every later reshard and
    // skip every checkpoint: roll it back.
    *slot = Some(spawned.map_err(|e| {
        abort_migration(inner, "its migrator could not start");
        RequestError::new(
            ErrorCode::Unavailable,
            format!("reshard not started: cannot spawn its migrator: {e}"),
        )
    })?);
    Ok(Reply::ReshardStarted {
        kind: op.kind().to_string(),
        source: status.source,
        target: status.target,
        total: status.total,
    })
}

/// Rejects a mutation on a follower with a typed redirect. Called with
/// the state write lock held, so a concurrent promote (which also takes
/// it) cannot interleave with the check-then-mutate sequence.
fn reject_if_follower(inner: &Inner) -> Result<(), RequestError> {
    match &*inner.repl.role.lock() {
        ReplRole::Follower { primary_addr } => Err(RequestError::new(
            ErrorCode::NotPrimary,
            "read-only follower; send mutations to the primary",
        )
        .with_primary(primary_addr.clone())),
        _ => Ok(()),
    }
}

pub(crate) fn write_snapshot(state: &ServerState, path: &Path) -> Result<usize, SnapshotError> {
    let snapshot = state.export()?;
    snapshot.save(path)?;
    Ok(snapshot.state.indexed)
}

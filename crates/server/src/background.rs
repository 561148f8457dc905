//! The server's background threads: the group-commit WAL flusher, the
//! checkpointer, the blocking-store compactor, and the online-reshard
//! migrator. Each watches the shutdown flag and exits on its own.

use crate::commit::append;
use crate::repl::await_quorum;
use crate::server::Inner;
use cbv_hb::sharded::ReshardDriver;
use rl_store::{Mutation, StoreError, CHECKPOINT_FILE};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Background group-commit flusher: fsyncs the WAL on the group-commit
/// cadence even when traffic stops. Appends only check the interval
/// inline, so without this an idle server would hold the last burst of
/// acknowledged writes unsynced indefinitely — the "at most one interval
/// lost to power failure" bound would only hold under continuous traffic.
/// [`rl_store::Wal::sync`] is a no-op when nothing is pending, so the
/// idle cost is a lock acquisition per interval.
pub(crate) fn wal_sync_loop(inner: &Arc<Inner>, interval: Duration) {
    let tick = interval
        .min(Duration::from_millis(25))
        .max(Duration::from_millis(1));
    let mut last = Instant::now();
    while !inner.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(tick);
        if last.elapsed() < interval {
            continue;
        }
        last = Instant::now();
        if let Some(store) = &inner.store {
            if let Err(e) = store.lock().sync() {
                eprintln!("rl-server: background WAL sync failed: {e}");
            }
        }
    }
}

/// The background migrator for an online reshard: streams the source
/// shard's moved records into the target in bounded batches (no state
/// lock held — each shard's own lock serializes a batch against concurrent
/// mutations, which are dual-applied to both shards meanwhile), then
/// commits the cutover under the state write lock: WAL-log the
/// `Reshard` frame *first* (the commit is the only durable trace of the
/// migration — a crash before it replays to a world where the migration
/// never started), then install the new map and purge the source.
/// Shutdown or a copy failure aborts: the target's partial copy is
/// purged and the old map stays in force.
pub(crate) fn reshard_migrate_loop(inner: &Arc<Inner>, mut driver: ReshardDriver) {
    const BATCH: usize = 512;
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            abort_migration(inner, "shutdown requested");
            return;
        }
        match driver.copy_batch(BATCH) {
            Ok(true) => break,
            Ok(false) => {
                let migrated = driver.migrated();
                inner.metrics.reshard_migrated.set(migrated as i64);
                let total = inner.state.read().pipeline.migration_status().total;
                inner
                    .metrics
                    .reshard_lag
                    .set(total.saturating_sub(migrated) as i64);
            }
            Err(e) => {
                eprintln!("rl-server: reshard copy failed: {e}; aborting the migration");
                abort_migration(inner, "copy failed");
                return;
            }
        }
    }
    inner.metrics.reshard_state.set(2);
    let mut state = inner.state.write();
    let status = state.pipeline.migration_status();
    let cutover = Mutation::Reshard {
        merge: status.kind == "merge",
        source: status.source as u64,
        target: status.target as u64,
    };
    let applied_seq = match append(inner, cutover) {
        Ok(seq) => seq,
        Err(e) => {
            drop(state);
            eprintln!("rl-server: reshard cutover not durable ({e}); aborting the migration");
            abort_migration(inner, "cutover append failed");
            return;
        }
    };
    match state.pipeline.finish_reshard(&driver) {
        Ok(epoch) => {
            inner.metrics.reshard_migrated.set(driver.migrated() as i64);
            inner.metrics.reshard_lag.set(0);
            inner.metrics.reshard_state.set(0);
            drop(state);
            if let Err(e) = await_quorum(inner, applied_seq) {
                eprintln!(
                    "rl-server: reshard cutover committed locally (epoch {epoch}) but the \
                     replica quorum timed out: {}",
                    e.message
                );
            }
            eprintln!(
                "rl-server: reshard {} of shard {} into {} complete: {} record(s) moved, \
                 shard map epoch {epoch}",
                status.kind, status.source, status.target, status.migrated
            );
        }
        Err(e) => {
            // The commit frame (if any) is already durable: recovery will
            // replay the reshard even though this process could not apply
            // it. Surface loudly; the index stays serving on the old map.
            drop(state);
            eprintln!("rl-server: reshard cutover failed to apply: {e}");
            abort_migration(inner, "cutover apply failed");
        }
    }
}

/// Rolls the in-flight migration back (purges the target's partial copy,
/// keeps the current map) and clears the reshard gauges.
pub(crate) fn abort_migration(inner: &Inner, why: &str) {
    let mut state = inner.state.write();
    match state.pipeline.abort_reshard() {
        Ok(()) => eprintln!("rl-server: migration aborted ({why})"),
        Err(e) => eprintln!("rl-server: migration abort ({why}) failed: {e}"),
    }
    drop(state);
    inner.metrics.reshard_state.set(0);
    inner.metrics.reshard_lag.set(0);
}

/// Background blocking-store compactor: on the checkpoint cadence, merge
/// each disk-resident structure's delta overlay into a fresh generation.
/// Started only for a pipeline with a disk store: a memory store has
/// nothing to compact. Runs under a state *read* lock, one shard at a
/// time under that shard's write lock: probes wait only for the shard
/// being compacted (a single-record probe that would have run on the
/// reactor goes to the pool to do its waiting), mutations for the sweep.
pub(crate) fn compact_loop(inner: &Arc<Inner>, every: Duration) {
    let mut last = Instant::now();
    while !inner.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(25));
        if last.elapsed() < every {
            continue;
        }
        last = Instant::now();
        let state = inner.state.read();
        if let Err(e) = state.pipeline.compact_stores() {
            eprintln!("rl-server: blocking-store compaction failed: {e}");
        } else {
            inner.metrics.compactions.inc();
        }
    }
}

/// The background checkpointer: every `every`, rotate the WAL, export the
/// index, and commit a checkpoint that lets recovery skip the pruned log —
/// unless nothing was logged since the last one ([`run_checkpoint`]).
pub(crate) fn checkpoint_loop(inner: &Arc<Inner>, every: Duration) {
    let mut last = Instant::now();
    while !inner.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(25));
        if last.elapsed() < every {
            continue;
        }
        last = Instant::now();
        if let Err(e) = run_checkpoint(inner) {
            // A failed checkpoint costs replay time, never durability:
            // the WAL it failed to prune still holds every mutation.
            eprintln!("rl-server: checkpoint failed: {e}");
        }
    }
}

/// Commits a checkpoint of the index as it stands. With a checkpoint file
/// on disk and no op logged since it was committed (`op_seq` is the
/// checkpoint's `base_ops`), there is nothing to cover: the WAL is not
/// rotated and the index not exported again. The replication bootstrap
/// calls this when there is no file yet, and so always gets one.
pub(crate) fn run_checkpoint(inner: &Inner) -> Result<(), StoreError> {
    let Some(store) = &inner.store else {
        return Ok(());
    };
    // The state read lock excludes mutations (which hold write) for the
    // rotate + export window, so the exported snapshot covers exactly the
    // segments up to the rotation watermark.
    let state = inner.state.read();
    {
        let store = store.lock();
        if store.op_seq() == store.base_ops() && store.dir().join(CHECKPOINT_FILE).exists() {
            return Ok(());
        }
    }
    // Mid-migration, moved records transiently live on two shards; an
    // exported snapshot would duplicate them forever. The lock ordering
    // makes this check stable: cutover needs the state write lock, which
    // this read lock excludes until the export is done. Skipping costs
    // replay time, never durability.
    if state.pipeline.migration_status().active {
        return Ok(());
    }
    let covered = store.lock().begin_checkpoint()?;
    let snapshot = state.export()?;
    drop(state);
    let mut store = store.lock();
    store.commit_checkpoint(snapshot, covered)?;
    inner.metrics.wal_bytes.set(store.wal_bytes() as i64);
    inner.metrics.checkpoints.inc();
    Ok(())
}

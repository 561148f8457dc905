//! The one write path. A [`Mutation`] — an insert batch, a streamed
//! record, a delete batch or a reshard cutover, borrowed from whoever
//! sends it — is committed in one order: validate, append to the WAL,
//! apply to the index, fan out to the match subscriptions, update the
//! gauges ([`commit`]). The `Index`/`Insert`, `Delete` and `Stream`
//! handlers commit what a request borrows, and a follower commits each
//! replicated op ([`crate::ReplHandle::apply`]). Recovery replays through
//! [`apply`] alone ([`replay`]), and the reshard migrator logs its cutover
//! through [`append`] alone. Every step runs under the state write lock.

use crate::server::{Inner, ServerState};
use cbv_hb::error::Error;
use cbv_hb::Record;
use rl_reshard::ReshardOp;
use rl_store::{Batch, Mutation, StoreError, WalOp};
use std::time::Instant;

/// Why a mutation was not committed, by the step that refused it.
pub(crate) enum CommitError {
    /// The schema refused a record; nothing was logged.
    Refused(Error),
    /// The WAL append failed; nothing was applied.
    Append(StoreError),
    /// The mutation is durable but the index refused it.
    Apply(Error),
}

/// What a committed mutation did.
#[derive(Default)]
pub(crate) struct Committed {
    /// Op sequence of its last logged frame (a reply's `applied_seq`); 0
    /// without a store.
    pub(crate) seq: u64,
    /// Records indexed after it.
    pub(crate) indexed: usize,
    /// Records a delete removed.
    pub(crate) removed: usize,
    /// Indexed ids a streamed record matched.
    pub(crate) matches: Vec<u64>,
}

/// Commits `mutation`: nothing is applied that is not durable, and
/// nothing is logged that the schema refuses, so the WAL never holds an
/// op that fails again at replay. The caller holds the state write lock,
/// so subscription events follow mutation order across connections.
pub(crate) fn commit(
    inner: &Inner,
    state: &mut ServerState,
    mutation: Mutation<'_>,
) -> Result<Committed, CommitError> {
    // Validated without embedding: `apply` embeds, once.
    let schema = state.pipeline.schema();
    let checked = match mutation {
        Mutation::Insert(Batch::Owned(records)) => records.iter().try_for_each(|r| schema.check(r)),
        Mutation::Insert(Batch::Frame(records)) => {
            records.into_iter().try_for_each(|r| schema.check(&r))
        }
        Mutation::Observe(record) => schema.check(record),
        Mutation::Delete(_) | Mutation::Reshard { .. } => Ok(()),
    };
    checked.map_err(CommitError::Refused)?;
    let seq = append(inner, mutation).map_err(CommitError::Append)?;
    let t0 = Instant::now();
    let mut committed = apply(state, mutation).map_err(CommitError::Apply)?;
    let metrics = &inner.metrics;
    if let Mutation::Observe(_) = mutation {
        // One streaming round (match + index).
        metrics.pipeline.observe.observe_duration(t0.elapsed());
    }
    // A reshard moves records between shards without changing the record
    // set, so subscriptions see nothing of it; with no subscription open, a
    // record has nowhere to go.
    let subs = &inner.subs;
    match mutation {
        Mutation::Delete(ids) => ids.iter().for_each(|&id| subs.remove(id)),
        _ if !subs.any_open() => {}
        Mutation::Insert(Batch::Owned(records)) => {
            records.iter().for_each(|r| subs.observe(metrics, r))
        }
        Mutation::Insert(Batch::Frame(records)) => {
            records.into_iter().for_each(|r| subs.observe(metrics, &r))
        }
        Mutation::Observe(record) => subs.observe(metrics, record),
        Mutation::Reshard { .. } => {}
    }
    state.publish(metrics);
    committed.seq = seq;
    committed.indexed = state.pipeline.indexed_len();
    Ok(committed)
}

/// Appends `mutation` to the WAL, all-or-nothing: on failure no op of a
/// multi-record batch is durable, never a silent prefix that resurfaces
/// at replay. Returns the op sequence of its last frame, 0 without a
/// store.
pub(crate) fn append(inner: &Inner, mutation: Mutation<'_>) -> Result<u64, StoreError> {
    let Some(store) = &inner.store else {
        return Ok(0);
    };
    let mut store = store.lock();
    store.append_mutation(mutation)?;
    inner.metrics.wal_appends.add(mutation.ops() as u64);
    inner.metrics.wal_bytes.set(store.wal_bytes() as i64);
    Ok(store.op_seq())
}

/// Applies `mutation` to the index with the semantics its request had. A
/// streamed record is probed, its matches joined in the dedup forest, and
/// then indexed. A reshard applies synchronously at its position in the
/// op stream: planning is deterministic, so the recomputed plan (and a
/// split's recomputed target id) matches what the primary executed.
pub(crate) fn apply(
    state: &mut ServerState,
    mutation: Mutation<'_>,
) -> cbv_hb::error::Result<Committed> {
    let mut applied = Committed::default();
    match mutation {
        Mutation::Insert(Batch::Owned(records)) => state.pipeline.index(records)?,
        Mutation::Insert(Batch::Frame(records)) => state.pipeline.index(records)?,
        Mutation::Observe(record) => applied.matches = observe(state, record)?,
        Mutation::Delete(ids) => applied.removed = state.pipeline.delete(ids)?,
        Mutation::Reshard {
            merge,
            source,
            target,
        } => {
            let (source, target) = (source as usize, target as usize);
            let op = if merge {
                ReshardOp::Merge { source, target }
            } else {
                ReshardOp::Split { source }
            };
            state.pipeline.reshard_sync(op)?;
        }
    }
    Ok(applied)
}

/// Applies a recovered WAL tail in op order ([`apply`]), each maximal run
/// of consecutive inserts as one batch: one embed, and one write lock per
/// shard, per run rather than per record. Any other op ends a run.
pub(crate) fn replay(state: &mut ServerState, ops: Vec<WalOp>) -> cbv_hb::error::Result<()> {
    let mut run: Vec<Record> = Vec::new();
    for op in ops {
        match op {
            WalOp::Insert(record) => run.push(record),
            op => {
                if !run.is_empty() {
                    apply(state, Mutation::Insert(run[..].into()))?;
                    run.clear();
                }
                apply(state, (&op).into())?;
            }
        }
    }
    if !run.is_empty() {
        apply(state, Mutation::Insert(run[..].into()))?;
    }
    Ok(())
}

fn observe(state: &mut ServerState, record: &Record) -> cbv_hb::error::Result<Vec<u64>> {
    let batch = std::slice::from_ref(record);
    let (pairs, _) = state.pipeline.link(batch)?;
    let matches: Vec<u64> = pairs.into_iter().map(|(a, _)| a).collect();
    state.pipeline.index(batch)?;
    for &a in &matches {
        state.dedup.union(a, record.id);
        state.stream_pairs.push((a, record.id));
    }
    state.streamed += 1;
    Ok(matches)
}

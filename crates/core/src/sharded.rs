//! Sharded linkage: data-partitioned HB over shards that are plain data.
//!
//! The paper's authors scale LSH-based linkage by distributing blocking
//! groups over workers (their refs [15, 16]). This module provides the
//! standard data-partitioned variant of that architecture in process: `n`
//! shards each own a full blocking plan (identical hash functions) over a
//! partition of data set A; a probe walks every shard and the matched ids
//! are unioned. The per-pair recall guarantee is unchanged — a pair's
//! A-side lives in exactly one shard, whose plan delivers the usual `1 − δ`
//! bound.
//!
//! A shard is `{plan, store}` — blocking tables and a [`RecordSlab`] of
//! packed rows — behind its own `RwLock`; nothing here owns a thread.
//! [`ShardedPipeline::link`] takes `&self` and runs to completion on the
//! calling thread — the batch embedded once into the thread's buffer of
//! rows, then every shard under its read lock with the thread's
//! [`crate::blocking::ProbeScratch`] ([`crate::buffers`]) — so any number
//! of threads probe one pipeline at once. Mutations take `&mut self` and
//! each shard's write lock in turn, and have landed when they return: an
//! indexed record is searchable.
//!
//! Lock order: shards ascending, and only `link` holds more than one. The
//! [`ReshardDriver`] (which shares the two shards' `Arc`s, not the
//! pipeline) and [`ShardedPipeline::compact_stores`] take one shard lock at
//! a time, so they run beside probes.
//!
//! Placement is governed by a versioned [`ShardMap`] (`rl-reshard`): record
//! ids hash through [`key_point`] into a 64-bit keyspace whose ranges are
//! assigned to shards. Growing or shrinking the cluster is an online
//! **reshard**: [`ShardedPipeline::begin_reshard`] plans a split or merge,
//! a [`ReshardDriver`] streams the moved records into the target shard off
//! the write path, and [`ShardedPipeline::finish_reshard`] cuts over with
//! an epoch bump. During the migration window, writes into the moved ranges
//! are dual-applied to both shards and probes walk every shard as always —
//! the candidate union keeps CoveringLSH's zero-false-negative guarantee
//! while a record transiently exists on two shards (duplicate pairs are
//! deduped at the gather step).

use crate::blocking::{BlockingPlan, StructureStats};
use crate::buffers::{with_probe_buffers, ProbeBuffers};
use crate::error::{Error, Result};
use crate::matcher::{
    index_row, match_batch, restore, unindex, Classifier, MatchStats, RecordSlab, RowClassifier,
};
use crate::pipeline::{LinkageConfig, PipelineMetrics};
use crate::record::{Record, RecordView};
use crate::schema::RecordSchema;
use parking_lot::{RwLock, RwLockReadGuard};
use rand::Rng;
use rl_reshard::{
    key_point, KeyRange, MigrationStatus, ReshardError, ReshardOp, ReshardPlan, ShardMap,
};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One shard's complete indexed state: its blocking plan (tables populated)
/// plus the rows of the records it owns. Serializable, so a sharded index can
/// be snapshotted to disk and restored by a later process (see
/// [`ShardedPipeline::export_state`] / [`ShardedPipeline::from_state`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardState {
    /// The shard's blocking plan with populated hash tables.
    pub plan: BlockingPlan,
    /// The embedded records partitioned onto this shard.
    pub store: RecordSlab,
}

/// The full serializable state of a [`ShardedPipeline`]: schema (hash
/// coefficients included), classifier, and per-shard plan + store.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardedState {
    /// The embedding schema shared by all shards.
    pub schema: RecordSchema,
    /// The classifier applied to candidate pairs.
    pub classifier: Classifier,
    /// Per-shard indexed state, in shard order.
    pub shards: Vec<ShardState>,
    /// Records indexed so far (across shards). Written for readers of the
    /// document; [`ShardedPipeline::from_state`] counts the slabs instead.
    pub indexed: usize,
    /// The versioned shard map. Absent in snapshots from before online
    /// resharding: those restored pipelines get a fresh uniform map, which
    /// is safe because probes walk every shard and deletes broadcast — the
    /// map only governs *new* placement and migration scope.
    #[serde(default)]
    pub map: Option<ShardMap>,
}

/// A shard as the pipeline holds it: the state a snapshot exports, plus the
/// delete memory of a migration target.
struct Shard {
    state: ShardState,
    /// Armed while this shard is a migration target: every id deleted in
    /// the window is remembered, so a stale copy collected on the source
    /// *before* the delete can never resurrect the record here.
    migration_deletes: Option<HashSet<u64>>,
}

type SharedShard = Arc<RwLock<Shard>>;

/// Shards whose read guards a probe holds on the stack; more take a `Vec`.
const STACK_SHARDS: usize = 8;

/// Every shard's read guard, taken in ascending order (the lock order).
enum ShardGuards<'a> {
    Stack([Option<RwLockReadGuard<'a, Shard>>; STACK_SHARDS]),
    Heap(Vec<RwLockReadGuard<'a, Shard>>),
}

impl<'a> ShardGuards<'a> {
    /// Waits for each lock in turn.
    fn read(shards: &'a [SharedShard]) -> Self {
        if shards.len() > STACK_SHARDS {
            return Self::Heap(shards.iter().map(|s| s.read()).collect());
        }
        let mut guards: [Option<_>; STACK_SHARDS] = Default::default();
        for (guard, shard) in guards.iter_mut().zip(shards) {
            *guard = Some(shard.read());
        }
        Self::Stack(guards)
    }

    /// Waits for none: `None`, with every guard taken so far released,
    /// when a lock is held exclusively.
    fn try_read(shards: &'a [SharedShard]) -> Option<Self> {
        if shards.len() > STACK_SHARDS {
            let guards: Option<Vec<_>> = shards.iter().map(|s| s.try_read()).collect();
            return guards.map(Self::Heap);
        }
        let mut guards: [Option<_>; STACK_SHARDS] = Default::default();
        for (guard, shard) in guards.iter_mut().zip(shards) {
            *guard = Some(shard.try_read()?);
        }
        Some(Self::Stack(guards))
    }

    fn iter(&self) -> impl Iterator<Item = &Shard> {
        let (stack, heap) = match self {
            Self::Stack(guards) => (&guards[..], &[][..]),
            Self::Heap(guards) => (&[][..], &guards[..]),
        };
        let stack = stack.iter().flatten().map(|g| &**g);
        stack.chain(heap.iter().map(|g| &**g))
    }
}

/// What a probe returns: the matched `(id_A, id_B)` pairs, ascending and
/// distinct, and the matching counters summed over the shards.
pub type Linked = (Vec<(u64, u64)>, MatchStats);

impl Shard {
    fn shared(plan: BlockingPlan, store: RecordSlab) -> SharedShard {
        Arc::new(RwLock::new(Shard {
            state: ShardState { plan, store },
            migration_deletes: None,
        }))
    }

    /// Indexes `(id, row)`s, a known id replacing its record, and counts
    /// the ids new to the shard in `added`.
    ///
    /// # Errors
    /// Returns the refusal of a full slab ([`index_row`]); the records
    /// before it stay indexed.
    fn insert_all<'a>(
        &mut self,
        batch: impl IntoIterator<Item = (u64, &'a [u64])>,
        added: &mut usize,
    ) -> Result<()> {
        let ShardState { plan, store } = &mut self.state;
        for (id, row) in batch {
            if let Some(mem) = self.migration_deletes.as_mut() {
                // A re-insert after a delete is a fresh record; the id must
                // leave the delete memory.
                mem.remove(&id);
            }
            *added += usize::from(index_row(plan, store, id, row)?);
        }
        Ok(())
    }

    /// Delete: the record leaves its bucket in every table and the slab
    /// ([`unindex`]), so it can never be a candidate again. The ids that
    /// were present are appended to `removed`.
    fn delete(&mut self, ids: &[u64], removed: &mut Vec<u64>) {
        let ShardState { plan, store } = &mut self.state;
        for &id in ids {
            if unindex(plan, store, id) {
                removed.push(id);
            }
            if let Some(mem) = self.migration_deletes.as_mut() {
                mem.insert(id);
            }
        }
    }

    /// The ids of the shard's records whose key point falls in `ranges`.
    fn ids_in<'a>(&'a self, ranges: &'a [KeyRange]) -> impl Iterator<Item = u64> + 'a {
        self.state
            .store
            .iter()
            .map(|(id, _)| id)
            .filter(move |&id| {
                let point = key_point(id);
                ranges.iter().any(|r| r.contains(point))
            })
    }

    /// Migration source: one page of the shard's records within `ranges`,
    /// ids strictly greater than `after`, ascending, at most `limit`.
    fn collect_migration(&self, ranges: &[KeyRange], after: Option<u64>, limit: usize) -> Page {
        let mut ids: Vec<u64> = self
            .ids_in(ranges)
            .filter(|&id| after.is_none_or(|a| id > a))
            .collect();
        ids.sort_unstable();
        ids.truncate(limit);
        let store = &self.state.store;
        let rows = ids.iter().flat_map(|&id| store.get(id)).flatten();
        Page {
            rows: rows.copied().collect(),
            ids,
        }
    }

    /// Migration target: adopt copied records, skipping ids the target
    /// already owns (a dual-applied write raced ahead of the copy and wrote
    /// the newer version) and ids deleted since the migration began.
    fn migrate_in(&mut self, page: &Page) -> Result<()> {
        let w = self.state.store.layout().words();
        let fresh: Vec<(u64, &[u64])> = (page.ids.iter().copied())
            .zip(page.rows.chunks_exact(w))
            .filter(|(id, _)| {
                self.state.store.get(*id).is_none()
                    && !self
                        .migration_deletes
                        .as_ref()
                        .is_some_and(|d| d.contains(id))
            })
            .collect();
        self.insert_all(fresh, &mut 0)
    }

    /// Drops every record whose key point falls in `ranges` (cutover purge
    /// on the source; abort rollback on the target).
    fn purge_range(&mut self, ranges: &[KeyRange]) {
        let victims: Vec<u64> = self.ids_in(ranges).collect();
        let ShardState { plan, store } = &mut self.state;
        for id in victims {
            unindex(plan, store, id);
        }
    }
}

/// One page of a migration's copy: ids ascending, their rows one after the
/// other.
struct Page {
    ids: Vec<u64>,
    rows: Vec<u64>,
}

/// An in-flight migration, tracked pipeline-side.
struct Migration {
    plan: ReshardPlan,
    migrated: Arc<AtomicU64>,
    /// Source records inside the moved ranges when the migration began
    /// (denominator for progress/lag gauges).
    total: u64,
}

/// Drives the copy phase of a migration: page records out of the source,
/// adopt them on the target. Holds the two shards themselves, not the
/// pipeline, so the caller can run it from a background thread *without*
/// holding any pipeline lock — indexing and probing proceed concurrently.
/// It locks one shard at a time (source shared, then target exclusive),
/// never both.
pub struct ReshardDriver {
    source: SharedShard,
    target: SharedShard,
    moved: Vec<KeyRange>,
    cursor: Option<u64>,
    migrated: Arc<AtomicU64>,
    done: bool,
}

impl ReshardDriver {
    /// Copies the next page of at most `limit` records. Returns `true` once
    /// the source has drained (no records in the moved ranges beyond the
    /// cursor) — the migration is then ready for
    /// [`ShardedPipeline::finish_reshard`].
    ///
    /// # Errors
    /// Returns the refusal of a full target slab ([`index_row`]); the
    /// cursor stays, so the next call copies the page again.
    pub fn copy_batch(&mut self, limit: usize) -> Result<bool> {
        if !self.done {
            let source = self.source.read();
            let page = source.collect_migration(&self.moved, self.cursor, limit.max(1));
            drop(source);
            self.target.write().migrate_in(&page)?;
            let copied = page.ids.len() as u64;
            self.done = copied == 0;
            self.cursor = page.ids.last().copied().or(self.cursor);
            self.migrated.fetch_add(copied, Ordering::Relaxed);
        }
        Ok(self.done)
    }

    /// Records copied so far.
    pub fn migrated(&self) -> u64 {
        self.migrated.load(Ordering::Relaxed)
    }
}

/// A sharded linkage index: partitioned data, probes that walk every shard
/// on the calling thread. `Send + Sync`: share it behind an `Arc` or a
/// reader-writer lock and probe from as many threads as there are.
pub struct ShardedPipeline {
    schema: RecordSchema,
    classifier: Classifier,
    /// `classifier` compiled against the schema's row layout.
    program: RowClassifier,
    shards: Vec<SharedShard>,
    /// Versioned keyspace → shard assignment; governs new placements.
    map: ShardMap,
    migration: Option<Migration>,
    /// An empty clone of the compiled plan (identical hash draws), used to
    /// synthesize shards created by a split.
    template: BlockingPlan,
    /// Root directory of disk-resident stores (`None` for in-memory); new
    /// shards rehome their stores under `<root>/shard-<i>/`.
    store_root: Option<PathBuf>,
    indexed: usize,
    metrics: Option<Arc<PipelineMetrics>>,
}

impl std::fmt::Debug for ShardedPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedPipeline")
            .field("shards", &self.shards.len())
            .field("epoch", &self.map.epoch())
            .field("indexed", &self.indexed)
            .finish()
    }
}

impl ShardedPipeline {
    /// Builds the index with `num_shards` shards. Every shard gets a clone
    /// of one compiled plan, so hash functions are identical across shards
    /// and results are independent of the partitioning.
    ///
    /// # Errors
    /// Returns configuration errors from rule validation / plan compilation,
    /// and [`Error::InvalidParameter`] for zero shards.
    pub fn new<R: Rng + ?Sized>(
        schema: RecordSchema,
        config: LinkageConfig,
        num_shards: usize,
        rng: &mut R,
    ) -> Result<Self> {
        let plan = BlockingPlan::from_config(&schema, &config, rng)?;
        let classifier = Classifier::Rule(config.rule);
        Self::from_parts(schema, plan, classifier, num_shards)
    }

    /// Builds the index from an already-compiled plan (e.g. to mirror an
    /// existing [`crate::pipeline::LinkagePipeline`] exactly, hash
    /// functions included).
    ///
    /// # Errors
    /// Returns [`Error::Reshard`] with [`ReshardError::RequiresMigration`]
    /// when the plan is disk-resident and already populated — its on-disk
    /// generations cannot be re-rooted in place; migrate online instead,
    /// and [`Error::AttributeOutOfRange`] for a classifier on an attribute
    /// the schema does not have.
    pub fn from_parts(
        schema: RecordSchema,
        plan: BlockingPlan,
        classifier: Classifier,
        num_shards: usize,
    ) -> Result<Self> {
        if num_shards == 0 {
            return Err(Error::InvalidParameter("need at least one shard".into()));
        }
        let program = classifier.compile(&schema.layout())?;
        // Disk-resident plans re-root each shard's clone under its own
        // `shard-<i>/` subtree so generation files never collide.
        let store_root = plan.store_root();
        let mut template = plan.clone();
        template.clear_for_rebuild();
        let shards = (0..num_shards)
            .map(|i| {
                let mut shard_plan = plan.clone();
                if let Some(root) = &store_root {
                    shard_plan.rehome_stores(root, i).map_err(|_| {
                        Error::Reshard(ReshardError::RequiresMigration("the blocking plan".into()))
                    })?;
                }
                Ok(Shard::shared(shard_plan, RecordSlab::new(schema.layout())))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            program,
            schema,
            classifier,
            shards,
            map: ShardMap::uniform(num_shards),
            migration: None,
            template,
            store_root,
            indexed: 0,
            metrics: None,
        })
    }

    /// Attaches phase-timing metrics: the embed, insert (`block`) and match
    /// durations of subsequent [`ShardedPipeline::index`] and
    /// [`ShardedPipeline::link`] calls are recorded into the shared
    /// histograms — the same three phases
    /// [`crate::pipeline::LinkagePipeline`] records, so one
    /// [`PipelineMetrics`] per process aggregates both engines.
    pub fn attach_metrics(&mut self, metrics: Arc<PipelineMetrics>) {
        self.metrics = Some(metrics);
    }

    /// Restores an index from a previously exported [`ShardedState`] —
    /// each shard starts preloaded with its snapshotted plan and store, so
    /// probe results are identical to the pipeline the state was exported
    /// from. The state's `indexed` is not read: the slabs count their
    /// records.
    ///
    /// # Errors
    /// Returns [`Error::InvalidParameter`] when the state has no shards or
    /// its shard map names more shards than the state carries, and the
    /// refusals of `matcher::restore` — the one restore routine,
    /// shared with `LinkagePipeline::load` — for a classifier or a shard
    /// whose probes would panic.
    pub fn from_state(state: ShardedState) -> Result<Self> {
        if state.shards.is_empty() {
            return Err(Error::InvalidParameter(
                "sharded state has no shards".into(),
            ));
        }
        let num_shards = state.shards.len();
        let map = match state.map {
            Some(map) => {
                map.validate().map_err(Error::Reshard)?;
                // A shard created by an aborted split may outlive the map
                // (it owns no keyspace), so `<=` rather than `==`.
                if map.num_shards() > num_shards {
                    return Err(Error::InvalidParameter(format!(
                        "shard map names {} shards but the state has {num_shards}",
                        map.num_shards()
                    )));
                }
                map
            }
            // Pre-reshard snapshot: records were placed round-robin. A
            // uniform map is still correct — probes walk every shard and
            // deletes broadcast, so the map only governs new placements.
            None => ShardMap::uniform(num_shards),
        };
        let Classifier::Rule(rule) = &state.classifier;
        let mut shard_states = state.shards;
        for s in &mut shard_states {
            restore(&state.schema, rule, &mut s.plan, &mut s.store)?;
        }
        // Shards are disjoint at export (`export_state` refuses
        // mid-migration), so the slabs count the records; the document's
        // own count is not trusted.
        let indexed = shard_states.iter().map(|s| s.store.len()).sum();
        let mut template = shard_states[0].plan.clone();
        template.clear_for_rebuild();
        let store_root = shard_states[0]
            .plan
            .store_root()
            .and_then(|p| p.parent().map(|p| p.to_path_buf()));
        let shards = shard_states
            .into_iter()
            .map(|s| Shard::shared(s.plan, s.store))
            .collect();
        Ok(Self {
            program: state.classifier.compile(&state.schema.layout())?,
            schema: state.schema,
            classifier: state.classifier,
            shards,
            map,
            migration: None,
            template,
            store_root,
            indexed,
            metrics: None,
        })
    }

    /// Exports the full pipeline state (schema, classifier, and every
    /// shard's populated plan + store) for serialization.
    ///
    /// # Errors
    /// Returns [`Error::Reshard`] with [`ReshardError::MigrationInFlight`]
    /// while a migration is running — a mid-copy export would capture moved
    /// records on *both* shards with no migration marker to purge them, so
    /// snapshots wait for cutover or abort.
    pub fn export_state(&self) -> Result<ShardedState> {
        if self.migration.is_some() {
            return Err(Error::Reshard(ReshardError::MigrationInFlight));
        }
        Ok(ShardedState {
            schema: self.schema.clone(),
            classifier: self.classifier.clone(),
            // In shard order, so a restored pipeline reproduces the exact
            // partitioning.
            shards: self.shards.iter().map(|s| s.read().state.clone()).collect(),
            indexed: self.indexed,
            map: Some(self.map.clone()),
        })
    }

    /// Number of shards (including any created for an in-flight or aborted
    /// split).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Records the index holds (across shards; an id indexed twice is
    /// one).
    pub fn indexed_len(&self) -> usize {
        self.indexed
    }

    /// Heap bytes the shards' record stores hold
    /// ([`RecordSlab::heap_bytes`], summed).
    pub fn record_heap_bytes(&self) -> u64 {
        let bytes = |s: &SharedShard| s.read().state.store.heap_bytes();
        self.shards.iter().map(bytes).sum()
    }

    /// The current shard map (epoch-stamped keyspace assignment).
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// Point-in-time migration status (idle when none is running).
    pub fn migration_status(&self) -> MigrationStatus {
        match &self.migration {
            Some(m) => MigrationStatus {
                active: true,
                kind: m.plan.op.kind().to_string(),
                source: m.plan.source,
                target: m.plan.target,
                migrated: m.migrated.load(Ordering::Relaxed),
                total: m.total,
                epoch: self.map.epoch(),
            },
            None => MigrationStatus::idle(self.map.epoch()),
        }
    }

    /// Per-shard record counts, in shard order (operator skew visibility).
    pub fn shard_record_counts(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.read().state.store.len())
            .collect()
    }

    /// Indexes data set A: records are embedded here, with the calling
    /// thread's row buffer ([`with_probe_buffers`]), and inserted into the
    /// shard owning each record's keyspace point, a record whose id is
    /// already indexed replacing it; when this returns they are searchable.
    /// The records are read where they lie ([`RecordView`]: a [`Record`] is
    /// one, and so is a record body read in place from a request frame).
    /// While a migration is in flight, writes landing in
    /// the moved ranges are **dual-applied** to source and target so
    /// neither the copy stream nor the cutover can lose them.
    ///
    /// # Errors
    /// Returns [`Error::FieldCountMismatch`] on malformed records, and the
    /// refusal of a full slab ([`index_row`]).
    pub fn index<R>(&mut self, records: R) -> Result<()>
    where
        R: IntoIterator + Copy,
        R::Item: RecordView,
    {
        with_probe_buffers(|buffers| {
            let t0 = Instant::now();
            self.schema.embed_views(records, &mut buffers.rows)?;
            let embed = t0.elapsed();
            let t1 = Instant::now();
            let rows = &buffers.rows;
            let w = self.schema.row_words();
            let placed = || (records.into_iter().map(|r| r.id())).zip(rows.chunks_exact(w));
            // Per shard, the records it owns; then those it is also the
            // migration target of (not new records: their owner counts
            // them). A shard that owns none is not locked.
            for (s, shard) in self.shards.iter().enumerate() {
                let mut batch = placed()
                    .filter(|&(id, _)| self.map.shard_of(key_point(id)) == s)
                    .peekable();
                if batch.peek().is_some() {
                    shard.write().insert_all(batch, &mut self.indexed)?;
                }
            }
            if let Some(m) = &self.migration {
                let moved = &m.plan.moved;
                let mut dual = placed()
                    .filter(|&(id, _)| moved.iter().any(|r| r.contains(key_point(id))))
                    .peekable();
                if dual.peek().is_some() {
                    self.shards[m.plan.target]
                        .write()
                        .insert_all(dual, &mut 0)?;
                }
            }
            if let Some(m) = &self.metrics {
                m.embed.observe_duration(embed);
                m.block.observe_duration(t1.elapsed());
            }
            Ok(())
        })
    }

    /// Deletes records by id across all shards. The record leaves the
    /// shard's slab and each of its `L` buckets per structure, keyed from
    /// the row it was indexed with: nothing of it is left for
    /// [`ShardedPipeline::compact_stores`], and a later insert of the id
    /// brings nothing back. Unknown ids are ignored. Returns how many **distinct** records were removed —
    /// during a migration the same id can transiently live on two shards,
    /// and the broadcast removes both copies but counts one record.
    ///
    /// # Errors
    /// Infallible; the `Result` is kept for the benchmark's call sites.
    pub fn delete(&mut self, ids: &[u64]) -> Result<usize> {
        let mut removed_ids: Vec<u64> = Vec::new();
        for shard in &self.shards {
            shard.write().delete(ids, &mut removed_ids);
        }
        removed_ids.sort_unstable();
        removed_ids.dedup();
        self.indexed = self.indexed.saturating_sub(removed_ids.len());
        Ok(removed_ids.len())
    }

    /// Probes data set B on the calling thread: the batch is embedded once
    /// and matched against every shard in turn; the matched `(id_A, id_B)`
    /// pairs are unioned and deduped (partitions are disjoint in steady
    /// state; during a migration's double-live window a moved record
    /// answers from both shards, and the dedup collapses it). Waits for a
    /// shard that is being compacted or copied into.
    ///
    /// # Errors
    /// Returns [`Error::FieldCountMismatch`] on malformed records.
    pub fn link(&self, records: &[Record]) -> Result<Linked> {
        let shards = ShardGuards::read(&self.shards);
        let ids = records.iter().map(|r| r.id);
        self.link_locked(
            &shards,
            |rows| self.schema.embed_rows(records, rows),
            ids,
            |pairs, stats| (pairs.to_vec(), *stats),
        )
    }

    /// [`Self::link`] of records read in place ([`RecordView`]: a
    /// [`Record`] is one). The matched pairs, ascending and distinct, and
    /// the counts go to `emit` while the shards are still read-locked, not
    /// into a returned `Vec`: a steady-state call allocates nothing.
    ///
    /// # Errors
    /// Returns [`Error::FieldCountMismatch`] on malformed records.
    pub fn link_with<R, T>(
        &self,
        records: R,
        emit: impl FnOnce(&[(u64, u64)], &MatchStats) -> T,
    ) -> Result<T>
    where
        R: IntoIterator,
        R::IntoIter: Clone,
        R::Item: RecordView,
    {
        let records = records.into_iter();
        let ids = records.clone().map(|r| r.id());
        let embed = |rows: &mut Vec<u64>| self.schema.embed_views(records, rows);
        self.link_locked(&ShardGuards::read(&self.shards), embed, ids, emit)
    }

    /// [`Self::link_with`] for a thread that must not wait: `None`, with
    /// nothing done, when any shard's lock is held exclusively right now.
    pub fn try_link_with<R, T>(
        &self,
        records: R,
        emit: impl FnOnce(&[(u64, u64)], &MatchStats) -> T,
    ) -> Option<Result<T>>
    where
        R: IntoIterator,
        R::IntoIter: Clone,
        R::Item: RecordView,
    {
        let shards = ShardGuards::try_read(&self.shards)?;
        let records = records.into_iter();
        let ids = records.clone().map(|r| r.id());
        let embed = |rows: &mut Vec<u64>| self.schema.embed_views(records, rows);
        Some(self.link_locked(&shards, embed, ids, emit))
    }

    /// The probe of [`Self::link`] over read-locked `shards`, with the
    /// calling thread's [`ProbeBuffers`]: `embed` fills the rows of the
    /// records `ids` names, in order.
    fn link_locked<T>(
        &self,
        shards: &ShardGuards<'_>,
        embed: impl FnOnce(&mut Vec<u64>) -> Result<()>,
        ids: impl Iterator<Item = u64> + Clone,
        emit: impl FnOnce(&[(u64, u64)], &MatchStats) -> T,
    ) -> Result<T> {
        with_probe_buffers(|buffers| {
            let ProbeBuffers {
                rows,
                scratch,
                matches,
            } = buffers;
            let t0 = Instant::now();
            embed(rows)?;
            let t1 = Instant::now();
            let embed = t1 - t0;
            let mut stats = MatchStats::default();
            for shard in shards.iter() {
                match_batch(
                    &shard.state.plan,
                    &shard.state.store,
                    ids.clone().zip(rows.chunks_exact(self.schema.row_words())),
                    &self.program,
                    scratch,
                    &mut stats,
                    matches,
                );
            }
            matches.sort_unstable();
            matches.dedup();
            if let Some(m) = &self.metrics {
                m.embed.observe_duration(embed);
                m.matching.observe_duration(t1.elapsed());
            }
            Ok(emit(matches, &stats))
        })
    }

    /// Starts an online reshard: plans the split/merge against the current
    /// map, creates (or arms) the target shard, and returns the
    /// [`ReshardDriver`] that streams the moved records. The shard map is
    /// **not** changed yet — placements keep following the old map (plus
    /// dual-apply into the moved ranges) until
    /// [`ShardedPipeline::finish_reshard`].
    ///
    /// # Errors
    /// Returns [`Error::Reshard`] on planning failures or when a migration
    /// is already in flight; [`Error::Store`] if the new shard's disk
    /// stores cannot be created.
    pub fn begin_reshard(&mut self, op: ReshardOp) -> Result<ReshardDriver> {
        if self.migration.is_some() {
            return Err(Error::Reshard(ReshardError::MigrationInFlight));
        }
        let plan = self.map.plan(op).map_err(Error::Reshard)?;
        if plan.target >= self.shards.len() {
            // Split into a brand-new shard: synthesize it from the empty
            // template (identical hash draws, so probe results are
            // indistinguishable from any other shard's).
            debug_assert_eq!(plan.target, self.shards.len());
            let mut target_plan = self.template.clone();
            if let Some(root) = &self.store_root {
                // Residue from a crashed or aborted earlier attempt is
                // unreferenced by any live plan; clear it before rehoming.
                let _ = std::fs::remove_dir_all(root.join(format!("shard-{}", plan.target)));
                target_plan
                    .rehome_stores(root, plan.target)
                    .map_err(|e| Error::Store(e.to_string()))?;
            }
            let store = RecordSlab::new(self.schema.layout());
            self.shards.push(Shard::shared(target_plan, store));
        }
        let (source, target) = (&self.shards[plan.source], &self.shards[plan.target]);
        // Arm the target's delete memory before any write can race the copy.
        target.write().migration_deletes = Some(HashSet::new());
        let total = source.read().ids_in(&plan.moved).count() as u64;
        let migrated = Arc::new(AtomicU64::new(0));
        let driver = ReshardDriver {
            source: Arc::clone(source),
            target: Arc::clone(target),
            moved: plan.moved.clone(),
            cursor: None,
            migrated: migrated.clone(),
            done: false,
        };
        self.migration = Some(Migration {
            plan,
            migrated,
            total,
        });
        Ok(driver)
    }

    /// Cuts a drained migration over: installs the successor map (epoch
    /// bump), purges the moved ranges from the source, and disarms the
    /// target. Call after [`ReshardDriver::copy_batch`] returned `true`;
    /// `&mut self` keeps writes out (a server holds its state write lock),
    /// and every dual-applied write has already landed, inserts being
    /// synchronous. Returns the new map epoch.
    ///
    /// # Errors
    /// Returns [`Error::Reshard`] when no migration is running or the copy
    /// has not drained the source.
    pub fn finish_reshard(&mut self, driver: &ReshardDriver) -> Result<u64> {
        if self.migration.is_none() {
            return Err(Error::Reshard(ReshardError::NoMigration));
        }
        if !driver.done {
            return Err(Error::Reshard(ReshardError::CopyIncomplete));
        }
        let mig = self.migration.take().expect("checked above");
        self.map = mig.plan.new_map.clone();
        self.shards[mig.plan.source]
            .write()
            .purge_range(&mig.plan.moved);
        self.shards[mig.plan.target].write().migration_deletes = None;
        Ok(self.map.epoch())
    }

    /// Abandons an in-flight migration: purges everything copied or
    /// dual-applied into the target's moved ranges (the source never
    /// stopped owning them) and leaves the map untouched. The driver must
    /// no longer be running. A shard created for the split stays, empty,
    /// and is reused by the next split attempt.
    ///
    /// # Errors
    /// Returns [`Error::Reshard`] when no migration is running.
    pub fn abort_reshard(&mut self) -> Result<()> {
        let mig = self
            .migration
            .take()
            .ok_or(Error::Reshard(ReshardError::NoMigration))?;
        let mut target = self.shards[mig.plan.target].write();
        target.purge_range(&mig.plan.moved);
        target.migration_deletes = None;
        Ok(())
    }

    /// Runs a whole reshard synchronously: begin, drain the copy, cut over.
    /// This is the WAL-replay / follower path — replaying the committed
    /// `Reshard` op at its original position in the op stream reproduces
    /// the exact same record placement the primary reached online.
    ///
    /// # Errors
    /// Propagates [`ShardedPipeline::begin_reshard`] /
    /// [`ShardedPipeline::finish_reshard`] failures.
    pub fn reshard_sync(&mut self, op: ReshardOp) -> Result<u64> {
        let mut driver = self.begin_reshard(op)?;
        while !driver.copy_batch(4096)? {}
        self.finish_reshard(&driver)
    }

    /// Blocking diagnostics aggregated across shards: one entry per
    /// structure, with the backend tag, `L`, key width, and summed bucket
    /// occupancy (shards share hash functions, so the shape fields agree;
    /// occupancy adds up over the disjoint partitions).
    pub fn blocking_stats(&self) -> Vec<StructureStats> {
        let mut per_shard = self.shards.iter().map(|s| s.read().state.plan.stats());
        let mut merged = per_shard.next().unwrap_or_default();
        for stats in per_shard {
            for (acc, s) in merged.iter_mut().zip(&stats) {
                acc.merge(s);
            }
        }
        merged
    }

    /// Compacts every shard's blocking stores, one shard at a time under
    /// that shard's write lock: for disk-resident stores, merges the delta
    /// overlay into the next on-disk generation (bounding each shard's
    /// resident memory). A memory store has nothing to compact, but the
    /// sweep still takes every shard's write lock. Takes `&self` so a
    /// background compaction thread can run it under a server's state read
    /// lock; probes wait only for the shard being compacted.
    ///
    /// # Errors
    /// Returns [`Error::Store`] on a shard's compaction failure.
    pub fn compact_stores(&self) -> Result<()> {
        for shard in &self.shards {
            shard
                .write()
                .state
                .plan
                .compact()
                .map_err(|e| Error::Store(e.to_string()))?;
        }
        Ok(())
    }

    /// The embedding schema shared by all shards.
    pub fn schema(&self) -> &RecordSchema {
        &self.schema
    }

    /// The classifier in use (for introspection).
    pub fn classifier(&self) -> &Classifier {
        &self.classifier
    }

    /// Drops the pipeline. Kept for the benchmark's call sites only.
    pub fn shutdown(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::LinkagePipeline;
    use crate::schema::AttributeSpec;
    use crate::Rule;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use textdist::Alphabet;

    fn schema(rng: &mut StdRng) -> RecordSchema {
        RecordSchema::build(
            Alphabet::linkage(),
            vec![
                AttributeSpec::new("FirstName", 2, 15, false, 5),
                AttributeSpec::new("LastName", 2, 15, false, 5),
            ],
            rng,
        )
    }

    fn rule() -> Rule {
        Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)])
    }

    /// A well-spread synthetic name: 6 letters from a multiplicative hash,
    /// so distinct indices share few bigrams (plain `NAME{i}` prefixes
    /// would legitimately all match one another).
    fn synth_name(salt: u64, i: u64) -> String {
        let mut x = (i + 1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(salt.wrapping_mul(0xA24B_AED4_963E_E407));
        (0..6)
            .map(|_| {
                let c = (b'A' + (x % 26) as u8) as char;
                x /= 26;
                c
            })
            .collect()
    }

    fn records(salt: u64, base: u64, n: u64) -> Vec<Record> {
        (0..n)
            .map(|i| Record::new(base + i, [synth_name(salt, i), synth_name(salt ^ 0xF00, i)]))
            .collect()
    }

    #[test]
    fn sharded_matches_single_pipeline() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = schema(&mut rng);
        let config = LinkageConfig::rule_aware(rule());
        // Mirror one compiled plan into the sharded service so both engines
        // use identical hash functions — results must then agree exactly.
        let mut single = LinkagePipeline::new(s.clone(), config.clone(), &mut rng).unwrap();
        let mut sharded =
            ShardedPipeline::from_parts(s, single.plan().clone(), Classifier::Rule(config.rule), 4)
                .unwrap();
        let a = records(1, 0, 40);
        sharded.index(&a).unwrap();
        single.index(&a).unwrap();
        assert_eq!(sharded.indexed_len(), 40);
        let b = records(1, 1000, 40); // same salt → same names, exact copies
        let (m_sharded, stats) = sharded.link(&b).unwrap();
        let mut m_single = single.link(&b).unwrap().matches;
        m_single.sort_unstable();
        assert_eq!(m_sharded, m_single);
        // All 40 exact copies must be found (plus possible near-threshold
        // extras among random names).
        for i in 0..40u64 {
            assert!(m_sharded.contains(&(i, 1000 + i)), "missing pair {i}");
        }
        assert!(stats.candidates >= 40);
    }

    #[test]
    fn single_shard_degenerates_to_pipeline() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = schema(&mut rng);
        let mut p =
            ShardedPipeline::new(s, LinkageConfig::rule_aware(rule()), 1, &mut rng).unwrap();
        p.index(&[Record::new(1, ["JOHN", "SMITH"])]).unwrap();
        let (m, _) = p.link(&[Record::new(10, ["JON", "SMITH"])]).unwrap();
        assert_eq!(m, vec![(1, 10)]);
    }

    #[test]
    fn zero_shards_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = schema(&mut rng);
        assert!(ShardedPipeline::new(s, LinkageConfig::rule_aware(rule()), 0, &mut rng).is_err());
    }

    #[test]
    fn incremental_indexing_across_batches() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = schema(&mut rng);
        let mut p =
            ShardedPipeline::new(s, LinkageConfig::rule_aware(rule()), 3, &mut rng).unwrap();
        for batch in records(2, 0, 30).chunks(7) {
            p.index(batch).unwrap();
        }
        assert_eq!(p.indexed_len(), 30);
        let (m, _) = p.link(&records(2, 500, 30)).unwrap();
        for i in 0..30u64 {
            assert!(m.contains(&(i, 500 + i)), "missing pair {i}");
        }
    }

    #[test]
    fn export_restore_preserves_probe_results() {
        let mut rng = StdRng::seed_from_u64(6);
        let s = schema(&mut rng);
        let mut p =
            ShardedPipeline::new(s, LinkageConfig::rule_aware(rule()), 3, &mut rng).unwrap();
        p.index(&records(3, 0, 30)).unwrap();
        let b = records(3, 700, 30);
        let (before, _) = p.link(&b).unwrap();

        // Round-trip the full state through JSON, as a snapshot file would.
        let state = p.export_state().unwrap();
        assert_eq!(state.shards.len(), 3);
        let json = serde_json::to_string(&state).unwrap();

        // Version-3 snapshot documents written before the round-robin
        // cursor was dropped still carry its key; they must load the same.
        let with_cursor = json.replacen("\"indexed\":30,", "\"indexed\":30,\"next_shard\":0,", 1);
        assert_ne!(with_cursor, json, "fixture must carry the old key");
        for doc in [json, with_cursor] {
            let restored: ShardedState = serde_json::from_str(&doc).unwrap();
            let q = ShardedPipeline::from_state(restored).unwrap();
            assert_eq!(q.indexed_len(), 30);
            assert_eq!(q.shard_map().epoch(), 1);
            let (after, _) = q.link(&b).unwrap();
            assert_eq!(before, after);
        }
    }

    #[test]
    fn restore_continues_indexing() {
        let mut rng = StdRng::seed_from_u64(7);
        let s = schema(&mut rng);
        let mut p =
            ShardedPipeline::new(s, LinkageConfig::rule_aware(rule()), 2, &mut rng).unwrap();
        p.index(&records(4, 0, 10)).unwrap();
        let state = p.export_state().unwrap();

        let mut q = ShardedPipeline::from_state(state).unwrap();
        // records() derives names from the index 0..n, so this second batch
        // (ids 10..20) repeats the names of ids 0..10: each probe must now
        // hit both its pre-snapshot and its post-restore copy.
        q.index(&records(4, 10, 10)).unwrap();
        assert_eq!(q.indexed_len(), 20);
        let (m, _) = q.link(&records(4, 900, 10)).unwrap();
        for i in 0..10u64 {
            assert!(m.contains(&(i, 900 + i)), "missing pre-snapshot pair {i}");
            assert!(
                m.contains(&(10 + i, 900 + i)),
                "missing post-restore pair {i}"
            );
        }
    }

    #[test]
    fn legacy_state_without_map_restores_with_uniform_map() {
        let mut rng = StdRng::seed_from_u64(12);
        let s = schema(&mut rng);
        let mut p =
            ShardedPipeline::new(s, LinkageConfig::rule_aware(rule()), 2, &mut rng).unwrap();
        p.index(&records(8, 0, 20)).unwrap();
        let b = records(8, 600, 20);
        let (before, _) = p.link(&b).unwrap();
        let state = p.export_state().unwrap();

        // A pre-reshard snapshot deserializes with no map field.
        let mut legacy = state;
        legacy.map = None;
        let q = ShardedPipeline::from_state(legacy).unwrap();
        assert_eq!(q.shard_map().epoch(), 1);
        assert_eq!(q.shard_map().num_shards(), 2);
        let (after, _) = q.link(&b).unwrap();
        assert_eq!(before, after);
    }

    /// `p`'s exported state with the first `from` in its document made `to`.
    fn edited_state(p: &ShardedPipeline, from: &str, to: &str) -> ShardedState {
        let json = serde_json::to_string(&p.export_state().unwrap()).unwrap();
        assert!(json.contains(from), "{from}");
        serde_json::from_str(&json.replacen(from, to, 1)).unwrap()
    }

    #[test]
    fn a_classifier_beyond_the_schema_is_refused_at_restore() {
        let mut rng = StdRng::seed_from_u64(13);
        let s = schema(&mut rng);
        let mut p =
            ShardedPipeline::new(s, LinkageConfig::rule_aware(rule()), 2, &mut rng).unwrap();
        p.index(&records(9, 0, 10)).unwrap();
        // Attribute 9 of two: each probe of an exact copy would reach it.
        let mut state = p.export_state().unwrap();
        state.classifier = Classifier::Rule(Rule::and([Rule::pred(0, 4), Rule::pred(9, 4)]));
        let err = ShardedPipeline::from_state(state).unwrap_err();
        assert!(
            matches!(
                err,
                Error::AttributeOutOfRange {
                    attr: 9,
                    num_attributes: 2
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn a_plan_source_beyond_the_schema_is_refused_at_restore() {
        let mut rng = StdRng::seed_from_u64(14);
        let s = schema(&mut rng);
        let mut p =
            ShardedPipeline::new(s, LinkageConfig::rule_aware(rule()), 2, &mut rng).unwrap();
        p.index(&records(10, 0, 10)).unwrap();
        let state = edited_state(&p, r#"{"Attr":0}"#, r#"{"Attr":9}"#);
        let err = ShardedPipeline::from_state(state).unwrap_err();
        assert!(matches!(err, Error::InvalidParameter(_)), "{err}");
        let label = &p.blocking_stats()[0].label;
        let expected = format!(
            "blocking structure {label}: a family hashes attribute 9 of a 2-attribute schema"
        );
        assert!(err.to_string().contains(&expected), "{err}");
    }

    #[test]
    fn a_restored_index_counts_its_records_not_the_document() {
        let mut rng = StdRng::seed_from_u64(15);
        let s = schema(&mut rng);
        let mut p =
            ShardedPipeline::new(s, LinkageConfig::rule_aware(rule()), 2, &mut rng).unwrap();
        p.index(&records(11, 0, 2)).unwrap();
        let state = edited_state(&p, r#""indexed":2,"#, r#""indexed":999,"#);
        let mut q = ShardedPipeline::from_state(state).unwrap();
        assert_eq!(q.indexed_len(), 2);
        assert_eq!(q.export_state().unwrap().indexed, 2);
        assert_eq!(q.delete(&[0]).unwrap(), 1);
        assert_eq!(q.indexed_len(), 1);
    }

    #[test]
    fn empty_state_rejected() {
        let mut rng = StdRng::seed_from_u64(8);
        let s = schema(&mut rng);
        let p = ShardedPipeline::new(s, LinkageConfig::rule_aware(rule()), 1, &mut rng).unwrap();
        let mut state = p.export_state().unwrap();
        state.shards.clear();
        assert!(ShardedPipeline::from_state(state).is_err());
    }

    #[test]
    fn blocking_stats_aggregate_across_shards() {
        let mut rng = StdRng::seed_from_u64(9);
        let s = schema(&mut rng);
        let mut p =
            ShardedPipeline::new(s, LinkageConfig::rule_aware(rule()), 3, &mut rng).unwrap();
        p.index(&records(5, 0, 30)).unwrap();
        let stats = p.blocking_stats();
        assert!(!stats.is_empty());
        for st in &stats {
            assert_eq!(st.backend, "random");
            assert!(st.l >= 1);
            assert!(st.key_bits >= 1);
        }
        // Every shard indexed its partition into every table of every
        // structure, so summed entries = structures × L × records... per
        // structure: entries = L × 30.
        let total_entries: usize = stats.iter().map(|s| s.entries).sum();
        let expected: usize = stats.iter().map(|s| s.l * 30).sum();
        assert_eq!(total_entries, expected);
    }

    #[test]
    fn blocking_stats_report_covering_backend() {
        let mut rng = StdRng::seed_from_u64(10);
        let s = schema(&mut rng);
        let config = LinkageConfig::covering(rule(), 4);
        let p = ShardedPipeline::new(s, config, 2, &mut rng).unwrap();
        let stats = p.blocking_stats();
        assert!(!stats.is_empty());
        assert!(stats.iter().all(|s| s.backend == "covering"));
    }

    #[test]
    fn deletes_leave_their_buckets_across_shards() {
        let mut rng = StdRng::seed_from_u64(11);
        let s = schema(&mut rng);
        let mut p =
            ShardedPipeline::new(s, LinkageConfig::rule_aware(rule()), 3, &mut rng).unwrap();
        let a = records(6, 0, 30);
        p.index(&a).unwrap();
        let b = records(6, 500, 30);
        let (before, _) = p.link(&b).unwrap();
        for i in 0..30u64 {
            assert!(before.contains(&(i, 500 + i)), "missing pair {i}");
        }

        // Delete a third of the records (spread across shards by the
        // keyspace hash), plus some ids that never existed.
        let victims: Vec<u64> = (0..30).filter(|i| i % 3 == 0).collect();
        let removed = p.delete(&victims).unwrap();
        assert_eq!(removed, victims.len());
        assert_eq!(p.delete(&[9999, 10000]).unwrap(), 0, "unknown ids ignored");
        assert_eq!(p.indexed_len(), 30 - victims.len());
        let stats = p.blocking_stats();
        let entries: usize = stats.iter().map(|s| s.entries).sum();
        let tables: usize = stats.iter().map(|s| s.l).sum();
        assert_eq!(entries, tables * (30 - victims.len()));

        let (after, _) = p.link(&b).unwrap();
        for i in 0..30u64 {
            let hit = after.contains(&(i, 500 + i));
            if i % 3 == 0 {
                assert!(!hit, "deleted record {i} must not match");
            } else {
                assert!(hit, "surviving record {i} must still match");
            }
        }

        // Export/restore after deletes rebuilds the plans without the
        // deleted records and keeps answering correctly.
        let state = p.export_state().unwrap();
        let q = ShardedPipeline::from_state(state).unwrap();
        let (restored, _) = q.link(&b).unwrap();
        assert_eq!(restored, after);
    }

    #[test]
    fn malformed_probe_is_error() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = schema(&mut rng);
        let p = ShardedPipeline::new(s, LinkageConfig::rule_aware(rule()), 2, &mut rng).unwrap();
        assert!(p.link(&[Record::new(1, ["ONLY"])]).is_err());
    }

    // ---- online resharding ------------------------------------------------

    #[test]
    fn split_preserves_probe_results_through_all_phases() {
        let mut rng = StdRng::seed_from_u64(20);
        let s = schema(&mut rng);
        let mut p =
            ShardedPipeline::new(s, LinkageConfig::rule_aware(rule()), 2, &mut rng).unwrap();
        p.index(&records(9, 0, 60)).unwrap();
        let b = records(9, 2000, 60);
        let (before, _) = p.link(&b).unwrap();
        assert_eq!(p.shard_map().epoch(), 1);

        let mut driver = p.begin_reshard(ReshardOp::Split { source: 0 }).unwrap();
        assert!(p.migration_status().active);
        assert_eq!(p.migration_status().kind, "split");
        assert_eq!(p.num_shards(), 3, "split spawns the target worker");

        // Drain in tiny pages, checking the double-live window after each:
        // the union+dedup must keep probe results byte-identical mid-copy.
        loop {
            let done = driver.copy_batch(5).unwrap();
            let (during, _) = p.link(&b).unwrap();
            assert_eq!(during, before, "probe results changed mid-migration");
            if done {
                break;
            }
        }
        let migrated = driver.migrated();
        assert!(
            migrated > 0,
            "nothing migrated — split moved an empty range?"
        );

        let epoch = p.finish_reshard(&driver).unwrap();
        assert_eq!(epoch, 2);
        assert!(!p.migration_status().active);
        assert_eq!(p.shard_map().num_shards(), 3);
        let (after, _) = p.link(&b).unwrap();
        assert_eq!(after, before);

        // The moved records now live on the target and nowhere else.
        let counts = p.shard_record_counts();
        assert_eq!(
            counts.iter().sum::<usize>(),
            60,
            "purge lost or duplicated records"
        );
        assert_eq!(counts[2] as u64, migrated);
    }

    #[test]
    fn writes_and_deletes_during_migration_stay_consistent() {
        let mut rng = StdRng::seed_from_u64(21);
        let s = schema(&mut rng);
        let config = LinkageConfig::rule_aware(rule());
        // Unsharded oracle: one shard, same compiled plan (identical hash
        // draws), receiving the identical write/delete sequence.
        let single = LinkagePipeline::new(s.clone(), config.clone(), &mut rng).unwrap();
        let classifier = Classifier::Rule(config.rule);
        let mut oracle =
            ShardedPipeline::from_parts(s.clone(), single.plan().clone(), classifier.clone(), 1)
                .unwrap();
        let mut p = ShardedPipeline::from_parts(s, single.plan().clone(), classifier, 2).unwrap();
        let a = records(10, 0, 50);
        p.index(&a).unwrap();
        oracle.index(&a).unwrap();

        let mut driver = p.begin_reshard(ReshardOp::Split { source: 1 }).unwrap();
        driver.copy_batch(8).unwrap(); // part of the copy lands first

        // Mid-migration traffic: new inserts (dual-applied when they fall in
        // the moved ranges) and deletes (broadcast; some hit moved records).
        let fresh = records(10, 50, 25);
        p.index(&fresh).unwrap();
        oracle.index(&fresh).unwrap();
        let victims: Vec<u64> = (0..75).filter(|i| i % 4 == 0).collect();
        let removed_sharded = p.delete(&victims).unwrap();
        let removed_oracle = oracle.delete(&victims).unwrap();
        assert_eq!(removed_sharded, removed_oracle, "delete counts diverged");

        while !driver.copy_batch(8).unwrap() {}
        p.finish_reshard(&driver).unwrap();

        let b = records(10, 3000, 75);
        let (m_sharded, _) = p.link(&b).unwrap();
        let (m_oracle, _) = oracle.link(&b).unwrap();
        assert_eq!(m_sharded, m_oracle);
        let counts = p.shard_record_counts();
        assert_eq!(counts.iter().sum::<usize>(), p.indexed_len());
    }

    #[test]
    fn merge_drains_source_shard() {
        let mut rng = StdRng::seed_from_u64(22);
        let s = schema(&mut rng);
        let mut p =
            ShardedPipeline::new(s, LinkageConfig::rule_aware(rule()), 3, &mut rng).unwrap();
        p.index(&records(11, 0, 45)).unwrap();
        let b = records(11, 4000, 45);
        let (before, _) = p.link(&b).unwrap();

        let epoch = p
            .reshard_sync(ReshardOp::Merge {
                source: 2,
                target: 0,
            })
            .unwrap();
        assert_eq!(epoch, 2);
        let counts = p.shard_record_counts();
        assert_eq!(counts[2], 0, "merged-away shard still owns records");
        assert_eq!(counts.iter().sum::<usize>(), 45);
        assert!(p.shard_map().ranges_of(2).is_empty());
        let (after, _) = p.link(&b).unwrap();
        assert_eq!(after, before);

        // The emptied shard owns no keyspace: splitting it is rejected, and
        // new inserts never land there.
        assert!(matches!(
            p.begin_reshard(ReshardOp::Split { source: 2 }),
            Err(Error::Reshard(ReshardError::EmptySource(2)))
        ));
        p.index(&records(11, 100, 20)).unwrap();
        assert_eq!(p.shard_record_counts()[2], 0);
    }

    #[test]
    fn abort_rolls_back_to_pre_split_state() {
        let mut rng = StdRng::seed_from_u64(23);
        let s = schema(&mut rng);
        let mut p =
            ShardedPipeline::new(s, LinkageConfig::rule_aware(rule()), 2, &mut rng).unwrap();
        p.index(&records(12, 0, 40)).unwrap();
        let b = records(12, 5000, 40);
        let (before, _) = p.link(&b).unwrap();

        let mut driver = p.begin_reshard(ReshardOp::Split { source: 0 }).unwrap();
        driver.copy_batch(7).unwrap();
        // Mid-copy dual-applied write, then abort.
        p.index(&records(12, 40, 10)).unwrap();
        drop(driver);
        p.abort_reshard().unwrap();

        assert_eq!(p.shard_map().epoch(), 1, "abort must not bump the epoch");
        assert!(!p.migration_status().active);
        let counts = p.shard_record_counts();
        assert_eq!(counts[2], 0, "abort left records on the target");
        assert_eq!(counts.iter().sum::<usize>(), 50);
        // The dual-applied mid-copy batch survived exactly once (on the
        // source); removing it restores the original index verbatim.
        let extras: Vec<u64> = (40..50).collect();
        assert_eq!(p.delete(&extras).unwrap(), 10);
        let (after, _) = p.link(&b).unwrap();
        assert_eq!(after, before);

        // A retry reuses the idle spawned worker and completes.
        let epoch = p.reshard_sync(ReshardOp::Split { source: 0 }).unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(p.num_shards(), 3);
        assert_eq!(p.shard_record_counts().iter().sum::<usize>(), 40);
    }

    #[test]
    fn export_rejected_during_migration_and_map_survives_restore() {
        let mut rng = StdRng::seed_from_u64(24);
        let s = schema(&mut rng);
        let mut p =
            ShardedPipeline::new(s, LinkageConfig::rule_aware(rule()), 2, &mut rng).unwrap();
        p.index(&records(13, 0, 30)).unwrap();
        let mut driver = p.begin_reshard(ReshardOp::Split { source: 0 }).unwrap();
        driver.copy_batch(4).unwrap();
        assert!(matches!(
            p.export_state(),
            Err(Error::Reshard(ReshardError::MigrationInFlight))
        ));
        while !driver.copy_batch(64).unwrap() {}
        p.finish_reshard(&driver).unwrap();

        let b = records(13, 6000, 30);
        let (before, _) = p.link(&b).unwrap();
        let state = p.export_state().unwrap();
        let q = ShardedPipeline::from_state(state).unwrap();
        assert_eq!(q.shard_map().epoch(), 2);
        assert_eq!(q.shard_map().num_shards(), 3);
        let (after, _) = q.link(&b).unwrap();
        assert_eq!(after, before);
        // Replaying the same committed reshard on a restored follower is
        // how WAL recovery works; the next split must plan deterministically.
    }

    #[test]
    fn second_migration_rejected_while_one_runs() {
        let mut rng = StdRng::seed_from_u64(25);
        let s = schema(&mut rng);
        let mut p =
            ShardedPipeline::new(s, LinkageConfig::rule_aware(rule()), 2, &mut rng).unwrap();
        p.index(&records(14, 0, 20)).unwrap();
        let mut driver = p.begin_reshard(ReshardOp::Split { source: 0 }).unwrap();
        assert!(matches!(
            p.begin_reshard(ReshardOp::Split { source: 1 }),
            Err(Error::Reshard(ReshardError::MigrationInFlight))
        ));
        // Finishing before the copy drained is refused; the migration (and
        // the driver) stay valid and can keep copying.
        assert!(matches!(
            p.finish_reshard(&driver),
            Err(Error::Reshard(ReshardError::CopyIncomplete))
        ));
        while !driver.copy_batch(64).unwrap() {}
        p.finish_reshard(&driver).unwrap();
    }

    // ---- shards as data: shared probes, synchronous inserts ----------------

    /// What a server's `RwLock<ServerState>` and its reactor rely on.
    const _: () = {
        const fn shared_between_threads<T: Send + Sync>() {}
        shared_between_threads::<ShardedPipeline>()
    };

    #[test]
    fn concurrent_links_equal_the_unsharded_pipeline_also_mid_migration() {
        let mut rng = StdRng::seed_from_u64(30);
        let s = schema(&mut rng);
        let config = LinkageConfig::rule_aware(rule());
        let mut single = LinkagePipeline::new(s.clone(), config.clone(), &mut rng).unwrap();
        let mut p =
            ShardedPipeline::from_parts(s, single.plan().clone(), Classifier::Rule(config.rule), 3)
                .unwrap();
        let a = records(15, 0, 90);
        single.index(&a).unwrap();
        p.index(&a).unwrap();
        let b = records(15, 7000, 90);
        let mut expected = single.link(&b).unwrap().matches;
        expected.sort_unstable();
        assert!(expected.len() >= 90);

        // Four threads released together, each probing the one pipeline.
        let four_threads_agree = |p: &ShardedPipeline| {
            let start = std::sync::Barrier::new(4);
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        start.wait();
                        for _ in 0..5 {
                            assert_eq!(p.link(&b).unwrap().0, expected);
                        }
                    });
                }
            });
        };
        four_threads_agree(&p);

        let mut driver = p.begin_reshard(ReshardOp::Split { source: 1 }).unwrap();
        driver.copy_batch(7).unwrap();
        assert!(driver.migrated() > 0, "nothing is double-live yet");
        four_threads_agree(&p);
        // The rest of the copy runs beside the probes: the driver holds the
        // two shards, not the pipeline.
        std::thread::scope(|scope| {
            scope.spawn(|| while !driver.copy_batch(3).unwrap() {});
            four_threads_agree(&p);
        });
        p.finish_reshard(&driver).unwrap();
        four_threads_agree(&p);
    }

    #[test]
    fn try_link_declines_while_a_shard_is_written() {
        let mut rng = StdRng::seed_from_u64(32);
        let s = schema(&mut rng);
        let mut p =
            ShardedPipeline::new(s, LinkageConfig::rule_aware(rule()), 2, &mut rng).unwrap();
        p.index(&records(17, 0, 20)).unwrap();
        let b = records(17, 800, 20);
        let linked = p.link(&b).unwrap();
        let try_link = |p: &ShardedPipeline| p.try_link_with(&b, |m, s| (m.to_vec(), *s));
        assert_eq!(try_link(&p).unwrap().unwrap(), linked);
        {
            let _copying_into = p.shards[1].write();
            assert!(try_link(&p).is_none());
        }
        assert_eq!(try_link(&p).unwrap().unwrap(), linked);
    }

    #[test]
    fn more_shards_than_the_stack_holds_link_alike() {
        let mut rng = StdRng::seed_from_u64(33);
        let s = schema(&mut rng);
        let mut one =
            ShardedPipeline::new(s, LinkageConfig::rule_aware(rule()), 1, &mut rng).unwrap();
        let (a, b) = (records(17, 0, 40), records(17, 800, 40));
        one.index(&a).unwrap();
        let linked = one.link(&b).unwrap().0;
        assert!(!linked.is_empty());
        for n in [STACK_SHARDS, STACK_SHARDS + 1] {
            // The same hash draws over `n` shards.
            let plan = one.template.clone();
            let classifier = one.classifier.clone();
            let mut p =
                ShardedPipeline::from_parts(one.schema.clone(), plan, classifier, n).unwrap();
            p.index(&a).unwrap();
            assert_eq!(p.link(&b).unwrap().0, linked, "{n} shards");
            let tried = p.try_link_with(&b, |m, _| m.to_vec()).unwrap().unwrap();
            assert_eq!(tried, linked, "{n} shards");
            let _written = p.shards[n - 1].write();
            assert!(p.try_link_with(&b, |m, _| m.len()).is_none());
        }
    }
}

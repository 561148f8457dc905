//! Disk-resident blocking tables.
//!
//! The blocking structures of the linkage engine hold `L` hash tables
//! mapping composite keys to buckets of record ids. Historically those
//! tables lived entirely in RAM (`HashMap<u128, Vec<u64>>`), so the index
//! size — not the matcher — capped how many records a shard could hold.
//! This crate puts the tables behind a [`BlockStorage`] trait with two
//! implementations:
//!
//! * [`InMemoryStore`] — heap-resident tables.
//! * [`MmapStore`] — an LSM-lite, disk-resident store: an immutable,
//!   memory-mapped *generation file* (CRC-framed via `rl-wire`, with a
//!   binary-searched on-disk bucket directory per table) plus a small
//!   in-memory delta overlay. [`MmapStore::compact`] merges base + delta
//!   into the next generation file; until then probes read both layers.
//!
//! A bucket holds values and nothing else: the API speaks `u64`, and the
//! engine's values are the slots of its record slab (`cbv_hb::matcher::
//! RecordSlab`), each record's for as long as it is indexed. A store keeps
//! a value as a `u32`; one of 2³² or more is refused and counted in
//! [`StoreStats::dropped`]. A value leaves a store one bucket at a time,
//! through [`BlockStorage::evict`]: the caller recomputes its key in each
//! table from the row it was indexed with, so a deleted record leaves
//! nothing behind and a re-indexed one brings nothing back. The generation
//! file keeps `u64` postings.
//!
//! Every mutable table — the memory store's `L` and the mmap store's
//! delta — is one layout, `table::Table`: a hash directory of
//! `(key, {first value, offset})` entries, the bucket's first value inline,
//! and one `Vec<u32>` arena per table holding the values after the first in
//! power-of-two regions (a length word, then the values) with per-class
//! free lists. An entry is 16 bytes while every key the table has held fits
//! in 64 bits — the paper's K-bit keys do — and 24 from the first key that
//! does not, which widens the directory once, in place; keys enter and
//! leave a table as exact `u128`s either way. A singleton bucket — nearly
//! all of them — has no region: it costs its entry and control byte at the
//! directory's load of 7/16 to 7/8 (19–39 B narrow, 29–57 B wide, against
//! 88–144 B for a `u128` key, a `Vec` and its first four-id block) and
//! nothing else; a further value costs 4 B times the
//! slack of its region and of the arena's own growth, plus the region's
//! length word. The offsets are 32-bit, which bounds one table's arena at
//! 2³² − 1 words (16 GiB, per table, per shard); the insert that would pass
//! it is refused and counted in [`StoreStats::dropped`] like a
//! [`CapMode::Drop`] insert. [`TableSet::heap_bytes`] reports what the
//! tables hold.
//!
//! Both stores honour one [`BlockPolicy`] — the robustness knobs from
//! "Scalable Blocking for Very Large Databases":
//!
//! * **Per-block size cap** ([`BlockPolicy::max_block_size`]): in
//!   [`CapMode::Chain`] the cap only bounds the *physical* postings
//!   segments (oversized buckets are chained across frames, no id is
//!   lost — recall guarantees survive); in [`CapMode::Drop`] inserts into
//!   a full bucket are discarded (a hard skew bound; recall then rests on
//!   the union over the `L` tables).
//! * **Per-probe top-k bound** ([`BlockPolicy::probe_top_k`]): a probe
//!   stops collecting candidates once `k` distinct ids are gathered, in
//!   deterministic table/insertion order, so a hot key cannot blow up a
//!   request. Callers surface the truncation as a typed note.
//!
//! The directories hash under one process-keyed word hasher ([`hash`]).
//!
//! The two implementations are *candidate-set equivalent*: the same
//! insert/evict/probe sequence yields byte-identical id streams (a
//! property-tested invariant), so a serving pipeline can switch stores
//! without changing match results.

mod disk;
pub mod hash;
mod mem;
mod table;

pub use disk::MmapStore;
pub use hash::{WordMap, WordSet};
pub use mem::InMemoryStore;

use serde::{Deserialize, Serialize};

/// What to do with an insert into a bucket that reached
/// [`BlockPolicy::max_block_size`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CapMode {
    /// Keep every id; the cap only chunks the on-disk postings segments
    /// (overflow-block chaining). Lossless — the default.
    Chain,
    /// Discard inserts into a full bucket and count them in
    /// [`StoreStats::dropped`]. A hard bound on skew; recall then relies
    /// on the union over the other `L − 1` tables.
    Drop,
}

impl std::fmt::Display for CapMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CapMode::Chain => "chain",
            CapMode::Drop => "drop",
        })
    }
}

/// Robustness knobs applied uniformly by both stores.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlockPolicy {
    /// Largest bucket (0 = unlimited). See [`CapMode`] for what happens
    /// past the cap.
    pub max_block_size: usize,
    /// Behaviour at the cap.
    pub cap_mode: CapMode,
    /// Distinct candidates a single probe may collect across all `L`
    /// tables (0 = unbounded).
    pub probe_top_k: usize,
}

impl Default for BlockPolicy {
    fn default() -> Self {
        Self {
            max_block_size: 0,
            cap_mode: CapMode::Chain,
            probe_top_k: 0,
        }
    }
}

/// Errors raised by the disk-resident store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem failure (create/write/rename/map).
    Io(String),
    /// A generation file failed structural or CRC validation (torn write,
    /// bit rot). The caller should rebuild the store from its record
    /// store or latest checkpoint.
    Corrupt(String),
    /// An operation that requires an empty store (reconfigure, rehome)
    /// found data.
    NotEmpty(&'static str),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "block store I/O: {e}"),
            StoreError::Corrupt(e) => write!(f, "block store corrupt: {e}"),
            StoreError::NotEmpty(op) => write!(f, "block store {op} requires an empty store"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Log₂-binned bucket-size histogram width: bin `i` counts buckets of
/// `2^i ..= 2^(i+1) − 1` ids. 32 bins cover any `u64` count.
pub const HISTOGRAM_BINS: usize = 32;

/// Which implementation backs a [`TableSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StoreKind {
    /// Heap-resident hash tables.
    Memory,
    /// Memory-mapped generation file + delta overlay.
    Mmap,
}

impl std::fmt::Display for StoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StoreKind::Memory => "memory",
            StoreKind::Mmap => "mmap",
        })
    }
}

/// Occupancy diagnostics of one store (all `L` tables together).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Non-empty buckets.
    pub buckets: usize,
    /// Stored ids.
    pub entries: u64,
    /// Largest bucket.
    pub max_bucket: usize,
    /// Log₂-binned bucket sizes (see [`HISTOGRAM_BINS`]).
    pub size_histogram: Vec<u64>,
    /// Inserts discarded by [`CapMode::Drop`], or refused at a table's
    /// arena limit, since the store was built.
    pub dropped: u64,
    /// Bytes of the current on-disk generation file (0 for memory).
    pub on_disk_bytes: u64,
}

impl StoreStats {
    pub(crate) fn record_bucket(&mut self, len: usize) {
        if len == 0 {
            return;
        }
        self.buckets += 1;
        self.entries += len as u64;
        self.max_bucket = self.max_bucket.max(len);
        let bin = (usize::BITS - 1 - len.leading_zeros()) as usize;
        self.size_histogram[bin.min(HISTOGRAM_BINS - 1)] += 1;
    }
}

/// `L` blocking tables addressable by `(table, key)`, with policy-driven
/// capping and bounded probes.
///
/// Implementations must produce **identical probe id sequences** for the
/// same operation history — candidates stream in table-insertion order —
/// so stores are interchangeable under a serving pipeline.
pub trait BlockStorage {
    /// Number of tables `L`.
    fn num_tables(&self) -> usize;

    /// Inserts `id` into table `table`'s bucket for `key`. Returns
    /// `false` when the policy's [`CapMode::Drop`] discarded the insert, or
    /// the table is at its 2³²-id arena limit; both count in
    /// [`StoreStats::dropped`].
    fn insert(&mut self, table: usize, key: u128, id: u64, policy: &BlockPolicy) -> bool;

    /// Takes `id` out of the addressed bucket; no other bucket is touched.
    /// The only way an id leaves a store: a deleted record leaves each of
    /// its `L` buckets, a re-keyed one the buckets whose key changed.
    fn evict(&mut self, table: usize, key: u128, id: u64);

    /// Appends the ids of the addressed bucket to `out`, in insertion
    /// order.
    fn probe_into(&self, table: usize, key: u128, out: &mut Vec<u64>);

    /// Ids in the addressed bucket.
    fn bucket_len(&self, table: usize, key: u128) -> usize;

    /// Folds every non-empty `(table, bucket_len)` into `f` (diagnostics).
    fn for_each_bucket(&self, f: &mut dyn FnMut(usize, usize));

    /// Folds every non-empty `(table, key, ids)` into `f`, ids in insertion
    /// order (fingerprinting, exhaustive exports). Bucket visit order
    /// within a table is unspecified.
    fn for_each_entry(&self, f: &mut dyn FnMut(usize, u128, &[u64]));

    /// Merges delta + base into a fresh representation: the mmap store
    /// writes the next generation file and remaps; the memory store has
    /// nothing to merge.
    fn compact(&mut self, policy: &BlockPolicy) -> Result<(), StoreError>;

    /// Occupancy diagnostics.
    fn stats(&self) -> StoreStats;

    /// Heap bytes the store holds — directories, arenas and free lists
    /// (for the mmap store: of its delta overlay) — computed from
    /// capacities without walking the entries.
    fn heap_bytes(&self) -> u64;

    /// Drops all data (tables keep their count/location) — the first step
    /// of a rebuild after [`TableSet::needs_rebuild`].
    fn clear(&mut self);
}

/// A policy-bearing store: the unit a blocking structure owns. Wraps one
/// [`InMemoryStore`] or [`MmapStore`] behind enum dispatch so the whole
/// set serializes with the structure (the mmap variant serializes its
/// manifest + overlay and re-maps the generation file on load, degrading
/// to [`TableSet::needs_rebuild`] when the file is torn or missing).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableSet {
    policy: BlockPolicy,
    inner: StoreInner,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum StoreInner {
    Memory(InMemoryStore),
    Mmap(MmapStore),
}

impl TableSet {
    /// A heap-resident set of `l` tables under the default (unbounded)
    /// policy — the drop-in equivalent of the historical tables.
    pub fn memory(l: usize) -> Self {
        Self {
            policy: BlockPolicy::default(),
            inner: StoreInner::Memory(InMemoryStore::new(l)),
        }
    }

    /// A disk-resident set of `l` tables rooted at `dir` (created on
    /// first compaction).
    pub fn mmap(dir: impl Into<std::path::PathBuf>, l: usize) -> Self {
        Self {
            policy: BlockPolicy::default(),
            inner: StoreInner::Mmap(MmapStore::new(dir.into(), l)),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> &BlockPolicy {
        &self.policy
    }

    /// Replaces the policy (cap / top-k knobs).
    pub fn set_policy(&mut self, policy: BlockPolicy) {
        self.policy = policy;
    }

    /// Which implementation backs this set.
    pub fn kind(&self) -> StoreKind {
        match &self.inner {
            StoreInner::Memory(_) => StoreKind::Memory,
            StoreInner::Mmap(_) => StoreKind::Mmap,
        }
    }

    /// Converts an **empty** set to the requested kind (same table
    /// count), rooting an mmap store at `dir`.
    ///
    /// # Errors
    /// [`StoreError::NotEmpty`] when data has already been inserted, or
    /// a missing `dir` for [`StoreKind::Mmap`].
    pub fn convert(
        &mut self,
        kind: StoreKind,
        dir: Option<&std::path::Path>,
    ) -> Result<(), StoreError> {
        if self.store().stats().entries > 0 {
            return Err(StoreError::NotEmpty("convert"));
        }
        let l = self.num_tables();
        self.inner = match kind {
            StoreKind::Memory => StoreInner::Memory(InMemoryStore::new(l)),
            StoreKind::Mmap => {
                let dir = dir.ok_or_else(|| {
                    StoreError::Io("mmap block store needs a directory".to_string())
                })?;
                StoreInner::Mmap(MmapStore::new(dir.to_path_buf(), l))
            }
        };
        Ok(())
    }

    /// Re-roots an **empty** mmap store at `dir` (sharded pipelines give
    /// every shard clone its own subdirectory). No-op for memory stores.
    ///
    /// # Errors
    /// [`StoreError::NotEmpty`] when data has already been inserted.
    pub fn rehome(&mut self, dir: &std::path::Path) -> Result<(), StoreError> {
        if let StoreInner::Mmap(m) = &mut self.inner {
            if m.stats().entries > 0 {
                return Err(StoreError::NotEmpty("rehome"));
            }
            m.set_dir(dir.to_path_buf());
        }
        Ok(())
    }

    /// The generation-file directory of an mmap store; `None` for the
    /// in-memory backend.
    pub fn dir(&self) -> Option<&std::path::Path> {
        match &self.inner {
            StoreInner::Memory(_) => None,
            StoreInner::Mmap(m) => Some(m.dir()),
        }
    }

    /// True when a deserialized mmap store could not re-map its
    /// generation file (torn or missing): probes would miss the base
    /// layer, so the owner must [`TableSet::clear`] and re-insert from
    /// its record store.
    pub fn needs_rebuild(&self) -> bool {
        match &self.inner {
            StoreInner::Memory(_) => false,
            StoreInner::Mmap(m) => m.needs_rebuild(),
        }
    }

    fn store(&self) -> &dyn BlockStorage {
        match &self.inner {
            StoreInner::Memory(s) => s,
            StoreInner::Mmap(s) => s,
        }
    }

    fn store_mut(&mut self) -> &mut dyn BlockStorage {
        match &mut self.inner {
            StoreInner::Memory(s) => s,
            StoreInner::Mmap(s) => s,
        }
    }

    /// Number of tables `L`.
    pub fn num_tables(&self) -> usize {
        self.store().num_tables()
    }

    /// Inserts under the set's policy; `false` = dropped at the cap.
    pub fn insert(&mut self, table: usize, key: u128, id: u64) -> bool {
        let policy = self.policy;
        self.store_mut().insert(table, key, id, &policy)
    }

    /// Takes `id` out of the addressed bucket. See
    /// [`BlockStorage::evict`].
    pub fn evict(&mut self, table: usize, key: u128, id: u64) {
        self.store_mut().evict(table, key, id);
    }

    /// Appends the bucket's ids to `out`, in insertion order.
    pub fn probe_into(&self, table: usize, key: u128, out: &mut Vec<u64>) {
        self.store().probe_into(table, key, out);
    }

    /// Ids in the addressed bucket.
    pub fn bucket_len(&self, table: usize, key: u128) -> usize {
        self.store().bucket_len(table, key)
    }

    /// Folds every non-empty `(table, bucket_len)` into `f`.
    pub fn for_each_bucket(&self, mut f: impl FnMut(usize, usize)) {
        self.store().for_each_bucket(&mut f);
    }

    /// Folds every non-empty `(table, key, ids)` into `f`, ids in
    /// insertion order.
    pub fn for_each_entry(&self, mut f: impl FnMut(usize, u128, &[u64])) {
        self.store().for_each_entry(&mut f);
    }

    /// Compacts (the next generation file of an mmap store). See
    /// [`BlockStorage::compact`].
    ///
    /// # Errors
    /// [`StoreError`] on I/O failure writing the generation file.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        let policy = self.policy;
        self.store_mut().compact(&policy)
    }

    /// Occupancy diagnostics.
    pub fn stats(&self) -> StoreStats {
        self.store().stats()
    }

    /// Heap bytes held by the tables. See [`BlockStorage::heap_bytes`].
    pub fn heap_bytes(&self) -> u64 {
        self.store().heap_bytes()
    }

    /// Drops all data, clearing any [`TableSet::needs_rebuild`] flag.
    pub fn clear(&mut self) {
        self.store_mut().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_default_is_lossless() {
        let p = BlockPolicy::default();
        assert_eq!(p.max_block_size, 0);
        assert_eq!(p.cap_mode, CapMode::Chain);
        assert_eq!(p.probe_top_k, 0);
    }

    #[test]
    fn tableset_roundtrip_memory() {
        let mut t = TableSet::memory(2);
        assert_eq!(t.kind(), StoreKind::Memory);
        assert!(t.insert(0, 7, 1));
        assert!(t.insert(0, 7, 2));
        assert!(t.insert(1, 9, 1));
        let mut out = Vec::new();
        t.probe_into(0, 7, &mut out);
        assert_eq!(out, vec![1, 2]);
        t.evict(0, 7, 1);
        t.evict(1, 9, 1);
        out.clear();
        t.probe_into(0, 7, &mut out);
        assert_eq!(out, vec![2]);
        let stats = t.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.max_bucket, 1);
    }

    #[test]
    fn convert_requires_empty() {
        let mut t = TableSet::memory(1);
        t.insert(0, 1, 1);
        assert!(matches!(
            t.convert(StoreKind::Mmap, Some(std::path::Path::new("/tmp/x"))),
            Err(StoreError::NotEmpty(_))
        ));
    }

    #[test]
    fn drop_cap_discards_and_counts() {
        let mut t = TableSet::memory(1);
        t.set_policy(BlockPolicy {
            max_block_size: 2,
            cap_mode: CapMode::Drop,
            ..BlockPolicy::default()
        });
        assert!(t.insert(0, 1, 1));
        assert!(t.insert(0, 1, 2));
        assert!(!t.insert(0, 1, 3));
        let mut out = Vec::new();
        t.probe_into(0, 1, &mut out);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(t.stats().dropped, 1);
    }
}

//! Blocking tables, in memory or backed by a sealed generation on disk.
//!
//! The blocking structures of the linkage engine hold `L` hash tables
//! mapping composite keys to buckets of record ids. Historically those
//! tables lived entirely in RAM (`HashMap<u128, Vec<u64>>`), so the index
//! size — not the matcher — capped how many records a shard could hold.
//! This crate keeps them in one store, [`TableSet`]: `L` mutable tables,
//! plus, for a disk-resident set ([`TableSet::mmap`]), one *sealed
//! generation* — an immutable, memory-mapped generation file (CRC-framed
//! via `rl-wire`, with a binary-searched on-disk bucket directory per
//! table). [`TableSet::compact`] merges the sealed generation and the
//! tables into the next generation file and empties the tables; until
//! then probes read both. A memory set ([`TableSet::memory`]) has no
//! sealed generation, and every operation is the table work alone.
//!
//! A bucket holds values and nothing else: the API speaks `u64`, and the
//! engine's values are the slots of its record slab (`cbv_hb::matcher::
//! RecordSlab`), each record's for as long as it is indexed. A store keeps
//! a value as a `u32`; one of 2³² or more is refused and counted in
//! [`StoreStats::dropped`]. A value leaves a store one bucket at a time,
//! through [`TableSet::evict`]: the caller recomputes its key in each
//! table from the row it was indexed with, so a deleted record leaves
//! nothing behind and a re-indexed one brings nothing back. The generation
//! file keeps `u64` postings.
//!
//! Every mutable table is one layout, `table::Table`: a hash directory of
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
//! A set honours one [`BlockPolicy`] — the robustness knobs from
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
//! A sealed generation changes where ids live, never which ids a probe
//! returns or in what order: the same insert/evict/probe sequence yields
//! byte-identical id streams from a memory and an mmap set (a
//! property-tested invariant), so a serving pipeline can switch stores
//! without changing match results.

mod disk;
pub mod hash;
mod table;

pub use hash::{WordMap, WordSet};

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde::value::Value;
use serde::{Deserialize, Serialize};

use disk::Sealed;
use table::{value_of, Table, TableDoc};

/// What to do with an insert into a bucket that reached
/// [`BlockPolicy::max_block_size`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum CapMode {
    /// Keep every id; the cap only chunks the on-disk postings segments
    /// (overflow-block chaining). Lossless — the default.
    #[default]
    Chain,
    /// Discard inserts into a full bucket and count them in
    /// [`StoreStats::dropped`]. A hard bound on skew; recall then relies
    /// on the union over the other `L − 1` tables. The engine ignores it
    /// for covering structures, whose zero-false-negative guarantee must
    /// hold.
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

/// Robustness knobs a [`TableSet`] applies, whatever its kind. The default
/// is lossless: no cap, no top-k bound.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
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

/// Where a [`TableSet`] keeps what it has sealed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum StoreKind {
    /// Nowhere: the heap-resident tables hold everything (the default).
    #[default]
    Memory,
    /// In a memory-mapped generation file under a directory, beside the
    /// tables that hold what came since it was sealed.
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
    fn record_bucket(&mut self, len: usize) {
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
/// capping and bounded probes: the unit a blocking structure owns, and the
/// one store of this crate.
///
/// A bucket's ids stream in insertion order: those of the sealed
/// generation first (unless an eviction moved the bucket into the tables),
/// then the tables'. So a memory and an mmap set given the same history
/// answer every probe with the same ids in the same order.
///
/// The set serializes with its structure. An mmap set writes its manifest
/// (directory, generation, overrides) and its tables, and re-maps the
/// generation file on load, degrading to [`TableSet::needs_rebuild`] when
/// the file is torn or missing.
#[derive(Debug, Clone)]
pub struct TableSet {
    policy: BlockPolicy,
    /// The `L` tables: every bucket of a memory set; what an mmap set took
    /// in since its last seal, and the sealed buckets an eviction moved.
    tables: Vec<Table>,
    /// Inserts refused since the set was built or cleared.
    dropped: u64,
    /// An mmap set's sealed generation; `None` for a memory set.
    sealed: Option<Sealed>,
}

impl TableSet {
    /// A heap-resident set of `l` tables under the default (unbounded)
    /// policy — the drop-in equivalent of the historical tables.
    pub fn memory(l: usize) -> Self {
        Self::new(l, None)
    }

    /// A disk-resident set of `l` tables rooted at `dir` (created on
    /// first compaction).
    pub fn mmap(dir: impl Into<PathBuf>, l: usize) -> Self {
        Self::new(l, Some(Sealed::new(dir.into(), l)))
    }

    fn new(l: usize, sealed: Option<Sealed>) -> Self {
        Self {
            policy: BlockPolicy::default(),
            tables: (0..l).map(|_| Table::default()).collect(),
            dropped: 0,
            sealed,
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

    /// Where this set keeps what it seals.
    pub fn kind(&self) -> StoreKind {
        match self.sealed {
            None => StoreKind::Memory,
            Some(_) => StoreKind::Mmap,
        }
    }

    /// Converts an **empty** set to the requested kind (same table
    /// count and policy), rooting an mmap store at `dir`.
    ///
    /// # Errors
    /// [`StoreError::NotEmpty`] when data has already been inserted, or
    /// a missing `dir` for [`StoreKind::Mmap`].
    pub fn convert(&mut self, kind: StoreKind, dir: Option<&Path>) -> Result<(), StoreError> {
        if self.stats().entries > 0 {
            return Err(StoreError::NotEmpty("convert"));
        }
        let l = self.num_tables();
        let sealed = match kind {
            StoreKind::Memory => None,
            StoreKind::Mmap => {
                let dir = dir.ok_or_else(|| {
                    StoreError::Io("mmap block store needs a directory".to_string())
                })?;
                Some(Sealed::new(dir.to_path_buf(), l))
            }
        };
        *self = Self {
            policy: self.policy,
            ..Self::new(l, sealed)
        };
        Ok(())
    }

    /// Re-roots an **empty** mmap store at `dir` (sharded pipelines give
    /// every shard clone its own subdirectory). No-op for memory stores.
    ///
    /// # Errors
    /// [`StoreError::NotEmpty`] when data has already been inserted.
    pub fn rehome(&mut self, dir: &Path) -> Result<(), StoreError> {
        if self.sealed.is_some() && self.stats().entries > 0 {
            return Err(StoreError::NotEmpty("rehome"));
        }
        if let Some(sealed) = &mut self.sealed {
            sealed.dir = dir.to_path_buf();
        }
        Ok(())
    }

    /// The generation-file directory of an mmap store; `None` for the
    /// in-memory backend.
    pub fn dir(&self) -> Option<&Path> {
        self.sealed.as_ref().map(|sealed| sealed.dir.as_path())
    }

    /// The generation last sealed: 0 before the first compaction (or the
    /// first since a clear), and always for a memory set.
    pub fn generation(&self) -> u64 {
        self.sealed.as_ref().map_or(0, |sealed| sealed.generation)
    }

    /// True when a deserialized mmap store could not re-map its
    /// generation file (torn or missing): probes would miss the sealed
    /// ids, so the owner must [`TableSet::clear`] and re-insert from its
    /// record store.
    pub fn needs_rebuild(&self) -> bool {
        self.sealed
            .as_ref()
            .is_some_and(|sealed| sealed.needs_rebuild)
    }

    /// Number of tables `L`.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Inserts `id` into table `table`'s bucket for `key`. Returns `false`
    /// when the policy's [`CapMode::Drop`] discarded the insert, or the id
    /// is past `u32`, or the table is at its 2³²-word arena limit; each
    /// counts in [`StoreStats::dropped`].
    pub fn insert(&mut self, table: usize, key: u128, id: u64) -> bool {
        let capped = self.policy.max_block_size > 0
            && self.policy.cap_mode == CapMode::Drop
            && self.bucket_len(table, key) >= self.policy.max_block_size;
        let pushed = !capped && value_of(id).is_some_and(|v| self.tables[table].push(key, v));
        if !pushed {
            self.dropped += 1;
        }
        pushed
    }

    /// Takes `id` out of the addressed bucket; no other bucket is touched.
    /// The only way an id leaves a store: a deleted record leaves each of
    /// its `L` buckets, a re-keyed one the buckets whose key changed. The
    /// first eviction from a sealed bucket moves the bucket's other ids
    /// into the tables, where they override the sealed copy.
    pub fn evict(&mut self, table: usize, key: u128, id: u64) {
        if self.sealed.as_ref().is_some_and(|s| s.holds(table, key)) {
            self.override_bucket(table, key, |x| x != id);
        } else if let Some(v) = value_of(id) {
            self.tables[table].evict(key, v);
        }
    }

    /// Appends the ids of the addressed bucket to `out`, in insertion
    /// order.
    pub fn probe_into(&self, table: usize, key: u128, out: &mut Vec<u64>) {
        if let Some(sealed) = &self.sealed {
            sealed.with_ids(table, key, &mut |id| out.push(id));
        }
        if let Some(bucket) = self.tables[table].get(key) {
            bucket.extend_into(out);
        }
    }

    /// Ids in the addressed bucket.
    pub fn bucket_len(&self, table: usize, key: u128) -> usize {
        let mut n = self.tables[table].get(key).map_or(0, |b| b.len());
        if let Some(sealed) = &self.sealed {
            sealed.with_ids(table, key, &mut |_| n += 1);
        }
        n
    }

    /// Folds every non-empty `(table, key, ids)` into `f`, ids in insertion
    /// order (fingerprinting, exhaustive exports). The slice is only valid
    /// during the call; bucket visit order within a table is unspecified.
    pub fn for_each_entry(&self, mut f: impl FnMut(usize, u128, &[u64])) {
        let mut ids = Vec::new();
        for (t, table) in self.tables.iter().enumerate() {
            if let Some(sealed) = &self.sealed {
                // A sealed bucket, then what the table added to it since.
                sealed.for_each_bucket(t, &mut |key, sealed_ids| match table.get(key) {
                    None => f(t, key, sealed_ids),
                    Some(bucket) => {
                        ids.clear();
                        ids.extend_from_slice(sealed_ids);
                        bucket.extend_into(&mut ids);
                        f(t, key, &ids);
                    }
                });
            }
            for (key, bucket) in table.iter() {
                if self.sealed.as_ref().is_some_and(|s| s.holds(t, key)) {
                    continue; // merged above
                }
                ids.clear();
                bucket.extend_into(&mut ids);
                f(t, key, &ids);
            }
        }
    }

    /// Seals an mmap set: writes every bucket as the next generation file,
    /// maps it, and empties the tables. A memory set has nothing to seal.
    ///
    /// # Errors
    /// [`StoreError`] on I/O failure writing the generation file.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        if self.sealed.is_none() {
            return Ok(());
        }
        let mut buckets = vec![BTreeMap::new(); self.num_tables()];
        self.for_each_entry(|t, key, ids| {
            buckets[t].insert(key, ids.to_vec());
        });
        if let Some(sealed) = &mut self.sealed {
            sealed.seal(buckets, self.policy.max_block_size)?;
        }
        self.tables.iter_mut().for_each(Table::clear);
        Ok(())
    }

    /// Occupancy diagnostics.
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats {
            size_histogram: vec![0; HISTOGRAM_BINS],
            dropped: self.dropped,
            on_disk_bytes: self.sealed.as_ref().map_or(0, Sealed::on_disk_bytes),
            ..StoreStats::default()
        };
        self.for_each_entry(|_, _, ids| stats.record_bucket(ids.len()));
        stats
    }

    /// Heap bytes the set holds — directories, arenas and free lists, and
    /// an mmap set's override keys — computed from capacities without
    /// walking the entries.
    pub fn heap_bytes(&self) -> u64 {
        let tables: usize = self.tables.iter().map(Table::heap_bytes).sum();
        let sealed = self.sealed.as_ref().map_or(0, Sealed::heap_bytes);
        (std::mem::size_of_val(&self.tables[..]) + tables) as u64 + sealed
    }

    /// Drops all data (tables keep their count, an mmap set its
    /// directory), clearing any [`TableSet::needs_rebuild`] flag — the
    /// first step of a rebuild. An mmap set seals from generation 1 again.
    pub fn clear(&mut self) {
        self.tables.iter_mut().for_each(Table::clear);
        self.dropped = 0;
        if let Some(sealed) = &mut self.sealed {
            sealed.clear();
        }
    }

    /// Takes the ids of `dead` out of every bucket, as builds with
    /// tombstone deletes left them to do at load: a sealed bucket that
    /// holds one is overridden without it, and the tables drop it.
    fn drop_dead(&mut self, dead: &[u64]) {
        if dead.is_empty() {
            return;
        }
        let dead: WordSet<u64> = dead.iter().copied().collect();
        let mut hit = Vec::new();
        if let Some(sealed) = &self.sealed {
            self.for_each_entry(|t, key, ids| {
                if sealed.holds(t, key) && ids.iter().any(|id| dead.contains(id)) {
                    hit.push((t, key));
                }
            });
        }
        for (t, key) in hit {
            self.override_bucket(t, key, |id| !dead.contains(&id));
        }
        for table in &mut self.tables {
            table.retain_all(|v| !dead.contains(&u64::from(v)));
        }
    }
}

// ---------------------------------------------------------------------------
// Serde: `{"policy", "inner": {"Memory": …} | {"Mmap": …}}`
// ---------------------------------------------------------------------------

/// A set's document, as every build since the store had two kinds wrote
/// it.
#[derive(Deserialize)]
struct SetDoc {
    policy: BlockPolicy,
    inner: StoreDoc,
}

/// The two document shapes. `dead` is what builds with tombstone deletes
/// also wrote: its ids leave every bucket once, at load.
#[derive(Deserialize)]
enum StoreDoc {
    Memory {
        tables: Vec<TableDoc>,
        #[serde(default)]
        dead: Vec<u64>,
        dropped: u64,
    },
    Mmap {
        dir: String,
        generation: u64,
        num_tables: usize,
        delta: Vec<TableDoc>,
        overridden: Vec<Vec<u128>>,
        #[serde(default)]
        dead: Vec<u64>,
        dropped: u64,
    },
}

impl Serialize for TableSet {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let doc = self.document().map_err(serde::ser::Error::custom)?;
        serializer.serialize_value(doc)
    }
}

impl TableSet {
    /// The set's document: a memory set's tables, or an mmap set's
    /// manifest with its tables as the `delta`.
    fn document(&self) -> Result<Value, serde::ValueError> {
        let object = |fields: Vec<(&str, Value)>| {
            Value::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        };
        let tables = serde::to_value(&self.tables)?;
        let dropped = serde::to_value(&self.dropped)?;
        let inner = match &self.sealed {
            None => ("Memory", vec![("tables", tables), ("dropped", dropped)]),
            Some(sealed) => (
                "Mmap",
                vec![
                    ("dir", serde::to_value(&*sealed.dir.to_string_lossy())?),
                    ("generation", serde::to_value(&sealed.generation)?),
                    ("num_tables", serde::to_value(&self.num_tables())?),
                    ("delta", tables),
                    ("overridden", serde::to_value(&sealed.overridden_keys())?),
                    ("dropped", dropped),
                ],
            ),
        };
        Ok(object(vec![
            ("policy", serde::to_value(&self.policy)?),
            ("inner", object(vec![(inner.0, object(inner.1))])),
        ]))
    }
}

impl<'de> Deserialize<'de> for TableSet {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let SetDoc { policy, inner } = SetDoc::deserialize(deserializer)?;
        let (tables, dead, mut dropped, sealed) = match inner {
            StoreDoc::Memory {
                tables,
                dead,
                dropped,
            } => (tables, dead, dropped, None),
            StoreDoc::Mmap {
                dir,
                generation,
                num_tables: l,
                delta,
                overridden,
                dead,
                dropped,
            } => {
                // An overlay of another length would leave acknowledged
                // inserts out of every probe.
                for (what, len) in [("delta", delta.len()), ("overridden", overridden.len())] {
                    if len != l {
                        return Err(serde::de::Error::custom(format!(
                            "mmap store of {l} tables has {len} {what} tables"
                        )));
                    }
                }
                let sealed = Sealed::open(dir.into(), l, generation, overridden);
                if sealed.needs_rebuild {
                    // Torn or missing generation file: a rebuild request,
                    // not a partial index.
                    return Ok(Self {
                        policy,
                        ..Self::new(l, Some(sealed))
                    });
                }
                (delta, dead, dropped, Some(sealed))
            }
        };
        let tables = tables
            .into_iter()
            .map(|doc| Table::from_doc(doc, &mut dropped))
            .collect::<Result<_, _>>()
            .map_err(serde::de::Error::custom)?;
        let mut set = Self {
            policy,
            tables,
            dropped,
            sealed,
        };
        set.drop_dead(&dead);
        Ok(set)
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

    #[test]
    fn evict_takes_the_id_out_of_one_bucket() {
        let mut s = TableSet::memory(2);
        for id in 0..64 {
            s.insert(0, 1, id);
            s.insert(1, 2, id);
        }
        s.evict(0, 1, 7);
        assert_eq!(s.tables[0].get(1).unwrap().len(), 63);
        assert_eq!(s.bucket_len(1, 2), 64);
        s.evict(0, 3, 7); // not there: nothing happens
        assert_eq!(s.stats().entries, 127);
    }

    #[test]
    fn full_compact_drops_empty_buckets() {
        let mut s = TableSet::memory(1);
        s.insert(0, 1, 10);
        s.insert(0, 2, 11);
        s.evict(0, 1, 10);
        s.compact().unwrap();
        assert_eq!(s.tables[0].len(), 1);
        assert_eq!(s.stats().entries, 1);
    }

    /// The memory document in its `TableSet` envelope.
    fn memory_doc(store: &str) -> String {
        format!(
            r#"{{"policy":{{"max_block_size":0,"cap_mode":"Chain","probe_top_k":0}},"inner":{{"Memory":{store}}}}}"#
        )
    }

    #[test]
    fn a_document_with_tombstones_loads_without_them() {
        let doc = r#"{"tables":[{"1":[10,11,12],"2":[11]}],"dead":[11],"dropped":0}"#;
        let s: TableSet = serde_json::from_str(&memory_doc(doc)).unwrap();
        let mut out = Vec::new();
        s.probe_into(0, 1, &mut out);
        assert_eq!(out, [10, 12]);
        assert_eq!(s.bucket_len(0, 2), 0);
        assert_eq!(s.stats().entries, 2);
        assert_eq!(
            serde_json::to_string(&s).unwrap(),
            memory_doc(r#"{"tables":[{"1":[10,12]}],"dropped":0}"#)
        );
    }

    #[test]
    fn a_full_arena_refuses_the_insert_and_counts_it() {
        let mut s = TableSet::memory(1);
        s.tables[0] = Table::with_arena_limit(2);
        assert!(s.insert(0, 1, 10)); // inline
        assert!(s.insert(0, 1, 11)); // the arena's two words: header and id
        assert!(!s.insert(0, 1, 12));
        assert!(s.insert(0, 2, 13), "a new bucket needs no arena");
        let mut out = Vec::new();
        s.probe_into(0, 1, &mut out);
        assert_eq!(out, vec![10, 11]);
        assert_eq!(s.stats().dropped, 1);
        assert_eq!(s.stats().entries, 3);
    }

    #[test]
    fn an_id_past_u32_is_refused_and_counted() {
        let mut s = TableSet::memory(1);
        assert!(s.insert(0, 1, u64::from(u32::MAX)));
        assert!(!s.insert(0, 1, 1 << 32));
        assert!(!s.insert(0, 2, u64::MAX));
        s.evict(0, 1, 1 << 32); // never held: nothing happens
        let mut out = Vec::new();
        s.probe_into(0, 1, &mut out);
        assert_eq!(out, [u64::from(u32::MAX)]);
        assert_eq!(s.stats().dropped, 2);
        assert_eq!(s.stats().entries, 1);
    }
}

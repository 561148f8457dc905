//! Heap-resident [`BlockStorage`]: `L` [`Table`]s, policy-aware (cap;
//! top-k is handled by callers).

use serde::{Deserialize, Deserializer, Serialize};

use crate::hash::WordSet;
use crate::table::{tables_from_doc, tables_heap_bytes, value_of, Table, TableDoc};
use crate::{BlockPolicy, BlockStorage, CapMode, StoreError, StoreStats, HISTOGRAM_BINS};

/// `L` in-memory tables of `u32` values (an id of 2³² or more is refused and
/// counted in `dropped`). An id leaves a bucket through
/// [`InMemoryStore::evict`] and leaves nothing behind, so there is nothing
/// to compact.
#[derive(Debug, Clone, Serialize)]
pub struct InMemoryStore {
    tables: Vec<Table>,
    dropped: u64,
}

impl InMemoryStore {
    /// An empty store with `l` tables.
    pub fn new(l: usize) -> Self {
        Self {
            tables: (0..l).map(|_| Table::default()).collect(),
            dropped: 0,
        }
    }
}

/// The document as builds with tombstone deletes also wrote it: its `dead`
/// ids leave every bucket once, at load.
#[derive(Deserialize)]
struct MemDoc {
    tables: Vec<TableDoc>,
    #[serde(default)]
    dead: Vec<u64>,
    dropped: u64,
}

impl<'de> Deserialize<'de> for InMemoryStore {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let MemDoc {
            tables,
            dead,
            mut dropped,
        } = MemDoc::deserialize(deserializer)?;
        let mut tables = tables_from_doc(tables, &mut dropped)?;
        if !dead.is_empty() {
            let dead: WordSet<u64> = dead.into_iter().collect();
            for table in &mut tables {
                table.retain_all(|v| !dead.contains(&u64::from(v)));
            }
        }
        Ok(Self { tables, dropped })
    }
}

impl BlockStorage for InMemoryStore {
    fn num_tables(&self) -> usize {
        self.tables.len()
    }

    fn insert(&mut self, table: usize, key: u128, id: u64, policy: &BlockPolicy) -> bool {
        let capped = policy.max_block_size > 0
            && policy.cap_mode == CapMode::Drop
            && self.bucket_len(table, key) >= policy.max_block_size;
        // An id past `u32`, or a table whose arena is at its limit, refuses
        // like a full bucket.
        let pushed = !capped && value_of(id).is_some_and(|v| self.tables[table].push(key, v));
        if !pushed {
            self.dropped += 1;
            return false;
        }
        true
    }

    fn evict(&mut self, table: usize, key: u128, id: u64) {
        if let Some(v) = value_of(id) {
            self.tables[table].evict(key, v);
        }
    }

    fn probe_into(&self, table: usize, key: u128, out: &mut Vec<u64>) {
        if let Some(bucket) = self.tables[table].get(key) {
            bucket.extend_into(out);
        }
    }

    fn bucket_len(&self, table: usize, key: u128) -> usize {
        self.tables[table].get(key).map_or(0, |b| b.len())
    }

    fn for_each_bucket(&self, f: &mut dyn FnMut(usize, usize)) {
        for (t, table) in self.tables.iter().enumerate() {
            for (_, bucket) in table.iter() {
                f(t, bucket.len());
            }
        }
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(usize, u128, &[u64])) {
        let mut scratch = Vec::new();
        for (t, table) in self.tables.iter().enumerate() {
            for (key, bucket) in table.iter() {
                scratch.clear();
                bucket.extend_into(&mut scratch);
                f(t, key, &scratch);
            }
        }
    }

    fn compact(&mut self, _policy: &BlockPolicy) -> Result<(), StoreError> {
        Ok(())
    }

    fn stats(&self) -> StoreStats {
        let mut stats = StoreStats {
            size_histogram: vec![0; HISTOGRAM_BINS],
            dropped: self.dropped,
            ..StoreStats::default()
        };
        for table in &self.tables {
            for (_, bucket) in table.iter() {
                stats.record_bucket(bucket.len());
            }
        }
        stats
    }

    fn heap_bytes(&self) -> u64 {
        tables_heap_bytes(&self.tables)
    }

    fn clear(&mut self) {
        for table in &mut self.tables {
            table.clear();
        }
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> BlockPolicy {
        BlockPolicy::default()
    }

    #[test]
    fn evict_takes_the_id_out_of_one_bucket() {
        let mut s = InMemoryStore::new(2);
        let p = policy();
        for id in 0..64 {
            s.insert(0, 1, id, &p);
            s.insert(1, 2, id, &p);
        }
        s.evict(0, 1, 7);
        assert_eq!(s.tables[0].get(1).unwrap().len(), 63);
        assert_eq!(s.bucket_len(1, 2), 64);
        s.evict(0, 3, 7); // not there: nothing happens
        assert_eq!(s.stats().entries, 127);
    }

    #[test]
    fn full_compact_drops_empty_buckets() {
        let mut s = InMemoryStore::new(1);
        let p = policy();
        s.insert(0, 1, 10, &p);
        s.insert(0, 2, 11, &p);
        s.evict(0, 1, 10);
        s.compact(&p).unwrap();
        assert_eq!(s.tables[0].len(), 1);
        assert_eq!(s.stats().entries, 1);
    }

    #[test]
    fn a_document_with_tombstones_loads_without_them() {
        let doc = r#"{"tables":[{"1":[10,11,12],"2":[11]}],"dead":[11],"dropped":0}"#;
        let s: InMemoryStore = serde_json::from_str(doc).unwrap();
        let mut out = Vec::new();
        s.probe_into(0, 1, &mut out);
        assert_eq!(out, [10, 12]);
        assert_eq!(s.bucket_len(0, 2), 0);
        assert_eq!(s.stats().entries, 2);
        assert_eq!(
            serde_json::to_string(&s).unwrap(),
            r#"{"tables":[{"1":[10,12]}],"dropped":0}"#
        );
    }

    #[test]
    fn a_full_arena_refuses_the_insert_and_counts_it() {
        let mut s = InMemoryStore::new(1);
        s.tables[0] = Table::with_arena_limit(2);
        let p = policy();
        assert!(s.insert(0, 1, 10, &p)); // inline
        assert!(s.insert(0, 1, 11, &p)); // the arena's two words: header and id
        assert!(!s.insert(0, 1, 12, &p));
        assert!(s.insert(0, 2, 13, &p), "a new bucket needs no arena");
        let mut out = Vec::new();
        s.probe_into(0, 1, &mut out);
        assert_eq!(out, vec![10, 11]);
        assert_eq!(s.stats().dropped, 1);
        assert_eq!(s.stats().entries, 3);
    }

    #[test]
    fn an_id_past_u32_is_refused_and_counted() {
        let mut s = InMemoryStore::new(1);
        let p = policy();
        assert!(s.insert(0, 1, u64::from(u32::MAX), &p));
        assert!(!s.insert(0, 1, 1 << 32, &p));
        assert!(!s.insert(0, 2, u64::MAX, &p));
        s.evict(0, 1, 1 << 32); // never held: nothing happens
        let mut out = Vec::new();
        s.probe_into(0, 1, &mut out);
        assert_eq!(out, [u64::from(u32::MAX)]);
        assert_eq!(s.stats().dropped, 2);
        assert_eq!(s.stats().entries, 1);
    }
}

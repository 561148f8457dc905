//! Heap-resident [`BlockStorage`]: `L` [`Table`]s and a tombstone set,
//! policy-aware (cap, top-k handled by callers, tombstones).

use serde::{Deserialize, Serialize};

use crate::hash::WordSet;
use crate::table::{tables_heap_bytes, Bucket, Table};
use crate::{BlockPolicy, BlockStorage, CapMode, StoreError, StoreStats, HISTOGRAM_BINS};

/// `L` in-memory tables with a shared tombstone set.
///
/// Deletes only tombstone ids ([`InMemoryStore::remove`]); a bucket is
/// scrubbed in place when its dead fraction crosses the policy's
/// threshold, and [`InMemoryStore::compact`] scrubs everything.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InMemoryStore {
    tables: Vec<Table>,
    dead: WordSet<u64>,
    dropped: u64,
}

impl InMemoryStore {
    /// An empty store with `l` tables.
    pub fn new(l: usize) -> Self {
        Self {
            tables: (0..l).map(|_| Table::default()).collect(),
            dead: WordSet::default(),
            dropped: 0,
        }
    }

    fn live_len(&self, bucket: Bucket<'_>) -> usize {
        if self.dead.is_empty() {
            return bucket.len();
        }
        bucket.iter().filter(|id| !self.dead.contains(id)).count()
    }
}

impl BlockStorage for InMemoryStore {
    fn num_tables(&self) -> usize {
        self.tables.len()
    }

    fn insert(&mut self, table: usize, key: u128, id: u64, policy: &BlockPolicy) -> bool {
        if !self.dead.is_empty() {
            self.dead.remove(&id);
        }
        let capped = policy.max_block_size > 0
            && policy.cap_mode == CapMode::Drop
            && self.bucket_len(table, key) >= policy.max_block_size;
        // A table whose arena is at its limit refuses like a full bucket.
        if capped || !self.tables[table].push(key, id) {
            self.dropped += 1;
            return false;
        }
        true
    }

    fn remove(&mut self, table: usize, key: u128, id: u64, policy: &BlockPolicy) {
        self.dead.insert(id);
        if policy.compact_dead_ratio <= 0.0 {
            return;
        }
        let dead = &self.dead;
        if let Some(bucket) = self.tables[table].get(key) {
            let dead_in_bucket = bucket.iter().filter(|x| dead.contains(x)).count();
            if dead_in_bucket > 0
                && (dead_in_bucket as f64) >= policy.compact_dead_ratio * (bucket.len() as f64)
            {
                self.tables[table].retain(key, |x| !dead.contains(&x));
            }
        }
    }

    fn evict(&mut self, table: usize, key: u128, id: u64) {
        self.tables[table].evict(key, id);
    }

    fn probe_into(&self, table: usize, key: u128, out: &mut Vec<u64>) {
        if let Some(bucket) = self.tables[table].get(key) {
            if self.dead.is_empty() {
                bucket.extend_into(out);
            } else {
                out.extend(bucket.iter().filter(|id| !self.dead.contains(id)));
            }
        }
    }

    fn bucket_len(&self, table: usize, key: u128) -> usize {
        self.tables[table].get(key).map_or(0, |b| self.live_len(b))
    }

    fn for_each_bucket(&self, f: &mut dyn FnMut(usize, usize)) {
        for (t, table) in self.tables.iter().enumerate() {
            for (_, bucket) in table.iter() {
                let live = self.live_len(bucket);
                if live > 0 {
                    f(t, live);
                }
            }
        }
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(usize, u128, &[u64])) {
        let mut scratch = Vec::new();
        for (t, table) in self.tables.iter().enumerate() {
            for (key, bucket) in table.iter() {
                scratch.clear();
                scratch.extend(bucket.iter().filter(|id| !self.dead.contains(id)));
                if !scratch.is_empty() {
                    f(t, key, &scratch);
                }
            }
        }
    }

    fn compact(&mut self, _policy: &BlockPolicy) -> Result<(), StoreError> {
        if !self.dead.is_empty() {
            let dead = std::mem::take(&mut self.dead);
            for table in &mut self.tables {
                table.retain_all(|id| !dead.contains(&id));
            }
        }
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
                let live = self.live_len(bucket);
                stats.dead_entries += (bucket.len() - live) as u64;
                stats.record_bucket(live);
            }
        }
        stats
    }

    fn heap_bytes(&self) -> u64 {
        tables_heap_bytes(&self.tables, &self.dead)
    }

    fn clear(&mut self) {
        for table in &mut self.tables {
            table.clear();
        }
        self.dead.clear();
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
    fn tombstone_then_revive() {
        let mut s = InMemoryStore::new(1);
        let p = policy();
        s.insert(0, 1, 42, &p);
        s.remove(
            0,
            1,
            42,
            &BlockPolicy {
                compact_dead_ratio: 0.0,
                ..p
            },
        );
        assert_eq!(s.bucket_len(0, 1), 0);
        // Re-inserting revives the id; the stale slot plus the new one
        // both surface (callers dedup via their candidate set).
        s.insert(0, 1, 42, &p);
        let mut out = Vec::new();
        s.probe_into(0, 1, &mut out);
        assert_eq!(out, vec![42, 42]);
    }

    #[test]
    fn evict_takes_the_id_out_of_one_bucket_without_a_tombstone() {
        let mut s = InMemoryStore::new(2);
        let p = policy();
        for id in 0..64 {
            s.insert(0, 1, id, &p);
            s.insert(1, 2, id, &p);
        }
        s.evict(0, 1, 7);
        assert_eq!(s.tables[0].get(1).unwrap().len(), 63);
        assert_eq!(s.bucket_len(1, 2), 64);
        assert!(s.dead.is_empty());
        s.evict(0, 3, 7); // not there: nothing happens
        assert_eq!(s.stats().entries, 127);
    }

    #[test]
    fn lazy_scrub_fires_at_ratio() {
        let mut s = InMemoryStore::new(1);
        let p = BlockPolicy {
            compact_dead_ratio: 0.5,
            ..policy()
        };
        for id in 0..4 {
            s.insert(0, 1, id, &p);
        }
        s.remove(0, 1, 0, &p); // 1/4 dead — below threshold
        let raw = s.tables[0].get(1).unwrap().len();
        assert_eq!(raw, 4);
        s.remove(0, 1, 1, &p); // 2/4 dead — scrub
        let raw = s.tables[0].get(1).unwrap().len();
        assert_eq!(raw, 2);
        assert_eq!(s.bucket_len(0, 1), 2);
    }

    #[test]
    fn full_compact_drops_empty_buckets() {
        let mut s = InMemoryStore::new(1);
        let p = BlockPolicy {
            compact_dead_ratio: 0.0,
            ..policy()
        };
        s.insert(0, 1, 10, &p);
        s.insert(0, 2, 11, &p);
        s.remove(0, 1, 10, &p);
        s.compact(&p).unwrap();
        assert_eq!(s.tables[0].len(), 1);
        assert_eq!(s.stats().entries, 1);
        assert_eq!(s.stats().dead_entries, 0);
    }

    #[test]
    fn a_full_arena_refuses_the_insert_and_counts_it() {
        let mut s = InMemoryStore::new(1);
        s.tables[0] = Table::with_arena_limit(1);
        let p = policy();
        assert!(s.insert(0, 1, 10, &p)); // inline
        assert!(s.insert(0, 1, 11, &p)); // the arena's one word
        assert!(!s.insert(0, 1, 12, &p));
        assert!(s.insert(0, 2, 13, &p), "a new bucket needs no arena");
        let mut out = Vec::new();
        s.probe_into(0, 1, &mut out);
        assert_eq!(out, vec![10, 11]);
        assert_eq!(s.stats().dropped, 1);
        assert_eq!(s.stats().entries, 3);
    }
}

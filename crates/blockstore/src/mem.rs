//! Heap-resident [`BlockStorage`]: the historical `HashMap` blocking
//! tables, now policy-aware (cap, top-k handled by callers, tombstones).

use serde::{Deserialize, Serialize};

use crate::hash::{WordMap, WordSet};
use crate::{BlockPolicy, BlockStorage, CapMode, StoreError, StoreStats, HISTOGRAM_BINS};

/// `L` in-memory hash tables with a shared tombstone set.
///
/// Deletes only tombstone ids ([`InMemoryStore::remove`]); a bucket is
/// scrubbed in place when its dead fraction crosses the policy's
/// threshold, and [`InMemoryStore::compact`] scrubs everything.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InMemoryStore {
    tables: Vec<WordMap<u128, Vec<u64>>>,
    dead: WordSet<u64>,
    dropped: u64,
}

impl InMemoryStore {
    /// An empty store with `l` tables.
    pub fn new(l: usize) -> Self {
        Self {
            tables: (0..l).map(|_| WordMap::default()).collect(),
            dead: WordSet::default(),
            dropped: 0,
        }
    }

    fn live_len(&self, bucket: &[u64]) -> usize {
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
        let bucket = self.tables[table].entry(key).or_default();
        if policy.max_block_size > 0 && policy.cap_mode == CapMode::Drop {
            let live = if self.dead.is_empty() {
                bucket.len()
            } else {
                bucket.iter().filter(|x| !self.dead.contains(x)).count()
            };
            if live >= policy.max_block_size {
                self.dropped += 1;
                return false;
            }
        }
        bucket.push(id);
        true
    }

    fn remove(&mut self, table: usize, key: u128, id: u64, policy: &BlockPolicy) {
        self.dead.insert(id);
        if policy.compact_dead_ratio <= 0.0 {
            return;
        }
        let dead = &self.dead;
        if let Some(bucket) = self.tables[table].get_mut(&key) {
            let dead_in_bucket = bucket.iter().filter(|x| dead.contains(x)).count();
            if dead_in_bucket > 0
                && (dead_in_bucket as f64) >= policy.compact_dead_ratio * (bucket.len() as f64)
            {
                bucket.retain(|x| !dead.contains(x));
                if bucket.is_empty() {
                    self.tables[table].remove(&key);
                }
            }
        }
    }

    fn probe_into(&self, table: usize, key: u128, out: &mut Vec<u64>) {
        if let Some(bucket) = self.tables[table].get(&key) {
            if self.dead.is_empty() {
                out.extend_from_slice(bucket);
            } else {
                out.extend(bucket.iter().filter(|id| !self.dead.contains(id)));
            }
        }
    }

    fn bucket_len(&self, table: usize, key: u128) -> usize {
        self.tables[table]
            .get(&key)
            .map(|b| self.live_len(b))
            .unwrap_or(0)
    }

    fn for_each_bucket(&self, f: &mut dyn FnMut(usize, usize)) {
        for (t, table) in self.tables.iter().enumerate() {
            for bucket in table.values() {
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
            for (key, bucket) in table {
                if self.dead.is_empty() {
                    if !bucket.is_empty() {
                        f(t, *key, bucket);
                    }
                    continue;
                }
                scratch.clear();
                scratch.extend(bucket.iter().filter(|id| !self.dead.contains(id)));
                if !scratch.is_empty() {
                    f(t, *key, &scratch);
                }
            }
        }
    }

    fn compact(&mut self, _policy: &BlockPolicy) -> Result<(), StoreError> {
        if !self.dead.is_empty() {
            let dead = std::mem::take(&mut self.dead);
            for table in &mut self.tables {
                for bucket in table.values_mut() {
                    bucket.retain(|id| !dead.contains(id));
                }
                table.retain(|_, bucket| !bucket.is_empty());
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
            for bucket in table.values() {
                let live = self.live_len(bucket);
                stats.dead_entries += (bucket.len() - live) as u64;
                stats.record_bucket(live);
            }
        }
        stats
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
        let raw = s.tables[0].get(&1).unwrap().len();
        assert_eq!(raw, 4);
        s.remove(0, 1, 1, &p); // 2/4 dead — scrub
        let raw = s.tables[0].get(&1).unwrap().len();
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
}

//! Versioned shard maps and online split/merge planning for the sharded
//! linkage pipeline.
//!
//! A [`ShardMap`] is an epoch-stamped assignment of the 64-bit record-hash
//! keyspace to shards. Records are placed by hashing their id through
//! [`key_point`] and looking the point up in the map; growing or shrinking a
//! cluster is a *map change* (split/merge) rather than a rebuild. The map
//! itself is pure data — the live migration machinery (double-probe,
//! dual-apply, cutover) lives in `cbv-hb`'s sharded pipeline and in
//! `rl-server`; this crate owns the planning and the invariants.
//!
//! Invariants enforced by [`ShardMap::validate`]:
//! - ranges are sorted by start, strictly increasing, and the first starts
//!   at 0 (the map covers the whole keyspace with no gaps or overlaps);
//! - every assignment names a shard `< num_shards`;
//! - the epoch only moves forward, one step per accepted reshard.

use serde::{Deserialize, Serialize};

/// Finalizer of splitmix64: maps a record id to its point in the keyspace.
///
/// Ids are often sequential; the finalizer spreads them uniformly so that a
/// contiguous id range does not land on a single shard.
pub fn key_point(id: u64) -> u64 {
    let mut z = id.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An inclusive range of keyspace points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeyRange {
    pub start: u64,
    pub end: u64,
}

impl KeyRange {
    pub fn contains(&self, point: u64) -> bool {
        point >= self.start && point <= self.end
    }

    /// Width as a u128 so the full-keyspace range does not overflow.
    pub fn width(&self) -> u128 {
        (self.end as u128) - (self.start as u128) + 1
    }
}

/// One entry of a shard map: the keyspace from `start` up to (but not
/// including) the next entry's start belongs to `shard`. The last entry
/// runs to `u64::MAX` inclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RangeAssignment {
    pub start: u64,
    pub shard: usize,
}

/// Epoch-stamped assignment of the keyspace to shards.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMap {
    epoch: u64,
    num_shards: usize,
    ranges: Vec<RangeAssignment>,
}

impl ShardMap {
    /// A fresh map splitting the keyspace evenly across `n` shards.
    /// Epochs start at 1 so that 0 can mean "no map" on old wire peers.
    pub fn uniform(n: usize) -> ShardMap {
        let n = n.max(1);
        let step = (1u128 << 64) / n as u128;
        let ranges = (0..n)
            .map(|i| RangeAssignment {
                start: (i as u128 * step) as u64,
                shard: i,
            })
            .collect();
        ShardMap {
            epoch: 1,
            num_shards: n,
            ranges,
        }
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    pub fn assignments(&self) -> &[RangeAssignment] {
        &self.ranges
    }

    /// The shard owning a keyspace point.
    pub fn shard_of(&self, point: u64) -> usize {
        match self.ranges.binary_search_by(|r| r.start.cmp(&point)) {
            Ok(i) => self.ranges[i].shard,
            Err(i) => self.ranges[i - 1].shard, // i >= 1: first start is 0
        }
    }

    /// All inclusive ranges currently assigned to `shard`, in keyspace order.
    pub fn ranges_of(&self, shard: usize) -> Vec<KeyRange> {
        let mut out = Vec::new();
        for (i, r) in self.ranges.iter().enumerate() {
            if r.shard != shard {
                continue;
            }
            let end = match self.ranges.get(i + 1) {
                Some(next) => next.start - 1,
                None => u64::MAX,
            };
            out.push(KeyRange {
                start: r.start,
                end,
            });
        }
        out
    }

    /// Structural validity check; run on every deserialized map.
    pub fn validate(&self) -> Result<(), ReshardError> {
        if self.num_shards == 0 {
            return Err(ReshardError::InvalidMap("num_shards is 0".into()));
        }
        if self.ranges.is_empty() {
            return Err(ReshardError::InvalidMap("no ranges".into()));
        }
        if self.ranges[0].start != 0 {
            return Err(ReshardError::InvalidMap(
                "first range does not start at 0".into(),
            ));
        }
        for w in self.ranges.windows(2) {
            if w[1].start <= w[0].start {
                return Err(ReshardError::InvalidMap(
                    "ranges not strictly increasing".into(),
                ));
            }
        }
        for r in &self.ranges {
            if r.shard >= self.num_shards {
                return Err(ReshardError::InvalidMap(format!(
                    "range at {} names shard {} >= num_shards {}",
                    r.start, r.shard, self.num_shards
                )));
            }
        }
        Ok(())
    }

    /// Plan a reshard against this map. Pure: returns the ranges to move and
    /// the successor map (epoch + 1); nothing is applied.
    pub fn plan(&self, op: ReshardOp) -> Result<ReshardPlan, ReshardError> {
        match op {
            ReshardOp::Split { source } => self.plan_split(source),
            ReshardOp::Merge { source, target } => self.plan_merge(source, target),
        }
    }

    /// Split the source shard's widest range in half; the upper half moves to
    /// a brand-new shard (id = current `num_shards`).
    fn plan_split(&self, source: usize) -> Result<ReshardPlan, ReshardError> {
        if source >= self.num_shards {
            return Err(ReshardError::UnknownShard(source));
        }
        // Widest range, ties broken by lowest start: deterministic, so WAL
        // replay and followers recompute the identical plan.
        let widest = (self.ranges_of(source).into_iter())
            .max_by(|a, b| a.width().cmp(&b.width()).then(b.start.cmp(&a.start)));
        let Some(widest) = widest else {
            return Err(ReshardError::EmptySource(source));
        };
        if widest.width() < 2 {
            return Err(ReshardError::Unsplittable(source));
        }
        let mid = widest.start + ((widest.end - widest.start) >> 1);
        let target = self.num_shards;
        let moved = KeyRange {
            start: mid + 1,
            end: widest.end,
        };

        let mut ranges = self.ranges.clone();
        let at = ranges
            .binary_search_by(|r| r.start.cmp(&moved.start))
            .unwrap_err();
        ranges.insert(
            at,
            RangeAssignment {
                start: moved.start,
                shard: target,
            },
        );
        let new_map = ShardMap {
            epoch: self.epoch + 1,
            num_shards: self.num_shards + 1,
            ranges,
        };
        new_map.validate()?;
        let op = ReshardOp::Split { source };
        Ok(ReshardPlan {
            op,
            source,
            target,
            moved: vec![moved],
            new_map,
        })
    }

    /// Reassign every range the source owns to the target; the source shard
    /// stays in the map (id-stable) but owns nothing afterwards.
    fn plan_merge(&self, source: usize, target: usize) -> Result<ReshardPlan, ReshardError> {
        if source >= self.num_shards {
            return Err(ReshardError::UnknownShard(source));
        }
        if target >= self.num_shards {
            return Err(ReshardError::UnknownShard(target));
        }
        if source == target {
            return Err(ReshardError::SameShard(source));
        }
        let moved = self.ranges_of(source);
        if moved.is_empty() {
            return Err(ReshardError::EmptySource(source));
        }
        let mut ranges: Vec<RangeAssignment> = self
            .ranges
            .iter()
            .map(|r| {
                let shard = if r.shard == source { target } else { r.shard };
                RangeAssignment {
                    start: r.start,
                    shard,
                }
            })
            .collect();
        // Coalesce adjacent ranges that now share an owner.
        ranges.dedup_by(|b, a| a.shard == b.shard);
        let new_map = ShardMap {
            epoch: self.epoch + 1,
            num_shards: self.num_shards,
            ranges,
        };
        new_map.validate()?;
        let op = ReshardOp::Merge { source, target };
        Ok(ReshardPlan {
            op,
            source,
            target,
            moved,
            new_map,
        })
    }
}

/// A reshard request, as issued over the wire or replayed from the WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ReshardOp {
    /// Halve the source shard's widest range into a brand-new shard.
    Split { source: usize },
    /// Move everything the source owns onto an existing target shard.
    Merge { source: usize, target: usize },
}

impl ReshardOp {
    pub fn kind(&self) -> &'static str {
        match self {
            ReshardOp::Split { .. } => "split",
            ReshardOp::Merge { .. } => "merge",
        }
    }

    pub fn source(&self) -> usize {
        match *self {
            ReshardOp::Split { source } | ReshardOp::Merge { source, .. } => source,
        }
    }
}

/// The outcome of planning a reshard: which keyspace ranges move from
/// `source` to `target`, and the map that takes effect at cutover.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReshardPlan {
    pub op: ReshardOp,
    pub source: usize,
    pub target: usize,
    /// Inclusive ranges whose records migrate source -> target.
    pub moved: Vec<KeyRange>,
    /// Successor map, installed atomically at cutover.
    pub new_map: ShardMap,
}

/// Point-in-time view of a migration, served over `MigrationStatus`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationStatus {
    pub active: bool,
    /// "split" or "merge" while active, "" otherwise.
    #[serde(default)]
    pub kind: String,
    #[serde(default)]
    pub source: usize,
    #[serde(default)]
    pub target: usize,
    /// Records copied so far by the background migrator.
    #[serde(default)]
    pub migrated: u64,
    /// Source records in the moved ranges when the migration began.
    #[serde(default)]
    pub total: u64,
    /// Current (pre-cutover) map epoch.
    #[serde(default)]
    pub epoch: u64,
}

impl MigrationStatus {
    pub fn idle(epoch: u64) -> MigrationStatus {
        MigrationStatus {
            active: false,
            kind: String::new(),
            source: 0,
            target: 0,
            migrated: 0,
            total: 0,
            epoch,
        }
    }
}

/// Typed reshard failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReshardError {
    /// A populated disk-resident plan cannot be rehomed in place; the data
    /// has to be migrated by the online engine.
    RequiresMigration(String),
    /// Only one migration may be in flight per pipeline.
    MigrationInFlight,
    /// finish/abort called with no migration running.
    NoMigration,
    /// Cutover requested before the copy drained the source.
    CopyIncomplete,
    UnknownShard(usize),
    /// The source shard owns no keyspace — nothing to split or merge away.
    EmptySource(usize),
    /// The widest range is a single point and cannot be halved.
    Unsplittable(usize),
    SameShard(usize),
    InvalidMap(String),
}

impl std::fmt::Display for ReshardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReshardError::RequiresMigration(what) => write!(
                f,
                "{what} is populated and disk-resident; changing its shard layout in place \
                 would orphan on-disk generations — use `rl reshard` for an online migration"
            ),
            ReshardError::MigrationInFlight => {
                write!(f, "a shard migration is already in flight")
            }
            ReshardError::NoMigration => write!(f, "no shard migration is in flight"),
            ReshardError::CopyIncomplete => {
                write!(f, "migration copy has not drained the source yet")
            }
            ReshardError::UnknownShard(s) => write!(f, "unknown shard {s}"),
            ReshardError::EmptySource(s) => {
                write!(f, "shard {s} owns no keyspace ranges")
            }
            ReshardError::Unsplittable(s) => {
                write!(
                    f,
                    "shard {s}'s widest range is a single point and cannot be split"
                )
            }
            ReshardError::SameShard(s) => {
                write!(f, "merge source and target are both shard {s}")
            }
            ReshardError::InvalidMap(why) => write!(f, "invalid shard map: {why}"),
        }
    }
}

impl std::error::Error for ReshardError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_keyspace() {
        for n in 1..9 {
            let map = ShardMap::uniform(n);
            map.validate().unwrap();
            assert_eq!(map.epoch(), 1);
            assert_eq!(map.num_shards(), n);
            assert_eq!(map.shard_of(0), 0);
            assert_eq!(map.shard_of(u64::MAX), n - 1);
            // Every shard owns exactly one range and the widths tile the space.
            let total: u128 = (0..n)
                .flat_map(|s| map.ranges_of(s))
                .map(|r| r.width())
                .sum();
            assert_eq!(total, 1u128 << 64);
        }
    }

    #[test]
    fn shard_of_agrees_with_ranges_of() {
        let map = ShardMap::uniform(5);
        for s in 0..5 {
            for r in map.ranges_of(s) {
                assert_eq!(map.shard_of(r.start), s);
                assert_eq!(map.shard_of(r.end), s);
            }
        }
    }

    #[test]
    fn split_moves_upper_half_to_new_shard() {
        let map = ShardMap::uniform(2);
        let plan = map.plan(ReshardOp::Split { source: 0 }).unwrap();
        assert_eq!(plan.source, 0);
        assert_eq!(plan.target, 2);
        assert_eq!(plan.new_map.epoch(), 2);
        assert_eq!(plan.new_map.num_shards(), 3);
        assert_eq!(plan.moved.len(), 1);
        let moved = plan.moved[0];
        // Moved points now belong to the target; untouched points keep owners.
        assert_eq!(plan.new_map.shard_of(moved.start), 2);
        assert_eq!(plan.new_map.shard_of(moved.end), 2);
        assert_eq!(plan.new_map.shard_of(moved.start - 1), 0);
        assert_eq!(plan.new_map.shard_of(u64::MAX), 1);
        // The old map is untouched until cutover.
        assert_eq!(map.epoch(), 1);
    }

    #[test]
    fn repeated_splits_stay_valid_and_tile() {
        let mut map = ShardMap::uniform(1);
        for i in 0..20 {
            let plan = map
                .plan(ReshardOp::Split {
                    source: i % map.num_shards(),
                })
                .unwrap();
            map = plan.new_map;
            map.validate().unwrap();
        }
        assert_eq!(map.num_shards(), 21);
        assert_eq!(map.epoch(), 21);
        let total: u128 = (0..map.num_shards())
            .flat_map(|s| map.ranges_of(s))
            .map(|r| r.width())
            .sum();
        assert_eq!(total, 1u128 << 64);
    }

    #[test]
    fn merge_empties_source_and_coalesces() {
        let map = ShardMap::uniform(3);
        let plan = map
            .plan(ReshardOp::Merge {
                source: 1,
                target: 0,
            })
            .unwrap();
        assert!(plan.new_map.ranges_of(1).is_empty());
        assert_eq!(plan.new_map.num_shards(), 3);
        // Shard 0 and old shard 1 were adjacent: they coalesce into one range.
        assert_eq!(plan.new_map.ranges_of(0).len(), 1);
        // A later split of the emptied shard is rejected.
        let err = plan
            .new_map
            .plan(ReshardOp::Split { source: 1 })
            .unwrap_err();
        assert_eq!(err, ReshardError::EmptySource(1));
    }

    #[test]
    fn plan_rejects_bad_shards() {
        let map = ShardMap::uniform(2);
        assert_eq!(
            map.plan(ReshardOp::Split { source: 7 }).unwrap_err(),
            ReshardError::UnknownShard(7)
        );
        assert_eq!(
            map.plan(ReshardOp::Merge {
                source: 0,
                target: 0
            })
            .unwrap_err(),
            ReshardError::SameShard(0)
        );
        assert_eq!(
            map.plan(ReshardOp::Merge {
                source: 0,
                target: 9
            })
            .unwrap_err(),
            ReshardError::UnknownShard(9)
        );
    }

    #[test]
    fn key_point_spreads_sequential_ids() {
        let map = ShardMap::uniform(4);
        let mut per_shard = [0usize; 4];
        for id in 0..4000u64 {
            per_shard[map.shard_of(key_point(id))] += 1;
        }
        for &count in &per_shard {
            assert!(count > 700, "sequential ids clumped: {per_shard:?}");
        }
    }

    #[test]
    fn validate_rejects_malformed_maps() {
        let mut map = ShardMap::uniform(2);
        map.ranges[0].start = 5;
        assert!(map.validate().is_err());

        let mut map = ShardMap::uniform(2);
        map.ranges[1].shard = 9;
        assert!(map.validate().is_err());

        let mut map = ShardMap::uniform(2);
        map.ranges[1].start = 0;
        assert!(map.validate().is_err());

        let mut map = ShardMap::uniform(2);
        map.ranges.clear();
        assert!(map.validate().is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let plan = ShardMap::uniform(3)
            .plan(ReshardOp::Split { source: 2 })
            .unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        let back: ReshardPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);

        let status = MigrationStatus::idle(4);
        let json = serde_json::to_string(&status).unwrap();
        let back: MigrationStatus = serde_json::from_str(&json).unwrap();
        assert_eq!(back, status);
    }
}

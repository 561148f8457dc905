//! One blocking table: a hash directory whose slot holds the bucket's first
//! id inline, and one arena per table for the ids after the first.
//!
//! Nearly every bucket of a blocking table holds one id (Borthwick et al.:
//! almost all blocks are tiny, the rare oversize one needs a policy). A
//! `HashMap<u128, Vec<u64>>` pays for that id with a 48-byte slot plus a
//! 32-byte heap block, because a `Vec`'s first `push` reserves four ids.
//! Here `(Key, Slot)` is 32 bytes and a singleton bucket touches no second
//! cache line on probe and no allocator on insert.
//!
//! Ids after the first sit in [`Arena`], a single `Vec<u64>`, in regions of
//! a power-of-two number of words. A region's capacity is not stored: it is
//! `len.next_power_of_two()` of the slot's `len`, so a region is full exactly
//! when `len` is a power of two. A full region moves to the next size class
//! and the old one goes on that class's free list, which later growth takes
//! from before the arena is extended. The free lists are threaded through
//! the free regions themselves (word 0 holds the next free offset), so they
//! cost one `u32` head per class that has ever been freed.
//!
//! Free regions never merge, and a shrinking bucket splits its region into
//! smaller ones, so buckets that grow and shrink in turn — a sliding
//! window's plan, whose ids leave one at a time through [`Table::evict`] —
//! would extend the arena without bound. So `evict` packs the live regions
//! to the front of the arena whenever it has grown by more than the
//! directory's capacity past twice what the last pack left: a pass over
//! the directory amortised over the words added since the last one, and an
//! arena bounded by what the table holds and has held. The other mutations
//! never pack.
//!
//! Ids stream out in insertion order — the slot's `first`, then the region
//! front to back — which is the order a `Vec<u64>` bucket gave.

use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};

use serde::{de, Deserialize, Deserializer, Serialize, Serializer};

use crate::hash::{hash_heap_bytes, WordMap};

/// A blocking key as two words: 8-aligned, so `(Key, Slot)` packs into 32
/// bytes where `(u128, _)` would round up to 48.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key([u64; 2]);

impl From<u128> for Key {
    #[inline]
    fn from(key: u128) -> Self {
        Key([key as u64, (key >> 64) as u64])
    }
}

impl From<Key> for u128 {
    #[inline]
    fn from(key: Key) -> u128 {
        u128::from(key.0[0]) | u128::from(key.0[1]) << 64
    }
}

impl Hash for Key {
    /// Exactly what `u128: Hash` feeds the hasher, so the directory spreads
    /// keys as the `u128`-keyed map did.
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u128(u128::from(*self));
    }
}

/// One bucket: `first` inline, `len` further ids at `arena[off..off + len]`.
///
/// **Limit.** `off` and `len` are `u32`, so one table's arena holds at most
/// [`ARENA_LIMIT`] = 2³² − 1 words: ~4 × 10⁹ ids beyond each bucket's first,
/// 32 GiB, for one table of one shard. [`Table::push`] refuses the id that
/// would pass it (the stores count that refusal in `StoreStats::dropped`,
/// like a `CapMode::Drop` insert); nothing wraps and nothing panics.
#[derive(Debug, Clone, Copy)]
struct Slot {
    first: u64,
    off: u32,
    len: u32,
}

/// Most words one table's arena may hold; also keeps every region offset
/// below [`NO_REGION`].
const ARENA_LIMIT: usize = u32::MAX as usize;

/// Free-list terminator.
const NO_REGION: u32 = u32::MAX;

/// Size class of a region holding `len ≥ 1` ids: capacity `1 << class`.
#[inline]
fn class_of(len: usize) -> u32 {
    debug_assert!(len > 0);
    len.next_power_of_two().trailing_zeros()
}

/// The overflow ids of one table. See the module documentation.
#[derive(Debug, Clone)]
struct Arena {
    words: Vec<u64>,
    /// `free[class]`: offset of the first free region of `1 << class` words,
    /// whose word 0 holds the offset of the next, [`NO_REGION`] at the end.
    free: Vec<u32>,
    /// `limit` and `packed` are at most [`ARENA_LIMIT`], so `u32`: they share
    /// a word, and a [`Table`] stays 13 words wide. An insert walks L tables
    /// per record; with one more word `batch_rule` (L = 244) indexed ~4 %
    /// slower over six runs.
    limit: u32,
    /// Words the last pack left ([`Table::evict`]).
    packed: u32,
}

impl Arena {
    fn new(limit: usize) -> Self {
        Self {
            words: Vec::new(),
            free: Vec::new(),
            limit: limit.min(ARENA_LIMIT) as u32,
            packed: 0,
        }
    }

    /// A region of `1 << class` words: the class's most recently freed one,
    /// else fresh words at the end. `None` at the arena's limit.
    fn alloc(&mut self, class: u32) -> Option<u32> {
        if let Some(head) = self.free.get_mut(class as usize) {
            if *head != NO_REGION {
                let off = *head;
                *head = self.words[off as usize] as u32;
                return Some(off);
            }
        }
        let off = self.words.len();
        let end = 1usize
            .checked_shl(class)
            .and_then(|cap| off.checked_add(cap))
            .filter(|&end| end <= self.limit as usize)?;
        self.words.resize(end, 0);
        Some(off as u32)
    }

    fn release(&mut self, off: u32, class: u32) {
        let class = class as usize;
        if self.free.len() <= class {
            self.free.resize(class + 1, NO_REGION);
        }
        self.words[off as usize] = u64::from(self.free[class]);
        self.free[class] = off;
    }

    fn release_bucket(&mut self, slot: Slot) {
        if slot.len > 0 {
            self.release(slot.off, class_of(slot.len as usize));
        }
    }

    /// Appends `id` to `slot`'s region, moving a full region up one class.
    /// `false`, with nothing changed, at the arena's limit.
    fn push(&mut self, slot: &mut Slot, id: u64) -> bool {
        let len = slot.len as usize;
        if len == 0 {
            let Some(off) = self.alloc(0) else {
                return false;
            };
            slot.off = off;
        } else if len.is_power_of_two() {
            let class = len.trailing_zeros();
            let Some(new) = self.alloc(class + 1) else {
                return false;
            };
            let old = slot.off as usize;
            self.words.copy_within(old..old + len, new as usize);
            self.release(slot.off, class);
            slot.off = new;
        }
        self.words[slot.off as usize + len] = id;
        slot.len += 1;
        true
    }

    /// Keeps the ids `keep` accepts, in order, compacting the region in
    /// place and freeing the tail it no longer needs. `false` when none is
    /// left (the region is then free and the slot must leave the directory).
    fn retain(&mut self, slot: &mut Slot, keep: &mut dyn FnMut(u64) -> bool) -> bool {
        let (off, len) = (slot.off as usize, slot.len as usize);
        let mut has_first = keep(slot.first);
        let mut kept = 0usize;
        for r in off..off + len {
            let id = self.words[r];
            if !keep(id) {
                continue;
            }
            if has_first {
                self.words[off + kept] = id;
                kept += 1;
            } else {
                slot.first = id;
                has_first = true;
            }
        }
        if kept < len {
            let was = class_of(len);
            if kept == 0 {
                self.release(slot.off, was);
            } else {
                // [off, off + 2^was) keeps its first 2^now words; the rest
                // splits into one region of each class in between.
                for class in class_of(kept)..was {
                    self.release(slot.off + (1u32 << class), class);
                }
            }
            slot.len = kept as u32;
        }
        has_first
    }

    fn heap_bytes(&self) -> usize {
        self.words.capacity() * 8 + self.free.capacity() * 4
    }
}

/// The ids of one bucket, in insertion order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bucket<'a> {
    first: u64,
    rest: &'a [u64],
}

impl<'a> Bucket<'a> {
    /// Ids in the bucket (never 0: an emptied bucket leaves its table).
    pub(crate) fn len(&self) -> usize {
        1 + self.rest.len()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = u64> + 'a {
        std::iter::once(self.first).chain(self.rest.iter().copied())
    }

    /// Appends every id to `out`, growing it at most once — as one
    /// `extend_from_slice` of the whole bucket would.
    #[inline]
    pub(crate) fn extend_into(&self, out: &mut Vec<u64>) {
        out.reserve(self.len());
        out.push(self.first);
        out.extend_from_slice(self.rest);
    }
}

/// Heap bytes of a store's `L` tables.
pub(crate) fn tables_heap_bytes(tables: &[Table]) -> u64 {
    (std::mem::size_of_val(tables) + tables.iter().map(Table::heap_bytes).sum::<usize>()) as u64
}

/// One blocking table. See the module documentation.
#[derive(Debug, Clone)]
pub(crate) struct Table {
    dir: WordMap<Key, Slot>,
    arena: Arena,
}

impl Default for Table {
    fn default() -> Self {
        Self {
            dir: WordMap::default(),
            arena: Arena::new(ARENA_LIMIT),
        }
    }
}

impl Table {
    /// A table whose arena stops at `limit` words, so that a test reaches
    /// the refusal without 32 GiB.
    #[cfg(test)]
    pub(crate) fn with_arena_limit(limit: usize) -> Self {
        Self {
            dir: WordMap::default(),
            arena: Arena::new(limit),
        }
    }

    /// Non-empty buckets.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.dir.len()
    }

    fn bucket(&self, slot: &Slot) -> Bucket<'_> {
        let off = slot.off as usize;
        Bucket {
            first: slot.first,
            rest: &self.arena.words[off..off + slot.len as usize],
        }
    }

    #[inline]
    pub(crate) fn get(&self, key: u128) -> Option<Bucket<'_>> {
        self.dir.get(&Key::from(key)).map(|slot| self.bucket(slot))
    }

    /// Every `(key, bucket)`, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u128, Bucket<'_>)> {
        self.dir
            .iter()
            .map(|(key, slot)| (u128::from(*key), self.bucket(slot)))
    }

    /// Appends `id` to `key`'s bucket. `false`, with nothing changed, when
    /// the arena is at its limit (see [`Slot`]).
    #[inline]
    pub(crate) fn push(&mut self, key: u128, id: u64) -> bool {
        match self.dir.entry(Key::from(key)) {
            Entry::Vacant(e) => {
                e.insert(Slot {
                    first: id,
                    off: 0,
                    len: 0,
                });
                true
            }
            Entry::Occupied(mut e) => self.arena.push(e.get_mut(), id),
        }
    }

    /// Keeps the ids of `key`'s bucket that `keep` accepts; an emptied
    /// bucket leaves the table.
    pub(crate) fn retain(&mut self, key: u128, mut keep: impl FnMut(u64) -> bool) {
        if let Entry::Occupied(mut e) = self.dir.entry(Key::from(key)) {
            if !self.arena.retain(e.get_mut(), &mut keep) {
                e.remove();
            }
        }
    }

    /// Takes `id` out of `key`'s bucket, then packs the arena once it has
    /// outgrown the last pack (see the module documentation).
    pub(crate) fn evict(&mut self, key: u128, id: u64) {
        self.retain(key, |x| x != id);
        if self.arena.words.len() > 2 * self.arena.packed as usize + self.dir.capacity() {
            self.pack();
        }
    }

    /// [`Table::retain`] over every bucket.
    pub(crate) fn retain_all(&mut self, mut keep: impl FnMut(u64) -> bool) {
        let arena = &mut self.arena;
        self.dir.retain(|_, slot| arena.retain(slot, &mut keep));
    }

    pub(crate) fn remove(&mut self, key: u128) {
        if let Some(slot) = self.dir.remove(&Key::from(key)) {
            self.arena.release_bucket(slot);
        }
    }

    /// Moves the live regions to the front of the arena, in offset order,
    /// and empties the free lists. The arena keeps its capacity.
    fn pack(&mut self) {
        let arena = &mut self.arena;
        let mut regions = Vec::new();
        for slot in self.dir.values_mut() {
            if slot.len == 0 {
                // Sliced as `words[off..off]`: keep `off` inside the arena.
                slot.off = 0;
            } else {
                regions.push(slot);
            }
        }
        regions.sort_unstable_by_key(|s| s.off);
        let mut end = 0;
        for slot in regions {
            // Every region before this one fits below its offset.
            let (off, len) = (slot.off as usize, slot.len as usize);
            arena.words.copy_within(off..off + len, end);
            slot.off = end as u32;
            end += 1 << class_of(len);
        }
        arena.words.truncate(end);
        arena.free.clear();
        arena.packed = end as u32; // ≤ the arena, which the limit bounds
    }

    /// Makes `ids` the whole of `key`'s bucket (none: the bucket leaves).
    /// `false`, with nothing changed, when the arena cannot hold them.
    pub(crate) fn replace(&mut self, key: u128, ids: &[u64]) -> bool {
        let Some((&first, rest)) = ids.split_first() else {
            self.remove(key);
            return true;
        };
        let mut slot = Slot {
            first,
            off: 0,
            len: 0,
        };
        if !rest.is_empty() {
            let Some(off) = self.arena.alloc(class_of(rest.len())) else {
                return false;
            };
            let at = off as usize;
            self.arena.words[at..at + rest.len()].copy_from_slice(rest);
            slot.off = off;
            slot.len = rest.len() as u32; // ≤ the region, which the limit bounds
        }
        if let Some(old) = self.dir.insert(Key::from(key), slot) {
            self.arena.release_bucket(old);
        }
        true
    }

    /// Drops every bucket; capacity stays.
    pub(crate) fn clear(&mut self) {
        self.dir.clear();
        self.arena.words.clear();
        self.arena.free.clear();
        self.arena.packed = 0;
    }

    /// Heap bytes held: directory, arena and free-list heads, from
    /// capacities.
    pub(crate) fn heap_bytes(&self) -> usize {
        hash_heap_bytes(self.dir.capacity(), std::mem::size_of::<(Key, Slot)>())
            + self.arena.heap_bytes()
    }
}

// The serialisation shim: the document is the one the `WordMap<u128, Vec<u64>>`
// tables wrote (decimal keys sorted as strings, each bucket's ids in order),
// so it goes through that type.

impl Serialize for Table {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let buckets: WordMap<u128, Vec<u64>> = self
            .iter()
            .map(|(key, bucket)| (key, bucket.iter().collect()))
            .collect();
        buckets.serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for Table {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let buckets = WordMap::<u128, Vec<u64>>::deserialize(deserializer)?;
        let mut table = Table::default();
        table.dir.reserve(buckets.len());
        for (key, ids) in buckets {
            if !table.replace(key, &ids) {
                return Err(de::Error::custom(format!(
                    "bucket {key} exceeds the table's arena"
                )));
            }
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::collections::HashMap;

    #[test]
    fn a_directory_entry_is_four_words() {
        assert_eq!(std::mem::size_of::<(Key, Slot)>(), 32);
        // And a table thirteen (see `Arena::limit`).
        assert_eq!(std::mem::size_of::<Table>(), 104);
    }

    #[test]
    fn key_round_trips_and_hashes_like_u128() {
        use std::hash::BuildHasher;
        let state = crate::hash::WordState::default();
        for key in [
            0u128,
            1,
            1 << 64,
            u128::MAX,
            0x1234_5678_9abc_def0 << 40 | 7,
        ] {
            assert_eq!(u128::from(Key::from(key)), key);
            assert_eq!(state.hash_one(Key::from(key)), state.hash_one(key));
        }
    }

    fn contents(table: &Table) -> HashMap<u128, Vec<u64>> {
        table.iter().map(|(k, b)| (k, b.iter().collect())).collect()
    }

    /// Live regions and free regions are disjoint and together cover the
    /// arena exactly; no region is on a free list twice.
    fn check_arena(table: &Table) {
        let mut owner = vec![false; table.arena.words.len()];
        let mut claim = |off: usize, cap: usize, what: &str| {
            for word in &mut owner[off..off + cap] {
                assert!(!*word, "{what} region at {off} overlaps another");
                *word = true;
            }
        };
        for slot in table.dir.values() {
            if slot.len > 0 {
                claim(slot.off as usize, 1 << class_of(slot.len as usize), "live");
            }
        }
        for (class, &head) in table.arena.free.iter().enumerate() {
            let mut off = head;
            while off != NO_REGION {
                // A region listed twice would be claimed twice.
                claim(off as usize, 1 << class, "free");
                off = table.arena.words[off as usize] as u32;
            }
        }
        assert!(owner.iter().all(|&w| w), "arena words owned by no region");
    }

    #[test]
    fn model_push_retain_replace_clear() {
        let mut packs = 0;
        for seed in [1u64, 7, 42, 99, 2024] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut table = Table::default();
            let mut model: HashMap<u128, Vec<u64>> = HashMap::new();
            for step in 0..4000u64 {
                // Few keys, so buckets grow through several size classes.
                let key = u128::from(rng.random_range(0..24u64)) << 60;
                match rng.random_range(0..100u32) {
                    0..=69 => {
                        let id = rng.random_range(0..500u64);
                        assert!(table.push(key, id));
                        model.entry(key).or_default().push(id);
                    }
                    70..=77 => {
                        let m = rng.random_range(2..6u64);
                        table.retain(key, |id| id % m != 0);
                        if let Some(b) = model.get_mut(&key) {
                            b.retain(|id| id % m != 0);
                            if b.is_empty() {
                                model.remove(&key);
                            }
                        }
                    }
                    78..=84 => {
                        // An id the bucket holds, when it has one.
                        let id = model.get(&key).map_or(0, |b| b[b.len() / 2]);
                        let before = table.arena.packed;
                        table.evict(key, id);
                        packs += u32::from(table.arena.packed != before);
                        if let Some(b) = model.get_mut(&key) {
                            b.retain(|&x| x != id);
                            if b.is_empty() {
                                model.remove(&key);
                            }
                        }
                    }
                    85..=92 => {
                        let n = rng.random_range(0..20usize);
                        let ids: Vec<u64> = (0..n).map(|_| rng.random_range(0..500u64)).collect();
                        assert!(table.replace(key, &ids));
                        if ids.is_empty() {
                            model.remove(&key);
                        } else {
                            model.insert(key, ids);
                        }
                    }
                    93..=96 => {
                        let m = rng.random_range(2..4u64);
                        table.retain_all(|id| id % m != 1);
                        model.values_mut().for_each(|b| b.retain(|id| id % m != 1));
                        model.retain(|_, b| !b.is_empty());
                    }
                    97..=98 => {
                        table.remove(key);
                        model.remove(&key);
                    }
                    _ => {
                        table.clear();
                        model.clear();
                    }
                }
                if step % 16 == 0 {
                    assert_eq!(contents(&table), model, "seed {seed} step {step}");
                    assert_eq!(table.len(), model.len());
                    check_arena(&table);
                }
            }
            assert_eq!(contents(&table), model);
            check_arena(&table);
        }
        assert!(packs > 10, "evictions packed the arena {packs} times");
    }

    #[test]
    fn freed_regions_are_reused_before_the_arena_grows() {
        let mut table = Table::default();
        for id in 0..5 {
            table.push(1, id); // first + a region of 4
        }
        let grown = table.arena.words.len();
        table.remove(1);
        for id in 0..5 {
            table.push(2, id);
        }
        assert_eq!(table.arena.words.len(), grown);
        check_arena(&table);
    }

    #[test]
    fn buckets_that_grow_and_shrink_in_turn_keep_the_arena_bounded() {
        // Eight live ids over four keys, the oldest evicted at each push: a
        // bucket's region keeps splitting as it shrinks, and without
        // packing the arena grew by ~0.8 words a push.
        let mut rng = StdRng::seed_from_u64(5);
        let mut table = Table::default();
        let mut live = std::collections::VecDeque::new();
        let mut most = 0;
        for id in 0..50_000u64 {
            let key = u128::from(rng.random_range(0..4u64));
            assert!(table.push(key, id));
            live.push_back((key, id));
            if live.len() > 8 {
                let (key, old) = live.pop_front().unwrap();
                table.evict(key, old);
            }
            most = most.max(table.arena.words.len());
            if id % 1024 == 0 {
                check_arena(&table);
            }
        }
        assert!(most <= 64, "the arena reached {most} words for 8 ids");
    }

    #[test]
    fn the_arena_limit_refuses_and_changes_nothing() {
        let mut table = Table::with_arena_limit(4);
        for id in 0..3 {
            assert!(table.push(9, id)); // inline, a region of 1, a region of 2
        }
        let before = contents(&table);
        assert!(
            !table.push(9, 3),
            "a region of 4 does not fit in 4 − 3 words"
        );
        assert!(!table.replace(8, &[1, 2, 3, 4]));
        assert_eq!(contents(&table), before);
        assert!(table.push(8, 5), "a first id needs no arena");
        assert!(table.push(8, 6), "the freed region of 1 is reused");
        check_arena(&table);
    }

    #[test]
    fn serialises_as_the_map_of_lists() {
        let mut table = Table::default();
        let mut map: WordMap<u128, Vec<u64>> = WordMap::default();
        for (key, id) in [(10u128, 1u64), (2, 2), (10, 3), (7 << 70, 4), (10, 5)] {
            table.push(key, id);
            map.entry(key).or_default().push(id);
        }
        let doc = serde::to_value(&table).unwrap();
        assert_eq!(doc, serde::to_value(&map).unwrap());
        let back: Table = serde::from_value(doc.clone()).unwrap();
        assert_eq!(contents(&back), contents(&table));
        assert_eq!(serde::to_value(&back).unwrap(), doc);
        check_arena(&back);
    }
}

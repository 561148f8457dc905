//! One blocking table: a hash directory whose slot holds the bucket's first
//! value inline, and one arena per table for the values after the first.
//!
//! A value is a `u32`: the slab slot of a record (`cbv_hb::matcher::
//! RecordSlab`), not the client's `u64` id. Nearly every bucket of a blocking
//! table holds one value (Borthwick et al.: almost all blocks are tiny, the
//! rare oversize one needs a policy), so the directory entry is the table,
//! and its key is most of the entry. The paper's keys are K sampled bits —
//! 30 on the record-level setting, 20 fused per table under a conjunction —
//! so a directory starts *narrow*: `(u64, Slot)` is 16 bytes, the key, the
//! first value and a region offset. The first key that needs 65 bits or more
//! widens it, once and in place ([`Directory::wide`]), to `(Key, Slot)`
//! entries of 24 bytes (a 16-byte key); a table never narrows again. Only
//! the heap layout has a width: every key in or out of a table — the store
//! API, documents, generation files — is an exact `u128`. A singleton bucket
//! touches no second cache line on probe and no allocator on insert. A
//! singleton's offset is [`NO_REGION`]; its length is stored nowhere.
//!
//! Values after the first sit in [`Arena`], a single `Vec<u32>`, in regions
//! of a power-of-two number of words. Word 0 of a region is its header, the
//! number `n ≥ 1` of values after the first, which follow in words
//! `1..=n`. A region's capacity is not stored: it is
//! `(n + 1).next_power_of_two()`, so a region is full exactly when `n + 1` is
//! a power of two. A full region moves to the next size class and the old
//! one goes on that class's free list, which later growth takes from before
//! the arena is extended. The free lists are threaded through the free
//! regions themselves (word 0 holds the next free offset), so they cost one
//! `u32` head per class that has ever been freed.
//!
//! Free regions never merge, and a shrinking bucket splits its region into
//! smaller ones, so buckets that grow and shrink in turn — a sliding
//! window's plan, whose values leave one at a time through [`Table::evict`]
//! — would extend the arena without bound. So `evict` packs the live regions
//! to the front of the arena whenever it has grown by more than the
//! directory's capacity past twice what the last pack left: a pass over the
//! directory amortised over the words added since the last one, and an
//! arena bounded by what the table holds and has held. The other mutations
//! never pack.
//!
//! Values stream out in insertion order — the slot's `first`, then the
//! region front to back — which is the order a `Vec` bucket gave. Widening
//! moves slots, not regions, so it keeps that order and the arena as they
//! were.

use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};

use serde::{Serialize, Serializer};

use crate::hash::{hash_heap_bytes, WordMap};

/// A blocking key as two words: 8-aligned, so `(Key, Slot)` packs into 24
/// bytes where `(u128, _)` would round up to 32.
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

/// A directory's key type: `u64` (narrow) or [`Key`] (wide).
trait DirKey: Copy + Eq + Hash + Into<u128> {
    /// `key` at this width; `None` when it needs more bits.
    fn fit(key: u128) -> Option<Self>;
}

impl DirKey for u64 {
    #[inline]
    fn fit(key: u128) -> Option<Self> {
        u64::try_from(key).ok()
    }
}

impl DirKey for Key {
    #[inline]
    fn fit(key: u128) -> Option<Self> {
        Some(Key::from(key))
    }
}

/// One bucket: `first` inline; unless `off` is [`NO_REGION`], the region at
/// `arena[off..]` holds the number `n` of further values, then the values.
///
/// **Limit.** `off` is a `u32`, so one table's arena holds at most
/// [`ARENA_LIMIT`] = 2³² − 1 words: ~2 × 10⁹ values beyond each bucket's
/// first, 16 GiB, for one table of one shard. [`Table::push`] refuses the
/// value that would pass it (the stores count that refusal in
/// `StoreStats::dropped`, like a `CapMode::Drop` insert); nothing wraps and
/// nothing panics.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    first: u32,
    off: u32,
}

impl Slot {
    /// What [`Table::find`] copies out for a key the table does not hold.
    /// Its offset is no region's: a region has at least two words and ends
    /// at or before [`ARENA_LIMIT`].
    pub(crate) const ABSENT: Slot = Slot {
        first: 0,
        off: NO_REGION - 1,
    };

    fn singleton(first: u32) -> Self {
        Slot {
            first,
            off: NO_REGION,
        }
    }
}

/// Most words one table's arena may hold; also keeps every region offset
/// below [`NO_REGION`].
const ARENA_LIMIT: usize = u32::MAX as usize;

/// A singleton bucket's offset, and the free-list terminator.
const NO_REGION: u32 = u32::MAX;

/// Size class of a region of `words ≥ 2` (header included): capacity
/// `1 << class`.
#[inline]
fn class_of(words: usize) -> u32 {
    debug_assert!(words > 1);
    words.next_power_of_two().trailing_zeros()
}

/// The values after the first of one table's buckets. See the module
/// documentation.
#[derive(Debug, Clone)]
struct Arena {
    words: Vec<u32>,
    /// `free[class]`: offset of the first free region of `1 << class` words,
    /// whose word 0 holds the offset of the next, [`NO_REGION`] at the end.
    free: Vec<u32>,
    /// `limit` and `packed` are at most [`ARENA_LIMIT`], so `u32`: they share
    /// a word. An insert walks L tables per record; when one more word here
    /// made a [`Table`] 14 words wide, `batch_rule` (L = 244) indexed ~4 %
    /// slower over six runs. (The directory's width tag, a 14th word since,
    /// did not measure: see `a_directory_entry_is_two_words_narrow_three_wide`.)
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

    /// Values after the first in `slot`'s bucket.
    #[inline]
    fn rest_len(&self, slot: &Slot) -> usize {
        if slot.off == NO_REGION {
            0
        } else {
            self.words[slot.off as usize] as usize
        }
    }

    /// The values after the first in `slot`'s bucket.
    #[inline]
    fn rest(&self, slot: &Slot) -> &[u32] {
        if slot.off == NO_REGION {
            return &[];
        }
        let off = slot.off as usize;
        &self.words[off + 1..][..self.words[off] as usize]
    }

    /// A region of `1 << class` words: the class's most recently freed one,
    /// else fresh words at the end. `None` at the arena's limit.
    fn alloc(&mut self, class: u32) -> Option<u32> {
        if let Some(head) = self.free.get_mut(class as usize) {
            if *head != NO_REGION {
                let off = *head;
                *head = self.words[off as usize];
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
        self.words[off as usize] = self.free[class];
        self.free[class] = off;
    }

    fn release_bucket(&mut self, slot: Slot) {
        let n = self.rest_len(&slot);
        if n > 0 {
            self.release(slot.off, class_of(n + 1));
        }
    }

    /// Appends `value` to `slot`'s region, moving a full region up one
    /// class. `false`, with nothing changed, at the arena's limit.
    fn push(&mut self, slot: &mut Slot, value: u32) -> bool {
        let n = self.rest_len(slot);
        if n == 0 {
            let Some(off) = self.alloc(1) else {
                return false;
            };
            slot.off = off;
        } else if (n + 1).is_power_of_two() {
            let class = class_of(n + 1);
            let Some(new) = self.alloc(class + 1) else {
                return false;
            };
            let old = slot.off as usize;
            self.words.copy_within(old..old + n + 1, new as usize);
            self.release(slot.off, class);
            slot.off = new;
        }
        let off = slot.off as usize;
        self.words[off + 1 + n] = value;
        self.words[off] = (n + 1) as u32; // ≤ the region, which the limit bounds
        true
    }

    /// Keeps the values `keep` accepts, in order, compacting the region in
    /// place and freeing the tail it no longer needs. `false` when none is
    /// left (the region is then free and the slot must leave the directory).
    fn retain(&mut self, slot: &mut Slot, keep: &mut dyn FnMut(u32) -> bool) -> bool {
        let n = self.rest_len(slot);
        let off = slot.off as usize;
        let mut has_first = keep(slot.first);
        let mut kept = 0usize;
        for r in off + 1..off + 1 + n {
            let value = self.words[r];
            if !keep(value) {
                continue;
            }
            if has_first {
                self.words[off + 1 + kept] = value;
                kept += 1;
            } else {
                slot.first = value;
                has_first = true;
            }
        }
        if kept < n {
            let was = class_of(n + 1);
            if kept == 0 {
                self.release(slot.off, was);
                slot.off = NO_REGION;
            } else {
                // [off, off + 2^was) keeps its first 2^now words; the rest
                // splits into one region of each class in between.
                for class in class_of(kept + 1)..was {
                    self.release(slot.off + (1u32 << class), class);
                }
                self.words[off] = kept as u32;
            }
        }
        has_first
    }

    fn heap_bytes(&self) -> usize {
        self.words.capacity() * 4 + self.free.capacity() * 4
    }
}

/// A directory of `K` keys: the table's operations, written once for both
/// widths. A method that takes the key as a `u128` finds nothing for a key
/// wider than `K`, which this directory cannot have held.
#[derive(Debug, Clone)]
struct Dir<K>(WordMap<K, Slot>);

impl<K> Default for Dir<K> {
    fn default() -> Self {
        Dir(WordMap::default())
    }
}

impl<K: DirKey> Dir<K> {
    #[inline]
    fn slot(&self, key: u128) -> Option<&Slot> {
        self.0.get(&K::fit(key)?)
    }

    fn entries(&self) -> impl Iterator<Item = (u128, &Slot)> + '_ {
        self.0.iter().map(|(&key, slot)| (key.into(), slot))
    }

    #[inline]
    fn push(&mut self, arena: &mut Arena, key: K, value: u32) -> bool {
        match self.0.entry(key) {
            Entry::Vacant(e) => {
                e.insert(Slot::singleton(value));
                true
            }
            Entry::Occupied(mut e) => arena.push(e.get_mut(), value),
        }
    }

    fn insert(&mut self, arena: &mut Arena, key: K, slot: Slot) {
        if let Some(old) = self.0.insert(key, slot) {
            arena.release_bucket(old);
        }
    }

    fn retain(&mut self, arena: &mut Arena, key: u128, keep: &mut dyn FnMut(u32) -> bool) {
        let Some(key) = K::fit(key) else {
            return;
        };
        if let Entry::Occupied(mut e) = self.0.entry(key) {
            if !arena.retain(e.get_mut(), keep) {
                e.remove();
            }
        }
    }

    fn retain_all(&mut self, arena: &mut Arena, keep: &mut dyn FnMut(u32) -> bool) {
        self.0.retain(|_, slot| arena.retain(slot, keep));
    }

    fn remove(&mut self, arena: &mut Arena, key: u128) {
        if let Some(slot) = K::fit(key).and_then(|key| self.0.remove(&key)) {
            arena.release_bucket(slot);
        }
    }

    /// Moves the live regions to the front of `arena`, in offset order, and
    /// empties the free lists. The arena keeps its capacity.
    fn pack(&mut self, arena: &mut Arena) {
        let mut regions: Vec<&mut Slot> = self
            .0
            .values_mut()
            .filter(|slot| slot.off != NO_REGION)
            .collect();
        regions.sort_unstable_by_key(|s| s.off);
        let mut end = 0;
        for slot in regions {
            // Every region before this one fits below its offset.
            let off = slot.off as usize;
            let words = arena.words[off] as usize + 1;
            arena.words.copy_within(off..off + words, end);
            slot.off = end as u32;
            end += 1 << class_of(words);
        }
        arena.words.truncate(end);
        arena.free.clear();
        arena.packed = end as u32; // ≤ the arena, which the limit bounds
    }

    fn heap_bytes(&self) -> usize {
        hash_heap_bytes(self.0.capacity(), std::mem::size_of::<(K, Slot)>())
    }
}

impl Dir<u64> {
    /// These entries under [`Key`]s, in a map of this one's capacity; this
    /// one is left empty. Out of line: inlined into [`Table::push`], it cost
    /// `batch_covering` 9–33 % of its `index_rec_per_s` in 4 of 4 pairs.
    #[cold]
    #[inline(never)]
    fn widened(&mut self) -> Dir<Key> {
        let mut wide = WordMap::with_capacity_and_hasher(self.0.capacity(), *self.0.hasher());
        wide.extend(
            self.0
                .drain()
                .map(|(key, slot)| (Key::from(u128::from(key)), slot)),
        );
        Dir(wide)
    }
}

/// A table's directory: narrow while every key it has held fits in 64 bits,
/// wide from the first that does not. See the module documentation.
#[derive(Debug, Clone)]
enum Directory {
    Narrow(Dir<u64>),
    Wide(Dir<Key>),
}

/// `$body` with `$dir` bound to the directory's [`Dir`], whichever its
/// width.
macro_rules! at_width {
    ($directory:expr, $dir:ident => $body:expr) => {
        match $directory {
            Directory::Narrow($dir) => $body,
            Directory::Wide($dir) => $body,
        }
    };
}

impl Directory {
    /// The directory at the wide width, widening it first if it is narrow.
    #[inline]
    fn wide(&mut self) -> &mut Dir<Key> {
        if let Directory::Narrow(narrow) = self {
            *self = Directory::Wide(narrow.widened());
        }
        match self {
            Directory::Wide(wide) => wide,
            // Cannot fire: a narrow directory was replaced by a wide one
            // just above.
            Directory::Narrow(_) => unreachable!("widened above"),
        }
    }

    fn capacity(&self) -> usize {
        at_width!(self, dir => dir.0.capacity())
    }
}

/// The values of one bucket, in insertion order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bucket<'a> {
    first: u32,
    rest: &'a [u32],
}

impl<'a> Bucket<'a> {
    /// Values in the bucket (never 0: an emptied bucket leaves its table).
    pub(crate) fn len(&self) -> usize {
        1 + self.rest.len()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = u64> + 'a {
        std::iter::once(self.first)
            .chain(self.rest.iter().copied())
            .map(u64::from)
    }

    /// Appends every value to `out`, growing it at most once.
    #[inline]
    pub(crate) fn extend_into(&self, out: &mut Vec<u64>) {
        out.reserve(self.len());
        out.push(u64::from(self.first));
        out.extend(self.rest.iter().map(|&v| u64::from(v)));
    }
}

/// The table value a store keeps for a `u64` id: `None` — refused, counted
/// in `StoreStats::dropped` — for one of 2³² or more.
#[inline]
pub(crate) fn value_of(id: u64) -> Option<u32> {
    u32::try_from(id).ok()
}

/// One blocking table. See the module documentation.
#[derive(Debug, Clone)]
pub(crate) struct Table {
    dir: Directory,
    arena: Arena,
}

impl Default for Table {
    fn default() -> Self {
        Self {
            dir: Directory::Narrow(Dir::default()),
            arena: Arena::new(ARENA_LIMIT),
        }
    }
}

impl Table {
    /// A table whose arena stops at `limit` words, so that a test reaches
    /// the refusal without 16 GiB.
    #[cfg(test)]
    pub(crate) fn with_arena_limit(limit: usize) -> Self {
        Self {
            arena: Arena::new(limit),
            ..Self::default()
        }
    }

    /// Non-empty buckets.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        at_width!(&self.dir, dir => dir.0.len())
    }

    fn bucket(&self, slot: &Slot) -> Bucket<'_> {
        Bucket {
            first: slot.first,
            rest: self.arena.rest(slot),
        }
    }

    #[inline]
    pub(crate) fn get(&self, key: u128) -> Option<Bucket<'_>> {
        let slot = at_width!(&self.dir, dir => dir.slot(key))?;
        Some(self.bucket(slot))
    }

    /// A copy of `key`'s directory slot, [`Slot::ABSENT`] if the table does
    /// not hold it, with the cache asked for the bucket's region, if it has
    /// one: a probe's first pass, which [`Table::found`] reads back.
    #[inline]
    pub(crate) fn find(&self, key: u128) -> Slot {
        let Some(&slot) = at_width!(&self.dir, dir => dir.slot(key)) else {
            return Slot::ABSENT;
        };
        if slot.off != NO_REGION {
            crate::prefetch(self.arena.words.as_ptr().wrapping_add(slot.off as usize));
        }
        slot
    }

    /// The bucket of a slot [`Table::find`] copied out, unless it was
    /// absent. Only valid while the table is unchanged since.
    #[inline]
    pub(crate) fn found(&self, slot: Slot) -> Option<Bucket<'_>> {
        (slot.off != Slot::ABSENT.off).then(|| self.bucket(&slot))
    }

    /// Every `(key, bucket)`, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u128, Bucket<'_>)> {
        // One side is empty: an iterator over either width, unboxed.
        let (narrow, wide) = match &self.dir {
            Directory::Narrow(dir) => (Some(dir), None),
            Directory::Wide(dir) => (None, Some(dir)),
        };
        (narrow.into_iter().flat_map(Dir::entries))
            .chain(wide.into_iter().flat_map(Dir::entries))
            .map(|(key, slot)| (key, self.bucket(slot)))
    }

    /// Appends `value` to `key`'s bucket. `false`, with nothing changed,
    /// when the arena is at its limit (see [`Slot`]).
    #[inline]
    pub(crate) fn push(&mut self, key: u128, value: u32) -> bool {
        match (&mut self.dir, u64::fit(key)) {
            (Directory::Narrow(dir), Some(key)) => dir.push(&mut self.arena, key, value),
            (dir, _) => dir.wide().push(&mut self.arena, Key::from(key), value),
        }
    }

    /// Keeps the values of `key`'s bucket that `keep` accepts; an emptied
    /// bucket leaves the table.
    pub(crate) fn retain(&mut self, key: u128, mut keep: impl FnMut(u32) -> bool) {
        at_width!(&mut self.dir, dir => dir.retain(&mut self.arena, key, &mut keep));
    }

    /// Takes `value` out of `key`'s bucket, then packs the arena once it
    /// has outgrown the last pack (see the module documentation).
    pub(crate) fn evict(&mut self, key: u128, value: u32) {
        self.retain(key, |x| x != value);
        if self.arena.words.len() > 2 * self.arena.packed as usize + self.dir.capacity() {
            at_width!(&mut self.dir, dir => dir.pack(&mut self.arena));
        }
    }

    /// [`Table::retain`] over every bucket.
    pub(crate) fn retain_all(&mut self, mut keep: impl FnMut(u32) -> bool) {
        at_width!(&mut self.dir, dir => dir.retain_all(&mut self.arena, &mut keep));
    }

    pub(crate) fn remove(&mut self, key: u128) {
        at_width!(&mut self.dir, dir => dir.remove(&mut self.arena, key));
    }

    /// Makes `values` the whole of `key`'s bucket (none: the bucket
    /// leaves). `false`, with nothing changed, when the arena cannot hold
    /// them.
    pub(crate) fn replace(&mut self, key: u128, values: &[u32]) -> bool {
        let Some((&first, rest)) = values.split_first() else {
            self.remove(key);
            return true;
        };
        let mut slot = Slot::singleton(first);
        if !rest.is_empty() {
            let Some(off) = self.arena.alloc(class_of(rest.len() + 1)) else {
                return false;
            };
            let at = off as usize;
            self.arena.words[at] = rest.len() as u32; // ≤ the region, which the limit bounds
            self.arena.words[at + 1..][..rest.len()].copy_from_slice(rest);
            slot.off = off;
        }
        match (&mut self.dir, u64::fit(key)) {
            (Directory::Narrow(dir), Some(key)) => dir.insert(&mut self.arena, key, slot),
            (dir, _) => dir.wide().insert(&mut self.arena, Key::from(key), slot),
        }
        true
    }

    /// Drops every bucket; capacity, and the directory's width, stay.
    pub(crate) fn clear(&mut self) {
        at_width!(&mut self.dir, dir => dir.0.clear());
        self.arena.words.clear();
        self.arena.free.clear();
        self.arena.packed = 0;
    }

    /// Heap bytes held: directory, arena and free-list heads, from
    /// capacities.
    pub(crate) fn heap_bytes(&self) -> usize {
        at_width!(&self.dir, dir => dir.heap_bytes()) + self.arena.heap_bytes()
    }

    /// The table a document's `{key: [values]}` buckets describe. A value of
    /// 2³² or more is left out and counted in `dropped`, as an insert of it
    /// would be.
    ///
    /// # Errors
    /// A bucket the arena cannot hold.
    pub(crate) fn from_doc(doc: TableDoc, dropped: &mut u64) -> Result<Self, String> {
        let mut table = Table::default();
        at_width!(&mut table.dir, dir => dir.0.reserve(doc.len()));
        let mut values = Vec::new();
        for (key, ids) in doc {
            values.clear();
            values.extend(ids.iter().filter_map(|&id| value_of(id)));
            *dropped += (ids.len() - values.len()) as u64;
            if !table.replace(key, &values) {
                return Err(format!("bucket {key} exceeds the table's arena"));
            }
        }
        Ok(table)
    }
}

/// A table as its document holds it: the one the `WordMap<u128, Vec<u64>>`
/// tables wrote (decimal keys sorted as strings, each bucket's values in
/// order).
pub(crate) type TableDoc = WordMap<u128, Vec<u64>>;

impl Serialize for Table {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let buckets: TableDoc = self
            .iter()
            .map(|(key, bucket)| (key, bucket.iter().collect()))
            .collect();
        buckets.serialize(serializer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::collections::HashMap;

    #[test]
    fn a_directory_entry_is_two_words_narrow_three_wide() {
        assert_eq!(std::mem::size_of::<(u64, Slot)>(), 16);
        assert_eq!(std::mem::size_of::<(Key, Slot)>(), 24);
        // And a table fourteen words: the thirteen of `Arena::limit` and the
        // directory's width tag. The tag's word did not measure: over ten
        // alternating pairs per workload every timing stayed inside its
        // bound, and `index_rec_per_s` rose at the medians on all four.
        assert_eq!(std::mem::size_of::<Table>(), 112);
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

    fn is_wide(table: &Table) -> bool {
        matches!(table.dir, Directory::Wide(_))
    }

    /// A singleton bucket has no region and a longer one a region whose
    /// header is its length after the first; live regions and free regions
    /// are disjoint and together cover the arena exactly; no region is on a
    /// free list twice.
    fn check_arena(table: &Table) {
        let mut owner = vec![false; table.arena.words.len()];
        let mut claim = |off: usize, cap: usize, what: &str| {
            for word in &mut owner[off..off + cap] {
                assert!(!*word, "{what} region at {off} overlaps another");
                *word = true;
            }
        };
        let slots: Vec<Slot> = at_width!(&table.dir, dir => dir.0.values().copied().collect());
        for slot in slots {
            if slot.off != NO_REGION {
                let n = table.arena.words[slot.off as usize] as usize;
                assert!(n > 0, "a region holds at least one value");
                claim(slot.off as usize, 1 << class_of(n + 1), "live");
            }
        }
        for (class, &head) in table.arena.free.iter().enumerate() {
            let mut off = head;
            while off != NO_REGION {
                // A region listed twice would be claimed twice.
                claim(off as usize, 1 << class, "free");
                off = table.arena.words[off as usize];
            }
        }
        assert!(owner.iter().all(|&w| w), "arena words owned by no region");
    }

    /// Every operation against a map of `Vec`s, the first half of each run
    /// on keys below 2⁶⁴ and the second on keys of either width: the
    /// directory widens exactly once, at the first push or non-empty
    /// replace of a wide key, and holds every bucket in order across it.
    #[test]
    fn model_push_retain_replace_clear() {
        let mut packs = 0;
        for seed in [1u64, 7, 42, 99, 2024] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut table = Table::default();
            let mut model: HashMap<u128, Vec<u64>> = HashMap::new();
            let mut widened = 0;
            for step in 0..4000u64 {
                // Few keys, so buckets grow through several size classes;
                // 16..24 << 60 needs 65 bits or more.
                let keys: u64 = if step < 2000 { 16 } else { 24 };
                let key = u128::from(rng.random_range(0..keys)) << 60;
                let was_wide = is_wide(&table);
                let mut adds = false;
                match rng.random_range(0..100u32) {
                    0..=69 => {
                        let v = rng.random_range(0..500u32);
                        assert!(table.push(key, v));
                        model.entry(key).or_default().push(u64::from(v));
                        adds = true;
                    }
                    70..=77 => {
                        let m = rng.random_range(2..6u32);
                        table.retain(key, |v| v % m != 0);
                        if let Some(b) = model.get_mut(&key) {
                            b.retain(|&v| v % u64::from(m) != 0);
                            if b.is_empty() {
                                model.remove(&key);
                            }
                        }
                    }
                    78..=84 => {
                        // A value the bucket holds, when it has one.
                        let v = model.get(&key).map_or(0, |b| b[b.len() / 2]);
                        let before = table.arena.packed;
                        table.evict(key, v as u32);
                        packs += u32::from(table.arena.packed != before);
                        if let Some(b) = model.get_mut(&key) {
                            b.retain(|&x| x != v);
                            if b.is_empty() {
                                model.remove(&key);
                            }
                        }
                    }
                    85..=92 => {
                        let n = rng.random_range(0..20usize);
                        let values: Vec<u32> =
                            (0..n).map(|_| rng.random_range(0..500u32)).collect();
                        assert!(table.replace(key, &values));
                        if values.is_empty() {
                            model.remove(&key);
                        } else {
                            model.insert(key, values.iter().map(|&v| u64::from(v)).collect());
                            adds = true;
                        }
                    }
                    93..=96 => {
                        let m = rng.random_range(2..4u32);
                        table.retain_all(|v| v % m != 1);
                        let m = u64::from(m);
                        model.values_mut().for_each(|b| b.retain(|v| v % m != 1));
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
                let widens = adds && key >> 64 != 0;
                assert_eq!(
                    is_wide(&table),
                    was_wide || widens,
                    "seed {seed} step {step}"
                );
                if is_wide(&table) != was_wide {
                    widened += 1;
                    assert!(step >= 2000);
                }
                if step % 16 == 0 || is_wide(&table) != was_wide {
                    assert_eq!(contents(&table), model, "seed {seed} step {step}");
                    assert_eq!(table.len(), model.len());
                    for key in (0..24u64).map(|k| u128::from(k) << 60) {
                        let bucket = table.get(key).map(|b| b.iter().collect::<Vec<_>>());
                        assert_eq!(bucket.as_ref(), model.get(&key), "seed {seed} key {key}");
                    }
                    check_arena(&table);
                }
            }
            assert_eq!(widened, 1, "seed {seed}");
            assert_eq!(contents(&table), model);
            check_arena(&table);
        }
        assert!(packs > 10, "evictions packed the arena {packs} times");
    }

    #[test]
    fn a_singleton_takes_no_arena_and_a_pair_takes_two_words() {
        let mut table = Table::default();
        for key in 0..100u128 {
            assert!(table.push(key, key as u32));
        }
        assert!(table.arena.words.is_empty());
        assert!(table.push(7, 1000));
        assert_eq!(table.arena.words, [1, 1000], "header, then the value");
        table.evict(7, 7);
        assert_eq!(contents(&table)[&7], [1000]);
        check_arena(&table);
    }

    #[test]
    fn freed_regions_are_reused_before_the_arena_grows() {
        let mut table = Table::default();
        for v in 0..5 {
            table.push(1, v); // first + a region of 8: header and 4 values
        }
        let grown = table.arena.words.len();
        table.remove(1);
        for v in 0..5 {
            table.push(2, v);
        }
        assert_eq!(table.arena.words.len(), grown);
        check_arena(&table);
    }

    #[test]
    fn buckets_that_grow_and_shrink_in_turn_keep_the_arena_bounded() {
        // Eight live values over four keys, the oldest evicted at each push:
        // a bucket's region keeps splitting as it shrinks, and without
        // packing the arena grew by ~0.8 words a push.
        let mut rng = StdRng::seed_from_u64(5);
        let mut table = Table::default();
        let mut live = std::collections::VecDeque::new();
        let mut most = 0;
        for v in 0..50_000u32 {
            let key = u128::from(rng.random_range(0..4u64));
            assert!(table.push(key, v));
            live.push_back((key, v));
            if live.len() > 8 {
                let (key, old) = live.pop_front().unwrap();
                table.evict(key, old);
            }
            most = most.max(table.arena.words.len());
            if v % 1024 == 0 {
                check_arena(&table);
            }
        }
        assert!(most <= 64, "the arena reached {most} words for 8 values");
    }

    #[test]
    fn the_arena_limit_refuses_and_changes_nothing() {
        let mut table = Table::with_arena_limit(6);
        for v in 0..4 {
            // Inline, a region of 2, a region of 4 (which takes the fourth).
            assert!(table.push(9, v));
        }
        let before = contents(&table);
        assert!(
            !table.push(9, 4),
            "a region of 8 does not fit in an arena of 6 words"
        );
        assert!(!table.replace(8, &[1, 2, 3, 4]));
        assert_eq!(contents(&table), before);
        assert!(table.push(8, 5), "a first value needs no arena");
        assert!(table.push(8, 6), "the freed region of 2 is reused");
        check_arena(&table);
    }

    #[test]
    fn serialises_as_the_map_of_lists() {
        let mut table = Table::default();
        let mut map: TableDoc = WordMap::default();
        for (key, v) in [(10u128, 1u32), (2, 2), (10, 3), (7 << 70, 4), (10, 5)] {
            table.push(key, v);
            map.entry(key).or_default().push(u64::from(v));
        }
        let doc = serde::to_value(&table).unwrap();
        assert_eq!(doc, serde::to_value(&map).unwrap());
        let mut dropped = 0;
        let back = Table::from_doc(map, &mut dropped).unwrap();
        assert_eq!(dropped, 0);
        assert_eq!(contents(&back), contents(&table));
        assert_eq!(serde::to_value(&back).unwrap(), doc);
        check_arena(&back);
    }

    /// A document whose keys are mostly narrow loads into a directory that
    /// widens at its first wide key, wherever the document's order puts it,
    /// and holds every bucket in order; one of narrow keys only stays narrow.
    #[test]
    fn a_document_of_both_widths_loads_wide_and_round_trips() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut doc: TableDoc = WordMap::default();
        for i in 0..200u64 {
            let key = u128::from(i) << if i % 50 == 7 { 64 } else { 30 };
            let n = rng.random_range(1..12usize);
            doc.insert(key, (0..n).map(|_| rng.random_range(0..1000u64)).collect());
        }
        let narrow: TableDoc = (doc.iter())
            .filter(|(&key, _)| key >> 64 == 0)
            .map(|(&key, ids)| (key, ids.clone()))
            .collect();
        let mut dropped = 0;
        for (doc, wide) in [(doc, true), (narrow, false)] {
            let table = Table::from_doc(doc.clone(), &mut dropped).unwrap();
            assert_eq!(is_wide(&table), wide);
            assert_eq!(contents(&table), doc.into_iter().collect());
            check_arena(&table);
            let back: TableDoc = serde::from_value(serde::to_value(&table).unwrap()).unwrap();
            assert_eq!(
                contents(&Table::from_doc(back, &mut dropped).unwrap()),
                contents(&table)
            );
        }
        assert_eq!(dropped, 0);
    }

    #[test]
    fn a_document_value_past_u32_is_dropped_and_counted() {
        let mut doc: TableDoc = WordMap::default();
        doc.insert(1, vec![1 << 32, 5, u64::MAX, 6]);
        doc.insert(2, vec![1 << 40]);
        let mut dropped = 0;
        let table = Table::from_doc(doc, &mut dropped).unwrap();
        assert_eq!(dropped, 3);
        assert_eq!(contents(&table), HashMap::from([(1, vec![5, 6])]));
        check_arena(&table);
    }
}

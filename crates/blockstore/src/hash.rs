//! The hasher of the blocking tables and the record store: a keyed
//! multiply-fold over machine words.
//!
//! Every key these maps see is a `u64` record id or a `u128` blocking key —
//! one or two words — and a probe hashes `L` of them. SipHash spends ~20 ns
//! a word on a guarantee only half of which is needed here: ids are chosen
//! by clients, so the hash must be *keyed* (an unkeyed multiply, Fx style,
//! lets anyone who can insert records pile them into one bucket chain), but
//! the keys are fixed-width integers, not byte strings. [`WordHasher`] folds
//! each word into its state with one 64×64→128 multiplication by a secret
//! odd multiplier and XORs the halves of the product (the folded multiply
//! of wyhash and foldhash). State and multiplier are drawn once per process
//! from [`std::collections::hash_map::RandomState`].

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// `HashMap` under the process-keyed [`WordHasher`].
pub type WordMap<K, V> = HashMap<K, V, WordState>;
/// `HashSet` under the process-keyed [`WordHasher`].
pub type WordSet<T> = HashSet<T, WordState>;

/// Bytes a std `HashMap`/`HashSet` with room for `capacity` entries of
/// `entry` bytes holds on the heap: hashbrown keeps a power-of-two number of
/// slots at a load of at most 7/8, one control byte per slot and one group
/// of 16 more.
pub fn hash_heap_bytes(capacity: usize, entry: usize) -> usize {
    let slots = match capacity {
        0 => return 0,
        1..=7 => (capacity + 1).next_power_of_two(),
        _ => capacity / 7 * 8,
    };
    slots * (entry + 1) + 16
}

/// Builds [`WordHasher`]s from the process's two secret words.
#[derive(Debug, Clone, Copy)]
pub struct WordState {
    seed: u64,
    multiplier: u64,
}

impl Default for WordState {
    fn default() -> Self {
        static KEYS: OnceLock<(u64, u64)> = OnceLock::new();
        let &(seed, multiplier) = KEYS.get_or_init(|| {
            // Each `RandomState` carries fresh SipHash keys from the OS.
            let draw = |n: u64| RandomState::new().hash_one(n);
            (draw(0), draw(1) | 1)
        });
        Self { seed, multiplier }
    }
}

impl BuildHasher for WordState {
    type Hasher = WordHasher;

    #[inline]
    fn build_hasher(&self) -> WordHasher {
        WordHasher {
            state: self.seed,
            multiplier: self.multiplier,
        }
    }
}

/// See the module documentation.
#[derive(Debug, Clone, Copy)]
pub struct WordHasher {
    state: u64,
    multiplier: u64,
}

impl WordHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        let product = u128::from(self.state ^ word) * u128::from(self.multiplier);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.fold(word);
    }

    #[inline]
    fn write_u128(&mut self, words: u128) {
        self.fold(words as u64);
        self.fold((words >> 64) as u64);
    }

    /// Other widths and byte strings: eight bytes to a word, the length
    /// folded in last so that trailing zero bytes count.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
        self.fold(bytes.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(state: &WordState, value: T) -> u64 {
        state.hash_one(value)
    }

    #[test]
    fn one_key_per_process() {
        let (a, b) = (WordState::default(), WordState::default());
        assert_eq!(hash_of(&a, 42u64), hash_of(&b, 42u64));
        assert_eq!(hash_of(&a, 7u128 << 70), hash_of(&b, 7u128 << 70));
    }

    #[test]
    fn the_key_decides_the_hash() {
        let a = WordState {
            seed: 1,
            multiplier: 0x9e37_79b9_7f4a_7c15,
        };
        let b = WordState {
            seed: 2,
            multiplier: 0xbf58_476d_1ce4_e5b9,
        };
        let differing = (0..64u64)
            .filter(|&id| hash_of(&a, id) != hash_of(&b, id))
            .count();
        assert!(
            differing >= 63,
            "only {differing}/64 ids hash differently under another key"
        );
    }

    #[test]
    fn both_halves_of_a_wide_key_count() {
        let s = WordState::default();
        assert_ne!(hash_of(&s, 1u128), hash_of(&s, 1u128 << 64));
        assert_ne!(hash_of(&s, 1u128), hash_of(&s, 1u128 | 1 << 64));
    }

    #[test]
    fn sequential_ids_spread_over_low_and_high_bits() {
        // hashbrown indexes buckets with the low bits and tags slots with
        // the top seven: sequential ids must vary in both. Under fixed
        // words, not the process's: how many of the 128 tag patterns 4 096
        // ids reach depends on the multiplier, and a random one falls short
        // of all of them a few runs in a hundred.
        let s = WordState {
            seed: 0x243f_6a88_85a3_08d3,
            multiplier: 0x9e37_79b9_7f4a_7c15,
        };
        let low: HashSet<u64> = (0..4096u64).map(|id| hash_of(&s, id) & 0xfff).collect();
        let high: HashSet<u64> = (0..4096u64).map(|id| hash_of(&s, id) >> 57).collect();
        assert!(low.len() > 2300, "{} of 4096 low patterns", low.len());
        assert_eq!(high.len(), 128);
    }

    #[test]
    fn maps_behave_as_maps() {
        let mut m: WordMap<u128, u64> = WordMap::default();
        for id in 0..1000u64 {
            *m.entry(u128::from(id % 10) << 64).or_default() += 1;
        }
        assert_eq!(m.len(), 10);
        assert_eq!(m[&(3u128 << 64)], 100);
        let s: WordSet<u64> = (0..1000).collect();
        assert!(s.contains(&999) && !s.contains(&1000));
    }
}

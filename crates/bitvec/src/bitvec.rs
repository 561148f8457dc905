//! The [`BitVec`] type: a fixed-length bit vector packed into `u64` words.

use serde::{Deserialize, Deserializer, Serialize};
use std::fmt;

/// A fixed-length bit vector.
///
/// Lengths are fixed at construction: all distance and concatenation
/// operations check length compatibility. Bit `i` lives in word `i / 64`,
/// bit position `i % 64` (LSB-first), and padding bits beyond `len` are kept
/// zero as an invariant so `count_ones` and `hamming` never see garbage.
/// Serialized as `{len, words}`; deserialization refuses a document that
/// breaks the invariant (a word count other than `⌈len/64⌉`, a padding bit
/// set), so a vector read from a snapshot or the wire is as well-formed as
/// one built here.
///
/// ```
/// use rl_bitvec::BitVec;
/// let a = BitVec::from_positions(120, [3, 64, 99]);
/// let b = BitVec::from_positions(120, [3, 64, 100]);
/// assert_eq!(a.hamming(&b), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

/// A serialized [`BitVec`] before its invariant is checked.
#[derive(Deserialize)]
struct Unchecked {
    len: usize,
    words: Vec<u64>,
}

impl<'de> Deserialize<'de> for BitVec {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error as _;
        let Unchecked { len, words } = Unchecked::deserialize(deserializer)?;
        if words.len() != len.div_ceil(64) {
            return Err(D::Error::custom(format!(
                "a {len}-bit vector needs {} words, not {}",
                len.div_ceil(64),
                words.len()
            )));
        }
        if len % 64 != 0 && words.last().is_some_and(|&w| w >> (len % 64) != 0) {
            return Err(D::Error::custom(format!(
                "a {len}-bit vector has a bit set past its length"
            )));
        }
        Ok(Self { len, words })
    }
}

impl BitVec {
    /// Creates an all-zero bit vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Creates a bit vector of `len` bits with the given positions set.
    ///
    /// Out-of-range positions panic; duplicate positions are idempotent
    /// (matching how a q-gram set maps onto a vector).
    pub fn from_positions<I>(len: usize, positions: I) -> Self
    where
        I: IntoIterator<Item = usize>,
    {
        let mut v = Self::zeros(len);
        for p in positions {
            v.set(p);
        }
        v
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the vector has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i` to 1.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Hamming distance to `other`: the number of differing bits.
    ///
    /// # Panics
    /// Panics if lengths differ — distances between different spaces are a
    /// logic error, not a runtime condition.
    #[inline]
    pub fn hamming(&self, other: &Self) -> u32 {
        assert_eq!(
            self.len, other.len,
            "hamming distance requires equal lengths"
        );
        crate::ops::hamming_words(&self.words, &other.words)
    }

    /// The underlying words (LSB-first packing, zero-padded tail).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterator over the indexes of set bits, ascending.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let tz = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }

    /// Concatenates several bit vectors into one (attribute-level vectors →
    /// record-level vector, Section 4.1 / 5.2).
    pub fn concat<'a, I>(parts: I) -> Self
    where
        I: IntoIterator<Item = &'a BitVec>,
    {
        let parts: Vec<&BitVec> = parts.into_iter().collect();
        let total: usize = parts.iter().map(|p| p.len).sum();
        let mut out = Self::zeros(total);
        let mut offset = 0;
        for p in parts {
            for i in p.ones() {
                out.set(offset + i);
            }
            offset += p.len;
        }
        out
    }

    /// Bitwise AND population count with `other` (used for Jaccard over
    /// bit-vector representations).
    pub fn and_count(&self, other: &Self) -> usize {
        assert_eq!(self.len, other.len);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Bitwise OR population count with `other`.
    pub fn or_count(&self, other: &Self) -> usize {
        assert_eq!(self.len, other.len);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a | b).count_ones() as usize)
            .sum()
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; ones=", self.len)?;
        f.debug_list().entries(self.ones()).finish()?;
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_has_no_ones() {
        let v = BitVec::zeros(130);
        assert_eq!(v.len(), 130);
        assert_eq!(v.count_ones(), 0);
        assert!(!v.get(129));
    }

    #[test]
    fn set_get_clear_roundtrip() {
        let mut v = BitVec::zeros(100);
        for i in [0, 1, 63, 64, 65, 99] {
            v.set(i);
            assert!(v.get(i));
        }
        assert_eq!(v.count_ones(), 6);
        v.clear(64);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        BitVec::zeros(10).set(10);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn hamming_length_mismatch_panics() {
        let _ = BitVec::zeros(10).hamming(&BitVec::zeros(11));
    }

    #[test]
    fn hamming_counts_differing_bits() {
        let a = BitVec::from_positions(200, [0, 5, 70, 150]);
        let b = BitVec::from_positions(200, [0, 6, 70, 151]);
        assert_eq!(a.hamming(&b), 4);
        assert_eq!(a.hamming(&a), 0);
    }

    #[test]
    fn ones_iterates_ascending() {
        let v = BitVec::from_positions(200, [150, 3, 64, 3]);
        let ones: Vec<usize> = v.ones().collect();
        assert_eq!(ones, vec![3, 64, 150]);
    }

    #[test]
    fn concat_offsets_parts() {
        let a = BitVec::from_positions(10, [1, 9]);
        let b = BitVec::from_positions(70, [0, 69]);
        let c = BitVec::concat([&a, &b]);
        assert_eq!(c.len(), 80);
        let ones: Vec<usize> = c.ones().collect();
        assert_eq!(ones, vec![1, 9, 10, 79]);
    }

    #[test]
    fn concat_empty_is_empty() {
        let c = BitVec::concat(std::iter::empty());
        assert_eq!(c.len(), 0);
        assert_eq!(c.count_ones(), 0);
    }

    #[test]
    fn and_or_counts() {
        let a = BitVec::from_positions(128, [0, 1, 2, 100]);
        let b = BitVec::from_positions(128, [1, 2, 3, 101]);
        assert_eq!(a.and_count(&b), 2);
        assert_eq!(a.or_count(&b), 6);
    }

    #[test]
    fn zero_length_vector() {
        let v = BitVec::zeros(0);
        assert!(v.is_empty());
        assert_eq!(v.count_ones(), 0);
        assert_eq!(v.hamming(&BitVec::zeros(0)), 0);
    }

    #[test]
    fn deserialization_round_trips_well_formed_vectors() {
        for v in [
            BitVec::zeros(0),
            BitVec::from_positions(15, [0, 14]),
            BitVec::from_positions(64, [63]),
            BitVec::from_positions(130, [0, 64, 129]),
        ] {
            let json = serde_json::to_string(&v).unwrap();
            assert_eq!(serde_json::from_str::<BitVec>(&json).unwrap(), v);
        }
    }

    #[test]
    fn deserialization_refuses_a_broken_invariant() {
        for (json, why) in [
            (r#"{"len":15,"words":[]}"#, "needs 1 words, not 0"),
            (r#"{"len":15,"words":[1,2]}"#, "needs 1 words, not 2"),
            (r#"{"len":0,"words":[0]}"#, "needs 0 words, not 1"),
            (r#"{"len":15,"words":[32768]}"#, "bit set past its length"),
            (r#"{"len":65,"words":[0,2]}"#, "bit set past its length"),
        ] {
            let err = serde_json::from_str::<BitVec>(json)
                .unwrap_err()
                .to_string();
            assert!(err.contains(why), "{json}: {err}");
        }
        // A full last word has no padding to check.
        let v: BitVec =
            serde_json::from_str(r#"{"len":64,"words":[18446744073709551615]}"#).unwrap();
        assert_eq!(v.count_ones(), 64);
    }

    proptest! {
        #[test]
        fn hamming_equals_symmetric_difference(
            xs in proptest::collection::btree_set(0usize..300, 0..40),
            ys in proptest::collection::btree_set(0usize..300, 0..40),
        ) {
            let a = BitVec::from_positions(300, xs.iter().copied());
            let b = BitVec::from_positions(300, ys.iter().copied());
            let sym = xs.symmetric_difference(&ys).count() as u32;
            prop_assert_eq!(a.hamming(&b), sym);
        }

        #[test]
        fn hamming_is_metric(
            xs in proptest::collection::btree_set(0usize..128, 0..20),
            ys in proptest::collection::btree_set(0usize..128, 0..20),
            zs in proptest::collection::btree_set(0usize..128, 0..20),
        ) {
            let a = BitVec::from_positions(128, xs);
            let b = BitVec::from_positions(128, ys);
            let c = BitVec::from_positions(128, zs);
            prop_assert_eq!(a.hamming(&b), b.hamming(&a));
            prop_assert!(a.hamming(&c) <= a.hamming(&b) + b.hamming(&c));
            prop_assert_eq!(a.hamming(&a), 0);
        }

        #[test]
        fn ones_roundtrip(xs in proptest::collection::btree_set(0usize..500, 0..60)) {
            let v = BitVec::from_positions(500, xs.iter().copied());
            let back: Vec<usize> = v.ones().collect();
            let expect: Vec<usize> = xs.into_iter().collect();
            prop_assert_eq!(back, expect);
            prop_assert_eq!(v.count_ones(), v.ones().count());
        }

        #[test]
        fn concat_preserves_counts(
            xs in proptest::collection::btree_set(0usize..90, 0..20),
            ys in proptest::collection::btree_set(0usize..70, 0..20),
        ) {
            let a = BitVec::from_positions(90, xs);
            let b = BitVec::from_positions(70, ys);
            let c = BitVec::concat([&a, &b]);
            prop_assert_eq!(c.count_ones(), a.count_ones() + b.count_ones());
            // Concatenated Hamming distance decomposes per part.
            let c2 = BitVec::concat([&b, &a]);
            prop_assert_eq!(c.count_ones(), c2.count_ones());
        }
    }
}

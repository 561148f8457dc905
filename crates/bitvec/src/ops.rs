//! Low-level word operations: the fast paths and their naive references.
//!
//! `hamming_words` is the production kernel (XOR + popcount per word). The
//! `naive_hamming` per-bit loop exists only as the reference the tests and
//! `experiments ablations` compare it with, demonstrating why packed words
//! matter for the paper's "distances computed very fast" claim.

use crate::BitVec;

/// Word-wise Hamming distance kernel: `Σ popcount(a[i] ^ b[i])`.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn hamming_words(a: &[u64], b: &[u64]) -> u32 {
    assert_eq!(a.len(), b.len(), "word slices must align");
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x ^ y).count_ones())
        .sum()
}

/// Reference per-bit Hamming distance (ablation baseline — do not use in
/// production paths).
pub fn naive_hamming(a: &BitVec, b: &BitVec) -> u32 {
    assert_eq!(a.len(), b.len(), "hamming distance requires equal lengths");
    (0..a.len()).filter(|&i| a.get(i) != b.get(i)).count() as u32
}

/// Jaccard similarity between two equal-length bit vectors:
/// `|a ∧ b| / |a ∨ b|`, with two all-zero vectors defined as similarity 1.
pub fn jaccard_bits(a: &BitVec, b: &BitVec) -> f64 {
    let or = a.or_count(b);
    if or == 0 {
        return 1.0;
    }
    a.and_count(b) as f64 / or as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hamming_words_basic() {
        assert_eq!(hamming_words(&[0b1010], &[0b0110]), 2);
        assert_eq!(hamming_words(&[], &[]), 0);
        assert_eq!(hamming_words(&[u64::MAX], &[0]), 64);
    }

    #[test]
    fn jaccard_bits_cases() {
        let a = BitVec::from_positions(64, [1, 2, 3]);
        let b = BitVec::from_positions(64, [2, 3, 4]);
        assert!((jaccard_bits(&a, &b) - 0.5).abs() < 1e-12);
        let z = BitVec::zeros(64);
        assert_eq!(jaccard_bits(&z, &z), 1.0);
        assert_eq!(jaccard_bits(&a, &z), 0.0);
    }

    proptest! {
        #[test]
        fn naive_matches_fast(
            xs in proptest::collection::btree_set(0usize..200, 0..30),
            ys in proptest::collection::btree_set(0usize..200, 0..30),
        ) {
            let a = BitVec::from_positions(200, xs);
            let b = BitVec::from_positions(200, ys);
            prop_assert_eq!(a.hamming(&b), naive_hamming(&a, &b));
        }

        #[test]
        fn jaccard_in_unit_interval(
            xs in proptest::collection::btree_set(0usize..100, 0..30),
            ys in proptest::collection::btree_set(0usize..100, 0..30),
        ) {
            let a = BitVec::from_positions(100, xs);
            let b = BitVec::from_positions(100, ys);
            let j = jaccard_bits(&a, &b);
            prop_assert!((0.0..=1.0).contains(&j));
        }
    }
}

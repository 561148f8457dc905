//! Deterministic q-gram vectors — the full Hamming space ℋ (Section 4.1).
//!
//! Each attribute value is a `|S|^q`-bit vector with one position per
//! possible q-gram. These vectors make the error → distance correspondence
//! of Section 5.1 exact, but they are extremely sparse (a 5-letter name
//! sets ~6 of 676+ positions), which cripples bit-sampling LSH: sampled
//! positions are almost always 0, so blocking keys collapse into a few
//! overpopulated buckets. The compact [`crate::cvector`] embedding exists to
//! fix exactly this; `experiments ablations` measures the gap.

use rl_bitvec::BitVec;
use textdist::{Alphabet, QGramSet};

/// Embeds strings of one attribute into the full q-gram vector space ℋ.
#[derive(Debug, Clone)]
pub struct QGramVectorEmbedder {
    alphabet: Alphabet,
    q: usize,
    m: usize,
    padded: bool,
}

impl QGramVectorEmbedder {
    /// Creates an embedder over `alphabet` with q-gram length `q`.
    ///
    /// # Panics
    /// Panics if `q == 0` or `|S|^q` overflows / exceeds practical sizes
    /// (> 2^28 bits — at that point the full space is unusable anyway).
    pub fn new(alphabet: Alphabet, q: usize, padded: bool) -> Self {
        assert!(q > 0, "q must be positive");
        let m = alphabet
            .qgram_space(q)
            .expect("q-gram space must fit in u64");
        assert!(m <= 1 << 28, "full q-gram space too large to materialize");
        Self {
            alphabet,
            q,
            m: m as usize,
            padded,
        }
    }

    /// Size `m = |S|^q` of each vector.
    pub fn size(&self) -> usize {
        self.m
    }

    /// The q-gram set of `s` under this embedder's configuration.
    pub fn qgram_set(&self, s: &str) -> QGramSet {
        if self.padded {
            QGramSet::build(s, self.q, &self.alphabet)
        } else {
            QGramSet::build_unpadded(s, self.q, &self.alphabet)
        }
    }

    /// Embeds `s` as a q-gram vector: position `F(gr)` is set for each
    /// q-gram `gr` of `s` (Figure 1).
    pub fn embed(&self, s: &str) -> BitVec {
        let set = self.qgram_set(s);
        BitVec::from_positions(self.m, set.indexes().iter().map(|&i| i as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upper_bigram() -> QGramVectorEmbedder {
        QGramVectorEmbedder::new(Alphabet::upper(), 2, true)
    }

    #[test]
    fn size_is_alphabet_pow_q() {
        assert_eq!(upper_bigram().size(), 27 * 27);
    }

    #[test]
    fn embed_sets_one_bit_per_distinct_qgram() {
        let e = upper_bigram();
        let v = e.embed("JOHN"); // _J JO OH HN N_
        assert_eq!(v.count_ones(), 5);
    }

    #[test]
    fn substitute_error_distance_at_most_4() {
        // §5.1: substitute → u_H ≤ 4·u_E.
        let e = upper_bigram();
        assert_eq!(e.embed("JONES").hamming(&e.embed("JONAS")), 4);
        // Overlap case gives 3.
        assert_eq!(e.embed("SHANNEN").hamming(&e.embed("SHENNEN")), 3);
    }

    #[test]
    fn delete_error_distance_at_most_3() {
        // §5.1: delete → u_H ≤ 3·u_E.
        let e = upper_bigram();
        assert_eq!(e.embed("JONES").hamming(&e.embed("JONS")), 3);
    }

    #[test]
    fn insert_error_distance_at_most_3() {
        let e = upper_bigram();
        let d = e.embed("JONES").hamming(&e.embed("JONEAS"));
        assert!(d <= 3, "insert should differ in at most 3 bigrams, got {d}");
    }

    #[test]
    fn hamming_independent_of_length() {
        // §5.1's key contrast with Jaccard: one substitute error costs the
        // same Hamming distance regardless of string length.
        let e = upper_bigram();
        let d_short = e.embed("JONES").hamming(&e.embed("JONAS"));
        let d_long = e.embed("WASHINGTON").hamming(&e.embed("WASHANGTON"));
        assert_eq!(d_short, 4);
        assert_eq!(d_long, 4);
    }

    #[test]
    fn empty_string_is_zero_vector() {
        let e = upper_bigram();
        assert_eq!(e.embed("").count_ones(), 0);
    }

    #[test]
    fn unpadded_mode_drops_boundary_grams() {
        let e = QGramVectorEmbedder::new(Alphabet::upper(), 2, false);
        assert_eq!(e.embed("JOHN").count_ones(), 3); // JO OH HN
    }

    #[test]
    fn sparsity_is_severe() {
        // The motivation for c-vectors: a name occupies a vanishing fraction
        // of the full space.
        let e = upper_bigram();
        let v = e.embed("JONES");
        let density = v.count_ones() as f64 / v.len() as f64;
        assert!(density < 0.01, "density {density}");
    }
}

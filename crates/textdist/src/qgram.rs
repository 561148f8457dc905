//! Padded q-gram extraction and the index set `U_s` (Section 4.1).
//!
//! A string `s` is padded with `q − 1` copies of [`PAD`]
//! on each side (the paper's `'_JONES_'` for q = 2), and every window of `q`
//! consecutive characters becomes one q-gram. Each q-gram maps through
//! Algorithm 1 ([`Alphabet::qgram_index`]) to an integer index; the *set* of
//! indexes of `s` is `U_s` and drives both the deterministic q-gram vector
//! and the compact c-vector embedding.

use crate::alphabet::{Alphabet, PAD};
use serde::{Deserialize, Serialize};

/// Returns the padded q-grams of `s` as character windows.
///
/// The string is normalized by the caller; characters outside the alphabet
/// are the caller's responsibility (see [`Alphabet::normalize`]). An empty
/// string yields q-grams consisting solely of pad characters — by convention
/// we return an empty list instead, so empty values embed to all-zero
/// vectors.
///
/// # Panics
/// Panics if `q == 0`.
pub fn qgrams(s: &str, q: usize) -> Vec<Vec<char>> {
    assert!(q > 0, "q must be positive");
    if s.is_empty() {
        return Vec::new();
    }
    let mut padded: Vec<char> = Vec::with_capacity(s.chars().count() + 2 * (q - 1));
    padded.extend(std::iter::repeat_n(PAD, q - 1));
    padded.extend(s.chars());
    padded.extend(std::iter::repeat_n(PAD, q - 1));
    if padded.len() < q {
        // Only possible when q == 1 and s is empty, handled above.
        return Vec::new();
    }
    padded.windows(q).map(<[char]>::to_vec).collect()
}

/// Returns the q-grams of `s` *without* padding.
///
/// The paper's Jaccard-space examples (Section 5.1) are computed on unpadded
/// bigrams, and the HARRA baseline hashes unpadded record-level bigrams.
/// A string shorter than `q` yields no q-grams.
pub fn qgrams_unpadded(s: &str, q: usize) -> Vec<Vec<char>> {
    assert!(q > 0, "q must be positive");
    let chars: Vec<char> = s.chars().collect();
    if chars.len() < q {
        return Vec::new();
    }
    chars.windows(q).map(<[char]>::to_vec).collect()
}

/// How many q-grams [`qgrams`] (`padded`) or [`qgrams_unpadded`] returns for
/// `s`, from its length alone.
///
/// # Panics
/// Panics if `q == 0`.
pub fn qgram_count(s: &str, q: usize, padded: bool) -> usize {
    assert!(q > 0, "q must be positive");
    let n = s.chars().count();
    if !padded {
        (n + 1).saturating_sub(q)
    } else if n == 0 {
        0
    } else {
        n + q - 1
    }
}

/// Streams the Algorithm-1 index of every q-gram of `s` to `f`, in string
/// order and with repeats, without building the normalized string or the
/// q-grams: one pass over the bytes of `s` folds each into `alphabet`
/// through the alphabet's 256-entry fold table (as [`Alphabet::normalize`]
/// does, a byte at a time) and rolls the base-`|S|` numeral of the current
/// window forward one symbol at a time. The symbol leaving the window is
/// named by a second cursor `q` symbols behind, so nothing is allocated for
/// any `q`.
///
/// The indexes are exactly `alphabet.qgram_index(g)` for `g` in
/// `qgrams(&alphabet.normalize(s), q)` (or `qgrams_unpadded`). The window
/// arithmetic wraps, as `qgram_index` does.
///
/// # Panics
/// Panics if `q == 0`, or if `padded`, `q > 1` and the alphabet lacks
/// [`PAD`] while `s` has at least one alphabet character.
pub fn for_each_qgram_index(
    s: &str,
    q: usize,
    alphabet: &Alphabet,
    padded: bool,
    mut f: impl FnMut(u64),
) {
    assert!(q > 0, "q must be positive");
    let fold = alphabet.fold();
    let symbol = |b: &u8| {
        let o = fold[usize::from(*b)];
        (o != u8::MAX).then_some(u64::from(o))
    };
    let bytes = s.as_bytes();
    // An empty value has no q-grams, not q-grams of pads.
    let Some(first) = bytes.iter().position(|b| symbol(b).is_some()) else {
        return;
    };
    let bytes = &bytes[first..];
    let pads = if padded { q - 1 } else { 0 };
    let pad = if pads > 0 {
        u64::from(
            alphabet
                .ord(PAD)
                .expect("padded q-grams need the pad symbol in the alphabet"),
        )
    } else {
        0
    };
    let base = alphabet.len() as u64;
    let top = (1..q).fold(1u64, |t, _| t.wrapping_mul(base));
    // The window opens holding the leading pads; they are the first to
    // leave it, then the symbols behind the lagging cursor.
    let mut ind = (0..pads).fold(0u64, |i, _| i.wrapping_mul(base).wrapping_add(pad));
    let (mut filled, mut pads_to_leave) = (pads, pads);
    let mut lagging = bytes.iter();
    let trailing = std::iter::repeat_n(pad, pads);
    for o in bytes.iter().filter_map(symbol).chain(trailing) {
        if filled == q {
            let old = if pads_to_leave > 0 {
                pads_to_leave -= 1;
                pad
            } else {
                lagging
                    .find_map(symbol)
                    .expect("the lagging cursor is q symbols behind")
            };
            ind = ind.wrapping_sub(old.wrapping_mul(top));
        } else {
            filled += 1;
        }
        ind = ind.wrapping_mul(base).wrapping_add(o);
        if filled == q {
            f(ind);
        }
    }
}

/// The set `U_s` of q-gram indexes of a string (duplicates collapsed).
///
/// Stored sorted and deduplicated so that set operations (for the Jaccard
/// metric) are linear merges.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct QGramSet {
    indexes: Vec<u64>,
    /// Number of q-grams before deduplication (the `b` statistic of §5.2
    /// counts q-gram occurrences, so we retain it).
    raw_count: usize,
}

impl QGramSet {
    /// Builds `U_s` for `s` over `alphabet` with q-gram length `q`.
    ///
    /// `s` is normalized into the alphabet first, so foreign characters are
    /// dropped rather than silently corrupting indexes.
    pub fn build(s: &str, q: usize, alphabet: &Alphabet) -> Self {
        Self::build_inner(s, q, alphabet, true)
    }

    /// Builds `U_s` over unpadded q-grams (HARRA's representation).
    pub fn build_unpadded(s: &str, q: usize, alphabet: &Alphabet) -> Self {
        Self::build_inner(s, q, alphabet, false)
    }

    fn build_inner(s: &str, q: usize, alphabet: &Alphabet, padded: bool) -> Self {
        let mut indexes = Vec::new();
        for_each_qgram_index(s, q, alphabet, padded, |x| indexes.push(x));
        Self::from_indexes(indexes)
    }

    /// Constructs a set directly from indexes (used by tests and generators).
    pub fn from_indexes(mut indexes: Vec<u64>) -> Self {
        let raw_count = indexes.len();
        indexes.sort_unstable();
        indexes.dedup();
        Self { indexes, raw_count }
    }

    /// The sorted, deduplicated q-gram indexes.
    #[inline]
    pub fn indexes(&self) -> &[u64] {
        &self.indexes
    }

    /// Number of *distinct* q-grams.
    #[inline]
    pub fn len(&self) -> usize {
        self.indexes.len()
    }

    /// True when the string produced no q-grams (empty value).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }

    /// Number of q-grams before deduplication.
    #[inline]
    pub fn raw_count(&self) -> usize {
        self.raw_count
    }

    /// Size of the intersection with `other` (linear merge).
    pub fn intersection_size(&self, other: &Self) -> usize {
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < self.indexes.len() && j < other.indexes.len() {
            match self.indexes[i].cmp(&other.indexes[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    /// Size of the union with `other`.
    pub fn union_size(&self, other: &Self) -> usize {
        self.len() + other.len() - self.intersection_size(other)
    }

    /// Size of the symmetric difference with `other` — exactly the Hamming
    /// distance between the corresponding full q-gram vectors (Section 5.1).
    pub fn symmetric_difference_size(&self, other: &Self) -> usize {
        self.union_size(other) - self.intersection_size(other)
    }
}

/// Average number of q-grams per value — the statistic `b^(f_i)` of
/// Section 5.2, estimated from a sample of attribute values.
///
/// Counts q-gram occurrences (with padding), not distinct q-grams, matching
/// how the paper derives `b` from value lengths. Returns 0.0 for an empty
/// sample.
pub fn average_qgram_count<'a, I>(values: I, q: usize) -> f64
where
    I: IntoIterator<Item = &'a str>,
{
    let mut total = 0usize;
    let mut n = 0usize;
    for v in values {
        total += qgram_count(v, q, true);
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bigrams_of_john_match_paper() {
        // '_JOHN_' → _J, JO, OH, HN, N_
        let g = qgrams("JOHN", 2);
        let strs: Vec<String> = g.iter().map(|w| w.iter().collect()).collect();
        assert_eq!(strs, vec!["_J", "JO", "OH", "HN", "N_"]);
    }

    #[test]
    fn empty_string_has_no_qgrams() {
        assert!(qgrams("", 2).is_empty());
        assert!(QGramSet::build("", 2, &Alphabet::upper()).is_empty());
    }

    #[test]
    fn unigrams_are_characters() {
        let g = qgrams("ABC", 1);
        assert_eq!(g.len(), 3);
        assert_eq!(g[0], vec!['A']);
    }

    #[test]
    fn trigram_padding() {
        // '__AB__' → __A, _AB, AB_, B__
        let g = qgrams("AB", 3);
        assert_eq!(g.len(), 4);
        let first: String = g[0].iter().collect();
        assert_eq!(first, "__A");
    }

    #[test]
    fn qgram_count_is_len_plus_q_minus_one() {
        // With q−1 pads each side, an n-char string yields n + q − 1 grams.
        for (s, q, expect) in [("JONES", 2, 6), ("JOHN", 2, 5), ("JONES", 3, 7)] {
            assert_eq!(qgrams(s, q).len(), expect, "{s} q={q}");
        }
    }

    #[test]
    fn set_dedupes_but_tracks_raw_count() {
        // 'AAA' → _A, AA, AA, A_ : raw 4, distinct 3.
        let u = QGramSet::build("AAA", 2, &Alphabet::upper());
        assert_eq!(u.raw_count(), 4);
        assert_eq!(u.len(), 3);
    }

    #[test]
    fn jones_vs_jonas_symmetric_difference_is_4() {
        // Section 5.1: substitute on JONES → JONAS differs in 4 bigrams.
        let a = Alphabet::upper();
        let u1 = QGramSet::build("JONES", 2, &a);
        let u2 = QGramSet::build("JONAS", 2, &a);
        assert_eq!(u1.symmetric_difference_size(&u2), 4);
    }

    #[test]
    fn jones_vs_jons_symmetric_difference_is_3() {
        // Section 5.1: delete on JONES → JONS differs in 3 bigrams.
        let a = Alphabet::upper();
        let u1 = QGramSet::build("JONES", 2, &a);
        let u2 = QGramSet::build("JONS", 2, &a);
        assert_eq!(u1.symmetric_difference_size(&u2), 3);
    }

    #[test]
    fn shannen_vs_shennen_overlap_case() {
        // Section 5.1: SHANNEN vs SHENNEN — distance 3, not 4, because the
        // differing bigram 'EN' overlaps a common one.
        let a = Alphabet::upper();
        let u1 = QGramSet::build("SHANNEN", 2, &a);
        let u2 = QGramSet::build("SHENNEN", 2, &a);
        assert_eq!(u1.symmetric_difference_size(&u2), 3);
    }

    #[test]
    fn intersection_and_union_sizes() {
        let x = QGramSet::from_indexes(vec![1, 2, 3, 5]);
        let y = QGramSet::from_indexes(vec![2, 3, 4]);
        assert_eq!(x.intersection_size(&y), 2);
        assert_eq!(x.union_size(&y), 5);
        assert_eq!(x.symmetric_difference_size(&y), 3);
    }

    #[test]
    fn from_indexes_dedupes() {
        let x = QGramSet::from_indexes(vec![5, 1, 5, 3, 1]);
        assert_eq!(x.indexes(), &[1, 3, 5]);
        assert_eq!(x.raw_count(), 5);
    }

    #[test]
    fn average_qgram_count_basic() {
        let vals = ["JONES", "JOHN"]; // 6 and 5 bigrams
        let b = average_qgram_count(vals.iter().copied(), 2);
        assert!((b - 5.5).abs() < 1e-12);
        assert_eq!(average_qgram_count(std::iter::empty(), 2), 0.0);
    }

    /// The q-gram indexes of `s` the way they were computed before the
    /// streaming form: normalize, materialize the q-grams, index each.
    fn reference_indexes(s: &str, q: usize, a: &Alphabet, padded: bool) -> Vec<u64> {
        let norm = a.normalize(s);
        let grams = if padded {
            qgrams(&norm, q)
        } else {
            qgrams_unpadded(&norm, q)
        };
        grams.iter().map(|g| a.qgram_index(g).unwrap()).collect()
    }

    /// A string of arbitrary chars: one in four any Unicode scalar value
    /// (multi-byte chars mostly), the rest drawn from ASCII letters of both
    /// cases, digits, space, pad and punctuation.
    fn unicode_string() -> impl Strategy<Value = String> {
        prop::collection::vec((0u8..4, any::<u32>()), 0..=20).prop_map(|cs| {
            const ASCII: &[u8] = b"ABCZabcz019 _.-#'";
            cs.into_iter()
                .map(|(kind, x)| match kind {
                    0 => char::from_u32(x % 0x11_0000).unwrap_or('\u{fffd}'),
                    _ => char::from(ASCII[x as usize % ASCII.len()]),
                })
                .collect()
        })
    }

    /// The streamed indexes of `s` against [`reference_indexes`], and the
    /// set built from them.
    fn check_stream(s: &str, q: usize, a: &Alphabet, padded: bool) {
        let mut streamed = Vec::new();
        for_each_qgram_index(s, q, a, padded, |x| streamed.push(x));
        prop_assert_eq!(&streamed, &reference_indexes(s, q, a, padded));
        let set = if padded {
            QGramSet::build(s, q, a)
        } else {
            QGramSet::build_unpadded(s, q, a)
        };
        prop_assert_eq!(set.raw_count(), streamed.len());
        prop_assert_eq!(set, QGramSet::from_indexes(streamed));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The kernel against its definition, over arbitrary Unicode, every
        /// `q` up to 13 (`38^12 < 2^64 < 38^13`, so the wrapping range is
        /// reached), both windows, an alphabet with lower-case symbols (which
        /// folding never reaches) and, unpadded, one without the pad.
        #[test]
        fn streamed_indexes_equal_materialized_qgrams(
            s in unicode_string(),
            q in 1usize..=13,
            padded in any::<bool>(),
        ) {
            let lower = Alphabet::new("_ABCabc019 ");
            for a in [Alphabet::upper(), Alphabet::linkage(), lower] {
                check_stream(&s, q, &a, padded);
            }
            check_stream(&s, q, &Alphabet::new("ABCZ0123456789 "), false);
        }
    }

    proptest! {
        #[test]
        fn qgram_count_equals_materialized_len(s in "[A-Ca-c éß]{0,9}", q in 1usize..=4) {
            prop_assert_eq!(qgram_count(&s, q, true), qgrams(&s, q).len());
            prop_assert_eq!(qgram_count(&s, q, false), qgrams_unpadded(&s, q).len());
        }
    }

    #[test]
    fn unpadded_and_unigram_streams_need_no_pad_symbol() {
        let digits = Alphabet::new("0123456789");
        assert_eq!(QGramSet::build_unpadded("1998", 2, &digits).len(), 3);
        assert_eq!(QGramSet::build("1998", 1, &digits).len(), 3);
        // Nothing of the value survives normalization: no pad is reached for.
        assert!(QGramSet::build("ABC", 2, &digits).is_empty());
    }

    #[test]
    #[should_panic(expected = "pad symbol")]
    fn padded_stream_over_an_alphabet_without_pad_panics_by_name() {
        let _ = QGramSet::build("1998", 2, &Alphabet::new("0123456789"));
    }

    #[test]
    fn build_normalizes_input() {
        let a = Alphabet::upper();
        let u1 = QGramSet::build("jo-nes", 2, &a);
        let u2 = QGramSet::build("JONES", 2, &a);
        assert_eq!(u1, u2);
    }
}

//! Compact c-vectors — the space Ĥ (Section 5.2).
//!
//! A c-vector compresses the sparse `|S|^q`-bit q-gram vector of an
//! attribute value into `m_opt` bits by hashing each q-gram index through a
//! pairwise-independent `g(x) = ((a·x + b) mod P) mod m`. The size `m_opt`
//! is the smallest that keeps the expected number of within-value hash
//! collisions below a tolerance `ρ` (Lemma 1), solved in closed form by
//! Theorem 1:
//!
//! ```text
//! m_opt = ⌈(b − ρ) / (1 − e^{−r})⌉
//! ```
//!
//! with `b` the attribute's average q-gram count and `r = b/m < 1` the
//! confidence ratio (the paper recommends `r = 1/3`; Figure 7 shows smaller
//! values buy little accuracy).
//!
//! `g` depends on the q-gram index alone, so an embedder tabulates it once,
//! when it is drawn or loaded: one `u16` position per index of the space
//! `{0, …, |S|^q − 1}` (1 444 entries for bigrams over the 38 linkage
//! symbols, 54 872 for trigrams), read in place of a 64-bit `mod m` per
//! q-gram. [`UniversalHash::eval`] stays the definition the table is tested
//! against, and evaluates `g` for a space or a width beyond 2¹⁶.

use crate::error::SchemaError;
use rand::Rng;
use rl_bitvec::BitVec;
use rl_lsh::hashfn::PRIME;
use rl_lsh::UniversalHash;
use serde::{Deserialize, Deserializer, Serialize};
use std::sync::Arc;
use textdist::alphabet::PAD;
use textdist::{for_each_qgram_index, Alphabet, QGramSet};

/// Default collision tolerance `ρ` used throughout the paper's evaluation.
pub const DEFAULT_RHO: f64 = 1.0;

/// Default confidence ratio `r = 1/3` (Section 5.2 / Figure 7).
pub const DEFAULT_R: f64 = 1.0 / 3.0;

/// Expected number of set positions after hashing `b` q-grams into `m`
/// cells: `E[v] = m·(1 − (1 − 1/m)^b)` (Equation 6).
pub fn expected_set_positions(b: f64, m: usize) -> f64 {
    assert!(m > 0, "m must be positive");
    let m = m as f64;
    m * (1.0 - (1.0 - 1.0 / m).powf(b))
}

/// Expected number of collisions `E[c] = b − E[v]` (Lemma 1, Equation 4).
pub fn expected_collisions(b: f64, m: usize) -> f64 {
    b - expected_set_positions(b, m)
}

/// Theorem 1: the optimal c-vector size
/// `m_opt = ⌈(b − ρ) / (1 − e^{−r})⌉` for an attribute with average q-gram
/// count `b`, collision tolerance `rho`, and confidence ratio `r`.
///
/// ```
/// use cbv_hb::optimal_m;
/// // Table 3 (NCVR): b = 5.1 bigrams, ρ = 1, r = 1/3 → 15 bits.
/// assert_eq!(optimal_m(5.1, 1.0, 1.0 / 3.0), 15);
/// // The whole four-attribute record fits in 120 bits.
/// let total: usize = [5.1, 5.0, 20.0, 7.2]
///     .iter()
///     .map(|&b| optimal_m(b, 1.0, 1.0 / 3.0))
///     .sum();
/// assert_eq!(total, 120);
/// ```
///
/// Returns at least 1 bit even for degenerate inputs (`b ≤ ρ`), since a
/// zero-width vector is never useful.
///
/// # Panics
/// Panics unless `rho ≥ 0` and `0 < r < 1`.
pub fn optimal_m(b: f64, rho: f64, r: f64) -> usize {
    assert!(rho >= 0.0, "collision tolerance must be non-negative");
    assert!(r > 0.0 && r < 1.0, "confidence ratio must lie in (0, 1)");
    let numerator = b - rho;
    if numerator <= 0.0 {
        return 1;
    }
    let m = (numerator / (1.0 - (-r).exp())).ceil();
    (m as usize).max(1)
}

/// The largest q-gram space, and the largest width, a [`PositionTable`]
/// serves: its entries are `u16`s.
const TABLE_LIMIT: u64 = 1 << 16;

/// `g` tabulated over a q-gram space: entry `x` is `g(x)`. Derived from the
/// hash, never serialized; `None` for a space or a width beyond
/// [`TABLE_LIMIT`]. Shared between clones of the embedder.
#[derive(Clone)]
struct PositionTable(Option<Arc<[u16]>>);

impl PositionTable {
    fn of(hash: &UniversalHash, alphabet: &Alphabet, q: usize) -> Self {
        let space = u32::try_from(q)
            .ok()
            .and_then(|q| (alphabet.len() as u64).checked_pow(q))
            .filter(|&space| space <= TABLE_LIMIT && hash.range() <= TABLE_LIMIT);
        Self(space.map(|space| (0..space).map(|x| hash.eval(x) as u16).collect()))
    }
}

impl std::fmt::Debug for PositionTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(table) => write!(f, "PositionTable({} entries)", table.len()),
            None => f.write_str("PositionTable(none)"),
        }
    }
}

/// Embeds the string values of *one attribute* into `m`-bit c-vectors.
///
/// One hash function per attribute: the same q-gram always maps to the same
/// position across all records, so distances in Ĥ track distances in ℋ up
/// to the tolerated collisions.
///
/// A document loads only as an embedder that can embed: `q > 0`, the pad
/// symbol in the alphabet of a padded `q > 1` embedder, and hash
/// coefficients in the field (its [`SchemaError`]s and
/// [`rl_lsh::FamilyError::InvalidHash`]).
#[derive(Debug, Clone, Serialize)]
pub struct CVectorEmbedder {
    alphabet: Alphabet,
    q: usize,
    padded: bool,
    hash: UniversalHash,
    #[serde(skip)]
    table: PositionTable,
}

/// A [`CVectorEmbedder`] document, before it is checked and tabulated.
#[derive(Deserialize)]
struct EmbedderDoc {
    alphabet: Alphabet,
    q: usize,
    padded: bool,
    hash: UniversalHash,
}

impl<'de> Deserialize<'de> for CVectorEmbedder {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error as _;
        let EmbedderDoc {
            alphabet,
            q,
            padded,
            hash,
        } = EmbedderDoc::deserialize(deserializer)?;
        Self::with_hash(alphabet, q, padded, hash).map_err(D::Error::custom)
    }
}

impl CVectorEmbedder {
    /// Creates an embedder with a randomly drawn position hash onto
    /// `{0, …, m−1}`.
    ///
    /// # Panics
    /// Panics if `q == 0` or `m == 0`, or if `padded` q-grams (`q > 1`)
    /// are asked for over an alphabet without the pad symbol `_` — an
    /// embedder that could not embed its first value.
    pub fn random<R: Rng + ?Sized>(
        alphabet: Alphabet,
        q: usize,
        m: usize,
        padded: bool,
        rng: &mut R,
    ) -> Self {
        assert!(q > 0, "q must be positive");
        assert!(m > 0 && (m as u64) <= PRIME, "m out of range");
        let hash = UniversalHash::random(m as u64, rng);
        Self::with_hash(alphabet, q, padded, hash).unwrap_or_else(|e| panic!("{e}"))
    }

    /// An embedder with a given position hash, its table built.
    fn with_hash(
        alphabet: Alphabet,
        q: usize,
        padded: bool,
        hash: UniversalHash,
    ) -> Result<Self, SchemaError> {
        if q == 0 {
            return Err(SchemaError::ZeroQ);
        }
        if padded && q > 1 && !alphabet.contains(PAD) {
            return Err(SchemaError::NoPadSymbol);
        }
        Ok(Self {
            table: PositionTable::of(&hash, &alphabet, q),
            alphabet,
            q,
            padded,
            hash,
        })
    }

    /// c-vector size `m` in bits.
    pub fn size(&self) -> usize {
        self.hash.range() as usize
    }

    /// q-gram length.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Whether values are padded before q-gram extraction.
    pub fn padded(&self) -> bool {
        self.padded
    }

    /// The alphabet the q-grams are formed over.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The position hash `g`, which embedding reads from its table when
    /// the q-gram space and the width fit in 2¹⁶.
    pub fn hash(&self) -> &UniversalHash {
        &self.hash
    }

    /// The q-gram set of `s` under this embedder's configuration.
    pub fn qgram_set(&self, s: &str) -> QGramSet {
        if self.padded {
            QGramSet::build(s, self.q, &self.alphabet)
        } else {
            QGramSet::build_unpadded(s, self.q, &self.alphabet)
        }
    }

    /// Embeds `s`: each q-gram index `x ∈ U_s` sets position `g(x)`
    /// (Figure 4). Colliding q-grams set the same position once.
    ///
    /// The q-gram indexes are streamed straight into the vector — a repeated
    /// q-gram sets its bit twice, which is all the de-duplication `U_s`
    /// stands for here — so the result equals
    /// `BitVec::from_positions(m, qgram_set(s).indexes().map(g))` without
    /// the set, the normalized string or the q-grams ever existing.
    pub fn embed(&self, s: &str) -> BitVec {
        let mut v = BitVec::zeros(self.size());
        self.for_each_position(s, |at| v.set(at));
        v
    }

    /// [`Self::embed`] into bits `offset..offset + m` of a packed
    /// record-level row, which must hold them: the same positions set, no
    /// vector built.
    pub fn embed_at(&self, s: &str, offset: usize, row: &mut [u64]) {
        self.for_each_position(s, |at| {
            let at = offset + at;
            row[at / 64] |= 1 << (at % 64);
        });
    }

    /// Calls `f` with `g(x)` for every q-gram index `x` of `s`, read from
    /// the table when there is one.
    #[inline]
    fn for_each_position(&self, s: &str, mut f: impl FnMut(usize)) {
        let (alphabet, q, padded) = (&self.alphabet, self.q, self.padded);
        match &self.table.0 {
            Some(table) => for_each_qgram_index(s, q, alphabet, padded, |x| {
                f(usize::from(table[x as usize]));
            }),
            None => for_each_qgram_index(s, q, alphabet, padded, |x| {
                f(self.hash.eval(x) as usize);
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn table_3_ncvr_sizes() {
        // Table 3 (ρ = 1, r = 1/3): b = 5.1 → 15, 5.0 → 15, 20.0 → 68,
        // 7.2 → 22; record-level m̄_opt = 120.
        assert_eq!(optimal_m(5.1, 1.0, 1.0 / 3.0), 15);
        assert_eq!(optimal_m(5.0, 1.0, 1.0 / 3.0), 15);
        assert_eq!(optimal_m(20.0, 1.0, 1.0 / 3.0), 68);
        assert_eq!(optimal_m(7.2, 1.0, 1.0 / 3.0), 22);
        assert_eq!(15 + 15 + 68 + 22, 120);
    }

    #[test]
    fn table_3_dblp_sizes() {
        // Table 3: b = 4.8 → 14, 6.2 → 19, 64.8 → 226, 3.0 → 8; total 267.
        assert_eq!(optimal_m(4.8, 1.0, 1.0 / 3.0), 14);
        assert_eq!(optimal_m(6.2, 1.0, 1.0 / 3.0), 19);
        assert_eq!(optimal_m(64.8, 1.0, 1.0 / 3.0), 226);
        assert_eq!(optimal_m(3.0, 1.0, 1.0 / 3.0), 8);
        assert_eq!(14 + 19 + 226 + 8, 267);
    }

    #[test]
    fn m_opt_satisfies_equation_9_at_nominal_r() {
        // Theorem 1 substitutes the ratio b/m with the nominal constant
        // r = 1/3 before solving, so the guarantee it delivers is
        // m·(1 − e^{−r}) ≥ b − ρ (Equation 9 at the nominal r), *not* a
        // hard E[c] ≤ ρ — the residual risk is what the paper calls
        // "confidence 1 − r". Verify the delivered inequality, and that the
        // true expected collision count stays a small fraction of b.
        let (rho, r) = (1.0, 1.0 / 3.0);
        for b in [3.0, 5.1, 7.2, 20.0, 64.8] {
            let m = optimal_m(b, rho, r);
            assert!(
                m as f64 * (1.0 - (-r).exp()) >= b - rho - 1e-9,
                "b={b}: m_opt={m} violates Equation 9"
            );
            let ec = expected_collisions(b, m);
            assert!(ec <= (0.15 * b).max(rho), "b={b}: E[c]={ec} too large");
        }
    }

    #[test]
    fn smaller_r_means_larger_m() {
        let m_half = optimal_m(10.0, 1.0, 0.5);
        let m_third = optimal_m(10.0, 1.0, 1.0 / 3.0);
        let m_fifth = optimal_m(10.0, 1.0, 0.2);
        assert!(m_fifth > m_third && m_third > m_half);
    }

    #[test]
    fn degenerate_b_returns_min_size() {
        assert_eq!(optimal_m(0.5, 1.0, 1.0 / 3.0), 1);
        assert_eq!(optimal_m(1.0, 1.0, 1.0 / 3.0), 1);
    }

    #[test]
    fn expected_set_positions_basic() {
        // Hashing 1 q-gram into m cells sets exactly 1 position.
        assert!((expected_set_positions(1.0, 100) - 1.0).abs() < 1e-9);
        // Infinitely many q-grams saturate the vector.
        assert!(expected_set_positions(1e6, 10) > 9.999);
    }

    fn embedder(m: usize, seed: u64) -> CVectorEmbedder {
        let mut rng = StdRng::seed_from_u64(seed);
        CVectorEmbedder::random(Alphabet::upper(), 2, m, true, &mut rng)
    }

    #[test]
    fn embed_is_deterministic_per_embedder() {
        let e = embedder(15, 1);
        assert_eq!(e.embed("JONES"), e.embed("JONES"));
    }

    #[test]
    fn same_qgrams_map_to_same_positions_across_values() {
        // 'JON' shares bigrams _J and JO with 'JONES'; the shared bigrams
        // must land on identical positions.
        let e = embedder(64, 2);
        let a = e.embed("JONES");
        let b = e.embed("JON");
        // The differing bits can only come from non-shared bigrams:
        // JONES has ON NE ES S_ beyond the shared ones; JON has ON N_.
        // Distance ≤ |sym. difference of q-gram sets| = 3 (NE ES S_ vs N_ → 4?).
        let u1 = e.qgram_set("JONES");
        let u2 = e.qgram_set("JON");
        let sym = u1.symmetric_difference_size(&u2) as u32;
        assert!(a.hamming(&b) <= sym);
    }

    #[test]
    fn distance_preserved_when_no_collisions() {
        // With a generous m, distances in Ĥ should usually equal those in ℋ.
        // Verify over several seeds that at least one embedder is exact and
        // none exceeds the ℋ distance.
        let u_h = 4u32; // JONES vs JONAS in ℋ
        let mut exact = 0;
        for seed in 0..20 {
            let e = embedder(256, seed);
            let d = e.embed("JONES").hamming(&e.embed("JONAS"));
            assert!(d <= u_h, "collision can only shrink distance, got {d}");
            if d == u_h {
                exact += 1;
            }
        }
        assert!(exact >= 18, "only {exact}/20 embedders were exact");
    }

    #[test]
    fn empty_value_embeds_to_zero_vector() {
        let e = embedder(15, 3);
        assert_eq!(e.embed("").count_ones(), 0);
    }

    #[test]
    fn embed_respects_size() {
        let e = embedder(15, 4);
        assert_eq!(e.embed("WASHINGTON").len(), 15);
    }

    #[test]
    #[should_panic(expected = "pad symbol")]
    fn padded_embedder_over_an_alphabet_without_pad_is_refused_at_build() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = CVectorEmbedder::random(Alphabet::new("0123456789"), 2, 8, true, &mut rng);
    }

    #[test]
    fn unpadded_and_unigram_embedders_need_no_pad_symbol() {
        let mut rng = StdRng::seed_from_u64(6);
        let digits = Alphabet::new("0123456789");
        let e = CVectorEmbedder::random(digits.clone(), 2, 8, false, &mut rng);
        assert!(e.embed("1998").count_ones() > 0);
        let e = CVectorEmbedder::random(digits, 1, 8, true, &mut rng);
        assert!(e.embed("1998").count_ones() > 0);
    }

    #[test]
    fn the_table_is_g_over_the_whole_space() {
        for alphabet in [Alphabet::upper(), Alphabet::linkage()] {
            for q in 1..=3 {
                let space = alphabet.qgram_space(q).unwrap();
                for (seed, m) in [(0, 1), (1, 15), (2, 68), (3, 1 << 16)] {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let e = CVectorEmbedder::random(alphabet.clone(), q, m, true, &mut rng);
                    let table = e.table.0.as_deref().expect("a space under 2^16");
                    assert_eq!(table.len() as u64, space, "q = {q}");
                    for (x, &g) in (0..space).zip(table) {
                        assert_eq!(u64::from(g), e.hash.eval(x), "q = {q}, m = {m}, x = {x}");
                    }
                }
            }
        }
    }

    #[test]
    fn past_2_16_the_embedder_evaluates_g() {
        let mut rng = StdRng::seed_from_u64(8);
        // 38⁴ four-grams, and a width past a `u16`.
        for (q, m) in [(4, 64), (2, (1 << 16) + 1)] {
            let e = CVectorEmbedder::random(Alphabet::linkage(), q, m, true, &mut rng);
            assert!(e.table.0.is_none(), "q = {q}, m = {m}");
            let by_definition = BitVec::from_positions(
                m,
                e.qgram_set("WASHINGTON")
                    .indexes()
                    .iter()
                    .map(|&x| e.hash.eval(x) as usize),
            );
            assert_eq!(e.embed("WASHINGTON"), by_definition);
        }
    }

    proptest! {
        #[test]
        fn streamed_embedding_equals_the_set_definition(
            s in "[A-Ca-c0-2 _.éß#-]{0,14}",
            q in 1usize..=3,
            padded in any::<bool>(),
            m in 1usize..=200,
            seed in 0u64..50,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let e = CVectorEmbedder::random(Alphabet::linkage(), q, m, padded, &mut rng);
            let by_definition = BitVec::from_positions(
                m,
                e.qgram_set(&s).indexes().iter().map(|&x| e.hash.eval(x) as usize),
            );
            prop_assert_eq!(e.embed(&s), by_definition);
        }

        #[test]
        fn hamming_in_chat_bounded_by_hamming_in_h(
            a in "[A-Z]{1,10}", b in "[A-Z]{1,10}", seed in 0u64..50
        ) {
            // Collisions only merge positions, so distances can only shrink:
            // u_Ĥ ≤ u_ℋ for any pair and any hash draw.
            let e = embedder(64, seed);
            let u_hat = e.embed(&a).hamming(&e.embed(&b));
            let u_h = e.qgram_set(&a).symmetric_difference_size(&e.qgram_set(&b)) as u32;
            prop_assert!(u_hat <= u_h, "u_hat {u_hat} > u_h {u_h}");
        }

        #[test]
        fn identical_values_are_distance_zero(a in "[A-Z]{0,12}", seed in 0u64..20) {
            let e = embedder(32, seed);
            prop_assert_eq!(e.embed(&a).hamming(&e.embed(&a)), 0);
        }

        #[test]
        fn m_opt_monotone_in_b(b1 in 2.0f64..60.0, db in 0.0f64..20.0) {
            let m1 = optimal_m(b1, 1.0, 1.0 / 3.0);
            let m2 = optimal_m(b1 + db, 1.0, 1.0 / 3.0);
            prop_assert!(m2 >= m1);
        }
    }
}

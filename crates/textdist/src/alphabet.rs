//! The ordered symbol set `S` over which q-grams are formed.
//!
//! The paper (Section 4.1) assumes q-grams over an alphabet `S` and defines a
//! bijection `F` from q-grams to integers in `{0, …, |S|^q − 1}` (Algorithm 1):
//!
//! ```text
//! ind = Σ_{i=1..q} ord(gr[i]) · |S|^(q−i)
//! ```
//!
//! i.e. a q-gram is read as a base-`|S|` numeral. The paper pads values with
//! `'_'` (e.g. `_JONES_`), so the pad symbol must itself be a member of `S`.

use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// The padding symbol used at both ends of a value before q-gram extraction.
pub const PAD: char = '_';

/// An ordered alphabet of symbols with a dense `ord` mapping.
///
/// `Alphabet` fixes the base of the q-gram → index numeral system. Two
/// embeddings are only comparable when built over the same alphabet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alphabet {
    symbols: Vec<char>,
    /// `ord[byte]` for ASCII symbols; `u8::MAX` marks "not in alphabet".
    ord_table: Vec<u8>,
    /// [`Alphabet::fold`]: a byte's ord after upper-casing, built with the
    /// alphabet and never serialized.
    fold: [u8; 256],
}

impl Serialize for Alphabet {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let s: String = self.symbols.iter().collect();
        serializer.serialize_str(&s)
    }
}

impl<'de> Deserialize<'de> for Alphabet {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        if s.is_empty() || !s.is_ascii() {
            return Err(D::Error::custom("alphabet must be non-empty ASCII"));
        }
        let mut seen = [false; 128];
        if s.bytes()
            .any(|b| std::mem::replace(&mut seen[usize::from(b)], true))
        {
            return Err(D::Error::custom("alphabet symbols must be distinct"));
        }
        Ok(Alphabet::new(&s))
    }
}

impl Alphabet {
    /// Builds an alphabet from an ordered list of distinct ASCII symbols.
    ///
    /// # Panics
    /// Panics if `symbols` is empty, contains non-ASCII or duplicate
    /// characters, or has more than 250 symbols (the `ord` table uses `u8`).
    pub fn new(symbols: &str) -> Self {
        let symbols: Vec<char> = symbols.chars().collect();
        assert!(!symbols.is_empty(), "alphabet must be non-empty");
        assert!(symbols.len() <= 250, "alphabet too large for u8 ord table");
        let mut ord_table = vec![u8::MAX; 128];
        for (i, &ch) in symbols.iter().enumerate() {
            assert!(ch.is_ascii(), "alphabet symbols must be ASCII, got {ch:?}");
            let slot = &mut ord_table[ch as usize];
            assert!(*slot == u8::MAX, "duplicate alphabet symbol {ch:?}");
            *slot = i as u8;
        }
        let fold = std::array::from_fn(|b| {
            let upper = usize::from((b as u8).to_ascii_uppercase());
            // Bytes of 0x80 and above (every byte of a multi-byte char)
            // fall outside the 128-entry table, so they fold to u8::MAX.
            ord_table.get(upper).copied().unwrap_or(u8::MAX)
        });
        Self {
            symbols,
            ord_table,
            fold,
        }
    }

    /// The paper's illustrative alphabet: upper-case letters plus the pad
    /// symbol (`|S| = 27`).
    pub fn upper() -> Self {
        let mut s = String::from(PAD);
        s.extend('A'..='Z');
        Self::new(&s)
    }

    /// The default linkage alphabet: pad, upper-case letters, digits, and
    /// space (`|S| = 38`). Suitable for names, addresses, titles, and years.
    pub fn linkage() -> Self {
        let mut s = String::from(PAD);
        s.extend('A'..='Z');
        s.extend('0'..='9');
        s.push(' ');
        Self::new(&s)
    }

    /// Number of symbols `|S|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// True when the alphabet holds no symbols (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Zero-based order of `ch` in `S`, or `None` if `ch` is not a symbol.
    #[inline]
    pub fn ord(&self, ch: char) -> Option<u32> {
        if (ch as usize) < self.ord_table.len() {
            let v = self.ord_table[ch as usize];
            (v != u8::MAX).then_some(u32::from(v))
        } else {
            None
        }
    }

    /// The fold table of [`Alphabet::normalize`], by byte: `fold()[b]` is the
    /// ord of `b` upper-cased, or `u8::MAX` when that is not a symbol. Every
    /// byte of 0x80 and above maps to `u8::MAX`: symbols are ASCII, and the
    /// bytes of a multi-byte UTF-8 char all lie at or above 0x80. So skipping
    /// the `u8::MAX` bytes of a string drops exactly the chars `normalize`
    /// drops, and the rest are the normalized string's ords in order.
    #[inline]
    pub(crate) fn fold(&self) -> &[u8; 256] {
        &self.fold
    }

    /// True if `ch` is a member of the alphabet.
    #[inline]
    pub fn contains(&self, ch: char) -> bool {
        self.ord(ch).is_some()
    }

    /// The ordered symbols.
    pub fn symbols(&self) -> &[char] {
        &self.symbols
    }

    /// The size `m = |S|^q` of the deterministic q-gram vector (Section 4.1).
    ///
    /// Returns `None` on overflow of `u64`.
    pub fn qgram_space(&self, q: usize) -> Option<u64> {
        let base = self.symbols.len() as u64;
        let mut acc: u64 = 1;
        for _ in 0..q {
            acc = acc.checked_mul(base)?;
        }
        Some(acc)
    }

    /// Algorithm 1: maps a q-gram to its index in the q-gram vector.
    ///
    /// The numeral wraps modulo 2⁶⁴ once `|S|^q` exceeds it, in every build,
    /// as the streaming kernel [`crate::for_each_qgram_index`] does.
    ///
    /// Returns `None` when any character falls outside the alphabet.
    pub fn qgram_index(&self, gram: &[char]) -> Option<u64> {
        let base = self.symbols.len() as u64;
        let mut ind: u64 = 0;
        for &ch in gram {
            ind = ind
                .wrapping_mul(base)
                .wrapping_add(u64::from(self.ord(ch)?));
        }
        Some(ind)
    }

    /// Folds an arbitrary string into the alphabet: upper-cases ASCII
    /// letters, keeps member symbols, and drops everything else.
    pub fn normalize(&self, s: &str) -> String {
        s.chars()
            .filter_map(|c| {
                let c = c.to_ascii_uppercase();
                self.contains(c).then_some(c)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upper_matches_paper_size() {
        let a = Alphabet::upper();
        assert_eq!(a.len(), 27);
        assert_eq!(a.qgram_space(2), Some(27 * 27));
    }

    #[test]
    fn ord_is_zero_based_and_ordered() {
        let a = Alphabet::upper();
        assert_eq!(a.ord(PAD), Some(0));
        assert_eq!(a.ord('A'), Some(1));
        assert_eq!(a.ord('Z'), Some(26));
        assert_eq!(a.ord('a'), None);
        assert_eq!(a.ord('9'), None);
    }

    #[test]
    fn qgram_index_is_base_s_numeral() {
        // With S = {_, A..Z}: ord('J')=10, ord('O')=15.
        let a = Alphabet::upper();
        let ind = a.qgram_index(&['J', 'O']).unwrap();
        assert_eq!(ind, 10 * 27 + 15);
    }

    #[test]
    fn qgram_index_rejects_foreign_chars() {
        let a = Alphabet::upper();
        assert_eq!(a.qgram_index(&['J', '9']), None);
    }

    #[test]
    fn qgram_index_bounds() {
        let a = Alphabet::upper();
        let max = a.qgram_index(&['Z', 'Z']).unwrap();
        assert_eq!(max, 27 * 27 - 1);
        let min = a.qgram_index(&[PAD, PAD]).unwrap();
        assert_eq!(min, 0);
    }

    #[test]
    fn normalize_uppercases_and_filters() {
        let a = Alphabet::upper();
        assert_eq!(a.normalize("Jo-nes 3"), "JONES");
        let l = Alphabet::linkage();
        assert_eq!(l.normalize("12 Main St."), "12 MAIN ST");
    }

    #[test]
    fn linkage_covers_addresses() {
        let a = Alphabet::linkage();
        for ch in "ABC XYZ 0189_".chars() {
            assert!(a.contains(ch), "missing {ch:?}");
        }
    }

    #[test]
    fn qgram_index_wraps_past_u64_in_every_build() {
        // 38^13 > 2^64: the 13-gram of Z (ord 26) wraps, in a debug build
        // too, to the numeral computed modulo 2^64.
        let a = Alphabet::linkage();
        assert!(a.qgram_space(13).is_none());
        let wrapped = (0..13).fold(0u64, |i, _| i.wrapping_mul(38).wrapping_add(26));
        assert_eq!(a.qgram_index(&['Z'; 13]), Some(wrapped));
    }

    #[test]
    fn fold_is_ord_after_upper_casing_and_drops_non_ascii() {
        for a in [Alphabet::upper(), Alphabet::linkage(), Alphabet::new("_ab")] {
            for b in 0..=255u8 {
                let folded = a.fold()[usize::from(b)];
                let want = if b.is_ascii() {
                    a.ord(char::from(b.to_ascii_uppercase()))
                } else {
                    None
                };
                assert_eq!(
                    (folded != u8::MAX).then_some(u32::from(folded)),
                    want,
                    "byte {b:#x}"
                );
            }
        }
        // Lower-case symbols are unreachable after folding.
        let lower = Alphabet::new("_ab");
        assert_eq!(lower.fold()[usize::from(b'a')], u8::MAX);
        assert_eq!(lower.fold()[usize::from(b'_')], 0);
    }

    #[test]
    fn qgram_space_overflow_is_none() {
        let a = Alphabet::linkage();
        assert!(a.qgram_space(64).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_symbols_panic() {
        let _ = Alphabet::new("AAB");
    }

    #[test]
    fn a_document_with_a_repeated_symbol_is_refused() {
        let doc = |s: &str| serde::from_value::<Alphabet>(serde::value::Value::String(s.into()));
        assert!(doc("_AB").is_ok());
        let err = doc("_ABA").unwrap_err();
        assert!(err.to_string().contains("distinct"), "{err}");
    }

    #[test]
    fn reconstruction_from_symbols_matches() {
        // Mirrors the serde round trip: serialize to the symbol string,
        // rebuild via `new`, and compare behaviour.
        let a = Alphabet::linkage();
        let s: String = a.symbols().iter().collect();
        let b = Alphabet::new(&s);
        assert_eq!(a, b);
        assert_eq!(b.ord('A'), a.ord('A'));
    }
}

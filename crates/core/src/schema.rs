//! Record schemas: per-attribute embedding configuration and embedded
//! records.
//!
//! A [`RecordSchema`] fixes, for each of the `n_f` common attributes, the
//! q-gram length, padding mode, c-vector size `m_opt^(f_i)`, and the number
//! of base hash functions `K^(f_i)` used by attribute-level blocking
//! (Table 3 of the paper is exactly such a schema).
//!
//! **Rows.** The engine keeps a record as what the paper says it is: the
//! record-level c-vector of size `m̄_opt`, the attribute vectors concatenated
//! bit-contiguously into one *row* of `⌈m̄/64⌉` words (two for the 120-bit
//! NCVR record). [`RecordSchema::embed_row`] streams the q-gram positions of
//! every field straight into the row's bits — no vector per attribute, no
//! allocation — and a [`RowLayout`], derived from the attribute widths, says
//! which `(word, mask)` pieces of a row are attribute `i`, so a distance is
//! `popcount((a ^ b) & mask)` over one or two words. A record that is bit
//! vectors already — a keyed PPRL encoding, BfH's Bloom filters — becomes a
//! row by [`RowLayout::push_row`], which checks every attribute's width.
//!
//! **The unpacked reference.** [`RecordSchema::embed`] and
//! [`EmbeddedRecord`] — one [`BitVec`] per attribute — stay as the
//! definition the rows are tested against (`embed_row` writes exactly the
//! words of [`EmbeddedRecord::pack_into`]; layout distances equal
//! [`EmbeddedRecord::attr_distance`]) and as what the serialized documents
//! hold. The `&EmbeddedRecord` entry points of the blocking plan and the
//! matcher are adapters: they pack the record ([`EmbeddedRecord::packed`], on
//! the stack up to 512 bits) and call the row path.

use crate::cvector::{optimal_m, CVectorEmbedder};
use crate::error::{Error, Result, SchemaError};
use crate::record::{Record, RecordView};
use rand::Rng;
use rl_bitvec::BitVec;
use rl_blockstore::prefetch;
use serde::{Deserialize, Deserializer, Serialize};
use textdist::{qgram_count, Alphabet};

/// Configuration of one linkage attribute `f_i`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttributeSpec {
    /// Human-readable attribute name (e.g. `"LastName"`).
    pub name: String,
    /// q-gram length (the paper uses bigrams, `q = 2`).
    pub q: usize,
    /// c-vector size `m_opt` in bits.
    pub m: usize,
    /// Whether values are padded with `_` before q-gram extraction.
    ///
    /// Padding makes the error → distance correspondence of Section 5.1
    /// uniform at string boundaries; the paper's Table 3 statistics are
    /// consistent with unpadded counting (a 4-character year has `b = 3`),
    /// so the paper-parameter presets use `padded = false`.
    pub padded: bool,
    /// Number of base hash functions `K^(f_i)` for attribute-level blocking.
    pub k: u32,
}

impl AttributeSpec {
    /// Creates a spec with an explicit c-vector size.
    pub fn new(name: impl Into<String>, q: usize, m: usize, padded: bool, k: u32) -> Self {
        Self {
            name: name.into(),
            q,
            m,
            padded,
            k,
        }
    }

    /// Creates a spec whose size is derived from the attribute's average
    /// q-gram count `b` via Theorem 1 (`m_opt = ⌈(b − ρ)/(1 − e^{−r})⌉`).
    pub fn sized_for(
        name: impl Into<String>,
        q: usize,
        b: f64,
        rho: f64,
        r: f64,
        padded: bool,
        k: u32,
    ) -> Self {
        Self::new(name, q, optimal_m(b, rho, r), padded, k)
    }

    /// Estimates `b` from a sample of values and derives the size, the way
    /// the paper's linkage unit does ("by sampling randomly and uniformly
    /// strings from the data sets and computing b", Section 5.2).
    pub fn fitted<'a, I>(
        name: impl Into<String>,
        q: usize,
        sample: I,
        rho: f64,
        r: f64,
        padded: bool,
        k: u32,
    ) -> Self
    where
        I: IntoIterator<Item = &'a str>,
    {
        let b = measure_b(sample, q, padded);
        Self::sized_for(name, q, b, rho, r, padded, k)
    }
}

/// Average q-gram count of a sample under a padding mode — exposed for the
/// Table 3 experiment.
pub fn measure_b<'a, I>(sample: I, q: usize, padded: bool) -> f64
where
    I: IntoIterator<Item = &'a str>,
{
    let mut total = 0usize;
    let mut n = 0usize;
    for v in sample {
        total += qgram_count(v, q, padded);
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64
    }
}

/// A complete schema: the alphabet, the attribute specs, and the drawn
/// per-attribute embedders.
///
/// A document loads only as a schema whose embedders are its specs': one
/// per spec, each of the spec's `q`, `m` and padding and over the schema's
/// alphabet ([`SchemaError`]), so a loaded schema embeds every record into
/// rows of its own layout. An embedder builds its position table as it
/// loads ([`CVectorEmbedder`]).
#[derive(Debug, Clone, Serialize)]
pub struct RecordSchema {
    alphabet: Alphabet,
    specs: Vec<AttributeSpec>,
    embedders: Vec<CVectorEmbedder>,
}

/// A [`RecordSchema`] document, before it is checked.
#[derive(Deserialize)]
struct SchemaDoc {
    alphabet: Alphabet,
    specs: Vec<AttributeSpec>,
    embedders: Vec<CVectorEmbedder>,
}

impl<'de> Deserialize<'de> for RecordSchema {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> std::result::Result<Self, D::Error> {
        use serde::de::Error as _;
        let SchemaDoc {
            alphabet,
            specs,
            embedders,
        } = SchemaDoc::deserialize(deserializer)?;
        let schema = Self {
            alphabet,
            specs,
            embedders,
        };
        schema.check_embedders().map_err(D::Error::custom)?;
        Ok(schema)
    }
}

impl RecordSchema {
    /// Builds a schema, drawing one position hash per attribute.
    ///
    /// # Panics
    /// Panics if `specs` is empty.
    pub fn build<R: Rng + ?Sized>(
        alphabet: Alphabet,
        specs: Vec<AttributeSpec>,
        rng: &mut R,
    ) -> Self {
        assert!(!specs.is_empty(), "schema needs at least one attribute");
        let embedders = specs
            .iter()
            .map(|s| CVectorEmbedder::random(alphabet.clone(), s.q, s.m, s.padded, rng))
            .collect();
        Self {
            alphabet,
            specs,
            embedders,
        }
    }

    /// That the embedders are the specs': one per spec, each of its spec's
    /// `q`, `m` and padding, over the schema's alphabet.
    fn check_embedders(&self) -> std::result::Result<(), SchemaError> {
        if self.embedders.len() != self.specs.len() {
            return Err(SchemaError::EmbedderCount {
                embedders: self.embedders.len(),
                specs: self.specs.len(),
            });
        }
        for (attr, (spec, e)) in self.specs.iter().zip(&self.embedders).enumerate() {
            let (spec, embedder) = ((spec.q, spec.m, spec.padded), (e.q(), e.size(), e.padded()));
            if spec != embedder {
                return Err(SchemaError::SpecMismatch {
                    attr,
                    spec,
                    embedder,
                });
            }
            if *e.alphabet() != self.alphabet {
                return Err(SchemaError::AlphabetMismatch { attr });
            }
        }
        Ok(())
    }

    /// The attribute specs.
    pub fn specs(&self) -> &[AttributeSpec] {
        &self.specs
    }

    /// Number of attributes `n_f`.
    pub fn num_attributes(&self) -> usize {
        self.specs.len()
    }

    /// The record-level c-vector size `m̄_opt = Σ_i m_opt^(f_i)`.
    pub fn total_size(&self) -> usize {
        self.specs.iter().map(|s| s.m).sum()
    }

    /// The alphabet shared by all attributes.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The per-attribute embedders.
    pub fn embedders(&self) -> &[CVectorEmbedder] {
        &self.embedders
    }

    /// Everything that can make [`Self::embed`] refuse `record`, without
    /// embedding it: a caller that must validate before it commits (the
    /// server logs a mutation before applying it) checks, then embeds once.
    ///
    /// # Errors
    /// Returns [`Error::FieldCountMismatch`] when the record's field count
    /// differs from the schema's attribute count.
    pub fn check(&self, record: &impl RecordView) -> Result<()> {
        if record.field_count() != self.specs.len() {
            return Err(Error::FieldCountMismatch {
                found: record.field_count(),
                expected: self.specs.len(),
            });
        }
        Ok(())
    }

    /// Embeds a record into per-attribute c-vectors.
    ///
    /// # Errors
    /// Returns [`Error::FieldCountMismatch`] when the record's field count
    /// differs from the schema's attribute count.
    pub fn embed(&self, record: &Record) -> Result<EmbeddedRecord> {
        self.check(record)?;
        let attrs = self
            .embedders
            .iter()
            .zip(&record.fields)
            .map(|(e, v)| e.embed(v))
            .collect();
        Ok(EmbeddedRecord {
            id: record.id,
            attrs,
        })
    }

    /// Embeds a batch of records.
    pub fn embed_all(&self, records: &[Record]) -> Result<Vec<EmbeddedRecord>> {
        records.iter().map(|r| self.embed(r)).collect()
    }

    /// Words in a packed record-level c-vector: `⌈m̄_opt / 64⌉`.
    pub fn row_words(&self) -> usize {
        self.total_size().div_ceil(64)
    }

    /// Where each attribute sits in a row of this schema.
    pub fn layout(&self) -> RowLayout {
        RowLayout::from_widths(self.specs.iter().map(|s| s.m))
    }

    /// Embeds a record into `row`, overwriting it: the words
    /// [`Self::embed`] followed by [`EmbeddedRecord::pack_into`] would
    /// give, with nothing allocated.
    ///
    /// # Errors
    /// Returns [`Error::FieldCountMismatch`] when the record's field count
    /// differs from the schema's attribute count.
    ///
    /// # Panics
    /// Panics if `row` is not [`Self::row_words`] long.
    pub fn embed_row(&self, record: &impl RecordView, row: &mut [u64]) -> Result<()> {
        self.check(record)?;
        assert_eq!(row.len(), self.row_words(), "row of another schema");
        row.fill(0);
        let mut offset = 0;
        for (e, v) in self.embedders.iter().zip(record.fields()) {
            e.embed_at(v, offset, row);
            offset += e.size();
        }
        Ok(())
    }

    /// Embeds a batch into `rows`, one row after the other (record `i` at
    /// `rows[i * w..(i + 1) * w]`, `w` = [`Self::row_words`]): one buffer
    /// for the batch, reusable from batch to batch.
    ///
    /// A record's strings are two dependent heap reads away (its `fields`
    /// buffer, then each value's bytes), and a batch's strings need not lie
    /// in batch order. So before it embeds record `i`, the loop asks the
    /// cache for record `i + EMBED_AHEAD`'s `fields` buffer and for the
    /// value bytes of record `i + EMBED_AHEAD / 2`, whose `fields` it asked
    /// for half a lead ago (group prefetching, as in
    /// [`crate::matcher::match_batch`]).
    ///
    /// # Errors
    /// As [`Self::embed_row`], for the first malformed record.
    pub fn embed_rows(&self, records: &[Record], rows: &mut Vec<u64>) -> Result<()> {
        let w = self.row_words();
        rows.resize(records.len() * w, 0);
        for (i, row) in rows.chunks_exact_mut(w).enumerate() {
            if let Some(ahead) = records.get(i + EMBED_AHEAD) {
                // Its first and last byte: the buffer can straddle a line.
                let fields = ahead.fields.as_ptr_range();
                prefetch(fields.start);
                prefetch(fields.end.cast::<u8>().wrapping_sub(1));
            }
            if let Some(ahead) = records.get(i + EMBED_AHEAD / 2) {
                for v in ahead.fields.iter().take(self.specs.len()) {
                    prefetch(v.as_ptr());
                }
            }
            self.embed_row(&records[i], row)?;
        }
        Ok(())
    }

    /// [`Self::embed_rows`] of records read in place, without the
    /// look-ahead: their bytes lie in the buffer they were read from, in
    /// batch order.
    ///
    /// # Errors
    /// As [`Self::embed_row`], for the first malformed record.
    pub fn embed_views<V: RecordView>(
        &self,
        records: impl IntoIterator<Item = V>,
        rows: &mut Vec<u64>,
    ) -> Result<()> {
        let w = self.row_words();
        let records = records.into_iter();
        rows.clear();
        rows.reserve(records.size_hint().0 * w);
        for record in records {
            let at = rows.len();
            rows.resize(at + w, 0);
            self.embed_row(&record, &mut rows[at..])?;
        }
        Ok(())
    }

    /// A batch embedded by [`Self::embed_rows`], as `(id, row)`s.
    pub fn rows_of<'a>(
        &self,
        records: &'a [Record],
        rows: &'a [u64],
    ) -> impl Iterator<Item = (u64, &'a [u64])> + Clone {
        let ids = records.iter().map(|r| r.id);
        ids.zip(rows.chunks_exact(self.row_words()))
    }
}

/// How many records ahead [`RecordSchema::embed_rows`] asks the cache for a
/// record's `fields` buffer; its value bytes are asked for half as far
/// ahead.
pub const EMBED_AHEAD: usize = 8;

/// Where each attribute's bits sit in a packed record-level c-vector, as
/// `(word, mask)` pieces: an attribute that fits one word is one piece, one
/// that straddles a boundary two, a wide one more. Derived from the
/// attribute widths alone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowLayout {
    widths: Vec<usize>,
    /// Every attribute's pieces, attribute after attribute.
    pieces: Vec<(u32, u64)>,
    /// Attribute `i`'s pieces are `pieces[starts[i]..starts[i + 1]]`.
    starts: Vec<u32>,
    /// Words in a row: `⌈Σ m_i / 64⌉`.
    words: usize,
}

impl RowLayout {
    /// The layout of attributes of these widths, concatenated in order.
    pub fn from_widths(widths: impl IntoIterator<Item = usize>) -> Self {
        let widths: Vec<usize> = widths.into_iter().collect();
        let (mut pieces, mut starts) = (Vec::new(), vec![0u32]);
        let mut offset = 0usize;
        for &m in &widths {
            let end = offset + m;
            for word in offset / 64..end.div_ceil(64) {
                // The bits of `word` inside `offset..end`.
                let lo = offset.max(word * 64) - word * 64;
                let hi = end.min(word * 64 + 64) - word * 64;
                if hi > lo {
                    let mask = (u64::MAX >> (64 - (hi - lo))) << lo;
                    pieces.push((word as u32, mask));
                }
            }
            starts.push(pieces.len() as u32);
            offset = end;
        }
        Self {
            widths,
            pieces,
            starts,
            words: offset.div_ceil(64),
        }
    }

    /// Attribute widths `m_i` in bits, in order.
    pub fn widths(&self) -> &[usize] {
        &self.widths
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.widths.len()
    }

    /// Words in a row: `⌈Σ m_i / 64⌉`.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Bits in a row that are an attribute's: `m̄ = Σ m_i`.
    pub fn bits(&self) -> usize {
        self.widths.iter().sum()
    }

    /// Hamming distance of rows `a` and `b` on attribute `i`: `u_Ĥ^(f_i)`.
    #[inline]
    pub fn distance(&self, a: &[u64], b: &[u64], i: usize) -> u32 {
        self.pieces(i)
            .iter()
            .map(|&(word, mask)| ((a[word as usize] ^ b[word as usize]) & mask).count_ones())
            .sum()
    }

    /// Attribute `i`'s bits as `(word, mask)` pieces, low word first.
    pub(crate) fn pieces(&self, i: usize) -> &[(u32, u64)] {
        &self.pieces[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// Record-level Hamming distance of two rows (their bits past `m̄` are
    /// zero, so whole words are compared).
    #[inline]
    pub fn total_distance(&self, a: &[u64], b: &[u64]) -> u32 {
        a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum()
    }

    /// Appends to `rows` the row of a record given as attribute vectors
    /// `attrs` of this layout's widths (a record that is bit vectors
    /// already, with no schema to embed it).
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] naming both widths when `attrs` has
    /// another arity or an attribute of another width; `rows` is then
    /// unchanged.
    pub fn push_row(&self, attrs: &[BitVec], rows: &mut Vec<u64>) -> Result<()> {
        if !attrs
            .iter()
            .map(BitVec::len)
            .eq(self.widths.iter().copied())
        {
            let found: Vec<usize> = attrs.iter().map(BitVec::len).collect();
            return Err(Error::InvalidParameter(format!(
                "attribute widths {found:?}, the layout's {:?}",
                self.widths
            )));
        }
        let start = rows.len();
        rows.resize(start + self.words, 0);
        pack(attrs, &mut rows[start..]);
        Ok(())
    }

    /// The row as the unpacked reference record (what documents hold).
    pub fn unpack(&self, id: u64, row: &[u64]) -> EmbeddedRecord {
        let mut offset = 0;
        let attrs = self
            .widths
            .iter()
            .map(|&m| {
                let bit = |p: &usize| row[(offset + p) / 64] >> ((offset + p) % 64) & 1 == 1;
                let v = BitVec::from_positions(m, (0..m).filter(bit));
                offset += m;
                v
            })
            .collect();
        EmbeddedRecord { id, attrs }
    }
}

/// Records of up to this many words (512 bits) are packed on the stack.
pub(crate) const STACK_WORDS: usize = 8;

/// A record-level c-vector packed from an [`EmbeddedRecord`]: on the stack
/// up to 512 bits, on the heap beyond. What the `&EmbeddedRecord` adapters
/// hand the row path.
#[derive(Debug, Clone)]
pub struct PackedRow {
    stack: [u64; STACK_WORDS],
    heap: Vec<u64>,
    words: usize,
}

impl AsRef<[u64]> for PackedRow {
    #[inline]
    fn as_ref(&self) -> &[u64] {
        if self.words <= STACK_WORDS {
            &self.stack[..self.words]
        } else {
            &self.heap
        }
    }
}

/// A record embedded into Ĥ: one c-vector per attribute.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EmbeddedRecord {
    /// The source record's identifier.
    pub id: u64,
    /// Attribute-level c-vectors, in schema order.
    pub attrs: Vec<BitVec>,
}

impl EmbeddedRecord {
    /// Hamming distance on attribute `i`: `u_Ĥ^(f_i)`.
    #[inline]
    pub fn attr_distance(&self, other: &Self, i: usize) -> u32 {
        self.attrs[i].hamming(&other.attrs[i])
    }

    /// All attribute distances at once.
    pub fn distances(&self, other: &Self) -> Vec<u32> {
        (0..self.attrs.len())
            .map(|i| self.attr_distance(other, i))
            .collect()
    }

    /// Record-level Hamming distance (sum over attributes — identical to
    /// the distance between the concatenated vectors).
    pub fn total_distance(&self, other: &Self) -> u32 {
        (0..self.attrs.len())
            .map(|i| self.attr_distance(other, i))
            .sum()
    }

    /// Materializes the record-level c-vector (size `m̄_opt`).
    pub fn concat(&self) -> BitVec {
        BitVec::concat(self.attrs.iter())
    }

    /// Size of the record-level c-vector, `Σ_i |attrs[i]|` bits.
    pub fn total_bits(&self) -> usize {
        self.attrs.iter().map(BitVec::len).sum()
    }

    /// Writes the record-level c-vector into `words` — the attribute
    /// vectors concatenated bit-contiguously, exactly the words of
    /// [`Self::concat`] — without allocating: whole words are shifted into
    /// place. `words` must be zeroed and hold [`Self::total_bits`] bits.
    ///
    /// # Panics
    /// Panics if `words` is too short.
    pub fn pack_into(&self, words: &mut [u64]) {
        pack(&self.attrs, words);
    }

    /// The record-level c-vector as a row: [`Self::pack_into`] a buffer of
    /// its own.
    pub fn packed(&self) -> PackedRow {
        let words = self.total_bits().div_ceil(64);
        let mut row = PackedRow {
            stack: [0; STACK_WORDS],
            heap: Vec::new(),
            words,
        };
        if words <= STACK_WORDS {
            self.pack_into(&mut row.stack[..words]);
        } else {
            row.heap = vec![0; words];
            self.pack_into(&mut row.heap);
        }
        row
    }
}

/// Writes `attrs` concatenated bit-contiguously into the zeroed `words`:
/// whole words are shifted into place. A [`BitVec`] holds `⌈len/64⌉` words
/// with zero padding (its deserializer refuses anything else), so no bit
/// spills into a neighbour.
fn pack(attrs: &[BitVec], words: &mut [u64]) {
    let mut offset = 0usize;
    for v in attrs {
        for (i, &w) in v.words().iter().enumerate() {
            let at = offset + 64 * i;
            let (word, shift) = (at / 64, at % 64);
            words[word] |= w << shift;
            if shift != 0 && w >> (64 - shift) != 0 {
                words[word + 1] |= w >> (64 - shift);
            }
        }
        offset += v.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ncvr_like_schema(seed: u64) -> RecordSchema {
        let mut rng = StdRng::seed_from_u64(seed);
        RecordSchema::build(
            Alphabet::linkage(),
            vec![
                AttributeSpec::new("FirstName", 2, 15, false, 5),
                AttributeSpec::new("LastName", 2, 15, false, 5),
                AttributeSpec::new("Address", 2, 68, false, 10),
                AttributeSpec::new("Town", 2, 22, false, 10),
            ],
            &mut rng,
        )
    }

    #[test]
    fn paper_record_size_is_120_bits() {
        let s = ncvr_like_schema(1);
        assert_eq!(s.total_size(), 120);
        assert_eq!(s.num_attributes(), 4);
        assert_eq!(s.layout().widths(), [15, 15, 68, 22]);
    }

    #[test]
    fn embed_produces_one_vector_per_attribute() {
        let s = ncvr_like_schema(2);
        let r = Record::new(1, ["JOHN", "SMITH", "12 OAK STREET", "DURHAM"]);
        let e = s.embed(&r).unwrap();
        assert_eq!(e.attrs.len(), 4);
        assert_eq!(e.attrs[0].len(), 15);
        assert_eq!(e.attrs[2].len(), 68);
        assert_eq!(e.concat().len(), 120);
    }

    #[test]
    fn field_count_mismatch_is_error() {
        let s = ncvr_like_schema(3);
        let r = Record::new(1, ["JOHN", "SMITH"]);
        assert!(matches!(
            s.embed(&r),
            Err(Error::FieldCountMismatch {
                found: 2,
                expected: 4
            })
        ));
    }

    #[test]
    fn total_distance_decomposes_per_attribute() {
        let s = ncvr_like_schema(4);
        let r1 = Record::new(1, ["JOHN", "SMITH", "12 OAK STREET", "DURHAM"]);
        let r2 = Record::new(2, ["JOHN", "SMYTH", "12 OAK STREET", "DURAM"]);
        let e1 = s.embed(&r1).unwrap();
        let e2 = s.embed(&r2).unwrap();
        let per_attr: u32 = e1.distances(&e2).iter().sum();
        assert_eq!(e1.total_distance(&e2), per_attr);
        assert_eq!(e1.concat().hamming(&e2.concat()), per_attr);
        assert_eq!(e1.attr_distance(&e2, 0), 0);
        assert!(e1.attr_distance(&e2, 1) > 0);
    }

    #[test]
    fn packed_words_are_the_words_of_the_concatenation() {
        let s = ncvr_like_schema(8);
        let e = s
            .embed(&Record::new(
                1,
                ["JOHN", "SMITH", "12 OAK STREET", "DURHAM"],
            ))
            .unwrap();
        assert_eq!(e.total_bits(), 120);
        let mut words = [0u64; 2];
        e.pack_into(&mut words);
        assert_eq!(&words[..], e.concat().words());
        // Widths that end on, straddle and fill word boundaries.
        for widths in [
            vec![64, 64],
            vec![63, 2, 63],
            vec![1, 128, 5],
            vec![70, 70, 70],
        ] {
            let attrs: Vec<BitVec> = widths
                .iter()
                .map(|&m| BitVec::from_positions(m, (0..m).filter(|p| p % 3 != 1)))
                .collect();
            let e = EmbeddedRecord { id: 0, attrs };
            let mut words = vec![0u64; e.total_bits().div_ceil(64)];
            e.pack_into(&mut words);
            assert_eq!(words, e.concat().words(), "{widths:?}");
        }
    }

    #[test]
    fn fitted_spec_reproduces_table3_first_name() {
        // Average unpadded bigram count 5.1 → m_opt = 15.
        // Sample engineered to have mean 5.1: lengths 6.1 on average.
        let mut sample: Vec<&str> = vec!["ABCDEFG"; 9]; // 6 bigrams each
        sample.push("ABC"); // 2 bigrams → mean (54+2)/10 = 5.6
        let spec = AttributeSpec::fitted("F", 2, sample.iter().copied(), 1.0, 1.0 / 3.0, false, 5);
        assert_eq!(spec.m, optimal_m(5.6, 1.0, 1.0 / 3.0));
    }

    #[test]
    fn measure_b_modes() {
        // "YEAR" → padded 5 bigrams, unpadded 3 (Table 3's Year b = 3.0).
        assert_eq!(measure_b(["1998"], 2, true), 5.0);
        assert_eq!(measure_b(["1998"], 2, false), 3.0);
    }

    #[test]
    fn embedding_is_stable_within_schema() {
        let s = ncvr_like_schema(5);
        let r = Record::new(9, ["MARY", "JONES", "4 ELM AVENUE", "CARY"]);
        assert_eq!(s.embed(&r).unwrap(), s.embed(&r).unwrap());
    }

    #[test]
    fn different_schemas_differ() {
        // Different seeds draw different position hashes, so embeddings are
        // schema-specific (Charlie must use one schema for both data sets).
        let s1 = ncvr_like_schema(6);
        let s2 = ncvr_like_schema(7);
        let r = Record::new(9, ["MARY", "JONES", "4 ELM AVENUE", "CARY"]);
        assert_ne!(s1.embed(&r).unwrap(), s2.embed(&r).unwrap());
    }
}

//! The three-party protocol simulation (Section 3's setting, privatized).
//!
//! Data custodians Alice and Bob hold raw records; the linkage unit
//! Charlie must identify cross-set matches *without ever seeing a string*.
//! Message flow:
//!
//! ```text
//! Alice ──EncodedDataset──▶
//!                           Charlie: HB blocking + matching on bit vectors
//! Bob   ──EncodedDataset──▶          └──▶ (id_A, id_B) pairs
//! ```
//!
//! The `EncodedDataset` wire format carries only record ids and keyed
//! c-vectors (serialized to bytes); Charlie's entire computation is the
//! Hamming-space machinery of the base crate. The encodings are fixed-width
//! bit vectors, so each record is packed into one row under a
//! [`RowLayout`] of their widths ([`RowLayout::push_row`]), A's rows are
//! indexed into a record-level [`BlockingPlan`] and a [`RecordSlab`]
//! ([`index_row`]), and B's rows are probed and classified by
//! [`match_batch`] under the rule `∧_i u^(f_i) ≤ θ_i` — the engine's own
//! blocking and matching, not a copy of it.

use crate::keyed::KeyedEmbedder;
use bytes::Bytes;
use cbv_hb::blocking::{BlockingPlan, ProbeScratch, TableCount};
use cbv_hb::matcher::{index_row, match_batch, Classifier, MatchStats, RecordSlab};
use cbv_hb::schema::RowLayout;
use cbv_hb::{Record, Rule};
use rand::Rng;
use rl_bitvec::BitVec;
use serde::{Deserialize, Serialize};
use std::iter;

/// One encoded record on the wire: an id and per-attribute bit vectors.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncodedRecord {
    /// Record id (meaningful only to its custodian).
    pub id: u64,
    /// Keyed c-vectors per attribute.
    pub attrs: Vec<BitVec>,
}

/// A custodian's outgoing message: the whole encoded data set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncodedDataset {
    /// Custodian name (e.g. `"alice"`).
    pub party: String,
    /// Encoded records.
    pub records: Vec<EncodedRecord>,
}

impl EncodedDataset {
    /// Serializes to a wire buffer (JSON body; the format is part of the
    /// protocol simulation, not a performance claim).
    ///
    /// # Panics
    /// Panics if serialization fails (programmer error).
    pub fn to_bytes(&self) -> Bytes {
        Bytes::from(serde_json::to_vec(self).expect("serializable dataset"))
    }

    /// Deserializes from a wire buffer.
    ///
    /// # Errors
    /// Returns a message describing the malformed payload.
    pub fn from_bytes(bytes: &Bytes) -> Result<Self, String> {
        serde_json::from_slice(bytes).map_err(|e| format!("malformed EncodedDataset: {e}"))
    }

    /// Every record packed into a row of `layout`, one after the other.
    ///
    /// # Errors
    /// Names the party and the first record whose arity or attribute
    /// widths are not the layout's.
    fn rows(&self, layout: &RowLayout) -> Result<Vec<u64>, String> {
        let mut rows = Vec::with_capacity(self.records.len() * layout.words());
        for r in &self.records {
            layout
                .push_row(&r.attrs, &mut rows)
                .map_err(|e| format!("{}: record {}: {e}", self.party, r.id))?;
        }
        Ok(rows)
    }
}

/// A data custodian: owns raw records and a keyed embedder.
#[derive(Debug)]
pub struct DataCustodian {
    name: String,
    embedder: KeyedEmbedder,
}

impl DataCustodian {
    /// Creates a custodian.
    pub fn new(name: impl Into<String>, embedder: KeyedEmbedder) -> Self {
        Self {
            name: name.into(),
            embedder,
        }
    }

    /// Encodes the custodian's records for transmission. Raw strings never
    /// leave this function.
    ///
    /// # Panics
    /// Panics if a record's arity does not match the embedder.
    pub fn encode(&self, records: &[Record]) -> EncodedDataset {
        EncodedDataset {
            party: self.name.clone(),
            records: records
                .iter()
                .map(|r| EncodedRecord {
                    id: r.id,
                    attrs: self.embedder.embed(r),
                })
                .collect(),
        }
    }
}

/// Charlie: blocks and matches encoded data sets.
///
/// Works directly on the attribute bit vectors with record-level HB
/// (Section 4.2); thresholds are agreed upon by the custodians and shipped
/// as protocol parameters, not data.
#[derive(Debug)]
pub struct LinkageUnit {
    /// Per-attribute Hamming thresholds for classification.
    pub thetas: Vec<u32>,
    /// Record-level blocking threshold.
    pub block_theta: u32,
    /// Base hashes per composite key.
    pub k: u32,
    /// Failure budget δ.
    pub delta: f64,
}

impl LinkageUnit {
    /// Standard parameters: per-attribute θ = 4, K = 30, δ = 0.1.
    pub fn with_thetas(thetas: Vec<u32>) -> Self {
        let block_theta = thetas.iter().sum();
        Self {
            thetas,
            block_theta,
            k: 30,
            delta: 0.1,
        }
    }

    /// The record-level plan Charlie blocks rows of `layout` with: keys of
    /// `K` bits sampled from the `m̄ = Σ m_i` concatenated bits, `L` from
    /// Equation 2 for `block_theta` and δ.
    ///
    /// # Errors
    /// Returns the plan's configuration error (e.g. `block_theta > m̄`).
    pub fn plan<R: Rng + ?Sized>(
        &self,
        layout: &RowLayout,
        rng: &mut R,
    ) -> Result<BlockingPlan, String> {
        let tables = TableCount::Equation2 {
            delta: self.delta,
            flips: 0,
        };
        BlockingPlan::record_level_over(layout, self.block_theta, self.k, tables, rng)
            .map_err(|e| e.to_string())
    }

    /// Links two encoded data sets, returning `(id_A, id_B)` pairs and
    /// matching counters. The first record of A (else of B) fixes the
    /// attribute widths; A is indexed, and B probed, under record
    /// positions, so an id may repeat within a data set.
    ///
    /// # Errors
    /// Returns a message naming the party and the record when a record's
    /// arity is not that of the thresholds or an attribute's width differs
    /// from the first record's, and the plan's error when it cannot be
    /// built.
    pub fn link<R: Rng + ?Sized>(
        &self,
        a: &EncodedDataset,
        b: &EncodedDataset,
        rng: &mut R,
    ) -> Result<(Vec<(u64, u64)>, MatchStats), String> {
        let (mut pairs, mut stats) = (Vec::new(), MatchStats::default());
        let Some(first) = a.records.iter().chain(&b.records).next() else {
            return Ok((pairs, stats));
        };
        // The first record's widths, one per threshold: a record of another
        // arity, the first included, fails its packing.
        let widths = first.attrs.iter().map(BitVec::len).chain(iter::repeat(0));
        let layout = RowLayout::from_widths(widths.take(self.thetas.len()));
        let (rows_a, rows_b) = (a.rows(&layout)?, b.rows(&layout)?);
        if layout.bits() == 0 {
            return Ok((pairs, stats));
        }
        let mut plan = self.plan(&layout, rng)?;
        let w = layout.words();
        let mut slab = RecordSlab::new(layout);
        for (pos, row) in rows_a.chunks_exact(w).enumerate() {
            index_row(&mut plan, &mut slab, pos as u64, row);
        }
        let preds = self
            .thetas
            .iter()
            .enumerate()
            .map(|(i, &t)| Rule::pred(i, t));
        let probes = rows_b
            .chunks_exact(w)
            .enumerate()
            .map(|(pos, row)| (pos as u64, row));
        match_batch(
            &plan,
            &slab,
            probes,
            &Classifier::Rule(Rule::and(preds)),
            &mut ProbeScratch::default(),
            &mut stats,
            &mut pairs,
        );
        let id = |d: &EncodedDataset, pos: u64| d.records[pos as usize].id;
        let matches = pairs
            .into_iter()
            .map(|(pa, pb)| (id(a, pa), id(b, pb)))
            .collect();
        Ok((matches, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyed::{KeyedAttribute, SecretKey};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use textdist::Alphabet;

    fn embedder(seed: u64) -> KeyedEmbedder {
        let mut rng = StdRng::seed_from_u64(seed);
        KeyedEmbedder::new(
            SecretKey::from_words([9, 8, 7, 6]),
            Alphabet::linkage(),
            vec![
                KeyedAttribute {
                    m: 15,
                    q: 2,
                    padded: false,
                },
                KeyedAttribute {
                    m: 15,
                    q: 2,
                    padded: false,
                },
                KeyedAttribute {
                    m: 68,
                    q: 2,
                    padded: false,
                },
            ],
            &mut rng,
        )
    }

    #[test]
    fn end_to_end_private_linkage() {
        let alice = DataCustodian::new("alice", embedder(5));
        let bob = DataCustodian::new("bob", embedder(5)); // shared params
        let a = alice.encode(&[
            Record::new(1, ["JOHN", "SMITH", "12 OAK STREET"]),
            Record::new(2, ["MARY", "JONES", "4 ELM AVENUE"]),
        ]);
        let b = bob.encode(&[
            Record::new(10, ["JOHN", "SMYTH", "12 OAK STREET"]),
            Record::new(11, ["AGNES", "WINTERBOTTOM", "900 PINE COURT"]),
        ]);
        // Wire round trip.
        let a = EncodedDataset::from_bytes(&a.to_bytes()).unwrap();
        let b = EncodedDataset::from_bytes(&b.to_bytes()).unwrap();
        let charlie = LinkageUnit::with_thetas(vec![4, 4, 8]);
        let mut rng = StdRng::seed_from_u64(77);
        let (matches, stats) = charlie.link(&a, &b, &mut rng).unwrap();
        assert_eq!(matches, vec![(1, 10)]);
        assert!(stats.candidates >= 1);
    }

    #[test]
    fn wire_format_contains_no_strings() {
        let alice = DataCustodian::new("alice", embedder(6));
        let enc = alice.encode(&[Record::new(1, ["WINTERBOTTOM", "XYLOPHONE", "UNIQUEVALUE"])]);
        let bytes = enc.to_bytes();
        let payload = String::from_utf8_lossy(&bytes);
        for secret in ["WINTERBOTTOM", "XYLOPHONE", "UNIQUEVALUE"] {
            assert!(!payload.contains(secret), "payload leaks {secret}");
        }
    }

    #[test]
    fn mismatched_parameters_fail_to_match() {
        // A custodian with the wrong key produces incompatible encodings —
        // matches silently vanish rather than leak.
        let alice = DataCustodian::new("alice", embedder(7));
        let mut rng = StdRng::seed_from_u64(8);
        let wrong = KeyedEmbedder::new(
            SecretKey::from_words([0, 0, 0, 1]),
            Alphabet::linkage(),
            vec![
                KeyedAttribute {
                    m: 15,
                    q: 2,
                    padded: false,
                },
                KeyedAttribute {
                    m: 15,
                    q: 2,
                    padded: false,
                },
                KeyedAttribute {
                    m: 68,
                    q: 2,
                    padded: false,
                },
            ],
            &mut rng,
        );
        let eve = DataCustodian::new("eve", wrong);
        let rec = Record::new(1, ["JOHN", "SMITH", "12 OAK STREET"]);
        let a = alice.encode(std::slice::from_ref(&rec));
        let b = eve.encode(&[Record::new(10, ["JOHN", "SMITH", "12 OAK STREET"])]);
        let charlie = LinkageUnit::with_thetas(vec![4, 4, 8]);
        let mut rng = StdRng::seed_from_u64(9);
        let (matches, _) = charlie.link(&a, &b, &mut rng).unwrap();
        assert!(matches.is_empty());
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let alice = DataCustodian::new("alice", embedder(10));
        let a = alice.encode(&[Record::new(1, ["A", "B", "C"])]);
        let charlie = LinkageUnit::with_thetas(vec![4, 4]); // expects 2 attrs
        let mut rng = StdRng::seed_from_u64(11);
        assert!(charlie.link(&a, &a.clone(), &mut rng).is_err());
    }

    /// An attribute vector by its width and set bits.
    type Attr<'a> = (usize, &'a [usize]);

    /// A data set of records `(id, attrs)`.
    fn dataset(party: &str, records: &[(u64, &[Attr])]) -> EncodedDataset {
        let records = records
            .iter()
            .map(|&(id, attrs)| EncodedRecord {
                id,
                attrs: attrs
                    .iter()
                    .map(|&(m, ones)| BitVec::from_positions(m, ones.iter().copied()))
                    .collect(),
            })
            .collect();
        EncodedDataset {
            party: party.into(),
            records,
        }
    }

    #[test]
    fn a_record_of_other_widths_is_refused_by_party_and_id() {
        // Regression: widths [15, 14] against A's [15, 15] used to panic in
        // the sampler ("sampled position beyond concatenated length").
        let a = dataset("alice", &[(1, &[(15, &[1, 2]), (15, &[3])])]);
        let b = dataset(
            "bob",
            &[
                (7, &[(15, &[1, 2]), (15, &[3])]),
                (8, &[(15, &[1]), (14, &[3])]),
            ],
        );
        let charlie = LinkageUnit::with_thetas(vec![4, 4]);
        let err = charlie
            .link(&a, &b, &mut StdRng::seed_from_u64(1))
            .unwrap_err();
        assert!(err.starts_with("bob: record 8:"), "{err}");
        assert!(
            err.contains("widths [15, 14], the layout's [15, 15]"),
            "{err}"
        );
        // Either side: A's own second record is checked against its first.
        let err = charlie
            .link(&b, &a, &mut StdRng::seed_from_u64(1))
            .unwrap_err();
        assert!(err.starts_with("bob: record 8:"), "{err}");
    }

    #[test]
    fn an_empty_attribute() {
        // A small blocking threshold keeps L small over 15 bits.
        let charlie = LinkageUnit {
            block_theta: 2,
            ..LinkageUnit::with_thetas(vec![4, 4])
        };
        let mut rng = StdRng::seed_from_u64(2);
        // Empty where the first record's attribute has 15 bits: refused.
        let a = dataset("alice", &[(1, &[(15, &[1]), (15, &[2])])]);
        let b = dataset("bob", &[(9, &[(15, &[1]), (0, &[])])]);
        let err = charlie.link(&a, &b, &mut rng).unwrap_err();
        assert!(err.starts_with("bob: record 9:"), "{err}");
        assert!(
            err.contains("widths [15, 0], the layout's [15, 15]"),
            "{err}"
        );
        // Empty in every record: the attribute is at distance 0 and the
        // other one decides.
        let a = dataset("alice", &[(1, &[(15, &[1, 5]), (0, &[])])]);
        let b = dataset(
            "bob",
            &[
                (9, &[(15, &[1, 5]), (0, &[])]),
                (10, &[(15, &[0, 2, 3, 4, 6, 7]), (0, &[])]),
            ],
        );
        let (matches, stats) = charlie.link(&a, &b, &mut rng).unwrap();
        assert_eq!(matches, vec![(1, 9)]);
        assert_eq!(stats.matched, 1);
    }

    #[test]
    fn empty_datasets_yield_no_matches() {
        let charlie = LinkageUnit::with_thetas(vec![4]);
        let empty = EncodedDataset {
            party: "x".into(),
            records: Vec::new(),
        };
        let mut rng = StdRng::seed_from_u64(12);
        let (m, s) = charlie.link(&empty, &empty.clone(), &mut rng).unwrap();
        assert!(m.is_empty());
        assert_eq!(s.candidates, 0);
    }
}

//! The matching step (Section 5.3, Algorithm 2).
//!
//! Candidate c-vector pairs formulated by the blocking step are compared
//! and classified. Because the blocking model is redundant (`L` tables),
//! the same pair can be formulated repeatedly; Algorithm 2 interposes a
//! collection of unique ids so each pair's distance is computed once. The
//! [`BlockingPlan`] candidate sets embody
//! the same de-duplication; [`match_structure_literal`] is the verbatim
//! Algorithm 2 loop over a single structure, with a switch to disable the
//! de-dup collection for the ablation bench.
//!
//! **Records are rows.** The paper's `retrieve(Id)` is [`RecordSlab::get`]:
//! one dense `Vec<u64>` of packed record-level c-vectors (two words for the
//! 120-bit NCVR record) behind an id → slot map, freed slots reused. A
//! candidate is reached through one map probe and one row read, and
//! classified by [`Classifier::matches_rows`] with the popcounts its rule
//! reaches under the slab's [`RowLayout`]. [`index_row`] and [`unindex`] are
//! the two mutations every engine applies — tables and slab together — and
//! `index_row` is where a re-indexed id learns its old row, so its stale
//! table entries leave instead of piling up.
//!
//! [`match_record`] is the probe loop's inner step and allocates nothing
//! in steady state: candidates are formulated in the caller's
//! [`ProbeScratch`], each is classified against its row, and matches go to
//! the caller's closure.
//!
//! **The unpacked reference.** [`Classifier::matches`] feeds the same
//! decision the distances of two [`EmbeddedRecord`]s, and [`RecordStore`] is
//! the `id → EmbeddedRecord` map the slab replaced. No engine path holds
//! either; they are what the row path is tested against, what a slab writes
//! and reads as its serialized document, and what the benchmark's replay
//! times.

use crate::blocking::{BlockingPlan, BlockingStructure, ProbeScratch};
use crate::error::{Error, Result};
use crate::rule::Rule;
use crate::schema::{EmbeddedRecord, RowLayout};
use rl_blockstore::hash::hash_heap_bytes;
use rl_blockstore::WordMap;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::collections::HashSet;

/// How candidate pairs are classified after blocking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Classifier {
    /// Apply a classification rule to the per-attribute distances.
    Rule(Rule),
    /// Record-level threshold on the total Hamming distance.
    TotalThreshold(u32),
    /// Weighted-sum decision model (a Fellegi–Sunter-style score):
    /// match when `Σ_i weights[i] · u^(f_i) ≤ threshold`. Weights let
    /// discriminating attributes (rare surnames) count more than noisy
    /// ones (addresses).
    Weighted {
        /// Per-attribute weights (same arity as the schema).
        weights: Vec<f64>,
        /// Score threshold.
        threshold: f64,
    },
}

impl Classifier {
    /// Classifies a candidate pair of rows laid out by `layout`.
    ///
    /// # Panics
    /// Panics when a `Weighted` classifier's arity differs from the
    /// layout's attribute count.
    #[inline]
    pub fn matches_rows(&self, layout: &RowLayout, a: &[u64], b: &[u64]) -> bool {
        self.decide(
            layout.arity(),
            |attr| layout.distance(a, b, attr),
            || layout.total_distance(a, b),
        )
    }

    /// Classifies a candidate pair of unpacked records (the reference:
    /// [`EmbeddedRecord::attr_distance`] per attribute).
    ///
    /// # Panics
    /// Panics when a `Weighted` classifier's arity differs from the
    /// records' attribute count.
    pub fn matches(&self, a: &EmbeddedRecord, b: &EmbeddedRecord) -> bool {
        self.decide(
            a.attrs.len(),
            |attr| a.attr_distance(b, attr),
            || a.total_distance(b),
        )
    }

    /// The decision, over a pair's per-attribute and total distances.
    #[inline]
    fn decide(
        &self,
        arity: usize,
        distance: impl Fn(usize) -> u32,
        total: impl FnOnce() -> u32,
    ) -> bool {
        match self {
            Classifier::Rule(rule) => rule.evaluate_with(&distance),
            Classifier::TotalThreshold(theta) => total() <= *theta,
            Classifier::Weighted { weights, threshold } => {
                assert_eq!(weights.len(), arity, "weight arity must match the schema");
                let score: f64 = weights
                    .iter()
                    .enumerate()
                    .map(|(i, w)| w * f64::from(distance(i)))
                    .sum();
                score <= *threshold
            }
        }
    }
}

/// Counters collected while matching.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatchStats {
    /// Unique candidate pairs formulated (`|CR|`).
    pub candidates: u64,
    /// Distance computations actually performed (equals `candidates` when
    /// de-duplication is on; larger when off).
    pub distance_computations: u64,
    /// Pairs classified as matches (`|M̂|`).
    pub matched: u64,
    /// Probes whose candidate set was cut short by the per-probe top-k
    /// bound (`probe_top_k`): recall may be reduced for these probes.
    /// Absent (zero) in stats from before the bounded-probe knob.
    #[serde(default)]
    pub truncated: u64,
}

/// The unpacked reference store: embedded records of data set A by id, one
/// [`EmbeddedRecord`] (a `Vec<BitVec>`) each. The engine holds a
/// [`RecordSlab`]; this type is the slab's serialized document
/// (`{"records": {id: {id, attrs}}}`) and what the benchmark's layer replay
/// retrieves from.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RecordStore {
    records: WordMap<u64, EmbeddedRecord>,
}

impl RecordStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a record, replacing any previous record with the same id.
    pub fn insert(&mut self, rec: EmbeddedRecord) {
        self.records.insert(rec.id, rec);
    }

    /// Retrieves a record by id.
    pub fn get(&self, id: u64) -> Option<&EmbeddedRecord> {
        self.records.get(&id)
    }
}

/// The records of data set A, addressable by id — the paper's
/// `retrieve(Id)` primitive (Table 2) — as one packed record-level c-vector
/// each: row `s` is `rows[s · W..(s + 1) · W]`, `W = ⌈m̄/64⌉`, and
/// `slots` maps an id to its `s`. A removed record's slot goes on `free`
/// and is the next one an insert takes. Ids are the clients', so the map is
/// keyed per process (`rl_blockstore::hash`).
///
/// Serialized as the [`RecordStore`] document, so saved pipelines,
/// snapshots and checkpoints read and write what they always did. A
/// deserialized slab knows its layout from its first record; an empty one
/// does not, so whoever restores one calls [`RecordSlab::bind`] with the
/// schema's layout before using it (as `BlockingPlan::compile_kernels`
/// for the plan beside it).
#[derive(Debug, Clone, Default)]
pub struct RecordSlab {
    layout: RowLayout,
    rows: Vec<u64>,
    slots: WordMap<u64, u32>,
    free: Vec<u32>,
}

impl RecordSlab {
    /// An empty slab for rows laid out by `layout`.
    pub fn new(layout: RowLayout) -> Self {
        Self {
            layout,
            ..Self::default()
        }
    }

    /// Sets the layout of a deserialized slab to the restoring schema's.
    ///
    /// # Errors
    /// Returns [`Error::InvalidParameter`] when the slab holds records of
    /// other attribute widths: the document is of another schema.
    pub fn bind(&mut self, layout: RowLayout) -> Result<()> {
        if !self.is_empty() && self.layout != layout {
            return Err(Error::InvalidParameter(format!(
                "stored records have attribute widths {:?}, the schema {:?}",
                self.layout.widths(),
                layout.widths()
            )));
        }
        self.layout = layout;
        Ok(())
    }

    /// Where each attribute sits in this slab's rows.
    pub fn layout(&self) -> &RowLayout {
        &self.layout
    }

    fn row(&self, slot: u32) -> &[u64] {
        let w = self.layout.words();
        &self.rows[slot as usize * w..][..w]
    }

    /// Stores `row` as record `id`'s, in place of any row it had. Returns
    /// whether the id is new.
    ///
    /// # Panics
    /// Panics if `row` is not of this slab's layout, or at 2³² records.
    pub fn insert(&mut self, id: u64, row: &[u64]) -> bool {
        let w = self.layout.words();
        assert_eq!(row.len(), w, "row of another layout");
        let known = self.slots.get(&id).copied();
        let slot = known.or_else(|| self.free.pop()).unwrap_or_else(|| {
            let slot = u32::try_from(self.rows.len() / w).expect("a slab holds 2^32 records");
            self.rows.resize(self.rows.len() + w, 0);
            slot
        });
        self.rows[slot as usize * w..][..w].copy_from_slice(row);
        if known.is_none() {
            self.slots.insert(id, slot);
        }
        known.is_none()
    }

    /// Retrieves a record's row by id.
    #[inline]
    pub fn get(&self, id: u64) -> Option<&[u64]> {
        self.slots.get(&id).map(|&slot| self.row(slot))
    }

    /// Removes a record by id, returning whether it was present; its slot
    /// is free for the next insert. Blocking tables are not touched —
    /// [`unindex`] does both — but a table entry whose id no longer
    /// resolves here is skipped by [`match_record`], so a removed record
    /// can never match again.
    pub fn remove(&mut self, id: u64) -> bool {
        let slot = self.slots.remove(&id);
        self.free.extend(slot);
        slot.is_some()
    }

    /// Iterates over all stored `(id, row)`s, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u64])> {
        self.slots.iter().map(|(&id, &slot)| (id, self.row(slot)))
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Heap bytes held — rows, the id → slot map, the free list — from
    /// capacities.
    pub fn heap_bytes(&self) -> u64 {
        let slots = hash_heap_bytes(self.slots.capacity(), std::mem::size_of::<(u64, u32)>());
        (self.rows.capacity() * 8 + slots + self.free.capacity() * 4) as u64
    }
}

impl Serialize for RecordSlab {
    fn serialize<S: Serializer>(&self, serializer: S) -> std::result::Result<S::Ok, S::Error> {
        let records = self
            .iter()
            .map(|(id, row)| (id, self.layout.unpack(id, row)))
            .collect();
        RecordStore { records }.serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for RecordSlab {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> std::result::Result<Self, D::Error> {
        let records = RecordStore::deserialize(deserializer)?.records;
        fn widths(rec: &EmbeddedRecord) -> impl Iterator<Item = usize> + '_ {
            rec.attrs.iter().map(|v| v.len())
        }
        let first = records.values().next();
        let layout = first.map(|rec| RowLayout::from_widths(widths(rec)));
        let mut slab = RecordSlab::new(layout.unwrap_or_default());
        for (id, rec) in &records {
            if *id != rec.id || !widths(rec).eq(slab.layout.widths().iter().copied()) {
                return Err(serde::de::Error::custom(format!(
                    "record {id} does not have the id and attribute widths of its store"
                )));
            }
            slab.insert(*id, rec.packed().as_ref());
        }
        Ok(slab)
    }
}

/// Indexes record `id` with row `row` into the tables and the slab. An id
/// the slab already holds is re-keyed from its old row
/// ([`BlockingPlan::reindex_row`]) instead of inserted again. Returns
/// whether the id is new.
pub fn index_row(plan: &mut BlockingPlan, store: &mut RecordSlab, id: u64, row: &[u64]) -> bool {
    match store.get(id) {
        Some(old) => plan.reindex_row(id, old, row),
        None => plan.insert_row(id, row),
    }
    store.insert(id, row)
}

/// Takes record `id` out of its bucket in every table
/// ([`BlockingPlan::evict_row`], keyed from the row the slab still holds)
/// and out of the slab. Returns whether it was present.
pub fn unindex(plan: &mut BlockingPlan, store: &mut RecordSlab, id: u64) -> bool {
    if let Some(row) = store.get(id) {
        plan.evict_row(id, row);
    }
    store.remove(id)
}

/// Matches one probe row against an indexed plan: formulates the
/// candidate set per the rule's blocking logic (in `scratch`), retrieves
/// each candidate's row, classifies the pair, and hands every matched
/// A-side id to `on_match`, ascending.
pub fn match_record(
    plan: &BlockingPlan,
    store: &RecordSlab,
    probe: &[u64],
    classifier: &Classifier,
    scratch: &mut ProbeScratch,
    stats: &mut MatchStats,
    mut on_match: impl FnMut(u64),
) {
    let truncated = plan.candidates_into_row(probe, |id| store.get(id), scratch);
    stats.candidates += scratch.candidates().len() as u64;
    stats.truncated += u64::from(truncated);
    for &id in scratch.candidates() {
        let Some(a) = store.get(id) else { continue };
        stats.distance_computations += 1;
        if classifier.matches_rows(store.layout(), a, probe) {
            stats.matched += 1;
            on_match(id);
        }
    }
}

/// [`match_record`] over a batch of `(id_B, row)` probes, appending the
/// matched `(id_A, id_B)` pairs to `matches`.
pub fn match_batch<'a>(
    plan: &BlockingPlan,
    store: &RecordSlab,
    probes: impl IntoIterator<Item = (u64, &'a [u64])>,
    classifier: &Classifier,
    scratch: &mut ProbeScratch,
    stats: &mut MatchStats,
    matches: &mut Vec<(u64, u64)>,
) {
    for (id, probe) in probes {
        match_record(plan, store, probe, classifier, scratch, stats, |a| {
            matches.push((a, id))
        });
    }
}

/// Verbatim Algorithm 2 over a single blocking structure: scans the buckets
/// of each `T_l` in turn, de-duplicating via a unique-id collection when
/// `dedup` is true. With `dedup = false` every bucket occurrence triggers a
/// distance computation (the redundancy the paper's de-dup mechanism
/// removes) — kept for the `ablation_dedup` bench.
pub fn match_structure_literal(
    structure: &BlockingStructure,
    store: &RecordSlab,
    probe: &[u64],
    classifier: &Classifier,
    dedup: bool,
    stats: &mut MatchStats,
) -> Vec<u64> {
    let mut seen: HashSet<u64> = HashSet::new(); // the paper's UniqueCollection C
    let mut out = Vec::new();
    let mut computations = 0u64;
    let mut keys = Vec::new();
    structure.keys_into_row(probe, &mut keys);
    let mut bucket = Vec::new();
    for (l, &key) in keys.iter().enumerate() {
        bucket.clear();
        structure.probe_key_into(l, key, &mut bucket);
        for &id in &bucket {
            if dedup && !seen.insert(id) {
                continue;
            }
            let Some(a) = store.get(id) else { continue };
            computations += 1;
            if classifier.matches_rows(store.layout(), a, probe) && (dedup || !out.contains(&id)) {
                out.push(id);
            }
        }
    }
    stats.distance_computations += computations;
    stats.candidates += if dedup {
        seen.len() as u64
    } else {
        // Without de-dup the candidate multiset size equals the number of
        // computations performed for *this* probe.
        computations
    };
    stats.matched += out.len() as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::BlockingPlan;
    use crate::schema::{AttributeSpec, RecordSchema};
    use crate::Record;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use textdist::Alphabet;

    fn setup(seed: u64) -> (RecordSchema, BlockingPlan, RecordSlab) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = RecordSchema::build(
            Alphabet::linkage(),
            vec![
                AttributeSpec::new("FirstName", 2, 15, false, 5),
                AttributeSpec::new("LastName", 2, 15, false, 5),
            ],
            &mut rng,
        );
        let rule = Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]);
        let plan = BlockingPlan::compile(&schema, &rule, 0.1, &mut rng).unwrap();
        let store = RecordSlab::new(schema.layout());
        (schema, plan, store)
    }

    fn embed(s: &RecordSchema, id: u64, f: [&str; 2]) -> EmbeddedRecord {
        s.embed(&Record::new(id, f)).unwrap()
    }

    fn row(s: &RecordSchema, f: [&str; 2]) -> Vec<u64> {
        let mut row = vec![0; s.row_words()];
        s.embed_row(&Record::new(0, f), &mut row).unwrap();
        row
    }

    fn matched(
        plan: &BlockingPlan,
        store: &RecordSlab,
        probe: &[u64],
        classifier: &Classifier,
        stats: &mut MatchStats,
    ) -> Vec<u64> {
        let mut out = Vec::new();
        let mut scratch = ProbeScratch::default();
        match_record(plan, store, probe, classifier, &mut scratch, stats, |id| {
            out.push(id)
        });
        out
    }

    #[test]
    fn match_record_finds_perturbed_copy() {
        let (schema, mut plan, mut store) = setup(1);
        index_row(&mut plan, &mut store, 1, &row(&schema, ["JONES", "MARTHA"]));
        let probe = row(&schema, ["JONAS", "MARTHA"]); // 1 substitute
        let rule = Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]);
        let mut stats = MatchStats::default();
        let matches = matched(&plan, &store, &probe, &Classifier::Rule(rule), &mut stats);
        assert_eq!(matches, vec![1]);
        assert_eq!(stats.matched, 1);
        assert!(stats.candidates >= 1);
        assert_eq!(stats.candidates, stats.distance_computations);
    }

    #[test]
    fn non_matching_candidates_are_rejected() {
        let (schema, mut plan, mut store) = setup(2);
        index_row(&mut plan, &mut store, 1, &row(&schema, ["JONES", "MARTHA"]));
        let probe = row(&schema, ["WILLOUGHBY", "KATHERINE"]);
        let rule = Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]);
        let mut stats = MatchStats::default();
        let matches = matched(&plan, &store, &probe, &Classifier::Rule(rule), &mut stats);
        assert!(matches.is_empty());
    }

    #[test]
    fn an_unindexed_record_is_neither_retrieved_nor_matched() {
        let (schema, mut plan, mut store) = setup(10);
        let a = row(&schema, ["JONES", "MARTHA"]);
        assert!(index_row(&mut plan, &mut store, 1, &a));
        assert!(!index_row(&mut plan, &mut store, 1, &a), "the id is known");
        assert!(unindex(&mut plan, &mut store, 1));
        assert!(!unindex(&mut plan, &mut store, 1));
        assert_eq!(store.get(1), None);
        let classifier = Classifier::Rule(Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]));
        let mut stats = MatchStats::default();
        assert!(matched(&plan, &store, &a, &classifier, &mut stats).is_empty());
    }

    #[test]
    fn total_threshold_classifier() {
        let (schema, _, store) = setup(3);
        let a = embed(&schema, 1, ["JONES", "MARTHA"]);
        let b = embed(&schema, 2, ["JONAS", "MARTHA"]);
        assert!(Classifier::TotalThreshold(4).matches(&a, &b));
        assert!(!Classifier::TotalThreshold(0).matches(&a, &b));
        let (a, b) = (a.packed(), b.packed());
        assert!(Classifier::TotalThreshold(4).matches_rows(store.layout(), a.as_ref(), b.as_ref()));
        assert!(!Classifier::TotalThreshold(0).matches_rows(
            store.layout(),
            a.as_ref(),
            b.as_ref()
        ));
    }

    #[test]
    fn weighted_classifier_scores_attributes() {
        let (schema, _, _) = setup(6);
        let a = embed(&schema, 1, ["JONES", "MARTHA"]);
        let b = embed(&schema, 2, ["JONAS", "MARTHA"]); // error only on f0
        let d0 = f64::from(a.attr_distance(&b, 0));
        assert!(d0 >= 1.0);
        // Down-weighting the noisy attribute admits the pair...
        let lenient = Classifier::Weighted {
            weights: vec![0.1, 1.0],
            threshold: 0.1 * d0,
        };
        assert!(lenient.matches(&a, &b));
        // ...while weighting it fully rejects under a tight threshold.
        let strict = Classifier::Weighted {
            weights: vec![1.0, 1.0],
            threshold: d0 - 0.5,
        };
        assert!(!strict.matches(&a, &b));
    }

    #[test]
    #[should_panic(expected = "weight arity")]
    fn weighted_classifier_arity_checked() {
        let (schema, _, _) = setup(7);
        let a = embed(&schema, 1, ["A", "B"]);
        let c = Classifier::Weighted {
            weights: vec![1.0],
            threshold: 1.0,
        };
        let _ = c.matches(&a, &a.clone());
    }

    #[test]
    fn literal_algorithm2_dedup_reduces_computations() {
        let (schema, _, mut store) = setup(4);
        let mut rng = StdRng::seed_from_u64(99);
        // Single-structure plan via a conjunction rule.
        let rule = Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]);
        let mut plan = BlockingPlan::compile(&schema, &rule, 0.01, &mut rng).unwrap();
        let probe = row(&schema, ["JONES", "MARTHA"]); // identical → in every table
        index_row(&mut plan, &mut store, 1, &probe);
        let structure = &plan.structures()[0];
        let classifier = Classifier::Rule(rule);
        let mut with = MatchStats::default();
        let m1 = match_structure_literal(structure, &store, &probe, &classifier, true, &mut with);
        let mut without = MatchStats::default();
        let m2 =
            match_structure_literal(structure, &store, &probe, &classifier, false, &mut without);
        assert_eq!(m1, vec![1]);
        assert_eq!(m2, vec![1]);
        assert_eq!(with.distance_computations, 1);
        // The identical pair collides in all L tables; without dedup each
        // occurrence costs a computation.
        assert_eq!(without.distance_computations, structure.l() as u64);
    }

    #[test]
    fn literal_algorithm2_counts_each_probe_once_in_a_reused_stats() {
        let (schema, _, mut store) = setup(8);
        let mut rng = StdRng::seed_from_u64(98);
        let rule = Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]);
        let mut plan = BlockingPlan::compile(&schema, &rule, 0.01, &mut rng).unwrap();
        let probe = row(&schema, ["JONES", "MARTHA"]);
        index_row(&mut plan, &mut store, 1, &probe);
        let structure = &plan.structures()[0];
        let l = structure.l() as u64;
        let classifier = Classifier::Rule(rule);
        // Two probes through one `MatchStats`: without de-dup each adds its
        // own L computations to the candidates, not the running total.
        let mut stats = MatchStats::default();
        for probes in 1..=2 {
            match_structure_literal(structure, &store, &probe, &classifier, false, &mut stats);
            assert_eq!(stats.distance_computations, probes * l);
            assert_eq!(stats.candidates, probes * l);
            assert_eq!(stats.matched, probes);
        }
    }

    #[test]
    fn scratch_carries_nothing_from_probe_to_probe() {
        let (schema, mut plan, mut store) = setup(9);
        for (id, first) in [(1, "JONES"), (2, "WILLOUGHBY")] {
            index_row(&mut plan, &mut store, id, &row(&schema, [first, "MARTHA"]));
        }
        let classifier = Classifier::Rule(Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]));
        let mut scratch = ProbeScratch::default();
        let mut stats = MatchStats::default();
        for (probe, expect) in [("JONES", 1), ("WILLOUGHBY", 2), ("JONES", 1)] {
            let probe = row(&schema, [probe, "MARTHA"]);
            let mut out = Vec::new();
            match_record(
                &plan,
                &store,
                &probe,
                &classifier,
                &mut scratch,
                &mut stats,
                |id| out.push(id),
            );
            assert_eq!(out, vec![expect]);
        }
        assert_eq!(stats.matched, 3);
    }

    #[test]
    fn store_roundtrip() {
        let (schema, _, _) = setup(5);
        let mut store = RecordStore::new();
        let a = embed(&schema, 42, ["A", "B"]);
        store.insert(a.clone());
        assert_eq!(store.get(42), Some(&a));
        assert_eq!(store.get(7), None);
    }

    #[test]
    fn a_slab_is_the_reference_stores_document() {
        let (schema, _, mut slab) = setup(11);
        let mut reference = RecordStore::new();
        for (id, f) in [(42, ["ANNA", "LEE"]), (7, ["JOHN", "SMITH"])] {
            slab.insert(id, &row(&schema, f));
            reference.insert(embed(&schema, id, f));
        }
        let doc = serde::to_value(&slab).unwrap();
        assert_eq!(doc, serde::to_value(&reference).unwrap());
        let mut back: RecordSlab = serde::from_value(doc.clone()).unwrap();
        back.bind(schema.layout()).unwrap();
        assert_eq!(back.get(42), slab.get(42));
        assert_eq!(serde::to_value(&back).unwrap(), doc);
        let other = RowLayout::from_widths([15, 16]);
        assert!(
            back.bind(other.clone()).is_err(),
            "records of another schema"
        );
        // An empty document says nothing of its layout: the binder does.
        let mut empty: RecordSlab =
            serde::from_value(serde::to_value(&RecordStore::new()).unwrap()).unwrap();
        empty.bind(other).unwrap();
        assert!(empty.insert(1, &[0]));
    }
}

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
//! [`match_record`] is the probe loop's inner step and allocates nothing
//! in steady state: candidates are formulated in the caller's
//! [`ProbeScratch`], each is classified with only the popcounts its rule
//! reaches, and matches go to the caller's closure.

use crate::blocking::{BlockingPlan, BlockingStructure, ProbeScratch};
use crate::rule::Rule;
use crate::schema::EmbeddedRecord;
use rl_blockstore::WordMap;
use serde::{Deserialize, Serialize};
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
    /// Classifies a candidate pair.
    ///
    /// # Panics
    /// Panics when a `Weighted` classifier's arity differs from the
    /// records' attribute count.
    pub fn matches(&self, a: &EmbeddedRecord, b: &EmbeddedRecord) -> bool {
        match self {
            Classifier::Rule(rule) => rule.evaluate_with(&|attr| a.attr_distance(b, attr)),
            Classifier::TotalThreshold(theta) => a.total_distance(b) <= *theta,
            Classifier::Weighted { weights, threshold } => {
                assert_eq!(
                    weights.len(),
                    a.attrs.len(),
                    "weight arity must match the schema"
                );
                let score: f64 = weights
                    .iter()
                    .enumerate()
                    .map(|(i, w)| w * f64::from(a.attr_distance(b, i)))
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

/// A store of embedded records from data set A, addressable by id —
/// the paper's `retrieve(Id)` primitive (Table 2). Ids are the clients',
/// so the map is keyed per process (`rl_blockstore::hash`).
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

    /// Removes a record by id (tombstone delete), returning whether it was
    /// present. Blocking-plan buckets are *not* rewritten: a bucket entry
    /// whose id no longer resolves here is skipped by [`match_record`], so
    /// a removed record can never match again. The stale bucket slots are
    /// reclaimed the next time the plan is rebuilt (e.g. snapshot restore).
    pub fn remove(&mut self, id: u64) -> bool {
        self.records.remove(&id).is_some()
    }

    /// Iterates over all stored records (rebuild of a lost blocking
    /// store: every record is re-inserted into the cleared plan).
    pub fn iter(&self) -> impl Iterator<Item = &EmbeddedRecord> {
        self.records.values()
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Matches one probe record against an indexed plan: formulates the
/// candidate set per the rule's blocking logic (in `scratch`), retrieves
/// each candidate, classifies the pair, and hands every matched A-side id
/// to `on_match`, ascending.
pub fn match_record(
    plan: &BlockingPlan,
    store: &RecordStore,
    probe: &EmbeddedRecord,
    classifier: &Classifier,
    scratch: &mut ProbeScratch,
    stats: &mut MatchStats,
    mut on_match: impl FnMut(u64),
) {
    let truncated = plan.candidates_into(probe, |id| store.get(id), scratch);
    stats.candidates += scratch.candidates().len() as u64;
    stats.truncated += u64::from(truncated);
    for &id in scratch.candidates() {
        let Some(a) = store.get(id) else { continue };
        stats.distance_computations += 1;
        if classifier.matches(a, probe) {
            stats.matched += 1;
            on_match(id);
        }
    }
}

/// [`match_record`] over a batch of probes, appending the matched
/// `(id_A, id_B)` pairs to `matches`.
pub fn match_batch(
    plan: &BlockingPlan,
    store: &RecordStore,
    probes: &[EmbeddedRecord],
    classifier: &Classifier,
    scratch: &mut ProbeScratch,
    stats: &mut MatchStats,
    matches: &mut Vec<(u64, u64)>,
) {
    for probe in probes {
        match_record(plan, store, probe, classifier, scratch, stats, |a| {
            matches.push((a, probe.id))
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
    store: &RecordStore,
    probe: &EmbeddedRecord,
    classifier: &Classifier,
    dedup: bool,
    stats: &mut MatchStats,
) -> Vec<u64> {
    let mut seen: HashSet<u64> = HashSet::new(); // the paper's UniqueCollection C
    let mut out = Vec::new();
    let mut computations = 0u64;
    let mut keys = Vec::new();
    structure.keys_into(probe, &mut keys);
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
            if classifier.matches(a, probe) && (dedup || !out.contains(&id)) {
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

    fn setup(seed: u64) -> (RecordSchema, BlockingPlan, RecordStore) {
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
        (schema, plan, RecordStore::new())
    }

    fn embed(s: &RecordSchema, id: u64, f: [&str; 2]) -> EmbeddedRecord {
        s.embed(&Record::new(id, f)).unwrap()
    }

    fn matched(
        plan: &BlockingPlan,
        store: &RecordStore,
        probe: &EmbeddedRecord,
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
        let a = embed(&schema, 1, ["JONES", "MARTHA"]);
        plan.insert(&a);
        store.insert(a);
        let probe = embed(&schema, 2, ["JONAS", "MARTHA"]); // 1 substitute
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
        let a = embed(&schema, 1, ["JONES", "MARTHA"]);
        plan.insert(&a);
        store.insert(a);
        let probe = embed(&schema, 2, ["WILLOUGHBY", "KATHERINE"]);
        let rule = Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]);
        let mut stats = MatchStats::default();
        let matches = matched(&plan, &store, &probe, &Classifier::Rule(rule), &mut stats);
        assert!(matches.is_empty());
    }

    #[test]
    fn total_threshold_classifier() {
        let (schema, _, _) = setup(3);
        let a = embed(&schema, 1, ["JONES", "MARTHA"]);
        let b = embed(&schema, 2, ["JONAS", "MARTHA"]);
        assert!(Classifier::TotalThreshold(4).matches(&a, &b));
        assert!(!Classifier::TotalThreshold(0).matches(&a, &b));
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
        let a = embed(&schema, 1, ["JONES", "MARTHA"]);
        plan.insert(&a);
        store.insert(a);
        let probe = embed(&schema, 2, ["JONES", "MARTHA"]); // identical → in every table
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
        let a = embed(&schema, 1, ["JONES", "MARTHA"]);
        plan.insert(&a);
        store.insert(a);
        let probe = embed(&schema, 2, ["JONES", "MARTHA"]);
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
            let a = embed(&schema, id, [first, "MARTHA"]);
            plan.insert(&a);
            store.insert(a);
        }
        let classifier = Classifier::Rule(Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]));
        let mut scratch = ProbeScratch::default();
        let mut stats = MatchStats::default();
        for (probe, expect) in [("JONES", 1), ("WILLOUGHBY", 2), ("JONES", 1)] {
            let probe = embed(&schema, 9, [probe, "MARTHA"]);
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
        let (schema, _, mut store) = setup(5);
        assert!(store.is_empty());
        let a = embed(&schema, 42, ["A", "B"]);
        store.insert(a.clone());
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(42), Some(&a));
        assert_eq!(store.get(7), None);
    }
}

//! Data-set pair generation with exact ground truth (Section 6).
//!
//! Mirrors the paper's prototype: `n` records are drawn into data set A;
//! each A-record is, with probability `match_probability` (the paper uses
//! 0.5), perturbed under the chosen scheme and placed into B; B is then
//! filled with fresh non-matching records up to `n`. The set of
//! `(id_A, id_B)` pairs that share an origin is the ground truth `M`.

use crate::perturb::{Op, PerturbationScheme};
use crate::sources::RecordSource;
use cbv_hb::Record;
use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Parameters for [`DatasetPair::generate`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairConfig {
    /// Records in each of A and B.
    pub records: usize,
    /// Probability that an A-record spawns a perturbed copy in B
    /// (paper: 0.5).
    pub match_probability: f64,
    /// Perturbation scheme for the matching copies.
    pub scheme: PerturbationScheme,
    /// Probability that a newly drawn record is instead a light perturbation
    /// of an earlier record in the *same* data set. Real voter data contains
    /// such within-set near-duplicates (family members, re-registrations);
    /// they are *not* ground-truth matches, and they are what trips up
    /// iterative early-removal baselines like HARRA.
    pub within_duplicate_rate: f64,
}

impl PairConfig {
    /// The paper's defaults at a given scale (no within-set duplicates).
    pub fn new(records: usize, scheme: PerturbationScheme) -> Self {
        Self {
            records,
            match_probability: 0.5,
            scheme,
            within_duplicate_rate: 0.0,
        }
    }

    /// Sets the within-set near-duplicate rate.
    pub fn with_duplicates(mut self, rate: f64) -> Self {
        assert!((0.0..1.0).contains(&rate), "rate must lie in [0, 1)");
        self.within_duplicate_rate = rate;
        self
    }
}

/// Where a remembered record lives: its index in A or in B.
#[derive(Clone, Copy)]
enum Slot {
    A(usize),
    B(usize),
}

/// The exact de-duplication set of [`DatasetPair::generate`], holding no
/// copy of any record: a digest of a record's fields leads to the slots of
/// the records remembered under that digest, whose fields are then
/// compared. (A `HashSet<Vec<String>>` of clones costs five allocations and
/// a 40-byte SipHash per record — most of a benchmark run's set-up.)
struct SeenRecords {
    /// Digest → the last record remembered under it (index into `chain`).
    last: HashMap<u64, u32>,
    /// Per remembered record, in order: where it is, and the record before
    /// it with the same digest (`NONE`: no other).
    chain: Vec<(Slot, u32)>,
}

impl SeenRecords {
    const NONE: u32 = u32::MAX;

    fn with_capacity(n: usize) -> Self {
        Self {
            last: HashMap::with_capacity(n),
            chain: Vec::with_capacity(n),
        }
    }

    /// Unless a remembered record has exactly `r`'s fields, remembers `r` as
    /// living at `slot` of `a`/`b` — where the caller stores it next — and
    /// returns `true`.
    fn insert(&mut self, r: &Record, slot: Slot, a: &[Record], b: &[Record]) -> bool {
        // FNV-1a over the fields, each closed by a byte no UTF-8 text holds.
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for f in &r.fields {
            for &byte in f.as_bytes().iter().chain(&[0xff]) {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let last = self.last.entry(digest).or_insert(Self::NONE);
        let mut at = *last;
        while at != Self::NONE {
            let (slot, before) = self.chain[at as usize];
            let seen = match slot {
                Slot::A(i) => &a[i],
                Slot::B(i) => &b[i],
            };
            if seen.fields == r.fields {
                return false;
            }
            at = before;
        }
        let index = u32::try_from(self.chain.len()).expect("fewer than 2^32 records");
        assert!(index != Self::NONE, "fewer than 2^32 - 1 records");
        self.chain.push((slot, *last));
        *last = index;
        true
    }
}

/// Two data sets plus exact ground truth.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetPair {
    /// Data set A (ids `0..records`).
    pub a: Vec<Record>,
    /// Data set B (ids `records..2·records`).
    pub b: Vec<Record>,
    /// Truly matching `(id_A, id_B)` pairs `M`.
    pub ground_truth: HashSet<(u64, u64)>,
    /// Perturbation operations behind each matching pair
    /// (`(attr, op)` list), for per-operation accuracy breakdowns.
    pub ops: HashMap<(u64, u64), Vec<(usize, Op)>>,
}

impl DatasetPair {
    /// Generates a pair from a source under `config`.
    pub fn generate<S: RecordSource, R: Rng + ?Sized>(
        source: &S,
        config: PairConfig,
        rng: &mut R,
    ) -> Self {
        let n = config.records;
        // Draw A, avoiding exact duplicate records so that ground truth is
        // unambiguous (real data sets are de-duplicated the same way in the
        // HARRA setting the paper links against).
        let mut seen = SeenRecords::with_capacity(n);
        let mut a: Vec<Record> = Vec::with_capacity(n);
        let mut b: Vec<Record> = Vec::with_capacity(n);
        let mut id = 0u64;
        let light = PerturbationScheme::Light;
        while a.len() < n {
            let r = if !a.is_empty() && rng.random::<f64>() < config.within_duplicate_rate {
                // Within-set near-duplicate: lightly perturb an earlier
                // record. Not ground truth — just realistic confusion.
                let origin = &a[rng.random_range(0..a.len())];
                light.apply(origin, id, rng).record
            } else {
                source.sample(id, rng)
            };
            if seen.insert(&r, Slot::A(a.len()), &a, &b) {
                a.push(r);
                id += 1;
            }
        }
        let mut ground_truth = HashSet::new();
        let mut ops = HashMap::new();
        let mut next_b_id = n as u64;
        for rec in &a {
            if b.len() < n && rng.random::<f64>() < config.match_probability {
                let p = config.scheme.apply(rec, next_b_id, rng);
                ground_truth.insert((rec.id, next_b_id));
                ops.insert((rec.id, next_b_id), p.ops);
                b.push(p.record);
                next_b_id += 1;
            }
        }
        // Fill B with fresh records (not derived from A): unlike the
        // perturbed copies above, these join the de-duplication.
        while b.len() < n {
            let r = if !b.is_empty() && rng.random::<f64>() < config.within_duplicate_rate {
                let origin = &b[rng.random_range(0..b.len())];
                light.apply(origin, next_b_id, rng).record
            } else {
                source.sample(next_b_id, rng)
            };
            if seen.insert(&r, Slot::B(b.len()), &a, &b) {
                b.push(r);
                next_b_id += 1;
            }
        }
        Self {
            a,
            b,
            ground_truth,
            ops,
        }
    }

    /// `|A| · |B|` — the full comparison space.
    pub fn cross_size(&self) -> u128 {
        self.a.len() as u128 * self.b.len() as u128
    }

    /// Ground-truth pairs whose perturbation used *only* the given
    /// operation kind (Figure 11's per-operation buckets).
    pub fn ground_truth_by_op(&self, op: Op) -> HashSet<(u64, u64)> {
        self.ground_truth
            .iter()
            .filter(|pair| {
                self.ops
                    .get(pair)
                    .is_some_and(|ops| !ops.is_empty() && ops.iter().all(|(_, o)| *o == op))
            })
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sources::NcvrSource;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use textdist::levenshtein;

    fn pair(seed: u64, scheme: PerturbationScheme, n: usize) -> DatasetPair {
        let mut rng = StdRng::seed_from_u64(seed);
        DatasetPair::generate(&NcvrSource, PairConfig::new(n, scheme), &mut rng)
    }

    #[test]
    fn sizes_and_id_spaces() {
        let p = pair(1, PerturbationScheme::Light, 500);
        assert_eq!(p.a.len(), 500);
        assert_eq!(p.b.len(), 500);
        assert!(p.a.iter().all(|r| r.id < 500));
        assert!(p.b.iter().all(|r| r.id >= 500 && r.id < 1000 + 500));
        assert_eq!(p.cross_size(), 250_000);
    }

    #[test]
    fn match_rate_near_probability() {
        let p = pair(2, PerturbationScheme::Light, 2000);
        let rate = p.ground_truth.len() as f64 / 2000.0;
        assert!((0.42..=0.58).contains(&rate), "match rate {rate}");
    }

    #[test]
    fn ground_truth_pairs_are_truly_similar() {
        let p = pair(3, PerturbationScheme::Light, 300);
        let a_by_id: HashMap<u64, &Record> = p.a.iter().map(|r| (r.id, r)).collect();
        let b_by_id: HashMap<u64, &Record> = p.b.iter().map(|r| (r.id, r)).collect();
        for (ia, ib) in &p.ground_truth {
            let (ra, rb) = (a_by_id[ia], b_by_id[ib]);
            let total: u32 = (0..4).map(|i| levenshtein(ra.field(i), rb.field(i))).sum();
            assert_eq!(total, 1, "PL pair must differ by exactly one edit");
        }
    }

    #[test]
    fn heavy_pairs_have_expected_error_budget() {
        let p = pair(4, PerturbationScheme::Heavy, 300);
        let a_by_id: HashMap<u64, &Record> = p.a.iter().map(|r| (r.id, r)).collect();
        let b_by_id: HashMap<u64, &Record> = p.b.iter().map(|r| (r.id, r)).collect();
        for (ia, ib) in &p.ground_truth {
            let (ra, rb) = (a_by_id[ia], b_by_id[ib]);
            assert_eq!(levenshtein(ra.field(0), rb.field(0)), 1);
            assert_eq!(levenshtein(ra.field(1), rb.field(1)), 1);
            let d2 = levenshtein(ra.field(2), rb.field(2));
            assert!((1..=2).contains(&d2));
            assert_eq!(ra.field(3), rb.field(3));
        }
    }

    #[test]
    fn non_matching_b_records_are_fresh() {
        let p = pair(5, PerturbationScheme::Light, 300);
        let matched_b: HashSet<u64> = p.ground_truth.iter().map(|&(_, b)| b).collect();
        let a_fields: HashSet<&Vec<String>> = p.a.iter().map(|r| &r.fields).collect();
        for r in &p.b {
            if !matched_b.contains(&r.id) {
                assert!(
                    !a_fields.contains(&r.fields),
                    "filler B record duplicates an A record"
                );
            }
        }
    }

    #[test]
    fn ops_recorded_for_every_ground_truth_pair() {
        let p = pair(6, PerturbationScheme::Heavy, 200);
        for pairkey in &p.ground_truth {
            let ops = &p.ops[pairkey];
            assert_eq!(ops.len(), 4, "heavy scheme applies 4 ops");
        }
    }

    #[test]
    fn ground_truth_by_op_partitions_consistently() {
        let p = pair(7, PerturbationScheme::Light, 2000);
        let subs = p.ground_truth_by_op(Op::Substitute);
        let ins = p.ground_truth_by_op(Op::Insert);
        let del = p.ground_truth_by_op(Op::Delete);
        // PL applies exactly one op, so the three buckets partition M.
        assert_eq!(subs.len() + ins.len() + del.len(), p.ground_truth.len());
        assert!(subs.iter().all(|x| p.ground_truth.contains(x)));
    }

    #[test]
    fn generation_is_reproducible() {
        let p1 = pair(8, PerturbationScheme::Light, 100);
        let p2 = pair(8, PerturbationScheme::Light, 100);
        assert_eq!(p1.a, p2.a);
        assert_eq!(p1.b, p2.b);
        assert_eq!(p1.ground_truth, p2.ground_truth);
    }
}

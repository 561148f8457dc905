//! Blocking-quality profiling: measured bucket statistics against the
//! theory.
//!
//! Section 5.2's argument is *structural*: sparse vectors produce "a small
//! number of overpopulated buckets", degenerating HB into an all-pairs
//! scan. This module quantifies exactly that for a populated plan — bucket
//! histograms, occupancy skew, expected candidates per probe — so a
//! deployment can detect a mis-sized embedding before paying for it.

use crate::blocking::{BlockingPlan, BlockingStructure};
use serde::{Deserialize, Serialize};

/// Bucket statistics of one blocking structure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StructureProfile {
    /// Structure label.
    pub label: String,
    /// Number of tables `L`.
    pub l: usize,
    /// Total non-empty buckets across tables.
    pub buckets: usize,
    /// Total stored entries across tables.
    pub entries: usize,
    /// Largest bucket.
    pub max_bucket: usize,
    /// Mean entries per non-empty bucket.
    pub mean_bucket: f64,
    /// Expected candidates contributed per probe, assuming the probe's key
    /// distribution matches the indexed keys: `Σ_buckets size² / entries`
    /// summed over tables, i.e. the size-biased mean occupancy times `L`.
    pub expected_candidates_per_probe: f64,
    /// Occupancy skew: `max_bucket / mean_bucket` (≫ 1 signals the
    /// over-population pathology of Section 5.2).
    pub skew: f64,
}

/// Profiles one structure.
pub fn profile_structure(s: &BlockingStructure) -> StructureProfile {
    let mut buckets = 0usize;
    let mut entries = 0usize;
    let mut max_bucket = 0usize;
    // Per-table Σ size² and Σ size, accumulated in one storage walk (the
    // store may be disk-resident, so buckets are visited, not borrowed).
    let mut sum_sq = vec![0.0f64; s.l()];
    let mut table_entries = vec![0usize; s.l()];
    s.for_each_bucket(|table, len| {
        buckets += 1;
        entries += len;
        max_bucket = max_bucket.max(len);
        sum_sq[table] += (len * len) as f64;
        table_entries[table] += len;
    });
    let mut expected = 0.0f64;
    for (sq, n) in sum_sq.iter().zip(&table_entries) {
        if *n > 0 {
            expected += sq / *n as f64;
        }
    }
    let mean_bucket = if buckets == 0 {
        0.0
    } else {
        entries as f64 / buckets as f64
    };
    StructureProfile {
        label: s.label().to_string(),
        l: s.l(),
        buckets,
        entries,
        max_bucket,
        mean_bucket,
        expected_candidates_per_probe: expected,
        skew: if mean_bucket > 0.0 {
            max_bucket as f64 / mean_bucket
        } else {
            0.0
        },
    }
}

/// Profiles every structure of a plan.
pub fn profile_plan(plan: &BlockingPlan) -> Vec<StructureProfile> {
    plan.structures().iter().map(profile_structure).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::BlockingPlan;
    use crate::schema::{AttributeSpec, RecordSchema};
    use crate::{Record, Rule};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use textdist::Alphabet;

    fn populated_plan(m: usize, n: usize, seed: u64) -> (RecordSchema, BlockingPlan) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = RecordSchema::build(
            Alphabet::linkage(),
            vec![AttributeSpec::new("f0", 2, m, false, 5)],
            &mut rng,
        );
        let theta = (m as u32 / 4).clamp(1, 4);
        let config = crate::LinkageConfig::rule_aware(Rule::pred(0, theta));
        let mut plan = BlockingPlan::from_config(&schema, &config, &mut rng).unwrap();
        for i in 0..n as u64 {
            // Spread names via a multiplicative hash.
            let x = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let name: String = (0..6)
                .map(|j| (b'A' + ((x >> (j * 5)) % 26) as u8) as char)
                .collect();
            let rec = schema.embed(&Record::new(i, [name])).unwrap();
            plan.insert(&rec);
        }
        (schema, plan)
    }

    #[test]
    fn profile_counts_are_consistent() {
        let (_, plan) = populated_plan(32, 200, 1);
        let profiles = profile_plan(&plan);
        assert_eq!(profiles.len(), 1);
        let p = &profiles[0];
        assert_eq!(p.entries, 200 * p.l, "every record lands in every table");
        assert!(p.max_bucket >= 1);
        assert!(p.mean_bucket >= 1.0);
        assert!(p.expected_candidates_per_probe > 0.0);
        assert!(p.skew >= 1.0);
    }

    #[test]
    fn sparse_vectors_overpopulate_buckets() {
        // Section 5.2's pathology: with m ≫ b the vectors are almost all
        // zeros, sampled keys collapse onto the all-zero key, and buckets
        // over-populate. A Theorem-1-sized vector (m ≈ 16 for 6-bigram
        // names, density ≈ 0.3) spreads keys. Compare per-table occupancy
        // so differing L does not confound the comparison.
        let (_, sparse) = populated_plan(200, 300, 2);
        let (_, sized) = populated_plan(16, 300, 2);
        let ps = &profile_plan(&sparse)[0];
        let po = &profile_plan(&sized)[0];
        let per_table_sparse = ps.expected_candidates_per_probe / ps.l as f64;
        let per_table_sized = po.expected_candidates_per_probe / po.l as f64;
        assert!(
            per_table_sparse > 2.0 * per_table_sized,
            "sparse {per_table_sparse} vs sized {per_table_sized}"
        );
        assert!(ps.max_bucket > po.max_bucket);
    }

    #[test]
    fn empty_plan_profiles_to_zero() {
        let (_, plan) = populated_plan(32, 0, 3);
        let p = &profile_plan(&plan)[0];
        assert_eq!(p.entries, 0);
        assert_eq!(p.mean_bucket, 0.0);
        assert_eq!(p.skew, 0.0);
    }
}

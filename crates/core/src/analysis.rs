//! Analytical introspection of compiled blocking plans.
//!
//! Surfaces the paper's theoretical quantities for a concrete plan: the
//! per-structure collision probabilities, the recall lower bound delivered
//! by each structure's `L` tables (Equation 2 direction), and a combined
//! bound for the whole rule tree, so users can see *what guarantee they
//! actually bought* before running a linkage.

use crate::blocking::BlockingPlan;
use rl_lsh::params::recall_lower_bound;
use serde::{Deserialize, Serialize};

/// Analytical summary of one blocking structure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StructureReport {
    /// Structure label (attributes and thresholds).
    pub label: String,
    /// Blocking backend keying the structure (`"random"` or `"covering"`).
    pub backend: String,
    /// Number of blocking groups `L`.
    pub l: usize,
    /// Per-table collision probability for an in-threshold pair.
    pub p_collide: f64,
    /// Recall lower bound `1 − (1 − p)^L` for pairs within this structure's
    /// thresholds.
    pub recall_bound: f64,
    /// Non-empty buckets currently in the structure.
    pub buckets: usize,
    /// Largest bucket (over-population diagnostic, Section 5.2).
    pub max_bucket: usize,
}

/// Analytical summary of a whole plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanReport {
    /// Per-structure reports.
    pub structures: Vec<StructureReport>,
    /// Total hash tables across structures.
    pub total_tables: usize,
    /// Conservative recall bound for the full rule: the minimum structure
    /// bound (a pair satisfying the rule satisfies at least one positive
    /// structure's thresholds; AND-composed subrules each need their own
    /// structure to fire, so the minimum is the safe summary).
    pub combined_recall_bound: f64,
}

/// Builds the analytical report for a plan.
pub fn analyze(plan: &BlockingPlan) -> PlanReport {
    let structures: Vec<StructureReport> = plan
        .structures()
        .iter()
        .map(|s| StructureReport {
            label: s.label().to_string(),
            backend: s.backend_kind().to_string(),
            l: s.l(),
            p_collide: s.p_collide(),
            recall_bound: recall_lower_bound(s.p_collide(), s.l()),
            buckets: s.num_buckets(),
            max_bucket: s.max_bucket(),
        })
        .collect();
    let combined = structures
        .iter()
        .map(|s| s.recall_bound)
        .fold(f64::INFINITY, f64::min);
    PlanReport {
        total_tables: plan.total_tables(),
        combined_recall_bound: if combined.is_finite() { combined } else { 0.0 },
        structures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::BlockingPlan;
    use crate::schema::{AttributeSpec, RecordSchema};
    use crate::{LinkageConfig, Rule};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use textdist::Alphabet;

    fn schema(rng: &mut StdRng) -> RecordSchema {
        RecordSchema::build(
            Alphabet::linkage(),
            vec![
                AttributeSpec::new("f0", 2, 15, false, 5),
                AttributeSpec::new("f1", 2, 15, false, 5),
            ],
            rng,
        )
    }

    #[test]
    fn report_meets_delta_guarantee() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = schema(&mut rng);
        let rule = Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]);
        let plan =
            BlockingPlan::from_config(&s, &LinkageConfig::rule_aware(rule), &mut rng).unwrap();
        let report = analyze(&plan);
        assert_eq!(report.structures.len(), 1);
        assert!(report.combined_recall_bound >= 0.9);
        assert_eq!(report.total_tables, report.structures[0].l);
    }

    #[test]
    fn or_plan_reports_both_structures() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = schema(&mut rng);
        let rule = Rule::or([Rule::pred(0, 4), Rule::pred(1, 4)]);
        let plan =
            BlockingPlan::from_config(&s, &LinkageConfig::rule_aware(rule), &mut rng).unwrap();
        let report = analyze(&plan);
        assert_eq!(report.structures.len(), 2);
        assert!(report.structures.iter().all(|r| r.recall_bound > 0.0));
    }

    #[test]
    fn covering_plan_reports_full_recall_and_backend() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = schema(&mut rng);
        let config = LinkageConfig::covering(Rule::pred(0, 4), 4);
        let plan = BlockingPlan::from_config(&s, &config, &mut rng).unwrap();
        let report = analyze(&plan);
        assert_eq!(report.structures[0].backend, "covering");
        assert_eq!(report.structures[0].l, 31); // 2^{4+1} − 1
        assert!((report.combined_recall_bound - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bucket_stats_populate_after_inserts() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = schema(&mut rng);
        let rule = Rule::pred(0, 4);
        let mut plan =
            BlockingPlan::from_config(&s, &LinkageConfig::rule_aware(rule), &mut rng).unwrap();
        let rec = s.embed(&crate::Record::new(1, ["JOHN", "SMITH"])).unwrap();
        plan.insert(&rec);
        let report = analyze(&plan);
        assert!(report.structures[0].buckets > 0);
        assert!(report.structures[0].max_bucket >= 1);
    }
}

//! Lowering a classification rule into an executable subscription plan.
//!
//! [`CompiledRule`] wraps the rule-aware blocking compiler (§5.4): the
//! rule's AND conjuncts fuse into one LSH structure, OR branches union,
//! and NOT becomes verified set subtraction — so by construction the plan
//! holds *only* the tables the rule's predicates can match. A rule over
//! attributes `{0, 1}` of a 4-attribute schema never probes (or pays
//! index/bucket cost for) tables keyed on attributes 2 or 3, which is the
//! candidate-work bound "Scalable Blocking for Very Large Databases"
//! argues for, applied per subscription.
//!
//! On top of the plan the compiler adds **top-k candidate capping**: when
//! a probe's verified candidate set exceeds `cap`, only the `cap` records
//! nearest by total Hamming distance are classified. This bounds per-probe
//! work under adversarial bucket skew at a bounded recall cost (the
//! dropped candidates are the farthest, hence least likely to satisfy the
//! rule).

use cbv_hb::blocking::{BlockingPlan, ProbeScratch};
use cbv_hb::error::Result;
use cbv_hb::matcher::MatchStats;
use cbv_hb::schema::{RecordSchema, RowLayout};
use cbv_hb::Rule;
use rand::Rng;
use std::collections::BTreeSet;

use crate::window::{LateArrival, WindowSpec};

/// Everything a subscription asks for: the rule, its window, the
/// late-arrival policy, and the per-probe candidate cap (`0` = uncapped).
#[derive(Debug, Clone, PartialEq)]
pub struct SubscriptionSpec {
    /// The classification rule to watch for.
    pub rule: Rule,
    /// The window scoping which past records are matchable.
    pub window: WindowSpec,
    /// What to do with out-of-order event times.
    pub late: LateArrival,
    /// Per-probe top-k candidate cap; `0` disables capping.
    pub cap: usize,
}

impl SubscriptionSpec {
    /// A spec with the default policy (no lateness tolerance decision
    /// needed, uncapped probing).
    pub fn new(rule: Rule, window: WindowSpec) -> Self {
        Self {
            rule,
            window,
            late: LateArrival::default(),
            cap: 0,
        }
    }
}

/// A rule lowered into an executable probing plan.
#[derive(Debug)]
pub struct CompiledRule {
    rule: Rule,
    plan: BlockingPlan,
    /// Where the schema's attributes sit in a record's row.
    layout: RowLayout,
    attrs: BTreeSet<usize>,
    cap: usize,
}

impl CompiledRule {
    /// Compiles `rule` against `schema` with failure budget `delta` and
    /// per-probe cap `cap` (`0` = uncapped).
    ///
    /// # Errors
    /// Propagates rule validation and plan compilation errors
    /// ([`cbv_hb::Error`]).
    pub fn compile<R: Rng + ?Sized>(
        schema: &RecordSchema,
        rule: Rule,
        delta: f64,
        cap: usize,
        rng: &mut R,
    ) -> Result<Self> {
        let plan = BlockingPlan::compile(schema, &rule, delta, rng)?;
        let attrs = rule.predicates().iter().map(|p| p.attr).collect();
        Ok(Self {
            rule,
            plan,
            layout: schema.layout(),
            attrs,
            cap,
        })
    }

    /// The source rule.
    pub fn rule(&self) -> &Rule {
        &self.rule
    }

    /// The attribute indices the plan's tables are keyed on — exactly the
    /// attributes the rule's predicates reference.
    pub fn attrs(&self) -> &BTreeSet<usize> {
        &self.attrs
    }

    /// Total LSH tables the plan probes per record (`Σ L`).
    pub fn tables(&self) -> usize {
        self.plan.total_tables()
    }

    /// The attribute indices the compiled structures' tables are actually
    /// keyed on, read back from the plan — always equal to [`Self::attrs`]
    /// (the pruning claim; asserted by tests, exposed for diagnostics).
    pub fn table_attrs(&self) -> BTreeSet<usize> {
        self.plan
            .structures()
            .iter()
            .flat_map(|s| s.conjuncts().iter().map(|p| p.attr))
            .collect()
    }

    /// The per-probe candidate cap (`0` = uncapped).
    pub fn cap(&self) -> usize {
        self.cap
    }

    #[cfg(test)]
    pub(crate) fn plan(&self) -> &BlockingPlan {
        &self.plan
    }

    /// Indexes record slot `slot`, whose packed row is `row`, into the
    /// plan's tables so later probes can find it.
    pub fn index(&mut self, slot: u64, row: &[u64]) {
        self.plan.insert_row(slot, row);
    }

    /// Re-keys record slot `slot`, indexed with row `old`, to row `new`.
    pub fn reindex(&mut self, slot: u64, old: &[u64], new: &[u64]) {
        self.plan.reindex_row(slot, old, new);
    }

    /// Takes record slot `slot`, indexed with row `row`, out of the plan's
    /// buckets, leaving nothing of it behind.
    pub fn evict(&mut self, slot: u64, row: &[u64]) {
        self.plan.evict_row(slot, row);
    }

    /// Probes the plan with a record's packed row: formulates the
    /// candidate set per the rule's blocking logic, caps it to the `cap`
    /// nearest by total distance (ties to the lower id), classifies each
    /// survivor with the rule, and returns matched ids in ascending order.
    /// `lookup` resolves a candidate slot to its record's id and row;
    /// candidates it does not resolve (the probe's own slot) are skipped.
    pub fn probe<'s, F>(&self, probe: &[u64], lookup: F, stats: &mut MatchStats) -> Vec<u64>
    where
        F: Fn(u64) -> Option<(u64, &'s [u64])>,
    {
        let layout = &self.layout;
        let mut scratch = ProbeScratch::default();
        let row_of = |slot| lookup(slot).map(|(_, row)| row);
        self.plan.candidates_into_row(probe, row_of, &mut scratch);
        let mut cands: Vec<(u64, &[u64])> = scratch
            .candidates()
            .iter()
            .filter_map(|&slot| lookup(slot))
            .collect();
        stats.candidates += scratch.candidates().len() as u64;
        if self.cap > 0 && cands.len() > self.cap {
            // Keep the cap nearest.
            cands.sort_by_key(|&(id, a)| (layout.total_distance(a, probe), id));
            cands.truncate(self.cap);
        }
        let mut out = Vec::new();
        for (id, a) in cands {
            stats.distance_computations += 1;
            if self
                .rule
                .evaluate_with(&|attr| layout.distance(a, probe, attr))
            {
                out.push(id);
            }
        }
        stats.matched += out.len() as u64;
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_hb::matcher::{match_record, Classifier, RecordSlab};
    use cbv_hb::schema::AttributeSpec;
    use cbv_hb::Record;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use textdist::Alphabet;

    /// Three attributes; the third ("City") is identical across the corpus,
    /// the worst case for record-level blocking (everyone is 1/3 similar).
    fn schema(seed: u64) -> RecordSchema {
        let mut rng = StdRng::seed_from_u64(seed);
        RecordSchema::build(
            Alphabet::linkage(),
            vec![
                AttributeSpec::new("FirstName", 2, 64, false, 5),
                AttributeSpec::new("LastName", 2, 64, false, 5),
                AttributeSpec::new("City", 2, 64, false, 5),
            ],
            &mut rng,
        )
    }

    fn corpus() -> Vec<Record> {
        let names = [
            ("JOHN", "SMITH"),
            ("MARY", "JONES"),
            ("PETER", "WILLIAMS"),
            ("LUCY", "BROWN"),
            ("MARK", "TAYLOR"),
            ("SARAH", "DAVIES"),
            ("JAMES", "WILSON"),
            ("EMMA", "EVANS"),
        ];
        let mut out = Vec::new();
        for (i, (f, l)) in names.iter().enumerate() {
            let id = 2 * i as u64;
            out.push(Record::new(
                id,
                [f.to_string(), l.to_string(), "SPRINGFIELD".into()],
            ));
            // A dirty twin: one trailing character changed on the first name.
            let mut dirty: String = (*f).into();
            dirty.pop();
            dirty.push('X');
            out.push(Record::new(
                id + 1,
                [dirty, (*l).to_string(), "SPRINGFIELD".into()],
            ));
        }
        out
    }

    /// The acceptance-criteria compiler test: the compiled plan probes only
    /// the tables its rule's predicates require — fewer candidate lookups
    /// than the unrestricted record-level plan — while missing no match on
    /// a seeded corpus.
    #[test]
    fn compiled_plan_prunes_tables_without_missing_matches() {
        let s = schema(41);
        let rule = Rule::and([Rule::pred(0, 8), Rule::pred(1, 8)]);
        let mut rng = StdRng::seed_from_u64(42);
        let mut compiled = CompiledRule::compile(&s, rule.clone(), 0.02, 0, &mut rng).unwrap();

        // Structural claim: every table is keyed on the rule's attributes —
        // attribute 2 appears in no structure.
        assert_eq!(compiled.attrs().iter().copied().collect::<Vec<_>>(), [0, 1]);
        assert_eq!(compiled.table_attrs(), compiled.attrs().clone());

        // The unrestricted baseline: record-level LSH over the full
        // concatenated vector, classifying with the same rule. Threshold =
        // the rule's total budget (attr 2 is identical, distance 0).
        let mut rng2 = StdRng::seed_from_u64(42);
        let mut unrestricted = BlockingPlan::record_level(&s, 16, 5, 0.02, &mut rng2).unwrap();

        let recs = corpus();
        let embedded: Vec<_> = recs.iter().map(|r| s.embed(r).unwrap()).collect();
        let mut store = RecordSlab::new(s.layout());
        for e in &embedded {
            let row = e.packed();
            let slot = u64::from(store.insert(e.id, row.as_ref()).unwrap());
            compiled.index(slot, row.as_ref());
            unrestricted.insert_row(slot, row.as_ref());
        }
        let by_slot = |slot| Some((store.id_at(slot), store.row_at(slot)?));

        let mut compiled_stats = MatchStats::default();
        let mut unrestricted_stats = MatchStats::default();
        let classifier = Classifier::Rule(rule.clone());
        for probe in &embedded {
            let row = probe.packed();
            let mine = compiled.probe(
                row.as_ref(),
                |slot| by_slot(slot).filter(|&(id, _)| id != probe.id),
                &mut compiled_stats,
            );
            // Ground truth: brute-force rule evaluation over the corpus.
            let truth: Vec<u64> = embedded
                .iter()
                .filter(|o| o.id != probe.id && rule.evaluate(&o.distances(probe)))
                .map(|o| o.id)
                .collect();
            for t in &truth {
                assert!(mine.contains(t), "missed match {t} for probe {}", probe.id);
            }
            assert_eq!(mine.len(), truth.len(), "probe {}", probe.id);
            match_record(
                &unrestricted,
                &store,
                row.as_ref(),
                &classifier,
                &mut ProbeScratch::default(),
                &mut unrestricted_stats,
                |_| {},
            );
        }
        // The shared "City" attribute floods the record-level buckets with
        // unrelated candidates; the rule-aware plan never looks at them.
        assert!(
            compiled_stats.candidates < unrestricted_stats.candidates,
            "compiled {} vs unrestricted {} candidate lookups",
            compiled_stats.candidates,
            unrestricted_stats.candidates
        );
    }

    #[test]
    fn top_k_cap_bounds_classification_work() {
        let s = schema(43);
        let rule = Rule::and([Rule::pred(0, 10), Rule::pred(1, 10)]);
        let mut rng = StdRng::seed_from_u64(44);
        // Cap 1: even with many similar records only the nearest candidate
        // is classified per probe.
        let mut capped = CompiledRule::compile(&s, rule.clone(), 0.05, 1, &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(44);
        let mut uncapped = CompiledRule::compile(&s, rule, 0.05, 0, &mut rng).unwrap();
        assert_eq!(capped.cap(), 1);

        let recs = [
            Record::new(1, ["ANNA", "LEE", "X"]),
            Record::new(2, ["ANNA", "LEE", "X"]),
            Record::new(3, ["ANNA", "LEE", "X"]),
        ];
        let row = |r: &Record| s.embed(r).unwrap().packed();
        let mut store = RecordSlab::new(s.layout());
        // Slots in descending id order: the cap's ties and the output go by
        // id, not by slot.
        for r in recs.iter().rev() {
            let slot = u64::from(store.insert(r.id, row(r).as_ref()).unwrap());
            capped.index(slot, row(r).as_ref());
            uncapped.index(slot, row(r).as_ref());
        }
        let by_slot = |slot| Some((store.id_at(slot), store.row_at(slot)?));
        let probe = row(&Record::new(9, ["ANNA", "LEE", "X"]));
        let probe = probe.as_ref();
        let mut stats = MatchStats::default();
        let hits = uncapped.probe(probe, by_slot, &mut stats);
        assert_eq!(hits, vec![1, 2, 3], "uncapped finds every twin");
        let mut capped_stats = MatchStats::default();
        let hits = capped.probe(probe, by_slot, &mut capped_stats);
        assert_eq!(
            hits,
            [1],
            "cap 1 classifies exactly one candidate, the lowest id"
        );
        assert_eq!(capped_stats.distance_computations, 1);
    }

    #[test]
    fn unresolvable_candidates_are_skipped() {
        let s = schema(45);
        let rule = Rule::and([Rule::pred(0, 8), Rule::pred(1, 8)]);
        let mut rng = StdRng::seed_from_u64(46);
        let mut c = CompiledRule::compile(&s, rule, 0.05, 0, &mut rng).unwrap();
        let row = s
            .embed(&Record::new(1, ["ANNA", "LEE", "X"]))
            .unwrap()
            .packed();
        c.index(1, row.as_ref());
        let mut stats = MatchStats::default();
        // The store "lost" the record (evicted): the stale bucket entry
        // must not match its twin.
        let hits = c.probe(row.as_ref(), |_| None, &mut stats);
        assert!(hits.is_empty());
        assert_eq!(stats.matched, 0);
    }
}

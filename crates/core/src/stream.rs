//! Streaming (insert-and-query) matching.
//!
//! The paper's introduction motivates compact Hamming embeddings with
//! "emerging recent applications that require nearly real-time analysis,
//! especially if they involve streaming data" — e.g. a health surveillance
//! system continuously integrating hospital and pharmacy records. A
//! [`StreamMatcher`] supports exactly that mode: each arriving record is
//! matched against everything seen so far, then indexed.

use crate::blocking::{BlockingPlan, ProbeScratch};
use crate::error::{Error, Result};
use crate::matcher::{index_row, match_record, unindex, Classifier, MatchStats, RecordSlab};
use crate::pipeline::{LinkageConfig, PipelineMetrics};
use crate::record::Record;
use crate::schema::RecordSchema;
use rand::Rng;
use std::sync::Arc;
use std::time::Instant;

/// An online matcher: observe records one at a time, get matches against
/// the history, and accumulate the record into the index.
#[derive(Debug)]
pub struct StreamMatcher {
    schema: RecordSchema,
    plan: BlockingPlan,
    store: RecordSlab,
    classifier: Classifier,
    scratch: ProbeScratch,
    stats: MatchStats,
    observed: u64,
    metrics: Option<Arc<PipelineMetrics>>,
}

impl StreamMatcher {
    /// Builds a streaming matcher from a schema and configuration.
    ///
    /// # Errors
    /// Returns configuration errors from rule validation or plan
    /// compilation.
    pub fn new<R: Rng + ?Sized>(
        schema: RecordSchema,
        config: LinkageConfig,
        rng: &mut R,
    ) -> Result<Self> {
        let plan = BlockingPlan::from_config(&schema, &config, rng)?;
        let classifier = Classifier::Rule(config.rule);
        Ok(Self {
            store: RecordSlab::new(schema.layout()),
            schema,
            plan,
            classifier,
            scratch: ProbeScratch::default(),
            stats: MatchStats::default(),
            observed: 0,
            metrics: None,
        })
    }

    /// Attaches phase-timing metrics: every subsequent
    /// [`StreamMatcher::observe`] records its end-to-end latency into the
    /// shared `observe` histogram.
    pub fn attach_metrics(&mut self, metrics: Arc<PipelineMetrics>) {
        self.metrics = Some(metrics);
    }

    /// Observes one record: returns the ids of previously seen records that
    /// match it, then indexes it.
    ///
    /// # Errors
    /// Returns [`crate::Error::FieldCountMismatch`] on malformed records
    /// and [`crate::Error::DuplicateId`] when the id is already indexed —
    /// re-observing an id used to silently double-count [`Self::observed`]
    /// while the store kept only one copy. Callers that want
    /// replace-on-duplicate semantics use [`Self::observe_upsert`].
    pub fn observe(&mut self, record: &Record) -> Result<Vec<u64>> {
        if self.store.get(record.id).is_some() {
            return Err(Error::DuplicateId { id: record.id });
        }
        let row = self.embed_row(record)?;
        Ok(self.observe_row(record.id, &row))
    }

    /// Observes one record, replacing any previously indexed record with
    /// the same id. The replaced record leaves the tables and the slab
    /// before the probe, so it is never a candidate, not among the returned
    /// matches, and can never match again.
    ///
    /// # Errors
    /// Returns [`crate::Error::FieldCountMismatch`] on malformed records.
    pub fn observe_upsert(&mut self, record: &Record) -> Result<Vec<u64>> {
        let row = self.embed_row(record)?;
        unindex(&mut self.plan, &mut self.store, record.id);
        Ok(self.observe_row(record.id, &row))
    }

    /// The shared match-then-index step. The caller has already settled
    /// duplicate-id policy (reject or upsert): the store must not contain
    /// `id` at this point.
    fn observe_row(&mut self, id: u64, row: &[u64]) -> Vec<u64> {
        let t0 = Instant::now();
        let mut matches = Vec::new();
        match_record(
            &self.plan,
            &self.store,
            row,
            &self.classifier,
            &mut self.scratch,
            &mut self.stats,
            |id| matches.push(id),
        );
        index_row(&mut self.plan, &mut self.store, id, row);
        self.observed += 1;
        if let Some(m) = &self.metrics {
            m.observe.observe_duration(t0.elapsed());
        }
        matches
    }

    /// Embeds a record against this matcher's schema — its packed row.
    fn embed_row(&self, record: &Record) -> Result<Vec<u64>> {
        let mut row = vec![0; self.schema.row_words()];
        self.schema.embed_row(record, &mut row)?;
        Ok(row)
    }

    /// Removes a record from the index by id — slab and blocking tables
    /// ([`unindex`]) — returning whether it was present. The record can
    /// never match a later observation; [`Self::len`] shrinks, while
    /// [`Self::observed`] — a window counter over `observe` calls — is
    /// unaffected.
    pub fn remove(&mut self, id: u64) -> bool {
        unindex(&mut self.plan, &mut self.store, id)
    }

    /// Records observed in the current measurement window: the number of
    /// [`Self::observe`] calls since construction or the last
    /// [`Self::reset_stats`]. A *window* counter, like [`Self::stats`] —
    /// not the index size; see [`Self::len`] for that.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Records currently held in the index: the ground truth for index
    /// size. Differs from [`Self::observed`] when ids repeat (the store
    /// keeps one record per id), after [`Self::remove`], and after
    /// [`Self::reset_stats`] (which starts a new window).
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when no records have been indexed.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Accumulated matching counters for the current window.
    pub fn stats(&self) -> MatchStats {
        self.stats
    }

    /// Starts a new measurement window: zeroes the matching counters
    /// *and* [`Self::observed`] together, so per-window ratios (e.g.
    /// matches per observed record) stay coherent. The index itself —
    /// [`Self::len`] and everything matchable — is untouched.
    pub fn reset_stats(&mut self) {
        self.stats = MatchStats::default();
        self.observed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Rule;
    use crate::schema::AttributeSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use textdist::Alphabet;

    fn matcher(seed: u64) -> StreamMatcher {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = RecordSchema::build(
            Alphabet::linkage(),
            vec![
                // Generous sizes keep hash-collision false positives out of
                // this deterministic test (15-bit vectors occasionally merge
                // enough positions to pull unrelated names within θ).
                AttributeSpec::new("FirstName", 2, 64, false, 5),
                AttributeSpec::new("LastName", 2, 64, false, 5),
            ],
            &mut rng,
        );
        let rule = Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]);
        StreamMatcher::new(schema, LinkageConfig::rule_aware(rule), &mut rng).unwrap()
    }

    #[test]
    fn stream_matches_against_history() {
        let mut m = matcher(1);
        assert!(m
            .observe(&Record::new(1, ["JOHN", "SMITH"]))
            .unwrap()
            .is_empty());
        assert!(m
            .observe(&Record::new(2, ["MARY", "JONES"]))
            .unwrap()
            .is_empty());
        let hits = m.observe(&Record::new(3, ["JON", "SMITH"])).unwrap();
        assert_eq!(hits, vec![1]);
        assert_eq!(m.observed(), 3);
    }

    #[test]
    fn duplicate_streams_accumulate() {
        let mut m = matcher(2);
        m.observe(&Record::new(1, ["ANNA", "LEE"])).unwrap();
        m.observe(&Record::new(2, ["ANNA", "LEE"])).unwrap();
        let hits = m.observe(&Record::new(3, ["ANNA", "LEE"])).unwrap();
        assert_eq!(hits.len(), 2);
        assert!(m.stats().matched >= 3);
    }

    #[test]
    fn len_and_reset_stats() {
        let mut m = matcher(6);
        assert!(m.is_empty());
        m.observe(&Record::new(1, ["JOHN", "SMITH"])).unwrap();
        m.observe(&Record::new(2, ["JON", "SMITH"])).unwrap();
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
        assert!(m.stats().matched >= 1);
        m.reset_stats();
        assert_eq!(m.stats(), crate::matcher::MatchStats::default());
        // The index survives a stats reset.
        assert_eq!(m.len(), 2);
        let hits = m.observe(&Record::new(3, ["JOHN", "SMITH"])).unwrap();
        assert!(hits.contains(&1));
    }

    #[test]
    fn reset_stats_opens_a_fresh_window() {
        // Regression: reset_stats used to zero the matching counters but
        // leave `observed` running, so per-window ratios (matches per
        // observed record) silently mixed windows.
        let mut m = matcher(7);
        m.observe(&Record::new(1, ["JOHN", "SMITH"])).unwrap();
        m.observe(&Record::new(2, ["JON", "SMITH"])).unwrap();
        assert_eq!(m.observed(), 2);
        m.reset_stats();
        assert_eq!(m.observed(), 0, "observed is a window counter");
        assert_eq!(m.len(), 2, "len is index size, never reset");
        m.observe(&Record::new(3, ["MARY", "JONES"])).unwrap();
        assert_eq!(m.observed(), 1);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn remove_takes_the_record_out_of_matching() {
        let mut m = matcher(9);
        m.observe(&Record::new(1, ["JOHN", "SMITH"])).unwrap();
        m.observe(&Record::new(2, ["MARY", "JONES"])).unwrap();
        assert_eq!(m.len(), 2);
        assert!(m.remove(1));
        assert!(!m.remove(1), "double delete is a no-op");
        assert_eq!(m.len(), 1);
        // The deleted record no longer matches.
        let hits = m.observe(&Record::new(3, ["JON", "SMITH"])).unwrap();
        assert!(hits.is_empty(), "deleted record must not match: {hits:?}");
    }

    #[test]
    fn duplicate_id_is_rejected_with_typed_error() {
        // Regression (satellite): observing a duplicate id used to silently
        // double-count `observed` while the store kept only one copy.
        let mut m = matcher(10);
        m.observe(&Record::new(1, ["JOHN", "SMITH"])).unwrap();
        let err = m.observe(&Record::new(1, ["JOHN", "SMYTHE"])).unwrap_err();
        assert_eq!(err, crate::Error::DuplicateId { id: 1 });
        assert_eq!(m.observed(), 1, "rejected observation must not count");
        assert_eq!(m.len(), 1);
        // A removed id can be observed again.
        assert!(m.remove(1));
        m.observe(&Record::new(1, ["JOHN", "SMYTHE"])).unwrap();
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn observe_upsert_replaces_the_stored_record() {
        let mut m = matcher(11);
        m.observe(&Record::new(1, ["JOHN", "SMITH"])).unwrap();
        // Upsert with a new spelling: the old copy must not self-match...
        let hits = m
            .observe_upsert(&Record::new(1, ["MARY", "JONES"]))
            .unwrap();
        assert!(hits.is_empty(), "replaced record must not match: {hits:?}");
        assert_eq!(m.len(), 1, "upsert keeps one record per id");
        // ...and later probes see only the replacement.
        let hits = m.observe(&Record::new(2, ["MARY", "JONES"])).unwrap();
        assert_eq!(hits, vec![1]);
        let hits = m.observe(&Record::new(3, ["JOHN", "SMITH"])).unwrap();
        assert!(!hits.contains(&1), "old embedding must be gone: {hits:?}");
        // An unchanged upsert is its own twin, and still not a match.
        let hits = m
            .observe_upsert(&Record::new(3, ["JOHN", "SMITH"]))
            .unwrap();
        assert!(!hits.contains(&3), "an upsert matched itself: {hits:?}");
    }

    #[test]
    fn embed_contains_and_store_access() {
        let mut m = matcher(12);
        m.observe(&Record::new(5, ["JOHN", "SMITH"])).unwrap();
        assert!(m.store.get(5).is_some());
        assert!(m.store.get(6).is_none());
        let probe = m.embed_row(&Record::new(6, ["JON", "SMITH"])).unwrap();
        let (layout, stored) = (m.store.layout(), m.store.get(5).unwrap());
        assert_eq!(layout.arity(), 2);
        assert!(layout.total_distance(&probe, stored) <= 8);
    }

    #[test]
    fn malformed_record_is_error_and_not_indexed() {
        let mut m = matcher(3);
        assert!(m.observe(&Record::new(1, ["ONLY"])).is_err());
        assert_eq!(m.observed(), 0);
    }

    /// Live entries across the plan's tables.
    fn live_entries(m: &StreamMatcher) -> usize {
        m.plan.stats().iter().map(|s| s.entries).sum()
    }

    #[test]
    fn removed_records_leave_the_tables() {
        // Regression: `remove` used to drop the row from the slab only,
        // so every removed record kept its L entries.
        let mut m = matcher(13);
        let l = m.plan.total_tables();
        let n = 40u64;
        for id in 0..n {
            m.observe(&Record::new(id, [format!("N{id}X"), format!("S{id}Y")]))
                .unwrap();
        }
        assert_eq!(live_entries(&m), n as usize * l);
        for id in 0..n {
            assert!(m.remove(id));
        }
        assert!(m.is_empty());
        assert_eq!(live_entries(&m), 0, "removed records left table entries");
    }

    #[test]
    fn an_upserted_id_holds_one_entry_per_table() {
        // Regression: each upsert used to insert the id again, so K
        // upserts of one id held K·L entries, and a stale row of the id
        // could be a candidate of its own upsert.
        let mut m = matcher(14);
        let l = m.plan.total_tables();
        let names = ["JOHN", "JON", "JOHAN", "JONATHAN", "JOHNNY"];
        for (k, first) in names.iter().cycle().take(12).enumerate() {
            let hits = m
                .observe_upsert(&Record::new(1, [*first, "SMITH"]))
                .unwrap();
            assert!(hits.is_empty(), "upsert {k} matched itself: {hits:?}");
        }
        assert_eq!(m.len(), 1);
        assert_eq!(live_entries(&m), l);
        // The replaced row is never even a candidate of its replacement.
        assert_eq!(m.stats().candidates, 0);
        assert_eq!(m.stats().distance_computations, 0);
    }
}

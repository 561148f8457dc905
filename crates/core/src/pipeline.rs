//! End-to-end linkage pipeline: embed → block → match.
//!
//! [`LinkagePipeline`] plays the role of the paper's linkage unit
//! ("Charlie", Section 3): it receives records from the data custodians,
//! embeds them into Ĥ under one shared schema, hashes data set A into the
//! blocking structures, and probes each record of data set B, classifying
//! the formulated pairs. It supports the standard record-level HB mode and
//! the rule-aware attribute-level mode of Section 5.4, plus multi-party
//! linkage (Section 5.3 notes the method handles an arbitrary number of
//! data sets).

use crate::blocking::{BlockingPlan, ProbeScratch};
use crate::error::Result;
use crate::matcher::{index_row, match_batch, rekey, restore, Classifier, MatchStats, RecordSlab};
use crate::record::Record;
use crate::rule::Rule;
use crate::schema::RecordSchema;
use rand::Rng;
use rl_blockstore::{CapMode, StoreKind};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Blocking mode selection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BlockingMode {
    /// Standard HB (Section 4.2): sample bits uniformly from the whole
    /// record-level c-vector, with a record-level Hamming threshold and `K`.
    RecordLevel {
        /// Record-level Hamming threshold `θ_Ĥ`.
        theta: u32,
        /// Base hash functions per composite key.
        k: u32,
    },
    /// Standard HB with an explicitly fixed number of blocking groups —
    /// for parameter sweeps where `L` must not track Equation 2.
    RecordLevelFixedL {
        /// Record-level Hamming threshold `θ_Ĥ`.
        theta: u32,
        /// Base hash functions per composite key.
        k: u32,
        /// Number of blocking groups.
        l: usize,
    },
    /// Attribute-level rule-aware blocking (Section 5.4): compile the
    /// classification rule; per-attribute `K^(f_i)` come from the schema.
    RuleAware,
    /// CoveringLSH record-level blocking (Pagh): `L = 2^{θ+1} − 1` groups
    /// with **zero false negatives** for pairs at record-level Hamming
    /// distance ≤ `theta`. No δ budget — recall is 1 by construction.
    Covering {
        /// Record-level Hamming radius `θ_Ĥ` the covering guarantee holds
        /// for.
        theta: u32,
    },
    /// CoveringLSH rule-aware blocking: the classification rule compiles
    /// into per-attribute covering structures (conjunctions fuse into one
    /// summed-radius family), each with recall 1 within its thresholds.
    CoveringRuleAware,
}

/// Blocking-table storage configuration: backend choice plus the
/// robustness knobs of "Scalable Blocking for Very Large Databases"
/// (block capping, bounded probes). Documents from builds that also wrote
/// a `compact_dead_ratio` load; the key is ignored.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BlockStoreConfig {
    /// Storage backend for the blocking tables.
    #[serde(default)]
    pub kind: StoreKind,
    /// Directory for generation files (required for
    /// [`StoreKind::Mmap`]; each structure uses `<dir>/s<i>`, each
    /// shard `<dir>/shard-<j>/s<i>`).
    #[serde(default)]
    pub dir: Option<String>,
    /// Per-block size cap (0 = unlimited).
    #[serde(default)]
    pub max_block_size: usize,
    /// Behaviour at the cap.
    #[serde(default)]
    pub cap_mode: CapMode,
    /// Per-probe distinct-candidate bound (0 = unbounded). Truncated
    /// probes are flagged in match stats and reply notes. Forced off for
    /// covering structures to preserve zero false negatives.
    #[serde(default)]
    pub probe_top_k: usize,
}

/// Pipeline configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkageConfig {
    /// Failure budget δ of Equation 2 (the paper uses 0.1).
    pub delta: f64,
    /// Blocking mode.
    pub mode: BlockingMode,
    /// Classification rule applied to candidate pairs — and, in
    /// [`BlockingMode::RuleAware`], compiled into the blocking plan.
    pub rule: Rule,
    /// Blocking-table storage (absent in configs from before the
    /// disk-resident store: defaults to in-memory, unbounded).
    #[serde(default)]
    pub block: BlockStoreConfig,
}

impl LinkageConfig {
    /// Rule-aware configuration with the paper's default δ = 0.1.
    pub fn rule_aware(rule: Rule) -> Self {
        Self {
            delta: 0.1,
            mode: BlockingMode::RuleAware,
            rule,
            block: BlockStoreConfig::default(),
        }
    }

    /// Record-level configuration with the paper's default δ = 0.1.
    pub fn record_level(rule: Rule, theta: u32, k: u32) -> Self {
        Self {
            delta: 0.1,
            mode: BlockingMode::RecordLevel { theta, k },
            rule,
            block: BlockStoreConfig::default(),
        }
    }

    /// Record-level covering configuration (zero false negatives within
    /// `theta`). δ is irrelevant to covering blocking but kept at the
    /// default for the config's other consumers.
    pub fn covering(rule: Rule, theta: u32) -> Self {
        Self {
            delta: 0.1,
            mode: BlockingMode::Covering { theta },
            rule,
            block: BlockStoreConfig::default(),
        }
    }

    /// Rule-aware covering configuration.
    pub fn covering_rule_aware(rule: Rule) -> Self {
        Self {
            delta: 0.1,
            mode: BlockingMode::CoveringRuleAware,
            rule,
            block: BlockStoreConfig::default(),
        }
    }

    /// Validates mode parameters before any hash family is drawn: `K` must
    /// fit a composite key (`1..=128` — `BitSampler` packs one bit per base
    /// function into a `u128`) and a covering radius must stay within the
    /// group-count cap.
    ///
    /// # Errors
    /// Returns [`crate::Error::InvalidParameter`] describing the offending
    /// parameter.
    pub fn validate(&self) -> Result<()> {
        match self.mode {
            BlockingMode::RecordLevel { k, .. } | BlockingMode::RecordLevelFixedL { k, .. } => {
                let k = k as usize;
                if k == 0 || k > rl_lsh::hamming::MAX_K {
                    return Err(crate::Error::InvalidParameter(format!(
                        "K = {k} is outside 1..={}; composite keys pack one bit per \
                         base function into a u128",
                        rl_lsh::hamming::MAX_K
                    )));
                }
            }
            BlockingMode::Covering { theta } => {
                if theta > rl_lsh::MAX_COVERING_THETA {
                    return Err(crate::Error::InvalidParameter(format!(
                        "covering radius θ = {theta} exceeds the cap {} \
                         (L = 2^(θ+1) − 1 blocking groups)",
                        rl_lsh::MAX_COVERING_THETA
                    )));
                }
            }
            BlockingMode::RuleAware | BlockingMode::CoveringRuleAware => {}
        }
        if self.block.kind == StoreKind::Mmap && self.block.dir.is_none() {
            return Err(crate::Error::InvalidParameter(
                "block store kind \"mmap\" requires a directory (--block-dir)".into(),
            ));
        }
        Ok(())
    }
}

/// Shared latency histograms for the three pipeline phases (embed →
/// block → match), plus streaming observe. One instance is shared by
/// every engine that serves one index — the histograms are lock-free, so
/// any number of probing threads record into them concurrently and the
/// result *is* the merge across them (fixed bucket boundaries make that
/// merge exact; see `rl_obs::Histogram`).
#[derive(Debug)]
pub struct PipelineMetrics {
    /// Embedding records into Ĥ (per batch).
    pub embed: Arc<rl_obs::Histogram>,
    /// Hashing embedded records into the blocking tables (per batch).
    pub block: Arc<rl_obs::Histogram>,
    /// Candidate formulation + classification (per probe batch).
    pub matching: Arc<rl_obs::Histogram>,
    /// One streaming observe round (match + index of a single record).
    pub observe: Arc<rl_obs::Histogram>,
}

impl PipelineMetrics {
    /// Registers the phase histograms in `registry` as
    /// `<prefix>_pipeline_phase_seconds{phase="embed"|"block"|"match"}`
    /// and `<prefix>_stream_observe_seconds`.
    pub fn register(registry: &rl_obs::Registry) -> Arc<Self> {
        let phase = |p: &str| {
            registry.histogram(
                "pipeline_phase_seconds",
                "Latency of one pipeline phase over one record batch",
                &[("phase", p)],
                rl_obs::Unit::Seconds,
            )
        };
        Arc::new(Self {
            embed: phase("embed"),
            block: phase("block"),
            matching: phase("match"),
            observe: registry.histogram(
                "stream_observe_seconds",
                "Latency of one streaming observe (match + index)",
                &[],
                rl_obs::Unit::Seconds,
            ),
        })
    }
}

/// Timings of the pipeline phases, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTimings {
    /// Embedding records into Ĥ.
    pub embed_nanos: u128,
    /// Hashing into the blocking tables.
    pub block_nanos: u128,
    /// Candidate formulation + classification.
    pub match_nanos: u128,
}

impl PhaseTimings {
    /// Total wall time across phases.
    pub fn total_nanos(&self) -> u128 {
        self.embed_nanos + self.block_nanos + self.match_nanos
    }
}

/// Matches plus counters produced by one probe worker.
type WorkerOutput = (Vec<(u64, u64)>, MatchStats);

/// On-disk form of a pipeline (see [`LinkagePipeline::save`]).
#[derive(Serialize, Deserialize)]
struct PersistedPipeline {
    schema: RecordSchema,
    config: LinkageConfig,
    plan: BlockingPlan,
    store: RecordSlab,
    indexed: usize,
}

/// Output of a linkage run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LinkageResult {
    /// Identified matching pairs `(id_A, id_B)` (de-duplicated).
    pub matches: Vec<(u64, u64)>,
    /// Matching counters (`|CR|`, computations, `|M̂|`).
    pub stats: MatchStats,
    /// Phase timings.
    pub timings: PhaseTimings,
}

/// The end-to-end linkage engine.
#[derive(Debug)]
pub struct LinkagePipeline {
    schema: RecordSchema,
    config: LinkageConfig,
    plan: BlockingPlan,
    store: RecordSlab,
    classifier: Classifier,
    index_timings: PhaseTimings,
    metrics: Option<Arc<PipelineMetrics>>,
}

impl LinkagePipeline {
    /// Builds a pipeline: validates the rule and compiles the blocking plan.
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
        let classifier = Classifier::Rule(config.rule.clone());
        Ok(Self {
            store: RecordSlab::new(schema.layout()),
            schema,
            config,
            plan,
            classifier,
            index_timings: PhaseTimings::default(),
            metrics: None,
        })
    }

    /// Attaches shared phase histograms; subsequent `index`/`link` calls
    /// record their embed/block/match latencies into them.
    pub fn attach_metrics(&mut self, metrics: Arc<PipelineMetrics>) {
        self.metrics = Some(metrics);
    }

    /// The schema in use.
    pub fn schema(&self) -> &RecordSchema {
        &self.schema
    }

    /// The active configuration.
    pub fn config(&self) -> &LinkageConfig {
        &self.config
    }

    /// The compiled blocking plan (introspection: structures, L values).
    pub fn plan(&self) -> &BlockingPlan {
        &self.plan
    }

    /// The record slab (introspection: the slot a table value names).
    pub fn store(&self) -> &RecordSlab {
        &self.store
    }

    /// Number of records the index holds (an id indexed twice is one).
    pub fn indexed_len(&self) -> usize {
        self.store.len()
    }

    /// Heap bytes the record store holds ([`RecordSlab::heap_bytes`]).
    pub fn record_heap_bytes(&self) -> u64 {
        self.store.heap_bytes()
    }

    /// Timings of the indexing side (embedding + hashing of data set A).
    pub fn index_timings(&self) -> PhaseTimings {
        self.index_timings
    }

    /// Embeds and indexes data set A into the blocking structures. A
    /// record whose id is already indexed replaces it.
    ///
    /// # Errors
    /// Returns [`crate::Error::FieldCountMismatch`] on malformed records,
    /// and the refusal of a full record store ([`index_row`]).
    pub fn index(&mut self, records: &[Record]) -> Result<()> {
        let t0 = Instant::now();
        let mut rows = Vec::new();
        self.schema.embed_rows(records, &mut rows)?;
        let embed = t0.elapsed();
        self.index_timings.embed_nanos += embed.as_nanos();
        let t1 = Instant::now();
        for (id, row) in self.schema.rows_of(records, &rows) {
            index_row(&mut self.plan, &mut self.store, id, row)?;
        }
        let block = t1.elapsed();
        self.index_timings.block_nanos += block.as_nanos();
        if let Some(m) = &self.metrics {
            m.embed.observe_duration(embed);
            m.block.observe_duration(block);
        }
        Ok(())
    }

    /// Probes data set B against the indexed data set A.
    ///
    /// # Errors
    /// Returns [`crate::Error::FieldCountMismatch`] on malformed records.
    pub fn link(&self, records: &[Record]) -> Result<LinkageResult> {
        let mut result = LinkageResult::default();
        let t0 = Instant::now();
        let mut rows = Vec::new();
        self.schema.embed_rows(records, &mut rows)?;
        let embed = t0.elapsed();
        result.timings.embed_nanos = embed.as_nanos();
        let t1 = Instant::now();
        self.match_all(records, &rows, &mut result.stats, &mut result.matches);
        let matching = t1.elapsed();
        result.timings.match_nanos = matching.as_nanos();
        if let Some(m) = &self.metrics {
            m.embed.observe_duration(embed);
            m.matching.observe_duration(matching);
        }
        Ok(result)
    }

    /// Matches every probe against the index, one [`ProbeScratch`] for the
    /// whole batch, appending `(id_A, id_B)` pairs to `matches`.
    fn match_all(
        &self,
        probes: &[Record],
        rows: &[u64],
        stats: &mut MatchStats,
        matches: &mut Vec<(u64, u64)>,
    ) {
        match_batch(
            &self.plan,
            &self.store,
            self.schema.rows_of(probes, rows),
            &self.classifier,
            &mut ProbeScratch::default(),
            stats,
            matches,
        );
    }

    /// As [`Self::link`], but probes records across `threads` worker
    /// threads (crossbeam scoped threads over chunks of B). The blocking
    /// plan and store are read-only during probing, so this is safe
    /// sharing; results are merged deterministically in chunk order.
    ///
    /// # Errors
    /// Returns [`crate::Error::FieldCountMismatch`] on malformed records.
    pub fn link_parallel(&self, records: &[Record], threads: usize) -> Result<LinkageResult> {
        let threads = threads.max(1);
        if threads == 1 || records.len() < 2 * threads {
            return self.link(records);
        }
        let mut result = LinkageResult::default();
        let t0 = Instant::now();
        // Both phases parallelize: each worker embeds its chunk (typically
        // the dominant cost) and then probes it.
        let chunk_size = records.len().div_ceil(threads);
        let chunks: Vec<&[Record]> = records.chunks(chunk_size).collect();
        let outputs: Vec<Result<WorkerOutput>> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|chunk| {
                    scope.spawn(move |_| {
                        let mut rows = Vec::new();
                        self.schema.embed_rows(chunk, &mut rows)?;
                        let mut stats = MatchStats::default();
                        let mut matches = Vec::new();
                        self.match_all(chunk, &rows, &mut stats, &mut matches);
                        Ok((matches, stats))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe worker panicked"))
                .collect()
        })
        .expect("crossbeam scope");
        for output in outputs {
            let (matches, stats) = output?;
            result.matches.extend(matches);
            result.stats.candidates += stats.candidates;
            result.stats.distance_computations += stats.distance_computations;
            result.stats.matched += stats.matched;
            result.stats.truncated += stats.truncated;
        }
        let elapsed = t0.elapsed();
        result.timings.match_nanos = elapsed.as_nanos();
        if let Some(m) = &self.metrics {
            // Workers interleave embedding and matching; attribute the
            // whole parallel pass to the match phase, as the timings do.
            m.matching.observe_duration(elapsed);
        }
        Ok(result)
    }

    /// Serializes the full pipeline state — schema (hash coefficients
    /// included), configuration, compiled plan with populated tables, and
    /// record store — so an index built once can be probed by a later
    /// process.
    ///
    /// # Errors
    /// Returns [`crate::Error::InvalidParameter`] on I/O failure.
    pub fn save<W: std::io::Write>(&self, writer: W) -> Result<()> {
        let state = PersistedPipeline {
            schema: self.schema.clone(),
            config: self.config.clone(),
            plan: self.plan.clone(),
            store: self.store.clone(),
            indexed: self.store.len(),
        };
        serde_json::to_writer(writer, &state)
            .map_err(|e| crate::Error::InvalidParameter(format!("serialize pipeline: {e}")))
    }

    /// Restores a pipeline saved by [`Self::save`]. The document's record
    /// count is not read: the slab counts its records.
    ///
    /// # Errors
    /// Returns [`crate::Error::InvalidParameter`] on malformed input, and
    /// the refusals of `matcher::restore` — the one restore
    /// routine, shared with `ShardedPipeline::from_state` — for a document
    /// whose probes would panic.
    pub fn load<Rd: std::io::Read>(reader: Rd) -> Result<Self> {
        let state: PersistedPipeline = serde_json::from_reader(reader)
            .map_err(|e| crate::Error::InvalidParameter(format!("deserialize pipeline: {e}")))?;
        let (mut plan, mut store) = (state.plan, state.store);
        restore(&state.schema, &state.config.rule, &mut plan, &mut store)?;
        Ok(Self {
            classifier: Classifier::Rule(state.config.rule.clone()),
            schema: state.schema,
            config: state.config,
            plan,
            store,
            index_timings: PhaseTimings::default(),
            metrics: None,
        })
    }

    /// Rebuilds every blocking structure from the record store
    /// ([`rekey`]): clears the tables (hash draws are kept, so keys land in
    /// the same buckets) and re-inserts every stored record under its slot.
    ///
    /// # Errors
    /// Returns [`crate::Error::Store`] when a disk store cannot be
    /// rewritten.
    pub fn rebuild_blocking(&mut self) -> Result<()> {
        rekey(&mut self.plan, &mut self.store)
    }

    /// Compacts every blocking structure's store: for disk-resident stores,
    /// merges the delta overlay into the next on-disk generation (bounding
    /// resident memory); a memory store has nothing to do.
    ///
    /// # Errors
    /// Returns [`crate::Error::Store`] on I/O failure.
    pub fn compact_blocking(&mut self) -> Result<()> {
        self.plan.compact()
    }

    /// Multi-party linkage: links every later data set against all earlier
    /// ones, returning `(set_a, id_a, set_b, id_b)` matches. Ids need only
    /// be unique within each data set.
    ///
    /// # Errors
    /// Returns [`crate::Error::InvalidParameter`] for more than 2¹⁶ sets or
    /// an id of 2⁴⁸ or more (an index id carries the set in its top 16
    /// bits), and embedding errors from malformed records.
    pub fn link_many(
        schema: RecordSchema,
        config: LinkageConfig,
        sets: &[&[Record]],
        rng: &mut impl Rng,
    ) -> Result<Vec<(usize, u64, usize, u64)>> {
        const ID_BITS: u32 = 48;
        if sets.len() > 1 << (64 - ID_BITS) {
            return Err(crate::Error::InvalidParameter(format!(
                "link_many takes at most 2^{} data sets, got {}",
                64 - ID_BITS,
                sets.len()
            )));
        }
        if let Some((si, r)) = sets
            .iter()
            .enumerate()
            .find_map(|(si, set)| set.iter().find(|r| r.id >> ID_BITS != 0).map(|r| (si, r)))
        {
            return Err(crate::Error::InvalidParameter(format!(
                "link_many ids must be below 2^{ID_BITS}: data set {si} has id {}",
                r.id
            )));
        }
        let mut out = Vec::new();
        let mut pipeline = LinkagePipeline::new(schema, config, rng)?;
        // Tag ids with their data-set index to keep them globally unique.
        let tag = |set: usize, id: u64| ((set as u64) << ID_BITS) | id;
        let untag = |id: u64| ((id >> ID_BITS) as usize, id & ((1 << ID_BITS) - 1));
        for (si, set) in sets.iter().enumerate() {
            // Probe against everything indexed so far (earlier sets only).
            let tagged: Vec<Record> = set
                .iter()
                .map(|r| Record {
                    id: tag(si, r.id),
                    fields: r.fields.clone(),
                })
                .collect();
            if si > 0 {
                let result = pipeline.link(&tagged)?;
                for (a, b) in result.matches {
                    let (sa, ida) = untag(a);
                    let (sb, idb) = untag(b);
                    out.push((sa, ida, sb, idb));
                }
            }
            pipeline.index(&tagged)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttributeSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use textdist::Alphabet;

    fn schema(rng: &mut StdRng) -> RecordSchema {
        RecordSchema::build(
            Alphabet::linkage(),
            vec![
                AttributeSpec::new("FirstName", 2, 15, false, 5),
                AttributeSpec::new("LastName", 2, 15, false, 5),
                AttributeSpec::new("Town", 2, 22, false, 10),
            ],
            rng,
        )
    }

    fn rule() -> Rule {
        Rule::and([Rule::pred(0, 4), Rule::pred(1, 4), Rule::pred(2, 4)])
    }

    #[test]
    fn end_to_end_rule_aware() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = schema(&mut rng);
        let mut p = LinkagePipeline::new(s, LinkageConfig::rule_aware(rule()), &mut rng).unwrap();
        let a = vec![
            Record::new(1, ["JOHN", "SMITH", "DURHAM"]),
            Record::new(2, ["MARY", "JONES", "RALEIGH"]),
            Record::new(3, ["PETER", "WRIGHT", "CARY"]),
        ];
        p.index(&a).unwrap();
        assert_eq!(p.indexed_len(), 3);
        let b = vec![
            Record::new(10, ["JON", "SMITH", "DURHAM"]), // 1 delete on f1
            Record::new(11, ["MARY", "JONES", "RALEIGH"]), // exact
            Record::new(12, ["AGNES", "OTHER", "NOWHERE"]),
        ];
        let r = p.link(&b).unwrap();
        let mut matches = r.matches.clone();
        matches.sort_unstable();
        assert_eq!(matches, vec![(1, 10), (2, 11)]);
        assert_eq!(r.stats.matched, 2);
        assert!(r.stats.candidates >= 2);
    }

    #[test]
    fn end_to_end_record_level() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = schema(&mut rng);
        let mut p =
            LinkagePipeline::new(s, LinkageConfig::record_level(rule(), 4, 30), &mut rng).unwrap();
        p.index(&[Record::new(1, ["JOHN", "SMITH", "DURHAM"])])
            .unwrap();
        let r = p
            .link(&[Record::new(10, ["JOHN", "SMYTH", "DURHAM"])])
            .unwrap();
        assert_eq!(r.matches, vec![(1, 10)]);
    }

    #[test]
    fn timings_are_recorded() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = schema(&mut rng);
        let mut p = LinkagePipeline::new(s, LinkageConfig::rule_aware(rule()), &mut rng).unwrap();
        p.index(&[Record::new(1, ["A", "B", "C"])]).unwrap();
        let r = p.link(&[Record::new(2, ["A", "B", "C"])]).unwrap();
        assert!(p.index_timings().total_nanos() > 0);
        assert!(r.timings.total_nanos() > 0);
    }

    #[test]
    fn malformed_record_is_an_error() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = schema(&mut rng);
        let mut p = LinkagePipeline::new(s, LinkageConfig::rule_aware(rule()), &mut rng).unwrap();
        assert!(p.index(&[Record::new(1, ["ONLY", "TWO"])]).is_err());
    }

    #[test]
    fn link_parallel_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(21);
        let s = schema(&mut rng);
        let mut p = LinkagePipeline::new(s, LinkageConfig::rule_aware(rule()), &mut rng).unwrap();
        let a: Vec<Record> = (0..50)
            .map(|i| Record::new(i, [format!("NAME{i}"), "SMITH".into(), "DURHAM".into()]))
            .collect();
        p.index(&a).unwrap();
        let b: Vec<Record> = (0..50)
            .map(|i| {
                Record::new(
                    1000 + i,
                    [format!("NAME{i}"), "SMITH".into(), "DURHAM".into()],
                )
            })
            .collect();
        let seq = p.link(&b).unwrap();
        let par = p.link_parallel(&b, 4).unwrap();
        let mut m1 = seq.matches.clone();
        let mut m2 = par.matches.clone();
        m1.sort_unstable();
        m2.sort_unstable();
        assert_eq!(m1, m2);
        assert_eq!(seq.stats.candidates, par.stats.candidates);
    }

    #[test]
    fn link_parallel_single_thread_falls_back() {
        let mut rng = StdRng::seed_from_u64(22);
        let s = schema(&mut rng);
        let mut p = LinkagePipeline::new(s, LinkageConfig::rule_aware(rule()), &mut rng).unwrap();
        p.index(&[Record::new(1, ["A", "B", "C"])]).unwrap();
        let r = p
            .link_parallel(&[Record::new(2, ["A", "B", "C"])], 1)
            .unwrap();
        assert_eq!(r.matches, vec![(1, 2)]);
    }

    #[test]
    fn save_load_roundtrip_preserves_behaviour() {
        let mut rng = StdRng::seed_from_u64(31);
        let s = schema(&mut rng);
        let mut p = LinkagePipeline::new(s, LinkageConfig::rule_aware(rule()), &mut rng).unwrap();
        p.index(&[
            Record::new(1, ["JOHN", "SMITH", "DURHAM"]),
            Record::new(2, ["MARY", "JONES", "RALEIGH"]),
        ])
        .unwrap();
        let mut buf = Vec::new();
        p.save(&mut buf).unwrap();
        let restored = LinkagePipeline::load(buf.as_slice()).unwrap();
        assert_eq!(restored.indexed_len(), 2);
        let probe = vec![Record::new(10, ["JON", "SMITH", "DURHAM"])];
        let before = p.link(&probe).unwrap();
        let after = restored.link(&probe).unwrap();
        assert_eq!(before.matches, after.matches);
        assert_eq!(before.stats.candidates, after.stats.candidates);
    }

    #[test]
    fn a_saved_rule_beyond_the_schema_is_refused_at_load() {
        let mut rng = StdRng::seed_from_u64(32);
        let s = schema(&mut rng);
        let mut p = LinkagePipeline::new(s, LinkageConfig::rule_aware(rule()), &mut rng).unwrap();
        p.index(&[Record::new(1, ["JOHN", "SMITH", "DURHAM"])])
            .unwrap();
        let mut buf = Vec::new();
        p.save(&mut buf).unwrap();
        let doc = String::from_utf8(buf).unwrap();
        // The classifier's rule names attribute 9 of three; each probe of
        // an exact copy would reach it.
        let edited = doc.replacen(r#"{"Pred":{"attr":2,"#, r#"{"Pred":{"attr":9,"#, 1);
        assert_ne!(edited, doc);
        let err = LinkagePipeline::load(edited.as_bytes()).unwrap_err();
        assert!(
            matches!(
                err,
                crate::Error::AttributeOutOfRange {
                    attr: 9,
                    num_attributes: 3
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(LinkagePipeline::load(&b"not json"[..]).is_err());
    }

    #[test]
    fn link_many_three_parties() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = schema(&mut rng);
        let a = vec![Record::new(1, ["JOHN", "SMITH", "DURHAM"])];
        let b = vec![Record::new(1, ["JOHN", "SMITH", "DURHAM"])];
        let c = vec![Record::new(1, ["JOHN", "SMYTH", "DURHAM"])];
        let matches = LinkagePipeline::link_many(
            s,
            LinkageConfig::rule_aware(rule()),
            &[&a, &b, &c],
            &mut rng,
        )
        .unwrap();
        // Pairs: (0,1)-(1,1), (0,1)-(2,1), (1,1)-(2,1).
        assert_eq!(matches.len(), 3);
        for (sa, _, sb, _) in &matches {
            assert_ne!(sa, sb, "matches must span different data sets");
        }
    }

    #[test]
    fn link_many_refuses_ids_and_set_counts_its_tags_cannot_hold() {
        let mut rng = StdRng::seed_from_u64(7);
        let s = schema(&mut rng);
        // Tagged as `(set << 48) | id`, set 0's id 2^48 would be set 1's
        // id 0, and the twins below would be reported as set 1 matching
        // itself.
        let a = vec![Record::new(1 << 48, ["JOHN", "SMITH", "DURHAM"])];
        let b = vec![Record::new(0, ["JOHN", "SMITH", "DURHAM"])];
        let config = || LinkageConfig::rule_aware(rule());
        let err = LinkagePipeline::link_many(s.clone(), config(), &[&a, &b], &mut rng);
        assert!(
            matches!(err, Err(crate::Error::InvalidParameter(_))),
            "{err:?}"
        );
        let below = vec![Record::new((1 << 48) - 1, ["JOHN", "SMITH", "DURHAM"])];
        let ok = LinkagePipeline::link_many(s.clone(), config(), &[&below, &b], &mut rng).unwrap();
        assert_eq!(ok, vec![(0, (1 << 48) - 1, 1, 0)]);
        let empty: &[Record] = &[];
        let sets = vec![empty; (1 << 16) + 1];
        let err = LinkagePipeline::link_many(s, config(), &sets, &mut rng);
        assert!(
            matches!(err, Err(crate::Error::InvalidParameter(_))),
            "{err:?}"
        );
    }

    #[test]
    fn plan_introspection() {
        let mut rng = StdRng::seed_from_u64(6);
        let s = schema(&mut rng);
        let p = LinkagePipeline::new(s, LinkageConfig::rule_aware(rule()), &mut rng).unwrap();
        assert_eq!(p.plan().structures().len(), 1); // fused AND
        assert!(p.plan().total_tables() > 0);
    }
}

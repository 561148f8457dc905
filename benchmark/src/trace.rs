//! The traced run: per-layer numbers for the same workload.
//!
//! Spans are recorded from this file, around calls into each layer's
//! public functions; nothing inside the crates is instrumented. A fixed
//! prefix of the workload's probes is replayed through
//!
//! ```text
//! probe ─┬─ core.schema.embed ── core.cvector.embed ── textdist.qgram
//!        ├─ core.blocking.candidates ─┬─ lsh.key
//!        │                            └─ blockstore.probe
//!        ├─ core.matcher.retrieve
//!        └─ core.matcher.classify
//! ```
//!
//! where a child's time is measured by calling the child's function on its
//! own right after the parent's (a *replayed* child: same inputs, same
//! work, its own interval), so a layer's self time is its span minus its
//! children's. The composed result is checked against
//! `LinkagePipeline::link` on the same probes, and the sum of the top-level
//! layers against its time (`trace.coverage`). Spans are kept in memory and
//! written out at the end.
//!
//! Per-record and per-pair figures are a loop's span divided by its count —
//! never one clock read per pair — and are read over windows of
//! [`WINDOW`] probes, as the median window.

use crate::alloc;
use crate::batch::{new_pipeline, ORACLE_PROBES};
use crate::child::{self, Child, Durable};
use crate::durable::spawn_fresh;
use crate::mixed::{copy_files, dir_bytes, MixedSide};
use crate::report::Report;
use crate::serve::{connect, ProbeSide};
use crate::stats::{median, Latencies};
use crate::workload::{Data, Spec, PLAN_SEED};
use crate::Setup;
use cbv_hb::blocking::{BlockingPlan, BlockingStructure};
use cbv_hb::matcher::{Classifier, MatchStats, RecordStore};
use cbv_hb::pipeline::{BlockingMode, LinkageConfig, LinkagePipeline};
use cbv_hb::{EmbeddedRecord, Record, RecordSchema, ShardedPipeline};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_bitvec::BitVec;
use rl_blockstore::TableSet;
use rl_lsh::{BitSampleFamily, BitSampler, CoveringFamily};
use rl_server::protocol::{truncation_notes, wire, Reply, Request, Response};
use rl_store::{Store, StoreOptions, SyncPolicy, WalOp};
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Probes (or records, or codec round trips) per window of a layer figure.
const WINDOW: usize = 100;
/// Share of `--seconds` the traced closed-loop phase runs for.
const CLOSED_LOOP_SHARE: f64 = 0.15;

/// Span names; a span's `name` is an index into this list.
const NAMES: [&str; 11] = [
    "probe",
    "textdist.qgram",
    "core.cvector.embed",
    "core.schema.embed",
    "lsh.key",
    "blockstore.probe",
    "core.blocking.candidates",
    "core.matcher.retrieve",
    "core.matcher.classify",
    "core.pipeline.link",
    "core.pipeline.index",
];
const PROBE: u8 = 0;
const QGRAM: u8 = 1;
const CVECTOR: u8 = 2;
const EMBED: u8 = 3;
const KEY: u8 = 4;
const TABLE_PROBE: u8 = 5;
const CANDIDATES: u8 = 6;
const RETRIEVE: u8 = 7;
const CLASSIFY: u8 = 8;
const LINK: u8 = 9;
const INDEX: u8 = 10;
/// For each span name, the name of the span that caused it.
const PARENTS: [u8; 11] = [
    PROBE, CVECTOR, EMBED, PROBE, CANDIDATES, CANDIDATES, PROBE, PROBE, PROBE, LINK, INDEX,
];

/// One recorded interval: which layer, for which probe (or index slice),
/// from when to when, in nanoseconds since the trace began.
struct Span {
    name: u8,
    item: u32,
    start: u64,
    end: u64,
}

/// Draws the hash family the plan drew, from the same seed, so that the
/// `lsh` layer can be timed on its own and its keys used against the
/// rebuilt tables. [`Replay::build`] verifies the keys really are the
/// plan's before anything is measured.
enum Keyer {
    Record(BitSampleFamily),
    Covering(CoveringFamily),
    /// Rule-aware conjunction: per table, one sampler per conjunct
    /// attribute, sub-keys concatenated low to high.
    Conjunction(Vec<Vec<(usize, BitSampler)>>),
}

impl Keyer {
    /// Repeats the draws `BlockingPlan::from_config` made for `structure`.
    fn draw(
        config: &LinkageConfig,
        schema: &RecordSchema,
        structure: &BlockingStructure,
    ) -> Result<Self, String> {
        let mut rng = StdRng::seed_from_u64(PLAN_SEED);
        let m = schema.total_size();
        let tables = structure.l();
        let e = |e: rl_lsh::FamilyError| e.to_string();
        Ok(match config.mode {
            BlockingMode::RecordLevel { k, .. } => {
                Keyer::Record(BitSampleFamily::random(m, k as usize, tables, &mut rng).map_err(e)?)
            }
            BlockingMode::Covering { theta } => {
                Keyer::Covering(CoveringFamily::random(m, theta, &mut rng).map_err(e)?)
            }
            BlockingMode::RuleAware => {
                // The compiler draws table-major: table 0's sampler for each
                // conjunct, then table 1's.
                let mut per_table = Vec::with_capacity(tables);
                for _ in 0..tables {
                    let mut row = Vec::new();
                    for conjunct in structure.conjuncts() {
                        let s = &schema.specs()[conjunct.attr];
                        row.push((
                            conjunct.attr,
                            BitSampler::random(s.m, s.k as usize, &mut rng).map_err(e)?,
                        ));
                    }
                    per_table.push(row);
                }
                Keyer::Conjunction(per_table)
            }
            _ => return Err("the layer replay does not know this blocking mode".into()),
        })
    }

    fn tables(&self) -> usize {
        match self {
            Keyer::Record(f) => f.l(),
            Keyer::Covering(f) => f.l(),
            Keyer::Conjunction(t) => t.len(),
        }
    }

    /// All `L` keys of `rec`, into `out`.
    fn keys(&self, rec: &EmbeddedRecord, out: &mut Vec<u128>) {
        out.clear();
        match self {
            Keyer::Record(f) => {
                let refs: Vec<&BitVec> = rec.attrs.iter().collect();
                out.extend(f.samplers().iter().map(|s| s.key_concat(&refs)));
            }
            Keyer::Covering(f) => {
                let refs: Vec<&BitVec> = rec.attrs.iter().collect();
                out.extend(f.groups().iter().map(|g| g.key_concat(&refs)));
            }
            Keyer::Conjunction(tables) => {
                for row in tables {
                    let (mut key, mut shift) = (0u128, 0usize);
                    for (attr, sampler) in row {
                        key |= sampler.key(&rec.attrs[*attr]) << shift;
                        shift += sampler.k();
                    }
                    out.push(key);
                }
            }
        }
    }
}

/// Per-probe durations of the replayed layers, in nanoseconds, plus the
/// counts the ratios are made of.
#[derive(Default)]
struct ProbeCost {
    /// Probes the durations below were summed over.
    probes: u64,
    qgram: u64,
    cvector: u64,
    embed: u64,
    key: u64,
    table_probe: u64,
    candidates: u64,
    retrieve: u64,
    classify: u64,
    ids_scanned: u64,
    candidate_count: u64,
    computations: u64,
    matched: u64,
    embed_allocs: u64,
    candidates_allocs: u64,
    classify_allocs: u64,
}

/// The benchmark's own copy of the pipeline's parts, composed from the
/// layers' public functions.
struct Replay {
    schema: RecordSchema,
    plan: BlockingPlan,
    store: RecordStore,
    classifier: Classifier,
    tables: TableSet,
    keyer: Keyer,
}

impl Replay {
    /// Indexes `records` through `BlockingPlan::insert` and
    /// `RecordStore::insert` (timed per slice), rebuilds a `TableSet` from
    /// the plan's entries (timed), and draws the key family.
    fn build(spec: &Spec, data: &Data, report: &mut Report) -> Result<Self, String> {
        let schema = data.schema.clone();
        let config = spec.config();
        let mut rng = StdRng::seed_from_u64(PLAN_SEED);
        let mut plan =
            BlockingPlan::from_config(&schema, &config, &mut rng).map_err(|e| e.to_string())?;
        if plan.structures().len() != 1 {
            return Err("the layer replay handles plans of one blocking structure".into());
        }
        let mut store = RecordStore::new();
        let (mut insert_ns, mut store_ns) = (Vec::new(), Vec::new());
        for slice in data.a.chunks(spec.index_slice) {
            let embedded = schema.embed_all(slice).map_err(|e| e.to_string())?;
            let t = Instant::now();
            for rec in &embedded {
                plan.insert(rec);
            }
            insert_ns.push(t.elapsed().as_nanos() as f64 / slice.len() as f64);
            let t = Instant::now();
            for rec in embedded {
                store.insert(rec);
            }
            store_ns.push(t.elapsed().as_nanos() as f64 / slice.len() as f64);
        }
        report.metric("core.blocking.insert_ns_per_rec", median(&insert_ns), "ns");
        report.metric(
            "core.matcher.store_insert_ns_per_rec",
            median(&store_ns),
            "ns",
        );

        // Rebuild the tables from the plan's entries: once only walking
        // them, once inserting, so that the walk can be subtracted.
        let structure = &plan.structures()[0];
        let l = structure.l();
        let mut walked = 0u64;
        let t = Instant::now();
        structure.for_each_entry(|_, key, ids| walked += key as u64 ^ ids.len() as u64);
        let walk = t.elapsed();
        std::hint::black_box(walked);
        let mut tables = TableSet::memory(l);
        let live = alloc::live_bytes();
        let t = Instant::now();
        structure.for_each_entry(|table, key, ids| {
            for &id in ids {
                tables.insert(table, key, id);
            }
        });
        let insert = t.elapsed().saturating_sub(walk);
        let n = data.a.len() as f64;
        report.metric(
            "blockstore.insert_ns_per_rec",
            insert.as_nanos() as f64 / n,
            "ns",
        );
        report.metric(
            "blockstore.bytes_per_rec",
            alloc::live_bytes().saturating_sub(live) as f64 / n,
            "B",
        );
        report.metric(
            "blockstore.p99_bucket",
            structure.stats().p99_bucket() as f64,
            "count",
        );

        let keyer = Keyer::draw(&config, &schema, structure)?;
        if keyer.tables() != l {
            return Err(format!(
                "replayed family has {} tables, the plan {l}",
                keyer.tables()
            ));
        }
        // The replayed family must produce the plan's keys: every record
        // must be found in the bucket its replayed key names, in every table.
        let mut keys = Vec::new();
        let mut bucket = Vec::new();
        for rec in data.a.iter().take(200) {
            let embedded = schema.embed(rec).map_err(|e| e.to_string())?;
            keyer.keys(&embedded, &mut keys);
            for (table, &key) in keys.iter().enumerate() {
                bucket.clear();
                tables.probe_into(table, key, &mut bucket);
                if !bucket.contains(&rec.id) {
                    return Err(format!(
                        "the replayed hash family does not reproduce the plan's keys \
                         (record {} missing from table {table})",
                        rec.id
                    ));
                }
            }
        }
        Ok(Replay {
            schema,
            plan,
            store,
            classifier: Classifier::Rule(config.rule),
            tables,
            keyer,
        })
    }

    /// One probe through the four top-level layers, in the order and with
    /// the cache state `LinkagePipeline::link` has. With `TRACED` they are
    /// timed and counted into `cost`; without, the identical work runs with
    /// no clock reads, which is what `trace.overhead` compares against.
    fn probe<const TRACED: bool>(
        &self,
        probe: &Record,
        cost: &mut ProbeCost,
        matches: &mut Vec<(u64, u64)>,
        t: &mut [Instant; 5],
    ) -> Result<(), String> {
        let now = |slot: &mut Instant| {
            if TRACED {
                *slot = Instant::now();
            }
        };
        let allocs = || if TRACED { alloc::counts().0 } else { 0 };
        now(&mut t[0]);
        let a0 = allocs();
        let embedded = self.schema.embed(probe).map_err(|e| e.to_string())?;
        let a1 = allocs();
        now(&mut t[1]);
        let (candidates, _) = self
            .plan
            .candidates_verified_counted(&embedded, |id| self.store.get(id));
        let a2 = allocs();
        now(&mut t[2]);
        let retrieved: Vec<&EmbeddedRecord> = candidates
            .iter()
            .filter_map(|&id| self.store.get(id))
            .collect();
        now(&mut t[3]);
        let a3 = allocs();
        let before = matches.len();
        for a in &retrieved {
            if self.classifier.matches(a, &embedded) {
                matches.push((a.id, probe.id));
            }
        }
        let a4 = allocs();
        now(&mut t[4]);
        if TRACED {
            let ns = |i: usize| t[i + 1].duration_since(t[i]).as_nanos() as u64;
            cost.probes += 1;
            cost.embed += ns(0);
            cost.candidates += ns(1);
            cost.retrieve += ns(2);
            cost.classify += ns(3);
            cost.candidate_count += candidates.len() as u64;
            cost.computations += retrieved.len() as u64;
            cost.matched += (matches.len() - before) as u64;
            cost.embed_allocs += a1 - a0;
            cost.candidates_allocs += a2 - a1;
            cost.classify_allocs += a4 - a3;
        }
        Ok(())
    }

    /// The replayed children of one probe's embedding and candidate
    /// formulation, in a pass of their own: each child's function called
    /// with the inputs its parent gave it. The table probes meet the tables
    /// as cold as the parent did, because the parent's pass over this probe
    /// is thousands of probes in the past.
    fn children(
        &self,
        probe: &Record,
        scratch: &mut Scratch,
        cost: &mut ProbeCost,
    ) -> Result<[(u8, Instant, Instant); 4], String> {
        let embedders = self.schema.embedders();
        // The parent read these strings before its children ran.
        std::hint::black_box(
            probe
                .fields
                .iter()
                .map(|f| f.bytes().map(u64::from).sum::<u64>())
                .sum::<u64>(),
        );
        let t0 = Instant::now();
        for (e, field) in embedders.iter().zip(&probe.fields) {
            std::hint::black_box(e.qgram_set(field));
        }
        let t1 = Instant::now();
        for (e, field) in embedders.iter().zip(&probe.fields) {
            std::hint::black_box(e.embed(field));
        }
        let t2 = Instant::now();
        let embedded = self.schema.embed(probe).map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        self.keyer.keys(&embedded, &mut scratch.keys);
        let t4 = Instant::now();
        scratch.ids.clear();
        for (table, &key) in scratch.keys.iter().enumerate() {
            self.tables.probe_into(table, key, &mut scratch.ids);
        }
        let t5 = Instant::now();
        let ns = |from: Instant, to: Instant| to.duration_since(from).as_nanos() as u64;
        cost.qgram += ns(t0, t1);
        cost.cvector += ns(t1, t2);
        cost.key += ns(t3, t4);
        cost.table_probe += ns(t4, t5);
        cost.ids_scanned += scratch.ids.len() as u64;
        Ok([
            (QGRAM, t0, t1),
            (CVECTOR, t1, t2),
            (KEY, t3, t4),
            (TABLE_PROBE, t4, t5),
        ])
    }
}

#[derive(Default)]
struct Scratch {
    keys: Vec<u128>,
    ids: Vec<u64>,
}

/// `total ÷ count` per window, then the median window.
fn per_unit(windows: &[(u64, u64)]) -> f64 {
    let v: Vec<f64> = windows
        .iter()
        .filter(|&&(_, count)| count > 0)
        .map(|&(total, count)| total as f64 / count as f64)
        .collect();
    median(&v)
}

/// Replays the probe prefix through the composed layers (traced and
/// untraced) and through `LinkagePipeline::link`, checks that they agree,
/// and derives the batch layer metrics.
fn batch_layers(
    spec: &Spec,
    data: &Data,
    mut pipeline: LinkagePipeline,
    spans: &mut Vec<Span>,
    origin: Instant,
    report: &mut Report,
) -> Result<Vec<Vec<(u64, u64)>>, String> {
    let at = |t: Instant| t.duration_since(origin).as_nanos() as u64;

    // The pipeline under test, indexed slice by slice.
    let mut index_ns = Vec::new();
    for (i, slice) in data.a.chunks(spec.index_slice).enumerate() {
        let t = Instant::now();
        pipeline.index(slice).map_err(|e| e.to_string())?;
        let end = Instant::now();
        spans.push(Span {
            name: INDEX,
            item: i as u32,
            start: at(t),
            end: at(end),
        });
        index_ns.push(end.duration_since(t).as_nanos() as f64 / slice.len() as f64);
    }
    report.metric("core.pipeline.index_ns_per_rec", median(&index_ns), "ns");

    let replay = Replay::build(spec, data, report)?;
    let probes = &data.probes[..spec.trace_probes.min(data.probes.len())];
    let mut scratch = Scratch::default();
    let mut t = [Instant::now(); 5];

    // Untraced pass first: the same top-level work with no clock reads
    // inside, one read per window.
    let mut untraced_ns = Vec::new();
    let mut sink = Vec::new();
    for window in probes.chunks(WINDOW) {
        let t0 = Instant::now();
        for probe in window {
            replay.probe::<false>(probe, &mut ProbeCost::default(), &mut sink, &mut t)?;
        }
        untraced_ns.push(t0.elapsed().as_nanos() as f64 / window.len() as f64);
        sink.clear();
    }

    // Traced pass over the top-level layers.
    let mut composed: Vec<(u64, u64)> = Vec::new();
    let mut per_probe: Vec<Vec<(u64, u64)>> = Vec::with_capacity(probes.len());
    let mut costs: Vec<ProbeCost> = Vec::new();
    let mut traced_ns = Vec::new();
    for window in probes.chunks(WINDOW) {
        let mut cost = ProbeCost::default();
        let t0 = Instant::now();
        for probe in window {
            let before = composed.len();
            replay.probe::<true>(probe, &mut cost, &mut composed, &mut t)?;
            per_probe.push(composed[before..].to_vec());
            let item = (per_probe.len() - 1) as u32;
            spans.push(Span {
                name: PROBE,
                item,
                start: at(t[0]),
                end: at(t[4]),
            });
            for (i, name) in [EMBED, CANDIDATES, RETRIEVE, CLASSIFY]
                .into_iter()
                .enumerate()
            {
                spans.push(Span {
                    name,
                    item,
                    start: at(t[i]),
                    end: at(t[i + 1]),
                });
            }
        }
        traced_ns.push(t0.elapsed().as_nanos() as f64 / window.len() as f64);
        costs.push(cost);
    }

    // The replayed children, in their own pass.
    let mut item = 0u32;
    for (window, cost) in probes.chunks(WINDOW).zip(&mut costs) {
        for probe in window {
            for (name, start, end) in replay.children(probe, &mut scratch, cost)? {
                spans.push(Span {
                    name,
                    item,
                    start: at(start),
                    end: at(end),
                });
            }
            item += 1;
        }
    }

    // The pipeline's own answer, one call per window as a batch job makes
    // it. The first pass gives the answer to compare with; the second is
    // timed, so that it meets its tables as warm as the composed layers
    // met theirs after the untraced pass.
    let mut linked: Vec<(u64, u64)> = Vec::new();
    let mut stats = MatchStats::default();
    for window in probes.chunks(WINDOW) {
        let result = pipeline.link(window).map_err(|e| e.to_string())?;
        stats.candidates += result.stats.candidates;
        stats.matched += result.stats.matched;
        linked.extend(result.matches);
    }
    let (allocs0, bytes0) = alloc::counts();
    let mut link_windows = Vec::new();
    for (w, window) in probes.chunks(WINDOW).enumerate() {
        let t0 = Instant::now();
        std::hint::black_box(pipeline.link(window).map_err(|e| e.to_string())?);
        let end = Instant::now();
        spans.push(Span {
            name: LINK,
            item: w as u32,
            start: at(t0),
            end: at(end),
        });
        link_windows.push((
            end.duration_since(t0).as_nanos() as u64,
            window.len() as u64,
        ));
    }
    let (allocs1, bytes1) = alloc::counts();
    report.ops(5 * probes.len() as u64, 0);

    composed.sort_unstable();
    linked.sort_unstable();
    report.check(composed == linked, || {
        format!(
            "the composed layers found {} pairs, LinkagePipeline::link {}, on the same {} probes",
            composed.len(),
            linked.len(),
            probes.len()
        )
    });
    let n = probes.len() as f64;
    let total = |f: fn(&ProbeCost) -> u64| costs.iter().map(f).sum::<u64>() as f64;
    let windows = |time: fn(&ProbeCost) -> u64, count: fn(&ProbeCost) -> u64| -> f64 {
        per_unit(
            &costs
                .iter()
                .map(|c| (time(c), count(c)))
                .collect::<Vec<_>>(),
        )
    };
    let per_probe_ns = |time: fn(&ProbeCost) -> u64| windows(time, |c| c.probes);

    let qgram = per_probe_ns(|c| c.qgram);
    // Window by window, so that the two timings being subtracted saw the
    // same stretch of the run.
    let hash = per_probe_ns(|c| c.cvector.saturating_sub(c.qgram));
    let embed = per_probe_ns(|c| c.embed);
    let key = per_probe_ns(|c| c.key);
    let table_probe = per_probe_ns(|c| c.table_probe);
    let candidates = per_probe_ns(|c| c.candidates);
    let link = per_unit(&link_windows);
    report.metric("textdist.qgram_ns_per_rec", qgram, "ns");
    report.metric("core.cvector.hash_ns_per_rec", hash, "ns");
    report.metric("core.schema.embed_ns_per_rec", embed, "ns");
    report.metric(
        "core.schema.allocs_per_rec",
        total(|c| c.embed_allocs) / n,
        "count",
    );
    report.metric("lsh.key_ns_per_rec", key, "ns");
    report.metric("lsh.keys_per_rec", replay.keyer.tables() as f64, "count");
    report.metric("blockstore.probe_ns_per_probe", table_probe, "ns");
    report.metric(
        "blockstore.ids_scanned_per_probe",
        total(|c| c.ids_scanned) / n,
        "count",
    );
    report.metric(
        "core.blocking.set_build_ns_per_probe",
        (candidates - key - table_probe).max(0.0),
        "ns",
    );
    report.metric(
        "core.blocking.candidates_per_probe",
        total(|c| c.candidate_count) / n,
        "count",
    );
    report.metric(
        "core.blocking.dedup_ratio",
        total(|c| c.candidate_count) / total(|c| c.ids_scanned).max(1.0),
        "ratio",
    );
    report.metric(
        "core.blocking.allocs_per_probe",
        total(|c| c.candidates_allocs) / n,
        "count",
    );
    report.metric(
        "core.matcher.retrieve_ns_per_pair",
        windows(|c| c.retrieve, |c| c.candidate_count),
        "ns",
    );
    report.metric(
        "core.matcher.classify_ns_per_pair",
        windows(|c| c.classify, |c| c.computations),
        "ns",
    );
    report.metric(
        "core.matcher.distance_computations_per_probe",
        total(|c| c.computations) / n,
        "count",
    );
    report.metric(
        "core.matcher.match_ratio",
        total(|c| c.matched) / total(|c| c.computations).max(1.0),
        "ratio",
    );
    report.metric(
        "core.matcher.allocs_per_probe",
        total(|c| c.classify_allocs) / n,
        "count",
    );
    report.metric("core.pipeline.link_ns_per_probe", link, "ns");
    report.metric(
        "alloc.allocs_per_probe",
        (allocs1 - allocs0) as f64 / n,
        "count",
    );
    report.metric("alloc.bytes_per_probe", (bytes1 - bytes0) as f64 / n, "B");
    // Σ self time of the layers under a probe = its four top-level spans;
    // compared with the pipeline window by window, on the same probes.
    let shares: Vec<f64> = costs
        .iter()
        .zip(&link_windows)
        .map(|(c, &(link, _))| {
            (c.embed + c.candidates + c.retrieve + c.classify) as f64 / link.max(1) as f64
        })
        .collect();
    report.metric("trace.coverage", median(&shares), "ratio");
    report.metric(
        "trace.overhead",
        median(&traced_ns) / median(&untraced_ns).max(1.0) - 1.0,
        "ratio",
    );
    report.diag("trace_probes", probes.len());
    report.diag("trace_pipeline_candidates", stats.candidates);
    report.diag("trace_pipeline_matched", stats.matched);
    Ok(per_probe)
}

/// `ShardedPipeline` in process, two shards, single-record batches.
fn sharded_layers(spec: &Spec, data: &Data, report: &mut Report) -> Result<(), String> {
    let e = |e: cbv_hb::Error| e.to_string();
    let mut rng = StdRng::seed_from_u64(PLAN_SEED);
    let mut sharded =
        ShardedPipeline::new(data.schema.clone(), spec.config(), child::SHARDS, &mut rng)
            .map_err(e)?;
    // `index` returns once the batch is dispatched; a probe behind it is
    // answered only when both shards have inserted.
    let mut index_ns = Vec::new();
    for slice in data.a.chunks(spec.index_slice) {
        let t = Instant::now();
        sharded.index(slice).map_err(e)?;
        sharded.link(&data.probes[..1]).map_err(e)?;
        index_ns.push(t.elapsed().as_nanos() as f64 / slice.len() as f64);
    }
    report.metric("core.sharded.index_ns_per_rec", median(&index_ns), "ns");

    let probes = &data.probes[..spec.trace_probes.min(data.probes.len())];
    let mut link_windows = Vec::new();
    for window in probes.chunks(WINDOW) {
        let t = Instant::now();
        for probe in window {
            std::hint::black_box(sharded.link(std::slice::from_ref(probe)).map_err(e)?);
        }
        link_windows.push((t.elapsed().as_nanos() as u64, window.len() as u64));
    }
    let link = per_unit(&link_windows);
    report.metric("core.sharded.link_ns_per_probe", link, "ns");
    report.metric(
        "core.sharded.fanout_ns_per_probe",
        link - report.get("core.pipeline.link_ns_per_probe"),
        "ns",
    );

    let deletes = 1_000.min(data.a.len() / 2);
    let mut delete_windows = Vec::new();
    for window in data.a[..deletes].chunks(WINDOW) {
        let t = Instant::now();
        for rec in window {
            std::hint::black_box(sharded.delete(&[rec.id]).map_err(e)?);
        }
        delete_windows.push((t.elapsed().as_nanos() as u64, window.len() as u64));
    }
    report.metric(
        "core.sharded.delete_ns_per_op",
        per_unit(&delete_windows),
        "ns",
    );
    report.ops((data.a.len() + probes.len() + deletes) as u64, 0);
    sharded.shutdown();
    Ok(())
}

/// The codecs on a single-record probe and its real reply.
fn codec_layers(
    data: &Data,
    per_probe: &[Vec<(u64, u64)>],
    report: &mut Report,
) -> Result<(), String> {
    let probes = &data.probes[..per_probe.len()];
    let mut windows: [Vec<(u64, u64)>; 6] = Default::default();
    let (mut payload, mut frame) = (Vec::new(), Vec::new());
    let mut wire_bytes = 0u64;
    for (chunk, replies) in probes.chunks(WINDOW).zip(per_probe.chunks(WINDOW)) {
        let requests: Vec<Request> = chunk
            .iter()
            .map(|p| Request::Probe {
                records: vec![p.clone()],
            })
            .collect();
        let responses: Vec<Response> = replies
            .iter()
            .map(|pairs| {
                let stats = MatchStats {
                    matched: pairs.len() as u64,
                    ..MatchStats::default()
                };
                Response::Ok(Reply::Matches {
                    pairs: pairs.clone(),
                    notes: truncation_notes(&stats),
                    stats,
                })
            })
            .collect();
        let count = chunk.len() as u64;
        let mut timed =
            |slot: usize, f: &mut dyn FnMut() -> Result<(), String>| -> Result<(), String> {
                let t = Instant::now();
                f()?;
                windows[slot].push((t.elapsed().as_nanos() as u64, count));
                Ok(())
            };
        let mut request_payloads = Vec::with_capacity(chunk.len());
        let mut response_payloads = Vec::with_capacity(chunk.len());
        timed(0, &mut || {
            for (i, r) in requests.iter().enumerate() {
                wire::encode_request(i as u64 + 1, r, &mut payload)?;
                std::hint::black_box(&payload);
            }
            Ok(())
        })?;
        for (i, r) in requests.iter().enumerate() {
            wire::encode_request(i as u64 + 1, r, &mut payload)?;
            request_payloads.push(payload.clone());
        }
        timed(1, &mut || {
            for p in &request_payloads {
                std::hint::black_box(wire::decode_request(p)?);
            }
            Ok(())
        })?;
        timed(2, &mut || {
            for (i, r) in responses.iter().enumerate() {
                wire::encode_response(i as u64 + 1, r, &mut payload)?;
                std::hint::black_box(&payload);
            }
            Ok(())
        })?;
        for (i, r) in responses.iter().enumerate() {
            wire::encode_response(i as u64 + 1, r, &mut payload)?;
            response_payloads.push(payload.clone());
        }
        timed(3, &mut || {
            for p in &response_payloads {
                std::hint::black_box(wire::decode_response(p)?);
            }
            Ok(())
        })?;
        // Frames: both directions of the round trip.
        let all: Vec<(u8, &Vec<u8>)> = request_payloads
            .iter()
            .map(|p| (wire::TAG_REQUEST, p))
            .chain(response_payloads.iter().map(|p| (wire::TAG_RESPONSE, p)))
            .collect();
        let mut frames = Vec::with_capacity(all.len());
        let t = Instant::now();
        for (tag, p) in &all {
            frame.clear();
            rl_wire::encode_frame_into(*tag, p, &mut frame);
            std::hint::black_box(&frame);
        }
        windows[4].push((t.elapsed().as_nanos() as u64, all.len() as u64));
        for (tag, p) in &all {
            frame.clear();
            rl_wire::encode_frame_into(*tag, p, &mut frame);
            wire_bytes += frame.len() as u64;
            frames.push(frame.clone());
        }
        let t = Instant::now();
        for f in &frames {
            let peeked =
                rl_wire::peek_frame(f, rl_wire::DEFAULT_MAX_FRAME).map_err(|e| e.to_string())?;
            let (_, body, _) = peeked.ok_or("frame incomplete")?;
            let header: &[u8; rl_wire::HEADER_LEN] = f[..rl_wire::HEADER_LEN]
                .try_into()
                .map_err(|_| "short frame")?;
            std::hint::black_box(rl_wire::verify_frame(header, body).map_err(|e| e.to_string())?);
        }
        windows[5].push((t.elapsed().as_nanos() as u64, frames.len() as u64));
    }
    report.metric(
        "server.protocol.encode_request_ns",
        per_unit(&windows[0]),
        "ns",
    );
    report.metric(
        "server.protocol.decode_request_ns",
        per_unit(&windows[1]),
        "ns",
    );
    report.metric(
        "server.protocol.encode_response_ns",
        per_unit(&windows[2]),
        "ns",
    );
    report.metric(
        "server.protocol.decode_response_ns",
        per_unit(&windows[3]),
        "ns",
    );
    report.metric("wire.encode_ns_per_frame", per_unit(&windows[4]), "ns");
    report.metric("wire.decode_ns_per_frame", per_unit(&windows[5]), "ns");
    report.metric(
        "wire.bytes_per_probe_rt",
        wire_bytes as f64 / probes.len().max(1) as f64,
        "B",
    );
    Ok(())
}

/// Median of what a server-side histogram gained between two snapshots.
fn histogram_gain_p50_us(
    before: &rl_obs::MetricsSnapshot,
    after: &rl_obs::MetricsSnapshot,
    name: &str,
) -> Option<f64> {
    let after = &after.histogram_data(name, Some("probe"))?.data;
    let mut gain = after.clone();
    if let Some(before) = before.histogram_data(name, Some("probe")) {
        let before = &before.data;
        gain.count = after.count.saturating_sub(before.count);
        gain.sum = after.sum.saturating_sub(before.sum);
        for (bucket, count) in &mut gain.buckets {
            let earlier = before
                .buckets
                .iter()
                .find(|(b, _)| b == bucket)
                .map_or(0, |&(_, c)| c);
            *count = count.saturating_sub(earlier);
        }
    }
    (gain.count > 0).then(|| gain.quantile(0.5) as f64 / 1e3)
}

/// The read-only server, already loaded: its own queue-wait and execution
/// histograms around a closed-loop phase, and the hop time they leave
/// unexplained.
fn server_layers(
    spec: &Spec,
    data: &Data,
    server: &Child,
    seconds: f64,
    report: &mut Report,
) -> Result<(), String> {
    let e = |e: rl_server::client::ClientError| e.to_string();
    let mut client = connect(server.addr)?;
    let probes = &data.probes[..spec.trace_probes.min(data.probes.len())];
    // Warm up before the first snapshot.
    for probe in probes.iter().take(500) {
        client.probe(std::slice::from_ref(probe)).map_err(e)?;
    }
    let before = client.metrics().map_err(e)?;
    let window = Duration::from_secs_f64(seconds * CLOSED_LOOP_SHARE);
    let start = Instant::now();
    let mut latency = Latencies::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for probe in probes.iter().cycle() {
        if start.elapsed() >= window {
            break;
        }
        let t = Instant::now();
        attempted += 1;
        match client.probe(std::slice::from_ref(probe)) {
            Ok(_) => latency.push(t.elapsed().as_nanos() as u64),
            Err(_) => failed += 1,
        }
    }
    let after = client.metrics().map_err(e)?;
    let rejects = client.stats().map_err(e)?.rejected_backpressure;
    report.ops(attempted, failed);
    let p50 = latency.percentile_us(50.0);
    let queue_wait = histogram_gain_p50_us(&before, &after, "rl_request_queue_wait_seconds");
    let exec = histogram_gain_p50_us(&before, &after, "rl_request_exec_seconds");
    report.check(queue_wait.is_some() && exec.is_some(), || {
        "the server's probe histograms gained no samples over the closed-loop phase".into()
    });
    let (queue_wait, exec) = (queue_wait.unwrap_or(0.0), exec.unwrap_or(0.0));
    let codec_ns = report.get("server.protocol.encode_request_ns")
        + report.get("server.protocol.decode_request_ns")
        + report.get("server.protocol.encode_response_ns")
        + report.get("server.protocol.decode_response_ns")
        + 2.0 * (report.get("wire.encode_ns_per_frame") + report.get("wire.decode_ns_per_frame"));
    report.metric("server.queue_wait_p50_us", queue_wait, "us");
    report.metric("server.exec_p50_us", exec, "us");
    // By construction: probe p50 = exec + codec + hop.
    report.metric("server.hop_us_per_probe", p50 - exec - codec_ns / 1e3, "us");
    report.metric("server.failed_ops", failed as f64, "count");
    report.metric("server.backpressure_rejects", rejects as f64, "count");
    report.diag("trace_probe_p50_us", p50);
    Ok(())
}

/// The WAL on its own (`Store::append` / `sync`), then replay of a killed
/// durable server's directory against the server's whole recovery.
fn store_layers(
    spec: &Spec,
    data: &Data,
    work: &Path,
    mut durable: Durable,
    report: &mut Report,
) -> Result<(), String> {
    let se = |e: rl_store::StoreError| e.to_string();
    let options = StoreOptions {
        sync: SyncPolicy::GroupCommit(child::WAL_SYNC),
    };
    let loaded = &data.a[..spec.mixed_records];

    let own = work.join("wal-own");
    std::fs::create_dir_all(&own).map_err(|e| e.to_string())?;
    let (mut store, _) = Store::open(&own, options).map_err(se)?;
    let mut append_windows = Vec::new();
    let mut syncs = Latencies::default();
    for (w, window) in loaded.chunks(WINDOW).enumerate() {
        let ops: Vec<WalOp> = window.iter().map(|r| WalOp::Insert(r.clone())).collect();
        let t = Instant::now();
        for op in &ops {
            store.append(op).map_err(se)?;
        }
        append_windows.push((t.elapsed().as_nanos() as u64, ops.len() as u64));
        // The server's flusher syncs whatever a 5 ms interval collected;
        // here that is every fifth window.
        if w % 5 == 4 {
            let t = Instant::now();
            store.sync().map_err(se)?;
            syncs.push(t.elapsed().as_nanos() as u64);
        }
    }
    let t = Instant::now();
    store.sync().map_err(se)?;
    syncs.push(t.elapsed().as_nanos() as u64);
    report.metric(
        "store.wal_append_ns_per_op",
        per_unit(&append_windows),
        "ns",
    );
    report.metric(
        "store.wal_sync_ms_p50",
        syncs.percentile_us(50.0) / 1e3,
        "ms",
    );
    report.metric(
        "store.wal_bytes_per_op",
        store.wal_bytes() as f64 / loaded.len() as f64,
        "B",
    );
    drop(store);

    // The durable server: load, SIGKILL, replay a copy of its directory
    // with `Store::open` alone, then time the server's whole recovery.
    let e = |e: rl_server::client::ClientError| e.to_string();
    let mut client = connect(durable.server.addr)?;
    for request in loaded.chunks(500) {
        client.insert(request).map_err(e)?;
    }
    client.probe(&data.probes[..1]).map_err(e)?;
    report.ops(loaded.len() as u64 + 1, 0);
    drop(client);
    durable.server.kill_and_reap();
    report.diag("trace_wal_dir_bytes", dir_bytes(&durable.dir));
    let copy = work.join("wal-copy");
    copy_files(&durable.dir, &copy).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let (_, recovery) = Store::open(&copy, options).map_err(se)?;
    let replay = t.elapsed();
    let ops = recovery.report.replayed_ops.max(1);
    report.check(recovery.report.replayed_ops == loaded.len() as u64, || {
        format!(
            "Store::open replayed {} ops of the {} acknowledged",
            recovery.report.replayed_ops,
            loaded.len()
        )
    });
    drop(recovery);
    let mut recoveries = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        durable.restart().map_err(|e| e.to_string())?;
        let mut client = connect(durable.server.addr)?;
        let ok = client.probe(&data.probes[..1]).is_ok();
        recoveries.push(t.elapsed().as_secs_f64());
        report.ops(1, u64::from(!ok));
    }
    let recovery_s = median(&recoveries);
    report.metric(
        "store.replay_ns_per_op",
        replay.as_nanos() as f64 / ops as f64,
        "ns",
    );
    report.metric(
        "server.recovery_apply_share",
        1.0 - replay.as_secs_f64() / recovery_s.max(f64::MIN_POSITIVE),
        "ratio",
    );
    report.diag("trace_recovery_s", recovery_s);
    Ok(())
}

fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let names: Vec<String> = NAMES.iter().map(|n| format!("\"{n}\"")).collect();
    let parents: Vec<String> = PARENTS
        .iter()
        .map(|&p| format!("\"{}\"", NAMES[p as usize]))
        .collect();
    writeln!(
        out,
        "{{\"columns\":[\"name\",\"item\",\"start_ns\",\"end_ns\"],\"names\":[{}],\"parent_of_name\":[{}],\"spans\":[",
        names.join(","),
        parents.join(",")
    )?;
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(out, "[{},{},{},{}]{comma}", s.name, s.item, s.start, s.end)?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

/// Rounds the serving phases are cut into, so that each samples the whole
/// of its stage, and the share of `--seconds` all rounds together take.
const SERVING_ROUNDS: usize = 3;
const SERVING_SHARE: f64 = 0.5;

/// The traced run of one workload: every per-layer metric, and the span file.
pub fn run(
    spec: &Spec,
    setup: Setup,
    seed: u64,
    seconds: f64,
    out: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let Setup {
        data,
        pipeline,
        probe_server,
        durable,
        work,
    } = setup;
    let (Some(probe_server), Some(durable)) = (probe_server, durable) else {
        return Err("the traced run's set-up starts both servers".into());
    };
    let mut spans = Vec::new();
    alloc::set_counting(true);
    let per_probe = batch_layers(spec, &data, pipeline, &mut spans, Instant::now(), report)?;
    alloc::set_counting(false);
    sharded_layers(spec, &data, report)?;
    codec_layers(&data, &per_probe, report)?;

    // The serving figures: the read-only server's phases and the durable
    // server's mix, a part of each in every round.
    let round_seconds = seconds * SERVING_SHARE / SERVING_ROUNDS as f64;
    let mut probe = ProbeSide::load(spec, &data, &probe_server, report)?;
    server_layers(spec, &data, &probe_server, seconds, report)?;
    let mut mix = MixedSide::load(spec, &data, &durable, seed, report)?;
    for round in 0..SERVING_ROUNDS {
        probe.round(round_seconds)?;
        mix.round(round_seconds, round, report)?;
    }
    // What an in-process `LinkagePipeline` answers at the read-only
    // server's index size: the served pairs must be exactly these.
    let mut oracle = new_pipeline(spec, &data);
    let oracle_probes = &data.probes[..ORACLE_PROBES.min(data.probes.len())];
    let mut expected = oracle
        .index(&data.a[..spec.serve_records])
        .and_then(|()| oracle.link(oracle_probes))
        .map(|r| r.matches)
        .unwrap_or_default();
    drop(oracle);
    expected.sort_unstable();
    probe.finish(&expected, report)?;
    drop(probe_server);
    mix.finish(durable, report)?;

    store_layers(
        spec,
        &data,
        &work,
        spawn_fresh(spec, &data, &work, 1)?,
        report,
    )?;

    // Recorded, not a failed check: it is a ratio of two timings.
    report.diag(
        "trace_coverage_at_least_0.9",
        report.get("trace.coverage") >= 0.9,
    );
    let file = out.join(format!("spans-{}-{seed}.json", spec.name));
    write_spans(&file, &spans).map_err(|e| format!("{}: {e}", file.display()))?;
    report.diag("span_file", file.display().to_string());
    report.diag("spans", spans.len());
    Ok(())
}

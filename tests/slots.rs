//! Blocking tables hold slab slots, not ids.
//!
//! A record keeps its slot in the slab while it is indexed, and a deleted
//! record's slot is the next one an insert takes. So a table entry that a
//! delete or a re-index left behind would answer for whichever record took
//! the slot next. Seeded churn — index, re-index with a new row, delete,
//! re-index a deleted id — runs over the memory store and the mmap store
//! (compacted between steps), and after every step the match relation must
//! equal an oracle keyed by id: the live records, classified pairwise with
//! [`Classifier::matches`]. `ShardedPipeline` is the engine that deletes.
//!
//! Slot order is not id order, so matched ids must still come out
//! ascending: `match_record`, `match_batch`, `LinkagePipeline::link` and
//! `ShardedPipeline::link`, over ids indexed in descending order and then
//! into reused slots.
//!
//! `match_batch` works in groups of probes whose candidate rows it asks of
//! the cache before it classifies them. Grouping must change nothing: on
//! every kind of plan, over both stores, and for batches on either side of
//! a group's size, it returns the pairs, the pair order and the counts of
//! `match_record` called probe by probe, and both equal an oracle that
//! forms each candidate set and classifies it by hand.

mod common;

use common::fresh_dir;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use record_linkage::cbv_hb::blocking::{BlockingPlan, ProbeScratch, TableCount};
use record_linkage::cbv_hb::matcher::{
    index_row, match_batch, match_record, unindex, Classifier, MatchStats, RecordSlab, GROUP,
};
use record_linkage::cbv_hb::EmbeddedRecord;
use record_linkage::datagen::NcvrSource;
use record_linkage::prelude::*;
use std::collections::{BTreeMap, HashSet};
use std::path::Path;

const FIRSTS: [&str; 6] = [
    "JONATHAN",
    "MARGARET",
    "PERCIVAL",
    "LUCINDA",
    "OSWALDO",
    "WILHELMINA",
];
const LASTS: [&str; 4] = ["SMITHERS", "JOHANSSON", "BROWNLOW", "KOWALCZYK"];

fn rule() -> Rule {
    Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)])
}

/// Record-level HB with 30-bit keys: rows that differ share a key in a
/// table with probability at most 2⁻³⁰ or so, and the long names above are
/// far apart, so the pairs the rule accepts are twins — which share every
/// key — and the blocking finds each one.
fn config(dir: Option<&Path>) -> LinkageConfig {
    let mut config = LinkageConfig::record_level(rule(), 4, 30);
    if let Some(dir) = dir {
        config.block.kind = StoreKind::Mmap;
        config.block.dir = Some(dir.to_string_lossy().into_owned());
    }
    config
}

fn schema(rng: &mut StdRng) -> RecordSchema {
    RecordSchema::build(
        Alphabet::linkage(),
        vec![
            AttributeSpec::new("FirstName", 2, 64, false, 5),
            AttributeSpec::new("LastName", 2, 64, false, 5),
        ],
        rng,
    )
}

/// One probe per name pair.
fn probes() -> Vec<Record> {
    let mut out = Vec::new();
    for first in FIRSTS {
        for last in LASTS {
            out.push(Record::new(1000 + out.len() as u64, [first, last]));
        }
    }
    out
}

/// Every `(id_A, id_B)` the rule accepts between the live records and the
/// probes, ascending.
fn oracle(
    schema: &RecordSchema,
    live: &BTreeMap<u64, EmbeddedRecord>,
    probes: &[Record],
) -> Vec<(u64, u64)> {
    let classifier = Classifier::Rule(rule());
    let mut out = Vec::new();
    for probe in probes {
        let b = schema.embed(probe).unwrap();
        for (&id, a) in live {
            if classifier.matches(a, &b) {
                // The premise of the exact comparison: only twins match.
                assert_eq!(a.attrs, b.attrs, "{id} and {} are near, not equal", b.id);
                out.push((id, probe.id));
            }
        }
    }
    out.sort_unstable();
    out
}

fn churn(dir: Option<&Path>, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = schema(&mut rng);
    let mut p = ShardedPipeline::new(schema.clone(), config(dir), 1, &mut rng).unwrap();
    let probes = probes();
    let mut live: BTreeMap<u64, EmbeddedRecord> = BTreeMap::new();
    let mut deleted = HashSet::new();
    // Slots a delete freed and no insert has taken yet: the next new id
    // takes one.
    let mut free = 0;
    let (mut reindexed, mut revived, mut reused) = (0, 0, 0);
    for step in 0..300 {
        let id = rng.random_range(0..40u64);
        if rng.random_range(0..4u32) == 0 {
            let was = live.remove(&id).is_some();
            assert_eq!(p.delete(&[id]).unwrap(), usize::from(was));
            if was {
                deleted.insert(id);
                free += 1;
            }
        } else {
            let record = Record::new(
                id,
                [
                    FIRSTS[rng.random_range(0..FIRSTS.len())],
                    LASTS[rng.random_range(0..LASTS.len())],
                ],
            );
            p.index(std::slice::from_ref(&record)).unwrap();
            match live.insert(id, schema.embed(&record).unwrap()) {
                Some(_) => reindexed += 1,
                None if free > 0 => {
                    free -= 1;
                    reused += 1;
                }
                None => {}
            }
            revived += usize::from(deleted.remove(&id));
        }
        if dir.is_some() && step % 2 == 0 {
            p.compact_stores().unwrap();
        }
        let (linked, _) = p.link(&probes).unwrap();
        assert_eq!(linked, oracle(&schema, &live, &probes), "step {step}");
        assert_eq!(p.indexed_len(), live.len());
    }
    // The schedule reached the paths it is meant to cover.
    assert!(
        reindexed > 20 && revived > 20 && reused > 20,
        "{reindexed} {revived} {reused}"
    );
}

#[test]
fn a_reused_slot_never_answers_for_its_last_record_on_the_memory_store() {
    for seed in [1, 2, 3] {
        churn(None, seed);
    }
}

#[test]
fn a_reused_slot_never_answers_for_its_last_record_on_the_mmap_store() {
    for seed in [4, 5] {
        let dir = fresh_dir(&format!("slots-{seed}"));
        churn(Some(&dir), seed);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Twins of "MARY JONES": ids 50 down to 1, indexed in that order so slot
/// order is the reverse of id order; then, where the engine deletes, 10,
/// 20 and 30 deleted and 7000, 0 and 20 indexed into their freed slots.
fn twin(id: u64) -> Record {
    Record::new(id, ["MARY", "JONES"])
}

fn descending() -> Vec<Record> {
    (1..=50).rev().map(twin).collect()
}

const GONE: [u64; 3] = [10, 20, 30];

fn into_freed_slots() -> Vec<Record> {
    [7000, 0, 20].map(twin).to_vec()
}

/// The twins left after the deletes and re-inserts, ascending.
fn after_reuse() -> Vec<u64> {
    (0..=50)
        .filter(|id| ![10, 30].contains(id))
        .chain([7000])
        .collect()
}

#[test]
fn matched_ids_ascend_whatever_the_slot_order() {
    let mut rng = StdRng::seed_from_u64(9);
    let schema = schema(&mut rng);
    let classifier = Classifier::Rule(rule());
    let probe = schema.embed(&twin(99)).unwrap().packed();
    let probe = probe.as_ref();

    // The engine's primitives.
    let mut plan = BlockingPlan::from_config(&schema, &config(None), &mut rng).unwrap();
    let mut slab = RecordSlab::new(schema.layout());
    let index = |plan: &mut BlockingPlan, slab: &mut RecordSlab, records: &[Record]| {
        for r in records {
            let row = schema.embed(r).unwrap().packed();
            index_row(plan, slab, r.id, row.as_ref()).unwrap();
        }
    };
    let (mut scratch, mut stats) = (ProbeScratch::default(), MatchStats::default());
    let mut matched = |plan: &BlockingPlan, slab: &RecordSlab| {
        let mut out = Vec::new();
        match_record(
            plan,
            slab,
            probe,
            &classifier,
            &mut scratch,
            &mut stats,
            |id| out.push(id),
        );
        out
    };
    index(&mut plan, &mut slab, &descending());
    assert_eq!((slab.slot(50), slab.slot(1)), (Some(0), Some(49)));
    assert_eq!(matched(&plan, &slab), (1..=50).collect::<Vec<u64>>());
    for id in GONE {
        assert!(unindex(&mut plan, &mut slab, id));
    }
    index(&mut plan, &mut slab, &into_freed_slots());
    assert_eq!(slab.slot(7000), slab.slot(31).map(|s| s + 1), "30's slot");
    assert_eq!(matched(&plan, &slab), after_reuse(), "match_record");
    let mut pairs = Vec::new();
    match_batch(
        &plan,
        &slab,
        [(98, probe), (99, probe)],
        &classifier,
        &mut ProbeScratch::default(),
        &mut MatchStats::default(),
        &mut pairs,
    );
    let want: Vec<(u64, u64)> = [98, 99]
        .into_iter()
        .flat_map(|b| after_reuse().into_iter().map(move |a| (a, b)))
        .collect();
    assert_eq!(pairs, want, "match_batch");

    // The engines.
    let with = |ids: Vec<u64>| ids.into_iter().map(|a| (a, 99)).collect::<Vec<_>>();
    let mut p = LinkagePipeline::new(schema.clone(), config(None), &mut rng).unwrap();
    p.index(&descending()).unwrap();
    assert_eq!(
        p.link(&[twin(99)]).unwrap().matches,
        with((1..=50).collect()),
        "LinkagePipeline"
    );
    let mut sharded = ShardedPipeline::new(schema.clone(), config(None), 2, &mut rng).unwrap();
    sharded.index(&descending()).unwrap();
    assert_eq!(sharded.delete(&GONE).unwrap(), GONE.len());
    sharded.index(&into_freed_slots()).unwrap();
    let (pairs, _) = sharded.link(&[twin(99)]).unwrap();
    assert_eq!(pairs, with(after_reuse()), "ShardedPipeline");
}

/// The NCVR record of the benchmark: 15 + 15 + 68 + 22 bits.
fn ncvr_schema(rng: &mut StdRng) -> RecordSchema {
    RecordSchema::build(
        Alphabet::linkage(),
        vec![
            AttributeSpec::new("FirstName", 2, 15, false, 5),
            AttributeSpec::new("LastName", 2, 15, false, 5),
            AttributeSpec::new("Address", 2, 68, false, 10),
            AttributeSpec::new("Town", 2, 22, false, 10),
        ],
        rng,
    )
}

/// C1, C2 and C3 of the paper's Section 6.2.
fn c1() -> Rule {
    Rule::and([Rule::pred(0, 4), Rule::pred(1, 4), Rule::pred(2, 8)])
}

fn c2() -> Rule {
    Rule::or([
        Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]),
        Rule::pred(2, 8),
    ])
}

fn c3() -> Rule {
    Rule::and([Rule::pred(0, 4), Rule::not(Rule::pred(1, 4))])
}

/// `match_batch` over the first `n` probes, for every `n` around a group,
/// against `match_record` probe by probe and against the oracle; returns
/// the counts of the whole batch.
fn grouped_equals_one_at_a_time(
    name: &str,
    plan: &BlockingPlan,
    slab: &RecordSlab,
    classifier: &Classifier,
    probes: &[(u64, Vec<u64>)],
) -> MatchStats {
    let mut whole = MatchStats::default();
    for n in [0, 1, GROUP - 1, GROUP, GROUP + 1, probes.len()] {
        let batch = &probes[..n];
        let (mut one, mut one_stats) = (Vec::new(), MatchStats::default());
        let mut scratch = ProbeScratch::default();
        for (id, row) in batch {
            match_record(
                plan,
                slab,
                row,
                classifier,
                &mut scratch,
                &mut one_stats,
                |a| one.push((a, *id)),
            );
        }
        let (mut grouped, mut stats) = (Vec::new(), MatchStats::default());
        let rows = batch.iter().map(|(id, row)| (*id, &row[..]));
        match_batch(
            plan,
            slab,
            rows,
            classifier,
            &mut scratch,
            &mut stats,
            &mut grouped,
        );
        assert_eq!(grouped, one, "{name}: pairs of {n} probes");
        assert_eq!(stats, one_stats, "{name}: counts of {n} probes");

        // The oracle: each probe's candidate set, classified by hand, its
        // matched ids ascending.
        let mut oracle = Vec::new();
        for (id, row) in batch {
            plan.candidates_into_row(row, |s| slab.row_at(s), &mut scratch);
            let mut matched: Vec<u64> = scratch
                .candidates()
                .iter()
                .filter(|&&s| classifier.matches_rows(slab.layout(), slab.row_at(s).unwrap(), row))
                .map(|&s| slab.id_at(s))
                .collect();
            matched.sort_unstable();
            oracle.extend(matched.into_iter().map(|a| (a, *id)));
        }
        assert_eq!(
            grouped, oracle,
            "{name}: pairs of {n} probes against the oracle"
        );
        whole = stats;
    }
    whole
}

#[test]
fn a_grouped_batch_matches_as_one_probe_at_a_time() {
    let mut rng = StdRng::seed_from_u64(34);
    let cfg = PairConfig::new(600, PerturbationScheme::Light).with_duplicates(0.1);
    let pair = DatasetPair::generate(&NcvrSource, cfg, &mut rng);
    let schema = ncvr_schema(&mut rng);
    let row = |r: &Record| schema.embed(r).unwrap().packed().as_ref().to_vec();
    let probes: Vec<(u64, Vec<u64>)> = pair.b[..250].iter().map(|r| (r.id, row(r))).collect();
    let mut shuffled = pair.a.clone();
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.random_range(0..=i));
    }
    let top_k = |mut config: LinkageConfig, k| {
        config.block.probe_top_k = k;
        config
    };
    // (name, configuration; `None` for a multi-probe record-level plan).
    let plans = [
        (
            "record-level",
            Some(LinkageConfig::record_level(c1(), 4, 30)),
        ),
        ("rule-aware C1", Some(LinkageConfig::rule_aware(c1()))),
        ("rule-aware C2 (OR)", Some(LinkageConfig::rule_aware(c2()))),
        (
            "rule-aware C3 (verified NOT)",
            Some(LinkageConfig::rule_aware(c3())),
        ),
        ("covering", Some(LinkageConfig::covering(c1(), 4))),
        ("top-k", Some(top_k(LinkageConfig::rule_aware(c1()), 3))),
        ("multi-probe", None),
    ];
    for (i, (name, config)) in plans.into_iter().enumerate() {
        for mmap in [false, true] {
            let dir = mmap.then(|| fresh_dir(&format!("grouped-{i}")));
            let block = BlockStoreConfig {
                kind: if mmap {
                    StoreKind::Mmap
                } else {
                    StoreKind::Memory
                },
                dir: dir.as_ref().map(|d| d.to_string_lossy().into_owned()),
                ..config.as_ref().map(|c| c.block.clone()).unwrap_or_default()
            };
            let (mut plan, rule) = match &config {
                Some(config) => {
                    let config = LinkageConfig {
                        block: block.clone(),
                        ..config.clone()
                    };
                    let plan = BlockingPlan::from_config(&schema, &config, &mut rng).unwrap();
                    (plan, config.rule)
                }
                None => {
                    let tables = TableCount::Equation2 {
                        delta: 0.1,
                        flips: 1,
                    };
                    let mut plan =
                        BlockingPlan::record_level_over(&schema.layout(), 4, 24, tables, &mut rng)
                            .unwrap();
                    plan.configure_stores(&block).unwrap();
                    (plan, c1())
                }
            };
            let mut slab = RecordSlab::new(schema.layout());
            // On the mmap store, half of A in a sealed generation and half
            // above it; slot order is not id order.
            let (sealed, above) = shuffled.split_at(shuffled.len() / 2);
            for r in sealed {
                index_row(&mut plan, &mut slab, r.id, &row(r)).unwrap();
            }
            if mmap {
                plan.compact().unwrap();
            }
            for r in above {
                index_row(&mut plan, &mut slab, r.id, &row(r)).unwrap();
            }
            let label = format!("{name}, {}", if mmap { "mmap" } else { "memory" });
            let classifier = Classifier::Rule(rule);
            let stats = grouped_equals_one_at_a_time(&label, &plan, &slab, &classifier, &probes);
            assert!(stats.matched > 0, "{label}: nothing matched");
            if name == "top-k" {
                assert!(stats.truncated > 0, "{label}: no probe truncated");
            }
            if let Some(dir) = dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }

    // A two-shard engine links a batch as it links its records one by one.
    let config = LinkageConfig::record_level(c1(), 4, 30);
    let mut sharded = ShardedPipeline::new(schema.clone(), config, 2, &mut rng).unwrap();
    sharded.index(&pair.a).unwrap();
    let probes = &pair.b[..250];
    let (pairs, stats) = sharded.link(probes).unwrap();
    let (mut one, mut one_stats) = (Vec::new(), MatchStats::default());
    for probe in probes {
        let (pairs, stats) = sharded.link(std::slice::from_ref(probe)).unwrap();
        one.extend(pairs);
        one_stats.candidates += stats.candidates;
        one_stats.distance_computations += stats.distance_computations;
        one_stats.matched += stats.matched;
        one_stats.truncated += stats.truncated;
    }
    one.sort_unstable();
    assert!(!pairs.is_empty());
    assert_eq!(pairs, one, "two shards");
    assert_eq!(stats, one_stats, "two shards");
}

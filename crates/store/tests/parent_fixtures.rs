//! Documents written by the commit before the key kernels, the sorted-vector
//! candidate sets and the word hasher (`tests/fixtures/`, made there with
//! the builders below; snapshot version 3, tables of client ids) against
//! this build:
//!
//! * each loads by the one load path for such documents: its slabs have no
//!   slot order, so every record takes a fresh slot (ascending by id) and
//!   the tables are re-keyed from the slab's rows (`matcher::rekey`) — the
//!   stored tables are not translated;
//! * it answers the probes exactly as it did there, with the same
//!   `match_hash`;
//! * it re-serialises, and the same index built here serializes, to a
//!   version 4 document that is the parent's value for value once read in
//!   id space — every table value replaced by the id its slot holds, the
//!   slab's slot order dropped, the version put back to 3 — and the
//!   parent's tombstone keys are taken out of it (`dead`, which this build
//!   applies at load, and `compact_dead_ratio`, which it ignores): so no
//!   other key was added to or dropped from a plan, a pipeline or a
//!   `ShardedState` (compiled kernels and scratch buffers stay out), and
//!   every blocking key in every table is the key the reference functions
//!   gave;
//! * a version 4 document restores every id into the slot it had;
//! * a deleted record in such a document — out of the slab, its id on a
//!   tombstone list — leaves nothing behind.
//!
//! The three indexes cover the structure shapes the plan compilers emit:
//! record-level sampling; a fused sampling conjunction with a NOT structure;
//! covering structures over one attribute and over fused attributes listed
//! out of schema order.

use cbv_hb::pipeline::LinkagePipeline;
use cbv_hb::sharded::ShardedPipeline;
use cbv_hb::{parse_rule, AttributeSpec, LinkageConfig, Record, RecordSchema};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_store::snapshot::{Snapshot, SNAPSHOT_VERSION};
use serde_json::Value;
use serde_json::Value::{Array, Object, U64};
use std::path::PathBuf;
use textdist::Alphabet;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn schema(rng: &mut StdRng) -> RecordSchema {
    RecordSchema::build(
        Alphabet::linkage(),
        vec![
            AttributeSpec::new("FirstName", 2, 15, false, 2),
            AttributeSpec::new("LastName", 2, 15, false, 2),
            AttributeSpec::new("Town", 2, 22, false, 3),
        ],
        rng,
    )
}

fn indexed() -> Vec<Record> {
    [
        ["JOHN", "SMITH", "DURHAM"],
        ["JON", "SMITH", "DURHAM"],
        ["JOHN", "SMYTHE", "RALEIGH"],
        ["MARY", "JONES", "RALEIGH"],
        ["MARIE", "JONES", "RALEIGH"],
        ["PETER", "WRIGHT", "CARY"],
        ["PETRA", "WRIGHT", "APEX"],
        ["AGNES", "MOORE", "WILMINGTON"],
        ["AGNES", "MOORE", "WILSON"],
        ["OLIVER", "STONE", "CHAPEL HILL"],
        ["OLIVIA", "STONE", "CHAPEL HILL"],
        ["WILHELMINA", "VANDERBILT", "ASHEVILLE"],
    ]
    .into_iter()
    .enumerate()
    .map(|(i, f)| Record::new(i as u64 * 7 + 1, f))
    .collect()
}

fn probes() -> Vec<Record> {
    [
        ["JOHN", "SMITH", "DURHAM"],
        ["MARY", "JONES", "RALEIGH"],
        ["PETER", "WRIGHT", "APEX"],
        ["AGNES", "MOORE", "WILSON"],
        ["OLIVER", "STONE", "CHAPEL HILL"],
        ["NOBODY", "ATALL", "NOWHERE"],
    ]
    .into_iter()
    .enumerate()
    .map(|(i, f)| Record::new(1000 + i as u64, f))
    .collect()
}

/// Record-level HB over all three attributes, as `LinkagePipeline::save`
/// writes it.
fn record_level() -> LinkagePipeline {
    let mut rng = StdRng::seed_from_u64(11);
    let schema = schema(&mut rng);
    let rule = parse_rule("0<=4 & 1<=4").unwrap();
    let mut p =
        LinkagePipeline::new(schema, LinkageConfig::record_level(rule, 4, 12), &mut rng).unwrap();
    p.index(&indexed()).unwrap();
    p
}

fn sharded(config: LinkageConfig) -> ShardedPipeline {
    let mut rng = StdRng::seed_from_u64(12);
    let schema = schema(&mut rng);
    let mut p = ShardedPipeline::new(schema, config, 2, &mut rng).unwrap();
    p.index(&indexed()).unwrap();
    p
}

/// A fused two-attribute sampling conjunction and the structure of a NOT.
fn rule_aware() -> ShardedPipeline {
    sharded(LinkageConfig::rule_aware(
        parse_rule("0<=4 & 1<=4 & !(2<=2)").unwrap(),
    ))
}

/// A covering family over attributes 1 and 0 fused in that order, and one
/// over attribute 2 alone.
fn covering_rule_aware() -> ShardedPipeline {
    sharded(LinkageConfig::covering_rule_aware(
        parse_rule("(1<=1 & 0<=1) | 2<=1").unwrap(),
    ))
}

fn snapshot_of(p: &ShardedPipeline) -> String {
    let snapshot = Snapshot::new(p.export_state().unwrap(), Vec::new(), 0).unwrap();
    serde_json::to_string(&snapshot).unwrap()
}

/// Path of the first place two documents differ at, if any.
fn first_difference(ours: &Value, theirs: &Value, path: &str) -> Option<String> {
    match (ours, theirs) {
        (Value::Object(a), Value::Object(b)) => {
            let keys = |o: &[(String, Value)]| o.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
            if keys(a) != keys(b) {
                return Some(format!("{path}: keys {:?} vs {:?}", keys(a), keys(b)));
            }
            a.iter()
                .zip(b)
                .find_map(|((k, x), (_, y))| first_difference(x, y, &format!("{path}.{k}")))
        }
        (Value::Array(a), Value::Array(b)) => {
            if a.len() != b.len() {
                return Some(format!("{path}: {} vs {} elements", a.len(), b.len()));
            }
            a.iter()
                .zip(b)
                .enumerate()
                .find_map(|(i, (x, y))| first_difference(x, y, &format!("{path}[{i}]")))
        }
        (a, b) if a == b => None,
        (a, b) => Some(format!("{path}: {a:?} vs {b:?}")),
    }
}

/// The keys only a build with tombstone deletes wrote.
const TOMBSTONE_KEYS: [&str; 2] = ["dead", "compact_dead_ratio"];

/// `doc` without [`TOMBSTONE_KEYS`], at any depth.
fn without_tombstones(doc: Value) -> Value {
    match doc {
        Value::Object(fields) => Value::Object(
            (fields.into_iter())
                .filter(|(k, _)| !TOMBSTONE_KEYS.contains(&k.as_str()))
                .map(|(k, v)| (k, without_tombstones(v)))
                .collect(),
        ),
        Value::Array(items) => Value::Array(items.into_iter().map(without_tombstones).collect()),
        other => other,
    }
}

/// `doc` read in id space: in every `{plan, store}` (a shard, a saved
/// pipeline), each table value becomes the id in that slot of the store's
/// slot order, which then leaves the store; a version 4 snapshot header
/// becomes version 3 — the document a build with tables of ids wrote for
/// the same index.
fn in_id_space(doc: Value) -> Value {
    fn translate(tables: &mut Value, order: &[Value]) {
        match tables {
            Array(items) => items.iter_mut().for_each(|v| translate(v, order)),
            Object(fields) => fields.iter_mut().for_each(|(_, v)| translate(v, order)),
            U64(slot) => *tables = order[*slot as usize].clone(),
            _ => {}
        }
    }
    /// The values of every `tables` (memory) or `delta` (mmap) list in `v`.
    fn tables_in(v: &mut Value, order: &[Value]) {
        match v {
            Object(fields) => {
                for (k, v) in fields {
                    match k.as_str() {
                        "tables" | "delta" => translate(v, order),
                        _ => tables_in(v, order),
                    }
                }
            }
            Array(items) => items.iter_mut().for_each(|v| tables_in(v, order)),
            _ => {}
        }
    }
    match doc {
        Object(mut fields) => {
            let has = |k: &str, fields: &[(String, Value)]| fields.iter().any(|(f, _)| f == k);
            if has("plan", &fields) && has("store", &fields) {
                let mut order = Vec::new();
                for (k, v) in &mut fields {
                    if let (true, Object(store)) = (k == "store", v) {
                        if let Some(at) = store.iter().position(|(f, _)| f == "order") {
                            let Array(o) = store.remove(at).1 else {
                                panic!("a slot order is a list")
                            };
                            order = o;
                        }
                        store.retain(|(f, _)| f != "free");
                    }
                }
                for (k, v) in &mut fields {
                    if k == "plan" {
                        tables_in(v, &order);
                    }
                }
            }
            Object(
                (fields.into_iter())
                    .map(|(k, v)| match (k.as_str(), v) {
                        ("version", U64(4)) => (k, U64(3)),
                        (_, v) => (k, in_id_space(v)),
                    })
                    .collect(),
            )
        }
        Array(items) => Array(items.into_iter().map(in_id_space).collect()),
        other => other,
    }
}

fn assert_same_document(ours: &str, name: &str) {
    let theirs = std::fs::read_to_string(fixture(name)).unwrap();
    let ours = in_id_space(serde_json::from_str(ours).unwrap());
    let theirs = without_tombstones(serde_json::from_str(&theirs).unwrap());
    if let Some(at) = first_difference(&ours, &theirs, "$") {
        panic!("{name}: this build writes a different document — {at}");
    }
}

fn sorted(mut pairs: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    pairs.sort_unstable();
    pairs
}

/// The benchmark's order-independent hash of a match relation.
fn match_hash(pairs: &[(u64, u64)]) -> u64 {
    pairs
        .iter()
        .map(|&(a, b)| {
            let mut z = a.rotate_left(32) ^ b ^ 0x9e37_79b9_7f4a_7c15;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .fold(0u64, u64::wrapping_add)
}

#[test]
fn saved_pipeline_of_the_parent_loads_probes_and_rewrites_identically() {
    let name = "pipeline-record-level.json";
    let file = std::fs::File::open(fixture(name)).unwrap();
    let restored = LinkagePipeline::load(std::io::BufReader::new(file)).unwrap();
    let answered = sorted(restored.link(&probes()).unwrap().matches);
    // The parent's answer, as the benchmark hashes it.
    assert_eq!(match_hash(&answered), 0xd321_dd0d_67e8_a92a);
    assert_eq!(
        answered,
        [
            (1, 1000),
            (8, 1000),
            (15, 1000),
            (22, 1001),
            (29, 1001),
            (36, 1002),
            (43, 1002),
            (50, 1003),
            (57, 1003),
            (64, 1004)
        ]
    );
    let fresh = record_level();
    assert_eq!(sorted(fresh.link(&probes()).unwrap().matches), answered);
    for p in [&restored, &fresh] {
        let mut ours = Vec::new();
        p.save(&mut ours).unwrap();
        assert_same_document(std::str::from_utf8(&ours).unwrap(), name);
    }
    // A restored pipeline goes on indexing (its kernels were recompiled).
    let mut restored = restored;
    restored
        .index(&[Record::new(999, ["NOBODY", "ATALL", "NOWHERE"])])
        .unwrap();
    assert!(restored
        .link(&probes())
        .unwrap()
        .matches
        .contains(&(999, 1005)));
}

#[test]
fn snapshots_of_the_parent_load_probe_and_rewrite_identically() {
    assert_eq!(SNAPSHOT_VERSION, 4);
    /// A fixture, how to build the same index here, and what it answered.
    type Case = (&'static str, fn() -> ShardedPipeline, &'static [(u64, u64)]);
    let cases: [Case; 2] = [
        (
            "snapshot-v3-rule-aware.json",
            rule_aware,
            &[(8, 1005), (15, 1000), (36, 1002), (50, 1003)],
        ),
        (
            "snapshot-v3-covering-rule-aware.json",
            covering_rule_aware,
            &[
                (1, 1000),
                (8, 1000),
                (15, 1001),
                (22, 1001),
                (29, 1001),
                (36, 1002),
                (43, 1002),
                (50, 1003),
                (57, 1003),
                (64, 1004),
                (71, 1004),
            ],
        ),
    ];
    for (name, build, expected) in cases {
        let snapshot = Snapshot::load(&fixture(name)).unwrap();
        assert_eq!(snapshot.version, 3, "{name}");
        let restored = ShardedPipeline::from_state(snapshot.state).unwrap();
        let (pairs, _) = restored.link(&probes()).unwrap();
        assert_eq!(pairs, expected, "{name}");
        assert_eq!(match_hash(&pairs), match_hash(expected), "{name}");
        let fresh = build();
        assert_eq!(fresh.link(&probes()).unwrap().0, pairs, "{name}");
        assert_same_document(&snapshot_of(&restored), name);
        assert_same_document(&snapshot_of(&fresh), name);
        // Restored shards go on indexing and deleting.
        let mut restored = restored;
        restored
            .index(&[Record::new(999, ["NOBODY", "ATALL", "NOWHERE"])])
            .unwrap();
        assert_eq!(restored.delete(&[1, 999]).unwrap(), 2, "{name}");
    }
}

/// `doc` as the parent wrote it after deleting `ids`: out of every slab's
/// records, onto every `dead` list.
fn with_deleted(doc: &mut Value, ids: &[u64]) {
    match doc {
        Object(fields) => {
            for (k, v) in fields {
                match v {
                    Array(dead) if k == "dead" => dead.extend(ids.iter().map(|&id| U64(id))),
                    Object(records) if k == "records" => {
                        records.retain(|(id, _)| !ids.iter().any(|x| x.to_string() == *id))
                    }
                    _ => with_deleted(v, ids),
                }
            }
        }
        Array(items) => items.iter_mut().for_each(|v| with_deleted(v, ids)),
        _ => {}
    }
}

#[test]
fn records_the_parent_deleted_leave_nothing_behind_at_load() {
    let name = "snapshot-v3-rule-aware.json";
    let text = std::fs::read_to_string(fixture(name)).unwrap();
    let mut doc: Value = serde_json::from_str(&text).unwrap();
    let gone = [8, 36];
    with_deleted(&mut doc, &gone);
    let snapshot: Snapshot = serde_json::from_value(doc).unwrap();
    let restored = ShardedPipeline::from_state(snapshot.state).unwrap();
    let (pairs, _) = restored.link(&probes()).unwrap();
    assert_eq!(pairs, [(15, 1000), (50, 1003)]);
    let state = restored.export_state().unwrap();
    let mut entries = 0;
    for shard in &state.shards {
        let live: Vec<u64> = shard
            .store
            .iter_slots()
            .map(|(s, _)| u64::from(s))
            .collect();
        for structure in shard.plan.structures() {
            structure.for_each_entry(|table, key, slots| {
                entries += slots.len();
                assert!(
                    slots.iter().all(|slot| live.contains(slot)),
                    "table {table} key {key} holds {slots:?}"
                );
            });
        }
    }
    let tables: usize = restored.blocking_stats().iter().map(|s| s.l).sum();
    assert_eq!(entries, tables * (indexed().len() - gone.len()));
}

#[test]
fn a_version_4_snapshot_keeps_every_ids_slot() {
    // Churn first, so slots are out of id order and one is free.
    let mut p = rule_aware();
    p.delete(&[15, 50]).unwrap();
    p.index(&[
        Record::new(3, ["MARY", "JONES", "RALEIGH"]),
        Record::new(15, ["JOHN", "SMITH", "DURHAM"]),
    ])
    .unwrap();
    let text = snapshot_of(&p);
    let snapshot: Snapshot = serde_json::from_str(&text).unwrap();
    assert_eq!(snapshot.version, 4);
    let slots = |state: &cbv_hb::sharded::ShardedState| -> Vec<Vec<(u64, u32)>> {
        (state.shards.iter())
            .map(|shard| {
                let mut ids: Vec<(u64, u32)> = (shard.store.iter())
                    .map(|(id, _)| (id, shard.store.slot(id).unwrap()))
                    .collect();
                ids.sort_unstable();
                ids
            })
            .collect()
    };
    let restored = ShardedPipeline::from_state(snapshot.state.clone()).unwrap();
    assert_eq!(
        slots(&restored.export_state().unwrap()),
        slots(&p.export_state().unwrap())
    );
    assert_eq!(slots(&snapshot.state), slots(&p.export_state().unwrap()));
    let (ours, _) = p.link(&probes()).unwrap();
    let (theirs, _) = restored.link(&probes()).unwrap();
    assert_eq!(theirs, ours);
    assert_eq!(match_hash(&theirs), match_hash(&ours));
    assert_eq!(snapshot_of(&restored), text, "the document round-trips");
}

#[test]
#[should_panic(expected = "compile_kernels")]
fn a_plan_deserialized_on_its_own_says_what_it_is_missing() {
    let json = serde_json::to_string(record_level().plan()).unwrap();
    let mut plan: cbv_hb::blocking::BlockingPlan = serde_json::from_str(&json).unwrap();
    let probe = record_level().schema().embed(&probes()[0]).unwrap();
    plan.insert(&probe);
}

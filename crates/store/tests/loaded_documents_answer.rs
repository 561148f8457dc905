//! A document that loads answers every verb without a panic (ROADMAP item
//! 6(a)), for the documents of `tests/fixtures/`: the two version 3
//! snapshots and the saved pipeline.
//!
//! Each integer leaf under a snapshot's `state.schema`,
//! `state.classifier`, each `state.shards[*].plan` and `store` and
//! `state.indexed` — under a saved pipeline's `schema`, `config.rule`,
//! `plan`, `store` and `indexed` — is set in turn to 0, 1, one more than
//! its value and 2³¹: attribute widths `m`, `q` and `k`, hash coefficients,
//! hash-family sources and positions, conjunct attributes and thresholds,
//! `probe_flips`, the candidate expression's structure indexes, table
//! values, a slab's record ids, bit lengths and words, and counters. Each
//! string leaf of a schema — the alphabets and attribute names — is set in
//! turn to the empty string, one letter, itself with its first char
//! doubled, and itself behind a letter outside ASCII. A snapshot's header
//! hash is stamped anew over its mutated schema, so a schema leaf reaches
//! the schema's own checks. Every mutated document is either refused with
//! a typed error, or it loads and answers `link`, `index`, `delete` and
//! `export_state` (a saved pipeline: `link`, `index` and `save`), and
//! nothing panics.

use cbv_hb::pipeline::LinkagePipeline;
use cbv_hb::sharded::ShardedPipeline;
use cbv_hb::Record;
use rl_store::snapshot::{schema_hash, Snapshot};
use serde_json::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(path).unwrap()
}

/// Exact copies of indexed records, so every predicate of a classifier is
/// reached, and one stranger.
fn probes() -> Vec<Record> {
    [
        ["JOHN", "SMITH", "DURHAM"],
        ["MARY", "JONES", "RALEIGH"],
        ["AGNES", "MOORE", "WILSON"],
        ["NOBODY", "ATALL", "NOWHERE"],
    ]
    .into_iter()
    .enumerate()
    .map(|(i, f)| Record::new(1000 + i as u64, f))
    .collect()
}

fn newcomer() -> Record {
    Record::new(999, ["JOHN", "SMITH", "DURHAM"])
}

/// A place in a document: the position of each step's child in its object
/// or array.
type Path = Vec<usize>;

fn child(v: &Value, name: &str) -> usize {
    let Value::Object(fields) = v else {
        panic!("no object around {name}");
    };
    fields.iter().position(|(k, _)| k == name).expect(name)
}

fn at_mut<'v>(mut v: &'v mut Value, path: &[usize]) -> &'v mut Value {
    for &i in path {
        v = match v {
            Value::Object(fields) => &mut fields[i].1,
            Value::Array(items) => &mut items[i],
            _ => panic!("a path runs through a leaf"),
        };
    }
    v
}

fn at<'v>(mut v: &'v Value, path: &[usize]) -> &'v Value {
    for &i in path {
        v = match v {
            Value::Object(fields) => &fields[i].1,
            Value::Array(items) => &items[i],
            _ => panic!("a path runs through a leaf"),
        };
    }
    v
}

/// The path of `names` from `root`, one object key a step.
fn path_of(doc: &Value, root: &[usize], names: &[&str]) -> Path {
    let mut path = root.to_vec();
    for name in names {
        path.push(child(at(doc, &path), name));
    }
    path
}

/// Every integer leaf at or below `path`, and every string leaf if
/// `strings`.
fn leaves(doc: &Value, path: &mut Path, strings: bool, out: &mut Vec<Path>) {
    match at(doc, path) {
        Value::U64(_) => out.push(path.clone()),
        Value::String(_) if strings => out.push(path.clone()),
        Value::Object(fields) => {
            for i in 0..fields.len() {
                path.push(i);
                leaves(doc, path, strings, out);
                path.pop();
            }
        }
        Value::Array(items) => {
            for i in 0..items.len() {
                path.push(i);
                leaves(doc, path, strings, out);
                path.pop();
            }
        }
        _ => {}
    }
}

/// How a mutated document fared.
#[derive(Debug, Default)]
struct Tally {
    refused: usize,
    answered: usize,
}

/// The four values a leaf is set to in turn, less its own.
fn mutations(value: &Value) -> Vec<Value> {
    let news = match value {
        Value::U64(v) => [0, 1, v + 1, 1 << 31].map(Value::U64).to_vec(),
        Value::String(v) => {
            let doubled = v
                .chars()
                .next()
                .map_or(String::new(), |c| format!("{c}{v}"));
            ["".into(), "A".into(), doubled, format!("Ä{v}")]
                .map(Value::String)
                .to_vec()
        }
        _ => unreachable!("leaves are integers and strings"),
    };
    news.into_iter().filter(|new| new != value).collect()
}

/// Sets each integer leaf below `roots` of `doc` in turn to 0, 1, one more
/// than its value and 2³¹ — and each string leaf below `string_roots` as
/// the module documentation says — and hands the document's text to
/// `answer`, which returns `Err` for a refusal and `Ok` once every verb has
/// answered. A panic fails the test, naming the leaf and the value.
fn mutate_each_leaf(
    name: &str,
    doc: &Value,
    roots: &[Path],
    string_roots: &[Path],
    answer: impl Fn(&str) -> Result<(), String>,
) -> Tally {
    let mut found = Vec::new();
    for root in roots {
        leaves(doc, &mut root.clone(), false, &mut found);
    }
    for root in string_roots {
        leaves(doc, &mut root.clone(), true, &mut found);
    }
    found.sort();
    found.dedup();
    assert!(found.len() > 50, "{name}: {} leaves", found.len());
    let mut tally = Tally::default();
    let mut panics = Vec::new();
    for leaf in &found {
        let value = at(doc, leaf);
        for new in mutations(value) {
            let mut edited = doc.clone();
            *at_mut(&mut edited, leaf) = new.clone();
            let text = serde_json::to_string(&edited).unwrap();
            match catch_unwind(AssertUnwindSafe(|| answer(&text))) {
                Ok(Ok(())) => tally.answered += 1,
                Ok(Err(_)) => tally.refused += 1,
                Err(_) => panics.push(format!("leaf {leaf:?} set from {value:?} to {new:?}")),
            }
        }
    }
    assert!(
        panics.is_empty(),
        "{name}: panicked at\n{}",
        panics.join("\n")
    );
    tally
}

/// Loads a snapshot document and runs every verb of its pipeline.
fn answer_snapshot(text: &str) -> Result<(), String> {
    let mut snapshot: Snapshot = serde_json::from_str(text).map_err(|e| e.to_string())?;
    // Stamped as a writer of the mutated schema would stamp it: the header's
    // hash would refuse every schema leaf before the schema is read.
    snapshot.schema_hash = schema_hash(&snapshot.state.schema).map_err(|e| e.to_string())?;
    snapshot.validate(None).map_err(|e| e.to_string())?;
    let mut p = ShardedPipeline::from_state(snapshot.state).map_err(|e| e.to_string())?;
    p.link(&probes()).unwrap();
    p.index(&[newcomer()]).unwrap();
    p.link(&probes()).unwrap();
    p.delete(&[1, 8, 999]).unwrap();
    let state = p.export_state().unwrap();
    assert_eq!(state.indexed, p.indexed_len());
    let again = Snapshot::new(state, Vec::new(), 0).unwrap();
    serde_json::to_string(&again).unwrap();
    Ok(())
}

/// Loads a saved pipeline and runs every verb it has.
fn answer_pipeline(text: &str) -> Result<(), String> {
    let mut p = LinkagePipeline::load(text.as_bytes()).map_err(|e| e.to_string())?;
    p.link(&probes()).unwrap();
    p.index(&[newcomer()]).unwrap();
    p.link(&probes()).unwrap();
    p.save(Vec::new()).unwrap();
    Ok(())
}

#[test]
fn every_mutated_snapshot_is_refused_or_answers_every_verb() {
    for name in [
        "snapshot-v3-rule-aware.json",
        "snapshot-v3-covering-rule-aware.json",
    ] {
        let doc = serde_json::value_from_str(&fixture(name)).unwrap();
        let state = vec![child(&doc, "state")];
        let schema = path_of(&doc, &state, &["schema"]);
        let mut roots = vec![
            schema.clone(),
            path_of(&doc, &state, &["classifier"]),
            path_of(&doc, &state, &["indexed"]),
        ];
        let shards = path_of(&doc, &state, &["shards"]);
        let Value::Array(items) = at(&doc, &shards) else {
            panic!("shards is an array");
        };
        for i in 0..items.len() {
            let shard = [shards.clone(), vec![i]].concat();
            roots.push(path_of(&doc, &shard, &["plan"]));
            roots.push(path_of(&doc, &shard, &["store"]));
        }
        let tally = mutate_each_leaf(name, &doc, &roots, &[schema], answer_snapshot);
        // Both outcomes occur: the check is not vacuous either way.
        assert!(tally.refused > 0 && tally.answered > 0, "{name}: {tally:?}");
    }
}

#[test]
fn every_mutated_saved_pipeline_is_refused_or_answers_every_verb() {
    let name = "pipeline-record-level.json";
    let doc = serde_json::value_from_str(&fixture(name)).unwrap();
    let schema = path_of(&doc, &[], &["schema"]);
    let roots = [
        schema.clone(),
        path_of(&doc, &[], &["config", "rule"]),
        path_of(&doc, &[], &["plan"]),
        path_of(&doc, &[], &["store"]),
        path_of(&doc, &[], &["indexed"]),
    ];
    let tally = mutate_each_leaf(name, &doc, &roots, &[schema], answer_pipeline);
    assert!(tally.refused > 0 && tally.answered > 0, "{name}: {tally:?}");
}

//! A document that loads answers every verb without a panic (ROADMAP item
//! 6(a)), for the documents of `tests/fixtures/`: the two version 3
//! snapshots and the saved pipeline.
//!
//! Each integer leaf under a snapshot's `state.classifier`, each
//! `state.shards[*].plan` and `state.indexed` — under a saved pipeline's
//! `config.rule`, `plan` and `indexed` — is set in turn to 0, 1, one more
//! than its value and 2³¹: hash-family sources and positions, conjunct
//! attributes and thresholds, `probe_flips`, the candidate expression's
//! structure indexes, table values and counters. Every mutated document is either refused with
//! a typed error, or it loads and answers `link`, `index`, `delete` and
//! `export_state` (a saved pipeline: `link`, `index` and `save`), and
//! nothing panics.

use cbv_hb::pipeline::LinkagePipeline;
use cbv_hb::sharded::ShardedPipeline;
use cbv_hb::Record;
use rl_store::snapshot::Snapshot;
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

/// Every integer leaf at or below `path`.
fn integer_leaves(doc: &Value, path: &mut Path, out: &mut Vec<Path>) {
    match at(doc, path) {
        Value::U64(_) => out.push(path.clone()),
        Value::Object(fields) => {
            for i in 0..fields.len() {
                path.push(i);
                integer_leaves(doc, path, out);
                path.pop();
            }
        }
        Value::Array(items) => {
            for i in 0..items.len() {
                path.push(i);
                integer_leaves(doc, path, out);
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

/// Sets each integer leaf below `roots` of `doc` in turn to 0, 1, one more
/// than its value and 2³¹, and hands the document's text to `answer`, which returns
/// `Err` for a refusal and `Ok` once every verb has answered. A panic fails
/// the test, naming the leaf and the value.
fn mutate_each_leaf(
    name: &str,
    doc: &Value,
    roots: &[Path],
    answer: impl Fn(&str) -> Result<(), String>,
) -> Tally {
    let mut leaves = Vec::new();
    for root in roots {
        integer_leaves(doc, &mut root.clone(), &mut leaves);
    }
    assert!(leaves.len() > 50, "{name}: {} integer leaves", leaves.len());
    let mut tally = Tally::default();
    for leaf in &leaves {
        let Value::U64(value) = *at(doc, leaf) else {
            unreachable!("integer leaves are U64")
        };
        for new in [0, 1, value + 1, 1 << 31] {
            if new == value {
                continue;
            }
            let mut edited = doc.clone();
            *at_mut(&mut edited, leaf) = Value::U64(new);
            let text = serde_json::to_string(&edited).unwrap();
            match catch_unwind(AssertUnwindSafe(|| answer(&text))) {
                Ok(Ok(())) => tally.answered += 1,
                Ok(Err(_)) => tally.refused += 1,
                Err(_) => panic!("{name}: leaf {leaf:?} set from {value} to {new} panicked"),
            }
        }
    }
    tally
}

/// Loads a snapshot document and runs every verb of its pipeline.
fn answer_snapshot(text: &str) -> Result<(), String> {
    let snapshot: Snapshot = serde_json::from_str(text).map_err(|e| e.to_string())?;
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
        let mut roots = vec![
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
        }
        let tally = mutate_each_leaf(name, &doc, &roots, answer_snapshot);
        // Both outcomes occur: the check is not vacuous either way.
        assert!(tally.refused > 0 && tally.answered > 0, "{name}: {tally:?}");
    }
}

#[test]
fn every_mutated_saved_pipeline_is_refused_or_answers_every_verb() {
    let name = "pipeline-record-level.json";
    let doc = serde_json::value_from_str(&fixture(name)).unwrap();
    let roots = [
        path_of(&doc, &[], &["config", "rule"]),
        path_of(&doc, &[], &["plan"]),
        path_of(&doc, &[], &["indexed"]),
    ];
    let tally = mutate_each_leaf(name, &doc, &roots, answer_pipeline);
    assert!(tally.refused > 0 && tally.answered > 0, "{name}: {tally:?}");
}

//! Serialization round trips for the persistent artifacts: a linkage
//! deployment must be able to save its schema (with drawn hash
//! coefficients), rules, and embedded records, and reload them with
//! identical behaviour.

use rand::rngs::StdRng;
use rand::SeedableRng;
use record_linkage::cbv_hb::{AttributeSpec, Error, Record, RecordSchema, Rule};
use record_linkage::prelude::*;

fn schema(seed: u64) -> RecordSchema {
    let mut rng = StdRng::seed_from_u64(seed);
    RecordSchema::build(
        Alphabet::linkage(),
        vec![
            AttributeSpec::new("FirstName", 2, 15, false, 5),
            AttributeSpec::new("LastName", 2, 15, true, 5),
        ],
        &mut rng,
    )
}

#[test]
fn schema_roundtrip_preserves_embeddings() {
    let s = schema(1);
    let json = serde_json::to_string(&s).expect("serialize schema");
    let back: RecordSchema = serde_json::from_str(&json).expect("deserialize schema");
    // The reloaded schema must embed identically — hash coefficients and
    // padding modes included.
    for rec in [
        Record::new(1, ["JOHN", "SMITH"]),
        Record::new(2, ["", "WASHINGTON"]),
        Record::new(3, ["MARY ANN", "O NEILL"]),
    ] {
        assert_eq!(s.embed(&rec).unwrap(), back.embed(&rec).unwrap());
    }
    assert_eq!(back.total_size(), s.total_size());
    assert_eq!(back.specs(), s.specs());
}

/// A schema of every q the embedders tabulate and one they do not (a
/// 4-gram space over the linkage alphabet is 38⁴ > 2¹⁶), padded and not.
fn mixed_schema(seed: u64) -> RecordSchema {
    let mut rng = StdRng::seed_from_u64(seed);
    RecordSchema::build(
        Alphabet::linkage(),
        vec![
            AttributeSpec::new("Initial", 1, 12, false, 5),
            AttributeSpec::new("FirstName", 2, 15, false, 5),
            AttributeSpec::new("LastName", 2, 20, true, 5),
            AttributeSpec::new("Address", 3, 90, true, 10),
            AttributeSpec::new("Town", 4, 40, false, 10),
        ],
        &mut rng,
    )
}

#[test]
fn a_loaded_schema_embeds_every_record_to_the_same_row() {
    let s = mixed_schema(3);
    let json = serde_json::to_string(&s).unwrap();
    let back: RecordSchema = serde_json::from_str(&json).unwrap();
    // Documents stay byte-identical: the position tables are not written.
    assert_eq!(serde_json::to_string(&back).unwrap(), json);
    let words = [
        "",
        "J",
        "JO",
        "JONES",
        "MARY ANN",
        "12 OAK ST",
        "o'neill",
        "Zürich 9",
    ];
    let records: Vec<Record> = (0..words.len().pow(2))
        .map(|i| {
            let (x, y) = (words[i % words.len()], words[i / words.len()]);
            Record::new(i as u64, [x, y, x, y, &format!("{x}{y}")])
        })
        .collect();
    let (mut rows, mut rows_back) = (Vec::new(), Vec::new());
    s.embed_rows(&records, &mut rows).unwrap();
    back.embed_rows(&records, &mut rows_back).unwrap();
    assert_eq!(rows, rows_back);
    for r in &records {
        assert_eq!(s.embed(r).unwrap(), back.embed(r).unwrap());
    }
}

/// The document of `mixed_schema(4)` with `edit` applied, loaded.
fn load_edited(edit: impl FnOnce(&mut serde_json::Value)) -> Result<RecordSchema, String> {
    let mut doc = serde_json::to_value(&mixed_schema(4)).unwrap();
    edit(&mut doc);
    serde_json::from_value(doc).map_err(|e| e.to_string())
}

/// The embedders of a schema document.
fn embedders(doc: &mut serde_json::Value) -> &mut Vec<serde_json::Value> {
    let serde_json::Value::Array(embedders) = field(doc, "embedders") else {
        panic!("embedders are an array");
    };
    embedders
}

/// Sets `path` under embedder `i` of a schema document to `to`.
fn set(doc: &mut serde_json::Value, i: usize, path: &[&str], to: serde_json::Value) {
    *path
        .iter()
        .fold(&mut embedders(doc)[i], |v, name| field(v, name)) = to;
}

#[test]
fn a_schema_document_that_could_not_embed_is_refused_at_load() {
    use serde_json::Value::{Bool, String as Str, U64};
    assert!(load_edited(|_| {}).is_ok());
    let p = (1u64 << 61) - 1;
    let cases = [
        // Wider than its spec: the first embed would index past the row.
        (
            "m past the spec",
            1,
            &["hash", "m"][..],
            U64(200),
            "(q, m, padded)",
        ),
        // Narrower: rows of another layout, silently.
        ("narrower m", 1, &["hash", "m"], U64(10), "(q, m, padded)"),
        // A zero range would divide by zero at the first embed.
        ("m = 0", 1, &["hash", "m"], U64(0), "outside"),
        ("a = 0", 2, &["hash", "a"], U64(0), "outside"),
        ("b = P", 2, &["hash", "b"], U64(p), "outside"),
        ("another q", 1, &["q"], U64(3), "(q, m, padded)"),
        (
            "another padding",
            2,
            &["padded"],
            Bool(false),
            "(q, m, padded)",
        ),
        (
            "another alphabet",
            0,
            &["alphabet"],
            Str("ABC".into()),
            "alphabet",
        ),
        ("q = 0", 0, &["q"], U64(0), "positive"),
    ];
    for (what, i, path, to, says) in cases {
        let err = load_edited(|d| set(d, i, path, to)).expect_err(what);
        assert!(err.contains(says), "{what}: {err}");
    }
    let err = load_edited(|d| drop(embedders(d).pop())).expect_err("an embedder short");
    assert!(err.contains("4 embedders for 5"), "{err}");
    // A padded bigram embedder needs the pad symbol in its alphabet.
    let err = load_edited(|d| {
        *field(d, "alphabet") = Str("ABC".into());
        for e in embedders(d) {
            *field(e, "alphabet") = Str("ABC".into());
        }
    })
    .expect_err("no pad symbol");
    assert!(err.contains("pad symbol"), "{err}");
}

#[test]
fn rule_roundtrip() {
    let rule = Rule::or([
        Rule::and([Rule::pred(0, 4), Rule::not(Rule::pred(1, 4))]),
        Rule::pred(1, 8),
    ]);
    let json = serde_json::to_string(&rule).unwrap();
    let back: Rule = serde_json::from_str(&json).unwrap();
    assert_eq!(back, rule);
    for d in [[0u32, 0], [0, 9], [9, 8], [9, 9]] {
        assert_eq!(back.evaluate(&d), rule.evaluate(&d));
    }
}

#[test]
fn embedded_record_roundtrip() {
    let s = schema(2);
    let e = s.embed(&Record::new(7, ["JOHN", "SMITH"])).unwrap();
    let json = serde_json::to_string(&e).unwrap();
    let back: record_linkage::cbv_hb::EmbeddedRecord = serde_json::from_str(&json).unwrap();
    assert_eq!(back, e);
    assert_eq!(back.total_distance(&e), 0);
}

#[test]
fn record_roundtrip() {
    let r = Record::new(9, ["WITH,COMMA", "WITH\"QUOTE"]);
    let json = serde_json::to_string(&r).unwrap();
    let back: Record = serde_json::from_str(&json).unwrap();
    assert_eq!(back, r);
}

#[test]
fn alphabet_roundtrip_preserves_ord() {
    let a = Alphabet::linkage();
    let json = serde_json::to_string(&a).unwrap();
    let back: Alphabet = serde_json::from_str(&json).unwrap();
    assert_eq!(back, a);
    for ch in "ABZ09 _".chars() {
        assert_eq!(back.ord(ch), a.ord(ch), "{ch:?}");
    }
}

#[test]
fn config_roundtrip() {
    let config = LinkageConfig::rule_aware(Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]));
    let json = serde_json::to_string(&config).unwrap();
    let back: LinkageConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(back, config);
}

#[test]
fn sharded_snapshot_roundtrip_probe_equivalence() {
    use record_linkage::cbv_hb::pipeline::LinkageConfig;
    use record_linkage::cbv_hb::sharded::ShardedPipeline;
    use record_linkage::server::Snapshot;

    let mut rng = StdRng::seed_from_u64(11);
    let schema = RecordSchema::build(
        Alphabet::linkage(),
        vec![
            AttributeSpec::new("FirstName", 2, 15, false, 5),
            AttributeSpec::new("LastName", 2, 15, false, 5),
        ],
        &mut rng,
    );
    let rule = Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]);
    let mut pipeline =
        ShardedPipeline::new(schema, LinkageConfig::rule_aware(rule), 3, &mut rng).unwrap();
    let a: Vec<Record> = (0..30)
        .map(|i| Record::new(i, [format!("FIRST{i}Q"), format!("LAST{i}Z")]))
        .collect();
    pipeline.index(&a).unwrap();
    let b: Vec<Record> = (0..30)
        .map(|i| Record::new(1000 + i, [format!("FIRST{i}Q"), format!("LAST{i}Z")]))
        .collect();
    let (before, _) = pipeline.link(&b).unwrap();

    // Save through the versioned snapshot format, reload, and re-probe:
    // the restored index must answer identically.
    let dir = std::env::temp_dir().join("rl-serde-roundtrip-snap");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("index.snap");
    let snap = Snapshot::new(pipeline.export_state().unwrap(), vec![], 0).unwrap();
    snap.save(&path).unwrap();

    let loaded = Snapshot::load(&path).unwrap();
    let restored = ShardedPipeline::from_state(loaded.state).unwrap();
    let (after, _) = restored.link(&b).unwrap();
    assert_eq!(before, after);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Takes one table out of the first `"tables"` array under `v`: a store
/// holding one table fewer than its structure's kernel keys.
fn drop_a_table(v: &mut serde_json::Value) -> bool {
    use serde_json::Value;
    match v {
        Value::Object(fields) => fields.iter_mut().any(|(name, v)| match v {
            Value::Array(tables) if name == "tables" => tables.pop().is_some(),
            _ => drop_a_table(v),
        }),
        Value::Array(items) => items.iter_mut().any(drop_a_table),
        _ => false,
    }
}

fn field<'v>(v: &'v mut serde_json::Value, name: &str) -> &'v mut serde_json::Value {
    let serde_json::Value::Object(fields) = v else {
        panic!("no object around {name}");
    };
    let (_, v) = fields.iter_mut().find(|(n, _)| n == name).expect(name);
    v
}

/// What `compile_kernels` says of the first structure of `plan` once its
/// store has lost a table.
fn missing_table_error(plan: &record_linkage::cbv_hb::blocking::BlockingPlan) -> String {
    let s = &plan.structures()[0];
    format!(
        "blocking structure {}: its store holds {} tables, its kernel keys {}",
        s.label(),
        s.l() - 1,
        s.l()
    )
}

fn twin_records(base: u64) -> Vec<Record> {
    (0..30)
        .map(|i| Record::new(base + i, [format!("FIRST{i}Q"), format!("LAST{i}Z")]))
        .collect()
}

#[test]
fn a_pipeline_document_missing_a_table_is_refused_at_load() {
    let mut rng = StdRng::seed_from_u64(12);
    let rule = Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]);
    let mut pipeline =
        LinkagePipeline::new(schema(12), LinkageConfig::rule_aware(rule), &mut rng).unwrap();
    pipeline.index(&twin_records(0)).unwrap();
    let mut saved = Vec::new();
    pipeline.save(&mut saved).unwrap();
    assert!(LinkagePipeline::load(saved.as_slice()).is_ok());

    let mut doc = serde_json::value_from_str(std::str::from_utf8(&saved).unwrap()).unwrap();
    assert!(drop_a_table(field(&mut doc, "plan")));
    let edited = serde_json::to_string(&doc).unwrap();
    let Err(err) = LinkagePipeline::load(edited.as_bytes()) else {
        panic!("a plan short of a table loaded");
    };
    assert!(matches!(err, Error::InvalidParameter(_)), "{err}");
    let expect = missing_table_error(pipeline.plan());
    assert!(err.to_string().contains(&expect), "{err}");
}

#[test]
fn a_sharded_state_missing_a_table_is_refused() {
    use record_linkage::cbv_hb::sharded::{ShardedPipeline, ShardedState};
    let mut rng = StdRng::seed_from_u64(13);
    let rule = Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]);
    let mut pipeline =
        ShardedPipeline::new(schema(13), LinkageConfig::rule_aware(rule), 2, &mut rng).unwrap();
    pipeline.index(&twin_records(0)).unwrap();
    let state = pipeline.export_state().unwrap();
    let expect = missing_table_error(&state.shards[1].plan);

    let mut doc = serde_json::to_value(&state).unwrap();
    let serde_json::Value::Array(shards) = field(&mut doc, "shards") else {
        panic!("shards is an array");
    };
    assert!(drop_a_table(field(&mut shards[1], "plan")));
    let edited: ShardedState = serde_json::from_value(doc).unwrap();
    let Err(err) = ShardedPipeline::from_state(edited) else {
        panic!("a shard short of a table restored");
    };
    assert!(matches!(err, Error::InvalidParameter(_)), "{err}");
    assert!(err.to_string().contains(&expect), "{err}");
}

#[test]
fn pprl_encoded_dataset_roundtrip() {
    use record_linkage::pprl::keyed::{KeyedAttribute, KeyedEmbedder, SecretKey};
    use record_linkage::pprl::{DataCustodian, EncodedDataset};
    let mut rng = StdRng::seed_from_u64(3);
    let embedder = KeyedEmbedder::new(
        SecretKey::from_words([1, 2, 3, 4]),
        Alphabet::linkage(),
        vec![KeyedAttribute {
            m: 15,
            q: 2,
            padded: false,
        }],
        &mut rng,
    );
    let custodian = DataCustodian::new("alice", embedder);
    let enc = custodian.encode(&[Record::new(1, ["JOHN"])]);
    let back = EncodedDataset::from_bytes(&enc.to_bytes()).unwrap();
    assert_eq!(back, enc);
}

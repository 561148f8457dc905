//! Serialization round trips for the persistent artifacts: a linkage
//! deployment must be able to save its schema (with drawn hash
//! coefficients), rules, and embedded records, and reload them with
//! identical behaviour.

use rand::rngs::StdRng;
use rand::SeedableRng;
use record_linkage::cbv_hb::{AttributeSpec, Record, RecordSchema, Rule};
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

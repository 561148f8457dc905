//! `RecordSchema::embed_rows` writes the same rows whatever the order of
//! its batch in memory, and the rows it writes are pinned: the digest below
//! was captured on the commit before the byte-level q-gram kernel and the
//! batch prefetch, over seeded pairs under every perturbation scheme and a
//! hand list of hostile values, through a bigram and a padded-trigram
//! schema. Any change to folding, padding, window arithmetic or the
//! position tables shows up as a mismatch.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use record_linkage::cbv_hb::schema::EMBED_AHEAD;
use record_linkage::cbv_hb::{AttributeSpec, Error, Record, RecordSchema};
use record_linkage::datagen::{DatasetPair, NcvrSource, Op, PairConfig, PerturbationScheme};
use textdist::Alphabet;

/// The benchmark's shape (bigrams, unpadded, 120 bits) and a padded
/// trigram schema with a wide attribute that spans three words.
fn schemas() -> [RecordSchema; 2] {
    let mut rng = StdRng::seed_from_u64(35);
    let bigrams = RecordSchema::build(
        Alphabet::linkage(),
        vec![
            AttributeSpec::new("FirstName", 2, 15, false, 5),
            AttributeSpec::new("LastName", 2, 15, false, 5),
            AttributeSpec::new("Address", 2, 68, false, 10),
            AttributeSpec::new("Town", 2, 22, false, 10),
        ],
        &mut rng,
    );
    let trigrams = RecordSchema::build(
        Alphabet::linkage(),
        vec![
            AttributeSpec::new("FirstName", 3, 31, true, 5),
            AttributeSpec::new("LastName", 3, 29, true, 5),
            AttributeSpec::new("Address", 3, 150, true, 10),
            AttributeSpec::new("Town", 3, 40, true, 10),
        ],
        &mut rng,
    );
    [bigrams, trigrams]
}

fn schemes() -> Vec<PerturbationScheme> {
    let mut schemes = vec![PerturbationScheme::Light, PerturbationScheme::Heavy];
    schemes.extend(Op::ALL.map(PerturbationScheme::SingleOp));
    schemes.extend(Op::ALL.map(PerturbationScheme::HeavyOp));
    schemes
}

/// 10 000 records of a seeded pair (A, then B) under `scheme`.
fn pair_records(scheme: PerturbationScheme) -> Vec<Record> {
    let mut rng = StdRng::seed_from_u64(7);
    let pair = DatasetPair::generate(&NcvrSource, PairConfig::new(5_000, scheme), &mut rng);
    pair.a.into_iter().chain(pair.b).collect()
}

/// Values no generator writes: lower case, punctuation, multi-byte UTF-8,
/// empty, and nothing but pads.
fn hostile() -> Vec<Record> {
    let values = [
        "",
        "_",
        "____",
        "jones",
        "O'Brien-Smith",
        "ß",
        "Zoë Ångström",
        "東京 1-2-3",
        "12 Main St.",
        "  ",
        "\u{1F600}A\u{1F600}",
        "a_b_c",
        "ÉÉÉ",
        "\u{0301}x",
        "Z",
        "ZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZ",
        "\t\n",
        "#$%&",
        "naïve café",
        "__A__",
    ];
    // Every pair of values meets once in the first two fields.
    let n = values.len();
    (0..n * n)
        .map(|i| {
            let (lo, hi) = (i % n, i / n);
            let fields = [lo, hi + 1, lo + 2, hi + 3].map(|v| values[v % n]);
            Record::new(i as u64, fields)
        })
        .collect()
}

/// FNV-1a over the words of `rows`.
fn digest(hash: &mut u64, rows: &[u64]) {
    for w in rows {
        for b in w.to_le_bytes() {
            *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn rows_of(schema: &RecordSchema, records: &[Record]) -> Vec<u64> {
    let mut rows = Vec::new();
    schema.embed_rows(records, &mut rows).expect("embed");
    rows
}

/// Every record's row is the same in allocation order, in a batch whose
/// records were moved into a seeded shuffle (so their strings lie out of
/// batch order), and embedded alone; at several batch sizes around the
/// prefetch distance.
fn assert_order_free(schema: &RecordSchema, records: &[Record], seed: u64) -> Vec<u64> {
    let w = schema.row_words();
    let in_order = rows_of(schema, records);
    assert_eq!(in_order.len(), records.len() * w);

    let mut order: Vec<usize> = (0..records.len()).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    let mut moved: Vec<Option<Record>> = records.iter().cloned().map(Some).collect();
    let scattered: Vec<Record> = order.iter().map(|&i| moved[i].take().unwrap()).collect();
    let shuffled = rows_of(schema, &scattered);
    for (j, &i) in order.iter().enumerate() {
        assert_eq!(
            shuffled[j * w..(j + 1) * w],
            in_order[i * w..(i + 1) * w],
            "record {} in a shuffled batch",
            records[i].id
        );
    }

    let mut alone = Vec::new();
    for (i, r) in records.iter().enumerate() {
        schema
            .embed_rows(std::slice::from_ref(r), &mut alone)
            .unwrap();
        assert_eq!(alone, in_order[i * w..(i + 1) * w], "record {} alone", r.id);
        let mut row = vec![u64::MAX; w];
        schema.embed_row(r, &mut row).unwrap();
        assert_eq!(row, alone, "record {}: embed_row", r.id);
    }

    for n in [
        0,
        1,
        EMBED_AHEAD / 2,
        EMBED_AHEAD - 1,
        EMBED_AHEAD,
        EMBED_AHEAD + 1,
    ] {
        let n = n.min(scattered.len());
        let batch = rows_of(schema, &scattered[..n]);
        assert_eq!(batch, shuffled[..n * w], "a batch of {n}");
    }
    in_order
}

#[test]
fn embedded_rows_are_the_pinned_ones_in_every_batch_order() {
    let schemas = schemas();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (s, scheme) in schemes().into_iter().enumerate() {
        let records = pair_records(scheme);
        for schema in &schemas {
            digest(&mut hash, &rows_of(schema, &records));
        }
        // The order checks on a slice of each pair: alone, each record is
        // one call.
        let sample = &records[records.len() / 2 - 300..records.len() / 2 + 300];
        assert_order_free(&schemas[0], sample, s as u64);
    }
    let hostile = hostile();
    for (s, schema) in schemas.iter().enumerate() {
        digest(
            &mut hash,
            &assert_order_free(schema, &hostile, 100 + s as u64),
        );
    }
    assert_eq!(
        hash, 0x0050_3491_e030_1a6c,
        "embed_rows wrote other rows than the parent commit's kernel"
    );
}

#[test]
fn a_malformed_record_mid_batch_is_refused_by_count() {
    let [schema, _] = schemas();
    let mut records: Vec<Record> = (0..2 * EMBED_AHEAD as u64 + 3)
        .map(|i| Record::new(i, ["ANN", "LEE", "1 OAK ST", "APEX"]))
        .collect();
    let mid = EMBED_AHEAD + 1;
    records[mid] = Record::new(99, ["ANN", "LEE", "1 OAK ST"]);
    let mut rows = Vec::new();
    match schema.embed_rows(&records, &mut rows) {
        Err(Error::FieldCountMismatch { found, expected }) => {
            assert_eq!((found, expected), (3, 4));
        }
        other => panic!("expected FieldCountMismatch, got {other:?}"),
    }
    // So is a record with more fields than the schema.
    records[mid] = Record::new(99, ["ANN", "LEE", "1 OAK ST", "APEX", "X", "Y"]);
    assert!(matches!(
        schema.embed_rows(&records, &mut rows),
        Err(Error::FieldCountMismatch {
            found: 6,
            expected: 4
        })
    ));
}

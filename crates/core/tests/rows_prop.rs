//! Rows ≡ the unpacked reference.
//!
//! The engine keeps a record as one packed row (`RecordSchema::embed_row`,
//! `RecordSlab`) and computes keys, candidates and classifications over
//! rows. `RecordSchema::embed` / `EmbeddedRecord` (one `BitVec` per
//! attribute) stay as the definition. These properties hold the row path to
//! it: (a) the embedded words, (b) the layout's distances, (c) the
//! classifier, (d) the plan's candidate evaluation against a hash-set model,
//! (e) the slab against a map of rows.

use cbv_hb::blocking::{BlockingPlan, BlockingStructure, ProbeScratch};
use cbv_hb::matcher::{Classifier, RecordSlab};
use cbv_hb::pipeline::LinkageConfig;
use cbv_hb::schema::{AttributeSpec, EmbeddedRecord, RecordSchema, RowLayout};
use cbv_hb::{Record, Rule};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rl_bitvec::BitVec;
use std::collections::{HashMap, HashSet};
use textdist::Alphabet;

/// One to five attributes of 1 to 600 bits in the order drawn: attributes
/// start anywhere in a word, straddle one boundary or several, and rows run
/// from one word to beyond the 512 bits the adapters pack on the stack.
fn widths() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![
        proptest::collection::vec(1usize..=600, 1..=5),
        proptest::collection::vec(1usize..=70, 1..=5),
        // Ends on, straddles, fills and passes word boundaries.
        Just(vec![64, 64]),
        Just(vec![63, 2, 63]),
        Just(vec![1, 128, 5]),
        Just(vec![300, 7, 290]),
    ]
}

fn schema_of(widths: &[usize], q: &[usize], padded: &[bool], rng: &mut StdRng) -> RecordSchema {
    let specs = widths
        .iter()
        .enumerate()
        .map(|(i, &m)| {
            AttributeSpec::new(
                format!("f{i}"),
                q[i % q.len()],
                m,
                padded[i % padded.len()],
                2,
            )
        })
        .collect();
    RecordSchema::build(Alphabet::linkage(), specs, rng)
}

/// A record of the given widths with every bit drawn at random.
fn random_record(id: u64, widths: &[usize], rng: &mut StdRng) -> EmbeddedRecord {
    let attrs = widths
        .iter()
        .map(|&m| BitVec::from_positions(m, (0..m).filter(|_| rng.random_bool(0.4))))
        .collect();
    EmbeddedRecord { id, attrs }
}

fn packed(rec: &EmbeddedRecord) -> Vec<u64> {
    let mut words = vec![0u64; rec.total_bits().div_ceil(64)];
    rec.pack_into(&mut words);
    words
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // (a)
    #[test]
    fn embed_row_writes_the_words_of_embed_then_pack(
        widths in widths(),
        q in proptest::collection::vec(1usize..=3, 5),
        padded in proptest::collection::vec(any::<bool>(), 5),
        fields in proptest::collection::vec("[A-Ca-c0-2 _.éß#-]{0,14}", 5),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = schema_of(&widths, &q, &padded, &mut rng);
        let record = Record::new(7, fields[..widths.len()].iter().cloned());
        let reference = schema.embed(&record).unwrap();
        // Into a dirty row: `embed_row` overwrites.
        let mut row = vec![u64::MAX; schema.row_words()];
        schema.embed_row(&record, &mut row).unwrap();
        prop_assert_eq!(&row, &packed(&reference));
        prop_assert_eq!(reference.packed().as_ref(), &row[..]);
        prop_assert_eq!(schema.layout().unpack(7, &row), reference);
        // A batch is the rows one after the other, in a reused buffer.
        let mut rows = vec![u64::MAX; 3];
        schema.embed_rows(&[record.clone(), record], &mut rows).unwrap();
        prop_assert_eq!(rows, [&row[..], &row[..]].concat());
    }

    // (b)
    #[test]
    fn layout_distances_are_the_attribute_distances(widths in widths(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let layout = RowLayout::from_widths(widths.iter().copied());
        prop_assert_eq!(layout.words(), widths.iter().sum::<usize>().div_ceil(64));
        let (a, b) = (random_record(1, &widths, &mut rng), random_record(2, &widths, &mut rng));
        let (ra, rb) = (packed(&a), packed(&b));
        for i in 0..widths.len() {
            prop_assert_eq!(layout.distance(&ra, &rb, i), a.attr_distance(&b, i), "attribute {}", i);
        }
        prop_assert_eq!(layout.total_distance(&ra, &rb), a.total_distance(&b));
    }

    // (c)
    #[test]
    fn classifier_over_rows_is_classifier_over_records(
        widths in proptest::collection::vec(1usize..=90, 3),
        thetas in proptest::collection::vec(0u32..=40, 4),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let layout = RowLayout::from_widths(widths.iter().copied());
        let c = Classifier::Rule(Rule::and([
            Rule::pred(0, thetas[0]),
            Rule::or([Rule::pred(1, thetas[1]), Rule::pred(2, thetas[2])]),
            Rule::not(Rule::pred(2, thetas[3] / 4)),
        ]));
        for _ in 0..8 {
            let (a, b) = (random_record(1, &widths, &mut rng), random_record(2, &widths, &mut rng));
            prop_assert_eq!(c.matches_rows(&layout, &packed(&a), &packed(&b)), c.matches(&a, &b));
        }
    }
}

// ---- (d) the row evaluation against hash sets ------------------------------

/// A random *positive* rule (no NOT) over `n_attrs` attributes.
fn positive_rule(n_attrs: usize, max_theta: u32) -> impl Strategy<Value = Rule> {
    let pred = (0..n_attrs, 1..=max_theta).prop_map(|(a, t)| Rule::pred(a, t));
    pred.prop_recursive(2, 6, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Rule::And),
            proptest::collection::vec(inner, 1..3).prop_map(Rule::Or),
        ]
    })
}

/// Positive conjuncts and one negated predicate or conjunction (the paper's
/// C3), alone or beside another subrule under an OR.
fn rule_with_not(n_attrs: usize, max_theta: u32) -> impl Strategy<Value = Rule> {
    let pred = || (0..n_attrs, 1..=max_theta).prop_map(|(a, t)| Rule::pred(a, t));
    let negated = prop_oneof![
        pred(),
        proptest::collection::vec(pred(), 1..3).prop_map(Rule::And),
    ];
    let c3 = (
        proptest::collection::vec(positive_rule(n_attrs, max_theta), 1..3),
        negated,
    )
        .prop_map(|(mut conjuncts, negated)| {
            conjuncts.push(Rule::not(negated));
            Rule::And(conjuncts)
        });
    (c3, positive_rule(n_attrs, max_theta), any::<bool>()).prop_map(|(c3, other, alone)| {
        if alone {
            c3
        } else {
            Rule::or([other, c3])
        }
    })
}

/// One structure's candidates as hash sets formulate them: tables in order,
/// ids in insertion order, each new id entering the set until `top_k`
/// distinct ones are in (0: no bound). The set, and whether it was cut.
fn leaf_model(s: &BlockingStructure, probe: &[u64], top_k: usize) -> (HashSet<u64>, bool) {
    let mut keys = Vec::new();
    s.keys_into_row(probe, &mut keys);
    let mut out = HashSet::new();
    let mut bucket = Vec::new();
    for (l, &key) in keys.iter().enumerate() {
        bucket.clear();
        s.probe_key_into(l, key, &mut bucket);
        for &id in &bucket {
            if top_k > 0 && out.len() >= top_k && !out.contains(&id) {
                return (out, true);
            }
            out.insert(id);
        }
    }
    (out, false)
}

/// The verified candidate set of `rule` by set algebra over
/// [`leaf_model`]s, structures taken in the order the compiler made them:
/// an AND's fused predicates, its compound conjuncts, one per NOT; an OR's
/// children left to right.
fn plan_model<'p>(
    rule: &Rule,
    structures: &mut std::slice::Iter<'p, BlockingStructure>,
    probe: &[u64],
    store: &RecordSlab,
    top_k: usize,
    truncated: &mut bool,
) -> HashSet<u64> {
    let mut leaf = |structures: &mut std::slice::Iter<'p, BlockingStructure>| {
        let (set, cut) = leaf_model(structures.next().unwrap(), probe, top_k);
        *truncated |= cut;
        set
    };
    match rule {
        Rule::Pred(_) => leaf(structures),
        Rule::Or(children) => {
            let mut out = HashSet::new();
            for c in children {
                out.extend(plan_model(c, structures, probe, store, top_k, truncated));
            }
            out
        }
        Rule::And(children) => {
            let mut sets = Vec::new();
            if children.iter().any(|c| matches!(c, Rule::Pred(_))) {
                sets.push(leaf(structures));
            }
            for c in children {
                if !matches!(c, Rule::Pred(_) | Rule::Not(_)) {
                    sets.push(plan_model(c, structures, probe, store, top_k, truncated));
                }
            }
            let mut acc = sets.pop().unwrap();
            for s in sets {
                acc.retain(|id| s.contains(id));
            }
            for _ in children.iter().filter(|c| matches!(c, Rule::Not(_))) {
                let negated = structures.next().unwrap();
                // A NOT structure's own truncation is not reported.
                let (excluded, _) = leaf_model(negated, probe, top_k);
                acc.retain(|id| {
                    !excluded.contains(id)
                        || store
                            .get(*id)
                            .is_none_or(|a| !negated.conjuncts_hold_row(a, probe))
                });
            }
            acc
        }
        Rule::Not(_) => unreachable!("validated rules negate only under an AND"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn row_evaluation_equals_set_semantics(
        rule in prop_oneof![positive_rule(3, 6), rule_with_not(3, 6)],
        seed in 0u64..50,
        top_k in prop_oneof![0usize..1, 1usize..12],
        // A three-letter alphabet: many near-duplicates, full buckets.
        values in proptest::collection::vec("[A-C]{2,4}", 3 * 45),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let specs = (0..3)
            .map(|i| AttributeSpec::new(format!("f{i}"), 2, 15 + 5 * i, false, 5))
            .collect();
        let s = RecordSchema::build(Alphabet::linkage(), specs, &mut rng);
        let mut config = LinkageConfig::rule_aware(rule.clone());
        config.delta = 0.3;
        config.block.probe_top_k = top_k;
        let mut plan = BlockingPlan::from_config(&s, &config, &mut rng).unwrap();
        let records: Vec<Record> = values
            .chunks(3)
            .enumerate()
            .map(|(i, f)| Record::new(i as u64 * 3 + 1, f.iter().cloned()))
            .collect();
        let mut rows = Vec::new();
        s.embed_rows(&records, &mut rows).unwrap();
        let rows: Vec<&[u64]> = rows.chunks_exact(s.row_words()).collect();
        let mut store = RecordSlab::new(s.layout());
        for (rec, row) in records.iter().zip(&rows).take(40) {
            plan.insert_row(rec.id, row);
            // Every fifth record is in the tables but cannot be retrieved,
            // as after a delete: a NOT cannot verify against it.
            if rec.id % 5 != 0 {
                store.insert(rec.id, row).unwrap();
            }
        }
        let mut scratch = ProbeScratch::default();
        for probe in &rows[40..] {
            let mut cut = false;
            let model =
                plan_model(&rule, &mut plan.structures().iter(), probe, &store, top_k, &mut cut);
            let mut model: Vec<u64> = model.into_iter().collect();
            model.sort_unstable();
            let ours_cut = plan.candidates_into_row(probe, |id| store.get(id), &mut scratch);
            prop_assert_eq!(scratch.candidates(), &model[..], "top_k {}", top_k);
            prop_assert_eq!(ours_cut, cut);
        }
    }
}

// ---- (e) the slab against a map of rows ------------------------------------

#[test]
fn slab_behaves_as_a_map_of_rows_and_reuses_freed_slots() {
    for seed in [1u64, 7, 42, 99, 2024] {
        let mut rng = StdRng::seed_from_u64(seed);
        // Three words a row; the third has 2 of its bits in use.
        let layout = RowLayout::from_widths([64, 60, 6]);
        let w = layout.words();
        let mut slab = RecordSlab::new(layout);
        let mut model: HashMap<u64, Vec<u64>> = HashMap::new();
        for step in 0..6_000u32 {
            // Few ids, so inserts replace and removes hit.
            let id = rng
                .random_range(0..200u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            match rng.random_range(0..10u32) {
                0..=5 => {
                    let row: Vec<u64> = (0..w).map(|_| rng.random()).collect();
                    let was = slab.slot(id);
                    let slot = slab.insert(id, &row).unwrap();
                    assert_eq!(
                        was.is_none(),
                        model.insert(id, row.clone()).is_none(),
                        "seed {seed} step {step}"
                    );
                    // A known id keeps its slot; the slot reads back by index.
                    assert!(was.is_none_or(|was| was == slot));
                    assert_eq!(slab.id_at(u64::from(slot)), id);
                    assert_eq!(slab.row_at(u64::from(slot)), Some(&row[..]));
                }
                6..=8 => assert_eq!(slab.remove(id), model.remove(&id).is_some()),
                _ => assert_eq!(slab.get(id), model.get(&id).map(Vec::as_slice)),
            }
            assert_eq!(slab.len(), model.len());
            assert_eq!(slab.is_empty(), model.is_empty());
            if step % 64 == 0 {
                let all: HashMap<u64, Vec<u64>> =
                    slab.iter().map(|(id, row)| (id, row.to_vec())).collect();
                assert_eq!(all, model, "seed {seed} step {step}");
                // No row is readable after its removal.
                for id in (0..200u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) {
                    assert_eq!(slab.get(id).is_some(), model.contains_key(&id));
                }
            }
        }
    }
}

#[test]
fn a_freed_slot_is_the_next_one_taken() {
    let mut slab = RecordSlab::new(RowLayout::from_widths([120]));
    for id in 0..100u64 {
        slab.insert(id, &[id, !id]).unwrap();
    }
    let full = slab.heap_bytes();
    for round in 0..50u64 {
        for id in 0..100u64 {
            let slot = slab.slot(id + 100 * round).unwrap();
            assert!(slab.remove(id + 100 * round));
            assert_eq!(slab.get(id + 100 * round), None);
            assert_eq!(
                slab.insert(id + 100 * (round + 1), &[round, id]).unwrap(),
                slot
            );
        }
    }
    assert_eq!(slab.len(), 100);
    assert_eq!(slab.get(5_042), Some(&[49, 42][..]));
    // 5 000 inserts later the rows are the first hundred's (the id map may
    // have rehashed one size up under the churn; 5 000 rows would be 80 KB).
    assert!(
        slab.heap_bytes() <= 2 * full,
        "{} B after, {full} B before",
        slab.heap_bytes()
    );
}

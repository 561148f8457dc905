//! Indexing an id that is already indexed replaces the record, and a
//! deleted id indexed again is a new record.
//!
//! The blocking tables must then hold the id once per table, under the new
//! record's keys: the old entries leave their buckets, entries whose key did
//! not change are not pushed twice, and `indexed_len` counts stored records.
//! Held on the heap store and on the mmap store, whose old entries may sit
//! in a sealed generation file and leave through a bucket override. A table
//! holds the record's slot in its slab, not its id, so the tests read
//! buckets through the slab.

mod common;

use common::fresh_dir;
use rand::rngs::StdRng;
use rand::SeedableRng;
use record_linkage::cbv_hb::blocking::BlockingStructure;
use record_linkage::cbv_hb::matcher::RecordSlab;
use record_linkage::prelude::*;
use record_linkage::textdist::Alphabet;
use std::path::Path;

fn rule() -> Rule {
    Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)])
}

/// Record-level HB with 30-bit keys over a 128-bit record: two different
/// records share a table's key with probability 2⁻³⁰.
fn config(dir: Option<&Path>) -> LinkageConfig {
    let mut config = LinkageConfig::record_level(rule(), 4, 30);
    if let Some(dir) = dir {
        config.block.kind = BlockStoreKind::Mmap;
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

/// Every `(table, key)` whose bucket holds record `id`'s slot in `slab`,
/// once per occurrence.
fn entries_of(structure: &BlockingStructure, slab: &RecordSlab, id: u64) -> Vec<(usize, u128)> {
    let slot = u64::from(slab.slot(id).expect("an indexed id has a slot"));
    let mut found = Vec::new();
    structure.for_each_entry(|table, key, slots| {
        found.extend(slots.iter().filter(|&&x| x == slot).map(|_| (table, key)));
    });
    found.sort_unstable();
    found
}

/// The `(table, key)`s `record` hashes to.
fn keys_of(
    schema: &RecordSchema,
    structure: &BlockingStructure,
    record: &Record,
) -> Vec<(usize, u128)> {
    let mut keys = Vec::new();
    structure.keys_into(&schema.embed(record).unwrap(), &mut keys);
    keys.into_iter().enumerate().collect()
}

/// `seal`: compact after every index call, so that (on the mmap store) the
/// entries a re-index must remove are in a generation file, not the delta.
fn reindexing_replaces(dir: Option<&Path>, seal: bool) {
    let mut rng = StdRng::seed_from_u64(24);
    let schema = schema(&mut rng);
    let mut p = LinkagePipeline::new(schema.clone(), config(dir), &mut rng).unwrap();
    let l = p.plan().structures()[0].l();
    assert!(l >= 3, "L = {l}");
    let old = Record::new(1, ["JOHN", "SMITH"]);
    let new = Record::new(1, ["AGNES", "WINTERBOTTOM"]);
    for (call, record) in [&old, &old, &new].into_iter().enumerate() {
        p.index(std::slice::from_ref(record)).unwrap();
        if seal {
            p.compact_blocking().unwrap();
        }
        assert_eq!(p.indexed_len(), 1, "after call {call}");
        let structure = &p.plan().structures()[0];
        assert_eq!(structure.stats().entries, l, "after call {call}");
        assert_eq!(
            entries_of(structure, p.store(), 1),
            keys_of(&schema, structure, record),
            "after call {call}: once per table, under the last record's keys"
        );
    }
    // The old value formulates nothing; the new value finds the record.
    let by_old = p.link(&[Record::new(9, ["JOHN", "SMITH"])]).unwrap();
    assert_eq!(by_old.stats.candidates, 0);
    assert!(by_old.matches.is_empty());
    let by_new = p
        .link(&[Record::new(9, ["AGNES", "WINTERBOTTOM"])])
        .unwrap();
    assert_eq!(by_new.matches, vec![(1, 9)]);

    // One of 64 twins changes: 1/64 of its bucket, and the id must leave
    // it by itself.
    let twins: Vec<Record> = (100..164)
        .map(|id| Record::new(id, ["MARY", "JONES"]))
        .collect();
    p.index(&twins).unwrap();
    if seal {
        p.compact_blocking().unwrap();
    }
    let moved = Record::new(100, ["HORACE", "FITZWILLIAM"]);
    p.index(std::slice::from_ref(&moved)).unwrap();
    assert_eq!(p.indexed_len(), 65);
    let structure = &p.plan().structures()[0];
    let stats = structure.stats();
    assert_eq!(stats.entries, l * 65);
    assert_eq!(
        entries_of(structure, p.store(), 100),
        keys_of(&schema, structure, &moved)
    );
    let twin = schema.embed(&twins[1]).unwrap();
    for table in 0..l {
        let bucket: Vec<u64> = (structure.bucket(&twin, table).into_iter())
            .map(|slot| p.store().id_at(slot))
            .collect();
        assert_eq!(bucket, (101..164).collect::<Vec<u64>>(), "table {table}");
    }
    let by_twin = p.link(&[Record::new(9, ["MARY", "JONES"])]).unwrap();
    assert_eq!(by_twin.stats.candidates, 63);
    assert_eq!(by_twin.matches.len(), 63);
}

#[test]
fn reindexing_replaces_on_the_memory_store() {
    reindexing_replaces(None, false);
}

#[test]
fn reindexing_replaces_on_the_mmap_store() {
    let dir = fresh_dir("reindex-delta");
    reindexing_replaces(Some(&dir), false);
    let _ = std::fs::remove_dir_all(&dir);
    let dir = fresh_dir("reindex-sealed");
    reindexing_replaces(Some(&dir), true);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reindexing_replaces_across_shards_and_counts_stored_records() {
    let mut rng = StdRng::seed_from_u64(25);
    let schema = schema(&mut rng);
    let mut p = ShardedPipeline::new(schema, config(None), 2, &mut rng).unwrap();
    let l = p.blocking_stats()[0].l;
    for fields in [
        ["JOHN", "SMITH"],
        ["JOHN", "SMITH"],
        ["AGNES", "WINTERBOTTOM"],
    ] {
        p.index(&[Record::new(1, fields)]).unwrap();
        assert_eq!(p.indexed_len(), 1);
        assert_eq!(p.shard_record_counts().iter().sum::<usize>(), 1);
        assert_eq!(p.blocking_stats()[0].entries, l);
    }
    let (pairs, stats) = p.link(&[Record::new(9, ["JOHN", "SMITH"])]).unwrap();
    assert!(pairs.is_empty());
    assert_eq!(stats.candidates, 0);
    let (pairs, _) = p
        .link(&[Record::new(9, ["AGNES", "WINTERBOTTOM"])])
        .unwrap();
    assert_eq!(pairs, vec![(1, 9)]);
    assert_eq!(p.delete(&[1]).unwrap(), 1);
    assert_eq!(p.indexed_len(), 0);
}

/// Every `(table, key)` whose bucket holds `id`, over all shards.
fn shard_entries_of(p: &ShardedPipeline, id: u64) -> Vec<(usize, u128)> {
    let state = p.export_state().unwrap();
    let shards = state.shards.iter();
    let mut found: Vec<_> = shards
        .filter(|s| s.store.slot(id).is_some())
        .flat_map(|s| entries_of(&s.plan.structures()[0], &s.store, id))
        .collect();
    found.sort_unstable();
    found
}

/// A deleted id indexed again under another record brings none of its old
/// entries back. One of 64 twins is deleted: 1/64 of each of its buckets,
/// far under the 0.3 dead ratio at which a tombstoned bucket used to be
/// scrubbed. So a tombstone would still be hiding the old entries when the
/// id returns, and the re-insert would lift it.
fn deleted_then_indexed_again(dir: Option<&Path>, shards: usize, seal: bool) {
    let mut rng = StdRng::seed_from_u64(26);
    let schema = schema(&mut rng);
    let mut p = ShardedPipeline::new(schema.clone(), config(dir), shards, &mut rng).unwrap();
    let twins: Vec<Record> = (100..164)
        .map(|id| Record::new(id, ["MARY", "JONES"]))
        .collect();
    p.index(&twins).unwrap();
    if seal {
        p.compact_stores().unwrap();
    }
    assert_eq!(p.delete(&[100]).unwrap(), 1);
    let moved = Record::new(100, ["HORACE", "FITZWILLIAM"]);
    p.index(std::slice::from_ref(&moved)).unwrap();
    assert_eq!(p.indexed_len(), 64);

    let stats = &p.blocking_stats()[0];
    assert_eq!(stats.entries, stats.l * 64);
    let state = p.export_state().unwrap();
    let structure = &state.shards[0].plan.structures()[0];
    assert_eq!(
        shard_entries_of(&p, 100),
        keys_of(&schema, structure, &moved)
    );
    let (pairs, by_twin) = p.link(&[Record::new(9, ["MARY", "JONES"])]).unwrap();
    assert_eq!(by_twin.candidates, 63, "the deleted entries came back");
    assert_eq!(pairs.len(), 63);
}

#[test]
fn a_deleted_id_indexed_again_brings_nothing_back_on_the_memory_store() {
    deleted_then_indexed_again(None, 1, false);
}

#[test]
fn a_deleted_id_indexed_again_brings_nothing_back_on_the_mmap_store() {
    let dir = fresh_dir("revive-delta");
    deleted_then_indexed_again(Some(&dir), 1, false);
    let _ = std::fs::remove_dir_all(&dir);
    let dir = fresh_dir("revive-sealed");
    deleted_then_indexed_again(Some(&dir), 1, true);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_deleted_id_indexed_again_brings_nothing_back_across_shards() {
    deleted_then_indexed_again(None, 2, false);
}

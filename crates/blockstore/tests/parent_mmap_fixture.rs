//! An [`MmapStore`] document written by the commit before the compact
//! tables (`tests/fixtures/mmap-parent.json` beside its sealed
//! `mmap-parent/gen-1.blk`, made there with [`build`] below, when the delta
//! overlay was a `HashMap<u128, Vec<u64>>` per table; only its `dir` was
//! rewritten, to a path relative to this package) against this build:
//!
//! * it loads, and every bucket answers exactly as it did there;
//! * its tombstones (`dead`) are applied once, at load: the one sealed
//!   bucket that held a listed id is overridden by the delta without it, and
//!   the document this build writes is the parent's without `dead`, plus
//!   that override;
//! * the same history replayed here — deletes are evictions now — writes
//!   that document too, except that the revived id stays out of the bucket
//!   it was deleted from. So the delta is still the map of id lists it was,
//!   whatever holds it in memory.
//!
//! A store holds `u64` values and does not know what they name. In the
//! parent they were client ids; now the engine stores slab slots, and the
//! generation file keeps its format (`u64` postings, which carry slots). A
//! version 3 snapshot's store loads as it is, and its owner — whose slab
//! has no slot order — re-keys it: the store is cleared, every record
//! inserted under its slot, ascending, and the result sealed as the next
//! generation (`cbv_hb::matcher::rekey`). The second test drives that path
//! over this fixture: read back in id space the re-keyed store answers, and
//! hashes, as the parent did, and its version 4 document keeps every
//! slot.
//!
//! The history leaves every part of the manifest non-trivial: a sealed
//! generation, delta buckets of one id and of several (on keys the base has
//! and on new ones), a base bucket overridden by the delta (`overridden`),
//! and on the parent, tombstones below its scrub ratio and a revived id.

use std::path::{Path, PathBuf};

use rl_blockstore::{BlockPolicy, BlockStorage, MmapStore};
use serde_json::Value;

const A: u128 = 3;
const B: u128 = (5 << 64) | 1;
const C: u128 = u128::MAX - 2;
const D: u128 = 77 << 100;
const K: u128 = 9;
const K2: u128 = 1 << 127;

fn policy() -> BlockPolicy {
    BlockPolicy::default()
}

fn build(dir: &Path) -> MmapStore {
    let p = policy();
    let mut s = MmapStore::new(dir.to_path_buf(), 2);
    for id in 0..18u64 {
        s.insert(0, [A, B, C][id as usize % 3], id, &p);
    }
    for id in 100..106u64 {
        s.insert(1, K, id, &p);
    }
    s.compact(&p).unwrap();
    // Delta: four more ids under a base key, new keys, one id and several.
    for id in 200..204u64 {
        s.insert(0, A, id, &p);
    }
    s.insert(0, D, 300, &p);
    s.insert(1, K, 301, &p);
    s.insert(1, K2, 302, &p);
    s.insert(1, K2, 303, &p);
    // The parent tombstoned these under its scrub ratio (2 of 6)...
    s.evict(0, B, 1);
    s.evict(0, B, 4);
    // ...and revived one of them under another key, which brought it back
    // into B as well.
    s.insert(0, D, 4, &p);
    // There, 4 dead of 7 crossed the ratio: K was scrubbed into the delta.
    for id in 100..104u64 {
        s.evict(1, K, id);
    }
    s
}

/// What the parent answered, bucket by bucket.
const ANSWERS: [(usize, u128, &[u64]); 8] = [
    (0, A, &[0, 3, 6, 9, 12, 15, 200, 201, 202, 203]),
    (0, B, &[4, 7, 10, 13, 16]),
    (0, C, &[2, 5, 8, 11, 14, 17]),
    (0, D, &[300, 4]),
    (1, K, &[104, 105, 301]),
    (1, K2, &[302, 303]),
    (1, A, &[]),
    (0, K, &[]),
];

/// What the same history answers here: the revived id is not in `B`.
const B_WITHOUT_THE_REVIVED_ID: &[u64] = &[7, 10, 13, 16];

fn assert_answers(store: &MmapStore, who: &str, b: &[u64]) {
    for (table, key, ids) in ANSWERS {
        let ids = if (table, key) == (0, B) { b } else { ids };
        let mut out = Vec::new();
        store.probe_into(table, key, &mut out);
        assert_eq!(out, ids, "{who}: table {table} key {key}");
        assert_eq!(store.bucket_len(table, key), ids.len(), "{who}");
    }
}

fn fixtures() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// The document with its `dir` pointed at `dir` (the fixture names the
/// directory relative to this package).
fn rehomed(mut doc: Value, dir: &Path) -> Value {
    let Value::Object(fields) = &mut doc else {
        panic!("an mmap manifest is an object");
    };
    let field = fields.iter_mut().find(|(k, _)| k == "dir").unwrap();
    field.1 = Value::String(dir.to_string_lossy().into_owned());
    doc
}

/// The parent's document without its tombstones, and with table 0's bucket
/// `B` overridden by the delta's `ids` (delta keys sort as strings).
fn overridden_b(mut doc: Value, ids: &[u64]) -> Value {
    let Value::Object(fields) = &mut doc else {
        panic!("an mmap manifest is an object");
    };
    fields.retain(|(k, _)| k != "dead");
    let parse = |text: String| serde_json::value_from_str(&text).unwrap();
    for (name, part) in fields.iter_mut() {
        let Value::Array(tables) = part else { continue };
        match (name.as_str(), &mut tables[0]) {
            ("delta", Value::Object(buckets)) => {
                buckets.push((B.to_string(), parse(format!("{ids:?}"))));
                buckets.sort_by(|a, b| a.0.cmp(&b.0));
            }
            ("overridden", keys) => *keys = parse(format!("[{B}]")),
            _ => {}
        }
    }
    doc
}

/// Through text, as a snapshot goes, so that integer widths compare equal.
fn document(store: &MmapStore) -> Value {
    serde_json::value_from_str(&serde_json::to_string(store).unwrap()).unwrap()
}

#[test]
fn mmap_manifest_of_the_parent_loads_probes_and_rewrites_identically() {
    let dir = fixtures().join("mmap-parent");
    let text = std::fs::read_to_string(fixtures().join("mmap-parent.json")).unwrap();
    let theirs = rehomed(serde_json::value_from_str(&text).unwrap(), &dir);
    for part in ["delta", "overridden", "dead"] {
        let filled = theirs.get(part).and_then(Value::as_array).unwrap().iter();
        let filled = filled.filter(|v| match v {
            Value::Array(ids) => !ids.is_empty(),
            Value::Object(buckets) => !buckets.is_empty(),
            _ => true,
        });
        assert!(filled.count() > 0, "the fixture's {part} is empty");
    }

    let restored: MmapStore = serde_json::from_value(theirs.clone()).unwrap();
    assert!(!restored.needs_rebuild());
    assert_eq!(restored.generation(), 1);
    let (_, _, parent_b) = ANSWERS[1];
    assert_answers(&restored, "restored", parent_b);
    assert_eq!(document(&restored), overridden_b(theirs.clone(), parent_b));

    let scratch = std::env::temp_dir().join(format!("rl-bs-parent-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let fresh = build(&scratch);
    assert_answers(&fresh, "rebuilt", B_WITHOUT_THE_REVIVED_ID);
    assert_eq!(
        rehomed(document(&fresh), &dir),
        overridden_b(theirs.clone(), B_WITHOUT_THE_REVIVED_ID)
    );
    assert_eq!(
        std::fs::read(scratch.join("gen-1.blk")).unwrap(),
        std::fs::read(dir.join("gen-1.blk")).unwrap(),
        "the sealed generation differs from the parent's"
    );

    // A restored store goes on: it takes an insert into a restored delta
    // bucket and seals (over the identical generation `fresh` just wrote).
    let p = policy();
    let mut moved: MmapStore = serde_json::from_value(rehomed(theirs, &scratch)).unwrap();
    assert!(moved.insert(0, A, 204, &p));
    moved.compact(&p).unwrap();
    let mut out = Vec::new();
    moved.probe_into(0, A, &mut out);
    assert_eq!(out, [0, 3, 6, 9, 12, 15, 200, 201, 202, 203, 204]);
    let _ = std::fs::remove_dir_all(&scratch);
}

/// The parent's answers as `(table, key, id)`, sorted, hashed as the
/// benchmark hashes a match relation.
fn answers_hash(entries: &[(usize, u128, u64)]) -> u64 {
    entries
        .iter()
        .map(|&(t, key, id)| {
            let mut z = id.rotate_left(32) ^ (key as u64) ^ ((key >> 64) as u64) ^ t as u64;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .fold(0u64, u64::wrapping_add)
}

fn entries(store: &MmapStore) -> Vec<(usize, u128, u64)> {
    let mut out = Vec::new();
    store.for_each_entry(&mut |t, key, values| {
        out.extend(values.iter().map(|&v| (t, key, v)));
    });
    out.sort_unstable();
    out
}

#[test]
fn a_parent_store_re_keyed_to_slots_answers_as_the_parent_did() {
    let text = std::fs::read_to_string(fixtures().join("mmap-parent.json")).unwrap();
    let scratch = std::env::temp_dir().join(format!("rl-bs-rekey-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    std::fs::copy(
        fixtures().join("mmap-parent/gen-1.blk"),
        scratch.join("gen-1.blk"),
    )
    .unwrap();
    let doc = rehomed(serde_json::value_from_str(&text).unwrap(), &scratch);
    let mut store: MmapStore = serde_json::from_value(doc).unwrap();
    let parent = entries(&store);
    let expected: usize = ANSWERS.iter().map(|(_, _, ids)| ids.len()).sum();
    assert_eq!(parent.len(), expected);

    // The slab's fresh slots: ascending by id, as a document without slot
    // order restores them.
    let mut ids: Vec<u64> = parent.iter().map(|&(_, _, id)| id).collect();
    ids.sort_unstable();
    ids.dedup();
    let slot = |id: u64| ids.binary_search(&id).unwrap() as u64;
    let p = policy();
    store.clear();
    let mut by_slot: Vec<(u64, usize, u128)> = parent
        .iter()
        .map(|&(t, key, id)| (slot(id), t, key))
        .collect();
    by_slot.sort_unstable();
    for (s, t, key) in by_slot {
        assert!(store.insert(t, key, s, &p));
    }
    store.compact(&p).unwrap();
    assert_eq!(store.generation(), 1, "a cleared store seals from 1 again");
    let gen = std::fs::read(scratch.join("gen-1.blk")).unwrap();
    assert_eq!(&gen[gen.len() - 8..], b"RLBSEND!", "the same file format");

    let in_id_space = |store: &MmapStore| -> Vec<(usize, u128, u64)> {
        let mut out: Vec<_> = (entries(store).into_iter())
            .map(|(t, key, s)| (t, key, ids[s as usize]))
            .collect();
        out.sort_unstable();
        out
    };
    assert_eq!(in_id_space(&store), parent);
    assert_eq!(answers_hash(&in_id_space(&store)), answers_hash(&parent));

    // The version 4 document keeps every slot.
    let back: MmapStore = serde_json::from_str(&serde_json::to_string(&store).unwrap()).unwrap();
    assert!(!back.needs_rebuild());
    assert_eq!(entries(&back), entries(&store));
    let _ = std::fs::remove_dir_all(&scratch);
}

//! An [`MmapStore`] document written by the commit before the compact
//! tables (`tests/fixtures/mmap-parent.json` beside its sealed
//! `mmap-parent/gen-1.blk`, made there with [`build`] below, when the delta
//! overlay was a `HashMap<u128, Vec<u64>>` per table; only its `dir` was
//! rewritten, to a path relative to this package) against this build:
//!
//! * it loads, and every bucket answers exactly as it did there;
//! * it re-serialises to the same document, value for value;
//! * the same history replayed here writes that document too — so the delta
//!   is still the map of id lists it was, whatever holds it in memory.
//!
//! The history leaves every part of the manifest non-trivial: a sealed
//! generation, delta buckets of one id and of several (on keys the base has
//! and on new ones), a base bucket scrubbed into the delta (`overridden`),
//! tombstones below the scrub ratio, and a revived id.

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
    BlockPolicy {
        compact_dead_ratio: 0.5,
        ..BlockPolicy::default()
    }
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
    // Tombstones under the ratio stay tombstones (2 of 6)...
    s.remove(0, B, 1, &p);
    s.remove(0, B, 4, &p);
    // ...and one of them is revived under another key.
    s.insert(0, D, 4, &p);
    // 4 dead of 7 crosses the ratio: K is scrubbed into the delta.
    for id in 100..104u64 {
        s.remove(1, K, id, &p);
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

fn assert_answers(store: &MmapStore, who: &str) {
    for (table, key, ids) in ANSWERS {
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
    assert_answers(&restored, "restored");
    assert_eq!(document(&restored), theirs);

    let scratch = std::env::temp_dir().join(format!("rl-bs-parent-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let fresh = build(&scratch);
    assert_answers(&fresh, "rebuilt");
    assert_eq!(rehomed(document(&fresh), &dir), theirs);
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

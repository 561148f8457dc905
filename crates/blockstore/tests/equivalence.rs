//! The load-bearing blockstore property: for any interleaving of
//! inserts, evictions, compactions, clears, document round trips and
//! probes — under any cap policy — a memory and an mmap [`TableSet`]
//! produce **identical id sequences** for every probe. This is what lets a
//! serving pipeline switch `--block-store` without changing match results.
//! After every step both stores hold exactly what a `(table, key) → ids`
//! model holds, so an evicted id leaves nothing behind.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use rl_blockstore::{BlockPolicy, CapMode, TableSet};

fn tmp_dir() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("rl-bs-equiv-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One scripted operation, decoded from a fuzzed `(u8, u64)` pair so the
/// generator stays a plain tuple vector.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert {
        table: usize,
        key: u128,
        id: u64,
    },
    Evict {
        table: usize,
        key: u128,
        id: u64,
    },
    Probe {
        table: usize,
        key: u128,
    },
    Compact,
    /// A document round trip through text, as a snapshot and its restore
    /// do it.
    Reload,
    Clear,
}

const TABLES: usize = 3;
/// Small key/id spaces force collisions, shared buckets, and re-inserts
/// of evicted ids — the interesting paths.
const KEYS: u64 = 8;
const IDS: u64 = 24;

/// Key number `i`: the last two need 65 bits or more, so a table's
/// directory widens at the first insert of one, mid-history, and the
/// document the restored store loads mixes both widths. Their low words are
/// keys 0 and 1, which a key folded into 64 bits would alias.
fn key_of(i: u64) -> u128 {
    let wide = KEYS - 2;
    if i < wide {
        u128::from(i)
    } else {
        1 << 64 | u128::from(i - wide)
    }
}

fn decode(kind: u8, seed: u64) -> Op {
    let table = (seed % TABLES as u64) as usize;
    let key = key_of((seed / 7) % KEYS);
    let id = (seed / 3) % IDS;
    match kind {
        0..=124 => Op::Insert { table, key, id },
        125..=174 => Op::Evict { table, key, id },
        175..=224 => Op::Probe { table, key },
        225..=243 => Op::Compact,
        244..=251 => Op::Reload,
        252..=255 => Op::Clear,
    }
}

/// What the stores must hold: each bucket's ids in insertion order.
type Model = BTreeMap<(usize, u128), Vec<u64>>;

fn contents(store: &TableSet) -> Model {
    let mut held = Model::new();
    store.for_each_entry(|table, key, ids| {
        held.insert((table, key), ids.to_vec());
    });
    held
}

/// `store` written as a document and read back, as a snapshot and its
/// restore do it.
fn reloaded(store: &TableSet) -> TableSet {
    let text = serde_json::to_string(store).unwrap();
    let back: TableSet = serde_json::from_str(&text).unwrap();
    assert!(!back.needs_rebuild());
    assert_eq!(back.kind(), store.kind());
    assert_eq!(serde_json::to_string(&back).unwrap(), text, "a second trip");
    back
}

fn run_equivalence(ops: &[(u8, u64)], policy: BlockPolicy) {
    let dir = tmp_dir();
    let mut mem = TableSet::memory(TABLES);
    let mut disk = TableSet::mmap(dir.clone(), TABLES);
    mem.set_policy(policy);
    disk.set_policy(policy);
    let mut model = Model::new();

    for (step, &(kind, seed)) in ops.iter().enumerate() {
        match decode(kind, seed) {
            Op::Insert { table, key, id } => {
                let a = mem.insert(table, key, id);
                let b = disk.insert(table, key, id);
                assert_eq!(a, b, "insert outcome diverged at step {step}");
                let bucket = model.entry((table, key)).or_default();
                let full = policy.cap_mode == CapMode::Drop
                    && policy.max_block_size > 0
                    && bucket.len() >= policy.max_block_size;
                assert_eq!(a, !full, "insert outcome at step {step}");
                if a {
                    bucket.push(id);
                }
            }
            Op::Evict { table, key, id } => {
                mem.evict(table, key, id);
                disk.evict(table, key, id);
                if let Some(bucket) = model.get_mut(&(table, key)) {
                    bucket.retain(|&x| x != id);
                }
            }
            Op::Probe { table, key } => {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                mem.probe_into(table, key, &mut a);
                disk.probe_into(table, key, &mut b);
                assert_eq!(a, b, "probe diverged at step {step} (t{table} k{key})");
                assert_eq!(
                    mem.bucket_len(table, key),
                    disk.bucket_len(table, key),
                    "bucket_len diverged at step {step}"
                );
            }
            Op::Compact => {
                mem.compact().unwrap();
                disk.compact().unwrap();
            }
            Op::Reload => {
                mem = reloaded(&mem);
                disk = reloaded(&disk);
                assert_eq!(mem.policy(), &policy, "policy at step {step}");
                assert_eq!(disk.policy(), &policy, "policy at step {step}");
            }
            Op::Clear => {
                mem.clear();
                disk.clear();
                model.clear();
                assert_eq!(disk.generation(), 0, "a cleared store at step {step}");
            }
        }
        model.retain(|_, ids| !ids.is_empty());
        assert_eq!(contents(&mem), model, "memory store at step {step}");
        assert_eq!(contents(&disk), model, "mmap store at step {step}");
    }

    // Exhaustive final sweep: every (table, key) bucket, plus aggregate
    // occupancy, must agree.
    for table in 0..TABLES {
        for key in (0..KEYS).map(key_of) {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            mem.probe_into(table, key, &mut a);
            disk.probe_into(table, key, &mut b);
            assert_eq!(a, b, "final sweep diverged (t{table} k{key})");
        }
    }
    let (ms, ds) = (mem.stats(), disk.stats());
    assert_eq!(ms.entries, ds.entries);
    assert_eq!(ms.max_bucket, ds.max_bucket);
    assert_eq!(ms.buckets, ds.buckets);
    assert_eq!(ms.size_histogram, ds.size_histogram);
    assert_eq!(ms.dropped, ds.dropped);

    // Serde round-trip of the disk store must preserve probe results.
    let value = serde::to_value(&disk).unwrap();
    let restored: TableSet = serde::from_value(value).unwrap();
    assert!(!restored.needs_rebuild());
    for table in 0..TABLES {
        for key in (0..KEYS).map(key_of) {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            disk.probe_into(table, key, &mut a);
            restored.probe_into(table, key, &mut b);
            assert_eq!(a, b, "restored store diverged (t{table} k{key})");
        }
    }
    assert_eq!(contents(&restored), model, "restored store");
    let value = serde::to_value(&mem).unwrap();
    let restored: TableSet = serde::from_value(value).unwrap();
    assert_eq!(contents(&restored), model, "restored memory store");

    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stores_agree_default_policy(
        ops in proptest::collection::vec((0u8..=255, 0u64..u64::MAX), 1..200),
    ) {
        run_equivalence(&ops, BlockPolicy::default());
    }

    #[test]
    fn stores_agree_with_drop_cap(
        ops in proptest::collection::vec((0u8..=255, 0u64..u64::MAX), 1..200),
        cap in 1usize..6,
    ) {
        run_equivalence(&ops, BlockPolicy {
            max_block_size: cap,
            cap_mode: CapMode::Drop,
            probe_top_k: 0,
        });
    }

    #[test]
    fn stores_agree_with_chain_cap(
        ops in proptest::collection::vec((0u8..=255, 0u64..u64::MAX), 1..200),
        cap in 1usize..6,
    ) {
        run_equivalence(&ops, BlockPolicy {
            max_block_size: cap,
            cap_mode: CapMode::Chain,
            probe_top_k: 0,
        });
    }
}

//! `TableSet::probe_all_into` reads what `probe_into` reads: over seeded
//! sets and probes, its two passes return exactly the ids of calling
//! `probe_into` key after key — table by table, each table's key and then
//! its multi-probe neighbours, over a key width that differs from table to
//! table — and concatenating them; under a `probe_top_k` of `k`, the first
//! `k` distinct ids of that stream, ascending, and `true` when the stream
//! held more.
//!
//! The sets cover narrow and wide directories (keys past 64 bits widen a
//! table mid-history), singleton and multi-value buckets, and mmap sets
//! with a sealed generation whose buckets evictions moved into the tables
//! (override keys), then took more inserts.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rl_blockstore::{BlockPolicy, ProbeSlots, TableSet};

fn tmp_dir() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("rl-bs-probe-all-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The low bits a key varies in, and so the most a neighbour flips among.
const KEY_BITS: usize = 4;

/// A key of `table`'s key space: `KEY_BITS` low bits, and for a wide
/// table a word above 64 bits as well.
fn key(rng: &mut StdRng, wide: bool) -> u128 {
    let low = rng.random_range(0..1u128 << KEY_BITS);
    if wide {
        1 << 70 | low
    } else {
        low
    }
}

/// A set of `l` tables after a seeded history: inserts into few keys (so
/// most buckets hold several ids, some one), then up to two rounds of a
/// seal — for an mmap set, a sealed generation — evictions, and more
/// inserts.
fn seeded_set(rng: &mut StdRng, l: usize, wide: &[bool], mmap: Option<PathBuf>) -> TableSet {
    let mut set = match mmap {
        Some(dir) => TableSet::mmap(dir, l),
        None => TableSet::memory(l),
    };
    let mut inserted = Vec::new();
    let insert = |set: &mut TableSet, rng: &mut StdRng, inserted: &mut Vec<_>| {
        let n = rng.random_range(0..120);
        for _ in 0..n {
            let table = rng.random_range(0..l);
            let (k, id) = (key(rng, wide[table]), rng.random_range(0..64u64));
            set.insert(table, k, id);
            inserted.push((table, k, id));
        }
    };
    insert(&mut set, rng, &mut inserted);
    for _ in 0..rng.random_range(0..3) {
        set.compact().unwrap();
        for _ in 0..rng.random_range(0..10) {
            if inserted.is_empty() {
                break;
            }
            let (table, k, id) = inserted[rng.random_range(0..inserted.len())];
            set.evict(table, k, id);
        }
        insert(&mut set, rng, &mut inserted);
    }
    set
}

/// The keys a probe of `keys` reads, in order: each table's key, then its
/// neighbours within `flips` flips of its low `bits[t]` bits, depth first.
fn probe_order(keys: &[u128], flips: u32, bits: &[usize]) -> Vec<(usize, u128)> {
    fn neighbours(
        t: usize,
        key: u128,
        bits: usize,
        budget: u32,
        from: usize,
        out: &mut Vec<(usize, u128)>,
    ) {
        if budget == 0 {
            return;
        }
        for i in from..bits {
            let flipped = key ^ (1 << i);
            out.push((t, flipped));
            neighbours(t, flipped, bits, budget - 1, i + 1, out);
        }
    }
    let mut out = Vec::new();
    for (t, &key) in keys.iter().enumerate() {
        out.push((t, key));
        neighbours(t, key, bits[t], flips, 0, &mut out);
    }
    out
}

/// What the probe must return: `probe_into` over [`probe_order`],
/// concatenated, and under a top-k bound its first `k` distinct ids,
/// ascending, with whether the stream held more.
fn expected(set: &TableSet, keys: &[u128], flips: u32, bits: &[usize]) -> (Vec<u64>, bool) {
    let mut stream = Vec::new();
    for (t, k) in probe_order(keys, flips, bits) {
        set.probe_into(t, k, &mut stream);
    }
    let top_k = set.policy().probe_top_k;
    if top_k == 0 {
        return (stream, false);
    }
    let mut distinct = Vec::new();
    for id in stream {
        if !distinct.contains(&id) {
            distinct.push(id);
        }
    }
    let truncated = distinct.len() > top_k;
    distinct.truncate(top_k);
    distinct.sort_unstable();
    (distinct, truncated)
}

/// Keys whose sealed bucket an eviction moved into an mmap set's tables,
/// read off its document.
fn override_keys(set: &TableSet) -> usize {
    use serde::value::Value;
    let field = |v: &Value, name: &str| match v {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone()),
        _ => None,
    };
    let doc = serde::to_value(set).unwrap();
    let overridden = field(&doc, "inner")
        .and_then(|inner| field(&inner, "Mmap"))
        .and_then(|mmap| field(&mmap, "overridden"));
    match overridden {
        Some(Value::Array(tables)) => tables
            .iter()
            .map(|keys| match keys {
                Value::Array(keys) => keys.len(),
                _ => 0,
            })
            .sum(),
        _ => 0,
    }
}

/// What one seed's set held, and how its probes went.
struct Reached {
    override_keys: usize,
    wide_tables: usize,
    max_bucket: usize,
    truncated: usize,
}

fn run(seed: u64) -> Reached {
    let mut rng = StdRng::seed_from_u64(seed);
    let l = rng.random_range(1..6);
    let wide: Vec<bool> = (0..l).map(|_| rng.random_range(0..3) == 0).collect();
    let dir = tmp_dir();
    let mmap = rng.random_range(0..2) == 0;
    let mut set = seeded_set(&mut rng, l, &wide, mmap.then(|| dir.clone()));
    set.set_policy(BlockPolicy {
        probe_top_k: [0, 0, 1, 3, 8][rng.random_range(0..5)],
        ..BlockPolicy::default()
    });
    let mut reached = Reached {
        override_keys: override_keys(&set),
        wide_tables: wide.iter().filter(|&&w| w).count(),
        max_bucket: set.stats().max_bucket,
        truncated: 0,
    };
    // One buffer for every probe, as a probing thread keeps it.
    let (mut slots, mut out) = (ProbeSlots::default(), Vec::new());
    for _ in 0..20 {
        let keys: Vec<u128> = wide.iter().map(|&w| key(&mut rng, w)).collect();
        let flips = rng.random_range(0..3);
        // How many low bits each table's neighbours flip: a table's
        // neighbour count differs from the next's.
        let bits: Vec<usize> = (0..l).map(|_| rng.random_range(0..=KEY_BITS)).collect();
        let truncated = set.probe_all_into(&keys, flips, |t| bits[t], &mut slots, &mut out);
        let (ids, cut) = expected(&set, &keys, flips, &bits);
        assert_eq!(
            (&out, truncated),
            (&ids, cut),
            "seed {seed}: keys {keys:?}, {flips} flips of {bits:?} bits, {:?}, mmap {mmap}",
            set.policy()
        );
        reached.truncated += usize::from(truncated);
    }
    let _ = std::fs::remove_dir_all(&dir);
    reached
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn two_passes_read_what_probe_into_reads(seed in 0u64..u64::MAX) {
        run(seed);
    }
}

/// Every kind of set the property promises to cover turns up in its cases:
/// the seeds below are a fixed sample of the same generator.
#[test]
fn the_generator_reaches_overrides_wide_tables_and_cuts() {
    let all: Vec<Reached> = (0..64).map(run).collect();
    assert!(all.iter().any(|r| r.override_keys > 0), "no override key");
    assert!(all.iter().any(|r| r.wide_tables > 0), "no wide table");
    assert!(
        all.iter().any(|r| r.max_bucket > 1),
        "no multi-value bucket"
    );
    assert!(all.iter().any(|r| r.truncated > 0), "no probe cut at top-k");
}

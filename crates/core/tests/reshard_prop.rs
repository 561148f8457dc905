//! Migration-equivalence property: the match relation a sharded pipeline
//! reports must be byte-identical **before**, **during** (the double-probe
//! window, where moved records transiently live on two shards), and
//! **after** an online split — for in-memory and mmap-backed blocking
//! stores alike. CoveringLSH's zero-false-negative guarantee only survives
//! a reshard if the candidate union over source+target never drops (or
//! double-reports) a pair.

use cbv_hb::matcher::Classifier;
use cbv_hb::pipeline::{BlockStoreConfig, LinkageConfig, LinkagePipeline};
use cbv_hb::schema::{AttributeSpec, RecordSchema};
use cbv_hb::sharded::ShardedPipeline;
use cbv_hb::{Record, Rule, StoreKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_reshard::ReshardOp;
use std::path::PathBuf;

fn schema(rng: &mut StdRng) -> RecordSchema {
    RecordSchema::build(
        textdist::Alphabet::linkage(),
        vec![
            AttributeSpec::new("FirstName", 2, 15, false, 5),
            AttributeSpec::new("LastName", 2, 15, false, 5),
        ],
        rng,
    )
}

fn rule() -> Rule {
    Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)])
}

/// Well-spread synthetic name (multiplicative hash) so distinct indices
/// share few bigrams.
fn synth_name(salt: u64, i: u64) -> String {
    let mut x = (i + 1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xA24B_AED4_963E_E407));
    (0..6)
        .map(|_| {
            let c = (b'A' + (x % 26) as u8) as char;
            x /= 26;
            c
        })
        .collect()
}

fn corpus(salt: u64, base: u64, n: u64) -> Vec<Record> {
    (0..n)
        .map(|i| Record::new(base + i, [synth_name(salt, i), synth_name(salt ^ 0xF00, i)]))
        .collect()
}

/// FNV-1a over the sorted match relation: the "match relation hash" of the
/// acceptance criteria. Any gained, lost, or duplicated pair changes it.
fn relation_hash(pairs: &[(u64, u64)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(a, b) in pairs {
        for byte in a.to_le_bytes().into_iter().chain(b.to_le_bytes()) {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

fn mmap_cfg(dir: &std::path::Path) -> BlockStoreConfig {
    BlockStoreConfig {
        kind: StoreKind::Mmap,
        dir: Some(dir.to_string_lossy().into_owned()),
        ..BlockStoreConfig::default()
    }
}

/// Runs one split end to end, asserting relation-hash equality against an
/// unsharded oracle at every copy step. `block_dir` selects mmap stores.
fn split_equivalence_case(
    seed: u64,
    salt: u64,
    n: u64,
    source: usize,
    page: usize,
    block_dir: Option<PathBuf>,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let s = schema(&mut rng);
    let config = LinkageConfig::rule_aware(rule());
    // Compile the plan once so oracle and sharded engine share hash draws
    // — the pair sets are then comparable exactly, not just statistically.
    let single = LinkagePipeline::new(s.clone(), config.clone(), &mut rng).unwrap();
    let mut oracle_plan = single.plan().clone();
    let mut sharded_plan = single.plan().clone();
    drop(single);
    if let Some(dir) = &block_dir {
        let _ = std::fs::remove_dir_all(dir);
        oracle_plan
            .configure_stores(&mmap_cfg(&dir.join("oracle")))
            .unwrap();
        sharded_plan
            .configure_stores(&mmap_cfg(&dir.join("sharded")))
            .unwrap();
    }
    let classifier = Classifier::Rule(config.rule);
    let mut oracle =
        ShardedPipeline::from_parts(s.clone(), oracle_plan, classifier.clone(), 1).unwrap();
    let mut p = ShardedPipeline::from_parts(s, sharded_plan, classifier, 2).unwrap();

    let a = corpus(salt, 0, n);
    p.index(&a).unwrap();
    oracle.index(&a).unwrap();
    let probes = corpus(salt, 10_000, n); // same names → guaranteed matches
    let (oracle_pairs, _) = oracle.link(&probes).unwrap();
    let want = relation_hash(&oracle_pairs);

    let (before, _) = p.link(&probes).unwrap();
    assert_eq!(
        relation_hash(&before),
        want,
        "relation hash differs before split"
    );

    let mut driver = p.begin_reshard(ReshardOp::Split { source }).unwrap();
    loop {
        let done = driver.copy_batch(page).unwrap();
        let (during, _) = p.link(&probes).unwrap();
        assert_eq!(
            relation_hash(&during),
            want,
            "relation hash changed during split (double-probe window)"
        );
        if done {
            break;
        }
    }
    p.finish_reshard(&driver).unwrap();
    let (after, _) = p.link(&probes).unwrap();
    assert_eq!(
        relation_hash(&after),
        want,
        "relation hash changed after cutover"
    );
    assert_eq!(after, oracle_pairs, "pair sets diverged from oracle");

    if let Some(dir) = &block_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]
    #[test]
    fn split_keeps_match_relation_identical_memory(
        salt in 0u64..500,
        n in 6u64..40,
        source in 0usize..2,
        page in 1usize..7,
    ) {
        split_equivalence_case(salt.wrapping_mul(7) ^ n, salt, n, source, page, None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn split_keeps_match_relation_identical_mmap(
        salt in 0u64..500,
        n in 6u64..30,
        source in 0usize..2,
        page in 1usize..5,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "rl-reshard-prop-{}-{salt}-{n}-{source}-{page}",
            std::process::id()
        ));
        split_equivalence_case(salt.wrapping_mul(11) ^ n, salt, n, source, page, Some(dir));
    }
}

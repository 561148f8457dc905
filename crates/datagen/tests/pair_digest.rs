//! `DatasetPair::generate` is the benchmark's input: for a given source,
//! configuration and seed it must produce the same `(a, b, ground_truth)`
//! whatever happens to its internals (the de-duplication set, most
//! recently). The digests below were captured on the commit before the
//! de-duplication stopped cloning records, for the four benchmark
//! workloads' configurations at seed 42.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_datagen::{DatasetPair, NcvrSource, PairConfig, PerturbationScheme};

/// FNV-1a over every record (id, then each field with a terminator) of A,
/// then of B, then the ground-truth pairs in ascending order.
fn digest(pair: &DatasetPair) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for set in [&pair.a, &pair.b] {
        for r in set {
            eat(&r.id.to_le_bytes());
            for f in &r.fields {
                eat(f.as_bytes());
                eat(&[0xff]);
            }
        }
        eat(&[0xfe]);
    }
    let mut truth: Vec<(u64, u64)> = pair.ground_truth.iter().copied().collect();
    truth.sort_unstable();
    for (a, b) in truth {
        eat(&a.to_le_bytes());
        eat(&b.to_le_bytes());
    }
    h
}

fn generate(records: usize, scheme: PerturbationScheme) -> DatasetPair {
    let mut rng = StdRng::seed_from_u64(42);
    let cfg = PairConfig::new(records, scheme).with_duplicates(0.1);
    DatasetPair::generate(&NcvrSource, cfg, &mut rng)
}

#[test]
fn benchmark_pairs_are_byte_identical_to_the_pinned_generation() {
    use PerturbationScheme::{Heavy, Light};
    for (workload, records, scheme, pinned) in [
        ("batch_pl", 100_000, Light, 0x2b47_30d8_b427_d79c_u64),
        ("batch_rule", 8_000, Heavy, 0x387c_74d1_d76e_9253),
        ("batch_covering", 40_000, Light, 0x1466_2d0c_4688_5c1c),
        ("serve_durable", 50_000, Light, 0x0610_1ac7_badf_25a6),
    ] {
        let pair = generate(records, scheme);
        assert_eq!(pair.a.len(), records);
        assert_eq!(pair.b.len(), records);
        assert_eq!(
            digest(&pair),
            pinned,
            "{workload}: got {:#018x}",
            digest(&pair)
        );
    }
}

#[test]
fn no_exact_duplicate_survives_in_a_or_among_the_fillers() {
    // What the de-duplication is for, checked the slow way on a
    // duplicate-heavy configuration.
    let mut rng = StdRng::seed_from_u64(7);
    let cfg = PairConfig::new(3_000, PerturbationScheme::Light).with_duplicates(0.5);
    let pair = DatasetPair::generate(&NcvrSource, cfg, &mut rng);
    let matched: std::collections::HashSet<u64> =
        pair.ground_truth.iter().map(|&(_, b)| b).collect();
    let mut seen = std::collections::HashSet::new();
    for r in pair
        .a
        .iter()
        .chain(pair.b.iter().filter(|r| !matched.contains(&r.id)))
    {
        assert!(seen.insert(&r.fields), "record {} repeats another", r.id);
    }
}

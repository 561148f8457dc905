//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * `dedup_*` — Algorithm 2's unique-id collection on vs off (repeated
//!   distance computations across redundant tables).
//! * `popcount_*` — packed-word XOR+popcount vs a per-bit loop.
//! * `sparsity_*` — blocking over compact c-vectors vs the full `|S|^q`
//!   q-gram vectors whose sparsity over-populates buckets (Section 5.2's
//!   motivation).

use cbv_hb::blocking::BlockingPlan;
use cbv_hb::matcher::{index_row, match_structure_literal, Classifier, MatchStats, RecordSlab};
use cbv_hb::qvector::QGramVectorEmbedder;
use cbv_hb::{AttributeSpec, RecordSchema, Rule};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_bitvec::{naive_hamming, BitVec};
use rl_datagen::{DatasetPair, NcvrSource, PairConfig, PerturbationScheme};
use rl_lsh::{BitSampler, BlockingTable};
use std::hint::black_box;
use textdist::Alphabet;

fn schema(rng: &mut StdRng) -> RecordSchema {
    RecordSchema::build(
        Alphabet::linkage(),
        vec![
            AttributeSpec::new("FirstName", 2, 15, false, 5),
            AttributeSpec::new("LastName", 2, 15, false, 5),
            AttributeSpec::new("Address", 2, 68, false, 10),
            AttributeSpec::new("Town", 2, 22, false, 10),
        ],
        rng,
    )
}

fn pair(n: usize, seed: u64) -> DatasetPair {
    let mut rng = StdRng::seed_from_u64(seed);
    DatasetPair::generate(
        &NcvrSource,
        PairConfig::new(n, PerturbationScheme::Light),
        &mut rng,
    )
}

/// Algorithm 2 with and without the unique-id collection.
fn bench_dedup(c: &mut Criterion) {
    let p = pair(2_000, 1);
    let mut rng = StdRng::seed_from_u64(2);
    let s = schema(&mut rng);
    let rule = Rule::and((0..4).map(|i| Rule::pred(i, 4)));
    let mut plan = BlockingPlan::compile(&s, &rule, 0.01, &mut rng).unwrap();
    let mut store = RecordSlab::new(s.layout());
    let mut rows = Vec::new();
    s.embed_rows(&p.a, &mut rows).unwrap();
    for (id, row) in s.rows_of(&p.a, &rows) {
        index_row(&mut plan, &mut store, id, row);
    }
    s.embed_rows(&p.b[..200], &mut rows).unwrap();
    let probes: Vec<&[u64]> = rows.chunks_exact(s.row_words()).collect();
    let classifier = Classifier::Rule(rule);
    let structure = &plan.structures()[0];
    let mut group = c.benchmark_group("algorithm2_dedup");
    group.bench_function("with_unique_collection", |b| {
        b.iter(|| {
            let mut stats = MatchStats::default();
            for probe in &probes {
                black_box(match_structure_literal(
                    structure,
                    &store,
                    probe,
                    &classifier,
                    true,
                    &mut stats,
                ));
            }
            stats
        })
    });
    group.bench_function("without_unique_collection", |b| {
        b.iter(|| {
            let mut stats = MatchStats::default();
            for probe in &probes {
                black_box(match_structure_literal(
                    structure,
                    &store,
                    probe,
                    &classifier,
                    false,
                    &mut stats,
                ));
            }
            stats
        })
    });
    group.finish();
}

/// Packed popcount kernel vs per-bit reference at the paper's sizes.
fn bench_popcount(c: &mut Criterion) {
    let a = BitVec::from_positions(120, (0..40).map(|i| i * 3));
    let b = BitVec::from_positions(120, (0..40).map(|i| i * 3 + 1));
    let mut group = c.benchmark_group("popcount_kernel");
    group.bench_function("packed", |bench| {
        bench.iter(|| black_box(&a).hamming(black_box(&b)))
    });
    group.bench_function("naive_per_bit", |bench| {
        bench.iter(|| naive_hamming(black_box(&a), black_box(&b)))
    });
    group.finish();
}

/// Sparsity ablation (Section 5.2): bit-sampling LSH over the full q-gram
/// vector space concentrates keys on all-zero samples, over-populating a
/// few buckets; compact c-vectors spread them. We measure the probe cost
/// that over-population causes.
fn bench_sparsity(c: &mut Criterion) {
    let p = pair(2_000, 3);
    let alphabet = Alphabet::linkage();
    let k = 10usize;
    let mut group = c.benchmark_group("sparsity");
    group.sample_size(10);

    // Full q-gram vectors for the last-name attribute.
    let full = QGramVectorEmbedder::new(alphabet.clone(), 2, false);
    let mut rng = StdRng::seed_from_u64(4);
    let sampler_full = BitSampler::random(full.size(), k, &mut rng).unwrap();
    let mut table_full = BlockingTable::new();
    let full_a: Vec<BitVec> = p.a.iter().map(|r| full.embed(r.field(1))).collect();
    for (i, v) in full_a.iter().enumerate() {
        table_full.insert(sampler_full.key(v), i as u64);
    }
    let full_b: Vec<BitVec> =
        p.b.iter()
            .take(200)
            .map(|r| full.embed(r.field(1)))
            .collect();
    group.bench_function("probe_full_qgram_vector", |bench| {
        bench.iter(|| {
            let mut touched = 0usize;
            for v in &full_b {
                touched += table_full.get(sampler_full.key(v)).len();
            }
            black_box(touched)
        })
    });

    // Compact c-vectors for the same attribute.
    let mut rng = StdRng::seed_from_u64(5);
    let compact = cbv_hb::CVectorEmbedder::random(alphabet, 2, 15, false, &mut rng);
    let sampler_compact = BitSampler::random(15, k, &mut rng).unwrap();
    let mut table_compact = BlockingTable::new();
    let compact_a: Vec<BitVec> = p.a.iter().map(|r| compact.embed(r.field(1))).collect();
    for (i, v) in compact_a.iter().enumerate() {
        table_compact.insert(sampler_compact.key(v), i as u64);
    }
    let compact_b: Vec<BitVec> =
        p.b.iter()
            .take(200)
            .map(|r| compact.embed(r.field(1)))
            .collect();
    group.bench_function("probe_compact_cvector", |bench| {
        bench.iter(|| {
            let mut touched = 0usize;
            for v in &compact_b {
                touched += table_compact.get(sampler_compact.key(v)).len();
            }
            black_box(touched)
        })
    });
    group.finish();

    // Print the structural diagnostic once (bucket over-population).
    eprintln!(
        "sparsity diagnostic: full-vector table {} buckets (max {}), compact table {} buckets (max {})",
        table_full.num_buckets(),
        table_full.max_bucket(),
        table_compact.num_buckets(),
        table_compact.max_bucket(),
    );
}

criterion_group!(benches, bench_dedup, bench_popcount, bench_sparsity);
criterion_main!(benches);

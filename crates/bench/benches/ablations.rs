//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * `dedup_*` — Algorithm 2's unique-id collection on vs off (repeated
//!   distance computations across redundant tables).
//! * `popcount_*` — packed-word XOR+popcount vs a per-bit loop.
//! * `sparsity_*` — blocking over compact c-vectors vs the full `|S|^q`
//!   q-gram vectors whose sparsity over-populates buckets (Section 5.2's
//!   motivation).

use cbv_hb::blocking::{BlockingPlan, TableCount};
use cbv_hb::matcher::{index_row, match_structure_literal, Classifier, MatchStats, RecordSlab};
use cbv_hb::qvector::QGramVectorEmbedder;
use cbv_hb::schema::RowLayout;
use cbv_hb::{AttributeSpec, Record, RecordSchema, Rule};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_bitvec::{naive_hamming, BitVec};
use rl_datagen::{DatasetPair, NcvrSource, PairConfig, PerturbationScheme};
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
/// that over-population causes, on one-table plans (`L = 1`, `K = 10`) over
/// the last-name attribute alone.
fn bench_sparsity(c: &mut Criterion) {
    let p = pair(2_000, 3);
    let alphabet = Alphabet::linkage();
    let mut group = c.benchmark_group("sparsity");
    group.sample_size(10);

    // Full q-gram vectors for the last-name attribute.
    let full = QGramVectorEmbedder::new(alphabet.clone(), 2, false);
    let mut rng = StdRng::seed_from_u64(4);
    let (plan_full, probes_full) = last_name_table(&p, full.size(), |v| full.embed(v), &mut rng);
    group.bench_function("probe_full_qgram_vector", |bench| {
        bench.iter(|| black_box(touched(&plan_full, &probes_full)))
    });

    // Compact c-vectors for the same attribute.
    let mut rng = StdRng::seed_from_u64(5);
    let compact = cbv_hb::CVectorEmbedder::random(alphabet, 2, 15, false, &mut rng);
    let (plan_compact, probes_compact) = last_name_table(&p, 15, |v| compact.embed(v), &mut rng);
    group.bench_function("probe_compact_cvector", |bench| {
        bench.iter(|| black_box(touched(&plan_compact, &probes_compact)))
    });
    group.finish();

    // Print the structural diagnostic once (bucket over-population).
    let (full, compact) = (&plan_full.structures()[0], &plan_compact.structures()[0]);
    eprintln!(
        "sparsity diagnostic: full-vector table {} buckets (max {}), compact table {} buckets (max {})",
        full.num_buckets(),
        full.max_bucket(),
        compact.num_buckets(),
        compact.max_bucket(),
    );
}

/// A one-table plan over the last names of `p.a`, embedded by `embed` into
/// `m` bits and indexed under their positions, and the rows of the first
/// 200 last names of `p.b` to probe it with.
fn last_name_table(
    p: &DatasetPair,
    m: usize,
    embed: impl Fn(&str) -> BitVec,
    rng: &mut StdRng,
) -> (BlockingPlan, Vec<Vec<u64>>) {
    let layout = RowLayout::from_widths([m]);
    let mut plan = BlockingPlan::record_level_over(&layout, 0, 10, TableCount::Fixed(1), rng)
        .expect("a one-table plan");
    let rows = |records: &[Record]| {
        let mut rows = Vec::new();
        for r in records {
            layout.push_row(&[embed(r.field(1))], &mut rows).unwrap();
        }
        rows
    };
    let w = layout.words();
    for (pos, row) in rows(&p.a).chunks_exact(w).enumerate() {
        plan.insert_row(pos as u64, row);
    }
    let probes = rows(&p.b[..200])
        .chunks_exact(w)
        .map(<[u64]>::to_vec)
        .collect();
    (plan, probes)
}

/// Bucket entries the probe rows meet in `plan`'s one table.
fn touched(plan: &BlockingPlan, probes: &[Vec<u64>]) -> usize {
    let structure = &plan.structures()[0];
    let (mut keys, mut met) = (Vec::new(), Vec::new());
    for row in probes {
        structure.keys_into_row(row, &mut keys);
        structure.probe_key_into(0, keys[0], &mut met);
    }
    met.len()
}

criterion_group!(benches, bench_dedup, bench_popcount, bench_sparsity);
criterion_main!(benches);

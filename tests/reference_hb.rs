//! The record-level Hamming blocking that the PPRL linkage unit and BfH ran
//! before they linked through the engine, kept as the oracle they are held
//! to: `L` samplers drawn one after the other, keys by `key_concat` over the
//! attribute vectors, one `HashMap<u128, Vec<u64>>` of record positions per
//! table, a `HashSet` of candidates per probe, and each attribute's
//! `BitVec::hamming` against its threshold. On seeded NCVR pairs the engine
//! path must give the same match set, the same counters and the same `L`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use record_linkage::baselines::bloom::BloomEncoder;
use record_linkage::baselines::{BfhLinker, Linker};
use record_linkage::bitvec::BitVec;
use record_linkage::cbv_hb::matcher::MatchStats;
use record_linkage::cbv_hb::schema::RowLayout;
use record_linkage::cbv_hb::Record;
use record_linkage::datagen::{DatasetPair, NcvrSource, PairConfig, PerturbationScheme};
use record_linkage::lsh::params::{base_success_probability, optimal_l};
use record_linkage::lsh::BitSampler;
use record_linkage::pprl::keyed::KeyedAttribute;
use record_linkage::pprl::{DataCustodian, EncodedDataset, KeyedEmbedder, LinkageUnit, SecretKey};
use record_linkage::textdist::Alphabet;
use std::collections::{HashMap, HashSet};

/// A record as the oracle takes it: an id and its attribute vectors.
type Encoded = (u64, Vec<BitVec>);

/// What the oracle answers.
struct Reference {
    /// Matched `(id_A, id_B)` pairs, sorted.
    matches: Vec<(u64, u64)>,
    stats: MatchStats,
    l: usize,
}

/// Record-level HB as the deleted path ran it. `rng` must be where the
/// linker under test draws its samplers from.
fn reference_hb(
    a: &[Encoded],
    b: &[Encoded],
    thetas: &[u32],
    (block_theta, k, delta): (u32, u32, f64),
    rng: &mut StdRng,
) -> Reference {
    let m_bar: usize = a[0].1.iter().map(BitVec::len).sum();
    let p = base_success_probability(block_theta.min(m_bar as u32), m_bar);
    let l = optimal_l(p.powi(k as i32).max(1e-12), delta);
    let samplers: Vec<BitSampler> = (0..l)
        .map(|_| BitSampler::random(m_bar, k as usize, rng).unwrap())
        .collect();
    let mut tables: Vec<HashMap<u128, Vec<u64>>> = vec![HashMap::new(); l];
    for (pos, (_, attrs)) in a.iter().enumerate() {
        let refs: Vec<&BitVec> = attrs.iter().collect();
        for (s, t) in samplers.iter().zip(&mut tables) {
            t.entry(s.key_concat(&refs)).or_default().push(pos as u64);
        }
    }
    let (mut matches, mut stats) = (Vec::new(), MatchStats::default());
    for (id_b, attrs_b) in b {
        let refs: Vec<&BitVec> = attrs_b.iter().collect();
        let mut seen: HashSet<u64> = HashSet::new();
        for (s, t) in samplers.iter().zip(&tables) {
            seen.extend(t.get(&s.key_concat(&refs)).into_iter().flatten());
        }
        stats.candidates += seen.len() as u64;
        for pos in seen {
            let (id_a, attrs_a) = &a[pos as usize];
            stats.distance_computations += 1;
            let within = attrs_a.iter().zip(attrs_b).zip(thetas);
            if within
                .into_iter()
                .all(|((x, y), &theta)| x.hamming(y) <= theta)
            {
                matches.push((*id_a, *id_b));
                stats.matched += 1;
            }
        }
    }
    matches.sort_unstable();
    Reference { matches, stats, l }
}

/// A seeded NCVR pair whose A ends with a second record under the id of a
/// truly matched one: an id that repeats is two records, each matched on
/// its own.
fn ncvr(n: usize, seed: u64) -> DatasetPair {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pair = DatasetPair::generate(
        &NcvrSource,
        PairConfig::new(n, PerturbationScheme::Light),
        &mut rng,
    );
    let twin = pair.ground_truth.iter().map(|&(a, _)| a).min().unwrap();
    let twin = pair.a.iter().find(|r| r.id == twin).unwrap().clone();
    pair.a.push(twin);
    pair
}

fn sorted(mut pairs: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    pairs.sort_unstable();
    pairs
}

#[test]
fn the_linkage_unit_links_as_the_reference_did() {
    for seed in [1, 2] {
        let pair = ncvr(600, seed);
        let attrs = [15, 15, 68, 22].map(|m| KeyedAttribute {
            m,
            q: 2,
            padded: false,
        });
        let custodian = |name: &str| {
            let key = SecretKey::from_words([seed, 1, 2, 3]);
            let mut rng = StdRng::seed_from_u64(seed);
            let embedder = KeyedEmbedder::new(key, Alphabet::linkage(), attrs.to_vec(), &mut rng);
            DataCustodian::new(name, embedder)
        };
        let a = custodian("alice").encode(&pair.a);
        let b = custodian("bob").encode(&pair.b);
        let charlie = LinkageUnit::with_thetas(vec![4, 4, 8, 4]);
        let (matches, stats) = charlie
            .link(&a, &b, &mut StdRng::seed_from_u64(seed))
            .unwrap();

        let encoded = |d: &EncodedDataset| -> Vec<Encoded> {
            d.records.iter().map(|r| (r.id, r.attrs.clone())).collect()
        };
        let reference = reference_hb(
            &encoded(&a),
            &encoded(&b),
            &charlie.thetas,
            (charlie.block_theta, charlie.k, charlie.delta),
            &mut StdRng::seed_from_u64(seed),
        );
        assert!(reference.matches.len() > 200, "{}", reference.matches.len());
        assert!(
            reference.matches.windows(2).any(|w| w[0] == w[1]),
            "the repeated id matched twice"
        );
        assert_eq!(sorted(matches), reference.matches);
        assert_eq!(stats, reference.stats);
        let layout = RowLayout::from_widths(attrs.map(|a| a.m));
        let plan = charlie.plan(&layout, &mut StdRng::seed_from_u64(seed));
        assert_eq!(plan.unwrap().total_tables(), reference.l);
    }
}

#[test]
fn bfh_links_as_the_reference_did() {
    let pair = ncvr(300, 3);
    for preset in [BfhLinker::paper_pl(4, 3), BfhLinker::paper_ph(4, 3)] {
        // The draws `link` makes: one encoder per field, then the samplers.
        let mut rng = StdRng::seed_from_u64(preset.seed);
        let encoders: Vec<BloomEncoder> = (0..4)
            .map(|_| {
                let (bits, hashes) = (preset.field_bits, preset.num_hashes);
                BloomEncoder::random(Alphabet::linkage(), 2, bits, hashes, &mut rng)
            })
            .collect();
        let encoded = |records: &[Record]| -> Vec<Encoded> {
            let filters = |r: &Record| -> Vec<BitVec> {
                encoders
                    .iter()
                    .zip(&r.fields)
                    .map(|(e, v)| e.encode(v))
                    .collect()
            };
            records.iter().map(|r| (r.id, filters(r))).collect()
        };
        let reference = reference_hb(
            &encoded(&pair.a),
            &encoded(&pair.b),
            &preset.thetas,
            (preset.block_theta, preset.k, preset.delta),
            &mut rng,
        );
        let out = preset.clone().link(&pair.a, &pair.b);
        assert!(reference.matches.len() > 100, "{}", reference.matches.len());
        assert!(
            reference.matches.windows(2).any(|w| w[0] == w[1]),
            "the repeated id matched twice"
        );
        assert_eq!(out.candidates, reference.stats.candidates);
        assert_eq!(out.matches.len() as u64, reference.stats.matched);
        assert_eq!(sorted(out.matches), reference.matches);
        // A BfH outcome counts no distances: each candidate is classified
        // once, on both paths.
        assert_eq!(
            reference.stats.distance_computations,
            reference.stats.candidates
        );
        assert_eq!(preset.plan(&mut rng).total_tables(), reference.l);
    }
}

//! Property tests for the two blocking backends' recall contracts:
//!
//! - **Covering** (Pagh's CoveringLSH): every pair at Hamming distance
//!   ≤ θ_H shares at least one blocking key — *always*, for any random
//!   label assignment. Zero false negatives, no δ budget.
//! - **Random sampling** (Definition 3 + Equation 2): a pair at distance
//!   ≤ θ_H is co-blocked with probability ≥ 1 − δ; the empirical recall
//!   over many sampled families must sit within tolerance of that bound.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use record_linkage::bitvec::BitVec;
use record_linkage::cbv_hb::blocking::BlockingPlan;
use record_linkage::cbv_hb::AttributeSpec;
use record_linkage::lsh::params::{base_success_probability, optimal_l};
use record_linkage::lsh::{BitSampleFamily, CoveringFamily};
use record_linkage::prelude::*;

fn flip(v: &mut BitVec, i: usize) {
    if v.get(i) {
        v.clear(i);
    } else {
        v.set(i);
    }
}

/// A random vector plus a copy with at most `theta` flipped bits.
fn pair_within(m: usize, theta: u32, rng: &mut StdRng) -> (BitVec, BitVec) {
    let mut x = BitVec::zeros(m);
    for i in 0..m {
        if rng.random_range(0..2u32) == 1 {
            x.set(i);
        }
    }
    let mut y = x.clone();
    let flips = rng.random_range(0..=theta) as usize;
    let mut flipped = std::collections::HashSet::new();
    while flipped.len() < flips.min(m) {
        let i = rng.random_range(0..m);
        if flipped.insert(i) {
            flip(&mut y, i);
        }
    }
    (x, y)
}

proptest! {
    /// The covering guarantee, over random geometry: any m, any θ, any
    /// label assignment, any pair within θ — at least one group key
    /// collides. This is satellite-level insurance on top of the module's
    /// unit tests: the property is deterministic, so a single failure
    /// would falsify the GF(2) construction outright.
    #[test]
    fn covering_never_misses_a_pair_within_theta(
        m in 16usize..220,
        theta in 0u32..6,
        seed in 0u64..400,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let family = CoveringFamily::random(m, theta, &mut rng).unwrap();
        let (x, y) = pair_within(m, theta, &mut rng);
        prop_assert!(x.hamming(&y) <= theta);
        let shared = family.groups().iter().any(|g| g.key(&x) == g.key(&y));
        prop_assert!(
            shared,
            "pair at distance {} ≤ θ = {theta} shares no key (m = {m}, seed {seed})",
            x.hamming(&y)
        );
    }

    /// Equation 2's recall bound for the random-sampling backend: with
    /// L = ⌈ln δ / ln(1 − p^K)⌉ tables, pairs at distance exactly θ are
    /// co-blocked at a rate within statistical tolerance of 1 − δ. Each
    /// proptest case draws a fresh family and 300 worst-case pairs; the
    /// empirical recall over them concentrates well above 1 − δ − 0.1.
    #[test]
    fn random_sampling_recall_matches_the_delta_bound(seed in 0u64..12) {
        let (m, theta, k, delta) = (120usize, 4u32, 25usize, 0.1f64);
        let p = base_success_probability(theta, m);
        let l = optimal_l(p.powi(k as i32), delta);
        let mut rng = StdRng::seed_from_u64(seed);
        let family = BitSampleFamily::random(m, k, l, &mut rng).unwrap();
        let trials = 300u32;
        let mut hit = 0u32;
        for _ in 0..trials {
            // Worst case for the bound: distance exactly θ.
            let (x, mut y) = pair_within(m, 0, &mut rng);
            let mut flipped = std::collections::HashSet::new();
            while flipped.len() < theta as usize {
                let i = rng.random_range(0..m);
                if flipped.insert(i) {
                    flip(&mut y, i);
                }
            }
            if family.samplers().iter().any(|s| s.key(&x) == s.key(&y)) {
                hit += 1;
            }
        }
        let recall = f64::from(hit) / f64::from(trials);
        prop_assert!(
            recall >= 1.0 - delta - 0.1,
            "empirical recall {recall} far below the 1 − δ = {} bound (L = {l})",
            1.0 - delta
        );
    }
}

/// The same zero-false-negative property at the plan level: a record-level
/// covering plan co-blocks every embedded pair within θ — the contract the
/// serving path relies on.
#[test]
fn covering_plan_co_blocks_all_embedded_pairs_within_theta() {
    let mut rng = StdRng::seed_from_u64(11);
    let schema = RecordSchema::build(
        Alphabet::linkage(),
        vec![
            AttributeSpec::new("FirstName", 2, 32, false, 5),
            AttributeSpec::new("LastName", 2, 32, false, 5),
        ],
        &mut rng,
    );
    let theta = 4u32;
    let config = LinkageConfig::covering(Rule::pred(0, theta), theta);
    let mut plan = BlockingPlan::from_config(&schema, &config, &mut rng).unwrap();
    let names = [
        ("JOHN", "SMITH"),
        ("JON", "SMITH"),
        ("JOHN", "SMYTH"),
        ("MARY", "JONES"),
        ("MARIE", "JONES"),
        ("AGNES", "WINTERBOTTOM"),
    ];
    let embedded: Vec<_> = names
        .iter()
        .enumerate()
        .map(|(i, (f, l))| schema.embed(&Record::new(i as u64, [*f, *l])).unwrap())
        .collect();
    for rec in &embedded {
        plan.insert(rec);
    }
    let lookup = |id| embedded.iter().find(|r| r.id == id);
    for probe in &embedded {
        let (cands, _) = plan.candidates_verified_counted(probe, lookup);
        for other in &embedded {
            if probe.total_distance(other) <= theta {
                assert!(
                    cands.contains(&other.id),
                    "pair ({}, {}) within θ not co-blocked",
                    probe.id,
                    other.id
                );
            }
        }
    }
}

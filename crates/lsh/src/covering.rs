//! CoveringLSH — Hamming blocking with **zero false negatives**.
//!
//! Bit-sampling (Definition 3) finds a pair within radius `θ_H` only with
//! probability `1 − δ`; Pagh's CoveringLSH replaces the independent random
//! samplers with a *covering* family: every pair at Hamming distance ≤ `θ_H`
//! is guaranteed to share at least one blocking key, for **every** draw of
//! the family's randomness.
//!
//! Construction. Fix `t = θ_H + 1` and map each of the `m` vector positions
//! to a random **nonzero** label `lab(i) ∈ {0,1}^t \ {0}`. For every nonzero
//! `v ∈ {0,1}^t` (so `L = 2^{θ_H+1} − 1` groups) the group hash `h_v`
//! projects a vector onto the positions whose label has odd parity with `v`
//! (`⟨lab(i), v⟩ = 1` over GF(2)); the remaining positions are *dropped*.
//!
//! Why it covers: let `S` be the set of positions where `x` and `y` differ,
//! `|S| ≤ θ_H`. The labels `{lab(i) : i ∈ S}` span a subspace of dimension
//! ≤ θ_H < t over GF(2), so its orthogonal complement contains a nonzero
//! `v` — and group `v` drops every position of `S`, hence `h_v(x) = h_v(y)`.
//! The argument needs no property of the labels, so the recall guarantee is
//! deterministic; the randomness only spreads *dissimilar* pairs across
//! buckets (each position is kept by exactly `2^{θ_H}` of the groups).
//!
//! Restricting labels to nonzero values is the Fast-CoveringLSH filtering
//! refinement: a zero label would exempt its position from every group,
//! and the family is built by partitioning positions by label rather than
//! enumerating each (position, group) pair from scratch.

use crate::error::FamilyError;
use crate::hashfn::KeyAccumulator;
use rand::{Rng, RngExt};
use rl_bitvec::BitVec;
use serde::{Deserialize, Serialize};

/// Largest supported covering radius: `θ_H ≤ 11` keeps the group count
/// `L = 2^{θ_H+1} − 1` at or below 4095 blocking tables.
pub const MAX_COVERING_THETA: u32 = 11;

/// One covering group `h_v`: the positions it keeps (projects onto).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoveringGroup {
    kept: Vec<u32>,
}

impl CoveringGroup {
    /// The kept (projected) positions, in ascending order.
    pub fn kept(&self) -> &[u32] {
        &self.kept
    }

    /// Number of kept positions.
    pub fn width(&self) -> usize {
        self.kept.len()
    }

    /// The group's blocking key for `v`: the kept bits, packed directly
    /// into a `u128` when they fit, otherwise folded 64 bits at a time
    /// through a [`KeyAccumulator`]. Folding can only merge buckets (a hash
    /// collision), never split them, so it may add false positives but
    /// cannot break the covering guarantee.
    #[inline]
    pub fn key(&self, v: &BitVec) -> u128 {
        self.key_with(|p| v.get(p))
    }

    /// The group's key over a *conceptual* concatenation of attribute
    /// vectors, without materializing it (mirrors
    /// [`crate::BitSampler::key_concat`]).
    pub fn key_concat(&self, attrs: &[&BitVec]) -> u128 {
        self.key_with(|p| {
            let mut p = p;
            for v in attrs {
                if p < v.len() {
                    return v.get(p);
                }
                p -= v.len();
            }
            panic!("covering position beyond concatenated length")
        })
    }

    fn key_with<F: FnMut(usize) -> bool>(&self, mut bit: F) -> u128 {
        if self.kept.len() <= 128 {
            let mut key: u128 = 0;
            for (i, &p) in self.kept.iter().enumerate() {
                key |= u128::from(bit(p as usize)) << i;
            }
            key
        } else {
            let mut acc = KeyAccumulator::new();
            let mut word: u64 = 0;
            let mut filled = 0usize;
            for &p in &self.kept {
                word |= u64::from(bit(p as usize)) << filled;
                filled += 1;
                if filled == 64 {
                    acc.push(word);
                    word = 0;
                    filled = 0;
                }
            }
            if filled > 0 {
                acc.push(word);
            }
            acc.finish()
        }
    }
}

/// A covering family over `m`-bit vectors with radius `theta`:
/// `L = 2^{theta+1} − 1` groups, guaranteed collision for every pair at
/// Hamming distance ≤ `theta`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoveringFamily {
    m: u32,
    theta: u32,
    groups: Vec<CoveringGroup>,
}

impl CoveringFamily {
    /// Draws a covering family: random nonzero `(theta+1)`-bit labels for
    /// the `m` positions, one group per nonzero label-space vector.
    ///
    /// # Errors
    /// `FamilyError::InvalidM` if `m == 0`; `FamilyError::ThetaTooLarge` if
    /// `theta > MAX_COVERING_THETA` (the group count doubles per unit of
    /// radius).
    pub fn random<R: Rng + ?Sized>(m: usize, theta: u32, rng: &mut R) -> Result<Self, FamilyError> {
        if m == 0 {
            return Err(FamilyError::InvalidM { m });
        }
        if theta > MAX_COVERING_THETA {
            return Err(FamilyError::ThetaTooLarge {
                theta,
                groups: (1u128 << (theta + 1)) - 1,
                max_groups: (1usize << (MAX_COVERING_THETA + 1)) - 1,
            });
        }
        let t_bits = theta + 1;
        let num_labels = 1usize << t_bits; // labels live in 1..num_labels
                                           // Partition positions by label first (Fast-CoveringLSH style), so
                                           // each group is assembled from at most 2^t − 1 parity checks over
                                           // label classes instead of m per-position checks.
        let mut by_label: Vec<Vec<u32>> = vec![Vec::new(); num_labels];
        for i in 0..m {
            let label = rng.random_range(1..num_labels);
            by_label[label].push(i as u32);
        }
        let mut groups = Vec::with_capacity(num_labels - 1);
        for v in 1..num_labels {
            let mut kept = Vec::new();
            for (label, positions) in by_label.iter().enumerate().skip(1) {
                if (label & v).count_ones() % 2 == 1 {
                    kept.extend_from_slice(positions);
                }
            }
            kept.sort_unstable();
            groups.push(CoveringGroup { kept });
        }
        Ok(Self {
            m: m as u32,
            theta,
            groups,
        })
    }

    /// Vector size `m` the family was drawn for.
    pub fn m(&self) -> usize {
        self.m as usize
    }

    /// The covering radius `θ_H`.
    pub fn theta(&self) -> u32 {
        self.theta
    }

    /// Number of blocking groups `L = 2^{θ_H+1} − 1`.
    pub fn l(&self) -> usize {
        self.groups.len()
    }

    /// The groups.
    pub fn groups(&self) -> &[CoveringGroup] {
        &self.groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn flip(v: &mut BitVec, pos: usize) {
        if v.get(pos) {
            v.clear(pos);
        } else {
            v.set(pos);
        }
    }

    #[test]
    fn group_count_is_2_pow_theta_plus_1_minus_1() {
        let mut rng = StdRng::seed_from_u64(1);
        for theta in 0..=4u32 {
            let f = CoveringFamily::random(120, theta, &mut rng).unwrap();
            assert_eq!(f.l(), (1 << (theta + 1)) - 1);
        }
    }

    #[test]
    fn each_position_kept_in_exactly_2_pow_theta_groups() {
        let mut rng = StdRng::seed_from_u64(2);
        let theta = 3u32;
        let f = CoveringFamily::random(50, theta, &mut rng).unwrap();
        let mut counts = vec![0usize; 50];
        for g in f.groups() {
            for &p in g.kept() {
                counts[p as usize] += 1;
            }
        }
        // A nonzero label has odd parity with exactly half the 2^t vectors,
        // i.e. 2^{t−1} = 2^θ of the nonzero ones (0 has even parity).
        assert!(counts.iter().all(|&c| c == 1 << theta));
    }

    #[test]
    fn pairs_within_theta_always_collide() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = 120usize;
        let theta = 4u32;
        for trial in 0..200 {
            let f = CoveringFamily::random(m, theta, &mut rng).unwrap();
            let v1 = BitVec::from_positions(m, (0..40).map(|i| (i * 3 + trial) % m));
            let mut v2 = v1.clone();
            for j in 0..theta as usize {
                flip(&mut v2, (j * 13 + trial * 7) % m);
            }
            assert!(v1.hamming(&v2) <= theta);
            let collides = f.groups().iter().any(|g| g.key(&v1) == g.key(&v2));
            assert!(collides, "covering guarantee violated on trial {trial}");
        }
    }

    #[test]
    fn key_concat_matches_materialized_concat() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = BitVec::from_positions(15, [0, 7, 14]);
        let b = BitVec::from_positions(68, [1, 40, 67]);
        let cat = BitVec::concat([&a, &b]);
        let f = CoveringFamily::random(cat.len(), 3, &mut rng).unwrap();
        for g in f.groups() {
            assert_eq!(g.key(&cat), g.key_concat(&[&a, &b]));
        }
    }

    #[test]
    fn wide_groups_fold_through_accumulator() {
        // m = 400 → kept widths ≈ 200 > 128, exercising the fold path.
        let mut rng = StdRng::seed_from_u64(5);
        let m = 400usize;
        let f = CoveringFamily::random(m, 2, &mut rng).unwrap();
        assert!(f.groups().iter().any(|g| g.width() > 128));
        let v1 = BitVec::from_positions(m, (0..150).map(|i| i * 2));
        let mut v2 = v1.clone();
        flip(&mut v2, 9);
        flip(&mut v2, 250);
        assert_eq!(v1.hamming(&v2), 2);
        // Equal inputs hash equal; the covering guarantee still holds.
        for g in f.groups() {
            assert_eq!(g.key(&v1), g.key(&v1.clone()));
        }
        assert!(f.groups().iter().any(|g| g.key(&v1) == g.key(&v2)));
    }

    #[test]
    fn oversized_theta_is_a_typed_error() {
        let mut rng = StdRng::seed_from_u64(6);
        assert!(matches!(
            CoveringFamily::random(120, MAX_COVERING_THETA + 1, &mut rng),
            Err(FamilyError::ThetaTooLarge { .. })
        ));
        assert!(CoveringFamily::random(0, 2, &mut rng).is_err());
    }

    #[test]
    fn theta_zero_is_exact_match_blocking() {
        // t = 1: a single group keeping every position (all labels are 1).
        let mut rng = StdRng::seed_from_u64(7);
        let f = CoveringFamily::random(40, 0, &mut rng).unwrap();
        assert_eq!(f.l(), 1);
        assert_eq!(f.groups()[0].width(), 40);
    }
}

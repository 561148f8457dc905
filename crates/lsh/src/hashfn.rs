//! Pairwise-independent universal hashing.
//!
//! The paper (Section 5.2) hashes q-gram indexes into c-vector positions with
//! functions of the form `g(x) = ((a·x + b) mod P) mod m`, where `P` is a
//! large prime (`2^31 − 1`) and `a, b` are random in `(0, P)`. The same
//! family drives the MinHash permutations of the HARRA baseline.

use crate::error::FamilyError;
use rand::{Rng, RngExt};
use serde::{Deserialize, Deserializer, Serialize};

/// The Mersenne prime `2^61 − 1`.
///
/// The paper suggests `2^31 − 1`; we use the 61-bit Mersenne prime so that
/// q-gram indexes over large alphabets (up to `|S|^q < 2^61`) stay inside the
/// field, preserving pairwise independence. Arithmetic is done in `u128` to
/// avoid overflow.
pub const PRIME: u64 = (1 << 61) - 1;

/// A pairwise-independent hash `x ↦ ((a·x + b) mod P) mod m`.
///
/// A document is refused at load unless `0 < a, b < P` and `0 < m ≤ P`
/// ([`FamilyError::InvalidHash`]): a zero `m` would divide by zero at the
/// first [`UniversalHash::eval`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct UniversalHash {
    a: u64,
    b: u64,
    m: u64,
}

/// A [`UniversalHash`] document, before its coefficients are checked.
#[derive(Deserialize)]
struct HashDoc {
    a: u64,
    b: u64,
    m: u64,
}

impl<'de> Deserialize<'de> for UniversalHash {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error as _;
        let HashDoc { a, b, m } = HashDoc::deserialize(deserializer)?;
        Self::try_with_coefficients(a, b, m).map_err(D::Error::custom)
    }
}

impl UniversalHash {
    /// Draws a random hash onto `{0, …, m−1}`.
    ///
    /// # Panics
    /// Panics if `m == 0` or `m > PRIME`.
    pub fn random<R: Rng + ?Sized>(m: u64, rng: &mut R) -> Self {
        assert!(m > 0, "range m must be positive");
        assert!(m <= PRIME, "range m must not exceed the field size");
        Self {
            a: rng.random_range(1..PRIME),
            b: rng.random_range(1..PRIME),
            m,
        }
    }

    /// Constructs a hash with explicit coefficients (tests / reproducibility).
    ///
    /// # Panics
    /// Panics unless `0 < a < P`, `0 < b < P`, and `0 < m ≤ P`.
    pub fn with_coefficients(a: u64, b: u64, m: u64) -> Self {
        Self::try_with_coefficients(a, b, m).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::with_coefficients`] for coefficients read from outside.
    ///
    /// # Errors
    /// [`FamilyError::InvalidHash`] unless `0 < a < P`, `0 < b < P`, and
    /// `0 < m ≤ P`.
    fn try_with_coefficients(a: u64, b: u64, m: u64) -> Result<Self, FamilyError> {
        let field = 1..PRIME;
        if field.contains(&a) && field.contains(&b) && (1..=PRIME).contains(&m) {
            Ok(Self { a, b, m })
        } else {
            Err(FamilyError::InvalidHash { a, b, m })
        }
    }

    /// Evaluates the hash.
    ///
    /// `P = 2^61 − 1`, so `2^61 ≡ 1 (mod P)` and a value reduces by adding
    /// its high bits onto its low 61 — two folds and one conditional
    /// subtraction in place of a 128-bit division, for the same residue.
    #[inline]
    pub fn eval(&self, x: u64) -> u64 {
        // a < 2^61 and x < 2^64: v < 2^125 + 2^61.
        let v = u128::from(self.a) * u128::from(x) + u128::from(self.b);
        let p = u128::from(PRIME);
        let v = (v & p) + (v >> 61); // < 2^61 + 2^64
        let mut v = ((v & p) + (v >> 61)) as u64; // < 2^61 + 2^4
        if v >= PRIME {
            v -= PRIME;
        }
        v % self.m
    }

    /// The output range `m`.
    #[inline]
    pub fn range(&self) -> u64 {
        self.m
    }
}

/// SplitMix64 finalizer — a strong 64-bit mixer used to fold composite LSH
/// keys (e.g. K MinHash minima) into fixed-width bucket keys.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Accumulates a sequence of `u64` values into a 128-bit key with two
/// independent mixing streams. Collisions merge buckets (harmless for
/// blocking correctness, negligible at 128 bits).
#[derive(Debug, Clone, Copy)]
pub struct KeyAccumulator {
    lo: u64,
    hi: u64,
}

impl KeyAccumulator {
    /// Starts an empty accumulator.
    pub fn new() -> Self {
        Self {
            lo: 0x243F_6A88_85A3_08D3,
            hi: 0x1319_8A2E_0370_7344,
        }
    }

    /// Folds one value into the key.
    #[inline]
    pub fn push(&mut self, v: u64) {
        self.lo = splitmix64(self.lo ^ v);
        self.hi = splitmix64(self.hi ^ v.rotate_left(32));
    }

    /// The accumulated 128-bit key.
    #[inline]
    pub fn finish(&self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }
}

impl Default for KeyAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn eval_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        for m in [1u64, 2, 15, 68, 676, 1 << 40] {
            let h = UniversalHash::random(m, &mut rng);
            for x in [0u64, 1, 675, u64::from(u32::MAX), PRIME - 1] {
                assert!(h.eval(x) < m);
            }
        }
    }

    #[test]
    fn deterministic_for_same_coefficients() {
        let h1 = UniversalHash::with_coefficients(12345, 678, 68);
        let h2 = UniversalHash::with_coefficients(12345, 678, 68);
        for x in 0..100u64 {
            assert_eq!(h1.eval(x), h2.eval(x));
        }
    }

    #[test]
    fn roughly_uniform_over_small_range() {
        // χ²-style sanity check: hashing 0..100_000 into 16 cells should
        // land within 5% of uniform per cell.
        let mut rng = StdRng::seed_from_u64(42);
        let h = UniversalHash::random(16, &mut rng);
        let mut counts = [0u32; 16];
        let n = 100_000u64;
        for x in 0..n {
            counts[h.eval(x) as usize] += 1;
        }
        let expect = n as f64 / 16.0;
        for &c in &counts {
            assert!(
                (f64::from(c) - expect).abs() < 0.05 * expect,
                "cell count {c} far from {expect}"
            );
        }
    }

    #[test]
    fn collision_rate_close_to_one_over_m() {
        // Pr[g(x) = g(y)] for x ≠ y should be ≈ 1/m over random functions
        // (Section 5.2). Empirically verify within a tolerance.
        let mut rng = StdRng::seed_from_u64(3);
        let m = 64u64;
        let trials = 20_000;
        let mut collisions = 0u32;
        for _ in 0..trials {
            let h = UniversalHash::random(m, &mut rng);
            let x = rng.random_range(0..1_000_000u64);
            let y = loop {
                let y = rng.random_range(0..1_000_000u64);
                if y != x {
                    break y;
                }
            };
            if h.eval(x) == h.eval(y) {
                collisions += 1;
            }
        }
        let rate = f64::from(collisions) / f64::from(trials);
        let expect = 1.0 / m as f64;
        assert!(
            (rate - expect).abs() < 0.5 * expect,
            "collision rate {rate} vs expected {expect}"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_range_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = UniversalHash::random(0, &mut rng);
    }

    #[test]
    fn a_document_loads_only_with_coefficients_in_the_field() {
        use serde::value::Value;
        let doc = |a: u64, b: u64, m: u64| {
            let field = |name: &str, v: u64| (name.to_string(), Value::U64(v));
            Value::Object(vec![field("a", a), field("b", b), field("m", m)])
        };
        let h = UniversalHash::with_coefficients(12345, 678, 68);
        assert_eq!(serde::to_value(&h).unwrap(), doc(12345, 678, 68));
        assert_eq!(
            serde::from_value::<UniversalHash>(doc(12345, 678, 68)).unwrap(),
            h
        );
        let p = PRIME;
        for (a, b, m) in [
            (1, 1, 0),
            (0, 1, 5),
            (1, 0, 5),
            (p, 1, 5),
            (1, p, 5),
            (1, 1, p + 1),
        ] {
            let err = serde::from_value::<UniversalHash>(doc(a, b, m)).unwrap_err();
            assert!(err.to_string().contains("outside"), "{a} {b} {m}: {err}");
            assert_eq!(
                UniversalHash::try_with_coefficients(a, b, m),
                Err(FamilyError::InvalidHash { a, b, m })
            );
        }
        for (a, b, m) in [(1, 1, 1), (p - 1, p - 1, p)] {
            assert!(serde::from_value::<UniversalHash>(doc(a, b, m)).is_ok());
        }
    }

    #[test]
    fn key_accumulator_is_order_sensitive() {
        let mut a = KeyAccumulator::new();
        a.push(1);
        a.push(2);
        let mut b = KeyAccumulator::new();
        b.push(2);
        b.push(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn eval_at_the_edges_of_the_field() {
        let by_division = |a: u64, b: u64, m: u64, x: u64| {
            ((u128::from(a) * u128::from(x) + u128::from(b)) % u128::from(PRIME) % u128::from(m))
                as u64
        };
        for &a in &[1, 2, PRIME / 2, PRIME - 1] {
            for &b in &[1, PRIME - 1] {
                for &x in &[0, 1, PRIME - 1, PRIME, PRIME + 1, u64::MAX - 1, u64::MAX] {
                    let h = UniversalHash::with_coefficients(a, b, PRIME);
                    assert_eq!(h.eval(x), by_division(a, b, PRIME, x), "a={a} b={b} x={x}");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn mersenne_folding_equals_division(
            a in 1u64..PRIME,
            b in 1u64..PRIME,
            m in 1u64..=PRIME,
            x in any::<u64>(),
        ) {
            let by_division = (u128::from(a) * u128::from(x) + u128::from(b))
                % u128::from(PRIME)
                % u128::from(m);
            let h = UniversalHash::with_coefficients(a, b, m);
            prop_assert_eq!(u128::from(h.eval(x)), by_division);
        }

        #[test]
        fn accumulator_deterministic(vals in proptest::collection::vec(any::<u64>(), 0..20)) {
            let mut a = KeyAccumulator::new();
            let mut b = KeyAccumulator::new();
            for &v in &vals {
                a.push(v);
                b.push(v);
            }
            prop_assert_eq!(a.finish(), b.finish());
        }

        #[test]
        fn eval_in_range_prop(m in 1u64..1_000_000, x in any::<u64>(), seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let h = UniversalHash::random(m, &mut rng);
            prop_assert!(h.eval(x) < m);
        }
    }
}

//! Typed parameter errors for hash-family construction.
//!
//! Family constructors used to `assert!` their parameter ranges; callers
//! that take user-supplied `K` / `θ` values (the pipeline configuration
//! layer) need a recoverable error instead, so oversized parameters are
//! rejected with a message rather than truncating keys or aborting.

use std::fmt;

/// Errors raised while constructing a hash family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FamilyError {
    /// `K` (base functions per composite key) outside `1..=MAX_K`: keys
    /// pack one bit per base function into a `u128`, so larger `K` would
    /// silently truncate.
    InvalidK {
        /// The requested K.
        k: usize,
        /// The largest representable K.
        max: usize,
    },
    /// The vector size `m` must be positive.
    InvalidM {
        /// The requested m.
        m: usize,
    },
    /// A covering radius whose group count `2^{θ+1} − 1` exceeds the
    /// configured cap — the family would allocate an unusable number of
    /// blocking groups.
    ThetaTooLarge {
        /// The requested Hamming radius.
        theta: u32,
        /// Groups the radius implies.
        groups: u128,
        /// The largest group count allowed.
        max_groups: usize,
    },
    /// A family needs at least one blocking group.
    EmptyFamily,
    /// Universal-hash coefficients outside `0 < a, b < P`, `0 < m ≤ P`
    /// ([`crate::hashfn::PRIME`]): a document that names them could not
    /// hash.
    InvalidHash {
        /// The multiplier.
        a: u64,
        /// The offset.
        b: u64,
        /// The range.
        m: u64,
    },
}

impl fmt::Display for FamilyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FamilyError::InvalidK { k, max } => write!(
                f,
                "K = {k} base functions per key is outside 1..={max}; keys pack one \
                 bit per function into a u128"
            ),
            FamilyError::InvalidM { m } => write!(f, "vector size m = {m} must be positive"),
            FamilyError::ThetaTooLarge {
                theta,
                groups,
                max_groups,
            } => write!(
                f,
                "covering radius θ = {theta} needs 2^{} − 1 = {groups} blocking groups, \
                 above the cap of {max_groups}; lower θ or use the random-sampling backend",
                theta + 1
            ),
            FamilyError::EmptyFamily => write!(f, "a family needs at least one blocking group"),
            FamilyError::InvalidHash { a, b, m } => write!(
                f,
                "hash coefficients a = {a}, b = {b}, m = {m} are outside 0 < a, b < P and \
                 0 < m ≤ P (P = 2^61 − 1)"
            ),
        }
    }
}

impl std::error::Error for FamilyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = FamilyError::InvalidK { k: 200, max: 128 };
        assert!(e.to_string().contains("200"));
        assert!(e.to_string().contains("128"));
        let e = FamilyError::ThetaTooLarge {
            theta: 30,
            groups: (1u128 << 31) - 1,
            max_groups: 4095,
        };
        assert!(e.to_string().contains("4095"));
    }
}

//! Pluggable blocking backends.
//!
//! A blocking backend answers one question: *given a vector, what is its
//! composite key for blocking table `l`?* Two families implement it:
//!
//! * [`BitSampleFamily`] — the paper's random bit-sampling (Definition 3):
//!   probabilistic recall ≥ `1 − δ`, with `L` from Equation 2.
//! * [`CoveringFamily`] — Pagh's CoveringLSH: `L = 2^{θ_H+1} − 1` groups
//!   with **zero false negatives** for pairs within radius `θ_H`.
//!
//! The [`Backend`] enum is the serializable closed set of backends; the
//! blocking layer stores it inside each structure so snapshots carry the
//! backend tag and its parameters. A key is defined by the families' own
//! [`crate::BitSampler::key`] / [`crate::CoveringGroup::key`] (and their
//! `key_concat`), and computed by the [`crate::KeyKernel`] compiled from
//! them.

use crate::covering::CoveringFamily;
use crate::hamming::BitSampleFamily;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which backend family a structure uses — the tag reported by server
/// stats and carried in snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackendKind {
    /// Random bit-sampling (Definition 3), recall ≥ 1 − δ.
    RandomSampling,
    /// CoveringLSH, recall = 1 within the covering radius.
    Covering,
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendKind::RandomSampling => write!(f, "random"),
            BackendKind::Covering => write!(f, "covering"),
        }
    }
}

/// The closed, serializable set of backends a blocking structure can hold.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Backend {
    /// Random bit-sampling family.
    RandomSampling(BitSampleFamily),
    /// Covering family.
    Covering(CoveringFamily),
}

impl Backend {
    /// The backend tag.
    pub fn kind(&self) -> BackendKind {
        match self {
            Backend::RandomSampling(_) => BackendKind::RandomSampling,
            Backend::Covering(_) => BackendKind::Covering,
        }
    }

    /// Number of blocking tables `L` this backend keys.
    pub fn l(&self) -> usize {
        match self {
            Backend::RandomSampling(f) => f.l(),
            Backend::Covering(f) => f.l(),
        }
    }

    /// Width in bits of table `l`'s key, capped at the 128 bits a key can
    /// physically hold (multi-probe neighbour enumeration flips key bits,
    /// so it needs the populated width).
    pub fn key_bits(&self, l: usize) -> usize {
        match self {
            Backend::RandomSampling(f) => f.samplers()[l].k(),
            Backend::Covering(f) => f.groups()[l].width().min(128),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_sampling_backend_reports_its_family() {
        let mut rng = StdRng::seed_from_u64(1);
        let f = BitSampleFamily::random(120, 30, 4, &mut rng).unwrap();
        let b = Backend::RandomSampling(f);
        assert_eq!(b.kind(), BackendKind::RandomSampling);
        assert_eq!(b.l(), 4);
        assert!((0..4).all(|l| b.key_bits(l) == 30));
    }

    #[test]
    fn covering_backend_reports_its_family() {
        let mut rng = StdRng::seed_from_u64(2);
        let f = CoveringFamily::random(60, 2, &mut rng).unwrap();
        let b = Backend::Covering(f.clone());
        assert_eq!(b.kind(), BackendKind::Covering);
        assert_eq!(b.l(), 7);
        for l in 0..7 {
            assert_eq!(b.key_bits(l), f.groups()[l].width());
        }
    }

    #[test]
    fn kind_display_matches_cli_names() {
        assert_eq!(BackendKind::RandomSampling.to_string(), "random");
        assert_eq!(BackendKind::Covering.to_string(), "covering");
    }
}

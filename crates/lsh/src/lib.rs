//! Locality-sensitive hashing families.
//!
//! Implements every LSH mechanism the paper touches:
//!
//! * [`hamming`] — the bit-sampling Hamming family of Indyk–Motwani used by
//!   the HB blocking/matching mechanism (Section 4.2, Definition 3).
//! * [`minhash`] — MinHash over q-gram index sets, the Jaccard-space
//!   mechanism used by the HARRA baseline (Section 6.1).
//! * [`euclidean`] — the p-stable (Gaussian) family of Datar et al. used by
//!   the SM-EB baseline.
//! * [`params`] — the blocking-group math: base success probability
//!   `p = 1 − θ/m` and `L = ⌈ln δ / ln(1 − p^K)⌉` (Equation 2), plus the
//!   rule-operator bounds of Definitions 4–6.
//! * [`covering`] — Pagh's CoveringLSH: a Hamming family with zero false
//!   negatives inside the covering radius (`L = 2^{θ_H+1} − 1` groups).
//! * [`backend`] — the serializable [`backend::Backend`] enum that lets
//!   the blocking layer swap the bit-sampling family for the covering
//!   family.
//! * [`kernel`] — the families compiled against a packed record layout:
//!   gather programs and `pext` extract steps that produce all `L` keys of
//!   a record from its words, bit-identical to the reference functions.
//! * [`hashfn`] — pairwise-independent universal hashes
//!   `g(x) = ((a·x + b) mod P) mod m`, shared with the c-vector embedder.
//! * [`error`] — typed construction errors ([`error::FamilyError`]).
//!
//! The crate holds no tables. The buckets a key addresses are
//! `rl-blockstore`'s, and every HB structure — the engine's, the PPRL
//! linkage unit's and BfH's — is a `cbv_hb::blocking::BlockingStructure`
//! keying rows through a compiled [`kernel::KeyKernel`]; the families' own
//! `key`/`key_concat` are the definition that kernel is tested against.

pub mod backend;
pub mod covering;
pub mod error;
pub mod euclidean;
pub mod hamming;
pub mod hashfn;
pub mod kernel;
pub mod minhash;
pub mod params;

pub use backend::{Backend, BackendKind};
pub use covering::{CoveringFamily, CoveringGroup, MAX_COVERING_THETA};
pub use error::FamilyError;
pub use hamming::{BitSampleFamily, BitSampler};
pub use hashfn::UniversalHash;
pub use kernel::KeyKernel;
pub use params::{base_success_probability, optimal_l};

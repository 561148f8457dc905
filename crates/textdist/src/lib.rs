//! String distance metrics and q-gram utilities for record linkage.
//!
//! This crate implements the original-space (ℰ) machinery of the paper
//! *"Efficient Record Linkage Using a Compact Hamming Space"* (EDBT 2016):
//!
//! * [`Alphabet`] — the ordered symbol set `S` over which q-grams are formed
//!   and the deterministic q-gram → index bijection `F` (Algorithm 1).
//! * [`qgram`] — padded q-gram extraction and [`qgram::QGramSet`], the set
//!   `U_s` of q-gram indexes of a string.
//! * [`mod@levenshtein`] — edit distance, the metric `d_ℰ` of Definition 1,
//!   including a threshold-bounded variant.
//! * [`jaccard`] — Jaccard distance over q-gram sets (the space 𝒥 used by
//!   the HARRA baseline).
//! * [`jaro`] — Jaro and Jaro–Winkler distances (the paper's named future
//!   work for person-name attributes).
//!
//! All metrics operate on already-normalized strings; use
//! [`Alphabet::normalize`] to fold raw input into the alphabet.

pub mod alphabet;
pub mod cosine;
pub mod damerau;
pub mod jaccard;
pub mod jaro;
pub mod levenshtein;
pub mod qgram;
pub mod soundex;

pub use alphabet::Alphabet;
pub use cosine::{cosine_distance, cosine_similarity, QGramProfile};
pub use damerau::damerau_levenshtein;
pub use jaccard::{jaccard_distance, jaccard_similarity};
pub use jaro::{jaro_similarity, jaro_winkler_distance, jaro_winkler_similarity};
pub use levenshtein::{levenshtein, levenshtein_within};
pub use qgram::{for_each_qgram_index, qgram_count, qgrams, qgrams_unpadded, QGramSet};
pub use soundex::soundex;

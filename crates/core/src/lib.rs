//! # cBV-HB — Efficient Record Linkage Using a Compact Hamming Space
//!
//! A faithful implementation of Karapiperis, Vatsalan, Verykios & Christen,
//! *"Efficient Record Linkage Using a Compact Hamming Space"*, EDBT 2016.
//!
//! The method embeds string-valued record attributes into a compact binary
//! Hamming space Ĥ and runs Hamming LSH blocking/matching (HB) there:
//!
//! 1. Each attribute value becomes a set of q-gram indexes
//!    ([`textdist::QGramSet`]).
//! 2. A pairwise-independent hash maps each index into an `m_opt`-bit
//!    **c-vector** ([`cvector`]), where `m_opt` is derived from the
//!    attribute's average q-gram count via a birthday-bound collision
//!    argument (Lemma 1 / Theorem 1 — [`cvector::optimal_m`]).
//! 3. Record-level c-vectors are blocked by bit-sampling LSH with
//!    `L = ⌈ln δ / ln(1 − p^K)⌉` groups ([`blocking`]), guaranteeing that
//!    every truly similar pair is formulated with probability ≥ 1 − δ.
//! 4. Blocking can be made **rule-aware** ([`rule`], Section 5.4): a
//!    classification rule over per-attribute thresholds (AND/OR/NOT,
//!    compound subrules) is compiled into attribute-level blocking
//!    structures whose candidate sets follow the rule's logic.
//! 5. The matching step ([`matcher`]) formulates candidate pairs with the
//!    de-duplication of Algorithm 2 and classifies them by the rule.
//!
//! The one-stop entry point is [`pipeline::LinkagePipeline`]; see the crate
//! examples for end-to-end usage. [`metrics`] computes the Pairs
//! Completeness / Pairs Quality / Reduction Ratio measures used in the
//! paper's evaluation. The insert-and-query mode motivated by the paper's
//! health-surveillance scenario is [`pipeline::LinkagePipeline::link`] of an
//! arriving record followed by [`pipeline::LinkagePipeline::index`] of it
//! (what the server's stream handler does).

pub mod analysis;
pub mod blocking;
pub mod buffers;
pub mod cvector;
pub mod dedup;
pub mod error;
pub mod io;
pub mod matcher;
pub mod metrics;
pub mod pipeline;
pub mod profiler;
pub mod qvector;
pub mod record;
pub mod rule;
pub mod rule_parser;
pub mod schema;
pub mod sharded;

pub use cvector::{optimal_m, CVectorEmbedder};
pub use error::{Error, SchemaError};
pub use metrics::LinkageQuality;
pub use pipeline::{BlockStoreConfig, LinkageConfig, LinkagePipeline, LinkageResult};
pub use record::{Record, RecordView};
pub use rl_blockstore::{CapMode, StoreKind};
pub use rule::Rule;
pub use rule_parser::parse_rule;
pub use schema::{AttributeSpec, EmbeddedRecord, RecordSchema};
pub use sharded::{ShardState, ShardedPipeline, ShardedState};

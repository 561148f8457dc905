//! # record-linkage — Efficient Record Linkage Using a Compact Hamming Space
//!
//! Facade crate re-exporting the full workspace: the cBV-HB method of
//! Karapiperis, Vatsalan, Verykios & Christen (EDBT 2016), its substrates,
//! the baselines it was evaluated against, and synthetic data generators
//! with exact ground truth.
//!
//! ## Quickstart
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use record_linkage::cbv_hb::{
//!     AttributeSpec, LinkageConfig, LinkagePipeline, Record, RecordSchema, Rule,
//! };
//! use record_linkage::textdist::Alphabet;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! // Two attributes sized by Theorem 1 for short-name statistics.
//! let schema = RecordSchema::build(
//!     Alphabet::linkage(),
//!     vec![
//!         AttributeSpec::sized_for("FirstName", 2, 5.1, 1.0, 1.0 / 3.0, false, 5),
//!         AttributeSpec::sized_for("LastName", 2, 5.0, 1.0, 1.0 / 3.0, false, 5),
//!     ],
//!     &mut rng,
//! );
//! // Classification rule: both names within Hamming distance 4 in Ĥ.
//! let rule = Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]);
//! let mut pipeline =
//!     LinkagePipeline::new(schema, LinkageConfig::rule_aware(rule), &mut rng).unwrap();
//! pipeline
//!     .index(&[Record::new(1, ["JOHN", "SMITH"])])
//!     .unwrap();
//! let result = pipeline
//!     .link(&[Record::new(10, ["JON", "SMITH"])]) // one deleted character
//!     .unwrap();
//! assert_eq!(result.matches, vec![(1, 10)]);
//! ```
//!
//! ## Workspace map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`cbv_hb`] | `cbv-hb` | c-vectors, rule-aware HB blocking, pipeline |
//! | [`textdist`] | `textdist` | q-grams, edit/Jaccard/Jaro-Winkler metrics |
//! | [`bitvec`] | `rl-bitvec` | packed bit vectors, popcount Hamming |
//! | [`lsh`] | `rl-lsh` | Hamming / MinHash / Euclidean LSH families |
//! | [`datagen`] | `rl-datagen` | synthetic NCVR/DBLP pairs + ground truth |
//! | [`baselines`] | `rl-baselines` | HARRA, BfH, SM-EB |
//! | [`pprl`] | `rl-pprl` | privacy-preserving linkage (keyed embeddings) |
//! | [`server`] | `rl-server` | TCP linkage service over the sharded index |
//! | [`repl`] | `rl-repl` | WAL-shipping read replicas, bootstrap, promote |
//! | [`streamrule`] | `rl-streamrule` | windowed rule subscriptions, compiled plans |
//! | [`obs`] | `rl-obs` | counters, mergeable latency histograms, Prometheus |

pub use cbv_hb;
pub use rl_baselines as baselines;
pub use rl_bitvec as bitvec;
pub use rl_datagen as datagen;
pub use rl_lsh as lsh;
pub use rl_obs as obs;
pub use rl_pprl as pprl;
pub use rl_repl as repl;
pub use rl_server as server;
pub use rl_streamrule as streamrule;
pub use textdist;

/// Most-used types, one `use` away.
pub mod prelude {
    pub use cbv_hb::dedup::deduplicate;
    pub use cbv_hb::sharded::ShardedPipeline;
    pub use cbv_hb::{
        parse_rule, AttributeSpec, BlockStoreConfig, CapMode, LinkageConfig, LinkagePipeline,
        LinkageResult, Record, RecordSchema, Rule, StoreKind,
    };
    pub use rl_baselines::{BfhLinker, CbvHbLinker, HarraLinker, LinkOutcome, Linker, SmEbLinker};
    pub use rl_datagen::{DatasetPair, PairConfig, PerturbationScheme};
    pub use rl_server::{Client, Server, ServerConfig};
    pub use rl_streamrule::{SubscriptionSpec, WindowSpec, WindowedEngine};
    pub use textdist::Alphabet;
}

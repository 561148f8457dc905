//! Error types for configuration and pipeline construction.

use std::fmt;

/// Errors raised while building or running a linkage pipeline.
///
/// Hot-path operations (distances, hashing) use panics for programmer
/// errors (length mismatches); `Error` covers user-facing configuration
/// problems that a caller can meaningfully handle.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A rule references an attribute index outside the schema.
    AttributeOutOfRange {
        /// The offending attribute index.
        attr: usize,
        /// Number of attributes in the schema.
        num_attributes: usize,
    },
    /// A rule's structure cannot be compiled into a blocking plan
    /// (e.g. a bare NOT with no positive conjunct).
    InvalidRule(String),
    /// A threshold exceeds the attribute's c-vector size, making the base
    /// success probability undefined.
    ThresholdTooLarge {
        /// The offending attribute index.
        attr: usize,
        /// The threshold requested.
        theta: u32,
        /// The attribute's c-vector size.
        m: usize,
    },
    /// Invalid parameter value (δ, K, ρ, r, …).
    InvalidParameter(String),
    /// A record's field count does not match the schema.
    FieldCountMismatch {
        /// Fields found on the record.
        found: usize,
        /// Fields required by the schema.
        expected: usize,
    },
    /// A blocking-store operation failed (disk-resident tables:
    /// I/O, corruption, or a reconfigure on a non-empty store).
    Store(String),
    /// A shard-map or online-migration failure: planning a split/merge
    /// against the current [`rl_reshard::ShardMap`], driving a migration,
    /// or attempting to reshard a populated disk-resident plan in place.
    Reshard(rl_reshard::ReshardError),
}

/// Why a schema, or one attribute's embedder, could not embed a record: a
/// document that names one is refused at load, with this as its message,
/// instead of panicking or writing rows of another layout at the first
/// embed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// An embedder with `q = 0`.
    ZeroQ,
    /// A padded embedder with `q > 1` over an alphabet without the pad
    /// symbol `_`.
    NoPadSymbol,
    /// Not one embedder per attribute spec.
    EmbedderCount {
        /// Embedders in the document.
        embedders: usize,
        /// Attribute specs in the document.
        specs: usize,
    },
    /// Attribute `attr`'s embedder has another `q`, width `m` or padding
    /// than its spec.
    SpecMismatch {
        /// The attribute.
        attr: usize,
        /// The spec's `(q, m, padded)`.
        spec: (usize, usize, bool),
        /// The embedder's `(q, m, padded)`.
        embedder: (usize, usize, bool),
    },
    /// Attribute `attr`'s embedder forms q-grams over another alphabet than
    /// the schema's.
    AlphabetMismatch {
        /// The attribute.
        attr: usize,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::ZeroQ => f.write_str("an embedder's q-gram length must be positive"),
            SchemaError::NoPadSymbol => write!(
                f,
                "a padded attribute needs the pad symbol {:?} in its alphabet",
                textdist::alphabet::PAD
            ),
            SchemaError::EmbedderCount { embedders, specs } => write!(
                f,
                "{embedders} embedders for {specs} attribute specs; a schema has one per attribute"
            ),
            SchemaError::SpecMismatch {
                attr,
                spec,
                embedder,
            } => write!(
                f,
                "attribute {attr}'s embedder has (q, m, padded) = {embedder:?}, its spec {spec:?}"
            ),
            SchemaError::AlphabetMismatch { attr } => write!(
                f,
                "attribute {attr}'s embedder is over another alphabet than the schema's"
            ),
        }
    }
}

impl std::error::Error for SchemaError {}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::AttributeOutOfRange {
                attr,
                num_attributes,
            } => write!(
                f,
                "rule references attribute {attr}, but the schema has only {num_attributes}"
            ),
            Error::InvalidRule(msg) => write!(f, "invalid classification rule: {msg}"),
            Error::ThresholdTooLarge { attr, theta, m } => write!(
                f,
                "threshold {theta} for attribute {attr} exceeds its c-vector size {m}"
            ),
            Error::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            Error::Store(msg) => write!(f, "blocking store: {msg}"),
            Error::Reshard(e) => write!(f, "reshard: {e}"),
            Error::FieldCountMismatch { found, expected } => write!(
                f,
                "record has {found} fields but the schema defines {expected}"
            ),
        }
    }
}

impl std::error::Error for Error {}

impl From<rl_reshard::ReshardError> for Error {
    fn from(e: rl_reshard::ReshardError) -> Self {
        Error::Reshard(e)
    }
}

impl From<rl_lsh::FamilyError> for Error {
    /// Hash-family construction errors (oversized `K`, covering radius
    /// beyond the group-count cap) surface as configuration errors.
    fn from(e: rl_lsh::FamilyError) -> Self {
        Error::InvalidParameter(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = Error::AttributeOutOfRange {
            attr: 5,
            num_attributes: 4,
        };
        assert!(e.to_string().contains("attribute 5"));
        let e = Error::ThresholdTooLarge {
            attr: 1,
            theta: 200,
            m: 15,
        };
        assert!(e.to_string().contains("200"));
        assert!(e.to_string().contains("15"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Error::InvalidRule("x".into()));
    }
}

//! The record model: identified rows of string attribute values.

use serde::{Deserialize, Serialize};

/// A record: an identifier plus one string value per schema attribute.
///
/// This mirrors the paper's problem setting (Section 3): data custodians
/// agree on `n_f` common attributes plus an `Id` attribute, and submit their
/// records to the linkage unit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Record {
    /// Unique identifier within its data set.
    pub id: u64,
    /// One value per attribute, in schema order. Values may be empty
    /// (missing); missing values embed to all-zero c-vectors.
    pub fields: Vec<String>,
}

impl Record {
    /// Builds a record from an id and field values.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(id: u64, fields: I) -> Self {
        Self {
            id,
            fields: fields.into_iter().map(Into::into).collect(),
        }
    }

    /// The value of attribute `i`, or `""` when absent.
    pub fn field(&self, i: usize) -> &str {
        self.fields.get(i).map_or("", String::as_str)
    }
}

/// A record read where it lies: its id and its field values, borrowed. A
/// [`Record`] is one; so is a record body read in place from a request
/// frame, which embeds without a `String` per field
/// ([`crate::RecordSchema::embed_views`]).
pub trait RecordView {
    /// The record's identifier.
    fn id(&self) -> u64;
    /// How many field values it has.
    fn field_count(&self) -> usize;
    /// Its field values, in schema order.
    fn fields(&self) -> impl Iterator<Item = &str>;
}

impl RecordView for Record {
    fn id(&self) -> u64 {
        self.id
    }

    fn field_count(&self) -> usize {
        self.fields.len()
    }

    fn fields(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(String::as_str)
    }
}

impl<V: RecordView> RecordView for &V {
    fn id(&self) -> u64 {
        (**self).id()
    }

    fn field_count(&self) -> usize {
        (**self).field_count()
    }

    fn fields(&self) -> impl Iterator<Item = &str> {
        (**self).fields()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_collects_fields() {
        let r = Record::new(7, ["JOHN", "SMITH"]);
        assert_eq!(r.id, 7);
        assert_eq!(r.field(0), "JOHN");
        assert_eq!(r.field(1), "SMITH");
        assert_eq!(r.field(2), "");
    }

    #[test]
    fn accepts_owned_strings() {
        let r = Record::new(1, vec![String::from("A")]);
        assert_eq!(r.field(0), "A");
    }
}

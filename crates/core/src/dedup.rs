//! Duplicate detection within a single data set.
//!
//! Record linkage's sibling problem (the paper's title domain is "record
//! linkage, entity resolution, and duplicate detection"): find groups of
//! records in *one* data set that refer to the same entity. We self-block
//! the data set with the usual plan, classify co-blocked pairs with the
//! rule, and merge matched pairs into clusters with a union–find.

use crate::blocking::{BlockingPlan, ProbeScratch};
use crate::error::Result;
use crate::matcher::{index_row, Classifier, MatchStats, RecordSlab};
use crate::pipeline::LinkageConfig;
use crate::record::Record;
use crate::schema::RecordSchema;
use rand::Rng;
use std::collections::HashMap;

/// Disjoint-set forest over arbitrary `u64` ids (path halving + union by
/// size).
///
/// ```
/// use cbv_hb::dedup::UnionFind;
/// let mut uf = UnionFind::new();
/// uf.union(1, 2);
/// uf.union(2, 3);
/// assert!(uf.connected(1, 3));
/// assert_eq!(uf.clusters(2), vec![vec![1, 2, 3]]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    parent: HashMap<u64, u64>,
    size: HashMap<u64, u64>,
}

impl UnionFind {
    /// Creates an empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures `x` exists as a singleton.
    pub fn insert(&mut self, x: u64) {
        self.parent.entry(x).or_insert(x);
        self.size.entry(x).or_insert(1);
    }

    /// Finds the representative of `x`, inserting it if new.
    pub fn find(&mut self, x: u64) -> u64 {
        self.insert(x);
        let mut root = x;
        while self.parent[&root] != root {
            root = self.parent[&root];
        }
        // Path halving.
        let mut cur = x;
        while self.parent[&cur] != root {
            let next = self.parent[&cur];
            self.parent.insert(cur, root);
            cur = next;
        }
        root
    }

    /// Unions the sets of `a` and `b`; returns the new representative.
    pub fn union(&mut self, a: u64, b: u64) -> u64 {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return ra;
        }
        let (big, small) = if self.size[&ra] >= self.size[&rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent.insert(small, big);
        let merged = self.size[&big] + self.size[&small];
        self.size.insert(big, merged);
        big
    }

    /// True when `a` and `b` share a set.
    pub fn connected(&mut self, a: u64, b: u64) -> bool {
        self.find(a) == self.find(b)
    }

    /// All clusters with at least `min_size` members, each sorted, the list
    /// sorted by its smallest member.
    pub fn clusters(&mut self, min_size: usize) -> Vec<Vec<u64>> {
        let ids: Vec<u64> = self.parent.keys().copied().collect();
        let mut groups: HashMap<u64, Vec<u64>> = HashMap::new();
        for id in ids {
            let root = self.find(id);
            groups.entry(root).or_default().push(id);
        }
        let mut out: Vec<Vec<u64>> = groups
            .into_values()
            .filter(|g| g.len() >= min_size)
            .map(|mut g| {
                g.sort_unstable();
                g
            })
            .collect();
        out.sort_by_key(|g| g[0]);
        out
    }
}

/// Result of a deduplication run.
#[derive(Debug, Clone, Default)]
pub struct DedupResult {
    /// Duplicate clusters (size ≥ 2), sorted.
    pub clusters: Vec<Vec<u64>>,
    /// Matched pairs that produced the clusters.
    pub pairs: Vec<(u64, u64)>,
    /// Matching counters.
    pub stats: MatchStats,
}

/// Detects duplicate clusters within `records` under `config`.
///
/// Self-pairs are excluded; each unordered pair is compared once.
///
/// # Errors
/// Returns configuration or embedding errors, and the refusal of a full
/// record store ([`index_row`]).
pub fn deduplicate<R: Rng + ?Sized>(
    schema: &RecordSchema,
    config: &LinkageConfig,
    records: &[Record],
    rng: &mut R,
) -> Result<DedupResult> {
    let mut plan = BlockingPlan::from_config(schema, config, rng)?;
    let classifier = Classifier::Rule(config.rule.clone());
    let mut rows = Vec::new();
    schema.embed_rows(records, &mut rows)?;
    let rows = schema.rows_of(records, &rows);
    let mut store = RecordSlab::new(schema.layout());
    for (id, row) in rows.clone() {
        index_row(&mut plan, &mut store, id, row)?;
    }
    let mut result = DedupResult::default();
    let mut uf = UnionFind::new();
    let mut scratch = ProbeScratch::default();
    for (probe, row) in rows {
        plan.candidates_into_row(row, |slot| store.row_at(slot), &mut scratch);
        let first = result.pairs.len();
        for &slot in scratch.candidates() {
            let Some(a) = store.row_at(slot) else {
                continue;
            };
            // Each unordered pair once; skip self.
            let id = store.id_at(slot);
            if id >= probe {
                continue;
            }
            result.stats.candidates += 1;
            result.stats.distance_computations += 1;
            if classifier.matches_rows(store.layout(), a, row) {
                result.pairs.push((id, probe));
                result.stats.matched += 1;
                uf.union(id, probe);
            }
        }
        // Candidates ascend by slot; a probe's pairs ascend by id.
        result.pairs[first..].sort_unstable();
    }
    result.clusters = uf.clusters(2);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttributeSpec;
    use crate::Rule;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use textdist::Alphabet;

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new();
        uf.union(1, 2);
        uf.union(3, 4);
        assert!(uf.connected(1, 2));
        assert!(!uf.connected(1, 3));
        uf.union(2, 3);
        assert!(uf.connected(1, 4));
        uf.insert(9);
        let clusters = uf.clusters(2);
        assert_eq!(clusters, vec![vec![1, 2, 3, 4]]);
        assert_eq!(uf.clusters(1).len(), 2); // singleton 9 included
    }

    #[test]
    fn union_is_idempotent_and_transitive() {
        let mut uf = UnionFind::new();
        for _ in 0..3 {
            uf.union(5, 6);
        }
        assert_eq!(uf.clusters(2), vec![vec![5, 6]]);
    }

    fn schema(seed: u64) -> RecordSchema {
        let mut rng = StdRng::seed_from_u64(seed);
        RecordSchema::build(
            Alphabet::linkage(),
            vec![
                AttributeSpec::new("FirstName", 2, 32, false, 5),
                AttributeSpec::new("LastName", 2, 32, false, 5),
            ],
            &mut rng,
        )
    }

    #[test]
    fn finds_duplicate_clusters() {
        let s = schema(1);
        let config = LinkageConfig::rule_aware(Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]));
        let records = vec![
            Record::new(0, ["JOHN", "SMITH"]),
            Record::new(1, ["JON", "SMITH"]),  // dup of 0
            Record::new(2, ["JOHN", "SMYTH"]), // dup of 0 (and transitively 1)
            Record::new(3, ["AGNES", "WINTERBOTTOM"]),
            Record::new(4, ["GERTRUDE", "KOWALCZYK"]),
        ];
        let mut rng = StdRng::seed_from_u64(2);
        let r = deduplicate(&s, &config, &records, &mut rng).unwrap();
        assert_eq!(r.clusters, vec![vec![0, 1, 2]]);
        assert!(r.pairs.len() >= 2);
    }

    #[test]
    fn distinct_records_form_no_clusters() {
        let s = schema(3);
        let config = LinkageConfig::rule_aware(Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]));
        let records = vec![
            Record::new(0, ["ALPHA", "QUEBEC"]),
            Record::new(1, ["BRAVO", "WHISKEY"]),
            Record::new(2, ["CHARLIE", "XRAY"]),
        ];
        let mut rng = StdRng::seed_from_u64(4);
        let r = deduplicate(&s, &config, &records, &mut rng).unwrap();
        assert!(r.clusters.is_empty(), "{:?}", r.clusters);
    }

    #[test]
    fn pairs_are_unordered_and_unique() {
        let s = schema(5);
        let config = LinkageConfig::rule_aware(Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]));
        let records = vec![
            Record::new(0, ["JOHN", "SMITH"]),
            Record::new(1, ["JOHN", "SMITH"]),
        ];
        let mut rng = StdRng::seed_from_u64(6);
        let r = deduplicate(&s, &config, &records, &mut rng).unwrap();
        assert_eq!(r.pairs, vec![(0, 1)]);
    }

    #[test]
    fn empty_input() {
        let s = schema(7);
        let config = LinkageConfig::rule_aware(Rule::pred(0, 4));
        let mut rng = StdRng::seed_from_u64(8);
        let r = deduplicate(&s, &config, &[], &mut rng).unwrap();
        assert!(r.clusters.is_empty());
        assert_eq!(r.stats.candidates, 0);
    }
}

//! Blocking-key stability: the `RandomSampling` backend must produce the
//! exact keys it produced before the pluggable-backend refactor for the
//! same seed, or every persisted index and published experiment silently
//! shifts. The two sampling pins were captured from the pre-backend
//! implementation (BitSampler-per-table), the shared-`L` and covering pins
//! from the separate sampling and covering rule compilers that the one
//! compiler replaced; any change to RNG draw order or key packing shows up
//! as a mismatch.
//!
//! Every plan is built the way the engines build theirs, through
//! `BlockingPlan::from_config`, and every path of the rule compiler has a
//! pin: record-level sampling, a compound OR with a fused conjunction and a
//! NOT, an OR of plain predicates (shared `L`), record-level covering, and
//! rule-aware covering over an AND with a NOT and over a compound OR.

use rand::rngs::StdRng;
use rand::SeedableRng;
use record_linkage::cbv_hb::blocking::{BlockingPlan, BlockingStructure};
use record_linkage::cbv_hb::{AttributeSpec, LinkageConfig, Record, RecordSchema, Rule};
use textdist::Alphabet;

fn schema(seed: u64) -> RecordSchema {
    let mut rng = StdRng::seed_from_u64(seed);
    RecordSchema::build(
        Alphabet::linkage(),
        vec![
            AttributeSpec::new("FirstName", 2, 15, false, 5),
            AttributeSpec::new("LastName", 2, 15, false, 5),
            AttributeSpec::new("Address", 2, 68, false, 10),
            AttributeSpec::new("Town", 2, 22, false, 10),
        ],
        &mut rng,
    )
}

fn records() -> Vec<Record> {
    vec![
        Record::new(1, ["JOHN", "SMITH", "12 OAK STREET", "DURHAM"]),
        Record::new(2, ["MARY", "JONES", "7 ELM AVENUE", "RALEIGH"]),
        Record::new(3, ["PETER", "WRIGHT", "99 PINE ROAD", "CARY"]),
        Record::new(4, ["AGNES", "WINTERBOTTOM", "1 MAPLE LANE", "APEX"]),
    ]
}

/// FNV-1a over every (structure, table, key, bucket) tuple, in sorted key
/// order per table, so the digest pins the exact u128 blocking keys.
fn fingerprint(structures: &[BlockingStructure]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        hash ^= v;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for (si, s) in structures.iter().enumerate() {
        mix(si as u64);
        // Collect per-table entries through the storage visitor (direct
        // table access is no longer exposed), then sort per table so the
        // digest is independent of bucket iteration order.
        let mut tables: Vec<Vec<(u128, Vec<u64>)>> = vec![Vec::new(); s.l()];
        s.for_each_entry(|ti, key, ids| tables[ti].push((key, ids.to_vec())));
        for (ti, entries) in tables.iter_mut().enumerate() {
            mix(ti as u64);
            entries.sort_unstable();
            for (key, ids) in entries {
                mix(*key as u64);
                mix((*key >> 64) as u64);
                for id in ids {
                    mix(*id);
                }
            }
        }
    }
    hash
}

/// The fingerprint of the plan `config` compiles from the seed `seed`
/// over [`schema`]`(schema_seed)`, after indexing [`records`].
fn pinned(schema_seed: u64, config: LinkageConfig, seed: u64) -> u64 {
    let s = schema(schema_seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut plan = BlockingPlan::from_config(&s, &config, &mut rng).unwrap();
    for r in records() {
        plan.insert(&s.embed(&r).unwrap());
    }
    fingerprint(plan.structures())
}

#[test]
fn record_level_keys_match_pre_backend_fingerprint() {
    let config = LinkageConfig::record_level(Rule::pred(0, 4), 4, 30);
    assert_eq!(
        pinned(1, config, 9),
        10109826477784561447,
        "record-level RandomSampling keys changed for a fixed seed"
    );
}

#[test]
fn rule_aware_keys_match_pre_backend_fingerprint() {
    // A compound OR of a fused conjunction (concatenated sub-keys) with a
    // NOT exclusion, beside a predicate with its own δ budget.
    let rule = Rule::or([
        Rule::and([
            Rule::pred(0, 4),
            Rule::pred(1, 4),
            Rule::not(Rule::pred(3, 4)),
        ]),
        Rule::pred(2, 8),
    ]);
    assert_eq!(
        pinned(2, LinkageConfig::rule_aware(rule), 17),
        683441036517090477,
        "rule-aware RandomSampling keys changed for a fixed seed"
    );
}

/// An OR of plain predicates: one structure per disjunct, all sharing the
/// `L` of `p_∨` (Definition 5).
#[test]
fn rule_aware_disjunction_of_predicates_shares_l() {
    let rule = Rule::or([Rule::pred(0, 4), Rule::pred(2, 8)]);
    assert_eq!(
        pinned(3, LinkageConfig::rule_aware(rule), 23),
        7549784841760477722,
        "shared-L disjunction keys changed for a fixed seed"
    );
}

#[test]
fn record_level_covering_keys() {
    assert_eq!(
        pinned(4, LinkageConfig::covering(Rule::pred(0, 4), 4), 29),
        2975374773211005128,
        "record-level covering keys changed for a fixed seed"
    );
}

/// Covering over a rule: a conjunction fused into one family of summed
/// radius (here 2 + 3 = 5), with a NOT exclusion of radius 3.
#[test]
fn rule_aware_covering_conjunction_with_not() {
    let rule = Rule::and([
        Rule::pred(0, 2),
        Rule::pred(1, 3),
        Rule::not(Rule::pred(3, 3)),
    ]);
    assert_eq!(
        pinned(5, LinkageConfig::covering_rule_aware(rule), 31),
        18254462926451808270,
        "rule-aware covering keys (AND with NOT) changed for a fixed seed"
    );
}

/// Covering over a compound OR: a union of the children's structures, one
/// of them a fused conjunction of radius 2 + 2 + 4 = 8.
#[test]
fn rule_aware_covering_compound_or() {
    let rule = Rule::or([
        Rule::and([Rule::pred(0, 2), Rule::pred(1, 2), Rule::pred(3, 4)]),
        Rule::and([Rule::pred(2, 3), Rule::not(Rule::pred(0, 1))]),
        Rule::pred(1, 4),
    ]);
    assert_eq!(
        pinned(6, LinkageConfig::covering_rule_aware(rule), 37),
        12038727093219218157,
        "rule-aware covering keys (compound OR) changed for a fixed seed"
    );
}

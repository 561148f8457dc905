//! Randomized pipeline properties: arbitrary valid rules over arbitrary
//! schemas must (a) compile, (b) classify exactly per the rule, and
//! (c) always surface exact-duplicate records for positive rules; and
//! (d) the plan's sorted-vector candidate algebra must formulate exactly
//! the candidates that hash sets, filled bucket by bucket, would.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use record_linkage::cbv_hb::blocking::{BlockingPlan, BlockingStructure};
use record_linkage::cbv_hb::{AttributeSpec, EmbeddedRecord, Record, RecordSchema, Rule};
use record_linkage::prelude::*;
use std::collections::{HashMap, HashSet};

/// Strategy for a random *positive* rule (no NOT) over `n_attrs` attributes
/// with thresholds below `max_theta`.
fn positive_rule(n_attrs: usize, max_theta: u32) -> impl Strategy<Value = Rule> {
    let pred = (0..n_attrs, 1..=max_theta).prop_map(|(a, t)| Rule::pred(a, t));
    pred.prop_recursive(2, 6, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Rule::And),
            proptest::collection::vec(inner, 1..3).prop_map(Rule::Or),
        ]
    })
}

/// Strategy for a rule with a NOT: positive conjuncts and one negated
/// predicate or conjunction of predicates (the paper's C3 shape), possibly
/// beside another subrule under an OR.
fn rule_with_not(n_attrs: usize, max_theta: u32) -> impl Strategy<Value = Rule> {
    let pred = || (0..n_attrs, 1..=max_theta).prop_map(|(a, t)| Rule::pred(a, t));
    let negated = prop_oneof![
        pred(),
        proptest::collection::vec(pred(), 1..3).prop_map(Rule::And),
    ];
    let c3 = (
        proptest::collection::vec(positive_rule(n_attrs, max_theta), 1..3),
        negated,
    )
        .prop_map(|(mut conjuncts, negated)| {
            conjuncts.push(Rule::not(negated));
            Rule::And(conjuncts)
        });
    (c3, positive_rule(n_attrs, max_theta), any::<bool>()).prop_map(|(c3, other, alone)| {
        if alone {
            c3
        } else {
            Rule::or([other, c3])
        }
    })
}

/// One structure's candidates as the probe loop formulated them when
/// candidate sets were hash sets: tables in order, ids in insertion order,
/// each new id entering the set until `top_k` distinct ones are in
/// (0: no bound). Returns the set and whether it was cut short.
fn leaf_model(s: &BlockingStructure, probe: &EmbeddedRecord, top_k: usize) -> (HashSet<u64>, bool) {
    let mut keys = Vec::new();
    s.keys_into(probe, &mut keys);
    let mut out = HashSet::new();
    let mut bucket = Vec::new();
    for (l, &key) in keys.iter().enumerate() {
        bucket.clear();
        s.probe_key_into(l, key, &mut bucket);
        for &id in &bucket {
            if top_k > 0 && out.len() >= top_k && !out.contains(&id) {
                return (out, true);
            }
            out.insert(id);
        }
    }
    (out, false)
}

/// The candidate set of `rule` by set algebra over [`leaf_model`]s, taking
/// structures from `structures` in the order the plan compiler made them:
/// an AND's fused predicates first, then its compound conjuncts, then one
/// structure per NOT; an OR's children left to right.
fn plan_model<'p>(
    rule: &Rule,
    structures: &mut std::slice::Iter<'p, BlockingStructure>,
    probe: &EmbeddedRecord,
    store: &HashMap<u64, EmbeddedRecord>,
    top_k: usize,
    truncated: &mut bool,
) -> HashSet<u64> {
    let mut leaf = |structures: &mut std::slice::Iter<'p, BlockingStructure>| {
        let (set, cut) = leaf_model(structures.next().unwrap(), probe, top_k);
        *truncated |= cut;
        set
    };
    match rule {
        Rule::Pred(_) => leaf(structures),
        Rule::Or(children) => {
            let mut out = HashSet::new();
            for c in children {
                out.extend(plan_model(c, structures, probe, store, top_k, truncated));
            }
            out
        }
        Rule::And(children) => {
            let mut sets = Vec::new();
            if children.iter().any(|c| matches!(c, Rule::Pred(_))) {
                sets.push(leaf(structures));
            }
            for c in children {
                if !matches!(c, Rule::Pred(_) | Rule::Not(_)) {
                    sets.push(plan_model(c, structures, probe, store, top_k, truncated));
                }
            }
            let mut acc = sets.pop().unwrap();
            for s in sets {
                acc.retain(|id| s.contains(id));
            }
            for _ in children.iter().filter(|c| matches!(c, Rule::Not(_))) {
                let negated = structures.next().unwrap();
                // A NOT structure's own truncation was never reported. A
                // co-blocked candidate leaves only if the negated conjuncts
                // hold for the pair; one that cannot be retrieved stays.
                let (excluded, _) = leaf_model(negated, probe, top_k);
                let conjuncts_hold = |a: &EmbeddedRecord| {
                    (negated.conjuncts().iter()).all(|c| a.attr_distance(probe, c.attr) <= c.theta)
                };
                acc.retain(|id| {
                    !excluded.contains(id) || store.get(id).is_none_or(|a| !conjuncts_hold(a))
                });
            }
            acc
        }
        Rule::Not(_) => unreachable!("validated rules negate only under an AND"),
    }
}

fn ascending(set: HashSet<u64>) -> Vec<u64> {
    let mut v: Vec<u64> = set.into_iter().collect();
    v.sort_unstable();
    v
}

fn schema(seed: u64, n_attrs: usize) -> RecordSchema {
    let mut rng = StdRng::seed_from_u64(seed);
    let specs = (0..n_attrs)
        .map(|i| AttributeSpec::new(format!("f{i}"), 2, 15 + 5 * i, false, 5))
        .collect();
    RecordSchema::build(Alphabet::linkage(), specs, &mut rng)
}

fn record(id: u64, fields: &[String]) -> Record {
    Record::new(id, fields.iter().cloned())
}

/// 45 records of three attributes from `values`: the first 40 to index,
/// the last 5 to probe with.
fn embedded(s: &RecordSchema, values: &[String]) -> (Vec<EmbeddedRecord>, Vec<EmbeddedRecord>) {
    let mut records: Vec<EmbeddedRecord> = values
        .chunks(3)
        .enumerate()
        .map(|(i, f)| s.embed(&record(i as u64 * 3 + 1, f)).unwrap())
        .collect();
    let probes = records.split_off(40);
    (records, probes)
}

/// The plan `config` compiles formulates, for every probe, exactly the
/// candidates of [`plan_model`] with top-k bound `top_k`.
fn candidate_algebra_equals_set_semantics(
    config: &LinkageConfig,
    top_k: usize,
    seed: u64,
    values: &[String],
) {
    let s = schema(seed, 3);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E7);
    let mut plan = BlockingPlan::from_config(&s, config, &mut rng).unwrap();
    let (indexed, probes) = embedded(&s, values);
    let mut store = HashMap::new();
    for rec in &indexed {
        plan.insert(rec);
        // Every fifth record is in the tables but cannot be retrieved, as
        // after a delete: a NOT cannot verify against it.
        if rec.id % 5 != 0 {
            store.insert(rec.id, rec.clone());
        }
    }
    let rule = &config.rule;
    for probe in &probes {
        let mut cut = false;
        let model = plan_model(
            rule,
            &mut plan.structures().iter(),
            probe,
            &store,
            top_k,
            &mut cut,
        );
        let (ours, ours_cut) = plan.candidates_verified_counted(probe, |id| store.get(&id));
        prop_assert_eq!(&ours, &ascending(model), "top_k {}", top_k);
        prop_assert_eq!(ours_cut, cut);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_positive_rules_compile_and_classify(
        rule in positive_rule(3, 10),
        seed in 0u64..50,
        fields_a in proptest::collection::vec("[A-Z]{2,8}", 3),
        fields_b in proptest::collection::vec("[A-Z]{2,8}", 3),
    ) {
        let s = schema(seed, 3);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABC);
        let mut pipeline = LinkagePipeline::new(
            s.clone(),
            LinkageConfig::rule_aware(rule.clone()),
            &mut rng,
        ).expect("positive rules always compile");
        let a = record(1, &fields_a);
        let b = record(100, &fields_b);
        pipeline.index(std::slice::from_ref(&a)).unwrap();
        let result = pipeline.link(std::slice::from_ref(&b)).unwrap();
        // Soundness: a reported match must satisfy the rule on the shared
        // embedding.
        let ea = s.embed(&a).unwrap();
        let eb = s.embed(&b).unwrap();
        let truth = rule.evaluate(&ea.distances(&eb));
        if result.matches.contains(&(1, 100)) {
            prop_assert!(truth, "reported match violates the rule");
        }
    }

    #[test]
    fn exact_duplicates_always_match(
        rule in positive_rule(3, 10),
        seed in 0u64..50,
        fields in proptest::collection::vec("[A-Z]{2,8}", 3),
    ) {
        // A record and its exact copy have all distances 0, satisfying any
        // positive rule, and collide in every table — the plan must always
        // surface the pair.
        let s = schema(seed, 3);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEF);
        let mut pipeline = LinkagePipeline::new(
            s,
            LinkageConfig::rule_aware(rule),
            &mut rng,
        ).unwrap();
        pipeline.index(&[record(1, &fields)]).unwrap();
        let result = pipeline.link(&[record(100, &fields)]).unwrap();
        prop_assert!(
            result.matches.contains(&(1, 100)),
            "exact duplicate missed"
        );
    }

    #[test]
    fn sorted_candidate_algebra_equals_set_semantics(
        rule in prop_oneof![positive_rule(3, 6), rule_with_not(3, 6)],
        seed in 0u64..50,
        top_k in prop_oneof![0usize..1, 1usize..12],
        // A three-letter alphabet: many near-duplicates, full buckets.
        values in proptest::collection::vec("[A-C]{2,4}", 3 * 45),
    ) {
        let mut config = LinkageConfig::rule_aware(rule);
        config.delta = 0.3;
        config.block.probe_top_k = top_k;
        candidate_algebra_equals_set_semantics(&config, top_k, seed, &values);
    }

    /// The same under CoveringLSH, whose structures ignore the top-k bound
    /// (it would break their zero false negatives). Thresholds up to 5 keep
    /// every fused radius at most 10.
    #[test]
    fn sorted_candidate_algebra_equals_set_semantics_under_covering(
        rule in prop_oneof![positive_rule(3, 5), rule_with_not(3, 5)],
        seed in 0u64..50,
        top_k in prop_oneof![0usize..1, 1usize..12],
        values in proptest::collection::vec("[A-C]{2,4}", 3 * 45),
    ) {
        let mut config = LinkageConfig::covering_rule_aware(rule);
        config.block.probe_top_k = top_k;
        candidate_algebra_equals_set_semantics(&config, 0, seed, &values);
    }

    /// Zero false negatives for rule-aware covering: every indexed record
    /// whose embedding satisfies the rule with the probe's — positive rules
    /// and C3-shaped NOT rules, fused radius at most 10 — is among the
    /// probe's verified candidates.
    #[test]
    fn rule_aware_covering_recall_is_one(
        rule in prop_oneof![positive_rule(3, 5), rule_with_not(3, 5)],
        seed in 0u64..50,
        values in proptest::collection::vec("[A-C]{2,4}", 3 * 45),
    ) {
        let s = schema(seed, 3);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FE);
        let config = LinkageConfig::covering_rule_aware(rule.clone());
        let mut plan = BlockingPlan::from_config(&s, &config, &mut rng).unwrap();
        let (indexed, probes) = embedded(&s, &values);
        let store: HashMap<u64, EmbeddedRecord> =
            indexed.iter().map(|rec| (rec.id, rec.clone())).collect();
        for rec in &indexed {
            plan.insert(rec);
        }
        for probe in &probes {
            let (candidates, _) = plan.candidates_verified_counted(probe, |id| store.get(&id));
            for rec in &indexed {
                if rule.evaluate(&rec.distances(probe)) {
                    prop_assert!(
                        candidates.contains(&rec.id),
                        "{} satisfies {} with {} but is no candidate", rec.id, rule, probe.id
                    );
                }
            }
        }
    }

    #[test]
    fn parsed_rules_equal_constructed(
        a0 in 0usize..3, t0 in 1u32..15,
        a1 in 0usize..3, t1 in 1u32..15,
    ) {
        let text = format!("{a0}<={t0} & !({a1}<={t1})");
        let parsed = record_linkage::cbv_hb::parse_rule(&text).unwrap();
        let built = Rule::and([
            Rule::pred(a0, t0),
            Rule::not(Rule::pred(a1, t1)),
        ]);
        prop_assert_eq!(parsed, built);
    }
}

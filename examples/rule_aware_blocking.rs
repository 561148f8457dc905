//! Rule-aware blocking in action (§5.4): the same classification rule,
//! compiled three ways, and what the blocking plan looks like for each of
//! the paper's rule shapes C1, C2, C3.
//!
//! ```text
//! cargo run --release --example rule_aware_blocking
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use record_linkage::cbv_hb::blocking::BlockingPlan;
use record_linkage::cbv_hb::AttributeSpec;
use record_linkage::prelude::*;

fn main() {
    let mut rng = StdRng::seed_from_u64(5);
    let schema = RecordSchema::build(
        Alphabet::linkage(),
        vec![
            AttributeSpec::sized_for("FirstName", 2, 5.1, 1.0, 1.0 / 3.0, false, 5),
            AttributeSpec::sized_for("LastName", 2, 5.0, 1.0, 1.0 / 3.0, false, 5),
            AttributeSpec::sized_for("Address", 2, 20.0, 1.0, 1.0 / 3.0, false, 10),
            AttributeSpec::sized_for("Town", 2, 7.2, 1.0, 1.0 / 3.0, false, 10),
        ],
        &mut rng,
    );

    let rules: Vec<(&str, Rule)> = vec![
        (
            "C1 = (u0<=4) AND (u1<=4) AND (u2<=8)",
            Rule::and([Rule::pred(0, 4), Rule::pred(1, 4), Rule::pred(2, 8)]),
        ),
        (
            "C2 = [(u0<=4) AND (u1<=4)] OR (u2<=8)",
            Rule::or([
                Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]),
                Rule::pred(2, 8),
            ]),
        ),
        (
            "C3 = (u0<=4) AND NOT(u1<=4)",
            Rule::and([Rule::pred(0, 4), Rule::not(Rule::pred(1, 4))]),
        ),
    ];

    for (label, rule) in &rules {
        let config = LinkageConfig::rule_aware(rule.clone());
        let plan =
            BlockingPlan::from_config(&schema, &config, &mut rng).expect("paper rules compile");
        println!("\n{label}");
        for s in plan.structures() {
            println!(
                "  structure {:<40} L = {:>3}  p_collide/table = {:.4}",
                s.label(),
                s.l(),
                s.p_collide()
            );
        }
        println!("  total hash tables: {}", plan.total_tables());
    }

    // Demonstrate the C3 semantics end-to-end: find people whose first
    // name matches but whose last name clearly does not (e.g. married-name
    // tracing).
    println!("\nC3 end-to-end: first name close, last name NOT close");
    let rule = rules[2].1.clone();
    let mut pipeline =
        LinkagePipeline::new(schema, LinkageConfig::rule_aware(rule), &mut rng).expect("valid");
    pipeline
        .index(&[
            Record::new(1, ["MARTHA", "JONES", "1 OAK ST", "CARY"]),
            Record::new(2, ["MARTHA", "SMITH", "2 ELM ST", "APEX"]),
        ])
        .unwrap();
    let result = pipeline
        .link(&[Record::new(10, ["MARTHA", "SMITH", "9 PINE RD", "BOONE"])])
        .unwrap();
    // Record 2 shares the last name → excluded by the NOT during *blocking*;
    // record 1 is the C3 match.
    println!("matches: {:?}", result.matches);
    assert_eq!(result.matches, vec![(1, 10)]);
}

//! Classification rules over per-attribute distance thresholds
//! (Section 5.4).
//!
//! A rule is a boolean combination of predicates `u^(f_i) ≤ θ^(f_i)`. During
//! the matching step a rule classifies candidate pairs; during the blocking
//! step the rule is *compiled* (see [`crate::blocking`]) into attribute-level
//! blocking structures so that candidate pairs are formulated according to
//! the rule's logic — the paper's key contribution over record-level LSH.

use crate::error::{Error, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One threshold predicate: `u^(f_attr) ≤ theta` in Ĥ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pred {
    /// Attribute index into the schema.
    pub attr: usize,
    /// Hamming distance threshold `θ^(f_i)` in Ĥ.
    pub theta: u32,
}

/// A classification rule: a boolean expression over threshold predicates.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Rule {
    /// `u^(f_i) ≤ θ`.
    Pred(Pred),
    /// Conjunction (Definition 4).
    And(Vec<Rule>),
    /// Disjunction (Definition 5).
    Or(Vec<Rule>),
    /// Negation (Definition 6).
    Not(Box<Rule>),
}

impl Rule {
    /// Convenience constructor for a predicate leaf.
    pub fn pred(attr: usize, theta: u32) -> Self {
        Rule::Pred(Pred { attr, theta })
    }

    /// Convenience constructor for a conjunction.
    pub fn and<I: IntoIterator<Item = Rule>>(rules: I) -> Self {
        Rule::And(rules.into_iter().collect())
    }

    /// Convenience constructor for a disjunction.
    pub fn or<I: IntoIterator<Item = Rule>>(rules: I) -> Self {
        Rule::Or(rules.into_iter().collect())
    }

    /// Convenience constructor for a negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(rule: Rule) -> Self {
        Rule::Not(Box::new(rule))
    }

    /// Evaluates the rule against per-attribute distances.
    ///
    /// # Panics
    /// Panics if a predicate references an attribute beyond
    /// `distances.len()` — validate the rule against the schema first.
    pub fn evaluate(&self, distances: &[u32]) -> bool {
        self.evaluate_with(&|attr| distances[attr])
    }

    /// Evaluates the rule, asking `distance(attr)` for an attribute's
    /// distance only when a predicate on it is reached: AND and OR stop at
    /// the first child that decides them, so a candidate pair costs the
    /// popcounts its rule needs and no vector of all of them.
    ///
    /// # Panics
    /// Whatever `distance` does for an attribute it does not know —
    /// validate the rule against the schema first.
    pub fn evaluate_with(&self, distance: &impl Fn(usize) -> u32) -> bool {
        match self {
            Rule::Pred(p) => distance(p.attr) <= p.theta,
            Rule::And(rs) => rs.iter().all(|r| r.evaluate_with(distance)),
            Rule::Or(rs) => rs.iter().any(|r| r.evaluate_with(distance)),
            Rule::Not(r) => !r.evaluate_with(distance),
        }
    }

    /// All predicates in the rule, in syntax order.
    pub fn predicates(&self) -> Vec<Pred> {
        let mut out = Vec::new();
        self.collect_preds(&mut out);
        out
    }

    fn collect_preds(&self, out: &mut Vec<Pred>) {
        match self {
            Rule::Pred(p) => out.push(*p),
            Rule::And(rs) | Rule::Or(rs) => rs.iter().for_each(|r| r.collect_preds(out)),
            Rule::Not(r) => r.collect_preds(out),
        }
    }

    /// Checks structural validity against a schema of `num_attributes`
    /// attributes with c-vector sizes `sizes`:
    ///
    /// * every predicate's attribute index is in range and its threshold
    ///   does not exceed the attribute's c-vector size;
    /// * `And` / `Or` nodes have at least one child;
    /// * negations appear only beneath a conjunction that also has at least
    ///   one non-negated child (a bare or top-level NOT admits an unbounded
    ///   candidate set — the paper's C3 is the canonical valid shape);
    /// * `Or` children are not negations.
    pub fn validate(&self, sizes: &[usize]) -> Result<()> {
        self.validate_node(sizes, false)
    }

    fn validate_node(&self, sizes: &[usize], under_and: bool) -> Result<()> {
        match self {
            Rule::Pred(p) => {
                if p.attr >= sizes.len() {
                    return Err(Error::AttributeOutOfRange {
                        attr: p.attr,
                        num_attributes: sizes.len(),
                    });
                }
                if p.theta as usize > sizes[p.attr] {
                    return Err(Error::ThresholdTooLarge {
                        attr: p.attr,
                        theta: p.theta,
                        m: sizes[p.attr],
                    });
                }
                Ok(())
            }
            Rule::And(rs) => {
                if rs.is_empty() {
                    return Err(Error::InvalidRule("empty AND".into()));
                }
                let positives = rs.iter().filter(|r| !matches!(r, Rule::Not(_))).count();
                if positives == 0 {
                    return Err(Error::InvalidRule(
                        "AND must contain at least one non-negated conjunct".into(),
                    ));
                }
                for r in rs {
                    match r {
                        Rule::Not(inner) => inner.validate_node(sizes, false)?,
                        other => other.validate_node(sizes, true)?,
                    }
                }
                Ok(())
            }
            Rule::Or(rs) => {
                if rs.is_empty() {
                    return Err(Error::InvalidRule("empty OR".into()));
                }
                for r in rs {
                    if matches!(r, Rule::Not(_)) {
                        return Err(Error::InvalidRule(
                            "negations under OR are not blockable; rewrite the rule".into(),
                        ));
                    }
                    r.validate_node(sizes, false)?;
                }
                Ok(())
            }
            Rule::Not(_) => {
                let _ = under_and;
                Err(Error::InvalidRule(
                    "NOT is only valid as a direct conjunct of an AND (as in rule C3)".into(),
                ))
            }
        }
    }
}

/// How tightly a rule node binds, mirroring the parser's precedence
/// (`!` > `&` > `|`). Used by [`Rule`]'s `Display` to decide where
/// parentheses are required for the printed text to reparse to the same
/// tree.
fn binding(rule: &Rule) -> u8 {
    match rule {
        Rule::Or(_) => 0,
        Rule::And(_) => 1,
        Rule::Not(_) | Rule::Pred(_) => 2,
    }
}

impl fmt::Display for Rule {
    /// Prints the rule in the [`crate::parse_rule`] DSL, e.g.
    /// `0<=4 & !(1<=4)`. For any rule the parser can produce, the printed
    /// text reparses to the identical tree (`parse → print → parse` is the
    /// identity); connectives with fewer than two children — constructible
    /// via [`Rule::and`] / [`Rule::or`] but outside the parser's image —
    /// print their children directly and reparse to an equivalent,
    /// unwrapped rule.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // A child is parenthesized when it binds no tighter than its
        // parent: same-strength nesting (an And directly under an And)
        // only arises from explicit parens in the source text.
        fn child(f: &mut fmt::Formatter<'_>, c: &Rule, parent: u8) -> fmt::Result {
            if binding(c) <= parent {
                write!(f, "({c})")
            } else {
                write!(f, "{c}")
            }
        }
        match self {
            Rule::Pred(p) => write!(f, "{}<={}", p.attr, p.theta),
            Rule::And(rs) => {
                for (i, r) in rs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    child(f, r, binding(self))?;
                }
                Ok(())
            }
            Rule::Or(rs) => {
                for (i, r) in rs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    child(f, r, binding(self))?;
                }
                Ok(())
            }
            Rule::Not(r) => {
                write!(f, "!")?;
                // `!` applies to a factor: predicates and nested negations
                // stand bare, connectives need parens.
                match &**r {
                    Rule::Pred(_) | Rule::Not(_) => write!(f, "{r}"),
                    other => write!(f, "({other})"),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's experimental rules (Section 6.2) over 4 attributes.
    fn c1() -> Rule {
        Rule::and([Rule::pred(0, 4), Rule::pred(1, 4), Rule::pred(2, 8)])
    }

    fn c2() -> Rule {
        Rule::or([
            Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]),
            Rule::pred(2, 8),
        ])
    }

    fn c3() -> Rule {
        Rule::and([Rule::pred(0, 4), Rule::not(Rule::pred(1, 4))])
    }

    const SIZES: [usize; 4] = [15, 15, 68, 22];

    #[test]
    fn c1_evaluation() {
        assert!(c1().evaluate(&[4, 4, 8, 99]));
        assert!(!c1().evaluate(&[5, 4, 8, 0]));
        assert!(!c1().evaluate(&[4, 4, 9, 0]));
    }

    #[test]
    fn evaluation_reads_only_the_distances_it_reaches() {
        use std::cell::RefCell;
        let asked = &RefCell::new(Vec::new());
        let distance = |d: [u32; 4]| {
            move |attr: usize| {
                asked.borrow_mut().push(attr);
                d[attr]
            }
        };
        // C1 fails on its first conjunct: the other two are never read.
        assert!(!c1().evaluate_with(&distance([5, 0, 0, 0])));
        assert_eq!(asked.take(), vec![0]);
        // C2's first disjunct holds: the address is never read.
        assert!(c2().evaluate_with(&distance([0, 0, 99, 0])));
        assert_eq!(asked.take(), vec![0, 1]);
        assert!(c3().evaluate_with(&distance([4, 5, 0, 0])));
        assert_eq!(asked.take(), vec![0, 1]);
    }

    #[test]
    fn c2_evaluation() {
        // Either both names match, or the address matches.
        assert!(c2().evaluate(&[0, 0, 99, 0]));
        assert!(c2().evaluate(&[99, 99, 8, 0]));
        assert!(!c2().evaluate(&[99, 0, 9, 0]));
    }

    #[test]
    fn c3_evaluation() {
        // First name close AND last name NOT close.
        assert!(c3().evaluate(&[4, 5, 0, 0]));
        assert!(!c3().evaluate(&[4, 4, 0, 0]));
        assert!(!c3().evaluate(&[5, 5, 0, 0]));
    }

    #[test]
    fn valid_rules_pass_validation() {
        assert!(c1().validate(&SIZES).is_ok());
        assert!(c2().validate(&SIZES).is_ok());
        assert!(c3().validate(&SIZES).is_ok());
    }

    #[test]
    fn compound_c1_paper_shape() {
        // §5.4's C1: (f1 ∧ f2) ∨ (f3 ∧ f4).
        let r = Rule::or([
            Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]),
            Rule::and([Rule::pred(2, 8), Rule::pred(3, 4)]),
        ]);
        assert!(r.validate(&SIZES).is_ok());
        assert!(r.evaluate(&[0, 0, 99, 99]));
        assert!(r.evaluate(&[99, 99, 1, 1]));
        assert!(!r.evaluate(&[0, 99, 99, 0]));
    }

    #[test]
    fn bare_not_is_rejected() {
        let r = Rule::not(Rule::pred(0, 4));
        assert!(matches!(r.validate(&SIZES), Err(Error::InvalidRule(_))));
    }

    #[test]
    fn not_under_or_is_rejected() {
        let r = Rule::or([Rule::pred(0, 4), Rule::not(Rule::pred(1, 4))]);
        assert!(matches!(r.validate(&SIZES), Err(Error::InvalidRule(_))));
    }

    #[test]
    fn and_of_only_negations_is_rejected() {
        let r = Rule::and([Rule::not(Rule::pred(0, 4)), Rule::not(Rule::pred(1, 4))]);
        assert!(matches!(r.validate(&SIZES), Err(Error::InvalidRule(_))));
    }

    #[test]
    fn out_of_range_attribute_is_rejected() {
        let r = Rule::pred(9, 4);
        assert!(matches!(
            r.validate(&SIZES),
            Err(Error::AttributeOutOfRange { attr: 9, .. })
        ));
    }

    #[test]
    fn oversized_threshold_is_rejected() {
        let r = Rule::pred(0, 16);
        assert!(matches!(
            r.validate(&SIZES),
            Err(Error::ThresholdTooLarge { .. })
        ));
    }

    #[test]
    fn empty_connectives_are_rejected() {
        assert!(Rule::and([]).validate(&SIZES).is_err());
        assert!(Rule::or([]).validate(&SIZES).is_err());
    }

    #[test]
    fn predicates_collects_in_order() {
        let ps = c2().predicates();
        assert_eq!(ps.len(), 3);
        assert_eq!(ps[0].attr, 0);
        assert_eq!(ps[2].attr, 2);
    }

    #[test]
    fn display_prints_parser_dsl() {
        assert_eq!(Rule::pred(0, 4).to_string(), "0<=4");
        assert_eq!(c1().to_string(), "0<=4 & 1<=4 & 2<=8");
        // `&` binds tighter than `|`, so C2 needs no parentheses.
        assert_eq!(c2().to_string(), "0<=4 & 1<=4 | 2<=8");
        assert_eq!(c3().to_string(), "0<=4 & !1<=4");
        // Explicitly nested connectives keep their parens.
        let nested = Rule::or([
            Rule::or([Rule::pred(0, 1), Rule::pred(1, 2)]),
            Rule::pred(2, 3),
        ]);
        assert_eq!(nested.to_string(), "(0<=1 | 1<=2) | 2<=3");
        let double_neg = Rule::not(Rule::not(Rule::pred(0, 1)));
        assert_eq!(double_neg.to_string(), "!!0<=1");
        let not_conj = Rule::and([
            Rule::pred(0, 4),
            Rule::not(Rule::and([Rule::pred(1, 4), Rule::pred(2, 8)])),
        ]);
        assert_eq!(not_conj.to_string(), "0<=4 & !(1<=4 & 2<=8)");
    }

    #[test]
    fn de_morgan_consistency() {
        // ¬(a ∧ b) ≡ ¬a ∨ ¬b at evaluation level.
        let a = Rule::pred(0, 4);
        let b = Rule::pred(1, 4);
        let lhs = Rule::not(Rule::and([a.clone(), b.clone()]));
        let rhs = Rule::or([Rule::not(a), Rule::not(b)]);
        for d in [[0u32, 0, 0, 0], [9, 0, 0, 0], [0, 9, 0, 0], [9, 9, 0, 0]] {
            assert_eq!(lhs.evaluate(&d), rhs.evaluate(&d));
        }
    }
}

//! A small text syntax for classification rules.
//!
//! Grammar (usual precedence: `!` binds tightest, then `&`, then `|`):
//!
//! ```text
//! expr   := term ('|' term)*
//! term   := factor ('&' factor)*
//! factor := '!' factor | '(' expr ')' | pred
//! pred   := <attr> '<=' <theta>        e.g. 0<=4
//! ```
//!
//! Examples of the paper's rules:
//!
//! * C1: `0<=4 & 1<=4 & 2<=8`
//! * C2: `(0<=4 & 1<=4) | 2<=8`
//! * C3: `0<=4 & !(1<=4)`
//!
//! Nesting is bounded: at most [`MAX_RULE_DEPTH`] `(` and `!` may enclose
//! one another, so text read off a socket cannot recurse the parser off
//! its stack.

use crate::error::{Error, Result};
use crate::rule::Rule;

/// The deepest nesting of `(` and `!` a rule may have. Deeper text is an
/// [`Error::InvalidRule`].
pub const MAX_RULE_DEPTH: usize = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Token {
    Number(u64),
    Le,
    And,
    Or,
    Not,
    LParen,
    RParen,
}

fn tokenize(input: &str) -> Result<Vec<Token>> {
    let mut out = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            ' ' | '\t' | '\n' => {
                chars.next();
            }
            '&' => {
                chars.next();
                out.push(Token::And);
            }
            '|' => {
                chars.next();
                out.push(Token::Or);
            }
            '!' => {
                chars.next();
                out.push(Token::Not);
            }
            '(' => {
                chars.next();
                out.push(Token::LParen);
            }
            ')' => {
                chars.next();
                out.push(Token::RParen);
            }
            '<' => {
                chars.next();
                if chars.next() != Some('=') {
                    return Err(Error::InvalidRule("expected '<=' in predicate".into()));
                }
                out.push(Token::Le);
            }
            '0'..='9' => {
                let mut n: u64 = 0;
                while let Some(&d) = chars.peek() {
                    let Some(v) = d.to_digit(10) else { break };
                    n = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add(u64::from(v)))
                        .ok_or_else(|| Error::InvalidRule("number too large".into()))?;
                    chars.next();
                }
                out.push(Token::Number(n));
            }
            other => {
                return Err(Error::InvalidRule(format!(
                    "unexpected character {other:?} in rule"
                )))
            }
        }
    }
    Ok(out)
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    /// The `(` and `!` enclosing the token at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<Token> {
        self.tokens.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expr(&mut self) -> Result<Rule> {
        let mut terms = vec![self.term()?];
        while self.peek() == Some(Token::Or) {
            self.next();
            terms.push(self.term()?);
        }
        Ok(if terms.len() == 1 {
            terms.pop().expect("non-empty")
        } else {
            Rule::Or(terms)
        })
    }

    fn term(&mut self) -> Result<Rule> {
        let mut factors = vec![self.factor()?];
        while self.peek() == Some(Token::And) {
            self.next();
            factors.push(self.factor()?);
        }
        Ok(if factors.len() == 1 {
            factors.pop().expect("non-empty")
        } else {
            Rule::And(factors)
        })
    }

    fn factor(&mut self) -> Result<Rule> {
        match self.next() {
            Some(Token::Not) => self.nested(|p| p.factor().map(Rule::not)),
            Some(Token::LParen) => self.nested(|p| {
                let inner = p.expr()?;
                if p.next() != Some(Token::RParen) {
                    return Err(Error::InvalidRule("missing ')'".into()));
                }
                Ok(inner)
            }),
            Some(Token::Number(attr)) => {
                if self.next() != Some(Token::Le) {
                    return Err(Error::InvalidRule("expected '<=' after attribute".into()));
                }
                match self.next() {
                    Some(Token::Number(theta)) => {
                        let theta = u32::try_from(theta)
                            .map_err(|_| Error::InvalidRule("threshold exceeds u32".into()))?;
                        Ok(Rule::pred(attr as usize, theta))
                    }
                    _ => Err(Error::InvalidRule("expected threshold number".into())),
                }
            }
            other => Err(Error::InvalidRule(format!(
                "unexpected token {other:?}; expected predicate, '!' or '('"
            ))),
        }
    }

    /// Parses what one more `(` or `!` encloses, refusing to go deeper
    /// than [`MAX_RULE_DEPTH`].
    fn nested(&mut self, parse: impl FnOnce(&mut Self) -> Result<Rule>) -> Result<Rule> {
        if self.depth == MAX_RULE_DEPTH {
            return Err(Error::InvalidRule(format!(
                "rule nests '(' and '!' deeper than {MAX_RULE_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let rule = parse(self);
        self.depth -= 1;
        rule
    }
}

/// Parses a rule expression such as `"0<=4 & !(1<=4)"`.
///
/// The result is *syntactically* valid; call [`Rule::validate`] against a
/// schema before use.
///
/// ```
/// use cbv_hb::parse_rule;
/// let c2 = parse_rule("(0<=4 & 1<=4) | 2<=8").unwrap();
/// assert!(c2.evaluate(&[0, 0, 99]));  // names match
/// assert!(c2.evaluate(&[99, 99, 8])); // address matches
/// assert!(!c2.evaluate(&[99, 0, 9])); // neither side holds
/// ```
///
/// # Errors
/// Returns [`Error::InvalidRule`] on malformed input, and on input that
/// nests deeper than [`MAX_RULE_DEPTH`].
pub fn parse_rule(input: &str) -> Result<Rule> {
    let tokens = tokenize(input)?;
    if tokens.is_empty() {
        return Err(Error::InvalidRule("empty rule".into()));
    }
    let mut p = Parser {
        tokens: &tokens,
        pos: 0,
        depth: 0,
    };
    let rule = p.expr()?;
    if p.pos != tokens.len() {
        return Err(Error::InvalidRule("trailing input after rule".into()));
    }
    Ok(rule)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_predicate() {
        assert_eq!(parse_rule("0<=4").unwrap(), Rule::pred(0, 4));
        assert_eq!(parse_rule(" 12 <= 34 ").unwrap(), Rule::pred(12, 34));
    }

    #[test]
    fn paper_c1() {
        let r = parse_rule("0<=4 & 1<=4 & 2<=8").unwrap();
        assert_eq!(
            r,
            Rule::and([Rule::pred(0, 4), Rule::pred(1, 4), Rule::pred(2, 8)])
        );
    }

    #[test]
    fn paper_c2_with_parens() {
        let r = parse_rule("(0<=4 & 1<=4) | 2<=8").unwrap();
        assert_eq!(
            r,
            Rule::or([
                Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]),
                Rule::pred(2, 8)
            ])
        );
    }

    #[test]
    fn paper_c3_with_not() {
        let r = parse_rule("0<=4 & !(1<=4)").unwrap();
        assert_eq!(
            r,
            Rule::and([Rule::pred(0, 4), Rule::not(Rule::pred(1, 4))])
        );
    }

    #[test]
    fn precedence_and_binds_tighter_than_or() {
        let r = parse_rule("0<=1 | 1<=2 & 2<=3").unwrap();
        assert_eq!(
            r,
            Rule::or([
                Rule::pred(0, 1),
                Rule::and([Rule::pred(1, 2), Rule::pred(2, 3)])
            ])
        );
    }

    #[test]
    fn nested_parens_and_double_negation() {
        let r = parse_rule("!!((0<=1))").unwrap();
        assert_eq!(r, Rule::not(Rule::not(Rule::pred(0, 1))));
    }

    #[test]
    fn evaluation_of_parsed_rule() {
        let r = parse_rule("(0<=4 & 1<=4) | 2<=8").unwrap();
        assert!(r.evaluate(&[0, 0, 99]));
        assert!(r.evaluate(&[99, 99, 8]));
        assert!(!r.evaluate(&[99, 0, 9]));
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            "",
            "0<4",
            "0<=",
            "<=4",
            "0<=4 &",
            "& 0<=4",
            "(0<=4",
            "0<=4)",
            "0<=4 1<=4",
            "a<=4",
            "0<=4 ; 1<=4",
            "99999999999999999999<=4",
        ] {
            assert!(parse_rule(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn roundtrips_through_validate() {
        let r = parse_rule("0<=4 & !(1<=4)").unwrap();
        assert!(r.validate(&[15, 15]).is_ok());
        assert!(r.validate(&[15]).is_err()); // attr 1 out of range
    }

    /// Satellite: the error *messages* on each malformed-input class, not
    /// just the fact of rejection — these strings travel to `rl client
    /// watch` users verbatim.
    #[test]
    fn error_paths_carry_specific_messages() {
        let msg = |input: &str| match parse_rule(input) {
            Err(Error::InvalidRule(m)) => m,
            other => panic!("{input:?}: expected InvalidRule, got {other:?}"),
        };
        // Unbalanced parens, both directions.
        assert_eq!(msg("(0<=4"), "missing ')'");
        assert_eq!(msg("0<=4)"), "trailing input after rule");
        assert_eq!(msg("((0<=4 & 1<=4)"), "missing ')'");
        // Attribute names are numeric indices; letters are unknown.
        assert!(msg("name<=4").contains("unexpected character 'n'"));
        assert!(msg("0<=x").contains("unexpected character 'x'"));
        // Empty input and empty connective arms.
        assert_eq!(msg(""), "empty rule");
        assert!(msg("0<=4 &").contains("unexpected token"));
        assert!(msg("| 1<=4").contains("unexpected token"));
        assert!(msg("0<=4 | | 1<=4").contains("unexpected token"));
        assert!(msg("()").contains("unexpected token"));
    }

    /// Nesting past [`MAX_RULE_DEPTH`] is a typed error, not a stack
    /// overflow: a megabyte of `(` and a megabyte of `!`, which the
    /// unbounded parser recursed through until a 2 MiB thread overflowed,
    /// are refused on such a thread, and the deepest rule allowed parses.
    #[test]
    fn nesting_deeper_than_the_bound_is_refused() {
        let on_small_stack = std::thread::Builder::new().stack_size(2 << 20);
        on_small_stack
            .spawn(|| {
                let depth_error = |text: &str| match parse_rule(text) {
                    Err(Error::InvalidRule(m)) => assert!(m.contains("deeper than 128"), "{m}"),
                    other => panic!("expected the nesting bound, got {other:?}"),
                };
                depth_error(&"(".repeat(1 << 20));
                depth_error(&"!".repeat(1 << 20));
                let half = MAX_RULE_DEPTH / 2;
                let deepest = format!("{}0<=1{}", "!(".repeat(half), ")".repeat(half));
                let mut expected = Rule::pred(0, 1);
                for _ in 0..half {
                    expected = Rule::not(expected);
                }
                assert_eq!(parse_rule(&deepest).unwrap(), expected);
                depth_error(&format!("!{deepest}"));
                depth_error(&format!("({deepest})"));
            })
            .unwrap()
            .join()
            .unwrap();
    }

    /// Satellite: a threshold above the attribute's c-vector size parses
    /// (the grammar is schema-agnostic) but fails validation with the
    /// typed error.
    #[test]
    fn oversized_threshold_rejected_by_validation() {
        let r = parse_rule("0<=200").unwrap();
        assert!(matches!(
            r.validate(&[15, 15]),
            Err(Error::ThresholdTooLarge {
                attr: 0,
                theta: 200,
                m: 15
            })
        ));
    }

    mod roundtrip {
        use super::*;
        use proptest::prelude::*;

        /// Strategy over the parser's image: predicates combined by `!`,
        /// n-ary `&` / `|` with at least two children. Every such tree is
        /// reachable from text (parens force any nesting), so
        /// parse(print(r)) must equal `r` exactly.
        fn parser_shaped_rule() -> impl Strategy<Value = Rule> {
            let pred = (0usize..6, 0u32..300).prop_map(|(a, t)| Rule::pred(a, t));
            pred.prop_recursive(3, 24, 4, |inner| {
                prop_oneof![
                    proptest::collection::vec(inner.clone(), 2..4).prop_map(Rule::And),
                    proptest::collection::vec(inner.clone(), 2..4).prop_map(Rule::Or),
                    inner.prop_map(Rule::not),
                ]
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn parse_print_parse_is_identity(rule in parser_shaped_rule()) {
                let printed = rule.to_string();
                let reparsed = parse_rule(&printed)
                    .unwrap_or_else(|e| panic!("printed rule {printed:?} must reparse: {e}"));
                prop_assert_eq!(&reparsed, &rule, "print: {}", printed);
                // And printing is a fixed point from there on.
                prop_assert_eq!(reparsed.to_string(), printed);
            }
        }
    }
}

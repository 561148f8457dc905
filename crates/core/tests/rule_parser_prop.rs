//! `parse_rule` on arbitrary text: rule text arrives off a socket
//! (`SubscribeMatches`), so every input must come back `Ok` or as the typed
//! `Error::InvalidRule` — never a panic or a stack overflow — and every
//! rule it accepts must print to text that parses back to the same rule.
//!
//! The inputs: arbitrary bytes read as UTF-8, printable ASCII, strings of
//! the grammar's own tokens (and near-misses: `<`, `=`, letters, numbers
//! past `u32` and `u64`), and nestings of `(`, `!` and `!(` on either side
//! of `MAX_RULE_DEPTH`. Each property runs on a 2 MiB thread, the stack a
//! server's connection thread has.

use cbv_hb::rule_parser::MAX_RULE_DEPTH;
use cbv_hb::{parse_rule, Error};
use proptest::prelude::*;

/// Parses `text` on a 2 MiB stack and checks the verdict: a typed error,
/// or a rule whose printed form re-parses to it.
fn parses_or_refuses(text: String) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || match parse_rule(&text) {
            Ok(rule) => {
                let printed = rule.to_string();
                match parse_rule(&printed) {
                    Ok(again) => assert_eq!(again, rule, "{text:?} printed as {printed:?}"),
                    Err(e) => panic!("{text:?} printed as {printed:?}, which fails: {e}"),
                }
            }
            Err(Error::InvalidRule(_)) => {}
            Err(other) => panic!("{text:?}: an untyped refusal {other:?}"),
        })
        .unwrap()
        .join()
        .unwrap();
}

/// What a unit of [`token_text`] is built from: the grammar's words and
/// their near-misses — a bare `<`, a missing threshold, letters, numbers
/// past `u32` and `u64`, doubled and stray connectives.
const JOINS: [&str; 9] = [" & ", " | ", "&", "|", " ", "&&", ")", "(", "!"];
const PREFIXES: [&str; 8] = ["", "", "", "!", "(", "!(", "((", " "];
const ATOMS: [&str; 11] = [
    "0<=4",
    "1<=0",
    "12<=3",
    "3<=4294967295",
    "0<=4294967296",
    "99999999999999999999<=1",
    "x<=1",
    "0<4",
    "0<=",
    "Ω",
    "",
];
const SUFFIXES: [&str; 6] = ["", "", "", ")", "))", " "];

/// Up to eight units `join prefix atom suffix`: mostly rule-shaped text,
/// often a near-miss.
fn token_text() -> impl Strategy<Value = String> {
    let unit = (
        0..JOINS.len(),
        0..PREFIXES.len(),
        0..ATOMS.len(),
        0..SUFFIXES.len(),
    );
    proptest::collection::vec(unit, 0..8).prop_map(|units| {
        let mut text = String::new();
        for (i, (join, prefix, atom, suffix)) in units.into_iter().enumerate() {
            if i > 0 {
                text.push_str(JOINS[join]);
            }
            text.push_str(PREFIXES[prefix]);
            text.push_str(ATOMS[atom]);
            text.push_str(SUFFIXES[suffix]);
        }
        text
    })
}

/// `depth` openers around a predicate, closed or not: `(`, `!`, or `!(`.
fn nested_text() -> impl Strategy<Value = String> {
    let bound = MAX_RULE_DEPTH;
    (0..3usize, bound - 4..bound + 4, any::<bool>()).prop_map(|(kind, depth, closed)| {
        let (open, close) = [("(", ")"), ("!", ""), ("!(", ")")][kind];
        let depth = if kind == 2 { depth / 2 } else { depth };
        let tail = if closed {
            close.repeat(depth)
        } else {
            String::new()
        };
        format!("{}0<=1 & 1<=2{tail}", open.repeat(depth))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn arbitrary_bytes_parse_or_are_refused(bytes in proptest::collection::vec(any::<u8>(), 0..48)) {
        parses_or_refuses(String::from_utf8_lossy(&bytes).into_owned());
    }

    #[test]
    fn printable_ascii_parses_or_is_refused(text in "[ -~]{0,48}") {
        parses_or_refuses(text);
    }

    #[test]
    fn token_strings_parse_or_are_refused(text in token_text()) {
        parses_or_refuses(text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn nesting_on_either_side_of_the_bound_parses_or_is_refused(text in nested_text()) {
        parses_or_refuses(text);
    }
}

/// The token strategy reaches both verdicts, and nesting is refused past
/// the bound and accepted within it: the properties above are not
/// vacuous.
#[test]
fn the_inputs_reach_both_verdicts() {
    let mut rng = proptest::__runner::rng_for("the_inputs_reach_both_verdicts");
    let texts: Vec<String> = (0..2_000)
        .map(|_| token_text().generate(&mut rng))
        .collect();
    let accepted = texts.iter().filter(|t| parse_rule(t).is_ok()).count();
    assert!(
        accepted > 20 && accepted < texts.len() / 2,
        "{accepted} accepted"
    );
    let nest = |n: usize| format!("{}0<=1{}", "(".repeat(n), ")".repeat(n));
    assert!(parse_rule(&nest(MAX_RULE_DEPTH)).is_ok());
    assert!(parse_rule(&nest(MAX_RULE_DEPTH + 1)).is_err());
}

//! The two text front ends never panic: `Cfg::parse` (then `to_wcnf`)
//! and `TripleSet::parse` (then `to_graph`) answer `Ok` or `Err` on any
//! string drawn from their token alphabets — well-formed lines, lines
//! with a broken or doubled arrow, a missing or two-word left-hand side,
//! stray `|`, `eps`/`ε`, comments, tabs and carriage returns.

use cfpq::grammar::cnf::CnfOptions;
use cfpq::grammar::Cfg;
use cfpq::graph::TripleSet;
use proptest::prelude::*;
use std::panic::catch_unwind;

const RNG_SEED: u64 = 0x9A25_E125;

/// What may stand left of the arrow, the arrow, and right of it.
const LHS: &[&str] = &["S", "A", "B", "", "S A", "#", "ε", "a"];
const ARROWS: &[&str] = &["->", "->", "->", "-", ">", "", "->->", "|", "- >"];
const RHS: &[&str] = &[
    "S", "A", "B", "a", "b", "c", "|", "|", "eps", "ε", "#", "->", "", "\t", "S#", "\r",
];

/// Triple fields and what may separate them.
const FIELDS: &[&str] = &["s", "p", "o", "p_r", "#", "a#b", "ε", "", "x y"];
const SEPARATORS: &[&str] = &[" ", " ", "\t", "  ", "", "\r"];

/// Joins `lines` of picks into one text, each line its own pieces.
fn text(lines: impl Iterator<Item = String>) -> String {
    lines.collect::<Vec<_>>().join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(3000, RNG_SEED))]

    #[test]
    fn grammar_text_parses_or_errs(
        lines in prop::collection::vec(
            (0..LHS.len(), 0..ARROWS.len(), prop::collection::vec(0..RHS.len(), 0..6)),
            0..6,
        ),
    ) {
        let grammar = text(lines.iter().map(|(lhs, arrow, rhs)| {
            let rhs: Vec<&str> = rhs.iter().map(|&t| RHS[t]).collect();
            format!("{} {} {}", LHS[*lhs], ARROWS[*arrow], rhs.join(" "))
        }));
        let outcome = catch_unwind(|| {
            Cfg::parse(&grammar).map(|cfg| cfg.to_wcnf(CnfOptions::default()).is_ok())
        });
        prop_assert!(outcome.is_ok(), "panicked on {:?}", grammar);
    }

    #[test]
    fn triple_text_parses_or_errs(
        lines in prop::collection::vec(
            prop::collection::vec((0..FIELDS.len(), 0..SEPARATORS.len()), 0..5),
            0..6,
        ),
    ) {
        let triples = text(lines.iter().map(|line| {
            line.iter()
                .map(|&(field, sep)| format!("{}{}", FIELDS[field], SEPARATORS[sep]))
                .collect()
        }));
        let outcome = catch_unwind(|| TripleSet::parse(&triples).map(|set| set.to_graph().n_edges()));
        prop_assert!(outcome.is_ok(), "panicked on {:?}", triples);
    }
}

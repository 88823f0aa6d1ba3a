//! Deterministic random grammar and word generators for property tests.
//!
//! Cross-implementation equivalence testing (`tests/equivalence.rs`)
//! needs many random-but-reproducible weak-CNF grammars and, for
//! string-level oracles, words that are *guaranteed members* of the
//! generated language (sampled by random derivation with a size budget).

use crate::symbol::{Nt, SymbolTable, Term};
use crate::wcnf::{BinaryRule, TermRule, Wcnf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Parameters for [`random_wcnf`].
#[derive(Clone, Copy, Debug)]
pub struct RandomGrammarConfig {
    /// Number of nonterminals (≥ 1).
    pub n_nts: usize,
    /// Number of terminals (≥ 1).
    pub n_terms: usize,
    /// Number of binary rules to attempt (duplicates are merged).
    pub n_binary: usize,
    /// Number of terminal rules to attempt (duplicates are merged).
    pub n_term_rules: usize,
}

impl Default for RandomGrammarConfig {
    fn default() -> Self {
        Self {
            n_nts: 4,
            n_terms: 3,
            n_binary: 6,
            n_term_rules: 4,
        }
    }
}

/// Generates a random weak-CNF grammar. Every nonterminal is guaranteed at
/// least one terminal rule so that all nonterminals generate, which keeps
/// random CFPQ instances non-trivial.
pub fn random_wcnf(seed: u64, cfg: RandomGrammarConfig) -> Wcnf {
    assert!(cfg.n_nts >= 1 && cfg.n_terms >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut symbols = SymbolTable::new();
    for i in 0..cfg.n_nts {
        symbols.nt(&format!("N{i}"));
    }
    for i in 0..cfg.n_terms {
        symbols.term(&format!("t{i}"));
    }

    let mut term_rules: BTreeSet<(u32, u32)> = BTreeSet::new();
    // Guarantee every nonterminal generates something.
    for a in 0..cfg.n_nts {
        let t = rng.gen_range(0..cfg.n_terms);
        term_rules.insert((a as u32, t as u32));
    }
    for _ in 0..cfg.n_term_rules {
        let a = rng.gen_range(0..cfg.n_nts);
        let t = rng.gen_range(0..cfg.n_terms);
        term_rules.insert((a as u32, t as u32));
    }

    let mut binary_rules: BTreeSet<(u32, u32, u32)> = BTreeSet::new();
    for _ in 0..cfg.n_binary {
        let a = rng.gen_range(0..cfg.n_nts) as u32;
        let b = rng.gen_range(0..cfg.n_nts) as u32;
        let c = rng.gen_range(0..cfg.n_nts) as u32;
        binary_rules.insert((a, b, c));
    }

    Wcnf {
        symbols,
        term_rules: term_rules
            .into_iter()
            .map(|(a, t)| TermRule {
                lhs: Nt(a),
                term: Term(t),
            })
            .collect(),
        binary_rules: binary_rules
            .into_iter()
            .map(|(a, b, c)| BinaryRule {
                lhs: Nt(a),
                left: Nt(b),
                right: Nt(c),
            })
            .collect(),
        start: Nt(0),
        nullable: BTreeSet::new(),
    }
}

/// Samples a word from `L(G_start)` by randomized leftmost derivation with
/// a budget on expansion steps. Returns `None` when the budget is exhausted
/// before the sentential form becomes terminal (the caller retries with a
/// different seed).
pub fn sample_word(g: &Wcnf, start: Nt, max_expansions: usize, seed: u64) -> Option<Vec<Term>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let by_lhs: Vec<(Vec<&TermRule>, Vec<&BinaryRule>)> = (0..g.n_nts())
        .map(|i| {
            let nt = Nt(i as u32);
            (
                g.term_rules.iter().filter(|r| r.lhs == nt).collect(),
                g.binary_rules.iter().filter(|r| r.lhs == nt).collect(),
            )
        })
        .collect();

    let mut word: Vec<Term> = Vec::new();
    // Stack of nonterminals still to expand (rightmost on top → leftmost
    // derivation order when popping).
    let mut stack = vec![start];
    let mut expansions = 0usize;
    while let Some(nt) = stack.pop() {
        expansions += 1;
        if expansions > max_expansions {
            return None;
        }
        let (terms, bins) = &by_lhs[nt.index()];
        if terms.is_empty() && bins.is_empty() {
            return None; // dead nonterminal
        }
        // Bias towards terminal rules as the budget runs out so that
        // derivations tend to terminate.
        let near_budget = expansions * 2 > max_expansions;
        let choose_term =
            !terms.is_empty() && (bins.is_empty() || near_budget || rng.gen_bool(0.55));
        if choose_term {
            let r = terms[rng.gen_range(0..terms.len())];
            word.push(r.term);
        } else {
            let r = bins[rng.gen_range(0..bins.len())];
            stack.push(r.right);
            stack.push(r.left);
        }
    }
    Some(word)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cyk::cyk_recognize;

    #[test]
    fn generation_is_deterministic() {
        let a = random_wcnf(7, RandomGrammarConfig::default());
        let b = random_wcnf(7, RandomGrammarConfig::default());
        assert_eq!(a.term_rules, b.term_rules);
        assert_eq!(a.binary_rules, b.binary_rules);
        let c = random_wcnf(8, RandomGrammarConfig::default());
        assert!(c.term_rules != a.term_rules || c.binary_rules != a.binary_rules);
    }

    #[test]
    fn every_nonterminal_has_a_terminal_rule() {
        for seed in 0..20 {
            let g = random_wcnf(seed, RandomGrammarConfig::default());
            for i in 0..g.n_nts() {
                assert!(
                    g.term_rules.iter().any(|r| r.lhs == Nt(i as u32)),
                    "N{i} lacks a terminal rule (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn sampled_words_are_in_the_language() {
        // The fundamental soundness property of the sampler, checked with
        // the CYK oracle across many seeds.
        let mut produced = 0;
        for seed in 0..60 {
            let g = random_wcnf(seed, RandomGrammarConfig::default());
            if let Some(word) = sample_word(&g, g.start, 40, seed ^ 0xabcd) {
                produced += 1;
                assert!(
                    cyk_recognize(&g, g.start, &word),
                    "sampled word not recognized (seed {seed}, word {word:?})"
                );
            }
        }
        assert!(
            produced > 20,
            "sampler should usually succeed, got {produced}"
        );
    }

    #[test]
    fn sample_respects_budget() {
        let g = random_wcnf(3, RandomGrammarConfig::default());
        for seed in 0..10 {
            if let Some(w) = sample_word(&g, g.start, 10, seed) {
                // A word needs at least one expansion per symbol.
                assert!(w.len() <= 10);
            }
        }
    }
}

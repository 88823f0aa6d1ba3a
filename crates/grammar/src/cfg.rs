//! General context-free grammars and the grammar text DSL.
//!
//! A [`Cfg`] holds arbitrary productions `A → α` with `α ∈ (N ∪ Σ)*`
//! (including ε). The text DSL accepts grammars such as the paper's Q1
//! (Fig. 10):
//!
//! ```text
//! S -> subClassOf_r S subClassOf
//! S -> type_r S type
//! S -> subClassOf_r subClassOf
//! S -> type_r type
//! ```
//!
//! Symbols appearing on the left of `->` in *any* rule are nonterminals;
//! every other symbol is a terminal. `|` separates alternatives, `eps`
//! (or `ε`) denotes the empty string, and `#` starts a comment.

use crate::symbol::{Nt, SymbolTable, Term};
use std::collections::HashSet;
use std::fmt;

/// One symbol on the right-hand side of a production.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Symbol {
    /// A terminal (edge label).
    T(Term),
    /// A nonterminal.
    N(Nt),
}

/// A production `lhs → rhs`. An empty `rhs` denotes `lhs → ε`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Production {
    /// Left-hand side nonterminal.
    pub lhs: Nt,
    /// Right-hand side sentential form (empty = ε).
    pub rhs: Vec<Symbol>,
}

/// Errors produced while parsing or validating grammars.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GrammarError {
    /// A rule line is malformed (missing `->`, empty LHS, …).
    Syntax {
        /// 1-based line number in the source text.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// The named start nonterminal does not occur in the grammar.
    UnknownStart(String),
    /// The grammar has no productions.
    Empty,
}

impl fmt::Display for GrammarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrammarError::Syntax { line, message } => {
                write!(f, "grammar syntax error on line {line}: {message}")
            }
            GrammarError::UnknownStart(s) => write!(f, "unknown start nonterminal `{s}`"),
            GrammarError::Empty => write!(f, "grammar has no productions"),
        }
    }
}

impl std::error::Error for GrammarError {}

/// A general context-free grammar over interned symbols.
#[derive(Clone, Debug, Default)]
pub struct Cfg {
    /// Symbol names for terminals and nonterminals.
    pub symbols: SymbolTable,
    /// All productions, in declaration order.
    pub productions: Vec<Production>,
    /// The designated start nonterminal, if any. Following Hellings \[11\]
    /// and the paper, grammars may omit the start symbol: CFPQ queries name
    /// the start nonterminal per query.
    pub start: Option<Nt>,
}

impl Cfg {
    /// Creates an empty grammar.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses the grammar DSL described in the module docs. The start
    /// nonterminal defaults to the LHS of the first rule.
    ///
    /// ```
    /// use cfpq_grammar::Cfg;
    /// let g = Cfg::parse("S -> a S b | a b").unwrap();
    /// assert_eq!(g.productions.len(), 2);
    /// assert_eq!(g.start, g.symbols.get_nt("S"));
    /// ```
    pub fn parse(text: &str) -> Result<Self, GrammarError> {
        // Pass 1: every LHS name is a nonterminal.
        let mut lhs_names: HashSet<&str> = HashSet::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            let (lhs, _) = split_rule(line, lineno + 1)?;
            lhs_names.insert(lhs);
        }
        if lhs_names.is_empty() {
            return Err(GrammarError::Empty);
        }

        let mut cfg = Cfg::new();
        // Pass 2: build productions.
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            let (lhs_name, rhs_text) = split_rule(line, lineno + 1)?;
            let lhs = cfg.symbols.nt(lhs_name);
            if cfg.start.is_none() {
                cfg.start = Some(lhs);
            }
            for alt in rhs_text.split('|') {
                let alt = alt.trim();
                let mut rhs = Vec::new();
                if !(alt.is_empty() || alt == "eps" || alt == "ε") {
                    for tok in alt.split_whitespace() {
                        if lhs_names.contains(tok) {
                            rhs.push(Symbol::N(cfg.symbols.nt(tok)));
                        } else {
                            rhs.push(Symbol::T(cfg.symbols.term(tok)));
                        }
                    }
                }
                cfg.productions.push(Production { lhs, rhs });
            }
        }
        Ok(cfg)
    }

    /// Parses the DSL and sets the start nonterminal to `start`.
    pub fn parse_with_start(text: &str, start: &str) -> Result<Self, GrammarError> {
        let mut cfg = Self::parse(text)?;
        match cfg.symbols.get_nt(start) {
            Some(nt) => {
                cfg.start = Some(nt);
                Ok(cfg)
            }
            None => Err(GrammarError::UnknownStart(start.to_owned())),
        }
    }

    /// Adds a production from symbol names; names already used as
    /// nonterminals stay nonterminals, otherwise `rhs` names present in
    /// `nonterminals` are created as nonterminals and the rest as terminals.
    pub fn add_rule(&mut self, lhs: &str, rhs: &[&str], nonterminals: &[&str]) {
        let lhs = self.symbols.nt(lhs);
        if self.start.is_none() {
            self.start = Some(lhs);
        }
        let rhs = rhs
            .iter()
            .map(|name| {
                if nonterminals.contains(name) || self.symbols.get_nt(name).is_some() {
                    Symbol::N(self.symbols.nt(name))
                } else {
                    Symbol::T(self.symbols.term(name))
                }
            })
            .collect();
        self.productions.push(Production { lhs, rhs });
    }

    /// Renders the grammar in (roughly) the DSL syntax.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for p in &self.productions {
            out.push_str(self.symbols.nt_name(p.lhs));
            out.push_str(" -> ");
            if p.rhs.is_empty() {
                out.push_str("eps");
            } else {
                let parts: Vec<&str> = p
                    .rhs
                    .iter()
                    .map(|s| match s {
                        Symbol::T(t) => self.symbols.term_name(*t),
                        Symbol::N(n) => self.symbols.nt_name(*n),
                    })
                    .collect();
                out.push_str(&parts.join(" "));
            }
            out.push('\n');
        }
        out
    }
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

fn split_rule(line: &str, lineno: usize) -> Result<(&str, &str), GrammarError> {
    let Some((lhs, rhs)) = line.split_once("->") else {
        return Err(GrammarError::Syntax {
            line: lineno,
            message: format!("missing `->` in `{line}`"),
        });
    };
    let lhs = lhs.trim();
    if lhs.is_empty() || lhs.split_whitespace().count() != 1 {
        return Err(GrammarError::Syntax {
            line: lineno,
            message: "left-hand side must be a single nonterminal".into(),
        });
    }
    Ok((lhs, rhs.trim()))
}

impl fmt::Display for Cfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

impl Cfg {
    /// Enumerates every word of length ≤ `max_len` derivable from
    /// `start`, by breadth-first expansion of sentential forms. This is a
    /// brute-force membership oracle for *general* grammars (ε-rules,
    /// unit rules, long rules) used to differential-test the CNF
    /// pipeline; exponential in general, so keep `max_len` small.
    pub fn bounded_language(
        &self,
        start: Nt,
        max_len: usize,
    ) -> std::collections::BTreeSet<Vec<Term>> {
        use std::collections::{BTreeSet, HashSet, VecDeque};
        let mut words: BTreeSet<Vec<Term>> = BTreeSet::new();
        let mut seen: HashSet<Vec<Symbol>> = HashSet::new();
        let mut queue: VecDeque<Vec<Symbol>> = VecDeque::new();
        queue.push_back(vec![Symbol::N(start)]);
        seen.insert(queue[0].clone());
        while let Some(form) = queue.pop_front() {
            // Count terminals; prune forms that can only grow too long.
            let n_terms = form.iter().filter(|s| matches!(s, Symbol::T(_))).count();
            if n_terms > max_len {
                continue;
            }
            match form.iter().position(|s| matches!(s, Symbol::N(_))) {
                None => {
                    let word: Vec<Term> = form
                        .iter()
                        .map(|s| match s {
                            Symbol::T(t) => *t,
                            Symbol::N(_) => unreachable!(),
                        })
                        .collect();
                    if word.len() <= max_len {
                        words.insert(word);
                    }
                }
                Some(pos) => {
                    let Symbol::N(nt) = form[pos] else {
                        unreachable!()
                    };
                    for p in &self.productions {
                        if p.lhs != nt {
                            continue;
                        }
                        let mut next = Vec::with_capacity(form.len() + p.rhs.len());
                        next.extend_from_slice(&form[..pos]);
                        next.extend_from_slice(&p.rhs);
                        next.extend_from_slice(&form[pos + 1..]);
                        // Prune: nonterminals derive at least ε, terminals
                        // are permanent, so terminal count is monotone.
                        let nt_count = next.iter().filter(|s| matches!(s, Symbol::N(_))).count();
                        let t_count = next.len() - nt_count;
                        if t_count > max_len || next.len() > max_len + 8 {
                            continue;
                        }
                        if seen.insert(next.clone()) {
                            queue.push_back(next);
                        }
                    }
                }
            }
        }
        words
    }
}

#[cfg(test)]
mod bounded_language_tests {
    use super::*;

    #[test]
    fn anbn_enumeration() {
        let g = Cfg::parse("S -> a S b | a b").unwrap();
        let s = g.symbols.get_nt("S").unwrap();
        let words = g.bounded_language(s, 6);
        let a = g.symbols.get_term("a").unwrap();
        let b = g.symbols.get_term("b").unwrap();
        let expect: std::collections::BTreeSet<Vec<Term>> =
            [vec![a, b], vec![a, a, b, b], vec![a, a, a, b, b, b]]
                .into_iter()
                .collect();
        assert_eq!(words, expect);
    }

    #[test]
    fn epsilon_is_enumerated() {
        let g = Cfg::parse("S -> a S | eps").unwrap();
        let s = g.symbols.get_nt("S").unwrap();
        let words = g.bounded_language(s, 3);
        assert_eq!(words.len(), 4); // ε, a, aa, aaa
        assert!(words.contains(&vec![]));
    }

    #[test]
    fn unit_and_long_rules() {
        let g = Cfg::parse("S -> A\nA -> B\nB -> a b c").unwrap();
        let s = g.symbols.get_nt("S").unwrap();
        let words = g.bounded_language(s, 4);
        assert_eq!(words.len(), 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_grammar() {
        let g = Cfg::parse("S -> a S b | a b").unwrap();
        assert_eq!(g.productions.len(), 2);
        let s = g.symbols.get_nt("S").unwrap();
        assert_eq!(g.start, Some(s));
        let a = g.symbols.get_term("a").unwrap();
        let b = g.symbols.get_term("b").unwrap();
        assert_eq!(
            g.productions[0].rhs,
            vec![Symbol::T(a), Symbol::N(s), Symbol::T(b)]
        );
        assert_eq!(g.productions[1].rhs, vec![Symbol::T(a), Symbol::T(b)]);
    }

    #[test]
    fn parse_epsilon_and_comments() {
        let g = Cfg::parse("# Dyck language\nS -> ( S ) S | eps  # alternatives\n").unwrap();
        assert_eq!(g.productions.len(), 2);
        assert!(g.productions[1].rhs.is_empty());
    }

    #[test]
    fn parse_unicode_epsilon() {
        let g = Cfg::parse("S -> ε").unwrap();
        assert!(g.productions[0].rhs.is_empty());
    }

    #[test]
    fn lhs_everywhere_is_nonterminal() {
        // `B` is used before its defining rule appears; it must still be a
        // nonterminal in the first rule.
        let g = Cfg::parse("S -> B a\nB -> b").unwrap();
        let b_nt = g.symbols.get_nt("B").unwrap();
        assert_eq!(g.productions[0].rhs[0], Symbol::N(b_nt));
        assert!(matches!(g.productions[0].rhs[1], Symbol::T(_)));
    }

    #[test]
    fn missing_arrow_is_error() {
        let err = Cfg::parse("S a b").unwrap_err();
        assert!(matches!(err, GrammarError::Syntax { line: 1, .. }));
    }

    #[test]
    fn multi_symbol_lhs_is_error() {
        let err = Cfg::parse("S T -> a").unwrap_err();
        assert!(matches!(err, GrammarError::Syntax { .. }));
    }

    #[test]
    fn empty_grammar_is_error() {
        assert_eq!(
            Cfg::parse("# only comments\n").unwrap_err(),
            GrammarError::Empty
        );
    }

    #[test]
    fn parse_with_start_overrides() {
        let g = Cfg::parse_with_start("S -> B\nB -> b", "B").unwrap();
        assert_eq!(g.start, g.symbols.get_nt("B"));
        assert!(matches!(
            Cfg::parse_with_start("S -> a", "Z"),
            Err(GrammarError::UnknownStart(_))
        ));
    }

    #[test]
    fn to_text_roundtrip() {
        let src = "S -> a S b\nS -> eps\n";
        let g = Cfg::parse(src).unwrap();
        let g2 = Cfg::parse(&g.to_text()).unwrap();
        assert_eq!(g.productions.len(), g2.productions.len());
        assert_eq!(g.to_text(), g2.to_text());
    }

    #[test]
    fn add_rule_builder() {
        let mut g = Cfg::new();
        g.add_rule("S", &["a", "S"], &["S"]);
        g.add_rule("S", &["a"], &["S"]);
        assert_eq!(g.productions.len(), 2);
        assert_eq!(g.start, g.symbols.get_nt("S"));
        assert!(matches!(g.productions[0].rhs[1], Symbol::N(_)));
    }
}

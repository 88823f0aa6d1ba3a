//! Weak Chomsky Normal Form — the grammar shape consumed by every solver.
//!
//! Following Hellings \[11\] and §2 of the paper, a grammar in *weak* CNF has
//! only productions of the forms
//!
//! * `A → B C` with `A, B, C ∈ N` ([`BinaryRule`]), and
//! * `A → x` with `x ∈ Σ` ([`TermRule`]).
//!
//! ε-rules are omitted entirely (only empty paths `mπm` would match ε); the
//! set of nonterminals that *were* nullable before ε-elimination is kept in
//! [`Wcnf::nullable`] so callers can optionally add diagonal matches.

use crate::symbol::{Nt, SymbolTable, Term};
use std::collections::BTreeSet;
use std::fmt;

/// A terminal production `lhs → term`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TermRule {
    /// Left-hand side nonterminal.
    pub lhs: Nt,
    /// The produced terminal.
    pub term: Term,
}

/// A binary production `lhs → left right`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BinaryRule {
    /// Left-hand side nonterminal.
    pub lhs: Nt,
    /// First RHS nonterminal.
    pub left: Nt,
    /// Second RHS nonterminal.
    pub right: Nt,
}

/// A grammar in weak Chomsky Normal Form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Wcnf {
    /// Symbol names (shared with the source grammar, possibly extended with
    /// synthetic nonterminals created during normalization).
    pub symbols: SymbolTable,
    /// All `A → x` rules.
    pub term_rules: Vec<TermRule>,
    /// All `A → BC` rules.
    pub binary_rules: Vec<BinaryRule>,
    /// Start nonterminal (queries may override it as long as the chosen
    /// nonterminal exists in this grammar).
    pub start: Nt,
    /// Nonterminals that could derive ε in the source grammar. The empty
    /// word corresponds to the trivial path `mπm`; solvers may optionally
    /// report `(A, m, m)` for nullable `A`.
    pub nullable: BTreeSet<Nt>,
}

impl Wcnf {
    /// Number of nonterminals (`|N|`).
    pub fn n_nts(&self) -> usize {
        self.symbols.n_nts()
    }

    /// Number of terminals (`|Σ|`).
    pub fn n_terms(&self) -> usize {
        self.symbols.n_terms()
    }

    /// Nonterminals `A` with a rule `A → term`, grouped: index the result
    /// by `term.index()`.
    pub fn nts_by_terminal(&self) -> Vec<Vec<Nt>> {
        let mut by_term: Vec<Vec<Nt>> = vec![Vec::new(); self.n_terms()];
        for r in &self.term_rules {
            by_term[r.term.index()].push(r.lhs);
        }
        for v in &mut by_term {
            v.sort_unstable();
            v.dedup();
        }
        by_term
    }

    /// Binary rules grouped by `left` nonterminal: index by `left.index()`
    /// to get `(lhs, right)` pairs. Useful for worklist solvers.
    pub fn rules_by_left(&self) -> Vec<Vec<(Nt, Nt)>> {
        let mut by_left: Vec<Vec<(Nt, Nt)>> = vec![Vec::new(); self.n_nts()];
        for r in &self.binary_rules {
            by_left[r.left.index()].push((r.lhs, r.right));
        }
        by_left
    }

    /// Binary rules grouped by `right` nonterminal: index by
    /// `right.index()` to get `(lhs, left)` pairs.
    pub fn rules_by_right(&self) -> Vec<Vec<(Nt, Nt)>> {
        let mut by_right: Vec<Vec<(Nt, Nt)>> = vec![Vec::new(); self.n_nts()];
        for r in &self.binary_rules {
            by_right[r.right.index()].push((r.lhs, r.left));
        }
        by_right
    }

    /// The element product `N1 · N2 = {A | A → BC ∈ P, B ∈ N1, C ∈ N2}` of
    /// §2, on nonterminal sets represented as sorted vectors.
    pub fn set_product(&self, n1: &[Nt], n2: &[Nt]) -> Vec<Nt> {
        let mut out = Vec::new();
        for r in &self.binary_rules {
            if n1.contains(&r.left) && n2.contains(&r.right) {
                out.push(r.lhs);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// True if the grammar derives `word` from `start` (delegates to CYK).
    /// Intended for tests and witness validation; O(|word|³·|P|).
    pub fn derives(&self, start: Nt, word: &[Term]) -> bool {
        crate::cyk::cyk_recognize(self, start, word)
    }

    /// Pretty-prints the grammar with symbol names.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for r in &self.binary_rules {
            out.push_str(&format!(
                "{} -> {} {}\n",
                self.symbols.nt_name(r.lhs),
                self.symbols.nt_name(r.left),
                self.symbols.nt_name(r.right)
            ));
        }
        for r in &self.term_rules {
            out.push_str(&format!(
                "{} -> {}\n",
                self.symbols.nt_name(r.lhs),
                self.symbols.term_name(r.term)
            ));
        }
        out
    }
}

impl fmt::Display for Wcnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use crate::cnf::CnfOptions;

    fn abc() -> Wcnf {
        Cfg::parse("S -> A B\nA -> a\nB -> b")
            .unwrap()
            .to_wcnf(CnfOptions::default())
            .unwrap()
    }

    #[test]
    fn grouping_by_terminal() {
        let g = abc();
        let a = g.symbols.get_term("a").unwrap();
        let by_t = g.nts_by_terminal();
        assert_eq!(by_t[a.index()], vec![g.symbols.get_nt("A").unwrap()]);
    }

    #[test]
    fn grouping_by_left_and_right() {
        let g = abc();
        let a = g.symbols.get_nt("A").unwrap();
        let b = g.symbols.get_nt("B").unwrap();
        let s = g.symbols.get_nt("S").unwrap();
        assert_eq!(g.rules_by_left()[a.index()], vec![(s, b)]);
        assert_eq!(g.rules_by_right()[b.index()], vec![(s, a)]);
        assert!(g.rules_by_left()[s.index()].is_empty());
    }

    #[test]
    fn set_product_matches_paper_definition() {
        let g = abc();
        let a = g.symbols.get_nt("A").unwrap();
        let b = g.symbols.get_nt("B").unwrap();
        let s = g.symbols.get_nt("S").unwrap();
        assert_eq!(g.set_product(&[a], &[b]), vec![s]);
        assert!(g.set_product(&[b], &[a]).is_empty());
        assert!(g.set_product(&[], &[b]).is_empty());
    }
}

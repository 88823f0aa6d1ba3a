//! Conjunctive-grammar extension — the §7 hypothesis.
//!
//! The paper: *"our algorithm can be trivially generalized to work on
//! \[conjunctive and Boolean\] grammars … Our hypothesis is that it would
//! produce the upper approximation of a solution."* This module implements
//! that generalization: rules `A → B₁C₁ & B₂C₂ & …` are evaluated per
//! fixpoint sweep as `T_A |= ⋂ᵢ (T_Bᵢ × T_Cᵢ)`.
//!
//! On *linear* inputs (word chains) this coincides with conjunctive CYK
//! and is exact (Okhotin \[19\] — parsing by matrix multiplication
//! generalizes to Boolean grammars). On arbitrary graphs the result is an
//! upper approximation: conjunctive path querying is undecidable \[11\], so
//! no terminating algorithm can be exact. Two sound properties are tested:
//! string-exactness on chains, and containment in every single-conjunct
//! projection (a context-free over-grammar).

use cfpq_grammar::wcnf::TermRule;
use cfpq_grammar::{Nt, SymbolTable, Term};
use cfpq_graph::Graph;
use cfpq_matrix::BoolEngine;

use crate::relational::RelationalIndex;

/// A conjunctive rule `lhs → conjuncts\[0\] & conjuncts\[1\] & …`, every
/// conjunct a pair of nonterminals (binary normal form).
#[derive(Clone, Debug)]
pub struct ConjRule {
    /// Left-hand side.
    pub lhs: Nt,
    /// The conjuncts; at least one. A single conjunct degenerates to an
    /// ordinary context-free binary rule.
    pub conjuncts: Vec<(Nt, Nt)>,
}

/// A conjunctive grammar in binary normal form.
#[derive(Clone, Debug, Default)]
pub struct ConjunctiveGrammar {
    /// Symbol names.
    pub symbols: SymbolTable,
    /// Terminal rules `A → x`.
    pub term_rules: Vec<TermRule>,
    /// Conjunctive binary rules.
    pub conj_rules: Vec<ConjRule>,
}

impl ConjunctiveGrammar {
    /// Creates an empty grammar.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a terminal rule `lhs → term` by name.
    pub fn term_rule(&mut self, lhs: &str, term: &str) {
        let lhs = self.symbols.nt(lhs);
        let term = self.symbols.term(term);
        self.term_rules.push(TermRule { lhs, term });
    }

    /// Adds a conjunctive rule `lhs → b₁c₁ & b₂c₂ & …` by names.
    pub fn conj_rule(&mut self, lhs: &str, conjuncts: &[(&str, &str)]) {
        assert!(!conjuncts.is_empty(), "at least one conjunct required");
        let lhs = self.symbols.nt(lhs);
        let conjuncts = conjuncts
            .iter()
            .map(|(b, c)| (self.symbols.nt(b), self.symbols.nt(c)))
            .collect();
        self.conj_rules.push(ConjRule { lhs, conjuncts });
    }

    /// Number of nonterminals.
    pub fn n_nts(&self) -> usize {
        self.symbols.n_nts()
    }

    /// The context-free *projection* keeping only conjunct `pick` of every
    /// rule (clamped to the rule's arity). Its language is a superset of
    /// the conjunctive language, giving a testable upper bound.
    pub fn projection(&self, pick: usize) -> cfpq_grammar::Wcnf {
        let binary_rules = self
            .conj_rules
            .iter()
            .map(|r| {
                let (left, right) = r.conjuncts[pick.min(r.conjuncts.len() - 1)];
                cfpq_grammar::wcnf::BinaryRule {
                    lhs: r.lhs,
                    left,
                    right,
                }
            })
            .collect();
        cfpq_grammar::Wcnf {
            symbols: self.symbols.clone(),
            term_rules: self.term_rules.clone(),
            binary_rules,
            start: Nt(0),
            nullable: Default::default(),
        }
    }
}

/// Evaluates the conjunctive grammar over the graph: per sweep, every rule
/// contributes `T_A |= ⋂ᵢ (T_Bᵢ × T_Cᵢ)` until fixpoint.
pub fn solve_conjunctive<E: BoolEngine>(
    engine: &E,
    graph: &Graph,
    grammar: &ConjunctiveGrammar,
) -> RelationalIndex<E::Matrix> {
    let n = graph.n_nodes();
    // Terminal initialization, mirroring relational::init_pairs but from
    // the conjunctive grammar's own symbol table.
    let term_of: Vec<Option<Term>> = graph
        .labels()
        .map(|(_, name)| grammar.symbols.get_term(name))
        .collect();
    let mut pairs: Vec<Vec<(u32, u32)>> = vec![Vec::new(); grammar.n_nts()];
    for e in graph.edges() {
        if let Some(term) = term_of[e.label.index()] {
            for r in &grammar.term_rules {
                if r.term == term {
                    pairs[r.lhs.index()].push((e.from, e.to));
                }
            }
        }
    }
    let mut matrices: Vec<E::Matrix> = pairs
        .into_iter()
        .map(|p| engine.from_pairs(n, &p))
        .collect();

    let mut iterations = 0;
    let mut stats = crate::relational::SolveStats::default();
    loop {
        iterations += 1;
        let mut changed = false;
        for rule in &grammar.conj_rules {
            // A rule's conjuncts read the same matrices, so they are one
            // batch: a device engine runs them side by side.
            let jobs: Vec<(&E::Matrix, &E::Matrix)> = rule
                .conjuncts
                .iter()
                .map(|&(b, c)| (&matrices[b.index()], &matrices[c.index()]))
                .collect();
            let products = engine.multiply_batch(&jobs);
            stats.products_computed += products.len();
            let contribution = products
                .into_iter()
                .reduce(|acc, product| engine.intersect(&acc, &product))
                .expect("at least one conjunct");
            changed |= engine.union_in_place(&mut matrices[rule.lhs.index()], &contribution);
        }
        stats
            .sweep_nnz
            .push(matrices.iter().map(cfpq_matrix::BoolMat::nnz).sum());
        if !changed {
            break;
        }
    }

    RelationalIndex {
        matrices,
        iterations,
        n_nodes: n,
        stats,
    }
}

/// The canonical non-context-free conjunctive language
/// `{aⁿbⁿcⁿ | n ≥ 1}` in binary normal form:
/// `S → XC & AY` with `X → aXb | ab` (matched a/b), `Y → bYc | bc`
/// (matched b/c), `A → aA | a`, `C → cC | c`.
pub fn anbncn() -> ConjunctiveGrammar {
    let mut g = ConjunctiveGrammar::new();
    // Terminal carriers.
    g.term_rule("Ta", "a");
    g.term_rule("Tb", "b");
    g.term_rule("Tc", "c");
    g.term_rule("A", "a");
    g.term_rule("C", "c");
    // X -> a X b | a b  (binarized: X -> Ta Xb | Ta Tb, Xb -> X Tb)
    g.conj_rule("X", &[("Ta", "Xb")]);
    g.conj_rule("Xb", &[("X", "Tb")]);
    g.conj_rule("X", &[("Ta", "Tb")]);
    // Y -> b Y c | b c
    g.conj_rule("Y", &[("Tb", "Yc")]);
    g.conj_rule("Yc", &[("Y", "Tc")]);
    g.conj_rule("Y", &[("Tb", "Tc")]);
    // A -> a A | a ; C -> c C | c
    g.conj_rule("A", &[("Ta", "A")]);
    g.conj_rule("C", &[("Tc", "C")]);
    // S -> X C & A Y
    g.conj_rule("S", &[("X", "C"), ("A", "Y")]);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relational::FixpointSolver;
    use cfpq_graph::generators;
    use cfpq_matrix::{
        DenseEngine, Device, ParDenseEngine, ParSparseEngine, SparseEngine, TiledEngine,
    };

    fn s_of(g: &ConjunctiveGrammar) -> Nt {
        g.symbols.get_nt("S").unwrap()
    }

    #[test]
    fn anbncn_accepts_exact_strings() {
        let g = anbncn();
        let s = s_of(&g);
        for (word, expect) in [
            (vec!["a", "b", "c"], true),
            (vec!["a", "a", "b", "b", "c", "c"], true),
            (vec!["a", "a", "a", "b", "b", "b", "c", "c", "c"], true),
            (vec!["a", "a", "b", "b", "c"], false),
            (vec!["a", "b", "b", "c", "c"], false),
            (vec!["a", "b", "c", "c"], false),
            (vec!["b", "a", "c"], false),
        ] {
            let graph = generators::word_chain(&word);
            let idx = solve_conjunctive(&DenseEngine, &graph, &g);
            assert_eq!(
                idx.contains(s, 0, word.len() as u32),
                expect,
                "word {word:?}"
            );
        }
    }

    /// What of a solve may not depend on the engine.
    #[derive(Debug, PartialEq)]
    struct Observed {
        /// Every nonterminal's pairs.
        pairs: Vec<Vec<(u32, u32)>>,
        sweeps: usize,
        products: usize,
        sweep_nnz: Vec<usize>,
    }

    fn observed<E: BoolEngine>(engine: &E, graph: &Graph, g: &ConjunctiveGrammar) -> Observed {
        let idx = solve_conjunctive(engine, graph, g);
        Observed {
            pairs: (0..g.n_nts()).map(|i| idx.pairs(Nt(i as u32))).collect(),
            sweeps: idx.iterations,
            products: idx.stats.products_computed,
            sweep_nnz: idx.stats.sweep_nnz.clone(),
        }
    }

    #[test]
    fn engines_agree_on_conjunctive() {
        // The conjuncts of `S → XC & AY` are one batch, which the device
        // engines run side by side.
        let g = anbncn();
        let chain = generators::word_chain(&["a", "a", "b", "b", "c", "c"]);
        let random = generators::random_graph(150, 450, &["a", "b", "c"], 5);
        for graph in [chain, random] {
            let dense = observed(&DenseEngine, &graph, &g);
            assert!(dense.products > 0 && dense.pairs.iter().any(|p| !p.is_empty()));
            let sparse = observed(&SparseEngine, &graph, &g);
            assert_eq!(sparse, dense, "sparse");
            let par_dense = observed(&ParDenseEngine::new(Device::new(2)), &graph, &g);
            assert_eq!(par_dense, dense, "dense-par");
            let par_sparse = observed(&ParSparseEngine::new(Device::new(3)), &graph, &g);
            assert_eq!(par_sparse, dense, "sparse-par");
            let tiled = observed(&TiledEngine::new(Device::new(2)), &graph, &g);
            assert_eq!(tiled, dense, "tiled");
        }
    }

    #[test]
    fn conjunctive_result_is_contained_in_projections() {
        // The upper-approximation property relative to CF projections:
        // dropping conjuncts only enlarges the relation.
        let g = anbncn();
        let s = s_of(&g);
        let graph = generators::random_graph(8, 30, &["a", "b", "c"], 11);
        let conj = solve_conjunctive(&DenseEngine, &graph, &g);
        for pick in 0..2 {
            let proj = g.projection(pick);
            let rel = FixpointSolver::new(&DenseEngine).solve(&graph, &proj);
            let conj_pairs: std::collections::BTreeSet<_> = conj.pairs(s).into_iter().collect();
            let proj_pairs: std::collections::BTreeSet<_> = rel.pairs(s).into_iter().collect();
            assert!(
                conj_pairs.is_subset(&proj_pairs),
                "projection {pick} must over-approximate"
            );
        }
    }

    #[test]
    fn single_conjunct_rules_match_context_free_solver() {
        // With one conjunct per rule the conjunctive solver IS Algorithm 1.
        let mut g = ConjunctiveGrammar::new();
        g.term_rule("Ta", "a");
        g.term_rule("Tb", "b");
        g.conj_rule("S", &[("Ta", "Sb")]);
        g.conj_rule("Sb", &[("S", "Tb")]);
        g.conj_rule("S", &[("Ta", "Tb")]);
        let graph = generators::two_cycles(2, 3);
        let conj = solve_conjunctive(&DenseEngine, &graph, &g);
        let proj = g.projection(0);
        let rel = FixpointSolver::new(&DenseEngine).solve(&graph, &proj);
        let s = s_of(&g);
        assert_eq!(conj.pairs(s), rel.pairs(s));
    }

    #[test]
    #[should_panic(expected = "at least one conjunct")]
    fn empty_conjunct_list_panics() {
        let mut g = ConjunctiveGrammar::new();
        g.conj_rule("S", &[]);
    }
}

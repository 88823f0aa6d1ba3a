//! Regular path queries (RPQ): the [`Nfa`] query form and the reference
//! evaluator.
//!
//! §3 positions CFPQ as the strictly-more-expressive sibling of the
//! regular language constrained path querying of [2, 8, 16, 21]. An
//! [`Nfa`] is evaluated by compiling it ([`crate::compile::CompiledQuery`])
//! into its right-linear grammar, which Algorithm 1's pipeline runs like
//! any CFPQ, repairs and serves. [`solve_regular`] is the **differential
//! oracle** for that pipeline: an independent, hand-rolled product-graph
//! fixpoint (unmasked, full recompute each round, label matrices rebuilt
//! from the graph on every call) whose answer the compiled path must
//! reproduce byte-for-byte; property suites triangulate it, the compiled
//! pipeline, and the equivalent regular grammar under Algorithm 1.

use cfpq_graph::{Graph, Label};
use cfpq_matrix::BoolEngine;
use std::collections::HashMap;

/// A nondeterministic finite automaton over edge-label names.
#[derive(Clone, Debug, Default)]
pub struct Nfa {
    n_states: u32,
    start: Vec<u32>,
    accept: Vec<u32>,
    /// (from_state, label name, to_state)
    transitions: Vec<(u32, String, u32)>,
}

impl Nfa {
    /// Creates an NFA with `n_states` states.
    pub fn new(n_states: u32) -> Self {
        Self {
            n_states,
            ..Self::default()
        }
    }

    /// Number of states.
    pub fn n_states(&self) -> u32 {
        self.n_states
    }

    /// Marks a start state.
    pub fn start(&mut self, q: u32) -> &mut Self {
        assert!(q < self.n_states);
        self.start.push(q);
        self
    }

    /// Marks an accepting state.
    pub fn accept(&mut self, q: u32) -> &mut Self {
        assert!(q < self.n_states);
        self.accept.push(q);
        self
    }

    /// Adds the transition `from --label--> to`.
    pub fn transition(&mut self, from: u32, label: &str, to: u32) -> &mut Self {
        assert!(from < self.n_states && to < self.n_states);
        self.transitions.push((from, label.to_owned(), to));
        self
    }

    /// The start states.
    pub fn starts(&self) -> &[u32] {
        &self.start
    }

    /// The accepting states.
    pub fn accepts(&self) -> &[u32] {
        &self.accept
    }

    /// All transitions `(from, label, to)`, in insertion order.
    pub fn transitions(&self) -> &[(u32, String, u32)] {
        &self.transitions
    }

    /// `a+` — one or more repetitions of a single label.
    pub fn plus(label: &str) -> Nfa {
        let mut n = Nfa::new(2);
        n.start(0)
            .accept(1)
            .transition(0, label, 1)
            .transition(1, label, 1);
        n
    }

    /// `a* b` — any number of `a`s then one `b`.
    pub fn star_then(star: &str, then: &str) -> Nfa {
        let mut n = Nfa::new(2);
        n.start(0)
            .accept(1)
            .transition(0, star, 0)
            .transition(0, then, 1);
        n
    }

    /// Concatenation of single labels: `l1 l2 … lk`.
    pub fn word(labels: &[&str]) -> Nfa {
        let mut n = Nfa::new(labels.len() as u32 + 1);
        n.start(0).accept(labels.len() as u32);
        for (i, l) in labels.iter().enumerate() {
            n.transition(i as u32, l, i as u32 + 1);
        }
        n
    }
}

/// Evaluates the RPQ: all pairs `(i, j)` such that some path `iπj` spells
/// a word accepted by the NFA (non-empty paths only, matching the CFPQ
/// convention of dropping ε).
///
/// **Oracle only.** This is the old standalone evaluator, kept as an
/// independent cross-check for the compiled pipeline
/// ([`crate::compile::CompiledQuery::from_nfa`]); production callers
/// should prepare the NFA through a session or the service instead,
/// which reuses materialized label matrices and repairs incrementally.
///
/// Representation: `reach[q]` is the Boolean matrix of node pairs
/// reachable while moving the automaton from a start state to state `q`.
/// Fixpoint: `reach[q'] |= reach[q] × M_x` for every transition
/// `q --x--> q'`; seeds are `M_x` for transitions out of start states.
pub fn solve_regular<E: BoolEngine>(engine: &E, graph: &Graph, nfa: &Nfa) -> E::Matrix {
    let n = graph.n_nodes();

    // Label adjacency matrices, built once.
    let mut label_ids: HashMap<&str, Label> = HashMap::new();
    for (label, name) in graph.labels() {
        label_ids.insert(name, label);
    }
    let mut label_matrix: HashMap<String, E::Matrix> = HashMap::new();
    for (_, name, _) in &nfa.transitions {
        if label_matrix.contains_key(name) {
            continue;
        }
        let pairs: Vec<(u32, u32)> = match label_ids.get(name.as_str()) {
            Some(&l) => graph.edges_with_label(l).collect(),
            None => Vec::new(),
        };
        label_matrix.insert(name.clone(), engine.from_pairs(n, &pairs));
    }

    let mut reach: Vec<E::Matrix> = (0..nfa.n_states).map(|_| engine.zeros(n)).collect();
    // Seed: first step out of any start state.
    for (q, name, q2) in &nfa.transitions {
        if nfa.start.contains(q) {
            let seeded = label_matrix[name].clone();
            engine.union_in_place(&mut reach[*q2 as usize], &seeded);
        }
    }
    // Fixpoint propagation.
    loop {
        let mut changed = false;
        for (q, name, q2) in &nfa.transitions {
            let product = engine.multiply(&reach[*q as usize], &label_matrix[name]);
            changed |= engine.union_in_place(&mut reach[*q2 as usize], &product);
        }
        if !changed {
            break;
        }
    }

    // Union of accepting states' matrices.
    let mut answer = engine.zeros(n);
    for &q in &nfa.accept {
        let m = reach[q as usize].clone();
        engine.union_in_place(&mut answer, &m);
    }
    answer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relational::FixpointSolver;
    use cfpq_grammar::cnf::CnfOptions;
    use cfpq_grammar::Cfg;
    use cfpq_graph::generators;
    use cfpq_matrix::{DenseEngine, SparseEngine};

    #[test]
    fn a_plus_on_chain() {
        let graph = generators::chain(4, "a");
        let m = solve_regular(&DenseEngine, &graph, &Nfa::plus("a"));
        // all (i, j) with i < j
        let mut expect = Vec::new();
        for i in 0..5u32 {
            for j in i + 1..5u32 {
                expect.push((i, j));
            }
        }
        assert_eq!(m.pairs(), expect);
    }

    #[test]
    fn word_query() {
        let graph = generators::word_chain(&["a", "b", "a"]);
        let m = solve_regular(&SparseEngine, &graph, &Nfa::word(&["a", "b"]));
        assert_eq!(m.pairs(), vec![(0, 2)]);
    }

    #[test]
    fn star_then_on_branching_graph() {
        let mut graph = cfpq_graph::Graph::new(4);
        graph.add_edge_named(0, "a", 1);
        graph.add_edge_named(1, "a", 2);
        graph.add_edge_named(2, "b", 3);
        graph.add_edge_named(0, "b", 3);
        let m = solve_regular(&DenseEngine, &graph, &Nfa::star_then("a", "b"));
        // a^0 b: (0,3) and (2,3); a^1 b: (1,3); a^2 b: (0,3).
        assert_eq!(m.pairs(), vec![(0, 3), (1, 3), (2, 3)]);
    }

    #[test]
    fn cycles_terminate() {
        let graph = generators::cycle(3, "a");
        let m = solve_regular(&SparseEngine, &graph, &Nfa::plus("a"));
        // a+ on a cycle relates every ordered pair (including loops).
        assert_eq!(m.nnz(), 9);
    }

    #[test]
    fn missing_label_yields_empty() {
        let graph = generators::chain(3, "a");
        let m = solve_regular(&DenseEngine, &graph, &Nfa::plus("zzz"));
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn regular_grammar_and_nfa_agree() {
        // The differential oracle: S -> a S | a  (= a+) via Algorithm 1
        // must equal the NFA evaluation.
        let cfg = Cfg::parse("S -> a S | a").unwrap();
        let wcnf = cfg.to_wcnf(CnfOptions::default()).unwrap();
        let s = wcnf.symbols.get_nt("S").unwrap();
        for seed in 0..6u64 {
            let graph = generators::random_graph(7, 15, &["a", "b"], seed);
            let cf = FixpointSolver::new(&SparseEngine).solve(&graph, &wcnf);
            let re = solve_regular(&SparseEngine, &graph, &Nfa::plus("a"));
            assert_eq!(cf.pairs(s), re.pairs(), "seed {seed}");
        }
    }

    #[test]
    fn engines_agree_on_rpq() {
        let graph = generators::random_graph(9, 25, &["a", "b"], 3);
        let nfa = Nfa::star_then("a", "b");
        let d = solve_regular(&DenseEngine, &graph, &nfa);
        let s = solve_regular(&SparseEngine, &graph, &nfa);
        assert_eq!(d.pairs(), s.pairs());
    }
}

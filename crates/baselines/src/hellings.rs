//! Hellings' worklist algorithm for relational CFPQ \[11\].
//!
//! The pre-matrix state of the art (§3): a dynamic-transitive-closure-style
//! worklist over result triples `(A, i, j)`. When a new triple for `B`
//! arrives, every rule `A → BC` joins it with known `C`-triples starting
//! at `j`, and every rule `A → CB` joins with known `C`-triples ending at
//! `i`. Complexity `O(|V|³·|P|)` with small constants on sparse answers —
//! the natural oracle for the matrix solvers.

use crate::TripleStore;
use cfpq_grammar::Wcnf;
use cfpq_graph::Graph;
use std::collections::VecDeque;

/// Runs Hellings' algorithm; the result covers **every** nonterminal (same
/// observable as Algorithm 1).
pub fn solve_hellings(graph: &Graph, grammar: &Wcnf) -> TripleStore {
    let n = graph.n_nodes();
    let n_nts = grammar.n_nts();
    let mut store = TripleStore::new(n_nts);
    // succ[A][i] = targets j with (A, i, j); pred[A][j] = sources.
    let mut succ: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); n]; n_nts];
    let mut pred: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); n]; n_nts];
    let mut queue: VecDeque<(u32, u32, u32)> = VecDeque::new(); // (nt, i, j)

    let push = |store: &mut TripleStore,
                succ: &mut Vec<Vec<Vec<u32>>>,
                pred: &mut Vec<Vec<Vec<u32>>>,
                queue: &mut VecDeque<(u32, u32, u32)>,
                nt: cfpq_grammar::Nt,
                i: u32,
                j: u32| {
        if store.insert(nt, i, j) {
            succ[nt.index()][i as usize].push(j);
            pred[nt.index()][j as usize].push(i);
            queue.push_back((nt.0, i, j));
        }
    };

    // Initialization from terminal rules, as in Algorithm 1 lines 6-7.
    let term_of: Vec<Option<cfpq_grammar::Term>> = graph
        .labels()
        .map(|(_, name)| grammar.symbols.get_term(name))
        .collect();
    let by_term = grammar.nts_by_terminal();
    for e in graph.edges() {
        if let Some(term) = term_of[e.label.index()] {
            for &nt in &by_term[term.index()] {
                push(
                    &mut store, &mut succ, &mut pred, &mut queue, nt, e.from, e.to,
                );
            }
        }
    }

    let rules_by_left = grammar.rules_by_left();
    let rules_by_right = grammar.rules_by_right();

    while let Some((b, i, j)) = queue.pop_front() {
        // New (B, i, j). Rules A -> B C: join with (C, j, k).
        for &(a, c) in &rules_by_left[b as usize] {
            let continuations: Vec<u32> = succ[c.index()][j as usize].clone();
            for k in continuations {
                push(&mut store, &mut succ, &mut pred, &mut queue, a, i, k);
            }
        }
        // Rules A -> C B: join with (C, k, i).
        for &(a, c) in &rules_by_right[b as usize] {
            let starts: Vec<u32> = pred[c.index()][i as usize].clone();
            for k in starts {
                push(&mut store, &mut succ, &mut pred, &mut queue, a, k, j);
            }
        }
    }

    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpq_grammar::cnf::CnfOptions;
    use cfpq_grammar::{Cfg, Nt};
    use cfpq_graph::generators;

    fn wcnf(src: &str) -> Wcnf {
        Cfg::parse(src)
            .unwrap()
            .to_wcnf(CnfOptions::default())
            .unwrap()
    }

    #[test]
    fn anbn_on_chain() {
        let g = wcnf("S -> a S b | a b");
        let s = g.symbols.get_nt("S").unwrap();
        let graph = generators::word_chain(&["a", "a", "b", "b"]);
        let store = solve_hellings(&graph, &g);
        assert_eq!(store.pairs(s), vec![(0, 4), (1, 3)]);
    }

    #[test]
    fn cyclic_graph_terminates_and_is_sound() {
        let g = wcnf("S -> a S b | a b");
        let s = g.symbols.get_nt("S").unwrap();
        let graph = generators::two_cycles(2, 3);
        let store = solve_hellings(&graph, &g);
        assert!(store.contains(s, 0, 0));
        assert!(store.total() > 0);
    }

    #[test]
    fn paper_example_relations() {
        let g = cfpq_grammar::queries::fig4_normal_form()
            .to_wcnf(CnfOptions::default())
            .unwrap();
        let graph = generators::paper_example();
        let store = solve_hellings(&graph, &g);
        let nt = |name: &str| g.symbols.get_nt(name).unwrap();
        assert_eq!(store.pairs(nt("S")), vec![(0, 0), (0, 2), (1, 2)]);
        assert_eq!(store.pairs(nt("S5")), vec![(0, 0), (1, 0)]);
        assert_eq!(store.pairs(nt("S6")), vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn empty_graph() {
        let g = wcnf("S -> a b");
        let graph = Graph::new(3);
        let store = solve_hellings(&graph, &g);
        assert_eq!(store.total(), 0);
    }

    #[test]
    fn self_loop_growth() {
        // a-loop and b-loop on one node: S holds at (0,0).
        let g = wcnf("S -> a S b | a b");
        let s = g.symbols.get_nt("S").unwrap();
        let mut graph = Graph::new(1);
        graph.add_edge_named(0, "a", 0);
        graph.add_edge_named(0, "b", 0);
        let store = solve_hellings(&graph, &g);
        assert!(store.contains(s, 0, 0));
    }

    #[test]
    fn matches_matrix_solver_on_random_graphs() {
        use cfpq_core::relational::FixpointSolver;
        use cfpq_matrix::SparseEngine;
        for seed in 0..8u64 {
            let g = wcnf("S -> a S b | a b | S S");
            let graph = generators::random_graph(9, 24, &["a", "b"], seed);
            let store = solve_hellings(&graph, &g);
            let idx = FixpointSolver::new(&SparseEngine).solve(&graph, &g);
            for i in 0..g.n_nts() {
                let nt = Nt(i as u32);
                assert_eq!(store.pairs(nt), idx.pairs(nt), "seed {seed}, nt {nt:?}");
            }
        }
    }
}

//! The worklist RSM evaluator — kept as a differential oracle.
//!
//! The RSM IR itself ([`Rsm`], [`RsmBox`], trie construction) now lives
//! in [`cfpq_grammar::rsm`], where the unified compiled-query pipeline
//! (`cfpq-core::compile`) lowers it onto the matrix fixpoint; this
//! module keeps the original worklist evaluation — configurations
//! `(box, entry node, state, current node)` with call-site memoization —
//! purely as a cross-check. Like `solve_regular` for NFAs, [`solve_rsm`]
//! survives only to referee the pipeline: tests assert that the
//! compiled lowering and this GLL-flavoured traversal agree
//! triple-for-triple.

use crate::TripleStore;
use cfpq_grammar::cfg::{Cfg, Symbol};
use cfpq_grammar::{Nt, Term};
use cfpq_graph::{Graph, NodeId};
use std::collections::{HashMap, HashSet, VecDeque};

pub use cfpq_grammar::rsm::{Rsm, RsmBox, StateId};

/// Evaluates RSM reachability for `start` from every graph node.
///
/// Configurations `(A, u, q, v)`: box `A` entered at graph node `u`,
/// currently in state `q` at node `v`. Nonterminal transitions suspend
/// into call contexts keyed by `(B, v)` and are resumed for every result
/// `(B, v, w)` — the RSM analogue of the GSS pop replay.
///
/// Note the ε-semantics: a nullable box completes at its entry node, so
/// nullable nonterminals report the diagonal `(A, v, v)` — the same
/// convention as `SolveOptions::nullable_diagonal` on the matrix path.
pub fn solve_rsm(graph: &Graph, cfg: &Cfg, rsm: &Rsm, start: Nt) -> TripleStore {
    let mut store = TripleStore::new(cfg.symbols.n_nts());
    // term_of[label] = grammar terminal with the same name, if any.
    let term_of: Vec<Option<Term>> = graph
        .labels()
        .map(|(_, name)| cfg.symbols.get_term(name))
        .collect();

    type Config = (u32, NodeId, StateId, NodeId); // (box/nt, entry, state, node)
    type Context = (u32, NodeId, StateId); // suspended caller: (box, entry, return state)
    let mut seen: HashSet<Config> = HashSet::new();
    let mut work: VecDeque<Config> = VecDeque::new();
    // Contexts waiting on (B, v): resume (A, u, q', ·) at every result w.
    let mut waiting: HashMap<(u32, NodeId), Vec<Context>> = HashMap::new();
    // Started boxes, to avoid re-entry.
    let mut started: HashSet<(u32, NodeId)> = HashSet::new();
    // Known results per (B, v) for replay.
    let mut results_at: HashMap<(u32, NodeId), Vec<NodeId>> = HashMap::new();

    let enqueue = |seen: &mut HashSet<Config>, work: &mut VecDeque<Config>, c: Config| {
        if seen.insert(c) {
            work.push_back(c);
        }
    };

    for v in 0..graph.n_nodes() as NodeId {
        started.insert((start.0, v));
        for &e in &rsm.boxes[start.index()].entries {
            enqueue(&mut seen, &mut work, (start.0, v, e, v));
        }
    }

    while let Some((a, u, q, v)) = work.pop_front() {
        let b = &rsm.boxes[a as usize];
        if b.is_final(q) {
            // Completed A from u to v.
            if store.insert(Nt(a), u, v) {
                results_at.entry((a, u)).or_default().push(v);
                if let Some(contexts) = waiting.get(&(a, u)) {
                    for &(ca, cu, cq) in &contexts.clone() {
                        enqueue(&mut seen, &mut work, (ca, cu, cq, v));
                    }
                }
            }
        }
        for (sym, q2) in b.from_state(q) {
            match sym {
                Symbol::T(t) => {
                    for &(label, w) in graph.out_edges(v) {
                        if term_of[label.index()] == Some(t) {
                            enqueue(&mut seen, &mut work, (a, u, q2, w));
                        }
                    }
                }
                Symbol::N(callee) => {
                    // Suspend into a call of `callee` at v.
                    waiting.entry((callee.0, v)).or_default().push((a, u, q2));
                    if started.insert((callee.0, v)) {
                        for &e in &rsm.boxes[callee.index()].entries {
                            enqueue(&mut seen, &mut work, (callee.0, v, e, v));
                        }
                    }
                    if let Some(ws) = results_at.get(&(callee.0, v)) {
                        for &w in &ws.clone() {
                            enqueue(&mut seen, &mut work, (a, u, q2, w));
                        }
                    }
                }
            }
        }
    }

    store
}

/// Convenience: build the RSM and solve using the grammar's start symbol.
pub fn solve_rsm_cfg(graph: &Graph, cfg: &Cfg) -> TripleStore {
    let rsm = Rsm::from_cfg(cfg);
    let start = cfg.start.expect("grammar must have a start nonterminal");
    solve_rsm(graph, cfg, &rsm, start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpq_graph::generators;

    #[test]
    fn trie_shares_prefixes() {
        // Q1: both subClassOf_r alternatives share their first
        // transition, both type_r alternatives share theirs.
        let cfg = cfpq_grammar::queries::query1();
        let rsm = Rsm::from_cfg(&cfg);
        let b = &rsm.boxes[0];
        // Naive path-per-production: 4 productions × 2-3 symbols = 10
        // interior states + entry; the trie merges the two 2-symbol
        // prefixes into the longer alternatives' paths.
        assert!(
            b.n_states < 11,
            "expected prefix sharing, got {} states",
            b.n_states
        );
        // Entry has exactly two outgoing transitions (subClassOf_r,
        // type_r), not four.
        assert_eq!(b.from_state(0).count(), 2);
    }

    #[test]
    fn anbn_on_chain() {
        let cfg = Cfg::parse("S -> a S b | a b").unwrap();
        let s = cfg.symbols.get_nt("S").unwrap();
        let graph = generators::word_chain(&["a", "a", "b", "b"]);
        let store = solve_rsm_cfg(&graph, &cfg);
        assert_eq!(store.pairs(s), vec![(0, 4), (1, 3)]);
    }

    #[test]
    fn left_recursion_terminates() {
        let cfg = Cfg::parse("S -> S a | a").unwrap();
        let s = cfg.symbols.get_nt("S").unwrap();
        let graph = generators::chain(4, "a");
        let store = solve_rsm_cfg(&graph, &cfg);
        let mut expect = Vec::new();
        for i in 0..5u32 {
            for j in (i + 1)..5u32 {
                expect.push((i, j));
            }
        }
        assert_eq!(store.pairs(s), expect);
    }

    #[test]
    fn epsilon_production_gives_diagonal() {
        let cfg = Cfg::parse("S -> a S | eps").unwrap();
        let s = cfg.symbols.get_nt("S").unwrap();
        let graph = generators::chain(2, "a");
        let store = solve_rsm_cfg(&graph, &cfg);
        assert_eq!(
            store.pairs(s),
            vec![(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
        );
    }

    #[test]
    fn paper_example_start_relation() {
        let cfg = cfpq_grammar::queries::query1();
        let s = cfg.symbols.get_nt("S").unwrap();
        let graph = generators::paper_example();
        let store = solve_rsm_cfg(&graph, &cfg);
        assert_eq!(store.pairs(s), vec![(0, 0), (0, 2), (1, 2)]);
    }

    #[test]
    fn matches_gll_and_matrix_on_random_graphs() {
        use crate::gll::solve_gll;
        use cfpq_core::relational::FixpointSolver;
        use cfpq_grammar::cnf::CnfOptions;
        use cfpq_matrix::SparseEngine;
        for seed in 0..8u64 {
            let cfg = Cfg::parse("S -> a S b | a b | S S").unwrap();
            let graph = generators::random_graph(8, 20, &["a", "b"], seed);
            let rsm_store = solve_rsm_cfg(&graph, &cfg);
            let gll_store = solve_gll(&graph, &cfg);
            let s = cfg.symbols.get_nt("S").unwrap();
            assert_eq!(
                rsm_store.pairs(s),
                gll_store.pairs(s),
                "rsm vs gll, seed {seed}"
            );
            let wcnf = cfg.to_wcnf(CnfOptions::default()).unwrap();
            let idx = FixpointSolver::new(&SparseEngine).solve(&graph, &wcnf);
            let s_w = wcnf.symbols.get_nt("S").unwrap();
            assert_eq!(
                rsm_store.pairs(s),
                idx.pairs(s_w),
                "rsm vs matrix, seed {seed}"
            );
        }
    }

    #[test]
    fn empty_graph() {
        let cfg = Cfg::parse("S -> a").unwrap();
        let graph = Graph::new(2);
        let store = solve_rsm_cfg(&graph, &cfg);
        assert_eq!(store.total(), 0);
    }
}

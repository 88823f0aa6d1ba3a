//! GLL-based context-free path querying \[9\] — the paper's `GLL` column.
//!
//! Scott & Johnstone's GLL parsing \[22\] generalizes recursive descent to
//! arbitrary context-free grammars using *descriptors* and a
//! *graph-structured stack* (GSS). Grigorev & Ragozina \[9\] generalize the
//! input from a string to a graph: the "input pointer" becomes a graph
//! node, and reading a terminal follows every matching out-edge.
//!
//! This implementation produces the relational answer (triples
//! `(A, callPos, v)` recorded at every GSS pop) rather than an SPPF — the
//! configuration the paper benchmarks against. Unlike the matrix solvers
//! it works on the *original* grammar (no CNF required) and naturally
//! supports ε-rules (an ε-completion pops immediately, yielding the
//! diagonal triple `(A, v, v)`).
//!
//! Data structures (standard GLL, graph-generalized):
//! * descriptor `(slot, gssNode, v)` — slot is a dotted rule `A → α · β`;
//! * GSS node `(A, callPos)` with edges labeled by return slots;
//! * popped set `P(gssNode)` for the re-entrant completion replay.

use crate::TripleStore;
use cfpq_grammar::cfg::{Cfg, Symbol};
use cfpq_grammar::Nt;
use cfpq_graph::{Graph, Label};
use std::collections::{HashMap, HashSet, VecDeque};

/// A grammar slot: production index + dot position (0..=rhs.len()).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Slot {
    rule: u32,
    dot: u32,
}

/// Interned GSS node id.
type GssId = u32;

struct Gss {
    /// Key (nonterminal, call position) → id.
    by_key: HashMap<(Nt, u32), GssId>,
    keys: Vec<(Nt, u32)>,
    /// Outgoing edges: (return slot, parent GSS node).
    edges: Vec<Vec<(Slot, GssId)>>,
    /// Popped positions per node.
    popped: Vec<Vec<u32>>,
}

impl Gss {
    fn new() -> Self {
        Self {
            by_key: HashMap::new(),
            keys: Vec::new(),
            edges: Vec::new(),
            popped: Vec::new(),
        }
    }

    fn node(&mut self, nt: Nt, pos: u32) -> (GssId, bool) {
        if let Some(&id) = self.by_key.get(&(nt, pos)) {
            return (id, false);
        }
        let id = self.keys.len() as GssId;
        self.by_key.insert((nt, pos), id);
        self.keys.push((nt, pos));
        self.edges.push(Vec::new());
        self.popped.push(Vec::new());
        (id, true)
    }
}

/// The GLL-based CFPQ solver.
pub struct GllSolver<'g> {
    cfg: &'g Cfg,
    /// Productions grouped per nonterminal (indices into
    /// `cfg.productions`).
    alternatives: Vec<Vec<u32>>,
    /// Graph label ↔ grammar terminal match, by label index.
    term_of_label: Vec<Option<cfpq_grammar::Term>>,
}

impl<'g> GllSolver<'g> {
    /// Prepares a solver for `cfg` over `graph`'s label vocabulary.
    pub fn new(cfg: &'g Cfg, graph: &Graph) -> Self {
        let n_nts = cfg.symbols.n_nts();
        let mut alternatives: Vec<Vec<u32>> = vec![Vec::new(); n_nts];
        for (idx, p) in cfg.productions.iter().enumerate() {
            alternatives[p.lhs.index()].push(idx as u32);
        }
        let term_of_label = graph
            .labels()
            .map(|(_, name)| cfg.symbols.get_term(name))
            .collect();
        Self {
            cfg,
            alternatives,
            term_of_label,
        }
    }

    /// Evaluates the query for `start` from **every** graph node,
    /// returning all discovered triples (for `start` and, as a byproduct
    /// of the GSS, every nonterminal reachable in the top-down search).
    pub fn solve(&self, graph: &Graph, start: Nt) -> TripleStore {
        let mut store = TripleStore::new(self.cfg.symbols.n_nts());
        let mut gss = Gss::new();
        let mut seen: HashSet<(Slot, GssId, u32)> = HashSet::new();
        let mut work: VecDeque<(Slot, GssId, u32)> = VecDeque::new();

        let enqueue = |seen: &mut HashSet<(Slot, GssId, u32)>,
                       work: &mut VecDeque<(Slot, GssId, u32)>,
                       d: (Slot, GssId, u32)| {
            if seen.insert(d) {
                work.push_back(d);
            }
        };

        // Seed: call `start` at every node.
        for v in 0..graph.n_nodes() as u32 {
            let (root, _) = gss.node(start, v);
            for &rule in &self.alternatives[start.index()] {
                enqueue(&mut seen, &mut work, (Slot { rule, dot: 0 }, root, v));
            }
        }

        while let Some((slot, u, v)) = work.pop_front() {
            let prod = &self.cfg.productions[slot.rule as usize];
            if (slot.dot as usize) < prod.rhs.len() {
                match prod.rhs[slot.dot as usize] {
                    Symbol::T(t) => {
                        // Follow every matching out-edge of v.
                        for &(label, w) in graph.out_edges(v) {
                            if self.label_matches(label, t) {
                                enqueue(
                                    &mut seen,
                                    &mut work,
                                    (
                                        Slot {
                                            rule: slot.rule,
                                            dot: slot.dot + 1,
                                        },
                                        u,
                                        w,
                                    ),
                                );
                            }
                        }
                    }
                    Symbol::N(b) => {
                        // create(L, u, v): GSS node for (B, v), edge back
                        // to u labeled with the return slot.
                        let ret = Slot {
                            rule: slot.rule,
                            dot: slot.dot + 1,
                        };
                        let (w, _) = gss.node(b, v);
                        if !gss.edges[w as usize].contains(&(ret, u)) {
                            gss.edges[w as usize].push((ret, u));
                            // Replay earlier pops of w through this new edge.
                            let popped: Vec<u32> = gss.popped[w as usize].clone();
                            for z in popped {
                                enqueue(&mut seen, &mut work, (ret, u, z));
                            }
                        }
                        for &rule in &self.alternatives[b.index()] {
                            enqueue(&mut seen, &mut work, (Slot { rule, dot: 0 }, w, v));
                        }
                    }
                }
            } else {
                // pop(u, v): the nonterminal of u completed from its call
                // position to v.
                let (a, call_pos) = gss.keys[u as usize];
                store.insert(a, call_pos, v);
                if !gss.popped[u as usize].contains(&v) {
                    gss.popped[u as usize].push(v);
                    let edges: Vec<(Slot, GssId)> = gss.edges[u as usize].clone();
                    for (ret, parent) in edges {
                        enqueue(&mut seen, &mut work, (ret, parent, v));
                    }
                }
            }
        }

        store
    }

    fn label_matches(&self, label: Label, t: cfpq_grammar::Term) -> bool {
        self.term_of_label[label.index()] == Some(t)
    }
}

/// Convenience wrapper: solve `cfg` (using its start nonterminal) over
/// `graph`.
pub fn solve_gll(graph: &Graph, cfg: &Cfg) -> TripleStore {
    let start = cfg.start.expect("grammar must have a start nonterminal");
    GllSolver::new(cfg, graph).solve(graph, start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpq_grammar::queries;
    use cfpq_graph::generators;

    #[test]
    fn anbn_on_chain() {
        let cfg = Cfg::parse("S -> a S b | a b").unwrap();
        let s = cfg.symbols.get_nt("S").unwrap();
        let graph = generators::word_chain(&["a", "a", "b", "b"]);
        let store = solve_gll(&graph, &cfg);
        assert_eq!(store.pairs(s), vec![(0, 4), (1, 3)]);
    }

    #[test]
    fn left_recursion_terminates() {
        // Left recursion is the classic recursive-descent killer; the GSS
        // must handle it.
        let cfg = Cfg::parse("S -> S a | a").unwrap();
        let s = cfg.symbols.get_nt("S").unwrap();
        let graph = generators::chain(4, "a");
        let store = solve_gll(&graph, &cfg);
        // Every (i, j) with i < j is an a^+ span.
        let mut expect = Vec::new();
        for i in 0..5u32 {
            for j in (i + 1)..5u32 {
                expect.push((i, j));
            }
        }
        assert_eq!(store.pairs(s), expect);
    }

    #[test]
    fn epsilon_rules_give_diagonal() {
        let cfg = Cfg::parse("S -> a S | eps").unwrap();
        let s = cfg.symbols.get_nt("S").unwrap();
        let graph = generators::chain(2, "a");
        let store = solve_gll(&graph, &cfg);
        // ε at every node + suffix reads.
        assert_eq!(
            store.pairs(s),
            vec![(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
        );
    }

    #[test]
    fn paper_example_start_relation() {
        // GLL works on the original (non-CNF) Q1 grammar directly.
        let cfg = queries::query1();
        let s = cfg.symbols.get_nt("S").unwrap();
        let graph = generators::paper_example();
        let store = solve_gll(&graph, &cfg);
        assert_eq!(store.pairs(s), vec![(0, 0), (0, 2), (1, 2)]);
    }

    #[test]
    fn cyclic_input_terminates() {
        let cfg = Cfg::parse("S -> a S b | a b").unwrap();
        let s = cfg.symbols.get_nt("S").unwrap();
        let graph = generators::two_cycles(2, 3);
        let store = solve_gll(&graph, &cfg);
        assert!(store.contains(s, 0, 0));
    }

    #[test]
    fn matches_matrix_solver_on_random_graphs() {
        use cfpq_core::relational::FixpointSolver;
        use cfpq_grammar::cnf::CnfOptions;
        use cfpq_matrix::SparseEngine;
        for seed in 0..8u64 {
            let cfg = Cfg::parse("S -> a S b | a b | S S").unwrap();
            let graph = generators::random_graph(8, 20, &["a", "b"], seed);
            let store = solve_gll(&graph, &cfg);
            let wcnf = cfg.to_wcnf(CnfOptions::default()).unwrap();
            let idx = FixpointSolver::new(&SparseEngine).solve(&graph, &wcnf);
            let s_gll = cfg.symbols.get_nt("S").unwrap();
            let s_mat = wcnf.symbols.get_nt("S").unwrap();
            assert_eq!(
                store.pairs(s_gll),
                idx.pairs(s_mat),
                "R_S mismatch on seed {seed}"
            );
        }
    }

    #[test]
    fn empty_graph_no_answers() {
        let cfg = Cfg::parse("S -> a").unwrap();
        let graph = Graph::new(3);
        let store = solve_gll(&graph, &cfg);
        let s = cfg.symbols.get_nt("S").unwrap();
        assert!(store.pairs(s).is_empty());
    }
}

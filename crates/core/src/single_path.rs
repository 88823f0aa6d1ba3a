//! Single-path query semantics (§5), on the engine pipeline.
//!
//! The closure computation is modified so that every nonterminal stored
//! in a cell carries the length of *some* witness path: terminal entries
//! get length 1, and an entry derived by `A → BC` from `(B, l_B)` at
//! `(i, k)` and `(C, l_C)` at `(k, j)` gets `l_A = l_B + l_C`. Crucially
//! (paper: "if some nonterminal A with an associated path length l₁ is in
//! a⁽ᵖ⁾ᵢⱼ then A is not added … with length l₂ for l₂ ≠ l₁"), lengths are
//! **first-write-wins** — never updated once set. This makes the witness
//! extraction of Theorem 5 terminate: both split lengths are strictly
//! smaller and remain valid forever because matrices only grow.
//!
//! First-write-wins is exactly the masked-kernel contract of the
//! relational pipeline, so [`SinglePathSolver`] is the length front of
//! the loop [`crate::relational::FixpointSolver`] fronts for bits
//! (`fixpoint.rs`): one [`cfpq_matrix::LenMat`] per nonterminal, per-sweep
//! Δ operands, shared `(B, C)` products and [`cfpq_matrix::LenEngine`]
//! masked kernels that only emit cells the closure does not hold yet,
//! with the same spans and [`SolveStats`] as a relational run. A naive
//! `O(n³)` loop over flat length tables, [`solve_single_path_oracle`], is
//! the reference the property suite holds the pipeline to.
//!
//! # ε-witnesses
//!
//! The weak-CNF grammars the solvers consume are ε-eliminated; the
//! nonterminals that *were* nullable are recorded in `Wcnf::nullable`.
//! With [`SolveOptions::nullable_diagonal`] set, the relational solver
//! reports `(A, m, m)` for every nullable `A`, and the single-path index
//! agrees ([`SinglePathIndex::contains`] reads the same cells): absent is
//! [`cfpq_matrix::NO_PATH`] (`u32::MAX`), so the empty path has length 0.
//! The ε-overlay is the relational one (`fixpoint.rs`): after the
//! fixpoint of a cold solve, and of a repair for the nodes it adds,
//! `(A, m, m) = 0` for every nullable `A` wherever the closure recorded
//! no other witness (first write wins). Because ε-elimination is
//! complete (compensation rules cover every erased occurrence), these
//! ε-cells never need to act as product operands — the length kernels
//! skip length-0 cells — which keeps every stored split well-founded:
//! extraction recurses on strictly smaller nonzero lengths and resolves
//! length 0 to the empty path and length 1 to a graph edge.
//!
//! The extracted witness is re-derivable by construction; tests re-check
//! every extracted label string with the CYK oracle.

use cfpq_grammar::{Nt, Wcnf};
use cfpq_graph::{Edge, Graph, NodeId};
use cfpq_matrix::{DenseLenMatrix, LenEngine, LenMat, NO_PATH};

use crate::fixpoint::{self, Lengths};
use crate::relational::{init_pairs, label_terminal_map, SeedOutOfRange, SolveOptions, SolveStats};

/// Length-annotated relational index: one length matrix per nonterminal;
/// a present cell `(A, i, j) = l` means `(i, j) ∈ R_A` with a witness
/// path of exactly `l` edges (`0` = the empty path of a nullable `A`).
#[derive(Clone, Debug)]
pub struct SinglePathIndex<M: LenMat> {
    /// Graph size |V|.
    pub n_nodes: usize,
    /// One `n × n` length matrix per nonterminal.
    pub(crate) lengths: Vec<M>,
    /// Fixpoint sweeps executed.
    pub iterations: usize,
    /// Kernel-work counters of the fixpoint (naive oracle runs count one
    /// product per rule per sweep). As for a relational index, the
    /// ε-overlay is written after each run, so that run's `sweep_nnz` and
    /// `nt_nnz` do not count its ε-cells.
    pub stats: SolveStats,
}

impl<M: LenMat> SinglePathIndex<M> {
    /// The witness length for `(A, i, j)`, if `(i, j) ∈ R_A`.
    pub fn length(&self, nt: Nt, i: u32, j: u32) -> Option<u32> {
        self.lengths[nt.index()].get(i, j)
    }

    /// True if `(i, j) ∈ R_A`.
    pub fn contains(&self, nt: Nt, i: u32, j: u32) -> bool {
        self.length(nt, i, j).is_some()
    }

    /// All pairs of `R_A` with their witness lengths, row-major.
    pub fn pairs_with_lengths(&self, nt: Nt) -> Vec<(u32, u32, u32)> {
        self.lengths[nt.index()].entries()
    }

    /// `R_A` as sorted pairs (the shape [`crate::relational::RelationalIndex::pairs`]
    /// returns, for direct comparison).
    pub fn pairs(&self, nt: Nt) -> Vec<(u32, u32)> {
        self.lengths[nt.index()].pairs()
    }

    /// `|R_A|`.
    pub fn count(&self, nt: Nt) -> usize {
        self.lengths[nt.index()].nnz()
    }

    /// The underlying length matrix of a nonterminal.
    pub fn matrix(&self, nt: Nt) -> &M {
        &self.lengths[nt.index()]
    }
}

/// The engine-generic §5 solver: the masked semi-naive fixpoint of
/// [`crate::relational::FixpointSolver`], run over length matrices.
///
/// ```
/// use cfpq_core::single_path::{extract_path, SinglePathSolver};
/// use cfpq_grammar::{cnf::CnfOptions, Cfg};
/// use cfpq_graph::generators;
/// use cfpq_matrix::SparseEngine;
///
/// let g = Cfg::parse("S -> a S b | a b").unwrap()
///     .to_wcnf(CnfOptions::default()).unwrap();
/// let s = g.symbols.get_nt("S").unwrap();
/// let graph = generators::word_chain(&["a", "a", "b", "b"]);
/// let idx = SinglePathSolver::new(&SparseEngine).solve(&graph, &g);
/// assert_eq!(idx.length(s, 0, 4), Some(4));
/// let path = extract_path(&idx, &graph, &g, s, 0, 4).unwrap();
/// assert_eq!(path.len(), 4);
/// ```
pub struct SinglePathSolver<'e, E: LenEngine> {
    engine: &'e E,
    options: SolveOptions,
}

impl<'e, E: LenEngine> SinglePathSolver<'e, E> {
    /// A solver on `engine` with default [`SolveOptions`].
    pub fn new(engine: &'e E) -> Self {
        Self {
            engine,
            options: SolveOptions::default(),
        }
    }

    /// Sets the solve options (the ε-overlay).
    pub fn options(mut self, options: SolveOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs the §5 length-annotated closure: terminal seeds at length 1,
    /// masked semi-naive sweeps, then the ε-overlay (if enabled).
    pub fn solve(&self, graph: &Graph, grammar: &Wcnf) -> SinglePathIndex<E::LenMatrix> {
        let n = graph.n_nodes();
        let matrices: Vec<E::LenMatrix> = init_pairs(graph, grammar)
            .into_iter()
            .map(|pairs| {
                let entries: Vec<(u32, u32, u32)> =
                    pairs.into_iter().map(|(i, j)| (i, j, 1)).collect();
                self.engine.len_from_entries(n, &entries)
            })
            .collect();
        self.solve_from_matrices(matrices, n, grammar)
    }

    /// Runs the fixpoint from pre-seeded length-1 base facts (the
    /// session layer seeds straight from its label matrices), then the
    /// ε-overlay if enabled. The closed matrices are then trimmed
    /// ([`LenMat::shrink_to_fit`]): a cold closure holds only its present
    /// cells. [`Self::resume`] keeps the room its merges leave, for the
    /// next repair to merge into.
    pub fn solve_from_matrices(
        &self,
        mut matrices: Vec<E::LenMatrix>,
        n: usize,
        grammar: &Wcnf,
    ) -> SinglePathIndex<E::LenMatrix> {
        let algebra = Lengths(self.engine);
        let stats = fixpoint::solve(&algebra, &mut matrices, grammar, self.options, n);
        matrices.iter_mut().for_each(LenMat::shrink_to_fit);
        SinglePathIndex {
            n_nodes: n,
            lengths: matrices,
            iterations: stats.sweep_nnz.len(),
            stats,
        }
    }

    /// Incrementally folds newly-discovered base facts (fresh graph
    /// edges, as length-1 entries) into a closed index, re-running only
    /// the semi-naive Δ loop — the single-path analogue of
    /// [`crate::relational::FixpointSolver::resume`], and the same
    /// repair. Entries already present keep their recorded lengths
    /// (first-write-wins); the rest seed the Δ sweeps. Returns the stats
    /// of the resume portion alone; the index's cumulative counters are
    /// also advanced. A pair outside the index's matrices is a
    /// [`SeedOutOfRange`] error and leaves the index as it was.
    pub fn resume(
        &self,
        index: &mut SinglePathIndex<E::LenMatrix>,
        grammar: &Wcnf,
        new_pairs: &[Vec<(u32, u32)>],
    ) -> Result<SolveStats, SeedOutOfRange> {
        let (algebra, n) = (Lengths(self.engine), index.n_nodes);
        fixpoint::repair(&algebra, index, grammar, self.options, n, new_pairs)
    }
}

impl<M: LenMat> fixpoint::Closed for SinglePathIndex<M> {
    type Matrix = M;

    fn parts(&mut self) -> (&mut [M], &mut usize, &mut usize, &mut SolveStats) {
        (
            &mut self.lengths,
            &mut self.n_nodes,
            &mut self.iterations,
            &mut self.stats,
        )
    }
}

/// The seed-era naive `O(n³)` sweep over flat length tables, kept as the
/// reference oracle the engine pipeline is property-tested against.
/// Fixed relative to its original form: absent is [`NO_PATH`] (not `0`),
/// so the ε-overlay can store genuine length-0 witnesses.
pub fn solve_single_path_oracle(
    graph: &Graph,
    grammar: &Wcnf,
    options: SolveOptions,
) -> SinglePathIndex<DenseLenMatrix> {
    let n = graph.n_nodes();
    let n_nts = grammar.n_nts();
    let mut tabs: Vec<Vec<u32>> = vec![vec![NO_PATH; n * n]; n_nts];

    // Initialization: all terminal-rule entries have length 1.
    for (nt_index, pairs) in init_pairs(graph, grammar).into_iter().enumerate() {
        for (i, j) in pairs {
            tabs[nt_index][i as usize * n + j as usize] = 1;
        }
    }

    // Fixpoint sweeps. For each rule A -> BC and each (i, k) ∈ R_B,
    // (k, j) ∈ R_C: set l_A(i, j) = l_B + l_C if unset (first write
    // wins). ε-cells (length 0) are skipped as operands, exactly like
    // the engine kernels.
    let mut stats = SolveStats::default();
    let mut iterations = 0;
    loop {
        iterations += 1;
        let mut changed = false;
        for rule in &grammar.binary_rules {
            let (a, b, c) = (rule.lhs.index(), rule.left.index(), rule.right.index());
            stats.products_computed += 1;
            for i in 0..n {
                for k in 0..n {
                    let lb = tabs[b][i * n + k];
                    if lb == NO_PATH || lb == 0 {
                        continue;
                    }
                    for j in 0..n {
                        let lc = tabs[c][k * n + j];
                        if lc == NO_PATH || lc == 0 {
                            continue;
                        }
                        let cell = &mut tabs[a][i * n + j];
                        if *cell == NO_PATH {
                            *cell = lb + lc;
                            changed = true;
                        }
                    }
                }
            }
        }
        stats.sweep_nnz.push(
            tabs.iter()
                .map(|t| t.iter().filter(|&&l| l != NO_PATH).count())
                .sum(),
        );
        if !changed {
            break;
        }
    }

    // ε-overlay, as the engine pipeline writes it after the fixpoint.
    if options.nullable_diagonal {
        for &nt in &grammar.nullable {
            let tab = &mut tabs[nt.index()];
            for m in 0..n {
                let cell = &mut tab[m * n + m];
                if *cell == NO_PATH {
                    *cell = 0;
                }
            }
        }
    }

    SinglePathIndex {
        n_nodes: n,
        lengths: tabs
            .into_iter()
            .map(|vals| DenseLenMatrix::from_flat(n, vals))
            .collect(),
        iterations,
        stats,
    }
}

/// Errors from witness extraction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExtractError {
    /// `(A, i, j)` is not in the relational answer.
    NotInRelation,
    /// Internal inconsistency — the index should always admit a split;
    /// reaching this indicates index corruption.
    NoWitnessSplit {
        /// Nonterminal whose split failed.
        nt: Nt,
        /// Source node.
        from: NodeId,
        /// Target node.
        to: NodeId,
        /// Expected total length.
        length: u32,
    },
}

impl std::fmt::Display for ExtractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtractError::NotInRelation => write!(f, "pair is not in the relation"),
            ExtractError::NoWitnessSplit {
                nt,
                from,
                to,
                length,
            } => write!(
                f,
                "no witness split for {nt:?} ({from} -> {to}, length {length})"
            ),
        }
    }
}

impl std::error::Error for ExtractError {}

/// Extracts a witness path for `(A, i, j)` from the single-path index by
/// the "simple search" of §5: a length-0 entry is the empty path of a
/// nullable `A`; a length-1 entry is resolved to a matching edge; a
/// longer entry is split at any `k` with a rule `A → BC` such that
/// `l_B + l_C = l_A` with both parts nonzero, recursing on strictly
/// smaller lengths. (Stored nonzero cells always admit such a split:
/// kernels never compose through ε-cells, so every product cell was
/// written from two nonzero parts that remain valid forever.)
pub fn extract_path<M: LenMat>(
    index: &SinglePathIndex<M>,
    graph: &Graph,
    grammar: &Wcnf,
    nt: Nt,
    from: NodeId,
    to: NodeId,
) -> Result<Vec<Edge>, ExtractError> {
    let Some(total) = index.length(nt, from, to) else {
        return Err(ExtractError::NotInRelation);
    };
    let term_of = label_terminal_map(graph, grammar);
    let mut path = Vec::with_capacity(total as usize);
    extract_into(
        index, graph, grammar, &term_of, nt, from, to, total, &mut path,
    )?;
    Ok(path)
}

#[allow(clippy::too_many_arguments)]
fn extract_into<M: LenMat>(
    index: &SinglePathIndex<M>,
    graph: &Graph,
    grammar: &Wcnf,
    term_of: &[Option<cfpq_grammar::Term>],
    nt: Nt,
    from: NodeId,
    to: NodeId,
    length: u32,
    out: &mut Vec<Edge>,
) -> Result<(), ExtractError> {
    if length == 0 {
        // The ε-witness: only ever stored at (m, m) for nullable A.
        debug_assert!(from == to && grammar.nullable.contains(&nt));
        return Ok(());
    }
    if length == 1 {
        // Find an edge (from, x, to) with A -> x.
        for &(label, v) in graph.out_edges(from) {
            if v != to {
                continue;
            }
            let Some(term) = term_of[label.index()] else {
                continue;
            };
            if grammar
                .term_rules
                .iter()
                .any(|r| r.lhs == nt && r.term == term)
            {
                out.push(Edge { from, label, to });
                return Ok(());
            }
        }
        return Err(ExtractError::NoWitnessSplit {
            nt,
            from,
            to,
            length,
        });
    }
    // Split via some rule A -> BC and midpoint k with l_B + l_C = l_A,
    // both parts nonzero (ε-cells never participate in splits). The
    // candidates are the stored cells of row `from` of l_B, in ascending
    // k: a split costs that row, not the graph.
    for rule in &grammar.binary_rules {
        if rule.lhs != nt {
            continue;
        }
        for (k, lb) in index.matrix(rule.left).row_cells(from) {
            if lb == 0 || lb >= length {
                continue;
            }
            let lc = length - lb;
            if index.length(rule.right, k, to) != Some(lc) {
                continue;
            }
            extract_into(index, graph, grammar, term_of, rule.left, from, k, lb, out)?;
            extract_into(index, graph, grammar, term_of, rule.right, k, to, lc, out)?;
            return Ok(());
        }
    }
    Err(ExtractError::NoWitnessSplit {
        nt,
        from,
        to,
        length,
    })
}

/// The label word of a path, as grammar terminals (for CYK re-checking).
/// Returns `None` if some edge label is not a grammar terminal.
pub fn path_word(path: &[Edge], graph: &Graph, grammar: &Wcnf) -> Option<Vec<cfpq_grammar::Term>> {
    path.iter()
        .map(|e| grammar.symbols.get_term(graph.label_name(e.label)))
        .collect()
}

/// Validates that `path` is a well-formed graph path from `from` to `to`
/// and that its label word derives from `nt`. The Theorem-5 soundness
/// check, used pervasively in tests. The empty path is a valid witness
/// exactly for a nullable `nt` at a diagonal pair (`from == to`) — the
/// ε-match the `nullable_diagonal` option reports.
pub fn validate_witness(
    path: &[Edge],
    graph: &Graph,
    grammar: &Wcnf,
    nt: Nt,
    from: NodeId,
    to: NodeId,
) -> bool {
    if path.is_empty() {
        return from == to && grammar.nullable.contains(&nt);
    }
    if path[0].from != from || path[path.len() - 1].to != to {
        return false;
    }
    // Contiguity and edge existence.
    for w in path.windows(2) {
        if w[0].to != w[1].from {
            return false;
        }
    }
    for e in path {
        if !graph
            .out_edges(e.from)
            .iter()
            .any(|&(l, v)| l == e.label && v == e.to)
        {
            return false;
        }
    }
    match path_word(path, graph, grammar) {
        Some(word) => grammar.derives(nt, &word),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relational::FixpointSolver;
    use crate::session::CfpqSession;
    use cfpq_grammar::cnf::CnfOptions;
    use cfpq_grammar::Cfg;
    use cfpq_graph::generators;
    use cfpq_matrix::{
        DenseEngine, Device, ParDenseEngine, ParSparseEngine, SparseEngine, TiledEngine,
    };

    fn wcnf(src: &str) -> Wcnf {
        Cfg::parse(src)
            .unwrap()
            .to_wcnf(CnfOptions::default())
            .unwrap()
    }

    #[test]
    fn lengths_on_chain() {
        let g = wcnf("S -> a S b | a b");
        let s = g.symbols.get_nt("S").unwrap();
        let graph = generators::word_chain(&["a", "a", "b", "b"]);
        let idx = SinglePathSolver::new(&DenseEngine).solve(&graph, &g);
        assert_eq!(idx.length(s, 0, 4), Some(4));
        assert_eq!(idx.length(s, 1, 3), Some(2));
        assert_eq!(idx.length(s, 0, 3), None);
    }

    #[test]
    fn pair_sets_match_relational_solver() {
        let g = wcnf("S -> a S b | a b | S S");
        let graph = generators::two_cycles(3, 2);
        let sp = SinglePathSolver::new(&DenseEngine).solve(&graph, &g);
        let rel = FixpointSolver::new(&DenseEngine).solve(&graph, &g);
        for nt in 0..g.n_nts() {
            let nt = Nt(nt as u32);
            assert_eq!(sp.pairs(nt), rel.pairs(nt), "nt {nt:?}");
        }
    }

    #[test]
    fn engine_pipeline_matches_oracle_on_every_engine() {
        let g = wcnf("S -> a S b | a b | S S");
        let graph = generators::two_cycles(3, 2);
        let oracle = solve_single_path_oracle(&graph, &g, SolveOptions::default());
        fn pairs_of<E: LenEngine>(e: &E, graph: &Graph, g: &Wcnf) -> Vec<Vec<(u32, u32)>> {
            let idx = SinglePathSolver::new(e).solve(graph, g);
            (0..g.n_nts()).map(|a| idx.pairs(Nt(a as u32))).collect()
        }
        let expect: Vec<Vec<(u32, u32)>> =
            (0..g.n_nts()).map(|a| oracle.pairs(Nt(a as u32))).collect();
        assert_eq!(pairs_of(&DenseEngine, &graph, &g), expect);
        assert_eq!(pairs_of(&SparseEngine, &graph, &g), expect);
        assert_eq!(
            pairs_of(&ParDenseEngine::new(Device::new(2)), &graph, &g),
            expect
        );
        assert_eq!(
            pairs_of(&ParSparseEngine::new(Device::new(3)), &graph, &g),
            expect
        );
    }

    #[test]
    fn a_cold_closure_holds_only_its_cells() {
        let cfg = Cfg::parse("S -> a S b | a b | S S").unwrap();
        let g = cfg.to_wcnf(CnfOptions::default()).unwrap();
        // Three tile-rows, many sweeps: the merges re-lay tiles.
        let graph = generators::random_graph(150, 600, &["a", "b"], 7);
        // A trimmed copy is exact, so a matrix that holds as many bytes
        // holds no dead value and no spare capacity.
        fn assert_trimmed<M: LenMat>(lengths: &[M]) {
            for m in lengths {
                let mut copy = m.clone();
                copy.shrink_to_fit();
                assert_eq!(copy.bytes(), m.bytes(), "a trim frees nothing");
            }
        }
        let engine = TiledEngine::serial();
        let idx = SinglePathSolver::new(&engine).solve(&graph, &g);
        assert!(idx.iterations > 3 && idx.count(Nt(0)) > 1_000);
        assert_trimmed(&idx.lengths);
        let mut session = CfpqSession::new(engine, &graph);
        let id = session.prepare_single_path(&cfg).unwrap();
        assert_trimmed(&session.evaluate_single_path(id).lengths);
        assert_trimmed(
            &SinglePathSolver::new(&SparseEngine)
                .solve(&graph, &g)
                .lengths,
        );
    }

    #[test]
    fn nullable_diagonal_matches_relational_index() {
        // The PR-4 regression: on a grammar with erasable nonterminals,
        // the single-path index must agree with the relational index
        // solved under the same option — including the ε-diagonal.
        let g = wcnf("S -> a S b | eps");
        let graph = generators::two_cycles(2, 3);
        let options = SolveOptions {
            nullable_diagonal: true,
        };
        let rel = FixpointSolver::new(&SparseEngine)
            .options(options)
            .solve(&graph, &g);
        for engine_pairs in [
            {
                let idx = SinglePathSolver::new(&SparseEngine)
                    .options(options)
                    .solve(&graph, &g);
                (0..g.n_nts())
                    .map(|a| idx.pairs(Nt(a as u32)))
                    .collect::<Vec<_>>()
            },
            {
                let idx = solve_single_path_oracle(&graph, &g, options);
                (0..g.n_nts())
                    .map(|a| idx.pairs(Nt(a as u32)))
                    .collect::<Vec<_>>()
            },
        ] {
            for nt in 0..g.n_nts() {
                let nt = Nt(nt as u32);
                assert_eq!(engine_pairs[nt.index()], rel.pairs(nt), "nt {nt:?}");
            }
        }
    }

    #[test]
    fn epsilon_witness_extracts_to_the_empty_path() {
        // Acyclic graph: the only diagonal matches are the ε-witnesses.
        let g = wcnf("S -> a S | eps");
        let s = g.symbols.get_nt("S").unwrap();
        let graph = generators::chain(2, "a");
        let idx = SinglePathSolver::new(&DenseEngine)
            .options(SolveOptions {
                nullable_diagonal: true,
            })
            .solve(&graph, &g);
        for m in 0..graph.n_nodes() as u32 {
            assert_eq!(idx.length(s, m, m), Some(0), "ε-witness at ({m},{m})");
            let path = extract_path(&idx, &graph, &g, s, m, m).unwrap();
            assert!(path.is_empty(), "the ε-witness is the empty path");
            assert!(validate_witness(&path, &graph, &g, s, m, m));
        }
        // Non-diagonal entries keep real witnesses under the option.
        let path = extract_path(&idx, &graph, &g, s, 0, 2).unwrap();
        assert_eq!(path.len(), 2);
        assert!(validate_witness(&path, &graph, &g, s, 0, 2));

        // On a cyclic graph a diagonal cell may instead keep a real
        // (first-written) witness; either way it extracts validly.
        let g2 = wcnf("S -> a S b | eps");
        let s2 = g2.symbols.get_nt("S").unwrap();
        let cyclic = generators::two_cycles(2, 3);
        let idx2 = SinglePathSolver::new(&DenseEngine)
            .options(SolveOptions {
                nullable_diagonal: true,
            })
            .solve(&cyclic, &g2);
        for m in 0..cyclic.n_nodes() as u32 {
            let len = idx2.length(s2, m, m).expect("diagonal present");
            let path = extract_path(&idx2, &cyclic, &g2, s2, m, m).unwrap();
            assert_eq!(path.len() as u32, len);
            assert!(validate_witness(&path, &cyclic, &g2, s2, m, m));
        }
    }

    /// Per-nonterminal base facts, as `resume` takes them.
    type Seeds = Vec<Vec<(u32, u32)>>;

    /// `S → a S b | a b`, the chain a²b², the chain without its last edge
    /// `(3, b, 4)`, and that edge as the seeds of a resume.
    fn chain_missing_its_last_edge() -> (Wcnf, Graph, Graph, Seeds) {
        let g = wcnf("S -> a S b | a b");
        let full_graph = generators::word_chain(&["a", "a", "b", "b"]);
        let mut partial = cfpq_graph::Graph::new(5);
        for e in full_graph.edges().iter().take(3) {
            partial.add_edge_named(e.from, full_graph.label_name(e.label), e.to);
        }
        let b_term = g.symbols.get_term("b").unwrap();
        let mut new_pairs = vec![Vec::new(); g.n_nts()];
        for nt in &g.nts_by_terminal()[b_term.index()] {
            new_pairs[nt.index()].push((3, 4));
        }
        (g, full_graph, partial, new_pairs)
    }

    #[test]
    fn resume_matches_cold_solve() {
        let (g, full_graph, partial, new_pairs) = chain_missing_its_last_edge();
        let solver = SinglePathSolver::new(&SparseEngine);
        let mut idx = solver.solve(&partial, &g);
        let cold = solver.solve(&full_graph, &g);

        let resume_stats = solver.resume(&mut idx, &g, &new_pairs).unwrap();
        for nt in 0..g.n_nts() {
            let nt = Nt(nt as u32);
            assert_eq!(idx.pairs(nt), cold.pairs(nt), "repaired == from-scratch");
        }
        assert!(
            resume_stats.products_computed < cold.stats.products_computed,
            "resume {} vs cold {}",
            resume_stats.products_computed,
            cold.stats.products_computed
        );
        // Repaired witnesses are still extractable and valid.
        let s = g.symbols.get_nt("S").unwrap();
        let path = extract_path(&idx, &full_graph, &g, s, 0, 4).unwrap();
        assert!(validate_witness(&path, &full_graph, &g, s, 0, 4));
    }

    #[test]
    fn resume_refuses_a_seed_outside_the_universe() {
        let (g, _, partial, mut new_pairs) = chain_missing_its_last_edge();
        let s = g.symbols.get_nt("S").unwrap();
        let solver = SinglePathSolver::new(&SparseEngine);
        let mut idx = solver.solve(&partial, &g);
        let before = (idx.pairs(s), idx.iterations, idx.stats.clone());
        new_pairs[s.index()].push((9, 0));
        assert_eq!(
            solver.resume(&mut idx, &g, &new_pairs),
            Err(SeedOutOfRange {
                nt: s,
                cell: (9, 0),
                n: 5
            })
        );
        assert_eq!((idx.pairs(s), idx.iterations, idx.stats.clone()), before);
        let b = g.nts_by_terminal()[g.symbols.get_term("b").unwrap().index()][0];
        assert_eq!(idx.length(b, 3, 4), None, "nor were the pairs in range");
    }

    #[test]
    fn stats_are_kept_like_the_relational_solvers() {
        // Every `SolveStats` field is filled by the cold solve and by the
        // repair, and the index's cumulative counters are exactly the one
        // absorbed into the other.
        let (g, _, partial, new_pairs) = chain_missing_its_last_edge();
        let solver = SinglePathSolver::new(&SparseEngine);
        let mut idx = solver.solve(&partial, &g);
        let stored = |idx: &SinglePathIndex<_>| -> Vec<usize> {
            (0..g.n_nts()).map(|a| idx.count(Nt(a as u32))).collect()
        };
        let cold = idx.stats.clone();
        assert_eq!(cold.nt_nnz, stored(&idx), "filled by the cold solve");
        assert_eq!(cold.sweep_nnz.len(), idx.iterations);
        assert_eq!(cold.sweep_nnz.last(), Some(&cold.nt_nnz.iter().sum()));
        assert_eq!(
            cold.products_computed + cold.products_skipped,
            2 * g.binary_rules.len() * idx.iterations
        );

        let repair = solver.resume(&mut idx, &g, &new_pairs).unwrap();
        assert!(repair.products_computed > 0);
        assert_eq!(repair.nt_nnz, stored(&idx), "and by the repair");
        assert!(repair.nt_nnz.iter().sum::<usize>() > cold.nt_nnz.iter().sum());
        let mut both = cold;
        both.absorb(&repair);
        assert_eq!(idx.stats, both, "cumulative = cold absorbed repair");
        assert_eq!(idx.iterations, idx.stats.sweep_nnz.len());

        // A repair that finds nothing new runs no sweep and leaves the
        // cumulative counters alone.
        let noop = solver.resume(&mut idx, &g, &new_pairs).unwrap();
        assert_eq!(noop, SolveStats::default());
        assert_eq!(idx.stats, both);
    }

    #[test]
    fn cold_solve_and_resume_are_traced_like_the_relational_solvers() {
        use crate::session::PreparedQuery;
        use cfpq_obs::{AttrValue, SpanCollector};
        let (g, _, partial, new_pairs) = chain_missing_its_last_edge();
        // The solver on its own, then a session's cell, whose reads open
        // `query.cold` and `query.repair` around the solves.
        for through_session in [false, true] {
            let collector = std::sync::Arc::new(SpanCollector::new());
            let guard = cfpq_obs::install(collector.clone());
            let (cold, repair) = if through_session {
                let mut session = CfpqSession::new(SparseEngine, &partial);
                let id = session.prepare_single_path_query(PreparedQuery::from_wcnf(g.clone()));
                let cold = session.evaluate_single_path(id).stats.clone();
                session.add_edges(&[(3, "b", 4)]);
                session.evaluate_single_path(id);
                let repair = session.last_single_path_run(id).unwrap();
                (cold, repair.stats.clone())
            } else {
                let solver = SinglePathSolver::new(&SparseEngine);
                let mut idx = solver.solve(&partial, &g);
                let cold = idx.stats.clone();
                (cold, solver.resume(&mut idx, &g, &new_pairs).unwrap())
            };
            drop(guard);

            let spans = collector.spans();
            let solves: Vec<_> = spans.iter().filter(|s| s.name == "solve").collect();
            let modes: Vec<_> = solves.iter().map(|s| s.attr("mode")).collect();
            assert_eq!(
                modes,
                [
                    Some(&AttrValue::Str("cold")),
                    Some(&AttrValue::Str("resume"))
                ]
            );
            for ((solve, run), read) in solves
                .iter()
                .zip([cold, repair])
                .zip(["query.cold", "query.repair"])
            {
                let (sweeps, products) = (run.sweep_nnz.len(), run.products_computed);
                assert_eq!(solve.attr("sweeps"), Some(&AttrValue::U64(sweeps as u64)));
                assert_eq!(
                    solve.attr("products"),
                    Some(&AttrValue::U64(products as u64))
                );
                if through_session {
                    let parent = spans.iter().find(|s| s.id == solve.parent).unwrap();
                    assert_eq!(parent.name, read);
                    assert_eq!(parent.attr("kind"), Some(&AttrValue::Str("single_path")));
                    assert_eq!(parent.attr("products"), solve.attr("products"));
                    assert_eq!(parent.attr("n_nodes"), Some(&AttrValue::U64(5)));
                }
                let children: Vec<_> = spans
                    .iter()
                    .filter(|s| s.name == "sweep" && s.parent == solve.id)
                    .collect();
                assert_eq!(children.len(), sweeps, "one sweep span per sweep");
                assert!(
                    children.iter().any(|s| matches!(
                        s.attr("delta_nnz"),
                        Some(AttrValue::Text(t)) if t.contains(':')
                    )),
                    "sweeps carry the per-nonterminal delta-nnz breakdown"
                );
                // Length products open the same `kernel` span the Boolean
                // ones do, one per product, under the solve that ran them.
                let kernels: Vec<_> = spans
                    .iter()
                    .filter(|s| s.name == "kernel")
                    .filter(|k| {
                        let mut cur = k.parent;
                        while cur != 0 && cur != solve.id {
                            cur = spans.iter().find(|s| s.id == cur).map_or(0, |s| s.parent);
                        }
                        cur == solve.id
                    })
                    .collect();
                assert_eq!(kernels.len(), products, "one kernel span per product");
                for kernel in kernels {
                    assert_eq!(kernel.attr("op"), Some(&AttrValue::Str("len")));
                    assert_eq!(kernel.attr("repr"), Some(&AttrValue::Str("csr")));
                    assert!(matches!(kernel.attr("nnz"), Some(AttrValue::U64(_))));
                }
            }
        }
    }

    #[test]
    fn extraction_on_chain_yields_the_chain() {
        let g = wcnf("S -> a S b | a b");
        let s = g.symbols.get_nt("S").unwrap();
        let graph = generators::word_chain(&["a", "a", "b", "b"]);
        let idx = SinglePathSolver::new(&DenseEngine).solve(&graph, &g);
        let path = extract_path(&idx, &graph, &g, s, 0, 4).unwrap();
        assert_eq!(path.len(), 4);
        assert!(validate_witness(&path, &graph, &g, s, 0, 4));
        let word = path_word(&path, &graph, &g).unwrap();
        let names: Vec<&str> = word.iter().map(|t| g.symbols.term_name(*t)).collect();
        assert_eq!(names, vec!["a", "a", "b", "b"]);
    }

    #[test]
    fn extraction_on_cyclic_graph_is_valid() {
        let g = wcnf("S -> a S b | a b");
        let s = g.symbols.get_nt("S").unwrap();
        let graph = generators::two_cycles(2, 3);
        let idx = SinglePathSolver::new(&DenseEngine).solve(&graph, &g);
        let pairs = idx.pairs_with_lengths(s);
        assert!(!pairs.is_empty());
        for (i, j, len) in pairs {
            let path = extract_path(&idx, &graph, &g, s, i, j)
                .unwrap_or_else(|e| panic!("extract ({i},{j}): {e}"));
            assert_eq!(path.len() as u32, len, "length matches ({i},{j})");
            assert!(
                validate_witness(&path, &graph, &g, s, i, j),
                "invalid witness for ({i},{j})"
            );
        }
    }

    #[test]
    fn witness_length_not_necessarily_minimal_but_valid() {
        // §5: the paper evaluates an arbitrary path, not a shortest one.
        // We only require validity; here the shortest S-witness from 0 to
        // 0 has length 2 (a b around the unit cycles), the index may
        // record any valid length ≥ 2 of matching parity.
        let g = wcnf("S -> a S b | a b");
        let s = g.symbols.get_nt("S").unwrap();
        let mut graph = cfpq_graph::Graph::new(1);
        graph.add_edge_named(0, "a", 0);
        graph.add_edge_named(0, "b", 0);
        let idx = SinglePathSolver::new(&DenseEngine).solve(&graph, &g);
        let len = idx.length(s, 0, 0).expect("S at (0,0)");
        assert!(len >= 2 && len.is_multiple_of(2));
        let path = extract_path(&idx, &graph, &g, s, 0, 0).unwrap();
        assert!(validate_witness(&path, &graph, &g, s, 0, 0));
    }

    #[test]
    fn extract_missing_pair_errors() {
        let g = wcnf("S -> a b");
        let s = g.symbols.get_nt("S").unwrap();
        let graph = generators::word_chain(&["a", "b"]);
        let idx = SinglePathSolver::new(&DenseEngine).solve(&graph, &g);
        assert_eq!(
            extract_path(&idx, &graph, &g, s, 1, 0),
            Err(ExtractError::NotInRelation)
        );
    }

    #[test]
    fn a_graph_smaller_than_the_index_is_an_error_not_a_panic() {
        // What a session hands out after `add_edges` named new nodes: an
        // index over six nodes, beside the caller's three-node graph.
        let g = wcnf("S -> a b");
        let s = g.symbols.get_nt("S").unwrap();
        let small = generators::word_chain(&["a", "b"]);
        let mut grown = small.clone();
        grown.add_edge_named(3, "a", 4);
        grown.add_edge_named(4, "b", 5);
        let idx = SinglePathSolver::new(&SparseEngine).solve(&grown, &g);
        assert_eq!(idx.length(s, 3, 5), Some(2));
        assert!(matches!(
            extract_path(&idx, &small, &g, s, 3, 5),
            Err(ExtractError::NoWitnessSplit { from: 3, to: 4, .. })
        ));
        assert_eq!(extract_path(&idx, &small, &g, s, 0, 2).unwrap().len(), 2);
    }

    #[test]
    fn validate_rejects_an_edge_from_a_node_outside_the_graph() {
        let g = wcnf("S -> a b");
        let s = g.symbols.get_nt("S").unwrap();
        let graph = generators::word_chain(&["a", "b"]);
        let outside = [Edge {
            from: 7,
            label: graph.get_label("a").unwrap(),
            to: 8,
        }];
        assert!(!validate_witness(&outside, &graph, &g, s, 7, 8));
    }

    #[test]
    fn validate_rejects_malformed_paths() {
        let g = wcnf("S -> a b");
        let s = g.symbols.get_nt("S").unwrap();
        let graph = generators::word_chain(&["a", "b"]);
        let a = graph.get_label("a").unwrap();
        let b = graph.get_label("b").unwrap();
        // Discontiguous.
        let bad = vec![
            Edge {
                from: 0,
                label: a,
                to: 1,
            },
            Edge {
                from: 0,
                label: b,
                to: 1,
            },
        ];
        assert!(!validate_witness(&bad, &graph, &g, s, 0, 1));
        // Nonexistent edge.
        let fake = vec![Edge {
            from: 1,
            label: a,
            to: 0,
        }];
        assert!(!validate_witness(&fake, &graph, &g, s, 1, 0));
        // Wrong endpoints.
        let good = vec![
            Edge {
                from: 0,
                label: a,
                to: 1,
            },
            Edge {
                from: 1,
                label: b,
                to: 2,
            },
        ];
        assert!(validate_witness(&good, &graph, &g, s, 0, 2));
        assert!(!validate_witness(&good, &graph, &g, s, 0, 1));
        // An empty path only validates for a nullable nonterminal on a
        // diagonal pair; S here is not nullable.
        assert!(!validate_witness(&[], &graph, &g, s, 0, 0));
        let nullable = wcnf("S -> a S | eps");
        let ns = nullable.symbols.get_nt("S").unwrap();
        assert!(validate_witness(&[], &graph, &nullable, ns, 0, 0));
        assert!(!validate_witness(&[], &graph, &nullable, ns, 0, 1));
    }
}

//! Fixed-seed property suite for the engine-generic single-path (§5)
//! pipeline: on random graphs × two structurally different grammars
//! (one with erasable nonterminals), every [`cfpq_matrix::LenEngine`]
//! must agree with
//!
//! 1. the naive `O(n³)` flat-table oracle
//!    ([`cfpq_core::single_path::solve_single_path_oracle`]) on the full
//!    per-nonterminal pair sets,
//! 2. the relational [`FixpointSolver`] solved under the same
//!    [`SolveOptions`] (the §5 index answers `contains` from the same
//!    cells the relational index exposes — the PR-4 bugfix), and
//! 3. Theorem 5: every recorded entry admits an extractable witness of
//!    exactly the recorded length, re-checked against the grammar by the
//!    CYK oracle (lengths are *valid*, not necessarily minimal — the
//!    paper evaluates an arbitrary path), and it is the witness §5's
//!    "simple search" finds when it tries every node as the pivot.
//!
//! 4. the [`Relation`] contract, read through `&dyn Relation` on both
//!    closures of the engine, the length closure and the relational
//!    one: rows of `row_cols` ascend and concatenate to `pairs`, `count`
//!    is the number of pairs, and `contains` is total.
//!
//! Two deterministic guards then hold the cost of turning a closure into
//! paths — [`extract_path`] and [`PathEnumerator::page`] — to the stored
//! row of a split's left operand: isolated nodes added to the graph add
//! no matrix read.

use cfpq_core::all_paths::{PageRequest, PathEnumerator, Relation};
use cfpq_core::relational::{FixpointSolver, RelationalIndex, SolveOptions};
use cfpq_core::session::GraphIndex;
use cfpq_core::single_path::{
    extract_path, solve_single_path_oracle, validate_witness, SinglePathIndex, SinglePathSolver,
};
use cfpq_grammar::cnf::CnfOptions;
use cfpq_grammar::{Cfg, Nt, Wcnf};
use cfpq_graph::{generators, Edge, Graph};
use cfpq_matrix::{
    BoolEngine, BoolMat, DenseEngine, Device, LenEngine, LenMat, ParDenseEngine, ParSparseEngine,
    SparseEngine, TiledEngine,
};
use proptest::prelude::*;
use std::cell::Cell;

/// Base RNG seed: CI must replay the exact same cases on every run (see
/// shims/README.md for the seeding scheme and `CFPQ_PROPTEST_SEED`).
const RNG_SEED: u64 = 0x51A6_1E0A;

const LABELS: [&str; 2] = ["a", "b"];

/// The two fixed query grammars of the suite: nested brackets with
/// concatenation (no ε), and a nullable Dyck-style shape whose diagonal
/// is pure ε-matches — the grammar class the seed-era solver got wrong.
fn grammars() -> Vec<Wcnf> {
    ["S -> a S b | a b | S S", "S -> a S b | S S | eps"]
        .iter()
        .map(|src| {
            Cfg::parse(src)
                .unwrap()
                .to_wcnf(CnfOptions::default())
                .unwrap()
        })
        .collect()
}

/// Checks one engine against the oracle, the relational index and the
/// CYK-validated extraction on one (graph, grammar, options) case, and
/// both of its closures against the [`Relation`] contract.
fn check_engine<E: BoolEngine + LenEngine>(
    name: &str,
    engine: &E,
    graph: &Graph,
    grammar: &Wcnf,
    options: SolveOptions,
) -> Result<(), TestCaseError> {
    let idx = SinglePathSolver::new(engine)
        .options(options)
        .solve(graph, grammar);
    let oracle = solve_single_path_oracle(graph, grammar, options);
    let relational = FixpointSolver::new(&SparseEngine)
        .options(options)
        .solve(graph, grammar);
    let own = FixpointSolver::new(engine)
        .options(options)
        .solve(graph, grammar);
    check_relation(name, &idx, graph, grammar)?;
    check_relation(name, &own, graph, grammar)?;
    for a in 0..grammar.n_nts() {
        let nt = Nt(a as u32);
        prop_assert_eq!(own.pairs(nt), relational.pairs(nt), "{}, nt {:?}", name, nt);
        prop_assert_eq!(
            idx.pairs(nt),
            oracle.pairs(nt),
            "{} vs oracle, nt {:?}",
            name,
            nt
        );
        prop_assert_eq!(
            idx.pairs(nt),
            relational.pairs(nt),
            "{} vs relational, nt {:?}",
            name,
            nt
        );
    }
    // Same closure, same loop: without the ε-diagonal (which the
    // relational solver seeds before its fixpoint and this one overlays
    // after) the two runs launch the same products over the same sweeps
    // and grow the same number of cells in each.
    if !options.nullable_diagonal {
        prop_assert_eq!(idx.iterations, relational.iterations, "{}", name);
        let (sp, rel) = (&idx.stats, &relational.stats);
        prop_assert_eq!(sp.products_computed, rel.products_computed, "{}", name);
        prop_assert_eq!(sp.products_skipped, rel.products_skipped, "{}", name);
        prop_assert_eq!(&sp.sweep_nnz, &rel.sweep_nnz, "{}", name);
        prop_assert_eq!(&sp.nt_nnz, &rel.nt_nnz, "{}", name);
    }
    // Theorem 5 on every recorded start-symbol entry (and the oracle's):
    // the witness extracts, has exactly the recorded length, and its
    // label word derives from the nonterminal (CYK re-check inside
    // validate_witness). The ε-witness is the empty path.
    check_extraction(name, &idx, graph, grammar)?;
    check_extraction("oracle", &oracle, graph, grammar)?;
    Ok(())
}

/// The [`Relation`] contract on a closure over `graph`, read through
/// `&dyn Relation` as answers and pages read it: each row of `row_cols`
/// ascends, the rows concatenate to `pairs`, `count` is the number of
/// pairs, the extent is the graph's nodes, and `contains` is total — it
/// agrees with `pairs` and relates ids at `n` and at `u32::MAX` to
/// nothing.
fn check_relation(
    name: &str,
    closure: &dyn Relation,
    graph: &Graph,
    grammar: &Wcnf,
) -> Result<(), TestCaseError> {
    let n = graph.n_nodes() as u32;
    prop_assert_eq!(closure.extent().0, graph.n_nodes(), "{}", name);
    let ids = || (0..n).chain([n, u32::MAX]);
    for a in 0..grammar.n_nts() {
        let nt = Nt(a as u32);
        let pairs = closure.pairs(nt);
        prop_assert_eq!(closure.count(nt), pairs.len(), "{}, nt {:?}", name, nt);
        let mut rows = Vec::new();
        for i in ids() {
            let row: Vec<u32> = closure.row_cols(nt, i).collect();
            prop_assert!(row.windows(2).all(|w| w[0] < w[1]), "{}: row {}", name, i);
            rows.extend(row.into_iter().map(|j| (i, j)));
            for j in ids() {
                let related = pairs.binary_search(&(i, j)).is_ok();
                prop_assert_eq!(
                    closure.contains(nt, i, j),
                    related,
                    "{}: {}, {}",
                    name,
                    i,
                    j
                );
            }
        }
        prop_assert_eq!(rows, pairs, "{}: rows are the pairs of {:?}", name, nt);
    }
    Ok(())
}

/// §5's "simple search" as the paper states it, over the public
/// [`SinglePathIndex::length`] alone: the first rule `A → BC`, and for it
/// the smallest of *all* nodes `k`, with `l_B(i, k) + l_C(k, j) = l_A(i, j)`
/// and both parts nonzero.
fn reference_witness<M: LenMat>(
    index: &SinglePathIndex<M>,
    graph: &Graph,
    grammar: &Wcnf,
    nt: Nt,
    from: u32,
    to: u32,
) -> Vec<Edge> {
    let length = index.length(nt, from, to).expect("a recorded pair");
    if length == 0 {
        return Vec::new();
    }
    if length == 1 {
        let derives = |label| {
            let term = grammar.symbols.get_term(graph.label_name(label));
            term.is_some_and(|t| {
                grammar
                    .term_rules
                    .iter()
                    .any(|r| r.lhs == nt && r.term == t)
            })
        };
        let &(label, _) = graph
            .out_edges(from)
            .iter()
            .find(|&&(label, v)| v == to && derives(label))
            .expect("a length-1 cell is an edge");
        return vec![Edge { from, label, to }];
    }
    for rule in grammar.binary_rules.iter().filter(|r| r.lhs == nt) {
        for k in 0..index.n_nodes as u32 {
            let Some(lb) = index.length(rule.left, from, k) else {
                continue;
            };
            if lb == 0 || lb >= length || index.length(rule.right, k, to) != Some(length - lb) {
                continue;
            }
            let mut path = reference_witness(index, graph, grammar, rule.left, from, k);
            path.extend(reference_witness(index, graph, grammar, rule.right, k, to));
            return path;
        }
    }
    panic!("no split for {nt:?} ({from} -> {to}, length {length})");
}

fn check_extraction<M: LenMat>(
    name: &str,
    index: &SinglePathIndex<M>,
    graph: &Graph,
    grammar: &Wcnf,
) -> Result<(), TestCaseError> {
    for (i, j, len) in index.pairs_with_lengths(grammar.start) {
        let path = extract_path(index, graph, grammar, grammar.start, i, j)
            .map_err(|e| TestCaseError::fail(format!("{name}: extract ({i},{j}): {e}")))?;
        prop_assert_eq!(
            &path,
            &reference_witness(index, graph, grammar, grammar.start, i, j),
            "{}: not the all-nodes search's witness at ({},{})",
            name,
            i,
            j
        );
        prop_assert_eq!(path.len() as u32, len, "{}: length at ({},{})", name, i, j);
        prop_assert!(
            validate_witness(&path, graph, grammar, grammar.start, i, j),
            "{}: invalid witness for ({},{})",
            name,
            i,
            j
        );
    }
    Ok(())
}

fn check_all(graph: &Graph, grammar: &Wcnf, diagonal: bool) -> Result<(), TestCaseError> {
    let options = SolveOptions {
        nullable_diagonal: diagonal,
    };
    check_engine("dense", &DenseEngine, graph, grammar, options)?;
    check_engine("sparse", &SparseEngine, graph, grammar, options)?;
    check_engine(
        "dense-par",
        &ParDenseEngine::new(Device::new(2)),
        graph,
        grammar,
        options,
    )?;
    check_engine(
        "sparse-par",
        &ParSparseEngine::new(Device::new(3)),
        graph,
        grammar,
        options,
    )?;
    check_engine(
        "tiled",
        &TiledEngine::new(Device::new(2)),
        graph,
        grammar,
        options,
    )?;
    Ok(())
}

thread_local! {
    /// `(get calls, row cells yielded)` made on this thread through a
    /// [`Counted`] matrix.
    static READS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

/// A matrix, or an engine making such matrices, whose reads are counted
/// in [`READS`]. Extraction and paging read on the calling thread.
#[derive(Clone, PartialEq)]
struct Counted<T>(T);

fn count_get() {
    READS.set((READS.get().0 + 1, READS.get().1));
}

fn count_cell() {
    READS.set((READS.get().0, READS.get().1 + 1));
}

impl<M: BoolMat> BoolMat for Counted<M> {
    fn n(&self) -> usize {
        self.0.n()
    }
    fn get(&self, i: u32, j: u32) -> bool {
        count_get();
        self.0.get(i, j)
    }
    fn nnz(&self) -> usize {
        self.0.nnz()
    }
    fn pairs(&self) -> Vec<(u32, u32)> {
        self.0.pairs()
    }
    fn row_cols(&self, i: u32) -> impl Iterator<Item = u32> + '_ {
        self.0.row_cols(i).inspect(|_| count_cell())
    }
    fn bytes(&self) -> usize {
        self.0.bytes()
    }
}

impl<M: LenMat> LenMat for Counted<M> {
    fn n(&self) -> usize {
        self.0.n()
    }
    fn get(&self, i: u32, j: u32) -> Option<u32> {
        count_get();
        self.0.get(i, j)
    }
    fn nnz(&self) -> usize {
        self.0.nnz()
    }
    fn pairs(&self) -> Vec<(u32, u32)> {
        self.0.pairs()
    }
    fn entries(&self) -> Vec<(u32, u32, u32)> {
        self.0.entries()
    }
    fn row_cells(&self, i: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.0.row_cells(i).inspect(|_| count_cell())
    }
    fn bytes(&self) -> usize {
        self.0.bytes()
    }
    fn shrink_to_fit(&mut self) {
        self.0.shrink_to_fit()
    }
}

/// [`SinglePathIndex`] is built by a solver only, so the counted length
/// matrices come from a counted engine.
impl<E: LenEngine> LenEngine for Counted<E> {
    type LenMatrix = Counted<E::LenMatrix>;

    fn len_empty(&self, n: usize) -> Self::LenMatrix {
        Counted(self.0.len_empty(n))
    }
    fn len_from_entries(&self, n: usize, entries: &[(u32, u32, u32)]) -> Self::LenMatrix {
        Counted(self.0.len_from_entries(n, entries))
    }
    fn len_set_absent(
        &self,
        a: &mut Self::LenMatrix,
        entries: &[(u32, u32, u32)],
    ) -> Vec<(u32, u32, u32)> {
        self.0.len_set_absent(&mut a.0, entries)
    }
    fn len_multiply_masked(
        &self,
        a: &Self::LenMatrix,
        b: &Self::LenMatrix,
        mask: Option<&Self::LenMatrix>,
    ) -> Self::LenMatrix {
        Counted(self.0.len_multiply_masked(&a.0, &b.0, mask.map(|m| &m.0)))
    }
    fn len_merge_absent(
        &self,
        acc: &mut Self::LenMatrix,
        add: &Self::LenMatrix,
    ) -> Self::LenMatrix {
        Counted(self.0.len_merge_absent(&mut acc.0, &add.0))
    }
    fn len_grow(&self, a: &mut Self::LenMatrix, n: usize) {
        self.0.len_grow(&mut a.0, n)
    }
}

/// The graph both guards read: dense enough in `R_S` that a split has
/// several candidate pivots, and its copy among 4× as many isolated nodes.
fn graph_and_padded() -> (Graph, Graph) {
    let graph = generators::random_graph(12, 30, &LABELS, 7);
    let mut padded = graph.clone();
    padded.ensure_node(5 * graph.n_nodes() as u32 - 1);
    (graph, padded)
}

/// The reads `work` makes through [`Counted`] matrices.
fn reads_of<T>(work: impl FnOnce() -> T) -> (T, (usize, usize)) {
    READS.set((0, 0));
    let out = work();
    (out, READS.get())
}

/// Every witness of `R_S` and the matrix reads extracting them took.
fn extraction_reads<E: LenEngine>(
    engine: E,
    graph: &Graph,
    grammar: &Wcnf,
) -> (Vec<Vec<Edge>>, (usize, usize)) {
    let idx = SinglePathSolver::new(&Counted(engine)).solve(graph, grammar);
    let start = grammar.start;
    reads_of(|| {
        idx.pairs(start)
            .into_iter()
            .map(|(i, j)| extract_path(&idx, graph, grammar, start, i, j).unwrap())
            .collect()
    })
}

#[test]
fn extraction_reads_the_left_row_not_every_node() {
    let (graph, padded) = graph_and_padded();
    let grammar = &grammars()[0];
    let (paths, reads) = extraction_reads(SparseEngine, &graph, grammar);
    assert!(paths.iter().any(|p| p.len() > 2), "some witness was split");
    assert!(reads.1 > 0, "and its pivots came from a row");
    assert_eq!(
        extraction_reads(SparseEngine, &padded, grammar),
        (paths.clone(), reads)
    );
    assert_eq!(
        extraction_reads(DenseEngine, &graph, grammar),
        (paths.clone(), reads)
    );
    assert_eq!(
        extraction_reads(DenseEngine, &padded, grammar),
        (paths, reads)
    );
}

/// The first page of every pair of `R_S` on a fresh enumerator, and the
/// matrix reads serving them took.
fn page_reads<E: BoolEngine>(
    engine: E,
    graph: &Graph,
    grammar: &Wcnf,
) -> (Vec<Vec<Vec<Edge>>>, (usize, usize)) {
    let solved = FixpointSolver::new(&engine).solve(graph, grammar);
    let labels = GraphIndex::build(engine, graph);
    let pairs = solved.pairs(grammar.start);
    let index = RelationalIndex {
        matrices: solved.matrices.into_iter().map(Counted).collect(),
        iterations: solved.iterations,
        n_nodes: solved.n_nodes,
        stats: solved.stats,
    };
    let req = PageRequest {
        offset: 0,
        limit: 8,
        max_len: 6,
    };
    reads_of(|| {
        let mut paths = PathEnumerator::new(grammar);
        pairs
            .into_iter()
            .map(|(i, j)| paths.page(&labels, &index, grammar.start, i, j, req).paths)
            .collect()
    })
}

#[test]
fn a_paths_page_reads_the_left_row_not_every_node() {
    let (graph, padded) = graph_and_padded();
    let grammar = &grammars()[0];
    let (pages, reads) = page_reads(SparseEngine, &graph, grammar);
    assert!(
        pages.iter().flatten().any(|p| p.len() > 2),
        "some path was split"
    );
    assert!(reads.1 > 0, "and its pivots came from a row");
    assert_eq!(
        page_reads(SparseEngine, &padded, grammar),
        (pages.clone(), reads)
    );
    for graph in [&graph, &padded] {
        assert_eq!(
            page_reads(DenseEngine, graph, grammar),
            (pages.clone(), reads)
        );
        assert_eq!(
            page_reads(TiledEngine::serial(), graph, grammar),
            (pages.clone(), reads)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(10, RNG_SEED))]

    #[test]
    fn engines_equal_oracle_and_relational_with_valid_witnesses(
        graph_seed in 0u64..1000,
        n_nodes in 2usize..8,
        edge_factor in 1usize..4,
        diagonal in 0u32..2,
    ) {
        let graph = generators::random_graph(
            n_nodes,
            edge_factor * n_nodes,
            &LABELS,
            graph_seed,
        );
        for grammar in grammars() {
            check_all(&graph, &grammar, diagonal == 1)?;
        }
    }

    #[test]
    fn session_single_path_repair_matches_cold_solve(
        graph_seed in 0u64..1000,
        n_nodes in 3usize..8,
        split in 1usize..6,
    ) {
        // Feed a random suffix of the edges through `add_edges` and
        // re-evaluate: the repaired length closure must reach exactly
        // the from-scratch pair sets, with every witness still valid.
        use cfpq_core::session::CfpqSession;
        let graph = generators::random_graph(n_nodes, 3 * n_nodes, &LABELS, graph_seed);
        for grammar in grammars() {
            let cold = SinglePathSolver::new(&SparseEngine).solve(&graph, &grammar);
            let edges = graph.edges();
            let split = split.min(edges.len());
            let mut base = Graph::new(graph.n_nodes());
            for e in &edges[..edges.len() - split] {
                base.add_edge_named(e.from, graph.label_name(e.label), e.to);
            }
            let mut session = CfpqSession::new(SparseEngine, &base);
            let id = session.prepare_single_path_query(
                cfpq_core::session::PreparedQuery::from_wcnf(grammar.clone()),
            );
            session.evaluate_single_path(id);
            let held: Vec<(u32, &str, u32)> = edges[edges.len() - split..]
                .iter()
                .map(|e| (e.from, graph.label_name(e.label), e.to))
                .collect();
            session.add_edges(&held);
            let idx = session.evaluate_single_path(id);
            for a in 0..grammar.n_nts() {
                let nt = Nt(a as u32);
                prop_assert_eq!(idx.pairs(nt), cold.pairs(nt), "nt {:?}", nt);
            }
            // However the closure was reached, its counters describe it.
            prop_assert_eq!(&idx.stats.nt_nnz, &cold.stats.nt_nnz);
            prop_assert_eq!(idx.stats.sweep_nnz.len(), idx.iterations);
            for (i, j, len) in idx.pairs_with_lengths(grammar.start) {
                let path = extract_path(idx, &graph, &grammar, grammar.start, i, j)
                    .map_err(|e| TestCaseError::fail(format!("extract ({i},{j}): {e}")))?;
                prop_assert_eq!(path.len() as u32, len);
                prop_assert!(validate_witness(&path, &graph, &grammar, grammar.start, i, j));
            }
        }
    }
}

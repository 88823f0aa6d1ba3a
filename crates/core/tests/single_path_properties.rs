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
//!    paper evaluates an arbitrary path).

use cfpq_core::relational::{FixpointSolver, SolveOptions};
use cfpq_core::single_path::{
    extract_path, solve_single_path_oracle, validate_witness, SinglePathSolver,
};
use cfpq_grammar::cnf::CnfOptions;
use cfpq_grammar::{Cfg, Nt, Wcnf};
use cfpq_graph::{generators, Graph};
use cfpq_matrix::{
    DenseEngine, Device, LenEngine, ParDenseEngine, ParSparseEngine, SparseEngine, TiledEngine,
};
use proptest::prelude::*;

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
/// CYK-validated extraction on one (graph, grammar, options) case.
fn check_engine<E: LenEngine>(
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
    for a in 0..grammar.n_nts() {
        let nt = Nt(a as u32);
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

fn check_extraction<M: cfpq_matrix::LenMat>(
    name: &str,
    index: &cfpq_core::single_path::SinglePathIndex<M>,
    graph: &Graph,
    grammar: &Wcnf,
) -> Result<(), TestCaseError> {
    for (i, j, len) in index.pairs_with_lengths(grammar.start) {
        let path = extract_path(index, graph, grammar, grammar.start, i, j)
            .map_err(|e| TestCaseError::fail(format!("{name}: extract ({i},{j}): {e}")))?;
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

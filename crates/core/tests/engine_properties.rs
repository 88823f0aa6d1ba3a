//! Fixed-seed property suite for the fixpoint pipeline: the masked
//! semi-naive loop on every [`BoolEngine`] must compute exactly the
//! closure that the paper-literal squaring loop over the set-valued
//! matrix computes (directly, and as `Backend::SetMatrix`), on random
//! graphs × random weak-CNF grammars, with and without the ε-diagonal
//! option. This is the contract that lets everything run the one fast
//! loop: it is observationally identical to Algorithm 1 as printed.
//!
//! The loop has one branch the masked kernels do not cover: a `(B, C)`
//! right-hand side feeding several left-hand sides runs unmasked and
//! derives its Δ by `difference`. [`shared_rhs_takes_the_unmasked_branch`]
//! pins that branch on a hand-built grammar, cold and through `resume`.
//!
//! The random graphs above fit in one 64 × 64 tile.
//! [`saturating_multi_tile_blocks_agree_on_every_engine`] is the tiled
//! backend's regime: clusters several tiles wide whose closure fills up.

use cfpq_baselines::hellings::solve_hellings;
use cfpq_core::query::{solve_wcnf, Backend};
use cfpq_core::relational::{init_pairs, FixpointSolver, RelationalIndex, SolveOptions};
use cfpq_grammar::cnf::CnfOptions;
use cfpq_grammar::random::{random_wcnf, RandomGrammarConfig};
use cfpq_grammar::{Cfg, Nt, Wcnf};
use cfpq_graph::{generators, Graph};
use cfpq_matrix::closure::squaring_closure;
use cfpq_matrix::{
    BoolEngine, BoolMat, DenseEngine, Device, ParDenseEngine, ParSparseEngine, SetMatrix,
    SparseEngine, TiledEngine,
};
use proptest::prelude::*;

/// Base RNG seed: CI must replay the exact same cases on every run (see
/// shims/README.md for the seeding scheme and `CFPQ_PROPTEST_SEED`).
const RNG_SEED: u64 = 0x5EED_F1ED;

/// Terminal names matching [`RandomGrammarConfig::default`]'s alphabet.
const LABELS: [&str; 3] = ["t0", "t1", "t2"];

/// The reference closure: Algorithm 1 as printed, `T ← T ∪ (T × T)`
/// over the set-valued matrix, seeded exactly like the Boolean solvers.
fn reference_pairs(graph: &Graph, grammar: &Wcnf, diagonal: bool) -> Vec<Vec<(u32, u32)>> {
    let n = graph.n_nodes();
    let mut t = SetMatrix::empty(n, grammar.n_nts());
    for (nt_index, pairs) in init_pairs(graph, grammar).into_iter().enumerate() {
        for (i, j) in pairs {
            t.insert(i, j, Nt(nt_index as u32));
        }
    }
    if diagonal {
        for &nt in &grammar.nullable {
            for m in 0..n as u32 {
                t.insert(m, m, nt);
            }
        }
    }
    let closed = squaring_closure(&t, &grammar.binary_rules, false).matrix;
    (0..grammar.n_nts())
        .map(|a| {
            let nt = Nt(a as u32);
            let mut out = Vec::new();
            for i in 0..n as u32 {
                for j in 0..n as u32 {
                    if closed.contains(i, j, nt) {
                        out.push((i, j));
                    }
                }
            }
            out
        })
        .collect()
}

fn all_pairs<M: BoolMat>(index: &RelationalIndex<M>) -> Vec<Vec<(u32, u32)>> {
    index.matrices.iter().map(BoolMat::pairs).collect()
}

/// A sweep that adds nothing ends the loop, so after the first every
/// sweep but the last grows the closure and the last one does not.
fn only_the_last_sweep_is_idle(sweep_nnz: &[usize]) -> bool {
    let last = sweep_nnz.len().saturating_sub(2);
    sweep_nnz
        .windows(2)
        .enumerate()
        .all(|(k, w)| (w[1] > w[0]) == (k < last))
}

/// Runs the solver on one engine; per-nonterminal pairs and the
/// per-sweep nnz trajectory.
fn solver_run<E: BoolEngine>(
    engine: &E,
    graph: &Graph,
    grammar: &Wcnf,
    diagonal: bool,
) -> (Vec<Vec<(u32, u32)>>, Vec<usize>) {
    let index = FixpointSolver::new(engine)
        .options(SolveOptions {
            nullable_diagonal: diagonal,
        })
        .solve(graph, grammar);
    (all_pairs(&index), index.stats.sweep_nnz)
}

/// Asserts all five engines match the reference (and, without the
/// diagonal it has no option for, `Backend::SetMatrix`).
fn check_all(graph: &Graph, grammar: &Wcnf, diagonal: bool) -> Result<(), TestCaseError> {
    let expect = reference_pairs(graph, grammar, diagonal);
    if !diagonal {
        let oracle = solve_wcnf(graph, grammar, Backend::SetMatrix);
        for (a, pairs) in expect.iter().enumerate() {
            let name = grammar.symbols.nt_name(Nt(a as u32));
            prop_assert_eq!(oracle.pairs(name), Some(&pairs[..]), "set-matrix {}", name);
        }
    }
    let runs = [
        ("dense", solver_run(&DenseEngine, graph, grammar, diagonal)),
        (
            "sparse",
            solver_run(&SparseEngine, graph, grammar, diagonal),
        ),
        (
            "dense-par",
            solver_run(
                &ParDenseEngine::new(Device::new(2)),
                graph,
                grammar,
                diagonal,
            ),
        ),
        (
            "sparse-par",
            solver_run(
                &ParSparseEngine::new(Device::new(3)),
                graph,
                grammar,
                diagonal,
            ),
        ),
        (
            "tiled",
            solver_run(&TiledEngine::new(Device::new(2)), graph, grammar, diagonal),
        ),
    ];
    for (engine_name, (got, sweep_nnz)) in runs {
        prop_assert_eq!(
            &got,
            &expect,
            "engine {} diverges from squaring closure (diagonal={})",
            engine_name,
            diagonal
        );
        prop_assert!(
            only_the_last_sweep_is_idle(&sweep_nnz),
            "engine {}: sweeps {:?}",
            engine_name,
            sweep_nnz
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(12, RNG_SEED))]

    #[test]
    fn engines_equal_squaring_closure(
        grammar_seed in 0u64..1000,
        graph_seed in 0u64..1000,
        n_nodes in 2usize..9,
        edge_factor in 1usize..5,
        diagonal in 0u32..2,
    ) {
        let grammar = random_wcnf(grammar_seed, RandomGrammarConfig::default());
        let graph = generators::random_graph(
            n_nodes,
            edge_factor * n_nodes,
            &LABELS,
            graph_seed,
        );
        check_all(&graph, &grammar, diagonal == 1)?;
    }

    #[test]
    fn engines_agree_on_denser_grammars(
        grammar_seed in 0u64..1000,
        graph_seed in 0u64..1000,
    ) {
        // More rules → more shared (B, C) pairs → the dedup and the
        // unmasked difference branch actually fire.
        let config = RandomGrammarConfig {
            n_nts: 5,
            n_terms: 3,
            n_binary: 14,
            n_term_rules: 6,
        };
        let grammar = random_wcnf(grammar_seed, config);
        let graph = generators::random_graph(7, 21, &LABELS, graph_seed);
        check_all(&graph, &grammar, false)?;
    }
}

/// `A → B C` and `D → B C` share their right-hand side, so the `(B, C)`
/// product runs unmasked and feeds both. The graph derives `(0, 2) ∈ A`
/// twice — in the first sweep through `B ∋ (0, 1)`, and again in the
/// second through `B ∋ (0, 3)`, which `B → X Y` yields only during the
/// first — so the second sweep's product is non-empty and entirely
/// known: only the `difference` tells the loop it is done. The edges
/// added through `resume` replay the same shape onto `(0, 5)`.
#[test]
fn shared_rhs_takes_the_unmasked_branch() {
    let grammar = Cfg::parse("A -> B C\nD -> B C\nB -> b | X Y\nC -> c\nX -> x\nY -> y")
        .unwrap()
        .to_wcnf(CnfOptions::default())
        .unwrap();
    let nt = |name: &str| grammar.symbols.get_nt(name).unwrap();
    let shared: Vec<Nt> = grammar
        .binary_rules
        .iter()
        .filter(|r| r.left == nt("B") && r.right == nt("C"))
        .map(|r| r.lhs)
        .collect();
    assert_eq!(shared, vec![nt("A"), nt("D")], "one RHS, two LHS");

    let mut base = Graph::new(7);
    for (u, label, v) in [
        (0, "b", 1),
        (1, "c", 2),
        (0, "x", 4),
        (4, "y", 3),
        (3, "c", 2),
    ] {
        base.add_edge_named(u, label, v);
    }
    let mut added = Graph::new(7);
    let mut full = base.clone();
    for (u, label, v) in [(1, "c", 5), (4, "y", 6), (6, "c", 5)] {
        added.add_edge_named(u, label, v);
        full.add_edge_named(u, label, v);
    }
    let expect_base = reference_pairs(&base, &grammar, false);
    let expect_full = reference_pairs(&full, &grammar, false);
    assert_eq!(expect_base[nt("A").index()], vec![(0, 2)]);
    assert_eq!(expect_full[nt("A").index()], vec![(0, 2), (0, 5)]);
    assert_eq!(expect_full[nt("D").index()], vec![(0, 2), (0, 5)]);
    assert_eq!(expect_full[nt("B").index()], vec![(0, 1), (0, 3), (0, 6)]);

    fn check<E: BoolEngine>(
        engine: E,
        grammar: &Wcnf,
        graphs: [&Graph; 3],
        expect: [&Vec<Vec<(u32, u32)>>; 2],
    ) {
        let [base, added, full] = graphs;
        let name = engine.name();
        let solver = FixpointSolver::new(&engine);
        let mut index = solver.solve(base, grammar);
        assert_eq!(&all_pairs(&index), expect[0], "{name}: cold");
        assert_eq!(index.iterations, 2, "{name}: the known product ends it");

        let repair = solver
            .resume(&mut index, grammar, &init_pairs(added, grammar))
            .unwrap();
        assert_eq!(&all_pairs(&index), expect[1], "{name}: resumed");
        assert_eq!(index.iterations, 4, "{name}: two more sweeps");
        assert_eq!(repair.sweep_nnz.len(), 2);
        assert_eq!(
            all_pairs(&index),
            all_pairs(&solver.solve(full, grammar)),
            "{name}: resumed vs cold on the full graph"
        );
    }
    let graphs = [&base, &added, &full];
    let expect = [&expect_base, &expect_full];
    check(DenseEngine, &grammar, graphs, expect);
    check(SparseEngine, &grammar, graphs, expect);
    check(
        ParDenseEngine::new(Device::new(2)),
        &grammar,
        graphs,
        expect,
    );
    check(
        ParSparseEngine::new(Device::new(3)),
        &grammar,
        graphs,
        expect,
    );
    check(TiledEngine::new(Device::new(2)), &grammar, graphs, expect);
}

/// Three 192-node clusters under `S → a S b | a b`: every cluster is
/// three tiles wide, so a left tile meets a panel of three right tiles,
/// and the closure saturates its blocks — `ΔS` tiles go from a few cells
/// to nearly full and back to nothing while the label matrices keep four
/// cells per row. Those are the products (`ΔS × T_b` against
/// `T_a × ΔS1`) on which the tiled kernel walks one operand or the
/// other, so the tiled engine, alone and split over two workers, must
/// match dense, CSR and the Hellings worklist cell for cell and run the
/// same sweeps, products and per-sweep totals as the flat engines.
#[test]
fn saturating_multi_tile_blocks_agree_on_every_engine() {
    let graph = generators::clustered_blocks(3, 192, 4, &["a", "b"], 0xB10C);
    let grammar = Cfg::parse("S -> a S b | a b")
        .unwrap()
        .to_wcnf(CnfOptions::default())
        .unwrap();
    let hellings = solve_hellings(&graph, &grammar);
    let expect: Vec<Vec<(u32, u32)>> = (0..grammar.n_nts())
        .map(|a| hellings.pairs(Nt(a as u32)))
        .collect();
    let start = &expect[grammar.start.index()];
    assert!(
        start.len() > 3 * 192 * 192 / 2,
        "the blocks saturate: {} of {} cells",
        start.len(),
        3 * 192 * 192
    );

    type Run = (Vec<Vec<(u32, u32)>>, usize, usize, Vec<usize>);
    fn run<E: BoolEngine>(engine: E, graph: &Graph, grammar: &Wcnf) -> Run {
        let index = FixpointSolver::new(&engine).solve(graph, grammar);
        assert_eq!(
            index.stats.nt_nnz.iter().sum::<usize>(),
            *index.stats.sweep_nnz.last().unwrap(),
            "{}: the running total is the closure's",
            engine.name()
        );
        (
            all_pairs(&index),
            index.iterations,
            index.stats.products_computed,
            index.stats.sweep_nnz,
        )
    }
    // Boolean asserts: a failure names the engine instead of printing
    // a hundred thousand pairs.
    let dense = run(DenseEngine, &graph, &grammar);
    assert!(dense.0 == expect, "dense vs Hellings");
    assert!(dense.1 > 4, "several sweeps of growth: {:?}", dense.3);
    assert!(run(SparseEngine, &graph, &grammar) == dense, "CSR");
    assert!(
        run(TiledEngine::serial(), &graph, &grammar) == dense,
        "tiled"
    );
    assert!(
        run(TiledEngine::new(Device::new(2)), &graph, &grammar) == dense,
        "tiled, two workers"
    );
}

//! Differential suite for source-restricted evaluation: on every engine,
//! a [`SourceClosure`] grown from a set of source nodes must hold, for
//! the start nonterminal, exactly the rows of the all-pairs closure that
//! those sources name — and exactly what the GLL baseline, a top-down
//! algorithm that shares no code with the matrix solvers, derives for
//! them. Helper nonterminals are held to the same standard on the rows
//! the demand propagation drew in, and extending a closure step by step
//! must land where a cold solve of the same sources lands.

use cfpq_baselines::gll::solve_gll;
use cfpq_core::compile::CompiledQuery;
use cfpq_core::regular::Nfa;
use cfpq_core::relational::{RelationalIndex, SolveOptions, SourceClosure};
use cfpq_core::session::{
    extend_prepared_from, solve_prepared, solve_prepared_from, GraphIndex, PreparedQuery,
};
use cfpq_grammar::{queries, Cfg, Nt};
use cfpq_graph::{generators, ontology, Graph};
use cfpq_matrix::{
    BoolEngine, BoolMat, DenseEngine, Device, ParDenseEngine, ParSparseEngine, SparseEngine,
    TiledEngine,
};
use std::collections::HashSet;

const ONTOLOGY_LABELS: [&str; 4] = ["subClassOf_r", "subClassOf", "type_r", "type"];

/// One query of the suite: how the matrix solvers see it, how GLL sees
/// it, and which two labels stand for `a`/`b` on the generator graphs.
struct Case {
    name: &'static str,
    query: PreparedQuery,
    /// The same language as a plain CFG (GLL keeps ε-rules natively).
    oracle: Cfg,
    ontology_labels: bool,
}

fn cases() -> Vec<Case> {
    let nullable = Cfg::parse("S -> a S b | eps").unwrap();
    vec![
        Case {
            name: "dyck1",
            query: PreparedQuery::new(&Cfg::parse("S -> S S | a S b | a b").unwrap()).unwrap(),
            oracle: Cfg::parse("S -> S S | a S b | a b").unwrap(),
            ontology_labels: false,
        },
        Case {
            name: "q1",
            query: PreparedQuery::new(&queries::query1()).unwrap(),
            oracle: queries::query1(),
            ontology_labels: true,
        },
        Case {
            name: "q2",
            query: PreparedQuery::new(&queries::query2()).unwrap(),
            oracle: queries::query2(),
            ontology_labels: true,
        },
        Case {
            name: "nullable",
            query: PreparedQuery::new(&nullable)
                .unwrap()
                .options(SolveOptions {
                    nullable_diagonal: true,
                }),
            oracle: nullable,
            ontology_labels: false,
        },
        // `S` is seeded from the label matrix its left child stands for:
        // `T_S` and the selection of that child share the products
        // `D_S × L_a`.
        Case {
            name: "right-linear",
            query: PreparedQuery::new(&Cfg::parse("S -> a S | a").unwrap()).unwrap(),
            oracle: Cfg::parse("S -> a S | a").unwrap(),
            ontology_labels: false,
        },
        Case {
            name: "rpq subClassOf+",
            query: CompiledQuery::from_nfa(&Nfa::plus("subClassOf")).into_prepared(),
            oracle: Cfg::parse("S -> subClassOf S | subClassOf").unwrap(),
            ontology_labels: true,
        },
    ]
}

/// `two_cycles` speaks `a`/`b`; the ontology queries nest
/// `subClassOf_r … subClassOf` the same way.
fn relabelled(graph: &Graph, from_to: &[(&str, &str)]) -> Graph {
    let mut out = Graph::new(graph.n_nodes());
    for e in graph.edges() {
        let name = graph.label_name(e.label);
        let name = from_to
            .iter()
            .find(|(from, _)| *from == name)
            .map_or(name, |(_, to)| to);
        out.add_edge_named(e.from, name, e.to);
    }
    out
}

fn graphs(ontology_labels: bool) -> Vec<(&'static str, Graph)> {
    let labels: &[&str] = if ontology_labels {
        &ONTOLOGY_LABELS
    } else {
        &["a", "b"]
    };
    let mut two_cycles = generators::two_cycles(3, 4);
    if ontology_labels {
        two_cycles = relabelled(&two_cycles, &[("a", "subClassOf_r"), ("b", "subClassOf")]);
    }
    vec![
        (
            "random",
            generators::random_graph(24, 60, labels, 0x50_0C35),
        ),
        (
            "clustered",
            generators::clustered_blocks(3, 8, 2, labels, 0x50_0C36),
        ),
        ("two_cycles", two_cycles),
        (
            "pizza",
            ontology::dataset("pizza")
                .expect("bundled dataset")
                .to_graph(),
        ),
    ]
}

/// Source sets of size 0, 1, 10 and n, plus one mixing real nodes with
/// ids the graph does not have.
fn source_sets(n: u32, seed: u64) -> Vec<Vec<u32>> {
    let mut state = seed | 1;
    let mut draw = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % u64::from(n)) as u32
    };
    let one = vec![draw()];
    let ten: Vec<u32> = (0..10).map(|_| draw()).collect();
    let beyond = vec![draw(), n, n + 7, u32::MAX, draw()];
    vec![Vec::new(), one, ten, (0..n).collect(), beyond]
}

fn rows_of(pairs: &[(u32, u32)], rows: &[u32]) -> Vec<(u32, u32)> {
    let rows: HashSet<u32> = rows.iter().copied().collect();
    pairs
        .iter()
        .copied()
        .filter(|(i, _)| rows.contains(i))
        .collect()
}

/// The closure against the all-pairs index: `R_S` on the requested rows,
/// every nonterminal on the rows demand drew in, nothing anywhere else.
fn check_against_all_pairs<M: BoolMat>(
    closure: &SourceClosure<M>,
    full: &RelationalIndex<M>,
    query: &PreparedQuery,
    sources: &[u32],
    what: &str,
) {
    let wcnf = query.wcnf();
    assert_eq!(
        rows_of(&closure.pairs(wcnf.start), sources),
        rows_of(&full.pairs(wcnf.start), sources),
        "{what}: R_S on the requested rows"
    );
    let start_rows = closure.demanded(wcnf.start);
    for &s in sources {
        assert_eq!(
            start_rows.binary_search(&s).is_ok(),
            (s as usize) < closure.n_nodes(),
            "{what}: source {s} demanded iff it is a node"
        );
    }
    let mut demanded_total = 0;
    for a in 0..wcnf.n_nts() {
        let nt = Nt(a as u32);
        let demanded = closure.demanded(nt);
        demanded_total += demanded.len();
        assert_eq!(
            closure.pairs(nt),
            rows_of(&full.pairs(nt), &demanded),
            "{what}: {} on its demanded rows",
            wcnf.symbols.nt_name(nt)
        );
    }
    assert_eq!(closure.rows_demanded(), demanded_total, "{what}");
    assert!(!closure.contains(wcnf.start, u32::MAX, 0), "{what}");
    assert!(!closure.contains(wcnf.start, 0, u32::MAX), "{what}");
}

fn check_engine<E: BoolEngine + Clone>(engine: E) {
    for case in cases() {
        let start = case.query.wcnf().start;
        for (graph_name, graph) in graphs(case.ontology_labels) {
            let what = format!("{} / {} / {}", engine.name(), case.name, graph_name);
            let n = graph.n_nodes() as u32;
            let index = GraphIndex::build(engine.clone(), &graph);
            let full = solve_prepared(&index, &case.query);
            let gll = solve_gll(&graph, &case.oracle);
            let gll_pairs = gll.pairs(case.oracle.start.expect("oracle grammar has a start"));
            assert_eq!(full.pairs(start), gll_pairs, "{what}: all-pairs vs GLL");

            let sets = source_sets(n, 0x5EED ^ u64::from(n));
            for sources in &sets {
                let what = format!("{what} / {} sources", sources.len());
                let closure = solve_prepared_from(&index, &case.query, sources);
                check_against_all_pairs(&closure, &full, &case.query, sources, &what);
                assert_eq!(
                    rows_of(&closure.pairs(start), sources),
                    rows_of(&gll_pairs, sources),
                    "{what}: vs GLL"
                );
                assert_eq!(
                    closure.stats().sweep_nnz.len(),
                    closure.sweeps(),
                    "{what}: one nnz sample per sweep"
                );
            }

            // Extend ≡ restart: {s1} → {s1, s2} → all, against cold
            // solves of the same sets; a covered request costs nothing.
            let (s1, s2) = (sets[2][0], sets[2][1]);
            let mut grown = solve_prepared_from(&index, &case.query, &[s1]);
            for sources in [vec![s1, s2], (0..n).collect::<Vec<u32>>()] {
                let what = format!("{what} / extended to {}", sources.len());
                let before = grown.stats().products_computed;
                let step = extend_prepared_from(&index, &case.query, &mut grown, &sources);
                assert_eq!(
                    grown.stats().products_computed,
                    before + step.products_computed,
                    "{what}: cumulative stats advance by the step"
                );
                let cold = solve_prepared_from(&index, &case.query, &sources);
                for a in 0..case.query.wcnf().n_nts() {
                    let nt = Nt(a as u32);
                    assert_eq!(grown.demanded(nt), cold.demanded(nt), "{what}: D_{a}");
                    assert_eq!(grown.pairs(nt), cold.pairs(nt), "{what}: T_{a}");
                }
                check_against_all_pairs(&grown, &full, &case.query, &sources, &what);
                let again = extend_prepared_from(&index, &case.query, &mut grown, &sources);
                assert_eq!(again.products_computed, 0, "{what}: covered");
                assert!(again.sweep_nnz.is_empty(), "{what}: covered");
            }
        }
    }
}

#[test]
fn restricted_equals_all_pairs_filtered_dense() {
    check_engine(DenseEngine);
}

#[test]
fn restricted_equals_all_pairs_filtered_sparse() {
    check_engine(SparseEngine);
}

#[test]
fn restricted_equals_all_pairs_filtered_dense_par() {
    check_engine(ParDenseEngine::new(Device::new(2)));
}

#[test]
fn restricted_equals_all_pairs_filtered_sparse_par() {
    check_engine(ParSparseEngine::new(Device::new(3)));
}

#[test]
fn restricted_equals_all_pairs_filtered_tiled() {
    check_engine(TiledEngine::new(Device::new(2)));
}

/// The point of the exercise: on a graph of disjoint blocks a lookup
/// never leaves its block, so it launches products over a handful of
/// rows where the all-pairs solve fills in every one.
#[test]
fn a_lookup_stays_inside_its_block() {
    let graph = generators::clustered_blocks(40, 64, 4, &["a", "b"], 11);
    let index = GraphIndex::build(TiledEngine::serial(), &graph);
    let query = PreparedQuery::new(&queries::an_bn()).unwrap();
    let full = solve_prepared(&index, &query);
    let sources = [64 * 17 + 3, 64 * 17 + 40];
    let closure = solve_prepared_from(&index, &query, &sources);
    check_against_all_pairs(&closure, &full, &query, &sources, "block 17");
    for a in 0..query.wcnf().n_nts() {
        for row in closure.demanded(Nt(a as u32)) {
            assert_eq!(row / 64, 17, "demand left the block");
        }
    }
    let all_rows = graph.n_nodes() * query.wcnf().n_nts();
    assert!(
        closure.rows_demanded() * 10 < all_rows,
        "{} of {all_rows} rows demanded",
        closure.rows_demanded()
    );
}

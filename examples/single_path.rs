//! Single-path queries (§5) on the engine pipeline: the length-annotated
//! closure answers *which* pairs are related **and** hands back a
//! witness path per pair, on any of the four matrix engines — including
//! ε-witnesses on nullable grammars (the relational `nullable_diagonal`
//! semantics), and incremental repair of the length closure inside a
//! `CfpqSession`.
//!
//! Run with: `cargo run --release --example single_path`

use cfpq::core::relational::SolveOptions;
use cfpq::core::single_path::{extract_path, solve_single_path_oracle};
use cfpq::grammar::cnf::CnfOptions;
use cfpq::prelude::*;

fn main() {
    // A nullable grammar: S matches balanced a…b nests, *including the
    // empty one* — exactly the grammar class the seed-era solver
    // answered differently from the relational index.
    let grammar = Cfg::parse("S -> a S b | eps").expect("grammar parses");
    let wcnf = grammar.to_wcnf(CnfOptions::default()).expect("normalizes");
    let s = wcnf.symbols.get_nt("S").expect("S exists");
    let options = SolveOptions {
        nullable_diagonal: true,
    };

    let mut graph = Graph::new(5);
    graph.add_edge_named(0, "a", 1);
    graph.add_edge_named(1, "a", 2);
    graph.add_edge_named(2, "b", 3);

    // Engine-backed masked semi-naive length closure (pick any engine).
    let index = SinglePathSolver::new(&SparseEngine)
        .options(options)
        .solve(&graph, &wcnf);
    println!("Single-path answers over the truncated chain:");
    for (i, j, len) in index.pairs_with_lengths(s) {
        let path = extract_path(&index, &graph, &wcnf, s, i, j).expect("witness extracts");
        assert_eq!(path.len() as u32, len);
        assert!(validate_witness(&path, &graph, &wcnf, s, i, j));
        let labels: Vec<&str> = path.iter().map(|e| graph.label_name(e.label)).collect();
        println!(
            "  ({i}, {j}) len {len}: {}",
            if labels.is_empty() {
                "ε (the empty path)".to_owned()
            } else {
                labels.join(" ")
            }
        );
    }

    // The same pairs the relational index reports — §5 rides on the same
    // kernels, so the two semantics can never disagree.
    let relational = FixpointSolver::new(&SparseEngine)
        .options(options)
        .solve(&graph, &wcnf);
    assert_eq!(index.pairs(s), relational.pairs(s));

    // The naive O(n³) oracle agrees too (it is the test reference; the
    // engine pipeline exists because it is dramatically faster at scale
    // — the `benchmark/` workload `single-path` measures it on g3).
    let oracle = solve_single_path_oracle(&graph, &wcnf, options);
    assert_eq!(index.pairs(s), oracle.pairs(s));

    // Sessions serve single-path queries incrementally: complete the
    // chain and the cached length closure repairs itself from the one
    // new edge instead of re-solving.
    let mut session = CfpqSession::new(SparseEngine, &graph);
    let q = session.prepare_single_path_query(
        cfpq::core::session::PreparedQuery::new(&grammar)
            .expect("prepares")
            .options(options),
    );
    let before = session.evaluate_single_path(q).count(s);
    session.add_edges(&[(3, "b", 4)]);
    graph.add_edge_named(3, "b", 4);
    let idx = session.evaluate_single_path(q);
    println!(
        "\nAfter add_edges: {} -> {} pairs (repair: {:?} products)",
        before,
        idx.count(s),
        session
            .last_single_path_run(q)
            .unwrap()
            .stats
            .products_computed
    );
    assert!(session.last_single_path_run(q).unwrap().incremental);
    // a a b b now spans (0, 4); its witness extracts from the repaired
    // closure.
    let idx = session.single_path_index(q).unwrap();
    let path = extract_path(idx, &graph, &wcnf, s, 0, 4).expect("witness extracts");
    assert!(validate_witness(&path, &graph, &wcnf, s, 0, 4));
    let labels: Vec<&str> = path.iter().map(|e| graph.label_name(e.label)).collect();
    println!("witness for (0, 4): {}", labels.join(" "));
}

//! Quickstart: the paper's worked example (§4.3), end to end.
//!
//! Builds the 3-node graph of Fig. 5, runs the same-generation query
//! (Fig. 3 / Fig. 10) with the paper-literal set-matrix backend, and
//! prints the full iteration trace (Fig. 6–8) plus the final context-free
//! relations (Fig. 9).
//!
//! Run with: `cargo run --release --example quickstart`

use cfpq::grammar::cnf::CnfOptions;
use cfpq::grammar::queries;
use cfpq::graph::generators;
use cfpq::prelude::*;

fn main() {
    // The example grammar, already in the paper's normal form (Fig. 4).
    let grammar = queries::fig4_normal_form();
    let wcnf = grammar.to_wcnf(CnfOptions::default()).expect("normalizes");
    println!("Grammar G' (Fig. 4):\n{wcnf}");

    // The input graph of Fig. 5.
    let graph = generators::paper_example();
    println!("Input graph (Fig. 5): {graph}");
    for e in graph.edges() {
        println!("  {} --{}--> {}", e.from, graph.label_name(e.label), e.to);
    }

    // Algorithm 1 with per-iteration snapshots (set-matrix backend).
    let result = solve_set_matrix(&graph, &wcnf, true);
    println!(
        "\nTransitive closure reached fixpoint after {} iterations (paper: k = 6).",
        result.iterations
    );
    for (i, snapshot) in result.snapshots.iter().enumerate() {
        println!("T{i} =\n{}", snapshot.render(&wcnf.symbols));
    }

    // The context-free relations R_A (Fig. 9).
    println!("Context-free relations (Fig. 9):");
    for (nt, name) in wcnf.symbols.nts() {
        let pairs = result.pairs(nt);
        let rendered: Vec<String> = pairs.iter().map(|(i, j)| format!("({i},{j})")).collect();
        println!("  R_{name} = {{{}}}", rendered.join(", "));
    }

    // The same answer through the high-level API on every backend.
    println!("\nCross-checking all backends on R_S:");
    for backend in [
        Backend::Dense,
        Backend::DensePar { workers: 0 },
        Backend::Sparse,
        Backend::SparsePar { workers: 0 },
        Backend::SetMatrix,
    ] {
        let ans = solve(&graph, &grammar, backend).expect("query runs");
        println!(
            "  {:10} -> R_S = {:?} ({} iterations)",
            ans.backend,
            ans.start_pairs(),
            ans.iterations
        );
        assert_eq!(ans.start_pairs(), &[(0, 0), (0, 2), (1, 2)], "Fig. 9 R_S");
    }
    println!("\nAll backends agree with Fig. 9.");

    // The engine-generic solver underneath reports its kernel work.
    let idx = FixpointSolver::new(&SparseEngine).solve(&graph, &wcnf);
    println!(
        "\nMasked semi-naive fixpoint on the sparse engine: {} sweeps, {} products computed, {} skipped",
        idx.iterations, idx.stats.products_computed, idx.stats.products_skipped
    );
    assert_eq!(idx.pairs(wcnf.start), vec![(0, 0), (0, 2), (1, 2)]);
}

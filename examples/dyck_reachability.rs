//! CFL-reachability for static analysis — the §3 motivation.
//!
//! Program-analysis problems (points-to analysis, field-sensitive data
//! flow) reduce to Dyck-language reachability over program graphs: an
//! object flows to a variable only along paths whose call/return or
//! load/store edges are properly balanced. This example builds a random
//! "program graph" with matched `open`/`close` edge pairs plus noise
//! edges and computes balanced-parentheses reachability with Algorithm 1.
//!
//! Run with: `cargo run --release --example dyck_reachability`

use cfpq::graph::{generators, Graph};
use cfpq::prelude::*;
use std::time::Instant;

fn build_program_graph(n_nodes: usize, seed: u64) -> Graph {
    // `(`/`)` model call/return, `e` models intraprocedural flow that the
    // query treats as irrelevant noise.
    generators::random_graph(n_nodes, n_nodes * 3, &["(", ")", "e"], seed)
}

fn main() {
    // Dyck-1 without the empty word: balanced, non-empty bracket strings.
    let grammar = Cfg::parse("S -> S S | ( S ) | ( )").expect("grammar parses");

    println!(
        "{:>8} {:>8} {:>10} {:>12} {:>10}",
        "nodes", "edges", "#balanced", "sparse (ms)", "iters"
    );
    for n in [50usize, 100, 200, 400] {
        let graph = build_program_graph(n, 0xD1CE + n as u64);
        let t0 = Instant::now();
        let ans = solve(&graph, &grammar, Backend::Sparse).expect("query runs");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        println!(
            "{:>8} {:>8} {:>10} {:>12.1} {:>10}",
            graph.n_nodes(),
            graph.n_edges(),
            ans.start_count(),
            ms,
            ans.iterations
        );
    }

    // Sanity: hand-checkable instance. 0 -( 1 -( 2 -) 3 -) 4 is balanced
    // from 0 to 4 and from 1 to 3, nowhere else.
    let chain = generators::word_chain(&["(", "(", ")", ")"]);
    let ans = solve(&chain, &grammar, Backend::Dense).expect("query runs");
    println!("\nchain \"(())\": balanced pairs = {:?}", ans.start_pairs());
    assert_eq!(ans.start_pairs(), &[(0, 4), (1, 3)]);

    // And a witness path for the outer balance via single-path semantics.
    let wcnf = grammar
        .to_wcnf(cfpq::grammar::cnf::CnfOptions::default())
        .expect("normalizes");
    let index = SinglePathSolver::new(&DenseEngine).solve(&chain, &wcnf);
    let s = wcnf.symbols.get_nt("S").expect("S exists");
    let path = extract_path(&index, &chain, &wcnf, s, 0, 4).expect("witness exists");
    let labels: Vec<&str> = path.iter().map(|e| chain.label_name(e.label)).collect();
    println!("witness 0->4: {}", labels.join(" "));
}

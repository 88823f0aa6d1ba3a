//! Regular path queries on the unified compiled pipeline: build an NFA,
//! prepare it through a session exactly like a grammar, and watch the
//! same masked semi-naive fixpoint serve it — cold solve, incremental
//! repair after `add_edges`, and the triangulation against the
//! product-graph oracle and the equivalent right-linear grammar.
//!
//! Run with: `cargo run --release --example rpq`

use cfpq::core::CompiledQuery;
use cfpq::graph::ontology;
use cfpq::prelude::*;

fn main() {
    // The transitive-subclass RPQ `subClassOf+` as a two-state NFA.
    let nfa = Nfa::plus("subClassOf");

    // Under the hood, `prepare_regular` compiles the NFA through the
    // same RSM lowering CFPQ grammars use: one box, whose live states —
    // read backward, equivalent ones merged — become the nonterminals
    // of a right-linear grammar, normalized like any other. Both states
    // of `subClassOf+` read `subClassOf` into an accepting state, so
    // they are one nonterminal: `Rpq -> subClassOf Rpq | subClassOf`.
    let compiled = CompiledQuery::from_nfa(&nfa);
    println!(
        "compiled `subClassOf+`: {} state nonterminals, {} label nonterminals, kind {:?}",
        compiled.n_state_nts(),
        compiled.n_label_nts(),
        compiled.kind(),
    );
    print!("{}", compiled.wcnf());

    // One session, one materialized label-matrix index — the RPQ is
    // prepared and served exactly like a context-free query.
    let dataset = ontology::dataset("funding").expect("funding profile");
    let graph = dataset.to_graph();
    let mut session = CfpqSession::new(SparseEngine, &graph);
    let rpq = session.prepare_regular(&nfa);
    let answer = session.evaluate(rpq);
    let cold = session.last_run(rpq).expect("ran").clone();
    println!(
        "cold solve: |R| = {} ({} products, {} sweeps)",
        answer.start_count(),
        cold.stats.products_computed,
        cold.sweeps,
    );

    // The differential oracle — the standalone product-graph evaluator —
    // and the same language as a right-linear grammar under Algorithm 1
    // must answer byte-identically, and the compiled RPQ must cost what
    // that grammar costs.
    let oracle = solve_regular(&SparseEngine, &graph, &nfa);
    assert_eq!(answer.start_pairs(), oracle.pairs());
    let grammar = Cfg::parse("S -> subClassOf S | subClassOf").expect("parses");
    let cfpq = session.prepare(&grammar).expect("normalizes");
    assert_eq!(answer.start_pairs(), session.evaluate(cfpq).start_pairs());
    let grammar_products = session.last_run(cfpq).expect("ran").stats.products_computed;
    assert_eq!(cold.stats.products_computed, grammar_products);
    println!(
        "oracle and regular-grammar CFPQ agree; the grammar takes {grammar_products} products too."
    );

    // The graph evolves; the compiled RPQ repairs incrementally like
    // any other prepared query.
    let top = 0u32;
    let fresh = (graph.n_nodes() - 1) as u32;
    let inserted = session.add_edges(&[(fresh, "subClassOf", top)]);
    let repaired = session.evaluate(rpq);
    let repair = session.last_run(rpq).expect("ran").clone();
    assert!(repair.incremental, "second evaluation must be a repair");
    println!(
        "inserted {inserted} edge(s); repair: |R| = {} ({} products vs {} cold)",
        repaired.start_count(),
        repair.stats.products_computed,
        cold.stats.products_computed,
    );

    // Cross-check the repair against the oracle on the updated graph.
    let mut updated = graph.clone();
    updated.add_edge_named(fresh, "subClassOf", top);
    assert_eq!(
        repaired.start_pairs(),
        solve_regular(&SparseEngine, &updated, &nfa).pairs()
    );
    println!("matches the product-graph oracle on the updated graph.");
}

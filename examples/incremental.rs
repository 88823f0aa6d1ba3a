//! Sessions & incremental updates: index a graph once, evaluate several
//! prepared queries against it, then stream edges in and watch the
//! session repair its cached closures instead of re-solving. Q1 is
//! prepared relationally and single-path, and one length closure serves
//! both: a batch repairs it once.
//!
//! Run with: `cargo run --release --example incremental`

use cfpq::grammar::queries;
use cfpq::graph::ontology;
use cfpq::prelude::*;

fn main() {
    // One persistent index over the funding ontology graph...
    let dataset = ontology::dataset("funding").expect("funding profile");
    let graph = dataset.to_graph();
    let mut session = CfpqSession::new(SparseEngine, &graph);
    println!(
        "indexed {} nodes / {} edges across {} label matrices",
        session.index().n_nodes(),
        session.index().n_edges(),
        session.index().n_labels(),
    );

    // ...serving both evaluation queries. Normalization runs once per
    // grammar, here, not once per evaluate call.
    let q1 = session.prepare(&queries::query1()).expect("Q1 prepares");
    let q2 = session.prepare(&queries::query2()).expect("Q2 prepares");
    // Q1 for §5 witness lengths as well: its relational reads are then
    // served from this query's length closure, whose support is R_S.
    let sp = session
        .prepare_single_path(&queries::query1())
        .expect("Q1 prepares");
    let start = PreparedQuery::new(&queries::query1())
        .expect("Q1 prepares")
        .wcnf()
        .start;
    let a1 = session.evaluate(q1);
    let a2 = session.evaluate(q2);
    // Q1's runs are its length closure's, recorded on the single-path
    // handle that owns it.
    let cold = session.last_single_path_run(sp).expect("ran").clone();
    println!(
        "cold solves: Q1 |R_S| = {} ({} products), Q2 |R_S| = {}",
        a1.start_count(),
        cold.stats.products_computed,
        a2.start_count(),
    );

    // The graph evolves: link the two ends of the class DAG with a
    // fresh subClassOf edge (plus its RDF inverse, as §6 loads them).
    let top = 0u32;
    let fresh = (graph.n_nodes() - 1) as u32;
    let inserted = session.add_edges(&[(fresh, "subClassOf", top), (top, "subClassOf_r", fresh)]);
    println!("\ninserted {inserted} new edges");

    // Re-query: the cached closure is repaired semi-naively from just
    // the new entries — same answers a from-scratch solve would give,
    // at a fraction of the kernel work.
    let b1 = session.evaluate(q1);
    let repair = session.last_single_path_run(sp).expect("ran").clone();
    assert!(repair.incremental, "second evaluation must be a repair");
    println!(
        "incremental re-query: Q1 |R_S| = {} ({} products vs {} cold, {} sweeps)",
        b1.start_count(),
        repair.stats.products_computed,
        cold.stats.products_computed,
        repair.sweeps,
    );
    assert!(repair.stats.products_computed < cold.stats.products_computed);

    // One closure for Q1, repaired once: the single-path read hits.
    let lengths = session.evaluate_single_path(sp).count(start);
    assert_eq!(lengths, b1.start_count());
    let last = session.last_single_path_run(sp).expect("ran");
    assert_eq!(
        last.stats, repair.stats,
        "the batch repaired one closure for Q1, on its relational read"
    );
    assert!(session.last_run(q1).is_none(), "and no Boolean closure");
    println!("single-path re-query: {lengths} witness lengths, no second repair");

    // Cross-check against a fresh session over the updated graph that
    // prepares Q1 only relationally, so it solves a Boolean closure.
    let mut updated = graph.clone();
    updated.add_edge_named(fresh, "subClassOf", top);
    updated.add_edge_named(top, "subClassOf_r", fresh);
    let mut scratch = CfpqSession::new(SparseEngine, &updated);
    let s1 = scratch.prepare(&queries::query1()).expect("Q1 prepares");
    assert_eq!(b1.start_pairs(), scratch.evaluate(s1).start_pairs());
    println!("matches a from-scratch Boolean solve of the updated graph.");
}

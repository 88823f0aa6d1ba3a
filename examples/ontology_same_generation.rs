//! The paper's evaluation workload (§6) in miniature: same-generation
//! queries over RDF-style ontologies.
//!
//! Generates the synthetic stand-ins for several ontology datasets of
//! Tables 1/2 (exact triple counts, see the README's "Paper →
//! implementation map"), converts them to graphs with forward + inverse
//! edges, and evaluates Q1 and Q2 on the sparse backend, reporting
//! `#triples`, `#results` and wall time per dataset — the structure of a
//! Table 1/2 row.
//!
//! Run with: `cargo run --release --example ontology_same_generation`

use cfpq::grammar::queries;
use cfpq::graph::ontology;
use cfpq::prelude::*;
use std::time::Instant;

fn main() {
    let q1 = queries::query1();
    let q2 = queries::query2();

    println!(
        "{:<32} {:>8} {:>8} {:>10} {:>8} {:>10}",
        "ontology", "#triples", "Q1 #res", "Q1 (ms)", "Q2 #res", "Q2 (ms)"
    );

    for name in [
        "skos",
        "generations",
        "travel",
        "univ-bench",
        "atom-primitive",
        "biomedical-measure-primitive",
        "foaf",
        "people-pets",
        "funding",
        "wine",
        "pizza",
    ] {
        let triples = ontology::dataset(name).expect("known dataset");
        let graph = triples.to_graph();

        let t0 = Instant::now();
        let a1 = solve(&graph, &q1, Backend::Sparse).expect("Q1 runs");
        let q1_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t0 = Instant::now();
        let a2 = solve(&graph, &q2, Backend::Sparse).expect("Q2 runs");
        let q2_ms = t0.elapsed().as_secs_f64() * 1e3;

        println!(
            "{:<32} {:>8} {:>8} {:>10.1} {:>8} {:>10.1}",
            name,
            triples.len(),
            a1.start_count(),
            q1_ms,
            a2.start_count(),
            q2_ms
        );
    }

    // Demonstrate the g1-style scaled graph: 8 disjoint copies multiply
    // the answer count by exactly 8 (the paper's construction).
    let funding = ontology::dataset("funding").unwrap().to_graph();
    let base = solve(&funding, &q1, Backend::Sparse).unwrap().start_count();
    let g1 = funding.repeat(8);
    let scaled = solve(&g1, &q1, Backend::SparsePar { workers: 0 })
        .unwrap()
        .start_count();
    println!(
        "\nfunding Q1 results: {base}; g1 = 8 x funding: {scaled} (exactly 8x: {})",
        scaled == 8 * base
    );
}

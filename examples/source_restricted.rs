//! Source-restricted evaluation against the all-pairs solve: how many
//! products, how many demanded rows and how long, as the number of
//! source nodes grows — on a graph of disjoint blocks (a lookup stays in
//! its block) and on one connected ontology (demand spreads).
//!
//! Run with: `cargo run --release --example source_restricted`

use cfpq::grammar::queries;
use cfpq::graph::{generators, ontology};
use cfpq::prelude::*;
use std::time::Instant;

/// Best of `runs` timings of `f`, in milliseconds, with its last result.
fn best_ms<T>(runs: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..runs {
        let started = Instant::now();
        out = Some(f());
        best = best.min(started.elapsed().as_secs_f64() * 1e3);
    }
    (best, out.expect("runs >= 1"))
}

fn table(name: &str, graph: &Graph, grammar: &Cfg, block: u32) {
    let index = GraphIndex::build(TiledEngine::serial(), graph);
    let query = PreparedQuery::new(grammar).expect("grammar normalizes");
    let start = query.wcnf().start;
    let n = graph.n_nodes() as u32;
    let (all_ms, full) = best_ms(5, || solve_prepared(&index, &query));
    println!(
        "{name}: {n} nodes, all-pairs {} products, {} rows, {all_ms:.2} ms",
        full.stats.products_computed,
        graph.n_nodes() * query.wcnf().n_nts(),
    );
    println!("| sources | products | rows_demanded | sweeps | ms | vs all-pairs |");
    println!("|---|---|---|---|---|---|");
    for k in [1, 4, 64, 1024, n] {
        // Consecutive ids: the first 64 share a block of the block graph.
        let sources: Vec<u32> = (0..k.min(n)).map(|i| (block + i) % n).collect();
        let (ms, closure) = best_ms(5, || solve_prepared_from(&index, &query, &sources));
        for &s in &sources {
            for j in (0..n).step_by(97) {
                assert_eq!(closure.contains(start, s, j), full.contains(start, s, j));
            }
        }
        println!(
            "| {} | {} | {} | {} | {ms:.2} | {:.2}x |",
            sources.len(),
            closure.stats().products_computed,
            closure.rows_demanded(),
            closure.sweeps(),
            ms / all_ms,
        );
    }
    println!();
}

fn main() {
    // The benchmark's `point-cold` graph: 1,600 disjoint 64-node blocks.
    let blocks = generators::clustered_blocks(1600, 64, 4, &["a", "b"], 1);
    table(
        "blocks 1600x64, a^n b^n",
        &blocks,
        &queries::an_bn(),
        64 * 700,
    );
    // g3 of the paper: eight pizza ontologies, Q1.
    let g3 = ontology::dataset("pizza")
        .expect("bundled dataset")
        .to_graph()
        .repeat(8);
    table("g3, Q1", &g3, &queries::query1(), 0);
}

//! Device-overhead probe: quick serial-vs-parallel kernel timings on the
//! largest evaluation graph (g3) — the numbers behind the sGPU column.
//! Device-parallel scaling is deliberately not part of the whole-stack
//! benchmark (`benchmark/README.md`, "Thread budget"); run this on your
//! own host to see where the offload thresholds sit:
//!
//! ```text
//! cargo run --release -p cfpq-bench --bin devprobe
//! ```

use cfpq_core::relational::FixpointSolver;
use cfpq_grammar::cnf::CnfOptions;
use cfpq_graph::ontology::evaluation_suite;
use cfpq_matrix::{CsrMatrix, Device, ParSparseEngine, SparseEngine};
use std::time::Instant;

fn main() {
    let suite = evaluation_suite();
    let g3 = &suite.iter().find(|d| d.name == "g3").unwrap().graph;
    let q1 = cfpq_grammar::queries::query1()
        .to_wcnf(CnfOptions::default())
        .unwrap();

    let t = Instant::now();
    let idx = FixpointSolver::new(&SparseEngine).solve(g3, &q1);
    println!("serial solve: {:?} ({} iters)", t.elapsed(), idx.iterations);

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    let dev = Device::new(workers);
    let e = ParSparseEngine::new(dev.clone());
    let t = Instant::now();
    let idx = FixpointSolver::new(&e).solve(g3, &q1);
    println!(
        "par({workers}) solve: {:?} ({} iters, {} products, {} skipped)",
        t.elapsed(),
        idx.iterations,
        idx.stats.products_computed,
        idx.stats.products_skipped
    );

    // Isolated big multiply: the final S matrix squared.
    let s = &idx.matrices[q1.start.index()];
    let t = Instant::now();
    for _ in 0..20 {
        let _ = s.multiply(s);
    }
    println!("serial 20x multiply nnz={}: {:?}", s.nnz(), t.elapsed());
    let t = Instant::now();
    for _ in 0..20 {
        let _ = s.multiply_masked_opt_on(s, None, Some(&dev));
    }
    println!("par({workers})  20x multiply: {:?}", t.elapsed());

    // Pure dispatch overhead.
    let t = Instant::now();
    for _ in 0..1000 {
        let _ = dev.par_map_ranges(workers, |r| r.len());
    }
    println!("1000 empty dispatches: {:?}", t.elapsed());

    // union cost in the solve loop.
    let z = CsrMatrix::zeros(s.n());
    let t = Instant::now();
    for _ in 0..20 {
        let mut c = s.clone();
        c.union_in_place(&z);
    }
    println!("20x clone+union-with-zero: {:?}", t.elapsed());
}

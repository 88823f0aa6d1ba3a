//! Single-path query semantics (§5): not just *whether* nodes are
//! related, but an actual witness path whose labels derive from the
//! query nonterminal.
//!
//! Uses the same-generation query on a small class hierarchy and extracts
//! a witness for every answer pair, re-validating each against the
//! grammar (Theorem 5 in action). Also demonstrates the bounded all-path
//! enumeration (§7 future-work semantics) on a cyclic graph: the
//! enumerator reads the graph's label matrices, and its page must equal
//! the eager oracle's, which reads the edge list.
//!
//! Run with: `cargo run --release --example single_path_witness`

use cfpq::core::all_paths::enumerate_paths_eager;
use cfpq::core::single_path::validate_witness;
use cfpq::grammar::cnf::CnfOptions;
use cfpq::grammar::queries;
use cfpq::prelude::*;

fn main() {
    // A small ontology: c1, c2 subclass of c0; instances typed into them.
    let triples = TripleSet::parse(
        "c1 subClassOf c0\n\
         c2 subClassOf c0\n\
         i1 type c1\n\
         i2 type c2\n\
         i3 type c1\n",
    )
    .expect("triples parse");
    let graph = triples.to_graph();

    let grammar = queries::query1();
    let wcnf = grammar.to_wcnf(CnfOptions::default()).expect("normalizes");
    let s = wcnf.symbols.get_nt("S").expect("S exists");

    println!("Graph: {graph}");

    // §5: length-annotated closure.
    let index = SinglePathSolver::new(&DenseEngine).solve(&graph, &wcnf);
    let answers = index.pairs_with_lengths(s);
    println!("Same-generation pairs with witness lengths:");
    for &(i, j, len) in &answers {
        let path = extract_path(&index, &graph, &wcnf, s, i, j).expect("witness extraction");
        assert_eq!(path.len() as u32, len);
        assert!(validate_witness(&path, &graph, &wcnf, s, i, j));
        let labels: Vec<&str> = path.iter().map(|e| graph.label_name(e.label)).collect();
        println!("  ({i}, {j}) len {len}: {}", labels.join(" "));
    }
    println!(
        "All {} witnesses validated against the grammar.",
        answers.len()
    );

    // §7 future work: all-path semantics, bounded, on a cyclic graph.
    let mut cyclic = Graph::new(1);
    cyclic.add_edge_named(0, "subClassOf_r", 0);
    cyclic.add_edge_named(0, "subClassOf", 0);
    let rel = FixpointSolver::new(&SparseEngine).solve(&cyclic, &wcnf);
    let labels = GraphIndex::build(SparseEngine, &cyclic);
    let req = PageRequest {
        offset: 0,
        limit: 10,
        max_len: 6,
    };
    let page = PathEnumerator::new(&wcnf).page(&labels, &rel, s, 0, 0, req);
    // The oracle emits a length's paths in edge order; the page sorts them.
    let mut eager = enumerate_paths_eager(&rel, &cyclic, &wcnf, s, 0, 0, req);
    eager.sort_by_key(|p| {
        let key: Vec<_> = p.iter().map(|e| (e.from, e.label, e.to)).collect();
        (p.len(), key)
    });
    assert_eq!(page.paths, eager, "the page equals the eager oracle's");
    println!(
        "\nCyclic graph (self loops): {} distinct witnesses of length <= 6 for (S, 0, 0):",
        page.paths.len()
    );
    for p in &page.paths {
        let labels: Vec<&str> = p.iter().map(|e| cyclic.label_name(e.label)).collect();
        println!("  {}", labels.join(" "));
        assert!(validate_witness(p, &cyclic, &wcnf, s, 0, 0));
    }
    // Truncation is explicit: `exhausted` distinguishes "that's all of
    // them" from "the caps cut the stream".
    println!(
        "{}",
        if page.exhausted {
            "Complete: no further witnesses within the length bound."
        } else {
            "Truncated by the path cap: page on for more witnesses."
        }
    );
}

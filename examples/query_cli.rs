//! A small command-line CFPQ runner — the shape of tool a graph-database
//! user would actually invoke:
//!
//! ```text
//! cargo run --release --example query_cli -- \
//!     data/university.triples data/same_generation.grammar [backend] \
//!     [--threads N] [--trace PATH]
//! ```
//!
//! Loads an RDF-style triple file, a grammar in the DSL, evaluates the
//! query w.r.t. relational semantics and prints the start-nonterminal
//! relation with node names, plus graph statistics.
//! `--threads N` caps the process's thread budget (the
//! [`Parallelism`] knob): the parallel backends size their kernel
//! device from it instead of grabbing every available core.
//! `--trace PATH` runs the solve under a [`SpanCollector`], prints the
//! five slowest spans, and writes a chrome://tracing JSON to `PATH`.

use cfpq::prelude::*;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--threads N` / `--trace PATH` may appear anywhere; strip them
    // before the positional arguments are read.
    let mut budget = Parallelism::auto();
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        let Some(n) = args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) else {
            eprintln!("--threads needs a number");
            return ExitCode::from(2);
        };
        budget = Parallelism::new(n);
        args.drain(i..i + 2);
    }
    let mut trace_path: Option<String> = None;
    if let Some(i) = args.iter().position(|a| a == "--trace") {
        let Some(p) = args.get(i + 1) else {
            eprintln!("--trace needs a path");
            return ExitCode::from(2);
        };
        trace_path = Some(p.clone());
        args.drain(i..i + 2);
    }
    let (triples_path, grammar_path) = match args.as_slice() {
        [t, g, ..] => (t.clone(), g.clone()),
        _ => {
            // Default to the bundled sample so `cargo run --example
            // query_cli` works out of the box.
            (
                "data/university.triples".to_owned(),
                "data/same_generation.grammar".to_owned(),
            )
        }
    };
    let backend = match args.get(2).map(String::as_str) {
        None | Some("sparse") => Backend::Sparse,
        Some("dense") => Backend::Dense,
        Some("sparse-par") => Backend::SparsePar {
            workers: budget.total(),
        },
        Some("dense-par") => Backend::DensePar {
            workers: budget.total(),
        },
        Some("set-matrix") => Backend::SetMatrix,
        Some(other) => {
            eprintln!("unknown backend `{other}` (dense|sparse|dense-par|sparse-par|set-matrix)");
            return ExitCode::from(2);
        }
    };
    if let Some(extra) = args.get(3) {
        eprintln!("unexpected argument `{extra}`");
        return ExitCode::from(2);
    }

    let triples_text = match std::fs::read_to_string(&triples_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {triples_path}: {e}");
            return ExitCode::from(1);
        }
    };
    let triples = match TripleSet::parse(&triples_text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{triples_path}: {e}");
            return ExitCode::from(1);
        }
    };
    let grammar_text = match std::fs::read_to_string(&grammar_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {grammar_path}: {e}");
            return ExitCode::from(1);
        }
    };
    let grammar = match Cfg::parse(&grammar_text) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("{grammar_path}: {e}");
            return ExitCode::from(1);
        }
    };

    let graph = triples.to_graph();
    let stats = graph.stats();
    eprintln!(
        "graph: {} nodes, {} edges, {} labels, {} SCCs (largest {})",
        stats.n_nodes, stats.n_edges, stats.n_labels, stats.n_sccs, stats.largest_scc
    );

    // With --trace, the whole solve runs under a collector: the solver's
    // "solve"/"sweep" spans and every engine's "kernel" spans land in
    // one exportable trace.
    let collector = trace_path.as_ref().map(|_| Arc::new(SpanCollector::new()));
    let _install = collector
        .as_ref()
        .map(|c| cfpq::obs::install(Arc::clone(c) as Arc<dyn Recorder>));

    let started = std::time::Instant::now();
    let answer = match cfpq::core::solve(&graph, &grammar, backend) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("query failed: {e}");
            return ExitCode::from(1);
        }
    };
    if let (Some(path), Some(collector)) = (&trace_path, &collector) {
        eprintln!("top 5 slowest spans:");
        for span in collector.top_slowest(5) {
            let attrs: Vec<String> = span.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            eprintln!(
                "  {:>8}us  {:<8} {}",
                span.dur_us,
                span.name,
                attrs.join(" ")
            );
        }
        let json = collector.chrome_trace_json();
        match cfpq::obs::validate_chrome_trace(&json) {
            Ok(events) => {
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::from(1);
                }
                eprintln!("wrote {events} trace events to {path}");
            }
            Err(e) => {
                eprintln!("trace export failed validation: {e}");
                return ExitCode::from(1);
            }
        }
    }
    eprintln!(
        "backend {} answered in {:.2?} ({} fixpoint iterations)",
        answer.backend,
        started.elapsed(),
        answer.iterations
    );

    // Node ids follow the triple file's interning order; rebuild names.
    let mut names: Vec<String> = Vec::new();
    {
        let mut seen = std::collections::HashSet::new();
        for (s, _, o) in triples.iter() {
            for n in [s, o] {
                if seen.insert(n.to_owned()) {
                    names.push(n.to_owned());
                }
            }
        }
    }
    println!("R_{} ({} pairs):", answer.start, answer.start_count());
    for &(i, j) in answer.start_pairs() {
        println!("  {} -> {}", names[i as usize], names[j as usize]);
    }
    ExitCode::SUCCESS
}

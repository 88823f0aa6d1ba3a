//! Regenerates the paper's evaluation tables end to end.
//!
//! ```text
//! cargo run --release -p cfpq-bench --bin reproduce -- \
//!     [table1|table2|all] [--workers N] [--json PATH] [--smoke]
//! ```
//!
//! Prints each table in the paper's layout and optionally writes the raw
//! rows as JSON (per-sweep nnz, products computed, products skipped by
//! the masked semi-naive pipeline). `#results` is asserted identical
//! across GLL / dGPU / sCPU / sGPU / tiled, mirroring the paper's "All
//! implementations … have the same #results". `--smoke` restricts the
//! run to the four smallest ontologies — the CI guard that keeps the
//! kernel pipeline from rotting. Everything beyond the two tables
//! (sessions, the service, single-path, all-paths, RPQ, scale) is
//! measured by the whole-stack benchmark, see `benchmark/README.md`.

use cfpq_bench::{render_json, render_table, run_row, run_table, small_suite, Query};
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut queries = vec![Query::Q1, Query::Q2];
    let mut workers = 0usize;
    let mut json_path: Option<String> = None;
    let mut smoke = false;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "table1" => queries = vec![Query::Q1],
            "table2" => queries = vec![Query::Q2],
            "all" => queries = vec![Query::Q1, Query::Q2],
            "--workers" => {
                workers = match it.next().and_then(|v| v.parse().ok()) {
                    Some(n) => n,
                    None => {
                        eprintln!("--workers needs a number");
                        std::process::exit(2);
                    }
                };
            }
            "--json" => {
                json_path = match it.next() {
                    Some(p) => Some(p),
                    None => {
                        eprintln!("--json needs a path");
                        std::process::exit(2);
                    }
                };
            }
            "--smoke" => smoke = true,
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: reproduce [table1|table2|all] [--workers N] [--json PATH] [--smoke]"
                );
                std::process::exit(2);
            }
        }
    }

    let mut sections = Vec::new();
    for q in queries {
        let rows = if smoke {
            eprintln!("running {} over the smoke suite...", q.table_name());
            small_suite()
                .iter()
                .map(|ds| run_row(q, ds, workers))
                .collect()
        } else {
            eprintln!("running {} over the 14-dataset suite...", q.table_name());
            run_table(q, workers)
        };
        print!("{}", render_table(q, &rows));
        println!();
        sections.push((q, rows));
    }

    if let Some(path) = json_path {
        let json = render_json(&sections);
        let mut f = std::fs::File::create(&path).expect("open json output");
        f.write_all(json.as_bytes()).expect("write json output");
        eprintln!("wrote {path}");
    }
}

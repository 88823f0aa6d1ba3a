//! Regenerates the paper's evaluation tables end to end, plus the
//! incremental-session scenario.
//!
//! ```text
//! cargo run --release -p cfpq-bench --bin reproduce -- \
//!     [table1|table2|incremental|single-path|service|all-paths|faults|scale|rpq|all] \
//!     [--workers N] [--json PATH] [--smoke]
//! ```
//!
//! Prints each table in the paper's layout and optionally writes the raw
//! rows as JSON (the historical `BENCH_*.json` perf trajectory: per-sweep
//! nnz, products computed, products skipped by the masked semi-naive
//! pipeline; new measurements belong to the whole-stack benchmark, see
//! `benchmark/README.md`). `#results` is
//! asserted identical across GLL / dGPU / sCPU / sGPU and across the
//! naive vs masked-delta fixpoint strategies, mirroring the paper's "All
//! implementations … have the same #results". `--smoke` restricts the
//! run to the four smallest ontologies — the CI guard that keeps the
//! JSON schema and the kernel pipeline from rotting.
//!
//! The `incremental` scenario (part of `all`) builds one `CfpqSession`
//! index, runs both evaluation queries, inserts a held-out edge batch
//! via `add_edges`, and re-queries: the emitted rows assert that the
//! semi-naive repair launches strictly fewer products than a cold solve
//! of the full graph. Full mode runs g3 at 1/10/100-edge batches (the
//! numbers committed as `BENCH_pr3.json`); smoke mode runs the two
//! smallest ontologies at 1/10.
//!
//! The `single-path` scenario (part of `all`) runs the §5 length
//! closure: the engine-backed masked semi-naive pipeline vs the naive
//! `O(n³)` oracle on Q1, plus a session single-path repair after a
//! held-out batch. Full mode runs pizza and g3 and asserts the engine
//! beats the oracle on wall time (the numbers committed as
//! `BENCH_pr4.json`); smoke mode runs the four smallest ontologies,
//! asserting correctness and the fewer-products repair criterion.
//!
//! The `service` scenario (part of `all`) runs the concurrent query
//! service: a two-wave request workload (an `add_edges` batch between
//! the waves) served by a `CfpqService` with its multi-queue scheduler,
//! against the serial one-shot-solve-per-request loop. Byte-identical
//! per-request answer sets are asserted everywhere; full mode runs g3 at
//! 4 workers and additionally asserts the ≥2× throughput criterion (the
//! numbers committed as `BENCH_pr5.json`), while smoke mode runs the two
//! smallest ontologies without the throughput assertion.
//!
//! The `all-paths` scenario (part of `all`) runs the §7 streaming
//! enumeration: the memoized lazy enumerator vs the pre-rewrite eager
//! recursive walk on the self-loop Dyck graph (eager is exponential in
//! the length bound, so the two are compared at a shared feasible bound
//! and the lazy-only stress runs at `max_len` 64), plus a paths-ticket
//! service workload whose pages are asserted epoch-consistent and
//! CYK-valid under a racing `add_edges` batch, and a tight-quota probe
//! asserting truncation is loud. Full mode raises the eager bound (the
//! numbers committed as `BENCH_pr6.json`); smoke keeps it small.
//!
//! The `faults` scenario (part of `all`) runs the deterministic chaos
//! workload: a `FaultInjector`-wrapped engine executes a fixed fault
//! schedule against the service — scheduled worker panics recovered by
//! client retries (answers asserted byte-identical to sequential),
//! forced overload shedding plus deadline expiry, and a bounded
//! shutdown drain. The emitted rows carry the `worker_panics`,
//! `requests_shed`, and `deadline_expired` counters CI greps for. Fault
//! handling is size-independent, so both modes run small ontologies:
//! smoke the two smallest, full the four-dataset smoke suite (the full
//! rows are part of `BENCH_pr7.json`).
//!
//! The `rpq` scenario (part of `all`) runs regular path queries through
//! the unified compiled pipeline: each RPQ is answered three ways — the
//! standalone product-graph oracle, the NFA compiled through the
//! RSM/Kronecker lowering and solved by a session's masked semi-naive
//! fixpoint, and the equivalent right-linear grammar under plain
//! Algorithm 1 — with byte-identical answers asserted, the pipeline's
//! `SolveStats` emitted per row, and a session repair after a held-out
//! `add_edges` batch. Full mode runs pizza and g3 and asserts the
//! repair launches strictly fewer products than the cold solve (the
//! numbers committed as `BENCH_pr9.json`); smoke runs the two smallest
//! ontologies asserting correctness.
//!
//! The `scale` scenario (part of `all`) leaves the paper's ontology
//! sizes behind: a clustered block graph of tile-aligned 64-node
//! clusters — 1600 blocks (102,400 nodes) in full mode, 32 blocks in
//! smoke — solved on parallel CSR, the block-tiled backend, and the
//! adaptive engine. Full mode asserts the tiled backend beats the CSR
//! baseline (the numbers committed as `BENCH_pr8.json`); flat dense is
//! recorded as skipped (`n²/8` bytes per nonterminal at this size).
//!
//! The `obs` scenario (part of `all`, both modes) holds the
//! observability layer to its contract on g3: the no-op recorder must
//! leave the Q1 kernel schedule and wall time (<5%) unchanged, and a
//! traced service run must yield a well-formed span tree, a valid
//! chrome://tracing export, and a Prometheus exposition that passes
//! `cfpq_bench::lint_prometheus_text` — the JSON rows carry
//! `ticket_wait_p99_ms`, `sweep_spans`, and `queue_depth_max`.

use cfpq_bench::{
    render_all_paths, render_faults, render_incremental, render_obs, render_rpq, render_scale,
    render_service, render_single_path, render_table, run_all_paths, run_faults, run_incremental,
    run_obs, run_row, run_rpq, run_scale, run_service, run_single_path, run_table, small_suite,
    Query,
};
use cfpq_graph::ontology::evaluation_suite;
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which = "all".to_owned();
    let mut workers = 0usize;
    let mut json_path: Option<String> = None;
    let mut smoke = false;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "table1" | "table2" | "incremental" | "single-path" | "service" | "all-paths"
            | "faults" | "scale" | "rpq" | "obs" | "all" => which = arg,
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
                    "usage: reproduce [table1|table2|incremental|single-path|service|all-paths|faults|scale|rpq|obs|all] \
                     [--workers N] [--json PATH] [--smoke]"
                );
                std::process::exit(2);
            }
        }
    }

    let queries: Vec<Query> = match which.as_str() {
        "table1" => vec![Query::Q1],
        "table2" => vec![Query::Q2],
        "incremental" | "single-path" | "service" | "all-paths" | "faults" | "scale" | "rpq"
        | "obs" => {
            vec![]
        }
        _ => vec![Query::Q1, Query::Q2],
    };
    let run_incremental_scenario = matches!(which.as_str(), "incremental" | "all");
    let run_single_path_scenario = matches!(which.as_str(), "single-path" | "all");
    let run_service_scenario = matches!(which.as_str(), "service" | "all");
    let run_all_paths_scenario = matches!(which.as_str(), "all-paths" | "all");
    let run_faults_scenario = matches!(which.as_str(), "faults" | "all");
    let run_scale_scenario = matches!(which.as_str(), "scale" | "all");
    let run_rpq_scenario = matches!(which.as_str(), "rpq" | "all");
    let run_obs_scenario = matches!(which.as_str(), "obs" | "all");

    let mut sections: Vec<serde_json::Value> = Vec::new();
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
        sections.push(serde_json::json!({ "query": format!("{q:?}"), "rows": rows }));
    }

    if run_incremental_scenario {
        // Smoke: two small ontologies at small batches (the CI guard).
        // Full: g3 — the largest graph — at 1/10/100-edge batches; these
        // are the rows committed as BENCH_pr3.json.
        let rows = if smoke {
            eprintln!("running incremental scenario over the smoke suite...");
            small_suite()
                .iter()
                .take(2)
                .flat_map(|ds| run_incremental(ds, &[1, 10]))
                .collect::<Vec<_>>()
        } else {
            eprintln!("running incremental scenario on g3 (1/10/100-edge batches)...");
            let suite = evaluation_suite();
            let g3 = suite.iter().find(|d| d.name == "g3").expect("g3 present");
            run_incremental(g3, &[1, 10, 100])
        };
        print!("{}", render_incremental(&rows));
        println!();
        sections.push(serde_json::json!({ "query": "Incremental", "rows": rows }));
    }

    if run_single_path_scenario {
        // Smoke: the four smallest ontologies, correctness-only (the CI
        // guard — a tiny flat loop can win on a 91-node graph). Full:
        // pizza and g3 with the engine-beats-oracle assertion; these are
        // the rows committed as BENCH_pr4.json.
        let rows = if smoke {
            eprintln!("running single-path scenario over the smoke suite...");
            small_suite()
                .iter()
                .map(|ds| run_single_path(ds, 10, false))
                .collect::<Vec<_>>()
        } else {
            eprintln!("running single-path scenario on pizza and g3 (naive oracle is O(n³) — expect ~10s on g3)...");
            let suite = evaluation_suite();
            ["pizza", "g3"]
                .iter()
                .map(|name| {
                    let ds = suite.iter().find(|d| &d.name == name).expect("dataset");
                    run_single_path(ds, 10, true)
                })
                .collect::<Vec<_>>()
        };
        print!("{}", render_single_path(&rows));
        println!();
        sections.push(serde_json::json!({ "query": "SinglePath", "rows": rows }));
    }

    if run_service_scenario {
        // Smoke: the two smallest ontologies, byte-identical answers and
        // the repair-beats-cold invariant only (tiny graphs cannot
        // amortize thread overhead, so no throughput assertion). Full:
        // g3 at 4 workers with the ≥2× speedup acceptance criterion;
        // these are the rows committed as BENCH_pr5.json.
        let rows = if smoke {
            eprintln!("running service scenario over the smoke suite...");
            small_suite()
                .iter()
                .take(2)
                .map(|ds| run_service(ds, 4, 3, 5, false))
                .collect::<Vec<_>>()
        } else {
            eprintln!("running service scenario on g3 (4 workers, 2 waves of 8 requests/query)...");
            let suite = evaluation_suite();
            let g3 = suite.iter().find(|d| d.name == "g3").expect("g3 present");
            vec![run_service(g3, 4, 8, 10, true)]
        };
        print!("{}", render_service(&rows));
        println!();
        sections.push(serde_json::json!({ "query": "Service", "rows": rows }));
    }

    if run_all_paths_scenario {
        // Self-contained synthetic scenario (no ontology dependence):
        // smoke keeps the eager bound at 12, full raises it to 20 — the
        // eager walk's cost roughly doubles per unit of max_len, so the
        // gap against the memoized enumerator is visible either way.
        // Full-mode rows are the ones committed as BENCH_pr6.json.
        eprintln!("running all-paths scenario (cyclic stress + paths tickets)...");
        let rows = run_all_paths(smoke);
        print!("{}", render_all_paths(&rows));
        println!();
        sections.push(serde_json::json!({ "query": "AllPaths", "rows": rows }));
    }

    if run_faults_scenario {
        // Deterministic chaos on small ontologies (fault handling is
        // size-independent; the stall schedule makes big graphs pure
        // waste). Smoke: the two smallest. Full: the four-dataset smoke
        // suite — the rows committed as part of BENCH_pr7.json.
        let take = if smoke { 2 } else { 4 };
        eprintln!("running faults scenario (scheduled panics, overload, bounded shutdown)...");
        let rows: Vec<_> = small_suite().iter().take(take).map(run_faults).collect();
        print!("{}", render_faults(&rows));
        println!();
        sections.push(serde_json::json!({ "query": "Faults", "rows": rows }));
    }

    if run_scale_scenario {
        // Smoke: 32 tile-aligned blocks (2,048 nodes) — enough to cross
        // tile boundaries and keep CI fast. Full: 1600 blocks (102,400
        // nodes) with the tiled-beats-CSR acceptance criterion; these
        // are the rows committed as BENCH_pr8.json. Flat dense is never
        // run here (n²/8 bytes per nonterminal).
        let n_blocks = if smoke { 32 } else { 1600 };
        eprintln!("running scale scenario ({n_blocks} blocks x 64 nodes)...");
        let rows = vec![run_scale(n_blocks, workers, !smoke)];
        print!("{}", render_scale(&rows));
        println!();
        sections.push(serde_json::json!({ "query": "Scale", "rows": rows }));
    }

    if run_rpq_scenario {
        // Smoke: the two smallest ontologies, triangulation only (a cold
        // solve on a 91-node graph is a handful of products, so the
        // strictly-fewer repair criterion has no headroom). Full: pizza
        // and g3 with the strict repair assertion; these are the rows
        // committed as BENCH_pr9.json.
        let rows = if smoke {
            eprintln!("running rpq scenario over the smoke suite...");
            small_suite()
                .iter()
                .take(2)
                .flat_map(|ds| run_rpq(ds, 10, false))
                .collect::<Vec<_>>()
        } else {
            eprintln!("running rpq scenario on pizza and g3...");
            let suite = evaluation_suite();
            ["pizza", "g3"]
                .iter()
                .flat_map(|name| {
                    let ds = suite.iter().find(|d| &d.name == name).expect("dataset");
                    run_rpq(ds, 10, true)
                })
                .collect::<Vec<_>>()
        };
        print!("{}", render_rpq(&rows));
        println!();
        sections.push(serde_json::json!({ "query": "Rpq", "rows": rows }));
    }

    if run_obs_scenario {
        // Both modes run g3 (the overhead guard needs a solve long
        // enough that 5% is measurable): the no-op recorder must leave
        // the Q1 kernel schedule and wall time unchanged, and the traced
        // service run must produce a well-formed span tree, a valid
        // chrome://tracing export, and a Prometheus exposition that
        // passes the line checker.
        eprintln!("running obs scenario on g3 (no-op overhead guard + traced service run)...");
        let suite = evaluation_suite();
        let g3 = suite.iter().find(|d| d.name == "g3").expect("g3 present");
        let rows = vec![run_obs(g3)];
        print!("{}", render_obs(&rows));
        println!();
        sections.push(serde_json::json!({ "query": "Obs", "rows": rows }));
    }

    if let Some(path) = json_path {
        let json = serde_json::to_string_pretty(&sections).expect("rows serialize");
        let mut f = std::fs::File::create(&path).expect("open json output");
        f.write_all(json.as_bytes()).expect("write json output");
        eprintln!("wrote {path}");
    }
}

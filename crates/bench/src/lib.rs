//! # cfpq-bench
//!
//! The evaluation harness reproducing §6 of the paper: Table 1 (Query 1)
//! and Table 2 (Query 2) over the 14-dataset suite, behind the
//! `reproduce` binary.
//!
//! Column mapping (the README's "Paper → implementation map" explains
//! the GPU substitution):
//!
//! | paper column | this harness |
//! |---|---|
//! | GLL | [`cfpq_baselines::gll`] on the original grammar |
//! | dGPU | dense matrices on the parallel device (`dense-par`) |
//! | sCPU | serial CSR (`sparse`) |
//! | sGPU | CSR on the parallel device (`sparse-par`) |
//! | — | 64×64 block tiles on the parallel device (`tiled`) |
//!
//! Like the paper ("We omit dGPU performance on graphs g1, g2 and g3
//! since a dense matrix representation leads to a significant performance
//! degradation with the graph size growth"), the dense backend is skipped
//! on g1–g3.
//!
//! Every matrix column runs [`FixpointSolver`]'s masked semi-naive loop;
//! each row also reports the kernel counters of the serial CSR run and
//! of the tiled run. Sessions,
//! the service, single-path and RPQ evaluation are measured by the
//! whole-stack benchmark in `benchmark/`, not here.

use cfpq_baselines::gll::GllSolver;
use cfpq_core::relational::{FixpointSolver, SolveStats};
use cfpq_grammar::cnf::CnfOptions;
use cfpq_grammar::{queries, Cfg, Wcnf};
use cfpq_graph::ontology::{evaluation_suite, Dataset};
use cfpq_matrix::{ParDenseEngine, ParSparseEngine, Parallelism, SparseEngine, TiledEngine};
use std::time::Instant;

/// Which of the paper's two evaluation queries to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Query {
    /// Table 1: the same-generation query (Fig. 10).
    Q1,
    /// Table 2: the adjacent-layer query (Fig. 11).
    Q2,
}

impl Query {
    /// The query grammar (original, non-CNF form; what GLL consumes).
    pub fn grammar(self) -> Cfg {
        match self {
            Query::Q1 => queries::query1(),
            Query::Q2 => queries::query2(),
        }
    }

    /// Table name for reports.
    pub fn table_name(self) -> &'static str {
        match self {
            Query::Q1 => "Table 1 (Query 1)",
            Query::Q2 => "Table 2 (Query 2)",
        }
    }
}

/// Kernel-work counters of one fixpoint run, written into the
/// `reproduce --json` output (per-sweep nnz, products launched, products
/// avoided).
#[derive(Clone, Debug)]
pub struct SweepStats {
    /// Fixpoint sweeps until no change.
    pub sweeps: usize,
    /// Matrix products actually launched.
    pub products_computed: usize,
    /// Products avoided by shared-pair dedup and empty-Δ skipping.
    pub products_skipped: usize,
    /// `Σ_A nnz(T_A)` after each sweep.
    pub sweep_nnz: Vec<usize>,
    /// Tile products the tiled kernels skipped (empty tile-rows,
    /// saturated mask tiles); 0 on non-tiled engines.
    pub tiles_skipped: u64,
    /// Per-nonterminal `nnz(T_A)` at the fixpoint.
    pub nt_nnz: Vec<usize>,
}

impl SweepStats {
    fn of(iterations: usize, stats: &SolveStats) -> Self {
        Self {
            sweeps: iterations,
            products_computed: stats.products_computed,
            products_skipped: stats.products_skipped,
            sweep_nnz: stats.sweep_nnz.clone(),
            tiles_skipped: stats.tiles_skipped,
            nt_nnz: stats.nt_nnz.clone(),
        }
    }
}

/// One row of a reproduced table.
#[derive(Clone, Debug)]
pub struct Row {
    /// Dataset name (skos … g3).
    pub dataset: String,
    /// `#triples` column.
    pub triples: usize,
    /// Graph node count (not in the paper's tables; informative).
    pub nodes: usize,
    /// `#results` column: |R_S| (identical across implementations —
    /// asserted by the harness).
    pub results: usize,
    /// GLL column, milliseconds.
    pub gll_ms: f64,
    /// dGPU column (dense-par), milliseconds; `None` on g1–g3 as in the
    /// paper.
    pub dense_par_ms: Option<f64>,
    /// sCPU column (sparse serial), milliseconds.
    pub sparse_ms: f64,
    /// sGPU column (sparse-par), milliseconds.
    pub sparse_par_ms: f64,
    /// Block-tiled backend (tiled), milliseconds.
    pub tiled_ms: f64,
    /// Work counters of the sCPU run.
    pub sparse: SweepStats,
    /// Work counters of the tiled run: the engine the whole-stack
    /// benchmark's tiled workloads use, and the only one that skips tiles.
    pub tiled: SweepStats,
}

/// Times a closure in milliseconds.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Runs GLL and the four matrix engines on one query and one dataset
/// and checks they report the same `#results`.
pub fn run_row(query: Query, dataset: &Dataset, device_workers: usize) -> Row {
    let cfg = query.grammar();
    let wcnf: Wcnf = cfg
        .to_wcnf(CnfOptions::default())
        .expect("query normalizes");
    let start_cfg = cfg.start.expect("query has start");
    let start_wcnf = wcnf.start;
    let graph = &dataset.graph;
    // 0 workers: one per available core.
    let device = || Parallelism::new(device_workers).device();

    // GLL on the original grammar.
    let (gll_store, gll_ms) = time_ms(|| GllSolver::new(&cfg, graph).solve(graph, start_cfg));
    let gll_results = gll_store.count(start_cfg);

    // sCPU: serial CSR.
    let (sparse_idx, sparse_ms) =
        time_ms(|| FixpointSolver::new(&SparseEngine).solve(graph, &wcnf));
    let results = sparse_idx.matrices[start_wcnf.index()].nnz();
    let sparse = SweepStats::of(sparse_idx.iterations, &sparse_idx.stats);

    // sGPU: CSR on the device, which runs the products of a sweep side
    // by side (the paper's §7 remark); each product runs whole on one
    // thread.
    let engine = ParSparseEngine::new(device());
    let (spar_idx, sparse_par_ms) = time_ms(|| FixpointSolver::new(&engine).solve(graph, &wcnf));
    let spar_results = spar_idx.matrices[start_wcnf.index()].nnz();

    // Block-tiled backend on the same device.
    let engine = TiledEngine::new(device());
    let (tiled_idx, tiled_ms) = time_ms(|| FixpointSolver::new(&engine).solve(graph, &wcnf));
    let tiled_results = tiled_idx.matrices[start_wcnf.index()].nnz();
    let tiled = SweepStats::of(tiled_idx.iterations, &tiled_idx.stats);

    // dGPU: parallel dense; skipped on the large repeated graphs, as in
    // the paper.
    let skip_dense = matches!(dataset.name.as_str(), "g1" | "g2" | "g3");
    let (dense_results, dense_par_ms) = if skip_dense {
        (results, None)
    } else {
        let engine = ParDenseEngine::new(device());
        let (idx, ms) = time_ms(|| FixpointSolver::new(&engine).solve(graph, &wcnf));
        (idx.matrices[start_wcnf.index()].nnz(), Some(ms))
    };

    assert_eq!(
        gll_results, results,
        "GLL vs sparse #results mismatch on {}",
        dataset.name
    );
    assert_eq!(
        spar_results, results,
        "sparse-par #results mismatch on {}",
        dataset.name
    );
    assert_eq!(
        dense_results, results,
        "dense-par #results mismatch on {}",
        dataset.name
    );
    assert_eq!(
        tiled_results, results,
        "tiled #results mismatch on {}",
        dataset.name
    );

    Row {
        dataset: dataset.name.clone(),
        triples: dataset.triples,
        nodes: graph.n_nodes(),
        results,
        gll_ms,
        dense_par_ms,
        sparse_ms,
        sparse_par_ms,
        tiled_ms,
        sparse,
        tiled,
    }
}

/// Reproduces a full table over the 14-dataset evaluation suite.
pub fn run_table(query: Query, device_workers: usize) -> Vec<Row> {
    evaluation_suite()
        .iter()
        .map(|ds| run_row(query, ds, device_workers))
        .collect()
}

/// Renders rows in the paper's table layout.
pub fn render_table(query: Query, rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{}\n", query.table_name()));
    out.push_str(&format!(
        "{:<30} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7} {:>7}\n",
        "Ontology",
        "#triples",
        "#results",
        "GLL(ms)",
        "dGPU(ms)",
        "sCPU(ms)",
        "sGPU(ms)",
        "tile(ms)",
        "#prod",
        "#skip"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<30} {:>8} {:>9} {:>9.0} {:>9} {:>9.0} {:>9.0} {:>9.0} {:>7} {:>7}\n",
            r.dataset,
            r.triples,
            r.results,
            r.gll_ms,
            r.dense_par_ms
                .map(|v| format!("{v:.0}"))
                .unwrap_or_else(|| "—".to_owned()),
            r.sparse_ms,
            r.sparse_par_ms,
            r.tiled_ms,
            r.sparse.products_computed,
            r.sparse.products_skipped,
        ));
    }
    out
}

/// The `reproduce --json` document: one `{"query", "rows"}` object per
/// table, every field of [`Row`] and [`SweepStats`] under its own name in
/// declaration order, two-space indentation, one array element per line.
/// Written by hand — two flat structs do not need a serializer — so CI
/// parses the file it writes.
pub fn render_json(sections: &[(Query, Vec<Row>)]) -> String {
    let sections = sections.iter().map(|(query, rows)| {
        let query = json_string(&format!("{query:?}"));
        let rows = json_array(rows.iter().map(|row| row.json(3)), 2);
        json_object(&[("query", query), ("rows", rows)], 1)
    });
    json_array(sections, 0)
}

impl Row {
    fn json(&self, level: usize) -> String {
        let dense_par_ms = self
            .dense_par_ms
            .map_or("null".to_owned(), |ms| ms.to_string());
        let fields = [
            ("dataset", json_string(&self.dataset)),
            ("triples", self.triples.to_string()),
            ("nodes", self.nodes.to_string()),
            ("results", self.results.to_string()),
            ("gll_ms", self.gll_ms.to_string()),
            ("dense_par_ms", dense_par_ms),
            ("sparse_ms", self.sparse_ms.to_string()),
            ("sparse_par_ms", self.sparse_par_ms.to_string()),
            ("tiled_ms", self.tiled_ms.to_string()),
            ("sparse", self.sparse.json(level + 1)),
            ("tiled", self.tiled.json(level + 1)),
        ];
        json_object(&fields, level)
    }
}

impl SweepStats {
    fn json(&self, level: usize) -> String {
        let counts = |counts: &[usize]| json_array(counts.iter().map(usize::to_string), level + 1);
        let fields = [
            ("sweeps", self.sweeps.to_string()),
            ("products_computed", self.products_computed.to_string()),
            ("products_skipped", self.products_skipped.to_string()),
            ("sweep_nnz", counts(&self.sweep_nnz)),
            ("tiles_skipped", self.tiles_skipped.to_string()),
            ("nt_nnz", counts(&self.nt_nnz)),
        ];
        json_object(&fields, level)
    }
}

/// `items`, already rendered one level deeper, as an array at `level`.
fn json_array(items: impl Iterator<Item = String>, level: usize) -> String {
    json_block(['[', ']'], items, level)
}

/// `fields`, values already rendered one level deeper, as an object at
/// `level`.
fn json_object(fields: &[(&str, String)], level: usize) -> String {
    let fields = fields
        .iter()
        .map(|(key, value)| format!("\"{key}\": {value}"));
    json_block(['{', '}'], fields, level)
}

fn json_block(
    [open, close]: [char; 2],
    items: impl Iterator<Item = String>,
    level: usize,
) -> String {
    let (pad, end) = ("  ".repeat(level + 1), "  ".repeat(level));
    let items: Vec<String> = items.map(|item| format!("{pad}{item}")).collect();
    if items.is_empty() {
        return format!("{open}{close}");
    }
    format!("{open}\n{}\n{end}{close}", items.join(",\n"))
}

fn json_string(s: &str) -> String {
    let escape = |c: char| match c {
        '"' | '\\' => format!("\\{c}"),
        c if c < ' ' => format!("\\u{:04x}", c as u32),
        c => c.to_string(),
    };
    format!("\"{}\"", s.chars().map(escape).collect::<String>())
}

/// A smaller suite for unit tests and smoke runs: the four smallest
/// ontologies.
pub fn small_suite() -> Vec<Dataset> {
    evaluation_suite()
        .into_iter()
        .filter(|d| {
            matches!(
                d.name.as_str(),
                "skos" | "generations" | "travel" | "univ-bench"
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_consistent_across_backends() {
        // run_row asserts GLL == sparse == sparse-par == dense-par == tiled
        // result counts internally; run it over the small suite for both queries.
        for ds in small_suite() {
            for q in [Query::Q1, Query::Q2] {
                let row = run_row(q, &ds, 2);
                assert_eq!(row.triples, ds.triples);
                assert!(row.results > 0 || q == Query::Q2, "{} {q:?}", ds.name);
            }
        }
    }

    #[test]
    fn render_produces_all_rows() {
        let ds = small_suite();
        let rows: Vec<Row> = ds.iter().map(|d| run_row(Query::Q1, d, 2)).collect();
        let text = render_table(Query::Q1, &rows);
        for d in &ds {
            assert!(text.contains(&d.name));
        }
        assert!(text.contains("#results"));
    }

    #[test]
    fn json_keeps_field_order_nulls_and_empty_arrays() {
        let row = Row {
            dataset: "g\"1".to_owned(),
            triples: 7,
            nodes: 3,
            results: 2,
            gll_ms: 1.5,
            dense_par_ms: None,
            sparse_ms: 0.25,
            sparse_par_ms: 3.0,
            tiled_ms: 12.0625,
            sparse: SweepStats {
                sweeps: 2,
                products_computed: 4,
                products_skipped: 1,
                sweep_nnz: vec![5, 6],
                tiles_skipped: 0,
                nt_nnz: vec![],
            },
            tiled: SweepStats {
                sweeps: 1,
                products_computed: 2,
                products_skipped: 0,
                sweep_nnz: vec![],
                tiles_skipped: 9,
                nt_nnz: vec![7],
            },
        };
        let expect = r#"[
  {
    "query": "Q2",
    "rows": [
      {
        "dataset": "g\"1",
        "triples": 7,
        "nodes": 3,
        "results": 2,
        "gll_ms": 1.5,
        "dense_par_ms": null,
        "sparse_ms": 0.25,
        "sparse_par_ms": 3,
        "tiled_ms": 12.0625,
        "sparse": {
          "sweeps": 2,
          "products_computed": 4,
          "products_skipped": 1,
          "sweep_nnz": [
            5,
            6
          ],
          "tiles_skipped": 0,
          "nt_nnz": []
        },
        "tiled": {
          "sweeps": 1,
          "products_computed": 2,
          "products_skipped": 0,
          "sweep_nnz": [],
          "tiles_skipped": 9,
          "nt_nnz": [
            7
          ]
        }
      }
    ]
  }
]"#;
        assert_eq!(render_json(&[(Query::Q2, vec![row])]), expect);
    }

    #[test]
    fn g_datasets_skip_dense() {
        let suite = evaluation_suite();
        let g1 = suite.iter().find(|d| d.name == "g1").unwrap();
        // Use a trimmed copy of g1 (2 copies of funding instead of 8) to
        // keep the test fast while exercising the skip logic.
        let funding = suite.iter().find(|d| d.name == "funding").unwrap();
        let small_g = Dataset {
            name: "g1".to_owned(),
            triples: g1.triples,
            graph: funding.graph.repeat(2),
        };
        let row = run_row(Query::Q2, &small_g, 2);
        assert!(row.dense_par_ms.is_none(), "dGPU omitted on g1–g3");
    }
}

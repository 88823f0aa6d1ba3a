//! High-level query API: grammar + graph + backend → answer.
//!
//! This is the entry point a downstream user sees: hand in any [`Cfg`]
//! (normalization runs automatically), an edge-labeled [`Graph`], and a
//! [`Backend`] choice mirroring the paper's evaluated implementations.

use cfpq_grammar::cnf::CnfOptions;
use cfpq_grammar::{Cfg, GrammarError, Nt, Wcnf};
use cfpq_graph::Graph;
use cfpq_matrix::{
    BoolEngine, BoolMat, DenseEngine, ParDenseEngine, ParSparseEngine, Parallelism, SparseEngine,
};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use crate::all_paths::Relation;
use crate::relational::{solve_set_matrix, RelationalIndex, SolveStats};
use crate::session::{CfpqSession, PreparedQuery};

/// Which implementation evaluates the query (§6 naming in comments).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    /// Dense bitset matrices, serial (ablation baseline; no paper column).
    Dense,
    /// Dense matrices on the parallel device — the paper's **dGPU**.
    /// `workers = 0` means "all available cores".
    DensePar {
        /// Worker count (0 = auto).
        workers: usize,
    },
    /// CSR matrices, serial — the paper's **sCPU**.
    Sparse,
    /// CSR matrices on the parallel device — the paper's **sGPU**.
    SparsePar {
        /// Worker count (0 = auto).
        workers: usize,
    },
    /// The paper-literal set-valued matrix (Algorithm 1 as printed).
    SetMatrix,
}

impl Backend {
    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Dense => "dense",
            Backend::DensePar { .. } => "dense-par",
            Backend::Sparse => "sparse",
            Backend::SparsePar { .. } => "sparse-par",
            Backend::SetMatrix => "set-matrix",
        }
    }
}

/// One nonterminal of an answer: where its relation lives in the
/// closure, and its pair list once somebody has read it.
struct NtPairs {
    nt: Nt,
    pairs: OnceLock<Vec<(u32, u32)>>,
}

/// The part of an answer its clones share: the solved closure and the
/// pair lists extracted from it so far, keyed by nonterminal name.
struct View {
    closure: Arc<dyn Relation + Send + Sync>,
    relations: BTreeMap<String, NtPairs>,
}

impl View {
    /// `R_A` as sorted pairs, extracted from the closure on first read.
    fn pairs_of<'a>(&'a self, name: &str, relation: &'a NtPairs) -> &'a [(u32, u32)] {
        relation.pairs.get_or_init(|| {
            let mut sp = cfpq_obs::span("query.materialize");
            let pairs = self.closure.pairs(relation.nt);
            if sp.is_recording() {
                sp.attr_text("nt", name.to_owned());
                sp.attr_u64("pairs", pairs.len() as u64);
            }
            pairs
        })
    }
}

/// A relational answer: a lazy view over the solved closure — the
/// Boolean matrices `R_A` of Theorem 2, or the §5 length matrices of a
/// grammar a state also holds as a single-path query, whose support is
/// `R_A` — keyed by nonterminal *name* (names survive normalization;
/// synthesized CNF helpers appear under their generated names such as
/// `T<a>`).
///
/// The answer shares the closure it was evaluated from instead of
/// copying it out, and pays only for what is read:
///
/// * [`QueryAnswer::contains`] probes one bit of one matrix — O(log) in
///   the stored row or tile-row, O(1) on the dense engines; node ids
///   outside the graph are related to nothing;
/// * [`QueryAnswer::start_count`] counts set bits — O(stored words);
/// * [`QueryAnswer::pairs`], [`QueryAnswer::start_pairs`] and
///   [`QueryAnswer::relations`] extract a nonterminal's sorted pair list
///   on its first read — O(nnz) — and keep it, so later reads (from this
///   answer or any clone of it) are free. Under a `cfpq_obs` recorder
///   each extraction is one `"query.materialize"` span (attrs `nt`,
///   `pairs`).
///
/// An answer a caller holds keeps reading the relation it was evaluated
/// against: a session that repairs the closure afterwards does so
/// copy-on-write.
#[derive(Clone)]
pub struct QueryAnswer {
    /// Backend that produced the answer.
    pub backend: &'static str,
    /// Graph size |V|.
    pub n_nodes: usize,
    /// Fixpoint iterations.
    pub iterations: usize,
    /// Start nonterminal name of the query grammar.
    pub start: String,
    view: Arc<View>,
}

impl std::fmt::Debug for QueryAnswer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryAnswer")
            .field("backend", &self.backend)
            .field("n_nodes", &self.n_nodes)
            .field("iterations", &self.iterations)
            .field("start", &self.start)
            .finish_non_exhaustive()
    }
}

impl QueryAnswer {
    /// `R_A` for the named nonterminal, if it exists.
    pub fn pairs(&self, nt_name: &str) -> Option<&[(u32, u32)]> {
        self.view
            .relations
            .get_key_value(nt_name)
            .map(|(name, relation)| self.view.pairs_of(name, relation))
    }

    /// `R_S` for the start nonterminal.
    pub fn start_pairs(&self) -> &[(u32, u32)] {
        self.pairs(&self.start).unwrap_or(&[])
    }

    /// `|R_S|` — the `#results` column of Tables 1/2. Counted on the
    /// closure; extracts nothing.
    pub fn start_count(&self) -> usize {
        self.view
            .relations
            .get(&self.start)
            .map_or(0, |r| self.view.closure.count(r.nt))
    }

    /// True if `(i, j) ∈ R_A` for the named nonterminal. Probed on the
    /// closure; extracts nothing.
    pub fn contains(&self, nt_name: &str, i: u32, j: u32) -> bool {
        self.view
            .relations
            .get(nt_name)
            .is_some_and(|r| self.view.closure.contains(r.nt, i, j))
    }

    /// Iterates `(name, pairs)` for all nonterminals, in name order
    /// (extracting every relation not read before).
    pub fn relations(&self) -> impl Iterator<Item = (&str, &[(u32, u32)])> {
        self.view
            .relations
            .iter()
            .map(|(name, relation)| (name.as_str(), self.view.pairs_of(name, relation)))
    }

    /// The closure the answer views.
    pub(crate) fn relation(&self) -> &dyn Relation {
        &*self.view.closure
    }

    /// An answer over a copy of a solved relational index: the matrices
    /// are cloned (O(stored words)), no pair list is extracted. Callers
    /// that already hold the index behind an `Arc` share it instead
    /// through [`QueryAnswer::from_shared`].
    pub fn from_index<M: BoolMat>(
        backend: &'static str,
        wcnf: &Wcnf,
        index: &RelationalIndex<M>,
    ) -> Self {
        Self::from_shared(backend, wcnf, Arc::new(index.clone()))
    }

    /// An answer viewing a shared solved index, as a
    /// [`crate::session::GraphState`] cell hands one out: a repair of the
    /// cell's closure copies it only while such an answer still reads it.
    pub fn from_shared<M: BoolMat>(
        backend: &'static str,
        wcnf: &Wcnf,
        index: Arc<RelationalIndex<M>>,
    ) -> Self {
        Self::over(backend, wcnf, index)
    }

    /// An answer viewing any shared closure of `wcnf`.
    pub(crate) fn over(
        backend: &'static str,
        wcnf: &Wcnf,
        closure: Arc<dyn Relation + Send + Sync>,
    ) -> Self {
        let (n_nodes, iterations) = closure.extent();
        let relations = (0..wcnf.n_nts())
            .map(|i| {
                let nt = Nt(i as u32);
                let relation = NtPairs {
                    nt,
                    pairs: OnceLock::new(),
                };
                (wcnf.symbols.nt_name(nt).to_owned(), relation)
            })
            .collect();
        Self {
            backend,
            n_nodes,
            iterations,
            start: wcnf.symbols.nt_name(wcnf.start).to_owned(),
            view: Arc::new(View { closure, relations }),
        }
    }
}

/// Evaluates a context-free path query w.r.t. the relational semantics.
///
/// The grammar is normalized to weak CNF internally; `grammar.start`
/// (defaulting to the first rule's LHS) is the query's start nonterminal.
pub fn solve(graph: &Graph, grammar: &Cfg, backend: Backend) -> Result<QueryAnswer, GrammarError> {
    let wcnf = grammar.to_wcnf(CnfOptions::default())?;
    Ok(solve_wcnf(graph, &wcnf, backend))
}

/// Evaluates an already-normalized grammar.
///
/// Every matrix backend is served through a one-shot
/// [`CfpqSession`]: the graph is indexed
/// into per-label adjacency matrices, the (already normalized) grammar
/// becomes a prepared query, and one evaluation produces the answer —
/// exactly the path a long-lived session takes, so the one-shot and
/// many-query code cannot drift apart. Only the paper-literal
/// [`Backend::SetMatrix`] keeps its own direct path (it has no engine).
pub fn solve_wcnf(graph: &Graph, wcnf: &Wcnf, backend: Backend) -> QueryAnswer {
    match backend {
        Backend::Dense => one_shot(DenseEngine, graph, wcnf),
        Backend::DensePar { workers } => one_shot(
            ParDenseEngine::new(Parallelism::new(workers).device()),
            graph,
            wcnf,
        ),
        Backend::Sparse => one_shot(SparseEngine, graph, wcnf),
        Backend::SparsePar { workers } => one_shot(
            ParSparseEngine::new(Parallelism::new(workers).device()),
            graph,
            wcnf,
        ),
        Backend::SetMatrix => {
            // The paper-literal closure, its relations read into CSR.
            let (result, n) = (solve_set_matrix(graph, wcnf, false), graph.n_nodes());
            let relation = |a: usize| SparseEngine.from_pairs(n, &result.pairs(Nt(a as u32)));
            let index = RelationalIndex {
                matrices: (0..wcnf.n_nts()).map(relation).collect(),
                iterations: result.iterations,
                n_nodes: n,
                stats: SolveStats::default(),
            };
            QueryAnswer::from_shared(backend.name(), wcnf, Arc::new(index))
        }
    }
}

/// Builds a single-use session, prepares the query, evaluates it once.
/// The index builds only the labels this grammar reads.
fn one_shot<E: BoolEngine + cfpq_matrix::LenEngine>(
    engine: E,
    graph: &Graph,
    wcnf: &Wcnf,
) -> QueryAnswer {
    let mut session = CfpqSession::new(engine, graph);
    let id = session.prepare_query(PreparedQuery::from_wcnf(wcnf.clone()));
    session.evaluate(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpq_grammar::queries;
    use cfpq_graph::generators;

    const ALL_BACKENDS: &[Backend] = &[
        Backend::Dense,
        Backend::DensePar { workers: 2 },
        Backend::Sparse,
        Backend::SparsePar { workers: 2 },
        Backend::SetMatrix,
    ];

    #[test]
    fn paper_example_via_all_backends() {
        let grammar = queries::query1();
        let graph = generators::paper_example();
        for &backend in ALL_BACKENDS {
            let ans = solve(&graph, &grammar, backend).unwrap();
            assert_eq!(
                ans.start_pairs(),
                &[(0, 0), (0, 2), (1, 2)],
                "backend {}",
                backend.name()
            );
            assert_eq!(ans.start, "S");
            assert!(ans.contains("S", 0, 2));
            assert!(!ans.contains("S", 2, 0));
        }
    }

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(Backend::Dense.name(), "dense");
        assert_eq!(Backend::DensePar { workers: 0 }.name(), "dense-par");
        assert_eq!(Backend::Sparse.name(), "sparse");
        assert_eq!(Backend::SparsePar { workers: 4 }.name(), "sparse-par");
        assert_eq!(Backend::SetMatrix.name(), "set-matrix");
    }

    #[test]
    fn invalid_grammar_surfaces_error() {
        let graph = generators::chain(2, "a");
        let empty = Cfg::new();
        assert!(solve(&graph, &empty, Backend::Sparse).is_err());
    }

    #[test]
    fn relations_expose_helper_nonterminals() {
        let grammar = queries::query1();
        let graph = generators::paper_example();
        let ans = solve(&graph, &grammar, Backend::Sparse).unwrap();
        // Normalization introduces lifted terminal carriers such as
        // T<subClassOf_r>; they participate in the answer.
        let names: Vec<&str> = ans.relations().map(|(n, _)| n).collect();
        assert!(
            names.iter().any(|n| n.starts_with("T<")),
            "names: {names:?}"
        );
    }

    #[test]
    fn query2_on_subclass_chain() {
        // Chain c2 -subClassOf-> c1 -subClassOf-> c0 (plus inverses):
        // Q2 relates adjacent layers.
        let t = cfpq_graph::TripleSet::parse("c2 subClassOf c1\nc1 subClassOf c0\n").unwrap();
        let graph = t.to_graph();
        let ans = solve(&graph, &queries::query2(), Backend::Sparse).unwrap();
        // S -> subClassOf alone relates (c2,c1) and (c1,c0); the B-form
        // adds balanced up-down pairs ending one level down.
        assert!(ans.start_count() >= 2);
    }
}

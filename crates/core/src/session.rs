//! The engine layer for serving *many* queries over *one* evolving
//! graph: a persistent label-matrix index, prepared queries, and
//! incremental edge updates.
//!
//! Algorithm 1's setup phase decomposes the graph into one Boolean
//! adjacency matrix per edge label (lines 6–7). The one-shot facade
//! ([`crate::query::solve`]) used to redo that decomposition — plus the
//! grammar's CNF normalization — on every call. This module inverts the
//! call graph, following the "one algorithm to evaluate them all"
//! architecture (Shemetova et al., arXiv:2103.14688): the graph lives as
//! a persistent [`GraphIndex`], grammars are normalized once into
//! [`PreparedQuery`]s, and a [`CfpqSession`] evaluates any number of
//! prepared queries against the index, caching each query's closure.
//!
//! The index builds a label's matrix on its first read: a label no
//! prepared query reads costs only its pair list, 8 B an edge, and the
//! first read builds the matrix once for every clone that shares the
//! label.
//!
//! The payoff is incremental evaluation: [`CfpqSession::add_edges`]
//! inserts edges into the label matrices (via
//! [`BoolEngine::union_pairs`], or into an unread label's pair list,
//! growing the node universe when an edge names an unseen node id).
//! Clones of the index share the labels copy-on-write: a label is
//! copied on its first write while another clone holds it, and never
//! otherwise. On the next evaluation of a previously-solved query, the
//! session *repairs* the cached closure through
//! [`FixpointSolver::resume`] — the semi-naive Δ loop seeded with only
//! the new entries — instead of re-solving from scratch. On the
//! evaluation datasets this computes strictly fewer products than a cold
//! solve (asserted by this module's tests, measured by the `benchmark/`
//! workload `update-stream`).
//!
//! Sessions also speak the **unified compiled-query pipeline**:
//! [`CfpqSession::prepare_regular`] lowers an NFA-form RPQ (and
//! [`CfpqSession::prepare_rsm`] a CFG's RSM boxes) through
//! [`crate::compile::CompiledQuery`] into a state grammar this same
//! machinery evaluates — so regular queries get the cached closures,
//! semi-naive repair, and engine genericity for free, with the old
//! `solve_regular` surviving only as a differential oracle.
//!
//! Sessions serve the paper's other two semantics through the same
//! lifecycle. **Single-path (§5)**:
//! [`CfpqSession::prepare_single_path`] registers a grammar for
//! length-annotated evaluation, [`CfpqSession::evaluate_single_path`]
//! caches its length closure (cold-solved on the
//! [`cfpq_matrix::LenEngine`] kernels, repaired semi-naively after edge
//! updates), and witness extraction
//! ([`crate::single_path::extract_path`]) works unchanged on the cached
//! index. **All-path (§7)**: [`CfpqSession::enumerate_paths`] pages the
//! witnesses of a relational query, pruned by the very closure
//! [`CfpqSession::evaluate`] caches.
//!
//! There is one cached-closure lifecycle, not one per query kind or per
//! front: a [`GraphState`] holds the index, the prepared queries and one
//! closure cell per query (each kind of closure says only how it is
//! cold-solved and which algebra repairs it), and one closure per
//! grammar: a relational query whose grammar and options a single-path
//! query shares is served from that query's length closure. Either kind
//! is read relationally through one trait object,
//! [`crate::all_paths::Relation`]. A relational cell also
//! keeps what reads derive from the closure serving it — the shared
//! answer, the path enumerator, the source-restricted closure of
//! named-pair lookups — and empties them when the state absorbs a batch
//! of edges. A session drives one state inline and records each read's
//! [`RunInfo`]; a `cfpq-service` epoch is a state too, whose publish
//! repairs every closure before readers come.
//!
//! ```
//! use cfpq_core::session::CfpqSession;
//! use cfpq_grammar::Cfg;
//! use cfpq_graph::Graph;
//! use cfpq_matrix::SparseEngine;
//!
//! let mut graph = Graph::new(5);
//! graph.add_edge_named(0, "a", 1);
//! graph.add_edge_named(1, "a", 2);
//! graph.add_edge_named(2, "b", 3);
//! let mut session = CfpqSession::new(SparseEngine, &graph);
//! let q = session
//!     .prepare(&Cfg::parse("S -> a S b | a b").unwrap())
//!     .unwrap();
//! // Over the truncated chain only the inner `ab` matches.
//! assert_eq!(session.evaluate(q).start_pairs(), &[(1, 3)]);
//! // Complete the chain: a²b² now matches too, via an incremental
//! // repair of the cached closure rather than a cold re-solve.
//! session.add_edges(&[(3, "b", 4)]);
//! assert_eq!(session.evaluate(q).start_pairs(), &[(0, 4), (1, 3)]);
//! assert!(session.last_run(q).unwrap().incremental);
//! ```

use crate::all_paths::{PageRequest, PathPage};
use crate::query::QueryAnswer;
use crate::relational::{FixpointSolver, RelationalIndex, SolveStats, SourceClosure};
use crate::single_path::{SinglePathIndex, SinglePathSolver};
use cfpq_grammar::{Cfg, GrammarError};
use cfpq_graph::{Graph, NodeId};
use cfpq_matrix::{BoolEngine, LenEngine};
use cfpq_obs::SpanGuard;

#[cfg(doc)]
use crate::relational::SolveOptions;

pub use crate::index::{EdgeBatch, GraphIndex};
pub use crate::state::{CellRead, GraphState, PreparedQuery, QueryId, RunInfo, SinglePathId};

/// A multi-query evaluation session over one [`GraphIndex`]: prepare
/// grammars once, evaluate them many times, feed edges in between.
///
/// Evaluation is lazy and cached: the first [`CfpqSession::evaluate`] of
/// a query runs a cold solve seeded straight from the index's label
/// matrices; subsequent evaluations return the cached closure, unless
/// [`CfpqSession::add_edges`] grew the graph in between — then the
/// cached closure is *repaired* semi-naively from exactly the new edges
/// ([`FixpointSolver::resume`]), which on real workloads launches far
/// fewer matrix products than a cold solve. Single-path queries and the
/// path pages of a relational query go through the same lifecycle: the
/// session drives one [`GraphState`] inline and records each read.
#[derive(Clone)]
pub struct CfpqSession<E: BoolEngine + LenEngine> {
    state: GraphState<E>,
    /// The last run of each query of each kind, in handle order.
    rel: Vec<Option<RunInfo>>,
    sp: Vec<Option<RunInfo>>,
}

const UNREGISTERED: &str = "query not registered in this session";

/// Closes a read's `"session.evaluate"` span with its outcome. A read
/// that ran replaces the last run.
fn record(mut sp: SpanGuard, run: Option<RunInfo>, last_run: &mut Option<RunInfo>) {
    let outcome = match &run {
        None => "cached",
        Some(run) if run.incremental => "repair",
        Some(_) => "cold",
    };
    sp.attr_str("outcome", outcome);
    if run.is_some() {
        *last_run = run;
    }
}

/// Cold-solves a prepared (relational) query against an index: seed
/// matrices straight from the label matrices, then the fixpoint. This is
/// the one code path behind
/// [`CfpqSession::evaluate`]'s first call *and* every `cfpq-service`
/// epoch-cache miss.
pub fn solve_prepared<E: BoolEngine>(
    index: &GraphIndex<E>,
    query: &PreparedQuery,
) -> RelationalIndex<E::Matrix> {
    let wcnf = query.wcnf();
    FixpointSolver::new(&index.engine)
        .options(query.options)
        .solve_from_matrices(index.seed_matrices(wcnf), index.n_nodes, wcnf)
}

/// Solves a prepared query **from the given source nodes only**: the
/// rows of the context-free relations that `sources` reach, instead of
/// all `|V|` of them (see [`SourceClosure`] for the fixpoint). The work
/// is proportional to what is reachable from the sources, so this is the
/// path for point lookups; [`solve_prepared`] stays the path for whole
/// answers. Restricted evaluation honours the query's [`SolveOptions`].
///
/// ```
/// use cfpq_core::session::{extend_prepared_from, solve_prepared_from, GraphIndex, PreparedQuery};
/// use cfpq_grammar::Cfg;
/// use cfpq_graph::generators;
/// use cfpq_matrix::SparseEngine;
///
/// let graph = generators::word_chain(&["a", "a", "b", "b"]);
/// let index = GraphIndex::build(SparseEngine, &graph);
/// let query = PreparedQuery::new(&Cfg::parse("S -> a S b | a b").unwrap()).unwrap();
/// let s = query.wcnf().start;
/// // From node 1 only the inner `ab` is visible...
/// let mut closure = solve_prepared_from(&index, &query, &[1]);
/// assert_eq!(closure.pairs(s), vec![(1, 3)]);
/// // ...and asking for node 0 later extends the same closure.
/// extend_prepared_from(&index, &query, &mut closure, &[0]);
/// assert_eq!(closure.pairs(s), vec![(0, 4), (1, 3)]);
/// ```
pub fn solve_prepared_from<E: BoolEngine>(
    index: &GraphIndex<E>,
    query: &PreparedQuery,
    sources: &[u32],
) -> SourceClosure<E::Matrix> {
    let mut closure = SourceClosure::new(&index.engine, index.n_nodes, query.wcnf(), query.options);
    extend_prepared_from(index, query, &mut closure, sources);
    closure
}

/// Extends a closure made by [`solve_prepared_from`] — for the same
/// query against the same, unchanged index — to further `sources`,
/// keeping everything it has solved. Sources it already covers launch no
/// product. Returns the stats of the extension alone.
pub fn extend_prepared_from<E: BoolEngine>(
    index: &GraphIndex<E>,
    query: &PreparedQuery,
    closure: &mut SourceClosure<E::Matrix>,
    sources: &[u32],
) -> SolveStats {
    assert_eq!(
        closure.n_nodes(),
        index.n_nodes,
        "a source closure does not outlive a change of the graph"
    );
    let wcnf = query.wcnf();
    let mut terminals: Vec<Vec<&E::Matrix>> = vec![Vec::new(); wcnf.n_nts()];
    for (m, nts) in index.terminal_matrices(wcnf) {
        for nt in nts {
            terminals[nt.index()].push(m);
        }
    }
    closure.extend(&index.engine, &terminals, sources)
}

/// Cold-solves a prepared query under single-path (§5) semantics: the
/// length-1 seeds come straight from the label matrices, the masked
/// semi-naive length closure does the rest. The single code path behind
/// session and service single-path cache misses.
pub fn solve_prepared_single_path<E: BoolEngine + LenEngine>(
    index: &GraphIndex<E>,
    query: &PreparedQuery,
) -> SinglePathIndex<E::LenMatrix> {
    let wcnf = query.wcnf();
    SinglePathSolver::new(&index.engine)
        .options(query.options)
        .solve_from_matrices(index.seed_length_matrices(wcnf), index.n_nodes, wcnf)
}

impl<E: BoolEngine + LenEngine> CfpqSession<E> {
    /// Indexes `graph` on `engine` and opens a session over it.
    pub fn new(engine: E, graph: &Graph) -> Self {
        Self::over(GraphIndex::build(engine, graph))
    }

    /// Opens a session over an already-built index.
    pub fn over(index: GraphIndex<E>) -> Self {
        Self {
            state: GraphState::new(index),
            rel: Vec::new(),
            sp: Vec::new(),
        }
    }

    /// The underlying label-matrix index.
    pub fn index(&self) -> &GraphIndex<E> {
        self.state.index()
    }

    /// Normalizes `grammar` and registers it for evaluation.
    pub fn prepare(&mut self, grammar: &Cfg) -> Result<QueryId, GrammarError> {
        Ok(self.prepare_query(PreparedQuery::new(grammar)?))
    }

    /// Compiles an NFA-form regular path query onto the unified RSM
    /// pipeline ([`crate::compile::CompiledQuery::from_nfa`]) and
    /// registers it. The query evaluates through the same
    /// [`FixpointSolver`] path as every CFPQ — masked semi-naive sweeps
    /// against the index's materialized label matrices, cached closure,
    /// incremental repair after [`CfpqSession::add_edges`]. The answer's
    /// start relation (`Rpq`) holds exactly
    /// [`crate::regular::solve_regular`]'s pairs.
    ///
    /// ```
    /// use cfpq_core::regular::Nfa;
    /// use cfpq_core::session::CfpqSession;
    /// use cfpq_graph::Graph;
    /// use cfpq_matrix::SparseEngine;
    ///
    /// let mut graph = Graph::new(4);
    /// graph.add_edge_named(0, "a", 1);
    /// graph.add_edge_named(1, "a", 2);
    /// graph.add_edge_named(2, "b", 3);
    /// let mut session = CfpqSession::new(SparseEngine, &graph);
    /// let rpq = session.prepare_regular(&Nfa::star_then("a", "b")); // a* b
    /// assert_eq!(session.evaluate(rpq).start_pairs(), &[(0, 3), (1, 3), (2, 3)]);
    /// session.add_edges(&[(3, "a", 0)]);                            // graph grows
    /// assert_eq!(session.evaluate(rpq).start_count(), 4);           // + (3, 3), repaired
    /// assert!(session.last_run(rpq).unwrap().incremental);
    /// ```
    pub fn prepare_regular(&mut self, nfa: &crate::regular::Nfa) -> QueryId {
        self.prepare_query(crate::compile::CompiledQuery::from_nfa(nfa).into_prepared())
    }

    /// Compiles a context-free query through its RSM boxes
    /// ([`crate::compile::CompiledQuery::from_cfg`]) instead of the
    /// direct weak-CNF normalization, and registers it. Nullable
    /// nonterminals follow the RSM ε-convention (diagonal matches), as
    /// with `nullable_diagonal` on the [`CfpqSession::prepare`] path.
    pub fn prepare_rsm(&mut self, grammar: &Cfg) -> Result<QueryId, GrammarError> {
        Ok(self.prepare_query(crate::compile::CompiledQuery::from_cfg(grammar)?.into_prepared()))
    }

    /// Registers a fully-configured [`PreparedQuery`]. Solve it with
    /// `nullable_diagonal` enabled if the grammar has ε-rules and
    /// ε-witnesses should surface in [`CfpqSession::enumerate_paths`].
    pub fn prepare_query(&mut self, query: PreparedQuery) -> QueryId {
        let _sp = cfpq_obs::span("session.prepare");
        self.rel.push(None);
        self.state.prepare(query)
    }

    /// Inserts a batch of edges into the index (growing the node
    /// universe if an edge names an unseen node id); returns how many
    /// were genuinely new. Cached query closures are *not* recomputed
    /// here — each query repairs itself lazily on its next
    /// [`CfpqSession::evaluate`] / [`CfpqSession::evaluate_single_path`]
    /// / [`CfpqSession::enumerate_paths`] call, for every batch since in
    /// one resume.
    pub fn add_edges(&mut self, edges: &[(NodeId, &str, NodeId)]) -> usize {
        self.state.add_edges(edges)
    }

    /// Evaluates a prepared query against the current graph, reusing the
    /// cached closure when nothing changed and repairing it semi-naively
    /// when edges arrived since the last evaluation.
    ///
    /// The returned [`QueryAnswer`] is a lazy view sharing that closure
    /// (see its docs for what each read costs). It is isolated from
    /// later updates: while an answer is alive, the next repair works on
    /// a copy of the closure (`Arc::make_mut`); once every answer is
    /// dropped, repairs are in place again.
    ///
    /// # Panics
    ///
    /// If `id` does not belong to this session.
    pub fn evaluate(&mut self, id: QueryId) -> QueryAnswer {
        let sp = cfpq_obs::span("session.evaluate");
        let (answer, run) = self.state.evaluate(id).expect(UNREGISTERED);
        record(sp, run, self.run_of(id));
        answer
    }

    /// Where a run of relational query `id` is recorded: on the handle
    /// that owns the closure it ran on, its single-path twin if it has
    /// one.
    fn run_of(&mut self, id: QueryId) -> &mut Option<RunInfo> {
        match self.state.twin(id) {
            Some(twin) => &mut self.sp[twin.0],
            None => &mut self.rel[id.0],
        }
    }

    /// What the last [`CfpqSession::evaluate`] or
    /// [`CfpqSession::enumerate_paths`] of this query that ran a solve or
    /// a repair of its closure did (cold vs incremental, and its
    /// kernel-work counters); hits leave it as it was. `None` until the
    /// first such read.
    ///
    /// A run is recorded on the handle that owns the closure it ran on.
    /// A query linked to a single-path query of the same grammar (see
    /// [`GraphState`]) has no closure of its own: its reads solve and
    /// repair that query's length closure, those runs are recorded as
    /// the single-path query's ([`CfpqSession::last_single_path_run`]),
    /// and the single-path read that follows a repair is a hit. So
    /// `last_run` of a linked query stays as it was before the link, and
    /// the products summed over every handle's runs are the kernel work
    /// launched: Boolean products on relational handles, length products
    /// on single-path ones.
    pub fn last_run(&self, id: QueryId) -> Option<&RunInfo> {
        self.rel.get(id.0)?.as_ref()
    }

    /// Streams one page of distinct witness paths for the query's start
    /// nonterminal between `from` and `to`, in (length, lexicographic)
    /// order — see [`crate::all_paths::PathEnumerator::page`].
    ///
    /// The closure [`CfpqSession::evaluate`] caches is the pruning
    /// oracle: whichever of the two is called first solves it, the other
    /// finds it. The memoized enumeration tables are kept in its cell:
    /// on a quiet graph, consecutive pages (or other endpoint pairs) keep
    /// extending them; [`CfpqSession::add_edges`] drops them with the
    /// batch, the next call of either kind repairs the closure, and the
    /// tables are rebuilt — so a repaired session serves exactly the
    /// pages a from-scratch session would.
    ///
    /// # Panics
    ///
    /// If `id` does not belong to this session.
    pub fn enumerate_paths(
        &mut self,
        id: QueryId,
        from: NodeId,
        to: NodeId,
        page: PageRequest,
    ) -> PathPage {
        let sp = cfpq_obs::span("session.evaluate");
        let index = self.state.index();
        let (page, run) = self
            .state
            .paths(id, |paths, (query, closure, run)| {
                let page = paths.page(index, closure, query.wcnf().start, from, to, page);
                (page, run)
            })
            .expect(UNREGISTERED);
        record(sp, run, self.run_of(id));
        page
    }

    /// Normalizes `grammar` and registers it for single-path (§5)
    /// evaluation: the session will keep a length-annotated closure for
    /// it, cold-solved once and repaired incrementally after
    /// [`CfpqSession::add_edges`].
    pub fn prepare_single_path(&mut self, grammar: &Cfg) -> Result<SinglePathId, GrammarError> {
        Ok(self.prepare_single_path_query(PreparedQuery::new(grammar)?))
    }

    /// Registers a fully-configured [`PreparedQuery`] for single-path
    /// evaluation ([`SolveOptions`] apply as usual). A relational query
    /// of the same grammar and options, prepared before or after, is
    /// then served from this query's length closure (see [`GraphState`]).
    pub fn prepare_single_path_query(&mut self, query: PreparedQuery) -> SinglePathId {
        self.sp.push(None);
        self.state.prepare_single_path(query)
    }

    /// Evaluates a prepared single-path query: the first call runs a
    /// cold length closure seeded straight from the label matrices;
    /// subsequent calls return the cached closure, repairing it through
    /// [`SinglePathSolver::resume`] when edges arrived in between —
    /// first-write-wins means entries that survive an update keep their
    /// recorded witness lengths, so only genuinely new information
    /// launches length kernels. Witness extraction
    /// ([`crate::single_path::extract_path`]) works unchanged on the
    /// returned index.
    ///
    /// # Panics
    ///
    /// If `id` does not belong to this session.
    pub fn evaluate_single_path(&mut self, id: SinglePathId) -> &SinglePathIndex<E::LenMatrix> {
        let sp = cfpq_obs::span("session.evaluate");
        let (_, solved, run) = self.state.evaluate_single_path(id).expect(UNREGISTERED);
        record(sp, run, &mut self.sp[id.0]);
        solved
    }

    /// The solved single-path index of a query as of its last
    /// evaluation, without forcing one: `None` before the first, and
    /// after [`CfpqSession::add_edges`] until the next read repairs it.
    pub fn single_path_index(&self, id: SinglePathId) -> Option<&SinglePathIndex<E::LenMatrix>> {
        self.state.solved_single_path(id).map(|solved| &**solved)
    }

    /// What the last read that ran a solve or a repair of this query's
    /// length closure did: a [`CfpqSession::evaluate_single_path`] of
    /// it, or a read of a relational query linked to it (see
    /// [`CfpqSession::last_run`]). `None` until the first such read.
    pub fn last_single_path_run(&self, id: SinglePathId) -> Option<&RunInfo> {
        self.sp.get(id.0)?.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{solve, Backend};
    use crate::relational::SolveOptions;
    use crate::state::{Cell, Cells};
    use cfpq_grammar::queries;
    use cfpq_graph::generators;
    use cfpq_matrix::{
        DenseEngine, Device, ParDenseEngine, ParSparseEngine, SparseEngine, TiledEngine,
    };
    use std::sync::Arc;

    /// How many edge batches each cell of `cells` waits for.
    fn pending<C, D>(cells: &Cells<C, D>) -> Vec<usize> {
        let stale =
            |cell: &Cell<C, D>| cell.stale.lock().unwrap().as_ref().map_or(0, |s| s.1.len());
        cells.iter().map(stale).collect()
    }

    #[test]
    fn session_matches_one_shot_solve() {
        let grammar = queries::query1();
        let graph = generators::paper_example();
        let reference = solve(&graph, &grammar, Backend::Sparse).unwrap();
        let mut session = CfpqSession::new(SparseEngine, &graph);
        let id = session.prepare(&grammar).unwrap();
        let answer = session.evaluate(id);
        assert_eq!(answer.start_pairs(), reference.start_pairs());
        assert_eq!(answer.iterations, reference.iterations);
        assert_eq!(answer.backend, "sparse");
        assert!(!session.last_run(id).unwrap().incremental);
    }

    #[test]
    fn read_accessors_answer_none_for_handles_of_another_session() {
        // A handle minted by a session that prepared more queries is out
        // of range here; the `Option` accessors must say so, and so must
        // the state's reads, which a service turns into a typed error.
        let grammar = queries::query1();
        let graph = generators::paper_example();
        let mut big = CfpqSession::new(SparseEngine, &graph);
        big.prepare(&grammar).unwrap();
        big.prepare_single_path(&grammar).unwrap();
        let q = big.prepare(&grammar).unwrap();
        let sp = big.prepare_single_path(&grammar).unwrap();

        let mut small = CfpqSession::new(SparseEngine, &graph);
        small.prepare(&grammar).unwrap();
        small.prepare_single_path(&grammar).unwrap();
        assert!(!small.state.is_solved(q));
        assert!(small.last_run(q).is_none());
        assert!(small.single_path_index(sp).is_none());
        assert!(small.last_single_path_run(sp).is_none());
        assert!(small.state.query(q).is_none());
        assert!(small.state.evaluate(q).is_none());
        assert!(small.state.evaluate_single_path(sp).is_none());
        assert_eq!((q.index(), small.state.n_queries()), (1, 1));
    }

    #[test]
    fn one_index_serves_many_queries() {
        let graph = cfpq_graph::ontology::dataset("skos").unwrap().to_graph();
        let mut session = CfpqSession::new(SparseEngine, &graph);
        let q1 = session.prepare(&queries::query1()).unwrap();
        let q2 = session.prepare(&queries::query2()).unwrap();
        let a1 = session.evaluate(q1);
        let a2 = session.evaluate(q2);
        assert_eq!(
            a1.start_count(),
            solve(&graph, &queries::query1(), Backend::Sparse)
                .unwrap()
                .start_count()
        );
        assert_eq!(
            a2.start_count(),
            solve(&graph, &queries::query2(), Backend::Sparse)
                .unwrap()
                .start_count()
        );
        // Re-evaluating without updates reuses the cache: the run info
        // still describes the original cold solve.
        let again = session.evaluate(q1);
        assert_eq!(again.start_pairs(), a1.start_pairs());
        assert!(!session.last_run(q1).unwrap().incremental);
    }

    #[test]
    fn add_edges_repairs_instead_of_resolving() {
        // Build the paper graph minus one edge, solve, then insert the
        // missing edge: the repaired answer must equal the full-graph
        // answer, at lower product cost than the full cold solve.
        let grammar = queries::query1();
        let full = generators::paper_example();
        let mut partial = Graph::new(full.n_nodes());
        let removed = *full.edges().last().unwrap();
        for e in full.edges().iter().take(full.n_edges() - 1) {
            partial.add_edge_named(e.from, full.label_name(e.label), e.to);
        }
        let mut session = CfpqSession::new(SparseEngine, &partial);
        let id = session.prepare(&grammar).unwrap();
        session.evaluate(id);

        let inserted =
            session.add_edges(&[(removed.from, full.label_name(removed.label), removed.to)]);
        assert_eq!(inserted, 1);
        let repaired = session.evaluate(id);
        assert_eq!(repaired.start_pairs(), &[(0, 0), (0, 2), (1, 2)]);

        let run = session.last_run(id).unwrap();
        assert!(run.incremental);
        let mut cold_session = CfpqSession::new(SparseEngine, &full);
        let cold_id = cold_session.prepare(&grammar).unwrap();
        let cold = cold_session.evaluate(cold_id);
        assert_eq!(repaired.start_pairs(), cold.start_pairs());
        let cold_run = cold_session.last_run(cold_id).unwrap();
        assert!(
            run.stats.products_computed < cold_run.stats.products_computed,
            "repair {} vs cold {}",
            run.stats.products_computed,
            cold_run.stats.products_computed
        );
    }

    #[test]
    fn a_repair_works_in_place_unless_a_caller_holds_an_answer() {
        let grammar = Cfg::parse("S -> a S b | a b").unwrap();
        let graph = generators::word_chain(&["a", "a", "b"]);
        let mut session = CfpqSession::new(SparseEngine, &graph);
        let id = session.prepare(&grammar).unwrap();
        let closure = |s: &CfpqSession<SparseEngine>| {
            Arc::as_ptr(s.state.rel.get(id.0).unwrap().solved.get().unwrap())
        };
        assert_eq!(session.evaluate(id).start_pairs(), &[(1, 3)]);
        let solved = closure(&session);
        // The cell's own answer goes with the batch, so with none held
        // by the caller the repair finds the closure unshared.
        session.add_edges(&[(3, "b", 4)]);
        assert_eq!(session.evaluate(id).start_pairs(), &[(0, 4), (1, 3)]);
        assert!(session.last_run(id).unwrap().incremental);
        assert_eq!(closure(&session), solved, "repaired in place");
        // A held answer keeps the closure it was read from: the repair
        // copies, and the answer still reads the pairs before the batch.
        let held = session.evaluate(id);
        session.add_edges(&[(2, "b", 5)]);
        let repaired = session.evaluate(id);
        assert!(session.last_run(id).unwrap().incremental);
        assert_ne!(closure(&session), solved, "repaired on a copy");
        assert_eq!(repaired.start_pairs(), &[(0, 4), (1, 3), (1, 5)]);
        assert_eq!(held.start_pairs(), &[(0, 4), (1, 3)]);
    }

    #[test]
    fn duplicate_and_unknown_label_edges_are_harmless() {
        let grammar = queries::query1();
        let graph = generators::paper_example();
        let mut session = CfpqSession::new(DenseEngine, &graph);
        let id = session.prepare(&grammar).unwrap();
        let before = session.evaluate(id);
        // A duplicate of an existing edge and an edge on a label the
        // grammar never mentions: neither changes the answer.
        let e = graph.edges()[0];
        assert_eq!(
            session.add_edges(&[(e.from, graph.label_name(e.label), e.to)]),
            0
        );
        assert_eq!(session.add_edges(&[(0, "unrelated", 2)]), 1);
        let after = session.evaluate(id);
        assert_eq!(after.start_pairs(), before.start_pairs());
        assert_eq!(session.index().n_edges(), graph.n_edges() + 1);
    }

    #[test]
    fn incremental_works_on_all_engines() {
        let grammar = cfpq_grammar::Cfg::parse("S -> a S b | a b").unwrap();
        let chain = generators::word_chain(&["a", "a", "b", "b"]);
        let expect = solve(&chain, &grammar, Backend::Sparse).unwrap();

        fn check<E: BoolEngine + LenEngine>(
            engine: E,
            chain: &Graph,
            grammar: &cfpq_grammar::Cfg,
        ) -> Vec<(u32, u32)> {
            let mut partial = Graph::new(chain.n_nodes());
            for e in chain.edges().iter().take(2) {
                partial.add_edge_named(e.from, chain.label_name(e.label), e.to);
            }
            let mut session = CfpqSession::new(engine, &partial);
            let id = session.prepare(grammar).unwrap();
            session.evaluate(id);
            for e in chain.edges().iter().skip(2) {
                session.add_edges(&[(e.from, chain.label_name(e.label), e.to)]);
            }
            session.evaluate(id).start_pairs().to_vec()
        }

        assert_eq!(check(DenseEngine, &chain, &grammar), expect.start_pairs());
        assert_eq!(check(SparseEngine, &chain, &grammar), expect.start_pairs());
        assert_eq!(
            check(ParDenseEngine::new(Device::new(2)), &chain, &grammar),
            expect.start_pairs()
        );
        assert_eq!(
            check(ParSparseEngine::new(Device::new(3)), &chain, &grammar),
            expect.start_pairs()
        );
        assert_eq!(
            check(TiledEngine::new(Device::new(2)), &chain, &grammar),
            expect.start_pairs()
        );
    }

    #[test]
    fn nullable_diagonal_respected_in_sessions() {
        let grammar = cfpq_grammar::Cfg::parse("S -> a S | eps").unwrap();
        let graph = generators::chain(2, "a");
        let mut session = CfpqSession::new(SparseEngine, &graph);
        let id =
            session.prepare_query(PreparedQuery::new(&grammar).unwrap().options(SolveOptions {
                nullable_diagonal: true,
            }));
        let answer = session.evaluate(id);
        assert_eq!(
            answer.start_pairs(),
            &[(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
        );
    }

    #[test]
    fn pending_batches_coalesce_into_one_repair() {
        // A cell keeps the batches its closure has not absorbed, and no
        // others: the next read repairs for all of them in one run.
        let grammar = cfpq_grammar::Cfg::parse("S -> a S b | a b").unwrap();
        let chain = generators::word_chain(&["a", "a", "b", "b"]);
        let mut partial = Graph::new(chain.n_nodes());
        for e in chain.edges().iter().take(1) {
            partial.add_edge_named(e.from, chain.label_name(e.label), e.to);
        }
        let mut session = CfpqSession::new(SparseEngine, &partial);
        let id = session.prepare(&grammar).unwrap();
        // Batches before the first solve are not even kept: the cold
        // solve reads the index directly.
        let e = &chain.edges()[1];
        session.add_edges(&[(e.from, chain.label_name(e.label), e.to)]);
        assert_eq!(
            pending(&session.state.rel),
            [0],
            "no solved query, none kept"
        );
        session.evaluate(id);
        // Kept while pending, dropped by the read that repairs.
        for e in chain.edges().iter().skip(2) {
            session.add_edges(&[(e.from, chain.label_name(e.label), e.to)]);
        }
        assert_eq!(pending(&session.state.rel), [2]);
        let answer = session.evaluate(id);
        assert_eq!(
            pending(&session.state.rel),
            [0],
            "absorbed batches are dropped"
        );
        assert!(
            session.last_run(id).unwrap().incremental,
            "one repair for both"
        );
        let scratch = solve(&chain, &grammar, Backend::Sparse).unwrap();
        assert_eq!(answer.start_pairs(), scratch.start_pairs());
    }

    #[test]
    fn unseen_node_ids_grow_the_index() {
        // The PR-4 regression: an edge naming a node id ≥ n_nodes used to
        // hit an assert!; it now widens the matrices and participates in
        // query answers like any other edge.
        let grammar = cfpq_grammar::Cfg::parse("S -> a S b | a b").unwrap();
        let chain = generators::word_chain(&["a", "a", "b", "b"]);
        let mut truncated = Graph::new(4);
        for e in chain.edges().iter().take(3) {
            truncated.add_edge_named(e.from, chain.label_name(e.label), e.to);
        }
        for engine_run in 0..2 {
            let mut session = CfpqSession::new(SparseEngine, &truncated);
            let id = session.prepare(&grammar).unwrap();
            if engine_run == 1 {
                // Also exercise the repair path: solve before growing.
                session.evaluate(id);
            }
            assert_eq!(session.index().n_nodes(), 4);
            // Node 4 is unseen: the final b-edge grows the universe.
            assert_eq!(session.add_edges(&[(3, "b", 4)]), 1);
            assert_eq!(session.index().n_nodes(), 5);
            let answer = session.evaluate(id);
            assert_eq!(answer.start_pairs(), &[(0, 4), (1, 3)]);
            assert_eq!(
                session.last_run(id).unwrap().incremental,
                engine_run == 1,
                "growth repairs a solved closure, cold-solves an unsolved one"
            );
        }
        // Dense engines rebuild at the wider word stride.
        let mut dense = CfpqSession::new(DenseEngine, &truncated);
        let id = dense.prepare(&grammar).unwrap();
        dense.evaluate(id);
        // Grow far enough to change the dense words-per-row.
        assert_eq!(dense.add_edges(&[(3, "b", 4), (4, "a", 99)]), 2);
        assert_eq!(dense.index().n_nodes(), 100);
        assert_eq!(dense.evaluate(id).start_pairs(), &[(0, 4), (1, 3)]);
    }

    #[test]
    fn growth_seeds_the_nullable_diagonal_of_new_nodes() {
        let grammar = cfpq_grammar::Cfg::parse("S -> a S | eps").unwrap();
        let graph = generators::chain(1, "a");
        let mut session = CfpqSession::new(SparseEngine, &graph);
        let id =
            session.prepare_query(PreparedQuery::new(&grammar).unwrap().options(SolveOptions {
                nullable_diagonal: true,
            }));
        session.evaluate(id);
        session.add_edges(&[(1, "a", 2)]);
        let answer = session.evaluate(id);
        assert_eq!(
            answer.start_pairs(),
            &[(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)],
            "new node 2 gets its ε-diagonal entry"
        );
    }

    #[test]
    fn single_path_session_matches_one_shot_solver() {
        use crate::single_path::{extract_path, validate_witness, SinglePathSolver};
        let grammar = queries::query1();
        let wcnf = grammar
            .to_wcnf(cfpq_grammar::cnf::CnfOptions::default())
            .unwrap();
        let graph = generators::paper_example();
        let reference = SinglePathSolver::new(&SparseEngine).solve(&graph, &wcnf);
        let mut session = CfpqSession::new(SparseEngine, &graph);
        let id = session.prepare_single_path(&grammar).unwrap();
        let idx = session.evaluate_single_path(id);
        for nt in 0..wcnf.n_nts() {
            let nt = cfpq_grammar::Nt(nt as u32);
            assert_eq!(idx.pairs(nt), reference.pairs(nt));
        }
        // Witness extraction works unchanged on the session's index.
        let s = wcnf.symbols.get_nt("S").unwrap();
        for (i, j, len) in idx.pairs_with_lengths(s) {
            let path = extract_path(idx, &graph, &wcnf, s, i, j).unwrap();
            assert_eq!(path.len() as u32, len);
            assert!(validate_witness(&path, &graph, &wcnf, s, i, j));
        }
        assert!(!session.last_single_path_run(id).unwrap().incremental);
    }

    #[test]
    fn single_path_add_edges_repairs_with_fewer_products() {
        use crate::single_path::{extract_path, validate_witness, SinglePathSolver};
        let grammar = cfpq_grammar::Cfg::parse("S -> a S b | a b").unwrap();
        let wcnf = grammar
            .to_wcnf(cfpq_grammar::cnf::CnfOptions::default())
            .unwrap();
        let chain = generators::word_chain(&["a", "a", "b", "b"]);
        let mut partial = Graph::new(chain.n_nodes());
        for e in chain.edges().iter().take(3) {
            partial.add_edge_named(e.from, chain.label_name(e.label), e.to);
        }
        let mut session = CfpqSession::new(SparseEngine, &partial);
        let id = session.prepare_single_path(&grammar).unwrap();
        session.evaluate_single_path(id);

        session.add_edges(&[(3, "b", 4)]);
        let cold = SinglePathSolver::new(&SparseEngine).solve(&chain, &wcnf);
        let idx = session.evaluate_single_path(id);
        for nt in 0..wcnf.n_nts() {
            let nt = cfpq_grammar::Nt(nt as u32);
            assert_eq!(idx.pairs(nt), cold.pairs(nt), "repaired == from-scratch");
        }
        let s = wcnf.symbols.get_nt("S").unwrap();
        let path = extract_path(idx, &chain, &wcnf, s, 0, 4).unwrap();
        assert!(validate_witness(&path, &chain, &wcnf, s, 0, 4));
        let run = session.last_single_path_run(id).unwrap();
        assert!(run.incremental);
        assert!(
            run.stats.products_computed < cold.stats.products_computed,
            "repair {} vs cold {}",
            run.stats.products_computed,
            cold.stats.products_computed
        );
    }

    #[test]
    fn single_path_repair_handles_growth_and_nullable_diagonal() {
        let grammar = cfpq_grammar::Cfg::parse("S -> a S | eps").unwrap();
        let graph = generators::chain(1, "a");
        let mut session = CfpqSession::new(DenseEngine, &graph);
        let id = session.prepare_single_path_query(PreparedQuery::new(&grammar).unwrap().options(
            SolveOptions {
                nullable_diagonal: true,
            },
        ));
        session.evaluate_single_path(id);
        // Node 2 is unseen: the repair must widen the cached length
        // matrices and seed the new ε-diagonal cell.
        session.add_edges(&[(1, "a", 2)]);
        let idx = session.evaluate_single_path(id);
        let s = grammar.start.unwrap();
        assert_eq!(
            idx.pairs(s),
            vec![(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
        );
        assert_eq!(idx.length(s, 2, 2), Some(0), "new node's ε-witness");
        assert_eq!(idx.length(s, 0, 2), Some(2));
    }

    #[test]
    fn relational_and_single_path_queries_share_one_session() {
        let graph = generators::paper_example();
        let mut session = CfpqSession::new(SparseEngine, &graph);
        let rel = session.prepare(&queries::query1()).unwrap();
        let sp = session.prepare_single_path(&queries::query1()).unwrap();
        let start = session.state.sp.get(sp.0).unwrap().query.wcnf().start;
        let answer = session.evaluate(rel);
        assert_eq!(
            answer.start_pairs(),
            session.evaluate_single_path(sp).pairs(start)
        );
        // One closure serves both: an update is repaired once, by the
        // first read of either, and the other read hits.
        session.add_edges(&[(1, "subClassOf", 0)]);
        let answer = session.evaluate(rel);
        assert_eq!(
            pending(&session.state.sp),
            [0],
            "repaired by the relational read"
        );
        let run = session.last_single_path_run(sp).unwrap().clone();
        assert!(run.incremental, "recorded on the closure's own handle");
        assert!(session.last_run(rel).is_none());
        let pairs = session.evaluate_single_path(sp).pairs(start);
        assert_eq!(answer.start_pairs(), pairs);
        let hit = &session.last_single_path_run(sp).unwrap().stats;
        assert_eq!(*hit, run.stats, "a hit");
        assert!(session.state.rel.get(rel.0).unwrap().solved.get().is_none());
    }

    #[test]
    fn a_boolean_closure_solved_before_the_link_goes_with_the_next_batch() {
        let graph = generators::paper_example();
        let mut session = CfpqSession::new(SparseEngine, &graph);
        let other = session.prepare(&queries::query2()).unwrap();
        let rel = session.prepare(&queries::query1()).unwrap();
        let before = session.evaluate(rel).start_pairs().to_vec();
        session.evaluate(other);
        let boolean = |s: &CfpqSession<SparseEngine>| {
            let cell = s.state.rel.get(rel.0).unwrap();
            (
                cell.solved.get().is_some(),
                cell.stale.lock().unwrap().is_some(),
            )
        };
        assert_eq!(boolean(&session), (true, false));
        // Prepared later, the single-path query serves Q1 from now on.
        let sp = session.prepare_single_path(&queries::query1()).unwrap();
        assert_eq!(
            (session.state.twin(rel), session.state.twin(other)),
            (Some(sp), None)
        );
        assert!(!session.state.is_solved(rel), "its twin is not solved yet");
        assert_eq!(session.evaluate(rel).start_pairs(), before);
        assert!(session.state.is_solved(rel));
        assert!(!session.last_single_path_run(sp).unwrap().incremental);
        // The batch drops the Boolean closure instead of keeping it to
        // repair; a grammar with no twin keeps its own.
        session.add_edges(&[(1, "subClassOf", 0)]);
        assert_eq!(boolean(&session), (false, false));
        assert_eq!(pending(&session.state.rel), [1, 0]);
        let answer = session.evaluate(rel);
        assert!(session.last_single_path_run(sp).unwrap().incremental);
        let mut grown = graph.clone();
        grown.add_edge_named(1, "subClassOf", 0);
        let scratch = solve(&grown, &queries::query1(), Backend::Sparse).unwrap();
        assert_eq!(answer.start_pairs(), scratch.start_pairs());
    }

    #[test]
    fn all_paths_session_repairs_and_matches_from_scratch() {
        let grammar = Cfg::parse("S -> a S b | a b").unwrap();
        let mut graph = Graph::new(5);
        graph.add_edge_named(0, "a", 1);
        graph.add_edge_named(1, "a", 2);
        graph.add_edge_named(2, "b", 3);
        let mut session = CfpqSession::new(SparseEngine, &graph);
        let q = session.prepare(&grammar).unwrap();
        // Truncated chain: only the inner `ab` span has a witness.
        let page = session.enumerate_paths(q, 1, 3, PageRequest::default());
        assert_eq!(page.paths.len(), 1);
        assert!(page.exhausted);
        assert!(!session.last_run(q).unwrap().incremental);
        // Complete the chain: the closure repairs, the tables rebuild.
        session.add_edges(&[(3, "b", 4)]);
        let outer = session.enumerate_paths(q, 0, 4, PageRequest::default());
        assert!(session.last_run(q).unwrap().incremental);
        assert_eq!(outer.paths.len(), 1);
        assert_eq!(outer.paths[0].len(), 4);
        // A from-scratch session over the final graph serves the same
        // page — repair must not change what is enumerated.
        let mut full = Graph::new(5);
        for (f, l, t) in [(0, "a", 1), (1, "a", 2), (2, "b", 3), (3, "b", 4)] {
            full.add_edge_named(f, l, t);
        }
        let mut fresh = CfpqSession::new(SparseEngine, &full);
        let q2 = fresh.prepare(&grammar).unwrap();
        assert_eq!(
            fresh.enumerate_paths(q2, 0, 4, PageRequest::default()),
            outer
        );
        // The closure absorbed the batch.
        assert_eq!(pending(&session.state.rel), [0]);
    }

    #[test]
    fn answers_and_path_pages_share_one_closure() {
        // a^n b^n around two self-loops: infinitely many witnesses at
        // (0, 0), so pages are worth memoizing.
        let grammar = Cfg::parse("S -> a S b | a b").unwrap();
        let mut graph = Graph::new(2);
        graph.add_edge_named(0, "a", 0);
        graph.add_edge_named(0, "b", 0);
        let mut session = CfpqSession::new(SparseEngine, &graph);
        let q = session.prepare(&grammar).unwrap();
        let page_at = |offset| PageRequest {
            offset,
            limit: 2,
            max_len: 12,
        };

        // Evaluate, then page: the page finds the closure solved.
        assert_eq!(session.evaluate(q).start_pairs(), &[(0, 0)]);
        let cold = session.last_run(q).unwrap().clone();
        assert!(!cold.incremental);
        let first = session.enumerate_paths(q, 0, 0, page_at(0));
        assert_eq!(first.paths.len(), 2);
        let run = session.last_run(q).unwrap();
        assert!(!run.incremental, "no second solve, no repair");
        assert_eq!(run.stats, cold.stats, "the first page launched no kernel");
        // The next page extends the same tables.
        let classes = |s: &CfpqSession<SparseEngine>| s.state.paths(q, |p, _| p.n_classes());
        let after_first = classes(&session).unwrap();
        assert!(after_first > 0, "kept in the closure's cell");
        session.enumerate_paths(q, 0, 0, page_at(2));
        assert!(
            classes(&session).unwrap() > after_first,
            "same tables, grown"
        );

        // A batch between pages drops them: the next page is the one a
        // from-scratch session over the grown graph serves (the stale
        // tables hold one witness per length, the grown graph has more).
        session.add_edges(&[(0, "a", 1), (1, "b", 0)]);
        let repaired = session.enumerate_paths(q, 0, 0, page_at(2));
        assert!(session.last_run(q).unwrap().incremental);
        graph.add_edge_named(0, "a", 1);
        graph.add_edge_named(1, "b", 0);
        let mut fresh = CfpqSession::new(SparseEngine, &graph);
        let q2 = fresh.prepare(&grammar).unwrap();
        assert_eq!(fresh.enumerate_paths(q2, 0, 0, page_at(2)), repaired);
        // And paging first leaves the closure for `evaluate`.
        assert_eq!(fresh.evaluate(q2).start_pairs(), &[(0, 0)]);
        assert!(!fresh.last_run(q2).unwrap().incremental);
    }

    #[test]
    fn regular_queries_ride_the_session_pipeline() {
        use crate::regular::{solve_regular, Nfa};
        // Truncated a*b graph: solve, then extend and check the repair
        // path serves exactly what the oracle computes from scratch.
        let mut graph = Graph::new(4);
        graph.add_edge_named(0, "a", 1);
        graph.add_edge_named(1, "a", 2);
        graph.add_edge_named(2, "b", 3);
        let nfa = Nfa::star_then("a", "b");
        let mut session = CfpqSession::new(SparseEngine, &graph);
        let id = session.prepare_regular(&nfa);
        let answer = session.evaluate(id);
        assert_eq!(
            answer.start_pairs(),
            solve_regular(&SparseEngine, &graph, &nfa).pairs()
        );
        let run = session.last_run(id).unwrap();
        assert!(!run.incremental);
        assert!(run.stats.products_computed > 0, "SolveStats populated");

        // New edge (and a new node): the cached closure repairs.
        session.add_edges(&[(0, "b", 4)]);
        let mut grown = Graph::new(5);
        for e in graph.edges() {
            grown.add_edge_named(e.from, graph.label_name(e.label), e.to);
        }
        grown.add_edge_named(0, "b", 4);
        let repaired = session.evaluate(id);
        assert_eq!(
            repaired.start_pairs(),
            solve_regular(&SparseEngine, &grown, &nfa).pairs()
        );
        assert!(session.last_run(id).unwrap().incremental);
    }

    #[test]
    fn rsm_prepared_cfpq_matches_wcnf_path() {
        let grammar = Cfg::parse("S -> a S b | a b").unwrap();
        let graph = generators::word_chain(&["a", "a", "b", "b"]);
        let mut session = CfpqSession::new(SparseEngine, &graph);
        let rsm_id = session.prepare_rsm(&grammar).unwrap();
        let cnf_id = session.prepare(&grammar).unwrap();
        let rsm_answer = session.evaluate(rsm_id);
        let cnf_answer = session.evaluate(cnf_id);
        assert_eq!(
            rsm_answer.pairs("S").unwrap(),
            cnf_answer.start_pairs(),
            "RSM-form and WCNF-form CFPQ agree on the start relation"
        );
    }
}

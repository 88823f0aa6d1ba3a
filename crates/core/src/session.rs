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
//! The payoff is incremental evaluation: [`CfpqSession::add_edges`]
//! inserts edges into the label matrices in place (via
//! [`BoolEngine::union_pairs`], growing the node universe when an edge
//! names an unseen node id) and, on the next evaluation of a
//! previously-solved query, *repairs* the cached closure through
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
//! There is one cached-closure lifecycle, not one per query kind:
//! [`CachedClosure`] says how a kind of closure is cold-solved and
//! repaired, and one private `refresh` — handle check, cold solve or
//! repair or cache hit, [`RunInfo`], batch-log watermark — sits behind
//! every `evaluate*` and `enumerate_paths` call. `cfpq-service` keeps its
//! per-epoch caches through the same trait.
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

use crate::all_paths::{PageRequest, PathEnumerator, PathPage};
use crate::query::QueryAnswer;
use crate::relational::{FixpointSolver, RelationalIndex, SolveOptions, SolveStats, SourceClosure};
use crate::single_path::{SinglePathIndex, SinglePathSolver};
use cfpq_grammar::cnf::CnfOptions;
use cfpq_grammar::symbol::Interner;
use cfpq_grammar::{Cfg, GrammarError, Nt, Wcnf};
use cfpq_graph::{Graph, NodeId};
use cfpq_matrix::{BoolEngine, BoolMat, LenEngine};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The persistent matrix form of a graph: one Boolean adjacency matrix
/// per edge label, built once and updated in place as edges arrive.
///
/// This is the artifact Algorithm 1's initialization (lines 6–7)
/// produces implicitly and then throws away; materialized, it is shared
/// by every query evaluated against the graph. Generic over all five
/// [`BoolEngine`]s, so the index inherits the paper's representation ×
/// device matrix, and the tiled layout beside it.
///
/// The node universe starts at the build graph's size and grows on
/// demand: [`GraphIndex::add_edges`] accepts new labels *and* new node
/// ids, widening every label matrix (dense rebuild / CSR and tile-row append)
/// before inserting. Sessions pick the growth up lazily — a cached
/// closure is widened the same way before its next repair.
#[derive(Clone)]
pub struct GraphIndex<E: BoolEngine> {
    engine: E,
    n_nodes: usize,
    labels: Interner,
    matrices: Vec<E::Matrix>,
    n_edges: usize,
}

/// The record of one [`GraphIndex::add_edges`] batch: which `(from, to)`
/// pairs were genuinely new, per label index. Sessions keep these as the
/// update log that incremental re-evaluation consumes.
#[derive(Clone, Debug)]
pub struct EdgeBatch {
    /// `(label index, new pairs)` — only labels that gained entries.
    new_by_label: Vec<(u32, Vec<(u32, u32)>)>,
    /// Edges actually inserted (previously absent from the index).
    pub inserted: usize,
    /// Edges skipped because the index (or this same batch) already held
    /// them.
    pub duplicates: usize,
}

impl<E: BoolEngine> GraphIndex<E> {
    /// Decomposes `graph` into per-label adjacency matrices on `engine`.
    pub fn build(engine: E, graph: &Graph) -> Self {
        Self::build_where(engine, graph, |_| true)
    }

    /// [`GraphIndex::build`] restricted to the labels `keep` accepts:
    /// only those get a matrix, and edges on other labels are not
    /// indexed (nor counted by [`GraphIndex::n_edges`]). This is what
    /// the one-shot `solve` facade uses — it knows the single grammar it
    /// will ever evaluate, so labels that grammar never mentions (e.g.
    /// RDF padding predicates) would be dead weight, n²-bit dead weight
    /// on the dense engines. Long-lived sessions serving unknown future
    /// grammars should index everything ([`GraphIndex::build`]).
    pub fn build_where(engine: E, graph: &Graph, mut keep: impl FnMut(&str) -> bool) -> Self {
        let n = graph.n_nodes();
        let mut labels = Interner::new();
        // Kept graph-label index → index-local label id.
        let mut local: Vec<Option<u32>> = vec![None; graph.n_labels()];
        for (l, name) in graph.labels() {
            if keep(name) {
                local[l.index()] = Some(labels.intern(name));
            }
        }
        let mut pairs_by_label: Vec<Vec<(u32, u32)>> = vec![Vec::new(); labels.len()];
        let mut n_edges = 0usize;
        for e in graph.edges() {
            if let Some(l) = local[e.label.index()] {
                pairs_by_label[l as usize].push((e.from, e.to));
                n_edges += 1;
            }
        }
        let matrices = pairs_by_label
            .iter()
            .map(|pairs| engine.from_pairs(n, pairs))
            .collect();
        Self {
            engine,
            n_nodes: n,
            labels,
            matrices,
            n_edges,
        }
    }

    /// The engine the matrices live on.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Matrix dimension `|V|`. Starts at the build graph's node count
    /// and **grows** when [`GraphIndex::add_edges`] receives an edge
    /// naming an unseen node id (it never shrinks) — the same implicit
    /// growth contract as [`Graph::add_edge`]'s `ensure_node` behaviour.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of labels with a materialized matrix.
    pub fn n_labels(&self) -> usize {
        self.labels.len()
    }

    /// Total stored edges across all label matrices.
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// The adjacency matrix of a label, if the label exists.
    pub fn adjacency(&self, label: &str) -> Option<&E::Matrix> {
        self.labels.get(label).map(|l| &self.matrices[l as usize])
    }

    /// Iterates `(name, matrix)` for every label.
    pub fn label_matrices(&self) -> impl Iterator<Item = (&str, &E::Matrix)> {
        self.labels
            .iter()
            .map(|(l, name)| (name, &self.matrices[l as usize]))
    }

    /// Inserts a batch of edges in place, interning unseen labels on the
    /// fly and growing the node universe to cover previously-unseen node
    /// ids (every label matrix is widened first, so no insertion can go
    /// out of bounds).
    ///
    /// Duplicate-edge semantics match [`Graph::add_edge`] exactly: the
    /// edge set is a *set* keyed on `(from, label, to)`, so re-inserting
    /// a present edge is a no-op — where `add_edge` reports this by
    /// returning `false`, a batch insert reports it in
    /// [`EdgeBatch::duplicates`] (which also counts repeats *within* the
    /// same batch). The returned [`EdgeBatch`] records exactly the new
    /// entries per label, which is what incremental re-solves seed from.
    pub fn add_edges(&mut self, edges: &[(NodeId, &str, NodeId)]) -> EdgeBatch {
        if let Some(max_id) = edges.iter().map(|&(u, _, v)| u.max(v)).max() {
            let needed = max_id as usize + 1;
            if needed > self.n_nodes {
                for m in &mut self.matrices {
                    self.engine.grow(m, needed);
                }
                self.n_nodes = needed;
            }
        }
        let mut new_by_label: BTreeMap<u32, Vec<(u32, u32)>> = BTreeMap::new();
        let mut batch_seen: std::collections::HashSet<(u32, u32, u32)> =
            std::collections::HashSet::with_capacity(edges.len());
        let mut duplicates = 0usize;
        for &(u, name, v) in edges {
            let l = self.labels.intern(name);
            while self.matrices.len() <= l as usize {
                self.matrices.push(self.engine.zeros(self.n_nodes));
            }
            if self.matrices[l as usize].get(u, v) || !batch_seen.insert((l, u, v)) {
                duplicates += 1;
                continue;
            }
            new_by_label.entry(l).or_default().push((u, v));
        }
        let mut inserted = 0usize;
        let new_by_label: Vec<(u32, Vec<(u32, u32)>)> = new_by_label.into_iter().collect();
        for (l, pairs) in &new_by_label {
            self.engine
                .union_pairs(&mut self.matrices[*l as usize], pairs);
            inserted += pairs.len();
        }
        self.n_edges += inserted;
        EdgeBatch {
            new_by_label,
            inserted,
            duplicates,
        }
    }

    /// Per label index, the nonterminals `A` with a rule `A → x` for the
    /// terminal `x` the label binds to by name (none for a label the
    /// grammar never mentions). Cold, restricted and repair seeds all
    /// read the binding here, so it cannot drift between them.
    fn label_nonterminals(&self, wcnf: &Wcnf) -> Vec<Vec<Nt>> {
        let by_term = wcnf.nts_by_terminal();
        self.labels
            .iter()
            .map(|(_, name)| match wcnf.symbols.get_term(name) {
                Some(term) => by_term[term.index()].clone(),
                None => Vec::new(),
            })
            .collect()
    }

    /// The per-nonterminal seed matrices of a cold solve: every label
    /// matrix union-ed into the `T_A` of each nonterminal with a rule
    /// `A → label`, plus the ε-diagonal when `options` ask for it. This
    /// is Algorithm 1's initialization (lines 6–7) read straight off the
    /// index instead of the edge list.
    pub fn seed_matrices(&self, wcnf: &Wcnf, options: SolveOptions) -> Vec<E::Matrix> {
        let n = self.n_nodes;
        let mut seeds: Vec<Option<E::Matrix>> = (0..wcnf.n_nts()).map(|_| None).collect();
        for (m, nts) in self.matrices.iter().zip(self.label_nonterminals(wcnf)) {
            for nt in nts {
                match &mut seeds[nt.index()] {
                    Some(acc) => {
                        self.engine.union_in_place(acc, m);
                    }
                    None => seeds[nt.index()] = Some(m.clone()),
                }
            }
        }
        let mut matrices: Vec<E::Matrix> = seeds
            .into_iter()
            .map(|m| m.unwrap_or_else(|| self.engine.zeros(n)))
            .collect();
        if options.nullable_diagonal {
            let diagonal: Vec<(u32, u32)> = (0..n as u32).map(|m| (m, m)).collect();
            for &nt in &wcnf.nullable {
                self.engine
                    .union_pairs(&mut matrices[nt.index()], &diagonal);
            }
        }
        matrices
    }

    /// The per-nonterminal length-1 seed matrices of a cold single-path
    /// solve (the §5 analogue of [`GraphIndex::seed_matrices`]; the
    /// ε-overlay is applied by the solver, not here).
    pub fn seed_length_matrices(&self, wcnf: &Wcnf) -> Vec<<E as LenEngine>::LenMatrix>
    where
        E: LenEngine,
    {
        let mut entries: Vec<Vec<(u32, u32, u32)>> = vec![Vec::new(); wcnf.n_nts()];
        for (m, nts) in self.matrices.iter().zip(self.label_nonterminals(wcnf)) {
            if nts.is_empty() {
                continue;
            }
            let pairs = m.pairs();
            for nt in nts {
                entries[nt.index()].extend(pairs.iter().map(|&(i, j)| (i, j, 1)));
            }
        }
        entries
            .into_iter()
            .map(|e| self.engine.len_from_entries(self.n_nodes, &e))
            .collect()
    }

    /// Translates edge batches this index absorbed into per-nonterminal
    /// seed pairs: the base facts a repair of `wcnf`'s closure starts
    /// from.
    fn batch_seeds(&self, wcnf: &Wcnf, batches: &[EdgeBatch]) -> Vec<Vec<(u32, u32)>> {
        let nts_of = self.label_nonterminals(wcnf);
        let mut new_pairs: Vec<Vec<(u32, u32)>> = vec![Vec::new(); wcnf.n_nts()];
        for batch in batches {
            for (label, pairs) in &batch.new_by_label {
                for nt in &nts_of[*label as usize] {
                    new_pairs[nt.index()].extend_from_slice(pairs);
                }
            }
        }
        new_pairs
    }
}

/// A grammar compiled for repeated evaluation: the weak-CNF
/// normalization runs once, here, instead of once per `solve` call. The
/// label→terminal binding is resolved against the session's index at
/// evaluation time (so labels added later still bind).
#[derive(Clone, Debug)]
pub struct PreparedQuery {
    wcnf: Wcnf,
    options: SolveOptions,
}

impl PreparedQuery {
    /// Normalizes `grammar` to weak CNF (the expensive, once-per-query
    /// step) with the default options.
    pub fn new(grammar: &Cfg) -> Result<Self, GrammarError> {
        Ok(Self::from_wcnf(grammar.to_wcnf(CnfOptions::default())?))
    }

    /// Wraps an already-normalized grammar.
    pub fn from_wcnf(wcnf: Wcnf) -> Self {
        Self {
            wcnf,
            options: SolveOptions::default(),
        }
    }

    /// Sets the solve options (ε-diagonal seeding).
    pub fn options(mut self, options: SolveOptions) -> Self {
        self.options = options;
        self
    }

    /// The normalized grammar.
    pub fn wcnf(&self) -> &Wcnf {
        &self.wcnf
    }

    /// The start nonterminal's name.
    pub fn start_name(&self) -> &str {
        self.wcnf.symbols.nt_name(self.wcnf.start)
    }
}

/// Handle to a (relational) query registered in a [`CfpqSession`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct QueryId(usize);

/// Handle to a single-path query registered in a [`CfpqSession`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SinglePathId(usize);

/// Typed failure of the fallible session entry points
/// ([`CfpqSession::try_evaluate`] and friends). The session is
/// single-caller, so the only runtime failure is handle confusion —
/// but layers that serve many callers (the service crate) need it as a
/// value, not a panic: a request must be rejectable without unwinding
/// the thread that carries everyone else's work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// The handle's index is out of range for this session — it was
    /// forged, or belongs to a different session.
    UnknownQuery {
        /// The offending raw id.
        id: usize,
        /// How many queries of that kind this session holds.
        registered: usize,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownQuery { id, registered } => {
                write!(
                    f,
                    "query {id} is not registered in this session (have {registered})"
                )
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// What the most recent evaluation of a query actually did: a cold solve
/// or an incremental repair, and how much kernel work it launched. This
/// is the observable behind the incremental-beats-cold acceptance check.
#[derive(Clone, Debug)]
pub struct RunInfo {
    /// Kernel-work counters of that run alone (not cumulative).
    pub stats: SolveStats,
    /// Fixpoint sweeps of that run alone.
    pub sweeps: usize,
    /// `true` if the run repaired a cached closure via
    /// [`FixpointSolver::resume`]; `false` for a cold solve.
    pub incremental: bool,
}

/// A closure that sessions and the `cfpq-service` epochs cache per
/// prepared query — a [`RelationalIndex`] or a [`SinglePathIndex`]: how
/// it is cold-solved against an index and repaired once the index has
/// absorbed further edges, so the lifecycle around it (solve once, serve
/// from the cache, repair after updates) is written once per layer.
pub trait CachedClosure<E: BoolEngine>: Clone {
    /// Cold solve: seeds straight from the index's label matrices, then
    /// the fixpoint.
    fn cold_solve(index: &GraphIndex<E>, query: &PreparedQuery) -> Self;

    /// Repairs the closure in place for `batches`, which `index` absorbed
    /// since the closure was solved or last repaired: widens it if the
    /// node universe grew, then resumes the semi-naive Δ loop from the
    /// batches' seeds. Returns the stats of the repair alone.
    fn repair(
        &mut self,
        index: &GraphIndex<E>,
        query: &PreparedQuery,
        batches: &[EdgeBatch],
    ) -> SolveStats;

    /// Cumulative kernel-work counters: the cold solve plus every repair.
    fn stats(&self) -> &SolveStats;
}

impl<E: BoolEngine> CachedClosure<E> for RelationalIndex<E::Matrix> {
    fn cold_solve(index: &GraphIndex<E>, query: &PreparedQuery) -> Self {
        solve_prepared(index, query)
    }

    /// Widening seeds the new ε-diagonal cells when the query asks for
    /// the nullable diagonal.
    fn repair(
        &mut self,
        index: &GraphIndex<E>,
        query: &PreparedQuery,
        batches: &[EdgeBatch],
    ) -> SolveStats {
        let mut sp = cfpq_obs::span("query.repair");
        let (wcnf, n) = (query.wcnf(), index.n_nodes);
        let mut new_pairs = index.batch_seeds(wcnf, batches);
        if self.n_nodes < n {
            let old_n = self.n_nodes;
            for m in &mut self.matrices {
                index.engine.grow(m, n);
            }
            self.n_nodes = n;
            if query.options.nullable_diagonal {
                for &nt in &wcnf.nullable {
                    new_pairs[nt.index()].extend((old_n as u32..n as u32).map(|m| (m, m)));
                }
            }
        }
        let stats = FixpointSolver::new(&index.engine)
            .options(query.options)
            .resume(self, wcnf, &new_pairs)
            .expect("seeds read off the grown index are cells of it");
        if sp.is_recording() {
            sp.attr_u64("n_nodes", n as u64);
            sp.attr_u64("products", stats.products_computed as u64);
        }
        stats
    }

    fn stats(&self) -> &SolveStats {
        &self.stats
    }
}

impl<E: BoolEngine + LenEngine> CachedClosure<E> for SinglePathIndex<E::LenMatrix> {
    fn cold_solve(index: &GraphIndex<E>, query: &PreparedQuery) -> Self {
        solve_prepared_single_path(index, query)
    }

    /// The resume's ε-overlay covers the diagonal cells of new nodes;
    /// first-write-wins means entries that survive keep their recorded
    /// witness lengths.
    fn repair(
        &mut self,
        index: &GraphIndex<E>,
        query: &PreparedQuery,
        batches: &[EdgeBatch],
    ) -> SolveStats {
        let n = index.n_nodes;
        if self.n_nodes < n {
            for m in &mut self.lengths {
                index.engine.len_grow(m, n);
            }
            self.n_nodes = n;
        }
        let new_pairs = index.batch_seeds(query.wcnf(), batches);
        SinglePathSolver::new(&index.engine)
            .options(query.options)
            .resume(self, query.wcnf(), &new_pairs)
            .expect("seeds read off the grown index are cells of it")
    }

    fn stats(&self) -> &SolveStats {
        &self.stats
    }
}

/// Per-query cached state, whatever the closure: the prepared grammar,
/// the solved closure (if any), and how much of the session's edge log
/// it has absorbed.
#[derive(Clone)]
struct CachedQuery<C, D = ()> {
    query: PreparedQuery,
    /// Shared with every [`QueryAnswer`] handed out for it; repaired
    /// through `Arc::make_mut`, so the closure is copied only while a
    /// caller still holds an answer over it.
    solved: Option<Arc<C>>,
    /// Index into the session's batch log: batches before this are
    /// reflected in `solved`.
    watermark: usize,
    last_run: Option<RunInfo>,
    /// What a reader built from `solved` and the graph state it reflects
    /// and keeps for the next read — the [`PathEnumerator`] of a
    /// relational query. Valid for exactly that state, so every cold
    /// solve and repair drops it.
    derived: Option<D>,
}

impl<C, D> CachedQuery<C, D> {
    fn new(query: PreparedQuery) -> Self {
        Self {
            query,
            solved: None,
            watermark: 0,
            last_run: None,
            derived: None,
        }
    }

    /// How far into the batch log the solved closure has caught up;
    /// `None` while unsolved (an eventual cold solve reads the index
    /// directly, so it pins no batch).
    fn absorbed(&self) -> Option<usize> {
        self.solved.as_ref().map(|_| self.watermark)
    }

    /// Brings query `id` of `queries` up to date with `index`, of whose
    /// history `batches` is the not-yet-compacted tail: cold solve on
    /// first use, semi-naive repair when batches arrived since it last
    /// caught up, the cached closure otherwise. The one place a session
    /// handle is range-checked and `RunInfo` and watermark are written.
    fn refresh<'q, E: BoolEngine>(
        queries: &'q mut [Self],
        id: usize,
        index: &GraphIndex<E>,
        batches: &[EdgeBatch],
    ) -> Result<&'q mut Self, SessionError>
    where
        C: CachedClosure<E>,
    {
        let registered = queries.len();
        let state = queries
            .get_mut(id)
            .ok_or(SessionError::UnknownQuery { id, registered })?;
        let mut sp = cfpq_obs::span("session.evaluate");
        let (outcome, run) = match &mut state.solved {
            None => {
                let solved = C::cold_solve(index, &state.query);
                let stats = solved.stats().clone();
                state.solved = Some(Arc::new(solved));
                ("cold", Some((stats, false)))
            }
            Some(solved) if state.watermark < batches.len() => {
                let pending = &batches[state.watermark..];
                let stats = Arc::make_mut(solved).repair(index, &state.query, pending);
                ("repair", Some((stats, true)))
            }
            Some(_) => ("cached", None),
        };
        if let Some((stats, incremental)) = run {
            state.last_run = Some(RunInfo {
                sweeps: stats.sweep_nnz.len(),
                stats,
                incremental,
            });
            state.watermark = batches.len();
            state.derived = None;
        }
        sp.attr_str("outcome", outcome);
        Ok(state)
    }
}

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
/// path pages of a relational query go through the same lifecycle.
#[derive(Clone)]
pub struct CfpqSession<E: BoolEngine + LenEngine> {
    index: GraphIndex<E>,
    /// Log of accepted edge batches; every query's watermark points
    /// into this.
    batches: Vec<EdgeBatch>,
    /// Prepared relational queries with their cached closures and, once
    /// paged, the memoized enumeration tables.
    queries: Vec<CachedQuery<RelationalIndex<E::Matrix>, PathEnumerator>>,
    /// Prepared single-path queries with their cached length closures.
    sp_queries: Vec<CachedQuery<SinglePathIndex<E::LenMatrix>>>,
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
    let mut sp = cfpq_obs::span("query.cold");
    let wcnf = query.wcnf();
    let matrices = index.seed_matrices(wcnf, query.options);
    let solved = FixpointSolver::new(&index.engine)
        .options(query.options)
        .solve_from_matrices(matrices, index.n_nodes, wcnf);
    if sp.is_recording() {
        sp.attr_u64("n_nodes", index.n_nodes as u64);
        sp.attr_u64("sweeps", solved.iterations as u64);
    }
    solved
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
    for (m, nts) in index.matrices.iter().zip(index.label_nonterminals(wcnf)) {
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
    let matrices = index.seed_length_matrices(wcnf);
    SinglePathSolver::new(&index.engine)
        .options(query.options)
        .solve_from_matrices(matrices, index.n_nodes, wcnf)
}

impl<E: BoolEngine + LenEngine> CfpqSession<E> {
    /// Indexes `graph` on `engine` and opens a session over it.
    pub fn new(engine: E, graph: &Graph) -> Self {
        Self::over(GraphIndex::build(engine, graph))
    }

    /// Opens a session over an already-built index.
    pub fn over(index: GraphIndex<E>) -> Self {
        Self {
            index,
            batches: Vec::new(),
            queries: Vec::new(),
            sp_queries: Vec::new(),
        }
    }

    /// The underlying label-matrix index.
    pub fn index(&self) -> &GraphIndex<E> {
        &self.index
    }

    /// Normalizes `grammar` and registers it for evaluation.
    pub fn prepare(&mut self, grammar: &Cfg) -> Result<QueryId, GrammarError> {
        Ok(self.prepare_query(PreparedQuery::new(grammar)?))
    }

    /// Registers an already-normalized grammar for evaluation.
    pub fn prepare_wcnf(&mut self, wcnf: Wcnf) -> QueryId {
        self.prepare_query(PreparedQuery::from_wcnf(wcnf))
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
        self.queries.push(CachedQuery::new(query));
        QueryId(self.queries.len() - 1)
    }

    /// Inserts a batch of edges into the index (growing the node
    /// universe if an edge names an unseen node id); returns how many
    /// were genuinely new. Cached query closures are *not* recomputed
    /// here — each query repairs itself lazily on its next
    /// [`CfpqSession::evaluate`] / [`CfpqSession::evaluate_single_path`]
    /// / [`CfpqSession::enumerate_paths`] call.
    pub fn add_edges(&mut self, edges: &[(NodeId, &str, NodeId)]) -> usize {
        let batch = self.index.add_edges(edges);
        let inserted = batch.inserted;
        // The log only exists to repair already-solved closures: with no
        // solved query, cold solves read the index directly, so nothing
        // needs the batch.
        if inserted > 0 && self.absorbed().next().is_some() {
            self.batches.push(batch);
        }
        inserted
    }

    /// The batch-log watermark of every solved query, of either kind.
    fn absorbed(&self) -> impl Iterator<Item = usize> + '_ {
        let rel = self.queries.iter().filter_map(CachedQuery::absorbed);
        rel.chain(self.sp_queries.iter().filter_map(CachedQuery::absorbed))
    }

    /// Drops log batches every solved query has already absorbed, so a
    /// long-lived session's memory tracks the graph, not the total
    /// number of `add_edges` calls ever made. Unevaluated queries don't
    /// pin the log (their eventual cold solve reads the index directly).
    fn compact_batches(&mut self) {
        let consumed = self.absorbed().min().unwrap_or(self.batches.len());
        if consumed == 0 {
            return;
        }
        self.batches.drain(..consumed);
        let rel = self.queries.iter_mut().map(|q| &mut q.watermark);
        for watermark in rel.chain(self.sp_queries.iter_mut().map(|q| &mut q.watermark)) {
            *watermark = watermark.saturating_sub(consumed);
        }
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
    /// If `id` does not belong to this session. Multi-caller layers
    /// should use [`CfpqSession::try_evaluate`] so a forged handle is a
    /// value error instead of an unwind.
    pub fn evaluate(&mut self, id: QueryId) -> QueryAnswer {
        self.try_evaluate(id)
            .expect("query not registered in this session")
    }

    /// [`CfpqSession::evaluate`] with the handle check surfaced as a
    /// typed [`SessionError`] instead of a panic.
    pub fn try_evaluate(&mut self, id: QueryId) -> Result<QueryAnswer, SessionError> {
        let state = CachedQuery::refresh(&mut self.queries, id.0, &self.index, &self.batches)?;
        let solved = state.solved.as_ref().expect("closure just materialized");
        let answer = QueryAnswer::from_shared(
            self.index.engine.name(),
            &state.query.wcnf,
            Arc::clone(solved),
        );
        self.compact_batches();
        Ok(answer)
    }

    /// The closed relational index of a query, if it has been evaluated.
    pub fn solved_index(&self, id: QueryId) -> Option<&RelationalIndex<E::Matrix>> {
        self.queries.get(id.0)?.solved.as_deref()
    }

    /// What the last [`CfpqSession::evaluate`] or
    /// [`CfpqSession::enumerate_paths`] of this query actually did to
    /// its closure (cold vs incremental, and its kernel-work counters).
    /// `None` until the first of either.
    pub fn last_run(&self, id: QueryId) -> Option<&RunInfo> {
        self.queries.get(id.0)?.last_run.as_ref()
    }

    /// Streams one page of distinct witness paths for the query's start
    /// nonterminal between `from` and `to`, in (length, lexicographic)
    /// order — see [`crate::all_paths::PathEnumerator::page`].
    ///
    /// The closure [`CfpqSession::evaluate`] caches is the pruning
    /// oracle: whichever of the two is called first solves it, the other
    /// finds it. The memoized enumeration tables are kept beside it: on a
    /// quiet graph, consecutive pages (or other endpoint pairs) keep
    /// extending them; once [`CfpqSession::add_edges`] grew the graph,
    /// the next call of either kind repairs the closure and the tables
    /// are rebuilt — so a repaired session serves exactly the pages a
    /// from-scratch session would.
    ///
    /// # Panics
    ///
    /// If `id` does not belong to this session. Multi-caller layers
    /// should use [`CfpqSession::try_enumerate_paths`].
    pub fn enumerate_paths(
        &mut self,
        id: QueryId,
        from: NodeId,
        to: NodeId,
        page: PageRequest,
    ) -> PathPage {
        self.try_enumerate_paths(id, from, to, page)
            .expect("query not registered in this session")
    }

    /// [`CfpqSession::enumerate_paths`] with the handle check surfaced
    /// as a typed [`SessionError`] instead of a panic.
    pub fn try_enumerate_paths(
        &mut self,
        id: QueryId,
        from: NodeId,
        to: NodeId,
        page: PageRequest,
    ) -> Result<PathPage, SessionError> {
        let state = CachedQuery::refresh(&mut self.queries, id.0, &self.index, &self.batches)?;
        let wcnf = &state.query.wcnf;
        let solved = state.solved.as_ref().expect("closure just materialized");
        // The memoized length classes are exact-length sets over the edge
        // relation they were built from — any of them may grow with it,
        // so the refresh dropped them and they are rebuilt, not patched.
        let result = state
            .derived
            .get_or_insert_with(|| PathEnumerator::from_index(&self.index, wcnf))
            .page(solved, wcnf.start, from, to, page);
        self.compact_batches();
        Ok(result)
    }

    /// Normalizes `grammar` and registers it for single-path (§5)
    /// evaluation: the session will keep a length-annotated closure for
    /// it, cold-solved once and repaired incrementally after
    /// [`CfpqSession::add_edges`].
    pub fn prepare_single_path(&mut self, grammar: &Cfg) -> Result<SinglePathId, GrammarError> {
        Ok(self.prepare_single_path_query(PreparedQuery::new(grammar)?))
    }

    /// Registers a fully-configured [`PreparedQuery`] for single-path
    /// evaluation ([`SolveOptions`] apply as usual).
    pub fn prepare_single_path_query(&mut self, query: PreparedQuery) -> SinglePathId {
        self.sp_queries.push(CachedQuery::new(query));
        SinglePathId(self.sp_queries.len() - 1)
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
    /// If `id` does not belong to this session. Multi-caller layers
    /// should use [`CfpqSession::try_evaluate_single_path`].
    pub fn evaluate_single_path(&mut self, id: SinglePathId) -> &SinglePathIndex<E::LenMatrix> {
        self.try_evaluate_single_path(id)
            .expect("query not registered in this session")
    }

    /// [`CfpqSession::evaluate_single_path`] with the handle check
    /// surfaced as a typed [`SessionError`] instead of a panic.
    pub fn try_evaluate_single_path(
        &mut self,
        id: SinglePathId,
    ) -> Result<&SinglePathIndex<E::LenMatrix>, SessionError> {
        CachedQuery::refresh(&mut self.sp_queries, id.0, &self.index, &self.batches)?;
        self.compact_batches();
        Ok(self
            .single_path_index(id)
            .expect("closure just materialized"))
    }

    /// The solved single-path index of a query, if it has been
    /// evaluated (without forcing an evaluation).
    pub fn single_path_index(&self, id: SinglePathId) -> Option<&SinglePathIndex<E::LenMatrix>> {
        self.sp_queries.get(id.0)?.solved.as_deref()
    }

    /// What the last [`CfpqSession::evaluate_single_path`] of this query
    /// actually did. `None` until the first evaluation.
    pub fn last_single_path_run(&self, id: SinglePathId) -> Option<&RunInfo> {
        self.sp_queries.get(id.0)?.last_run.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{solve, Backend};
    use cfpq_grammar::queries;
    use cfpq_graph::generators;
    use cfpq_matrix::{
        DenseEngine, Device, ParDenseEngine, ParSparseEngine, SparseEngine, TiledEngine,
    };

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
        // of range here; the `Option` accessors must say so, and every
        // evaluating entry point must fail typed, not panic.
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
        assert!(small.solved_index(q).is_none());
        assert!(small.last_run(q).is_none());
        assert!(small.single_path_index(sp).is_none());
        assert!(small.last_single_path_run(sp).is_none());
        let unknown = SessionError::UnknownQuery {
            id: 1,
            registered: 1,
        };
        assert_eq!(small.try_evaluate(q).err(), Some(unknown));
        assert_eq!(
            small
                .try_enumerate_paths(q, 0, 0, PageRequest::default())
                .err(),
            Some(unknown)
        );
        assert_eq!(small.try_evaluate_single_path(sp).err(), Some(unknown));
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
    fn the_closure_is_shared_with_live_answers_only() {
        let grammar = queries::query1();
        let graph = generators::paper_example();
        let mut session = CfpqSession::new(SparseEngine, &graph);
        let id = session.prepare(&grammar).unwrap();
        let handles = |s: &CfpqSession<SparseEngine>| {
            Arc::strong_count(s.queries[id.0].solved.as_ref().expect("evaluated"))
        };
        let first = session.evaluate(id);
        let second = session.evaluate(id);
        assert_eq!(
            handles(&session),
            3,
            "the session's handle plus two answers"
        );
        drop((first, second));
        // The session caches no answer of its own, so the next repair
        // finds the closure unshared and works in place.
        assert_eq!(handles(&session), 1);
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
    fn batch_log_is_compacted_once_absorbed() {
        // The edge log must track outstanding repairs, not the lifetime
        // count of add_edges calls.
        let grammar = cfpq_grammar::Cfg::parse("S -> a S b | a b").unwrap();
        let chain = generators::word_chain(&["a", "a", "b", "b"]);
        let mut partial = Graph::new(chain.n_nodes());
        for e in chain.edges().iter().take(1) {
            partial.add_edge_named(e.from, chain.label_name(e.label), e.to);
        }
        let mut session = CfpqSession::new(SparseEngine, &partial);
        let id = session.prepare(&grammar).unwrap();
        // Batches before the first solve are not even logged: the cold
        // solve reads the index directly.
        let e = &chain.edges()[1];
        session.add_edges(&[(e.from, chain.label_name(e.label), e.to)]);
        assert!(session.batches.is_empty(), "no solved query, no log");
        session.evaluate(id);
        // Logged while pending, drained once every solved query caught up.
        for e in chain.edges().iter().skip(2) {
            session.add_edges(&[(e.from, chain.label_name(e.label), e.to)]);
        }
        assert_eq!(session.batches.len(), 2);
        let answer = session.evaluate(id);
        assert!(session.batches.is_empty(), "absorbed batches are drained");
        assert_eq!(session.queries[id.0].watermark, 0);
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
        let start = session.sp_queries[sp.0].query.wcnf.start;
        let answer = session.evaluate(rel);
        assert_eq!(
            answer.start_pairs(),
            session.evaluate_single_path(sp).pairs(start)
        );
        // An update repairs both caches lazily; the log drains once both
        // absorbed it.
        session.add_edges(&[(1, "subClassOf", 0)]);
        let answer = session.evaluate(rel);
        assert_eq!(session.batches.len(), 1, "single-path still pending");
        let pairs = session.evaluate_single_path(sp).pairs(start);
        assert_eq!(answer.start_pairs(), pairs);
        assert!(session.batches.is_empty(), "both absorbed, log drained");
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
        // The log drained once the only query absorbed it.
        assert!(session.batches.is_empty());
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
        let classes = |s: &CfpqSession<SparseEngine>| {
            let tables = s.queries[q.0].derived.as_ref();
            tables.expect("kept beside the closure").n_classes()
        };
        let after_first = classes(&session);
        session.enumerate_paths(q, 0, 0, page_at(2));
        assert!(classes(&session) > after_first, "same tables, grown");

        // A repair between pages drops them: the next page is the one a
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

    #[test]
    fn graph_index_exposes_label_matrices() {
        let graph = generators::word_chain(&["a", "b"]);
        let index = GraphIndex::build(SparseEngine, &graph);
        assert_eq!(index.n_nodes(), 3);
        assert_eq!(index.n_labels(), 2);
        assert_eq!(index.n_edges(), 2);
        assert_eq!(index.adjacency("a").unwrap().pairs(), vec![(0, 1)]);
        assert_eq!(index.adjacency("b").unwrap().pairs(), vec![(1, 2)]);
        assert!(index.adjacency("nope").is_none());
        let names: Vec<&str> = index.label_matrices().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}

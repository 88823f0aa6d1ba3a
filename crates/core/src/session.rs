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
//! inserts edges into the label matrices (via
//! [`BoolEngine::union_pairs`], growing the node universe when an edge
//! names an unseen node id). Clones of the index share those matrices
//! copy-on-write: a label's matrix is copied on its first write while
//! another clone holds it, and never otherwise. On the next evaluation
//! of a previously-solved query, the session *repairs* the cached
//! closure through [`FixpointSolver::resume`] — the semi-naive Δ loop
//! seeded with only the new entries — instead of re-solving from
//! scratch. On the
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
//! closure cell per query ([`CachedClosure`] says how each kind of
//! closure is cold-solved and repaired). A session drives one state
//! inline and records each read's [`RunInfo`]; a `cfpq-service` epoch is
//! a state too, whose publish repairs every closure before readers come.
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
use cfpq_graph::{Graph, Label, NodeId};
use cfpq_matrix::{BoolEngine, BoolMat, LenEngine};
use cfpq_obs::SpanGuard;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// The persistent matrix form of a graph: one Boolean adjacency matrix
/// per edge label, built once and updated as edges arrive.
///
/// This is the artifact Algorithm 1's initialization (lines 6–7)
/// produces implicitly and then throws away; materialized, it is shared
/// by every query evaluated against the graph. Generic over all five
/// [`BoolEngine`]s, so the index inherits the paper's representation ×
/// device matrix, and the tiled layout beside it.
///
/// The fixpoint only reads the label matrices, so clones share them
/// copy-on-write: a clone costs one reference count per label, and
/// [`GraphIndex::add_edges`] copies a label's matrix only where another
/// clone still holds it, and only if the batch writes to that label.
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
    matrices: Vec<Arc<E::Matrix>>,
    n_edges: usize,
}

/// The record of one [`GraphIndex::add_edges`] batch: which `(from, to)`
/// pairs were genuinely new, per label index. A [`GraphState`] keeps it
/// beside every closure it made stale, for the repair to seed from.
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
            .map(|pairs| Arc::new(engine.from_pairs(n, pairs)))
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
        self.label(label).map(|(_, m)| m)
    }

    /// The id and adjacency matrix of a label, if the label exists. Ids
    /// are interned in arrival order, so an index built from a graph
    /// numbers its labels as the graph does.
    pub(crate) fn label(&self, name: &str) -> Option<(Label, &E::Matrix)> {
        let l = self.labels.get(name)?;
        Some((Label(l), &*self.matrices[l as usize]))
    }

    /// Iterates `(name, matrix)` for every label.
    pub fn label_matrices(&self) -> impl Iterator<Item = (&str, &E::Matrix)> {
        self.labels
            .iter()
            .map(|(l, name)| (name, &*self.matrices[l as usize]))
    }

    /// Inserts a batch of edges, interning unseen labels on the fly and
    /// growing the node universe to cover previously-unseen node ids
    /// (every label matrix is widened first, so no insertion can go out
    /// of bounds).
    ///
    /// Only the label matrices the batch writes to are touched: those
    /// that gain a pair, or all of them when the universe grows. Each is
    /// updated in place if this index holds it alone, and copied first if
    /// a clone shares it, so the clone never sees the batch. A batch of
    /// duplicates writes nothing.
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
                    self.engine.grow(Arc::make_mut(m), needed);
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
                self.matrices
                    .push(Arc::new(self.engine.zeros(self.n_nodes)));
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
                .union_pairs(Arc::make_mut(&mut self.matrices[*l as usize]), pairs);
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
                    None => seeds[nt.index()] = Some(E::Matrix::clone(m)),
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

/// Handle to a relational query prepared on a [`GraphState`] — that of
/// a [`CfpqSession`] or of a `cfpq-service` service.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct QueryId(usize);

/// Handle to a single-path query prepared on a [`GraphState`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SinglePathId(usize);

impl QueryId {
    /// The handle's position among the relational queries of its state.
    pub fn index(self) -> usize {
        self.0
    }
}

impl SinglePathId {
    /// The handle's position among the single-path queries of its state.
    pub fn index(self) -> usize {
        self.0
    }
}

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

/// A closure that a [`GraphState`] caches per prepared query — a
/// [`RelationalIndex`] or a [`SinglePathIndex`]: how it is cold-solved
/// against an index and repaired once the index has absorbed further
/// edges, so the lifecycle around it (solve once, serve from the cache,
/// repair after updates) is written once.
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

/// The closure cell of one prepared query, filled by its first read.
struct Cell<C> {
    query: PreparedQuery,
    /// The closure, up to date with the index of the state holding it.
    solved: OnceLock<Arc<C>>,
    /// A closure solved before the index absorbed the batches beside it.
    /// Set only while `solved` is empty; the read that repairs it takes
    /// it whole, so a repair that panics leaves the cell empty.
    stale: Mutex<Option<(Arc<C>, Vec<EdgeBatch>)>>,
}

impl<C> Clone for Cell<C> {
    fn clone(&self) -> Self {
        let stale = self.stale().clone();
        Self {
            query: self.query.clone(),
            solved: self.solved.clone(),
            stale: Mutex::new(stale),
        }
    }
}

impl<C> Cell<C> {
    fn new(query: PreparedQuery) -> Self {
        let (solved, stale) = (OnceLock::new(), Mutex::new(None));
        Self {
            query,
            solved,
            stale,
        }
    }

    fn stale(&self) -> MutexGuard<'_, Option<(Arc<C>, Vec<EdgeBatch>)>> {
        // Only ever taken or replaced whole: a poisoned value is valid.
        self.stale.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The closure, cold-solved if the cell is empty, repaired for every
    /// pending batch in one resume if it is stale, served as it is
    /// otherwise; with the run the read made (`None` for a hit).
    fn read<E: BoolEngine>(&self, index: &GraphIndex<E>) -> (&Arc<C>, Option<RunInfo>)
    where
        C: CachedClosure<E>,
    {
        let mut run = None;
        let solved = self.solved.get_or_init(|| {
            // Taken by value, not cloned: with no answer holding the
            // closure, `make_mut` repairs it in place.
            let (closure, stats, incremental) = match self.stale().take() {
                Some((mut closure, batches)) => {
                    let stats = Arc::make_mut(&mut closure).repair(index, &self.query, &batches);
                    (closure, stats, true)
                }
                None => {
                    let closure = C::cold_solve(index, &self.query);
                    let stats = closure.stats().clone();
                    (Arc::new(closure), stats, false)
                }
            };
            let sweeps = stats.sweep_nnz.len();
            run = Some(RunInfo {
                stats,
                sweeps,
                incremental,
            });
            closure
        });
        (solved, run)
    }

    /// The run of a repair if the cell is stale: empty and solved cells
    /// are left alone.
    fn repair_stale<E: BoolEngine>(&self, index: &GraphIndex<E>) -> Option<RunInfo>
    where
        C: CachedClosure<E>,
    {
        let stale = self.stale().is_some();
        stale.then(|| self.read(index).1).flatten()
    }

    /// Makes a solved closure stale for `batch`, which the index just
    /// absorbed, or adds `batch` to a stale one's. An empty cell stays
    /// empty: its cold solve reads the index.
    fn absorb(&mut self, batch: &EdgeBatch) {
        let stale = self.stale.get_mut().unwrap_or_else(PoisonError::into_inner);
        if let Some(solved) = self.solved.take() {
            *stale = Some((solved, vec![batch.clone()]));
        } else if let Some((_, pending)) = stale {
            pending.push(batch.clone());
        }
    }
}

/// The cells of one query kind, in handle order. Append-only, so a cell
/// never moves: it is read without a lock, and `push` takes `&self` so a
/// query can be prepared on a state that readers share. Cell `i` sits in
/// bucket `⌊log₂(i + 1)⌋`, which holds `2^bucket` cells.
struct Cells<C> {
    #[allow(clippy::type_complexity)]
    buckets: [OnceLock<Box<[OnceLock<Cell<C>>]>>; usize::BITS as usize],
    /// A count only: each cell is published by its own `OnceLock`.
    len: AtomicUsize,
}

impl<C> Cells<C> {
    fn new() -> Self {
        let buckets = std::array::from_fn(|_| OnceLock::new());
        Self {
            buckets,
            len: AtomicUsize::new(0),
        }
    }

    /// Bucket and offset of cell `i`.
    fn locate(i: usize) -> (usize, usize) {
        let bucket = (i + 1).ilog2() as usize;
        (bucket, i + 1 - (1 << bucket))
    }

    fn get(&self, i: usize) -> Option<&Cell<C>> {
        let (bucket, at) = Self::locate(i);
        self.buckets[bucket].get()?[at].get()
    }

    /// Appends `cell`; returns its index.
    fn push(&self, cell: Cell<C>) -> usize {
        let i = self.len.fetch_add(1, Ordering::Relaxed);
        let (bucket, at) = Self::locate(i);
        let new_bucket = || (0..1 << bucket).map(|_| OnceLock::new()).collect();
        let cells = self.buckets[bucket].get_or_init(new_bucket);
        assert!(cells[at].set(cell).is_ok(), "each index is handed out once");
        i
    }

    fn iter(&self) -> impl Iterator<Item = &Cell<C>> {
        (0..self.len.load(Ordering::Relaxed)).filter_map(|i| self.get(i))
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut Cell<C>> {
        let buckets = self.buckets.iter_mut().filter_map(OnceLock::get_mut);
        buckets.flat_map(|cells| cells.iter_mut().filter_map(OnceLock::get_mut))
    }
}

impl<C> Clone for Cells<C> {
    fn clone(&self) -> Self {
        let copy = Self::new();
        for cell in self.iter() {
            copy.push(cell.clone());
        }
        copy
    }
}

/// One version of a graph and what is evaluated against it: the
/// [`GraphIndex`], the prepared queries of both kinds, and one closure
/// cell per query, filled by its first read.
///
/// A read cold-solves the cell, or repairs the closure it holds for every
/// batch [`GraphState::add_edges`] added since, in one resume, or hits —
/// and reports which. Nothing is repaired before a read asks unless the
/// owner calls [`GraphState::repair_stale`]: a [`CfpqSession`] never
/// does; a `cfpq-service` publish does, so that readers never repair.
///
/// Reads and `prepare*` take `&self`: concurrent readers of an empty cell
/// wait for one solve, a solve that panics leaves the cell empty, and a
/// query can be prepared on a state readers share. A clone shares the
/// closures and the index's label matrices copy-on-write, so it costs
/// O(labels + prepared queries); a query prepared on either afterwards
/// does not reach the other.
#[derive(Clone)]
pub struct GraphState<E: BoolEngine + LenEngine> {
    index: GraphIndex<E>,
    rel: Cells<RelationalIndex<E::Matrix>>,
    sp: Cells<SinglePathIndex<E::LenMatrix>>,
}

/// A read of a [`GraphState`] cell: the query, its closure up to date
/// with the index, and the run the read made (`None` for a hit).
pub type CellRead<'s, C> = (&'s PreparedQuery, &'s Arc<C>, Option<RunInfo>);

impl<E: BoolEngine + LenEngine> GraphState<E> {
    /// A state over `index`, with no query prepared.
    pub fn new(index: GraphIndex<E>) -> Self {
        let (rel, sp) = (Cells::new(), Cells::new());
        Self { index, rel, sp }
    }

    /// The index every read solves against.
    pub fn index(&self) -> &GraphIndex<E> {
        &self.index
    }

    /// Registers a relational query, unsolved until read.
    pub fn prepare(&self, query: PreparedQuery) -> QueryId {
        QueryId(self.rel.push(Cell::new(query)))
    }

    /// Registers a single-path (§5) query, unsolved until read.
    pub fn prepare_single_path(&self, query: PreparedQuery) -> SinglePathId {
        SinglePathId(self.sp.push(Cell::new(query)))
    }

    /// How many relational queries are prepared.
    pub fn n_queries(&self) -> usize {
        self.rel.len.load(Ordering::Relaxed)
    }

    /// How many single-path queries are prepared.
    pub fn n_single_path_queries(&self) -> usize {
        self.sp.len.load(Ordering::Relaxed)
    }

    /// Relational query `id`, if this state holds it.
    pub fn query(&self, id: QueryId) -> Option<&PreparedQuery> {
        Some(&self.rel.get(id.0)?.query)
    }

    /// The closure of relational query `id` as it stands, not solved or
    /// repaired: `None` while its cell is empty or stale.
    pub fn solved(&self, id: QueryId) -> Option<&Arc<RelationalIndex<E::Matrix>>> {
        self.rel.get(id.0)?.solved.get()
    }

    /// [`GraphState::solved`] for a single-path query.
    pub fn solved_single_path(
        &self,
        id: SinglePathId,
    ) -> Option<&Arc<SinglePathIndex<E::LenMatrix>>> {
        self.sp.get(id.0)?.solved.get()
    }

    /// Reads relational query `id`; `None` if this state holds no such
    /// query.
    pub fn evaluate(&self, id: QueryId) -> Option<CellRead<'_, RelationalIndex<E::Matrix>>> {
        let cell = self.rel.get(id.0)?;
        let (solved, run) = cell.read(&self.index);
        Some((&cell.query, solved, run))
    }

    /// Reads single-path query `id`; `None` if this state holds no such
    /// query.
    pub fn evaluate_single_path(
        &self,
        id: SinglePathId,
    ) -> Option<CellRead<'_, SinglePathIndex<E::LenMatrix>>> {
        let cell = self.sp.get(id.0)?;
        let (solved, run) = cell.read(&self.index);
        Some((&cell.query, solved, run))
    }

    /// Inserts edges into the index ([`GraphIndex::add_edges`]) and makes
    /// every solved closure stale for the batch; returns how many edges
    /// were new.
    pub fn add_edges(&mut self, edges: &[(NodeId, &str, NodeId)]) -> usize {
        let batch = self.index.add_edges(edges);
        if batch.inserted > 0 {
            self.rel.iter_mut().for_each(|cell| cell.absorb(&batch));
            self.sp.iter_mut().for_each(|cell| cell.absorb(&batch));
        }
        batch.inserted
    }

    /// Repairs every stale closure now, relational queries first, each
    /// in handle order; `report` gets each repair's run.
    pub fn repair_stale(&self, report: impl FnMut(RunInfo)) {
        let index = &self.index;
        let rel = self.rel.iter().filter_map(|cell| cell.repair_stale(index));
        let sp = self.sp.iter().filter_map(|cell| cell.repair_stale(index));
        rel.chain(sp).for_each(report);
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
/// path pages of a relational query go through the same lifecycle: the
/// session drives one [`GraphState`] inline and records each read.
#[derive(Clone)]
pub struct CfpqSession<E: BoolEngine + LenEngine> {
    state: GraphState<E>,
    /// Per query of each kind, in handle order.
    rel: Vec<Reads>,
    sp: Vec<Reads>,
}

/// What a session keeps of the reads of one query.
#[derive(Clone, Default)]
struct Reads {
    last_run: Option<RunInfo>,
    /// The enumeration tables paged from the closure the last run left
    /// (relational queries only). Valid for exactly that closure, so
    /// every run drops them.
    paths: Option<PathEnumerator>,
}

const UNREGISTERED: &str = "query not registered in this session";

/// Closes a read's `"session.evaluate"` span with its outcome. A read
/// that ran replaces the last run and drops what was built from the
/// closure it changed.
fn record(mut sp: SpanGuard, run: Option<RunInfo>, reads: &mut Reads) {
    let outcome = match &run {
        None => "cached",
        Some(run) if run.incremental => "repair",
        Some(_) => "cold",
    };
    sp.attr_str("outcome", outcome);
    if run.is_some() {
        *reads = Reads {
            last_run: run,
            paths: None,
        };
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
            terminals[nt.index()].push(&**m);
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
        self.rel.push(Reads::default());
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
        let (query, solved, run) = self.state.evaluate(id).expect(UNREGISTERED);
        record(sp, run, &mut self.rel[id.0]);
        let engine = self.state.index().engine().name();
        QueryAnswer::from_shared(engine, query.wcnf(), Arc::clone(solved))
    }

    /// The closed relational index of a query as of its last evaluation:
    /// `None` before the first, and after [`CfpqSession::add_edges`] until
    /// the next one repairs it.
    pub fn solved_index(&self, id: QueryId) -> Option<&RelationalIndex<E::Matrix>> {
        self.state.solved(id).map(|solved| &**solved)
    }

    /// What the last [`CfpqSession::evaluate`] or
    /// [`CfpqSession::enumerate_paths`] of this query actually did to
    /// its closure (cold vs incremental, and its kernel-work counters).
    /// `None` until the first of either.
    pub fn last_run(&self, id: QueryId) -> Option<&RunInfo> {
        self.rel.get(id.0)?.last_run.as_ref()
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
    /// If `id` does not belong to this session.
    pub fn enumerate_paths(
        &mut self,
        id: QueryId,
        from: NodeId,
        to: NodeId,
        page: PageRequest,
    ) -> PathPage {
        let sp = cfpq_obs::span("session.evaluate");
        let (query, solved, run) = self.state.evaluate(id).expect(UNREGISTERED);
        let reads = &mut self.rel[id.0];
        // The memoized length classes are exact-length sets over the edge
        // relation they were built from — any of them may grow with it,
        // so a run drops them and they are rebuilt, not patched.
        record(sp, run, reads);
        let (index, wcnf) = (self.state.index(), query.wcnf());
        reads
            .paths
            .get_or_insert_with(|| PathEnumerator::new(wcnf))
            .page(index, solved, wcnf.start, from, to, page)
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
        self.sp.push(Reads::default());
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
    /// evaluation, without forcing one (see [`CfpqSession::solved_index`]).
    pub fn single_path_index(&self, id: SinglePathId) -> Option<&SinglePathIndex<E::LenMatrix>> {
        self.state.solved_single_path(id).map(|solved| &**solved)
    }

    /// What the last [`CfpqSession::evaluate_single_path`] of this query
    /// actually did. `None` until the first evaluation.
    pub fn last_single_path_run(&self, id: SinglePathId) -> Option<&RunInfo> {
        self.sp.get(id.0)?.last_run.as_ref()
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

    /// How many edge batches each cell of `cells` waits for.
    fn pending<C>(cells: &Cells<C>) -> Vec<usize> {
        let stale = |cell: &Cell<C>| cell.stale.lock().unwrap().as_ref().map_or(0, |s| s.1.len());
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
        assert!(small.solved_index(q).is_none());
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
    fn the_closure_is_shared_with_live_answers_only() {
        let grammar = queries::query1();
        let graph = generators::paper_example();
        let mut session = CfpqSession::new(SparseEngine, &graph);
        let id = session.prepare(&grammar).unwrap();
        let handles = |s: &CfpqSession<SparseEngine>| {
            Arc::strong_count(s.state.solved(id).expect("evaluated"))
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
        // An update repairs both caches lazily, each on its own read.
        session.add_edges(&[(1, "subClassOf", 0)]);
        let answer = session.evaluate(rel);
        assert_eq!(pending(&session.state.sp), [1], "single-path still pending");
        let pairs = session.evaluate_single_path(sp).pairs(start);
        assert_eq!(answer.start_pairs(), pairs);
        assert_eq!(pending(&session.state.sp), [0], "both absorbed");
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
        let classes = |s: &CfpqSession<SparseEngine>| {
            let tables = s.rel[q.0].paths.as_ref();
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

//! One version of a graph and what is evaluated against it: the
//! prepared queries, their handles, and one closure cell per query.

use crate::all_paths::PathEnumerator;
use crate::index::{EdgeBatch, GraphIndex};
use crate::query::QueryAnswer;
use crate::relational::{FixpointSolver, RelationalIndex, SolveOptions, SolveStats, SourceClosure};
use crate::session::{solve_prepared, solve_prepared_single_path};
use crate::single_path::{SinglePathIndex, SinglePathSolver};
use cfpq_grammar::cnf::CnfOptions;
use cfpq_grammar::{Cfg, GrammarError, Wcnf};
use cfpq_graph::NodeId;
use cfpq_matrix::{BoolEngine, LenEngine, LenMat};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

#[cfg(doc)]
use crate::session::CfpqSession;

/// A grammar compiled for repeated evaluation: the weak-CNF
/// normalization runs once, here, instead of once per `solve` call. The
/// label→terminal binding is resolved against the session's index at
/// evaluation time (so labels added later still bind).
#[derive(Clone, Debug)]
pub struct PreparedQuery {
    wcnf: Wcnf,
    pub(crate) options: SolveOptions,
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
pub struct QueryId(pub(crate) usize);

/// Handle to a single-path query prepared on a [`GraphState`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SinglePathId(pub(crate) usize);

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

    /// The resume's ε-overlay covers the diagonal cells of the new
    /// nodes only: the matrices are widened here, and the resume moves
    /// `n_nodes`. First-write-wins means entries that survive keep their
    /// recorded witness lengths.
    fn repair(
        &mut self,
        index: &GraphIndex<E>,
        query: &PreparedQuery,
        batches: &[EdgeBatch],
    ) -> SolveStats {
        for m in &mut self.lengths {
            if m.n() < index.n_nodes {
                index.engine.len_grow(m, index.n_nodes);
            }
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

/// Locks a slot that is only ever taken or replaced whole, so a poisoned
/// value is valid.
fn lock<T>(slot: &Mutex<T>) -> MutexGuard<'_, T> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What reads derive from a relational closure, kept in its cell and
/// valid while the index is unchanged: [`Cell::absorb`] empties it, and
/// a clone of the cell starts empty.
pub(crate) struct Derived<M> {
    answer: OnceLock<QueryAnswer>,
    sources: Mutex<Option<SourceClosure<M>>>,
    paths: Mutex<Option<PathEnumerator>>,
}

impl<M> Default for Derived<M> {
    fn default() -> Self {
        Self {
            answer: OnceLock::new(),
            sources: Mutex::new(None),
            paths: Mutex::new(None),
        }
    }
}

/// The closure cell of one prepared query, filled by its first read,
/// and what reads derived from it (`D`; single-path cells keep none).
pub(crate) struct Cell<C, D = ()> {
    pub(crate) query: PreparedQuery,
    /// The closure, up to date with the index of the state holding it.
    solved: OnceLock<Arc<C>>,
    /// A closure solved before the index absorbed the batches beside it.
    /// Set only while `solved` is empty; the read that repairs it takes
    /// it whole, so a repair that panics leaves the cell empty.
    pub(crate) stale: Mutex<Option<(Arc<C>, Vec<EdgeBatch>)>>,
    derived: D,
}

impl<C, D: Default> Clone for Cell<C, D> {
    fn clone(&self) -> Self {
        let stale = lock(&self.stale).clone();
        Self {
            query: self.query.clone(),
            solved: self.solved.clone(),
            stale: Mutex::new(stale),
            derived: D::default(),
        }
    }
}

impl<C, D: Default> Cell<C, D> {
    fn new(query: PreparedQuery) -> Self {
        let (solved, stale) = (OnceLock::new(), Mutex::new(None));
        Self {
            query,
            solved,
            stale,
            derived: D::default(),
        }
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
            let (closure, stats, incremental) = match lock(&self.stale).take() {
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
        let stale = lock(&self.stale).is_some();
        stale.then(|| self.read(index).1).flatten()
    }

    /// Makes a solved closure stale for `batch`, which the index just
    /// absorbed, or adds `batch` to a stale one's. An empty cell stays
    /// empty: its cold solve reads the index. What reads derived from
    /// the old index goes first, so that with no caller holding an
    /// answer, the repair finds the closure unshared and works in place.
    fn absorb(&mut self, batch: &EdgeBatch) {
        self.derived = D::default();
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
pub(crate) struct Cells<C, D = ()> {
    #[allow(clippy::type_complexity)]
    buckets: [OnceLock<Box<[OnceLock<Cell<C, D>>]>>; usize::BITS as usize],
    /// A count only: each cell is published by its own `OnceLock`.
    len: AtomicUsize,
}

impl<C, D> Cells<C, D> {
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

    pub(crate) fn get(&self, i: usize) -> Option<&Cell<C, D>> {
        let (bucket, at) = Self::locate(i);
        self.buckets[bucket].get()?[at].get()
    }

    /// Appends `cell`; returns its index.
    fn push(&self, cell: Cell<C, D>) -> usize {
        let i = self.len.fetch_add(1, Ordering::Relaxed);
        let (bucket, at) = Self::locate(i);
        let new_bucket = || (0..1 << bucket).map(|_| OnceLock::new()).collect();
        let cells = self.buckets[bucket].get_or_init(new_bucket);
        assert!(cells[at].set(cell).is_ok(), "each index is handed out once");
        i
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &Cell<C, D>> {
        (0..self.len.load(Ordering::Relaxed)).filter_map(|i| self.get(i))
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut Cell<C, D>> {
        let buckets = self.buckets.iter_mut().filter_map(OnceLock::get_mut);
        buckets.flat_map(|cells| cells.iter_mut().filter_map(OnceLock::get_mut))
    }
}

impl<C, D: Default> Clone for Cells<C, D> {
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
    pub(crate) rel: Cells<RelationalIndex<E::Matrix>, Derived<E::Matrix>>,
    pub(crate) sp: Cells<SinglePathIndex<E::LenMatrix>>,
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

    /// Reads relational query `id`: its answer, a lazy view over the
    /// closure that every read shares until the index changes, and the
    /// run the read made; `None` if this state holds no such query.
    pub fn evaluate(&self, id: QueryId) -> Option<(QueryAnswer, Option<RunInfo>)> {
        let cell = self.rel.get(id.0)?;
        let (solved, run) = cell.read(&self.index);
        let answer = cell.derived.answer.get_or_init(|| {
            let engine = self.index.engine().name();
            QueryAnswer::from_shared(engine, cell.query.wcnf(), Arc::clone(solved))
        });
        Some((answer.clone(), run))
    }

    /// Reads relational query `id` and lends `page` the read and the
    /// cell's path enumerator, whose memo tables every page of the
    /// closure grows; `None` if this state holds no such query. The
    /// enumerator is out of the cell while `page` runs, so no lock is
    /// held and a `page` that panics drops it.
    pub fn paths<R>(
        &self,
        id: QueryId,
        page: impl FnOnce(&mut PathEnumerator, CellRead<'_, RelationalIndex<E::Matrix>>) -> R,
    ) -> Option<R> {
        let cell = self.rel.get(id.0)?;
        let (solved, run) = cell.read(&self.index);
        let taken = lock(&cell.derived.paths).take();
        let mut paths = taken.unwrap_or_else(|| PathEnumerator::new(cell.query.wcnf()));
        let out = page(&mut paths, (&cell.query, solved, run));
        *lock(&cell.derived.paths) = Some(paths);
        Some(out)
    }

    /// The cell's slot for the source-restricted closure that named-pair
    /// reads of relational query `id` grow while the cell is empty,
    /// locked; `None` if this state holds no such query.
    pub fn sources(&self, id: QueryId) -> Option<MutexGuard<'_, Option<SourceClosure<E::Matrix>>>> {
        Some(lock(&self.rel.get(id.0)?.derived.sources))
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

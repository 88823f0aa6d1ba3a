//! One version of a graph and what is evaluated against it: the
//! prepared queries, their handles, and one closure cell per query
//! ([`GraphState`] says which closure serves which query). What differs
//! per kind of closure — the cold solve and the algebra of its repair —
//! is the crate-private `CachedClosure`; the lifecycle around it is
//! written once here.
//!
//! A cell holds its closure in a `Slot`. Each event is one transition
//! of the slot under the cell's lock; solves and repairs run outside it,
//! and a hit reads a `Solved` closure without it:
//!
//! | slot | a read starts | the run settles | clone, `absorb` | `repair_stale` |
//! |---|---|---|---|---|
//! | `Empty` | cold solve → `Solving` | | `Empty`, `Empty` | |
//! | `Solving(run)` | waits, settles, reads again | `Solved`; `Empty` on a panic | shares the run, → `Stale` on it | |
//! | `Solved(c)` | hit | | shares `c`, → `Stale` on `c` | |
//! | `Stale { base, batches }` | repairs → `Solving` | | shares both, adds the batch | repairs → `Solving` once `base` finished |
//!
//! `base` is a finished closure or a run in flight, which the repair
//! waits for (a read cold-solves if that run panicked). A run that
//! panics settles its slot `Empty` and its waiters read again, so none
//! waits for ever, and a clone of a solving cell adopts the run: a
//! publish neither waits for it nor solves it anew.

use crate::all_paths::{PathEnumerator, Relation};
use crate::fixpoint::{self, Algebra, Boolean, Closed, Lengths};
use crate::index::{EdgeBatch, GraphIndex};
use crate::query::QueryAnswer;
use crate::relational::{RelationalIndex, SolveOptions, SolveStats, SourceClosure};
use crate::session::{solve_prepared, solve_prepared_single_path};
use crate::single_path::SinglePathIndex;
use cfpq_grammar::cnf::CnfOptions;
use cfpq_grammar::{Cfg, GrammarError, Wcnf};
use cfpq_graph::NodeId;
use cfpq_matrix::{BoolEngine, BoolMat, LenEngine, LenMat};
use std::mem;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// A grammar compiled for repeated evaluation: normalized to weak CNF
/// once, here. Its terminals bind to the index's labels by name at
/// evaluation time, so labels added later still bind.
#[derive(Clone, Debug, PartialEq, Eq)]
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

/// Handle to a relational query prepared on a [`GraphState`], a
/// session's or a service's.
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

/// What a read of a query ran: a cold solve or an incremental repair,
/// and how much kernel work it launched.
#[derive(Clone, Debug)]
pub struct RunInfo {
    /// Kernel-work counters of that run alone (not cumulative).
    pub stats: SolveStats,
    /// Fixpoint sweeps of that run alone.
    pub sweeps: usize,
    /// `true` if the run repaired a cached closure for the batches of
    /// edges its index absorbed since; `false` for a cold solve.
    pub incremental: bool,
}

/// A closure that a [`GraphState`] caches per prepared query — a
/// [`RelationalIndex`] or a [`SinglePathIndex`]: how it is cold-solved
/// and which algebra its sweeps run, so that its lifecycle and its
/// repair are written once.
pub(crate) trait CachedClosure<E: BoolEngine>: Closed + Clone {
    /// The kind of query the closure serves, as the `kind` attribute of
    /// the `"query.cold"` and `"query.repair"` spans of its reads.
    const KIND: &'static str;

    /// Cold solve: seeds straight from the index's label matrices, then
    /// the fixpoint.
    fn cold_solve(index: &GraphIndex<E>, query: &PreparedQuery) -> Self;

    /// The element algebra of the closure's sweeps on `engine`.
    fn algebra(engine: &E) -> impl Algebra<Matrix = Self::Matrix> + '_;

    /// The nodes the closure covers.
    fn n_nodes(&self) -> usize;

    /// Repairs the closure in place for `seeds`, which batches `index`
    /// absorbed since seed ([`GraphIndex::batch_seeds`]): widens it to the
    /// grown node universe, resumes the semi-naive Δ loop from the seeds
    /// and overlays the new nodes' ε-diagonal. Returns the stats of the
    /// repair alone.
    fn repair(
        &mut self,
        index: &GraphIndex<E>,
        query: &PreparedQuery,
        seeds: &[Vec<(u32, u32)>],
    ) -> SolveStats {
        let (wcnf, algebra) = (query.wcnf(), Self::algebra(&index.engine));
        fixpoint::repair(&algebra, self, wcnf, query.options, index.n_nodes, seeds)
            .expect("seeds read off the grown index are cells of it")
    }
}

impl<E: BoolEngine> CachedClosure<E> for RelationalIndex<E::Matrix> {
    const KIND: &'static str = "relational";

    fn cold_solve(index: &GraphIndex<E>, query: &PreparedQuery) -> Self {
        solve_prepared(index, query)
    }

    fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    fn algebra(engine: &E) -> impl Algebra<Matrix = E::Matrix> + '_ {
        Boolean(engine)
    }
}

impl<E: BoolEngine + LenEngine> CachedClosure<E> for SinglePathIndex<E::LenMatrix> {
    const KIND: &'static str = "single_path";

    fn cold_solve(index: &GraphIndex<E>, query: &PreparedQuery) -> Self {
        solve_prepared_single_path(index, query)
    }

    fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    fn algebra(engine: &E) -> impl Algebra<Matrix = E::LenMatrix> + '_ {
        Lengths(engine)
    }
}

/// Locks a slot that is only ever taken or replaced whole, so a poisoned
/// value is valid.
fn lock<T>(slot: &Mutex<T>) -> MutexGuard<'_, T> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What reads derive from a relational closure, kept in its cell until
/// the index changes ([`Cell::absorb`]); a clone of the cell starts empty.
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

/// A run in flight: set once, to the closure it made or to `None` if it
/// panicked. The slots that wait for it share it.
type Flight<C> = Arc<OnceLock<Option<Arc<C>>>>;

/// The closure a stale slot repairs: a finished one, or one in flight.
#[derive(Clone)]
enum Base<C> {
    Done(Arc<C>),
    InFlight(Flight<C>),
}

/// The lifecycle of a cell's closure; the module doc has its table.
#[derive(Clone)]
enum Slot<C> {
    Empty,
    Solving(Flight<C>),
    Solved(Arc<C>),
    Stale {
        base: Base<C>,
        batches: Vec<EdgeBatch>,
    },
}

/// A run a slot hands out: its flight, and the base to repair for the
/// batches (`None`: a cold solve).
type Run<C> = (Flight<C>, Option<(Base<C>, Vec<EdgeBatch>)>);

/// What a read does after its transition: hit, wait for the run in
/// flight and read again, or run.
enum Step<C> {
    Hit(Arc<C>),
    Wait(Flight<C>),
    Run(Run<C>),
}

impl<C> Slot<C> {
    /// A read starts.
    fn read(&mut self) -> Step<C> {
        match self {
            Slot::Solved(closure) => Step::Hit(closure.clone()),
            Slot::Solving(flight) => Step::Wait(flight.clone()),
            Slot::Empty | Slot::Stale { .. } => Step::Run(self.start()),
        }
    }

    /// Hands out a run, which the slot is `Solving` on from now on.
    fn start(&mut self) -> Run<C> {
        let flight = Flight::default();
        match mem::replace(self, Slot::Solving(flight.clone())) {
            Slot::Stale { base, batches } => (flight, Some((base, batches))),
            _ => (flight, None),
        }
    }

    /// A run settles: a slot `Solving` on it holds its closure, or is
    /// `Empty` again if it panicked.
    fn settle(&mut self, flight: &Flight<C>, outcome: Option<Arc<C>>) {
        if matches!(self, Slot::Solving(f) if Arc::ptr_eq(f, flight)) {
            *self = outcome.map_or(Slot::Empty, Slot::Solved);
        }
    }

    /// The index absorbed `batch`.
    fn absorb(&mut self, batch: &EdgeBatch) {
        let (base, mut batches) = match mem::replace(self, Slot::Empty) {
            Slot::Empty => return,
            Slot::Solving(flight) => (Base::InFlight(flight), Vec::new()),
            Slot::Solved(closure) => (Base::Done(closure), Vec::new()),
            Slot::Stale { base, batches } => (base, batches),
        };
        batches.push(batch.clone());
        *self = Slot::Stale { base, batches };
    }

    /// A publish repairs a stale slot whose base is finished: it waits
    /// for no read, and a panicked base is left to a read's cold solve.
    fn repair_stale(&mut self) -> Option<Run<C>> {
        let Slot::Stale { base, .. } = self else {
            return None;
        };
        if let Base::InFlight(flight) = base {
            flight.get()?.as_ref()?; // still running, or panicked
        }
        Some(self.start())
    }
}

/// The closure cell of one prepared query, filled by its first read,
/// and what reads derived from it (`D`; single-path cells keep none).
pub(crate) struct Cell<C, D = ()> {
    pub(crate) query: PreparedQuery,
    /// Relational cells only: the single-path cell of the same query,
    /// which serves this cell's reads. Set once, when the later of the
    /// two is prepared; this cell's own closure is then never solved.
    twin: OnceLock<usize>,
    /// Each transition is made under this lock; no run holds it.
    slot: Mutex<Slot<C>>,
    /// A `Solved` slot's closure, set under the lock, for hits without it.
    hit: OnceLock<Arc<C>>,
    derived: D,
}

impl<C: Clone, D: Default> Clone for Cell<C, D> {
    fn clone(&self) -> Self {
        let slot = lock(&self.slot);
        Self {
            query: self.query.clone(),
            twin: self.twin.clone(),
            slot: Mutex::new(slot.clone()),
            hit: self.hit.clone(),
            derived: D::default(),
        }
    }
}

impl<C, D: Default> Cell<C, D> {
    fn new(query: PreparedQuery) -> Self {
        Self {
            query,
            twin: OnceLock::new(),
            slot: Mutex::new(Slot::Empty),
            hit: OnceLock::new(),
            derived: D::default(),
        }
    }

    /// The closure up to date with the index, and the run the read made:
    /// `None` for a hit, or for a wait on another read's run.
    fn read<E: BoolEngine>(&self, index: &GraphIndex<E>) -> (&Arc<C>, Option<RunInfo>)
    where
        C: CachedClosure<E>,
    {
        loop {
            if let Some(closure) = self.hit.get() {
                return (closure, None);
            }
            let step = lock(&self.slot).read();
            match step {
                Step::Hit(closure) => return (self.hit.get_or_init(|| closure), None),
                Step::Wait(flight) => self.settle(&flight, flight.wait().clone()),
                Step::Run(run) => {
                    let run = self.run(index, run);
                    return (self.hit.get().expect("a run settles its slot"), Some(run));
                }
            }
        }
    }

    /// Settles the slot, and publishes a solved closure for hits.
    fn settle(&self, flight: &Flight<C>, outcome: Option<Arc<C>>) {
        let mut slot = lock(&self.slot);
        slot.settle(flight, outcome);
        if let Slot::Solved(closure) = &*slot {
            let _ = self.hit.set(closure.clone());
        }
    }

    /// Runs outside the lock, then settles the slot and the flight with
    /// the closure, or with `None` if the run panics, and unwinds on.
    fn run<E: BoolEngine>(&self, index: &GraphIndex<E>, (flight, repair): Run<C>) -> RunInfo
    where
        C: CachedClosure<E>,
    {
        let ran = panic::catch_unwind(AssertUnwindSafe(|| self.solve(index, repair)));
        let (closure, run) = ran.unwrap_or_else(|panic| {
            self.settle(&flight, None);
            let _ = flight.set(None);
            panic::resume_unwind(panic)
        });
        self.settle(&flight, Some(closure.clone()));
        let _ = flight.set(Some(closure));
        run
    }

    /// A repair of `base` for the batches, after waiting for it if it is
    /// in flight, or a cold solve if there is none or its run panicked.
    fn solve<E: BoolEngine>(
        &self,
        index: &GraphIndex<E>,
        repair: Option<(Base<C>, Vec<EdgeBatch>)>,
    ) -> (Arc<C>, RunInfo)
    where
        C: CachedClosure<E>,
    {
        let mut waited = None;
        let repair = repair.and_then(|(base, batches)| match base {
            // Taken by value, not cloned: with no answer or other epoch
            // holding the closure, `make_mut` repairs it in place.
            Base::Done(closure) => Some((closure, batches)),
            Base::InFlight(flight) => {
                let started = Instant::now();
                let closure = flight.wait().clone()?;
                waited = Some(started.elapsed().as_micros() as u64);
                Some((closure, batches))
            }
        });
        let (closure, stats, incremental, mut sp) = match repair {
            Some((mut closure, batches)) => {
                let sp = cfpq_obs::span("query.repair");
                // Seeded before it is copied: batches that seed nothing
                // and add no node leave the closure as it is, so it is
                // republished, not copied from an epoch that holds it.
                let seeds = index.batch_seeds(self.query.wcnf(), &batches);
                let stats = if seeds.iter().all(Vec::is_empty) && closure.n_nodes() >= index.n_nodes
                {
                    SolveStats::default()
                } else {
                    Arc::make_mut(&mut closure).repair(index, &self.query, &seeds)
                };
                (closure, stats, true, sp)
            }
            None => {
                let sp = cfpq_obs::span("query.cold");
                let mut closure = C::cold_solve(index, &self.query);
                // A cold solve's cumulative counters are its run's.
                let stats = closure.parts().3.clone();
                (Arc::new(closure), stats, false, sp)
            }
        };
        let sweeps = stats.sweep_nnz.len();
        if sp.is_recording() {
            sp.attr_str("kind", C::KIND);
            sp.attr_u64("n_nodes", index.n_nodes as u64);
            sp.attr_u64("sweeps", sweeps as u64);
            sp.attr_u64("products", stats.products_computed as u64);
            if let Some(waited) = waited {
                sp.attr_str("base", "in_flight");
                sp.attr_u64("waited_us", waited);
            }
        }
        let run = RunInfo {
            stats,
            sweeps,
            incremental,
        };
        (closure, run)
    }

    /// The run of a repair if the cell is stale on a finished closure.
    fn repair_stale<E: BoolEngine>(&self, index: &GraphIndex<E>) -> Option<RunInfo>
    where
        C: CachedClosure<E>,
    {
        let run = lock(&self.slot).repair_stale()?;
        Some(self.run(index, run))
    }

    /// The index just absorbed `batch`; a cell its twin serves drops its
    /// closure. What reads derived from the old index goes first, so that
    /// with no caller holding an answer, the repair finds the closure
    /// unshared and works in place.
    fn absorb(&mut self, batch: &EdgeBatch) {
        self.derived = D::default();
        self.hit.take();
        let slot = self.slot.get_mut().unwrap_or_else(PoisonError::into_inner);
        match self.twin.get() {
            Some(_) => *slot = Slot::Empty,
            None => slot.absorb(batch),
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

    /// The index of the first cell prepared for `query`.
    fn find(&self, query: &PreparedQuery) -> Option<usize> {
        let len = self.len.load(Ordering::Relaxed);
        (0..len).find(|&i| self.get(i).is_some_and(|cell| cell.query == *query))
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut Cell<C, D>> {
        let buckets = self.buckets.iter_mut().filter_map(OnceLock::get_mut);
        buckets.flat_map(|cells| cells.iter_mut().filter_map(OnceLock::get_mut))
    }
}

impl<C: Clone, D: Default> Clone for Cells<C, D> {
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
/// per grammar, held in the cell of the query whose read fills it.
///
/// A read cold-solves the closure, repairs it for every batch
/// [`GraphState::add_edges`] added since in one resume, or hits, and
/// reports which; concurrent readers wait for one run. Only
/// [`GraphState::repair_stale`] repairs before a read asks: a service
/// publish calls it, a [`crate::session::CfpqSession`] never does. A
/// clone costs O(labels + prepared queries): it shares the closures,
/// finished or still being solved, and the index's labels copy-on-write;
/// a query prepared on either afterwards does not reach the other.
///
/// A relational query is linked to the first single-path query with the
/// same grammar and options, in either prepare order
/// ([`GraphState::twin`]; two relational queries are never linked): its
/// reads read that query's length cell, report its run, and serve from
/// the lengths' support (`supp L_A = T_A`) through one [`Relation`]. Its
/// own Boolean closure is never solved; one solved before the link goes
/// with the next batch. `prepare*` takes `&self`, so readers may share
/// the state (two racing prepares may leave a pair unlinked, costing
/// only the sharing).
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

    /// Registers a relational query, unsolved until read, and links it
    /// to a single-path query of the same grammar and options if this
    /// state holds one.
    pub fn prepare(&self, query: PreparedQuery) -> QueryId {
        let cell = Cell::new(query);
        if let Some(twin) = self.sp.find(&cell.query) {
            cell.twin.set(twin).expect("a new cell has no twin");
        }
        QueryId(self.rel.push(cell))
    }

    /// Registers a single-path (§5) query, unsolved until read, and
    /// links to it every relational query of the same grammar and
    /// options that has no twin yet.
    pub fn prepare_single_path(&self, query: PreparedQuery) -> SinglePathId {
        let i = self.sp.push(Cell::new(query));
        let query = &self.sp.get(i).expect("pushed above").query;
        for cell in self.rel.iter().filter(|cell| cell.query == *query) {
            // A query linked already keeps its first twin.
            let _ = cell.twin.set(i);
        }
        SinglePathId(i)
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

    /// The single-path query whose length closure serves relational
    /// query `id`, if it is linked to one.
    pub fn twin(&self, id: QueryId) -> Option<SinglePathId> {
        Some(SinglePathId(*self.rel.get(id.0)?.twin.get()?))
    }

    /// Whether a read of relational query `id` would hit; `false` if this
    /// state holds no such query.
    pub fn is_solved(&self, id: QueryId) -> bool {
        let Some(cell) = self.rel.get(id.0) else {
            return false;
        };
        let twin = cell.twin.get().and_then(|&twin| self.sp.get(twin));
        twin.map_or(cell.hit.get().is_some(), |twin| twin.hit.get().is_some())
    }

    /// The closure of single-path query `id` as it stands, not solved or
    /// repaired: `None` while its cell is empty or stale.
    pub fn solved_single_path(
        &self,
        id: SinglePathId,
    ) -> Option<&Arc<SinglePathIndex<E::LenMatrix>>> {
        self.sp.get(id.0)?.hit.get()
    }

    /// Heap bytes of the closures this state holds solved and up to date
    /// (by capacity, [`BoolMat::bytes`] and [`LenMat::bytes`]): one per
    /// grammar that has been read, so a linked grammar counts its
    /// length closure once and no Boolean one.
    pub fn closure_bytes(&self) -> usize {
        let rel = self.rel.iter().filter_map(|cell| cell.hit.get());
        let sp = self.sp.iter().filter_map(|cell| cell.hit.get());
        let rel = rel.flat_map(|closure| closure.matrices.iter().map(BoolMat::bytes));
        rel.chain(sp.flat_map(|closure| closure.lengths.iter().map(LenMat::bytes)))
            .sum()
    }

    /// Reads the closure that serves a relational `cell` — its own, or
    /// its single-path twin's — and the run the read made.
    fn read(
        &self,
        cell: &Cell<RelationalIndex<E::Matrix>, Derived<E::Matrix>>,
    ) -> (Arc<dyn Relation + Send + Sync>, Option<RunInfo>) {
        if let Some(&twin) = cell.twin.get() {
            let twin = self.sp.get(twin).expect("a twin is a cell of this state");
            let (closure, run) = twin.read(&self.index);
            return (closure.clone(), run);
        }
        let (closure, run) = cell.read(&self.index);
        (closure.clone(), run)
    }

    /// Reads relational query `id`: its answer, a lazy view over the
    /// closure that serves it, which every read shares until the index
    /// changes, and the run the read made; `None` if this state holds no
    /// such query.
    pub fn evaluate(&self, id: QueryId) -> Option<(QueryAnswer, Option<RunInfo>)> {
        let cell = self.rel.get(id.0)?;
        let (closure, run) = self.read(cell);
        let backend = self.index.engine().name();
        let answer = cell
            .derived
            .answer
            .get_or_init(|| QueryAnswer::over(backend, cell.query.wcnf(), closure));
        Some((answer.clone(), run))
    }

    /// Reads relational query `id` through [`GraphState::evaluate`] and
    /// lends `page` the cell's path enumerator, whose memo tables every
    /// page grows, with the query, the relation and the run the read
    /// made; `None` if this state holds no such query. No lock is held
    /// while `page` runs, and a `page` that panics drops the enumerator.
    pub fn paths<R>(
        &self,
        id: QueryId,
        page: impl FnOnce(&mut PathEnumerator, (&PreparedQuery, &dyn Relation, Option<RunInfo>)) -> R,
    ) -> Option<R> {
        let (answer, run) = self.evaluate(id)?;
        let cell = self.rel.get(id.0)?;
        let taken = lock(&cell.derived.paths).take();
        let mut paths = taken.unwrap_or_else(|| PathEnumerator::new(cell.query.wcnf()));
        let out = page(&mut paths, (&cell.query, answer.relation(), run));
        *lock(&cell.derived.paths) = Some(paths);
        Some(out)
    }

    /// The cell's slot for the source-restricted closure that named-pair
    /// reads of relational query `id` grow while the closure serving it
    /// is unsolved, locked; `None` if this state holds no such query.
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

    /// Repairs every stale closure whose base is finished now, relational
    /// queries first, each in handle order; `report` gets each repair's
    /// run. A closure a reader is still solving is left to the first
    /// read, which waits for it.
    pub fn repair_stale(&self, report: impl FnMut(RunInfo)) {
        let index = &self.index;
        let rel = self.rel.iter().filter_map(|cell| cell.repair_stale(index));
        let sp = self.sp.iter().filter_map(|cell| cell.repair_stale(index));
        rel.chain(sp).for_each(report);
    }
}

#[cfg(test)]
impl<C, D> Cell<C, D> {
    /// The closure a hit serves, and how many batches a stale slot waits
    /// for (`None` unless the slot is stale).
    pub(crate) fn peek(&self) -> (Option<&Arc<C>>, Option<usize>) {
        let pending = match &*lock(&self.slot) {
            Slot::Stale { batches, .. } => Some(batches.len()),
            _ => None,
        };
        (self.hit.get(), pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpq_graph::Graph;
    use cfpq_matrix::SparseEngine;

    /// Events of the model: reads, the settling of the run in flight in
    /// an epoch's cell, a waiting reader of an epoch resuming, the
    /// publish of epoch 1 (a clone of epoch 0 that absorbed a batch) and
    /// its `repair_stale`.
    #[derive(Clone, Copy, Debug)]
    enum Event {
        Read(usize),
        Finish(usize),
        Panic(usize),
        Resume(usize),
        Publish,
        RepairStale,
    }

    const EVENTS: [Event; 10] = [
        Event::Read(0),
        Event::Read(1),
        Event::Finish(0),
        Event::Finish(1),
        Event::Panic(0),
        Event::Panic(1),
        Event::Resume(0),
        Event::Resume(1),
        Event::Publish,
        Event::RepairStale,
    ];

    /// One query's cells over epochs 0 and 1, with no threads: a closure
    /// is the number of batches its index absorbed, so epoch `e`'s
    /// version is `e`.
    struct World {
        slots: Vec<Slot<usize>>,
        /// The run each cell's slot is `Solving` on, until it settles.
        runs: Vec<Option<Run<usize>>>,
        /// The runs each epoch's waiting readers wait for.
        waits: Vec<Vec<Flight<usize>>>,
        /// Whether a closure, finished or in flight, was ever in the
        /// epoch's lineage: its own cell's, or epoch 0's at the publish.
        held: Vec<bool>,
        panicked: bool,
        /// Repairs run on a base that was in flight at the publish, and
        /// cold solves that replaced a panicked base.
        adopted: usize,
        degraded: usize,
    }

    impl World {
        fn new() -> Self {
            Self {
                slots: vec![Slot::Empty],
                runs: vec![None],
                waits: vec![Vec::new()],
                held: vec![false],
                panicked: false,
                adopted: 0,
                degraded: 0,
            }
        }

        fn read(&mut self, e: usize) {
            match self.slots[e].read() {
                Step::Hit(closure) => assert_eq!(*closure, e, "I2: a hit serves its epoch"),
                Step::Wait(flight) => self.waits[e].push(flight),
                Step::Run(run) => self.start(e, run),
            }
        }

        fn start(&mut self, e: usize, run: Run<usize>) {
            let cold = run.1.is_none();
            assert!(!cold || self.panicked || !self.held[e], "I1: a cold solve");
            self.held[e] = true;
            assert!(self.runs[e].replace(run).is_none(), "one run per cell");
        }

        /// Applies `event`; `None` if it cannot happen now.
        fn apply(&mut self, event: Event, batch: &EdgeBatch) -> Option<()> {
            match event {
                Event::Read(e) => {
                    self.slots.get(e)?;
                    self.read(e);
                }
                Event::Finish(e) => {
                    let run = self.runs.get_mut(e)?;
                    if let Some((Base::InFlight(base), _)) = &run.as_ref()?.1 {
                        base.get()?; // still waiting for its base
                    }
                    let (flight, repair) = run.take()?;
                    let closure = match repair {
                        None => e,
                        Some((base, batches)) => {
                            let base = match base {
                                Base::Done(closure) => Some(*closure),
                                Base::InFlight(base) => {
                                    let closure = base.get().unwrap().as_deref().copied();
                                    self.adopted += usize::from(closure.is_some());
                                    self.degraded += usize::from(closure.is_none());
                                    closure
                                }
                            };
                            assert!(base.is_some() || self.panicked, "I1: a lost base");
                            base.map_or(e, |base| base + batches.len())
                        }
                    };
                    assert_eq!(closure, e, "I2: a run serves its epoch");
                    let closure = Arc::new(closure);
                    self.slots[e].settle(&flight, Some(closure.clone()));
                    flight.set(Some(closure)).unwrap();
                }
                Event::Panic(e) => {
                    let (flight, _) = self.runs.get_mut(e)?.take()?;
                    self.slots[e].settle(&flight, None);
                    flight.set(None).unwrap();
                    self.panicked = true;
                }
                Event::Resume(e) => {
                    let waits = self.waits.get_mut(e)?;
                    let at = waits.iter().position(|flight| flight.get().is_some())?;
                    let flight = waits.remove(at);
                    self.slots[e].settle(&flight, flight.get().unwrap().clone());
                    self.read(e);
                }
                Event::Publish => {
                    (self.slots.len() == 1).then_some(())?;
                    let mut slot = self.slots[0].clone();
                    slot.absorb(batch);
                    self.held.push(!matches!(self.slots[0], Slot::Empty));
                    self.slots.push(slot);
                    self.runs.push(None);
                    self.waits.push(Vec::new());
                }
                Event::RepairStale => {
                    if let Some(run) = self.slots.get_mut(1)?.repair_stale() {
                        let waits =
                            matches!(&run.1, Some((Base::InFlight(f), _)) if f.get().is_none());
                        assert!(!waits, "a publish waits for a read");
                        self.start(1, run);
                    }
                }
            }
            self.check();
            Some(())
        }

        /// I3: a slot is `Solving` exactly while its cell's run is live,
        /// so a panic leaves none behind, and every run a reader or a
        /// stale base waits for is live or settled.
        fn check(&self) {
            let live = |flight: &Flight<usize>| {
                let run = |run: &Option<Run<usize>>| {
                    run.as_ref().is_some_and(|run| Arc::ptr_eq(&run.0, flight))
                };
                flight.get().is_some() || self.runs.iter().any(run)
            };
            for (e, slot) in self.slots.iter().enumerate() {
                match (slot, &self.runs[e]) {
                    (Slot::Solving(flight), Some(run)) => {
                        assert!(Arc::ptr_eq(flight, &run.0), "I3: solving on its run")
                    }
                    (Slot::Solving(_), None) => panic!("I3: solving with no run"),
                    (_, Some(_)) => panic!("I3: a run its slot left"),
                    (
                        Slot::Stale {
                            base: Base::InFlight(base),
                            ..
                        },
                        None,
                    ) => {
                        assert!(live(base), "I3: a stale base nobody runs")
                    }
                    _ => {}
                }
                assert!(
                    self.waits[e].iter().all(live),
                    "I3: a reader waits for ever"
                );
            }
        }
    }

    /// Replays `events` from the start (flights are shared, so a world
    /// is not cloned) and explores every event after them.
    fn explore(events: &mut Vec<Event>, depth: usize, batch: &EdgeBatch, seen: &mut [usize; 3]) {
        let mut world = World::new();
        for &event in events.iter() {
            if world.apply(event, batch).is_none() {
                return;
            }
        }
        seen[0] += 1;
        seen[1] += world.adopted;
        seen[2] += world.degraded;
        if events.len() < depth {
            for event in EVENTS {
                events.push(event);
                explore(events, depth, batch, seen);
                events.pop();
            }
        }
    }

    #[test]
    fn a_batch_that_seeds_nothing_republishes_the_closures_it_repairs() {
        // Neither grammar reads `pad`.
        let mut graph = Graph::new(4);
        graph.add_edge_named(0, "a", 1);
        graph.add_edge_named(1, "b", 2);
        graph.add_edge_named(2, "pad", 3);
        let prepared = |g: &str| PreparedQuery::new(&Cfg::parse(g).unwrap()).unwrap();
        let state = GraphState::new(GraphIndex::build(SparseEngine, &graph));
        let rel = state.prepare(prepared("S -> a S b | a b"));
        let sp = state.prepare_single_path(prepared("S -> a b"));
        let answer = state.evaluate(rel).unwrap().0.start_pairs().to_vec();
        state.evaluate_single_path(sp).unwrap();
        let closures = |s: &GraphState<SparseEngine>| {
            let rel = s.rel.get(rel.0).unwrap().peek().0.cloned().unwrap();
            (rel, s.sp.get(sp.0).unwrap().peek().0.cloned().unwrap())
        };
        let (old_rel, old_sp) = closures(&state);
        // `state` stays pinned as the old snapshot while `next` publishes
        // one batch after another.
        let mut next = state.clone();
        let publish = |next: &mut GraphState<SparseEngine>, edges: &[(NodeId, &str, NodeId)]| {
            assert_eq!(next.add_edges(edges), edges.len());
            let mut runs = Vec::new();
            next.repair_stale(|run| runs.push(run));
            assert!(runs.len() == 2 && runs.iter().all(|run| run.incremental));
            let products = runs
                .iter()
                .map(|run| run.stats.products_computed)
                .sum::<usize>();
            let (rel, sp) = closures(next);
            (
                Arc::ptr_eq(&rel, &old_rel),
                Arc::ptr_eq(&sp, &old_sp),
                products,
            )
        };
        // A `pad` edge between old nodes seeds nothing: both closures are
        // republished as they are, each a repair with no product.
        assert_eq!(publish(&mut next, &[(3, "pad", 0)]), (true, true, 0));
        // A `pad` edge to a new node widens them: both are copied.
        assert_eq!(publish(&mut next, &[(3, "pad", 4)]), (false, false, 0));
        assert_eq!(closures(&next).1.n_nodes, 5);
        // A label a rule reads seeds the copies, and the old snapshot
        // keeps its closures and its answer.
        let (_, _, products) = publish(&mut next, &[(2, "a", 0)]);
        assert!(products > 0);
        assert!(Arc::ptr_eq(&closures(&state).0, &old_rel));
        assert_eq!(state.evaluate(rel).unwrap().0.start_pairs(), answer);
    }

    #[test]
    fn every_event_sequence_keeps_the_cell_invariants() {
        let mut graph = Graph::new(2);
        graph.add_edge_named(0, "a", 1);
        let batch = GraphIndex::build(SparseEngine, &graph).add_edges(&[(1, "a", 0)]);
        let mut seen = [0; 3];
        explore(&mut Vec::new(), 8, &batch, &mut seen);
        let [sequences, adopted, degraded] = seen;
        assert!(sequences > 10_000, "{sequences} sequences");
        assert!(
            adopted > 0 && degraded > 0,
            "{adopted} adopted, {degraded} degraded"
        );
    }
}

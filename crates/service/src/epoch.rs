//! Epochs: one immutable version of the graph — a [`GraphState`] that
//! absorbed every batch so far, with every closure it inherited
//! repaired and nothing derived from the epoch before — the
//! [`Snapshot`] that pins one, and the per-epoch [`ServiceStats`].

use crate::obs::FailureSnapshot;
use crate::{QueryId, ServiceEngine, ServiceError, SinglePathId};
use cfpq_core::query::QueryAnswer;
use cfpq_core::session::{GraphState, PreparedQuery, RunInfo};
use cfpq_core::single_path::SinglePathIndex;
use cfpq_matrix::LenEngine;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[cfg(doc)]
use crate::{CfpqService, ServiceConfig};

/// Per-epoch service counters (see [`CfpqService::stats`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceStats {
    /// Epoch number (0 = the build epoch).
    pub epoch: u64,
    /// Wall time to build and publish this epoch, milliseconds: index
    /// build for epoch 0, clone + closure repairs + atomic swap for
    /// every later epoch. Readers of the previous epoch were never
    /// blocked during this window.
    pub publish_ms: f64,
    /// Requests answered against this epoch (scheduler requests plus
    /// direct snapshot evaluations).
    pub queries_served: u64,
    /// Scheduler batches served (each batch shares one closure lookup).
    pub batches: u64,
    /// Evaluations answered from an already-solved closure (an `Arc`
    /// bump, no kernel work) — including named-pair batches whose rows
    /// a source-restricted closure already held.
    pub cache_hits: u64,
    /// Closures cold-solved in this epoch: all-pairs ones, and the first
    /// source-restricted solve of each query.
    pub cold_solves: u64,
    /// Matrix products launched by those cold solves and by extensions
    /// of source-restricted closures.
    pub cold_products: u64,
    /// Closures repaired from the previous epoch, one per closure: at
    /// publish time, or by the first read of one the publish adopted
    /// while a reader was solving it. A grammar prepared both
    /// relationally and single-path has one (its length closure), so it
    /// counts one repair, and the reads of its two handles that follow
    /// are hits.
    pub repairs: u64,
    /// Matrix products launched by those repairs (the incremental cost
    /// of the update; compare with `cold_products`).
    pub repair_products: u64,
    /// Witness paths streamed to [`CfpqService::enqueue_paths`] tickets
    /// answered against this epoch.
    pub paths_served: u64,
    /// Path pages returned non-exhausted (cut by the request's `limit`
    /// or the service's `path_quota`) — nonzero means some client saw a
    /// truncated page and may want to resume with `offset` paging.
    pub pages_truncated: u64,
    /// Batches whose worker panicked mid-serve; each resolved its
    /// tickets to [`ServiceError::WorkerPanicked`] instead of hanging
    /// them or poisoning the scheduler.
    pub worker_panics: u64,
    /// Workers respawned by their supervisor loop after a panic
    /// escaped a batch. Pairs with `worker_panics`: the pool heals
    /// itself instead of shrinking.
    pub worker_restarts: u64,
    /// Requests shed at enqueue time because the queue was at
    /// [`ServiceConfig::max_queued`] ([`ServiceError::Overloaded`]).
    pub requests_shed: u64,
    /// Requests dropped at dispatch because their deadline had expired
    /// ([`ServiceError::Deadline`]).
    pub deadline_expired: u64,
}

#[derive(Default)]
pub(crate) struct EpochCounters {
    pub(crate) queries_served: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) cache_hits: AtomicU64,
    pub(crate) cold_solves: AtomicU64,
    pub(crate) cold_products: AtomicU64,
    pub(crate) repairs: AtomicU64,
    pub(crate) repair_products: AtomicU64,
    pub(crate) paths_served: AtomicU64,
    pub(crate) pages_truncated: AtomicU64,
}

impl EpochCounters {
    /// Charges one read of a closure cell: a cache hit, or the cold solve
    /// or repair it ran, with that run's products.
    pub(crate) fn charge(&self, run: Option<RunInfo>) {
        let Some(run) = run else {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let (runs, products) = if run.incremental {
            (&self.repairs, &self.repair_products)
        } else {
            (&self.cold_solves, &self.cold_products)
        };
        runs.fetch_add(1, Ordering::Relaxed);
        let launched = run.stats.products_computed as u64;
        products.fetch_add(launched, Ordering::Relaxed);
    }
}

/// Queued handles were checked at enqueue, queries are never
/// unregistered, and every epoch holds the queries of the ones before.
pub(crate) const CHECKED: &str = "query checked at enqueue";

/// `UnknownQuery` unless `id` is one of the `registered` handles of its
/// kind.
fn known(id: usize, registered: usize) -> Result<(), ServiceError> {
    let unknown = ServiceError::UnknownQuery { id, registered };
    (id < registered).then_some(()).ok_or(unknown)
}

/// One immutable version of the graph: its [`GraphState`] — index,
/// prepared queries, and per query a closure cell with what readers
/// derived from the closure — and the counters charged to it.
pub(crate) struct Epoch<E: ServiceEngine> {
    pub(crate) epoch: u64,
    pub(crate) state: GraphState<E>,
    pub(crate) counters: Arc<EpochCounters>,
}

impl<E: ServiceEngine> Epoch<E> {
    pub(crate) fn new(epoch: u64, state: GraphState<E>, counters: Arc<EpochCounters>) -> Self {
        Self {
            epoch,
            state,
            counters,
        }
    }

    /// Fails typed unless this epoch holds relational query `id`.
    /// Handles come from outside, so every entry point that takes one —
    /// `enqueue*`, the snapshot reads — checks it here.
    pub(crate) fn check(&self, id: QueryId) -> Result<(), ServiceError> {
        known(id.index(), self.state.n_queries())
    }

    /// [`Epoch::check`] for a single-path query.
    pub(crate) fn check_single_path(&self, id: SinglePathId) -> Result<(), ServiceError> {
        known(id.index(), self.state.n_single_path_queries())
    }

    /// The answer of checked query `id`, charged to this epoch.
    pub(crate) fn evaluate(&self, id: QueryId) -> QueryAnswer {
        let (answer, run) = self.state.evaluate(id).expect(CHECKED);
        self.counters.charge(run);
        answer
    }

    /// The length closure of checked single-path query `id`, charged to
    /// this epoch.
    pub(crate) fn evaluate_single_path(
        &self,
        id: SinglePathId,
    ) -> (&PreparedQuery, &Arc<SinglePathIndex<E::LenMatrix>>) {
        let (query, solved, run) = self.state.evaluate_single_path(id).expect(CHECKED);
        self.counters.charge(run);
        (query, solved)
    }
}

pub(crate) struct EpochRecord {
    pub(crate) epoch: u64,
    pub(crate) publish_ms: f64,
    pub(crate) counters: Arc<EpochCounters>,
    /// Registry failure-counter values when this epoch was published —
    /// the baseline [`CfpqService::stats`] differences against.
    pub(crate) failures_at_publish: FailureSnapshot,
}

/// An immutable view of one epoch: evaluations against a snapshot are
/// repeatable — later [`CfpqService::add_edges`] calls publish *new*
/// epochs and never mutate this one.
#[derive(Clone)]
pub struct Snapshot<E: ServiceEngine> {
    pub(crate) epoch: Arc<Epoch<E>>,
}

impl<E: ServiceEngine> Snapshot<E> {
    /// The epoch this snapshot pins.
    pub fn epoch(&self) -> u64 {
        self.epoch.epoch
    }

    /// `|V|` of the pinned epoch.
    pub fn n_nodes(&self) -> usize {
        self.epoch.state.index().n_nodes()
    }

    /// Stored edges of the pinned epoch.
    pub fn n_edges(&self) -> usize {
        self.epoch.state.index().n_edges()
    }

    /// Evaluates a prepared relational query against this epoch. The
    /// first evaluation of a query in an epoch inherits the closure the
    /// publish repaired, or solves or repairs it; every later one is an
    /// `Arc` bump. The answer is a lazy view shared by the whole epoch: a
    /// relation is extracted by whoever reads its pairs first.
    ///
    /// # Panics
    ///
    /// If the epoch holds no query `id`; callers passing handles on from
    /// elsewhere should use [`Snapshot::try_evaluate`].
    pub fn evaluate(&self, id: QueryId) -> QueryAnswer {
        self.try_evaluate(id)
            .expect("query not registered in this service")
    }

    /// [`Snapshot::evaluate`] with the handle check surfaced as
    /// [`ServiceError::UnknownQuery`] instead of a panic. A query
    /// prepared after this epoch was superseded is unknown to it.
    pub fn try_evaluate(&self, id: QueryId) -> Result<QueryAnswer, ServiceError> {
        let epoch = &*self.epoch;
        epoch.check(id)?;
        let answer = epoch.evaluate(id);
        epoch
            .counters
            .queries_served
            .fetch_add(1, Ordering::Relaxed);
        Ok(answer)
    }

    /// Evaluates a prepared single-path query against this epoch; the
    /// returned index supports witness extraction
    /// ([`cfpq_core::single_path::extract_path`]) as usual.
    ///
    /// # Panics
    ///
    /// If the epoch holds no query `id`; callers passing handles on from
    /// elsewhere should use [`Snapshot::try_evaluate_single_path`].
    pub fn evaluate_single_path(
        &self,
        id: SinglePathId,
    ) -> Arc<SinglePathIndex<<E as LenEngine>::LenMatrix>> {
        self.try_evaluate_single_path(id)
            .expect("query not registered in this service")
    }

    /// [`Snapshot::evaluate_single_path`] with the handle check surfaced
    /// as [`ServiceError::UnknownQuery`] instead of a panic.
    pub fn try_evaluate_single_path(
        &self,
        id: SinglePathId,
    ) -> Result<Arc<SinglePathIndex<<E as LenEngine>::LenMatrix>>, ServiceError> {
        let epoch = &*self.epoch;
        epoch.check_single_path(id)?;
        let (_, solved) = epoch.evaluate_single_path(id);
        epoch
            .counters
            .queries_served
            .fetch_add(1, Ordering::Relaxed);
        Ok(Arc::clone(solved))
    }
}

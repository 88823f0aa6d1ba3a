//! # cfpq-service
//!
//! The concurrent serving layer over the session engine: many reader
//! threads evaluating prepared queries against one evolving graph,
//! without a global lock around the solver.
//!
//! The paper frames CFPQ as a graph-database primitive, and follow-up
//! work (Medeiros et al., "An Algorithm for Context-Free Path Queries
//! over Graph Databases") evaluates it explicitly in a serving context —
//! but `cfpq_core::session::CfpqSession` is strictly single-threaded:
//! one caller, one mutable session, queries and edge updates fully
//! serialized. This crate adds the missing subsystem:
//!
//! * **Snapshot isolation.** The graph lives in immutable epoch-tagged
//!   [`Snapshot`]s: an `Arc`-shared [`GraphIndex`] plus a per-epoch
//!   closure cache. Readers grab the current snapshot and keep using it
//!   for as long as they like; [`CfpqService::add_edges`] clones the
//!   index *off to the side*, repairs every cached closure through the
//!   session layer's semi-naive resume path
//!   ([`cfpq_core::session::CachedClosure::repair`], one loop for both
//!   kinds of closure), and publishes the next epoch atomically. A
//!   reader never blocks on a writer and never observes a half-applied
//!   batch.
//! * **Shared closure caching.** Within an epoch, each prepared query's
//!   solved closure is computed exactly once (a `OnceLock` cell:
//!   concurrent readers of the same cold query block on one solve
//!   instead of racing N solves) and then served by `Arc` refcount bump.
//!   Publishing an epoch *repairs* the previous epoch's solved closures
//!   instead of discarding them, so an update costs incremental kernel
//!   work, not N cold re-solves.
//! * **A multi-queue scheduler.** [`CfpqService::enqueue`] accepts
//!   `(query, pairs)` requests and returns a [`Ticket`]; worker threads
//!   drain one query's whole queue as a batch, evaluate that query's
//!   closure once, and answer every request in the batch from it: a
//!   request naming pairs by probing the closure matrices (one bit per
//!   pair; a node id the graph does not have is "not related"), a
//!   request naming none from `R_S`, extracted once per epoch. A batch
//!   of named pairs does not pay for the whole closure: until the epoch
//!   has one, it solves only the rows its source nodes reach and keeps
//!   them for later tickets to extend (see [`CfpqService::enqueue`] for
//!   the cost model). Per
//!   epoch, [`ServiceStats`] reports queries served, cache hits, repair
//!   vs cold products, and the epoch publish latency. Regular path
//!   queries are first-class tenants: [`CfpqService::prepare_regular`]
//!   compiles an NFA through the unified RSM pipeline
//!   ([`cfpq_core::compile::CompiledQuery`]), after which its tickets,
//!   snapshot caches, epoch repairs, errors and stats are
//!   indistinguishable from any CFPQ's.
//! * **Paths as a workload.** [`CfpqService::enqueue_paths`] serves the
//!   §7 all-path semantics through the same scheduler: a ticketed,
//!   paged stream of witness paths per answer pair, enumerated by the
//!   memoized [`cfpq_core::all_paths::PathEnumerator`] against one
//!   epoch (pages are snapshot-consistent even while writers publish),
//!   clamped per request by [`ServiceConfig::path_quota`], with
//!   truncation reported explicitly — per page via
//!   [`PairPaths::exhausted`], per epoch via
//!   [`ServiceStats::pages_truncated`].
//! * **An explicit failure contract.** Every request enqueued into the
//!   service resolves to an answer *or* a typed [`ServiceError`] —
//!   never a hang. Per-batch execution is isolated with
//!   `catch_unwind`, so a panicking worker resolves its batch to
//!   [`ServiceError::WorkerPanicked`] and is respawned by its
//!   supervisor loop instead of poisoning the scheduler; every lock is
//!   taken through poison-recovering helpers. [`ServiceConfig`] bounds
//!   the queue ([`ServiceError::Overloaded`] with a retry-after hint —
//!   pair it with the seeded-jitter [`Backoff`] client helper) and
//!   attaches a default deadline to requests (expired requests are
//!   dropped loudly at dispatch as [`ServiceError::Deadline`]);
//!   [`Ticket::wait_timeout`] / [`Ticket::wait_deadline`] bound the
//!   caller side. [`CfpqService::shutdown`] drains within a bounded
//!   deadline and resolves whatever could not be drained to
//!   [`ServiceError::ShuttingDown`]. The deterministic
//!   [`faults::FaultInjector`] engine wrapper plus the chaos suite
//!   (`tests/chaos.rs`) hold the contract under injected worker
//!   panics, overload, and racing updates.
//!
//! Thread-pool sizing composes with the kernel pool through
//! [`cfpq_matrix::Parallelism`]: split one budget between scheduler
//! workers and the [`cfpq_matrix::Device`] so the two layers never
//! oversubscribe the machine.
//!
//! ```
//! use cfpq_core::session::PreparedQuery;
//! use cfpq_grammar::Cfg;
//! use cfpq_graph::Graph;
//! use cfpq_matrix::SparseEngine;
//! use cfpq_service::{CfpqService, ServiceConfig};
//!
//! let mut graph = Graph::new(5);
//! graph.add_edge_named(0, "a", 1);
//! graph.add_edge_named(1, "a", 2);
//! graph.add_edge_named(2, "b", 3);
//! let service = CfpqService::with_config(SparseEngine, &graph, ServiceConfig::new(2));
//! let q = service.prepare(&Cfg::parse("S -> a S b | a b").unwrap()).unwrap();
//!
//! // Scheduler path: enqueue returns immediately; wait() blocks until a
//! // worker served the request (batched with others on the same query).
//! // Both steps are fallible by contract: enqueue sheds load with a
//! // typed error instead of growing an unbounded queue, and the ticket
//! // resolves to an answer or a typed error — never a hang.
//! let t1 = service.enqueue(q, vec![]).unwrap();
//! let t2 = service.enqueue(q, vec![(1, 3), (0, 4)]).unwrap();
//! assert_eq!(t1.wait().unwrap().pairs, vec![(1, 3)]);
//! assert_eq!(t2.wait().unwrap().pairs, vec![(1, 3)]); // (0, 4) not yet related
//!
//! // Readers pin an epoch; updates publish the next one off to the side.
//! let before = service.snapshot();
//! service.add_edges(&[(3, "b", 4)]);
//! assert_eq!(before.evaluate(q).start_pairs(), &[(1, 3)]); // isolated
//! assert_eq!(
//!     service.snapshot().evaluate(q).start_pairs(),
//!     &[(0, 4), (1, 3)] // repaired, not re-solved
//! );
//! ```

use cfpq_core::all_paths::{PageRequest, PathEnumerator, PathPage};
use cfpq_core::query::QueryAnswer;
use cfpq_core::relational::{RelationalIndex, SourceClosure};
use cfpq_core::session::{
    extend_prepared_from, solve_prepared_from, CachedClosure, EdgeBatch, GraphIndex, PreparedQuery,
};
use cfpq_core::single_path::SinglePathIndex;
use cfpq_grammar::{Cfg, GrammarError};
use cfpq_graph::{Edge, Graph, NodeId};
use cfpq_matrix::{BoolEngine, BoolMat, LenEngine, Parallelism};
use cfpq_obs::{
    AttrValue, Counter, Gauge, Histogram, MetricsRegistry, NoopRecorder, Recorder, SpanId,
};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard,
    RwLockWriteGuard,
};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub mod faults;

pub use cfpq_core::all_paths::PageRequest as PathPageRequest;

// ---------------------------------------------------------------------------
// Poison-recovering lock helpers
// ---------------------------------------------------------------------------
//
// A worker that panics mid-batch must not take the whole service down,
// and `std::sync` poisoning would do exactly that: every later
// `.lock().expect(..)` on the same mutex dies in sympathy. All the
// state these locks guard stays consistent under unwind — scheduler
// queue edits are single push/pop operations, the current epoch is an
// `Arc` swap, counters are atomics, ticket slots are single writes —
// so recovering from poison (taking the inner guard) is always sound
// here. Request- and worker-path code must take locks through these
// helpers, never by expecting a clean lock.

fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn read_recover<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_recover<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// The engine bound the service needs: both kernel families (relational
/// Boolean closures and §5 length closures), cheap cloning (snapshots
/// clone the engine handle, not the pool), and `'static` so worker
/// threads can own it. Blanket-implemented — all four paper engines
/// qualify, as does any wrapper around them (e.g.
/// [`faults::FaultInjector`]).
pub trait ServiceEngine: BoolEngine + LenEngine + Clone + 'static {}

impl<E: BoolEngine + LenEngine + Clone + 'static> ServiceEngine for E {}

/// Handle to a relational query registered in a [`CfpqService`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct QueryId(usize);

/// Handle to a single-path (§5) query registered in a [`CfpqService`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SinglePathId(usize);

/// The typed failure taxonomy of the service. Every enqueued request
/// resolves to a [`TicketAnswer`] *or* one of these — the service never
/// leaves a [`Ticket::wait`] hanging.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The request named a query id that was never registered with this
    /// service (`id` out of the `registered` handles). Rejected at
    /// enqueue time.
    UnknownQuery {
        /// The offending raw id.
        id: usize,
        /// How many queries of that kind are registered.
        registered: usize,
    },
    /// The scheduler queue is full ([`ServiceConfig::max_queued`]); the
    /// request was shed at enqueue time instead of growing the queue
    /// without bound. `retry_after` is the service's backoff hint —
    /// clients should wait at least that long (see [`Backoff`] for a
    /// jittered retry loop) before re-enqueueing.
    Overloaded {
        /// Requests queued at the moment the request was shed.
        queued: usize,
        /// The configured queue bound.
        max_queued: usize,
        /// Suggested minimum wait before retrying.
        retry_after: Duration,
    },
    /// The request's deadline expired before a worker dispatched it
    /// ([`ServiceConfig::default_deadline`]), or a bounded wait
    /// ([`Ticket::wait_timeout`]) gave up. Expired requests are dropped
    /// *loudly* at dispatch: the ticket resolves with this error and
    /// [`ServiceStats::deadline_expired`] counts it.
    Deadline,
    /// The worker serving the request's batch panicked. The batch is
    /// the isolation unit: its tickets resolve with this error, the
    /// worker is respawned, and the per-epoch closure cache stays
    /// usable (an interrupted cold solve is simply retried by the next
    /// request). Counted in [`ServiceStats::worker_panics`].
    WorkerPanicked,
    /// The service is shutting down: either the request arrived after
    /// [`CfpqService::shutdown`] (rejected at enqueue), or it was still
    /// queued when the bounded drain deadline expired (resolved at
    /// shutdown).
    ShuttingDown,
}

impl ServiceError {
    /// The retry-after hint of an [`ServiceError::Overloaded`] error,
    /// `None` for every other variant (retrying does not help an
    /// unknown query, and a shutting-down service will not come back).
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            Self::Overloaded { retry_after, .. } => Some(*retry_after),
            _ => None,
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownQuery { id, registered } => {
                write!(f, "query {id} is not registered (have {registered})")
            }
            Self::Overloaded {
                queued,
                max_queued,
                retry_after,
            } => write!(
                f,
                "scheduler overloaded ({queued}/{max_queued} queued); retry after {retry_after:?}"
            ),
            Self::Deadline => write!(f, "request deadline expired"),
            Self::WorkerPanicked => write!(f, "worker panicked while serving the request's batch"),
            Self::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Deterministic exponential backoff with seeded full jitter — the
/// client-side companion of [`ServiceError::Overloaded`]. Delays grow
/// `base · 2^attempt` up to `cap`, each drawn uniformly from
/// `[base, current]` by a fixed-seed xorshift generator, so retry storms
/// decorrelate without making tests flaky.
///
/// ```
/// use cfpq_service::Backoff;
/// use std::time::Duration;
///
/// let mut b = Backoff::new(42);
/// let first = b.next_delay();
/// assert!(first >= Duration::from_millis(1));
/// assert!(b.next_delay() <= Duration::from_millis(100)); // capped
/// let mut b2 = Backoff::new(42);
/// assert_eq!(b2.next_delay(), first); // same seed, same schedule
/// ```
#[derive(Clone, Debug)]
pub struct Backoff {
    state: u64,
    base: Duration,
    cap: Duration,
    attempt: u32,
}

impl Backoff {
    /// A backoff with the default bounds (base 1 ms, cap 100 ms) and the
    /// given jitter seed.
    pub fn new(seed: u64) -> Self {
        Self::with_bounds(seed, Duration::from_millis(1), Duration::from_millis(100))
    }

    /// A backoff with explicit bounds: delays start at `base` and the
    /// exponential growth saturates at `cap`.
    pub fn with_bounds(seed: u64, base: Duration, cap: Duration) -> Self {
        Self {
            // xorshift must not start at 0; fold the seed with a golden-
            // ratio constant (splitmix-style) so seed 0 is fine too.
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
            base,
            cap: cap.max(base),
            attempt: 0,
        }
    }

    /// The next delay of the schedule: `base · 2^attempt` (saturating at
    /// the cap), jittered uniformly down towards `base`.
    pub fn next_delay(&mut self) -> Duration {
        // xorshift64* — tiny, deterministic, and plenty for jitter.
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let ceiling = self
            .base
            .saturating_mul(1u32 << self.attempt.min(16))
            .min(self.cap);
        self.attempt = self.attempt.saturating_add(1);
        let base_ns = self.base.as_nanos() as u64;
        let ceil_ns = (ceiling.as_nanos() as u64).max(base_ns);
        let span = ceil_ns - base_ns;
        let jittered = if span == 0 {
            base_ns
        } else {
            base_ns + self.state % (span + 1)
        };
        Duration::from_nanos(jittered)
    }

    /// Restarts the schedule (the jitter stream keeps advancing, so a
    /// reset schedule does not replay the same delays).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// Scheduler/worker-pool configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Scheduler worker threads (clamped to at least 1).
    pub workers: usize,
    /// Per-request result quota for [`CfpqService::enqueue_paths`]: the
    /// total number of paths one request may receive across all its
    /// pairs. Pages cut by the quota come back with `exhausted: false`
    /// (and count into [`ServiceStats::pages_truncated`]), so clients
    /// can resume with `offset` paging instead of silently losing tail
    /// results.
    pub path_quota: usize,
    /// Backpressure bound: the maximum number of requests that may sit
    /// in the scheduler queues at once. `enqueue*` beyond this point
    /// sheds the request with [`ServiceError::Overloaded`] (counted in
    /// [`ServiceStats::requests_shed`]) instead of queueing without
    /// bound.
    pub max_queued: usize,
    /// Deadline attached to every enqueued request, measured from
    /// enqueue time. A request still queued past its deadline is
    /// dropped loudly at dispatch ([`ServiceError::Deadline`], counted
    /// in [`ServiceStats::deadline_expired`]). `None` (the default)
    /// disables service-side deadlines; [`Ticket::wait_timeout`] bounds
    /// the caller side independently.
    pub default_deadline: Option<Duration>,
    /// Bound on the [`CfpqService::shutdown`] /
    /// `Drop` drain: workers get this long to serve what is queued,
    /// then every still-queued ticket resolves to
    /// [`ServiceError::ShuttingDown`]. The drop path must never block
    /// forever on queued work.
    pub drain_deadline: Duration,
}

impl ServiceConfig {
    /// A config with `workers` scheduler threads and the default path
    /// quota, queue bound, and drain deadline (no request deadline).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            path_quota: 1024,
            max_queued: 4096,
            default_deadline: None,
            drain_deadline: Duration::from_secs(5),
        }
    }

    /// Overrides the per-request all-path result quota.
    pub fn with_path_quota(mut self, quota: usize) -> Self {
        self.path_quota = quota;
        self
    }

    /// Overrides the backpressure bound (clamped to at least 1).
    pub fn with_max_queued(mut self, max_queued: usize) -> Self {
        self.max_queued = max_queued.max(1);
        self
    }

    /// Attaches a deadline to every enqueued request.
    pub fn with_default_deadline(mut self, deadline: Duration) -> Self {
        self.default_deadline = Some(deadline);
        self
    }

    /// Overrides the bounded shutdown drain.
    pub fn with_drain_deadline(mut self, deadline: Duration) -> Self {
        self.drain_deadline = deadline;
        self
    }

    /// Derives the config *and* the kernel device from one
    /// [`Parallelism`] budget, so the scheduler pool and the `Device`
    /// pool cannot oversubscribe the machine between them. Pass the
    /// returned device into the engine (for the `-par` backends).
    pub fn from_parallelism(
        budget: Parallelism,
        requested_workers: usize,
    ) -> (Self, cfpq_matrix::Device) {
        let (workers, device) = budget.split(requested_workers);
        (Self::new(workers), device)
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self::new(2)
    }
}

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
    /// Closures repaired from the previous epoch at publish time.
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
struct EpochCounters {
    queries_served: AtomicU64,
    batches: AtomicU64,
    cache_hits: AtomicU64,
    cold_solves: AtomicU64,
    cold_products: AtomicU64,
    repairs: AtomicU64,
    repair_products: AtomicU64,
    paths_served: AtomicU64,
    pages_truncated: AtomicU64,
}

/// Observability bundle shared by every service thread: the installed
/// [`Recorder`] (a [`NoopRecorder`] unless the service was built with
/// [`CfpqService::with_observability`]), the [`MetricsRegistry`] behind
/// [`CfpqService::metrics`], and pre-resolved handles for the hot-path
/// metrics so workers never touch the registry lock per request.
///
/// The failure counters (`requests_shed`, `deadline_expired`,
/// `worker_panics`, `worker_restarts`) live *here*, not in
/// [`EpochCounters`]: the registry is their single source of truth, and
/// [`CfpqService::stats`] derives the per-epoch view by differencing the
/// [`FailureSnapshot`] each epoch records at publish time.
struct Obs {
    recorder: Arc<dyn Recorder>,
    /// `recorder.is_enabled()` at install time, cached — span plumbing
    /// (ticket spans, recorder installs on worker threads) is skipped
    /// entirely when false.
    enabled: bool,
    metrics: Arc<MetricsRegistry>,
    ticket_wait_us: Histogram,
    ticket_run_us: Histogram,
    publish_us: Histogram,
    queue_depth: Gauge,
    queue_depth_max: Gauge,
    requests_shed: Counter,
    deadline_expired: Counter,
    worker_panics: Counter,
    worker_restarts: Counter,
}

impl Obs {
    fn new(recorder: Arc<dyn Recorder>) -> Self {
        let metrics = Arc::new(MetricsRegistry::new());
        metrics.describe(
            "cfpq_ticket_wait_us",
            "Microseconds a request spent queued before a worker dispatched its batch",
        );
        metrics.describe(
            "cfpq_ticket_run_us",
            "Microseconds from batch dispatch to ticket resolve (shared across the batch)",
        );
        metrics.describe(
            "cfpq_epoch_publish_us",
            "Microseconds to build and publish an epoch (clone + closure repairs + swap)",
        );
        metrics.describe(
            "cfpq_queue_depth",
            "Requests sitting in the scheduler queues right now",
        );
        metrics.describe(
            "cfpq_queue_depth_max",
            "High-water mark of cfpq_queue_depth over the service lifetime",
        );
        metrics.describe(
            "cfpq_requests_shed_total",
            "Requests shed at enqueue because the queue was at max_queued",
        );
        metrics.describe(
            "cfpq_deadline_expired_total",
            "Requests dropped at dispatch because their deadline had expired",
        );
        metrics.describe(
            "cfpq_worker_panics_total",
            "Batches whose worker panicked mid-serve (tickets resolved WorkerPanicked)",
        );
        metrics.describe(
            "cfpq_worker_restarts_total",
            "Workers respawned by their supervisor loop after a panic",
        );
        Self {
            enabled: recorder.is_enabled(),
            ticket_wait_us: metrics.histogram("cfpq_ticket_wait_us"),
            ticket_run_us: metrics.histogram("cfpq_ticket_run_us"),
            publish_us: metrics.histogram("cfpq_epoch_publish_us"),
            queue_depth: metrics.gauge("cfpq_queue_depth"),
            queue_depth_max: metrics.gauge("cfpq_queue_depth_max"),
            requests_shed: metrics.counter("cfpq_requests_shed_total"),
            deadline_expired: metrics.counter("cfpq_deadline_expired_total"),
            worker_panics: metrics.counter("cfpq_worker_panics_total"),
            worker_restarts: metrics.counter("cfpq_worker_restarts_total"),
            recorder,
            metrics,
        }
    }

    /// The registry-backed failure counters, read once — epoch publish
    /// stores this so [`CfpqService::stats`] can difference per epoch.
    fn failure_snapshot(&self) -> FailureSnapshot {
        FailureSnapshot {
            worker_panics: self.worker_panics.get(),
            worker_restarts: self.worker_restarts.get(),
            requests_shed: self.requests_shed.get(),
            deadline_expired: self.deadline_expired.get(),
        }
    }

    /// Closes a ticket span and charges the wait/run histograms. Called
    /// by whichever thread resolves the request (worker, panic sweep, or
    /// shutdown drain); `dispatched` is when a worker took the batch
    /// (resolve time for requests that never got one).
    fn finish_ticket(
        &self,
        span: SpanId,
        enqueued_at: Instant,
        dispatched: Instant,
        outcome: &'static str,
    ) {
        let wait_us = dispatched.duration_since(enqueued_at).as_micros() as u64;
        let run_us = dispatched.elapsed().as_micros() as u64;
        self.ticket_wait_us.observe(wait_us);
        self.ticket_run_us.observe(run_us);
        if !span.is_none() {
            self.recorder.end(
                span,
                vec![
                    ("wait_us", AttrValue::U64(wait_us)),
                    ("run_us", AttrValue::U64(run_us)),
                    ("outcome", AttrValue::Str(outcome)),
                ],
            );
        }
    }
}

/// Values of the four registry failure counters at one instant (taken
/// at epoch publish). [`CfpqService::stats`] attributes to epoch `i`
/// whatever happened between its publish and the next one's.
#[derive(Clone, Copy, Debug, Default)]
struct FailureSnapshot {
    worker_panics: u64,
    worker_restarts: u64,
    requests_shed: u64,
    deadline_expired: u64,
}

/// A per-epoch cache of lazily-solved values: one `OnceLock` cell per
/// query, so concurrent readers of the same unsolved query block on a
/// single solve instead of racing duplicates. If a solve panics, the
/// cell stays empty (`OnceLock::get_or_init` leaves an uninitialized
/// cell on unwind) — the next reader simply retries the solve.
struct CacheMap<V> {
    cells: Mutex<HashMap<usize, Arc<OnceLock<Arc<V>>>>>,
}

impl<V> CacheMap<V> {
    fn new() -> Self {
        Self {
            cells: Mutex::new(HashMap::new()),
        }
    }

    /// The cell of query `k` (created empty on first touch). The map
    /// lock is only held for the lookup; solving happens on the cell.
    fn cell(&self, k: usize) -> Arc<OnceLock<Arc<V>>> {
        lock_recover(&self.cells).entry(k).or_default().clone()
    }

    /// Pre-fills query `k` (the epoch builder installing a repaired
    /// closure).
    fn preset(&self, k: usize, v: Arc<V>) {
        let cell = self.cell(k);
        let _ = cell.set(v);
    }

    /// Every solved entry at this moment (cells still solving are
    /// skipped; their result stays usable on the epoch that owns them).
    fn filled(&self) -> Vec<(usize, Arc<V>)> {
        lock_recover(&self.cells)
            .iter()
            .filter_map(|(&k, cell)| cell.get().map(|v| (k, v.clone())))
            .collect()
    }

    /// Solves (or fetches) the closure of query `q` of `queries` on
    /// `epoch`, to which this cache belongs; returns it with the query.
    fn solve_or_fetch<E: ServiceEngine>(
        &self,
        queries: &RwLock<Vec<Arc<PreparedQuery>>>,
        epoch: &Epoch<E>,
        q: usize,
    ) -> Result<(Arc<PreparedQuery>, Arc<V>), ServiceError>
    where
        V: CachedClosure<E>,
    {
        let prepared = registered(queries, q)?;
        let cold = Cell::new(false);
        let solved = self
            .cell(q)
            .get_or_init(|| {
                cold.set(true);
                let solved = V::cold_solve(&epoch.index, &prepared);
                let products = solved.stats().products_computed as u64;
                let counters = &epoch.counters;
                counters.cold_solves.fetch_add(1, Ordering::Relaxed);
                counters
                    .cold_products
                    .fetch_add(products, Ordering::Relaxed);
                Arc::new(solved)
            })
            .clone();
        if !cold.get() {
            epoch.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        Ok((prepared, solved))
    }

    /// The next epoch's cache: every closure solved here, repaired for
    /// `batch`, which `index` (the next epoch's) has absorbed. The
    /// published epoch keeps serving the originals — `Arc::make_mut`
    /// repairs a copy.
    fn carry_over<E: ServiceEngine>(
        &self,
        queries: &RwLock<Vec<Arc<PreparedQuery>>>,
        index: &GraphIndex<E>,
        batch: &EdgeBatch,
        counters: &EpochCounters,
    ) -> Self
    where
        V: CachedClosure<E>,
    {
        let queries = read_recover(queries).clone();
        let batches = std::slice::from_ref(batch);
        let next = Self::new();
        for (q, mut solved) in self.filled() {
            let stats = Arc::make_mut(&mut solved).repair(index, &queries[q], batches);
            counters.repairs.fetch_add(1, Ordering::Relaxed);
            counters
                .repair_products
                .fetch_add(stats.products_computed as u64, Ordering::Relaxed);
            next.preset(q, solved);
        }
        next
    }
}

/// Query `id` of `queries`. Handles come from outside, so every entry
/// point that takes one — `enqueue*`, the snapshot reads — checks it
/// here and nowhere else.
fn registered(
    queries: &RwLock<Vec<Arc<PreparedQuery>>>,
    id: usize,
) -> Result<Arc<PreparedQuery>, ServiceError> {
    let queries = read_recover(queries);
    let registered = queries.len();
    let found = queries.get(id).cloned();
    found.ok_or(ServiceError::UnknownQuery { id, registered })
}

/// One immutable version of the graph: the index, the per-query closure
/// caches, and the counters charged to this epoch.
struct Epoch<E: ServiceEngine> {
    epoch: u64,
    index: GraphIndex<E>,
    rel: CacheMap<RelationalIndex<E::Matrix>>,
    /// The lazy answer over each `rel` closure, created when a snapshot
    /// read or a full-answer ticket first asks for one and shared by all
    /// later ones, so a relation is extracted at most once per epoch.
    answers: CacheMap<QueryAnswer>,
    /// Per query, the source-restricted closure that named-pair tickets
    /// grow while the epoch holds no all-pairs closure for it: extended
    /// when a ticket names rows outside it, never carried into the next
    /// epoch. `None` until the first such ticket — and again after a
    /// solve that panicked, which takes the closure down with it.
    sources: CacheMap<Mutex<Option<SourceClosure<E::Matrix>>>>,
    sp: CacheMap<SinglePathIndex<<E as LenEngine>::LenMatrix>>,
    counters: Arc<EpochCounters>,
}

struct EpochRecord {
    epoch: u64,
    publish_ms: f64,
    counters: Arc<EpochCounters>,
    /// Registry failure-counter values when this epoch was published —
    /// the baseline [`CfpqService::stats`] differences against.
    failures_at_publish: FailureSnapshot,
}

/// One queue per registered query: requests for the same grammar batch
/// together and share a single closure lookup.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum QueueKey {
    Rel(usize),
    Sp(usize),
    /// All-path enumeration over the relational query `q` — shares the
    /// rel closure cache (the pruning oracle) but queues separately so a
    /// path batch amortizes one enumerator across its requests.
    Paths(usize),
}

struct Request {
    pairs: Vec<(u32, u32)>,
    /// Page bounds for `QueueKey::Paths` requests; `None` elsewhere.
    page: Option<PageRequest>,
    /// Absolute expiry instant ([`ServiceConfig::default_deadline`]);
    /// checked at dispatch time.
    deadline: Option<Instant>,
    ticket: Arc<TicketState>,
    /// When the request entered the queue — the wait-vs-run split of the
    /// ticket lifecycle is measured from here.
    enqueued_at: Instant,
    /// The open `"ticket"` span ([`SpanId::NONE`] when tracing is off):
    /// started at enqueue, closed by whichever thread resolves the
    /// request.
    span: SpanId,
}

struct SchedState {
    queues: BTreeMap<QueueKey, VecDeque<Request>>,
    /// Keys with pending requests, in arrival order (a key appears here
    /// iff its queue exists and is non-empty).
    round_robin: VecDeque<QueueKey>,
    /// Total requests currently queued (the backpressure gauge; freed
    /// when a worker takes the batch, whether or not anyone waits on
    /// its tickets).
    queued: usize,
    /// Set by [`CfpqService::shutdown`]: no new requests are accepted,
    /// and workers exit once the queues are empty.
    shutdown: bool,
}

struct SchedShared {
    state: Mutex<SchedState>,
    available: Condvar,
    /// Notified whenever a worker empties the queues — the bounded
    /// shutdown drain waits on this instead of polling.
    drained: Condvar,
}

struct Inner<E: ServiceEngine> {
    config: ServiceConfig,
    queries: RwLock<Vec<Arc<PreparedQuery>>>,
    sp_queries: RwLock<Vec<Arc<PreparedQuery>>>,
    current: RwLock<Arc<Epoch<E>>>,
    /// Serializes writers: epochs are built one at a time, off to the
    /// side, while readers keep using the published one.
    writer: Mutex<()>,
    epochs: Mutex<Vec<EpochRecord>>,
    sched: SchedShared,
    obs: Obs,
}

/// One endpoint pair's page of an [`CfpqService::enqueue_paths`]
/// answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairPaths {
    /// Source node.
    pub from: u32,
    /// Target node.
    pub to: u32,
    /// The page's witness paths, in (length, lexicographic) order.
    pub paths: Vec<Vec<Edge>>,
    /// `false` iff the page was cut by the request's `limit` or the
    /// service's `path_quota` — more paths exist within `max_len`; page
    /// on with a larger `offset`.
    pub exhausted: bool,
}

/// The result a [`Ticket`] resolves to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TicketAnswer {
    /// The epoch the request was answered against — the request's
    /// linearization point in the epoch order.
    pub epoch: u64,
    /// If the request named pairs: the subset of them in `R_S` (sorted).
    /// If it named none: all of `R_S`.
    pub pairs: Vec<(u32, u32)>,
    /// For [`CfpqService::enqueue_paths`] requests: one page per
    /// answered pair (aligned with `pairs`), all enumerated against the
    /// same epoch. `None` for relational and single-path requests.
    pub paths: Option<Vec<PairPaths>>,
    /// Per-request scheduling profile, populated only when the service
    /// was built with [`CfpqService::with_observability`] — `None` on an
    /// uninstrumented service, so answers stay deterministic there.
    pub trace: Option<QueryTrace>,
}

/// The scheduling profile of one answered request (see
/// [`TicketAnswer::trace`]): where its latency went, and the id of its
/// `"ticket"` span in the installed [`Recorder`] for correlation with
/// the exported trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryTrace {
    /// The epoch the request was answered against.
    pub epoch: u64,
    /// Microseconds from enqueue to batch dispatch (queue wait).
    pub wait_us: u64,
    /// Microseconds from dispatch to resolve. The batch is served as a
    /// unit, so this is shared by every request batched together.
    pub run_us: u64,
    /// Requests served in the same batch (including this one).
    pub batch_size: u32,
    /// The request's `"ticket"` span id ([`SpanId::NONE`] when the
    /// installed recorder is disabled).
    pub span: SpanId,
}

/// What a ticket resolves to: the answer, or a typed error.
pub type TicketResult = Result<TicketAnswer, ServiceError>;

#[derive(Default)]
struct TicketState {
    slot: Mutex<Option<TicketResult>>,
    ready: Condvar,
}

impl TicketState {
    /// Resolves the ticket — first write wins, so a panic-recovery
    /// sweep can blanket-fail a batch without clobbering requests the
    /// worker already answered. Returns whether this call resolved it.
    fn resolve(&self, outcome: TicketResult) -> bool {
        let mut slot = lock_recover(&self.slot);
        if slot.is_some() {
            return false;
        }
        *slot = Some(outcome);
        self.ready.notify_all();
        true
    }
}

/// A claim on an enqueued request; [`Ticket::wait`] blocks until a
/// scheduler worker has resolved it — to an answer or a typed
/// [`ServiceError`], never a hang. Dropping a ticket without waiting is
/// fine: its queue slot is freed when the batch is dispatched, and the
/// un-awaited answer is simply discarded.
pub struct Ticket {
    state: Arc<TicketState>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("resolved", &self.try_peek())
            .finish()
    }
}

impl Ticket {
    /// Blocks until the request is resolved and returns the outcome
    /// (consuming the ticket — the answer is moved out, not copied,
    /// which matters for relation-sized results).
    pub fn wait(self) -> TicketResult {
        let mut slot = lock_recover(&self.state.slot);
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = self
                .state
                .ready
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// [`Ticket::wait`] bounded by a timeout: `Ok(outcome)` if the
    /// request resolved in time, `Err(self)` (the ticket, still
    /// waitable) if the timeout elapsed first — a local timeout does
    /// not cancel the queued request, it only stops this wait.
    pub fn wait_timeout(self, timeout: Duration) -> Result<TicketResult, Ticket> {
        self.wait_deadline(Instant::now() + timeout)
    }

    /// [`Ticket::wait_timeout`] against an absolute deadline.
    pub fn wait_deadline(self, deadline: Instant) -> Result<TicketResult, Ticket> {
        let mut slot = lock_recover(&self.state.slot);
        loop {
            if let Some(outcome) = slot.take() {
                return Ok(outcome);
            }
            let now = Instant::now();
            if now >= deadline {
                drop(slot);
                return Err(self);
            }
            let (s, _timed_out) = self
                .state
                .ready
                .wait_timeout(slot, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            slot = s;
        }
    }

    /// The outcome, if already resolved (never blocks; leaves the
    /// ticket waitable).
    pub fn try_peek(&self) -> Option<TicketResult> {
        lock_recover(&self.state.slot).clone()
    }
}

/// A thread-safe, snapshot-isolated CFPQ query service over one evolving
/// graph. See the crate docs for the architecture; in short: readers
/// evaluate against immutable epochs ([`CfpqService::snapshot`]),
/// requests batch per query through a worker pool
/// ([`CfpqService::enqueue`]), and [`CfpqService::add_edges`] publishes
/// the next epoch with every cached closure repaired incrementally.
pub struct CfpqService<E: ServiceEngine> {
    inner: Arc<Inner<E>>,
    workers: Vec<JoinHandle<()>>,
}

/// An immutable view of one epoch: evaluations against a snapshot are
/// repeatable — later [`CfpqService::add_edges`] calls publish *new*
/// epochs and never mutate this one.
pub struct Snapshot<E: ServiceEngine> {
    inner: Arc<Inner<E>>,
    epoch: Arc<Epoch<E>>,
}

impl<E: ServiceEngine> Clone for Snapshot<E> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
            epoch: Arc::clone(&self.epoch),
        }
    }
}

impl<E: ServiceEngine> Snapshot<E> {
    /// The epoch this snapshot pins.
    pub fn epoch(&self) -> u64 {
        self.epoch.epoch
    }

    /// `|V|` of the pinned epoch.
    pub fn n_nodes(&self) -> usize {
        self.epoch.index.n_nodes()
    }

    /// Stored edges of the pinned epoch.
    pub fn n_edges(&self) -> usize {
        self.epoch.index.n_edges()
    }

    /// Evaluates a prepared relational query against this epoch. The
    /// first evaluation of a query in an epoch solves (or inherits the
    /// repaired) closure; every later one is an `Arc` bump. The answer
    /// is a lazy view shared by the whole epoch: a relation is extracted
    /// by whoever reads its pairs first.
    ///
    /// # Panics
    ///
    /// If `id` was not registered with this service; callers passing
    /// handles on from elsewhere should use [`Snapshot::try_evaluate`].
    pub fn evaluate(&self, id: QueryId) -> QueryAnswer {
        self.try_evaluate(id)
            .expect("query not registered in this service")
    }

    /// [`Snapshot::evaluate`] with the handle check surfaced as
    /// [`ServiceError::UnknownQuery`] instead of a panic.
    pub fn try_evaluate(&self, id: QueryId) -> Result<QueryAnswer, ServiceError> {
        let epoch = &*self.epoch;
        let (prepared, solved) = epoch.rel.solve_or_fetch(&self.inner.queries, epoch, id.0)?;
        epoch
            .counters
            .queries_served
            .fetch_add(1, Ordering::Relaxed);
        Ok(epoch_answer(epoch, id.0, &prepared, &solved))
    }

    /// Evaluates a prepared single-path query against this epoch; the
    /// returned index supports witness extraction
    /// ([`cfpq_core::single_path::extract_path`]) as usual.
    ///
    /// # Panics
    ///
    /// If `id` was not registered with this service; callers passing
    /// handles on from elsewhere should use
    /// [`Snapshot::try_evaluate_single_path`].
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
        let (_, solved) = epoch
            .sp
            .solve_or_fetch(&self.inner.sp_queries, epoch, id.0)?;
        epoch
            .counters
            .queries_served
            .fetch_add(1, Ordering::Relaxed);
        Ok(solved)
    }
}

/// The epoch's shared lazy answer over `solved`, the closure of query
/// `q` on `epoch`.
fn epoch_answer<E: ServiceEngine>(
    epoch: &Epoch<E>,
    q: usize,
    prepared: &PreparedQuery,
    solved: &Arc<RelationalIndex<E::Matrix>>,
) -> QueryAnswer {
    let cell = epoch.answers.cell(q);
    let answer = cell.get_or_init(|| {
        Arc::new(QueryAnswer::from_shared(
            epoch.index.engine().name(),
            prepared.wcnf(),
            Arc::clone(solved),
        ))
    });
    QueryAnswer::clone(answer)
}

/// The requested pairs that `related` holds, sorted and deduplicated.
/// Tickets come from outside: a pair naming a node id `≥ n` is related
/// to nothing and must not reach the matrices, whose reads are not
/// range-checked.
fn probe_pairs(
    wanted: &[(u32, u32)],
    n: usize,
    related: impl Fn(u32, u32) -> bool,
) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = wanted
        .iter()
        .copied()
        .filter(|&(i, j)| (i as usize) < n && (j as usize) < n && related(i, j))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// The pairs a relational or paths ticket is answered with: the
/// requested ones probed on the closure, or — for a ticket naming none —
/// all of `R_S`, extracted once per epoch.
fn rel_targets<E: ServiceEngine>(
    epoch: &Epoch<E>,
    q: usize,
    prepared: &PreparedQuery,
    solved: &Arc<RelationalIndex<E::Matrix>>,
    wanted: &[(u32, u32)],
) -> Vec<(u32, u32)> {
    if wanted.is_empty() {
        return epoch_answer(epoch, q, prepared, solved)
            .start_pairs()
            .to_vec();
    }
    let start = prepared.wcnf().start;
    probe_pairs(wanted, solved.n_nodes, |i, j| solved.contains(start, i, j))
}

/// Answers a batch of named-pair requests for query `q` from the
/// epoch's source-restricted closure, first extending it to the source
/// nodes the batch names (one extension for the whole batch). Charged
/// like the all-pairs path: the first solve of a query in an epoch is a
/// cold solve, every product goes to `cold_products`, and a batch whose
/// rows were all solved already — no kernel ran — is a cache hit.
fn probe_sources<E: ServiceEngine>(
    epoch: &Epoch<E>,
    q: usize,
    prepared: &PreparedQuery,
    batch: &VecDeque<Request>,
) -> Vec<Vec<(u32, u32)>> {
    let cell = epoch.sources.cell(q);
    let mut slot = lock_recover(cell.get_or_init(Default::default));
    // Taken out for the solve: if it panics the closure unwinds with it
    // and the next ticket starts over, rather than reading one that
    // stopped half-way to its fixpoint.
    let taken = slot.take();
    let first = taken.is_none();
    let sources: Vec<u32> = batch
        .iter()
        .flat_map(|req| req.pairs.iter().map(|&(i, _)| i))
        .collect();
    let (closure, products) = match taken {
        Some(mut closure) => {
            let stats = extend_prepared_from(&epoch.index, prepared, &mut closure, &sources);
            (closure, stats.products_computed)
        }
        None => {
            let closure = solve_prepared_from(&epoch.index, prepared, &sources);
            let products = closure.stats().products_computed;
            (closure, products)
        }
    };
    let counters = &epoch.counters;
    if first {
        counters.cold_solves.fetch_add(1, Ordering::Relaxed);
    } else if products == 0 {
        counters.cache_hits.fetch_add(1, Ordering::Relaxed);
    }
    counters
        .cold_products
        .fetch_add(products as u64, Ordering::Relaxed);
    let start = prepared.wcnf().start;
    let closure = slot.insert(closure);
    batch
        .iter()
        .map(|req| {
            probe_pairs(&req.pairs, closure.n_nodes(), |i, j| {
                closure.contains(start, i, j)
            })
        })
        .collect()
}

/// One scheduler worker: drain a query's whole queue, evaluate that
/// query once against the current epoch, answer every request from it.
///
/// Each batch runs under `catch_unwind`: a panic mid-serve (a buggy or
/// fault-injected engine, a malformed query) resolves the batch's
/// still-pending tickets to [`ServiceError::WorkerPanicked`] and is
/// then propagated to the supervisor loop in [`spawn_worker`], which
/// respawns the worker logic. The batch is the blast radius; the
/// scheduler, the epoch caches, and every other queue keep serving.
fn worker_loop<E: ServiceEngine>(inner: &Inner<E>) {
    loop {
        let (key, batch) = {
            let mut st = lock_recover(&inner.sched.state);
            loop {
                if let Some(key) = st.round_robin.pop_front() {
                    let queue = st.queues.remove(&key).expect("round-robin key has a queue");
                    st.queued -= queue.len();
                    inner.obs.queue_depth.set(st.queued as u64);
                    if st.queued == 0 {
                        inner.sched.drained.notify_all();
                    }
                    break (key, queue);
                }
                if st.shutdown {
                    return;
                }
                st = inner
                    .sched
                    .available
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // Deadline-expired requests are dropped loudly *before* the
        // batch pays for any kernel work on their behalf.
        let dispatched = Instant::now();
        let (live, expired): (VecDeque<Request>, VecDeque<Request>) = batch
            .into_iter()
            .partition(|r| r.deadline.is_none_or(|d| dispatched < d));
        if !expired.is_empty() {
            inner.obs.deadline_expired.add(expired.len() as u64);
            for req in expired {
                req.ticket.resolve(Err(ServiceError::Deadline));
                inner
                    .obs
                    .finish_ticket(req.span, req.enqueued_at, dispatched, "deadline");
            }
        }
        if live.is_empty() {
            continue;
        }
        // Kept outside the catch_unwind so the panic sweep can fail the
        // batch's unanswered tickets and close their spans.
        let tickets: Vec<(Arc<TicketState>, SpanId, Instant)> = live
            .iter()
            .map(|r| (Arc::clone(&r.ticket), r.span, r.enqueued_at))
            .collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            serve_batch(inner, key, live, dispatched)
        }));
        if let Err(payload) = outcome {
            inner.obs.worker_panics.inc();
            // First-write-wins: requests the worker answered before the
            // panic keep their answers (and already-closed spans); the
            // rest fail typed.
            for (t, span, enqueued_at) in &tickets {
                if t.resolve(Err(ServiceError::WorkerPanicked)) {
                    inner
                        .obs
                        .finish_ticket(*span, *enqueued_at, dispatched, "panic");
                }
            }
            // Hand the panic to the supervisor so the worker is
            // accounted as died-and-respawned.
            resume_unwind(payload);
        }
    }
}

/// Spawns one supervised scheduler worker: the supervisor loop catches
/// panics escaping [`worker_loop`], counts the restart, and re-enters
/// the loop — the pool never shrinks below its configured size while
/// the service lives.
fn spawn_worker<E: ServiceEngine>(inner: Arc<Inner<E>>, i: usize) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("cfpq-service-{i}"))
        .spawn(move || {
            // Workers carry the service's recorder so solve/sweep/kernel
            // spans from batches they serve land in the same trace as
            // the ticket spans. Skipped entirely when tracing is off.
            let _obs = inner
                .obs
                .enabled
                .then(|| cfpq_obs::install(Arc::clone(&inner.obs.recorder)));
            loop {
                match catch_unwind(AssertUnwindSafe(|| worker_loop(&inner))) {
                    // Clean exit: shutdown with drained queues.
                    Ok(()) => return,
                    Err(_) => inner.obs.worker_restarts.inc(),
                }
            }
        })
        .expect("spawn service worker")
}

/// Resolves a successfully served request: attaches its [`QueryTrace`]
/// (on an instrumented service), closes the ticket span, and charges
/// the wait/run histograms.
fn resolve_served(
    obs: &Obs,
    req: &Request,
    dispatched: Instant,
    batch_size: u32,
    epoch: u64,
    pairs: Vec<(u32, u32)>,
    paths: Option<Vec<PairPaths>>,
) {
    let trace = obs.enabled.then(|| QueryTrace {
        epoch,
        wait_us: dispatched.duration_since(req.enqueued_at).as_micros() as u64,
        run_us: dispatched.elapsed().as_micros() as u64,
        batch_size,
        span: req.span,
    });
    // Metrics and span first: whoever wakes on the ticket may read them
    // at once, and must find this request in them.
    obs.finish_ticket(req.span, req.enqueued_at, dispatched, "ok");
    req.ticket.resolve(Ok(TicketAnswer {
        epoch,
        pairs,
        paths,
        trace,
    }));
}

fn serve_batch<E: ServiceEngine>(
    inner: &Inner<E>,
    key: QueueKey,
    batch: VecDeque<Request>,
    dispatched: Instant,
) {
    let mut batch_sp = cfpq_obs::span("batch");
    let batch_size = batch.len() as u32;
    let epoch = read_recover(&inner.current).clone();
    if batch_sp.is_recording() {
        batch_sp.attr_str(
            "queue",
            match key {
                QueueKey::Rel(_) => "rel",
                QueueKey::Sp(_) => "sp",
                QueueKey::Paths(_) => "paths",
            },
        );
        batch_sp.attr_u64("requests", batch_size as u64);
        batch_sp.attr_u64("epoch", epoch.epoch);
    }
    let counters = &epoch.counters;
    counters.batches.fetch_add(1, Ordering::Relaxed);
    counters
        .queries_served
        .fetch_add(batch.len() as u64, Ordering::Relaxed);
    let resolve = |req: &Request, pairs, paths| {
        let obs = &inner.obs;
        resolve_served(obs, req, dispatched, batch_size, epoch.epoch, pairs, paths)
    };
    // Queued handles were range-checked at enqueue and queries are never
    // unregistered, so the closure lookups below cannot miss.
    const CHECKED: &str = "query checked at enqueue";
    match key {
        QueueKey::Rel(q) => {
            // Named pairs need the rows they name; only a full answer —
            // or an epoch that already has it — reads the whole closure.
            let all_named = batch.iter().all(|req| !req.pairs.is_empty());
            if all_named && epoch.rel.cell(q).get().is_none() {
                let prepared = read_recover(&inner.queries)[q].clone();
                let answers = probe_sources(&epoch, q, &prepared, &batch);
                for (req, pairs) in batch.iter().zip(answers) {
                    resolve(req, pairs, None);
                }
            } else {
                let (prepared, solved) = epoch
                    .rel
                    .solve_or_fetch(&inner.queries, &epoch, q)
                    .expect(CHECKED);
                for req in &batch {
                    let pairs = rel_targets(&epoch, q, &prepared, &solved, &req.pairs);
                    resolve(req, pairs, None);
                }
            }
        }
        QueueKey::Sp(q) => {
            let (prepared, solved) = epoch
                .sp
                .solve_or_fetch(&inner.sp_queries, &epoch, q)
                .expect(CHECKED);
            let start = prepared.wcnf().start;
            // Extracted for the first full-answer request of the batch.
            let mut full = None;
            for req in &batch {
                let pairs = if req.pairs.is_empty() {
                    full.get_or_insert_with(|| solved.pairs(start)).clone()
                } else {
                    probe_pairs(&req.pairs, solved.n_nodes, |i, j| {
                        solved.contains(start, i, j)
                    })
                };
                resolve(req, pairs, None);
            }
        }
        QueueKey::Paths(q) => {
            let (prepared, solved) = epoch
                .rel
                .solve_or_fetch(&inner.queries, &epoch, q)
                .expect(CHECKED);
            let wcnf = prepared.wcnf();
            let start = wcnf.start;
            // One enumerator per batch: its memoized length classes are
            // shared by every request and every pair answered here, and
            // it reads the same epoch the pruning closure came from —
            // pages are epoch-consistent by construction.
            let mut enumerator = PathEnumerator::from_index(&epoch.index, wcnf);
            let quota = inner.config.path_quota;
            for req in &batch {
                let page = req.page.unwrap_or_default();
                let targets = rel_targets(&epoch, q, &prepared, &solved, &req.pairs);
                // The quota bounds one request's total paths across all
                // its pairs; a page it cuts short is reported truncated,
                // never silently clipped.
                let mut budget = quota;
                let mut answers = Vec::with_capacity(targets.len());
                for &(i, j) in &targets {
                    let result = if page.limit.min(budget) == 0 {
                        PathPage::truncated()
                    } else {
                        enumerator.page(
                            &solved,
                            start,
                            i,
                            j,
                            PageRequest {
                                limit: page.limit.min(budget),
                                ..page
                            },
                        )
                    };
                    budget -= result.paths.len();
                    counters
                        .paths_served
                        .fetch_add(result.paths.len() as u64, Ordering::Relaxed);
                    if !result.exhausted {
                        counters.pages_truncated.fetch_add(1, Ordering::Relaxed);
                    }
                    answers.push(PairPaths {
                        from: i,
                        to: j,
                        paths: result.paths,
                        exhausted: result.exhausted,
                    });
                }
                resolve(req, targets, Some(answers));
            }
        }
    }
}

impl<E: ServiceEngine> CfpqService<E> {
    /// Indexes `graph` on `engine` and starts a service over it with the
    /// default config.
    pub fn new(engine: E, graph: &Graph) -> Self {
        Self::with_config(engine, graph, ServiceConfig::default())
    }

    /// [`CfpqService::new`] with an explicit worker-pool config.
    pub fn with_config(engine: E, graph: &Graph, config: ServiceConfig) -> Self {
        Self::with_observability(engine, graph, config, Arc::new(NoopRecorder))
    }

    /// [`CfpqService::with_config`] with a span [`Recorder`] installed:
    /// worker threads and epoch publishes carry it, so every layer's
    /// spans — `"ticket"`, `"batch"`, `"epoch.publish"`, and the
    /// solver's `"solve"`/`"sweep"`/`"kernel"` spans underneath — land
    /// in one trace, and [`TicketAnswer::trace`] is populated. Pass an
    /// [`cfpq_obs::SpanCollector`] and export it with
    /// [`cfpq_obs::SpanCollector::chrome_trace_json`]. Metrics
    /// ([`CfpqService::metrics`]) are collected regardless of the
    /// recorder.
    pub fn with_observability(
        engine: E,
        graph: &Graph,
        config: ServiceConfig,
        recorder: Arc<dyn Recorder>,
    ) -> Self {
        let started = Instant::now();
        let index = GraphIndex::build(engine, graph);
        Self::over_full(
            index,
            config,
            started.elapsed().as_secs_f64() * 1e3,
            recorder,
        )
    }

    /// Starts a service over an already-built index.
    pub fn over(index: GraphIndex<E>, config: ServiceConfig) -> Self {
        Self::over_full(index, config, 0.0, Arc::new(NoopRecorder))
    }

    /// [`CfpqService::over`] with a span [`Recorder`] installed (see
    /// [`CfpqService::with_observability`]).
    pub fn over_with_observability(
        index: GraphIndex<E>,
        config: ServiceConfig,
        recorder: Arc<dyn Recorder>,
    ) -> Self {
        Self::over_full(index, config, 0.0, recorder)
    }

    fn over_full(
        index: GraphIndex<E>,
        config: ServiceConfig,
        build_ms: f64,
        recorder: Arc<dyn Recorder>,
    ) -> Self {
        let obs = Obs::new(recorder);
        let counters = Arc::new(EpochCounters::default());
        let epoch = Arc::new(Epoch {
            epoch: 0,
            index,
            rel: CacheMap::new(),
            answers: CacheMap::new(),
            sources: CacheMap::new(),
            sp: CacheMap::new(),
            counters: Arc::clone(&counters),
        });
        let failures_at_publish = obs.failure_snapshot();
        let inner = Arc::new(Inner {
            config,
            queries: RwLock::new(Vec::new()),
            sp_queries: RwLock::new(Vec::new()),
            current: RwLock::new(epoch),
            writer: Mutex::new(()),
            epochs: Mutex::new(vec![EpochRecord {
                epoch: 0,
                publish_ms: build_ms,
                counters,
                failures_at_publish,
            }]),
            obs,
            sched: SchedShared {
                state: Mutex::new(SchedState {
                    queues: BTreeMap::new(),
                    round_robin: VecDeque::new(),
                    queued: 0,
                    shutdown: false,
                }),
                available: Condvar::new(),
                drained: Condvar::new(),
            },
        });
        let workers = (0..config.workers.max(1))
            .map(|i| spawn_worker(Arc::clone(&inner), i))
            .collect();
        Self { inner, workers }
    }

    /// Scheduler worker threads.
    pub fn n_workers(&self) -> usize {
        self.workers.len()
    }

    /// The service's metrics registry — always collecting (counters and
    /// histograms are atomics; no recorder required). Export with
    /// [`MetricsRegistry::prometheus_text`] or
    /// [`MetricsRegistry::json`]. See the crate README for the metric
    /// names.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.inner.obs.metrics)
    }

    /// Normalizes `grammar` and registers it for relational evaluation.
    /// Queries may be prepared at any time, including while the service
    /// is serving.
    pub fn prepare(&self, grammar: &Cfg) -> Result<QueryId, GrammarError> {
        Ok(self.prepare_query(PreparedQuery::new(grammar)?))
    }

    /// Registers a fully-configured [`PreparedQuery`].
    pub fn prepare_query(&self, query: PreparedQuery) -> QueryId {
        let mut queries = write_recover(&self.inner.queries);
        queries.push(Arc::new(query));
        QueryId(queries.len() - 1)
    }

    /// Compiles an NFA-form regular path query onto the unified RSM
    /// pipeline ([`cfpq_core::compile::CompiledQuery::from_nfa`]) and
    /// registers it like any relational query: RPQ tickets flow through
    /// the same multi-queue scheduler, epoch snapshot caches,
    /// incremental epoch repair on [`CfpqService::add_edges`], typed
    /// [`ServiceError`]s, and [`ServiceStats`] accounting.
    pub fn prepare_regular(&self, nfa: &cfpq_core::regular::Nfa) -> QueryId {
        self.prepare_query(cfpq_core::compile::CompiledQuery::from_nfa(nfa).into_prepared())
    }

    /// Compiles a context-free query through its RSM boxes
    /// ([`cfpq_core::compile::CompiledQuery::from_cfg`]) and registers
    /// it (nullable nonterminals follow the RSM ε-convention).
    pub fn prepare_rsm(&self, grammar: &Cfg) -> Result<QueryId, GrammarError> {
        Ok(self
            .prepare_query(cfpq_core::compile::CompiledQuery::from_cfg(grammar)?.into_prepared()))
    }

    /// Normalizes `grammar` and registers it for single-path (§5)
    /// evaluation.
    pub fn prepare_single_path(&self, grammar: &Cfg) -> Result<SinglePathId, GrammarError> {
        Ok(self.prepare_single_path_query(PreparedQuery::new(grammar)?))
    }

    /// Registers a fully-configured [`PreparedQuery`] for single-path
    /// evaluation.
    pub fn prepare_single_path_query(&self, query: PreparedQuery) -> SinglePathId {
        let mut queries = write_recover(&self.inner.sp_queries);
        queries.push(Arc::new(query));
        SinglePathId(queries.len() - 1)
    }

    /// The current epoch's snapshot. The returned view is immutable:
    /// concurrent [`CfpqService::add_edges`] calls publish later epochs
    /// without disturbing it.
    pub fn snapshot(&self) -> Snapshot<E> {
        Snapshot {
            inner: Arc::clone(&self.inner),
            epoch: read_recover(&self.inner.current).clone(),
        }
    }

    /// Evaluates against the current epoch (shorthand for
    /// `self.snapshot().evaluate(id)`).
    pub fn evaluate(&self, id: QueryId) -> QueryAnswer {
        self.snapshot().evaluate(id)
    }

    /// Evaluates a single-path query against the current epoch.
    pub fn evaluate_single_path(
        &self,
        id: SinglePathId,
    ) -> Arc<SinglePathIndex<<E as LenEngine>::LenMatrix>> {
        self.snapshot().evaluate_single_path(id)
    }

    /// The current epoch number (starts at 0; each successful
    /// [`CfpqService::add_edges`] publishes the next).
    pub fn current_epoch(&self) -> u64 {
        read_recover(&self.inner.current).epoch
    }

    /// Submits a relational request to the scheduler: answer `query`
    /// restricted to `pairs` (all of `R_S` if `pairs` is empty). Returns
    /// immediately; the [`Ticket`] resolves once a worker served the
    /// batch the request landed in. Fails fast with
    /// [`ServiceError::UnknownQuery`], [`ServiceError::Overloaded`]
    /// (queue at [`ServiceConfig::max_queued`]), or
    /// [`ServiceError::ShuttingDown`].
    ///
    /// # What it costs
    ///
    /// * **Named pairs** need the rows of their source nodes. While the
    ///   epoch has no all-pairs closure for `query`, the batch is served
    ///   from a source-restricted closure
    ///   ([`cfpq_core::relational::SourceClosure`]): work proportional
    ///   to the rows reachable from the sources, kept per (query, epoch)
    ///   and *extended* when a later ticket names rows outside it. The
    ///   first such solve of a query in an epoch counts as one of
    ///   [`ServiceStats::cold_solves`], every product of it and of its
    ///   extensions goes to [`ServiceStats::cold_products`], and a batch
    ///   whose rows are all there already — no kernel runs — is one of
    ///   [`ServiceStats::cache_hits`].
    /// * **Empty `pairs`** needs every row: the all-pairs closure is
    ///   solved once per epoch, shared with [`Snapshot::evaluate`] and
    ///   the paths queue, and repaired into the next epoch by
    ///   [`CfpqService::add_edges`]. Once an epoch holds it — solved
    ///   here, by a warm-up, or carried over by a publish — named pairs
    ///   probe it instead, one bit per pair.
    /// * Restricted closures are **dropped at publish**, never repaired:
    ///   the next named-pair ticket regrows what it needs on the new
    ///   epoch.
    pub fn enqueue(&self, query: QueryId, pairs: Vec<(u32, u32)>) -> Result<Ticket, ServiceError> {
        registered(&self.inner.queries, query.0)?;
        self.push_request(QueueKey::Rel(query.0), pairs, None)
    }

    /// Submits an all-path enumeration request: stream `page`-bounded
    /// witness pages for `query`'s start nonterminal at each of `pairs`
    /// (every pair of `R_S` if `pairs` is empty). The [`Ticket`]'s
    /// answer carries one [`PairPaths`] per answered pair in
    /// [`TicketAnswer::paths`], all enumerated against a single epoch
    /// and clamped by [`ServiceConfig::path_quota`] — quota- or
    /// limit-cut pages come back with `exhausted: false`, never silently
    /// clipped. Fails fast like [`CfpqService::enqueue`].
    pub fn enqueue_paths(
        &self,
        query: QueryId,
        pairs: Vec<(u32, u32)>,
        page: PageRequest,
    ) -> Result<Ticket, ServiceError> {
        registered(&self.inner.queries, query.0)?;
        self.push_request(QueueKey::Paths(query.0), pairs, Some(page))
    }

    /// Submits a single-path request to the scheduler (answers with the
    /// pair set of the start nonterminal, filtered like
    /// [`CfpqService::enqueue`]). Fails fast like
    /// [`CfpqService::enqueue`].
    pub fn enqueue_single_path(
        &self,
        query: SinglePathId,
        pairs: Vec<(u32, u32)>,
    ) -> Result<Ticket, ServiceError> {
        registered(&self.inner.sp_queries, query.0)?;
        self.push_request(QueueKey::Sp(query.0), pairs, None)
    }

    fn push_request(
        &self,
        key: QueueKey,
        pairs: Vec<(u32, u32)>,
        page: Option<PageRequest>,
    ) -> Result<Ticket, ServiceError> {
        let config = &self.inner.config;
        let obs = &self.inner.obs;
        let state = Arc::new(TicketState::default());
        {
            let mut st = lock_recover(&self.inner.sched.state);
            if st.shutdown {
                return Err(ServiceError::ShuttingDown);
            }
            if st.queued >= config.max_queued {
                let queued = st.queued;
                drop(st);
                obs.requests_shed.inc();
                // The hint scales with how deep the backlog is per
                // worker: a fuller pool needs a longer pause.
                let per_worker = queued / config.workers.max(1);
                return Err(ServiceError::Overloaded {
                    queued,
                    max_queued: config.max_queued,
                    retry_after: Duration::from_millis(1 + per_worker as u64),
                });
            }
            st.queued += 1;
            obs.queue_depth.set(st.queued as u64);
            obs.queue_depth_max.set_max(st.queued as u64);
            let now = Instant::now();
            let deadline = config.default_deadline.map(|d| now + d);
            // The ticket span opens here (a root — it outlives any span
            // the enqueueing thread may have open) and is closed by the
            // thread that resolves the request.
            let span = if obs.enabled {
                obs.recorder.start("ticket", SpanId::NONE)
            } else {
                SpanId::NONE
            };
            let queue = st.queues.entry(key).or_default();
            let was_empty = queue.is_empty();
            queue.push_back(Request {
                pairs,
                page,
                deadline,
                ticket: Arc::clone(&state),
                enqueued_at: now,
                span,
            });
            if was_empty {
                st.round_robin.push_back(key);
            }
        }
        self.inner.sched.available.notify_one();
        Ok(Ticket { state })
    }

    /// Inserts a batch of edges and publishes the next epoch; returns
    /// how many edges were genuinely new (`0` publishes nothing — the
    /// current epoch already answers correctly). Duplicate edges are
    /// skipped and unseen node ids grow the node universe, exactly as in
    /// [`GraphIndex::add_edges`].
    ///
    /// The new epoch is built **off to the side**: the current index is
    /// cloned, the batch applied, and every closure the current epoch
    /// has solved is repaired through the semi-naive resume paths —
    /// concurrent readers keep answering from the published epoch the
    /// whole time and switch only when the new one is complete. Writers
    /// are serialized with each other (epochs are totally ordered).
    ///
    /// Publishing is all-or-nothing under panics, too: every
    /// intermediate lives on the stack until the final atomic swap, so
    /// if a repair panics (a faulty engine, resource exhaustion) the
    /// half-built epoch is simply dropped, the panic propagates to the
    /// *caller*, and readers keep answering from the old epoch — the
    /// service keeps serving.
    pub fn add_edges(&self, edges: &[(NodeId, &str, NodeId)]) -> usize {
        let _writer = lock_recover(&self.inner.writer);
        let started = Instant::now();
        let cur = read_recover(&self.inner.current).clone();
        // All-duplicate batches (idempotent retries) must not pay the
        // index clone below: an edge can only be new if it names an
        // unseen node, an unseen label, or an unset cell.
        let n = cur.index.n_nodes() as NodeId;
        let all_present = edges.iter().all(|&(u, name, v)| {
            u < n && v < n && cur.index.adjacency(name).is_some_and(|m| m.get(u, v))
        });
        if all_present {
            return 0;
        }
        let mut index = cur.index.clone();
        let batch = index.add_edges(edges);
        if batch.inserted == 0 {
            return 0;
        }
        // The publishing thread carries the service's recorder for the
        // duration of the build, so the repair work below (its
        // `"query.repair"` / `"sweep"` / `"kernel"` spans) nests under
        // one `"epoch.publish"` span per published epoch.
        let _obs_install = self
            .inner
            .obs
            .enabled
            .then(|| cfpq_obs::install(Arc::clone(&self.inner.obs.recorder)));
        let mut publish_sp = cfpq_obs::span("epoch.publish");
        let counters = Arc::new(EpochCounters::default());
        let (queries, sp_queries) = (&self.inner.queries, &self.inner.sp_queries);
        let rel = cur.rel.carry_over(queries, &index, &batch, &counters);
        let sp = cur.sp.carry_over(sp_queries, &index, &batch, &counters);

        let next = Arc::new(Epoch {
            epoch: cur.epoch + 1,
            index,
            rel,
            answers: CacheMap::new(),
            sources: CacheMap::new(),
            sp,
            counters: Arc::clone(&counters),
        });
        let publish_ms = started.elapsed().as_secs_f64() * 1e3;
        self.inner.obs.publish_us.observe((publish_ms * 1e3) as u64);
        if publish_sp.is_recording() {
            publish_sp.attr_u64("epoch", cur.epoch + 1);
            publish_sp.attr_u64("inserted", batch.inserted as u64);
            publish_sp.attr_u64("repairs", counters.repairs.load(Ordering::Relaxed));
        }
        *write_recover(&self.inner.current) = next;
        lock_recover(&self.inner.epochs).push(EpochRecord {
            epoch: cur.epoch + 1,
            publish_ms,
            counters,
            failures_at_publish: self.inner.obs.failure_snapshot(),
        });
        batch.inserted
    }

    /// Stops accepting requests and drains the queues within the
    /// configured [`ServiceConfig::drain_deadline`]; see
    /// [`CfpqService::shutdown_within`]. Idempotent — `Drop` calls this
    /// too, so calling it explicitly just makes the bound yours.
    pub fn shutdown(&self) -> usize {
        self.shutdown_within(self.inner.config.drain_deadline)
    }

    /// Stops accepting requests ([`ServiceError::ShuttingDown`] at
    /// enqueue from now on) and gives workers up to `drain` to serve
    /// what is already queued. Whatever is still queued when the bound
    /// expires is resolved to [`ServiceError::ShuttingDown`] — returns
    /// how many tickets that was (0 = everything drained in time). The
    /// drain bound covers *queued* requests; a batch already being
    /// served runs to completion (its kernel work is finite).
    pub fn shutdown_within(&self, drain: Duration) -> usize {
        let deadline = Instant::now() + drain;
        let mut st = lock_recover(&self.inner.sched.state);
        st.shutdown = true;
        self.inner.sched.available.notify_all();
        while st.queued > 0 {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (s, _timed_out) = self
                .inner
                .sched
                .drained
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            st = s;
        }
        // Past the bound: fail what could not be drained, loudly.
        let undrained: Vec<Request> = st
            .queues
            .iter_mut()
            .flat_map(|(_, q)| q.drain(..))
            .collect();
        st.queues.clear();
        st.round_robin.clear();
        st.queued = 0;
        drop(st);
        self.inner.sched.available.notify_all();
        let now = Instant::now();
        for req in &undrained {
            req.ticket.resolve(Err(ServiceError::ShuttingDown));
            self.inner
                .obs
                .finish_ticket(req.span, req.enqueued_at, now, "shutdown");
        }
        undrained.len()
    }

    /// Per-epoch service statistics, in epoch order. Counters of the
    /// current epoch are still live (they advance as requests arrive).
    ///
    /// The failure fields (`worker_panics`, `worker_restarts`,
    /// `requests_shed`, `deadline_expired`) are *derived* views of the
    /// registry counters behind [`CfpqService::metrics`] — the single
    /// source of truth — attributed to an epoch by differencing the
    /// snapshot taken at its publish against the next one's (the live
    /// counter values, for the current epoch).
    pub fn stats(&self) -> Vec<ServiceStats> {
        let records = lock_recover(&self.inner.epochs);
        let live = self.inner.obs.failure_snapshot();
        records
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let base = r.failures_at_publish;
                let next = records.get(i + 1).map_or(live, |n| n.failures_at_publish);
                ServiceStats {
                    epoch: r.epoch,
                    publish_ms: r.publish_ms,
                    queries_served: r.counters.queries_served.load(Ordering::Relaxed),
                    batches: r.counters.batches.load(Ordering::Relaxed),
                    cache_hits: r.counters.cache_hits.load(Ordering::Relaxed),
                    cold_solves: r.counters.cold_solves.load(Ordering::Relaxed),
                    cold_products: r.counters.cold_products.load(Ordering::Relaxed),
                    repairs: r.counters.repairs.load(Ordering::Relaxed),
                    repair_products: r.counters.repair_products.load(Ordering::Relaxed),
                    paths_served: r.counters.paths_served.load(Ordering::Relaxed),
                    pages_truncated: r.counters.pages_truncated.load(Ordering::Relaxed),
                    worker_panics: next.worker_panics - base.worker_panics,
                    worker_restarts: next.worker_restarts - base.worker_restarts,
                    requests_shed: next.requests_shed - base.requests_shed,
                    deadline_expired: next.deadline_expired - base.deadline_expired,
                }
            })
            .collect()
    }
}

impl<E: ServiceEngine> Drop for CfpqService<E> {
    /// Shuts down with the configured bounded drain
    /// ([`CfpqService::shutdown_within`]): workers get
    /// [`ServiceConfig::drain_deadline`] to serve what is queued, every
    /// still-queued ticket then resolves to
    /// [`ServiceError::ShuttingDown`], and the workers are joined — the
    /// drop path never blocks forever on queued work.
    fn drop(&mut self) {
        self.shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpq_core::query::{solve, Backend};
    use cfpq_core::session::CfpqSession;
    use cfpq_grammar::queries;
    use cfpq_graph::generators;
    use cfpq_matrix::{DenseEngine, Device, ParDenseEngine, ParSparseEngine, SparseEngine};

    #[test]
    fn service_matches_one_shot_solve() {
        let grammar = queries::query1();
        let graph = generators::paper_example();
        let reference = solve(&graph, &grammar, Backend::Sparse).unwrap();
        let service = CfpqService::new(SparseEngine, &graph);
        let q = service.prepare(&grammar).unwrap();
        let answer = service.evaluate(q);
        assert_eq!(answer.start_pairs(), reference.start_pairs());
        assert_eq!(service.current_epoch(), 0);
    }

    #[test]
    fn snapshots_are_isolated_from_updates() {
        let grammar = Cfg::parse("S -> a S b | a b").unwrap();
        let chain = generators::word_chain(&["a", "a", "b"]);
        let service = CfpqService::new(SparseEngine, &chain);
        let q = service.prepare(&grammar).unwrap();
        let old = service.snapshot();
        assert_eq!(old.evaluate(q).start_pairs(), &[(1, 3)]);

        assert_eq!(service.add_edges(&[(3, "b", 4)]), 1);
        assert_eq!(service.current_epoch(), 1);
        // The old snapshot still answers the old graph...
        assert_eq!(old.evaluate(q).start_pairs(), &[(1, 3)]);
        assert_eq!(old.epoch(), 0);
        // ...while the new epoch sees the repaired closure.
        let new = service.snapshot();
        assert_eq!(new.epoch(), 1);
        assert_eq!(new.evaluate(q).start_pairs(), &[(0, 4), (1, 3)]);

        // The repair was incremental and cheaper than the epoch-1 cold
        // solve would have been.
        let stats = service.stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[1].repairs, 1);
        assert!(stats[1].repair_products > 0);
        assert_eq!(stats[1].cold_solves, 0, "epoch 1 never cold-solved");
    }

    #[test]
    fn duplicate_batches_publish_nothing() {
        let graph = generators::paper_example();
        let service = CfpqService::new(DenseEngine, &graph);
        let e = graph.edges()[0];
        assert_eq!(
            service.add_edges(&[(e.from, graph.label_name(e.label), e.to)]),
            0
        );
        assert_eq!(service.current_epoch(), 0, "no-op batches publish nothing");
        assert_eq!(service.stats().len(), 1);
    }

    #[test]
    fn scheduler_batches_share_one_closure() {
        let grammar = queries::query1();
        let graph = generators::paper_example();
        let reference = solve(&graph, &grammar, Backend::Sparse).unwrap();
        let service = CfpqService::with_config(SparseEngine, &graph, ServiceConfig::new(3));
        let q = service.prepare(&grammar).unwrap();
        let tickets: Vec<Ticket> = (0..16)
            .map(|_| service.enqueue(q, vec![]).unwrap())
            .collect();
        for t in tickets {
            assert_eq!(t.wait().unwrap().pairs, reference.start_pairs());
        }
        let stats = service.stats();
        assert_eq!(stats[0].cold_solves, 1, "one solve serves every request");
        assert_eq!(stats[0].queries_served, 16);
        assert!(stats[0].batches <= 16);
    }

    #[test]
    fn pair_filters_restrict_the_answer() {
        let grammar = queries::query1();
        let graph = generators::paper_example();
        let service = CfpqService::new(SparseEngine, &graph);
        let q = service.prepare(&grammar).unwrap();
        // Full R_S = [(0,0), (0,2), (1,2)].
        let t = service
            .enqueue(q, vec![(1, 2), (2, 2), (0, 0), (1, 2)])
            .unwrap();
        assert_eq!(t.wait().unwrap().pairs, vec![(0, 0), (1, 2)]);
    }

    #[test]
    fn named_pair_tickets_account_for_every_kernel_call() {
        use crate::faults::{FaultInjector, FaultPlan};
        // Three 8-node clusters: a lookup in one leaves the others alone.
        let graph = generators::clustered_blocks(3, 8, 2, &["a", "b"], 5);
        let grammar = Cfg::parse("S -> a S b | a b").unwrap();
        let full = solve(&graph, &grammar, Backend::Sparse).unwrap();
        let expect = |wanted: &[(u32, u32)]| -> Vec<(u32, u32)> {
            let mut hits: Vec<(u32, u32)> = wanted
                .iter()
                .copied()
                .filter(|&(i, j)| full.contains("S", i, j))
                .collect();
            hits.sort_unstable();
            hits.dedup();
            hits
        };
        // An empty plan: the injector only counts multiply-class calls.
        let engine = FaultInjector::new(SparseEngine, FaultPlan::none());
        let service = CfpqService::with_config(engine.clone(), &graph, ServiceConfig::new(1));
        let q = service.prepare(&grammar).unwrap();
        let ask = |wanted: Vec<(u32, u32)>| {
            let answer = service.enqueue(q, wanted.clone()).unwrap().wait().unwrap();
            assert_eq!(answer.pairs, expect(&wanted));
            service.stats()[0].clone()
        };
        let first_block: Vec<(u32, u32)> = (0..8).map(|j| (1, j)).collect();
        let other_block: Vec<(u32, u32)> = (16..24).map(|j| (17, j)).collect();

        // Restricted: the first ticket is the query's cold solve here.
        let restricted = ask(first_block.clone());
        assert_eq!(restricted.cold_solves, 1);
        assert!(restricted.cold_products > 0);
        assert_eq!(restricted.cold_products, engine.ops());
        assert_eq!(restricted.cache_hits, 0);

        // Extending: rows outside the closure grow it, no second solve.
        let extended = ask(other_block);
        assert_eq!(extended.cold_solves, 1);
        assert!(extended.cold_products > restricted.cold_products);
        assert_eq!(extended.cold_products, engine.ops());
        assert_eq!(extended.cache_hits, 0, "kernels ran for this ticket");

        // Covered: the rows are there, no kernel runs, a cache hit.
        let covered = ask(first_block);
        assert_eq!(covered.cold_solves, 1);
        assert_eq!(covered.cold_products, extended.cold_products);
        assert_eq!(covered.cold_products, engine.ops());
        assert_eq!(covered.cache_hits, 1);

        // A full answer needs every row: the all-pairs closure is solved
        // (a second cold solve), and named pairs probe it from then on.
        let all = service.enqueue(q, vec![]).unwrap().wait().unwrap();
        assert_eq!(all.pairs, full.start_pairs());
        let after_full = ask(vec![(1, 1), (9, 12)]);
        assert_eq!(after_full.cold_solves, 2);
        assert_eq!(after_full.cold_products, engine.ops());
        assert_eq!(after_full.cache_hits, 2);

        // The next epoch starts with the repaired all-pairs closure and
        // no restricted state.
        assert_eq!(service.add_edges(&[(0, "a", 24), (24, "b", 0)]), 2);
        let next = service.enqueue(q, vec![(0, 0)]).unwrap().wait().unwrap();
        assert_eq!((next.epoch, next.pairs), (1, vec![(0, 0)]));
        let stats = service.stats();
        assert_eq!(stats[1].cold_solves, 0);
        assert_eq!(stats[1].cache_hits, 1);
        assert_eq!(
            stats[0].cold_products + stats[1].repair_products,
            engine.ops()
        );
    }

    #[test]
    fn rpq_tickets_ride_the_scheduler_and_epoch_repair() {
        use cfpq_core::regular::{solve_regular, Nfa};
        let mut graph = Graph::new(4);
        graph.add_edge_named(0, "a", 1);
        graph.add_edge_named(1, "a", 2);
        graph.add_edge_named(2, "b", 3);
        let nfa = Nfa::star_then("a", "b");
        let service = CfpqService::new(SparseEngine, &graph);
        let q = service.prepare_regular(&nfa);

        let ticket = service.enqueue(q, vec![]).unwrap();
        let answer = ticket.wait().unwrap();
        assert_eq!(
            answer.pairs,
            solve_regular(&SparseEngine, &graph, &nfa).pairs()
        );

        // Publish a new epoch: the RPQ closure is repaired off to the
        // side like any relational closure, and the next ticket answers
        // against the new graph.
        let epoch_before = service.current_epoch();
        assert_eq!(service.add_edges(&[(0, "b", 2)]), 1);
        assert!(service.current_epoch() > epoch_before);
        graph.add_edge_named(0, "b", 2);
        let repaired = service.enqueue(q, vec![]).unwrap().wait().unwrap();
        assert_eq!(
            repaired.pairs,
            solve_regular(&SparseEngine, &graph, &nfa).pairs()
        );
        // The repair shows up in the published epoch's accounting.
        let stats = service.stats();
        assert!(
            stats.iter().any(|s| s.repairs > 0),
            "epoch repair accounted in ServiceStats"
        );
        // Pair filtering works for RPQ tickets like any other.
        let filtered = service.enqueue(q, vec![(0, 3)]).unwrap().wait().unwrap();
        assert_eq!(filtered.pairs, vec![(0, 3)]);
    }

    #[test]
    fn rsm_prepared_cfpq_served_like_wcnf() {
        let grammar = Cfg::parse("S -> a S b | a b").unwrap();
        let graph = generators::word_chain(&["a", "a", "b", "b"]);
        let service = CfpqService::new(SparseEngine, &graph);
        let rsm_q = service.prepare_rsm(&grammar).unwrap();
        let cnf_q = service.prepare(&grammar).unwrap();
        let rsm_pairs = service
            .enqueue(rsm_q, vec![])
            .unwrap()
            .wait()
            .unwrap()
            .pairs;
        let cnf_pairs = service
            .enqueue(cnf_q, vec![])
            .unwrap()
            .wait()
            .unwrap()
            .pairs;
        assert_eq!(rsm_pairs, cnf_pairs);
    }

    #[test]
    fn unknown_queries_fail_typed_at_enqueue() {
        let graph = generators::paper_example();
        let service = CfpqService::new(SparseEngine, &graph);
        let q = service.prepare(&queries::query1()).unwrap();
        // Handles are indices; forge out-of-range ones.
        let bad_rel = QueryId(7);
        let bad_sp = SinglePathId(0);
        assert_eq!(
            service.enqueue(bad_rel, vec![]).err(),
            Some(ServiceError::UnknownQuery {
                id: 7,
                registered: 1
            })
        );
        assert_eq!(
            service
                .enqueue_paths(bad_rel, vec![], PageRequest::default())
                .err(),
            Some(ServiceError::UnknownQuery {
                id: 7,
                registered: 1
            })
        );
        assert_eq!(
            service.enqueue_single_path(bad_sp, vec![]).err(),
            Some(ServiceError::UnknownQuery {
                id: 0,
                registered: 0
            })
        );
        // Direct reads answer a foreign handle the same way, on the
        // caller's thread.
        let snapshot = service.snapshot();
        assert_eq!(
            snapshot.try_evaluate(bad_rel).err(),
            Some(ServiceError::UnknownQuery {
                id: 7,
                registered: 1
            })
        );
        assert_eq!(
            snapshot.try_evaluate_single_path(bad_sp).err(),
            Some(ServiceError::UnknownQuery {
                id: 0,
                registered: 0
            })
        );
        assert_eq!(service.stats()[0].queries_served, 0, "nothing was served");
        // The registered query still serves.
        assert!(service.enqueue(q, vec![]).unwrap().wait().is_ok());
        assert!(snapshot.try_evaluate(q).is_ok());
    }

    #[test]
    fn wait_timeout_returns_the_ticket_on_timeout() {
        let graph = generators::paper_example();
        let service = CfpqService::new(SparseEngine, &graph);
        let q = service.prepare(&queries::query1()).unwrap();
        let t = service.enqueue(q, vec![]).unwrap();
        // Either the worker already resolved it (fine) or the zero
        // timeout hands the ticket back — and a later bounded wait gets
        // the answer. Never a hang.
        match t.wait_timeout(Duration::ZERO) {
            Ok(outcome) => assert!(outcome.is_ok()),
            Err(ticket) => {
                let outcome = ticket
                    .wait_timeout(Duration::from_secs(10))
                    .expect("ticket must resolve well within the bound");
                assert!(outcome.is_ok());
            }
        }
    }

    #[test]
    fn dropped_tickets_leak_nothing() {
        // Satellite regression: dropping a ticket without waiting must
        // not leak its queue slot (the backpressure gauge) or block
        // shutdown; try_peek on a sibling stays consistent.
        let graph = generators::paper_example();
        let service = CfpqService::with_config(
            SparseEngine,
            &graph,
            ServiceConfig::new(1).with_max_queued(4),
        );
        let q = service.prepare(&queries::query1()).unwrap();
        for _ in 0..16 {
            // 4× the queue bound of fire-and-forget requests: if drops
            // leaked their slot, enqueue would start shedding.
            let t = service.enqueue(q, vec![]);
            assert!(!matches!(t, Err(ServiceError::Overloaded { .. })));
            drop(t);
            // Let the single worker drain between drops so the queue
            // depth stays bounded by live requests, not by leaks.
            let keep = service.enqueue(q, vec![]).unwrap();
            let outcome = keep
                .wait_timeout(Duration::from_secs(10))
                .expect("sibling of a dropped ticket must still resolve");
            let answer = outcome.unwrap();
            assert_eq!(answer.pairs, vec![(0, 0), (0, 2), (1, 2)]);
        }
        // A resolved ticket peeks consistently as long as it is held.
        let held = service.enqueue(q, vec![]).unwrap();
        while held.try_peek().is_none() {
            std::thread::yield_now();
        }
        assert_eq!(held.try_peek(), held.try_peek());
        drop(held);
        assert_eq!(service.shutdown(), 0, "nothing left queued");
    }

    #[test]
    fn shutdown_fails_queued_requests_typed_and_rejects_new_ones() {
        let graph = generators::paper_example();
        let service = CfpqService::with_config(SparseEngine, &graph, ServiceConfig::new(1));
        let q = service.prepare(&graph_grammar()).unwrap();
        // Stall the single worker with a slow handmade queue? Not
        // needed: shutdown with a zero drain bound fails whatever the
        // worker has not picked up yet, and everything it did pick up
        // resolves normally. Either way every ticket resolves.
        let tickets: Vec<Ticket> = (0..32)
            .map(|_| service.enqueue(q, vec![]).unwrap())
            .collect();
        let failed = service.shutdown_within(Duration::ZERO);
        for t in tickets {
            match t.wait_timeout(Duration::from_secs(10)) {
                Ok(Ok(_)) | Ok(Err(ServiceError::ShuttingDown)) => {}
                other => panic!("unexpected post-shutdown outcome: {other:?}"),
            }
        }
        // New requests are rejected typed.
        assert_eq!(
            service.enqueue(q, vec![]).err(),
            Some(ServiceError::ShuttingDown)
        );
        // Second shutdown is an idempotent no-op.
        assert_eq!(service.shutdown(), 0);
        let _ = failed; // zero or more depending on worker timing
    }

    fn graph_grammar() -> Cfg {
        Cfg::parse("S -> a S b | a b").unwrap()
    }

    #[test]
    fn single_path_matches_session_and_supports_extraction() {
        use cfpq_core::single_path::{extract_path, validate_witness};
        let grammar = queries::query1();
        let wcnf = grammar
            .to_wcnf(cfpq_grammar::cnf::CnfOptions::default())
            .unwrap();
        let graph = generators::paper_example();
        let mut session = CfpqSession::new(SparseEngine, &graph);
        let sid = session.prepare_single_path(&grammar).unwrap();
        let expect = session.evaluate_single_path(sid).pairs(wcnf.start);

        let service = CfpqService::new(SparseEngine, &graph);
        let q = service.prepare_single_path(&grammar).unwrap();
        let idx = service.evaluate_single_path(q);
        assert_eq!(idx.pairs(wcnf.start), expect);
        let (i, j, len) = idx.pairs_with_lengths(wcnf.start)[0];
        let path = extract_path(&idx, &graph, &wcnf, wcnf.start, i, j).unwrap();
        assert_eq!(path.len() as u32, len);
        assert!(validate_witness(&path, &graph, &wcnf, wcnf.start, i, j));
        // Scheduler path agrees.
        let t = service.enqueue_single_path(q, vec![]).unwrap();
        assert_eq!(t.wait().unwrap().pairs, expect);
    }

    #[test]
    fn single_path_repairs_across_epochs() {
        let grammar = Cfg::parse("S -> a S b | a b").unwrap();
        let chain = generators::word_chain(&["a", "a", "b"]);
        let service = CfpqService::new(SparseEngine, &chain);
        let q = service.prepare_single_path(&grammar).unwrap();
        let start = service.inner.sp_queries.read().unwrap()[0].wcnf().start;
        assert_eq!(service.evaluate_single_path(q).pairs(start), vec![(1, 3)]);
        service.add_edges(&[(3, "b", 4)]);
        let idx = service.evaluate_single_path(q);
        assert_eq!(idx.pairs(start), vec![(0, 4), (1, 3)]);
        assert_eq!(idx.length(start, 0, 4), Some(4));
        let stats = service.stats();
        assert_eq!(stats[1].repairs, 1);
    }

    #[test]
    fn growth_and_unknown_labels_are_served() {
        let grammar = Cfg::parse("S -> a S b | a b").unwrap();
        let chain = generators::word_chain(&["a", "a", "b"]);
        let service = CfpqService::new(DenseEngine, &chain);
        let q = service.prepare(&grammar).unwrap();
        service.evaluate(q);
        // Node 4 is unseen; label "z" is unknown to the grammar.
        assert_eq!(service.add_edges(&[(3, "b", 4), (0, "z", 99)]), 2);
        let snap = service.snapshot();
        assert_eq!(snap.n_nodes(), 100);
        assert_eq!(snap.evaluate(q).start_pairs(), &[(0, 4), (1, 3)]);
    }

    #[test]
    fn concurrent_readers_and_writer_smoke() {
        use std::sync::atomic::AtomicBool;
        let grammar = Cfg::parse("S -> a S b | a b").unwrap();
        let chain = generators::word_chain(&["a", "a", "a", "b", "b"]);
        let service = CfpqService::with_config(ParSparseEngine::new(Device::new(2)), &chain, {
            ServiceConfig::new(2)
        });
        let q = service.prepare(&grammar).unwrap();
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    while !done.load(Ordering::Relaxed) {
                        let snap = service.snapshot();
                        let answer = snap.evaluate(q);
                        // Within one snapshot, repeated evaluation is
                        // repeatable even while the writer publishes.
                        assert_eq!(
                            snap.evaluate(q).start_pairs(),
                            answer.start_pairs(),
                            "snapshot must be immutable"
                        );
                    }
                });
            }
            service.add_edges(&[(5, "b", 6)]);
            service.add_edges(&[(6, "b", 7)]);
            done.store(true, Ordering::Relaxed);
        });
        let final_pairs = service.evaluate(q).start_pairs().to_vec();
        assert_eq!(final_pairs, vec![(0, 6), (1, 5), (2, 4)]);
    }

    #[test]
    fn all_engines_serve_identically() {
        let grammar = queries::query1();
        let graph = generators::paper_example();
        let expect = solve(&graph, &grammar, Backend::Sparse)
            .unwrap()
            .start_pairs()
            .to_vec();
        fn check<E: ServiceEngine>(engine: E, graph: &Graph, grammar: &Cfg) -> Vec<(u32, u32)> {
            let service = CfpqService::new(engine, graph);
            let q = service.prepare(grammar).unwrap();
            let t = service.enqueue(q, vec![]).unwrap();
            t.wait().unwrap().pairs
        }
        assert_eq!(check(DenseEngine, &graph, &grammar), expect);
        assert_eq!(check(SparseEngine, &graph, &grammar), expect);
        assert_eq!(
            check(ParDenseEngine::new(Device::new(2)), &graph, &grammar),
            expect
        );
        assert_eq!(
            check(ParSparseEngine::new(Device::new(2)), &graph, &grammar),
            expect
        );
    }

    #[test]
    fn paths_tickets_stream_valid_pages() {
        use cfpq_core::single_path::validate_witness;
        let grammar = Cfg::parse("S -> a S b | a b").unwrap();
        let wcnf = grammar
            .to_wcnf(cfpq_grammar::cnf::CnfOptions::default())
            .unwrap();
        let mut graph = Graph::new(1);
        graph.add_edge_named(0, "a", 0);
        graph.add_edge_named(0, "b", 0);
        let service = CfpqService::new(SparseEngine, &graph);
        let q = service.prepare(&grammar).unwrap();
        let answer = service
            .enqueue_paths(
                q,
                vec![],
                PageRequest {
                    offset: 0,
                    limit: 10,
                    max_len: 8,
                },
            )
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(answer.pairs, vec![(0, 0)]);
        let pages = answer.paths.expect("paths request answers with pages");
        assert_eq!(pages.len(), 1);
        let page = &pages[0];
        assert_eq!(page.paths.len(), 4, "a^n b^n for n in 1..=4");
        assert!(page.exhausted);
        for p in &page.paths {
            assert!(validate_witness(p, &graph, &wcnf, wcnf.start, 0, 0));
        }
        let stats = service.stats();
        assert_eq!(stats[0].paths_served, 4);
        assert_eq!(stats[0].pages_truncated, 0);
    }

    #[test]
    fn path_quota_truncates_loudly() {
        let grammar = Cfg::parse("S -> a S b | a b").unwrap();
        let mut graph = Graph::new(1);
        graph.add_edge_named(0, "a", 0);
        graph.add_edge_named(0, "b", 0);
        let service = CfpqService::with_config(
            SparseEngine,
            &graph,
            ServiceConfig::new(1).with_path_quota(2),
        );
        let q = service.prepare(&grammar).unwrap();
        let answer = service
            .enqueue_paths(
                q,
                vec![],
                PageRequest {
                    offset: 0,
                    limit: 10,
                    max_len: 12,
                },
            )
            .unwrap()
            .wait()
            .unwrap();
        let page = &answer.paths.unwrap()[0];
        assert_eq!(page.paths.len(), 2, "quota clamps the page");
        assert!(!page.exhausted, "the cut is reported, not silent");
        let stats = service.stats();
        assert_eq!(stats[0].paths_served, 2);
        assert_eq!(stats[0].pages_truncated, 1);
    }

    #[test]
    fn paths_pages_are_epoch_consistent_across_updates() {
        use cfpq_core::all_paths::enumerate_paths;
        use cfpq_core::all_paths::EnumLimits;
        use cfpq_core::relational::FixpointSolver;
        let grammar = Cfg::parse("S -> a S b | a b").unwrap();
        let wcnf = grammar
            .to_wcnf(cfpq_grammar::cnf::CnfOptions::default())
            .unwrap();
        let chain = generators::word_chain(&["a", "a", "b"]);
        let service = CfpqService::new(SparseEngine, &chain);
        let q = service.prepare(&grammar).unwrap();
        let req = PageRequest {
            offset: 0,
            limit: 16,
            max_len: 8,
        };
        let before = service
            .enqueue_paths(q, vec![], req)
            .unwrap()
            .wait()
            .unwrap();
        service.add_edges(&[(3, "b", 4)]);
        let after = service
            .enqueue_paths(q, vec![], req)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(before.epoch, 0);
        assert_eq!(after.epoch, 1);
        // Each answer equals a from-scratch enumeration over the graph
        // of its own epoch — pages never mix epochs.
        let mut full = generators::word_chain(&["a", "a", "b"]);
        full.add_edge_named(3, "b", 4);
        for (answer, graph) in [(&before, &chain), (&after, &full)] {
            let rel = FixpointSolver::new(&SparseEngine).solve(graph, &wcnf);
            for pp in answer.paths.as_ref().unwrap() {
                let expect = enumerate_paths(
                    &rel,
                    graph,
                    &wcnf,
                    wcnf.start,
                    pp.from,
                    pp.to,
                    EnumLimits {
                        max_len: req.max_len,
                        max_paths: req.limit,
                    },
                );
                assert_eq!(pp.paths, expect.paths);
                assert_eq!(pp.exhausted, expect.exhausted);
            }
        }
        assert_eq!(after.pairs, vec![(0, 4), (1, 3)]);
    }

    #[test]
    fn from_parallelism_coordinates_the_pools() {
        let (config, device) = ServiceConfig::from_parallelism(Parallelism::new(4), 3);
        assert_eq!(config.workers, 3);
        assert_eq!(device.n_workers(), 1);
        let graph = generators::paper_example();
        let service = CfpqService::with_config(ParSparseEngine::new(device), &graph, config);
        assert_eq!(service.n_workers(), 3);
        let q = service.prepare(&queries::query1()).unwrap();
        assert_eq!(
            service.enqueue(q, vec![]).unwrap().wait().unwrap().pairs,
            vec![(0, 0), (0, 2), (1, 2)]
        );
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_growing() {
        let mut a = Backoff::with_bounds(7, Duration::from_millis(2), Duration::from_millis(50));
        let mut b = Backoff::with_bounds(7, Duration::from_millis(2), Duration::from_millis(50));
        let delays: Vec<Duration> = (0..8).map(|_| a.next_delay()).collect();
        let replay: Vec<Duration> = (0..8).map(|_| b.next_delay()).collect();
        assert_eq!(delays, replay, "same seed, same schedule");
        for d in &delays {
            assert!(*d >= Duration::from_millis(2) && *d <= Duration::from_millis(50));
        }
        let mut c = Backoff::with_bounds(8, Duration::from_millis(2), Duration::from_millis(50));
        assert_ne!(
            (0..8).map(|_| c.next_delay()).collect::<Vec<_>>(),
            delays,
            "different seeds decorrelate"
        );
    }
}

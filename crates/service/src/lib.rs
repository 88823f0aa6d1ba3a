//! # cfpq-service
//!
//! The concurrent serving layer over the session engine: many reader
//! threads evaluating prepared queries against one evolving graph,
//! without a global lock around the solver — CFPQ as a graph-database
//! primitive in a serving context (Medeiros et al., "An Algorithm for
//! Context-Free Path Queries over Graph Databases").
//!
//! * **Snapshot isolation.** The graph lives in immutable epoch-tagged
//!   [`Snapshot`]s. An epoch is a [`GraphState`] — the index, the
//!   prepared queries and one closure cell per query, the state a
//!   `CfpqSession` drives inline — plus the counters charged to it.
//!   [`CfpqService::add_edges`] clones the state *off to the side*,
//!   applies the batch, repairs every closure it inherited
//!   ([`GraphState::repair_stale`], the semi-naive resume), and
//!   publishes the next epoch atomically: a reader never blocks on a
//!   writer and never observes a half-applied batch. Within an epoch a
//!   query's closure is solved at most once, concurrent readers waiting
//!   on one solve, and then served by `Arc` refcount bump. A closure a
//!   reader of the old epoch was still solving at the publish is
//!   adopted, not waited for or solved again: the new epoch's first read
//!   waits for it and repairs it.
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
//!   paged stream of witness paths per answer pair, enumerated against
//!   one epoch by the memoized [`cfpq_core::all_paths::PathEnumerator`]
//!   that epoch keeps beside the query's closure (pages are
//!   snapshot-consistent even while writers publish),
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

use cfpq_core::all_paths::PageRequest;
use cfpq_core::query::QueryAnswer;
use cfpq_core::session::{GraphIndex, GraphState, PreparedQuery};
use cfpq_core::single_path::SinglePathIndex;
use cfpq_grammar::{Cfg, GrammarError};
use cfpq_graph::{Graph, NodeId};
use cfpq_matrix::{BoolEngine, LenEngine};
use cfpq_obs::{MetricsRegistry, NoopRecorder, Recorder, SpanId};
use epoch::{Epoch, EpochCounters, EpochRecord};
use obs::Obs;
use sched::{spawn_worker, QueueKey, Request, SchedShared, SchedState};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use ticket::TicketState;

mod config;
mod epoch;
pub mod faults;
mod obs;
mod sched;
mod ticket;

pub use config::{Backoff, ServiceConfig, ServiceError};
pub use epoch::{ServiceStats, Snapshot};
pub use ticket::{PairPaths, QueryTrace, Ticket, TicketAnswer, TicketResult};

pub use cfpq_core::all_paths::PageRequest as PathPageRequest;
pub use cfpq_core::session::{QueryId, SinglePathId};

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

struct Inner<E: ServiceEngine> {
    config: ServiceConfig,
    current: RwLock<Arc<Epoch<E>>>,
    /// Serializes writers: epochs are built one at a time, off to the
    /// side, while readers keep using the published one. Preparing a
    /// query takes it too, so that no publish is cloning the state the
    /// query is added to.
    writer: Mutex<()>,
    epochs: Mutex<Vec<EpochRecord>>,
    sched: SchedShared,
    obs: Obs,
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

    fn over_full(
        index: GraphIndex<E>,
        config: ServiceConfig,
        build_ms: f64,
        recorder: Arc<dyn Recorder>,
    ) -> Self {
        let obs = Obs::new(recorder);
        let counters = Arc::new(EpochCounters::default());
        let state = GraphState::new(index);
        obs.epoch_published(&state, None);
        let epoch = Arc::new(Epoch::new(0, state, Arc::clone(&counters)));
        let failures_at_publish = obs.failure_snapshot();
        let inner = Arc::new(Inner {
            config,
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
    /// is serving: a query reaches the current epoch and every later one,
    /// not the epochs that older snapshots pin.
    pub fn prepare(&self, grammar: &Cfg) -> Result<QueryId, GrammarError> {
        Ok(self.prepare_query(PreparedQuery::new(grammar)?))
    }

    /// Registers a fully-configured [`PreparedQuery`].
    pub fn prepare_query(&self, query: PreparedQuery) -> QueryId {
        let _writer = lock_recover(&self.inner.writer);
        self.current().state.prepare(query)
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
        let _writer = lock_recover(&self.inner.writer);
        self.current().state.prepare_single_path(query)
    }

    fn current(&self) -> Arc<Epoch<E>> {
        read_recover(&self.inner.current).clone()
    }

    /// The current epoch's snapshot. The returned view is immutable:
    /// concurrent [`CfpqService::add_edges`] calls publish later epochs
    /// without disturbing it.
    pub fn snapshot(&self) -> Snapshot<E> {
        Snapshot {
            epoch: self.current(),
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
        self.current().epoch
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
    ///   to the rows reachable from the sources, kept in the query's
    ///   closure cell of the epoch and *extended* when a later ticket
    ///   names rows outside it. The first such solve of a query in an
    ///   epoch counts as one of [`ServiceStats::cold_solves`], every
    ///   product of it and of its extensions goes to
    ///   [`ServiceStats::cold_products`], and a batch whose rows are all
    ///   there already — no kernel runs — is one of
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
        self.current().check(query)?;
        self.push_request(QueueKey::Rel(query), pairs, None)
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
        self.current().check(query)?;
        self.push_request(QueueKey::Paths(query), pairs, Some(page))
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
        self.current().check_single_path(query)?;
        self.push_request(QueueKey::Sp(query), pairs, None)
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
    /// The new epoch is built **off to the side**: the current epoch's
    /// [`GraphState`] is cloned, the batch applied, and every closure
    /// the current epoch has solved is repaired through the semi-naive
    /// resume paths ([`GraphState::repair_stale`]) — concurrent readers
    /// keep answering from the published epoch the whole time and switch
    /// only when the new one is complete. A closure a reader is still
    /// solving is not waited for: the new epoch adopts it, and its first
    /// read repairs it. Writers are serialized with each other (epochs
    /// are totally ordered).
    ///
    /// The clone costs O(labels + prepared queries), not the edge set:
    /// epochs share labels and closures copy-on-write, so a publish
    /// copies only the labels its batch writes to (every one if the
    /// batch grows the node universe; a label no read has built copies
    /// its pair list, and stays unbuilt), and the
    /// `cfpq_epoch_index_copied_bytes` gauge says how many bytes that
    /// was. A batch of duplicates copies nothing and publishes nothing.
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
        let cur = self.current();
        let mut state = cur.state.clone();
        let inserted = state.add_edges(edges);
        if inserted == 0 {
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
        state.repair_stale(|run| counters.charge(Some(run)));
        let next = Arc::new(Epoch::new(cur.epoch + 1, state, Arc::clone(&counters)));
        let publish_ms = started.elapsed().as_secs_f64() * 1e3;
        self.inner.obs.publish_us.observe((publish_ms * 1e3) as u64);
        if publish_sp.is_recording() {
            publish_sp.attr_u64("epoch", cur.epoch + 1);
            publish_sp.attr_u64("inserted", inserted as u64);
            publish_sp.attr_u64("repairs", counters.repairs.load(Ordering::Relaxed));
        }
        let obs = &self.inner.obs;
        obs.epoch_published(&next.state, Some(&cur.state));
        *write_recover(&self.inner.current) = next;
        lock_recover(&self.inner.epochs).push(EpochRecord {
            epoch: cur.epoch + 1,
            publish_ms,
            counters,
            failures_at_publish: self.inner.obs.failure_snapshot(),
        });
        inserted
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
    use cfpq_core::session::{CfpqSession, RunInfo};
    use cfpq_grammar::queries;
    use cfpq_graph::generators;
    use cfpq_graph::Edge;
    use cfpq_matrix::{
        DenseEngine, Device, ParDenseEngine, ParSparseEngine, Parallelism, SparseEngine,
        TiledEngine,
    };

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
    fn publishes_copy_only_the_labels_their_batches_touch() {
        let grammar = graph_grammar();
        let mut graph = generators::word_chain(&["a", "b", "b", "c"]);
        let service = CfpqService::new(SparseEngine, &graph);
        let q = service.prepare(&grammar).unwrap();
        // Per label, in label order (a, b, c): what it holds, read as the
        // gauges read it (its matrix once built, its pairs before).
        let labels = |snapshot: &Snapshot<SparseEngine>| -> Vec<u64> {
            let index = snapshot.epoch.state.index();
            index.label_bytes().map(|(_, b)| b as u64).collect()
        };
        let metrics = service.metrics();
        let gauge = |name| metrics.gauge(name).get();
        let gauges = || {
            let total = gauge("cfpq_epoch_index_bytes");
            (total, gauge("cfpq_epoch_index_copied_bytes"))
        };
        let total = |labels: &[u64]| labels.iter().sum();

        let epoch0 = service.snapshot();
        let at0 = labels(&epoch0);
        assert_eq!(
            gauges(),
            (total(&at0), total(&at0)),
            "epoch 0 shares nothing"
        );
        let answer0 = epoch0.evaluate(q).start_pairs().to_vec();
        assert_eq!(service.add_edges(&[(1, "a", 1)]), 1);
        let epoch1 = service.snapshot();
        let at1 = labels(&epoch1);
        assert_eq!(gauges(), (total(&at1), at1[0]), "epoch 1 copied a");
        let answer1 = epoch1.evaluate(q).start_pairs().to_vec();
        assert_eq!(service.add_edges(&[(2, "b", 4)]), 1);
        let epoch2 = service.snapshot();
        let at2 = labels(&epoch2);
        assert_eq!(gauges(), (total(&at2), at2[1]), "epoch 2 copied b");
        assert!(at2[1] < total(&at2));

        // Whether label `l` is the very label of the epoch before, in
        // epochs 1 and 2.
        let epochs = |l: &str| {
            let [i0, i1, i2] = [&epoch0, &epoch1, &epoch2].map(|s| s.epoch.state.index());
            [i1.shares_label(i0, l), i2.shares_label(i1, l)]
        };
        let [a, b, c] = ["a", "b", "c"].map(epochs);
        assert!(!a[0] && a[1], "a: {a:?}");
        assert!(b[0] && !b[1], "b: {b:?}");
        assert!(c[0] && c[1], "c, never written: {c:?}");

        // Both pinned epochs answer as they did before the publishes.
        assert_eq!(epoch0.evaluate(q).start_pairs(), answer0);
        assert_eq!(epoch1.evaluate(q).start_pairs(), answer1);
        for (u, label, v) in [(1, "a", 1), (2, "b", 4)] {
            graph.add_edge_named(u, label, v);
        }
        let expect = solve(&graph, &grammar, Backend::Sparse).unwrap();
        assert_eq!(service.evaluate(q).start_pairs(), expect.start_pairs());
        assert!(answer0 != answer1 && answer1 != expect.start_pairs());
    }

    #[test]
    fn a_label_no_query_reads_costs_its_pairs_and_stays_unbuilt() {
        let mut graph = generators::word_chain(&["a", "b"]);
        graph.add_edge_named(0, "pad", 2);
        graph.add_edge_named(2, "pad", 1);
        let index = GraphIndex::build(SparseEngine, &graph);
        let service = CfpqService::over(index, ServiceConfig::new(1));
        let q = service.prepare(&graph_grammar()).unwrap();
        assert_eq!(service.evaluate(q).start_pairs(), &[(0, 2)]);
        assert_eq!(service.add_edges(&[(2, "a", 0)]), 1);

        let snapshot = service.snapshot();
        let index = snapshot.epoch.state.index();
        assert_eq!(index.is_built("a"), Some(true), "the query read a");
        assert_eq!(index.is_built("pad"), Some(false), "and never pad");
        let labels: Vec<(&str, u64)> = index
            .label_bytes()
            .map(|(name, bytes)| (name, bytes as u64))
            .collect();
        assert_eq!(labels[2], ("pad", 16), "two pairs, 8 B each");
        let metrics = service.metrics();
        let total = labels.iter().map(|l| l.1).sum();
        assert_eq!(metrics.gauge("cfpq_epoch_index_bytes").get(), total);
        assert_eq!(
            metrics.gauge("cfpq_epoch_index_copied_bytes").get(),
            labels[0].1,
            "the publish copied a; pad is shared, unbuilt"
        );
        assert_eq!(
            index.is_built("pad"),
            Some(false),
            "the gauges built nothing"
        );
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
    fn the_closure_gauge_counts_a_cold_length_closure_at_its_trimmed_size() {
        use cfpq_grammar::Nt;
        use cfpq_matrix::LenMat;
        // Four tile-rows of nested and concatenated brackets: the solve's
        // merges re-lay tiles, which leaves dead values behind.
        let graph = generators::clustered_blocks(4, 60, 2, &["a", "b"], 11);
        let grammar = Cfg::parse("S -> a S b | a b | S S").unwrap();
        let n_nts = PreparedQuery::new(&grammar).unwrap().wcnf().n_nts();
        let service =
            CfpqService::with_config(TiledEngine::serial(), &graph, ServiceConfig::new(1));
        let sp = service.prepare_single_path(&grammar).unwrap();
        let cold = service.evaluate_single_path(sp);
        assert_eq!(service.stats()[0].cold_solves, 1);
        assert!(cold.iterations > 3);
        let matrices = || (0..n_nts).map(|a| cold.matrix(Nt(a as u32)));
        let bytes: usize = matrices().map(LenMat::bytes).sum();
        let trimmed: usize = matrices()
            .map(|m| {
                let mut m = m.clone();
                m.shrink_to_fit();
                m.bytes()
            })
            .sum();
        assert_eq!(bytes, trimmed, "the cold solve trimmed its closure");
        // The gauge is set at a publish. One on a label the grammar does
        // not read gives the repair no seed: the epoch holds the cold
        // closure, and the gauge counts it at its trimmed size.
        assert_eq!(service.add_edges(&[(0, "c", 1)]), 1);
        assert_eq!(service.stats()[1].repair_products, 0);
        let gauge = service.metrics().gauge("cfpq_epoch_closure_bytes").get();
        assert_eq!(gauge, trimmed as u64);
    }

    #[test]
    fn a_grammar_prepared_under_both_kinds_keeps_one_closure() {
        use cfpq_grammar::Nt;
        use cfpq_matrix::LenMat;
        let graph = generators::clustered_blocks(3, 8, 2, &["a", "b"], 5);
        let grammar = Cfg::parse("S -> a S b | a b").unwrap();
        let wcnf = PreparedQuery::new(&grammar).unwrap().wcnf().clone();
        let service = CfpqService::with_config(SparseEngine, &graph, ServiceConfig::new(1));
        let q = service.prepare(&grammar).unwrap();
        let sp = service.prepare_single_path(&grammar).unwrap();
        let closure_bytes = || service.metrics().gauge("cfpq_epoch_closure_bytes").get();
        assert_eq!(closure_bytes(), 0, "epoch 0 is published unsolved");
        let ask = |wanted: Vec<(u32, u32)>| service.enqueue(q, wanted).unwrap().wait().unwrap();
        let first_block: Vec<(u32, u32)> = (0..8).map(|j| (1, j)).collect();
        let other_block: Vec<(u32, u32)> = (16..24).map(|j| (17, j)).collect();

        // Until the length closure serving Q is solved, named lookups
        // grow the restricted closure.
        let pinned = service.snapshot();
        let named = ask(first_block.clone());
        assert!(!pinned.epoch.state.is_solved(q));
        assert!(pinned.epoch.state.sources(q).unwrap().is_some());
        let restricted = service.stats()[0].clone();
        assert_eq!((restricted.cold_solves, restricted.cache_hits), (1, 0));

        // The single-path read solves it; from then on a lookup of rows
        // the restricted closure never reached is a hit on it.
        let lengths = service.evaluate_single_path(sp);
        assert!(pinned.epoch.state.is_solved(q));
        let full = ask(other_block.clone());
        let served = service.stats()[0].clone();
        assert_eq!(served.cold_solves, 2, "the length closure's cold solve");
        assert_eq!(
            served.cold_products,
            restricted.cold_products + lengths.stats.products_computed as u64
        );
        assert_eq!(served.cache_hits, 1, "no second Boolean solve");
        let expect: Vec<(u32, u32)> = other_block
            .iter()
            .copied()
            .filter(|&(i, j)| lengths.contains(wcnf.start, i, j))
            .collect();
        assert_eq!(full.pairs, expect);

        // A publish repairs that one closure, and the gauge counts it
        // once: its length matrices, and no Boolean closure.
        let old_answer = pinned.evaluate(q).start_pairs().to_vec();
        let old_lengths = pinned
            .evaluate_single_path(sp)
            .pairs_with_lengths(wcnf.start);
        assert_eq!(service.add_edges(&[(7, "a", 24), (24, "b", 16)]), 2);
        let stats = service.stats();
        assert_eq!((stats[1].repairs, stats[1].cold_solves), (1, 0));
        let repaired = service.evaluate_single_path(sp);
        let bytes: usize = (0..wcnf.n_nts())
            .map(|a| repaired.matrix(Nt(a as u32)).bytes())
            .sum();
        assert_eq!(closure_bytes(), bytes as u64);
        assert_eq!(
            service.stats()[1].cache_hits,
            1,
            "the publish left it solved"
        );

        // The older epoch still answers what it answered.
        assert_eq!(pinned.evaluate(q).start_pairs(), old_answer);
        assert_eq!(
            pinned
                .evaluate_single_path(sp)
                .pairs_with_lengths(wcnf.start),
            old_lengths
        );
        let mut grown = graph.clone();
        grown.add_edge_named(7, "a", 24);
        grown.add_edge_named(24, "b", 16);
        let fresh = solve(&grown, &grammar, Backend::Sparse).unwrap();
        assert_eq!(service.evaluate(q).start_pairs(), fresh.start_pairs());
        assert_ne!(fresh.start_pairs(), old_answer);
        assert_eq!(named.pairs, ask(first_block).pairs);
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
        // Handles are positions: a service that prepared more queries
        // mints ones out of this service's range.
        let other = CfpqService::new(SparseEngine, &graph);
        let minted: Vec<QueryId> = (0..8)
            .map(|_| other.prepare(&queries::query1()).unwrap())
            .collect();
        let bad_rel = minted[7];
        let bad_sp = other.prepare_single_path(&queries::query1()).unwrap();
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
    fn both_fronts_repair_alike() {
        use cfpq_core::regular::Nfa;
        use cfpq_matrix::TiledEngine;
        // A session and a service over one graph take the same batches.
        // After each, every query read as a full answer must agree, and
        // the session's lazy repairs must launch exactly the products
        // the service's publish did. Q1 is prepared under both kinds, so
        // one length closure serves both: the publish repairs it once,
        // and in the session the relational read of Q1 repairs it and
        // records the run on the single-path handle, which owns it.
        fn check<E: ServiceEngine>(engine: E) {
            let full = cfpq_graph::ontology::dataset("skos").unwrap().to_graph();
            let query_label = |e: &Edge| full.label_name(e.label).starts_with("subClassOf");
            let held: Vec<Edge> = full.edges().iter().copied().filter(query_label).collect();
            let held = &held[held.len() - 6..];
            let mut base = Graph::new(full.n_nodes());
            for e in full.edges().iter().filter(|e| !held.contains(e)) {
                base.add_edge_named(e.from, full.label_name(e.label), e.to);
            }
            let (q1, plus) = (queries::query1(), Nfa::plus("subClassOf"));
            let start = PreparedQuery::new(&q1).unwrap().wcnf().start;
            let mut session = CfpqSession::new(engine.clone(), &base);
            let s = (
                session.prepare(&q1).unwrap(),
                session.prepare_regular(&plus),
                session.prepare_single_path(&q1).unwrap(),
            );
            let service = CfpqService::new(engine, &base);
            let v = (
                service.prepare(&q1).unwrap(),
                service.prepare_regular(&plus),
                service.prepare_single_path(&q1).unwrap(),
            );
            let read_both = |session: &mut CfpqSession<E>| {
                let snap = service.snapshot();
                for (sq, vq) in [(s.0, v.0), (s.1, v.1)] {
                    let answer = snap.evaluate(vq);
                    assert_eq!(session.evaluate(sq).start_pairs(), answer.start_pairs());
                }
                let lengths = snap.evaluate_single_path(v.2).pairs_with_lengths(start);
                let session_lengths = session.evaluate_single_path(s.2);
                assert_eq!(session_lengths.pairs_with_lengths(start), lengths);
                // The session's runs of this round, in products. Q1's
                // relational handle owns no closure and records none.
                assert!(session.last_run(s.0).is_none());
                let products = |run: Option<&RunInfo>| run.unwrap().stats.products_computed;
                [session.last_run(s.1), session.last_single_path_run(s.2)]
                    .into_iter()
                    .map(products)
                    .sum::<usize>()
            };
            read_both(&mut session);
            for (b, batch) in held.chunks(2).enumerate() {
                let edges: Vec<(u32, &str, u32)> = batch
                    .iter()
                    .map(|e| (e.from, full.label_name(e.label), e.to))
                    .collect();
                assert_eq!(session.add_edges(&edges), service.add_edges(&edges));
                let repaired = read_both(&mut session);
                let stats = &service.stats()[b + 1];
                assert_eq!((stats.repairs, stats.cold_solves), (2, 0), "batch {b}");
                assert!(stats.repair_products > 0, "batch {b}");
                assert_eq!(repaired as u64, stats.repair_products, "batch {b}");
            }
        }
        check(SparseEngine);
        check(TiledEngine::serial());
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
        use cfpq_core::all_paths::PathEnumerator;
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
            let index = GraphIndex::build(SparseEngine, graph);
            for pp in answer.paths.as_ref().unwrap() {
                let expect =
                    PathEnumerator::new(&wcnf).page(&index, &rel, wcnf.start, pp.from, pp.to, req);
                assert_eq!(pp.paths, expect.paths);
                assert_eq!(pp.exhausted, expect.exhausted);
            }
        }
        assert_eq!(after.pairs, vec![(0, 4), (1, 3)]);
    }

    #[test]
    fn paths_batches_of_one_epoch_page_one_enumerator() {
        use cfpq_core::all_paths::PathEnumerator;
        use cfpq_core::relational::FixpointSolver;
        // a^n b^n around two self-loops: one witness per even length, so
        // a deeper page needs more memoized length classes.
        let grammar = Cfg::parse("S -> a S b | a b").unwrap();
        let wcnf = grammar
            .to_wcnf(cfpq_grammar::cnf::CnfOptions::default())
            .unwrap();
        let mut graph = Graph::new(1);
        graph.add_edge_named(0, "a", 0);
        graph.add_edge_named(0, "b", 0);
        let service = CfpqService::with_config(SparseEngine, &graph, ServiceConfig::new(1));
        let q = service.prepare(&grammar).unwrap();
        let req = |offset| PageRequest {
            offset,
            limit: 2,
            max_len: 12,
        };
        let page = |offset| {
            let ticket = service.enqueue_paths(q, vec![(0, 0)], req(offset));
            ticket.unwrap().wait().unwrap().paths.unwrap().remove(0)
        };
        let classes = || {
            // With one worker, this ticket is served only after the
            // batch before it returned the enumerator to the cell.
            service.enqueue(q, vec![(0, 0)]).unwrap().wait().unwrap();
            let epoch = service.current();
            epoch.state.paths(q, |paths, _| paths.n_classes()).unwrap()
        };
        let first = page(0);
        let memo = classes();
        assert!(memo > 0, "the first batch left its tables in the cell");
        let second = page(2);
        assert!(classes() > memo, "the second batch grew the same tables");
        // Both pages are the ones a fresh enumeration serves.
        let index = GraphIndex::build(SparseEngine, &graph);
        let rel = FixpointSolver::new(&SparseEngine).solve(&graph, &wcnf);
        for (offset, pp) in [(0, first), (2, second)] {
            let fresh =
                PathEnumerator::new(&wcnf).page(&index, &rel, wcnf.start, 0, 0, req(offset));
            assert_eq!((pp.paths, pp.exhausted), (fresh.paths, fresh.exhausted));
        }
        assert_eq!(service.stats()[0].cold_solves, 1);
    }

    #[test]
    fn restricted_closures_stay_with_their_epoch() {
        let graph = generators::clustered_blocks(3, 8, 2, &["a", "b"], 5);
        let grammar = Cfg::parse("S -> a S b | a b").unwrap();
        let full = solve(&graph, &grammar, Backend::Sparse).unwrap();
        let service = CfpqService::with_config(SparseEngine, &graph, ServiceConfig::new(1));
        let q = service.prepare(&grammar).unwrap();
        let wanted: Vec<(u32, u32)> = (0..8).map(|j| (1, j)).collect();
        let ask = || service.enqueue(q, wanted.clone()).unwrap().wait().unwrap();
        let restricted = |snapshot: &Snapshot<SparseEngine>| {
            let slot = snapshot.epoch.state.sources(q).unwrap();
            slot.as_ref().map(|closure| closure.n_nodes())
        };

        // Epoch 0 holds only the restricted closure of its ticket.
        let first = ask();
        let pinned = service.snapshot();
        assert!(!pinned.epoch.state.is_solved(q));
        assert_eq!(restricted(&pinned), Some(24));

        // The publish has no all-pairs closure to repair, and epoch 1
        // starts with no restricted one: its first ticket solves anew.
        assert_eq!(service.add_edges(&[(0, "a", 24), (24, "b", 0)]), 2);
        assert_eq!(restricted(&service.snapshot()), None);
        let next = ask();
        assert_eq!((first.epoch, next.epoch), (0, 1));
        assert_eq!(first.pairs, next.pairs);
        let expect: Vec<(u32, u32)> = wanted
            .iter()
            .copied()
            .filter(|&(i, j)| full.contains("S", i, j))
            .collect();
        assert_eq!(first.pairs, expect);
        let stats = service.stats();
        assert_eq!((stats[0].cold_solves, stats[1].cold_solves), (1, 1));
        assert_eq!(stats[1].repairs, 0);
        assert_eq!(restricted(&service.snapshot()), Some(25));
        // The pinned epoch keeps its own.
        assert_eq!(restricted(&pinned), Some(24));
    }

    #[test]
    fn a_label_first_seen_in_a_batch_binds_in_pages() {
        use cfpq_core::all_paths::enumerate_paths_eager;
        use cfpq_core::relational::FixpointSolver;
        use cfpq_core::single_path::validate_witness;
        // `b` is in the grammar but not the graph: nothing relates, until
        // a batch brings it and the index interns it last.
        let grammar = Cfg::parse("S -> a S b | a b").unwrap();
        let wcnf = grammar
            .to_wcnf(cfpq_grammar::cnf::CnfOptions::default())
            .unwrap();
        let mut graph = Graph::new(3);
        graph.add_edge_named(0, "a", 1);
        graph.add_edge_named(1, "a", 0);
        let b_edges = [(1, "b", 2), (2, "b", 1)];
        let req = PageRequest {
            offset: 0,
            limit: 16,
            max_len: 8,
        };
        let mut session = CfpqSession::new(SparseEngine, &graph);
        let sq = session.prepare(&grammar).unwrap();
        let service = CfpqService::new(SparseEngine, &graph);
        let q = service.prepare(&grammar).unwrap();
        assert!(session.enumerate_paths(sq, 0, 2, req).paths.is_empty());
        let before = service.enqueue_paths(q, vec![(0, 2)], req).unwrap();
        assert_eq!(before.wait().unwrap().paths.unwrap(), vec![]);

        session.add_edges(&b_edges);
        service.add_edges(&b_edges);
        for (u, label, v) in b_edges {
            graph.add_edge_named(u, label, v);
        }
        let rel = FixpointSolver::new(&SparseEngine).solve(&graph, &wcnf);
        let pairs = rel.pairs(wcnf.start);
        assert_eq!(pairs, vec![(0, 2), (1, 1)]);
        let after = service.enqueue_paths(q, vec![], req).unwrap();
        let served = after.wait().unwrap().paths.unwrap();
        assert_eq!(served.len(), pairs.len());
        for (pp, (i, j)) in served.iter().zip(pairs) {
            assert_eq!((pp.from, pp.to), (i, j));
            let mut eager = enumerate_paths_eager(&rel, &graph, &wcnf, wcnf.start, i, j, req);
            eager.sort_by_key(|p| {
                (
                    p.len(),
                    p.iter()
                        .map(|e| (e.from, e.label, e.to))
                        .collect::<Vec<_>>(),
                )
            });
            assert!(!eager.is_empty());
            for p in &eager {
                assert!(validate_witness(p, &graph, &wcnf, wcnf.start, i, j));
            }
            assert_eq!(pp.paths, eager, "service page at ({i},{j})");
            assert_eq!(
                session.enumerate_paths(sq, i, j, req).paths,
                eager,
                "session page at ({i},{j})"
            );
        }
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

    /// A publish that caught a reader mid-solve leaves the repair to the
    /// next epoch's first read, whose `query.repair` span says that it
    /// waited for the adopted run and for how long.
    #[test]
    fn an_adopted_repair_reports_the_wait_for_its_base() {
        use crate::faults::{FaultInjector, FaultPlan};
        use cfpq_obs::{AttrValue, SpanCollector};
        let stall = FaultPlan::none().with_delay_every(1, Duration::from_millis(50));
        let injector = FaultInjector::new(SparseEngine, stall);
        let graph = generators::word_chain(&["a", "a", "b"]);
        let collector = Arc::new(SpanCollector::new());
        let config = ServiceConfig::new(1);
        let service =
            CfpqService::with_observability(injector.clone(), &graph, config, collector.clone());
        let q = service
            .prepare(&Cfg::parse("S -> a S b | a b").unwrap())
            .unwrap();
        let snapshot = service.snapshot();
        let reader = std::thread::spawn(move || snapshot.evaluate(q).start_pairs().to_vec());
        // Op 1 is the first to stall: the reader is inside its cold solve.
        let deadline = Instant::now() + Duration::from_secs(30);
        while injector.ops() < 2 {
            assert!(Instant::now() < deadline, "the reader never started");
            std::thread::yield_now();
        }
        assert_eq!(service.add_edges(&[(3, "b", 4)]), 1);
        let answer = service.enqueue(q, vec![]).unwrap().wait().unwrap();
        assert_eq!(answer.pairs, [(0, 4), (1, 3)]);
        assert_eq!(reader.join().unwrap(), [(1, 3)]);
        let spans = collector.spans();
        let repairs: Vec<_> = spans.iter().filter(|s| s.name == "query.repair").collect();
        assert_eq!(repairs.len(), 1, "the read repaired; the publish did not");
        assert_eq!(repairs[0].attr("base"), Some(&AttrValue::Str("in_flight")));
        let Some(&AttrValue::U64(waited_us)) = repairs[0].attr("waited_us") else {
            panic!("no waited_us on {:?}", repairs[0]);
        };
        assert!(waited_us > 0, "the ticket came while the base was stalled");
    }
}

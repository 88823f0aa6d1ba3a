//! The multi-queue scheduler: one queue per query, and the supervised
//! workers that drain a queue as one batch and answer it from one
//! closure lookup.

use crate::epoch::{Epoch, CHECKED};
use crate::obs::Obs;
use crate::ticket::{PairPaths, QueryTrace, TicketAnswer, TicketState};
use crate::{
    lock_recover, read_recover, Inner, QueryId, ServiceEngine, ServiceError, SinglePathId,
};
use cfpq_core::all_paths::{PageRequest, PathPage};
use cfpq_core::query::QueryAnswer;
use cfpq_core::session::{extend_prepared_from, solve_prepared_from, PreparedQuery};
use cfpq_obs::SpanId;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// One queue per registered query: requests for the same grammar batch
/// together and share a single closure lookup.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) enum QueueKey {
    Rel(QueryId),
    Sp(SinglePathId),
    /// All-path enumeration over a relational query — shares its closure
    /// cell (the pruning oracle and the enumerator beside it) but queues
    /// separately, so a batch of pages takes the enumerator once.
    Paths(QueryId),
}

pub(crate) struct Request {
    pub(crate) pairs: Vec<(u32, u32)>,
    /// Page bounds for `QueueKey::Paths` requests; `None` elsewhere.
    pub(crate) page: Option<PageRequest>,
    /// Absolute expiry instant ([`ServiceConfig::default_deadline`]);
    /// checked at dispatch time.
    pub(crate) deadline: Option<Instant>,
    pub(crate) ticket: Arc<TicketState>,
    /// When the request entered the queue — the wait-vs-run split of the
    /// ticket lifecycle is measured from here.
    pub(crate) enqueued_at: Instant,
    /// The open `"ticket"` span ([`SpanId::NONE`] when tracing is off):
    /// started at enqueue, closed by whichever thread resolves the
    /// request.
    pub(crate) span: SpanId,
}

pub(crate) struct SchedState {
    pub(crate) queues: BTreeMap<QueueKey, VecDeque<Request>>,
    /// Keys with pending requests, in arrival order (a key appears here
    /// iff its queue exists and is non-empty).
    pub(crate) round_robin: VecDeque<QueueKey>,
    /// Total requests currently queued (the backpressure gauge; freed
    /// when a worker takes the batch, whether or not anyone waits on
    /// its tickets).
    pub(crate) queued: usize,
    /// Set by [`CfpqService::shutdown`]: no new requests are accepted,
    /// and workers exit once the queues are empty.
    pub(crate) shutdown: bool,
}

pub(crate) struct SchedShared {
    pub(crate) state: Mutex<SchedState>,
    pub(crate) available: Condvar,
    /// Notified whenever a worker empties the queues — the bounded
    /// shutdown drain waits on this instead of polling.
    pub(crate) drained: Condvar,
}

/// The requested pairs that `related` holds, sorted and deduplicated.
/// Tickets come from outside, but matrix reads are total: a pair naming
/// a node id past the graph is related to nothing.
fn probe_pairs(wanted: &[(u32, u32)], related: impl Fn(u32, u32) -> bool) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = wanted
        .iter()
        .copied()
        .filter(|&(i, j)| related(i, j))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// The pairs a relational or paths ticket is answered with: the
/// requested ones probed on the closure, or — for a ticket naming none —
/// all of `R_S`, extracted once per epoch.
fn rel_targets(answer: &QueryAnswer, wanted: &[(u32, u32)]) -> Vec<(u32, u32)> {
    if wanted.is_empty() {
        return answer.start_pairs().to_vec();
    }
    probe_pairs(wanted, |i, j| answer.contains(&answer.start, i, j))
}

/// Answers a batch of named-pair requests for query `q` from the
/// source-restricted closure in its cell, first extending it to the
/// source nodes the batch names (one extension for the whole batch).
/// Charged like the all-pairs path: the first solve of a query in an
/// epoch is a cold solve, every product goes to `cold_products`, and a
/// batch whose rows were all solved already — no kernel ran — is a
/// cache hit.
fn probe_sources<E: ServiceEngine>(
    epoch: &Epoch<E>,
    q: QueryId,
    prepared: &PreparedQuery,
    batch: &VecDeque<Request>,
) -> Vec<Vec<(u32, u32)>> {
    let mut slot = epoch.state.sources(q).expect(CHECKED);
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
            let index = epoch.state.index();
            let stats = extend_prepared_from(index, prepared, &mut closure, &sources);
            (closure, stats.products_computed)
        }
        None => {
            let closure = solve_prepared_from(epoch.state.index(), prepared, &sources);
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
        .map(|req| probe_pairs(&req.pairs, |i, j| closure.contains(start, i, j)))
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
pub(crate) fn spawn_worker<E: ServiceEngine>(inner: Arc<Inner<E>>, i: usize) -> JoinHandle<()> {
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
    match key {
        QueueKey::Rel(q) => {
            // Named pairs need the rows they name; only a full answer —
            // or an epoch whose closure serving `q` (its own or its
            // single-path twin's) is solved — reads the whole closure.
            let all_named = batch.iter().all(|req| !req.pairs.is_empty());
            if all_named && !epoch.state.is_solved(q) {
                let prepared = epoch.state.query(q).expect(CHECKED);
                let answers = probe_sources(&epoch, q, prepared, &batch);
                for (req, pairs) in batch.iter().zip(answers) {
                    resolve(req, pairs, None);
                }
            } else {
                let answer = epoch.evaluate(q);
                for req in &batch {
                    resolve(req, rel_targets(&answer, &req.pairs), None);
                }
            }
        }
        QueueKey::Sp(q) => {
            let (prepared, solved) = epoch.evaluate_single_path(q);
            let start = prepared.wcnf().start;
            // Extracted for the first full-answer request of the batch.
            let mut full = None;
            for req in &batch {
                let pairs = if req.pairs.is_empty() {
                    full.get_or_insert_with(|| solved.pairs(start)).clone()
                } else {
                    probe_pairs(&req.pairs, |i, j| solved.contains(start, i, j))
                };
                resolve(req, pairs, None);
            }
        }
        QueueKey::Paths(q) => {
            // The cell's enumerator: its memoized length classes are
            // shared by every request, pair and batch of this epoch, and
            // every page reads the epoch the pruning closure came from —
            // pages are epoch-consistent by construction.
            let (answer, index) = (epoch.evaluate(q), epoch.state.index());
            let quota = inner.config.path_quota;
            // The read above left the cell solved: this one is a hit.
            let served = epoch.state.paths(q, |enumerator, (prepared, solved, _)| {
                let start = prepared.wcnf().start;
                for req in &batch {
                    let page = req.page.unwrap_or_default();
                    let targets = rel_targets(&answer, &req.pairs);
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
                                index,
                                solved,
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
            });
            served.expect(CHECKED);
        }
    }
}

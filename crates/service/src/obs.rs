//! The service's observability bundle: the installed span recorder,
//! the metrics registry and the hot-path metric handles.

use cfpq_core::session::GraphState;
use cfpq_matrix::{BoolEngine, LenEngine};
use cfpq_obs::{AttrValue, Counter, Gauge, Histogram, MetricsRegistry, Recorder, SpanId};
use std::sync::Arc;
use std::time::Instant;

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
pub(crate) struct Obs {
    pub(crate) recorder: Arc<dyn Recorder>,
    /// `recorder.is_enabled()` at install time, cached — span plumbing
    /// (ticket spans, recorder installs on worker threads) is skipped
    /// entirely when false.
    pub(crate) enabled: bool,
    pub(crate) metrics: Arc<MetricsRegistry>,
    pub(crate) ticket_wait_us: Histogram,
    pub(crate) ticket_run_us: Histogram,
    pub(crate) publish_us: Histogram,
    index_bytes: Gauge,
    index_copied_bytes: Gauge,
    closure_bytes: Gauge,
    pub(crate) queue_depth: Gauge,
    pub(crate) queue_depth_max: Gauge,
    pub(crate) requests_shed: Counter,
    pub(crate) deadline_expired: Counter,
    pub(crate) worker_panics: Counter,
    pub(crate) worker_restarts: Counter,
}

impl Obs {
    pub(crate) fn new(recorder: Arc<dyn Recorder>) -> Self {
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
            "cfpq_epoch_index_bytes",
            "Heap bytes of the current epoch's labels by capacity: a built label's matrix, an unread label's pair list",
        );
        metrics.describe(
            "cfpq_epoch_index_copied_bytes",
            "Of cfpq_epoch_index_bytes, the labels the current epoch does not share with the previous one",
        );
        metrics.describe(
            "cfpq_epoch_closure_bytes",
            "Heap bytes of the solved closures the current epoch holds at publish, one per grammar, by capacity",
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
            index_bytes: metrics.gauge("cfpq_epoch_index_bytes"),
            index_copied_bytes: metrics.gauge("cfpq_epoch_index_copied_bytes"),
            closure_bytes: metrics.gauge("cfpq_epoch_closure_bytes"),
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
    pub(crate) fn failure_snapshot(&self) -> FailureSnapshot {
        FailureSnapshot {
            worker_panics: self.worker_panics.get(),
            worker_restarts: self.worker_restarts.get(),
            requests_shed: self.requests_shed.get(),
            deadline_expired: self.deadline_expired.get(),
        }
    }

    /// Sets the epoch gauges for a published `state`: the bytes of all
    /// its labels, of those not shared with `prev`, the state of the
    /// epoch before (none for the first epoch, which copies everything),
    /// and of the closures it holds solved
    /// ([`GraphState::closure_bytes`]). A label counts its matrix once a
    /// read has built it and its pair list before
    /// ([`cfpq_core::GraphIndex::label_bytes`]); no label is built here.
    /// A label is shared iff it is the very label of `prev`, built or
    /// not.
    pub(crate) fn epoch_published<E: BoolEngine + LenEngine>(
        &self,
        state: &GraphState<E>,
        prev: Option<&GraphState<E>>,
    ) {
        let index = state.index();
        let prev = prev.map(GraphState::index);
        let (mut total, mut copied) = (0, 0);
        for (name, bytes) in index.label_bytes() {
            total += bytes;
            if !prev.is_some_and(|prev| index.shares_label(prev, name)) {
                copied += bytes;
            }
        }
        self.index_bytes.set(total as u64);
        self.index_copied_bytes.set(copied as u64);
        self.closure_bytes.set(state.closure_bytes() as u64);
    }

    /// Closes a ticket span and charges the wait/run histograms. Called
    /// by whichever thread resolves the request (worker, panic sweep, or
    /// shutdown drain); `dispatched` is when a worker took the batch
    /// (resolve time for requests that never got one).
    pub(crate) fn finish_ticket(
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
pub(crate) struct FailureSnapshot {
    pub(crate) worker_panics: u64,
    pub(crate) worker_restarts: u64,
    pub(crate) requests_shed: u64,
    pub(crate) deadline_expired: u64,
}

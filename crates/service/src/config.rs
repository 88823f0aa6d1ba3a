//! What a caller configures and what it gets back when a request
//! fails: [`ServiceConfig`], the [`ServiceError`] taxonomy, and the
//! [`Backoff`] client helper for retrying shed requests.

use cfpq_matrix::Parallelism;
use std::time::Duration;

#[cfg(doc)]
use crate::{CfpqService, ServiceStats, Ticket, TicketAnswer};

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

    /// Derives the config *and* the kernel device from one
    /// [`Parallelism`] budget, so the scheduler workers and the threads
    /// their `Device` batches run on cannot oversubscribe the machine
    /// between them. Pass the
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

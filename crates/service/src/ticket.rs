//! Tickets: the caller's claim on an enqueued request, and what it
//! resolves to.

use crate::{lock_recover, ServiceError};
use cfpq_graph::Edge;
use cfpq_obs::SpanId;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

#[cfg(doc)]
use {crate::CfpqService, cfpq_obs::Recorder};

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
pub(crate) struct TicketState {
    slot: Mutex<Option<TicketResult>>,
    ready: Condvar,
}

impl TicketState {
    /// Resolves the ticket — first write wins, so a panic-recovery
    /// sweep can blanket-fail a batch without clobbering requests the
    /// worker already answered. Returns whether this call resolved it.
    pub(crate) fn resolve(&self, outcome: TicketResult) -> bool {
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
    pub(crate) state: Arc<TicketState>,
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

//! Deterministic fault injection for the service's chaos tests.
//!
//! [`FaultInjector`] wraps any [`ServiceEngine`](crate::ServiceEngine)
//! and executes a fixed, schedule-driven [`FaultPlan`]: panic on the
//! k-th multiply-class kernel launch, or stall every m-th one for a
//! configured delay. Because the schedule is indexed by a *global*
//! operation counter (shared across every clone of the injector, so
//! snapshots, epochs, and worker threads all advance the same stream),
//! a chaos run with a given plan injects the same faults at the same
//! kernel launches every time — the harness asserts exact recovery
//! behaviour instead of "it usually survives".
//!
//! Injected panics carry a typed [`InjectedPanic`] payload, so recovery
//! code (and the panic hook installed by
//! [`silence_injected_panics`]) can tell a scheduled fault from a real
//! bug: a real panic still prints its message and backtrace; an
//! injected one is suppressed from test stderr.
//!
//! ```
//! use cfpq_matrix::{BoolEngine, SparseEngine};
//! use cfpq_service::faults::{FaultInjector, FaultPlan};
//!
//! let engine = FaultInjector::new(SparseEngine, FaultPlan::panic_on([1]));
//! let a = engine.from_pairs(2, &[(0, 1)]);
//! assert_eq!(engine.multiply(&a, &a).nnz(), 0); // op 0: served
//! let result = std::panic::catch_unwind(|| engine.multiply(&a, &a));
//! assert!(result.is_err()); // op 1: scheduled panic
//! assert_eq!(engine.panics_injected(), 1);
//! assert!(engine.multiply(&a, &a).nnz() == 0); // op 2: healthy again
//! ```

use cfpq_matrix::{BoolEngine, LenEngine, LenJob, MaskedJob};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::time::Duration;

/// The schedule a [`FaultInjector`] executes, indexed by the global
/// multiply-operation counter.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Operation indices that panic (with an [`InjectedPanic`] payload)
    /// instead of executing.
    pub panic_on: BTreeSet<u64>,
    /// `(every, delay)`: stall each operation whose index is a nonzero
    /// multiple of `every` for `delay` before executing it — the knob
    /// for forcing overload and deadline expiry deterministically.
    pub delay: Option<(u64, Duration)>,
}

impl FaultPlan {
    /// The empty schedule: the injector becomes a transparent (but
    /// still counting) wrapper.
    pub fn none() -> Self {
        Self::default()
    }

    /// Panic on exactly the given operation indices.
    pub fn panic_on<I: IntoIterator<Item = u64>>(ops: I) -> Self {
        Self {
            panic_on: ops.into_iter().collect(),
            ..Self::default()
        }
    }

    /// Adds a stall of `delay` on every `every`-th operation.
    pub fn with_delay_every(mut self, every: u64, delay: Duration) -> Self {
        self.delay = Some((every.max(1), delay));
        self
    }
}

/// The panic payload of a scheduled fault — typed so harnesses (and the
/// [`silence_injected_panics`] hook) can distinguish injected faults
/// from genuine bugs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InjectedPanic {
    /// The global operation index the fault fired at.
    pub op: u64,
}

/// Suppresses the default "thread panicked" stderr report for panics
/// whose payload is an [`InjectedPanic`], forwarding every other panic
/// to the previous hook untouched. Install once per test binary —
/// worker panics are not captured by the test harness, so without this
/// a passing chaos run would still spray scary backtraces.
pub fn silence_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                previous(info);
            }
        }));
    });
}

/// A [`BoolEngine`] + [`LenEngine`] decorator that executes a
/// [`FaultPlan`] over a global multiply-operation counter. Cloning the
/// injector clones the inner engine handle but *shares* the counter and
/// schedule — exactly what the service needs, since epochs and
/// snapshots clone the engine.
///
/// Only multiply-class operations tick the counter (plain, masked, and
/// per-job inside the batch entry points): they are where the solver
/// spends its time, and counting a stable operation class keeps
/// schedules meaningful across engines. Batch entry points tick each
/// job up front and then delegate the whole batch to the inner engine,
/// so device-backed engines keep their batch parallelism — the
/// decorator contract documented on [`BoolEngine`].
#[derive(Clone, Debug)]
pub struct FaultInjector<E> {
    inner: E,
    plan: Arc<FaultPlan>,
    ops: Arc<AtomicU64>,
    injected: Arc<AtomicU64>,
}

impl<E> FaultInjector<E> {
    /// Wraps `inner` with the given schedule; the operation counter
    /// starts at 0.
    pub fn new(inner: E, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan: Arc::new(plan),
            ops: Arc::new(AtomicU64::new(0)),
            injected: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Multiply-class operations observed so far (across all clones).
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Panics injected so far (across all clones).
    pub fn panics_injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Advances the operation counter by one and executes whatever the
    /// schedule holds for that index.
    fn tick(&self) {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        if let Some((every, delay)) = self.plan.delay {
            if op > 0 && op.is_multiple_of(every) {
                std::thread::sleep(delay);
            }
        }
        if self.plan.panic_on.contains(&op) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            std::panic::panic_any(InjectedPanic { op });
        }
    }

    /// Ticks once per job of a batch entry point (the batch then runs
    /// on the inner engine in one piece).
    fn tick_batch(&self, jobs: usize) {
        for _ in 0..jobs {
            self.tick();
        }
    }
}

impl<E: BoolEngine> BoolEngine for FaultInjector<E> {
    type Matrix = E::Matrix;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn zeros(&self, n: usize) -> Self::Matrix {
        self.inner.zeros(n)
    }

    fn from_pairs(&self, n: usize, pairs: &[(u32, u32)]) -> Self::Matrix {
        self.inner.from_pairs(n, pairs)
    }

    fn multiply(&self, a: &Self::Matrix, b: &Self::Matrix) -> Self::Matrix {
        self.tick();
        self.inner.multiply(a, b)
    }

    fn union_in_place(&self, a: &mut Self::Matrix, b: &Self::Matrix) -> bool {
        self.inner.union_in_place(a, b)
    }

    fn union_pairs(&self, a: &mut Self::Matrix, pairs: &[(u32, u32)]) -> bool {
        self.inner.union_pairs(a, pairs)
    }

    fn grow(&self, a: &mut Self::Matrix, n: usize) {
        self.inner.grow(a, n)
    }

    fn difference(&self, a: &Self::Matrix, b: &Self::Matrix) -> Self::Matrix {
        self.inner.difference(a, b)
    }

    fn intersect(&self, a: &Self::Matrix, b: &Self::Matrix) -> Self::Matrix {
        self.inner.intersect(a, b)
    }

    fn multiply_batch(&self, jobs: &[(&Self::Matrix, &Self::Matrix)]) -> Vec<Self::Matrix> {
        self.tick_batch(jobs.len());
        self.inner.multiply_batch(jobs)
    }

    fn multiply_masked(
        &self,
        a: &Self::Matrix,
        b: &Self::Matrix,
        complement_mask: &Self::Matrix,
    ) -> Self::Matrix {
        self.tick();
        self.inner.multiply_masked(a, b, complement_mask)
    }

    fn multiply_masked_batch(&self, jobs: &[MaskedJob<'_, Self::Matrix>]) -> Vec<Self::Matrix> {
        self.tick_batch(jobs.len());
        self.inner.multiply_masked_batch(jobs)
    }

    fn kernel_counters(&self) -> cfpq_matrix::KernelCounters {
        self.inner.kernel_counters()
    }
}

impl<E: LenEngine> LenEngine for FaultInjector<E> {
    type LenMatrix = E::LenMatrix;

    fn len_empty(&self, n: usize) -> Self::LenMatrix {
        self.inner.len_empty(n)
    }

    fn len_from_entries(&self, n: usize, entries: &[(u32, u32, u32)]) -> Self::LenMatrix {
        self.inner.len_from_entries(n, entries)
    }

    fn len_set_absent(
        &self,
        a: &mut Self::LenMatrix,
        entries: &[(u32, u32, u32)],
    ) -> Vec<(u32, u32, u32)> {
        self.inner.len_set_absent(a, entries)
    }

    fn len_multiply_masked(
        &self,
        a: &Self::LenMatrix,
        b: &Self::LenMatrix,
        mask: Option<&Self::LenMatrix>,
    ) -> Self::LenMatrix {
        self.tick();
        self.inner.len_multiply_masked(a, b, mask)
    }

    fn len_multiply_masked_batch(
        &self,
        jobs: &[LenJob<'_, Self::LenMatrix>],
    ) -> Vec<Self::LenMatrix> {
        self.tick_batch(jobs.len());
        self.inner.len_multiply_masked_batch(jobs)
    }

    fn len_merge_absent(
        &self,
        acc: &mut Self::LenMatrix,
        add: &Self::LenMatrix,
    ) -> Self::LenMatrix {
        self.inner.len_merge_absent(acc, add)
    }

    fn len_grow(&self, a: &mut Self::LenMatrix, n: usize) {
        self.inner.len_grow(a, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpq_matrix::SparseEngine;

    #[test]
    fn plans_replay_identically() {
        let plan = FaultPlan::panic_on([2, 5]);
        let run = |plan: FaultPlan| {
            let eng = FaultInjector::new(SparseEngine, plan);
            let a = eng.from_pairs(2, &[(0, 0), (0, 1)]);
            let mut outcomes = Vec::new();
            for _ in 0..8 {
                let ok =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| eng.multiply(&a, &a)))
                        .is_ok();
                outcomes.push(ok);
            }
            (outcomes, eng.ops(), eng.panics_injected())
        };
        let first = run(plan.clone());
        assert_eq!(first, run(plan));
        assert_eq!(
            first.0,
            vec![true, true, false, true, true, false, true, true]
        );
        assert_eq!(first.1, 8);
        assert_eq!(first.2, 2);
    }

    #[test]
    fn clones_share_the_operation_stream() {
        let eng = FaultInjector::new(SparseEngine, FaultPlan::none());
        let twin = eng.clone();
        let a = eng.from_pairs(2, &[(0, 1)]);
        eng.multiply(&a, &a);
        twin.multiply(&a, &a);
        assert_eq!(eng.ops(), 2, "clones advance one global counter");
        assert_eq!(twin.ops(), 2);
    }

    #[test]
    fn batches_tick_per_job() {
        let eng = FaultInjector::new(SparseEngine, FaultPlan::none());
        let a = eng.from_pairs(2, &[(0, 1)]);
        eng.multiply_masked_batch(&[(&a, &a, None), (&a, &a, Some(&a)), (&a, &a, None)]);
        assert_eq!(eng.ops(), 3);
    }

    #[test]
    fn injected_panics_carry_the_typed_payload() {
        let eng = FaultInjector::new(SparseEngine, FaultPlan::panic_on([0]));
        let a = eng.from_pairs(2, &[(0, 1)]);
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| eng.multiply(&a, &a)))
                .unwrap_err();
        assert_eq!(
            payload.downcast_ref::<InjectedPanic>(),
            Some(&InjectedPanic { op: 0 })
        );
    }
}

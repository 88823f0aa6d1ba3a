//! The execution "device" standing in for the paper's GPU.
//!
//! The paper offloads whole-matrix multiplications to CUBLAS (dense) and
//! CUSPARSE (sparse) on an NVIDIA GTX 1070, and remarks (§7) that the
//! products of one sweep "may be performed on different GPGPU
//! independently". This repository has no GPU, so the device is a
//! **persistent worker pool** that does the latter: workers are created
//! once (like a CUDA context), and a batch of independent products is
//! cut into one run of jobs per worker ([`Device::par_map_ranges`], the
//! engines' `run_batch`), so per-batch overhead is a queue hand-off
//! rather than thread creation. Each product is one serial kernel call on
//! whichever thread runs it; the closure loop hands whole matrices to an
//! opaque engine exactly as the paper's implementations hand them to
//! CUDA.
//!
//! `Device` is a cheaply clonable handle (like a CUDA stream handle);
//! the pool shuts down when the last handle drops.
//!
//! ## Safety
//!
//! `Device::run_scoped` accepts non-`'static` tasks and erases their
//! lifetime to queue them on pool workers. This is the classic
//! scoped-thread-pool pattern and is sound because the method does not
//! return until every submitted task has completed (panic-safe barrier:
//! completion is signalled from a `Drop` guard), so no borrow outlives
//! its referent.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send>;

struct Queue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    available: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    fn new(n_workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        let workers = (0..n_workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cfpq-device-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn device worker")
            })
            .collect();
        Self { shared, workers }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("device queue poisoned");
            q.shutdown = true;
        }
        self.shared.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut q = shared.queue.lock().expect("device queue poisoned");
            loop {
                if let Some(t) = q.tasks.pop_front() {
                    break t;
                }
                if q.shutdown {
                    return;
                }
                q = shared.available.wait(q).expect("device queue poisoned");
            }
        };
        task();
    }
}

/// Barrier shared between a `run_scoped` caller and its tasks.
struct Completion {
    remaining: Mutex<usize>,
    done: Condvar,
    /// What the first task to panic said, for the caller to re-raise.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Decrements the barrier on drop so a panicking task still signals.
struct CompletionGuard(Arc<Completion>);

impl Drop for CompletionGuard {
    fn drop(&mut self) {
        let mut r = self.0.remaining.lock().expect("completion poisoned");
        *r -= 1;
        if *r == 0 {
            self.0.done.notify_all();
        }
    }
}

/// A CPU multi-worker device with a persistent pool. `Device::new(1)`
/// runs tasks inline on the caller (no pool), which tests use to confirm
/// worker-count independence.
#[derive(Clone)]
pub struct Device {
    n_workers: usize,
    /// `None` for the single-worker (inline) device.
    pool: Option<Arc<Pool>>,
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("n_workers", &self.n_workers)
            .finish()
    }
}

impl Device {
    /// Creates a device with `n_workers` parallel workers (min 1).
    pub fn new(n_workers: usize) -> Self {
        let n_workers = n_workers.max(1);
        Self {
            n_workers,
            pool: (n_workers > 1).then(|| Arc::new(Pool::new(n_workers))),
        }
    }

    /// Number of workers.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Runs the given tasks on the pool and returns once **all** have
    /// completed. Tasks may borrow from the caller's stack (see the
    /// module-level safety discussion). If a task panicked, the first
    /// panic is re-raised here once all have completed — on a pool as on
    /// the inline device, the caller sees what the task said.
    pub(crate) fn run_scoped<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        if tasks.is_empty() {
            return;
        }
        let Some(pool) = &self.pool else {
            for t in tasks {
                t();
            }
            return;
        };
        let completion = Arc::new(Completion {
            remaining: Mutex::new(tasks.len()),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        // The recorder hook: capture the caller's observability context
        // (installed recorder + innermost open span) so spans opened
        // inside tasks land in the caller's trace, parented under the
        // span that launched the work — even when the task runs on a
        // pool thread. Skipped entirely when tracing is off.
        let obs_ctx = cfpq_obs::current_context().filter(|(r, _)| r.is_enabled());
        {
            let mut q = pool.shared.queue.lock().expect("device queue poisoned");
            for task in tasks {
                let c = Arc::clone(&completion);
                let ctx = obs_ctx.clone();
                let wrapped: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                    let guard = CompletionGuard(Arc::clone(&c));
                    let _obs = ctx.map(|(rec, parent)| cfpq_obs::install_with_parent(rec, parent));
                    if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(task)) {
                        c.panic
                            .lock()
                            .expect("completion poisoned")
                            .get_or_insert(payload);
                    }
                    drop(guard);
                });
                // SAFETY: `wrapped` only borrows data that outlives 'env,
                // and this function blocks below until the task has run
                // to completion (the CompletionGuard fires even on
                // panic), so the borrow cannot outlive its referent.
                let erased: Task = unsafe {
                    std::mem::transmute::<
                        Box<dyn FnOnce() + Send + 'env>,
                        Box<dyn FnOnce() + Send + 'static>,
                    >(wrapped)
                };
                q.tasks.push_back(erased);
            }
        }
        pool.shared.available.notify_all();
        // Caller participation: instead of sleeping, the submitting thread
        // drains queued tasks alongside the workers (removes wake-up
        // latency and adds one executor — the "host helps the device"
        // pattern).
        loop {
            let task = {
                let mut q = pool.shared.queue.lock().expect("device queue poisoned");
                q.tasks.pop_front()
            };
            match task {
                Some(t) => t(),
                None => break,
            }
        }
        let mut remaining = completion.remaining.lock().expect("completion poisoned");
        while *remaining > 0 {
            remaining = completion
                .done
                .wait(remaining)
                .expect("completion poisoned");
        }
        drop(remaining);
        let panic = completion.panic.lock().expect("completion poisoned").take();
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    }

    /// Runs `f` over each [`partition`] of `0..n_items` into at most
    /// `n_workers` ranges on the pool and collects the results in
    /// partition order. This is the map primitive of the engines' batches:
    /// each worker runs its share of a sweep's independent products — the
    /// paper's §7 remark that "matrix multiplication in the main loop …
    /// may be performed on different GPGPU independently".
    ///
    /// Must not be called from inside a device task (the caller blocks on
    /// the pool, so nested submission from every worker could starve).
    pub fn par_map_ranges<T, F>(&self, n_items: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Range<usize>) -> T + Sync,
    {
        let ranges = partition(n_items, self.n_workers);
        if ranges.len() <= 1 || self.pool.is_none() {
            return ranges.into_iter().map(&f).collect();
        }
        let mut slots: Vec<Option<T>> = Vec::with_capacity(ranges.len());
        slots.resize_with(ranges.len(), || None);
        {
            let f = &f;
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = slots
                .iter_mut()
                .zip(ranges)
                .map(|(slot, range)| {
                    Box::new(move || {
                        *slot = Some(f(range));
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            self.run_scoped(tasks);
        }
        slots
            .into_iter()
            .map(|s| s.expect("device task completed"))
            .collect()
    }
}

/// One thread budget for every pool in the process.
///
/// Two layers of this workspace spawn threads: the [`Device`] kernel
/// pool (the paper's GPU stand-in) and, since the `cfpq-service` crate,
/// a query-scheduler worker pool. Sizing each to
/// `available_parallelism` independently (`Parallelism::auto().device()`
/// for the kernel pool, and as many service workers) oversubscribes the
/// machine as soon as both exist: `W` service workers each driving an
/// `N`-worker device ask for `W × N` runnable threads on `N` cores.
///
/// `Parallelism` is the coordination point: construct one budget for
/// the process (`--threads` on the CLIs) and [`Parallelism::split`] it
/// between the two layers, so `service workers + device workers` never
/// exceeds the budget.
///
/// ```
/// use cfpq_matrix::Parallelism;
///
/// let budget = Parallelism::new(4);
/// let (workers, device) = budget.split(3);
/// assert_eq!(workers, 3);
/// assert_eq!(workers + device.n_workers(), 4);
/// // Asking for the whole budget leaves the device inline (1 worker
/// // means "run kernels on the caller", adding no thread).
/// let (workers, device) = budget.split(8);
/// assert_eq!((workers, device.n_workers()), (4, 1));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Parallelism {
    total: usize,
}

impl Parallelism {
    /// A budget of `total` threads (clamped to at least 1; `0` means
    /// "whatever the machine has", like [`Parallelism::auto`]).
    pub fn new(total: usize) -> Self {
        if total == 0 {
            Self::auto()
        } else {
            Self { total }
        }
    }

    /// A budget sized to the machine's available parallelism.
    pub fn auto() -> Self {
        let total = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Self { total }
    }

    /// The total thread budget.
    pub fn total(self) -> usize {
        self.total
    }

    /// A [`Device`] consuming the whole budget — what a single-caller
    /// workload (no service pool) uses; `Parallelism::auto().device()` is
    /// a device sized to the machine.
    pub fn device(self) -> Device {
        Device::new(self.total)
    }

    /// Splits the budget between `service_workers` scheduler threads and
    /// the kernel pool: the workers are clamped to the budget, and the
    /// device gets whatever remains (minimum 1, i.e. inline execution on
    /// the calling worker — no extra thread). The invariant is
    /// `workers + device.n_workers() <= max(total, workers + 1)`, so the
    /// two pools never oversubscribe the budget.
    pub fn split(self, service_workers: usize) -> (usize, Device) {
        let workers = service_workers.clamp(1, self.total);
        let device = Device::new((self.total - workers).max(1));
        (workers, device)
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::auto()
    }
}

/// Splits `0..n_items` into at most `n_parts` near-equal contiguous
/// ranges; never returns empty ranges.
pub fn partition(n_items: usize, n_parts: usize) -> Vec<Range<usize>> {
    if n_items == 0 {
        return Vec::new();
    }
    let n_parts = n_parts.clamp(1, n_items);
    let base = n_items / n_parts;
    let extra = n_items % n_parts;
    let mut ranges = Vec::with_capacity(n_parts);
    let mut start = 0;
    for p in 0..n_parts {
        let len = base + usize::from(p < extra);
        ranges.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n_items);
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallelism_budget_is_never_oversubscribed() {
        for total in [1usize, 2, 4, 7] {
            let p = Parallelism::new(total);
            assert_eq!(p.total(), total);
            assert_eq!(p.device().n_workers(), total);
            for req in [1usize, 2, 4, 16] {
                let (workers, device) = p.split(req);
                assert!(workers >= 1 && workers <= total);
                assert_eq!(workers, req.min(total));
                // The device only gets threads the workers left over
                // (an inline device contributes no extra thread).
                let device_threads = if device.n_workers() > 1 {
                    device.n_workers()
                } else {
                    0
                };
                assert!(
                    workers + device_threads <= total,
                    "total {total} req {req}: {workers} + {device_threads}"
                );
            }
        }
        // 0 = auto: at least one thread.
        assert!(Parallelism::new(0).total() >= 1);
        assert_eq!(Parallelism::default().total(), Parallelism::auto().total());
    }

    #[test]
    fn partition_covers_everything() {
        for n_items in [0usize, 1, 5, 64, 100, 101] {
            for n_parts in [1usize, 2, 3, 7, 200] {
                let ranges = partition(n_items, n_parts);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, n_items, "items {n_items} parts {n_parts}");
                assert!(ranges.iter().all(|r| !r.is_empty()));
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    expect = r.end;
                }
            }
        }
    }

    #[test]
    fn partition_balance() {
        let ranges = partition(10, 3);
        let lens: Vec<_> = ranges.iter().map(|r| r.len()).collect();
        assert_eq!(lens, vec![4, 3, 3]);
    }

    #[test]
    fn par_map_preserves_order() {
        let d = Device::new(4);
        let out = d.par_map_ranges(100, |r| r.start);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(out, sorted);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn single_worker_is_serial_inline() {
        let d = Device::new(1);
        let out = d.par_map_ranges(10, |r| r.len());
        assert_eq!(out, vec![10]);
    }

    #[test]
    fn zero_items() {
        let d = Device::new(8);
        let out: Vec<usize> = d.par_map_ranges(0, |r| r.len());
        assert!(out.is_empty());
    }

    #[test]
    fn workers_clamped_to_one() {
        assert_eq!(Device::new(0).n_workers(), 1);
    }

    #[test]
    fn pool_is_reusable_across_many_submissions() {
        // A persistent pool must survive thousands of kernel launches —
        // the property the paper's per-iteration offload relies on.
        let d = Device::new(3);
        let counter = AtomicUsize::new(0);
        for _ in 0..500 {
            let out = d.par_map_ranges(9, |r| {
                counter.fetch_add(r.len(), Ordering::Relaxed);
                r.len()
            });
            assert_eq!(out.iter().sum::<usize>(), 9);
        }
        assert_eq!(counter.load(Ordering::Relaxed), 500 * 9);
    }

    #[test]
    fn scoped_borrows_are_visible_after_return() {
        let d = Device::new(4);
        let mut data = vec![0u64; 64];
        {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = data
                .chunks_mut(16)
                .enumerate()
                .map(|(i, chunk)| {
                    Box::new(move || {
                        for x in chunk.iter_mut() {
                            *x = i as u64 + 1;
                        }
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            d.run_scoped(tasks);
        }
        assert_eq!(data[0], 1);
        assert_eq!(data[16], 2);
        assert_eq!(data[63], 4);
    }

    #[test]
    fn clone_shares_the_pool() {
        let d = Device::new(2);
        let d2 = d.clone();
        assert_eq!(d2.n_workers(), 2);
        let out = d2.par_map_ranges(10, |r| r.len());
        assert_eq!(out.iter().sum::<usize>(), 10);
        drop(d);
        // The clone keeps the pool alive.
        let out = d2.par_map_ranges(10, |r| r.len());
        assert_eq!(out.iter().sum::<usize>(), 10);
    }

    #[test]
    fn panicking_task_propagates_without_deadlock() {
        for workers in [1, 2, 3] {
            let d = Device::new(workers);
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![
                    Box::new(|| {}),
                    Box::new(|| panic!("boom")),
                    Box::new(|| {}),
                ];
                d.run_scoped(tasks);
            }));
            let payload = result.expect_err("panic must propagate to the caller");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"boom"),
                "with what the task said, on {workers} workers"
            );
            // The pool must still be usable afterwards.
            let out = d.par_map_ranges(4, |r| r.len());
            assert_eq!(out.iter().sum::<usize>(), 4);
        }
    }

    #[test]
    fn concurrent_scopes_from_multiple_threads() {
        let d = Device::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let d = d.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        let out = d.par_map_ranges(16, |r| r.len() * (t + 1));
                        assert_eq!(out.iter().sum::<usize>(), 16 * (t + 1));
                    }
                });
            }
        });
    }
}

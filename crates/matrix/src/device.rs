//! The execution "device" standing in for the paper's GPU.
//!
//! The paper offloads whole-matrix multiplications to CUBLAS (dense) and
//! CUSPARSE (sparse) on an NVIDIA GTX 1070, and remarks (§7) that the
//! products of one sweep "may be performed on different GPGPU
//! independently". This repository has no GPU, so the device does the
//! latter on the CPU, and a device is nothing but its width: a batch of
//! independent products is cut into one run of jobs per worker
//! ([`Device::par_map_ranges`], the engines' `run_batch`); the caller
//! runs the first run and a scoped thread each other one, for that batch
//! only. Each product is one serial kernel call on whichever thread runs
//! it; the closure loop hands whole matrices to an opaque engine exactly
//! as the paper's implementations hand them to CUDA.

use std::ops::Range;
use std::panic;

/// A CPU device `n_workers` threads wide, the caller counted.
/// `Device::new(1)` runs every batch on the caller, which tests use to
/// confirm worker-count independence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Device {
    n_workers: usize,
}

impl Device {
    /// Creates a device with `n_workers` parallel workers (min 1).
    pub fn new(n_workers: usize) -> Self {
        Self {
            n_workers: n_workers.max(1),
        }
    }

    /// Number of workers.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Runs `f` over each [`partition`] of `0..n_items` into at most
    /// `n_workers` ranges and collects the results in partition order.
    /// This is the map primitive of the engines' batches: each worker
    /// runs its share of a sweep's independent products — the paper's §7
    /// remark that "matrix multiplication in the main loop … may be
    /// performed on different GPGPU independently".
    ///
    /// The first range runs on the caller and every other one on a
    /// thread of its own, scoped to this call, so `f` may borrow from
    /// the caller's stack. Each thread records its spans into the
    /// caller's trace, under the span open where the batch was launched.
    /// If a range panicked, what it said is re-raised here once every
    /// range has finished.
    pub fn par_map_ranges<T, F>(&self, n_items: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Range<usize>) -> T + Sync,
    {
        let ranges = partition(n_items, self.n_workers);
        let Some((first, rest)) = ranges.split_first() else {
            return Vec::new();
        };
        if rest.is_empty() {
            return vec![f(first.clone())];
        }
        // The caller's recorder and open span; none when tracing is off.
        let obs_ctx = cfpq_obs::current_context().filter(|(r, _)| r.is_enabled());
        let f = &f;
        std::thread::scope(|s| {
            let spawned: Vec<_> = rest
                .iter()
                .map(|range| {
                    let range = range.clone();
                    let ctx = obs_ctx.clone();
                    s.spawn(move || {
                        let _obs =
                            ctx.map(|(rec, parent)| cfpq_obs::install_with_parent(rec, parent));
                        f(range)
                    })
                })
                .collect();
            let first = Ok(f(first.clone()));
            // A panic leaves the scope only once every thread has ended,
            // whichever range raised it.
            std::iter::once(first)
                .chain(spawned.into_iter().map(|t| t.join()))
                .collect::<Result<Vec<T>, _>>()
                .unwrap_or_else(|payload| panic::resume_unwind(payload))
        })
    }
}

/// One thread budget for every layer of the process that runs threads.
///
/// Two layers of this workspace do: the [`Device`] (the paper's GPU
/// stand-in), whose batches run on `n_workers` threads, the caller
/// counted, and, since the `cfpq-service` crate, a query-scheduler
/// worker pool whose workers are those callers. Sizing each to
/// `available_parallelism` independently (`Parallelism::auto().device()`
/// for the device, and as many service workers) oversubscribes the
/// machine as soon as both exist: `W` service workers each driving an
/// `N`-wide device ask for `W × N` runnable threads on `N` cores.
///
/// `Parallelism` is the coordination point: construct one budget for
/// the process (`--threads` on the CLIs) and [`Parallelism::split`] it
/// between the two layers, so `service workers × device width` never
/// exceeds the budget.
///
/// ```
/// use cfpq_matrix::Parallelism;
///
/// let budget = Parallelism::new(4);
/// let (workers, device) = budget.split(2);
/// assert_eq!((workers, device.n_workers()), (2, 2));
/// // Three workers leave each a device of one thread: its own, so the
/// // batches run on the calling worker.
/// let (workers, device) = budget.split(3);
/// assert_eq!((workers, device.n_workers()), (3, 1));
/// assert!(workers * device.n_workers() <= budget.total());
/// // Asking for more than the budget clamps the workers.
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

    /// A [`Device`] as wide as the whole budget — what a single-caller
    /// workload (no service pool) uses; `Parallelism::auto().device()` is
    /// a device sized to the machine.
    pub fn device(self) -> Device {
        Device::new(self.total)
    }

    /// Splits the budget between `service_workers` scheduler threads and
    /// the device each of them drives: the workers are clamped to the
    /// budget, and the device is `total / workers` wide (minimum 1: the
    /// calling worker alone). A worker is one of its device's threads,
    /// so `workers × device.n_workers() <= total` counts every thread
    /// that runs at once.
    pub fn split(self, service_workers: usize) -> (usize, Device) {
        let workers = service_workers.clamp(1, self.total);
        (workers, Device::new(self.total / workers))
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
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

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
                // Each worker runs its batches on `device.n_workers()`
                // threads, itself among them.
                assert!(
                    workers * device.n_workers() <= total,
                    "total {total} req {req}: {workers} × {}",
                    device.n_workers()
                );
            }
        }
        // 0 = auto: at least one thread.
        assert!(Parallelism::new(0).total() >= 1);
        assert_eq!(Parallelism::default().total(), Parallelism::auto().total());
    }

    #[test]
    fn split_devices_run_at_most_the_budget_at_once() {
        for (total, requested) in [(4, 2), (4, 3), (5, 2), (7, 2)] {
            let (workers, device) = Parallelism::new(total).split(requested);
            let (running, high_water) = (AtomicUsize::new(0), AtomicUsize::new(0));
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| {
                        for _ in 0..20 {
                            device.par_map_ranges(8, |r| {
                                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                                high_water.fetch_max(now, Ordering::SeqCst);
                                std::thread::sleep(std::time::Duration::from_micros(200));
                                running.fetch_sub(1, Ordering::SeqCst);
                                r.len()
                            });
                        }
                    });
                }
            });
            let high_water = high_water.into_inner();
            assert!(
                (1..=total).contains(&high_water),
                "{workers} workers on {total} threads ran {high_water} jobs at once"
            );
        }
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
    fn device_is_reusable_across_many_batches() {
        // A fixpoint launches a batch every sweep, hundreds per solve.
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
        let data: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        d.par_map_ranges(data.len(), |r| {
            for x in &data[r.clone()] {
                x.store(r.start as u64 / 16 + 1, Ordering::Relaxed);
            }
        });
        let data: Vec<u64> = data.into_iter().map(AtomicU64::into_inner).collect();
        assert_eq!((data[0], data[16], data[63]), (1, 2, 4));
    }

    #[test]
    fn panicking_task_propagates_without_deadlock() {
        // Item 1 lies in the caller's range on 1 and 2 workers, and in a
        // spawned thread's on 3.
        for workers in [1, 2, 3] {
            let d = Device::new(workers);
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                d.par_map_ranges(3, |r| {
                    if r.contains(&1) {
                        panic!("boom");
                    }
                })
            }));
            let payload = result.expect_err("panic must propagate to the caller");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"boom"),
                "with what the task said, on {workers} workers"
            );
            // The device must still be usable afterwards.
            let out = d.par_map_ranges(4, |r| r.len());
            assert_eq!(out.iter().sum::<usize>(), 4);
        }
    }

    #[test]
    fn concurrent_scopes_from_multiple_threads() {
        let d = Device::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
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

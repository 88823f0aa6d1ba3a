//! The backend abstraction: which matrix representation runs the Boolean
//! kernels, and on what device.
//!
//! The paper's evaluation compares four implementations that differ *only*
//! in this layer (§6): dense vs CSR representation × CPU vs GPU execution.
//! [`BoolEngine`] captures exactly that degree of freedom, so a single
//! generic solver in `cfpq-core` yields all four columns of Tables 1/2:
//!
//! | paper | engine |
//! |---|---|
//! | dGPU | [`ParDenseEngine`] (dense, device-parallel) |
//! | sCPU | [`SparseEngine`] (CSR, serial) |
//! | sGPU | [`ParSparseEngine`] (CSR, device-parallel) |
//! | — | [`DenseEngine`] (dense, serial; ablation baseline) |
//! | — | [`TiledEngine`] (64 × 64 bit tiles, device-parallel) |
//!
//! An engine is a representation on a device and its type says nothing
//! else: the five names pair one of the three matrix types with a
//! [`Device`] or with none, and [`BoolEngine`] — like
//! [`crate::LenEngine`] — has one implementation, below, for all five.
//! A device does one thing, in one place (`run_batch`): it runs the
//! independent products of a batch side by side. Every product itself
//! is one serial kernel call on whichever thread runs it, so a single
//! `multiply` on a device engine runs on the caller.

use crate::dense::DenseBitMatrix;
use crate::device::Device;
use crate::repr::{Backend, BoolRepr};
use crate::sparse::CsrMatrix;
use crate::tiled::TiledBitMatrix;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Minimal Boolean-matrix interface required by the solvers.
///
/// `Send + Sync + 'static` because matrices cross thread boundaries in
/// two places: the [`Device`] kernel pool borrows them for the jobs of
/// a batch, and the `cfpq-service` snapshot layer shares whole closed
/// indexes between reader threads behind `Arc`s.
pub trait BoolMat: Clone + PartialEq + Send + Sync + 'static {
    /// Matrix dimension `n`.
    fn n(&self) -> usize;
    /// Reads bit `(i, j)`. Total: a cell outside the matrix (`i` or
    /// `j` ≥ `n`, up to `u32::MAX`) reads unset, so callers holding
    /// node ids from outside need no range check of their own.
    fn get(&self, i: u32, j: u32) -> bool;
    /// Number of set bits (`#results` per nonterminal in Table 1/2 terms).
    fn nnz(&self) -> usize;
    /// All set `(row, col)` pairs in row-major order.
    fn pairs(&self) -> Vec<(u32, u32)>;
    /// The set columns of row `i`, ascending, read off the storage (no
    /// allocation on the CSR and tiled forms); a row outside the matrix
    /// is empty, as [`BoolMat::get`] reads it unset. What a pivot search
    /// walks: the candidates `k` of a split `(i, k), (k, j)` are the
    /// stored cells of the left operand's row `i`, not all `n` nodes.
    fn row_cols(&self, i: u32) -> impl Iterator<Item = u32> + '_;
    /// Heap bytes the representation's buffers hold, by capacity: what
    /// the matrix costs in memory, as opposed to [`BoolMat::nnz`].
    fn bytes(&self) -> usize;
}

/// The positions of the set bits of `word`, ascending.
#[inline(always)]
pub(crate) fn word_bits(mut word: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros();
            word &= word - 1;
            bit
        })
    })
}

impl BoolMat for DenseBitMatrix {
    fn n(&self) -> usize {
        DenseBitMatrix::n(self)
    }
    fn get(&self, i: u32, j: u32) -> bool {
        DenseBitMatrix::get(self, i, j)
    }
    fn nnz(&self) -> usize {
        DenseBitMatrix::nnz(self)
    }
    fn pairs(&self) -> Vec<(u32, u32)> {
        DenseBitMatrix::pairs(self)
    }
    fn row_cols(&self, i: u32) -> impl Iterator<Item = u32> + '_ {
        let words = if (i as usize) < self.n() {
            self.row(i as usize)
        } else {
            &[]
        };
        (0u32..)
            .zip(words)
            .flat_map(|(wi, &word)| word_bits(word).map(move |bit| wi * 64 + bit))
    }
    fn bytes(&self) -> usize {
        DenseBitMatrix::bytes(self)
    }
}

impl BoolMat for CsrMatrix {
    fn n(&self) -> usize {
        CsrMatrix::n(self)
    }
    fn get(&self, i: u32, j: u32) -> bool {
        CsrMatrix::get(self, i, j)
    }
    fn nnz(&self) -> usize {
        CsrMatrix::nnz(self)
    }
    fn pairs(&self) -> Vec<(u32, u32)> {
        CsrMatrix::pairs(self)
    }
    fn row_cols(&self, i: u32) -> impl Iterator<Item = u32> + '_ {
        let cols = if (i as usize) < self.n() {
            self.row(i as usize)
        } else {
            &[]
        };
        cols.iter().copied()
    }
    fn bytes(&self) -> usize {
        CsrMatrix::bytes(self)
    }
}

/// One job of a [`BoolEngine::multiply_masked_batch`]: operands `(a, b)`
/// plus an optional complement mask.
pub type MaskedJob<'a, M> = (&'a M, &'a M, Option<&'a M>);

/// Cumulative engine-internal work counters, surfaced to the solvers
/// through [`BoolEngine::kernel_counters`] and reported per run in
/// `SolveStats` (`cfpq-core`). Counters are monotone and shared across
/// clones of an engine (snapshots and worker threads advance one
/// stream), so a run's contribution is the difference of two samples.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Tile-granular kernel launches the blocked backends avoided:
    /// products skipped because the counterpart tile-row stored nothing,
    /// plus accumulated output tiles that masking left empty. Zero for
    /// the flat engines.
    pub tiles_skipped: u64,
}

impl KernelCounters {
    /// The work performed since an `earlier` sample of the same engine.
    pub fn since(self, earlier: KernelCounters) -> KernelCounters {
        KernelCounters {
            tiles_skipped: self.tiles_skipped.saturating_sub(earlier.tiles_skipped),
        }
    }
}

/// A matrix backend: representation + execution strategy.
///
/// # Decorating an engine
///
/// Engines compose: a wrapper type (instrumentation, fault injection —
/// see `cfpq-service`'s `FaultInjector`) can implement `BoolEngine` by
/// delegating to an inner engine. Two rules keep a decorator
/// transparent to the solvers:
///
/// * **Delegate batches whole.** The batch entry points exist so
///   device-backed engines can overlap independent kernels; a decorator
///   that re-implements `multiply_batch`/`multiply_masked_batch` as a
///   per-job loop over its own scalar methods silently serializes them.
///   Do any per-job bookkeeping up front, then hand the intact job
///   slice to the inner engine.
/// * **Keep defaults consistent.** If the decorator overrides a method
///   with a default body (e.g. `union_pairs`), it must forward to the
///   inner engine's version, not the trait default — the inner engine
///   may have a faster override the solvers rely on.
/// * **Forward the counters.** [`BoolEngine::kernel_counters`] defaults
///   to all-zeros; a decorator over a counting engine (tiled)
///   must delegate it, or the solvers' per-run work accounting silently
///   reads zero through the wrapper.
///
/// # The tile-kernel contract
///
/// Blocked backends (`TiledEngine`) decompose every product into
/// fixed-size tile-pair kernels. Five guarantees keep them
/// interchangeable with the flat engines:
///
/// * **Canonical form.** No all-zero tile is ever stored and tile
///   columns are strictly ascending per tile-row, so structural equality
///   is semantic equality and `nnz`/`pairs` never visit dead payloads.
/// * **Same masked contract, tile-granular skipping.** The masked
///   product obeys the exact [`BoolEngine::multiply_masked`] laws below;
///   the backend may skip any tile pair it can prove contributes nothing
///   (empty counterpart tile-row, fully-masked output tile) and must
///   count those skips in [`KernelCounters::tiles_skipped`].
/// * **Monotone shared counters.** Skip counts only grow and are shared
///   across engine clones, so `kernel_counters()` sampled before and
///   after a run brackets exactly that run's work on a quiescent engine.
/// * **A product costs its sparser operand, and nothing shows which.**
///   A tile pair can be evaluated by walking the set bits of either
///   tile (for `TiledEngine`: the left tile's non-empty rows, or —
///   after one 64×64 transpose — the right panel's set bits, listed as
///   cells once per product, into a transposed accumulator), at one
///   word-OR per bit walked. Neither side steps over an empty row, so
///   a tile pair costs its bits, not its 64 words (a panel's words are
///   read once per product, to list it). The backend picks the
///   side per left tile by comparing the two operation counts, computed
///   from popcounts of the operands it was handed and from nothing
///   else: no threshold, option or build setting enters, so a caller
///   cannot select a side and need not. The output matrix, its
///   canonical form and `tiles_skipped` are the same whichever side
///   ran.
/// * **One source, the instantiation the CPU runs best.** The baseline
///   x86-64 target of a release build lacks POPCNT, BMI and AVX2, on
///   which tile kernels spend most of their instructions (popcounts,
///   trailing-zero counts, 64-word passes). `TiledEngine`'s products,
///   set operations, builds and popcounts therefore run compiled for
///   AVX2, BMI1/2, LZCNT and POPCNT where the CPU has all five, detected
///   at run time, and as baseline code elsewhere. It is the same code,
///   and the same bytes come out of it either way; no option, feature or
///   build flag selects it, and the engine traits do not see it.
///
/// # The Recorder contract
///
/// Every product — `multiply`, `multiply_masked`, each job of the batch
/// variants, and each length product of [`crate::LenEngine`] — runs
/// under one `cfpq_obs` span named `"kernel"` tagged with the
/// representation (`repr`), the operation (`op`: `mul`/`masked`/`len`)
/// and the output `nnz`; the tiled representation additionally tags
/// `tiles_skipped`. One function of this module opens that span, around
/// exactly the raw matrix kernel, and computes the attributes behind
/// `SpanGuard::is_recording`: with no recorder installed a kernel pays
/// one thread-local read and nothing else (enforced by the guard in
/// `cfpq-service`'s `tests/observability.rs`). Which leaves one rule:
///
/// * **Decorators add no kernel spans.** A decorator forwards to an
///   inner engine that already records its kernels; like the counters
///   above, span emission belongs to the engine doing the work. The
///   [`crate::Device`] propagates the calling thread's recorder onto
///   pool threads, so batch jobs land in the caller's trace without
///   decorator help.
pub trait BoolEngine: Send + Sync {
    /// The matrix type this engine operates on.
    type Matrix: BoolMat;

    /// Human-readable backend name (appears in reports/benches).
    fn name(&self) -> &'static str;

    /// The zero matrix of size `n × n`.
    fn zeros(&self, n: usize) -> Self::Matrix;

    /// Builds a matrix from `(row, col)` pairs. Takes `&self` because the
    /// engine is an abstract factory here (the matrix is built *by* the
    /// engine, not converted *from* it).
    #[allow(clippy::wrong_self_convention)]
    fn from_pairs(&self, n: usize, pairs: &[(u32, u32)]) -> Self::Matrix;

    /// Boolean matrix product.
    fn multiply(&self, a: &Self::Matrix, b: &Self::Matrix) -> Self::Matrix;

    /// `a |= b`; returns `true` if `a` changed (fixpoint detection,
    /// Algorithm 1 line 8).
    fn union_in_place(&self, a: &mut Self::Matrix, b: &Self::Matrix) -> bool;

    /// `a |= {pairs}` — merges explicit `(row, col)` pairs into `a` in
    /// place; returns `true` if `a` changed. This is the edge-update hook
    /// a persistent `GraphIndex` relies on: absorbing a small batch of
    /// new edges must not materialize a whole second matrix. The default
    /// falls back to `from_pairs` + `union_in_place`; the engines of this
    /// crate make real point updates.
    fn union_pairs(&self, a: &mut Self::Matrix, pairs: &[(u32, u32)]) -> bool {
        if pairs.is_empty() {
            return false;
        }
        let add = self.from_pairs(a.n(), pairs);
        self.union_in_place(a, &add)
    }

    /// Grows `a` to `n × n` in place (new cells unset). `n` must not
    /// shrink the matrix. This is the node-universe hook behind
    /// `GraphIndex::add_edges` accepting previously-unseen node ids.
    fn grow(&self, a: &mut Self::Matrix, n: usize);

    /// `a \ b` — entries of `a` absent from `b` (semi-naive delta loop).
    fn difference(&self, a: &Self::Matrix, b: &Self::Matrix) -> Self::Matrix;

    /// `a ∩ b` — entrywise conjunction (conjunctive-grammar extension).
    fn intersect(&self, a: &Self::Matrix, b: &Self::Matrix) -> Self::Matrix;

    /// Computes several independent products. The default runs them
    /// sequentially; device-backed engines hand each worker of the pool
    /// a run of serial kernels, exploiting inter-rule independence
    /// within a fixpoint sweep (the paper's §7 multi-device remark).
    fn multiply_batch(&self, jobs: &[(&Self::Matrix, &Self::Matrix)]) -> Vec<Self::Matrix> {
        jobs.iter().map(|(a, b)| self.multiply(a, b)).collect()
    }

    /// Masked Boolean product `(a × b) \ complement_mask`.
    ///
    /// The contract every implementation must honour (property-tested):
    /// the output is disjoint from `complement_mask`, and
    /// `multiply_masked(a, b, m) ∪ (multiply(a, b) ∩ m) = multiply(a, b)`.
    ///
    /// The default falls back to `multiply` + `difference`; the engines
    /// of this crate run real masked kernels that never emit known
    /// entries (dense: AND-out mask words per output row; CSR: subtract
    /// the mask row from every output row that accumulated anything;
    /// tiled: AND-out the mask tile from every accumulated output tile).
    fn multiply_masked(
        &self,
        a: &Self::Matrix,
        b: &Self::Matrix,
        complement_mask: &Self::Matrix,
    ) -> Self::Matrix {
        self.difference(&self.multiply(a, b), complement_mask)
    }

    /// Computes several independent products, each with an optional
    /// complement mask ([`BoolEngine::multiply_masked`] semantics when
    /// the mask is present, plain [`BoolEngine::multiply`] otherwise).
    /// The default runs sequentially; device-backed engines hand each
    /// worker of the pool a run of serial kernels so a fixpoint sweep's
    /// rule kernels overlap.
    fn multiply_masked_batch(&self, jobs: &[MaskedJob<'_, Self::Matrix>]) -> Vec<Self::Matrix> {
        jobs.iter()
            .map(|&(a, b, m)| match m {
                Some(m) => self.multiply_masked(a, b, m),
                None => self.multiply(a, b),
            })
            .collect()
    }

    /// Cumulative internal work counters (see [`KernelCounters`]). The
    /// default — flat representations with nothing to skip — is
    /// all-zeros; counting engines override it, and decorators must
    /// delegate it (see the decorator contract above).
    fn kernel_counters(&self) -> KernelCounters {
        KernelCounters::default()
    }
}

/// Runs one product kernel, Boolean or length, under its `"kernel"` span
/// (see the Recorder contract on [`BoolEngine`]).
pub(crate) fn traced_kernel<M>(
    repr: &'static str,
    op: &'static str,
    nnz: impl FnOnce(&M) -> usize,
    kernel: impl FnOnce() -> (M, Option<u64>),
) -> (M, Option<u64>) {
    let mut sp = cfpq_obs::span("kernel");
    let (out, skipped) = kernel();
    if sp.is_recording() {
        sp.attr_str("repr", repr);
        sp.attr_str("op", op);
        sp.attr_u64("nnz", nnz(&out) as u64);
        if let Some(skipped) = skipped {
            sp.attr_u64("tiles_skipped", skipped);
        }
    }
    (out, skipped)
}

/// The batch rule of every engine: the jobs are cut into one contiguous
/// run per worker of the `device`, and `run` executes a run serially on
/// whichever thread picks it up, so the kernels of a run share what they
/// can. Without a device, or with a single job, the batch is one run on
/// the caller.
pub(crate) fn run_batch<J: Sync, M: Send>(
    device: Option<&Device>,
    jobs: &[J],
    run: impl Fn(&[J]) -> Vec<M> + Sync,
) -> Vec<M> {
    match device.filter(|d| d.n_workers() > 1 && jobs.len() > 1) {
        Some(device) => {
            let runs = device.par_map_ranges(jobs.len(), |r| run(&jobs[r]));
            runs.into_iter().flatten().collect()
        }
        None => run(jobs),
    }
}

/// One product of `e` through `kernel`, on the calling thread, under its
/// span, the tiles it skipped added to the engine's counter.
fn product<B: Backend>(
    e: &B,
    kernel: &mut impl FnMut(MaskedJob<'_, B::Repr>) -> (B::Repr, Option<u64>),
    job: MaskedJob<'_, B::Repr>,
) -> B::Repr {
    let op = if job.2.is_some() { "masked" } else { "mul" };
    let (out, skipped) = traced_kernel(B::Repr::REPR, op, BoolMat::nnz, || kernel(job));
    if let Some(skipped @ 1..) = skipped {
        e.add_tiles_skipped(skipped);
    }
    out
}

/// Every engine is a `Backend`: its representation does the work, and
/// what the five names share — the kernel span, the skip counter, how a
/// batch meets the device — is stated here, once.
impl<B: Backend> BoolEngine for B {
    type Matrix = B::Repr;

    fn name(&self) -> &'static str {
        B::NAME
    }
    fn zeros(&self, n: usize) -> B::Repr {
        B::Repr::zeros(n)
    }
    fn from_pairs(&self, n: usize, pairs: &[(u32, u32)]) -> B::Repr {
        B::Repr::from_pairs(n, pairs)
    }
    fn multiply(&self, a: &B::Repr, b: &B::Repr) -> B::Repr {
        product(self, &mut B::Repr::kernel(), (a, b, None))
    }
    fn union_in_place(&self, a: &mut B::Repr, b: &B::Repr) -> bool {
        a.union_in_place(b)
    }
    fn union_pairs(&self, a: &mut B::Repr, pairs: &[(u32, u32)]) -> bool {
        a.insert_pairs(pairs)
    }
    fn grow(&self, a: &mut B::Repr, n: usize) {
        a.grow(n)
    }
    fn difference(&self, a: &B::Repr, b: &B::Repr) -> B::Repr {
        a.difference(b)
    }
    fn intersect(&self, a: &B::Repr, b: &B::Repr) -> B::Repr {
        a.intersect(b)
    }
    fn multiply_batch(&self, jobs: &[(&B::Repr, &B::Repr)]) -> Vec<B::Repr> {
        let jobs: Vec<MaskedJob<'_, B::Repr>> = jobs.iter().map(|&(a, b)| (a, b, None)).collect();
        self.multiply_masked_batch(&jobs)
    }
    fn multiply_masked(&self, a: &B::Repr, b: &B::Repr, mask: &B::Repr) -> B::Repr {
        product(self, &mut B::Repr::kernel(), (a, b, Some(mask)))
    }
    fn multiply_masked_batch(&self, jobs: &[MaskedJob<'_, B::Repr>]) -> Vec<B::Repr> {
        run_batch(self.device(), jobs, |run| {
            let mut kernel = B::Repr::kernel();
            run.iter()
                .map(|&job| product(self, &mut kernel, job))
                .collect()
        })
    }
    fn kernel_counters(&self) -> KernelCounters {
        KernelCounters {
            tiles_skipped: self.tiles_skipped(),
        }
    }
}

/// Serial dense backend (the ablation baseline): [`DenseBitMatrix`] on
/// the calling thread.
#[derive(Clone, Debug, Default)]
pub struct DenseEngine;

impl Backend for DenseEngine {
    type Repr = DenseBitMatrix;
    const NAME: &'static str = "dense";
}

/// Serial CSR backend — the stand-in for the paper's sCPU: [`CsrMatrix`]
/// on the calling thread.
#[derive(Clone, Debug, Default)]
pub struct SparseEngine;

impl Backend for SparseEngine {
    type Repr = CsrMatrix;
    const NAME: &'static str = "sparse";
}

/// The representation `R` on a [`Device`]: a batch runs its jobs side by
/// side on the device's workers, and a single product runs on the
/// caller, as each job of a batch runs on one thread. Clones share the
/// device handle *and* the skip counter, so
/// [`BoolEngine::kernel_counters`] reads one stream across snapshots and
/// worker threads. Reached under the three names below; on
/// `Device::new(1)` each runs the kernels of its serial counterpart.
#[derive(Clone, Debug)]
pub struct OnDevice<R> {
    shared: Arc<Shared>,
    repr: PhantomData<fn() -> R>,
}

/// What the clones of an [`OnDevice`] share.
#[derive(Debug)]
struct Shared {
    device: Device,
    /// Added to by the products that report skips — the tiled ones.
    tiles_skipped: AtomicU64,
}

impl<R> OnDevice<R> {
    /// Creates the backend with the given device.
    pub fn new(device: Device) -> Self {
        let shared = Shared {
            device,
            tiles_skipped: AtomicU64::new(0),
        };
        Self {
            shared: Arc::new(shared),
            repr: PhantomData,
        }
    }
}

impl<R: BoolRepr> Backend for OnDevice<R> {
    type Repr = R;
    const NAME: &'static str = R::ON_DEVICE;

    fn device(&self) -> Option<&Device> {
        Some(&self.shared.device)
    }
    fn add_tiles_skipped(&self, tiles: u64) {
        self.shared
            .tiles_skipped
            .fetch_add(tiles, Ordering::Relaxed);
    }
    fn tiles_skipped(&self) -> u64 {
        self.shared.tiles_skipped.load(Ordering::Relaxed)
    }
}

/// Device-parallel dense backend — the stand-in for the paper's dGPU.
pub type ParDenseEngine = OnDevice<DenseBitMatrix>;

/// Device-parallel CSR backend — the stand-in for the paper's sGPU.
pub type ParSparseEngine = OnDevice<CsrMatrix>;

/// Block-tiled backend: the products of a batch are spread over the
/// [`Device`] pool.
pub type TiledEngine = OnDevice<TiledBitMatrix>;

impl TiledEngine {
    /// A serial tiled backend (inline device, no extra threads).
    pub fn serial() -> Self {
        Self::new(Device::new(1))
    }
}

impl Default for TiledEngine {
    fn default() -> Self {
        Self::serial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LenEngine;
    use cfpq_obs::SpanCollector;

    /// What a run of [`check_engine`] showed of an engine. Neither the
    /// name it was reached under nor the width of its device may show
    /// here.
    #[derive(Debug, PartialEq)]
    struct Observed {
        /// Every Boolean product made, in order.
        products: Vec<Vec<(u32, u32)>>,
        /// Every length product made, in order.
        lengths: Vec<Vec<(u32, u32, u32)>>,
        tiles_skipped: u64,
        kernel_spans: usize,
    }

    /// `row_cols` is `pairs()` row by row, and a row or cell past `n`
    /// is empty: `get` is total.
    fn check_rows<M: BoolMat>(m: &M) {
        let n = m.n() as u32;
        let rows: Vec<(u32, u32)> = (0..n)
            .flat_map(|i| m.row_cols(i).map(move |j| (i, j)))
            .collect();
        assert_eq!(rows, m.pairs());
        assert_eq!(m.row_cols(n).count(), 0);
        assert_eq!(m.row_cols(u32::MAX).count(), 0);
        assert!(!m.get(n, 0) && !m.get(0, n) && !m.get(u32::MAX, u32::MAX));
    }

    fn check_engine<E: BoolEngine + LenEngine>(e: &E, name: &str) -> Observed {
        assert_eq!(e.name(), name);
        let collector = Arc::new(SpanCollector::new());
        let guard = cfpq_obs::install(collector.clone());
        let mut products = Vec::new();
        let mut seen = |product: &E::Matrix| {
            check_rows(product);
            products.push(product.pairs())
        };

        let a = e.from_pairs(5, &[(0, 1), (4, 4)]);
        let b = e.from_pairs(5, &[(1, 2), (4, 4)]);
        let c = e.multiply(&a, &b);
        seen(&c);
        assert_eq!(c.pairs(), vec![(0, 2), (4, 4)]);
        let mut acc = e.zeros(5);
        assert!(e.union_in_place(&mut acc, &c));
        assert!(!e.union_in_place(&mut acc, &c));
        assert_eq!(acc.nnz(), 2);
        assert!(acc.get(0, 2));
        let diff = e.difference(&acc, &e.from_pairs(5, &[(0, 2)]));
        assert_eq!(diff.pairs(), vec![(4, 4)]);
        let inter = e.intersect(&acc, &e.from_pairs(5, &[(0, 2), (1, 1)]));
        assert_eq!(inter.pairs(), vec![(0, 2)]);
        for built in [&a, &b, &acc, &diff, &inter, &e.zeros(0)] {
            check_rows(built);
        }
        let reversed = e.multiply(&b, &a);
        seen(&reversed);
        let batch = e.multiply_batch(&[(&a, &b), (&b, &a)]);
        batch.iter().for_each(&mut seen);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].pairs(), c.pairs());
        assert_eq!(batch[1].pairs(), reversed.pairs());

        // Masked-product contract: output disjoint from the mask, and
        // masked(a,b,m) ∪ (a×b ∩ m) == a×b.
        let mask = e.from_pairs(5, &[(0, 2), (3, 3)]);
        let masked = e.multiply_masked(&a, &b, &mask);
        seen(&masked);
        assert!(e.intersect(&masked, &mask).pairs().is_empty());
        let product = &c;
        let mut rebuilt = masked.clone();
        e.union_in_place(&mut rebuilt, &e.intersect(product, &mask));
        assert_eq!(rebuilt.pairs(), product.pairs());
        let masked_batch =
            e.multiply_masked_batch(&[(&a, &b, Some(&mask)), (&a, &b, None), (&b, &a, None)]);
        masked_batch.iter().for_each(&mut seen);
        assert_eq!(masked_batch.len(), 3);
        assert_eq!(masked_batch[0].pairs(), masked.pairs());
        assert_eq!(masked_batch[1].pairs(), product.pairs());
        assert_eq!(masked_batch[2].pairs(), reversed.pairs());

        // Over five tile-rows, with a tile to skip: of `a`'s tiles (0, 2)
        // and (1, 0), the first meets an empty tile-row of `b`.
        let wide_a = e.from_pairs(300, &[(0, 140), (70, 3)]);
        let wide_b = e.from_pairs(300, &[(0, 1), (3, 299)]);
        let before = e.kernel_counters();
        let wide = e.multiply(&wide_a, &wide_b);
        seen(&wide);
        assert_eq!(wide.pairs(), vec![(70, 299)]);
        let wide_mask = e.from_pairs(300, &[(70, 299)]);
        let wide_masked = e.multiply_masked(&wide_a, &wide_b, &wide_mask);
        seen(&wide_masked);
        assert_eq!(wide_masked.nnz(), 0);
        let tiles_skipped = e.kernel_counters().since(before).tiles_skipped;
        // A row over tile columns 0, 1, 2 and 4 comes out ascending,
        // whatever order it was written in.
        let mut crossing = e.from_pairs(300, &[(70, 299), (70, 3), (69, 5)]);
        // A built matrix holds buffers, and a union gives none back.
        let built_bytes = crossing.bytes();
        assert!(built_bytes > 0 && a.bytes() > 0);
        e.union_pairs(&mut crossing, &[(70, 140), (70, 64), (71, 0)]);
        assert_eq!(crossing.row_cols(70).collect::<Vec<_>>(), [3, 64, 140, 299]);
        assert!(crossing.bytes() >= built_bytes);
        for built in [&wide_a, &wide_b, &wide_mask, &crossing] {
            check_rows(built);
        }

        let lengths = crate::length::tests::check_engine(e);
        drop(guard);
        let spans = collector.spans();
        let kernel_spans = spans.iter().filter(|s| s.name == "kernel").count();
        assert_eq!(
            kernel_spans,
            products.len() + lengths.len(),
            "one kernel span per product, Boolean or length"
        );
        Observed {
            products,
            lengths,
            tiles_skipped,
            kernel_spans,
        }
    }

    #[test]
    fn all_engines_behave_identically() {
        let widths = [1, 2, 3].map(Device::new);
        // A unit engine and its alias at any width: the same matrices,
        // the same kernel spans.
        let dense = check_engine(&DenseEngine, "dense");
        let sparse = check_engine(&SparseEngine, "sparse");
        let tiled = check_engine(&TiledEngine::serial(), "tiled");
        for device in widths {
            let workers = device.n_workers();
            let par_dense = check_engine(&ParDenseEngine::new(device.clone()), "dense-par");
            assert_eq!(par_dense, dense, "dense-par on {workers}");
            let par_sparse = check_engine(&ParSparseEngine::new(device.clone()), "sparse-par");
            assert_eq!(par_sparse, sparse, "sparse-par on {workers}");
            let on_device = check_engine(&TiledEngine::new(device), "tiled");
            assert_eq!(on_device, tiled, "tiled on {workers}");
        }
        // Only the tiled representation has tiles to skip. In each wide
        // product: the empty tile-row of `b`, and output tile (1, 0),
        // touched but left empty; in the masked one also tile (1, 4).
        assert_eq!((dense.tiles_skipped, sparse.tiles_skipped), (0, 0));
        assert_eq!(tiled.tiles_skipped, 5);
        // And the representation shows in no product.
        assert_eq!(dense.products, sparse.products);
        assert_eq!(dense.products, tiled.products);
        assert_eq!(dense.lengths, sparse.lengths);
        assert_eq!(dense.lengths, tiled.lengths);
    }
}

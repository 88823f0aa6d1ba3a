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

use crate::dense::DenseBitMatrix;
use crate::device::Device;
use crate::sparse::{multiply_jobs, CsrMatrix};

/// Minimal Boolean-matrix interface required by the solvers.
///
/// `Send + Sync + 'static` because matrices cross thread boundaries in
/// two places: the [`Device`] kernel pool borrows them for row-block
/// tasks, and the `cfpq-service` snapshot layer shares whole closed
/// indexes between reader threads behind `Arc`s.
pub trait BoolMat: Clone + PartialEq + Send + Sync + 'static {
    /// Matrix dimension `n`.
    fn n(&self) -> usize;
    /// Reads bit `(i, j)`.
    fn get(&self, i: u32, j: u32) -> bool;
    /// Number of set bits (`#results` per nonterminal in Table 1/2 terms).
    fn nnz(&self) -> usize;
    /// All set `(row, col)` pairs in row-major order.
    fn pairs(&self) -> Vec<(u32, u32)>;
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
/// fixed-size tile-pair kernels. Four guarantees keep them
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
///   tile (for `TiledEngine`: the left tile's rows, or — after one
///   64×64 transpose — the right panel's, into a transposed
///   accumulator), at one word-OR per bit walked. The backend picks the
///   side per left tile by comparing the two operation counts, computed
///   from popcounts of the operands it was handed and from nothing
///   else: no threshold, option or build setting enters, so a caller
///   cannot select a side and need not. The output matrix, its
///   canonical form, `tiles_skipped` and the way a `Device` splits the
///   tile-rows are the same whichever side ran — serial and
///   multi-worker products stay byte-identical.
///
/// # The Recorder contract
///
/// Every product entry point (`multiply`, `multiply_masked`, and each
/// job of the batch variants) must run under a `cfpq_obs` span named
/// `"kernel"` tagged with the representation actually used (`repr`),
/// the operation (`op`: `mul`/`masked`), and the output `nnz` —
/// blocked backends additionally tag `tiles_skipped`. Three rules keep
/// this free when tracing is off and honest when it is on:
///
/// * **Gate attribute work.** Attribute computation (nnz popcounts,
///   string building) must sit behind `SpanGuard::is_recording`; an
///   engine with no recorder installed pays one thread-local read per
///   kernel and nothing else (enforced by the overhead guard in
///   `cfpq-service`'s `tests/observability.rs`).
/// * **One span per kernel.** A method that delegates to another
///   *instrumented* entry point must not add its own span, or every
///   product double-counts; wrap exactly the site that runs the raw
///   matrix kernel.
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
    /// falls back to `from_pairs` + `union_in_place`; both concrete
    /// representations override it with real point updates.
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
    /// sequentially; device-backed engines dispatch one (serial) kernel
    /// per job to the pool, exploiting inter-rule independence within a
    /// fixpoint sweep (the paper's §7 multi-device remark).
    fn multiply_batch(&self, jobs: &[(&Self::Matrix, &Self::Matrix)]) -> Vec<Self::Matrix> {
        jobs.iter().map(|(a, b)| self.multiply(a, b)).collect()
    }

    /// Masked Boolean product `(a × b) \ complement_mask`.
    ///
    /// The contract every implementation must honour (property-tested):
    /// the output is disjoint from `complement_mask`, and
    /// `multiply_masked(a, b, m) ∪ (multiply(a, b) ∩ m) = multiply(a, b)`.
    ///
    /// The default falls back to `multiply` + `difference`; both concrete
    /// representations override it with real masked kernels that never
    /// emit known entries (dense: AND-out mask words per output row; CSR:
    /// subtract the mask row from every output row that accumulated
    /// anything).
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
    /// The default runs sequentially; device-backed engines dispatch one
    /// serial kernel per job to the pool so a fixpoint sweep's rule
    /// kernels overlap.
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

/// Runs one product kernel under an obs `"kernel"` span, tagging the
/// representation, operation, and output nnz (computed only when a
/// recorder is actually capturing — see the Recorder contract on
/// [`BoolEngine`]).
pub(crate) fn traced_kernel<M: BoolMat>(
    repr: &'static str,
    op: &'static str,
    f: impl FnOnce() -> M,
) -> M {
    let mut sp = cfpq_obs::span("kernel");
    let out = f();
    if sp.is_recording() {
        sp.attr_str("repr", repr);
        sp.attr_str("op", op);
        sp.attr_u64("nnz", out.nnz() as u64);
    }
    out
}

/// Serial dense backend.
#[derive(Clone, Debug, Default)]
pub struct DenseEngine;

impl BoolEngine for DenseEngine {
    type Matrix = DenseBitMatrix;

    fn name(&self) -> &'static str {
        "dense"
    }
    fn zeros(&self, n: usize) -> DenseBitMatrix {
        DenseBitMatrix::zeros(n)
    }
    fn from_pairs(&self, n: usize, pairs: &[(u32, u32)]) -> DenseBitMatrix {
        DenseBitMatrix::from_pairs(n, pairs)
    }
    fn multiply(&self, a: &DenseBitMatrix, b: &DenseBitMatrix) -> DenseBitMatrix {
        traced_kernel("dense", "mul", || a.multiply(b))
    }
    fn union_in_place(&self, a: &mut DenseBitMatrix, b: &DenseBitMatrix) -> bool {
        a.union_in_place(b)
    }
    fn union_pairs(&self, a: &mut DenseBitMatrix, pairs: &[(u32, u32)]) -> bool {
        a.insert_pairs(pairs)
    }
    fn grow(&self, a: &mut DenseBitMatrix, n: usize) {
        a.grow(n)
    }
    fn difference(&self, a: &DenseBitMatrix, b: &DenseBitMatrix) -> DenseBitMatrix {
        a.difference(b)
    }
    fn intersect(&self, a: &DenseBitMatrix, b: &DenseBitMatrix) -> DenseBitMatrix {
        a.intersect(b)
    }
    fn multiply_masked(
        &self,
        a: &DenseBitMatrix,
        b: &DenseBitMatrix,
        mask: &DenseBitMatrix,
    ) -> DenseBitMatrix {
        traced_kernel("dense", "masked", || a.multiply_masked(b, mask))
    }
}

/// Device-parallel dense backend — the stand-in for the paper's dGPU.
#[derive(Clone, Debug)]
pub struct ParDenseEngine {
    /// The execution device.
    pub device: Device,
}

impl ParDenseEngine {
    /// Creates the backend with the given device.
    pub fn new(device: Device) -> Self {
        Self { device }
    }
}

impl BoolEngine for ParDenseEngine {
    type Matrix = DenseBitMatrix;

    fn name(&self) -> &'static str {
        "dense-par"
    }
    fn zeros(&self, n: usize) -> DenseBitMatrix {
        DenseBitMatrix::zeros(n)
    }
    fn from_pairs(&self, n: usize, pairs: &[(u32, u32)]) -> DenseBitMatrix {
        DenseBitMatrix::from_pairs(n, pairs)
    }
    fn multiply(&self, a: &DenseBitMatrix, b: &DenseBitMatrix) -> DenseBitMatrix {
        traced_kernel("dense", "mul", || a.multiply_on(b, &self.device))
    }
    fn union_in_place(&self, a: &mut DenseBitMatrix, b: &DenseBitMatrix) -> bool {
        a.union_in_place(b)
    }
    fn union_pairs(&self, a: &mut DenseBitMatrix, pairs: &[(u32, u32)]) -> bool {
        a.insert_pairs(pairs)
    }
    fn grow(&self, a: &mut DenseBitMatrix, n: usize) {
        a.grow(n)
    }
    fn difference(&self, a: &DenseBitMatrix, b: &DenseBitMatrix) -> DenseBitMatrix {
        a.difference(b)
    }
    fn intersect(&self, a: &DenseBitMatrix, b: &DenseBitMatrix) -> DenseBitMatrix {
        a.intersect(b)
    }
    fn multiply_batch(&self, jobs: &[(&DenseBitMatrix, &DenseBitMatrix)]) -> Vec<DenseBitMatrix> {
        // One serial kernel per job; no nested offload (see Device docs).
        self.device.par_map(jobs.to_vec(), |(a, b)| {
            traced_kernel("dense", "mul", || a.multiply(b))
        })
    }
    fn multiply_masked(
        &self,
        a: &DenseBitMatrix,
        b: &DenseBitMatrix,
        mask: &DenseBitMatrix,
    ) -> DenseBitMatrix {
        traced_kernel("dense", "masked", || {
            a.multiply_masked_on(b, mask, &self.device)
        })
    }
    fn multiply_masked_batch(&self, jobs: &[MaskedJob<'_, DenseBitMatrix>]) -> Vec<DenseBitMatrix> {
        // One serial kernel per job; no nested offload (see Device docs).
        self.device.par_map(jobs.to_vec(), |(a, b, m)| match m {
            Some(m) => traced_kernel("dense", "masked", || a.multiply_masked(b, m)),
            None => traced_kernel("dense", "mul", || a.multiply(b)),
        })
    }
}

/// Serial CSR backend — the stand-in for the paper's sCPU.
#[derive(Clone, Debug, Default)]
pub struct SparseEngine;

impl BoolEngine for SparseEngine {
    type Matrix = CsrMatrix;

    fn name(&self) -> &'static str {
        "sparse"
    }
    fn zeros(&self, n: usize) -> CsrMatrix {
        CsrMatrix::zeros(n)
    }
    fn from_pairs(&self, n: usize, pairs: &[(u32, u32)]) -> CsrMatrix {
        CsrMatrix::from_pairs(n, pairs)
    }
    fn multiply(&self, a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
        traced_kernel("csr", "mul", || a.multiply(b))
    }
    fn union_in_place(&self, a: &mut CsrMatrix, b: &CsrMatrix) -> bool {
        a.union_in_place(b)
    }
    fn union_pairs(&self, a: &mut CsrMatrix, pairs: &[(u32, u32)]) -> bool {
        a.insert_pairs(pairs)
    }
    fn grow(&self, a: &mut CsrMatrix, n: usize) {
        a.grow(n)
    }
    fn difference(&self, a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
        a.difference(b)
    }
    fn intersect(&self, a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
        a.intersect(b)
    }
    fn multiply_masked(&self, a: &CsrMatrix, b: &CsrMatrix, mask: &CsrMatrix) -> CsrMatrix {
        traced_kernel("csr", "masked", || a.multiply_masked(b, mask))
    }
    fn multiply_masked_batch(&self, jobs: &[MaskedJob<'_, CsrMatrix>]) -> Vec<CsrMatrix> {
        multiply_jobs(jobs)
    }
}

/// Device-parallel CSR backend — the stand-in for the paper's sGPU.
#[derive(Clone, Debug)]
pub struct ParSparseEngine {
    /// The execution device.
    pub device: Device,
}

impl ParSparseEngine {
    /// Creates the backend with the given device.
    pub fn new(device: Device) -> Self {
        Self { device }
    }
}

impl BoolEngine for ParSparseEngine {
    type Matrix = CsrMatrix;

    fn name(&self) -> &'static str {
        "sparse-par"
    }
    fn zeros(&self, n: usize) -> CsrMatrix {
        CsrMatrix::zeros(n)
    }
    fn from_pairs(&self, n: usize, pairs: &[(u32, u32)]) -> CsrMatrix {
        CsrMatrix::from_pairs(n, pairs)
    }
    fn multiply(&self, a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
        traced_kernel("csr", "mul", || a.multiply_on(b, &self.device))
    }
    fn union_in_place(&self, a: &mut CsrMatrix, b: &CsrMatrix) -> bool {
        a.union_in_place(b)
    }
    fn union_pairs(&self, a: &mut CsrMatrix, pairs: &[(u32, u32)]) -> bool {
        a.insert_pairs(pairs)
    }
    fn grow(&self, a: &mut CsrMatrix, n: usize) {
        a.grow(n)
    }
    fn difference(&self, a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
        a.difference(b)
    }
    fn intersect(&self, a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
        a.intersect(b)
    }
    fn multiply_batch(&self, jobs: &[(&CsrMatrix, &CsrMatrix)]) -> Vec<CsrMatrix> {
        // One serial kernel per job; no nested offload (see Device docs).
        self.device.par_map(jobs.to_vec(), |(a, b)| {
            traced_kernel("csr", "mul", || a.multiply(b))
        })
    }
    fn multiply_masked(&self, a: &CsrMatrix, b: &CsrMatrix, mask: &CsrMatrix) -> CsrMatrix {
        traced_kernel("csr", "masked", || {
            a.multiply_masked_on(b, mask, &self.device)
        })
    }
    fn multiply_masked_batch(&self, jobs: &[MaskedJob<'_, CsrMatrix>]) -> Vec<CsrMatrix> {
        // One run of serial kernels per worker, sharing that worker's
        // accumulator; no nested offload (see Device docs).
        let runs = self
            .device
            .par_map_ranges(jobs.len(), |r| multiply_jobs(&jobs[r]));
        runs.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_engine<E: BoolEngine>(e: &E) {
        let a = e.from_pairs(5, &[(0, 1), (4, 4)]);
        let b = e.from_pairs(5, &[(1, 2), (4, 4)]);
        let c = e.multiply(&a, &b);
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
        let batch = e.multiply_batch(&[(&a, &b), (&b, &a)]);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].pairs(), e.multiply(&a, &b).pairs());
        assert_eq!(batch[1].pairs(), e.multiply(&b, &a).pairs());

        // Masked-product contract: output disjoint from the mask, and
        // masked(a,b,m) ∪ (a×b ∩ m) == a×b.
        let mask = e.from_pairs(5, &[(0, 2), (3, 3)]);
        let masked = e.multiply_masked(&a, &b, &mask);
        assert!(e.intersect(&masked, &mask).pairs().is_empty());
        let product = e.multiply(&a, &b);
        let mut rebuilt = masked.clone();
        e.union_in_place(&mut rebuilt, &e.intersect(&product, &mask));
        assert_eq!(rebuilt.pairs(), product.pairs());
        let masked_batch =
            e.multiply_masked_batch(&[(&a, &b, Some(&mask)), (&a, &b, None), (&b, &a, None)]);
        assert_eq!(masked_batch.len(), 3);
        assert_eq!(masked_batch[0].pairs(), masked.pairs());
        assert_eq!(masked_batch[1].pairs(), product.pairs());
        assert_eq!(masked_batch[2].pairs(), e.multiply(&b, &a).pairs());
    }

    #[test]
    fn all_engines_behave_identically() {
        check_engine(&DenseEngine);
        check_engine(&SparseEngine);
        check_engine(&ParDenseEngine::new(Device::new(3)));
        check_engine(&ParSparseEngine::new(Device::new(3)));
        check_engine(&crate::TiledEngine::serial());
        check_engine(&crate::TiledEngine::new(Device::new(3)));
    }

    #[test]
    fn engine_names() {
        assert_eq!(DenseEngine.name(), "dense");
        assert_eq!(SparseEngine.name(), "sparse");
        assert_eq!(ParDenseEngine::new(Device::new(2)).name(), "dense-par");
        assert_eq!(ParSparseEngine::new(Device::new(2)).name(), "sparse-par");
        assert_eq!(crate::TiledEngine::serial().name(), "tiled");
    }
}

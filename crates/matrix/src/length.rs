//! Length-annotated Boolean matrices — the kernel layer of the paper's
//! single-path semantics (§5).
//!
//! §5 modifies the closure so that every stored cell carries the length
//! of *some* witness path, with a **first-write-wins** discipline ("if
//! some nonterminal A with an associated path length l₁ is in a⁽ᵖ⁾ᵢⱼ
//! then A is not added … with length l₂ for l₂ ≠ l₁"): once a cell is
//! set it is never updated, so the recorded split lengths stay valid
//! forever and Theorem 5's witness extraction terminates. On the matrix
//! level that discipline *is* the masked-kernel contract of the
//! relational pipeline — a product must only ever emit cells the
//! accumulator does not hold yet — so the same dense/CSR × serial/device
//! engine matrix the Boolean kernels live on carries over verbatim:
//!
//! * [`DenseLenMatrix`] — row-major `u32` lengths (the dGPU-style
//!   representation),
//! * [`CsrLenMatrix`] — CSR with a parallel value array (the sCPU/sGPU
//!   representation). It is the storage of [`crate::sparse`],
//!   `Csr<u32>`, and its kernels are the shared ones with a length per
//!   cell: the first-write-wins merge is the row splice (a length is a
//!   `Cell` that never changes once stored), construction the counting
//!   sort, and the masked product the flat loop `Csr::multiply` — each
//!   costs its Δ plus, for the merge, one copy of the accumulator, with a
//!   constant number of allocations per call. What is this module's own
//!   is the length algebra: `LenRow`, the row accumulator whose `⊗` is
//!   `add_len` over operands `≥ 1` and whose `⊕` keeps the first write,
//! * [`TiledLenMatrix`] — the tiled engine's: the 64 × 64 bit tiles of
//!   [`crate::TiledBitMatrix`], each with its lengths in bit-rank order
//!   in one arena per matrix. Its product is the same flat loop with a
//!   tile-row accumulator that writes each cell once, at the smallest
//!   `k`, as the dense and CSR kernels do; its merge splices in only the
//!   tiles a Δ brings and re-lays only the rows it reaches (the `tiled`
//!   submodule),
//! * [`LenEngine`] — the backend abstraction, implemented once, below,
//!   for the same five engine names as [`crate::BoolEngine`]: an engine's
//!   Boolean representation names the length representation it runs on.
//!
//! # The absent sentinel
//!
//! A cell value of [`NO_PATH`] (`u32::MAX`) means *absent*. `0` is a
//! **present** value: the ε-witness of a nullable nonterminal at a
//! diagonal cell `(m, m)` (the empty path `mπm`). Because the weak-CNF
//! grammars the solvers consume are ε-eliminated, every nonempty witness
//! has an ε-free derivation — so the kernels skip length-0 cells as
//! *operands* (composing through an ε-entry can never produce a pair the
//! ε-free closure misses, and skipping keeps every stored split
//! well-founded: a product cell always decomposes into two strictly
//! shorter *nonzero* parts, and a length-1 cell is always a direct
//! edge).

mod tiled;

pub use tiled::TiledLenMatrix;

use crate::engine::{run_batch, traced_kernel};
use crate::repr::{Backend, BoolRepr, LenRepr};
use crate::sparse::{assert_in_range, splice_rows, BitRow, Csr, Report, RowAccumulator, RowCells};

/// The *absent* sentinel of length matrices. Any other value — including
/// `0`, the ε-witness — is a present path length.
pub const NO_PATH: u32 = u32::MAX;

/// Ceiling for stored lengths: additions saturate here so a pathological
/// closure cannot wrap around into [`NO_PATH`].
const MAX_LEN: u32 = u32::MAX - 1;

/// Minimal interface of a length-annotated matrix, mirroring
/// [`crate::BoolMat`] with `Option<u32>` cells (and the same
/// `Send + Sync + 'static` bound — length closures are shared between
/// reader threads by the `cfpq-service` snapshot layer).
pub trait LenMat: Clone + PartialEq + Send + Sync + 'static {
    /// Matrix dimension `n`.
    fn n(&self) -> usize;
    /// The stored length at `(i, j)`, if the cell is present. Total, as
    /// [`crate::BoolMat::get`]: a cell outside the matrix reads absent.
    fn get(&self, i: u32, j: u32) -> Option<u32>;
    /// Number of present cells.
    fn nnz(&self) -> usize;
    /// All present `(row, col)` pairs in row-major order.
    fn pairs(&self) -> Vec<(u32, u32)>;
    /// All present `(row, col, length)` entries in row-major order.
    fn entries(&self) -> Vec<(u32, u32, u32)>;
    /// The present `(col, length)` cells of row `i`, columns ascending,
    /// ε-cells (length 0) included, read off the storage (no allocation
    /// on the CSR form); a row outside the matrix is empty, as
    /// [`LenMat::get`] reads it absent. See [`crate::BoolMat::row_cols`].
    fn row_cells(&self, i: u32) -> impl Iterator<Item = (u32, u32)> + '_;
    /// Heap bytes held, by capacity (see [`crate::BoolMat::bytes`]); the
    /// tiled form counts its arena's dead values too. A cold closure holds
    /// neither dead values nor spare capacity: its solve ends with
    /// [`LenMat::shrink_to_fit`]. A repaired one keeps the headroom its
    /// merges left, which the next repair's merges would otherwise have
    /// to allocate again.
    fn bytes(&self) -> usize;
    /// Drops whatever [`LenMat::bytes`] counts beyond the present cells:
    /// the tiled form's dead arena values, and spare capacity. The cells
    /// and their lengths are unchanged.
    fn shrink_to_fit(&mut self);
}

/// One job of a [`LenEngine::len_multiply_masked_batch`]: operands
/// `(a, b)` plus an optional complement mask.
pub type LenJob<'a, M> = (&'a M, &'a M, Option<&'a M>);

/// A length-matrix backend: representation + execution strategy for the
/// §5 kernels. Implemented by the same five engine types as
/// [`crate::BoolEngine`], so a single generic single-path solver covers
/// the paper's representation × device matrix. Method names carry a
/// `len_` prefix to keep call sites unambiguous on types implementing
/// both traits.
pub trait LenEngine: Send + Sync {
    /// The length-matrix type this engine operates on.
    type LenMatrix: LenMat;

    /// The all-absent matrix of size `n × n`.
    fn len_empty(&self, n: usize) -> Self::LenMatrix;

    /// Builds a matrix from `(row, col, length)` entries;
    /// first-write-wins on duplicate cells.
    fn len_from_entries(&self, n: usize, entries: &[(u32, u32, u32)]) -> Self::LenMatrix;

    /// Writes each entry only where the cell is absent (first-write-wins)
    /// and returns the entries genuinely written, in no particular order.
    fn len_set_absent(
        &self,
        a: &mut Self::LenMatrix,
        entries: &[(u32, u32, u32)],
    ) -> Vec<(u32, u32, u32)>;

    /// The §5 length product: for every present `(i, k, l₁)` of `a` and
    /// `(k, j, l₂)` of `b` with `l₁, l₂ ≥ 1`, the output holds
    /// `(i, j, l₁ + l₂)` — first-write-wins per output cell. Length-0
    /// cells (ε-witnesses) do not act as operands (see the module docs).
    fn len_multiply(&self, a: &Self::LenMatrix, b: &Self::LenMatrix) -> Self::LenMatrix {
        self.len_multiply_masked(a, b, None)
    }

    /// [`LenEngine::len_multiply`] with a complement mask: cells present
    /// in `mask` are never emitted, so with the accumulated closure as
    /// the mask the product materializes exactly the *new* information —
    /// the first-write-wins discipline executed at kernel level.
    fn len_multiply_masked(
        &self,
        a: &Self::LenMatrix,
        b: &Self::LenMatrix,
        mask: Option<&Self::LenMatrix>,
    ) -> Self::LenMatrix;

    /// Computes several independent (optionally masked) products. The
    /// default runs them sequentially; device-backed engines hand each
    /// worker of the pool a run of serial kernels, as
    /// [`crate::BoolEngine::multiply_masked_batch`] does.
    fn len_multiply_masked_batch(
        &self,
        jobs: &[LenJob<'_, Self::LenMatrix>],
    ) -> Vec<Self::LenMatrix> {
        jobs.iter()
            .map(|&(a, b, m)| self.len_multiply_masked(a, b, m))
            .collect()
    }

    /// Merges `add` into `acc` where `acc` is absent (first-write-wins)
    /// and returns the matrix of genuinely-new cells — the Δ of the
    /// semi-naive length closure.
    fn len_merge_absent(&self, acc: &mut Self::LenMatrix, add: &Self::LenMatrix)
        -> Self::LenMatrix;

    /// Grows the matrix to `n × n` (new cells absent). `n` must not
    /// shrink the matrix.
    fn len_grow(&self, a: &mut Self::LenMatrix, n: usize);
}

/// Saturating witness-length addition, kept strictly below [`NO_PATH`].
#[inline]
fn add_len(a: u32, b: u32) -> u32 {
    a.saturating_add(b).min(MAX_LEN)
}

/// The length representation of the engine `B`.
type LenOf<B> = <<B as Backend>::Repr as BoolRepr>::Len;

/// One length product through `kernel`, under the same `"kernel"` span
/// the Boolean products open (`op = "len"`).
fn product<M: LenRepr>(kernel: &mut impl FnMut(LenJob<'_, M>) -> M, job: LenJob<'_, M>) -> M {
    traced_kernel(M::REPR, "len", LenMat::nnz, || (kernel(job), None)).0
}

/// Every engine is a `Backend`, and its length kernels are those of
/// the representation its Boolean one names. A length product is always
/// serial: only a batch meets the device, by the rule of
/// [`crate::BoolEngine::multiply_masked_batch`].
impl<B: Backend> LenEngine for B {
    type LenMatrix = LenOf<B>;

    fn len_empty(&self, n: usize) -> LenOf<B> {
        LenOf::<B>::empty(n)
    }
    fn len_from_entries(&self, n: usize, entries: &[(u32, u32, u32)]) -> LenOf<B> {
        LenOf::<B>::from_entries(n, entries)
    }
    fn len_set_absent(
        &self,
        a: &mut LenOf<B>,
        entries: &[(u32, u32, u32)],
    ) -> Vec<(u32, u32, u32)> {
        a.set_absent(entries)
    }
    fn len_multiply_masked(&self, a: &LenOf<B>, b: &LenOf<B>, mask: Option<&LenOf<B>>) -> LenOf<B> {
        product(&mut LenOf::<B>::kernel(), (a, b, mask))
    }
    fn len_multiply_masked_batch(&self, jobs: &[LenJob<'_, LenOf<B>>]) -> Vec<LenOf<B>> {
        run_batch(self.device(), jobs, |run| {
            let mut kernel = LenOf::<B>::kernel();
            run.iter().map(|&job| product(&mut kernel, job)).collect()
        })
    }
    fn len_merge_absent(&self, acc: &mut LenOf<B>, add: &LenOf<B>) -> LenOf<B> {
        acc.merge_absent(add)
    }
    fn len_grow(&self, a: &mut LenOf<B>, n: usize) {
        a.grow(n)
    }
}

// ---------------------------------------------------------------------------
// Dense representation
// ---------------------------------------------------------------------------

/// A dense `n × n` length matrix stored row-major; [`NO_PATH`] = absent.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DenseLenMatrix {
    n: usize,
    vals: Vec<u32>,
}

impl DenseLenMatrix {
    /// Creates the all-absent matrix of size `n × n`.
    pub fn empty(n: usize) -> Self {
        Self {
            n,
            vals: vec![NO_PATH; n * n],
        }
    }

    /// Builds from `(row, col, length)` entries, first-write-wins.
    ///
    /// # Panics
    ///
    /// If an entry names a row or column `>= n`.
    pub fn from_entries(n: usize, entries: &[(u32, u32, u32)]) -> Self {
        let mut m = Self::empty(n);
        for &(i, j, l) in entries {
            m.set_if_absent(i, j, l);
        }
        m
    }

    /// Wraps a raw row-major value table (cells holding [`NO_PATH`] are
    /// absent). `vals.len()` must be `n × n`. This is the bridge from
    /// flat-table code — e.g. the naive single-path oracle — into the
    /// engine world.
    pub fn from_flat(n: usize, vals: Vec<u32>) -> Self {
        assert_eq!(vals.len(), n * n, "flat table must be n × n");
        Self { n, vals }
    }

    /// Matrix dimension `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Raw cell value ([`NO_PATH`] = absent).
    #[inline]
    pub fn raw(&self, i: u32, j: u32) -> u32 {
        self.vals[i as usize * self.n + j as usize]
    }

    /// The stored length at `(i, j)`, if present; cells outside the
    /// matrix read as absent.
    #[inline]
    pub fn get(&self, i: u32, j: u32) -> Option<u32> {
        if i as usize >= self.n || j as usize >= self.n {
            return None;
        }
        let l = self.raw(i, j);
        (l != NO_PATH).then_some(l)
    }

    /// Writes `(i, j) = l` only if the cell is absent; returns `true` if
    /// it was written.
    ///
    /// # Panics
    ///
    /// If `i` or `j` is `>= n` (a column past the row would otherwise
    /// land in the next one).
    #[inline]
    pub fn set_if_absent(&mut self, i: u32, j: u32, l: u32) -> bool {
        assert_in_range(self.n, (i, j));
        debug_assert!(l != NO_PATH, "NO_PATH is the absent sentinel");
        let cell = &mut self.vals[i as usize * self.n + j as usize];
        if *cell == NO_PATH {
            *cell = l;
            true
        } else {
            false
        }
    }

    /// The values of row `i`.
    #[inline]
    fn row(&self, i: usize) -> &[u32] {
        &self.vals[i * self.n..(i + 1) * self.n]
    }

    /// Number of present cells.
    pub fn nnz(&self) -> usize {
        self.vals.iter().filter(|&&l| l != NO_PATH).count()
    }

    /// Grows to `n × n`, keeping existing cells.
    pub fn grow(&mut self, n: usize) {
        assert!(n >= self.n, "length matrices only grow");
        if n == self.n {
            return;
        }
        let mut vals = vec![NO_PATH; n * n];
        for i in 0..self.n {
            vals[i * n..i * n + self.n].copy_from_slice(self.row(i));
        }
        self.n = n;
        self.vals = vals;
    }
}

impl LenMat for DenseLenMatrix {
    fn n(&self) -> usize {
        self.n
    }
    fn get(&self, i: u32, j: u32) -> Option<u32> {
        DenseLenMatrix::get(self, i, j)
    }
    fn nnz(&self) -> usize {
        DenseLenMatrix::nnz(self)
    }
    fn pairs(&self) -> Vec<(u32, u32)> {
        self.entries().into_iter().map(|(i, j, _)| (i, j)).collect()
    }
    fn entries(&self) -> Vec<(u32, u32, u32)> {
        let mut out = Vec::with_capacity(self.nnz());
        for i in 0..self.n {
            for (j, &l) in self.row(i).iter().enumerate() {
                if l != NO_PATH {
                    out.push((i as u32, j as u32, l));
                }
            }
        }
        out
    }
    fn row_cells(&self, i: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let vals = if (i as usize) < self.n {
            self.row(i as usize)
        } else {
            &[]
        };
        (0u32..)
            .zip(vals.iter().copied())
            .filter(|&(_, l)| l != NO_PATH)
    }
    fn bytes(&self) -> usize {
        self.vals.capacity() * std::mem::size_of::<u32>()
    }
    /// Nothing to drop: every cell is stored, present or not.
    fn shrink_to_fit(&mut self) {}
}

/// Serial dense masked length product.
fn dense_multiply_masked(
    a: &DenseLenMatrix,
    b: &DenseLenMatrix,
    mask: Option<&DenseLenMatrix>,
) -> DenseLenMatrix {
    assert_eq!(a.n, b.n, "dimension mismatch");
    if let Some(m) = mask {
        assert_eq!(a.n, m.n, "mask dimension mismatch");
    }
    let n = a.n;
    let mut out = DenseLenMatrix::empty(n);
    for i in 0..n {
        let arow = a.row(i);
        for (k, &la) in arow.iter().enumerate() {
            if la == NO_PATH || la == 0 {
                continue;
            }
            let brow = b.row(k);
            let orow = &mut out.vals[i * n..(i + 1) * n];
            match mask {
                Some(m) => {
                    let mrow = m.row(i);
                    for j in 0..n {
                        let lb = brow[j];
                        if lb == NO_PATH || lb == 0 || mrow[j] != NO_PATH || orow[j] != NO_PATH {
                            continue;
                        }
                        orow[j] = add_len(la, lb);
                    }
                }
                None => {
                    for j in 0..n {
                        let lb = brow[j];
                        if lb == NO_PATH || lb == 0 || orow[j] != NO_PATH {
                            continue;
                        }
                        orow[j] = add_len(la, lb);
                    }
                }
            }
        }
    }
    out
}

impl LenRepr for DenseLenMatrix {
    const REPR: &'static str = "dense";

    fn empty(n: usize) -> Self {
        Self::empty(n)
    }
    fn from_entries(n: usize, entries: &[(u32, u32, u32)]) -> Self {
        Self::from_entries(n, entries)
    }
    /// The whole batch is range-checked first, so a refused one leaves
    /// `self` as it was.
    fn set_absent(&mut self, entries: &[(u32, u32, u32)]) -> Vec<(u32, u32, u32)> {
        for &(i, j, _) in entries {
            assert_in_range(self.n, (i, j));
        }
        entries
            .iter()
            .filter(|&&(i, j, l)| self.set_if_absent(i, j, l))
            .copied()
            .collect()
    }
    fn merge_absent(&mut self, add: &Self) -> Self {
        assert_eq!(self.n, add.n, "dimension mismatch");
        let mut fresh = DenseLenMatrix::empty(self.n);
        for ((dst, &src), out) in self
            .vals
            .iter_mut()
            .zip(add.vals.iter())
            .zip(fresh.vals.iter_mut())
        {
            if src != NO_PATH && *dst == NO_PATH {
                *dst = src;
                *out = src;
            }
        }
        fresh
    }
    fn grow(&mut self, n: usize) {
        self.grow(n)
    }
    fn kernel() -> impl FnMut(LenJob<'_, Self>) -> Self {
        |(a, b, mask): LenJob<'_, Self>| dense_multiply_masked(a, b, mask)
    }
}

// ---------------------------------------------------------------------------
// CSR representation
// ---------------------------------------------------------------------------

/// An `n × n` length matrix in CSR format: per row, strictly-ascending
/// column indices with a parallel value array.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CsrLenMatrix {
    csr: Csr<u32>,
}

impl CsrLenMatrix {
    /// Creates the all-absent matrix of size `n × n`.
    pub fn empty(n: usize) -> Self {
        Self { csr: Csr::empty(n) }
    }

    /// Builds from `(row, col, length)` entries by counting sort on the
    /// row, first-write-wins on duplicate cells (the first occurrence in
    /// `entries` is kept).
    ///
    /// # Panics
    ///
    /// If an entry names a row or column `>= n`.
    pub fn from_entries(n: usize, entries: &[(u32, u32, u32)]) -> Self {
        debug_assert!(entries.iter().all(|e| e.2 != NO_PATH), "NO_PATH is absent");
        let csr = Csr::from_cells(n, entries.len(), |e| entries[e]);
        Self { csr }
    }

    /// Matrix dimension `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.csr.rows()
    }

    /// `(columns, lengths)` of row `i` (columns ascending).
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[u32]) {
        let r = self.csr.row(i);
        (&self.csr.cols[r.clone()], &self.csr.vals[r])
    }

    /// The stored length at `(i, j)`, if present; cells outside the
    /// matrix read as absent.
    pub fn get(&self, i: u32, j: u32) -> Option<u32> {
        if i as usize >= self.n() {
            return None;
        }
        self.csr.find(i as usize, j).map(|at| self.csr.vals[at])
    }

    /// Number of present cells.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.csr.nnz()
    }

    /// Grows to `n × n`, keeping existing cells (a pure row append).
    pub fn grow(&mut self, n: usize) {
        assert!(n >= self.n(), "length matrices only grow");
        self.csr.grow(n);
    }
}

impl LenMat for CsrLenMatrix {
    fn n(&self) -> usize {
        CsrLenMatrix::n(self)
    }
    fn get(&self, i: u32, j: u32) -> Option<u32> {
        CsrLenMatrix::get(self, i, j)
    }
    fn nnz(&self) -> usize {
        CsrLenMatrix::nnz(self)
    }
    fn pairs(&self) -> Vec<(u32, u32)> {
        self.csr.cells(|i, j, _| (i, j))
    }
    fn entries(&self) -> Vec<(u32, u32, u32)> {
        self.csr.cells(|i, j, l| (i, j, l))
    }
    fn row_cells(&self, i: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let (cols, vals) = if (i as usize) < self.n() {
            self.row(i as usize)
        } else {
            (&[][..], &[][..])
        };
        cols.iter().copied().zip(vals.iter().copied())
    }
    fn bytes(&self) -> usize {
        self.csr.bytes()
    }
    fn shrink_to_fit(&mut self) {
        self.csr.shrink();
    }
}

/// A reusable accumulator for one output row of the CSR length product:
/// a dense value buffer ([`NO_PATH`]-initialized) with the occupied
/// columns as a [`BitRow`], so a drain sorts the 64-column words the row
/// touched instead of its columns.
#[derive(Default)]
struct LenRow {
    vals: Vec<u32>,
    occupied: BitRow,
}

impl LenRow {
    /// First-write-wins store of `l` at column `j`.
    #[inline]
    fn set(&mut self, j: u32, l: u32) {
        let cell = &mut self.vals[j as usize];
        if *cell == NO_PATH {
            *cell = l;
            self.occupied.set(j);
        }
    }
}

impl RowAccumulator<u32> for LenRow {
    fn fit(&mut self, n: usize) {
        if self.vals.len() < n {
            self.vals.resize(n, NO_PATH);
        }
        self.occupied.fit(n);
    }

    /// `left + l` at every column the row holds an `l ≥ 1` at; an
    /// ε-witness composes on neither side (see the module docs).
    #[inline]
    fn add(
        &mut self,
        &left: &u32,
        _i: usize,
        _k: u32,
        _row_len: usize,
        cols: &[u32],
        vals: &[u32],
    ) {
        if left == 0 {
            return;
        }
        for (&j, &l) in cols.iter().zip(vals) {
            if l != 0 {
                self.set(j, add_len(left, l));
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.occupied.is_empty()
    }

    /// `occupied` keeps the masked columns and the drain skips them.
    fn drain_into(&mut self, mask: Option<RowCells<'_, u32>>, out: &mut Csr<u32>) {
        for &j in mask.map_or(&[][..], |(cols, _)| cols) {
            self.vals[j as usize] = NO_PATH;
        }
        let vals = &mut self.vals;
        self.occupied.drain(|j| {
            let l = std::mem::replace(&mut vals[j as usize], NO_PATH);
            if l != NO_PATH {
                out.push(j, l);
            }
        });
    }
}

impl LenRepr for CsrLenMatrix {
    const REPR: &'static str = "csr";

    fn empty(n: usize) -> Self {
        Self::empty(n)
    }
    fn from_entries(n: usize, entries: &[(u32, u32, u32)]) -> Self {
        Self::from_entries(n, entries)
    }
    /// First-write-wins merge as one flat splice ([`splice_rows`]):
    /// `self` is copied in contiguous runs around the cells `add` brings,
    /// and those cells are the returned Δ. `self` keeps its storage if
    /// nothing is new.
    fn merge_absent(&mut self, add: &Self) -> Self {
        let (merged, fresh) = splice_rows(&self.csr, &add.csr, true, Some(Report::Absent));
        if let Some(merged) = merged {
            self.csr = merged;
        }
        let csr = fresh.expect("a report was asked for");
        CsrLenMatrix { csr }
    }
    fn grow(&mut self, n: usize) {
        self.grow(n)
    }
    /// One row accumulator for the run, through the flat product the
    /// Boolean CSR kernels use (`Csr::multiply`): like them, a row pays
    /// for its mask row only if it received a candidate.
    fn kernel() -> impl FnMut(LenJob<'_, Self>) -> Self {
        let mut acc = LenRow::default();
        move |(a, b, mask): LenJob<'_, Self>| {
            let (csr, _) = a.csr.multiply(&b.csr, mask.map(|m| &m.csr), &mut acc);
            CsrLenMatrix { csr }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn dense(entries: &[(u32, u32, u32)], n: usize) -> DenseLenMatrix {
        DenseLenMatrix::from_entries(n, entries)
    }
    fn csr(entries: &[(u32, u32, u32)], n: usize) -> CsrLenMatrix {
        CsrLenMatrix::from_entries(n, entries)
    }

    #[test]
    fn zero_is_present_and_max_is_absent() {
        let d = dense(&[(0, 0, 0), (1, 2, 5)], 3);
        assert_eq!(d.get(0, 0), Some(0));
        assert_eq!(d.get(1, 2), Some(5));
        assert_eq!(d.get(2, 2), None);
        assert_eq!(d.nnz(), 2);
        let s = csr(&[(0, 0, 0), (1, 2, 5)], 3);
        assert_eq!(s.get(0, 0), Some(0));
        assert_eq!(s.get(1, 2), Some(5));
        assert_eq!(s.get(2, 2), None);
        assert_eq!(LenMat::entries(&d), LenMat::entries(&s));
    }

    #[test]
    fn from_entries_is_first_write_wins() {
        let d = dense(&[(1, 1, 3), (1, 1, 9)], 2);
        assert_eq!(d.get(1, 1), Some(3));
        let s = csr(&[(1, 1, 3), (1, 1, 9)], 2);
        assert_eq!(s.get(1, 1), Some(3));
    }

    /// `row_cells` is `entries()` row by row, and a row or cell past `n`
    /// is empty: `get` is total.
    fn check_rows<M: LenMat>(m: &M) {
        let n = m.n() as u32;
        let rows: Vec<(u32, u32, u32)> = (0..n)
            .flat_map(|i| m.row_cells(i).map(move |(j, l)| (i, j, l)))
            .collect();
        assert_eq!(rows, m.entries());
        assert_eq!(m.row_cells(n).count(), 0);
        assert_eq!(m.row_cells(u32::MAX).count(), 0);
        for (i, j) in [(n, 0), (0, n), (u32::MAX, u32::MAX)] {
            assert_eq!(m.get(i, j), None);
        }
    }

    /// Drives every method of the engine's length half; returns the
    /// entries of every product it made, in order.
    pub(crate) fn check_engine<E: LenEngine>(e: &E) -> Vec<Vec<(u32, u32, u32)>> {
        // Path composition: (0,1,2) · (1,2,3) → (0,2,5).
        let a = e.len_from_entries(4, &[(0, 1, 2), (3, 3, 1)]);
        let b = e.len_from_entries(4, &[(1, 2, 3), (3, 3, 1)]);
        let c = e.len_multiply(&a, &b);
        assert_eq!(c.entries(), vec![(0, 2, 5), (3, 3, 2)]);

        // ε-operands (length 0) never compose, and a row keeps them.
        let eps = e.len_from_entries(4, &[(0, 0, 0), (0, 2, 4), (1, 1, 0)]);
        let (eps_left, eps_right) = (e.len_multiply(&eps, &b), e.len_multiply(&a, &eps));
        assert_eq!(eps_left.nnz(), 0);
        assert_eq!(eps_right.nnz(), 0);
        assert_eq!(eps.row_cells(0).collect::<Vec<_>>(), [(0, 0), (2, 4)]);

        // Masking suppresses known cells.
        let mask = e.len_from_entries(4, &[(0, 2, 7)]);
        let masked = e.len_multiply_masked(&a, &b, Some(&mask));
        assert_eq!(masked.entries(), vec![(3, 3, 2)]);

        // merge_absent: first write wins, fresh cells reported.
        let mut acc = e.len_from_entries(4, &[(0, 2, 7)]);
        let fresh = e.len_merge_absent(&mut acc, &c);
        assert_eq!(fresh.entries(), vec![(3, 3, 2)]);
        assert_eq!(acc.get(0, 2), Some(7), "existing length is never updated");
        assert_eq!(acc.get(3, 3), Some(2));
        let none = e.len_merge_absent(&mut acc, &c);
        assert_eq!(none.nnz(), 0, "second merge adds nothing");

        // bytes counts the storage by capacity: never less than the
        // cells it holds, and it grows with them.
        let before = acc.bytes();
        assert!(before >= acc.nnz() * std::mem::size_of::<u32>());

        // set_absent mirrors merge_absent for explicit entries.
        let written = e.len_set_absent(&mut acc, &[(0, 2, 1), (2, 0, 4), (2, 0, 9)]);
        assert_eq!(written, vec![(2, 0, 4)]);
        assert_eq!(acc.get(0, 2), Some(7));
        assert_eq!(acc.get(2, 0), Some(4));
        assert!(acc.bytes() >= before);

        // grow keeps cells and extends the universe.
        let mut g = e.len_from_entries(2, &[(0, 1, 1), (1, 1, 2)]);
        e.len_grow(&mut g, 5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.get(0, 1), Some(1));
        assert_eq!(g.get(4, 4), None);
        let grown_b = e.len_from_entries(5, &[(1, 4, 3)]);
        let grown = e.len_multiply(&g, &grown_b);
        assert_eq!(grown.entries(), vec![(0, 4, 4), (1, 4, 5)]);

        // Batch == per-job results.
        let batch = e.len_multiply_masked_batch(&[(&a, &b, Some(&mask)), (&a, &b, None)]);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].entries(), masked.entries());
        assert_eq!(batch[1].entries(), c.entries());

        let empty = e.len_empty(0);
        for built in [
            &a, &b, &eps, &mask, &acc, &fresh, &none, &g, &grown_b, &empty,
        ] {
            check_rows(built);
        }
        [c, eps_left, eps_right, masked, grown]
            .iter()
            .chain(&batch)
            .inspect(|product| check_rows(*product))
            .map(LenMat::entries)
            .collect()
    }

    #[test]
    fn dense_and_csr_products_agree_on_random_matrices() {
        let n = 60usize;
        let mut state = 0x5EED_0123u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        let mut entries_a = Vec::new();
        let mut entries_b = Vec::new();
        let mut entries_m = Vec::new();
        for _ in 0..300 {
            entries_a.push((next() % n as u32, next() % n as u32, 1 + next() % 9));
            entries_b.push((next() % n as u32, next() % n as u32, 1 + next() % 9));
            entries_m.push((next() % n as u32, next() % n as u32, 1 + next() % 9));
        }
        let (da, db, dm) = (
            dense(&entries_a, n),
            dense(&entries_b, n),
            dense(&entries_m, n),
        );
        let (sa, sb, sm) = (csr(&entries_a, n), csr(&entries_b, n), csr(&entries_m, n));
        // Both kernels scan k in ascending order (dense scans the full
        // row, CSR scans the stored columns), so even the chosen lengths
        // coincide — assert full entry equality, not just pair sets.
        let mut csr_multiply_masked = CsrLenMatrix::kernel();
        let sp = [(&sa, &sb, Some(&sm)), (&sa, &sb, None)].map(&mut csr_multiply_masked);
        let dp = dense_multiply_masked(&da, &db, Some(&dm));
        assert_eq!(LenMat::entries(&dp), LenMat::entries(&sp[0]));
        let dp = dense_multiply_masked(&da, &db, None);
        assert_eq!(LenMat::entries(&dp), LenMat::entries(&sp[1]));
    }

    #[test]
    fn lengths_saturate_instead_of_wrapping_into_the_sentinel() {
        let a = dense(&[(0, 1, MAX_LEN)], 2);
        let b = dense(&[(1, 0, MAX_LEN)], 2);
        let c = dense_multiply_masked(&a, &b, None);
        assert_eq!(c.get(0, 0), Some(MAX_LEN), "saturated, still present");
    }

    #[test]
    fn bytes_count_the_buffers_by_capacity() {
        assert_eq!(LenMat::bytes(&dense(&[(0, 1, 2)], 10)), 10 * 10 * 4);
        let s = csr(&[(0, 1, 2), (3, 3, 1)], 10);
        // Eleven row ends, two columns and two lengths.
        assert_eq!(
            LenMat::bytes(&s),
            11 * std::mem::size_of::<usize>() + 2 * 4 + 2 * 4
        );
    }

    #[test]
    fn grow_is_a_row_append_for_csr() {
        let mut m = csr(&[(0, 1, 2), (2, 0, 1)], 3);
        m.grow(6);
        assert_eq!(m.n(), 6);
        assert_eq!(m.get(2, 0), Some(1));
        assert_eq!(m.get(5, 5), None);
        assert_eq!(m.nnz(), 2);
    }
}

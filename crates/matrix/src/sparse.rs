//! Sparse Boolean matrices in CSR (compressed sparse row) format, and
//! the CSR storage, row splice and flat product the other sparse matrix
//! types share with them.
//!
//! CSR is the representation behind the paper's best-performing
//! implementations (sCPU and sGPU use "CSR format for sparse matrix
//! representation"). The crate keeps the layout once, `Csr<V>` —
//! `row_ptr`, `cols` and one value per stored cell — under [`CsrMatrix`]
//! (`V = ()`), [`crate::CsrLenMatrix`] (a length),
//! [`crate::TiledBitMatrix`] (a 64 × 64 bit tile; its rows are
//! tile-rows) and [`crate::TiledLenMatrix`] (a tile and where each of
//! its rows keeps its lengths). A sweep of the solvers meets each with a small Δ on one
//! side and a large closure on the other, so every shared operation is
//! one flat pass over the cells of the side it iterates plus one bulk
//! write of the result's row pointers, with a constant number of
//! allocations per call and none per row:
//!
//! * the set operations (`union_in_place`, `insert_pairs`, `difference`,
//!   `intersect`, the first-write-wins merge of [`crate::length`]) are
//!   one routine, `splice_rows`: it looks each cell of one operand up in
//!   the other's row and copies what lies in between — whole runs of
//!   untouched rows included — as contiguous blocks. Where both operands
//!   store a cell the value's `Cell` implementation decides: nothing to
//!   do for a bit or a length, OR, AND-NOT and AND for a tile (a length
//!   tile's lengths are then re-laid by its own merge). A union whose
//!   every cell lands on a stored one skips the splice and absorbs them
//!   where they are: it costs the cells it brings, not the closure;
//! * construction of the two flat types is a counting sort by row,
//!   `Csr::from_cells`, which is where a cell outside the matrix is
//!   refused (`assert_in_range`, as on every other write path);
//! * the product of all four is one loop, `Csr::multiply`, flat over the
//!   left operand's cells and masked lazily, a whole product per call on
//!   the calling thread (a device runs whole products side by side, never
//!   part of one); the cell type brings its
//!   `RowAccumulator` — a dense bitset here, a table of lengths (`⊗` =
//!   saturating add, `⊕` = first write) in [`crate::length`], a row of
//!   tiles in [`crate::tiled`], where a pair of cells is a 64 × 64
//!   product through one of two kernels picked from popcounts rather
//!   than a `⊗` of two scalars, and a row of length tiles, which reads
//!   the mask as it opens each output tile so that it writes no masked
//!   cell.

use crate::engine::MaskedJob;
use crate::length::CsrLenMatrix;
use crate::repr::BoolRepr;
use std::ops::Range;

/// The shared storage (see the module docs). Columns are strictly
/// ascending within a row and `vals` is as long as `cols` — as a
/// `Vec<()>` it stores nothing.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct Csr<V> {
    /// `row_ptr[i] .. row_ptr[i+1]` indexes `cols` and `vals` for row `i`.
    pub row_ptr: Vec<usize>,
    pub cols: Vec<u32>,
    pub vals: Vec<V>,
}

impl<V: Copy> Csr<V> {
    /// `rows` empty rows.
    pub fn empty(rows: usize) -> Self {
        Self {
            row_ptr: vec![0; rows + 1],
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// No row yet, with room for `rows` of them and `nnz` cells: what a
    /// flat pass appends its cells and row ends to.
    pub fn with_capacity(rows: usize, nnz: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0);
        Self {
            row_ptr,
            cols: Vec::with_capacity(nnz),
            vals: Vec::with_capacity(nnz),
        }
    }

    /// Counting sort of `len` cells by row: `cell(e)` is the
    /// `(row, col, value)` of input entry `e`. Each row is then ordered
    /// by column and cut to the first input entry of every cell (first
    /// write wins).
    ///
    /// # Panics
    ///
    /// If a cell names a row or column `>= n`.
    pub fn from_cells(n: usize, len: usize, cell: impl Fn(usize) -> (u32, u32, V)) -> Self {
        let mut row_ptr = vec![0usize; n + 1];
        for e in 0..len {
            let (i, j, _) = cell(e);
            assert_in_range(n, (i, j));
            row_ptr[i as usize + 1] += 1;
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        // Scatter with `row_ptr[i]` as row i's write cursor; afterwards it
        // holds the row's end, i.e. the next row's start.
        let mut order = vec![0usize; len];
        for e in 0..len {
            let cursor = &mut row_ptr[cell(e).0 as usize];
            order[*cursor] = e;
            *cursor += 1;
        }
        let (mut start, mut kept) = (0, 0);
        for slot in row_ptr.iter_mut().take(n) {
            let end = std::mem::replace(slot, kept);
            order[start..end].sort_unstable_by_key(|&e| (cell(e).1, e));
            let mut last = None;
            for at in start..end {
                let e = order[at];
                if last.replace(cell(e).1) != Some(cell(e).1) {
                    order[kept] = e;
                    kept += 1;
                }
            }
            start = end;
        }
        row_ptr[n] = kept;
        order.truncate(kept);
        Self {
            row_ptr,
            cols: order.iter().map(|&e| cell(e).1).collect(),
            vals: order.iter().map(|&e| cell(e).2).collect(),
        }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of stored cells.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Heap bytes of the three buffers, by capacity.
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.row_ptr.capacity() * size_of::<usize>()
            + self.cols.capacity() * size_of::<u32>()
            + self.vals.capacity() * size_of::<V>()
    }

    /// Where row `i` lies in `cols` and `vals`.
    #[inline]
    pub fn row(&self, i: usize) -> Range<usize> {
        self.row_ptr[i]..self.row_ptr[i + 1]
    }

    /// The rows that store a cell, ascending: a run of empty rows costs
    /// one gallop over its row ends, not a step per row.
    pub fn occupied_rows(&self) -> impl Iterator<Item = usize> + '_ {
        let mut next = 0;
        std::iter::from_fn(move || {
            // `e`, the first cell not yet visited, starts row `next` or
            // the first row after it that stores anything.
            let e = self.row_ptr[next];
            if e == self.nnz() {
                return None;
            }
            let row = gallop(&self.row_ptr[1..], next, |&end| end <= e);
            next = row + 1;
            Some(row)
        })
    }

    /// `cell(row, col, value)` of every stored cell in row-major order.
    pub fn cells<T>(&self, cell: impl Fn(u32, u32, V) -> T) -> Vec<T> {
        let mut out = Vec::with_capacity(self.nnz());
        for i in 0..self.rows() {
            let row = self.row(i);
            out.extend(row.map(|at| cell(i as u32, self.cols[at], self.vals[at])));
        }
        out
    }

    /// Where cell `(i, col)` is stored, by binary search of row `i`.
    pub fn find(&self, i: usize, col: u32) -> Option<usize> {
        let row = self.row(i);
        let at = self.cols[row.clone()].binary_search(&col).ok()?;
        Some(row.start + at)
    }

    /// Appends empty rows up to `rows` of them: a pure row-pointer
    /// append, the stored cells stay where they are.
    pub fn grow(&mut self, rows: usize) {
        let last = *self.row_ptr.last().expect("row_ptr nonempty");
        self.row_ptr.resize(rows + 1, last);
    }

    #[inline]
    pub fn push(&mut self, col: u32, val: V) {
        self.cols.push(col);
        self.vals.push(val);
    }

    /// Appends the cells `range` of `src` as one contiguous copy.
    fn extend(&mut self, src: &Self, range: Range<usize>) {
        self.cols.extend_from_slice(&src.cols[range.clone()]);
        self.vals.extend_from_slice(&src.vals[range]);
    }

    /// Gives back the capacity reserved for cells or rows that never
    /// came, so that [`Csr::bytes`] is the exact footprint.
    pub(crate) fn shrink(&mut self) {
        self.row_ptr.shrink_to_fit();
        self.cols.shrink_to_fit();
        self.vals.shrink_to_fit();
    }
}

/// What [`splice_rows`] does where both operands store the same
/// `(row, col)`. The defaults are a cell that is simply there or not — a
/// bit, or a first-write-wins length, which the accumulator's value
/// always survives; a tile ([`crate::tiled`]) combines word by word.
pub(crate) trait Cell: Copy {
    /// `self ∪= other`; returns whether `self` grew.
    fn absorb(&mut self, _other: &Self) -> bool {
        false
    }

    /// What of `self` is absent from `other` — `None` if nothing is, so
    /// an empty value is never stored.
    fn minus(&self, _other: &Self) -> Option<Self> {
        None
    }

    /// What of `self` is present in `other`; `None` as for `minus`.
    fn meet(&self, _other: &Self) -> Option<Self> {
        Some(*self)
    }
}

impl Cell for () {}
impl Cell for u32 {}

impl<V: Cell> Csr<V> {
    /// `self ∪= other`; returns `true` if anything was added. While every
    /// cell of `other` lands on a cell `self` stores, it is absorbed where
    /// it lands: a union that brings no new cell — for tiles, no new tile,
    /// however many bits — writes in place and allocates nothing. The
    /// first cell `self` lacks sends the rest to one flat splice, which
    /// re-reads the cells absorbed so far as `self`'s own.
    #[inline(always)]
    pub fn union_in_place(&mut self, other: &Self) -> bool {
        if let Some(grew) = self.absorb_stored(other) {
            return grew;
        }
        let (merged, _) = splice_rows(self, other, true, None);
        *self = merged.expect("a cell `self` lacks is inserted");
        true
    }

    /// Absorbs the cells of `other`, in storage order, into the cells of
    /// `self` at the same places, and returns whether any grew — or
    /// `None` at the first cell `self` does not store. One gallop per row
    /// of `other`, forward from the previous hit, as in [`splice_rows`].
    #[inline(always)]
    fn absorb_stored(&mut self, other: &Self) -> Option<bool> {
        assert_eq!(self.rows(), other.rows(), "dimension mismatch");
        let (mut row, mut at, mut grew) = (0, 0, false);
        for (e, (&col, val)) in other.cols.iter().zip(&other.vals).enumerate() {
            if other.row_ptr[row + 1] <= e {
                row = row_of(&other.row_ptr, row, e);
                at = self.row_ptr[row];
            }
            let end = self.row_ptr[row + 1];
            at = gallop(&self.cols[..end], at, |&c| c < col);
            if at == end || self.cols[at] != col {
                return None;
            }
            grew |= self.vals[at].absorb(val);
        }
        Some(grew)
    }

    /// `self \ other`; never reads `other` outside the rows `self` fills.
    #[inline(always)]
    pub fn difference(&self, other: &Self) -> Self {
        let (_, absent) = splice_rows(other, self, false, Some(Report::Absent));
        absent.expect("a report was asked for")
    }

    /// `self ∩ other`; never reads `other` outside the rows `self` fills.
    #[inline(always)]
    pub fn intersect(&self, other: &Self) -> Self {
        let (_, present) = splice_rows(other, self, false, Some(Report::Present));
        present.expect("a report was asked for")
    }
}

/// The write paths' range check, made before anything is stored: a cell
/// outside the matrix would index past a row table at some later read,
/// alias a dense row's padding or neighbour, or leave a bit where tiled
/// `grow` relies on zeros.
#[inline]
pub(crate) fn assert_in_range(n: usize, (i, j): (u32, u32)) {
    assert!(
        (i as usize) < n && (j as usize) < n,
        "pair ({i}, {j}) is outside the {n} × {n} matrix"
    );
}

/// `from + sorted[from..].partition_point(pred)`, found in doubling
/// steps from `from`. The flat passes below only ever search forward
/// from their previous answer, so this costs O(log distance): one probe
/// when rows or columns are dense, a binary search when they are sparse.
#[inline(always)]
pub(crate) fn gallop<T>(sorted: &[T], from: usize, pred: impl Fn(&T) -> bool) -> usize {
    let (mut lo, mut step) = (from, 1);
    while lo + step <= sorted.len() && pred(&sorted[lo + step - 1]) {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step - 1).min(sorted.len());
    lo + sorted[lo..hi].partition_point(pred)
}

/// The row holding flat entry `e`, searched forward from `row`, whose own
/// entries end at or before `e`.
#[inline(always)]
pub(crate) fn row_of(row_ptr: &[usize], row: usize, e: usize) -> usize {
    gallop(&row_ptr[1..], row + 1, |&end| end <= e)
}

/// Which part of `b` [`splice_rows`] reports on its own: what is absent
/// from `a` (`b \ a`) or what is present in it (`b ∩ a`).
#[derive(Clone, Copy)]
pub(crate) enum Report {
    Absent,
    Present,
}

/// The row splice behind every set operation of the three CSR-stored
/// matrix types. One flat pass over the cells of `b` looks each up in
/// the same row of `a` (binary search from the previous hit on) and
/// writes up to two flat results:
///
/// * with `merge`, `a ∪ b` — cells of `a` between two writes, and whole
///   runs of rows `b` leaves empty, are one contiguous copy; a cell only
///   `b` holds is inserted, and one both hold is rewritten only if
///   [`Cell::absorb`] says `a`'s value grew. `None`, with nothing
///   allocated, if `b` adds nothing, so the caller keeps its storage;
/// * with `report`, the part of `b` absent from (or present in) `a`:
///   `b`'s value where `a` has no such cell, [`Cell::minus`] (or
///   [`Cell::meet`]) of the two where it has.
///
/// The cost is O(nnz(b) · log(row of a)) plus one bulk write of each
/// result's row pointers and, with `merge`, the copy of `a`; only
/// `merge` ever reads `a` outside the rows `b` fills.
#[inline(always)]
pub(crate) fn splice_rows<V: Cell>(
    a: &Csr<V>,
    b: &Csr<V>,
    merge: bool,
    report: Option<Report>,
) -> (Option<Csr<V>>, Option<Csr<V>>) {
    assert_eq!(a.rows(), b.rows(), "dimension mismatch");
    let n = a.rows();
    let mut merged: Option<Csr<V>> = None;
    let mut reported = report.map(|_| Csr::with_capacity(n, b.nnz()));
    // Cells of `a` already copied into `merged` or rewritten there; the
    // rest is flushed lazily, right before the next write.
    let mut copied = 0;
    // Writes the row ends of `rows`, none of which gets another cell:
    // in `merged` they are `a`'s, shifted by the insertions so far.
    let close = |merged: &mut Option<Csr<V>>,
                 reported: &mut Option<Csr<V>>,
                 copied: usize,
                 rows: Range<usize>| {
        if let Some(m) = merged {
            let inserted = m.nnz() - copied;
            let ends = &a.row_ptr[rows.start + 1..=rows.end];
            m.row_ptr.extend(ends.iter().map(|&end| end + inserted));
        }
        if let Some(r) = reported {
            r.row_ptr.resize(r.row_ptr.len() + rows.len(), r.nnz());
        }
    };
    // `row` is the row of `b`'s current cell, `at` the cursor in `a`'s.
    let (mut row, mut at) = (0, 0);
    for (e, (&col, val)) in b.cols.iter().zip(&b.vals).enumerate() {
        if b.row_ptr[row + 1] <= e {
            let next = row_of(&b.row_ptr, row, e);
            close(&mut merged, &mut reported, copied, row..next);
            (row, at) = (next, a.row_ptr[next]);
        }
        let a_end = a.row_ptr[row + 1];
        at = gallop(&a.cols[..a_end], at, |&c| c < col);
        let held = (at < a_end && a.cols[at] == col).then(|| &a.vals[at]);
        if merge {
            // What the union stores here, unless that is `a`'s own value.
            let write = match held {
                None => Some(*val),
                Some(held) => {
                    let mut grown = *held;
                    grown.absorb(val).then_some(grown)
                }
            };
            if let Some(write) = write {
                // Up to its first write the union is `a` itself.
                let m = merged.get_or_insert_with(|| {
                    let mut m = Csr::with_capacity(n, a.nnz() + b.nnz());
                    m.row_ptr.extend_from_slice(&a.row_ptr[1..=row]);
                    m
                });
                m.extend(a, copied..at);
                m.push(col, write);
                copied = at + usize::from(held.is_some());
            }
        }
        if let (Some(r), Some(report)) = (&mut reported, report) {
            let part = match (held, report) {
                (None, Report::Absent) => Some(*val),
                (None, Report::Present) => None,
                (Some(held), Report::Absent) => val.minus(held),
                (Some(held), Report::Present) => val.meet(held),
            };
            if let Some(part) = part {
                r.push(col, part);
            }
        }
    }
    close(&mut merged, &mut reported, copied, row..n);
    let merged = merged.map(|mut m| {
        m.extend(a, copied..a.nnz());
        m.shrink();
        m
    });
    let reported = reported.map(|mut r| {
        r.shrink();
        r
    });
    (merged, reported)
}

/// An `n × n` Boolean matrix in CSR format; column indices per row are
/// strictly ascending.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CsrMatrix {
    csr: Csr<()>,
}

impl CsrMatrix {
    /// Creates the zero matrix of size `n × n`.
    pub fn zeros(n: usize) -> Self {
        Self { csr: Csr::empty(n) }
    }

    /// Creates the identity matrix of size `n × n`.
    pub fn identity(n: usize) -> Self {
        let diagonal: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, i)).collect();
        Self::from_pairs(n, &diagonal)
    }

    /// Builds a matrix from `(row, col)` pairs (duplicates allowed) by
    /// counting sort on the row.
    ///
    /// # Panics
    ///
    /// If a pair names a row or column `>= n`.
    pub fn from_pairs(n: usize, pairs: &[(u32, u32)]) -> Self {
        let csr = Csr::from_cells(n, pairs.len(), |e| (pairs[e].0, pairs[e].1, ()));
        Self { csr }
    }

    /// Matrix dimension `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.csr.rows()
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.csr.nnz()
    }

    /// Heap bytes of the row pointers and columns, by capacity.
    pub fn bytes(&self) -> usize {
        self.csr.bytes()
    }

    /// Column indices of row `i` (ascending).
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.csr.cols[self.csr.row(i)]
    }

    /// Reads bit `(i, j)` by binary search; cells outside the matrix
    /// read as unset.
    pub fn get(&self, i: u32, j: u32) -> bool {
        (i as usize) < self.n() && self.csr.find(i as usize, j).is_some()
    }

    /// All set `(row, col)` pairs in row-major order.
    pub fn pairs(&self) -> Vec<(u32, u32)> {
        self.csr.cells(|i, j, ()| (i, j))
    }

    /// True if no entry is stored.
    pub fn is_zero(&self) -> bool {
        self.csr.cols.is_empty()
    }

    /// `self |= other` as one flat splice (see `splice_rows`: runs of
    /// rows `other` leaves empty are one contiguous copy); returns `true`
    /// if any entry was added, and leaves the storage untouched if not.
    pub fn union_in_place(&mut self, other: &CsrMatrix) -> bool {
        self.csr.union_in_place(&other.csr)
    }

    /// Merges `pairs` into the matrix in place; returns `true` if any
    /// entry was newly stored. This is the point-update path behind
    /// `BoolEngine::union_pairs` (a `GraphIndex` absorbing an edge
    /// batch): already-present pairs are filtered first — a no-op batch
    /// costs only the membership probes — and the rest is spliced in
    /// like any other union.
    ///
    /// # Panics
    ///
    /// If a pair names a row or column `>= n`; the matrix is unchanged.
    pub fn insert_pairs(&mut self, pairs: &[(u32, u32)]) -> bool {
        let fresh: Vec<(u32, u32)> = pairs
            .iter()
            .copied()
            .filter(|&(i, j)| !self.get(i, j))
            .collect();
        !fresh.is_empty() && self.union_in_place(&Self::from_pairs(self.n(), &fresh))
    }

    /// `self \ other` — entries of `self` absent from `other`; never
    /// reads `other` outside the rows `self` fills.
    pub fn difference(&self, other: &CsrMatrix) -> CsrMatrix {
        let csr = self.csr.difference(&other.csr);
        Self { csr }
    }

    /// `self ∩ other` — entries of `self` present in `other`; never
    /// reads `other` outside the rows `self` fills.
    pub fn intersect(&self, other: &CsrMatrix) -> CsrMatrix {
        let csr = self.csr.intersect(&other.csr);
        Self { csr }
    }

    /// Boolean SpGEMM `self × other` (serial). Output rows are drained
    /// straight into the flat CSR `row_ptr`/`cols` arrays — no
    /// intermediate per-row `Vec` allocations.
    pub fn multiply(&self, other: &CsrMatrix) -> CsrMatrix {
        self.multiply_masked_opt(other, None)
    }

    /// Masked Boolean SpGEMM `(self × other) \ mask`: each output row is
    /// accumulated, the mask row is subtracted from it if (and only if)
    /// anything was accumulated, and what is left is drained — so the
    /// output contains only *new* entries and is always disjoint from
    /// `mask`.
    ///
    /// This is the kernel behind the masked semi-naive fixpoint, where
    /// `mask` is the accumulated closure matrix.
    ///
    /// ```
    /// use cfpq_matrix::CsrMatrix;
    /// let a = CsrMatrix::from_pairs(3, &[(0, 1), (1, 1)]);
    /// let b = CsrMatrix::from_pairs(3, &[(1, 2)]);
    /// let mask = CsrMatrix::from_pairs(3, &[(0, 2)]);
    /// assert_eq!(a.multiply_masked(&b, &mask).pairs(), vec![(1, 2)]);
    /// ```
    pub fn multiply_masked(&self, other: &CsrMatrix, mask: &CsrMatrix) -> CsrMatrix {
        self.multiply_masked_opt(other, Some(mask))
    }

    /// The product entry point, `(self × other) \ mask?`, on the calling
    /// thread.
    pub fn multiply_masked_opt(&self, other: &CsrMatrix, mask: Option<&CsrMatrix>) -> CsrMatrix {
        self.product(other, mask, &mut BitRow::default())
    }

    /// [`CsrMatrix::multiply_masked_opt`] on a caller-owned accumulator,
    /// which the product uses and leaves clean for the next.
    fn product(&self, other: &CsrMatrix, mask: Option<&CsrMatrix>, acc: &mut BitRow) -> CsrMatrix {
        let mask = mask.map(|m| &m.csr);
        let (csr, _) = self.csr.multiply(&other.csr, mask, acc);
        Self { csr }
    }

    /// Grows the matrix to `n × n`, keeping existing entries (a pure
    /// row-pointer append — new rows are empty, and existing column
    /// indices stay valid in the wider universe). `n` must not shrink
    /// the matrix.
    pub fn grow(&mut self, n: usize) {
        assert!(n >= self.n(), "Boolean matrices only grow");
        self.csr.grow(n);
    }

    /// Transposed copy.
    pub fn transpose(&self) -> CsrMatrix {
        Self::from_pairs(self.n(), &self.csr.cells(|i, j, ()| (j, i)))
    }
}

impl BoolRepr for CsrMatrix {
    const REPR: &'static str = "csr";
    const ON_DEVICE: &'static str = "sparse-par";
    type Len = CsrLenMatrix;

    fn zeros(n: usize) -> Self {
        Self::zeros(n)
    }
    fn from_pairs(n: usize, pairs: &[(u32, u32)]) -> Self {
        Self::from_pairs(n, pairs)
    }
    fn union_in_place(&mut self, other: &Self) -> bool {
        self.union_in_place(other)
    }
    fn insert_pairs(&mut self, pairs: &[(u32, u32)]) -> bool {
        self.insert_pairs(pairs)
    }
    fn grow(&mut self, n: usize) {
        self.grow(n)
    }
    fn difference(&self, other: &Self) -> Self {
        self.difference(other)
    }
    fn intersect(&self, other: &Self) -> Self {
        self.intersect(other)
    }
    /// One row accumulator for the run.
    fn kernel() -> impl FnMut(MaskedJob<'_, Self>) -> (Self, Option<u64>) {
        let mut acc = BitRow::default();
        move |(a, b, mask): MaskedJob<'_, Self>| (a.product(b, mask, &mut acc), None)
    }
}

/// One output row of the flat product while it is accumulated — the part
/// of that product that is the cell type's own: a bitset for bits
/// ([`BitRow`]), a table of first-write-wins lengths in
/// [`crate::length`], a row of 64 × 64 tiles in [`crate::tiled`]. Reused
/// from row to row and from job to job.
pub(crate) trait RowAccumulator<V> {
    /// Makes room for rows of `n` columns, as a product starts.
    fn fit(&mut self, n: usize);

    /// Accumulates `left ⊗ value` at `col` for every cell `(col, value)`
    /// of row `k` of the right operand, where `left` is the cell `(i, k)`
    /// of a left row of `row_len` cells (what a tile's kernel choice
    /// reads; a scalar ignores both). `i` names the mask row `drain_into`
    /// will be handed: an accumulator whose writes cost more than a bit
    /// may read it and leave those cells out now.
    fn add(&mut self, left: &V, i: usize, k: u32, row_len: usize, cols: &[u32], vals: &[V]);

    /// Whether nothing was accumulated since the last drain.
    fn is_empty(&self) -> bool;

    /// Drops what `mask`, a row of known cells as `(cols, vals)`, holds
    /// (the complement mask, applied after accumulation: whole columns
    /// for a scalar, the bits of each tile for a tile), appends what is
    /// left to `out` in ascending column order, and clears the
    /// accumulator.
    fn drain_into(&mut self, mask: Option<RowCells<'_, V>>, out: &mut Csr<V>);
}

/// One row of a `Csr<V>` as its `(cols, vals)`.
pub(crate) type RowCells<'a, V> = (&'a [u32], &'a [V]);

impl<V: Copy> Csr<V> {
    /// `(self × b) \ mask?` on a caller-owned accumulator. Also returns
    /// how many cells of `self` met an empty row of `b` and so were
    /// skipped (for tiles, whole families of tile products).
    ///
    /// The cost is the cells of `self`, a gallop over each run of rows
    /// nothing reaches, and one bulk write of their row ends: a product
    /// pays nothing per empty row of `self` beyond that write.
    #[inline(always)]
    pub fn multiply<A: RowAccumulator<V>>(
        &self,
        b: &Self,
        mask: Option<&Self>,
        acc: &mut A,
    ) -> (Self, u64) {
        assert_eq!(self.rows(), b.rows(), "dimension mismatch");
        if let Some(m) = mask {
            assert_eq!(self.rows(), m.rows(), "mask dimension mismatch");
        }
        let rows = self.rows();
        acc.fit(rows);
        let mut out = Csr::with_capacity(rows, 0);
        // Flat over the cells of `self`, not row by row: against a sparse
        // Δ almost no cell finds anything to multiply with, so the scan
        // is one predictable loop. `open` is the row being accumulated;
        // it is closed when a cell that does find something lies in a
        // later row.
        let mut open = 0;
        // The cells of row `open`, read when a row is opened: the skipping
        // cells, the bulk of a sparse Δ's scan, pay for nothing but the
        // test that skips them.
        let mut open_len = if rows == 0 { 0 } else { self.row(open).len() };
        let cells = 0..self.nnz();
        let mut found = 0;
        for e in cells.clone() {
            let k = self.cols[e];
            let b_row = b.row(k as usize);
            if b_row.is_empty() {
                continue;
            }
            found += 1;
            if self.row_ptr[open + 1] <= e {
                let next = row_of(&self.row_ptr, open, e);
                close_rows(acc, mask, &mut out, open, next);
                open = next;
                open_len = self.row(open).len();
            }
            let (cols, vals) = (&b.cols[b_row.clone()], &b.vals[b_row]);
            acc.add(&self.vals[e], open, k, open_len, cols, vals);
        }
        close_rows(acc, mask, &mut out, open, rows);
        (out, (cells.len() - found) as u64)
    }
}

/// Closes row `open` of a product and the rows up to `next`, which
/// nothing reached.
#[inline(always)]
fn close_rows<V: Copy, A: RowAccumulator<V>>(
    acc: &mut A,
    mask: Option<&Csr<V>>,
    out: &mut Csr<V>,
    open: usize,
    next: usize,
) {
    // Only a row that received a candidate pays for its mask row.
    if !acc.is_empty() {
        let mask_row = mask.map(|m| {
            let row = m.row(open);
            (&m.cols[row.clone()], &m.vals[row])
        });
        acc.drain_into(mask_row, out);
    }
    out.row_ptr
        .resize(out.row_ptr.len() + (next - open), out.nnz());
}

/// The dense bitset accumulator for one output row of Boolean SpGEMM,
/// and the occupancy of the length accumulator ([`crate::length`]): a
/// row that touched few 64-column words sorts few indices on its drain.
#[derive(Default)]
pub(crate) struct BitRow {
    words: Vec<u64>,
    /// Indices of words touched since the last drain (sparse reset).
    touched: Vec<u32>,
}

impl BitRow {
    #[inline]
    pub fn set(&mut self, j: u32) {
        let w = (j / 64) as usize;
        if self.words[w] == 0 {
            self.touched.push(w as u32);
        }
        self.words[w] |= 1u64 << (j % 64);
    }

    /// Hands the set columns to `each` in ascending order and clears the
    /// row.
    pub fn drain(&mut self, mut each: impl FnMut(u32)) {
        self.touched.sort_unstable();
        for &wi in &self.touched {
            let mut word = std::mem::take(&mut self.words[wi as usize]);
            while word != 0 {
                each(wi * 64 + word.trailing_zeros());
                word &= word - 1;
            }
        }
        self.touched.clear();
    }
}

impl RowAccumulator<()> for BitRow {
    fn fit(&mut self, n: usize) {
        if self.words.len() < n.div_ceil(64) {
            self.words.resize(n.div_ceil(64), 0);
        }
    }

    #[inline]
    fn add(&mut self, _left: &(), _i: usize, _k: u32, _row_len: usize, cols: &[u32], _vals: &[()]) {
        for &j in cols {
            self.set(j);
        }
    }

    fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    fn drain_into(&mut self, mask: Option<RowCells<'_, ()>>, out: &mut Csr<()>) {
        for &j in mask.map_or(&[][..], |(cols, _)| cols) {
            self.words[(j / 64) as usize] &= !(1u64 << (j % 64));
        }
        self.drain(|j| out.push(j, ()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseBitMatrix;

    #[test]
    fn from_pairs_sorts_and_dedups() {
        let m = CsrMatrix::from_pairs(4, &[(2, 3), (2, 1), (2, 3), (0, 0)]);
        assert_eq!(m.row(2), &[1, 3]);
        assert_eq!(m.nnz(), 3);
        assert!(m.get(2, 3));
        assert!(!m.get(3, 2));
    }

    #[test]
    fn identity_multiplication() {
        let m = CsrMatrix::from_pairs(6, &[(0, 5), (3, 1), (5, 5)]);
        let id = CsrMatrix::identity(6);
        assert_eq!(m.multiply(&id), m);
        assert_eq!(id.multiply(&m), m);
    }

    #[test]
    fn union_merge_and_change_detection() {
        let mut a = CsrMatrix::from_pairs(4, &[(0, 1), (2, 2)]);
        let b = CsrMatrix::from_pairs(4, &[(0, 3), (2, 2)]);
        assert!(a.union_in_place(&b));
        assert_eq!(a.row(0), &[1, 3]);
        assert!(!a.union_in_place(&b));
    }

    #[test]
    fn union_with_zero_is_noop() {
        let mut a = CsrMatrix::from_pairs(3, &[(1, 1)]);
        let z = CsrMatrix::zeros(3);
        assert!(!a.union_in_place(&z));
    }

    #[test]
    fn product_matches_dense_kernel() {
        let n = 90usize;
        let mut pairs_a = Vec::new();
        let mut pairs_b = Vec::new();
        let mut state = 0xdeadbeefu64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        for _ in 0..400 {
            pairs_a.push((next() % n as u32, next() % n as u32));
            pairs_b.push((next() % n as u32, next() % n as u32));
        }
        let sa = CsrMatrix::from_pairs(n, &pairs_a);
        let sb = CsrMatrix::from_pairs(n, &pairs_b);
        let da = DenseBitMatrix::from_pairs(n, &pairs_a);
        let db = DenseBitMatrix::from_pairs(n, &pairs_b);
        assert_eq!(sa.multiply(&sb).pairs(), da.multiply(&db).pairs());
    }

    #[test]
    fn transpose_involution() {
        let m = CsrMatrix::from_pairs(7, &[(0, 6), (6, 0), (3, 3), (2, 5)]);
        assert_eq!(m.transpose().transpose(), m);
        assert!(m.transpose().get(6, 0));
        assert!(m.transpose().get(5, 2));
    }

    #[test]
    fn zero_sized() {
        let m = CsrMatrix::zeros(0);
        assert!(m.multiply(&m).is_zero());
        assert_eq!(m.multiply_masked_opt(&m, None).n(), 0);
    }

    fn drain_sorted(acc: &mut BitRow, mask: Option<&[u32]>) -> Vec<u32> {
        let mut out = Csr::empty(0);
        let units = vec![(); mask.map_or(0, <[u32]>::len)];
        acc.drain_into(mask.map(|cols| (cols, &units[..])), &mut out);
        out.cols
    }

    #[test]
    fn accumulator_crosses_word_boundaries() {
        let mut acc = BitRow::default();
        acc.fit(200);
        for j in [199u32, 0, 64, 63, 128] {
            acc.set(j);
        }
        assert_eq!(drain_sorted(&mut acc, None), vec![0, 63, 64, 128, 199]);
        // Reusable after drain, and after growing for a wider job.
        acc.set(5);
        assert_eq!(drain_sorted(&mut acc, None), vec![5]);
        acc.fit(1000);
        acc.set(999);
        assert_eq!(drain_sorted(&mut acc, None), vec![999]);
    }

    #[test]
    fn accumulator_removes_known_bits_after_accumulation() {
        let mut acc = BitRow::default();
        acc.fit(200);
        for j in [0u32, 1, 64, 65, 199] {
            acc.set(j);
        }
        // The mask may name bits nothing set, and may empty whole words.
        let drained = drain_sorted(&mut acc, Some(&[0, 64, 130, 199]));
        assert_eq!(drained, vec![1, 65], "mask bits never drain");
        acc.set(0);
        assert_eq!(drain_sorted(&mut acc, None), vec![0], "nothing lingers");
    }

    #[test]
    fn splice_keeps_storage_when_nothing_is_new() {
        let mut a = CsrMatrix::from_pairs(5, &[(0, 1), (0, 3), (4, 4)]);
        let before = (a.csr.row_ptr.as_ptr(), a.csr.cols.as_ptr());
        assert!(!a.union_in_place(&CsrMatrix::from_pairs(5, &[(0, 3), (4, 4)])));
        assert_eq!(before, (a.csr.row_ptr.as_ptr(), a.csr.cols.as_ptr()));
        // A real union leaves no slack behind, overlap or not.
        assert!(a.union_in_place(&CsrMatrix::from_pairs(5, &[(0, 3), (2, 2)])));
        assert_eq!(a.pairs(), vec![(0, 1), (0, 3), (2, 2), (4, 4)]);
        assert_eq!(a.csr.cols.capacity(), a.csr.cols.len());
    }

    #[test]
    fn out_of_range_cells_read_unset() {
        let m = CsrMatrix::from_pairs(3, &[(2, 2)]);
        assert!(!m.get(3, 0) && !m.get(0, 3) && !m.get(u32::MAX, u32::MAX));
    }

    #[test]
    fn masked_product_equals_product_minus_mask() {
        let n = 90usize;
        let mut pairs_a = Vec::new();
        let mut pairs_m = Vec::new();
        let mut state = 0xabcd_1234u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        for _ in 0..500 {
            pairs_a.push((next() % n as u32, next() % n as u32));
            pairs_m.push((next() % n as u32, next() % n as u32));
        }
        let a = CsrMatrix::from_pairs(n, &pairs_a);
        let m = CsrMatrix::from_pairs(n, &pairs_m);
        let expect = a.multiply(&a).difference(&m);
        let masked = a.multiply_masked(&a, &m);
        assert_eq!(masked, expect);
        assert!(masked.intersect(&m).is_zero(), "disjoint from mask");
    }

    #[test]
    fn difference_and_intersect() {
        let a = CsrMatrix::from_pairs(4, &[(0, 1), (2, 3), (3, 3)]);
        let b = CsrMatrix::from_pairs(4, &[(2, 3), (1, 1)]);
        assert_eq!(a.difference(&b).pairs(), vec![(0, 1), (3, 3)]);
        assert_eq!(a.intersect(&b).pairs(), vec![(2, 3)]);
        assert!(a.difference(&a).is_zero());
        assert_eq!(a.intersect(&a), a);
    }

    #[test]
    fn insert_pairs_in_place() {
        let mut m = CsrMatrix::from_pairs(5, &[(0, 3), (2, 2)]);
        assert!(m.insert_pairs(&[(0, 1), (0, 3), (4, 0), (4, 0)]));
        assert_eq!(m.pairs(), vec![(0, 1), (0, 3), (2, 2), (4, 0)]);
        assert!(!m.insert_pairs(&[(0, 1), (2, 2)]), "all known");
        assert!(!m.insert_pairs(&[]), "empty batch is a no-op");
        // Rows stay strictly ascending after the merge.
        assert_eq!(m.row(0), &[1, 3]);
    }
}

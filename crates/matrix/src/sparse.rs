//! Sparse Boolean matrices in CSR (compressed sparse row) format.
//!
//! This is the representation behind the paper's best-performing
//! implementations (sCPU and sGPU use "CSR format for sparse matrix
//! representation"). A sweep of the solvers meets it with a small Δ on
//! one side and a large closure on the other, so every operation is one
//! flat pass over the entries of the side it iterates plus one bulk
//! write of the result's row pointers, with a constant number of
//! allocations per call and none per row:
//!
//! * the set operations (`union_in_place`, `insert_pairs`, `difference`,
//!   `intersect`, and the length matrices' merge in [`crate::length`])
//!   are one routine, `splice_rows`: it looks each entry of one
//!   operand up in the other's row and copies what lies in between —
//!   whole runs of untouched rows included — as contiguous blocks;
//! * construction (`from_pairs`, and `from_entries` for lengths) is a
//!   counting sort by row, `sort_cells`;
//! * multiplication is a Boolean SpGEMM with a dense bitset row
//!   accumulator. The complement mask is applied lazily: a row's mask
//!   entries are subtracted only after that row received a candidate,
//!   so the rows a sparse Δ operand leaves empty never read the mask.

use crate::device::Device;
use crate::engine::{traced_kernel, MaskedJob};
use std::ops::Range;

/// An `n × n` Boolean matrix in CSR format; column indices per row are
/// strictly ascending.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CsrMatrix {
    n: usize,
    /// `row_ptr[i] .. row_ptr[i+1]` indexes `cols` for row `i`.
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
}

/// Borrowed flat CSR storage with one value per entry (`()` for Boolean
/// matrices, a length for [`crate::CsrLenMatrix`]) — what the shared
/// routines read.
#[derive(Clone, Copy)]
pub(crate) struct CsrRef<'a, V> {
    pub row_ptr: &'a [usize],
    pub cols: &'a [u32],
    pub vals: &'a [V],
}

/// Owned flat CSR storage under construction — what the shared routines
/// write.
pub(crate) struct CsrBuf<V> {
    pub row_ptr: Vec<usize>,
    pub cols: Vec<u32>,
    pub vals: Vec<V>,
}

impl<V: Copy> CsrBuf<V> {
    /// Empty storage with room for `n` rows and `nnz` entries.
    fn with_capacity(n: usize, nnz: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        Self {
            row_ptr,
            cols: Vec::with_capacity(nnz),
            vals: Vec::with_capacity(nnz),
        }
    }

    fn push(&mut self, col: u32, val: V) {
        self.cols.push(col);
        self.vals.push(val);
    }

    /// Appends the entries `range` of `src` as one contiguous copy.
    fn extend(&mut self, src: CsrRef<'_, V>, range: Range<usize>) {
        self.cols.extend_from_slice(&src.cols[range.clone()]);
        self.vals.extend_from_slice(&src.vals[range]);
    }

    /// Gives back the capacity reserved for entries that never came.
    fn shrink(mut self) -> Self {
        self.cols.shrink_to_fit();
        self.vals.shrink_to_fit();
        self
    }
}

/// `from + sorted[from..].partition_point(pred)`, found in doubling
/// steps from `from`. The flat passes below only ever search forward
/// from their previous answer, so this costs O(log distance): one probe
/// when rows or columns are dense, a binary search when they are sparse.
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
pub(crate) fn row_of(row_ptr: &[usize], row: usize, e: usize) -> usize {
    gallop(&row_ptr[1..], row + 1, |&end| end <= e)
}

/// What [`splice_rows`] returns: `a ∪ b` and the reported part of `b`,
/// each only if asked for.
pub(crate) type Bufs<V> = (Option<CsrBuf<V>>, Option<CsrBuf<V>>);

/// Which entries of `b` [`splice_rows`] reports on their own: those
/// absent from `a` (`b \ a`) or those present in it (`b ∩ a`).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Report {
    Absent,
    Present,
}

/// The row splice behind every CSR set operation. One flat pass over the
/// entries of `b` looks each up in the same row of `a` (binary search
/// from the previous hit on) and writes up to two flat results:
///
/// * with `merge`, `a ∪ b` — entries of `a` between two insertion
///   points, and whole runs of rows `b` leaves empty, are one contiguous
///   copy, and where both hold a cell `a`'s value stays (first write
///   wins). `None` if `b ⊆ a`, so the caller keeps its storage;
/// * with `report`, the entries of `b` absent from (or present in) `a`,
///   carrying `b`'s values.
///
/// The cost is O(nnz(b) · log(row of a)) plus one bulk write of each
/// result's row pointers and, with `merge`, the copy of `a`; only
/// `merge` ever reads `a` outside the rows `b` fills.
pub(crate) fn splice_rows<V: Copy>(
    a: CsrRef<'_, V>,
    b: CsrRef<'_, V>,
    merge: bool,
    report: Option<Report>,
) -> Bufs<V> {
    assert_eq!(a.row_ptr.len(), b.row_ptr.len(), "dimension mismatch");
    let n = a.row_ptr.len() - 1;
    let merge = merge && !b.cols.is_empty();
    let mut out: Bufs<V> = (
        merge.then(|| CsrBuf::with_capacity(n, a.cols.len() + b.cols.len())),
        report.map(|_| CsrBuf::with_capacity(n, b.cols.len())),
    );
    let want_present = report == Some(Report::Present);
    // Entries of `a` already copied into `merged`; the rest is flushed
    // lazily, right before the next insertion.
    let mut copied = 0;
    // Writes the row ends of `rows`, none of which gets another entry:
    // in `merged` they are `a`'s, shifted by the insertions so far.
    let close = |(merged, reported): &mut Bufs<V>, copied: usize, rows: Range<usize>| {
        if let Some(m) = merged {
            let inserted = m.cols.len() - copied;
            let ends = &a.row_ptr[rows.start + 1..=rows.end];
            m.row_ptr.extend(ends.iter().map(|&end| end + inserted));
        }
        if let Some(r) = reported {
            r.row_ptr.resize(r.row_ptr.len() + rows.len(), r.cols.len());
        }
    };
    // `row` is the row of `b`'s current entry, `at` the cursor in `a`'s.
    let (mut row, mut at) = (0, 0);
    for (e, (&col, &val)) in b.cols.iter().zip(b.vals).enumerate() {
        if b.row_ptr[row + 1] <= e {
            let next = row_of(b.row_ptr, row, e);
            close(&mut out, copied, row..next);
            (row, at) = (next, a.row_ptr[next]);
        }
        let a_end = a.row_ptr[row + 1];
        at = gallop(&a.cols[..a_end], at, |&c| c < col);
        let present = at < a_end && a.cols[at] == col;
        if let (false, Some(m)) = (present, &mut out.0) {
            m.extend(a, copied..at);
            copied = at;
            m.push(col, val);
        }
        if let (true, Some(r)) = (present == want_present, &mut out.1) {
            r.push(col, val);
        }
    }
    close(&mut out, copied, row..n);
    // Nothing inserted means nothing copied either: `b ⊆ a`.
    let merged = out.0.filter(|m| !m.cols.is_empty()).map(|mut m| {
        m.extend(a, copied..a.cols.len());
        m.shrink()
    });
    (merged, out.1.map(CsrBuf::shrink))
}

/// Counting sort of `len` cells by row: `cell(e)` is the `(row, col)` of
/// input entry `e`. Each row is then ordered by column and cut to the
/// first input entry of every cell (first write wins). Returns `row_ptr`
/// and, per stored entry, the index of the input entry it keeps.
pub(crate) fn sort_cells(
    n: usize,
    len: usize,
    cell: impl Fn(usize) -> (u32, u32),
) -> (Vec<usize>, Vec<usize>) {
    let mut row_ptr = vec![0usize; n + 1];
    for e in 0..len {
        let (i, j) = cell(e);
        debug_assert!((i as usize) < n && (j as usize) < n);
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
    (row_ptr, order)
}

impl CsrMatrix {
    /// Creates the zero matrix of size `n × n`.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            row_ptr: vec![0; n + 1],
            cols: Vec::new(),
        }
    }

    /// Creates the identity matrix of size `n × n`.
    pub fn identity(n: usize) -> Self {
        Self {
            n,
            row_ptr: (0..=n).collect(),
            cols: (0..n as u32).collect(),
        }
    }

    /// Builds a matrix from `(row, col)` pairs (duplicates allowed) by
    /// counting sort on the row.
    pub fn from_pairs(n: usize, pairs: &[(u32, u32)]) -> Self {
        let (row_ptr, order) = sort_cells(n, pairs.len(), |e| pairs[e]);
        let cols = order.iter().map(|&e| pairs[e].1).collect();
        Self { n, row_ptr, cols }
    }

    fn from_buf(n: usize, buf: CsrBuf<()>) -> Self {
        Self {
            n,
            row_ptr: buf.row_ptr,
            cols: buf.cols,
        }
    }

    /// The storage as [`splice_rows`] reads it: a Boolean entry carries
    /// the unit value, which takes no storage and copies for free.
    fn flat<'a>(&'a self, units: &'a [()]) -> CsrRef<'a, ()> {
        CsrRef {
            row_ptr: &self.row_ptr,
            cols: &self.cols,
            vals: &units[..self.nnz()],
        }
    }

    /// Runs [`splice_rows`] with `self` as `a` and `other` as `b`.
    fn splice(&self, other: &CsrMatrix, merge: bool, report: Option<Report>) -> Bufs<()> {
        assert_eq!(self.n, other.n, "dimension mismatch");
        let units = vec![(); self.nnz().max(other.nnz())];
        splice_rows(self.flat(&units), other.flat(&units), merge, report)
    }

    /// Matrix dimension `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Column indices of row `i` (ascending).
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.cols[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Reads bit `(i, j)` by binary search; cells outside the matrix
    /// read as unset.
    pub fn get(&self, i: u32, j: u32) -> bool {
        (i as usize) < self.n && self.row(i as usize).binary_search(&j).is_ok()
    }

    /// All set `(row, col)` pairs in row-major order.
    pub fn pairs(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.nnz());
        for i in 0..self.n {
            for &j in self.row(i) {
                out.push((i as u32, j));
            }
        }
        out
    }

    /// True if no entry is stored.
    pub fn is_zero(&self) -> bool {
        self.cols.is_empty()
    }

    /// `self |= other` as one flat splice (see `splice_rows`: runs of
    /// rows `other` leaves empty are one contiguous copy); returns `true`
    /// if any entry was added, and leaves the storage untouched if not.
    pub fn union_in_place(&mut self, other: &CsrMatrix) -> bool {
        let (merged, _) = self.splice(other, true, None);
        let changed = merged.is_some();
        if let Some(buf) = merged {
            *self = Self::from_buf(self.n, buf);
        }
        changed
    }

    /// Merges `pairs` into the matrix in place; returns `true` if any
    /// entry was newly stored. This is the point-update path behind
    /// `BoolEngine::union_pairs` (a `GraphIndex` absorbing an edge
    /// batch): already-present pairs are filtered first — a no-op batch
    /// costs only the membership probes — and the rest is spliced in
    /// like any other union.
    pub fn insert_pairs(&mut self, pairs: &[(u32, u32)]) -> bool {
        let fresh: Vec<(u32, u32)> = pairs
            .iter()
            .copied()
            .filter(|&(i, j)| !self.get(i, j))
            .collect();
        !fresh.is_empty() && self.union_in_place(&Self::from_pairs(self.n, &fresh))
    }

    /// `self \ other` — entries of `self` absent from `other`; never
    /// reads `other` outside the rows `self` fills.
    pub fn difference(&self, other: &CsrMatrix) -> CsrMatrix {
        let (_, absent) = other.splice(self, false, Some(Report::Absent));
        Self::from_buf(self.n, absent.expect("a report was asked for"))
    }

    /// `self ∩ other` — entries of `self` present in `other`; never
    /// reads `other` outside the rows `self` fills.
    pub fn intersect(&self, other: &CsrMatrix) -> CsrMatrix {
        let (_, present) = other.splice(self, false, Some(Report::Present));
        Self::from_buf(self.n, present.expect("a report was asked for"))
    }

    /// Boolean SpGEMM `self × other` (serial). Output rows are drained
    /// straight into the flat CSR `row_ptr`/`cols` arrays — no
    /// intermediate per-row `Vec` allocations.
    pub fn multiply(&self, other: &CsrMatrix) -> CsrMatrix {
        product(self, other, None, &mut RowAccumulator::default())
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
        product(self, other, Some(mask), &mut RowAccumulator::default())
    }

    /// Boolean SpGEMM with row blocks computed in parallel on `device`.
    ///
    /// Small operands run serially: kernel dispatch has a fixed latency
    /// (just as GPU offload pays transfer/launch costs), so offloading
    /// only pays off past a work threshold.
    pub fn multiply_on(&self, other: &CsrMatrix, device: &Device) -> CsrMatrix {
        self.multiply_masked_opt_on(other, None, device)
    }

    /// [`CsrMatrix::multiply_masked`] with row blocks computed in
    /// parallel on `device` (same offload threshold as
    /// [`CsrMatrix::multiply_on`]).
    pub fn multiply_masked_on(
        &self,
        other: &CsrMatrix,
        mask: &CsrMatrix,
        device: &Device,
    ) -> CsrMatrix {
        self.multiply_masked_opt_on(other, Some(mask), device)
    }

    fn multiply_masked_opt_on(
        &self,
        other: &CsrMatrix,
        mask: Option<&CsrMatrix>,
        device: &Device,
    ) -> CsrMatrix {
        const OFFLOAD_THRESHOLD_NNZ: usize = 64 * 1024;
        if device.n_workers() == 1 || self.nnz() + other.nnz() < OFFLOAD_THRESHOLD_NNZ {
            return product(self, other, mask, &mut RowAccumulator::default());
        }
        check_dimensions(self, other, mask);
        let blocks = device.par_map_ranges(self.n, |range: Range<usize>| {
            let mut acc = RowAccumulator::default();
            acc.fit(self.n);
            let (mut row_ends, mut cols) = (Vec::with_capacity(range.len()), Vec::new());
            multiply_block(self, other, mask, range, &mut acc, &mut row_ends, &mut cols);
            (row_ends, cols)
        });
        let mut row_ptr = Vec::with_capacity(self.n + 1);
        row_ptr.push(0);
        let mut cols = Vec::new();
        for (block_ends, block_cols) in blocks {
            let base = cols.len();
            row_ptr.extend(block_ends.into_iter().map(|e| base + e));
            cols.extend_from_slice(&block_cols);
        }
        CsrMatrix {
            n: self.n,
            row_ptr,
            cols,
        }
    }

    /// Grows the matrix to `n × n`, keeping existing entries (a pure
    /// row-pointer append — new rows are empty, and existing column
    /// indices stay valid in the wider universe). `n` must not shrink
    /// the matrix.
    pub fn grow(&mut self, n: usize) {
        assert!(n >= self.n, "Boolean matrices only grow");
        let last = *self.row_ptr.last().expect("row_ptr nonempty");
        self.row_ptr.resize(n + 1, last);
        self.n = n;
    }

    /// Transposed copy.
    pub fn transpose(&self) -> CsrMatrix {
        let flipped: Vec<(u32, u32)> = self.pairs().into_iter().map(|(i, j)| (j, i)).collect();
        Self::from_pairs(self.n, &flipped)
    }
}

fn check_dimensions(a: &CsrMatrix, b: &CsrMatrix, mask: Option<&CsrMatrix>) {
    assert_eq!(a.n, b.n, "dimension mismatch");
    if let Some(m) = mask {
        assert_eq!(a.n, m.n, "mask dimension mismatch");
    }
}

/// Serial (optionally masked) product on a caller-owned accumulator.
fn product(
    a: &CsrMatrix,
    b: &CsrMatrix,
    mask: Option<&CsrMatrix>,
    acc: &mut RowAccumulator,
) -> CsrMatrix {
    check_dimensions(a, b, mask);
    acc.fit(a.n);
    let mut row_ptr = Vec::with_capacity(a.n + 1);
    row_ptr.push(0);
    let mut cols = Vec::new();
    multiply_block(a, b, mask, 0..a.n, acc, &mut row_ptr, &mut cols);
    CsrMatrix {
        n: a.n,
        row_ptr,
        cols,
    }
}

/// Runs the jobs of a batch one after another on one accumulator, each
/// under its own kernel span (the `BoolEngine` Recorder contract).
pub(crate) fn multiply_jobs(jobs: &[MaskedJob<'_, CsrMatrix>]) -> Vec<CsrMatrix> {
    let mut acc = RowAccumulator::default();
    jobs.iter()
        .map(|&(a, b, mask)| {
            let op = if mask.is_some() { "masked" } else { "mul" };
            traced_kernel("csr", op, || product(a, b, mask, &mut acc))
        })
        .collect()
}

/// Computes rows `range` of `a × b` (optionally masked), appending the
/// packed column indices to `cols` and each row's end within `cols` to
/// `row_ends`. Shared by the serial and device-parallel kernels.
fn multiply_block(
    a: &CsrMatrix,
    b: &CsrMatrix,
    mask: Option<&CsrMatrix>,
    range: Range<usize>,
    acc: &mut RowAccumulator,
    row_ends: &mut Vec<usize>,
    cols: &mut Vec<u32>,
) {
    // Flat over the entries of `a`, not row by row: against a sparse Δ
    // almost no entry finds anything to multiply with, so the scan is one
    // predictable loop. `open` is the row being accumulated; it is closed
    // when an entry that does find something lies in a later row.
    let mut open = range.start;
    // Closes row `open` and the rows up to `next`, which nothing reached.
    let mut close = |acc: &mut RowAccumulator, open: usize, next: usize| {
        // Only a row that received a candidate pays for its mask row.
        if !acc.touched.is_empty() {
            if let Some(m) = mask {
                acc.remove(m.row(open));
            }
            acc.drain_into(cols);
        }
        row_ends.resize(row_ends.len() + (next - open), cols.len());
    };
    for e in a.row_ptr[range.start]..a.row_ptr[range.end] {
        let b_row = b.row(a.cols[e] as usize);
        if b_row.is_empty() {
            continue;
        }
        if a.row_ptr[open + 1] <= e {
            let next = row_of(&a.row_ptr, open, e);
            close(acc, open, next);
            open = next;
        }
        for &j in b_row {
            acc.set(j);
        }
    }
    close(acc, open, range.end);
}

/// A reusable dense bitset accumulator for one output row of SpGEMM.
#[derive(Default)]
struct RowAccumulator {
    words: Vec<u64>,
    /// Indices of words touched since the last drain (sparse reset).
    touched: Vec<u32>,
}

impl RowAccumulator {
    /// Makes room for rows of `n` columns (a batch reuses one
    /// accumulator across jobs).
    fn fit(&mut self, n: usize) {
        if self.words.len() < n.div_ceil(64) {
            self.words.resize(n.div_ceil(64), 0);
        }
    }

    #[inline]
    fn set(&mut self, j: u32) {
        let w = (j / 64) as usize;
        if self.words[w] == 0 {
            self.touched.push(w as u32);
        }
        self.words[w] |= 1u64 << (j % 64);
    }

    /// Clears the bits of a sorted row of known entries (the complement
    /// mask, applied after accumulation).
    fn remove(&mut self, row: &[u32]) {
        for &j in row {
            self.words[(j / 64) as usize] &= !(1u64 << (j % 64));
        }
    }

    /// Appends all set bits in ascending order to `out` and clears the
    /// buffer.
    fn drain_into(&mut self, out: &mut Vec<u32>) {
        self.touched.sort_unstable();
        for &wi in &self.touched {
            let mut word = self.words[wi as usize];
            self.words[wi as usize] = 0;
            while word != 0 {
                out.push(wi * 64 + word.trailing_zeros());
                word &= word - 1;
            }
        }
        self.touched.clear();
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
    fn parallel_product_equals_serial() {
        let n = 120usize;
        let pairs: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|i| [(i, (i * 31 + 7) % n as u32), (i, (i * 17 + 2) % n as u32)])
            .collect();
        let m = CsrMatrix::from_pairs(n, &pairs);
        let serial = m.multiply(&m);
        for workers in [1, 2, 5, 16] {
            let d = Device::new(workers);
            assert_eq!(m.multiply_on(&m, &d), serial, "workers {workers}");
        }
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
        assert_eq!(m.multiply_on(&m, &Device::new(3)).n(), 0);
    }

    fn drain_sorted(acc: &mut RowAccumulator) -> Vec<u32> {
        let mut out = Vec::new();
        acc.drain_into(&mut out);
        out
    }

    #[test]
    fn accumulator_crosses_word_boundaries() {
        let mut acc = RowAccumulator::default();
        acc.fit(200);
        for j in [199u32, 0, 64, 63, 128] {
            acc.set(j);
        }
        assert_eq!(drain_sorted(&mut acc), vec![0, 63, 64, 128, 199]);
        // Reusable after drain, and after growing for a wider job.
        acc.set(5);
        assert_eq!(drain_sorted(&mut acc), vec![5]);
        acc.fit(1000);
        acc.set(999);
        assert_eq!(drain_sorted(&mut acc), vec![999]);
    }

    #[test]
    fn accumulator_removes_known_bits_after_accumulation() {
        let mut acc = RowAccumulator::default();
        acc.fit(200);
        for j in [0u32, 1, 64, 65, 199] {
            acc.set(j);
        }
        // The mask may name bits nothing set, and may empty whole words.
        acc.remove(&[0, 64, 130, 199]);
        assert_eq!(drain_sorted(&mut acc), vec![1, 65], "mask bits never drain");
        acc.set(0);
        assert_eq!(drain_sorted(&mut acc), vec![0], "nothing lingers");
    }

    #[test]
    fn splice_keeps_storage_when_nothing_is_new() {
        let mut a = CsrMatrix::from_pairs(5, &[(0, 1), (0, 3), (4, 4)]);
        let before = (a.row_ptr.as_ptr(), a.cols.as_ptr());
        assert!(!a.union_in_place(&CsrMatrix::from_pairs(5, &[(0, 3), (4, 4)])));
        assert_eq!(before, (a.row_ptr.as_ptr(), a.cols.as_ptr()));
        // A real union leaves no slack behind, overlap or not.
        assert!(a.union_in_place(&CsrMatrix::from_pairs(5, &[(0, 3), (2, 2)])));
        assert_eq!(a.pairs(), vec![(0, 1), (0, 3), (2, 2), (4, 4)]);
        assert_eq!(a.cols.capacity(), a.cols.len());
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
    fn parallel_masked_product_equals_serial() {
        // Enough nnz to cross the offload threshold.
        let n = 600usize;
        let pairs: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|i| (0..120u32).map(move |d| (i, (i * 31 + d * 7 + 1) % n as u32)))
            .collect();
        let a = CsrMatrix::from_pairs(n, &pairs);
        let mask_pairs: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|i| (0..40u32).map(move |d| (i, (i * 13 + d * 3) % n as u32)))
            .collect();
        let m = CsrMatrix::from_pairs(n, &mask_pairs);
        assert!(a.nnz() + a.nnz() >= 64 * 1024, "test must cross threshold");
        let serial = a.multiply_masked(&a, &m);
        for workers in [2, 4] {
            let d = Device::new(workers);
            assert_eq!(a.multiply_masked_on(&a, &m, &d), serial, "w={workers}");
            assert_eq!(a.multiply_on(&a, &d), a.multiply(&a), "w={workers}");
        }
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

//! Sparse Boolean matrices in CSR (compressed sparse row) format.
//!
//! This is the representation behind the paper's best-performing
//! implementations (sCPU and sGPU use "CSR format for sparse matrix
//! representation"). Multiplication is a Boolean SpGEMM with a dense
//! bitset row accumulator; union is a per-row sorted merge.

use crate::device::Device;
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

    /// Builds a matrix from `(row, col)` pairs (duplicates allowed).
    pub fn from_pairs(n: usize, pairs: &[(u32, u32)]) -> Self {
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(i, j) in pairs {
            debug_assert!((i as usize) < n && (j as usize) < n);
            rows[i as usize].push(j);
        }
        for r in &mut rows {
            r.sort_unstable();
            r.dedup();
        }
        Self::from_rows(rows)
    }

    /// Assembles from per-row sorted, deduplicated column lists.
    pub fn from_rows(rows: Vec<Vec<u32>>) -> Self {
        let n = rows.len();
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0usize);
        let nnz: usize = rows.iter().map(Vec::len).sum();
        let mut cols = Vec::with_capacity(nnz);
        for r in rows {
            debug_assert!(
                r.windows(2).all(|w| w[0] < w[1]),
                "rows must be sorted+deduped"
            );
            cols.extend_from_slice(&r);
            row_ptr.push(cols.len());
        }
        Self { n, row_ptr, cols }
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

    /// Reads bit `(i, j)` by binary search.
    pub fn get(&self, i: u32, j: u32) -> bool {
        self.row(i as usize).binary_search(&j).is_ok()
    }

    /// Sets bit `(i, j)`; O(row length) — intended for construction and
    /// tests, not hot loops (use `from_pairs`/`union_in_place`).
    pub fn set(&mut self, i: u32, j: u32) {
        let row = self.row(i as usize);
        let Err(pos) = row.binary_search(&j) else {
            return;
        };
        let insert_at = self.row_ptr[i as usize] + pos;
        self.cols.insert(insert_at, j);
        for p in self.row_ptr[(i as usize + 1)..].iter_mut() {
            *p += 1;
        }
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

    /// `self |= other` by per-row sorted merge; returns `true` if any
    /// entry was added.
    pub fn union_in_place(&mut self, other: &CsrMatrix) -> bool {
        assert_eq!(self.n, other.n, "dimension mismatch");
        if other.is_zero() {
            return false;
        }
        let mut changed = false;
        let mut new_rows: Vec<Vec<u32>> = Vec::with_capacity(self.n);
        for i in 0..self.n {
            let (a, b) = (self.row(i), other.row(i));
            if b.is_empty() {
                new_rows.push(a.to_vec());
                continue;
            }
            let merged = merge_sorted(a, b);
            changed |= merged.len() != a.len();
            new_rows.push(merged);
        }
        if changed {
            *self = Self::from_rows(new_rows);
        }
        changed
    }

    /// Assembles from a block of flat rows: `row_ends[r]` is the
    /// cumulative entry count after row `r` within `cols`.
    fn from_flat(n: usize, row_ends: Vec<usize>, cols: Vec<u32>) -> Self {
        debug_assert_eq!(row_ends.len(), n);
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        row_ptr.extend(row_ends);
        Self { n, row_ptr, cols }
    }

    /// Boolean SpGEMM `self × other` (serial). Output rows are drained
    /// straight into the flat CSR `row_ptr`/`cols` arrays — no
    /// intermediate per-row `Vec` allocations.
    pub fn multiply(&self, other: &CsrMatrix) -> CsrMatrix {
        assert_eq!(self.n, other.n, "dimension mismatch");
        let mut acc = RowAccumulator::new(self.n);
        let (row_ends, cols) = multiply_block(self, other, None, 0..self.n, &mut acc);
        CsrMatrix::from_flat(self.n, row_ends, cols)
    }

    /// Masked Boolean SpGEMM `(self × other) \ mask`: the row accumulator
    /// is seeded with the mask row before accumulation, so bits already
    /// known are never set and the drained output contains only *new*
    /// entries — the result is always disjoint from `mask`.
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
        assert_eq!(self.n, other.n, "dimension mismatch");
        assert_eq!(self.n, mask.n, "mask dimension mismatch");
        let mut acc = RowAccumulator::new(self.n);
        let (row_ends, cols) = multiply_block(self, other, Some(mask), 0..self.n, &mut acc);
        CsrMatrix::from_flat(self.n, row_ends, cols)
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
        assert_eq!(self.n, mask.n, "mask dimension mismatch");
        self.multiply_masked_opt_on(other, Some(mask), device)
    }

    fn multiply_masked_opt_on(
        &self,
        other: &CsrMatrix,
        mask: Option<&CsrMatrix>,
        device: &Device,
    ) -> CsrMatrix {
        assert_eq!(self.n, other.n, "dimension mismatch");
        const OFFLOAD_THRESHOLD_NNZ: usize = 64 * 1024;
        if device.n_workers() == 1 || self.nnz() + other.nnz() < OFFLOAD_THRESHOLD_NNZ {
            return match mask {
                Some(m) => self.multiply_masked(other, m),
                None => self.multiply(other),
            };
        }
        let blocks = device.par_map_ranges(self.n, |range: Range<usize>| {
            let mut acc = RowAccumulator::new(self.n);
            multiply_block(self, other, mask, range, &mut acc)
        });
        let mut row_ends = Vec::with_capacity(self.n);
        let mut cols = Vec::new();
        for (block_ends, block_cols) in blocks {
            let base = cols.len();
            row_ends.extend(block_ends.into_iter().map(|e| base + e));
            cols.extend_from_slice(&block_cols);
        }
        CsrMatrix::from_flat(self.n, row_ends, cols)
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
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); self.n];
        for i in 0..self.n {
            for &j in self.row(i) {
                rows[j as usize].push(i as u32);
            }
        }
        // Rows are filled in ascending i, so already sorted.
        CsrMatrix::from_rows(rows)
    }
}

/// Computes rows `range` of `a × b` (optionally masked) into flat
/// storage: returns per-row cumulative entry counts plus the packed
/// column indices. Shared by the serial and device-parallel kernels.
fn multiply_block(
    a: &CsrMatrix,
    b: &CsrMatrix,
    mask: Option<&CsrMatrix>,
    range: Range<usize>,
    acc: &mut RowAccumulator,
) -> (Vec<usize>, Vec<u32>) {
    let mut row_ends = Vec::with_capacity(range.len());
    let mut cols = Vec::new();
    for i in range {
        let arow = a.row(i);
        // An empty left row yields an empty output row — in the masked
        // delta hot path (sparse Δ left operand, dense closure mask)
        // this skips the O(nnz(mask row)) seed/clear entirely.
        if arow.is_empty() {
            row_ends.push(cols.len());
            continue;
        }
        if let Some(m) = mask {
            acc.seed_mask(m.row(i));
            for &k in arow {
                for &j in b.row(k as usize) {
                    acc.set_masked(j);
                }
            }
            acc.clear_mask();
        } else {
            // Mask-free fast path: no per-entry mask load in the hot loop.
            for &k in arow {
                for &j in b.row(k as usize) {
                    acc.set(j);
                }
            }
        }
        acc.drain_into(&mut cols);
        row_ends.push(cols.len());
    }
    (row_ends, cols)
}

/// A reusable dense bitset accumulator for one output row of SpGEMM,
/// with an optional complement mask: bits seeded via [`Self::seed_mask`]
/// are suppressed by [`Self::set`], so the drain only ever emits entries
/// *not* already known to the mask.
struct RowAccumulator {
    words: Vec<u64>,
    /// Complement-mask words; a bit set here can never enter `words`
    /// through [`Self::set_masked`]. Allocated lazily on first
    /// [`Self::seed_mask`], so unmasked products never pay for it.
    mask: Vec<u64>,
    /// Indices of words touched since the last drain (sparse reset).
    touched: Vec<u32>,
    /// Indices of mask words touched since the last clear.
    mask_touched: Vec<u32>,
}

impl RowAccumulator {
    fn new(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64).max(1)],
            mask: Vec::new(),
            touched: Vec::new(),
            mask_touched: Vec::new(),
        }
    }

    /// Seeds the complement mask with a sorted row of known entries.
    fn seed_mask(&mut self, row: &[u32]) {
        if self.mask.is_empty() {
            self.mask = vec![0; self.words.len()];
        }
        for &j in row {
            let w = (j / 64) as usize;
            if self.mask[w] == 0 {
                self.mask_touched.push(w as u32);
            }
            self.mask[w] |= 1u64 << (j % 64);
        }
    }

    /// Clears the complement mask (sparse reset).
    fn clear_mask(&mut self) {
        for &wi in &self.mask_touched {
            self.mask[wi as usize] = 0;
        }
        self.mask_touched.clear();
    }

    /// Sets bit `j` unconditionally (the unmasked hot path).
    #[inline]
    fn set(&mut self, j: u32) {
        let w = (j / 64) as usize;
        if self.words[w] == 0 {
            self.touched.push(w as u32);
        }
        self.words[w] |= 1u64 << (j % 64);
    }

    /// Sets bit `j` unless the seeded mask already holds it.
    #[inline]
    fn set_masked(&mut self, j: u32) {
        let w = (j / 64) as usize;
        let bit = (1u64 << (j % 64)) & !self.mask[w];
        if bit == 0 {
            return;
        }
        if self.words[w] == 0 {
            self.touched.push(w as u32);
        }
        self.words[w] |= bit;
    }

    /// Extracts all set bits in ascending order and clears the buffer.
    #[cfg(test)]
    fn drain_sorted(&mut self) -> Vec<u32> {
        let mut out = Vec::new();
        self.drain_into(&mut out);
        out
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

/// Merges two strictly-ascending slices into a strictly-ascending vector.
fn merge_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    merge_sorted_into(a, b, &mut out);
    out
}

/// [`merge_sorted`], appending to an existing buffer (the flat
/// `insert_pairs` path merges each touched row straight into the new
/// `cols` storage).
fn merge_sorted_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let (mut x, mut y) = (0, 0);
    while x < a.len() && y < b.len() {
        match a[x].cmp(&b[y]) {
            std::cmp::Ordering::Less => {
                out.push(a[x]);
                x += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[y]);
                y += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[x]);
                x += 1;
                y += 1;
            }
        }
    }
    out.extend_from_slice(&a[x..]);
    out.extend_from_slice(&b[y..]);
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
    fn set_inserts_in_order() {
        let mut m = CsrMatrix::zeros(4);
        m.set(1, 3);
        m.set(1, 0);
        m.set(1, 3); // duplicate ignored
        m.set(2, 2);
        assert_eq!(m.row(1), &[0, 3]);
        assert_eq!(m.row(2), &[2]);
        assert_eq!(m.nnz(), 3);
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

    #[test]
    fn accumulator_crosses_word_boundaries() {
        let mut acc = RowAccumulator::new(200);
        for j in [199u32, 0, 64, 63, 128] {
            acc.set(j);
        }
        assert_eq!(acc.drain_sorted(), vec![0, 63, 64, 128, 199]);
        // Reusable after drain.
        acc.set(5);
        assert_eq!(acc.drain_sorted(), vec![5]);
    }

    #[test]
    fn accumulator_mask_suppresses_known_bits() {
        let mut acc = RowAccumulator::new(200);
        acc.seed_mask(&[0, 64, 199]);
        for j in [0u32, 1, 64, 65, 199] {
            acc.set_masked(j);
        }
        assert_eq!(acc.drain_sorted(), vec![1, 65], "mask bits never drain");
        acc.clear_mask();
        acc.set_masked(0);
        assert_eq!(acc.drain_sorted(), vec![0], "mask cleared");
        // The unmasked fast path ignores the mask entirely.
        acc.seed_mask(&[7]);
        acc.set(7);
        assert_eq!(acc.drain_sorted(), vec![7]);
        acc.clear_mask();
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
    fn merge_sorted_cases() {
        assert_eq!(merge_sorted(&[], &[]), Vec::<u32>::new());
        assert_eq!(merge_sorted(&[1, 3], &[]), vec![1, 3]);
        assert_eq!(merge_sorted(&[1, 3], &[2, 3, 9]), vec![1, 2, 3, 9]);
    }
}

impl CsrMatrix {
    /// Merges `pairs` into the matrix in place; returns `true` if any
    /// entry was newly stored. This is the point-update path behind
    /// `BoolEngine::union_pairs` (a `GraphIndex` absorbing an edge
    /// batch): already-present pairs are filtered first — a no-op batch
    /// costs only the membership probes — and the merge writes straight
    /// into fresh flat `row_ptr`/`cols` storage (untouched rows are one
    /// contiguous copy; no per-row `Vec` allocations).
    pub fn insert_pairs(&mut self, pairs: &[(u32, u32)]) -> bool {
        if pairs.is_empty() {
            return false;
        }
        // Genuinely new entries, grouped per row, sorted and deduped.
        let mut by_row: std::collections::BTreeMap<u32, Vec<u32>> =
            std::collections::BTreeMap::new();
        for &(i, j) in pairs {
            debug_assert!((i as usize) < self.n && (j as usize) < self.n);
            if !self.get(i, j) {
                by_row.entry(i).or_default().push(j);
            }
        }
        by_row.retain(|_, add| {
            add.sort_unstable();
            add.dedup();
            !add.is_empty()
        });
        if by_row.is_empty() {
            return false;
        }
        let added: usize = by_row.values().map(Vec::len).sum();
        let mut row_ptr = Vec::with_capacity(self.n + 1);
        let mut cols = Vec::with_capacity(self.cols.len() + added);
        row_ptr.push(0usize);
        let mut copied_up_to = 0usize; // index into the old `cols`
        for i in 0..self.n {
            let row_end = self.row_ptr[i + 1];
            if let Some(add) = by_row.get(&(i as u32)) {
                // Flush the contiguous run of untouched rows, then merge.
                cols.extend_from_slice(&self.cols[copied_up_to..self.row_ptr[i]]);
                merge_sorted_into(self.row(i), add, &mut cols);
                copied_up_to = row_end;
            }
            // Untouched rows are flushed lazily; record where row i ends.
            row_ptr.push(cols.len() + (row_end - copied_up_to));
        }
        cols.extend_from_slice(&self.cols[copied_up_to..]);
        debug_assert_eq!(cols.len(), self.cols.len() + added);
        self.row_ptr = row_ptr;
        self.cols = cols;
        true
    }

    /// `self \ other` — entries of `self` absent from `other` (per-row
    /// sorted difference).
    pub fn difference(&self, other: &CsrMatrix) -> CsrMatrix {
        assert_eq!(self.n, other.n, "dimension mismatch");
        let rows = (0..self.n)
            .map(|i| {
                let (a, b) = (self.row(i), other.row(i));
                if b.is_empty() {
                    return a.to_vec();
                }
                a.iter()
                    .copied()
                    .filter(|j| b.binary_search(j).is_err())
                    .collect()
            })
            .collect();
        CsrMatrix::from_rows(rows)
    }

    /// `self ∩ other` — per-row sorted intersection.
    pub fn intersect(&self, other: &CsrMatrix) -> CsrMatrix {
        assert_eq!(self.n, other.n, "dimension mismatch");
        let rows = (0..self.n)
            .map(|i| {
                let (a, b) = (self.row(i), other.row(i));
                a.iter()
                    .copied()
                    .filter(|j| b.binary_search(j).is_ok())
                    .collect()
            })
            .collect();
        CsrMatrix::from_rows(rows)
    }
}

#[cfg(test)]
mod setops_tests {
    use super::*;

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

//! Dense Boolean matrices: row-major bitsets over `u64` words.
//!
//! This is the representation the paper's dGPU implementation uses
//! ("row-major order for general matrix representation"). Multiplication
//! is the classic bitset kernel: for every set bit `(i, k)` of `A`, OR row
//! `k` of `B` into row `i` of `C` — `O(n²·n/64)` word operations. A
//! product runs on the calling thread; the dGPU stand-in
//! (`ParDenseEngine`) runs the products of a batch side by side.

use crate::engine::MaskedJob;
use crate::length::DenseLenMatrix;
use crate::repr::BoolRepr;
use crate::sparse::assert_in_range;

/// A dense `n × n` Boolean matrix stored as row-major bitset.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DenseBitMatrix {
    n: usize,
    /// Words per row (`ceil(n / 64)`).
    wpr: usize,
    bits: Vec<u64>,
}

impl DenseBitMatrix {
    /// Creates the zero matrix of size `n × n`.
    pub fn zeros(n: usize) -> Self {
        let wpr = n.div_ceil(64).max(1);
        Self {
            n,
            wpr,
            bits: vec![0; n * wpr],
        }
    }

    /// Creates the identity matrix of size `n × n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n as u32 {
            m.set(i, i);
        }
        m
    }

    /// Builds a matrix from `(row, col)` pairs.
    ///
    /// # Panics
    ///
    /// If a pair names a row or column `>= n`.
    pub fn from_pairs(n: usize, pairs: &[(u32, u32)]) -> Self {
        let mut m = Self::zeros(n);
        for &(i, j) in pairs {
            m.set(i, j);
        }
        m
    }

    /// Matrix dimension `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sets bit `(i, j)`.
    ///
    /// # Panics
    ///
    /// If `i` or `j` is `>= n` (a column past the row would otherwise
    /// land in the row's padding or in the next row).
    #[inline]
    pub fn set(&mut self, i: u32, j: u32) {
        assert_in_range(self.n, (i, j));
        self.bits[i as usize * self.wpr + j as usize / 64] |= 1u64 << (j % 64);
    }

    /// Reads bit `(i, j)`; cells outside the matrix read as unset.
    #[inline]
    pub fn get(&self, i: u32, j: u32) -> bool {
        (i as usize) < self.n
            && (j as usize) < self.n
            && self.bits[i as usize * self.wpr + j as usize / 64] >> (j % 64) & 1 == 1
    }

    /// The words of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.wpr..(i + 1) * self.wpr]
    }

    /// Number of set bits.
    pub fn nnz(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Heap bytes of the bitset, by capacity.
    pub fn bytes(&self) -> usize {
        self.bits.capacity() * std::mem::size_of::<u64>()
    }

    /// All set `(row, col)` pairs in row-major order.
    pub fn pairs(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.nnz());
        for i in 0..self.n {
            for (wi, &word) in self.row(i).iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let j = wi * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    /// `self |= other`; returns `true` if any bit changed. This is the
    /// matrix union of Algorithm 1 line 9.
    pub fn union_in_place(&mut self, other: &DenseBitMatrix) -> bool {
        assert_eq!(self.n, other.n, "dimension mismatch");
        let mut changed = 0u64;
        for (a, &b) in self.bits.iter_mut().zip(other.bits.iter()) {
            changed |= b & !*a;
            *a |= b;
        }
        changed != 0
    }

    /// Boolean matrix product `self × other` (serial kernel).
    ///
    /// ```
    /// use cfpq_matrix::DenseBitMatrix;
    /// let a = DenseBitMatrix::from_pairs(3, &[(0, 1)]);
    /// let b = DenseBitMatrix::from_pairs(3, &[(1, 2)]);
    /// assert_eq!(a.multiply(&b).pairs(), vec![(0, 2)]); // path composition
    /// ```
    pub fn multiply(&self, other: &DenseBitMatrix) -> DenseBitMatrix {
        self.multiply_masked_opt(other, None)
    }

    /// Masked Boolean product `(self × other) \ mask`: entries already
    /// present in `mask` are ANDed out of every accumulated output row,
    /// so the result is always disjoint from `mask`.
    ///
    /// This is the kernel behind the masked semi-naive fixpoint:
    /// passing the accumulated closure matrix as `mask` means
    /// the product only materializes *new* entries, and rows the mask
    /// already saturates produce no output at all.
    ///
    /// ```
    /// use cfpq_matrix::DenseBitMatrix;
    /// let a = DenseBitMatrix::from_pairs(3, &[(0, 1), (1, 1)]);
    /// let b = DenseBitMatrix::from_pairs(3, &[(1, 2)]);
    /// let mask = DenseBitMatrix::from_pairs(3, &[(0, 2)]);
    /// assert_eq!(a.multiply_masked(&b, &mask).pairs(), vec![(1, 2)]);
    /// ```
    pub fn multiply_masked(&self, other: &DenseBitMatrix, mask: &DenseBitMatrix) -> DenseBitMatrix {
        self.multiply_masked_opt(other, Some(mask))
    }

    /// The product entry point, `(self × other) \ mask?`, on the calling
    /// thread.
    pub fn multiply_masked_opt(
        &self,
        other: &DenseBitMatrix,
        mask: Option<&DenseBitMatrix>,
    ) -> DenseBitMatrix {
        assert_eq!(self.n, other.n, "dimension mismatch");
        if let Some(m) = mask {
            assert_eq!(self.n, m.n, "mask dimension mismatch");
        }
        let mut c = DenseBitMatrix::zeros(self.n);
        multiply_rows(self, other, mask, &mut c.bits);
        c
    }

    /// Grows the matrix to `n × n`, keeping existing bits (new rows and
    /// columns are zero). `n` must not shrink the matrix. This is the
    /// node-growth hook behind `BoolEngine::grow`: a `GraphIndex` whose
    /// universe expands rebuilds each label matrix at the new word
    /// stride.
    pub fn grow(&mut self, n: usize) {
        assert!(n >= self.n, "Boolean matrices only grow");
        if n == self.n {
            return;
        }
        let wpr = n.div_ceil(64).max(1);
        let mut bits = vec![0u64; n * wpr];
        for i in 0..self.n {
            bits[i * wpr..i * wpr + self.wpr].copy_from_slice(self.row(i));
        }
        self.n = n;
        self.wpr = wpr;
        self.bits = bits;
    }

    /// Transposed copy.
    pub fn transpose(&self) -> DenseBitMatrix {
        let mut t = DenseBitMatrix::zeros(self.n);
        for (i, j) in self.pairs() {
            t.set(j, i);
        }
        t
    }

    /// True if no bit is set.
    pub fn is_zero(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }
}

// Per-thread row accumulator for the dense kernels. Each output row is
// OR-accumulated here — `wpr` words that stay L1-resident across the
// whole product — and copied into the (cold, freshly-zeroed) output
// buffer once, only when nonzero. Without it every OR pass streams
// read-modify-writes through the `zeros()`-sized output allocation,
// which shows up on large-`n` profiles. Device workers are persistent
// threads, so the buffer amortizes across every product of a solve.
thread_local! {
    static ROW_SCRATCH: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Computes `(a × b) \ mask?` into `out`, the zeroed words of the
/// product. After a row is accumulated, every word already set in the
/// mask row is ANDed out, so the output never regenerates known entries.
/// Rows whose mask is fully saturated (all `n` columns set) skip the
/// accumulation entirely.
fn multiply_rows(
    a: &DenseBitMatrix,
    b: &DenseBitMatrix,
    mask: Option<&DenseBitMatrix>,
    out: &mut [u64],
) {
    let wpr = a.wpr;
    ROW_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        if scratch.len() < wpr {
            scratch.resize(wpr, 0);
        }
        let acc = &mut scratch[..wpr];
        for (i, crow) in out.chunks_mut(wpr).enumerate() {
            let arow = a.row(i);
            // An empty left row yields an empty output row; skip the mask
            // popcount and AND-out passes (the masked-delta hot path has a
            // mostly-empty Δ as the left operand).
            if arow.iter().all(|&w| w == 0) {
                continue;
            }
            let mrow = mask.map(|m| m.row(i));
            if let Some(mrow) = mrow {
                // A saturated mask row cannot admit any new entry.
                let set: usize = mrow.iter().map(|w| w.count_ones() as usize).sum();
                if set == a.n {
                    continue;
                }
            }
            acc.fill(0);
            for (wi, &aw) in arow.iter().enumerate() {
                let mut aw = aw;
                while aw != 0 {
                    let k = wi * 64 + aw.trailing_zeros() as usize;
                    aw &= aw - 1;
                    let brow = b.row(k);
                    for (cw, &bw) in acc.iter_mut().zip(brow.iter()) {
                        *cw |= bw;
                    }
                }
            }
            if let Some(mrow) = mrow {
                for (cw, &mw) in acc.iter_mut().zip(mrow.iter()) {
                    *cw &= !mw;
                }
            }
            if acc.iter().any(|&w| w != 0) {
                crow.copy_from_slice(acc);
            }
        }
    });
}

impl BoolRepr for DenseBitMatrix {
    const REPR: &'static str = "dense";
    const ON_DEVICE: &'static str = "dense-par";
    type Len = DenseLenMatrix;

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
    /// Nothing to own: the row scratch is the thread's.
    fn kernel() -> impl FnMut(MaskedJob<'_, Self>) -> (Self, Option<u64>) {
        |(a, b, mask): MaskedJob<'_, Self>| (a.multiply_masked_opt(b, mask), None)
    }
}

impl DenseBitMatrix {
    /// Sets every bit of `pairs` in place; returns `true` if any bit was
    /// newly set. This is the point-update path behind
    /// `BoolEngine::union_pairs` — a `GraphIndex` absorbing an edge batch
    /// touches only the addressed words instead of building a whole
    /// matrix to union.
    ///
    /// # Panics
    ///
    /// If a pair names a row or column `>= n`; the matrix is unchanged.
    pub fn insert_pairs(&mut self, pairs: &[(u32, u32)]) -> bool {
        for &pair in pairs {
            assert_in_range(self.n, pair);
        }
        let mut changed = false;
        for &(i, j) in pairs {
            let w = &mut self.bits[i as usize * self.wpr + j as usize / 64];
            let bit = 1u64 << (j % 64);
            changed |= *w & bit == 0;
            *w |= bit;
        }
        changed
    }

    /// `self \ other` — bits set in `self` but not `other`. Used by the
    /// semi-naive (delta) closure variant in `cfpq-core`.
    pub fn difference(&self, other: &DenseBitMatrix) -> DenseBitMatrix {
        assert_eq!(self.n, other.n, "dimension mismatch");
        let mut out = self.clone();
        for (a, &b) in out.bits.iter_mut().zip(other.bits.iter()) {
            *a &= !b;
        }
        out
    }

    /// `self ∩ other` — bitwise AND. Used by the conjunctive-grammar
    /// extension in `cfpq-core`.
    pub fn intersect(&self, other: &DenseBitMatrix) -> DenseBitMatrix {
        assert_eq!(self.n, other.n, "dimension mismatch");
        let mut out = self.clone();
        for (a, &b) in out.bits.iter_mut().zip(other.bits.iter()) {
            *a &= b;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut m = DenseBitMatrix::zeros(100);
        m.set(0, 0);
        m.set(63, 64);
        m.set(99, 99);
        assert!(m.get(0, 0) && m.get(63, 64) && m.get(99, 99));
        assert!(!m.get(0, 1));
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.pairs(), vec![(0, 0), (63, 64), (99, 99)]);
    }

    #[test]
    fn identity_multiplication() {
        let m = DenseBitMatrix::from_pairs(10, &[(1, 2), (3, 4), (9, 0)]);
        let id = DenseBitMatrix::identity(10);
        assert_eq!(m.multiply(&id), m);
        assert_eq!(id.multiply(&m), m);
    }

    #[test]
    fn small_product() {
        // Path 0 -> 1 -> 2 composes to 0 -> 2.
        let a = DenseBitMatrix::from_pairs(3, &[(0, 1)]);
        let b = DenseBitMatrix::from_pairs(3, &[(1, 2)]);
        let c = a.multiply(&b);
        assert_eq!(c.pairs(), vec![(0, 2)]);
    }

    #[test]
    fn product_matches_naive_reference() {
        // Pseudo-random matrices vs an O(n^3) triple loop.
        let n = 70usize;
        let mut a = DenseBitMatrix::zeros(n);
        let mut b = DenseBitMatrix::zeros(n);
        let mut state = 0x12345678u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..300 {
            a.set((next() % n as u64) as u32, (next() % n as u64) as u32);
            b.set((next() % n as u64) as u32, (next() % n as u64) as u32);
        }
        let c = a.multiply(&b);
        for i in 0..n as u32 {
            for j in 0..n as u32 {
                let expect = (0..n as u32).any(|k| a.get(i, k) && b.get(k, j));
                assert_eq!(c.get(i, j), expect, "cell ({i},{j})");
            }
        }
    }

    #[test]
    fn union_detects_change() {
        let mut a = DenseBitMatrix::from_pairs(5, &[(0, 1)]);
        let b = DenseBitMatrix::from_pairs(5, &[(0, 1), (2, 3)]);
        assert!(a.union_in_place(&b));
        assert!(!a.union_in_place(&b), "second union is a no-op");
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn transpose_involution() {
        let m = DenseBitMatrix::from_pairs(8, &[(0, 7), (3, 3), (5, 1)]);
        assert_eq!(m.transpose().transpose(), m);
        assert!(m.transpose().get(7, 0));
    }

    #[test]
    fn zero_sized_matrix() {
        let m = DenseBitMatrix::zeros(0);
        let c = m.multiply(&m);
        assert_eq!(c.n(), 0);
        assert!(c.is_zero());
    }

    #[test]
    fn row_cols_sorted() {
        use crate::BoolMat;
        let m = DenseBitMatrix::from_pairs(130, &[(1, 100), (1, 3), (1, 64)]);
        assert_eq!(m.row_cols(1).collect::<Vec<_>>(), vec![3, 64, 100]);
        assert_eq!(m.row_cols(0).count(), 0);
    }
}

#[cfg(test)]
mod setops_tests {
    use super::*;

    #[test]
    fn difference_and_intersect() {
        let a = DenseBitMatrix::from_pairs(4, &[(0, 1), (2, 3), (3, 3)]);
        let b = DenseBitMatrix::from_pairs(4, &[(2, 3), (1, 1)]);
        assert_eq!(a.difference(&b).pairs(), vec![(0, 1), (3, 3)]);
        assert_eq!(a.intersect(&b).pairs(), vec![(2, 3)]);
        assert!(a.difference(&a).is_zero());
        assert_eq!(a.intersect(&a), a);
    }

    #[test]
    fn insert_pairs_in_place() {
        let mut m = DenseBitMatrix::from_pairs(130, &[(0, 1), (64, 64)]);
        assert!(m.insert_pairs(&[(0, 1), (2, 100)]), "one new bit");
        assert_eq!(m.pairs(), vec![(0, 1), (2, 100), (64, 64)]);
        assert!(!m.insert_pairs(&[(0, 1), (64, 64)]), "all known");
        assert!(!m.insert_pairs(&[]), "empty batch is a no-op");
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn masked_product_equals_product_minus_mask() {
        let n = 70usize;
        let mut a = DenseBitMatrix::zeros(n);
        let mut b = DenseBitMatrix::zeros(n);
        let mut mask = DenseBitMatrix::zeros(n);
        for i in 0..n as u32 {
            a.set(i, (i * 7 + 3) % n as u32);
            b.set(i, (i * 13 + 5) % n as u32);
            mask.set(i, (i * 11 + 2) % n as u32);
            mask.set((i * 3) % n as u32, i);
        }
        let expect = a.multiply(&b).difference(&mask);
        assert_eq!(a.multiply_masked(&b, &mask), expect);
        assert!(a.multiply_masked(&b, &mask).intersect(&mask).is_zero());
    }

    #[test]
    fn masked_product_against_full_mask_is_zero() {
        let mut full = DenseBitMatrix::zeros(9);
        for i in 0..9u32 {
            for j in 0..9u32 {
                full.set(i, j);
            }
        }
        let a = DenseBitMatrix::from_pairs(9, &[(0, 1), (5, 5)]);
        assert!(a.multiply_masked(&a, &full).is_zero());
    }
}

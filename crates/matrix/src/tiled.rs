//! Block-tiled Boolean matrices: fixed-size bitset tiles in a
//! CSR-of-tiles layout.
//!
//! The flat representations cap out in two different ways on large
//! graphs: [`crate::DenseBitMatrix`] spends `O(n²/64)` words per matrix
//! regardless of structure (a 100k-node graph needs ~1.3 GB *per
//! nonterminal*), while [`crate::CsrMatrix`] pays a per-entry merge for
//! every set bit it touches. GPU/SIMD CFPQ follow-ups (the arXiv
//! extension of the paper, and the Kronecker line of work) sidestep both
//! with a *blocked* matrix: only non-empty fixed-size tiles are stored,
//! and the product is a sum of small dense bitwise kernels that stay
//! cache-resident.
//!
//! [`TiledBitMatrix`] is that representation on the CPU device:
//!
//! * the `n × n` bit space is cut into `TILE × TILE` (64 × 64) tiles —
//!   one tile is 64 `u64` words = 512 bytes, comfortably L1-resident;
//! * per tile-row, the non-empty tiles are stored in the CSR storage
//!   of [`crate::sparse`], `Csr<[u64; 64]>`: a row is a tile-row, a
//!   column a tile-column, a cell's value the tile. The set operations
//!   are therefore the shared row splice with this module's `Cell`
//!   implementation — OR, AND-NOT and AND of two tiles stored at the
//!   same place, an emptied tile dropped — and cost the tiles of their
//!   smaller operand; a union that adds no bit leaves the storage where
//!   it is. The product is the shared flat loop too (`Csr::multiply`),
//!   with this module's `TileAccumulator` as the row accumulator. Only
//!   construction (bits are packed into tiles as they stream in) and the
//!   tile kernels below are this module's own;
//! * a pass costs what the matrix stores, not its `⌈n / 64⌉` tile-rows:
//!   a product walks the stored tiles of its left operand flat and
//!   gallops over each run of tile-rows they leave empty, a build jumps
//!   from the tile-row of one pair to that of the next, and
//!   [`TiledBitMatrix::pairs`] gallops from one stored tile-row to the
//!   next. All that is left per tile-row is a bulk fill: the row ends a
//!   product or a build writes for an empty run in one `resize`, and the
//!   build's tile-column scratch;
//! * `C_{ij} |= A_{ik} × B_{kj}` runs a dense bitset kernel per tile
//!   pair, and a left tile `A_{ik}` goes through its *panel* — the `nb`
//!   stored tiles of `B`'s tile-row `k` — whichever of two ways costs
//!   fewer word-ORs. *Left-driven*, the classic kernel: for every set
//!   bit `(r, k')` of `A_{ik}`, OR row `k'` of the panel tile into row
//!   `r` of the accumulator — `|A_{ik}| · nb` ORs. *Right-driven*:
//!   transpose `A_{ik}` once, then for every set bit `(k', j')` of the
//!   panel OR column `k'` of `A_{ik}` into row `j'` of a transposed
//!   accumulator — `|B_{k*}|` ORs — and transpose each such accumulator
//!   back into the ordinary one when the tile-row is drained. A dense Δ
//!   against a sparse label matrix (`ΔS × T_b`) is cheap right-driven
//!   and the same pair the other way round (`T_a × ΔS`) is cheap
//!   left-driven, so a sweep costs its sparser operands. The choice is
//!   made from popcounts of the two operands alone
//!   (`TileAccumulator::right_driven_is_cheaper`, where the rule and
//!   its unit live), is not configurable, and cannot show in a result:
//!   both paths feed one accumulator ahead of masking, the zero-tile
//!   test and the skip accounting;
//! * tile pairs whose counterpart tile-row in `B` is empty are skipped
//!   without touching any bit (counted in
//!   [`crate::engine::KernelCounters::tiles_skipped`]);
//! * tile-row blocks of the product are dispatched in parallel across
//!   the existing [`Device`] pool, exactly like the flat kernels.
//!
//! The canonical-form invariant — **no stored all-zero tile, tile
//! columns strictly ascending per tile-row** — is maintained by every
//! constructor and operation, so derived `PartialEq` is semantic
//! equality.

use crate::device::Device;
use crate::engine::{word_bits, BoolMat, MaskedJob};
use crate::length::TiledLenMatrix;
use crate::repr::BoolRepr;
use crate::sparse::{assert_in_range, Cell, Csr, RowAccumulator, RowCells};
use std::cell::RefCell;
use std::ops::Range;

/// Tile edge length in bits. One tile is `TILE` `u64` words.
pub const TILE: usize = 64;

pub(crate) type TileWords = [u64; TILE];

pub(crate) const EMPTY_TILE: TileWords = [0u64; TILE];

/// An `n × n` Boolean matrix stored as non-empty 64×64 bitset tiles in
/// a CSR-of-tiles layout.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TiledBitMatrix {
    n: usize,
    /// One row per tile-row (`ceil(n / TILE)` of them), one cell per
    /// stored tile: `cols[t]` is its tile-column and `vals[t][r]` holds
    /// bit columns `cols[t]*64 .. +64` of global row `tile_row(t)*64 + r`.
    csr: Csr<TileWords>,
}

#[inline]
pub(crate) fn tile_count(n: usize) -> usize {
    n.div_ceil(TILE)
}

#[inline]
fn tile_is_zero(t: &TileWords) -> bool {
    t.iter().all(|&w| w == 0)
}

/// `tile`, unless it is empty: the canonical form stores no zero tile.
fn nonzero(tile: TileWords) -> Option<TileWords> {
    (!tile_is_zero(&tile)).then_some(tile)
}

/// Two tiles stored at the same place combine word by word.
impl Cell for TileWords {
    fn absorb(&mut self, other: &Self) -> bool {
        let mut grew = 0u64;
        for (w, &o) in self.iter_mut().zip(other) {
            grew |= o & !*w;
            *w |= o;
        }
        grew != 0
    }

    fn minus(&self, other: &Self) -> Option<Self> {
        nonzero(std::array::from_fn(|r| self[r] & !other[r]))
    }

    fn meet(&self, other: &Self) -> Option<Self> {
        nonzero(std::array::from_fn(|r| self[r] & other[r]))
    }
}

impl TiledBitMatrix {
    /// Creates the zero matrix of size `n × n`.
    pub fn zeros(n: usize) -> Self {
        let csr = Csr::empty(tile_count(n));
        Self { n, csr }
    }

    /// Builds a matrix from `(row, col)` pairs in `O(nnz)` if they come
    /// row-major-sorted — what `pairs()` emits on every representation —
    /// and after sorting a copy if not.
    ///
    /// # Panics
    ///
    /// If a pair names a row or column `>= n`.
    pub fn from_pairs(n: usize, pairs: &[(u32, u32)]) -> Self {
        if pairs.is_sorted() {
            return Self::from_sorted_pairs(n, pairs);
        }
        let mut sorted = pairs.to_vec();
        sorted.sort_unstable();
        Self::from_sorted_pairs(n, &sorted)
    }

    /// The `O(nnz)` builder for row-major-sorted pairs: each tile-row is
    /// a contiguous run of the input, so tiles are filled first-touch via
    /// a `tile_col → slot` scratch (no global sort) and only the
    /// per-tile-row column lists are sorted at the end of their run. The
    /// tile-rows between two runs get their row ends in one bulk write,
    /// and the storage is cut to its exact size at the end: a label's
    /// matrix lives as long as its index.
    fn from_sorted_pairs(n: usize, pairs: &[(u32, u32)]) -> Self {
        debug_assert!(pairs.is_sorted());
        let tn = tile_count(n);
        let mut csr: Csr<TileWords> = Csr::with_capacity(tn, 0);
        let mut slot_of: Vec<u32> = vec![u32::MAX; tn];
        let mut k = 0usize;
        while let Some(&first) = pairs.get(k) {
            // Refused before its tile-row is opened: a row past the last
            // tile names none.
            assert_in_range(n, first);
            let ti = first.0 as usize / TILE;
            csr.row_ptr.resize(ti + 1, csr.nnz());
            let row_start = csr.nnz();
            while k < pairs.len() && pairs[k].0 as usize / TILE == ti {
                let (i, j) = pairs[k];
                assert_in_range(n, (i, j));
                let tj = j as usize / TILE;
                let mut slot = slot_of[tj];
                if slot == u32::MAX {
                    slot = csr.nnz() as u32;
                    slot_of[tj] = slot;
                    csr.push(tj as u32, EMPTY_TILE);
                }
                csr.vals[slot as usize][i as usize % TILE] |= 1u64 << (j as usize % TILE);
                k += 1;
            }
            // Restore the canonical ascending tile-col order for this
            // tile-row (first-touch order follows the rows, not the
            // columns) and release the scratch slots.
            let m = csr.nnz() - row_start;
            if m > 1 {
                let mut perm: Vec<u32> = (0..m as u32).collect();
                perm.sort_unstable_by_key(|&x| csr.cols[row_start + x as usize]);
                let cols: Vec<u32> = perm
                    .iter()
                    .map(|&x| csr.cols[row_start + x as usize])
                    .collect();
                let tls: Vec<TileWords> = perm
                    .iter()
                    .map(|&x| csr.vals[row_start + x as usize])
                    .collect();
                csr.cols[row_start..].copy_from_slice(&cols);
                csr.vals[row_start..].copy_from_slice(&tls);
            }
            for &tj in &csr.cols[row_start..] {
                slot_of[tj as usize] = u32::MAX;
            }
            csr.row_ptr.push(csr.nnz());
        }
        csr.row_ptr.resize(tn + 1, csr.nnz());
        csr.shrink();
        Self { n, csr }
    }

    /// Matrix dimension `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Tiles per side.
    #[inline]
    pub fn tile_rows(&self) -> usize {
        self.csr.rows()
    }

    /// Number of stored (non-empty) tiles.
    #[inline]
    pub fn stored_tiles(&self) -> usize {
        self.csr.nnz()
    }

    /// Reads bit `(i, j)`; cells outside the matrix read as unset.
    pub fn get(&self, i: u32, j: u32) -> bool {
        if i as usize >= self.n || j as usize >= self.n {
            return false;
        }
        self.csr
            .find(i as usize / TILE, j / TILE as u32)
            .is_some_and(|t| self.csr.vals[t][i as usize % TILE] >> (j as usize % TILE) & 1 == 1)
    }

    /// Number of set bits.
    pub fn nnz(&self) -> usize {
        self.csr.vals.iter().map(tile_bits).sum()
    }

    /// All set `(row, col)` pairs in row-major order; tile-rows that store
    /// nothing are galloped over, not visited.
    pub fn pairs(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.nnz());
        for ti in self.csr.occupied_rows() {
            for r in 0..TILE {
                let i = (ti * TILE + r) as u32;
                for t in self.csr.row(ti) {
                    let base = self.csr.cols[t] * TILE as u32;
                    let mut word = self.csr.vals[t][r];
                    while word != 0 {
                        out.push((i, base + word.trailing_zeros()));
                        word &= word - 1;
                    }
                }
            }
        }
        out
    }

    /// True if no bit is set.
    pub fn is_zero(&self) -> bool {
        self.csr.vals.is_empty()
    }

    /// Sets every bit of `pairs` in place; returns `true` if any bit was
    /// newly set. The point-update path behind `BoolEngine::union_pairs`:
    /// bits already set are filtered first — a no-op batch costs only the
    /// probes — and the rest is spliced in like any other union.
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
        !fresh.is_empty() && self.union_in_place(&Self::from_pairs(self.n, &fresh))
    }

    /// `self |= other` as one splice of tile-rows (see
    /// `sparse.rs::splice_rows`): it costs the tiles `other` stores, a
    /// tile both store is rewritten only if it gains a bit, and the
    /// storage is untouched if no bit is new. Returns `true` if any bit
    /// changed.
    pub fn union_in_place(&mut self, other: &TiledBitMatrix) -> bool {
        assert_eq!(self.n, other.n, "dimension mismatch");
        self.csr.union_in_place(&other.csr)
    }

    /// `self \ other` — bits set in `self` but not `other`; costs the
    /// tiles `self` stores.
    pub fn difference(&self, other: &TiledBitMatrix) -> TiledBitMatrix {
        assert_eq!(self.n, other.n, "dimension mismatch");
        let csr = self.csr.difference(&other.csr);
        Self { n: self.n, csr }
    }

    /// `self ∩ other` — bitwise AND; costs the tiles `self` stores.
    pub fn intersect(&self, other: &TiledBitMatrix) -> TiledBitMatrix {
        assert_eq!(self.n, other.n, "dimension mismatch");
        let csr = self.csr.intersect(&other.csr);
        Self { n: self.n, csr }
    }

    /// Grows the matrix to `n × n`, keeping existing bits. `n` must not
    /// shrink the matrix. Tile payloads are untouched — growth only adds
    /// empty tile-rows (and widens the valid bit range of edge tiles,
    /// whose out-of-range bits were zero by invariant).
    pub fn grow(&mut self, n: usize) {
        assert!(n >= self.n, "Boolean matrices only grow");
        self.csr.grow(tile_count(n));
        self.n = n;
    }

    /// Serial Boolean product `self × other`.
    pub fn multiply(&self, other: &TiledBitMatrix) -> TiledBitMatrix {
        self.multiply_masked_opt_on(other, None, None).0
    }

    /// Serial masked product `(self × other) \ mask` — see
    /// [`crate::engine::BoolEngine::multiply_masked`] for the contract.
    pub fn multiply_masked(&self, other: &TiledBitMatrix, mask: &TiledBitMatrix) -> TiledBitMatrix {
        self.multiply_masked_opt_on(other, Some(mask), None).0
    }

    /// The product entry point, `(self × other) \ mask?`, with tile-row
    /// blocks computed in parallel on the `device` pool if one is given.
    /// Also returns the number of tile-granular kernel launches avoided
    /// (empty counterpart tile-rows in `other`, plus accumulated output
    /// tiles that masking or cancellation left empty).
    pub fn multiply_masked_opt_on(
        &self,
        other: &TiledBitMatrix,
        mask: Option<&TiledBitMatrix>,
        device: Option<&Device>,
    ) -> (TiledBitMatrix, u64) {
        assert_eq!(self.n, other.n, "dimension mismatch");
        if let Some(m) = mask {
            assert_eq!(self.n, m.n, "mask dimension mismatch");
        }
        let n = self.n;
        let tn = self.tile_rows();
        let Some(device) = device.filter(|d| d.n_workers() > 1 && tn > 1) else {
            // One block is the whole product.
            let (csr, skipped) = self.multiply_block(other, mask, 0..tn);
            return (Self { n, csr }, skipped);
        };
        let blocks = device.par_map_ranges(tn, |range| self.multiply_block(other, mask, range));
        let skipped = blocks.iter().map(|(_, skipped)| skipped).sum();
        let csr = Csr::concat(blocks.into_iter().map(|(block, _)| block));
        debug_assert_eq!(csr.rows(), tn, "every tile-row stitched");
        (Self { n, csr }, skipped)
    }

    /// Computes tile-rows `rows` of `(self × other) \ mask?` as a block of
    /// their own (row ends relative to it), and the skipped-kernel count:
    /// the shared flat product (`sparse.rs::Csr::multiply`) over the
    /// stored tiles of `self`, on this thread's tile accumulator.
    fn multiply_block(
        &self,
        other: &TiledBitMatrix,
        mask: Option<&TiledBitMatrix>,
        rows: Range<usize>,
    ) -> (Csr<TileWords>, u64) {
        TILE_ACC.with_borrow_mut(|acc| {
            let mask = mask.map(|m| &m.csr);
            let (block, empty_panels) = self.csr.multiply(&other.csr, mask, rows, acc);
            (block, empty_panels + acc.dropped)
        })
    }
}

/// The left-driven 64×64 kernel: `c |= a × b` over the Boolean semiring.
/// For each tile row `r`, every set bit `k` of `a[r]` ORs `b`'s row `k`
/// into `c[r]` — one word-OR per set bit of `a`, whatever `b` holds.
#[inline]
fn tile_multiply_into(a: &TileWords, b: &TileWords, c: &mut TileWords) {
    for r in 0..TILE {
        let mut aw = a[r];
        if aw == 0 {
            continue;
        }
        let mut cw = c[r];
        while aw != 0 {
            cw |= b[aw.trailing_zeros() as usize];
            aw &= aw - 1;
        }
        c[r] = cw;
    }
}

/// The right-driven 64×64 kernel: `cᵀ |= (a × b)ᵀ`, given `a`'s columns
/// (`a_cols = aᵀ`). Every set bit `(k, j)` of `b` ORs column `k` of `a`
/// into column `j` of the product, which is row `j` of the transposed
/// accumulator — one word-OR per set bit of `b`, whatever `a` holds
/// (an empty column is OR-ed like any other: testing for it would put a
/// coin-flip branch in front of every row of a half-empty `a`).
#[inline]
fn tile_multiply_transposed_into(a_cols: &TileWords, b: &TileWords, c_cols: &mut TileWords) {
    for k in 0..TILE {
        let col = a_cols[k];
        let mut bw = b[k];
        while bw != 0 {
            c_cols[bw.trailing_zeros() as usize] |= col;
            bw &= bw - 1;
        }
    }
}

/// The 64×64 bit transpose: six rounds of block swaps (widths 32, 16, …
/// 1), 32 word pairs each. A round at width `j` exchanges, inside every
/// `2j × 2j` diagonal block, the upper-right `j × j` quadrant with the
/// lower-left one.
fn transpose_tile(tile: &TileWords) -> TileWords {
    let mut t = *tile;
    let mut j = TILE / 2;
    let mut low = u64::MAX >> j;
    while j != 0 {
        for block in (0..TILE).step_by(2 * j) {
            for r in block..block + j {
                let swap = ((t[r] >> j) ^ t[r + j]) & low;
                t[r] ^= swap << j;
                t[r + j] ^= swap;
            }
        }
        j /= 2;
        low ^= low << j;
    }
    t
}

/// What one [`transpose_tile`] costs in the unit
/// [`TileAccumulator::right_driven_is_cheaper`] counts in — word
/// operations, a kernel's OR of one word into another being one: six
/// rounds of 32 swaps.
const TRANSPOSE_OPS: usize = 6 * (TILE / 2);

#[inline]
pub(crate) fn tile_bits(t: &TileWords) -> usize {
    t.iter().map(|w| w.count_ones() as usize).sum()
}

/// A stamped set of tiles, one slot per tile-column: a slot belongs to
/// the current tile-row iff its stamp says so and is zeroed at first
/// touch, so starting a row clears nothing.
struct TileSlots {
    tiles: Vec<TileWords>,
    /// `stamp[tj] == cur` iff `tiles[tj]` belongs to the current row.
    stamp: Vec<u64>,
    touched: Vec<u32>,
}

impl TileSlots {
    const fn new() -> Self {
        Self {
            tiles: Vec::new(),
            stamp: Vec::new(),
            touched: Vec::new(),
        }
    }

    fn ensure(&mut self, tn: usize) {
        if self.tiles.len() < tn {
            self.tiles.resize(tn, EMPTY_TILE);
            self.stamp.resize(tn, 0);
        }
    }

    #[inline]
    fn tile(&mut self, cur: u64, tj: u32) -> &mut TileWords {
        let idx = tj as usize;
        if self.stamp[idx] != cur {
            self.stamp[idx] = cur;
            self.tiles[idx] = EMPTY_TILE;
            self.touched.push(tj);
        }
        &mut self.tiles[idx]
    }
}

/// Per-thread accumulator for one tile-row of a product: the row's
/// output tiles, a second set holding the transposes of what the
/// right-driven kernel produced, and the panel bit counts the path
/// choice reads. Reused across products via a thread-local (the device
/// workers are persistent), so no per-product `O(tn)` allocation or
/// zeroing happens — only tiles actually touched are cleared, at first
/// touch — and the right-driven half (as many tiles again, 512 B each)
/// is allocated by the first product on the thread that takes that path.
struct TileAccumulator {
    /// Stamp of the current tile-row. Bumped per row and per product and
    /// never reset, so one counter keys both tile sets and `panel_bits`.
    cur: u64,
    /// `cur` as the product in progress began.
    product: u64,
    row: TileSlots,
    transposed: TileSlots,
    /// `panel_bits[k] == (product, bits)` iff `bits` is the popcount of
    /// the right operand's tile-row `k` in the product in progress.
    panel_bits: Vec<(u64, usize)>,
    /// Tiles of the product in progress that were accumulated but drained
    /// empty — masked out whole, or cancelled.
    dropped: u64,
}

impl TileAccumulator {
    const fn new() -> Self {
        Self {
            cur: 0,
            product: 0,
            row: TileSlots::new(),
            transposed: TileSlots::new(),
            panel_bits: Vec::new(),
            dropped: 0,
        }
    }

    #[inline]
    fn tile(&mut self, tj: u32) -> &mut TileWords {
        self.row.tile(self.cur, tj)
    }

    #[inline]
    fn transposed_tile(&mut self, tj: u32) -> &mut TileWords {
        self.transposed.ensure(self.row.tiles.len());
        self.transposed.tile(self.cur, tj)
    }

    /// Transposes back what the right-driven kernel accumulated for this
    /// tile-row and ORs it into the row's ordinary tiles, so masking and
    /// the drain see one row.
    fn fold_transposed(&mut self) {
        for &tj in &self.transposed.touched {
            let back = transpose_tile(&self.transposed.tiles[tj as usize]);
            for (w, b) in self.row.tile(self.cur, tj).iter_mut().zip(back) {
                *w |= b;
            }
        }
        self.transposed.touched.clear();
    }

    /// Picks the path of one left tile `a` — tile-column `k`, one of
    /// `row_len` stored in its tile-row — through its `panel`, the `nb`
    /// stored tiles of the right operand's tile-row `k`, by counting
    /// both paths in word operations:
    ///
    /// * left-driven ([`tile_multiply_into`]): an OR per set bit of `a`
    ///   for every panel tile, `|a| · nb`;
    /// * right-driven ([`tile_multiply_transposed_into`]): one transpose
    ///   of `a`, an OR per set bit of the panel, and at the drain a
    ///   transpose and a 64-word OR for every transposed accumulator
    ///   touched — at most `nb`, of which this tile is charged its
    ///   `1 / row_len` share, the row's other left tiles filling the
    ///   same ones.
    ///
    /// Both counts are read off the operands alone, so a product takes
    /// the same paths wherever and however often it runs, and its bits
    /// never depend on them. Counting stays below the work it steers by
    /// first holding left-driven to what right-driven costs at its best
    /// (its transposes, and one bit in each stored panel tile): a tile
    /// whose non-empty rows, were they full, stay under that is not
    /// popcounted; one whose bits stay under it is not compared; and a
    /// panel is popcounted once per product, when the first left tile
    /// that needs the comparison meets it.
    fn right_driven_is_cheaper(
        &mut self,
        a: &TileWords,
        k: usize,
        panel: &[TileWords],
        row_len: usize,
    ) -> bool {
        let nb = panel.len();
        let transposes = TRANSPOSE_OPS + ((TRANSPOSE_OPS + TILE) * nb).div_ceil(row_len);
        let right_at_best = transposes + nb;
        let nonzero_rows = a.iter().filter(|&&w| w != 0).count();
        if TILE * nonzero_rows * nb <= right_at_best {
            return false;
        }
        let left = tile_bits(a) * nb;
        if left <= right_at_best {
            return false;
        }
        if self.panel_bits.len() < self.row.tiles.len() {
            self.panel_bits.resize(self.row.tiles.len(), (0, 0));
        }
        if self.panel_bits[k].0 != self.product {
            self.panel_bits[k] = (self.product, panel.iter().map(tile_bits).sum());
        }
        transposes + self.panel_bits[k].1 < left
    }
}

/// The tile-row of the shared flat product: a left tile `a` at
/// tile-column `k` goes through its panel, the stored tiles of the right
/// operand's tile-row `k`, on whichever kernel costs fewer word-ORs.
impl RowAccumulator<TileWords> for TileAccumulator {
    /// Starts a product (or a device block of one): a fresh stamp for its
    /// panel counts and first tile-row, nothing dropped yet, and nothing
    /// left of a product that panicked halfway on this thread.
    fn fit(&mut self, tn: usize) {
        self.row.ensure(tn);
        self.cur += 1;
        self.product = self.cur;
        self.dropped = 0;
        self.row.touched.clear();
        self.transposed.touched.clear();
    }

    #[inline]
    fn add(
        &mut self,
        a: &TileWords,
        _i: usize,
        k: u32,
        row_len: usize,
        cols: &[u32],
        panel: &[TileWords],
    ) {
        if self.right_driven_is_cheaper(a, k as usize, panel, row_len) {
            let a_cols = transpose_tile(a);
            for (&tj, b) in cols.iter().zip(panel) {
                tile_multiply_transposed_into(&a_cols, b, self.transposed_tile(tj));
            }
        } else {
            for (&tj, b) in cols.iter().zip(panel) {
                tile_multiply_into(a, b, self.tile(tj));
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.row.touched.is_empty() && self.transposed.touched.is_empty()
    }

    /// Appends the row's tiles in ascending tile-column order (canonical
    /// form), each less the bits of the mask tile at its tile-column,
    /// counting instead of storing those left empty, and moves to a fresh
    /// stamp. Masking and draining are one pass, while the tile is hot.
    fn drain_into(&mut self, mask: Option<RowCells<'_, TileWords>>, out: &mut Csr<TileWords>) {
        self.fold_transposed();
        self.row.touched.sort_unstable();
        for &tj in &self.row.touched {
            let tile = &mut self.row.tiles[tj as usize];
            if let Some((cols, mask)) = mask {
                if let Ok(at) = cols.binary_search(&tj) {
                    for (w, &m) in tile.iter_mut().zip(&mask[at]) {
                        *w &= !m;
                    }
                }
            }
            if tile_is_zero(tile) {
                self.dropped += 1;
            } else {
                out.push(tj, *tile);
            }
        }
        self.row.touched.clear();
        self.cur += 1;
    }
}

thread_local! {
    static TILE_ACC: RefCell<TileAccumulator> = const { RefCell::new(TileAccumulator::new()) };
}

impl BoolMat for TiledBitMatrix {
    fn n(&self) -> usize {
        TiledBitMatrix::n(self)
    }
    fn get(&self, i: u32, j: u32) -> bool {
        TiledBitMatrix::get(self, i, j)
    }
    fn nnz(&self) -> usize {
        TiledBitMatrix::nnz(self)
    }
    fn pairs(&self) -> Vec<(u32, u32)> {
        TiledBitMatrix::pairs(self)
    }
    /// Word `i % 64` of each tile stored in tile-row `i / 64`; the tile
    /// columns ascend, so the bit columns do.
    fn row_cols(&self, i: u32) -> impl Iterator<Item = u32> + '_ {
        let (ti, r) = (i as usize / TILE, i as usize % TILE);
        let tiles = if (i as usize) < self.n {
            self.csr.row(ti)
        } else {
            0..0
        };
        tiles.flat_map(move |t| {
            let base = self.csr.cols[t] * TILE as u32;
            word_bits(self.csr.vals[t][r]).map(move |bit| base + bit)
        })
    }
    fn bytes(&self) -> usize {
        self.csr.bytes()
    }
}

impl BoolRepr for TiledBitMatrix {
    const REPR: &'static str = "tiled";
    const ON_DEVICE: &'static str = "tiled";
    /// The same tiles, with each tile's lengths in an arena by bit rank.
    type Len = TiledLenMatrix;

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
    /// Nothing to own: the tile accumulator is the thread's.
    fn kernel() -> impl FnMut(MaskedJob<'_, Self>, Option<&Device>) -> (Self, Option<u64>) {
        |(a, b, mask): MaskedJob<'_, Self>, device: Option<&Device>| {
            let (product, skipped) = a.multiply_masked_opt_on(b, mask, device);
            (product, Some(skipped))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BoolEngine, TiledEngine};

    fn pseudo_pairs(n: usize, count: usize, seed: u64) -> Vec<(u32, u32)> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        (0..count)
            .map(|_| (next() % n as u32, next() % n as u32))
            .collect()
    }

    #[test]
    fn set_get_roundtrip_across_tile_boundaries() {
        let m = TiledBitMatrix::from_pairs(130, &[(0, 0), (63, 64), (64, 63), (129, 129)]);
        assert!(m.get(0, 0) && m.get(63, 64) && m.get(64, 63) && m.get(129, 129));
        assert!(!m.get(0, 1) && !m.get(128, 129));
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.pairs(), vec![(0, 0), (63, 64), (64, 63), (129, 129)]);
    }

    #[test]
    fn canonical_form_stores_no_empty_tiles() {
        let a = TiledBitMatrix::from_pairs(200, &[(0, 0), (70, 70)]);
        assert_eq!(a.stored_tiles(), 2);
        let d = a.difference(&a);
        assert!(d.is_zero());
        assert_eq!(d.stored_tiles(), 0);
        // Two semantically equal matrices built differently are ==.
        let mut b = TiledBitMatrix::zeros(200);
        b.insert_pairs(&[(70, 70)]);
        b.insert_pairs(&[(0, 0)]);
        assert_eq!(a, b);
    }

    #[test]
    fn a_built_matrix_holds_exactly_its_tiles() {
        // Three tiles in the first tile-row and two in the fourth: grown
        // tile by tile, the storage would keep room for eight.
        let n = 250;
        let mut pairs = pseudo_pairs(n, 400, 7);
        pairs.retain(|&(i, j)| i < 64 && j < 192);
        pairs.extend([(200, 100), (249, 249)]);
        let m = TiledBitMatrix::from_pairs(n, &pairs);
        assert_eq!(m.stored_tiles(), 5);
        let exact = m.stored_tiles() * (std::mem::size_of::<TileWords>() + 4)
            + (tile_count(n) + 1) * std::mem::size_of::<usize>();
        assert_eq!(m.bytes(), exact);
    }

    #[test]
    fn sorted_fast_path_builds_the_same_matrix() {
        // Row-major-sorted input (what pairs() emits) goes straight to
        // the O(nnz) streaming builder and unsorted input is sorted
        // first; both must produce the same canonical form, including
        // multi-tile rows whose tiles are first-touched out of column
        // order.
        let n = 300usize;
        let unsorted = pseudo_pairs(n, 2000, 0xFA57);
        let reference = TiledBitMatrix::from_pairs(n, &unsorted);
        let sorted = reference.pairs();
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        let rebuilt = TiledBitMatrix::from_pairs(n, &sorted);
        assert_eq!(rebuilt, reference);
        assert_eq!(rebuilt.csr.row_ptr, reference.csr.row_ptr);
        assert_eq!(rebuilt.csr.cols, reference.csr.cols);

        // Runs of empty tile-rows before, between and after the stored
        // ones: `pairs()` and the builder skip them, and the round trip
        // still gives back the input, sorted and without duplicates.
        let mut banded = banded_pairs(2000, 0xFA57);
        let reference = TiledBitMatrix::from_pairs(BANDED_N, &banded);
        banded.sort_unstable();
        banded.dedup();
        assert_eq!(reference.pairs(), banded);
        let occupied: Vec<usize> = reference.csr.occupied_rows().collect();
        assert_eq!(occupied, [0, 25, 50]);
        let rebuilt = TiledBitMatrix::from_pairs(BANDED_N, &reference.pairs());
        assert_eq!(rebuilt, reference);
        assert_eq!(rebuilt.csr.row_ptr.len(), 52);
        let shifted: Vec<(u32, u32)> = banded.iter().map(|&(i, j)| (i + 64, j)).collect();
        let shifted = TiledBitMatrix::from_pairs(BANDED_N + 64, &shifted);
        assert_eq!(shifted.csr.occupied_rows().collect::<Vec<_>>(), [1, 26, 51]);
        assert!(TiledBitMatrix::zeros(BANDED_N).pairs().is_empty());

        // A row in the edge tile's padding, or past the tile grid, is
        // still refused after the builder skipped the empty tile-rows.
        for bad in [(BANDED_N as u32 + 5, 0), (BANDED_N as u32 + 64, 0)] {
            for pairs in [vec![bad], vec![(3, 3), bad]] {
                let refusal = std::panic::catch_unwind(|| {
                    TiledBitMatrix::from_pairs(BANDED_N, &pairs);
                })
                .expect_err("a row outside the matrix is refused");
                let message = refusal
                    .downcast_ref::<String>()
                    .expect("a formatted message");
                assert_eq!(
                    *message,
                    format!(
                        "pair ({}, 0) is outside the {BANDED_N} × {BANDED_N} matrix",
                        bad.0
                    )
                );
            }
        }
    }

    /// `64·50 + 17` nodes: 51 tile-rows, the last one 17 rows deep.
    const BANDED_N: usize = 64 * 50 + 17;

    /// `count` pairs of a [`BANDED_N`] matrix whose rows fall in its
    /// first, middle and last tile-rows, with 24 empty tile-rows between
    /// each, and every other column in the same three tile-columns, so
    /// that two such matrices meet in stored panels as well as empty ones.
    fn banded_pairs(count: usize, seed: u64) -> Vec<(u32, u32)> {
        let band = |x: u32| {
            let (start, len) = [(0, 64), (25 * 64, 64), (50 * 64, 17)][x as usize % 3];
            start + x / 3 % len
        };
        pseudo_pairs(BANDED_N, count, seed)
            .into_iter()
            .enumerate()
            .map(|(e, (i, j))| (band(i), if e % 2 == 0 { band(j) } else { j }))
            .collect()
    }

    /// [`banded_pairs`] plus a full tile at tile `(25, 0)`, which meets
    /// its panel right-driven.
    fn banded_with_full_tile(count: usize, seed: u64) -> Vec<(u32, u32)> {
        let mut pairs = banded_pairs(count, seed);
        pairs.extend((25 * 64..26 * 64).flat_map(|i| (0..64).map(move |j| (i, j))));
        pairs
    }

    #[test]
    fn product_matches_dense_reference() {
        let n = 157usize; // deliberately not a multiple of 64
        let pa = pseudo_pairs(n, 600, 0xA11CE);
        let pb = pseudo_pairs(n, 600, 0xB0B);
        // Stored tiles in three tile-rows out of 51, one tile full (it goes
        // right-driven), against each other and against an operand that
        // stores something in every tile-row.
        let banded = banded_with_full_tile(400, 0xA11CE);
        let uniform = pseudo_pairs(BANDED_N, 3000, 0xC0DE);
        for (n, pa, pb) in [
            (n, &pa, &pb),
            (BANDED_N, &banded, &banded_pairs(400, 0xB0B)),
            (BANDED_N, &banded, &uniform),
            (BANDED_N, &uniform, &banded),
        ] {
            let a = TiledBitMatrix::from_pairs(n, pa);
            let b = TiledBitMatrix::from_pairs(n, pb);
            let da = crate::DenseBitMatrix::from_pairs(n, pa);
            let db = crate::DenseBitMatrix::from_pairs(n, pb);
            assert_eq!(a.multiply(&b).pairs(), da.multiply(&db).pairs(), "n = {n}");
        }
    }

    #[test]
    fn masked_product_equals_product_minus_mask() {
        let n = 157usize;
        let uniform = |count, seed| TiledBitMatrix::from_pairs(n, &pseudo_pairs(n, count, seed));
        let banded = |pairs: Vec<(u32, u32)>| TiledBitMatrix::from_pairs(BANDED_N, &pairs);
        for (a, b, mask) in [
            (uniform(500, 1), uniform(500, 2), uniform(900, 3)),
            (
                banded(banded_with_full_tile(400, 1)),
                banded(banded_pairs(400, 2)),
                banded(banded_pairs(900, 3)),
            ),
        ] {
            let expect = a.multiply(&b).difference(&mask);
            assert!(!expect.is_zero() && expect != a.multiply(&b));
            let got = a.multiply_masked(&b, &mask);
            assert_eq!(got, expect);
            assert!(got.intersect(&mask).is_zero());
        }
    }

    #[test]
    fn parallel_product_equals_serial() {
        let n = 300usize;
        let uniform = |seed| TiledBitMatrix::from_pairs(n, &pseudo_pairs(n, 2000, seed));
        let banded = |pairs: Vec<(u32, u32)>| TiledBitMatrix::from_pairs(BANDED_N, &pairs);
        // At widths 2 and 3 the 51 banded tile-rows split at 26 and at
        // 17 and 34: every block starts or ends inside an empty run.
        for (a, b, mask) in [
            (uniform(7), uniform(8), uniform(9)),
            (
                banded(banded_with_full_tile(400, 7)),
                banded(banded_pairs(400, 8)),
                banded(banded_pairs(900, 9)),
            ),
        ] {
            for mask in [Some(&mask), None] {
                let serial = a.multiply_masked_opt_on(&b, mask, None);
                for workers in [1usize, 2, 3, 4] {
                    let d = Device::new(workers);
                    let par = a.multiply_masked_opt_on(&b, mask, Some(&d));
                    assert_eq!(par, serial, "workers = {workers}");
                }
            }
        }
    }

    #[test]
    fn transpose_matches_the_bit_by_bit_definition_and_undoes_itself() {
        let mut tile = EMPTY_TILE;
        for (i, j) in pseudo_pairs(TILE, 700, 0x7A) {
            tile[i as usize] |= 1 << j;
        }
        // An asymmetric frame, so a transpose about the wrong diagonal or
        // a shift in the wrong direction cannot pass: the whole first row
        // and the last cell of the second.
        tile[0] = u64::MAX;
        tile[1] |= 1 << 63;
        let mut expect = EMPTY_TILE;
        for (r, &word) in tile.iter().enumerate() {
            for c in (0..TILE).filter(|c| word >> c & 1 == 1) {
                expect[c] |= 1 << r;
            }
        }
        let transposed = transpose_tile(&tile);
        assert_eq!(transposed, expect);
        assert_ne!(transposed, tile);
        assert_eq!(transpose_tile(&transposed), tile);
        assert_eq!(transpose_tile(&EMPTY_TILE), EMPTY_TILE);
    }

    #[test]
    fn one_tile_row_takes_both_paths_into_the_same_output_tiles() {
        // 3 × 3 tiles. Tile-row 0 of `a` stores a full tile in column 0
        // and a two-bit tile in column 1; tile-rows 0 and 1 of `b` are
        // sparse panels over all three tile-columns. The full tile costs
        // 4096 · 3 ORs left-driven against one per panel bit, so it goes
        // right-driven; the two-bit tile cannot pay for a transpose; and
        // both land in output tiles (0, 0), (0, 1) and (0, 2).
        let n = 3 * TILE;
        let mut pa: Vec<(u32, u32)> = (0..64).flat_map(|i| (0..64).map(move |j| (i, j))).collect();
        pa.extend([(3, 70), (40, 100)]);
        let mut pb: Vec<(u32, u32)> = pseudo_pairs(n, 120, 0xB16)
            .into_iter()
            .filter(|&(i, _)| i < 128)
            .collect();
        pb.extend([(5, 5), (5, 69), (5, 133), (70, 6), (70, 70), (100, 134)]);
        let a = TiledBitMatrix::from_pairs(n, &pa);
        let b = TiledBitMatrix::from_pairs(n, &pb);
        assert_eq!((a.stored_tiles(), b.stored_tiles()), (2, 6));

        let mut chooser = TileAccumulator::new();
        chooser.fit(a.tile_rows());
        assert!(chooser.right_driven_is_cheaper(&a.csr.vals[0], 0, &b.csr.vals[..3], 2));
        assert!(!chooser.right_driven_is_cheaper(&a.csr.vals[1], 1, &b.csr.vals[3..], 2));

        // Output tile (0, 1) fully masked, (0, 2) partly.
        let mut pm: Vec<(u32, u32)> = (0..64)
            .flat_map(|i| (64..128).map(move |j| (i, j)))
            .collect();
        pm.extend((0..64).map(|i| (i, 128 + i)));
        let mask = TiledBitMatrix::from_pairs(n, &pm);
        let (da, db, dm) = (
            crate::DenseBitMatrix::from_pairs(n, &pa),
            crate::DenseBitMatrix::from_pairs(n, &pb),
            crate::DenseBitMatrix::from_pairs(n, &pm),
        );

        let allocated = || TILE_ACC.with_borrow(|acc| acc.transposed.tiles.len());
        assert_eq!(allocated(), 0, "no right-driven product on this thread yet");
        let (plain, skipped) = a.multiply_masked_opt_on(&b, None, None);
        assert_eq!(
            allocated(),
            a.tile_rows(),
            "the full tile went right-driven"
        );
        assert!(plain.pairs() == da.multiply(&db).pairs());
        assert_eq!(skipped, 0);
        let (masked, skipped) = a.multiply_masked_opt_on(&b, Some(&mask), None);
        assert!(masked.pairs() == da.multiply(&db).difference(&dm).pairs());
        assert_eq!(skipped, 1, "output tile (0, 1) is masked out whole");
        assert_eq!(masked.stored_tiles(), 2);
    }

    #[test]
    #[should_panic(expected = "pair (0, 131) is outside the 130 × 130 matrix")]
    fn from_pairs_rejects_a_column_in_the_edge_tiles_padding() {
        TiledBitMatrix::from_pairs(130, &[(0, 131)]);
    }

    #[test]
    #[should_panic(expected = "pair (0, 200) is outside the 130 × 130 matrix")]
    fn from_pairs_rejects_a_column_past_the_tile_grid() {
        TiledBitMatrix::from_pairs(130, &[(0, 200)]);
    }

    #[test]
    #[should_panic(expected = "pair (0, 150) is outside the 130 × 130 matrix")]
    fn insert_pairs_rejects_a_column_in_the_edge_tiles_padding() {
        TiledBitMatrix::zeros(130).insert_pairs(&[(0, 150)]);
    }

    #[test]
    fn union_and_insert_detect_change() {
        let mut a = TiledBitMatrix::from_pairs(100, &[(0, 1)]);
        let b = TiledBitMatrix::from_pairs(100, &[(0, 1), (65, 70)]);
        assert!(a.union_in_place(&b));
        let storage = |m: &TiledBitMatrix| {
            let csr = &m.csr;
            (csr.row_ptr.as_ptr(), csr.cols.as_ptr(), csr.vals.as_ptr())
        };
        let before = storage(&a);
        assert!(!a.union_in_place(&b), "second union is a no-op");
        assert_eq!(storage(&a), before, "and leaves the storage where it is");
        assert_eq!(a.nnz(), 2);
        assert!(a.insert_pairs(&[(99, 99)]));
        let before = storage(&a);
        assert!(!a.insert_pairs(&[(99, 99), (0, 1)]));
        assert!(!a.insert_pairs(&[]));
        assert_eq!(storage(&a), before, "nothing new, nothing rebuilt");
        assert_eq!(a.pairs(), vec![(0, 1), (65, 70), (99, 99)]);
    }

    #[test]
    fn grow_keeps_bits_and_accepts_new_ids() {
        let mut m = TiledBitMatrix::from_pairs(70, &[(0, 69), (69, 0)]);
        m.grow(200);
        assert_eq!(m.n(), 200);
        assert!(m.get(0, 69) && m.get(69, 0));
        assert!(m.insert_pairs(&[(199, 199)]));
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn empty_tile_rows_are_skipped_and_counted() {
        // a's only tile sits at tile (0, 2); b's tile-row 2 is empty, so
        // the whole product family is skipped without touching a bit.
        let a = TiledBitMatrix::from_pairs(300, &[(0, 140)]);
        let b = TiledBitMatrix::from_pairs(300, &[(0, 1)]);
        let (c, skipped) = a.multiply_masked_opt_on(&b, None, None);
        assert!(c.is_zero());
        assert_eq!(skipped, 1);
        // A fully-masked output tile also counts as avoided work.
        let full_mask = {
            let mut pairs = Vec::new();
            for i in 0..64u32 {
                for j in 0..64u32 {
                    pairs.push((i, j));
                }
            }
            TiledBitMatrix::from_pairs(300, &pairs)
        };
        let x = TiledBitMatrix::from_pairs(300, &[(0, 1)]);
        let y = TiledBitMatrix::from_pairs(300, &[(1, 2)]);
        let (c, skipped) = x.multiply_masked_opt_on(&y, Some(&full_mask), None);
        assert!(c.is_zero());
        assert_eq!(skipped, 1);
    }

    #[test]
    fn engine_counters_accumulate_across_clones() {
        let e = TiledEngine::serial();
        let twin = e.clone();
        let a = e.from_pairs(300, &[(0, 140)]);
        let b = e.from_pairs(300, &[(0, 1)]);
        e.multiply(&a, &b);
        assert_eq!(twin.kernel_counters().tiles_skipped, 1);
    }

    #[test]
    fn zero_sized_matrix() {
        let m = TiledBitMatrix::zeros(0);
        assert!(m.multiply(&m).is_zero());
        assert_eq!(m.n(), 0);
        assert!(m.pairs().is_empty());
    }
}

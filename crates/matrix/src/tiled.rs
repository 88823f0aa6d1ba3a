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
//!   smaller operand. A union whose tiles all land on stored ones — most
//!   of a sweep's, since a Δ's bits fall in tiles the closure holds — ORs
//!   them in place and allocates nothing; only one that brings a new tile
//!   is a splice. The product is the shared flat loop too (`Csr::multiply`),
//!   with this module's `TileAccumulator` as the row accumulator. Only
//!   construction (bits are packed into tiles as they stream in) and the
//!   tile kernels below are this module's own;
//! * a pass costs what the matrix stores, not its `⌈n / 64⌉` tile-rows:
//!   a product walks the stored tiles of its left operand flat and
//!   gallops over each run of tile-rows they leave empty, a build jumps
//!   from the run of one tile-row to that of the next, and
//!   [`TiledBitMatrix::pairs`] gallops from one stored tile-row to the
//!   next. All that is left per tile-row is a bulk fill: the row ends a
//!   product or a build writes for an empty run in one `resize`, and the
//!   build's tile-column scratch and bucket counts;
//! * a build costs its pairs, `O(m + n / 64)`, and compares none: pairs
//!   grouped by tile-row, ascending — what `pairs()` emits, and the label
//!   pairs of a graph whose edges were added source by source — are read
//!   as they are, others are bucketed by tile-row with a counting sort
//!   first. Each tile-row's tile-columns are numbered before a bit is
//!   set, so every tile is written in place, once;
//! * `C_{ij} |= A_{ik} × B_{kj}` runs a dense bitset kernel per tile
//!   pair, and a left tile `A_{ik}` goes through its *panel* — the `nb`
//!   stored tiles of `B`'s tile-row `k` — whichever of two ways costs
//!   fewer word-ORs. Each kernel walks only what it ORs, so a tile pair
//!   costs its bits and not a 64-word walk. *Left-driven*, the classic
//!   kernel: for every set bit `(r, k')` of `A_{ik}`, OR row `k'` of the
//!   panel tile into row `r` of the accumulator — `|A_{ik}| · nb` ORs,
//!   stepping through the non-empty rows of `A_{ik}` only (a row mask
//!   taken once per left tile). *Right-driven*: transpose `A_{ik}` once,
//!   then for every set bit `(k', j')` of the panel OR column `k'` of
//!   `A_{ik}` into row `j'` of a transposed accumulator — `|B_{k*}|`
//!   ORs — and transpose each such accumulator back into the ordinary
//!   one when the tile-row is drained. The panel's set bits are read as
//!   a list of `(k', j')` cells, made once per product by the first left
//!   tile that takes the panel right-driven and read by every later left
//!   tile of tile-column `k`; the lists are thread scratch beside the
//!   accumulator, like its tiles. A dense Δ against a sparse label
//!   matrix (`ΔS × T_b`) is cheap right-driven and the same pair the
//!   other way round (`T_a × ΔS`) is cheap left-driven, so a sweep costs
//!   its sparser operands. The choice is made from popcounts of the two
//!   operands alone (`TileAccumulator::right_driven_is_cheaper`, where
//!   the rule and its unit live), is not configurable, and cannot show
//!   in a result: both paths feed one accumulator ahead of masking, the
//!   zero-tile test and the skip accounting;
//! * tile pairs whose counterpart tile-row in `B` is empty are skipped
//!   without touching any bit (counted in
//!   [`crate::engine::KernelCounters::tiles_skipped`]);
//! * a product runs on the calling thread, like the flat kernels; a
//!   [`crate::TiledEngine`] on a multi-worker [`crate::Device`] runs the
//!   products of a batch side by side;
//! * the hot entry points — a product, the set operations,
//!   [`TiledBitMatrix::insert_pairs`], [`TiledBitMatrix::from_pairs`]
//!   and [`TiledBitMatrix::nnz`], which the fixpoint reads of every Δ —
//!   run their one source in one of two instantiations (`cpu.rs`): the
//!   baseline x86-64 target a release build is made for lacks POPCNT,
//!   BMI and AVX2, so where the CPU has them (with LZCNT) the same code
//!   runs compiled for them: a popcount is one instruction instead of a
//!   SWAR sequence, a trailing-zero count needs no zero test, and a
//!   64-word tile pass moves four words per operation instead of two.
//!   Everything below an entry point is `#[inline(always)]`, so it is
//!   compiled into the featured instantiation rather than called from
//!   it. Only the CPU picks: nothing can be set, a CPU without the five
//!   features runs the baseline code, and both give the same bytes.
//!
//! The canonical-form invariant — **no stored all-zero tile, tile
//! columns strictly ascending per tile-row** — is maintained by every
//! constructor and operation, so derived `PartialEq` is semantic
//! equality.

use crate::cpu::{self, Level};
use crate::engine::{word_bits, BoolMat, MaskedJob};
use crate::length::TiledLenMatrix;
use crate::repr::BoolRepr;
use crate::sparse::{assert_in_range, Cell, Csr, RowAccumulator, RowCells};
use std::cell::RefCell;

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

#[inline(always)]
fn tile_is_zero(t: &TileWords) -> bool {
    t.iter().all(|&w| w == 0)
}

/// `tile`, unless it is empty: the canonical form stores no zero tile.
#[inline(always)]
fn nonzero(tile: TileWords) -> Option<TileWords> {
    (!tile_is_zero(&tile)).then_some(tile)
}

/// Two tiles stored at the same place combine word by word.
impl Cell for TileWords {
    #[inline(always)]
    fn absorb(&mut self, other: &Self) -> bool {
        let mut grew = 0u64;
        for (w, &o) in self.iter_mut().zip(other) {
            grew |= o & !*w;
            *w |= o;
        }
        grew != 0
    }

    #[inline(always)]
    fn minus(&self, other: &Self) -> Option<Self> {
        nonzero(std::array::from_fn(|r| self[r] & !other[r]))
    }

    #[inline(always)]
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

    /// Builds a matrix from `(row, col)` pairs in `O(m + n / 64)` for `m`
    /// pairs, in any order, duplicates allowed. Pairs that come grouped
    /// by tile-row, ascending — what `pairs()` emits — are built from as
    /// they are; others are first bucketed by tile-row with a counting
    /// sort. Nothing compares two pairs.
    ///
    /// # Panics
    ///
    /// If a pair names a row or column `>= n`.
    pub fn from_pairs(n: usize, pairs: &[(u32, u32)]) -> Self {
        cpu::dispatch(
            #[inline(always)]
            || Self::build(n, pairs),
        )
    }

    /// [`Self::from_pairs`] on the instantiation its caller runs.
    #[inline(always)]
    pub(crate) fn build(n: usize, pairs: &[(u32, u32)]) -> Self {
        let tile_row = |&(i, _): &(u32, u32)| i as usize / TILE;
        if pairs.is_sorted_by_key(tile_row) {
            return Self::from_grouped_pairs(n, pairs);
        }
        // `at[t]` is where tile-row `t`'s bucket starts, then, as the
        // pairs are dealt, where its next pair goes.
        let mut at = vec![0usize; tile_count(n) + 1];
        for pair in pairs {
            // Refused before its tile-row is counted: a row past the last
            // tile names none.
            assert_in_range(n, *pair);
            at[tile_row(pair) + 1] += 1;
        }
        for t in 1..at.len() {
            at[t] += at[t - 1];
        }
        let mut grouped = vec![(0, 0); pairs.len()];
        for pair in pairs {
            let slot = &mut at[tile_row(pair)];
            grouped[*slot] = *pair;
            *slot += 1;
        }
        Self::from_grouped_pairs(n, &grouped)
    }

    /// The builder for pairs grouped by tile-row, ascending: each
    /// tile-row is one run of the input. A run's tile-columns are marked
    /// in a `tile_col → slot` scratch, sorted and numbered first, so its
    /// tiles are laid out in canonical order before a bit is set and no
    /// tile is moved after. The tile-rows between two runs get their row
    /// ends in one bulk write, and the storage is cut to its exact size
    /// at the end: a label's matrix lives as long as its index.
    #[inline(always)]
    fn from_grouped_pairs(n: usize, pairs: &[(u32, u32)]) -> Self {
        let tn = tile_count(n);
        let mut csr: Csr<TileWords> = Csr::with_capacity(tn, 0);
        let mut slot_of: Vec<u32> = vec![u32::MAX; tn];
        let mut start = 0;
        while let Some(&first) = pairs.get(start) {
            // Refused before its tile-row is opened: a row past the last
            // tile names none.
            assert_in_range(n, first);
            let ti = first.0 as usize / TILE;
            csr.row_ptr.resize(ti + 1, csr.nnz());
            let first_tile = csr.nnz();
            // The run's tile-columns, marked as met, then numbered in
            // ascending order.
            let mut end = start;
            while let Some(&(i, j)) = pairs.get(end).filter(|p| p.0 as usize / TILE == ti) {
                assert_in_range(n, (i, j));
                let tj = j as usize / TILE;
                if slot_of[tj] == u32::MAX {
                    slot_of[tj] = 0;
                    csr.push(tj as u32, EMPTY_TILE);
                }
                end += 1;
            }
            csr.cols[first_tile..].sort_unstable();
            for (t, &tj) in (first_tile..).zip(&csr.cols[first_tile..]) {
                slot_of[tj as usize] = t as u32;
            }
            for &(i, j) in &pairs[start..end] {
                let tile = &mut csr.vals[slot_of[j as usize / TILE] as usize];
                tile[i as usize % TILE] |= 1u64 << (j as usize % TILE);
            }
            for &tj in &csr.cols[first_tile..] {
                slot_of[tj as usize] = u32::MAX;
            }
            csr.row_ptr.push(csr.nnz());
            start = end;
        }
        csr.row_ptr.resize(tn + 1, csr.nnz());
        csr.shrink();
        Self { n, csr }
    }

    /// The tile storage, as the length builder lays its lengths over it.
    pub(crate) fn into_tiles(self) -> Csr<TileWords> {
        self.csr
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
        cpu::dispatch(
            #[inline(always)]
            || self.count_bits(),
        )
    }

    /// [`Self::nnz`] on the instantiation its caller runs.
    #[inline(always)]
    fn count_bits(&self) -> usize {
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
        cpu::dispatch(
            #[inline(always)]
            || self.insert(pairs),
        )
    }

    /// [`Self::insert_pairs`] on the instantiation its caller runs.
    #[inline(always)]
    fn insert(&mut self, pairs: &[(u32, u32)]) -> bool {
        let fresh: Vec<(u32, u32)> = pairs
            .iter()
            .copied()
            .filter(|&(i, j)| !self.get(i, j))
            .collect();
        !fresh.is_empty() && self.csr.union_in_place(&Self::build(self.n, &fresh).csr)
    }

    /// `self |= other`; returns `true` if any bit changed. It costs the
    /// tiles `other` stores: if each lands on a tile `self` stores, it is
    /// OR-ed in there and nothing is allocated or moved
    /// (`sparse.rs::Csr::union_in_place`); one that brings a new tile is
    /// one splice of tile-rows (`sparse.rs::splice_rows`).
    pub fn union_in_place(&mut self, other: &TiledBitMatrix) -> bool {
        assert_eq!(self.n, other.n, "dimension mismatch");
        cpu::dispatch(
            #[inline(always)]
            || self.csr.union_in_place(&other.csr),
        )
    }

    /// `self \ other` — bits set in `self` but not `other`; costs the
    /// tiles `self` stores.
    pub fn difference(&self, other: &TiledBitMatrix) -> TiledBitMatrix {
        assert_eq!(self.n, other.n, "dimension mismatch");
        let csr = cpu::dispatch(
            #[inline(always)]
            || self.csr.difference(&other.csr),
        );
        Self { n: self.n, csr }
    }

    /// `self ∩ other` — bitwise AND; costs the tiles `self` stores.
    pub fn intersect(&self, other: &TiledBitMatrix) -> TiledBitMatrix {
        assert_eq!(self.n, other.n, "dimension mismatch");
        let csr = cpu::dispatch(
            #[inline(always)]
            || self.csr.intersect(&other.csr),
        );
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
        self.multiply_masked_opt(other, None).0
    }

    /// Serial masked product `(self × other) \ mask` — see
    /// [`crate::engine::BoolEngine::multiply_masked`] for the contract.
    pub fn multiply_masked(&self, other: &TiledBitMatrix, mask: &TiledBitMatrix) -> TiledBitMatrix {
        self.multiply_masked_opt(other, Some(mask)).0
    }

    /// The product entry point, `(self × other) \ mask?`, on the calling
    /// thread and on the kernels the CPU runs best. Also returns the
    /// number of tile-granular kernel launches avoided (empty counterpart
    /// tile-rows in `other`, plus accumulated output tiles that masking
    /// or cancellation left empty).
    pub fn multiply_masked_opt(
        &self,
        other: &TiledBitMatrix,
        mask: Option<&TiledBitMatrix>,
    ) -> (TiledBitMatrix, u64) {
        assert_eq!(self.n, other.n, "dimension mismatch");
        if let Some(m) = mask {
            assert_eq!(self.n, m.n, "mask dimension mismatch");
        }
        let (csr, skipped) = self.product(other, mask, cpu::level());
        (Self { n: self.n, csr }, skipped)
    }

    /// `(self × other) \ mask?` and the skipped-kernel count: the shared
    /// flat product (`sparse.rs::Csr::multiply`) over the stored tiles of
    /// `self`, on this thread's tile accumulator and on the kernels of
    /// `level`.
    fn product(
        &self,
        other: &TiledBitMatrix,
        mask: Option<&TiledBitMatrix>,
        level: Level,
    ) -> (Csr<TileWords>, u64) {
        let mask = mask.map(|m| &m.csr);
        TILE_ACC.with_borrow_mut(|acc| {
            level.run(
                #[inline(always)]
                || {
                    let (csr, empty_panels) = self.csr.multiply(&other.csr, mask, acc);
                    (csr, empty_panels + acc.dropped)
                },
            )
        })
    }
}

/// Bit `r` set iff row `r` of `t` is not empty.
#[inline(always)]
fn row_mask(t: &TileWords) -> u64 {
    t.iter()
        .enumerate()
        .fold(0, |mask, (r, &w)| mask | u64::from(w != 0) << r)
}

/// The left-driven 64×64 kernel: `c |= a × b` over the Boolean semiring,
/// given `rows = row_mask(a)`. For each non-empty row `r` of `a`, every
/// set bit `k` of `a[r]` ORs `b`'s row `k` into `c[r]` — one word-OR per
/// set bit of `a`, whatever `b` holds, and no step over an empty row.
#[inline(always)]
fn tile_multiply_into(a: &TileWords, rows: u64, b: &TileWords, c: &mut TileWords) {
    for r in word_bits(rows) {
        let r = r as usize;
        let mut aw = a[r];
        let mut cw = c[r];
        while aw != 0 {
            cw |= b[aw.trailing_zeros() as usize];
            aw &= aw - 1;
        }
        c[r] = cw;
    }
}

/// The right-driven 64×64 kernel: `cᵀ |= (a × b)ᵀ`, given `a`'s columns
/// (`a_cols = aᵀ`) and `b`'s set bits as `(k, j)` cells. Every cell ORs
/// column `k` of `a` into column `j` of the product, which is row `j` of
/// the transposed accumulator — one word-OR per set bit of `b`, whatever
/// `a` holds (an empty column is OR-ed like any other: testing for it
/// would put a coin-flip branch in front of every cell of a half-empty
/// `a`).
#[inline(always)]
fn tile_multiply_transposed_into(a_cols: &TileWords, b_cells: &[[u8; 2]], c_cols: &mut TileWords) {
    for &[k, j] in b_cells {
        c_cols[j as usize % TILE] |= a_cols[k as usize % TILE];
    }
}

/// The 64×64 bit transpose: six rounds of block swaps (widths 32, 16, …
/// 1), 32 word pairs each. A round at width `j` exchanges, inside every
/// `2j × 2j` diagonal block, the upper-right `j × j` quadrant with the
/// lower-left one.
#[inline(always)]
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

#[inline(always)]
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

    #[inline(always)]
    fn ensure(&mut self, tn: usize) {
        if self.tiles.len() < tn {
            self.tiles.resize(tn, EMPTY_TILE);
            self.stamp.resize(tn, 0);
        }
    }

    #[inline(always)]
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

/// What the product in progress has read off one panel, the right
/// operand's tile-row `k`: valid iff `product` is that product's stamp.
#[derive(Clone, Copy, Default)]
struct Panel {
    product: u64,
    /// The popcount of the panel's tiles.
    bits: usize,
    /// Where the panel's cell lists start in
    /// [`TileAccumulator::cell_ends`], once a left tile took it
    /// right-driven.
    listed: Option<usize>,
}

/// Per-thread accumulator for one tile-row of a product: the row's
/// output tiles, a second set holding the transposes of what the
/// right-driven kernel produced, and what the path choice and the
/// right-driven kernel read off each panel — its bit count, and its set
/// bits listed as cells. Reused across products via a thread-local (on
/// the calling thread for as long as it lives; on a thread a device
/// spawned, for that batch), so no per-product `O(tn)` allocation
/// or zeroing happens — only tiles actually touched are cleared, at
/// first touch — and the right-driven half (as many tiles again, 512 B
/// each) is allocated by the first product on the thread that takes
/// that path.
struct TileAccumulator {
    /// Stamp of the current tile-row. Bumped per row and per product and
    /// never reset, so one counter keys both tile sets and `panels`.
    cur: u64,
    /// `cur` as the product in progress began.
    product: u64,
    row: TileSlots,
    transposed: TileSlots,
    /// Indexed by tile-column `k`: what was read off panel `k`.
    panels: Vec<Panel>,
    /// The set bits of the panels listed in the product in progress, as
    /// `(k, j)` cells, tile by tile: a panel is listed once, the first
    /// time a left tile takes it right-driven, and every later left tile
    /// of its tile-column reads the list instead of 64 panel words.
    cells: Vec<[u8; 2]>,
    /// Tile `t` of the panel listed at `at` holds
    /// `cells[cell_ends[at + t]..cell_ends[at + t + 1]]`.
    cell_ends: Vec<usize>,
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
            panels: Vec::new(),
            cells: Vec::new(),
            cell_ends: Vec::new(),
            dropped: 0,
        }
    }

    #[inline(always)]
    fn tile(&mut self, tj: u32) -> &mut TileWords {
        self.row.tile(self.cur, tj)
    }

    /// Transposes back what the right-driven kernel accumulated for this
    /// tile-row and ORs it into the row's ordinary tiles, so masking and
    /// the drain see one row.
    #[inline(always)]
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
    /// `row_len` stored in its tile-row, `rows` its [`row_mask`] —
    /// through its `panel`, the `nb` stored tiles of the right operand's
    /// tile-row `k`, by counting both paths in word operations:
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
    /// never depend on them. Both kernels walk only what they OR — the
    /// non-empty rows of `a`, the listed cells of the panel — so an OR
    /// is the unit of both. Counting stays below the work it steers by
    /// first holding left-driven to what right-driven costs at its best
    /// (its transposes, and one bit in each stored panel tile): a tile
    /// whose non-empty rows, were they full, stay under that is not
    /// popcounted; one whose bits stay under it is not compared; and a
    /// panel is popcounted once per product, when the first left tile
    /// that needs the comparison meets it.
    #[inline(always)]
    fn right_driven_is_cheaper(
        &mut self,
        a: &TileWords,
        rows: u64,
        k: usize,
        panel: &[TileWords],
        row_len: usize,
    ) -> bool {
        let nb = panel.len();
        let transposes = TRANSPOSE_OPS + ((TRANSPOSE_OPS + TILE) * nb).div_ceil(row_len);
        let right_at_best = transposes + nb;
        if TILE * rows.count_ones() as usize * nb <= right_at_best {
            return false;
        }
        let left = tile_bits(a) * nb;
        if left <= right_at_best {
            return false;
        }
        if self.panels.len() < self.row.tiles.len() {
            self.panels.resize(self.row.tiles.len(), Panel::default());
        }
        let seen = &mut self.panels[k];
        if seen.product != self.product {
            *seen = Panel {
                product: self.product,
                bits: panel.iter().map(tile_bits).sum(),
                listed: None,
            };
        }
        transposes + seen.bits < left
    }

    /// Where panel `k`'s cell lists start in `cell_ends`, listing them
    /// the first time the product in progress asks. Called only after
    /// [`Self::right_driven_is_cheaper`] counted the panel in this
    /// product.
    #[inline(always)]
    fn listed(&mut self, k: usize, panel: &[TileWords]) -> usize {
        let seen = &mut self.panels[k];
        debug_assert_eq!(seen.product, self.product, "the panel was counted");
        if let Some(at) = seen.listed {
            return at;
        }
        let at = self.cell_ends.len();
        seen.listed = Some(at);
        // The panel's bit count sizes the list, so the cells are written
        // by index, with no capacity test per cell.
        let mut end = self.cells.len();
        self.cells.resize(end + seen.bits, [0; 2]);
        self.cell_ends.push(end);
        for b in panel {
            for (r, &word) in (0u8..).zip(b) {
                for j in word_bits(word) {
                    self.cells[end] = [r, j as u8];
                    end += 1;
                }
            }
            self.cell_ends.push(end);
        }
        at
    }
}

/// The tile-row of the shared flat product: a left tile `a` at
/// tile-column `k` goes through its panel, the stored tiles of the right
/// operand's tile-row `k`, on whichever kernel costs fewer word-ORs.
impl RowAccumulator<TileWords> for TileAccumulator {
    /// Starts a product: a fresh stamp for its panels and first tile-row,
    /// no panel listed, nothing dropped yet, and nothing left of a product
    /// that panicked halfway on this thread.
    #[inline(always)]
    fn fit(&mut self, tn: usize) {
        self.row.ensure(tn);
        self.cur += 1;
        self.product = self.cur;
        self.dropped = 0;
        self.row.touched.clear();
        self.transposed.touched.clear();
        self.cells.clear();
        self.cell_ends.clear();
    }

    #[inline(always)]
    fn add(
        &mut self,
        a: &TileWords,
        _i: usize,
        k: u32,
        row_len: usize,
        cols: &[u32],
        panel: &[TileWords],
    ) {
        let rows = row_mask(a);
        if self.right_driven_is_cheaper(a, rows, k as usize, panel, row_len) {
            let a_cols = transpose_tile(a);
            let at = self.listed(k as usize, panel);
            self.transposed.ensure(self.row.tiles.len());
            let ends = &self.cell_ends[at..=at + panel.len()];
            for (&tj, end) in cols.iter().zip(ends.windows(2)) {
                let c_cols = self.transposed.tile(self.cur, tj);
                tile_multiply_transposed_into(&a_cols, &self.cells[end[0]..end[1]], c_cols);
            }
        } else {
            for (&tj, b) in cols.iter().zip(panel) {
                tile_multiply_into(a, rows, b, self.tile(tj));
            }
        }
    }

    #[inline(always)]
    fn is_empty(&self) -> bool {
        self.row.touched.is_empty() && self.transposed.touched.is_empty()
    }

    /// Appends the row's tiles in ascending tile-column order (canonical
    /// form), each less the bits of the mask tile at its tile-column,
    /// counting instead of storing those left empty, and moves to a fresh
    /// stamp. Masking and draining are one pass, while the tile is hot.
    #[inline(always)]
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
    fn kernel() -> impl FnMut(MaskedJob<'_, Self>) -> (Self, Option<u64>) {
        |(a, b, mask): MaskedJob<'_, Self>| {
            let (product, skipped) = a.multiply_masked_opt(b, mask);
            (product, Some(skipped))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BoolEngine, TiledEngine};

    /// The two instantiations of the hot code: the baseline body called
    /// directly, and the same body through the dispatcher, which is the
    /// featured one on a CPU with AVX2, BMI1/2, LZCNT and POPCNT. Each
    /// test that takes a level holds both to the same bytes.
    fn levels() -> [Level; 2] {
        [Level::BASELINE, cpu::level()]
    }

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
        // still refused after the builder skipped the empty tile-rows,
        // and ahead of a lower tile-row, which buckets the pairs first.
        for bad in [(BANDED_N as u32 + 5, 0), (BANDED_N as u32 + 64, 0)] {
            for pairs in [vec![bad], vec![(3, 3), bad], vec![bad, (3, 3)]] {
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
        let (full, two_bits) = (&a.csr.vals[0], &a.csr.vals[1]);
        assert!(chooser.right_driven_is_cheaper(full, row_mask(full), 0, &b.csr.vals[..3], 2));
        assert!(!chooser.right_driven_is_cheaper(
            two_bits,
            row_mask(two_bits),
            1,
            &b.csr.vals[3..],
            2
        ));

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
        let (plain, skipped) = a.multiply_masked_opt(&b, None);
        assert_eq!(
            allocated(),
            a.tile_rows(),
            "the full tile went right-driven"
        );
        assert!(plain.pairs() == da.multiply(&db).pairs());
        assert_eq!(skipped, 0);
        let (masked, skipped) = a.multiply_masked_opt(&b, Some(&mask));
        assert!(masked.pairs() == da.multiply(&db).difference(&dm).pairs());
        assert_eq!(skipped, 1, "output tile (0, 1) is masked out whole");
        assert_eq!(masked.stored_tiles(), 2);
    }

    /// Holds `a × b` and `(a × b) \ mask` on the kernels of `level` to
    /// the dense products; the dispatched product must equal it to the
    /// skip count.
    fn check_against_dense(
        what: &str,
        level: Level,
        n: usize,
        pa: &[(u32, u32)],
        pb: &[(u32, u32)],
        pm: &[(u32, u32)],
    ) {
        let (a, b, mask) = (
            TiledBitMatrix::from_pairs(n, pa),
            TiledBitMatrix::from_pairs(n, pb),
            TiledBitMatrix::from_pairs(n, pm),
        );
        let (da, db, dm) = (
            crate::DenseBitMatrix::from_pairs(n, pa),
            crate::DenseBitMatrix::from_pairs(n, pb),
            crate::DenseBitMatrix::from_pairs(n, pm),
        );
        let product = da.multiply(&db);
        for (mask, expect) in [
            (None, product.pairs()),
            (Some(&mask), product.difference(&dm).pairs()),
        ] {
            let (csr, skipped) = a.product(&b, mask, level);
            let on_level = (TiledBitMatrix { n, csr }, skipped);
            let masked = mask.is_some();
            let what = format!("{what}, {level:?}, masked: {masked}");
            assert_eq!(on_level.0.pairs(), expect, "{what}");
            assert_eq!(a.multiply_masked_opt(&b, mask), on_level, "{what}");
        }
    }

    /// The pairs of a 64 × 64 block at tile `(ti, tj)`: `cells` gives
    /// the in-tile `(row, col)` cells.
    fn tile_at(ti: u32, tj: u32, cells: impl IntoIterator<Item = (u32, u32)>) -> Vec<(u32, u32)> {
        let base = |t: u32| t * TILE as u32;
        cells
            .into_iter()
            .map(|(r, c)| (base(ti) + r, base(tj) + c))
            .collect()
    }

    fn full_tile() -> impl Iterator<Item = (u32, u32)> {
        (0..64).flat_map(|r| (0..64).map(move |c| (r, c)))
    }

    #[test]
    fn both_kernels_match_dense_on_every_tile_shape_and_panel_length() {
        // 5 tile-rows, the last 57 rows deep. Each left operand puts one
        // shape at tiles (1, 2) and (3, 2), so two left tiles meet panel
        // 2 and the second reads what the first listed; the full tile
        // and the full column go right-driven against a sparse panel.
        let n = 5 * TILE - 7;
        let shapes: [(&str, Vec<(u32, u32)>); 4] = [
            ("one bit", vec![(0, 40)]),
            ("full row", (0..64).map(|c| (63, c)).collect()),
            ("full column", (0..64).map(|r| (r, 33)).collect()),
            ("full tile", full_tile().collect()),
        ];
        // Panel 2 of `b`: a few bits in each of its tiles, one of them a
        // full row, over 1, 2 and all 5 tile-columns.
        let panel_tile = |tj: u32| {
            let mut cells: Vec<(u32, u32)> = pseudo_pairs(TILE, 6, u64::from(tj) + 5);
            if tj == 0 {
                cells.extend((0..57).map(|c| (40, c)));
            }
            tile_at(
                2,
                tj,
                cells.into_iter().filter(move |&(_, c)| tj < 4 || c < 57),
            )
        };
        let panels: [&[u32]; 3] = [&[4], &[0, 3], &[0, 1, 2, 3, 4]];
        // Output tile (1, 0) masked out whole, the rest partly.
        let mut pm = tile_at(1, 0, full_tile());
        pm.extend(pseudo_pairs(n, 900, 0x3A5C));
        for (shape, cells) in &shapes {
            let mut pa = tile_at(1, 2, cells.iter().copied());
            pa.extend(tile_at(3, 2, cells.iter().copied()));
            // A second left tile in tile-row 1, whose panel is empty.
            pa.push((64, 5));
            for (panel, level) in panels.into_iter().flat_map(|p| levels().map(|l| (p, l))) {
                let pb: Vec<(u32, u32)> = panel.iter().flat_map(|&tj| panel_tile(tj)).collect();
                let what = format!("{shape} × a panel of {}", panel.len());
                check_against_dense(&what, level, n, &pa, &pb, &pm);
            }
        }
        // The chooser sends the full tile right-driven and the one bit
        // left-driven, so both kernels ran above.
        let b = TiledBitMatrix::from_pairs(n, &panel_tile(0));
        let panel = &b.csr.vals[..];
        let mut chooser = TileAccumulator::new();
        chooser.fit(tile_count(n));
        for ((shape, cells), right) in [(&shapes[0], false), (&shapes[3], true)] {
            let a = TiledBitMatrix::from_pairs(n, &tile_at(1, 2, cells.iter().copied()));
            let tile = &a.csr.vals[0];
            let chose = chooser.right_driven_is_cheaper(tile, row_mask(tile), 2, panel, 1);
            assert_eq!(chose, right, "{shape}");
        }
    }

    /// Full tiles at `(0, 1)` and `(2, 1)`: both meet panel 1 of a sparse
    /// right operand right-driven, the second through the cells the first
    /// listed.
    fn two_full_tiles_over_panel_1(n: usize) -> TiledBitMatrix {
        let mut pa = tile_at(0, 1, full_tile());
        pa.extend(tile_at(2, 1, full_tile()));
        TiledBitMatrix::from_pairs(n, &pa)
    }

    #[test]
    fn a_panel_listed_by_one_product_is_not_read_by_the_next() {
        // Two right operands whose tile-row 1 stores tiles at the same
        // tile-columns with the same bit count but different bits: a
        // list kept from the first product gives the second its answer.
        let n = 3 * TILE;
        let a = two_full_tiles_over_panel_1(n);
        let first = [(64 + 3, 7), (64 + 10, 70), (64 + 10, 130)];
        let second = [(64 + 4, 8), (64 + 11, 71), (64 + 12, 131)];
        let da = crate::DenseBitMatrix::from_pairs(n, &a.pairs());
        for pb in [&first, &second, &first] {
            let b = TiledBitMatrix::from_pairs(n, pb);
            let db = crate::DenseBitMatrix::from_pairs(n, pb);
            assert_eq!(a.multiply(&b).pairs(), da.multiply(&db).pairs(), "{pb:?}");
        }
        assert!(
            TILE_ACC.with_borrow(|acc| acc.cell_ends.len()) > 1,
            "a panel was listed"
        );
    }

    /// A row accumulator that forwards to the thread's tile accumulator
    /// and panics at its `adds`-th `add`, as a product that fails midway
    /// would: rows open, panels counted and listed, nothing drained.
    struct PanicsMidway<'a> {
        acc: &'a mut TileAccumulator,
        adds: usize,
    }

    impl RowAccumulator<TileWords> for PanicsMidway<'_> {
        fn fit(&mut self, tn: usize) {
            self.acc.fit(tn);
        }
        fn add(
            &mut self,
            a: &TileWords,
            i: usize,
            k: u32,
            len: usize,
            cols: &[u32],
            panel: &[TileWords],
        ) {
            self.adds -= 1;
            assert!(self.adds > 0, "the product fails midway");
            self.acc.add(a, i, k, len, cols, panel);
        }
        fn is_empty(&self) -> bool {
            self.acc.is_empty()
        }
        fn drain_into(&mut self, mask: Option<RowCells<'_, TileWords>>, out: &mut Csr<TileWords>) {
            self.acc.drain_into(mask, out);
        }
    }

    #[test]
    fn a_product_after_one_that_panicked_midway_is_exact() {
        // Tile-row 0 of `a` meets panel 1 right-driven, then panel 2,
        // where the product fails with the row still open.
        let n = 3 * TILE;
        let mut pa = two_full_tiles_over_panel_1(n).pairs();
        pa.push((5, 130));
        let a = TiledBitMatrix::from_pairs(n, &pa);
        let spoiled = TiledBitMatrix::from_pairs(n, &[(64 + 3, 7), (64 + 5, 9), (130, 1)]);
        let failed = std::panic::catch_unwind(|| {
            TILE_ACC.with_borrow_mut(|acc| {
                let mut midway = PanicsMidway { acc, adds: 2 };
                a.csr.multiply(&spoiled.csr, None, &mut midway);
            })
        });
        assert!(failed.is_err());
        let left = TILE_ACC.with_borrow(|acc| (acc.transposed.touched.len(), acc.cell_ends.len()));
        assert_eq!(
            left,
            (1, 2),
            "the failed product left a row open and a panel listed"
        );
        // Panel 1 now lands in output tile-column 2 only, so a transposed
        // tile the failed product left behind would be folded in as it is.
        let pb = [(64 + 4, 136), (64 + 6, 138), (131, 2)];
        let pm = tile_at(0, 0, (0..64).map(|i| (i, i)));
        check_against_dense("after a panic", cpu::level(), n, &pa, &pb, &pm);
    }

    #[test]
    fn from_pairs_builds_the_same_matrix_from_any_order_and_duplicates() {
        let mut sorted = banded_with_full_tile(2000, 0xD0);
        sorted.extend(pseudo_pairs(BANDED_N, 500, 0xD1));
        sorted.sort_unstable();
        sorted.dedup();
        let reference = TiledBitMatrix::build(BANDED_N, &sorted);
        // Grouped by tile-row but unsorted inside each group: each
        // tile-row's run reversed.
        let mut grouped = sorted.clone();
        for run in grouped.chunk_by_mut(|x, y| x.0 as usize / TILE == y.0 as usize / TILE) {
            run.reverse();
        }
        assert!(!grouped.is_sorted() && grouped.is_sorted_by_key(|p| p.0 as usize / TILE));
        let reversed: Vec<(u32, u32)> = sorted.iter().rev().copied().collect();
        let duplicated: Vec<(u32, u32)> = sorted.iter().flat_map(|&p| [p, p]).collect();
        let mut twice = reversed.clone();
        twice.extend(&grouped);
        for (order, pairs) in [
            ("sorted", sorted),
            ("grouped", grouped),
            ("reversed", reversed),
            ("duplicated", duplicated),
            ("reversed, then grouped", twice),
        ] {
            for level in levels() {
                let built = level.run(|| TiledBitMatrix::build(BANDED_N, &pairs));
                assert_eq!(built, reference, "{order}, {level:?}");
                let bytes = built.bytes();
                assert_eq!(
                    bytes,
                    reference.bytes(),
                    "{order}, {level:?}: exact capacity"
                );
            }
            assert_eq!(TiledBitMatrix::from_pairs(BANDED_N, &pairs), reference);
        }
    }

    #[test]
    #[should_panic(expected = "pair (0, 131) is outside the 130 × 130 matrix")]
    fn from_pairs_rejects_a_column_in_the_edge_tiles_padding() {
        TiledBitMatrix::from_pairs(130, &[(0, 131)]);
    }

    #[test]
    #[should_panic(expected = "pair (0, 131) is outside the 130 × 130 matrix")]
    fn from_pairs_rejects_a_column_in_the_edge_tiles_padding_out_of_tile_row_order() {
        // Bucketed by tile-row before the build: refused while counted.
        TiledBitMatrix::from_pairs(130, &[(100, 3), (0, 131)]);
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
        let storage = |m: &TiledBitMatrix| {
            let csr = &m.csr;
            (csr.row_ptr.as_ptr(), csr.cols.as_ptr(), csr.vals.as_ptr())
        };
        for level in levels() {
            let mut a = TiledBitMatrix::from_pairs(100, &[(0, 1)]);
            let b = TiledBitMatrix::from_pairs(100, &[(0, 1), (65, 70)]);
            let union = |a: &mut TiledBitMatrix| level.run(|| a.csr.union_in_place(&b.csr));
            assert!(union(&mut a));
            let before = storage(&a);
            assert!(!union(&mut a), "second union is a no-op");
            assert_eq!(storage(&a), before, "and leaves the storage where it is");
            assert_eq!(level.run(|| a.count_bits()), 2);
            assert!(level.run(|| a.insert(&[(99, 99)])));
            let before = storage(&a);
            assert!(!level.run(|| a.insert(&[(99, 99), (0, 1)])));
            assert!(!level.run(|| a.insert(&[])));
            assert!(!a.insert_pairs(&[(99, 99), (0, 1)]));
            assert!(!a.union_in_place(&b));
            assert_eq!(storage(&a), before, "nothing new, nothing rebuilt");
            assert_eq!(a.pairs(), vec![(0, 1), (65, 70), (99, 99)]);
        }
    }

    #[test]
    fn set_operations_and_nnz_give_the_same_bytes_on_both_instantiations() {
        // Banded operands that meet in stored tiles and in tiles only one
        // of them stores, one tile full; each operation's baseline body,
        // its body through the dispatcher and its public entry must agree
        // byte for byte, and with a dense reference.
        let pa = banded_with_full_tile(2000, 0x5E7);
        let pb = banded_pairs(1500, 0x5E8);
        let (a, b) = (
            TiledBitMatrix::build(BANDED_N, &pa),
            TiledBitMatrix::build(BANDED_N, &pb),
        );
        let (da, db) = (
            crate::DenseBitMatrix::from_pairs(BANDED_N, &pa),
            crate::DenseBitMatrix::from_pairs(BANDED_N, &pb),
        );
        let mut union = da.clone();
        union.union_in_place(&db);
        let fresh: Vec<(u32, u32)> = pb.iter().map(|&(i, j)| (j, i)).collect();
        let mut inserted = da.clone();
        inserted.union_in_place(&crate::DenseBitMatrix::from_pairs(BANDED_N, &fresh));
        let mut all = Vec::new();
        for level in levels() {
            let mut u = a.clone();
            assert!(level.run(|| u.csr.union_in_place(&b.csr)));
            let d = level.run(|| a.csr.difference(&b.csr));
            let m = level.run(|| a.csr.intersect(&b.csr));
            let mut ins = a.clone();
            assert!(level.run(|| ins.insert(&fresh)));
            let (d, m) = (
                TiledBitMatrix { n: a.n, csr: d },
                TiledBitMatrix { n: a.n, csr: m },
            );
            let nnz = [&a, &u, &d, &m, &ins].map(|x| level.run(|| x.count_bits()));
            assert_eq!(u.pairs(), union.pairs(), "{level:?}");
            assert_eq!(d.pairs(), da.difference(&db).pairs(), "{level:?}");
            assert_eq!(m.pairs(), da.intersect(&db).pairs(), "{level:?}");
            assert_eq!(ins.pairs(), inserted.pairs(), "{level:?}");
            assert_eq!(
                nnz,
                [&a, &u, &d, &m, &ins].map(|x| x.pairs().len()),
                "{level:?}"
            );
            assert!(!d.is_zero() && !m.is_zero());
            let bytes = [&u, &d, &m, &ins].map(TiledBitMatrix::bytes);
            all.push((u, d, m, ins, nnz, bytes));
        }
        assert_eq!(all[0], all[1], "both instantiations, byte for byte");
        // The public entries dispatch to the same bodies.
        let (u0, d0, m0, ins0, nnz0, _) = &all[0];
        let mut u = a.clone();
        assert!(u.union_in_place(&b));
        let mut ins = a.clone();
        assert!(ins.insert_pairs(&fresh));
        let (d, m) = (a.difference(&b), a.intersect(&b));
        assert_eq!((&u, &d, &m, &ins), (u0, d0, m0, ins0));
        assert_eq!([&a, &u, &d, &m, &ins].map(TiledBitMatrix::nnz), *nnz0);
    }

    /// A Δ for [`banded_pairs`]-shaped closures: `count` random pairs, of
    /// which `landing` out of 4 are moved into tile (0, 0), which every
    /// such closure stores, and the rest into the tile-rows between its
    /// bands, where it stores nothing.
    fn delta_pairs(count: usize, landing: usize, seed: u64) -> Vec<(u32, u32)> {
        let stored = |x: u32| x % TILE as u32;
        let unstored = |x: u32| (x % (24 * TILE as u32)) + TILE as u32;
        pseudo_pairs(BANDED_N, count, seed)
            .into_iter()
            .enumerate()
            .map(|(e, (i, j))| {
                if e % 4 < landing {
                    (stored(i), stored(j))
                } else {
                    (unstored(i), j)
                }
            })
            .collect()
    }

    #[test]
    fn a_union_in_place_equals_the_splice_and_a_dense_union() {
        // Δs whose tiles all land on stored tiles (4 of 4), partly (1–3),
        // or nowhere (0), and Δs that are subsets of the closure — whole,
        // or its first 40 pairs. The in-place union must give the bytes
        // and the `grew` flag of the splice, and the dense union's bits.
        for seed in 0..24u64 {
            let closure = banded_with_full_tile(600, seed);
            let a = TiledBitMatrix::build(BANDED_N, &closure);
            let head: Vec<(u32, u32)> = a.pairs().into_iter().take(40).collect();
            let mut deltas: Vec<(String, Vec<(u32, u32)>)> = (0..=4)
                .map(|landing| {
                    (
                        format!("{landing} of 4 land"),
                        delta_pairs(80, landing, seed),
                    )
                })
                .collect();
            deltas.push(("the closure".into(), closure.clone()));
            deltas.push(("40 pairs of the closure".into(), head));
            for (what, pairs) in deltas {
                let b = TiledBitMatrix::build(BANDED_N, &pairs);
                let mut dense = crate::DenseBitMatrix::from_pairs(BANDED_N, &closure);
                let grew =
                    dense.union_in_place(&crate::DenseBitMatrix::from_pairs(BANDED_N, &pairs));
                let (spliced, _) = crate::sparse::splice_rows(&a.csr, &b.csr, true, None);
                assert_eq!(spliced.is_some(), grew, "seed {seed}, {what}");
                for level in levels() {
                    let mut u = a.clone();
                    let before = u.csr.vals.as_ptr();
                    let got = level.run(|| u.csr.union_in_place(&b.csr));
                    let what = format!("seed {seed}, {what}, {level:?}");
                    assert_eq!(got, grew, "{what}");
                    assert_eq!(u.pairs(), dense.pairs(), "{what}");
                    assert_eq!(&u.csr, spliced.as_ref().unwrap_or(&a.csr), "{what}");
                    assert_eq!(
                        u.bytes(),
                        spliced.as_ref().unwrap_or(&a.csr).bytes(),
                        "{what}"
                    );
                    if u.stored_tiles() == a.stored_tiles() {
                        assert_eq!(u.csr.vals.as_ptr(), before, "{what}: written in place");
                    }
                }
            }
        }
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
        let (c, skipped) = a.multiply_masked_opt(&b, None);
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
        let (c, skipped) = x.multiply_masked_opt(&y, Some(&full_mask));
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

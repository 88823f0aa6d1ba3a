//! The tiled length representation: §5's lengths in the cells of the
//! same 64 × 64 tiles the tiled engine's Boolean closure multiplies.
//!
//! Presence is the layout of [`crate::TiledBitMatrix`] — the stored bit
//! tiles of each tile-row in the shared `Csr` storage — and each stored
//! tile keeps its lengths contiguous, in bit-rank order (row by row,
//! columns ascending), in one value arena per matrix. A cell's length is
//! read by a popcount rank.
//!
//! * A build is the Boolean tile builder's
//!   ([`crate::TiledBitMatrix::from_pairs`]) plus one rank and one write
//!   per entry: it costs its entries plus `n / 64`, so that a seed of a
//!   few cells costs those cells and not the rows.
//! * The product is the shared flat loop `Csr::multiply` with
//!   [`LenTileRow`] as the row accumulator. It walks a left tile's bits
//!   with `k` ascending across the tile-row, and `b_row & !blocked` —
//!   `blocked` being what this tile-row already wrote plus the mask —
//!   gives, 64 columns at a time, exactly the cells this `k` writes
//!   first: the smallest-`k` lengths the dense and CSR kernels record,
//!   at the cost of the Boolean tile walk plus one write per new cell.
//!   Every write lands in the output tile at once, so no later tile's
//!   `k` can overtake it.
//! * The first-write-wins merge splices in only the tiles a Δ brings to
//!   places the closure stores nothing at (`splice_rows`, as the Boolean
//!   union does); only the tiles that gain cells are re-laid, at the end
//!   of the arena, and the lengths of every other tile stay where they
//!   are. The arena is compacted in place when its dead values outnumber
//!   its live ones, and before it grows, so that growing never copies a
//!   dead value.

use super::{add_len, LenJob, LenMat, NO_PATH};
use crate::engine::word_bits;
use crate::repr::LenRepr;
use crate::sparse::{gallop, splice_rows, Cell, Csr, Report, RowAccumulator, RowCells};
use crate::tiled::{tile_count, TileWords, EMPTY_TILE, TILE};
use crate::TiledBitMatrix;
use std::cell::RefCell;

/// A stored tile: which of its cells are present, where each of its rows
/// starts in bit-rank order, and where its lengths start in the arena of
/// the matrix that stores it.
#[derive(Clone, Copy, Debug)]
struct LenTile {
    bits: TileWords,
    /// `starts[r]` is the number of bits in the rows above `r`.
    starts: [u16; TILE],
    /// Bit `r` is set iff row `r` holds a cell.
    rows: u64,
    /// The tile's lengths are `lens[at..at + count]`, in bit-rank order.
    at: usize,
}

impl LenTile {
    /// A tile of `bits` whose lengths start at `at`.
    fn new(bits: TileWords, at: usize) -> Self {
        // Counted apart from the running sum, so the counts vectorize.
        let counts = std::array::from_fn(|r| bits[r].count_ones() as u16);
        Self::with_counts(bits, counts, at)
    }

    /// [`LenTile::new`] given the number of bits in each row.
    fn with_counts(bits: TileWords, counts: [u16; TILE], at: usize) -> Self {
        let (mut starts, mut start, mut rows) = ([0; TILE], 0, 0);
        for (r, (s, &count)) in starts.iter_mut().zip(&counts).enumerate() {
            *s = start;
            start += count;
            rows |= u64::from(count != 0) << r;
        }
        LenTile {
            bits,
            starts,
            rows,
            at,
        }
    }

    /// Number of cells.
    #[inline]
    fn count(&self) -> usize {
        self.rank(TILE - 1, 0) + self.bits[TILE - 1].count_ones() as usize
    }

    /// The rank of cell `(r, c)` among the tile's bits: how many of its
    /// cells come before it.
    #[inline]
    fn rank(&self, r: usize, c: u32) -> usize {
        self.starts[r] as usize + (self.bits[r] & ((1u64 << c) - 1)).count_ones() as usize
    }
}

/// Where two stored tiles meet only their bits combine: the tile keeps
/// the `at`, `starts` and `rows` of the cells it had, from which the
/// merge re-lays it, and the Δ's tiles are laid out anew.
impl Cell for LenTile {
    fn absorb(&mut self, other: &Self) -> bool {
        self.bits.absorb(&other.bits)
    }

    fn minus(&self, other: &Self) -> Option<Self> {
        let bits = self.bits.minus(&other.bits)?;
        Some(LenTile { bits, ..*self })
    }

    fn meet(&self, other: &Self) -> Option<Self> {
        let bits = self.bits.meet(&other.bits)?;
        Some(LenTile { bits, ..*self })
    }
}

/// An `n × n` length matrix stored as non-empty 64 × 64 bit tiles, with
/// every stored tile's lengths in one arena (see the module docs).
///
/// The arena keeps the history of the merges: the dead values of re-laid
/// tiles, up to as many as the live ones, and the room its growth
/// reserved. A cold §5 closure holds neither, since its solve ends with
/// [`LenMat::shrink_to_fit`]. A repaired closure keeps both: the next
/// repair's merges re-lay tiles into that room, and trimming after every
/// repair made them grow the arena again.
#[derive(Clone, Debug)]
pub struct TiledLenMatrix {
    n: usize,
    /// One row per tile-row, one cell per stored tile, as in
    /// [`crate::TiledBitMatrix`]; no stored tile is empty.
    csr: Csr<LenTile>,
    /// The arena: each stored tile's lengths, and the dead values of
    /// tiles re-laid since the last compaction.
    lens: Vec<u32>,
    /// Present cells, the arena's live values.
    live: usize,
}

impl TiledLenMatrix {
    /// Creates the all-absent matrix of size `n × n`.
    pub fn empty(n: usize) -> Self {
        Self {
            n,
            csr: Csr::empty(tile_count(n)),
            lens: Vec::new(),
            live: 0,
        }
    }

    /// Builds from `(row, col, length)` entries, first-write-wins on
    /// duplicate cells (the first occurrence in `entries` is kept): it
    /// costs its entries plus `n / 64`. The presence tiles come from the
    /// Boolean tile builder ([`TiledBitMatrix::from_pairs`]), each is laid
    /// out in the arena in storage order, and every length is written at
    /// its cell's rank in the tile a search of its tile-row finds, the
    /// entries walked from last to first so that the first occurrence of
    /// a cell is written last.
    ///
    /// # Panics
    ///
    /// If an entry names a row or column `>= n`.
    pub fn from_entries(n: usize, entries: &[(u32, u32, u32)]) -> Self {
        debug_assert!(entries.iter().all(|e| e.2 != NO_PATH), "NO_PATH is absent");
        let pairs: Vec<(u32, u32)> = entries.iter().map(|&(i, j, _)| (i, j)).collect();
        let Csr {
            row_ptr,
            cols,
            vals,
        } = TiledBitMatrix::from_pairs(n, &pairs).into_tiles();
        let mut live = 0;
        let vals: Vec<LenTile> = vals
            .into_iter()
            .map(|bits| {
                let tile = LenTile::new(bits, live);
                live += tile.count();
                tile
            })
            .collect();
        let csr = Csr {
            row_ptr,
            cols,
            vals,
        };
        let mut lens = vec![0; live];
        for &(i, j, l) in entries.iter().rev() {
            let t = csr.find(i as usize / TILE, j / TILE as u32);
            let tile = &csr.vals[t.expect("the tiles hold every entry")];
            lens[tile.at + tile.rank(i as usize % TILE, j % TILE as u32)] = l;
        }
        Self { n, csr, lens, live }
    }

    /// Matrix dimension `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The stored length at `(i, j)`, if present; cells outside the
    /// matrix read as absent.
    pub fn get(&self, i: u32, j: u32) -> Option<u32> {
        if i as usize >= self.n || j as usize >= self.n {
            return None;
        }
        let t = self.csr.find(i as usize / TILE, j / TILE as u32)?;
        let tile = &self.csr.vals[t];
        let (r, c) = (i as usize % TILE, j % TILE as u32);
        (tile.bits[r] >> c & 1 == 1).then(|| self.lens[tile.at + tile.rank(r, c)])
    }

    /// Number of present cells.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.live
    }

    /// Heap bytes of the tile storage and of the arena, dead values
    /// included, by capacity.
    pub fn bytes(&self) -> usize {
        self.csr.bytes() + self.lens.capacity() * std::mem::size_of::<u32>()
    }

    /// Grows to `n × n`, keeping existing cells: empty tile-rows are
    /// appended, and the edge tiles' cells past the old `n` were absent.
    pub fn grow(&mut self, n: usize) {
        assert!(n >= self.n, "length matrices only grow");
        self.csr.grow(tile_count(n));
        self.n = n;
    }

    /// The lengths of a tile this matrix stores.
    fn tile_lens(&self, tile: &LenTile) -> &[u32] {
        &self.lens[tile.at..tile.at + tile.count()]
    }

    /// `cell(row, col, length)` of every present cell in row-major order:
    /// one walk of each stored tile-row, with a cursor into each of its
    /// tiles' lengths.
    fn cells<T>(&self, cell: impl Fn(u32, u32, u32) -> T) -> Vec<T> {
        let mut out = Vec::with_capacity(self.live);
        let mut next = Vec::new();
        for ti in self.csr.occupied_rows() {
            let tiles = self.csr.row(ti);
            next.clear();
            next.extend(self.csr.vals[tiles.clone()].iter().map(|t| t.at));
            for r in 0..TILE {
                let i = (ti * TILE + r) as u32;
                for (t, at) in tiles.clone().zip(&mut next) {
                    let base = self.csr.cols[t] * TILE as u32;
                    for bit in word_bits(self.csr.vals[t].bits[r]) {
                        out.push(cell(i, base + bit, self.lens[*at]));
                        *at += 1;
                    }
                }
            }
        }
        out
    }

    /// The cells of `add` absent from `self`: the report of the tile
    /// splice (`splice_rows`), with their lengths picked out of `add`'s
    /// arena.
    fn absent(&self, add: &Self) -> Self {
        let (_, fresh) = splice_rows(&self.csr, &add.csr, false, Some(Report::Absent));
        // A fresh tile has the `at` and `starts` of `add`'s tile at its
        // place until it is laid out.
        let mut fresh = fresh.expect("a report was asked for");
        let mut tiles = std::mem::take(&mut fresh.vals);
        let mut lens = Vec::with_capacity(add.live);
        for (f, a) in places(&fresh, &add.csr) {
            let (tile, from) = (&mut tiles[f], &add.csr.vals[a.expect("fresh ⊆ add")]);
            *tile = LenTile::new(tile.bits, lens.len());
            pick(from, &add.lens[from.at..], &tile.bits, &mut lens);
        }
        fresh.vals = tiles;
        Self {
            n: self.n,
            csr: fresh,
            live: lens.len(),
            lens,
        }
    }

    /// Drops the arena's dead values in place: the tiles' lengths move
    /// down, in the order they lie in the arena, and the capacity stays.
    fn compact(&mut self) {
        let mut order: Vec<usize> = (0..self.csr.nnz()).collect();
        order.sort_unstable_by_key(|&t| self.csr.vals[t].at);
        let mut end = 0;
        for t in order {
            let tile = &mut self.csr.vals[t];
            let count = tile.count();
            self.lens.copy_within(tile.at..tile.at + count, end);
            tile.at = end;
            end += count;
        }
        self.lens.truncate(end);
    }
}

/// Semantic equality: the same cells with the same lengths, wherever
/// their arenas keep them.
impl PartialEq for TiledLenMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.csr.row_ptr == other.csr.row_ptr
            && self.csr.cols == other.csr.cols
            && self
                .csr
                .vals
                .iter()
                .zip(&other.csr.vals)
                .all(|(a, b)| a.bits == b.bits && self.tile_lens(a) == other.tile_lens(b))
    }
}

impl Eq for TiledLenMatrix {}

impl LenMat for TiledLenMatrix {
    fn n(&self) -> usize {
        self.n
    }
    fn get(&self, i: u32, j: u32) -> Option<u32> {
        TiledLenMatrix::get(self, i, j)
    }
    fn nnz(&self) -> usize {
        self.live
    }
    fn pairs(&self) -> Vec<(u32, u32)> {
        self.cells(|i, j, _| (i, j))
    }
    fn entries(&self) -> Vec<(u32, u32, u32)> {
        self.cells(|i, j, l| (i, j, l))
    }
    /// Word `i % 64` of each tile stored in tile-row `i / 64`, its
    /// lengths from the rank of the word's first bit on.
    fn row_cells(&self, i: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let (ti, r) = (i as usize / TILE, i as usize % TILE);
        let tiles = if (i as usize) < self.n {
            self.csr.row(ti)
        } else {
            0..0
        };
        tiles.flat_map(move |t| {
            let tile = &self.csr.vals[t];
            let base = self.csr.cols[t] * TILE as u32;
            let lens = &self.lens[tile.at + tile.starts[r] as usize..];
            word_bits(tile.bits[r])
                .zip(lens)
                .map(move |(bit, &l)| (base + bit, l))
        })
    }
    fn bytes(&self) -> usize {
        TiledLenMatrix::bytes(self)
    }
    /// Compacts the arena, then gives back its spare capacity and the
    /// tile storage's: [`TiledLenMatrix::bytes`] is then the stored tiles
    /// plus 4 B a present cell.
    fn shrink_to_fit(&mut self) {
        if self.lens.len() > self.live {
            self.compact();
        }
        self.lens.shrink_to_fit();
        self.csr.shrink();
    }
}

/// Every stored cell `s` of `sub`, in storage order, with where `sup`
/// stores the same place if it does: a gallop along each row of `sup`
/// that `sub` fills. Only places are read, so a caller may have taken
/// either side's values out to write them.
fn places<'a, V: Copy, W: Copy>(
    sub: &'a Csr<V>,
    sup: &'a Csr<W>,
) -> impl Iterator<Item = (usize, Option<usize>)> + 'a {
    sub.occupied_rows().flat_map(move |row| {
        let (mut at, end) = (sup.row_ptr[row], sup.row_ptr[row + 1]);
        sub.row(row).map(move |s| {
            at = gallop(&sup.cols[..end], at, |&c| c < sub.cols[s]);
            (s, (at < end && sup.cols[at] == sub.cols[s]).then_some(at))
        })
    })
}

/// Appends the lengths of `from`'s cells that `bits` holds, in bit-rank
/// order; `bits` is a subset of `from`'s bits and `lens` its lengths.
fn pick(from: &LenTile, lens: &[u32], bits: &TileWords, out: &mut Vec<u32>) {
    // Rows kept whole go over as one run, up to the next row that drops
    // cells.
    let (mut run, mut at) = (0, 0);
    for (&have, &want) in from.bits.iter().zip(bits) {
        let count = have.count_ones() as usize;
        if have != want {
            out.extend_from_slice(&lens[run..at]);
            let picked = word_bits(have)
                .zip(&lens[at..])
                .filter(|&(bit, _)| want >> bit & 1 == 1);
            out.extend(picked.map(|(_, &l)| l));
            run = at + count;
        }
        at += count;
    }
    out.extend_from_slice(&lens[run..at]);
}

impl LenRepr for TiledLenMatrix {
    const REPR: &'static str = "tiled";

    fn empty(n: usize) -> Self {
        Self::empty(n)
    }
    fn from_entries(n: usize, entries: &[(u32, u32, u32)]) -> Self {
        Self::from_entries(n, entries)
    }

    /// First-write-wins merge: the returned Δ is `add` less `self`'s cells
    /// ([`TiledLenMatrix::absent`], or `add` itself if they meet nowhere).
    /// The tiles it brings to places `self` stores nothing at are spliced
    /// in, as the Boolean union does; a merge whose Δ lands in stored
    /// tiles copies none of `self`'s tiles. Every tile that gained cells
    /// is then re-laid at the end of the arena: the old lengths of its
    /// rows the Δ leaves alone go over in runs, and the rows it reaches
    /// interleave old and new lengths by bit rank.
    fn merge_absent(&mut self, add: &Self) -> Self {
        assert_eq!(self.n, add.n, "dimension mismatch");
        // A masked product, what the closure is mostly merged with, meets
        // none of its cells: then the Δ is `add` itself.
        let meets = |(a, at): (usize, Option<usize>)| {
            let (held, new) = (at.map(|at| &self.csr.vals[at].bits), &add.csr.vals[a].bits);
            held.is_some_and(|held| held.iter().zip(new).any(|(h, n)| h & n != 0))
        };
        let fresh = if places(&add.csr, &self.csr).any(meets) {
            self.absent(add)
        } else {
            add.clone()
        };
        // What the re-lay appends: the Δ, and the old lengths of the tiles
        // it lands in. An arena without room for that is compacted before
        // it grows, so that growing never copies a dead value.
        let (mut relaid, mut spliced) = (fresh.live, false);
        for (_, at) in places(&fresh.csr, &self.csr) {
            match at {
                Some(at) => relaid += self.csr.vals[at].count(),
                None => spliced = true,
            }
        }
        if self.lens.len() + relaid > self.lens.capacity() {
            self.compact();
            self.lens.reserve(relaid);
        }
        if spliced {
            let (merged, _) = splice_rows(&self.csr, &fresh.csr, true, None);
            self.csr = merged.expect("the Δ stores a place `self` does not");
        }
        // Now `self` stores every place of the Δ: a spliced-in tile with
        // the Δ's bits, a spliced one with both tiles' bits, the others
        // with their own.
        let mut tiles = std::mem::take(&mut self.csr.vals);
        for (f, m) in places(&fresh.csr, &self.csr) {
            let (new, tile) = (&fresh.csr.vals[f], &mut tiles[m.expect("spliced in")]);
            let new_lens = fresh.tile_lens(new);
            if tile.bits == new.bits {
                // Spliced in: the Δ's tile is all of it.
                *tile = LenTile {
                    at: self.lens.len(),
                    ..*new
                };
                self.lens.extend_from_slice(new_lens);
                continue;
            }
            // The tile's own `starts` are still its old cells' (a splice
            // only ORs bits in), and the two sets are disjoint, so the
            // grown tile's row starts are the sums of both.
            let old_at = tile.at;
            for ((w, s), (&n, &t)) in tile
                .bits
                .iter_mut()
                .zip(&mut tile.starts)
                .zip(new.bits.iter().zip(&new.starts))
            {
                (*w, *s) = (*w | n, *s + t);
            }
            (tile.rows, tile.at) = (tile.rows | new.rows, self.lens.len());
            // Row by row: the old lengths of the rows the Δ leaves alone
            // go over in runs, and a row it reaches interleaves old and new
            // lengths bit by bit.
            let (count, new_count) = (tile.count(), new_lens.len());
            self.lens.resize(tile.at + count, 0);
            let (arena, out) = self.lens.split_at_mut(tile.at);
            let old_lens = &arena[old_at..old_at + count - new_count];
            let (mut at, mut old) = (0, 0);
            for r in word_bits(new.rows) {
                let r = r as usize;
                let run = tile.starts[r] as usize - at;
                out[at..at + run].copy_from_slice(&old_lens[old..old + run]);
                (at, old) = (at + run, old + run);
                let (mut word, new_word) = (tile.bits[r], new.bits[r]);
                let mut next = new.starts[r] as usize;
                while word != 0 {
                    let bit = word & word.wrapping_neg();
                    word ^= bit;
                    let is_new = usize::from(new_word & bit != 0);
                    // Both reads stay in bounds past either side's last value.
                    let (n, o) = (
                        new_lens[next.min(new_count - 1)],
                        old_lens[old.min(old_lens.len() - 1)],
                    );
                    out[at] = if is_new == 1 { n } else { o };
                    (at, next, old) = (at + 1, next + is_new, old + 1 - is_new);
                }
            }
            out[at..].copy_from_slice(&old_lens[old..]);
        }
        self.csr.vals = tiles;
        self.live += fresh.live;
        if self.lens.len() - self.live > self.live {
            self.compact();
        }
        fresh
    }
    fn grow(&mut self, n: usize) {
        self.grow(n)
    }
    /// The flat product the Boolean tiled kernel uses (`Csr::multiply`),
    /// on this thread's scratch. Always serial, as every length product.
    fn kernel() -> impl FnMut(LenJob<'_, Self>) -> Self {
        |(a, b, mask): LenJob<'_, Self>| {
            assert_eq!(a.n, b.n, "dimension mismatch");
            if let Some(m) = mask {
                assert_eq!(a.n, m.n, "mask dimension mismatch");
            }
            let (csr, lens) = LEN_SCRATCH.with_borrow_mut(|scratch| {
                let mut acc = LenTileRow {
                    a: &a.lens,
                    b: &b.lens,
                    mask: mask.map(|m| &m.csr),
                    scratch,
                };
                let rows = 0..a.csr.rows();
                let (csr, _) = a.csr.multiply(&b.csr, acc.mask, rows, &mut acc);
                // The lengths were drained into the scratch's buffer, which
                // keeps its capacity: the product's arena is one copy.
                let lens = acc.scratch.lens.to_vec();
                acc.scratch.lens.clear();
                (csr, lens)
            });
            TiledLenMatrix {
                n: a.n,
                csr,
                live: lens.len(),
                lens,
            }
        }
    }
}

thread_local! {
    static LEN_SCRATCH: RefCell<LenScratch> = RefCell::new(LenScratch::default());
}

/// One output tile of the tile-row being accumulated.
struct LenSlot {
    /// The cells no later `k` may write: those written, and the mask's.
    blocked: TileWords,
    written: TileWords,
    /// `(r * TILE + c, length)` of each written cell, in the order they
    /// were written: a drain ranks them into place.
    lens: Vec<(u16, u32)>,
}

/// What the tiled length products of a thread reuse: one [`LenSlot`]
/// per tile-column a tile-row touches, found through a stamped table, so
/// starting a row clears nothing and a product allocates no slot once
/// the thread has made one as wide.
#[derive(Default)]
struct LenScratch {
    /// `slot_of[tj] == (stamp, s)` iff `slots[s]` is tile-column `tj`'s
    /// in the current tile-row.
    slot_of: Vec<(u64, u32)>,
    stamp: u64,
    slots: Vec<LenSlot>,
    /// The tile-columns of the current tile-row, in the order of their
    /// slots.
    touched: Vec<u32>,
    /// The product's lengths, as the drains lay them out.
    lens: Vec<u32>,
}

impl LenScratch {
    /// Tile-column `tj`'s slot, opened with the mask tile stored there
    /// as its blocked cells if this tile-row has not touched it yet.
    fn slot(&mut self, tj: u32, mask: Option<RowCells<'_, LenTile>>) -> &mut LenSlot {
        let (stamp, s) = &mut self.slot_of[tj as usize];
        if *stamp != self.stamp {
            (*stamp, *s) = (self.stamp, self.touched.len() as u32);
            self.touched.push(tj);
            if self.slots.len() < self.touched.len() {
                self.slots.push(LenSlot {
                    blocked: EMPTY_TILE,
                    written: EMPTY_TILE,
                    lens: Vec::new(),
                });
            }
            let slot = &mut self.slots[*s as usize];
            let masked = mask.and_then(|(cols, tiles)| Some(&tiles[cols.binary_search(&tj).ok()?]));
            slot.blocked = masked.map_or(EMPTY_TILE, |t| t.bits);
            slot.written = EMPTY_TILE;
            slot.lens.clear();
        }
        &mut self.slots[*s as usize]
    }
}

/// The row accumulator of the tiled length product: the arenas of the
/// product's two operands, its mask, and the thread's scratch, into whose
/// buffer the drains lay out the product's lengths.
struct LenTileRow<'a> {
    a: &'a [u32],
    b: &'a [u32],
    mask: Option<&'a Csr<LenTile>>,
    scratch: &'a mut LenScratch,
}

/// `c ∪= a ⊗ b` on one pair of tiles, over the cells `c` has not blocked:
/// `a`'s bits are walked row by row with `k` ascending, and `b`'s row `k`
/// less `c`'s blocked row is exactly the cells this `k` writes first.
/// Each gets `l_a + l_b`, `l_b` read by its popcount rank in `b`'s row.
/// ε cells (length 0) compose on neither side.
fn multiply_tile(a: &LenTile, a_lens: &[u32], b: &LenTile, b_lens: &[u32], c: &mut LenSlot) {
    for r in word_bits(a.rows) {
        let r = r as usize;
        // The `k` of this row that meet a row of `b` holding anything.
        let mut ks = a.bits[r] & b.rows;
        if ks == 0 {
            continue;
        }
        let mut blocked = c.blocked[r];
        while ks != 0 {
            let k = ks.trailing_zeros();
            ks &= ks - 1;
            let b_row = b.bits[k as usize];
            let new = b_row & !blocked;
            if new == 0 {
                continue;
            }
            let la = a_lens[a.rank(r, k)];
            if la == 0 {
                continue;
            }
            let row_lens = &b_lens[b.starts[k as usize] as usize..];
            let mut m = new;
            while m != 0 {
                let bit = m.trailing_zeros();
                m &= m - 1;
                let lb = row_lens[(b_row & ((1u64 << bit) - 1)).count_ones() as usize];
                if lb != 0 {
                    c.lens
                        .push(((r * TILE) as u16 + bit as u16, add_len(la, lb)));
                    blocked |= 1 << bit;
                }
            }
        }
        c.written[r] |= blocked & !c.blocked[r];
        c.blocked[r] = blocked;
    }
}

impl RowAccumulator<LenTile> for LenTileRow<'_> {
    fn fit(&mut self, tn: usize) {
        let s = &mut *self.scratch;
        if s.slot_of.len() < tn {
            s.slot_of.resize(tn, (0, 0));
        }
        s.stamp += 1;
        s.touched.clear();
    }

    /// Mask row `i` goes into each output tile as it is first touched.
    #[inline]
    fn add(
        &mut self,
        a: &LenTile,
        i: usize,
        _k: u32,
        _row_len: usize,
        cols: &[u32],
        panel: &[LenTile],
    ) {
        let mask = self.mask.map(|m| {
            let row = m.row(i);
            (&m.cols[row.clone()], &m.vals[row])
        });
        let a_lens = &self.a[a.at..];
        for (&tj, b) in cols.iter().zip(panel) {
            let slot = self.scratch.slot(tj, mask);
            multiply_tile(a, a_lens, b, &self.b[b.at..], slot);
        }
    }

    fn is_empty(&self) -> bool {
        self.scratch.touched.is_empty()
    }

    /// Appends the row's written tiles in ascending tile-column order,
    /// their lengths to the product's arena in bit-rank order, and moves
    /// to a fresh stamp. The mask was applied as the tiles were opened.
    fn drain_into(&mut self, _mask: Option<RowCells<'_, LenTile>>, out: &mut Csr<LenTile>) {
        let s = &mut *self.scratch;
        s.touched.sort_unstable();
        for &tj in &s.touched {
            let slot = &s.slots[s.slot_of[tj as usize].1 as usize];
            if slot.lens.is_empty() {
                continue;
            }
            let mut counts = [0; TILE];
            for &(cell, _) in &slot.lens {
                counts[cell as usize / TILE] += 1;
            }
            out.push(tj, LenTile::with_counts(slot.written, counts, s.lens.len()));
            let tile = out.vals.last().expect("just pushed");
            s.lens.resize(tile.at + slot.lens.len(), 0);
            let lens = &mut s.lens[tile.at..];
            for &(cell, l) in &slot.lens {
                let (r, c) = (cell as usize / TILE, u32::from(cell) % TILE as u32);
                lens[tile.rank(r, c)] = l;
            }
        }
        s.touched.clear();
        s.stamp += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cells of a 200 × 200 matrix that fall in its tile (1, 2),
    /// lengths counting up from `first`.
    fn tile_1_2(first: u32, cells: &[(u32, u32)]) -> Vec<(u32, u32, u32)> {
        (first..)
            .zip(cells)
            .map(|(l, &(r, c))| (64 + r, 128 + c, l))
            .collect()
    }

    #[test]
    fn a_merge_relays_only_the_tiles_that_gain_cells() {
        let mut m = TiledLenMatrix::from_entries(200, &[(0, 0, 9), (0, 1, 8)]);
        let other = tile_1_2(1, &[(0, 5), (3, 0), (63, 63)]);
        m.set_absent(&other);
        let untouched = m.csr.vals[0].at;
        // A cell between the tile's first and second ones re-lays it at
        // the end of the arena; the other tile's lengths stay put.
        let fresh = m.merge_absent(&TiledLenMatrix::from_entries(200, &tile_1_2(7, &[(1, 9)])));
        assert_eq!(fresh.entries(), [(65, 137, 7)]);
        assert_eq!(m.csr.vals[0].at, untouched);
        assert_eq!(m.tile_lens(&m.csr.vals[1]), [1, 7, 2, 3]);
        assert_eq!(m.get(65, 137), Some(7));
        assert_eq!(m.get(127, 191), Some(3));
        // The re-laid tile's old lengths are dead, and counted.
        assert_eq!((m.nnz(), m.lens.len()), (6, 9));
        assert_eq!(m.bytes(), m.csr.bytes() + m.lens.capacity() * 4);
        assert!(m.bytes() >= m.csr.bytes() + 9 * 4);
    }

    #[test]
    fn a_merge_lays_old_and_new_lengths_in_bit_rank_order() {
        // Old cells in every other row of tile (1, 2); new ones in every
        // third row, before, between and after the old ones of a row, and
        // alone in rows with no old cell.
        let mut state = 0x5EED_u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        let (mut old, mut new) = (Vec::new(), Vec::new());
        for r in 0..64 {
            for c in 0..64 {
                if r % 2 == 0 && next() % 3 == 0 {
                    old.push((r, c));
                } else if r % 3 == 0 && next() % 4 == 0 {
                    new.push((r, c));
                }
            }
        }
        let old = tile_1_2(1, &old);
        let new = tile_1_2(5000, &new);
        let mut m = TiledLenMatrix::from_entries(200, &old);
        let fresh = m.merge_absent(&TiledLenMatrix::from_entries(200, &new));
        assert_eq!(fresh.entries(), new);
        let mut all = [old, new].concat();
        all.sort_unstable();
        assert_eq!(m.entries(), all);
        assert_eq!(m, TiledLenMatrix::from_entries(200, &all));
    }

    /// What a tiled length matrix holding only its present cells takes:
    /// its tiles, their tile-columns and row ends, and 4 B a cell.
    fn exact_bytes(m: &TiledLenMatrix) -> usize {
        use std::mem::size_of;
        m.csr.nnz() * (size_of::<LenTile>() + 4)
            + m.csr.row_ptr.len() * size_of::<usize>()
            + m.nnz() * 4
    }

    #[test]
    fn a_built_matrix_holds_exactly_its_cells() {
        // Five tiles: grown tile by tile, the storage would keep room for
        // eight.
        let mut entries = tile_1_2(1, &[(0, 5), (3, 0), (63, 63)]);
        entries.extend([(0, 0, 1), (0, 70, 2), (130, 0, 3), (199, 199, 4)]);
        let m = TiledLenMatrix::from_entries(200, &entries);
        assert_eq!(m.csr.nnz(), 5);
        assert_eq!(m.bytes(), exact_bytes(&m));
    }

    #[test]
    fn a_trim_keeps_the_cells_and_drops_everything_else() {
        let mut m = TiledLenMatrix::from_entries(200, &[(0, 0, 9)]);
        for k in 1..30 {
            // Each merge re-lays tile (0, 0), and from k = 3 on adds a
            // cell in tile-row 1 or 2.
            let cells = [(k, k, k + 1), (64 + k * 4, k * 4, 1)];
            m.merge_absent(&TiledLenMatrix::from_entries(
                200,
                &cells[..1 + usize::from(k >= 3)],
            ));
        }
        assert!(m.lens.len() > m.nnz(), "the merges left dead values");
        assert!(m.bytes() > exact_bytes(&m));
        let mut trimmed = m.clone();
        trimmed.shrink_to_fit();
        assert_eq!(trimmed, m);
        assert_eq!(trimmed.entries(), m.entries());
        assert_eq!(trimmed.bytes(), exact_bytes(&trimmed));
        trimmed.shrink_to_fit();
        assert_eq!(
            trimmed.bytes(),
            exact_bytes(&trimmed),
            "a second trim frees nothing"
        );
        assert_eq!(trimmed, m);
        // The trimmed arena has no room to re-lay a tile in: the merge
        // grows it, and gives what a merge into the untrimmed matrix does.
        let add = TiledLenMatrix::from_entries(200, &[(5, 6, 1), (70, 150, 2), (199, 0, 3)]);
        assert_eq!(trimmed.merge_absent(&add), m.merge_absent(&add));
        assert_eq!(trimmed, m);
        assert_eq!(trimmed.entries(), m.entries());
    }

    #[test]
    fn dead_values_never_outnumber_live_ones() {
        let mut m = TiledLenMatrix::from_entries(64, &[(0, 0, 1)]);
        let mut expect = vec![(0, 0, 1)];
        let mut relaid = 0;
        for k in 1..40 {
            // Each merge re-lays the only tile.
            m.merge_absent(&TiledLenMatrix::from_entries(64, &[(k, k, k + 1)]));
            expect.push((k, k, k + 1));
            let dead = m.lens.len() - m.nnz();
            assert!(dead <= m.nnz(), "{dead} dead, {} live", m.nnz());
            relaid += usize::from(dead > 0);
        }
        assert!(relaid > 20, "dead values were left behind, then compacted");
        assert_eq!(m.entries(), expect);
        assert_eq!(m, TiledLenMatrix::from_entries(64, &expect));
    }
}

//! The tiled length representation: §5's lengths in the cells of the
//! same 64 × 64 tiles the tiled engine's Boolean closure multiplies.
//!
//! Presence is the layout of [`crate::TiledBitMatrix`] — the stored bit
//! tiles of each tile-row in the shared `Csr` storage — and each row of
//! a stored tile keeps its lengths contiguous, columns ascending, in one
//! value arena per matrix, wherever that row's own offset says. A cell's
//! length is read by a popcount rank within its row.
//!
//! * A build is the Boolean tile builder's
//!   ([`crate::TiledBitMatrix::from_pairs`]) plus one rank and one write
//!   per entry: it costs its entries plus `n / 64`, so that a seed of a
//!   few cells costs those cells and not the rows. Each tile's rows are
//!   laid out one after another.
//! * The product is the shared flat loop `Csr::multiply` with
//!   [`LenTileRow`] as the row accumulator. It walks a left tile's bits
//!   with `k` ascending across the tile-row, and `b_row & !blocked` —
//!   `blocked` being what this tile-row already wrote plus the mask —
//!   gives, 64 columns at a time, exactly the cells this `k` writes
//!   first: the smallest-`k` lengths the dense and CSR kernels record,
//!   at the cost of the Boolean tile walk plus one write per new cell.
//!   Every write lands in the output tile at once, so no later tile's
//!   `k` can overtake it.
//! * The first-write-wins merge costs its Δ. It splices in only the
//!   tiles a Δ brings to places the closure stores nothing at
//!   (`splice_rows`, as the Boolean union does), and re-lays only the
//!   rows the Δ reaches, at the end of the arena, old and new lengths
//!   interleaved by bit rank; every other row stays where it is. The
//!   arena is compacted when its dead values outnumber its live ones,
//!   and when it must grow: the live rows are copied, in storage order,
//!   into the new arena — rows that lay one after another as one run —
//!   so that growing copies no dead value and costs one pass.
//! * The product, the merge, the build and the walk over every cell run
//!   on the instantiation of the Boolean tile code (`cpu.rs`): compiled
//!   for AVX2, BMI and POPCNT where the CPU has them, so a rank is one
//!   `popcnt` and not a SWAR sequence. Everything below them is
//!   `#[inline(always)]`, and both instantiations give the same bytes.

use super::{add_len, LenJob, LenMat, NO_PATH};
use crate::cpu::{self, Level};
use crate::engine::word_bits;
use crate::repr::LenRepr;
use crate::sparse::{gallop, splice_rows, Cell, Csr, Report, RowAccumulator, RowCells};
use crate::tiled::{tile_bits, tile_count, TileWords, EMPTY_TILE, TILE};
use crate::TiledBitMatrix;
use std::cell::RefCell;

/// A stored tile: which of its cells are present, and where each of its
/// rows keeps its lengths in the arena of the matrix that stores it.
#[derive(Clone, Copy, Debug)]
struct LenTile {
    bits: TileWords,
    /// Row `r`'s lengths are `lens[at[r]..]`, one per bit of `bits[r]`,
    /// columns ascending. An empty row's offset is 0, so every offset
    /// lies inside the arena.
    at: [u32; TILE],
    /// Bit `r` is set iff row `r` holds a cell.
    rows: u64,
}

/// `at` as an arena offset.
#[inline(always)]
fn arena_index(at: usize) -> u32 {
    u32::try_from(at).expect("a length arena holds fewer than 2³² values")
}

impl LenTile {
    /// A tile of `bits` whose rows lie one after another from `at`.
    #[inline(always)]
    fn new(bits: TileWords, at: usize) -> Self {
        // Counted apart from the running sum, so the counts vectorize.
        let counts = std::array::from_fn(|r| bits[r].count_ones());
        Self::with_counts(bits, counts, at)
    }

    /// [`LenTile::new`] given the number of bits in each row.
    #[inline(always)]
    fn with_counts(bits: TileWords, counts: [u32; TILE], at: usize) -> Self {
        // The tile's end fits an offset, so no row's start wraps.
        arena_index(at + counts.iter().sum::<u32>() as usize);
        let (mut offsets, mut start, mut rows) = ([0; TILE], at as u32, 0);
        for (r, (o, &count)) in offsets.iter_mut().zip(&counts).enumerate() {
            *o = if count == 0 { 0 } else { start };
            start += count;
            rows |= u64::from(count != 0) << r;
        }
        LenTile {
            bits,
            at: offsets,
            rows,
        }
    }

    /// Where cell `(r, c)`'s length lies in the arena: its row's offset
    /// plus how many of the row's cells come before it.
    #[inline(always)]
    fn rank(&self, r: usize, c: u32) -> usize {
        self.at[r] as usize + (self.bits[r] & ((1u64 << c) - 1)).count_ones() as usize
    }

    /// The lengths of row `r`, out of the arena `lens` that holds them.
    #[inline(always)]
    fn row<'a>(&self, lens: &'a [u32], r: usize) -> &'a [u32] {
        let at = self.at[r] as usize;
        &lens[at..at + self.bits[r].count_ones() as usize]
    }
}

/// Where two stored tiles meet only their bits combine: the tile keeps
/// the offsets and `rows` of the cells it had, from which the merge
/// re-lays the rows that grew, and the Δ's tiles are laid out anew.
impl Cell for LenTile {
    #[inline(always)]
    fn absorb(&mut self, other: &Self) -> bool {
        self.bits.absorb(&other.bits)
    }

    #[inline(always)]
    fn minus(&self, other: &Self) -> Option<Self> {
        let bits = self.bits.minus(&other.bits)?;
        Some(LenTile { bits, ..*self })
    }

    #[inline(always)]
    fn meet(&self, other: &Self) -> Option<Self> {
        let bits = self.bits.meet(&other.bits)?;
        Some(LenTile { bits, ..*self })
    }
}

/// An `n × n` length matrix stored as non-empty 64 × 64 bit tiles, with
/// the lengths of every stored tile's rows in one arena (see the module
/// docs).
///
/// The arena keeps the history of the merges: the dead values of re-laid
/// rows, up to as many as the live ones, and the room its growth
/// reserved. A cold §5 closure holds neither, since its solve ends with
/// [`LenMat::shrink_to_fit`]. A repaired closure keeps both: the next
/// repair's merges re-lay rows into that room, and trimming after every
/// repair made them grow the arena again.
#[derive(Clone, Debug)]
pub struct TiledLenMatrix {
    n: usize,
    /// One row per tile-row, one cell per stored tile, as in
    /// [`crate::TiledBitMatrix`]; no stored tile is empty.
    csr: Csr<LenTile>,
    /// The arena: the lengths of each stored tile's rows, and the dead
    /// values of rows re-laid since the last compaction.
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
        cpu::dispatch(
            #[inline(always)]
            || Self::build(n, entries),
        )
    }

    /// [`Self::from_entries`] on the instantiation its caller runs.
    #[inline(always)]
    fn build(n: usize, entries: &[(u32, u32, u32)]) -> Self {
        debug_assert!(entries.iter().all(|e| e.2 != NO_PATH), "NO_PATH is absent");
        let pairs: Vec<(u32, u32)> = entries.iter().map(|&(i, j, _)| (i, j)).collect();
        let Csr {
            row_ptr,
            cols,
            vals,
        } = TiledBitMatrix::build(n, &pairs).into_tiles();
        let mut live = 0;
        let vals: Vec<LenTile> = vals
            .into_iter()
            .map(|bits| {
                let tile = LenTile::new(bits, live);
                live += tile_bits(&bits);
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
            lens[tile.rank(i as usize % TILE, j % TILE as u32)] = l;
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
        (tile.bits[r] >> c & 1 == 1).then(|| self.lens[tile.rank(r, c)])
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

    /// `cell(row, col, length)` of every present cell in row-major order.
    fn cells<T>(&self, cell: impl Fn(u32, u32, u32) -> T) -> Vec<T> {
        cpu::dispatch(
            #[inline(always)]
            || self.walk(cell),
        )
    }

    /// [`Self::cells`] on the instantiation its caller runs: one walk of
    /// each stored tile-row, over the rows one of its tiles fills.
    #[inline(always)]
    fn walk<T>(&self, cell: impl Fn(u32, u32, u32) -> T) -> Vec<T> {
        let mut out = Vec::with_capacity(self.live);
        for ti in self.csr.occupied_rows() {
            let tiles = self.csr.row(ti);
            let filled = self.csr.vals[tiles.clone()]
                .iter()
                .fold(0, |rows, tile| rows | tile.rows);
            for r in word_bits(filled) {
                let i = (ti * TILE) as u32 + r;
                for t in tiles.clone() {
                    let (tile, base) = (&self.csr.vals[t], self.csr.cols[t] * TILE as u32);
                    let lens = tile.row(&self.lens, r as usize);
                    for (bit, &l) in word_bits(tile.bits[r as usize]).zip(lens) {
                        out.push(cell(i, base + bit, l));
                    }
                }
            }
        }
        out
    }

    /// The cells of `add` absent from `self`: the report of the tile
    /// splice (`splice_rows`), with their lengths picked out of `add`'s
    /// arena and each tile's rows laid out one after another.
    #[inline(always)]
    fn absent(&self, add: &Self) -> Self {
        let (_, fresh) = splice_rows(&self.csr, &add.csr, false, Some(Report::Absent));
        // A fresh tile has the offsets of `add`'s tile at its place until
        // it is laid out.
        let mut fresh = fresh.expect("a report was asked for");
        let mut tiles = std::mem::take(&mut fresh.vals);
        let mut lens = Vec::with_capacity(add.live);
        for (f, a) in places(&fresh, &add.csr) {
            let (tile, from) = (&mut tiles[f], &add.csr.vals[a.expect("fresh ⊆ add")]);
            *tile = LenTile::new(tile.bits, lens.len());
            pick(from, &add.lens, &tile.bits, &mut lens);
        }
        fresh.vals = tiles;
        Self {
            n: self.n,
            csr: fresh,
            live: lens.len(),
            lens,
        }
    }

    /// First-write-wins merge on the instantiation its caller runs (see
    /// [`LenRepr::merge_absent`] below).
    #[inline(always)]
    fn merge(&mut self, add: &Self) -> Self {
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
        // What the re-lay appends: the Δ, and the old cells of the rows it
        // reaches. An arena without room for that is compacted as it
        // grows, so that growing never copies a dead value.
        let (mut relaid, mut spliced) = (fresh.live, false);
        for (f, at) in places(&fresh.csr, &self.csr) {
            match at {
                Some(at) => {
                    let old = &self.csr.vals[at].bits;
                    let reached = word_bits(fresh.csr.vals[f].rows);
                    relaid += reached
                        .map(|r| old[r as usize].count_ones() as usize)
                        .sum::<usize>();
                }
                None => spliced = true,
            }
        }
        if self.lens.len() + relaid > self.lens.capacity() {
            let (needed, capacity) = (self.live + relaid, self.lens.capacity());
            self.relay(if needed <= capacity {
                capacity
            } else {
                needed.max(2 * capacity)
            });
        }
        if spliced {
            let (merged, _) = splice_rows(&self.csr, &fresh.csr, true, None);
            self.csr = merged.expect("the Δ stores a place `self` does not");
        }
        // Now `self` stores every place of the Δ: a spliced-in tile with
        // the Δ's bits and offsets, a spliced one with both tiles' bits and
        // its old offsets, the others as they were. A row the Δ reaches is
        // re-laid at the end of the arena — its new lengths alone, which
        // go over in runs, or interleaved with its old ones — and every
        // other row stays where it is.
        let mut tiles = std::mem::take(&mut self.csr.vals);
        let mut run = Run::default();
        for (f, m) in places(&fresh.csr, &self.csr) {
            let (new, tile) = (&fresh.csr.vals[f], &mut tiles[m.expect("spliced in")]);
            for r in word_bits(new.rows) {
                let r = r as usize;
                let new_lens = new.row(&fresh.lens, r);
                let (new_word, old_word) = (new.bits[r], tile.bits[r] & !new.bits[r]);
                if old_word == 0 {
                    let from = new.at[r] as usize;
                    tile.at[r] = run.take(from, new_lens.len(), &fresh.lens, &mut self.lens);
                } else {
                    run.flush(&fresh.lens, &mut self.lens);
                    let old_at = tile.at[r] as usize;
                    tile.at[r] = arena_index(self.lens.len());
                    interleave(old_word, old_at, new_word, new_lens, &mut self.lens);
                }
                tile.bits[r] = old_word | new_word;
            }
            tile.rows |= new.rows;
        }
        run.flush(&fresh.lens, &mut self.lens);
        self.csr.vals = tiles;
        self.live += fresh.live;
        if self.lens.len() - self.live > self.live {
            self.relay(self.lens.capacity());
        }
        fresh
    }

    /// Copies the live lengths into a new arena of `capacity`, tile by
    /// tile in storage order, and drops the old one with its dead values.
    /// Rows that lay one after another go over as one copy: after a build,
    /// a product or the last compaction that is whole runs of tiles.
    #[inline(always)]
    fn relay(&mut self, capacity: usize) {
        let mut lens = Vec::with_capacity(capacity);
        let mut run = Run::default();
        for tile in &mut self.csr.vals {
            for r in word_bits(tile.rows) {
                let r = r as usize;
                let count = tile.bits[r].count_ones() as usize;
                tile.at[r] = run.take(tile.at[r] as usize, count, &self.lens, &mut lens);
            }
        }
        run.flush(&self.lens, &mut lens);
        self.lens = lens;
    }

    /// `(self ⊗ b) \ mask?` on the kernels of `level`: the flat product
    /// the Boolean tiled kernel uses (`Csr::multiply`), on this thread's
    /// scratch.
    fn product(&self, b: &Self, mask: Option<&Self>, level: Level) -> Self {
        assert_eq!(self.n, b.n, "dimension mismatch");
        if let Some(m) = mask {
            assert_eq!(self.n, m.n, "mask dimension mismatch");
        }
        let (csr, lens) = LEN_SCRATCH.with_borrow_mut(|scratch| {
            // Dispatched inside the borrow: `with_borrow_mut` is not
            // inlined, so a closure around it would run the product as
            // baseline code, called from the trampoline.
            level.run(
                #[inline(always)]
                || {
                    let mut acc = LenTileRow {
                        a: &self.lens,
                        b: &b.lens,
                        mask: mask.map(|m| &m.csr),
                        scratch,
                    };
                    let (csr, _) = self.csr.multiply(&b.csr, acc.mask, &mut acc);
                    // The lengths were drained into the scratch's buffer,
                    // which keeps its capacity: the product's arena is one
                    // copy.
                    let lens = acc.scratch.lens.to_vec();
                    acc.scratch.lens.clear();
                    (csr, lens)
                },
            )
        });
        TiledLenMatrix {
            n: self.n,
            csr,
            live: lens.len(),
            lens,
        }
    }
}

/// Semantic equality: the same cells with the same lengths, wherever
/// their arenas keep them.
impl PartialEq for TiledLenMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.csr.row_ptr == other.csr.row_ptr
            && self.csr.cols == other.csr.cols
            && self.csr.vals.iter().zip(&other.csr.vals).all(|(a, b)| {
                a.bits == b.bits
                    && word_bits(a.rows)
                        .all(|r| a.row(&self.lens, r as usize) == b.row(&other.lens, r as usize))
            })
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
    /// Word `i % 64` of each tile stored in tile-row `i / 64`, beside the
    /// lengths of that row of the tile.
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
            word_bits(tile.bits[r])
                .zip(tile.row(&self.lens, r))
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
            self.relay(self.live);
        }
        self.lens.shrink_to_fit();
        self.csr.shrink();
    }
}

/// Every stored cell `s` of `sub`, in storage order, with where `sup`
/// stores the same place if it does: a gallop along each row of `sup`
/// that `sub` fills. Only places are read, so a caller may have taken
/// either side's values out to write them.
#[inline(always)]
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

/// A run of arena values on their way into another arena: values taken
/// from right after the run's end extend it, so that rows laid out one
/// after another go over as one copy, not one per row.
#[derive(Default)]
struct Run {
    start: usize,
    end: usize,
}

impl Run {
    /// Takes `count` values from `src[from..]` into the run; returns the
    /// offset they get in `out`. A run that does not end at `from` is
    /// copied out first.
    #[inline(always)]
    fn take(&mut self, from: usize, count: usize, src: &[u32], out: &mut Vec<u32>) -> u32 {
        if from != self.end {
            self.flush(src, out);
            (self.start, self.end) = (from, from);
        }
        let at = out.len() + (self.end - self.start);
        self.end += count;
        arena_index(at)
    }

    /// Copies the run out to `out`; a value written to `out` next comes
    /// after it.
    #[inline(always)]
    fn flush(&mut self, src: &[u32], out: &mut Vec<u32>) {
        out.extend_from_slice(&src[self.start..self.end]);
        self.start = self.end;
    }
}

/// Appends the lengths of the row `old_word | new_word` in column order:
/// those of `old_word`'s cells from `lens[old_at..]`, those of
/// `new_word`'s from `new_lens`. The two words are disjoint and neither
/// is empty.
#[inline(always)]
fn interleave(old_word: u64, old_at: usize, new_word: u64, new_lens: &[u32], lens: &mut Vec<u32>) {
    let at = lens.len();
    lens.resize(at + (old_word | new_word).count_ones() as usize, 0);
    let (arena, out) = lens.split_at_mut(at);
    let old_lens = &arena[old_at..old_at + old_word.count_ones() as usize];
    let (mut old, mut next) = (0, 0);
    for (slot, bit) in out.iter_mut().zip(word_bits(old_word | new_word)) {
        let is_new = (new_word >> bit & 1) as usize;
        // Both reads stay in bounds past either side's last value.
        let (n, o) = (
            new_lens[next.min(new_lens.len() - 1)],
            old_lens[old.min(old_lens.len() - 1)],
        );
        *slot = if is_new == 1 { n } else { o };
        (next, old) = (next + is_new, old + 1 - is_new);
    }
}

/// Appends the lengths of `from`'s cells that `bits` holds, in bit-rank
/// order; `bits` is a subset of `from`'s bits and `lens` its arena. Rows
/// kept whole go over in runs.
#[inline(always)]
fn pick(from: &LenTile, lens: &[u32], bits: &TileWords, out: &mut Vec<u32>) {
    let mut run = Run::default();
    for r in word_bits(from.rows) {
        let r = r as usize;
        let (have, want, row) = (from.bits[r], bits[r], from.row(lens, r));
        if have == want {
            run.take(from.at[r] as usize, row.len(), lens, out);
        } else if want != 0 {
            run.flush(lens, out);
            let picked = word_bits(have)
                .zip(row)
                .filter(|&(bit, _)| want >> bit & 1 == 1);
            out.extend(picked.map(|(_, &l)| l));
        }
    }
    run.flush(lens, out);
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
    /// tiles copies none of `self`'s tiles. Only the rows the Δ reaches
    /// are re-laid at the end of the arena, each its old and new lengths
    /// interleaved by bit rank, so a merge appends its new cells plus the
    /// old cells of those rows.
    fn merge_absent(&mut self, add: &Self) -> Self {
        assert_eq!(self.n, add.n, "dimension mismatch");
        cpu::dispatch(
            #[inline(always)]
            || self.merge(add),
        )
    }
    fn grow(&mut self, n: usize) {
        self.grow(n)
    }
    /// [`TiledLenMatrix::product`] on the CPU's instantiation. Always
    /// serial, as every length product.
    fn kernel() -> impl FnMut(LenJob<'_, Self>) -> Self {
        |(a, b, mask): LenJob<'_, Self>| a.product(b, mask, cpu::level())
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
    #[inline(always)]
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
#[inline(always)]
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
            let row_lens = &b_lens[b.at[k as usize] as usize..];
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
    #[inline(always)]
    fn fit(&mut self, tn: usize) {
        let s = &mut *self.scratch;
        if s.slot_of.len() < tn {
            s.slot_of.resize(tn, (0, 0));
        }
        s.stamp += 1;
        s.touched.clear();
    }

    /// Mask row `i` goes into each output tile as it is first touched.
    #[inline(always)]
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
        for (&tj, b) in cols.iter().zip(panel) {
            let slot = self.scratch.slot(tj, mask);
            multiply_tile(a, self.a, b, self.b, slot);
        }
    }

    #[inline(always)]
    fn is_empty(&self) -> bool {
        self.scratch.touched.is_empty()
    }

    /// Appends the row's written tiles in ascending tile-column order,
    /// their lengths to the product's arena in bit-rank order, and moves
    /// to a fresh stamp. The mask was applied as the tiles were opened.
    #[inline(always)]
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
            let tile = LenTile::with_counts(slot.written, counts, s.lens.len());
            s.lens.resize(s.lens.len() + slot.lens.len(), 0);
            for &(cell, l) in &slot.lens {
                let (r, c) = (cell as usize / TILE, u32::from(cell) % TILE as u32);
                s.lens[tile.rank(r, c)] = l;
            }
            out.push(tj, tile);
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

    impl TiledLenMatrix {
        /// The lengths of a tile this matrix stores, row by row.
        fn tile_lens(&self, tile: &LenTile) -> Vec<u32> {
            word_bits(tile.rows)
                .flat_map(|r| tile.row(&self.lens, r as usize))
                .copied()
                .collect()
        }
    }

    #[test]
    fn a_merge_relays_only_the_rows_it_reaches() {
        let mut m = TiledLenMatrix::from_entries(200, &[(0, 0, 9), (0, 1, 8)]);
        let other = tile_1_2(1, &[(0, 5), (3, 0), (3, 9), (63, 63)]);
        m.set_absent(&other);
        let (untouched, before) = (m.csr.vals[0].at, m.csr.vals[1].at);
        // A cell in row 1, which held none, and one between row 3's two
        // cells: both rows are re-laid at the end of the arena, and every
        // other row's lengths stay put.
        let add = tile_1_2(7, &[(1, 9), (3, 4)]);
        let fresh = m.merge_absent(&TiledLenMatrix::from_entries(200, &add));
        assert_eq!(fresh.entries(), [(65, 137, 7), (67, 132, 8)]);
        assert_eq!(m.csr.vals[0].at, untouched);
        let after = m.csr.vals[1].at;
        assert_eq!((after[0], after[63]), (before[0], before[63]));
        assert_eq!((after[1], after[3]), (6, 7), "appended, row by row");
        assert_eq!(m.tile_lens(&m.csr.vals[1]), [1, 7, 2, 8, 3, 4]);
        assert_eq!(m.get(65, 137), Some(7));
        assert_eq!(m.get(67, 137), Some(3));
        assert_eq!(m.get(127, 191), Some(4));
        // Row 3's two old lengths are dead, and counted.
        assert_eq!((m.nnz(), m.lens.len()), (8, 10));
        assert_eq!(m.bytes(), m.csr.bytes() + m.lens.capacity() * 4);
        assert!(m.bytes() >= m.csr.bytes() + 10 * 4);
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
            // Each merge re-lays row 0 of tile (0, 0), and from k = 3 on
            // adds a cell in tile-row 1 or 2.
            let cells = [(0, k, k + 1), (64 + k * 4, k * 4, 1)];
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
            // Each merge re-lays the only row that holds cells.
            m.merge_absent(&TiledLenMatrix::from_entries(64, &[(0, k, k + 1)]));
            expect.push((0, k, k + 1));
            let dead = m.lens.len() - m.nnz();
            assert!(dead <= m.nnz(), "{dead} dead, {} live", m.nnz());
            relaid += usize::from(dead > 0);
        }
        assert!(relaid > 20, "dead values were left behind, then compacted");
        assert_eq!(m.entries(), expect);
        assert_eq!(m, TiledLenMatrix::from_entries(64, &expect));
    }

    /// `count` entries of an `n × n` matrix, lengths 0 to 8.
    fn pseudo_entries(n: u32, count: usize, seed: u64) -> Vec<(u32, u32, u32)> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        (0..count)
            .map(|_| (next() % n, next() % n, next() % 9))
            .collect()
    }

    #[test]
    fn a_merge_grows_the_arena_by_its_cells_and_the_old_cells_of_the_rows_it_reaches() {
        use std::collections::HashSet;
        for seed in 0..16 {
            // A closure in the first two tile-rows and tile-columns, and a
            // Δ anywhere: into rows that hold cells, rows that hold none,
            // and tiles the closure does not store.
            let closure: Vec<(u32, u32, u32)> = pseudo_entries(200, 1500, seed)
                .into_iter()
                .filter(|&(i, j, _)| i < 128 && j < 128)
                .collect();
            let add = pseudo_entries(200, 40, seed + 100);
            let held: HashSet<(u32, u32)> = closure.iter().map(|&(i, j, _)| (i, j)).collect();
            let new: HashSet<(u32, u32)> = add
                .iter()
                .map(|&(i, j, _)| (i, j))
                .filter(|cell| !held.contains(cell))
                .collect();
            // A row of a tile is a row and a tile-column.
            let reached: HashSet<(u32, u32)> = new.iter().map(|&(i, j)| (i, j / 64)).collect();
            let old = held
                .iter()
                .filter(|&&(i, j)| reached.contains(&(i, j / 64)))
                .count();
            let mut m = TiledLenMatrix::from_entries(200, &closure);
            // Room enough that the merge compacts nothing.
            m.lens.reserve(10_000);
            let (len, capacity) = (m.lens.len(), m.lens.capacity());
            let fresh = m.merge_absent(&TiledLenMatrix::from_entries(200, &add));
            assert_eq!(fresh.nnz(), new.len(), "seed {seed}");
            assert_eq!(m.lens.len() - len, new.len() + old, "seed {seed}");
            assert_eq!(m.lens.capacity(), capacity, "seed {seed}");
            let mut all = closure.clone();
            all.extend(&add);
            assert_eq!(m, TiledLenMatrix::from_entries(200, &all), "seed {seed}");
        }
    }

    /// A tiled length matrix's storage, byte for byte: its tiles with
    /// their offsets, and its arena with its dead values and capacity.
    type Raw = (
        Vec<usize>,
        Vec<u32>,
        Vec<(TileWords, [u32; TILE], u64)>,
        Vec<u32>,
        usize,
        usize,
    );

    fn raw(m: &TiledLenMatrix) -> Raw {
        let tiles = m.csr.vals.iter().map(|t| (t.bits, t.at, t.rows));
        (
            m.csr.row_ptr.clone(),
            m.csr.cols.clone(),
            tiles.collect(),
            m.lens.clone(),
            m.lens.capacity(),
            m.live,
        )
    }

    #[test]
    fn length_kernels_give_the_same_bytes_on_both_instantiations() {
        use crate::length::DenseLenMatrix;
        // Four tile-rows, the last one partial: ε cells on the diagonal,
        // a full tile, and a Δ that meets the closure (so the merge picks
        // what is absent), lands in rows that hold cells and rows that do
        // not, and brings tiles. The second merge goes into rows the
        // first one re-laid.
        let n = 230;
        let mut closure = pseudo_entries(n, 900, 1);
        closure.extend((0..n).map(|m| (m, m, 0)));
        closure.extend((64..128).flat_map(|i| (0..64).map(move |j| (i, j, 1 + (i ^ j) % 5))));
        let mut add = pseudo_entries(n, 600, 2);
        add.extend(closure.iter().step_by(7).map(|&(i, j, l)| (i, j, l + 1)));
        let mask = pseudo_entries(n, 2000, 3);
        let n = n as usize;
        let runs = [Level::BASELINE, cpu::level()].map(|level| {
            let build = |entries| level.run(|| TiledLenMatrix::build(n, entries));
            let (a, b, m) = (build(&closure), build(&add), build(&mask));
            let mut merged = a.clone();
            let fresh = level.run(|| merged.merge(&b));
            let again = level.run(|| merged.merge(&m));
            let products = [
                a.product(&b, Some(&m), level),
                merged.product(&merged, Some(&merged), level),
                b.product(&merged, None, level),
            ];
            let cells = level.run(|| merged.walk(|i, j, l| (i, j, l)));
            let matrices = [&a, &b, &m, &merged, &fresh, &again].map(raw);
            (matrices, products.map(|p| raw(&p)), cells)
        });
        assert_eq!(runs[0], runs[1], "both instantiations, byte for byte");

        // The public entries dispatch to the same bodies ...
        let public = |entries| TiledLenMatrix::from_entries(n, entries);
        let (a, b, m) = (public(&closure), public(&add), public(&mask));
        let mut merged = a.clone();
        let fresh = merged.merge_absent(&b);
        let again = merged.merge_absent(&m);
        let mut kernel = <TiledLenMatrix as LenRepr>::kernel();
        let products = [
            kernel((&a, &b, Some(&m))),
            kernel((&merged, &merged, Some(&merged))),
            kernel((&b, &merged, None)),
        ];
        assert_eq!([&a, &b, &m, &merged, &fresh, &again].map(raw), runs[0].0);
        assert_eq!(products.each_ref().map(raw), runs[0].1);
        // ... and give what the dense kernels do.
        let dense = |entries| DenseLenMatrix::from_entries(n, entries);
        let (da, db, dm) = (dense(&closure), dense(&add), dense(&mask));
        let mut dmerged = da.clone();
        let dfresh = dmerged.merge_absent(&db);
        let dagain = dmerged.merge_absent(&dm);
        let mut kernel = <DenseLenMatrix as LenRepr>::kernel();
        let dproducts = [
            kernel((&da, &db, Some(&dm))),
            kernel((&dmerged, &dmerged, Some(&dmerged))),
            kernel((&db, &dmerged, None)),
        ];
        assert_eq!(runs[0].2, dmerged.entries());
        for (tiled, dense) in [(&fresh, &dfresh), (&again, &dagain)] {
            assert_eq!(tiled.entries(), dense.entries());
        }
        for (tiled, dense) in products.iter().zip(&dproducts) {
            assert_eq!(tiled.entries(), dense.entries());
        }
    }
}

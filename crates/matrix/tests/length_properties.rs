//! Property-based tests for the length kernels (§5): on every sparse
//! engine — `SparseEngine` and `ParSparseEngine` (CSR lengths) and
//! `TiledEngine` (lengths in 64 × 64 tiles) — `len_merge_absent`,
//! `len_set_absent` and `len_multiply_masked` must be observationally
//! identical to the dense reference, cell for cell and length for length,
//! including on the shapes a flat splice can get wrong. The cases at
//! `N = 37` fit one tile; those at `WIDE = 150` cross tile boundaries:
//! three tile-rows, the last one partial, with cells in the first and
//! last tile-rows, a full tile, ε cells on the diagonal, and a `grow`
//! across a boundary. On every engine a trim (`LenMat::shrink_to_fit`)
//! keeps the matrix as it was, and a merge into a trimmed matrix gives
//! what one into an untrimmed copy does. The tiled builder is checked on
//! its own at the sizes around one tile: the first occurrence of a cell
//! wins, a build holds no slack, and a cell outside the matrix panics.

use cfpq_matrix::{
    DenseEngine, Device, LenEngine, LenMat, ParSparseEngine, SparseEngine, TiledEngine,
    TiledLenMatrix,
};
use proptest::prelude::*;

/// Same base seed as `properties.rs`: CI replays identical cases.
const RNG_SEED: u64 = 0x7E01_51ED;

const N: usize = 37;

type Entry = (u32, u32, u32);

/// Strategy: `(row, col, length)` entries; lengths include `0`, the
/// present-but-never-an-operand ε-witness.
fn entries(max_len: usize) -> impl Strategy<Value = Vec<Entry>> {
    prop::collection::vec((0..N as u32, 0..N as u32, 0u32..9), 0..max_len)
}

/// Bends a random `(acc, add)` pair into the shapes that matter: an
/// empty side, `add ⊆ acc` cell-wise but with *different* lengths (first
/// write must win), first and last row touched, every entry given twice
/// with the second copy carrying another length.
fn shaped(shape: u8, mut acc: Vec<Entry>, mut add: Vec<Entry>) -> (Vec<Entry>, Vec<Entry>) {
    let last = N as u32 - 1;
    match shape {
        0 => acc.clear(),
        1 => add.clear(),
        2 => {
            add = acc
                .iter()
                .step_by(2)
                .map(|&(i, j, l)| (i, j, l + 10))
                .collect()
        }
        3 => add.extend([(0, last, 1), (0, 0, 2), (last, 0, 3), (last, last, 4)]),
        4 => {
            add = add
                .iter()
                .flat_map(|&(i, j, l)| [(i, j, l), (i, j, l + 10)])
                .collect()
        }
        _ => {}
    }
    (acc, add)
}

/// Runs `f` on the dense reference and on each CSR-backed engine and
/// checks that all results agree.
fn on_every_engine<T: PartialEq + std::fmt::Debug>(
    f: impl Fn(&dyn Fn(&[Entry], usize) -> Box<dyn LenOps>) -> T,
) -> Result<(), TestCaseError> {
    let reference = f(&|e, n| Box::new(Ops::new(DenseEngine, e, n)));
    let sparse = f(&|e, n| Box::new(Ops::new(SparseEngine, e, n)));
    prop_assert_eq!(&sparse, &reference, "sparse");
    let par = f(&|e, n| Box::new(Ops::new(ParSparseEngine::new(Device::new(3)), e, n)));
    prop_assert_eq!(&par, &reference, "sparse-par");
    let tiled = f(&|e, n| Box::new(Ops::new(TiledEngine::new(Device::new(2)), e, n)));
    prop_assert_eq!(&tiled, &reference, "tiled");
    Ok(())
}

/// One length matrix together with the engine that owns it, behind an
/// object-safe face so a property is written once for all engines.
trait LenOps {
    fn entries(&self) -> Vec<Entry>;
    fn grow(&mut self, n: usize);
    /// `len_merge_absent`; returns the fresh cells.
    fn merge(&mut self, add: &[Entry]) -> Vec<Entry>;
    /// `len_set_absent`; returns the written entries, sorted.
    fn set(&mut self, add: &[Entry]) -> Vec<Entry>;
    /// `LenMat::shrink_to_fit`, which must leave the matrix `==` with the
    /// same entries, free no byte it did not hold, and have nothing left
    /// to free when called again.
    fn trim(&mut self);
    /// `self × b`, masked by `mask` if given, as one job of a batch of
    /// two (the other job is the unmasked product, returned second).
    fn times(&self, b: &[Entry], mask: Option<&[Entry]>) -> (Vec<Entry>, Vec<Entry>);
}

struct Ops<E: LenEngine> {
    engine: E,
    matrix: E::LenMatrix,
}

impl<E: LenEngine> Ops<E> {
    fn new(engine: E, entries: &[Entry], n: usize) -> Self {
        let matrix = engine.len_from_entries(n, entries);
        Self { engine, matrix }
    }
}

impl<E: LenEngine> LenOps for Ops<E> {
    fn entries(&self) -> Vec<Entry> {
        self.matrix.entries()
    }
    fn grow(&mut self, n: usize) {
        self.engine.len_grow(&mut self.matrix, n);
    }
    fn merge(&mut self, add: &[Entry]) -> Vec<Entry> {
        let add = self.engine.len_from_entries(self.matrix.n(), add);
        self.engine
            .len_merge_absent(&mut self.matrix, &add)
            .entries()
    }
    fn set(&mut self, add: &[Entry]) -> Vec<Entry> {
        let mut written = self.engine.len_set_absent(&mut self.matrix, add);
        written.sort_unstable();
        written
    }
    fn trim(&mut self) {
        let (before, bytes) = (self.matrix.clone(), self.matrix.bytes());
        self.matrix.shrink_to_fit();
        assert!(self.matrix == before, "a trim changes no cell");
        assert_eq!(self.matrix.entries(), before.entries());
        assert!(self.matrix.bytes() <= bytes, "a trim never adds bytes");
        let bytes = self.matrix.bytes();
        self.matrix.shrink_to_fit();
        assert!(self.matrix == before);
        assert_eq!(self.matrix.bytes(), bytes, "a second trim frees nothing");
    }
    fn times(&self, b: &[Entry], mask: Option<&[Entry]>) -> (Vec<Entry>, Vec<Entry>) {
        let n = self.matrix.n();
        let b = self.engine.len_from_entries(n, b);
        let mask = mask.map(|m| self.engine.len_from_entries(n, m));
        let single = self
            .engine
            .len_multiply_masked(&self.matrix, &b, mask.as_ref());
        let batch = self.engine.len_multiply_masked_batch(&[
            (&self.matrix, &b, mask.as_ref()),
            (&self.matrix, &b, None),
        ]);
        assert_eq!(batch[0].entries(), single.entries(), "batch job ≡ single");
        (single.entries(), batch[1].entries())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(96, RNG_SEED))]

    #[test]
    fn merge_and_set_absent_agree_with_dense(
        acc in entries(90), add in entries(90), shape in 0u8..8, grown in 0usize..2
    ) {
        let (acc, add) = shaped(shape, acc, add);
        // Optionally build the accumulator in a smaller universe and grow
        // it first: rows appended by `grow` merge like any empty row.
        let small = if grown == 1 { N - 9 } else { N };
        let acc: Vec<Entry> = acc
            .into_iter()
            .filter(|&(i, j, _)| (i as usize) < small && (j as usize) < small)
            .collect();
        on_every_engine(|make| {
            let mut merged = make(&acc, small);
            merged.grow(N);
            let before = merged.entries();
            let fresh = merged.merge(&add);
            merged.trim();
            let after = merged.entries();
            // The laws, on whichever engine this is: nothing stored is
            // ever rewritten, and `fresh` is exactly what was added.
            for cell in &before {
                assert!(after.contains(cell), "first write wins: {cell:?} was rewritten");
            }
            let mut rebuilt = before.clone();
            rebuilt.extend(&fresh);
            rebuilt.sort_unstable();
            assert_eq!(rebuilt, after, "fresh ≡ add \\\\ acc");

            let mut set = make(&acc, small);
            set.grow(N);
            let written = set.set(&add);
            assert_eq!(set.entries(), after, "set_absent ≡ merge_absent of from_entries");
            assert_eq!(written, fresh, "set_absent reports the fresh cells");
            assert!(set.set(&add).is_empty(), "a second write adds nothing");
            (after, fresh)
        })?;
    }

    #[test]
    fn masked_products_agree_with_dense(
        a in entries(90), b in entries(90), mask in entries(400), shape in 0u8..6
    ) {
        // Shapes: an empty operand, and a mask denser than the product
        // (400 entries on 37² cells; shape 2 masks every cell).
        let (a, b) = match shape {
            0 => (Vec::new(), b),
            1 => (a, Vec::new()),
            _ => (a, b),
        };
        let mask: Vec<Entry> = match shape {
            2 => (0..N as u32)
                .flat_map(|i| (0..N as u32).map(move |j| (i, j, 1)))
                .collect(),
            3 => Vec::new(),
            _ => mask,
        };
        on_every_engine(|make| {
            let (masked, plain) = make(&a, N).times(&b, Some(&mask));
            // masked ≡ plain minus the mask's cells, lengths untouched.
            let kept: Vec<Entry> = plain
                .iter()
                .copied()
                .filter(|&(i, j, _)| !mask.iter().any(|&(mi, mj, _)| (mi, mj) == (i, j)))
                .collect();
            assert_eq!(masked, kept, "masked ≡ product \\\\ mask");
            (masked, plain)
        })?;
    }
}

/// Three tile-rows, the last one 22 rows deep.
const WIDE: usize = 150;

fn wide_entries(max_len: usize) -> impl Strategy<Value = Vec<Entry>> {
    prop::collection::vec((0..WIDE as u32, 0..WIDE as u32, 0u32..9), 0..max_len)
}

/// Adds one of the shapes a tiled matrix can get wrong to `entries`.
fn wide_shaped(shape: u8, mut entries: Vec<Entry>) -> Vec<Entry> {
    let last = WIDE as u32 - 1;
    match shape {
        // The full middle tile, lengths 1 to 5.
        0 => {
            entries.extend((64..128).flat_map(|i| (64..128).map(move |j| (i, j, 1 + (i + j) % 5))))
        }
        // An ε cell on every diagonal cell not written yet.
        1 => entries.extend((0..WIDE as u32).map(|m| (m, m, 0))),
        // The corners of the first and the last tile-row, and cells on
        // both sides of each tile boundary.
        2 => entries.extend([
            (0, 0, 1),
            (0, last, 2),
            (last, 0, 3),
            (last, last, 4),
            (63, 64, 5),
            (64, 63, 6),
            (127, 128, 7),
            (128, 127, 8),
        ]),
        _ => {}
    }
    entries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(48, RNG_SEED))]

    #[test]
    fn merges_and_products_across_tile_boundaries_agree_with_dense(
        acc in wide_entries(400),
        add in wide_entries(400),
        b in wide_entries(400),
        mask in wide_entries(3000),
        shapes in (0u8..4, 0u8..4, 0u8..4),
        grown in 0usize..2,
    ) {
        let (acc, add, b) = (
            wide_shaped(shapes.0, acc),
            wide_shaped(shapes.1, add),
            wide_shaped(shapes.2, b),
        );
        // Optionally built over two tile-rows and grown into the third.
        let small = if grown == 1 { 100 } else { WIDE };
        let acc: Vec<Entry> = acc
            .into_iter()
            .filter(|&(i, j, _)| (i as usize) < small && (j as usize) < small)
            .collect();
        on_every_engine(|make| {
            let mut merged = make(&acc, small);
            merged.grow(WIDE);
            let fresh = merged.merge(&add);
            let closure = merged.entries();
            let mut set = make(&acc, small);
            set.grow(WIDE);
            assert_eq!(set.set(&add), fresh, "set_absent reports the fresh cells");
            assert_eq!(set.entries(), closure, "set_absent ≡ merge_absent");
            // A trimmed closure merges as the untrimmed one does.
            merged.trim();
            assert_eq!(merged.merge(&b), set.merge(&b), "a trim changes no later merge");
            assert_eq!(merged.entries(), set.entries());
            // The closure on either side of a product, masked by a random
            // matrix and by itself.
            let left = make(&closure, WIDE).times(&b, Some(&mask));
            let right = make(&b, WIDE).times(&closure, Some(&closure));
            (closure, fresh, left, right)
        })?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(48, RNG_SEED))]

    /// A tiled closure merged into again and again, as a fixpoint does,
    /// against the dense reference after every merge. The closure starts
    /// in the even rows of the first two tile-columns, so the first Δs
    /// reach rows that hold cells, rows that hold none in stored tiles,
    /// and tile-column 2, whose tiles are spliced in; every other Δ also
    /// repeats cells the closure holds with other lengths. The merges
    /// leave one tile's rows scattered over the arena, which point reads,
    /// row walks, products on either side and a trim must all read.
    #[test]
    fn repeated_merges_agree_with_dense_lengths(
        acc in wide_entries(300),
        deltas in prop::collection::vec(wide_entries(60), 1..6),
        b in wide_entries(300),
    ) {
        let (dense, tiled) = (DenseEngine, TiledEngine::serial());
        let acc: Vec<Entry> = acc.into_iter().filter(|&(i, j, _)| i % 2 == 0 && j < 128).collect();
        let mut d = dense.len_from_entries(WIDE, &acc);
        let mut t = tiled.len_from_entries(WIDE, &acc);
        for (step, delta) in deltas.iter().enumerate() {
            let mut delta = delta.clone();
            if step % 2 == 1 {
                delta.extend(d.entries().iter().step_by(3).map(|&(i, j, l)| (i, j, l + 1)));
            }
            let fd = dense.len_merge_absent(&mut d, &dense.len_from_entries(WIDE, &delta));
            let ft = tiled.len_merge_absent(&mut t, &tiled.len_from_entries(WIDE, &delta));
            prop_assert_eq!(ft.entries(), fd.entries(), "fresh, step {}", step);
            prop_assert_eq!(t.entries(), d.entries(), "closure, step {}", step);
            prop_assert_eq!(t.nnz(), d.nnz());
            for i in 0..WIDE as u32 {
                let row: Vec<(u32, u32)> = t.row_cells(i).collect();
                prop_assert_eq!(row, d.row_cells(i).collect::<Vec<_>>(), "row {}", i);
                for j in (0..WIDE as u32).step_by(7) {
                    prop_assert_eq!(t.get(i, j), d.get(i, j));
                }
            }
        }
        let (bd, bt) = (dense.len_from_entries(WIDE, &b), tiled.len_from_entries(WIDE, &b));
        for (got, expect) in [
            (
                tiled.len_multiply_masked(&t, &bt, Some(&t)),
                dense.len_multiply_masked(&d, &bd, Some(&d)),
            ),
            (tiled.len_multiply_masked(&bt, &t, None), dense.len_multiply_masked(&bd, &d, None)),
            (tiled.len_multiply_masked(&t, &t, None), dense.len_multiply_masked(&d, &d, None)),
        ] {
            prop_assert_eq!(got.entries(), expect.entries());
        }
        let mut trimmed = t.clone();
        trimmed.shrink_to_fit();
        prop_assert!(trimmed == t);
        prop_assert_eq!(trimmed.entries(), d.entries());
    }
}

/// One cell, one tile less a row, one tile, one tile and a row, and four
/// tile-rows, the last one partial.
const BUILD_SIZES: [usize; 5] = [1, 63, 64, 65, 200];

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(96, RNG_SEED))]

    #[test]
    fn a_tiled_build_keeps_the_first_occurrence_of_every_cell(
        raw in prop::collection::vec((0u32..200, 0u32..200, 0u32..9), 0..300),
        size in 0..BUILD_SIZES.len(),
    ) {
        let n = BUILD_SIZES[size];
        let mut entries: Vec<Entry> = raw
            .iter()
            .map(|&(i, j, l)| (i % n as u32, j % n as u32, l))
            .collect();
        // Every other entry again, later and in reverse, with another
        // length: the first occurrence must win.
        let again: Vec<Entry> = entries
            .iter()
            .rev()
            .step_by(2)
            .map(|&(i, j, l)| (i, j, l + 10))
            .collect();
        entries.extend(again);
        let dense = DenseEngine.len_from_entries(n, &entries);
        let mut tiled = TiledLenMatrix::from_entries(n, &entries);
        prop_assert_eq!(tiled.entries(), dense.entries(), "n = {}", n);
        prop_assert_eq!(tiled.nnz(), dense.nnz());
        let bytes = tiled.bytes();
        tiled.shrink_to_fit();
        prop_assert_eq!(tiled.bytes(), bytes, "a build holds no slack");
    }
}

#[test]
fn a_tiled_build_refuses_a_cell_outside_the_matrix() {
    for n in BUILD_SIZES {
        let last = n as u32 - 1;
        // Past the last row, past the last column, and column 127 of the
        // last row: in the last tile's padding, or past the tile grid at
        // n = 64 (at n = 200 it is a cell of the matrix).
        let outside = [(n as u32, 0, 1), (0, n as u32, 1), (last, 127, 1)];
        for cell in outside
            .into_iter()
            .filter(|&(i, j, _)| i.max(j) as usize >= n)
        {
            let build =
                std::panic::catch_unwind(|| TiledLenMatrix::from_entries(n, &[(0, 0, 1), cell]));
            assert!(build.is_err(), "n = {n}: {cell:?} was taken");
        }
    }
}

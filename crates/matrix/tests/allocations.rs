//! Allocation counts of the CSR kernels — the regression guard that
//! needs no timer. A sweep of the semi-naive solvers unions a small Δ
//! into a large closure and multiplies the two; each of those calls must
//! allocate a constant number of times, whatever the number of rows (a
//! per-row `Vec` anywhere in the kernel shows here as thousands).
//!
//! The tiled matrix is held to the same rule one level up: what its
//! product — whichever way its tiles go through their panels — and its
//! union allocate must not depend on the number of tile-rows, and a
//! union that adds nothing, or only bits in tiles the closure stores,
//! must allocate nothing at all.
//!
//! A tiled build, or a seed of a few cells, is held to its bytes: it
//! must cost its cells and the tile-rows, not the rows.
//!
//! The counters (`support/counting_allocator.rs`) are per thread, so the
//! test harness's own threads do not disturb them.

use cfpq_matrix::{
    CsrLenMatrix, CsrMatrix, LenEngine, LenMat, SparseEngine, TiledBitMatrix, TiledEngine,
    TiledLenMatrix,
};
use counting_allocator::{allocated_bytes, allocations};

#[path = "support/counting_allocator.rs"]
mod counting_allocator;

type Pairs = Vec<(u32, u32)>;

/// A closure with two entries in every row — `(i, 2i)` and `(i, 2i+1)`
/// modulo `n` — and a 100-entry Δ, `(20k+2, 20k+11)`, that is the same
/// for every even `n ≥ 2,000`, disjoint from the closure, and meets it
/// in the same number of places: the sizes of all results, and with them
/// the amortized growth of the output buffers, do not depend on `n`.
fn closure_and_delta(n: u32) -> (Pairs, Pairs) {
    let closure = (0..n)
        .flat_map(|i| [(i, 2 * i % n), (i, (2 * i + 1) % n)])
        .collect();
    let delta = (0..100).map(|k| (20 * k + 2, 20 * k + 11)).collect();
    (closure, delta)
}

/// Allocation counts of one sweep's kernel calls on an `n`-row closure:
/// Boolean union, both masked products, then the same for lengths.
fn sweep_allocations(n: u32) -> [usize; 6] {
    let (closure_pairs, delta_pairs) = closure_and_delta(n);
    let n = n as usize;
    let closure = CsrMatrix::from_pairs(n, &closure_pairs);
    let delta = CsrMatrix::from_pairs(n, &delta_pairs);
    let mut acc = closure.clone();
    let (union, grew) = allocations(|| acc.union_in_place(&delta));
    assert!(grew && acc.nnz() == closure.nnz() + 100);
    let (left, product) = allocations(|| delta.multiply_masked(&closure, &closure));
    assert_eq!(product.nnz(), 200);
    let (right, product) = allocations(|| closure.multiply_masked(&delta, &closure));
    assert_eq!(product.nnz(), 200);

    let with_len = |pairs: &[(u32, u32)]| -> Vec<(u32, u32, u32)> {
        pairs
            .iter()
            .map(|&(i, j)| (i, j, 1 + (i + j) % 7))
            .collect()
    };
    let len_closure = CsrLenMatrix::from_entries(n, &with_len(&closure_pairs));
    let len_delta = CsrLenMatrix::from_entries(n, &with_len(&delta_pairs));
    let e = SparseEngine;
    let mut len_acc = len_closure.clone();
    let (merge, fresh) = allocations(|| e.len_merge_absent(&mut len_acc, &len_delta));
    assert!(fresh == len_delta && len_acc.nnz() == len_closure.nnz() + 100);
    let mask = Some(&len_closure);
    let (len_left, product) = allocations(|| e.len_multiply_masked(&len_delta, &len_closure, mask));
    assert_eq!(product.nnz(), 200);
    let (len_right, product) =
        allocations(|| e.len_multiply_masked(&len_closure, &len_delta, mask));
    assert_eq!(product.nnz(), 200);
    [union, left, right, merge, len_left, len_right]
}

#[test]
fn a_delta_into_a_closure_allocates_a_constant_number_of_times() {
    let small = sweep_allocations(2_500);
    let large = sweep_allocations(25_000);
    assert_eq!(small, large, "allocation counts must not depend on n");
    // Union: new row pointers and columns. Merge: those and the lengths,
    // for the closure and for the returned Δ. Products: row pointers,
    // the accumulator, and the doubling growth of a 200-entry output.
    let [union, left, right, merge, len_left, len_right] = large;
    assert!(union <= 2, "union allocated {union} times");
    assert!(merge <= 6, "merge allocated {merge} times");
    for (what, count) in [("Δ × closure", left), ("closure × Δ", right)] {
        assert!(count <= 12, "Boolean {what} allocated {count} times");
    }
    for (what, count) in [("Δ × closure", len_left), ("closure × Δ", len_right)] {
        assert!(count <= 24, "length {what} allocated {count} times");
    }
}

/// Allocation counts of two tiled products whose operands fill the same
/// 8 × 8 leading tiles of an `n × n` matrix, whatever `n` is: sparse ×
/// sparse, every tile left-driven, then full × sparse, every tile
/// right-driven. Each is counted on its first run on this thread and
/// again once the thread's accumulators exist.
fn tiled_product_allocations(n: usize) -> [(usize, usize); 2] {
    let block = 512u32;
    let sparse = |shift: u32| -> Pairs {
        (0..block)
            .flat_map(|i| {
                [
                    (i, (3 * i + shift) % block),
                    (i, (7 * i + 2 * shift) % block),
                ]
            })
            .collect()
    };
    let full: Pairs = (0..block)
        .flat_map(|i| (0..block).map(move |j| (i, j)))
        .collect();
    let b = TiledBitMatrix::from_pairs(n, &sparse(5));
    [sparse(1), full].map(|left| {
        let a = TiledBitMatrix::from_pairs(n, &left);
        let (first, expect) = allocations(|| a.multiply_masked(&b, &b));
        let (warm, product) = allocations(|| a.multiply_masked(&b, &b));
        assert!(product == expect && product.stored_tiles() == 64);
        (first, warm)
    })
}

#[test]
fn a_tiled_product_allocates_independently_of_the_number_of_tile_rows() {
    let [left_small, right_small] = tiled_product_allocations(512);
    let [left_large, right_large] = tiled_product_allocations(51_200);
    // Warm, a product allocates its output — row offsets, and the
    // doubling growth of 64 tile columns and payloads — and nothing per
    // tile-row: 8 tile-rows or 800.
    assert_eq!(left_small.1, left_large.1, "left-driven");
    assert_eq!(right_small.1, right_large.1, "right-driven");
    assert!(left_large.1 <= 20, "allocated {} times", left_large.1);
    assert!(right_large.1 <= 20, "allocated {} times", right_large.1);
    // The transposed accumulators and panel counts come with the first
    // right-driven product, not before: the sparse product ran first and
    // left them unallocated.
    assert!(right_small.0 > right_small.1, "{right_small:?}");
    assert!(right_large.0 > right_large.1, "{right_large:?}");
}

/// Allocation counts of a tiled sweep's unions on an `n × n` closure
/// with two bits in every row: a 100-bit Δ on the diagonal of the first
/// 512 rows — disjoint from the closure, in tiles it stores and in tiles
/// it does not — unioned in; then the same Δ again as a matrix and as
/// pairs, which adds nothing.
fn tiled_union_allocations(n: u32) -> [usize; 3] {
    let (closure_pairs, _) = closure_and_delta(n);
    let delta_pairs: Pairs = (0..100).map(|k| (5 * k + 2, 5 * k + 2)).collect();
    let closure = TiledBitMatrix::from_pairs(n as usize, &closure_pairs);
    let delta = TiledBitMatrix::from_pairs(n as usize, &delta_pairs);
    let mut acc = closure.clone();
    let (union, grew) = allocations(|| acc.union_in_place(&delta));
    assert!(grew && acc.nnz() == closure.nnz() + 100);
    assert!(acc.stored_tiles() < closure.stored_tiles() + delta.stored_tiles());
    let unioned = acc.clone();
    let (again, grew) = allocations(|| acc.union_in_place(&delta));
    assert!(!grew && acc == unioned);
    let (as_pairs, grew) = allocations(|| acc.insert_pairs(&delta_pairs));
    assert!(!grew && acc == unioned);
    [union, again, as_pairs]
}

#[test]
fn a_tiled_union_allocates_for_what_it_adds_and_not_per_tile_row() {
    let small = tiled_union_allocations(512);
    let large = tiled_union_allocations(51_200);
    assert_eq!(small, large, "8 tile-rows or 800");
    // New row offsets, tile columns and payloads, and the last two cut
    // back to what the overlapping tiles left unused.
    let [union, again, as_pairs] = large;
    assert!(union <= 5, "union allocated {union} times");
    // No new bit: the storage stays where it is, so nothing is allocated.
    assert_eq!((again, as_pairs), (0, 0), "a union that adds nothing");
}

#[test]
fn a_tiled_union_into_stored_tiles_allocates_nothing() {
    for n in [512u32, 51_200] {
        // 100 new bits, each beside a bit of the closure in the same
        // tile: column 2i xor 2 is neither 2i nor 2i + 1.
        let (closure_pairs, _) = closure_and_delta(n);
        let delta_pairs: Pairs = (0..100)
            .map(|k| 5 * k + 2)
            .map(|i| (i, (2 * i % n) ^ 2))
            .collect();
        let closure = TiledBitMatrix::from_pairs(n as usize, &closure_pairs);
        let delta = TiledBitMatrix::from_pairs(n as usize, &delta_pairs);
        let mut acc = closure.clone();
        let (union, grew) = allocations(|| acc.union_in_place(&delta));
        assert!(grew && acc.nnz() == closure.nnz() + 100);
        assert_eq!(acc.stored_tiles(), closure.stored_tiles());
        // Written where the tiles are: no new storage, nothing cut back.
        assert_eq!(union, 0, "n = {n}: a union into stored tiles");
    }
}

/// Allocation count of merging the 100-cell Δ of [`closure_and_delta`]
/// into the `n`-row tiled length closure, and the Δ it reports. With
/// `trimmed`, the closure is merged first: the second cell of every row
/// into the first, which re-lays every row and so leaves dead values and
/// spare room in its arena, and then trimmed (`LenMat::shrink_to_fit`),
/// as a cold solve leaves it.
fn tiled_length_merge_allocations(n: u32, trimmed: bool) -> usize {
    let (closure_pairs, delta_pairs) = closure_and_delta(n);
    let with_len = |pairs: &[(u32, u32)]| -> Vec<(u32, u32, u32)> {
        pairs
            .iter()
            .map(|&(i, j)| (i, j, 1 + (i + j) % 7))
            .collect()
    };
    let n = n as usize;
    let engine = TiledEngine::serial();
    let closure = TiledLenMatrix::from_entries(n, &with_len(&closure_pairs));
    let delta = TiledLenMatrix::from_entries(n, &with_len(&delta_pairs));
    let mut acc = closure.clone();
    if trimmed {
        let (first, second): (Pairs, Pairs) = closure_pairs.chunks(2).map(|p| (p[0], p[1])).unzip();
        acc = TiledLenMatrix::from_entries(n, &with_len(&first));
        engine.len_merge_absent(
            &mut acc,
            &TiledLenMatrix::from_entries(n, &with_len(&second)),
        );
        let bytes = acc.bytes();
        acc.shrink_to_fit();
        assert!(acc == closure && acc.bytes() < bytes);
    }
    let (merge, fresh) = allocations(|| engine.len_merge_absent(&mut acc, &delta));
    assert!(fresh == delta && acc.nnz() == closure.nnz() + 100);
    merge
}

#[test]
fn a_tiled_length_merge_allocates_independently_of_the_number_of_rows() {
    for trimmed in [false, true] {
        let small = tiled_length_merge_allocations(2_500, trimmed);
        let large = tiled_length_merge_allocations(25_000, trimmed);
        // The Δ, the arena compacted into room for its growth, and the
        // tile splice that brings the Δ's new tiles: nothing per row or
        // per tile.
        assert_eq!(small, large, "2,500 rows or 25,000 (trimmed: {trimmed})");
        assert!(
            large <= 16,
            "merge allocated {large} times (trimmed: {trimmed})"
        );
    }
}

#[test]
fn a_two_cell_build_or_seed_allocates_fewer_bytes_than_the_matrix_has_rows() {
    // 800 tile-rows: anything kept per row, such as 8 B of row pointer,
    // comes to several times the bound of `n` bytes.
    let n = 51_200;
    let engine = TiledEngine::serial();
    // Two cells in two tile-rows, out of tile-row order.
    let cells = [(40_000, 7, 1), (3, 50_000, 2)];
    let (build, built) = allocated_bytes(|| engine.len_from_entries(n, &cells));
    assert_eq!(built.entries(), [(3, 50_000, 2), (40_000, 7, 1)]);
    // A seed as the fixpoint makes one: point reads, one build of the
    // absent cells and one merge, whose report is the Δ. One cell is
    // held already; the other lands in a tile-row the closure stores
    // nothing in, so the merge splices its tile in.
    let mut closure = engine.len_from_entries(n, &[(3, 50_000, 5), (100, 100, 1)]);
    let (seed, fresh) = allocated_bytes(|| {
        let absent: Vec<(u32, u32, u32)> = cells
            .iter()
            .copied()
            .filter(|&(i, j, _)| closure.get(i, j).is_none())
            .collect();
        let fresh = engine.len_from_entries(n, &absent);
        engine.len_merge_absent(&mut closure, &fresh)
    });
    assert_eq!(fresh.entries(), [(40_000, 7, 1)]);
    assert_eq!(closure.get(3, 50_000), Some(5), "first write wins");
    // The Boolean builder, on pairs out of and in tile-row order.
    let (unsorted, m) =
        allocated_bytes(|| TiledBitMatrix::from_pairs(n, &[(40_000, 7), (3, 50_000)]));
    let (sorted, same) =
        allocated_bytes(|| TiledBitMatrix::from_pairs(n, &[(3, 50_000), (40_000, 7)]));
    assert!(m == same && m.nnz() == 2);
    for (what, bytes) in [
        ("length build", build),
        ("length seed", seed),
        ("Boolean build, unsorted", unsorted),
        ("Boolean build, sorted", sorted),
    ] {
        assert!(bytes < n, "{what} allocated {bytes} B on {n} nodes");
    }
}

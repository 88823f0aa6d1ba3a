//! Kernel-level Criterion benches for the masked multiplication path.
//!
//! Measures, per representation:
//!
//! * `multiply` vs `multiply_masked` as the complement mask grows — the
//!   masked kernel's whole point is that a denser mask means *less*
//!   output to materialize, so its time should fall while the unmasked
//!   product stays flat;
//! * `multiply` + `difference` vs the fused `multiply_masked` — what the
//!   engine-default fallback costs against the real kernels;
//! * batched masked products on the parallel device — the §7 "one
//!   kernel per rule" overlap the solver's sweep relies on;
//! * tiled vs dense vs CSR products across densities — where each
//!   representation's crossover sits, on uniform random structure and
//!   on the clustered block-diagonal structure the tiled backend
//!   targets, the latter also with a dense operand against a sparse
//!   one (a closure's Δ against a label matrix, either way round);
//! * a 100-entry Δ against a 25,000-row closure — the shape of every
//!   sweep after the first on a hypersparse graph (`sparse-cold`), where
//!   the CSR kernels must cost what they change, not what the closure
//!   holds: union/merge of the Δ, and both masked products with it, for
//!   the Boolean and the length matrices.

use cfpq_matrix::{
    BoolEngine, CsrLenMatrix, CsrMatrix, DenseBitMatrix, Device, LenEngine, ParSparseEngine,
    SparseEngine, TiledBitMatrix,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn configure(group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
}

/// Deterministic pseudo-random pair list (no external RNG in benches).
fn random_pairs(n: usize, count: usize, seed: u64) -> Vec<(u32, u32)> {
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

fn bench_dense_masked(c: &mut Criterion) {
    let n = 512usize;
    let a = DenseBitMatrix::from_pairs(n, &random_pairs(n, 4 * n, 0xA));
    let b = DenseBitMatrix::from_pairs(n, &random_pairs(n, 4 * n, 0xB));

    let mut group = c.benchmark_group("kernel-dense");
    configure(&mut group);
    group.bench_function("multiply", |bch| bch.iter(|| a.multiply(&b)));
    for mask_factor in [1usize, 8, 64] {
        let mask = DenseBitMatrix::from_pairs(n, &random_pairs(n, mask_factor * n, 0xC));
        group.bench_function(format!("masked/mask-nnz-{}", mask.nnz()), |bch| {
            bch.iter(|| a.multiply_masked(&b, &mask))
        });
        group.bench_function(format!("mul-then-diff/mask-nnz-{}", mask.nnz()), |bch| {
            bch.iter(|| a.multiply(&b).difference(&mask))
        });
    }
    group.finish();
}

fn bench_sparse_masked(c: &mut Criterion) {
    let n = 2048usize;
    let a = CsrMatrix::from_pairs(n, &random_pairs(n, 8 * n, 0x1));
    let b = CsrMatrix::from_pairs(n, &random_pairs(n, 8 * n, 0x2));

    let mut group = c.benchmark_group("kernel-sparse");
    configure(&mut group);
    group.bench_function("multiply", |bch| bch.iter(|| a.multiply(&b)));
    for mask_factor in [2usize, 16, 64] {
        let mask = CsrMatrix::from_pairs(n, &random_pairs(n, mask_factor * n, 0x3));
        group.bench_function(format!("masked/mask-nnz-{}", mask.nnz()), |bch| {
            bch.iter(|| a.multiply_masked(&b, &mask))
        });
        group.bench_function(format!("mul-then-diff/mask-nnz-{}", mask.nnz()), |bch| {
            bch.iter(|| a.multiply(&b).difference(&mask))
        });
    }
    group.finish();
}

fn bench_masked_batch(c: &mut Criterion) {
    let n = 1024usize;
    let a = CsrMatrix::from_pairs(n, &random_pairs(n, 8 * n, 0x11));
    let b = CsrMatrix::from_pairs(n, &random_pairs(n, 8 * n, 0x12));
    let mask = CsrMatrix::from_pairs(n, &random_pairs(n, 16 * n, 0x13));
    let jobs: Vec<(&CsrMatrix, &CsrMatrix, Option<&CsrMatrix>)> = (0..8)
        .map(|i| {
            if i % 2 == 0 {
                (&a, &b, Some(&mask))
            } else {
                (&b, &a, None)
            }
        })
        .collect();

    let mut group = c.benchmark_group("kernel-masked-batch");
    configure(&mut group);
    for workers in [1usize, 2, 4] {
        let e = ParSparseEngine::new(Device::new(workers));
        group.bench_function(format!("sparse-par/{workers}"), |bch| {
            bch.iter(|| e.multiply_masked_batch(&jobs))
        });
    }
    group.finish();
}

/// Deterministic pair list confined to 64-aligned blocks: every pair
/// stays inside its node's 64-node block, so the tiled representation
/// stores only diagonal tiles (the clustered regime of the `scale`
/// scenario).
fn clustered_pairs(n: usize, count: usize, seed: u64) -> Vec<(u32, u32)> {
    random_pairs(n, count, seed)
        .into_iter()
        .map(|(u, v)| (u, (u / 64) * 64 + v % 64))
        .collect()
}

fn bench_repr_sweep(c: &mut Criterion) {
    let n = 2048usize;
    let mut group = c.benchmark_group("kernel-repr-sweep");
    configure(&mut group);
    for (shape, gen) in [
        (
            "uniform",
            random_pairs as fn(usize, usize, u64) -> Vec<(u32, u32)>,
        ),
        ("clustered", clustered_pairs),
    ] {
        // Equal densities on both sides, then — on the clustered shape,
        // where a tile can be dense — one operand far sparser than the
        // other: the cells in which the tiled kernel walks its right
        // operand (48 × 2) or its left one (2 × 48).
        let mut cells = vec![(2usize, 2usize), (16, 16), (48, 48)];
        if shape == "clustered" {
            cells.extend([(48, 2), (2, 48)]);
        }
        for (left_nnz, right_nnz) in cells {
            let row_nnz = match left_nnz == right_nnz {
                true => format!("{left_nnz}"),
                false => format!("{left_nnz}x{right_nnz}"),
            };
            let pa = gen(n, left_nnz * n, 0x21);
            let pb = gen(n, right_nnz * n, 0x22);
            let da = DenseBitMatrix::from_pairs(n, &pa);
            let db = DenseBitMatrix::from_pairs(n, &pb);
            let ca = CsrMatrix::from_pairs(n, &pa);
            let cb = CsrMatrix::from_pairs(n, &pb);
            let ta = TiledBitMatrix::from_pairs(n, &pa);
            let tb = TiledBitMatrix::from_pairs(n, &pb);
            group.bench_function(format!("dense/{shape}/row-nnz-{row_nnz}"), |bch| {
                bch.iter(|| da.multiply(&db))
            });
            group.bench_function(format!("sparse/{shape}/row-nnz-{row_nnz}"), |bch| {
                bch.iter(|| ca.multiply(&cb))
            });
            group.bench_function(format!("tiled/{shape}/row-nnz-{row_nnz}"), |bch| {
                bch.iter(|| ta.multiply(&tb))
            });
        }
    }
    group.finish();
}

fn bench_delta_into_closure(c: &mut Criterion) {
    let n = 25_000usize;
    let closure_pairs = random_pairs(n, 33_000, 0x31);
    let delta_pairs = random_pairs(n, 100, 0x32);
    let closure = CsrMatrix::from_pairs(n, &closure_pairs);
    let delta = CsrMatrix::from_pairs(n, &delta_pairs);
    let with_len = |pairs: &[(u32, u32)]| -> Vec<(u32, u32, u32)> {
        pairs
            .iter()
            .map(|&(i, j)| (i, j, 1 + (i + j) % 7))
            .collect()
    };
    let len_closure = CsrLenMatrix::from_entries(n, &with_len(&closure_pairs));
    let len_delta = CsrLenMatrix::from_entries(n, &with_len(&delta_pairs));
    // One timed sample of the shim is one call; repeat so a row is
    // milliseconds, not microseconds. The union rows pay one closure
    // clone per repetition — the `clone` rows are that cost alone.
    let reps = |f: &dyn Fn() -> usize| (0..50).map(|_| f()).sum::<usize>();
    let e = SparseEngine;
    let mask = Some(&len_closure);

    let mut group = c.benchmark_group("kernel-delta-into-closure");
    configure(&mut group);
    let mut row = |name: &str, f: &dyn Fn() -> usize| {
        group.bench_function(name, |bch| bch.iter(|| reps(f)));
    };
    row("csr/clone", &|| closure.clone().nnz());
    row("csr/union", &|| {
        let mut acc = closure.clone();
        acc.union_in_place(&delta);
        acc.nnz()
    });
    row("csr/masked/delta-x-closure", &|| {
        delta.multiply_masked(&closure, &closure).nnz()
    });
    row("csr/masked/closure-x-delta", &|| {
        closure.multiply_masked(&delta, &closure).nnz()
    });
    row("csr-len/clone", &|| len_closure.clone().nnz());
    row("csr-len/merge-absent", &|| {
        let mut acc = len_closure.clone();
        e.len_merge_absent(&mut acc, &len_delta).nnz()
    });
    row("csr-len/masked/delta-x-closure", &|| {
        e.len_multiply_masked(&len_delta, &len_closure, mask).nnz()
    });
    row("csr-len/masked/closure-x-delta", &|| {
        e.len_multiply_masked(&len_closure, &len_delta, mask).nnz()
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_dense_masked,
    bench_sparse_masked,
    bench_masked_batch,
    bench_repr_sweep,
    bench_delta_into_closure
);
criterion_main!(benches);

//! # cfpq-matrix
//!
//! Boolean and set-valued matrix kernels — the computational core of the
//! paper. Algorithm 1 reduces CFPQ to a transitive closure whose inner
//! loop is matrix multiplication; Valiant's observation (§3) decomposes
//! the set-valued product into `|N|²` *Boolean* matrix multiplications.
//! This crate provides both layers:
//!
//! * [`DenseBitMatrix`] — row-major bitset matrix (the paper's dGPU
//!   representation, "row-major order for general matrix representation"),
//! * [`CsrMatrix`] — Boolean CSR (the paper's sCPU/sGPU representation);
//!   its module, [`sparse`], also holds the one CSR storage and row
//!   splice under all three sparse matrix types below,
//! * [`TiledBitMatrix`] — non-empty 64 × 64 bit tiles in that storage,
//!   multiplied by dense tile kernels ([`tiled`], with [`TiledEngine`]),
//! * [`length`] — the length-annotated matrices of the single-path
//!   semantics (§5), [`DenseLenMatrix`], [`CsrLenMatrix`] and
//!   [`TiledLenMatrix`], and their backend trait [`LenEngine`],
//! * [`Device`] — a multi-worker execution device standing in for the GPU
//!   (README, "Paper → implementation map"),
//! * [`engine`] — the [`engine::BoolEngine`] abstraction the solvers are
//!   generic over: serial/parallel × dense/sparse backends, and tiled,
//! * [`SetMatrix`] — the paper-literal matrix whose elements are subsets
//!   of `N`, with the element product `N1 · N2 = {A | A → BC, B ∈ N1,
//!   C ∈ N2}` of §2,
//! * [`closure`] — the `a_cf` squaring closure and the `a⁺` Valiant-style
//!   closure whose equivalence is Theorem 1.

pub mod closure;
mod cpu;
pub mod dense;
pub mod device;
pub mod engine;
pub mod length;
mod repr;
pub mod setmatrix;
pub mod sparse;
pub mod tiled;

pub use dense::DenseBitMatrix;
pub use device::{Device, Parallelism};
pub use engine::{
    BoolEngine, BoolMat, DenseEngine, KernelCounters, MaskedJob, ParDenseEngine, ParSparseEngine,
    SparseEngine, TiledEngine,
};
pub use length::{
    CsrLenMatrix, DenseLenMatrix, LenEngine, LenJob, LenMat, TiledLenMatrix, NO_PATH,
};
pub use setmatrix::SetMatrix;
pub use sparse::CsrMatrix;
pub use tiled::{TiledBitMatrix, TILE};

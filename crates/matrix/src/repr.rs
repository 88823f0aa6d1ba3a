//! What a backend states: how a matrix is stored, and on what device.
//!
//! The paper's dGPU, sCPU and sGPU implementations are one algorithm
//! handed to three matrix libraries. Here a *representation* says how a
//! matrix is stored and multiplied ([`BoolRepr`] for bits, [`LenRepr`]
//! for §5's path lengths), a [`Backend`] pairs one with an optional
//! [`Device`], on which a batch runs its products side by side (each
//! product is one serial kernel call, wherever it runs), and `BoolEngine`
//! and `LenEngine` are implemented once each, for every `Backend`, in
//! [`crate::engine`] and [`crate::length`].
//! The module is private, which seals the three traits: code outside the
//! crate picks an engine by name or decorates one, and adds none.

use crate::device::Device;
use crate::engine::{BoolMat, MaskedJob};
use crate::length::{LenJob, LenMat};

/// A Boolean matrix representation: the operations the engines forward,
/// and one product entry point.
pub trait BoolRepr: BoolMat {
    /// The `repr` tag of this representation's kernel spans.
    const REPR: &'static str;
    /// `BoolEngine::name` of this representation on a [`Device`].
    const ON_DEVICE: &'static str;
    /// The representation its engines run the §5 length kernels on.
    type Len: LenRepr;

    fn zeros(n: usize) -> Self;
    fn from_pairs(n: usize, pairs: &[(u32, u32)]) -> Self;
    fn union_in_place(&mut self, other: &Self) -> bool;
    fn insert_pairs(&mut self, pairs: &[(u32, u32)]) -> bool;
    fn grow(&mut self, n: usize);
    fn difference(&self, other: &Self) -> Self;
    fn intersect(&self, other: &Self) -> Self;

    /// The product entry point `(a, b, mask?) → ((a × b) \ mask?, tiles
    /// skipped)` for one run of products on the calling thread: whatever
    /// consecutive products can share — the CSR row accumulator — lives
    /// in the returned kernel. The skip count is `None` where the
    /// representation has no tiles to skip.
    fn kernel() -> impl FnMut(MaskedJob<'_, Self>) -> (Self, Option<u64>);
}

/// A length-matrix representation (§5): first-write-wins cells, and one
/// serial masked product.
pub trait LenRepr: LenMat {
    /// The `repr` tag of this representation's kernel spans.
    const REPR: &'static str;

    fn empty(n: usize) -> Self;
    fn from_entries(n: usize, entries: &[(u32, u32, u32)]) -> Self;
    /// Writes each entry where the cell is absent; returns the entries
    /// written. By default it filters to the absent cells (a no-op batch
    /// costs only the probes), lets `from_entries` keep the first
    /// occurrence of each — and refuse an entry outside the matrix before
    /// `self` is touched — and merges them in.
    fn set_absent(&mut self, entries: &[(u32, u32, u32)]) -> Vec<(u32, u32, u32)> {
        let absent: Vec<(u32, u32, u32)> = entries
            .iter()
            .copied()
            .filter(|&(i, j, _)| self.get(i, j).is_none())
            .collect();
        if absent.is_empty() {
            return absent;
        }
        let fresh = Self::from_entries(self.n(), &absent);
        self.merge_absent(&fresh).entries()
    }
    fn merge_absent(&mut self, add: &Self) -> Self;
    fn grow(&mut self, n: usize);

    /// The serial product `(a, b, mask?) → (a ⊗ b) \ mask?` for one run
    /// of jobs on the calling thread (see [`BoolRepr::kernel`]).
    fn kernel() -> impl FnMut(LenJob<'_, Self>) -> Self;
}

/// A representation plus an optional [`Device`] plus a skip counter —
/// everything `BoolEngine` and `LenEngine` need to know of an engine.
pub trait Backend: Send + Sync {
    /// How this engine's Boolean matrices are stored.
    type Repr: BoolRepr;
    /// `BoolEngine::name`.
    const NAME: &'static str;

    /// Where a batch runs its jobs side by side; `None` runs every job on
    /// the calling thread. A single product always runs on the caller.
    fn device(&self) -> Option<&Device> {
        None
    }

    /// Adds the tiles one product skipped to the engine's count. Whether
    /// there is anything to add is the kernel's to say
    /// ([`BoolRepr::kernel`]); the unit engines, which keep no state, are
    /// never asked.
    fn add_tiles_skipped(&self, _tiles: u64) {}

    /// The count so far (`BoolEngine::kernel_counters`).
    fn tiles_skipped(&self) -> u64 {
        0
    }
}

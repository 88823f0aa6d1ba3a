//! The masked semi-naive sweep loop, once, over an element algebra.
//!
//! §4's relational closure and §5's single-path closure are the same
//! fixpoint — per sweep `T_A ⊕= ΔT_B ⊗ T_C ⊕ T_B ⊗ ΔT_C` for every rule
//! `A → BC` — over two kinds of cell: a bit, and the length of the first
//! witness found. [`Algebra`] names what the loop asks of a matrix family
//! and has exactly those two instances, [`Boolean`] over a
//! [`BoolEngine`] and [`Lengths`] over a [`LenEngine`]; [`solve`],
//! [`resume`] and the loop they share are written against the trait.
//! [`crate::relational::FixpointSolver`] and
//! [`crate::single_path::SinglePathSolver`] are the typed fronts: they
//! seed the matrices, call in here, and place the ε-diagonal (before the
//! fixpoint for §4, as an overlay after it for §5).
//!
//! Each sweep multiplies only the entries the previous one discovered.
//! Rules sharing a `(B, C)` right-hand side share one product, kernels
//! with an empty Δ operand are skipped outright, and the whole sweep goes
//! to the engine as one batch (the paper's §7 remark that "matrix
//! multiplication in the main loop … may be performed on different GPGPU
//! independently"). A product feeding exactly one `T_A` takes the
//! accumulated `T_A` as complement mask, so the kernel never regenerates
//! entries the closure already holds and its output is exactly the new
//! information (Azimov & Grigorev, arXiv:1707.01007; Shemetova et al.,
//! arXiv:2103.14688).

use crate::relational::SolveStats;
use cfpq_grammar::Wcnf;
use cfpq_matrix::{BoolEngine, BoolMat, KernelCounters, LenEngine, LenMat};
use std::collections::BTreeMap;

/// One job of a batch of products: operands `(a, b)` plus an optional
/// complement mask (the shape of [`cfpq_matrix::MaskedJob`] and
/// [`cfpq_matrix::LenJob`]).
type Job<'a, M> = (&'a M, &'a M, Option<&'a M>);

/// What the sweep loop asks of a matrix family.
pub(crate) trait Algebra {
    /// One `T_A`.
    type Matrix: Clone;

    /// Runs a sweep's products as one batch; cells of a job's mask are
    /// never emitted.
    fn products(&self, jobs: &[Job<'_, Self::Matrix>]) -> Vec<Self::Matrix>;

    /// `acc ⊕= add`: gathers the products feeding one nonterminal.
    fn accumulate(&self, acc: &mut Self::Matrix, add: &Self::Matrix);

    /// Folds a sweep's gathered products into the closure and returns
    /// what was new there — the next sweep's Δ, with its cell count —
    /// `None` if nothing was. The Δ is disjoint from what `full` held, so
    /// `full` grew by exactly that count. `masked` says every product in
    /// `fresh` ran masked by `full`, so none of its cells is in `full`
    /// yet.
    fn fold(
        &self,
        full: &mut Self::Matrix,
        fresh: Self::Matrix,
        masked: bool,
    ) -> Option<(Self::Matrix, usize)>;

    /// Folds base facts (freshly inserted edges deriving the nonterminal
    /// of `full`) into a closed matrix; returns the new ones as a Δ,
    /// `None` if the closure held them all.
    fn seed(&self, full: &mut Self::Matrix, pairs: &[(u32, u32)]) -> Option<Self::Matrix>;

    /// Stored cells.
    fn nnz(&self, m: &Self::Matrix) -> usize;

    /// The engine's cumulative [`KernelCounters`] (all-zero for kernels
    /// that keep none).
    fn counters(&self) -> KernelCounters {
        KernelCounters::default()
    }
}

/// Bits under (∨, ∧): the relational semantics of §4.
pub(crate) struct Boolean<'e, E>(pub &'e E);

impl<E: BoolEngine> Algebra for Boolean<'_, E> {
    type Matrix = E::Matrix;

    fn products(&self, jobs: &[Job<'_, E::Matrix>]) -> Vec<E::Matrix> {
        self.0.multiply_masked_batch(jobs)
    }

    fn accumulate(&self, acc: &mut E::Matrix, add: &E::Matrix) {
        self.0.union_in_place(acc, add);
    }

    fn fold(
        &self,
        full: &mut E::Matrix,
        fresh: E::Matrix,
        masked: bool,
    ) -> Option<(E::Matrix, usize)> {
        // Masked products are already disjoint from `full` (the mask
        // snapshot predates this sweep's unions), so they *are* the new
        // Δ; unmasked ones need a difference.
        let new = match masked {
            true => fresh,
            false => self.0.difference(&fresh, full),
        };
        let nnz = new.nnz();
        if nnz == 0 {
            return None;
        }
        self.0.union_in_place(full, &new);
        Some((new, nnz))
    }

    fn seed(&self, full: &mut E::Matrix, pairs: &[(u32, u32)]) -> Option<E::Matrix> {
        let fresh = self.0.from_pairs(full.n(), pairs);
        self.fold(full, fresh, false).map(|(new, _)| new)
    }

    fn nnz(&self, m: &E::Matrix) -> usize {
        m.nnz()
    }

    fn counters(&self) -> KernelCounters {
        self.0.kernel_counters()
    }
}

/// Witness lengths under first-write-wins: the single-path semantics of
/// §5. A cell, once set, keeps its length, so "absent from the closure"
/// is the whole merge rule and the masked-kernel contract carries over
/// unchanged. Base facts are edges: length 1.
pub(crate) struct Lengths<'e, E>(pub &'e E);

impl<E: LenEngine> Algebra for Lengths<'_, E> {
    type Matrix = E::LenMatrix;

    fn products(&self, jobs: &[Job<'_, E::LenMatrix>]) -> Vec<E::LenMatrix> {
        self.0.len_multiply_masked_batch(jobs)
    }

    fn accumulate(&self, acc: &mut E::LenMatrix, add: &E::LenMatrix) {
        self.0.len_merge_absent(acc, add);
    }

    fn fold(
        &self,
        full: &mut E::LenMatrix,
        fresh: E::LenMatrix,
        _masked: bool,
    ) -> Option<(E::LenMatrix, usize)> {
        // The merge reports what it wrote, masked or not.
        let new = self.0.len_merge_absent(full, &fresh);
        let nnz = new.nnz();
        (nnz > 0).then_some((new, nnz))
    }

    fn seed(&self, full: &mut E::LenMatrix, pairs: &[(u32, u32)]) -> Option<E::LenMatrix> {
        let entries: Vec<(u32, u32, u32)> = pairs.iter().map(|&(i, j)| (i, j, 1)).collect();
        let written = self.0.len_set_absent(full, &entries);
        (!written.is_empty()).then(|| self.0.len_from_entries(full.n(), &written))
    }

    fn nnz(&self, m: &E::LenMatrix) -> usize {
        m.nnz()
    }
}

/// Runs the fixpoint to completion from freshly seeded matrices
/// (`matrices[A.index()]` holds the initialization of `T_A`): every
/// seeded entry is new information, so the matrices themselves are the
/// first sweep's Δ. Returns the run's work counters, one `sweep_nnz` point
/// per sweep. Termination: entries only grow, bounded by `|V|²·|N|`
/// (Theorem 3).
pub(crate) fn solve<A: Algebra>(
    algebra: &A,
    matrices: &mut [A::Matrix],
    grammar: &Wcnf,
) -> SolveStats {
    let mut sp = cfpq_obs::span("solve");
    let mut stats = SolveStats::default();
    let counters_before = algebra.counters();
    delta_sweeps(algebra, matrices, None, grammar, &mut stats);
    finish_stats(&mut stats, algebra, counters_before, matrices);
    if sp.is_recording() {
        sp.attr_str("mode", "cold");
        sp.attr_u64("sweeps", stats.sweep_nnz.len() as u64);
        sp.attr_u64("products", stats.products_computed as u64);
    }
    stats
}

/// Folds newly-discovered base facts into closed matrices
/// (`new_pairs[A.index()]` are candidate additions to `T_A`) and re-runs
/// only the Δ loop they seed; what that guarantees is on
/// [`crate::relational::FixpointSolver::resume`]. Returns the counters of
/// this run alone: one `sweep_nnz` point per sweep, all-default when
/// nothing was new.
pub(crate) fn resume<A: Algebra>(
    algebra: &A,
    matrices: &mut [A::Matrix],
    grammar: &Wcnf,
    new_pairs: &[Vec<(u32, u32)>],
) -> SolveStats {
    let mut sp = cfpq_obs::span("solve");
    assert_eq!(
        new_pairs.len(),
        grammar.n_nts(),
        "one pair list per nonterminal"
    );
    let counters_before = algebra.counters();
    let delta: Vec<Option<A::Matrix>> = matrices
        .iter_mut()
        .zip(new_pairs)
        .map(|(full, pairs)| match pairs.is_empty() {
            true => None,
            false => algebra.seed(full, pairs),
        })
        .collect();
    let mut stats = SolveStats::default();
    // Nothing new: the closure is already correct.
    if delta.iter().any(Option::is_some) {
        delta_sweeps(algebra, matrices, Some(delta), grammar, &mut stats);
        finish_stats(&mut stats, algebra, counters_before, matrices);
    }
    if sp.is_recording() {
        sp.attr_str("mode", "resume");
        sp.attr_u64("sweeps", stats.sweep_nnz.len() as u64);
        sp.attr_u64("products", stats.products_computed as u64);
    }
    stats
}

/// The sweep loop behind [`solve`] and [`resume`] (the module docs say
/// what a sweep is). A `(B, C)` pair shared by several LHS runs unmasked
/// and [`Algebra::fold`] sorts out what is new.
///
/// `seed` is where the first sweep's Δ comes from: `None` treats the
/// (freshly initialized) `full` matrices themselves as the Δ — the
/// cold-solve case, where ΔB×C and B×ΔC coincide, so one `T_B × T_C`
/// product per pair suffices and no clone is ever taken — while explicit
/// Δ matrices, already folded into `full`, are the resume case. Work
/// counters accumulate into `stats`, one `sweep_nnz` point per sweep.
fn delta_sweeps<A: Algebra>(
    algebra: &A,
    full: &mut [A::Matrix],
    seed: Option<Vec<Option<A::Matrix>>>,
    grammar: &Wcnf,
    stats: &mut SolveStats,
) {
    let n_nts = grammar.n_nts();

    // Distinct (B, C) operand pairs → the LHS nonterminals they feed.
    let mut by_pair: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for rule in &grammar.binary_rules {
        let lhss = by_pair
            .entry((rule.left.index(), rule.right.index()))
            .or_default();
        if !lhss.contains(&rule.lhs.index()) {
            lhss.push(rule.lhs.index());
        }
    }
    let groups: Vec<((usize, usize), Vec<usize>)> = by_pair.into_iter().collect();
    // What a rule-by-rule semi-naive loop launches per sweep: two
    // products (ΔB×C and B×ΔC) for every binary rule.
    let per_sweep_potential = 2 * grammar.binary_rules.len();

    // Δ per nonterminal; `None` means empty (never allocated for
    // nonterminals no rule produces).
    let mut first = seed.is_none();
    let mut delta = seed.unwrap_or_else(|| (0..n_nts).map(|_| None).collect());
    debug_assert_eq!(delta.len(), n_nts);
    // `Σ_A nnz(T_A)`, counted once here and then kept by adding each Δ
    // as it is folded in: a sweep pays for what it found, not for a
    // recount of the closure.
    let mut closure_nnz = total_nnz(algebra, full);
    loop {
        let mut sweep_sp = cfpq_obs::span("sweep");

        // Assemble this sweep's kernel jobs from the same snapshot.
        let mut jobs: Vec<Job<'_, A::Matrix>> = Vec::new();
        let mut job_group: Vec<usize> = Vec::new();
        for (gi, ((b, c), lhss)) in groups.iter().enumerate() {
            let mask = match &lhss[..] {
                &[a] => Some(&full[a]),
                _ => None,
            };
            if first {
                // Δ = T initially, so ΔB×C and B×ΔC coincide.
                jobs.push((&full[*b], &full[*c], mask));
                job_group.push(gi);
            } else {
                if let Some(db) = &delta[*b] {
                    jobs.push((db, &full[*c], mask));
                    job_group.push(gi);
                }
                if let Some(dc) = &delta[*c] {
                    jobs.push((&full[*b], dc, mask));
                    job_group.push(gi);
                }
            }
        }
        first = false;
        let n_jobs = jobs.len();
        let products = algebra.products(&jobs);
        stats.products_computed += n_jobs;
        stats.products_skipped += per_sweep_potential - n_jobs;

        // Gather each product into the fresh accumulator of every LHS of
        // its group (the product is shared, not recomputed; its last LHS
        // takes it by value).
        let mut fresh: Vec<Option<A::Matrix>> = (0..n_nts).map(|_| None).collect();
        let mut fresh_masked: Vec<bool> = vec![true; n_nts];
        for (product, &gi) in products.into_iter().zip(&job_group) {
            let lhss = &groups[gi].1;
            let was_masked = lhss.len() == 1;
            let (&last, rest) = lhss.split_last().expect("group has an LHS");
            for &a in rest {
                match &mut fresh[a] {
                    Some(acc) => algebra.accumulate(acc, &product),
                    None => fresh[a] = Some(product.clone()),
                }
                fresh_masked[a] &= was_masked;
            }
            accumulate_into(algebra, &mut fresh[last], product);
            fresh_masked[last] &= was_masked;
        }

        // Fold the fresh entries into the closure and derive the next Δ.
        for a in 0..n_nts {
            let folded = fresh[a]
                .take()
                .and_then(|f| algebra.fold(&mut full[a], f, fresh_masked[a]));
            delta[a] = folded.map(|(new, nnz)| {
                closure_nnz += nnz;
                new
            });
        }
        debug_assert_eq!(closure_nnz, total_nnz(algebra, full), "a Δ met its closure");
        stats.sweep_nnz.push(closure_nnz);
        if sweep_sp.is_recording() {
            sweep_sp.attr_u64("sweep", stats.sweep_nnz.len() as u64);
            sweep_sp.attr_u64("products", n_jobs as u64);
            sweep_sp.attr_text("delta_nnz", delta_nnz_text(algebra, &delta));
        }
        drop(sweep_sp);
        if delta.iter().all(Option::is_none) {
            break;
        }
    }
}

/// `acc ⊕= add`, where an absent accumulator is the empty matrix.
pub(crate) fn accumulate_into<A: Algebra>(
    algebra: &A,
    acc: &mut Option<A::Matrix>,
    add: A::Matrix,
) {
    match acc {
        Some(acc) => algebra.accumulate(acc, &add),
        None => *acc = Some(add),
    }
}

/// `Σ_A nnz(T_A)` — one data point of [`SolveStats::sweep_nnz`].
pub(crate) fn total_nnz<A: Algebra>(algebra: &A, matrices: &[A::Matrix]) -> usize {
    matrices.iter().map(|m| algebra.nnz(m)).sum()
}

/// Closes out a run's [`SolveStats`]: brackets the engine's cumulative
/// [`KernelCounters`] (sampled at run start) to this run's contribution
/// and snapshots the final per-nonterminal nnz.
pub(crate) fn finish_stats<A: Algebra>(
    stats: &mut SolveStats,
    algebra: &A,
    counters_before: KernelCounters,
    matrices: &[A::Matrix],
) {
    stats.tiles_skipped = algebra.counters().since(counters_before).tiles_skipped;
    stats.nt_nnz = matrices.iter().map(|m| algebra.nnz(m)).collect();
}

/// A sweep's `delta_nnz` span attribute: the per-nonterminal Δ-nnz it
/// produced, as `nt:nnz` pairs (only nonterminals that changed).
pub(crate) fn delta_nnz_text<A: Algebra>(algebra: &A, delta: &[Option<A::Matrix>]) -> String {
    let per_nt: Vec<String> = delta
        .iter()
        .enumerate()
        .filter_map(|(a, d)| d.as_ref().map(|d| format!("{a}:{}", algebra.nnz(d))))
        .collect();
    per_nt.join(",")
}

//! The masked semi-naive sweep loop, once, over an element algebra and a
//! rule program.
//!
//! Every closure this crate computes is a least fixpoint of rules
//! `T ⊇ L × R`. **What is multiplied** is a [`Program`]: a table of such
//! rules whose operands are *variables* — the matrices being closed,
//! each with a Δ — or *constants*, matrices lent to the run that never
//! change and so never have one. There are two builders of one.
//! [`Program::of_grammar`] is Algorithm 1: a variable `T_A` per
//! nonterminal and `T_A ⊇ T_B × T_C` for every rule `A → B C`, behind
//! [`solve`] and [`repair`]. [`crate::relational::SourceClosure`] writes
//! the demand-driven table — row selectors, row selections and the
//! graph's label matrices as constants — and supplies the one thing a
//! product cannot derive, which rows are demanded next, as the `grow`
//! step of [`run`]. **What a cell is** is an [`Algebra`], with exactly
//! two instances: [`Boolean`] over a [`BoolEngine`] (§4, a bit) and
//! [`Lengths`] over a [`LenEngine`] (§5, the length of the first witness
//! found). [`crate::relational::FixpointSolver`] and
//! [`crate::single_path::SinglePathSolver`] are the typed fronts of the
//! all-pairs program: they seed the matrices and call in here.
//!
//! The lifecycle around the loop is here once too, for both algebras:
//! the cold [`solve`], the [`repair`] that widens a closure to a grown
//! node universe, and the ε-diagonal both finish with
//! ([`overlay_epsilon`]), never a Δ.
//!
//! Each sweep multiplies only the entries the previous one discovered:
//! per rule `ΔL × R` and `L × ΔR`, a constant contributing no Δ side.
//! Rules sharing an operand pair share one product, kernels with an
//! empty Δ operand are skipped outright, and the whole sweep goes to the
//! engine as one batch (the paper's §7 remark that "matrix
//! multiplication in the main loop … may be performed on different GPGPU
//! independently"). A product feeding exactly one target takes the
//! accumulated target as complement mask, so the kernel never
//! regenerates entries the closure already holds and its output is
//! exactly the new information (Azimov & Grigorev, arXiv:1707.01007;
//! Shemetova et al., arXiv:2103.14688).

use crate::relational::{SeedOutOfRange, SolveOptions, SolveStats};
use cfpq_grammar::{Nt, Wcnf};
use cfpq_matrix::{BoolEngine, BoolMat, KernelCounters, LenEngine, LenMat};
use std::collections::BTreeMap;
use std::ops::Range;

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

    /// Widens `m` to `n × n`, `n` at least its size; the new cells are
    /// unset.
    fn grow(&self, m: &mut Self::Matrix, n: usize);

    /// Writes the ε-cell `(m, m)` of every node of `nodes` into `full`
    /// where it holds nothing yet.
    fn diagonal(&self, full: &mut Self::Matrix, nodes: Range<usize>);

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
        // Point reads, as the length side makes point writes: a handful
        // of cells costs no pass over the closure, and none that is new
        // costs no matrix at all.
        let absent: Vec<(u32, u32)> = pairs
            .iter()
            .copied()
            .filter(|&(i, j)| !full.get(i, j))
            .collect();
        if absent.is_empty() {
            return None;
        }
        let fresh = self.0.from_pairs(full.n(), &absent);
        self.fold(full, fresh, true).map(|(new, _)| new)
    }

    fn nnz(&self, m: &E::Matrix) -> usize {
        m.nnz()
    }

    fn grow(&self, m: &mut E::Matrix, n: usize) {
        self.0.grow(m, n);
    }

    fn diagonal(&self, full: &mut E::Matrix, nodes: Range<usize>) {
        let cells: Vec<(u32, u32)> = nodes.map(|m| (m as u32, m as u32)).collect();
        self.0.union_pairs(full, &cells);
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

    /// As the Boolean seed: point reads, one build of the absent cells,
    /// and the merge's report as the Δ.
    fn seed(&self, full: &mut E::LenMatrix, pairs: &[(u32, u32)]) -> Option<E::LenMatrix> {
        let absent: Vec<(u32, u32, u32)> = pairs
            .iter()
            .filter(|&&(i, j)| full.get(i, j).is_none())
            .map(|&(i, j)| (i, j, 1))
            .collect();
        if absent.is_empty() {
            return None;
        }
        let fresh = self.0.len_from_entries(full.n(), &absent);
        self.fold(full, fresh, true).map(|(new, _)| new)
    }

    fn nnz(&self, m: &E::LenMatrix) -> usize {
        m.nnz()
    }

    fn grow(&self, m: &mut E::LenMatrix, n: usize) {
        self.0.len_grow(m, n);
    }

    /// The empty path, at length 0 (first write wins: a cell holding a
    /// witness keeps it).
    fn diagonal(&self, full: &mut E::LenMatrix, nodes: Range<usize>) {
        let cells: Vec<(u32, u32, u32)> = nodes.map(|m| (m as u32, m as u32, 0)).collect();
        self.0.len_set_absent(full, &cells);
    }
}

/// An operand of a rule: one of the matrices a [`Program`] multiplies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Operand {
    /// `vars[i]`, a matrix being closed: it grows, so it has a Δ.
    Var(usize),
    /// `consts[i]`, borrowed matrices standing for their union and
    /// multiplied part by part: they never change, so they never have one.
    Const(usize),
}

impl Operand {
    fn is_var(self) -> bool {
        matches!(self, Operand::Var(_))
    }

    /// The matrices a product with this operand runs over.
    fn parts<'a, M>(self, vars: &'a [M], consts: &'a [Vec<&'a M>]) -> impl Iterator<Item = &'a M> {
        let (var, parts) = match self {
            Operand::Var(v) => (Some(&vars[v]), &[][..]),
            Operand::Const(c) => (None, &consts[c][..]),
        };
        var.into_iter().chain(parts.iter().copied())
    }
}

/// What the sweep loop runs: rules `vars[target] ⊇ left × right` over
/// the variables of one run and the constants lent to it. The all-pairs
/// closure is [`Program::of_grammar`]; the source-restricted one
/// ([`crate::relational::SourceClosure`]) writes its own table over row
/// selectors, row selections and label matrices.
#[derive(Clone, Debug)]
pub(crate) struct Program {
    /// The rules as given: `(target, left, right)`.
    rules: Vec<(usize, Operand, Operand)>,
    /// Distinct operand pairs → the targets they feed. Rules sharing a
    /// pair share its products; a pair with a sole target runs masked by
    /// it.
    groups: Vec<((Operand, Operand), Vec<usize>)>,
    /// `vars[..relations]` are the relations the run is asked for, the
    /// ones [`SolveStats::sweep_nnz`] and [`SolveStats::nt_nnz`] count;
    /// variables past them are auxiliary.
    relations: usize,
}

impl Program {
    /// A program over `rules`, each with at least one variable operand
    /// (a product of constants never changes: it is a constant).
    pub(crate) fn new(relations: usize, rules: Vec<(usize, Operand, Operand)>) -> Self {
        let mut by_pair: BTreeMap<(Operand, Operand), Vec<usize>> = BTreeMap::new();
        for &(target, left, right) in &rules {
            debug_assert!(left.is_var() || right.is_var(), "a rule over constants");
            let targets = by_pair.entry((left, right)).or_default();
            if !targets.contains(&target) {
                targets.push(target);
            }
        }
        Self {
            rules,
            groups: by_pair.into_iter().collect(),
            relations,
        }
    }

    /// Algorithm 1's program: `T_A ⊇ T_B × T_C` for every `A → B C`, one
    /// variable per nonterminal and no constant.
    pub(crate) fn of_grammar(grammar: &Wcnf) -> Self {
        let var = |nt: Nt| Operand::Var(nt.index());
        let rules = grammar.binary_rules.iter();
        let rules = rules.map(|r| (r.lhs.index(), var(r.left), var(r.right)));
        Self::new(grammar.n_nts(), rules.collect())
    }

    /// What a rule-by-rule semi-naive loop launches per sweep: for every
    /// rule, a product per variable operand and part of the other one.
    fn per_sweep_potential<M>(&self, consts: &[Vec<&M>]) -> usize {
        let parts = |o: Operand| match o {
            Operand::Var(_) => 1,
            Operand::Const(c) => consts[c].len(),
        };
        let sides = |&(_, l, r): &(usize, Operand, Operand)| {
            usize::from(l.is_var()) * parts(r) + usize::from(r.is_var()) * parts(l)
        };
        self.rules.iter().map(sides).sum()
    }
}

/// A closed all-pairs closure, as [`repair`] advances it.
pub(crate) trait Closed {
    type Matrix;

    /// The matrices, the nodes they cover, the sweeps run and the
    /// cumulative counters.
    fn parts(&mut self) -> (&mut [Self::Matrix], &mut usize, &mut usize, &mut SolveStats);
}

/// Runs the all-pairs fixpoint to completion from freshly seeded
/// matrices (`matrices[A.index()]` holds the initialization of `T_A`),
/// then overlays the ε-diagonal of the `n` nodes. Returns the run's work
/// counters. Termination: entries only grow, bounded by `|V|²·|N|`
/// (Theorem 3).
pub(crate) fn solve<A: Algebra>(
    algebra: &A,
    matrices: &mut [A::Matrix],
    grammar: &Wcnf,
    options: SolveOptions,
    n: usize,
) -> SolveStats {
    let stats = run_grammar(algebra, matrices, grammar, None);
    overlay_epsilon(algebra, matrices, grammar, options, 0..n);
    stats
}

/// Repairs a closed closure for newly-discovered base facts
/// (`new_pairs[A.index()]` are candidate additions to `T_A`): widens it
/// to `n` nodes if it covers fewer, re-runs only the Δ loop the new facts
/// seed, overlays the ε-diagonal of the nodes it gained, and advances the
/// closure's counters; what that guarantees is on
/// [`crate::relational::FixpointSolver::resume`]. Returns the counters of
/// this run alone, all-default when nothing was new. A pair outside the
/// widened matrices is refused before anything is written.
pub(crate) fn repair<A: Algebra>(
    algebra: &A,
    closure: &mut impl Closed<Matrix = A::Matrix>,
    grammar: &Wcnf,
    options: SolveOptions,
    n: usize,
    new_pairs: &[Vec<(u32, u32)>],
) -> Result<SolveStats, SeedOutOfRange> {
    let (matrices, n_nodes, iterations, cumulative) = closure.parts();
    let n = n.max(*n_nodes);
    assert_eq!(new_pairs.len(), grammar.n_nts(), "one list per nonterminal");
    for (a, pairs) in new_pairs.iter().enumerate() {
        if let Some(&cell) = pairs.iter().find(|&&(i, j)| i.max(j) as usize >= n) {
            let nt = Nt(a as u32);
            return Err(SeedOutOfRange { nt, cell, n });
        }
    }
    if n > *n_nodes {
        matrices.iter_mut().for_each(|m| algebra.grow(m, n));
    }
    let stats = run_grammar(algebra, matrices, grammar, Some(new_pairs));
    overlay_epsilon(algebra, matrices, grammar, options, *n_nodes..n);
    *n_nodes = n;
    *iterations += stats.sweep_nnz.len();
    cumulative.absorb(&stats);
    Ok(stats)
}

/// Algorithm 1's program over `matrices`, from `seeds` as [`run`] takes
/// them, as one `"solve"` span.
fn run_grammar<A: Algebra>(
    algebra: &A,
    matrices: &mut [A::Matrix],
    grammar: &Wcnf,
    seeds: Option<&[Vec<(u32, u32)>]>,
) -> SolveStats {
    let mut sp = cfpq_obs::span("solve");
    let program = Program::of_grammar(grammar);
    let stats = run(algebra, matrices, &program, &[], seeds, |_, _| Vec::new());
    if sp.is_recording() {
        sp.attr_str("mode", if seeds.is_some() { "resume" } else { "cold" });
        sp.attr_u64("sweeps", stats.sweep_nnz.len() as u64);
        sp.attr_u64("products", stats.products_computed as u64);
    }
    stats
}

/// Writes `(A, m, m)` for every nullable `A` and node `m` of `nodes`
/// where the closure holds no other witness, if `options` ask for the
/// ε-diagonal: the one writer of an all-pairs closure's diagonal. It runs
/// after the fixpoint, as ε-elimination is complete: composing through
/// an ε-cell reaches no pair the ε-free closure misses, and length sweeps
/// that never see one keep every stored split well-founded.
fn overlay_epsilon<A: Algebra>(
    algebra: &A,
    matrices: &mut [A::Matrix],
    grammar: &Wcnf,
    options: SolveOptions,
    nodes: Range<usize>,
) {
    if !options.nullable_diagonal || nodes.is_empty() {
        return;
    }
    for &nt in &grammar.nullable {
        algebra.diagonal(&mut matrices[nt.index()], nodes.clone());
    }
}

/// The sweep loop (the module docs say what a sweep is): runs `program`
/// over `vars` and `consts` until no variable grows, and returns the
/// run's work counters, one `sweep_nnz` point per sweep.
///
/// `seeds` is where the first sweep's Δ comes from. `None` treats the
/// (freshly initialized) variables themselves as the Δ — the cold-solve
/// case, where ΔL×R and L×ΔR coincide, so one `L × R` product per pair
/// suffices and no clone is ever taken. `Some(cells)` folds `cells[v]`
/// into the already closed `vars[v]` and starts from what was new there;
/// nothing new, no sweep, all-default counters.
///
/// After every fold `grow` sees the sweep's Δ and names further cells
/// per variable, which are folded in the same way and join the next
/// sweep's Δ: facts that follow from the new entries by something other
/// than a product. It may launch products of its own and counts them in
/// the stats it is handed.
pub(crate) fn run<A: Algebra>(
    algebra: &A,
    vars: &mut [A::Matrix],
    program: &Program,
    consts: &[Vec<&A::Matrix>],
    seeds: Option<&[Vec<(u32, u32)>]>,
    mut grow: impl FnMut(&[Option<A::Matrix>], &mut SolveStats) -> Vec<Vec<(u32, u32)>>,
) -> SolveStats {
    let counters_before = algebra.counters();
    let mut stats = SolveStats::default();
    let relations = program.relations;
    // Δ per variable; `None` means empty (never allocated for variables
    // nothing produces).
    let mut first = seeds.is_none();
    let mut delta: Vec<Option<A::Matrix>> = vars.iter().map(|_| None).collect();
    if let Some(cells) = seeds {
        inject(algebra, vars, &mut delta, cells, relations);
        // Nothing new: the closure is already correct.
        if delta.iter().all(Option::is_none) {
            return stats;
        }
    }
    let per_sweep_potential = program.per_sweep_potential(consts);
    // `Σ_A nnz(T_A)`, counted once here and then kept by adding each Δ
    // as it is folded in: a sweep pays for what it found, not for a
    // recount of the closure.
    let mut closure_nnz = total_nnz(algebra, &vars[..relations]);
    loop {
        let mut sweep_sp = cfpq_obs::span("sweep");

        // Assemble this sweep's kernel jobs from the same snapshot.
        let mut jobs: Vec<Job<'_, A::Matrix>> = Vec::new();
        let mut job_group: Vec<usize> = Vec::new();
        for (gi, ((l, r), targets)) in program.groups.iter().enumerate() {
            let mask = match &targets[..] {
                &[t] => Some(&vars[t]),
                _ => None,
            };
            let delta_of = |o: Operand| match o {
                Operand::Var(v) if first => Some(&vars[v]),
                Operand::Var(v) => delta[v].as_ref(),
                Operand::Const(_) => None,
            };
            if let Some(dl) = delta_of(*l) {
                for part in r.parts(vars, consts) {
                    jobs.push((dl, part, mask));
                    job_group.push(gi);
                }
            }
            // Δ = T initially, so ΔL×R above was L×ΔR too.
            if let Some(dr) = delta_of(*r).filter(|_| !(first && l.is_var())) {
                for part in l.parts(vars, consts) {
                    jobs.push((part, dr, mask));
                    job_group.push(gi);
                }
            }
        }
        first = false;
        let n_jobs = jobs.len();
        let products = algebra.products(&jobs);
        stats.products_computed += n_jobs;
        stats.products_skipped += per_sweep_potential - n_jobs;

        // Gather each product into the fresh accumulator of every target
        // of its group (the product is shared, not recomputed; its last
        // target takes it by value).
        let mut fresh: Vec<Option<A::Matrix>> = vars.iter().map(|_| None).collect();
        let mut fresh_masked: Vec<bool> = vec![true; vars.len()];
        for (product, &gi) in products.into_iter().zip(&job_group) {
            let targets = &program.groups[gi].1;
            let was_masked = targets.len() == 1;
            let (&last, rest) = targets.split_last().expect("group has a target");
            for &t in rest {
                match &mut fresh[t] {
                    Some(acc) => algebra.accumulate(acc, &product),
                    None => fresh[t] = Some(product.clone()),
                }
                fresh_masked[t] &= was_masked;
            }
            accumulate_into(algebra, &mut fresh[last], product);
            fresh_masked[last] &= was_masked;
        }

        // Fold the fresh entries into the closure and derive the next Δ.
        for v in 0..vars.len() {
            let folded = fresh[v]
                .take()
                .and_then(|f| algebra.fold(&mut vars[v], f, fresh_masked[v]));
            delta[v] = folded.map(|(new, nnz)| {
                closure_nnz += if v < relations { nnz } else { 0 };
                new
            });
        }
        let grown = grow(&delta, &mut stats);
        closure_nnz += inject(algebra, vars, &mut delta, &grown, relations);
        debug_assert_eq!(
            closure_nnz,
            total_nnz(algebra, &vars[..relations]),
            "a Δ met its closure"
        );
        stats.sweep_nnz.push(closure_nnz);
        if sweep_sp.is_recording() {
            sweep_sp.attr_u64("sweep", stats.sweep_nnz.len() as u64);
            sweep_sp.attr_u64("products", n_jobs as u64);
            sweep_sp.attr_text("delta_nnz", delta_nnz_text(algebra, &delta[..relations]));
        }
        drop(sweep_sp);
        if delta.iter().all(Option::is_none) {
            break;
        }
    }
    // Brackets the engine's cumulative counters to this run's
    // contribution and snapshots the final per-relation nnz.
    stats.tiles_skipped = algebra.counters().since(counters_before).tiles_skipped;
    stats.nt_nnz = vars[..relations].iter().map(|m| algebra.nnz(m)).collect();
    stats
}

/// Folds `cells[v]` into `vars[v]` and joins what was new there to
/// `delta[v]`; returns how many cells the first `relations` variables
/// gained.
fn inject<A: Algebra>(
    algebra: &A,
    vars: &mut [A::Matrix],
    delta: &mut [Option<A::Matrix>],
    cells: &[Vec<(u32, u32)>],
    relations: usize,
) -> usize {
    let mut gained = 0;
    for (v, cells) in cells.iter().enumerate().filter(|(_, c)| !c.is_empty()) {
        if let Some(new) = algebra.seed(&mut vars[v], cells) {
            gained += if v < relations { algebra.nnz(&new) } else { 0 };
            accumulate_into(algebra, &mut delta[v], new);
        }
    }
    gained
}

/// `acc ⊕= add`, where an absent accumulator is the empty matrix.
fn accumulate_into<A: Algebra>(algebra: &A, acc: &mut Option<A::Matrix>, add: A::Matrix) {
    match acc {
        Some(acc) => algebra.accumulate(acc, &add),
        None => *acc = Some(add),
    }
}

/// `Σ_A nnz(T_A)` — one data point of [`SolveStats::sweep_nnz`].
fn total_nnz<A: Algebra>(algebra: &A, matrices: &[A::Matrix]) -> usize {
    matrices.iter().map(|m| algebra.nnz(m)).sum()
}

/// A sweep's `delta_nnz` span attribute: the per-nonterminal Δ-nnz it
/// produced, as `nt:nnz` pairs (only nonterminals that changed).
fn delta_nnz_text<A: Algebra>(algebra: &A, delta: &[Option<A::Matrix>]) -> String {
    let per_nt: Vec<String> = delta
        .iter()
        .enumerate()
        .filter_map(|(a, d)| d.as_ref().map(|d| format!("{a}:{}", algebra.nnz(d))))
        .collect();
    per_nt.join(",")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regular::{solve_regular, Nfa};
    use cfpq_graph::generators;
    use cfpq_matrix::SparseEngine;
    use std::collections::HashSet;

    /// A hand-written program with a constant operand, `R ⊇ R × E` with
    /// `R` seeded with `E`, closes `R` to `E⁺` under both algebras, and
    /// the constant never gets a Δ side: every sweep launches the one
    /// product `ΔR × E`.
    #[test]
    fn a_constant_operand_is_multiplied_but_never_a_delta() {
        let program = Program::new(1, vec![(0, Operand::Var(0), Operand::Const(0))]);
        for graph in [
            generators::two_cycles(3, 4),
            generators::random_graph(20, 40, &["a", "b"], 0xE),
        ] {
            let n = graph.n_nodes();
            let edges: Vec<(u32, u32)> = graph
                .edges()
                .iter()
                .filter(|e| graph.label_name(e.label) == "a")
                .map(|e| (e.from, e.to))
                .collect();
            let expect = solve_regular(&SparseEngine, &graph, &Nfa::plus("a")).pairs();

            let e = SparseEngine.from_pairs(n, &edges);
            let mut r = vec![e.clone()];
            let bits = Boolean(&SparseEngine);
            let stats = run(&bits, &mut r, &program, &[vec![&e]], None, |_, _| {
                Vec::new()
            });
            assert_eq!(r[0].pairs(), expect);
            assert!(stats.sweep_nnz.len() > 1, "the closure took sweeps");
            assert_eq!(stats.products_computed, stats.sweep_nnz.len());
            assert_eq!(stats.products_skipped, 0);
            assert_eq!(stats.nt_nnz, [expect.len()]);

            let unit: Vec<(u32, u32, u32)> = edges.iter().map(|&(i, j)| (i, j, 1)).collect();
            let e = SparseEngine.len_from_entries(n, &unit);
            let mut r = vec![e.clone()];
            let lengths = Lengths(&SparseEngine);
            let len_stats = run(&lengths, &mut r, &program, &[vec![&e]], None, |_, _| {
                Vec::new()
            });
            assert_eq!(r[0].pairs(), expect);
            assert_eq!(len_stats, stats, "the same sweeps, cell for cell");
            // Every recorded length is the length of a real walk.
            let mut walks: Vec<HashSet<(u32, u32)>> = vec![edges.iter().copied().collect()];
            for (i, j, l) in r[0].entries() {
                while walks.len() < l as usize {
                    let longer = walks[walks.len() - 1]
                        .iter()
                        .flat_map(|&(i, k)| {
                            edges
                                .iter()
                                .filter(move |e| e.0 == k)
                                .map(move |e| (i, e.1))
                        })
                        .collect();
                    walks.push(longer);
                }
                assert!(walks[l as usize - 1].contains(&(i, j)), "({i}, {j}) at {l}");
            }
        }
    }
}

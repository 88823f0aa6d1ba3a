//! Algorithm 1: relational-semantics CFPQ by matrix transitive closure.
//!
//! §4.1 reduces the computation of the context-free relations
//! `R_A = {(n, m) | ∃ nπm, l(π) ∈ L(G_A)}` to the closure `a_cf` of the
//! matrix initialized from the graph's edges. Two executable forms live
//! here:
//!
//! 1. [`solve_set_matrix`] — the literal Algorithm 1 over
//!    [`SetMatrix`] (cells are subsets of `N`), with optional
//!    per-iteration snapshots used to replay Fig. 6–8;
//! 2. [`FixpointSolver`] — the Boolean decomposition (§3, after
//!    Valiant): one Boolean matrix `T_A` per nonterminal and, per
//!    sweep, `T_A |= T_B × T_C` for every `A → BC`. This is the form
//!    that maps onto BLAS-style kernels, and it is generic over
//!    [`BoolEngine`] so the paper's dGPU/sCPU/sGPU variants are just
//!    engine choices.
//!
//! # The sweep loop
//!
//! [`FixpointSolver`] is the Boolean front of the one masked semi-naive
//! sweep loop in `fixpoint.rs` (the module docs there describe a sweep):
//! it seeds `T_A` from the edges and hands over; the repair and the
//! optional ε-diagonal, written after the fixpoint, are shared too.
//! [`crate::single_path::SinglePathSolver`] runs the same loop over
//! witness lengths. Algorithm 1 as printed — full products
//! every sweep — is [`solve_set_matrix`], the oracle the property suites
//! compare the loop against. Per-sweep work counters come back in
//! [`RelationalIndex::stats`].
//!
//! # Incremental repair
//!
//! A closed [`RelationalIndex`] absorbs newly-discovered base facts
//! through [`FixpointSolver::resume`], which seeds the semi-naive Δ loop
//! with only the new entries: how a session repairs after `add_edges`.
//!
//! # Source-restricted evaluation
//!
//! Algorithm 1 computes `R_A` for every source node at once. A caller
//! that only asks about a few sources — a point lookup — can instead
//! grow a [`SourceClosure`]: a demand-driven fixpoint (magic sets in
//! matrix form) that solves the rows reachable from the requested
//! sources and nothing else, and that later requests extend rather than
//! restart. It is the same sweep loop run on another rule table: where
//! [`FixpointSolver`] hands `fixpoint.rs` the grammar's rules, a
//! [`SourceClosure`] hands it rules over row selectors, row selections
//! and the graph's label matrices, and tells it after each sweep which
//! rows the new entries demand.

use crate::fixpoint::{self, Boolean, Operand, Program};
use cfpq_grammar::{Nt, Term, Wcnf};
use cfpq_graph::Graph;
use cfpq_matrix::closure::squaring_closure;
use cfpq_matrix::{BoolEngine, BoolMat, SetMatrix};
use std::collections::BTreeMap;

/// Maps grammar terminals to graph labels by name: `term_of[label] =
/// Some(term)` if the graph label's name is also a grammar terminal.
/// Labels that the grammar never mentions are simply ignored by the
/// initialization (they cannot participate in any derivation).
pub fn label_terminal_map(graph: &Graph, grammar: &Wcnf) -> Vec<Option<Term>> {
    graph
        .labels()
        .map(|(_, name)| grammar.symbols.get_term(name))
        .collect()
}

/// Per-nonterminal edge pairs — the matrix initialization of Algorithm 1
/// lines 6–7: `A ∈ T[i][j]` for every edge `(i, x, j)` and rule `A → x`.
pub fn init_pairs(graph: &Graph, grammar: &Wcnf) -> Vec<Vec<(u32, u32)>> {
    let term_of = label_terminal_map(graph, grammar);
    let by_term = grammar.nts_by_terminal();
    let mut pairs: Vec<Vec<(u32, u32)>> = vec![Vec::new(); grammar.n_nts()];
    for e in graph.edges() {
        let Some(term) = term_of[e.label.index()] else {
            continue;
        };
        for &nt in &by_term[term.index()] {
            pairs[nt.index()].push((e.from, e.to));
        }
    }
    pairs
}

/// Kernel-work counters of one fixpoint run (what `reproduce --json`
/// reports per row).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Matrix products actually launched across all sweeps.
    pub products_computed: usize,
    /// Products a rule-by-rule semi-naive loop would have launched but
    /// this run avoided — by deduplicating shared `(B, C)` right-hand
    /// sides and by skipping kernels whose Δ operand was empty.
    pub products_skipped: usize,
    /// Total stored entries (`Σ_A nnz(T_A)`) after each sweep. The
    /// ε-diagonal is written after a run's last sweep, so no run counts
    /// the ε-cells it writes (a repair counts those written before it).
    pub sweep_nnz: Vec<usize>,
    /// Tile-pair kernels the blocked backends proved away during this
    /// run (empty counterpart tile-rows, fully-masked output tiles) —
    /// the engine's [`KernelCounters`](cfpq_matrix::KernelCounters)
    /// sampled before/after the run. Zero for the flat engines.
    pub tiles_skipped: u64,
    /// `nnz(T_A)` per nonterminal after the run's last sweep, before its
    /// ε-cells (indexed like the grammar's nonterminals).
    pub nt_nnz: Vec<usize>,
}

impl SolveStats {
    /// Adds a later run on the same matrices (a resume, an extension) to
    /// these cumulative counters; `nt_nnz` is replaced by the run's,
    /// unless the run found nothing to do and took none.
    pub(crate) fn absorb(&mut self, run: &SolveStats) {
        self.products_computed += run.products_computed;
        self.products_skipped += run.products_skipped;
        self.tiles_skipped += run.tiles_skipped;
        self.sweep_nnz.extend(run.sweep_nnz.iter().copied());
        if !run.nt_nnz.is_empty() {
            self.nt_nnz.clone_from(&run.nt_nnz);
        }
    }
}

/// A resume was handed a seed pair that names no cell of the closed
/// matrices ([`FixpointSolver::resume`],
/// [`crate::single_path::SinglePathSolver::resume`]); nothing was
/// written.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeedOutOfRange {
    /// The nonterminal whose pair list holds the cell.
    pub nt: Nt,
    /// The offending `(row, column)`.
    pub cell: (u32, u32),
    /// The matrices are `n × n`.
    pub n: usize,
}

impl std::fmt::Display for SeedOutOfRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Self { nt, cell, n } = self;
        write!(
            f,
            "seed {cell:?} of nonterminal #{} lies outside the {n}×{n} closure",
            nt.index()
        )
    }
}

impl std::error::Error for SeedOutOfRange {}

/// The result of a relational CFPQ evaluation: one Boolean matrix per
/// nonterminal, i.e. the decomposed transitive closure `a_cf`.
#[derive(Clone, Debug)]
pub struct RelationalIndex<M> {
    /// `matrices[A.index()]` holds `R_A` as a Boolean matrix.
    pub matrices: Vec<M>,
    /// Number of fixpoint iterations (outer `while matrix is changing`
    /// sweeps of Algorithm 1).
    pub iterations: usize,
    /// Graph size |V|.
    pub n_nodes: usize,
    /// Kernel-work counters of the run.
    pub stats: SolveStats,
}

impl<M: BoolMat> RelationalIndex<M> {
    /// True if `(i, j) ∈ R_A` (Theorem 2: `A ∈ a_cf[i][j]`).
    pub fn contains(&self, nt: Nt, i: u32, j: u32) -> bool {
        self.matrices[nt.index()].get(i, j)
    }

    /// `R_A` as sorted pairs.
    pub fn pairs(&self, nt: Nt) -> Vec<(u32, u32)> {
        self.matrices[nt.index()].pairs()
    }

    /// `|R_A|` — the `#results` column of Tables 1 and 2 for `A = S`.
    pub fn count(&self, nt: Nt) -> usize {
        self.matrices[nt.index()].nnz()
    }
}

/// Options of a solve ([`FixpointSolver::options`] and its siblings).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveOptions {
    /// Report `(A, m, m)` for every node `m` and every nullable `A`. The
    /// paper omits ε-rules because "only the empty paths mπm correspond
    /// to an empty string"; enabling this reports those empty-path
    /// matches, matching the semantics of parsers that keep ε (e.g. the
    /// GLL baseline).
    pub nullable_diagonal: bool,
}

/// The fixpoint pipeline: one engine-generic solver running masked
/// semi-naive sweeps (see the module docs).
///
/// ```
/// use cfpq_core::relational::FixpointSolver;
/// use cfpq_grammar::{cnf::CnfOptions, Cfg};
/// use cfpq_graph::generators;
/// use cfpq_matrix::SparseEngine;
///
/// let g = Cfg::parse("S -> a S b | a b").unwrap()
///     .to_wcnf(CnfOptions::default()).unwrap();
/// let s = g.symbols.get_nt("S").unwrap();
/// let graph = generators::word_chain(&["a", "a", "b", "b"]);
/// let idx = FixpointSolver::new(&SparseEngine).solve(&graph, &g);
/// assert_eq!(idx.pairs(s), vec![(0, 4), (1, 3)]);
/// ```
pub struct FixpointSolver<'e, E: BoolEngine> {
    engine: &'e E,
    options: SolveOptions,
}

impl<'e, E: BoolEngine> FixpointSolver<'e, E> {
    /// A solver on `engine` with default [`SolveOptions`].
    pub fn new(engine: &'e E) -> Self {
        Self {
            engine,
            options: SolveOptions::default(),
        }
    }

    /// Sets the solve options (the ε-diagonal).
    pub fn options(mut self, options: SolveOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs Algorithm 1's fixpoint to completion. Termination: entries
    /// only grow, bounded by `|V|²·|N|` (Theorem 3).
    ///
    /// This is the one-shot entry point: it decomposes the graph into
    /// the per-nonterminal seed matrices (lines 6–7) and hands them to
    /// [`FixpointSolver::solve_from_matrices`]. Callers that already own
    /// the decomposition — a `GraphIndex` serving many queries — skip
    /// straight to the latter.
    pub fn solve(&self, graph: &Graph, grammar: &Wcnf) -> RelationalIndex<E::Matrix> {
        let n = graph.n_nodes();
        let matrices: Vec<E::Matrix> = init_pairs(graph, grammar)
            .into_iter()
            .map(|pairs| self.engine.from_pairs(n, &pairs))
            .collect();
        self.solve_from_matrices(matrices, n, grammar)
    }

    /// Runs the fixpoint from pre-seeded per-nonterminal matrices
    /// (`matrices[A.index()]` holds the initialization of `T_A`: the
    /// graph's edges, nothing else), then writes the ε-diagonal if
    /// [`SolveOptions::nullable_diagonal`] asks for it. This is the
    /// service entry point the session layer uses: the graph→matrix
    /// decomposition lives in the `GraphIndex`, the fixpoint is just a
    /// function of the seeds.
    pub fn solve_from_matrices(
        &self,
        mut matrices: Vec<E::Matrix>,
        n: usize,
        grammar: &Wcnf,
    ) -> RelationalIndex<E::Matrix> {
        let algebra = Boolean(self.engine);
        let stats = fixpoint::solve(&algebra, &mut matrices, grammar, self.options, n);
        RelationalIndex {
            matrices,
            iterations: stats.sweep_nnz.len(),
            n_nodes: n,
            stats,
        }
    }

    /// Incrementally folds newly-discovered base facts into an already
    /// closed index: `new_pairs[A.index()]` are candidate additions to
    /// `T_A` (typically the seeds arising from freshly inserted graph
    /// edges). Entries already present in the closure are filtered out;
    /// the rest seed the semi-naive Δ loop, so the fixpoint is repaired
    /// by multiplying **only the new information** instead of re-solving
    /// from scratch — the distribution property behind semi-naive
    /// evaluation guarantees the same least fixpoint.
    ///
    /// Returns the [`SolveStats`] of the resume portion alone; the
    /// index's cumulative `stats` and `iterations` are also advanced. A
    /// pair outside the index's matrices is a [`SeedOutOfRange`] error
    /// and leaves the index as it was.
    pub fn resume(
        &self,
        index: &mut RelationalIndex<E::Matrix>,
        grammar: &Wcnf,
        new_pairs: &[Vec<(u32, u32)>],
    ) -> Result<SolveStats, SeedOutOfRange> {
        let (algebra, n) = (Boolean(self.engine), index.n_nodes);
        fixpoint::repair(&algebra, index, grammar, self.options, n, new_pairs)
    }
}

impl<M> fixpoint::Closed for RelationalIndex<M> {
    type Matrix = M;

    fn parts(&mut self) -> (&mut [M], &mut usize, &mut usize, &mut SolveStats) {
        (
            &mut self.matrices,
            &mut self.n_nodes,
            &mut self.iterations,
            &mut self.stats,
        )
    }
}

/// A demand-driven partial closure: the rows of the context-free
/// relations that a set of source nodes needs, and no others.
///
/// Per nonterminal `A` it keeps a demanded-row set `D_A` and a matrix
/// `T_A` in which exactly the rows of `D_A` are filled in. Asking for
/// sources puts them into `D_S`; from there, for every rule `A → B C`,
///
/// * `D_B ⊇ D_A` — a row of `A` starts with a row of `B`,
/// * `D_C ⊇ cols(T_B|D_A)` — and continues from wherever `B` arrives,
/// * `T_A ∪= T_B|D_A × T_C`,
///
/// and a demanded row of `A → x` is seeded with that row of the label
/// matrix of `x` (plus its diagonal cell when the query keeps ε). All
/// three kinds of fact are semi-naive — a newly demanded row is Δ like a
/// newly derived entry — and all but the column projection are Boolean
/// products: `D_A` lives as a diagonal selector matrix, so seeding is
/// `T_A ⊇ D_A × L_x`, row selection is `T_B|D_A ⊇ D_A × T_B`, derivation
/// is `T_A ⊇ T_B|D_A × T_C`. That rule table, written once in
/// [`SourceClosure::new`], is what [`SourceClosure::extend`] hands the
/// sweep loop of `fixpoint.rs` — the loop the all-pairs solvers run on
/// the grammar's own rules — with the label matrices as constants; the
/// loop batches, masks and skips as it does there. After each sweep the
/// closure reads the columns the new selections arrive at and demands
/// the rows that follow; a Δ with more entries than columns is projected
/// by one more product, `1ᵀ × Δ`. Every product, that one included, is
/// counted in [`SolveStats::products_computed`].
///
/// A nonterminal with terminal rules only (the `A → x` wrappers weak
/// CNF introduces, in a compiled query too) needs no
/// fixpoint: its relation *is* the union of its label matrices, so
/// wherever it is an operand the label matrices stand in for it and it
/// is never demanded, seeded or stored.
///
/// At rest, row `i ∈ D_A` of `T_A` equals row `i` of the all-pairs
/// `R_A`, and rows outside `D_A` are empty. `D_S` holds the requested
/// sources and whatever rows of `S` they turned out to need, so the
/// all-pairs answer filtered to the requested sources is
/// [`SourceClosure::pairs`] of the start nonterminal filtered likewise.
/// [`SourceClosure::extend`] with further sources keeps everything
/// solved so far. The work is proportional to what is reachable from
/// the sources: on a graph of disjoint blocks a lookup stays inside its
/// block, on one connected ontology demand spreads and the closure
/// approaches the all-pairs one at a higher constant.
#[derive(Clone, Debug)]
pub struct SourceClosure<M> {
    /// Every matrix the fixpoint closes, in the one vector the sweep
    /// loop takes. At `A`: `T_A`, filled in on the rows of `D_A` only.
    /// At `n_nts + A`: `D_A` as a diagonal selector, `(i, i)` set iff row
    /// `i` of `A` is demanded. At `2·n_nts + g`, one per distinct
    /// `(A, B)` among the rules `A → B C`: `T_B|D_A`, the rows of `B`
    /// that some row of `A` starts with.
    vars: Vec<M>,
    /// The rules of the list above over `vars`, with the label matrices
    /// of nonterminal `A` as constant `A`.
    program: Program,
    /// `roots`: the start and every nonterminal reachable from it
    /// through left children — a row demanded of `A` is demanded of all
    /// of them (label-only nonterminals left out: they are never
    /// demanded). `follows[g]`: the same for every `C` of the rules
    /// `A → B C` behind selection `g`.
    roots: Vec<usize>,
    follows: Vec<Vec<usize>>,
    /// Nonterminals whose demanded rows hold their diagonal cell (the
    /// nullable ones, under [`SolveOptions::nullable_diagonal`]).
    diagonal: Vec<bool>,
    n_nodes: usize,
    stats: SolveStats,
}

impl<M: BoolMat> SourceClosure<M> {
    /// An empty closure for `grammar` over `n` nodes: nothing demanded,
    /// nothing solved, no product launched.
    pub fn new<E: BoolEngine<Matrix = M>>(
        engine: &E,
        n: usize,
        grammar: &Wcnf,
        options: SolveOptions,
    ) -> Self {
        let n_nts = grammar.n_nts();
        let mut by_left: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
        for rule in &grammar.binary_rules {
            let rights = by_left
                .entry((rule.lhs.index(), rule.left.index()))
                .or_default();
            if !rights.contains(&rule.right.index()) {
                rights.push(rule.right.index());
            }
        }
        let mut diagonal = vec![false; n_nts];
        if options.nullable_diagonal {
            for nt in &grammar.nullable {
                diagonal[nt.index()] = true;
            }
        }
        // Read straight off their label matrices: terminal rules only,
        // no diagonal, not the start.
        let mut label_only: Vec<bool> = diagonal.iter().map(|d| !d).collect();
        label_only[grammar.start.index()] = false;
        for &(a, _) in by_left.keys() {
            label_only[a] = false;
        }
        // Constant `A` is the label matrices of the rules `A → x`.
        // Nonterminals with the same terminal rules name the same
        // matrices, so they go by the first one's constant and rules over
        // the same labels share their products.
        let mut terms: Vec<Vec<Term>> = vec![Vec::new(); n_nts];
        for rule in &grammar.term_rules {
            terms[rule.lhs.index()].push(rule.term);
        }
        let labels = |a: usize| {
            let first = terms.iter().position(|t| *t == terms[a]);
            Operand::Const(first.expect("a nonterminal has its own terminal rules"))
        };
        let relation = |c: usize| match label_only[c] {
            true => labels(c),
            false => Operand::Var(c),
        };
        let demand = |a: usize| Operand::Var(n_nts + a);
        // `T_A ⊇ D_A × L_x` seeds a demanded row, `T_B|D_A ⊇ D_A × T_B`
        // selects, `T_A ⊇ T_B|D_A × T_C` derives.
        let mut rules: Vec<(usize, Operand, Operand)> = (0..n_nts)
            .filter(|&a| !label_only[a])
            .map(|a| (a, demand(a), labels(a)))
            .collect();
        let mut heirs: Vec<Vec<usize>> = (0..n_nts)
            .map(|a| if label_only[a] { vec![] } else { vec![a] })
            .collect();
        for (g, (&(a, b), rights)) in by_left.iter().enumerate() {
            let selection = 2 * n_nts + g;
            rules.push((selection, demand(a), relation(b)));
            let derived = rights.iter();
            rules.extend(derived.map(|&c| (a, Operand::Var(selection), relation(c))));
            if !label_only[b] {
                heirs[a].push(b);
            }
        }
        // Transitive closure of the left-child edges collected above.
        for a in 0..n_nts {
            let mut next = 0;
            while next < heirs[a].len() {
                let b = heirs[a][next];
                next += 1;
                if b != a {
                    for h in heirs[b].clone() {
                        if !heirs[a].contains(&h) {
                            heirs[a].push(h);
                        }
                    }
                }
            }
        }
        let follows = by_left
            .values()
            .map(|rights| {
                let mut woken: Vec<usize> =
                    rights.iter().flat_map(|&c| &heirs[c]).copied().collect();
                woken.sort_unstable();
                woken.dedup();
                woken
            })
            .collect();
        Self {
            vars: (0..2 * n_nts + by_left.len())
                .map(|_| engine.zeros(n))
                .collect(),
            program: Program::new(n_nts, rules),
            roots: std::mem::take(&mut heirs[grammar.start.index()]),
            follows,
            diagonal,
            n_nodes: n,
            stats: SolveStats::default(),
        }
    }

    /// Demands the rows `sources` of the start nonterminal and runs the
    /// restricted fixpoint until neither demanded rows nor entries grow.
    /// `terminals[A.index()]` lists the label matrices of the terminals
    /// `x` with a rule `A → x`. Ids `≥ n_nodes` name no node and are
    /// ignored; sources already demanded cost nothing (no product is
    /// launched when all are). Everything solved by earlier calls is
    /// kept. Returns the [`SolveStats`] of this call alone; the closure's
    /// cumulative [`SourceClosure::stats`] advance too.
    ///
    /// `engine`, the node count and `terminals` must be those of the
    /// graph the closure was created for: a partial closure has no
    /// repair path, it is dropped when the graph changes.
    pub fn extend<E: BoolEngine<Matrix = M>>(
        &mut self,
        engine: &E,
        terminals: &[Vec<&M>],
        sources: &[u32],
    ) -> SolveStats {
        let mut sp = cfpq_obs::span("solve");
        let n_nts = self.diagonal.len();
        assert_eq!(terminals.len(), n_nts, "one terminal list per nonterminal");
        let in_range: Vec<u32> = sources
            .iter()
            .copied()
            .filter(|&i| (i as usize) < self.n_nodes)
            .collect();
        // `wanted[A]` as cells of `D_A`, and of `T_A` where a demanded row
        // holds its diagonal cell. The loop keeps the new ones: a newly
        // demanded row is Δ like a newly derived entry.
        let n_vars = self.vars.len();
        let demanding = |wanted: Vec<Vec<u32>>| {
            let mut cells: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_vars];
            for (a, rows) in wanted.into_iter().enumerate() {
                let selector: Vec<(u32, u32)> = rows.into_iter().map(|i| (i, i)).collect();
                if self.diagonal[a] {
                    cells[a].clone_from(&selector);
                }
                cells[n_nts + a] = selector;
            }
            cells
        };
        let mut wanted: Vec<Vec<u32>> = vec![Vec::new(); n_nts];
        for &a in &self.roots {
            wanted[a].clone_from(&in_range);
        }
        let requested = demanding(wanted);
        // Wherever a selected row of `B` newly arrives, every `C` that
        // can follow it is demanded there.
        let mut ones_row: Option<M> = None;
        let arrivals = |delta: &[Option<M>], stats: &mut SolveStats| {
            let mut wanted: Vec<Vec<u32>> = vec![Vec::new(); n_nts];
            for (selected, woken) in delta[2 * n_nts..].iter().zip(&self.follows) {
                let Some(selected) = selected else { continue };
                let columns: Vec<u32> = if selected.nnz() <= self.n_nodes {
                    let mut cols: Vec<u32> = selected.pairs().into_iter().map(|(_, j)| j).collect();
                    cols.sort_unstable();
                    cols.dedup();
                    cols
                } else {
                    // More entries than columns: let a product fold them,
                    // `1ᵀ × Δ` has the column support in its one row.
                    let ones = ones_row.get_or_insert_with(|| {
                        let cells: Vec<(u32, u32)> =
                            (0..self.n_nodes as u32).map(|j| (0, j)).collect();
                        engine.from_pairs(self.n_nodes, &cells)
                    });
                    stats.products_computed += 1;
                    let support = engine.multiply(ones, selected);
                    support.pairs().into_iter().map(|(_, j)| j).collect()
                };
                for &h in woken {
                    wanted[h].extend_from_slice(&columns);
                }
            }
            demanding(wanted)
        };
        let stats = fixpoint::run(
            &Boolean(engine),
            &mut self.vars,
            &self.program,
            terminals,
            Some(&requested),
            arrivals,
        );
        self.stats.absorb(&stats);
        if sp.is_recording() {
            sp.attr_str("mode", "sources");
            sp.attr_u64("sources", in_range.len() as u64);
            sp.attr_u64("rows_demanded", self.rows_demanded() as u64);
            sp.attr_u64("sweeps", stats.sweep_nnz.len() as u64);
            sp.attr_u64("products", stats.products_computed as u64);
        }
        stats
    }

    /// True if `(i, j) ∈ R_A` as far as this closure has solved it:
    /// exact when row `i` of `A` is demanded ([`SourceClosure::demanded`]),
    /// `false` otherwise — as for ids the graph does not have.
    pub fn contains(&self, nt: Nt, i: u32, j: u32) -> bool {
        self.vars[nt.index()].get(i, j)
    }

    /// The solved part of `R_A` as sorted pairs: its demanded rows.
    pub fn pairs(&self, nt: Nt) -> Vec<(u32, u32)> {
        self.vars[nt.index()].pairs()
    }

    /// `D_A` of every nonterminal `A`, in index order.
    fn selectors(&self) -> &[M] {
        let n_nts = self.diagonal.len();
        &self.vars[n_nts..2 * n_nts]
    }

    /// The demanded rows of `A`, ascending.
    pub fn demanded(&self, nt: Nt) -> Vec<u32> {
        let cells = self.selectors()[nt.index()].pairs();
        cells.into_iter().map(|(i, _)| i).collect()
    }

    /// `Σ_A |D_A|` — how much of the closure the sources asked for so
    /// far drew in.
    pub fn rows_demanded(&self) -> usize {
        self.selectors().iter().map(BoolMat::nnz).sum()
    }

    /// Graph size `|V|`.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Sweeps run so far, over all calls.
    pub fn sweeps(&self) -> usize {
        self.stats.sweep_nnz.len()
    }

    /// Kernel-work counters so far, over all calls.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }
}

/// Result of the paper-literal set-matrix run (used for the Fig. 6–8
/// replay and as the reference implementation).
#[derive(Clone, Debug)]
pub struct SetMatrixResult {
    /// The closed matrix `T = a_cf`.
    pub matrix: SetMatrix,
    /// Outer iterations until `T_k = T_{k-1}` (§4.3 reports k = 6 for the
    /// worked example).
    pub iterations: usize,
    /// `T_0, T_1, …` if snapshots were requested.
    pub snapshots: Vec<SetMatrix>,
}

impl SetMatrixResult {
    /// `R_A` as sorted pairs, read off the closed set matrix.
    pub fn pairs(&self, nt: Nt) -> Vec<(u32, u32)> {
        let n = self.matrix.n() as u32;
        let mut out = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if self.matrix.contains(i, j, nt) {
                    out.push((i, j));
                }
            }
        }
        out
    }
}

/// Runs Algorithm 1 literally: a single matrix over nonterminal sets,
/// closed by `T ← T ∪ (T × T)`.
pub fn solve_set_matrix(graph: &Graph, grammar: &Wcnf, keep_snapshots: bool) -> SetMatrixResult {
    let n = graph.n_nodes();
    let mut t = SetMatrix::empty(n, grammar.n_nts());
    for (nt_index, pairs) in init_pairs(graph, grammar).into_iter().enumerate() {
        for (i, j) in pairs {
            t.insert(i, j, Nt(nt_index as u32));
        }
    }
    let closure = squaring_closure(&t, &grammar.binary_rules, keep_snapshots);
    SetMatrixResult {
        matrix: closure.matrix,
        iterations: closure.iterations,
        snapshots: closure.snapshots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpq_grammar::cnf::CnfOptions;
    use cfpq_grammar::queries;
    use cfpq_grammar::Cfg;
    use cfpq_graph::generators;
    use cfpq_matrix::{
        DenseEngine, Device, ParDenseEngine, ParSparseEngine, SparseEngine, TiledEngine,
    };

    fn wcnf(src: &str) -> Wcnf {
        Cfg::parse(src)
            .unwrap()
            .to_wcnf(CnfOptions::default())
            .unwrap()
    }

    #[test]
    fn anbn_on_chain() {
        let g = wcnf("S -> a S b | a b");
        let s = g.symbols.get_nt("S").unwrap();
        let graph = generators::word_chain(&["a", "a", "b", "b"]);
        let idx = FixpointSolver::new(&DenseEngine).solve(&graph, &g);
        assert_eq!(idx.pairs(s), vec![(0, 4), (1, 3)]);
    }

    #[test]
    fn two_cycles_full_relation() {
        // Classic worst case: |a-cycle| = 2, |b-cycle| = 3 with
        // S -> a S b | a b yields a dense S-relation over the a-cycle ×
        // b-cycle node sets (all words a^(2i) b^(3j)-aligned combine).
        let g = wcnf("S -> a S b | a b");
        let s = g.symbols.get_nt("S").unwrap();
        let graph = generators::two_cycles(2, 3);
        let idx = FixpointSolver::new(&SparseEngine).solve(&graph, &g);
        // Well-known result: |R_S| > 0 and includes (0, 0).
        assert!(idx.contains(s, 0, 0));
        // Every pair must start in the a-cycle {0,1} and end in the
        // b-cycle {0,2,3}.
        for (i, j) in idx.pairs(s) {
            assert!(i <= 1, "source in a-cycle, got {i}");
            assert!(j == 0 || j >= 2, "target in b-cycle, got {j}");
        }
    }

    #[test]
    fn all_engines_agree_with_the_set_matrix_oracle() {
        let g = wcnf("S -> a S b | a b | S S");
        let graph = generators::two_cycles(3, 4);
        let oracle = solve_set_matrix(&graph, &g, false);
        let dense = FixpointSolver::new(&DenseEngine).solve(&graph, &g);
        let sparse = FixpointSolver::new(&SparseEngine).solve(&graph, &g);
        let dpar = FixpointSolver::new(&ParDenseEngine::new(Device::new(3))).solve(&graph, &g);
        let spar = FixpointSolver::new(&ParSparseEngine::new(Device::new(2))).solve(&graph, &g);
        let tiled = FixpointSolver::new(&TiledEngine::new(Device::new(2))).solve(&graph, &g);
        for nt in 0..g.n_nts() {
            let nt = Nt(nt as u32);
            let expect = oracle.pairs(nt);
            assert_eq!(dense.pairs(nt), expect, "dense");
            assert_eq!(sparse.pairs(nt), expect, "sparse");
            assert_eq!(dpar.pairs(nt), expect, "dense-par");
            assert_eq!(spar.pairs(nt), expect, "sparse-par");
            assert_eq!(tiled.pairs(nt), expect, "tiled");
        }
    }

    #[test]
    fn solve_from_matrices_equals_solve() {
        let g = wcnf("S -> a S b | a b | S S");
        let graph = generators::two_cycles(3, 4);
        let reference = FixpointSolver::new(&SparseEngine).solve(&graph, &g);
        let seeds: Vec<_> = init_pairs(&graph, &g)
            .into_iter()
            .map(|pairs| SparseEngine.from_pairs(graph.n_nodes(), &pairs))
            .collect();
        let via_seeds =
            FixpointSolver::new(&SparseEngine).solve_from_matrices(seeds, graph.n_nodes(), &g);
        for nt in 0..g.n_nts() {
            let nt = Nt(nt as u32);
            assert_eq!(reference.pairs(nt), via_seeds.pairs(nt));
        }
        assert_eq!(reference.iterations, via_seeds.iterations);
        assert_eq!(reference.stats, via_seeds.stats);
    }

    #[test]
    fn resume_repairs_closure_after_new_edges() {
        // Solve a^n b^n on a truncated chain, then feed the final edge in
        // through resume: the repaired index must equal a from-scratch
        // solve on the full chain, with strictly less resume work.
        let g = wcnf("S -> a S b | a b");
        let full_graph = generators::word_chain(&["a", "a", "b", "b"]);
        let mut partial = cfpq_graph::Graph::new(5);
        for e in full_graph.edges().iter().take(3) {
            partial.add_edge_named(e.from, full_graph.label_name(e.label), e.to);
        }
        let solver = FixpointSolver::new(&SparseEngine);
        let mut idx = solver.solve(&partial, &g);
        let cold = solver.solve(&full_graph, &g);

        // The last edge (3, b, 4) seeds every nonterminal with a b-rule.
        let b_term = g.symbols.get_term("b").unwrap();
        let mut new_pairs = vec![Vec::new(); g.n_nts()];
        for nt in &g.nts_by_terminal()[b_term.index()] {
            new_pairs[nt.index()].push((3, 4));
        }
        let resume_stats = solver.resume(&mut idx, &g, &new_pairs).unwrap();
        for nt in 0..g.n_nts() {
            let nt = Nt(nt as u32);
            assert_eq!(idx.pairs(nt), cold.pairs(nt), "repaired == from-scratch");
        }
        assert!(
            resume_stats.products_computed < cold.stats.products_computed,
            "resume {} vs cold {}",
            resume_stats.products_computed,
            cold.stats.products_computed
        );
        // Cumulative counters advanced by exactly the resume portion.
        assert!(idx.stats.products_computed >= resume_stats.products_computed);
    }

    #[test]
    fn resume_with_known_pairs_is_a_noop() {
        let g = wcnf("S -> a S b | a b");
        let graph = generators::word_chain(&["a", "a", "b", "b"]);
        let solver = FixpointSolver::new(&DenseEngine);
        let mut idx = solver.solve(&graph, &g);
        let before_iterations = idx.iterations;
        let before = idx.stats.clone();
        // Re-announce an edge the closure already accounts for.
        let a_term = g.symbols.get_term("a").unwrap();
        let mut new_pairs = vec![Vec::new(); g.n_nts()];
        for nt in &g.nts_by_terminal()[a_term.index()] {
            new_pairs[nt.index()].push((0, 1));
        }
        let stats = solver.resume(&mut idx, &g, &new_pairs).unwrap();
        assert_eq!(stats, SolveStats::default(), "no new facts, no sweeps");
        assert_eq!(idx.iterations, before_iterations);
        assert_eq!(idx.stats, before);
    }

    #[test]
    fn resume_refuses_a_seed_outside_the_universe() {
        let g = wcnf("S -> a S b | a b");
        let s = g.symbols.get_nt("S").unwrap();
        let graph = generators::word_chain(&["a", "a", "b", "b"]);
        let solver = FixpointSolver::new(&SparseEngine);
        let mut idx = solver.solve(&graph, &g);
        let before = (idx.pairs(s), idx.iterations, idx.stats.clone());
        // In range for the first nonterminal, then column 5 of a 5×5.
        let mut new_pairs = vec![vec![(0, 1)]; g.n_nts()];
        new_pairs[s.index()] = vec![(4, 4), (3, 5)];
        assert_eq!(
            solver.resume(&mut idx, &g, &new_pairs),
            Err(SeedOutOfRange {
                nt: s,
                cell: (3, 5),
                n: 5
            })
        );
        assert_eq!((idx.pairs(s), idx.iterations, idx.stats.clone()), before);
        assert!(!idx.contains(s, 4, 4), "nothing before the bad pair either");
    }

    #[test]
    fn shared_pairs_and_empty_deltas_are_skipped() {
        // The paper's evaluation shape: an ontology-style query grammar
        // (Q1 has 6 binary rules sharing RHS pairs) over the small skos
        // dataset. `products_skipped` counts what a rule-by-rule
        // semi-naive loop (two products per rule per sweep) would have
        // launched on top of what this run did.
        let g = cfpq_grammar::queries::query1()
            .to_wcnf(CnfOptions::default())
            .unwrap();
        let suite = cfpq_graph::ontology::evaluation_suite();
        let graph = &suite.iter().find(|d| d.name == "skos").unwrap().graph;
        let oracle = solve_set_matrix(graph, &g, false);
        let idx = FixpointSolver::new(&SparseEngine).solve(graph, &g);
        assert_eq!(idx.pairs(g.start), oracle.pairs(g.start));
        assert!(idx.stats.products_skipped > 0, "dedup/empty-Δ skips");
        assert_eq!(
            idx.stats.products_computed + idx.stats.products_skipped,
            2 * g.binary_rules.len() * idx.iterations
        );
        // The final sweep_nnz data point is the fixpoint size.
        assert_eq!(
            idx.stats.sweep_nnz.last().copied(),
            Some(idx.stats.nt_nnz.iter().sum::<usize>())
        );
    }

    #[test]
    fn set_matrix_agrees_with_boolean_decomposition() {
        let g = wcnf("S -> a S b | a b");
        let graph = generators::two_cycles(2, 3);
        let boolean = FixpointSolver::new(&DenseEngine).solve(&graph, &g);
        let set = solve_set_matrix(&graph, &g, false);
        for nt in 0..g.n_nts() {
            let nt = Nt(nt as u32);
            assert_eq!(boolean.pairs(nt), set.pairs(nt));
        }
    }

    #[test]
    fn labels_not_in_grammar_are_ignored() {
        let g = wcnf("S -> a");
        let mut graph = generators::chain(1, "a");
        graph.add_edge_named(0, "unrelated", 1);
        let idx = FixpointSolver::new(&DenseEngine).solve(&graph, &g);
        let s = g.symbols.get_nt("S").unwrap();
        assert_eq!(idx.pairs(s), vec![(0, 1)]);
    }

    #[test]
    fn empty_graph_and_empty_answer() {
        let g = wcnf("S -> a b");
        let graph = cfpq_graph::Graph::new(4);
        let idx = FixpointSolver::new(&SparseEngine).solve(&graph, &g);
        let s = g.symbols.get_nt("S").unwrap();
        assert!(idx.pairs(s).is_empty());
        assert_eq!(idx.iterations, 1);
    }

    #[test]
    fn paper_example_final_relations() {
        // Fig. 9: the context-free relations of the worked example.
        let g = queries::fig4_normal_form()
            .to_wcnf(CnfOptions::default())
            .unwrap();
        let graph = generators::paper_example();
        let idx = FixpointSolver::new(&DenseEngine).solve(&graph, &g);
        let nt = |name: &str| g.symbols.get_nt(name).unwrap();
        assert_eq!(idx.pairs(nt("S")), vec![(0, 0), (0, 2), (1, 2)]);
        assert_eq!(idx.pairs(nt("S1")), vec![(0, 0)]);
        assert_eq!(idx.pairs(nt("S2")), vec![(2, 0)]);
        assert_eq!(idx.pairs(nt("S3")), vec![(0, 1), (1, 2)]);
        assert_eq!(idx.pairs(nt("S4")), vec![(2, 2)]);
        assert_eq!(idx.pairs(nt("S5")), vec![(0, 0), (1, 0)]);
        assert_eq!(idx.pairs(nt("S6")), vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn query1_on_paper_example_via_cnf_pipeline() {
        // The automatically-normalized Q1 grammar must give the same R_S
        // as the hand-normalized Fig. 4 grammar (L(G_S) = L(G'_S), §4.3).
        let g = queries::query1().to_wcnf(CnfOptions::default()).unwrap();
        let graph = generators::paper_example();
        let idx = FixpointSolver::new(&DenseEngine).solve(&graph, &g);
        let s = g.symbols.get_nt("S").unwrap();
        assert_eq!(idx.pairs(s), vec![(0, 0), (0, 2), (1, 2)]);
    }
}

#[cfg(test)]
mod nullable_tests {
    use super::*;
    use cfpq_grammar::cnf::CnfOptions;
    use cfpq_grammar::Cfg;
    use cfpq_graph::generators;
    use cfpq_matrix::SparseEngine;

    #[test]
    fn nullable_diagonal_reports_empty_paths() {
        let g = Cfg::parse("S -> a S | eps")
            .unwrap()
            .to_wcnf(CnfOptions::default())
            .unwrap();
        let s = g.symbols.get_nt("S").unwrap();
        let graph = generators::chain(2, "a");
        let without = FixpointSolver::new(&SparseEngine).solve(&graph, &g);
        assert_eq!(without.pairs(s), vec![(0, 1), (0, 2), (1, 2)]);
        let with = FixpointSolver::new(&SparseEngine)
            .options(SolveOptions {
                nullable_diagonal: true,
            })
            .solve(&graph, &g);
        assert_eq!(
            with.pairs(s),
            vec![(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
        );
    }

    #[test]
    fn nullable_diagonal_matches_gll_semantics() {
        // GLL keeps ε-rules natively; the diagonal option makes the
        // matrix solver agree with it on nullable grammars.
        let cfg = Cfg::parse("S -> a S b | eps").unwrap();
        let wcnf = cfg.to_wcnf(CnfOptions::default()).unwrap();
        let graph = generators::two_cycles(2, 3);
        let with = FixpointSolver::new(&SparseEngine)
            .options(SolveOptions {
                nullable_diagonal: true,
            })
            .solve(&graph, &wcnf);
        // Reference semantics computed directly: all pairs related by
        // a^n b^n for n >= 0 (n = 0 gives the diagonal).
        let s = wcnf.symbols.get_nt("S").unwrap();
        let pairs = with.pairs(s);
        for m in 0..graph.n_nodes() as u32 {
            assert!(pairs.contains(&(m, m)), "diagonal ({m},{m})");
        }
        // Non-diagonal part must equal the epsilon-free relation.
        let without = FixpointSolver::new(&SparseEngine).solve(&graph, &wcnf);
        let non_diag: Vec<(u32, u32)> = pairs.iter().copied().filter(|(i, j)| i != j).collect();
        let expect: Vec<(u32, u32)> = without
            .pairs(s)
            .into_iter()
            .filter(|(i, j)| i != j)
            .collect();
        assert_eq!(non_diag, expect);
    }

    #[test]
    fn non_nullable_grammar_is_unaffected_by_option() {
        let g = Cfg::parse("S -> a b")
            .unwrap()
            .to_wcnf(CnfOptions::default())
            .unwrap();
        let s = g.symbols.get_nt("S").unwrap();
        let graph = generators::word_chain(&["a", "b"]);
        let with = FixpointSolver::new(&SparseEngine)
            .options(SolveOptions {
                nullable_diagonal: true,
            })
            .solve(&graph, &g);
        assert_eq!(with.pairs(s), vec![(0, 2)]);
    }
}

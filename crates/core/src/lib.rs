//! # cfpq-core
//!
//! The primary contribution of Azimov & Grigorev (EDBT 2018): context-free
//! path query evaluation by matrix multiplication.
//!
//! * [`relational`] — **Algorithm 1**: relational-semantics CFPQ reduced
//!   to the transitive closure `a_cf`, decomposed into per-nonterminal
//!   Boolean matrices and executed on any [`cfpq_matrix::BoolEngine`]
//!   backend (dense/sparse × serial/device-parallel, tiled), plus the
//!   paper-literal set-matrix solver with per-iteration snapshots
//!   (Fig. 6–8).
//! * [`single_path`] — §5: the length-annotated closure on the
//!   [`cfpq_matrix::LenEngine`] kernels (engine generic, with the naive
//!   flat-table oracle kept for cross-checking) and witness-path
//!   extraction (Theorem 5 machinery). Both closures run the one masked
//!   semi-naive sweep loop of the crate-private `fixpoint` module, at
//!   the Boolean and at the first-write-wins length algebra.
//! * [`all_paths`] — bounded all-path enumeration, the §7 future-work
//!   semantics, built on top of the relational index.
//! * [`conjunctive`] — the §7 conjecture: Algorithm 1 "trivially
//!   generalized" to conjunctive grammars, computing an upper
//!   approximation of conjunctive reachability.
//! * [`compile`] — the unified compiled-query layer: NFA-form RPQs and
//!   CFGs both lower through RSM boxes ([`cfpq_grammar::rsm`]) into a
//!   weak-CNF state grammar the [`relational`] fixpoint evaluates
//!   unchanged (the "one algorithm to evaluate them all" reduction).
//! * [`regular`] — the [`regular::Nfa`] query form (§3's baseline
//!   formalism) and the hand-rolled product-graph evaluator
//!   [`regular::solve_regular`], kept purely as a differential oracle
//!   for the compiled pipeline.
//! * [`session`] — the engine layer for serving many queries over one
//!   evolving graph: a persistent [`session::GraphIndex`] of per-label
//!   adjacency matrices, [`session::PreparedQuery`] caching the CNF
//!   normalization, and [`session::CfpqSession`] with incremental
//!   `add_edges` repair via the semi-naive Δ loop.
//! * [`query`] — the high-level API tying grammars, graphs and backends
//!   together ([`query::solve`], [`query::Backend`]); each matrix
//!   backend is a one-shot session.

pub mod all_paths;
pub mod compile;
pub mod conjunctive;
mod fixpoint;
mod index;
pub mod query;
pub mod regular;
pub mod relational;
pub mod session;
pub mod single_path;
mod state;

pub use compile::{CompiledQuery, QueryKind};
pub use query::{solve, Backend, QueryAnswer};
pub use regular::{solve_regular, Nfa};
pub use relational::{solve_set_matrix, FixpointSolver, RelationalIndex, SolveStats};
pub use session::{
    CfpqSession, EdgeBatch, GraphIndex, GraphState, PreparedQuery, QueryId, RunInfo, SinglePathId,
};
pub use single_path::{solve_single_path_oracle, SinglePathIndex, SinglePathSolver};

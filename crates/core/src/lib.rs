//! # cfpq-core
//!
//! The primary contribution of Azimov & Grigorev (EDBT 2018): context-free
//! path query evaluation by matrix multiplication.
//!
//! * [`relational`] — **Algorithm 1**: the relational semantics as the
//!   closure `a_cf`, one Boolean matrix per nonterminal on any
//!   [`cfpq_matrix::BoolEngine`], and the paper-literal set-matrix
//!   solver with per-iteration snapshots (Fig. 6–8).
//! * [`single_path`] — §5: the length-annotated closure on the
//!   [`cfpq_matrix::LenEngine`] kernels, and witness extraction
//!   (Theorem 5). Both closures run the one masked semi-naive sweep loop
//!   of the crate-private `fixpoint` module.
//! * [`all_paths`] — bounded all-path enumeration, the §7 future-work
//!   semantics.
//! * [`conjunctive`] — the §7 conjecture: Algorithm 1 over conjunctive
//!   grammars, an upper approximation of conjunctive reachability.
//! * [`compile`] — NFA-form RPQs and CFGs lowered through RSM boxes
//!   ([`cfpq_grammar::rsm`]) into weak-CNF grammars the [`relational`]
//!   fixpoint evaluates unchanged.
//! * [`regular`] — the [`regular::Nfa`] query form and
//!   [`regular::solve_regular`], a differential oracle for [`compile`].
//! * [`session`] — many queries over one evolving graph: a persistent
//!   [`session::GraphIndex`], [`session::PreparedQuery`]s, and
//!   [`session::CfpqSession`], which repairs its cached closures after
//!   `add_edges`.
//! * [`query`] — the one-shot API ([`query::solve`], [`query::Backend`]);
//!   each matrix backend is a single-use session.

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

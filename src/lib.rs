//! # cfpq
//!
//! A from-scratch Rust reproduction of **Azimov & Grigorev, "Context-Free
//! Path Querying by Matrix Multiplication" (EDBT 2018)** — evaluation of
//! context-free path queries over edge-labeled graphs by reducing them to
//! matrix transitive closure.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`grammar`] — CFGs, the grammar DSL, CNF normalization, CYK;
//! * [`graph`] — edge-labeled digraphs, triple loading, dataset
//!   generators;
//! * [`matrix`] — Boolean/set-valued matrix kernels and the parallel
//!   device;
//! * [`core`] — Algorithm 1 (relational semantics), single-path
//!   semantics, all-path enumeration, conjunctive extension, and the
//!   unified compiled-query pipeline lowering NFA-form RPQs and CFGs
//!   onto the same fixpoint solver;
//! * [`service`] — the concurrent query service: snapshot-isolated
//!   epochs over a shared [`core::session::GraphIndex`], a multi-queue
//!   scheduler batching requests per grammar, shared closure caching
//!   with incremental epoch repair, and a typed failure contract
//!   (panic isolation, deadlines, backpressure) with a deterministic
//!   fault-injection harness in [`service::faults`];
//! * [`baselines`] — Hellings' algorithm, GLL-for-graphs, Valiant's
//!   string parser.
//!
//! ## Quickstart
//!
//! ```
//! use cfpq::prelude::*;
//!
//! // The worked example of the paper, §4.3.
//! let grammar = cfpq::grammar::queries::query1();
//! let graph = cfpq::graph::generators::paper_example();
//! let answer = cfpq::core::solve(&graph, &grammar, Backend::Sparse).unwrap();
//! assert_eq!(answer.start_pairs(), &[(0, 0), (0, 2), (1, 2)]); // Fig. 9, R_S
//! ```

pub use cfpq_baselines as baselines;
pub use cfpq_core as core;
pub use cfpq_grammar as grammar;
pub use cfpq_graph as graph;
pub use cfpq_matrix as matrix;
pub use cfpq_obs as obs;
pub use cfpq_service as service;

/// Commonly used items in one import.
pub mod prelude {
    pub use cfpq_core::all_paths::{PageRequest, PathEnumerator, PathPage};
    pub use cfpq_core::compile::{CompiledQuery, QueryKind};
    pub use cfpq_core::query::{solve, Backend, QueryAnswer};
    pub use cfpq_core::regular::{solve_regular, Nfa};
    pub use cfpq_core::relational::{solve_set_matrix, FixpointSolver, SolveStats, SourceClosure};
    pub use cfpq_core::session::{
        extend_prepared_from, solve_prepared, solve_prepared_from, CfpqSession, GraphIndex,
        PreparedQuery, QueryId, SinglePathId,
    };
    pub use cfpq_core::single_path::{extract_path, validate_witness, SinglePathSolver};
    pub use cfpq_grammar::{Cfg, Nt, Term, Wcnf};
    pub use cfpq_graph::{Graph, TripleSet};
    pub use cfpq_matrix::{
        BoolEngine, DenseEngine, Device, KernelCounters, LenEngine, ParDenseEngine,
        ParSparseEngine, Parallelism, SparseEngine, TiledEngine,
    };
    pub use cfpq_obs::{MetricsRegistry, NoopRecorder, Recorder, SpanCollector};
    // The service hands out the session's `QueryId` / `SinglePathId`
    // above (`cfpq::service::QueryId` is the same type).
    pub use cfpq_service::{
        Backoff, CfpqService, QueryTrace, ServiceConfig, ServiceError, ServiceStats, Snapshot,
        Ticket, TicketResult,
    };
}

//! # cfpq-graph
//!
//! Edge-labeled directed graphs for context-free path querying, plus the
//! dataset substrate of the paper's evaluation (§6):
//!
//! * [`Graph`] — the core labeled digraph with per-label edge access
//!   (what the matrix solvers initialize from) and per-node adjacency
//!   (what the GLL/Hellings baselines traverse),
//! * [`triples`] — an RDF-like triple text format; following §6, each
//!   triple `(o, p, s)` materializes the edges `(o, p, s)` and
//!   `(s, p_r, o)`,
//! * [`generators`] — chains, cycles, grids, complete graphs, the classic
//!   two-cycle worst case, and seeded random graphs,
//! * [`ontology`] — the synthetic stand-ins for the paper's RDF ontology
//!   datasets (skos … pizza) with **exact** triple counts, and the
//!   `g1/g2/g3` repeated graphs (8 disjoint copies of funding/wine/pizza).

pub mod generators;
pub mod graph;
mod hash;
pub mod ontology;
pub mod triples;

pub use graph::{Edge, Graph, Label, NodeId};
pub use triples::TripleSet;

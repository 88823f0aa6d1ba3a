//! Fixed-seed property suite for the streaming all-path enumerator
//! (§7): on random graphs × two structurally different grammars (one
//! with erasable nonterminals), against relational closures solved on
//! every [`cfpq_matrix::BoolEngine`],
//!
//! 1. every streamed witness CYK-validates against the grammar
//!    ([`cfpq_core::single_path::validate_witness`]),
//! 2. the stream is deterministic — (length, then lexicographic) order,
//!    identical across all five engines,
//! 3. the memoized enumerator agrees with the pre-rewrite eager
//!    recursive walk ([`cfpq_core::all_paths::enumerate_paths_eager`],
//!    kept exactly as the oracle) on the full path *set*,
//! 4. page concatenation reproduces the one-big-page stream, and
//! 5. a session whose closure was repaired after
//!    [`cfpq_core::session::CfpqSession::add_edges`] serves the same
//!    pages as a from-scratch session over the final graph, and
//! 6. a query a session also holds as a single-path query, whose pages
//!    prune against the length closure's support, serves the same pages
//!    as one prepared only relationally.

use cfpq_core::all_paths::{enumerate_paths_eager, PageRequest, PathEnumerator, PathPage};
use cfpq_core::relational::{FixpointSolver, SolveOptions};
use cfpq_core::session::{CfpqSession, GraphIndex, PreparedQuery};
use cfpq_core::single_path::validate_witness;
use cfpq_grammar::cnf::CnfOptions;
use cfpq_grammar::{Cfg, Wcnf};
use cfpq_graph::{generators, Edge, Graph};
use cfpq_matrix::{
    BoolEngine, DenseEngine, Device, ParDenseEngine, ParSparseEngine, SparseEngine, TiledEngine,
};
use proptest::prelude::*;

/// Base RNG seed: CI must replay the exact same cases on every run (see
/// shims/README.md for the seeding scheme and `CFPQ_PROPTEST_SEED`).
const RNG_SEED: u64 = 0x0A11_9A75;

const LABELS: [&str; 2] = ["a", "b"];

/// A limit generous enough that every page in the suite is provably
/// complete (small graphs, short horizon), so eager-vs-lazy compares
/// full sets, not truncation artifacts.
const LIMIT: usize = 2000;
const MAX_LEN: usize = 5;

/// The two fixed query grammars of the suite: nested brackets with
/// concatenation (no ε), and a nullable Dyck-style shape whose diagonal
/// is pure ε-matches.
fn grammars() -> Vec<Wcnf> {
    ["S -> a S b | a b | S S", "S -> a S b | S S | eps"]
        .iter()
        .map(|src| {
            Cfg::parse(src)
                .unwrap()
                .to_wcnf(CnfOptions::default())
                .unwrap()
        })
        .collect()
}

fn path_key(p: &[Edge]) -> Vec<(u32, u32, u32)> {
    p.iter().map(|e| (e.from, e.label.0, e.to)).collect()
}

/// A path with label ids replaced by label names.
type NamedPath = Vec<(u32, String, u32)>;

/// The per-pair pages of one engine's full enumeration.
type PairPages = Vec<((u32, u32), PathPage)>;

/// A page with label ids replaced by label names, re-sorted into the
/// name-canonical (length, lexicographic) order — two sessions whose
/// indexes interned the labels in different first-appearance order must
/// still serve the *same* path set (their id-lexicographic order can
/// legitimately permute within a length class).
fn named_page(page: &PathPage, names: &[String]) -> (Vec<NamedPath>, bool) {
    let mut paths: Vec<NamedPath> = page
        .paths
        .iter()
        .map(|p| {
            p.iter()
                .map(|e| (e.from, names[e.label.index()].clone(), e.to))
                .collect()
        })
        .collect();
    paths.sort_by(|a, b| (a.len(), a).cmp(&(b.len(), b)));
    (paths, page.exhausted)
}

/// Enumerates every start pair on one engine's closure and checks the
/// stream's invariants; returns the per-pair pages for cross-engine
/// comparison.
fn check_engine<E: BoolEngine + Clone>(
    name: &str,
    engine: &E,
    graph: &Graph,
    grammar: &Wcnf,
    options: SolveOptions,
) -> Result<PairPages, TestCaseError> {
    let idx = FixpointSolver::new(engine)
        .options(options)
        .solve(graph, grammar);
    let start = grammar.start;
    let index = GraphIndex::build(engine.clone(), graph);
    let mut enumerator = PathEnumerator::new(grammar);
    let req = PageRequest {
        offset: 0,
        limit: LIMIT,
        max_len: MAX_LEN,
    };
    let mut out = Vec::new();
    for (i, j) in idx.pairs(start) {
        let page = enumerator.page(&index, &idx, start, i, j, req);
        prop_assert!(
            page.exhausted,
            "{}: ({},{}) hit the {}-path suite limit",
            name,
            i,
            j,
            LIMIT
        );
        // 1. Every streamed witness re-derives through the CYK oracle.
        for p in &page.paths {
            prop_assert!(
                validate_witness(p, graph, grammar, start, i, j),
                "{}: invalid witness {:?} at ({},{})",
                name,
                p,
                i,
                j
            );
        }
        // 2. (length, lexicographic) order, duplicate-free.
        let keys: Vec<_> = page.paths.iter().map(|p| (p.len(), path_key(p))).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(&keys, &sorted, "{}: stream order at ({},{})", name, i, j);
        // 3. The eager oracle finds exactly the same set.
        let eager = enumerate_paths_eager(&idx, graph, grammar, start, i, j, req);
        let mut eager_keys: Vec<_> = eager.iter().map(|p| (p.len(), path_key(p))).collect();
        eager_keys.sort();
        eager_keys.dedup();
        prop_assert_eq!(
            &keys,
            &eager_keys,
            "{}: lazy vs eager at ({},{})",
            name,
            i,
            j
        );
        out.push(((i, j), page));
    }
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(10, RNG_SEED))]

    #[test]
    fn streams_validate_and_agree_across_engines_and_with_eager(
        graph_seed in 0u64..1000,
        n_nodes in 2usize..7,
        edge_factor in 1usize..4,
        diagonal in 0u32..2,
    ) {
        let graph = generators::random_graph(
            n_nodes,
            edge_factor * n_nodes,
            &LABELS,
            graph_seed,
        );
        let options = SolveOptions { nullable_diagonal: diagonal == 1 };
        for grammar in grammars() {
            let reference = check_engine("dense", &DenseEngine, &graph, &grammar, options)?;
            let sparse = check_engine("sparse", &SparseEngine, &graph, &grammar, options)?;
            let dense_par = check_engine(
                "dense-par",
                &ParDenseEngine::new(Device::new(2)),
                &graph,
                &grammar,
                options,
            )?;
            let sparse_par = check_engine(
                "sparse-par",
                &ParSparseEngine::new(Device::new(3)),
                &graph,
                &grammar,
                options,
            )?;
            let tiled = check_engine(
                "tiled",
                &TiledEngine::new(Device::new(2)),
                &graph,
                &grammar,
                options,
            )?;
            // Paging is deterministic across engines: identical pages in
            // identical order, whatever closure representation pruned
            // the walk.
            prop_assert_eq!(&reference, &sparse, "dense vs sparse pages");
            prop_assert_eq!(&reference, &dense_par, "dense vs dense-par pages");
            prop_assert_eq!(&reference, &sparse_par, "dense vs sparse-par pages");
            prop_assert_eq!(&reference, &tiled, "dense vs tiled pages");
        }
    }

    #[test]
    fn page_concatenation_equals_one_big_page(
        graph_seed in 0u64..1000,
        n_nodes in 2usize..7,
        edge_factor in 1usize..4,
        page_size in 1usize..5,
    ) {
        let graph = generators::random_graph(
            n_nodes,
            edge_factor * n_nodes,
            &LABELS,
            graph_seed,
        );
        let options = SolveOptions { nullable_diagonal: true };
        for grammar in grammars() {
            let idx = FixpointSolver::new(&SparseEngine)
                .options(options)
                .solve(&graph, &grammar);
            let start = grammar.start;
            let index = GraphIndex::build(SparseEngine, &graph);
            let mut enumerator = PathEnumerator::new(&grammar);
            for (i, j) in idx.pairs(start) {
                let full = enumerator.page(&index, &idx, start, i, j, PageRequest {
                    offset: 0,
                    limit: LIMIT,
                    max_len: MAX_LEN,
                });
                prop_assert!(full.exhausted);
                let mut stitched = Vec::new();
                let mut offset = 0;
                loop {
                    let page = enumerator.page(&index, &idx, start, i, j, PageRequest {
                        offset,
                        limit: page_size,
                        max_len: MAX_LEN,
                    });
                    offset += page.paths.len();
                    let done = page.exhausted;
                    stitched.extend(page.paths);
                    if done {
                        break;
                    }
                    // A non-exhausted page is always full — the cut was
                    // by limit, so at least `page_size` paths streamed.
                    prop_assert_eq!(offset % page_size, 0, "short page not exhausted");
                }
                prop_assert_eq!(&stitched, &full.paths, "stitched pages at ({},{})", i, j);
            }
        }
    }

    #[test]
    fn session_repair_matches_from_scratch_enumeration(
        graph_seed in 0u64..1000,
        n_nodes in 3usize..8,
        split in 1usize..6,
    ) {
        // Hold out a random suffix of the edges, enumerate (cold), feed
        // the suffix through `add_edges`, enumerate again: the repaired
        // session must serve exactly the pages a fresh session over the
        // final graph serves.
        let graph = generators::random_graph(n_nodes, 3 * n_nodes, &LABELS, graph_seed);
        let req = PageRequest { offset: 0, limit: LIMIT, max_len: MAX_LEN };
        for grammar in grammars() {
            let edges = graph.edges();
            let split = split.min(edges.len());
            let mut base = Graph::new(graph.n_nodes());
            for e in &edges[..edges.len() - split] {
                base.add_edge_named(e.from, graph.label_name(e.label), e.to);
            }
            let mut session = CfpqSession::new(SparseEngine, &base);
            let id = session.prepare_query(PreparedQuery::from_wcnf(grammar.clone()));
            // Cold enumeration on the truncated graph (also warms the
            // memo tables that the repair must then invalidate).
            session.enumerate_paths(id, 0, 0, req);
            prop_assert!(!session.last_run(id).unwrap().incremental);
            let held: Vec<(u32, &str, u32)> = edges[edges.len() - split..]
                .iter()
                .map(|e| (e.from, graph.label_name(e.label), e.to))
                .collect();
            session.add_edges(&held);

            let mut fresh = CfpqSession::new(SparseEngine, &graph);
            let fresh_id = fresh.prepare_query(PreparedQuery::from_wcnf(grammar.clone()));
            // The sessions may have interned the labels in different
            // orders (the held-out suffix can carry a label's first
            // occurrence), so compare pages by label *name*.
            let session_names: Vec<String> = session
                .index()
                .label_matrices()
                .map(|(n, _)| n.to_owned())
                .collect();
            let fresh_names: Vec<String> = fresh
                .index()
                .label_matrices()
                .map(|(n, _)| n.to_owned())
                .collect();
            let n = graph.n_nodes() as u32;
            let mut repaired_any = false;
            for i in 0..n {
                for j in 0..n {
                    let repaired = session.enumerate_paths(id, i, j, req);
                    repaired_any = true;
                    let scratch = fresh.enumerate_paths(fresh_id, i, j, req);
                    prop_assert_eq!(
                        named_page(&repaired, &session_names),
                        named_page(&scratch, &fresh_names),
                        "pages at ({},{})",
                        i,
                        j
                    );
                }
            }
            prop_assert!(repaired_any);
            if !held.is_empty() && session.last_run(id).is_some() {
                // The post-update evaluations went through the repair
                // path, not a cold re-solve.
                prop_assert!(session.last_run(id).unwrap().incremental
                    || session.add_edges(&held) == 0);
            }
        }
    }

    #[test]
    fn linked_pages_equal_unlinked_pages(
        graph_seed in 0u64..1000,
        n_nodes in 3usize..7,
        split in 1usize..6,
        page_size in 1usize..4,
    ) {
        // Two sessions take the same edges, before and after a batch:
        // one also prepares the grammar single-path, so its relational
        // reads are served by the length closure; the other does not.
        // Every page — whole, cut by offset and limit, and under a
        // shorter length bound — must be the same on both.
        let graph = generators::random_graph(n_nodes, 3 * n_nodes, &LABELS, graph_seed);
        let edges = graph.edges();
        let split = split.min(edges.len());
        let mut base = Graph::new(graph.n_nodes());
        for e in &edges[..edges.len() - split] {
            base.add_edge_named(e.from, graph.label_name(e.label), e.to);
        }
        let held: Vec<(u32, &str, u32)> = edges[edges.len() - split..]
            .iter()
            .map(|e| (e.from, graph.label_name(e.label), e.to))
            .collect();
        let requests = [
            PageRequest { offset: 0, limit: LIMIT, max_len: MAX_LEN },
            PageRequest { offset: 0, limit: page_size, max_len: MAX_LEN },
            PageRequest { offset: page_size, limit: page_size, max_len: MAX_LEN },
            PageRequest { offset: 0, limit: LIMIT, max_len: 2 },
        ];
        for grammar in grammars() {
            for nullable_diagonal in [false, true] {
                let query = PreparedQuery::from_wcnf(grammar.clone())
                    .options(SolveOptions { nullable_diagonal });
                let mut linked = CfpqSession::new(SparseEngine, &base);
                let id = linked.prepare_query(query.clone());
                linked.prepare_single_path_query(query.clone());
                let mut plain = CfpqSession::new(SparseEngine, &base);
                let plain_id = plain.prepare_query(query);
                for round in 0..2 {
                    if round == 1 {
                        prop_assert_eq!(linked.add_edges(&held), plain.add_edges(&held));
                    }
                    let n = linked.index().n_nodes() as u32;
                    for i in 0..n {
                        for j in 0..n {
                            for req in requests {
                                prop_assert_eq!(
                                    linked.enumerate_paths(id, i, j, req),
                                    plain.enumerate_paths(plain_id, i, j, req),
                                    "round {} ({},{}) {:?}",
                                    round,
                                    i,
                                    j,
                                    req
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

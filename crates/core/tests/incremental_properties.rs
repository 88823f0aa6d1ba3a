//! Fixed-seed property suite for incremental consistency: feeding a
//! graph's edges into a [`CfpqSession`] **one at a time** through
//! `add_edges` — re-evaluating after every insertion — must reach
//! exactly the `start_pairs` a from-scratch `solve` computes on the
//! final graph, on every engine and across structurally different
//! grammars. This is the contract that makes the session layer safe to
//! serve evolving graphs: the semi-naive repair loop
//! ([`FixpointSolver::resume`]) never under- or over-approximates the
//! least fixpoint, no matter how the updates are sliced.
//!
//! The answers a session hands out are lazy views over the closure it
//! keeps repairing, so the suite also holds every lazy read to a cold
//! `RelationalIndex`'s pairs — on a cold session and after each repair —
//! and checks that an answer taken before an update is isolated from it.

use cfpq_core::all_paths::PageRequest;
use cfpq_core::query::{solve_wcnf, Backend, QueryAnswer};
use cfpq_core::relational::{FixpointSolver, RelationalIndex};
use cfpq_core::session::{solve_prepared_from, CfpqSession, PreparedQuery, QueryId, SinglePathId};
use cfpq_core::single_path::{extract_path, validate_witness};
use cfpq_core::SinglePathSolver;
use cfpq_grammar::cnf::CnfOptions;
use cfpq_grammar::{Cfg, Nt, Wcnf};
use cfpq_graph::{generators, Graph};
use cfpq_matrix::{
    BoolEngine, BoolMat, DenseEngine, Device, LenEngine, ParDenseEngine, ParSparseEngine,
    SparseEngine, TiledEngine,
};
use proptest::prelude::*;

/// Base RNG seed: CI must replay the exact same cases on every run (see
/// shims/README.md for the seeding scheme and `CFPQ_PROPTEST_SEED`).
const RNG_SEED: u64 = 0x1C4E_ED6E;

/// The two fixed query grammars of the suite (the issue's "at least two
/// grammars"): nested brackets with concatenation, and a same-generation
/// shape — structurally different fixpoints (one grows by nesting, one
/// by mirrored pairs).
fn grammars() -> Vec<Wcnf> {
    ["S -> a S b | a b | S S", "S -> a S a | b S b | a a | b b"]
        .iter()
        .map(|src| {
            Cfg::parse(src)
                .unwrap()
                .to_wcnf(CnfOptions::default())
                .unwrap()
        })
        .collect()
}

/// Holds every lazy read of `answer` to `closure`, a cold solve of the
/// graph the answer was read on: probes on hits, misses and node ids past
/// the graph (which must read "not
/// related", never panic), the count, each nonterminal's pair list —
/// helpers included — and the name-ordered `relations()` walk. Probes
/// come first so they cannot lean on an earlier extraction.
fn check_lazy_reads<M: BoolMat>(
    answer: &QueryAnswer,
    closure: &RelationalIndex<M>,
    wcnf: &Wcnf,
) -> Result<(), TestCaseError> {
    let n = closure.n_nodes as u32;
    let mut by_name = Vec::new();
    for a in 0..wcnf.n_nts() {
        let nt = Nt(a as u32);
        let name = wcnf.symbols.nt_name(nt);
        let expect = closure.pairs(nt);
        for i in 0..n + 2 {
            for j in 0..n + 2 {
                prop_assert_eq!(
                    answer.contains(name, i, j),
                    expect.binary_search(&(i, j)).is_ok(),
                    "contains({}, {}, {})",
                    name,
                    i,
                    j
                );
            }
        }
        prop_assert!(!answer.contains(name, u32::MAX, 0));
        prop_assert!(!answer.contains(name, 0, u32::MAX));
        prop_assert_eq!(answer.pairs(name), Some(expect.as_slice()));
        by_name.push((name, expect));
    }
    prop_assert!(!answer.contains("no such nonterminal", 0, 0));
    prop_assert_eq!(answer.start_count(), closure.count(wcnf.start));
    prop_assert_eq!(answer.start_pairs().len(), answer.start_count());
    by_name.sort();
    let walked: Vec<(&str, Vec<(u32, u32)>)> = answer
        .relations()
        .map(|(name, pairs)| (name, pairs.to_vec()))
        .collect();
    prop_assert_eq!(walked, by_name);
    Ok(())
}

/// Replays `graph` edge by edge through a session on `engine`, checking
/// the session answer against a from-scratch solve after every single
/// insertion (not just at the end: intermediate prefixes are exactly
/// where a wrong Δ seeding would hide).
fn check_engine<E: BoolEngine + LenEngine + Clone>(
    engine: E,
    graph: &Graph,
    wcnf: &Wcnf,
) -> Result<(), TestCaseError> {
    let empty = Graph::new(graph.n_nodes());
    let mut session = CfpqSession::over(cfpq_core::session::GraphIndex::build(engine, &empty));
    let id = session.prepare_query(PreparedQuery::from_wcnf(wcnf.clone()));
    // Cold-solve the empty graph so every insertion goes down the
    // incremental path.
    session.evaluate(id);

    let mut prefix = Graph::new(graph.n_nodes());
    for e in graph.edges() {
        let name = graph.label_name(e.label);
        prefix.add_edge_named(e.from, name, e.to);
        session.add_edges(&[(e.from, name, e.to)]);
        let incremental = session.evaluate(id);
        let scratch = solve_wcnf(&prefix, wcnf, Backend::Sparse);
        prop_assert_eq!(
            incremental.start_pairs(),
            scratch.start_pairs(),
            "prefix of {} edges diverges",
            prefix.n_edges()
        );
        let closure = FixpointSolver::new(&SparseEngine).solve(&prefix, wcnf);
        check_lazy_reads(&session.evaluate(id), &closure, wcnf)?;
    }
    // And on a cold closure of the whole graph.
    let mut cold = CfpqSession::over(session.index().clone());
    let id = cold.prepare_query(PreparedQuery::from_wcnf(wcnf.clone()));
    let answer = cold.evaluate(id);
    let closure = FixpointSolver::new(&SparseEngine).solve(graph, wcnf);
    check_lazy_reads(&answer, &closure, wcnf)
}

/// Copy-on-write isolation on one engine: an answer taken before an
/// update keeps reading the relation it was evaluated against — even
/// when its first read comes after the repair — and the session copies
/// the closure for a repair only while such an answer is alive. The
/// grammar is prepared under both kinds, so that closure is the
/// single-path query's length closure: the first repair is the
/// relational read's, the second the single-path read's, each is
/// recorded on the single-path handle, which owns the closure, and the
/// other read after it is a hit.
fn check_copy_on_write<E: BoolEngine + LenEngine>(engine: E) {
    let grammar = Cfg::parse("S -> a S b | a b").unwrap();
    let chain = generators::word_chain(&["a", "a", "a", "b", "b", "b"]);
    let mut partial = Graph::new(chain.n_nodes());
    for e in chain.edges().iter().take(4) {
        partial.add_edge_named(e.from, chain.label_name(e.label), e.to);
    }
    let mut session = CfpqSession::new(engine, &partial);
    let id = session.prepare(&grammar).unwrap();
    let sp = session.prepare_single_path(&grammar).unwrap();
    let closure_at = |session: &CfpqSession<E>| {
        std::ptr::from_ref(session.single_path_index(sp).expect("evaluated"))
    };

    let lengths_run = |session: &CfpqSession<E>| {
        let run = session.last_single_path_run(sp).expect("a run");
        (run.incremental, run.stats.clone())
    };
    let before = session.evaluate(id);
    let viewed = closure_at(&session);
    session.add_edges(&[(4, "b", 5)]);
    let after = session.evaluate(id);
    let repaired = lengths_run(&session);
    assert!(repaired.0, "the relational read repaired the lengths");
    assert!(
        session.last_run(id).is_none(),
        "it has no closure of its own"
    );
    assert_ne!(
        closure_at(&session),
        viewed,
        "a live answer: the repair works on a copy"
    );
    assert_eq!(before.start_pairs(), &[(2, 4)], "the old relation");
    assert!(!before.contains("S", 1, 5));
    assert_eq!(before.start_count(), 1);
    assert_eq!(after.start_pairs(), &[(1, 5), (2, 4)]);
    session.evaluate_single_path(sp);
    assert_eq!(lengths_run(&session), repaired, "the single-path read hits");

    drop((before, after));
    let unshared = closure_at(&session);
    session.add_edges(&[(5, "b", 6)]);
    session.evaluate_single_path(sp);
    let repaired = lengths_run(&session);
    assert!(repaired.0, "the single-path read repaired the lengths");
    assert_eq!(
        closure_at(&session),
        unshared,
        "no live answer: the repair is in place"
    );
    let last = session.evaluate(id);
    assert_eq!(last.start_pairs(), &[(0, 6), (1, 5), (2, 4)]);
    assert_eq!(lengths_run(&session), repaired, "the relational read hits");
}

#[test]
fn answers_are_isolated_from_later_updates_copy_on_write() {
    check_copy_on_write(DenseEngine);
    check_copy_on_write(SparseEngine);
    check_copy_on_write(ParDenseEngine::new(Device::new(2)));
    check_copy_on_write(ParSparseEngine::new(Device::new(3)));
    check_copy_on_write(TiledEngine::new(Device::new(2)));
}

/// Where each label matrix of a session's index lives, in label order.
fn label_addresses<E: BoolEngine + LenEngine>(
    session: &CfpqSession<E>,
) -> Vec<(String, *const E::Matrix)> {
    let labels = session.index().label_matrices();
    labels
        .map(|(name, m)| (name.to_owned(), std::ptr::from_ref(m)))
        .collect()
}

/// Copy-on-write of the label matrices on one engine: a session clone
/// shares every label with the original, and a batch copies only the
/// label it writes to, in the copy that took it. The other copy keeps
/// its matrices and its answers. A batch naming a new node widens, and
/// so copies, every label.
fn check_label_copy_on_write<E: BoolEngine + LenEngine + Clone>(engine: E) {
    let grammar = Cfg::parse("S -> a S b | a b").unwrap();
    let graph = generators::word_chain(&["a", "b", "b", "c"]);
    let mut session = CfpqSession::new(engine.clone(), &graph);
    let id = session.prepare(&grammar).unwrap();
    let answer = session.evaluate(id).start_pairs().to_vec();
    let shared = label_addresses(&session);
    let names: Vec<&str> = shared.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, ["a", "b", "c"]);

    let mut copy = session.clone();
    assert_eq!(label_addresses(&copy), shared, "a clone shares every label");
    assert_eq!(copy.add_edges(&[(1, "a", 1)]), 1);
    assert_eq!(
        label_addresses(&session),
        shared,
        "the other copy moves nothing"
    );
    for ((name, was), (_, now)) in shared.iter().zip(label_addresses(&copy)) {
        assert_eq!(*was == now, name != "a", "label {name}");
    }
    assert_eq!(session.evaluate(id).start_pairs(), answer);
    assert!(
        !session.last_run(id).unwrap().incremental,
        "still the cold solve"
    );
    let mut grown = graph.clone();
    grown.add_edge_named(1, "a", 1);
    let mut scratch = CfpqSession::new(engine, &grown);
    let scratch_id = scratch.prepare(&grammar).unwrap();
    let expect = scratch.evaluate(scratch_id).start_pairs().to_vec();
    assert_ne!(expect, answer);
    assert_eq!(copy.evaluate(id).start_pairs(), expect);

    let mut widened = session.clone();
    assert_eq!(widened.add_edges(&[(4, "c", 5)]), 1, "node 5 is new");
    assert_eq!(widened.index().n_nodes(), 6);
    assert_eq!(label_addresses(&session), shared);
    for ((name, was), (_, now)) in shared.iter().zip(label_addresses(&widened)) {
        assert_ne!(*was, now, "label {name} was widened");
    }
    assert_eq!(session.evaluate(id).start_pairs(), answer);
}

#[test]
fn label_matrices_are_shared_copy_on_write() {
    check_label_copy_on_write(DenseEngine);
    check_label_copy_on_write(SparseEngine);
    check_label_copy_on_write(ParDenseEngine::new(Device::new(2)));
    check_label_copy_on_write(ParSparseEngine::new(Device::new(3)));
    check_label_copy_on_write(TiledEngine::new(Device::new(2)));
}

/// Every label `session`'s index holds, built or not.
fn label_names<E: BoolEngine + LenEngine>(session: &CfpqSession<E>) -> Vec<String> {
    let labels = session.index().label_bytes();
    labels.map(|(name, _)| name.to_owned()).collect()
}

/// Builds every label of `session`'s index.
fn build_all<E: BoolEngine + LenEngine>(session: &CfpqSession<E>) {
    for name in label_names(session) {
        session
            .index()
            .adjacency(&name)
            .expect("a label of the index");
    }
}

/// Everything a session serves that reads a label matrix, in one
/// comparable form: the relational answer of `id` (every nonterminal's
/// pairs), the lengths of `sp`, the start pairs of a closure restricted
/// to `sources`, and a page of paths for every pair of nodes below 4.
type Served = (
    Vec<Option<Vec<(u32, u32)>>>,
    Vec<Vec<(u32, u32, u32)>>,
    Vec<(u32, u32)>,
    Vec<cfpq_core::all_paths::PathPage>,
);

fn served<E: BoolEngine + LenEngine>(
    session: &mut CfpqSession<E>,
    (id, rel): (QueryId, &PreparedQuery),
    (sp, lengths): (SinglePathId, &PreparedQuery),
    sources: &[u32],
) -> Served {
    let answer = session.evaluate(id);
    let names = rel.wcnf().symbols.nts().map(|(_, name)| name);
    let relation = names.map(|name| answer.pairs(name).map(<[_]>::to_vec));
    let index = session.evaluate_single_path(sp);
    let nts = (0..lengths.wcnf().n_nts()).map(|a| Nt(a as u32));
    let lengths_of = nts.map(|nt| index.pairs_with_lengths(nt)).collect();
    let restricted = solve_prepared_from(session.index(), rel, sources);
    let req = PageRequest {
        offset: 0,
        limit: 3,
        max_len: 6,
    };
    let pages = (0..16).map(|p| session.enumerate_paths(id, p / 4, p % 4, req));
    (
        relation.collect(),
        lengths_of,
        restricted.pairs(rel.wcnf().start),
        pages.collect(),
    )
}

/// A session over an index that builds its labels on first read, on
/// `engine`, against one whose labels are all built before any read:
/// `graph`'s edges on nodes below its middle and labels other than `e`
/// first, then the rest in batches of `batch` edges. The batches write to
/// labels the grammars read (`a`, `b`), labels they never name (`c`,
/// `d`), the new label `e`, and name new node ids. After every batch both
/// sessions serve alike, the unread labels are still unbuilt, and a
/// clone taken before the batch serves what it served then.
fn check_lazy_labels<E: BoolEngine + LenEngine + Clone>(
    engine: E,
    graph: &Graph,
    batch: usize,
) -> Result<(), TestCaseError> {
    let mut queries = grammars().into_iter().map(PreparedQuery::from_wcnf);
    let (rel, lengths) = (queries.next().unwrap(), queries.next().unwrap());
    let half = (graph.n_nodes() as u32).div_ceil(2);
    let edge = |e: &cfpq_graph::Edge| (e.from, graph.label_name(e.label), e.to);
    let (old, new): (Vec<&cfpq_graph::Edge>, Vec<_>) = graph
        .edges()
        .iter()
        .partition(|e| e.from < half && e.to < half && graph.label_name(e.label) != "e");
    let mut base = Graph::new(half as usize);
    for e in old {
        base.add_edge_named(e.from, graph.label_name(e.label), e.to);
    }
    let mut lazy = CfpqSession::new(engine.clone(), &base);
    let mut eager = CfpqSession::new(engine, &base);
    build_all(&eager);
    let ids = |session: &mut CfpqSession<E>| {
        let id = session.prepare_query(rel.clone());
        (id, session.prepare_single_path_query(lengths.clone()))
    };
    let ((id, sp), (eager_id, eager_sp)) = (ids(&mut lazy), ids(&mut eager));
    let sources = [0, half];
    let unread = |session: &CfpqSession<E>| -> Vec<String> {
        let names = label_names(session).into_iter();
        names.filter(|l| l != "a" && l != "b").collect()
    };
    let mut before = served(&mut lazy, (id, &rel), (sp, &lengths), &sources);
    for (b, edges) in new.chunks(batch).enumerate() {
        let edges: Vec<_> = edges.iter().map(|e| edge(e)).collect();
        let mut clone = lazy.clone();
        let bytes: Vec<(String, usize)> = {
            let labels = clone.index().label_bytes();
            labels
                .map(|(name, bytes)| (name.to_owned(), bytes))
                .collect()
        };
        prop_assert_eq!(lazy.add_edges(&edges), eager.add_edges(&edges));
        build_all(&eager);
        let now = served(&mut lazy, (id, &rel), (sp, &lengths), &sources);
        let expect = served(&mut eager, (eager_id, &rel), (eager_sp, &lengths), &sources);
        prop_assert_eq!(&now, &expect, "batch {}", b);
        prop_assert_eq!(lazy.index().n_edges(), eager.index().n_edges());
        for label in unread(&lazy) {
            prop_assert_eq!(lazy.index().is_built(&label), Some(false), "{}", label);
        }
        for label in unread(&eager) {
            prop_assert_eq!(eager.index().is_built(&label), Some(true), "{}", label);
        }
        let then = served(&mut clone, (id, &rel), (sp, &lengths), &sources);
        prop_assert_eq!(&then, &before, "batch {}: the clone", b);
        let labels = clone.index().label_bytes();
        let now_bytes: Vec<(String, usize)> = labels
            .map(|(name, bytes)| (name.to_owned(), bytes))
            .collect();
        prop_assert_eq!(now_bytes, bytes, "batch {}: the clone's labels", b);
        before = now;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(6, RNG_SEED))]

    #[test]
    fn lazy_labels_serve_as_labels_built_up_front(
        graph_seed in 0u64..1000,
        n_nodes in 3usize..8,
        batch in 1usize..5,
    ) {
        let labels = ["a", "b", "c", "d", "e"];
        let graph = generators::random_graph(n_nodes, 4 * n_nodes, &labels, graph_seed);
        check_lazy_labels(DenseEngine, &graph, batch)?;
        check_lazy_labels(SparseEngine, &graph, batch)?;
        check_lazy_labels(ParDenseEngine::new(Device::new(2)), &graph, batch)?;
        check_lazy_labels(ParSparseEngine::new(Device::new(3)), &graph, batch)?;
        check_lazy_labels(TiledEngine::new(Device::new(2)), &graph, batch)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(8, RNG_SEED))]

    #[test]
    fn one_at_a_time_insertion_matches_from_scratch(
        graph_seed in 0u64..1000,
        n_nodes in 2usize..8,
        edge_factor in 1usize..4,
    ) {
        for wcnf in grammars() {
            let graph = generators::random_graph(
                n_nodes,
                edge_factor * n_nodes,
                &["a", "b"],
                graph_seed,
            );
            check_engine(DenseEngine, &graph, &wcnf)?;
            check_engine(SparseEngine, &graph, &wcnf)?;
            check_engine(ParDenseEngine::new(Device::new(2)), &graph, &wcnf)?;
            check_engine(ParSparseEngine::new(Device::new(3)), &graph, &wcnf)?;
            check_engine(TiledEngine::new(Device::new(2)), &graph, &wcnf)?;
        }
    }

    #[test]
    fn batched_insertion_matches_from_scratch(
        graph_seed in 0u64..1000,
        split in 1usize..7,
    ) {
        // Cyclic worst case: solve a prefix of the two-cycles graph,
        // then add the rest as one batch — cycles force multi-sweep
        // repairs, exercising the Δ propagation beyond the first sweep.
        for wcnf in grammars() {
            let graph = generators::two_cycles(4, 3);
            let k = split.min(graph.n_edges() - 1);
            let mut base = Graph::new(graph.n_nodes());
            for e in graph.edges().iter().take(k) {
                base.add_edge_named(e.from, graph.label_name(e.label), e.to);
            }
            let _ = graph_seed; // reserved: two_cycles is deterministic
            let mut session = CfpqSession::new(SparseEngine, &base);
            let id = session.prepare_query(PreparedQuery::from_wcnf(wcnf.clone()));
            session.evaluate(id);
            let rest: Vec<(u32, &str, u32)> = graph.edges()[k..]
                .iter()
                .map(|e| (e.from, graph.label_name(e.label), e.to))
                .collect();
            session.add_edges(&rest);
            let incremental = session.evaluate(id);
            let scratch = solve_wcnf(&graph, &wcnf, Backend::Sparse);
            prop_assert_eq!(incremental.start_pairs(), scratch.start_pairs());
        }
    }

    #[test]
    fn repaired_closure_matches_solver_on_every_nonterminal(
        graph_seed in 0u64..1000,
        n_nodes in 2usize..7,
    ) {
        // Beyond start_pairs: the whole repaired RelationalIndex must
        // equal a cold FixpointSolver run, nonterminal by nonterminal.
        let wcnf = &grammars()[0];
        let graph = generators::random_graph(n_nodes, 3 * n_nodes, &["a", "b"], graph_seed);
        let hold_out = graph.n_edges() / 2;
        let mut base = Graph::new(graph.n_nodes());
        for e in graph.edges().iter().take(hold_out) {
            base.add_edge_named(e.from, graph.label_name(e.label), e.to);
        }
        let mut session = CfpqSession::new(SparseEngine, &base);
        let id = session.prepare_query(PreparedQuery::from_wcnf(wcnf.clone()));
        session.evaluate(id);
        let rest: Vec<(u32, &str, u32)> = graph.edges()[hold_out..]
            .iter()
            .map(|e| (e.from, graph.label_name(e.label), e.to))
            .collect();
        session.add_edges(&rest);
        session.evaluate(id);
        let cold = FixpointSolver::new(&SparseEngine).solve(&graph, wcnf);
        let repaired = session.evaluate(id);
        for a in 0..wcnf.n_nts() {
            let nt = cfpq_grammar::Nt(a as u32);
            let name = wcnf.symbols.nt_name(nt);
            let expect = cold.pairs(nt);
            prop_assert_eq!(repaired.pairs(name), Some(expect.as_slice()));
        }

        // And a nullable grammar under `nullable_diagonal`, both kinds,
        // on every engine, in batches that grow the node universe.
        let nullable = Cfg::parse("S -> a S b | S S | eps").unwrap();
        let nullable = nullable.to_wcnf(CnfOptions::default()).unwrap();
        let batch = 1 + graph_seed as usize % 3;
        check_nullable_growth(DenseEngine, &graph, &nullable, batch)?;
        check_nullable_growth(SparseEngine, &graph, &nullable, batch)?;
        check_nullable_growth(ParDenseEngine::new(Device::new(2)), &graph, &nullable, batch)?;
        check_nullable_growth(ParSparseEngine::new(Device::new(3)), &graph, &nullable, batch)?;
        check_nullable_growth(TiledEngine::new(Device::new(2)), &graph, &nullable, batch)?;
    }
}

/// Repairs of a nullable grammar's closures under `nullable_diagonal`
/// on `engine`, one session per kind (in one session the relational
/// query would read the length closure): the edges among the first half
/// of `graph`'s nodes cold-solved, then the rest in batches of `batch`
/// edges, which name new nodes. After every batch each kind's repaired
/// closure equals a cold solve of the grown graph on every nonterminal,
/// both cover its nodes, and the Boolean closure is the support of the
/// length closure — ε-diagonal of the new nodes included.
fn check_nullable_growth<E: BoolEngine + LenEngine + Clone>(
    engine: E,
    graph: &Graph,
    wcnf: &Wcnf,
    batch: usize,
) -> Result<(), TestCaseError> {
    let options = cfpq_core::relational::SolveOptions {
        nullable_diagonal: true,
    };
    let query = PreparedQuery::from_wcnf(wcnf.clone()).options(options);
    let half = (graph.n_nodes() as u32).div_ceil(2);
    let (old, new): (Vec<&cfpq_graph::Edge>, Vec<_>) = graph
        .edges()
        .iter()
        .partition(|e| e.from < half && e.to < half);
    let mut grown = Graph::new(half as usize);
    for e in old {
        grown.add_edge_named(e.from, graph.label_name(e.label), e.to);
    }
    let mut rel = CfpqSession::new(engine.clone(), &grown);
    let id = rel.prepare_query(query.clone());
    let mut sp = CfpqSession::new(engine.clone(), &grown);
    let sid = sp.prepare_single_path_query(query);
    rel.evaluate(id);
    sp.evaluate_single_path(sid);
    for (b, edges) in new.chunks(batch).enumerate() {
        let edges: Vec<(u32, &str, u32)> = edges
            .iter()
            .map(|e| (e.from, graph.label_name(e.label), e.to))
            .collect();
        for &(from, label, to) in &edges {
            grown.add_edge_named(from, label, to);
        }
        rel.add_edges(&edges);
        sp.add_edges(&edges);
        let boolean = rel.evaluate(id);
        sp.evaluate_single_path(sid);
        prop_assert!(rel.last_run(id).expect("read").incremental);
        prop_assert!(sp.last_single_path_run(sid).expect("read").incremental);
        let lengths = sp.single_path_index(sid).expect("read");
        let n = grown.n_nodes();
        prop_assert_eq!((boolean.n_nodes, lengths.n_nodes), (n, n), "batch {}", b);
        let cold = FixpointSolver::new(&engine)
            .options(options)
            .solve(&grown, wcnf);
        let cold_lengths = SinglePathSolver::new(&engine)
            .options(options)
            .solve(&grown, wcnf);
        for a in 0..wcnf.n_nts() {
            let nt = Nt(a as u32);
            let name = wcnf.symbols.nt_name(nt);
            let support = lengths.pairs(nt);
            let expect = cold.pairs(nt);
            prop_assert_eq!(&support, &cold_lengths.pairs(nt), "batch {}: {}", b, name);
            prop_assert_eq!(boolean.pairs(name), Some(expect.as_slice()));
            prop_assert_eq!(boolean.pairs(name), Some(support.as_slice()));
        }
    }
    Ok(())
}

/// [`SparseEngine`] with every entry handed to `len_set_absent`
/// recorded: the ε-overlay of a single-path closure writes its length-0
/// cells there (and a repair its length-1 seeds).
#[derive(Clone, Default)]
struct SetAbsentLog {
    inner: SparseEngine,
    written: std::sync::Arc<std::sync::Mutex<Vec<(u32, u32, u32)>>>,
}

impl BoolEngine for SetAbsentLog {
    type Matrix = <SparseEngine as BoolEngine>::Matrix;

    fn name(&self) -> &'static str {
        "sparse-set-absent-log"
    }
    fn zeros(&self, n: usize) -> Self::Matrix {
        self.inner.zeros(n)
    }
    fn from_pairs(&self, n: usize, pairs: &[(u32, u32)]) -> Self::Matrix {
        self.inner.from_pairs(n, pairs)
    }
    fn multiply(&self, a: &Self::Matrix, b: &Self::Matrix) -> Self::Matrix {
        self.inner.multiply(a, b)
    }
    fn union_in_place(&self, a: &mut Self::Matrix, b: &Self::Matrix) -> bool {
        self.inner.union_in_place(a, b)
    }
    fn union_pairs(&self, a: &mut Self::Matrix, pairs: &[(u32, u32)]) -> bool {
        self.inner.union_pairs(a, pairs)
    }
    fn grow(&self, a: &mut Self::Matrix, n: usize) {
        self.inner.grow(a, n)
    }
    fn difference(&self, a: &Self::Matrix, b: &Self::Matrix) -> Self::Matrix {
        self.inner.difference(a, b)
    }
    fn intersect(&self, a: &Self::Matrix, b: &Self::Matrix) -> Self::Matrix {
        self.inner.intersect(a, b)
    }
    fn multiply_masked_batch(
        &self,
        jobs: &[cfpq_matrix::MaskedJob<'_, Self::Matrix>],
    ) -> Vec<Self::Matrix> {
        self.inner.multiply_masked_batch(jobs)
    }
}

impl LenEngine for SetAbsentLog {
    type LenMatrix = <SparseEngine as LenEngine>::LenMatrix;

    fn len_empty(&self, n: usize) -> Self::LenMatrix {
        self.inner.len_empty(n)
    }
    fn len_from_entries(&self, n: usize, entries: &[(u32, u32, u32)]) -> Self::LenMatrix {
        self.inner.len_from_entries(n, entries)
    }
    fn len_set_absent(
        &self,
        a: &mut Self::LenMatrix,
        entries: &[(u32, u32, u32)],
    ) -> Vec<(u32, u32, u32)> {
        self.written.lock().unwrap().extend_from_slice(entries);
        self.inner.len_set_absent(a, entries)
    }
    fn len_multiply_masked(
        &self,
        a: &Self::LenMatrix,
        b: &Self::LenMatrix,
        mask: Option<&Self::LenMatrix>,
    ) -> Self::LenMatrix {
        self.inner.len_multiply_masked(a, b, mask)
    }
    fn len_merge_absent(
        &self,
        acc: &mut Self::LenMatrix,
        add: &Self::LenMatrix,
    ) -> Self::LenMatrix {
        self.inner.len_merge_absent(acc, add)
    }
    fn len_grow(&self, a: &mut Self::LenMatrix, n: usize) {
        self.inner.len_grow(a, n)
    }
}

/// A single-path repair overlays the ε-cells of the nodes a batch
/// brings, and only those: on a nullable grammar over 10,000 nodes, a
/// one-edge batch naming two new nodes hands `len_set_absent` their two
/// diagonal cells per nullable nonterminal — not 10,002 of them — and
/// every length stored before the batch is still there.
#[test]
fn a_single_path_repair_overlays_only_the_new_nodes_diagonal() {
    use cfpq_core::relational::SolveOptions;
    // 2,500 gadgets `4g -a-> 4g+1 -b-> 4g+2`, node 4g+3 isolated.
    let n = 10_000u32;
    let mut graph = Graph::new(n as usize);
    for g in (0..n).step_by(4) {
        graph.add_edge_named(g, "a", g + 1);
        graph.add_edge_named(g + 1, "b", g + 2);
    }
    let engine = SetAbsentLog::default();
    let mut session = CfpqSession::new(engine.clone(), &graph);
    let query = PreparedQuery::new(&Cfg::parse("S -> a S b | S S | eps").unwrap())
        .unwrap()
        .options(SolveOptions {
            nullable_diagonal: true,
        });
    let (s, nullable) = (query.wcnf().start, query.wcnf().nullable.len());
    assert!(nullable > 0, "the grammar has a nullable nonterminal");
    let id = session.prepare_single_path_query(query);
    let before = session.evaluate_single_path(id).pairs_with_lengths(s);
    let overlaid = || -> Vec<(u32, u32, u32)> {
        let mut written = std::mem::take(&mut *engine.written.lock().unwrap());
        written.retain(|&(_, _, l)| l == 0);
        written
    };
    assert_eq!(
        overlaid().len(),
        nullable * n as usize,
        "a cold solve overlays every node"
    );

    session.add_edges(&[(n, "a", n + 1)]);
    let repaired = session.evaluate_single_path(id);
    let mut expect: Vec<(u32, u32, u32)> = (0..nullable)
        .flat_map(|_| [(n, n, 0), (n + 1, n + 1, 0)])
        .collect();
    let mut got = overlaid();
    assert_eq!(got.len(), expect.len(), "only the new nodes' diagonal");
    got.sort_unstable();
    expect.sort_unstable();
    assert_eq!(got, expect);
    assert_eq!(repaired.n_nodes, n as usize + 2);

    for (i, j, l) in before {
        assert_eq!(
            repaired.length(s, i, j),
            Some(l),
            "({i}, {j}) kept its length"
        );
    }
    for m in [n, n + 1] {
        assert_eq!(
            repaired.length(s, m, m),
            Some(0),
            "new node {m} has its ε-cell"
        );
    }
}

/// An engine that counts the Boolean masked product batches it launches
/// — every product of a relational fixpoint goes through one — and
/// forwards everything else to `inner`.
#[derive(Clone)]
struct BoolBatches<E> {
    inner: E,
    launched: std::sync::Arc<std::sync::atomic::AtomicUsize>,
}

impl<E> BoolBatches<E> {
    fn new(inner: E) -> Self {
        let launched = std::sync::Arc::default();
        Self { inner, launched }
    }

    fn launched(&self) -> usize {
        self.launched.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl<E: BoolEngine> BoolEngine for BoolBatches<E> {
    type Matrix = E::Matrix;

    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn zeros(&self, n: usize) -> Self::Matrix {
        self.inner.zeros(n)
    }
    fn from_pairs(&self, n: usize, pairs: &[(u32, u32)]) -> Self::Matrix {
        self.inner.from_pairs(n, pairs)
    }
    fn multiply(&self, a: &Self::Matrix, b: &Self::Matrix) -> Self::Matrix {
        self.inner.multiply(a, b)
    }
    fn union_in_place(&self, a: &mut Self::Matrix, b: &Self::Matrix) -> bool {
        self.inner.union_in_place(a, b)
    }
    fn union_pairs(&self, a: &mut Self::Matrix, pairs: &[(u32, u32)]) -> bool {
        self.inner.union_pairs(a, pairs)
    }
    fn grow(&self, a: &mut Self::Matrix, n: usize) {
        self.inner.grow(a, n)
    }
    fn difference(&self, a: &Self::Matrix, b: &Self::Matrix) -> Self::Matrix {
        self.inner.difference(a, b)
    }
    fn intersect(&self, a: &Self::Matrix, b: &Self::Matrix) -> Self::Matrix {
        self.inner.intersect(a, b)
    }
    fn multiply_masked(
        &self,
        a: &Self::Matrix,
        b: &Self::Matrix,
        mask: &Self::Matrix,
    ) -> Self::Matrix {
        self.inner.multiply_masked(a, b, mask)
    }
    fn multiply_masked_batch(
        &self,
        jobs: &[cfpq_matrix::MaskedJob<'_, Self::Matrix>],
    ) -> Vec<Self::Matrix> {
        let launched = &self.launched;
        launched.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.multiply_masked_batch(jobs)
    }
    fn kernel_counters(&self) -> cfpq_matrix::KernelCounters {
        self.inner.kernel_counters()
    }
}

impl<E: LenEngine> LenEngine for BoolBatches<E> {
    type LenMatrix = E::LenMatrix;

    fn len_empty(&self, n: usize) -> Self::LenMatrix {
        self.inner.len_empty(n)
    }
    fn len_from_entries(&self, n: usize, entries: &[(u32, u32, u32)]) -> Self::LenMatrix {
        self.inner.len_from_entries(n, entries)
    }
    fn len_set_absent(
        &self,
        a: &mut Self::LenMatrix,
        entries: &[(u32, u32, u32)],
    ) -> Vec<(u32, u32, u32)> {
        self.inner.len_set_absent(a, entries)
    }
    fn len_multiply_masked(
        &self,
        a: &Self::LenMatrix,
        b: &Self::LenMatrix,
        mask: Option<&Self::LenMatrix>,
    ) -> Self::LenMatrix {
        self.inner.len_multiply_masked(a, b, mask)
    }
    fn len_multiply_masked_batch(
        &self,
        jobs: &[cfpq_matrix::LenJob<'_, Self::LenMatrix>],
    ) -> Vec<Self::LenMatrix> {
        self.inner.len_multiply_masked_batch(jobs)
    }
    fn len_merge_absent(
        &self,
        acc: &mut Self::LenMatrix,
        add: &Self::LenMatrix,
    ) -> Self::LenMatrix {
        self.inner.len_merge_absent(acc, add)
    }
    fn len_grow(&self, a: &mut Self::LenMatrix, n: usize) {
        self.inner.len_grow(a, n)
    }
}

/// Holds a linked relational read to the same grammar's read on a state
/// with no single-path twin: the start pairs and count, every
/// nonterminal's pairs, and a probe of every cell (node ids past the
/// graph included).
fn check_same_answer(
    linked: &QueryAnswer,
    plain: &QueryAnswer,
    wcnf: &Wcnf,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(linked.n_nodes, plain.n_nodes);
    prop_assert_eq!(linked.start_pairs(), plain.start_pairs());
    prop_assert_eq!(linked.start_count(), plain.start_count());
    let n = plain.n_nodes as u32;
    for a in 0..wcnf.n_nts() {
        let name = wcnf.symbols.nt_name(Nt(a as u32));
        prop_assert_eq!(linked.pairs(name), plain.pairs(name), "R_{}", name);
        for i in 0..n + 2 {
            for j in 0..n + 2 {
                prop_assert_eq!(linked.contains(name, i, j), plain.contains(name, i, j));
            }
        }
    }
    Ok(())
}

/// A relational query linked to its single-path twin on `engine`, in
/// both prepare orders and with `nullable_diagonal` off and on, read
/// after a cold solve of the first half of `graph`'s nodes and after
/// every batch of `batch` edges that follows (batches that name new
/// nodes grow the universe): every read equals the read of a session
/// that prepared the grammar only relationally, and no linked read
/// launches a Boolean product. Batches alternate between a caller
/// holding the last answer — the length repair then works on a copy —
/// and holding none, when it works in place.
fn check_linked<E: BoolEngine + LenEngine + Clone>(
    engine: E,
    graph: &Graph,
    wcnf: &Wcnf,
    batch: usize,
) -> Result<(), TestCaseError> {
    let half = (graph.n_nodes() as u32).div_ceil(2);
    let edge = |e: &cfpq_graph::Edge| (e.from, graph.label_name(e.label), e.to);
    let (old, new): (Vec<&cfpq_graph::Edge>, Vec<_>) = graph
        .edges()
        .iter()
        .partition(|e| e.from < half && e.to < half);
    let mut base = Graph::new(half as usize);
    for e in old {
        base.add_edge_named(e.from, graph.label_name(e.label), e.to);
    }
    let batches: Vec<Vec<(u32, &str, u32)>> = new
        .chunks(batch)
        .map(|chunk| chunk.iter().map(|e| edge(e)).collect())
        .collect();
    for nullable_diagonal in [false, true] {
        let options = cfpq_core::relational::SolveOptions { nullable_diagonal };
        let query = PreparedQuery::from_wcnf(wcnf.clone()).options(options);
        for single_path_first in [false, true] {
            let counted = BoolBatches::new(engine.clone());
            let mut linked = CfpqSession::new(counted.clone(), &base);
            let (id, sp) = if single_path_first {
                let sp = linked.prepare_single_path_query(query.clone());
                (linked.prepare_query(query.clone()), sp)
            } else {
                let id = linked.prepare_query(query.clone());
                (id, linked.prepare_single_path_query(query.clone()))
            };
            let plain_counted = BoolBatches::new(engine.clone());
            let mut plain = CfpqSession::new(plain_counted.clone(), &base);
            let plain_id = plain.prepare_query(query.clone());
            let mut answer = linked.evaluate(id);
            check_same_answer(&answer, &plain.evaluate(plain_id), wcnf)?;
            for (b, edges) in batches.iter().enumerate() {
                let hold = b % 2 == 0;
                let before = std::ptr::from_ref(linked.single_path_index(sp).expect("read"));
                let held = hold.then(|| (answer.start_pairs().to_vec(), answer));
                prop_assert_eq!(linked.add_edges(edges), plain.add_edges(edges));
                answer = linked.evaluate(id);
                prop_assert!(linked.last_single_path_run(sp).expect("read").incremental);
                let after = std::ptr::from_ref(linked.single_path_index(sp).expect("read"));
                prop_assert_eq!(before == after, !hold, "batch {}: in place iff unshared", b);
                if let Some((pairs, old)) = held {
                    prop_assert_eq!(old.start_pairs(), pairs.as_slice(), "the old relation");
                }
                check_same_answer(&answer, &plain.evaluate(plain_id), wcnf)?;
            }
            prop_assert!(linked.last_run(id).is_none(), "every run is the lengths'");
            prop_assert_eq!(
                counted.launched(),
                0,
                "a linked read multiplies lengths only"
            );
            prop_assert!(plain_counted.launched() > 0, "the Boolean closure does not");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(6, RNG_SEED))]

    #[test]
    fn a_linked_relational_read_equals_the_boolean_closure(
        graph_seed in 0u64..1000,
        n_nodes in 3usize..8,
        batch in 1usize..4,
    ) {
        let grammars = ["S -> a S b | a b | S S", "S -> a S b | S S | eps"];
        for src in grammars {
            let wcnf = Cfg::parse(src).unwrap().to_wcnf(CnfOptions::default()).unwrap();
            let graph = generators::random_graph(n_nodes, 3 * n_nodes, &["a", "b"], graph_seed);
            check_linked(DenseEngine, &graph, &wcnf, batch)?;
            check_linked(SparseEngine, &graph, &wcnf, batch)?;
            check_linked(ParDenseEngine::new(Device::new(2)), &graph, &wcnf, batch)?;
            check_linked(ParSparseEngine::new(Device::new(3)), &graph, &wcnf, batch)?;
            check_linked(TiledEngine::new(Device::new(2)), &graph, &wcnf, batch)?;
        }
    }
}

/// Single-path repairs of a closure whose cold solve trimmed it (so the
/// first merge of each repair finds no room in the arena), on the tiled
/// engine over three tile-rows: `graph`'s first half of edges
/// cold-solved, then the rest in batches of `batch` edges. After every
/// batch each nonterminal's pairs equal a cold solve of the grown graph,
/// and the repaired lengths of some start pairs extract to valid
/// witnesses.
fn check_trimmed_repairs(graph: &Graph, wcnf: &Wcnf, batch: usize) -> Result<(), TestCaseError> {
    let edge = |e: &cfpq_graph::Edge| (e.from, graph.label_name(e.label), e.to);
    let half = graph.n_edges() / 2;
    let mut grown = Graph::new(graph.n_nodes());
    for e in &graph.edges()[..half] {
        grown.add_edge_named(e.from, graph.label_name(e.label), e.to);
    }
    let engine = TiledEngine::new(Device::new(2));
    let mut session = CfpqSession::new(engine.clone(), &grown);
    let sp = session.prepare_single_path_query(PreparedQuery::from_wcnf(wcnf.clone()));
    session.evaluate_single_path(sp);
    for (b, edges) in graph.edges()[half..].chunks(batch).enumerate() {
        for e in edges {
            grown.add_edge_named(e.from, graph.label_name(e.label), e.to);
        }
        let edges: Vec<_> = edges.iter().map(edge).collect();
        session.add_edges(&edges);
        let repaired = session.evaluate_single_path(sp);
        let cold = SinglePathSolver::new(&engine).solve(&grown, wcnf);
        for a in 0..wcnf.n_nts() {
            let nt = Nt(a as u32);
            prop_assert_eq!(repaired.pairs(nt), cold.pairs(nt), "batch {}: {:?}", b, nt);
        }
        for (i, j) in repaired.pairs(wcnf.start).into_iter().step_by(97).take(8) {
            let path = extract_path(repaired, &grown, wcnf, wcnf.start, i, j).unwrap();
            prop_assert!(validate_witness(&path, &grown, wcnf, wcnf.start, i, j));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(4, RNG_SEED))]

    #[test]
    fn tiled_lengths_repair_after_a_trimmed_cold_solve_as_a_cold_solve(
        graph_seed in 0u64..1000,
        n_nodes in 130usize..192,
        batch in 20usize..60,
    ) {
        let wcnf = &grammars()[0];
        let graph = generators::random_graph(n_nodes, 2 * n_nodes, &["a", "b"], graph_seed);
        check_trimmed_repairs(&graph, wcnf, batch)?;
    }
}

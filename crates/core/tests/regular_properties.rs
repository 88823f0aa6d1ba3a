//! Fixed-seed property suite for the unified RPQ pipeline.
//!
//! Every regular query has three independent formulations in this
//! workspace, and they must agree byte-for-byte:
//!
//! 1. the **product-graph oracle** [`solve_regular`] — hand-rolled,
//!    unmasked, rebuilt-from-scratch on every call;
//! 2. the **compiled pipeline** — the NFA lowered through
//!    [`cfpq_core::CompiledQuery`] into an RSM state grammar and solved
//!    by the session's masked semi-naive fixpoint against materialized
//!    label matrices;
//! 3. the **equivalent right-linear grammar** under Algorithm 1 (plain
//!    CFPQ on a regular grammar).
//!
//! The suite triangulates all three on fixed-seed random graphs across
//! all five matrix engines, holds the compiled RPQ to no more cold
//! products than its right-linear grammar (and compiled CFG boxes to no
//! more than the CNF route), checks that incremental repair after
//! `add_edges` answers exactly what a from-scratch solve answers, and
//! pins the materialization contract: evaluating a compiled RPQ through
//! a session performs **zero** `from_pairs` label-matrix builds — the
//! pipeline serves the `GraphIndex`'s matrices, it never rebuilds them
//! per query (the oracle, by design, does).

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use cfpq_core::regular::{solve_regular, Nfa};
use cfpq_core::relational::SolveOptions;
use cfpq_core::session::PreparedQuery;
use cfpq_core::{CfpqSession, CompiledQuery};
use cfpq_grammar::{queries, Cfg, Nt};
use cfpq_graph::{generators, Graph};
use cfpq_matrix::{
    BoolEngine, BoolMat, DenseEngine, Device, KernelCounters, LenEngine, MaskedJob, ParDenseEngine,
    ParSparseEngine, SparseEngine, TiledEngine,
};

/// Base RNG seed shared with the workspace's other fixed-seed suites.
const RNG_SEED: u64 = 0x5E4_71CE;

/// The NFA/grammar equivalence cases: each pair denotes the same
/// regular language, so oracle, pipeline, and Algorithm 1 on the
/// right-linear grammar must coincide.
fn cases() -> Vec<(Nfa, Cfg)> {
    let grammar = |text| Cfg::parse(text).unwrap();
    // (a | b) c*, entered at either of two start states.
    let mut two_starts = Nfa::new(3);
    two_starts
        .start(0)
        .start(1)
        .accept(2)
        .transition(0, "a", 2)
        .transition(1, "b", 2)
        .transition(2, "c", 2);
    // (ab)+, accepting at the start state.
    let mut accepting_start = Nfa::new(2);
    accepting_start
        .start(0)
        .accept(0)
        .transition(0, "a", 1)
        .transition(1, "b", 0);
    // a b*, beside a state no run reaches (2) and one no run leaves
    // accepting (3).
    let mut unreachable_and_dead = Nfa::new(4);
    unreachable_and_dead
        .start(0)
        .accept(1)
        .transition(0, "a", 1)
        .transition(1, "b", 1)
        .transition(2, "a", 1)
        .transition(0, "c", 3)
        .transition(3, "a", 3);
    vec![
        (Nfa::plus("a"), grammar("S -> a S | a")),
        (Nfa::star_then("a", "b"), grammar("S -> a S | b")),
        (Nfa::word(&["a", "b"]), grammar("S -> a B\nB -> b")),
        (two_starts, grammar("S -> a C | b C | a | b\nC -> c C | c")),
        (accepting_start, grammar("S -> a B\nB -> b S | b")),
        (unreachable_and_dead, grammar("S -> a B | a\nB -> b B | b")),
        (
            Nfa::word(&["a", "b", "c"]),
            grammar("S -> a B\nB -> b C\nC -> c"),
        ),
    ]
}

/// Triangulates one engine: for every case and seed, the three
/// formulations answer identically on the same graph, and the compiled
/// RPQ launches no more cold products than its right-linear grammar.
fn triangulate<E, F>(mk: F)
where
    E: BoolEngine + LenEngine,
    F: Fn() -> E,
{
    for (case, (nfa, grammar)) in cases().into_iter().enumerate() {
        for round in 0..4u64 {
            let seed = RNG_SEED
                .wrapping_add(case as u64)
                .wrapping_mul(31)
                .wrapping_add(round);
            let graph = generators::random_graph(9, 22, &["a", "b", "c"], seed);
            let engine = mk();
            let oracle = solve_regular(&engine, &graph, &nfa).pairs();
            let mut session = CfpqSession::new(engine, &graph);
            let rpq = session.prepare_regular(&nfa);
            let cfpq = session.prepare(&grammar).unwrap();
            assert_eq!(
                session.evaluate(rpq).start_pairs(),
                oracle,
                "[{}] pipeline vs oracle, case {case}, round {round}",
                mk().name(),
            );
            assert_eq!(
                session.evaluate(cfpq).start_pairs(),
                oracle,
                "[{}] regular-grammar CFPQ vs oracle, case {case}, round {round}",
                mk().name(),
            );
            let run = session.last_run(rpq).unwrap();
            assert!(!run.incremental, "cold solve is not a repair");
            assert!(
                run.stats.products_computed > 0,
                "the pipeline populates SolveStats"
            );
            let grammar_products = session.last_run(cfpq).unwrap().stats.products_computed;
            assert!(
                run.stats.products_computed <= grammar_products,
                "[{}] case {case}, round {round}: compiled {} vs right-linear grammar {grammar_products} products",
                mk().name(),
                run.stats.products_computed,
            );
        }
    }
}

/// Incremental repair after `add_edges` must answer exactly what a
/// from-scratch session on the grown graph answers — and both must
/// match the oracle replayed on that graph.
fn repair_vs_scratch<E, F>(mk: F)
where
    E: BoolEngine + LenEngine,
    F: Fn() -> E,
{
    for (case, (nfa, _)) in cases().into_iter().enumerate() {
        let graph = generators::random_graph(8, 14, &["a", "b"], RNG_SEED ^ case as u64);
        let mut session = CfpqSession::new(mk(), &graph);
        let rpq = session.prepare_regular(&nfa);
        session.evaluate(rpq);

        // The batch mixes new edges on known labels with an edge naming
        // an unseen node id (forcing the node universe to grow).
        let batch: &[(u32, &str, u32)] = &[(0, "b", 3), (2, "a", 5), (7, "a", 9)];
        let inserted = session.add_edges(batch);
        assert!(inserted > 0, "the batch grows the graph");

        let mut grown = Graph::new(10);
        for e in graph.edges() {
            grown.add_edge_named(e.from, graph.label_name(e.label), e.to);
        }
        for &(u, l, v) in batch {
            grown.add_edge_named(u, l, v);
        }

        let repaired = session.evaluate(rpq).start_pairs().to_vec();
        assert!(
            session.last_run(rpq).unwrap().incremental,
            "the second evaluation is an incremental repair"
        );
        let mut scratch = CfpqSession::new(mk(), &grown);
        let scratch_id = scratch.prepare_regular(&nfa);
        assert_eq!(
            repaired,
            scratch.evaluate(scratch_id).start_pairs(),
            "[{}] repair vs scratch, case {case}",
            mk().name(),
        );
        assert_eq!(
            repaired,
            solve_regular(&mk(), &grown, &nfa).pairs(),
            "[{}] repair vs oracle, case {case}",
            mk().name(),
        );
    }
}

#[test]
fn three_formulations_agree_on_all_engines() {
    triangulate(|| SparseEngine);
    triangulate(|| DenseEngine);
    triangulate(|| ParDenseEngine::new(Device::new(2)));
    triangulate(|| ParSparseEngine::new(Device::new(2)));
    triangulate(|| TiledEngine::new(Device::new(2)));
}

#[test]
fn repair_matches_scratch_on_all_engines() {
    repair_vs_scratch(|| SparseEngine);
    repair_vs_scratch(|| DenseEngine);
    repair_vs_scratch(|| ParDenseEngine::new(Device::new(2)));
    repair_vs_scratch(|| ParSparseEngine::new(Device::new(2)));
    repair_vs_scratch(|| TiledEngine::new(Device::new(2)));
}

/// On the two smallest evaluation ontologies, re-inserting the last (up
/// to) ten query-relevant edges through a session repairs the RPQ
/// closure — reaching the cold solve's answer — with no more products
/// than the cold solve of the full graph launches, plus one per rule
/// whose two operands both received seeds.
///
/// That allowance is the semi-naive loop's first sweep. A cold first
/// sweep has Δ = T, so `L × R` is both `ΔL × R` and `L × ΔR`: one
/// product per rule. A repair's first sweep runs both halves for a rule
/// whose operands both took seeds — `Rpq → T<subClassOf> Rpq` when the
/// batch holds `subClassOf` edges, which seed `T<subClassOf>` and `Rpq`
/// alike — and one for the rest. From then on both runs launch one
/// product per non-empty Δ operand, and a ten-edge batch has not taken
/// the repair through more sweeps than the cold solve on these graphs.
#[test]
fn repair_launches_no_more_products_than_cold_on_the_ontologies() {
    let queries = [
        Nfa::plus("subClassOf"),
        Nfa::star_then("subClassOf", "type_r"),
    ];
    for name in ["skos", "generations"] {
        let graph = cfpq_graph::ontology::dataset(name).unwrap().to_graph();
        for nfa in &queries {
            let in_alphabet = |label| {
                let name = graph.label_name(label);
                nfa.transitions().iter().any(|(_, l, _)| l == name)
            };
            let relevant: Vec<usize> = (0..graph.n_edges())
                .filter(|&i| in_alphabet(graph.edges()[i].label))
                .collect();
            let held = &relevant[relevant.len().saturating_sub(10)..];
            assert!(!held.is_empty(), "{name} has query-relevant edges");
            let mut base = Graph::new(graph.n_nodes());
            let mut batch = Vec::new();
            for (i, e) in graph.edges().iter().enumerate() {
                let label = graph.label_name(e.label);
                if held.contains(&i) {
                    batch.push((e.from, label, e.to));
                } else {
                    base.add_edge_named(e.from, label, e.to);
                }
            }

            let mut cold = CfpqSession::new(SparseEngine, &graph);
            let cold_id = cold.prepare_regular(nfa);
            let expect = cold.evaluate(cold_id);
            let cold_products = cold.last_run(cold_id).unwrap().stats.products_computed;
            assert!(cold_products > 0, "the pipeline populates SolveStats");

            let mut session = CfpqSession::new(SparseEngine, &base);
            let id = session.prepare_regular(nfa);
            session.evaluate(id);
            assert_eq!(session.add_edges(&batch), batch.len());
            assert_eq!(session.evaluate(id).start_pairs(), expect.start_pairs());
            let repair = session.last_run(id).unwrap();
            assert!(repair.incremental);
            let both_seeded = rules_with_both_operands_seeded(nfa, &batch);
            assert!(
                repair.stats.products_computed <= cold_products + both_seeded,
                "{name}: repair {} vs cold {cold_products} + {both_seeded}",
                repair.stats.products_computed
            );
        }
    }
}

/// Compiled CFG boxes against the CNF route: on the smaller evaluation
/// ontologies, `prepare_rsm` answers what `prepare` answers for every
/// nonterminal of the paper's two queries and of the nullable `S -> a S
/// b | eps` (with `a`, `b` the ontology's `subClassOf_r`, `subClassOf`;
/// the CNF side reports the ε-diagonal too), and its cold solve launches
/// no more products.
#[test]
fn compiled_boxes_match_the_cnf_route_with_no_more_products() {
    let grammars = [
        ("Q1", queries::query1()),
        ("Q2", queries::query2()),
        (
            "a S b | eps",
            Cfg::parse("S -> subClassOf_r S subClassOf | eps").unwrap(),
        ),
    ];
    for dataset in [
        "skos",
        "generations",
        "travel",
        "univ-bench",
        "atom-primitive",
    ] {
        let graph = cfpq_graph::ontology::dataset(dataset).unwrap().to_graph();
        for (name, grammar) in &grammars {
            let mut session = CfpqSession::new(SparseEngine, &graph);
            let compiled = session.prepare_rsm(grammar).unwrap();
            let cnf =
                session.prepare_query(PreparedQuery::new(grammar).unwrap().options(SolveOptions {
                    nullable_diagonal: true,
                }));
            let (rsm_answer, cnf_answer) = (session.evaluate(compiled), session.evaluate(cnf));
            for (_, nt) in grammar.symbols.nts() {
                assert_eq!(
                    rsm_answer.pairs(nt),
                    cnf_answer.pairs(nt),
                    "{dataset} {name}: {nt}"
                );
            }
            let products = |id| session.last_run(id).unwrap().stats.products_computed;
            assert!(
                products(compiled) <= products(cnf),
                "{dataset} {name}: compiled {} vs CNF route {} products",
                products(compiled),
                products(cnf)
            );
        }
    }
}

/// Operand pairs of `nfa`'s lowering (the loop runs one product per
/// pair, however many rules share it) whose two nonterminals both derive
/// a label of `batch`.
fn rules_with_both_operands_seeded(nfa: &Nfa, batch: &[(u32, &str, u32)]) -> usize {
    let compiled = CompiledQuery::from_nfa(nfa);
    let wcnf = compiled.wcnf();
    let seeded: HashSet<Nt> = wcnf
        .term_rules
        .iter()
        .filter(|r| {
            let label = wcnf.symbols.term_name(r.term);
            batch.iter().any(|&(_, l, _)| l == label)
        })
        .map(|r| r.lhs)
        .collect();
    let pairs: HashSet<(Nt, Nt)> = wcnf
        .binary_rules
        .iter()
        .filter(|r| seeded.contains(&r.left) && seeded.contains(&r.right))
        .map(|r| (r.left, r.right))
        .collect();
    pairs.len()
}

/// A transparent decorator over [`SparseEngine`] that counts
/// `from_pairs` calls — the kernel that materializes a matrix from an
/// edge list. Every other method delegates explicitly (including the
/// ones with `from_pairs`-based default implementations, so a default
/// fallback can't silently inflate or hide the count).
#[derive(Clone)]
struct CountingEngine {
    inner: SparseEngine,
    from_pairs_calls: Arc<AtomicUsize>,
}

impl CountingEngine {
    fn new() -> Self {
        Self {
            inner: SparseEngine,
            from_pairs_calls: Arc::new(AtomicUsize::new(0)),
        }
    }

    fn builds(&self) -> usize {
        self.from_pairs_calls.load(Ordering::Relaxed)
    }
}

impl BoolEngine for CountingEngine {
    type Matrix = <SparseEngine as BoolEngine>::Matrix;

    fn name(&self) -> &'static str {
        "sparse-counting"
    }
    fn zeros(&self, n: usize) -> Self::Matrix {
        self.inner.zeros(n)
    }
    fn from_pairs(&self, n: usize, pairs: &[(u32, u32)]) -> Self::Matrix {
        self.from_pairs_calls.fetch_add(1, Ordering::Relaxed);
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
    fn multiply_batch(&self, jobs: &[(&Self::Matrix, &Self::Matrix)]) -> Vec<Self::Matrix> {
        self.inner.multiply_batch(jobs)
    }
    fn multiply_masked(
        &self,
        a: &Self::Matrix,
        b: &Self::Matrix,
        complement_mask: &Self::Matrix,
    ) -> Self::Matrix {
        self.inner.multiply_masked(a, b, complement_mask)
    }
    fn multiply_masked_batch(&self, jobs: &[MaskedJob<'_, Self::Matrix>]) -> Vec<Self::Matrix> {
        self.inner.multiply_masked_batch(jobs)
    }
    fn kernel_counters(&self) -> KernelCounters {
        self.inner.kernel_counters()
    }
}

impl LenEngine for CountingEngine {
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
        self.inner.len_set_absent(a, entries)
    }
    fn len_multiply(&self, a: &Self::LenMatrix, b: &Self::LenMatrix) -> Self::LenMatrix {
        self.inner.len_multiply(a, b)
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

/// The materialization contract behind the unified pipeline: the
/// session's `GraphIndex` builds each label matrix once, on its first
/// read, and compiled queries (RPQ and CFPQ alike) are evaluated — cold
/// solve *and* incremental repair — without a single additional
/// `from_pairs` materialization. The standalone oracle, by contrast, rebuilds its
/// label matrices on every call.
#[test]
fn pipeline_never_rematerializes_label_matrices() {
    let graph = generators::random_graph(8, 16, &["a", "b"], RNG_SEED ^ 0xF00D);
    let nfa = Nfa::star_then("a", "b");

    // The oracle pays a per-call rebuild.
    let oracle_engine = CountingEngine::new();
    solve_regular(&oracle_engine, &graph, &nfa).pairs();
    let per_call = oracle_engine.builds();
    assert!(per_call > 0, "the oracle builds label matrices per call");
    solve_regular(&oracle_engine, &graph, &nfa).pairs();
    assert_eq!(
        oracle_engine.builds(),
        2 * per_call,
        "…and again on every subsequent call"
    );

    // The session pays materialization once per label, on its first
    // read: building the index builds nothing.
    let engine = CountingEngine::new();
    let counter = engine.from_pairs_calls.clone();
    let mut session = CfpqSession::new(engine, &graph);
    assert_eq!(counter.load(Ordering::Relaxed), 0, "no label read yet");

    let rpq = session.prepare_regular(&nfa);
    let cfpq = session
        .prepare(&Cfg::parse("S -> a S | b").unwrap())
        .unwrap();
    session.evaluate(rpq);
    session.evaluate(cfpq);
    let after_index = counter.load(Ordering::Relaxed);
    assert_eq!(
        after_index,
        session.index().n_labels(),
        "the cold solves build each label once, and nothing else"
    );
    session.evaluate(rpq);
    session.evaluate(cfpq);
    assert_eq!(
        counter.load(Ordering::Relaxed),
        after_index,
        "cold solves and cache hits serve the index's matrices — zero rematerialization"
    );

    // Incremental repair materializes only batch-sized Δ-seed matrices
    // (one per nonterminal receiving new seeds), never the label
    // matrices themselves — and a re-evaluation after the repair builds
    // nothing at all.
    session.add_edges(&[(0, "a", 9), (1, "b", 2)]);
    session.evaluate(rpq);
    session.evaluate(cfpq);
    let delta_builds = counter.load(Ordering::Relaxed) - after_index;
    assert!(
        delta_builds <= 8,
        "repair builds Δ-seeds only (got {delta_builds} builds for a 2-edge batch)"
    );
    let after_repair = counter.load(Ordering::Relaxed);
    session.evaluate(rpq);
    session.evaluate(cfpq);
    assert_eq!(
        counter.load(Ordering::Relaxed),
        after_repair,
        "post-repair evaluations build nothing"
    );
}

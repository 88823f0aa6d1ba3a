//! Every call into the program under test lives in this file; the rest
//! of the benchmark sees only the types defined here. Public symbols of
//! the program used (nothing else — in particular no `AdaptiveEngine`,
//! `Par*Engine`, `Strategy`, `Device` or `crates/bench` item, so those
//! can be deleted or reshaped without touching the benchmark):
//!
//! * engines: `BoolEngine`, `LenEngine`, `BoolMat`, `LenMat`,
//!   `KernelCounters`, `MaskedJob`, `LenJob`, `TiledEngine::serial`,
//!   `SparseEngine`;
//! * index and session: `GraphIndex::{build, engine}`,
//!   `PreparedQuery::{new, wcnf}`, `CfpqSession::{new, over, prepare,
//!   prepare_regular, prepare_single_path, evaluate,
//!   evaluate_single_path, add_edges, last_run, last_single_path_run}`,
//!   `solve_prepared`, `solve_prepared_single_path`,
//!   `QueryAnswer::{from_index, start_pairs, start_count}`,
//!   `RelationalIndex::{count, matrices, iterations, stats}`,
//!   `SinglePathIndex::{pairs, iterations, stats}`, `SolveStats`,
//!   `CompiledQuery::{from_nfa, into_prepared}`, `Nfa::{plus, star_then}`,
//!   `extract_path`, `validate_witness`;
//! * service: `CfpqService::{over, prepare, prepare_regular,
//!   prepare_single_path, enqueue, enqueue_single_path, enqueue_paths,
//!   add_edges, stats, metrics}`, `ServiceConfig::new`, `Ticket::wait`,
//!   `TicketAnswer`, `PairPaths`, `PageRequest`,
//!   `MetricsRegistry::{histogram, gauge}`;
//! * inputs: `Graph::{new, add_edge_named, edges, label_name, n_nodes,
//!   n_edges}`, `ontology::{profile, OntologyProfile::generate}`,
//!   `TripleSet::to_graph`, `generators::{clustered_blocks,
//!   random_graph}`, `queries::{query1, query2, an_bn}`, `Cfg::to_wcnf`;
//! * oracles: `baselines::hellings::solve_hellings`,
//!   `core::regular::solve_regular`;
//! * trace check: `obs::trace::validate_chrome_trace`.

use crate::openloop::{self, Kind, TicketSpec};
use crate::stats::Rng;
use crate::trace;
use cfpq::baselines::hellings::solve_hellings;
use cfpq::core::all_paths::PageRequest;
use cfpq::core::compile::CompiledQuery;
use cfpq::core::query::QueryAnswer;
use cfpq::core::regular::{solve_regular, Nfa};
use cfpq::core::session::{
    solve_prepared, solve_prepared_single_path, CfpqSession, GraphIndex, PreparedQuery, QueryId,
    SinglePathId,
};
use cfpq::core::single_path::{extract_path, validate_witness};
use cfpq::grammar::{queries, Cfg, CnfOptions, Wcnf};
use cfpq::graph::generators::{clustered_blocks, random_graph};
use cfpq::graph::ontology::{profile, OntologyProfile};
use cfpq::graph::{Edge, Graph};
use cfpq::matrix::{
    BoolEngine, BoolMat, KernelCounters, LenEngine, LenJob, MaskedJob, SparseEngine, TiledEngine,
};
use cfpq::service::{CfpqService, PairPaths, ServiceConfig, Ticket, TicketAnswer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// TimedEngine: the matrix layer, measured from outside
// ---------------------------------------------------------------------------

/// Number of kernel classes ([`crate::metrics::KERNEL_CLASSES`]).
const CLASSES: usize = 8;
const MUL: usize = 0;
const UNION: usize = 1;
const DIFF: usize = 2;
const BUILD: usize = 3;
const UPDATE: usize = 4;
const LEN_MUL: usize = 5;
const LEN_MERGE: usize = 6;
const LEN_BUILD: usize = 7;
const CLASS_SPANS: [&str; CLASSES] = [
    "matrix.mul",
    "matrix.union",
    "matrix.diff",
    "matrix.build",
    "matrix.update",
    "matrix.len_mul",
    "matrix.len_merge",
    "matrix.len_build",
];

#[derive(Default)]
struct KernelStats {
    calls: [AtomicU64; CLASSES],
    busy_ns: [AtomicU64; CLASSES],
}

/// Work the wrapped engine did so far, per kernel class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelSnapshot {
    pub calls: [u64; CLASSES],
    pub busy_ns: [u64; CLASSES],
    pub tiles_skipped: u64,
}

impl KernelSnapshot {
    pub fn since(self, earlier: KernelSnapshot) -> KernelSnapshot {
        let mut d = KernelSnapshot {
            tiles_skipped: self.tiles_skipped - earlier.tiles_skipped,
            ..Default::default()
        };
        for c in 0..CLASSES {
            d.calls[c] = self.calls[c] - earlier.calls[c];
            d.busy_ns[c] = self.busy_ns[c] - earlier.busy_ns[c];
        }
        d
    }
}

/// A decorator that times every call into the engine it wraps and opens
/// one span per call. It follows the three decorator rules documented on
/// `BoolEngine`: batches are delegated whole (a batch is timed as one
/// call and counted per job), every method with a default body forwards
/// to the inner engine's version, and `kernel_counters` is forwarded.
/// The counters are shared by clones, so the copies a service hands to
/// its threads add up in one place.
#[derive(Clone)]
pub struct TimedEngine<E> {
    inner: E,
    stats: Arc<KernelStats>,
}

impl<E> TimedEngine<E> {
    pub fn new(inner: E) -> Self {
        Self {
            inner,
            stats: Arc::default(),
        }
    }

    fn timed<T>(&self, class: usize, jobs: usize, f: impl FnOnce(&E) -> T) -> T {
        let _span = trace::span(CLASS_SPANS[class]);
        let started = Instant::now();
        let out = f(&self.inner);
        // Relaxed: statistics only, they publish no other data.
        self.stats.busy_ns[class].fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.stats.calls[class].fetch_add(jobs as u64, Ordering::Relaxed);
        out
    }
}

impl<E: BoolEngine> BoolEngine for TimedEngine<E> {
    type Matrix = E::Matrix;

    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn zeros(&self, n: usize) -> Self::Matrix {
        self.timed(BUILD, 1, |e| e.zeros(n))
    }
    fn from_pairs(&self, n: usize, pairs: &[(u32, u32)]) -> Self::Matrix {
        self.timed(BUILD, 1, |e| e.from_pairs(n, pairs))
    }
    fn multiply(&self, a: &Self::Matrix, b: &Self::Matrix) -> Self::Matrix {
        self.timed(MUL, 1, |e| e.multiply(a, b))
    }
    fn union_in_place(&self, a: &mut Self::Matrix, b: &Self::Matrix) -> bool {
        self.timed(UNION, 1, |e| e.union_in_place(a, b))
    }
    fn union_pairs(&self, a: &mut Self::Matrix, pairs: &[(u32, u32)]) -> bool {
        self.timed(UPDATE, 1, |e| e.union_pairs(a, pairs))
    }
    fn grow(&self, a: &mut Self::Matrix, n: usize) {
        self.timed(UPDATE, 1, |e| e.grow(a, n))
    }
    fn difference(&self, a: &Self::Matrix, b: &Self::Matrix) -> Self::Matrix {
        self.timed(DIFF, 1, |e| e.difference(a, b))
    }
    fn intersect(&self, a: &Self::Matrix, b: &Self::Matrix) -> Self::Matrix {
        self.timed(DIFF, 1, |e| e.intersect(a, b))
    }
    fn multiply_batch(&self, jobs: &[(&Self::Matrix, &Self::Matrix)]) -> Vec<Self::Matrix> {
        self.timed(MUL, jobs.len(), |e| e.multiply_batch(jobs))
    }
    fn multiply_masked(
        &self,
        a: &Self::Matrix,
        b: &Self::Matrix,
        complement_mask: &Self::Matrix,
    ) -> Self::Matrix {
        self.timed(MUL, 1, |e| e.multiply_masked(a, b, complement_mask))
    }
    fn multiply_masked_batch(&self, jobs: &[MaskedJob<'_, Self::Matrix>]) -> Vec<Self::Matrix> {
        self.timed(MUL, jobs.len(), |e| e.multiply_masked_batch(jobs))
    }
    fn kernel_counters(&self) -> KernelCounters {
        self.inner.kernel_counters()
    }
}

impl<E: LenEngine> LenEngine for TimedEngine<E> {
    type LenMatrix = E::LenMatrix;

    fn len_empty(&self, n: usize) -> Self::LenMatrix {
        self.timed(LEN_BUILD, 1, |e| e.len_empty(n))
    }
    fn len_from_entries(&self, n: usize, entries: &[(u32, u32, u32)]) -> Self::LenMatrix {
        self.timed(LEN_BUILD, 1, |e| e.len_from_entries(n, entries))
    }
    fn len_set_absent(
        &self,
        a: &mut Self::LenMatrix,
        entries: &[(u32, u32, u32)],
    ) -> Vec<(u32, u32, u32)> {
        self.timed(LEN_MERGE, 1, |e| e.len_set_absent(a, entries))
    }
    fn len_multiply(&self, a: &Self::LenMatrix, b: &Self::LenMatrix) -> Self::LenMatrix {
        self.timed(LEN_MUL, 1, |e| e.len_multiply(a, b))
    }
    fn len_multiply_masked(
        &self,
        a: &Self::LenMatrix,
        b: &Self::LenMatrix,
        mask: Option<&Self::LenMatrix>,
    ) -> Self::LenMatrix {
        self.timed(LEN_MUL, 1, |e| e.len_multiply_masked(a, b, mask))
    }
    fn len_multiply_masked_batch(
        &self,
        jobs: &[LenJob<'_, Self::LenMatrix>],
    ) -> Vec<Self::LenMatrix> {
        self.timed(LEN_MUL, jobs.len(), |e| e.len_multiply_masked_batch(jobs))
    }
    fn len_merge_absent(
        &self,
        acc: &mut Self::LenMatrix,
        add: &Self::LenMatrix,
    ) -> Self::LenMatrix {
        self.timed(LEN_MERGE, 1, |e| e.len_merge_absent(acc, add))
    }
    fn len_grow(&self, a: &mut Self::LenMatrix, n: usize) {
        self.timed(LEN_BUILD, 1, |e| e.len_grow(a, n))
    }
}

/// The engines the benchmark runs on: a raw inline engine for the
/// end-to-end numbers, the same engine under [`TimedEngine`] for the
/// per-layer numbers.
pub trait Engine: BoolEngine + LenEngine + Clone + 'static {
    /// `Some` under a [`TimedEngine`], `None` on a raw engine.
    fn kernel_snapshot(&self) -> Option<KernelSnapshot>;
}

impl Engine for TiledEngine {
    fn kernel_snapshot(&self) -> Option<KernelSnapshot> {
        None
    }
}

impl Engine for SparseEngine {
    fn kernel_snapshot(&self) -> Option<KernelSnapshot> {
        None
    }
}

impl<E: BoolEngine + LenEngine + Clone + 'static> Engine for TimedEngine<E> {
    fn kernel_snapshot(&self) -> Option<KernelSnapshot> {
        let mut s = KernelSnapshot {
            tiles_skipped: self.inner.kernel_counters().tiles_skipped,
            ..Default::default()
        };
        for c in 0..CLASSES {
            s.calls[c] = self.stats.calls[c].load(Ordering::Relaxed);
            s.busy_ns[c] = self.stats.busy_ns[c].load(Ordering::Relaxed);
        }
        Some(s)
    }
}

// ---------------------------------------------------------------------------
// Inputs: graphs and grammars, all from the seed
// ---------------------------------------------------------------------------

/// The four labels Q1, Q2 and the RPQs traverse; edges held out for the
/// update workloads are drawn from these, so every held-out edge matters
/// to some query.
const QUERY_LABELS: [&str; 4] = ["subClassOf", "subClassOf_r", "type", "type_r"];

/// g3 of the paper's Table 1 — eight disjoint pizza ontologies, 4,440
/// nodes and 31,680 edges — except that each of the eight is seeded
/// independently instead of being one ontology repeated: a run then
/// averages over eight draws of the generator, which keeps seed-to-seed
/// spread of the timings well under the regression bounds.
fn ontology_g3(rng: &mut Rng) -> Graph {
    let pizza = *profile("pizza").expect("the pizza profile exists");
    let parts: Vec<Graph> = (0..8)
        .map(|_| {
            OntologyProfile {
                seed: pizza.seed ^ rng.next_u64(),
                ..pizza
            }
            .generate()
            .to_graph()
        })
        .collect();
    let mut g = Graph::new(parts.iter().map(Graph::n_nodes).sum());
    let mut offset = 0u32;
    for part in &parts {
        for e in part.edges() {
            g.add_edge_named(e.from + offset, part.label_name(e.label), e.to + offset);
        }
        offset += part.n_nodes() as u32;
    }
    g
}

/// Splits `graph` into a base graph and `n` seeded held-out edges on the
/// query labels, in the order they will be fed back.
fn hold_out(graph: &Graph, n: usize, rng: &mut Rng) -> (Graph, Vec<(u32, &'static str, u32)>) {
    let label_of = |e: &Edge| {
        let name = graph.label_name(e.label);
        QUERY_LABELS.iter().copied().find(|l| *l == name)
    };
    let mut candidates: Vec<usize> = (0..graph.edges().len())
        .filter(|&i| label_of(&graph.edges()[i]).is_some())
        .collect();
    rng.shuffle(&mut candidates);
    candidates.truncate(n);
    assert_eq!(candidates.len(), n, "graph has too few query-label edges");
    let held: Vec<(u32, &'static str, u32)> = candidates
        .iter()
        .map(|&i| {
            let e = &graph.edges()[i];
            (e.from, label_of(e).expect("filtered above"), e.to)
        })
        .collect();
    let mut is_held = vec![false; graph.edges().len()];
    for &i in &candidates {
        is_held[i] = true;
    }
    let mut base = Graph::new(graph.n_nodes());
    for (i, e) in graph.edges().iter().enumerate() {
        if !is_held[i] {
            base.add_edge_named(e.from, graph.label_name(e.label), e.to);
        }
    }
    (base, held)
}

/// The subgraph on nodes `lo..lo + len`, renumbered from zero — exact
/// for the block generators, whose blocks are disconnected.
fn block_subgraph(graph: &Graph, lo: u32, len: u32) -> Graph {
    let mut g = Graph::new(len as usize);
    for e in graph.edges() {
        if (lo..lo + len).contains(&e.from) {
            g.add_edge_named(e.from - lo, graph.label_name(e.label), e.to - lo);
        }
    }
    g
}

fn wcnf(grammar: &Cfg) -> Wcnf {
    grammar
        .to_wcnf(CnfOptions::default())
        .expect("built-in grammars normalize")
}

fn rpq_queries() -> [Nfa; 2] {
    [
        Nfa::plus("subClassOf"),
        Nfa::star_then("subClassOf", "type_r"),
    ]
}

// ---------------------------------------------------------------------------
// Answers and oracles
// ---------------------------------------------------------------------------

/// Size and order-independent checksum of a set of pairs: what an answer
/// is compared to its oracle by.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    pub count: u64,
    pub sum: u64,
}

impl Digest {
    pub fn of(pairs: impl IntoIterator<Item = (u32, u32)>) -> Digest {
        let mut d = Digest::default();
        for (i, j) in pairs {
            d.count += 1;
            d.sum = d
                .sum
                .wrapping_add(Rng::new((u64::from(i) << 32) | u64::from(j)).next_u64());
        }
        d
    }
}

/// Whether the oracle tells the truth. `Corrupted` exists for the test
/// that a wrong answer is caught: it shifts every oracle digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Oracle {
    Honest,
    #[cfg_attr(not(test), allow(dead_code))]
    Corrupted,
}

impl Oracle {
    fn seal(self, d: Digest) -> Digest {
        match self {
            Oracle::Honest => d,
            Oracle::Corrupted => Digest {
                count: d.count + 1,
                ..d
            },
        }
    }
}

fn hellings_digest(graph: &Graph, grammar: &Wcnf) -> Digest {
    let store = solve_hellings(graph, grammar);
    Digest::of(store.pairs(grammar.start))
}

fn regular_digest(graph: &Graph, nfa: &Nfa) -> Digest {
    Digest::of(solve_regular(&SparseEngine, graph, nfa).pairs())
}

// ---------------------------------------------------------------------------
// The closed-loop workloads
// ---------------------------------------------------------------------------

/// What one workload reports beside its timings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
}

/// One closed-loop workload. `op` is the unit operation and returns the
/// time of its measured part; `settle` runs after the timer stops and
/// reduces the op's output to what the final check needs; `verify` runs
/// the oracles once, after the measured window (and after peak memory is
/// read), and judges every settled op.
pub trait Workload {
    fn op(&mut self, i: usize) -> Duration;
    fn settle(&mut self);
    fn verify(&mut self, oracle: Oracle) -> Verdict;
    fn probe(&self) -> &Probe;
}

/// What a workload exposes to the traced run beside its spans.
#[derive(Clone, Debug, Default)]
pub struct Probe {
    /// Count-type layer metrics of the last op (solver work, grammar and
    /// answer sizes), by metric name. Filled on a traced instance only.
    pub counts: Vec<(&'static str, f64)>,
    /// Kernel work inside the measured part of the last op; `None` on a
    /// raw engine.
    pub kernels: Option<KernelSnapshot>,
    /// Facts about the generated input (`graph.*`), by metric name.
    pub facts: Vec<(&'static str, f64)>,
}

impl Probe {
    fn new(facts: GraphFacts) -> Self {
        Probe {
            facts,
            ..Default::default()
        }
    }
}

/// Kernel work since `before` (a snapshot of the same engine).
fn kernels_since<E: Engine>(engine: &E, before: Option<KernelSnapshot>) -> Option<KernelSnapshot> {
    Some(engine.kernel_snapshot()?.since(before?))
}

/// `graph.*`: median generation time and mean size of a workload's
/// graphs, by metric name.
type GraphFacts = Vec<(&'static str, f64)>;

/// Generates `k` graphs, timing each.
fn generate(k: usize, mut make: impl FnMut() -> Graph) -> (Vec<Graph>, GraphFacts) {
    let mut gen_ms = Vec::new();
    let graphs: Vec<Graph> = (0..k)
        .map(|_| {
            let started = Instant::now();
            let g = make();
            gen_ms.push(started.elapsed().as_secs_f64() * 1e3);
            g
        })
        .collect();
    let mean = |f: fn(&Graph) -> usize| graphs.iter().map(f).sum::<usize>() as f64 / k as f64;
    let facts = vec![
        ("graph.gen_ms", crate::stats::median(&gen_ms).unwrap_or(0.0)),
        ("graph.nodes", mean(Graph::n_nodes)),
        ("graph.edges", mean(Graph::n_edges)),
    ];
    (graphs, facts)
}

fn n_rules(w: &Wcnf) -> f64 {
    (w.binary_rules.len() + w.term_rules.len()) as f64
}

// ----- onto-cold, blocks-cold, sparse-cold ---------------------------------

/// How a cold CFPQ op ends.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ColdStyle {
    /// `CfpqSession::new` + `prepare` + `evaluate`: the full answer is
    /// materialised and checked pair for pair against Hellings.
    FullAnswer,
    /// `GraphIndex::build` + `PreparedQuery::new` + `solve_prepared` +
    /// `count`: the paper's "#results" use. Blocks of `block` nodes are
    /// disconnected, so the first block is checked exactly against
    /// Hellings on its subgraph and later ops against the first count.
    CountOnly { block: u32 },
}

struct ColdInstance {
    graph: Graph,
    /// Digest of the answer the first op on this instance gave (for
    /// `CountOnly`: of its first block), and the full count.
    first: Option<(Digest, u64)>,
}

pub struct Cold<E: Engine> {
    engine: E,
    grammar: Cfg,
    style: ColdStyle,
    instances: Vec<ColdInstance>,
    probe: Probe,
    /// Output of the last op, until settled.
    last: Option<(usize, ColdOutput<E>)>,
    /// Per settled op: instance, digest, full count.
    settled: Vec<(usize, Digest, u64)>,
}

enum ColdOutput<E: Engine> {
    Answer(QueryAnswer),
    Index {
        solved: cfpq::core::RelationalIndex<E::Matrix>,
        count: usize,
    },
}

impl<E: Engine> Cold<E> {
    fn new(engine: E, grammar: Cfg, style: ColdStyle, graphs: (Vec<Graph>, GraphFacts)) -> Self {
        let probe = Probe::new(graphs.1);
        Cold {
            engine,
            grammar,
            style,
            instances: graphs
                .0
                .into_iter()
                .map(|graph| ColdInstance { graph, first: None })
                .collect(),
            probe,
            last: None,
            settled: Vec::new(),
        }
    }

    /// `onto-cold`: Q1 on g3, tiled, full answer.
    pub fn onto(engine: E, seed: u64) -> Self {
        let mut rng = Rng::stream(seed, 1);
        let graphs = generate(8, || ontology_g3(&mut rng));
        Self::new(engine, queries::query1(), ColdStyle::FullAnswer, graphs)
    }

    /// `blocks-cold`: Dyck-1 on 25 dense 512-node blocks, tiled, count only.
    pub fn blocks(engine: E, seed: u64) -> Self {
        let mut rng = Rng::stream(seed, 2);
        let graphs = generate(2, || {
            clustered_blocks(25, 512, 4, &["a", "b"], rng.next_u64())
        });
        let style = ColdStyle::CountOnly { block: 512 };
        Self::new(engine, queries::an_bn(), style, graphs)
    }

    /// `sparse-cold`: Dyck-1 on a hypersparse random graph, CSR, full answer.
    pub fn sparse(engine: E, seed: u64) -> Self {
        let mut rng = Rng::stream(seed, 3);
        let graphs = generate(8, || {
            random_graph(25_000, 37_500, &["a", "b"], rng.next_u64())
        });
        Self::new(engine, queries::an_bn(), ColdStyle::FullAnswer, graphs)
    }
}

impl<E: Engine> Workload for Cold<E> {
    fn op(&mut self, i: usize) -> Duration {
        let inst = i % self.instances.len();
        let graph = &self.instances[inst].graph;
        let before = self.engine.kernel_snapshot();
        let started = Instant::now();
        let output = match (self.style, before) {
            (ColdStyle::FullAnswer, None) => {
                let mut session = CfpqSession::new(self.engine.clone(), graph);
                let q = session
                    .prepare(&self.grammar)
                    .expect("built-in grammar normalizes");
                ColdOutput::Answer(session.evaluate(q))
            }
            // The traced run replays the op as the public stage calls
            // `CfpqSession` makes, one span per stage. The count-only op
            // is those calls already.
            (style, _) => {
                let index = {
                    let _s = trace::span("core.session.index_build");
                    GraphIndex::build(self.engine.clone(), graph)
                };
                let query = {
                    let _s = trace::span("grammar.wcnf");
                    PreparedQuery::new(&self.grammar).expect("built-in grammar normalizes")
                };
                let solved = {
                    let _s = trace::span("core.relational.solve");
                    solve_prepared(&index, &query)
                };
                self.probe.counts = vec![
                    ("core.relational.sweeps", solved.iterations as f64),
                    (
                        "core.relational.products",
                        solved.stats.products_computed as f64,
                    ),
                    (
                        "core.relational.products_skipped",
                        solved.stats.products_skipped as f64,
                    ),
                    ("grammar.rules", n_rules(query.wcnf())),
                ];
                match style {
                    ColdStyle::FullAnswer => {
                        let _s = trace::span("core.query.materialize");
                        let answer =
                            QueryAnswer::from_index(index.engine().name(), query.wcnf(), &solved);
                        self.probe
                            .counts
                            .push(("core.query.answer_pairs", answer.start_count() as f64));
                        ColdOutput::Answer(answer)
                    }
                    ColdStyle::CountOnly { .. } => {
                        let count = solved.count(query.wcnf().start);
                        ColdOutput::Index { solved, count }
                    }
                }
            }
        };
        let elapsed = started.elapsed();
        self.probe.kernels = kernels_since(&self.engine, before);
        self.last = Some((inst, output));
        elapsed
    }

    fn settle(&mut self) {
        let Some((inst, output)) = self.last.take() else {
            return;
        };
        let first = &mut self.instances[inst].first;
        let (digest, count) = match (output, self.style) {
            (ColdOutput::Answer(answer), _) => {
                let d = Digest::of(answer.start_pairs().iter().copied());
                (d, d.count)
            }
            (ColdOutput::Index { solved, count }, ColdStyle::CountOnly { block }) => {
                // Reading the block cell by cell allocates nothing, so the
                // check leaves the workload's peak memory alone. Once per
                // instance: later ops are held to the same total count.
                let d = first.map(|(d, _)| d).unwrap_or_else(|| {
                    let m = &solved.matrices[wcnf(&self.grammar).start.index()];
                    Digest::of(
                        (0..block)
                            .flat_map(|i| (0..block).map(move |j| (i, j)))
                            .filter(|&(i, j)| m.get(i, j)),
                    )
                });
                (d, count as u64)
            }
            (ColdOutput::Index { .. }, ColdStyle::FullAnswer) => {
                unreachable!("a full-answer op materialises its answer")
            }
        };
        first.get_or_insert((digest, count));
        self.settled.push((inst, digest, count));
    }

    fn verify(&mut self, oracle: Oracle) -> Verdict {
        let grammar = wcnf(&self.grammar);
        let expected: Vec<Digest> = self
            .instances
            .iter()
            .map(|inst| {
                oracle.seal(match self.style {
                    ColdStyle::FullAnswer => hellings_digest(&inst.graph, &grammar),
                    ColdStyle::CountOnly { block } => {
                        hellings_digest(&block_subgraph(&inst.graph, 0, block), &grammar)
                    }
                })
            })
            .collect();
        let failed = self
            .settled
            .iter()
            .filter(|&&(inst, digest, count)| {
                let first_count = self.instances[inst].first.map(|(_, c)| c);
                digest != expected[inst] || Some(count) != first_count
            })
            .count();
        Verdict {
            attempted: self.settled.len() as u64,
            failed: failed as u64,
        }
    }

    fn probe(&self) -> &Probe {
        &self.probe
    }
}

// ----- rpq-cold ------------------------------------------------------------

struct IndexedGraph<E: Engine> {
    graph: Graph,
    index: GraphIndex<E>,
}

fn indexed_g3s<E: Engine>(
    engine: &E,
    k: usize,
    rng: &mut Rng,
) -> (Vec<IndexedGraph<E>>, GraphFacts) {
    let (graphs, facts) = generate(k, || ontology_g3(rng));
    let indexed = graphs
        .into_iter()
        .map(|graph| IndexedGraph {
            index: GraphIndex::build(engine.clone(), &graph),
            graph,
        })
        .collect();
    (indexed, facts)
}

/// `rpq-cold`: two regular path queries through the compiled NFA → RSM →
/// weak-CNF route, over an index built once in set-up.
pub struct RpqCold<E: Engine> {
    engine: E,
    instances: Vec<IndexedGraph<E>>,
    probe: Probe,
    last: Option<(usize, [QueryAnswer; 2])>,
    settled: Vec<(usize, [Digest; 2])>,
}

impl<E: Engine> RpqCold<E> {
    pub fn new(engine: E, seed: u64) -> Self {
        let (instances, facts) = indexed_g3s(&engine, 8, &mut Rng::stream(seed, 4));
        RpqCold {
            engine,
            probe: Probe::new(facts),
            instances,
            last: None,
            settled: Vec::new(),
        }
    }
}

impl<E: Engine> Workload for RpqCold<E> {
    fn op(&mut self, i: usize) -> Duration {
        let inst = i % self.instances.len();
        let index = &self.instances[inst].index;
        let nfas = rpq_queries();
        let before = self.engine.kernel_snapshot();
        let started = Instant::now();
        let answers = if before.is_none() {
            let mut session = CfpqSession::over(index.clone());
            nfas.map(|nfa| {
                let q = session.prepare_regular(&nfa);
                session.evaluate(q)
            })
        } else {
            let index = {
                let _s = trace::span("core.session.index_clone");
                index.clone()
            };
            // sweeps, products, products skipped, nonterminals, rules, pairs
            let mut totals = [0usize; 6];
            let answers = nfas.map(|nfa| {
                let query = {
                    let _s = trace::span("core.compile.lower");
                    CompiledQuery::from_nfa(&nfa).into_prepared()
                };
                let solved = {
                    let _s = trace::span("core.relational.solve");
                    solve_prepared(&index, &query)
                };
                let w = query.wcnf();
                let _s = trace::span("core.query.materialize");
                let answer = QueryAnswer::from_index(index.engine().name(), w, &solved);
                for (total, add) in totals.iter_mut().zip([
                    solved.iterations,
                    solved.stats.products_computed,
                    solved.stats.products_skipped,
                    w.n_nts(),
                    w.binary_rules.len() + w.term_rules.len(),
                    answer.start_count(),
                ]) {
                    *total += add;
                }
                answer
            });
            self.probe.counts = [
                "core.relational.sweeps",
                "core.relational.products",
                "core.relational.products_skipped",
                "core.compile.nts",
                "core.compile.rules",
                "core.query.answer_pairs",
            ]
            .into_iter()
            .zip(totals.map(|t| t as f64))
            .collect();
            answers
        };
        let elapsed = started.elapsed();
        self.probe.kernels = kernels_since(&self.engine, before);
        self.last = Some((inst, answers));
        elapsed
    }

    fn settle(&mut self) {
        if let Some((inst, answers)) = self.last.take() {
            let digests = answers.map(|a| Digest::of(a.start_pairs().iter().copied()));
            self.settled.push((inst, digests));
        }
    }

    fn verify(&mut self, oracle: Oracle) -> Verdict {
        let expected: Vec<[Digest; 2]> = self
            .instances
            .iter()
            .map(|inst| rpq_queries().map(|nfa| oracle.seal(regular_digest(&inst.graph, &nfa))))
            .collect();
        let failed = self
            .settled
            .iter()
            .filter(|(inst, digests)| *digests != expected[*inst])
            .count();
        Verdict {
            attempted: self.settled.len() as u64,
            failed: failed as u64,
        }
    }

    fn probe(&self) -> &Probe {
        &self.probe
    }
}

// ----- single-path ---------------------------------------------------------

/// Witnesses extracted per op.
const WITNESSES: usize = 64;

struct SpInstance<E: Engine> {
    input: IndexedGraph<E>,
    /// R_S of a warm solve in set-up: where ops draw their pairs from.
    /// It is the program's own answer, so `verify` checks it too.
    known_pairs: Vec<(u32, u32)>,
}

/// `single-path`: §5 semantics — a cold length closure plus 64 witness
/// extractions, over an index built once in set-up.
pub struct SinglePath<E: Engine> {
    engine: E,
    seed: u64,
    grammar: Cfg,
    wcnf: Wcnf,
    instances: Vec<SpInstance<E>>,
    probe: Probe,
    last: Option<(usize, SpOutput)>,
    /// Per settled op: instance, digest of R_S, witnesses all valid.
    settled: Vec<(usize, Digest, bool)>,
}

/// The pair a witness was asked for, and the path extracted for it
/// (`None` where extraction failed).
type Witness = ((u32, u32), Option<Vec<Edge>>);

struct SpOutput {
    pairs: Vec<(u32, u32)>,
    witnesses: Vec<Witness>,
}

impl<E: Engine> SinglePath<E> {
    pub fn new(engine: E, seed: u64) -> Self {
        let grammar = queries::query1();
        let (inputs, facts) = indexed_g3s(&engine, 4, &mut Rng::stream(seed, 5));
        let instances: Vec<SpInstance<E>> = inputs
            .into_iter()
            .map(|input| {
                let mut session = CfpqSession::over(input.index.clone());
                let q = session.prepare(&grammar).expect("Q1 normalizes");
                let known_pairs = session.evaluate(q).start_pairs().to_vec();
                SpInstance { input, known_pairs }
            })
            .collect();
        SinglePath {
            engine,
            seed,
            wcnf: wcnf(&grammar),
            grammar,
            probe: Probe::new(facts),
            instances,
            last: None,
            settled: Vec::new(),
        }
    }
}

impl<E: Engine> Workload for SinglePath<E> {
    fn op(&mut self, i: usize) -> Duration {
        let k = i % self.instances.len();
        let inst = &self.instances[k];
        let mut rng = Rng::stream(self.seed, 0x5_0000 + i as u64);
        let wanted: Vec<(u32, u32)> = (0..WITNESSES)
            .map(|_| inst.known_pairs[rng.below(inst.known_pairs.len())])
            .collect();
        let (graph, grammar, start) = (&inst.input.graph, &self.wcnf, self.wcnf.start);
        let before = self.engine.kernel_snapshot();

        let started = Instant::now();
        let (elapsed, output) = if before.is_none() {
            let mut session = CfpqSession::over(inst.input.index.clone());
            let q = session
                .prepare_single_path(&self.grammar)
                .expect("Q1 normalizes");
            let solved = session.evaluate_single_path(q);
            let witnesses = wanted
                .iter()
                .map(|&(u, v)| {
                    (
                        (u, v),
                        extract_path(solved, graph, grammar, start, u, v).ok(),
                    )
                })
                .collect();
            let elapsed = started.elapsed();
            let pairs = solved.pairs(start);
            (elapsed, SpOutput { pairs, witnesses })
        } else {
            let index = {
                let _s = trace::span("core.session.index_clone");
                inst.input.index.clone()
            };
            let query = {
                let _s = trace::span("grammar.wcnf");
                PreparedQuery::new(&self.grammar).expect("Q1 normalizes")
            };
            let solved = {
                let _s = trace::span("core.single_path.solve");
                solve_prepared_single_path(&index, &query)
            };
            let witnesses = wanted
                .iter()
                .map(|&(u, v)| {
                    let _s = trace::span("core.single_path.extract");
                    (
                        (u, v),
                        extract_path(&solved, graph, grammar, start, u, v).ok(),
                    )
                })
                .collect();
            let elapsed = started.elapsed();
            self.probe.counts = vec![
                (
                    "core.single_path.products",
                    solved.stats.products_computed as f64,
                ),
                ("grammar.rules", n_rules(query.wcnf())),
            ];
            let pairs = solved.pairs(start);
            (elapsed, SpOutput { pairs, witnesses })
        };
        self.probe.kernels = kernels_since(&self.engine, before);
        self.last = Some((k, output));
        elapsed
    }

    fn settle(&mut self) {
        let Some((k, out)) = self.last.take() else {
            return;
        };
        let graph = &self.instances[k].input.graph;
        let valid = out.witnesses.iter().all(|((u, v), path)| {
            path.as_ref()
                .is_some_and(|p| validate_witness(p, graph, &self.wcnf, self.wcnf.start, *u, *v))
        });
        self.settled
            .push((k, Digest::of(out.pairs.iter().copied()), valid));
    }

    fn verify(&mut self, oracle: Oracle) -> Verdict {
        let expected: Vec<Digest> = self
            .instances
            .iter()
            .map(|inst| oracle.seal(hellings_digest(&inst.input.graph, &self.wcnf)))
            .collect();
        // The pairs ops asked witnesses for came from the program; an op
        // on an instance whose warm answer was wrong fails with it.
        let warm_ok: Vec<bool> = self
            .instances
            .iter()
            .zip(&expected)
            .map(|(inst, want)| Digest::of(inst.known_pairs.iter().copied()) == *want)
            .collect();
        let failed = self
            .settled
            .iter()
            .filter(|&&(k, digest, valid)| !(valid && warm_ok[k] && digest == expected[k]))
            .count();
        Verdict {
            attempted: self.settled.len() as u64,
            failed: failed as u64,
        }
    }

    fn probe(&self) -> &Probe {
        &self.probe
    }
}

// ----- update-stream -------------------------------------------------------

/// Edges per `add_edges` call.
pub const BATCH: usize = 10;
/// Held-out edges per instance: 400 ops before the stream starts over.
const STREAM_EDGES: usize = 4000;

#[derive(Clone, Copy)]
struct StreamQueries {
    q1: QueryId,
    q2: QueryId,
    rpq: QueryId,
    sp: SinglePathId,
}

struct StreamInstance<E: Engine> {
    full: Graph,
    held: Vec<(u32, &'static str, u32)>,
    /// The session with all four queries solved on the base graph; every
    /// pass over the stream starts from a clone of it.
    pristine: CfpqSession<E>,
    session: CfpqSession<E>,
    cursor: usize,
    /// Ops of the current pass over the stream (indices into `settled`).
    pass_ops: Vec<usize>,
    /// Result counts of the previous op: answers only grow.
    previous: [u64; 4],
}

/// `update-stream`: writes beside reads — ten new edges, then all four
/// cached closures repaired, on one long-lived session.
pub struct UpdateStream<E: Engine> {
    engine: E,
    ids: StreamQueries,
    sp_start: cfpq::grammar::Nt,
    instances: Vec<StreamInstance<E>>,
    probe: Probe,
    last: Option<(usize, [u64; 4])>,
    /// Per op: still unjudged (`None`), or passed / failed.
    settled: Vec<Option<bool>>,
    /// Final digests of completed passes, judged in `verify`.
    finals: Vec<(usize, [Digest; 4], Vec<usize>)>,
}

impl<E: Engine> UpdateStream<E> {
    pub fn new(engine: E, seed: u64) -> Self {
        let mut rng = Rng::stream(seed, 6);
        let (graphs, facts) = generate(4, || ontology_g3(&mut rng));
        let mut ids = None;
        let instances = graphs
            .into_iter()
            .map(|full| {
                let (base, held) = hold_out(&full, STREAM_EDGES, &mut rng);
                let mut session = CfpqSession::new(engine.clone(), &base);
                let q = StreamQueries {
                    q1: session.prepare(&queries::query1()).expect("Q1 normalizes"),
                    q2: session.prepare(&queries::query2()).expect("Q2 normalizes"),
                    rpq: session.prepare_regular(&Nfa::plus("subClassOf")),
                    sp: session
                        .prepare_single_path(&queries::query1())
                        .expect("Q1 normalizes"),
                };
                session.evaluate(q.q1);
                session.evaluate(q.q2);
                session.evaluate(q.rpq);
                session.evaluate_single_path(q.sp);
                // Handles are positions, identical on every instance.
                ids.get_or_insert(q);
                StreamInstance {
                    full,
                    held,
                    pristine: session.clone(),
                    session,
                    cursor: 0,
                    pass_ops: Vec::new(),
                    previous: [0; 4],
                }
            })
            .collect::<Vec<_>>();
        UpdateStream {
            engine,
            ids: ids.expect("at least one instance"),
            sp_start: wcnf(&queries::query1()).start,
            probe: Probe::new(facts),
            instances,
            last: None,
            settled: Vec::new(),
            finals: Vec::new(),
        }
    }

    /// Ends an instance's pass over its stream: records the digests of
    /// the state it reached and starts over from the base graph.
    fn finish_pass(&mut self, k: usize) {
        let (ids, inst) = (self.ids, &mut self.instances[k]);
        let start_pairs = |a: QueryAnswer| Digest::of(a.start_pairs().iter().copied());
        let digests = [
            start_pairs(inst.session.evaluate(ids.q1)),
            start_pairs(inst.session.evaluate(ids.q2)),
            start_pairs(inst.session.evaluate(ids.rpq)),
            Digest::of(
                inst.session
                    .evaluate_single_path(ids.sp)
                    .pairs(self.sp_start),
            ),
        ];
        self.finals
            .push((k, digests, std::mem::take(&mut inst.pass_ops)));
        inst.session = inst.pristine.clone();
        inst.cursor = 0;
        inst.previous = [0; 4];
    }
}

impl<E: Engine> Workload for UpdateStream<E> {
    fn op(&mut self, i: usize) -> Duration {
        let k = i % self.instances.len();
        let (ids, sp_start) = (self.ids, self.sp_start);
        let inst = &mut self.instances[k];
        let batch = &inst.held[inst.cursor..inst.cursor + BATCH];
        let session = &mut inst.session;
        let before = self.engine.kernel_snapshot();

        let started = Instant::now();
        {
            let _s = trace::span("core.session.add_edges");
            session.add_edges(batch);
        }
        let rel = {
            let _s = trace::span("core.session.repair_rel");
            [ids.q1, ids.q2, ids.rpq].map(|q| session.evaluate(q).start_count() as u64)
        };
        let sp = {
            let _s = trace::span("core.session.repair_sp");
            session.evaluate_single_path(ids.sp).count(sp_start) as u64
        };
        let elapsed = started.elapsed();

        self.probe.kernels = kernels_since(&self.engine, before);
        if before.is_some() {
            let products = |q| session.last_run(q).map_or(0, |r| r.stats.products_computed);
            let rel_products: usize = [ids.q1, ids.q2, ids.rpq].into_iter().map(products).sum();
            let sp_products = session
                .last_single_path_run(ids.sp)
                .map_or(0, |r| r.stats.products_computed);
            self.probe.counts = vec![
                ("core.relational.products", rel_products as f64),
                ("core.single_path.products", sp_products as f64),
                (
                    "core.session.repair_products",
                    (rel_products + sp_products) as f64,
                ),
            ];
        }
        inst.cursor += BATCH;
        self.last = Some((k, [rel[0], rel[1], rel[2], sp]));
        elapsed
    }

    fn settle(&mut self) {
        let Some((k, sizes)) = self.last.take() else {
            return;
        };
        let inst = &mut self.instances[k];
        // Judged now: answers never shrink and the single-path relation
        // is Q1's. Judged in `verify`: the state a pass ends in.
        let grew = sizes
            .iter()
            .zip(&inst.previous)
            .all(|(now, before)| now >= before);
        let ok = grew && sizes[3] == sizes[0];
        inst.previous = sizes;
        inst.pass_ops.push(self.settled.len());
        self.settled.push((!ok).then_some(false));
        if inst.cursor == inst.held.len() {
            self.finish_pass(k);
        }
    }

    fn verify(&mut self, oracle: Oracle) -> Verdict {
        // Bring every unfinished pass to the end of its stream, untimed:
        // the state it ends in must equal a cold solve of the full graph.
        for k in 0..self.instances.len() {
            let inst = &mut self.instances[k];
            if !inst.pass_ops.is_empty() {
                let rest = inst.held[inst.cursor..].to_vec();
                inst.session.add_edges(&rest);
                self.finish_pass(k);
            }
        }
        let q1 = wcnf(&queries::query1());
        let q2 = wcnf(&queries::query2());
        let expected: Vec<[Digest; 4]> = self
            .instances
            .iter()
            .map(|inst| {
                let d1 = hellings_digest(&inst.full, &q1);
                [
                    d1,
                    hellings_digest(&inst.full, &q2),
                    regular_digest(&inst.full, &Nfa::plus("subClassOf")),
                    d1,
                ]
                .map(|d| oracle.seal(d))
            })
            .collect();
        for (k, digests, ops) in &self.finals {
            let pass_ok = *digests == expected[*k];
            for &op in ops {
                self.settled[op].get_or_insert(pass_ok);
            }
        }
        Verdict {
            attempted: self.settled.len() as u64,
            failed: self.settled.iter().filter(|s| **s != Some(true)).count() as u64,
        }
    }

    fn probe(&self) -> &Probe {
        &self.probe
    }
}

// ----- point-cold ----------------------------------------------------------

/// Nodes per block of the `point-cold` graph.
const POINT_BLOCK: u32 = 64;
/// Distinct blocks the lookups rotate over.
const POINT_BLOCKS: usize = 16;

/// One lookup: its block, the pairs asked for, what came back.
type PointLookup = (usize, Vec<(u32, u32)>, Result<Vec<(u32, u32)>, String>);

/// `point-cold`: a four-pair lookup on a fresh service over a 102,400-node
/// graph — a point query that today pays for the whole closure.
pub struct PointCold<E: Engine> {
    engine: E,
    seed: u64,
    grammar: Cfg,
    graph: Graph,
    index: GraphIndex<E>,
    /// First node of each block lookups go to.
    blocks: Vec<u32>,
    probe: Probe,
    last: Option<PointLookup>,
    settled: Vec<PointLookup>,
}

impl<E: Engine> PointCold<E> {
    pub fn new(engine: E, seed: u64) -> Self {
        let mut rng = Rng::stream(seed, 7);
        let (mut graphs, facts) = generate(1, || {
            clustered_blocks(1600, POINT_BLOCK as usize, 4, &["a", "b"], rng.next_u64())
        });
        let graph = graphs.pop().expect("one graph");
        let index = {
            let _s = trace::span("core.session.index_build");
            GraphIndex::build(engine.clone(), &graph)
        };
        let blocks = (0..POINT_BLOCKS)
            .map(|_| rng.below(1600) as u32 * POINT_BLOCK)
            .collect();
        PointCold {
            engine,
            seed,
            grammar: queries::an_bn(),
            graph,
            index,
            blocks,
            probe: Probe::new(facts),
            last: None,
            settled: Vec::new(),
        }
    }
}

impl<E: Engine> Workload for PointCold<E> {
    fn op(&mut self, i: usize) -> Duration {
        let b = i % self.blocks.len();
        let lo = self.blocks[b];
        let mut rng = Rng::stream(self.seed, 0x7_0000 + i as u64);
        let mut node = || lo + rng.below(POINT_BLOCK as usize) as u32;
        let wanted: Vec<(u32, u32)> = (0..4).map(|_| (node(), node())).collect();

        // Bringing the service up and down is timed on its own, under a
        // span that keeps it out of the op's stage sum.
        let service = {
            let _u = trace::span("bench.untimed");
            let _s = trace::span("service.up");
            CfpqService::over(self.index.clone(), ServiceConfig::new(1))
        };
        let before = self.engine.kernel_snapshot();
        let started = Instant::now();
        let q = {
            let _s = trace::span("service.prepare");
            service.prepare(&self.grammar).expect("Dyck-1 normalizes")
        };
        let ticket = {
            let _s = trace::span("service.enqueue");
            service.enqueue(q, wanted.clone())
        };
        let answer = {
            let _s = trace::span("service.ticket");
            ticket
                .and_then(Ticket::wait)
                .map(|a| a.pairs)
                .map_err(|e| e.to_string())
        };
        let elapsed = started.elapsed();
        self.probe.kernels = kernels_since(&self.engine, before);

        let _u = trace::span("bench.untimed");
        if before.is_some() {
            let stats = service.stats();
            let total = |f: fn(&cfpq::service::ServiceStats) -> u64| {
                stats.iter().map(f).sum::<u64>() as f64
            };
            let metrics = service.metrics();
            let ms = |name: &str| metrics.histogram(name).sum() as f64 / 1e3;
            self.probe.counts = vec![
                ("core.relational.products", total(|s| s.cold_products)),
                ("service.cold_solves", total(|s| s.cold_solves)),
                ("service.run_ms_mean", ms("cfpq_ticket_run_us")),
                ("service.wait_ms_mean", ms("cfpq_ticket_wait_us")),
            ];
        }
        {
            let _s = trace::span("service.down");
            drop(service);
        }
        if before.is_some() {
            // The service hides its stages, so the traced run also replays
            // them on the same index — outside the op — to show where the
            // ticket's time goes.
            let query = PreparedQuery::new(&self.grammar).expect("Dyck-1 normalizes");
            let solved = {
                let _s = trace::span("core.relational.solve");
                solve_prepared(&self.index, &query)
            };
            let materialised = {
                let _s = trace::span("core.query.materialize");
                QueryAnswer::from_index(self.index.engine().name(), query.wcnf(), &solved)
            };
            self.probe.counts.extend([
                ("core.relational.sweeps", solved.iterations as f64),
                ("core.query.answer_pairs", materialised.start_count() as f64),
            ]);
        }
        self.last = Some((b, wanted, answer));
        elapsed
    }

    fn settle(&mut self) {
        self.settled.extend(self.last.take());
    }

    fn verify(&mut self, oracle: Oracle) -> Verdict {
        let grammar = wcnf(&self.grammar);
        let closures: Vec<Vec<(u32, u32)>> = self
            .blocks
            .iter()
            .map(|&lo| {
                let block = block_subgraph(&self.graph, lo, POINT_BLOCK);
                solve_hellings(&block, &grammar)
                    .pairs(grammar.start)
                    .into_iter()
                    .map(|(i, j)| (i + lo, j + lo))
                    .collect()
            })
            .collect();
        let failed = self
            .settled
            .iter()
            .filter(|(b, wanted, answer)| {
                let mut expect: Vec<(u32, u32)> = wanted
                    .iter()
                    .copied()
                    .filter(|p| closures[*b].binary_search(p).is_ok())
                    .collect();
                expect.sort_unstable();
                expect.dedup();
                let expect = oracle.seal(Digest::of(expect));
                !answer
                    .as_ref()
                    .is_ok_and(|got| Digest::of(got.iter().copied()) == expect)
            })
            .count();
        Verdict {
            attempted: self.settled.len() as u64,
            failed: failed as u64,
        }
    }

    fn probe(&self) -> &Probe {
        &self.probe
    }
}

/// Builds a closed-loop workload by name: on the raw engine, or under
/// [`TimedEngine`] when `traced`. `None` for any other name.
pub fn closed_loop(name: &str, seed: u64, traced: bool) -> Option<Box<dyn Workload>> {
    fn on<E: Engine>(name: &str, seed: u64, engine: E) -> Option<Box<dyn Workload>> {
        Some(match name {
            "onto-cold" => Box::new(Cold::onto(engine, seed)),
            "blocks-cold" => Box::new(Cold::blocks(engine, seed)),
            "sparse-cold" => Box::new(Cold::sparse(engine, seed)),
            "rpq-cold" => Box::new(RpqCold::new(engine, seed)),
            "single-path" => Box::new(SinglePath::new(engine, seed)),
            "update-stream" => Box::new(UpdateStream::new(engine, seed)),
            "point-cold" => Box::new(PointCold::new(engine, seed)),
            _ => return None,
        })
    }
    match (name, traced) {
        ("sparse-cold", false) => on(name, seed, SparseEngine),
        ("sparse-cold", true) => on(name, seed, TimedEngine::new(SparseEngine)),
        (_, false) => on(name, seed, TiledEngine::serial()),
        (_, true) => on(name, seed, TimedEngine::new(TiledEngine::serial())),
    }
}

// ---------------------------------------------------------------------------
// svc-open: the service under an open-loop mix of tickets
// ---------------------------------------------------------------------------

/// Edges held out of g3 for the writer: 200 batches, 40 s of publishes.
const SVC_HELD: usize = 2000;

/// The service of `svc-open`, with its queries prepared and warmed, the
/// edges its writer will publish, and what the checks need afterwards.
pub struct SvcOpen<E: Engine> {
    engine: E,
    service: CfpqService<E>,
    q1: cfpq::service::QueryId,
    q2: cfpq::service::QueryId,
    rpq: cfpq::service::QueryId,
    sp: cfpq::service::SinglePathId,
    checker: SvcChecker,
    /// Base-epoch answers of Q1, Q2 and the RPQ, from the warm-up.
    pub base_q1: Vec<(u32, u32)>,
    pub base_q2: Vec<(u32, u32)>,
    pub base_rpq: Vec<(u32, u32)>,
    /// Time `CfpqService::over` took.
    pub up_ms: f64,
    pub facts: Vec<(&'static str, f64)>,
}

/// What a resolved ticket is reduced to for the checks after the run.
pub struct SvcAnswer {
    pairs: SvcPairs,
    paths: Option<Vec<PairPaths>>,
}

/// A lookup's few pairs are kept; a full answer (tens of thousands of
/// pairs, hundreds of them per run) is counted on arrival instead.
enum SvcPairs {
    Kept(Vec<(u32, u32)>),
    Counted(usize),
}

impl SvcOpen<TiledEngine> {
    /// On the raw inline tiled engine.
    pub fn raw(seed: u64) -> Self {
        Self::new(TiledEngine::serial(), seed)
    }
}

impl SvcOpen<TimedEngine<TiledEngine>> {
    /// On the same engine under [`TimedEngine`].
    pub fn timed(seed: u64) -> Self {
        Self::new(TimedEngine::new(TiledEngine::serial()), seed)
    }
}

impl<E: Engine> SvcOpen<E> {
    fn new(engine: E, seed: u64) -> Self {
        let mut rng = Rng::stream(seed, 8);
        let (mut graphs, facts) = generate(1, || ontology_g3(&mut rng));
        let full = graphs.pop().expect("one graph");
        let (base, held) = hold_out(&full, SVC_HELD, &mut rng);
        let index = {
            let _s = trace::span("core.session.index_build");
            GraphIndex::build(engine.clone(), &base)
        };
        let started = Instant::now();
        let service = CfpqService::over(index, ServiceConfig::new(1));
        let up_ms = started.elapsed().as_secs_f64() * 1e3;
        let q1 = service.prepare(&queries::query1()).expect("Q1 normalizes");
        let q2 = service.prepare(&queries::query2()).expect("Q2 normalizes");
        let rpq = service.prepare_regular(&Nfa::plus("subClassOf"));
        let sp = service
            .prepare_single_path(&queries::query1())
            .expect("Q1 normalizes");
        let warm = |ticket: Result<Ticket, cfpq::service::ServiceError>| {
            ticket
                .and_then(Ticket::wait)
                .expect("warm-up ticket answers")
                .pairs
        };
        let base_q1 = warm(service.enqueue(q1, Vec::new()));
        let base_q2 = warm(service.enqueue(q2, Vec::new()));
        let base_rpq = warm(service.enqueue(rpq, Vec::new()));
        warm(service.enqueue_single_path(sp, Vec::new()));
        SvcOpen {
            engine,
            service,
            q1,
            q2,
            rpq,
            sp,
            checker: SvcChecker { base, held },
            base_q1,
            base_q2,
            base_rpq,
            up_ms,
            facts,
        }
    }

    pub fn n_nodes(&self) -> u32 {
        self.checker.base.n_nodes() as u32
    }

    /// Kernel work so far; `None` on a raw engine.
    pub fn kernel_snapshot(&self) -> Option<KernelSnapshot> {
        self.engine.kernel_snapshot()
    }

    /// `service.*` metrics read off the service's own counters.
    pub fn service_counters(&self) -> Vec<(&'static str, f64)> {
        let stats = self.service.stats();
        let total =
            |f: fn(&cfpq::service::ServiceStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
        let metrics = self.service.metrics();
        let mean_ms = |name: &str| {
            let h = metrics.histogram(name);
            h.sum() as f64 / 1e3 / h.count().max(1) as f64
        };
        let (served, batches) = (total(|s| s.queries_served), total(|s| s.batches));
        let (hits, colds) = (total(|s| s.cache_hits), total(|s| s.cold_solves));
        vec![
            ("service.wait_ms_mean", mean_ms("cfpq_ticket_wait_us")),
            ("service.run_ms_mean", mean_ms("cfpq_ticket_run_us")),
            ("service.batch_size_mean", served / batches.max(1.0)),
            ("service.cache_hit_share", hits / (hits + colds).max(1.0)),
            ("service.cold_solves", colds),
            ("service.repairs", total(|s| s.repairs)),
            ("service.repair_products", total(|s| s.repair_products)),
            (
                "service.queue_depth_max",
                metrics.gauge("cfpq_queue_depth_max").get() as f64,
            ),
            ("service.shed", total(|s| s.requests_shed)),
            ("service.deadline_expired", total(|s| s.deadline_expired)),
        ]
    }

    /// Shuts the service down; returns how long that took in ms, and the
    /// checker for the answers it gave.
    pub fn down(self) -> (f64, SvcChecker) {
        let started = Instant::now();
        drop(self.service);
        (started.elapsed().as_secs_f64() * 1e3, self.checker)
    }
}

impl<E: Engine> openloop::Service for SvcOpen<E> {
    type Pending = (Kind, Ticket);
    type Answer = SvcAnswer;

    fn send(&self, spec: &TicketSpec) -> Result<Self::Pending, String> {
        let pairs = spec.pairs.clone();
        let ticket = match spec.kind {
            Kind::Q1Lookup => self.service.enqueue(self.q1, pairs),
            Kind::Q2Lookup | Kind::FullQ2 => self.service.enqueue(self.q2, pairs),
            Kind::RpqLookup => self.service.enqueue(self.rpq, pairs),
            Kind::SpLookup => self.service.enqueue_single_path(self.sp, pairs),
            Kind::PathsPage => self.service.enqueue_paths(
                self.q1,
                pairs,
                PageRequest {
                    offset: 0,
                    limit: PAGE_LIMIT,
                    max_len: PAGE_LIMIT,
                },
            ),
        };
        ticket.map(|t| (spec.kind, t)).map_err(|e| e.to_string())
    }

    fn wait(&self, (kind, ticket): Self::Pending) -> Result<SvcAnswer, String> {
        let TicketAnswer { pairs, paths, .. } = ticket.wait().map_err(|e| e.to_string())?;
        Ok(SvcAnswer {
            pairs: match kind {
                Kind::FullQ2 => SvcPairs::Counted(pairs.len()),
                _ => SvcPairs::Kept(pairs),
            },
            paths,
        })
    }

    fn publish(&self, batch: usize) -> bool {
        let _s = trace::span("service.publish");
        match self.checker.held.get(batch * BATCH..(batch + 1) * BATCH) {
            Some(edges) => {
                self.service.add_edges(edges);
                true
            }
            None => false,
        }
    }
}

/// Witnesses per page and edges per witness a paths ticket asks for.
const PAGE_LIMIT: usize = 8;

/// Judges `svc-open` answers after the service is gone. An answer given
/// at an unknown epoch between the base graph and the last publish is
/// sandwiched: every requested pair in the base closure must be
/// returned, no pair outside the final closure may be.
pub struct SvcChecker {
    /// The graph the service was built over. Witness edges carry its
    /// label numbering, so witnesses are validated against it plus the
    /// published edges, never against a graph built some other way.
    base: Graph,
    held: Vec<(u32, &'static str, u32)>,
}

impl SvcChecker {
    /// `published` is how many batches the writer got through in total;
    /// returns one verdict per ticket, in order.
    pub fn check(
        &self,
        tickets: &[(&TicketSpec, &Result<SvcAnswer, String>)],
        published: usize,
    ) -> Vec<bool> {
        let mut last = self.base.clone();
        for &(u, label, v) in &self.held[..(published * BATCH).min(self.held.len())] {
            last.add_edge_named(u, label, v);
        }
        let q1 = wcnf(&queries::query1());
        let q2 = wcnf(&queries::query2());
        let plus = Nfa::plus("subClassOf");
        let closure = |g: &Graph, w: &Wcnf| solve_hellings(g, w).pairs(w.start);
        let regular = |g: &Graph| solve_regular(&SparseEngine, g, &plus).pairs();
        // (lower, upper) per query family: Q1 (also single-path and
        // paths), Q2, RPQ.
        let bounds = [
            (closure(&self.base, &q1), closure(&last, &q1)),
            (closure(&self.base, &q2), closure(&last, &q2)),
            (regular(&self.base), regular(&last)),
        ];
        let has = |set: &[(u32, u32)], p: &(u32, u32)| set.binary_search(p).is_ok();
        tickets
            .iter()
            .map(|(spec, outcome)| {
                let Ok(answer) = outcome else { return false };
                let (lower, upper) = match spec.kind {
                    Kind::Q1Lookup | Kind::SpLookup | Kind::PathsPage => &bounds[0],
                    Kind::Q2Lookup | Kind::FullQ2 => &bounds[1],
                    Kind::RpqLookup => &bounds[2],
                };
                let pairs_ok = match &answer.pairs {
                    SvcPairs::Counted(n) => (lower.len()..=upper.len()).contains(n),
                    SvcPairs::Kept(got) => {
                        spec.pairs.iter().all(|p| !has(lower, p) || got.contains(p))
                            && got.iter().all(|p| has(upper, p) && spec.pairs.contains(p))
                    }
                };
                let paths_ok = answer.paths.as_ref().is_none_or(|pages| {
                    pages.iter().all(|page| {
                        page.paths.iter().all(|path| {
                            path.len() <= PAGE_LIMIT
                                && validate_witness(path, &last, &q1, q1.start, page.from, page.to)
                        })
                    })
                });
                pairs_ok && paths_ok && (spec.kind == Kind::PathsPage) == answer.paths.is_some()
            })
            .collect()
    }
}

/// Checks a chrome-trace document with the program's own validator;
/// returns the number of events.
pub fn validate_trace(text: &str) -> Result<usize, String> {
    cfpq::obs::trace::validate_chrome_trace(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpq::matrix::LenMat;

    fn pizza() -> Graph {
        profile("pizza").unwrap().generate().to_graph()
    }

    type Solved = (Digest, cfpq::core::SolveStats);

    /// Solves Q1 under relational and single-path semantics on `engine`.
    fn solve_both<E: Engine>(engine: E, graph: &Graph) -> (Solved, Solved) {
        let index = GraphIndex::build(engine, graph);
        let query = PreparedQuery::new(&queries::query1()).unwrap();
        let rel = solve_prepared(&index, &query);
        let sp = solve_prepared_single_path(&index, &query);
        let start = query.wcnf().start;
        let lengths = sp.pairs_with_lengths(start);
        (
            (Digest::of(rel.pairs(start)), rel.stats),
            (
                Digest::of(lengths.into_iter().map(|(i, j, l)| (i ^ (l << 16), j))),
                sp.stats,
            ),
        )
    }

    fn assert_transparent<E: Engine>(raw: E) {
        let graph = pizza();
        let timed = TimedEngine::new(raw.clone());
        let (rel, sp) = solve_both(raw, &graph);
        // Tile-skip counters are shared by every clone of an engine,
        // the raw one included: only the difference is the wrapped run's.
        let before = timed.kernel_snapshot().unwrap();
        assert_eq!(
            solve_both(timed.clone(), &graph),
            (rel.clone(), sp.clone()),
            "answers and SolveStats must not change under the decorator"
        );
        let work = timed.kernel_snapshot().unwrap().since(before);
        assert_eq!(work.calls[MUL], rel.1.products_computed as u64);
        assert_eq!(work.calls[LEN_MUL], sp.1.products_computed as u64);
        assert_eq!(work.tiles_skipped, rel.1.tiles_skipped + sp.1.tiles_skipped);
        assert!(work.calls[BUILD] > 0 && work.calls[UNION] > 0 && work.calls[LEN_MERGE] > 0);
        assert!(work.busy_ns[MUL] > 0);
        // Clones share the counters.
        timed.clone().zeros(4);
        let after = timed.kernel_snapshot().unwrap().since(before);
        assert_eq!(after.calls[BUILD], work.calls[BUILD] + 1);
    }

    #[test]
    fn timed_engine_is_transparent_on_tiles() {
        assert_transparent(TiledEngine::serial());
    }

    #[test]
    fn timed_engine_is_transparent_on_csr() {
        assert_transparent(SparseEngine);
    }

    #[test]
    fn a_batch_is_one_call_counted_per_job() {
        let e = TimedEngine::new(SparseEngine);
        let a = e.from_pairs(3, &[(0, 1), (1, 2)]);
        let out = e.multiply_masked_batch(&[(&a, &a, None), (&a, &a, Some(&a)), (&a, &a, None)]);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].pairs(), vec![(0, 2)]);
        let la = e.len_from_entries(3, &[(0, 1, 1), (1, 2, 1)]);
        assert_eq!(e.len_multiply_masked_batch(&[(&la, &la, None); 2]).len(), 2);
        assert_eq!(e.len_multiply(&la, &la).entries(), vec![(0, 2, 2)]);
        let s = e.kernel_snapshot().unwrap();
        assert_eq!((s.calls[MUL], s.calls[LEN_MUL]), (3, 3));
        assert_eq!((s.calls[BUILD], s.calls[LEN_BUILD]), (1, 1));
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let edges = |g: &Graph| -> Vec<(u32, String, u32)> {
            g.edges()
                .iter()
                .map(|e| (e.from, g.label_name(e.label).to_owned(), e.to))
                .collect()
        };
        let inputs = |seed: u64| {
            let mut rng = Rng::stream(seed, 6);
            let g = ontology_g3(&mut rng);
            let (base, held) = hold_out(&g, 100, &mut rng);
            (edges(&g), edges(&base), held)
        };
        let a = inputs(1);
        assert_eq!(a, inputs(1));
        assert_ne!(a.0, inputs(2).0);
        assert_ne!(a.2, inputs(2).2);
        // g3's size is the paper's; the split loses nothing.
        assert_eq!(a.0.len(), 31_680);
        assert_eq!(a.1.len() + a.2.len(), a.0.len());
        assert!(a.2.iter().all(|(_, l, _)| QUERY_LABELS.contains(l)));
        let blocks = |seed: u64| edges(&Cold::blocks(SparseEngine, seed).instances[0].graph);
        assert_eq!(blocks(3), blocks(3));
        assert_ne!(blocks(3), blocks(4));
    }

    #[test]
    fn a_wrong_answer_fails_its_op() {
        for name in ["rpq-cold", "update-stream"] {
            for (oracle, failed) in [(Oracle::Honest, 0), (Oracle::Corrupted, 3)] {
                let mut w = closed_loop(name, 1, false).unwrap();
                for i in 0..3 {
                    w.op(i);
                    w.settle();
                }
                let expect = Verdict {
                    attempted: 3,
                    failed,
                };
                assert_eq!(w.verify(oracle), expect, "{name} {oracle:?}");
            }
        }
    }
}

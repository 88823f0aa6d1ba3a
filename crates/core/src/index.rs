//! The persistent label-matrix index of a graph and the seeds a
//! closure is solved or repaired from.

use cfpq_grammar::symbol::Interner;
use cfpq_grammar::{Nt, Wcnf};
use cfpq_graph::{Graph, Label, NodeId};
use cfpq_matrix::{BoolEngine, BoolMat, LenEngine};
use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

#[cfg(doc)]
use crate::session::GraphState;

/// The persistent matrix form of a graph: one Boolean adjacency matrix
/// per edge label, built on its first read and updated as edges arrive.
///
/// This is the artifact Algorithm 1's initialization (lines 6–7)
/// produces implicitly and then throws away; materialized, it is shared
/// by every query evaluated against the graph. Generic over all five
/// [`BoolEngine`]s, so the index inherits the paper's representation ×
/// device matrix, and the tiled layout beside it.
///
/// A label keeps its `(from, to)` pairs, 8 B an edge, until a read needs
/// its matrix ([`GraphIndex::adjacency`], or a seed of a grammar that
/// names it); that read builds the matrix with [`BoolEngine::from_pairs`]
/// and releases the pairs. Algorithm 1 seeds only from labels that are
/// terminals of the grammar, so a label no query reads — an RDF padding
/// predicate, say — never costs a matrix, n² bits on the dense engines.
/// Names, counts and [`GraphIndex::label_bytes`] build nothing.
///
/// The fixpoint only reads the label matrices, so clones share the
/// labels copy-on-write: a clone costs one reference count per label. A
/// build happens inside the shared label, once for every clone that
/// holds it, and [`GraphIndex::add_edges`] copies a label only where
/// another clone still holds it, and only if the batch writes to that
/// label.
///
/// The node universe starts at the build graph's size and grows on
/// demand: [`GraphIndex::add_edges`] accepts new labels *and* new node
/// ids, widening every built label matrix (dense rebuild / CSR and
/// tile-row append) before inserting. Sessions pick the growth up
/// lazily — a cached closure is widened the same way before its next
/// repair.
#[derive(Clone)]
pub struct GraphIndex<E: BoolEngine> {
    pub(crate) engine: E,
    pub(crate) n_nodes: usize,
    labels: Interner,
    slots: Vec<Arc<LabelSlot<E::Matrix>>>,
    n_edges: usize,
}

/// One label of a [`GraphIndex`]: its pairs until the first read builds
/// its matrix, the matrix after. The build runs inside the slot, which
/// every clone of the index holds through one `Arc`, so it is made once
/// for all of them.
struct LabelSlot<M> {
    /// The dimension the matrix is built at: the node count of the
    /// index that last wrote the slot.
    n: usize,
    /// The label's pairs while it is unbuilt, emptied once it is built.
    /// A reader that holds this lock sees either the pairs or the
    /// matrix: the build sets `matrix` before it empties the pairs.
    pairs: Mutex<Vec<(u32, u32)>>,
    matrix: OnceLock<M>,
}

impl<M: BoolMat> LabelSlot<M> {
    fn new(n: usize, pairs: Vec<(u32, u32)>) -> Self {
        Self {
            n,
            pairs: Mutex::new(pairs),
            matrix: OnceLock::new(),
        }
    }

    fn pairs(&self) -> MutexGuard<'_, Vec<(u32, u32)>> {
        self.pairs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The matrix, built from the pairs on the first call.
    fn matrix<E: BoolEngine<Matrix = M>>(&self, engine: &E) -> &M {
        let mut built = false;
        let m = self.matrix.get_or_init(|| {
            built = true;
            engine.from_pairs(self.n, &self.pairs())
        });
        if built {
            *self.pairs() = Vec::new();
        }
        m
    }

    fn is_built(&self) -> bool {
        self.matrix.get().is_some()
    }

    /// Heap bytes held now: the matrix's once built, the pair list's
    /// before.
    fn bytes(&self) -> usize {
        let pairs = self.pairs();
        match self.matrix.get() {
            Some(m) => m.bytes(),
            None => pairs.capacity() * std::mem::size_of::<(u32, u32)>(),
        }
    }

    /// Drops from `pairs` those the label already holds.
    fn retain_new(&self, pairs: &mut Vec<(u32, u32)>) {
        let held = self.pairs();
        match self.matrix.get() {
            Some(m) => pairs.retain(|&(u, v)| !m.get(u, v)),
            None => {
                let mut fresh: HashSet<(u32, u32)> = pairs.iter().copied().collect();
                for p in held.iter() {
                    fresh.remove(p);
                }
                pairs.retain(|p| fresh.contains(p));
            }
        }
    }

    /// Widens the label to `n` nodes; an unbuilt one only records it.
    fn grow<E: BoolEngine<Matrix = M>>(&mut self, engine: &E, n: usize) {
        if let Some(m) = self.matrix.get_mut() {
            engine.grow(m, n);
        }
        self.n = n;
    }

    /// Inserts pairs the label does not hold yet.
    fn insert<E: BoolEngine<Matrix = M>>(&mut self, engine: &E, pairs: &[(u32, u32)]) {
        match self.matrix.get_mut() {
            Some(m) => {
                engine.union_pairs(m, pairs);
            }
            None => self
                .pairs
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .extend_from_slice(pairs),
        }
    }
}

impl<M: BoolMat> Clone for LabelSlot<M> {
    fn clone(&self) -> Self {
        let pairs = self.pairs();
        let matrix = self.matrix.clone();
        let pairs = if matrix.get().is_some() {
            Vec::new()
        } else {
            pairs.clone()
        };
        Self {
            n: self.n,
            pairs: Mutex::new(pairs),
            matrix,
        }
    }
}

/// The record of one [`GraphIndex::add_edges`] batch: which `(from, to)`
/// pairs were genuinely new, per label index. A [`GraphState`] keeps it
/// beside every closure it made stale, for the repair to seed from.
#[derive(Clone, Debug)]
pub struct EdgeBatch {
    /// `(label index, new pairs)` — only labels that gained entries.
    new_by_label: Vec<(u32, Vec<(u32, u32)>)>,
    /// Edges actually inserted (previously absent from the index).
    pub inserted: usize,
    /// Edges skipped because the index (or this same batch) already held
    /// them.
    pub duplicates: usize,
}

impl<E: BoolEngine> GraphIndex<E> {
    /// Decomposes `graph` into per-label pair lists on `engine`; each
    /// label's matrix is built on its first read.
    pub fn build(engine: E, graph: &Graph) -> Self {
        let n = graph.n_nodes();
        let mut labels = Interner::new();
        for (_, name) in graph.labels() {
            labels.intern(name);
        }
        let mut counts = vec![0usize; labels.len()];
        for e in graph.edges() {
            counts[e.label.index()] += 1;
        }
        let mut pairs_by_label: Vec<Vec<(u32, u32)>> =
            counts.into_iter().map(Vec::with_capacity).collect();
        for e in graph.edges() {
            pairs_by_label[e.label.index()].push((e.from, e.to));
        }
        let slots = pairs_by_label
            .into_iter()
            .map(|pairs| Arc::new(LabelSlot::new(n, pairs)))
            .collect();
        Self {
            engine,
            n_nodes: n,
            labels,
            slots,
            n_edges: graph.n_edges(),
        }
    }

    /// The engine the matrices live on.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Matrix dimension `|V|`. Starts at the build graph's node count
    /// and **grows** when [`GraphIndex::add_edges`] receives an edge
    /// naming an unseen node id (it never shrinks) — the same implicit
    /// growth contract as [`Graph::add_edge`]'s `ensure_node` behaviour.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of labels, built or not.
    pub fn n_labels(&self) -> usize {
        self.labels.len()
    }

    /// Total stored edges across all labels.
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// The matrix of label `l`, built on the first read. Every reader
    /// that needs a label's matrix comes through here.
    fn matrix(&self, l: u32) -> &E::Matrix {
        self.slots[l as usize].matrix(&self.engine)
    }

    /// The adjacency matrix of a label, if the label exists. Builds it
    /// on the first read.
    pub fn adjacency(&self, label: &str) -> Option<&E::Matrix> {
        self.label(label).map(|(_, m)| m)
    }

    /// Whether a read has built the label's matrix (in this index or a
    /// clone that shares the label), if the label exists.
    pub fn is_built(&self, label: &str) -> Option<bool> {
        let l = self.labels.get(label)?;
        Some(self.slots[l as usize].is_built())
    }

    /// The id and adjacency matrix of a label, if the label exists. Ids
    /// are interned in arrival order, so an index built from a graph
    /// numbers its labels as the graph does.
    pub(crate) fn label(&self, name: &str) -> Option<(Label, &E::Matrix)> {
        let l = self.labels.get(name)?;
        Some((Label(l), self.matrix(l)))
    }

    /// Iterates `(name, matrix)` for every label, building each one.
    pub fn label_matrices(&self) -> impl Iterator<Item = (&str, &E::Matrix)> {
        self.labels.iter().map(|(l, name)| (name, self.matrix(l)))
    }

    /// Iterates `(name, heap bytes)` for every label, building none: a
    /// built label counts its matrix's [`BoolMat::bytes`], an unbuilt
    /// one its pair list, 8 B a pair.
    pub fn label_bytes(&self) -> impl Iterator<Item = (&str, usize)> {
        self.labels
            .iter()
            .map(|(l, name)| (name, self.slots[l as usize].bytes()))
    }

    /// Whether this index and `other` hold `label` as one shared label,
    /// built or not: true between clones until one of them writes to it
    /// or grows the node universe.
    pub fn shares_label(&self, other: &Self, label: &str) -> bool {
        let (Some(a), Some(b)) = (self.labels.get(label), other.labels.get(label)) else {
            return false;
        };
        Arc::ptr_eq(&self.slots[a as usize], &other.slots[b as usize])
    }

    /// Inserts a batch of edges, interning unseen labels on the fly and
    /// growing the node universe to cover previously-unseen node ids
    /// (every built label matrix is widened first, so no insertion can
    /// go out of bounds; an unbuilt label only records the new size).
    ///
    /// Only the labels the batch writes to are touched: those that gain
    /// a pair, or all of them when the universe grows. Each is updated in
    /// place if this index holds it alone, and copied first if a clone
    /// shares it, so the clone never sees the batch. A batch of
    /// duplicates writes nothing. An unbuilt label stays unbuilt: its
    /// duplicates are found in its pair list, and its new pairs join it.
    ///
    /// Duplicate-edge semantics match [`Graph::add_edge`] exactly: the
    /// edge set is a *set* keyed on `(from, label, to)`, so re-inserting
    /// a present edge is a no-op — where `add_edge` reports this by
    /// returning `false`, a batch insert reports it in
    /// [`EdgeBatch::duplicates`] (which also counts repeats *within* the
    /// same batch). The returned [`EdgeBatch`] records exactly the new
    /// entries per label, which is what incremental re-solves seed from.
    pub fn add_edges(&mut self, edges: &[(NodeId, &str, NodeId)]) -> EdgeBatch {
        if let Some(max_id) = edges.iter().map(|&(u, _, v)| u.max(v)).max() {
            let needed = max_id as usize + 1;
            if needed > self.n_nodes {
                for slot in &mut self.slots {
                    Arc::make_mut(slot).grow(&self.engine, needed);
                }
                self.n_nodes = needed;
            }
        }
        let mut new_by_label: BTreeMap<u32, Vec<(u32, u32)>> = BTreeMap::new();
        let mut batch_seen: HashSet<(u32, u32, u32)> = HashSet::with_capacity(edges.len());
        let mut duplicates = 0usize;
        for &(u, name, v) in edges {
            let l = self.labels.intern(name);
            if self.slots.len() <= l as usize {
                let slot = LabelSlot::new(self.n_nodes, Vec::new());
                self.slots.push(Arc::new(slot));
            }
            if !batch_seen.insert((l, u, v)) {
                duplicates += 1;
                continue;
            }
            new_by_label.entry(l).or_default().push((u, v));
        }
        let mut inserted = 0usize;
        let mut batch = Vec::with_capacity(new_by_label.len());
        for (l, mut pairs) in new_by_label {
            let slot = &mut self.slots[l as usize];
            let offered = pairs.len();
            slot.retain_new(&mut pairs);
            duplicates += offered - pairs.len();
            if pairs.is_empty() {
                continue;
            }
            Arc::make_mut(slot).insert(&self.engine, &pairs);
            inserted += pairs.len();
            batch.push((l, pairs));
        }
        self.n_edges += inserted;
        EdgeBatch {
            new_by_label: batch,
            inserted,
            duplicates,
        }
    }

    /// Per label index, the nonterminals `A` with a rule `A → x` for the
    /// terminal `x` the label binds to by name (none for a label the
    /// grammar never mentions). Cold, restricted and repair seeds all
    /// read the binding here, so it cannot drift between them.
    pub(crate) fn label_nonterminals(&self, wcnf: &Wcnf) -> Vec<Vec<Nt>> {
        let by_term = wcnf.nts_by_terminal();
        self.labels
            .iter()
            .map(|(_, name)| match wcnf.symbols.get_term(name) {
                Some(term) => by_term[term.index()].clone(),
                None => Vec::new(),
            })
            .collect()
    }

    /// The matrix of every label `wcnf` names as a terminal, with the
    /// nonterminals it seeds ([`GraphIndex::label_nonterminals`]). Builds
    /// those labels and no other: a label the grammar never names is
    /// never read.
    pub(crate) fn terminal_matrices(&self, wcnf: &Wcnf) -> Vec<(&E::Matrix, Vec<Nt>)> {
        let nts_of = self.label_nonterminals(wcnf).into_iter().enumerate();
        nts_of
            .filter(|(_, nts)| !nts.is_empty())
            .map(|(l, nts)| (self.matrix(l as u32), nts))
            .collect()
    }

    /// The per-nonterminal seed matrices of a cold solve: every label
    /// matrix union-ed into the `T_A` of each nonterminal with a rule
    /// `A → label`. This is Algorithm 1's initialization (lines 6–7) read
    /// straight off the index instead of the edge list; the ε-diagonal is
    /// the solver's, written after the fixpoint.
    pub fn seed_matrices(&self, wcnf: &Wcnf) -> Vec<E::Matrix> {
        let mut seeds: Vec<Option<E::Matrix>> = (0..wcnf.n_nts()).map(|_| None).collect();
        for (m, nts) in self.terminal_matrices(wcnf) {
            for nt in nts {
                match &mut seeds[nt.index()] {
                    Some(acc) => {
                        self.engine.union_in_place(acc, m);
                    }
                    None => seeds[nt.index()] = Some(E::Matrix::clone(m)),
                }
            }
        }
        seeds
            .into_iter()
            .map(|m| m.unwrap_or_else(|| self.engine.zeros(self.n_nodes)))
            .collect()
    }

    /// The per-nonterminal length-1 seed matrices of a cold single-path
    /// solve (the §5 analogue of [`GraphIndex::seed_matrices`]).
    pub fn seed_length_matrices(&self, wcnf: &Wcnf) -> Vec<<E as LenEngine>::LenMatrix>
    where
        E: LenEngine,
    {
        let mut entries: Vec<Vec<(u32, u32, u32)>> = vec![Vec::new(); wcnf.n_nts()];
        for (m, nts) in self.terminal_matrices(wcnf) {
            let pairs = m.pairs();
            for nt in nts {
                entries[nt.index()].extend(pairs.iter().map(|&(i, j)| (i, j, 1)));
            }
        }
        entries
            .into_iter()
            .map(|e| self.engine.len_from_entries(self.n_nodes, &e))
            .collect()
    }

    /// Translates edge batches this index absorbed into per-nonterminal
    /// seed pairs: the base facts a repair of `wcnf`'s closure starts
    /// from.
    pub(crate) fn batch_seeds(&self, wcnf: &Wcnf, batches: &[EdgeBatch]) -> Vec<Vec<(u32, u32)>> {
        let nts_of = self.label_nonterminals(wcnf);
        let mut new_pairs: Vec<Vec<(u32, u32)>> = vec![Vec::new(); wcnf.n_nts()];
        for batch in batches {
            for (label, pairs) in &batch.new_by_label {
                for nt in &nts_of[*label as usize] {
                    new_pairs[nt.index()].extend_from_slice(pairs);
                }
            }
        }
        new_pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpq_graph::generators;
    use cfpq_matrix::{CsrMatrix, SparseEngine};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// [`SparseEngine`] counting the matrices built from pairs, across
    /// its clones.
    #[derive(Clone, Default)]
    struct CountBuilds(Arc<AtomicUsize>);

    impl CountBuilds {
        fn builds(&self) -> usize {
            self.0.load(Ordering::SeqCst)
        }
    }

    impl BoolEngine for CountBuilds {
        type Matrix = CsrMatrix;

        fn name(&self) -> &'static str {
            "sparse-count-builds"
        }
        fn zeros(&self, n: usize) -> CsrMatrix {
            SparseEngine.zeros(n)
        }
        fn from_pairs(&self, n: usize, pairs: &[(u32, u32)]) -> CsrMatrix {
            self.0.fetch_add(1, Ordering::SeqCst);
            SparseEngine.from_pairs(n, pairs)
        }
        fn multiply(&self, a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
            SparseEngine.multiply(a, b)
        }
        fn union_in_place(&self, a: &mut CsrMatrix, b: &CsrMatrix) -> bool {
            SparseEngine.union_in_place(a, b)
        }
        fn union_pairs(&self, a: &mut CsrMatrix, pairs: &[(u32, u32)]) -> bool {
            SparseEngine.union_pairs(a, pairs)
        }
        fn grow(&self, a: &mut CsrMatrix, n: usize) {
            SparseEngine.grow(a, n)
        }
        fn difference(&self, a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
            SparseEngine.difference(a, b)
        }
        fn intersect(&self, a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
            SparseEngine.intersect(a, b)
        }
    }

    fn chain_index() -> (CountBuilds, GraphIndex<CountBuilds>) {
        let engine = CountBuilds::default();
        let graph = generators::word_chain(&["a", "b", "a", "c"]);
        (engine.clone(), GraphIndex::build(engine, &graph))
    }

    #[test]
    fn clones_share_one_build() {
        let (engine, index) = chain_index();
        let clones = [index.clone(), index.clone()];
        assert_eq!(engine.builds(), 0, "building the index builds no label");
        assert_eq!(index.is_built("a"), Some(false));
        let a = clones[0].adjacency("a").unwrap();
        assert_eq!(a.pairs(), vec![(0, 1), (2, 3)]);
        for other in [&index, &clones[1]] {
            assert_eq!(other.is_built("a"), Some(true), "built for every clone");
            assert!(std::ptr::eq(other.adjacency("a").unwrap(), a));
        }
        assert_eq!(engine.builds(), 1);
        assert_eq!(index.is_built("b"), Some(false), "b was never read");
        assert_eq!(index.is_built("nope"), None);
    }

    #[test]
    fn racing_readers_build_a_label_once() {
        let (engine, index) = chain_index();
        let read = std::sync::Barrier::new(8);
        let built: Vec<usize> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..8)
                .map(|_| {
                    let (index, read) = (index.clone(), &read);
                    s.spawn(move || {
                        read.wait();
                        std::ptr::from_ref(index.adjacency("b").unwrap()) as usize
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(engine.builds(), 1, "one build for eight readers");
        assert!(built.iter().all(|&m| m == built[0]), "one matrix");
        let b = std::ptr::from_ref(index.adjacency("b").unwrap()) as usize;
        assert_eq!(b, built[0], "the matrix the index holds");
    }

    #[test]
    fn a_clone_that_writes_a_label_stops_sharing_it() {
        let (engine, index) = chain_index();
        let mut written = index.clone();
        assert!(written.shares_label(&index, "a"));
        assert_eq!(written.add_edges(&[(3, "a", 0)]).inserted, 1);
        assert!(!written.shares_label(&index, "a"));
        assert!(written.shares_label(&index, "b"), "b was not written");
        assert_eq!(written.is_built("a"), Some(false), "a write builds nothing");
        assert_eq!(written.adjacency("a").unwrap().nnz(), 3);
        assert_eq!(index.is_built("a"), Some(false), "nor does a build there");
        assert_eq!(index.adjacency("a").unwrap().nnz(), 2);

        let mut grown = index.clone();
        assert_eq!(grown.add_edges(&[(4, "d", 5)]).inserted, 1);
        for label in ["a", "b", "c"] {
            assert!(!grown.shares_label(&index, label), "{label} was widened");
        }
        assert_eq!(grown.adjacency("c").unwrap().n(), 6);
        assert_eq!(index.is_built("c"), Some(false));
        assert_eq!(index.adjacency("c").unwrap().n(), 5);
        assert_eq!(engine.builds(), 4);
    }

    #[test]
    fn graph_index_exposes_label_matrices() {
        let graph = generators::word_chain(&["a", "b"]);
        let index = GraphIndex::build(SparseEngine, &graph);
        assert_eq!(index.n_nodes(), 3);
        assert_eq!(index.n_labels(), 2);
        assert_eq!(index.n_edges(), 2);
        assert_eq!(index.adjacency("a").unwrap().pairs(), vec![(0, 1)]);
        assert_eq!(index.adjacency("b").unwrap().pairs(), vec![(1, 2)]);
        assert!(index.adjacency("nope").is_none());
        let names: Vec<&str> = index.label_matrices().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}

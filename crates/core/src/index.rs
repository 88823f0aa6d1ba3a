//! The persistent label-matrix index of a graph and the seeds a
//! closure is solved or repaired from.

use crate::relational::SolveOptions;
use cfpq_grammar::symbol::Interner;
use cfpq_grammar::{Nt, Wcnf};
use cfpq_graph::{Graph, Label, NodeId};
use cfpq_matrix::{BoolEngine, BoolMat, LenEngine};
use std::collections::BTreeMap;
use std::sync::Arc;

#[cfg(doc)]
use crate::session::GraphState;

/// The persistent matrix form of a graph: one Boolean adjacency matrix
/// per edge label, built once and updated as edges arrive.
///
/// This is the artifact Algorithm 1's initialization (lines 6–7)
/// produces implicitly and then throws away; materialized, it is shared
/// by every query evaluated against the graph. Generic over all five
/// [`BoolEngine`]s, so the index inherits the paper's representation ×
/// device matrix, and the tiled layout beside it.
///
/// The fixpoint only reads the label matrices, so clones share them
/// copy-on-write: a clone costs one reference count per label, and
/// [`GraphIndex::add_edges`] copies a label's matrix only where another
/// clone still holds it, and only if the batch writes to that label.
///
/// The node universe starts at the build graph's size and grows on
/// demand: [`GraphIndex::add_edges`] accepts new labels *and* new node
/// ids, widening every label matrix (dense rebuild / CSR and tile-row append)
/// before inserting. Sessions pick the growth up lazily — a cached
/// closure is widened the same way before its next repair.
#[derive(Clone)]
pub struct GraphIndex<E: BoolEngine> {
    pub(crate) engine: E,
    pub(crate) n_nodes: usize,
    labels: Interner,
    pub(crate) matrices: Vec<Arc<E::Matrix>>,
    n_edges: usize,
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
    /// Decomposes `graph` into per-label adjacency matrices on `engine`.
    pub fn build(engine: E, graph: &Graph) -> Self {
        Self::build_where(engine, graph, |_| true)
    }

    /// [`GraphIndex::build`] restricted to the labels `keep` accepts:
    /// only those get a matrix, and edges on other labels are not
    /// indexed (nor counted by [`GraphIndex::n_edges`]). This is what
    /// the one-shot `solve` facade uses — it knows the single grammar it
    /// will ever evaluate, so labels that grammar never mentions (e.g.
    /// RDF padding predicates) would be dead weight, n²-bit dead weight
    /// on the dense engines. Long-lived sessions serving unknown future
    /// grammars should index everything ([`GraphIndex::build`]).
    pub fn build_where(engine: E, graph: &Graph, mut keep: impl FnMut(&str) -> bool) -> Self {
        let n = graph.n_nodes();
        let mut labels = Interner::new();
        // Kept graph-label index → index-local label id.
        let mut local: Vec<Option<u32>> = vec![None; graph.n_labels()];
        for (l, name) in graph.labels() {
            if keep(name) {
                local[l.index()] = Some(labels.intern(name));
            }
        }
        let mut pairs_by_label: Vec<Vec<(u32, u32)>> = vec![Vec::new(); labels.len()];
        let mut n_edges = 0usize;
        for e in graph.edges() {
            if let Some(l) = local[e.label.index()] {
                pairs_by_label[l as usize].push((e.from, e.to));
                n_edges += 1;
            }
        }
        let matrices = pairs_by_label
            .iter()
            .map(|pairs| Arc::new(engine.from_pairs(n, pairs)))
            .collect();
        Self {
            engine,
            n_nodes: n,
            labels,
            matrices,
            n_edges,
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

    /// Number of labels with a materialized matrix.
    pub fn n_labels(&self) -> usize {
        self.labels.len()
    }

    /// Total stored edges across all label matrices.
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// The adjacency matrix of a label, if the label exists.
    pub fn adjacency(&self, label: &str) -> Option<&E::Matrix> {
        self.label(label).map(|(_, m)| m)
    }

    /// The id and adjacency matrix of a label, if the label exists. Ids
    /// are interned in arrival order, so an index built from a graph
    /// numbers its labels as the graph does.
    pub(crate) fn label(&self, name: &str) -> Option<(Label, &E::Matrix)> {
        let l = self.labels.get(name)?;
        Some((Label(l), &*self.matrices[l as usize]))
    }

    /// Iterates `(name, matrix)` for every label.
    pub fn label_matrices(&self) -> impl Iterator<Item = (&str, &E::Matrix)> {
        self.labels
            .iter()
            .map(|(l, name)| (name, &*self.matrices[l as usize]))
    }

    /// Inserts a batch of edges, interning unseen labels on the fly and
    /// growing the node universe to cover previously-unseen node ids
    /// (every label matrix is widened first, so no insertion can go out
    /// of bounds).
    ///
    /// Only the label matrices the batch writes to are touched: those
    /// that gain a pair, or all of them when the universe grows. Each is
    /// updated in place if this index holds it alone, and copied first if
    /// a clone shares it, so the clone never sees the batch. A batch of
    /// duplicates writes nothing.
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
                for m in &mut self.matrices {
                    self.engine.grow(Arc::make_mut(m), needed);
                }
                self.n_nodes = needed;
            }
        }
        let mut new_by_label: BTreeMap<u32, Vec<(u32, u32)>> = BTreeMap::new();
        let mut batch_seen: std::collections::HashSet<(u32, u32, u32)> =
            std::collections::HashSet::with_capacity(edges.len());
        let mut duplicates = 0usize;
        for &(u, name, v) in edges {
            let l = self.labels.intern(name);
            while self.matrices.len() <= l as usize {
                self.matrices
                    .push(Arc::new(self.engine.zeros(self.n_nodes)));
            }
            if self.matrices[l as usize].get(u, v) || !batch_seen.insert((l, u, v)) {
                duplicates += 1;
                continue;
            }
            new_by_label.entry(l).or_default().push((u, v));
        }
        let mut inserted = 0usize;
        let new_by_label: Vec<(u32, Vec<(u32, u32)>)> = new_by_label.into_iter().collect();
        for (l, pairs) in &new_by_label {
            self.engine
                .union_pairs(Arc::make_mut(&mut self.matrices[*l as usize]), pairs);
            inserted += pairs.len();
        }
        self.n_edges += inserted;
        EdgeBatch {
            new_by_label,
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

    /// The per-nonterminal seed matrices of a cold solve: every label
    /// matrix union-ed into the `T_A` of each nonterminal with a rule
    /// `A → label`, plus the ε-diagonal when `options` ask for it. This
    /// is Algorithm 1's initialization (lines 6–7) read straight off the
    /// index instead of the edge list.
    pub fn seed_matrices(&self, wcnf: &Wcnf, options: SolveOptions) -> Vec<E::Matrix> {
        let n = self.n_nodes;
        let mut seeds: Vec<Option<E::Matrix>> = (0..wcnf.n_nts()).map(|_| None).collect();
        for (m, nts) in self.matrices.iter().zip(self.label_nonterminals(wcnf)) {
            for nt in nts {
                match &mut seeds[nt.index()] {
                    Some(acc) => {
                        self.engine.union_in_place(acc, m);
                    }
                    None => seeds[nt.index()] = Some(E::Matrix::clone(m)),
                }
            }
        }
        let mut matrices: Vec<E::Matrix> = seeds
            .into_iter()
            .map(|m| m.unwrap_or_else(|| self.engine.zeros(n)))
            .collect();
        if options.nullable_diagonal {
            let diagonal: Vec<(u32, u32)> = (0..n as u32).map(|m| (m, m)).collect();
            for &nt in &wcnf.nullable {
                self.engine
                    .union_pairs(&mut matrices[nt.index()], &diagonal);
            }
        }
        matrices
    }

    /// The per-nonterminal length-1 seed matrices of a cold single-path
    /// solve (the §5 analogue of [`GraphIndex::seed_matrices`]; the
    /// ε-overlay is applied by the solver, not here).
    pub fn seed_length_matrices(&self, wcnf: &Wcnf) -> Vec<<E as LenEngine>::LenMatrix>
    where
        E: LenEngine,
    {
        let mut entries: Vec<Vec<(u32, u32, u32)>> = vec![Vec::new(); wcnf.n_nts()];
        for (m, nts) in self.matrices.iter().zip(self.label_nonterminals(wcnf)) {
            if nts.is_empty() {
                continue;
            }
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
    use cfpq_matrix::SparseEngine;

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

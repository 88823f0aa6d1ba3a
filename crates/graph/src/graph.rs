//! The edge-labeled directed graph `D = (V, E)`, `E ⊆ V × Σ × V` (§2).

use crate::hash::WordSet;
use cfpq_grammar::symbol::Interner;
use std::fmt;

/// A node identifier; nodes are dense indices `0 .. n` as in §4.1
/// ("we enumerate the nodes of the graph D from 0 to |V| − 1").
pub type NodeId = u32;

/// An interned edge label.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Label(pub u32);

impl Label {
    /// The index as `usize` for array indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A single labeled edge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Edge {
    /// Source node.
    pub from: NodeId,
    /// Edge label.
    pub label: Label,
    /// Target node.
    pub to: NodeId,
}

/// An edge-labeled directed graph with interned labels.
///
/// The structure maintains both a flat edge list (what matrix solvers
/// consume for initialization, Algorithm 1 lines 6-7) and forward
/// adjacency per node (what the top-down GLL baseline consumes).
///
/// # Invariant: `E` is a set
///
/// `E ⊆ V × Σ × V` (§2) is a *set*, and [`Graph::add_edge`] enforces it:
/// inserting an edge that is already present is a no-op (it returns
/// `false`), so the edge list, the per-node adjacency and the per-label
/// views always agree with each other and with the Boolean adjacency
/// matrices a `GraphIndex` derives from them.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    labels: Interner,
    n_nodes: usize,
    edges: Vec<Edge>,
    /// adj[u] = sorted-on-demand list of (label, v).
    adj: Vec<Vec<(Label, NodeId)>>,
    /// Membership set enforcing edge uniqueness in O(1) per insertion.
    edge_set: WordSet<(NodeId, u32, NodeId)>,
}

impl Graph {
    /// Creates a graph with `n_nodes` nodes and no edges.
    pub fn new(n_nodes: usize) -> Self {
        Self {
            labels: Interner::new(),
            n_nodes,
            edges: Vec::new(),
            adj: vec![Vec::new(); n_nodes],
            edge_set: WordSet::default(),
        }
    }

    /// Number of nodes `|V|`.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of edges `|E|`.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of distinct labels in use.
    pub fn n_labels(&self) -> usize {
        self.labels.len()
    }

    /// Interns a label name.
    pub fn label(&mut self, name: &str) -> Label {
        Label(self.labels.intern(name))
    }

    /// Looks up a label without interning.
    pub fn get_label(&self, name: &str) -> Option<Label> {
        self.labels.get(name).map(Label)
    }

    /// The name of `label`.
    pub fn label_name(&self, label: Label) -> &str {
        self.labels.name(label.0).unwrap_or("?label")
    }

    /// Iterates `(Label, name)` pairs.
    pub fn labels(&self) -> impl Iterator<Item = (Label, &str)> {
        self.labels.iter().map(|(i, n)| (Label(i), n))
    }

    /// Reserves room for `additional` more edges in the edge list and the
    /// membership set, so a generator that knows its size up front does
    /// not pay for rehashing as the graph grows from empty.
    pub fn reserve_edges(&mut self, additional: usize) {
        self.edges.reserve(additional);
        self.edge_set.reserve(additional);
    }

    /// Grows the node set so that `id` is valid.
    pub fn ensure_node(&mut self, id: NodeId) {
        let needed = id as usize + 1;
        if needed > self.n_nodes {
            self.n_nodes = needed;
            self.adj.resize(needed, Vec::new());
        }
    }

    /// Adds the edge `(from, label, to)`, growing the node set if needed.
    /// Returns `true` if the edge was new; re-inserting an existing edge
    /// is a no-op (`E` is a set, see the type-level invariant), so every
    /// view of the graph stays coherent. The matrix side mirrors both
    /// contracts: a `GraphIndex`'s `add_edges` skips duplicates the same
    /// way (reporting a count instead of a `bool`) and grows its node
    /// universe on unseen ids just like this method does.
    pub fn add_edge(&mut self, from: NodeId, label: Label, to: NodeId) -> bool {
        self.ensure_node(from);
        self.ensure_node(to);
        if !self.edge_set.insert((from, label.0, to)) {
            return false;
        }
        self.edges.push(Edge { from, label, to });
        self.adj[from as usize].push((label, to));
        true
    }

    /// Adds an edge by label name; returns `true` if the edge was new.
    pub fn add_edge_named(&mut self, from: NodeId, label: &str, to: NodeId) -> bool {
        let l = self.label(label);
        self.add_edge(from, l, to)
    }

    /// True if the edge `(from, label, to)` is present.
    pub fn has_edge(&self, from: NodeId, label: Label, to: NodeId) -> bool {
        self.edge_set.contains(&(from, label.0, to))
    }

    /// All edges, in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Forward adjacency of `u`: `(label, v)` pairs in insertion order. A
    /// node outside the graph has none — callers (witness extraction and
    /// validation) pass nodes of an index that may have outgrown it.
    pub fn out_edges(&self, u: NodeId) -> &[(Label, NodeId)] {
        self.adj.get(u as usize).map_or(&[], Vec::as_slice)
    }

    /// Edges with a given label.
    pub fn edges_with_label(&self, label: Label) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.edges
            .iter()
            .filter(move |e| e.label == label)
            .map(|e| (e.from, e.to))
    }

    /// Disjoint union of `k` copies of this graph: node `i` of copy `c`
    /// becomes `c·n + i`. This is how the paper's synthetic graphs g1, g2,
    /// g3 were constructed ("simply repeating the existing graphs"); the
    /// paper's result counts are exactly 8× the base ontologies', which
    /// pins down disjoint-copy semantics.
    pub fn repeat(&self, k: usize) -> Graph {
        assert!(k >= 1, "repeat requires k >= 1");
        let n = self.n_nodes as NodeId;
        let mut out = Graph {
            labels: self.labels.clone(),
            n_nodes: self.n_nodes * k,
            edges: Vec::with_capacity(self.edges.len() * k),
            adj: vec![Vec::new(); self.n_nodes * k],
            edge_set: WordSet::with_capacity_and_hasher(self.edges.len() * k, Default::default()),
        };
        for c in 0..k as NodeId {
            for &Edge { from, label, to } in &self.edges {
                let (f, t) = (c * n + from, c * n + to);
                out.edges.push(Edge {
                    from: f,
                    label,
                    to: t,
                });
                out.adj[f as usize].push((label, t));
                out.edge_set.insert((f, label.0, t));
            }
        }
        out
    }

    /// Per-label edge counts, useful in reports and tests.
    pub fn label_histogram(&self) -> Vec<(String, usize)> {
        let mut counts = vec![0usize; self.labels.len()];
        for e in &self.edges {
            counts[e.label.index()] += 1;
        }
        self.labels
            .iter()
            .map(|(i, n)| (n.to_owned(), counts[i as usize]))
            .collect()
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Graph {{ nodes: {}, edges: {}, labels: {} }}",
            self.n_nodes,
            self.edges.len(),
            self.labels.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut g = Graph::new(3);
        g.add_edge_named(0, "a", 1);
        g.add_edge_named(1, "b", 2);
        g.add_edge_named(2, "a", 0);
        g
    }

    #[test]
    fn basic_accessors() {
        let g = triangle();
        assert_eq!(g.n_nodes(), 3);
        assert_eq!(g.n_edges(), 3);
        assert_eq!(g.n_labels(), 2);
        let a = g.get_label("a").unwrap();
        let pairs: Vec<_> = g.edges_with_label(a).collect();
        assert_eq!(pairs, vec![(0, 1), (2, 0)]);
        assert_eq!(g.out_edges(1), &[(g.get_label("b").unwrap(), 2)]);
    }

    #[test]
    fn add_edge_grows_nodes() {
        let mut g = Graph::new(0);
        g.add_edge_named(5, "x", 9);
        assert_eq!(g.n_nodes(), 10);
        assert_eq!(g.out_edges(5).len(), 1);
        assert!(g.out_edges(3).is_empty());
        assert!(g.out_edges(10).is_empty(), "no such node, no edges");
    }

    #[test]
    fn self_loops_and_duplicates_rejected_at_insertion() {
        let mut g = Graph::new(1);
        assert!(g.add_edge_named(0, "a", 0));
        assert!(g.add_edge_named(0, "b", 0));
        assert!(!g.add_edge_named(0, "a", 0), "duplicate is a no-op");
        assert_eq!(g.n_edges(), 2);
        assert_eq!(g.out_edges(0).len(), 2);
    }

    #[test]
    fn duplicate_insertion_keeps_views_coherent() {
        // Regression test for the old footgun: duplicate add_edge calls
        // used to leave duplicates in `edges`/`out_edges`; all views
        // must stay coherent through duplicate insertions.
        let mut g = Graph::new(3);
        for _ in 0..3 {
            g.add_edge_named(0, "a", 1);
            g.add_edge_named(1, "b", 2);
        }
        assert_eq!(g.n_edges(), 2);
        let a = g.get_label("a").unwrap();
        assert_eq!(g.edges_with_label(a).collect::<Vec<_>>(), vec![(0, 1)]);
        assert_eq!(g.out_edges(0), &[(a, 1)]);
        assert!(g.has_edge(0, a, 1));
        assert!(!g.has_edge(1, a, 0));
        assert_eq!(g.label_histogram(), vec![("a".into(), 1), ("b".into(), 1)]);
        // The flat edge list agrees with the membership view.
        assert_eq!(g.edges().len(), 2);
    }

    #[test]
    fn repeat_is_disjoint_union() {
        let g = triangle();
        let r = g.repeat(3);
        assert_eq!(r.n_nodes(), 9);
        assert_eq!(r.n_edges(), 9);
        // Copy 2's `a` edges are shifted by 6.
        let a = r.get_label("a").unwrap();
        let pairs: Vec<_> = r.edges_with_label(a).collect();
        assert!(pairs.contains(&(6, 7)));
        assert!(pairs.contains(&(8, 6)));
        // No cross-copy edges.
        for e in r.edges() {
            assert_eq!(e.from / 3, e.to / 3, "edge crosses copies: {e:?}");
        }
    }

    #[test]
    fn label_histogram_counts() {
        let g = triangle();
        let h = g.label_histogram();
        assert_eq!(h, vec![("a".to_owned(), 2), ("b".to_owned(), 1)]);
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn repeat_zero_panics() {
        triangle().repeat(0);
    }
}

/// Structural statistics of a graph — iteration counts of the fixpoint
/// solvers correlate with these (cycle structure in particular), so the
/// bench harness reports them alongside timings.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Node count |V|.
    pub n_nodes: usize,
    /// Edge count |E|.
    pub n_edges: usize,
    /// Distinct labels.
    pub n_labels: usize,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Number of strongly connected components (Tarjan).
    pub n_sccs: usize,
    /// Size of the largest SCC; > 1 means the graph is cyclic beyond
    /// self-loops.
    pub largest_scc: usize,
    /// Nodes with at least one self-loop.
    pub n_self_loops: usize,
}

impl Graph {
    /// Computes [`GraphStats`], including SCCs via iterative Tarjan.
    pub fn stats(&self) -> GraphStats {
        let sccs = self.sccs();
        let mut scc_sizes = vec![0usize; self.n_nodes];
        for &c in &sccs {
            scc_sizes[c as usize] += 1;
        }
        let n_sccs = scc_sizes.iter().filter(|&&s| s > 0).count();
        let largest_scc = scc_sizes.iter().copied().max().unwrap_or(0);
        let mut self_loop_nodes = std::collections::HashSet::new();
        for e in &self.edges {
            if e.from == e.to {
                self_loop_nodes.insert(e.from);
            }
        }
        GraphStats {
            n_nodes: self.n_nodes,
            n_edges: self.edges.len(),
            n_labels: self.labels.len(),
            max_out_degree: self.adj.iter().map(Vec::len).max().unwrap_or(0),
            n_sccs,
            largest_scc,
            n_self_loops: self_loop_nodes.len(),
        }
    }

    /// Strongly connected components (iterative Tarjan): returns, per
    /// node, a component id in `0..n_nodes` (ids are component
    /// representatives, not necessarily dense).
    pub fn sccs(&self) -> Vec<NodeId> {
        const UNVISITED: u32 = u32::MAX;
        let n = self.n_nodes;
        let mut index = vec![UNVISITED; n];
        let mut lowlink = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut comp = vec![0 as NodeId; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut next_index = 0u32;

        // Explicit DFS state machine: (node, next child position).
        let mut call_stack: Vec<(u32, usize)> = Vec::new();
        for root in 0..n as u32 {
            if index[root as usize] != UNVISITED {
                continue;
            }
            call_stack.push((root, 0));
            index[root as usize] = next_index;
            lowlink[root as usize] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root as usize] = true;

            while let Some(&mut (v, ref mut child)) = call_stack.last_mut() {
                let out = self.out_edges(v);
                if *child < out.len() {
                    let (_, w) = out[*child];
                    *child += 1;
                    if index[w as usize] == UNVISITED {
                        index[w as usize] = next_index;
                        lowlink[w as usize] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w as usize] = true;
                        call_stack.push((w, 0));
                    } else if on_stack[w as usize] {
                        lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                    }
                } else {
                    call_stack.pop();
                    if let Some(&mut (parent, _)) = call_stack.last_mut() {
                        lowlink[parent as usize] =
                            lowlink[parent as usize].min(lowlink[v as usize]);
                    }
                    if lowlink[v as usize] == index[v as usize] {
                        // v is the root of an SCC.
                        loop {
                            let w = stack.pop().expect("tarjan stack non-empty");
                            on_stack[w as usize] = false;
                            comp[w as usize] = v;
                            if w == v {
                                break;
                            }
                        }
                    }
                }
            }
        }
        comp
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;

    #[test]
    fn scc_on_cycle_and_chain() {
        let mut g = Graph::new(5);
        // Cycle 0 -> 1 -> 2 -> 0, chain 3 -> 4.
        g.add_edge_named(0, "a", 1);
        g.add_edge_named(1, "a", 2);
        g.add_edge_named(2, "a", 0);
        g.add_edge_named(3, "a", 4);
        let comp = g.sccs();
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_ne!(comp[0], comp[3]);
        assert_ne!(comp[3], comp[4]);
        let stats = g.stats();
        assert_eq!(stats.n_sccs, 3);
        assert_eq!(stats.largest_scc, 3);
        assert_eq!(stats.n_self_loops, 0);
    }

    #[test]
    fn stats_on_paper_example() {
        let mut g = Graph::new(3);
        g.add_edge_named(0, "subClassOf_r", 0);
        g.add_edge_named(0, "type_r", 1);
        g.add_edge_named(1, "type_r", 2);
        g.add_edge_named(2, "subClassOf", 0);
        g.add_edge_named(2, "type", 2);
        let stats = g.stats();
        assert_eq!(stats.n_nodes, 3);
        assert_eq!(stats.n_edges, 5);
        assert_eq!(stats.n_labels, 4);
        assert_eq!(stats.n_self_loops, 2);
        // 0 -> 1 -> 2 -> 0 is one SCC of size 3.
        assert_eq!(stats.largest_scc, 3);
        assert_eq!(stats.n_sccs, 1);
    }

    #[test]
    fn dag_has_singleton_sccs() {
        let mut g = Graph::new(4);
        g.add_edge_named(0, "x", 1);
        g.add_edge_named(0, "x", 2);
        g.add_edge_named(1, "x", 3);
        g.add_edge_named(2, "x", 3);
        let stats = g.stats();
        assert_eq!(stats.n_sccs, 4);
        assert_eq!(stats.largest_scc, 1);
        assert_eq!(stats.max_out_degree, 2);
    }

    #[test]
    fn empty_graph_stats() {
        let g = Graph::new(0);
        let stats = g.stats();
        assert_eq!(stats.n_nodes, 0);
        assert_eq!(stats.n_sccs, 0);
        assert_eq!(stats.largest_scc, 0);
    }

    #[test]
    fn self_loop_is_singleton_scc() {
        let mut g = Graph::new(2);
        g.add_edge_named(0, "a", 0);
        g.add_edge_named(0, "a", 1);
        let stats = g.stats();
        assert_eq!(stats.n_sccs, 2);
        assert_eq!(stats.n_self_loops, 1);
    }
}

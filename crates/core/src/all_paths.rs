//! Streaming all-path enumeration — the §7 future-work semantics.
//!
//! The all-path query semantics "requires presenting all possible paths
//! from node m to node n whose labeling is derived from a non-terminal A".
//! On cyclic graphs the full answer can be infinite (the paper cites
//! annotated grammars \[12\] as one mitigation); this module provides the
//! practical variant: stream all *distinct* witness paths in (length,
//! then lexicographic) order, bounded by a length cap and paged by
//! `offset`/`limit`, pruned by the relational index so only productive
//! splits are explored.
//!
//! The workhorse is the [`PathEnumerator`]: a memoized bottom-up
//! enumerator over per-`(nt, from, to, len)` *length classes*. Each class
//! — the sorted, deduplicated set of witness paths of exactly `len` edges
//! — is computed once and reused by every larger split that needs it, so
//! enumerating on a cyclic graph costs work proportional to the classes
//! actually materialized, not to the (exponential) number of derivation
//! trees the old re-entrant recursive walk re-explored per pivot and per
//! `(left_len, right_len)` split. Classes are computed lazily in length
//! order, so a page that fills early never touches longer lengths.
//!
//! A page prunes against a `&dyn` [`Relation`], the one read interface
//! of a solved closure: a relational closure, or a §5 length closure,
//! whose support is the same relation.
//!
//! The enumerator keeps no edges of its own: a page reads the
//! [`GraphIndex`] the closure was solved on, whose label matrices are the
//! one edge store above the matrix layer. A terminal step is a
//! [`BoolMat::get`] of the label matrix bound to the terminal by name.
//!
//! ε-witnesses are first-class: when the relational index was solved
//! with `nullable_diagonal` enabled, a nullable `A` at a diagonal pair
//! `(m, m)` yields the empty path, and binary splits `A → BC` may erase
//! either side (`B` deriving ε at the source node, or `C` at the target
//! node) — pruned, like every other split, against the nullable-aware
//! relations. Erasing a side keeps `(from, to, len)` fixed and only
//! rewrites the nonterminal, so instead of the old recursion guard the
//! enumerator precomputes the ε-erasure *reachability* over nonterminals
//! per endpoint pair and unions the base classes of every reachable
//! nonterminal — no cyclic recursion can arise at all (two-sided splits
//! strictly decrease `len`).
//!
//! Truncation is never silent: every [`PathPage`] carries an
//! [`PathPage::exhausted`] flag stating whether enumeration proved that
//! no further path exists within the length bound beyond the returned
//! page.
//!
//! The pre-rewrite recursive walk survives as
//! [`enumerate_paths_eager`] — the reference oracle the fixed-seed
//! property suite compares the enumerator against. It reads the
//! [`Graph`]'s edge list where the enumerator reads the index, so each
//! checks the other across the two edge stores.

use crate::relational::{label_terminal_map, RelationalIndex};
use crate::session::GraphIndex;
use crate::single_path::SinglePathIndex;
use cfpq_grammar::{BinaryRule, Nt, Term, Wcnf};
use cfpq_graph::{Edge, Graph, Label, NodeId};
use cfpq_matrix::{BoolEngine, BoolMat, LenMat};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// One page of an all-path enumeration: skip `offset` paths in the
/// (length, lexicographic) stream, return at most `limit`, never explore
/// beyond `max_len` edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageRequest {
    /// Paths to skip before the page starts.
    pub offset: usize,
    /// Maximum paths in the page.
    pub limit: usize,
    /// Maximum path length in edges (the enumeration horizon — on cyclic
    /// graphs the stream is infinite without it).
    pub max_len: usize,
}

impl Default for PageRequest {
    fn default() -> Self {
        Self {
            offset: 0,
            limit: 64,
            max_len: 16,
        }
    }
}

/// The result of one paged enumeration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathPage {
    /// The page's witness paths, in (length, then lexicographic by
    /// `(from, label, to)` edge triples) order.
    pub paths: Vec<Vec<Edge>>,
    /// `true` iff the enumeration *proved* there is no further path of
    /// length ≤ `max_len` beyond this page — i.e. the stream within the
    /// horizon ends here. `false` means the page was cut by `limit` (or
    /// a caller-imposed quota): more paths exist, ask for the next page.
    /// Paths longer than `max_len` are outside the horizon either way.
    pub exhausted: bool,
}

impl PathPage {
    /// An empty, non-exhausted page (the shape quota-limited callers
    /// return when a request's budget is already spent).
    pub fn truncated() -> Self {
        Self {
            paths: Vec::new(),
            exhausted: false,
        }
    }
}

/// A path as comparable raw triples `(from, label, to)` — the dedup and
/// ordering key of a length class.
type PathKey = Vec<(u32, u32, u32)>;

/// Memo key: `(nt, from, to, len)`.
type ClassKey = (u32, u32, u32, u32);

/// What is read of a solved closure — by a [`crate::query::QueryAnswer`]
/// and by a page, which also reads a row's columns (the pivots of a
/// split), both through `&dyn Relation`. A relational closure is one, and
/// so is a §5 length closure, whose support is the same relation.
pub trait Relation {
    /// True if `(i, j) ∈ R_nt`; node ids outside the closure are related
    /// to nothing.
    fn contains(&self, nt: Nt, i: u32, j: u32) -> bool;

    /// `|R_nt|`.
    fn count(&self, nt: Nt) -> usize;

    /// `R_nt` as sorted pairs.
    fn pairs(&self, nt: Nt) -> Vec<(u32, u32)>;

    /// The columns `j` with `(i, j) ∈ R_nt`, ascending; none for a row
    /// outside the closure.
    fn row_cols(&self, nt: Nt, i: u32) -> Box<dyn Iterator<Item = u32> + '_>;

    /// The nodes the closure covers and the sweeps that closed it: an
    /// answer's `n_nodes` and `iterations`.
    fn extent(&self) -> (usize, usize);
}

impl<M: BoolMat> Relation for RelationalIndex<M> {
    fn contains(&self, nt: Nt, i: u32, j: u32) -> bool {
        RelationalIndex::contains(self, nt, i, j)
    }

    fn count(&self, nt: Nt) -> usize {
        RelationalIndex::count(self, nt)
    }

    fn pairs(&self, nt: Nt) -> Vec<(u32, u32)> {
        RelationalIndex::pairs(self, nt)
    }

    fn row_cols(&self, nt: Nt, i: u32) -> Box<dyn Iterator<Item = u32> + '_> {
        Box::new(self.matrices[nt.index()].row_cols(i))
    }

    fn extent(&self) -> (usize, usize) {
        (self.n_nodes, self.iterations)
    }
}

impl<L: LenMat> Relation for SinglePathIndex<L> {
    fn contains(&self, nt: Nt, i: u32, j: u32) -> bool {
        SinglePathIndex::contains(self, nt, i, j)
    }

    fn count(&self, nt: Nt) -> usize {
        SinglePathIndex::count(self, nt)
    }

    fn pairs(&self, nt: Nt) -> Vec<(u32, u32)> {
        SinglePathIndex::pairs(self, nt)
    }

    fn row_cols(&self, nt: Nt, i: u32) -> Box<dyn Iterator<Item = u32> + '_> {
        Box::new(self.matrix(nt).row_cells(i).map(|(j, _)| j))
    }

    fn extent(&self) -> (usize, usize) {
        (self.n_nodes, self.iterations)
    }
}

/// What one page reads: the closure it prunes against, and per grammar
/// terminal (by `Term::index()`) the index label bound to it by name.
struct View<'a, A> {
    closure: &'a dyn Relation,
    labels: Vec<Option<(Label, &'a A)>>,
}

/// The lazy, deduplicating, paged all-path enumerator.
///
/// An enumerator holds one grammar's tables and the length classes it
/// has memoized, and serves any number of [`PathEnumerator::page`] calls:
/// paging deeper, re-querying other endpoint pairs, or re-reading earlier
/// pages reuses everything already computed. The memo tables are valid
/// for one graph state only — every page must pass the same index and
/// closure. After the graph changes, classes may grow (entries are
/// exact-length sets), so drop the enumerator and build a fresh one. A
/// [`crate::session::GraphState`] keeps one beside each relational
/// closure and drops it with every batch of edges the state absorbs.
#[derive(Clone)]
pub struct PathEnumerator {
    /// Per terminal: its name, which binds it to the index label of the
    /// same name.
    term_names: Vec<String>,
    /// `nullable[nt]` — the nonterminal could derive ε in the source
    /// grammar (weak-CNF itself is ε-free; see [`Wcnf::nullable`]).
    nullable: Vec<bool>,
    /// Per nonterminal: terminals with a rule `nt → term`.
    terms_of: Vec<Vec<Term>>,
    rules: Arc<Vec<BinaryRule>>,
    /// Memoized full length classes: `(nt, i, j, len)` → sorted distinct
    /// paths of exactly `len` edges deriving `nt` between `i` and `j`.
    classes: HashMap<ClassKey, Arc<Vec<PathKey>>>,
    /// Memoized *base* classes: contributions not routed through an
    /// ε-erasure (terminal edges at `len == 1`, two-sided splits at
    /// `len ≥ 2`).
    bases: HashMap<ClassKey, Arc<Vec<PathKey>>>,
    /// Per endpoint pair `(i, j)`: the ε-erasure reachability over
    /// nonterminals (see [`PathEnumerator::eps_reach`]).
    eps: HashMap<(u32, u32), Arc<Vec<Vec<u32>>>>,
}

impl PathEnumerator {
    /// An enumerator for `grammar`, with nothing memoized yet.
    pub fn new(grammar: &Wcnf) -> Self {
        let mut terms_of: Vec<Vec<Term>> = vec![Vec::new(); grammar.n_nts()];
        for r in &grammar.term_rules {
            terms_of[r.lhs.index()].push(r.term);
        }
        for v in &mut terms_of {
            v.sort_unstable();
            v.dedup();
        }
        let mut nullable = vec![false; grammar.n_nts()];
        for &nt in &grammar.nullable {
            nullable[nt.index()] = true;
        }
        Self {
            term_names: grammar.symbols.terms().map(|(_, n)| n.to_owned()).collect(),
            nullable,
            terms_of,
            rules: Arc::new(grammar.binary_rules.clone()),
            classes: HashMap::new(),
            bases: HashMap::new(),
            eps: HashMap::new(),
        }
    }

    /// Memoized length classes currently materialized (an observability
    /// hook for tests and stats; grows monotonically per graph state).
    pub fn n_classes(&self) -> usize {
        self.classes.len()
    }

    /// Streams one page of distinct witness paths for `(nt, from, to)`:
    /// skip `req.offset` paths of the (length, lexicographic) stream,
    /// return up to `req.limit`, never explore beyond `req.max_len`
    /// edges. Terminal steps read `index`'s label matrices, and emitted
    /// [`Edge::label`]s are its label ids. `closure` must hold the
    /// relation of the grammar over `index` — its relational closure, or
    /// its length closure (it decides ε-visibility: only a
    /// `nullable_diagonal` closure unlocks ε-witnesses and ε-side
    /// splits), and every page of one enumerator must pass the same two.
    pub fn page<E: BoolEngine>(
        &mut self,
        index: &GraphIndex<E>,
        closure: &dyn Relation,
        nt: Nt,
        from: NodeId,
        to: NodeId,
        req: PageRequest,
    ) -> PathPage {
        let view = View {
            closure,
            labels: self.term_names.iter().map(|n| index.label(n)).collect(),
        };
        let mut paths = Vec::new();
        let mut skip = req.offset;
        let mut exhausted = true;
        'lengths: for len in 0..=req.max_len {
            let class = self.class(&view, nt, from, to, len);
            for key in class.iter() {
                if skip > 0 {
                    skip -= 1;
                    continue;
                }
                if paths.len() == req.limit {
                    // One path past the page proves the cut was real.
                    exhausted = false;
                    break 'lengths;
                }
                paths.push(decode(key));
            }
        }
        PathPage { paths, exhausted }
    }

    /// The full length class for `(nt, from, to)` at exactly `len`
    /// edges: every base class of every ε-erasure-reachable nonterminal,
    /// deduplicated and sorted. `len == 0` is the ε-witness, reported
    /// only when the diagonal pair is in the (nullable-aware) closure.
    fn class<A: BoolMat>(
        &mut self,
        view: &View<A>,
        nt: Nt,
        from: u32,
        to: u32,
        len: usize,
    ) -> Arc<Vec<PathKey>> {
        let key = (nt.0, from, to, len as u32);
        if let Some(v) = self.classes.get(&key) {
            return Arc::clone(v);
        }
        let closure = view.closure;
        let v = if len == 0 {
            if from == to && self.nullable[nt.index()] && closure.contains(nt, from, to) {
                Arc::new(vec![Vec::new()])
            } else {
                Arc::new(Vec::new())
            }
        } else if !closure.contains(nt, from, to) {
            // The closure is complete: no pair, no witness of any length.
            Arc::new(Vec::new())
        } else {
            let reach = self.eps_reach(closure, from, to);
            let mut set: BTreeSet<PathKey> = BTreeSet::new();
            for &d in &reach[nt.index()] {
                let base = self.base_class(view, Nt(d), from, to, len);
                set.extend(base.iter().cloned());
            }
            Arc::new(set.into_iter().collect())
        };
        self.classes.insert(key, Arc::clone(&v));
        v
    }

    /// The ε-erasure-free contributions to a length class: terminal
    /// edges at `len == 1` — a read of each bound label matrix — and
    /// two-sided splits `d → BC` over every pivot at `len ≥ 2`, the
    /// pivots being the stored cells of row `from` of `R_B`, in
    /// ascending order, so a split costs that row and not the graph.
    /// Both sides of a split are full classes of strictly smaller
    /// length, so the recursion terminates without any guard.
    fn base_class<A: BoolMat>(
        &mut self,
        view: &View<A>,
        d: Nt,
        from: u32,
        to: u32,
        len: usize,
    ) -> Arc<Vec<PathKey>> {
        let key = (d.0, from, to, len as u32);
        if let Some(v) = self.bases.get(&key) {
            return Arc::clone(v);
        }
        let mut set: BTreeSet<PathKey> = BTreeSet::new();
        if len == 1 {
            set.extend(self.terms_of[d.index()].iter().filter_map(|term| {
                let (label, matrix) = view.labels[term.index()]?;
                matrix.get(from, to).then(|| vec![(from, label.0, to)])
            }));
        } else {
            let closure = view.closure;
            let rules = Arc::clone(&self.rules);
            for rule in rules.iter().filter(|r| r.lhs == d) {
                for k in closure.row_cols(rule.left, from) {
                    if !closure.contains(rule.right, k, to) {
                        continue;
                    }
                    for left_len in 1..len {
                        let lefts = self.class(view, rule.left, from, k, left_len);
                        if lefts.is_empty() {
                            continue;
                        }
                        let rights = self.class(view, rule.right, k, to, len - left_len);
                        for lp in lefts.iter() {
                            for rp in rights.iter() {
                                let mut full = lp.clone();
                                full.extend_from_slice(rp);
                                set.insert(full);
                            }
                        }
                    }
                }
            }
        }
        let v: Arc<Vec<PathKey>> = Arc::new(set.into_iter().collect());
        self.bases.insert(key, Arc::clone(&v));
        v
    }

    /// ε-erasure reachability over nonterminals at endpoint pair
    /// `(i, j)`: `A` steps to `C` if a rule `A → BC` can erase its left
    /// side (`B` nullable with `(B, i, i)` in the closure), and to `B` if
    /// it can erase its right side at `j`. An erasure keeps the
    /// endpoints *and the length* fixed and only rewrites the
    /// nonterminal, so the class of `A` is the union of the base classes
    /// of every nonterminal in `reach[A]` (which always contains `A`).
    /// This closed set is what replaces the old recursion guard: rules
    /// like `S → S S` with nullable `S` simply yield `S ∈ reach[S]`.
    fn eps_reach(&mut self, closure: &dyn Relation, i: u32, j: u32) -> Arc<Vec<Vec<u32>>> {
        if let Some(r) = self.eps.get(&(i, j)) {
            return Arc::clone(r);
        }
        let n_nts = self.terms_of.len();
        let mut succ: Vec<Vec<u32>> = vec![Vec::new(); n_nts];
        for rule in self.rules.iter() {
            if self.nullable[rule.left.index()] && closure.contains(rule.left, i, i) {
                succ[rule.lhs.index()].push(rule.right.0);
            }
            if self.nullable[rule.right.index()] && closure.contains(rule.right, j, j) {
                succ[rule.lhs.index()].push(rule.left.0);
            }
        }
        let reach: Vec<Vec<u32>> = (0..n_nts)
            .map(|a| {
                let mut seen = vec![false; n_nts];
                seen[a] = true;
                let mut stack = vec![a as u32];
                let mut out = Vec::new();
                while let Some(d) = stack.pop() {
                    out.push(d);
                    for &s in &succ[d as usize] {
                        if !seen[s as usize] {
                            seen[s as usize] = true;
                            stack.push(s);
                        }
                    }
                }
                out.sort_unstable();
                out
            })
            .collect();
        let arc = Arc::new(reach);
        self.eps.insert((i, j), Arc::clone(&arc));
        arc
    }
}

fn decode(key: &[(u32, u32, u32)]) -> Vec<Edge> {
    key.iter()
        .map(|&(from, label, to)| Edge {
            from,
            label: Label(label),
            to,
        })
        .collect()
}

/// The pre-rewrite eager recursive walk over the graph's edge list, kept
/// as the reference oracle for the fixed-seed property suite. Unlike the
/// [`PathEnumerator`] it re-derives sub-paths from scratch at every pivot
/// and split (exponential on exactly the cyclic graphs the module exists
/// for) and emits within-length results in edge-iteration order. It
/// collects the first `req.offset + req.limit` distinct paths within
/// `req.max_len` and skips `req.offset` of them — use the enumerator for
/// anything but oracle comparisons.
pub fn enumerate_paths_eager<M: BoolMat>(
    index: &RelationalIndex<M>,
    graph: &Graph,
    grammar: &Wcnf,
    nt: Nt,
    from: NodeId,
    to: NodeId,
    req: PageRequest,
) -> Vec<Vec<Edge>> {
    if !index.contains(nt, from, to) {
        return Vec::new();
    }
    let term_of = label_terminal_map(graph, grammar);
    let mut seen: BTreeSet<PathKey> = BTreeSet::new();
    let ctx = Ctx {
        index,
        graph,
        grammar,
        term_of: &term_of,
        max_paths: req.offset.saturating_add(req.limit),
    };
    let mut results = Vec::new();
    // The ε-witness: the empty path, reported only when the relations
    // are nullable-aware (the pair is in the index) and `nt` can erase.
    if from == to && grammar.nullable.contains(&nt) {
        ctx.emit(&[], &mut results, &mut seen);
    }
    // Iterative deepening so output is ordered by length and the search
    // never wastes budget on long paths before short ones are exhausted.
    let mut guard = HashSet::new();
    for len in 1..=req.max_len {
        ctx.collect(
            nt,
            from,
            to,
            len,
            &mut Vec::new(),
            &mut results,
            &mut seen,
            &mut guard,
        );
        if results.len() >= ctx.max_paths {
            break;
        }
    }
    results.truncate(ctx.max_paths);
    results.split_off(req.offset.min(results.len()))
}

struct Ctx<'a, M: BoolMat> {
    index: &'a RelationalIndex<M>,
    graph: &'a Graph,
    grammar: &'a Wcnf,
    term_of: &'a [Option<Term>],
    max_paths: usize,
}

/// One in-flight enumeration state of the eager walk; re-entering it
/// along the same recursion path (only possible through ε-side splits,
/// which keep the length) would loop forever while contributing no new
/// paths. Held in a hash set with insert/remove (push/pop) discipline —
/// the old `Vec` guard paid an O(depth) scan per entry.
type GuardKey = (Nt, NodeId, NodeId, usize);

impl<M: BoolMat> Ctx<'_, M> {
    /// Collects all paths of *exactly* `len ≥ 1` edges deriving `nt`
    /// between `from` and `to`, appending new distinct ones (with
    /// `prefix` prepended) to `results`.
    #[allow(clippy::too_many_arguments)]
    fn collect(
        &self,
        nt: Nt,
        from: NodeId,
        to: NodeId,
        len: usize,
        prefix: &mut Vec<Edge>,
        results: &mut Vec<Vec<Edge>>,
        seen: &mut BTreeSet<PathKey>,
        guard: &mut HashSet<GuardKey>,
    ) {
        if results.len() >= self.max_paths {
            return;
        }
        let key = (nt, from, to, len);
        if !guard.insert(key) {
            return;
        }
        self.collect_splits(nt, from, to, len, prefix, results, seen, guard);
        guard.remove(&key);
    }

    #[allow(clippy::too_many_arguments)]
    fn collect_splits(
        &self,
        nt: Nt,
        from: NodeId,
        to: NodeId,
        len: usize,
        prefix: &mut Vec<Edge>,
        results: &mut Vec<Vec<Edge>>,
        seen: &mut BTreeSet<PathKey>,
        guard: &mut HashSet<GuardKey>,
    ) {
        if len == 1 {
            for &(label, v) in self.graph.out_edges(from) {
                if v != to {
                    continue;
                }
                let Some(term) = self.term_of[label.index()] else {
                    continue;
                };
                if self
                    .grammar
                    .term_rules
                    .iter()
                    .any(|r| r.lhs == nt && r.term == term)
                {
                    prefix.push(Edge { from, label, to });
                    self.emit(prefix, results, seen);
                    prefix.pop();
                    if results.len() >= self.max_paths {
                        return;
                    }
                }
            }
            // A single-edge path may still come from a binary rule with
            // one side erased — fall through to the split loop.
        }
        for rule in &self.grammar.binary_rules {
            if rule.lhs != nt {
                continue;
            }
            // ε-side splits: the whole path comes from one side while
            // the other derives the empty word at the stationary node.
            // Only explored against nullable-aware relations (the
            // diagonal pair must be in the index).
            if self.grammar.nullable.contains(&rule.left)
                && self.index.contains(rule.left, from, from)
            {
                self.collect(rule.right, from, to, len, prefix, results, seen, guard);
            }
            if self.grammar.nullable.contains(&rule.right)
                && self.index.contains(rule.right, to, to)
            {
                self.collect(rule.left, from, to, len, prefix, results, seen, guard);
            }
            if len == 1 {
                continue; // no two-sided split of a single edge
            }
            for k in 0..self.index.n_nodes as u32 {
                if !self.index.contains(rule.left, from, k)
                    || !self.index.contains(rule.right, k, to)
                {
                    continue;
                }
                for left_len in 1..len {
                    let right_len = len - left_len;
                    // Enumerate left sub-paths; for each, extend right.
                    let mut left_paths = Vec::new();
                    let mut sub_seen = BTreeSet::new();
                    self.collect(
                        rule.left,
                        from,
                        k,
                        left_len,
                        &mut Vec::new(),
                        &mut left_paths,
                        &mut sub_seen,
                        guard,
                    );
                    for lp in left_paths {
                        let mut new_prefix = prefix.clone();
                        new_prefix.extend_from_slice(&lp);
                        let mut right_paths = Vec::new();
                        let mut right_seen = BTreeSet::new();
                        self.collect(
                            rule.right,
                            k,
                            to,
                            right_len,
                            &mut Vec::new(),
                            &mut right_paths,
                            &mut right_seen,
                            guard,
                        );
                        for rp in right_paths {
                            let mut full = new_prefix.clone();
                            full.extend_from_slice(&rp);
                            self.emit(&full, results, seen);
                            if results.len() >= self.max_paths {
                                return;
                            }
                        }
                    }
                }
            }
        }
    }

    fn emit(&self, path: &[Edge], results: &mut Vec<Vec<Edge>>, seen: &mut BTreeSet<PathKey>) {
        let key: PathKey = path.iter().map(|e| (e.from, e.label.0, e.to)).collect();
        if seen.insert(key) {
            results.push(path.to_vec());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relational::{FixpointSolver, SolveOptions};
    use crate::single_path::validate_witness;
    use cfpq_grammar::cnf::CnfOptions;
    use cfpq_grammar::Cfg;
    use cfpq_graph::generators;
    use cfpq_matrix::DenseEngine;

    fn wcnf(src: &str) -> Wcnf {
        Cfg::parse(src)
            .unwrap()
            .to_wcnf(CnfOptions::default())
            .unwrap()
    }

    /// A page of `S`'s paths from a fresh enumerator over `graph`'s index.
    fn page<M: BoolMat>(
        closure: &RelationalIndex<M>,
        graph: &Graph,
        g: &Wcnf,
        from: u32,
        to: u32,
        req: PageRequest,
    ) -> PathPage {
        let s = g.symbols.get_nt("S").unwrap();
        let index = GraphIndex::build(DenseEngine, graph);
        PathEnumerator::new(g).page(&index, closure, s, from, to, req)
    }

    /// The first `limit` paths within `max_len`.
    fn first(limit: usize, max_len: usize) -> PageRequest {
        PageRequest {
            offset: 0,
            limit,
            max_len,
        }
    }

    /// Self loops `a` and `b` at one node: infinitely many witnesses of
    /// `S -> a S b | a b`.
    fn ab_loops() -> Graph {
        let mut graph = Graph::new(1);
        graph.add_edge_named(0, "a", 0);
        graph.add_edge_named(0, "b", 0);
        graph
    }

    #[test]
    fn chain_has_exactly_one_path() {
        let g = wcnf("S -> a S b | a b");
        let graph = generators::word_chain(&["a", "a", "b", "b"]);
        let idx = FixpointSolver::new(&DenseEngine).solve(&graph, &g);
        let page = page(&idx, &graph, &g, 0, 4, PageRequest::default());
        assert_eq!(page.paths.len(), 1);
        assert_eq!(page.paths[0].len(), 4);
        assert!(page.exhausted, "one path exists, and the page proves it");
    }

    #[test]
    fn cyclic_graph_yields_multiple_valid_paths() {
        // The enumeration returns all witnesses up to the caps, each valid.
        let g = wcnf("S -> a S b | a b");
        let s = g.symbols.get_nt("S").unwrap();
        let graph = ab_loops();
        let idx = FixpointSolver::new(&DenseEngine).solve(&graph, &g);
        let page = page(&idx, &graph, &g, 0, 0, first(10, 8));
        // a b, a a b b, a a a b b b, a a a a b b b b → 4 distinct within 8.
        assert_eq!(page.paths.len(), 4);
        assert!(page.exhausted, "nothing else exists within max_len 8");
        for p in &page.paths {
            assert!(validate_witness(p, &graph, &g, s, 0, 0), "path {p:?}");
        }
        // Ordered by length.
        let lens: Vec<usize> = page.paths.iter().map(Vec::len).collect();
        assert_eq!(lens, vec![2, 4, 6, 8]);
    }

    #[test]
    fn cyclic_stress_completes_where_eager_was_exponential() {
        // The acceptance stress: the `cyclic_graph_yields_multiple_valid_
        // paths` setup scaled to limit = 1000, max_len = 64. One
        // memoized class per (nt, len) — the eager walk re-derived each
        // from scratch per pivot and split.
        let g = wcnf("S -> a S b | a b");
        let s = g.symbols.get_nt("S").unwrap();
        let graph = ab_loops();
        let idx = FixpointSolver::new(&DenseEngine).solve(&graph, &g);
        let page = page(&idx, &graph, &g, 0, 0, first(1000, 64));
        // One witness aⁿbⁿ per even length 2..=64.
        assert_eq!(page.paths.len(), 32);
        assert!(page.exhausted);
        for p in &page.paths {
            assert!(validate_witness(p, &graph, &g, s, 0, 0));
        }
    }

    #[test]
    fn nullable_dyck_grammar_surfaces_epsilon_witnesses() {
        // The PR-4 regression: a Dyck-style grammar with an ε-rule. On a
        // nullable-aware index the diagonal pair yields the empty path
        // first, and every nonempty witness is still found — including
        // through derivations that erase one side of `S -> S S`.
        let g = wcnf("S -> ( S ) S | eps");
        let s = g.symbols.get_nt("S").unwrap();
        let graph = generators::word_chain(&["(", ")", "(", ")"]);
        let idx = FixpointSolver::new(&DenseEngine)
            .options(SolveOptions {
                nullable_diagonal: true,
            })
            .solve(&graph, &g);
        // Diagonal: ε-witness plus nothing else at node 0 of length 0.
        let at_zero = page(&idx, &graph, &g, 0, 0, PageRequest::default());
        assert_eq!(at_zero.paths[0], Vec::<Edge>::new(), "ε-witness first");
        assert!(validate_witness(&at_zero.paths[0], &graph, &g, s, 0, 0));
        // Full span: the bracket word ( ) ( ) is a witness of length 4.
        let full = page(&idx, &graph, &g, 0, 4, PageRequest::default());
        assert!(
            full.paths.iter().any(|p| p.len() == 4),
            "full-span witness found, got lengths {:?}",
            full.paths.iter().map(Vec::len).collect::<Vec<_>>()
        );
        for p in &full.paths {
            assert!(validate_witness(p, &graph, &g, s, 0, 4), "path {p:?}");
        }
        // Inner span ( over nodes 2..4 ): a single bracket pair.
        let inner = page(&idx, &graph, &g, 2, 4, PageRequest::default());
        assert_eq!(inner.paths.len(), 1);
        assert_eq!(inner.paths[0].len(), 2);
    }

    #[test]
    fn epsilon_witness_requires_nullable_aware_relations() {
        // Without the diagonal option the index has no (S, m, m) entry,
        // so no ε-witness is reported — enumeration stays consistent
        // with the index it prunes against.
        let g = wcnf("S -> ( S ) | eps");
        let graph = generators::word_chain(&["(", ")"]);
        let idx = FixpointSolver::new(&DenseEngine).solve(&graph, &g);
        let plain = page(&idx, &graph, &g, 1, 1, PageRequest::default());
        assert!(plain.paths.is_empty());
        assert!(plain.exhausted, "empty because nothing exists, not capped");
        let aware = FixpointSolver::new(&DenseEngine)
            .options(SolveOptions {
                nullable_diagonal: true,
            })
            .solve(&graph, &g);
        let eps = page(&aware, &graph, &g, 1, 1, PageRequest::default());
        assert_eq!(eps.paths, vec![Vec::new()], "exactly the ε-witness");
    }

    #[test]
    fn ambiguous_grammar_finds_all_decompositions() {
        // Dyck-1 without eps on ( ) ( ): S spans (0,4) via S S and the
        // single bracketing; only one underlying path exists though.
        let g = wcnf("S -> S S | ( S ) | ( )");
        let graph = generators::word_chain(&["(", ")", "(", ")"]);
        let idx = FixpointSolver::new(&DenseEngine).solve(&graph, &g);
        let page = page(&idx, &graph, &g, 0, 4, PageRequest::default());
        // The path is unique even though derivations are many — dedup.
        assert_eq!(page.paths.len(), 1);
    }

    #[test]
    fn respects_limits_and_reports_truncation() {
        let g = wcnf("S -> a S b | a b");
        let graph = ab_loops();
        let idx = FixpointSolver::new(&DenseEngine).solve(&graph, &g);
        let page = page(&idx, &graph, &g, 0, 0, first(3, 100));
        assert_eq!(page.paths.len(), 3);
        // The old API could not answer "3 exist" vs "capped at 3".
        assert!(!page.exhausted, "cap was hit: more witnesses exist");
    }

    #[test]
    fn missing_pair_is_empty() {
        let g = wcnf("S -> a b");
        let graph = generators::word_chain(&["a", "b"]);
        let idx = FixpointSolver::new(&DenseEngine).solve(&graph, &g);
        let page = page(&idx, &graph, &g, 1, 0, PageRequest::default());
        assert!(page.paths.is_empty());
        assert!(page.exhausted);
    }

    #[test]
    fn within_length_order_is_lexicographic_and_deterministic() {
        // Two parallel two-edge routes 0→1→3 and 0→2→3 under
        // S -> a b: both length-2 witnesses must come out sorted by
        // their (from, label, to) triples regardless of edge insertion
        // or engine iteration order — the pinned paging contract.
        let g = wcnf("S -> a b");
        let mut graph = Graph::new(4);
        // Inserted deliberately in "wrong" order.
        graph.add_edge_named(0, "a", 2);
        graph.add_edge_named(2, "b", 3);
        graph.add_edge_named(0, "a", 1);
        graph.add_edge_named(1, "b", 3);
        let idx = FixpointSolver::new(&DenseEngine).solve(&graph, &g);
        let page = page(&idx, &graph, &g, 0, 3, PageRequest::default());
        assert_eq!(page.paths.len(), 2);
        let keys: Vec<Vec<(u32, u32, u32)>> = page
            .paths
            .iter()
            .map(|p| p.iter().map(|e| (e.from, e.label.0, e.to)).collect())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "within-length order is lexicographic");
        // The 0→1→3 route sorts before 0→2→3.
        assert_eq!(page.paths[0][0].to, 1);
        assert_eq!(page.paths[1][0].to, 2);
    }

    #[test]
    fn pages_concatenate_to_the_full_stream() {
        let g = wcnf("S -> a S b | a b");
        let s = g.symbols.get_nt("S").unwrap();
        let graph = ab_loops();
        let idx = FixpointSolver::new(&DenseEngine).solve(&graph, &g);
        let index = GraphIndex::build(DenseEngine, &graph);
        let mut enumerator = PathEnumerator::new(&g);
        let full = enumerator.page(&index, &idx, s, 0, 0, first(100, 12));
        assert!(full.exhausted);
        let mut stitched = Vec::new();
        let mut offset = 0;
        loop {
            let req = PageRequest {
                offset,
                limit: 2,
                max_len: 12,
            };
            let page = enumerator.page(&index, &idx, s, 0, 0, req);
            let n = page.paths.len();
            stitched.extend(page.paths);
            offset += n;
            if page.exhausted {
                break;
            }
        }
        assert_eq!(stitched, full.paths);
    }

    #[test]
    fn deep_nullable_chain_terminates_quickly() {
        // The guard-scan regression (and the blowup it hid): a deeply
        // nullable `S -> S S | a | eps` on a long a-chain. The ε-erasure
        // reach set resolves `S ∈ reach[S]` once per endpoint pair; no
        // re-entrant recursion, no O(depth²) guard scans.
        let g = wcnf("S -> S S | a | eps");
        let s = g.symbols.get_nt("S").unwrap();
        let labels = vec!["a"; 24];
        let graph = generators::word_chain(&labels);
        let idx = FixpointSolver::new(&DenseEngine)
            .options(SolveOptions {
                nullable_diagonal: true,
            })
            .solve(&graph, &g);
        let whole = page(&idx, &graph, &g, 0, 24, first(4, 24));
        // Exactly one witness exists (the chain itself) …
        assert_eq!(whole.paths.len(), 1);
        assert_eq!(whole.paths[0].len(), 24);
        assert!(whole.exhausted);
        // … and the eager oracle agrees on a shallower prefix (running
        // it at depth 24 is exactly the blowup the enumerator removes).
        let eager = enumerate_paths_eager(&idx, &graph, &g, s, 0, 6, first(4, 6));
        let lazy = page(&idx, &graph, &g, 0, 6, first(4, 6));
        let key = |p: &Vec<Edge>| {
            p.iter()
                .map(|e| (e.from, e.label.0, e.to))
                .collect::<Vec<_>>()
        };
        let mut eager_sorted = eager;
        eager_sorted.sort_by_key(&key);
        assert_eq!(eager_sorted, lazy.paths);
    }

    #[test]
    fn eager_oracle_matches_enumerator_on_cyclic_setup() {
        let g = wcnf("S -> a S b | a b");
        let s = g.symbols.get_nt("S").unwrap();
        let graph = ab_loops();
        let idx = FixpointSolver::new(&DenseEngine).solve(&graph, &g);
        let req = first(100, 10);
        let eager = enumerate_paths_eager(&idx, &graph, &g, s, 0, 0, req);
        let lazy = page(&idx, &graph, &g, 0, 0, req);
        assert_eq!(eager.len(), lazy.paths.len());
        let key = |p: &Vec<Edge>| {
            p.iter()
                .map(|e| (e.from, e.label.0, e.to))
                .collect::<Vec<_>>()
        };
        let eager_keys: BTreeSet<_> = eager.iter().map(key).collect();
        let lazy_keys: BTreeSet<_> = lazy.paths.iter().map(key).collect();
        assert_eq!(eager_keys, lazy_keys);
        // The oracle pages as the enumerator does: one length per path
        // here, so its edge-iteration order is the stream order.
        let skipped = PageRequest { offset: 2, ..req };
        assert_eq!(
            enumerate_paths_eager(&idx, &graph, &g, s, 0, 0, skipped),
            page(&idx, &graph, &g, 0, 0, skipped).paths
        );
    }
}

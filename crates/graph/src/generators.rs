//! Synthetic graph generators for tests and benchmarks.
//!
//! Besides generic shapes (chains, cycles, grids), this module provides the
//! classic CFPQ stress instances: the *two-cycle* graph (the standard
//! worst-case family in the CFPQ literature — a cycle of `a`-edges and a
//! cycle of `b`-edges sharing one node, queried with `S → a S b | a b`) and
//! a word-to-chain encoder used to cross-check graph solvers against string
//! parsers (CYK, Valiant).

use crate::graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A directed chain `0 →ˡ 1 →ˡ … →ˡ n` (n edges, n+1 nodes).
pub fn chain(n_edges: usize, label: &str) -> Graph {
    let mut g = Graph::new(n_edges + 1);
    let l = g.label(label);
    for i in 0..n_edges as NodeId {
        g.add_edge(i, l, i + 1);
    }
    g
}

/// Encodes a word as a chain: edge `i → i+1` carries the i-th symbol. Node
/// `0` is the word start; CFPQ answers `(A, 0, n)` correspond exactly to
/// CYK derivations of the full word — the bridge between Algorithm 1 and
/// Valiant's string setting.
pub fn word_chain(word: &[&str]) -> Graph {
    let mut g = Graph::new(word.len() + 1);
    for (i, w) in word.iter().enumerate() {
        g.add_edge_named(i as NodeId, w, i as NodeId + 1);
    }
    g
}

/// A directed cycle of `n` nodes with a single label.
pub fn cycle(n: usize, label: &str) -> Graph {
    assert!(n >= 1);
    let mut g = Graph::new(n);
    let l = g.label(label);
    for i in 0..n as NodeId {
        g.add_edge(i, l, (i + 1) % n as NodeId);
    }
    g
}

/// The standard CFPQ worst-case family: a cycle of `n_a` `a`-edges and a
/// cycle of `n_b` `b`-edges sharing node 0. With the grammar
/// `S → a S b | a b` the answer relation is dense when
/// `gcd`-aligned, forcing many fixpoint iterations.
pub fn two_cycles(n_a: usize, n_b: usize) -> Graph {
    assert!(n_a >= 1 && n_b >= 1);
    // The cycles share node 0, so only n_b - 1 fresh nodes are needed.
    let mut g = Graph::new(n_a + n_b - 1);
    let a = g.label("a");
    let b = g.label("b");
    // a-cycle: 0 → 1 → … → n_a-1 → 0
    for i in 0..n_a as NodeId {
        g.add_edge(i, a, (i + 1) % n_a as NodeId);
    }
    // b-cycle: 0 → n_a → n_a+1 → … → 0
    let base = n_a as NodeId;
    if n_b == 1 {
        g.add_edge(0, b, 0);
    } else {
        g.add_edge(0, b, base);
        for i in 0..(n_b - 2) as NodeId {
            g.add_edge(base + i, b, base + i + 1);
        }
        g.add_edge(base + (n_b - 2) as NodeId, b, 0);
    }
    g
}

/// A complete directed graph (no self loops) with one label.
pub fn complete(n: usize, label: &str) -> Graph {
    let mut g = Graph::new(n);
    let l = g.label(label);
    for i in 0..n as NodeId {
        for j in 0..n as NodeId {
            if i != j {
                g.add_edge(i, l, j);
            }
        }
    }
    g
}

/// A `rows × cols` grid: `right`-labeled edges along rows, `down`-labeled
/// edges along columns.
pub fn grid(rows: usize, cols: usize, right: &str, down: &str) -> Graph {
    let mut g = Graph::new(rows * cols);
    let r = g.label(right);
    let d = g.label(down);
    let id = |i: usize, j: usize| (i * cols + j) as NodeId;
    for i in 0..rows {
        for j in 0..cols {
            if j + 1 < cols {
                g.add_edge(id(i, j), r, id(i, j + 1));
            }
            if i + 1 < rows {
                g.add_edge(id(i, j), d, id(i + 1, j));
            }
        }
    }
    g
}

/// A complete binary tree of the given `depth` with `down`-labeled edges
/// from parents to children and `up`-labeled reverse edges.
pub fn binary_tree(depth: usize, down: &str, up: &str) -> Graph {
    let n = (1usize << (depth + 1)) - 1;
    let mut g = Graph::new(n);
    let d = g.label(down);
    let u = g.label(up);
    for i in 0..n {
        for child in [2 * i + 1, 2 * i + 2] {
            if child < n {
                g.add_edge(i as NodeId, d, child as NodeId);
                g.add_edge(child as NodeId, u, i as NodeId);
            }
        }
    }
    g
}

/// A seeded Erdős–Rényi-style random multigraph: `n_edges` edges drawn
/// uniformly over `nodes × labels × nodes` (duplicates removed).
pub fn random_graph(n_nodes: usize, n_edges: usize, labels: &[&str], seed: u64) -> Graph {
    assert!(n_nodes >= 1 && !labels.is_empty());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n_nodes);
    let label_ids: Vec<_> = labels.iter().map(|l| g.label(l)).collect();
    g.reserve_edges(n_edges);
    let mut attempts = 0;
    while g.n_edges() < n_edges && attempts < n_edges * 20 {
        attempts += 1;
        let u = rng.gen_range(0..n_nodes) as NodeId;
        let v = rng.gen_range(0..n_nodes) as NodeId;
        let l = label_ids[rng.gen_range(0..label_ids.len())];
        g.add_edge(u, l, v);
    }
    g
}

/// A seeded clustered multigraph: `n_blocks` disjoint clusters of
/// `block_size` nodes each, with `edges_per_node` random intra-cluster
/// edges per node per label (duplicates dropped). With `block_size` a
/// multiple of the 64-bit tile width, every cluster's closure lands in a
/// handful of dense tiles while the global matrix stays block-diagonal —
/// the regime the tiled backend is built for, and the generator behind
/// the `benchmark/` workloads `blocks-cold` and `point-cold` (≥100k nodes
/// at 1600 × 64).
pub fn clustered_blocks(
    n_blocks: usize,
    block_size: usize,
    edges_per_node: usize,
    labels: &[&str],
    seed: u64,
) -> Graph {
    assert!(n_blocks >= 1 && block_size >= 1 && !labels.is_empty());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n_blocks * block_size);
    let label_ids: Vec<_> = labels.iter().map(|l| g.label(l)).collect();
    g.reserve_edges(n_blocks * block_size * label_ids.len() * edges_per_node);
    for block in 0..n_blocks {
        let base = block * block_size;
        for u in base..base + block_size {
            for &l in &label_ids {
                for _ in 0..edges_per_node {
                    let v = (base + rng.gen_range(0..block_size)) as NodeId;
                    g.add_edge(u as NodeId, l, v);
                }
            }
        }
    }
    g
}

/// The worked-example graph of the paper, Fig. 5: three nodes with
///
/// ```text
/// 0 --subClassOf_r--> 0     (self loop)
/// 0 --type_r--------> 1
/// 1 --type_r--------> 2
/// 2 --subClassOf----> 0
/// 2 --type----------> 2     (self loop)
/// ```
///
/// (Reconstructed cell-by-cell from the initial matrix T₀ of Fig. 6.)
pub fn paper_example() -> Graph {
    let mut g = Graph::new(3);
    g.add_edge_named(0, "subClassOf_r", 0);
    g.add_edge_named(0, "type_r", 1);
    g.add_edge_named(1, "type_r", 2);
    g.add_edge_named(2, "subClassOf", 0);
    g.add_edge_named(2, "type", 2);
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_shape() {
        let g = chain(4, "a");
        assert_eq!(g.n_nodes(), 5);
        assert_eq!(g.n_edges(), 4);
        assert_eq!(g.out_edges(4).len(), 0);
    }

    #[test]
    fn word_chain_preserves_order() {
        let g = word_chain(&["a", "b", "a"]);
        assert_eq!(g.n_nodes(), 4);
        let a = g.get_label("a").unwrap();
        assert_eq!(
            g.edges_with_label(a).collect::<Vec<_>>(),
            vec![(0, 1), (2, 3)]
        );
    }

    #[test]
    fn cycle_wraps() {
        let g = cycle(3, "a");
        let a = g.get_label("a").unwrap();
        assert_eq!(
            g.edges_with_label(a).collect::<Vec<_>>(),
            vec![(0, 1), (1, 2), (2, 0)]
        );
    }

    #[test]
    fn two_cycles_shares_node_zero() {
        let g = two_cycles(3, 2);
        assert_eq!(g.n_nodes(), 4);
        assert_eq!(g.n_edges(), 5);
        let b = g.get_label("b").unwrap();
        let edges: Vec<_> = g.edges_with_label(b).collect();
        assert_eq!(edges, vec![(0, 3), (3, 0)]);
    }

    #[test]
    fn two_cycles_unit_b() {
        let g = two_cycles(2, 1);
        let b = g.get_label("b").unwrap();
        assert_eq!(g.edges_with_label(b).collect::<Vec<_>>(), vec![(0, 0)]);
    }

    #[test]
    fn complete_edge_count() {
        let g = complete(4, "x");
        assert_eq!(g.n_edges(), 12);
    }

    #[test]
    fn grid_edge_count() {
        let g = grid(3, 4, "r", "d");
        // rows*(cols-1) right + (rows-1)*cols down
        assert_eq!(g.n_edges(), 3 * 3 + 2 * 4);
    }

    #[test]
    fn binary_tree_edges() {
        let g = binary_tree(2, "down", "up");
        assert_eq!(g.n_nodes(), 7);
        assert_eq!(g.n_edges(), 12); // 6 down + 6 up
    }

    #[test]
    fn random_graph_is_deterministic() {
        let a = random_graph(10, 25, &["x", "y"], 42);
        let b = random_graph(10, 25, &["x", "y"], 42);
        assert_eq!(a.edges(), b.edges());
        assert_eq!(a.n_edges(), 25);
    }

    #[test]
    fn clustered_blocks_stay_inside_their_cluster() {
        let g = clustered_blocks(5, 8, 3, &["a", "b"], 7);
        assert_eq!(g.n_nodes(), 40);
        assert!(g.n_edges() > 0);
        for e in g.edges() {
            assert_eq!(e.from / 8, e.to / 8, "edge {e:?} crosses a cluster");
        }
        let h = clustered_blocks(5, 8, 3, &["a", "b"], 7);
        assert_eq!(g.edges(), h.edges(), "same seed, same graph");
    }

    #[test]
    fn paper_example_matches_t0() {
        let g = paper_example();
        assert_eq!(g.n_nodes(), 3);
        assert_eq!(g.n_edges(), 5);
        // Spot-check the two self loops of Fig. 6.
        let sub_r = g.get_label("subClassOf_r").unwrap();
        let ty = g.get_label("type").unwrap();
        assert_eq!(g.edges_with_label(sub_r).collect::<Vec<_>>(), vec![(0, 0)]);
        assert_eq!(g.edges_with_label(ty).collect::<Vec<_>>(), vec![(2, 2)]);
    }
}

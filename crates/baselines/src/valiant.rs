//! Valiant's algorithm \[25\]: string recognition via divide-and-conquer
//! transitive closure of an upper-triangular matrix.
//!
//! For a word `w` of length `n`, positions are `0..=n` and the
//! `(n+1)×(n+1)` matrix `T` holds at `(i, j)` the nonterminals deriving
//! `w[i..j]`; the superdiagonal is initialized from terminal rules and the
//! closure `a⁺` fills the rest. Valiant's insight is to organize the
//! closure so all heavy lifting happens inside large submatrix
//! multiplications (here over the §2 set algebra, decomposable into
//! Boolean products).
//!
//! The recursion follows Okhotin's presentation \[19\]:
//!
//! * `compute(l, r)` closes the square block `l..=r` by recursing on the
//!   two halves and then `complete`-ing the off-diagonal block, after
//!   **seeding** the products through the single middle index `m`
//!   (the invariant: before `complete(B)`, `P[B]` holds all products
//!   through indices *between* B's row range and column range);
//! * `complete(rows, cols)` fills a rectangular block quadrant by
//!   quadrant (bottom-left first — closest to the diagonal), injecting
//!   the cross products between quadrants as submatrix multiplications.
//!
//! Equivalence with CYK is exhaustively property-tested; equivalence of
//! the underlying closure definitions is Theorem 1 (see
//! `cfpq_matrix::closure`).

use cfpq_grammar::{Term, Wcnf};
use cfpq_matrix::SetMatrix;
use std::ops::Range;

/// Parses `word`, returning the full recognition matrix `T` (size
/// `(n+1)²`); `T\[0\][n]` holds every nonterminal deriving the word.
pub fn valiant_parse(grammar: &Wcnf, word: &[Term]) -> SetMatrix {
    let n = word.len();
    let size = n + 1;
    let mut t = SetMatrix::empty(size, grammar.n_nts());
    let mut p = SetMatrix::empty(size, grammar.n_nts());

    let by_term = grammar.nts_by_terminal();
    for (i, w) in word.iter().enumerate() {
        for &nt in &by_term[w.index()] {
            t.insert(i as u32, i as u32 + 1, nt);
        }
    }
    if n >= 2 {
        compute(&mut t, &mut p, grammar, 0, n);
    }
    t
}

/// True if `start` derives the full word.
pub fn valiant_recognize(grammar: &Wcnf, start: cfpq_grammar::Nt, word: &[Term]) -> bool {
    if word.is_empty() {
        return grammar.nullable.contains(&start);
    }
    let t = valiant_parse(grammar, word);
    t.contains(0, word.len() as u32, start)
}

/// Closes the diagonal block `l..=r`: computes `T[i][j]` for all
/// `l ≤ i < j ≤ r`, assuming nothing outside is needed.
fn compute(t: &mut SetMatrix, p: &mut SetMatrix, g: &Wcnf, l: usize, r: usize) {
    if r - l <= 1 {
        return; // single superdiagonal cell, set at init
    }
    let m = (l + r) / 2;
    compute(t, p, g, l, m);
    compute(t, p, g, m, r);
    // Seed the products through the middle index m for the whole
    // off-diagonal block: rows [l, m), cols (m, r].
    product_into(t, p, g, l..m, m..m + 1, m + 1..r + 1);
    complete(t, p, g, l, m, m, r);
}

/// Completes the rectangular block rows `[l1, r1)` × cols `(l2, r2]`.
///
/// Precondition: every `T[i][j]` with `l1 ≤ i < j ≤ r2` *outside* the
/// block is final, and `P` already holds, for each block cell, all
/// products through split points `k ∈ [r1, l2]` (the "middle" between the
/// row range and the column range).
fn complete(
    t: &mut SetMatrix,
    p: &mut SetMatrix,
    g: &Wcnf,
    l1: usize,
    r1: usize,
    l2: usize,
    r2: usize,
) {
    let nr = r1 - l1;
    let nc = r2 - l2;
    if nr == 0 || nc == 0 {
        return;
    }
    if nr == 1 && nc == 1 {
        // All split points are accumulated; finalize the cell.
        for nt in p.cell(l1 as u32, r2 as u32) {
            t.insert(l1 as u32, r2 as u32, nt);
        }
        return;
    }
    let rm = l1 + nr / 2; // row split: [l1, rm) top, [rm, r1) bottom
    let cm = l2 + nc / 2; // col split: (l2, cm] left, (cm, r2] right

    // B1 (bottom-left) is closest to the diagonal: complete it first.
    complete(t, p, g, rm, r1, l2, cm);
    // B2 (top-left) additionally needs split points k ∈ [rm, r1): the
    // left factor T[[l1,rm) × [rm,r1)] is inside the already-computed
    // triangle, the right factor is the just-completed B1.
    product_into(t, p, g, l1..rm, rm..r1, l2 + 1..cm + 1);
    complete(t, p, g, l1, rm, l2, cm);
    // B3 (bottom-right) needs k ∈ (l2, cm]: left factor B1, right factor
    // inside the computed triangle.
    product_into(t, p, g, rm..r1, l2 + 1..cm + 1, cm + 1..r2 + 1);
    complete(t, p, g, rm, r1, cm, r2);
    // B4 (top-right) needs both k ∈ [rm, r1) (via B3) and k ∈ (l2, cm]
    // (via B2).
    product_into(t, p, g, l1..rm, rm..r1, cm + 1..r2 + 1);
    product_into(t, p, g, l1..rm, l2 + 1..cm + 1, cm + 1..r2 + 1);
    complete(t, p, g, l1, rm, cm, r2);
}

/// `P[i][j] ∪= f(T[i][k], T[k][j])` for all `i ∈ rows`, `k ∈ ks`,
/// `j ∈ cols` — a rectangular submatrix multiplication over the §2
/// algebra. This is the procedure Valiant offloads to fast matrix
/// multiplication; here it is the straightforward kernel (the asymptotic
/// speedup is not the point of this baseline, its recursion structure is).
fn product_into(
    t: &SetMatrix,
    p: &mut SetMatrix,
    g: &Wcnf,
    rows: Range<usize>,
    ks: Range<usize>,
    cols: Range<usize>,
) {
    for i in rows {
        for k in ks.clone() {
            if t.cell_is_empty(i as u32, k as u32) {
                continue;
            }
            for j in cols.clone() {
                if t.cell_is_empty(k as u32, j as u32) {
                    continue;
                }
                for rule in &g.binary_rules {
                    if t.contains(i as u32, k as u32, rule.left)
                        && t.contains(k as u32, j as u32, rule.right)
                    {
                        p.insert(i as u32, j as u32, rule.lhs);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfpq_grammar::cnf::CnfOptions;
    use cfpq_grammar::cyk::CykTable;
    use cfpq_grammar::random::{random_wcnf, sample_word, RandomGrammarConfig};
    use cfpq_grammar::{Cfg, Nt};

    fn wcnf(src: &str) -> Wcnf {
        Cfg::parse(src)
            .unwrap()
            .to_wcnf(CnfOptions::default())
            .unwrap()
    }

    fn word(g: &Wcnf, names: &[&str]) -> Vec<Term> {
        names
            .iter()
            .map(|n| g.symbols.get_term(n).unwrap())
            .collect()
    }

    /// Full-table equivalence with CYK: every cell, every nonterminal.
    fn assert_matches_cyk(g: &Wcnf, w: &[Term]) {
        let t = valiant_parse(g, w);
        let cyk = CykTable::build(g, w);
        for i in 0..w.len() {
            for j in (i + 1)..=w.len() {
                for nt in 0..g.n_nts() {
                    let nt = Nt(nt as u32);
                    let expect = cyk.get(j - i - 1, i, nt);
                    assert_eq!(
                        t.contains(i as u32, j as u32, nt),
                        expect,
                        "cell ({i},{j}) nt {nt:?} word len {}",
                        w.len()
                    );
                }
            }
        }
    }

    #[test]
    fn anbn_recognition() {
        let g = wcnf("S -> a S b | a b");
        let s = g.symbols.get_nt("S").unwrap();
        assert!(valiant_recognize(&g, s, &word(&g, &["a", "b"])));
        assert!(valiant_recognize(&g, s, &word(&g, &["a", "a", "b", "b"])));
        assert!(!valiant_recognize(&g, s, &word(&g, &["a", "b", "b"])));
        assert!(!valiant_recognize(&g, s, &[]));
    }

    #[test]
    fn full_table_matches_cyk_on_fixed_words() {
        let g = wcnf("S -> a S b | a b | S S");
        for w in [
            vec!["a", "b"],
            vec!["a", "a", "b", "b"],
            vec!["a", "b", "a", "b"],
            vec!["a", "a", "b", "b", "a", "b"],
            vec!["a", "a", "a", "b"],
            vec!["b", "a"],
            vec!["a", "a", "b", "b", "a", "b", "a"], // odd length
        ] {
            assert_matches_cyk(&g, &word(&g, &w));
        }
    }

    #[test]
    fn dyck_words() {
        let g = wcnf("S -> S S | ( S ) | ( )");
        let s = g.symbols.get_nt("S").unwrap();
        assert!(valiant_recognize(
            &g,
            s,
            &word(&g, &["(", "(", ")", "(", ")", ")"])
        ));
        assert!(!valiant_recognize(&g, s, &word(&g, &["(", ")", ")"])));
        assert_matches_cyk(&g, &word(&g, &["(", "(", ")", "(", ")", ")", "(", ")"]));
    }

    #[test]
    fn single_symbol_word() {
        let g = wcnf("S -> a");
        let s = g.symbols.get_nt("S").unwrap();
        assert!(valiant_recognize(&g, s, &word(&g, &["a"])));
    }

    #[test]
    fn nullable_start_accepts_empty() {
        let g = wcnf("S -> a S | eps");
        let s = g.symbols.get_nt("S").unwrap();
        assert!(valiant_recognize(&g, s, &[]));
    }

    #[test]
    fn random_grammars_match_cyk() {
        // Dozens of random grammar/word instances, every table cell.
        let mut checked = 0;
        for seed in 0..40u64 {
            let g = random_wcnf(seed, RandomGrammarConfig::default());
            // Positive-ish words sampled from the language...
            if let Some(w) = sample_word(&g, g.start, 24, seed ^ 0x5a5a) {
                if !w.is_empty() && w.len() <= 12 {
                    assert_matches_cyk(&g, &w);
                    checked += 1;
                }
            }
            // ...and arbitrary noise words.
            let noise: Vec<Term> = (0..(seed % 9 + 1))
                .map(|i| Term(((seed.wrapping_mul(31).wrapping_add(i * 7)) % 3) as u32))
                .collect();
            assert_matches_cyk(&g, &noise);
            checked += 1;
        }
        assert!(checked > 40);
    }

    #[test]
    fn agrees_with_algorithm1_on_word_chains() {
        // The bridge result: Valiant on the string == Algorithm 1 on the
        // chain encoding of the string.
        use cfpq_core::relational::FixpointSolver;
        use cfpq_graph::generators;
        use cfpq_matrix::DenseEngine;
        let g = wcnf("S -> a S b | a b | S S");
        let names = ["a", "a", "b", "b", "a", "b"];
        let w = word(&g, &names);
        let t = valiant_parse(&g, &w);
        let graph = generators::word_chain(&names);
        let idx = FixpointSolver::new(&DenseEngine).solve(&graph, &g);
        for nt in 0..g.n_nts() {
            let nt = Nt(nt as u32);
            let valiant_pairs: Vec<(u32, u32)> = (0..=names.len() as u32)
                .flat_map(|i| {
                    let t = &t;
                    ((i + 1)..=names.len() as u32)
                        .filter(move |&j| t.contains(i, j, nt))
                        .map(move |j| (i, j))
                })
                .collect();
            assert_eq!(valiant_pairs, idx.pairs(nt), "nt {nt:?}");
        }
    }
}

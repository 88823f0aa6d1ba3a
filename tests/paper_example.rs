//! Paper-exactness tests: the worked example of §4.3, Figures 5–9,
//! replayed cell by cell with the exact nonterminal identities of the
//! paper's Fig. 4 grammar.

use cfpq::grammar::cnf::CnfOptions;
use cfpq::grammar::queries;
use cfpq::graph::generators;
use cfpq::prelude::*;

/// Asserts that a snapshot matrix equals a figure, given as rows of cell
/// contents (nonterminal names, `""` = empty).
fn assert_matrix(
    snapshot: &cfpq::matrix::SetMatrix,
    wcnf: &Wcnf,
    figure: &[&[&[&str]]],
    label: &str,
) {
    for (i, row) in figure.iter().enumerate() {
        for (j, cell) in row.iter().enumerate() {
            let mut expect: Vec<Nt> = cell
                .iter()
                .map(|name| {
                    wcnf.symbols
                        .get_nt(name)
                        .unwrap_or_else(|| panic!("nt {name}"))
                })
                .collect();
            expect.sort_unstable();
            let got = snapshot.cell(i as u32, j as u32);
            assert_eq!(got, expect, "{label}: cell ({i},{j})");
        }
    }
}

#[test]
fn figures_5_to_9_replay() {
    let wcnf = queries::fig4_normal_form()
        .to_wcnf(CnfOptions::default())
        .unwrap();
    let graph = generators::paper_example();
    let result = solve_set_matrix(&graph, &wcnf, true);

    // §4.3: "k = 6 since T6 = T5".
    assert_eq!(result.iterations, 6, "fixpoint reached at k = 6");
    assert!(result.snapshots.len() >= 7);

    // Fig. 6: T0.
    assert_matrix(
        &result.snapshots[0],
        &wcnf,
        &[
            &[&["S1"], &["S3"], &[]],
            &[&[], &[], &["S3"]],
            &[&["S2"], &[], &["S4"]],
        ],
        "T0 (Fig. 6)",
    );

    // Fig. 7: T1 = T0 ∪ (T0 × T0) — S appears at (1,2).
    assert_matrix(
        &result.snapshots[1],
        &wcnf,
        &[
            &[&["S1"], &["S3"], &[]],
            &[&[], &[], &["S", "S3"]],
            &[&["S2"], &[], &["S4"]],
        ],
        "T1 (Fig. 7)",
    );

    // Fig. 8: T2 .. T5.
    assert_matrix(
        &result.snapshots[2],
        &wcnf,
        &[
            &[&["S1"], &["S3"], &[]],
            &[&["S5"], &[], &["S", "S3", "S6"]],
            &[&["S2"], &[], &["S4"]],
        ],
        "T2 (Fig. 8)",
    );
    assert_matrix(
        &result.snapshots[3],
        &wcnf,
        &[
            &[&["S1"], &["S3"], &["S"]],
            &[&["S5"], &[], &["S", "S3", "S6"]],
            &[&["S2"], &[], &["S4"]],
        ],
        "T3 (Fig. 8)",
    );
    assert_matrix(
        &result.snapshots[4],
        &wcnf,
        &[
            &[&["S1", "S5"], &["S3"], &["S", "S6"]],
            &[&["S5"], &[], &["S", "S3", "S6"]],
            &[&["S2"], &[], &["S4"]],
        ],
        "T4 (Fig. 8)",
    );
    assert_matrix(
        &result.snapshots[5],
        &wcnf,
        &[
            &[&["S", "S1", "S5"], &["S3"], &["S", "S6"]],
            &[&["S5"], &[], &["S", "S3", "S6"]],
            &[&["S2"], &[], &["S4"]],
        ],
        "T5 (Fig. 8)",
    );
    // T6 = T5 (the fixpoint test).
    assert_eq!(result.snapshots[6], result.snapshots[5], "T6 = T5");

    // Fig. 9: the context-free relations.
    let nt = |name: &str| wcnf.symbols.get_nt(name).unwrap();
    assert_eq!(result.pairs(nt("S")), vec![(0, 0), (0, 2), (1, 2)]);
    assert_eq!(result.pairs(nt("S1")), vec![(0, 0)]);
    assert_eq!(result.pairs(nt("S2")), vec![(2, 0)]);
    assert_eq!(result.pairs(nt("S3")), vec![(0, 1), (1, 2)]);
    assert_eq!(result.pairs(nt("S4")), vec![(2, 2)]);
    assert_eq!(result.pairs(nt("S5")), vec![(0, 0), (1, 0)]);
    assert_eq!(result.pairs(nt("S6")), vec![(0, 2), (1, 2)]);
}

#[test]
fn example_path_from_section_4_3() {
    // "after the first loop iteration, non-terminal S is added ... row
    // index i = 1 and column index j = 2 ... such a path consists of two
    // edges with labels type_r and type, and thus S =>* type_r type".
    let grammar = queries::query1();
    let wcnf = grammar.to_wcnf(CnfOptions::default()).unwrap();
    let graph = generators::paper_example();
    let s = wcnf.symbols.get_nt("S").unwrap();

    let index = SinglePathSolver::new(&DenseEngine).solve(&graph, &wcnf);
    assert_eq!(index.length(s, 1, 2), Some(2), "two-edge witness");
    let path = extract_path(&index, &graph, &wcnf, s, 1, 2).unwrap();
    let labels: Vec<&str> = path.iter().map(|e| graph.label_name(e.label)).collect();
    assert_eq!(labels, vec!["type_r", "type"]);
}

#[test]
fn all_backends_and_baselines_agree_on_the_example() {
    let grammar = queries::query1();
    let graph = generators::paper_example();
    let expect = vec![(0, 0), (0, 2), (1, 2)];

    for backend in [
        Backend::Dense,
        Backend::DensePar { workers: 3 },
        Backend::Sparse,
        Backend::SparsePar { workers: 3 },
        Backend::SetMatrix,
    ] {
        let ans = solve(&graph, &grammar, backend).unwrap();
        assert_eq!(ans.start_pairs(), expect.as_slice(), "{}", backend.name());
    }

    // Baselines.
    let wcnf = grammar.to_wcnf(CnfOptions::default()).unwrap();
    let s_wcnf = wcnf.symbols.get_nt("S").unwrap();
    let hellings = cfpq::baselines::hellings::solve_hellings(&graph, &wcnf);
    assert_eq!(hellings.pairs(s_wcnf), expect);

    let s_cfg = grammar.symbols.get_nt("S").unwrap();
    let gll = cfpq::baselines::gll::solve_gll(&graph, &grammar);
    assert_eq!(gll.pairs(s_cfg), expect);
}

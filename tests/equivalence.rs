//! Property-based cross-implementation equivalence — the strongest oracle
//! available for a CFPQ engine.
//!
//! On random weak-CNF grammars and random graphs, the following must
//! produce identical relations for every nonterminal:
//!
//! * the masked semi-naive fixpoint on all five Boolean engines
//!   (dense/sparse × serial/parallel, tiled),
//! * the paper-literal set-matrix form (Algorithm 1 as printed),
//! * Hellings' worklist algorithm,
//! * and (for the start nonterminal, on the original grammar) GLL.
//!
//! On word chains, everything must additionally agree with CYK and
//! Valiant.

use cfpq::baselines::{gll::GllSolver, hellings::solve_hellings, valiant::valiant_parse};
use cfpq::grammar::cyk::CykTable;
use cfpq::grammar::random::{random_wcnf, sample_word, RandomGrammarConfig};
use cfpq::graph::generators;
use cfpq::prelude::*;
use proptest::prelude::*;

/// Builds a random graph whose labels are the grammar's terminals.
fn graph_for(grammar: &Wcnf, n_nodes: usize, n_edges: usize, seed: u64) -> Graph {
    let names: Vec<String> = grammar
        .symbols
        .terms()
        .map(|(_, name)| name.to_owned())
        .collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    generators::random_graph(n_nodes, n_edges, &refs, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_solvers_agree_on_random_instances(
        grammar_seed in 0u64..500,
        graph_seed in 0u64..500,
        n_nodes in 2usize..10,
        n_edges in 1usize..28,
    ) {
        let g = random_wcnf(grammar_seed, RandomGrammarConfig::default());
        let graph = graph_for(&g, n_nodes, n_edges, graph_seed);

        let dense = FixpointSolver::new(&DenseEngine).solve(&graph, &g);
        let sparse = FixpointSolver::new(&SparseEngine).solve(&graph, &g);
        let dense_par = FixpointSolver::new(&ParDenseEngine::new(Device::new(3))).solve(&graph, &g);
        let sparse_par = FixpointSolver::new(&ParSparseEngine::new(Device::new(2))).solve(&graph, &g);
        let tiled = FixpointSolver::new(&TiledEngine::new(Device::new(2))).solve(&graph, &g);
        let set_matrix = solve_set_matrix(&graph, &g, false);
        let hellings = solve_hellings(&graph, &g);

        for i in 0..g.n_nts() {
            let nt = Nt(i as u32);
            let expect = dense.pairs(nt);
            prop_assert_eq!(sparse.pairs(nt), expect.clone(), "sparse vs dense");
            prop_assert_eq!(dense_par.pairs(nt), expect.clone(), "dense-par vs dense");
            prop_assert_eq!(sparse_par.pairs(nt), expect.clone(), "sparse-par vs dense");
            prop_assert_eq!(tiled.pairs(nt), expect.clone(), "tiled vs dense");
            prop_assert_eq!(set_matrix.pairs(nt), expect.clone(), "set-matrix vs dense");
            prop_assert_eq!(hellings.pairs(nt), expect, "hellings vs dense");
        }
    }

    #[test]
    fn single_path_index_matches_relational(
        grammar_seed in 0u64..200,
        graph_seed in 0u64..200,
        n_nodes in 2usize..8,
        n_edges in 1usize..20,
    ) {
        let g = random_wcnf(grammar_seed, RandomGrammarConfig::default());
        let graph = graph_for(&g, n_nodes, n_edges, graph_seed);
        let rel = FixpointSolver::new(&SparseEngine).solve(&graph, &g);
        let sp = SinglePathSolver::new(&DenseEngine).solve(&graph, &g);
        for i in 0..g.n_nts() {
            let nt = Nt(i as u32);
            let sp_pairs: Vec<(u32, u32)> = sp
                .pairs_with_lengths(nt)
                .into_iter()
                .map(|(a, b, _)| (a, b))
                .collect();
            prop_assert_eq!(sp_pairs, rel.pairs(nt));
        }
    }

    #[test]
    fn extracted_witnesses_are_valid(
        grammar_seed in 0u64..120,
        graph_seed in 0u64..120,
    ) {
        use cfpq::core::single_path::validate_witness;
        let g = random_wcnf(grammar_seed, RandomGrammarConfig::default());
        let graph = graph_for(&g, 6, 14, graph_seed);
        let sp = SinglePathSolver::new(&DenseEngine).solve(&graph, &g);
        for i in 0..g.n_nts() {
            let nt = Nt(i as u32);
            for (a, b, len) in sp.pairs_with_lengths(nt) {
                let path = extract_path(&sp, &graph, &g, nt, a, b)
                    .expect("every indexed pair must yield a witness");
                prop_assert_eq!(path.len() as u32, len);
                prop_assert!(validate_witness(&path, &graph, &g, nt, a, b));
            }
        }
    }

    #[test]
    fn chain_graphs_match_cyk_and_valiant(
        grammar_seed in 0u64..200,
        word_seed in 0u64..200,
    ) {
        let g = random_wcnf(grammar_seed, RandomGrammarConfig::default());
        let Some(word) = sample_word(&g, g.start, 20, word_seed) else {
            return Ok(());
        };
        if word.is_empty() || word.len() > 10 {
            return Ok(());
        }
        let names: Vec<&str> = word.iter().map(|t| g.symbols.term_name(*t)).collect();
        let graph = generators::word_chain(&names);
        let idx = FixpointSolver::new(&DenseEngine).solve(&graph, &g);
        let cyk = CykTable::build(&g, &word);
        let val = valiant_parse(&g, &word);
        for i in 0..word.len() {
            for j in (i + 1)..=word.len() {
                for k in 0..g.n_nts() {
                    let nt = Nt(k as u32);
                    let expect = cyk.get(j - i - 1, i, nt);
                    prop_assert_eq!(
                        idx.contains(nt, i as u32, j as u32), expect,
                        "algorithm1 vs CYK at ({}, {})", i, j
                    );
                    prop_assert_eq!(
                        val.contains(i as u32, j as u32, nt), expect,
                        "valiant vs CYK at ({}, {})", i, j
                    );
                }
            }
        }
    }

    #[test]
    fn gll_matches_matrix_on_start_nonterminal(
        graph_seed in 0u64..150,
        n_nodes in 2usize..9,
        n_edges in 1usize..24,
    ) {
        // GLL consumes the original grammar; compare R_S only.
        let cfg = Cfg::parse("S -> a S b | a b | S S").unwrap();
        let wcnf = cfg.to_wcnf(cfpq::grammar::cnf::CnfOptions::default()).unwrap();
        let graph = generators::random_graph(n_nodes, n_edges, &["a", "b"], graph_seed);
        let store = GllSolver::new(&cfg, &graph).solve(&graph, cfg.start.unwrap());
        let idx = FixpointSolver::new(&SparseEngine).solve(&graph, &wcnf);
        let s_cfg = cfg.symbols.get_nt("S").unwrap();
        let s_wcnf = wcnf.symbols.get_nt("S").unwrap();
        prop_assert_eq!(store.pairs(s_cfg), idx.pairs(s_wcnf));
    }
}

#[test]
fn all_engines_agree_on_paper_example_and_generated_graph() {
    // The §4.3 worked example: every Boolean engine must report the
    // paper's Fig. 9 answer R_S = {(0,0), (0,2), (1,2)} — and, on a
    // generated graph, all five must agree pair-for-pair.
    let wcnf = cfpq::grammar::queries::fig4_normal_form()
        .to_wcnf(cfpq::grammar::cnf::CnfOptions::default())
        .unwrap();
    let expected_start = vec![(0u32, 0u32), (0, 2), (1, 2)];

    let instances = [
        (generators::paper_example(), Some(expected_start)),
        (
            generators::random_graph(12, 30, &["a", "b"], 0xE05_EED),
            None,
        ),
    ];
    for (graph, expect) in instances {
        let dense = FixpointSolver::new(&DenseEngine).solve(&graph, &wcnf);
        let sparse = FixpointSolver::new(&SparseEngine).solve(&graph, &wcnf);
        let dense_par =
            FixpointSolver::new(&ParDenseEngine::new(Device::new(2))).solve(&graph, &wcnf);
        let sparse_par =
            FixpointSolver::new(&ParSparseEngine::new(Device::new(3))).solve(&graph, &wcnf);
        let tiled = FixpointSolver::new(&TiledEngine::new(Device::new(2))).solve(&graph, &wcnf);

        let reference = dense.pairs(wcnf.start);
        if let Some(expect) = expect {
            assert_eq!(reference, expect, "Fig. 9 R_S on the dense engine");
        }
        assert_eq!(sparse.pairs(wcnf.start), reference, "sparse vs dense");
        assert_eq!(dense_par.pairs(wcnf.start), reference, "dense-par vs dense");
        assert_eq!(
            sparse_par.pairs(wcnf.start),
            reference,
            "sparse-par vs dense"
        );
        assert_eq!(tiled.pairs(wcnf.start), reference, "tiled vs dense");
    }
}

#[test]
fn engines_agree_on_every_builtin_query_and_dataset_sample() {
    // Deterministic integration sweep: both queries on the two smallest
    // ontology datasets across all backends.
    use cfpq::grammar::queries;
    use cfpq::graph::ontology;
    for query in [queries::query1(), queries::query2()] {
        for name in ["skos", "generations"] {
            let graph = ontology::dataset(name).unwrap().to_graph();
            let reference = solve(&graph, &query, Backend::Sparse).unwrap();
            for backend in [
                Backend::Dense,
                Backend::DensePar { workers: 2 },
                Backend::SparsePar { workers: 4 },
                Backend::SetMatrix,
            ] {
                let ans = solve(&graph, &query, backend).unwrap();
                assert_eq!(
                    ans.start_pairs(),
                    reference.start_pairs(),
                    "{name} / {}",
                    backend.name()
                );
            }
        }
    }
}

//! Property-based tests for the matrix kernels: the dense and sparse
//! representations must be observationally identical under every
//! operation the solvers use, and the algebraic laws the closure proofs
//! lean on must hold.

use cfpq_grammar::random::{random_wcnf, RandomGrammarConfig};
use cfpq_matrix::closure::{squaring_closure, theorem1_terms_needed, valiant_closure_terms};
use cfpq_matrix::{
    BoolEngine, BoolMat, CsrMatrix, DenseBitMatrix, DenseEngine, Device, ParDenseEngine,
    ParSparseEngine, SetMatrix, SparseEngine, TiledBitMatrix, TiledEngine,
};
use proptest::prelude::*;

/// Base RNG seed for every property in this file: CI must replay the
/// exact same cases on every run (see shims/README.md for the seeding
/// scheme and the `CFPQ_PROPTEST_SEED` override).
const RNG_SEED: u64 = 0x7E01_51ED;

/// Strategy: a set of (row, col) pairs within an n×n matrix.
fn pairs(n: usize, max_len: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..n as u32, 0..n as u32), 0..max_len)
}

const N: usize = 37; // deliberately not a multiple of 64

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(64, RNG_SEED))]

    #[test]
    fn dense_and_sparse_products_agree(a in pairs(N, 80), b in pairs(N, 80)) {
        let da = DenseBitMatrix::from_pairs(N, &a);
        let db = DenseBitMatrix::from_pairs(N, &b);
        let sa = CsrMatrix::from_pairs(N, &a);
        let sb = CsrMatrix::from_pairs(N, &b);
        prop_assert_eq!(da.multiply(&db).pairs(), sa.multiply(&sb).pairs());
    }

    #[test]
    fn parallel_products_agree_with_serial(a in pairs(N, 80), b in pairs(N, 80), workers in 1usize..6) {
        let device = Device::new(workers);
        let da = DenseBitMatrix::from_pairs(N, &a);
        let db = DenseBitMatrix::from_pairs(N, &b);
        prop_assert_eq!(da.multiply(&db), da.multiply_on(&db, &device));
        let sa = CsrMatrix::from_pairs(N, &a);
        let sb = CsrMatrix::from_pairs(N, &b);
        prop_assert_eq!(sa.multiply(&sb), sa.multiply_on(&sb, &device));
    }

    #[test]
    fn union_is_commutative_idempotent_monotone(a in pairs(N, 60), b in pairs(N, 60)) {
        let da = DenseBitMatrix::from_pairs(N, &a);
        let db = DenseBitMatrix::from_pairs(N, &b);
        let mut ab = da.clone();
        ab.union_in_place(&db);
        let mut ba = db.clone();
        ba.union_in_place(&da);
        prop_assert_eq!(&ab, &ba, "commutative");
        let mut again = ab.clone();
        prop_assert!(!again.union_in_place(&da), "idempotent: no change");
        prop_assert!(ab.nnz() >= da.nnz().max(db.nnz()), "monotone");

        // Sparse mirrors dense.
        let mut sab = CsrMatrix::from_pairs(N, &a);
        sab.union_in_place(&CsrMatrix::from_pairs(N, &b));
        prop_assert_eq!(sab.pairs(), ab.pairs());
    }

    #[test]
    fn multiplication_distributes_over_union(
        a in pairs(N, 50), b in pairs(N, 50), c in pairs(N, 50)
    ) {
        // a × (b ∪ c) = (a × b) ∪ (a × c) — the law that makes the
        // per-rule decomposition of Algorithm 1 equal to the monolithic
        // set-matrix product.
        let a = DenseBitMatrix::from_pairs(N, &a);
        let b = DenseBitMatrix::from_pairs(N, &b);
        let c = DenseBitMatrix::from_pairs(N, &c);
        let mut bc = b.clone();
        bc.union_in_place(&c);
        let left = a.multiply(&bc);
        let mut right = a.multiply(&b);
        right.union_in_place(&a.multiply(&c));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn multiplication_is_associative(a in pairs(20, 40), b in pairs(20, 40), c in pairs(20, 40)) {
        let a = CsrMatrix::from_pairs(20, &a);
        let b = CsrMatrix::from_pairs(20, &b);
        let c = CsrMatrix::from_pairs(20, &c);
        prop_assert_eq!(
            a.multiply(&b).multiply(&c).pairs(),
            a.multiply(&b.multiply(&c)).pairs()
        );
    }

    #[test]
    fn transpose_reverses_products(a in pairs(N, 60), b in pairs(N, 60)) {
        // (a × b)^T = b^T × a^T
        let a = DenseBitMatrix::from_pairs(N, &a);
        let b = DenseBitMatrix::from_pairs(N, &b);
        prop_assert_eq!(
            a.multiply(&b).transpose(),
            b.transpose().multiply(&a.transpose())
        );
    }

    #[test]
    fn difference_and_intersect_laws(a in pairs(N, 60), b in pairs(N, 60)) {
        let a = CsrMatrix::from_pairs(N, &a);
        let b = CsrMatrix::from_pairs(N, &b);
        let diff = a.difference(&b);
        let inter = a.intersect(&b);
        // diff ∪ inter = a, diff ∩ b = 0
        let mut rebuilt = diff.clone();
        rebuilt.union_in_place(&inter);
        prop_assert_eq!(rebuilt.pairs(), a.pairs());
        prop_assert!(diff.intersect(&b).is_zero());
        // Dense agrees.
        let da = DenseBitMatrix::from_pairs(N, &a.pairs());
        let db = DenseBitMatrix::from_pairs(N, &b.pairs());
        prop_assert_eq!(da.difference(&db).pairs(), diff.pairs());
        prop_assert_eq!(da.intersect(&db).pairs(), inter.pairs());
    }

    #[test]
    fn union_pairs_equals_union_with_from_pairs(a in pairs(N, 60), b in pairs(N, 60)) {
        // The point-update hook behind GraphIndex edge insertion: on
        // every engine, `union_pairs(m, ps)` must be observationally
        // identical to building `from_pairs(ps)` and unioning it, and
        // its change flag must agree.
        fn check<E: BoolEngine>(e: &E, a: &[(u32, u32)], b: &[(u32, u32)]) -> Result<(), TestCaseError> {
            let mut via_pairs = e.from_pairs(N, a);
            let mut via_union = via_pairs.clone();
            let changed_pairs = e.union_pairs(&mut via_pairs, b);
            let changed_union = e.union_in_place(&mut via_union, &e.from_pairs(N, b));
            prop_assert_eq!(via_pairs.pairs(), via_union.pairs(), "{}", e.name());
            prop_assert_eq!(changed_pairs, changed_union, "{} change flag", e.name());
            prop_assert!(!e.union_pairs(&mut via_pairs, b), "{} idempotent", e.name());
            prop_assert!(!e.union_pairs(&mut via_pairs, &[]), "{} empty batch", e.name());
            Ok(())
        }
        check(&DenseEngine, &a, &b)?;
        check(&SparseEngine, &a, &b)?;
        check(&ParDenseEngine::new(Device::new(2)), &a, &b)?;
        check(&ParSparseEngine::new(Device::new(3)), &a, &b)?;
        check(&TiledEngine::new(Device::new(2)), &a, &b)?;
    }

    #[test]
    fn masked_product_laws_per_engine(a in pairs(N, 80), b in pairs(N, 80), m in pairs(N, 120)) {
        // The multiply_masked contract on every engine: the output is
        // disjoint from the mask, and together with the masked-out part
        // of the plain product it rebuilds the plain product exactly —
        // masked(a,b,m) ∪ (a×b ∩ m) == a×b.
        fn check<E: BoolEngine>(
            e: &E,
            a: &[(u32, u32)],
            b: &[(u32, u32)],
            m: &[(u32, u32)],
        ) -> Result<(), TestCaseError> {
            let (ma, mb) = (e.from_pairs(N, a), e.from_pairs(N, b));
            let mask = e.from_pairs(N, m);
            let masked = e.multiply_masked(&ma, &mb, &mask);
            prop_assert!(
                e.intersect(&masked, &mask).nnz() == 0,
                "output must be disjoint from the mask ({})",
                e.name()
            );
            let product = e.multiply(&ma, &mb);
            let mut rebuilt = masked;
            e.union_in_place(&mut rebuilt, &e.intersect(&product, &mask));
            prop_assert_eq!(rebuilt.pairs(), product.pairs(), "{}", e.name());
            Ok(())
        }
        check(&DenseEngine, &a, &b, &m)?;
        check(&SparseEngine, &a, &b, &m)?;
        check(&ParDenseEngine::new(Device::new(2)), &a, &b, &m)?;
        check(&ParSparseEngine::new(Device::new(3)), &a, &b, &m)?;
        check(&TiledEngine::new(Device::new(2)), &a, &b, &m)?;
    }

    #[test]
    fn masked_kernels_agree_across_representations(
        a in pairs(N, 80), b in pairs(N, 80), m in pairs(N, 120)
    ) {
        let dense = DenseBitMatrix::from_pairs(N, &a)
            .multiply_masked(&DenseBitMatrix::from_pairs(N, &b), &DenseBitMatrix::from_pairs(N, &m));
        let sparse = CsrMatrix::from_pairs(N, &a)
            .multiply_masked(&CsrMatrix::from_pairs(N, &b), &CsrMatrix::from_pairs(N, &m));
        prop_assert_eq!(dense.pairs(), sparse.pairs());
        // Both equal the unfused multiply-then-difference form.
        let unfused = CsrMatrix::from_pairs(N, &a)
            .multiply(&CsrMatrix::from_pairs(N, &b))
            .difference(&CsrMatrix::from_pairs(N, &m));
        prop_assert_eq!(&sparse, &unfused);
        // The blocked layout agrees with both flat representations.
        let tiled = TiledBitMatrix::from_pairs(N, &a)
            .multiply_masked(&TiledBitMatrix::from_pairs(N, &b), &TiledBitMatrix::from_pairs(N, &m));
        prop_assert_eq!(tiled.pairs(), sparse.pairs());
    }

    #[test]
    fn pairs_roundtrip(a in pairs(N, 100)) {
        let d = DenseBitMatrix::from_pairs(N, &a);
        let s = CsrMatrix::from_pairs(N, &a);
        prop_assert_eq!(DenseBitMatrix::from_pairs(N, &d.pairs()), d.clone());
        prop_assert_eq!(CsrMatrix::from_pairs(N, &s.pairs()), s.clone());
        prop_assert_eq!(d.pairs(), s.pairs());
        prop_assert_eq!(d.nnz(), s.nnz());
    }

    #[test]
    fn identity_is_neutral(a in pairs(N, 80)) {
        let d = DenseBitMatrix::from_pairs(N, &a);
        let id = DenseBitMatrix::identity(N);
        prop_assert_eq!(d.multiply(&id), d.clone());
        prop_assert_eq!(id.multiply(&d), d);
        let s = CsrMatrix::from_pairs(N, &a);
        let sid = CsrMatrix::identity(N);
        prop_assert_eq!(s.multiply(&sid), s.clone());
        prop_assert_eq!(sid.multiply(&s), s);
    }
}

// Theorem 1 (§2): the squaring closure `a_cf` equals Valiant's
// transitive closure `a⁺` over the grammar algebra. Checked mechanically
// on random weak-CNF grammars and random set-matrix initializations,
// with the same fixed base seed so CI replays identical instances.
proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(24, RNG_SEED))]

    #[test]
    fn theorem1_squaring_closure_equals_valiant_closure(
        grammar_seed in 0u64..400,
        entries in prop::collection::vec((0u32..6, 0u32..6), 1..10),
        rule_picks in prop::collection::vec(0usize..1 << 16, 1..10),
    ) {
        let g = random_wcnf(grammar_seed, RandomGrammarConfig::default());
        if g.term_rules.is_empty() {
            return Ok(());
        }
        let mut m = SetMatrix::empty(6, g.n_nts());
        for (k, &(i, j)) in entries.iter().enumerate() {
            let pick = rule_picks[k % rule_picks.len()] % g.term_rules.len();
            m.insert(i, j, g.term_rules[pick].lhs);
        }

        // a⁺'s partial unions must converge exactly to a_cf (Theorem 1)...
        let Some(k) = theorem1_terms_needed(&m, &g.binary_rules, 256) else {
            return Err(TestCaseError::Fail(
                "a⁺ did not reach a_cf within 256 terms".into(),
            ));
        };

        // ...from below (Lemma 2.1 direction): the partial union one term
        // before the fixpoint is strictly dominated. Only meaningful when
        // convergence took more than one term — at k = 1 the "one short"
        // union would be the fixpoint itself.
        if k > 1 {
            let closed = squaring_closure(&m, &g.binary_rules, false).matrix;
            let one_short = valiant_closure_terms(&m, &g.binary_rules, k - 1);
            prop_assert!(closed.dominates(&one_short));
            prop_assert!(closed != one_short, "k is minimal, so k-1 terms fall short");
        }
    }
}

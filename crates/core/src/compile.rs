//! The unified compiled-query layer: one IR, one solver, two query
//! classes.
//!
//! Shemetova et al. ("One Algorithm to Evaluate Them All",
//! arXiv:2103.14688) observe that regular and context-free path queries
//! both evaluate through the same linear-algebra machinery once the
//! query is a *recursive state machine*. This module is that
//! unification for this codebase: a [`CompiledQuery`] holds the RSM form
//! of a query — built from an NFA ([`CompiledQuery::from_nfa`]) or from
//! a CFG's trie boxes ([`CompiledQuery::from_cfg`]) — plus its
//! *lowering*: a weak-CNF "state grammar" that the existing
//! [`crate::relational::FixpointSolver`] evaluates unchanged, on any of
//! the five engines, inside sessions and the service.
//!
//! # The lowering
//!
//! The product-graph (Kronecker) formulation indexes reachability
//! matrices by automaton state: `R_q[i, j]` ⇔ some path `i → j` moves
//! box `A` from an entry state to state `q`. Each RSM transition becomes
//! one masked multiply per fixpoint sweep, expressed as a WCNF binary
//! rule so the solver's shared-product grouping, masking and semi-naive
//! Δ machinery apply as-is:
//!
//! * **state nonterminals** `A@qk` hold `R_q`; entry states are seeded
//!   with the identity (the Kronecker diagonal start), implemented by
//!   marking them nullable and forcing `nullable_diagonal` on — which
//!   also makes node-universe growth repair their diagonals for free;
//! * **label nonterminals** `@t:x` carry one term rule `@t:x → x`, so
//!   [`crate::session::GraphIndex::seed_matrices`] binds them straight
//!   to the session's materialized label matrices — no per-query
//!   rebuild, unlike the `solve_regular` oracle;
//! * a terminal transition `q --x--> q'` lowers to `A@q' → A@q @t:x`; a
//!   call transition `q --B--> q'` lowers to `A@q' → A@q B`, the
//!   mutual recursion between boxes running inside the one fixpoint;
//! * transitions *into a final state* additionally target the box's
//!   **answer nonterminal** (named after the source nonterminal, or
//!   `Rpq` for an NFA), which unions the accepting states without
//!   needing the unit rules WCNF forbids.
//!
//! ε-semantics: an NFA accepting ε still answers non-empty paths only
//! (matching [`crate::regular::solve_regular`]); a *grammar* box that
//! accepts ε gets a nullable answer nonterminal, so compiled CFPQ
//! reports the diagonal for nullable nonterminals — the RSM/GLL
//! convention, identical to `solve_rsm` and to Algorithm 1 under
//! [`SolveOptions::nullable_diagonal`].

use crate::regular::Nfa;
use crate::relational::SolveOptions;
use crate::session::PreparedQuery;
use cfpq_grammar::cfg::{Cfg, Symbol};
use cfpq_grammar::rsm::{Rsm, RsmBox};
use cfpq_grammar::symbol::SymbolTable;
use cfpq_grammar::{BinaryRule, GrammarError, Nt, TermRule, Wcnf};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Which query class a [`CompiledQuery`] was compiled from. Affects only
/// ε-semantics (see the module docs); the lowering and evaluation are
/// shared.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueryKind {
    /// An NFA-form regular path query: answers non-empty paths only.
    Regular,
    /// A context-free query in RSM form: nullable nonterminals match
    /// the empty path at every node (the RSM/GLL convention).
    ContextFree,
}

/// A query compiled to the unified RSM IR together with its lowering
/// onto the matrix pipeline.
///
/// Evaluate it by turning it into a [`PreparedQuery`]
/// ([`CompiledQuery::into_prepared`]) and handing that to a session
/// ([`crate::session::CfpqSession::prepare_query`]) or the service —
/// or use the `prepare_regular` / `prepare_rsm` conveniences on either,
/// which do exactly that.
#[derive(Clone, Debug)]
pub struct CompiledQuery {
    kind: QueryKind,
    rsm: Rsm,
    wcnf: Wcnf,
    n_state_nts: usize,
    n_label_nts: usize,
}

impl CompiledQuery {
    /// Compiles an NFA-form regular path query: one box, no calls, the
    /// `Rpq` answer nonterminal unioning the accepting states.
    pub fn from_nfa(nfa: &Nfa) -> Self {
        let mut table = SymbolTable::new();
        let mut bx = RsmBox::with_states(nfa.n_states().max(1));
        for &q in nfa.starts() {
            bx.mark_entry(q);
        }
        for &q in nfa.accepts() {
            bx.mark_final(q);
        }
        for (q, label, q2) in nfa.transitions() {
            bx.add_transition(*q, Symbol::T(table.term(label)), *q2);
        }
        let rsm = Rsm::from_boxes(vec![bx]);
        Self::lower(QueryKind::Regular, rsm, &table, &["Rpq".to_owned()], 0)
    }

    /// Compiles a context-free query through its trie-shared RSM boxes
    /// ([`Rsm::from_cfg`]).
    pub fn from_cfg(cfg: &Cfg) -> Result<Self, GrammarError> {
        if cfg.productions.is_empty() {
            return Err(GrammarError::Empty);
        }
        let start = cfg.start.ok_or(GrammarError::Empty)?;
        let rsm = Rsm::from_cfg(cfg);
        let names: Vec<String> = (0..cfg.symbols.n_nts())
            .map(|i| cfg.symbols.nt_name(Nt(i as u32)).to_owned())
            .collect();
        Ok(Self::lower(
            QueryKind::ContextFree,
            rsm,
            &cfg.symbols,
            &names,
            start.index(),
        ))
    }

    /// Lowers `rsm` to the weak-CNF state grammar described in the
    /// module docs. `names[b]` names box `b`'s answer nonterminal;
    /// terminal names come from `source` (they must match graph edge
    /// labels for the index to bind them).
    fn lower(
        kind: QueryKind,
        rsm: Rsm,
        source: &SymbolTable,
        names: &[String],
        start_box: usize,
    ) -> Self {
        let mut sy = SymbolTable::new();
        let answers: Vec<Nt> = names.iter().map(|n| sy.nt(n)).collect();

        // State nonterminals, allocated only where a reachability matrix
        // is observable: entry states (they carry the identity seed) and
        // states with outgoing transitions (they feed a multiply).
        let mut state_nts: Vec<Vec<Option<Nt>>> = Vec::with_capacity(rsm.boxes.len());
        for (b, bx) in rsm.boxes.iter().enumerate() {
            let mut needed = vec![false; bx.n_states as usize];
            for &e in &bx.entries {
                needed[e as usize] = true;
            }
            for &(q, _, _) in &bx.transitions {
                needed[q as usize] = true;
            }
            state_nts.push(
                needed
                    .iter()
                    .enumerate()
                    .map(|(q, &need)| need.then(|| sy.nt(&format!("{}@q{q}", names[b]))))
                    .collect(),
            );
        }

        // Label nonterminals with their term rules, one per terminal the
        // RSM mentions; the session's seed_matrices unions the matching
        // materialized label matrix straight into them.
        let mut term_rules: Vec<TermRule> = Vec::new();
        let mut label_nts: HashMap<cfpq_grammar::Term, Nt> = HashMap::new();
        let mut binary_rules: Vec<BinaryRule> = Vec::new();
        let mut rule_seen: HashSet<(Nt, Nt, Nt)> = HashSet::new();
        for (b, bx) in rsm.boxes.iter().enumerate() {
            for &(q, sym, q2) in &bx.transitions {
                let right = match sym {
                    Symbol::T(t) => *label_nts.entry(t).or_insert_with(|| {
                        let name = source.term_name(t);
                        let term = sy.term(name);
                        let lhs = sy.nt(&format!("@t:{name}"));
                        term_rules.push(TermRule { lhs, term });
                        lhs
                    }),
                    Symbol::N(callee) => answers[callee.index()],
                };
                let left =
                    state_nts[b][q as usize].expect("transition source always has a state nt");
                let mut emit = |lhs: Nt| {
                    if rule_seen.insert((lhs, left, right)) {
                        binary_rules.push(BinaryRule { lhs, left, right });
                    }
                };
                if let Some(target) = state_nts[b][q2 as usize] {
                    emit(target);
                }
                if bx.is_final(q2) {
                    emit(answers[b]);
                }
            }
        }

        // Nullability: entry states always carry the identity seed (the
        // Kronecker diagonal); answer nonterminals only under
        // context-free ε-semantics.
        let mut nullable: BTreeSet<Nt> = BTreeSet::new();
        for (b, bx) in rsm.boxes.iter().enumerate() {
            for &e in &bx.entries {
                nullable.insert(state_nts[b][e as usize].expect("entries always get a state nt"));
            }
        }
        if kind == QueryKind::ContextFree {
            for (b, is_nullable) in rsm.nullable_boxes().iter().enumerate() {
                if *is_nullable {
                    nullable.insert(answers[b]);
                }
            }
        }

        let n_state_nts = state_nts
            .iter()
            .map(|v| v.iter().flatten().count())
            .sum::<usize>();
        let n_label_nts = label_nts.len();
        let wcnf = Wcnf {
            symbols: sy,
            term_rules,
            binary_rules,
            start: answers[start_box],
            nullable,
        };
        Self {
            kind,
            rsm,
            wcnf,
            n_state_nts,
            n_label_nts,
        }
    }

    /// The query class this was compiled from.
    pub fn kind(&self) -> QueryKind {
        self.kind
    }

    /// The RSM form of the query.
    pub fn rsm(&self) -> &Rsm {
        &self.rsm
    }

    /// The lowered state grammar the fixpoint solver evaluates.
    pub fn wcnf(&self) -> &Wcnf {
        &self.wcnf
    }

    /// The answer nonterminal's name (`Rpq` for NFAs, the source start
    /// nonterminal for grammars).
    pub fn start_name(&self) -> &str {
        self.wcnf.symbols.nt_name(self.wcnf.start)
    }

    /// Number of state nonterminals in the lowering (one reachability
    /// matrix each).
    pub fn n_state_nts(&self) -> usize {
        self.n_state_nts
    }

    /// Number of label nonterminals (one per distinct terminal; each is
    /// an alias of a materialized index matrix).
    pub fn n_label_nts(&self) -> usize {
        self.n_label_nts
    }

    /// Wraps the lowering as a [`PreparedQuery`]. `nullable_diagonal` is
    /// forced on: the lowering encodes entry-state identity seeds
    /// through it.
    pub fn into_prepared(self) -> PreparedQuery {
        PreparedQuery::from_wcnf(self.wcnf).options(SolveOptions {
            nullable_diagonal: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regular::solve_regular;
    use crate::session::{solve_prepared, CfpqSession, GraphIndex};
    use cfpq_graph::{generators, Graph};
    use cfpq_matrix::SparseEngine;

    fn pipeline_pairs(graph: &Graph, nfa: &Nfa) -> Vec<(u32, u32)> {
        let compiled = CompiledQuery::from_nfa(nfa);
        let start = compiled.wcnf().start;
        let index = GraphIndex::build(SparseEngine, graph);
        let solved = solve_prepared(&index, &compiled.into_prepared());
        solved.pairs(start)
    }

    #[test]
    fn nfa_lowering_matches_oracle_on_builders() {
        let graphs = [
            generators::chain(4, "a"),
            generators::cycle(3, "a"),
            generators::word_chain(&["a", "b", "a"]),
            generators::random_graph(9, 25, &["a", "b"], 3),
        ];
        let nfas = [
            Nfa::plus("a"),
            Nfa::star_then("a", "b"),
            Nfa::word(&["a", "b"]),
        ];
        for (gi, graph) in graphs.iter().enumerate() {
            for (ni, nfa) in nfas.iter().enumerate() {
                let oracle = solve_regular(&SparseEngine, graph, nfa);
                assert_eq!(
                    pipeline_pairs(graph, nfa),
                    oracle.pairs(),
                    "graph {gi}, nfa {ni}"
                );
            }
        }
    }

    #[test]
    fn accepting_start_state_still_answers_nonempty_paths_only() {
        // (ab)+ via a cycle of states where the accepting state is also
        // the start: ε is in the NFA's language but RPQ answers stay
        // non-empty, byte-identical with the oracle.
        let mut nfa = Nfa::new(2);
        nfa.start(0)
            .accept(0)
            .transition(0, "a", 1)
            .transition(1, "b", 0);
        let graph = generators::word_chain(&["a", "b", "a", "b"]);
        let oracle = solve_regular(&SparseEngine, &graph, &nfa);
        assert_eq!(pipeline_pairs(&graph, &nfa), oracle.pairs());
        assert_eq!(oracle.pairs(), vec![(0, 2), (0, 4), (2, 4)]);
    }

    #[test]
    fn empty_nfa_answers_nothing() {
        let nfa = Nfa::new(3); // no starts, no accepts, no transitions
        let graph = generators::chain(3, "a");
        assert!(pipeline_pairs(&graph, &nfa).is_empty());
    }

    #[test]
    fn cfg_lowering_matches_wcnf_pipeline_with_diagonal() {
        use cfpq_grammar::cnf::CnfOptions;
        let cfg = Cfg::parse("S -> a S b | a b | S S").unwrap();
        let compiled = CompiledQuery::from_cfg(&cfg).unwrap();
        assert_eq!(compiled.kind(), QueryKind::ContextFree);
        for seed in 0..6u64 {
            let graph = generators::random_graph(8, 20, &["a", "b"], seed);
            let mut session = CfpqSession::new(SparseEngine, &graph);
            let rsm_id = session.prepare_query(compiled.clone().into_prepared());
            let wcnf = cfg.to_wcnf(CnfOptions::default()).unwrap();
            let cnf_id = session.prepare_wcnf(wcnf);
            let rsm_answer = session.evaluate(rsm_id);
            let cnf_answer = session.evaluate(cnf_id);
            assert_eq!(
                rsm_answer.pairs("S").unwrap(),
                cnf_answer.pairs("S").unwrap(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn nullable_grammar_follows_rsm_epsilon_convention() {
        // S -> a S | eps: the compiled path reports the diagonal, like
        // solve_rsm and Algorithm 1 under nullable_diagonal.
        let cfg = Cfg::parse("S -> a S | eps").unwrap();
        let graph = generators::chain(2, "a");
        let compiled = CompiledQuery::from_cfg(&cfg).unwrap();
        let start = compiled.wcnf().start;
        let index = GraphIndex::build(SparseEngine, &graph);
        let solved = solve_prepared(&index, &compiled.into_prepared());
        assert_eq!(
            solved.pairs(start),
            vec![(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
        );
    }

    #[test]
    fn transitive_nullability_flows_through_calls() {
        // A -> B B, B -> eps | b: A is transitively nullable, so A's
        // diagonal must appear even on a graph with no b-edges at all.
        let cfg = Cfg::parse("A -> B B\nB -> eps | b").unwrap();
        let graph = generators::chain(2, "a");
        let compiled = CompiledQuery::from_cfg(&cfg).unwrap();
        let start = compiled.wcnf().start;
        let index = GraphIndex::build(SparseEngine, &graph);
        let solved = solve_prepared(&index, &compiled.into_prepared());
        assert_eq!(solved.pairs(start), vec![(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn lowering_shape_is_small_and_shared() {
        // a* b: 2 NFA states, 2 labels. State 1 is a pure sink (no
        // outgoing transitions), so its reachability lives only in the
        // answer nonterminal: 1 state nt + 2 label nts + Rpq.
        let compiled = CompiledQuery::from_nfa(&Nfa::star_then("a", "b"));
        assert_eq!(compiled.n_state_nts(), 1);
        assert_eq!(compiled.n_label_nts(), 2);
        assert_eq!(compiled.start_name(), "Rpq");
        assert_eq!(compiled.rsm().boxes.len(), 1);
        // Per-transition rules: 0-a->0 (state), 0-b->1 (answer only).
        assert_eq!(compiled.wcnf().binary_rules.len(), 2);
    }
}

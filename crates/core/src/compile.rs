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
//! States are read **backward**: state `q` stands for the words that
//! take it to acceptance. Indexed that way, a box *is* a right-linear
//! grammar over terminals and calls, and it goes through the same
//! [`Cfg::to_wcnf`] pipeline (TERM, BIN, DEL, UNIT) as a hand-written
//! one — so a regular query costs what its right-linear grammar costs:
//! `a+` lowers to `Rpq → a Rpq | a`, `a* b` to `Rpq → a Rpq | b`.
//!
//! * Every box gets one more state, its entry `⊤`, whose transitions are
//!   those of all its entry states: a box with several entries (or none)
//!   still has exactly one answer.
//! * A state is **live** if it is reachable from `⊤` and some non-empty
//!   run takes it to a final state; only live states become
//!   nonterminals. Live `q` gets `A_q → s A_q'` for every transition
//!   `q --s--> q'` into a live state and `A_q → s` for every transition
//!   into a final one; a call `s = B` names B's answer nonterminal.
//! * Before any rule is written, the live states of all boxes are merged
//!   by partition refinement (Moore's algorithm) on the signature
//!   `{(symbol, class of the target if live, target is final)}`. Equal
//!   signatures derive the same non-empty words, so merged states share
//!   one nonterminal, one matrix and one set of products (`a+`'s two
//!   states are one). The class holding box `b`'s `⊤` is `b`'s **answer
//!   nonterminal** (named after the source nonterminal, `Rpq` for an
//!   NFA); if another box named that class first, `b` gets the unit rule
//!   `b → that answer`, which the pipeline's UNIT step expands.
//!
//! ε-semantics: a state nonterminal derives the *non-empty* words from
//! its state, so an NFA never yields an ε-rule: its answer holds
//! non-empty paths only, like [`crate::regular::solve_regular`], even
//! when a start state accepts — no diagonal to seed or to repair. A
//! *grammar* box whose entry accepts gets `b → ε`, and DEL carries that
//! through calls, so compiled CFPQ reports the diagonal of every
//! nullable nonterminal — the RSM/GLL convention, identical to
//! Algorithm 1 under [`SolveOptions::nullable_diagonal`]. Such a `⊤`
//! starts the refinement in a block of its own, so its ε never reaches
//! a class that some transition targets.

use crate::regular::Nfa;
use crate::relational::SolveOptions;
use crate::session::PreparedQuery;
use cfpq_grammar::cfg::{Cfg, Production, Symbol};
use cfpq_grammar::cnf::CnfOptions;
use cfpq_grammar::rsm::{Rsm, RsmBox};
use cfpq_grammar::symbol::SymbolTable;
use cfpq_grammar::{GrammarError, Nt, Wcnf};
use std::collections::{BTreeSet, HashMap};

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
}

impl CompiledQuery {
    /// Compiles an NFA-form regular path query: one box, no calls, the
    /// `Rpq` answer nonterminal standing for its start states.
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

    /// Lowers `rsm` backward to the state grammar the module docs
    /// describe and normalizes it. `names[b]` names box `b`'s answer
    /// nonterminal; terminal names come from `source` (they must match
    /// graph edge labels for the index to bind them).
    fn lower(
        kind: QueryKind,
        rsm: Rsm,
        source: &SymbolTable,
        names: &[String],
        start_box: usize,
    ) -> Self {
        let flat = Flat::new(&rsm);
        let accepts_eps =
            |s: usize| kind == QueryKind::ContextFree && flat.is_top(s) && flat.finals[s];
        let class = flat.merge(&flat.live(), accepts_eps);

        // Nonterminals: the box answers, each naming the class of its ⊤
        // unless an earlier box did; then one per remaining class, named
        // after its first state.
        let mut grammar = Cfg::new();
        let answers: Vec<Nt> = names.iter().map(|n| grammar.symbols.nt(n)).collect();
        let firsts = first_states(&class);
        let mut named: Vec<Option<Nt>> = vec![None; firsts.len()];
        let mut rules: Vec<Production> = Vec::new();
        for (b, &answer) in answers.iter().enumerate() {
            let top = flat.tops[b];
            if let Some(c) = class[top] {
                match named[c] {
                    Some(earlier) => rules.push(Production {
                        lhs: answer,
                        rhs: vec![Symbol::N(earlier)],
                    }),
                    None => named[c] = Some(answer),
                }
            }
            if accepts_eps(top) {
                rules.push(Production {
                    lhs: answer,
                    rhs: Vec::new(),
                });
            }
        }
        let class_nt: Vec<Nt> = firsts
            .iter()
            .zip(named)
            .map(|(&s, nt)| {
                let (b, q) = flat.origin[s];
                nt.unwrap_or_else(|| grammar.symbols.fresh_nt(&format!("{}@q{q}", names[b])))
            })
            .collect();

        // Rules, once per class: its states share their signature.
        for (c, &s) in firsts.iter().enumerate() {
            for &(sym, t) in &flat.out[s] {
                let sym = match sym {
                    Symbol::T(term) => Symbol::T(grammar.symbols.term(source.term_name(term))),
                    Symbol::N(callee) => Symbol::N(answers[callee.index()]),
                };
                if let Some(target) = class[t] {
                    rules.push(Production {
                        lhs: class_nt[c],
                        rhs: vec![sym, Symbol::N(class_nt[target])],
                    });
                }
                if flat.finals[t] {
                    rules.push(Production {
                        lhs: class_nt[c],
                        rhs: vec![sym],
                    });
                }
            }
        }

        let start = answers[start_box];
        let n_state_nts = grammar.symbols.n_nts();
        let wcnf = if rules.is_empty() {
            // Nothing live, no ε: the answer is empty.
            Wcnf {
                symbols: grammar.symbols,
                term_rules: Vec::new(),
                binary_rules: Vec::new(),
                start,
                nullable: BTreeSet::new(),
            }
        } else {
            grammar.productions = rules;
            grammar.start = Some(start);
            grammar
                .to_wcnf(CnfOptions::default())
                .expect("a state grammar with rules and a start normalizes")
        };
        Self {
            kind,
            rsm,
            wcnf,
            n_state_nts,
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

    /// Number of state nonterminals in the lowering: the box answers
    /// plus one per other class of merged live states (one reachability
    /// matrix each).
    pub fn n_state_nts(&self) -> usize {
        self.n_state_nts
    }

    /// Number of label nonterminals: the `T<x>` the CNF pipeline lifted
    /// a terminal into (one per terminal that precedes a state; each
    /// is an alias of a materialized index matrix).
    pub fn n_label_nts(&self) -> usize {
        self.wcnf.n_nts() - self.n_state_nts
    }

    /// Wraps the lowering as a [`PreparedQuery`]. A context-free query
    /// reports the ε-diagonal of its nullable nonterminals
    /// (`nullable_diagonal`); an NFA's lowering has none.
    pub fn into_prepared(self) -> PreparedQuery {
        PreparedQuery::from_wcnf(self.wcnf).options(SolveOptions {
            nullable_diagonal: self.kind == QueryKind::ContextFree,
        })
    }
}

/// `(symbol, class of the target if live, target is final)` for each
/// transition of a state that yields a rule.
type Signature = Vec<(Symbol, Option<usize>, bool)>;

/// An RSM's boxes as one automaton over flat state ids, each box with
/// its added entry state `⊤` (see the module docs).
struct Flat {
    /// `(box, state)` of every flat state; a box's `⊤` is its state
    /// `n_states`.
    origin: Vec<(usize, u32)>,
    /// Outgoing transitions `(symbol, target)` of every flat state.
    out: Vec<Vec<(Symbol, usize)>>,
    /// Accepting flat states; a `⊤` accepts if one of its entries does.
    finals: Vec<bool>,
    /// Each box's `⊤`.
    tops: Vec<usize>,
}

impl Flat {
    fn new(rsm: &Rsm) -> Self {
        let mut flat = Flat {
            origin: Vec::new(),
            out: Vec::new(),
            finals: Vec::new(),
            tops: Vec::new(),
        };
        for (b, bx) in rsm.boxes.iter().enumerate() {
            let base = flat.out.len();
            let top = base + bx.n_states as usize;
            flat.origin.extend((0..=bx.n_states).map(|q| (b, q)));
            flat.out.resize(top + 1, Vec::new());
            flat.finals.extend((0..bx.n_states).map(|q| bx.is_final(q)));
            flat.finals.push(bx.entries.iter().any(|&e| bx.is_final(e)));
            for &(q, sym, q2) in &bx.transitions {
                let edge = (sym, base + q2 as usize);
                flat.out[base + q as usize].push(edge);
                if bx.is_entry(q) {
                    flat.out[top].push(edge);
                }
            }
            flat.tops.push(top);
        }
        flat
    }

    fn is_top(&self, s: usize) -> bool {
        self.tops[self.origin[s].0] == s
    }

    /// The live states: reachable from a `⊤`, and taken to a final state
    /// by some non-empty run.
    fn live(&self) -> Vec<bool> {
        let mut reached = vec![false; self.out.len()];
        let mut stack = self.tops.clone();
        while let Some(s) = stack.pop() {
            if !std::mem::replace(&mut reached[s], true) {
                stack.extend(self.out[s].iter().map(|&(_, t)| t));
            }
        }
        let mut accepting = vec![false; self.out.len()];
        let mut changed = true;
        while changed {
            changed = false;
            for s in 0..self.out.len() {
                if !accepting[s]
                    && self.out[s]
                        .iter()
                        .any(|&(_, t)| self.finals[t] || accepting[t])
                {
                    accepting[s] = true;
                    changed = true;
                }
            }
        }
        reached
            .iter()
            .zip(accepting)
            .map(|(&r, a)| r && a)
            .collect()
    }

    /// Moore's partition refinement of the live states: `class[s]` is
    /// the block of live `s` (`None` for the rest), blocks numbered in
    /// order of their first state. States `apart` says so start in a
    /// block of their own.
    fn merge(&self, live: &[bool], apart: impl Fn(usize) -> bool) -> Vec<Option<usize>> {
        let states = 0..self.out.len();
        let mut class: Vec<Option<usize>> = states
            .clone()
            .map(|s| live[s].then(|| usize::from(apart(s))))
            .collect();
        let mut n_classes = 0;
        loop {
            let mut ids: HashMap<(usize, Signature), usize> = HashMap::new();
            let next: Vec<Option<usize>> = states
                .clone()
                .map(|s| {
                    let key = (class[s]?, self.signature(s, &class));
                    let fresh = ids.len();
                    Some(*ids.entry(key).or_insert(fresh))
                })
                .collect();
            // A refinement that splits nothing is the fixpoint.
            let stable = ids.len() == n_classes;
            n_classes = ids.len();
            class = next;
            if stable {
                return class;
            }
        }
    }

    /// What the rules of state `s` are made of under `class`, sorted and
    /// without repeats.
    fn signature(&self, s: usize, class: &[Option<usize>]) -> Signature {
        let mut sig: Signature = self.out[s]
            .iter()
            .map(|&(sym, t)| (sym, class[t], self.finals[t]))
            .filter(|&(_, target, accepts)| target.is_some() || accepts)
            .collect();
        let symbol_key = |sym: Symbol| match sym {
            Symbol::T(t) => (false, t.0),
            Symbol::N(nt) => (true, nt.0),
        };
        sig.sort_unstable_by_key(|&(sym, target, accepts)| (symbol_key(sym), target, accepts));
        sig.dedup();
        sig
    }
}

/// The first state of every class `Flat::merge` numbered.
fn first_states(class: &[Option<usize>]) -> Vec<usize> {
    let mut firsts = Vec::new();
    for (s, &c) in class.iter().enumerate() {
        if c == Some(firsts.len()) {
            firsts.push(s);
        }
    }
    firsts
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
        assert!(CompiledQuery::from_nfa(&nfa).wcnf().nullable.is_empty());
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
            let cnf_id = session.prepare_query(PreparedQuery::from_wcnf(wcnf));
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
    fn equal_boxes_share_one_answer() {
        // S and A are the same box: their states merge across boxes and
        // A's answer is a unit rule onto S's.
        let cfg = Cfg::parse("S -> a B | eps\nA -> a B | eps\nB -> b").unwrap();
        let compiled = CompiledQuery::from_cfg(&cfg).unwrap();
        // S, A, B and the one merged state after `a`.
        assert_eq!(compiled.n_state_nts(), 4);
        let graph = generators::word_chain(&["a", "b"]);
        let mut session = CfpqSession::new(SparseEngine, &graph);
        let id = session.prepare_query(compiled.into_prepared());
        let answer = session.evaluate(id);
        let expect = [(0, 0), (0, 2), (1, 1), (2, 2)];
        assert_eq!(answer.pairs("S").unwrap(), expect);
        assert_eq!(answer.pairs("A").unwrap(), expect);
        assert_eq!(answer.pairs("B").unwrap(), [(1, 2)]);
    }

    #[test]
    fn an_accepting_entry_keeps_its_epsilon_to_itself() {
        // X's entry and Y's state after `a` both read one `b` to accept.
        // Merged, X's ε would reach `Y → a ·` and Y would answer `a`.
        let cfg = Cfg::parse("Y -> a b\nX -> b | eps").unwrap();
        let graph = generators::word_chain(&["a"]);
        let mut session = CfpqSession::new(SparseEngine, &graph);
        let id = session.prepare_rsm(&cfg).unwrap();
        let answer = session.evaluate(id);
        assert_eq!(answer.pairs("Y").unwrap(), []);
        assert_eq!(answer.pairs("X").unwrap(), [(0, 0), (1, 1)]);
    }

    /// Renders the lowering's rules as sorted text lines.
    fn rules(compiled: &CompiledQuery) -> Vec<String> {
        let mut lines: Vec<String> = compiled
            .wcnf()
            .to_text()
            .lines()
            .map(str::to_owned)
            .collect();
        lines.sort();
        lines
    }

    #[test]
    fn lowering_shape_is_small_and_shared() {
        // a* b: state 1 is a final sink, so only the entry is a state
        // nonterminal — the answer — and the lowering is the
        // right-linear grammar `Rpq → a Rpq | b` in weak CNF.
        let compiled = CompiledQuery::from_nfa(&Nfa::star_then("a", "b"));
        assert_eq!(compiled.n_state_nts(), 1);
        assert_eq!(compiled.n_label_nts(), 1);
        assert_eq!(compiled.start_name(), "Rpq");
        assert_eq!(compiled.rsm().boxes.len(), 1);
        assert_eq!(
            rules(&compiled),
            ["Rpq -> T<a> Rpq", "Rpq -> b", "T<a> -> a"]
        );

        // a+: q0 and q1 have one signature, {(a, q1's class, final)}, so
        // they merge into one nonterminal: `Rpq → a Rpq | a`.
        let compiled = CompiledQuery::from_nfa(&Nfa::plus("a"));
        assert_eq!(compiled.n_state_nts(), 1);
        assert_eq!(
            rules(&compiled),
            ["Rpq -> T<a> Rpq", "Rpq -> a", "T<a> -> a"]
        );
    }
}

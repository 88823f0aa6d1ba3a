//! Recursive state machines (RSM) — the unified query IR.
//!
//! Follow-on work to the paper (Shemetova et al., "One Algorithm to
//! Evaluate Them All", arXiv:2103.14688) evaluates *both* regular and
//! context-free path queries through one linear-algebra algorithm over
//! recursive state machines: one finite automaton ("box") per
//! nonterminal whose transitions are labeled with terminals or
//! nonterminal calls. A regular query is the degenerate RSM with a
//! single box and no calls; a context-free grammar becomes one box per
//! nonterminal with prefix-shared (trie) production paths, so
//! `S → subClassOf_r S subClassOf | subClassOf_r subClassOf` shares the
//! initial `subClassOf_r` transition.
//!
//! This module owns the IR itself: [`RsmBox`] and [`Rsm::from_cfg`] (the
//! trie construction, promoted out of `cfpq-baselines`). Lowering an RSM
//! onto the matrix pipeline — nullability included, which the CNF
//! pipeline derives from the lowered rules — lives in
//! `cfpq-core::compile`; the worklist evaluator kept as a differential
//! oracle lives in `cfpq-baselines::rsm`.

use crate::cfg::{Cfg, Symbol};
use std::collections::HashMap;

/// A state inside a box (dense per-box index).
pub type StateId = u32;

/// One box: the automaton for a single nonterminal.
///
/// Trie-built boxes ([`RsmBox::add_production`]) always enter at state
/// `0`; boxes converted from an NFA may have any number of entry states.
#[derive(Clone, Debug, Default)]
pub struct RsmBox {
    /// Number of states.
    pub n_states: u32,
    /// Entry states (state `0` for trie-built boxes).
    pub entries: Vec<StateId>,
    /// Accepting states (ends of production paths).
    pub finals: Vec<StateId>,
    /// Transitions `state --symbol--> state`, in insertion order.
    pub transitions: Vec<(StateId, Symbol, StateId)>,
    /// Per-state successor map over the *first* transition inserted for
    /// each `(state, symbol)` — the trie edge [`RsmBox::add_production`]
    /// extends. Keeping it indexed makes trie construction linear in the
    /// grammar size instead of quadratic (the old implementation re-ran
    /// `transitions.iter().find(...)` for every RHS symbol).
    succ: Vec<HashMap<Symbol, StateId>>,
}

impl RsmBox {
    /// A trie box: one entry state, nothing accepted yet.
    pub fn new() -> Self {
        Self::with_states(1).entry(0)
    }

    /// A box with `n_states` unconnected states and no entries/finals.
    pub fn with_states(n_states: u32) -> Self {
        Self {
            n_states,
            entries: Vec::new(),
            finals: Vec::new(),
            transitions: Vec::new(),
            succ: vec![HashMap::new(); n_states as usize],
        }
    }

    /// Marks `state` as an entry (builder style).
    pub fn entry(mut self, state: StateId) -> Self {
        self.mark_entry(state);
        self
    }

    /// Marks `state` as an entry.
    pub fn mark_entry(&mut self, state: StateId) {
        assert!(state < self.n_states, "entry state out of range");
        if !self.entries.contains(&state) {
            self.entries.push(state);
        }
    }

    /// Marks `state` as accepting.
    pub fn mark_final(&mut self, state: StateId) {
        assert!(state < self.n_states, "final state out of range");
        if !self.finals.contains(&state) {
            self.finals.push(state);
        }
    }

    /// Adds the transition `from --sym--> to`. The first transition per
    /// `(from, sym)` also becomes the trie edge subsequent
    /// [`RsmBox::add_production`] calls extend.
    pub fn add_transition(&mut self, from: StateId, sym: Symbol, to: StateId) {
        assert!(
            from < self.n_states && to < self.n_states,
            "transition state out of range"
        );
        self.transitions.push((from, sym, to));
        self.succ[from as usize].entry(sym).or_insert(to);
    }

    /// Adds one production's RHS as a path from state `0`, sharing
    /// existing prefixes (trie construction). An empty RHS marks the
    /// entry final. Each symbol is one map lookup, so building a box is
    /// linear in the total RHS length.
    pub fn add_production(&mut self, rhs: &[Symbol]) {
        let mut state: StateId = 0;
        for &sym in rhs {
            state = match self.succ[state as usize].get(&sym) {
                Some(&t) => t,
                None => {
                    let t = self.n_states;
                    self.n_states += 1;
                    self.succ.push(HashMap::new());
                    self.transitions.push((state, sym, t));
                    self.succ[state as usize].insert(sym, t);
                    t
                }
            };
        }
        self.mark_final(state);
    }

    /// Outgoing transitions of `state`, in insertion order.
    pub fn from_state(&self, state: StateId) -> impl Iterator<Item = (Symbol, StateId)> + '_ {
        self.transitions
            .iter()
            .filter(move |(s, _, _)| *s == state)
            .map(|(_, sym, t)| (*sym, *t))
    }

    /// True if `state` accepts.
    pub fn is_final(&self, state: StateId) -> bool {
        self.finals.contains(&state)
    }

    /// True if `state` is an entry.
    pub fn is_entry(&self, state: StateId) -> bool {
        self.entries.contains(&state)
    }
}

/// A recursive state machine: one box per nonterminal.
#[derive(Clone, Debug)]
pub struct Rsm {
    /// `boxes[A.index()]` is A's automaton.
    pub boxes: Vec<RsmBox>,
    /// Total state count (diagnostic; tries shrink this vs. one path per
    /// production).
    pub total_states: usize,
}

impl Rsm {
    /// Builds prefix-shared boxes from a grammar.
    pub fn from_cfg(cfg: &Cfg) -> Self {
        let n_nts = cfg.symbols.n_nts();
        let mut boxes = vec![RsmBox::new(); n_nts];
        for p in &cfg.productions {
            boxes[p.lhs.index()].add_production(&p.rhs);
        }
        Self::from_boxes(boxes)
    }

    /// Wraps explicitly-constructed boxes (`boxes[i]` is nonterminal
    /// `i`'s automaton).
    pub fn from_boxes(boxes: Vec<RsmBox>) -> Self {
        let total_states = boxes.iter().map(|b| b.n_states as usize).sum();
        Self {
            boxes,
            total_states,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trie_construction_shares_prefixes_linearly() {
        let cfg = Cfg::parse("S -> a b c | a b d | a e").unwrap();
        let rsm = Rsm::from_cfg(&cfg);
        let b = &rsm.boxes[0];
        // Paths: a-b-{c,d} shares `a b`, `a e` shares `a`.
        assert_eq!(b.n_states, 6, "entry + a + ab + abc + abd + ae");
        assert_eq!(b.from_state(0).count(), 1, "one shared `a` edge");
        assert_eq!(b.finals.len(), 3);
        assert_eq!(b.entries, vec![0]);
    }

    #[test]
    fn first_transition_wins_for_trie_extension() {
        // add_transition then add_production: the production reuses the
        // first (state, symbol) edge, matching the old linear-scan
        // semantics.
        let cfg = Cfg::parse("S -> a b | a c").unwrap();
        let a = Symbol::T(cfg.symbols.get_term("a").unwrap());
        let mut bx = RsmBox::new();
        bx.add_production(&[a]);
        let before = bx.n_states;
        bx.add_production(&[a]);
        assert_eq!(bx.n_states, before, "same RHS adds no states");
    }
}

//! Interned grammar symbols.
//!
//! Terminals and nonterminals are represented by dense `u32` identifiers so
//! that solver code can index arrays and bitsets directly; the
//! [`SymbolTable`] maps identifiers back to their human-readable names.

use std::collections::HashMap;
use std::fmt;

/// A terminal symbol (an edge label in CFPQ), identified by a dense index.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Term(pub u32);

/// A nonterminal symbol, identified by a dense index.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Nt(pub u32);

impl Term {
    /// The index as a `usize`, for array indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl Nt {
    /// The index as a `usize`, for array indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A string interner mapping names to dense indices and back.
///
/// Used for both terminal and nonterminal namespaces (separately).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Interner {
    names: Vec<String>,
    by_name: HashMap<String, u32>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its index (existing or fresh).
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Looks up an already-interned name.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    /// Returns the name for `id`, if it exists.
    pub fn name(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no names are interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(id, name)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (i as u32, n.as_str()))
    }
}

/// Symbol table holding the terminal and nonterminal namespaces of a
/// grammar. Cloned freely (names are small); the CNF pipeline extends the
/// nonterminal namespace with fresh synthetic names.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SymbolTable {
    terms: Interner,
    nts: Interner,
}

impl SymbolTable {
    /// Creates an empty symbol table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a terminal name.
    pub fn term(&mut self, name: &str) -> Term {
        Term(self.terms.intern(name))
    }

    /// Interns a nonterminal name.
    pub fn nt(&mut self, name: &str) -> Nt {
        Nt(self.nts.intern(name))
    }

    /// Looks up a terminal by name without interning.
    pub fn get_term(&self, name: &str) -> Option<Term> {
        self.terms.get(name).map(Term)
    }

    /// Looks up a nonterminal by name without interning.
    pub fn get_nt(&self, name: &str) -> Option<Nt> {
        self.nts.get(name).map(Nt)
    }

    /// Name of a terminal; `"?t<id>"` if unknown.
    pub fn term_name(&self, t: Term) -> &str {
        self.terms.name(t.0).unwrap_or("?term")
    }

    /// Name of a nonterminal; `"?n<id>"` if unknown.
    pub fn nt_name(&self, n: Nt) -> &str {
        self.nts.name(n.0).unwrap_or("?nt")
    }

    /// Number of terminals.
    pub fn n_terms(&self) -> usize {
        self.terms.len()
    }

    /// Number of nonterminals.
    pub fn n_nts(&self) -> usize {
        self.nts.len()
    }

    /// Creates a fresh nonterminal whose name does not collide with any
    /// existing one. `hint` seeds the name (e.g. `"S'"`, `"T#a"`).
    pub fn fresh_nt(&mut self, hint: &str) -> Nt {
        if self.nts.get(hint).is_none() {
            return self.nt(hint);
        }
        let mut i = 1u32;
        loop {
            let candidate = format!("{hint}#{i}");
            if self.nts.get(&candidate).is_none() {
                return self.nt(&candidate);
            }
            i += 1;
        }
    }

    /// Iterates over terminal `(Term, name)` pairs.
    pub fn terms(&self) -> impl Iterator<Item = (Term, &str)> {
        self.terms.iter().map(|(i, n)| (Term(i), n))
    }

    /// Iterates over nonterminal `(Nt, name)` pairs.
    pub fn nts(&self) -> impl Iterator<Item = (Nt, &str)> {
        self.nts.iter().map(|(i, n)| (Nt(i), n))
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for Nt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        assert_ne!(a, b);
        assert_eq!(i.intern("a"), a);
        assert_eq!(i.len(), 2);
        assert_eq!(i.name(a), Some("a"));
        assert_eq!(i.get("b"), Some(b));
        assert_eq!(i.get("c"), None);
    }

    #[test]
    fn table_separates_namespaces() {
        let mut t = SymbolTable::new();
        let term = t.term("S");
        let nt = t.nt("S");
        assert_eq!(term.0, 0);
        assert_eq!(nt.0, 0);
        assert_eq!(t.term_name(term), "S");
        assert_eq!(t.nt_name(nt), "S");
        assert_eq!(t.n_terms(), 1);
        assert_eq!(t.n_nts(), 1);
    }

    #[test]
    fn fresh_nt_avoids_collisions() {
        let mut t = SymbolTable::new();
        t.nt("X");
        let f1 = t.fresh_nt("X");
        let f2 = t.fresh_nt("X");
        assert_ne!(f1, f2);
        assert_eq!(t.nt_name(f1), "X#1");
        assert_eq!(t.nt_name(f2), "X#2");
        let f3 = t.fresh_nt("Y");
        assert_eq!(t.nt_name(f3), "Y");
    }

    #[test]
    fn iter_order_is_index_order() {
        let mut t = SymbolTable::new();
        t.term("a");
        t.term("b");
        let names: Vec<&str> = t.terms().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn empty_interner() {
        let i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.name(0), None);
    }
}

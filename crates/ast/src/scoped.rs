//! A scoped table with an undo log, shared by the expander's lexical
//! environment and the optimizer's flow-scoped facts.

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

/// A dominance-scoped table: one map for a whole walk, whose entries at
/// any program point are exactly those made by the bindings that
/// dominate it.
///
/// Every insertion is logged with the value it replaced. A walk takes a
/// [`mark`](ScopedMap::mark) on entering a scope (a lambda body, a branch
/// arm) and [`unwind`](ScopedMap::unwind)s to it on leaving, which undoes
/// the scope's insertions newest first: a key the scope added is removed,
/// and a value it replaced is put back (not removed). This replaces
/// copying the table at every scope, or looking a key up through a chain
/// of scopes.
#[derive(Debug, Clone)]
pub struct ScopedMap<K, V, S = RandomState> {
    table: HashMap<K, V, S>,
    log: Vec<(K, Option<V>)>,
}

impl<K, V, S: Default> Default for ScopedMap<K, V, S> {
    fn default() -> Self {
        ScopedMap {
            table: HashMap::default(),
            log: Vec::new(),
        }
    }
}

impl<K: Hash + Eq + Clone, V, S: BuildHasher> ScopedMap<K, V, S> {
    /// The value `k` is bound to in the current scope.
    pub fn get<Q>(&self, k: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.table.get(k)
    }

    /// Binds `k` to `v` until the enclosing scope is unwound.
    pub fn insert(&mut self, k: K, v: V) {
        let old = self.table.insert(k.clone(), v);
        self.log.push((k, old));
    }

    /// Where the current scope starts.
    pub fn mark(&self) -> usize {
        self.log.len()
    }

    /// Undoes every insertion made since `mark`.
    pub fn unwind(&mut self, mark: usize) {
        for (k, old) in self.log.drain(mark..).rev() {
            match old {
                Some(v) => self.table.insert(k, v),
                None => self.table.remove(&k),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_map_unwinds_to_each_mark() {
        let mut m: ScopedMap<u32, &str> = ScopedMap::default();
        m.insert(1, "outer");
        let branch = m.mark();
        m.insert(1, "strengthened");
        m.insert(2, "added");
        let inner = m.mark();
        m.insert(2, "again");
        m.unwind(inner);
        assert_eq!(
            (m.get(&1), m.get(&2)),
            (Some(&"strengthened"), Some(&"added"))
        );
        m.unwind(branch);
        assert_eq!((m.get(&1), m.get(&2)), (Some(&"outer"), None));
        m.unwind(0);
        assert_eq!(m.get(&1), None);
    }
}

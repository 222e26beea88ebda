//! Shared helpers for the optimizer passes.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use sxr_ir::anf::{Atom, Bound, Expr, Literal, NameSupply, VarId};
use sxr_ir::rep::{roles, RepRegistry};
use sxr_sexp::Datum;

/// The machine word a literal encodes to, when that is statically known
/// without a heap (immediates only).
pub fn lit_word(lit: &Literal, reg: &RepRegistry) -> Option<i64> {
    let enc = |role, payload| reg.role_word(role, payload);
    match lit {
        Literal::Raw(w) => Some(*w),
        Literal::Unspecified => enc(roles::UNSPECIFIED, 0),
        Literal::Rep(_) => None,
        Literal::Datum(d) => match d {
            Datum::Fixnum(n) => enc(roles::FIXNUM, *n),
            Datum::Bool(b) => enc(roles::BOOLEAN, *b as i64),
            Datum::Char(c) => enc(roles::CHAR, *c as i64),
            Datum::List(items) if items.is_empty() => enc(roles::NULL, 0),
            _ => None,
        },
    }
}

/// Scheme truthiness of a literal, when statically decidable.
pub fn truthiness(lit: &Literal, reg: &RepRegistry) -> Option<bool> {
    match lit {
        Literal::Datum(Datum::Bool(b)) => Some(*b),
        Literal::Datum(_) | Literal::Rep(_) | Literal::Unspecified => Some(true),
        Literal::Raw(w) => Some(*w != reg.role_word(roles::BOOLEAN, 0)?),
    }
}

/// Rewrites tail calls in `e` into bound calls so the expression can sit in
/// a value position (`Bound::Body`).
pub fn convert_tails(e: &mut Expr, supply: &mut NameSupply) {
    let tail = e.tail_mut();
    let call = match tail {
        Expr::If(_, a, b) => {
            convert_tails(a, supply);
            convert_tails(b, supply);
            return;
        }
        Expr::TailCall(..) | Expr::TailCallKnown(..) => {
            match std::mem::replace(tail, Expr::Ret(Atom::Lit(Literal::Unspecified))) {
                Expr::TailCall(f, args) => Bound::Call(f, args),
                Expr::TailCallKnown(fid, clo, args) => Bound::CallKnown(fid, clo, args),
                _ => unreachable!("matched a tail call"),
            }
        }
        _ => return,
    };
    let t = supply.fresh("ret");
    *tail = Expr::Let(t, call, Box::new(Expr::Ret(Atom::Var(t))));
}

/// Binds the value `e`'s tail `Ret` yields to `v` in front of `k`: the
/// tail is replaced by `let v = a in k`.
fn bind_at_ret(tail: &mut Expr, v: VarId, k: Expr) {
    let Expr::Ret(a) = tail else {
        unreachable!("checked to be a `Ret`")
    };
    let a = std::mem::replace(a, Atom::Lit(Literal::Unspecified));
    *tail = Expr::Let(v, Bound::Atom(a), Box::new(k));
}

/// Attempts to splice a straight-line value expression (a chain of lets and
/// letrecs ending in a single `Ret`) in front of `k`, binding the result to
/// `v`. Returns `Err` with the inputs when `e` branches.
#[allow(clippy::result_large_err)] // the Err hands the caller its inputs back
pub fn try_splice(mut e: Expr, v: VarId, k: Expr) -> Result<Expr, (Expr, Expr)> {
    let tail = e.tail_mut();
    if !matches!(tail, Expr::Ret(_)) {
        return Err((e, k));
    }
    bind_at_ret(tail, v, k);
    Ok(e)
}

/// True when executing `e` can never deliver a value (every path reaches
/// `%error` first).
pub fn diverges(e: &Expr) -> bool {
    e.lets().any(|(_, b)| match b {
        Bound::Prim(sxr_ir::prim::PrimOp::Error, _) => true,
        Bound::If(_, a, b) => diverges(a) && diverges(b),
        Bound::Body(inner) => diverges(inner),
        _ => false,
    }) || matches!(e.tail(), Expr::If(_, a, b) if diverges(a) && diverges(b))
}

/// Sinks the continuation `k` into a value expression: produces code equal
/// to "bind `e`'s value to `v`, then `k`", without ever duplicating `k`.
/// Conditionals are crossed only when one branch diverges (the continuation
/// then belongs entirely to the other branch — which is also what lets
/// dominance facts from passed checks survive).
///
/// Returns `Err` with the inputs when `e` branches two live ways.
#[allow(clippy::result_large_err)] // Err gives the caller its inputs back
pub fn sink_value(mut e: Expr, v: VarId, k: Expr) -> Result<Expr, (Expr, Expr)> {
    /// The `Ret` the value comes from, if there is exactly one live one.
    fn live_ret(e: &mut Expr) -> Option<&mut Expr> {
        let tail = e.tail_mut();
        match tail {
            Expr::Ret(_) => Some(tail),
            Expr::If(_, a, b) => {
                if diverges(b) {
                    live_ret(a)
                } else if diverges(a) {
                    live_ret(b)
                } else {
                    None
                }
            }
            _ => None,
        }
    }
    match live_ret(&mut e) {
        Some(tail) => bind_at_ret(tail, v, k),
        None => return Err((e, k)),
    }
    Ok(e)
}

/// True when dropping an unused binding of `b` cannot change behaviour.
pub fn bound_deletable(b: &Bound) -> bool {
    match b {
        Bound::Atom(_)
        | Bound::GlobalGet(_)
        | Bound::Lambda(_)
        | Bound::MakeClosure(..)
        | Bound::ClosureRef(_) => true,
        Bound::Prim(op, _) => op.deletable(),
        Bound::Call(..) | Bound::CallKnown(..) | Bound::GlobalSet(..) | Bound::ClosurePatch(..) => {
            false
        }
        Bound::If(_, t, e) => expr_deletable(t) && expr_deletable(e),
        Bound::Body(e) => expr_deletable(e),
    }
}

fn expr_deletable(e: &Expr) -> bool {
    e.lets().all(|(_, b)| bound_deletable(b))
        && match e.tail() {
            Expr::Ret(_) => true,
            Expr::If(_, t, e2) => expr_deletable(t) && expr_deletable(e2),
            _ => false,
        }
}

/// A dominance-scoped table: one map for a whole walk, whose entries at
/// any program point are exactly those made by the bindings that
/// dominate it.
///
/// Every insertion is logged with the value it replaced. A walk takes a
/// [`mark`](ScopedMap::mark) on entering a scope (a lambda body, a branch
/// arm) and [`unwind`](ScopedMap::unwind)s to it on leaving, which undoes
/// the scope's insertions newest first: a key the scope added is removed,
/// and a value it replaced is put back (not removed). This replaces
/// copying the table at every scope.
pub(crate) struct ScopedMap<K, V, S = RandomState> {
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
    pub(crate) fn get(&self, k: &K) -> Option<&V> {
        self.table.get(k)
    }

    /// Binds `k` to `v` until the enclosing scope is unwound.
    pub(crate) fn insert(&mut self, k: K, v: V) {
        let old = self.table.insert(k.clone(), v);
        self.log.push((k, old));
    }

    /// Where the current scope starts.
    pub(crate) fn mark(&self) -> usize {
        self.log.len()
    }

    /// Undoes every insertion made since `mark`.
    pub(crate) fn unwind(&mut self, mark: usize) {
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
    use sxr_ir::prim::PrimOp;

    #[test]
    fn lit_word_roles() {
        let mut reg = RepRegistry::new();
        let fx = reg.intern_immediate("fixnum", 3, 0, 3).unwrap();
        reg.provide_role("fixnum", fx).unwrap();
        assert_eq!(lit_word(&Literal::Datum(Datum::Fixnum(5)), &reg), Some(40));
        assert_eq!(lit_word(&Literal::Raw(9), &reg), Some(9));
        assert_eq!(
            lit_word(&Literal::Datum(Datum::Bool(true)), &reg),
            None,
            "no role"
        );
    }

    #[test]
    fn truthiness_rules() {
        let mut reg = RepRegistry::new();
        let bo = reg.intern_immediate("boolean", 8, 0b010, 8).unwrap();
        reg.provide_role("boolean", bo).unwrap();
        assert_eq!(
            truthiness(&Literal::Datum(Datum::Bool(false)), &reg),
            Some(false)
        );
        assert_eq!(
            truthiness(&Literal::Datum(Datum::Fixnum(0)), &reg),
            Some(true)
        );
        assert_eq!(truthiness(&Literal::Raw(0b010), &reg), Some(false));
        assert_eq!(truthiness(&Literal::Raw(0b1_0000_0010), &reg), Some(true));
    }

    #[test]
    fn splice_straight_line() {
        let e = Expr::Let(
            1,
            Bound::Prim(PrimOp::WordAdd, vec![Atom::raw(1), Atom::raw(2)]),
            Box::new(Expr::Ret(Atom::Var(1))),
        );
        let spliced = try_splice(e, 7, Expr::Ret(Atom::Var(7))).unwrap();
        match spliced {
            Expr::Let(1, _, rest) => match *rest {
                Expr::Let(7, Bound::Atom(Atom::Var(1)), _) => {}
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn splice_rejects_branches() {
        let e = Expr::If(
            sxr_ir::anf::Test::NonZero(Atom::raw(1)),
            Box::new(Expr::Ret(Atom::raw(1))),
            Box::new(Expr::Ret(Atom::raw(2))),
        );
        assert!(try_splice(e, 7, Expr::Ret(Atom::Var(7))).is_err());
    }

    #[test]
    fn tails_converted() {
        let mut supply = NameSupply::from_names(vec![]);
        let e = Expr::TailCall(Atom::Var(0), vec![]);
        let mut out = e;
        convert_tails(&mut out, &mut supply);
        assert!(matches!(out, Expr::Let(_, Bound::Call(..), _)));
    }

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

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
pub fn convert_tails(e: Expr, supply: &mut NameSupply) -> Expr {
    match e {
        Expr::TailCall(f, args) => {
            let t = supply.fresh("ret");
            Expr::Let(t, Bound::Call(f, args), Box::new(Expr::Ret(Atom::Var(t))))
        }
        Expr::TailCallKnown(fid, clo, args) => {
            let t = supply.fresh("ret");
            Expr::Let(
                t,
                Bound::CallKnown(fid, clo, args),
                Box::new(Expr::Ret(Atom::Var(t))),
            )
        }
        Expr::Let(v, b, body) => Expr::Let(v, b, Box::new(convert_tails(*body, supply))),
        Expr::If(t, a, b) => Expr::If(
            t,
            Box::new(convert_tails(*a, supply)),
            Box::new(convert_tails(*b, supply)),
        ),
        Expr::LetRec(binds, body) => Expr::LetRec(binds, Box::new(convert_tails(*body, supply))),
        Expr::Ret(_) => e,
    }
}

/// Attempts to splice a straight-line value expression (a chain of lets and
/// letrecs ending in a single `Ret`) in front of `k`, binding the result to
/// `v`. Returns `Err` with the inputs when `e` branches.
#[allow(clippy::result_large_err)] // the Err hands the caller its inputs back
pub fn try_splice(e: Expr, v: VarId, k: Expr) -> Result<Expr, (Expr, Expr)> {
    fn straight(e: &Expr) -> bool {
        match e {
            Expr::Ret(_) => true,
            Expr::Let(_, _, body) => straight(body),
            Expr::LetRec(_, body) => straight(body),
            Expr::If(..) | Expr::TailCall(..) | Expr::TailCallKnown(..) => false,
        }
    }
    if !straight(&e) {
        return Err((e, k));
    }
    fn go(e: Expr, v: VarId, k: Expr) -> Expr {
        match e {
            Expr::Ret(a) => Expr::Let(v, Bound::Atom(a), Box::new(k)),
            Expr::Let(w, b, body) => Expr::Let(w, b, Box::new(go(*body, v, k))),
            Expr::LetRec(binds, body) => Expr::LetRec(binds, Box::new(go(*body, v, k))),
            _ => unreachable!("checked straight-line"),
        }
    }
    Ok(go(e, v, k))
}

/// True when executing `e` can never deliver a value (every path reaches
/// `%error` first).
pub fn diverges(e: &Expr) -> bool {
    match e {
        Expr::Let(_, Bound::Prim(sxr_ir::prim::PrimOp::Error, _), _) => true,
        Expr::Let(_, Bound::If(_, a, b), body) => (diverges(a) && diverges(b)) || diverges(body),
        Expr::Let(_, Bound::Body(inner), body) => diverges(inner) || diverges(body),
        Expr::Let(_, _, body) => diverges(body),
        Expr::If(_, a, b) => diverges(a) && diverges(b),
        Expr::LetRec(_, body) => diverges(body),
        Expr::Ret(_) | Expr::TailCall(..) | Expr::TailCallKnown(..) => false,
    }
}

/// Sinks the continuation `k` into a value expression: produces code equal
/// to "bind `e`'s value to `v`, then `k`", without ever duplicating `k`.
/// Conditionals are crossed only when one branch diverges (the continuation
/// then belongs entirely to the other branch — which is also what lets
/// dominance facts from passed checks survive).
///
/// Returns `Err` with the inputs when `e` branches two live ways.
#[allow(clippy::result_large_err)] // Err gives the caller its inputs back
pub fn sink_value(e: Expr, v: VarId, k: Expr) -> Result<Expr, (Expr, Expr)> {
    fn sinkable(e: &Expr) -> bool {
        match e {
            Expr::Ret(_) => true,
            Expr::Let(_, _, body) => sinkable(body),
            Expr::LetRec(_, body) => sinkable(body),
            Expr::If(_, a, b) => (diverges(b) && sinkable(a)) || (diverges(a) && sinkable(b)),
            Expr::TailCall(..) | Expr::TailCallKnown(..) => false,
        }
    }
    if !sinkable(&e) {
        return Err((e, k));
    }
    fn go(e: Expr, v: VarId, k: Expr) -> Expr {
        match e {
            Expr::Ret(a) => Expr::Let(v, Bound::Atom(a), Box::new(k)),
            Expr::Let(w, b, body) => Expr::Let(w, b, Box::new(go(*body, v, k))),
            Expr::LetRec(binds, body) => Expr::LetRec(binds, Box::new(go(*body, v, k))),
            Expr::If(t, a, b) => {
                if diverges(&b) {
                    Expr::If(t, Box::new(go(*a, v, k)), b)
                } else {
                    Expr::If(t, a, Box::new(go(*b, v, k)))
                }
            }
            Expr::TailCall(..) | Expr::TailCallKnown(..) => {
                unreachable!("checked by sinkable")
            }
        }
    }
    Ok(go(e, v, k))
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
    match e {
        Expr::Ret(_) => true,
        Expr::Let(_, b, body) => bound_deletable(b) && expr_deletable(body),
        Expr::If(_, t, e2) => expr_deletable(t) && expr_deletable(e2),
        Expr::LetRec(_, body) => expr_deletable(body),
        Expr::TailCall(..) | Expr::TailCallKnown(..) => false,
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
        let out = convert_tails(e, &mut supply);
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

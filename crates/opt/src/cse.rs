//! Common-subexpression elimination on pure operations.
//!
//! In the abstract pipeline, repeated tag/untag traffic (two `car`s of the
//! same pair, a projection computed twice) is common after inlining; CSE
//! collapses it.  What a branch arm makes available stays in that arm;
//! function bodies inherit the enclosing scope (an available pure value
//! stays valid however many times the closure runs) but what they make
//! available does not leak out of them.

use crate::util::ScopedMap;
use sxr_ir::anf::{Atom, Bound, Expr, VarId};
use sxr_ir::prim::PrimOp;

/// Runs CSE; returns the rewritten program and the replacement count.
pub fn cse(e: Expr) -> (Expr, usize) {
    let mut st = Cse {
        changed: 0,
        avail: Avail::default(),
    };
    let out = st.walk(e);
    (out, st.changed)
}

/// The pure operations available at the current program point, each with
/// the variable that holds its result. (Keyed by operands that may be
/// literals from the source, so it keeps std's keyed hasher.)
type Avail = ScopedMap<(PrimOp, Vec<Atom>), VarId>;

struct Cse {
    changed: usize,
    avail: Avail,
}

impl Cse {
    fn walk(&mut self, e: Expr) -> Expr {
        match e {
            Expr::Let(v, Bound::Prim(op, args), body) => {
                if op.pure() {
                    let key = (op, args.clone());
                    if let Some(&prev) = self.avail.get(&key) {
                        self.changed += 1;
                        let b = Bound::Atom(Atom::Var(prev));
                        return Expr::Let(v, b, Box::new(self.walk(*body)));
                    }
                    self.avail.insert(key, v);
                }
                Expr::Let(v, Bound::Prim(op, args), Box::new(self.walk(*body)))
            }
            Expr::Let(v, b, body) => {
                let b = match b {
                    Bound::Lambda(mut f) => {
                        f.body = Box::new(self.walk_scoped(*f.body));
                        Bound::Lambda(f)
                    }
                    Bound::If(t, x, y) => Bound::If(
                        t,
                        Box::new(self.walk_scoped(*x)),
                        Box::new(self.walk_scoped(*y)),
                    ),
                    Bound::Body(inner) => {
                        // A straight-line body shares the parent scope.
                        Bound::Body(Box::new(self.walk(*inner)))
                    }
                    other => other,
                };
                Expr::Let(v, b, Box::new(self.walk(*body)))
            }
            Expr::If(t, x, y) => Expr::If(
                t,
                Box::new(self.walk_scoped(*x)),
                Box::new(self.walk_scoped(*y)),
            ),
            Expr::LetRec(binds, body) => Expr::LetRec(
                binds
                    .into_iter()
                    .map(|(v, mut f)| {
                        f.body = Box::new(self.walk_scoped(*f.body));
                        (v, f)
                    })
                    .collect(),
                Box::new(self.walk(*body)),
            ),
            other => other,
        }
    }

    /// Walks `e` in a scope of its own: what it makes available ends
    /// with it.
    fn walk_scoped(&mut self, e: Expr) -> Expr {
        let mark = self.avail.mark();
        let out = self.walk(e);
        self.avail.unwind(mark);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxr_ir::anf::Test;

    #[test]
    fn duplicate_pure_op_replaced() {
        use PrimOp::*;
        let e = Expr::Let(
            1,
            Bound::Prim(WordShr, vec![Atom::Var(0), Atom::raw(3)]),
            Box::new(Expr::Let(
                2,
                Bound::Prim(WordShr, vec![Atom::Var(0), Atom::raw(3)]),
                Box::new(Expr::Ret(Atom::Var(2))),
            )),
        );
        let (out, n) = cse(e);
        assert_eq!(n, 1);
        let Expr::Let(1, _, rest) = out else { panic!() };
        assert!(matches!(*rest, Expr::Let(2, Bound::Atom(Atom::Var(1)), _)));
    }

    #[test]
    fn branches_do_not_leak_into_each_other() {
        use PrimOp::*;
        let mk = || Bound::Prim(WordShr, vec![Atom::Var(0), Atom::raw(3)]);
        let e = Expr::If(
            Test::NonZero(Atom::Var(0)),
            Box::new(Expr::Let(1, mk(), Box::new(Expr::Ret(Atom::Var(1))))),
            Box::new(Expr::Let(2, mk(), Box::new(Expr::Ret(Atom::Var(2))))),
        );
        let (_, n) = cse(e);
        assert_eq!(n, 0, "sibling branches cannot share");
    }

    #[test]
    fn lambda_bodies_do_not_leak_what_they_make_available() {
        use PrimOp::*;
        let mk = || Bound::Prim(WordShr, vec![Atom::Var(0), Atom::raw(3)]);
        // v1 = lambda () { v2 = v0 >> 3; ret v2 }
        // v3 = v0 >> 3        -- first available inside the lambda only
        // v4 = v0 >> 3        -- the same as v3
        let lambda = sxr_ir::anf::FunDef {
            params: vec![],
            rest: None,
            body: Box::new(Expr::Let(2, mk(), Box::new(Expr::Ret(Atom::Var(2))))),
            name: None,
        };
        let e = Expr::Let(
            1,
            Bound::Lambda(lambda),
            Box::new(Expr::Let(
                3,
                mk(),
                Box::new(Expr::Let(4, mk(), Box::new(Expr::Ret(Atom::Var(4))))),
            )),
        );
        let (out, n) = cse(e);
        assert_eq!(n, 1, "{}", sxr_ir::pretty::expr_to_string(&out));
        let Expr::Let(1, _, rest) = out else { panic!() };
        assert!(matches!(*rest, Expr::Let(3, Bound::Prim(WordShr, _), _)));
        let Expr::Let(3, _, rest) = *rest else {
            panic!()
        };
        assert!(matches!(*rest, Expr::Let(4, Bound::Atom(Atom::Var(3)), _)));
    }

    #[test]
    fn impure_not_csed() {
        use PrimOp::*;
        let mk = || Bound::Prim(RepRef, vec![Atom::Var(0), Atom::Var(1), Atom::raw(0)]);
        let e = Expr::Let(
            2,
            mk(),
            Box::new(Expr::Let(3, mk(), Box::new(Expr::Ret(Atom::Var(3))))),
        );
        let (_, n) = cse(e);
        assert_eq!(n, 0, "memory reads may not be merged across stores");
    }
}

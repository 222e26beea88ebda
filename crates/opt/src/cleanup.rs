//! Dead-code elimination and structural simplification.
//!
//! * drops unused bindings of deletable right-hand sides,
//! * dissolves `Bound::Body` wrappers whose contents are straight-line,
//! * simplifies trivial value-ifs.
//!
//! Run to fixpoint by the pass manager (deleting one binding can make
//! another's operands dead).

use crate::util::{bound_deletable, diverges, sink_value};
#[cfg(test)]
use sxr_ir::anf::Atom;
use sxr_ir::anf::{Bound, Expr, VarId};
use sxr_ir::IdMap;

/// One cleanup sweep; returns the new expression and how many rewrites
/// happened.
pub fn cleanup(e: Expr) -> (Expr, usize) {
    let mut uses = IdMap::default();
    e.use_counts(&mut uses);
    let mut st = Clean { uses, changed: 0 };
    let out = st.walk(e);
    (out, st.changed)
}

struct Clean {
    uses: IdMap<VarId, usize>,
    changed: usize,
}

impl Clean {
    fn used(&self, v: VarId) -> bool {
        self.uses.get(&v).copied().unwrap_or(0) > 0
    }

    fn walk(&mut self, e: Expr) -> Expr {
        match e {
            Expr::Let(v, b, body) => {
                let body = self.walk(*body);
                // Simplify the binding first.
                let b = match b {
                    Bound::Body(inner) => {
                        let inner = self.walk(*inner);
                        // Sink the continuation through the body when that
                        // does not duplicate code (straight lines, or
                        // conditionals with a divergent branch).
                        match sink_value(inner, v, body) {
                            Ok(sunk) => {
                                self.changed += 1;
                                return sunk;
                            }
                            Err((inner, body)) => {
                                return self.finish_let(v, Bound::Body(Box::new(inner)), body)
                            }
                        }
                    }
                    Bound::If(t, x, y) => {
                        let x = self.walk(*x);
                        let y = self.walk(*y);
                        match (&x, &y) {
                            (Expr::Ret(a), Expr::Ret(bb)) if a == bb => {
                                self.changed += 1;
                                Bound::Atom(a.clone())
                            }
                            _ => {
                                if diverges(&x) || diverges(&y) {
                                    let rebuilt = Expr::If(t, Box::new(x), Box::new(y));
                                    match sink_value(rebuilt, v, body) {
                                        Ok(sunk) => {
                                            self.changed += 1;
                                            return sunk;
                                        }
                                        Err((rebuilt, body)) => {
                                            let Expr::If(t, x, y) = rebuilt else {
                                                unreachable!()
                                            };
                                            return self.finish_let(v, Bound::If(t, x, y), body);
                                        }
                                    }
                                }
                                Bound::If(t, Box::new(x), Box::new(y))
                            }
                        }
                    }
                    Bound::Lambda(mut f) => {
                        f.body = Box::new(self.walk(*f.body));
                        Bound::Lambda(f)
                    }
                    other => other,
                };
                self.finish_let(v, b, body)
            }
            Expr::If(t, x, y) => Expr::If(t, Box::new(self.walk(*x)), Box::new(self.walk(*y))),
            Expr::LetRec(binds, body) => {
                let body = self.walk(*body);
                // Drop letrec groups none of whose members are referenced.
                let any_used = binds.iter().any(|(v, _)| self.used(*v));
                if !any_used {
                    self.changed += 1;
                    return body;
                }
                Expr::LetRec(
                    binds
                        .into_iter()
                        .map(|(v, mut f)| {
                            f.body = Box::new(self.walk(*f.body));
                            (v, f)
                        })
                        .collect(),
                    Box::new(body),
                )
            }
            other => other,
        }
    }

    fn finish_let(&mut self, v: VarId, b: Bound, body: Expr) -> Expr {
        if !self.used(v) && bound_deletable(&b) {
            self.changed += 1;
            // The dropped binding's operand uses disappear with it; the
            // next fixpoint iteration picks up newly dead bindings.
            return body;
        }
        Expr::Let(v, b, Box::new(body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxr_ir::prim::PrimOp;

    #[test]
    fn unused_pure_binding_dropped() {
        let e = Expr::Let(
            1,
            Bound::Prim(PrimOp::WordAdd, vec![Atom::raw(1), Atom::raw(2)]),
            Box::new(Expr::Ret(Atom::raw(0))),
        );
        let (out, n) = cleanup(e);
        assert_eq!(n, 1);
        assert_eq!(out, Expr::Ret(Atom::raw(0)));
    }

    #[test]
    fn unused_effect_kept() {
        let e = Expr::Let(
            1,
            Bound::Prim(PrimOp::WriteChar, vec![Atom::raw(65)]),
            Box::new(Expr::Ret(Atom::raw(0))),
        );
        let (out, n) = cleanup(e);
        assert_eq!(n, 0);
        assert!(matches!(out, Expr::Let(..)));
    }

    #[test]
    fn chains_die_over_iterations() {
        // b depends on a; both unused after two sweeps.
        let e = Expr::Let(
            1,
            Bound::Prim(PrimOp::WordAdd, vec![Atom::raw(1), Atom::raw(2)]),
            Box::new(Expr::Let(
                2,
                Bound::Prim(PrimOp::WordAdd, vec![Atom::Var(1), Atom::raw(3)]),
                Box::new(Expr::Ret(Atom::raw(0))),
            )),
        );
        let (out, n1) = cleanup(e);
        assert_eq!(n1, 1);
        let (out, n2) = cleanup(out);
        assert_eq!(n2, 1);
        assert_eq!(out, Expr::Ret(Atom::raw(0)));
    }

    #[test]
    fn body_of_ret_collapses() {
        let e = Expr::Let(
            1,
            Bound::Body(Box::new(Expr::Ret(Atom::raw(5)))),
            Box::new(Expr::Ret(Atom::Var(1))),
        );
        let (out, _) = cleanup(e);
        assert!(matches!(out, Expr::Let(1, Bound::Atom(_), _)));
    }

    #[test]
    fn straight_line_body_splices() {
        let inner = Expr::Let(
            2,
            Bound::Prim(PrimOp::WordAdd, vec![Atom::Var(0), Atom::raw(1)]),
            Box::new(Expr::Ret(Atom::Var(2))),
        );
        let e = Expr::Let(
            1,
            Bound::Body(Box::new(inner)),
            Box::new(Expr::Ret(Atom::Var(1))),
        );
        let (out, _) = cleanup(e);
        // let v2 = add in let v1 = v2 in ret v1
        assert!(matches!(out, Expr::Let(2, Bound::Prim(..), _)));
    }

    #[test]
    fn trivial_if_same_branches() {
        let e = Expr::Let(
            1,
            Bound::If(
                sxr_ir::anf::Test::NonZero(Atom::Var(0)),
                Box::new(Expr::Ret(Atom::raw(9))),
                Box::new(Expr::Ret(Atom::raw(9))),
            ),
            Box::new(Expr::Ret(Atom::Var(1))),
        );
        let (out, _) = cleanup(e);
        assert!(matches!(out, Expr::Let(1, Bound::Atom(Atom::Lit(_)), _)));
    }

    #[test]
    fn unused_letrec_dropped() {
        let e = Expr::LetRec(
            vec![(
                5,
                sxr_ir::anf::FunDef {
                    params: vec![],
                    rest: None,
                    body: Box::new(Expr::Ret(Atom::raw(0))),
                    name: None,
                },
            )],
            Box::new(Expr::Ret(Atom::raw(1))),
        );
        let (out, n) = cleanup(e);
        assert_eq!(n, 1);
        assert_eq!(out, Expr::Ret(Atom::raw(1)));
    }
}

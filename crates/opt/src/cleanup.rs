//! Dead-code elimination and structural simplification.
//!
//! * drops unused bindings of deletable right-hand sides,
//! * dissolves `Bound::Body` wrappers whose contents are straight-line,
//! * simplifies trivial value-ifs.
//!
//! Run to fixpoint by the pass manager (deleting one binding can make
//! another's operands dead).

use crate::util::{bound_deletable, sink_value, sinkable};
#[cfg(test)]
use sxr_ir::anf::Atom;
use sxr_ir::anf::{Bound, Expr, VarId};
use sxr_ir::IdMap;

/// One cleanup sweep over `e`, in place; returns how many rewrites
/// happened.
pub fn cleanup(e: &mut Expr) -> usize {
    let mut uses = IdMap::default();
    e.use_counts(&mut uses);
    let mut st = Clean { uses, changed: 0 };
    st.walk(e);
    st.changed
}

struct Clean {
    uses: IdMap<VarId, usize>,
    changed: usize,
}

impl Clean {
    fn used(&self, v: VarId) -> bool {
        self.uses.get(&v).copied().unwrap_or(0) > 0
    }

    /// Walks `e` in place along its spine. Use counts are those of the
    /// sweep's input, so what a binding's fate depends on does not change
    /// as the sweep goes: a binding that dies because another one did is
    /// left for the next sweep.
    fn walk(&mut self, e: &mut Expr) {
        let mut e = e;
        loop {
            let (v, b) = match e {
                Expr::Let(v, b, _) => (*v, b),
                Expr::If(_, x, y) => {
                    self.walk(x);
                    self.walk(y);
                    return;
                }
                Expr::LetRec(binds, _) => {
                    // Drop letrec groups none of whose members are
                    // referenced.
                    if !binds.iter().any(|(v, _)| self.used(*v)) {
                        self.changed += 1;
                        e.unlink();
                        continue;
                    }
                    for (_, f) in binds {
                        self.walk(&mut f.body);
                    }
                    e = e.next_mut().expect("a letrec goes on");
                    continue;
                }
                Expr::Ret(_) | Expr::TailCall(..) | Expr::TailCallKnown(..) => return,
            };
            // Simplify the binding first.
            let sink = match b {
                // Sink the continuation through the body when that does
                // not duplicate code (straight lines, or conditionals with
                // a divergent branch).
                Bound::Body(inner) => {
                    self.walk(inner);
                    true
                }
                Bound::If(_, x, y) => {
                    self.walk(x);
                    self.walk(y);
                    match (&**x, &**y) {
                        (Expr::Ret(a), Expr::Ret(a2)) if a == a2 => {
                            self.changed += 1;
                            *b = Bound::Atom(a.clone());
                            false
                        }
                        _ => true,
                    }
                }
                Bound::Lambda(f) => {
                    self.walk(&mut f.body);
                    false
                }
                _ => false,
            };
            if sink && sinkable(e) {
                // `let v = a` now stands in front of `k`; it is new, so the
                // sweep goes on after it.
                self.changed += 1;
                e = sink_value(e);
                continue;
            }
            let Expr::Let(_, b, _) = e else {
                unreachable!("matched a `let`")
            };
            if !self.used(v) && bound_deletable(b) {
                self.changed += 1;
                // The dropped binding's operand uses disappear with it; the
                // next fixpoint iteration picks up newly dead bindings.
                e.unlink();
                continue;
            }
            e = e.next_mut().expect("a `let` goes on");
        }
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
        let mut out = e;
        let n = cleanup(&mut out);
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
        let mut out = e;
        let n = cleanup(&mut out);
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
        let mut out = e;
        let n1 = cleanup(&mut out);
        assert_eq!(n1, 1);
        let n2 = cleanup(&mut out);
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
        let mut out = e;
        cleanup(&mut out);
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
        let mut out = e;
        cleanup(&mut out);
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
        let mut out = e;
        cleanup(&mut out);
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
        let mut out = e;
        let n = cleanup(&mut out);
        assert_eq!(n, 1);
        assert_eq!(out, Expr::Ret(Atom::raw(1)));
    }
}

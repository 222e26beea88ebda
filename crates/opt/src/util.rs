//! Shared helpers for the optimizer passes.

use sxr_ir::anf::{Atom, Bound, Expr, Literal, NameSupply};
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
        Expr::TailCall(f, args) => Bound::Call(f.take(), std::mem::take(args)),
        Expr::TailCallKnown(fid, clo, args) => {
            Bound::CallKnown(*fid, clo.take(), std::mem::take(args))
        }
        _ => return,
    };
    let t = supply.fresh("ret");
    *tail = Expr::Let(t, call, Box::new(Expr::Ret(Atom::Var(t))));
}

/// Puts `node`, a `let v = … in k`, in place of the `Ret a` node `tail`,
/// with `a` as its value; returns the position of `k`.
fn bind_at_ret(tail: &mut Expr, mut node: Expr) -> &mut Expr {
    let (Expr::Ret(a), Expr::Let(_, b, _)) = (&mut *tail, &mut node) else {
        unreachable!("checked to be a `Ret` and a `let`")
    };
    *b = Bound::Atom(a.take());
    *tail = node;
    tail.next_mut().expect("a `let` was just put here")
}

/// Splices the straight-line value expression `e` (a chain of lets and
/// letrecs ending in a single `Ret`) into the slot of the `let v = … in k`
/// node `slot`: `slot` becomes `e`, with its `Ret a` replaced by
/// `let v = a in k`. When `e` branches, `slot` is left alone and `e` is
/// handed back.
///
/// # Panics
///
/// When `slot` is not a `let`.
#[allow(clippy::result_large_err)] // the Err hands the caller its input back
pub fn try_splice(slot: &mut Expr, mut e: Expr) -> Result<(), Expr> {
    if !matches!(e.tail(), Expr::Ret(_)) {
        return Err(e);
    }
    assert!(
        matches!(slot, Expr::Let(..)),
        "splicing into a node that is not a `let`"
    );
    bind_at_ret(e.tail_mut(), slot.take());
    *slot = e;
    Ok(())
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

/// Which arm of a conditional can deliver its value: `Some(true)` for the
/// first when the second diverges, `Some(false)` for the second when the
/// first diverges, `None` when both can.
fn live_arm(a: &Expr, b: &Expr) -> Option<bool> {
    if diverges(b) {
        Some(true)
    } else if diverges(a) {
        Some(false)
    } else {
        None
    }
}

/// Whether `e` has exactly one live `Ret` (see [`sink_value`]).
fn has_live_ret(e: &Expr) -> bool {
    match e.tail() {
        Expr::Ret(_) => true,
        Expr::If(_, a, b) => match live_arm(a, b) {
            Some(true) => has_live_ret(a),
            Some(false) => has_live_ret(b),
            None => false,
        },
        _ => false,
    }
}

/// The `Ret` the value of `e` comes from, if there is exactly one live one.
fn live_ret(e: &mut Expr) -> Option<&mut Expr> {
    let tail = e.tail_mut();
    let arm = match tail {
        Expr::Ret(_) => return Some(tail),
        Expr::If(_, a, b) => match live_arm(a, b)? {
            true => a,
            false => b,
        },
        _ => return None,
    };
    live_ret(arm)
}

/// Whether [`sink_value`] applies to `slot`: a `let v = value in k` whose
/// value is a [`Bound::Body`] or a [`Bound::If`] with exactly one live
/// `Ret`. Conditionals are crossed only when one branch diverges (the
/// continuation then belongs entirely to the other branch — which is also
/// what lets dominance facts from passed checks survive).
pub fn sinkable(slot: &Expr) -> bool {
    match slot {
        Expr::Let(_, Bound::Body(inner), _) => has_live_ret(inner),
        Expr::Let(_, Bound::If(_, a, b), _) => match live_arm(a, b) {
            Some(true) => has_live_ret(a),
            Some(false) => has_live_ret(b),
            None => false,
        },
        _ => false,
    }
}

/// Sinks the continuation of the [`sinkable`] node `slot` into its value:
/// `slot` becomes the value expression with its live `Ret a` replaced by
/// `let v = a in k`, so `k` is never duplicated. Returns the position of
/// `k`.
///
/// # Panics
///
/// When `slot` is not [`sinkable`].
pub fn sink_value(slot: &mut Expr) -> &mut Expr {
    let mut node = slot.take();
    let Expr::Let(_, b, _) = &mut node else {
        panic!("sinking into a node that is not a `let`")
    };
    *slot = match b.take() {
        Bound::Body(inner) => *inner,
        Bound::If(t, a, b) => Expr::If(t, a, b),
        _ => panic!("sinking a value that is neither a body nor a conditional"),
    };
    let tail = live_ret(slot).expect("a sinkable value has a live `Ret`");
    bind_at_ret(tail, node)
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

    /// `let 7 = f() in ret v7`, the shape the inliner splices into.
    fn call_site() -> Expr {
        Expr::Let(
            7,
            Bound::Call(Atom::Var(0), vec![]),
            Box::new(Expr::Ret(Atom::Var(7))),
        )
    }

    #[test]
    fn splice_straight_line() {
        let e = Expr::Let(
            1,
            Bound::Prim(PrimOp::WordAdd, vec![Atom::raw(1), Atom::raw(2)]),
            Box::new(Expr::Ret(Atom::Var(1))),
        );
        let mut spliced = call_site();
        try_splice(&mut spliced, e).unwrap();
        match &spliced {
            Expr::Let(1, _, rest) => match &**rest {
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
        let mut slot = call_site();
        assert_eq!(try_splice(&mut slot, e.clone()), Err(e));
        assert_eq!(slot, call_site(), "left alone");
    }

    #[test]
    fn tails_converted() {
        let mut supply = NameSupply::from_names(vec![]);
        let e = Expr::TailCall(Atom::Var(0), vec![]);
        let mut out = e;
        convert_tails(&mut out, &mut supply);
        assert!(matches!(out, Expr::Let(_, Bound::Call(..), _)));
    }
}

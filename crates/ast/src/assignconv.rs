//! Assignment conversion: eliminate `set!` on lexical variables.
//!
//! Rather than giving the compiler a private notion of mutable cells (which
//! would be representation knowledge), assigned variables are rewritten to
//! use the *library's* `box` / `unbox` / `set-box!` procedures — whose
//! representation is itself defined by rep types in the prelude.  After this
//! pass, [`Expr::SetVar`] no longer occurs, and every remaining lexical
//! variable is immutable (which the optimizer relies on for substitution).

use crate::core::{Expr, GlobalId, Program, VarId};
use std::collections::HashSet;

/// Rewrites all `set!` of lexical variables in `prog` into library box
/// operations.
///
/// # Errors
///
/// Returns an error if the program assigns a lexical variable but the
/// library procedures `box`, `unbox`, and `set-box!` are not defined.
///
/// # Example
///
/// ```
/// use sxr_ast::{convert_assignments, Expander};
/// use sxr_sexp::parse_all;
///
/// let mut ex = Expander::new();
/// for g in ["box", "unbox", "set-box!"] { ex.declare_global(g); }
/// let unit = ex
///     .expand_unit(&parse_all("(lambda (x) (set! x 1) x)").unwrap())
///     .unwrap();
/// let mut prog = ex.into_program(vec![unit]);
/// convert_assignments(&mut prog).unwrap();
/// ```
pub fn convert_assignments(prog: &mut Program) -> Result<(), String> {
    let mut assigned = HashSet::new();
    for item in &prog.items {
        collect_assigned(item_expr(item), &mut assigned);
    }
    if assigned.is_empty() {
        return Ok(());
    }
    let need = |name: &str| {
        prog.global_by_name(name)
            .ok_or_else(|| format!("assignment conversion requires library procedure `{name}`"))
    };
    let ctx = Ctx {
        boxg: need("box")?,
        unboxg: need("unbox")?,
        setboxg: need("set-box!")?,
    };
    let mut var_names = std::mem::take(&mut prog.var_names);
    for item in &mut prog.items {
        let e = std::mem::replace(item_expr_mut(item), Expr::Unspecified);
        *item_expr_mut(item) = rewrite(e, &assigned, &ctx, &mut var_names);
    }
    prog.var_names = var_names;
    Ok(())
}

struct Ctx {
    boxg: GlobalId,
    unboxg: GlobalId,
    setboxg: GlobalId,
}

fn item_expr(item: &crate::core::TopItem) -> &Expr {
    match item {
        crate::core::TopItem::Def(_, e) | crate::core::TopItem::Expr(e) => e,
    }
}

fn item_expr_mut(item: &mut crate::core::TopItem) -> &mut Expr {
    match item {
        crate::core::TopItem::Def(_, e) | crate::core::TopItem::Expr(e) => e,
    }
}

/// Adds to `out` every lexical variable `e` assigns with `set!`.
pub(crate) fn collect_assigned(e: &Expr, out: &mut HashSet<VarId>) {
    if let Expr::SetVar(v, _) = e {
        out.insert(*v);
    }
    e.for_each_child(|c| collect_assigned(c, out));
}

fn rewrite(e: Expr, assigned: &HashSet<VarId>, ctx: &Ctx, var_names: &mut Vec<String>) -> Expr {
    match e {
        Expr::Var(v) if assigned.contains(&v) => {
            Expr::Call(Box::new(Expr::Global(ctx.unboxg)), vec![Expr::Var(v)])
        }
        Expr::SetVar(v, inner) => {
            debug_assert!(assigned.contains(&v), "collected all assignments");
            let inner = rewrite(*inner, assigned, ctx, var_names);
            Expr::Call(
                Box::new(Expr::Global(ctx.setboxg)),
                vec![Expr::Var(v), inner],
            )
        }
        Expr::Var(_) | Expr::Const(_) | Expr::Unspecified | Expr::Global(_) => e,
        Expr::If(a, b, c) => Expr::If(
            Box::new(rewrite(*a, assigned, ctx, var_names)),
            Box::new(rewrite(*b, assigned, ctx, var_names)),
            Box::new(rewrite(*c, assigned, ctx, var_names)),
        ),
        Expr::Lambda(l) => Expr::Lambda(Box::new(rewrite_lambda(*l, assigned, ctx, var_names))),
        Expr::Call(f, args) => Expr::Call(
            Box::new(rewrite(*f, assigned, ctx, var_names)),
            args.into_iter()
                .map(|a| rewrite(a, assigned, ctx, var_names))
                .collect(),
        ),
        Expr::Prim(n, args) => Expr::Prim(
            n,
            args.into_iter()
                .map(|a| rewrite(a, assigned, ctx, var_names))
                .collect(),
        ),
        Expr::Seq(es) => Expr::Seq(
            es.into_iter()
                .map(|a| rewrite(a, assigned, ctx, var_names))
                .collect(),
        ),
        Expr::SetGlobal(g, inner) => {
            Expr::SetGlobal(g, Box::new(rewrite(*inner, assigned, ctx, var_names)))
        }
        Expr::LetRec(binds, body) => Expr::LetRec(
            binds
                .into_iter()
                .map(|(v, l)| (v, rewrite_lambda(l, assigned, ctx, var_names)))
                .collect(),
            Box::new(rewrite(*body, assigned, ctx, var_names)),
        ),
    }
}

/// Rewrites a lambda, re-binding assigned parameters to boxes:
/// `(lambda (x) ...)` with assigned `x` becomes
/// `(lambda (x') (let ((x (box x'))) ...))`.
fn rewrite_lambda(
    mut l: crate::core::Lambda,
    assigned: &HashSet<VarId>,
    ctx: &Ctx,
    var_names: &mut Vec<String>,
) -> crate::core::Lambda {
    let mut body = rewrite(l.body, assigned, ctx, var_names);
    for p in l.params.iter_mut().chain(l.rest.iter_mut()) {
        if assigned.contains(p) {
            let raw = var_names.len() as VarId;
            var_names.push(format!("{}-raw", var_names[*p as usize]));
            let boxed = Expr::Call(Box::new(Expr::Global(ctx.boxg)), vec![Expr::Var(raw)]);
            body = Expr::let1(*p, None, boxed, body);
            *p = raw;
        }
    }
    l.body = body;
    l
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::TopItem;
    use crate::Expander;
    use sxr_sexp::parse_all;

    fn convert(src: &str) -> Program {
        let mut ex = Expander::new();
        for g in ["box", "unbox", "set-box!", "fx+"] {
            ex.declare_global(g);
        }
        let unit = ex.expand_unit(&parse_all(src).unwrap()).unwrap();
        let mut prog = ex.into_program(vec![unit]);
        convert_assignments(&mut prog).unwrap();
        prog
    }

    fn no_setvar(e: &Expr) -> bool {
        match e {
            Expr::SetVar(..) => false,
            Expr::Const(_) | Expr::Unspecified | Expr::Var(_) | Expr::Global(_) => true,
            Expr::If(a, b, c) => no_setvar(a) && no_setvar(b) && no_setvar(c),
            Expr::Lambda(l) => no_setvar(&l.body),
            Expr::Call(f, args) => no_setvar(f) && args.iter().all(no_setvar),
            Expr::Prim(_, args) => args.iter().all(no_setvar),
            Expr::Seq(es) => es.iter().all(no_setvar),
            Expr::SetGlobal(_, inner) => no_setvar(inner),
            Expr::LetRec(binds, body) => {
                binds.iter().all(|(_, l)| no_setvar(&l.body)) && no_setvar(body)
            }
        }
    }

    #[test]
    fn removes_all_setvar() {
        let p = convert("(lambda (x) (set! x (fx+ x 1)) x)");
        for item in &p.items {
            match item {
                TopItem::Def(_, e) | TopItem::Expr(e) => assert!(no_setvar(e)),
            }
        }
    }

    #[test]
    fn unassigned_programs_untouched() {
        let p1 = convert("(lambda (x) x)");
        let TopItem::Expr(Expr::Lambda(l)) = &p1.items[0] else {
            panic!()
        };
        assert_eq!(l.body, Expr::Var(l.params[0]));
    }

    #[test]
    fn param_rebinding_structure() {
        let p = convert("(lambda (x) (set! x 1))");
        let TopItem::Expr(Expr::Lambda(l)) = &p.items[0] else {
            panic!()
        };
        // body is ((lambda (x) (set-box! x 1)) (box x'))
        match &l.body {
            Expr::Call(inner, args) => {
                assert!(matches!(**inner, Expr::Lambda(_)));
                match &args[0] {
                    Expr::Call(f, bargs) => {
                        assert!(matches!(**f, Expr::Global(_)));
                        assert_eq!(bargs[0], Expr::Var(l.params[0]));
                    }
                    other => panic!("expected (box x'), got {other:?}"),
                }
            }
            other => panic!("expected wrapped body, got {other:?}"),
        }
    }

    #[test]
    fn missing_library_is_error() {
        let mut ex = Expander::new();
        let unit = ex
            .expand_unit(&parse_all("(lambda (x) (set! x 1))").unwrap())
            .unwrap();
        let mut prog = ex.into_program(vec![unit]);
        let err = convert_assignments(&mut prog).unwrap_err();
        assert!(err.contains("box"));
    }

    #[test]
    fn global_set_untouched() {
        let p = convert("(define g 1) (set! g 2)");
        assert!(matches!(p.items[1], TopItem::Expr(Expr::SetGlobal(..))));
    }
}

//! Human-readable printing of the IR, for tests, debugging and the
//! excerpts in IR validation errors.

use crate::anf::{Atom, Bound, Expr, FunDef, Literal, Test, VarId};
use std::fmt::Write as _;

/// Renders one expression.
pub fn expr_to_string(e: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, e, 0);
    out
}

fn atom(a: &Atom) -> String {
    match a {
        Atom::Var(v) => format!("v{v}"),
        Atom::Lit(Literal::Datum(d)) => format!("'{d}"),
        Atom::Lit(Literal::Unspecified) => "#unspecified".to_string(),
        Atom::Lit(Literal::Rep(r)) => format!("#rep{r}"),
        Atom::Lit(Literal::Raw(w)) => format!("#raw{w}"),
    }
}

fn atoms(list: &[Atom]) -> String {
    list.iter().map(atom).collect::<Vec<_>>().join(" ")
}

fn test(t: &Test) -> String {
    match t {
        Test::Truthy(a) => format!("(truthy {})", atom(a)),
        Test::NonZero(a) => format!("(nonzero {})", atom(a)),
    }
}

fn params(l: &FunDef) -> String {
    l.params
        .iter()
        .map(|p| format!("v{p}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Writes `e` one spine node per pass of the loop; only nested bodies and
/// arms recurse.
fn write_expr(out: &mut String, mut e: &Expr, mut indent: usize) {
    // The pad of each `letrec` passed on the spine: its `)` follows the tail.
    let mut closers = Vec::new();
    loop {
        let pad = "  ".repeat(indent);
        match e {
            Expr::Let(v, b, body) => {
                write_let(out, *v, b, &pad, indent);
                e = body;
            }
            Expr::LetRec(binds, body) => {
                let _ = writeln!(out, "{pad}(letrec");
                for (v, l) in binds {
                    let _ = writeln!(out, "{pad}  (v{v} (lambda ({})", params(l));
                    write_expr(out, &l.body, indent + 2);
                    let _ = writeln!(out, "{pad}  ))");
                }
                closers.push(pad);
                indent += 1;
                e = body;
            }
            Expr::If(t, then, els) => {
                let _ = writeln!(out, "{pad}(if {}", test(t));
                write_expr(out, then, indent + 1);
                write_expr(out, els, indent + 1);
                let _ = writeln!(out, "{pad})");
                break;
            }
            Expr::Ret(a) => {
                let _ = writeln!(out, "{pad}(ret {})", atom(a));
                break;
            }
            Expr::TailCall(f, args) => {
                let _ = writeln!(out, "{pad}(tail-call {} {})", atom(f), atoms(args));
                break;
            }
            Expr::TailCallKnown(fid, clo, args) => {
                let _ = writeln!(
                    out,
                    "{pad}(tail-call-known f{fid} {} {})",
                    atom(clo),
                    atoms(args)
                );
                break;
            }
        }
    }
    for pad in closers.iter().rev() {
        let _ = writeln!(out, "{pad})");
    }
}

fn write_let(out: &mut String, v: VarId, b: &Bound, pad: &str, indent: usize) {
    match b {
        Bound::Atom(a) => {
            let _ = writeln!(out, "{pad}(let v{v} {})", atom(a));
        }
        Bound::Prim(op, args) => {
            let _ = writeln!(out, "{pad}(let v{v} ({op} {}))", atoms(args));
        }
        Bound::Call(f, args) => {
            let _ = writeln!(out, "{pad}(let v{v} (call {} {}))", atom(f), atoms(args));
        }
        Bound::CallKnown(fid, clo, args) => {
            let _ = writeln!(
                out,
                "{pad}(let v{v} (call-known f{fid} {} {}))",
                atom(clo),
                atoms(args)
            );
        }
        Bound::GlobalGet(g) => {
            let _ = writeln!(out, "{pad}(let v{v} (global {g}))");
        }
        Bound::GlobalSet(g, a) => {
            let _ = writeln!(out, "{pad}(let v{v} (global-set! {g} {}))", atom(a));
        }
        Bound::Lambda(l) => {
            let _ = writeln!(out, "{pad}(let v{v} (lambda ({})", params(l));
            write_expr(out, &l.body, indent + 1);
            let _ = writeln!(out, "{pad}))");
        }
        Bound::MakeClosure(fid, frees) => {
            let _ = writeln!(out, "{pad}(let v{v} (closure f{fid} {}))", atoms(frees));
        }
        Bound::ClosureRef(i) => {
            let _ = writeln!(out, "{pad}(let v{v} (closure-ref {i}))");
        }
        Bound::ClosurePatch(c, i, x) => {
            let _ = writeln!(
                out,
                "{pad}(let v{v} (closure-patch! {} {i} {}))",
                atom(c),
                atom(x)
            );
        }
        Bound::If(t, then, els) => {
            let _ = writeln!(out, "{pad}(let v{v} (if {}", test(t));
            write_expr(out, then, indent + 1);
            write_expr(out, els, indent + 1);
            let _ = writeln!(out, "{pad}))");
        }
        Bound::Body(e) => {
            let _ = writeln!(out, "{pad}(let v{v} (body");
            write_expr(out, e, indent + 1);
            let _ = writeln!(out, "{pad}))");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prim::PrimOp;

    #[test]
    fn renders_lets_and_ifs() {
        let e = Expr::Let(
            1,
            Bound::Prim(PrimOp::WordAdd, vec![Atom::raw(1), Atom::raw(2)]),
            Box::new(Expr::If(
                Test::NonZero(Atom::Var(1)),
                Box::new(Expr::Ret(Atom::Var(1))),
                Box::new(Expr::Ret(Atom::Lit(Literal::Unspecified))),
            )),
        );
        let s = expr_to_string(&e);
        assert!(s.contains("(let v1 (%word+ #raw1 #raw2))"));
        assert!(s.contains("(if (nonzero v1)"));
        assert!(s.contains("(ret #unspecified)"));
    }

    #[test]
    fn letrec_bodies_nest_and_close_after_the_tail() {
        let f = FunDef {
            params: vec![3],
            rest: None,
            body: Box::new(Expr::Ret(Atom::Var(3))),
            name: None,
        };
        let e = Expr::LetRec(
            vec![(2, f)],
            Box::new(Expr::Let(
                4,
                Bound::GlobalGet(0),
                Box::new(Expr::TailCall(Atom::Var(2), vec![Atom::Var(4)])),
            )),
        );
        let want = "(letrec\n  (v2 (lambda (v3)\n    (ret v3)\n  ))\n  (let v4 (global 0))\n  \
                    (tail-call v2 v4)\n)\n";
        assert_eq!(expr_to_string(&e), want);
    }
}

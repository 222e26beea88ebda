//! Lowering: front-end core language → ANF.

use crate::anf::{Atom, Bound, Expr, FunDef, Link, Literal, NameSupply, Test};
use crate::prim::PrimOp;
use std::fmt;
use sxr_ast as ast;

/// An error discovered while lowering (unknown sub-primitive, bad arity, or
/// an internal invariant violation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError(pub String);

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lowering error: {}", self.0)
    }
}

impl std::error::Error for LowerError {}

/// The result of lowering a whole program: the body of the entry function
/// plus the tables the rest of the pipeline needs.
#[derive(Debug)]
pub struct Lowered {
    /// Entry-function body (still contains nested lambdas).
    pub main_body: Expr,
    /// Fresh-variable supply, seeded with the front end's names.
    pub supply: NameSupply,
    /// Global-slot names.
    pub global_names: Vec<String>,
}

/// Lowers a front-end [`ast::Program`] into ANF.
///
/// The program value is the value of its last top-level expression (or
/// unspecified). Assignment conversion must already have run.
///
/// Library procedures that the program does not reach are dropped first,
/// so no later stage sees them.
///
/// # Errors
///
/// Returns [`LowerError`] on unknown sub-primitives, sub-primitive arity
/// mismatches, or leftover `set!` of lexical variables.
pub fn lower_program(mut prog: ast::Program) -> Result<Lowered, LowerError> {
    drop_unreached_library_procedures(&mut prog);
    let mut lw = Lowerer {
        supply: NameSupply::from_names(prog.var_names),
    };
    // Fold items right-to-left so the last expression's value becomes the
    // program result.
    let mut tail: Option<Expr> = None;
    let mut steps_rev: Vec<Vec<Link>> = Vec::new();
    for item in prog.items.iter().rev() {
        match item {
            ast::TopItem::Expr(e) if tail.is_none() => {
                let (steps, atom) = lw.atom(e)?;
                tail = Some(Expr::from_spine(steps, Expr::Ret(atom)));
            }
            ast::TopItem::Expr(e) => {
                let (steps, _ignored) = lw.atom(e)?;
                steps_rev.push(steps);
            }
            ast::TopItem::Def(g, e) => {
                let (mut steps, atom) = lw.atom(e)?;
                let t = lw.supply.fresh("set-global");
                steps.push(Link::Let(t, Bound::GlobalSet(*g, atom)));
                steps_rev.push(steps);
            }
        }
    }
    let mut body = tail.unwrap_or(Expr::Ret(Atom::Lit(Literal::Unspecified)));
    for steps in steps_rev {
        body = Expr::from_spine(steps, body);
    }
    Ok(Lowered {
        main_body: body,
        supply: lw.supply,
        global_names: prog.global_names,
    })
}

/// Drops each library item `(define g (lambda ...))` whose global `g` no
/// kept code reads, the way a linker drops unreferenced library members.
///
/// Every other item is a root: top-level expressions, definitions whose
/// init may have effects (rep-type construction, `%provide-rep!`), and the
/// user's unit, from [`ast::Program::user_start`] on. Only an
/// [`ast::Expr::Global`] reads; a `set!` of a global writes. Evaluating a
/// lambda has no effect, so behaviour and global numbering are unchanged.
fn drop_unreached_library_procedures(prog: &mut ast::Program) {
    let mut defs: Vec<Vec<usize>> = vec![Vec::new(); prog.global_names.len()];
    let mut kept = vec![false; prog.items.len()];
    let mut work = Vec::new();
    for (i, item) in prog.items.iter().enumerate() {
        match item {
            ast::TopItem::Def(g, ast::Expr::Lambda(_)) if i < prog.user_start => {
                defs[*g as usize].push(i);
            }
            _ => {
                kept[i] = true;
                work.push(i);
            }
        }
    }
    let mut exprs = Vec::new();
    while let Some(i) = work.pop() {
        let (ast::TopItem::Def(_, e) | ast::TopItem::Expr(e)) = &prog.items[i];
        exprs.push(e);
        while let Some(e) = exprs.pop() {
            if let ast::Expr::Global(g) = e {
                for d in defs[*g as usize].drain(..) {
                    kept[d] = true;
                    work.push(d);
                }
            }
            e.for_each_child(|c| exprs.push(c));
        }
    }
    let mut kept = kept.into_iter();
    prog.items.retain(|_| kept.next() == Some(true));
}

/// Lowers a single expression for tests and tools: returns a function body
/// returning the expression's value.
///
/// # Errors
///
/// Same failure modes as [`lower_program`].
pub fn lower_expr(e: &ast::Expr, supply: &mut NameSupply) -> Result<Expr, LowerError> {
    let mut lw = Lowerer {
        supply: std::mem::take(supply),
    };
    let result = lw.tail(e);
    *supply = lw.supply;
    result
}

struct Lowerer {
    supply: NameSupply,
}

impl Lowerer {
    /// Lowers `e` to a sequence of binding steps plus the value atom.
    fn atom(&mut self, e: &ast::Expr) -> Result<(Vec<Link>, Atom), LowerError> {
        let mut steps = Vec::new();
        let atom = self.atom_into(e, &mut steps)?;
        Ok((steps, atom))
    }

    fn bind(&mut self, hint: &str, b: Bound, steps: &mut Vec<Link>) -> Atom {
        let v = self.supply.fresh(hint);
        steps.push(Link::Let(v, b));
        Atom::Var(v)
    }

    fn atom_into(&mut self, e: &ast::Expr, steps: &mut Vec<Link>) -> Result<Atom, LowerError> {
        match e {
            ast::Expr::Const(d) => Ok(Atom::Lit(Literal::Datum(d.clone()))),
            ast::Expr::Unspecified => Ok(Atom::Lit(Literal::Unspecified)),
            ast::Expr::Var(v) => Ok(Atom::Var(*v)),
            ast::Expr::Global(g) => Ok(self.bind("g", Bound::GlobalGet(*g), steps)),
            ast::Expr::If(c, t, els) => {
                let ca = self.atom_into(c, steps)?;
                let then_e = self.ret_style(t)?;
                let else_e = self.ret_style(els)?;
                Ok(self.bind(
                    "if-v",
                    Bound::If(Test::Truthy(ca), Box::new(then_e), Box::new(else_e)),
                    steps,
                ))
            }
            ast::Expr::Lambda(l) => {
                let fun = self.fundef(l)?;
                Ok(self.bind(
                    l.name.as_deref().unwrap_or("lambda"),
                    Bound::Lambda(fun),
                    steps,
                ))
            }
            ast::Expr::Call(f, args) => {
                let fa = self.atom_into(f, steps)?;
                let argatoms = args
                    .iter()
                    .map(|a| self.atom_into(a, steps))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(self.bind("call", Bound::Call(fa, argatoms), steps))
            }
            ast::Expr::Prim(name, args) => {
                let op = self.resolve_prim(name, args.len())?;
                let argatoms = args
                    .iter()
                    .map(|a| self.atom_into(a, steps))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(self.bind("prim", Bound::Prim(op, argatoms), steps))
            }
            ast::Expr::Seq(es) => {
                let (last, init) = es.split_last().ok_or_else(|| {
                    LowerError("internal: empty sequence survived expansion".to_string())
                })?;
                for e in init {
                    let _ = self.atom_into(e, steps)?;
                }
                self.atom_into(last, steps)
            }
            ast::Expr::SetVar(..) => Err(LowerError(
                "internal: set! of a lexical variable survived assignment conversion".to_string(),
            )),
            ast::Expr::SetGlobal(g, inner) => {
                let a = self.atom_into(inner, steps)?;
                let _ = self.bind("set-global", Bound::GlobalSet(*g, a), steps);
                Ok(Atom::Lit(Literal::Unspecified))
            }
            ast::Expr::LetRec(binds, body) => {
                let funs = binds
                    .iter()
                    .map(|(v, l)| Ok((*v, self.fundef(l)?)))
                    .collect::<Result<Vec<_>, LowerError>>()?;
                steps.push(Link::LetRec(funs));
                self.atom_into(body, steps)
            }
        }
    }

    /// Lowers `e` so the result expression ends in `Ret` (never a tail
    /// call) — the shape required inside `Bound::If` branches.
    fn ret_style(&mut self, e: &ast::Expr) -> Result<Expr, LowerError> {
        match e {
            ast::Expr::If(c, t, els) => {
                let mut steps = Vec::new();
                let ca = self.atom_into(c, &mut steps)?;
                let then_e = self.ret_style(t)?;
                let else_e = self.ret_style(els)?;
                Ok(Expr::from_spine(
                    steps,
                    Expr::If(Test::Truthy(ca), Box::new(then_e), Box::new(else_e)),
                ))
            }
            ast::Expr::Seq(es) => {
                let (last, init) = es.split_last().ok_or_else(|| {
                    LowerError("internal: empty sequence survived expansion".to_string())
                })?;
                let mut steps = Vec::new();
                for e in init {
                    let _ = self.atom_into(e, &mut steps)?;
                }
                let last_e = self.ret_style(last)?;
                Ok(Expr::from_spine(steps, last_e))
            }
            _ => {
                let (steps, atom) = self.atom(e)?;
                Ok(Expr::from_spine(steps, Expr::Ret(atom)))
            }
        }
    }

    /// Lowers `e` in tail position.
    fn tail(&mut self, e: &ast::Expr) -> Result<Expr, LowerError> {
        match e {
            ast::Expr::Call(f, args) => {
                let mut steps = Vec::new();
                let fa = self.atom_into(f, &mut steps)?;
                let argatoms = args
                    .iter()
                    .map(|a| self.atom_into(a, &mut steps))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Expr::from_spine(steps, Expr::TailCall(fa, argatoms)))
            }
            ast::Expr::If(c, t, els) => {
                let mut steps = Vec::new();
                let ca = self.atom_into(c, &mut steps)?;
                let then_e = self.tail(t)?;
                let else_e = self.tail(els)?;
                Ok(Expr::from_spine(
                    steps,
                    Expr::If(Test::Truthy(ca), Box::new(then_e), Box::new(else_e)),
                ))
            }
            ast::Expr::Seq(es) => {
                let (last, init) = es.split_last().ok_or_else(|| {
                    LowerError("internal: empty sequence survived expansion".to_string())
                })?;
                let mut steps = Vec::new();
                for e in init {
                    let _ = self.atom_into(e, &mut steps)?;
                }
                let last_e = self.tail(last)?;
                Ok(Expr::from_spine(steps, last_e))
            }
            ast::Expr::LetRec(binds, body) => {
                let funs = binds
                    .iter()
                    .map(|(v, l)| Ok((*v, self.fundef(l)?)))
                    .collect::<Result<Vec<_>, LowerError>>()?;
                Ok(Expr::LetRec(funs, Box::new(self.tail(body)?)))
            }
            _ => {
                let (steps, atom) = self.atom(e)?;
                Ok(Expr::from_spine(steps, Expr::Ret(atom)))
            }
        }
    }

    fn fundef(&mut self, l: &ast::Lambda) -> Result<FunDef, LowerError> {
        let body = self.tail(&l.body)?;
        Ok(FunDef {
            params: l.params.clone(),
            rest: l.rest,
            body: Box::new(body),
            name: l.name.clone(),
        })
    }

    fn resolve_prim(&self, name: &str, nargs: usize) -> Result<PrimOp, LowerError> {
        let op = PrimOp::from_name(name)
            .ok_or_else(|| LowerError(format!("unknown sub-primitive `%{name}`")))?;
        if op.arity() != nargs {
            return Err(LowerError(format!(
                "sub-primitive `%{name}` takes {} arguments, got {nargs}",
                op.arity()
            )));
        }
        Ok(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxr_ast::{convert_assignments, Expander};
    use sxr_sexp::parse_all;

    fn lower_src(src: &str) -> Lowered {
        let mut ex = Expander::new();
        for g in [
            "box",
            "unbox",
            "set-box!",
            "cons",
            "append",
            "eqv?",
            "list->vector",
            "f",
            "g",
        ] {
            ex.declare_global(g);
        }
        let unit = ex.expand_unit(&parse_all(src).unwrap()).unwrap();
        let mut prog = ex.into_program(vec![unit]);
        convert_assignments(&mut prog).unwrap();
        lower_program(prog).unwrap()
    }

    #[test]
    fn library_procedures_no_kept_code_reads_are_dropped() {
        let mut ex = Expander::new();
        let mut unit = |src| ex.expand_unit(&parse_all(src).unwrap()).unwrap();
        let lib = unit(
            "(define (f) 1) (define (g) (f)) (define (unused) (g))
             (define (h) 2) (define x (h))",
        );
        let user = unit("(set! unused 0) (g)");
        let prog = ex.into_program(vec![lib, user]);
        let unused = prog.global_by_name("unused").unwrap();
        let mut sets = Vec::new();
        let mut e = &lower_program(prog).unwrap().main_body;
        while let Expr::Let(_, b, rest) = e {
            if let Bound::GlobalSet(g, _) = b {
                sets.push(*g);
            }
            e = rest;
        }
        // `f` is reached through `g`, `h` through the non-lambda `x`; the
        // user's `set!` of `unused` is its only remaining store.
        assert_eq!(sets.len(), 5, "{sets:?}");
        assert_eq!(sets.iter().filter(|&&g| g == unused).count(), 1);
    }

    #[test]
    fn constant_program() {
        let l = lower_src("42");
        assert!(matches!(
            l.main_body,
            Expr::Ret(Atom::Lit(Literal::Datum(_)))
        ));
    }

    #[test]
    fn define_then_use() {
        let l = lower_src("(define x 1) x");
        // set-global x, then read it back, then return.
        let Expr::Let(_, Bound::GlobalSet(..), rest) = &l.main_body else {
            panic!("expected global-set first, got {:?}", l.main_body)
        };
        let Expr::Let(v, Bound::GlobalGet(_), ret) = &**rest else {
            panic!()
        };
        assert_eq!(**ret, Expr::Ret(Atom::Var(*v)));
    }

    #[test]
    fn call_is_anf() {
        let l = lower_src("(f (g 1))");
        // g fetched, called, then f fetched... order: f's global-get comes first
        // (operator lowered before operands).
        let mut calls = 0;
        fn count_calls(e: &Expr, n: &mut usize) {
            if let Expr::Let(_, b, body) = e {
                if matches!(b, Bound::Call(..)) {
                    *n += 1;
                }
                if let Bound::If(_, t, e2) = b {
                    count_calls(t, n);
                    count_calls(e2, n);
                }
                count_calls(body, n);
            } else if let Expr::TailCall(..) = e {
                *n += 1;
            } else if let Expr::If(_, t, e2) = e {
                count_calls(t, n);
                count_calls(e2, n);
            }
        }
        count_calls(&l.main_body, &mut calls);
        assert_eq!(calls, 2);
    }

    #[test]
    fn lambda_tail_call() {
        let l = lower_src("(define (h x) (f x))");
        let Expr::Let(_, Bound::Lambda(fun), _) = &l.main_body else {
            panic!()
        };
        // body: let g = global f in tailcall g(x)
        let Expr::Let(_, Bound::GlobalGet(_), inner) = &*fun.body else {
            panic!()
        };
        assert!(matches!(**inner, Expr::TailCall(..)));
    }

    #[test]
    fn nontail_if_binds_value() {
        let l = lower_src("(f (if #t 1 2))");
        fn find_bound_if(e: &Expr) -> bool {
            match e {
                Expr::Let(_, Bound::If(..), _) => true,
                Expr::Let(_, _, body) => find_bound_if(body),
                _ => false,
            }
        }
        assert!(find_bound_if(&l.main_body));
    }

    #[test]
    fn branches_of_bound_if_end_in_ret() {
        let l = lower_src("(f (if #t (g 1) 2))");
        fn check(e: &Expr) {
            if let Expr::Let(_, Bound::If(_, t, els), body) = e {
                fn ends_in_ret(e: &Expr) -> bool {
                    match e {
                        Expr::Ret(_) => true,
                        Expr::Let(_, _, b) => ends_in_ret(b),
                        Expr::If(_, a, b) => ends_in_ret(a) && ends_in_ret(b),
                        _ => false,
                    }
                }
                assert!(ends_in_ret(t), "then branch must end in ret");
                assert!(ends_in_ret(els));
                check(body);
            } else if let Expr::Let(_, _, body) = e {
                check(body);
            }
        }
        check(&l.main_body);
    }

    #[test]
    fn prim_resolution_and_arity() {
        let l = lower_src("(%word+ 1 2)");
        assert!(matches!(
            l.main_body,
            Expr::Let(_, Bound::Prim(PrimOp::WordAdd, _), _)
        ));
        // bad arity
        let mut ex = Expander::new();
        let unit = ex.expand_unit(&parse_all("(%word+ 1)").unwrap()).unwrap();
        let prog = ex.into_program(vec![unit]);
        let err = lower_program(prog).unwrap_err();
        assert!(err.0.contains("takes 2 arguments"));
        // unknown prim
        let mut ex = Expander::new();
        let unit = ex.expand_unit(&parse_all("(%bogus 1)").unwrap()).unwrap();
        let prog = ex.into_program(vec![unit]);
        assert!(lower_program(prog)
            .unwrap_err()
            .0
            .contains("unknown sub-primitive"));
    }

    #[test]
    fn letrec_lowers_to_rec() {
        let l = lower_src("(let loop ((i 0)) (if (%word=? i 10) i (loop (%word+ i 1))))");
        assert!(matches!(l.main_body, Expr::LetRec(..)));
    }

    #[test]
    fn set_global_value_is_unspecified() {
        let l = lower_src("(define x 1) (f (set! x 2))");
        // The call's second argument (after the closure) is the unspecified literal.
        fn find_call(e: &Expr) -> Option<&Vec<Atom>> {
            match e {
                Expr::Let(_, Bound::Call(_, args), _) => Some(args),
                Expr::TailCall(_, args) => Some(args),
                Expr::Let(_, _, b) => find_call(b),
                _ => None,
            }
        }
        let args = find_call(&l.main_body).expect("call present");
        assert_eq!(args[0], Atom::Lit(Literal::Unspecified));
    }

    #[test]
    fn program_value_is_last_expression() {
        let l = lower_src("1 2 3");
        fn final_ret(e: &Expr) -> &Expr {
            match e {
                Expr::Let(_, _, b) => final_ret(b),
                other => other,
            }
        }
        match final_ret(&l.main_body) {
            Expr::Ret(Atom::Lit(Literal::Datum(d))) => assert_eq!(d.to_string(), "3"),
            other => panic!("expected ret of 3, got {other:?}"),
        }
    }
}

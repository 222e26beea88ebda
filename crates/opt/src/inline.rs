//! Procedure inlining — the first of the paper's "generally-useful
//! transformations", and the one that exposes everything else: once `car`'s
//! body is at the call site, constant propagation can see the rep type,
//! specialization can see the constant, and the algebraic passes can cancel
//! the tag traffic.

use crate::globals::GlobalFun;
use crate::util::{convert_tails, try_splice};
use std::rc::Rc;
use sxr_ir::anf::{refresh, substitute, Atom, Bound, Expr, FunDef, GlobalId, NameSupply, VarId};
use sxr_ir::IdMap;

/// Safety valve on total inlines per pass run.
const MAX_PER_ROUND: usize = 20_000;

/// What one inlining pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InlineReport {
    /// Call sites inlined.
    pub inlined: usize,
    /// Expression nodes walked: a deterministic measure of the pass's
    /// work, linear in the size of its input and output.
    pub visits: usize,
}

/// Runs one inlining pass, inlining callees of at most `threshold` IR
/// nodes. Returns the rewritten program and what the pass did.
pub fn inline(
    e: Expr,
    globals: &IdMap<GlobalId, GlobalFun>,
    supply: &mut NameSupply,
    threshold: usize,
) -> (Expr, InlineReport) {
    let mut st = Inliner {
        globals,
        supply,
        env: IdMap::default(),
        threshold,
        report: InlineReport::default(),
    };
    let out = st.walk(e);
    (out, st.report)
}

struct Inliner<'a> {
    globals: &'a IdMap<GlobalId, GlobalFun>,
    supply: &'a mut NameSupply,
    /// Variables statically bound to a known function definition.
    env: IdMap<VarId, Rc<FunDef>>,
    /// Maximum callee body size (IR nodes) to inline.
    threshold: usize,
    report: InlineReport,
}

impl Inliner<'_> {
    fn candidate(&self, f: &Atom, nargs: usize) -> Option<Rc<FunDef>> {
        if self.report.inlined >= MAX_PER_ROUND {
            return None;
        }
        let v = f.as_var()?;
        let def = self.env.get(&v)?;
        if def.rest.is_some() {
            return None; // variadic: the machine builds the rest list
        }
        if def.params.len() != nargs {
            return None; // leave the arity error for run time
        }
        if def.body.size_exceeds(self.threshold) {
            return None;
        }
        Some(Rc::clone(def))
    }

    /// Produces the refreshed, argument-substituted body of `def`.
    fn instantiate(&mut self, def: &FunDef, args: &[Atom]) -> Expr {
        let mut body = refresh(&def.body, self.supply);
        // `refresh` renames bound variables but leaves the (free) parameters
        // alone, so params can be substituted directly.
        let map: IdMap<VarId, Atom> = def
            .params
            .iter()
            .copied()
            .zip(args.iter().cloned())
            .collect();
        substitute(&mut body, &map);
        self.report.inlined += 1;
        body
    }

    fn walk(&mut self, e: Expr) -> Expr {
        self.report.visits += 1;
        match e {
            Expr::Let(v, Bound::Lambda(mut f), body) => {
                f.body = Box::new(self.walk(*f.body));
                // A body over the threshold can never be a candidate.
                if !f.body.size_exceeds(self.threshold) {
                    self.env.insert(v, Rc::new(f.clone()));
                }
                Expr::Let(v, Bound::Lambda(f), Box::new(self.walk(*body)))
            }
            Expr::Let(v, Bound::GlobalGet(g), body) => {
                if let Some(GlobalFun { def: Some(def), .. }) = self.globals.get(&g) {
                    self.env.insert(v, Rc::clone(def));
                }
                Expr::Let(v, Bound::GlobalGet(g), Box::new(self.walk(*body)))
            }
            Expr::Let(v, Bound::Call(f, args), body) => {
                if let Some(def) = self.candidate(&f, args.len()) {
                    let inlined = self.instantiate(&def, &args);
                    // The callee body may itself contain inlinable calls
                    // (wrappers over wrappers): walk it on its own first,
                    // so the remainder is walked once, in the grafted code,
                    // where the spliced `let v = a` registers `v` when `a`
                    // is a known function.
                    let inlined = convert_tails(inlined, self.supply);
                    let inlined = self.walk(inlined);
                    let grafted = match try_splice(inlined, v, *body) {
                        Ok(spliced) => spliced,
                        Err((inlined, rest)) => {
                            Expr::Let(v, Bound::Body(Box::new(inlined)), Box::new(rest))
                        }
                    };
                    return self.walk(grafted);
                }
                Expr::Let(v, Bound::Call(f, args), Box::new(self.walk(*body)))
            }
            Expr::TailCall(f, args) => {
                if let Some(def) = self.candidate(&f, args.len()) {
                    let inlined = self.instantiate(&def, &args);
                    return self.walk(inlined);
                }
                Expr::TailCall(f, args)
            }
            Expr::Let(v, Bound::If(t, a, b), body) => {
                let a = Box::new(self.walk(*a));
                let b = Box::new(self.walk(*b));
                Expr::Let(v, Bound::If(t, a, b), Box::new(self.walk(*body)))
            }
            Expr::Let(v, Bound::Body(inner), body) => {
                let inner = Box::new(self.walk(*inner));
                Expr::Let(v, Bound::Body(inner), Box::new(self.walk(*body)))
            }
            Expr::Let(v, Bound::Atom(a), body) => {
                // Copies of known functions remain known.
                if let Some(def) = a.as_var().and_then(|w| self.env.get(&w)).cloned() {
                    self.env.insert(v, def);
                }
                Expr::Let(v, Bound::Atom(a), Box::new(self.walk(*body)))
            }
            Expr::Let(v, b, body) => Expr::Let(v, b, Box::new(self.walk(*body))),
            Expr::If(t, a, b) => Expr::If(t, Box::new(self.walk(*a)), Box::new(self.walk(*b))),
            Expr::LetRec(binds, body) => {
                // Letrec-bound functions are loop headers; leave their call
                // sites alone but optimize inside their bodies.
                let binds = binds
                    .into_iter()
                    .map(|(v, mut f)| {
                        f.body = Box::new(self.walk(*f.body));
                        (v, f)
                    })
                    .collect();
                Expr::LetRec(binds, Box::new(self.walk(*body)))
            }
            Expr::Ret(_) | Expr::TailCallKnown(..) => e,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::globals::analyze_globals;
    use sxr_ast::{convert_assignments, Expander};
    use sxr_ir::lower_program;
    use sxr_sexp::parse_all;

    fn run(src: &str) -> (Expr, usize) {
        let mut ex = Expander::new();
        let unit = ex.expand_unit(&parse_all(src).unwrap()).unwrap();
        let mut p = ex.into_program(vec![unit]);
        convert_assignments(&mut p).unwrap();
        let lowered = lower_program(p).unwrap();
        let threshold = crate::OptOptions::default().inline_threshold;
        let globals = analyze_globals(&lowered.main_body, &Default::default(), threshold);
        let mut supply = lowered.supply;
        let (e, report) = inline(lowered.main_body, &globals, &mut supply, threshold);
        (e, report.inlined)
    }

    fn count_calls(e: &Expr) -> usize {
        let mut n = 0;
        fn go(e: &Expr, n: &mut usize) {
            match e {
                Expr::Let(_, b, body) => {
                    match b {
                        Bound::Call(..) | Bound::CallKnown(..) => *n += 1,
                        Bound::If(_, t, e2) => {
                            go(t, n);
                            go(e2, n);
                        }
                        Bound::Body(inner) => go(inner, n),
                        Bound::Lambda(f) => go(&f.body, n),
                        _ => {}
                    }
                    go(body, n);
                }
                Expr::If(_, t, e2) => {
                    go(t, n);
                    go(e2, n);
                }
                Expr::TailCall(..) | Expr::TailCallKnown(..) => *n += 1,
                Expr::LetRec(binds, body) => {
                    for (_, f) in binds {
                        go(&f.body, n);
                    }
                    go(body, n);
                }
                Expr::Ret(_) => {}
            }
        }
        go(e, &mut n);
        n
    }

    #[test]
    fn inlines_global_wrapper() {
        let (e, n) = run("(define (add1 x) (%word+ x 8)) (add1 8)");
        assert_eq!(n, 1);
        assert_eq!(count_calls(&e), 0, "no residual calls");
    }

    #[test]
    fn inlines_through_wrapper_chains() {
        let (_, n) = run("(define (a x) (%word+ x 1))
             (define (b x) (a x))
             (define (c x) (b x))
             (c 5)");
        // c inlined at top, then b, then a (plus b/a bodies inlined inside
        // c's and b's own definitions).
        assert!(n >= 3, "expected chain inlining, got {n}");
    }

    #[test]
    fn recursive_global_not_inlined() {
        let (e, _) = run("(define (loop n) (loop n)) (loop 1)");
        assert!(count_calls(&e) >= 1, "recursive call survives");
    }

    #[test]
    fn branching_callee_uses_body() {
        let (e, n) = run("(define (abs x) (if (%word<? x 0) (%word- 0 x) x))
             (%word+ (abs -8) 0)");
        assert_eq!(n, 1);
        fn has_body(e: &Expr) -> bool {
            match e {
                Expr::Let(_, Bound::Body(_), _) => true,
                Expr::Let(_, Bound::If(_, t, e2), body) => {
                    has_body(t) || has_body(e2) || has_body(body)
                }
                Expr::Let(_, _, body) => has_body(body),
                Expr::If(_, t, e2) => has_body(t) || has_body(e2),
                _ => false,
            }
        }
        assert!(
            has_body(&e),
            "non-straight-line callee wrapped in Bound::Body"
        );
    }

    #[test]
    fn tail_call_site_splices_directly() {
        let (e, n) = run("(define (id x) x) (define (f y) (id y))");
        assert_eq!(n, 1);
        let _ = e;
    }

    #[test]
    fn arity_mismatch_left_for_runtime() {
        let (_, n) = run("(define (f x) x) (f 1 2)");
        assert_eq!(n, 0);
    }

    #[test]
    fn let_bound_lambda_inlined() {
        // Two inlines: `let` itself is an immediate lambda application, and
        // then the call to `f` inside it.
        let (e, n) = run("(let ((f (lambda (x) (%word+ x 8)))) (f 8))");
        assert_eq!(n, 2);
        // Residual calls remain only inside the (now dead) original lambda
        // bodies, which DCE removes later.
        let _ = e;
    }
}

//! Procedure inlining — the first of the paper's "generally-useful
//! transformations", and the one that exposes everything else: once `car`'s
//! body is at the call site, constant propagation can see the rep type,
//! specialization can see the constant, and the algebraic passes can cancel
//! the tag traffic.

use crate::globals::{DefCache, GlobalFun};
use crate::util::{convert_tails, try_splice};
use std::rc::Rc;
use sxr_ir::anf::{refresh, Atom, Bound, Expr, FunDef, GlobalId, NameSupply, VarId};
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

/// Runs one inlining pass over `e` in place, inlining callees of at most
/// `threshold` IR nodes. Copies of let-bound definitions come from (and go
/// into) `defs`. Returns what the pass did.
pub fn inline(
    e: &mut Expr,
    globals: &IdMap<GlobalId, GlobalFun>,
    supply: &mut NameSupply,
    threshold: usize,
    defs: &mut DefCache,
) -> InlineReport {
    let mut st = Inliner {
        globals,
        supply,
        defs,
        env: IdMap::default(),
        threshold,
        report: InlineReport::default(),
    };
    st.walk(e);
    st.report
}

struct Inliner<'a> {
    globals: &'a IdMap<GlobalId, GlobalFun>,
    supply: &'a mut NameSupply,
    defs: &'a mut DefCache,
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

    /// Produces a copy of `def`'s body with fresh bound variables and the
    /// arguments in place of the parameters.
    fn instantiate(&mut self, def: &FunDef, args: &[Atom]) -> Expr {
        let mut map: IdMap<VarId, Atom> = def
            .params
            .iter()
            .copied()
            .zip(args.iter().cloned())
            .collect();
        self.report.inlined += 1;
        refresh(&def.body, &mut map, self.supply)
    }

    /// Walks `e` in pre-order along its spine, inlining at each candidate
    /// call site. An inlined body is walked on its own first (it may hold
    /// inlinable calls itself: wrappers over wrappers), then grafted into
    /// the call's slot, and the walk goes on from that slot, so the grafted
    /// code is walked once more, where the spliced `let v = a` registers
    /// `v` when `a` is a known function.
    fn walk(&mut self, e: &mut Expr) {
        let mut e = e;
        loop {
            self.report.visits += 1;
            match e {
                Expr::Let(v, Bound::Lambda(f), _) => {
                    self.walk(&mut f.body);
                    // A body over the threshold can never be a candidate.
                    if !f.body.size_exceeds(self.threshold) {
                        let def = self.defs.share(*v, f);
                        self.env.insert(*v, def);
                    }
                }
                Expr::Let(v, Bound::GlobalGet(g), _) => {
                    if let Some(GlobalFun { def: Some(def), .. }) = self.globals.get(g) {
                        self.env.insert(*v, Rc::clone(def));
                    }
                }
                Expr::Let(_, Bound::Call(f, args), _) => {
                    if let Some(def) = self.candidate(f, args.len()) {
                        let mut inlined = self.instantiate(&def, args);
                        convert_tails(&mut inlined, self.supply);
                        self.walk(&mut inlined);
                        if let Err(inlined) = try_splice(e, inlined) {
                            let Expr::Let(_, b, _) = e else {
                                unreachable!("matched a `let`")
                            };
                            *b = Bound::Body(Box::new(inlined));
                        }
                        continue;
                    }
                }
                Expr::Let(_, Bound::If(_, a, b), _) => {
                    self.walk(a);
                    self.walk(b);
                }
                Expr::Let(_, Bound::Body(inner), _) => self.walk(inner),
                Expr::Let(v, Bound::Atom(a), _) => {
                    // Copies of known functions remain known.
                    if let Some(def) = a.as_var().and_then(|w| self.env.get(&w)).cloned() {
                        self.env.insert(*v, def);
                    }
                }
                Expr::Let(..) => {}
                Expr::TailCall(f, args) => {
                    if let Some(def) = self.candidate(f, args.len()) {
                        *e = self.instantiate(&def, args);
                        continue;
                    }
                    return;
                }
                Expr::If(_, a, b) => {
                    self.walk(a);
                    self.walk(b);
                    return;
                }
                Expr::LetRec(binds, _) => {
                    // Letrec-bound functions are loop headers; leave their
                    // call sites alone but optimize inside their bodies.
                    for (_, f) in binds {
                        self.walk(&mut f.body);
                    }
                }
                Expr::Ret(_) | Expr::TailCallKnown(..) => return,
            }
            match e.next_mut() {
                Some(next) => e = next,
                None => unreachable!("only bindings go on"),
            }
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
        let mut defs = DefCache::default();
        let globals = analyze_globals(
            &lowered.main_body,
            &Default::default(),
            threshold,
            &mut defs,
        );
        let mut supply = lowered.supply;
        let mut e = lowered.main_body;
        let report = inline(&mut e, &globals, &mut supply, threshold, &mut defs);
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

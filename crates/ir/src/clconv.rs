//! Closure conversion: nested functions → flat [`Module`].
//!
//! Free variables are captured by value into closure records; the current
//! function's closure is an implicit first parameter ([`Fun::self_var`]).
//! `letrec` knots are tied by allocating all closures first (with
//! unspecified placeholders in the mutually-recursive slots) and patching
//! them afterwards.
//!
//! The pass also performs *known-call resolution*: calls through a variable
//! whose value is statically a specific closure become
//! [`Bound::CallKnown`] / [`Expr::TailCallKnown`], sparing the code-pointer
//! load at each call site. Both pipeline configurations get this equally —
//! it is control-flow knowledge, not data-representation knowledge.

use crate::anf::{
    Atom, Bound, Expr, FnId, Fun, FunDef, Link, Literal, Module, NameSupply, VarId, Walk,
};
use crate::idmap::{IdMap, IdSet};
use crate::lower::Lowered;

/// Runs closure conversion over a lowered program.
pub fn closure_convert(lowered: Lowered) -> Module {
    let Lowered {
        main_body,
        supply,
        global_names,
    } = lowered;
    let mut cc = Cc {
        funs: Vec::new(),
        supply,
        known: IdMap::default(),
        captures: captures(&main_body),
        rename: IdMap::default(),
    };
    // Reserve the main function slot first so `main` is id 0.
    cc.funs.push(placeholder(Some("main".to_string())));
    let self_var = cc.supply.fresh("main-self");
    let body = cc.convert(main_body);
    cc.funs[0].self_var = self_var;
    cc.funs[0].body = body;
    Module {
        funs: cc.funs,
        main: 0,
        global_names,
        var_names: cc.supply.names,
    }
}

/// The outer variables each lambda in `e` captures, keyed by the variable
/// the lambda is bound to (by `let` or `letrec`), in ascending order. A
/// `letrec` lambda's own variable is not a capture: inside its body it
/// names the function's own closure. One post-order pass: a lambda's free
/// set is what its body uses, plus what the lambdas nested in it capture,
/// minus what its body and parameters bind.
pub fn captures(e: &Expr) -> IdMap<VarId, Vec<VarId>> {
    let mut out = IdMap::default();
    free_in(e, &[], &mut out);
    out
}

/// The variables `e` uses but neither binds nor gets from `params`,
/// ascending, recording in `out` the captures of every lambda in `e`. A
/// pre-order walk meets every binding before the uses it scopes over, so a
/// use of a variable not bound yet is free.
fn free_in(e: &Expr, params: &[VarId], out: &mut IdMap<VarId, Vec<VarId>>) -> Vec<VarId> {
    let mut bound: IdSet<VarId> = params.iter().copied().collect();
    let mut free = Vec::new();
    e.visit::<()>(|node| {
        node.for_each_atom_shallow(&mut |a| {
            free.extend(a.as_var().filter(|x| !bound.contains(x)));
        });
        let mut lambda = |v: VarId, f: &FunDef, bound: &IdSet<VarId>| {
            let params: Vec<VarId> = f.params.iter().chain(&f.rest).copied().collect();
            let inner = free_in(&f.body, &params, out);
            free.extend(inner.iter().filter(|x| !bound.contains(x)));
            out.insert(v, inner.into_iter().filter(|&x| x != v).collect());
        };
        match node {
            Expr::Let(v, b, _) => {
                bound.insert(*v);
                if let Bound::Lambda(f) = b {
                    lambda(*v, f, &bound);
                }
            }
            Expr::LetRec(binds, _) => {
                bound.extend(binds.iter().map(|(v, _)| *v));
                for (v, f) in binds {
                    lambda(*v, f, &bound);
                }
            }
            _ => {}
        }
        Walk::SkipLambdas
    });
    free.sort_unstable();
    free.dedup();
    free
}

/// A function slot whose contents are filled in once converted.
fn placeholder(name: Option<String>) -> Fun {
    Fun {
        name,
        self_var: 0,
        params: Vec::new(),
        rest: None,
        free_count: 0,
        body: Expr::Ret(Atom::Lit(Literal::Unspecified)),
    }
}

struct Cc {
    funs: Vec<Fun>,
    supply: NameSupply,
    /// Variables statically known to hold a closure of a given function.
    known: IdMap<VarId, FnId>,
    /// Every lambda's captures, from [`captures`].
    captures: IdMap<VarId, Vec<VarId>>,
    /// Inside the function being converted: each variable it captures (and
    /// its `letrec` self variable) to the variable that holds it there.
    rename: IdMap<VarId, VarId>,
}

/// A converted spine binding, waiting for the spine to be rebuilt.
enum Out {
    Let(VarId, Bound),
    /// A `letrec` group: its variables, function ids and captures (the
    /// allocations and knot-tying patches are emitted on rebuild).
    LetRec(Vec<VarId>, Vec<FnId>, Vec<Vec<VarId>>),
}

impl Cc {
    /// The variable holding `x` in the function being converted.
    fn renamed(&self, x: VarId) -> VarId {
        self.rename.get(&x).copied().unwrap_or(x)
    }

    fn rename_atom(&self, a: &mut Atom) {
        if let Atom::Var(v) = a {
            *v = self.renamed(*v);
        }
    }

    /// The function id `a` is statically known to close over.
    fn known_fn(&self, a: &Atom) -> Option<FnId> {
        a.as_var().and_then(|v| self.known.get(&v).copied())
    }

    /// Converts the lambda bound to `binder` into function `fnid`,
    /// returning the variables (of the current function) it captures, in
    /// ascending order. `letrec` lambdas pass their own variable as
    /// `self_binding`: inside the body it names the closure register.
    fn convert_fun(
        &mut self,
        binder: VarId,
        fun: FunDef,
        self_binding: Option<VarId>,
        fnid: FnId,
    ) -> Vec<VarId> {
        let FunDef {
            params,
            rest,
            body,
            name,
        } = fun;
        // Captures sorted by the variable that holds them here.
        let mut free: Vec<(VarId, VarId)> = self.captures[&binder]
            .iter()
            .map(|&x| (self.renamed(x), x))
            .collect();
        free.sort_unstable();

        let self_var = self.supply.fresh("self");
        let mut inner: IdMap<VarId, VarId> = IdMap::default();
        if let Some(sb) = self_binding {
            inner.insert(sb, self_var);
            self.known.insert(self_var, fnid);
        }
        let mut inner_ids = Vec::with_capacity(free.len());
        for &(x, orig) in &free {
            let x_in = self.supply.fresh_like(x);
            if let Some(&kf) = self.known.get(&x) {
                self.known.insert(x_in, kf);
            }
            inner.insert(orig, x_in);
            inner_ids.push(x_in);
        }
        let outer = std::mem::replace(&mut self.rename, inner);
        let mut body = self.convert(*body);
        self.rename = outer;
        // Prepend free-variable loads (in reverse so index 0 is outermost).
        for (i, x_in) in inner_ids.into_iter().enumerate().rev() {
            body = Expr::Let(x_in, Bound::ClosureRef(i), Box::new(body));
        }
        self.funs[fnid as usize] = Fun {
            name,
            self_var,
            params,
            rest,
            free_count: free.len(),
            body,
        };
        free.into_iter().map(|(x, _)| x).collect()
    }

    /// Converts one spine and everything nested in it: lambdas become
    /// closure allocations, atoms are renamed through `rename`, and calls
    /// through known closures become known calls.
    fn convert(&mut self, e: Expr) -> Expr {
        let (links, mut tail) = e.into_spine();
        let out: Vec<Out> = links.into_iter().map(|l| self.convert_link(l)).collect();
        tail.for_each_atom_shallow_mut(&mut |a| self.rename_atom(a));
        match &mut tail {
            Expr::If(_, then, els) => {
                **then = self.convert(then.take());
                **els = self.convert(els.take());
            }
            Expr::TailCall(callee, args) => {
                if let Some(fnid) = self.known_fn(callee) {
                    let (callee, args) = (callee.take(), std::mem::take(args));
                    tail = Expr::TailCallKnown(fnid, callee, args);
                }
            }
            _ => {}
        }
        let mut e = tail;
        // Rebuild innermost first; the patches of a `letrec` draw their
        // fresh variables here, after everything in their scope.
        for o in out.into_iter().rev() {
            e = match o {
                Out::Let(v, b) => Expr::Let(v, b, Box::new(e)),
                Out::LetRec(vars, ids, frees) => self.tie_letrec(&vars, &ids, &frees, e),
            };
        }
        e
    }

    fn convert_link(&mut self, link: Link) -> Out {
        let (v, mut b) = match link {
            Link::LetRec(binds) => return self.convert_letrec(binds),
            Link::Let(v, Bound::Lambda(f)) => {
                let fnid = self.reserve(v, &f);
                let free = self.convert_fun(v, f, None, fnid);
                let atoms = free.into_iter().map(Atom::Var).collect();
                return Out::Let(v, Bound::MakeClosure(fnid, atoms));
            }
            Link::Let(v, b) => (v, b),
        };
        b.for_each_atom_shallow_mut(&mut |a| self.rename_atom(a));
        let b = match b {
            Bound::If(t, then, els) => {
                let then = Box::new(self.convert(*then));
                Bound::If(t, then, Box::new(self.convert(*els)))
            }
            Bound::Body(e) => Bound::Body(Box::new(self.convert(*e))),
            Bound::Call(callee, args) => match self.known_fn(&callee) {
                Some(fnid) => Bound::CallKnown(fnid, callee, args),
                None => Bound::Call(callee, args),
            },
            Bound::Atom(a) => {
                // Copies of known closures stay known.
                if let Some(kf) = self.known_fn(&a) {
                    self.known.insert(v, kf);
                }
                Bound::Atom(a)
            }
            b => b,
        };
        Out::Let(v, b)
    }

    /// Reserves a function id for the lambda `f` bound to `v`, and records
    /// that `v` holds a closure of it.
    fn reserve(&mut self, v: VarId, f: &FunDef) -> FnId {
        let id = self.funs.len() as FnId;
        self.funs.push(placeholder(f.name.clone()));
        // Variadic functions keep dynamic calls (the machine builds the
        // rest list on the generic path).
        if f.rest.is_none() {
            self.known.insert(v, id);
        }
        id
    }

    /// Converts the lambdas of a `letrec` group.
    fn convert_letrec(&mut self, binds: Vec<(VarId, FunDef)>) -> Out {
        // Reserve function ids so mutual references resolve to known calls.
        let ids: Vec<FnId> = binds.iter().map(|(v, f)| self.reserve(*v, f)).collect();
        let vars: Vec<VarId> = binds.iter().map(|(v, _)| *v).collect();
        let frees = binds
            .into_iter()
            .zip(&ids)
            .map(|((v, f), &id)| self.convert_fun(v, f, Some(v), id))
            .collect();
        Out::LetRec(vars, ids, frees)
    }

    /// Emits a converted `letrec` group in front of `body`: allocate all
    /// closures, with unspecified placeholders in slots that refer to group
    /// members, then patch those slots.
    fn tie_letrec(
        &mut self,
        vars: &[VarId],
        ids: &[FnId],
        frees: &[Vec<VarId>],
        body: Expr,
    ) -> Expr {
        let mut out = body;
        // Build in reverse: patches first (innermost), then allocations.
        for (v, free) in vars.iter().zip(frees).rev() {
            for (slot, x) in free.iter().enumerate().filter(|(_, x)| vars.contains(x)) {
                let patch = Bound::ClosurePatch(Atom::Var(*v), slot, Atom::Var(*x));
                out = Expr::Let(self.supply.fresh("patch"), patch, Box::new(out));
            }
        }
        for ((v, free), id) in vars.iter().zip(frees).zip(ids).rev() {
            let atoms = free
                .iter()
                .map(|x| {
                    if vars.contains(x) {
                        Atom::Lit(Literal::Unspecified)
                    } else {
                        Atom::Var(*x)
                    }
                })
                .collect();
            out = Expr::Let(*v, Bound::MakeClosure(*id, atoms), Box::new(out));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_program;
    use sxr_ast::{convert_assignments, Expander};
    use sxr_sexp::parse_all;

    fn convert_src(src: &str) -> Module {
        let mut ex = Expander::new();
        for g in ["box", "unbox", "set-box!", "cons", "f"] {
            ex.declare_global(g);
        }
        let unit = ex.expand_unit(&parse_all(src).unwrap()).unwrap();
        let mut prog = ex.into_program(vec![unit]);
        convert_assignments(&mut prog).unwrap();
        closure_convert(lower_program(prog).unwrap())
    }

    fn no_nested(e: &Expr) -> bool {
        match e {
            Expr::Let(_, Bound::Lambda(_), _) | Expr::LetRec(..) => false,
            Expr::Let(_, Bound::If(_, t, e2), body) => {
                no_nested(t) && no_nested(e2) && no_nested(body)
            }
            Expr::Let(_, _, body) => no_nested(body),
            Expr::If(_, t, e2) => no_nested(t) && no_nested(e2),
            _ => true,
        }
    }

    #[test]
    fn flat_after_conversion() {
        let m = convert_src("(define (add a b) (%word+ a b)) (add 1 2)");
        assert!(m.funs.len() >= 2);
        for f in &m.funs {
            assert!(no_nested(&f.body), "no nested lambdas after cc");
        }
    }

    #[test]
    fn capture_free_variable() {
        let m = convert_src("(lambda (x) (lambda (y) (%word+ x y)))");
        // Inner function captures x: free_count 1, body starts with ClosureRef.
        let inner = m
            .funs
            .iter()
            .find(|f| f.free_count == 1)
            .expect("an inner function with one capture");
        match &inner.body {
            Expr::Let(_, Bound::ClosureRef(0), _) => {}
            other => panic!("expected closure-ref prologue, got {other:?}"),
        }
    }

    #[test]
    fn letrec_becomes_known_calls() {
        let m = convert_src("(let loop ((i 0)) (if (%word=? i 10) i (loop (%word+ i 1))))");
        let loop_fun = m
            .funs
            .iter()
            .find(|f| f.name.as_deref() == Some("loop"))
            .expect("loop function exists");
        // The recursive call is a TailCallKnown through the self register.
        fn has_known_tail(e: &Expr) -> bool {
            match e {
                Expr::TailCallKnown(..) => true,
                Expr::Let(_, Bound::If(_, t, e2), body) => {
                    has_known_tail(t) || has_known_tail(e2) || has_known_tail(body)
                }
                Expr::Let(_, _, body) => has_known_tail(body),
                Expr::If(_, t, e2) => has_known_tail(t) || has_known_tail(e2),
                _ => false,
            }
        }
        assert!(
            has_known_tail(&loop_fun.body),
            "self call resolved statically"
        );
        // Self-recursion does not capture the loop variable.
        assert_eq!(loop_fun.free_count, 0);
    }

    #[test]
    fn mutual_letrec_patched() {
        let m = convert_src(
            "(letrec ((even? (lambda (n) (if (%word=? n 0) #t (odd? (%word- n 1)))))
                      (odd? (lambda (n) (if (%word=? n 0) #f (even? (%word- n 1))))))
               (even? 10))",
        );
        // Mutual references capture each other, so patches must appear.
        fn count_patches(e: &Expr) -> usize {
            match e {
                Expr::Let(_, Bound::ClosurePatch(..), body) => 1 + count_patches(body),
                Expr::Let(_, Bound::If(_, t, e2), body) => {
                    count_patches(t) + count_patches(e2) + count_patches(body)
                }
                Expr::Let(_, _, body) => count_patches(body),
                Expr::If(_, t, e2) => count_patches(t) + count_patches(e2),
                _ => 0,
            }
        }
        let main = &m.funs[m.main as usize];
        assert_eq!(
            count_patches(&main.body),
            2,
            "one patch per mutual reference"
        );
    }

    #[test]
    fn known_call_through_let_binding() {
        let m = convert_src("(let ((f (lambda (x) x))) (f 1))");
        let main = &m.funs[m.main as usize];
        fn has_known(e: &Expr) -> bool {
            match e {
                Expr::Let(_, Bound::CallKnown(..), _) | Expr::TailCallKnown(..) => true,
                Expr::Let(_, Bound::If(_, t, e2), body) => {
                    has_known(t) || has_known(e2) || has_known(body)
                }
                Expr::Let(_, _, body) => has_known(body),
                Expr::If(_, t, e2) => has_known(t) || has_known(e2),
                _ => false,
            }
        }
        assert!(has_known(&main.body));
    }

    #[test]
    fn free_vars_sorted_and_minimal() {
        // let f = (lambda (y) (%word+ x3 (%word+ y x1))) in ret f,
        // with frees x1 x3
        use crate::anf::*;
        let body = Expr::Let(
            100,
            Bound::Prim(
                crate::prim::PrimOp::WordAdd,
                vec![Atom::Var(50), Atom::Var(3)],
            ),
            Box::new(Expr::Let(
                101,
                Bound::Prim(
                    crate::prim::PrimOp::WordAdd,
                    vec![Atom::Var(1), Atom::Var(100)],
                ),
                Box::new(Expr::Ret(Atom::Var(101))),
            )),
        );
        let lambda = FunDef {
            params: vec![50],
            rest: None,
            body: Box::new(body),
            name: None,
        };
        let e = Expr::Let(7, Bound::Lambda(lambda), Box::new(Expr::Ret(Atom::Var(7))));
        assert_eq!(captures(&e).get(&7), Some(&vec![1, 3]));
    }

    #[test]
    fn nested_variadic_lambda_binds_its_rest_parameter() {
        // The inner lambda's rest parameter is bound inside the outer
        // lambda, so the outer one captures only `x`.
        let m = convert_src("(lambda (x) (lambda args (cons x args)))");
        crate::validate_module(&m).unwrap();
        let counts: Vec<usize> = m.funs.iter().map(|f| f.free_count).collect();
        assert_eq!(counts, vec![0, 0, 1]);
    }
}

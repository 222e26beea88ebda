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

use crate::anf::{Atom, Bound, Expr, FnId, Fun, FunDef, Literal, Module, NameSupply, VarId};
use crate::idmap::{IdMap, IdSet};
use crate::lower::Lowered;
use std::collections::BTreeSet;

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
    };
    // Reserve the main function slot first so `main` is id 0.
    cc.funs.push(Fun {
        name: Some("main".to_string()),
        self_var: 0,
        params: Vec::new(),
        rest: None,
        free_count: 0,
        body: Expr::Ret(Atom::Lit(Literal::Unspecified)),
    });
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

struct Cc {
    funs: Vec<Fun>,
    supply: NameSupply,
    /// Variables statically known to hold a closure of a given function.
    known: IdMap<VarId, FnId>,
}

impl Cc {
    /// Converts a function, returning its id and the (sorted) outer-scope
    /// variables it captures.
    ///
    /// `self_binding` is the letrec variable naming this function inside its
    /// own body (mapped to the closure register instead of a capture slot).
    fn convert_fun(
        &mut self,
        fun: FunDef,
        self_binding: Option<VarId>,
        reserved: Option<FnId>,
    ) -> (FnId, Vec<VarId>) {
        let fnid = match reserved {
            Some(id) => id,
            None => {
                let id = self.funs.len() as FnId;
                self.funs.push(Fun {
                    name: fun.name.clone(),
                    self_var: 0,
                    params: Vec::new(),
                    rest: None,
                    free_count: 0,
                    body: Expr::Ret(Atom::Lit(Literal::Unspecified)),
                });
                id
            }
        };
        let FunDef {
            params,
            rest,
            body,
            name,
        } = fun;
        let mut bound_params = params.clone();
        if let Some(r) = rest {
            bound_params.push(r);
        }
        let mut free = free_vars(&body, &bound_params);
        if let Some(sb) = self_binding {
            free.remove(&sb);
        }
        let free: Vec<VarId> = free.into_iter().collect();

        let self_var = self.supply.fresh("self");
        let mut subs: IdMap<VarId, Atom> = IdMap::default();
        if let Some(sb) = self_binding {
            subs.insert(sb, Atom::Var(self_var));
            self.known.insert(self_var, fnid);
        }
        let mut inner_ids = Vec::with_capacity(free.len());
        for &x in &free {
            let name = self.supply.name(x).to_string();
            let x_in = self.supply.fresh(&name);
            if let Some(&kf) = self.known.get(&x) {
                self.known.insert(x_in, kf);
            }
            subs.insert(x, Atom::Var(x_in));
            inner_ids.push(x_in);
        }
        let mut body = *body;
        crate::anf::substitute(&mut body, &subs);
        let mut body = self.convert(body);
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
        (fnid, free)
    }

    fn convert(&mut self, e: Expr) -> Expr {
        match e {
            Expr::Let(v, Bound::Lambda(f), body) => {
                let variadic = f.rest.is_some();
                let (fnid, free) = self.convert_fun(f, None, None);
                if !variadic {
                    self.known.insert(v, fnid);
                }
                let atoms = free.into_iter().map(Atom::Var).collect();
                Expr::Let(
                    v,
                    Bound::MakeClosure(fnid, atoms),
                    Box::new(self.convert(*body)),
                )
            }
            Expr::LetRec(binds, body) => self.convert_letrec(binds, *body),
            Expr::Let(v, Bound::If(t, then, els), body) => {
                let then = Box::new(self.convert(*then));
                let els = Box::new(self.convert(*els));
                Expr::Let(v, Bound::If(t, then, els), Box::new(self.convert(*body)))
            }
            Expr::Let(v, Bound::Body(e), body) => {
                let e = Box::new(self.convert(*e));
                Expr::Let(v, Bound::Body(e), Box::new(self.convert(*body)))
            }
            Expr::Let(v, Bound::Call(callee, args), body) => {
                let call = match callee.as_var().and_then(|c| self.known.get(&c).copied()) {
                    Some(fnid) => Bound::CallKnown(fnid, callee, args),
                    None => Bound::Call(callee, args),
                };
                // Copies of known closures stay known.
                Expr::Let(v, call, Box::new(self.convert(*body)))
            }
            Expr::Let(v, Bound::Atom(a), body) => {
                if let Some(kf) = a.as_var().and_then(|w| self.known.get(&w).copied()) {
                    self.known.insert(v, kf);
                }
                Expr::Let(v, Bound::Atom(a), Box::new(self.convert(*body)))
            }
            Expr::Let(v, b, body) => Expr::Let(v, b, Box::new(self.convert(*body))),
            Expr::If(t, then, els) => Expr::If(
                t,
                Box::new(self.convert(*then)),
                Box::new(self.convert(*els)),
            ),
            Expr::TailCall(callee, args) => {
                match callee.as_var().and_then(|c| self.known.get(&c).copied()) {
                    Some(fnid) => Expr::TailCallKnown(fnid, callee, args),
                    None => Expr::TailCall(callee, args),
                }
            }
            Expr::Ret(_) | Expr::TailCallKnown(..) => e,
        }
    }

    fn convert_letrec(&mut self, binds: Vec<(VarId, FunDef)>, body: Expr) -> Expr {
        // Reserve function ids so mutual references resolve to known calls.
        let ids: Vec<FnId> = binds
            .iter()
            .map(|(v, f)| {
                let id = self.funs.len() as FnId;
                self.funs.push(Fun {
                    name: f.name.clone(),
                    self_var: 0,
                    params: Vec::new(),
                    rest: None,
                    free_count: 0,
                    body: Expr::Ret(Atom::Lit(Literal::Unspecified)),
                });
                // Variadic functions keep dynamic calls (the machine builds
                // the rest list on the generic path).
                if f.rest.is_none() {
                    self.known.insert(*v, id);
                }
                id
            })
            .collect();
        let rec_vars: Vec<VarId> = binds.iter().map(|(v, _)| *v).collect();
        let mut free_lists = Vec::new();
        for ((v, f), id) in binds.into_iter().zip(ids.iter()) {
            let (_, free) = self.convert_fun(f, Some(v), Some(*id));
            free_lists.push(free);
        }
        // Allocate all closures, placing unspecified placeholders in slots
        // that refer to letrec siblings, then patch.
        let mut patches: Vec<(VarId, usize, VarId)> = Vec::new();
        let mut out = self.convert(body);
        // Build in reverse: patches first (innermost), then allocations.
        for ((v, free), _id) in rec_vars.iter().zip(&free_lists).zip(&ids).rev() {
            for (slot, x) in free.iter().enumerate() {
                if rec_vars.contains(x) {
                    patches.push((*v, slot, *x));
                }
            }
        }
        for (c, slot, val) in patches {
            let t = self.supply.fresh("patch");
            out = Expr::Let(
                t,
                Bound::ClosurePatch(Atom::Var(c), slot, Atom::Var(val)),
                Box::new(out),
            );
        }
        for ((v, free), id) in rec_vars.iter().zip(&free_lists).zip(&ids).rev() {
            let atoms = free
                .iter()
                .map(|x| {
                    if rec_vars.contains(x) {
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

/// Variables referenced by `body` but not bound within it or by `params`.
/// Returned in ascending order for determinism.
pub fn free_vars(body: &Expr, params: &[VarId]) -> BTreeSet<VarId> {
    let mut bound: IdSet<VarId> = params.iter().copied().collect();
    collect_bound(body, &mut bound);
    let mut free = BTreeSet::new();
    body.for_each_atom(&mut |a| {
        if let Atom::Var(v) = a {
            if !bound.contains(v) {
                free.insert(*v);
            }
        }
    });
    free
}

fn collect_bound(e: &Expr, out: &mut IdSet<VarId>) {
    match e {
        Expr::Let(v, b, body) => {
            out.insert(*v);
            match b {
                Bound::Lambda(l) => {
                    out.extend(l.params.iter().copied());
                    collect_bound(&l.body, out);
                }
                Bound::If(_, t, e2) => {
                    collect_bound(t, out);
                    collect_bound(e2, out);
                }
                Bound::Body(e2) => collect_bound(e2, out),
                _ => {}
            }
            collect_bound(body, out);
        }
        Expr::If(_, t, e2) => {
            collect_bound(t, out);
            collect_bound(e2, out);
        }
        Expr::Ret(_) | Expr::TailCall(..) | Expr::TailCallKnown(..) => {}
        Expr::LetRec(binds, body) => {
            for (v, l) in binds {
                out.insert(*v);
                out.extend(l.params.iter().copied());
                collect_bound(&l.body, out);
            }
            collect_bound(body, out);
        }
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
        // (lambda (y) (%word+ x3 (%word+ y x1)))  with frees x1 x3
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
        let frees = free_vars(&body, &[50]);
        assert_eq!(frees.into_iter().collect::<Vec<_>>(), vec![1, 3]);
    }
}

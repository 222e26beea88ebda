//! The optimizer's passes loop along `let` spines: straight-line code of
//! any length costs them no stack. `optimize`, with every pass on and the
//! IR re-checked after each one, runs here over a chain of 200,000 bindings
//! inside a lambda, on a thread with a 256 KiB stack, where one frame per
//! binding would overflow many times over.

use std::collections::HashMap;
use sxr_ir::anf::{Atom, Bound, Expr, FunDef, NameSupply, VarId};
use sxr_ir::rep::RepRegistry;
use sxr_ir::PrimOp;
use sxr_opt::{optimize, OptOptions};

/// Bindings in the chain.
const N: u32 = 200_000;
/// The constant, bound in `main` before the lambda.
const X: VarId = 0;
/// The lambda's variable and its parameter.
const F: VarId = 1;
const P: VarId = 2;
/// The chain binds `FIRST .. FIRST + N`.
const FIRST: VarId = 3;

/// `(let ((x 5)) (let ((f (lambda (p) c1 … cN))) f))`, where binding `i`
/// of the chain adds `x` to the one before it (the first adds it to `p`),
/// and the chain returns its last variable.
fn program() -> Expr {
    let last = FIRST + N - 1;
    let mut chain = Expr::Ret(Atom::Var(last));
    for v in (FIRST..=last).rev() {
        let prev = if v == FIRST { P } else { v - 1 };
        let add = Bound::Prim(PrimOp::WordAdd, vec![Atom::Var(prev), Atom::Var(X)]);
        chain = Expr::Let(v, add, Box::new(chain));
    }
    let lambda = FunDef {
        params: vec![P],
        rest: None,
        body: Box::new(chain),
        name: Some("chain".to_string()),
    };
    Expr::Let(
        X,
        Bound::Atom(Atom::raw(5)),
        Box::new(Expr::Let(
            F,
            Bound::Lambda(lambda),
            Box::new(Expr::Ret(Atom::Var(F))),
        )),
    )
}

#[test]
fn optimize_over_a_long_spine_runs_in_a_small_stack() {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn_scoped(s, || {
                let mut registry = RepRegistry::new();
                let mut supply =
                    NameSupply::from_names(vec!["v".to_string(); (FIRST + N) as usize]);
                let options = OptOptions {
                    verify: true,
                    ..OptOptions::default()
                };
                let (e, report) = optimize(
                    program(),
                    &mut registry,
                    &HashMap::new(),
                    &mut supply,
                    &options,
                )
                .expect("optimizes");
                // The constant is propagated into every binding, and its own
                // binding is then dead: the program is `let f = lambda` alone.
                assert_eq!(report.cleaned, 1, "{report:?}");
                assert_eq!(report.inlined, 0);
                let Some((F, Bound::Lambda(f))) = e.lets().next() else {
                    panic!("the lambda is first on the spine")
                };
                assert_eq!(f.body.lets().count(), N as usize);
                assert!(f.body.lets().all(|(_, b)| matches!(
                    b,
                    Bound::Prim(PrimOp::WordAdd, args) if args[1] == Atom::raw(5)
                )));
            })
            .expect("spawn the small-stack thread")
            .join()
            .expect("the passes fit in 256 KiB");
    });
}

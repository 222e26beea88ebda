//! The rep-safety analyzer loops along `let` spines: straight-line code of
//! any length costs it no stack. It runs here over a function of 200,000
//! bindings on a thread with a 256 KiB stack, where one frame per binding
//! would overflow many times over.

use std::collections::HashMap;
use sxr_analysis::{analyze_module, DiagClass};
use sxr_ir::anf::{Atom, Bound, Expr, Fun, Literal, Module};
use sxr_ir::rep::RepRegistry;
use sxr_ir::PrimOp;

/// Bindings in the chain.
const N: u32 = 200_000;

#[test]
fn analyzer_over_a_long_spine_runs_in_a_small_stack() {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn_scoped(s, || {
                let mut reg = RepRegistry::new();
                let fx = reg.intern_immediate("fixnum", 3, 0, 3).unwrap();
                let pair = reg.intern_pointer("pair", 1, false).unwrap();
                let rep = |r| Atom::Lit(Literal::Rep(r));
                // v2 = a fixnum; v3 .. v(N+1) add to the one before; the
                // last binding projects the fixnum as a pair, which is the
                // one thing wrong with the function.
                let last = N + 2;
                let mut body = Expr::Let(
                    last,
                    Bound::Prim(PrimOp::RepProject, vec![rep(pair), Atom::Var(2)]),
                    Box::new(Expr::Ret(Atom::Var(last))),
                );
                for v in (3..last).rev() {
                    let add = Bound::Prim(PrimOp::WordAdd, vec![Atom::Var(v - 1), Atom::raw(1)]);
                    body = Expr::Let(v, add, Box::new(body));
                }
                body = Expr::Let(
                    2,
                    Bound::Prim(PrimOp::RepInject, vec![rep(fx), Atom::raw(5)]),
                    Box::new(body),
                );
                let module = Module {
                    funs: vec![Fun {
                        name: Some("chain".into()),
                        self_var: 0,
                        params: vec![1],
                        rest: None,
                        free_count: 0,
                        body,
                    }],
                    main: 0,
                    global_names: Vec::new(),
                    var_names: Vec::new(),
                };
                let diags = analyze_module(&module, &reg, &HashMap::new());
                assert_eq!(diags.len(), 1, "{diags:?}");
                assert_eq!(diags[0].class, DiagClass::DisjointRep);
            })
            .expect("spawn the small-stack thread")
            .join()
            .expect("the analysis fits in 256 KiB");
    });
}

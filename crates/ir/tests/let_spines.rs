//! The shared ANF walkers loop along `let` spines: straight-line code of
//! any length costs them no stack. Each walk here runs over a chain of
//! 200,000 bindings inside a lambda, on a thread with a 256 KiB stack,
//! where one frame per binding would overflow many times over.
//!
//! The derived `Drop` and `Clone` of `Expr` still recurse per binding, so
//! the test never clones a chain and takes each one apart with a loop.

use sxr_ir::anf::{refresh, substitute, Atom, Bound, Expr, FunDef, Literal, NameSupply, VarId};
use sxr_ir::{closure_convert, IdMap, Lowered, PrimOp};

/// Bindings in the chain.
const N: u32 = 200_000;
/// The captured variable, bound in `main` before the lambda.
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

/// The lambda body of [`program`] (or of a copy of it).
fn chain_of(e: &Expr) -> &Expr {
    match e.lets().find_map(|(_, b)| match b {
        Bound::Lambda(f) => Some(&*f.body),
        _ => None,
    }) {
        Some(body) => body,
        None => panic!("no lambda on the spine"),
    }
}

/// Drops `e` one binding at a time.
fn drop_spine(e: Expr) {
    let (links, tail) = e.into_spine();
    for link in links {
        if let sxr_ir::anf::Link::Let(_, Bound::Lambda(f)) = link {
            drop_spine(*f.body);
        }
    }
    drop(tail);
}

fn on_small_stack(work: impl FnOnce() + Send) {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn_scoped(s, work)
            .expect("spawn the small-stack thread")
            .join()
            .expect("the walks fit in 256 KiB");
    });
}

#[test]
fn walks_over_a_long_spine_run_in_a_small_stack() {
    on_small_stack(|| {
        let e = program();
        let size = 2 + (N as usize + 1) + 1;
        assert_eq!(e.size(), size);
        assert!(e.size_exceeds(size - 1));
        assert!(!e.size_exceeds(size));

        let mut uses = IdMap::default();
        e.use_counts(&mut uses);
        assert_eq!(uses.get(&X), Some(&(N as usize)));
        assert_eq!(uses.get(&(FIRST + N - 1)), Some(&1));

        // A copy of the chain, as the inliner makes one: fresh binders,
        // and the free `x` replaced by 7.
        let names = vec!["v".to_string(); (FIRST + N) as usize];
        let mut supply = NameSupply::from_names(names.clone());
        let mut map = IdMap::default();
        map.insert(X, Atom::raw(7));
        let copy = refresh(chain_of(&e), &mut map, &mut supply);
        assert_eq!(supply.names.len(), names.len() + N as usize);
        assert_eq!(copy.lets().count(), N as usize);
        assert!(copy
            .lets()
            .all(|(v, b)| v >= FIRST + N
                && matches!(b, Bound::Prim(_, args) if args[1] == Atom::raw(7))));
        drop_spine(copy);

        let mut e = e;
        let mut map = IdMap::default();
        map.insert(X, Atom::Lit(Literal::Unspecified));
        substitute(&mut e, &map);
        let mut uses = IdMap::default();
        e.use_counts(&mut uses);
        assert_eq!(uses.get(&X), None);
        drop_spine(e);

        let module = closure_convert(Lowered {
            main_body: program(),
            supply: NameSupply::from_names(names),
            global_names: Vec::new(),
        });
        assert_eq!(module.funs.len(), 2);
        let chain = &module.funs[1];
        assert_eq!(chain.free_count, 1, "the lambda captures x");
        // One closure-ref load, then the chain.
        assert_eq!(chain.body.lets().count(), N as usize + 1);
        for f in module.funs {
            drop_spine(f.body);
        }
    });
}

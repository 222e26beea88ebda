//! Code generation and intrinsic lowering loop along `let` spines:
//! straight-line code of any length costs them no stack. Each runs here on
//! a thread with a 256 KiB stack, over a chain far longer than that stack
//! could hold one frame per binding of.

use sxr_codegen::{generate, lower_intrinsics_expr};
use sxr_ir::anf::{Atom, Bound, Expr, Fun, Module, NameSupply, Test, VarId};
use sxr_ir::rep::RepRegistry;
use sxr_ir::{Intrinsic, PrimOp};

/// A registry with the classic layouts: shift-3, tag-0 fixnums, and every
/// role the code generator and the intrinsic expansions look up.
fn classic() -> RepRegistry {
    let mut reg = RepRegistry::new();
    let immediates = [
        ("fixnum", 3, 0, 3),
        ("boolean", 8, 0b0000_0010, 8),
        ("char", 8, 0b0001_0010, 8),
        ("null", 8, 0b0010_0010, 8),
        ("unspecified", 8, 0b0011_0010, 8),
    ];
    for (role, bits, tag, shift) in immediates {
        let id = reg.intern_immediate(role, bits, tag, shift).unwrap();
        reg.provide_role(role, id).unwrap();
    }
    let pointers = [
        ("pair", 1),
        ("vector", 3),
        ("string", 5),
        ("symbol", 6),
        ("closure", 7),
    ];
    for (role, tag) in pointers {
        let id = reg.intern_pointer(role, tag, false).unwrap();
        reg.provide_role(role, id).unwrap();
    }
    reg
}

fn on_small_stack(work: impl FnOnce() + Send) {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn_scoped(s, work)
            .expect("spawn the small-stack thread")
            .join()
            .expect("the walk fits in 256 KiB");
    });
}

/// Steps of the chain [`generate`] compiles: three bindings each.
const STEPS: u32 = 20_000;

/// The body of a function of one parameter `p` (v1): `STEPS` steps of
///
/// ```text
/// a = x + 1;  c = a < 0;  x' = if c then a else 7
/// ```
///
/// starting from `x = p`, then `ret x`. Each comparison is used once, by
/// the `if` right after it, so it fuses into a compare-and-branch.
fn fused_chain() -> Expr {
    let var = |step: u32, k: u32| 2 + 3 * step + k;
    let last = var(STEPS - 1, 2);
    let mut e = Expr::Ret(Atom::Var(last));
    for step in (0..STEPS).rev() {
        let x = if step == 0 { 1 } else { var(step - 1, 2) };
        let (a, c, next) = (var(step, 0), var(step, 1), var(step, 2));
        let pick = Bound::If(
            Test::NonZero(Atom::Var(c)),
            Box::new(Expr::Ret(Atom::Var(a))),
            Box::new(Expr::Ret(Atom::raw(7))),
        );
        e = Expr::Let(next, pick, Box::new(e));
        e = Expr::Let(
            c,
            Bound::Prim(PrimOp::WordLt, vec![Atom::Var(a), Atom::raw(0)]),
            Box::new(e),
        );
        e = Expr::Let(
            a,
            Bound::Prim(PrimOp::WordAdd, vec![Atom::Var(x), Atom::raw(1)]),
            Box::new(e),
        );
    }
    e
}

#[test]
fn generate_over_a_long_spine_runs_in_a_small_stack() {
    on_small_stack(|| {
        let module = Module {
            funs: vec![Fun {
                name: Some("chain".into()),
                self_var: 0,
                params: vec![1],
                rest: None,
                free_count: 0,
                body: fused_chain(),
            }],
            main: 0,
            global_names: Vec::new(),
            var_names: Vec::new(),
        };
        let code = generate(&module, &classic()).expect("generates");
        let f = &code.funs[0];
        // Self and `p`, then one register for each sum and each `if`; the
        // comparisons fuse and get none.
        let nregs = 2 + 2 * STEPS as usize;
        assert_eq!(f.nregs, nregs);
        // Add; compare-and-branch; move and jump; constant (falls through
        // to the join). Then the return.
        assert_eq!(f.insts.len(), 5 * STEPS as usize + 1);
        // Only the closure and the parameter may hold pointers: every sum
        // is raw, and so is every `if` that yields a sum or a raw word.
        let mut ptr_map = vec![false; nregs];
        ptr_map[..2].fill(true);
        assert_eq!(f.ptr_map, ptr_map);
    });
}

/// Bindings of the chain [`lower_intrinsics_expr`] rewrites.
const N: u32 = 100_000;

#[test]
fn intrinsic_lowering_over_a_long_spine_runs_in_a_small_stack() {
    on_small_stack(|| {
        // `v(i+1) = %i-fx* v(i) v0`, from the parameter-like `v0`, then
        // `ret vN`.
        let mut e = Expr::Ret(Atom::Var(N));
        for v in (1..=N).rev() {
            let mul = Bound::Prim(
                PrimOp::Intrinsic(Intrinsic::FxMul),
                vec![Atom::Var(v - 1), Atom::Var(0)],
            );
            e = Expr::Let(v, mul, Box::new(e));
        }
        let first_fresh = N + 1;
        let mut supply = NameSupply::from_names(vec!["v".to_string(); first_fresh as usize]);
        let e = lower_intrinsics_expr(e, &classic(), &mut supply).expect("lowers");
        // Each multiply becomes a shift that untags its left operand into a
        // fresh temporary, then the multiply itself, bound to the original
        // variable (its own temporary is renamed away).
        assert_eq!(supply.names.len(), (first_fresh + 2 * N) as usize);
        let lets: Vec<(VarId, &Bound)> = e.lets().collect();
        assert_eq!(lets.len(), 2 * N as usize);
        for (i, pair) in lets.chunks(2).enumerate() {
            let v = i as VarId + 1;
            // Expansions run from the last binding to the first, so the
            // last one drew the first fresh ids.
            let temp = first_fresh + 2 * (N - v);
            assert!(
                matches!(pair, [
                    (t, Bound::Prim(PrimOp::WordShr, shr)),
                    (w, Bound::Prim(PrimOp::WordMul, mul)),
                ] if *t == temp && *w == v
                    && shr[0] == Atom::Var(v - 1)
                    && mul[..] == [Atom::Var(temp), Atom::Var(0)]),
                "binding {v}: {pair:?}"
            );
        }
        assert_eq!(*e.tail(), Expr::Ret(Atom::Var(N)));
    });
}

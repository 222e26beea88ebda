//! Intrinsic lowering — the **Traditional baseline**.
//!
//! This pass is the reproduction's stand-in for a conventional compiler: a
//! catalogue of hand-written, per-primitive expansions, each encoding
//! detailed knowledge of how pairs, fixnums, vectors, … are laid out.  The
//! paper's point is that the *abstract* pipeline reaches the same code
//! without any of this — compare this file against the prelude plus the
//! general optimizer.
//!
//! Expansions are parameterized by the representation registry so the
//! baseline works under any tagging scheme, with the classic shortcuts
//! (fixnum tag 0, shift 3) special-cased exactly as a tuned 1990s compiler
//! would.

use sxr_ir::anf::{Atom, Bound, Expr, Link, Literal, Module, NameSupply, VarId};
use sxr_ir::prim::{Intrinsic, PrimOp};
use sxr_ir::rep::{roles, ImmediateRole, PointerRole, RepRegistry};

/// An intrinsic-lowering failure (role missing from the registry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntrinsicError(pub String);

impl std::fmt::Display for IntrinsicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "intrinsic lowering error: {}", self.0)
    }
}

impl std::error::Error for IntrinsicError {}

/// Rewrites every `%i-…` intrinsic application in `module` into its ideal
/// hand-coded instruction sequence for the layouts in `registry`.
///
/// # Errors
///
/// Returns [`IntrinsicError`] when a required representation role is
/// missing.
pub fn lower_intrinsics(module: &mut Module, registry: &RepRegistry) -> Result<(), IntrinsicError> {
    let mut supply = NameSupply::from_names(std::mem::take(&mut module.var_names));
    let ctx = Ctx::new(registry)?;
    for f in module.funs.iter_mut() {
        f.body = rewrite(f.body.take(), &ctx, &mut supply);
    }
    module.var_names = supply.names;
    Ok(())
}

/// Variant of [`lower_intrinsics`] over a pre-closure-conversion whole
/// program expression (the Traditional pipeline runs this *before* the
/// general optimizer, so inlining and branch rewriting apply to the
/// expanded templates too).
///
/// # Errors
///
/// Returns [`IntrinsicError`] when a required representation role is
/// missing.
pub fn lower_intrinsics_expr(
    e: Expr,
    registry: &RepRegistry,
    supply: &mut NameSupply,
) -> Result<Expr, IntrinsicError> {
    let ctx = Ctx::new(registry)?;
    Ok(rewrite(e, &ctx, supply))
}

/// Layout facts extracted from the registry.
struct Ctx {
    fx: ImmediateRole,
    bool_: ImmediateRole,
    char_: ImmediateRole,
    null: ImmediateRole,
    pair: PointerRole,
    vector: PointerRole,
    string: PointerRole,
    symbol: PointerRole,
    closure: PointerRole,
}

impl Ctx {
    fn new(reg: &RepRegistry) -> Result<Ctx, IntrinsicError> {
        let missing = |role: &str| IntrinsicError(format!("missing role `{role}`"));
        let imm = |role| reg.immediate_role(role).ok_or_else(|| missing(role));
        let ptr = |role| reg.pointer_role(role).ok_or_else(|| missing(role));
        Ok(Ctx {
            fx: imm(roles::FIXNUM)?,
            bool_: imm(roles::BOOLEAN)?,
            char_: imm(roles::CHAR)?,
            null: imm(roles::NULL)?,
            pair: ptr(roles::PAIR)?,
            vector: ptr(roles::VECTOR)?,
            string: ptr(roles::STRING)?,
            symbol: ptr(roles::SYMBOL)?,
            closure: ptr(roles::CLOSURE)?,
        })
    }
}

/// A little builder for expansion sequences.
struct Seq<'a> {
    steps: Vec<(VarId, Bound)>,
    supply: &'a mut NameSupply,
}

impl<'a> Seq<'a> {
    fn new(supply: &'a mut NameSupply) -> Seq<'a> {
        Seq {
            steps: Vec::new(),
            supply,
        }
    }

    fn prim(&mut self, op: PrimOp, args: Vec<Atom>) -> Atom {
        let v = self.supply.fresh("intr");
        self.steps.push((v, Bound::Prim(op, args)));
        Atom::Var(v)
    }

    /// Finishes the expansion: binds `result` to `v` and prepends the steps
    /// to `body`. When the result is one of the expansion's own temporaries,
    /// that temporary is renamed to `v` instead of emitting a copy.
    fn finish(mut self, v: VarId, result: Atom, body: Expr) -> Expr {
        let result = match result {
            Atom::Var(x) if self.steps.iter().any(|(sv, _)| *sv == x) => {
                for (sv, sb) in self.steps.iter_mut() {
                    if *sv == x {
                        *sv = v;
                    }
                    sb.for_each_atom_shallow_mut(&mut |a| {
                        if *a == Atom::Var(x) {
                            *a = Atom::Var(v);
                        }
                    });
                }
                let mut e = body;
                for (sv, sb) in self.steps.into_iter().rev() {
                    e = Expr::Let(sv, sb, Box::new(e));
                }
                return e;
            }
            other => other,
        };
        let mut e = Expr::Let(v, Bound::Atom(result), Box::new(body));
        for (sv, sb) in self.steps.into_iter().rev() {
            e = Expr::Let(sv, sb, Box::new(e));
        }
        e
    }
}

fn raw(w: i64) -> Atom {
    Atom::Lit(Literal::Raw(w))
}

/// Injects a raw 0/1 into a boolean.
fn inject_bool(s: &mut Seq<'_>, b: ImmediateRole, raw01: Atom) -> Atom {
    let shifted = s.prim(PrimOp::WordShl, vec![raw01, raw(b.shift as i64)]);
    if b.tag == 0 {
        shifted
    } else {
        s.prim(PrimOp::WordOr, vec![shifted, raw(b.tag as i64)])
    }
}

/// Immediate type test: `(v & mask) == tag`, injected as a boolean.
fn imm_test(s: &mut Seq<'_>, ctx: &Ctx, t: ImmediateRole, v: Atom) -> Atom {
    let mask = (1i64 << t.tag_bits) - 1;
    let low = s.prim(PrimOp::WordAnd, vec![v, raw(mask)]);
    let cmp = s.prim(PrimOp::WordEq, vec![low, raw(t.tag as i64)]);
    inject_bool(s, ctx.bool_, cmp)
}

/// Pointer type test on the low 3 bits.
fn ptr_test(s: &mut Seq<'_>, ctx: &Ctx, p: PointerRole, v: Atom) -> Atom {
    let low = s.prim(PrimOp::WordAnd, vec![v, raw(0b111)]);
    let cmp = s.prim(PrimOp::WordEq, vec![low, raw(p.tag as i64)]);
    inject_bool(s, ctx.bool_, cmp)
}

/// Converts a tagged fixnum into a raw byte offset (`index * 8`).
fn fixnum_to_byteoff(s: &mut Seq<'_>, fx: ImmediateRole, i: Atom) -> Atom {
    if fx.tag == 0 && fx.shift == 3 {
        // The classic trick: a shift-3, tag-0 fixnum *is* its byte offset.
        return i;
    }
    let detag = if fx.tag == 0 {
        i
    } else {
        s.prim(PrimOp::WordSub, vec![i, raw(fx.tag as i64)])
    };
    let idx = s.prim(PrimOp::WordShr, vec![detag, raw(fx.shift as i64)]);
    s.prim(PrimOp::WordShl, vec![idx, raw(3)])
}

fn project_fixnum(s: &mut Seq<'_>, fx: ImmediateRole, a: Atom) -> Atom {
    s.prim(PrimOp::WordShr, vec![a, raw(fx.shift as i64)])
}

fn inject_fixnum(s: &mut Seq<'_>, fx: ImmediateRole, a: Atom) -> Atom {
    let shifted = s.prim(PrimOp::WordShl, vec![a, raw(fx.shift as i64)]);
    if fx.tag == 0 {
        shifted
    } else {
        s.prim(PrimOp::WordOr, vec![shifted, raw(fx.tag as i64)])
    }
}

fn expand(i: Intrinsic, args: &[Atom], ctx: &Ctx, s: &mut Seq<'_>) -> Atom {
    use Intrinsic::*;
    let fx = ctx.fx;
    match i {
        Car => s.prim(PrimOp::SpecRef(ctx.pair.id), vec![args[0].clone(), raw(0)]),
        Cdr => s.prim(PrimOp::SpecRef(ctx.pair.id), vec![args[0].clone(), raw(8)]),
        Cons => {
            let p = s.prim(
                PrimOp::SpecAlloc(ctx.pair.id),
                vec![raw(2), args[0].clone()],
            );
            let _ = s.prim(
                PrimOp::SpecSet(ctx.pair.id),
                vec![p.clone(), raw(8), args[1].clone()],
            );
            p
        }
        SetCar => s.prim(
            PrimOp::SpecSet(ctx.pair.id),
            vec![args[0].clone(), raw(0), args[1].clone()],
        ),
        SetCdr => s.prim(
            PrimOp::SpecSet(ctx.pair.id),
            vec![args[0].clone(), raw(8), args[1].clone()],
        ),
        IsPair => ptr_test(s, ctx, ctx.pair, args[0].clone()),
        IsNull => imm_test(s, ctx, ctx.null, args[0].clone()),
        IsFixnum => imm_test(s, ctx, fx, args[0].clone()),
        IsBoolean => imm_test(s, ctx, ctx.bool_, args[0].clone()),
        IsChar => imm_test(s, ctx, ctx.char_, args[0].clone()),
        IsVector => ptr_test(s, ctx, ctx.vector, args[0].clone()),
        IsString => ptr_test(s, ctx, ctx.string, args[0].clone()),
        IsSymbol => ptr_test(s, ctx, ctx.symbol, args[0].clone()),
        IsProcedure => ptr_test(s, ctx, ctx.closure, args[0].clone()),
        FxAdd => {
            let sum = s.prim(PrimOp::WordAdd, vec![args[0].clone(), args[1].clone()]);
            if fx.tag == 0 {
                sum
            } else {
                s.prim(PrimOp::WordSub, vec![sum, raw(fx.tag as i64)])
            }
        }
        FxSub => {
            let diff = s.prim(PrimOp::WordSub, vec![args[0].clone(), args[1].clone()]);
            if fx.tag == 0 {
                diff
            } else {
                s.prim(PrimOp::WordAdd, vec![diff, raw(fx.tag as i64)])
            }
        }
        FxMul => {
            if fx.tag == 0 {
                let a = project_fixnum(s, fx, args[0].clone());
                s.prim(PrimOp::WordMul, vec![a, args[1].clone()])
            } else {
                let a = project_fixnum(s, fx, args[0].clone());
                let b = project_fixnum(s, fx, args[1].clone());
                let m = s.prim(PrimOp::WordMul, vec![a, b]);
                inject_fixnum(s, fx, m)
            }
        }
        FxQuotient => {
            let a = project_fixnum(s, fx, args[0].clone());
            let b = project_fixnum(s, fx, args[1].clone());
            let q = s.prim(PrimOp::WordQuot, vec![a, b]);
            inject_fixnum(s, fx, q)
        }
        FxRemainder => {
            let a = project_fixnum(s, fx, args[0].clone());
            let b = project_fixnum(s, fx, args[1].clone());
            let r = s.prim(PrimOp::WordRem, vec![a, b]);
            inject_fixnum(s, fx, r)
        }
        FxLt => {
            // Same-tag fixnums compare correctly while tagged.
            let c = s.prim(PrimOp::WordLt, vec![args[0].clone(), args[1].clone()]);
            inject_bool(s, ctx.bool_, c)
        }
        FxEq | IsEq => {
            let c = s.prim(PrimOp::WordEq, vec![args[0].clone(), args[1].clone()]);
            inject_bool(s, ctx.bool_, c)
        }
        VectorRef => {
            let off = fixnum_to_byteoff(s, fx, args[1].clone());
            s.prim(PrimOp::SpecRef(ctx.vector.id), vec![args[0].clone(), off])
        }
        VectorSet => {
            let off = fixnum_to_byteoff(s, fx, args[1].clone());
            s.prim(
                PrimOp::SpecSet(ctx.vector.id),
                vec![args[0].clone(), off, args[2].clone()],
            )
        }
        VectorLength => {
            let h = s.prim(PrimOp::SpecHeader(ctx.vector.id), vec![args[0].clone()]);
            let len = s.prim(PrimOp::WordShr, vec![h, raw(16)]);
            inject_fixnum(s, fx, len)
        }
        MakeVector => {
            let n = project_fixnum(s, fx, args[0].clone());
            s.prim(PrimOp::SpecAlloc(ctx.vector.id), vec![n, args[1].clone()])
        }
        StringRef => {
            let off = fixnum_to_byteoff(s, fx, args[1].clone());
            s.prim(PrimOp::SpecRef(ctx.string.id), vec![args[0].clone(), off])
        }
        StringSet => {
            let off = fixnum_to_byteoff(s, fx, args[1].clone());
            s.prim(
                PrimOp::SpecSet(ctx.string.id),
                vec![args[0].clone(), off, args[2].clone()],
            )
        }
        StringLength => {
            let h = s.prim(PrimOp::SpecHeader(ctx.string.id), vec![args[0].clone()]);
            let len = s.prim(PrimOp::WordShr, vec![h, raw(16)]);
            inject_fixnum(s, fx, len)
        }
        MakeString => {
            let n = project_fixnum(s, fx, args[0].clone());
            s.prim(PrimOp::SpecAlloc(ctx.string.id), vec![n, args[1].clone()])
        }
        CharToInt => {
            let ch = ctx.char_;
            // `(c >> (cs - fs))` yields the fixnum directly when the fixnum
            // tag is 0 and the char tag's surviving bits are all zero.
            if fx.tag == 0 && ch.shift > fx.shift && (ch.tag >> (ch.shift - fx.shift)) == 0 {
                return s.prim(
                    PrimOp::WordShr,
                    vec![args[0].clone(), raw((ch.shift - fx.shift) as i64)],
                );
            }
            let p = s.prim(PrimOp::WordShr, vec![args[0].clone(), raw(ch.shift as i64)]);
            inject_fixnum(s, fx, p)
        }
        IntToChar => {
            let ch = ctx.char_;
            if fx.tag == 0 && ch.shift > fx.shift {
                let t = s.prim(
                    PrimOp::WordShl,
                    vec![args[0].clone(), raw((ch.shift - fx.shift) as i64)],
                );
                return if ch.tag == 0 {
                    t
                } else {
                    s.prim(PrimOp::WordOr, vec![t, raw(ch.tag as i64)])
                };
            }
            let p = project_fixnum(s, fx, args[0].clone());
            let t = s.prim(PrimOp::WordShl, vec![p, raw(ch.shift as i64)]);
            if ch.tag == 0 {
                t
            } else {
                s.prim(PrimOp::WordOr, vec![t, raw(ch.tag as i64)])
            }
        }
        SymbolToString => s.prim(
            PrimOp::SpecRef(ctx.symbol.id),
            vec![args[0].clone(), raw(0)],
        ),
    }
}

/// Rewrites the spine at the head of `e`, and everything nested in it, in
/// one pass over its bindings: nested code first, in spine order, then the
/// intrinsic bindings, expanded from last to first. Fresh variables are
/// drawn in that order.
fn rewrite(e: Expr, ctx: &Ctx, supply: &mut NameSupply) -> Expr {
    let mut nested = |e: &mut Expr| *e = rewrite(e.take(), ctx, supply);
    let (mut links, mut tail) = e.into_spine();
    for link in &mut links {
        match link {
            Link::Let(_, Bound::If(_, then, els)) => {
                nested(then);
                nested(els);
            }
            Link::Let(_, Bound::Lambda(l)) => nested(&mut l.body),
            Link::Let(_, Bound::Body(inner)) => nested(inner),
            Link::LetRec(binds) => binds.iter_mut().for_each(|(_, l)| nested(&mut l.body)),
            Link::Let(..) => {}
        }
    }
    if let Expr::If(_, then, els) = &mut tail {
        nested(then);
        nested(els);
    }
    links.into_iter().rev().fold(tail, |body, link| match link {
        Link::Let(v, Bound::Prim(PrimOp::Intrinsic(i), args)) => {
            let mut s = Seq::new(supply);
            let result = expand(i, &args, ctx, &mut s);
            s.finish(v, result, body)
        }
        Link::Let(v, b) => Expr::Let(v, b, Box::new(body)),
        Link::LetRec(binds) => Expr::LetRec(binds, Box::new(body)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classic() -> RepRegistry {
        let mut reg = RepRegistry::new();
        let fx = reg.intern_immediate("fixnum", 3, 0, 3).unwrap();
        let bo = reg.intern_immediate("boolean", 8, 0b0000_0010, 8).unwrap();
        let ch = reg.intern_immediate("char", 8, 0b0001_0010, 8).unwrap();
        let nil = reg.intern_immediate("null", 8, 0b0010_0010, 8).unwrap();
        let un = reg
            .intern_immediate("unspecified", 8, 0b0011_0010, 8)
            .unwrap();
        let pair = reg.intern_pointer("pair", 1, false).unwrap();
        let vecr = reg.intern_pointer("vector", 3, false).unwrap();
        let st = reg.intern_pointer("string", 5, false).unwrap();
        let sy = reg.intern_pointer("symbol", 6, false).unwrap();
        let cl = reg.intern_pointer("closure", 7, false).unwrap();
        for (r, id) in [
            ("fixnum", fx),
            ("boolean", bo),
            ("char", ch),
            ("null", nil),
            ("unspecified", un),
            ("pair", pair),
            ("vector", vecr),
            ("string", st),
            ("symbol", sy),
            ("closure", cl),
        ] {
            reg.provide_role(r, id).unwrap();
        }
        reg
    }

    fn lower_one(i: Intrinsic, nargs: usize) -> Expr {
        let reg = classic();
        let args: Vec<Atom> = (0..nargs as u32).map(|k| Atom::Var(100 + k)).collect();
        let body = Expr::Let(
            1,
            Bound::Prim(PrimOp::Intrinsic(i), args),
            Box::new(Expr::Ret(Atom::Var(1))),
        );
        let mut m = Module {
            funs: vec![sxr_ir::anf::Fun {
                name: None,
                self_var: 0,
                params: (100..100 + nargs as u32).collect(),
                rest: None,
                free_count: 0,
                body,
            }],
            main: 0,
            global_names: vec![],
            var_names: vec!["v".into(); 200],
        };
        lower_intrinsics(&mut m, &reg).unwrap();
        m.funs.remove(0).body
    }

    fn count_lets(e: &Expr) -> usize {
        match e {
            Expr::Let(_, _, b) => 1 + count_lets(b),
            _ => 0,
        }
    }

    #[test]
    fn car_is_one_op() {
        let e = lower_one(Intrinsic::Car, 1);
        assert_eq!(count_lets(&e), 1);
        assert!(matches!(
            e,
            Expr::Let(1, Bound::Prim(PrimOp::SpecRef(_), _), _)
        ));
    }

    #[test]
    fn fxadd_is_one_op_with_zero_tag() {
        let e = lower_one(Intrinsic::FxAdd, 2);
        assert_eq!(count_lets(&e), 1);
        assert!(matches!(
            e,
            Expr::Let(1, Bound::Prim(PrimOp::WordAdd, _), _)
        ));
    }

    #[test]
    fn cons_is_two_ops() {
        let e = lower_one(Intrinsic::Cons, 2);
        assert_eq!(count_lets(&e), 2);
    }

    #[test]
    fn vector_ref_uses_fixnum_as_byte_offset() {
        // With shift-3 tag-0 fixnums the index needs no adjustment at all.
        let e = lower_one(Intrinsic::VectorRef, 2);
        assert_eq!(count_lets(&e), 1);
        let Expr::Let(_, Bound::Prim(PrimOp::SpecRef(_), args), _) = &e else {
            panic!()
        };
        assert_eq!(args[1], Atom::Var(101), "index used directly");
    }

    #[test]
    fn predicates_are_test_plus_inject() {
        // and + cmp + shl + or = 4 ops unfused.
        let e = lower_one(Intrinsic::IsPair, 1);
        assert_eq!(count_lets(&e), 4);
    }

    #[test]
    fn char_to_int_single_shift() {
        let e = lower_one(Intrinsic::CharToInt, 1);
        assert_eq!(count_lets(&e), 1, "classic scheme collapses to one shift");
    }

    #[test]
    fn missing_role_reported() {
        let mut reg = RepRegistry::new();
        let fx = reg.intern_immediate("fixnum", 3, 0, 3).unwrap();
        reg.provide_role("fixnum", fx).unwrap();
        let mut m = Module::default();
        m.funs.push(sxr_ir::anf::Fun {
            name: None,
            self_var: 0,
            params: vec![],
            rest: None,
            free_count: 0,
            body: Expr::Ret(Atom::Lit(Literal::Unspecified)),
        });
        let err = lower_intrinsics(&mut m, &reg).unwrap_err();
        assert!(err.0.contains("missing role"));
    }
}

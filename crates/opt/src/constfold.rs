//! Constant & copy propagation with folding.
//!
//! Besides ordinary word arithmetic, this pass constant-folds the
//! *representation facility itself*: `%make-immediate-type` /
//! `%make-pointer-type` applications with constant arguments become
//! compile-time [`Literal::Rep`] constants (registered in the registry), and
//! `%provide-rep!` registers roles.  This is what makes *user-defined* data
//! types as optimizable as the library's own — the paper's first-classness
//! claim with teeth.

use crate::scan::{const_symbol, fold_rep_type};
use crate::util::{lit_word, truthiness};
use sxr_ir::anf::{Atom, Bound, Expr, GlobalId, Literal, Test, VarId};
use sxr_ir::prim::PrimOp;
use sxr_ir::rep::{RepKind, RepRegistry};
use sxr_ir::IdMap;

/// A folding error (malformed representation declarations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldError(pub String);

impl std::fmt::Display for FoldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "constant folding error: {}", self.0)
    }
}

impl std::error::Error for FoldError {}

/// Runs constant/copy propagation and folding over the whole program.
///
/// # Errors
///
/// Returns [`FoldError`] when folding a representation declaration fails
/// (conflicting parameters, bad role).
pub fn constfold(
    e: Expr,
    globals: &IdMap<GlobalId, Literal>,
    registry: &mut RepRegistry,
) -> Result<Expr, FoldError> {
    let mut st = Folder {
        globals,
        registry,
        env: IdMap::default(),
    };
    st.walk(e)
}

struct Folder<'a> {
    globals: &'a IdMap<GlobalId, Literal>,
    registry: &'a mut RepRegistry,
    /// Fully resolved replacement for a variable.
    env: IdMap<VarId, Atom>,
}

impl Folder<'_> {
    fn resolve(&self, a: &Atom) -> Atom {
        match a {
            Atom::Var(v) => self.env.get(v).cloned().unwrap_or_else(|| a.clone()),
            lit => lit.clone(),
        }
    }

    fn resolve_all(&self, atoms: &[Atom]) -> Vec<Atom> {
        atoms.iter().map(|a| self.resolve(a)).collect()
    }

    fn word_of(&self, a: &Atom) -> Option<i64> {
        match a {
            Atom::Lit(l) => lit_word(l, self.registry),
            Atom::Var(_) => None,
        }
    }

    /// Attempts to fold a primitive application to a literal.
    fn fold_prim(&mut self, op: PrimOp, args: &[Atom]) -> Result<Option<Literal>, FoldError> {
        use PrimOp::*;
        let bin_words =
            |s: &Self| -> Option<(i64, i64)> { Some((s.word_of(&args[0])?, s.word_of(&args[1])?)) };
        Ok(match op {
            WordAdd | WordSub | WordMul | WordAnd | WordOr | WordXor | WordShl | WordShr
            | WordEq | WordLt | PtrEq => {
                let Some((a, b)) = bin_words(self) else {
                    return Ok(None);
                };
                let w = match op {
                    WordAdd => a.wrapping_add(b),
                    WordSub => a.wrapping_sub(b),
                    WordMul => a.wrapping_mul(b),
                    WordAnd => a & b,
                    WordOr => a | b,
                    WordXor => a ^ b,
                    WordShl => a.wrapping_shl((b & 63) as u32),
                    WordShr => a.wrapping_shr((b & 63) as u32),
                    WordEq | PtrEq => (a == b) as i64,
                    WordLt => (a < b) as i64,
                    _ => unreachable!(),
                };
                Some(Literal::Raw(w))
            }
            WordQuot | WordRem => {
                let Some((a, b)) = bin_words(self) else {
                    return Ok(None);
                };
                if b == 0 {
                    return Ok(None); // preserve the runtime error
                }
                Some(Literal::Raw(if op == WordQuot {
                    a.wrapping_div(b)
                } else {
                    a.wrapping_rem(b)
                }))
            }
            MakeImmType | MakePtrType => fold_rep_type(op, args, self.registry)
                .map_err(|e| FoldError(e.0))?
                .map(Literal::Rep),
            ProvideRep => {
                let (Some(role), Atom::Lit(Literal::Rep(rid))) = (const_symbol(&args[0]), &args[1])
                else {
                    return Ok(None);
                };
                self.registry
                    .provide_role(&role, *rid)
                    .map_err(|e| FoldError(e.0))?;
                Some(Literal::Unspecified)
            }
            RepInject => {
                let Atom::Lit(Literal::Rep(rid)) = &args[0] else {
                    return Ok(None);
                };
                let Some(w) = self.word_of(&args[1]) else {
                    return Ok(None);
                };
                match self.registry.info(*rid).kind {
                    RepKind::Immediate { tag, shift, .. } => {
                        Some(Literal::Raw((w << shift) | tag as i64))
                    }
                    RepKind::Pointer { .. } => None,
                }
            }
            RepProject => {
                let Atom::Lit(Literal::Rep(rid)) = &args[0] else {
                    return Ok(None);
                };
                let Some(w) = self.word_of(&args[1]) else {
                    return Ok(None);
                };
                match self.registry.info(*rid).kind {
                    RepKind::Immediate { shift, .. } => Some(Literal::Raw(w >> shift)),
                    RepKind::Pointer { .. } => None,
                }
            }
            RepTest => {
                let Atom::Lit(Literal::Rep(rid)) = &args[0] else {
                    return Ok(None);
                };
                let Some(w) = self.word_of(&args[1]) else {
                    return Ok(None);
                };
                Some(Literal::Raw(self.registry.tag_matches(*rid, w) as i64))
            }
            _ => None,
        })
    }

    fn fold_test(&self, t: &Test) -> Option<bool> {
        match t {
            Test::Truthy(Atom::Lit(l)) => truthiness(l, self.registry),
            Test::NonZero(Atom::Lit(l)) => Some(lit_word(l, self.registry)? != 0),
            _ => None,
        }
    }

    fn walk(&mut self, e: Expr) -> Result<Expr, FoldError> {
        Ok(match e {
            Expr::Let(v, b, body) => {
                let b = self.walk_bound(b)?;
                // Record substitutions for trivial bindings.
                if let Bound::Atom(a) = &b {
                    self.env.insert(v, a.clone());
                }
                Expr::Let(v, b, Box::new(self.walk(*body)?))
            }
            Expr::If(t, a, b) => {
                let t = self.resolve_test(t);
                match self.fold_test(&t) {
                    Some(true) => self.walk(*a)?,
                    Some(false) => self.walk(*b)?,
                    None => Expr::If(t, Box::new(self.walk(*a)?), Box::new(self.walk(*b)?)),
                }
            }
            Expr::Ret(a) => Expr::Ret(self.resolve(&a)),
            Expr::TailCall(f, args) => Expr::TailCall(self.resolve(&f), self.resolve_all(&args)),
            Expr::TailCallKnown(fid, clo, args) => {
                Expr::TailCallKnown(fid, self.resolve(&clo), self.resolve_all(&args))
            }
            Expr::LetRec(binds, body) => {
                let binds = binds
                    .into_iter()
                    .map(|(v, mut f)| {
                        f.body = Box::new(self.walk(*f.body)?);
                        Ok((v, f))
                    })
                    .collect::<Result<_, FoldError>>()?;
                Expr::LetRec(binds, Box::new(self.walk(*body)?))
            }
        })
    }

    fn resolve_test(&self, t: Test) -> Test {
        match t {
            Test::Truthy(a) => Test::Truthy(self.resolve(&a)),
            Test::NonZero(a) => Test::NonZero(self.resolve(&a)),
        }
    }

    fn walk_bound(&mut self, b: Bound) -> Result<Bound, FoldError> {
        Ok(match b {
            Bound::Atom(a) => Bound::Atom(self.resolve(&a)),
            Bound::Prim(op, args) => {
                let args = self.resolve_all(&args);
                match self.fold_prim(op, &args)? {
                    Some(lit) => Bound::Atom(Atom::Lit(lit)),
                    None => Bound::Prim(op, args),
                }
            }
            Bound::Call(f, args) => Bound::Call(self.resolve(&f), self.resolve_all(&args)),
            Bound::CallKnown(fid, clo, args) => {
                Bound::CallKnown(fid, self.resolve(&clo), self.resolve_all(&args))
            }
            Bound::GlobalGet(g) => match self.globals.get(&g) {
                Some(lit) => Bound::Atom(Atom::Lit(lit.clone())),
                None => Bound::GlobalGet(g),
            },
            Bound::GlobalSet(g, a) => Bound::GlobalSet(g, self.resolve(&a)),
            Bound::Lambda(mut f) => {
                f.body = Box::new(self.walk(*f.body)?);
                Bound::Lambda(f)
            }
            Bound::MakeClosure(fid, frees) => Bound::MakeClosure(fid, self.resolve_all(&frees)),
            Bound::ClosureRef(i) => Bound::ClosureRef(i),
            Bound::ClosurePatch(c, i, x) => {
                Bound::ClosurePatch(self.resolve(&c), i, self.resolve(&x))
            }
            Bound::If(t, a, bexp) => {
                let t = self.resolve_test(t);
                match self.fold_test(&t) {
                    Some(true) => Bound::Body(Box::new(self.walk(*a)?)),
                    Some(false) => Bound::Body(Box::new(self.walk(*bexp)?)),
                    None => Bound::If(t, Box::new(self.walk(*a)?), Box::new(self.walk(*bexp)?)),
                }
            }
            Bound::Body(inner) => Bound::Body(Box::new(self.walk(*inner)?)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxr_ast::{convert_assignments, Expander};
    use sxr_ir::lower_program;
    use sxr_sexp::{parse_all, Datum};

    fn fold_src(src: &str) -> (Expr, RepRegistry) {
        let mut ex = Expander::new();
        let unit = ex.expand_unit(&parse_all(src).unwrap()).unwrap();
        let mut p = ex.into_program(vec![unit]);
        convert_assignments(&mut p).unwrap();
        let lowered = lower_program(p).unwrap();
        let mut reg = RepRegistry::new();
        let rep_globals = crate::scan::scan_representations(&lowered.main_body, &mut reg).unwrap();
        let globals = crate::globals::global_constants(&lowered.main_body, &rep_globals);
        let mut e = constfold(lowered.main_body, &globals, &mut reg).unwrap();
        // Folding is interleaved with cleanup in the real pipeline; do the
        // same here so folded branches splice through.
        for _ in 0..4 {
            let (e2, _) = crate::cleanup::cleanup(e);
            e = constfold(e2, &globals, &mut reg).unwrap();
        }
        (e, reg)
    }

    fn final_ret(e: &Expr) -> &Expr {
        match e {
            Expr::Let(_, _, b) => final_ret(b),
            other => other,
        }
    }

    #[test]
    fn word_arith_folds() {
        let (e, _) = fold_src("(%word+ 2 3)");
        // literals 2 and 3 are *fixnum* literals; without a fixnum role they
        // cannot be encoded, so nothing folds...
        assert!(matches!(final_ret(&e), Expr::Ret(Atom::Var(_))));
        // ...but with a fixnum representation declared, they do.
        let (e, _) = fold_src(
            "(define fx (%make-immediate-type 'fixnum 3 0 3))
             (%provide-rep! 'fixnum fx)
             (%word+ 2 3)",
        );
        match final_ret(&e) {
            Expr::Ret(Atom::Lit(Literal::Raw(w))) => assert_eq!(*w, 40), // 16+24
            other => panic!("expected folded constant, got {other:?}"),
        }
    }

    #[test]
    fn rep_ops_fold_on_constants() {
        let (e, _) = fold_src(
            "(define fx (%make-immediate-type 'fixnum 3 0 3))
             (%provide-rep! 'fixnum fx)
             (%rep-project fx (%rep-inject fx 5))",
        );
        // The literal 5 is the *tagged* fixnum word 40; inject shifts it
        // again, project undoes that: the folded result is the word 40.
        match final_ret(&e) {
            Expr::Ret(Atom::Lit(Literal::Raw(40))) => {}
            other => panic!("expected raw 40, got {other:?}"),
        }
    }

    #[test]
    fn if_folding_selects_branch() {
        let (e, _) = fold_src("(if #f (%error \"no\") 42)");
        match final_ret(&e) {
            Expr::Ret(Atom::Lit(Literal::Datum(Datum::Fixnum(42)))) => {}
            other => panic!("expected 42 ret, got {other:?}"),
        }
    }

    #[test]
    fn copy_propagation() {
        // Copies are `Bound::Atom` chains in the IR; `let` itself is a call
        // (the inliner's job), so build the shape directly.
        let mut reg = RepRegistry::new();
        let e = Expr::Let(
            1,
            Bound::Atom(Atom::Lit(Literal::Raw(7))),
            Box::new(Expr::Let(
                2,
                Bound::Atom(Atom::Var(1)),
                Box::new(Expr::Ret(Atom::Var(2))),
            )),
        );
        let e = constfold(e, &IdMap::default(), &mut reg).unwrap();
        match final_ret(&e) {
            Expr::Ret(Atom::Lit(Literal::Raw(7))) => {}
            other => panic!("expected 7, got {other:?}"),
        }
    }

    #[test]
    fn user_rep_type_folds_like_library_ones() {
        // A *user* type declared with constants becomes compile-time known.
        let (_, reg) = fold_src(
            "(define my-rep (%make-pointer-type 'point 4 #t))
             my-rep",
        );
        assert!(reg.by_name("point").is_some());
    }

    #[test]
    fn quotient_by_zero_not_folded() {
        let (e, _) = fold_src(
            "(define fx (%make-immediate-type 'fixnum 3 0 3))
             (%provide-rep! 'fixnum fx)
             (%word-quotient 1 0)",
        );
        fn has_prim(e: &Expr) -> bool {
            match e {
                Expr::Let(_, Bound::Prim(PrimOp::WordQuot, _), _) => true,
                Expr::Let(_, _, b) => has_prim(b),
                _ => false,
            }
        }
        assert!(has_prim(&e), "runtime error preserved");
    }
}

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

/// Runs constant/copy propagation and folding over the whole program, in
/// place.
///
/// # Errors
///
/// Returns [`FoldError`] when folding a representation declaration fails
/// (conflicting parameters, bad role). `e` is then partly rewritten.
pub fn constfold(
    e: &mut Expr,
    globals: &IdMap<GlobalId, Literal>,
    registry: &mut RepRegistry,
) -> Result<(), FoldError> {
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
    /// Replaces `a` by what its variable resolves to, if anything.
    fn resolve(&self, a: &mut Atom) {
        if let Some(r) = a.as_var().and_then(|v| self.env.get(&v)) {
            *a = r.clone();
        }
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

    /// Walks `e` in place along its spine. A conditional whose test folds
    /// is replaced by the arm it takes, and the walk goes on into that arm.
    fn walk(&mut self, e: &mut Expr) -> Result<(), FoldError> {
        let mut e = e;
        loop {
            match e {
                Expr::Let(v, b, _) => {
                    self.walk_bound(b)?;
                    // Record substitutions for trivial bindings.
                    if let Bound::Atom(a) = b {
                        self.env.insert(*v, a.clone());
                    }
                }
                Expr::If(t, a, b) => {
                    self.resolve(t.atom_mut());
                    let arm = match self.fold_test(t) {
                        Some(true) => a.take(),
                        Some(false) => b.take(),
                        None => {
                            self.walk(a)?;
                            return self.walk(b);
                        }
                    };
                    *e = arm;
                    continue;
                }
                Expr::LetRec(binds, _) => {
                    for (_, f) in binds {
                        self.walk(&mut f.body)?;
                    }
                }
                tail => {
                    tail.for_each_atom_shallow_mut(&mut |a| self.resolve(a));
                    return Ok(());
                }
            }
            match e.next_mut() {
                Some(next) => e = next,
                None => unreachable!("only bindings go on"),
            }
        }
    }

    fn walk_bound(&mut self, b: &mut Bound) -> Result<(), FoldError> {
        match b {
            Bound::Prim(op, args) => {
                args.iter_mut().for_each(|a| self.resolve(a));
                if let Some(lit) = self.fold_prim(*op, args)? {
                    *b = Bound::Atom(Atom::Lit(lit));
                }
            }
            Bound::GlobalGet(g) => {
                if let Some(lit) = self.globals.get(g) {
                    *b = Bound::Atom(Atom::Lit(lit.clone()));
                }
            }
            Bound::Lambda(f) => self.walk(&mut f.body)?,
            Bound::If(t, x, y) => {
                self.resolve(t.atom_mut());
                let Some(taken) = self.fold_test(t) else {
                    self.walk(x)?;
                    return self.walk(y);
                };
                let Bound::If(_, x, y) = b.take() else {
                    unreachable!("matched a conditional")
                };
                *b = Bound::Body(if taken { x } else { y });
                let Bound::Body(inner) = b else {
                    unreachable!("just made a body")
                };
                self.walk(inner)?;
            }
            Bound::Body(inner) => self.walk(inner)?,
            other => other.for_each_atom_shallow_mut(&mut |a| self.resolve(a)),
        }
        Ok(())
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
        let mut e = lowered.main_body;
        constfold(&mut e, &globals, &mut reg).unwrap();
        // Folding is interleaved with cleanup in the real pipeline; do the
        // same here so folded branches splice through.
        for _ in 0..4 {
            crate::cleanup::cleanup(&mut e);
            constfold(&mut e, &globals, &mut reg).unwrap();
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
        let mut e = e;
        constfold(&mut e, &IdMap::default(), &mut reg).unwrap();
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

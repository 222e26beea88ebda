//! IR well-formedness: the one checker for the ANF invariants.
//!
//! A single recursive walk checks the IR on either side of closure
//! conversion and, given a [`RepRegistry`], representation consistency too.
//! Three entry points share it:
//!
//! * [`verify_expr`]: the whole-program expression *before* closure
//!   conversion, as the optimizer re-checks it after every pass;
//! * [`validate_module`]: the structure of a closure-converted module;
//! * [`verify_module`]: the same plus registry consistency, as the pipeline
//!   checks every module before code generation.
//!
//! It exists to turn "miscompiled program" into "failed invariant at the
//! pass that broke it", with an excerpt of the offending binding.

use crate::anf::{Atom, Bound, Expr, FnId, Fun, FunDef, GlobalId, Literal, Module, VarId};
use crate::pretty::expr_to_string;
use crate::prim::PrimOp;
use crate::rep::{RepId, RepKind, RepRegistry};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::iter::once;

/// The specific IR invariant that was violated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateErrorKind {
    /// A variable is used before (or without) being defined.
    UndefinedVar {
        /// The offending variable.
        var: VarId,
    },
    /// A variable is bound twice (single assignment).
    RedefinedVar {
        /// The offending variable.
        var: VarId,
    },
    /// A parameter (or the self/rest slot) repeats another parameter.
    DuplicateParam {
        /// The offending variable.
        var: VarId,
    },
    /// A tail call appears where only non-tail expressions are allowed
    /// (inside a `Bound::If` branch or a `Bound::Body`).
    TailCallInNonTail,
    /// An [`Expr::LetRec`] survived closure conversion.
    LetRecSurvives,
    /// A [`Bound::Lambda`] survived closure conversion.
    LambdaSurvives,
    /// A closure-converted form (known call, closure allocation, closure
    /// slot access or patch) appears before closure conversion.
    PostConversionForm {
        /// The form's name.
        form: &'static str,
    },
    /// A `ClosureRef` index is outside the function's `free_count`.
    ClosureRefOutOfRange {
        /// The index used.
        index: usize,
        /// The function's free-slot count.
        free_count: usize,
    },
    /// A `CallKnown`/`MakeClosure`/`TailCallKnown` names a function id not
    /// in the module.
    FnIdOutOfRange {
        /// The function id used.
        fnid: FnId,
    },
    /// A known call's argument count differs from the callee's parameters.
    ArityMismatch {
        /// The callee.
        fnid: FnId,
        /// Parameters the callee declares.
        want: usize,
        /// Arguments supplied.
        got: usize,
    },
    /// A known call targets a variadic function (must stay dynamic).
    VariadicKnownCall {
        /// The callee.
        fnid: FnId,
    },
    /// A primitive application has the wrong number of operands.
    PrimArityMismatch {
        /// The primitive.
        op: PrimOp,
        /// Operands the primitive takes.
        want: usize,
        /// Operands supplied.
        got: usize,
    },
    /// A global id is outside the module's global table.
    GlobalOutOfRange {
        /// The global id used.
        global: GlobalId,
    },
    /// A `MakeClosure` capture count differs from the callee's
    /// `free_count`.
    CaptureCountMismatch {
        /// The closed-over function.
        fnid: FnId,
        /// Free slots the function declares.
        want: usize,
        /// Captures supplied.
        got: usize,
    },
    /// The module's entry function id is out of range.
    MainOutOfRange,
    /// A rep literal or specialized op names a rep id the registry does
    /// not hold.
    UnregisteredRep {
        /// The rep id used.
        rep: RepId,
        /// Entries in the registry.
        registered: usize,
    },
    /// A specialized memory op (`SpecHeader`/`SpecAlloc`/`SpecRef`/
    /// `SpecSet`) names a non-pointer rep.
    SpecOnNonPointer {
        /// The specialized op.
        op: PrimOp,
        /// The rep's name.
        rep: String,
    },
    /// The rep-globals table maps a global to an unregistered rep id.
    UnregisteredRepGlobal {
        /// The global.
        global: GlobalId,
        /// The rep id it maps to.
        rep: RepId,
        /// Entries in the registry.
        registered: usize,
    },
}

impl fmt::Display for ValidateErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ValidateErrorKind::*;
        match self {
            UndefinedVar { var } => write!(f, "use of undefined variable v{var}"),
            RedefinedVar { var } => write!(f, "variable v{var} defined twice"),
            DuplicateParam { var } => write!(f, "duplicate parameter v{var}"),
            TailCallInNonTail => write!(f, "tail call in non-tail position"),
            LetRecSurvives => write!(f, "letrec survives closure conversion"),
            LambdaSurvives => write!(f, "nested lambda survives closure conversion"),
            PostConversionForm { form } => write!(
                f,
                "post-closure-conversion form {form} appeared before closure conversion"
            ),
            ClosureRefOutOfRange { index, free_count } => {
                write!(
                    f,
                    "closure-ref {index} out of range (free_count {free_count})"
                )
            }
            FnIdOutOfRange { fnid } => write!(f, "function id f{fnid} out of range"),
            ArityMismatch { fnid, want, got } => {
                write!(
                    f,
                    "known call to f{fnid} with {got} args; function takes {want}"
                )
            }
            VariadicKnownCall { fnid } => {
                write!(f, "known call to variadic f{fnid} (must stay dynamic)")
            }
            PrimArityMismatch { op, want, got } => {
                write!(f, "{op} arity mismatch: takes {want} operands, given {got}")
            }
            GlobalOutOfRange { global } => write!(f, "global {global} out of range"),
            CaptureCountMismatch { fnid, want, got } => {
                write!(
                    f,
                    "closure over f{fnid} with {got} captures; function expects {want}"
                )
            }
            MainOutOfRange => write!(f, "main function id out of range"),
            UnregisteredRep { rep, registered } => write!(
                f,
                "rep id {rep} is not registered (registry has {registered} entries)"
            ),
            SpecOnNonPointer { op, rep } => {
                write!(f, "`{op}` specialized on non-pointer rep `{rep}`")
            }
            UnregisteredRepGlobal {
                global,
                rep,
                registered,
            } => write!(
                f,
                "rep-globals table, global {global}: rep id {rep} is not registered \
                 (registry has {registered} entries)"
            ),
        }
    }
}

/// A violated IR invariant, with the function it occurred in (when any)
/// and the binding it sits in (when any).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateError {
    /// What went wrong.
    pub kind: ValidateErrorKind,
    /// The containing function of a closure-converted module:
    /// `(id, diagnostic name)`. `None` before closure conversion and for
    /// module-level violations.
    pub fun: Option<(FnId, String)>,
    /// Pretty-printed excerpt of the innermost `let` binding the violation
    /// sits in, when it sits in one.
    pub excerpt: Option<String>,
}

impl ValidateError {
    /// Attaches `let v = b` as the excerpt unless a nested binding already
    /// did. The excerpt is capped to a handful of lines so a huge `if` body
    /// does not drown the message.
    fn in_binding(mut self, v: VarId, b: &Bound) -> ValidateError {
        if self.excerpt.is_none() {
            let full = expr_to_string(&Expr::Let(v, b.clone(), Box::new(Expr::Ret(Atom::Var(v)))));
            let mut x: String = full.lines().take(6).map(|l| format!("    {l}\n")).collect();
            if full.lines().nth(6).is_some() {
                x.push_str("    ...\n");
            }
            self.excerpt = Some(x);
        }
        self
    }
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IR invariant violated: ")?;
        if let Some((id, name)) = &self.fun {
            write!(f, "in f{id} ({name}): ")?;
        }
        self.kind.fmt(f)?;
        if let Some(x) = &self.excerpt {
            write!(f, "\n  in:\n{x}")?;
        }
        Ok(())
    }
}

impl std::error::Error for ValidateError {}

fn fail<T>(kind: ValidateErrorKind) -> Result<T, ValidateError> {
    Err(ValidateError {
        kind,
        fun: None,
        excerpt: None,
    })
}

/// Checks the whole-program expression *before* closure conversion:
///
/// * lexical scoping with single assignment (one scope spans the program,
///   nested `Lambda`/`LetRec` included),
/// * primitive operand counts match [`PrimOp::arity`],
/// * tail calls only in tail position (the branches of a value-producing
///   `if`/`body` end in `Ret`),
/// * no closure-converted forms,
/// * every rep literal names a registered rep, and specialized memory ops
///   name registered pointer reps.
///
/// # Errors
///
/// Returns the first violated invariant, with an IR excerpt when it sits
/// inside a `let` binding.
pub fn verify_expr(e: &Expr, registry: &RepRegistry) -> Result<(), ValidateError> {
    Checker {
        phase: Phase::Open,
        registry: Some(registry),
        defined: HashSet::new(),
    }
    .expr(e, true)
}

/// Validates the structure of a closure-converted module:
///
/// * no nested lambdas / letrec,
/// * every variable defined before use, defined exactly once per function,
/// * `ClosureRef` indices within `free_count`,
/// * `CallKnown`/`MakeClosure` function ids in range, arities and capture
///   counts consistent,
/// * primitive operand counts match [`PrimOp::arity`],
/// * global ids within the module's global table,
/// * `Bound::If` branches end in `Ret` (no tail calls),
/// * the entry function id in range.
///
/// # Errors
///
/// Returns the first violated invariant.
pub fn validate_module(m: &Module) -> Result<(), ValidateError> {
    check_module(m, None)
}

/// Verifies a closure-converted module: everything [`validate_module`]
/// checks, plus representation-registry consistency. Every rep literal and
/// specialized op must name a registered rep, specialized memory ops must
/// name pointer reps, and `rep_globals` must only map to registered ids.
///
/// # Errors
///
/// Returns the first violated invariant.
pub fn verify_module(
    m: &Module,
    registry: &RepRegistry,
    rep_globals: &HashMap<GlobalId, RepId>,
) -> Result<(), ValidateError> {
    check_module(m, Some(registry))?;
    let registered = registry.len();
    match rep_globals
        .iter()
        .find(|(_, &rep)| rep as usize >= registered)
    {
        Some((&global, &rep)) => fail(ValidateErrorKind::UnregisteredRepGlobal {
            global,
            rep,
            registered,
        }),
        None => Ok(()),
    }
}

fn check_module(m: &Module, registry: Option<&RepRegistry>) -> Result<(), ValidateError> {
    for (i, f) in m.funs.iter().enumerate() {
        let mut c = Checker {
            phase: Phase::Closed {
                module: m,
                free_count: f.free_count,
            },
            registry,
            defined: HashSet::new(),
        };
        c.params(Some(f.self_var), &f.params, f.rest)
            .and_then(|()| c.expr(&f.body, true))
            .map_err(|mut e| {
                e.fun = Some((
                    i as FnId,
                    f.name.clone().unwrap_or_else(|| "anonymous".into()),
                ));
                e
            })?;
    }
    if m.main as usize >= m.funs.len() {
        return fail(ValidateErrorKind::MainOutOfRange);
    }
    Ok(())
}

/// Which side of closure conversion the checked IR is on.
#[derive(Clone, Copy)]
enum Phase<'a> {
    /// Before closure conversion: functions are nested `Lambda`/`LetRec`
    /// forms and one scope spans the whole program.
    Open,
    /// One function of a closure-converted module, whose free-slot count
    /// is `free_count`.
    Closed {
        /// The module the function belongs to.
        module: &'a Module,
        /// The function's free-slot count.
        free_count: usize,
    },
}

/// The walk. `defined` holds every variable bound so far in scope: the
/// whole program when open, the current function when closed. The branches
/// of an `if` share it because their bindings are disjoint (ids are
/// globally unique).
struct Checker<'a> {
    phase: Phase<'a>,
    registry: Option<&'a RepRegistry>,
    defined: HashSet<VarId>,
}

impl<'a> Checker<'a> {
    /// The module and free-slot count, or a rejection of `form` when the
    /// IR is not closure-converted yet.
    fn closed(&self, form: &'static str) -> Result<(&'a Module, usize), ValidateError> {
        match self.phase {
            Phase::Closed { module, free_count } => Ok((module, free_count)),
            Phase::Open => fail(ValidateErrorKind::PostConversionForm { form }),
        }
    }

    fn rep(&self, rep: RepId) -> Result<(), ValidateError> {
        match self.registry {
            Some(reg) if rep as usize >= reg.len() => fail(ValidateErrorKind::UnregisteredRep {
                rep,
                registered: reg.len(),
            }),
            _ => Ok(()),
        }
    }

    fn atom(&self, a: &Atom) -> Result<(), ValidateError> {
        match a {
            Atom::Var(var) if !self.defined.contains(var) => {
                fail(ValidateErrorKind::UndefinedVar { var: *var })
            }
            Atom::Lit(Literal::Rep(r)) => self.rep(*r),
            _ => Ok(()),
        }
    }

    fn atoms<'x>(&self, atoms: impl IntoIterator<Item = &'x Atom>) -> Result<(), ValidateError> {
        atoms.into_iter().try_for_each(|a| self.atom(a))
    }

    fn define(&mut self, var: VarId) -> Result<(), ValidateError> {
        if self.defined.insert(var) {
            Ok(())
        } else {
            fail(ValidateErrorKind::RedefinedVar { var })
        }
    }

    /// Binds a function's self slot, parameters and rest slot. A clash
    /// among those is a duplicate parameter; a clash with a variable bound
    /// elsewhere is a redefinition.
    fn params(
        &mut self,
        self_var: Option<VarId>,
        params: &[VarId],
        rest: Option<VarId>,
    ) -> Result<(), ValidateError> {
        self.defined.extend(self_var);
        for (i, &var) in params.iter().chain(rest.iter()).enumerate() {
            if !self.defined.insert(var) {
                return fail(if self_var == Some(var) || params[..i].contains(&var) {
                    ValidateErrorKind::DuplicateParam { var }
                } else {
                    ValidateErrorKind::RedefinedVar { var }
                });
            }
        }
        Ok(())
    }

    fn fundef(&mut self, l: &FunDef) -> Result<(), ValidateError> {
        self.params(None, &l.params, l.rest)?;
        self.expr(&l.body, true)
    }

    /// The function `form` names, or a rejection of `form` when the IR is
    /// not closure-converted yet.
    fn callee(&self, form: &'static str, fnid: FnId) -> Result<&'a Fun, ValidateError> {
        let (module, _) = self.closed(form)?;
        match module.funs.get(fnid as usize) {
            Some(f) => Ok(f),
            None => fail(ValidateErrorKind::FnIdOutOfRange { fnid }),
        }
    }

    /// A known call's callee must exist, be fixed-arity and take `nargs`.
    fn known_call(
        &self,
        form: &'static str,
        fnid: FnId,
        nargs: usize,
    ) -> Result<(), ValidateError> {
        let f = self.callee(form, fnid)?;
        if f.rest.is_some() {
            return fail(ValidateErrorKind::VariadicKnownCall { fnid });
        }
        if f.params.len() != nargs {
            return fail(ValidateErrorKind::ArityMismatch {
                fnid,
                want: f.params.len(),
                got: nargs,
            });
        }
        Ok(())
    }

    fn global(&self, global: GlobalId) -> Result<(), ValidateError> {
        match self.phase {
            Phase::Closed { module, .. } if global as usize >= module.global_names.len() => {
                fail(ValidateErrorKind::GlobalOutOfRange { global })
            }
            _ => Ok(()),
        }
    }

    /// With a registry, a specialized memory op must name a registered
    /// pointer rep.
    fn spec_op(&self, op: PrimOp) -> Result<(), ValidateError> {
        let (
            Some(reg),
            PrimOp::SpecHeader(r) | PrimOp::SpecAlloc(r) | PrimOp::SpecRef(r) | PrimOp::SpecSet(r),
        ) = (self.registry, op)
        else {
            return Ok(());
        };
        self.rep(r)?;
        let info = reg.info(r);
        if matches!(info.kind, RepKind::Pointer { .. }) {
            Ok(())
        } else {
            fail(ValidateErrorKind::SpecOnNonPointer {
                op,
                rep: info.name.clone(),
            })
        }
    }

    /// `tail` is true when tail calls are permitted in this position.
    fn expr(&mut self, e: &Expr, tail: bool) -> Result<(), ValidateError> {
        match e {
            Expr::Let(v, b, body) => {
                self.bound(b).map_err(|err| err.in_binding(*v, b))?;
                self.define(*v)?;
                self.expr(body, tail)
            }
            Expr::If(t, then, els) => {
                self.atom(t.atom())?;
                self.expr(then, tail)?;
                self.expr(els, tail)
            }
            Expr::Ret(a) => self.atom(a),
            Expr::TailCall(callee, args) => {
                if !tail {
                    return fail(ValidateErrorKind::TailCallInNonTail);
                }
                self.atoms(once(callee).chain(args))
            }
            Expr::TailCallKnown(fnid, clo, args) => {
                if !tail {
                    return fail(ValidateErrorKind::TailCallInNonTail);
                }
                self.known_call("TailCallKnown", *fnid, args.len())?;
                self.atoms(once(clo).chain(args))
            }
            Expr::LetRec(binds, body) => {
                if let Phase::Closed { .. } = self.phase {
                    return fail(ValidateErrorKind::LetRecSurvives);
                }
                for (v, _) in binds {
                    self.define(*v)?;
                }
                for (_, l) in binds {
                    self.fundef(l)?;
                }
                self.expr(body, tail)
            }
        }
    }

    fn bound(&mut self, b: &Bound) -> Result<(), ValidateError> {
        match b {
            Bound::Atom(a) => self.atom(a),
            Bound::Prim(op, args) => {
                if op.arity() != args.len() {
                    return fail(ValidateErrorKind::PrimArityMismatch {
                        op: *op,
                        want: op.arity(),
                        got: args.len(),
                    });
                }
                self.spec_op(*op)?;
                self.atoms(args)
            }
            Bound::Call(callee, args) => self.atoms(once(callee).chain(args)),
            Bound::CallKnown(fnid, clo, args) => {
                self.known_call("CallKnown", *fnid, args.len())?;
                self.atoms(once(clo).chain(args))
            }
            Bound::GlobalGet(g) => self.global(*g),
            Bound::GlobalSet(g, a) => {
                self.global(*g)?;
                self.atom(a)
            }
            Bound::Lambda(l) => match self.phase {
                Phase::Open => self.fundef(l),
                Phase::Closed { .. } => fail(ValidateErrorKind::LambdaSurvives),
            },
            Bound::MakeClosure(fnid, frees) => {
                let want = self.callee("MakeClosure", *fnid)?.free_count;
                if frees.len() != want {
                    return fail(ValidateErrorKind::CaptureCountMismatch {
                        fnid: *fnid,
                        want,
                        got: frees.len(),
                    });
                }
                self.atoms(frees)
            }
            Bound::ClosureRef(index) => {
                let (_, free_count) = self.closed("ClosureRef")?;
                if *index >= free_count {
                    return fail(ValidateErrorKind::ClosureRefOutOfRange {
                        index: *index,
                        free_count,
                    });
                }
                Ok(())
            }
            Bound::ClosurePatch(c, _, x) => {
                self.closed("ClosurePatch")?;
                self.atoms([c, x])
            }
            Bound::If(t, then, els) => {
                self.atom(t.atom())?;
                self.expr(then, false)?;
                self.expr(els, false)
            }
            Bound::Body(e) => self.expr(e, false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anf::Test;

    fn registry() -> (RepRegistry, RepId, RepId) {
        let mut reg = RepRegistry::new();
        let fx = reg.intern_immediate("fixnum", 3, 0, 3).unwrap();
        let pair = reg.intern_pointer("pair", 1, false).unwrap();
        (reg, fx, pair)
    }

    fn module_with_body(body: Expr) -> Module {
        Module {
            funs: vec![Fun {
                name: Some("main".into()),
                self_var: 0,
                params: vec![],
                rest: None,
                free_count: 0,
                body,
            }],
            main: 0,
            global_names: vec!["g".to_string()],
            var_names: vec![],
        }
    }

    fn kind_of(m: &Module) -> ValidateErrorKind {
        validate_module(m).unwrap_err().kind
    }

    #[test]
    fn accepts_well_formed() {
        let m = module_with_body(Expr::Let(
            1,
            Bound::GlobalGet(0),
            Box::new(Expr::Ret(Atom::Var(1))),
        ));
        assert!(validate_module(&m).is_ok());
    }

    // One test per `ValidateErrorKind` variant, each from a minimal
    // malformed module.

    #[test]
    fn rejects_undefined_use() {
        let m = module_with_body(Expr::Ret(Atom::Var(42)));
        assert_eq!(kind_of(&m), ValidateErrorKind::UndefinedVar { var: 42 });
    }

    #[test]
    fn rejects_double_definition() {
        let m = module_with_body(Expr::Let(
            1,
            Bound::Atom(Atom::Lit(Literal::Unspecified)),
            Box::new(Expr::Let(
                1,
                Bound::Atom(Atom::Lit(Literal::Unspecified)),
                Box::new(Expr::Ret(Atom::Var(1))),
            )),
        ));
        assert_eq!(kind_of(&m), ValidateErrorKind::RedefinedVar { var: 1 });
    }

    #[test]
    fn rejects_duplicate_parameter() {
        let mut m = module_with_body(Expr::Ret(Atom::Lit(Literal::Unspecified)));
        m.funs[0].params = vec![7, 7];
        assert_eq!(kind_of(&m), ValidateErrorKind::DuplicateParam { var: 7 });

        // Before closure conversion: a lambda repeating its own parameter
        // is a duplicate; one reusing an outer binding is a redefinition.
        let (reg, _, _) = registry();
        let lambda = |params: Vec<VarId>| {
            Expr::Let(
                1,
                Bound::Atom(Atom::raw(0)),
                Box::new(Expr::Let(
                    2,
                    Bound::Lambda(FunDef {
                        params,
                        rest: None,
                        body: Box::new(Expr::Ret(Atom::raw(0))),
                        name: None,
                    }),
                    Box::new(Expr::Ret(Atom::Var(2))),
                )),
            )
        };
        let kind = |e: &Expr| verify_expr(e, &reg).unwrap_err().kind;
        assert_eq!(
            kind(&lambda(vec![3, 3])),
            ValidateErrorKind::DuplicateParam { var: 3 }
        );
        assert_eq!(
            kind(&lambda(vec![3, 1])),
            ValidateErrorKind::RedefinedVar { var: 1 }
        );
    }

    #[test]
    fn rejects_tailcall_in_bound_if() {
        let m = module_with_body(Expr::Let(
            1,
            Bound::If(
                Test::Truthy(Atom::Lit(Literal::Unspecified)),
                Box::new(Expr::TailCall(Atom::Lit(Literal::Unspecified), vec![])),
                Box::new(Expr::Ret(Atom::Lit(Literal::Unspecified))),
            ),
            Box::new(Expr::Ret(Atom::Var(1))),
        ));
        assert_eq!(kind_of(&m), ValidateErrorKind::TailCallInNonTail);
    }

    #[test]
    fn rejects_surviving_letrec() {
        let m = module_with_body(Expr::LetRec(
            vec![],
            Box::new(Expr::Ret(Atom::Lit(Literal::Unspecified))),
        ));
        assert_eq!(kind_of(&m), ValidateErrorKind::LetRecSurvives);
    }

    #[test]
    fn rejects_surviving_lambda() {
        let m = module_with_body(Expr::Let(
            1,
            Bound::Lambda(FunDef {
                params: vec![],
                rest: None,
                body: Box::new(Expr::Ret(Atom::Lit(Literal::Unspecified))),
                name: None,
            }),
            Box::new(Expr::Ret(Atom::Var(1))),
        ));
        assert_eq!(kind_of(&m), ValidateErrorKind::LambdaSurvives);
    }

    #[test]
    fn rejects_bad_closure_ref() {
        let m = module_with_body(Expr::Let(
            1,
            Bound::ClosureRef(0),
            Box::new(Expr::Ret(Atom::Var(1))),
        ));
        assert_eq!(
            kind_of(&m),
            ValidateErrorKind::ClosureRefOutOfRange {
                index: 0,
                free_count: 0
            }
        );
    }

    #[test]
    fn rejects_fnid_out_of_range() {
        let m = module_with_body(Expr::Let(
            1,
            Bound::MakeClosure(9, vec![]),
            Box::new(Expr::Ret(Atom::Var(1))),
        ));
        assert_eq!(kind_of(&m), ValidateErrorKind::FnIdOutOfRange { fnid: 9 });
    }

    #[test]
    fn rejects_known_call_arity_mismatch() {
        let mut m = module_with_body(Expr::Let(
            1,
            Bound::CallKnown(0, Atom::Lit(Literal::Unspecified), vec![]),
            Box::new(Expr::Ret(Atom::Var(1))),
        ));
        m.funs[0].params = vec![9];
        // Calling main (which now takes 1 param) with 0 args. The param
        // list change also shifts the body's scope, so the bound var is
        // checked first: build the body so only the arity is wrong.
        assert_eq!(
            kind_of(&m),
            ValidateErrorKind::ArityMismatch {
                fnid: 0,
                want: 1,
                got: 0
            }
        );
    }

    #[test]
    fn rejects_known_call_to_variadic() {
        let mut m = module_with_body(Expr::TailCallKnown(
            0,
            Atom::Lit(Literal::Unspecified),
            vec![],
        ));
        m.funs[0].rest = Some(8);
        assert_eq!(
            kind_of(&m),
            ValidateErrorKind::VariadicKnownCall { fnid: 0 }
        );
    }

    #[test]
    fn rejects_prim_arity_mismatch() {
        let m = module_with_body(Expr::Let(
            1,
            Bound::Prim(PrimOp::WordAdd, vec![Atom::raw(1)]),
            Box::new(Expr::Ret(Atom::Var(1))),
        ));
        assert_eq!(
            kind_of(&m),
            ValidateErrorKind::PrimArityMismatch {
                op: PrimOp::WordAdd,
                want: 2,
                got: 1
            }
        );
    }

    #[test]
    fn rejects_global_out_of_range() {
        let m = module_with_body(Expr::Let(
            1,
            Bound::GlobalGet(5),
            Box::new(Expr::Ret(Atom::Var(1))),
        ));
        assert_eq!(
            kind_of(&m),
            ValidateErrorKind::GlobalOutOfRange { global: 5 }
        );

        let m = module_with_body(Expr::Let(
            1,
            Bound::GlobalSet(6, Atom::Lit(Literal::Unspecified)),
            Box::new(Expr::Ret(Atom::Var(1))),
        ));
        assert_eq!(
            kind_of(&m),
            ValidateErrorKind::GlobalOutOfRange { global: 6 }
        );
    }

    #[test]
    fn rejects_capture_count_mismatch() {
        let mut m = module_with_body(Expr::Let(
            1,
            Bound::MakeClosure(0, vec![]),
            Box::new(Expr::Ret(Atom::Var(1))),
        ));
        m.funs[0].free_count = 2;
        assert_eq!(
            kind_of(&m),
            ValidateErrorKind::CaptureCountMismatch {
                fnid: 0,
                want: 2,
                got: 0
            }
        );
    }

    #[test]
    fn rejects_main_out_of_range() {
        let mut m = module_with_body(Expr::Ret(Atom::Lit(Literal::Unspecified)));
        m.main = 3;
        assert_eq!(kind_of(&m), ValidateErrorKind::MainOutOfRange);
    }

    #[test]
    fn error_display_names_function() {
        let m = module_with_body(Expr::Ret(Atom::Var(42)));
        let msg = validate_module(&m).unwrap_err().to_string();
        assert!(msg.contains("in f0 (main)"), "{msg}");
        assert!(msg.contains("undefined variable v42"), "{msg}");
    }

    #[test]
    fn rejects_post_conversion_form_before_conversion() {
        let (reg, _, _) = registry();
        let unspec = || Atom::Lit(Literal::Unspecified);
        let cases = [
            (Bound::CallKnown(0, unspec(), vec![]), "CallKnown"),
            (Bound::MakeClosure(0, vec![]), "MakeClosure"),
            (Bound::ClosureRef(0), "ClosureRef"),
            (Bound::ClosurePatch(unspec(), 0, unspec()), "ClosurePatch"),
        ];
        for (b, form) in cases {
            let e = Expr::Let(1, b, Box::new(Expr::Ret(Atom::Var(1))));
            assert_eq!(
                verify_expr(&e, &reg).unwrap_err().kind,
                ValidateErrorKind::PostConversionForm { form }
            );
        }
        let e = Expr::TailCallKnown(0, unspec(), vec![]);
        assert_eq!(
            verify_expr(&e, &reg).unwrap_err().kind,
            ValidateErrorKind::PostConversionForm {
                form: "TailCallKnown"
            }
        );
    }

    #[test]
    fn rejects_unregistered_rep() {
        let (reg, _, _) = registry();
        let m = module_with_body(Expr::Ret(Atom::Lit(Literal::Rep(50))));
        // Only a check with a registry knows which rep ids exist.
        assert!(validate_module(&m).is_ok());
        assert_eq!(
            verify_module(&m, &reg, &HashMap::new()).unwrap_err().kind,
            ValidateErrorKind::UnregisteredRep {
                rep: 50,
                registered: 2
            }
        );
    }

    #[test]
    fn rejects_spec_op_on_non_pointer_rep() {
        let (reg, fx, _) = registry();
        let m = module_with_body(Expr::Let(
            1,
            Bound::Prim(PrimOp::SpecRef(fx), vec![Atom::raw(0), Atom::raw(0)]),
            Box::new(Expr::Ret(Atom::Var(1))),
        ));
        assert_eq!(
            verify_module(&m, &reg, &HashMap::new()).unwrap_err().kind,
            ValidateErrorKind::SpecOnNonPointer {
                op: PrimOp::SpecRef(fx),
                rep: "fixnum".into()
            }
        );
    }

    #[test]
    fn rejects_unregistered_rep_global() {
        let (reg, _, _) = registry();
        let m = module_with_body(Expr::Ret(Atom::raw(0)));
        let rg = HashMap::from([(0, 60)]);
        assert_eq!(
            verify_module(&m, &reg, &rg).unwrap_err().kind,
            ValidateErrorKind::UnregisteredRepGlobal {
                global: 0,
                rep: 60,
                registered: 2
            }
        );
    }

    #[test]
    fn closed_phase_errors_carry_the_binding_excerpt() {
        let m = module_with_body(Expr::Let(
            1,
            Bound::Atom(Atom::Var(42)),
            Box::new(Expr::Ret(Atom::Var(1))),
        ));
        let err = validate_module(&m).unwrap_err();
        let excerpt = "    (let v1 v42)\n    (ret v1)\n";
        assert_eq!(err.excerpt.as_deref(), Some(excerpt));
        assert!(
            err.to_string().ends_with(&format!("\n  in:\n{excerpt}")),
            "{err}"
        );
    }

    // Open-phase and registry checks, asserted through the rendered message.

    #[test]
    fn accepts_well_formed_pre_cc() {
        let (reg, fx, _) = registry();
        let e = Expr::Let(
            1,
            Bound::Prim(
                PrimOp::RepInject,
                vec![Atom::Lit(Literal::Rep(fx)), Atom::raw(5)],
            ),
            Box::new(Expr::Let(
                2,
                Bound::Lambda(FunDef {
                    params: vec![3],
                    rest: None,
                    body: Box::new(Expr::Ret(Atom::Var(1))),
                    name: None,
                }),
                Box::new(Expr::TailCall(Atom::Var(2), vec![Atom::Var(1)])),
            )),
        );
        assert!(verify_expr(&e, &reg).is_ok());
    }

    #[test]
    fn catches_use_before_definition() {
        let (reg, _, _) = registry();
        let e = Expr::Let(
            1,
            Bound::Atom(Atom::Var(9)),
            Box::new(Expr::Ret(Atom::Var(1))),
        );
        let err = verify_expr(&e, &reg).unwrap_err();
        assert!(err.to_string().contains("v9"), "{err}");
        assert!(err.excerpt.is_some(), "binding excerpt attached");
    }

    #[test]
    fn catches_double_definition() {
        let (reg, _, _) = registry();
        let e = Expr::Let(
            1,
            Bound::Atom(Atom::raw(1)),
            Box::new(Expr::Let(
                1,
                Bound::Atom(Atom::raw(2)),
                Box::new(Expr::Ret(Atom::Var(1))),
            )),
        );
        let err = verify_expr(&e, &reg).unwrap_err();
        assert!(err.to_string().contains("defined twice"), "{err}");
    }

    #[test]
    fn catches_prim_arity() {
        let (reg, _, _) = registry();
        let e = Expr::Let(
            1,
            Bound::Prim(PrimOp::WordAdd, vec![Atom::raw(1)]),
            Box::new(Expr::Ret(Atom::Var(1))),
        );
        let err = verify_expr(&e, &reg).unwrap_err();
        assert!(err.to_string().contains("takes 2 operands"), "{err}");
    }

    #[test]
    fn catches_unregistered_rep_literal() {
        let (reg, _, _) = registry();
        let e = Expr::Let(
            1,
            Bound::Atom(Atom::Lit(Literal::Rep(99))),
            Box::new(Expr::Ret(Atom::Var(1))),
        );
        let err = verify_expr(&e, &reg).unwrap_err();
        assert!(err.to_string().contains("rep id 99"), "{err}");
    }

    #[test]
    fn catches_tail_call_in_bound_body() {
        let (reg, _, _) = registry();
        let e = Expr::Let(
            1,
            Bound::Body(Box::new(Expr::TailCall(Atom::raw(0), vec![]))),
            Box::new(Expr::Ret(Atom::Var(1))),
        );
        let err = verify_expr(&e, &reg).unwrap_err();
        assert!(err.to_string().contains("non-tail"), "{err}");
    }

    #[test]
    fn catches_post_cc_forms_pre_cc() {
        let (reg, _, _) = registry();
        let e = Expr::Let(1, Bound::ClosureRef(0), Box::new(Expr::Ret(Atom::Var(1))));
        let err = verify_expr(&e, &reg).unwrap_err();
        assert!(
            err.to_string().contains("before closure conversion"),
            "{err}"
        );
    }

    #[test]
    fn catches_spec_op_on_immediate_rep() {
        let (reg, fx, _) = registry();
        let e = Expr::Let(
            1,
            Bound::Prim(PrimOp::SpecRef(fx), vec![Atom::raw(0), Atom::raw(0)]),
            Box::new(Expr::Ret(Atom::Var(1))),
        );
        let err = verify_expr(&e, &reg).unwrap_err();
        assert!(err.to_string().contains("non-pointer"), "{err}");
    }

    #[test]
    fn module_verification_covers_rep_consistency() {
        let (reg, _, pair) = registry();
        let ok = module_with_body(Expr::Let(
            1,
            Bound::Prim(PrimOp::SpecAlloc(pair), vec![Atom::raw(2), Atom::raw(0)]),
            Box::new(Expr::Ret(Atom::Var(1))),
        ));
        assert!(verify_module(&ok, &reg, &HashMap::new()).is_ok());

        let bad = module_with_body(Expr::Let(
            1,
            Bound::Prim(PrimOp::SpecAlloc(77), vec![Atom::raw(2), Atom::raw(0)]),
            Box::new(Expr::Ret(Atom::Var(1))),
        ));
        let err = verify_module(&bad, &reg, &HashMap::new()).unwrap_err();
        assert!(err.to_string().contains("rep id 77"), "{err}");

        let bad_lit = module_with_body(Expr::Ret(Atom::Lit(Literal::Rep(50))));
        assert!(verify_module(&bad_lit, &reg, &HashMap::new()).is_err());

        let mut rg = HashMap::new();
        rg.insert(0u32, 60u32);
        let clean = module_with_body(Expr::Ret(Atom::raw(0)));
        let err = verify_module(&clean, &reg, &rg).unwrap_err();
        assert!(err.to_string().contains("rep-globals"), "{err}");
    }

    #[test]
    fn module_verification_wraps_structural_errors() {
        let (reg, _, _) = registry();
        let m = module_with_body(Expr::Ret(Atom::Var(42)));
        let err = verify_module(&m, &reg, &HashMap::new()).unwrap_err();
        assert!(err.to_string().contains("undefined variable"), "{err}");
    }

    #[test]
    fn conditionals_allow_tail_calls_in_tail_position() {
        let (reg, _, _) = registry();
        let e = Expr::Let(
            1,
            Bound::Atom(Atom::raw(1)),
            Box::new(Expr::If(
                Test::NonZero(Atom::Var(1)),
                Box::new(Expr::TailCall(Atom::Var(1), vec![])),
                Box::new(Expr::Ret(Atom::Var(1))),
            )),
        );
        assert!(verify_expr(&e, &reg).is_ok());
    }
}

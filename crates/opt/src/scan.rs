//! Representation-declaration scanning ("stage A" of the pipeline).
//!
//! Walks the top-level binding spine of the lowered program and *abstractly
//! interprets* the library's representation declarations:
//!
//! ```scheme
//! (define fixnum-rep (%make-immediate-type 'fixnum 3 0 3))
//! (%provide-rep! 'fixnum fixnum-rep)
//! ```
//!
//! populating the compile-time [`RepRegistry`] and recording which globals
//! hold which representation types.  This runs in **every** pipeline
//! configuration (the loader, GC, and literal encoder need the registry even
//! when the optimizer is off); it never rewrites code.

use std::collections::HashMap;
use std::fmt;
use sxr_ir::anf::{Atom, Bound, Expr, GlobalId, Literal, VarId};
use sxr_ir::prim::PrimOp;
use sxr_ir::rep::{RepError, RepId, RepRegistry};
use sxr_ir::IdMap;
use sxr_sexp::Datum;

/// A problem in the library's representation declarations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanError(pub String);

impl fmt::Display for ScanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "representation scan error: {}", self.0)
    }
}

impl std::error::Error for ScanError {}

/// Scans `main_body`'s top-level spine, registering declarations into
/// `registry`. Returns the map from globals to the representation types they
/// hold.
///
/// # Errors
///
/// Returns [`ScanError`] when a declaration is malformed (non-constant
/// arguments at top level, conflicting parameters, bad roles).
pub fn scan_representations(
    main_body: &Expr,
    registry: &mut RepRegistry,
) -> Result<HashMap<GlobalId, RepId>, ScanError> {
    let mut vars: IdMap<VarId, RepId> = IdMap::default();
    let mut globals: HashMap<GlobalId, RepId> = HashMap::new();
    let mut e = main_body;
    // Walk the straight top-level binding spine.
    while let Expr::Let(v, b, body) = e {
        match b {
            Bound::Prim(op @ (PrimOp::MakeImmType | PrimOp::MakePtrType), args) => {
                if let Some(rid) = fold_rep_type(*op, args, registry).map_err(|e| ScanError(e.0))? {
                    vars.insert(*v, rid);
                }
            }
            Bound::Prim(PrimOp::ProvideRep, args) => {
                let role = const_symbol(&args[0]);
                let rep = rep_of_atom(&args[1], &vars, &globals);
                match (role, rep) {
                    (Some(role), Some(rid)) => {
                        registry
                            .provide_role(&role, rid)
                            .map_err(|err| ScanError(err.0))?;
                    }
                    _ => {
                        return Err(ScanError(
                            "top-level %provide-rep! needs a quoted role symbol and a \
                             statically known representation"
                                .to_string(),
                        ))
                    }
                }
            }
            Bound::GlobalSet(g, a) => {
                if let Some(rid) = rep_of_atom(a, &vars, &globals) {
                    globals.insert(*g, rid);
                } else {
                    // Redefinition of a rep global to a non-rep value
                    // would invalidate the map.
                    globals.remove(g);
                }
            }
            Bound::GlobalGet(g) => {
                if let Some(&rid) = globals.get(g) {
                    vars.insert(*v, rid);
                }
            }
            Bound::Atom(a) => {
                if let Some(rid) = rep_of_atom(a, &vars, &globals) {
                    vars.insert(*v, rid);
                }
            }
            _ => {}
        }
        e = body;
    }
    // Declarations are only recognized on the straight top-level spine;
    // anything past a branch/letrec is runtime-only.
    Ok(globals)
}

/// The name a quoted-symbol operand carries.
pub(crate) fn const_symbol(a: &Atom) -> Option<String> {
    match a {
        Atom::Lit(Literal::Datum(Datum::Symbol(s))) => Some(s.clone()),
        _ => None,
    }
}

fn const_fixnum(a: &Atom) -> Option<i64> {
    match a {
        Atom::Lit(Literal::Datum(Datum::Fixnum(n))) => Some(*n),
        Atom::Lit(Literal::Raw(n)) => Some(*n),
        _ => None,
    }
}

fn const_bool(a: &Atom) -> Option<bool> {
    match a {
        Atom::Lit(Literal::Datum(Datum::Bool(b))) => Some(*b),
        _ => None,
    }
}

fn rep_of_atom(
    a: &Atom,
    vars: &IdMap<VarId, RepId>,
    _globals: &HashMap<GlobalId, RepId>,
) -> Option<RepId> {
    match a {
        Atom::Var(v) => vars.get(v).copied(),
        Atom::Lit(Literal::Rep(r)) => Some(*r),
        _ => None,
    }
}

/// Registers the type a `%make-immediate-type` / `%make-pointer-type`
/// application declares, when all its arguments are constants — the one
/// folder for constant declarations, shared by the scan and by constant
/// folding. Returns `None` for any other `op`, and for non-constant
/// arguments (a run-time type creation, legal anywhere but not a
/// top-level declaration).
pub(crate) fn fold_rep_type(
    op: PrimOp,
    args: &[Atom],
    registry: &mut RepRegistry,
) -> Result<Option<RepId>, RepError> {
    let interned = match op {
        PrimOp::MakeImmType => {
            let (Some(name), Some(tag_bits), Some(tag), Some(shift)) = (
                const_symbol(&args[0]),
                const_fixnum(&args[1]),
                const_fixnum(&args[2]),
                const_fixnum(&args[3]),
            ) else {
                return Ok(None);
            };
            registry.intern_immediate(&name, tag_bits as u32, tag as u64, shift as u32)
        }
        PrimOp::MakePtrType => {
            let (Some(name), Some(tag), Some(disc)) = (
                const_symbol(&args[0]),
                const_fixnum(&args[1]),
                const_bool(&args[2]),
            ) else {
                return Ok(None);
            };
            registry.intern_pointer(&name, tag as u64, disc)
        }
        _ => return Ok(None),
    };
    interned.map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxr_ast::{convert_assignments, Expander};
    use sxr_ir::lower_program;
    use sxr_sexp::parse_all;

    fn scan(src: &str) -> (RepRegistry, HashMap<GlobalId, RepId>, sxr_ast::Program) {
        let mut ex = Expander::new();
        let unit = ex.expand_unit(&parse_all(src).unwrap()).unwrap();
        let prog = ex.into_program(vec![unit]);
        let prog2 = prog.clone();
        let mut p = prog;
        convert_assignments(&mut p).unwrap();
        let lowered = lower_program(p).unwrap();
        let mut reg = RepRegistry::new();
        let globals = scan_representations(&lowered.main_body, &mut reg).unwrap();
        (reg, globals, prog2)
    }

    #[test]
    fn declarations_build_registry() {
        let (reg, globals, prog) = scan(
            "(define fixnum-rep (%make-immediate-type 'fixnum 3 0 3))
             (define pair-rep (%make-pointer-type 'pair 1 #f))
             (%provide-rep! 'fixnum fixnum-rep)
             (%provide-rep! 'pair pair-rep)",
        );
        assert_eq!(reg.len(), 2);
        assert!(reg.role("fixnum").is_some());
        assert!(reg.role("pair").is_some());
        let g_fix = prog.global_by_name("fixnum-rep").unwrap();
        assert_eq!(globals.get(&g_fix), Some(&reg.by_name("fixnum").unwrap()));
    }

    #[test]
    fn non_constant_declaration_is_runtime_only() {
        let (reg, globals, _) = scan(
            "(define bits 3)
             (define dyn-rep (%make-immediate-type 'dyn bits 0 3))",
        );
        // `bits` is a global reference, not a constant: no compile-time entry.
        assert_eq!(reg.len(), 0);
        assert!(globals.is_empty());
    }

    #[test]
    fn provide_requires_known_rep() {
        let mut ex = Expander::new();
        let unit = ex
            .expand_unit(&parse_all("(define x 1) (%provide-rep! 'fixnum x)").unwrap())
            .unwrap();
        let mut p = ex.into_program(vec![unit]);
        convert_assignments(&mut p).unwrap();
        let lowered = lower_program(p).unwrap();
        let mut reg = RepRegistry::new();
        let err = scan_representations(&lowered.main_body, &mut reg).unwrap_err();
        assert!(err.0.contains("provide-rep"));
    }

    #[test]
    fn conflicting_redeclaration_reported() {
        let mut ex = Expander::new();
        let unit = ex
            .expand_unit(
                &parse_all(
                    "(define a (%make-immediate-type 'fixnum 3 0 3))
                     (define b (%make-immediate-type 'fixnum 3 0 4))",
                )
                .unwrap(),
            )
            .unwrap();
        let mut p = ex.into_program(vec![unit]);
        convert_assignments(&mut p).unwrap();
        let lowered = lower_program(p).unwrap();
        let mut reg = RepRegistry::new();
        assert!(scan_representations(&lowered.main_body, &mut reg).is_err());
    }
}

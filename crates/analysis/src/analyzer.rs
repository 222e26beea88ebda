//! The rep-safety abstract interpreter.
//!
//! A forward, intraprocedural dataflow analysis over ANF.  Each variable
//! gets an [`AbsVal`]; unknown inputs (parameters, call results, closure
//! slots) are `Top`, so every reported contradiction holds on *all*
//! executions — the analyzer never guesses.
//!
//! Precision comes from three sources:
//!
//! * **literal seeding** — quoted data and `%rep-inject`/`%rep-alloc`
//!   results carry the representation the registry's roles assign them;
//! * **allocation sizes** — `%rep-alloc`/`%spec-alloc` with a constant
//!   count produce values with a known field count, enabling the
//!   constant-index bounds check;
//! * **test refinement** — on the arms of `(if (%rep-test rt x) … …)` the
//!   analyzer narrows `x`'s tag set, including through the common
//!   `%rep-inject boolean` wrapping the library puts around raw test
//!   results (sound because `#f` is the boolean encoding of payload 0).

use crate::diag::{DiagClass, Diagnostic};
use crate::lattice::{AbsVal, TagSet};
use std::collections::HashMap;
use sxr_ir::anf::{Atom, Bound, Expr, GlobalId, Literal, Module, Test, VarId};
use sxr_ir::prim::PrimOp;
use sxr_ir::rep::{roles, RepId, RepRegistry};
use sxr_sexp::Datum;

/// Runs the analyzer over every function of a closure-converted module.
///
/// `rep_globals` maps global slots holding compile-time-known
/// representation types to their ids (the representation scan's output);
/// it seeds `GlobalGet`s of those slots.
pub fn analyze_module(
    m: &Module,
    registry: &RepRegistry,
    rep_globals: &HashMap<GlobalId, RepId>,
) -> Vec<Diagnostic> {
    let mut a = Analyzer {
        registry,
        rep_globals,
        diags: Vec::new(),
        fun: 0,
        fun_name: None,
    };
    for (i, f) in m.funs.iter().enumerate() {
        a.fun = i as u32;
        a.fun_name = f.name.clone();
        let mut env = Env::default();
        if let Some(c) = registry.role(roles::CLOSURE) {
            env.vals.insert(f.self_var, AbsVal::of_rep(c));
        }
        a.eval_expr(&f.body, &mut env);
    }
    a.diags
}

/// Per-variable analysis state. Variable ids are globally unique (single
/// assignment), so one flat map per function suffices; branch-local
/// refinements use cloned overlays.
#[derive(Default, Clone)]
struct Env {
    vals: HashMap<VarId, AbsVal>,
    /// `var -> (rep, subject, boolean?)`: the var holds the result of
    /// `%rep-test rep subject`, either raw (`boolean? == false`) or
    /// injected as a boolean (`boolean? == true`).
    facts: HashMap<VarId, Fact>,
}

#[derive(Debug, Clone, Copy)]
struct Fact {
    rep: RepId,
    subject: VarId,
    /// False: raw 1/0 (use with `NonZero`); true: boolean-injected (use
    /// with `Truthy`).
    boolean: bool,
}

struct Analyzer<'a> {
    registry: &'a RepRegistry,
    rep_globals: &'a HashMap<GlobalId, RepId>,
    diags: Vec<Diagnostic>,
    fun: u32,
    fun_name: Option<String>,
}

impl Analyzer<'_> {
    fn report(&mut self, class: DiagClass, message: String) {
        self.diags.push(Diagnostic {
            class,
            fun: self.fun,
            fun_name: self.fun_name.clone(),
            message,
        });
    }

    fn rep_name(&self, r: RepId) -> &str {
        &self.registry.info(r).name
    }

    /// The abstract value of an atom.
    fn val_of(&self, a: &Atom, env: &Env) -> AbsVal {
        match a {
            Atom::Var(v) => env.vals.get(v).copied().unwrap_or(AbsVal::Top),
            Atom::Lit(Literal::Raw(w)) => AbsVal::Raw(Some(*w)),
            Atom::Lit(Literal::Rep(r)) => AbsVal::Rep(*r),
            Atom::Lit(Literal::Unspecified) => match self.registry.role(roles::UNSPECIFIED) {
                Some(r) => AbsVal::of_rep(r),
                None => AbsVal::Top,
            },
            Atom::Lit(Literal::Datum(d)) => self.datum_val(d),
        }
    }

    /// Representation a literal datum will be encoded with, per the
    /// registry's roles, including the field count where the loader's
    /// layout fixes it.
    fn datum_val(&self, d: &Datum) -> AbsVal {
        let role = |name: &str| self.registry.role(name);
        let (rep, size) = match d {
            Datum::Fixnum(_) => (role(roles::FIXNUM), None),
            Datum::Bool(_) => (role(roles::BOOLEAN), None),
            Datum::Char(_) => (role(roles::CHAR), None),
            Datum::String(s) => (role(roles::STRING), Some(s.chars().count() as i64)),
            Datum::Symbol(_) => (role(roles::SYMBOL), None),
            Datum::List(items) if items.is_empty() => (role(roles::NULL), None),
            Datum::List(_) | Datum::Improper(..) => (role(roles::PAIR), Some(2)),
            Datum::Vector(items) => (role(roles::VECTOR), Some(items.len() as i64)),
        };
        match rep {
            Some(r) => AbsVal::Tagged {
                tags: TagSet::singleton(r),
                size,
            },
            None => AbsVal::Top,
        }
    }

    /// The rep id an atom denotes, when compile-time known.
    fn rep_of(&self, a: &Atom, env: &Env) -> Option<RepId> {
        match self.val_of(a, env) {
            AbsVal::Rep(r) => Some(r),
            _ => None,
        }
    }

    /// The raw constant an atom denotes, when known.
    fn const_of(&self, a: &Atom, env: &Env) -> Option<i64> {
        self.val_of(a, env).as_const()
    }

    /// Checks the subject of a memory operation (field access, length,
    /// header read) performed through pointer rep `r`.
    fn check_mem_subject(&mut self, op: PrimOp, r: RepId, subject: &AbsVal) {
        match subject {
            AbsVal::Raw(_) => self.report(
                DiagClass::RawMemOnImmediate,
                format!("`{op}` on a raw untagged word — not a tagged pointer"),
            ),
            AbsVal::Tagged { tags, .. } => {
                if tags.all_immediate(self.registry) {
                    self.report(
                        DiagClass::RawMemOnImmediate,
                        format!(
                            "`{op}` on an immediate value of representation {} — not a heap object",
                            tags.describe(self.registry)
                        ),
                    );
                } else if !tags.contains(r) {
                    self.report(
                        DiagClass::DisjointRep,
                        format!(
                            "`{op}` through `{}` on a value of representation {}",
                            self.rep_name(r),
                            tags.describe(self.registry)
                        ),
                    );
                }
            }
            AbsVal::Rep(_) | AbsVal::Top => {}
        }
    }

    /// Checks a constant field index against a known allocation size.
    fn check_index(&mut self, op: PrimOp, r: RepId, subject: &AbsVal, index: Option<i64>) {
        let (Some(k), AbsVal::Tagged { size: Some(n), .. }) = (index, subject) else {
            return;
        };
        if k < 0 || k >= *n {
            self.report(
                DiagClass::IndexOutOfBounds,
                format!(
                    "`{op}` field index {k} out of bounds for `{}` object of {n} fields",
                    self.rep_name(r)
                ),
            );
        }
    }

    /// Abstract transfer for one binding; also emits diagnostics.
    fn eval_bound(&mut self, v: VarId, b: &Bound, env: &mut Env) -> AbsVal {
        match b {
            Bound::Atom(a) => {
                if let Atom::Var(src) = a {
                    if let Some(f) = env.facts.get(src).copied() {
                        env.facts.insert(v, f);
                    }
                }
                self.val_of(a, env)
            }
            Bound::Prim(op, args) => self.eval_prim(v, *op, args, env),
            Bound::GlobalGet(g) => match self.rep_globals.get(g) {
                Some(&r) => AbsVal::Rep(r),
                None => AbsVal::Top,
            },
            Bound::GlobalSet(..) => match self.registry.role(roles::UNSPECIFIED) {
                Some(r) => AbsVal::of_rep(r),
                None => AbsVal::Top,
            },
            Bound::MakeClosure(..) | Bound::Lambda(_) => {
                if let Bound::Lambda(l) = b {
                    // Pre-cc input: analyze the nested body. Free variables
                    // keep their values (single assignment makes this
                    // sound).
                    let mut inner = env.clone();
                    self.eval_expr(&l.body, &mut inner);
                }
                match self.registry.role(roles::CLOSURE) {
                    Some(r) => AbsVal::of_rep(r),
                    None => AbsVal::Top,
                }
            }
            Bound::Call(..) | Bound::CallKnown(..) | Bound::ClosureRef(_) => AbsVal::Top,
            Bound::ClosurePatch(..) => AbsVal::Top,
            Bound::If(t, then, els) => {
                let (tenv, eenv) = self.refine(env, t);
                let a = tenv.and_then(|mut e2| self.eval_expr(then, &mut e2));
                let b2 = eenv.and_then(|mut e2| self.eval_expr(els, &mut e2));
                match (a, b2) {
                    (Some(x), Some(y)) => x.join(&y),
                    (Some(x), None) | (None, Some(x)) => x,
                    (None, None) => AbsVal::Top,
                }
            }
            Bound::Body(e) => {
                let mut inner = env.clone();
                self.eval_expr(e, &mut inner).unwrap_or(AbsVal::Top)
            }
        }
    }

    fn eval_prim(&mut self, v: VarId, op: PrimOp, args: &[Atom], env: &mut Env) -> AbsVal {
        use PrimOp::*;
        match op {
            RepInject => {
                let Some(r) = self.rep_of(&args[0], env) else {
                    return AbsVal::Top;
                };
                // Boolean injection of a raw test result preserves the
                // test's outcome under `Truthy` (false is payload 0).
                if let Atom::Var(src) = &args[1] {
                    if let Some(f) = env.facts.get(src).copied() {
                        if !f.boolean && Some(r) == self.registry.role(roles::BOOLEAN) {
                            env.facts.insert(v, Fact { boolean: true, ..f });
                        }
                    }
                }
                AbsVal::of_rep(r)
            }
            RepProject => {
                if let Some(r) = self.rep_of(&args[0], env) {
                    if let AbsVal::Tagged { tags, .. } = self.val_of(&args[1], env) {
                        if !tags.contains(r) {
                            self.report(
                                DiagClass::DisjointRep,
                                format!(
                                    "`{op}` through `{}` on a value of representation {}",
                                    self.rep_name(r),
                                    tags.describe(self.registry)
                                ),
                            );
                        }
                    }
                }
                AbsVal::Raw(None)
            }
            RepTest => {
                if let Some(r) = self.rep_of(&args[0], env) {
                    if let AbsVal::Tagged { tags, .. } = self.val_of(&args[1], env) {
                        if tags.is_exactly(r) {
                            self.report(
                                DiagClass::DeadRepTest,
                                format!("`%rep-test {}` is always true here", self.rep_name(r)),
                            );
                        } else if !tags.contains(r) {
                            self.report(
                                DiagClass::DeadRepTest,
                                format!("`%rep-test {}` is always false here", self.rep_name(r)),
                            );
                        }
                    }
                    if let Atom::Var(subject) = &args[1] {
                        env.facts.insert(
                            v,
                            Fact {
                                rep: r,
                                subject: *subject,
                                boolean: false,
                            },
                        );
                    }
                }
                AbsVal::Raw(None)
            }
            RepAlloc | RepRef | RepSet | RepLen => {
                let Some(r) = self.rep_of(&args[0], env) else {
                    return AbsVal::Top;
                };
                if !self.registry.info(r).is_pointer() {
                    self.report(
                        DiagClass::RawMemOnImmediate,
                        format!(
                            "`{op}` through immediate representation `{}` — immediates have no fields",
                            self.rep_name(r)
                        ),
                    );
                    return if op == RepLen {
                        AbsVal::Raw(None)
                    } else {
                        AbsVal::Top
                    };
                }
                match op {
                    RepAlloc => {
                        let size = self.const_of(&args[1], env);
                        AbsVal::Tagged {
                            tags: TagSet::singleton(r),
                            size,
                        }
                    }
                    RepRef | RepSet => {
                        let subject = self.val_of(&args[1], env);
                        self.check_mem_subject(op, r, &subject);
                        self.check_index(op, r, &subject, self.const_of(&args[2], env));
                        AbsVal::Top
                    }
                    RepLen => {
                        let subject = self.val_of(&args[1], env);
                        self.check_mem_subject(op, r, &subject);
                        match subject {
                            AbsVal::Tagged { size, .. } => AbsVal::Raw(size),
                            _ => AbsVal::Raw(None),
                        }
                    }
                    _ => unreachable!(),
                }
            }
            SpecHeader(r) => {
                let subject = self.val_of(&args[0], env);
                self.check_mem_subject(op, r, &subject);
                AbsVal::Raw(None)
            }
            SpecAlloc(r) => {
                if !self.registry.info(r).is_pointer() {
                    self.report(
                        DiagClass::RawMemOnImmediate,
                        format!(
                            "`{op}` allocates through immediate representation `{}`",
                            self.rep_name(r)
                        ),
                    );
                    return AbsVal::Top;
                }
                let size = self.const_of(&args[0], env);
                AbsVal::Tagged {
                    tags: TagSet::singleton(r),
                    size,
                }
            }
            SpecRef(r) | SpecSet(r) => {
                let subject = self.val_of(&args[0], env);
                self.check_mem_subject(op, r, &subject);
                // The operand is a byte offset: field `i` lives at `8 * i`.
                let index = self
                    .const_of(&args[1], env)
                    .filter(|k| k % 8 == 0)
                    .map(|k| k / 8);
                self.check_index(op, r, &subject, index);
                AbsVal::Top
            }
            Intern => match self.registry.role(roles::SYMBOL) {
                Some(r) => AbsVal::of_rep(r),
                None => AbsVal::Top,
            },
            WordAdd | WordSub | WordMul | WordQuot | WordRem | WordAnd | WordOr | WordXor
            | WordShl | WordShr | WordEq | WordLt | PtrEq => AbsVal::Raw(None),
            // Trap machinery: `%trap-call` yields whatever the thunk (or
            // the handler) returns, and `%raise` transfers control away —
            // neither result can be narrowed below Top.  The handler and
            // condition values cross an unwind, so no representation fact
            // established inside the protected extent may survive it.
            TrapCall | Raise => AbsVal::Top,
            _ => AbsVal::Top,
        }
    }

    /// Splits the environment for the two arms of a conditional, narrowing
    /// the subject of a recognized representation test. Returns `None` for
    /// an arm the test proves unreachable.
    fn refine(&self, env: &Env, t: &Test) -> (Option<Env>, Option<Env>) {
        let fact = match t {
            Test::Truthy(Atom::Var(v)) => env.facts.get(v).filter(|f| f.boolean),
            Test::NonZero(Atom::Var(v)) => env.facts.get(v).filter(|f| !f.boolean),
            _ => None,
        };
        let Some(&Fact { rep, subject, .. }) = fact else {
            return (Some(env.clone()), Some(env.clone()));
        };
        let current = env.vals.get(&subject).copied().unwrap_or(AbsVal::Top);
        let (then_val, else_val) = match current {
            AbsVal::Tagged { tags, size } => (
                tags.narrowed_to(rep)
                    .map(|t2| AbsVal::Tagged { tags: t2, size }),
                if tags.is_exactly(rep) {
                    None // the false arm is unreachable
                } else {
                    Some(AbsVal::Tagged {
                        tags: tags.without(rep),
                        size,
                    })
                },
            ),
            AbsVal::Top => (Some(AbsVal::of_rep(rep)), Some(AbsVal::Top)),
            other => (Some(other), Some(other)),
        };
        let arm = |val: Option<AbsVal>| {
            val.map(|val| {
                let mut e2 = env.clone();
                e2.vals.insert(subject, val);
                e2
            })
        };
        (arm(then_val), arm(else_val))
    }

    /// Walks an expression; the result is the join of all `Ret` values
    /// (`None` when every path tail-calls). Loops along the spine.
    fn eval_expr(&mut self, mut e: &Expr, env: &mut Env) -> Option<AbsVal> {
        loop {
            match e {
                Expr::Let(v, b, body) => {
                    let val = self.eval_bound(*v, b, env);
                    env.vals.insert(*v, val);
                    e = body;
                }
                Expr::LetRec(binds, body) => {
                    let closure = self.registry.role(roles::CLOSURE).map(AbsVal::of_rep);
                    for (v, _) in binds {
                        env.vals.insert(*v, closure.unwrap_or(AbsVal::Top));
                    }
                    for (_, l) in binds {
                        let mut inner = env.clone();
                        self.eval_expr(&l.body, &mut inner);
                    }
                    e = body;
                }
                Expr::If(t, then, els) => {
                    let (tenv, eenv) = self.refine(env, t);
                    let a = tenv.and_then(|mut e2| self.eval_expr(then, &mut e2));
                    let b = eenv.and_then(|mut e2| self.eval_expr(els, &mut e2));
                    return match (a, b) {
                        (Some(x), Some(y)) => Some(x.join(&y)),
                        (one, other) => one.or(other),
                    };
                }
                Expr::Ret(a) => return Some(self.val_of(a, env)),
                Expr::TailCall(..) | Expr::TailCallKnown(..) => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use sxr_ir::anf::Fun;

    fn registry() -> (RepRegistry, RepId, RepId) {
        let mut reg = RepRegistry::new();
        let fx = reg.intern_immediate("fixnum", 3, 0, 3).unwrap();
        let pair = reg.intern_pointer("pair", 1, false).unwrap();
        reg.provide_role(roles::FIXNUM, fx).unwrap();
        reg.provide_role(roles::PAIR, pair).unwrap();
        (reg, fx, pair)
    }

    fn run(reg: &RepRegistry, body: Expr) -> Vec<Diagnostic> {
        let m = Module {
            funs: vec![Fun {
                name: Some("test".into()),
                self_var: 0,
                params: vec![1],
                rest: None,
                free_count: 0,
                body,
            }],
            main: 0,
            global_names: vec![],
            var_names: vec![],
        };
        analyze_module(&m, reg, &HashMap::new())
    }

    fn rep(r: RepId) -> Atom {
        Atom::Lit(Literal::Rep(r))
    }

    fn lets(binds: Vec<(VarId, Bound)>, last: VarId) -> Expr {
        let mut e = Expr::Ret(Atom::Var(last));
        for (v, b) in binds.into_iter().rev() {
            e = Expr::Let(v, b, Box::new(e));
        }
        e
    }

    #[test]
    fn trap_ops_analyze_as_top() {
        let (reg, fx, _) = registry();
        // `%trap-call`'s result may come from the thunk or the handler, so
        // it is Top: projecting it is never flaggable, and neither trap op
        // produces a diagnostic of its own.
        let body = lets(
            vec![
                (
                    10,
                    Bound::Prim(PrimOp::TrapCall, vec![Atom::Var(1), Atom::Var(1)]),
                ),
                (
                    11,
                    Bound::Prim(PrimOp::RepProject, vec![rep(fx), Atom::Var(10)]),
                ),
                (12, Bound::Prim(PrimOp::Raise, vec![Atom::Var(10)])),
            ],
            11,
        );
        let diags = run(&reg, body);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn disjoint_projection_is_error() {
        let (reg, fx, pair) = registry();
        let body = lets(
            vec![
                (
                    10,
                    Bound::Prim(PrimOp::RepInject, vec![rep(fx), Atom::raw(5)]),
                ),
                (
                    11,
                    Bound::Prim(PrimOp::RepProject, vec![rep(pair), Atom::Var(10)]),
                ),
            ],
            11,
        );
        let diags = run(&reg, body);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].class, DiagClass::DisjointRep);
        assert_eq!(diags[0].severity(), Severity::Error);
        assert!(diags[0].message.contains("`pair`"), "{}", diags[0].message);
        assert!(
            diags[0].message.contains("`fixnum`"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn raw_load_on_immediate_is_error() {
        let (reg, fx, pair) = registry();
        // Field read through a pointer rep, but the subject is a fixnum.
        let body = lets(
            vec![
                (
                    10,
                    Bound::Prim(PrimOp::RepInject, vec![rep(fx), Atom::raw(5)]),
                ),
                (
                    11,
                    Bound::Prim(PrimOp::RepRef, vec![rep(pair), Atom::Var(10), Atom::raw(0)]),
                ),
            ],
            11,
        );
        let diags = run(&reg, body);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].class, DiagClass::RawMemOnImmediate);
    }

    #[test]
    fn field_access_through_immediate_rep_is_error() {
        let (reg, fx, _) = registry();
        let body = lets(
            vec![(
                10,
                Bound::Prim(PrimOp::RepRef, vec![rep(fx), Atom::Var(1), Atom::raw(0)]),
            )],
            10,
        );
        let diags = run(&reg, body);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].class, DiagClass::RawMemOnImmediate);
        assert!(
            diags[0].message.contains("immediate representation"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn load_from_raw_word_is_error() {
        let (reg, fx, pair) = registry();
        let body = lets(
            vec![
                (
                    10,
                    Bound::Prim(PrimOp::RepProject, vec![rep(fx), Atom::Var(1)]),
                ),
                (
                    11,
                    Bound::Prim(PrimOp::RepRef, vec![rep(pair), Atom::Var(10), Atom::raw(0)]),
                ),
            ],
            11,
        );
        let diags = run(&reg, body);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].class, DiagClass::RawMemOnImmediate);
        assert!(
            diags[0].message.contains("raw untagged word"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn constant_index_out_of_bounds_is_error() {
        let (reg, _, pair) = registry();
        let body = lets(
            vec![
                (
                    10,
                    Bound::Prim(
                        PrimOp::RepAlloc,
                        vec![rep(pair), Atom::raw(2), Atom::raw(0)],
                    ),
                ),
                (
                    11,
                    Bound::Prim(PrimOp::RepRef, vec![rep(pair), Atom::Var(10), Atom::raw(5)]),
                ),
            ],
            11,
        );
        let diags = run(&reg, body);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].class, DiagClass::IndexOutOfBounds);
        assert!(diags[0].message.contains("index 5"), "{}", diags[0].message);
        assert!(
            diags[0].message.contains("2 fields"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn spec_ops_are_checked_too() {
        let (reg, fx, pair) = registry();
        let body = lets(
            vec![
                (
                    10,
                    Bound::Prim(PrimOp::RepInject, vec![rep(fx), Atom::raw(5)]),
                ),
                (
                    11,
                    Bound::Prim(PrimOp::SpecRef(pair), vec![Atom::Var(10), Atom::raw(0)]),
                ),
                (
                    12,
                    Bound::Prim(PrimOp::SpecAlloc(pair), vec![Atom::raw(2), Atom::raw(0)]),
                ),
                (
                    13,
                    Bound::Prim(PrimOp::SpecRef(pair), vec![Atom::Var(12), Atom::raw(24)]),
                ),
            ],
            13,
        );
        let diags = run(&reg, body);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert_eq!(diags[0].class, DiagClass::RawMemOnImmediate);
        assert_eq!(diags[1].class, DiagClass::IndexOutOfBounds);
        assert!(diags[1].message.contains("index 3"), "{}", diags[1].message);
    }

    #[test]
    fn dead_rep_test_is_warning() {
        let (reg, fx, pair) = registry();
        let body = lets(
            vec![
                (
                    10,
                    Bound::Prim(PrimOp::RepInject, vec![rep(fx), Atom::raw(5)]),
                ),
                (
                    11,
                    Bound::Prim(PrimOp::RepTest, vec![rep(pair), Atom::Var(10)]),
                ),
                (
                    12,
                    Bound::Prim(PrimOp::RepTest, vec![rep(fx), Atom::Var(10)]),
                ),
            ],
            12,
        );
        let diags = run(&reg, body);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags
            .iter()
            .all(|d| d.class == DiagClass::DeadRepTest && !d.is_error()));
        assert!(
            diags[0].message.contains("always false"),
            "{}",
            diags[0].message
        );
        assert!(
            diags[1].message.contains("always true"),
            "{}",
            diags[1].message
        );
    }

    #[test]
    fn guarded_access_is_clean() {
        let (reg, _, pair) = registry();
        // The library's `car` shape: test, then access only when the test
        // passed. Var 1 is the unknown parameter.
        let body = Expr::Let(
            10,
            Bound::Prim(PrimOp::RepTest, vec![rep(pair), Atom::Var(1)]),
            Box::new(Expr::If(
                Test::NonZero(Atom::Var(10)),
                Box::new(lets(
                    vec![(
                        11,
                        Bound::Prim(PrimOp::RepRef, vec![rep(pair), Atom::Var(1), Atom::raw(0)]),
                    )],
                    11,
                )),
                Box::new(Expr::Ret(Atom::Lit(Literal::Unspecified))),
            )),
        );
        let diags = run(&reg, body);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn boolean_injected_guard_is_understood() {
        let mut reg = RepRegistry::new();
        let fx = reg.intern_immediate("fixnum", 3, 0, 3).unwrap();
        let bo = reg.intern_immediate("boolean", 8, 2, 8).unwrap();
        let pair = reg.intern_pointer("pair", 1, false).unwrap();
        reg.provide_role(roles::FIXNUM, fx).unwrap();
        reg.provide_role(roles::BOOLEAN, bo).unwrap();
        reg.provide_role(roles::PAIR, pair).unwrap();
        // t = rep-test pair x; b = rep-inject boolean t; if (truthy b) …
        let body = Expr::Let(
            10,
            Bound::Prim(PrimOp::RepTest, vec![rep(pair), Atom::Var(1)]),
            Box::new(Expr::Let(
                11,
                Bound::Prim(PrimOp::RepInject, vec![rep(bo), Atom::Var(10)]),
                Box::new(Expr::If(
                    Test::Truthy(Atom::Var(11)),
                    Box::new(lets(
                        vec![(
                            12,
                            Bound::Prim(
                                PrimOp::RepRef,
                                vec![rep(pair), Atom::Var(1), Atom::raw(0)],
                            ),
                        )],
                        12,
                    )),
                    Box::new(Expr::Ret(Atom::Lit(Literal::Unspecified))),
                )),
            )),
        );
        let diags = run(&reg, body);
        assert!(diags.is_empty(), "{diags:?}");
        // The *false* arm projecting through `pair` is still unknown
        // (complement is unrepresentable), so no spurious diagnostics
        // there either — but accessing after a failed narrow from an exact
        // tag set is flagged:
        let body2 = lets(
            vec![
                (
                    10,
                    Bound::Prim(PrimOp::RepInject, vec![rep(fx), Atom::raw(1)]),
                ),
                (
                    11,
                    Bound::Prim(PrimOp::RepRef, vec![rep(pair), Atom::Var(10), Atom::raw(0)]),
                ),
            ],
            11,
        );
        assert_eq!(run(&reg, body2).len(), 1);
    }

    #[test]
    fn literal_datum_seeding() {
        let (reg, _, pair) = registry();
        // (car '(1 2)) is fine; field 5 of a pair cell is not.
        let lst = Atom::Lit(Literal::Datum(Datum::List(vec![
            Datum::Fixnum(1),
            Datum::Fixnum(2),
        ])));
        let ok = lets(
            vec![(
                10,
                Bound::Prim(PrimOp::RepRef, vec![rep(pair), lst.clone(), Atom::raw(0)]),
            )],
            10,
        );
        assert!(run(&reg, ok).is_empty());
        let bad = lets(
            vec![(
                10,
                Bound::Prim(PrimOp::RepRef, vec![rep(pair), lst, Atom::raw(5)]),
            )],
            10,
        );
        let diags = run(&reg, bad);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].class, DiagClass::IndexOutOfBounds);
    }

    #[test]
    fn unknown_values_stay_silent() {
        let (reg, _, pair) = registry();
        // Parameter, call result, closure slot: all Top, nothing provable.
        let body = lets(
            vec![
                (10, Bound::Call(Atom::Var(1), vec![])),
                (
                    11,
                    Bound::Prim(PrimOp::RepRef, vec![rep(pair), Atom::Var(10), Atom::raw(0)]),
                ),
                (
                    12,
                    Bound::Prim(PrimOp::RepTest, vec![rep(pair), Atom::Var(1)]),
                ),
            ],
            12,
        );
        assert!(run(&reg, body).is_empty());
    }
}

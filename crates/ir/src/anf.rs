//! A-normal-form intermediate representation.
//!
//! Invariants (checked by [`crate::validate`]):
//!
//! * every intermediate value is let-bound to a unique [`VarId`]
//!   (single assignment; alpha-renamed),
//! * operands are [`Atom`]s (variables or literals),
//! * a value-producing `if` is a [`Bound::If`] whose branches end in
//!   [`Expr::Ret`] ("yield to the bound variable"),
//! * tail calls appear only in tail position.
//!
//! Before closure conversion, functions are nested ([`Bound::Lambda`],
//! [`Expr::LetRec`]); afterwards the program is a flat [`Module`] of
//! first-order functions and explicit [`Bound::MakeClosure`] allocations.

use crate::idmap::IdMap;
use crate::prim::PrimOp;
use crate::rep::RepId;
use sxr_sexp::Datum;

/// Alpha-renamed variable id (shared numbering with the front end).
pub type VarId = u32;
/// Global-table slot.
pub type GlobalId = u32;
/// Index of a function in a [`Module`].
pub type FnId = u32;

/// A compile-time constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Literal {
    /// A (possibly structured) quoted datum, encoded by the loader using
    /// the representation registry.
    Datum(Datum),
    /// The unspecified value.
    Unspecified,
    /// A compile-time-known representation type (result of folding
    /// `%make-*-type`).
    Rep(RepId),
    /// An untagged machine word (appears after rep specialization).
    Raw(i64),
}

/// A trivial operand.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Atom {
    /// A variable reference.
    Var(VarId),
    /// A constant.
    Lit(Literal),
}

impl Atom {
    /// Convenience constructor for raw-word literals.
    pub fn raw(w: i64) -> Atom {
        Atom::Lit(Literal::Raw(w))
    }

    /// The variable id, if this is a variable.
    pub fn as_var(&self) -> Option<VarId> {
        match self {
            Atom::Var(v) => Some(*v),
            Atom::Lit(_) => None,
        }
    }
}

/// A nested function (pre-closure-conversion).
#[derive(Debug, Clone, PartialEq)]
pub struct FunDef {
    /// Fixed parameters.
    pub params: Vec<VarId>,
    /// Rest parameter for variadic functions (receives a library list).
    pub rest: Option<VarId>,
    /// The body.
    pub body: Box<Expr>,
    /// Diagnostic name.
    pub name: Option<String>,
}

/// The condition of a branch.
#[derive(Debug, Clone, PartialEq)]
pub enum Test {
    /// Scheme truth: the value is not the false object.
    Truthy(Atom),
    /// The raw word is non-zero (produced by optimization; cheaper because
    /// it composes with comparison results).
    NonZero(Atom),
}

impl Test {
    /// The tested atom.
    pub fn atom(&self) -> &Atom {
        match self {
            Test::Truthy(a) | Test::NonZero(a) => a,
        }
    }

    /// Mutable access to the tested atom.
    pub fn atom_mut(&mut self) -> &mut Atom {
        match self {
            Test::Truthy(a) | Test::NonZero(a) => a,
        }
    }
}

/// The right-hand side of a `let`.
#[derive(Debug, Clone, PartialEq)]
pub enum Bound {
    /// A trivial binding (copy).
    Atom(Atom),
    /// A sub-primitive application.
    Prim(PrimOp, Vec<Atom>),
    /// A call to a computed procedure.
    Call(Atom, Vec<Atom>),
    /// A call whose target function is statically known (post-cc). The atom
    /// is the closure value passed as the callee's environment.
    CallKnown(FnId, Atom, Vec<Atom>),
    /// Read a global.
    GlobalGet(GlobalId),
    /// Write a global; the bound variable receives an unspecified value and
    /// is conventionally unused.
    GlobalSet(GlobalId, Atom),
    /// A nested function (pre-cc only).
    Lambda(FunDef),
    /// Allocate a closure over the given free-variable values (post-cc).
    MakeClosure(FnId, Vec<Atom>),
    /// Read free-variable slot `idx` of the current function's own closure
    /// (post-cc).
    ClosureRef(usize),
    /// Overwrite free-variable slot `1`-based `idx` of a closure (post-cc;
    /// used to tie `letrec` knots).
    ClosurePatch(Atom, usize, Atom),
    /// A value-producing conditional; branches end in [`Expr::Ret`], whose
    /// atom becomes the bound value.
    If(Test, Box<Expr>, Box<Expr>),
    /// A value-producing sub-expression ending in [`Expr::Ret`] (introduced
    /// by the inliner when splicing a callee body into a non-tail site).
    Body(Box<Expr>),
}

/// An ANF expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `let v = bound in body`.
    Let(VarId, Bound, Box<Expr>),
    /// A conditional in tail position.
    If(Test, Box<Expr>, Box<Expr>),
    /// Return / yield a value.
    Ret(Atom),
    /// A call in tail position.
    TailCall(Atom, Vec<Atom>),
    /// A statically-resolved tail call (post-cc).
    TailCallKnown(FnId, Atom, Vec<Atom>),
    /// Mutually recursive nested functions (pre-cc only).
    LetRec(Vec<(VarId, FunDef)>, Box<Expr>),
}

/// A first-order function after closure conversion.
#[derive(Debug, Clone, PartialEq)]
pub struct Fun {
    /// Diagnostic name.
    pub name: Option<String>,
    /// The variable holding the function's own closure (register 0).
    pub self_var: VarId,
    /// Fixed parameters (registers 1..).
    pub params: Vec<VarId>,
    /// Rest parameter (register 1 + params.len()) for variadic functions;
    /// the machine delivers extra arguments there as a list.
    pub rest: Option<VarId>,
    /// Number of free-variable slots in the closure.
    pub free_count: usize,
    /// The body. `Bound::Lambda` / `Expr::LetRec` do not occur.
    pub body: Expr,
}

/// A closure-converted program.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// All functions; `funs[main]` is the program entry.
    pub funs: Vec<Fun>,
    /// Entry function (no parameters, ignores its closure).
    pub main: FnId,
    /// Global-slot names.
    pub global_names: Vec<String>,
    /// Variable names for diagnostics.
    pub var_names: Vec<String>,
}

/// A fresh-variable supply backed by the diagnostic name table.
#[derive(Debug, Default)]
pub struct NameSupply {
    /// `VarId ->` name.
    pub names: Vec<String>,
}

impl NameSupply {
    /// Wraps an existing name table (e.g. from the front end).
    pub fn from_names(names: Vec<String>) -> NameSupply {
        NameSupply { names }
    }

    /// Allocates a fresh variable.
    pub fn fresh(&mut self, hint: &str) -> VarId {
        let v = self.names.len() as VarId;
        self.names.push(hint.to_string());
        v
    }

    /// The name of `v`.
    pub fn name(&self, v: VarId) -> &str {
        self.names
            .get(v as usize)
            .map(String::as_str)
            .unwrap_or("?")
    }
}

// ---------------------------------------------------------------------------
// Traversal utilities
// ---------------------------------------------------------------------------

impl Bound {
    /// Visits every atom operand.
    pub fn for_each_atom(&self, f: &mut impl FnMut(&Atom)) {
        match self {
            Bound::Atom(a) => f(a),
            Bound::Prim(_, atoms) | Bound::MakeClosure(_, atoms) => atoms.iter().for_each(f),
            Bound::Call(callee, args) => {
                f(callee);
                args.iter().for_each(f);
            }
            Bound::CallKnown(_, clo, args) => {
                f(clo);
                args.iter().for_each(f);
            }
            Bound::GlobalGet(_) | Bound::ClosureRef(_) => {}
            Bound::GlobalSet(_, a) => f(a),
            Bound::Lambda(_) => {}
            Bound::ClosurePatch(c, _, v) => {
                f(c);
                f(v);
            }
            Bound::If(t, then, els) => {
                f(t.atom());
                then.for_each_atom(f);
                els.for_each_atom(f);
            }
            Bound::Body(e) => e.for_each_atom(f),
        }
    }

    /// Mutably visits every *directly owned* atom operand (not atoms inside
    /// nested expressions or lambdas).
    pub fn for_each_atom_shallow_mut(&mut self, f: &mut impl FnMut(&mut Atom)) {
        match self {
            Bound::Atom(a) => f(a),
            Bound::Prim(_, atoms) | Bound::MakeClosure(_, atoms) => atoms.iter_mut().for_each(f),
            Bound::Call(callee, args) => {
                f(callee);
                args.iter_mut().for_each(f);
            }
            Bound::CallKnown(_, clo, args) => {
                f(clo);
                args.iter_mut().for_each(f);
            }
            Bound::GlobalGet(_) | Bound::ClosureRef(_) => {}
            Bound::GlobalSet(_, a) => f(a),
            Bound::Lambda(_) => {}
            Bound::ClosurePatch(c, _, v) => {
                f(c);
                f(v);
            }
            Bound::If(t, _, _) => f(t.atom_mut()),
            Bound::Body(_) => {}
        }
    }
}

impl Expr {
    /// Visits every atom in the expression, including inside nested lambdas.
    pub fn for_each_atom(&self, f: &mut impl FnMut(&Atom)) {
        match self {
            Expr::Let(_, b, body) => {
                b.for_each_atom(f);
                if let Bound::Lambda(l) = b {
                    l.body.for_each_atom(f);
                }
                body.for_each_atom(f);
            }
            Expr::If(t, then, els) => {
                f(t.atom());
                then.for_each_atom(f);
                els.for_each_atom(f);
            }
            Expr::Ret(a) => f(a),
            Expr::TailCall(callee, args) => {
                f(callee);
                args.iter().for_each(f);
            }
            Expr::TailCallKnown(_, clo, args) => {
                f(clo);
                args.iter().for_each(f);
            }
            Expr::LetRec(binds, body) => {
                for (_, l) in binds {
                    l.body.for_each_atom(f);
                }
                body.for_each_atom(f);
            }
        }
    }

    /// Approximate node count (inlining heuristics, tests).
    pub fn size(&self) -> usize {
        match self {
            Expr::Let(_, b, body) => {
                let bsize = match b {
                    Bound::Lambda(l) => 1 + l.body.size(),
                    Bound::If(_, t, e) => 1 + t.size() + e.size(),
                    Bound::Body(e) => 1 + e.size(),
                    _ => 1,
                };
                bsize + body.size()
            }
            Expr::If(_, t, e) => 1 + t.size() + e.size(),
            Expr::Ret(_) => 1,
            Expr::TailCall(..) | Expr::TailCallKnown(..) => 1,
            Expr::LetRec(binds, body) => {
                1 + binds.iter().map(|(_, l)| 1 + l.body.size()).sum::<usize>() + body.size()
            }
        }
    }

    /// Whether [`Expr::size`] exceeds `limit`, counting only until it
    /// does: O(`limit`) however large the expression is.
    pub fn size_exceeds(&self, limit: usize) -> bool {
        /// Counts one node; true once the count passes the limit.
        fn spend(left: &mut usize) -> bool {
            let over = *left == 0;
            *left = left.saturating_sub(1);
            over
        }
        fn over(e: &Expr, left: &mut usize) -> bool {
            spend(left)
                || match e {
                    Expr::Let(_, b, body) => {
                        (match b {
                            Bound::Lambda(l) => over(&l.body, left),
                            Bound::If(_, t, e) => over(t, left) || over(e, left),
                            Bound::Body(e) => over(e, left),
                            _ => false,
                        }) || over(body, left)
                    }
                    Expr::If(_, t, e) => over(t, left) || over(e, left),
                    Expr::Ret(_) | Expr::TailCall(..) | Expr::TailCallKnown(..) => false,
                    Expr::LetRec(binds, body) => {
                        binds
                            .iter()
                            .any(|(_, l)| spend(left) || over(&l.body, left))
                            || over(body, left)
                    }
                }
        }
        let mut left = limit;
        over(self, &mut left)
    }

    /// Counts uses of each variable as an operand (definitions excluded).
    pub fn use_counts(&self, out: &mut IdMap<VarId, usize>) {
        self.for_each_atom(&mut |a| {
            if let Atom::Var(v) = a {
                *out.entry(*v).or_insert(0) += 1;
            }
        });
    }
}

/// Substitutes atoms for variables throughout `e` (including inside nested
/// lambdas). Bound variable ids are globally unique, so no capture is
/// possible.
pub fn substitute(e: &mut Expr, map: &IdMap<VarId, Atom>) {
    fn subst_atom(a: &mut Atom, map: &IdMap<VarId, Atom>) {
        if let Atom::Var(v) = a {
            if let Some(rep) = map.get(v) {
                *a = rep.clone();
            }
        }
    }
    fn go_bound(b: &mut Bound, map: &IdMap<VarId, Atom>) {
        b.for_each_atom_shallow_mut(&mut |a| subst_atom(a, map));
        match b {
            Bound::Lambda(l) => substitute(&mut l.body, map),
            Bound::If(_, then, els) => {
                substitute(then, map);
                substitute(els, map);
            }
            Bound::Body(e) => substitute(e, map),
            _ => {}
        }
    }
    match e {
        Expr::Let(_, b, body) => {
            go_bound(b, map);
            substitute(body, map);
        }
        Expr::If(t, then, els) => {
            subst_atom(t.atom_mut(), map);
            substitute(then, map);
            substitute(els, map);
        }
        Expr::Ret(a) => subst_atom(a, map),
        Expr::TailCall(callee, args) => {
            subst_atom(callee, map);
            args.iter_mut().for_each(|a| subst_atom(a, map));
        }
        Expr::TailCallKnown(_, clo, args) => {
            subst_atom(clo, map);
            args.iter_mut().for_each(|a| subst_atom(a, map));
        }
        Expr::LetRec(binds, body) => {
            for (_, l) in binds.iter_mut() {
                substitute(&mut l.body, map);
            }
            substitute(body, map);
        }
    }
}

/// Produces an alpha-converted copy of `e`: every variable *bound inside*
/// `e` gets a fresh id; free variables are left alone. Used by the inliner
/// to keep the single-assignment invariant.
pub fn refresh(e: &Expr, supply: &mut NameSupply) -> Expr {
    let mut map = IdMap::default();
    refresh_with(e, supply, &mut map)
}

fn refresh_var(v: VarId, supply: &mut NameSupply, map: &mut IdMap<VarId, VarId>) -> VarId {
    let name = supply.name(v).to_string();
    let fresh = supply.fresh(&name);
    map.insert(v, fresh);
    fresh
}

fn rename_atom(a: &Atom, map: &IdMap<VarId, VarId>) -> Atom {
    match a {
        Atom::Var(v) => Atom::Var(*map.get(v).unwrap_or(v)),
        lit => lit.clone(),
    }
}

fn refresh_fundef(l: &FunDef, supply: &mut NameSupply, map: &mut IdMap<VarId, VarId>) -> FunDef {
    let params = l
        .params
        .iter()
        .map(|p| refresh_var(*p, supply, map))
        .collect();
    let rest = l.rest.map(|r| refresh_var(r, supply, map));
    let body = Box::new(refresh_with(&l.body, supply, map));
    FunDef {
        params,
        rest,
        body,
        name: l.name.clone(),
    }
}

fn refresh_with(e: &Expr, supply: &mut NameSupply, map: &mut IdMap<VarId, VarId>) -> Expr {
    match e {
        Expr::Let(v, b, body) => {
            let b = match b {
                Bound::Atom(a) => Bound::Atom(rename_atom(a, map)),
                Bound::Prim(op, atoms) => {
                    Bound::Prim(*op, atoms.iter().map(|a| rename_atom(a, map)).collect())
                }
                Bound::Call(callee, args) => Bound::Call(
                    rename_atom(callee, map),
                    args.iter().map(|a| rename_atom(a, map)).collect(),
                ),
                Bound::CallKnown(f, clo, args) => Bound::CallKnown(
                    *f,
                    rename_atom(clo, map),
                    args.iter().map(|a| rename_atom(a, map)).collect(),
                ),
                Bound::GlobalGet(g) => Bound::GlobalGet(*g),
                Bound::ClosureRef(i) => Bound::ClosureRef(*i),
                Bound::GlobalSet(g, a) => Bound::GlobalSet(*g, rename_atom(a, map)),
                Bound::Lambda(l) => Bound::Lambda(refresh_fundef(l, supply, map)),
                Bound::MakeClosure(f, atoms) => {
                    Bound::MakeClosure(*f, atoms.iter().map(|a| rename_atom(a, map)).collect())
                }
                Bound::ClosurePatch(c, i, x) => {
                    Bound::ClosurePatch(rename_atom(c, map), *i, rename_atom(x, map))
                }
                Bound::If(t, then, els) => {
                    let t = match t {
                        Test::Truthy(a) => Test::Truthy(rename_atom(a, map)),
                        Test::NonZero(a) => Test::NonZero(rename_atom(a, map)),
                    };
                    let then = Box::new(refresh_with(then, supply, map));
                    let els = Box::new(refresh_with(els, supply, map));
                    Bound::If(t, then, els)
                }
                Bound::Body(e) => Bound::Body(Box::new(refresh_with(e, supply, map))),
            };
            let v2 = refresh_var(*v, supply, map);
            let body = Box::new(refresh_with(body, supply, map));
            Expr::Let(v2, b, body)
        }
        Expr::If(t, then, els) => {
            let t = match t {
                Test::Truthy(a) => Test::Truthy(rename_atom(a, map)),
                Test::NonZero(a) => Test::NonZero(rename_atom(a, map)),
            };
            Expr::If(
                t,
                Box::new(refresh_with(then, supply, map)),
                Box::new(refresh_with(els, supply, map)),
            )
        }
        Expr::Ret(a) => Expr::Ret(rename_atom(a, map)),
        Expr::TailCall(callee, args) => Expr::TailCall(
            rename_atom(callee, map),
            args.iter().map(|a| rename_atom(a, map)).collect(),
        ),
        Expr::TailCallKnown(f, clo, args) => Expr::TailCallKnown(
            *f,
            rename_atom(clo, map),
            args.iter().map(|a| rename_atom(a, map)).collect(),
        ),
        Expr::LetRec(binds, body) => {
            // Bind all names first (mutual recursion), then refresh bodies.
            let vars: Vec<VarId> = binds
                .iter()
                .map(|(v, _)| refresh_var(*v, supply, map))
                .collect();
            let binds = vars
                .into_iter()
                .zip(binds.iter())
                .map(|(v2, (_, l))| (v2, refresh_fundef(l, supply, map)))
                .collect();
            Expr::LetRec(binds, Box::new(refresh_with(body, supply, map)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Expr {
        // let a = %word+ x y in ret a
        Expr::Let(
            10,
            Bound::Prim(PrimOp::WordAdd, vec![Atom::Var(1), Atom::Var(2)]),
            Box::new(Expr::Ret(Atom::Var(10))),
        )
    }

    #[test]
    fn use_counts() {
        let mut counts = IdMap::default();
        sample().use_counts(&mut counts);
        assert_eq!(counts.get(&1), Some(&1));
        assert_eq!(counts.get(&10), Some(&1));
    }

    #[test]
    fn substitution() {
        let mut e = sample();
        let mut map = IdMap::default();
        map.insert(1u32, Atom::raw(7));
        substitute(&mut e, &map);
        match e {
            Expr::Let(_, Bound::Prim(_, atoms), _) => {
                assert_eq!(atoms[0], Atom::raw(7));
                assert_eq!(atoms[1], Atom::Var(2));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn refresh_renames_bound_not_free() {
        let mut supply = NameSupply::from_names(vec!["x".into(); 11]);
        let e = sample();
        let e2 = refresh(&e, &mut supply);
        match e2 {
            Expr::Let(v, Bound::Prim(_, atoms), body) => {
                assert_ne!(v, 10, "bound var renamed");
                assert_eq!(atoms[0], Atom::Var(1), "free var untouched");
                assert_eq!(*body, Expr::Ret(Atom::Var(v)), "uses follow the rename");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn refresh_handles_letrec_mutual() {
        let f = FunDef {
            params: vec![5],
            rest: None,
            body: Box::new(Expr::TailCall(Atom::Var(21), vec![Atom::Var(5)])),
            name: None,
        };
        let g = FunDef {
            params: vec![6],
            rest: None,
            body: Box::new(Expr::TailCall(Atom::Var(20), vec![Atom::Var(6)])),
            name: None,
        };
        let e = Expr::LetRec(vec![(20, f), (21, g)], Box::new(Expr::Ret(Atom::Var(20))));
        let mut supply = NameSupply::from_names(vec!["v".into(); 22]);
        let e2 = refresh(&e, &mut supply);
        let Expr::LetRec(binds, body) = e2 else {
            panic!()
        };
        let (f2, g2) = (binds[0].0, binds[1].0);
        assert_ne!(f2, 20);
        // f's body calls the renamed g, and vice versa.
        let Expr::TailCall(Atom::Var(callee), _) = &*binds[0].1.body else {
            panic!()
        };
        assert_eq!(*callee, g2);
        let Expr::TailCall(Atom::Var(callee2), _) = &*binds[1].1.body else {
            panic!()
        };
        assert_eq!(*callee2, f2);
        assert_eq!(*body, Expr::Ret(Atom::Var(f2)));
    }

    #[test]
    fn size_counts() {
        assert_eq!(sample().size(), 2);
    }

    #[test]
    fn size_exceeds_agrees_with_size() {
        let lam = |body: Expr| FunDef {
            params: vec![3],
            rest: None,
            body: Box::new(body),
            name: None,
        };
        let shapes = [
            sample(),
            Expr::Let(
                11,
                Bound::If(
                    Test::Truthy(Atom::Var(1)),
                    Box::new(sample()),
                    Box::new(sample()),
                ),
                Box::new(Expr::If(
                    Test::Truthy(Atom::Var(11)),
                    Box::new(Expr::Let(
                        12,
                        Bound::Body(Box::new(sample())),
                        Box::new(sample()),
                    )),
                    Box::new(Expr::TailCall(Atom::Var(2), vec![])),
                )),
            ),
            Expr::Let(
                13,
                Bound::Lambda(lam(sample())),
                Box::new(Expr::LetRec(
                    vec![(14, lam(sample())), (15, lam(Expr::Ret(Atom::Var(3))))],
                    Box::new(sample()),
                )),
            ),
        ];
        for e in &shapes {
            let size = e.size();
            for limit in 0..size + 3 {
                assert_eq!(
                    e.size_exceeds(limit),
                    size > limit,
                    "size {size}, limit {limit}"
                );
            }
        }
    }

    #[test]
    fn for_each_atom_covers_nested_if() {
        let e = Expr::Let(
            3,
            Bound::If(
                Test::Truthy(Atom::Var(1)),
                Box::new(Expr::Ret(Atom::Var(7))),
                Box::new(Expr::Ret(Atom::Var(8))),
            ),
            Box::new(Expr::Ret(Atom::Var(3))),
        );
        let mut seen = Vec::new();
        e.for_each_atom(&mut |a| {
            if let Atom::Var(v) = a {
                seen.push(*v);
            }
        });
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 3, 7, 8]);
    }
}

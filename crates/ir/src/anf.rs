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

    /// Moves `self` out, leaving the unspecified constant in its place.
    pub fn take(&mut self) -> Atom {
        std::mem::replace(self, Atom::Lit(Literal::Unspecified))
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

/// Dropping keeps its own stack, as [`Expr::visit`] does: a spine of any
/// length, or a nest of `if`s and lambdas of any depth, costs no stack.
/// So an `Expr` is never destructured by value; move its parts out with
/// [`Expr::take`], [`Bound::take`] or [`Expr::into_spine`].
impl Drop for Expr {
    fn drop(&mut self) {
        let mut stack = Vec::new();
        self.move_children(&mut stack);
        while let Some(mut e) = stack.pop() {
            // `e` drops with only tails below it at the end of the pass.
            e.move_children(&mut stack);
        }
    }
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

    /// Allocates a fresh variable named like `v` (a renamed copy of it).
    pub fn fresh_like(&mut self, v: VarId) -> VarId {
        let name = self.name(v).to_string();
        let w = self.names.len() as VarId;
        self.names.push(name);
        w
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
// Traversal
// ---------------------------------------------------------------------------
//
// This section is the one place that knows the shape of ANF. Two facts make
// that shape: `Let` and `LetRec` continue in their body (a chain of them is
// a *spine*, ended by a *tail*), and `Bound::Lambda`, `Bound::If`,
// `Bound::Body`, `Expr::If` and `Expr::LetRec` own nested expressions
// (`Expr::children` lists them). [`Expr::visit`], its mutable twin and the
// `Drop` of `Expr` keep their own work stacks, and the spine helpers loop,
// so no walk here recurses once per binding: a straight-line program of
// any length costs no stack.
//
// A pass that rewrites in place holds a cursor `&mut Expr` on the spine and
// moves it with [`Expr::next_mut`]. It edits the node under the cursor
// through [`Expr::unlink`] (drop the binding; the rest of the spine moves
// up into its slot) and [`Expr::link`] (put a binding in front of it);
// neither touches the rest of the spine, so a node the pass leaves alone
// keeps its allocation.

/// What [`Expr::visit`] does after showing a node to its visitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walk<B = ()> {
    /// Go on into the node's sub-expressions.
    Enter,
    /// Go on into the node's sub-expressions except lambda bodies (those of
    /// a `let`-bound lambda or of a `letrec` group), which the visitor
    /// handles itself.
    SkipLambdas,
    /// End the walk with this value.
    Stop(B),
}

/// One binding of a spine. Its scope is the rest of the spine.
#[derive(Debug, Clone, PartialEq)]
pub enum Link {
    /// `let v = bound`.
    Let(VarId, Bound),
    /// A `letrec` group.
    LetRec(Vec<(VarId, FunDef)>),
}

impl Bound {
    /// Moves `self` out, leaving the unspecified constant in its place
    /// (which costs no allocation).
    pub fn take(&mut self) -> Bound {
        std::mem::replace(self, Bound::Atom(Atom::Lit(Literal::Unspecified)))
    }

    /// Visits every *directly owned* atom operand (not atoms inside nested
    /// expressions or lambdas).
    pub fn for_each_atom_shallow(&self, f: &mut impl FnMut(&Atom)) {
        match self {
            Bound::Atom(a) | Bound::GlobalSet(_, a) => f(a),
            Bound::Prim(_, atoms) | Bound::MakeClosure(_, atoms) => atoms.iter().for_each(f),
            Bound::Call(callee, args) | Bound::CallKnown(_, callee, args) => {
                f(callee);
                args.iter().for_each(f);
            }
            Bound::ClosurePatch(c, _, v) => {
                f(c);
                f(v);
            }
            Bound::If(t, _, _) => f(t.atom()),
            Bound::GlobalGet(_) | Bound::ClosureRef(_) | Bound::Lambda(_) | Bound::Body(_) => {}
        }
    }

    /// Mutably visits every *directly owned* atom operand (not atoms inside
    /// nested expressions or lambdas).
    pub fn for_each_atom_shallow_mut(&mut self, f: &mut impl FnMut(&mut Atom)) {
        match self {
            Bound::Atom(a) | Bound::GlobalSet(_, a) => f(a),
            Bound::Prim(_, atoms) | Bound::MakeClosure(_, atoms) => atoms.iter_mut().for_each(f),
            Bound::Call(callee, args) | Bound::CallKnown(_, callee, args) => {
                f(callee);
                args.iter_mut().for_each(f);
            }
            Bound::ClosurePatch(c, _, v) => {
                f(c);
                f(v);
            }
            Bound::If(t, _, _) => f(t.atom_mut()),
            Bound::GlobalGet(_) | Bound::ClosureRef(_) | Bound::Lambda(_) | Bound::Body(_) => {}
        }
    }
}

impl Expr {
    /// Shows every expression node of `self` to `f` in pre-order: a `let`
    /// or `letrec` node, then the expressions its binding owns, then the
    /// rest of its spine; an `if`, then its arms. `if` arms and
    /// [`Bound::Body`] are always covered, lambda bodies unless `f`
    /// answers [`Walk::SkipLambdas`] for the node that binds them. Returns
    /// the value `f` stopped with, if any.
    pub fn visit<B>(&self, mut f: impl FnMut(&Expr) -> Walk<B>) -> Option<B> {
        let mut stack = Vec::with_capacity(16);
        stack.push(self);
        while let Some(e) = stack.pop() {
            let lambdas = match f(e) {
                Walk::Enter => true,
                Walk::SkipLambdas => false,
                Walk::Stop(b) => return Some(b),
            };
            e.children(lambdas, |c| stack.push(c));
        }
        None
    }

    /// [`Expr::visit`] with mutable access: `f` may rewrite a node's atoms
    /// (or the node itself), and the walk goes on into what it left.
    pub fn visit_mut<B>(&mut self, mut f: impl FnMut(&mut Expr) -> Walk<B>) -> Option<B> {
        let mut stack = Vec::with_capacity(16);
        stack.push(self);
        while let Some(e) = stack.pop() {
            let lambdas = match f(e) {
                Walk::Enter => true,
                Walk::SkipLambdas => false,
                Walk::Stop(b) => return Some(b),
            };
            e.children_mut(lambdas, |c| stack.push(c));
        }
        None
    }

    /// Shows `f` each expression this node owns (lambda bodies only when
    /// `lambdas`) in the order a work stack needs for a pre-order walk:
    /// last first, so the rest of the spine comes before the expressions
    /// of the binding, and an `if`'s else arm before its then arm.
    fn children<'a>(&'a self, lambdas: bool, mut f: impl FnMut(&'a Expr)) {
        match self {
            Expr::Let(_, b, body) => {
                f(body);
                match b {
                    Bound::Lambda(l) if lambdas => f(&l.body),
                    Bound::If(_, t, e) => {
                        f(e);
                        f(t);
                    }
                    Bound::Body(inner) => f(inner),
                    _ => {}
                }
            }
            Expr::If(_, t, e) => {
                f(e);
                f(t);
            }
            Expr::LetRec(binds, body) => {
                f(body);
                if lambdas {
                    binds.iter().rev().for_each(|(_, l)| f(&l.body));
                }
            }
            Expr::Ret(_) | Expr::TailCall(..) | Expr::TailCallKnown(..) => {}
        }
    }

    /// Mutable twin of [`Expr::children`].
    fn children_mut<'a>(&'a mut self, lambdas: bool, mut f: impl FnMut(&'a mut Expr)) {
        match self {
            Expr::Let(_, b, body) => {
                f(body);
                match b {
                    Bound::Lambda(l) if lambdas => f(&mut l.body),
                    Bound::If(_, t, e) => {
                        f(e);
                        f(t);
                    }
                    Bound::Body(inner) => f(inner),
                    _ => {}
                }
            }
            Expr::If(_, t, e) => {
                f(e);
                f(t);
            }
            Expr::LetRec(binds, body) => {
                f(body);
                if lambdas {
                    binds.iter_mut().rev().for_each(|(_, l)| f(&mut l.body));
                }
            }
            Expr::Ret(_) | Expr::TailCall(..) | Expr::TailCallKnown(..) => {}
        }
    }

    /// Visits the atoms this node holds itself: a `let`'s operands, an
    /// `if`'s test, a tail's operands. Not those of nested expressions or
    /// of the rest of the spine.
    pub fn for_each_atom_shallow(&self, f: &mut impl FnMut(&Atom)) {
        match self {
            Expr::Let(_, b, _) => b.for_each_atom_shallow(f),
            Expr::If(t, _, _) => f(t.atom()),
            Expr::Ret(a) => f(a),
            Expr::TailCall(callee, args) | Expr::TailCallKnown(_, callee, args) => {
                f(callee);
                args.iter().for_each(f);
            }
            Expr::LetRec(..) => {}
        }
    }

    /// Mutable twin of [`Expr::for_each_atom_shallow`].
    pub fn for_each_atom_shallow_mut(&mut self, f: &mut impl FnMut(&mut Atom)) {
        match self {
            Expr::Let(_, b, _) => b.for_each_atom_shallow_mut(f),
            Expr::If(t, _, _) => f(t.atom_mut()),
            Expr::Ret(a) => f(a),
            Expr::TailCall(callee, args) | Expr::TailCallKnown(_, callee, args) => {
                f(callee);
                args.iter_mut().for_each(f);
            }
            Expr::LetRec(..) => {}
        }
    }

    /// Moves `self` out, leaving `Ret(unspecified)` in its place (which
    /// costs no allocation).
    pub fn take(&mut self) -> Expr {
        std::mem::replace(self, Expr::Ret(Atom::Lit(Literal::Unspecified)))
    }

    /// Moves every expression `self` owns that is not a tail onto `stack`,
    /// leaving `self` with only tails below it. Tails own no expressions,
    /// so they stay, and `Vec::new` never allocates for a node that has
    /// nothing deeper to give up.
    fn move_children(&mut self, stack: &mut Vec<Expr>) {
        self.children_mut(true, |c| {
            if matches!(c, Expr::Let(..) | Expr::If(..) | Expr::LetRec(..)) {
                stack.push(c.take());
            }
        });
    }

    /// The rest of the spine after the `let` or `letrec` node `self`, or
    /// `None` when `self` is a tail.
    pub fn next_mut(&mut self) -> Option<&mut Expr> {
        match self {
            Expr::Let(_, _, body) | Expr::LetRec(_, body) => Some(body),
            _ => None,
        }
    }

    /// Drops the binding at the head of `self`: the rest of the spine
    /// takes its place. No change when `self` is a tail.
    pub fn unlink(&mut self) {
        if let Some(rest) = self.next_mut().map(Expr::take) {
            *self = rest;
        }
    }

    /// Puts `link` in front of `self`, which becomes its scope.
    pub fn link(&mut self, link: Link) {
        let rest = Box::new(self.take());
        *self = match link {
            Link::Let(v, b) => Expr::Let(v, b, rest),
            Link::LetRec(binds) => Expr::LetRec(binds, rest),
        };
    }

    /// Takes the spine at the head of `self` apart: its bindings in order,
    /// and the tail that ends it (neither `Let` nor `LetRec`).
    pub fn into_spine(mut self) -> (Vec<Link>, Expr) {
        let mut links = Vec::new();
        loop {
            match &mut self {
                Expr::Let(v, b, body) => {
                    links.push(Link::Let(*v, b.take()));
                    self = body.take();
                }
                Expr::LetRec(binds, body) => {
                    links.push(Link::LetRec(std::mem::take(binds)));
                    self = body.take();
                }
                _ => return (links, self),
            }
        }
    }

    /// Puts a spine back together: `links`, in order, in front of `tail`.
    /// The inverse of [`Expr::into_spine`].
    pub fn from_spine(links: Vec<Link>, tail: Expr) -> Expr {
        links.into_iter().rev().fold(tail, |body, link| match link {
            Link::Let(v, b) => Expr::Let(v, b, Box::new(body)),
            Link::LetRec(binds) => Expr::LetRec(binds, Box::new(body)),
        })
    }

    /// The `let` bindings of the spine at the head of `self`, in order
    /// (`letrec` groups are passed over).
    pub fn lets(&self) -> impl Iterator<Item = (VarId, &Bound)> {
        let mut e = self;
        std::iter::from_fn(move || loop {
            match e {
                Expr::Let(v, b, body) => {
                    e = body;
                    return Some((*v, b));
                }
                Expr::LetRec(_, body) => e = body,
                _ => return None,
            }
        })
    }

    /// The tail that ends the spine at the head of `self`.
    pub fn tail(&self) -> &Expr {
        let mut e = self;
        while let Expr::Let(_, _, body) | Expr::LetRec(_, body) = e {
            e = body;
        }
        e
    }

    /// Mutable access to the tail that ends the spine at the head of
    /// `self`.
    pub fn tail_mut(&mut self) -> &mut Expr {
        let mut e = self;
        loop {
            match e {
                Expr::Let(_, _, body) | Expr::LetRec(_, body) => e = body,
                tail => return tail,
            }
        }
    }

    /// Visits every atom in the expression, including inside nested lambdas.
    pub fn for_each_atom(&self, f: &mut impl FnMut(&Atom)) {
        self.visit::<()>(|e| {
            e.for_each_atom_shallow(f);
            Walk::Enter
        });
    }

    /// Approximate node count (inlining heuristics, tests): one per
    /// expression node, plus one per `letrec` binding.
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.visit::<()>(|e| {
            n += e.weight();
            Walk::Enter
        });
        n
    }

    /// Whether [`Expr::size`] exceeds `limit`, counting only until it
    /// does: O(`limit`) however large the expression is.
    pub fn size_exceeds(&self, limit: usize) -> bool {
        let mut n = 0;
        self.visit(|e| {
            n += e.weight();
            if n > limit {
                Walk::Stop(())
            } else {
                Walk::Enter
            }
        })
        .is_some()
    }

    /// What this node adds to [`Expr::size`].
    fn weight(&self) -> usize {
        match self {
            Expr::LetRec(binds, _) => 1 + binds.len(),
            _ => 1,
        }
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

/// Replaces `a` by its entry in `map`, if it is a variable that has one.
fn rename(a: &mut Atom, map: &IdMap<VarId, Atom>) {
    if let Some(new) = a.as_var().and_then(|v| map.get(&v)) {
        *a = new.clone();
    }
}

/// Substitutes atoms for variables throughout `e` (including inside nested
/// lambdas). Bound variable ids are globally unique, so no capture is
/// possible.
pub fn substitute(e: &mut Expr, map: &IdMap<VarId, Atom>) {
    e.visit_mut::<()>(|node| {
        node.for_each_atom_shallow_mut(&mut |a| rename(a, map));
        Walk::Enter
    });
}

/// Produces an alpha-converted copy of `e`: every variable *bound inside*
/// `e` gets a fresh id, and each free variable that `map` names is replaced
/// by its atom. `map` gains an entry for every renamed binder. Fresh ids are
/// drawn in binding order: a `let`'s nested expressions before its
/// variable, a lambda's parameters before its body, a `letrec`'s variables
/// before its lambdas. The inliner copies a callee body with `map` starting
/// as parameters → arguments.
pub fn refresh(e: &Expr, map: &mut IdMap<VarId, Atom>, supply: &mut NameSupply) -> Expr {
    fn fresh(v: VarId, map: &mut IdMap<VarId, Atom>, supply: &mut NameSupply) -> VarId {
        let w = supply.fresh_like(v);
        map.insert(v, Atom::Var(w));
        w
    }
    fn fun(l: &FunDef, map: &mut IdMap<VarId, Atom>, supply: &mut NameSupply) -> FunDef {
        FunDef {
            params: l.params.iter().map(|&p| fresh(p, map, supply)).collect(),
            rest: l.rest.map(|r| fresh(r, map, supply)),
            body: Box::new(refresh(&l.body, map, supply)),
            name: l.name.clone(),
        }
    }
    let mut links = Vec::new();
    let mut e = e;
    let mut tail = loop {
        match e {
            Expr::Let(v, b, body) => {
                let mut b = match b {
                    Bound::Lambda(l) => Bound::Lambda(fun(l, map, supply)),
                    Bound::If(t, x, y) => {
                        let x = Box::new(refresh(x, map, supply));
                        Bound::If(t.clone(), x, Box::new(refresh(y, map, supply)))
                    }
                    Bound::Body(x) => Bound::Body(Box::new(refresh(x, map, supply))),
                    other => other.clone(),
                };
                b.for_each_atom_shallow_mut(&mut |a| rename(a, map));
                links.push(Link::Let(fresh(*v, map, supply), b));
                e = body;
            }
            Expr::LetRec(binds, body) => {
                let vars: Vec<VarId> = binds.iter().map(|(v, _)| fresh(*v, map, supply)).collect();
                let binds = vars
                    .into_iter()
                    .zip(binds)
                    .map(|(v, (_, l))| (v, fun(l, map, supply)))
                    .collect();
                links.push(Link::LetRec(binds));
                e = body;
            }
            Expr::If(t, x, y) => {
                let x = Box::new(refresh(x, map, supply));
                break Expr::If(t.clone(), x, Box::new(refresh(y, map, supply)));
            }
            other => break other.clone(),
        }
    };
    tail.for_each_atom_shallow_mut(&mut |a| rename(a, map));
    Expr::from_spine(links, tail)
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
        match &e {
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
        let e2 = refresh(&e, &mut IdMap::default(), &mut supply);
        match &e2 {
            &Expr::Let(v, Bound::Prim(_, ref atoms), ref body) => {
                assert_ne!(v, 10, "bound var renamed");
                assert_eq!(atoms[0], Atom::Var(1), "free var untouched");
                assert_eq!(**body, Expr::Ret(Atom::Var(v)), "uses follow the rename");
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
        let e2 = refresh(&e, &mut IdMap::default(), &mut supply);
        let Expr::LetRec(binds, body) = &e2 else {
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
        assert_eq!(**body, Expr::Ret(Atom::Var(f2)));
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

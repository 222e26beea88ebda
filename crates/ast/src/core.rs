//! The core language produced by the expander.

use sxr_sexp::Datum;

/// A unique identifier for an alpha-renamed lexical variable.
pub type VarId = u32;

/// A slot index into the program's global table.
pub type GlobalId = u32;

/// A core-language expression.
///
/// This is what the whole rest of the compiler consumes.  Note what is *not*
/// here: no `let` (encoded as immediate lambda application), no `cond`/`case`
/// (desugared), and — after [`convert_assignments`](crate::convert_assignments)
/// runs — no assignment to lexical variables.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal or quoted constant.
    Const(Datum),
    /// The unspecified value (result of `set!`, one-armed `if`, etc.).
    Unspecified,
    /// A reference to a lexical variable.
    Var(VarId),
    /// A reference to a global.
    Global(GlobalId),
    /// `(if c t e)`. One-armed `if` gets an [`Expr::Unspecified`] alternative.
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// A procedure.
    Lambda(Box<Lambda>),
    /// An application of a computed procedure.
    Call(Box<Expr>, Vec<Expr>),
    /// An application of a compiler sub-primitive (`%word+`, `%rep-ref`, …).
    ///
    /// The expander does not check these names; the IR lowering resolves them
    /// and reports unknown ones. This keeps the front end representation-free.
    Prim(String, Vec<Expr>),
    /// `(begin e1 e2 ...)` — non-empty; value of the last expression.
    Seq(Vec<Expr>),
    /// Assignment to a lexical variable. Present only *before* assignment
    /// conversion; later stages may assume it is gone.
    SetVar(VarId, Box<Expr>),
    /// Assignment to a global.
    SetGlobal(GlobalId, Box<Expr>),
    /// Mutually recursive lambda bindings (the "fixed" letrec case).
    LetRec(Vec<(VarId, Lambda)>, Box<Expr>),
}

impl Expr {
    /// Builds `((lambda (v) body) init)` — the core encoding of `let`.
    pub fn let1(v: VarId, name: Option<String>, init: Expr, body: Expr) -> Expr {
        Expr::Call(
            Box::new(Expr::Lambda(Box::new(Lambda {
                params: vec![v],
                rest: None,
                body,
                name,
            }))),
            vec![init],
        )
    }

    /// Calls `f` on each direct subexpression, lambda bodies included.
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a Expr)) {
        match self {
            Expr::Const(_) | Expr::Unspecified | Expr::Var(_) | Expr::Global(_) => {}
            Expr::If(c, t, e) => {
                f(c);
                f(t);
                f(e);
            }
            Expr::Lambda(l) => f(&l.body),
            Expr::Call(callee, args) => {
                f(callee);
                args.iter().for_each(f);
            }
            Expr::Prim(_, args) | Expr::Seq(args) => args.iter().for_each(f),
            Expr::SetVar(_, e) | Expr::SetGlobal(_, e) => f(e),
            Expr::LetRec(binds, body) => {
                binds.iter().for_each(|(_, l)| f(&l.body));
                f(body);
            }
        }
    }

    /// Approximate node count, used by inlining heuristics and tests.
    pub fn size(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Unspecified | Expr::Var(_) | Expr::Global(_) => 1,
            Expr::If(c, t, e) => 1 + c.size() + t.size() + e.size(),
            Expr::Lambda(l) => 1 + l.body.size(),
            Expr::Call(f, args) => 1 + f.size() + args.iter().map(Expr::size).sum::<usize>(),
            Expr::Prim(_, args) => 1 + args.iter().map(Expr::size).sum::<usize>(),
            Expr::Seq(es) => 1 + es.iter().map(Expr::size).sum::<usize>(),
            Expr::SetVar(_, e) | Expr::SetGlobal(_, e) => 1 + e.size(),
            Expr::LetRec(binds, body) => {
                1 + body.size() + binds.iter().map(|(_, l)| 1 + l.body.size()).sum::<usize>()
            }
        }
    }
}

/// A lambda: parameter list (possibly with a rest parameter) and a body.
#[derive(Debug, Clone, PartialEq)]
pub struct Lambda {
    /// Fixed parameters, in order.
    pub params: Vec<VarId>,
    /// The rest parameter, if variadic: extra arguments arrive as a list
    /// (built by the runtime through the library's `pair`/`null`
    /// representations).
    pub rest: Option<VarId>,
    /// The body (a single expression; `begin` encodes sequences).
    pub body: Expr,
    /// A name for diagnostics (from `define` or `let` binding), if known.
    pub name: Option<String>,
}

/// One top-level item, in program order.
#[derive(Debug, Clone, PartialEq)]
pub enum TopItem {
    /// `(define g init)` — evaluate `init`, store into global `g`.
    Def(GlobalId, Expr),
    /// A top-level expression evaluated for effect/value.
    Expr(Expr),
}

/// A whole program: an ordered sequence of top-level items plus name tables.
///
/// The program value is the value of the last [`TopItem::Expr`] (or
/// unspecified if there is none).
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Top-level items in evaluation order (prelude first, then user code).
    pub items: Vec<TopItem>,
    /// `VarId ->` source name (for diagnostics).
    pub var_names: Vec<String>,
    /// `GlobalId ->` source name.
    pub global_names: Vec<String>,
    /// Index in `items` of the user's unit, the last one given to
    /// [`Expander::into_program`](crate::Expander::into_program). The
    /// items before it are library code.
    pub user_start: usize,
}

impl Program {
    /// Looks up a global slot by name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.global_names
            .iter()
            .position(|n| n == name)
            .map(|i| i as GlobalId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_counts_nodes() {
        let e = Expr::If(
            Box::new(Expr::Var(0)),
            Box::new(Expr::Const(Datum::Fixnum(1))),
            Box::new(Expr::Unspecified),
        );
        assert_eq!(e.size(), 4);
    }

    #[test]
    fn let1_encodes_application() {
        let e = Expr::let1(3, None, Expr::Const(Datum::Fixnum(1)), Expr::Var(3));
        match e {
            Expr::Call(f, args) => {
                assert_eq!(args.len(), 1);
                assert!(matches!(*f, Expr::Lambda(_)));
            }
            _ => panic!("expected call"),
        }
    }
}

//! Common-subexpression elimination on pure operations.
//!
//! In the abstract pipeline, repeated tag/untag traffic (two `car`s of the
//! same pair, a projection computed twice) is common after inlining; CSE
//! collapses it.  What a branch arm makes available stays in that arm;
//! function bodies inherit the enclosing scope (an available pure value
//! stays valid however many times the closure runs) but what they make
//! available does not leak out of them.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use sxr_ir::anf::{Atom, Bound, Expr, VarId};
use sxr_ir::prim::PrimOp;
use sxr_ir::IdMap;

/// Runs CSE over `e` in place; returns the replacement count.
pub fn cse(e: &mut Expr) -> usize {
    let mut st = Cse {
        changed: 0,
        hasher: RandomState::new(),
        newest: IdMap::default(),
        seen: Vec::new(),
        operands: Vec::new(),
        open: vec![0],
        scopes: 1,
    };
    st.walk(e);
    st.changed
}

/// A pure operation seen so far.
struct Seen {
    op: PrimOp,
    /// Where its operands start and end in `Cse::operands`.
    start: u32,
    end: u32,
    /// The variable that holds its result, and the scope that made it:
    /// its depth and id.
    var: VarId,
    depth: u32,
    scope: u32,
    /// The next older operation whose hash is the same.
    older: Option<u32>,
}

struct Cse {
    changed: usize,
    /// Hashes operations. (Operands may be literals from the source, so it
    /// keeps std's keyed hasher.)
    hasher: RandomState,
    /// The newest entry of `seen` for each operation hash (a keyed hash,
    /// so the id hasher is safe on it).
    newest: IdMap<u64, u32>,
    /// Every distinct operation seen, oldest first.
    seen: Vec<Seen>,
    /// The operands of every entry of `seen`, one after another.
    operands: Vec<Atom>,
    /// The ids of the scopes open at the current program point, outermost
    /// first. An entry is available exactly when the scope that made it is
    /// still open: `open[depth] == scope`. A scope's id is never reused, so
    /// closing a scope needs no undo: its entries go stale, and a later
    /// miss on one takes it over.
    open: Vec<u32>,
    /// Scope ids handed out so far.
    scopes: u32,
}

impl Cse {
    fn walk(&mut self, e: &mut Expr) {
        let mut e = e;
        loop {
            match e {
                Expr::Let(v, b, _) => match b {
                    Bound::Prim(op, args) if op.pure() => {
                        if let Some(prev) = self.lookup(*v, *op, args) {
                            self.changed += 1;
                            *b = Bound::Atom(Atom::Var(prev));
                        }
                    }
                    Bound::Lambda(f) => self.walk_scoped(&mut f.body),
                    Bound::If(_, x, y) => {
                        self.walk_scoped(x);
                        self.walk_scoped(y);
                    }
                    // A straight-line body shares the parent scope.
                    Bound::Body(inner) => self.walk(inner),
                    _ => {}
                },
                Expr::If(_, x, y) => {
                    self.walk_scoped(x);
                    self.walk_scoped(y);
                    return;
                }
                Expr::LetRec(binds, _) => {
                    for (_, f) in binds {
                        self.walk_scoped(&mut f.body);
                    }
                }
                Expr::Ret(_) | Expr::TailCall(..) | Expr::TailCallKnown(..) => return,
            }
            match e.next_mut() {
                Some(next) => e = next,
                None => unreachable!("only bindings go on"),
            }
        }
    }

    /// The variable already holding `op args`, if one is available here;
    /// otherwise makes `v` the one that does and returns `None`.
    fn lookup(&mut self, v: VarId, op: PrimOp, args: &[Atom]) -> Option<VarId> {
        let depth = self.open.len() - 1;
        let scope = self.open[depth];
        let hash = self.hasher.hash_one((op, args));
        let mut at = self.newest.get(&hash).copied();
        while let Some(i) = at {
            let seen = &mut self.seen[i as usize];
            if seen.op == op && self.operands[seen.start as usize..seen.end as usize] == *args {
                if self.open.get(seen.depth as usize) == Some(&seen.scope) {
                    return Some(seen.var);
                }
                (seen.var, seen.depth, seen.scope) = (v, depth as u32, scope);
                return None;
            }
            at = seen.older;
        }
        let start = self.operands.len() as u32;
        self.operands.extend_from_slice(args);
        self.seen.push(Seen {
            op,
            start,
            end: self.operands.len() as u32,
            var: v,
            depth: depth as u32,
            scope,
            older: self.newest.get(&hash).copied(),
        });
        self.newest.insert(hash, self.seen.len() as u32 - 1);
        None
    }

    /// Walks `e` in a scope of its own: what it makes available ends
    /// with it.
    fn walk_scoped(&mut self, e: &mut Expr) {
        self.open.push(self.scopes);
        self.scopes += 1;
        self.walk(e);
        self.open.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxr_ir::anf::Test;

    #[test]
    fn duplicate_pure_op_replaced() {
        use PrimOp::*;
        let e = Expr::Let(
            1,
            Bound::Prim(WordShr, vec![Atom::Var(0), Atom::raw(3)]),
            Box::new(Expr::Let(
                2,
                Bound::Prim(WordShr, vec![Atom::Var(0), Atom::raw(3)]),
                Box::new(Expr::Ret(Atom::Var(2))),
            )),
        );
        let mut out = e;
        let n = cse(&mut out);
        assert_eq!(n, 1);
        let Expr::Let(1, _, rest) = &out else {
            panic!()
        };
        assert!(matches!(**rest, Expr::Let(2, Bound::Atom(Atom::Var(1)), _)));
    }

    #[test]
    fn branches_do_not_leak_into_each_other() {
        use PrimOp::*;
        let mk = || Bound::Prim(WordShr, vec![Atom::Var(0), Atom::raw(3)]);
        let e = Expr::If(
            Test::NonZero(Atom::Var(0)),
            Box::new(Expr::Let(1, mk(), Box::new(Expr::Ret(Atom::Var(1))))),
            Box::new(Expr::Let(2, mk(), Box::new(Expr::Ret(Atom::Var(2))))),
        );
        let mut e = e;
        let n = cse(&mut e);
        assert_eq!(n, 0, "sibling branches cannot share");
    }

    #[test]
    fn lambda_bodies_do_not_leak_what_they_make_available() {
        use PrimOp::*;
        let mk = || Bound::Prim(WordShr, vec![Atom::Var(0), Atom::raw(3)]);
        // v1 = lambda () { v2 = v0 >> 3; ret v2 }
        // v3 = v0 >> 3        -- first available inside the lambda only
        // v4 = v0 >> 3        -- the same as v3
        let lambda = sxr_ir::anf::FunDef {
            params: vec![],
            rest: None,
            body: Box::new(Expr::Let(2, mk(), Box::new(Expr::Ret(Atom::Var(2))))),
            name: None,
        };
        let e = Expr::Let(
            1,
            Bound::Lambda(lambda),
            Box::new(Expr::Let(
                3,
                mk(),
                Box::new(Expr::Let(4, mk(), Box::new(Expr::Ret(Atom::Var(4))))),
            )),
        );
        let mut out = e;
        let n = cse(&mut out);
        assert_eq!(n, 1, "{}", sxr_ir::pretty::expr_to_string(&out));
        let Expr::Let(1, _, rest) = &out else {
            panic!()
        };
        assert!(matches!(**rest, Expr::Let(3, Bound::Prim(WordShr, _), _)));
        let Expr::Let(3, _, rest) = &**rest else {
            panic!()
        };
        assert!(matches!(**rest, Expr::Let(4, Bound::Atom(Atom::Var(3)), _)));
    }

    #[test]
    fn impure_not_csed() {
        use PrimOp::*;
        let mk = || Bound::Prim(RepRef, vec![Atom::Var(0), Atom::Var(1), Atom::raw(0)]);
        let e = Expr::Let(
            2,
            mk(),
            Box::new(Expr::Let(3, mk(), Box::new(Expr::Ret(Atom::Var(3))))),
        );
        let mut e = e;
        let n = cse(&mut e);
        assert_eq!(n, 0, "memory reads may not be merged across stores");
    }
}

//! Representation specialization.
//!
//! When a generic representation operation's rep-type operand is a
//! compile-time constant (the common case after inlining and constant
//! propagation), rewrite it into raw word and memory operations.  This pass
//! is the hinge of the whole reproduction: it converts the *generic,
//! dynamically-dispatched* facility into the same sub-word operations a
//! traditional compiler would emit — and records the **type assumptions**
//! that each operation carries (`%rep-project fixnum-rep x` asserts that
//! `x`'s low bits are the fixnum tag), which the algebraic pass then uses to
//! cancel tag traffic.
//!
//! Pointer-type `%rep-inject`/`%rep-project` are deliberately *not*
//! specialized: a raw untagged heap address in a register would be invisible
//! to the precise collector. (The library never needs them on hot paths;
//! field access is specialized through [`PrimOp::SpecRef`]/[`PrimOp::SpecSet`],
//! which keep the base pointer tagged.)

use sxr_ir::anf::{Atom, Bound, Expr, Link, Literal, NameSupply, Test, VarId};
use sxr_ir::prim::PrimOp;
#[cfg(test)]
use sxr_ir::rep::RepId;
use sxr_ir::rep::{RepKind, RepRegistry};
use sxr_ir::IdMap;

/// Type assumptions gathered from specialized operations, keyed by the
/// *binding* whose execution justifies them: when the binding for the key
/// variable has executed, the subject variable's low `bits` bits equal
/// `tag`.  The algebraic pass activates each fact only for code dominated
/// by that binding — facts from one branch never leak into another (see the
/// `display` dispatch regression test).
pub type Assumptions = IdMap<VarId, (VarId, u32, u64)>;

/// Runs representation specialization over `e` in place. Returns the
/// gathered assumptions.
pub fn repspec(e: &mut Expr, registry: &RepRegistry, supply: &mut NameSupply) -> Assumptions {
    let mut st = Spec {
        registry,
        supply,
        assume: IdMap::default(),
        pending: None,
        taken: Vec::new(),
    };
    st.walk(e);
    st.assume
}

struct Spec<'a> {
    registry: &'a RepRegistry,
    supply: &'a mut NameSupply,
    assume: Assumptions,
    /// Assertion produced by the current `specialize` call:
    /// `(subject, bits, tag)`, attached to the final binding by `walk`.
    pending: Option<(VarId, u32, u64)>,
    /// The rep prim bindings taken out of the spines being walked, innermost
    /// spine last, until they are specialized and put back.
    taken: Vec<Taken>,
}

/// A rep prim binding taken out of its spine.
struct Taken {
    /// Its position on the spine (counting `letrec` groups).
    pos: usize,
    /// The variable it binds.
    v: VarId,
    /// The generic operation; then what binds `v` after specialization.
    bound: Bound,
    /// The temporaries the specialized chain binds before `v`.
    prefix: Vec<(VarId, Bound)>,
}

fn raw(w: i64) -> Atom {
    Atom::Lit(Literal::Raw(w))
}

impl Spec<'_> {
    fn assume_tag(&mut self, a: &Atom, bits: u32, tag: u64) {
        if let Atom::Var(v) = a {
            self.pending = Some((*v, bits, tag));
        }
    }

    /// Binds every op of a chain but the last to a fresh temporary, each
    /// op referring to the temporary before it through the placeholder
    /// `Atom::Var(u32::MAX)`. Returns those bindings and the last op, which
    /// binds the chain's result.
    fn chain(&mut self, ops: Vec<Bound>) -> (Vec<(VarId, Bound)>, Bound) {
        let n = ops.len();
        let temps: Vec<VarId> = (1..n).map(|_| self.supply.fresh("spec")).collect();
        let mut prefix = Vec::with_capacity(n - 1);
        for (i, mut op) in ops.into_iter().enumerate() {
            if i > 0 {
                let prev = temps[i - 1];
                op.for_each_atom_shallow_mut(&mut |a| {
                    if *a == Atom::Var(u32::MAX) {
                        *a = Atom::Var(prev);
                    }
                });
            }
            match temps.get(i) {
                Some(&t) => prefix.push((t, op)),
                None => return (prefix, op),
            }
        }
        unreachable!("a chain has at least one op")
    }

    /// Attempts to specialize one rep prim; returns the replacement chain
    /// (last op binds the result) or `None` to keep the generic form.
    fn specialize(&mut self, op: PrimOp, args: &[Atom]) -> Option<Vec<Bound>> {
        use PrimOp::*;
        let Some(Atom::Lit(Literal::Rep(rid))) = args.first() else {
            return None;
        };
        let rid = *rid;
        let info = self.registry.info(rid);
        let prev = || Atom::Var(u32::MAX); // placeholder for previous temp
        match (op, &info.kind) {
            (RepInject, RepKind::Immediate { tag, shift, .. }) => {
                let (tag, shift) = (*tag as i64, *shift as i64);
                let w = args[1].clone();
                if shift == 0 && tag == 0 {
                    return Some(vec![Bound::Atom(w)]);
                }
                let mut ops = vec![Bound::Prim(WordShl, vec![w, raw(shift)])];
                if tag != 0 {
                    ops.push(Bound::Prim(WordOr, vec![prev(), raw(tag)]));
                }
                Some(ops)
            }
            (
                RepProject,
                RepKind::Immediate {
                    tag_bits,
                    tag,
                    shift,
                },
            ) => {
                self.assume_tag(&args[1], *tag_bits, *tag);
                Some(vec![Bound::Prim(
                    WordShr,
                    vec![args[1].clone(), raw(*shift as i64)],
                )])
            }
            (RepTest, RepKind::Immediate { tag_bits, tag, .. }) => {
                let mask = (1i64 << tag_bits) - 1;
                Some(vec![
                    Bound::Prim(WordAnd, vec![args[1].clone(), raw(mask)]),
                    Bound::Prim(WordEq, vec![prev(), raw(*tag as i64)]),
                ])
            }
            (RepTest, RepKind::Pointer { tag, discriminated }) => {
                let mut ops = vec![
                    Bound::Prim(WordAnd, vec![args[1].clone(), raw(7)]),
                    Bound::Prim(WordEq, vec![prev(), raw(*tag as i64)]),
                ];
                if *discriminated {
                    // Guarded header check: only dereference when the tag
                    // matched.
                    let h = self.supply.fresh("hdr");
                    let t2 = self.supply.fresh("tid");
                    let c2 = self.supply.fresh("tideq");
                    let then = Expr::Let(
                        h,
                        Bound::Prim(SpecHeader(rid), vec![args[1].clone()]),
                        Box::new(Expr::Let(
                            t2,
                            Bound::Prim(WordAnd, vec![Atom::Var(h), raw(0xFFFF)]),
                            Box::new(Expr::Let(
                                c2,
                                Bound::Prim(WordEq, vec![Atom::Var(t2), raw(rid as i64)]),
                                Box::new(Expr::Ret(Atom::Var(c2))),
                            )),
                        )),
                    );
                    ops.push(Bound::If(
                        Test::NonZero(prev()),
                        Box::new(then),
                        Box::new(Expr::Ret(raw(0))),
                    ));
                }
                Some(ops)
            }
            (RepAlloc, RepKind::Pointer { .. }) => Some(vec![Bound::Prim(
                SpecAlloc(rid),
                vec![args[1].clone(), args[2].clone()],
            )]),
            (RepRef, RepKind::Pointer { tag, .. }) => {
                self.assume_tag(&args[1], 3, *tag);
                match &args[2] {
                    Atom::Lit(Literal::Raw(k)) => Some(vec![Bound::Prim(
                        SpecRef(rid),
                        vec![args[1].clone(), raw(k * 8)],
                    )]),
                    idx => Some(vec![
                        Bound::Prim(WordShl, vec![idx.clone(), raw(3)]),
                        Bound::Prim(SpecRef(rid), vec![args[1].clone(), prev()]),
                    ]),
                }
            }
            (RepSet, RepKind::Pointer { tag, .. }) => {
                self.assume_tag(&args[1], 3, *tag);
                match &args[2] {
                    Atom::Lit(Literal::Raw(k)) => Some(vec![Bound::Prim(
                        SpecSet(rid),
                        vec![args[1].clone(), raw(k * 8), args[3].clone()],
                    )]),
                    idx => Some(vec![
                        Bound::Prim(WordShl, vec![idx.clone(), raw(3)]),
                        Bound::Prim(SpecSet(rid), vec![args[1].clone(), prev(), args[3].clone()]),
                    ]),
                }
            }
            (RepLen, RepKind::Pointer { tag, .. }) => {
                self.assume_tag(&args[1], 3, *tag);
                Some(vec![
                    Bound::Prim(SpecHeader(rid), vec![args[1].clone()]),
                    Bound::Prim(WordShr, vec![prev(), raw(16)]),
                ])
            }
            _ => None,
        }
    }

    /// Walks `e` in place. Along each spine, the nested expressions of the
    /// bindings and the tail are walked first, in order; then the rep
    /// prim bindings are specialized from the last to the first (the
    /// order their fresh temporaries are drawn in); then each one's chain
    /// is put in its place.
    fn walk(&mut self, e: &mut Expr) {
        let base = self.taken.len();
        let mut cur = &mut *e;
        let mut pos = 0;
        loop {
            match cur {
                Expr::Let(v, b, _) => match b {
                    Bound::Prim(_, args)
                        if matches!(args.first(), Some(Atom::Lit(Literal::Rep(_)))) =>
                    {
                        self.taken.push(Taken {
                            pos,
                            v: *v,
                            bound: b.take(),
                            prefix: Vec::new(),
                        });
                    }
                    Bound::Lambda(f) => self.walk(&mut f.body),
                    Bound::If(_, a, b2) => {
                        self.walk(a);
                        self.walk(b2);
                    }
                    Bound::Body(inner) => self.walk(inner),
                    _ => {}
                },
                Expr::If(_, a, b) => {
                    self.walk(a);
                    self.walk(b);
                    break;
                }
                Expr::LetRec(binds, _) => {
                    for (_, f) in binds {
                        self.walk(&mut f.body);
                    }
                }
                Expr::Ret(_) | Expr::TailCall(..) | Expr::TailCallKnown(..) => break,
            }
            pos += 1;
            cur = cur.next_mut().expect("only bindings go on");
        }
        if self.taken.len() == base {
            return;
        }
        for i in (base..self.taken.len()).rev() {
            let generic = self.taken[i].bound.take();
            let Bound::Prim(op, args) = &generic else {
                unreachable!("only prim bindings are taken")
            };
            self.pending = None;
            self.taken[i].bound = match self.specialize(*op, args) {
                Some(ops) => {
                    if let Some((subject, bits, tag)) = self.pending.take() {
                        self.assume.insert(self.taken[i].v, (subject, bits, tag));
                    }
                    let (prefix, last) = self.chain(ops);
                    self.taken[i].prefix = prefix;
                    last
                }
                None => generic,
            };
        }
        let mut cur = e;
        let mut pos = 0;
        for t in self.taken.drain(base..) {
            while pos < t.pos {
                cur = cur.next_mut().expect("a taken binding lies ahead");
                pos += 1;
            }
            let Expr::Let(_, b, _) = cur else {
                unreachable!("a binding was taken here")
            };
            *b = t.bound;
            let inserted = t.prefix.len();
            for (temp, op) in t.prefix.into_iter().rev() {
                cur.link(Link::Let(temp, op));
            }
            for _ in 0..inserted {
                cur = cur.next_mut().expect("just linked");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> (RepRegistry, RepId, RepId) {
        let mut reg = RepRegistry::new();
        let fx = reg.intern_immediate("fixnum", 3, 0, 3).unwrap();
        let pair = reg.intern_pointer("pair", 1, false).unwrap();
        (reg, fx, pair)
    }

    fn spec_one(op: PrimOp, args: Vec<Atom>) -> Expr {
        let (reg, _, _) = registry();
        let mut supply = NameSupply::from_names(vec!["v".into(); 300]);
        let e = Expr::Let(
            10,
            Bound::Prim(op, args),
            Box::new(Expr::Ret(Atom::Var(10))),
        );
        let mut out = e;
        repspec(&mut out, &reg, &mut supply);
        out
    }

    #[test]
    fn project_becomes_shift_with_assumption() {
        let (reg, fx, _) = registry();
        let mut supply = NameSupply::from_names(vec!["v".into(); 300]);
        let e = Expr::Let(
            10,
            Bound::Prim(
                PrimOp::RepProject,
                vec![Atom::Lit(Literal::Rep(fx)), Atom::Var(5)],
            ),
            Box::new(Expr::Ret(Atom::Var(10))),
        );
        let mut out = e;
        let assume = repspec(&mut out, &reg, &mut supply);
        assert!(matches!(
            out,
            Expr::Let(10, Bound::Prim(PrimOp::WordShr, _), _)
        ));
        // Keyed by the binding (v10) and naming the subject (v5).
        assert_eq!(assume.get(&10), Some(&(5, 3, 0)));
    }

    #[test]
    fn inject_fixnum_is_single_shift() {
        let (_, fx, _) = registry();
        let e = spec_one(
            PrimOp::RepInject,
            vec![Atom::Lit(Literal::Rep(fx)), Atom::Var(5)],
        );
        // tag 0: shift only, bound directly to the result var.
        assert!(matches!(
            e,
            Expr::Let(10, Bound::Prim(PrimOp::WordShl, _), _)
        ));
    }

    #[test]
    fn ref_with_constant_index_is_single_specref() {
        let (_, _, pair) = registry();
        let e = spec_one(
            PrimOp::RepRef,
            vec![Atom::Lit(Literal::Rep(pair)), Atom::Var(5), raw(1)],
        );
        match &e {
            Expr::Let(10, Bound::Prim(PrimOp::SpecRef(_), args), _) => {
                assert_eq!(args[1], raw(8), "byte offset");
            }
            other => panic!("expected spec-ref, got {other:?}"),
        }
    }

    #[test]
    fn ref_with_variable_index_shifts_then_loads() {
        let (_, _, pair) = registry();
        let e = spec_one(
            PrimOp::RepRef,
            vec![Atom::Lit(Literal::Rep(pair)), Atom::Var(5), Atom::Var(6)],
        );
        let &Expr::Let(t, Bound::Prim(PrimOp::WordShl, _), ref rest) = &e else {
            panic!("expected shl first")
        };
        match &**rest {
            Expr::Let(10, Bound::Prim(PrimOp::SpecRef(_), args), _) => {
                assert_eq!(args[1], Atom::Var(t));
            }
            other => panic!("expected spec-ref, got {other:?}"),
        }
    }

    #[test]
    fn test_on_pointer_is_and_cmp() {
        let (_, _, pair) = registry();
        let e = spec_one(
            PrimOp::RepTest,
            vec![Atom::Lit(Literal::Rep(pair)), Atom::Var(5)],
        );
        let Expr::Let(_, Bound::Prim(PrimOp::WordAnd, _), rest) = &e else {
            panic!()
        };
        assert!(matches!(
            **rest,
            Expr::Let(10, Bound::Prim(PrimOp::WordEq, _), _)
        ));
    }

    #[test]
    fn discriminated_test_guards_header_load() {
        let mut reg = RepRegistry::new();
        reg.intern_immediate("fixnum", 3, 0, 3).unwrap();
        let rec = reg.intern_pointer("point", 4, true).unwrap();
        let mut supply = NameSupply::from_names(vec!["v".into(); 300]);
        let e = Expr::Let(
            10,
            Bound::Prim(
                PrimOp::RepTest,
                vec![Atom::Lit(Literal::Rep(rec)), Atom::Var(5)],
            ),
            Box::new(Expr::Ret(Atom::Var(10))),
        );
        let mut out = e;
        repspec(&mut out, &reg, &mut supply);
        fn has_guarded_header(e: &Expr) -> bool {
            match e {
                Expr::Let(_, Bound::If(_, t, _), body) => {
                    fn has_header(e: &Expr) -> bool {
                        matches!(e, Expr::Let(_, Bound::Prim(PrimOp::SpecHeader(_), _), _))
                    }
                    has_header(t) || has_guarded_header(body)
                }
                Expr::Let(_, _, body) => has_guarded_header(body),
                _ => false,
            }
        }
        assert!(has_guarded_header(&out));
    }

    #[test]
    fn generic_stays_when_rep_unknown() {
        let e = spec_one(PrimOp::RepProject, vec![Atom::Var(4), Atom::Var(5)]);
        assert!(matches!(
            e,
            Expr::Let(10, Bound::Prim(PrimOp::RepProject, _), _)
        ));
    }

    #[test]
    fn pointer_inject_stays_generic() {
        let (_, _, pair) = registry();
        let e = spec_one(
            PrimOp::RepInject,
            vec![Atom::Lit(Literal::Rep(pair)), Atom::Var(5)],
        );
        assert!(matches!(
            e,
            Expr::Let(10, Bound::Prim(PrimOp::RepInject, _), _)
        ));
    }
}

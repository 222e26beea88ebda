//! Known-bits analysis and algebraic simplification.
//!
//! This is the pass that makes abstractly-written primitives compile like
//! hand-written ones.  After inlining + specialization, `(fx+ a b)` is
//!
//! ```text
//! let pa = a >> 3        ; binding justifies: a's low 3 bits are 0
//! let pb = b >> 3
//! let s  = pa + pb
//! let r  = s << 3
//! ```
//!
//! Tracking which low bits of each value are known — from shifts, masks,
//! constants, and the *type assumptions* that specialized representation
//! operations justify — the pass rewrites `r` to a single `a + b`, turns
//! comparisons of projections into comparisons of the tagged values, folds
//! statically-decided type tests, and rewrites `truthy` tests of freshly
//! made booleans into raw zero tests so the code generator can fuse them
//! into one branch.
//!
//! **Facts are flow-scoped.** A fact becomes active at the binding that
//! justifies it and applies only to code dominated by that binding; facts
//! arising inside one branch never reach a sibling branch or the join.
//! (An unscoped version of this pass once folded `display`'s type dispatch
//! into the symbol arm, because the symbol arm's field access "proved" the
//! argument was a symbol everywhere.)

use crate::repspec::Assumptions;
use std::hash::BuildHasherDefault;
use sxr_ir::anf::{Atom, Bound, Expr, Literal, Test, VarId};
use sxr_ir::idmap::IdHasher;
use sxr_ir::prim::PrimOp;
use sxr_ir::rep::{roles, RepKind, RepRegistry};
use sxr_ir::{IdMap, ScopedMap};

/// Runs the pass over `e` in place. Returns the change count.
pub fn bits(e: &mut Expr, registry: &RepRegistry, assumptions: &Assumptions) -> usize {
    let bool_pattern = registry
        .immediate_role(roles::BOOLEAN)
        .map(|b| (b.tag as i64, b.shift as i64));
    let false_word = registry.role_word(roles::BOOLEAN, 0);
    let mut st = Bits {
        registry,
        assumptions,
        defs: IdMap::default(),
        def_args: Vec::new(),
        bool_pattern,
        false_word,
        changed: 0,
    };
    let mut facts = Facts::default();
    st.walk(e, &mut facts);
    st.changed
}

const MAXK: u32 = 48;
const DEPTH: u32 = 32;

fn mask(k: u32) -> u64 {
    if k >= 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

/// Dominance-scoped facts: `var -> (k, t)` meaning the low `k` bits equal
/// `t` on every path reaching the current program point. A fact a branch
/// strengthens is restored to its old value when the branch ends.
type Facts = ScopedMap<VarId, (u32, u64), BuildHasherDefault<IdHasher>>;

struct Bits<'a> {
    registry: &'a RepRegistry,
    assumptions: &'a Assumptions,
    /// Definitions of pure prim-bound variables (SSA-global): the
    /// operation, and where its operands start and end in `def_args`.
    defs: IdMap<VarId, (PrimOp, u32, u32)>,
    /// The operands of every definition in `defs`, one after another.
    def_args: Vec<Atom>,
    bool_pattern: Option<(i64, i64)>,
    false_word: Option<i64>,
    changed: usize,
}

impl Bits<'_> {
    fn lowtag(&self, a: &Atom, facts: &Facts, depth: u32) -> (u32, u64) {
        match a {
            Atom::Lit(Literal::Raw(c)) => (MAXK, *c as u64 & mask(MAXK)),
            Atom::Lit(_) => (0, 0),
            Atom::Var(v) => {
                let from_fact = facts.get(v).copied().unwrap_or((0, 0));
                if depth == 0 {
                    return from_fact;
                }
                let from_def = self.derive(*v, facts, depth - 1);
                if from_def.0 >= from_fact.0 {
                    from_def
                } else {
                    from_fact
                }
            }
        }
    }

    fn derive(&self, v: VarId, facts: &Facts, depth: u32) -> (u32, u64) {
        let Some((op, args)) = self.def(v) else {
            return (0, 0);
        };
        use PrimOp::*;
        match op {
            WordShl => {
                let (kx, tx) = self.lowtag(&args[0], facts, depth);
                if let Atom::Lit(Literal::Raw(s)) = args[1] {
                    let s = (s & 63) as u32;
                    let k = (kx + s).min(MAXK);
                    (k, (tx << s) & mask(k))
                } else {
                    (0, 0)
                }
            }
            WordShr => {
                let (kx, tx) = self.lowtag(&args[0], facts, depth);
                if let Atom::Lit(Literal::Raw(s)) = args[1] {
                    let s = (s & 63) as u32;
                    if kx > s {
                        (kx - s, tx >> s)
                    } else {
                        (0, 0)
                    }
                } else {
                    (0, 0)
                }
            }
            WordAnd => {
                let (kx, tx) = self.lowtag(&args[0], facts, depth);
                if let Atom::Lit(Literal::Raw(m)) = args[1] {
                    let tz = (m as u64).trailing_zeros().min(MAXK);
                    let k = kx.max(tz);
                    (k, (tx & m as u64) & mask(k))
                } else {
                    let (ky, ty) = self.lowtag(&args[1], facts, depth);
                    let k = kx.min(ky);
                    (k, (tx & ty) & mask(k))
                }
            }
            WordOr | WordXor => {
                let (kx, tx) = self.lowtag(&args[0], facts, depth);
                let (ky, ty) = self.lowtag(&args[1], facts, depth);
                let k = kx.min(ky);
                let t = if op == WordOr { tx | ty } else { tx ^ ty };
                (k, t & mask(k))
            }
            WordAdd | WordSub => {
                let (kx, tx) = self.lowtag(&args[0], facts, depth);
                let (ky, ty) = self.lowtag(&args[1], facts, depth);
                let k = kx.min(ky);
                let t = if op == WordAdd {
                    tx.wrapping_add(ty)
                } else {
                    tx.wrapping_sub(ty)
                };
                (k, t & mask(k))
            }
            WordMul => {
                let (kx, tx) = self.lowtag(&args[0], facts, depth);
                let (ky, ty) = self.lowtag(&args[1], facts, depth);
                let k = kx.min(ky);
                (k, tx.wrapping_mul(ty) & mask(k))
            }
            _ => (0, 0),
        }
    }

    /// The definition of `v`, if it is a pure prim binding seen so far.
    fn def(&self, v: VarId) -> Option<(PrimOp, &[Atom])> {
        let &(op, start, end) = self.defs.get(&v)?;
        Some((op, &self.def_args[start as usize..end as usize]))
    }

    fn def_of(&self, a: &Atom) -> Option<(PrimOp, &[Atom])> {
        self.def(a.as_var()?)
    }

    /// `x << s` reconstructed without the shift, when possible.
    fn reconstruct_shl(&self, x: &Atom, s: u32, facts: &Facts) -> Option<Bound> {
        if let Some(a) = self.reconstruct_atom(x, s, facts) {
            return Some(Bound::Atom(a));
        }
        let (op, args) = self.def_of(x)?;
        use PrimOp::*;
        match op {
            WordAdd | WordSub => {
                let ra = self.reconstruct_atom(&args[0], s, facts)?;
                let rb = self.reconstruct_atom(&args[1], s, facts)?;
                Some(Bound::Prim(op, vec![ra, rb]))
            }
            WordMul => {
                if let Some(ra) = self.reconstruct_atom(&args[0], s, facts) {
                    Some(Bound::Prim(WordMul, vec![ra, args[1].clone()]))
                } else {
                    self.reconstruct_atom(&args[1], s, facts)
                        .map(|rb| Bound::Prim(WordMul, vec![args[0].clone(), rb]))
                }
            }
            _ => None,
        }
    }

    /// An atom equal to `x << s`, when statically available.
    fn reconstruct_atom(&self, x: &Atom, s: u32, facts: &Facts) -> Option<Atom> {
        if let Atom::Lit(Literal::Raw(c)) = x {
            return Some(Atom::Lit(Literal::Raw(c << s)));
        }
        let (op, args) = self.def_of(x)?;
        if op == PrimOp::WordShr {
            if let Atom::Lit(Literal::Raw(s2)) = args[1] {
                if s2 as u32 == s {
                    let (k, t) = self.lowtag(&args[0], facts, DEPTH);
                    if k >= s && t & mask(s) == 0 {
                        return Some(args[0].clone());
                    }
                }
            }
        }
        None
    }

    /// Tries to rewrite one prim binding; returns the replacement.
    fn rewrite(&self, op: PrimOp, args: &[Atom], facts: &Facts) -> Option<Bound> {
        use PrimOp::*;
        match op {
            WordShl => {
                if let Atom::Lit(Literal::Raw(s)) = args[1] {
                    if s == 0 {
                        return Some(Bound::Atom(args[0].clone()));
                    }
                    let s2 = s as u32;
                    if let Some(b) = self.reconstruct_shl(&args[0], s2, facts) {
                        return Some(b);
                    }
                    // Shift combining across unequal widths:
                    //   (x >> s1) << s2  ==  x >> (s1-s2)   when x's low
                    //     s1 bits t satisfy t >> (s1-s2) == 0,
                    //   (x >> s1) << s2  ==  x << (s2-s1)   when x's low
                    //     s1 bits are 0.
                    // These are what let abstract char<->fixnum conversions
                    // reach the traditional single-shift forms.
                    if let Some((PrimOp::WordShr, inner)) = self.def_of(&args[0]) {
                        if let Atom::Lit(Literal::Raw(s1)) = inner[1] {
                            let s1 = s1 as u32;
                            let (k, t) = self.lowtag(&inner[0], facts, DEPTH);
                            if k >= s1 {
                                if s1 > s2 && (t >> (s1 - s2)) == 0 {
                                    return Some(Bound::Prim(
                                        PrimOp::WordShr,
                                        vec![
                                            inner[0].clone(),
                                            Atom::Lit(Literal::Raw((s1 - s2) as i64)),
                                        ],
                                    ));
                                }
                                if s2 > s1 && t == 0 {
                                    return Some(Bound::Prim(
                                        PrimOp::WordShl,
                                        vec![
                                            inner[0].clone(),
                                            Atom::Lit(Literal::Raw((s2 - s1) as i64)),
                                        ],
                                    ));
                                }
                            }
                        }
                    }
                    return None;
                }
                None
            }
            WordShr => {
                if let Atom::Lit(Literal::Raw(s)) = args[1] {
                    if s == 0 {
                        return Some(Bound::Atom(args[0].clone()));
                    }
                    // shr(shl(a, s), s) == a under the no-overflow contract
                    // of unchecked fixnum arithmetic.
                    if let Some((PrimOp::WordShl, inner)) = self.def_of(&args[0]) {
                        if inner[1] == Atom::Lit(Literal::Raw(s)) {
                            return Some(Bound::Atom(inner[0].clone()));
                        }
                    }
                }
                None
            }
            WordAdd | WordSub | WordOr | WordXor => {
                if args[1] == Atom::Lit(Literal::Raw(0)) {
                    return Some(Bound::Atom(args[0].clone()));
                }
                if (op == WordAdd || op == WordOr || op == WordXor)
                    && args[0] == Atom::Lit(Literal::Raw(0))
                {
                    return Some(Bound::Atom(args[1].clone()));
                }
                None
            }
            WordMul => {
                if args[1] == Atom::Lit(Literal::Raw(1)) {
                    return Some(Bound::Atom(args[0].clone()));
                }
                if args[0] == Atom::Lit(Literal::Raw(1)) {
                    return Some(Bound::Atom(args[1].clone()));
                }
                None
            }
            WordAnd => {
                if let Atom::Lit(Literal::Raw(m)) = args[1] {
                    if m == -1 {
                        return Some(Bound::Atom(args[0].clone()));
                    }
                    // Fold when every masked bit is statically known — this
                    // is how dominated (redundant) type tests disappear.
                    let (k, t) = self.lowtag(&args[0], facts, DEPTH);
                    if m as u64 & !mask(k) == 0 {
                        return Some(Bound::Atom(Atom::Lit(Literal::Raw((t & m as u64) as i64))));
                    }
                }
                None
            }
            WordEq | WordLt => self.rewrite_cmp(op, args, facts),
            _ => None,
        }
    }

    /// Comparisons of two same-shift projections become comparisons of the
    /// unprojected (tagged) values.
    fn rewrite_cmp(&self, op: PrimOp, args: &[Atom], facts: &Facts) -> Option<Bound> {
        let shr_of = |a: &Atom| -> Option<(Atom, u32)> {
            let (o, inner) = self.def_of(a)?;
            if o != PrimOp::WordShr {
                return None;
            }
            if let Atom::Lit(Literal::Raw(s)) = inner[1] {
                Some((inner[0].clone(), s as u32))
            } else {
                None
            }
        };
        match (shr_of(&args[0]), shr_of(&args[1])) {
            (Some((a, sa)), Some((b, sb))) if sa == sb => {
                let (ka, ta) = self.lowtag(&a, facts, DEPTH);
                let (kb, tb) = self.lowtag(&b, facts, DEPTH);
                if ka >= sa && kb >= sa && (ta & mask(sa)) == (tb & mask(sa)) {
                    return Some(Bound::Prim(op, vec![a, b]));
                }
                None
            }
            (Some((a, s)), None) => {
                if let Atom::Lit(Literal::Raw(c)) = args[1] {
                    let (ka, ta) = self.lowtag(&a, facts, DEPTH);
                    if ka >= s {
                        let c2 = (c << s) | (ta & mask(s)) as i64;
                        if c2 >> s == c {
                            return Some(Bound::Prim(op, vec![a, Atom::Lit(Literal::Raw(c2))]));
                        }
                    }
                }
                None
            }
            (None, Some((b, s))) => {
                if op != PrimOp::WordEq {
                    return None; // only the symmetric op commutes freely
                }
                if let Atom::Lit(Literal::Raw(c)) = args[0] {
                    let (kb, tb) = self.lowtag(&b, facts, DEPTH);
                    if kb >= s {
                        let c2 = (c << s) | (tb & mask(s)) as i64;
                        if c2 >> s == c {
                            return Some(Bound::Prim(op, vec![Atom::Lit(Literal::Raw(c2)), b]));
                        }
                    }
                }
                None
            }
            _ => None,
        }
    }

    /// The rewrite of a test, if any: fresh-boolean truthiness becomes a
    /// raw zero test, and values statically distinguishable from `#f` fold.
    fn rewrite_test(&self, t: &Test, facts: &Facts) -> Option<Test> {
        let Test::Truthy(a) = t else { return None };
        let v = a.as_var()?;
        if let Some((op, args)) = self.def(v) {
            if let (Some((btag, bshift)), true) = (self.bool_pattern, op == PrimOp::WordOr) {
                // or(shl(c, bshift), btag)
                if args[1] == Atom::Lit(Literal::Raw(btag)) {
                    if let Some((PrimOp::WordShl, inner)) = self.def_of(&args[0]) {
                        if inner[1] == Atom::Lit(Literal::Raw(bshift)) {
                            return Some(Test::NonZero(inner[0].clone()));
                        }
                    }
                }
            }
            if let Some((0, bshift)) = self.bool_pattern {
                if op == PrimOp::WordShl && args[1] == Atom::Lit(Literal::Raw(bshift)) {
                    return Some(Test::NonZero(args[0].clone()));
                }
            }
        }
        // A value whose known low bits differ from #f's cannot be false.
        let fw = self.false_word?;
        let (k, tl) = self.lowtag(a, facts, DEPTH);
        (k > 0 && (fw as u64 & mask(k)) != tl).then_some(Test::NonZero(Atom::Lit(Literal::Raw(1))))
    }

    /// Branch refinement: when the test is `nonzero((x & mask) == tag)`
    /// with a low-bit mask, the *then* branch learns `x`'s low bits — the
    /// shape every rep-type test specializes to. This is what lets a passed
    /// type check eliminate the identical checks dominated by it.
    fn refine_from_test(&self, t: &Test, then_facts: &mut Facts) {
        let Test::NonZero(a) = t else { return };
        let Some((PrimOp::WordEq, eq_args)) = self.def_of(a) else {
            return;
        };
        let (masked, tagv) = match (&eq_args[0], &eq_args[1]) {
            (m, Atom::Lit(Literal::Raw(k))) => (m, *k as u64),
            (Atom::Lit(Literal::Raw(k)), m) => (m, *k as u64),
            _ => return,
        };
        let Some((PrimOp::WordAnd, and_args)) = self.def_of(masked) else {
            return;
        };
        let (subject, mask_v) = match (&and_args[0], &and_args[1]) {
            (Atom::Var(x), Atom::Lit(Literal::Raw(m))) => (*x, *m as u64),
            (Atom::Lit(Literal::Raw(m)), Atom::Var(x)) => (*x, *m as u64),
            _ => return,
        };
        // Low-bit masks only: mask = 2^b - 1.
        if mask_v == 0 || mask_v.wrapping_add(1) & mask_v != 0 {
            return;
        }
        let b = mask_v.trailing_ones();
        if tagv & !mask_v != 0 {
            return;
        }
        insert_fact(then_facts, subject, b, tagv);
    }

    /// Facts justified by executing `bound` (specialized memory operations
    /// assert their base pointer's tag).
    fn facts_from_bound(&self, v: VarId, bound: &Bound, facts: &mut Facts) {
        if let Some(&(subject, bits_n, tag)) = self.assumptions.get(&v) {
            insert_fact(facts, subject, bits_n, tag);
        }
        if let Bound::Prim(op, args) = bound {
            use PrimOp::*;
            let (rid, base) = match op {
                SpecRef(r) | SpecSet(r) | SpecHeader(r) => (*r, &args[0]),
                _ => return,
            };
            if let RepKind::Pointer { tag, .. } = self.registry.info(rid).kind {
                if let Some(bv) = base.as_var() {
                    insert_fact(facts, bv, 3, tag);
                }
            }
        }
    }

    /// Walks `e` in place along its spine, rewriting each prim binding
    /// under the facts that hold there.
    fn walk(&mut self, e: &mut Expr, facts: &mut Facts) {
        let mut e = e;
        loop {
            match e {
                Expr::Let(v, b, _) => match b {
                    Bound::Prim(op, args) => {
                        if let Some(nb) = self.rewrite(*op, args, facts) {
                            self.changed += 1;
                            *b = nb;
                        }
                        if let Bound::Prim(op, args) = b {
                            if op.pure() {
                                let start = self.def_args.len() as u32;
                                self.def_args.extend(args.iter().cloned());
                                let end = self.def_args.len() as u32;
                                self.defs.insert(*v, (*op, start, end));
                            }
                        }
                        self.facts_from_bound(*v, b, facts);
                    }
                    Bound::Lambda(f) => {
                        // Dominance holds: the closure can only run after
                        // this point. Scoped so nothing leaks back.
                        self.walk_scoped(&mut f.body, facts);
                    }
                    Bound::If(t, x, y) => self.walk_branches(t, x, y, facts),
                    Bound::Body(inner) => self.walk_scoped(inner, facts),
                    _ => {}
                },
                Expr::If(t, x, y) => {
                    self.walk_branches(t, x, y, facts);
                    return;
                }
                Expr::LetRec(binds, _) => {
                    for (_, f) in binds {
                        self.walk_scoped(&mut f.body, facts);
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

    /// Walks `e` in a scope of its own: the facts it adds end with it.
    fn walk_scoped(&mut self, e: &mut Expr, facts: &mut Facts) {
        let mark = facts.mark();
        self.walk(e, facts);
        facts.unwind(mark);
    }

    /// Walks the two arms of a branch on `t`, each in its own scope; the
    /// *then* arm also learns what passing the test proves.
    fn walk_branches(&mut self, t: &mut Test, x: &mut Expr, y: &mut Expr, facts: &mut Facts) {
        if let Some(nt) = self.rewrite_test(t, facts) {
            self.changed += 1;
            *t = nt;
        }
        let mark = facts.mark();
        self.refine_from_test(t, facts);
        self.walk(x, facts);
        facts.unwind(mark);
        self.walk_scoped(y, facts);
    }
}

/// Records that `v`'s low `k` bits are `t`, if that says more than what
/// is already known.
fn insert_fact(facts: &mut Facts, v: VarId, k: u32, t: u64) {
    if k > facts.get(&v).map_or(0, |f| f.0) {
        facts.insert(v, (k, t & mask(k)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fx_registry() -> RepRegistry {
        let mut reg = RepRegistry::new();
        let fx = reg.intern_immediate("fixnum", 3, 0, 3).unwrap();
        let bo = reg.intern_immediate("boolean", 8, 0b010, 8).unwrap();
        reg.provide_role("fixnum", fx).unwrap();
        reg.provide_role("boolean", bo).unwrap();
        reg
    }

    /// Builds the post-specialization shape of `(fx+ a b)`:
    /// shr, shr, add, shl, ret — with the projections justifying the
    /// fixnum facts (as repspec records them, keyed by binding).
    fn fxadd_shape() -> (Expr, Assumptions) {
        use PrimOp::*;
        let e = Expr::Let(
            10,
            Bound::Prim(WordShr, vec![Atom::Var(1), Atom::raw(3)]),
            Box::new(Expr::Let(
                11,
                Bound::Prim(WordShr, vec![Atom::Var(2), Atom::raw(3)]),
                Box::new(Expr::Let(
                    12,
                    Bound::Prim(WordAdd, vec![Atom::Var(10), Atom::Var(11)]),
                    Box::new(Expr::Let(
                        13,
                        Bound::Prim(WordShl, vec![Atom::Var(12), Atom::raw(3)]),
                        Box::new(Expr::Ret(Atom::Var(13))),
                    )),
                )),
            )),
        );
        let mut assume = Assumptions::default();
        assume.insert(10, (1, 3, 0));
        assume.insert(11, (2, 3, 0));
        (e, assume)
    }

    #[test]
    fn fxadd_collapses_to_single_add() {
        let reg = fx_registry();
        let (e, assume) = fxadd_shape();
        let mut out = e;
        let changed = bits(&mut out, &reg, &assume);
        assert!(changed >= 1);
        fn find_final_add(e: &Expr) -> bool {
            match e {
                Expr::Let(13, Bound::Prim(PrimOp::WordAdd, args), _) => {
                    args == &vec![Atom::Var(1), Atom::Var(2)]
                }
                Expr::Let(_, _, b) => find_final_add(b),
                _ => false,
            }
        }
        assert!(
            find_final_add(&out),
            "expected `let v13 = a + b`, got:\n{}",
            sxr_ir::pretty::expr_to_string(&out)
        );
    }

    #[test]
    fn without_assumptions_no_collapse() {
        let reg = fx_registry();
        let (e, _) = fxadd_shape();
        let mut out = e;
        bits(&mut out, &reg, &Assumptions::default());
        fn still_shifted(e: &Expr) -> bool {
            match e {
                Expr::Let(13, Bound::Prim(PrimOp::WordShl, _), _) => true,
                Expr::Let(_, _, b) => still_shifted(b),
                _ => false,
            }
        }
        assert!(
            still_shifted(&out),
            "soundness: cannot drop shifts without type facts"
        );
    }

    #[test]
    fn cmp_of_projections_uses_tagged_values() {
        use PrimOp::*;
        let reg = fx_registry();
        let mut assume = Assumptions::default();
        assume.insert(10, (1, 3, 0));
        assume.insert(11, (2, 3, 0));
        let e = Expr::Let(
            10,
            Bound::Prim(WordShr, vec![Atom::Var(1), Atom::raw(3)]),
            Box::new(Expr::Let(
                11,
                Bound::Prim(WordShr, vec![Atom::Var(2), Atom::raw(3)]),
                Box::new(Expr::Let(
                    12,
                    Bound::Prim(WordLt, vec![Atom::Var(10), Atom::Var(11)]),
                    Box::new(Expr::Ret(Atom::Var(12))),
                )),
            )),
        );
        let mut out = e;
        bits(&mut out, &reg, &assume);
        fn find(e: &Expr) -> bool {
            match e {
                Expr::Let(12, Bound::Prim(PrimOp::WordLt, args), _) => {
                    args == &vec![Atom::Var(1), Atom::Var(2)]
                }
                Expr::Let(_, _, b) => find(b),
                _ => false,
            }
        }
        assert!(find(&out));
    }

    #[test]
    fn cmp_projection_with_constant() {
        use PrimOp::*;
        let reg = fx_registry();
        let mut assume = Assumptions::default();
        assume.insert(10, (1, 3, 0));
        // (word=? (shr a 3) 0)  =>  (word=? a 0)
        let e = Expr::Let(
            10,
            Bound::Prim(WordShr, vec![Atom::Var(1), Atom::raw(3)]),
            Box::new(Expr::Let(
                11,
                Bound::Prim(WordEq, vec![Atom::Var(10), Atom::raw(0)]),
                Box::new(Expr::Ret(Atom::Var(11))),
            )),
        );
        let mut out = e;
        bits(&mut out, &reg, &assume);
        fn find(e: &Expr) -> bool {
            match e {
                Expr::Let(11, Bound::Prim(PrimOp::WordEq, args), _) => {
                    args == &vec![Atom::Var(1), Atom::raw(0)]
                }
                Expr::Let(_, _, b) => find(b),
                _ => false,
            }
        }
        assert!(find(&out));
    }

    #[test]
    fn truthy_of_fresh_boolean_becomes_nonzero() {
        use PrimOp::*;
        let reg = fx_registry();
        // c = word<? a b ; v = or(shl(c,8), 2) ; if (truthy v) ...
        let e = Expr::Let(
            10,
            Bound::Prim(WordLt, vec![Atom::Var(1), Atom::Var(2)]),
            Box::new(Expr::Let(
                11,
                Bound::Prim(WordShl, vec![Atom::Var(10), Atom::raw(8)]),
                Box::new(Expr::Let(
                    12,
                    Bound::Prim(WordOr, vec![Atom::Var(11), Atom::raw(2)]),
                    Box::new(Expr::If(
                        Test::Truthy(Atom::Var(12)),
                        Box::new(Expr::Ret(Atom::raw(1))),
                        Box::new(Expr::Ret(Atom::raw(0))),
                    )),
                )),
            )),
        );
        let mut out = e;
        bits(&mut out, &reg, &Assumptions::default());
        fn find(e: &Expr) -> bool {
            match e {
                Expr::If(Test::NonZero(Atom::Var(10)), _, _) => true,
                Expr::Let(_, _, b) => find(b),
                _ => false,
            }
        }
        assert!(find(&out), "got:\n{}", sxr_ir::pretty::expr_to_string(&out));
    }

    #[test]
    fn known_type_test_folds_only_when_dominated() {
        use PrimOp::*;
        let reg = fx_registry();
        let mut assume = Assumptions::default();
        // The projection at v9 justifies "v1 is a fixnum".
        assume.insert(9, (1, 3, 0));
        // project first, then test: folds.
        let e = Expr::Let(
            9,
            Bound::Prim(WordShr, vec![Atom::Var(1), Atom::raw(3)]),
            Box::new(Expr::Let(
                10,
                Bound::Prim(WordAnd, vec![Atom::Var(1), Atom::raw(7)]),
                Box::new(Expr::Ret(Atom::Var(10))),
            )),
        );
        let mut out = e;
        bits(&mut out, &reg, &assume);
        fn folded(e: &Expr) -> bool {
            match e {
                Expr::Let(10, Bound::Atom(Atom::Lit(Literal::Raw(0))), _) => true,
                Expr::Let(_, _, b) => folded(b),
                _ => false,
            }
        }
        assert!(folded(&out));
    }

    #[test]
    fn branch_facts_do_not_leak_to_siblings() {
        use PrimOp::*;
        let reg = fx_registry();
        let mut assume = Assumptions::default();
        assume.insert(20, (1, 3, 0)); // the then-branch projection
                                      // if c { v20 = shr(v1,3); ret v20 } else { v21 = and(v1,7); ret v21 }
                                      // The else branch's type test must NOT fold from the then branch's
                                      // assumption.
        let e = Expr::If(
            Test::NonZero(Atom::Var(2)),
            Box::new(Expr::Let(
                20,
                Bound::Prim(WordShr, vec![Atom::Var(1), Atom::raw(3)]),
                Box::new(Expr::Ret(Atom::Var(20))),
            )),
            Box::new(Expr::Let(
                21,
                Bound::Prim(WordAnd, vec![Atom::Var(1), Atom::raw(7)]),
                Box::new(Expr::Ret(Atom::Var(21))),
            )),
        );
        let mut out = e;
        bits(&mut out, &reg, &assume);
        let Expr::If(_, _, els) = &out else { panic!() };
        assert!(
            matches!(&**els, Expr::Let(21, Bound::Prim(PrimOp::WordAnd, _), _)),
            "else-branch test survived: {}",
            sxr_ir::pretty::expr_to_string(els)
        );
    }

    #[test]
    fn facts_do_not_survive_past_joins() {
        use PrimOp::*;
        let reg = fx_registry();
        let mut assume = Assumptions::default();
        assume.insert(20, (1, 3, 0));
        // v5 = if c { v20 = shr(v1,3); ret v20 } else { ret raw 0 }
        // then: v22 = and(v1, 7)  -- must NOT fold
        let e = Expr::Let(
            5,
            Bound::If(
                Test::NonZero(Atom::Var(2)),
                Box::new(Expr::Let(
                    20,
                    Bound::Prim(WordShr, vec![Atom::Var(1), Atom::raw(3)]),
                    Box::new(Expr::Ret(Atom::Var(20))),
                )),
                Box::new(Expr::Ret(Atom::raw(0))),
            ),
            Box::new(Expr::Let(
                22,
                Bound::Prim(WordAnd, vec![Atom::Var(1), Atom::raw(7)]),
                Box::new(Expr::Ret(Atom::Var(22))),
            )),
        );
        let mut out = e;
        bits(&mut out, &reg, &assume);
        fn survived(e: &Expr) -> bool {
            match e {
                Expr::Let(22, Bound::Prim(PrimOp::WordAnd, _), _) => true,
                Expr::Let(_, _, b) => survived(b),
                _ => false,
            }
        }
        assert!(survived(&out), "join must clear branch facts");
    }

    /// The binding of `id` anywhere in `e`.
    fn bound_of(e: &Expr, id: VarId) -> Option<&Bound> {
        match e {
            Expr::Let(v, b, _) if *v == id => Some(b),
            Expr::Let(_, b, body) => {
                let inner = match b {
                    Bound::If(_, x, y) => bound_of(x, id).or_else(|| bound_of(y, id)),
                    Bound::Body(x) => bound_of(x, id),
                    Bound::Lambda(f) => bound_of(&f.body, id),
                    _ => None,
                };
                inner.or_else(|| bound_of(body, id))
            }
            Expr::If(_, x, y) => bound_of(x, id).or_else(|| bound_of(y, id)),
            _ => None,
        }
    }

    #[test]
    fn a_fact_strengthened_in_a_branch_is_restored_not_removed() {
        use PrimOp::*;
        let reg = fx_registry();
        // v5's binding justifies "v1's low bit is 0" for all that follows.
        let mut assume = Assumptions::default();
        assume.insert(5, (1, 1, 0));
        let and = |v, x, m| (v, Bound::Prim(WordAnd, vec![Atom::Var(x), Atom::raw(m)]));
        let chain = |binds: Vec<(VarId, Bound)>, last: Expr| {
            binds
                .into_iter()
                .rev()
                .fold(last, |body, (v, b)| Expr::Let(v, b, Box::new(body)))
        };
        // v5 = shr(v2, 1); v6 = v1 & 7; v7 = (v6 == 2)
        // v8 = if nonzero(v7) { v10 = v1 & 7 }          ; learns 3 bits
        //      else           { v11 = v1 & 7; v12 = v1 & 1 }
        // v13 = v1 & 7; v14 = v1 & 1
        let then = chain(vec![and(10, 1, 7)], Expr::Ret(Atom::Var(10)));
        let els = chain(vec![and(11, 1, 7), and(12, 1, 1)], Expr::Ret(Atom::Var(12)));
        let e = chain(
            vec![
                (5, Bound::Prim(WordShr, vec![Atom::Var(2), Atom::raw(1)])),
                and(6, 1, 7),
                (7, Bound::Prim(WordEq, vec![Atom::Var(6), Atom::raw(2)])),
                (
                    8,
                    Bound::If(Test::NonZero(Atom::Var(7)), Box::new(then), Box::new(els)),
                ),
                and(13, 1, 7),
                and(14, 1, 1),
            ],
            Expr::Ret(Atom::Var(14)),
        );
        let mut out = e;
        bits(&mut out, &reg, &assume);
        let shown = sxr_ir::pretty::expr_to_string(&out);
        let folded_to = |id| match bound_of(&out, id) {
            Some(Bound::Atom(Atom::Lit(Literal::Raw(w)))) => Some(*w),
            Some(Bound::Prim(WordAnd, _)) => None,
            other => panic!("v{id}: unexpected {other:?}\n{shown}"),
        };
        // The then branch knows three bits...
        assert_eq!(folded_to(10), Some(2), "{shown}");
        // ...its sibling and the code after the join know one bit again:
        // not three (leaked) and not none (removed instead of restored).
        for (three, one) in [(11, 12), (13, 14)] {
            assert_eq!(folded_to(three), None, "v{three}\n{shown}");
            assert_eq!(folded_to(one), Some(0), "v{one}\n{shown}");
        }
    }

    #[test]
    fn shift_combining_narrow() {
        use PrimOp::*;
        let reg = fx_registry();
        let mut assume = Assumptions::default();
        // v9 justifies: v1 has low 8 bits equal to the char tag 0b10010.
        assume.insert(9, (1, 8, 0b1_0010));
        // char->integer under classic tags: (v1 >> 8) << 3  ==>  v1 >> 5,
        // because the char tag's bits above bit 5 are zero.
        let e = Expr::Let(
            9,
            Bound::Prim(WordShr, vec![Atom::Var(1), Atom::raw(8)]),
            Box::new(Expr::Let(
                10,
                Bound::Prim(WordShl, vec![Atom::Var(9), Atom::raw(3)]),
                Box::new(Expr::Ret(Atom::Var(10))),
            )),
        );
        let mut out = e;
        bits(&mut out, &reg, &assume);
        fn find(e: &Expr) -> bool {
            match e {
                Expr::Let(10, Bound::Prim(PrimOp::WordShr, args), _) => {
                    args == &vec![Atom::Var(1), Atom::raw(5)]
                }
                Expr::Let(_, _, b) => find(b),
                _ => false,
            }
        }
        assert!(find(&out), "got:\n{}", sxr_ir::pretty::expr_to_string(&out));
    }

    #[test]
    fn shift_combining_widen() {
        use PrimOp::*;
        let reg = fx_registry();
        let mut assume = Assumptions::default();
        assume.insert(9, (1, 3, 0)); // fixnum
                                     // integer->char: (v1 >> 3) << 8  ==>  v1 << 5.
        let e = Expr::Let(
            9,
            Bound::Prim(WordShr, vec![Atom::Var(1), Atom::raw(3)]),
            Box::new(Expr::Let(
                10,
                Bound::Prim(WordShl, vec![Atom::Var(9), Atom::raw(8)]),
                Box::new(Expr::Ret(Atom::Var(10))),
            )),
        );
        let mut out = e;
        bits(&mut out, &reg, &assume);
        fn find(e: &Expr) -> bool {
            match e {
                Expr::Let(10, Bound::Prim(PrimOp::WordShl, args), _) => {
                    args == &vec![Atom::Var(1), Atom::raw(5)]
                }
                Expr::Let(_, _, b) => find(b),
                _ => false,
            }
        }
        assert!(find(&out), "got:\n{}", sxr_ir::pretty::expr_to_string(&out));
    }

    #[test]
    fn passed_type_test_refines_then_branch() {
        use PrimOp::*;
        let reg = fx_registry();
        // c = ((x & 7) == 0); if (nonzero c) { redundant = (x & 7); ... }
        let e = Expr::Let(
            10,
            Bound::Prim(WordAnd, vec![Atom::Var(1), Atom::raw(7)]),
            Box::new(Expr::Let(
                11,
                Bound::Prim(WordEq, vec![Atom::Var(10), Atom::raw(0)]),
                Box::new(Expr::If(
                    Test::NonZero(Atom::Var(11)),
                    Box::new(Expr::Let(
                        12,
                        Bound::Prim(WordAnd, vec![Atom::Var(1), Atom::raw(7)]),
                        Box::new(Expr::Ret(Atom::Var(12))),
                    )),
                    Box::new(Expr::Let(
                        13,
                        Bound::Prim(WordAnd, vec![Atom::Var(1), Atom::raw(7)]),
                        Box::new(Expr::Ret(Atom::Var(13))),
                    )),
                )),
            )),
        );
        let mut out = e;
        bits(&mut out, &reg, &Assumptions::default());
        fn then_folded(e: &Expr) -> (bool, bool) {
            fn find(e: &Expr, id: u32) -> Option<bool> {
                match e {
                    Expr::Let(v, b, body) => {
                        if *v == id {
                            Some(matches!(b, Bound::Atom(Atom::Lit(Literal::Raw(0)))))
                        } else {
                            find(body, id)
                        }
                    }
                    Expr::If(_, t, e2) => find(t, id).or_else(|| find(e2, id)),
                    _ => None,
                }
            }
            (find(e, 12).unwrap_or(false), find(e, 13).unwrap_or(false))
        }
        let (then_f, else_f) = then_folded(&out);
        assert!(then_f, "then-branch check folds after the passed test");
        assert!(!else_f, "else-branch must not be refined");
    }

    #[test]
    fn truthy_of_known_non_false_folds() {
        use PrimOp::*;
        let reg = fx_registry();
        let mut assume = Assumptions::default();
        assume.insert(9, (1, 3, 0));
        let e = Expr::Let(
            9,
            Bound::Prim(WordShr, vec![Atom::Var(1), Atom::raw(3)]),
            Box::new(Expr::If(
                Test::Truthy(Atom::Var(1)),
                Box::new(Expr::Ret(Atom::raw(1))),
                Box::new(Expr::Ret(Atom::raw(0))),
            )),
        );
        let mut out = e;
        bits(&mut out, &reg, &assume);
        fn find(e: &Expr) -> bool {
            match e {
                Expr::If(Test::NonZero(Atom::Lit(Literal::Raw(1))), _, _) => true,
                Expr::Let(_, _, b) => find(b),
                _ => false,
            }
        }
        assert!(find(&out));
    }
}

//! Instruction selection: closure-converted ANF → VM code.
//!
//! Notable selections (all available to *both* pipelines — they encode
//! machine knowledge, not data-representation knowledge):
//!
//! * displacement/indexed addressing folds tag subtraction into loads and
//!   stores,
//! * single-use comparisons feeding a branch fuse into compare-and-branch,
//! * immediate operand forms for constants that fit.
//!
//! The code generator also computes each function's **pointer map** for the
//! precise collector: a register is marked "raw" when the value it holds is
//! statically known never to be a heap pointer (results of word arithmetic,
//! projections, type tests). Raw registers are skipped by the GC. Every
//! register's kind, and every closure slot's, is decided once, by
//! `gc_kinds`, before any instruction is selected.

use std::collections::HashMap;
use sxr_ir::anf::{Atom, Bound, Expr, FnId, Fun, Literal, Module, Test, VarId};
use sxr_ir::prim::PrimOp;
use sxr_ir::rep::{roles, RepKind, RepRegistry};
use sxr_ir::IdMap;
use sxr_vm::{BinOp, CmpOp, CodeFun, CodeProgram, Inst, PoolEntry, Reg, RegImm, RepVmOp};

/// A code-generation failure (missing role, register overflow, or an IR
/// shape the backend cannot accept).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodegenError(pub String);

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codegen error: {}", self.0)
    }
}

impl std::error::Error for CodegenError {}

/// Whether a register can ever hold a heap pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Never a pointer (word arithmetic results, projections, raw
    /// constants); skipped by the collector.
    Raw,
    /// A tagged Scheme value; scanned by the collector.
    Tagged,
}

impl Kind {
    /// "Tagged wins": once a value may be tagged it must be treated as a
    /// root. Mixing is only safe because non-pointer words under every
    /// registered immediate representation remain valid tagged words; a raw
    /// word that could alias a pointer pattern must never flow into a tagged
    /// join — the library upholds this by construction and the differential
    /// tests exercise it.
    fn join(self, other: Kind) -> Kind {
        if self == Kind::Tagged || other == Kind::Tagged {
            Kind::Tagged
        } else {
            Kind::Raw
        }
    }

    /// A literal is raw exactly when it is a raw word.
    fn of_literal(l: &Literal) -> Kind {
        match l {
            Literal::Raw(_) => Kind::Raw,
            _ => Kind::Tagged,
        }
    }
}

/// The kind of a primitive's result.
fn prim_kind(op: &PrimOp) -> Kind {
    use PrimOp::*;
    match op {
        WordAdd | WordSub | WordMul | WordQuot | WordRem | WordAnd | WordOr | WordXor | WordShl
        | WordShr | WordEq | WordLt | PtrEq | RepProject | RepTest | RepLen | SpecHeader(_) => {
            Kind::Raw
        }
        _ => Kind::Tagged,
    }
}

/// The GC kind of everything codegen puts in a register or a closure slot,
/// decided here and nowhere else.
struct Kinds {
    /// Per function, the kind of each closure free-variable slot.
    slots: Vec<Vec<Kind>>,
    /// Per function, the kind of each variable it binds (its self,
    /// parameters and `let`s).
    vars: Vec<IdMap<VarId, Kind>>,
}

/// Computes [`Kinds`] for a module. `Raw` slots hold untagged machine words
/// (projections, word arithmetic the optimizer hoisted across a lambda) and
/// must be *skipped* by the collector — a raw word whose low bits alias a
/// pointer tag would otherwise be "forwarded" into garbage. Slots start
/// `Raw` and join toward `Tagged` over every `MakeClosure`/`ClosurePatch`
/// site, so the fixpoint terminates; `ClosureRef` reads feed a function's
/// own slot kinds back into values it captures for others, which is why
/// this is a whole-module fixpoint rather than a single pass. The variable
/// kinds are those of the last round, which read only converged slots.
fn gc_kinds(module: &Module) -> Kinds {
    let mut w = KindWalk {
        slots: module
            .funs
            .iter()
            .map(|f| vec![Kind::Raw; f.free_count])
            .collect(),
        changed: false,
        fid: 0,
        env: IdMap::default(),
        closure_of: IdMap::default(),
    };
    loop {
        w.changed = false;
        let mut vars = Vec::with_capacity(module.funs.len());
        for (fid, f) in module.funs.iter().enumerate() {
            w.fid = fid as FnId;
            w.closure_of.clear();
            w.env = IdMap::default();
            w.env.insert(f.self_var, Kind::Tagged);
            for p in f.params.iter().chain(f.rest.iter()) {
                w.env.insert(*p, Kind::Tagged);
            }
            w.expr(&f.body);
            vars.push(std::mem::take(&mut w.env));
        }
        if !w.changed {
            return Kinds {
                slots: w.slots,
                vars,
            };
        }
    }
}

/// One round of [`gc_kinds`] over one function at a time.
struct KindWalk {
    slots: Vec<Vec<Kind>>,
    /// Whether a slot's kind changed this round.
    changed: bool,
    /// The function being walked.
    fid: FnId,
    /// Its variables' kinds so far.
    env: IdMap<VarId, Kind>,
    /// Its vars bound to `MakeClosure`, so `ClosurePatch` can attribute its
    /// store to the right function's slot.
    closure_of: IdMap<VarId, FnId>,
}

impl KindWalk {
    fn atom(&self, a: &Atom) -> Kind {
        match a {
            Atom::Var(v) => self.env.get(v).copied().unwrap_or(Kind::Tagged),
            Atom::Lit(l) => Kind::of_literal(l),
        }
    }

    fn join_slot(&mut self, fid: FnId, idx: usize, k: Kind) {
        if let Some(slot) = self
            .slots
            .get_mut(fid as usize)
            .and_then(|s| s.get_mut(idx))
        {
            let j = slot.join(k);
            if j != *slot {
                *slot = j;
                self.changed = true;
            }
        }
    }

    /// Binds the kinds of the variables `e` defines, and returns the kind
    /// of the value it yields. Loops along the spine.
    fn expr(&mut self, mut e: &Expr) -> Kind {
        loop {
            match e {
                Expr::Let(v, b, body) => {
                    let k = self.bound(*v, b);
                    self.env.insert(*v, k);
                    e = body;
                }
                // Pre-closure-conversion only; nothing to do here.
                Expr::LetRec(_, body) => e = body,
                Expr::If(_, t, els) => return self.expr(t).join(self.expr(els)),
                Expr::Ret(a) => return self.atom(a),
                Expr::TailCall(..) | Expr::TailCallKnown(..) => return Kind::Tagged,
            }
        }
    }

    fn bound(&mut self, v: VarId, b: &Bound) -> Kind {
        match b {
            Bound::Atom(a) => {
                if let Some(t) = a
                    .as_var()
                    .and_then(|src| self.closure_of.get(&src).copied())
                {
                    self.closure_of.insert(v, t);
                }
                self.atom(a)
            }
            Bound::Prim(op, _) => prim_kind(op),
            Bound::MakeClosure(target, frees) => {
                for (i, a) in frees.iter().enumerate() {
                    let k = self.atom(a);
                    self.join_slot(*target, i, k);
                }
                self.closure_of.insert(v, *target);
                Kind::Tagged
            }
            Bound::ClosureRef(i) => self
                .slots
                .get(self.fid as usize)
                .and_then(|s| s.get(*i))
                .copied()
                .unwrap_or(Kind::Tagged),
            Bound::ClosurePatch(c, i, x) => {
                let k = self.atom(x);
                match c.as_var().and_then(|cv| self.closure_of.get(&cv).copied()) {
                    Some(target) => self.join_slot(target, *i, k),
                    // Unknown patch target: assume it could be any function.
                    None => {
                        for t in 0..self.slots.len() {
                            self.join_slot(t as FnId, *i, k);
                        }
                    }
                }
                Kind::Tagged // binds the unspecified value
            }
            Bound::If(_, t, els) => self.expr(t).join(self.expr(els)),
            Bound::Body(e) => self.expr(e),
            // Calls, globals, lambdas (pre-cc), and effect binders yield tagged
            // values (effect binders bind the unspecified value).
            Bound::Call(..)
            | Bound::CallKnown(..)
            | Bound::GlobalGet(_)
            | Bound::GlobalSet(..)
            | Bound::Lambda(_) => Kind::Tagged,
        }
    }
}

/// Generates a loadable program from a validated module.
///
/// # Errors
///
/// Returns [`CodegenError`] when a literal requires a representation role
/// the library did not provide, when intrinsics were not lowered, or when a
/// function exceeds the register budget.
pub fn generate(module: &Module, registry: &RepRegistry) -> Result<CodeProgram, CodegenError> {
    let mut shared = Shared {
        registry,
        pool: Vec::new(),
        pool_index: HashMap::new(),
        false_word: role_word(registry, roles::BOOLEAN, 0)?,
        unspec_word: role_word(registry, roles::UNSPECIFIED, 0)?,
        closure_tag: registry
            .pointer_role(roles::CLOSURE)
            .ok_or_else(|| missing_role(roles::CLOSURE))?
            .tag as i64,
    };
    let kinds = gc_kinds(module);
    let mut funs = Vec::with_capacity(module.funs.len());
    for (fid, f) in module.funs.iter().enumerate() {
        funs.push(FnGen::emit(
            f,
            &kinds.slots[fid],
            &kinds.vars[fid],
            &mut shared,
        )?);
    }
    Ok(CodeProgram {
        funs,
        main: module.main,
        pool: shared.pool,
        nglobals: module.global_names.len(),
        global_names: module.global_names.clone(),
        registry: registry.clone(),
    })
}

/// Removes `Jump` instructions whose target is the next instruction
/// (artifacts of straight-line value bodies) and remaps branch targets.
fn drop_fallthrough_jumps(insts: Vec<Inst>) -> Vec<Inst> {
    let dead: Vec<bool> = insts
        .iter()
        .enumerate()
        .map(|(i, inst)| matches!(inst, Inst::Jump { t } if *t as usize == i + 1))
        .collect();
    if !dead.iter().any(|&d| d) {
        return insts;
    }
    // new_index[i] = position of instruction i after removal.
    let mut new_index = Vec::with_capacity(insts.len() + 1);
    let mut n = 0u32;
    for d in &dead {
        new_index.push(n);
        if !d {
            n += 1;
        }
    }
    new_index.push(n);
    insts
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !dead[*i])
        .map(|(_, mut inst)| {
            if let Some(t) = inst.target_mut() {
                *t = new_index[*t as usize];
            }
            inst
        })
        .collect()
}

fn missing_role(role: &str) -> CodegenError {
    CodegenError(format!("library provided no `{role}` representation"))
}

fn role_word(reg: &RepRegistry, role: &str, payload: i64) -> Result<i64, CodegenError> {
    reg.role_word(role, payload)
        .ok_or_else(|| missing_role(role))
}

#[derive(Debug, Clone, Hash, PartialEq, Eq)]
enum PoolKey {
    Datum(sxr_sexp::Datum),
    Rep(u32),
}

struct Shared<'a> {
    registry: &'a RepRegistry,
    pool: Vec<PoolEntry>,
    pool_index: HashMap<PoolKey, u32>,
    false_word: i64,
    unspec_word: i64,
    closure_tag: i64,
}

impl Shared<'_> {
    fn pool_slot(&mut self, key: PoolKey) -> u32 {
        if let Some(&i) = self.pool_index.get(&key) {
            return i;
        }
        let i = self.pool.len() as u32;
        self.pool.push(match &key {
            PoolKey::Datum(d) => PoolEntry::Datum(d.clone()),
            PoolKey::Rep(r) => PoolEntry::Rep(*r),
        });
        self.pool_index.insert(key, i);
        i
    }

    /// Encodes a literal as either an inline immediate or a pool slot.
    fn literal(&mut self, lit: &Literal) -> Result<Enc, CodegenError> {
        use sxr_sexp::Datum;
        Ok(match lit {
            Literal::Raw(w) => Enc::Imm(*w),
            Literal::Unspecified => Enc::Imm(self.unspec_word),
            Literal::Rep(r) => Enc::Pool(self.pool_slot(PoolKey::Rep(*r))),
            Literal::Datum(d) => {
                let (role, payload) = match d {
                    Datum::Fixnum(n) => (roles::FIXNUM, *n),
                    Datum::Bool(b) => (roles::BOOLEAN, *b as i64),
                    Datum::Char(c) => (roles::CHAR, *c as i64),
                    Datum::List(items) if items.is_empty() => (roles::NULL, 0),
                    other => return Ok(Enc::Pool(self.pool_slot(PoolKey::Datum(other.clone())))),
                };
                Enc::Imm(role_word(self.registry, role, payload)?)
            }
        })
    }
}

#[derive(Debug, Clone, Copy)]
enum Enc {
    Imm(i64),
    Pool(u32),
}

struct FnGen<'a, 'b> {
    shared: &'a mut Shared<'b>,
    regs: IdMap<VarId, Reg>,
    kinds: Vec<Kind>, // per register
    var_kinds: &'a IdMap<VarId, Kind>,
    insts: Vec<Inst>,
    patches: Vec<(usize, u32)>, // (inst index, label)
    labels: Vec<Option<u32>>,
    uses: IdMap<VarId, usize>,
}

/// Where a sub-expression delivers its value.
#[derive(Clone, Copy)]
enum Ctx {
    /// Function tail: `Ret` / tail calls allowed.
    Tail,
    /// Value branch of a `Bound::If`: `Ret a` means "move a to `dst`, jump
    /// to `join`".
    Yield { dst: Reg, join: u32 },
}

impl<'a, 'b> FnGen<'a, 'b> {
    fn emit(
        f: &Fun,
        free_kinds: &'a [Kind],
        var_kinds: &'a IdMap<VarId, Kind>,
        shared: &'a mut Shared<'b>,
    ) -> Result<CodeFun, CodegenError> {
        let mut g = FnGen {
            shared,
            regs: IdMap::default(),
            kinds: Vec::new(),
            var_kinds,
            insts: Vec::new(),
            patches: Vec::new(),
            labels: Vec::new(),
            uses: IdMap::default(),
        };
        f.body.use_counts(&mut g.uses);
        let r0 = g.define(f.self_var)?;
        if r0 != 0 {
            // The machine stores the callee closure in register 0; any
            // other assignment would silently shift every frame access.
            return Err(CodegenError(format!(
                "closure register allocated as r{r0}, not r0"
            )));
        }
        for p in f.params.iter().chain(f.rest.iter()) {
            g.define(*p)?;
        }
        g.emit_expr(&f.body, Ctx::Tail)?;
        // Patch labels.
        for (at, label) in std::mem::take(&mut g.patches) {
            let target = g.labels[label as usize]
                .ok_or_else(|| CodegenError(format!("unbound label {label}")))?;
            let inst = &mut g.insts[at];
            match inst.target_mut() {
                Some(t) => *t = target,
                None => return Err(CodegenError(format!("patch of non-branch {inst:?}"))),
            }
        }
        g.insts = drop_fallthrough_jumps(g.insts);
        Ok(CodeFun {
            name: f.name.clone().unwrap_or_else(|| "anonymous".to_string()),
            arity: f.params.len(),
            variadic: f.rest.is_some(),
            nregs: g.kinds.len(),
            free_count: f.free_count,
            insts: g.insts,
            ptr_map: g.kinds.iter().map(|k| *k == Kind::Tagged).collect(),
            free_ptr_map: free_kinds.iter().map(|k| *k == Kind::Tagged).collect(),
        })
    }

    fn fresh_reg(&mut self, kind: Kind) -> Result<Reg, CodegenError> {
        let r = self.kinds.len();
        if r > u16::MAX as usize {
            return Err(CodegenError(
                "function needs more than 65536 registers".to_string(),
            ));
        }
        self.kinds.push(kind);
        Ok(r as Reg)
    }

    fn new_label(&mut self) -> u32 {
        self.labels.push(None);
        (self.labels.len() - 1) as u32
    }

    fn bind_label(&mut self, l: u32) {
        self.labels[l as usize] = Some(self.insts.len() as u32);
    }

    fn jump(&mut self, l: u32) {
        self.patches.push((self.insts.len(), l));
        self.insts.push(Inst::Jump { t: 0 });
    }

    fn jump_cmp(&mut self, op: CmpOp, a: Reg, b: RegImm, l: u32) {
        self.patches.push((self.insts.len(), l));
        self.insts.push(Inst::JumpCmp { op, a, b, t: 0 });
    }

    fn var_reg(&self, v: VarId) -> Result<Reg, CodegenError> {
        self.regs
            .get(&v)
            .copied()
            .ok_or_else(|| CodegenError(format!("use of unallocated variable v{v}")))
    }

    /// Materializes an atom into a register.
    fn atom_reg(&mut self, a: &Atom) -> Result<Reg, CodegenError> {
        match a {
            Atom::Var(v) => self.var_reg(*v),
            Atom::Lit(l) => {
                let enc = self.shared.literal(l)?;
                let r = self.fresh_reg(Kind::of_literal(l))?;
                self.insts.push(match enc {
                    Enc::Imm(imm) => Inst::Const { d: r, imm },
                    Enc::Pool(idx) => Inst::Pool { d: r, idx },
                });
                Ok(r)
            }
        }
    }

    /// Returns an immediate encoding of the atom if it fits i32.
    fn atom_imm(&mut self, a: &Atom) -> Result<Option<i32>, CodegenError> {
        if let Atom::Lit(l) = a {
            if let Enc::Imm(w) = self.shared.literal(l)? {
                return Ok(i32::try_from(w).ok());
            }
        }
        Ok(None)
    }

    fn atom_regs(&mut self, atoms: &[Atom]) -> Result<Vec<Reg>, CodegenError> {
        atoms.iter().map(|a| self.atom_reg(a)).collect()
    }

    fn used_once(&self, v: VarId) -> bool {
        self.uses.get(&v).copied().unwrap_or(0) == 1
    }

    /// Emits `e`, one spine node per pass of the loop; recurses only into
    /// the arms of conditionals and into value bodies.
    fn emit_expr(&mut self, mut e: &Expr, ctx: Ctx) -> Result<(), CodegenError> {
        loop {
            match e {
                Expr::Let(v, b, body) => {
                    // Compare-and-branch fusion: a single-use comparison
                    // feeding the immediately following raw test.
                    match (self.fusable(*v, b), &**body) {
                        (Some((op, args)), Expr::If(Test::NonZero(Atom::Var(w)), t, els))
                            if w == v =>
                        {
                            let (cmp, a, b) = self.compare_operands(op, args)?;
                            let else_l = self.new_label();
                            self.jump_cmp(cmp, a, b, else_l);
                            self.emit_expr(t, ctx)?;
                            self.bind_label(else_l);
                            e = els;
                        }
                        (
                            Some((op, args)),
                            Expr::Let(v2, Bound::If(Test::NonZero(Atom::Var(w)), t, els), rest),
                        ) if w == v => {
                            let (cmp, a, b) = self.compare_operands(op, args)?;
                            let dst = self.define(*v2)?;
                            let else_l = self.new_label();
                            self.jump_cmp(cmp, a, b, else_l);
                            self.yield_arms(dst, t, els, else_l)?;
                            e = rest;
                        }
                        _ => {
                            self.emit_bound(*v, b)?;
                            e = body;
                        }
                    }
                }
                Expr::If(test, t, els) => {
                    let else_l = self.new_label();
                    self.branch_unless(test, else_l)?;
                    self.emit_expr(t, ctx)?;
                    self.bind_label(else_l);
                    e = els;
                }
                Expr::Ret(a) => {
                    match ctx {
                        Ctx::Tail => {
                            let r = self.atom_reg(a)?;
                            self.insts.push(Inst::Ret { s: r });
                        }
                        Ctx::Yield { dst, join } => {
                            // Move/encode directly into the destination register.
                            match a {
                                Atom::Var(v) => {
                                    let s = self.var_reg(*v)?;
                                    if s != dst {
                                        self.insts.push(Inst::Move { d: dst, s });
                                    }
                                }
                                Atom::Lit(l) => self.insts.push(match self.shared.literal(l)? {
                                    Enc::Imm(imm) => Inst::Const { d: dst, imm },
                                    Enc::Pool(idx) => Inst::Pool { d: dst, idx },
                                }),
                            }
                            self.jump(join);
                        }
                    }
                    return Ok(());
                }
                Expr::TailCall(f, args) => {
                    if !matches!(ctx, Ctx::Tail) {
                        return Err(CodegenError("tail call in value branch".to_string()));
                    }
                    let fr = self.atom_reg(f)?;
                    let argr = self.atom_regs(args)?;
                    self.insts.push(Inst::TailCall { f: fr, args: argr });
                    return Ok(());
                }
                Expr::TailCallKnown(fid, clo, args) => {
                    if !matches!(ctx, Ctx::Tail) {
                        return Err(CodegenError("tail call in value branch".to_string()));
                    }
                    let cr = self.atom_reg(clo)?;
                    let argr = self.atom_regs(args)?;
                    self.insts.push(Inst::TailCallKnown {
                        f: *fid,
                        clo: cr,
                        args: argr,
                    });
                    return Ok(());
                }
                Expr::LetRec(..) => {
                    return Err(CodegenError(
                        "letrec reached the code generator".to_string(),
                    ))
                }
            }
        }
    }

    /// The comparison `let v = b` binds, when it can fuse into the branch
    /// that tests `v`: `v` is used once, by that test.
    fn fusable<'e>(&self, v: VarId, b: &'e Bound) -> Option<(PrimOp, &'e [Atom])> {
        match b {
            Bound::Prim(op @ (PrimOp::WordEq | PrimOp::WordLt | PrimOp::PtrEq), args)
                if self.used_once(v) =>
            {
                Some((*op, args))
            }
            _ => None,
        }
    }

    fn branch_unless(&mut self, test: &Test, else_l: u32) -> Result<(), CodegenError> {
        match test {
            Test::Truthy(a) => {
                let r = self.atom_reg(a)?;
                let fw = self.shared.false_word;
                match i32::try_from(fw) {
                    Ok(imm) => self.jump_cmp(CmpOp::Eq, r, RegImm::Imm(imm), else_l),
                    Err(_) => {
                        let t = self.fresh_reg(Kind::Tagged)?;
                        self.insts.push(Inst::Const { d: t, imm: fw });
                        self.jump_cmp(CmpOp::Eq, r, RegImm::Reg(t), else_l);
                    }
                }
                Ok(())
            }
            Test::NonZero(a) => {
                let r = self.atom_reg(a)?;
                self.jump_cmp(CmpOp::Eq, r, RegImm::Imm(0), else_l);
                Ok(())
            }
        }
    }

    /// The operands of a fused compare-and-branch, and the comparison that
    /// sends it to the else arm (the one that holds when `op` is false).
    fn compare_operands(
        &mut self,
        op: PrimOp,
        args: &[Atom],
    ) -> Result<(CmpOp, Reg, RegImm), CodegenError> {
        let a = self.atom_reg(&args[0])?;
        let b = match self.atom_imm(&args[1])? {
            Some(imm) => RegImm::Imm(imm),
            None => RegImm::Reg(self.atom_reg(&args[1])?),
        };
        let cmp = match op {
            PrimOp::WordEq | PrimOp::PtrEq => CmpOp::Ne,
            PrimOp::WordLt => CmpOp::Ge,
            _ => unreachable!("fusion only on comparisons"),
        };
        Ok((cmp, a, b))
    }

    /// Emits the arms of a value-producing conditional whose branch to
    /// `else_l` is already emitted: each arm yields into `dst`.
    fn yield_arms(
        &mut self,
        dst: Reg,
        t: &Expr,
        els: &Expr,
        else_l: u32,
    ) -> Result<(), CodegenError> {
        let join = self.new_label();
        self.emit_expr(t, Ctx::Yield { dst, join })?;
        self.bind_label(else_l);
        self.emit_expr(els, Ctx::Yield { dst, join })?;
        self.bind_label(join);
        Ok(())
    }

    /// Gives `v` a fresh register of the kind [`gc_kinds`] decided for it.
    fn define(&mut self, v: VarId) -> Result<Reg, CodegenError> {
        let kind = self.var_kinds.get(&v).copied().unwrap_or(Kind::Tagged);
        let r = self.fresh_reg(kind)?;
        self.regs.insert(v, r);
        Ok(r)
    }

    fn emit_bound(&mut self, v: VarId, b: &Bound) -> Result<(), CodegenError> {
        match b {
            Bound::Atom(a) => {
                let inst = match a {
                    Atom::Var(src) => {
                        let s = self.var_reg(*src)?;
                        Inst::Move {
                            d: self.define(v)?,
                            s,
                        }
                    }
                    Atom::Lit(l) => match self.shared.literal(l)? {
                        Enc::Imm(imm) => Inst::Const {
                            d: self.define(v)?,
                            imm,
                        },
                        Enc::Pool(idx) => Inst::Pool {
                            d: self.define(v)?,
                            idx,
                        },
                    },
                };
                self.insts.push(inst);
                Ok(())
            }
            Bound::Prim(op, args) => self.emit_prim(v, *op, args),
            Bound::Call(f, args) => {
                let fr = self.atom_reg(f)?;
                let argr = self.atom_regs(args)?;
                let d = self.define(v)?;
                self.insts.push(Inst::Call {
                    d,
                    f: fr,
                    args: argr,
                });
                Ok(())
            }
            Bound::CallKnown(fid, clo, args) => {
                let cr = self.atom_reg(clo)?;
                let argr = self.atom_regs(args)?;
                let d = self.define(v)?;
                self.insts.push(Inst::CallKnown {
                    d,
                    f: *fid,
                    clo: cr,
                    args: argr,
                });
                Ok(())
            }
            Bound::GlobalGet(g) => {
                let d = self.define(v)?;
                self.insts.push(Inst::GlobalGet { d, g: *g });
                Ok(())
            }
            Bound::GlobalSet(g, a) => {
                let s = self.atom_reg(a)?;
                self.insts.push(Inst::GlobalSet { g: *g, s });
                self.bind_unspec_if_used(v)
            }
            Bound::Lambda(_) => Err(CodegenError(
                "nested lambda reached the code generator".to_string(),
            )),
            Bound::MakeClosure(fid, frees) => {
                let freer = self.atom_regs(frees)?;
                let d = self.define(v)?;
                self.insts.push(Inst::MakeClosure {
                    d,
                    f: *fid,
                    free: freer,
                });
                Ok(())
            }
            Bound::ClosureRef(i) => {
                let d = self.define(v)?;
                let disp = (8 * (*i as i64 + 2) - self.shared.closure_tag) as i32;
                self.insts.push(Inst::LoadD { d, p: 0, disp });
                Ok(())
            }
            Bound::ClosurePatch(c, i, x) => {
                let cr = self.atom_reg(c)?;
                let xr = self.atom_reg(x)?;
                self.insts.push(Inst::ClosureSet {
                    clo: cr,
                    idx: *i as u32,
                    val: xr,
                });
                self.bind_unspec_if_used(v)
            }
            Bound::If(test, t, els) => {
                let dst = self.define(v)?;
                let else_l = self.new_label();
                self.branch_unless(test, else_l)?;
                self.yield_arms(dst, t, els, else_l)
            }
            Bound::Body(e) => {
                let dst = self.define(v)?;
                let join = self.new_label();
                self.emit_expr(e, Ctx::Yield { dst, join })?;
                self.bind_label(join);
                Ok(())
            }
        }
    }

    /// Binds `v`'s register to the unspecified value, but only when the
    /// variable is actually read (effect-only prims usually are not).
    fn bind_unspec_if_used(&mut self, v: VarId) -> Result<(), CodegenError> {
        if self.uses.get(&v).copied().unwrap_or(0) > 0 {
            let w = self.shared.unspec_word;
            let d = self.define(v)?;
            self.insts.push(Inst::Const { d, imm: w });
        } else {
            // The register is reserved but never written; its initial value
            // is safe.
            self.define(v)?;
        }
        Ok(())
    }

    fn emit_prim(&mut self, v: VarId, op: PrimOp, args: &[Atom]) -> Result<(), CodegenError> {
        use PrimOp::*;
        let bin = |o: BinOp| o;
        match op {
            WordAdd | WordSub | WordMul | WordQuot | WordRem | WordAnd | WordOr | WordXor
            | WordShl | WordShr | WordEq | WordLt | PtrEq => {
                let o = match op {
                    WordAdd => bin(BinOp::Add),
                    WordSub => bin(BinOp::Sub),
                    WordMul => bin(BinOp::Mul),
                    WordQuot => bin(BinOp::Quot),
                    WordRem => bin(BinOp::Rem),
                    WordAnd => bin(BinOp::And),
                    WordOr => bin(BinOp::Or),
                    WordXor => bin(BinOp::Xor),
                    WordShl => bin(BinOp::Shl),
                    WordShr => bin(BinOp::Shr),
                    WordEq | PtrEq => bin(BinOp::CmpEq),
                    WordLt => bin(BinOp::CmpLt),
                    _ => unreachable!(),
                };
                let a = self.atom_reg(&args[0])?;
                let imm = self.atom_imm(&args[1])?;
                let d = self.define(v)?;
                match imm {
                    Some(i) => self.insts.push(Inst::BinI {
                        op: o,
                        d,
                        a,
                        imm: i,
                    }),
                    None => {
                        let b = self.atom_reg(&args[1])?;
                        self.insts.push(Inst::Bin { op: o, d, a, b });
                    }
                }
                Ok(())
            }
            SpecHeader(rid) => {
                let tag = self.spec_tag(rid)?;
                let p = self.atom_reg(&args[0])?;
                let d = self.define(v)?;
                self.insts.push(Inst::LoadD { d, p, disp: -tag });
                Ok(())
            }
            SpecAlloc(rid) => {
                let len = match self.atom_imm(&args[0])? {
                    Some(i) => RegImm::Imm(i),
                    None => RegImm::Reg(self.atom_reg(&args[0])?),
                };
                let fill = self.atom_reg(&args[1])?;
                let d = self.define(v)?;
                self.insts.push(Inst::AllocFill {
                    d,
                    len,
                    fill,
                    rep: rid,
                });
                Ok(())
            }
            SpecRef(rid) => {
                let tag = self.spec_tag(rid)?;
                let p = self.atom_reg(&args[0])?;
                let off = self.atom_imm(&args[1])?;
                let d = self.define(v)?;
                match off {
                    Some(byteoff) => self.insts.push(Inst::LoadD {
                        d,
                        p,
                        disp: byteoff + 8 - tag,
                    }),
                    None => {
                        let x = self.atom_reg(&args[1])?;
                        self.insts.push(Inst::LoadX {
                            d,
                            p,
                            x,
                            disp: 8 - tag,
                        });
                    }
                }
                Ok(())
            }
            SpecSet(rid) => {
                let tag = self.spec_tag(rid)?;
                let p = self.atom_reg(&args[0])?;
                let off = self.atom_imm(&args[1])?;
                let s = self.atom_reg(&args[2])?;
                match off {
                    Some(byteoff) => self.insts.push(Inst::StoreD {
                        p,
                        disp: byteoff + 8 - tag,
                        s,
                    }),
                    None => {
                        let x = self.atom_reg(&args[1])?;
                        self.insts.push(Inst::StoreX {
                            p,
                            x,
                            disp: 8 - tag,
                            s,
                        });
                    }
                }
                self.bind_unspec_if_used(v)
            }
            MakeImmType | MakePtrType | ProvideRep | RepInject | RepProject | RepTest
            | RepAlloc | RepRef | RepSet | RepLen => {
                let o = match op {
                    MakeImmType => RepVmOp::MakeImm,
                    MakePtrType => RepVmOp::MakePtr,
                    ProvideRep => RepVmOp::Provide,
                    RepInject => RepVmOp::Inject,
                    RepProject => RepVmOp::Project,
                    RepTest => RepVmOp::Test,
                    RepAlloc => RepVmOp::Alloc,
                    RepRef => RepVmOp::Ref,
                    RepSet => RepVmOp::Set,
                    RepLen => RepVmOp::Len,
                    _ => unreachable!(),
                };
                let argr = self.atom_regs(args)?;
                let d = self.define(v)?;
                self.insts.push(Inst::Rep {
                    op: o,
                    d,
                    args: argr,
                });
                Ok(())
            }
            Intern => {
                let s = self.atom_reg(&args[0])?;
                let d = self.define(v)?;
                self.insts.push(Inst::Intern { d, s });
                Ok(())
            }
            WriteChar => {
                let s = self.atom_reg(&args[0])?;
                self.insts.push(Inst::WriteChar { s });
                self.bind_unspec_if_used(v)
            }
            Error => {
                let s = self.atom_reg(&args[0])?;
                self.insts.push(Inst::ErrorOp { s });
                self.bind_unspec_if_used(v)
            }
            TrapCall => {
                // PushHandler / call thunk / PopHandler, with the resume
                // label bound *after* PopHandler: the trap path pops the
                // handler entry itself, so the normal and unwound paths
                // each pop exactly once.  Both the thunk's and the
                // handler's result land in `d`.
                let hr = self.atom_reg(&args[0])?;
                let tr = self.atom_reg(&args[1])?;
                let d = self.define(v)?;
                let after = self.new_label();
                self.patches.push((self.insts.len(), after));
                self.insts.push(Inst::PushHandler { h: hr, d, t: 0 });
                self.insts.push(Inst::Call {
                    d,
                    f: tr,
                    args: vec![],
                });
                self.insts.push(Inst::PopHandler);
                self.bind_label(after);
                Ok(())
            }
            Raise => {
                let s = self.atom_reg(&args[0])?;
                self.insts.push(Inst::RaiseOp { s });
                self.bind_unspec_if_used(v)
            }
            CounterReset => {
                self.insts.push(Inst::ResetCounters);
                self.bind_unspec_if_used(v)
            }
            Intrinsic(i) => Err(CodegenError(format!(
                "intrinsic %{} must be lowered before code generation",
                i.name()
            ))),
        }
    }

    fn spec_tag(&self, rid: u32) -> Result<i32, CodegenError> {
        match self.shared.registry.info(rid).kind {
            RepKind::Pointer { tag, .. } => Ok(tag as i32),
            RepKind::Immediate { .. } => Err(CodegenError(format!(
                "specialized memory op on immediate representation `{}`",
                self.shared.registry.info(rid).name
            ))),
        }
    }
}

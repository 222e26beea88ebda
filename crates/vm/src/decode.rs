//! Pre-decoded instruction stream — the interpreter's hot-path form.
//!
//! [`crate::inst::Inst`] is the loadable, inspectable format: some variants
//! carry `Vec<Reg>` operand lists and `RegImm` sums that would force the
//! dispatch loop to clone or re-match on every execution.  At load time
//! ([`crate::Machine::new`]) every function is decoded once into [`DInst`],
//! a flat `Copy` form:
//!
//! - operand lists live in one shared arena ([`DecodedProgram::args`]) and
//!   instructions carry an [`ArgSpan`] (offset + length) into it;
//! - `RegImm` operands are split into distinct register/immediate variants
//!   so the loop never re-discriminates them;
//! - representation facts that are fixed at load time (the pointer tag for
//!   an `AllocFill` rep, the closure role's tag and encoded code word) are
//!   resolved here, off the hot path.
//!
//! The interpreter then fetches instructions by value: zero per-step heap
//! allocation and no borrows of the program during execution.

use crate::error::{VmError, VmErrorKind};
use crate::heap::Word;
use crate::inst::{BinOp, CmpOp, CodeProgram, Inst, InstClass, Reg, RegImm, RepVmOp};
use sxr_ir::rep::{RepId, RepKind, RepRegistry};

/// A span into the shared operand arena ([`DecodedProgram::args`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArgSpan {
    /// First operand's index in the arena.
    pub off: u32,
    /// Number of operands.
    pub len: u16,
}

/// One pre-decoded instruction.  Everything is `Copy`; executing a `DInst`
/// never touches the allocator.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DInst {
    Const {
        d: Reg,
        imm: Word,
    },
    Pool {
        d: Reg,
        idx: u32,
    },
    Move {
        d: Reg,
        s: Reg,
    },
    Bin {
        op: BinOp,
        d: Reg,
        a: Reg,
        b: Reg,
    },
    BinI {
        op: BinOp,
        d: Reg,
        a: Reg,
        imm: i64,
    },
    LoadD {
        d: Reg,
        p: Reg,
        disp: i64,
    },
    LoadX {
        d: Reg,
        p: Reg,
        x: Reg,
        disp: i64,
    },
    StoreD {
        p: Reg,
        disp: i64,
        s: Reg,
    },
    StoreX {
        p: Reg,
        x: Reg,
        disp: i64,
        s: Reg,
    },
    /// `AllocFill` with a static length; `tag` pre-resolved from the rep.
    AllocImm {
        d: Reg,
        len: u32,
        fill: Reg,
        rep: u16,
        tag: u64,
    },
    /// `AllocFill` with the length in a register.
    AllocReg {
        d: Reg,
        len: Reg,
        fill: Reg,
        rep: u16,
        tag: u64,
    },
    Jump {
        t: u32,
    },
    JumpCmpRR {
        op: CmpOp,
        a: Reg,
        b: Reg,
        t: u32,
    },
    JumpCmpRI {
        op: CmpOp,
        a: Reg,
        imm: i64,
        t: u32,
    },
    GlobalGet {
        d: Reg,
        g: u32,
    },
    GlobalSet {
        g: u32,
        s: Reg,
    },
    /// `tag` and `code` (the encoded fixnum holding the function id) are
    /// resolved at decode time from the closure/fixnum roles.
    MakeClosure {
        d: Reg,
        free: ArgSpan,
        tag: u64,
        code: Word,
    },
    ClosureSet {
        clo: Reg,
        idx: u32,
        val: Reg,
    },
    Call {
        d: Reg,
        f: Reg,
        args: ArgSpan,
    },
    CallKnown {
        d: Reg,
        f: u32,
        clo: Reg,
        args: ArgSpan,
    },
    TailCall {
        f: Reg,
        args: ArgSpan,
    },
    TailCallKnown {
        f: u32,
        clo: Reg,
        args: ArgSpan,
    },
    Ret {
        s: Reg,
    },
    Rep {
        op: RepVmOp,
        d: Reg,
        args: ArgSpan,
    },
    Intern {
        d: Reg,
        s: Reg,
    },
    WriteChar {
        s: Reg,
    },
    ErrorOp {
        s: Reg,
    },
    PushHandler {
        h: Reg,
        d: Reg,
        t: u32,
    },
    PopHandler,
    RaiseOp {
        s: Reg,
    },
    ResetCounters,
}

impl DInst {
    /// The reporting class (mirrors [`Inst::class`]).
    pub fn class(self) -> InstClass {
        match self {
            DInst::Const { .. } | DInst::Move { .. } | DInst::Bin { .. } | DInst::BinI { .. } => {
                InstClass::Arith
            }
            DInst::LoadD { .. }
            | DInst::LoadX { .. }
            | DInst::StoreD { .. }
            | DInst::StoreX { .. }
            | DInst::ClosureSet { .. } => InstClass::Memory,
            DInst::Jump { .. } | DInst::JumpCmpRR { .. } | DInst::JumpCmpRI { .. } => {
                InstClass::Branch
            }
            DInst::Call { .. }
            | DInst::CallKnown { .. }
            | DInst::TailCall { .. }
            | DInst::TailCallKnown { .. }
            | DInst::Ret { .. } => InstClass::Call,
            DInst::AllocImm { .. } | DInst::AllocReg { .. } | DInst::MakeClosure { .. } => {
                InstClass::Alloc
            }
            DInst::Rep { .. } => InstClass::RepGeneric,
            DInst::Pool { .. }
            | DInst::GlobalGet { .. }
            | DInst::GlobalSet { .. }
            | DInst::Intern { .. }
            | DInst::WriteChar { .. }
            | DInst::ErrorOp { .. }
            | DInst::PushHandler { .. }
            | DInst::PopHandler
            | DInst::RaiseOp { .. }
            | DInst::ResetCounters => InstClass::Misc,
        }
    }
}

/// One function's hot-path data: the decoded code plus the frame facts the
/// call path needs without chasing the loadable program.
#[derive(Debug)]
pub(crate) struct DecodedFun {
    pub arity: usize,
    pub variadic: bool,
    pub nregs: usize,
    pub insts: Vec<DInst>,
}

/// The whole program in pre-decoded form.
#[derive(Debug)]
pub(crate) struct DecodedProgram {
    pub funs: Vec<DecodedFun>,
    /// Shared operand arena; indexed via [`ArgSpan`].
    pub args: Vec<Reg>,
}

/// Resolves the pointer tag of `rep`, or reports which instruction wanted
/// it to be a pointer.
fn pointer_tag(registry: &RepRegistry, rep: RepId, what: &str) -> Result<u64, VmError> {
    match registry.info(rep).kind {
        RepKind::Pointer { tag, .. } => Ok(tag),
        RepKind::Immediate { .. } => Err(VmError::new(
            VmErrorKind::BadProgram,
            format!(
                "{what} of immediate representation `{}`",
                registry.info(rep).name
            ),
        )),
    }
}

/// Number of operands each generic representation operation consumes from
/// its argument list (the machine reads the arena by this count, so decode
/// validates it up front and the reads never go out of bounds).
pub(crate) fn rep_op_arity(op: RepVmOp) -> usize {
    match op {
        RepVmOp::MakeImm => 4,
        RepVmOp::MakePtr => 3,
        RepVmOp::Provide | RepVmOp::Inject | RepVmOp::Project | RepVmOp::Test | RepVmOp::Len => 2,
        RepVmOp::Alloc | RepVmOp::Ref => 3,
        RepVmOp::Set => 4,
    }
}

/// Structural validation of one loadable instruction: every register field
/// is inside the function's frame, every pool/global/function/`RepId` index
/// is in bounds, and generic rep operations carry the operand count the
/// interpreter will read.  These used to be debug-only assumptions (release
/// builds would panic on out-of-range indexing); they are hard load errors
/// in all builds now, so the checked interpreter loop never panics on
/// adversarial programs.
fn validate_inst(
    program: &CodeProgram,
    registry: &RepRegistry,
    fun_name: &str,
    nregs: usize,
    inst: &Inst,
) -> Result<(), VmError> {
    let bad = |what: String| {
        Err(VmError::new(
            VmErrorKind::BadProgram,
            format!("`{fun_name}`: {what}"),
        ))
    };
    let reg = |r: Reg| -> Result<(), VmError> {
        if (r as usize) < nregs {
            Ok(())
        } else {
            bad(format!("register r{r} out of range (frame has {nregs})"))
        }
    };
    let regs = |list: &[Reg]| -> Result<(), VmError> { list.iter().copied().try_for_each(&reg) };
    let reg_imm = |ri: &RegImm| -> Result<(), VmError> {
        match ri {
            RegImm::Reg(r) => reg(*r),
            RegImm::Imm(_) => Ok(()),
        }
    };
    let pool = |idx: u32| -> Result<(), VmError> {
        if (idx as usize) < program.pool.len() {
            Ok(())
        } else {
            bad(format!(
                "pool index {idx} out of range (pool has {})",
                program.pool.len()
            ))
        }
    };
    let global = |g: u32| -> Result<(), VmError> {
        if (g as usize) < program.nglobals {
            Ok(())
        } else {
            bad(format!(
                "global {g} out of range ({} globals)",
                program.nglobals
            ))
        }
    };
    let fnid = |f: u32| -> Result<(), VmError> {
        if (f as usize) < program.funs.len() {
            Ok(())
        } else {
            bad(format!(
                "function id {f} out of range ({} functions)",
                program.funs.len()
            ))
        }
    };
    match inst {
        Inst::Const { d, .. } => reg(*d),
        Inst::Pool { d, idx } => reg(*d).and_then(|()| pool(*idx)),
        Inst::Move { d, s } => reg(*d).and_then(|()| reg(*s)),
        Inst::Bin { d, a, b, .. } => regs(&[*d, *a, *b]),
        Inst::BinI { d, a, .. } => regs(&[*d, *a]),
        Inst::LoadD { d, p, .. } => regs(&[*d, *p]),
        Inst::LoadX { d, p, x, .. } => regs(&[*d, *p, *x]),
        Inst::StoreD { p, s, .. } => regs(&[*p, *s]),
        Inst::StoreX { p, x, s, .. } => regs(&[*p, *x, *s]),
        Inst::AllocFill { d, len, fill, rep } => {
            reg(*d)?;
            reg_imm(len)?;
            reg(*fill)?;
            if (*rep as usize) >= registry.len() {
                return bad(format!("alloc of unknown representation id {rep}"));
            }
            Ok(())
        }
        Inst::Jump { .. } => Ok(()),
        Inst::JumpCmp { a, b, .. } => reg(*a).and_then(|()| reg_imm(b)),
        Inst::GlobalGet { d, g } => reg(*d).and_then(|()| global(*g)),
        Inst::GlobalSet { g, s } => reg(*s).and_then(|()| global(*g)),
        Inst::MakeClosure { d, f, free } => {
            reg(*d)?;
            fnid(*f)?;
            regs(free)
        }
        Inst::ClosureSet { clo, val, .. } => regs(&[*clo, *val]),
        Inst::Call { d, f, args } => {
            regs(&[*d, *f])?;
            regs(args)
        }
        Inst::CallKnown { d, f, clo, args } => {
            regs(&[*d, *clo])?;
            fnid(*f)?;
            regs(args)
        }
        Inst::TailCall { f, args } => {
            reg(*f)?;
            regs(args)
        }
        Inst::TailCallKnown { f, clo, args } => {
            reg(*clo)?;
            fnid(*f)?;
            regs(args)
        }
        Inst::Ret { s } => reg(*s),
        Inst::Rep { op, d, args } => {
            reg(*d)?;
            regs(args)?;
            let need = rep_op_arity(*op);
            if args.len() != need {
                return bad(format!(
                    "rep operation {op:?} takes {need} operands, got {}",
                    args.len()
                ));
            }
            Ok(())
        }
        Inst::Intern { d, s } => regs(&[*d, *s]),
        Inst::WriteChar { s } | Inst::ErrorOp { s } | Inst::RaiseOp { s } => reg(*s),
        Inst::PushHandler { h, d, .. } => regs(&[*h, *d]),
        Inst::PopHandler | Inst::ResetCounters => Ok(()),
    }
}

/// Decodes `program` against its (load-time) registry.  `closure_tag` and
/// the fixnum role come from the machine's role cache; they are fixed for
/// the life of the machine.
///
/// # Errors
///
/// Returns [`VmErrorKind::BadProgram`] for instructions that could never
/// execute successfully: an `AllocFill` of an immediate representation or
/// with a negative static length, any out-of-range register, pool, global,
/// function, or representation index, or a generic rep operation with the
/// wrong operand count (see [`validate_inst`]).
pub(crate) fn decode_program(
    program: &CodeProgram,
    registry: &RepRegistry,
    closure_tag: u64,
    fixnum: RepId,
) -> Result<DecodedProgram, VmError> {
    let mut args: Vec<Reg> = Vec::new();
    let mut span = |list: &[Reg]| -> ArgSpan {
        let off = args.len() as u32;
        args.extend_from_slice(list);
        ArgSpan {
            off,
            len: list.len() as u16,
        }
    };
    if (program.main as usize) >= program.funs.len() {
        return Err(VmError::new(
            VmErrorKind::BadProgram,
            format!("main function id {} out of range", program.main),
        ));
    }
    let mut funs = Vec::with_capacity(program.funs.len());
    for fun in &program.funs {
        // The frame must hold the closure register plus every parameter
        // (and the rest-list register of a variadic function): frame
        // construction writes them unconditionally.
        let min_regs = 1 + fun.arity + usize::from(fun.variadic);
        if fun.nregs < min_regs {
            return Err(VmError::new(
                VmErrorKind::BadProgram,
                format!(
                    "`{}`: frame of {} registers cannot hold {} parameters",
                    fun.name, fun.nregs, min_regs
                ),
            ));
        }
        let mut insts = Vec::with_capacity(fun.insts.len());
        for inst in &fun.insts {
            validate_inst(program, registry, &fun.name, fun.nregs, inst)?;
            let d = match inst {
                Inst::Const { d, imm } => DInst::Const { d: *d, imm: *imm },
                Inst::Pool { d, idx } => DInst::Pool { d: *d, idx: *idx },
                Inst::Move { d, s } => DInst::Move { d: *d, s: *s },
                Inst::Bin { op, d, a, b } => DInst::Bin {
                    op: *op,
                    d: *d,
                    a: *a,
                    b: *b,
                },
                Inst::BinI { op, d, a, imm } => DInst::BinI {
                    op: *op,
                    d: *d,
                    a: *a,
                    imm: *imm as i64,
                },
                Inst::LoadD { d, p, disp } => DInst::LoadD {
                    d: *d,
                    p: *p,
                    disp: *disp as i64,
                },
                Inst::LoadX { d, p, x, disp } => DInst::LoadX {
                    d: *d,
                    p: *p,
                    x: *x,
                    disp: *disp as i64,
                },
                Inst::StoreD { p, disp, s } => DInst::StoreD {
                    p: *p,
                    disp: *disp as i64,
                    s: *s,
                },
                Inst::StoreX { p, x, disp, s } => DInst::StoreX {
                    p: *p,
                    x: *x,
                    disp: *disp as i64,
                    s: *s,
                },
                Inst::AllocFill { d, len, fill, rep } => {
                    let tag = pointer_tag(registry, *rep, "alloc")?;
                    match len {
                        RegImm::Imm(n) => {
                            if *n < 0 {
                                return Err(VmError::new(
                                    VmErrorKind::BadProgram,
                                    format!("`{}`: allocation of {n} fields", fun.name),
                                ));
                            }
                            DInst::AllocImm {
                                d: *d,
                                len: *n as u32,
                                fill: *fill,
                                rep: *rep as u16,
                                tag,
                            }
                        }
                        RegImm::Reg(r) => DInst::AllocReg {
                            d: *d,
                            len: *r,
                            fill: *fill,
                            rep: *rep as u16,
                            tag,
                        },
                    }
                }
                Inst::Jump { t } => DInst::Jump { t: *t },
                Inst::JumpCmp { op, a, b, t } => match b {
                    RegImm::Reg(r) => DInst::JumpCmpRR {
                        op: *op,
                        a: *a,
                        b: *r,
                        t: *t,
                    },
                    RegImm::Imm(i) => DInst::JumpCmpRI {
                        op: *op,
                        a: *a,
                        imm: *i as i64,
                        t: *t,
                    },
                },
                Inst::GlobalGet { d, g } => DInst::GlobalGet { d: *d, g: *g },
                Inst::GlobalSet { g, s } => DInst::GlobalSet { g: *g, s: *s },
                Inst::MakeClosure { d, f, free } => DInst::MakeClosure {
                    d: *d,
                    free: span(free),
                    tag: closure_tag,
                    code: registry.encode_immediate(fixnum, *f as i64),
                },
                Inst::ClosureSet { clo, idx, val } => DInst::ClosureSet {
                    clo: *clo,
                    idx: *idx,
                    val: *val,
                },
                Inst::Call { d, f, args } => DInst::Call {
                    d: *d,
                    f: *f,
                    args: span(args),
                },
                Inst::CallKnown { d, f, clo, args } => DInst::CallKnown {
                    d: *d,
                    f: *f,
                    clo: *clo,
                    args: span(args),
                },
                Inst::TailCall { f, args } => DInst::TailCall {
                    f: *f,
                    args: span(args),
                },
                Inst::TailCallKnown { f, clo, args } => DInst::TailCallKnown {
                    f: *f,
                    clo: *clo,
                    args: span(args),
                },
                Inst::Ret { s } => DInst::Ret { s: *s },
                Inst::Rep { op, d, args } => DInst::Rep {
                    op: *op,
                    d: *d,
                    args: span(args),
                },
                Inst::Intern { d, s } => DInst::Intern { d: *d, s: *s },
                Inst::WriteChar { s } => DInst::WriteChar { s: *s },
                Inst::ErrorOp { s } => DInst::ErrorOp { s: *s },
                Inst::PushHandler { h, d, t } => DInst::PushHandler {
                    h: *h,
                    d: *d,
                    t: *t,
                },
                Inst::PopHandler => DInst::PopHandler,
                Inst::RaiseOp { s } => DInst::RaiseOp { s: *s },
                Inst::ResetCounters => DInst::ResetCounters,
            };
            insts.push(d);
        }
        funs.push(DecodedFun {
            arity: fun.arity,
            variadic: fun.variadic,
            nregs: fun.nregs,
            insts,
        });
    }
    Ok(DecodedProgram { funs, args })
}

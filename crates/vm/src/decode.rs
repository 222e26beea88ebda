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
//!
//! Decoding refuses nothing.  Whether a program is loadable is decided
//! once, by [`crate::check_structure`], before the machine decodes it.

use crate::heap::Word;
use crate::inst::{BinOp, CmpOp, CodeProgram, Inst, InstClass, Reg, RegImm, RepVmOp};
use sxr_ir::rep::{RepId, RepKind, RepRegistry};

/// A span into the shared operand arena ([`DecodedProgram::args`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArgSpan {
    /// First operand's index in the arena.
    pub off: u32,
    /// Number of operands.
    pub len: u32,
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
    /// The reporting class the dynamic counters file this instruction
    /// under.
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

/// Decodes `program` against its (load-time) registry.  `closure_tag` and
/// the fixnum role come from the machine's role cache; they are fixed for
/// the life of the machine.
///
/// This is a pure translation: the program must already have passed
/// [`crate::check_structure`], which proves every index the decoded form
/// and the interpreter rely on.
pub(crate) fn decode_program(
    program: &CodeProgram,
    registry: &RepRegistry,
    closure_tag: u64,
    fixnum: RepId,
) -> DecodedProgram {
    let mut args: Vec<Reg> = Vec::new();
    let mut span = |list: &[Reg]| -> ArgSpan {
        let off = args.len() as u32;
        args.extend_from_slice(list);
        ArgSpan {
            off,
            len: list.len() as u32,
        }
    };
    let mut funs = Vec::with_capacity(program.funs.len());
    for fun in &program.funs {
        let mut insts = Vec::with_capacity(fun.insts.len());
        for inst in &fun.insts {
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
                    let RepKind::Pointer { tag, .. } = registry.info(*rep).kind else {
                        unreachable!("the structural check admits only pointer allocations");
                    };
                    match len {
                        RegImm::Imm(n) => DInst::AllocImm {
                            d: *d,
                            len: *n as u32,
                            fill: *fill,
                            rep: *rep as u16,
                            tag,
                        },
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
    DecodedProgram { funs, args }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::CodeFun;

    /// The class the counters file `inst` under once it is decoded.
    fn class(inst: Inst) -> InstClass {
        let mut registry = RepRegistry::new();
        let fixnum = registry.intern_immediate("fixnum", 3, 0, 3).unwrap();
        let program = CodeProgram {
            funs: vec![CodeFun {
                insts: vec![inst],
                ..CodeFun::default()
            }],
            ..CodeProgram::default()
        };
        decode_program(&program, &registry, 0b111, fixnum).funs[0].insts[0].class()
    }

    #[test]
    fn classes() {
        assert_eq!(class(Inst::Const { d: 0, imm: 1 }), InstClass::Arith);
        assert_eq!(
            class(Inst::LoadD {
                d: 0,
                p: 0,
                disp: 7
            }),
            InstClass::Memory
        );
        assert_eq!(class(Inst::Jump { t: 0 }), InstClass::Branch);
        assert_eq!(class(Inst::Ret { s: 0 }), InstClass::Call);
        assert_eq!(
            class(Inst::PushHandler { h: 0, d: 0, t: 0 }),
            InstClass::Misc
        );
        assert_eq!(class(Inst::PopHandler), InstClass::Misc);
        assert_eq!(class(Inst::RaiseOp { s: 0 }), InstClass::Misc);
        assert_eq!(
            class(Inst::Rep {
                op: RepVmOp::Ref,
                d: 0,
                args: vec![]
            }),
            InstClass::RepGeneric
        );
    }
}

//! The virtual machine's instruction set.
//!
//! A register machine over 64-bit tagged words.  The set is deliberately
//! close to what a RISC code generator would emit — loads/stores with a
//! displacement (so tag subtraction folds into addressing), compare-and-
//! branch fusions, and immediate operand forms — so that *instruction
//! counts* are a meaningful proxy for generated-code quality.
//!
//! The `Rep` instruction family is the run-time (generic, dynamically
//! dispatched) face of the first-class representation-type facility; the
//! optimizer's job in the paper is to make these disappear from hot code.

use sxr_ir::rep::RepId;
use sxr_ir::FnId;

/// A virtual register index within the current frame.
pub type Reg = u16;

/// Two-operand ALU operations. `CmpEq`/`CmpLt` produce raw 0/1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Quot,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    CmpEq,
    CmpLt,
}

/// Branch comparison kinds (fused compare-and-branch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Ge,
}

/// A register or a small immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegImm {
    /// Operand in a register.
    Reg(Reg),
    /// Immediate operand.
    Imm(i32),
}

/// Generic representation-type operations (the run-time slow path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum RepVmOp {
    MakeImm,
    MakePtr,
    Provide,
    Inject,
    Project,
    Test,
    Alloc,
    Ref,
    Set,
    Len,
}

/// One VM instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// `d <- imm` (an already-encoded tagged word or raw word).
    Const { d: Reg, imm: i64 },
    /// `d <- pool[idx]` (heap constants built by the loader).
    Pool { d: Reg, idx: u32 },
    /// `d <- s`.
    Move { d: Reg, s: Reg },
    /// `d <- a op b`.
    Bin { op: BinOp, d: Reg, a: Reg, b: Reg },
    /// `d <- a op imm`.
    BinI { op: BinOp, d: Reg, a: Reg, imm: i32 },
    /// `d <- heap[(p + disp) >> 3]` — displacement addressing folds the tag.
    LoadD { d: Reg, p: Reg, disp: i32 },
    /// `d <- heap[(p + x + disp) >> 3]` — indexed addressing.
    LoadX { d: Reg, p: Reg, x: Reg, disp: i32 },
    /// `heap[(p + disp) >> 3] <- s`.
    StoreD { p: Reg, disp: i32, s: Reg },
    /// `heap[(p + x + disp) >> 3] <- s`.
    StoreX { p: Reg, x: Reg, disp: i32, s: Reg },
    /// Allocate an object of representation `rep` with `len` fields, all
    /// initialized to `fill`; `d` receives the tagged pointer.
    AllocFill {
        d: Reg,
        len: RegImm,
        fill: Reg,
        rep: RepId,
    },
    /// Unconditional jump to instruction index `t`.
    Jump { t: u32 },
    /// `if a cmp b goto t` (b may be an immediate).
    JumpCmp {
        op: CmpOp,
        a: Reg,
        b: RegImm,
        t: u32,
    },
    /// `d <- globals[g]`.
    GlobalGet { d: Reg, g: u32 },
    /// `globals[g] <- s`.
    GlobalSet { g: u32, s: Reg },
    /// Allocate a closure over function `f` capturing `free`.
    MakeClosure { d: Reg, f: FnId, free: Vec<Reg> },
    /// Overwrite free slot `idx` of closure `clo` (letrec patching).
    ClosureSet { clo: Reg, idx: u32, val: Reg },
    /// Indirect call through a closure value.
    Call { d: Reg, f: Reg, args: Vec<Reg> },
    /// Direct call to a known function (`clo` becomes the callee's closure
    /// register).
    CallKnown {
        d: Reg,
        f: FnId,
        clo: Reg,
        args: Vec<Reg>,
    },
    /// Indirect tail call.
    TailCall { f: Reg, args: Vec<Reg> },
    /// Direct tail call.
    TailCallKnown { f: FnId, clo: Reg, args: Vec<Reg> },
    /// Return `s` to the caller.
    Ret { s: Reg },
    /// Generic representation operation (dynamic dispatch on the rep-type
    /// argument in `args[0]`, except `MakeImm`/`MakePtr`).
    Rep { op: RepVmOp, d: Reg, args: Vec<Reg> },
    /// Intern the string in `s`; `d` receives the canonical symbol.
    Intern { d: Reg, s: Reg },
    /// Append the character in `s` to the output port.
    WriteChar { s: Reg },
    /// Raise a runtime error carrying the value in `s`.
    ErrorOp { s: Reg },
    /// Install a trap handler: if a recoverable trap fires while this
    /// frame (or any callee) runs, the stack unwinds back here, the closure
    /// in `h` is called with the condition value, and its result lands in
    /// `d` with control resuming at instruction index `t`.
    PushHandler { h: Reg, d: Reg, t: u32 },
    /// Uninstall the most recent trap handler (normal exit of the
    /// protected extent).
    PopHandler,
    /// Raise the value in `s` as a condition, delivering it to the nearest
    /// handler (terminal `UncaughtCondition` error when none exists).
    RaiseOp { s: Reg },
    /// Reset the dynamic instruction counters (measurement support; not
    /// itself counted).
    ResetCounters,
}

/// Coarse classification for reporting (Table 2 breaks counts down by
/// class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// ALU and constant/move traffic.
    Arith,
    /// Loads and stores.
    Memory,
    /// Jumps and fused branches.
    Branch,
    /// Calls, returns, closure creation.
    Call,
    /// Allocation.
    Alloc,
    /// Generic (dynamically dispatched) representation operations.
    RepGeneric,
    /// Globals, interning, I/O, everything else.
    Misc,
}

impl InstClass {
    /// All classes, in report order.
    pub const ALL: [InstClass; 7] = [
        InstClass::Arith,
        InstClass::Memory,
        InstClass::Branch,
        InstClass::Call,
        InstClass::Alloc,
        InstClass::RepGeneric,
        InstClass::Misc,
    ];

    /// Short column label.
    pub fn label(self) -> &'static str {
        match self {
            InstClass::Arith => "alu",
            InstClass::Memory => "mem",
            InstClass::Branch => "br",
            InstClass::Call => "call",
            InstClass::Alloc => "alloc",
            InstClass::RepGeneric => "rep",
            InstClass::Misc => "misc",
        }
    }
}

impl RepVmOp {
    /// Number of operands the operation reads from its argument list.
    pub(crate) fn arity(self) -> usize {
        match self {
            RepVmOp::MakeImm | RepVmOp::Set => 4,
            RepVmOp::MakePtr | RepVmOp::Alloc | RepVmOp::Ref => 3,
            RepVmOp::Provide
            | RepVmOp::Inject
            | RepVmOp::Project
            | RepVmOp::Test
            | RepVmOp::Len => 2,
        }
    }
}

impl Inst {
    /// The reporting class the dynamic counters file this instruction
    /// under.
    pub fn class(&self) -> InstClass {
        match self {
            Inst::Const { .. } | Inst::Move { .. } | Inst::Bin { .. } | Inst::BinI { .. } => {
                InstClass::Arith
            }
            Inst::LoadD { .. }
            | Inst::LoadX { .. }
            | Inst::StoreD { .. }
            | Inst::StoreX { .. }
            | Inst::ClosureSet { .. } => InstClass::Memory,
            Inst::Jump { .. } | Inst::JumpCmp { .. } => InstClass::Branch,
            Inst::Call { .. }
            | Inst::CallKnown { .. }
            | Inst::TailCall { .. }
            | Inst::TailCallKnown { .. }
            | Inst::Ret { .. } => InstClass::Call,
            Inst::AllocFill { .. } | Inst::MakeClosure { .. } => InstClass::Alloc,
            Inst::Rep { .. } => InstClass::RepGeneric,
            Inst::Pool { .. }
            | Inst::GlobalGet { .. }
            | Inst::GlobalSet { .. }
            | Inst::Intern { .. }
            | Inst::WriteChar { .. }
            | Inst::ErrorOp { .. }
            | Inst::PushHandler { .. }
            | Inst::PopHandler
            | Inst::RaiseOp { .. }
            | Inst::ResetCounters => InstClass::Misc,
        }
    }

    /// Calls `f` on every register operand, in field order.  This is the
    /// one list of each instruction's registers: the structural check
    /// bounds them against the frame from here.
    pub(crate) fn for_each_reg(&self, f: impl FnMut(Reg)) {
        let imm = |v: &RegImm| match v {
            RegImm::Reg(r) => Some(*r),
            RegImm::Imm(_) => None,
        };
        let (fixed, list): ([Option<Reg>; 3], &[Reg]) = match self {
            Inst::Const { d, .. } | Inst::Pool { d, .. } | Inst::GlobalGet { d, .. } => {
                ([Some(*d), None, None], &[])
            }
            Inst::Move { d, s: a }
            | Inst::BinI { d, a, .. }
            | Inst::LoadD { d, p: a, .. }
            | Inst::Intern { d, s: a } => ([Some(*d), Some(*a), None], &[]),
            Inst::Bin { d, a, b, .. } | Inst::LoadX { d, p: a, x: b, .. } => {
                ([Some(*d), Some(*a), Some(*b)], &[])
            }
            Inst::StoreD { p, s, .. }
            | Inst::ClosureSet { clo: p, val: s, .. }
            | Inst::PushHandler { h: p, d: s, .. } => ([Some(*p), Some(*s), None], &[]),
            Inst::StoreX { p, x, s, .. } => ([Some(*p), Some(*x), Some(*s)], &[]),
            Inst::AllocFill { d, len, fill, .. } => ([Some(*d), imm(len), Some(*fill)], &[]),
            Inst::JumpCmp { a, b, .. } => ([Some(*a), imm(b), None], &[]),
            Inst::GlobalSet { s, .. }
            | Inst::Ret { s }
            | Inst::WriteChar { s }
            | Inst::ErrorOp { s }
            | Inst::RaiseOp { s } => ([Some(*s), None, None], &[]),
            Inst::MakeClosure { d, free, .. } => ([Some(*d), None, None], free),
            Inst::Call { d, f, args }
            | Inst::CallKnown {
                d, clo: f, args, ..
            } => ([Some(*d), Some(*f), None], args),
            Inst::TailCall { f, args } | Inst::TailCallKnown { clo: f, args, .. } => {
                ([Some(*f), None, None], args)
            }
            Inst::Rep { d, args, .. } => ([Some(*d), None, None], args),
            Inst::Jump { .. } | Inst::PopHandler | Inst::ResetCounters => ([None; 3], &[]),
        };
        fixed
            .into_iter()
            .flatten()
            .chain(list.iter().copied())
            .for_each(f);
    }

    /// The static control-flow target (jump, branch, or handler resume
    /// point), if the instruction names one.
    pub fn target(&self) -> Option<u32> {
        match self {
            Inst::Jump { t } | Inst::JumpCmp { t, .. } | Inst::PushHandler { t, .. } => Some(*t),
            _ => None,
        }
    }

    /// The static control-flow target (jump, branch, or handler resume
    /// point), if the instruction names one, for patching.
    pub fn target_mut(&mut self) -> Option<&mut u32> {
        match self {
            Inst::Jump { t } | Inst::JumpCmp { t, .. } | Inst::PushHandler { t, .. } => Some(t),
            _ => None,
        }
    }
}

/// A compiled function.
#[derive(Debug, Clone, PartialEq)]
pub struct CodeFun {
    /// Diagnostic name.
    pub name: String,
    /// Number of declared (fixed) parameters.
    pub arity: usize,
    /// True when extra arguments are collected into a rest list (built via
    /// the library's `pair`/`null` representations).
    pub variadic: bool,
    /// Number of registers in a frame (at least [`CodeFun::entry_regs`];
    /// register 0 is the closure).
    pub nregs: usize,
    /// Number of closure free-variable slots.
    pub free_count: usize,
    /// The code.
    pub insts: Vec<Inst>,
    /// `ptr_map[r]` is true when register `r` may hold a *tagged* value (the
    /// precise-GC root map). Raw-word registers are skipped by the
    /// collector.
    pub ptr_map: Vec<bool>,
    /// `free_ptr_map[i]` is true when closure free slot `i` may hold a
    /// tagged value. Raw slots (untagged words the optimizer hoisted across
    /// a lambda) are skipped when the collector scans a closure of this
    /// function. Slots past the end of the map are conservatively scanned,
    /// so an empty map means "scan everything" (hand-built code).
    pub free_ptr_map: Vec<bool>,
}

impl CodeFun {
    /// Registers a call writes on entry: the closure, every parameter and,
    /// for a variadic function, the rest list.
    pub fn entry_regs(&self) -> usize {
        1 + self.arity + usize::from(self.variadic)
    }
}

/// An entry in the constant pool, materialized on the heap by the loader.
#[derive(Debug, Clone, PartialEq)]
pub enum PoolEntry {
    /// A quoted datum.
    Datum(sxr_sexp::Datum),
    /// A first-class representation-type object.
    Rep(RepId),
}

/// A complete loadable program.
#[derive(Debug, Clone, Default)]
pub struct CodeProgram {
    /// All functions; entry point is `main`.
    pub funs: Vec<CodeFun>,
    /// Entry function id.
    pub main: FnId,
    /// Constant pool.
    pub pool: Vec<PoolEntry>,
    /// Number of global slots.
    pub nglobals: usize,
    /// Global names (diagnostics).
    pub global_names: Vec<String>,
    /// The representation registry built at compile time (the library's
    /// layout decisions, which the loader and GC obey).
    pub registry: sxr_ir::rep::RepRegistry,
}

impl Default for CodeFun {
    fn default() -> Self {
        CodeFun {
            name: String::new(),
            arity: 0,
            variadic: false,
            nregs: 1,
            free_count: 0,
            insts: Vec::new(),
            ptr_map: vec![true],
            free_ptr_map: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes() {
        use InstClass::*;
        let (d, p, x, s, a, t) = (0, 1, 2, 3, 4, 0);
        let op = BinOp::Add;
        let cases = [
            (Inst::Const { d, imm: 1 }, Arith),
            (Inst::Move { d, s }, Arith),
            (Inst::Bin { op, d, a, b: s }, Arith),
            (Inst::BinI { op, d, a, imm: 8 }, Arith),
            (Inst::LoadD { d, p, disp: 7 }, Memory),
            (Inst::LoadX { d, p, x, disp: 7 }, Memory),
            (Inst::StoreD { p, disp: 7, s }, Memory),
            (Inst::StoreX { p, x, disp: 7, s }, Memory),
            (
                Inst::ClosureSet {
                    clo: p,
                    idx: 0,
                    val: s,
                },
                Memory,
            ),
            (Inst::Jump { t }, Branch),
            (
                Inst::JumpCmp {
                    op: CmpOp::Lt,
                    a,
                    b: RegImm::Reg(s),
                    t,
                },
                Branch,
            ),
            (
                Inst::JumpCmp {
                    op: CmpOp::Eq,
                    a,
                    b: RegImm::Imm(0),
                    t,
                },
                Branch,
            ),
            (
                Inst::Call {
                    d,
                    f: p,
                    args: vec![s],
                },
                Call,
            ),
            (
                Inst::CallKnown {
                    d,
                    f: 1,
                    clo: p,
                    args: vec![],
                },
                Call,
            ),
            (Inst::TailCall { f: p, args: vec![] }, Call),
            (
                Inst::TailCallKnown {
                    f: 1,
                    clo: p,
                    args: vec![s],
                },
                Call,
            ),
            (Inst::Ret { s }, Call),
            (
                Inst::AllocFill {
                    d,
                    len: RegImm::Imm(2),
                    fill: s,
                    rep: 0,
                },
                Alloc,
            ),
            (
                Inst::AllocFill {
                    d,
                    len: RegImm::Reg(x),
                    fill: s,
                    rep: 0,
                },
                Alloc,
            ),
            (
                Inst::MakeClosure {
                    d,
                    f: 1,
                    free: vec![s],
                },
                Alloc,
            ),
            (
                Inst::Rep {
                    op: RepVmOp::Ref,
                    d,
                    args: vec![p, x, s],
                },
                RepGeneric,
            ),
            (Inst::Pool { d, idx: 0 }, Misc),
            (Inst::GlobalGet { d, g: 0 }, Misc),
            (Inst::GlobalSet { g: 0, s }, Misc),
            (Inst::Intern { d, s }, Misc),
            (Inst::WriteChar { s }, Misc),
            (Inst::ErrorOp { s }, Misc),
            (Inst::PushHandler { h: p, d, t }, Misc),
            (Inst::PopHandler, Misc),
            (Inst::RaiseOp { s }, Misc),
            (Inst::ResetCounters, Misc),
        ];
        for (inst, class) in cases {
            assert_eq!(inst.class(), class, "{inst:?}");
        }
    }
}

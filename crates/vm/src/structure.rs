//! The structural contract between compiled code and the machine.
//!
//! The library's representation types own every layout decision; what the
//! machine itself insists on is small and fixed: the boot roles, the shape
//! of each instruction, and the index bounds that make every operand
//! addressable.  [`check_structure`] is the single statement of that
//! contract.  [`crate::Machine::new`] refuses a program on its first
//! finding, before anything else; the bytecode verifier in `sxr-analysis`
//! reports every finding under its own rule names and adds typing and
//! dataflow rules on top, so a verify-clean program is loadable by
//! construction.

use std::fmt;

use crate::inst::{CodeFun, CodeProgram, Inst, PoolEntry, RegImm};
use sxr_ir::rep::{roles, RepRegistry};

/// What is wrong with a [`Malformed`] program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MalformedKind {
    /// The entry function id is out of range.
    Main,
    /// A representation role the program needs is missing: the boot
    /// roles, `rep-type` for a pooled representation object, `pair`/`null`
    /// for a variadic function.
    Role,
    /// A constant-pool entry names an unknown representation.
    PoolRep,
    /// A function has no instructions.
    Empty,
    /// A frame too small for the closure, the parameters and the rest list.
    Frame,
    /// A register operand outside the function's frame.
    Reg,
    /// A jump, branch, or handler resume target outside the function.
    Target,
    /// A constant-pool index out of range.
    Pool,
    /// A global index out of range.
    Global,
    /// A call target or closure code id out of range.
    Fun,
    /// An allocation that could never run: unknown or immediate
    /// representation, or a negative static length.
    Alloc,
    /// A generic representation operation with the wrong operand count.
    RepOperands,
    /// A closure capturing a different number of values than its function
    /// declares free slots.
    Captures,
}

/// One structural problem, addressed by function and instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Malformed {
    /// The function at fault, or `None` for a program-level problem (entry
    /// id, boot roles, pool entries).
    pub fun: Option<u32>,
    /// Instruction offset within the function (0 for whole-function and
    /// program-level problems).
    pub pc: u32,
    /// What is wrong.
    pub kind: MalformedKind,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Malformed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.fun {
            Some(fun) => write!(f, "fun {fun} pc {}: {}", self.pc, self.detail),
            None => f.write_str(&self.detail),
        }
    }
}

/// Every structural problem of `program`, in (function, pc) order.
///
/// Program-level problems come first; when there are any, the functions
/// are not examined (their checks presuppose the boot roles).  A function
/// that is empty or whose frame is too small reports only that.  The check
/// allocates nothing for a well-formed program.
pub fn check_structure(program: &CodeProgram) -> Vec<Malformed> {
    let mut out = Vec::new();
    check_program(program, &mut out);
    if out.is_empty() {
        for (fid, fun) in program.funs.iter().enumerate() {
            check_fun(program, fid as u32, fun, &mut out);
        }
    }
    out
}

/// The roles the machine boots from.
const BOOT_ROLES: [&str; 4] = [
    roles::FIXNUM,
    roles::BOOLEAN,
    roles::UNSPECIFIED,
    roles::CLOSURE,
];

/// Why `role` cannot serve, if it cannot: it is missing.  Its kind needs
/// no check — the registry refuses a role of the wrong kind.
fn role_problem(registry: &RepRegistry, role: &str) -> Option<String> {
    registry
        .role(role)
        .is_none()
        .then(|| format!("library did not provide required representation role `{role}`"))
}

fn check_program(program: &CodeProgram, out: &mut Vec<Malformed>) {
    let registry = &program.registry;
    let mut bad = |kind, detail| {
        out.push(Malformed {
            fun: None,
            pc: 0,
            kind,
            detail,
        })
    };
    if (program.main as usize) >= program.funs.len() {
        return bad(
            MalformedKind::Main,
            format!(
                "main function id {} out of range ({} functions)",
                program.main,
                program.funs.len()
            ),
        );
    }
    for role in BOOT_ROLES {
        if let Some(detail) = role_problem(registry, role) {
            bad(MalformedKind::Role, detail);
        }
    }
    for (i, entry) in program.pool.iter().enumerate() {
        if let PoolEntry::Rep(rid) = entry {
            if (*rid as usize) >= registry.len() {
                bad(
                    MalformedKind::PoolRep,
                    format!("pool entry {i} references unknown representation id {rid}"),
                );
            } else if let Some(detail) = role_problem(registry, roles::REP_TYPE) {
                bad(MalformedKind::Role, detail);
            }
        }
    }
}

fn check_fun(program: &CodeProgram, fid: u32, fun: &CodeFun, out: &mut Vec<Malformed>) {
    let registry = &program.registry;
    let mut bad = |pc: usize, kind, detail| {
        out.push(Malformed {
            fun: Some(fid),
            pc: pc as u32,
            kind,
            detail,
        })
    };
    let len = fun.insts.len();
    if len == 0 {
        return bad(
            0,
            MalformedKind::Empty,
            "function has no instructions".into(),
        );
    }
    if fun.nregs < fun.entry_regs() {
        return bad(
            0,
            MalformedKind::Frame,
            format!(
                "frame of {} register(s) cannot hold closure + {} parameter(s){}",
                fun.nregs,
                fun.arity,
                if fun.variadic { " + rest list" } else { "" }
            ),
        );
    }
    if fun.variadic {
        for role in [roles::PAIR, roles::NULL] {
            if let Some(detail) = role_problem(registry, role) {
                bad(0, MalformedKind::Role, format!("variadic entry: {detail}"));
            }
        }
    }
    let fun_oob = |f: u32| {
        format!(
            "function id {f} out of range ({} functions)",
            program.funs.len()
        )
    };
    for (pc, inst) in fun.insts.iter().enumerate() {
        inst.for_each_reg(|r| {
            if (r as usize) >= fun.nregs {
                bad(
                    pc,
                    MalformedKind::Reg,
                    format!("register r{r} out of range (frame has {})", fun.nregs),
                );
            }
        });
        if let Some(t) = inst.target().filter(|&t| (t as usize) >= len) {
            bad(
                pc,
                MalformedKind::Target,
                format!("target {t} out of range (function has {len} instructions)"),
            );
        }
        match inst {
            Inst::Pool { idx, .. } if (*idx as usize) >= program.pool.len() => bad(
                pc,
                MalformedKind::Pool,
                format!(
                    "pool index {idx} out of range (pool has {})",
                    program.pool.len()
                ),
            ),
            Inst::GlobalGet { g, .. } | Inst::GlobalSet { g, .. }
                if (*g as usize) >= program.nglobals =>
            {
                bad(
                    pc,
                    MalformedKind::Global,
                    format!("global {g} out of range ({} globals)", program.nglobals),
                )
            }
            Inst::MakeClosure { f, free, .. } => match program.funs.get(*f as usize) {
                None => bad(pc, MalformedKind::Fun, fun_oob(*f)),
                Some(target) if free.len() != target.free_count => bad(
                    pc,
                    MalformedKind::Captures,
                    format!(
                        "closure captures {} value(s) but `{}` declares {} free slot(s)",
                        free.len(),
                        target.name,
                        target.free_count
                    ),
                ),
                Some(_) => {}
            },
            Inst::CallKnown { f, .. } | Inst::TailCallKnown { f, .. }
                if (*f as usize) >= program.funs.len() =>
            {
                bad(pc, MalformedKind::Fun, fun_oob(*f))
            }
            Inst::AllocFill { len, rep, .. } => {
                if (*rep as usize) >= registry.len() {
                    bad(
                        pc,
                        MalformedKind::Alloc,
                        format!("alloc of unknown representation id {rep}"),
                    );
                } else if !registry.info(*rep).is_pointer() {
                    bad(
                        pc,
                        MalformedKind::Alloc,
                        format!(
                            "alloc of immediate representation `{}`",
                            registry.info(*rep).name
                        ),
                    );
                }
                if let RegImm::Imm(n) = *len {
                    if n < 0 {
                        bad(
                            pc,
                            MalformedKind::Alloc,
                            format!("allocation of {n} fields"),
                        );
                    }
                }
            }
            Inst::Rep { op, args, .. } if args.len() != op.arity() => bad(
                pc,
                MalformedKind::RepOperands,
                format!(
                    "rep operation {op:?} takes {} operands, got {}",
                    op.arity(),
                    args.len()
                ),
            ),
            _ => {}
        }
    }
}

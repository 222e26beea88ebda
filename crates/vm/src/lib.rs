//! The `sxr` virtual machine: a tagged-word register machine with a
//! two-space copying collector and exact instruction accounting.
//!
//! The VM stands in for the SchemeXerox native back end (see DESIGN.md §5):
//! instruction counts over this machine are the reproduction's proxy for
//! generated-code quality. Two properties matter:
//!
//! 1. **Representation ignorance.** The machine hardwires *no* data-type
//!    layout. Literals, the GC's pointer test, `if`'s false value, closure
//!    tags — all flow from the representation registry built by *library*
//!    code. The only structural knowledge is the object header format and
//!    the closure record shape (code index in field 0), mirroring the
//!    paper's split where procedures remain compiler territory.
//! 2. **Deterministic counting.** Instruction counts are independent of
//!    heap size or GC schedule; GC work is reported separately.
//!
//! # Example
//!
//! ```
//! use sxr_vm::{BinOp, CodeFun, CodeProgram, Inst, Machine, MachineConfig};
//! use sxr_ir::rep::RepRegistry;
//!
//! // A library would normally build this registry; tests do it by hand.
//! let mut reg = RepRegistry::new();
//! let fx = reg.intern_immediate("fixnum", 3, 0, 3).unwrap();
//! let bo = reg.intern_immediate("boolean", 8, 0b010, 8).unwrap();
//! let un = reg.intern_immediate("unspecified", 8, 0b0001_0010, 8).unwrap();
//! let clo = reg.intern_pointer("closure", 0b111, false).unwrap();
//! for (role, id) in [("fixnum", fx), ("boolean", bo), ("unspecified", un), ("closure", clo)] {
//!     reg.provide_role(role, id).unwrap();
//! }
//! let main = CodeFun {
//!     name: "main".into(),
//!     arity: 0,
//!     variadic: false,
//!     nregs: 3,
//!     free_count: 0,
//!     insts: vec![
//!         Inst::Const { d: 1, imm: reg.encode_immediate(fx, 20) },
//!         Inst::Bin { op: BinOp::Add, d: 2, a: 1, b: 1 },
//!         Inst::Ret { s: 2 },
//!     ],
//!     ptr_map: vec![true, true, true],
//!     free_ptr_map: vec![],
//! };
//! let prog = CodeProgram { funs: vec![main], main: 0, pool: vec![], nglobals: 0,
//!                          global_names: vec![], registry: reg };
//! let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
//! let w = m.run().unwrap();
//! assert_eq!(m.describe(w), "40");
//! ```

#![forbid(unsafe_code)]

mod counters;
mod encode;
mod error;
mod fault;
mod heap;
mod inst;
mod machine;
mod structure;

pub use counters::Counters;
pub use encode::{describe as describe_word, encode_datum, words_needed};
pub use error::{OomPhase, VmError, VmErrorKind};
pub use fault::{ChaosRng, FaultPlan};
pub use heap::{grow_target, header, header_len, header_type, ClosureScan, Heap, Word};
pub use inst::{
    BinOp, CmpOp, CodeFun, CodeProgram, Inst, InstClass, PoolEntry, Reg, RegImm, RepVmOp,
};
pub use machine::{
    Machine, MachineConfig, StepResult, SuspendReason, VerifierHook, DEFAULT_MAX_DEPTH,
};
pub use structure::{check_structure, Malformed, MalformedKind};

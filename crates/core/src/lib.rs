//! `sxr` — a reproduction of *First-Class Data-Type Representations in
//! SchemeXerox* (Adams, Curtis & Spreitzer, PLDI 1993).
//!
//! In this system the compiler has almost no knowledge of primitive data
//! types.  The tagging scheme, the layouts of pairs / vectors / strings /
//! symbols, and every primitive operation (`car`, `fx+`, `vector-ref`, …)
//! are defined by *ordinary library code* over first-class **representation
//! types** ([`sxr_ir::rep`]).  A handful of generally-useful optimizations
//! (inlining, constant propagation, representation specialization,
//! known-bits algebraic simplification, CSE, DCE — see [`sxr_opt`]) make
//! that abstract code compile to the same instructions a conventional
//! compiler's hand-written primitive templates produce.
//!
//! Three pipeline configurations make the claim measurable:
//!
//! * [`PipelineConfig::abstract_optimized`] — the paper's system,
//! * [`PipelineConfig::traditional`] — hand-written intrinsic expansions,
//! * [`PipelineConfig::abstract_unoptimized`] — the abstraction without the
//!   optimizer.
//!
//! # Quick start
//!
//! ```
//! use sxr::{Compiler, PipelineConfig};
//!
//! let compiler = Compiler::new(PipelineConfig::abstract_optimized());
//! let compiled = compiler
//!     .compile("(define (square x) (fx* x x)) (display (square 7))")
//!     .unwrap();
//! let outcome = compiled.run().unwrap();
//! assert_eq!(outcome.output, "49");
//! ```

#![forbid(unsafe_code)]

mod config;
mod error;
pub mod lint;
mod pipeline;
pub mod report;

pub use config::{PipelineConfig, PrimitiveMode};
pub use error::CompileError;
pub use lint::{lint_bytecode, lint_source, LintDiagnostic, LintReport};
pub use pipeline::{
    Compiled, Compiler, Outcome, LIBRARY_SCM, PRIMS_ABSTRACT_CHECKED_SCM, PRIMS_ABSTRACT_SCM,
    PRIMS_TRADITIONAL_SCM, REPS_SCM,
};

// Re-exports for downstream tools (benches, examples).
pub use sxr_analysis::{DiagClass, Diagnostic, Severity};
pub use sxr_opt::{OptOptions, OptReport};
pub use sxr_vm::{
    ChaosRng, Counters, FaultPlan, InstClass, OomPhase, StepResult, SuspendReason, VmError,
    VmErrorKind,
};

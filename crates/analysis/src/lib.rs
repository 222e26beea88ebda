//! Static analysis for the `sxr` SchemeXerox reproduction.
//!
//! Two facilities live here:
//!
//! 1. a **rep-safety abstract interpreter** ([`analyze_module`]) — a forward
//!    dataflow analysis over closure-converted ANF with a tag-set lattice
//!    seeded from the representation registry.  It flags *provable* misuse
//!    of the first-class representation facility: projections through a
//!    representation the value cannot have, raw memory access on values that
//!    are provably immediates, constant field indices outside a known
//!    allocation, and representation tests whose outcome is statically
//!    known;
//! 2. a **load-time bytecode verifier** ([`verify_program`]) — a JVM-style
//!    dataflow proof over the final instruction stream.  Installed via
//!    [`verifier_hook`] as `MachineConfig::verifier` it gates loading: a
//!    rejection names the exact `{fun, pc, rule}` and the machine refuses
//!    to start.
//!
//! The IR well-formedness checker lives in `sxr-ir` ([`sxr_ir::validate`]);
//! [`verify_expr`] and [`verify_module`] are re-exported here for existing
//! callers.
//!
//! The analyzer is deliberately conservative: unknown values (parameters,
//! call results, closure slots) are `Top`, and only contradictions that hold
//! on *every* execution are reported.  A clean program — the full prelude
//! included — produces no errors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyzer;
pub mod bcverify;
pub mod diag;
pub mod lattice;

pub use analyzer::analyze_module;
pub use bcverify::{verifier_hook, verify_program, Rejection, Rule, VerifyReport};
pub use diag::{DiagClass, Diagnostic, Severity};
pub use lattice::{AbsVal, TagSet};
pub use sxr_ir::{verify_expr, verify_module};

//! Unified compile-time error type.

use std::fmt;

/// Any failure between source text and loadable code, tagged by stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Reader failure.
    Parse(sxr_sexp::ParseError),
    /// Macro-expansion failure.
    Expand(sxr_ast::ExpandError),
    /// Assignment-conversion failure.
    Assign(String),
    /// ANF lowering failure.
    Lower(sxr_ir::LowerError),
    /// Representation-declaration scanning failure.
    Scan(sxr_opt::ScanError),
    /// Optimizer failure.
    Opt(sxr_opt::OptError),
    /// Intrinsic lowering failure (Traditional mode).
    Intrinsic(sxr_codegen::IntrinsicError),
    /// IR invariant violation in the closure-converted module.
    Validate(sxr_ir::ValidateError),
    /// Code-generation failure.
    Codegen(sxr_codegen::CodegenError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => e.fmt(f),
            CompileError::Expand(e) => e.fmt(f),
            CompileError::Assign(e) => write!(f, "assignment conversion: {e}"),
            CompileError::Lower(e) => e.fmt(f),
            CompileError::Scan(e) => e.fmt(f),
            CompileError::Opt(e) => e.fmt(f),
            CompileError::Intrinsic(e) => e.fmt(f),
            CompileError::Validate(e) => e.fmt(f),
            CompileError::Codegen(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<sxr_sexp::ParseError> for CompileError {
    fn from(e: sxr_sexp::ParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<sxr_ast::ExpandError> for CompileError {
    fn from(e: sxr_ast::ExpandError) -> Self {
        CompileError::Expand(e)
    }
}

impl From<sxr_ir::LowerError> for CompileError {
    fn from(e: sxr_ir::LowerError) -> Self {
        CompileError::Lower(e)
    }
}

impl From<sxr_opt::ScanError> for CompileError {
    fn from(e: sxr_opt::ScanError) -> Self {
        CompileError::Scan(e)
    }
}

impl From<sxr_opt::OptError> for CompileError {
    fn from(e: sxr_opt::OptError) -> Self {
        CompileError::Opt(e)
    }
}

impl From<sxr_codegen::IntrinsicError> for CompileError {
    fn from(e: sxr_codegen::IntrinsicError) -> Self {
        CompileError::Intrinsic(e)
    }
}

impl From<sxr_ir::ValidateError> for CompileError {
    fn from(e: sxr_ir::ValidateError) -> Self {
        CompileError::Validate(e)
    }
}

impl From<sxr_codegen::CodegenError> for CompileError {
    fn from(e: sxr_codegen::CodegenError) -> Self {
        CompileError::Codegen(e)
    }
}

//! `sxr lint` — source-level representation-safety diagnostics.
//!
//! The rep-safety analyzer works on the closure-converted IR, where every
//! primitive has been inlined down to generic representation operations
//! (`%rep-project`, `%rep-ref`, …).  To *lint a source file* we compile it
//! under a dedicated pipeline configuration — inlining and constant folding
//! on (so library primitives expose their rep operations and rep-type
//! constants propagate to their use sites), but representation
//! specialization, bits, CSE and DCE off (so the generic operations the
//! analyzer understands survive, and no dead misuse is silently deleted
//! before it can be reported) — then run [`Compiled::analyze`] and map each
//! finding back to the span of the top-level `define` it lives in.

use crate::config::PipelineConfig;
use crate::error::CompileError;
use crate::pipeline::Compiler;
use std::collections::HashMap;
use sxr_analysis::{DiagClass, Diagnostic, Severity};
use sxr_opt::OptOptions;
use sxr_sexp::{parse_all_spanned, Datum, Span};

/// The pipeline configuration linting compiles under: abstract primitives,
/// inlining + constant folding only.
pub fn lint_config() -> PipelineConfig {
    let mut cfg = PipelineConfig::abstract_optimized();
    cfg.opt = OptOptions {
        repspec: false,
        bits: false,
        cse: false,
        dce: false,
        rounds: 3,
        ..OptOptions::default()
    };
    cfg
}

/// One analyzer finding located in the linted source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintDiagnostic {
    /// The underlying analyzer finding.
    pub diagnostic: Diagnostic,
    /// The span of the enclosing top-level form in the *user* source, when
    /// the finding's function corresponds to one (findings in top-level
    /// expressions or prelude code have no user span).
    pub span: Option<Span>,
}

impl LintDiagnostic {
    /// The severity (derived from the diagnostic class).
    pub fn severity(&self) -> Severity {
        self.diagnostic.severity()
    }

    /// True for error-severity findings.
    pub fn is_error(&self) -> bool {
        self.diagnostic.is_error()
    }

    /// Renders as `file:line:col: severity[code]: message`, the shape
    /// editors and CI log scrapers expect.
    pub fn render(&self, file: &str) -> String {
        let (line, col) = match &self.span {
            Some(s) => (s.line, s.col),
            None => (1, 1),
        };
        format!("{file}:{line}:{col}: {}", self.diagnostic)
    }
}

/// The result of linting one source file.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Every finding, errors first.
    pub diagnostics: Vec<LintDiagnostic>,
}

impl LintReport {
    /// True if any finding is error severity.
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(LintDiagnostic::is_error)
    }

    /// Renders every finding, one per line.
    pub fn render(&self, file: &str) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render(file));
            out.push('\n');
        }
        out
    }
}

/// The name a top-level `(define (f ...) ...)` or `(define f (lambda ...))`
/// binds, if the datum is such a form.
fn define_name(d: &Datum) -> Option<&str> {
    let items = d.as_list()?;
    if items.first()?.as_symbol()? != "define" {
        return None;
    }
    match items.get(1)? {
        Datum::Symbol(s) => Some(s),
        Datum::List(head) => head.first()?.as_symbol(),
        Datum::Improper(head, _) => head.first()?.as_symbol(),
        _ => None,
    }
}

/// Lints `source`: compiles it under [`lint_config`] against the standard
/// prelude, runs the rep-safety analyzer, and attributes each finding to
/// the span of the top-level `define` whose name matches the finding's
/// function.
///
/// # Errors
///
/// Returns a [`CompileError`] if the program does not compile at all (a
/// program that fails to parse or expand cannot be analyzed).
pub fn lint_source(source: &str) -> Result<LintReport, CompileError> {
    // Span table: top-level define name -> span in the user source.
    let mut spans: HashMap<String, Span> = HashMap::new();
    for (d, span) in parse_all_spanned(source)? {
        if let Some(name) = define_name(&d) {
            spans.entry(name.to_string()).or_insert(span);
        }
    }

    let compiled = Compiler::new(lint_config()).compile(source)?;
    let mut diagnostics: Vec<LintDiagnostic> = compiled
        .analyze()
        .into_iter()
        .map(|diagnostic| {
            let span = diagnostic
                .fun_name
                .as_ref()
                .and_then(|n| spans.get(n))
                .copied();
            LintDiagnostic { diagnostic, span }
        })
        .collect();
    // The lint pipeline keeps DCE off, so a function that was inlined at
    // its call sites still exists under its own name and reports the same
    // finding there.  Keep the located copy, drop the inlined duplicates.
    let located: std::collections::HashSet<(DiagClass, String)> = diagnostics
        .iter()
        .filter(|d| d.span.is_some())
        .map(|d| (d.diagnostic.class, d.diagnostic.message.clone()))
        .collect();
    diagnostics.retain(|d| {
        d.span.is_some() || !located.contains(&(d.diagnostic.class, d.diagnostic.message.clone()))
    });
    // A total, deterministic order: source position (line, col — findings
    // without a span sort first), then rule code, then message text.  The
    // output for a given source file is byte-identical across runs and
    // platforms, which CI log diffing and the golden test below rely on.
    diagnostics.sort_by(|a, b| {
        let key = |d: &LintDiagnostic| {
            (
                d.span.map_or((0, 0), |s| (s.line, s.col)),
                d.diagnostic.class.code(),
                d.diagnostic.message.clone(),
            )
        };
        key(a).cmp(&key(b))
    });
    diagnostics.dedup();
    Ok(LintReport { diagnostics })
}

/// Compiles `source` under the standard optimized configuration and runs
/// the load-time bytecode verifier over the generated code (the
/// `sxr lint --bytecode` mode).  A clean report means the machine will
/// accept the program.
///
/// # Errors
///
/// Returns a [`CompileError`] if the program does not compile; verifier
/// rejections are reported in the returned [`sxr_analysis::VerifyReport`],
/// not as errors.
pub fn lint_bytecode(source: &str) -> Result<sxr_analysis::VerifyReport, CompileError> {
    let compiled = Compiler::new(PipelineConfig::abstract_optimized()).compile(source)?;
    Ok(compiled.verify_bytecode())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn define_name_shapes() {
        let forms =
            sxr_sexp::parse_all("(define (f x) x) (define g 1) (define (h . r) r) (display 2)")
                .unwrap();
        assert_eq!(define_name(&forms[0]), Some("f"));
        assert_eq!(define_name(&forms[1]), Some("g"));
        assert_eq!(define_name(&forms[2]), Some("h"));
        assert_eq!(define_name(&forms[3]), None);
    }

    #[test]
    fn lint_config_keeps_generic_ops() {
        let cfg = lint_config();
        assert!(cfg.opt.inline && cfg.opt.constfold);
        assert!(!cfg.opt.repspec && !cfg.opt.bits && !cfg.opt.cse && !cfg.opt.dce);
    }

    #[test]
    fn clean_program_lints_clean() {
        let report = lint_source("(define (add a b) (fx+ a b)) (display (add 1 2))").unwrap();
        assert!(!report.has_errors(), "{}", report.render("t.scm"));
    }

    #[test]
    fn report_order_is_pinned() {
        // Golden test for the deterministic (file, line, col, rule) order:
        // the rendered report is byte-identical across runs.
        let src = "(define (bad-car) (car 5))\n(define (bad-ref) (vector-ref 7 0))\n\
                   (display (bad-car))\n(display (bad-ref))";
        let report = lint_source(src).unwrap();
        assert_eq!(
            report.render("t.scm"),
            "t.scm:1:1: error[raw-mem-immediate]: `%rep-ref` on an immediate value of \
             representation `fixnum` — not a heap object (in `bad-car`)\n\
             t.scm:2:1: error[raw-mem-immediate]: `%rep-ref` on an immediate value of \
             representation `fixnum` — not a heap object (in `bad-ref`)\n"
        );
    }

    #[test]
    fn bytecode_lint_is_clean_for_compiled_code() {
        let report = lint_bytecode("(define (add a b) (fx+ a b)) (display (add 1 2))").unwrap();
        assert!(report.is_clean(), "{report}");
        assert!(report.funs > 0 && report.insts > 0);
    }

    #[test]
    fn misuse_is_located() {
        let src = "(define (id x) x)\n(define (bad) (car 5))\n(display (bad))";
        let report = lint_source(src).unwrap();
        assert!(report.has_errors(), "expected errors");
        let d = report.diagnostics.iter().find(|d| d.is_error()).unwrap();
        assert_eq!(d.diagnostic.fun_name.as_deref(), Some("bad"));
        let span = d.span.expect("span attributed");
        assert_eq!(span.line, 2);
        let rendered = d.render("t.scm");
        assert!(rendered.starts_with("t.scm:2:1: error["), "{rendered}");
    }
}

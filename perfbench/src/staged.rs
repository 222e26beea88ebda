//! The traced run: spans, and the compiler pipeline driven stage by stage
//! from outside, through the layer crates' public functions, in the order
//! `Compiler::compile` calls them.

use std::fmt::Write as _;
use std::time::Instant;
use sxr::{CompileError, OptReport, PipelineConfig, PrimitiveMode};
use sxr_vm::CodeProgram;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Which traced operation the span belongs to.
    pub program: usize,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Spans of one run, kept in memory until the run ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that [`Tracer::close`] ends; returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, program: usize) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            program,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        program: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let s = self.open(name, parent, program);
        let out = f();
        self.close(s);
        out
    }

    /// Milliseconds spent in spans named `name` directly under `parent`.
    pub fn child_ms(&self, parent: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"program\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.program
            );
        }
        out
    }
}

/// The names of the stage spans [`compile_staged`] records, which together
/// make up the compile.
pub const STAGES: &[&str] = &[
    "sexp.parse",
    "ast.expand",
    "ast.assign",
    "ir.lower",
    "opt.scan",
    "codegen.intrinsics",
    "opt.optimize",
    "ir.clconv",
    "ir.validate",
    "codegen.generate",
];

/// What the staged pipeline produced.
pub struct Staged {
    pub code: CodeProgram,
    pub opt_report: OptReport,
    /// Top-level forms read, prelude included.
    pub forms: usize,
}

/// Compiles `source` the way `Compiler::compile` does, one public layer
/// call at a time, with a span around each call under `parent`.
///
/// The walks recurse per top-level binding, so like `Compiler::compile`
/// this runs on a thread with a 512 MB stack.
///
/// # Errors
///
/// The first failing stage's error, as `Compiler::compile` reports it.
pub fn compile_staged(
    config: &PipelineConfig,
    source: &str,
    tracer: &mut Tracer,
    parent: usize,
    program: usize,
) -> Result<Staged, CompileError> {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("perfbench-compile".to_string())
            .stack_size(512 << 20)
            .spawn_scoped(scope, || stages(config, source, tracer, parent, program))
            .expect("spawn compile thread")
            .join()
            .unwrap_or_else(|p| std::panic::resume_unwind(p))
    })
}

fn stages(
    config: &PipelineConfig,
    source: &str,
    t: &mut Tracer,
    parent: usize,
    program: usize,
) -> Result<Staged, CompileError> {
    let p = Some(parent);
    let prims = match config.mode {
        PrimitiveMode::Abstract => sxr::PRIMS_ABSTRACT_SCM,
        PrimitiveMode::Traditional => sxr::PRIMS_TRADITIONAL_SCM,
    };
    let mut expander = sxr_ast::Expander::new();
    let mut units = Vec::new();
    let mut forms = 0;
    for src in [sxr::REPS_SCM, prims, sxr::LIBRARY_SCM, source] {
        let parsed = t.span("sexp.parse", p, program, || sxr_sexp::parse_all(src))?;
        forms += parsed.len();
        units.push(t.span("ast.expand", p, program, || expander.expand_unit(&parsed))?);
    }
    let mut ast = t.span("ast.expand", p, program, || expander.into_program(units));
    t.span("ast.assign", p, program, || {
        sxr_ast::convert_assignments(&mut ast)
    })
    .map_err(CompileError::Assign)?;
    let sxr_ir::Lowered {
        main_body,
        mut supply,
        global_names,
    } = t.span("ir.lower", p, program, || sxr_ir::lower_program(ast))?;
    let mut registry = sxr_ir::RepRegistry::new();
    let rep_globals = t.span("opt.scan", p, program, || {
        sxr_opt::scan_representations(&main_body, &mut registry)
    })?;
    let main_body = match config.mode {
        PrimitiveMode::Traditional => t.span("codegen.intrinsics", p, program, || {
            sxr_codegen::lower_intrinsics_expr(main_body, &registry, &mut supply)
        })?,
        PrimitiveMode::Abstract => main_body,
    };
    let mut opt_options = config.opt.clone();
    opt_options.verify = config.verify_passes;
    let (main_body, opt_report) = t.span("opt.optimize", p, program, || {
        sxr_opt::optimize(
            main_body,
            &mut registry,
            &rep_globals,
            &mut supply,
            &opt_options,
        )
    })?;
    let module = t.span("ir.clconv", p, program, || {
        sxr_ir::closure_convert(sxr_ir::Lowered {
            main_body,
            supply,
            global_names,
        })
    });
    if config.verify_passes {
        t.span("ir.validate", p, program, || {
            sxr_analysis::verify_module(&module, &registry, &rep_globals)
        })?;
    } else {
        t.span("ir.validate", p, program, || {
            sxr_ir::validate_module(&module)
        })?;
    }
    let code = t.span("codegen.generate", p, program, || {
        sxr_codegen::generate(&module, &registry)
    })?;
    Ok(Staged {
        code,
        opt_report,
        forms,
    })
}

/// True when two programs are the same loadable code.
pub fn same_code(a: &CodeProgram, b: &CodeProgram) -> bool {
    a.funs == b.funs && a.pool == b.pool && a.nglobals == b.nglobals && a.main == b.main
}

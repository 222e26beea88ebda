//! The compilation pipeline: source text → loadable VM program.

use crate::config::{PipelineConfig, PrimitiveMode};
use crate::error::CompileError;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};
use sxr_analysis::Diagnostic;
use sxr_ast::{convert_assignments, Expander, Unit};
use sxr_codegen::{generate, lower_intrinsics_expr};
use sxr_ir::anf::{GlobalId, Module};
use sxr_ir::lower::Lowered;
use sxr_ir::rep::{RepId, RepRegistry};
use sxr_ir::{closure_convert, lower_program, verify_module};
use sxr_opt::{optimize, scan_representations, OptReport};
use sxr_sexp::parse_all;
use sxr_vm::{CodeFun, CodeProgram, Counters, FaultPlan, Machine, MachineConfig, VmError};

/// The representation declarations (shared by every configuration).
pub const REPS_SCM: &str = include_str!("../scheme/reps.scm");
/// The abstract primitive layer (rep-type-based).
pub const PRIMS_ABSTRACT_SCM: &str = include_str!("../scheme/prims_abstract.scm");
/// The abstract primitive layer with library-level type and bounds checks
/// ("safety is library policy"; see `tests/integration_checked.rs`).
pub const PRIMS_ABSTRACT_CHECKED_SCM: &str = include_str!("../scheme/prims_abstract_checked.scm");
/// The traditional primitive layer (intrinsic-based baseline).
pub const PRIMS_TRADITIONAL_SCM: &str = include_str!("../scheme/prims_traditional.scm");
/// The shared portable library.
pub const LIBRARY_SCM: &str = include_str!("../scheme/library.scm");

/// A compiler for one pipeline configuration.
///
/// # Example
///
/// ```
/// use sxr::{Compiler, PipelineConfig};
///
/// let compiler = Compiler::new(PipelineConfig::abstract_optimized());
/// let compiled = compiler.compile("(display (fx+ 20 22))").unwrap();
/// let outcome = compiled.run().unwrap();
/// assert_eq!(outcome.output, "42");
/// ```
#[derive(Debug, Clone)]
pub struct Compiler {
    config: PipelineConfig,
}

impl Compiler {
    /// Creates a compiler with the given configuration.
    pub fn new(config: PipelineConfig) -> Compiler {
        Compiler { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Compiles `source` against the configured prelude.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] describing the first failing stage.
    pub fn compile(&self, source: &str) -> Result<Compiled, CompileError> {
        self.compile_with_prelude(&self.prelude(), source)
    }

    /// The configured prelude sources, in expansion order.
    pub(crate) fn prelude(&self) -> [&'static str; 3] {
        let prims = match self.config.mode {
            PrimitiveMode::Abstract => PRIMS_ABSTRACT_SCM,
            PrimitiveMode::Traditional => PRIMS_TRADITIONAL_SCM,
        };
        [REPS_SCM, prims, LIBRARY_SCM]
    }

    /// Compiles with explicit prelude sources (used by the re-tagging tests
    /// and examples that substitute their own representation layer).
    ///
    /// The prelude sources are read and expanded once per process: the
    /// expanded prelude is kept in a process-wide memo keyed by the full
    /// source texts (compared for equality, not by hash), which holds the
    /// four most recently used preludes. Each compile expands `source`
    /// against a clone of the memoized expander state, so its output is
    /// the same as expanding everything afresh. A prelude that fails to
    /// read or expand is not memoized; every call returns its error again.
    ///
    /// The front end's walks recurse once per level of source nesting, so
    /// the work runs on a dedicated thread with a generous stack (the
    /// standard arrangement for recursive compilers).
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] describing the first failing stage.
    ///
    /// # Panics
    ///
    /// Propagates panics from compiler bugs.
    pub fn compile_with_prelude(
        &self,
        prelude_sources: &[&str],
        source: &str,
    ) -> Result<Compiled, CompileError> {
        on_compile_thread(|| self.compile_inner(&*expanded_prelude(prelude_sources)?, source))
    }

    fn compile_inner(
        &self,
        prelude: &ExpandedPrelude,
        source: &str,
    ) -> Result<Compiled, CompileError> {
        // 1. Read + expand the user program through (a clone of) the
        //    expander that expanded the prelude, so global ids are shared.
        let mut expander = prelude.expander.clone();
        let user_forms = parse_all(source)?;
        let user = expander.expand_unit(&user_forms)?;
        let units = prelude.units.iter().cloned().chain([user]).collect();
        let mut program = expander.into_program(units);

        // 2. Assignment conversion (set! of lexicals -> library boxes).
        convert_assignments(&mut program).map_err(CompileError::Assign)?;

        // 3. Lower to ANF.
        let Lowered {
            main_body,
            mut supply,
            global_names,
        } = lower_program(program)?;

        // 4. Stage A: interpret the library's representation declarations.
        let mut registry = RepRegistry::new();
        let rep_globals = scan_representations(&main_body, &mut registry)?;

        // 5. Traditional baseline: expand intrinsics *before* the general
        //    optimizer so inlining exposes the templates to cleanup.
        let main_body = match self.config.mode {
            PrimitiveMode::Traditional => lower_intrinsics_expr(main_body, &registry, &mut supply)?,
            PrimitiveMode::Abstract => main_body,
        };

        // 6. The generally-useful transformations.  `verify_passes` makes
        //    the optimizer re-verify the IR after every enabled pass, so a
        //    broken rewrite is attributed to the pass that made it.
        let mut opt_options = self.config.opt.clone();
        opt_options.verify = self.config.verify_passes;
        let (main_body, opt_report) = optimize(
            main_body,
            &mut registry,
            &rep_globals,
            &mut supply,
            &opt_options,
        )?;

        // 7. Closure-convert, check (structure plus representation-registry
        //    consistency), generate.
        let module = closure_convert(Lowered {
            main_body,
            supply,
            global_names,
        });
        verify_module(&module, &registry, &rep_globals)?;
        let code = generate(&module, &registry)?;
        Ok(Compiled {
            code,
            module,
            registry,
            rep_globals,
            opt_report,
            heap_words: self.config.heap_words,
            instruction_limit: self.config.instruction_limit,
            max_depth: self.config.max_depth,
        })
    }
}

/// Runs `work` on a thread with a generous stack: the front end's walks
/// (read, expand, assignment conversion, lowering) recurse once per level
/// of source nesting.
fn on_compile_thread<T: Send>(work: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .name("sxr-compile".to_string())
            .stack_size(512 << 20)
            .spawn_scoped(s, work)
            .expect("spawn compile thread")
            .join()
            .unwrap_or_else(|p| std::panic::resume_unwind(p))
    })
}

/// How many expanded preludes [`Compiler::compile_with_prelude`] keeps.
/// The shipped configurations use two preludes (abstract and traditional
/// primitives); the rest leaves room for substituted ones.
const PRELUDE_MEMO_CAP: usize = 4;

/// A prelude after reading and expansion: the expander's state (global
/// table, renaming counter) and one [`Unit`] per source.
struct ExpandedPrelude {
    sources: Vec<String>,
    expander: Expander,
    units: Vec<Unit>,
}

impl ExpandedPrelude {
    /// Reads and expands `sources` in order through one fresh expander.
    fn expand(sources: &[&str]) -> Result<ExpandedPrelude, CompileError> {
        let mut expander = Expander::new();
        let mut units = Vec::with_capacity(sources.len());
        for src in sources {
            let forms = parse_all(src)?;
            units.push(expander.expand_unit(&forms)?);
        }
        Ok(ExpandedPrelude {
            sources: sources.iter().map(|s| s.to_string()).collect(),
            expander,
            units,
        })
    }
}

/// The expanded-prelude memo, least recently used first.
static PRELUDES: Mutex<Vec<Arc<ExpandedPrelude>>> = Mutex::new(Vec::new());

/// Returns the expanded form of `sources`, from the memo when an entry has
/// exactly these texts. The lock is never held while expanding, and every
/// update under it pushes or removes a whole entry, so a panic elsewhere
/// cannot leave the memo half-updated and a poisoned lock is safe to use.
fn expanded_prelude(sources: &[&str]) -> Result<Arc<ExpandedPrelude>, CompileError> {
    let memo = || PRELUDES.lock().unwrap_or_else(PoisonError::into_inner);
    let same = |p: &ExpandedPrelude| {
        p.sources
            .iter()
            .map(String::as_str)
            .eq(sources.iter().copied())
    };
    {
        let mut entries = memo();
        if let Some(i) = entries.iter().position(|p| same(p)) {
            let hit = entries.remove(i);
            entries.push(Arc::clone(&hit));
            return Ok(hit);
        }
    }
    let fresh = Arc::new(ExpandedPrelude::expand(sources)?);
    let mut entries = memo();
    if !entries.iter().any(|p| same(p)) {
        entries.push(Arc::clone(&fresh));
        if entries.len() > PRELUDE_MEMO_CAP {
            entries.remove(0);
        }
    }
    Ok(fresh)
}

/// A compiled program plus everything needed to run and inspect it.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The loadable program.
    pub code: CodeProgram,
    /// The final IR (for reports and the compiler-explorer example).
    pub module: Module,
    /// The representation registry the library built.
    pub registry: RepRegistry,
    /// What the optimizer did.
    pub opt_report: OptReport,
    /// Which globals hold representation-type values (from the
    /// representation scan) — the seed for the static analyzer.
    pub rep_globals: HashMap<GlobalId, RepId>,
    heap_words: usize,
    instruction_limit: Option<u64>,
    max_depth: usize,
}

/// The observable result of running a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// The program's final value, rendered via the library's
    /// representations.
    pub value: String,
    /// Everything written through `%write-char`.
    pub output: String,
    /// Dynamic execution counters.
    pub counters: Counters,
}

impl Compiled {
    /// Creates a fresh machine loaded with this program, with no faults
    /// injected.
    ///
    /// The load-time bytecode verifier (`sxr-analysis::bcverify`) runs
    /// before the first instruction as an admission gate: a rejected
    /// program never starts ([`sxr_vm::VmErrorKind::RejectedByVerifier`]).
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] if the program's registry is incomplete, the
    /// verifier rejects the code, or a structured out-of-memory error when
    /// the heap cannot hold the constant pool.
    pub fn machine(&self) -> Result<Machine, VmError> {
        self.machine_with_fault(FaultPlan::none())
    }

    /// Creates a fresh machine under a fault plan (chaos harnesses use
    /// this to sweep many schedules over one compilation).
    ///
    /// # Errors
    ///
    /// As for [`Compiled::machine`], where a structured out-of-memory error
    /// may also come from the plan's heap cap.
    pub fn machine_with_fault(&self, fault: FaultPlan) -> Result<Machine, VmError> {
        Machine::new(
            self.code.clone(),
            MachineConfig {
                heap_words: self.heap_words,
                instruction_limit: self.instruction_limit,
                fault,
                verifier: Some(sxr_analysis::verifier_hook),
                max_depth: self.max_depth,
            },
        )
    }

    /// Runs the program to completion on a fresh machine.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] raised during loading or execution.
    pub fn run(&self) -> Result<Outcome, VmError> {
        self.run_with_fault(FaultPlan::none())
    }

    /// Runs the program on a fresh machine under an explicit fault plan.
    /// The fault-injection contract: the result is either identical to a
    /// fault-free run or an `Err` with a structured kind (for memory
    /// schedules, [`sxr_vm::VmErrorKind::OutOfMemory`]) — never a panic or
    /// a silently wrong value.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] raised during loading or execution, including
    /// any the plan injects.
    pub fn run_with_fault(&self, fault: FaultPlan) -> Result<Outcome, VmError> {
        let mut m = self.machine_with_fault(fault)?;
        let w = m.run()?;
        Ok(Outcome {
            value: m.describe(w),
            output: m.output().to_string(),
            counters: m.counters.clone(),
        })
    }

    /// Runs the rep-safety static analyzer over the compiled module and
    /// returns every finding (warnings included), followed by any
    /// load-time bytecode verifier rejections of the generated code.
    ///
    /// The analyzer is conservative: it reports only *provable* misuse —
    /// a projection through a representation the value cannot have, a raw
    /// memory operation on a word that is never a tagged pointer, a
    /// constant field index outside a known allocation size, or a
    /// representation test with a statically-known outcome.  Bytecode
    /// rejections are always errors: the machine would refuse to load
    /// this program.
    pub fn analyze(&self) -> Vec<Diagnostic> {
        let mut diags =
            sxr_analysis::analyze_module(&self.module, &self.registry, &self.rep_globals);
        for r in self.verify_bytecode().rejections {
            let fun_name = self
                .code
                .funs
                .get(r.fun as usize)
                .map(|f| f.name.clone())
                .filter(|n| !n.is_empty());
            diags.push(Diagnostic {
                class: sxr_analysis::DiagClass::BytecodeReject,
                fun: r.fun,
                fun_name,
                message: r.to_string(),
            });
        }
        diags
    }

    /// Runs the load-time bytecode verifier over the generated code and
    /// returns its full report (clean for every compiler-produced
    /// program; see `sxr-analysis::bcverify`).
    pub fn verify_bytecode(&self) -> sxr_analysis::VerifyReport {
        sxr_analysis::verify_program(&self.code)
    }

    /// Error-severity analyzer findings, rendered for display.  Empty for
    /// any program free of provable representation misuse.
    pub fn analyze_errors(&self) -> Vec<String> {
        self.analyze()
            .into_iter()
            .filter(|d| d.is_error())
            .map(|d| d.to_string())
            .collect()
    }

    /// Finds the compiled code of a (top-level, named) procedure. A library
    /// procedure the program does not reach is not compiled, so it is not
    /// found.
    pub fn fun_by_name(&self, name: &str) -> Option<&CodeFun> {
        self.code.funs.iter().find(|f| f.name == name)
    }

    /// Static instruction count of a named procedure's body.
    pub fn static_count(&self, name: &str) -> Option<usize> {
        self.fun_by_name(name).map(|f| f.insts.len())
    }

    /// A rendering of a named procedure's instructions.
    pub fn disassemble(&self, name: &str) -> Option<String> {
        let f = self.fun_by_name(name)?;
        let mut out = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(out, ";; {} (arity {}, {} regs)", f.name, f.arity, f.nregs);
        for (i, inst) in f.insts.iter().enumerate() {
            let _ = writeln!(out, "{i:4}  {inst:?}");
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compiles without the memo: the prelude is read and expanded afresh.
    fn cold(compiler: &Compiler, prelude: &[&str], source: &str) -> Compiled {
        on_compile_thread(|| {
            let prelude = ExpandedPrelude::expand(prelude)?;
            compiler.compile_inner(&prelude, source)
        })
        .unwrap_or_else(|e| panic!("{source}: {e}"))
    }

    fn assert_same_code(a: &Compiled, b: &Compiled, what: &str) {
        assert_eq!(a.code.funs, b.code.funs, "{what}: funs");
        assert_eq!(a.code.pool, b.code.pool, "{what}: pool");
        assert_eq!(a.code.main, b.code.main, "{what}: main");
        assert_eq!(a.code.nglobals, b.code.nglobals, "{what}: nglobals");
        assert_eq!(a.opt_report, b.opt_report, "{what}: OptReport");
    }

    fn memoized(sources: &[&str]) -> bool {
        PRELUDES.lock().expect("memo lock").iter().any(|p| {
            p.sources
                .iter()
                .map(String::as_str)
                .eq(sources.iter().copied())
        })
    }

    /// Each defines globals of its own, so a compile that leaked its
    /// global table into the memo would shift the next one's ids.
    const PROGRAMS: [&str; 3] = [
        "(define counter 0)
         (define (tick!) (set! counter (fx+ counter 1)) counter)
         (tick!) (tick!)",
        "(define car (let ((c car)) (lambda (p) (c p))))
         (define (second xs) (car (cdr xs)))
         (second (list 1 2 3))",
        "(define (fib n) (if (fx< n 2) n (fx+ (fib (fx- n 1)) (fib (fx- n 2)))))
         (display (list3 (fib 15) '(a . b) \"strings too\"))",
    ];

    #[test]
    fn warm_compiles_emit_what_cold_ones_do() {
        for config in [
            PipelineConfig::traditional(),
            PipelineConfig::abstract_optimized(),
            PipelineConfig::abstract_unoptimized(),
        ] {
            let label = config.label();
            let compiler = Compiler::new(config);
            for round in 0..2 {
                for src in PROGRAMS {
                    let what = format!("[{label}] round {round}: {src}");
                    let warm = compiler.compile(src).unwrap();
                    assert!(memoized(&compiler.prelude()), "{what}");
                    let cold = cold(&compiler, &compiler.prelude(), src);
                    assert_same_code(&warm, &cold, &what);
                    assert_eq!(warm.run().unwrap(), cold.run().unwrap(), "{what}");
                }
            }
        }
    }

    /// The retagging example's representation layer: the same roles with
    /// different numbers everywhere.
    const ALT_REPS: &str = "
        (define fixnum-rep      (%make-immediate-type 'fixnum 3 0 4))
        (define boolean-rep     (%make-immediate-type 'boolean 9 2 9))
        (define char-rep        (%make-immediate-type 'char 9 10 9))
        (define null-rep        (%make-immediate-type 'null 9 18 9))
        (define unspecified-rep (%make-immediate-type 'unspecified 9 26 9))
        (define eof-rep         (%make-immediate-type 'eof 9 34 9))
        (define string-rep      (%make-pointer-type 'string 1 #f))
        (define symbol-rep      (%make-pointer-type 'symbol 3 #f))
        (define rep-type-rep    (%make-pointer-type 'rep-type 4 #t))
        (define box-rep         (%make-pointer-type 'box 4 #t))
        (define pair-rep        (%make-pointer-type 'pair 5 #f))
        (define vector-rep      (%make-pointer-type 'vector 6 #f))
        (define closure-rep     (%make-pointer-type 'closure 7 #f))
        (define condition-rep   (%make-pointer-type 'condition 4 #t))
        (%provide-rep! 'fixnum fixnum-rep)
        (%provide-rep! 'boolean boolean-rep)
        (%provide-rep! 'char char-rep)
        (%provide-rep! 'null null-rep)
        (%provide-rep! 'unspecified unspecified-rep)
        (%provide-rep! 'eof eof-rep)
        (%provide-rep! 'pair pair-rep)
        (%provide-rep! 'vector vector-rep)
        (%provide-rep! 'rep-type rep-type-rep)
        (%provide-rep! 'box box-rep)
        (%provide-rep! 'string string-rep)
        (%provide-rep! 'symbol symbol-rep)
        (%provide-rep! 'closure closure-rep)
        (%provide-rep! 'condition condition-rep)";

    #[test]
    fn interleaved_preludes_each_get_their_own_entry() {
        let compiler = Compiler::new(PipelineConfig::abstract_optimized());
        let standard = compiler.prelude();
        let retagged = [ALT_REPS, PRIMS_ABSTRACT_SCM, LIBRARY_SCM];
        let src = PROGRAMS[2];
        let want_standard = cold(&compiler, &standard, src);
        let want_retagged = cold(&compiler, &retagged, src);
        assert_ne!(
            want_standard.code.funs, want_retagged.code.funs,
            "the two preludes must emit different code for the test to mean anything"
        );
        for round in 0..3 {
            let a = compiler.compile(src).unwrap();
            let b = compiler.compile_with_prelude(&retagged, src).unwrap();
            assert_same_code(&a, &want_standard, &format!("standard, round {round}"));
            assert_same_code(&b, &want_retagged, &format!("retagged, round {round}"));
            assert_eq!(a.run().unwrap().output, b.run().unwrap().output);
            assert!(memoized(&standard) && memoized(&retagged), "round {round}");
        }
    }

    #[test]
    fn a_failing_prelude_is_never_memoized() {
        let compiler = Compiler::new(PipelineConfig::abstract_optimized());
        let unreadable = [REPS_SCM, "(define (broken", LIBRARY_SCM];
        let unexpandable = [REPS_SCM, "(define)", LIBRARY_SCM];
        for bad in [unreadable, unexpandable] {
            let first = compiler.compile_with_prelude(&bad, "1").unwrap_err();
            let again = compiler.compile_with_prelude(&bad, "1").unwrap_err();
            assert_eq!(first, again);
            assert!(!memoized(&bad), "{first}");
        }
        assert!(matches!(
            compiler.compile_with_prelude(&unreadable, "1"),
            Err(CompileError::Parse(_))
        ));
        assert!(matches!(
            compiler.compile_with_prelude(&unexpandable, "1"),
            Err(CompileError::Expand(_))
        ));
        // The memo is still usable afterwards.
        assert!(!PRELUDES.is_poisoned());
        let out = compiler.compile("(fx+ 20 22)").unwrap().run().unwrap();
        assert_eq!(out.value, "42");
    }
}

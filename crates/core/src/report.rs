//! Report helpers shared by the benchmark harness (Tables 1–3, Figures
//! 1–2, `bench_vm`) and the examples.

use crate::{Compiled, Compiler, FaultPlan, Outcome, PipelineConfig, VmError};
use std::time::{Duration, Instant};
use sxr_vm::{StepResult, SuspendReason};

/// The primitive operations whose generated code Table 1 compares.
pub const TABLE1_PRIMS: &[&str] = &[
    "car",
    "cdr",
    "cons",
    "set-car!",
    "pair?",
    "null?",
    "fx+",
    "fx-",
    "fx*",
    "fxquotient",
    "fx<",
    "fx=",
    "eq?",
    "fixnum?",
    "vector-ref",
    "vector-set!",
    "vector-length",
    "make-vector",
    "string-ref",
    "string-length",
    "char->integer",
    "integer->char",
    "box",
    "unbox",
    "set-box!",
    "procedure?",
];

/// Compiles a program that names every [`TABLE1_PRIMS`] entry and does
/// nothing else, under `config`, so those primitives' bodies can be
/// inspected (a compile keeps only the library procedures a program
/// reaches).
///
/// # Errors
///
/// Propagates any [`crate::CompileError`] (the prelude must compile).
pub fn compile_prelude_probe(config: PipelineConfig) -> Result<Compiled, crate::CompileError> {
    Compiler::new(config).compile(&format!("(begin {} 0)", TABLE1_PRIMS.join(" ")))
}

/// A program that reads the global of every procedure the prelude of
/// `config` defines, and evaluates to 0. A compile keeps only the library
/// procedures its program reaches; prefixed to a program, this keeps them
/// all, so checks of the shipped library see every procedure.
///
/// # Panics
///
/// Panics if the prelude does not read or expand.
pub fn naming_every_library_procedure(config: &PipelineConfig) -> String {
    let mut expander = sxr_ast::Expander::new();
    let mut procedures = Vec::new();
    for src in Compiler::new(config.clone()).prelude() {
        let forms = sxr_sexp::parse_all(src).expect("the prelude reads");
        let unit = expander.expand_unit(&forms).expect("the prelude expands");
        for item in &unit.items {
            if let sxr_ast::TopItem::Def(g, sxr_ast::Expr::Lambda(_)) = item {
                procedures.push(*g);
            }
        }
    }
    let names = expander.into_program(Vec::new()).global_names;
    let names: Vec<&str> = procedures
        .into_iter()
        .map(|g| names[g as usize].as_str())
        .collect();
    format!("(begin {} 0)", names.join(" "))
}

/// Runs `compiled` once on a fresh machine, reporting how long the *run*
/// took (machine construction — the structural check, bytecode
/// verification and pool building — is excluded, so the number is the
/// interpreter's steady-state cost, which is what `BENCH_vm.json`
/// records).
///
/// # Errors
///
/// Propagates any [`VmError`] raised during loading or execution.
pub fn run_timed(compiled: &Compiled) -> Result<(Duration, Outcome), VmError> {
    let mut m = compiled.machine()?;
    let start = Instant::now();
    let w = m.run()?;
    let elapsed = start.elapsed();
    Ok((
        elapsed,
        Outcome {
            value: m.describe(w),
            output: m.output().to_string(),
            counters: m.counters.clone(),
        },
    ))
}

/// Runs `compiled` on a fresh machine in fuel slices of `slice`
/// instructions, suspending and resuming until completion.  Returns the
/// outcome plus the number of fuel-exhaustion suspensions taken.
///
/// The suspension machinery is required to be *invisible*: for any slice
/// size the outcome (final value, output, and every counter) is bitwise
/// identical to an uninterrupted run.  The resumption batteries in
/// `tests/` and `chaos_vm --resume` assert exactly that.
///
/// # Errors
///
/// Propagates any [`VmError`] raised during loading or execution.
pub fn run_resumable(compiled: &Compiled, slice: u64) -> Result<(Outcome, u64), VmError> {
    run_resumable_with(compiled, || slice)
}

/// As [`run_resumable`], but each slice's budget is drawn from
/// `next_slice` — the differential fuzzer uses this to replay random
/// suspension schedules from a seed.
///
/// # Errors
///
/// Propagates any [`VmError`] raised during loading or execution.
pub fn run_resumable_with(
    compiled: &Compiled,
    mut next_slice: impl FnMut() -> u64,
) -> Result<(Outcome, u64), VmError> {
    let mut m = compiled.machine()?;
    m.set_fuel(Some(next_slice().max(1)));
    let mut suspensions = 0u64;
    let mut step = m.start()?;
    loop {
        match step {
            StepResult::Done(w) => {
                return Ok((
                    Outcome {
                        value: m.describe(w),
                        output: m.output().to_string(),
                        counters: m.counters.clone(),
                    },
                    suspensions,
                ));
            }
            StepResult::Suspended(SuspendReason::FuelExhausted) => {
                suspensions += 1;
                step = m.resume(next_slice().max(1))?;
            }
        }
    }
}

/// How one run under a fault plan relates to the fault-free oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosOutcome {
    /// The run finished and its observable behaviour (final value plus
    /// `%write-char` output) matched the fault-free run exactly.
    Agrees,
    /// The run finished but its observable behaviour diverged — a
    /// miscompilation or GC bug; the chaos battery treats this as fatal.
    Diverged {
        /// What the faulted run produced (`value\noutput`).
        got: String,
        /// What the fault-free oracle produced.
        want: String,
    },
    /// The run failed with a structured error (for memory fault plans this
    /// is the expected alternative to agreement).
    Failed(VmError),
}

/// Runs `compiled` under `plan` and classifies the result against the
/// fault-free oracle outcome — the primitive the chaos battery and
/// `sxr-bench` build their sweeps from.
pub fn run_under_fault(compiled: &Compiled, plan: FaultPlan, oracle: &Outcome) -> ChaosOutcome {
    match compiled.run_with_fault(plan) {
        Ok(out) if out.value == oracle.value && out.output == oracle.output => ChaosOutcome::Agrees,
        Ok(out) => ChaosOutcome::Diverged {
            got: format!("{}\n{}", out.value, out.output),
            want: format!("{}\n{}", oracle.value, oracle.output),
        },
        Err(e) => ChaosOutcome::Failed(e),
    }
}

/// One primitive's static instruction counts across the three
/// configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrimRow {
    /// Primitive name.
    pub name: String,
    /// Instruction count under `Traditional`.
    pub traditional: usize,
    /// Instruction count under `AbstractOpt`.
    pub abstract_opt: usize,
    /// Instruction count under `AbstractNoOpt`.
    pub abstract_noopt: usize,
}

/// Builds Table 1: per-primitive static instruction counts (including the
/// final return) for each configuration.
///
/// # Errors
///
/// Propagates compile errors from any configuration.
pub fn table1_rows() -> Result<Vec<PrimRow>, crate::CompileError> {
    let trad = compile_prelude_probe(PipelineConfig::traditional())?;
    let aopt = compile_prelude_probe(PipelineConfig::abstract_optimized())?;
    let anop = compile_prelude_probe(PipelineConfig::abstract_unoptimized())?;
    Ok(TABLE1_PRIMS
        .iter()
        .filter_map(|name| {
            Some(PrimRow {
                name: (*name).to_string(),
                traditional: trad.static_count(name)?,
                abstract_opt: aopt.static_count(name)?,
                abstract_noopt: anop.static_count(name)?,
            })
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_compiles_everywhere() {
        for cfg in [
            PipelineConfig::traditional(),
            PipelineConfig::abstract_optimized(),
            PipelineConfig::abstract_unoptimized(),
        ] {
            let c = compile_prelude_probe(cfg).unwrap();
            assert!(c.static_count("car").is_some(), "car exists");
        }
    }

    #[test]
    fn run_timed_reports_outcome_and_duration() {
        let c = Compiler::new(PipelineConfig::abstract_optimized())
            .compile("(display (fx+ 40 2))")
            .unwrap();
        let (dt, out) = run_timed(&c).unwrap();
        assert_eq!(out.output, "42");
        assert!(out.counters.total > 0);
        assert!(dt > Duration::ZERO);
    }
}

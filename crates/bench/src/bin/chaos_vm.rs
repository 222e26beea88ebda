//! `chaos_vm` — runs the benchmark corpus under deterministic fault
//! schedules and checks the chaos contract: every run either reproduces
//! the fault-free oracle exactly or fails with a structured out-of-memory
//! error.  Divergent values or unexpected error kinds are violations.
//!
//! The default sweep (also what CI's `chaos-smoke` job runs):
//! GC-on-every-allocation, two seeded jitter schedules, two tight heap
//! caps, and allocation failures at half of each configuration's own
//! fault-free allocation count.  Every fault outcome is tallied in a
//! per-class summary table (out-of-memory split by phase).
//!
//! `--resume` switches to the recoverable-trap battery instead: the whole
//! corpus runs under fuel-sliced suspend/resume (the outcome must be
//! bitwise identical to the uninterrupted oracle — value, output, and all
//! counters), and a guarded Scheme program must catch an injected
//! out-of-memory condition, recover, and finish with the expected answer
//! in every pipeline configuration.
//!
//! `--verify` runs the load-time bytecode verifier over the whole corpus
//! instead: every benchmark under every configuration must verify with
//! zero rejections (a rejection of compiler-produced code is a codegen
//! bug, and the machine would refuse to load the program).
//!
//! ```text
//! cargo run --release -p sxr-bench --bin chaos_vm
//! cargo run --release -p sxr-bench --bin chaos_vm -- --seed 99 --heap-words 65536
//! cargo run --release -p sxr-bench --bin chaos_vm -- --resume --slice 4096
//! cargo run --release -p sxr-bench --bin chaos_vm -- --verify
//! ```
//!
//! Flags: `--heap-words N` (initial heap, default 65536), `--seed N`
//! (extra jitter schedule), `--probe` (print per-target allocation
//! profiles instead of sweeping), `--resume` (fuel-sliced resumption +
//! in-guest recovery battery), `--slice N` (resumption fuel slice,
//! default 4096), `--verify` (bytecode-verify the corpus, no execution).

use std::collections::BTreeMap;
use sxr::report::{run_resumable, ChaosOutcome};
use sxr::{Compiler, FaultPlan, PipelineConfig, VmError, VmErrorKind};
use sxr_bench::{chaos_targets, measured_configs, run_chaos, BENCHMARKS};

fn usage() -> ! {
    eprintln!(
        "usage: chaos_vm [--heap-words N] [--seed N] [--probe] [--resume] [--slice N] [--verify]"
    );
    std::process::exit(2);
}

/// Tally key for one fault outcome: the stable error-kind label, with
/// out-of-memory split by the phase that detected it.
fn fault_class(e: &VmError) -> String {
    match &e.kind {
        VmErrorKind::OutOfMemory { phase, .. } => format!("{}/{phase}", e.kind.label()),
        k => k.label().to_string(),
    }
}

fn print_class_table(classes: &BTreeMap<String, usize>) {
    if classes.is_empty() {
        return;
    }
    println!("{:<28} {:>6}", "fault class", "count");
    for (class, count) in classes {
        println!("{class:<28} {count:>6}");
    }
}

/// The in-guest recovery probe: allocation far over the injected cap, a
/// `guard` that inspects the delivered out-of-memory condition, and a
/// retry that fits.  Must print `alloc 64` in every configuration.
const OOM_RECOVERY_SRC: &str = r#"
(define (alloc-len n) (vector-length (make-vector n 1)))
(define (alloc-robust big small)
  (guard (c ((eq? (condition-kind c) 'out-of-memory)
             (begin
               (display (condition-phase c))
               (write-char #\space)
               (alloc-len small))))
    (alloc-len big)))
(display (alloc-robust 200000 64))
"#;

/// The `--verify` battery: every corpus program under every measured
/// configuration must pass the load-time bytecode verifier with zero
/// rejections.  Returns the number of violations.
fn verify_battery() -> usize {
    let mut violations = 0usize;
    let mut programs = 0usize;
    let mut funs = 0usize;
    let mut insts = 0usize;
    for b in BENCHMARKS {
        for (label, cfg) in measured_configs() {
            let report = match Compiler::new(cfg).compile(b.source) {
                Ok(c) => c.verify_bytecode(),
                Err(e) => {
                    violations += 1;
                    eprintln!("VIOLATION: {}/{label}: compile failed: {e}", b.name);
                    continue;
                }
            };
            programs += 1;
            funs += report.funs;
            insts += report.insts;
            if !report.is_clean() {
                violations += 1;
                eprintln!(
                    "VIOLATION: {}/{label}: bytecode verifier rejected compiler \
                     output:\n{report}",
                    b.name
                );
            }
        }
    }
    println!(
        "chaos_vm --verify: {programs} corpus programs verified \
         ({funs} functions, {insts} instructions), {violations} rejections"
    );
    violations
}

/// The `--resume` battery.  Returns the number of violations.
fn resume_battery(heap_words: usize, slice: u64) -> usize {
    eprintln!("chaos_vm: compiling corpus (heap {heap_words} words)...");
    let targets = chaos_targets(heap_words);
    let mut violations = 0usize;
    let mut runs = 0usize;
    let mut total_suspensions = 0u64;
    for t in &targets {
        runs += 1;
        match run_resumable(&t.compiled, slice) {
            Ok((out, suspensions)) => {
                total_suspensions += suspensions;
                if out != t.oracle {
                    violations += 1;
                    eprintln!(
                        "VIOLATION: {}/{} slice {slice}: sliced run diverged from \
                         the uninterrupted oracle",
                        t.name, t.config
                    );
                }
            }
            Err(e) => {
                violations += 1;
                eprintln!("VIOLATION: {}/{} slice {slice}: {e}", t.name, t.config);
            }
        }
    }
    println!(
        "chaos_vm --resume: {runs} corpus runs at slice {slice}: \
         {total_suspensions} suspensions, all outcomes bitwise-checked"
    );

    // In-guest recovery: a Scheme-level handler catches the injected OOM.
    for (label, cfg) in [
        ("traditional", PipelineConfig::traditional()),
        ("abstract-opt", PipelineConfig::abstract_optimized()),
        ("abstract-noopt", PipelineConfig::abstract_unoptimized()),
    ] {
        let result = Compiler::new(cfg.with_heap_words(heap_words))
            .compile(OOM_RECOVERY_SRC)
            .map_err(|e| e.to_string())
            .and_then(|c| {
                c.run_with_fault(FaultPlan::none().with_heap_cap_words(1 << 13))
                    .map_err(|e| e.to_string())
            });
        match result {
            Ok(out) if out.output == "alloc 64" => {
                println!("chaos_vm --resume: {label}: guard caught injected OOM and recovered");
            }
            Ok(out) => {
                violations += 1;
                eprintln!(
                    "VIOLATION: {label}: recovery probe produced {:?}, want \"alloc 64\"",
                    out.output
                );
            }
            Err(e) => {
                violations += 1;
                eprintln!("VIOLATION: {label}: recovery probe failed: {e}");
            }
        }
    }
    violations
}

fn main() {
    let mut heap_words: usize = 1 << 16;
    let mut extra_seed: Option<u64> = None;
    let mut probe = false;
    let mut resume = false;
    let mut verify = false;
    let mut slice: u64 = 4096;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--heap-words" => {
                heap_words = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                extra_seed = args.next().and_then(|v| v.parse().ok());
                if extra_seed.is_none() {
                    usage();
                }
            }
            "--slice" => {
                slice = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--probe" => probe = true,
            "--resume" => resume = true,
            "--verify" => verify = true,
            _ => usage(),
        }
    }

    if verify {
        let violations = verify_battery();
        if violations > 0 {
            std::process::exit(1);
        }
        return;
    }

    if resume {
        let violations = resume_battery(heap_words, slice);
        if violations > 0 {
            std::process::exit(1);
        }
        return;
    }

    eprintln!("chaos_vm: compiling corpus (heap {heap_words} words)...");
    let targets = chaos_targets(heap_words);

    if probe {
        println!(
            "{:<8} {:<15} {:>9} {:>9}",
            "bench", "config", "allocs", "gcs"
        );
        for t in &targets {
            println!(
                "{:<8} {:<15} {:>9} {:>9}",
                t.name, t.config, t.total_allocs, t.oracle.counters.gc_count
            );
        }
        return;
    }

    let mut plans: Vec<(String, FaultPlan)> = vec![
        (
            "gc-every-alloc".into(),
            FaultPlan::none().with_gc_every_alloc(),
        ),
        ("jitter(1)".into(), FaultPlan::none().with_gc_jitter_seed(1)),
        ("jitter(2)".into(), FaultPlan::none().with_gc_jitter_seed(2)),
        (
            "cap(4096)".into(),
            FaultPlan::none().with_heap_cap_words(4096),
        ),
        (
            "cap(16384)".into(),
            FaultPlan::none().with_heap_cap_words(16384),
        ),
    ];
    if let Some(seed) = extra_seed {
        plans.push((
            format!("jitter({seed})"),
            FaultPlan::none().with_gc_jitter_seed(seed),
        ));
    }

    let mut runs = 0usize;
    let mut agreed = 0usize;
    let mut oomed = 0usize;
    let mut classes: BTreeMap<String, usize> = BTreeMap::new();
    let mut violations = Vec::new();
    for t in &targets {
        // Per-target plan: fail half-way through this config's own
        // allocation stream (always inside the run, so always an OOM).
        let fail_mid = FaultPlan::none().with_fail_alloc_at((t.total_allocs / 2).max(1));
        for (label, plan) in plans.iter().cloned().chain(std::iter::once((
            format!("fail-alloc({})", (t.total_allocs / 2).max(1)),
            fail_mid,
        ))) {
            runs += 1;
            match run_chaos(t, plan) {
                ChaosOutcome::Agrees => agreed += 1,
                ChaosOutcome::Failed(e) if e.is_oom() => {
                    oomed += 1;
                    *classes.entry(fault_class(&e)).or_default() += 1;
                }
                ChaosOutcome::Failed(e) => {
                    *classes.entry(fault_class(&e)).or_default() += 1;
                    violations.push(format!(
                        "{}/{} under {label}: unexpected error kind: {e}",
                        t.name, t.config
                    ));
                }
                ChaosOutcome::Diverged { got, want } => violations.push(format!(
                    "{}/{} under {label}: DIVERGED\n  got:  {got}\n  want: {want}",
                    t.name, t.config
                )),
            }
        }
    }

    println!(
        "chaos_vm: {runs} runs over {} targets: {agreed} agreed with the oracle, \
         {oomed} failed with structured OOM, {} violations",
        targets.len(),
        violations.len()
    );
    print_class_table(&classes);
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("VIOLATION: {v}");
        }
        std::process::exit(1);
    }
}

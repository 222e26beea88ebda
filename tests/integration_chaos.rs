//! Chaos battery: the benchmark corpus, compiled under all three pipeline
//! configurations, run under deterministic fault schedules.
//!
//! The contract (see `sxr_vm::FaultPlan`): under *any* plan the machine
//! either reproduces the fault-free oracle's observable behaviour exactly
//! or fails with a structured, recoverable out-of-memory error.  A panic, a
//! corrupted value, or divergent output under any schedule is a GC or
//! pointer-map bug.
//!
//! Debug builds run a trimmed sweep (the release `chaos_vm` binary and the
//! CI `chaos-smoke` job run the full one); set `SXR_CHAOS_FULL=1` to force
//! the full sweep here.

use std::sync::OnceLock;
use sxr::report::{run_resumable, run_resumable_with, ChaosOutcome};
use sxr::{Compiler, FaultPlan, OomPhase, PipelineConfig, VmErrorKind};
use sxr_bench::{chaos_targets, run_chaos, ChaosTarget};
use sxr_vm::{Machine, MachineConfig};

const HEAP_WORDS: usize = 1 << 14;

/// The corpus compiled once, shared by every test in this binary.
fn targets() -> &'static [ChaosTarget] {
    static TARGETS: OnceLock<Vec<ChaosTarget>> = OnceLock::new();
    TARGETS.get_or_init(|| chaos_targets(HEAP_WORDS))
}

fn full_sweep() -> bool {
    !cfg!(debug_assertions) || std::env::var("SXR_CHAOS_FULL").is_ok()
}

/// Targets for the expensive schedules: everything in a release build, a
/// representative allocation-heavy subset in debug builds.
fn expensive_targets(all: &[ChaosTarget]) -> Vec<&ChaosTarget> {
    if full_sweep() {
        all.iter().collect()
    } else {
        all.iter()
            .filter(|t| matches!(t.name, "fib" | "nrev" | "deriv" | "boxes"))
            .collect()
    }
}

fn describe(t: &ChaosTarget, plan: &FaultPlan, outcome: &ChaosOutcome) -> String {
    format!("{}/{} under {plan:?}: {outcome:?}", t.name, t.config)
}

/// Outcome must agree with the oracle — plans that only perturb GC timing
/// (no memory cap) can never legitimately fail.
fn assert_agrees(t: &ChaosTarget, plan: FaultPlan) {
    let outcome = run_chaos(t, plan.clone());
    assert!(
        outcome == ChaosOutcome::Agrees,
        "timing-only plan violated: {}",
        describe(t, &plan, &outcome)
    );
}

/// Outcome must agree or fail with a structured OOM — the two legitimate
/// results for plans that constrain memory.
fn assert_agrees_or_oom(t: &ChaosTarget, plan: FaultPlan) -> Option<&'static str> {
    let outcome = run_chaos(t, plan.clone());
    match &outcome {
        ChaosOutcome::Agrees => None,
        ChaosOutcome::Failed(e) if e.is_oom() => Some(e.kind.label()),
        _ => panic!("memory plan violated: {}", describe(t, &plan, &outcome)),
    }
}

#[test]
fn gc_every_alloc_preserves_observable_behaviour() {
    // The suite's headline acceptance check, so it always covers the full
    // corpus in every configuration — no debug-build trimming here.
    for t in targets() {
        assert_agrees(t, FaultPlan::none().with_gc_every_alloc());
    }
}

#[test]
fn jittered_gc_schedules_preserve_observable_behaviour() {
    let targets = targets();
    let seeds: &[u64] = if full_sweep() {
        &[1, 7, 0xDEAD_BEEF]
    } else {
        &[1, 0xDEAD_BEEF]
    };
    for t in targets {
        for &seed in seeds {
            assert_agrees(t, FaultPlan::none().with_gc_jitter_seed(seed));
        }
    }
}

#[test]
fn scheduled_allocation_failures_are_structured_oom_in_every_config() {
    let targets = targets();
    // Every target fails at ordinals scaled to its *own* fault-free
    // allocation profile, so each configuration is hit at comparable
    // program phases: pool build, early run, mid run, last allocation.
    for t in targets {
        let n = t.total_allocs;
        assert!(n > 0, "{}/{}: corpus programs allocate", t.name, t.config);
        let mut labels = Vec::new();
        for at in [1, 2, n / 2, n] {
            let at = at.max(1);
            let plan = FaultPlan::none().with_fail_alloc_at(at);
            let outcome = run_chaos(t, plan.clone());
            match outcome {
                ChaosOutcome::Failed(e) if e.is_oom() => labels.push(e.kind.label()),
                other => panic!(
                    "scheduled fault must surface as OOM: {}",
                    describe(t, &plan, &other)
                ),
            }
        }
        // Cross-schedule agreement on the error class.
        assert!(
            labels.iter().all(|l| *l == "out-of-memory"),
            "{}/{}: labels {labels:?}",
            t.name,
            t.config
        );
        // An ordinal past the end of the stream never fires.
        assert_agrees(t, FaultPlan::none().with_fail_alloc_at(n + 1_000_000));
    }
}

#[test]
fn tight_heap_caps_agree_or_fail_cleanly() {
    let targets = targets();
    let caps: &[usize] = if full_sweep() {
        &[256, 1 << 12, 1 << 16]
    } else {
        &[256, 1 << 16]
    };
    for t in expensive_targets(targets) {
        for &cap in caps {
            assert_agrees_or_oom(t, FaultPlan::none().with_heap_cap_words(cap));
        }
    }
}

#[test]
fn combined_pressure_gc_every_alloc_under_a_cap() {
    let targets = targets();
    for t in expensive_targets(targets) {
        assert_agrees_or_oom(
            t,
            FaultPlan::none()
                .with_gc_every_alloc()
                .with_heap_cap_words(1 << 15),
        );
    }
}

#[test]
fn error_class_agrees_across_configurations() {
    // Failing each configuration at its own first post-pool allocation
    // must produce the same error class everywhere, keeping faulted runs
    // differentially comparable.
    let targets = targets();
    for chunk in targets.chunks(3) {
        let labels: Vec<Option<&str>> = chunk
            .iter()
            .map(|t| assert_agrees_or_oom(t, FaultPlan::none().with_fail_alloc_at(t.total_allocs)))
            .collect();
        assert!(
            labels.windows(2).all(|w| w[0] == w[1]),
            "{}: error classes diverged across configs: {labels:?}",
            chunk[0].name
        );
    }
}

// -- handled-fault battery ---------------------------------------------------
//
// The recoverable-trap extension of the chaos contract: a *Scheme-level*
// handler installed with `guard` may intercept any recoverable fault
// (including injected out-of-memory), recover, and run to the oracle
// answer — identically under every pipeline configuration.

fn three_configs() -> Vec<(&'static str, PipelineConfig)> {
    vec![
        ("traditional", PipelineConfig::traditional()),
        ("abstract-opt", PipelineConfig::abstract_optimized()),
        ("abstract-noopt", PipelineConfig::abstract_unoptimized()),
    ]
}

/// Attempts a vector far larger than the capped heap; on the delivered
/// out-of-memory condition, retries with a size that fits.  The condition's
/// payload fields (requested/capacity/phase) are printed too, pinning the
/// structured delivery format.
const OOM_RECOVERY_SRC: &str = r#"
(define (alloc-len n) (vector-length (make-vector n 1)))
(define (alloc-robust big small)
  (guard (c ((eq? (condition-kind c) 'out-of-memory)
             (begin
               (display (condition-phase c))
               (write-char #\space)
               (if (fx< 0 (condition-requested c)) (display 'req+) (display 'req-))
               (write-char #\space)
               (alloc-len small))))
    (alloc-len big)))
(display (alloc-robust 200000 64))
"#;

#[test]
fn guard_catches_injected_oom_and_recovers_in_every_config() {
    for (name, cfg) in three_configs() {
        let compiled = Compiler::new(cfg.with_heap_words(1 << 16))
            .compile(OOM_RECOVERY_SRC)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let out = compiled
            .run_with_fault(FaultPlan::none().with_heap_cap_words(1 << 13))
            .unwrap_or_else(|e| panic!("{name}: guard must catch the injected OOM: {e}"));
        assert_eq!(out.output, "alloc req+ 64", "{name}");
    }
}

/// A vector the host cannot back at all: growing the heap for it must end
/// in the same catchable out-of-memory condition as a capped heap, never
/// in a host allocation abort.
const HUGE_ALLOC_SRC: &str = r#"
(display
  (guard (c ((eq? (condition-kind c) 'out-of-memory) (condition-phase c)))
    (vector-length (make-vector 100000000000 0))))
"#;

#[test]
fn host_refused_heap_growth_is_a_catchable_oom_in_every_config() {
    for (name, cfg) in three_configs() {
        let out = Compiler::new(cfg.clone())
            .compile(HUGE_ALLOC_SRC)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .run()
            .unwrap_or_else(|e| panic!("{name}: guard must catch the refused growth: {e}"));
        assert_eq!(out.output, "alloc", "{name}");
        let err = Compiler::new(cfg)
            .compile("(make-vector 100000000000 0)")
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .run()
            .expect_err("no handler installed");
        assert!(
            matches!(
                err.kind,
                VmErrorKind::OutOfMemory {
                    phase: OomPhase::Alloc,
                    ..
                }
            ),
            "{name}: {err}"
        );
    }
}

/// One guarded probe per recoverable fault class, printing the condition
/// kind each handler received.  `raise` of a non-condition must arrive
/// identity-preserved (the bare symbol, not a wrapped condition).
const CAUGHT_KINDS_SRC: &str = r#"
(define (catch-kind thunk)
  (guard (c (#t (if (condition? c) (condition-kind c) c)))
    (thunk)))
(display (catch-kind (lambda () (fxquotient 1 0))))
(write-char #\space)
(display (catch-kind (lambda () (error 'boom))))
(write-char #\space)
(display (catch-kind (lambda () ((lambda (g) (g 1)) 5))))
(write-char #\space)
(display (catch-kind (lambda () (raise 'custom))))
(write-char #\space)
(display (condition-irritant (guard (c (#t c)) (error 'payload))))
"#;

#[test]
fn caught_condition_classes_agree_across_configurations() {
    let mut outputs = Vec::new();
    for (name, cfg) in three_configs() {
        let compiled = Compiler::new(cfg)
            .compile(CAUGHT_KINDS_SRC)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let out = compiled
            .run()
            .unwrap_or_else(|e| panic!("{name}: every probe is guarded: {e}"));
        assert_eq!(
            out.output, "divide-by-zero scheme-error not-a-procedure custom payload",
            "{name}"
        );
        outputs.push(out.output);
    }
    assert!(outputs.windows(2).all(|w| w[0] == w[1]));
}

/// An unhandled `raise` must still fail structurally (terminal error path
/// unchanged by the handler machinery).
#[test]
fn unhandled_raise_is_a_structured_error_in_every_config() {
    for (name, cfg) in three_configs() {
        let compiled = Compiler::new(cfg)
            .compile("(raise 'loose)")
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let err = compiled.run().expect_err("no handler installed");
        assert_eq!(err.kind.label(), "uncaught-condition", "{name}: {err}");
    }
}

// -- suspend/resume determinism ----------------------------------------------

#[test]
fn sliced_resumption_is_invisible_for_the_whole_corpus() {
    // Every corpus benchmark, suspended at arbitrary fuel slices, must
    // produce a bitwise-identical outcome (value, output, and all
    // counters) to its uninterrupted run.
    let slices: &[u64] = if full_sweep() {
        &[1_000, 7_919, 65_536]
    } else {
        &[7_919]
    };
    for t in expensive_targets(targets()) {
        let oracle = &t.oracle;
        for &slice in slices {
            let (out, suspensions) = run_resumable(&t.compiled, slice)
                .unwrap_or_else(|e| panic!("{}/{} slice {slice}: {e}", t.name, t.config));
            assert_eq!(
                &out, oracle,
                "{}/{} slice {slice} ({suspensions} suspensions)",
                t.name, t.config
            );
            assert!(
                suspensions > 0 || oracle.counters.total <= slice,
                "{}/{} slice {slice}: expected at least one suspension",
                t.name,
                t.config
            );
        }
    }
}

#[test]
fn resumption_composes_with_fault_plans() {
    // Suspension must stay invisible even under a perturbed GC schedule:
    // the faulted oracle and the faulted sliced run agree exactly.
    for t in expensive_targets(targets()).into_iter().take(3) {
        let plan = FaultPlan::none().with_gc_jitter_seed(1234);
        let oracle = t
            .compiled
            .run_with_fault(plan.clone())
            .expect("timing-only plan");
        let mut m = t
            .compiled
            .machine_with_fault(plan)
            .expect("machine under plan");
        m.set_fuel(Some(4_096));
        let mut step = m.start().expect("start");
        loop {
            match step {
                sxr::StepResult::Done(w) => {
                    assert_eq!(m.describe(w), oracle.value, "{}/{}", t.name, t.config);
                    assert_eq!(m.output(), oracle.output, "{}/{}", t.name, t.config);
                    assert_eq!(m.counters, oracle.counters, "{}/{}", t.name, t.config);
                    break;
                }
                sxr::StepResult::Suspended(_) => step = m.resume(4_096).expect("resume"),
            }
        }
    }
}

/// Reaches every place the step loop writes the top frame's pc back from
/// its local copy or replaces the frame: jumps to a join point, compare
/// branches taken and not taken, unknown and known calls and tail calls,
/// returns, and a trap that a handler catches.
const PC_WRITE_BACK_SRC: &str = r#"
(define (pcwb-twice f x) (f (f x)))
(define (pcwb-sum n)
  (let pcwb-loop ((i 0) (acc 0))
    (if (fx< i n) (pcwb-loop (fx+ i 1) (fx+ acc i)) acc)))
(define (pcwb-depth n)
  (letrec ((pcwb-down (lambda (k) (if (fx= k 0) 0 (fx+ 1 (pcwb-down (fx- k 1)))))))
    (pcwb-down n)))
(define (pcwb-abs+1 x) (fx+ 1 (if (fx< x 0) (fx- 0 x) x)))
(define (pcwb-quotient a b) (guard (c (#t (condition-kind c))) (fxquotient a b)))
(display (pcwb-twice (lambda (y) (fx* y 3)) 2))
(write-char #\space)
(display (pcwb-sum 10))
(write-char #\space)
(display (pcwb-depth 7))
(write-char #\space)
(display (pcwb-abs+1 -4))
(write-char #\space)
(display (pcwb-quotient 7 0))
(write-char #\space)
(pcwb-quotient 7 2)
"#;

#[test]
fn one_instruction_slices_are_invisible_at_every_pc_write_back() {
    for (name, cfg) in three_configs() {
        // A pc written back wrong can loop forever; the budget ends that.
        let compiled = Compiler::new(cfg.with_instruction_limit(1_000_000))
            .compile(PC_WRITE_BACK_SRC)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let oracle = compiled.run().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            (oracle.value.as_str(), oracle.output.as_str()),
            ("3", "18 45 7 5 divide-by-zero "),
            "{name}"
        );
        let mut slices = 0;
        let one = || {
            slices += 1;
            assert!(
                slices <= oracle.counters.total,
                "{name}: the sliced run overran"
            );
            1
        };
        let (sliced, suspensions) =
            run_resumable_with(&compiled, one).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(sliced, oracle, "{name}");
        assert_eq!(
            suspensions + 1,
            oracle.counters.total,
            "{name}: the run suspended before every instruction but the first"
        );
    }
    // Without the optimizer every function above keeps its own code, so
    // the program holds each instruction the write-back points serve.
    let compiled = Compiler::new(PipelineConfig::abstract_unoptimized())
        .compile(PC_WRITE_BACK_SRC)
        .expect("compiles");
    let mut kinds = std::collections::BTreeSet::new();
    for f in compiled
        .code
        .funs
        .iter()
        .filter(|f| f.name.starts_with("pcwb-"))
    {
        for inst in &f.insts {
            let text = format!("{inst:?}");
            kinds.insert(text.split([' ', '{']).next().unwrap_or("").to_string());
        }
    }
    for kind in [
        "Jump",
        "JumpCmp",
        "Call",
        "CallKnown",
        "TailCall",
        "TailCallKnown",
        "Ret",
        "PushHandler",
    ] {
        assert!(kinds.contains(kind), "no `{kind}` in {kinds:?}");
    }
}

#[test]
fn verified_corpus_never_degrades_to_program_or_memory_faults() {
    // The bytecode-verifier soundness oracle.  Part one: every corpus
    // program verifies cleanly, so the verifier admits every machine the
    // sweeps construct.  Part two: no fault schedule or fuel slicing can
    // then surface a `bad-program` or `bad-memory-access` error — those
    // labels are reserved for programs the verifier rejects at load, and
    // seeing one from verified code means a step went somewhere the
    // verifier claimed it never could.
    let targets = targets();
    for t in targets {
        let report = t.compiled.verify_bytecode();
        assert!(
            report.is_clean(),
            "{}/{}: verifier rejected compiler output: {report}",
            t.name,
            t.config
        );
    }
    let forbidden = ["bad-program", "bad-memory-access"];
    let sweep = expensive_targets(targets);
    for t in &sweep {
        let plans = [
            FaultPlan::none().with_gc_every_alloc(),
            FaultPlan::none().with_gc_jitter_seed(3),
            FaultPlan::none().with_heap_cap_words(4096),
            FaultPlan::none().with_fail_alloc_at((t.total_allocs / 2).max(1)),
        ];
        for plan in plans {
            if let ChaosOutcome::Failed(e) = run_chaos(t, plan.clone()) {
                assert!(
                    !forbidden.contains(&e.kind.label()),
                    "{}/{} under {plan:?}: verified program died with `{}`: {e}",
                    t.name,
                    t.config,
                    e.kind.label()
                );
            }
        }
        if let Err(e) = run_resumable(&t.compiled, 777) {
            assert!(
                !forbidden.contains(&e.kind.label()),
                "{}/{} sliced: verified program died with `{}`: {e}",
                t.name,
                t.config,
                e.kind.label()
            );
        }
    }
}

#[test]
fn loader_and_verifier_agree_on_the_corpus() {
    // The machine's load check and the bytecode verifier share one
    // definition of structure, so with no verifier installed a program
    // loads exactly when the verifier finds it clean.
    for t in targets() {
        let clean = t.compiled.verify_bytecode().is_clean();
        let loads = Machine::new(t.compiled.code.clone(), MachineConfig::default());
        assert_eq!(
            loads.is_ok(),
            clean,
            "{}/{}: load {:?}",
            t.name,
            t.config,
            loads.err()
        );
    }
}

#[test]
fn chaos_runs_are_deterministic() {
    let targets = targets();
    let plans = [
        FaultPlan::none().with_gc_jitter_seed(42),
        FaultPlan::none()
            .with_heap_cap_words(1 << 12)
            .with_gc_jitter_seed(9),
    ];
    for t in expensive_targets(targets).into_iter().take(4) {
        for plan in &plans {
            let a = run_chaos(t, plan.clone());
            let b = run_chaos(t, plan.clone());
            assert!(
                a == b,
                "{}/{} under {plan:?}: {a:?} vs {b:?}",
                t.name,
                t.config
            );
        }
    }
}

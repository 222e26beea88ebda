//! Source→value benchmark of the sxr compiler and VM.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus|kernels|bigprog --seed N --seconds S --trace 0|1
//! ```
//!
//! One process, one thread, one closed-loop client: each program starts
//! only after the previous one has produced its checked value.  The run
//! repeats whole rounds (every program of the workload once, in a seeded
//! order) until `--seconds` have passed.
//!
//! With `--trace 0` every program goes through the public API,
//! `Compiler::compile` → `Compiled::machine` → `Machine::run`, and the run
//! prints the end-to-end metrics, scaled to a fixed host speed by a
//! reference task run before every program (`calib`).  With `--trace 1`
//! untraced rounds alternate with traced ones, which call the layer crates
//! one by one and record a span around each call; the run prints per-layer
//! medians and writes its spans to `.perfbench-out/`.  The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`.

mod calib;
mod gen;
mod staged;
mod stats;

use gen::{Program, Rng};
use staged::{Tracer, STAGES};
use std::collections::BTreeMap;
use std::time::Instant;
use sxr::{Compiled, Compiler, Counters, PipelineConfig};
use sxr_vm::{CodeProgram, Machine, MachineConfig, VmError};

/// Instruction budget of every run; a program that exhausts it fails with
/// `Timeout`.  No workload program executes more than a few 10⁷.
const FUEL: u64 = 2_000_000_000;
/// The small heap that makes allocating programs collect.
const SMALL_HEAP_WORDS: usize = 16_384;
/// Set-up is repeated this many times and `setup_s` is the median.
const SETUPS: usize = 3;
/// Runs of the reference task before and after each set-up.
const SETUP_PROBES: usize = 5;
/// A program's times are scaled by the median of this many runs of the
/// reference task on each side of it.
const PROBE_WINDOW: usize = 4;
/// Program sizes of `bigprog`, in top-level forms.
const BIGPROG_SIZES: &[usize] = &[40, 70, 120, 180, 250];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Corpus,
    Kernels,
    Bigprog,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Config {
    Traditional,
    AbstractOpt,
    AbstractNoOpt,
}

const CONFIGS: [Config; 3] = [
    Config::Traditional,
    Config::AbstractOpt,
    Config::AbstractNoOpt,
];

impl Config {
    fn pipeline(self, small_heap: bool) -> PipelineConfig {
        let cfg = match self {
            Config::Traditional => PipelineConfig::traditional(),
            Config::AbstractOpt => PipelineConfig::abstract_optimized(),
            Config::AbstractNoOpt => PipelineConfig::abstract_unoptimized(),
        }
        .with_instruction_limit(FUEL);
        if small_heap {
            cfg.with_heap_words(SMALL_HEAP_WORDS)
        } else {
            cfg
        }
    }
}

/// One program of a workload in one configuration.
struct Job {
    program: Program,
    config: Config,
    small_heap: bool,
    /// `kernels` compiles at set-up: the public compile, and in a traced
    /// run also the staged one.
    compiled: Option<Compiled>,
    staged: Option<StagedCode>,
}

/// The staged compile's program and optimizer counts.
#[derive(Clone)]
struct StagedCode {
    code: CodeProgram,
    opt: [usize; 5],
}

/// One run on a fresh machine.
struct Run {
    machine: Machine,
    load_ms: f64,
    run_ms: f64,
    value: String,
}

impl Job {
    fn key(&self) -> String {
        let heap = if self.small_heap { "/small-heap" } else { "" };
        format!("{}/{:?}{heap}", self.program.name, self.config)
    }

    fn pipeline(&self) -> PipelineConfig {
        self.config.pipeline(self.small_heap)
    }
}

/// Everything a compile and a run produce that must repeat exactly, and
/// must be the same on the public and the staged path.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    code_insts: usize,
    code_regs: usize,
    opt: [usize; 5],
    value: String,
    output: String,
    counters: Counters,
}

fn code_size(code: &CodeProgram) -> (usize, usize) {
    code.funs
        .iter()
        .fold((0, 0), |(i, r), f| (i + f.insts.len(), r + f.nregs))
}

fn opt_counts(r: &sxr::OptReport) -> [usize; 5] {
    [r.rounds, r.inlined, r.bit_rewrites, r.cse_hits, r.cleaned]
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The public path's timings of one program.
struct Sample {
    job: usize,
    /// The run of the reference task just before this program.
    probe: usize,
    e2e_ms: f64,
    compile_ms: Option<f64>,
    load_ms: f64,
    run_ms: f64,
}

struct Bench {
    workload: Workload,
    jobs: Vec<Job>,
    rng: Rng,
    attempted: u64,
    failed: u64,
    /// Parity or determinism violations (each also counted as a failure).
    violations: Vec<String>,
    fingerprints: Vec<Option<Fingerprint>>,
    samples: Vec<Sample>,
    /// `calib::run_ms` before each untraced program of the timed rounds.
    host_ms: Vec<f64>,
    /// `(reference run, ms)` of every untraced program of the timed rounds,
    /// from the start of its compile to the end of its clean-up.
    busy_ms: Vec<(usize, f64)>,
    /// `kernels`: `(job, Compiler::compile ms, reference run)` of the
    /// compile probes.
    compile_probe_ms: Vec<(usize, f64, usize)>,
    // Traced run only.
    tracer: Tracer,
    traced_e2e_ms: Vec<f64>,
    layers: BTreeMap<&'static str, Vec<f64>>,
    /// `(configuration, user forms, Compiler::compile ms)` of every traced
    /// compile.
    compile_points: Vec<(Config, f64, f64)>,
    rejections: u64,
    programs: usize,
}

extern "C" {
    /// glibc's allocator tuning call.
    fn mallopt(param: i32, value: i32) -> i32;
}

/// `mallopt` parameters: the most malloc arenas threads may use, and the
/// size from which an allocation gets pages of its own.
const M_ARENA_MAX: i32 = -8;
const M_MMAP_THRESHOLD: i32 = -3;

fn main() {
    // Pin two allocator policies that otherwise depend on the order of
    // earlier allocations, and with them the peak RSS (by one 16 MB VM heap)
    // and the cost of `Machine::new`:
    // - `Compiler::compile` allocates on a thread of its own, and which
    //   arena that thread gets varies; one arena removes the choice;
    // - glibc raises its mmap threshold after freeing a large block, so a
    //   VM heap may or may not reuse freed memory; a fixed threshold (the
    //   default, 128 KiB) gives every heap fresh pages, as in a new process.
    // SAFETY: `mallopt` only changes allocator settings, and no other
    // thread exists yet.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload corpus|kernels|bigprog --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let epoch = Instant::now();
    let mut bench = Bench {
        workload: args.workload,
        jobs: Vec::new(),
        rng: Rng::new(args.seed),
        attempted: 0,
        failed: 0,
        violations: Vec::new(),
        fingerprints: Vec::new(),
        samples: Vec::new(),
        host_ms: Vec::new(),
        busy_ms: Vec::new(),
        compile_probe_ms: Vec::new(),
        tracer: Tracer::new(epoch),
        traced_e2e_ms: Vec::new(),
        layers: BTreeMap::new(),
        compile_points: Vec::new(),
        rejections: 0,
        programs: 0,
    };

    let mut setups = Vec::with_capacity(SETUPS);
    let mut previous: Option<Vec<Program>> = None;
    for _ in 0..SETUPS {
        let mut host_ms: Vec<f64> = (0..SETUP_PROBES).map(|_| calib::run_ms()).collect();
        let t = Instant::now();
        bench.setup(args.seed, args.trace);
        let setup_s = t.elapsed().as_secs_f64();
        host_ms.extend((0..SETUP_PROBES).map(|_| calib::run_ms()));
        setups.push((
            setup_s,
            setup_s * calib::NOMINAL_MS / stats::median(&host_ms),
        ));
        // The same seed must give the same inputs.
        let programs: Vec<Program> = bench.jobs.iter().map(|j| j.program.clone()).collect();
        if previous.as_ref().is_some_and(|p| *p != programs) {
            bench.violation("generator: one seed gave two different inputs".into());
        }
        previous = Some(programs);
    }

    let start = Instant::now();
    let min_rounds = if args.trace { 2 } else { 1 };
    let mut rounds = 0usize;
    while rounds < min_rounds || start.elapsed().as_secs_f64() < args.seconds as f64 {
        let mut order: Vec<usize> = (0..bench.jobs.len()).collect();
        bench.rng.shuffle(&mut order);
        // A traced run alternates untraced and traced rounds, so both see
        // the same machine state and the overhead ratio compares like
        // with like.
        let traced = args.trace && rounds % 2 == 1;
        for j in order {
            if traced {
                bench.traced_op(j);
                continue;
            }
            bench.host_ms.push(calib::run_ms());
            bench.compile_probe(j);
            let t = Instant::now();
            bench.untraced_op(j);
            bench.busy_ms.push((bench.host_ms.len() - 1, ms_since(t)));
        }
        rounds += 1;
    }

    let metrics = if args.trace {
        if let Err(e) = bench.write_spans(&args) {
            eprintln!("perfbench: cannot write spans: {e}");
            std::process::exit(1);
        }
        bench.layer_metrics()
    } else {
        let raw: Vec<f64> = setups.iter().map(|s| s.0).collect();
        println!("as measured: setup_s {:.4}", stats::median(&raw));
        let scaled: Vec<f64> = setups.iter().map(|s| s.1).collect();
        bench.end_to_end_metrics(stats::median(&scaled))
    };
    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:>14.4} {unit}");
    }
    for v in &bench.violations {
        println!("violation: {v}");
    }
    // A ratio over no samples (when every program failed) is not a JSON
    // number; such a run is already not correct.
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    let correct = bench.violations.is_empty() && bench.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        bench.attempted,
        bench.failed,
        fields.join(",")
    );
}

impl Bench {
    fn violation(&mut self, what: String) {
        eprintln!("perfbench: {what}");
        self.violations.push(what);
    }

    fn fail(&mut self, job: usize, what: impl std::fmt::Display) {
        self.failed += 1;
        eprintln!("perfbench: {} failed: {what}", self.jobs[job].key());
    }

    /// Checks `fp` against the first fingerprint seen for `job`.
    fn fingerprint(&mut self, job: usize, fp: Fingerprint, path: &str) {
        match &self.fingerprints[job] {
            None => self.fingerprints[job] = Some(fp),
            Some(first) if *first == fp => {}
            Some(first) => {
                let what = format!(
                    "{}: {path} run differs from the first run: {first:?} vs {fp:?}",
                    self.jobs[job].key()
                );
                self.failed += 1;
                self.violation(what);
            }
        }
    }

    /// Generates the workload's programs from the seed, compiles them when
    /// the workload compiles at set-up, and warms up.
    fn setup(&mut self, seed: u64, trace: bool) {
        let mut rng = Rng::new(seed);
        let mut jobs = Vec::new();
        let mut add = |program: &Program, small_heap: bool| {
            for config in CONFIGS {
                jobs.push(Job {
                    program: program.clone(),
                    config,
                    small_heap,
                    compiled: None,
                    staged: None,
                });
            }
        };
        match self.workload {
            Workload::Corpus => {
                for b in sxr_bench::BENCHMARKS {
                    let program = Program {
                        name: b.name.to_string(),
                        source: b.source.to_string(),
                        expect: b.expect.to_string(),
                        forms: sxr_sexp::parse_all(b.source).map_or(0, |f| f.len()),
                    };
                    add(&program, false);
                }
            }
            Workload::Kernels => {
                for name in gen::KERNELS {
                    let program = gen::kernel(name, &mut rng);
                    add(&program, false);
                    if gen::ALLOCATING_KERNELS.contains(name) {
                        add(&program, true);
                    }
                }
            }
            Workload::Bigprog => {
                for (i, &n) in BIGPROG_SIZES.iter().enumerate() {
                    add(&gen::bigprog(&mut rng, n, i % 2 == 1), false);
                }
            }
        }
        self.jobs = jobs;
        self.fingerprints = vec![None; self.jobs.len()];
        self.layers.clear();
        self.compile_points.clear();
        if self.workload == Workload::Kernels {
            for j in 0..self.jobs.len() {
                self.setup_compile(j, trace);
            }
        }
        // Warm-up: one untimed round, so the allocator has grown and every
        // program has run once before timing starts.
        let (attempted, failed) = (self.attempted, self.failed);
        let samples = self.samples.len();
        for j in 0..self.jobs.len() {
            self.untraced_op(j);
        }
        self.attempted = attempted;
        self.failed = failed;
        self.samples.truncate(samples);
    }

    fn setup_compile(&mut self, j: usize, trace: bool) {
        let cfg = self.jobs[j].pipeline();
        match Compiler::new(cfg).compile(&self.jobs[j].program.source) {
            Ok(c) => self.jobs[j].compiled = Some(c),
            Err(e) => {
                self.attempted += 1;
                self.fail(j, e);
                return;
            }
        }
        if trace {
            let id = self.new_program_id();
            let span = self.tracer.open("setup.compile", None, id);
            let staged = self.staged_compile(j, span, id);
            self.tracer.close(span);
            if let Some(s) = staged {
                let opt = self.record_compile(j, span, id, &s);
                self.jobs[j].staged = Some(StagedCode { code: s.code, opt });
            }
        }
    }

    fn new_program_id(&mut self) -> usize {
        self.programs += 1;
        self.programs - 1
    }

    /// `kernels` runs the programs compiled at set-up.  So that its compile
    /// time is sampled across the whole run like every other time, each of
    /// its timed programs is first compiled again, outside the program's
    /// own timing.
    fn compile_probe(&mut self, j: usize) {
        let job = &self.jobs[j];
        if job.compiled.is_none() {
            return;
        }
        let t = Instant::now();
        let probe = Compiler::new(job.pipeline()).compile(&job.program.source);
        let ms = ms_since(t);
        match probe {
            Ok(_) => self.compile_probe_ms.push((j, ms, self.host_ms.len() - 1)),
            Err(e) => {
                self.attempted += 1;
                self.fail(j, e);
            }
        }
    }

    /// Source → checked value through the public API (or, for `kernels`,
    /// a fresh machine for the set-up's compiled program).
    fn untraced_op(&mut self, j: usize) {
        self.attempted += 1;
        let job = &self.jobs[j];
        let t0 = Instant::now();
        let fresh;
        let (compiled, compile_ms) = match &job.compiled {
            Some(c) => (c, None),
            None => match Compiler::new(job.pipeline()).compile(&job.program.source) {
                Ok(c) => {
                    fresh = c;
                    (&fresh, Some(ms_since(t0)))
                }
                Err(e) => return self.fail(j, e),
            },
        };
        let t1 = Instant::now();
        let mut m = match compiled.machine() {
            Ok(m) => m,
            Err(e) => return self.fail(j, e),
        };
        let load_ms = ms_since(t1);
        let t2 = Instant::now();
        let result = m.run();
        let run_ms = ms_since(t2);
        let w = match result {
            Ok(w) => w,
            Err(e) => return self.fail(j, e),
        };
        let value = m.describe(w);
        let ok = value == job.program.expect;
        let e2e_ms = ms_since(t0);
        let (code_insts, code_regs) = code_size(&compiled.code);
        let fp = Fingerprint {
            code_insts,
            code_regs,
            opt: opt_counts(&compiled.opt_report),
            value,
            output: m.output().to_string(),
            counters: m.counters.clone(),
        };
        if !ok {
            let what = format!("value {} != expected {}", fp.value, job.program.expect);
            return self.fail(j, what);
        }
        self.fingerprint(j, fp, "public");
        self.samples.push(Sample {
            job: j,
            probe: self.host_ms.len().saturating_sub(1),
            e2e_ms,
            compile_ms,
            load_ms,
            run_ms,
        });
    }

    /// The staged compile of job `j`, its spans under `parent`.
    fn staged_compile(&mut self, j: usize, parent: usize, id: usize) -> Option<staged::Staged> {
        let job = &self.jobs[j];
        match staged::compile_staged(
            &job.pipeline(),
            &job.program.source,
            &mut self.tracer,
            parent,
            id,
        ) {
            Ok(s) => Some(s),
            Err(e) => {
                self.fail(j, e);
                None
            }
        }
    }

    /// Records the compile layers' metrics of a staged compile whose spans
    /// are under `parent`, and checks it against `Compiler::compile`.
    fn record_compile(
        &mut self,
        j: usize,
        parent: usize,
        id: usize,
        staged: &staged::Staged,
    ) -> [usize; 5] {
        let stage_ms: f64 = STAGES.iter().map(|s| self.tracer.child_ms(parent, s)).sum();
        for (stage, metric) in [
            ("sexp.parse", "sexp.parse_ms"),
            ("ast.expand", "ast.expand_ms"),
            ("ast.assign", "ast.assign_ms"),
            ("ir.lower", "ir.lower_ms"),
            ("ir.clconv", "ir.clconv_ms"),
            ("ir.validate", "ir.validate_ms"),
            ("opt.scan", "opt.scan_ms"),
            ("opt.optimize", "opt.optimize_ms"),
            ("codegen.generate", "codegen.generate_ms"),
        ] {
            let ms = self.tracer.child_ms(parent, stage);
            self.layer(metric, ms);
        }
        if self.jobs[j].config == Config::Traditional {
            let ms = self.tracer.child_ms(parent, "codegen.intrinsics");
            self.layer("codegen.intrinsics_ms", ms);
        }
        let r = &staged.opt_report;
        if r.rounds > 0 {
            let ms = self.tracer.child_ms(parent, "opt.optimize") / r.rounds as f64;
            self.layer("opt.ms_per_round", ms);
        }
        let [rounds, inlined, bit_rewrites, cse_hits, cleaned] = opt_counts(r);
        self.layer("opt.rounds", rounds as f64);
        self.layer("opt.inlined", inlined as f64);
        self.layer("opt.bit_rewrites", bit_rewrites as f64);
        self.layer("opt.cse_hits", cse_hits as f64);
        self.layer("opt.cleaned", cleaned as f64);
        self.layer("sexp.forms", staged.forms as f64);
        let (insts, regs) = code_size(&staged.code);
        self.layer("codegen.insts", insts as f64);
        self.layer("codegen.nregs", regs as f64);
        self.layer("codegen.regs_per_inst", regs as f64 / insts.max(1) as f64);

        // Parity: the public compile must produce the same program.
        let span = self.tracer.open("core.compile", None, id);
        let public = Compiler::new(self.jobs[j].pipeline()).compile(&self.jobs[j].program.source);
        self.tracer.close(span);
        let compile_ms = self.tracer.spans[span].ms();
        self.layer("core.compile_ms", compile_ms);
        self.layer("core.overhead_ms", compile_ms - stage_ms);
        let job = &self.jobs[j];
        self.compile_points
            .push((job.config, job.program.forms as f64, compile_ms));
        match public {
            Ok(c)
                if staged::same_code(&c.code, &staged.code)
                    && c.opt_report == staged.opt_report => {}
            Ok(_) => {
                let what = format!(
                    "{}: staged compile differs from Compiler::compile",
                    self.jobs[j].key()
                );
                self.failed += 1;
                self.violation(what);
            }
            Err(e) => {
                let what = format!(
                    "{}: Compiler::compile failed where the staged compile did not: {e}",
                    self.jobs[j].key()
                );
                self.failed += 1;
                self.violation(what);
            }
        }
        opt_counts(&staged.opt_report)
    }

    fn layer(&mut self, metric: &'static str, value: f64) {
        self.layers.entry(metric).or_default().push(value);
    }

    /// Source → checked value through the layer crates, one span per call.
    fn traced_op(&mut self, j: usize) {
        self.attempted += 1;
        let id = self.new_program_id();
        let compiled_at_setup = self.jobs[j].staged.clone();
        let top = self.tracer.open("program", None, id);
        let fresh = match compiled_at_setup {
            Some(_) => None,
            None => match self.staged_compile(j, top, id) {
                Some(s) => Some(s),
                None => return self.tracer.close(top),
            },
        };
        let code = match (&compiled_at_setup, &fresh) {
            (Some(c), _) => &c.code,
            (None, Some(s)) => &s.code,
            (None, None) => unreachable!("a traced op has code"),
        };
        let report = self.tracer.span("analysis.bcverify", Some(top), id, || {
            sxr_analysis::verify_program(code)
        });
        let own = if report.is_clean() {
            let heap_words = self.jobs[j].pipeline().heap_words;
            Some(self.traced_run(code, heap_words, Some(top), id))
        } else {
            None
        };
        self.tracer.close(top);
        let opt = match (&compiled_at_setup, &fresh) {
            (Some(c), _) => c.opt,
            (None, Some(s)) => self.record_compile(j, top, id, s),
            (None, None) => unreachable!("a traced op has code"),
        };
        self.rejections += report.rejections.len() as u64;
        let Some(own) = own else {
            let first = report.first().map(ToString::to_string).unwrap_or_default();
            return self.fail(j, format!("bytecode verifier: {first}"));
        };
        let (insts, regs) = code_size(code);
        let own = match own {
            Ok(r) if r.value == self.jobs[j].program.expect => r,
            Ok(r) => {
                let what = format!(
                    "value {} != expected {}",
                    r.value, self.jobs[j].program.expect
                );
                return self.fail(j, what);
            }
            Err(e) => return self.fail(j, e),
        };
        let e2e = self.tracer.spans[top].ms();
        self.traced_e2e_ms.push(e2e);
        let bcverify_ms = self.tracer.child_ms(top, "analysis.bcverify");
        self.layer("analysis.bcverify_ms", bcverify_ms);
        self.layer(
            "analysis.bcverify_ns_per_inst",
            bcverify_ms * 1e6 / insts.max(1) as f64,
        );
        self.layer("vm.load_ms", own.load_ms);
        self.layer("vm.run_ms", own.run_ms);
        let c = &own.machine.counters;
        self.layer("vm.insts", c.total as f64);
        // Corpus programs reset their counters after their own set-up, so
        // their counts cover less than the timed run.
        if self.workload != Workload::Corpus {
            self.layer("vm.ns_per_inst", own.run_ms * 1e6 / c.total.max(1) as f64);
        }
        self.layer("vm.calls", c.calls as f64);
        self.layer("vm.alloc_words", c.allocated_words as f64);

        // GC cost, from outside: the same code on the other heap size.
        let small_heap = self.jobs[j].small_heap;
        let other_heap = if small_heap {
            self.jobs[j].config.pipeline(false).heap_words
        } else {
            SMALL_HEAP_WORDS
        };
        let other = match self.traced_run(code, other_heap, None, id) {
            Ok(r) if r.value == own.value => r,
            Ok(r) => {
                return self.fail(
                    j,
                    format!("value {} on a heap of {other_heap} words", r.value),
                )
            }
            Err(e) => return self.fail(j, format!("on a heap of {other_heap} words: {e}")),
        };
        let (small, default) = if small_heap {
            (&own, &other)
        } else {
            (&other, &own)
        };
        self.layer("vm.gc_count", small.machine.counters.gc_count as f64);
        self.layer(
            "vm.gc_copied_words",
            small.machine.counters.gc_copied_words as f64,
        );
        self.layer("vm.gc_ms", small.run_ms - default.run_ms);

        let fp = Fingerprint {
            code_insts: insts,
            code_regs: regs,
            opt,
            output: own.machine.output().to_string(),
            counters: own.machine.counters.clone(),
            value: own.value,
        };
        self.fingerprint(j, fp, "staged");
    }

    /// `Machine::new` on already-verified code, then `Machine::run`.
    fn traced_run(
        &mut self,
        code: &CodeProgram,
        heap_words: usize,
        parent: Option<usize>,
        id: usize,
    ) -> Result<Run, VmError> {
        let config = MachineConfig {
            heap_words,
            instruction_limit: Some(FUEL),
            // `verify_program` has accepted this code in its own span;
            // the machine takes that verdict instead of verifying again,
            // and runs on the same dispatch loop as the public path.
            verifier: Some(already_verified),
            ..MachineConfig::default()
        };
        let (load, run) = match parent {
            Some(_) => ("vm.load", "vm.run"),
            None => ("vm.load_other_heap", "vm.run_other_heap"),
        };
        let s = self.tracer.open(load, parent, id);
        let m = Machine::new(code.clone(), config);
        self.tracer.close(s);
        let load_ms = self.tracer.spans[s].ms();
        let mut m = m?;
        let s = self.tracer.open(run, parent, id);
        let w = m.run();
        self.tracer.close(s);
        let run_ms = self.tracer.spans[s].ms();
        let value = m.describe(w?);
        Ok(Run {
            machine: m,
            load_ms,
            run_ms,
            value,
        })
    }

    fn write_spans(&self, args: &Args) -> std::io::Result<()> {
        let dir = std::path::Path::new(".perfbench-out");
        std::fs::create_dir_all(dir)?;
        let name = format!("spans-{}-{}.jsonl", args.workload_name, args.seed);
        std::fs::write(dir.join(name), self.tracer.to_jsonl())
    }

    /// The factor that takes a time measured after reference run `probe`
    /// to the speed at which the reference task takes `calib::NOMINAL_MS`.
    fn speed(&self, probe: usize) -> f64 {
        let lo = probe.saturating_sub(PROBE_WINDOW);
        let hi = (probe + PROBE_WINDOW + 1).min(self.host_ms.len());
        calib::NOMINAL_MS / stats::median(&self.host_ms[lo..hi])
    }

    /// The e2e, compile, load and run times, each the geomean over the
    /// workload's programs of the program's median, and programs per
    /// second; every time taken after reference run `p` is multiplied by
    /// `scale(p)`.
    fn timings(&self, scale: impl Fn(usize) -> f64) -> [f64; 5] {
        let per_job = |times: &mut dyn Iterator<Item = (usize, f64, usize)>| {
            let mut by_job = vec![Vec::new(); self.jobs.len()];
            for (job, ms, probe) in times {
                by_job[job].push(ms * scale(probe));
            }
            let medians: Vec<f64> = by_job
                .iter()
                .filter(|xs| !xs.is_empty())
                .map(|xs| stats::median(xs))
                .collect();
            stats::geomean(&medians)
        };
        let of = |f: fn(&Sample) -> Option<f64>| {
            per_job(
                &mut self
                    .samples
                    .iter()
                    .filter_map(|s| f(s).map(|ms| (s.job, ms, s.probe))),
            )
        };
        let compile = if self.workload == Workload::Kernels {
            per_job(&mut self.compile_probe_ms.iter().copied())
        } else {
            of(|s| s.compile_ms)
        };
        let busy_s: f64 = self
            .busy_ms
            .iter()
            .map(|&(p, ms)| ms * scale(p))
            .sum::<f64>()
            / 1e3;
        [
            of(|s| Some(s.e2e_ms)),
            compile,
            of(|s| Some(s.load_ms)),
            of(|s| Some(s.run_ms)),
            self.samples.len() as f64 / busy_s,
        ]
    }

    fn end_to_end_metrics(&self, setup_s: f64) -> Vec<(&'static str, f64, &'static str)> {
        let raw = self.timings(|_| 1.0);
        println!(
            "as measured: e2e_ms_p50 {:.4} compile_ms_p50 {:.4} load_ms_p50 {:.4} \
             run_ms_p50 {:.4} programs_per_s {:.4}; reference task {:.4} ms",
            raw[0],
            raw[1],
            raw[2],
            raw[3],
            raw[4],
            stats::median(&self.host_ms)
        );
        let [e2e, compile, load, run, per_s] = self.timings(|r| self.speed(r));
        let code_insts: Vec<f64> = self
            .fingerprints
            .iter()
            .flatten()
            .map(|f| f.code_insts as f64)
            .collect();
        vec![
            ("setup_s", setup_s, "s"),
            ("e2e_ms_p50", e2e, "ms"),
            ("compile_ms_p50", compile, "ms"),
            ("load_ms_p50", load, "ms"),
            ("run_ms_p50", run, "ms"),
            ("programs_per_s", per_s, "1/s"),
            (
                "ok_ratio",
                1.0 - self.failed as f64 / self.attempted as f64,
                "ratio",
            ),
            ("code_insts", stats::median(&code_insts), "insts"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            ("opt_vs_trad_run", self.opt_vs_trad_run(), "ratio"),
        ]
    }

    /// Geomean over the workload's programs (default heap) of the
    /// AbstractOpt median run time over the Traditional one.
    fn opt_vs_trad_run(&self) -> f64 {
        let run_ms = |name: &str, config: Config| {
            let xs: Vec<f64> = self
                .samples
                .iter()
                .filter(|s| {
                    let job = &self.jobs[s.job];
                    job.program.name == name && job.config == config && !job.small_heap
                })
                .map(|s| s.run_ms)
                .collect();
            stats::median(&xs)
        };
        let mut names: Vec<&str> = self.jobs.iter().map(|j| j.program.name.as_str()).collect();
        names.dedup();
        let ratios: Vec<f64> = names
            .iter()
            .map(|n| run_ms(n, Config::AbstractOpt) / run_ms(n, Config::Traditional))
            .filter(|r| r.is_finite() && *r > 0.0)
            .collect();
        stats::geomean(&ratios)
    }

    fn layer_metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let med = |k: &str| self.layers.get(k).map_or(0.0, |v| stats::median(v));
        let untraced: Vec<f64> = self.samples.iter().map(|s| s.e2e_ms).collect();
        // The tail of the untraced rounds: it repeats less well from run to
        // run than the medians, so it is reported here, without a bound.
        let (tail_p, tail_ms) = stats::tail(&untraced);
        println!("e2e_ms_tail is p{tail_p} of {} samples", untraced.len());
        // Only `bigprog` varies program size; the worst-scaling
        // configuration sets the exponent.
        let exponent = if self.workload == Workload::Bigprog {
            CONFIGS
                .iter()
                .map(|&c| {
                    let pts: Vec<(f64, f64)> = self
                        .compile_points
                        .iter()
                        .filter(|p| p.0 == c)
                        .map(|p| (p.1, p.2))
                        .collect();
                    stats::log_log_slope(&pts)
                })
                .fold(f64::MIN, f64::max)
        } else {
            0.0
        };
        let mut out = Vec::new();
        for (name, unit) in LAYER_METRICS {
            let value = match *name {
                "analysis.rejections" => self.rejections as f64,
                "trace.overhead_ratio" => {
                    stats::median(&self.traced_e2e_ms) / stats::median(&untraced)
                }
                "compile_exponent" => exponent,
                "e2e_ms_tail" => tail_ms,
                "host.reference_ms" => stats::median(&self.host_ms),
                k => med(k),
            };
            out.push((*name, value, *unit));
        }
        out
    }
}

/// The per-layer metrics of a traced run, with their units, in report order.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("e2e_ms_tail", "ms"),
    ("sexp.parse_ms", "ms"),
    ("sexp.forms", "count"),
    ("ast.expand_ms", "ms"),
    ("ast.assign_ms", "ms"),
    ("ir.lower_ms", "ms"),
    ("ir.clconv_ms", "ms"),
    ("ir.validate_ms", "ms"),
    ("opt.scan_ms", "ms"),
    ("opt.optimize_ms", "ms"),
    ("opt.ms_per_round", "ms"),
    ("opt.rounds", "count"),
    ("opt.inlined", "count"),
    ("opt.bit_rewrites", "count"),
    ("opt.cse_hits", "count"),
    ("opt.cleaned", "count"),
    ("compile_exponent", "ratio"),
    ("codegen.intrinsics_ms", "ms"),
    ("codegen.generate_ms", "ms"),
    ("codegen.insts", "insts"),
    ("codegen.nregs", "regs"),
    ("codegen.regs_per_inst", "ratio"),
    ("analysis.bcverify_ms", "ms"),
    ("analysis.bcverify_ns_per_inst", "ns"),
    ("analysis.rejections", "count"),
    ("vm.load_ms", "ms"),
    ("vm.run_ms", "ms"),
    ("vm.insts", "insts"),
    ("vm.ns_per_inst", "ns"),
    ("vm.calls", "count"),
    ("vm.alloc_words", "words"),
    ("vm.gc_count", "count"),
    ("vm.gc_copied_words", "words"),
    ("vm.gc_ms", "ms"),
    ("core.compile_ms", "ms"),
    ("core.overhead_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("host.reference_ms", "ms"),
];

fn already_verified(_: &CodeProgram) -> Result<(), VmError> {
    Ok(())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad value for --trace: {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let name = workload.ok_or("missing --workload")?;
        Ok(Args {
            workload: match name.as_str() {
                "corpus" => Workload::Corpus,
                "kernels" => Workload::Kernels,
                "bigprog" => Workload::Bigprog,
                _ => return Err(format!("unknown workload {name}")),
            },
            workload_name: name,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?.max(1),
            trace: trace.unwrap_or(false),
        })
    }
}

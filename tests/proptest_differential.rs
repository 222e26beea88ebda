//! Property-based differential testing: generate random well-formed
//! programs and require every pipeline configuration to agree on their
//! output. Random programs reach operator combinations the hand-written
//! suites never think of; any divergence is a miscompilation in one of the
//! representation-handling paths.
//!
//! Generation is driven by a small deterministic in-tree PRNG (the build
//! environment has no network access for external property-testing crates);
//! failures print the seed and the offending program so a case can be
//! replayed exactly:
//!
//! ```text
//! SXR_FUZZ_SEED=<seed> SXR_FUZZ_ITERS=<n> cargo test --test proptest_differential
//! ```
//!
//! Every case also re-runs under the GC-on-every-allocation fault schedule
//! ([`FaultPlan::with_gc_every_alloc`]): the generated programs allocate
//! (pairs, vectors, closures), so forcing a collection at every safe point
//! shakes out missing-root and stale-pointer bugs that normal GC timing
//! almost never reaches.
//!
//! One rotating configuration per case additionally replays under
//! fuel-sliced suspend/resume with *random* slice sizes drawn from the same
//! seeded stream: suspension points land at arbitrary instruction
//! boundaries, and the resumed outcome (value, output, every counter) must
//! be bitwise identical to the uninterrupted run.

use sxr::report::run_resumable_with;
use sxr::{Compiler, FaultPlan, PipelineConfig};

/// Deterministic xorshift64* PRNG — the sequence is fixed per seed, so every
/// CI run tests the same programs and failures reproduce exactly.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform in `0..n` (n > 0).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn i32_in(&mut self, lo: i32, hi: i32) -> i32 {
        lo + (self.next() % (hi - lo) as u64) as i32
    }

    fn bool(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

/// A well-typed expression generator. Every generated program terminates,
/// raises no runtime errors, and uses only exact arithmetic.
#[derive(Debug, Clone)]
enum IntExpr {
    Lit(i32),
    Var(usize), // de Bruijn-ish index into bound int vars
    Add(Box<IntExpr>, Box<IntExpr>),
    Sub(Box<IntExpr>, Box<IntExpr>),
    Mul(Box<IntExpr>, Box<IntExpr>),
    // quotient/remainder with a divisor forced nonzero
    Quot(Box<IntExpr>, Box<IntExpr>),
    Rem(Box<IntExpr>, Box<IntExpr>),
    If(Box<BoolExpr>, Box<IntExpr>, Box<IntExpr>),
    Let(Box<IntExpr>, Box<IntExpr>), // binds one more var in body
    // (length (list ...)) and list folds
    SumList(Vec<IntExpr>),
    CarCons(Box<IntExpr>, Box<IntExpr>),
    VecRef(Vec<IntExpr>, usize),
    CharRound(Box<IntExpr>),
    Apply1(Box<IntExpr>), // ((lambda (x) (fx+ x 1)) e)
    // Heap-allocating forms: these make the gc-every-alloc re-run bite.
    CdrCons(Box<IntExpr>, Box<IntExpr>),
    // let-bound vector, mutated then read back: exercises vector-set!
    // against a vector that survives allocations (and forced GCs).
    VecSet(Vec<IntExpr>, usize, Box<IntExpr>, usize),
    // let-bound closure applied twice: the closure cell itself lives on
    // the heap across the argument evaluations.
    LetLambda(Box<IntExpr>, Box<IntExpr>, Box<IntExpr>),
    // length/append/reverse churn: builds short lists whose spines must
    // survive the allocations of the later ones.
    ListChurn(Vec<IntExpr>, Vec<IntExpr>),
}

#[derive(Debug, Clone)]
enum BoolExpr {
    Lit(bool),
    Lt(Box<IntExpr>, Box<IntExpr>),
    Eq(Box<IntExpr>, Box<IntExpr>),
    Not(Box<BoolExpr>),
    And(Box<BoolExpr>, Box<BoolExpr>),
    Or(Box<BoolExpr>, Box<BoolExpr>),
    NullTest(Vec<IntExpr>),
}

/// Generates an expression of height at most `fuel`.
fn gen_int(rng: &mut Rng, fuel: usize) -> IntExpr {
    if fuel == 0 {
        return if rng.bool() {
            IntExpr::Lit(rng.i32_in(-1000, 1000))
        } else {
            IntExpr::Var(rng.below(4))
        };
    }
    let f = fuel - 1;
    match rng.below(18) {
        0 => IntExpr::Lit(rng.i32_in(-1000, 1000)),
        1 => IntExpr::Var(rng.below(4)),
        2 => IntExpr::Add(Box::new(gen_int(rng, f)), Box::new(gen_int(rng, f))),
        3 => IntExpr::Sub(Box::new(gen_int(rng, f)), Box::new(gen_int(rng, f))),
        4 => IntExpr::Mul(Box::new(gen_int(rng, f)), Box::new(gen_int(rng, f))),
        5 => IntExpr::Quot(Box::new(gen_int(rng, f)), Box::new(gen_int(rng, f))),
        6 => IntExpr::Rem(Box::new(gen_int(rng, f)), Box::new(gen_int(rng, f))),
        7 => IntExpr::If(
            Box::new(gen_bool(rng, f.min(3))),
            Box::new(gen_int(rng, f)),
            Box::new(gen_int(rng, f)),
        ),
        8 => IntExpr::Let(Box::new(gen_int(rng, f)), Box::new(gen_int(rng, f))),
        9 => IntExpr::SumList((0..rng.below(4)).map(|_| gen_int(rng, f)).collect()),
        10 => IntExpr::CarCons(Box::new(gen_int(rng, f)), Box::new(gen_int(rng, f))),
        11 => IntExpr::VecRef(
            (0..1 + rng.below(3)).map(|_| gen_int(rng, f)).collect(),
            rng.below(64),
        ),
        12 => IntExpr::CharRound(Box::new(gen_int(rng, f))),
        13 => IntExpr::Apply1(Box::new(gen_int(rng, f))),
        14 => IntExpr::CdrCons(Box::new(gen_int(rng, f)), Box::new(gen_int(rng, f))),
        15 => IntExpr::VecSet(
            (0..1 + rng.below(3)).map(|_| gen_int(rng, f)).collect(),
            rng.below(64),
            Box::new(gen_int(rng, f)),
            rng.below(64),
        ),
        16 => IntExpr::LetLambda(
            Box::new(gen_int(rng, f)),
            Box::new(gen_int(rng, f)),
            Box::new(gen_int(rng, f)),
        ),
        _ => IntExpr::ListChurn(
            (0..rng.below(3)).map(|_| gen_int(rng, f)).collect(),
            (0..rng.below(3)).map(|_| gen_int(rng, f)).collect(),
        ),
    }
}

fn gen_bool(rng: &mut Rng, fuel: usize) -> BoolExpr {
    if fuel == 0 {
        return BoolExpr::Lit(rng.bool());
    }
    let f = fuel - 1;
    match rng.below(7) {
        0 => BoolExpr::Lit(rng.bool()),
        1 => BoolExpr::Lt(Box::new(gen_int(rng, f)), Box::new(gen_int(rng, f))),
        2 => BoolExpr::Eq(Box::new(gen_int(rng, f)), Box::new(gen_int(rng, f))),
        3 => BoolExpr::Not(Box::new(gen_bool(rng, f))),
        4 => BoolExpr::And(Box::new(gen_bool(rng, f)), Box::new(gen_bool(rng, f))),
        5 => BoolExpr::Or(Box::new(gen_bool(rng, f)), Box::new(gen_bool(rng, f))),
        _ => BoolExpr::NullTest((0..rng.below(3)).map(|_| gen_int(rng, f)).collect()),
    }
}

fn render_int(e: &IntExpr, depth: usize, out: &mut String) {
    match e {
        IntExpr::Lit(n) => out.push_str(&n.to_string()),
        IntExpr::Var(i) => {
            if depth == 0 {
                out.push('7'); // no vars in scope: a constant
            } else {
                out.push_str(&format!("v{}", i % depth));
            }
        }
        IntExpr::Add(a, b) => bin(out, "fx+", a, b, depth),
        IntExpr::Sub(a, b) => bin(out, "fx-", a, b, depth),
        IntExpr::Mul(a, b) => {
            // Keep magnitudes bounded: multiply remainders.
            out.push_str("(fx* (fxremainder ");
            render_int(a, depth, out);
            out.push_str(" 1000) (fxremainder ");
            render_int(b, depth, out);
            out.push_str(" 1000))");
        }
        IntExpr::Quot(a, b) => safediv(out, "fxquotient", a, b, depth),
        IntExpr::Rem(a, b) => safediv(out, "fxremainder", a, b, depth),
        IntExpr::If(c, t, e2) => {
            out.push_str("(if ");
            render_bool(c, depth, out);
            out.push(' ');
            render_int(t, depth, out);
            out.push(' ');
            render_int(e2, depth, out);
            out.push(')');
        }
        IntExpr::Let(init, body) => {
            out.push_str(&format!("(let ((v{depth} "));
            render_int(init, depth, out);
            out.push_str(")) ");
            render_int(body, depth + 1, out);
            out.push(')');
        }
        IntExpr::SumList(items) => {
            out.push_str("(fold-left fx+ 0 ");
            render_list(items, depth, out);
            out.push(')');
        }
        IntExpr::CarCons(a, b) => {
            out.push_str("(car (cons ");
            render_int(a, depth, out);
            out.push(' ');
            render_int(b, depth, out);
            out.push_str("))");
        }
        IntExpr::VecRef(items, i) => {
            let idx = if items.is_empty() { 0 } else { i % items.len() };
            out.push_str("(vector-ref (list->vector ");
            render_list(items, depth, out);
            out.push_str(&format!(") {idx}"));
            out.push(')');
        }
        IntExpr::CharRound(a) => {
            // (char->integer (integer->char (fxabs (fxremainder e 1000))))
            out.push_str("(char->integer (integer->char (fxabs (fxremainder ");
            render_int(a, depth, out);
            out.push_str(" 1000))))");
        }
        IntExpr::Apply1(a) => {
            out.push_str("((lambda (q) (fx+ q 1)) ");
            render_int(a, depth, out);
            out.push(')');
        }
        IntExpr::CdrCons(a, b) => {
            out.push_str("(cdr (cons ");
            render_int(a, depth, out);
            out.push(' ');
            render_int(b, depth, out);
            out.push_str("))");
        }
        IntExpr::VecSet(items, i, val, j) => {
            // (let ((w (list->vector (list ...))))
            //   (begin (vector-set! w i val) (fx+ (vector-ref w i) (vector-ref w j))))
            // Nested occurrences shadow `w`; inner uses bind to the inner
            // vector, which is fine — both sides of the differential see
            // the same program.
            let i = if items.is_empty() { 0 } else { i % items.len() };
            let j = if items.is_empty() { 0 } else { j % items.len() };
            out.push_str("(let ((w (list->vector ");
            render_list(items, depth, out);
            out.push_str("))) (begin (vector-set! w ");
            out.push_str(&i.to_string());
            out.push(' ');
            render_int(val, depth, out);
            out.push_str(&format!(") (fx+ (vector-ref w {i}) (vector-ref w {j}))))"));
        }
        IntExpr::LetLambda(body, x, y) => {
            // The lambda's parameter uses the next var slot, so `body` can
            // reference it (and any outer binding) through Var.
            out.push_str(&format!("(let ((g (lambda (v{depth}) "));
            render_int(body, depth + 1, out);
            out.push_str("))) (fx+ (g ");
            render_int(x, depth, out);
            out.push_str(") (g ");
            render_int(y, depth, out);
            out.push_str(")))");
        }
        IntExpr::ListChurn(xs, ys) => {
            out.push_str("(fx+ (length (reverse ");
            render_list(xs, depth, out);
            out.push_str(")) (fold-left fx+ 0 (append ");
            render_list(xs, depth, out);
            out.push(' ');
            render_list(ys, depth, out);
            out.push_str(")))");
        }
    }
}

fn render_list(items: &[IntExpr], depth: usize, out: &mut String) {
    out.push_str("(list");
    for it in items {
        out.push(' ');
        render_int(it, depth, out);
    }
    out.push(')');
}

fn bin(out: &mut String, op: &str, a: &IntExpr, b: &IntExpr, depth: usize) {
    out.push('(');
    out.push_str(op);
    out.push(' ');
    render_int(a, depth, out);
    out.push(' ');
    render_int(b, depth, out);
    out.push(')');
}

fn safediv(out: &mut String, op: &str, a: &IntExpr, b: &IntExpr, depth: usize) {
    out.push('(');
    out.push_str(op);
    out.push(' ');
    render_int(a, depth, out);
    out.push_str(" (fx+ 1 (fxabs (fxremainder ");
    render_int(b, depth, out);
    out.push_str(" 100))))");
}

fn render_bool(e: &BoolExpr, depth: usize, out: &mut String) {
    match e {
        BoolExpr::Lit(b) => out.push_str(if *b { "#t" } else { "#f" }),
        BoolExpr::Lt(a, b) => {
            out.push_str("(fx< ");
            render_int(a, depth, out);
            out.push(' ');
            render_int(b, depth, out);
            out.push(')');
        }
        BoolExpr::Eq(a, b) => {
            out.push_str("(fx= ");
            render_int(a, depth, out);
            out.push(' ');
            render_int(b, depth, out);
            out.push(')');
        }
        BoolExpr::Not(a) => {
            out.push_str("(not ");
            render_bool(a, depth, out);
            out.push(')');
        }
        BoolExpr::And(a, b) => {
            out.push_str("(and ");
            render_bool(a, depth, out);
            out.push(' ');
            render_bool(b, depth, out);
            out.push(')');
        }
        BoolExpr::Or(a, b) => {
            out.push_str("(or ");
            render_bool(a, depth, out);
            out.push(' ');
            render_bool(b, depth, out);
            out.push(')');
        }
        BoolExpr::NullTest(items) => {
            out.push_str("(null? (cdr (cons 0 ");
            if items.is_empty() {
                out.push_str("'()");
            } else {
                render_list(items, depth, out);
            }
            out.push_str(")))");
        }
    }
}

const SEED: u64 = 0x5EED_5EED_5EED_5EED;
const CASES: usize = 48;

fn env_u64(name: &str) -> Option<u64> {
    let v = std::env::var(name).ok()?;
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

/// The seed in effect (`SXR_FUZZ_SEED` overrides the built-in default).
fn fuzz_seed() -> u64 {
    env_u64("SXR_FUZZ_SEED").unwrap_or(SEED)
}

/// Number of cases to run (`SXR_FUZZ_ITERS` overrides the default).
fn fuzz_iters() -> usize {
    env_u64("SXR_FUZZ_ITERS").map_or(CASES, |n| n as usize)
}

/// The repro line printed with every failure, so a failing case replays
/// exactly regardless of where the defaults drift.
fn repro(seed: u64, case: usize) -> String {
    format!(
        "replay: SXR_FUZZ_SEED={seed} SXR_FUZZ_ITERS={} cargo test --test proptest_differential",
        case + 1
    )
}

#[test]
fn pipelines_agree_on_random_programs() {
    let seed = fuzz_seed();
    let mut rng = Rng::new(seed);
    for case in 0..fuzz_iters() {
        let e = gen_int(&mut rng, 5);
        let mut src = String::from("(display ");
        render_int(&e, 0, &mut src);
        src.push(')');

        // Drawn up front so the main generator stream is identical whether
        // or not the resumption replay below fires for a given config.
        let slice_seed = rng.next();

        let mut results: Vec<(String, String)> = Vec::new();
        for (idx, (label, cfg)) in [
            ("Traditional", PipelineConfig::traditional()),
            ("AbstractOpt", PipelineConfig::abstract_optimized()),
            ("AbstractNoOpt", PipelineConfig::abstract_unoptimized()),
            ("Ablate(bits)", PipelineConfig::ablated("bits")),
            ("Ablate(repspec)", PipelineConfig::ablated("repspec")),
        ]
        .into_iter()
        .enumerate()
        {
            let compiled = Compiler::new(cfg).compile(&src).unwrap_or_else(|err| {
                panic!(
                    "[{label}] case {case} compile failed: {err}\n{src}\n{}",
                    repro(seed, case)
                )
            });
            // Load-time verification oracle: every compiler-produced
            // program must pass the bytecode verifier — a rejection is a
            // codegen (or verifier) bug, and the machine would refuse to
            // load the program.
            let vreport = compiled.verify_bytecode();
            assert!(
                vreport.is_clean(),
                "[{label}] case {case} bytecode verifier rejected compiler output:\n\
                 {vreport}\n{src}\n{}",
                repro(seed, case)
            );
            if label == "AbstractOpt" {
                // Every random program also round-trips through the static
                // analyzer: a provable rep misuse in generated well-typed
                // code would itself be an analyzer (or compiler) bug.
                let errors = compiled.analyze_errors();
                assert!(
                    errors.is_empty(),
                    "[{label}] case {case} analyzer flagged a well-typed program:\n{}\n{src}\n{}",
                    errors.join("\n"),
                    repro(seed, case)
                );
            }
            let out = compiled.run().unwrap_or_else(|err| {
                panic!(
                    "[{label}] case {case} run failed: {err}\n{src}\n{}",
                    repro(seed, case)
                )
            });
            // The same compilation must be bit-identical under the
            // GC-on-every-allocation schedule: any difference is a
            // missing-root or stale-pointer bug in the VM.
            let chaotic = compiled
                .run_with_fault(FaultPlan::none().with_gc_every_alloc())
                .unwrap_or_else(|err| {
                    panic!(
                        "[{label}] case {case} failed under gc-every-alloc: {err}\n{src}\n{}",
                        repro(seed, case)
                    )
                });
            assert_eq!(
                chaotic.output,
                out.output,
                "[{label}] case {case} diverged under gc-every-alloc:\n{src}\n{}",
                repro(seed, case)
            );
            // Rotating resumption replay: random fuel slices (1..=4096,
            // from the replayable seed) must leave the outcome bitwise
            // identical — suspension is invisible to the guest.
            if idx == case % 5 {
                let mut srng = Rng::new(slice_seed);
                let (sliced, suspensions) =
                    run_resumable_with(&compiled, move || 1 + (srng.next() % 4096)).unwrap_or_else(
                        |err| {
                            panic!(
                                "[{label}] case {case} failed under sliced resumption: {err}\n\
                                 {src}\n{}",
                                repro(seed, case)
                            )
                        },
                    );
                assert_eq!(
                    sliced,
                    out,
                    "[{label}] case {case} diverged under sliced resumption \
                     ({suspensions} suspensions):\n{src}\n{}",
                    repro(seed, case)
                );
            }
            results.push((label.to_string(), out.output));
        }
        let first = results[0].1.clone();
        for (label, o) in &results {
            assert_eq!(
                o,
                &first,
                "{label} diverged on case {case}:\n{src}\n{}",
                repro(seed, case)
            );
        }
    }
}

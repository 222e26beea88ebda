//! Compile and load work grows linearly with program size.
//!
//! The checks use deterministic work counts, never wall-clock times: the
//! inliner's node visits, the bytecode verifier's abstract steps, and the
//! abstract register words it copied or joined.  Each is divided by the
//! instructions of the generated code, which grow linearly with every
//! scaling shape's size (`sxr_bench::ScaleShape`), and must stay under a
//! fixed constant at every size.  A second test keeps the deterministic
//! columns of the checked-in `BENCH_scale.json` equal to what the code
//! produces.

use sxr::{Compiler, PipelineConfig};
use sxr_bench::ScaleShape;

const SIZES: [usize; 4] = [50, 100, 200, 400];

/// Inliner node visits per instruction.  The linear inliner measures
/// 6.3–10.1 here.  One that walks the rest of the program again after
/// every inlined call measures 24 at `set-chain` n = 50 and 308 at n = 400.
const MAX_VISITS_PER_INST: f64 = 12.0;

/// Verifier steps per instruction (1.006–1.009 measured): straight-line
/// code is stepped once.
const MAX_STEPS_PER_INST: f64 = 1.5;

/// Verifier register words copied or joined per instruction.  Keeping
/// states only at leaders measures 3.3–4.5 here.  Keeping one at every pc
/// costs about `nregs` words per instruction: 116 at n = 50 and 760 at
/// n = 400.
const MAX_WORDS_PER_INST: f64 = 8.0;

#[test]
fn compile_and_load_work_is_linear_in_program_size() {
    let compiler = Compiler::new(PipelineConfig::abstract_optimized());
    for shape in ScaleShape::ALL {
        for n in SIZES {
            let compiled = compiler.compile(&shape.source(n)).unwrap();
            assert_eq!(
                compiled.run().unwrap().value,
                n.to_string(),
                "{}",
                shape.name()
            );
            let verify = compiled.verify_bytecode();
            assert!(verify.is_clean(), "{verify}");
            let per_inst = |work: usize| work as f64 / verify.insts as f64;
            let visits = per_inst(compiled.opt_report.inline_visits);
            let steps = per_inst(verify.steps);
            let words = per_inst(verify.state_words);
            assert!(
                visits <= MAX_VISITS_PER_INST,
                "{} n={n}: {visits:.2} inliner visits per instruction",
                shape.name()
            );
            assert!(
                steps <= MAX_STEPS_PER_INST,
                "{} n={n}: {steps:.2} verifier steps per instruction",
                shape.name()
            );
            assert!(
                words <= MAX_WORDS_PER_INST,
                "{} n={n}: {words:.2} verifier state words per instruction",
                shape.name()
            );
        }
    }
}

/// The field `key` of the one-line JSON object `row`, as written by
/// `bench_scale` (`"key":value`, strings quoted).
fn field<'a>(row: &'a str, key: &str) -> &'a str {
    let start = row
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("no `{key}` in {row}"))
        + key.len()
        + 3;
    let rest = &row[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim_matches('"')
}

#[test]
fn checked_in_bench_scale_matches_the_code() {
    // The deterministic columns of each shape's smallest size in
    // BENCH_scale.json; regenerate the file with `bench_scale` when the
    // compiler or verifier changes them.
    let doc = include_str!("../BENCH_scale.json");
    let compiler = Compiler::new(PipelineConfig::abstract_optimized());
    for shape in ScaleShape::ALL {
        let section = doc
            .split(&format!("{{\"shape\":\"{}\"", shape.name()))
            .nth(1)
            .unwrap_or_else(|| panic!("no `{}` shape in BENCH_scale.json", shape.name()));
        let row = section
            .lines()
            .find(|l| l.trim_start().starts_with("{\"n\":"))
            .expect("a row");
        let n: usize = field(row, "n").parse().expect("a size");
        let compiled = compiler.compile(&shape.source(n)).unwrap();
        let verify = compiled.verify_bytecode();
        let nregs: usize = compiled.code.funs.iter().map(|f| f.nregs).sum();
        let value = compiled.run().unwrap().value;
        let fresh = [
            (
                "inline_visits",
                compiled.opt_report.inline_visits.to_string(),
            ),
            ("verify_steps", verify.steps.to_string()),
            ("verify_words", verify.state_words.to_string()),
            ("insts", verify.insts.to_string()),
            ("nregs", nregs.to_string()),
            ("value", value),
        ];
        for (key, got) in fresh {
            assert_eq!(
                field(row, key),
                got,
                "{} n={n}: `{key}` in BENCH_scale.json is stale",
                shape.name()
            );
        }
    }
}
